//! Exact steady-state throughput of elastic systems via sparse Markov
//! chains — the analysis the paper uses for its motivating example (§1.4):
//! "The behavior of ESs with early evaluation can be modeled using Markov
//! chains. Although this approach does not scale in general, … it can be
//! used for analysis of this small example to compute an exact expression
//! for the throughput."
//!
//! The chain's states are the canonical machine states of
//! [`rr_elastic::Machine`] (channel queues, anti-token debt, pending guard
//! selections); one transition = one clock cycle; branching comes from the
//! γ-distributed guard draws. The long-run average of "reference node
//! fired this cycle" is the throughput.
//!
//! The engine is organised in two layers:
//!
//! * [`chain`] enumerates the reachable state space into a CSR transition
//!   matrix (flat column/probability/reward arrays, each state stored once
//!   as its interned key), validates that every row's probability mass is
//!   1, and stops at `max_states` states ([`DEFAULT_MAX_STATES`] under
//!   [`exact_throughput`]) or when the keys outgrow their word budget;
//! * `solve` (internal) locates the terminal strongly connected
//!   components and solves the stationary equations of each with a sparse
//!   Gauss–Seidel / damped-power hybrid that stops on the residual
//!   `‖πP − π‖₁`, scaling to recurrent classes of 10⁴–10⁵ states. A chain
//!   with several terminal classes weights each class's throughput by the
//!   probability of being absorbed into it from the initial state, so it
//!   is solved as exactly as a chain with one.
//!
//! # Failure taxonomy and degradation ladder
//!
//! The sparse iterative solve never aborts a sweep over a convergence
//! budget. It degrades through explicit rungs — Gauss–Seidel → damped
//! power steps → Cesàro average of the damped iterates — and reports
//! which rung produced the answer in [`MarkovResult::quality`]
//! ([`SolveQuality`]; with several terminal classes, the weakest class's
//! rung); only the Cesàro rung marks the result inexact. Structural
//! failures stay hard errors ([`MarkovError`]): a probability leak or an
//! oversized state space cannot be "degraded around" without silently
//! skewing every downstream number.
//!
//! # Verification
//!
//! The tests hold the sparse solve to an independent oracle, the original
//! `O(k³)` Gauss–Jordan elimination of each class, which exists only in
//! test builds. The two agree to well below 1e-7 on the figure chains, on
//! pipelines of up to 1,091 recurrent states and on random recycled
//! graphs. Shrunken stage budgets, also test-only, walk the degradation
//! ladder rung by rung on a chain every rung can solve.
//!
//! # Example
//!
//! ```
//! use rr_markov::exact_throughput;
//! use rr_rrg::figures;
//!
//! // Figure 2's closed form Θ = 1/(3 − 2α), derived in the paper by
//! // "resolving the Markov chain", falls out exactly:
//! let th = exact_throughput(&figures::figure_2(0.9))?;
//! assert!((th.throughput - 5.0 / 6.0).abs() < 1e-9);
//! # Ok::<(), rr_markov::MarkovError>(())
//! ```

use std::error::Error;
use std::fmt;

use rr_elastic::MachineError;
use rr_rrg::Rrg;

pub mod chain;
mod solve;

pub use chain::{build_chain, Chain, ROW_MASS_TOLERANCE};

#[cfg(test)]
mod proptests;

/// The state cap of [`exact_throughput`]: exploration stops past this
/// many reachable states (see [`build_chain`]).
pub const DEFAULT_MAX_STATES: usize = 200_000;

/// How the stationary distribution was obtained — the solver's own
/// degradation ladder, reported instead of silently mixing methods.
/// Ordered from strongest to weakest guarantee.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum SolveQuality {
    /// A trivial singleton class (or the test-only dense elimination) —
    /// no iteration involved.
    Direct,
    /// Gauss–Seidel sweeps converged below the residual tolerance.
    GaussSeidel,
    /// Gauss–Seidel stalled (periodic class); the damped power phase
    /// converged below the same residual tolerance. Still exact.
    DampedPower,
    /// Neither iterative phase reached the tolerance within its budget;
    /// the reported throughput is the Cesàro average of the damped-power
    /// iterates — a best-effort estimate, **not** an exact solve.
    CesaroAverage,
}

/// Analysis result.
#[derive(Debug, Clone, PartialEq)]
pub struct MarkovResult {
    /// Exact steady-state throughput (expected firings of node 0 per
    /// cycle).
    pub throughput: f64,
    /// Number of reachable states explored.
    pub states: usize,
    /// Number of states in the terminal (recurrent) classes, all of which
    /// are solved.
    pub recurrent_states: usize,
    /// `true` when every terminal class's stationary distribution was
    /// solved exactly (not degraded to a Cesàro average); a chain with
    /// several terminal classes is exact too.
    pub exact: bool,
    /// Which rung of the solver's degradation ladder produced the
    /// answer — the weakest rung over the terminal classes; `exact` is
    /// equivalent to `quality != SolveQuality::CesaroAverage`.
    pub quality: SolveQuality,
}

/// Analysis failures.
#[derive(Debug, Clone, PartialEq)]
pub enum MarkovError {
    /// More reachable states than `max_states`, or state keys holding
    /// more than `2 · max_states` times the initial key's length in words
    /// (a queue that grows without end lengthens the keys instead of
    /// multiplying the states).
    StateSpaceTooLarge { limit: usize },
    /// Underlying machine failure.
    Machine(MachineError),
    /// A state's outgoing transition probabilities do not sum to 1 within
    /// [`ROW_MASS_TOLERANCE`] — a machine or γ-assignment bug that would
    /// silently skew every downstream solve.
    ProbabilityLeak { state: usize, mass: f64 },
    /// A chain with several terminal classes still had more than 1e-15
    /// of its probability mass in transient states after the absorption
    /// budget (2²⁰ steps). This is the only budget that fails a solve:
    /// a class's stationary solve degrades to a Cesàro average and
    /// reports [`SolveQuality::CesaroAverage`] instead.
    NoConvergence,
}

impl fmt::Display for MarkovError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MarkovError::StateSpaceTooLarge { limit } => {
                write!(f, "reachable state space exceeds {limit} states")
            }
            MarkovError::Machine(e) => write!(f, "machine error: {e}"),
            MarkovError::ProbabilityLeak { state, mass } => write!(
                f,
                "state {state}: outgoing probability mass {mass} ≠ 1 (machine or γ bug)"
            ),
            MarkovError::NoConvergence => {
                f.write_str("transient mass did not drain into the terminal classes")
            }
        }
    }
}

impl Error for MarkovError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            MarkovError::Machine(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MachineError> for MarkovError {
    fn from(e: MachineError) -> Self {
        MarkovError::Machine(e)
    }
}

/// Exact throughput, exploring at most [`DEFAULT_MAX_STATES`] states.
///
/// # Errors
///
/// See [`MarkovError`].
pub fn exact_throughput(g: &Rrg) -> Result<MarkovResult, MarkovError> {
    exact_throughput_with(g, DEFAULT_MAX_STATES)
}

/// Exact throughput, exploring at most `max_states` states.
///
/// # Errors
///
/// See [`MarkovError`].
pub fn exact_throughput_with(g: &Rrg, max_states: usize) -> Result<MarkovResult, MarkovError> {
    solve::solve_chain(&build_chain(g, max_states)?)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr_rrg::config::retime_tokens;
    use rr_rrg::generate::GeneratorParams;
    use rr_rrg::{figures, Config, RrgBuilder};

    /// The test-only dense oracle's answer for `g`.
    fn dense_throughput(g: &Rrg) -> Result<MarkovResult, MarkovError> {
        solve::solve_chain_dense(&build_chain(g, DEFAULT_MAX_STATES)?)
    }

    /// `g` solved with explicit stage budgets: Gauss–Seidel sweeps, then
    /// damped power steps.
    fn budgeted_throughput(g: &Rrg, sweeps: usize, steps: usize) -> MarkovResult {
        let chain = build_chain(g, DEFAULT_MAX_STATES).unwrap();
        solve::solve_chain_budgeted(&chain, sweeps, steps).unwrap()
    }

    #[test]
    fn figure_2_closed_form_is_exact() {
        for &alpha in &[0.25, 0.5, 0.75, 0.9] {
            let r = exact_throughput(&figures::figure_2(alpha)).unwrap();
            let exact = figures::figure_2_throughput(alpha);
            assert!(
                (r.throughput - exact).abs() < 1e-9,
                "α={alpha}: Markov {} vs closed form {exact} ({} states)",
                r.throughput,
                r.states
            );
            assert!(r.exact);
        }
    }

    #[test]
    fn figure_1b_matches_paper_values() {
        // §1.4: Θ = 0.491 at α = 0.5 and Θ = 0.719 at α = 0.9. The exact
        // chain gives 0.49180… and 0.71902…: the paper truncated (not
        // rounded) the first value to three decimals.
        let r05 = exact_throughput(&figures::figure_1b(0.5)).unwrap();
        assert!(
            (r05.throughput - 0.4918).abs() < 1e-3,
            "Θ(0.5) = {}",
            r05.throughput
        );
        let r09 = exact_throughput(&figures::figure_1b(0.9)).unwrap();
        assert!(
            (r09.throughput - 0.719).abs() < 5e-4,
            "Θ(0.9) = {}",
            r09.throughput
        );
    }

    #[test]
    fn figure_1a_is_deterministic_rate_one() {
        let r = exact_throughput(&figures::figure_1a(0.5)).unwrap();
        assert!((r.throughput - 1.0).abs() < 1e-9, "Θ = {}", r.throughput);
    }

    #[test]
    fn late_evaluation_is_exact_min_cycle_ratio() {
        let g = figures::figure_1b(0.5).with_late_evaluation();
        let r = exact_throughput(&g).unwrap();
        assert!(
            (r.throughput - 1.0 / 3.0).abs() < 1e-9,
            "Θ = {}",
            r.throughput
        );
    }

    #[test]
    fn state_limit_is_enforced() {
        let err = exact_throughput_with(&figures::figure_1b(0.5), 3).unwrap_err();
        assert!(matches!(err, MarkovError::StateSpaceTooLarge { .. }));
    }

    #[test]
    fn throughput_agrees_with_machine_simulation() {
        let g = figures::figure_1b(0.7);
        let exact = exact_throughput(&g).unwrap().throughput;
        let sim = rr_elastic::simulate(&g, &rr_elastic::MachineParams::default())
            .unwrap()
            .throughput;
        assert!((exact - sim).abs() < 0.01, "exact {exact} vs sim {sim}");
    }

    #[test]
    fn solvers_agree_on_all_figure_chains() {
        // The two pipelines have 419 and 1,091 recurrent states, the
        // largest chains below the dense oracle's cap.
        for (g, recurrent) in [
            (figures::figure_1a(0.5), 1),
            (figures::figure_1b(0.5), 13),
            (figures::figure_1b(0.9), 13),
            (figures::figure_2(0.25), 6),
            (figures::figure_2(0.9), 6),
            (figures::figure_1b_pipeline(&[2, 2], 0.6), 419),
            (figures::figure_1b_pipeline(&[3, 2], 0.6), 1_091),
        ] {
            let sparse = exact_throughput(&g).unwrap();
            let dense = dense_throughput(&g).unwrap();
            assert!(sparse.exact && dense.exact);
            assert_eq!(sparse.recurrent_states, recurrent);
            assert!(
                (sparse.throughput - dense.throughput).abs() < 1e-7,
                "sparse {} vs dense {}",
                sparse.throughput,
                dense.throughput
            );
        }
    }

    #[test]
    fn sparse_solves_beyond_the_old_dense_cap() {
        // Two pipelined figure-1(b) stages of length 3: 2,496 recurrent
        // states — past the 2,000-state wall where the old dense-only
        // engine silently fell back to power iteration — and two of
        // length 5: 28,520 recurrent states. The sparse path must solve
        // both exactly; the test-only dense oracle must refuse them at
        // its cap; and each answer must agree with an independent machine
        // simulation.
        for (g, recurrent) in [
            (figures::figure_1b_pipeline(&[3, 3], 0.6), 2_496),
            (figures::figure_1b_pipeline(&[5, 5], 0.6), 28_520),
        ] {
            let sparse = exact_throughput(&g).unwrap();
            assert!(sparse.exact, "sparse path degraded to a Cesàro average");
            assert_eq!(sparse.recurrent_states, recurrent);
            assert!(
                sparse.recurrent_states > solve::DENSE_STATE_CAP,
                "instance shrank below the cap: {} states",
                sparse.recurrent_states
            );
            assert_eq!(
                dense_throughput(&g),
                Err(MarkovError::StateSpaceTooLarge {
                    limit: solve::DENSE_STATE_CAP
                })
            );

            let sim = rr_elastic::simulate(
                &g,
                &rr_elastic::MachineParams {
                    horizon: 60_000,
                    warmup: 10_000,
                    ..Default::default()
                },
            )
            .unwrap()
            .throughput;
            assert!(
                (sparse.throughput - sim).abs() < 0.01,
                "sparse {} vs simulation {sim}",
                sparse.throughput
            );
        }
    }

    /// A recycled random graph whose chain has three terminal classes
    /// (7, 22 and 32 states, periods 3, 6 and 6), each running at 1/3:
    /// every class is solved and weighted by its absorption probability,
    /// by the sparse solve and by the dense oracle, and the answer is
    /// exact.
    #[test]
    fn several_terminal_classes_solve_exactly() {
        let g = GeneratorParams::paper_defaults(5, 1, 10).generate(4775422552608331596);
        let config = Config {
            tokens: retime_tokens(&g, &[0, 0, -2, -1, -2, -2]),
            buffers: vec![2, 1, 1, 4, 0, 1, 1, 1, 2, 2],
        };
        let g = config.apply(&g).unwrap();
        for (solver, r) in [
            ("sparse", exact_throughput(&g)),
            ("dense", dense_throughput(&g)),
        ] {
            let r = r.unwrap();
            assert_eq!((r.states, r.recurrent_states), (122, 61), "{solver}");
            assert!(r.exact, "{solver}: {:?}", r.quality);
            assert!(
                (r.throughput - 1.0 / 3.0).abs() < 1e-12,
                "{solver}: Θ = {}",
                r.throughput
            );
        }
    }

    /// A retiming-plus-bubbles configuration whose machine grows a queue
    /// without end: its keys lengthen with the exploration depth, so the
    /// word budget refuses it long before the state cap would.
    #[test]
    fn unbounded_queue_growth_hits_the_word_budget() {
        let g = GeneratorParams::paper_defaults(5, 1, 9).generate(122);
        let config = Config {
            tokens: vec![3, 1, 1, -1, -1, 0, 0, 0, -2],
            buffers: vec![4, 3, 3, 1, 0, 1, 0, 2, 1],
        };
        assert!(config.validate(&g).is_ok());
        let err = exact_throughput(&config.apply(&g).unwrap()).unwrap_err();
        assert_eq!(err, MarkovError::StateSpaceTooLarge { limit: 200_000 });
    }

    /// Each rung of the degradation ladder, reached by shrinking the
    /// stage budgets on a chain all rungs can handle: a clean solve
    /// converges in Gauss–Seidel; with no Gauss–Seidel sweep it converges
    /// in damped power; with 16 damped steps as well it degrades to the
    /// Cesàro average — which must still be *reported* (not an error) and
    /// land near the true throughput.
    #[test]
    fn fault_plan_walks_the_degradation_ladder() {
        let g = figures::figure_1b(0.5);
        let clean = exact_throughput(&g).unwrap();
        assert_eq!(clean.quality, SolveQuality::GaussSeidel);
        assert!(clean.exact);

        let damped = budgeted_throughput(&g, 0, solve::DAMPED_STEPS);
        assert_eq!(damped.quality, SolveQuality::DampedPower);
        assert!(damped.exact);
        assert!(
            (damped.throughput - clean.throughput).abs() < 1e-9,
            "damped {} vs clean {}",
            damped.throughput,
            clean.throughput
        );

        let cesaro = budgeted_throughput(&g, 0, 16);
        assert_eq!(cesaro.quality, SolveQuality::CesaroAverage);
        assert!(!cesaro.exact);
        // 16 damped steps from uniform: crude but in the ballpark.
        assert!(
            (cesaro.throughput - clean.throughput).abs() < 0.1,
            "cesaro {} vs clean {}",
            cesaro.throughput,
            clean.throughput
        );
    }

    /// A singleton recurrent class short-circuits every iterative phase.
    #[test]
    fn singleton_class_reports_direct_quality() {
        let r = exact_throughput(&figures::figure_1a(0.5)).unwrap();
        assert_eq!(r.quality, SolveQuality::Direct);
        assert!(r.exact);
    }

    #[test]
    fn probability_leak_is_reported() {
        // The graph builder tolerates γ sums within GAMMA_TOL = 1e-6; the
        // chain builder demands 1e-9. A γ assignment in the gap passes
        // validation upstream but must be caught (not silently skew the
        // solve) when the chain is assembled.
        let mut b = RrgBuilder::new();
        let m = b.add_early("m", 0.0);
        let f = b.add_simple("f", 1.0);
        let e1 = b.add_edge(f, m, 1, 1);
        let e2 = b.add_edge(f, m, 1, 1);
        b.add_edge(m, f, 1, 1);
        b.set_gamma(e1, 0.5);
        b.set_gamma(e2, 0.5 - 5e-7); // leaks 5e-7 of probability mass
        let g = b.build().expect("leak is below the builder's tolerance");
        let err = exact_throughput(&g).unwrap_err();
        match err {
            MarkovError::ProbabilityLeak { mass, .. } => {
                assert!((mass - (1.0 - 5e-7)).abs() < 1e-9, "mass {mass}");
            }
            other => panic!("expected ProbabilityLeak, got {other:?}"),
        }
    }

    /// A graph without nodes has no reference node to fire: like both
    /// simulators, the chain builder reports a deadlock before the first
    /// cycle instead of indexing the empty firing vector.
    #[test]
    fn empty_graph_reports_deadlock() {
        let g = RrgBuilder::new().build().unwrap();
        assert_eq!(
            exact_throughput(&g),
            Err(MarkovError::Machine(MachineError::Deadlock { at_cycle: 0 }))
        );
    }
}
