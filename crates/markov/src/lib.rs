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
//! The engine is organised in three layers:
//!
//! * [`chain`] enumerates the reachable state space into a CSR transition
//!   matrix (flat column/probability/reward arrays, interned state keys)
//!   and validates that every row's probability mass is 1;
//! * `solve` (internal) locates the terminal strongly connected
//!   component and solves the stationary equations — by default with a
//!   sparse Gauss–Seidel / damped-power hybrid that stops on the residual
//!   `‖πP − π‖₁`, scaling to recurrent classes of 10⁴–10⁵ states; the
//!   original dense Gauss–Jordan elimination survives as a
//!   cross-validation oracle behind [`MarkovParams::solver`];
//! * `power` (internal) covers multi-terminal chains with a
//!   Cesàro-averaged power iteration whose stopping rule extrapolates
//!   the limit (Aitken Δ² over geometric checkpoints).
//!
//! # Failure taxonomy and degradation ladder
//!
//! The sparse iterative solve never aborts a sweep over a convergence
//! budget. It degrades through explicit rungs — Gauss–Seidel → damped
//! power steps → Cesàro average of the damped iterates — and reports
//! which rung produced the answer in [`MarkovResult::quality`]
//! ([`SolveQuality`]); only the Cesàro rung marks the result inexact.
//! Structural failures stay hard errors ([`MarkovError`]): a
//! probability leak or an oversized state space cannot be "degraded
//! around" without silently skewing every downstream number. A seeded
//! [`MarkovFaults`] plan ([`MarkovParams::faults`], default off) stalls
//! each iterative phase deterministically so the ladder is testable on
//! well-behaved chains.
//!
//! # Choosing a solver
//!
//! [`MarkovParams::solver`] defaults to
//! [`StationarySolver::SparseIterative`]; select
//! [`StationarySolver::DenseGaussJordan`] to cross-check the iterative
//! result with an `O(k³)` elimination (it refuses recurrent classes past
//! [`DENSE_STATE_CAP`] states with
//! [`MarkovError::DenseSolveTooLarge`] rather than grinding). The two
//! agree to well below 1e-7 on every chain both can solve; the tests hold
//! them to that on the figure chains, on bounded pipelines of up to
//! 1,091 recurrent states, and on random graphs.
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

use rr_elastic::{Capacity, MachineError};
use rr_rrg::Rrg;

pub mod chain;
mod power;
mod solve;

pub use chain::{build_chain, Chain, ROW_MASS_TOLERANCE};
pub use solve::DENSE_STATE_CAP;

#[cfg(test)]
mod proptests;

/// Stationary-solve algorithm for the terminal recurrent class.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum StationarySolver {
    /// Sparse Gauss–Seidel / damped-power hybrid with a residual-based
    /// stopping rule (`‖πP − π‖₁ < ε`). Handles recurrent classes of
    /// 10⁴–10⁵ states; the production default.
    #[default]
    SparseIterative,
    /// Dense Gauss–Jordan elimination — the original `O(k³)` solver, kept
    /// as a cross-validation oracle. Refuses classes beyond
    /// [`DENSE_STATE_CAP`] states.
    DenseGaussJordan,
}

/// How the stationary distribution was obtained — the solver's own
/// degradation ladder, reported instead of silently mixing methods.
/// Ordered from strongest to weakest guarantee.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SolveQuality {
    /// Direct elimination (dense oracle) or a trivial singleton class —
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

/// Deterministic fault injection for the Markov solve — exercises the
/// degradation ladder without pathological chains. Default off; see the
/// fault-injection test suite.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct MarkovFaults {
    /// Pretend the Gauss–Seidel phase oscillates: skip it entirely, as
    /// the rising-residual detector would after 8 rising sweeps.
    pub stall_gauss_seidel: bool,
    /// Truncate the damped-power budget so it cannot reach the residual
    /// tolerance, forcing the Cesàro-average degradation.
    pub stall_damped_power: bool,
}

/// Limits for the state-space exploration.
#[derive(Debug, Clone, PartialEq)]
pub struct MarkovParams {
    /// Abort if more reachable states than this are found.
    pub max_states: usize,
    /// Channel capacity model of the underlying machine.
    pub capacity: Capacity,
    /// Stationary-solve algorithm for the recurrent class.
    pub solver: StationarySolver,
    /// Deterministic fault injection (default `None` — fully inert).
    pub faults: Option<MarkovFaults>,
}

impl Default for MarkovParams {
    fn default() -> Self {
        MarkovParams {
            max_states: 200_000,
            capacity: Capacity::Unbounded,
            solver: StationarySolver::SparseIterative,
            faults: None,
        }
    }
}

/// Analysis result.
#[derive(Debug, Clone, PartialEq)]
pub struct MarkovResult {
    /// Exact steady-state throughput (expected firings of node 0 per
    /// cycle).
    pub throughput: f64,
    /// Number of reachable states explored.
    pub states: usize,
    /// Number of states in the recurrent class that was solved.
    pub recurrent_states: usize,
    /// `true` when the stationary distribution was solved exactly (vs
    /// power iteration or a Cesàro-average degradation).
    pub exact: bool,
    /// Which rung of the solver's degradation ladder produced the
    /// answer; `exact` is equivalent to
    /// `quality != SolveQuality::CesaroAverage`.
    pub quality: SolveQuality,
}

/// Analysis failures.
#[derive(Debug, Clone, PartialEq)]
pub enum MarkovError {
    /// More reachable states than [`MarkovParams::max_states`].
    StateSpaceTooLarge { limit: usize },
    /// Underlying machine failure.
    Machine(MachineError),
    /// A state's outgoing transition probabilities do not sum to 1 within
    /// [`ROW_MASS_TOLERANCE`] — a machine or γ-assignment bug that would
    /// silently skew every downstream solve.
    ProbabilityLeak { state: usize, mass: f64 },
    /// The dense cross-validation oracle was asked for a recurrent class
    /// larger than [`DENSE_STATE_CAP`]; use the sparse solver instead.
    DenseSolveTooLarge { states: usize, cap: usize },
    /// The multi-terminal power-iteration fallback did not reach its
    /// residual tolerance within the iteration budget. (The
    /// single-terminal sparse solve no longer fails this way — it
    /// degrades to a Cesàro average and reports
    /// [`SolveQuality::CesaroAverage`] instead.)
    NoConvergence,
    /// An early-evaluation node has an incoming edge without a γ
    /// assignment, so guard probabilities cannot be formed.
    MissingGamma { edge: usize },
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
            MarkovError::DenseSolveTooLarge { states, cap } => write!(
                f,
                "dense oracle refuses {states} recurrent states (cap {cap}); \
                 use StationarySolver::SparseIterative"
            ),
            MarkovError::NoConvergence => f.write_str("iterative solve did not converge"),
            MarkovError::MissingGamma { edge } => write!(
                f,
                "edge {edge}: early-evaluation input lacks a γ probability"
            ),
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

/// Exact throughput with default limits.
///
/// # Errors
///
/// See [`MarkovError`].
pub fn exact_throughput(g: &Rrg) -> Result<MarkovResult, MarkovError> {
    exact_throughput_with(g, &MarkovParams::default())
}

/// Exact throughput with explicit limits.
///
/// # Errors
///
/// See [`MarkovError`].
pub fn exact_throughput_with(g: &Rrg, params: &MarkovParams) -> Result<MarkovResult, MarkovError> {
    let chain = build_chain(g, params)?;
    solve::solve_chain(&chain, params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr_rrg::figures;

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
        // chain gives 0.49180… and 0.71875: the paper truncated (not
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
        let params = MarkovParams {
            max_states: 3,
            ..Default::default()
        };
        let err = exact_throughput_with(&figures::figure_1b(0.5), &params).unwrap_err();
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
    fn bounded_capacity_chain_solves_too() {
        let g = figures::figure_1b(0.5);
        let params = MarkovParams {
            capacity: Capacity::PerBuffer(2),
            ..Default::default()
        };
        let bounded = exact_throughput_with(&g, &params).unwrap();
        let unbounded = exact_throughput(&g).unwrap();
        assert!(bounded.throughput <= unbounded.throughput + 1e-9);
        assert!(bounded.throughput > 0.0);
    }

    #[test]
    fn solvers_agree_on_all_figure_chains() {
        // The two bounded pipelines have 419 and 1,091 recurrent states,
        // the largest chains below the dense oracle's cap.
        for (g, capacity) in [
            (figures::figure_1a(0.5), Capacity::Unbounded),
            (figures::figure_1b(0.5), Capacity::Unbounded),
            (figures::figure_1b(0.9), Capacity::Unbounded),
            (figures::figure_2(0.25), Capacity::Unbounded),
            (figures::figure_2(0.9), Capacity::Unbounded),
            (
                figures::figure_1b_pipeline(&[2, 2], 0.6),
                Capacity::PerBuffer(2),
            ),
            (
                figures::figure_1b_pipeline(&[3, 2], 0.6),
                Capacity::PerBuffer(2),
            ),
        ] {
            let params = MarkovParams {
                capacity,
                ..Default::default()
            };
            let sparse = exact_throughput_with(&g, &params).unwrap();
            let dense = exact_throughput_with(
                &g,
                &MarkovParams {
                    solver: StationarySolver::DenseGaussJordan,
                    ..params
                },
            )
            .unwrap();
            assert!(sparse.exact && dense.exact);
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
        // Two pipelined figure-1(b) stages of length 3: ~2.5k recurrent
        // states — past the 2,000-state wall where the old dense-only
        // engine silently fell back to power iteration — and two of
        // length 5 at two slots per buffer: 28,520 recurrent states. The
        // sparse path must solve both exactly; the dense oracle must
        // refuse them with a structured error; and each answer must agree
        // with an independent machine simulation.
        for (g, capacity) in [
            (
                figures::figure_1b_pipeline(&[3, 3], 0.6),
                Capacity::Unbounded,
            ),
            (
                figures::figure_1b_pipeline(&[5, 5], 0.6),
                Capacity::PerBuffer(2),
            ),
        ] {
            let params = MarkovParams {
                capacity,
                ..Default::default()
            };
            let sparse = exact_throughput_with(&g, &params).unwrap();
            assert!(sparse.exact, "sparse path fell back to power iteration");
            assert!(
                sparse.recurrent_states > DENSE_STATE_CAP,
                "instance shrank below the cap: {} states",
                sparse.recurrent_states
            );

            let dense_params = MarkovParams {
                solver: StationarySolver::DenseGaussJordan,
                ..params
            };
            match exact_throughput_with(&g, &dense_params) {
                Err(MarkovError::DenseSolveTooLarge { states, cap }) => {
                    assert_eq!(states, sparse.recurrent_states);
                    assert_eq!(cap, DENSE_STATE_CAP);
                }
                other => panic!("expected DenseSolveTooLarge, got {other:?}"),
            }

            let sim = rr_elastic::simulate(
                &g,
                &rr_elastic::MachineParams {
                    horizon: 60_000,
                    warmup: 10_000,
                    capacity,
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

    /// The old power-iteration stopping rule compared Cesàro averages
    /// 1,000 iterations apart against 1e-7: the successive delta shrinks
    /// like `c/t²` while the absolute error is still `c/t`, so on a
    /// slow-mixing chain (γ near 1 the mux almost always takes the top
    /// channel, and the bottom-channel excursions that set the throughput
    /// are rare) it fired while the answer was off in the fourth decimal.
    #[test]
    fn slow_mixing_power_iteration_is_accurate_where_old_criterion_failed() {
        let g = figures::figure_1b(0.9999);
        let truth = exact_throughput(&g).unwrap();
        assert!(truth.exact);

        // Run the power-iteration fallback on the same chain, and
        // replicate the old stopping rule there.
        let chain = build_chain(&g, &MarkovParams::default()).unwrap();
        let power = crate::power::power_iteration(&chain).unwrap();
        let old = old_criterion_estimate(&chain);

        // Measured: the old rule fires at t = 2,000 with ~8e-6 error (it
        // claimed 1e-7); the extrapolated rule is accurate to ~6e-11.
        let old_err = (old - truth.throughput).abs();
        let new_err = (power - truth.throughput).abs();
        assert!(
            old_err > 2e-6,
            "old criterion unexpectedly accurate: err {old_err:.2e}"
        );
        assert!(
            new_err < 1e-8,
            "extrapolated criterion off by {new_err:.2e} (old: {old_err:.2e})"
        );
        assert!(new_err * 100.0 < old_err);
    }

    /// The pre-fix stopping rule, verbatim: converged when Cesàro averages
    /// 1,000 iterations apart differ by less than 1e-7.
    fn old_criterion_estimate(chain: &Chain) -> f64 {
        let n = chain.num_states();
        let mut dist = vec![0.0f64; n];
        dist[0] = 1.0;
        let mut next = vec![0.0f64; n];
        let mut avg_prev = f64::NAN;
        let mut cum_reward = 0.0;
        for it in 1..=400_000usize {
            next.iter_mut().for_each(|x| *x = 0.0);
            let mut step_reward = 0.0;
            for (s, d) in dist.iter().enumerate() {
                if *d == 0.0 {
                    continue;
                }
                for (t, p, r) in chain.row(s) {
                    next[t] += d * p;
                    step_reward += d * p * r;
                }
            }
            std::mem::swap(&mut dist, &mut next);
            cum_reward += step_reward;
            if it % 1_000 == 0 {
                let avg = cum_reward / it as f64;
                if (avg - avg_prev).abs() < 1e-7 {
                    return avg;
                }
                avg_prev = avg;
            }
        }
        panic!("old criterion never fired");
    }

    /// Each rung of the degradation ladder, driven by the seeded fault
    /// plan on a chain all rungs can handle: a clean solve converges in
    /// Gauss–Seidel; a stalled Gauss–Seidel converges in damped power;
    /// stalling both degrades to the Cesàro average — which must still
    /// be *reported* (not an error) and land near the true throughput.
    #[test]
    fn fault_plan_walks_the_degradation_ladder() {
        let g = figures::figure_1b(0.5);
        let clean = exact_throughput(&g).unwrap();
        assert_eq!(clean.quality, SolveQuality::GaussSeidel);
        assert!(clean.exact);

        let damped = exact_throughput_with(
            &g,
            &MarkovParams {
                faults: Some(MarkovFaults {
                    stall_gauss_seidel: true,
                    stall_damped_power: false,
                }),
                ..Default::default()
            },
        )
        .unwrap();
        assert_eq!(damped.quality, SolveQuality::DampedPower);
        assert!(damped.exact);
        assert!(
            (damped.throughput - clean.throughput).abs() < 1e-9,
            "damped {} vs clean {}",
            damped.throughput,
            clean.throughput
        );

        let cesaro = exact_throughput_with(
            &g,
            &MarkovParams {
                faults: Some(MarkovFaults {
                    stall_gauss_seidel: true,
                    stall_damped_power: true,
                }),
                ..Default::default()
            },
        )
        .unwrap();
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
        use rr_rrg::RrgBuilder;
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
}
