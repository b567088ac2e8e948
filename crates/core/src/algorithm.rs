//! `MIN_EFF_CYC(RRG, k)` — the Pareto-sweep heuristic of §4.
//!
//! ```text
//! τ = β_max; RC = MAX_THR(τ); store(RC)
//! while Θ_lp(RC) < 1:
//!     Θ = Θ_lp(RC) + ε
//!     τ = τ(MIN_CYC(1/Θ))
//!     RC = MAX_THR(τ); store(RC)
//! return the stored RC with minimal ξ_lp (plus the k best others)
//! ```
//!
//! Every stored configuration is additionally evaluated by simulation so
//! the caller can report both `RC_lp_min` (what the LP picks) and
//! `RC_min` (what simulation says is truly best) — the paper's Table 1.

use std::collections::HashSet;

use rr_rrg::{cycle_time, Rrg};

use crate::evaluate::{evaluate_config, RcEvaluation};
use crate::formulation::{max_thr, min_cyc, OptError, OptOutcome};
use crate::CoreOptions;

/// Everything the sweep produced.
#[derive(Debug, Clone)]
pub struct MinEffCycOutcome {
    /// Distinct configurations in sweep order (cycle time increasing),
    /// each fully evaluated.
    pub evaluations: Vec<RcEvaluation>,
    /// `true` when every MILP solve in the sweep was proven optimal.
    pub all_proven_optimal: bool,
    /// Branch & bound nodes summed over every MILP solve in the sweep.
    pub total_nodes: usize,
    /// Simplex pivots summed over every MILP solve in the sweep — the
    /// single number that tracks how much LP work the whole optimization
    /// cost (printed by the table binaries).
    pub total_simplex_iters: usize,
    /// Human-readable records of solver failures the sweep absorbed
    /// instead of aborting on (iteration/time limits, numerical
    /// failures, evaluation errors): the sweep keeps whatever frontier
    /// it has built and the report renders these alongside it. Empty on
    /// a clean run; non-empty implies `!all_proven_optimal`.
    pub incidents: Vec<String>,
}

impl MinEffCycOutcome {
    /// Index of `RC_lp_min` — the configuration the LP-guided heuristic
    /// selects (minimal ξ_lp).
    pub fn best_lp_index(&self) -> Option<usize> {
        (0..self.evaluations.len()).min_by(|&a, &b| {
            self.evaluations[a]
                .xi_lp
                .total_cmp(&self.evaluations[b].xi_lp)
        })
    }

    /// Index of `RC_min` — the truly best configuration per simulation
    /// (minimal ξ).
    pub fn best_sim_index(&self) -> Option<usize> {
        (0..self.evaluations.len()).min_by(|&a, &b| {
            self.evaluations[a]
                .xi_sim
                .total_cmp(&self.evaluations[b].xi_sim)
        })
    }

    /// The LP-selected configuration.
    pub fn best_lp(&self) -> Option<&RcEvaluation> {
        self.best_lp_index().map(|i| &self.evaluations[i])
    }

    /// The simulation-best configuration.
    pub fn best_simulated(&self) -> Option<&RcEvaluation> {
        self.best_sim_index().map(|i| &self.evaluations[i])
    }

    /// `Δ%` of Table 1: how much worse `RC_lp_min` is than `RC_min`,
    /// `(ξ(RC_lp_min) − ξ(RC_min)) / ξ(RC_min) · 100`.
    pub fn delta_pct(&self) -> Option<f64> {
        let lp = self.best_lp()?.xi_sim;
        let best = self.best_simulated()?.xi_sim;
        Some((lp - best) / best * 100.0)
    }
}

/// Absorbs a sweep-stage failure: budget, numerical and evaluation
/// failures become a recorded incident `"{stage}: {e}"` (the sweep keeps
/// its partial frontier); anything else — infeasibility where it is
/// structurally impossible, malformed configurations — is handed back as
/// a hard error.
fn absorb(incidents: &mut Vec<String>, stage: &str, e: OptError) -> Result<(), OptError> {
    match e {
        OptError::SolverLimit | OptError::Solver(_) | OptError::Evaluation(_) => {
            incidents.push(format!("{stage}: {e}"));
            Ok(())
        }
        _ => Err(e),
    }
}

/// Runs the `MIN_EFF_CYC` sweep on `g`.
///
/// A solver budget or numerical failure mid-sweep does not abort the
/// sweep: the stage's failure is recorded in
/// [`MinEffCycOutcome::incidents`], `all_proven_optimal` is cleared, and
/// whatever frontier was built so far is returned (the min-delay
/// retiming anchor guarantees it is never empty when retiming itself
/// succeeds).
///
/// # Errors
///
/// Propagates MILP failures other than the expected end-of-sweep
/// infeasibility and the absorbed budget/numerical classes; see
/// [`OptError`].
///
/// # Panics
///
/// Panics unless `0 < opts.epsilon ≤ 1`: the sweep runs at most
/// `1/ε + 4` steps, each raising the throughput target by at least ε.
pub fn min_eff_cyc(g: &Rrg, opts: &CoreOptions) -> Result<MinEffCycOutcome, OptError> {
    assert!(
        opts.epsilon > 0.0 && opts.epsilon <= 1.0,
        "epsilon = {} must lie in (0, 1]",
        opts.epsilon
    );
    let mut evaluations: Vec<RcEvaluation> = Vec::new();
    let mut seen: HashSet<(Vec<i64>, Vec<i64>)> = HashSet::new();
    let mut incidents: Vec<String> = Vec::new();
    let mut push = |evals: &mut Vec<RcEvaluation>, ev: RcEvaluation| {
        if seen.insert((ev.config.tokens.clone(), ev.config.buffers.clone())) {
            evals.push(ev);
        }
    };
    // Each MILP's proof status, nodes and pivots are added up the moment
    // it returns, so a sweep cut short by the iteration cap still counts
    // its last `MAX_THR` (which is never evaluated).
    let (mut all_proven, mut total_nodes, mut total_simplex_iters) = (true, 0usize, 0usize);
    let mut tally = |o: &OptOutcome| {
        all_proven &= o.proven_optimal;
        total_nodes += o.stats.nodes;
        total_simplex_iters += o.stats.simplex_iters;
    };

    // Anchor: the min-delay retiming configuration. The paper's sweep
    // always ends on it ("the last stored RC is always a min-delay
    // retiming configuration"); seeding it explicitly guarantees the
    // outcome never loses to plain retiming even when the MILPs hit
    // their budgets.
    if let Ok(ls) = rr_retime::min_period_retiming(g) {
        let cfg = ls.config(g);
        if cfg.validate(g).is_ok() {
            match evaluate_config(g, &cfg, opts) {
                Ok(ev) => push(&mut evaluations, ev),
                Err(e) => absorb(&mut incidents, "evaluate(min-delay anchor)", e)?,
            }
        }
    }

    let mut next = match max_thr(g, g.max_delay(), opts) {
        Ok(o) => {
            tally(&o);
            Some(o)
        }
        Err(e) => {
            absorb(&mut incidents, "max_thr(beta_max)", e)?;
            None
        }
    };
    // Throughput targets advance by at least ε per iteration even when a
    // budget-limited solve fails to move the frontier, so the loop is
    // bounded without an early-break heuristic.
    let mut target = 0.0f64;
    let max_iters = (1.0 / opts.epsilon) as usize + 4;
    for _ in 0..max_iters {
        let Some(outcome) = next.take() else { break };
        let mut eval = match evaluate_config(g, &outcome.config, opts) {
            Ok(ev) => ev,
            Err(e) => {
                absorb(&mut incidents, "evaluate(RC)", e)?;
                break;
            }
        };
        // Per-row provenance: Table 1 marks configurations whose solve
        // hit a budget (Status::Feasible incumbents, like the paper's
        // CPLEX timeouts) instead of presenting them as proven optima.
        eval.proven_optimal = outcome.proven_optimal;
        let theta_lp = eval.theta_lp;
        push(&mut evaluations, eval);
        if theta_lp >= 1.0 - 1e-9 || target >= 1.0 {
            break;
        }
        target = (target.max(theta_lp) + opts.epsilon).min(1.0);
        let mc = match min_cyc(g, 1.0 / target, opts) {
            Ok(o) => o,
            Err(OptError::Infeasible) => break,
            Err(e) => {
                absorb(&mut incidents, &format!("min_cyc(1/{target:.4})"), e)?;
                break;
            }
        };
        tally(&mc);
        let tau = match cycle_time::cycle_time_with(g, &mc.config.buffers) {
            Ok(tau) => tau,
            Err(e) => {
                incidents.push(format!("cycle_time(MIN_CYC config): {e}"));
                break;
            }
        };
        match max_thr(g, tau, opts) {
            Ok(o) => {
                tally(&o);
                next = Some(o);
            }
            Err(e) => {
                absorb(&mut incidents, &format!("max_thr({tau:.4})"), e)?;
                break;
            }
        }
    }

    Ok(MinEffCycOutcome {
        evaluations,
        all_proven_optimal: all_proven && incidents.is_empty(),
        total_nodes,
        total_simplex_iters,
        incidents,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pareto;
    use rr_rrg::figures;

    #[test]
    fn sweep_on_figure_1a_finds_the_paper_frontier() {
        let alpha = 0.9;
        let g = figures::figure_1a(alpha);
        let out = min_eff_cyc(&g, &CoreOptions::fast()).unwrap();
        assert!(!out.evaluations.is_empty());

        // The last stored RC is a min-delay retiming configuration
        // (Θ_lp = 1) — §4 of the paper.
        let last = out.evaluations.last().unwrap();
        assert!((last.theta_lp - 1.0).abs() < 1e-6);
        assert_eq!(last.tau, 3.0);

        // The frontier contains a τ = 1 configuration at least as good as
        // Figure 2 (Θ = 1/(3−2α)).
        let best = out.best_simulated().unwrap();
        let fig2_xi = 1.0 / figures::figure_2_throughput(alpha);
        assert!(
            best.xi_sim <= fig2_xi + 0.1,
            "best ξ = {} vs Figure 2's {fig2_xi}",
            best.xi_sim
        );

        // All stored evaluations are mutually non-dominated w.r.t. Θ_lp.
        let nd = pareto::non_dominated_indices(&out.evaluations);
        assert_eq!(nd.len(), out.evaluations.len(), "{:?}", out.evaluations);
    }

    /// A starved pivot budget fails every MILP solve; the sweep must
    /// absorb that as recorded incidents — returning whatever frontier
    /// it built (possibly none) with `all_proven_optimal` cleared —
    /// instead of propagating the failure and losing the whole row.
    #[test]
    fn budget_starved_sweep_records_incidents_instead_of_aborting() {
        let g = figures::figure_1a(0.9);
        let mut opts = CoreOptions::fast();
        opts.solver.max_pivots = 3;
        opts.solver.max_nodes = 2;
        let out = min_eff_cyc(&g, &opts).expect("budget starvation must not abort the sweep");
        assert!(
            !out.incidents.is_empty(),
            "starved solves must be recorded: {out:?}"
        );
        assert!(!out.all_proven_optimal);
    }

    /// ε = 0 would make the step cap `1/ε + 4` overflow; the sweep
    /// refuses it at entry.
    #[test]
    #[should_panic(expected = "epsilon")]
    fn zero_epsilon_is_rejected() {
        let opts = CoreOptions {
            epsilon: 0.0,
            ..CoreOptions::fast()
        };
        let _ = min_eff_cyc(&figures::figure_1a(0.9), &opts);
    }

    #[test]
    fn sweep_never_loses_to_plain_retiming() {
        let g = figures::figure_1a(0.5);
        let out = min_eff_cyc(&g, &CoreOptions::fast()).unwrap();
        let ls = rr_retime::min_period_retiming(&g).unwrap();
        let best = out.best_simulated().unwrap();
        assert!(
            best.xi_sim <= ls.period + 0.05,
            "ξ {} worse than retiming's {}",
            best.xi_sim,
            ls.period
        );
    }

    #[test]
    fn late_evaluation_sweep_cannot_beat_min_cycle_ratio_economics() {
        // With all nodes simple, recycling rarely helps; the sweep must
        // at least reproduce the min-delay retiming point.
        let g = figures::figure_1a(0.5).with_late_evaluation();
        let out = min_eff_cyc(&g, &CoreOptions::fast()).unwrap();
        let last = out.evaluations.last().unwrap();
        assert!((last.theta_lp - 1.0).abs() < 1e-6);
        assert_eq!(last.tau, 3.0);
        let best = out.best_lp().unwrap();
        assert!(best.xi_lp >= 3.0 - 1e-6, "late ξ_lp = {}", best.xi_lp);
    }
}
