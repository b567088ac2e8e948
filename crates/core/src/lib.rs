//! The paper's contribution: minimum-effective-cycle-time retiming and
//! recycling for elastic systems with early evaluation.
//!
//! Effective cycle time ξ = τ/Θ trades the clock period τ (shortened by
//! inserting bubbles — *recycling*) against the token throughput Θ
//! (lowered by those same bubbles, but less so when early-evaluation
//! nodes can fire before all inputs arrive). The optimization problem
//! (12) is a non-convex MIQP; the paper's heuristic — and this crate —
//! solves it by sweeping the Pareto frontier with two MILPs:
//!
//! * [`formulation::min_cyc`] — `MIN_CYC(x)`: minimum cycle time
//!   subject to Θ_lp ≥ 1/x (Lemma 2.1 path constraints + Lemma 3.2
//!   throughput constraints with x fixed);
//! * [`formulation::max_thr`] — `MAX_THR(τ)`: maximum LP
//!   throughput bound subject to cycle time ≤ τ;
//! * [`algorithm::min_eff_cyc`] — the `MIN_EFF_CYC`
//!   alternation of §4, which collects non-dominated configurations,
//!   evaluates each by simulation, and returns the best.
//!
//! The throughput constraints are re-derived rather than transcribed,
//! because the printed (5)–(10) contain typos: LP (4) is emitted
//! mechanically over the shared [`rr_tgmg::TgmgSkeleton`], with the
//! bilinear `x·r(·)` terms absorbed into the free σ potentials — which is
//! exactly why fixing τ or x yields an MILP.
//!
//! # Example
//!
//! ```
//! use rr_core::{algorithm, CoreOptions};
//! use rr_rrg::figures;
//!
//! // The optimizer must rediscover Figure 2 from Figure 1(a): cycle time
//! // 1 with throughput 1/(3−2α).
//! let g = figures::figure_1a(0.9);
//! let out = algorithm::min_eff_cyc(&g, &CoreOptions::default())?;
//! let best = out.best_simulated().expect("sweep found configurations");
//! assert!(best.xi_sim <= 3.0 * 0.9 / 0.719 + 0.1); // beats Figure 1(b)
//! # Ok::<(), rr_core::OptError>(())
//! ```

pub mod algorithm;
pub mod bounds;
pub mod evaluate;
pub mod formulation;
pub mod pareto;
pub mod report;

#[cfg(test)]
mod proptests;

pub use algorithm::{min_eff_cyc, MinEffCycOutcome};
pub use evaluate::{evaluate_config, RcEvaluation};
pub use formulation::{max_thr, min_cyc, OptError, OptOutcome};

use rr_milp::SolverOptions;
use rr_tgmg::sim::SimParams;

/// Options threading through the whole optimization pipeline.
///
/// `MAX_THR(τ)` always carries the retiming cycle-sum cuts (each cycle
/// `C` needs at least `⌈D(C)/τ⌉` buffers); they are valid for every
/// integer point and enter the model as ordinary constraint rows, so
/// they are not an option.
#[derive(Debug, Clone)]
pub struct CoreOptions {
    /// Throughput step ε of `MIN_EFF_CYC` (paper: 0.01).
    pub epsilon: f64,
    /// MILP solver limits (the paper used a 20-minute CPLEX timeout).
    pub solver: SolverOptions,
    /// Simulation window for the exact-throughput evaluation of each
    /// stored configuration. The sweep simulates every stored
    /// configuration, so the paper's `k` (how many of the best to
    /// simulate) is in effect unbounded.
    pub sim: SimParams,
}

impl Default for CoreOptions {
    fn default() -> Self {
        CoreOptions {
            epsilon: 0.01,
            solver: SolverOptions {
                time_limit: Some(std::time::Duration::from_secs(120)),
                ..Default::default()
            },
            sim: SimParams::default(),
        }
    }
}

impl CoreOptions {
    /// Fast options for tests: small simulation windows and tight solver
    /// budgets.
    pub fn fast() -> Self {
        CoreOptions {
            epsilon: 0.01,
            solver: SolverOptions {
                max_nodes: 2_000,
                time_limit: Some(std::time::Duration::from_secs(10)),
                gap_tol: 0.02,
                ..Default::default()
            },
            sim: SimParams::fast(0xC0FFEE),
        }
    }
}
