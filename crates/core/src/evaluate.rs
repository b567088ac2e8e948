//! Evaluation of a retiming/recycling configuration: exact cycle time,
//! LP throughput bound, simulated throughput, and the derived effective
//! cycle times — the columns of Table 1.

use rr_rrg::{cycle_time, Config, Rrg};
use rr_tgmg::{lp_bound, sim, TgmgSkeleton};

use crate::formulation::OptError;
use crate::CoreOptions;

/// All measured quantities of one configuration (one row of Table 1).
#[derive(Debug, Clone)]
pub struct RcEvaluation {
    /// The configuration itself.
    pub config: Config,
    /// Exact cycle time τ (longest combinational path).
    pub tau: f64,
    /// LP throughput upper bound Θ_lp.
    pub theta_lp: f64,
    /// Simulated throughput Θ.
    pub theta_sim: f64,
    /// ξ_lp = τ / Θ_lp.
    pub xi_lp: f64,
    /// ξ = τ / Θ.
    pub xi_sim: f64,
    /// Relative over-estimation of the bound: `(Θ_lp − Θ)/Θ · 100`.
    pub err_pct: f64,
    /// `false` when the configuration came from a budget-truncated MILP
    /// solve (node/time limit hit with an incumbent), so Table-1 rows
    /// can mark unproven points. Configurations that are not produced by
    /// a solver (e.g. the min-delay retiming anchor) count as proven.
    pub proven_optimal: bool,
}

/// Evaluates `config` on `g`.
///
/// # Errors
///
/// [`OptError::Evaluation`] when the configuration cannot be evaluated
/// (combinational cycle, simulator failure) and [`OptError::Solver`] when
/// the LP bound fails.
pub fn evaluate_config(
    g: &Rrg,
    config: &Config,
    opts: &CoreOptions,
) -> Result<RcEvaluation, OptError> {
    let tau = cycle_time::cycle_time_with(g, &config.buffers)
        .map_err(|e| OptError::Evaluation(e.to_string()))?;
    let skeleton = TgmgSkeleton::of(g);
    let tgmg = skeleton.instantiate(&config.tokens, &config.buffers);
    let theta_lp = lp_bound::throughput_upper_bound(&tgmg)
        .map_err(OptError::Solver)?
        .min(1.0);
    let theta_sim = sim::simulate(&tgmg, &opts.sim)
        .map_err(|e| OptError::Evaluation(e.to_string()))?
        .throughput
        .min(1.0);
    Ok(RcEvaluation {
        config: config.clone(),
        tau,
        theta_lp,
        theta_sim,
        xi_lp: tau / theta_lp,
        xi_sim: tau / theta_sim,
        err_pct: (theta_lp - theta_sim) / theta_sim * 100.0,
        proven_optimal: true,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr_rrg::figures;

    #[test]
    fn figure_1a_evaluation() {
        let g = figures::figure_1a(0.5);
        let ev = evaluate_config(&g, &Config::initial(&g), &CoreOptions::default()).unwrap();
        assert_eq!(ev.tau, 3.0);
        assert!((ev.theta_lp - 1.0).abs() < 1e-6);
        assert!((ev.theta_sim - 1.0).abs() < 0.01);
        assert!((ev.xi_lp - 3.0).abs() < 1e-5);
        assert!(ev.err_pct.abs() < 2.0);
    }

    #[test]
    fn empty_simulation_window_is_an_evaluation_error() {
        let g = figures::figure_1a(0.5);
        for (horizon, warmup) in [(0, 0), (1_000, 1_000)] {
            let mut opts = CoreOptions::default();
            opts.sim.horizon = horizon;
            opts.sim.warmup = warmup;
            let err = evaluate_config(&g, &Config::initial(&g), &opts).unwrap_err();
            assert!(
                matches!(&err, OptError::Evaluation(m) if m.contains("empty measurement window")),
                "{err:?}"
            );
        }
    }

    #[test]
    fn figure_2_evaluation_shows_lp_gap() {
        let g = figures::figure_2(0.5);
        let ev = evaluate_config(&g, &Config::initial(&g), &CoreOptions::default()).unwrap();
        assert_eq!(ev.tau, 1.0);
        // Exact Θ = 0.5; the LP bound is somewhere in [0.5, 1].
        assert!(ev.theta_sim <= ev.theta_lp + 0.02);
        assert!((ev.theta_sim - 0.5).abs() < 0.02);
        assert!(ev.err_pct >= -2.0);
    }
}
