//! Paper-style reporting: Table 1 (all non-dominated RCs of one circuit)
//! and Table 2 (the benchmark suite with the late-evaluation baseline and
//! the improvement column).

use std::fmt;

use rr_rrg::{cycle_time, Rrg};

use crate::algorithm::{min_eff_cyc, MinEffCycOutcome};
use crate::formulation::OptError;
use crate::CoreOptions;

/// Table 1 for one circuit: every stored configuration with its measured
/// columns, plus the `RC_lp_min` / `RC_min` markers and Δ%.
#[derive(Debug, Clone)]
pub struct Table1 {
    /// Circuit name.
    pub name: String,
    /// The sweep outcome (rows in cycle-time order).
    pub outcome: MinEffCycOutcome,
}

impl fmt::Display for Table1 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<10} {:>9} {:>8} {:>8} {:>8} {:>10} {:>10}",
            "Name", "tau", "Th_lp", "Th", "err(%)", "xi_lp", "xi"
        )?;
        let best_lp = self.outcome.best_lp_index();
        let best_sim = self.outcome.best_sim_index();
        for (i, ev) in self.outcome.evaluations.iter().enumerate() {
            let name = if i == 0 { self.name.as_str() } else { "" };
            let mark = match (best_lp == Some(i), best_sim == Some(i)) {
                (true, true) => " *lp *sim",
                (true, false) => " *lp",
                (false, true) => " *sim",
                (false, false) => "",
            };
            // Rows from budget-truncated solves (Status::Feasible
            // incumbents) are marked so they cannot pass for proven
            // optima in the rendered table.
            let limit = if ev.proven_optimal { "" } else { " (limit)" };
            writeln!(
                f,
                "{:<10} {:>9.2} {:>8.4} {:>8.4} {:>8.4} {:>10.4} {:>10.4}{}{}",
                name,
                ev.tau,
                ev.theta_lp,
                ev.theta_sim,
                ev.err_pct,
                ev.xi_lp,
                ev.xi_sim,
                mark,
                limit
            )?;
        }
        if let Some(delta) = self.outcome.delta_pct() {
            writeln!(f, "Delta(%) = {delta:.1}")?;
        }
        // Solver failures the sweep absorbed: rendered with the table so
        // a partial frontier cannot read as a complete, clean run.
        for inc in &self.outcome.incidents {
            writeln!(f, "incident: {inc}")?;
        }
        Ok(())
    }
}

/// One row of Table 2.
#[derive(Debug, Clone)]
pub struct BenchmarkRow {
    /// Circuit name.
    pub name: String,
    /// Simple node count |N1|.
    pub n1: usize,
    /// Early node count |N2|.
    pub n2: usize,
    /// Edge count |E|.
    pub edges: usize,
    /// Effective cycle time before optimization (no bubbles → Θ = 1 → ξ*
    /// is the raw cycle time).
    pub xi_star: f64,
    /// Best late-evaluation effective cycle time (min-delay retiming).
    pub xi_nee: f64,
    /// ξ of the LP-selected configuration, measured by simulation.
    pub xi_lp_min: f64,
    /// ξ of the simulation-best configuration.
    pub xi_sim_min: f64,
    /// Improvement `I = (ξ_nee − ξ_sim_min)/ξ_nee · 100`.
    pub improvement_pct: f64,
    /// Observation-2 bookkeeping: did the LP pick the true optimum?
    pub lp_picked_optimum: bool,
    /// Observation-3 bookkeeping: average `err%` over the stored RCs.
    pub avg_err_pct: f64,
    /// Whether all MILP solves were proven optimal (false = some
    /// incumbents came from solver limits, like the paper's timeouts).
    pub proven_optimal: bool,
    /// Number of solver failures the sweep absorbed instead of aborting
    /// on (see [`MinEffCycOutcome::incidents`]); 0 on a clean run.
    pub incidents: usize,
}

/// Runs the full per-circuit pipeline: ξ*, the LS baseline ξ_nee, the
/// early-evaluation sweep, and the Table-2 columns.
///
/// # Errors
///
/// Propagates optimizer failures; see [`OptError`].
pub fn evaluate_benchmark(
    name: &str,
    g: &Rrg,
    opts: &CoreOptions,
) -> Result<(BenchmarkRow, Table1), OptError> {
    let xi_star = cycle_time::cycle_time(g).map_err(|e| OptError::Evaluation(e.to_string()))?;
    let xi_nee = rr_retime::min_period_retiming(g)
        .map_err(|e| OptError::Evaluation(e.to_string()))?
        .period;

    let outcome = min_eff_cyc(g, opts)?;
    let best_lp = outcome
        .best_lp()
        .ok_or_else(|| OptError::Evaluation("sweep produced no configurations".into()))?;
    let best_sim = outcome
        .best_simulated()
        .ok_or_else(|| OptError::Evaluation("sweep produced no configurations".into()))?;
    let xi_lp_min = best_lp.xi_sim;
    let xi_sim_min = best_sim.xi_sim;
    let avg_err = outcome
        .evaluations
        .iter()
        .map(|e| e.err_pct.abs())
        .sum::<f64>()
        / outcome.evaluations.len() as f64;

    let row = BenchmarkRow {
        name: name.to_string(),
        n1: g.num_simple(),
        n2: g.num_early(),
        edges: g.num_edges(),
        xi_star,
        xi_nee,
        xi_lp_min,
        xi_sim_min,
        improvement_pct: (xi_nee - xi_sim_min) / xi_nee * 100.0,
        lp_picked_optimum: outcome.best_lp_index() == outcome.best_sim_index(),
        avg_err_pct: avg_err,
        proven_optimal: outcome.all_proven_optimal,
        incidents: outcome.incidents.len(),
    };
    let table1 = Table1 {
        name: name.to_string(),
        outcome,
    };
    Ok((row, table1))
}

/// Table 2: all benchmark rows plus the paper's three observations.
#[derive(Debug, Clone, Default)]
pub struct Table2 {
    /// Benchmark rows, in run order.
    pub rows: Vec<BenchmarkRow>,
}

impl Table2 {
    /// Observation 1: average improvement over the late baseline.
    pub fn average_improvement_pct(&self) -> f64 {
        if self.rows.is_empty() {
            return 0.0;
        }
        self.rows.iter().map(|r| r.improvement_pct).sum::<f64>() / self.rows.len() as f64
    }

    /// Observation 2: in how many cases the LP-selected configuration was
    /// the simulation optimum.
    pub fn lp_optimum_matches(&self) -> usize {
        self.rows.iter().filter(|r| r.lp_picked_optimum).count()
    }

    /// Observation 3: average throughput-bound error.
    pub fn average_err_pct(&self) -> f64 {
        if self.rows.is_empty() {
            return 0.0;
        }
        self.rows.iter().map(|r| r.avg_err_pct).sum::<f64>() / self.rows.len() as f64
    }
}

impl fmt::Display for Table2 {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "{:<8} {:>5} {:>5} {:>5} {:>9} {:>9} {:>9} {:>9} {:>7}",
            "Name", "|N1|", "|N2|", "|E|", "xi*", "xi_nee", "xi_lp", "xi_sim", "I%"
        )?;
        for r in &self.rows {
            writeln!(
                f,
                "{:<8} {:>5} {:>5} {:>5} {:>9.2} {:>9.2} {:>9.2} {:>9.2} {:>7.1}{}",
                r.name,
                r.n1,
                r.n2,
                r.edges,
                r.xi_star,
                r.xi_nee,
                r.xi_lp_min,
                r.xi_sim_min,
                r.improvement_pct,
                match (r.proven_optimal, r.incidents) {
                    (true, 0) => String::new(),
                    (false, 0) => "  (limit)".into(),
                    (_, n) => format!("  (limit, {n} incidents)"),
                },
            )?;
        }
        writeln!(f, "---")?;
        writeln!(
            f,
            "Observation 1: average improvement I% = {:.1}",
            self.average_improvement_pct()
        )?;
        writeln!(
            f,
            "Observation 2: RC_lp_min = RC_min in {}/{} cases",
            self.lp_optimum_matches(),
            self.rows.len()
        )?;
        writeln!(
            f,
            "Observation 3: average err% = {:.1}",
            self.average_err_pct()
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr_rrg::figures;

    #[test]
    fn benchmark_pipeline_on_the_motivating_example() {
        let g = figures::figure_1a(0.9);
        let (row, table1) = evaluate_benchmark("fig1a", &g, &CoreOptions::fast()).unwrap();
        assert_eq!(row.xi_star, 3.0);
        assert_eq!(row.xi_nee, 3.0);
        // Early evaluation enables a real improvement (paper: Figure 2
        // reaches ξ = 3 − 2α = 1.2).
        assert!(row.improvement_pct > 30.0, "I% = {}", row.improvement_pct);
        // Rendering works and mentions the markers.
        let rendered = table1.to_string();
        assert!(rendered.contains("xi_lp"));
        assert!(rendered.contains("*sim"));
    }

    /// The paper's ξ_nee claim on one circuit: "in the experiments the
    /// ξ_nee was always provided by min-delay retiming", i.e. the full
    /// `MIN_EFF_CYC` sweep with every node simple (late evaluation) does
    /// not beat the Leiserson–Saxe period.
    #[test]
    fn late_sweep_rarely_beats_min_delay_retiming() {
        // On the motivating example the late sweep must tie the LS period
        // exactly (the paper's observation for its whole suite).
        let late = figures::figure_1a(0.5).with_late_evaluation();
        let ls = rr_retime::min_period_retiming(&late).unwrap().period;
        let best = min_eff_cyc(&late, &CoreOptions::fast())
            .unwrap()
            .best_simulated()
            .unwrap()
            .xi_sim;
        assert_eq!(ls, 3.0);
        // The sweep can tie via a different Pareto point (e.g. τ = 2 with
        // Θ = 2/3); allow simulation noise around the tie.
        assert!(best >= ls - 0.05, "late sweep {best} beat retiming {ls}");
        assert!(best <= ls + 0.1, "late sweep failed to reach retiming");
    }

    #[test]
    fn table1_marks_rows_from_truncated_solves() {
        use crate::evaluate::RcEvaluation;
        use rr_rrg::Config;
        let mk_ev = |proven: bool| RcEvaluation {
            config: Config {
                tokens: vec![],
                buffers: vec![],
            },
            tau: 2.0,
            theta_lp: 0.5,
            theta_sim: 0.5,
            xi_lp: 4.0,
            xi_sim: 4.0,
            err_pct: 0.0,
            proven_optimal: proven,
        };
        let t = Table1 {
            name: "probe".into(),
            outcome: MinEffCycOutcome {
                evaluations: vec![mk_ev(true), mk_ev(false)],
                all_proven_optimal: false,
                total_nodes: 0,
                total_simplex_iters: 0,
                incidents: vec!["max_thr(2.0000): pivot budget".into()],
            },
        };
        let rendered = t.to_string();
        assert_eq!(
            rendered.matches("(limit)").count(),
            1,
            "exactly the truncated row must be marked:\n{rendered}"
        );
        assert!(
            rendered.contains("incident: max_thr(2.0000): pivot budget"),
            "absorbed solver failures must be rendered:\n{rendered}"
        );
    }

    #[test]
    fn table2_aggregates() {
        let mk = |i: f64, m: bool| BenchmarkRow {
            name: "x".into(),
            n1: 1,
            n2: 1,
            edges: 2,
            xi_star: 10.0,
            xi_nee: 10.0,
            xi_lp_min: 10.0 - i / 10.0,
            xi_sim_min: 10.0 - i / 10.0,
            improvement_pct: i,
            lp_picked_optimum: m,
            avg_err_pct: 5.0,
            proven_optimal: true,
            incidents: 0,
        };
        let t = Table2 {
            rows: vec![mk(10.0, true), mk(20.0, false)],
        };
        assert!((t.average_improvement_pct() - 15.0).abs() < 1e-9);
        assert_eq!(t.lp_optimum_matches(), 1);
        assert!((t.average_err_pct() - 5.0).abs() < 1e-9);
        assert!(t.to_string().contains("Observation 1"));
    }
}
