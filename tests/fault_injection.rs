//! The self-healing invariant of the recovery ladder: a fault-injected
//! solver must prove the **same optima** as its clean twin on every
//! instance the clean solver completes — recovering through the ladder,
//! never pruning on a corrupted bound — and the recovery counters must
//! show the injected faults were actually hit, not skipped around.
//!
//! Instances mirror the `search_gate` agreement checks: the Table-1
//! paper figures (`MAX_THR` at the min-delay cycle time and
//! `MIN_CYC(1)`) plus the 20/40-edge bench instances (`MIN_CYC(1)`).
//! Direct `solve_with_stats` runs on a planted MILP cover the deep end
//! of the ladder (rung 6, the node on the tableau), which hinted runs
//! absorb earlier: their warm-start hint solve eats the first injected
//! failure.

use rr_bench::milp_bench_instance as bench_instance;
use rr_core::{formulation, CoreOptions};
use rr_milp::{
    cmp, solve_with_stats, FaultPlan, LinExpr, Model, RecoveryStats, Sense, SolverOptions, Status,
};
use rr_rrg::figures;
use rr_rrg::Rrg;

/// One fixed seed for the whole suite — the plan is deterministic, so a
/// failure reproduces exactly.
const SEED: u64 = 0xDAC_2009;

fn core_opts(faults: Option<FaultPlan>) -> CoreOptions {
    let mut opts = CoreOptions::fast();
    opts.solver.time_limit = None;
    opts.solver.max_nodes = 20_000;
    opts.solver.gap_tol = 1e-9;
    opts.solver.faults = faults;
    opts
}

/// Same planted ring-difference MILP family the solver stress suites
/// use: difference constraints over a ring plus coupling knapsack rows.
fn ring_difference_milp(n: usize, rows: usize) -> Model {
    let mut m = Model::new(Sense::Minimize);
    let vars: Vec<_> = (0..n)
        .map(|i| m.add_integer(format!("x{i}"), 0.0, 6.0))
        .collect();
    let mut obj = LinExpr::new();
    for (i, &v) in vars.iter().enumerate() {
        obj += ((i % 4 + 1) as f64) * v;
    }
    m.set_objective(obj);
    for i in 0..n {
        let j = (i + 1) % n;
        m.add_constraint(vars[i] - vars[j], cmp::LE, ((i % 3) as f64) - 0.5);
    }
    for r in 0..rows {
        let mut row = LinExpr::new();
        for (i, &v) in vars.iter().enumerate() {
            row += (((i + r) % 5 + 1) as f64) * v;
        }
        m.add_constraint(row, cmp::GE, 2.5 * n as f64 + r as f64);
    }
    m
}

fn absorb(total: &mut RecoveryStats, run: &RecoveryStats) {
    total.absorb(run);
}

/// Clean twin vs fault-injected twin on every Table-1 figure and bench
/// instance; accumulates the union of recovery counters and asserts
/// every failure class was observed and every ladder rung fired at
/// least once across the suite.
#[test]
fn faulted_runs_prove_the_same_optima_as_clean_twins() {
    let mut union = RecoveryStats::default();

    let figure_instances: Vec<(&str, Rrg)> = vec![
        ("figure_1a(0.5)", figures::figure_1a(0.5)),
        ("figure_1a(0.9)", figures::figure_1a(0.9)),
        ("figure_1b(0.5)", figures::figure_1b(0.5)),
        ("figure_2(0.7)", figures::figure_2(0.7)),
    ];
    for (name, g) in &figure_instances {
        for problem in ["max_thr", "min_cyc"] {
            let solve = |faults: Option<FaultPlan>| match problem {
                "max_thr" => formulation::max_thr(g, g.max_delay(), &core_opts(faults)),
                _ => formulation::min_cyc(g, 1.0, &core_opts(faults)),
            };
            let clean = solve(None).unwrap_or_else(|e| panic!("{name}/{problem} clean: {e}"));
            let faulted = solve(Some(FaultPlan::seeded(SEED)))
                .unwrap_or_else(|e| panic!("{name}/{problem} faulted: {e}"));
            assert_eq!(
                clean.stats.recovery,
                RecoveryStats::default(),
                "{name}/{problem}: clean run recorded recovery activity"
            );
            assert!(
                (clean.objective - faulted.objective).abs() <= 1e-7,
                "{name}/{problem}: clean {} vs faulted {}",
                clean.objective,
                faulted.objective
            );
            assert_eq!(
                clean.proven_optimal, faulted.proven_optimal,
                "{name}/{problem}: verdicts diverged under faults"
            );
            absorb(&mut union, &faulted.stats.recovery);
        }
    }

    for edges in [20usize, 40] {
        let g = bench_instance(edges);
        let clean = formulation::min_cyc(&g, 1.0, &core_opts(None))
            .unwrap_or_else(|e| panic!("bench{edges} clean: {e}"));
        let faulted = formulation::min_cyc(&g, 1.0, &core_opts(Some(FaultPlan::seeded(SEED))))
            .unwrap_or_else(|e| panic!("bench{edges} faulted: {e}"));
        // Bench instances record *genuine* events even on clean runs
        // (the FT update legitimately refuses unstable pivots there), so
        // only the injection counter is pinned to zero.
        assert_eq!(clean.stats.recovery.faults_injected, 0);
        // The clean run's genuine events count toward the union too —
        // they exercise the same taxonomy the injector drives.
        absorb(&mut union, &clean.stats.recovery);
        assert!(
            (clean.objective - faulted.objective).abs() <= 1e-7,
            "bench{edges}: clean {} vs faulted {}",
            clean.objective,
            faulted.objective
        );
        assert_eq!(clean.proven_optimal, faulted.proven_optimal);
        assert!(
            faulted.stats.recovery.faults_injected > 0,
            "bench{edges}: no fault fired — the plan is miscalibrated"
        );
        absorb(&mut union, &faulted.stats.recovery);
    }

    // Direct, unhinted searches reach rung 6: the first injected
    // iteration-limit burst lands on the root's cold solve and the
    // ladder walks product-form → rebuild → Bland → the tableau.
    for (n, rows, seed) in [(12usize, 6usize, SEED), (15, 5, SEED ^ 0xFF)] {
        let m = ring_difference_milp(n, rows);
        let clean_opts = SolverOptions::default();
        let fault_opts = SolverOptions {
            faults: Some(FaultPlan::seeded(seed)),
            ..SolverOptions::default()
        };
        let (clean, clean_stats) = solve_with_stats(&m, &clean_opts).expect("clean ring solve");
        let (faulted, faulted_stats) =
            solve_with_stats(&m, &fault_opts).expect("faulted ring solve");
        assert_eq!(clean_stats.recovery.faults_injected, 0);
        assert_eq!(clean.status, Status::Optimal);
        assert_eq!(faulted.status, Status::Optimal);
        assert!(
            (clean.objective - faulted.objective).abs() <= 1e-7,
            "ring({n},{rows}): clean {} vs faulted {}",
            clean.objective,
            faulted.objective
        );
        absorb(&mut union, &faulted_stats.recovery);
    }

    // Every failure class observed...
    assert!(union.unstable_updates > 0, "no unstable update: {union:?}");
    assert!(
        union.singular_refactors > 0,
        "no singular refactor: {union:?}"
    );
    assert!(
        union.cycling_suspected > 0,
        "no cycling suspicion: {union:?}"
    );
    assert!(union.residual_drift > 0, "no residual drift: {union:?}");
    assert!(union.pivot_budget > 0, "no pivot-budget event: {union:?}");
    assert!(union.time_budget > 0, "no time-budget event: {union:?}");
    // ...and every ladder rung fired.
    assert!(union.ft_retries > 0, "FT-retry rung never fired: {union:?}");
    assert!(
        union.forced_refactors > 0,
        "forced-refactor rung never fired: {union:?}"
    );
    assert!(
        union.product_form_switches > 0,
        "product-form rung never fired: {union:?}"
    );
    assert!(
        union.cold_rebuilds > 0,
        "cold-rebuild rung never fired: {union:?}"
    );
    assert!(
        union.bland_restarts > 0,
        "Bland rung never fired: {union:?}"
    );
    assert!(
        union.dense_oracle_solves > 0,
        "dense-oracle rung never fired: {union:?}"
    );
    assert!(union.faults_injected > 0);
}

/// The seeded plan is deterministic: two identical faulted runs produce
/// identical objectives, node counts, and recovery counters.
#[test]
fn fault_injection_is_deterministic() {
    let m = ring_difference_milp(12, 6);
    let opts = SolverOptions {
        faults: Some(FaultPlan::seeded(SEED)),
        ..SolverOptions::default()
    };
    let (a, sa) = solve_with_stats(&m, &opts).expect("first run");
    let (b, sb) = solve_with_stats(&m, &opts).expect("second run");
    assert_eq!(a.objective.to_bits(), b.objective.to_bits());
    assert_eq!(sa.nodes, sb.nodes);
    assert_eq!(sa.simplex_iters, sb.simplex_iters);
    assert_eq!(sa.recovery, sb.recovery);
}

/// `faults: None` must be fully inert: the recovery counters of a clean
/// run are all zero (the golden table in `search_gate` separately pins
/// the clean trajectories).
#[test]
fn clean_runs_record_no_recovery_activity() {
    let m = ring_difference_milp(12, 6);
    let (sol, stats) = solve_with_stats(&m, &SolverOptions::default()).expect("clean solve");
    assert_eq!(sol.status, Status::Optimal);
    assert_eq!(stats.recovery, RecoveryStats::default());
}
