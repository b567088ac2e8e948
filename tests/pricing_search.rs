//! Regression suite for the revised simplex kernel's one pricing rule:
//! the dual reoptimizer leaves on the largest scale-eligible violation
//! and enters by the long-step ratio test over incrementally maintained
//! reduced costs; the primal phases price by Dantzig with the Bland
//! fallback.
//!
//! * **Agreement** — the production search proves the same optima as
//!   the `Kernel::DenseTableau` oracle request on the Table-1 figure
//!   instances. The oracle's node bounds come from cold two-phase
//!   solves, so it checks the warm long-step path independently.
//! * **Degeneracy** — the Bland anti-cycling fallback still engages: a
//!   massively degenerate model must terminate at its true optimum.
//! * **Counter ledger** — the directional pivot counters tie out:
//!   `dual_pivots + primal_pivots + bound_flips = simplex_iters` on
//!   warm runs, and a warm search actually takes dual pivots.
//!
//! Everything here is deterministic: fixed seeds, node caps instead of
//! wall-clock limits.

use rr_bench::milp_bench_instance as bench_instance;
use rr_core::{formulation, CoreOptions};
use rr_milp::{cmp, solve_with_stats, Kernel, LinExpr, Model, Sense, SolverOptions, Status};
use rr_rrg::figures;

/// Deterministic solver options: node caps only, no wall clock.
fn capped(max_nodes: usize) -> CoreOptions {
    let mut opts = CoreOptions::fast();
    opts.solver.time_limit = None;
    opts.solver.max_nodes = max_nodes;
    opts.solver.gap_tol = 1e-9;
    opts
}

/// The production search proves the optimum of the dense-tableau oracle
/// request on every Table-1 figure instance, for both problems —
/// completed runs only, which at these sizes is all of them.
#[test]
fn pricing_rules_agree_on_table1_instances() {
    let instances = [
        ("figure_1a(0.5)", figures::figure_1a(0.5)),
        ("figure_1b(0.5)", figures::figure_1b(0.5)),
        ("figure_2(0.7)", figures::figure_2(0.7)),
    ];
    for (name, g) in &instances {
        for problem in ["max_thr", "min_cyc"] {
            let solve = |o: &CoreOptions| {
                match problem {
                    "max_thr" => formulation::max_thr(g, g.max_delay(), o),
                    _ => formulation::min_cyc(g, 1.0, o),
                }
                .unwrap_or_else(|e| panic!("{name}/{problem}: {e}"))
            };
            let mut oracle_opts = capped(20_000);
            oracle_opts.solver.kernel = Kernel::DenseTableau;
            let oracle = solve(&oracle_opts);
            assert!(oracle.proven_optimal, "{name}/{problem}: oracle truncated");
            let out = solve(&capped(20_000));
            assert!(out.proven_optimal, "{name}/{problem}: truncated");
            assert!(
                (out.objective - oracle.objective).abs() < 1e-7,
                "{name}/{problem}: production {} vs dense oracle {}",
                out.objective,
                oracle.objective
            );
        }
    }
}

/// A massively degenerate model — many redundant facets through the
/// same vertex — terminates at its optimum: the degenerate-run Bland
/// fallback still engages alongside the long-step dual path.
#[test]
fn steepest_edge_terminates_on_a_degenerate_model() {
    let mut m = Model::new(Sense::Maximize);
    let n = 8;
    let vars: Vec<_> = (0..n)
        .map(|i| m.add_integer(format!("x{i}"), 0.0, 1.0))
        .collect();
    let mut obj = LinExpr::new();
    for &v in &vars {
        obj += 1.0 * v;
    }
    m.set_objective(obj);
    // Every pair constraint passes through the all-half vertex; any
    // subset of k of them is tight there, so node LPs are heavily
    // degenerate.
    for i in 0..n {
        for j in (i + 1)..n {
            m.add_constraint(vars[i] + vars[j], cmp::LE, 1.0);
        }
    }
    let opts = SolverOptions {
        max_nodes: 20_000,
        ..SolverOptions::default()
    };
    let (sol, stats) = solve_with_stats(&m, &opts).unwrap();
    assert_eq!(sol.status, Status::Optimal);
    assert!(!stats.truncated);
    // At most one variable can be 1 (pairwise caps): optimum 1.
    assert!((sol.objective - 1.0).abs() < 1e-7, "obj {}", sol.objective);
}

/// Directional pivot counters tie out against the kernel's total
/// iteration count on a warm run, and a warm search actually exercises
/// the dual reoptimizer.
#[test]
fn pivot_counters_tie_out_on_serial_warm_runs() {
    let g = bench_instance(20);
    let o = capped(2000);
    let out = formulation::max_thr(&g, g.max_delay(), &o).unwrap();
    let s = &out.stats;
    assert_eq!(
        s.dual_pivots + s.primal_pivots + s.bound_flips,
        s.simplex_iters,
        "counter ledger does not tie out"
    );
    assert!(s.primal_pivots > 0, "no primal pivots counted");
    assert!(s.dual_pivots > 0, "warm search never took a dual pivot");
}
