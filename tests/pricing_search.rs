//! Pricing-rule regression suite for the revised simplex kernel
//! (`SolverOptions::pricing`):
//!
//! * **Agreement** — steepest-edge pricing (dual steepest-edge leaving
//!   rows, Devex entering columns, long-step ratio test, incremental
//!   reduced costs) and the historical Dantzig rule must prove
//!   identical optima on the Table-1 figure instances and the bench
//!   graphs, across both node orderings and one or two workers.
//! * **Degeneracy** — the Bland anti-cycling fallback still engages
//!   under steepest-edge pricing: a massively degenerate model must
//!   terminate at its true optimum.
//! * **Counter ledger** — the directional pivot counters tie out:
//!   `dual_pivots + primal_pivots + bound_flips = simplex_iters` on
//!   warm runs, and a warm search actually takes dual pivots.
//!
//! Everything here is deterministic: fixed seeds, node caps instead of
//! wall-clock limits.

use rr_bench::milp_bench_instance as bench_instance;
use rr_core::{formulation, CoreOptions};
use rr_milp::{
    cmp, solve_with_stats, FactorKind, LinExpr, Model, NodeOrder, Pricing, Sense, SolverOptions,
    Status,
};
use rr_rrg::figures;

/// Deterministic solver options: node caps only, no wall clock.
fn capped(pricing: Pricing, order: NodeOrder, max_nodes: usize, workers: usize) -> CoreOptions {
    let mut opts = CoreOptions::fast();
    opts.solver.time_limit = None;
    opts.solver.max_nodes = max_nodes;
    opts.solver.node_order = order;
    opts.solver.factor = FactorKind::Sparse;
    opts.solver.gap_tol = 1e-9;
    opts.solver.workers = workers;
    opts.solver.pricing = pricing;
    opts.cuts = false;
    opts
}

/// Both pricing rules prove identical optima on every Table-1 figure
/// instance, for both problems, both node orderings and `workers ∈
/// {1, 2}` — completed runs only, which at these sizes is all of them.
#[test]
fn pricing_rules_agree_on_table1_instances() {
    let instances = [
        ("figure_1a(0.5)", figures::figure_1a(0.5)),
        ("figure_1b(0.5)", figures::figure_1b(0.5)),
        ("figure_2(0.7)", figures::figure_2(0.7)),
    ];
    for (name, g) in &instances {
        for problem in ["max_thr", "min_cyc"] {
            for order in [NodeOrder::DfsNearerFirst, NodeOrder::BestBound] {
                for workers in [1usize, 2] {
                    let solve = |pricing: Pricing| {
                        let o = capped(pricing, order, 20_000, workers);
                        match problem {
                            "max_thr" => formulation::max_thr(g, g.max_delay(), &o),
                            _ => formulation::min_cyc(g, 1.0, &o),
                        }
                        .unwrap_or_else(|e| panic!("{name}/{problem}: {e}"))
                    };
                    let se = solve(Pricing::SteepestEdge);
                    let dz = solve(Pricing::Dantzig);
                    assert!(se.proven_optimal, "{name}/{problem}: SE truncated");
                    assert!(dz.proven_optimal, "{name}/{problem}: Dantzig truncated");
                    assert!(
                        (se.objective - dz.objective).abs() < 1e-7,
                        "{name}/{problem}/{order:?}/workers={workers}: \
                         steepest-edge {} vs dantzig {}",
                        se.objective,
                        dz.objective
                    );
                }
            }
        }
    }
}

/// The 20-edge bench instance under the production configuration
/// (cycle-sum cuts on): both pricings complete and land on the pinned
/// optimum.
#[test]
fn pricing_rules_agree_on_bench20() {
    let g = bench_instance(20);
    for pricing in [Pricing::SteepestEdge, Pricing::Dantzig] {
        let mut o = CoreOptions::fast();
        o.solver.time_limit = None;
        o.solver.max_nodes = 4000;
        o.solver.factor = FactorKind::Sparse;
        o.solver.pricing = pricing;
        let out = formulation::max_thr(&g, g.max_delay(), &o).unwrap();
        assert!(out.proven_optimal, "{pricing:?} truncated");
        assert!(
            (out.objective - 6.497_501_818_546_008_5).abs() < 1e-6,
            "{pricing:?}: obj {}",
            out.objective
        );
    }
}

/// A massively degenerate model — many redundant facets through the
/// same vertex — terminates at its optimum under steepest-edge pricing:
/// the degenerate-run Bland fallback is pricing-agnostic.
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
        pricing: Pricing::SteepestEdge,
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
/// iteration count on one-worker warm runs under both pricing rules, and a
/// warm search actually exercises the dual reoptimizer.
#[test]
fn pivot_counters_tie_out_on_serial_warm_runs() {
    let g = bench_instance(20);
    for pricing in [Pricing::SteepestEdge, Pricing::Dantzig] {
        let o = capped(pricing, NodeOrder::DfsNearerFirst, 2000, 1);
        let out = formulation::max_thr(&g, g.max_delay(), &o).unwrap();
        let s = &out.stats;
        assert_eq!(
            s.dual_pivots + s.primal_pivots + s.bound_flips,
            s.simplex_iters,
            "{pricing:?}: counter ledger does not tie out"
        );
        assert!(s.primal_pivots > 0, "{pricing:?}: no primal pivots counted");
        assert!(
            s.dual_pivots > 0,
            "{pricing:?}: warm search never took a dual pivot"
        );
    }
}

/// The ledger also ties out through the parallel merge layer (every
/// worker's kernel is absorbed additively).
#[test]
fn pivot_counters_tie_out_across_workers() {
    let g = bench_instance(20);
    let o = capped(Pricing::SteepestEdge, NodeOrder::BestBound, 2000, 2);
    let out = formulation::max_thr(&g, g.max_delay(), &o).unwrap();
    let s = &out.stats;
    assert_eq!(
        s.dual_pivots + s.primal_pivots + s.bound_flips,
        s.simplex_iters,
        "parallel merge lost pricing counters"
    );
}
