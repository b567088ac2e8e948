//! Depth-first trajectory pins. The ring MILP and the bench20 `MAX_THR`
//! instance replay their rows of the `search_gate` golden table on the
//! production search (depth-first, the only order), and the
//! `Kernel::DenseTableau` oracle request (dense LU, product-form updates,
//! cold nodes) must reach the same optima and replay its own trajectory
//! bit-exact. The names date from the search-core refactor these pins
//! first guarded; the values follow the golden table whenever the
//! production trajectory changes.

mod common;

use common::ring_difference_milp;
use rr_bench::milp_bench_instance as bench_instance;
use rr_core::{formulation, CoreOptions};
use rr_milp::{solve_with_stats, BranchBoundStats, Kernel, SolverOptions, Status};

/// The bench20 `MAX_THR` optimum (the warm-start hint already holds it).
const BENCH20_OPTIMUM: f64 = 6.497_501_818_546_008_5;

/// The production search on default options: one worker, exact gap,
/// no wall clock.
fn dfs(max_nodes: usize) -> SolverOptions {
    SolverOptions {
        max_nodes,
        ..SolverOptions::default()
    }
}

/// The oracle configuration: the `Kernel::DenseTableau` request on top
/// of [`dfs`].
fn historical(max_nodes: usize) -> SolverOptions {
    SolverOptions {
        kernel: Kernel::DenseTableau,
        ..dfs(max_nodes)
    }
}

/// Nodes, pivots and incumbent trace: what a replay must reproduce.
fn trajectory(s: &BranchBoundStats) -> (usize, usize, Vec<(usize, f64)>) {
    (s.nodes, s.simplex_iters, s.incumbent_trace.clone())
}

#[test]
fn dfs_reproduces_pre_refactor_trajectory_on_ring_milp() {
    let m = ring_difference_milp(12, 6);
    let (sol, s) = solve_with_stats(&m, &dfs(20_000)).unwrap();
    assert_eq!(sol.status, Status::Optimal);
    assert!(
        (sol.objective - 50.0).abs() < 1e-12,
        "obj {}",
        sol.objective
    );
    // The ring row: nodes, pivots, warm solves, cold solves, truncated, trace.
    assert_eq!(
        (
            s.nodes,
            s.simplex_iters,
            s.warm_solves,
            s.cold_solves,
            s.truncated,
            s.incumbent_trace
        ),
        (175, 717, 174, 1, false, vec![(71, 50.0)]),
        "trajectory drifted from the golden"
    );
    let (a, sa) = solve_with_stats(&m, &historical(20_000)).unwrap();
    let (b, sb) = solve_with_stats(&m, &historical(20_000)).unwrap();
    assert_eq!(a.status, Status::Optimal);
    assert!(
        (a.objective - 50.0).abs() < 1e-12,
        "oracle obj {}",
        a.objective
    );
    assert_eq!(a.objective.to_bits(), b.objective.to_bits());
    assert_eq!(sa.warm_solves, 0, "oracle nodes must solve cold");
    assert_eq!(trajectory(&sa), trajectory(&sb), "oracle replay diverged");
}

#[test]
fn dfs_reproduces_pre_refactor_trajectory_on_bench20_max_thr() {
    let g = bench_instance(20);
    let opts = CoreOptions {
        solver: dfs(2000),
        ..CoreOptions::default()
    };
    let out = formulation::max_thr(&g, g.max_delay(), &opts).unwrap();
    assert!(out.proven_optimal);
    assert!(
        (out.objective - BENCH20_OPTIMUM).abs() < 1e-8,
        "obj {}",
        out.objective
    );
    let s = &out.stats;
    // The bench20 row: nodes, pivots, warm solves, cold solves, cuts activated.
    assert_eq!(
        (
            s.nodes,
            s.simplex_iters,
            s.warm_solves,
            s.cold_solves,
            s.cuts_activated
        ),
        (41, 813, 40, 2, 5),
        "trajectory drifted from the golden"
    );
    // One incumbent, seeded by the warm-start hint before any node.
    assert_eq!(s.incumbent_trace.len(), 1);
    assert_eq!(s.incumbent_trace[0].0, 0);

    // The oracle configuration with the 2% gap of `fast()`.
    let hist = CoreOptions {
        solver: SolverOptions {
            gap_tol: 0.02,
            ..historical(2000)
        },
        ..CoreOptions::fast()
    };
    let a = formulation::max_thr(&g, g.max_delay(), &hist).unwrap();
    let b = formulation::max_thr(&g, g.max_delay(), &hist).unwrap();
    assert!(
        (a.objective - BENCH20_OPTIMUM).abs() < 1e-8,
        "oracle obj {}",
        a.objective
    );
    assert_eq!(a.objective.to_bits(), b.objective.to_bits());
    assert_eq!(
        trajectory(&a.stats),
        trajectory(&b.stats),
        "oracle replay diverged"
    );
}
