//! The branch & bound gate: one golden table for the production search,
//! plus the behaviour checks every search change must keep.
//!
//! * **Golden table** — with a node cap and no wall clock the search
//!   is deterministic, so one table pins its trajectory on default
//!   options (pseudo-cost branching, the one pricing rule,
//!   Forrest–Tomlin updates, DFS, cycle-sum cuts, no rounding
//!   heuristic): objective, nodes, pivots, warm/cold split, incumbent
//!   trace and cuts activated, on the ring MILP and on `MAX_THR` for
//!   bench20, bench40 and s27. A repeated solve replays the whole stats
//!   struct bit for bit, completed and truncated.
//! * **Search strength** — the bench20, s27 and bench40 rows restated
//!   as the pseudo-cost facts they stand for: reliability probes and
//!   pseudo-cost updates run, cycle-sum cuts fire, no incumbent sits on
//!   the plateau of the deleted most-fractional rule.
//! * **Agreement** — the production search proves the optima of the
//!   `Kernel::DenseTableau` oracle request on the Table-1 instances;
//!   mirrored and free integer fixtures solve warm and match the dense
//!   oracle.
//! * **Reports** — truncation reaches `OptOutcome`; `gap_tol` fires on
//!   the true gap, before the first dive ends; a truncated run reports
//!   a valid dual bound above the root LP bound, and a node lost to an
//!   LP failure keeps its bound in the dual bound.
//! * **Source** — deleted search modes, pricing rules, the rounding
//!   heuristic, the retired solver knobs, the unused modules and the
//!   threaded search stay deleted, rr-milp uses no lock, atomic or
//!   thread, and no model is cloned inside the node loop.
//!
//! Everything here is deterministic: fixed seeds, node caps instead of
//! wall-clock limits.

use rr_bench::{milp_bench_instance as bench_instance, parallel_map_bounded};
use rr_core::formulation::{self, OptOutcome};
use rr_core::CoreOptions;
use rr_milp::{
    cmp, solve_with_stats, BranchBoundStats, Kernel, LinExpr, Model, Sense, SolverOptions, Status,
};
use rr_rrg::figures;
use rr_rrg::iscas::IscasProfile;
use rr_rrg::Rrg;

/// Production options for the formulation instances: default solver
/// options (exact gap, no wall clock) under a node cap, cuts on.
fn capped(max_nodes: usize) -> CoreOptions {
    CoreOptions {
        solver: SolverOptions {
            max_nodes,
            ..SolverOptions::default()
        },
        ..CoreOptions::default()
    }
}

/// The ring-difference golden instance: difference constraints over a
/// ring plus coupling knapsack rows. Defined here, not imported: the
/// golden row pins the trajectory of exactly this model.
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

fn s27() -> Rrg {
    IscasProfile::by_name("s27").unwrap().generate(2009)
}

/// `name` scaled to 20 edges, as the reduced Table-2 sweep runs it.
fn scaled_20(name: &str) -> Rrg {
    IscasProfile::by_name(name)
        .unwrap()
        .scaled(20)
        .generate(2009)
}

/// The proven `MAX_THR` optimum of s344 at 20 edges.
const S344_20_OPTIMUM: f64 = 7.032_698_912_644_731;

/// The proven `MAX_THR` optimum of s400 at 20 edges.
const S400_20_OPTIMUM: f64 = 1.769_811_861_725_364_9;

/// One observed trajectory: everything a golden row pins.
#[derive(Debug)]
struct Row {
    objective: f64,
    nodes: usize,
    pivots: usize,
    warm: usize,
    cold: usize,
    cuts_activated: usize,
    truncated: bool,
    trace: Vec<(usize, f64)>,
}

impl Row {
    fn of(objective: f64, s: &BranchBoundStats) -> Row {
        Row {
            objective,
            nodes: s.nodes,
            pivots: s.simplex_iters,
            warm: s.warm_solves,
            cold: s.cold_solves,
            cuts_activated: s.cuts_activated,
            truncated: s.truncated,
            trace: s.incumbent_trace.clone(),
        }
    }

    /// Counts and flags match exactly; objectives within 1e-9 relative.
    fn matches(&self, g: &Golden) -> bool {
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs().max(1.0);
        let (_, objective, nodes, pivots, warm, cold, cuts, truncated, trace) = *g;
        close(self.objective, objective)
            && (self.nodes, self.pivots, self.warm, self.cold) == (nodes, pivots, warm, cold)
            && (self.cuts_activated, self.truncated) == (cuts, truncated)
            && self.trace.len() == trace.len()
            && (self.trace.iter().zip(trace)).all(|(&(n, o), &(gn, go))| n == gn && close(o, go))
    }
}

/// Name, objective, nodes, pivots, warm solves, cold solves, cuts
/// activated, truncated, incumbent trace `(node, objective)`.
type Golden = (
    &'static str,
    f64,
    usize,
    usize,
    usize,
    usize,
    usize,
    bool,
    &'static [(usize, f64)],
);

/// The golden table. Re-pin a row only together with the sweep numbers
/// that justify the trajectory change (`table2 --max-edges 20`).
#[rustfmt::skip]
const GOLDEN: [Golden; 4] = [
    // name, objective, nodes, pivots, warm, cold, cuts, truncated, incumbent trace
    ("ring", 50.0, 175, 717, 174, 1, 0, false, &[(71, 50.0)]),
    ("bench20", 6.497_501_818_546_008_5, 11, 181, 10, 1, 0, false, &[(0, 6.497_501_818_546_008_5)]),
    ("bench40", 3.0, 1, 141, 0, 1, 0, false, &[(0, 3.0)]),
    ("s27", 3.0, 25, 651, 24, 2, 3, false, &[(0, 3.0)]),
];

/// Node cap of the formulation rows in the golden table.
const CAP: usize = 2000;

/// The golden row named `name`.
fn golden(name: &str) -> &'static Golden {
    GOLDEN.iter().find(|g| g.0 == name).unwrap()
}

/// Solves one golden instance and returns its observed row.
fn observe(name: &str) -> Row {
    let max_thr = |g: &Rrg| {
        let out = formulation::max_thr(g, g.max_delay(), &capped(CAP)).unwrap();
        Row::of(out.objective, &out.stats)
    };
    match name {
        "ring" => {
            let (sol, stats) =
                solve_with_stats(&ring_difference_milp(12, 6), &SolverOptions::default()).unwrap();
            Row::of(sol.objective, &stats)
        }
        "bench20" => max_thr(&bench_instance(20)),
        "bench40" => max_thr(&bench_instance(40)),
        "s27" => max_thr(&s27()),
        _ => unreachable!("unknown golden instance {name}"),
    }
}

#[test]
fn golden_table_pins_the_one_worker_trajectories() {
    let drifted: Vec<String> = GOLDEN
        .iter()
        .filter_map(|g| {
            let got = observe(g.0);
            (!got.matches(g)).then(|| format!("{}: observed {got:?}\n  golden {g:?}", g.0))
        })
        .collect();
    assert!(
        drifted.is_empty(),
        "golden rows drifted:\n{}",
        drifted.join("\n")
    );
}

/// bench20 `MAX_THR`: proven in 11 nodes, reliability probes and
/// pseudo-cost updates at work, and a dual bound that meets the
/// incumbent. It activates no cycle-sum cut; s27 carries that fact.
#[test]
fn bench20_pseudo_cost_golden() {
    let g = bench_instance(20);
    let out = formulation::max_thr(&g, g.max_delay(), &capped(4000)).unwrap();
    assert!(out.proven_optimal && !out.stats.truncated);
    assert!(
        (out.objective - golden("bench20").1).abs() < 1e-8,
        "obj {}",
        out.objective
    );
    let s = &out.stats;
    // nodes, pivots, cuts activated
    assert_eq!(
        (s.nodes, s.simplex_iters, s.cuts_activated),
        (11, 181, 0),
        "golden drifted"
    );
    assert!(s.strong_branches > 0, "reliability probes never ran");
    assert!(s.pseudo_updates > 0, "pseudo-costs never learned");
    assert!(
        (s.dual_bound - out.objective).abs() <= 1e-8 * out.objective,
        "dual bound {} vs objective {}",
        s.dual_bound,
        out.objective
    );
}

/// s27 `MAX_THR`: no incumbent ever sits on the ξ = 4.0 plateau on which
/// the deleted most-fractional rule parked. The warm-start hint already
/// holds ξ = 3.0, and the search proves it optimal in 25 nodes with
/// three cycle-sum cuts activated.
#[test]
fn s27_pseudo_cost_escapes_the_most_fractional_plateau() {
    let g = s27();
    let out = formulation::max_thr(&g, g.max_delay(), &capped(2000)).unwrap();
    assert!(out.proven_optimal);
    assert!((out.objective - 3.0).abs() < 1e-6, "obj {}", out.objective);
    let s = &out.stats;
    assert_eq!(s.nodes, 25, "node-count golden drifted");
    assert!(s.cuts_activated > 0, "no cycle-sum cut ever fired");
    assert!(
        s.incumbent_trace.iter().all(|&(_, obj)| obj < 4.0 - 1e-6),
        "an incumbent sat on the plateau: trace {:?}",
        s.incumbent_trace
    );
}

/// bench40 `MAX_THR` under the cap-1000 budget: completes and proves
/// ξ = 3.0 at the root.
#[test]
fn bench40_pseudo_cost_completes_under_the_cap_1000_budget() {
    let g = bench_instance(40);
    let out = formulation::max_thr(&g, g.max_delay(), &capped(1000)).unwrap();
    assert!(out.proven_optimal && !out.stats.truncated);
    assert!((out.objective - 3.0).abs() < 1e-6, "obj {}", out.objective);
    assert_eq!(out.stats.nodes, 1, "node-count golden drifted");
}

/// The production search and the `Kernel::DenseTableau` oracle request
/// (dense LU, product-form updates, cold nodes, incumbent re-checked on
/// the tableau) prove identical optima on every Table-1 instance.
#[test]
fn orderings_prove_identical_optima_on_table1_instances() {
    let failures = on_table1_instances(|g, problem| {
        let production = solve(g, problem, &capped(20_000))?;
        let mut oracle_opts = capped(20_000);
        oracle_opts.solver.kernel = Kernel::DenseTableau;
        let oracle = solve(g, problem, &oracle_opts)?;
        agree("production", &production, "dense oracle", &oracle)
    });
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// Bit-exact stats equality. `node_bounds` holds NaN for failed or
/// infeasible node LPs, so the derived `PartialEq` (NaN ≠ NaN) cannot
/// express "identical trajectory"; that field is compared bitwise.
fn assert_stats_identical(mut a: BranchBoundStats, mut b: BranchBoundStats) {
    let bits = |s: &mut BranchBoundStats| -> Vec<u64> {
        std::mem::take(&mut s.node_bounds)
            .iter()
            .map(|x| x.to_bits())
            .collect()
    };
    assert_eq!(
        bits(&mut a),
        bits(&mut b),
        "node-bound trajectories diverged"
    );
    assert_eq!(a, b);
}

/// The ring row of the golden table replays, and a second solve of the
/// same model replays the whole stats struct bit for bit.
#[test]
fn one_worker_matches_the_serial_goldens_bit_exact() {
    let m = ring_difference_milp(12, 6);
    let (sol, stats) = solve_with_stats(&m, &SolverOptions::default()).unwrap();
    assert_eq!(sol.status, Status::Optimal);
    let ring = golden("ring");
    let got = Row::of(sol.objective, &stats);
    assert!(got.matches(ring), "observed {got:?}\n  golden {ring:?}");
    let (again, again_stats) = solve_with_stats(&m, &SolverOptions::default()).unwrap();
    assert_eq!(again.objective.to_bits(), sol.objective.to_bits());
    assert_stats_identical(again_stats, stats);
}

/// A truncated `MAX_THR` run on s344 at 20 edges replays bit for bit:
/// a repeat stops at the same node with the same incumbent, dual bound
/// and per-node bound trace. (bench40 closes at the root, so no node cap
/// truncates it.)
#[test]
fn one_worker_matches_serial_best_bound_truncated_runs() {
    let g = scaled_20("s344");
    let run = || formulation::max_thr(&g, g.max_delay(), &capped(40)).unwrap();
    let one = run();
    assert!(
        one.stats.truncated,
        "completed in {} nodes",
        one.stats.nodes
    );
    assert!(!one.proven_optimal);
    // A truncated run's incumbent cannot beat the proven optimum, and its
    // dual bound cannot pass it.
    assert!(
        one.objective >= S344_20_OPTIMUM - 1e-6,
        "incumbent {}",
        one.objective
    );
    assert!(
        one.stats.dual_bound <= S344_20_OPTIMUM + 1e-6,
        "dual {}",
        one.stats.dual_bound
    );
    let other = run();
    assert_eq!(one.objective.to_bits(), other.objective.to_bits());
    assert_stats_identical(other.stats, one.stats);
}

/// A mirrored-integer fixture: `y` has no lower bound, only an upper
/// bound (standard form mirrors it), plus a shifted integer `x` coupling
/// it. Optimum: x = 4, y = 2, objective 8.
fn mirrored_fixture() -> Model {
    let mut m = Model::new(Sense::Minimize);
    let x = m.add_integer("x", 0.0, 10.0);
    let y = m.add_integer("y", f64::NEG_INFINITY, 5.5);
    m.set_objective(3.0 * x - 2.0 * y);
    m.add_constraint(x - y, cmp::GE, 1.3);
    m.add_constraint(x + y, cmp::LE, 6.2);
    m
}

/// A free-integer fixture: `z` is fully free (split-pair columns in
/// standard form) with a fractional relaxation forcing branching into
/// negative territory (pinned against the dense oracle below).
fn free_fixture() -> Model {
    let mut m = Model::new(Sense::Minimize);
    let z = m.add_integer("z", f64::NEG_INFINITY, f64::INFINITY);
    let w = m.add_integer("w", 0.0, 4.0);
    m.set_objective(z + 2.0 * w);
    m.add_constraint(z + w, cmp::GE, -3.5);
    m.add_constraint(z - w, cmp::GE, -9.2);
    m
}

/// Mirrored and free integer fixtures solve through the warm path,
/// agree with the dense-tableau oracle request to ≤ 1e-7, and take
/// exactly one cold solve, every other node a warm dual
/// reoptimization.
#[test]
fn mirrored_and_free_fixtures_solve_warm_and_match_the_dense_oracle() {
    for (name, m) in [("mirrored", mirrored_fixture()), ("free", free_fixture())] {
        let dense = m
            .solve_with(&SolverOptions {
                kernel: Kernel::DenseTableau,
                ..SolverOptions::default()
            })
            .unwrap_or_else(|e| panic!("{name}: dense oracle failed: {e:?}"));
        assert_eq!(dense.status, Status::Optimal);
        let (sol, stats) = solve_with_stats(&m, &SolverOptions::default())
            .unwrap_or_else(|e| panic!("{name}: {e:?}"));
        assert_eq!(sol.status, Status::Optimal);
        assert!(
            (sol.objective - dense.objective).abs() <= 1e-7,
            "{name}: warm {} vs dense oracle {}",
            sol.objective,
            dense.objective
        );
        assert!(m.max_violation(sol.values(), 1e-6) < 1e-5);
        assert!(sol.values().iter().all(|x| (x - x.round()).abs() < 1e-6));
        assert!(!stats.truncated);
        assert_eq!(stats.cold_solves, 1, "{name}");
        assert_eq!(stats.warm_solves, stats.nodes - 1, "{name}");
    }
}

/// A node-cap-truncated `MAX_THR` is explicitly distinguishable from a
/// proven optimum across the rr-core report path: `proven_optimal`, the
/// `truncated` flag, and `OptOutcome::truncated()`.
#[test]
fn truncated_solves_surface_feasible_verdicts_in_reports() {
    let g = bench_instance(20);
    let out = formulation::max_thr(&g, g.max_delay(), &capped(5)).unwrap();
    assert!(
        !out.proven_optimal,
        "a 5-node cap cannot prove this optimum"
    );
    assert!(out.truncated(), "OptOutcome must surface the truncation");
    assert!(out.stats.truncated);

    // A completed solve reports the opposite on every surface.
    let done = formulation::min_cyc(&g, 1.0, &capped(20_000)).unwrap();
    assert!(done.proven_optimal);
    assert!(!done.truncated());
}

/// A near-tie binary knapsack: many incumbents, each a hair better than
/// the last, under an LP bound that barely moves — the search `gap_tol`
/// exists to cut short.
fn near_tie_knapsack(n: usize) -> Model {
    let mut m = Model::new(Sense::Maximize);
    let mut obj = LinExpr::new();
    let mut row = LinExpr::new();
    for i in 0..n {
        let v = m.add_integer(format!("x{i}"), 0.0, 1.0);
        obj += (100.0 + (i % 7) as f64 * 0.01) * v;
        row += (100.0 + (i % 5) as f64 * 0.013) * v;
    }
    m.set_objective(obj);
    m.add_constraint(row, cmp::LE, 100.0 * (n as f64) / 2.0 + 0.37);
    m
}

/// `gap_tol` ends the search at the first incumbent within the gap of
/// the open-node bound: far fewer nodes than the exact run, reported as
/// proven (not truncated), and the reported `dual_bound` both backs the
/// claimed gap and stays valid against the exact optimum.
#[test]
fn gap_tolerance_fires_on_the_true_gap() {
    let m = near_tie_knapsack(14);
    let (exact, exact_stats) = solve_with_stats(&m, &SolverOptions::default()).unwrap();
    let opts = SolverOptions {
        gap_tol: 1e-3,
        ..SolverOptions::default()
    };
    let (sol, stats) = solve_with_stats(&m, &opts).unwrap();
    assert_eq!(
        sol.status,
        Status::Optimal,
        "within-gap termination is proven"
    );
    assert!(!stats.truncated);
    assert!(
        10 * stats.nodes < exact_stats.nodes,
        "gap termination took {} nodes, the exact run {}",
        stats.nodes,
        exact_stats.nodes
    );
    // Maximization: the dual bound is an upper bound.
    assert!(
        stats.dual_bound - sol.objective <= 1e-3 * sol.objective.abs(),
        "gap claim not supported: obj {} dual {}",
        sol.objective,
        stats.dual_bound
    );
    assert!(stats.dual_bound >= exact.objective - 1e-9);
}

/// `gap_tol` fires as soon as an incumbent is within the gap of the
/// minimum bound over the open stack, i.e. over every unexplored node,
/// so a leaf of the very first dive can end the search. On the 14-item
/// near-tie knapsack at a 1e-3 gap the search stops after 8 nodes; the
/// gate is fewer than 64.
#[test]
fn gap_tolerance_fires_during_the_first_episode() {
    let m = near_tie_knapsack(14);
    let opts = SolverOptions {
        gap_tol: 1e-3,
        ..SolverOptions::default()
    };
    let (sol, stats) = solve_with_stats(&m, &opts).unwrap();
    assert_eq!(sol.status, Status::Optimal);
    assert!(!stats.truncated);
    assert!(
        stats.nodes < 64,
        "gap termination took {} nodes",
        stats.nodes
    );
    // Maximization: the dual bound is an upper bound backing the gap.
    assert!(
        stats.dual_bound - sol.objective <= 1e-3 * sol.objective.abs(),
        "gap claim not supported: obj {} dual {}",
        sol.objective,
        stats.dual_bound
    );
    assert!(stats.dual_bound >= sol.objective - 1e-9);
}

/// A *truncated* run reports the global open-node minimum — a bound
/// that is at least the root LP bound, never above the true optimum,
/// and strictly tighter than the root once the frontier has climbed. On
/// s400 at 20 edges the 40-node cap stops the depth-first search with
/// the dual bound at 1.61 against the root's 1.54 and the optimum's
/// 1.77.
#[test]
fn truncated_best_bound_reports_a_valid_dual_bound_above_the_root() {
    let g = scaled_20("s400");
    let out = formulation::max_thr(&g, g.max_delay(), &capped(40)).unwrap();
    assert!(
        out.stats.truncated,
        "completed in {} nodes",
        out.stats.nodes
    );
    let root = out.stats.root_bound;
    let dual = out.stats.dual_bound;
    assert!(dual.is_finite());
    assert!(dual >= root - 1e-9, "dual {dual} below root {root}");
    assert!(
        dual <= S400_20_OPTIMUM + 1e-6,
        "dual {dual} overshoots the optimum"
    );
    assert!(
        dual > root + 1e-3,
        "frontier never tightened past the root LP ({root})"
    );
}

/// A node whose LP fails through the whole recovery ladder is dropped,
/// but its bound still counts: the reported dual bound never passes the
/// optimum. Under a small per-LP pivot budget the hint LP of `MAX_THR`
/// still installs an incumbent, but the root LP of bench20 and bench40
/// runs out of pivots on every rung. Nothing is proven, so the run is
/// truncated, the root bound stays `NaN` and the dual bound is `−∞`
/// (the problem minimizes).
#[test]
fn lost_nodes_keep_their_bound_in_the_dual_bound() {
    for (name, edges, max_pivots) in [("bench20", 20, 30), ("bench40", 40, 40)] {
        let optimum = golden(name).1;
        let g = bench_instance(edges);
        let mut opts = capped(CAP);
        opts.solver.max_pivots = max_pivots;
        let out = formulation::max_thr(&g, g.max_delay(), &opts).unwrap();
        let s = &out.stats;
        assert!(s.truncated && !out.proven_optimal, "{name}: proven");
        assert!(out.objective >= optimum - 1e-6, "{name}: {}", out.objective);
        assert!(
            s.dual_bound <= optimum + 1e-6,
            "{name}: dual bound {} passes the optimum {optimum}",
            s.dual_bound
        );
        assert!(s.root_bound.is_nan(), "{name}: root {}", s.root_bound);
        assert_eq!(s.dual_bound, f64::NEG_INFINITY, "{name}");
    }
}

/// Source-level assertions that the deleted search modes, pricing rules,
/// the rounding heuristic, the retired solver, core and Markov knobs,
/// the unused modules, the threaded search and the `--workers` flag
/// stay deleted — their identifiers survive only in comment lines
/// anywhere under `crates/` and `examples/` — that no non-comment line
/// under `crates/milp/src` names `std::sync` or `std::thread`, and that
/// no model is cloned inside the node loop: `model.clone()` appears
/// exactly once in `branch_bound.rs` (the whole-solve cross-validation
/// pin, after the search returns) and never in `search.rs`.
///
/// The retired tolerances, the reliability threshold and the cut switch
/// live on as names elsewhere (the crate-private `INT_TOL`-style consts,
/// the `int_tol` parameter of `Model::max_violation`, `Model::cuts`), so
/// only their field accesses and the old `CoreOptions` literals are
/// patterns here.
#[test]
fn deleted_modes_stay_deleted_and_no_model_clones_in_the_node_loop() {
    let deleted = [
        "SearchCore",
        "run_search",
        "LpBackend",
        "most_fractional_of",
        "MostFractional",
        "Branching",
        "LegacyBackend",
        "SNAP_LEAVES",
        "SteepestEdge",
        "Pricing::Dantzig",
        "WeightDrift",
        "dual_enter_dantzig",
        "update_dse_weights",
        "update_devex_weights",
        "DSE_DRIFT_FACTOR",
        "BestBound",
        "NodeOrder",
        "round_and_fix",
        "rounding_heuristic",
        "offer_incumbent",
        "refactor_eta_len",
        "refactor_fill_growth",
        "strong_branch_pivots",
        "strong_branch_candidates",
        "max_exact_solve",
        "top_k",
        "to_dot",
        "from_text",
        "RrgStats",
        "minimal_uniform_capacity",
        ".reliability",
        ".int_tol",
        ".feas_tol",
        ".pivot_tol",
        "opts.cuts",
        "cuts: bool",
        "cuts: true",
        "cuts: false",
        "episode_floor",
        "cut_flags",
        "apply_cut",
        "Condvar",
        "\"--workers\"",
    ];
    let threads = ["std::sync", "std::thread"];
    let mut offenders = Vec::new();
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR"));
    let milp_src = root.join("crates").join("milp").join("src");
    let mut dirs = vec![root.join("crates"), root.join("examples")];
    while let Some(dir) = dirs.pop() {
        for entry in std::fs::read_dir(&dir).unwrap() {
            let path = entry.unwrap().path();
            if path.is_dir() {
                dirs.push(path);
            } else if path.extension().is_some_and(|e| e == "rs") {
                let src = std::fs::read_to_string(&path).unwrap();
                let in_milp = path.starts_with(&milp_src);
                for (lineno, line) in src.lines().enumerate() {
                    if !line.trim_start().starts_with("//")
                        && (deleted.iter().any(|ident| line.contains(ident))
                            || in_milp && threads.iter().any(|t| line.contains(t)))
                    {
                        offenders.push(format!("{}:{}: {line}", path.display(), lineno + 1));
                    }
                }
            }
        }
    }
    assert!(
        offenders.is_empty(),
        "deleted identifiers or threads outside comments:\n{}",
        offenders.join("\n")
    );

    let branch_bound = include_str!("../crates/milp/src/branch_bound.rs");
    let search = include_str!("../crates/milp/src/search.rs");
    assert_eq!(
        branch_bound.matches("model.clone()").count(),
        1,
        "branch_bound.rs must clone the model exactly once (the cross-validation pin)"
    );
    assert_eq!(
        search.matches("model.clone()").count(),
        0,
        "search.rs must never clone the model"
    );
}

/// Runs `check` on every Table-1 instance — the paper figures ×
/// {`MAX_THR` at the min-delay cycle time, `MIN_CYC(1)`} plus the bench
/// instances (`MIN_CYC(1)`) — four at a time, and collects every failure.
fn on_table1_instances(check: impl Fn(&Rrg, &str) -> Result<(), String> + Sync) -> Vec<String> {
    let mut jobs: Vec<(String, Rrg, &str)> = Vec::new();
    for (name, g) in [
        ("figure_1a(0.5)", figures::figure_1a(0.5)),
        ("figure_1a(0.9)", figures::figure_1a(0.9)),
        ("figure_1b(0.5)", figures::figure_1b(0.5)),
        ("figure_2(0.7)", figures::figure_2(0.7)),
    ] {
        for problem in ["max_thr", "min_cyc"] {
            jobs.push((name.to_string(), g.clone(), problem));
        }
    }
    for edges in [20usize, 40] {
        jobs.push((format!("bench{edges}"), bench_instance(edges), "min_cyc"));
    }
    parallel_map_bounded(4, jobs, |(name, g, problem)| {
        check(&g, problem).map_err(|e| format!("{name}/{problem}: {e}"))
    })
    .into_iter()
    .filter_map(Result::err)
    .collect()
}

fn solve(g: &Rrg, problem: &str, opts: &CoreOptions) -> Result<OptOutcome, String> {
    match problem {
        "max_thr" => formulation::max_thr(g, g.max_delay(), opts),
        _ => formulation::min_cyc(g, 1.0, opts),
    }
    .map_err(|e| e.to_string())
}

/// Both runs proved optimality and agree within 1e-7, relative:
/// different pivot paths leave LP-level noise in the recovered objective,
/// which scales with its magnitude (bench40's τ ≈ 54.6 wobbles by ~2e-7).
fn agree(a: &str, x: &OptOutcome, b: &str, y: &OptOutcome) -> Result<(), String> {
    if !x.proven_optimal || !y.proven_optimal {
        return Err(format!(
            "not proven ({a}: {}, {b}: {})",
            x.proven_optimal, y.proven_optimal
        ));
    }
    if (x.objective - y.objective).abs() > 1e-7 * x.objective.abs().max(1.0) {
        return Err(format!("{a} {} vs {b} {}", x.objective, y.objective));
    }
    Ok(())
}
