//! The branch & bound gate: one golden table for the production search,
//! plus the behaviour checks every search change must keep.
//!
//! * **Golden table** — with a node cap and no wall clock the search
//!   is deterministic, so one table pins its trajectory on default
//!   options (pseudo-cost branching, the one pricing rule,
//!   Forrest–Tomlin updates, DFS, no rounding heuristic): objective,
//!   nodes, pivots, warm/cold split and incumbent trace, on the ring
//!   MILP and on `MAX_THR` (cycle-sum cuts as ordinary rows) for
//!   bench20, bench40, s27 and s953 at 150 edges. The s953 row (598 rows,
//!   a 60-node cap) runs the row-eta file, the long-step ratio test and
//!   the strong-branch probes at the basis size of the benchmark's
//!   `maxthr150`. A repeated solve replays the whole stats
//!   struct bit for bit, completed and truncated, and the
//!   `Kernel::DenseTableau` oracle request, whose every LP runs cold on
//!   the dense tableau, reaches the same optima and replays its own
//!   trajectory on the ring and bench20 instances.
//! * **Search strength** — the bench20, s27 and bench40 rows restated
//!   as the pseudo-cost facts they stand for: reliability probes and
//!   pseudo-cost updates run, no incumbent sits on the plateau of the
//!   deleted most-fractional rule.
//! * **Agreement** — the production search proves the optima of the
//!   `Kernel::DenseTableau` oracle request on the Table-1 instances, on
//!   four random graphs that exercise the round-off verdicts of the warm
//!   dual simplex, and on 600 `MIN_CYC`/`MAX_THR` solves over 100 random
//!   graphs; mirrored and free integer fixtures solve warm and match the
//!   dense oracle. Two rows of the `milp_scaling` family (folded in from
//!   the retired factor-kernel suite) add bench40's `MIN_CYC(1)` with a
//!   bound on the sparse LU's fill and bench20's `MAX_THR` at the
//!   bench's own options.
//! * **Pricing** — the one pricing rule (the dual reoptimizer leaves on
//!   the largest scale-eligible violation and enters by the long-step
//!   ratio test; the primal phases price by Dantzig with the Bland
//!   fallback) terminates on a massively degenerate model, and the
//!   directional pivot counters tie out against the kernel's iteration
//!   count on a warm run.
//! * **Reports** — truncation reaches `OptOutcome`; `gap_tol` fires on
//!   the true gap, before the first dive ends; a truncated run reports
//!   a valid dual bound above the root LP bound, and a node lost to an
//!   LP failure keeps its bound in the dual bound.
//! * **Source** — deleted search modes, pricing rules, the rounding
//!   heuristic, the retired solver knobs, the unused modules, the
//!   threaded search, the lazy cut rows, the separate LP backend layer,
//!   the rowless shortcut, the unread stats fields, the dense LU and the
//!   incumbent re-solve stay deleted, rr-milp uses no lock, atomic or
//!   thread, and no model is cloned by the search.
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
use rr_rrg::generate::GeneratorParams;
use rr_rrg::iscas::IscasProfile;
use rr_rrg::Rrg;

/// Production options for the formulation instances: default solver
/// options (exact gap, no wall clock) under a node cap.
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
    let vars: Vec<_> = (0..n).map(|_| m.add_integer(0.0, 6.0)).collect();
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

/// One observed trajectory: everything a golden row pins.
#[derive(Debug)]
struct Row {
    objective: f64,
    nodes: usize,
    pivots: usize,
    warm: usize,
    cold: usize,
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
            truncated: s.truncated,
            trace: s.incumbent_trace.clone(),
        }
    }

    /// Counts and flags match exactly; objectives within 1e-9 relative.
    fn matches(&self, g: &Golden) -> bool {
        let close = |a: f64, b: f64| (a - b).abs() <= 1e-9 * b.abs().max(1.0);
        let (_, objective, nodes, pivots, warm, cold, truncated, trace) = *g;
        close(self.objective, objective)
            && (self.nodes, self.pivots, self.warm, self.cold) == (nodes, pivots, warm, cold)
            && self.truncated == truncated
            && self.trace.len() == trace.len()
            && (self.trace.iter().zip(trace)).all(|(&(n, o), &(gn, go))| n == gn && close(o, go))
    }
}

/// Name, objective, nodes, pivots, warm solves, cold solves,
/// truncated, incumbent trace `(node, objective)`.
type Golden = (
    &'static str,
    f64,
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
const GOLDEN: [Golden; 5] = [
    // name, objective, nodes, pivots, warm, cold, truncated, incumbent trace
    ("ring", 50.0, 161, 698, 160, 1, false, &[(67, 50.0)]),
    ("bench20", 6.497_501_818_546_008_5, 11, 181, 10, 1, false, &[(0, 6.497_501_818_546_008_5)]),
    ("bench40", 3.0, 1, 141, 0, 1, false, &[(0, 3.0)]),
    ("s27", 3.0, 42, 745, 41, 1, false, &[(0, 3.191_044_062_831_587_3), (15, 3.0)]),
    ("s953_150", 12.902_449_876_522_356, 60, 4028, 59, 1, true, &[(0, 12.902_449_876_522_356)]),
];

/// Node cap of the large-basis golden row.
const CAP_150: usize = 60;

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
        "s953_150" => {
            // Scaled to 150 edges, as `maxthr150` runs it.
            let g = IscasProfile::by_name("s953")
                .unwrap()
                .scaled(150)
                .generate(2009);
            let out = formulation::max_thr(&g, g.max_delay(), &capped(CAP_150)).unwrap();
            Row::of(out.objective, &out.stats)
        }
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
/// incumbent.
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
    // nodes, pivots
    assert_eq!((s.nodes, s.simplex_iters), (11, 181), "golden drifted");
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
/// the deleted most-fractional rule parked. The warm-start hint holds
/// ξ ≈ 3.19, and the search finds ξ = 3.0 at node 15 and proves it
/// optimal in 42 nodes.
#[test]
fn s27_pseudo_cost_escapes_the_most_fractional_plateau() {
    let g = s27();
    let out = formulation::max_thr(&g, g.max_delay(), &capped(2000)).unwrap();
    assert!(out.proven_optimal);
    assert!((out.objective - 3.0).abs() < 1e-6, "obj {}", out.objective);
    let s = &out.stats;
    assert_eq!(s.nodes, 42, "node-count golden drifted");
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
/// (every node LP and the hint's pinned LP solved cold on the dense
/// tableau) prove identical optima on every Table-1 instance and on the
/// random-graph regressions of [`oracle_instances`].
#[test]
fn orderings_prove_identical_optima_on_table1_instances() {
    let failures = on_table1_instances(agrees_with_oracle);
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// bench40 `MIN_CYC(1)`, the largest `milp_scaling` instance the gate
/// proves: the production search and the tableau oracle prove the same
/// optimum, and the sparse LU exploits sparsity, its recorded
/// `nnz(L+U)` staying under a quarter of the dense `m²` storage. The
/// name dates from the dense-LU oracle this check first compared.
#[test]
fn factor_kinds_prove_the_same_optimum_on_the_largest_bench_instance() {
    let g = bench_instance(40);
    let production = solve(&g, "min_cyc", 1.0, &capped(20_000)).unwrap();
    let mut oracle_opts = capped(20_000);
    oracle_opts.solver.kernel = Kernel::DenseTableau;
    let oracle = solve(&g, "min_cyc", 1.0, &oracle_opts).unwrap();
    // Both runs prove the optimum, so the objectives must coincide
    // regardless of pivot paths.
    assert!(
        production.proven_optimal,
        "production did not prove optimality"
    );
    assert!(oracle.proven_optimal, "oracle did not prove optimality");
    assert!(
        (production.objective - oracle.objective).abs() < 1e-7,
        "production {} vs dense oracle {}",
        production.objective,
        oracle.objective
    );

    let s = &production.stats;
    let m = s.basis_rows;
    assert!(m > 100, "instance too small to be meaningful ({m} rows)");
    assert!(s.refactors > 0 && s.peak_lu_nnz > 0);
    assert!(
        s.peak_lu_nnz < m * m / 4,
        "sparse LU fill {} did not clearly beat the dense {m}² = {}",
        s.peak_lu_nnz,
        m * m
    );
}

/// bench20 `MAX_THR` at the `milp_scaling` bench's own options
/// (`CoreOptions::fast()`, a 2% gap): the production search and the
/// tableau oracle reach the identical verdict and objective. The name
/// dates from the dense-LU oracle this check first compared.
#[test]
fn factor_kinds_agree_on_max_thr_at_bench_options() {
    let g = bench_instance(20);
    let tau = g.max_delay();
    let mut oracle_opts = CoreOptions::fast();
    oracle_opts.solver.kernel = Kernel::DenseTableau;
    let production = solve(&g, "max_thr", tau, &CoreOptions::fast()).unwrap();
    let oracle = solve(&g, "max_thr", tau, &oracle_opts).unwrap();
    assert_eq!(
        production.proven_optimal, oracle.proven_optimal,
        "verdicts diverge"
    );
    assert!(
        (production.objective - oracle.objective).abs() < 1e-7,
        "production {} vs dense oracle {}",
        production.objective,
        oracle.objective
    );
}

/// The production search proves the optimum of the dense-tableau oracle
/// request on every paper figure, for both problems — completed runs
/// only, which at these sizes is all of them. The oracle's node bounds
/// come from cold tableau solves, so it checks the warm long-step dual
/// path (largest-violation leaving row, bound-flipping ratio test)
/// independently.
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
/// fallback of the primal phases still engages alongside the long-step
/// dual path.
#[test]
fn steepest_edge_terminates_on_a_degenerate_model() {
    let mut m = Model::new(Sense::Maximize);
    let n = 8;
    let vars: Vec<_> = (0..n).map(|_| m.add_integer(0.0, 1.0)).collect();
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
    let (sol, stats) = solve_with_stats(&m, &capped(20_000).solver).unwrap();
    assert_eq!(sol.status, Status::Optimal);
    assert!(!stats.truncated);
    // At most one variable can be 1 (pairwise caps): optimum 1.
    assert!((sol.objective - 1.0).abs() < 1e-7, "obj {}", sol.objective);
}

/// Directional pivot counters tie out against the kernel's total
/// iteration count on a warm run (`dual_pivots + primal_pivots +
/// bound_flips = simplex_iters`), and a warm search actually exercises
/// the dual reoptimizer.
#[test]
fn pivot_counters_tie_out_on_serial_warm_runs() {
    let g = bench_instance(20);
    let out = formulation::max_thr(&g, g.max_delay(), &capped(2000)).unwrap();
    let s = &out.stats;
    assert_eq!(
        s.dual_pivots + s.primal_pivots + s.bound_flips,
        s.simplex_iters,
        "counter ledger does not tie out"
    );
    assert!(s.primal_pivots > 0, "no primal pivots counted");
    assert!(s.dual_pivots > 0, "warm search never took a dual pivot");
}

/// The random-graph oracle check. A SplitMix64 stream seeded
/// `0x1234_5678_9abc_def0` draws 100 graphs of the `rr-core` property
/// tests' sizes, four draws per graph: `2 + v%6` simple nodes, `v%3`
/// early nodes, `v%6` extra edges and the generator seed. On each graph
/// `MIN_CYC` at x = 1, 1.3 and 1.6 and `MAX_THR` at β_max, at the
/// initial cycle time τ₀ and at their midpoint must pass
/// [`agrees_with_oracle`]. Graphs 107, 224, 260 and 382 of the same
/// stream are the regressions of [`oracle_instances`].
#[test]
fn random_graphs_prove_the_dense_oracle_optima() {
    let mut state = 0x1234_5678_9abc_def0_u64;
    let mut jobs: Vec<(usize, Rrg, &str, f64)> = Vec::new();
    for i in 0..100 {
        let mut draw = || splitmix64(&mut state);
        let simple = 2 + (draw() % 6) as usize;
        let early = (draw() % 3) as usize;
        let extra = (draw() % 6) as usize;
        let edges = simple + 2 * early + extra;
        let g = GeneratorParams::paper_defaults(simple, early, edges).generate(draw());
        let beta_max = g.max_delay();
        let tau0 = rr_rrg::cycle_time::cycle_time(&g).unwrap();
        for x in [1.0, 1.3, 1.6] {
            jobs.push((i, g.clone(), "min_cyc", x));
        }
        for tau in [beta_max, tau0, (beta_max + tau0) / 2.0] {
            jobs.push((i, g.clone(), "max_thr", tau));
        }
    }
    let failures: Vec<String> = parallel_map_bounded(4, jobs, |(i, g, problem, param)| {
        agrees_with_oracle(&g, problem, param)
            .map_err(|e| format!("graph {i} {problem}({param}): {e}"))
    })
    .into_iter()
    .filter_map(Result::err)
    .collect();
    assert!(failures.is_empty(), "{}", failures.join("\n"));
}

/// One SplitMix64 step.
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// The production search and the `Kernel::DenseTableau` oracle request
/// both prove `MAX_THR(param)` or `MIN_CYC(param)` on `g` under a
/// 20,000-node cap, the exact gap and no wall clock, and agree.
fn agrees_with_oracle(g: &Rrg, problem: &str, param: f64) -> Result<(), String> {
    let production = solve(g, problem, param, &capped(20_000))?;
    let mut oracle_opts = capped(20_000);
    oracle_opts.solver.kernel = Kernel::DenseTableau;
    let oracle = solve(g, problem, param, &oracle_opts)?;
    agree("production", &production, "dense oracle", &oracle)
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

/// The oracle configuration: the `Kernel::DenseTableau` request (every
/// LP cold on the tableau) under a node cap.
fn oracle(max_nodes: usize) -> SolverOptions {
    SolverOptions {
        max_nodes,
        kernel: Kernel::DenseTableau,
        ..SolverOptions::default()
    }
}

/// Nodes, pivots, cold solves and incumbent trace: what an oracle
/// replay must reproduce.
fn trajectory(s: &BranchBoundStats) -> (usize, usize, usize, Vec<(usize, f64)>) {
    (
        s.nodes,
        s.simplex_iters,
        s.cold_solves,
        s.incumbent_trace.clone(),
    )
}

/// The ring row of the golden table on the production search
/// (depth-first, the only order), and the `Kernel::DenseTableau` oracle
/// request reaching the same optimum with every node cold and replaying
/// its own trajectory bit for bit. The name dates from the search-core
/// refactor this pin first guarded.
#[test]
fn dfs_reproduces_pre_refactor_trajectory_on_ring_milp() {
    let got = observe("ring");
    let ring = golden("ring");
    assert!(got.matches(ring), "observed {got:?}\n  golden {ring:?}");
    let m = ring_difference_milp(12, 6);
    let (a, sa) = solve_with_stats(&m, &oracle(20_000)).unwrap();
    let (b, sb) = solve_with_stats(&m, &oracle(20_000)).unwrap();
    assert_eq!(a.status, Status::Optimal);
    assert!(
        (a.objective - ring.1).abs() < 1e-12,
        "oracle obj {}",
        a.objective
    );
    assert_eq!(a.objective.to_bits(), b.objective.to_bits());
    assert_eq!(sa.warm_solves, 0, "oracle nodes must solve cold");
    assert_eq!(trajectory(&sa), trajectory(&sb), "oracle replay diverged");
}

/// The bench20 row of the golden table (one incumbent, seeded by the
/// warm-start hint before any node), and the oracle request with the 2%
/// gap of `fast()` reaching the same optimum and replaying its own
/// trajectory bit for bit.
#[test]
fn dfs_reproduces_pre_refactor_trajectory_on_bench20_max_thr() {
    let got = observe("bench20");
    let bench20 = golden("bench20");
    assert!(
        got.matches(bench20),
        "observed {got:?}\n  golden {bench20:?}"
    );
    let g = bench_instance(20);
    let opts = CoreOptions {
        solver: SolverOptions {
            gap_tol: 0.02,
            ..oracle(2000)
        },
        ..CoreOptions::fast()
    };
    let a = formulation::max_thr(&g, g.max_delay(), &opts).unwrap();
    let b = formulation::max_thr(&g, g.max_delay(), &opts).unwrap();
    assert!(
        (a.objective - bench20.1).abs() < 1e-8,
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

/// The ring MILP under the `Kernel::DenseTableau` oracle request (every
/// node LP cold on the tableau) with a node cap it never reaches: it
/// proves the ring row's optimum without a warm solve, factors no basis
/// (every pivot is a tableau pivot, counted as a primal pivot), and
/// replays its own trajectory bit for bit.
#[test]
fn ring_milp_golden_replays_bit_exact_through_the_unified_backend() {
    let m = ring_difference_milp(12, 6);
    let (sol, s) = solve_with_stats(&m, &oracle(200_000)).unwrap();
    assert_eq!(sol.status, Status::Optimal);
    assert!((sol.objective - 50.0).abs() < 1e-9, "obj {}", sol.objective);
    assert!(!s.truncated);
    assert_eq!(
        s.warm_solves, 0,
        "the oracle configuration solves every node cold"
    );
    assert_eq!(
        (s.refactors, s.ft_updates, s.peak_lu_nnz),
        (0, 0, 0),
        "a basis was factored under the oracle"
    );
    assert!(s.simplex_iters > 0);
    assert_eq!(s.primal_pivots, s.simplex_iters, "tableau pivots uncounted");
    let (again, t) = solve_with_stats(&m, &oracle(200_000)).unwrap();
    assert_eq!(again.objective.to_bits(), sol.objective.to_bits());
    assert_eq!(trajectory(&t), trajectory(&s), "oracle replay diverged");
}

/// bench20 `MAX_THR` under the oracle request at node cap 100 and the
/// exact gap: every node is a cold tableau solve, so the cap keeps the
/// run short, and the warm-start hint already holds the optimum. The
/// objective matches the bench20 row, no node warm-starts, and a repeat
/// replays the trajectory bit for bit.
#[test]
fn bench20_max_thr_golden_replays_bit_exact_through_the_unified_backend() {
    let g = bench_instance(20);
    let opts = CoreOptions {
        solver: oracle(100),
        ..CoreOptions::default()
    };
    let out = formulation::max_thr(&g, g.max_delay(), &opts).unwrap();
    let again = formulation::max_thr(&g, g.max_delay(), &opts).unwrap();
    assert!(
        (out.objective - golden("bench20").1).abs() < 1e-8,
        "obj {}",
        out.objective
    );
    assert_eq!(out.proven_optimal, !out.stats.truncated);
    assert_eq!(
        out.stats.warm_solves, 0,
        "the oracle configuration solves every node cold"
    );
    assert_eq!(again.objective.to_bits(), out.objective.to_bits());
    assert_eq!(
        trajectory(&again.stats),
        trajectory(&out.stats),
        "oracle replay diverged"
    );
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
    let x = m.add_integer(0.0, 10.0);
    let y = m.add_integer(f64::NEG_INFINITY, 5.5);
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
    let z = m.add_integer(f64::NEG_INFINITY, f64::INFINITY);
    let w = m.add_integer(0.0, 4.0);
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
        let v = m.add_integer(0.0, 1.0);
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
/// s344 at 20 edges the 100-node cap stops the depth-first search with
/// the dual bound at 6.89 against the root's 5.94 and the optimum's
/// 7.03.
#[test]
fn truncated_best_bound_reports_a_valid_dual_bound_above_the_root() {
    let g = scaled_20("s344");
    let out = formulation::max_thr(&g, g.max_delay(), &capped(100)).unwrap();
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
        dual <= S344_20_OPTIMUM + 1e-6,
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
/// the unused modules, the threaded search, the `--workers` flag, the
/// lazily activated cut rows, the separate LP backend layer with its
/// ten-argument branching call, the closed-form rowless solve, the
/// unread stats fields, the `(Mode, Mode)` formulation pair, the elastic
/// machine's bounded-capacity and telescopic modes, the Markov power
/// iteration, the dense LU with its factorization-kind plumbing, the
/// oracle's incumbent re-solve, the second LP path (the kernel's own
/// pure-LP solve, the bounded-form wrapper and its builder switch, the
/// kernel's deadline setter), the unused late-sweep helper, and the
/// Markov solver switch, fault plan and parameter struct with their
/// dense-cap and missing-γ errors, and the unread edge-id iterator stay
/// deleted (the dense Markov oracle and its cap live on as test-only
/// seams, and rr-rrg keeps its own `ValidateError::MissingGamma`) —
/// their identifiers
/// survive only in comment lines anywhere under `crates/` and
/// `examples/` — that no non-comment line under `crates/milp/src`
/// names `std::sync` or `std::thread`, and that no model is cloned:
/// `model.clone()` appears in neither `branch_bound.rs` nor
/// `search.rs` (the oracle builds each node's tableau from the model
/// and the node's boxes).
///
/// The retired tolerances and the reliability threshold live on as
/// names elsewhere (the crate-private `INT_TOL`-style consts, the
/// `int_tol` parameter of `Model::max_violation`), so only their field
/// accesses and the old `CoreOptions` cut-switch literals are patterns
/// here.
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
        "add_cut",
        "CutRow",
        "cut_rows",
        "active_cuts",
        "separate_cuts",
        "set_rhs",
        "weak_rhs",
        "WarmBackend",
        "solve_rowless",
        "branch_bound::solve(",
        "first_incumbent_node",
        "queue_peak",
        "peak_u_nnz",
        "fn u_nnz",
        ".u_nnz()",
        ".incumbents",
        "pub incumbents",
        "fn finish(",
        "select_branch_var",
        "fix_buffers",
        "Mode::Const",
        "Capacity::",
        "TelescopicSpec",
        "with_telescopic",
        "firing_set_bounded",
        "inputs_ready_hyp",
        "consumes_under",
        "busy_until",
        "pending_extra",
        "power_iteration",
        "DenseLu",
        "FactorKind",
        "cross_validate_dense",
        "Lu::Dense",
        "fn setup(",
        "revised::solve(",
        "has_integers",
        "BoxedForm",
        "build_ext",
        "set_deadline",
        "late_sweep_check",
        "RowEta",
        "row_etas",
        "DualChoice",
        "fn reduced_costs",
        "fn duals(",
        "StationarySolver",
        "MarkovFaults",
        "MarkovParams",
        "DenseSolveTooLarge",
        "MarkovError::MissingGamma",
        "stall_gauss_seidel",
        "stall_damped_power",
        "fn edge_ids",
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
        0,
        "branch_bound.rs must never clone the model"
    );
    assert_eq!(
        search.matches("model.clone()").count(),
        0,
        "search.rs must never clone the model"
    );
}

/// Random graphs whose feasible node LPs a round-off verdict of the
/// warm dual simplex can declare infeasible — a long-step ratio test
/// that flips every candidate over a round-off leftover, or a round-off
/// violation without an entering candidate — each with the problem and
/// the x or τ that exposes it. The oracle proves 32.7358, 29.1360,
/// 21.6982 and 1.4643.
fn oracle_instances() -> Vec<(String, Rrg, &'static str, f64)> {
    let graph = |ns, ne, edges, seed| GeneratorParams::paper_defaults(ns, ne, edges).generate(seed);
    let last = graph(6, 2, 12, 6_652_426_207_296_374_060);
    let tau = (last.max_delay() + rr_rrg::cycle_time::cycle_time(&last).unwrap()) / 2.0;
    vec![
        (
            "random(5,0,8)".into(),
            graph(5, 0, 8, 10_809_252_245_400_807_478),
            "min_cyc",
            1.0,
        ),
        (
            "random(4,2,8)".into(),
            graph(4, 2, 8, 3_777_512_514_397_210_422),
            "min_cyc",
            1.6,
        ),
        (
            "random(6,1,11)".into(),
            graph(6, 1, 11, 15_215_625_091_782_679_862),
            "min_cyc",
            1.3,
        ),
        ("random(6,2,12)".into(), last, "max_thr", tau),
    ]
}

/// Runs `check` on every Table-1 instance — the paper figures ×
/// {`MAX_THR` at the min-delay cycle time, `MIN_CYC(1)`} plus the bench
/// instances (`MIN_CYC(1)`) — and on [`oracle_instances`], four at a
/// time, and collects every failure. `check` receives the problem and
/// its x or τ.
fn on_table1_instances(
    check: impl Fn(&Rrg, &str, f64) -> Result<(), String> + Sync,
) -> Vec<String> {
    let mut jobs: Vec<(String, Rrg, &str, f64)> = Vec::new();
    for (name, g) in [
        ("figure_1a(0.5)", figures::figure_1a(0.5)),
        ("figure_1a(0.9)", figures::figure_1a(0.9)),
        ("figure_1b(0.5)", figures::figure_1b(0.5)),
        ("figure_2(0.7)", figures::figure_2(0.7)),
    ] {
        let tau = g.max_delay();
        jobs.push((name.to_string(), g.clone(), "max_thr", tau));
        jobs.push((name.to_string(), g, "min_cyc", 1.0));
    }
    for edges in [20usize, 40] {
        jobs.push((
            format!("bench{edges}"),
            bench_instance(edges),
            "min_cyc",
            1.0,
        ));
    }
    jobs.extend(oracle_instances());
    parallel_map_bounded(4, jobs, |(name, g, problem, param)| {
        check(&g, problem, param).map_err(|e| format!("{name}/{problem}({param}): {e}"))
    })
    .into_iter()
    .filter_map(Result::err)
    .collect()
}

/// `MAX_THR(param)` or `MIN_CYC(param)`.
fn solve(g: &Rrg, problem: &str, param: f64, opts: &CoreOptions) -> Result<OptOutcome, String> {
    match problem {
        "max_thr" => formulation::max_thr(g, param, opts),
        _ => formulation::min_cyc(g, param, opts),
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
