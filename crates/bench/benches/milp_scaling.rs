//! MILP/LP scaling bench — the reproduction-side counterpart of the
//! paper's §6 remark that "the proposed MILPs are difficult to solve
//! exactly for circuit graphs with more than one thousand edges".
//!
//! Measures, as the random-graph size grows:
//! * the LP throughput-bound solve (pure simplex),
//! * the `MAX_THR` MILP at the min-delay cycle time (simplex + B&B),
//!
//! and — the perf contract of the revised-simplex kernel — an explicit
//! **kernel A/B comparison**: every instance is solved with the
//! production kernel (revised simplex + Markowitz sparse LU,
//! warm-started branch & bound), with the same kernel over the dense-LU
//! snapshot (`FactorKind::Dense` — the factorization oracle), and with
//! the dense-tableau oracle (cold restarts), in the same run. Wall time,
//! simplex pivots, node counts, basis `nnz(L+U)` and refactorization
//! counts are appended to `BENCH_milp.json` (see `rr_bench::bench_log`)
//! so both speedup trajectories are tracked across PRs.
//!
//! The run **fails loudly** — after the records are written — if any
//! kernel/factorization disagrees with its oracle on a completed
//! (non-truncated) instance: a silent skip here would let a numerical
//! regression masquerade as a perf win.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;
use std::time::Instant;

use rr_bench::bench_log::{append, JsonRecord};
use rr_bench::milp_bench_instance as instance;
use rr_core::{formulation, CoreOptions};
use rr_milp::{
    cmp, solve_with_stats, FactorKind, FaultPlan, Kernel, LinExpr, Model, NodeOrder, RecoveryStats,
    Sense, SolverOptions, UpdateKind,
};
use rr_rrg::Rrg;
use rr_tgmg::{lp_bound, skeleton::tgmg_of};

fn bench_lp_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("lp_bound_scaling");
    group.sample_size(10);
    for &edges in &[20usize, 60, 120, 240] {
        let t = tgmg_of(&instance(edges));
        group.bench_with_input(BenchmarkId::from_parameter(edges), &t, |b, t| {
            b.iter(|| lp_bound::throughput_upper_bound(black_box(t)).unwrap())
        });
    }
    group.finish();
}

fn bench_milp_scaling(c: &mut Criterion) {
    let mut group = c.benchmark_group("max_thr_scaling");
    group.sample_size(10);
    for &edges in &[20usize, 40] {
        let g = instance(edges);
        let opts = CoreOptions::fast();
        group.bench_with_input(BenchmarkId::from_parameter(edges), &g, |b, g| {
            b.iter(|| formulation::max_thr(black_box(g), g.max_delay(), &opts).unwrap())
        });
    }
    group.finish();
}

/// One `MAX_THR` measurement: wall time, objective and truncation flag.
struct MilpMeasurement {
    record: JsonRecord,
    label: &'static str,
    wall_ms: f64,
    objective: f64,
    truncated: bool,
    peak_lu_nnz: usize,
    basis_rows: usize,
}

/// Solves `MAX_THR` once with explicit kernel/factorization options and
/// returns a filled record plus the headline numbers.
fn measure_milp(
    g: &Rrg,
    edges: usize,
    kernel: Kernel,
    warm: bool,
    factor: FactorKind,
) -> MilpMeasurement {
    let mut opts = CoreOptions::fast();
    opts.solver.kernel = kernel;
    opts.solver.warm_start = warm;
    opts.solver.factor = factor;
    let t0 = Instant::now();
    let out = formulation::max_thr(g, g.max_delay(), &opts).expect("MAX_THR solves");
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let label = match (kernel, warm, factor) {
        (Kernel::Revised, true, FactorKind::Sparse) => "revised_warm",
        (Kernel::Revised, true, FactorKind::Dense) => "revised_warm_denselu",
        (Kernel::Revised, false, _) => "revised_cold",
        (Kernel::DenseTableau, ..) => "dense_oracle",
    };
    let record = JsonRecord::new("milp_scaling")
        .str("problem", "max_thr")
        .int("edges", edges as u64)
        .str("kernel", label)
        .str("order", "dfs")
        .num("wall_ms", wall_ms)
        .num("objective", out.objective)
        .int("nodes", out.stats.nodes as u64)
        .int("pivots", out.stats.simplex_iters as u64)
        .int("warm_solves", out.stats.warm_solves as u64)
        .int("cold_solves", out.stats.cold_solves as u64)
        .int("refactors", out.stats.refactors as u64)
        .int("ft_updates", out.stats.ft_updates as u64)
        .int("forced_refactors", out.stats.forced_refactors as u64)
        .int("lu_nnz", out.stats.peak_lu_nnz as u64)
        .int("u_nnz", out.stats.peak_u_nnz as u64)
        .int("basis_rows", out.stats.basis_rows as u64)
        .int("truncated", u64::from(out.stats.truncated));
    MilpMeasurement {
        record,
        label,
        wall_ms,
        objective: out.objective,
        truncated: out.stats.truncated,
        peak_lu_nnz: out.stats.peak_lu_nnz,
        basis_rows: out.stats.basis_rows,
    }
}

/// Solves the LP throughput bound once with an explicit kernel.
fn measure_lp(g: &Rrg, edges: usize, kernel: Kernel) -> (JsonRecord, f64, f64) {
    let mut solver = rr_milp::SolverOptions::default();
    solver.kernel = kernel;
    let t = tgmg_of(g);
    let t0 = Instant::now();
    let (bound, pivots) =
        lp_bound::throughput_upper_bound_counted(&t, &solver).expect("LP bound solves");
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let label = match kernel {
        Kernel::Revised => "revised",
        Kernel::DenseTableau => "dense_oracle",
    };
    let record = JsonRecord::new("milp_scaling")
        .str("problem", "lp_bound")
        .int("edges", edges as u64)
        .str("kernel", label)
        .num("wall_ms", wall_ms)
        .num("objective", bound)
        .int("pivots", pivots as u64);
    (record, wall_ms, bound)
}

/// One node-ordering measurement of `MAX_THR` at a fixed node cap (no
/// wall clock, so the run is deterministic).
fn measure_order(
    g: &Rrg,
    edges: usize,
    order: NodeOrder,
    factor: FactorKind,
    max_nodes: usize,
) -> (JsonRecord, f64, bool) {
    let mut opts = CoreOptions::fast();
    opts.solver.time_limit = None;
    opts.solver.max_nodes = max_nodes;
    opts.solver.node_order = order;
    opts.solver.factor = factor;
    let t0 = Instant::now();
    let out = formulation::max_thr(g, g.max_delay(), &opts).expect("MAX_THR solves");
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let order_label = match order {
        NodeOrder::DfsNearerFirst => "dfs",
        NodeOrder::BestBound => "best_bound",
    };
    let record = JsonRecord::new("milp_scaling")
        .str("problem", "max_thr_ordering")
        .int("edges", edges as u64)
        .str(
            "kernel",
            match factor {
                FactorKind::Sparse => "revised_warm",
                FactorKind::Dense => "revised_warm_denselu",
            },
        )
        .str("order", order_label)
        .int("node_cap", max_nodes as u64)
        .num("wall_ms", wall_ms)
        .num("objective", out.objective)
        .int("nodes", out.stats.nodes as u64)
        .int("pivots", out.stats.simplex_iters as u64)
        .int("incumbents", out.stats.incumbents as u64)
        .int(
            "first_incumbent_node",
            out.stats.first_incumbent_node as u64,
        )
        .int("queue_peak", out.stats.queue_peak as u64)
        .int("truncated", u64::from(out.stats.truncated));
    (record, out.objective, out.stats.truncated)
}

/// The node-ordering agreement check: `MAX_THR` on every bench instance
/// under both orderings and both factorizations at a fixed node cap,
/// recorded per instance (nodes, incumbents, queue peak). Completed runs
/// must agree on the objective; truncated runs record their incumbent
/// quality.
fn ordering_comparison(_c: &mut Criterion) {
    let mut records = Vec::new();
    let mut disagreements: Vec<String> = Vec::new();
    let cap = 1000;
    for &edges in &[20usize, 40] {
        let g = instance(edges);
        for factor in [FactorKind::Sparse, FactorKind::Dense] {
            let (rec, dfs_obj, dfs_trunc) =
                measure_order(&g, edges, NodeOrder::DfsNearerFirst, factor, cap);
            records.push(rec);
            let (rec, bb_obj, bb_trunc) =
                measure_order(&g, edges, NodeOrder::BestBound, factor, cap);
            records.push(rec);
            if !dfs_trunc && !bb_trunc && (dfs_obj - bb_obj).abs() > 1e-7 * dfs_obj.abs().max(1.0) {
                disagreements.push(format!(
                    "max_thr {edges} edges / {factor:?}: completed orderings disagree, \
                     dfs {dfs_obj} vs best_bound {bb_obj}"
                ));
            }
            println!(
                "ordering comparison: max_thr {edges} edges / {factor:?} @ {cap} nodes: \
                 dfs {dfs_obj}{} vs best_bound {bb_obj}{}",
                if dfs_trunc { " (truncated)" } else { "" },
                if bb_trunc { " (truncated)" } else { "" },
            );
        }
    }
    append(&records);
    assert!(
        disagreements.is_empty(),
        "node-ordering regression (records already in BENCH_milp.json):\n{}",
        disagreements.join("\n")
    );
}

/// One update-scheme measurement of `MAX_THR` at a fixed node cap (no
/// wall clock, so the run is deterministic).
struct UpdateMeasurement {
    record: JsonRecord,
    objective: f64,
    truncated: bool,
    wall_ms: f64,
    refactors: usize,
    forced_refactors: usize,
    ft_updates: usize,
    peak_u_nnz: usize,
}

fn measure_update(
    g: &Rrg,
    edges: usize,
    factor: FactorKind,
    update: UpdateKind,
    max_nodes: usize,
) -> UpdateMeasurement {
    let mut opts = CoreOptions::fast();
    opts.solver.time_limit = None;
    opts.solver.max_nodes = max_nodes;
    opts.solver.factor = factor;
    opts.solver.update = update;
    let t0 = Instant::now();
    let out = formulation::max_thr(g, g.max_delay(), &opts).expect("MAX_THR solves");
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let update_label = match update {
        UpdateKind::ForrestTomlin => "forrest_tomlin",
        UpdateKind::ProductForm => "product_form",
    };
    let record = JsonRecord::new("milp_scaling")
        .str("problem", "max_thr_update")
        .int("edges", edges as u64)
        .str(
            "kernel",
            match factor {
                FactorKind::Sparse => "revised_warm",
                FactorKind::Dense => "revised_warm_denselu",
            },
        )
        .str("update", update_label)
        .int("node_cap", max_nodes as u64)
        .num("wall_ms", wall_ms)
        .num("objective", out.objective)
        .int("nodes", out.stats.nodes as u64)
        .int("pivots", out.stats.simplex_iters as u64)
        .int("refactors", out.stats.refactors as u64)
        .int("forced_refactors", out.stats.forced_refactors as u64)
        .int("ft_updates", out.stats.ft_updates as u64)
        .int("lu_nnz", out.stats.peak_lu_nnz as u64)
        .int("u_nnz", out.stats.peak_u_nnz as u64)
        .int("truncated", u64::from(out.stats.truncated));
    UpdateMeasurement {
        record,
        objective: out.objective,
        truncated: out.stats.truncated,
        wall_ms,
        refactors: out.stats.refactors,
        forced_refactors: out.stats.forced_refactors,
        ft_updates: out.stats.ft_updates,
        peak_u_nnz: out.stats.peak_u_nnz,
    }
}

/// The update-scheme A/B: `MAX_THR` on every bench instance under every
/// `UpdateKind` × `FactorKind` combination at a fixed node cap — the
/// Forrest–Tomlin perf contract. Completed runs must agree on the
/// objective (a silently-wrong FT update fails loudly here, with the
/// evidence already in `BENCH_milp.json`), and on the largest instance
/// the Forrest–Tomlin path must perform **strictly fewer** full
/// refactorizations than the product-form path at the identical node
/// budget; both wall times are recorded per instance.
fn update_comparison(_c: &mut Criterion) {
    let mut records = Vec::new();
    let mut disagreements: Vec<String> = Vec::new();
    let cap = 1000;
    let mut largest: Option<(usize, UpdateMeasurement, UpdateMeasurement)> = None;
    for &edges in &[20usize, 40] {
        let g = instance(edges);
        let mut completed: Vec<(String, f64)> = Vec::new();
        let mut sparse_pair: Option<(UpdateMeasurement, UpdateMeasurement)> = None;
        for factor in [FactorKind::Sparse, FactorKind::Dense] {
            let ft = measure_update(&g, edges, factor, UpdateKind::ForrestTomlin, cap);
            let pf = measure_update(&g, edges, factor, UpdateKind::ProductForm, cap);
            println!(
                "update comparison: max_thr {edges} edges / {factor:?} @ {cap} nodes: \
                 forrest_tomlin {:.1} ms obj {}{} ({} refactors, {} forced, {} ft updates, \
                 peak u_nnz {}) vs product_form {:.1} ms obj {}{} ({} refactors)",
                ft.wall_ms,
                ft.objective,
                if ft.truncated { " (truncated)" } else { "" },
                ft.refactors,
                ft.forced_refactors,
                ft.ft_updates,
                ft.peak_u_nnz,
                pf.wall_ms,
                pf.objective,
                if pf.truncated { " (truncated)" } else { "" },
                pf.refactors,
            );
            for (label, m) in [("forrest_tomlin", &ft), ("product_form", &pf)] {
                records.push(m.record.clone());
                if !m.truncated {
                    completed.push((format!("{factor:?}/{label}"), m.objective));
                }
            }
            if factor == FactorKind::Sparse {
                sparse_pair = Some((ft, pf));
            }
        }
        // All completed UpdateKind × FactorKind combinations must agree.
        if let Some((ref_name, ref_obj)) = completed.first().cloned() {
            for (name, obj) in &completed[1..] {
                if (obj - ref_obj).abs() > 1e-7 * ref_obj.abs().max(1.0) {
                    disagreements.push(format!(
                        "max_thr {edges} edges: completed combinations disagree, \
                         {ref_name} {ref_obj} vs {name} {obj}"
                    ));
                }
            }
        }
        // Keep the genuinely largest instance regardless of list order.
        if largest.as_ref().is_none_or(|&(e, _, _)| edges > e) {
            largest = sparse_pair.map(|(ft, pf)| (edges, ft, pf));
        }
    }
    if let Some((edges, ft, pf)) = largest {
        records.push(
            JsonRecord::new("milp_ft_summary")
                .int("largest_edges", edges as u64)
                .int("node_cap", cap as u64)
                .num("ft_wall_ms", ft.wall_ms)
                .num("pf_wall_ms", pf.wall_ms)
                .int("ft_refactors", ft.refactors as u64)
                .int("pf_refactors", pf.refactors as u64)
                .int("ft_forced_refactors", ft.forced_refactors as u64)
                .int("ft_updates", ft.ft_updates as u64)
                .int("ft_peak_u_nnz", ft.peak_u_nnz as u64),
        );
        // The FT perf contract on the largest instance: strictly fewer
        // full refactorizations at the identical node budget.
        if ft.refactors >= pf.refactors {
            disagreements.push(format!(
                "max_thr {edges} edges: forrest_tomlin performed {} refactors, \
                 product_form only {} — the update scheme is not saving refactorizations",
                ft.refactors, pf.refactors
            ));
        }
    }
    append(&records);
    assert!(
        disagreements.is_empty(),
        "update-scheme regression (records already in BENCH_milp.json):\n{}",
        disagreements.join("\n")
    );
}

/// The A/B pass: every instance solved by the production configuration
/// (revised + sparse LU, warm), the dense-LU factorization oracle, the
/// cold restart baseline, and the dense-tableau oracle; both speedups
/// (vs the dense *snapshot* and vs the dense *tableau*) recorded for the
/// largest MILP. Records are written to `BENCH_milp.json` **before** the
/// agreement checks, so a disagreement fails loudly with the evidence
/// already on disk.
fn kernel_comparison(_c: &mut Criterion) {
    let mut records = Vec::new();
    let mut lp_disagreements: Vec<String> = Vec::new();
    for &edges in &[60usize, 240] {
        let g = instance(edges);
        let (rec, _, revised_obj) = measure_lp(&g, edges, Kernel::Revised);
        records.push(rec);
        let (rec, _, oracle_obj) = measure_lp(&g, edges, Kernel::DenseTableau);
        records.push(rec);
        if (revised_obj - oracle_obj).abs() > 1e-7 * revised_obj.abs().max(1.0) {
            lp_disagreements.push(format!(
                "lp_bound {edges} edges: revised {revised_obj} vs dense oracle {oracle_obj}"
            ));
        }
    }
    let mut milp_disagreements: Vec<String> = Vec::new();
    let mut largest: Option<(usize, MilpMeasurement, MilpMeasurement, MilpMeasurement)> = None;
    for &edges in &[20usize, 40] {
        let g = instance(edges);
        let warm = measure_milp(&g, edges, Kernel::Revised, true, FactorKind::Sparse);
        let denselu = measure_milp(&g, edges, Kernel::Revised, true, FactorKind::Dense);
        let cold = measure_milp(&g, edges, Kernel::Revised, false, FactorKind::Sparse);
        let oracle = measure_milp(&g, edges, Kernel::DenseTableau, false, FactorKind::Sparse);
        // Truncated searches may legitimately hold different incumbents
        // (same caps, different pivot paths); completed ones must agree.
        for pair in [&denselu, &cold, &oracle] {
            if !warm.truncated
                && !pair.truncated
                && (warm.objective - pair.objective).abs() > 1e-7 * warm.objective.abs().max(1.0)
            {
                milp_disagreements.push(format!(
                    "max_thr {edges} edges: revised_warm {} vs {} {}",
                    warm.objective, pair.label, pair.objective
                ));
            }
        }
        for m in [&warm, &denselu, &cold, &oracle] {
            records.push(m.record.clone());
        }
        largest = Some((edges, warm, denselu, oracle));
    }
    if let Some((edges, warm, denselu, oracle)) = largest {
        let truncated = warm.truncated || denselu.truncated || oracle.truncated;
        let factor_speedup = denselu.wall_ms / warm.wall_ms.max(1e-9);
        let oracle_speedup = oracle.wall_ms / warm.wall_ms.max(1e-9);
        println!(
            "kernel comparison: largest MAX_THR instance ({edges} edges) \
             sparse-LU {:.1} ms vs dense-LU snapshot {:.1} ms (×{factor_speedup:.2}) \
             vs dense tableau {:.1} ms (×{oracle_speedup:.2}); \
             nnz(L+U) {} vs m² = {}{}",
            warm.wall_ms,
            denselu.wall_ms,
            oracle.wall_ms,
            warm.peak_lu_nnz,
            warm.basis_rows * warm.basis_rows,
            if truncated {
                "  (budget-truncated: same node/time caps, incumbents may differ)"
            } else {
                ""
            }
        );
        records.push(
            JsonRecord::new("milp_scaling_summary")
                .int("largest_edges", edges as u64)
                .num("revised_warm_ms", warm.wall_ms)
                .num("dense_lu_ms", denselu.wall_ms)
                .num("dense_oracle_ms", oracle.wall_ms)
                .num("factor_speedup", factor_speedup)
                .num("speedup", oracle_speedup)
                .int("sparse_lu_nnz", warm.peak_lu_nnz as u64)
                .int("dense_lu_nnz", denselu.peak_lu_nnz as u64)
                .int("basis_rows", warm.basis_rows as u64)
                .num("revised_warm_objective", warm.objective)
                .num("dense_oracle_objective", oracle.objective)
                .int("truncated", u64::from(truncated)),
        );
    }
    append(&records);
    // Loud failure *after* the evidence is logged.
    let disagreements: Vec<String> = lp_disagreements
        .into_iter()
        .chain(milp_disagreements)
        .collect();
    assert!(
        disagreements.is_empty(),
        "kernel/oracle disagreement (records already in BENCH_milp.json):\n{}",
        disagreements.join("\n")
    );
}

/// One fault-ladder measurement of `MIN_CYC(1)`: wall time, objective,
/// truncation flag and the full recovery-counter block, all appended to
/// `BENCH_milp.json` so the ladder's activity is tracked across PRs.
/// (`MIN_CYC` rather than `MAX_THR` because the bench instances complete
/// it within the node cap — completed twins must agree *exactly*,
/// whereas truncated twins may legitimately hold different incumbents.)
struct FaultMeasurement {
    record: JsonRecord,
    wall_ms: f64,
    objective: f64,
    truncated: bool,
    recovery: RecoveryStats,
}

fn measure_faults(g: &Rrg, edges: usize, faults: Option<FaultPlan>, seed: u64) -> FaultMeasurement {
    let mut opts = CoreOptions::fast();
    opts.solver.time_limit = None; // deterministic: node cap only
    opts.solver.max_nodes = 20_000;
    opts.solver.gap_tol = 1e-9;
    let variant = if faults.is_some() { "faulted" } else { "clean" };
    opts.solver.faults = faults;
    let t0 = Instant::now();
    let out = formulation::min_cyc(g, 1.0, &opts).expect("MIN_CYC solves");
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let r = &out.stats.recovery;
    let record = JsonRecord::new("milp_scaling")
        .str("problem", "min_cyc_faults")
        .int("edges", edges as u64)
        .str("variant", variant)
        .int("seed", seed)
        .num("wall_ms", wall_ms)
        .num("objective", out.objective)
        .int("nodes", out.stats.nodes as u64)
        .int("pivots", out.stats.simplex_iters as u64)
        .int("truncated", u64::from(out.stats.truncated))
        .int("faults_injected", r.faults_injected as u64)
        .int("unstable_updates", r.unstable_updates as u64)
        .int("singular_refactors", r.singular_refactors as u64)
        .int("cycling_suspected", r.cycling_suspected as u64)
        .int("residual_drift", r.residual_drift as u64)
        .int("pivot_budget", r.pivot_budget as u64)
        .int("time_budget", r.time_budget as u64)
        .int("ft_retries", r.ft_retries as u64)
        .int("recovery_forced_refactors", r.forced_refactors as u64)
        .int("product_form_switches", r.product_form_switches as u64)
        .int("cold_rebuilds", r.cold_rebuilds as u64)
        .int("bland_restarts", r.bland_restarts as u64)
        .int("dense_oracle_solves", r.dense_oracle_solves as u64);
    FaultMeasurement {
        record,
        wall_ms,
        objective: out.objective,
        truncated: out.stats.truncated,
        recovery: r.clone(),
    }
}

/// The self-healing A/B: `MIN_CYC(1)` on every bench instance, clean vs a
/// fixed-seed fault-injected twin. Records (including every recovery
/// counter) are written to `BENCH_milp.json` **before** the checks, so a
/// disagreement fails loudly with the evidence on disk. The contract:
/// the injected twin proves the same objective and the same completion
/// verdict as the clean run, the plan actually fires (`faults_injected`
/// > 0), and `faults: None` stays inert (zero injections).
fn fault_comparison(_c: &mut Criterion) {
    let seed: u64 = 0xDAC_2009;
    let mut records = Vec::new();
    let mut disagreements: Vec<String> = Vec::new();
    for &edges in &[20usize, 40] {
        let g = instance(edges);
        let clean = measure_faults(&g, edges, None, seed);
        let faulted = measure_faults(&g, edges, Some(FaultPlan::seeded(seed)), seed);
        println!(
            "fault comparison: min_cyc {edges} edges: clean {:.1} ms obj {}{} vs \
             faulted {:.1} ms obj {}{} ({} faults injected, recovery {:?})",
            clean.wall_ms,
            clean.objective,
            if clean.truncated { " (truncated)" } else { "" },
            faulted.wall_ms,
            faulted.objective,
            if faulted.truncated {
                " (truncated)"
            } else {
                ""
            },
            faulted.recovery.faults_injected,
            faulted.recovery,
        );
        records.push(clean.record.clone());
        records.push(faulted.record.clone());
        if clean.recovery.faults_injected != 0 {
            disagreements.push(format!(
                "min_cyc {edges} edges: clean run reports {} injected faults — \
                 `faults: None` is not inert",
                clean.recovery.faults_injected
            ));
        }
        if faulted.recovery.faults_injected == 0 {
            disagreements.push(format!(
                "min_cyc {edges} edges: no fault fired — the seeded plan is miscalibrated"
            ));
        }
        if (clean.objective - faulted.objective).abs() > 1e-7 * clean.objective.abs().max(1.0) {
            disagreements.push(format!(
                "min_cyc {edges} edges: clean {} vs fault-injected {} — the ladder \
                 let a corrupted solve change the optimum",
                clean.objective, faulted.objective
            ));
        }
        if clean.truncated != faulted.truncated {
            disagreements.push(format!(
                "min_cyc {edges} edges: completion verdicts diverge under faults \
                 (clean truncated={}, faulted truncated={})",
                clean.truncated, faulted.truncated
            ));
        }
    }
    append(&records);
    assert!(
        disagreements.is_empty(),
        "fault-injection regression (records already in BENCH_milp.json):\n{}",
        disagreements.join("\n")
    );
}

/// One parallel-search measurement: the fixed 1000-node-cap best-bound
/// `MAX_THR` run at a given worker count. Each configuration is run
/// three times and the fastest wall clock kept (the speedup ratio is
/// the headline number, so per-run noise must not fake or hide a
/// regression); the objective must be identical across repetitions.
struct ParallelMeasurement {
    record: JsonRecord,
    wall_ms: f64,
    objective: f64,
    truncated: bool,
    nodes: usize,
    queue_peak: usize,
}

fn measure_parallel(
    g: &Rrg,
    edges: usize,
    workers: usize,
    disagreements: &mut Vec<String>,
) -> ParallelMeasurement {
    let mut opts = CoreOptions::fast();
    opts.solver.time_limit = None; // deterministic budget: node cap only
    opts.solver.max_nodes = 1000;
    opts.solver.node_order = NodeOrder::BestBound;
    opts.solver.factor = FactorKind::Sparse;
    opts.solver.workers = workers;
    let mut wall_ms = f64::INFINITY;
    let mut out: Option<rr_core::formulation::OptOutcome> = None;
    for _ in 0..3 {
        let t0 = Instant::now();
        let o = formulation::max_thr(g, g.max_delay(), &opts).expect("MAX_THR solves");
        wall_ms = wall_ms.min(t0.elapsed().as_secs_f64() * 1e3);
        if let Some(prev) = &out {
            if (prev.objective - o.objective).abs() > 1e-7 * prev.objective.abs().max(1.0) {
                disagreements.push(format!(
                    "max_thr {edges} edges, {workers} workers: repeated runs disagree \
                     ({} vs {})",
                    prev.objective, o.objective
                ));
            }
        }
        out = Some(o);
    }
    let out = out.unwrap();
    let record = JsonRecord::new("milp_scaling")
        .str("problem", "max_thr_parallel")
        .int("edges", edges as u64)
        .int("workers", workers as u64)
        .int("node_cap", 1000)
        .str("order", "best_bound")
        .num("wall_ms", wall_ms)
        .num("objective", out.objective)
        .int("nodes", out.stats.nodes as u64)
        .int("pivots", out.stats.simplex_iters as u64)
        .int("queue_peak", out.stats.queue_peak as u64)
        .int("truncated", u64::from(out.stats.truncated));
    ParallelMeasurement {
        record,
        wall_ms,
        objective: out.objective,
        truncated: out.stats.truncated,
        nodes: out.stats.nodes,
        queue_peak: out.stats.queue_peak,
    }
}

/// The parallel-search scaling arm: the 40-edge `MAX_THR` bench instance
/// under the fixed 1000-node best-bound cap at 1, 2 and 4 workers.
/// Wall time, node count and queue peak per worker count go into
/// `BENCH_milp.json` together with a summary carrying the speedups and
/// the host's CPU count (wall-clock speedup is only attainable when the
/// host grants at least as many CPUs as workers — on a single-CPU
/// runner the interesting trajectory is the *overhead* of the parallel
/// machinery, which should stay near ×1). The run fails loudly — after
/// the records are on disk — if any worker count reaches a different
/// final objective or completion verdict than the 1-worker run (schedule
/// independence is the determinism contract of the search).
fn parallel_comparison(_c: &mut Criterion) {
    let edges = 40usize;
    let g = instance(edges);
    let mut records = Vec::new();
    let mut disagreements: Vec<String> = Vec::new();
    let runs: Vec<(usize, ParallelMeasurement)> = [1usize, 2, 4]
        .iter()
        .map(|&w| (w, measure_parallel(&g, edges, w, &mut disagreements)))
        .collect();
    let one = &runs[0].1;
    for (workers, m) in &runs {
        println!(
            "parallel comparison: max_thr {edges} edges, {workers} worker(s): \
             {:.1} ms, {} nodes, queue peak {}, objective {}{}",
            m.wall_ms,
            m.nodes,
            m.queue_peak,
            m.objective,
            if m.truncated { " (truncated)" } else { "" }
        );
        records.push(m.record.clone());
        if (m.objective - one.objective).abs() > 1e-7 * one.objective.abs().max(1.0) {
            disagreements.push(format!(
                "max_thr {edges} edges: {workers} workers found {} vs 1 worker {} — \
                 the worker count changed the answer",
                m.objective, one.objective
            ));
        }
        if m.truncated != one.truncated {
            disagreements.push(format!(
                "max_thr {edges} edges: completion verdicts diverge at {workers} workers \
                 (1 worker truncated={}, {workers} workers truncated={})",
                one.truncated, m.truncated
            ));
        }
    }
    let two = &runs[1].1;
    let four = &runs[2].1;
    let speedup_x2 = one.wall_ms / two.wall_ms.max(1e-9);
    let speedup_x4 = one.wall_ms / four.wall_ms.max(1e-9);
    let host_cpus = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    println!(
        "parallel comparison: speedup ×{speedup_x2:.2} at 2 workers, \
         ×{speedup_x4:.2} at 4 workers over 1 worker \
         ({host_cpus} host CPU(s){})",
        if host_cpus < 4 {
            " — speedup bounded by the host, the gate here is agreement + overhead"
        } else {
            ""
        }
    );
    records.push(
        JsonRecord::new("parallel_scaling_summary")
            .int("edges", edges as u64)
            .int("node_cap", 1000)
            .int("host_cpus", host_cpus as u64)
            .num("one_worker_ms", one.wall_ms)
            .num("two_workers_ms", two.wall_ms)
            .num("four_workers_ms", four.wall_ms)
            .num("speedup_x2", speedup_x2)
            .num("speedup_x4", speedup_x4)
            .num("objective", one.objective)
            .int("truncated", u64::from(one.truncated)),
    );
    append(&records);
    assert!(
        disagreements.is_empty(),
        "parallel-search divergence (records already in BENCH_milp.json):\n{}",
        disagreements.join("\n")
    );
}

/// A retiming-lag MILP in the deleted legacy backend's model class: the
/// lags `r_i` are **fully free integers** (split-pair columns in
/// standard form, exactly the paper's retiming variables) with ring
/// difference rows at fractional offsets and knapsack coupling rows
/// breaking total unimodularity, plus one **mirrored** capacity variable
/// (upper bound only, no lower bound). Before PR 10 this instance
/// routed to the rebuild-per-node `LegacyBackend`; now it branches on
/// the warm revised path like every other model.
///
/// `n` must be a multiple of 3: the ring rows integer-tighten to
/// difference caps cycling through {−1, 0, +1}, and any other `n` makes
/// their cyclic sum negative — an instance that is LP-feasible but
/// integer-infeasible, which no branch & bound can *prove* when the
/// lags are free (the infeasibility is invariant under shifting all
/// lags, so the unbounded boxes never exhaust).
fn free_lag_retiming_milp(n: usize, rows: usize) -> Model {
    assert!(n.is_multiple_of(3), "see the doc comment: n % 3 == 0");
    let mut m = Model::new(Sense::Minimize);
    let lags: Vec<_> = (0..n)
        .map(|i| m.add_integer(format!("r{i}"), f64::NEG_INFINITY, f64::INFINITY))
        .collect();
    let cap = m.add_integer("cap", f64::NEG_INFINITY, n as f64 / 2.0 + 0.7);
    let mut obj = LinExpr::new();
    for (i, &v) in lags.iter().enumerate() {
        obj += ((i % 4 + 1) as f64) * v;
    }
    obj += -2.0 * cap;
    m.set_objective(obj);
    for i in 0..n {
        let j = (i + 1) % n;
        m.add_constraint(lags[i] - lags[j], cmp::LE, ((i % 3) as f64) - 0.5);
    }
    for r in 0..rows {
        let mut row = LinExpr::new();
        for (i, &v) in lags.iter().enumerate() {
            row += (((i + r) % 5 + 1) as f64) * v;
        }
        m.add_constraint(row, cmp::GE, 2.5 * n as f64 + r as f64);
    }
    // The mirrored capacity rides under the total lag mass, so its
    // branch-and-bound boxes interact with the free split pairs.
    let mut total = LinExpr::new();
    for &v in &lags {
        total += 1.0 * v;
    }
    m.add_constraint(total - cap, cmp::GE, 0.3);
    m
}

/// One warm-vs-rebuild measurement on a mirrored/free-integer instance.
struct MirroredMeasurement {
    record: JsonRecord,
    wall_ms: f64,
    objective: f64,
    pivots: usize,
    nodes: usize,
    cold_solves: usize,
    truncated: bool,
}

fn measure_mirrored(name: &str, m: &Model, warm: bool) -> MirroredMeasurement {
    let opts = SolverOptions {
        max_nodes: 50_000,
        warm_start: warm,
        ..SolverOptions::default()
    };
    let t0 = Instant::now();
    let (sol, stats) = solve_with_stats(m, &opts).expect("retiming-lag MILP solves");
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let record = JsonRecord::new("milp_scaling")
        .str("problem", "mirrored_free_lags")
        .str("instance", name)
        .str("variant", if warm { "warm" } else { "rebuild_proxy" })
        .num("wall_ms", wall_ms)
        .num("objective", sol.objective)
        .int("nodes", stats.nodes as u64)
        .int("pivots", stats.simplex_iters as u64)
        .int("warm_solves", stats.warm_solves as u64)
        .int("cold_solves", stats.cold_solves as u64)
        .int("truncated", u64::from(stats.truncated));
    MirroredMeasurement {
        record,
        wall_ms,
        objective: sol.objective,
        pivots: stats.simplex_iters,
        nodes: stats.nodes,
        cold_solves: stats.cold_solves,
        truncated: stats.truncated,
    }
}

/// The mirrored/free-integer A/B — the PR 10 backend-unification perf
/// contract: retiming-lag instances whose integers are fully free
/// (split-pair) or mirrored now branch warm, and warm-starting must
/// beat solving every node from scratch. The baseline is the same warm
/// backend with `warm_start: false` — a faithful cost proxy for the
/// deleted `LegacyBackend`, which rebuilt and cold-solved a dense
/// tableau at every node (the proxy is *generous* to the legacy side:
/// it at least keeps the revised kernel). Records land in
/// `BENCH_milp.json` before the assertions, so a regression fails
/// loudly with the evidence on disk. The contract: identical objectives,
/// `cold_solves == 1` on the warm run, and **strictly fewer pivots**
/// than the rebuild proxy on every instance.
fn mirrored_comparison(_c: &mut Criterion) {
    let mut records = Vec::new();
    let mut regressions: Vec<String> = Vec::new();
    let cases: [(&str, Model); 2] = [
        ("lags12", free_lag_retiming_milp(12, 6)),
        ("lags15", free_lag_retiming_milp(15, 7)),
    ];
    for (name, m) in &cases {
        let warm = measure_mirrored(name, m, true);
        let rebuild = measure_mirrored(name, m, false);
        println!(
            "mirrored comparison: {name}: warm {:.1} ms obj {} in {} pivots / {} nodes \
             ({} cold){} vs rebuild proxy {:.1} ms obj {} in {} pivots / {} nodes ({} cold){}",
            warm.wall_ms,
            warm.objective,
            warm.pivots,
            warm.nodes,
            warm.cold_solves,
            if warm.truncated { " (truncated)" } else { "" },
            rebuild.wall_ms,
            rebuild.objective,
            rebuild.pivots,
            rebuild.nodes,
            rebuild.cold_solves,
            if rebuild.truncated {
                " (truncated)"
            } else {
                ""
            },
        );
        records.push(warm.record.clone());
        records.push(rebuild.record.clone());
        if warm.truncated || rebuild.truncated {
            regressions.push(format!(
                "{name}: run truncated at the 50k-node cap — the instance no longer closes"
            ));
            continue;
        }
        if (warm.objective - rebuild.objective).abs() > 1e-7 * warm.objective.abs().max(1.0) {
            regressions.push(format!(
                "{name}: warm {} vs rebuild proxy {} — the box translation changed the optimum",
                warm.objective, rebuild.objective
            ));
        }
        if warm.cold_solves != 1 {
            regressions.push(format!(
                "{name}: warm run took {} cold solves — mirrored/free boxes are not \
                 warm-starting",
                warm.cold_solves
            ));
        }
        if warm.pivots >= rebuild.pivots {
            regressions.push(format!(
                "{name}: warm path took {} pivots, rebuild proxy {} — warm-starting \
                 mirrored/free integers is not paying for itself",
                warm.pivots, rebuild.pivots
            ));
        }
    }
    append(&records);
    assert!(
        regressions.is_empty(),
        "mirrored/free-integer regression (records already in BENCH_milp.json):\n{}",
        regressions.join("\n")
    );
}

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_lp_scaling, bench_milp_scaling, kernel_comparison, ordering_comparison,
        update_comparison, fault_comparison, parallel_comparison, mirrored_comparison
}
criterion_main!(benches);
