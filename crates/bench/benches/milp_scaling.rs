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
//! warm-started branch & bound) and under the `Kernel::DenseTableau`
//! oracle request (dense LU, product-form updates, cold nodes, incumbent
//! re-checked on the tableau), in the same run. Wall time, simplex
//! pivots, node counts, basis `nnz(L+U)` and refactorization counts are
//! appended to `BENCH_milp.json` (see `rr_bench::bench_log`) so the
//! speedup trajectory is tracked across PRs.
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
use rr_milp::{FaultPlan, Kernel, RecoveryStats};
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

/// Solves `MAX_THR` once under an explicit kernel request and returns a
/// filled record plus the headline numbers.
fn measure_milp(g: &Rrg, edges: usize, kernel: Kernel) -> MilpMeasurement {
    let mut opts = CoreOptions::fast();
    opts.solver.kernel = kernel;
    let t0 = Instant::now();
    let out = formulation::max_thr(g, g.max_delay(), &opts).expect("MAX_THR solves");
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    let label = match kernel {
        Kernel::Revised => "revised_warm",
        Kernel::DenseTableau => "dense_oracle",
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

/// The A/B pass: every instance solved by the production configuration
/// (revised + sparse LU, warm) and by the dense-tableau oracle request;
/// the speedup over the oracle is recorded for the largest MILP.
/// Records are written to `BENCH_milp.json` **before** the agreement
/// checks, so a disagreement fails loudly with the evidence already on
/// disk.
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
    let mut largest: Option<(usize, MilpMeasurement, MilpMeasurement)> = None;
    for &edges in &[20usize, 40] {
        let g = instance(edges);
        let warm = measure_milp(&g, edges, Kernel::Revised);
        let oracle = measure_milp(&g, edges, Kernel::DenseTableau);
        // Truncated searches may legitimately hold different incumbents
        // (same caps, different pivot paths); completed ones must agree.
        if !warm.truncated
            && !oracle.truncated
            && (warm.objective - oracle.objective).abs() > 1e-7 * warm.objective.abs().max(1.0)
        {
            milp_disagreements.push(format!(
                "max_thr {edges} edges: revised_warm {} vs {} {}",
                warm.objective, oracle.label, oracle.objective
            ));
        }
        records.push(warm.record.clone());
        records.push(oracle.record.clone());
        largest = Some((edges, warm, oracle));
    }
    if let Some((edges, warm, oracle)) = largest {
        let truncated = warm.truncated || oracle.truncated;
        let oracle_speedup = oracle.wall_ms / warm.wall_ms.max(1e-9);
        println!(
            "kernel comparison: largest MAX_THR instance ({edges} edges) \
             sparse-LU {:.1} ms vs dense tableau {:.1} ms (×{oracle_speedup:.2}); \
             nnz(L+U) {} vs m² = {}{}",
            warm.wall_ms,
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
                .num("dense_oracle_ms", oracle.wall_ms)
                .num("speedup", oracle_speedup)
                .int("sparse_lu_nnz", warm.peak_lu_nnz as u64)
                .int("dense_lu_nnz", oracle.peak_lu_nnz as u64)
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

/// One parallel-search measurement: the fixed 1000-node-cap `MAX_THR`
/// run at a given worker count. Each configuration is run
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
        .str("order", "dfs")
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
/// under the fixed 1000-node cap at 1, 2 and 4 workers.
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

criterion_group! {
    name = benches;
    config = Criterion::default();
    targets = bench_lp_scaling, bench_milp_scaling, kernel_comparison, fault_comparison,
        parallel_comparison
}
criterion_main!(benches);
