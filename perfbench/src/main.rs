//! The repo benchmark: three single-threaded workloads, each loading a
//! different layer (see `README.md` for why each exists).
//!
//! ```text
//! cargo run --release --offline --manifest-path perfbench/Cargo.toml -- \
//!     --workload sweep20 --seed 2009 --seconds 35 --trace 0
//! ```
//!
//! `--seed` seeds the simulation streams and the op order. The circuits
//! come from `--instance-seed` (default 2009, the Table-2 instances), so
//! every seed measures the same MILPs. An untraced run (`--trace 0`)
//! times passes over the ops for about `--seconds` and prints the
//! end-to-end metrics. A traced run (`--trace 1`) makes one untraced pass
//! and one pass through the stage driver, ties the two out, and prints
//! the per-layer metrics. The last stdout line is one JSON object:
//! `{"correct", "attempted", "failed", "metrics"}`.

mod bench;
mod eval150;
mod maxthr150;
mod stages;
mod sweep20;
mod trace;

use std::process::{Command, ExitCode};
use std::time::Instant;

use rr_bench::HarnessArgs;

use crate::bench::{median, percentile, ratio, tail_percentile, Pass, Workload};
use crate::trace::Trace;

/// Setup runs a few times before the passes, then in short batches at
/// least `SETUP_SPACING_S` apart between ops. Its median (`setup_s`) thus
/// samples the whole run, not one moment of a shared host: a 5 ms window
/// reads up to 2× slow when a neighbour is busy.
const SETUP_FIRST_REPS: usize = 5;
const SETUP_SPACING_S: f64 = 1.0;
const SETUP_BATCH_S: f64 = 0.005;

/// Allowed mismatch between the traced wall and the sum of self times.
const SELF_SUM_TOL: f64 = 0.05;

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    instance_seed: u64,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 2009,
        seconds: 35.0,
        trace: false,
        instance_seed: 2009,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("missing value for {flag}"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => args.workload = value.clone(),
            "--seed" => args.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => args.seconds = value.parse().map_err(|_| bad())?,
            "--trace" => args.trace = value.parse::<u8>().map_err(|_| bad())? != 0,
            "--instance-seed" => args.instance_seed = value.parse().map_err(|_| bad())?,
            _ => return Err(format!("unknown argument {flag}")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!(
                "error: {e}\nusage: perfbench --workload sweep20|eval150|maxthr150 \
                 [--seed N] [--seconds S] [--trace 0|1] [--instance-seed N]"
            );
            return ExitCode::from(2);
        }
    };
    // The repo's Table-2 harness options: 120 s per MILP, 30k-cycle
    // simulations, `workers = 1`.
    let options = |max_edges: usize, max_nodes: Option<usize>| {
        let mut opts = HarnessArgs {
            max_edges: Some(max_edges),
            max_nodes,
            ..HarnessArgs::default()
        }
        .core_options();
        opts.sim.seed = args.seed;
        opts
    };
    let (seed, instance_seed) = (args.seed, args.instance_seed);
    match args.workload.as_str() {
        "sweep20" => run(
            &sweep20::Sweep20 {
                seed,
                instance_seed,
                opts: options(20, Some(20_000)),
            },
            &args,
        ),
        "eval150" => run(
            &eval150::Eval150 {
                seed,
                instance_seed,
                opts: options(150, None),
            },
            &args,
        ),
        "maxthr150" => run(
            &maxthr150::MaxThr150 {
                seed,
                instance_seed,
                opts: options(150, Some(500)),
            },
            &args,
        ),
        other => {
            eprintln!("error: unknown workload {other:?} (sweep20, eval150, maxthr150)");
            ExitCode::from(2)
        }
    }
}

/// Setup repetitions spread over the run.
struct SetupSampler {
    times: Vec<f64>,
    /// Wall time spent sampling, to take out of the pass walls.
    spent: f64,
    last: Instant,
}

impl SetupSampler {
    fn rep<W: Workload>(&mut self, w: &W) -> W::Inputs {
        let t0 = Instant::now();
        let inputs = w.setup(&mut Trace::off());
        self.times.push(t0.elapsed().as_secs_f64());
        inputs
    }

    /// Samples one batch when the last is `SETUP_SPACING_S` old.
    fn between_ops<W: Workload>(&mut self, w: &W) {
        if self.last.elapsed().as_secs_f64() < SETUP_SPACING_S {
            return;
        }
        let batch = Instant::now();
        loop {
            self.rep(w);
            if batch.elapsed().as_secs_f64() >= SETUP_BATCH_S {
                break;
            }
        }
        self.spent += batch.elapsed().as_secs_f64();
        self.last = Instant::now();
    }
}

/// Runs one workload and prints its report; the last line is the result.
fn run<W: Workload>(w: &W, args: &Args) -> ExitCode {
    println!("provenance {}", provenance(w, args));

    let mut setup = SetupSampler {
        times: Vec::new(),
        spent: 0.0,
        last: Instant::now(),
    };
    let inputs = setup.rep(w);
    for _ in 1..SETUP_FIRST_REPS {
        setup.rep(w);
    }

    // Untraced passes for about `--seconds` (at least one); a traced run
    // makes one, as the reference the traced pass must reproduce.
    let mut passes: Vec<(f64, Pass)> = Vec::new();
    let start = Instant::now();
    loop {
        let (t0, spent) = (Instant::now(), setup.spent);
        let pass = w.pass(&inputs, &mut Trace::off(), &mut || setup.between_ops(w));
        let wall = t0.elapsed().as_secs_f64() - (setup.spent - spent);
        passes.push((wall, pass));
        if args.trace || start.elapsed().as_secs_f64() + wall > args.seconds {
            break;
        }
    }
    let setup_s = setup.times;

    let mut violations: Vec<String> = Vec::new();
    let reference = &passes[0].1;
    for (k, (_, p)) in passes.iter().enumerate() {
        violations.extend(p.violations.iter().cloned());
        if k > 0 && p.tie != reference.tie {
            violations.push(format!("untraced pass {k} differs from pass 0"));
        }
    }
    let attempted: usize = passes.iter().map(|(_, p)| p.op_ms.len()).sum();
    let failed: usize = passes.iter().map(|(_, p)| p.failed).sum();
    let walls: Vec<f64> = passes.iter().map(|(w, _)| *w).collect();
    let op_ms: Vec<f64> = passes.iter().flat_map(|(_, p)| p.op_ms.clone()).collect();
    let ops = reference.op_ms.len() as f64;

    println!(
        "{}: {} untraced pass(es) of {walls:?} s, {attempted} ops, {failed} failed",
        args.workload,
        passes.len()
    );
    if !reference.status.is_empty() {
        println!("status {}", reference.status.join(" "));
    }
    let mut metrics = vec![
        ("setup_s", median(&setup_s), "s"),
        ("wall_s", median(&walls), "s"),
        ("peak_rss_mb", peak_rss_mb(), "MB"),
        ("proven_frac", ratio(reference.proven as f64, ops), "ratio"),
    ];
    println!("setup repeated {} times", setup_s.len());
    for (name, value, unit) in &metrics {
        println!("metric {name} = {value} {unit}");
    }
    // Report-only: a ~1 s op can sit wholly inside a slow spell of the
    // shared host, so per-op percentiles spread too widely to gate on.
    println!("metric op_p50_ms = {} ms", median(&op_ms));
    if let Some(p) = tail_percentile(op_ms.len()) {
        println!(
            "metric op_tail_ms = {} ms (p{p} of {} ops)",
            percentile(&op_ms, p),
            op_ms.len()
        );
    }
    println!(
        "metric failed_frac = {} ratio",
        ratio(failed as f64, attempted as f64)
    );
    for (name, value, unit) in &reference.quality {
        println!("metric {name} = {value} {unit}");
    }

    let mut totals = (attempted, failed);
    if args.trace {
        let mut setup_tr = Trace::on();
        w.setup(&mut setup_tr);
        let mut tr = Trace::on();
        let t0 = Instant::now();
        let traced = w.pass(&inputs, &mut tr, &mut || {});
        let wall = t0.elapsed().as_secs_f64();
        totals = (attempted + traced.op_ms.len(), failed + traced.failed);
        violations.extend(traced.violations.iter().cloned());
        if traced.tie != reference.tie {
            violations.push(format!(
                "traced pass drifted from the one-shot entry points: \
                 nodes {} vs {}, pivots {} vs {}, configurations equal: {}, values equal: {}",
                traced.tie.nodes,
                reference.tie.nodes,
                traced.tie.pivots,
                reference.tie.pivots,
                traced.tie.configs == reference.tie.configs,
                traced.tie.values == reference.tie.values,
            ));
        }
        let self_sum = tr.self_sum();
        if (self_sum - wall).abs() > SELF_SUM_TOL * wall {
            violations.push(format!(
                "self times sum to {self_sum} s, traced wall is {wall} s"
            ));
        }
        println!(
            "tie-out: nodes {} pivots {} configurations {}; self times {self_sum} s of {wall} s traced wall",
            traced.tie.nodes,
            traced.tie.pivots,
            traced.tie.configs.len()
        );
        println!(
            "tracing overhead {} s (traced {wall} s, untraced {} s)",
            wall - walls[0],
            walls[0]
        );
        for (name, layer) in &tr.layers {
            println!(
                "span {name}: {} calls, total {} s, self {} s",
                layer.calls.len(),
                layer.total_s,
                layer.self_s
            );
        }
        metrics = per_layer(&tr, &setup_tr, wall, walls[0]);
    }

    for v in &violations {
        eprintln!("CHECK FAILED: {v}");
    }
    let correct = violations.is_empty();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        totals.0,
        totals.1,
        metrics
            .iter()
            .map(|(name, value, unit)| format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                if value.is_finite() { *value } else { 0.0 }
            ))
            .collect::<Vec<_>>()
            .join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The per-layer metrics of a traced pass (`tr`) and a traced setup.
fn per_layer(
    tr: &Trace,
    setup: &Trace,
    traced_wall: f64,
    untraced_wall: f64,
) -> Vec<(&'static str, f64, &'static str)> {
    let c = |name: &str| tr.counter(name);
    let calls = |name: &str| tr.calls(name) as f64;
    let milp_s = tr.total("core.max_thr") + tr.total("core.min_cyc");
    let solve_ms: Vec<f64> = ["core.max_thr", "core.min_cyc"]
        .iter()
        .filter_map(|n| tr.layers.get(n))
        .flat_map(|l| l.calls.iter().map(|s| s * 1e3))
        .collect();
    let (nodes, pivots, solves) = (c("milp.nodes"), c("milp.pivots"), c("milp.solves"));
    vec![
        ("core.min_cyc.s", tr.total("core.min_cyc"), "s"),
        ("core.min_cyc.calls", calls("core.min_cyc"), "count"),
        ("core.max_thr.s", tr.total("core.max_thr"), "s"),
        ("core.max_thr.calls", calls("core.max_thr"), "count"),
        ("core.evaluate.s", tr.total("core.evaluate"), "s"),
        ("core.sweep.steps", c("core.sweep.steps"), "count"),
        (
            "core.sweep.distinct_frac",
            ratio(c("core.sweep.distinct"), calls("core.max_thr")),
            "ratio",
        ),
        (
            "core.self.s",
            tr.self_time("core.sweep") + tr.self_time("core.evaluate"),
            "s",
        ),
        ("milp.nodes", nodes, "count"),
        ("milp.proven_frac", ratio(c("milp.proven"), solves), "ratio"),
        ("milp.strong_branches", c("milp.strong_branches"), "count"),
        ("milp.cuts_activated", c("milp.cuts_activated"), "count"),
        ("milp.cuts_added", c("milp.cuts_added"), "count"),
        ("milp.solve_p50_ms", median(&solve_ms), "ms"),
        ("milp.solve_p95_ms", percentile(&solve_ms, 95.0), "ms"),
        ("milp.pivots", pivots, "count"),
        ("milp.pivots_per_node", ratio(pivots, nodes), "ratio"),
        ("milp.us_per_pivot", ratio(milp_s * 1e6, pivots), "us"),
        ("milp.us_per_node", ratio(milp_s * 1e6, nodes), "us"),
        ("milp.dual_pivots", c("milp.dual_pivots"), "count"),
        ("milp.primal_pivots", c("milp.primal_pivots"), "count"),
        ("milp.bound_flips", c("milp.bound_flips"), "count"),
        ("milp.weight_resets", c("milp.weight_resets"), "count"),
        ("milp.refactors", c("milp.refactors"), "count"),
        ("milp.ft_updates", c("milp.ft_updates"), "count"),
        ("milp.forced_refactors", c("milp.forced_refactors"), "count"),
        ("milp.peak_lu_nnz", c("milp.peak_lu_nnz"), "count"),
        (
            "milp.basis_rows_mean",
            ratio(c("milp.basis_rows_sum"), solves),
            "count",
        ),
        (
            "milp.warm_frac",
            ratio(
                c("milp.warm_solves"),
                c("milp.warm_solves") + c("milp.cold_solves"),
            ),
            "ratio",
        ),
        ("milp.recovery_events", c("milp.recovery_events"), "count"),
        ("tgmg.sim.s", tr.total("tgmg.sim"), "s"),
        ("tgmg.sim.calls", calls("tgmg.sim"), "count"),
        (
            "tgmg.sim.mcycles_per_s",
            ratio(c("tgmg.sim.cycles") / 1e6, tr.total("tgmg.sim")),
            "Mcycles/s",
        ),
        ("tgmg.lp_bound.s", tr.total("tgmg.lp_bound"), "s"),
        ("tgmg.lp_bound.calls", calls("tgmg.lp_bound"), "count"),
        ("tgmg.skeleton.s", tr.total("tgmg.skeleton"), "s"),
        ("rrg.cycle_time.s", tr.total("rrg.cycle_time"), "s"),
        ("markov.exact.s", tr.total("markov.exact"), "s"),
        ("markov.exact.calls", calls("markov.exact"), "count"),
        ("markov.exact.states", c("markov.exact.states"), "count"),
        (
            "retime.min_period.s",
            tr.total("retime.min_period") + setup.total("retime.min_period"),
            "s",
        ),
        ("rrg.generate.s", setup.total("rrg.generate"), "s"),
        ("bench.check.s", tr.total("bench.check"), "s"),
        ("trace.wall_s", traced_wall, "s"),
        ("trace.overhead_s", traced_wall - untraced_wall, "s"),
        (
            "trace.self_sum_frac",
            ratio(tr.self_sum(), traced_wall),
            "ratio",
        ),
    ]
}

/// The provenance block: code, options, host and workload parameters.
fn provenance<W: Workload>(w: &W, args: &Args) -> String {
    let (rev, dirty) = git_state();
    let mut resolved = w.options().clone();
    resolved.solver = resolved.solver.resolve().0;
    let host_cpus = std::thread::available_parallelism().map_or(0, |n| n.get());
    let mut fields = vec![
        ("workload", format!("\"{}\"", args.workload)),
        ("git_rev", format!("\"{rev}\"")),
        ("git_dirty", dirty),
        (
            "options_hash",
            format!("\"{:016x}\"", fnv1a(format!("{resolved:?}").as_bytes())),
        ),
        ("host_cpus", host_cpus.to_string()),
        ("concurrency", "1".to_string()),
        ("workers", resolved.solver.workers.to_string()),
        ("seed", args.seed.to_string()),
        ("instance_seed", args.instance_seed.to_string()),
        ("seconds", args.seconds.to_string()),
        ("trace", args.trace.to_string()),
    ];
    fields.extend(w.params().into_iter().map(|(k, v)| (k, v.to_string())));
    let body: Vec<String> = fields
        .iter()
        .map(|(k, v)| format!("\"{k}\": {v}"))
        .collect();
    format!("{{{}}}", body.join(", "))
}

/// `(rev, dirty)` of the git checkout in the working directory, or
/// `("unknown", "null")` outside one.
fn git_state() -> (String, String) {
    let unknown = ("unknown".to_string(), "null".to_string());
    if !std::path::Path::new(".git").exists() {
        return unknown;
    }
    let git = |args: &[&str]| {
        Command::new("git")
            .args(args)
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_string())
    };
    match (
        git(&["rev-parse", "HEAD"]),
        git(&["status", "--porcelain", "--untracked-files=no"]),
    ) {
        (Some(rev), Some(status)) => (rev, (!status.is_empty()).to_string()),
        _ => unknown,
    }
}

fn fnv1a(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Peak resident set size of this process image, in MB. `VmHWM` rather
/// than `getrusage`: the latter keeps the peak of the process that
/// exec'd this one (`cargo run`).
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
            line.split_whitespace().nth(1)?.parse::<f64>().ok()
        })
        .map_or(0.0, |kib| kib / 1024.0)
}
