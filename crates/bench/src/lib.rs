//! Shared harness utilities for the table/figure reproduction binaries.
//!
//! The binaries in `src/bin` regenerate the paper's artefacts:
//!
//! | binary    | artefact |
//! |-----------|----------|
//! | `figures` | Figures 1–2 and the §1.4 numbers (Markov, simulators, LP bound, optimizer rediscovery) |
//! | `table1`  | Table 1 — all non-dominated RCs of the s526 profile |
//! | `table2`  | Table 2 — the 18 ISCAS89 profiles with ξ*, ξ_nee, ξ_lp, ξ_sim, I% |
//!
//! The binaries produce the *numbers*. The *performance* of the
//! reproduction is measured by the `perfbench` package at the repository
//! root; the one bench in `benches/` holds the revised kernel to its
//! speedup over the dense oracle.

use std::time::Duration;

use rr_core::CoreOptions;
use rr_milp::SolverOptions;
use rr_rrg::generate::GeneratorParams;
use rr_rrg::iscas::IscasProfile;
use rr_rrg::Rrg;
use rr_tgmg::sim::SimParams;

/// The `milp_scaling` bench instance family (paper-default generator,
/// seed 42): the **single source of truth** for every consumer that
/// claims to measure "the N-edge bench instance" — the `milp_scaling`
/// kernel comparison, and the `search_gate` golden table and its
/// production-vs-oracle regressions, all pin trajectories of exactly
/// this graph, so the definition must not fork.
pub fn milp_bench_instance(edges: usize) -> Rrg {
    let nodes = edges / 2;
    let early = (nodes / 8).max(1);
    GeneratorParams::paper_defaults(nodes - early, early, edges).generate(42)
}

/// Command-line options shared by the harness binaries. Every MILP
/// solves on one thread; `table2` uses the cores by running circuits in
/// parallel ([`parallel_map`]).
#[derive(Debug, Clone)]
pub struct HarnessArgs {
    /// Base RNG seed for graph generation (`--seed N`).
    pub seed: u64,
    /// Edge cap for profile scaling (`--max-edges N`); `--full-size`
    /// disables scaling entirely. The default scales down the nine
    /// profiles above 150 edges to keep their MILPs tractable for the
    /// from-scratch solver, which stands in for CPLEX.
    pub max_edges: Option<usize>,
    /// Per-MILP time limit in seconds (`--time-limit N`). The paper used
    /// 20-minute CPLEX timeouts.
    pub time_limit_secs: u64,
    /// Simulation horizon in cycles (`--horizon N`).
    pub horizon: u64,
    /// Restrict to named circuits (`--only s526,s27`).
    pub only: Vec<String>,
    /// Print per-configuration detail (`--verbose`).
    pub verbose: bool,
    /// Per-MILP node budget (`--max-nodes N`), the deterministic
    /// alternative to the wall clock that the CI sweep gate uses.
    pub max_nodes: Option<usize>,
    /// Circuits that must complete — every MILP of their sweep proven
    /// optimal or within the configured gap — for the run to exit 0
    /// (`--require-proven s27,s526`); `table2` enforces it.
    pub require_proven: Vec<String>,
}

impl Default for HarnessArgs {
    fn default() -> Self {
        HarnessArgs {
            seed: 2009, // DAC 2009
            max_edges: Some(150),
            time_limit_secs: 120,
            horizon: 30_000,
            only: Vec::new(),
            verbose: false,
            max_nodes: None,
            require_proven: Vec::new(),
        }
    }
}

impl HarnessArgs {
    /// Parses `std::env::args()`-style arguments (program name already
    /// stripped).
    ///
    /// # Panics
    ///
    /// Panics on unknown flags or malformed values.
    pub fn parse(args: impl Iterator<Item = String>) -> HarnessArgs {
        let mut out = HarnessArgs::default();
        let mut it = args.peekable();
        while let Some(a) = it.next() {
            let mut take = |name: &str| -> String {
                it.next()
                    .unwrap_or_else(|| panic!("missing value for {name}"))
            };
            match a.as_str() {
                "--seed" => out.seed = take("--seed").parse().expect("seed must be an integer"),
                "--max-edges" => {
                    out.max_edges = Some(
                        take("--max-edges")
                            .parse()
                            .expect("max-edges must be an integer"),
                    )
                }
                "--full-size" => out.max_edges = None,
                "--time-limit" => {
                    out.time_limit_secs = take("--time-limit")
                        .parse()
                        .expect("time-limit must be seconds")
                }
                "--horizon" => {
                    out.horizon = take("--horizon")
                        .parse()
                        .expect("horizon must be an integer")
                }
                "--only" => out.only = take("--only").split(',').map(str::to_string).collect(),
                "--verbose" => out.verbose = true,
                "--max-nodes" => {
                    out.max_nodes = Some(
                        take("--max-nodes")
                            .parse()
                            .expect("max-nodes must be an integer"),
                    )
                }
                "--require-proven" => {
                    out.require_proven = take("--require-proven")
                        .split(',')
                        .map(str::to_string)
                        .collect()
                }
                "--help" | "-h" => {
                    eprintln!(
                        "options: --seed N --max-edges N --full-size --time-limit SECS \
                         --horizon CYCLES --only s526,s27 --max-nodes N \
                         --require-proven s27,s526 --verbose"
                    );
                    std::process::exit(0);
                }
                other => panic!("unknown argument {other} (try --help)"),
            }
        }
        out
    }

    /// Core optimizer options implied by the arguments.
    pub fn core_options(&self) -> CoreOptions {
        CoreOptions {
            solver: SolverOptions {
                time_limit: Some(Duration::from_secs(self.time_limit_secs)),
                max_nodes: self.max_nodes.unwrap_or(SolverOptions::default().max_nodes),
                ..Default::default()
            },
            sim: SimParams {
                horizon: self.horizon,
                warmup: self.horizon / 10,
                ..Default::default()
            },
            ..Default::default()
        }
    }

    /// The profile as actually run (scaled unless `--full-size`).
    pub fn effective_profile(&self, p: &IscasProfile) -> IscasProfile {
        match self.max_edges {
            Some(cap) => p.scaled(cap),
            None => *p,
        }
    }

    /// Whether a circuit is selected by `--only`.
    pub fn selected(&self, name: &str) -> bool {
        self.only.is_empty() || self.only.iter().any(|n| n == name)
    }

    /// The `--only` names that match nothing in `known`. A non-empty
    /// result means the sweep would silently run on an empty selection;
    /// binaries must fail loudly instead.
    pub fn unknown_only(&self, known: &[&str]) -> Vec<String> {
        unknown_names(&self.only, known)
    }

    /// The `--require-proven` names that match nothing in `known` — a
    /// typo there would otherwise read as a lost proof.
    pub fn unknown_required(&self, known: &[&str]) -> Vec<String> {
        unknown_names(&self.require_proven, known)
    }

    /// The `--require-proven` names that `--only` deselects. The sweep
    /// never runs them, so they would otherwise read as lost proofs.
    pub fn deselected_required(&self) -> Vec<String> {
        self.require_proven
            .iter()
            .filter(|n| !self.selected(n))
            .cloned()
            .collect()
    }
}

fn unknown_names(names: &[String], known: &[&str]) -> Vec<String> {
    names
        .iter()
        .filter(|n| !known.contains(&n.as_str()))
        .cloned()
        .collect()
}

/// Runs items in parallel with up to `available_parallelism` workers,
/// preserving input order in the output.
pub fn parallel_map<T, R, F>(items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let workers = std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1);
    parallel_map_bounded(workers, items, f)
}

/// The shared bounded-parallelism fan-out: runs items on up to `workers`
/// scoped threads pulling from one work queue, preserving input order in
/// the output. The `table2` circuit fan-out (through [`parallel_map`])
/// and the `search_gate` agreement check go through here — the one
/// place that owns the `std::thread::scope` + work-queue idiom.
pub fn parallel_map_bounded<T, R, F>(workers: usize, items: Vec<T>, f: F) -> Vec<R>
where
    T: Send,
    R: Send,
    F: Fn(T) -> R + Sync,
{
    let n = items.len();
    let mut results: Vec<Option<R>> = (0..n).map(|_| None).collect();
    let work: std::sync::Mutex<Vec<(usize, T)>> =
        std::sync::Mutex::new(items.into_iter().enumerate().rev().collect());
    let results_mx = std::sync::Mutex::new(&mut results);
    std::thread::scope(|s| {
        for _ in 0..workers.max(1).min(n.max(1)) {
            s.spawn(|| loop {
                let item = work.lock().unwrap().pop();
                let Some((i, item)) = item else {
                    return;
                };
                let r = f(item);
                results_mx.lock().unwrap()[i] = Some(r);
            });
        }
    });
    results
        .into_iter()
        .map(|r| r.expect("worker finished every item"))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(list: &[&str]) -> HarnessArgs {
        HarnessArgs::parse(list.iter().map(|s| s.to_string()))
    }

    #[test]
    fn defaults_and_flags() {
        let a = args(&[]);
        assert_eq!(a.seed, 2009);
        assert_eq!(a.max_edges, Some(150));
        let b = args(&[
            "--seed",
            "7",
            "--full-size",
            "--only",
            "s27,s526",
            "--verbose",
        ]);
        assert_eq!(b.seed, 7);
        assert_eq!(b.max_edges, None);
        assert!(b.selected("s27") && b.selected("s526") && !b.selected("s208"));
        assert!(b.verbose);
    }

    #[test]
    fn scaling_respects_full_size() {
        let p = IscasProfile::by_name("s1488").unwrap();
        let capped = args(&[]).effective_profile(&p);
        assert!(capped.edges <= 150);
        let full = args(&["--full-size"]).effective_profile(&p);
        assert_eq!(full.edges, 572);
    }

    #[test]
    fn parallel_map_preserves_order() {
        let out = parallel_map((0..32).collect::<Vec<_>>(), |x| x * 2);
        assert_eq!(out, (0..32).map(|x| x * 2).collect::<Vec<_>>());
    }

    #[test]
    fn parallel_map_bounded_handles_edge_worker_counts() {
        for workers in [0, 1, 3, 64] {
            let out = parallel_map_bounded(workers, (0..17).collect::<Vec<_>>(), |x| x + 1);
            assert_eq!(out, (0..17).map(|x| x + 1).collect::<Vec<_>>());
        }
        assert!(parallel_map_bounded(4, Vec::<i32>::new(), |x| x).is_empty());
    }

    #[test]
    #[should_panic(expected = "unknown argument")]
    fn unknown_flag_panics() {
        args(&["--bogus"]);
    }

    #[test]
    fn node_budget_flags_reach_solver_options() {
        let a = args(&["--max-nodes", "5000", "--require-proven", "s27,s526"]);
        assert_eq!(a.max_nodes, Some(5000));
        assert_eq!(a.require_proven, vec!["s27", "s526"]);
        assert_eq!(a.core_options().solver.max_nodes, 5000);
        // Unset keeps the solver default rather than an accidental zero.
        let d = args(&[]);
        assert_eq!(
            d.core_options().solver.max_nodes,
            rr_milp::SolverOptions::default().max_nodes
        );
    }

    #[test]
    fn unknown_only_names_are_reported() {
        let a = args(&["--only", "s27,s9999,sXYZ"]);
        assert_eq!(a.unknown_only(&["s27", "s526"]), vec!["s9999", "sXYZ"]);
        assert!(args(&["--only", "s27"]).unknown_only(&["s27"]).is_empty());
        assert!(args(&[]).unknown_only(&["s27"]).is_empty());
        let r = args(&["--require-proven", "s27,s9999"]);
        assert_eq!(r.unknown_required(&["s27"]), vec!["s9999"]);
        // A known name that `--only` deselects is reported too: the
        // sweep would never run it.
        let d = args(&["--only", "s27", "--require-proven", "s27,s526"]);
        assert!(d.unknown_required(&["s27", "s526"]).is_empty());
        assert_eq!(d.deselected_required(), vec!["s526"]);
        let all = args(&["--require-proven", "s27,s526"]);
        assert!(all.deselected_required().is_empty());
    }
}
