//! Regenerates Table 2: the 18 ISCAS89-profile benchmarks with the
//! columns ξ* (before optimization), ξ_nee (best late-evaluation = min-
//! delay retiming), ξ_lp_min, ξ_sim_min and the improvement I%, plus the
//! paper's three observations.
//!
//! ```text
//! cargo run --release -p rr-bench --bin table2
//! cargo run --release -p rr-bench --bin table2 -- --full-size --time-limit 1200
//! cargo run --release -p rr-bench --bin table2 -- --only s27,s526 --verbose
//! ```
//!
//! By default profiles larger than 150 edges are scaled down, because
//! our from-scratch MILP solver stands in for CPLEX. Circuits run in
//! parallel across cores, so the per-circuit wall times printed before
//! the table are contended time.

use rr_bench::{parallel_map, HarnessArgs};
use rr_core::report::{evaluate_benchmark, Table2};
use rr_rrg::iscas::TABLE2;

fn main() {
    let args = HarnessArgs::parse(std::env::args().skip(1));
    let opts = args.core_options();

    // An unknown `--only` name used to produce a silently empty sweep
    // (exit 0, no rows), and an unknown or deselected `--require-proven`
    // name would read as a lost proof; fail loudly before any circuit
    // runs instead.
    let known: Vec<&str> = TABLE2.iter().map(|p| p.name).collect();
    let known_list = format!("known: {}", known.join(", "));
    for (what, names, context) in [
        (
            "unknown circuit(s) in --only",
            args.unknown_only(&known),
            known_list.clone(),
        ),
        (
            "unknown circuit(s) in --require-proven",
            args.unknown_required(&known),
            known_list,
        ),
        (
            "circuit(s) in --require-proven that --only deselects",
            args.deselected_required(),
            format!("--only selects: {}", args.only.join(", ")),
        ),
    ] {
        if !names.is_empty() {
            eprintln!("error: {what}: {} ({context})", names.join(", "));
            std::process::exit(2);
        }
    }

    let selected: Vec<_> = TABLE2
        .iter()
        .filter(|p| args.selected(p.name))
        .copied()
        .collect();
    println!(
        "Table 2 — {} circuits, seed {}, edge cap {:?}, MILP time limit {}s, node cap {:?}",
        selected.len(),
        args.seed,
        args.max_edges,
        args.time_limit_secs,
        args.max_nodes,
    );

    let results = parallel_map(selected, |profile| {
        let effective = args.effective_profile(&profile);
        let g = effective.generate(args.seed);
        let scaled = if effective != profile {
            format!(" (scaled from |E|={})", profile.edges)
        } else {
            String::new()
        };
        let edges = g.num_edges();
        let t0 = std::time::Instant::now();
        let res = evaluate_benchmark(profile.name, &g, &opts);
        let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
        (profile.name, scaled, edges, wall_ms, res)
    });

    let total = results.len();
    let mut table = Table2::default();
    let mut proven: Vec<&str> = Vec::new();
    for (name, scaled, edges, wall_ms, res) in results {
        match res {
            Ok((row, table1)) => {
                if args.verbose {
                    println!("\n--- {name}{scaled} ---");
                    print!("{table1}");
                }
                // A circuit counts as complete when every MILP in its
                // sweep proved optimality (gap-tolerance proofs
                // included): the `(limit, n incidents)` annotations stay
                // per-row in the rendered table rather than aborting.
                if row.proven_optimal {
                    proven.push(name);
                }
                println!(
                    "{name}: {edges} edges, {} MILP nodes, {} pivots, {wall_ms:.0} ms",
                    table1.outcome.total_nodes, table1.outcome.total_simplex_iters
                );
                table.rows.push(row);
            }
            Err(e) => eprintln!("{name}: {edges} edges, failed after {wall_ms:.0} ms: {e}"),
        }
    }
    println!();
    print!("{table}");
    println!(
        "(paper, full-size with CPLEX: average I% = 14.5, RC_lp_min = RC_min in >half \
         the cases, average err% = 12.5)"
    );
    println!(
        "{}/{total} circuits completed (all MILPs proven within gap): {}",
        proven.len(),
        proven.join(", ")
    );
    let lost: Vec<&str> = args
        .require_proven
        .iter()
        .map(String::as_str)
        .filter(|name| !proven.contains(name))
        .collect();
    if !lost.is_empty() {
        eprintln!(
            "error: {} circuit(s) in --require-proven lost their proof: {}",
            lost.len(),
            lost.join(", ")
        );
        std::process::exit(1);
    }
}
