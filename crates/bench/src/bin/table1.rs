//! Regenerates Table 1: all non-dominated retiming/recycling
//! configurations of the s526 profile, with cycle time, LP-bound and
//! simulated throughput, the bound error, and both effective cycle times.
//!
//! ```text
//! cargo run --release -p rr-bench --bin table1 [-- --seed N --only s400]
//! ```
//!
//! Absolute values differ from the paper (the graph attributes were
//! random there too); the qualitative shape — several Pareto points, the
//! LP picking a near-optimal one, err% growing as bubbles are inserted —
//! is the reproduction target.

use rr_bench::HarnessArgs;
use rr_core::report::evaluate_benchmark;
use rr_rrg::iscas::IscasProfile;

fn main() {
    let args = HarnessArgs::parse(std::env::args().skip(1));
    let name = args.only.first().map(String::as_str).unwrap_or("s526");
    let profile = IscasProfile::by_name(name)
        .unwrap_or_else(|| panic!("unknown circuit {name}; see Table 2 for names"));
    let effective = args.effective_profile(&profile);
    let g = effective.generate(args.seed);
    println!(
        "Table 1 — non-dominated configurations of {name} \
         (|N1|={}, |N2|={}, |E|={}, seed={})",
        g.num_simple(),
        g.num_early(),
        g.num_edges(),
        args.seed
    );
    if effective != profile {
        println!(
            "(scaled from |E|={} to fit the MILP budget; run with --full-size to override)",
            profile.edges
        );
    }
    println!();
    let t0 = std::time::Instant::now();
    let (row, table1) =
        evaluate_benchmark(name, &g, &args.core_options()).expect("benchmark pipeline succeeds");
    let wall_ms = t0.elapsed().as_secs_f64() * 1e3;
    print!("{table1}");
    println!(
        "\nξ* = {:.2}, ξ_nee = {:.2}, ξ_lp_min = {:.2}, ξ_sim_min = {:.2}, I% = {:.1}",
        row.xi_star, row.xi_nee, row.xi_lp_min, row.xi_sim_min, row.improvement_pct
    );
    println!(
        "{name}: {} MILP nodes, {} pivots, {wall_ms:.0} ms",
        table1.outcome.total_nodes, table1.outcome.total_simplex_iters
    );
}
