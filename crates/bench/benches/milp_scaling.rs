//! The perf contract of the revised-simplex kernel: every instance is
//! solved with the production kernel (revised simplex + Markowitz sparse
//! LU, warm-started branch & bound) and under the `Kernel::DenseTableau`
//! oracle request, whose every LP (each branch & bound node and the
//! hint's pinned LP) runs cold on the dense tableau, in the same run:
//!
//! * the LP throughput bound on the 60- and 240-edge bench instances;
//! * `MAX_THR` at the min-delay cycle time on the 20-, 40- and 60-edge
//!   ones. The 60-edge instance is the contract row: bench40 closes at
//!   the root, so it measures no branching, while bench60 branches. The
//!   production search proves it in 63 nodes, and the oracle, whose
//!   nodes all solve cold on the tableau, in 467, well inside `fast()`'s
//!   limits (2,000 nodes or 10 s), so the two completed objectives are
//!   compared too.
//!
//! ```text
//! cargo bench --offline -p rr-bench --bench milp_scaling
//! ```
//!
//! The run fails loudly if the kernels disagree on a completed
//! (non-truncated) instance, since a silent skip would let a numerical
//! regression pass as a perf win, or if the production kernel is less
//! than [`MIN_SPEEDUP`] times faster than the oracle on the largest
//! `MAX_THR` instance.

use std::time::Instant;

use rr_bench::milp_bench_instance as instance;
use rr_core::{formulation, CoreOptions, OptOutcome};
use rr_milp::{Kernel, SolverOptions};
use rr_rrg::Rrg;
use rr_tgmg::{lp_bound, skeleton::tgmg_of};

/// The documented floor on the revised kernel's `MAX_THR` speedup over
/// the dense oracle. The bench60 row reads ×62–88 on a 2-vCPU host, so
/// the floor trips once production slows by about 20× against the
/// tableau.
const MIN_SPEEDUP: f64 = 3.3;

fn agree(a: f64, b: f64) -> bool {
    (a - b).abs() <= 1e-7 * a.abs().max(1.0)
}

/// Solves `MAX_THR` once under an explicit kernel request, returning the
/// outcome and its wall time in milliseconds.
fn solve_max_thr(g: &Rrg, kernel: Kernel) -> (OptOutcome, f64) {
    let mut opts = CoreOptions::fast();
    opts.solver.kernel = kernel;
    let t0 = Instant::now();
    let out = formulation::max_thr(g, g.max_delay(), &opts).expect("MAX_THR solves");
    (out, t0.elapsed().as_secs_f64() * 1e3)
}

fn main() {
    let mut disagreements: Vec<String> = Vec::new();
    for edges in [60usize, 240] {
        let t = tgmg_of(&instance(edges));
        let bound = |kernel| {
            let solver = SolverOptions {
                kernel,
                ..SolverOptions::default()
            };
            lp_bound::throughput_upper_bound_with(&t, &solver).expect("LP bound solves")
        };
        let (revised, oracle) = (bound(Kernel::Revised), bound(Kernel::DenseTableau));
        if !agree(revised, oracle) {
            disagreements.push(format!(
                "lp_bound {edges} edges: revised {revised} vs dense oracle {oracle}"
            ));
        }
    }
    let mut largest = None;
    for edges in [20usize, 40, 60] {
        let g = instance(edges);
        let (warm, warm_ms) = solve_max_thr(&g, Kernel::Revised);
        let (oracle, oracle_ms) = solve_max_thr(&g, Kernel::DenseTableau);
        // Truncated searches may legitimately hold different incumbents
        // (same caps, different pivot paths); completed ones must agree.
        if !warm.truncated() && !oracle.truncated() && !agree(warm.objective, oracle.objective) {
            disagreements.push(format!(
                "max_thr {edges} edges: revised {} vs dense oracle {}",
                warm.objective, oracle.objective
            ));
        }
        largest = Some((edges, warm, warm_ms, oracle_ms));
    }
    assert!(
        disagreements.is_empty(),
        "kernel/oracle disagreement:\n{}",
        disagreements.join("\n")
    );

    let (edges, warm, warm_ms, oracle_ms) = largest.expect("at least one MAX_THR instance");
    let speedup = oracle_ms / warm_ms.max(1e-9);
    println!(
        "kernel comparison: largest MAX_THR instance ({edges} edges) \
         sparse-LU {warm_ms:.1} ms vs dense tableau {oracle_ms:.1} ms (×{speedup:.2}); \
         nnz(L+U) {} vs m² = {}",
        warm.stats.peak_lu_nnz,
        warm.stats.basis_rows * warm.stats.basis_rows,
    );
    assert!(
        speedup >= MIN_SPEEDUP,
        "revised kernel only ×{speedup:.2} faster than the dense oracle on {edges} edges \
         (contract: ≥ ×{MIN_SPEEDUP})"
    );
}
