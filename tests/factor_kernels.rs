//! End-to-end regression of the basis-factorization layer on the
//! `milp_scaling` bench family (same generator, same seed 42): the
//! largest (40-edge) instance is optimized once by the production
//! search over the Markowitz sparse LU and once under the
//! `Kernel::DenseTableau` request, whose search runs the dense-LU
//! oracle (product-form updates, cold nodes).
//!
//! `MIN_CYC(1)` is the formulation both drive to **proven** optimality
//! within a sane budget, so any objective disagreement there is a
//! factorization bug, not a search-path artifact; `MAX_THR` (whose
//! fractional-`x` plateau keeps DFS from closing a 1e-9 gap) is
//! cross-checked at the bench's own options, where the fixed-seed search
//! is deterministic. The sparse kernel must also actually exploit
//! sparsity: its recorded `nnz(L+U)` stays far below the dense `m²`
//! storage.

use rr_bench::milp_bench_instance as bench_instance;
use rr_core::{formulation, CoreOptions};
use rr_milp::Kernel;

fn opts_with(kernel: Kernel, gap_tol: f64) -> CoreOptions {
    let mut opts = CoreOptions::fast();
    opts.solver.kernel = kernel;
    opts.solver.gap_tol = gap_tol;
    opts.solver.max_nodes = 20_000;
    opts.solver.time_limit = Some(std::time::Duration::from_secs(60));
    opts
}

#[test]
fn factor_kinds_prove_the_same_optimum_on_the_largest_bench_instance() {
    let g = bench_instance(40);
    let sparse = formulation::min_cyc(&g, 1.0, &opts_with(Kernel::Revised, 1e-9))
        .expect("sparse-LU MIN_CYC solves");
    let dense = formulation::min_cyc(&g, 1.0, &opts_with(Kernel::DenseTableau, 1e-9))
        .expect("dense-LU MIN_CYC solves");

    // Identical verdicts: both *prove* the optimum, so the objectives
    // must coincide regardless of pivot paths.
    assert!(sparse.proven_optimal, "sparse run did not prove optimality");
    assert!(dense.proven_optimal, "dense run did not prove optimality");
    assert!(
        (sparse.objective - dense.objective).abs() < 1e-7,
        "factor kinds disagree: sparse {} vs dense {}",
        sparse.objective,
        dense.objective
    );

    // The sparse kernel must beat the dense m² storage on this basis.
    let m = sparse.stats.basis_rows;
    assert!(m > 100, "instance too small to be meaningful ({m} rows)");
    assert!(sparse.stats.refactors > 0 && sparse.stats.peak_lu_nnz > 0);
    assert!(
        sparse.stats.peak_lu_nnz < m * m / 4,
        "sparse LU fill {} did not clearly beat the dense {}² = {}",
        sparse.stats.peak_lu_nnz,
        m,
        m * m
    );
    assert_eq!(
        dense.stats.peak_lu_nnz,
        dense.stats.basis_rows * dense.stats.basis_rows,
        "dense oracle must report its full m² storage"
    );
}

/// `MAX_THR` at the bench's own options: the fixed-seed searches are
/// deterministic, and on this instance the production search and the
/// dense-LU oracle request reach the identical objective and verdict.
#[test]
fn factor_kinds_agree_on_max_thr_at_bench_options() {
    let g = bench_instance(20);
    let tau = g.max_delay();
    let sparse_opts = CoreOptions::fast();
    let mut dense_opts = CoreOptions::fast();
    dense_opts.solver.kernel = Kernel::DenseTableau;
    let sparse = formulation::max_thr(&g, tau, &sparse_opts).expect("sparse MAX_THR solves");
    let dense = formulation::max_thr(&g, tau, &dense_opts).expect("dense MAX_THR solves");
    assert_eq!(
        sparse.proven_optimal, dense.proven_optimal,
        "verdicts diverge"
    );
    assert!(
        (sparse.objective - dense.objective).abs() < 1e-7,
        "sparse {} vs dense {}",
        sparse.objective,
        dense.objective
    );
}
