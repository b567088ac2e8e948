//! Property-based cross-validation of the stationary solve.
//!
//! The sparse Gauss–Seidel/power hybrid is the production path; the
//! test-only dense Gauss–Jordan elimination is its oracle. On every chain
//! both can solve —
//! figure variants across the γ range and random recycled benchmark
//! graphs — their throughputs must agree to 1e-7 (in practice they agree
//! to ~1e-12; the bound leaves room for ill-conditioned classes).

use proptest::prelude::*;

use rr_rrg::generate::GeneratorParams;
use rr_rrg::{figures, Config, Rrg};

use crate::{build_chain, solve, MarkovError};

/// Solves with the sparse solve and the dense oracle and asserts
/// agreement; returns `false` (skipped) on instances that exceed the
/// exploration limit or that the dense oracle refuses.
fn assert_solvers_agree(g: &Rrg, label: &str) -> bool {
    let chain = match build_chain(g, 50_000) {
        Ok(chain) => chain,
        Err(MarkovError::StateSpaceTooLarge { .. }) => return false,
        Err(e) => panic!("{label}: chain build failed: {e}"),
    };
    let sparse =
        solve::solve_chain(&chain).unwrap_or_else(|e| panic!("{label}: sparse solve failed: {e}"));
    let dense = match solve::solve_chain_dense(&chain) {
        Ok(r) => r,
        Err(MarkovError::StateSpaceTooLarge { .. }) => return false,
        Err(e) => panic!("{label}: dense solve failed: {e}"),
    };
    assert_eq!(sparse.exact, dense.exact);
    assert_eq!(sparse.states, dense.states);
    assert_eq!(sparse.recurrent_states, dense.recurrent_states);
    assert!(
        (sparse.throughput - dense.throughput).abs() < 1e-7,
        "{label}: sparse {} vs dense {} ({} recurrent states)",
        sparse.throughput,
        dense.throughput,
        sparse.recurrent_states
    );
    true
}

/// One random benchmark graph: seed, simple and early node counts, and a
/// retiming in −2..=2 plus 0–2 bubbles per edge. A bare generated graph
/// has no bubble, and its chain collapses to a one-state recurrent class.
type RandomChain = (u64, usize, usize, Vec<i64>, Vec<i64>);

fn random_chain() -> impl Strategy<Value = RandomChain> {
    (
        0u64..500,
        4usize..7,
        1usize..3,
        prop::collection::vec(-2i64..=2, 8),
        prop::collection::vec(0i64..=2, 16),
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Figure chains across the whole γ range.
    #[test]
    fn solvers_agree_on_figure_chains(alpha in 0.05f64..0.95, variant in 0usize..3) {
        let g = match variant {
            0 => figures::figure_1a(alpha),
            1 => figures::figure_1b(alpha),
            _ => figures::figure_2(alpha),
        };
        prop_assert!(assert_solvers_agree(&g, &format!("figure v{variant} α={alpha}")));
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(1))]

    /// Random recycled benchmark graphs — the workload whose state spaces
    /// actually stress the sparse path. One case draws 24 graphs, so a
    /// run in which every graph is skipped fails.
    #[test]
    fn solvers_agree_on_random_bounded_chains(
        draws in prop::collection::vec(random_chain(), 24),
    ) {
        let mut checked = 0;
        for (seed, simple, early, r, bubbles) in draws {
            let edges = (simple + early) * 2;
            let g = GeneratorParams::paper_defaults(simple, early, edges).generate(seed);
            let r: Vec<i64> = (0..g.num_nodes()).map(|i| r[i % r.len()]).collect();
            let mut config = Config::from_retiming_with_buffers(&g, &r);
            for (i, b) in config.buffers.iter_mut().enumerate() {
                *b += bubbles[i % bubbles.len()];
            }
            let g = config
                .apply(&g)
                .expect("a retiming plus bubbles is a valid configuration");
            let label = format!("random s={seed} n={simple}+{early} r={r:?}");
            checked += usize::from(assert_solvers_agree(&g, &label));
        }
        prop_assert!(checked > 0, "every drawn chain was skipped");
    }
}
