//! The paper's motivating example (Figures 1(a), 1(b) and 2).
//!
//! All three graphs share the same structure: a multiplexer `m` (the only
//! early-evaluation node), a chain of unit-delay blocks `F1, F2, F3`, and a
//! zero-delay block `f` feeding `m` through two parallel channels — the
//! "top" channel selected with probability `α` and the "bottom" bypass
//! selected with probability `1 − α`:
//!
//! ```text
//!            ┌────────────── top (γ = α) ──────────────┐
//!            ▼                                          │
//!      ┌───┐     ┌────┐    ┌────┐    ┌────┐    ┌───┐   │
//!      │ m │ ──▶ │ F1 │ ─▶ │ F2 │ ─▶ │ F3 │ ─▶ │ f │ ──┤
//!      └───┘     └────┘    └────┘    └────┘    └───┘   │
//!            ▲                                          │
//!            └────────── bottom (γ = 1 − α) ────────────┘
//! ```
//!
//! The variants differ only in token/buffer placement:
//!
//! | figure | cycle time | behaviour |
//! |--------|-----------|-----------|
//! | 1(a)   | 3 | no bubbles, Θ = 1, ξ = 3 |
//! | 1(b)   | 1 | two bubbles: Θ(late) = 1/3; Θ(early, α=0.5) ≈ 0.491 |
//! | 2      | 1 | optimal RR with anti-tokens: Θ = 1/(3 − 2α) |

use crate::rrg::{NodeId, Rrg};
use crate::RrgBuilder;

/// Edge indices of the figure graphs, in construction order.
///
/// Kept public so tests and benches can address specific channels.
pub mod edge {
    use crate::rrg::EdgeId;
    /// `m → F1`
    pub const M_F1: EdgeId = EdgeId(0);
    /// `F1 → F2`
    pub const F1_F2: EdgeId = EdgeId(1);
    /// `F2 → F3`
    pub const F2_F3: EdgeId = EdgeId(2);
    /// `F3 → f`
    pub const F3_F: EdgeId = EdgeId(3);
    /// `f → m`, the "top" channel (γ = α)
    pub const TOP: EdgeId = EdgeId(4);
    /// `f → m`, the "bottom" bypass (γ = 1 − α)
    pub const BOTTOM: EdgeId = EdgeId(5);
}

/// Tokens/buffers per edge, in [`edge`] order.
fn build(alpha: f64, r0: [i64; 6], r: [i64; 6]) -> Rrg {
    assert!(
        alpha > 0.0 && alpha < 1.0,
        "branch probability α must lie strictly between 0 and 1"
    );
    let mut b = RrgBuilder::new();
    let m = b.add_early("m", 0.0);
    let f1 = b.add_simple("F1", 1.0);
    let f2 = b.add_simple("F2", 1.0);
    let f3 = b.add_simple("F3", 1.0);
    let f = b.add_simple("f", 0.0);
    let edges = [(m, f1), (f1, f2), (f2, f3), (f3, f), (f, m), (f, m)];
    let mut ids = Vec::new();
    for (i, (u, v)) in edges.into_iter().enumerate() {
        ids.push(b.add_edge(u, v, r0[i], r[i]));
    }
    b.set_gamma(ids[4], alpha);
    b.set_gamma(ids[5], 1.0 - alpha);
    b.build().expect("figure graphs are valid by construction")
}

/// Figure 1(a): the original system. Cycle time 3 (critical path
/// `F1,F2,F3,f,m`), throughput 1, effective cycle time 3.
pub fn figure_1a(alpha: f64) -> Rrg {
    build(alpha, [1, 0, 0, 0, 3, 0], [1, 0, 0, 0, 3, 0])
}

/// Figure 1(b): one retiming move (the `m→F1` token moves to `F1→F2`)
/// plus two bubbles, on `F2→F3` and on the bottom bypass. Cycle time 1;
/// late throughput 1/3; early-evaluation throughput ≈ 0.491 at α = 0.5 and
/// ≈ 0.719 at α = 0.9 (the paper's Markov-chain values, which this exact
/// placement reproduces — a bubble on `F3→f` instead would give 0.484 and
/// 0.632).
pub fn figure_1b(alpha: f64) -> Rrg {
    build(alpha, [0, 1, 0, 0, 3, 0], [0, 1, 1, 0, 3, 1])
}

/// Figure 2: the optimal retiming & recycling configuration with early
/// evaluation. The bottom bypass carries two anti-tokens; throughput is
/// `1/(3 − 2α)` and the cycle time is 1.
pub fn figure_2(alpha: f64) -> Rrg {
    build(alpha, [1, 1, 1, 0, 1, -2], [1, 1, 1, 0, 1, 0])
}

/// The node ids of the figure graphs, in construction order
/// `(m, F1, F2, F3, f)`.
pub fn figure_nodes() -> (NodeId, NodeId, NodeId, NodeId, NodeId) {
    (NodeId(0), NodeId(1), NodeId(2), NodeId(3), NodeId(4))
}

/// A pipelined generalisation of Figure 1(b): `lens.len()` stages in a
/// ring, where stage `i` is a mux `m_i` (the only early node of the
/// stage) feeding a chain of `lens[i]` unit-delay blocks that ends in a
/// zero-delay block `f_i`, and `f_i` feeds the next stage's mux through
/// two parallel channels — a "top" channel with three tokens in three EBs
/// (γ = α) and an empty-EB "bottom" bypass (γ = 1 − α). Stage chains use
/// Figure 1(b)'s placement: a token on the first chain edge, bubbles
/// after.
///
/// Every stage multiplies the number of reachable anti-token/queue
/// patterns, so the Markov state space grows geometrically with the
/// stage count — the scaling workload for `rr-markov`'s sparse solver
/// (2 stages of length 3 ≈ 2.5k states, 2×5 ≈ 28k, 3×3 ≈ 255k).
///
/// # Panics
///
/// Panics if `lens` is empty, any length is 0, or α ∉ (0, 1).
pub fn figure_1b_pipeline(lens: &[usize], alpha: f64) -> Rrg {
    assert!(!lens.is_empty(), "need at least one stage");
    assert!(
        alpha > 0.0 && alpha < 1.0,
        "branch probability α must lie strictly between 0 and 1"
    );
    let mut b = RrgBuilder::new();
    let mut muxes = Vec::new();
    let mut fs = Vec::new();
    for (i, &len) in lens.iter().enumerate() {
        assert!(len >= 1, "stage {i} has no blocks");
        let m = b.add_early(format!("m{i}"), 0.0);
        let mut prev = m;
        for j in 0..len {
            let fj = b.add_simple(format!("F{i}_{j}"), 1.0);
            let (tokens, buffers) = if j == 0 { (1, 1) } else { (0, 1) };
            b.add_edge(prev, fj, tokens, buffers);
            prev = fj;
        }
        let f = b.add_simple(format!("f{i}"), 0.0);
        b.add_edge(prev, f, 0, 0);
        muxes.push(m);
        fs.push(f);
    }
    for i in 0..lens.len() {
        let m = muxes[(i + 1) % lens.len()];
        let top = b.add_edge(fs[i], m, 3, 3);
        let bottom = b.add_edge(fs[i], m, 0, 1);
        b.set_gamma(top, alpha);
        b.set_gamma(bottom, 1.0 - alpha);
    }
    b.build()
        .expect("pipeline graphs are valid by construction")
}

/// Closed-form throughput of Figure 2 derived from its Markov chain in the
/// paper: `Θ = 1/(3 − 2α)`.
pub fn figure_2_throughput(alpha: f64) -> f64 {
    1.0 / (3.0 - 2.0 * alpha)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn token_sums_match_the_paper() {
        // "the total sum of tokens is an invariant and is equal to four for
        //  the top cycle and to one (3 − 2) for the bottom cycle"
        for g in [figure_1a(0.5), figure_1b(0.5), figure_2(0.5)] {
            let t = |e: crate::EdgeId| g.edge(e).tokens();
            let shared = t(edge::M_F1) + t(edge::F1_F2) + t(edge::F2_F3) + t(edge::F3_F);
            assert_eq!(shared + t(edge::TOP), 4, "top cycle sum");
            assert_eq!(shared + t(edge::BOTTOM), 1, "bottom cycle sum");
        }
    }

    #[test]
    fn early_node_is_the_mux() {
        let g = figure_1a(0.3);
        let (m, ..) = figure_nodes();
        assert!(g.node(m).is_early());
        assert_eq!(g.num_early(), 1);
        assert_eq!(g.num_simple(), 4);
    }

    #[test]
    fn gamma_assignment() {
        let g = figure_1b(0.9);
        assert_eq!(g.edge(edge::TOP).gamma(), Some(0.9));
        assert!((g.edge(edge::BOTTOM).gamma().unwrap() - 0.1).abs() < 1e-12);
    }

    #[test]
    fn figure_2_has_anti_tokens() {
        let g = figure_2(0.5);
        assert_eq!(g.edge(edge::BOTTOM).tokens(), -2);
        assert_eq!(g.edge(edge::BOTTOM).buffers(), 0);
    }

    #[test]
    fn figure_2_statistics() {
        let g = figure_2(0.5);
        assert_eq!(g.num_nodes(), 5);
        assert_eq!(g.num_edges(), 6);
        assert_eq!(g.num_early(), 1);
        let tokens: i64 = g.edges().map(|(_, e)| e.tokens()).sum();
        assert_eq!(tokens, 2); // 1+1+1+0+1−2
        assert_eq!(g.edges().map(|(_, e)| e.buffers()).sum::<i64>(), 4);
        let max_in = g.node_ids().map(|n| g.in_edges(n).len()).max();
        assert_eq!(max_in, Some(2)); // the mux
        assert!(g.edges().all(|(_, e)| e.source() != e.target()));
    }

    #[test]
    fn figure_1b_has_two_bubbles() {
        let g = figure_1b(0.5);
        let total: i64 = g.edges().map(|(_, e)| e.bubbles()).sum();
        assert_eq!(total, 2);
    }

    #[test]
    #[should_panic(expected = "between 0 and 1")]
    fn degenerate_alpha_rejected() {
        figure_1a(1.0);
    }

    #[test]
    fn closed_form_matches_paper_examples() {
        // α = 0.9 → Θ = 5/6 ≈ 0.833
        assert!((figure_2_throughput(0.9) - 5.0 / 6.0).abs() < 1e-12);
    }
}
