//! Exact throughput of **late-evaluation** elastic systems: the minimum
//! cycle ratio
//!
//! ```text
//! Θ = min over directed cycles C of  Σ_{e∈C} R0(e) / Σ_{e∈C} R(e)
//! ```
//!
//! (tokens over latency). This classic marked-graph result gives the exact
//! steady-state throughput when no early evaluation is present, so it is
//! an oracle for the LP bound and the simulators; only tests call it.
//! (Table 2's `ξ_nee` comes from `rr_retime::min_period_retiming` in
//! `rr_core::report::evaluate_benchmark`.)
//!
//! Computed by binary search on λ with a negative-cycle test on weights
//! `R0(e) − λ·R(e)` (parametric Bellman–Ford).

use rr_rrg::Rrg;

/// Exact late-evaluation throughput of a configuration given by explicit
/// token/buffer vectors. Returns 1.0 for graphs whose cycles all have
/// ratio ≥ 1 (throughput is capped at one token per cycle per EB chain).
///
/// Returns `f64::INFINITY` if the graph has no directed cycle (acyclic
/// pipelines are not rate-limited).
///
/// # Panics
///
/// Panics if vector lengths do not match or if a cycle has zero total
/// buffers (combinational cycle — invalid configuration).
pub fn min_cycle_ratio(g: &Rrg, tokens: &[i64], buffers: &[i64]) -> f64 {
    assert_eq!(tokens.len(), g.num_edges());
    assert_eq!(buffers.len(), g.num_edges());
    if !has_cycle(g) {
        return f64::INFINITY;
    }
    assert!(
        !has_negative_cycle(g, |e| {
            if buffers[e] == 0 {
                0.0
            } else {
                -(buffers[e] as f64)
            }
        }) || buffers.iter().any(|&b| b > 0),
        "graph has cycles but no buffered cycle"
    );

    // Θ ≤ 1 for valid configurations (R ≥ R0 edge-wise); still search a
    // slightly larger interval to stay robust for exotic inputs.
    let mut lo = 0.0f64;
    let mut hi = 2.0f64;
    // exists cycle with Σ(R0 − λR) < 0  ⇔  MCR < λ
    let below =
        |lambda: f64| has_negative_cycle(g, |e| tokens[e] as f64 - lambda * buffers[e] as f64);
    if !below(hi) {
        // All cycles have ratio ≥ 2 — only possible without valid R≥R0;
        // treat as capped.
        return hi;
    }
    for _ in 0..60 {
        let mid = 0.5 * (lo + hi);
        if below(mid) {
            hi = mid;
        } else {
            lo = mid;
        }
    }
    0.5 * (lo + hi)
}

/// [`min_cycle_ratio`] on the graph's own tokens/buffers.
pub fn exact_late_throughput(g: &Rrg) -> f64 {
    let tokens: Vec<i64> = g.edges().map(|(_, e)| e.tokens()).collect();
    let buffers: Vec<i64> = g.edges().map(|(_, e)| e.buffers()).collect();
    min_cycle_ratio(g, &tokens, &buffers)
}

fn has_cycle(g: &Rrg) -> bool {
    // A graph has a directed cycle iff some SCC has ≥ 2 nodes or a
    // self-loop exists.
    if g.edges().any(|(_, e)| e.source() == e.target()) {
        return true;
    }
    rr_rrg::algo::sccs(g).iter().any(|c| c.len() >= 2)
}

/// Bellman–Ford negative-cycle test with f64 weights (virtual source).
fn has_negative_cycle(g: &Rrg, w: impl Fn(usize) -> f64) -> bool {
    let n = g.num_nodes();
    let mut dist = vec![0.0f64; n];
    for pass in 0..=n {
        let mut changed = false;
        for (id, e) in g.edges() {
            let cand = dist[e.source().index()] + w(id.index());
            if cand < dist[e.target().index()] - 1e-12 {
                dist[e.target().index()] = cand;
                changed = true;
            }
        }
        if !changed {
            return false;
        }
        if pass == n {
            return true;
        }
    }
    unreachable!("loop always returns")
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr_rrg::{figures, RrgBuilder};

    #[test]
    fn figure_1a_ratio_is_one() {
        assert!((exact_late_throughput(&figures::figure_1a(0.5)) - 1.0).abs() < 1e-9);
    }

    #[test]
    fn figure_1b_ratio_is_one_third() {
        let th = exact_late_throughput(&figures::figure_1b(0.5));
        assert!((th - 1.0 / 3.0).abs() < 1e-9, "Θ = {th}");
    }

    #[test]
    fn figure_2_late_ratio_counts_anti_tokens() {
        // Bottom cycle: tokens 1, buffers 3 → 1/3 late throughput.
        let th = exact_late_throughput(&figures::figure_2(0.5));
        assert!((th - 1.0 / 3.0).abs() < 1e-9, "Θ = {th}");
    }

    #[test]
    fn acyclic_graph_is_unbounded() {
        let mut b = RrgBuilder::new();
        let a = b.add_simple("a", 1.0);
        let c = b.add_simple("c", 1.0);
        b.add_edge(a, c, 1, 1);
        let g = b.build().unwrap();
        assert!(exact_late_throughput(&g).is_infinite());
    }

    #[test]
    fn explicit_vectors_override_graph() {
        let g = figures::figure_1b(0.5);
        let tokens: Vec<i64> = g.edges().map(|(_, e)| e.tokens()).collect();
        let mut buffers: Vec<i64> = g.edges().map(|(_, e)| e.buffers()).collect();
        // Adding two more bubbles on the bottom cycle lowers the ratio.
        buffers[figures::edge::F2_F3.index()] += 2;
        let th = min_cycle_ratio(&g, &tokens, &buffers);
        assert!((th - 1.0 / 5.0).abs() < 1e-9, "Θ = {th}");
    }
}
