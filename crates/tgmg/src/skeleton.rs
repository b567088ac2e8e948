//! The RRG → TGMG translation (Procedures 1 and 2) in *skeleton* form.
//!
//! The TGMG's **structure** depends only on the RRG's shape; the token
//! counts `R0` and buffer counts `R` of a retiming/recycling configuration
//! only parameterise markings and delays. The skeleton records those
//! dependencies symbolically:
//!
//! * every RRG edge `e = (u, v)` becomes a delay node
//!   [`NodeTag::EdgeDelay`] with `δ = R(e)` (this is Procedure 1 applied
//!   uniformly, i.e. also to single-input consumers, which leaves the LP
//!   bound unchanged and keeps one code path);
//! * the marking `R0(e)` sits on the edge leaving the delay node;
//! * every early node `v` gets a unit-delay [`NodeTag::Throttle`] on a
//!   token-carrying self-cycle and one [`NodeTag::Splitter`] per input
//!   (Procedure 2), which prevents the fluid LP relaxation from firing `v`
//!   more than once per cycle.
//!
//! Instantiating the skeleton with concrete `tokens`/`buffers` vectors
//! yields a numeric [`Tgmg`]; the optimizer in `rr-core` walks the same
//! skeleton to emit MILP constraints, so the two can never drift apart.

use rr_rrg::{EdgeId, NodeId, NodeKind, Rrg};

use crate::gmg::{Tgmg, TgmgEdge, TgmgNode};

/// Role of a TGMG node relative to the source RRG.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum NodeTag {
    /// The image of an RRG node (zero delay).
    Original(NodeId),
    /// The Procedure-1 node of an RRG edge; its delay is the edge's buffer
    /// count `R(e)`.
    EdgeDelay(EdgeId),
    /// Procedure-2 splitter on an input edge of an early node.
    Splitter(EdgeId),
    /// Procedure-2 unit-delay throttle of an early node.
    Throttle(NodeId),
}

/// Where a skeleton node's delay comes from.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum DelaySrc {
    /// A constant (0 for originals/splitters, 1 for throttles).
    Const(f64),
    /// The buffer count `R(e)` of the configuration being evaluated.
    BuffersOf(EdgeId),
}

/// Where a skeleton edge's initial marking comes from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum MarkingSrc {
    /// A constant (0 almost everywhere, 1 on throttle self-cycles).
    Const(i64),
    /// The token count `R0(e)` of the configuration being evaluated.
    TokensOf(EdgeId),
}

/// A skeleton node.
#[derive(Debug, Clone)]
pub struct SkelNode {
    /// Role of the node.
    pub tag: NodeTag,
    /// Evaluation discipline (early only for original early nodes).
    pub kind: NodeKind,
    /// Delay source.
    pub delay: DelaySrc,
}

/// A skeleton edge.
#[derive(Debug, Clone)]
pub struct SkelEdge {
    /// Source skeleton-node index.
    pub from: usize,
    /// Target skeleton-node index.
    pub to: usize,
    /// Marking source.
    pub marking: MarkingSrc,
    /// Guard probability (set exactly on edges entering early nodes).
    pub gamma: Option<f64>,
}

/// The symbolic TGMG of an RRG's shape.
#[derive(Debug, Clone)]
pub struct TgmgSkeleton {
    /// Skeleton nodes.
    pub nodes: Vec<SkelNode>,
    /// Skeleton edges.
    pub edges: Vec<SkelEdge>,
}

impl TgmgSkeleton {
    /// Builds the skeleton of an RRG (Procedures 1 + 2 on the shape).
    pub fn of(g: &Rrg) -> TgmgSkeleton {
        let mut nodes: Vec<SkelNode> = Vec::new();
        let mut edges: Vec<SkelEdge> = Vec::new();

        // Original nodes: `original[v]` is the skeleton index of RRG node
        // v's image.
        let original: Vec<usize> = g
            .node_ids()
            .map(|v| {
                nodes.push(SkelNode {
                    tag: NodeTag::Original(v),
                    kind: g.node(v).kind(),
                    delay: DelaySrc::Const(0.0),
                });
                nodes.len() - 1
            })
            .collect();

        // Throttles for early nodes (Procedure 2): unit delay, self-cycle
        // with one token.
        let mut throttle = vec![usize::MAX; g.num_nodes()];
        for (v, node) in g.nodes() {
            if node.is_early() {
                nodes.push(SkelNode {
                    tag: NodeTag::Throttle(v),
                    kind: NodeKind::Simple,
                    delay: DelaySrc::Const(1.0),
                });
                let s = nodes.len() - 1;
                throttle[v.index()] = s;
                edges.push(SkelEdge {
                    from: original[v.index()],
                    to: s,
                    marking: MarkingSrc::Const(1),
                    gamma: None,
                });
            }
        }

        // Edge-delay nodes (Procedure 1) and splitters (Procedure 2).
        for (e, edge) in g.edges() {
            let (u, v) = (edge.source(), edge.target());
            nodes.push(SkelNode {
                tag: NodeTag::EdgeDelay(e),
                kind: NodeKind::Simple,
                delay: DelaySrc::BuffersOf(e),
            });
            let ne = nodes.len() - 1;
            edges.push(SkelEdge {
                from: original[u.index()],
                to: ne,
                marking: MarkingSrc::Const(0),
                gamma: None,
            });
            if g.node(v).is_early() {
                nodes.push(SkelNode {
                    tag: NodeTag::Splitter(e),
                    kind: NodeKind::Simple,
                    delay: DelaySrc::Const(0.0),
                });
                let nk = nodes.len() - 1;
                // Token-carrying half of the split input edge.
                edges.push(SkelEdge {
                    from: ne,
                    to: nk,
                    marking: MarkingSrc::TokensOf(e),
                    gamma: None,
                });
                // Guarded edge into the early node.
                edges.push(SkelEdge {
                    from: nk,
                    to: original[v.index()],
                    marking: MarkingSrc::Const(0),
                    gamma: Some(
                        g.edge(e)
                            .gamma()
                            .expect("validated RRGs have γ on early inputs"),
                    ),
                });
                // Throttle release.
                edges.push(SkelEdge {
                    from: throttle[v.index()],
                    to: nk,
                    marking: MarkingSrc::Const(0),
                    gamma: None,
                });
            } else {
                edges.push(SkelEdge {
                    from: ne,
                    to: original[v.index()],
                    marking: MarkingSrc::TokensOf(e),
                    gamma: None,
                });
            }
        }

        TgmgSkeleton { nodes, edges }
    }

    /// Instantiates the skeleton with explicit token/buffer vectors
    /// (indexed by RRG edge).
    ///
    /// # Panics
    ///
    /// Panics if the vectors are shorter than the RRG edge count implied
    /// by the skeleton.
    pub fn instantiate(&self, tokens: &[i64], buffers: &[i64]) -> Tgmg {
        let nodes = self
            .nodes
            .iter()
            .map(|n| TgmgNode {
                kind: n.kind,
                delay: match n.delay {
                    DelaySrc::Const(d) => d,
                    DelaySrc::BuffersOf(e) => buffers[e.index()] as f64,
                },
            })
            .collect();
        let edges = self
            .edges
            .iter()
            .map(|e| TgmgEdge {
                from: e.from,
                to: e.to,
                marking: match e.marking {
                    MarkingSrc::Const(c) => c,
                    MarkingSrc::TokensOf(re) => tokens[re.index()],
                },
                gamma: e.gamma,
            })
            .collect();
        Tgmg::new(nodes, edges)
    }

    /// Instantiates the skeleton from the RRG's own tokens and buffers.
    pub fn instantiate_from(&self, g: &Rrg) -> Tgmg {
        let tokens: Vec<i64> = g.edges().map(|(_, e)| e.tokens()).collect();
        let buffers: Vec<i64> = g.edges().map(|(_, e)| e.buffers()).collect();
        self.instantiate(&tokens, &buffers)
    }
}

/// One-call convenience: the numeric TGMG of an RRG (Procedures 1 + 2).
pub fn tgmg_of(g: &Rrg) -> Tgmg {
    TgmgSkeleton::of(g).instantiate_from(g)
}

/// A skeleton edge after chain elimination: a path `p → … → q` through
/// simple single-in/single-out nodes, folded into one constraint-bearing
/// super-edge. Its LP marking is
/// `m̂ = x·Σ markings − Σ chain_delays + σ(p) − σ(q)` —
/// the Fourier–Motzkin elimination of the interior σ potentials, which
/// recovers exactly the compact throughput constraints (5)–(10) printed
/// in the paper.
#[derive(Debug, Clone)]
pub struct ReducedEdge {
    /// Source index into [`ReducedSkeleton::nodes`].
    pub from: usize,
    /// Target index into [`ReducedSkeleton::nodes`].
    pub to: usize,
    /// All `m0` contributions along the chain.
    pub markings: Vec<MarkingSrc>,
    /// Delays of the eliminated interior nodes (enter `m̂` negatively).
    pub chain_delays: Vec<DelaySrc>,
    /// Guard probability (the chain's final edge enters an early node).
    pub gamma: Option<f64>,
}

/// The skeleton with every simple 1-in/1-out node (the Procedure-1 edge
/// nodes) eliminated. Used by the MILP formulation: roughly halves the
/// variable count without changing the LP optimum.
#[derive(Debug, Clone)]
pub struct ReducedSkeleton {
    /// Kept nodes, in original skeleton order.
    pub nodes: Vec<SkelNode>,
    /// Super-edges between kept nodes.
    pub edges: Vec<ReducedEdge>,
}

impl TgmgSkeleton {
    /// Eliminates chain σ-nodes (see [`ReducedSkeleton`]).
    pub fn reduced(&self) -> ReducedSkeleton {
        let n = self.nodes.len();
        let mut indeg = vec![0usize; n];
        let mut outdeg = vec![0usize; n];
        let mut out_edge = vec![usize::MAX; n];
        for (i, e) in self.edges.iter().enumerate() {
            indeg[e.to] += 1;
            outdeg[e.from] += 1;
            out_edge[e.from] = i;
        }
        let mut eliminable: Vec<bool> = (0..n)
            .map(|w| self.nodes[w].kind == NodeKind::Simple && indeg[w] == 1 && outdeg[w] == 1)
            .collect();
        // A cycle made up *entirely* of eliminable nodes (a plain ring of
        // pass-through stages) would otherwise vanish together with its
        // throughput constraint; keep one anchor node per such cycle so
        // it folds into a self-loop super-edge `Σδ ≤ x·Σm0` instead.
        loop {
            let mut covered = vec![false; n];
            for e in &self.edges {
                if eliminable[e.from] {
                    continue; // interior edge, reached by a walk below
                }
                let mut cur = e.to;
                while eliminable[cur] && !covered[cur] {
                    covered[cur] = true;
                    cur = self.edges[out_edge[cur]].to;
                }
            }
            match (0..n).find(|&w| eliminable[w] && !covered[w]) {
                Some(w) => eliminable[w] = false,
                None => break,
            }
        }
        let mut kept_index = vec![usize::MAX; n];
        let mut nodes = Vec::new();
        for (w, node) in self.nodes.iter().enumerate() {
            if !eliminable[w] {
                kept_index[w] = nodes.len();
                nodes.push(node.clone());
            }
        }

        let mut edges = Vec::new();
        for (i, first) in self.edges.iter().enumerate() {
            if eliminable[first.from] {
                continue; // interior edge of some chain
            }
            let mut markings = vec![first.marking];
            let mut chain_delays = Vec::new();
            let mut cur = first.to;
            let mut gamma = first.gamma;
            let mut hops = 0usize;
            while eliminable[cur] {
                chain_delays.push(self.nodes[cur].delay);
                let next_edge = &self.edges[out_edge[cur]];
                markings.push(next_edge.marking);
                gamma = next_edge.gamma;
                cur = next_edge.to;
                hops += 1;
                assert!(
                    hops <= n,
                    "isolated cycle of eliminable skeleton nodes (edge {i})"
                );
            }
            edges.push(ReducedEdge {
                from: kept_index[first.from],
                to: kept_index[cur],
                markings,
                chain_delays,
                gamma,
            });
        }
        ReducedSkeleton { nodes, edges }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr_rrg::figures;

    #[test]
    fn figure_1b_skeleton_shape() {
        // Figure 3/4 of the paper: 5 original nodes, 6 edge nodes, plus
        // (for the single early mux with two inputs) one throttle and two
        // splitters.
        let g = figures::figure_1b(0.5);
        let sk = TgmgSkeleton::of(&g);
        let originals = sk
            .nodes
            .iter()
            .filter(|n| matches!(n.tag, NodeTag::Original(_)))
            .count();
        let edge_delays = sk
            .nodes
            .iter()
            .filter(|n| matches!(n.tag, NodeTag::EdgeDelay(_)))
            .count();
        let splitters = sk
            .nodes
            .iter()
            .filter(|n| matches!(n.tag, NodeTag::Splitter(_)))
            .count();
        let throttles = sk
            .nodes
            .iter()
            .filter(|n| matches!(n.tag, NodeTag::Throttle(_)))
            .count();
        assert_eq!((originals, edge_delays, splitters, throttles), (5, 6, 2, 1));
        // Edges: throttle in (1) + per simple-target edge 2×4, per
        // early-target edge 4×2.
        assert_eq!(sk.edges.len(), 1 + 2 * 4 + 4 * 2);
    }

    #[test]
    fn instantiation_reads_configuration() {
        let g = figures::figure_1b(0.5);
        let sk = TgmgSkeleton::of(&g);
        let t = sk.instantiate_from(&g);
        t.check().unwrap();
        assert!(t.has_integer_delays());
        // The top channel's edge-delay node carries δ = 3.
        let top_idx = sk
            .nodes
            .iter()
            .position(|n| n.tag == NodeTag::EdgeDelay(figures::edge::TOP))
            .unwrap();
        assert_eq!(t.nodes[top_idx].delay, 3.0);
        // Its outgoing (token) edge holds 3 tokens.
        let tok_edge = t.succ[top_idx][0];
        assert_eq!(t.edges[tok_edge].marking, 3);
    }

    #[test]
    fn guard_probabilities_land_on_splitter_edges() {
        let g = figures::figure_1b(0.9);
        let t = tgmg_of(&g);
        let gammas: Vec<f64> = t.edges.iter().filter_map(|e| e.gamma).collect();
        assert_eq!(gammas.len(), 2);
        let sum: f64 = gammas.iter().sum();
        assert!((sum - 1.0).abs() < 1e-9);
    }

    #[test]
    fn anti_tokens_survive_translation() {
        let g = figures::figure_2(0.5);
        let t = tgmg_of(&g);
        assert!(t.edges.iter().any(|e| e.marking == -2));
    }

    #[test]
    fn reduction_eliminates_chain_nodes() {
        let g = figures::figure_1b(0.5);
        let sk = TgmgSkeleton::of(&g);
        let red = sk.reduced();
        // No edge-delay node survives (they are all 1-in/1-out), and in
        // this graph even the pass-through originals F1..F3 fold away:
        // kept are the mux, the fork node f, the throttle, two splitters.
        assert!(red
            .nodes
            .iter()
            .all(|n| !matches!(n.tag, NodeTag::EdgeDelay(_))));
        assert_eq!(red.nodes.len(), 5);
        // Total marking mass is preserved: Σ over super-edges of Σm0
        // equals skeleton total (tokens 0+1+0+0+3+0 = 4 plus the
        // throttle's 1).
        let total: i64 = red
            .edges
            .iter()
            .flat_map(|e| e.markings.iter())
            .map(|&m| match m {
                MarkingSrc::Const(c) => c,
                MarkingSrc::TokensOf(e) => g.edge(e).tokens(),
            })
            .sum();
        assert_eq!(total, 4 + 1);
        // γ survives on the edges entering the early node and still
        // normalises.
        let gammas: Vec<f64> = red.edges.iter().filter_map(|e| e.gamma).collect();
        assert_eq!(gammas.len(), 2);
        assert!((gammas.iter().sum::<f64>() - 1.0).abs() < 1e-9);
        // The m→…→f chain really folded several interior nodes.
        assert!(red.edges.iter().any(|e| e.chain_delays.len() >= 3));
    }

    #[test]
    fn pure_rings_keep_an_anchor_node() {
        // A plain two-node ring: every skeleton node is simple 1-in/1-out,
        // so naive chain elimination would delete the whole cycle and its
        // throughput constraint with it. One anchor must survive, with a
        // self-loop super-edge carrying the cycle's tokens and delays.
        let mut b = rr_rrg::RrgBuilder::new();
        let a = b.add_simple("a", 1.0);
        let c = b.add_simple("c", 1.0);
        b.add_edge(a, c, 1, 2); // one token, one bubble
        b.add_edge(c, a, 0, 0);
        let g = b.build().unwrap();
        let red = TgmgSkeleton::of(&g).reduced();
        assert_eq!(red.nodes.len(), 1, "one anchor per pure ring");
        assert_eq!(red.edges.len(), 1);
        let e = &red.edges[0];
        assert_eq!(e.from, e.to, "the ring folds into a self-loop");
        let tokens: i64 = e
            .markings
            .iter()
            .map(|&m| match m {
                MarkingSrc::Const(c) => c,
                MarkingSrc::TokensOf(e) => g.edge(e).tokens(),
            })
            .sum();
        assert_eq!(tokens, 1);
        // The chain delays cover both edge-delay nodes (buffers 2 and 0)
        // plus the eliminated original; the anchor's own delay completes
        // the cycle sum.
        assert!(!e.chain_delays.is_empty());
    }

    #[test]
    fn late_only_graph_has_no_throttles() {
        let g = figures::figure_1b(0.5).with_late_evaluation();
        let sk = TgmgSkeleton::of(&g);
        assert!(sk
            .nodes
            .iter()
            .all(|n| !matches!(n.tag, NodeTag::Throttle(_) | NodeTag::Splitter(_))));
    }
}
