//! The core RRG data structures.

use std::fmt;

/// Identifier of a node in an [`Rrg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct NodeId(pub usize);

/// Identifier of an edge in an [`Rrg`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct EdgeId(pub usize);

impl NodeId {
    /// Position of the node in [`Rrg::nodes`].
    pub fn index(self) -> usize {
        self.0
    }
}

impl EdgeId {
    /// Position of the edge in [`Rrg::edges`].
    pub fn index(self) -> usize {
        self.0
    }
}

impl fmt::Display for NodeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "n{}", self.0)
    }
}

impl fmt::Display for EdgeId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "e{}", self.0)
    }
}

/// Evaluation discipline of a node (the paper's N1/N2 partition).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum NodeKind {
    /// Late evaluation: fires when *all* inputs carry a token.
    #[default]
    Simple,
    /// Early evaluation: fires as soon as the *selected* input carries a
    /// token; anti-tokens are issued on the other inputs.
    EarlyEval,
}

/// A combinational block.
#[derive(Debug, Clone)]
pub struct Node {
    pub(crate) name: String,
    pub(crate) kind: NodeKind,
    pub(crate) delay: f64,
}

impl Node {
    /// Node name (unique within a graph by builder policy, but not
    /// enforced).
    pub fn name(&self) -> &str {
        &self.name
    }
    /// Evaluation discipline.
    pub fn kind(&self) -> NodeKind {
        self.kind
    }
    /// Combinational delay `β(n) ≥ 0`.
    pub fn delay(&self) -> f64 {
        self.delay
    }
    /// `true` for early-evaluation nodes.
    pub fn is_early(&self) -> bool {
        self.kind == NodeKind::EarlyEval
    }
}

/// A channel between two blocks, carrying `R(e)` elastic buffers and
/// `R0(e)` tokens.
#[derive(Debug, Clone)]
pub struct Edge {
    pub(crate) source: NodeId,
    pub(crate) target: NodeId,
    pub(crate) tokens: i64,
    pub(crate) buffers: i64,
    pub(crate) gamma: Option<f64>,
}

impl Edge {
    /// Producer node.
    pub fn source(&self) -> NodeId {
        self.source
    }
    /// Consumer node.
    pub fn target(&self) -> NodeId {
        self.target
    }
    /// `R0(e)`: tokens initially on the edge; negative values are
    /// anti-tokens.
    pub fn tokens(&self) -> i64 {
        self.tokens
    }
    /// `R(e) ≥ max(R0(e), 0)`: number of elastic buffers on the edge.
    pub fn buffers(&self) -> i64 {
        self.buffers
    }
    /// `γ(e)`: guard-selection probability when the target is an
    /// early-evaluation node.
    pub fn gamma(&self) -> Option<f64> {
        self.gamma
    }
    /// Number of *bubbles* (EBs holding no token) on the edge.
    pub fn bubbles(&self) -> i64 {
        self.buffers - self.tokens.max(0)
    }
}

/// A Retiming and Recycling Graph: the directed multigraph ⟨S, β, R0, R, γ⟩
/// of Definition 2.1.
///
/// Construct via [`RrgBuilder`](crate::RrgBuilder); the builder validates
/// the definition's side conditions (liveness, `R ≥ R0`, γ normalisation).
#[derive(Debug, Clone)]
pub struct Rrg {
    pub(crate) nodes: Vec<Node>,
    pub(crate) edges: Vec<Edge>,
    pub(crate) succ: Vec<Vec<EdgeId>>,
    pub(crate) pred: Vec<Vec<EdgeId>>,
}

impl Rrg {
    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// Number of simple (late-evaluation) nodes — the paper's `|N1|`.
    pub fn num_simple(&self) -> usize {
        self.nodes.iter().filter(|n| !n.is_early()).count()
    }

    /// Number of early-evaluation nodes — the paper's `|N2|`.
    pub fn num_early(&self) -> usize {
        self.nodes.iter().filter(|n| n.is_early()).count()
    }

    /// Node metadata.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn node(&self, id: NodeId) -> &Node {
        &self.nodes[id.0]
    }

    /// Edge metadata.
    ///
    /// # Panics
    ///
    /// Panics if `id` is out of range.
    pub fn edge(&self, id: EdgeId) -> &Edge {
        &self.edges[id.0]
    }

    /// Iterates over `(id, node)` pairs.
    pub fn nodes(&self) -> impl Iterator<Item = (NodeId, &Node)> {
        self.nodes.iter().enumerate().map(|(i, n)| (NodeId(i), n))
    }

    /// Iterates over `(id, edge)` pairs.
    pub fn edges(&self) -> impl Iterator<Item = (EdgeId, &Edge)> {
        self.edges.iter().enumerate().map(|(i, e)| (EdgeId(i), e))
    }

    /// All node ids.
    pub fn node_ids(&self) -> impl Iterator<Item = NodeId> {
        (0..self.nodes.len()).map(NodeId)
    }

    /// Outgoing edges of `n`.
    pub fn out_edges(&self, n: NodeId) -> &[EdgeId] {
        &self.succ[n.0]
    }

    /// Incoming edges of `n`.
    pub fn in_edges(&self, n: NodeId) -> &[EdgeId] {
        &self.pred[n.0]
    }

    /// Looks a node up by name (linear scan).
    pub fn node_by_name(&self, name: &str) -> Option<NodeId> {
        self.nodes.iter().position(|n| n.name == name).map(NodeId)
    }

    /// Maximum combinational delay `β_max` over all nodes (0 for an empty
    /// graph). This is the starting cycle time of `MIN_EFF_CYC`.
    pub fn max_delay(&self) -> f64 {
        self.nodes.iter().map(|n| n.delay).fold(0.0, f64::max)
    }

    /// Sum of all combinational delays; the paper's `τ*` big-M constant for
    /// the path constraints of Lemma 2.1.
    pub fn total_delay(&self) -> f64 {
        self.nodes.iter().map(|n| n.delay).sum()
    }

    /// Total number of positive tokens (`Σ max(R0, 0)`); an upper bound on
    /// the token count of any simple cycle, hence on any retimed `R0`.
    pub fn total_positive_tokens(&self) -> i64 {
        self.edges.iter().map(|e| e.tokens.max(0)).sum()
    }

    /// `true` if the graph has at least one early-evaluation node.
    pub fn has_early(&self) -> bool {
        self.nodes.iter().any(|n| n.is_early())
    }

    /// Returns a copy where every early-evaluation node is downgraded to a
    /// simple node (γ dropped). Used for the late-evaluation baseline
    /// `ξ_nee` of Table 2.
    pub fn with_late_evaluation(&self) -> Rrg {
        let mut g = self.clone();
        for n in &mut g.nodes {
            n.kind = NodeKind::Simple;
        }
        for e in &mut g.edges {
            e.gamma = None;
        }
        g
    }

    /// Rebuilds the adjacency lists from `edges` (crate-internal, used by
    /// the builder and config application).
    pub(crate) fn rebuild_adjacency(&mut self) {
        let n = self.nodes.len();
        self.succ = vec![Vec::new(); n];
        self.pred = vec![Vec::new(); n];
        for (i, e) in self.edges.iter().enumerate() {
            self.succ[e.source.0].push(EdgeId(i));
            self.pred[e.target.0].push(EdgeId(i));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RrgBuilder;

    fn two_node_loop() -> Rrg {
        let mut b = RrgBuilder::new();
        let a = b.add_simple("a", 1.0);
        let c = b.add_simple("c", 2.0);
        b.add_edge(a, c, 1, 1);
        b.add_edge(c, a, 0, 1);
        b.build().unwrap()
    }

    #[test]
    fn accessors_and_counts() {
        let g = two_node_loop();
        assert_eq!(g.num_nodes(), 2);
        assert_eq!(g.num_edges(), 2);
        assert_eq!(g.num_simple(), 2);
        assert_eq!(g.num_early(), 0);
        assert_eq!(g.max_delay(), 2.0);
        assert_eq!(g.total_delay(), 3.0);
        assert_eq!(g.edges().map(|(_, e)| e.tokens()).sum::<i64>(), 1);
        assert_eq!(g.edges().map(|(_, e)| e.buffers()).sum::<i64>(), 2);
    }

    #[test]
    fn adjacency_is_consistent() {
        let g = two_node_loop();
        let a = g.node_by_name("a").unwrap();
        let c = g.node_by_name("c").unwrap();
        assert_eq!(g.out_edges(a).len(), 1);
        assert_eq!(g.in_edges(a).len(), 1);
        let e = g.out_edges(a)[0];
        assert_eq!(g.edge(e).source(), a);
        assert_eq!(g.edge(e).target(), c);
    }

    #[test]
    fn bubbles_counted() {
        let mut b = RrgBuilder::new();
        let a = b.add_simple("a", 1.0);
        let c = b.add_simple("c", 1.0);
        b.add_edge(a, c, 1, 3); // one token, three EBs → two bubbles
        b.add_edge(c, a, 0, 1);
        let g = b.build().unwrap();
        assert_eq!(g.edge(EdgeId(0)).bubbles(), 2);
        assert_eq!(g.edge(EdgeId(1)).bubbles(), 1);
    }

    #[test]
    fn with_late_evaluation_downgrades_early_nodes() {
        let g = crate::figures::figure_1b(0.5);
        assert!(g.has_early());
        let late = g.with_late_evaluation();
        assert!(!late.has_early());
        assert_eq!(late.num_edges(), g.num_edges());
    }
}
