//! The TGMG data model (Definitions 3.1–3.3).

use rr_rrg::NodeKind;

/// A TGMG node: a delay and an evaluation discipline.
///
/// For simple nodes the (single) guard is the whole input set; for early
/// nodes each input edge is its own guard, selected with the probability
/// stored on the edge.
#[derive(Debug, Clone)]
pub struct TgmgNode {
    /// Late or early evaluation.
    pub kind: NodeKind,
    /// Firing delay δ(n) ≥ 0.
    pub delay: f64,
}

/// A TGMG edge with its initial marking (negative = anti-tokens) and, for
/// edges entering early nodes, the guard probability γ.
#[derive(Debug, Clone)]
pub struct TgmgEdge {
    /// Source node index.
    pub from: usize,
    /// Target node index.
    pub to: usize,
    /// Initial marking `m0` (may be negative).
    pub marking: i64,
    /// Guard-selection probability when `to` is early.
    pub gamma: Option<f64>,
}

/// A timed guarded marked graph.
#[derive(Debug, Clone)]
pub struct Tgmg {
    /// Nodes, indexed densely.
    pub nodes: Vec<TgmgNode>,
    /// Edges, indexed densely.
    pub edges: Vec<TgmgEdge>,
    /// Outgoing edge indices per node.
    pub succ: Vec<Vec<usize>>,
    /// Incoming edge indices per node.
    pub pred: Vec<Vec<usize>>,
}

impl Tgmg {
    /// Builds a TGMG from parts, deriving the adjacency lists.
    ///
    /// # Panics
    ///
    /// Panics if an edge references a node out of range.
    pub fn new(nodes: Vec<TgmgNode>, edges: Vec<TgmgEdge>) -> Tgmg {
        let n = nodes.len();
        let mut succ = vec![Vec::new(); n];
        let mut pred = vec![Vec::new(); n];
        for (i, e) in edges.iter().enumerate() {
            assert!(e.from < n && e.to < n, "edge {i} out of range");
            succ[e.from].push(i);
            pred[e.to].push(i);
        }
        Tgmg {
            nodes,
            edges,
            succ,
            pred,
        }
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }

    /// Number of edges.
    pub fn num_edges(&self) -> usize {
        self.edges.len()
    }

    /// The initial marking vector.
    pub fn initial_marking(&self) -> Vec<i64> {
        self.edges.iter().map(|e| e.marking).collect()
    }

    /// `true` when every node delay is a nonnegative integer (required by
    /// the cycle-based simulator).
    pub fn has_integer_delays(&self) -> bool {
        self.nodes
            .iter()
            .all(|n| n.delay >= 0.0 && n.delay.fract() == 0.0)
    }

    /// Sum of markings around each edge of a cycle given as edge indices
    /// (diagnostic helper for invariant tests).
    pub fn cycle_marking(&self, cycle: &[usize]) -> i64 {
        cycle.iter().map(|&e| self.edges[e].marking).sum()
    }

    /// Checks structural sanity: guard probabilities present exactly on
    /// the inputs of early nodes and normalised per node.
    pub fn check(&self) -> Result<(), String> {
        for (i, node) in self.nodes.iter().enumerate() {
            if node.delay < 0.0 || node.delay.is_nan() {
                return Err(format!("node {i} has bad delay {}", node.delay));
            }
            match node.kind {
                NodeKind::EarlyEval => {
                    let mut sum = 0.0;
                    for &e in &self.pred[i] {
                        let Some(p) = self.edges[e].gamma else {
                            return Err(format!("edge {e} into early node {i} lacks γ"));
                        };
                        if p <= 0.0 || p > 1.0 {
                            return Err(format!("edge {e} has γ={p} outside (0,1]"));
                        }
                        sum += p;
                    }
                    if (sum - 1.0).abs() > 1e-6 {
                        return Err(format!("γ of node {i} sums to {sum}"));
                    }
                }
                NodeKind::Simple => {}
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tiny() -> Tgmg {
        Tgmg::new(
            vec![
                TgmgNode {
                    kind: NodeKind::Simple,
                    delay: 1.0,
                },
                TgmgNode {
                    kind: NodeKind::Simple,
                    delay: 2.0,
                },
            ],
            vec![
                TgmgEdge {
                    from: 0,
                    to: 1,
                    marking: 1,
                    gamma: None,
                },
                TgmgEdge {
                    from: 1,
                    to: 0,
                    marking: 2,
                    gamma: None,
                },
            ],
        )
    }

    #[test]
    fn adjacency_built() {
        let g = tiny();
        assert_eq!(g.succ[0], vec![0]);
        assert_eq!(g.pred[0], vec![1]);
        assert!(g.has_integer_delays());
        assert_eq!(g.cycle_marking(&[0, 1]), 3);
        g.check().unwrap();
    }

    #[test]
    fn check_rejects_missing_gamma() {
        let mut g = tiny();
        g.nodes[1].kind = NodeKind::EarlyEval;
        assert!(g.check().is_err());
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn edge_bounds_enforced() {
        Tgmg::new(
            vec![TgmgNode {
                kind: NodeKind::Simple,
                delay: 0.0,
            }],
            vec![TgmgEdge {
                from: 0,
                to: 7,
                marking: 0,
                gamma: None,
            }],
        );
    }
}
