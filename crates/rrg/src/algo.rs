//! Structural graph algorithms used across the workspace: strongly
//! connected components, token-weighted cycle detection (liveness), and
//! topological ordering of the combinational (bufferless) subgraph.

use crate::rrg::{EdgeId, NodeId, Rrg};

/// Strongly connected components by Tarjan's algorithm (iterative, so deep
/// graphs cannot overflow the stack). Components are returned in reverse
/// topological order.
pub fn sccs(g: &Rrg) -> Vec<Vec<NodeId>> {
    let n = g.num_nodes();
    #[derive(Clone, Copy)]
    struct Frame {
        node: usize,
        edge_pos: usize,
    }
    let mut index = vec![usize::MAX; n];
    let mut lowlink = vec![usize::MAX; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut comps: Vec<Vec<NodeId>> = Vec::new();

    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        let mut call: Vec<Frame> = vec![Frame {
            node: root,
            edge_pos: 0,
        }];
        index[root] = next_index;
        lowlink[root] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root] = true;

        while let Some(frame) = call.last_mut() {
            let v = frame.node;
            if frame.edge_pos < g.succ[v].len() {
                let e = g.succ[v][frame.edge_pos];
                frame.edge_pos += 1;
                let w = g.edges[e.0].target.0;
                if index[w] == usize::MAX {
                    index[w] = next_index;
                    lowlink[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    call.push(Frame {
                        node: w,
                        edge_pos: 0,
                    });
                } else if on_stack[w] {
                    lowlink[v] = lowlink[v].min(index[w]);
                }
            } else {
                call.pop();
                if let Some(parent) = call.last() {
                    lowlink[parent.node] = lowlink[parent.node].min(lowlink[v]);
                }
                if lowlink[v] == index[v] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w] = false;
                        comp.push(NodeId(w));
                        if w == v {
                            break;
                        }
                    }
                    comps.push(comp);
                }
            }
        }
    }
    comps
}

/// `true` if the graph is strongly connected (and non-empty).
pub fn is_strongly_connected(g: &Rrg) -> bool {
    g.num_nodes() > 0 && sccs(g).len() == 1
}

/// Finds a directed cycle whose total token count (`Σ R0`) is ≤ 0, if one
/// exists. Such a cycle violates the liveness condition of Definition 2.1.
///
/// Implementation: a cycle has `Σ R0 ≤ 0` iff it is negative under the
/// scaled integer weights `w(e) = (|E|+1)·R0(e) − 1`, detected with
/// Bellman–Ford from a virtual source. The offending cycle is recovered by
/// walking the predecessor chain.
pub fn find_dead_cycle(g: &Rrg) -> Option<Vec<EdgeId>> {
    find_nonpositive_cycle_with(g, |e| g.edges[e.0].tokens)
}

/// Finds a cycle with **strictly negative** weight sum, if any.
///
/// Built on [`find_nonpositive_cycle_with`] via the transformation
/// `u(e) = (|E|+1)·w(e) + 1`: a cycle of length `ℓ ≤ |E|` has
/// `Σu = (|E|+1)·Σw + ℓ`, which is ≤ 0 exactly when `Σw ≤ −1`.
pub fn find_negative_cycle_with(g: &Rrg, weight: impl Fn(EdgeId) -> i64) -> Option<Vec<EdgeId>> {
    let scale = g.num_edges() as i64 + 1;
    find_nonpositive_cycle_with(g, |e| scale * weight(e) + 1)
}

/// Generalisation of [`find_dead_cycle`] to arbitrary per-edge integer
/// weights: finds a cycle with `Σ weight ≤ 0`, if any.
pub fn find_nonpositive_cycle_with(g: &Rrg, weight: impl Fn(EdgeId) -> i64) -> Option<Vec<EdgeId>> {
    let n = g.num_nodes();
    if n == 0 {
        return None;
    }
    let scale = g.num_edges() as i64 + 1;
    let w = |e: EdgeId| scale * weight(e) - 1;

    // Bellman–Ford with all distances initialised to 0 (virtual source).
    let mut dist = vec![0i64; n];
    let mut pred_edge: Vec<Option<EdgeId>> = vec![None; n];
    let mut changed_node = None;
    for pass in 0..=n {
        let mut changed = None;
        for (i, e) in g.edges.iter().enumerate() {
            let id = EdgeId(i);
            let cand = dist[e.source.0].saturating_add(w(id));
            if cand < dist[e.target.0] {
                dist[e.target.0] = cand;
                pred_edge[e.target.0] = Some(id);
                changed = Some(e.target);
            }
        }
        changed?; // converged: no nonpositive cycle
        if pass == n {
            changed_node = changed;
        }
    }
    // A node relaxed on pass n lies on or downstream of a negative cycle;
    // walk back n steps to land inside the cycle, then extract it.
    let mut v = changed_node.expect("relaxation continued on the last pass");
    for _ in 0..n {
        let e = pred_edge[v.0].expect("predecessor chain broken");
        v = g.edges[e.0].source;
    }
    let start = v;
    let mut cycle = Vec::new();
    loop {
        let e = pred_edge[v.0].expect("predecessor chain broken inside cycle");
        cycle.push(e);
        v = g.edges[e.0].source;
        if v == start {
            break;
        }
    }
    cycle.reverse();
    Some(cycle)
}

/// Enumerates directed simple cycles as DFS back-edge ("fundamental")
/// cycles: every edge closing back onto the active DFS path yields the
/// tree path plus the closing edge. At most one cycle per back edge is
/// produced (so at most `|E|` overall, capped at `max_cycles`), cycles
/// never repeat a node, and the traversal order — nodes ascending,
/// successor lists in insertion order — makes the result deterministic.
/// Cross and forward edges are skipped, so this is a cheap structural
/// sample of the cycle space, not an exhaustive enumeration (which is
/// exponential); the MILP layer uses it to derive cycle-sum cuts.
pub fn fundamental_cycles(g: &Rrg, max_cycles: usize) -> Vec<Vec<EdgeId>> {
    let n = g.num_nodes();
    #[derive(Clone, Copy)]
    struct Frame {
        node: usize,
        edge_pos: usize,
    }
    // 0 = unvisited, 1 = on the active DFS path, 2 = finished.
    let mut state = vec![0u8; n];
    let mut pos_in_path = vec![usize::MAX; n];
    let mut cycles: Vec<Vec<EdgeId>> = Vec::new();
    for root in 0..n {
        if state[root] != 0 || cycles.len() >= max_cycles {
            continue;
        }
        let mut call = vec![Frame {
            node: root,
            edge_pos: 0,
        }];
        // `path_edges[i]` is the tree edge into `call[i + 1]`.
        let mut path_edges: Vec<EdgeId> = Vec::new();
        state[root] = 1;
        pos_in_path[root] = 0;
        while let Some(frame) = call.last_mut() {
            let v = frame.node;
            if frame.edge_pos < g.succ[v].len() {
                let e = g.succ[v][frame.edge_pos];
                frame.edge_pos += 1;
                let w = g.edges[e.0].target.0;
                match state[w] {
                    0 => {
                        state[w] = 1;
                        pos_in_path[w] = call.len();
                        call.push(Frame {
                            node: w,
                            edge_pos: 0,
                        });
                        path_edges.push(e);
                    }
                    1 if cycles.len() < max_cycles => {
                        let mut cyc: Vec<EdgeId> = path_edges[pos_in_path[w]..].to_vec();
                        cyc.push(e);
                        cycles.push(cyc);
                    }
                    _ => {}
                }
            } else {
                state[v] = 2;
                pos_in_path[v] = usize::MAX;
                call.pop();
                if !call.is_empty() {
                    path_edges.pop();
                }
            }
        }
    }
    cycles
}

/// Topological order of the nodes w.r.t. the *combinational* subgraph (the
/// edges with `buffers(e) == 0` under the supplied buffer assignment).
///
/// Returns `Err(edge)` with some edge on a combinational cycle when the
/// subgraph is cyclic (such an RRG has unbounded cycle time).
pub fn combinational_topo_order(g: &Rrg, buffers: &[i64]) -> Result<Vec<NodeId>, EdgeId> {
    let n = g.num_nodes();
    let mut indeg = vec![0usize; n];
    for (i, e) in g.edges.iter().enumerate() {
        if buffers[i] == 0 {
            indeg[e.target.0] += 1;
        }
    }
    let mut queue: Vec<usize> = (0..n).filter(|&v| indeg[v] == 0).collect();
    let mut order = Vec::with_capacity(n);
    while let Some(v) = queue.pop() {
        order.push(NodeId(v));
        for &e in &g.succ[v] {
            if buffers[e.0] == 0 {
                let t = g.edges[e.0].target.0;
                indeg[t] -= 1;
                if indeg[t] == 0 {
                    queue.push(t);
                }
            }
        }
    }
    if order.len() == n {
        Ok(order)
    } else {
        // Some node kept positive in-degree: find an offending edge.
        // Prefer an edge *between* two blocked nodes (it lies on the
        // cycle itself); fall back to any combinational edge into a
        // blocked node, which provably exists — a blocked node's
        // in-degree counts exactly those edges — so this stays total
        // instead of panicking on an unexpected degree state.
        let between = g
            .edges
            .iter()
            .enumerate()
            .find(|(i, e)| buffers[*i] == 0 && indeg[e.target.0] > 0 && indeg[e.source.0] > 0);
        let bad = between
            .or_else(|| {
                g.edges
                    .iter()
                    .enumerate()
                    .find(|(i, e)| buffers[*i] == 0 && indeg[e.target.0] > 0)
            })
            .map(|(i, _)| EdgeId(i))
            .expect("a node with positive combinational in-degree has an incoming edge");
        Err(bad)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::RrgBuilder;

    fn diamond_with_back_edge() -> Rrg {
        // a → b → d, a → c → d, d → a(token)
        let mut b = RrgBuilder::new();
        let a = b.add_simple("a", 1.0);
        let n_b = b.add_simple("b", 1.0);
        let c = b.add_simple("c", 1.0);
        let d = b.add_simple("d", 1.0);
        b.add_edge(a, n_b, 0, 0);
        b.add_edge(a, c, 0, 0);
        b.add_edge(n_b, d, 0, 0);
        b.add_edge(c, d, 0, 0);
        b.add_edge(d, a, 1, 1);
        b.build().unwrap()
    }

    #[test]
    fn scc_of_cycle_is_single() {
        let g = diamond_with_back_edge();
        assert!(is_strongly_connected(&g));
        assert_eq!(sccs(&g).len(), 1);
    }

    #[test]
    fn scc_separates_components() {
        let mut b = RrgBuilder::new();
        let a = b.add_simple("a", 1.0);
        let c = b.add_simple("c", 1.0);
        let d = b.add_simple("d", 1.0);
        b.add_edge(a, c, 1, 1);
        b.add_edge(c, a, 1, 1);
        b.add_edge(c, d, 0, 0); // d is a sink, own component
        let g = b.build().unwrap();
        let comps = sccs(&g);
        assert_eq!(comps.len(), 2);
    }

    #[test]
    fn dead_cycle_found_and_reported() {
        // Build without the builder validation to plant the dead cycle.
        let mut b = RrgBuilder::new();
        let a = b.add_simple("a", 1.0);
        let c = b.add_simple("c", 1.0);
        b.add_edge(a, c, 1, 1);
        b.add_edge(c, a, -1, 0);
        let err = b.build();
        assert!(err.is_err(), "cycle with sum 0 must be rejected");
    }

    #[test]
    fn live_graph_has_no_dead_cycle() {
        let g = diamond_with_back_edge();
        assert!(find_dead_cycle(&g).is_none());
    }

    #[test]
    fn nonpositive_cycle_weights_are_general() {
        let g = diamond_with_back_edge();
        // Under all-zero weights every cycle is nonpositive.
        let cyc = find_nonpositive_cycle_with(&g, |_| 0).unwrap();
        assert!(!cyc.is_empty());
        // Verify it is an actual cycle: consecutive edges chain up.
        for w in cyc.windows(2) {
            assert_eq!(g.edge(w[0]).target(), g.edge(w[1]).source());
        }
        assert_eq!(
            g.edge(*cyc.last().unwrap()).target(),
            g.edge(cyc[0]).source()
        );
    }

    #[test]
    fn fundamental_cycles_are_simple_closed_and_deterministic() {
        let g = diamond_with_back_edge();
        let cycles = fundamental_cycles(&g, usize::MAX);
        // One back edge (d → a) on the first DFS path: one cycle.
        assert_eq!(cycles.len(), 1);
        for cyc in &cycles {
            // Consecutive edges chain up and the last closes onto the first.
            for w in cyc.windows(2) {
                assert_eq!(g.edge(w[0]).target(), g.edge(w[1]).source());
            }
            assert_eq!(
                g.edge(*cyc.last().unwrap()).target(),
                g.edge(cyc[0]).source()
            );
            // Simple: no node repeats.
            let mut nodes: Vec<usize> = cyc.iter().map(|&e| g.edge(e).source().0).collect();
            nodes.sort_unstable();
            nodes.dedup();
            assert_eq!(nodes.len(), cyc.len());
        }
        assert_eq!(fundamental_cycles(&g, 0).len(), 0);
        // Deterministic: identical call, identical result.
        assert_eq!(cycles, fundamental_cycles(&g, usize::MAX));
    }

    #[test]
    fn topo_order_respects_combinational_edges() {
        let g = diamond_with_back_edge();
        let buffers: Vec<i64> = g.edges().map(|(_, e)| e.buffers()).collect();
        let order = combinational_topo_order(&g, &buffers).unwrap();
        let pos: Vec<usize> = {
            let mut p = vec![0; g.num_nodes()];
            for (i, n) in order.iter().enumerate() {
                p[n.0] = i;
            }
            p
        };
        for (_, e) in g.edges() {
            if e.buffers() == 0 {
                assert!(pos[e.source().0] < pos[e.target().0]);
            }
        }
    }

    #[test]
    fn combinational_cycle_detected() {
        let g = diamond_with_back_edge();
        // Pretend every edge is bufferless: a→b→d→a is combinational.
        let buffers = vec![0i64; g.num_edges()];
        assert!(combinational_topo_order(&g, &buffers).is_err());
    }
}
