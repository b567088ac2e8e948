//! Structural graph algorithms used across the workspace: strongly
//! connected components, token-weighted cycle detection (liveness), and
//! topological ordering of the combinational (bufferless) subgraph.
//! [`tarjan`] and [`bellman_ford`] take plain indices, so rr-markov's
//! terminal classes and rr-retime's Leiserson–Saxe difference constraints
//! run the same code.

use crate::rrg::{EdgeId, NodeId, Rrg};

/// Strongly connected components of the graph on `0..n` whose `k`-th
/// successor of `v` is `succ(v, k)` (`None` past the last), by iterative
/// Tarjan (deep graphs cannot overflow the stack). Roots are tried in
/// ascending order, and components come out in the order they leave the
/// stack, which is reverse topological order.
pub fn tarjan(n: usize, succ: impl Fn(usize, usize) -> Option<usize>) -> Vec<Vec<usize>> {
    let mut index = vec![usize::MAX; n];
    let mut lowlink = vec![usize::MAX; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next_index = 0usize;
    let mut comps: Vec<Vec<usize>> = Vec::new();
    // Call frames: (node, position of its next successor).
    let mut call: Vec<(usize, usize)> = Vec::new();

    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        call.push((root, 0));
        index[root] = next_index;
        lowlink[root] = next_index;
        next_index += 1;
        stack.push(root);
        on_stack[root] = true;

        while let Some(&mut (v, ref mut pos)) = call.last_mut() {
            if let Some(w) = succ(v, *pos) {
                *pos += 1;
                if index[w] == usize::MAX {
                    index[w] = next_index;
                    lowlink[w] = next_index;
                    next_index += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    call.push((w, 0));
                } else if on_stack[w] {
                    lowlink[v] = lowlink[v].min(index[w]);
                }
            } else {
                call.pop();
                if let Some(&(parent, _)) = call.last() {
                    lowlink[parent] = lowlink[parent].min(lowlink[v]);
                }
                if lowlink[v] == index[v] {
                    let mut comp = Vec::new();
                    loop {
                        let w = stack.pop().expect("tarjan stack underflow");
                        on_stack[w] = false;
                        comp.push(w);
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

/// Strongly connected components of `g` (see [`tarjan`]), in reverse
/// topological order.
pub fn sccs(g: &Rrg) -> Vec<Vec<NodeId>> {
    tarjan(g.num_nodes(), |v, k| {
        g.succ[v].get(k).map(|e| g.edges[e.0].target.0)
    })
    .into_iter()
    .map(|comp| comp.into_iter().map(NodeId).collect())
    .collect()
}

/// `true` if the graph is strongly connected (and non-empty).
pub fn is_strongly_connected(g: &Rrg) -> bool {
    g.num_nodes() > 0 && sccs(g).len() == 1
}

/// Bellman–Ford from a virtual source over the arcs `(from, to, weight)`
/// on nodes `0..n`: every distance starts at 0 and each pass relaxes the
/// arcs in slice order (with `saturating_add`). Returns the distances,
/// which satisfy `d[to] ≤ d[from] + weight` on every arc, or, when a
/// pass `n + 1` still relaxes something, a negative cycle as arc indices
/// in path order (each arc's `to` is the next one's `from`).
pub fn bellman_ford(n: usize, arcs: &[(usize, usize, i64)]) -> Result<Vec<i64>, Vec<usize>> {
    let mut dist = vec![0i64; n];
    let mut pred = vec![usize::MAX; n];
    let mut v = 0;
    for _ in 0..=n {
        let mut changed = None;
        for (i, &(from, to, w)) in arcs.iter().enumerate() {
            let cand = dist[from].saturating_add(w);
            if cand < dist[to] {
                dist[to] = cand;
                pred[to] = i;
                changed = Some(to);
            }
        }
        match changed {
            Some(to) => v = to,
            None => return Ok(dist),
        }
    }
    // The last node relaxed on pass n + 1 lies on or downstream of a
    // negative cycle; walk back n arcs to land inside the cycle, then
    // extract it.
    for _ in 0..n {
        v = arcs[pred[v]].0;
    }
    let start = v;
    let mut cycle = Vec::new();
    loop {
        let a = pred[v];
        cycle.push(a);
        v = arcs[a].0;
        if v == start {
            break;
        }
    }
    cycle.reverse();
    Err(cycle)
}

/// Finds a directed cycle whose total token count (`Σ R0`) is ≤ 0, if one
/// exists. Such a cycle violates the liveness condition of Definition 2.1.
///
/// Implementation: a cycle has `Σ R0 ≤ 0` iff it is negative under the
/// scaled integer weights `w(e) = (|E|+1)·R0(e) − 1`, detected with
/// [`bellman_ford`].
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
    let scale = g.num_edges() as i64 + 1;
    let arcs: Vec<(usize, usize, i64)> = g
        .edges
        .iter()
        .enumerate()
        .map(|(i, e)| (e.source.0, e.target.0, scale * weight(EdgeId(i)) - 1))
        .collect();
    let cycle = bellman_ford(g.num_nodes(), &arcs).err()?;
    Some(cycle.into_iter().map(EdgeId).collect())
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
    fn tarjan_pins_components_in_reverse_topological_order() {
        // Cycle {0, 1}, a bridge 1 → 2 into the cycle {2, 3, 4}, a
        // self-loop on 5 with an edge 5 → 3 into the finished cycle, and
        // an isolated node 6.
        let succ: [&[usize]; 7] = [&[1], &[0, 2], &[3], &[4], &[2], &[5, 3], &[]];
        let comps = tarjan(succ.len(), |v, k| succ[v].get(k).copied());
        // A component leaves the stack after every component it reaches;
        // members come out in stack-pop order.
        assert_eq!(comps, vec![vec![4, 3, 2], vec![1, 0], vec![5], vec![6]]);
    }

    /// Seeded random arc lists against a Floyd–Warshall reference: `Ok`
    /// exactly when no cycle is negative, `Ok` potentials satisfy every
    /// arc, and an `Err` cycle chains head to tail, closes and is
    /// negative.
    #[test]
    fn bellman_ford_agrees_with_floyd_warshall() {
        use rand::rngs::StdRng;
        use rand::{RngExt, SeedableRng};
        const INF: i64 = i64::MAX / 4;
        let mut rng = StdRng::seed_from_u64(0xBE11_F0AD);
        let (mut feasible, mut negative) = (0, 0);
        for _ in 0..600 {
            let n: usize = rng.random_range(1..=8);
            let arcs: Vec<(usize, usize, i64)> = (0..rng.random_range(0..=2 * n))
                .map(|_| {
                    let (u, v) = (rng.random_range(0..n), rng.random_range(0..n));
                    (u, v, rng.random_range(-3..=5))
                })
                .collect();
            let mut d = vec![vec![INF; n]; n];
            for (i, row) in d.iter_mut().enumerate() {
                row[i] = 0;
            }
            for &(u, v, w) in &arcs {
                d[u][v] = d[u][v].min(w);
            }
            for k in 0..n {
                for i in 0..n {
                    for j in 0..n {
                        if d[i][k] < INF && d[k][j] < INF {
                            d[i][j] = d[i][j].min(d[i][k] + d[k][j]);
                        }
                    }
                }
            }
            let has_negative_cycle = (0..n).any(|i| d[i][i] < 0);
            match bellman_ford(n, &arcs) {
                Ok(pot) => {
                    assert!(!has_negative_cycle, "missed a negative cycle: {arcs:?}");
                    for &(u, v, w) in &arcs {
                        assert!(pot[v] <= pot[u] + w, "arc ({u}, {v}, {w}) violated");
                    }
                    feasible += 1;
                }
                Err(cycle) => {
                    assert!(has_negative_cycle, "no negative cycle in {arcs:?}");
                    for pair in cycle.windows(2) {
                        assert_eq!(arcs[pair[0]].1, arcs[pair[1]].0);
                    }
                    let (first, last) = (cycle[0], *cycle.last().unwrap());
                    assert_eq!(arcs[last].1, arcs[first].0, "cycle does not close");
                    assert!(cycle.iter().map(|&a| arcs[a].2).sum::<i64>() < 0);
                    negative += 1;
                }
            }
        }
        assert!(
            feasible > 100 && negative > 100,
            "{feasible} Ok, {negative} Err"
        );
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
