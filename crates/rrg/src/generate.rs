//! Random RRG generation following the paper's benchmark recipe (§5):
//!
//! * a strongly connected multigraph of a requested size,
//! * each edge carries an initialised register (one token in one EB) with
//!   probability 0.25,
//! * node delays uniform in `(0, 20]`,
//! * a requested number of multi-input nodes marked early-evaluation with
//!   random branch probabilities.
//!
//! The paper extracted its graph *structures* from the largest SCCs of the
//! ISCAS89 circuits; those netlists are not shipped here, so the
//! [`iscas`](crate::iscas) module pairs this generator with the exact
//! |N1|/|N2|/|E| sizes of Table 2: the paper drew the delays, tokens and
//! branch probabilities at random too, so matching the sizes keeps each
//! MILP as large as the paper's.

use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{RngExt, SeedableRng};

use crate::algo;
use crate::rrg::{NodeId, Rrg};
use crate::RrgBuilder;

/// Parameters of the random benchmark generator.
#[derive(Debug, Clone, PartialEq)]
pub struct GeneratorParams {
    /// Number of simple nodes (`|N1|`).
    pub simple_nodes: usize,
    /// Number of early-evaluation nodes (`|N2|`); each needs in-degree ≥ 2.
    pub early_nodes: usize,
    /// Total number of edges (`|E|`), at least `simple + 2·early`.
    pub edges: usize,
    /// Probability that an edge starts with one token in one EB (paper:
    /// 0.25).
    pub token_probability: f64,
    /// Node delays are drawn uniformly from `(0, max_delay]` (paper: 20).
    pub max_delay: f64,
}

impl GeneratorParams {
    /// The paper's §5 attribute distribution for a given size.
    pub fn paper_defaults(simple_nodes: usize, early_nodes: usize, edges: usize) -> Self {
        GeneratorParams {
            simple_nodes,
            early_nodes,
            edges,
            token_probability: 0.25,
            max_delay: 20.0,
        }
    }

    /// Generates a graph with these parameters and the given seed.
    ///
    /// The result is strongly connected, live (every cycle carries ≥ 1
    /// token — enforced by a token fix-up pass mirroring the fact that the
    /// paper's source circuits were live by construction) and has exactly
    /// `early_nodes` early-evaluation nodes.
    ///
    /// # Panics
    ///
    /// Panics if `edges < simple_nodes + 2·early_nodes` (a strongly
    /// connected graph on `n` nodes needs at least `n` edges, and every
    /// early node one more input) or if fewer than two nodes are
    /// requested.
    pub fn generate(&self, seed: u64) -> Rrg {
        let n = self.simple_nodes + self.early_nodes;
        assert!(n >= 2, "need at least two nodes");
        let min_edges = n + self.early_nodes;
        assert!(
            self.edges >= min_edges,
            "strong connectivity plus a second input per early node needs at least \
             {min_edges} edges, got {}",
            self.edges
        );
        let mut rng = StdRng::seed_from_u64(seed);

        // 1. Backbone Hamiltonian cycle in shuffled order → strong
        //    connectivity by construction.
        let mut order: Vec<usize> = (0..n).collect();
        order.shuffle(&mut rng);
        let mut edge_list: Vec<(usize, usize)> =
            (0..n).map(|i| (order[i], order[(i + 1) % n])).collect();

        // 2. Choose the early nodes and give them a second input first so
        //    the requested |N2| is always achievable.
        let mut candidates: Vec<usize> = (0..n).collect();
        candidates.shuffle(&mut rng);
        let early: Vec<usize> = candidates.into_iter().take(self.early_nodes).collect();
        let mut extra = self.edges - n;
        let mut is_early = vec![false; n];
        for &e in &early {
            is_early[e] = true;
        }
        for &t in &early {
            if extra == 0 {
                break;
            }
            let mut s = rng.random_range(0..n);
            // Avoid a self-loop; a duplicate parallel edge is fine (the
            // definition allows multigraphs).
            while s == t {
                s = rng.random_range(0..n);
            }
            edge_list.push((s, t));
            extra -= 1;
        }

        // 3. Remaining edges uniformly at random (no self-loops).
        for _ in 0..extra {
            let s = rng.random_range(0..n);
            let mut t = rng.random_range(0..n);
            while t == s {
                t = rng.random_range(0..n);
            }
            edge_list.push((s, t));
        }

        // 4. Attributes.
        let mut b = RrgBuilder::new();
        let ids: Vec<NodeId> = (0..n)
            .map(|i| {
                let delay = rng.random_range(0.0..self.max_delay) + f64::EPSILON;
                if is_early[i] {
                    b.add_early(format!("e{i}"), delay)
                } else {
                    b.add_simple(format!("n{i}"), delay)
                }
            })
            .collect();
        let mut token_count = vec![0i64; edge_list.len()];
        for (i, _) in edge_list.iter().enumerate() {
            if rng.random_bool(self.token_probability) {
                token_count[i] = 1;
            }
        }
        let edge_ids: Vec<_> = edge_list
            .iter()
            .zip(&token_count)
            .map(|(&(s, t), &tok)| b.add_edge(ids[s], ids[t], tok, tok))
            .collect();

        // γ: random strictly-positive weights, normalised per early node.
        for &e in &early {
            let node = ids[e];
            // Count inputs of this node in the edge list.
            let ins: Vec<usize> = edge_list
                .iter()
                .enumerate()
                .filter(|(_, &(_, t))| t == e)
                .map(|(i, _)| i)
                .collect();
            let weights: Vec<f64> = ins.iter().map(|_| rng.random_range(0.05..1.0)).collect();
            let sum: f64 = weights.iter().sum();
            for (&i, w) in ins.iter().zip(&weights) {
                b.set_gamma(edge_ids[i], w / sum);
            }
            let _ = node;
        }

        // 5. Liveness fix-up: while a token-free cycle exists, drop a
        //    token (in a fresh EB) on one of its edges. Build a throwaway
        //    graph skipping validation to run the cycle finder.
        loop {
            let trial = b.clone().build();
            match trial {
                Ok(g) => return g,
                Err(crate::ValidateError::DeadCycle { edges }) => {
                    let pick = edges[rng.random_range(0..edges.len())];
                    let idx = pick.index();
                    token_count[idx] += 1;
                    b.set_tokens(edge_ids[idx], token_count[idx]);
                    b.set_buffers(edge_ids[idx], token_count[idx]);
                }
                Err(e) => unreachable!("generator produced an invalid graph: {e}"),
            }
        }
    }
}

/// Convenience wrapper: a paper-style random RRG of the given size.
pub fn random_rrg(simple_nodes: usize, early_nodes: usize, edges: usize, seed: u64) -> Rrg {
    GeneratorParams::paper_defaults(simple_nodes, early_nodes, edges).generate(seed)
}

/// Verifies the structural promises of the generator (used in tests and
/// as a debugging aid): strong connectivity, exact node/edge counts, exact
/// early count, liveness.
pub fn check_generated(g: &Rrg, params: &GeneratorParams) -> Result<(), String> {
    if g.num_nodes() != params.simple_nodes + params.early_nodes {
        return Err(format!("node count {}", g.num_nodes()));
    }
    if g.num_edges() != params.edges {
        return Err(format!("edge count {}", g.num_edges()));
    }
    if g.num_early() != params.early_nodes {
        return Err(format!("early count {}", g.num_early()));
    }
    if !algo::is_strongly_connected(g) {
        return Err("not strongly connected".into());
    }
    if algo::find_dead_cycle(g).is_some() {
        return Err("dead cycle".into());
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_shape() {
        let p = GeneratorParams::paper_defaults(20, 5, 60);
        let g = p.generate(42);
        check_generated(&g, &p).unwrap();
    }

    #[test]
    fn deterministic_per_seed() {
        let p = GeneratorParams::paper_defaults(10, 2, 25);
        let a = p.generate(7);
        let b = p.generate(7);
        let ea: Vec<_> = a
            .edges()
            .map(|(_, e)| (e.source(), e.target(), e.tokens()))
            .collect();
        let eb: Vec<_> = b
            .edges()
            .map(|(_, e)| (e.source(), e.target(), e.tokens()))
            .collect();
        assert_eq!(ea, eb);
        let c = p.generate(8);
        let ec: Vec<_> = c
            .edges()
            .map(|(_, e)| (e.source(), e.target(), e.tokens()))
            .collect();
        assert_ne!(ea, ec, "different seeds should differ");
    }

    #[test]
    fn small_graphs_work() {
        let p = GeneratorParams::paper_defaults(2, 0, 2);
        let g = p.generate(1);
        check_generated(&g, &p).unwrap();
    }

    #[test]
    fn delays_in_range() {
        let p = GeneratorParams::paper_defaults(15, 3, 40);
        let g = p.generate(3);
        for (_, n) in g.nodes() {
            assert!(n.delay() > 0.0 && n.delay() <= 20.0 + 1e-9);
        }
    }

    #[test]
    fn early_nodes_have_multiple_inputs_and_normalised_gamma() {
        let p = GeneratorParams::paper_defaults(12, 4, 40);
        let g = p.generate(11);
        for (id, n) in g.nodes() {
            if n.is_early() {
                let ins = g.in_edges(id);
                assert!(ins.len() >= 2);
                let sum: f64 = ins.iter().map(|&e| g.edge(e).gamma().unwrap()).sum();
                assert!((sum - 1.0).abs() < 1e-9);
            }
        }
    }

    /// The generator follows §5's recipe: the requested early count, a
    /// mean delay well inside the (0, 20] range, and a token density
    /// near the paper's 0.25 (the liveness fix-up pushes it slightly up
    /// on sparse graphs).
    #[test]
    fn generated_graphs_match_the_recipe() {
        let p = GeneratorParams::paper_defaults(40, 8, 120);
        let mut densities = Vec::new();
        for seed in 0..8 {
            let g = p.generate(seed);
            assert_eq!(g.num_early(), 8);
            let mean_delay = g.nodes().map(|(_, n)| n.delay()).sum::<f64>() / g.num_nodes() as f64;
            assert!(mean_delay > 5.0 && mean_delay < 15.0, "{mean_delay}");
            let with_tokens = g.edges().filter(|(_, e)| e.tokens() > 0).count();
            densities.push(with_tokens as f64 / g.num_edges() as f64);
        }
        let avg: f64 = densities.iter().sum::<f64>() / densities.len() as f64;
        assert!(
            (avg - 0.25).abs() < 0.12,
            "average token density {avg} strays from the paper's 0.25"
        );
    }

    #[test]
    #[should_panic(expected = "at least")]
    fn too_few_edges_rejected() {
        GeneratorParams::paper_defaults(5, 0, 3).generate(0);
    }
}
