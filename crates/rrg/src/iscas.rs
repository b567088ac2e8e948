//! The 18 benchmark profiles of Table 2.
//!
//! The paper took the largest strongly connected component of each ISCAS89
//! circuit and randomised every attribute (tokens, delays, early marking,
//! branch probabilities); the netlists contributed *only* the graph sizes
//! and rough structure. This module records those sizes (`|N1|`, `|N2|`,
//! `|E|` exactly as printed in Table 2) and instantiates each profile with
//! the [`generate`](crate::generate) recipe.

use crate::generate::GeneratorParams;
use crate::rrg::Rrg;

/// Size profile of one Table-2 benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IscasProfile {
    /// ISCAS89 circuit name, e.g. `"s526"`.
    pub name: &'static str,
    /// Simple (late-evaluation) node count `|N1|`.
    pub simple_nodes: usize,
    /// Early-evaluation node count `|N2|`.
    pub early_nodes: usize,
    /// Edge count `|E|`.
    pub edges: usize,
}

/// All rows of Table 2, in the paper's order.
pub const TABLE2: [IscasProfile; 18] = [
    IscasProfile {
        name: "s208",
        simple_nodes: 7,
        early_nodes: 1,
        edges: 9,
    },
    IscasProfile {
        name: "s641",
        simple_nodes: 206,
        early_nodes: 15,
        edges: 270,
    },
    IscasProfile {
        name: "s27",
        simple_nodes: 9,
        early_nodes: 5,
        edges: 24,
    },
    IscasProfile {
        name: "s444",
        simple_nodes: 45,
        early_nodes: 13,
        edges: 82,
    },
    IscasProfile {
        name: "s838",
        simple_nodes: 7,
        early_nodes: 1,
        edges: 9,
    },
    IscasProfile {
        name: "s386",
        simple_nodes: 36,
        early_nodes: 12,
        edges: 131,
    },
    IscasProfile {
        name: "s344",
        simple_nodes: 122,
        early_nodes: 13,
        edges: 176,
    },
    IscasProfile {
        name: "s400",
        simple_nodes: 37,
        early_nodes: 9,
        edges: 66,
    },
    IscasProfile {
        name: "s526",
        simple_nodes: 43,
        early_nodes: 7,
        edges: 71,
    },
    IscasProfile {
        name: "s382",
        simple_nodes: 35,
        early_nodes: 7,
        edges: 60,
    },
    IscasProfile {
        name: "s420",
        simple_nodes: 7,
        early_nodes: 1,
        edges: 9,
    },
    IscasProfile {
        name: "s832",
        simple_nodes: 76,
        early_nodes: 41,
        edges: 462,
    },
    IscasProfile {
        name: "s1488",
        simple_nodes: 85,
        early_nodes: 48,
        edges: 572,
    },
    IscasProfile {
        name: "s510",
        simple_nodes: 63,
        early_nodes: 40,
        edges: 407,
    },
    IscasProfile {
        name: "s953",
        simple_nodes: 232,
        early_nodes: 36,
        edges: 371,
    },
    IscasProfile {
        name: "s713",
        simple_nodes: 229,
        early_nodes: 27,
        edges: 341,
    },
    IscasProfile {
        name: "s1494",
        simple_nodes: 88,
        early_nodes: 48,
        edges: 572,
    },
    IscasProfile {
        name: "s820",
        simple_nodes: 72,
        early_nodes: 38,
        edges: 424,
    },
];

impl IscasProfile {
    /// Looks up a profile by circuit name.
    pub fn by_name(name: &str) -> Option<IscasProfile> {
        TABLE2.iter().copied().find(|p| p.name == name)
    }

    /// Total node count.
    pub fn nodes(&self) -> usize {
        self.simple_nodes + self.early_nodes
    }

    /// Instantiates the profile with the paper's §5 attribute recipe.
    ///
    /// The same `(profile, seed)` pair always yields the same graph.
    pub fn generate(&self, seed: u64) -> Rrg {
        self.params().generate(seed ^ fxhash(self.name))
    }

    /// The generator parameters of this profile.
    pub fn params(&self) -> GeneratorParams {
        GeneratorParams::paper_defaults(self.simple_nodes, self.early_nodes, self.edges)
    }

    /// A proportionally scaled-down copy capped at `max_edges` edges, used
    /// to keep MILP solves tractable without CPLEX. Node counts shrink by
    /// the same ratio, keeping at least one simple and one early node; a
    /// profile already within the cap is returned unchanged. The copy
    /// always has at least `simple + 2·early` edges (the generator's
    /// minimum), so a cap below that is exceeded. The table binaries
    /// apply it through `--max-edges`.
    pub fn scaled(&self, max_edges: usize) -> IscasProfile {
        if self.edges <= max_edges {
            return *self;
        }
        let ratio = max_edges as f64 / self.edges as f64;
        let scale = |x: usize| ((x as f64 * ratio).round() as usize).max(1);
        let mut simple = scale(self.simple_nodes);
        let early = scale(self.early_nodes).max(1);
        let mut edges = max_edges;
        // Keep the invariant edges >= nodes needed for strong connectivity
        // plus one extra input per early node.
        if edges < simple + early + early {
            simple = (edges.saturating_sub(2 * early)).max(1);
        }
        if edges < simple + 2 * early {
            edges = simple + 2 * early;
        }
        IscasProfile {
            name: self.name,
            simple_nodes: simple,
            early_nodes: early,
            edges,
        }
    }
}

/// Tiny deterministic string hash so each profile gets decorrelated
/// generator seeds (FxHash-style multiply-xor).
fn fxhash(s: &str) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for b in s.bytes() {
        h = (h ^ b as u64).wrapping_mul(0x0100_0000_01b3);
    }
    h
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generate::check_generated;

    #[test]
    fn table_has_all_rows() {
        assert_eq!(TABLE2.len(), 18);
        assert_eq!(IscasProfile::by_name("s526").unwrap().edges, 71);
        assert!(IscasProfile::by_name("s9999").is_none());
    }

    #[test]
    fn profiles_generate_valid_graphs() {
        // Keep the test quick: the small and mid profiles.
        for name in ["s208", "s27", "s526", "s382", "s400"] {
            let p = IscasProfile::by_name(name).unwrap();
            let g = p.generate(1);
            check_generated(&g, &p.params()).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn different_profiles_get_different_seeds() {
        // s208, s838 and s420 share sizes; the name hash must still
        // decorrelate their structures.
        let a = IscasProfile::by_name("s208").unwrap().generate(1);
        let b = IscasProfile::by_name("s838").unwrap().generate(1);
        let ea: Vec<_> = a.edges().map(|(_, e)| (e.source(), e.target())).collect();
        let eb: Vec<_> = b.edges().map(|(_, e)| (e.source(), e.target())).collect();
        assert_ne!(ea, eb);
    }

    #[test]
    fn scaling_caps_edges_and_keeps_early_nodes() {
        let p = IscasProfile::by_name("s1488").unwrap();
        let s = p.scaled(150);
        assert!(s.edges <= 150);
        assert!(s.early_nodes >= 1);
        assert!(s.edges >= s.nodes());
        let g = s.generate(3);
        assert_eq!(g.num_edges(), s.edges);
        // Unscaled profiles pass through.
        let small = IscasProfile::by_name("s27").unwrap();
        assert_eq!(small.scaled(150), small);
        // Every profile at every tiny cap generates a valid graph, one
        // above the cap only where the cap is below `simple + 2·early`.
        for p in TABLE2 {
            for cap in 0..=10 {
                let s = p.scaled(cap);
                let floor = s.simple_nodes + 2 * s.early_nodes;
                assert!(s.early_nodes >= 1, "{} at {cap}", p.name);
                assert!(s.edges >= floor, "{} at {cap}: {s:?}", p.name);
                assert!(s.edges <= cap.max(floor), "{} at {cap}: {s:?}", p.name);
                let g = s.generate(2009);
                check_generated(&g, &s.params())
                    .unwrap_or_else(|e| panic!("{} at {cap}: {e}", p.name));
            }
        }
    }
}
