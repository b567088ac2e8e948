//! Finite variable bounds for the MILP formulations.
//!
//! The paper leaves variable ranges to CPLEX; our branch & bound prefers
//! explicit finite bounds for the integer variables. The bounds below are
//! conservative (they provably contain an optimal solution) but not
//! tight; see the inline arguments.

use rr_rrg::Rrg;

/// Bounds derived from one RRG.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct VarBounds {
    /// Upper bound on any `R'(e)` (buffer count per edge).
    pub max_buffers: i64,
    /// Symmetric bound on retiming values `|r(n)|`.
    pub max_retiming: i64,
    /// Upper bound on `x = 1/Θ`.
    pub max_x: f64,
    /// `τ*`, the total delay: no combinational path is longer, so it
    /// bounds every departure time. It is the path rows' big-M where τ
    /// exceeds it and where no smaller `MIN_CYC` ceiling is admitted.
    pub tau_star: f64,
}

/// Computes bounds for `g`.
///
/// * `max_buffers`: throughput and cycle time depend on token *positions*
///   only through `R' ≥ R0'`; since Θ_lp is invariant under retiming of a
///   fixed `R'` (the σ-absorption argument), an optimal solution never
///   needs an edge to hold more than every positive token in the graph
///   plus one timing bubble.
/// * `max_retiming`: given feasible buffers, a witness retiming exists
///   whose Bellman–Ford potentials are bounded by
///   `|N| · (max_buffers + max|R0| + 1)`.
/// * `max_x`: Θ of any live configuration within the buffer bound is at
///   least one token per full revolution of the longest possible cycle.
pub fn bounds_of(g: &Rrg) -> VarBounds {
    let positive_tokens = g.total_positive_tokens();
    let max_buffers = positive_tokens + 2;
    let max_abs_tokens = g.edges().map(|(_, e)| e.tokens().abs()).max().unwrap_or(0);
    let n = g.num_nodes() as i64;
    let max_retiming = n * (max_buffers + max_abs_tokens + 1);
    let max_x = (g.num_edges() as f64) * (max_buffers as f64) + 2.0;
    VarBounds {
        max_buffers,
        max_retiming,
        max_x,
        tau_star: g.total_delay().max(g.max_delay()).max(1e-9),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr_rrg::figures;

    #[test]
    fn figure_bounds_contain_known_optima() {
        let g = figures::figure_1a(0.9);
        let b = bounds_of(&g);
        // Figure 2's configuration uses at most 1 buffer per edge and
        // retimings within ±2 — well inside the bounds.
        assert!(b.max_buffers >= 4);
        assert!(b.max_retiming >= 2);
        assert!(b.tau_star >= 3.0);
        assert!(b.max_x >= 3.0);
    }

    #[test]
    fn bounds_scale_with_graph() {
        let small = bounds_of(&figures::figure_1a(0.5));
        let big = bounds_of(&rr_rrg::generate::random_rrg(30, 5, 80, 7));
        assert!(big.max_retiming > small.max_retiming);
    }
}
