//! The LP throughput upper bound — problem (4) of the paper.
//!
//! For a TGMG with delays δ, markings `m0` and guard probabilities γ the
//! steady-state throughput is bounded by the optimum of
//!
//! ```text
//! max φ
//!   δ(n)·φ ≤ m̂(e)                    n simple, e ∈ •n
//!   δ(n)·φ ≤ Σ_{e∈•n} γ(e)·m̂(e)      n early
//!   m̂(e) = m0(e) + σ(u) − σ(v)       e = (u, v)
//! ```
//!
//! with free node potentials σ. For guard-free graphs this LP computes the
//! exact minimum cycle ratio; with early evaluation it is a (sometimes
//! loose) upper bound — the paper's Table 1 `err%` column quantifies the
//! gap against simulation.

use rr_milp::{cmp, LinExpr, Model, Sense, SolveError, SolverOptions};
use rr_rrg::NodeKind;

use crate::gmg::Tgmg;

/// Throughput upper bound `Θ_lp` of a TGMG.
///
/// Returns `f64::INFINITY` when the LP is unbounded (possible only for
/// graphs that are not strongly connected, e.g. acyclic pipelines whose
/// fluid throughput is unlimited).
///
/// # Errors
///
/// Propagates solver failures. A structurally valid TGMG is always
/// feasible (φ = 0, σ = 0), so [`SolveError::Infeasible`] indicates a
/// malformed marking.
pub fn throughput_upper_bound(t: &Tgmg) -> Result<f64, SolveError> {
    throughput_upper_bound_with(t, &SolverOptions::default())
}

/// [`throughput_upper_bound`] with explicit solver options.
///
/// # Errors
///
/// See [`throughput_upper_bound`].
pub fn throughput_upper_bound_with(t: &Tgmg, opts: &SolverOptions) -> Result<f64, SolveError> {
    let mut m = Model::new(Sense::Maximize);
    let phi = m.add_continuous("phi", 0.0, f64::INFINITY);
    let sigma: Vec<_> = (0..t.num_nodes())
        .map(|i| m.add_free(format!("sigma_{i}")))
        .collect();
    m.set_objective(LinExpr::var(phi));

    for (i, node) in t.nodes.iter().enumerate() {
        match node.kind {
            NodeKind::Simple => {
                for &e in &t.pred[i] {
                    let edge = &t.edges[e];
                    // δ·φ − σ(u) + σ(v) ≤ m0
                    let expr = node.delay * phi - sigma[edge.from] + sigma[edge.to];
                    m.add_constraint(expr, cmp::LE, edge.marking as f64);
                }
            }
            NodeKind::EarlyEval => {
                // δ·φ ≤ Σ γ(e)·(m0(e) + σ(u) − σ(v))
                let mut expr = node.delay * phi;
                let mut rhs = 0.0;
                for &e in &t.pred[i] {
                    let edge = &t.edges[e];
                    let g = edge.gamma.expect("early input without γ");
                    expr += g * (LinExpr::var(sigma[edge.to]) - sigma[edge.from]);
                    rhs += g * edge.marking as f64;
                }
                m.add_constraint(expr, cmp::LE, rhs);
            }
        }
    }

    // The model is a pure LP (φ and the free potentials are continuous),
    // so the relaxation *is* the problem.
    match m.solve_relaxation(opts) {
        Ok(sol) => Ok(sol[phi]),
        Err(SolveError::Unbounded) => Ok(f64::INFINITY),
        Err(e) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::skeleton::tgmg_of;
    use rr_rrg::figures;

    #[test]
    fn bubble_free_graph_has_unit_throughput() {
        let t = tgmg_of(&figures::figure_1a(0.5));
        let b = throughput_upper_bound(&t).unwrap();
        assert!((b - 1.0).abs() < 1e-6, "bound {b}");
    }

    #[test]
    fn late_figure_1b_bound_is_one_third() {
        // With late evaluation the bound equals the exact minimum cycle
        // ratio 1/3.
        let t = tgmg_of(&figures::figure_1b(0.5).with_late_evaluation());
        let b = throughput_upper_bound(&t).unwrap();
        assert!((b - 1.0 / 3.0).abs() < 1e-6, "bound {b}");
    }

    #[test]
    fn early_evaluation_raises_the_bound() {
        let late =
            throughput_upper_bound(&tgmg_of(&figures::figure_1b(0.9).with_late_evaluation()))
                .unwrap();
        let early = throughput_upper_bound(&tgmg_of(&figures::figure_1b(0.9))).unwrap();
        assert!(early > late + 0.1, "early {early} should beat late {late}");
        assert!(early <= 1.0 + 1e-6);
    }

    #[test]
    fn figure_2_bound_upper_bounds_closed_form() {
        for &alpha in &[0.3, 0.5, 0.9] {
            let t = tgmg_of(&figures::figure_2(alpha));
            let b = throughput_upper_bound(&t).unwrap();
            let exact = figures::figure_2_throughput(alpha);
            assert!(
                b >= exact - 1e-6,
                "α={alpha}: bound {b} below exact {exact}"
            );
            assert!(b <= 1.0 + 1e-6);
        }
    }

    #[test]
    fn acyclic_graph_is_unbounded() {
        use crate::gmg::{Tgmg, TgmgEdge, TgmgNode};
        use rr_rrg::NodeKind;
        let t = Tgmg::new(
            vec![
                TgmgNode {
                    name: "a".into(),
                    kind: NodeKind::Simple,
                    delay: 1.0,
                },
                TgmgNode {
                    name: "b".into(),
                    kind: NodeKind::Simple,
                    delay: 1.0,
                },
            ],
            vec![TgmgEdge {
                from: 0,
                to: 1,
                marking: 0,
                gamma: None,
            }],
        );
        assert!(throughput_upper_bound(&t).unwrap().is_infinite());
    }
}
