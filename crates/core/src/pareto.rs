//! Non-dominated configuration bookkeeping (Definition 4.1): `RC1`
//! dominates `RC2` when it is strictly faster in throughput and no slower
//! in cycle time.

use crate::evaluate::RcEvaluation;

/// `true` when `a` dominates `b` w.r.t. the LP throughput bound
/// (Definition 4.1: Θ(a) > Θ(b) and τ(a) ≤ τ(b)).
pub fn dominates_lp(a: &RcEvaluation, b: &RcEvaluation) -> bool {
    a.theta_lp > b.theta_lp + 1e-9 && a.tau <= b.tau + 1e-9
}

/// Indices of the evaluations not dominated by any other (w.r.t. Θ_lp).
pub fn non_dominated_indices(evals: &[RcEvaluation]) -> Vec<usize> {
    (0..evals.len())
        .filter(|&i| !evals.iter().any(|other| dominates_lp(other, &evals[i])))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr_rrg::Config;

    fn eval(tau: f64, theta_lp: f64) -> RcEvaluation {
        RcEvaluation {
            config: Config {
                tokens: vec![],
                buffers: vec![],
            },
            tau,
            theta_lp,
            theta_sim: theta_lp,
            xi_lp: tau / theta_lp,
            xi_sim: tau / theta_lp,
            err_pct: 0.0,
            proven_optimal: true,
        }
    }

    #[test]
    fn domination_is_strict_in_throughput() {
        let fast = eval(2.0, 0.8);
        let slow = eval(2.0, 0.5);
        assert!(dominates_lp(&fast, &slow));
        assert!(!dominates_lp(&slow, &fast));
        // Equal throughput never dominates.
        assert!(!dominates_lp(&fast, &eval(3.0, 0.8)));
    }

    #[test]
    fn pruning_keeps_the_frontier() {
        let evals = vec![
            eval(1.0, 0.3),  // frontier (fastest clock)
            eval(2.0, 0.25), // dominated by both neighbours
            eval(2.5, 0.9),  // frontier
            eval(3.0, 1.0),  // frontier
        ];
        assert_eq!(non_dominated_indices(&evals), vec![0, 2, 3]);
    }

    #[test]
    fn identical_points_survive() {
        let evals = vec![eval(1.0, 0.5), eval(1.0, 0.5)];
        assert_eq!(non_dominated_indices(&evals), vec![0, 1]);
    }
}
