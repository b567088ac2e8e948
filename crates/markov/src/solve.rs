//! Stationary solve on the terminal strongly connected components.
//!
//! The components come from the workspace's one SCC routine,
//! [`rr_rrg::algo::tarjan`], run over the chain's successor lists; a
//! component no transition leaves is a terminal (recurrent) class. Each
//! class is copied once into local indices, row-wise and column-wise
//! (`LocalClass`), and the per-class solve reads that copy.
//!
//! The per-class solve computes `π P = π, Σπ = 1` by a Gauss–Seidel sweep
//! over the in-transition (CSC) structure of the class, normalised each
//! pass, with a rigorous residual-based stopping rule `‖πP − π‖₁ < ε`.
//! When the sweep stalls (periodic classes can make plain Gauss–Seidel
//! oscillate) it degrades to damped power steps `π ← (π + πP)/2`, which
//! converge on any irreducible class, and when their budget runs out, to
//! the Cesàro average of the damped iterates. Memory and per-sweep work
//! are `O(transitions)`.
//!
//! `solve_classes` takes the per-class solve as an argument. Production
//! passes the sparse solve with the stage budgets below; the tests pass
//! shrunken budgets, which reach the lower rungs, and the original
//! `O(k³)` Gauss–Jordan elimination, the cross-validation oracle, which
//! exists only in test builds and refuses classes beyond
//! `DENSE_STATE_CAP` states.
//!
//! A chain with several terminal classes solves each class the same way
//! and weights its throughput `Θ_k` by the probability `a_k` that the
//! chain, started in state 0, is absorbed into it: `Θ = Σ_k a_k·Θ_k`.
//! Chain building already stops at its `max_states`, so a class needs no
//! size cap of its own.

use crate::chain::Chain;
use crate::{MarkovError, MarkovResult, SolveQuality};

/// Gauss–Seidel sweeps before the solve falls back to damped power steps.
const GAUSS_SEIDEL_SWEEPS: usize = 10_000;

/// Damped power steps before the solve degrades to the Cesàro average.
pub(crate) const DAMPED_STEPS: usize = 4_000_000;

/// Transient probability mass left over when the absorption
/// probabilities are taken as final.
const ABSORPTION_EPS: f64 = 1e-15;

/// Steps of the absorption push before [`MarkovError::NoConvergence`].
const ABSORPTION_STEPS: usize = 1 << 20;

/// `‖πP − π‖₁` threshold of the sparse iterative solver, scaled mildly
/// with the class size to stay achievable in double precision.
fn residual_eps(k: usize) -> f64 {
    1e-13 + k as f64 * 1e-15
}

/// Finds the terminal classes and solves for the long-run throughput.
pub fn solve_chain(chain: &Chain) -> Result<MarkovResult, MarkovError> {
    solve_classes(chain, |class| {
        Ok(stationary_sparse(class, GAUSS_SEIDEL_SWEEPS, DAMPED_STEPS))
    })
}

/// Finds the terminal classes, solves each with `solve_class` (its
/// throughput and the rung that produced it) and weights the answers by
/// their absorption probabilities.
fn solve_classes(
    chain: &Chain,
    mut solve_class: impl FnMut(&LocalClass) -> Result<(f64, SolveQuality), MarkovError>,
) -> Result<MarkovResult, MarkovError> {
    let n = chain.num_states();
    let sccs = rr_rrg::algo::tarjan(n, |v, k| chain.succs(v).get(k).map(|&w| w as usize));
    let mut comp_of = vec![usize::MAX; n];
    for (ci, comp) in sccs.iter().enumerate() {
        for &s in comp {
            comp_of[s] = ci;
        }
    }
    // Terminal SCCs: no transition leaves the component. `class_of` maps
    // their states to the class index and transient states to `None`.
    let mut classes: Vec<Vec<usize>> = Vec::new();
    let mut class_of = vec![None; n];
    'comp: for (ci, comp) in sccs.iter().enumerate() {
        for &s in comp {
            for &t in chain.succs(s) {
                if comp_of[t as usize] != ci {
                    continue 'comp;
                }
            }
        }
        for &s in comp {
            class_of[s] = Some(classes.len());
        }
        let mut comp = comp.clone();
        comp.sort_unstable();
        classes.push(comp);
    }

    let weights = if classes.len() == 1 {
        vec![1.0]
    } else {
        absorption(chain, &class_of, classes.len())?
    };
    let mut throughput = 0.0f64;
    let mut quality = SolveQuality::Direct;
    for (comp, weight) in classes.iter().zip(&weights) {
        let (theta, q) = solve_class(&LocalClass::new(chain, comp))?;
        throughput += weight * theta;
        quality = quality.max(q);
    }
    Ok(MarkovResult {
        throughput,
        states: n,
        recurrent_states: classes.iter().map(Vec::len).sum(),
        exact: quality != SolveQuality::CesaroAverage,
        quality,
    })
}

/// Probability of absorption into each terminal class from state 0, which
/// is transient whenever there are several classes (every state is
/// reachable from it). The transient mass is pushed forward one step at a
/// time until at most [`ABSORPTION_EPS`] of it is left.
fn absorption(
    chain: &Chain,
    class_of: &[Option<usize>],
    classes: usize,
) -> Result<Vec<f64>, MarkovError> {
    let transient: Vec<usize> = (0..chain.num_states())
        .filter(|&s| class_of[s].is_none())
        .collect();
    let mut absorbed = vec![0.0f64; classes];
    let mut mass = vec![0.0f64; chain.num_states()];
    let mut next = mass.clone();
    mass[0] = 1.0;
    for _ in 0..ABSORPTION_STEPS {
        for &s in &transient {
            let m = std::mem::take(&mut mass[s]);
            if m == 0.0 {
                continue;
            }
            for (t, p, _) in chain.row(s) {
                match class_of[t] {
                    Some(c) => absorbed[c] += m * p,
                    None => next[t] += m * p,
                }
            }
        }
        std::mem::swap(&mut mass, &mut next);
        if transient.iter().map(|&s| mass[s]).sum::<f64>() <= ABSORPTION_EPS {
            return Ok(absorbed);
        }
    }
    Err(MarkovError::NoConvergence)
}

/// The terminal class of `chain` restricted to local indices, stored both
/// row-wise (CSR, for residuals, power steps and the dense oracle) and
/// column-wise (CSC, for Gauss–Seidel updates), with each state's
/// expected reward.
struct LocalClass {
    /// CSR: out-transitions `(local target, prob)` per local state.
    out_offsets: Vec<usize>,
    out_cols: Vec<u32>,
    out_probs: Vec<f64>,
    /// CSC: in-transitions `(local source, prob)` per local state, with
    /// self-loops split out into `self_prob`.
    in_offsets: Vec<usize>,
    in_rows: Vec<u32>,
    in_probs: Vec<f64>,
    self_prob: Vec<f64>,
    /// `r̄(s)` per local state.
    reward: Vec<f64>,
}

impl LocalClass {
    /// Builds the local CSR/CSC pair for a terminal class (`comp` sorted
    /// ascending). All transitions of a terminal class stay inside it.
    fn new(chain: &Chain, comp: &[usize]) -> LocalClass {
        let k = comp.len();
        let mut out_offsets = Vec::with_capacity(k + 1);
        let mut out_cols = Vec::new();
        let mut out_probs = Vec::new();
        let mut self_prob = vec![0.0f64; k];
        let mut in_degree = vec![0usize; k];
        out_offsets.push(0);
        for (i, &s) in comp.iter().enumerate() {
            for (t, p, _) in chain.row(s) {
                // `comp` is sorted, and no transition leaves the class.
                let j = comp.binary_search(&t).expect("closed class") as u32;
                out_cols.push(j);
                out_probs.push(p);
                if j as usize == i {
                    self_prob[i] += p;
                } else {
                    in_degree[j as usize] += 1;
                }
            }
            out_offsets.push(out_cols.len());
        }
        // Scatter the transposed (CSC) structure, self-loops excluded.
        let mut in_offsets = vec![0usize; k + 1];
        for j in 0..k {
            in_offsets[j + 1] = in_offsets[j] + in_degree[j];
        }
        let mut cursor = in_offsets.clone();
        let mut in_rows = vec![0u32; in_offsets[k]];
        let mut in_probs = vec![0.0f64; in_offsets[k]];
        for i in 0..k {
            for idx in out_offsets[i]..out_offsets[i + 1] {
                let j = out_cols[idx] as usize;
                if j != i {
                    in_rows[cursor[j]] = i as u32;
                    in_probs[cursor[j]] = out_probs[idx];
                    cursor[j] += 1;
                }
            }
        }
        LocalClass {
            out_offsets,
            out_cols,
            out_probs,
            in_offsets,
            in_rows,
            in_probs,
            self_prob,
            reward: comp.iter().map(|&s| chain.expected_reward(s)).collect(),
        }
    }

    fn num_states(&self) -> usize {
        self.self_prob.len()
    }

    /// `Σ_s π(s)·r̄(s)` over the class.
    fn throughput(&self, pi: &[f64]) -> f64 {
        pi.iter().zip(&self.reward).map(|(&p, &r)| p * r).sum()
    }

    /// `next ← πP` (dense over the class, sparse over transitions).
    fn apply(&self, pi: &[f64], next: &mut [f64]) {
        next.iter_mut().for_each(|x| *x = 0.0);
        for (i, &p) in pi.iter().enumerate() {
            if p == 0.0 {
                continue;
            }
            for idx in self.out_offsets[i]..self.out_offsets[i + 1] {
                next[self.out_cols[idx] as usize] += p * self.out_probs[idx];
            }
        }
    }
}

/// `‖πP − π‖₁`, reusing `scratch` for the product.
fn residual(class: &LocalClass, pi: &[f64], scratch: &mut [f64]) -> f64 {
    class.apply(pi, scratch);
    pi.iter()
        .zip(scratch.iter())
        .map(|(a, b)| (a - b).abs())
        .sum()
}

/// Sparse iterative stationary throughput on one terminal class: up to
/// `max_sweeps` Gauss–Seidel sweeps with a fallback to up to `max_steps`
/// damped power steps, stopping on the `‖πP − π‖₁` residual. Never fails
/// — when both iterative phases exhaust their budgets the Cesàro average
/// of the damped-power iterates is returned with
/// [`SolveQuality::CesaroAverage`] (a budget overrun on a well-formed
/// chain should degrade the answer's pedigree, not destroy the whole
/// sweep that asked for it).
fn stationary_sparse(
    class: &LocalClass,
    max_sweeps: usize,
    max_steps: usize,
) -> (f64, SolveQuality) {
    let k = class.num_states();
    if k == 1 {
        return (class.reward[0], SolveQuality::Direct);
    }
    let eps = residual_eps(k);
    let mut pi = vec![1.0 / k as f64; k];
    let mut scratch = vec![0.0f64; k];

    // Phase 1: Gauss–Seidel sweeps. π_j ← Σ_{i≠j} π_i p_ij / (1 − p_jj),
    // consuming already-updated entries — typically a few dozen sweeps
    // even on 10⁵-state classes. With no sweep at all the solve goes
    // where the rising-residual detector sends a periodic class.
    let mut prev_res = f64::INFINITY;
    let mut rising = 0u32;
    for _ in 0..max_sweeps {
        for j in 0..k {
            let mut acc = 0.0f64;
            for idx in class.in_offsets[j]..class.in_offsets[j + 1] {
                acc += pi[class.in_rows[idx] as usize] * class.in_probs[idx];
            }
            let denom = 1.0 - class.self_prob[j];
            // `denom` can only vanish on an absorbing singleton, handled
            // above; guard against pathological rounding anyway.
            pi[j] = if denom > 1e-300 { acc / denom } else { acc };
        }
        let mass: f64 = pi.iter().sum();
        if !(mass.is_finite() && mass > 0.0) {
            break; // diverged — let the damped-power phase restart it
        }
        let inv = 1.0 / mass;
        pi.iter_mut().for_each(|x| *x *= inv);
        let res = residual(class, &pi, &mut scratch);
        if res < eps {
            return (class.throughput(&pi), SolveQuality::GaussSeidel);
        }
        rising = if res >= prev_res { rising + 1 } else { 0 };
        prev_res = res;
        if rising >= 8 {
            break; // oscillating (periodic class): switch to damped power
        }
    }

    // Phase 2: damped power steps π ← (π + πP)/2. The ½ damping makes the
    // iteration aperiodic, so it converges on any irreducible class; the
    // residual is read off the same product. A Cesàro running average of
    // the iterates is kept alongside: it is the degraded answer should
    // the budget run out.
    if pi.iter().any(|x| !x.is_finite()) {
        pi.iter_mut().for_each(|x| *x = 1.0 / k as f64);
    }
    let mut cesaro = vec![0.0f64; k];
    for _ in 0..max_steps {
        class.apply(&pi, &mut scratch);
        let mut res = 0.0f64;
        let mut mass = 0.0f64;
        for (p, q) in pi.iter_mut().zip(scratch.iter()) {
            res += (*p - *q).abs();
            *p = 0.5 * (*p + *q);
            mass += *p;
        }
        let inv = 1.0 / mass;
        for (p, c) in pi.iter_mut().zip(cesaro.iter_mut()) {
            *p *= inv;
            *c += *p;
        }
        if res < eps {
            return (class.throughput(&pi), SolveQuality::DampedPower);
        }
    }
    // Budget exhausted: degrade to the Cesàro average — the time average
    // of the damped iterates, which converges (slowly but surely) to the
    // stationary distribution even when the pointwise iteration crawls.
    let mass: f64 = cesaro.iter().sum();
    if mass.is_finite() && mass > 0.0 {
        let inv = 1.0 / mass;
        cesaro.iter_mut().for_each(|x| *x *= inv);
    } else {
        // Even the average is unusable; report the uniform distribution
        // rather than NaNs — quality already says "do not trust blindly".
        cesaro.iter_mut().for_each(|x| *x = 1.0 / k as f64);
    }
    (class.throughput(&cesaro), SolveQuality::CesaroAverage)
}

/// Test seam: the chain solved with explicit stage budgets. No
/// Gauss–Seidel sweep reaches the damped-power rung, and a handful of
/// damped steps as well the Cesàro rung.
#[cfg(test)]
pub(crate) fn solve_chain_budgeted(
    chain: &Chain,
    max_sweeps: usize,
    max_steps: usize,
) -> Result<MarkovResult, MarkovError> {
    solve_classes(chain, |class| {
        Ok(stationary_sparse(class, max_sweeps, max_steps))
    })
}

/// Beyond this many recurrent states the dense oracle's `O(k³)`
/// elimination is hopeless, and it refuses the class.
#[cfg(test)]
pub(crate) const DENSE_STATE_CAP: usize = 2_000;

/// Test seam: the chain solved by the dense oracle, which refuses a class
/// beyond [`DENSE_STATE_CAP`] states with
/// [`MarkovError::StateSpaceTooLarge`] at that limit.
#[cfg(test)]
pub(crate) fn solve_chain_dense(chain: &Chain) -> Result<MarkovResult, MarkovError> {
    solve_classes(chain, |class| {
        if class.num_states() > DENSE_STATE_CAP {
            return Err(MarkovError::StateSpaceTooLarge {
                limit: DENSE_STATE_CAP,
            });
        }
        Ok((stationary_dense(class), SolveQuality::Direct))
    })
}

/// Solves `π P = π, Σπ = 1` on one recurrent class by dense Gaussian
/// elimination and returns `Σ_s π(s)·r̄(s)` — the cross-validation oracle.
#[cfg(test)]
fn stationary_dense(class: &LocalClass) -> f64 {
    let k = class.num_states();
    // Rows 0..k-1: (P^T − I) π = 0, last row replaced by Σπ = 1.
    let w = k + 1;
    let mut a = vec![0.0f64; k * w];
    for i in 0..k {
        for idx in class.out_offsets[i]..class.out_offsets[i + 1] {
            a[class.out_cols[idx] as usize * w + i] += class.out_probs[idx];
        }
    }
    for d in 0..k {
        a[d * w + d] -= 1.0;
    }
    for c in 0..k {
        a[(k - 1) * w + c] = 1.0;
    }
    a[(k - 1) * w + k] = 1.0;

    gaussian_solve(&mut a, k);
    let pi: Vec<f64> = (0..k).map(|i| a[i * w + k]).collect();
    class.throughput(&pi)
}

/// In-place Gauss–Jordan with partial pivoting on a `k × (k+1)` augmented
/// system; the solution lands in the last column.
#[cfg(test)]
fn gaussian_solve(a: &mut [f64], k: usize) {
    let w = k + 1;
    for col in 0..k {
        let mut best = col;
        for r in col + 1..k {
            if a[r * w + col].abs() > a[best * w + col].abs() {
                best = r;
            }
        }
        if best != col {
            for c in 0..w {
                a.swap(col * w + c, best * w + c);
            }
        }
        let pivot = a[col * w + col];
        if pivot.abs() < 1e-12 {
            continue; // singular direction; the normalisation row disambiguates
        }
        for r in 0..k {
            if r != col {
                let f = a[r * w + col] / pivot;
                if f != 0.0 {
                    for c in col..w {
                        a[r * w + c] -= f * a[col * w + c];
                    }
                }
            }
        }
        let inv = 1.0 / pivot;
        for c in col..w {
            a[col * w + c] *= inv;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// From 0, state 1 is absorbed into the firing self-loop {2} with
    /// probability 0.3, into the 2-cycle {3, 4} (Θ = 1/2) with probability
    /// 0.2, and returns to 0 otherwise: a_{2} = 0.6, a_{3,4} = 0.4, so
    /// Θ = 0.6·1 + 0.4·0.5 = 0.8 under the sparse solve and the dense
    /// oracle.
    #[test]
    fn terminal_classes_are_weighted_by_their_absorption_probability() {
        let chain = Chain::from_rows(&[
            &[(1, 1.0, 0.0)],
            &[(2, 0.3, 0.0), (0, 0.5, 0.0), (3, 0.2, 0.0)],
            &[(2, 1.0, 1.0)],
            &[(4, 1.0, 1.0)],
            &[(3, 1.0, 0.0)],
        ]);
        for (solver, r) in [
            ("sparse", solve_chain(&chain)),
            ("dense", solve_chain_dense(&chain)),
        ] {
            let r = r.unwrap();
            assert!((r.throughput - 0.8).abs() < 1e-12, "{solver}: {r:?}");
            assert!(r.exact, "{solver}: {r:?}");
            assert_eq!((r.states, r.recurrent_states), (5, 3));
        }
    }

    /// Transient mass that leaks out at 1e-7 per step cannot drain below
    /// 1e-15 within the absorption budget: the solve reports
    /// `NoConvergence` instead of a throughput.
    #[test]
    fn slow_absorption_reports_no_convergence() {
        let chain = Chain::from_rows(&[
            &[(0, 1.0 - 1e-7, 0.0), (1, 5e-8, 0.0), (2, 5e-8, 0.0)],
            &[(1, 1.0, 1.0)],
            &[(2, 1.0, 0.0)],
        ]);
        let err = solve_chain(&chain).unwrap_err();
        assert_eq!(err, MarkovError::NoConvergence);
    }
}
