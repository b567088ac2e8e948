//! Stationary solve on the terminal strongly connected component.
//!
//! Two interchangeable solvers compute `π P = π, Σπ = 1` on the recurrent
//! class (selected by [`MarkovParams::solver`]):
//!
//! * [`StationarySolver::SparseIterative`] — the production path: a
//!   Gauss–Seidel sweep over the in-transition (CSC) structure of the
//!   class, normalised each pass, with a rigorous residual-based stopping
//!   rule `‖πP − π‖₁ < ε`. When the sweep stalls (periodic classes can
//!   make plain Gauss–Seidel oscillate) it degrades to damped power steps
//!   `π ← (π + πP)/2`, which converge on any irreducible class. Memory
//!   and per-sweep work are `O(transitions)`.
//! * [`StationarySolver::DenseGaussJordan`] — the original `O(k³)`
//!   elimination, kept as a cross-validation oracle. It refuses classes
//!   beyond [`DENSE_STATE_CAP`] states instead of grinding.
//!
//! Multi-terminal chains fall back to the Cesàro-averaged power
//! iteration in [`crate::power`]. Chain building already stops at
//! [`MarkovParams::max_states`], so a single terminal class needs no
//! size cap of its own.

use std::collections::HashMap;

use crate::chain::Chain;
use crate::power::power_iteration;
use crate::{MarkovError, MarkovParams, MarkovResult, SolveQuality, StationarySolver};

/// Hard cap on the dense oracle: beyond this many recurrent states the
/// `O(k³)` elimination is hopeless and [`MarkovError::DenseSolveTooLarge`]
/// is returned instead. (This was the silent fallback threshold of the
/// old dense-only engine.)
pub const DENSE_STATE_CAP: usize = 2_000;

/// `‖πP − π‖₁` threshold of the sparse iterative solver, scaled mildly
/// with the class size to stay achievable in double precision.
fn residual_eps(k: usize) -> f64 {
    1e-13 + k as f64 * 1e-15
}

/// Finds the recurrent class and solves for the stationary throughput.
pub fn solve_chain(chain: &Chain, params: &MarkovParams) -> Result<MarkovResult, MarkovError> {
    let n = chain.num_states();
    let sccs = tarjan(chain);
    let mut comp_of = vec![usize::MAX; n];
    for (ci, comp) in sccs.iter().enumerate() {
        for &s in comp {
            comp_of[s] = ci;
        }
    }
    // Terminal SCCs: no transition leaves the component.
    let mut terminal: Vec<usize> = Vec::new();
    'comp: for (ci, comp) in sccs.iter().enumerate() {
        for &s in comp {
            for &t in chain.succs(s) {
                if comp_of[t as usize] != ci {
                    continue 'comp;
                }
            }
        }
        terminal.push(ci);
    }

    if terminal.len() == 1 {
        let mut comp = sccs[terminal[0]].clone();
        comp.sort_unstable();
        let (theta, quality) = match params.solver {
            StationarySolver::SparseIterative => stationary_sparse(chain, &comp, params),
            StationarySolver::DenseGaussJordan => {
                if comp.len() > DENSE_STATE_CAP {
                    return Err(MarkovError::DenseSolveTooLarge {
                        states: comp.len(),
                        cap: DENSE_STATE_CAP,
                    });
                }
                (stationary_dense(chain, &comp), SolveQuality::Direct)
            }
        };
        Ok(MarkovResult {
            throughput: theta,
            states: n,
            recurrent_states: comp.len(),
            exact: quality != SolveQuality::CesaroAverage,
            quality,
        })
    } else {
        // Multi-terminal: Cesàro-averaged power iteration from the
        // initial state.
        let theta = power_iteration(chain).ok_or(MarkovError::NoConvergence)?;
        Ok(MarkovResult {
            throughput: theta,
            states: n,
            recurrent_states: terminal.iter().map(|&c| sccs[c].len()).sum(),
            exact: false,
            quality: SolveQuality::CesaroAverage,
        })
    }
}

/// The terminal class of `chain` restricted to local indices, stored both
/// row-wise (CSR, for residuals and power steps) and column-wise (CSC,
/// for Gauss–Seidel updates).
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
}

impl LocalClass {
    /// Builds the local CSR/CSC pair for a terminal class (`comp` sorted
    /// ascending). All transitions of a terminal class stay inside it.
    fn new(chain: &Chain, comp: &[usize]) -> LocalClass {
        let k = comp.len();
        let mut local = HashMap::with_capacity(k);
        for (i, &s) in comp.iter().enumerate() {
            local.insert(s, i as u32);
        }
        let mut out_offsets = Vec::with_capacity(k + 1);
        let mut out_cols = Vec::new();
        let mut out_probs = Vec::new();
        let mut self_prob = vec![0.0f64; k];
        let mut in_degree = vec![0usize; k];
        out_offsets.push(0);
        for (i, &s) in comp.iter().enumerate() {
            for (t, p, _) in chain.row(s) {
                let j = local[&t];
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
        }
    }

    fn num_states(&self) -> usize {
        self.self_prob.len()
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

/// Sparse iterative stationary throughput on one terminal class:
/// Gauss–Seidel with damped-power fallback, stopping on the `‖πP − π‖₁`
/// residual. Never fails — when both iterative phases exhaust their
/// budgets the Cesàro average of the damped-power iterates is returned
/// with [`SolveQuality::CesaroAverage`] (a budget overrun on a
/// well-formed chain should degrade the answer's pedigree, not destroy
/// the whole sweep that asked for it).
fn stationary_sparse(chain: &Chain, comp: &[usize], params: &MarkovParams) -> (f64, SolveQuality) {
    let faults = params.faults.unwrap_or_default();
    let class = LocalClass::new(chain, comp);
    let k = class.num_states();
    if k == 1 {
        return (chain.expected_reward(comp[0]), SolveQuality::Direct);
    }
    let eps = residual_eps(k);
    let mut pi = vec![1.0 / k as f64; k];
    let mut scratch = vec![0.0f64; k];

    // Phase 1: Gauss–Seidel sweeps. π_j ← Σ_{i≠j} π_i p_ij / (1 − p_jj),
    // consuming already-updated entries — typically a few dozen sweeps
    // even on 10⁵-state classes. The injected stall reproduces what the
    // rising-residual detector does on a periodic class.
    let max_sweeps = if faults.stall_gauss_seidel { 0 } else { 10_000 };
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
        let res = residual(&class, &pi, &mut scratch);
        if res < eps {
            return (
                class_throughput(chain, comp, &pi),
                SolveQuality::GaussSeidel,
            );
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
    // The injected stall leaves a budget far too small for the residual
    // tolerance yet big enough to seed a meaningful Cesàro average.
    let max_steps = if faults.stall_damped_power {
        16
    } else {
        4_000_000
    };
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
            return (
                class_throughput(chain, comp, &pi),
                SolveQuality::DampedPower,
            );
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
    (
        class_throughput(chain, comp, &cesaro),
        SolveQuality::CesaroAverage,
    )
}

/// `Σ_s π(s)·r̄(s)` over the class.
fn class_throughput(chain: &Chain, comp: &[usize], pi: &[f64]) -> f64 {
    comp.iter()
        .zip(pi.iter())
        .map(|(&s, &p)| p * chain.expected_reward(s))
        .sum()
}

/// Solves `π P = π, Σπ = 1` on one recurrent class by dense Gaussian
/// elimination and returns `Σ_s π(s)·r̄(s)` — the cross-validation oracle.
fn stationary_dense(chain: &Chain, comp: &[usize]) -> f64 {
    let k = comp.len();
    let mut local = HashMap::with_capacity(k);
    for (i, &s) in comp.iter().enumerate() {
        local.insert(s, i);
    }
    // Rows 0..k-1: (P^T − I) π = 0, last row replaced by Σπ = 1.
    let w = k + 1;
    let mut a = vec![0.0f64; k * w];
    for (i, &s) in comp.iter().enumerate() {
        for (t, p, _) in chain.row(s) {
            let j = local[&t];
            a[j * w + i] += p;
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
    class_throughput(chain, comp, &pi)
}

/// In-place Gauss–Jordan with partial pivoting on a `k × (k+1)` augmented
/// system; the solution lands in the last column.
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

/// Iterative Tarjan SCC on the CSR transition graph.
fn tarjan(chain: &Chain) -> Vec<Vec<usize>> {
    let n = chain.num_states();
    let mut index = vec![usize::MAX; n];
    let mut low = vec![usize::MAX; n];
    let mut on_stack = vec![false; n];
    let mut stack: Vec<usize> = Vec::new();
    let mut next = 0usize;
    let mut comps: Vec<Vec<usize>> = Vec::new();
    let mut call: Vec<(usize, usize)> = Vec::new();

    for root in 0..n {
        if index[root] != usize::MAX {
            continue;
        }
        call.push((root, 0));
        index[root] = next;
        low[root] = next;
        next += 1;
        stack.push(root);
        on_stack[root] = true;
        while let Some(&mut (v, ref mut ei)) = call.last_mut() {
            let succs = chain.succs(v);
            if *ei < succs.len() {
                let w = succs[*ei] as usize;
                *ei += 1;
                if index[w] == usize::MAX {
                    index[w] = next;
                    low[w] = next;
                    next += 1;
                    stack.push(w);
                    on_stack[w] = true;
                    call.push((w, 0));
                } else if on_stack[w] {
                    low[v] = low[v].min(index[w]);
                }
            } else {
                call.pop();
                if let Some(&(p, _)) = call.last() {
                    low[p] = low[p].min(low[v]);
                }
                if low[v] == index[v] {
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
