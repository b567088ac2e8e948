//! Cesàro-averaged power iteration — the fallback for multi-terminal
//! chains.
//!
//! The running reward average `A(t) = (1/t)·Σ_{s≤t} E[reward_s]` converges
//! to the throughput like `θ + c/t` (`c` grows with the mixing time), so
//! the *successive difference* of `A` at checkpoints shrinks like `c/t²`
//! long before `A` itself is accurate — the bug the old stopping rule had:
//! it compared averages 1,000 iterations apart against 1e-7 and declared
//! victory while the absolute error was still `c/t`.
//!
//! The criterion here extrapolates the limit instead. Checkpoints are
//! geometric (`t, 2t, 4t, …`), so the `c/t` error term is a geometric
//! sequence in checkpoint index and Aitken's Δ² transform annihilates it
//! exactly; convergence is declared when two successive *extrapolated
//! limits* agree, and the extrapolated value (not the raw average) is
//! returned. A slow-mixing regression test in `lib.rs` pins the chain
//! (near-1 γ on figure 1(b)) where the old rule fired ~3 decades early.

use crate::chain::Chain;

/// First checkpoint; later checkpoints double. Must be ≥ 2 so Aitken has
/// three distinct averages by the third checkpoint.
const FIRST_CHECKPOINT: usize = 1_024;

/// Iteration budget. The fallback only runs on chains the exact solvers
/// refused, so the budget is generous; exhausting it reports
/// `NoConvergence` rather than returning a bad number.
const MAX_ITERS: usize = 1 << 25;

/// Agreement threshold between successive extrapolated limits.
const LIMIT_TOLERANCE: f64 = 1e-9;

/// Cesàro-averaged distribution iteration from state 0; `None` if the
/// extrapolated limits never settle.
pub fn power_iteration(chain: &Chain) -> Option<f64> {
    let n = chain.num_states();
    let mut dist = vec![0.0f64; n];
    dist[0] = 1.0;
    let mut next = vec![0.0f64; n];
    let mut cum_reward = 0.0f64;

    let mut checkpoint = FIRST_CHECKPOINT;
    // Rolling window of the last three checkpoint averages.
    let mut window: [f64; 3] = [f64::NAN; 3];
    let mut filled = 0usize;
    let mut limit_prev = f64::NAN;

    for it in 1..=MAX_ITERS {
        next.iter_mut().for_each(|x| *x = 0.0);
        let mut step_reward = 0.0;
        for (s, d) in dist.iter().enumerate() {
            if *d == 0.0 {
                continue;
            }
            for (t, p, r) in chain.row(s) {
                next[t] += d * p;
                step_reward += d * p * r;
            }
        }
        std::mem::swap(&mut dist, &mut next);
        cum_reward += step_reward;

        if it == checkpoint {
            checkpoint *= 2;
            let avg = cum_reward / it as f64;
            window = [window[1], window[2], avg];
            filled += 1;
            if filled < 3 {
                continue;
            }
            let (a0, a1, a2) = (window[0], window[1], window[2]);
            let (d1, d2) = (a1 - a0, a2 - a1);
            // Flat sequence: the chain mixed long ago, the average is the
            // answer (Aitken would divide ~0 by ~0).
            if d1.abs() < 1e-13 && d2.abs() < 1e-13 {
                return Some(a2);
            }
            let denom = d2 - d1;
            let limit = if denom.abs() > 1e-300 {
                a2 - d2 * d2 / denom
            } else {
                a2
            };
            if (limit - limit_prev).abs() < LIMIT_TOLERANCE * limit.abs().max(1.0) {
                return Some(limit);
            }
            limit_prev = limit;
        }
    }
    None
}
