//! The reference scheduler the tests compare [`super::simulate`] against:
//! every pass scans all nodes in index order, and pending completions sit
//! in a binary heap. It shares the parameter checks, the guard draw and
//! the measurement window with the production path, so the two must
//! return equal results, firing counts and errors included.

use std::cmp::Reverse;
use std::collections::BinaryHeap;

use rand::rngs::StdRng;
use rand::SeedableRng;
use rr_rrg::NodeKind;

use super::{cascade_limit, checked_delays, draw_guard, SimError, SimParams, SimResult, Window};
use crate::gmg::Tgmg;

/// Full-scan simulation with the semantics of [`super::simulate`].
pub(crate) fn simulate(t: &Tgmg, params: &SimParams) -> Result<SimResult, SimError> {
    let delays = checked_delays(t, params)?;
    let limit = cascade_limit(t);
    let mut rng = StdRng::seed_from_u64(params.seed);
    let mut marking: Vec<i64> = t.initial_marking();
    let mut firings: Vec<u64> = vec![0; t.num_nodes()];
    let mut selection: Vec<Option<usize>> = vec![None; t.num_nodes()];
    let mut events: BinaryHeap<Reverse<(u64, usize)>> = BinaryHeap::new();
    let mut window = Window::default();

    let mut now: u64 = 0;
    loop {
        window.open(now, params.warmup, &firings);
        let mut cascade: u64 = 0;
        loop {
            let mut fired_any = false;
            for v in 0..t.num_nodes() {
                loop {
                    let enabled = match t.nodes[v].kind {
                        NodeKind::Simple => {
                            !t.pred[v].is_empty() && t.pred[v].iter().all(|&e| marking[e] > 0)
                        }
                        NodeKind::EarlyEval => {
                            let sel =
                                *selection[v].get_or_insert_with(|| draw_guard(t, v, &mut rng));
                            marking[sel] > 0
                        }
                    };
                    if !enabled {
                        break;
                    }
                    for &e in &t.pred[v] {
                        marking[e] -= 1;
                    }
                    if t.nodes[v].kind == NodeKind::EarlyEval {
                        selection[v] = None;
                    }
                    firings[v] += 1;
                    fired_any = true;
                    cascade += 1;
                    if cascade > limit {
                        return Err(SimError::ZeroDelayLivelock { at_cycle: now });
                    }
                    if delays[v] == 0 {
                        for &e in &t.succ[v] {
                            marking[e] += 1;
                        }
                    } else {
                        events.push(Reverse((now.saturating_add(delays[v]), v)));
                    }
                }
            }
            if !fired_any {
                break;
            }
        }

        let Some(&Reverse((next, _))) = events.peek() else {
            return Err(SimError::Deadlock { at_cycle: now });
        };
        if next >= params.horizon {
            break;
        }
        now = next;
        while let Some(&Reverse((time, v))) = events.peek() {
            if time != now {
                break;
            }
            events.pop();
            for &e in &t.succ[v] {
                marking[e] += 1;
            }
        }
    }
    Ok(window.result(params, firings))
}
