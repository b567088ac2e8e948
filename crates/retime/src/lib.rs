//! Classic Leiserson–Saxe retiming (Algorithmica '91), used as the
//! paper's baseline: `MIN_CYC(1)` — the best cycle time reachable without
//! recycling — equals the minimum period of ordinary retiming, and the
//! Table-2 column `ξ_nee` ("no early evaluation") is produced by it.
//!
//! Implementation: the textbook *W/D matrices* + feasibility route:
//!
//! 1. `W(u,v)` = minimum register count over `u→v` paths, `D(u,v)` =
//!    maximum path delay among those minimum-register paths (computed by
//!    lexicographic Floyd–Warshall);
//! 2. a period `c` is feasible iff the difference constraints
//!    `r(u) − r(v) ≤ w(e)` (legality) and `r(u) − r(v) ≤ W(u,v) − 1`
//!    for every pair with `D(u,v) > c` (timing) admit a solution
//!    ([`rr_rrg::algo::bellman_ford`]);
//! 3. binary search over the sorted distinct `D` values finds the minimum
//!    feasible period.
//!
//! In the elastic setting "registers" are elastic buffers; the returned
//! retiming vector moves tokens together with their EBs
//! ([`rr_rrg::Config::from_retiming_with_buffers`]), preserving Θ = 1 on
//! bubble-free graphs.

use std::error::Error;
use std::fmt;

use rr_rrg::{Config, Rrg};

/// Result of a minimum-period retiming.
#[derive(Debug, Clone, PartialEq)]
pub struct RetimingResult {
    /// The minimum feasible clock period.
    pub period: f64,
    /// A retiming vector achieving it.
    pub retiming: Vec<i64>,
}

impl RetimingResult {
    /// The configuration obtained by moving EBs (and their tokens) along
    /// the retiming vector.
    pub fn config(&self, g: &Rrg) -> Config {
        Config::from_retiming_with_buffers(g, &self.retiming)
    }
}

/// Retiming failures.
#[derive(Debug, Clone, PartialEq)]
pub enum RetimeError {
    /// The graph has a register-free directed cycle; no period is
    /// feasible.
    RegisterFreeCycle,
    /// The graph is empty.
    Empty,
}

impl fmt::Display for RetimeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RetimeError::RegisterFreeCycle => {
                f.write_str("graph has a directed cycle with no registers")
            }
            RetimeError::Empty => f.write_str("graph has no nodes"),
        }
    }
}

impl Error for RetimeError {}

/// The W and D matrices of Leiserson–Saxe, with `None` for unreachable
/// pairs. `W[u][v]` is the minimum register count over all `u→v` paths
/// (diagonal entries describe proper cycles, not the empty path);
/// `D[u][v]` the maximum delay, endpoints included, among those paths.
pub type WdMatrices = (Vec<Vec<Option<i64>>>, Vec<Vec<f64>>);

/// Computes the W/D matrices with registers = the graph's buffer counts.
pub fn wd_matrices(g: &Rrg) -> WdMatrices {
    let n = g.num_nodes();
    // Lexicographic weights: minimise (registers, -delay_after_source).
    let mut w: Vec<Vec<Option<i64>>> = vec![vec![None; n]; n];
    let mut s: Vec<Vec<f64>> = vec![vec![f64::NEG_INFINITY; n]; n];
    for (_, e) in g.edges() {
        let (u, v) = (e.source().index(), e.target().index());
        let wt = e.buffers();
        let sd = g.node(e.target()).delay();
        let better = match w[u][v] {
            None => true,
            Some(curw) => wt < curw || (wt == curw && sd > s[u][v]),
        };
        if better {
            w[u][v] = Some(wt);
            s[u][v] = sd;
        }
    }
    for k in 0..n {
        for i in 0..n {
            let Some(wik) = w[i][k] else { continue };
            let sik = s[i][k];
            for j in 0..n {
                let Some(wkj) = w[k][j] else { continue };
                let cand_w = wik + wkj;
                let cand_s = sik + s[k][j];
                let better = match w[i][j] {
                    None => true,
                    Some(cur) => cand_w < cur || (cand_w == cur && cand_s > s[i][j]),
                };
                if better {
                    w[i][j] = Some(cand_w);
                    s[i][j] = cand_s;
                }
            }
        }
    }
    let d: Vec<Vec<f64>> = (0..n)
        .map(|u| {
            (0..n)
                .map(|v| {
                    if w[u][v].is_some() {
                        g.node(rr_rrg::NodeId(u)).delay() + s[u][v]
                    } else {
                        f64::NEG_INFINITY
                    }
                })
                .collect()
        })
        .collect();
    (w, d)
}

/// Tests whether clock period `c` is feasible and returns a witness
/// retiming vector if so.
pub fn feasible_retiming(g: &Rrg, c: f64) -> Option<Vec<i64>> {
    let (w, d) = wd_matrices(g);
    feasible_with_wd(g, &w, &d, c)
}

fn feasible_with_wd(g: &Rrg, w: &[Vec<Option<i64>>], d: &[Vec<f64>], c: f64) -> Option<Vec<i64>> {
    let n = g.num_nodes();
    // Difference constraints r(u) − r(v) ≤ b become edges v→u of weight b.
    let mut cons: Vec<(usize, usize, i64)> = Vec::new();
    for (_, e) in g.edges() {
        cons.push((e.target().index(), e.source().index(), e.buffers()));
    }
    for u in 0..n {
        for v in 0..n {
            if d[u][v] > c + 1e-9 {
                let Some(wuv) = w[u][v] else { continue };
                cons.push((v, u, wuv - 1));
            }
        }
    }
    rr_rrg::algo::bellman_ford(n, &cons).ok()
}

/// Minimum-period retiming (registers = buffer counts, tokens move along).
///
/// # Errors
///
/// [`RetimeError::Empty`] for empty graphs and
/// [`RetimeError::RegisterFreeCycle`] when some cycle carries no EB (no
/// period is feasible).
pub fn min_period_retiming(g: &Rrg) -> Result<RetimingResult, RetimeError> {
    if g.num_nodes() == 0 {
        return Err(RetimeError::Empty);
    }
    if rr_rrg::algo::find_nonpositive_cycle_with(g, |e| g.edge(e).buffers()).is_some() {
        // Zero-buffer cycle (buffer counts are nonnegative, so "≤ 0" means
        // "== 0" here).
        return Err(RetimeError::RegisterFreeCycle);
    }
    let (w, d) = wd_matrices(g);
    // Candidate periods: distinct D values no smaller than the largest
    // node delay.
    let beta_max = g.max_delay();
    let mut cands: Vec<f64> = d
        .iter()
        .flatten()
        .copied()
        .filter(|&x| x.is_finite() && x >= beta_max - 1e-12)
        .collect();
    cands.push(beta_max);
    cands.sort_by(f64::total_cmp);
    cands.dedup_by(|a, b| (*a - *b).abs() < 1e-12);

    // Binary search the smallest feasible candidate.
    let mut lo = 0usize;
    let mut hi = cands.len() - 1;
    let mut best: Option<(f64, Vec<i64>)> = None;
    // The largest candidate (the longest min-register path delay) is
    // always feasible for a live graph; still verify defensively.
    if feasible_with_wd(g, &w, &d, cands[hi]).is_none() {
        return Err(RetimeError::RegisterFreeCycle);
    }
    while lo <= hi {
        let mid = (lo + hi) / 2;
        match feasible_with_wd(g, &w, &d, cands[mid]) {
            Some(r) => {
                best = Some((cands[mid], r));
                if mid == 0 {
                    break;
                }
                hi = mid - 1;
            }
            None => {
                lo = mid + 1;
            }
        }
    }
    let (period, retiming) = best.expect("at least the maximum candidate is feasible");
    Ok(RetimingResult { period, retiming })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rr_rrg::{cycle_time, figures, RrgBuilder};

    #[test]
    fn figure_1a_min_period_is_three() {
        // "3 is minimal cycle time achievable by retiming" (§1.2).
        let g = figures::figure_1a(0.5);
        let r = min_period_retiming(&g).unwrap();
        assert_eq!(r.period, 3.0);
        // The witness really achieves it.
        let cfg = r.config(&g);
        let retimed = cfg.apply(&g).unwrap();
        assert!(cycle_time::cycle_time(&retimed).unwrap() <= 3.0);
    }

    #[test]
    fn chain_with_slack_registers_retimes_to_balance() {
        // a(2) → b(2) → c(2) → a with two registers on c→a: the optimum
        // spreads them, leaving one two-node combinational segment: τ = 4.
        let mut b = RrgBuilder::new();
        let na = b.add_simple("a", 2.0);
        let nb = b.add_simple("b", 2.0);
        let nc = b.add_simple("c", 2.0);
        b.add_edge(na, nb, 0, 0);
        b.add_edge(nb, nc, 0, 0);
        b.add_edge(nc, na, 2, 2);
        let g = b.build().unwrap();
        let r = min_period_retiming(&g).unwrap();
        assert_eq!(r.period, 4.0, "retiming {:?}", r.retiming);
        let retimed = r.config(&g).apply(&g).unwrap();
        assert!(cycle_time::cycle_time(&retimed).unwrap() <= 4.0);
    }

    #[test]
    fn already_optimal_graph_unchanged_period() {
        let mut b = RrgBuilder::new();
        let na = b.add_simple("a", 5.0);
        let nb = b.add_simple("b", 5.0);
        b.add_edge(na, nb, 1, 1);
        b.add_edge(nb, na, 1, 1);
        let g = b.build().unwrap();
        let r = min_period_retiming(&g).unwrap();
        assert_eq!(r.period, 5.0);
    }

    #[test]
    fn register_free_cycle_is_an_error() {
        // Construct directly (the builder would reject a dead cycle, so
        // put a token-free but *live-looking* cycle: tokens alone do not
        // help if buffers are absent — such graphs fail validation too,
        // so test through a valid graph whose buffers we strip).
        let g = figures::figure_1a(0.5);
        let mut stripped = g.clone();
        // Simulate by zeroing all buffer counts via a Config bypass: build
        // a new graph with zero buffers everywhere is invalid; instead
        // check the error path on a raw builder graph with a self-loop.
        let mut b = RrgBuilder::new();
        let a = b.add_simple("a", 1.0);
        let c = b.add_simple("c", 1.0);
        b.add_edge(a, c, 1, 1);
        b.add_edge(c, a, 1, 1);
        b.add_edge(a, a, 0, 0); // register-free self-loop… invalid RRG
        let err = b.build();
        assert!(err.is_err(), "builder rejects the dead self-loop");
        let _ = &mut stripped;
    }

    #[test]
    fn feasibility_is_monotone_in_period() {
        let g = figures::figure_1a(0.5);
        assert!(feasible_retiming(&g, 2.9).is_none());
        assert!(feasible_retiming(&g, 3.0).is_some());
        assert!(feasible_retiming(&g, 10.0).is_some());
    }

    #[test]
    fn wd_matrices_shapes_and_cycles() {
        let g = figures::figure_1a(0.5);
        let (w, d) = wd_matrices(&g);
        let n = g.num_nodes();
        assert_eq!(w.len(), n);
        // Diagonal entries are cycle weights: both cycles through m carry
        // tokens, min is the bottom cycle with 1 EB.
        let m = g.node_by_name("m").unwrap().index();
        assert_eq!(w[m][m], Some(1));
        // D over the bottom cycle counts F1+F2+F3 = 3 (m itself has β=0).
        assert!(d[m][m] >= 3.0 - 1e-12);
    }
}
