//! What every workload provides, and the small statistics the report uses.

use rr_core::CoreOptions;
use rr_rrg::iscas::TABLE2;
use rr_rrg::{Config, Rrg};

use crate::trace::Trace;

/// A workload: inputs generated from the seed, then passes over its ops.
pub trait Workload {
    /// The generated inputs, in the seeded op order.
    type Inputs;

    /// The optimizer options the ops run with.
    fn options(&self) -> &CoreOptions;

    /// Workload parameters recorded in the provenance block.
    fn params(&self) -> Vec<(&'static str, String)>;

    /// Generates the inputs. Timed as `setup_s`.
    fn setup(&self, tr: &mut Trace) -> Self::Inputs;

    /// One pass over every op. With a recording `tr` the ops run through
    /// the stage driver; otherwise through the crates' one-shot entry
    /// points. `between` runs before each op, outside its timing.
    fn pass(&self, inputs: &Self::Inputs, tr: &mut Trace, between: &mut dyn FnMut()) -> Pass;
}

/// What one pass produced.
#[derive(Debug, Default)]
pub struct Pass {
    /// Wall time of each op, in ms.
    pub op_ms: Vec<f64>,
    /// Ops that returned an error or whose sweep absorbed an incident.
    pub failed: usize,
    /// Ops whose answer is certified: proven MILPs, or throughputs the
    /// exact Markov engine confirmed.
    pub proven: usize,
    /// The results a traced pass must reproduce exactly.
    pub tie: Tie,
    /// Output checks that did not hold.
    pub violations: Vec<String>,
    /// Workload-specific results: `(name, value, unit)`.
    pub quality: Vec<(&'static str, f64, &'static str)>,
    /// Per-op status, in the paper's circuit order.
    pub status: Vec<String>,
}

/// The results the traced and untraced passes must agree on bit for bit.
#[derive(Debug, Default, PartialEq)]
pub struct Tie {
    /// Branch & bound nodes.
    pub nodes: usize,
    /// Simplex pivots.
    pub pivots: usize,
    /// Stored configurations, in op order.
    pub configs: Vec<Config>,
    /// Throughputs, as `f64` bits.
    pub values: Vec<u64>,
}

impl Pass {
    /// Records a failed output check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if !ok {
            self.violations.push(what());
        }
    }
}

/// One circuit: its index in `TABLE2`, its name and its graph.
pub type Circuit = (usize, &'static str, Rrg);

/// The Table-2 profiles scaled to `edge_cap` and generated from
/// `instance_seed`, in the paper's order.
pub fn generate(edge_cap: usize, instance_seed: u64, tr: &mut Trace) -> Vec<Circuit> {
    TABLE2
        .iter()
        .enumerate()
        .map(|(i, p)| {
            let g = tr.span("rrg.generate", |_| {
                p.scaled(edge_cap).generate(instance_seed)
            });
            (i, p.name, g)
        })
        .collect()
}

/// One entry of the per-circuit proof list.
pub fn proof_status(name: &str, proven: bool) -> String {
    format!("{name}={}", if proven { "proven" } else { "UNPROVEN" })
}

/// Ratio that reads 0 instead of NaN or infinity on an empty base.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Median of `xs` (0 for an empty slice).
pub fn median(xs: &[f64]) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => 0.0,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile `p` (0–100) of `xs` (0 for an empty slice).
pub fn percentile(xs: &[f64], p: f64) -> f64 {
    let mut v = xs.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return 0.0;
    }
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

/// The highest of the usual tail percentiles that leaves at least ten
/// samples beyond it, or `None` under twenty samples.
pub fn tail_percentile(n: usize) -> Option<f64> {
    if n < 20 {
        return None;
    }
    [99.9, 99.0, 95.0, 90.0, 75.0, 50.0]
        .into_iter()
        .find(|p| n as f64 * (1.0 - p / 100.0) >= 10.0)
}

/// Deterministic op order: a SplitMix64-driven Fisher–Yates shuffle.
pub fn shuffle<T>(v: &mut [T], seed: u64) {
    let mut state = seed;
    let mut next = || {
        state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    };
    for i in (1..v.len()).rev() {
        let j = (next() % (i as u64 + 1)) as usize;
        v.swap(i, j);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles() {
        let xs: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(median(&xs), 50.5);
        assert_eq!(percentile(&xs, 90.0), 90.0);
        assert_eq!(tail_percentile(19), None);
        assert_eq!(tail_percentile(20), Some(50.0));
        assert_eq!(tail_percentile(54), Some(75.0));
        assert_eq!(tail_percentile(108), Some(90.0));
    }

    #[test]
    fn shuffle_is_a_seeded_permutation() {
        let mut a: Vec<u32> = (0..18).collect();
        let mut b = a.clone();
        shuffle(&mut a, 7);
        shuffle(&mut b, 7);
        assert_eq!(a, b);
        let mut sorted = a.clone();
        sorted.sort();
        assert_eq!(sorted, (0..18).collect::<Vec<_>>());
    }
}
