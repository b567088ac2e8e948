//! Reachable-state enumeration into a compressed sparse row (CSR) chain.
//!
//! The chain of an elastic machine is extremely sparse: each state has one
//! successor per guard combination (a handful), while bounded-capacity
//! state spaces run to 10⁴–10⁵ states. Per-state `Vec`s of transitions
//! waste a pointer-and-capacity header per state and scatter the rows over
//! the heap; the CSR layout below stores the whole transition structure in
//! four flat arrays, so both solvers stream it cache-linearly.

use std::collections::HashMap;

use rr_elastic::Machine;
use rr_rrg::{EdgeId, NodeId, Rrg};

use crate::{MarkovError, MarkovParams};

/// The explicit chain in CSR form: state `s`'s transitions are the index
/// range `row_offsets[s]..row_offsets[s + 1]` of the parallel
/// `cols`/`probs`/`rewards` arrays (successor state, transition
/// probability, expected reward — 1.0 when the reference node fired).
#[derive(Debug, Clone)]
pub struct Chain {
    row_offsets: Vec<usize>,
    cols: Vec<u32>,
    probs: Vec<f64>,
    rewards: Vec<f64>,
}

impl Chain {
    /// Number of states.
    pub fn num_states(&self) -> usize {
        self.row_offsets.len() - 1
    }

    /// Successor states of `s` (parallel to [`Chain::probs`]).
    pub fn succs(&self, s: usize) -> &[u32] {
        &self.cols[self.row_offsets[s]..self.row_offsets[s + 1]]
    }

    /// Transition probabilities out of `s`.
    pub fn probs(&self, s: usize) -> &[f64] {
        &self.probs[self.row_offsets[s]..self.row_offsets[s + 1]]
    }

    /// Transition rewards out of `s`.
    pub fn rewards(&self, s: usize) -> &[f64] {
        &self.rewards[self.row_offsets[s]..self.row_offsets[s + 1]]
    }

    /// `(successor, probability, reward)` triples out of `s`.
    pub fn row(&self, s: usize) -> impl Iterator<Item = (usize, f64, f64)> + '_ {
        let r = self.row_offsets[s]..self.row_offsets[s + 1];
        r.map(move |i| (self.cols[i] as usize, self.probs[i], self.rewards[i]))
    }

    /// Expected one-step reward from `s`.
    pub fn expected_reward(&self, s: usize) -> f64 {
        let r = self.row_offsets[s]..self.row_offsets[s + 1];
        r.map(|i| self.probs[i] * self.rewards[i]).sum()
    }
}

/// Interns canonical state keys: each distinct key is stored once (as the
/// map key) and identified by its dense state index. Lookups probe with a
/// borrowed slice, so the enumeration loop allocates only on first sight
/// of a state.
struct StateInterner {
    index: HashMap<Box<[u64]>, u32>,
}

impl StateInterner {
    fn new() -> Self {
        StateInterner {
            index: HashMap::new(),
        }
    }

    fn len(&self) -> usize {
        self.index.len()
    }

    /// Returns the state index for `key`, interning it when new; the
    /// second component is `true` on first sight.
    fn intern(&mut self, key: &[u64]) -> (u32, bool) {
        if let Some(&i) = self.index.get(key) {
            return (i, false);
        }
        let i = u32::try_from(self.index.len()).expect("state index fits u32");
        self.index.insert(key.into(), i);
        (i, true)
    }
}

/// How far a row's outgoing probability mass may drift from 1 before the
/// chain is rejected as inconsistent ([`MarkovError::ProbabilityLeak`]).
///
/// Deliberately three decades stricter than the graph builder's
/// `rr_rrg::validate::GAMMA_TOL` (1e-6): the builder is lenient towards
/// hand-entered γs, but an *exact* solver must not silently absorb a
/// leak — a row mass of `1 − 5e-7` biases every stationary probability at
/// the same order, which is above the 1e-7 agreement this crate promises.
/// Callers with builder-valid-but-drifting γs should renormalise them;
/// masses within float rounding of 1 (≤ 1e-9, orders above the ~1e-15
/// accumulation error of well-formed draws) always pass.
pub const ROW_MASS_TOLERANCE: f64 = 1e-9;

/// Enumerates guard-choice combinations and successor states into a CSR
/// chain. State 0 is the machine's initial state; states are discovered
/// breadth-first, and every row's probability mass is validated against
/// [`ROW_MASS_TOLERANCE`] as it is emitted.
///
/// # Errors
///
/// [`MarkovError::StateSpaceTooLarge`] past `params.max_states`;
/// [`MarkovError::ProbabilityLeak`] when a state's outgoing probabilities
/// do not sum to 1 (a machine or γ-assignment bug that would silently
/// skew both solvers); [`MarkovError::Machine`] from machine construction.
pub fn build_chain(g: &Rrg, params: &MarkovParams) -> Result<Chain, MarkovError> {
    let initial = Machine::new(g, params.capacity)?;
    let mut interner = StateInterner::new();
    let mut machines: Vec<Machine> = Vec::new();
    let mut key_scratch: Vec<u64> = Vec::new();

    initial.canonical_state_into(&mut key_scratch);
    interner.intern(&key_scratch);
    machines.push(initial);

    let mut row_offsets = vec![0usize];
    let mut cols: Vec<u32> = Vec::new();
    let mut probs: Vec<f64> = Vec::new();
    let mut rewards: Vec<f64> = Vec::new();

    // States are indexed in discovery order, so scanning `s` upward visits
    // every state after it has been interned: the CSR rows are emitted in
    // order without a separate frontier or per-state buffers.
    let mut s = 0usize;
    while s < machines.len() {
        let machine = machines[s].clone();
        let undrawn = machine.undrawn_early_nodes();
        let combos = guard_combinations(g, &undrawn)?;
        let mut row_mass = 0.0f64;
        for (choice, prob) in combos {
            let mut m = machine.clone();
            let mut it = choice.iter();
            let outcome = m.step_with(|v| {
                let &(node, edge) = it.next().expect("draw called more times than undrawn");
                debug_assert_eq!(node, v, "draw order mismatch");
                edge
            });
            let reward = f64::from(outcome.fired[0]);
            m.canonical_state_into(&mut key_scratch);
            let (next, new) = interner.intern(&key_scratch);
            if new {
                if interner.len() > params.max_states {
                    return Err(MarkovError::StateSpaceTooLarge {
                        limit: params.max_states,
                    });
                }
                machines.push(m);
            }
            cols.push(next);
            probs.push(prob);
            rewards.push(reward);
            row_mass += prob;
        }
        if (row_mass - 1.0).abs() > ROW_MASS_TOLERANCE {
            return Err(MarkovError::ProbabilityLeak {
                state: s,
                mass: row_mass,
            });
        }
        row_offsets.push(cols.len());
        s += 1;
    }
    Ok(Chain {
        row_offsets,
        cols,
        probs,
        rewards,
    })
}

/// One guard draw per undrawn early node, with the joint probability of
/// the combination.
type GuardCombo = (Vec<(NodeId, EdgeId)>, f64);

/// Cartesian product of guard choices for the undrawn early nodes, with
/// the probability of each combination.
///
/// # Errors
///
/// [`MarkovError::MissingGamma`] when an early node's input edge carries
/// no γ assignment — a structured error rather than a panic, so a
/// malformed graph fails the analysis instead of the process.
fn guard_combinations(g: &Rrg, undrawn: &[NodeId]) -> Result<Vec<GuardCombo>, MarkovError> {
    let mut combos: Vec<GuardCombo> = vec![(Vec::new(), 1.0)];
    for &v in undrawn {
        let mut next = Vec::with_capacity(combos.len() * g.in_edges(v).len());
        for &e in g.in_edges(v) {
            let p = g
                .edge(e)
                .gamma()
                .ok_or(MarkovError::MissingGamma { edge: e.0 })?;
            for (combo, cp) in &combos {
                let mut c = combo.clone();
                c.push((v, e));
                next.push((c, cp * p));
            }
        }
        combos = next;
    }
    // `step_with` draws in ascending node-id order; keep combos sorted to
    // match.
    for (c, _) in &mut combos {
        c.sort_by_key(|&(v, _)| v);
    }
    Ok(combos)
}
