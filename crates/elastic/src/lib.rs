//! Cycle-accurate simulation of synchronous elastic machines with early
//! evaluation and anti-token counterflow.
//!
//! This crate is the reproduction's stand-in for the paper's generated
//! Verilog controllers: where `rr-tgmg` simulates the *abstract* timed
//! guarded marked graph, this crate executes the elastic **machine** —
//! channels with elastic-buffer pipelines, one firing per node per clock,
//! join/fork behaviour, and early-evaluation multiplexers that issue
//! anti-tokens on the channels they did not use.
//!
//! Its FIFOs never fill: the machine models the paper's big-enough-FIFO
//! assumption (footnote 1), under which Lemma 3.1 says both views have
//! the same steady-state throughput; the test suites of both crates
//! enforce that agreement.
//!
//! The per-cycle step function is exposed deterministically
//! ([`Machine::step_with`]), and a state can be saved as a canonical key
//! and loaded back ([`Machine::canonical_state_into`],
//! [`Machine::load_state`]), so that `rr-markov` can enumerate the exact
//! reachable state space.
//!
//! # Example
//!
//! ```
//! use rr_elastic::{simulate, MachineParams};
//! use rr_rrg::figures;
//!
//! let rrg = figures::figure_2(0.9);
//! let run = simulate(&rrg, &MachineParams::default())?;
//! // Θ = 1/(3−2·0.9) = 5/6.
//! assert!((run.throughput - 5.0 / 6.0).abs() < 0.02);
//! # Ok::<(), rr_elastic::MachineError>(())
//! ```

mod machine;
mod run;

pub use machine::{Machine, MachineError, StepOutcome};
pub use run::{simulate, MachineParams, RunResult};

#[cfg(test)]
mod proptests;
