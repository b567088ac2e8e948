//! Retiming and Recycling Graphs (RRGs).
//!
//! An RRG (Definition 2.1 of the paper) models a synchronous elastic system
//! as a directed multigraph whose nodes are combinational blocks and whose
//! edges carry elastic buffers (EBs):
//!
//! * `β(n)` — combinational delay of each node ([`Node::delay`]),
//! * `R0(e)` — tokens on each edge, negative values are **anti-tokens**
//!   ([`Edge::tokens`]),
//! * `R(e)` — number of EBs on each edge, `R ≥ R0` ([`Edge::buffers`]),
//! * `γ(e)` — branch-selection probability on the input edges of
//!   **early-evaluation** nodes ([`Edge::gamma`]).
//!
//! This crate provides:
//!
//! * the graph data model and a validating [`builder`](RrgBuilder),
//! * structural algorithms: SCCs, liveness (every directed cycle must carry
//!   a positive token sum), combinational topological order ([`algo`]),
//! * the cycle-time engine (longest combinational path, [`cycle_time`]),
//! * retiming / recycling configurations ([`Config`]) — the paper's "RC",
//! * the paper's motivating figures ([`figures`]),
//! * the random benchmark generator and the ISCAS89 Table-2 profiles
//!   ([`generate`], [`iscas`]).
//!
//! # Example
//!
//! ```
//! use rr_rrg::{figures, cycle_time};
//!
//! let rrg = figures::figure_1a(0.5);
//! // The critical combinational path F1,F2,F3,f,m has delay 3.
//! let ct = cycle_time::cycle_time(&rrg)?;
//! assert_eq!(ct, 3.0);
//! # Ok::<(), rr_rrg::cycle_time::CycleTimeError>(())
//! ```

pub mod algo;
mod builder;
pub mod config;
pub mod cycle_time;
pub mod figures;
pub mod generate;
pub mod iscas;
mod rrg;
pub mod validate;

pub use builder::RrgBuilder;
pub use config::Config;
pub use rrg::{Edge, EdgeId, Node, NodeId, NodeKind, Rrg};
pub use validate::ValidateError;

#[cfg(test)]
mod proptests;
