//! # glsx-network
//!
//! Layers 1 and 3 of the generic logic synthesis architecture: the
//! *network interface API* (traits) and the *network implementations*
//! (concrete graph data structures).
//!
//! The central abstraction is the [`Network`] trait, the Rust rendering of
//! the paper's abstract concept definition of a logic representation:
//! primary inputs and outputs, gates, fanin/fanout access and node
//! substitution.  Gate creation is provided by [`GateBuilder`].  Generic
//! algorithms (in `glsx-core`) are written only against these traits and
//! therefore work for every representation.
//!
//! Provided implementations:
//!
//! * [`Aig`] — And-inverter graphs,
//! * [`Xag`] — Xor-and graphs,
//! * [`Mig`] — Majority-inverter graphs,
//! * [`Xmg`] — Xor-majority graphs,
//! * [`Klut`] — k-LUT networks (mapping targets).
//!
//! All implementations share the same [`Signal`]/[`NodeId`] encoding, use
//! structural hashing, maintain explicit fanout lists and support node
//! substitution with automatic removal of dangling logic.
//!
//! Supporting modules provide [`views`] (depth, reachability, integrity
//! checks), [`simulation`] (exhaustive and random bit-parallel simulation
//! plus simulation-based equivalence checking), [`wordsim`] (word-parallel
//! pattern simulation backing SAT sweeping), [`bitops`] (the shared
//! gate-kind dispatch all simulators evaluate gates through), [`changes`]
//! (the change-event layer recording structural mutations for incremental
//! consumers), [`choices`] (per-node equivalence rings keeping
//! proven-equal cones alive as mapping choices) and [`cleanup_dangling`].
//!
//! # Example
//!
//! ```
//! use glsx_network::{Aig, GateBuilder, Network};
//! use glsx_network::simulation::simulate;
//!
//! let mut aig = Aig::new();
//! let a = aig.create_pi();
//! let b = aig.create_pi();
//! let c = aig.create_pi();
//! let a_or_b = aig.create_or(a, b);
//! let f = aig.create_and(a_or_b, c);
//! aig.create_po(f);
//! let tts = simulate(&aig);
//! assert_eq!(tts[0].count_ones(), 3);
//! ```

mod aig;
pub mod budget;
pub mod bulk;
pub mod changes;
pub mod choices;
mod common;
mod fanin;
mod kind;
mod klut;
mod mig;
mod signal;
mod storage;
mod traits;
mod xag;
mod xmg;

pub mod bitops;
pub mod cleanup;
pub mod simulation;
pub mod telemetry;
pub mod traversal;
pub mod views;
pub mod wordsim;

pub use aig::Aig;
pub use bitops::{SimBlock, WideWord};
pub use budget::{Budget, InjectedFault, StepOutcome};
pub use bulk::{BulkError, BulkTarget, CircuitKind, NetworkBuilder};
pub use changes::{ChangeEvent, ChangeLog};
pub use choices::NO_CHOICE;
pub use cleanup::{cleanup_dangling, cleanup_dangling_klut, convert_network};
pub use fanin::{FaninArray, MAX_INLINE_FANINS};
pub use kind::GateKind;
pub use klut::Klut;
pub use mig::Mig;
pub use signal::{NodeId, Signal};
pub use storage::NetworkSnapshot;
pub use telemetry::{MetricsRegistry, MetricsSource, SpanNode, TraceMode, Tracer};
pub use traits::{assert_network_interface, GateBuilder, HasLevels, Network};
pub use traversal::{LocalScratch, Traversal};
pub use xag::Xag;
pub use xmg::Xmg;
