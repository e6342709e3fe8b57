//! # glsx-synth
//!
//! Resynthesis engines for the generic logic synthesis library — the
//! representation-specific "performance tweak" layer of the stacked
//! architecture, packaged behind representation-independent interfaces:
//!
//! * [`Chain`] — representation-independent Boolean chains that can be
//!   simulated and replayed into any network ([`Chain::replay`]),
//! * [`exact_chain_synthesis`] — SAT-based exact synthesis of size-optimal
//!   chains for AND/XOR gate sets (the paper's Section 2.2.2),
//! * [`sop_resynthesize`] — irredundant SOP computation plus algebraic
//!   factoring (the resynthesis core of refactoring),
//! * [`shannon_resynthesize`] — Shannon-decomposition resynthesis,
//! * [`NpnDatabase`] — a lazily computed database of replacement structures
//!   per NPN class used by DAG-aware rewriting, and the [`Resynthesis`]
//!   trait the optimisation algorithms are parameterised over.
//!
//! # Example
//!
//! ```
//! use glsx_network::{GateBuilder, Mig, Network};
//! use glsx_network::simulation::simulate;
//! use glsx_synth::{NpnDatabase, Resynthesis};
//! use glsx_truth::TruthTable;
//!
//! // the same database instance serves any representation
//! let mut db = NpnDatabase::new();
//! let mut mig = Mig::new();
//! let leaves: Vec<_> = (0..4).map(|_| mig.create_pi()).collect();
//! let f = TruthTable::from_hex(4, "1ee1")?;
//! let root = db.resynthesize(&mut mig, &f, &leaves).expect("realisable");
//! mig.create_po(root);
//! assert_eq!(simulate(&mig)[0], f);
//! # Ok::<(), glsx_truth::ParseTruthTableError>(())
//! ```

mod chain;
mod exact;
mod resynthesis;
mod shannon;
mod sop;

pub use chain::{Chain, ChainOperand, ChainStep};
pub use exact::{exact_chain_synthesis, ChainGateSet, ExactSynthesisParams};
pub use resynthesis::{
    record_chain, NpnDatabase, NpnDatabaseParams, NpnDatabaseStats, Resynthesis,
    ShannonResynthesis, SopResynthesis,
};
pub use shannon::shannon_resynthesize;
pub use sop::sop_resynthesize;
