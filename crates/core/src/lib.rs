//! # glsx-core
//!
//! Layer 2 of the generic logic synthesis architecture: the optimisation
//! algorithms, written exclusively against the network interface API of
//! [`glsx_network`] so that a single implementation serves AIGs, XAGs,
//! MIGs, XMGs and k-LUT networks alike.
//!
//! Provided algorithms (mirroring Section 2 of the paper):
//!
//! * [`cuts`] — bottom-up priority-cut enumeration, reconvergence-driven
//!   cuts and cut-function computation,
//! * [`refs`] — DAG-aware reference counting and MFFC computation,
//! * [`rewriting`] — DAG-aware cut rewriting (Algorithm 3),
//! * [`refactoring`] — MFFC collapsing and resynthesis (Algorithm 4),
//! * [`resubstitution`] — Boolean resubstitution with per-representation
//!   kernels (Algorithm 5),
//! * [`balancing`] — associativity-based tree balancing (Algorithm 2),
//! * [`lut_mapping`] — cut-based k-LUT technology mapping,
//! * [`sweeping`] — SAT sweeping (fraiging) and the miter-based
//!   combinational equivalence checker.
//!
//! # Example
//!
//! ```
//! use glsx_core::rewriting::{rewrite, RewriteParams};
//! use glsx_core::lut_mapping::{lut_map, LutMapParams};
//! use glsx_network::{Aig, GateBuilder, Network};
//!
//! let mut aig = Aig::new();
//! let a = aig.create_pi();
//! let b = aig.create_pi();
//! let t1 = aig.create_and(a, b);
//! let t2 = aig.create_and(a, !b);
//! let f = aig.create_or(t1, t2); // simplifies to just `a`
//! aig.create_po(f);
//! rewrite(&mut aig, &RewriteParams::default());
//! let klut = lut_map(&aig, &LutMapParams::with_lut_size(6));
//! assert!(klut.num_gates() <= 1);
//! ```

pub mod balancing;
pub mod cuts;
pub mod lut_mapping;
pub mod refactoring;
pub mod refs;
mod replace;
pub mod resubstitution;
pub mod rewriting;
pub mod sweeping;

pub use balancing::{balance, BalanceParams, BalanceStats};
pub use cuts::{
    reconvergence_driven_cut, simulate_cut, simulate_cut_cone, ConeSimulator, Cut, CutCounters,
    CutFunction, CutManager, CutParams, ReconvergenceCut, MAX_CUT_LEAVES,
};
pub use lut_mapping::{lut_map, lut_map_stats, lut_map_with_stats, LutMapParams, LutMapStats};
pub use refactoring::{refactor, refactor_with, RefactorParams, RefactorStats};
pub use refs::{mffc, mffc_into, mffc_size, mffc_with_leaves, RefCountView};
pub use replace::{try_replace_on_cut, ReplaceOutcome, Replacer};
pub use resubstitution::{resubstitute, ResubNetwork, ResubParams, ResubStats, ResubStyle};
pub use rewriting::{rewrite, rewrite_with, CutMaintenance, RewriteParams, RewriteStats};

pub use sweeping::{
    check_equivalence, check_equivalence_with, check_equivalence_with_limits, sweep,
    sweep_with_engine, EquivalenceOutcome, EquivalenceResult, SweepEngine, SweepParams, SweepStats,
};
