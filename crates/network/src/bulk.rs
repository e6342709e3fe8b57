//! Strash-free bulk loading: the fast path for materialising a network
//! from an already-built record stream (a file, a generator, another
//! network).
//!
//! The incremental creation API ([`GateBuilder`]) pays per gate for
//! invariants a trusted stream already guarantees: a structural-hash probe
//! (the stream is duplicate-free), fanout-list pushes with amortised `Vec`
//! growth (the final degrees are determined by the stream) and cached-count
//! increments.  [`NetworkBuilder`] instead appends raw node records —
//! validated for representation legality, arity and topological order, and
//! levelised as they arrive — and reconstructs every piece of derived state
//! in linear passes at the end ([`NetworkBuilder::finish`]).  In debug
//! builds the result is audited with
//! [`check_network_integrity`](crate::views::check_network_integrity), so
//! the bulk path answers to exactly the same invariants as the incremental
//! one.
//!
//! # Caller contract
//!
//! The record stream must be *normalised* for the target representation
//! (the fanin orderings and complement placements its `create_*` methods
//! would produce) and free of structural duplicates.  Every writer in this
//! workspace emits such streams, because networks store gates in normalised
//! form and the structural hash keeps them unique.  Untrusted or
//! de-normalised input should go through the
//! [`GateBuilder`]-based slow path instead, which re-normalises and
//! re-hashes every gate.
//!
//! # Example
//!
//! ```
//! use glsx_network::{Aig, CircuitKind, GateKind, Network, NetworkBuilder, Signal};
//!
//! let mut builder = NetworkBuilder::try_with_capacity(CircuitKind::Aig, 2, 1).unwrap();
//! let a = builder.add_pi();
//! let b = builder.add_pi();
//! let g = builder.add_gate(GateKind::And, &[a, b]).unwrap();
//! builder.add_po(!g).unwrap();
//! assert_eq!(builder.level(g.node()), 1);
//! let aig: Aig = builder.finish().unwrap();
//! assert_eq!(aig.num_gates(), 1);
//! ```

use crate::storage::Storage;
use crate::{Aig, FaninArray, GateBuilder, GateKind, Mig, Network, NodeId, Signal, Xag, Xmg};
use std::collections::TryReserveError;
use std::error::Error;
use std::fmt;

/// The gate-based network representations a record stream can target (the
/// kind byte of serialised circuit formats).
#[derive(Copy, Clone, Debug, PartialEq, Eq, Hash)]
pub enum CircuitKind {
    /// And-inverter graph ([`Aig`]): two-input ANDs.
    Aig,
    /// Xor-and graph ([`Xag`]): two-input ANDs and XORs.
    Xag,
    /// Majority-inverter graph ([`Mig`]): three-input majorities.
    Mig,
    /// Xor-majority graph ([`Xmg`]): three-input majorities and XORs.
    Xmg,
}

impl CircuitKind {
    /// All representation kinds, in code order.
    pub const ALL: [CircuitKind; 4] = [
        CircuitKind::Aig,
        CircuitKind::Xag,
        CircuitKind::Mig,
        CircuitKind::Xmg,
    ];

    /// Returns `true` if the representation can store `kind` natively.
    pub fn accepts(self, kind: GateKind) -> bool {
        match self {
            CircuitKind::Aig => kind == GateKind::And,
            CircuitKind::Xag => matches!(kind, GateKind::And | GateKind::Xor),
            CircuitKind::Mig => kind == GateKind::Maj,
            CircuitKind::Xmg => matches!(kind, GateKind::Maj | GateKind::Xor3),
        }
    }

    /// The representation's *default* gate kind (the one encoded as a zero
    /// kind bit in packed formats).
    pub fn default_gate(self) -> GateKind {
        match self {
            CircuitKind::Aig | CircuitKind::Xag => GateKind::And,
            CircuitKind::Mig | CircuitKind::Xmg => GateKind::Maj,
        }
    }

    /// The representation's *alternate* gate kind, if it has two.
    pub fn alternate_gate(self) -> Option<GateKind> {
        match self {
            CircuitKind::Aig | CircuitKind::Mig => None,
            CircuitKind::Xag => Some(GateKind::Xor),
            CircuitKind::Xmg => Some(GateKind::Xor3),
        }
    }

    /// Maximum fanin arity of the representation's gates.
    pub fn max_arity(self) -> usize {
        match self {
            CircuitKind::Aig | CircuitKind::Xag => 2,
            CircuitKind::Mig | CircuitKind::Xmg => 3,
        }
    }

    /// Stable one-byte code used by serialised formats.
    pub fn code(self) -> u8 {
        match self {
            CircuitKind::Aig => 0,
            CircuitKind::Xag => 1,
            CircuitKind::Mig => 2,
            CircuitKind::Xmg => 3,
        }
    }

    /// Inverse of [`CircuitKind::code`].
    pub fn from_code(code: u8) -> Option<Self> {
        Self::ALL.get(code as usize).copied()
    }

    /// Short lowercase name (`"aig"`, `"xag"`, `"mig"`, `"xmg"`).
    pub fn name(self) -> &'static str {
        match self {
            CircuitKind::Aig => "aig",
            CircuitKind::Xag => "xag",
            CircuitKind::Mig => "mig",
            CircuitKind::Xmg => "xmg",
        }
    }
}

impl fmt::Display for CircuitKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.name())
    }
}

/// Error raised when a record stream violates the bulk-load contract.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum BulkError {
    /// The representation cannot store this gate kind natively.
    UnsupportedGate {
        /// Target representation.
        representation: CircuitKind,
        /// Offending gate kind.
        kind: GateKind,
    },
    /// The fanin count does not match the gate kind's arity.
    ArityMismatch {
        /// Gate kind of the record.
        kind: GateKind,
        /// Arity required by the kind.
        expected: usize,
        /// Fanins actually supplied.
        got: usize,
    },
    /// A fanin refers to a node that has not been defined yet (the stream
    /// is required to be topologically sorted).
    ForwardReference {
        /// Id the offending record would receive.
        gate: NodeId,
        /// Undefined fanin node.
        fanin: NodeId,
    },
    /// A primary output refers to a node that does not exist.
    UndefinedOutput {
        /// Undefined driver node.
        node: NodeId,
    },
    /// The builder's representation differs from the finish target's.
    RepresentationMismatch {
        /// Representation the builder was created for.
        builder: CircuitKind,
        /// Representation of the requested network type.
        target: CircuitKind,
    },
}

impl fmt::Display for BulkError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BulkError::UnsupportedGate {
                representation,
                kind,
            } => write!(f, "{representation} networks cannot store {kind} gates"),
            BulkError::ArityMismatch {
                kind,
                expected,
                got,
            } => write!(f, "{kind} gates take {expected} fanins, record has {got}"),
            BulkError::ForwardReference { gate, fanin } => write!(
                f,
                "gate {gate} references node {fanin} before its definition"
            ),
            BulkError::UndefinedOutput { node } => {
                write!(f, "primary output references undefined node {node}")
            }
            BulkError::RepresentationMismatch { builder, target } => {
                write!(
                    f,
                    "builder holds a {builder} stream but a {target} network was requested"
                )
            }
        }
    }
}

impl Error for BulkError {}

/// A network type the bulk builder can materialise.
///
/// Implemented by the four gate-based representations ([`Aig`], [`Xag`],
/// [`Mig`], [`Xmg`]); the constructor is driven through
/// [`NetworkBuilder::finish`].
pub trait BulkTarget: Network + GateBuilder {
    /// The representation tag corresponding to `Self`.
    const KIND: CircuitKind;

    /// Consumes a finished builder into a network of this type, rebuilding
    /// the derived state (fanouts, cached counts, structural hash) in
    /// linear passes.  Prefer calling [`NetworkBuilder::finish`].
    ///
    /// # Errors
    ///
    /// Fails with [`BulkError::RepresentationMismatch`] when the builder
    /// targets a different representation.
    fn from_bulk(builder: NetworkBuilder) -> Result<Self, BulkError>;
}

/// Strash-free bulk constructor for topologically-sorted record streams.
///
/// Records are appended with [`NetworkBuilder::add_pi`],
/// [`NetworkBuilder::add_gate`] and [`NetworkBuilder::add_po`]; node ids
/// are assigned densely in arrival order (`0` is the constant, inputs
/// follow, then gates), and each gate's **level** is computed as it
/// arrives, so the loaded network is topologically sorted by id and a
/// [`DepthView`](crate::views::DepthView) can be built without any
/// traversal ([`DepthView::from_levels`](crate::views::DepthView::from_levels)).
///
/// See the [module docs](crate::bulk) for the normalisation contract.
#[derive(Clone, Debug)]
pub struct NetworkBuilder {
    kind: CircuitKind,
    storage: Storage,
    levels: Vec<u32>,
}

impl NetworkBuilder {
    /// Creates a builder for the given representation.
    pub fn new(kind: CircuitKind) -> Self {
        Self {
            kind,
            storage: Storage::new(),
            levels: vec![0],
        }
    }

    /// Creates a builder with all node arrays reserved up front (the bulk
    /// ingest path: one allocation instead of amortised growth).  The
    /// counts usually come from an untrusted file header, so a reservation
    /// the allocator refuses is returned as an error instead of aborting
    /// the process.
    ///
    /// # Errors
    ///
    /// Fails when the allocator refuses the reservation.
    pub fn try_with_capacity(
        kind: CircuitKind,
        num_pis: usize,
        num_gates: usize,
    ) -> Result<Self, TryReserveError> {
        let mut builder = Self::new(kind);
        let nodes = num_pis.saturating_add(num_gates);
        builder.storage.try_reserve_nodes(nodes)?;
        builder.storage.try_reserve_pis(num_pis)?;
        builder.levels.try_reserve(nodes)?;
        Ok(builder)
    }

    /// The representation this builder targets.
    pub fn kind(&self) -> CircuitKind {
        self.kind
    }

    /// Number of node records appended so far (constant included).
    #[inline]
    pub fn num_nodes(&self) -> usize {
        self.levels.len()
    }

    /// Number of primary inputs appended so far.
    pub fn num_pis(&self) -> usize {
        self.storage.pis.len()
    }

    /// Number of gate records appended so far.
    pub fn num_gates(&self) -> usize {
        self.levels.len() - 1 - self.storage.pis.len()
    }

    /// Number of primary outputs appended so far.
    pub fn num_pos(&self) -> usize {
        self.storage.pos.len()
    }

    /// Level of `node` (0 for the constant and primary inputs).
    #[inline]
    pub fn level(&self, node: NodeId) -> u32 {
        self.levels[node as usize]
    }

    /// Appends a primary input (level 0).
    #[inline]
    pub fn add_pi(&mut self) -> Signal {
        self.levels.push(0);
        self.storage.create_pi()
    }

    /// Appends a gate record.  The fanins must refer to already-defined
    /// nodes; the new gate's level is `1 + max(fanin levels)` and its id is
    /// the next dense id.
    ///
    /// # Errors
    ///
    /// Fails when the representation cannot store `kind`, the fanin count
    /// does not match the kind's arity, or a fanin is a forward reference.
    pub fn add_gate(&mut self, kind: GateKind, fanins: &[Signal]) -> Result<Signal, BulkError> {
        self.add_gate_array(kind, FaninArray::from_slice(fanins))
    }

    /// [`NetworkBuilder::add_gate`] taking ownership of the fanin array —
    /// the hot path for record streams that already carry a
    /// [`FaninArray`]: the array moves straight into the node table
    /// instead of round-tripping through a slice copy.
    ///
    /// # Errors
    ///
    /// Same contract as [`NetworkBuilder::add_gate`].
    #[inline]
    pub fn add_gate_array(
        &mut self,
        kind: GateKind,
        fanins: FaninArray,
    ) -> Result<Signal, BulkError> {
        let level = self.validate_and_level(kind, fanins.as_slice())?;
        let id = self.storage.bulk_append_gate(kind, fanins);
        self.levels.push(level + 1);
        Ok(Signal::new(id, false))
    }

    /// [`NetworkBuilder::add_gate_array`] monomorphised over the fanin
    /// count — the hot path for format decoders that know the arity at
    /// compile time: the fanin sweep unrolls completely and the arity
    /// check folds to a constant comparison.
    ///
    /// # Errors
    ///
    /// Same contract as [`NetworkBuilder::add_gate`].
    #[inline]
    pub fn add_gate_fixed<const ARITY: usize>(
        &mut self,
        kind: GateKind,
        fanins: [Signal; ARITY],
    ) -> Result<Signal, BulkError> {
        let level = self.validate_and_level(kind, &fanins)?;
        let id = self
            .storage
            .bulk_append_gate(kind, FaninArray::from_slice(&fanins));
        self.levels.push(level + 1);
        Ok(Signal::new(id, false))
    }

    /// Shared validation core of the gate-append entry points: checks the
    /// representation and arity, then sweeps the fanins once — the level
    /// lookup's bounds check IS the forward-reference check (`levels` has
    /// exactly one entry per defined node), so the hot loop pays a single
    /// branch per fanin while also bumping the cached fanout counts.
    /// Returns the maximum fanin level.
    #[inline]
    fn validate_and_level(&mut self, kind: GateKind, fanins: &[Signal]) -> Result<u32, BulkError> {
        if !self.kind.accepts(kind) {
            return Err(BulkError::UnsupportedGate {
                representation: self.kind,
                kind,
            });
        }
        let expected = kind.arity().expect("fixed-function kinds have an arity");
        if fanins.len() != expected {
            return Err(BulkError::ArityMismatch {
                kind,
                expected,
                got: fanins.len(),
            });
        }
        let next_id = self.levels.len() as NodeId;
        let mut level = 0;
        for (j, f) in fanins.iter().enumerate() {
            let Some(&fanin_level) = self.levels.get(f.node() as usize) else {
                // cold: revert the counts bumped for the earlier fanins
                for g in fanins.iter().take(j) {
                    self.storage.bulk_unbump_fanout(g.node());
                }
                return Err(BulkError::ForwardReference {
                    gate: next_id,
                    fanin: f.node(),
                });
            };
            level = level.max(fanin_level);
            self.storage.bulk_bump_fanout(f.node());
        }
        Ok(level)
    }

    /// Appends a primary output.
    ///
    /// # Errors
    ///
    /// Fails when the driver node does not exist.
    #[inline]
    pub fn add_po(&mut self, signal: Signal) -> Result<(), BulkError> {
        if signal.node() as usize >= self.levels.len() {
            return Err(BulkError::UndefinedOutput {
                node: signal.node(),
            });
        }
        self.storage.bulk_append_po(signal);
        Ok(())
    }

    /// Finishes the build and returns the network.  The cached fanout and
    /// PO-reference counts were maintained as records arrived; the fanout
    /// lists and the structural-hash table stay unmaterialised until the
    /// network's first structural use
    /// ([`Network::ensure_derived_state`](crate::Network::ensure_derived_state)).
    /// In debug builds the result must pass the full
    /// [`check_network_integrity`](crate::views::check_network_integrity)
    /// audit.
    ///
    /// # Errors
    ///
    /// Fails when `N`'s representation differs from the builder's.
    pub fn finish<N: BulkTarget>(self) -> Result<N, BulkError> {
        N::from_bulk(self)
    }

    /// [`NetworkBuilder::finish`] that also hands back the per-node level
    /// table computed during ingest (indexable by [`NodeId`]; feed it to
    /// [`DepthView::from_levels`](crate::views::DepthView::from_levels) for
    /// a traversal-free depth view).
    pub fn finish_with_levels<N: BulkTarget>(mut self) -> Result<(N, Vec<u32>), BulkError> {
        let levels = std::mem::take(&mut self.levels);
        let ntk = N::from_bulk(self)?;
        Ok((ntk, levels))
    }

    /// Shared tail of the per-type [`BulkTarget::from_bulk`] impls.
    fn into_storage(self, target: CircuitKind) -> Result<Storage, BulkError> {
        if self.kind != target {
            return Err(BulkError::RepresentationMismatch {
                builder: self.kind,
                target,
            });
        }
        let mut storage = self.storage;
        storage.seal_bulk_load();
        Ok(storage)
    }
}

macro_rules! impl_bulk_target {
    ($ty:ty, $kind:expr) => {
        impl BulkTarget for $ty {
            const KIND: CircuitKind = $kind;

            fn from_bulk(builder: NetworkBuilder) -> Result<Self, BulkError> {
                let ntk = Self {
                    storage: builder.into_storage($kind)?,
                };
                #[cfg(debug_assertions)]
                if let Err(message) = crate::views::check_network_integrity(&ntk) {
                    panic!(
                        "bulk-loaded {} failed the integrity audit: {message}",
                        $kind
                    );
                }
                Ok(ntk)
            }
        }
    };
}

impl_bulk_target!(Aig, CircuitKind::Aig);
impl_bulk_target!(Xag, CircuitKind::Xag);
impl_bulk_target!(Mig, CircuitKind::Mig);
impl_bulk_target!(Xmg, CircuitKind::Xmg);

#[cfg(test)]
mod tests {
    use super::*;
    use crate::views::{check_network_integrity, DepthView};

    #[test]
    fn circuit_kind_codes_and_gates() {
        for kind in CircuitKind::ALL {
            assert_eq!(CircuitKind::from_code(kind.code()), Some(kind));
            assert!(kind.accepts(kind.default_gate()));
            if let Some(alt) = kind.alternate_gate() {
                assert!(kind.accepts(alt));
            }
            assert!(!kind.accepts(GateKind::Lut));
        }
        assert_eq!(CircuitKind::from_code(9), None);
        assert_eq!(CircuitKind::Mig.max_arity(), 3);
        assert_eq!(CircuitKind::Aig.to_string(), "aig");
    }

    #[test]
    fn bulk_build_matches_incremental_build() {
        // incremental reference
        let mut aig = Aig::new();
        let a = aig.create_pi();
        let b = aig.create_pi();
        let c = aig.create_pi();
        let g1 = aig.create_and(a, b);
        let g2 = aig.create_and(!g1, c);
        aig.create_po(g2);
        aig.create_po(!g1);

        // the same records through the bulk path
        let mut builder = NetworkBuilder::try_with_capacity(CircuitKind::Aig, 3, 2).unwrap();
        let a2 = builder.add_pi();
        let b2 = builder.add_pi();
        let c2 = builder.add_pi();
        let h1 = builder.add_gate(GateKind::And, &[a2, b2]).unwrap();
        let h2 = builder.add_gate(GateKind::And, &[c2, !h1]).unwrap();
        assert_eq!(builder.num_gates(), 2);
        assert_eq!(builder.level(h2.node()), 2);
        builder.add_po(h2).unwrap();
        builder.add_po(!h1).unwrap();
        let (mut bulk, levels) = builder.finish_with_levels::<Aig>().unwrap();

        // the expensive derived state (fanout lists, strash) is deferred;
        // the cheap state (cached fanout counts) is ready immediately
        assert!(!bulk.has_derived_state());
        assert!(check_network_integrity(&bulk).is_ok());
        assert_eq!(bulk.size(), aig.size());
        assert_eq!(bulk.num_gates(), aig.num_gates());
        assert_eq!(bulk.po_signals(), aig.po_signals());
        for node in aig.node_ids() {
            assert_eq!(bulk.gate_kind(node), aig.gate_kind(node));
            assert_eq!(bulk.fanins(node), aig.fanins(node));
            assert_eq!(bulk.fanout_size(node), aig.fanout_size(node));
        }
        // materialisation reconstructs exactly what incremental creation
        // maintains: fanout lists and a live strash
        bulk.ensure_derived_state();
        assert!(bulk.has_derived_state());
        assert!(check_network_integrity(&bulk).is_ok());
        for node in aig.node_ids() {
            let mut got = bulk.fanouts(node);
            let mut want = aig.fanouts(node);
            got.sort_unstable();
            want.sort_unstable();
            assert_eq!(got, want);
        }
        assert_eq!(
            bulk.find_structural(GateKind::And, &[a, b]),
            Some(g1.node())
        );
        // ingest levels agree with a from-scratch depth view
        let view = DepthView::from_levels(&bulk, levels);
        let twin = DepthView::new(&bulk);
        for node in bulk.node_ids() {
            assert_eq!(view.level(node), twin.level(node));
        }
        assert_eq!(view.depth(), twin.depth());
    }

    #[test]
    fn bulk_builder_rejects_contract_violations() {
        let mut builder = NetworkBuilder::new(CircuitKind::Aig);
        let a = builder.add_pi();
        let b = builder.add_pi();
        assert_eq!(
            builder.add_gate(GateKind::Xor, &[a, b]),
            Err(BulkError::UnsupportedGate {
                representation: CircuitKind::Aig,
                kind: GateKind::Xor,
            })
        );
        assert_eq!(
            builder.add_gate(GateKind::And, &[a]),
            Err(BulkError::ArityMismatch {
                kind: GateKind::And,
                expected: 2,
                got: 1,
            })
        );
        assert_eq!(
            builder.add_gate(GateKind::And, &[a, Signal::new(9, false)]),
            Err(BulkError::ForwardReference { gate: 3, fanin: 9 })
        );
        assert_eq!(
            builder.add_po(Signal::new(7, true)),
            Err(BulkError::UndefinedOutput { node: 7 })
        );
        let g = builder.add_gate(GateKind::And, &[a, b]).unwrap();
        builder.add_po(g).unwrap();
        assert!(matches!(
            builder.finish::<Mig>(),
            Err(BulkError::RepresentationMismatch { .. })
        ));
    }

    #[test]
    fn bulk_builds_every_representation() {
        // XAG with both gate kinds
        let mut builder = NetworkBuilder::new(CircuitKind::Xag);
        let a = builder.add_pi();
        let b = builder.add_pi();
        let g1 = builder.add_gate(GateKind::And, &[a, b]).unwrap();
        let g2 = builder.add_gate(GateKind::Xor, &[a, g1]).unwrap();
        builder.add_po(!g2).unwrap();
        let xag: Xag = builder.finish().unwrap();
        assert_eq!(xag.num_gates(), 2);
        assert!(check_network_integrity(&xag).is_ok());

        // MIG with a constant fanin (and(a, b) = maj(a, b, 0))
        let mut builder = NetworkBuilder::new(CircuitKind::Mig);
        let a = builder.add_pi();
        let b = builder.add_pi();
        let zero = Signal::constant(false);
        let g = builder.add_gate(GateKind::Maj, &[zero, a, b]).unwrap();
        builder.add_po(g).unwrap();
        let mig: Mig = builder.finish().unwrap();
        assert_eq!(mig.num_gates(), 1);
        assert!(check_network_integrity(&mig).is_ok());

        // XMG with maj + xor3
        let mut builder = NetworkBuilder::new(CircuitKind::Xmg);
        let a = builder.add_pi();
        let b = builder.add_pi();
        let c = builder.add_pi();
        let sum = builder.add_gate(GateKind::Xor3, &[a, b, c]).unwrap();
        let carry = builder.add_gate(GateKind::Maj, &[a, b, c]).unwrap();
        builder.add_po(sum).unwrap();
        builder.add_po(carry).unwrap();
        let xmg: Xmg = builder.finish().unwrap();
        assert_eq!(xmg.num_gates(), 2);
        assert!(check_network_integrity(&xmg).is_ok());
    }
}
