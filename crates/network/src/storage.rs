//! Shared node storage used by all network implementations (layer 3).
//!
//! The storage owns the node table, the fanout lists, the primary
//! input/output lists and the structural hashing table.  The concrete
//! network types ([`Aig`](crate::Aig), [`Xag`](crate::Xag),
//! [`Mig`](crate::Mig), [`Xmg`](crate::Xmg), [`Klut`](crate::Klut)) wrap a
//! storage and add their representation-specific creation rules
//! (simplification and normalisation) on top.
//!
//! The storage is engineered for allocation-free hot-path access:
//!
//! * fanins are stored inline per node ([`FaninArray`], up to four signals
//!   without touching the heap — every fixed-function gate fits),
//! * structural-hash keys are fixed-size arrays instead of `Vec`s, so
//!   lookup and insertion never allocate,
//! * fanout counts are cached per node and maintained incrementally, so
//!   [`Storage::fanout_size`] is a single field read,
//! * every node carries a generic scratch slot (`u64`) that algorithms can
//!   use for traversal marks or per-node metadata without auxiliary maps.

use crate::changes::{ChangeEvent, ChangeLog};
use crate::choices::ChoiceStore;
use crate::{FaninArray, GateKind, NodeId, Signal};
use glsx_truth::TruthTable;
use std::collections::{HashMap, TryReserveError};
use std::sync::atomic::{AtomicU64, Ordering};

/// One generic scratch word: interior-mutable (read-only traversals can
/// stamp visit marks through `&Storage`) yet `Sync`, so networks can still
/// be shared across threads for parallel read-only analysis.  Relaxed
/// ordering suffices — slots are plain per-node data, not synchronisation.
#[derive(Debug, Default)]
struct ScratchSlot(AtomicU64);

impl ScratchSlot {
    #[inline]
    fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }

    #[inline]
    fn set(&self, value: u64) {
        self.0.store(value, Ordering::Relaxed);
    }
}

impl Clone for ScratchSlot {
    fn clone(&self) -> Self {
        Self(AtomicU64::new(self.get()))
    }
}

/// Monotonic traversal-epoch counter (see
/// [`Traversal`](crate::traversal::Traversal)).  Interior-mutable for the
/// same reason as [`ScratchSlot`]: read-only traversals draw epochs through
/// a shared reference.
#[derive(Debug, Default)]
struct EpochCounter(AtomicU64);

impl Clone for EpochCounter {
    fn clone(&self) -> Self {
        // a clone keeps the counter value: the cloned scratch slots carry
        // stamps up to the current epoch, which must stay unreachable for
        // traversals over the clone
        Self(AtomicU64::new(self.0.load(Ordering::Relaxed)))
    }
}

/// Maximum fanin count of structurally hashed gates (every fixed-function
/// kind has arity ≤ 3; LUT nodes are not hashed).
const MAX_STRASH_FANINS: usize = 3;

/// Filler literal for unused strash-key lanes; no real signal encodes to
/// `u32::MAX` (that would require 2^31 nodes).
const STRASH_PAD: u32 = u32::MAX;

/// Fixed-size structural-hash key: gate kind plus the sorted fanin
/// literals, padded with [`STRASH_PAD`].
#[derive(Copy, Clone, PartialEq, Eq, Hash, Debug)]
struct StrashKey {
    kind: GateKind,
    fanins: [u32; MAX_STRASH_FANINS],
}

impl StrashKey {
    fn new(kind: GateKind, fanins: &[Signal]) -> Self {
        debug_assert!(fanins.len() <= MAX_STRASH_FANINS);
        let mut key = [STRASH_PAD; MAX_STRASH_FANINS];
        for (lane, f) in key.iter_mut().zip(fanins) {
            *lane = f.literal();
        }
        // sorting makes the key independent of argument order for
        // commutative gates; the pad sorts last
        key.sort_unstable();
        Self { kind, fanins: key }
    }
}

/// Data stored per node.
///
/// Kept deliberately lean (56 bytes): the record holds only the
/// fanin-side structure plus two cached counters.  Fanout *lists* live in
/// a parallel side table ([`Storage::fanout_lists`]) because they are
/// derived state — bulk loading leaves them unmaterialised, and the
/// append hot path must not pay for a third pointer triple per record.
/// LUT functions are boxed for the same reason: only k-LUT networks carry
/// them, so every AIG/XAG/MIG node would otherwise waste an inline
/// truth-table's footprint.
#[derive(Clone, Debug)]
pub(crate) struct NodeData {
    pub kind: GateKind,
    /// Fanin signals, stored inline (heap-free for arity ≤ 4).
    pub fanins: FaninArray,
    /// Number of primary outputs referring to this node.
    pub po_refs: u32,
    /// Cached fanout count: fanout-list length plus `po_refs`, maintained
    /// incrementally so `fanout_size` never walks the list.
    pub fanout_count: u32,
    pub dead: bool,
    /// Explicit function for LUT nodes (boxed — absent on every
    /// fixed-function node).
    pub function: Option<Box<TruthTable>>,
}

impl NodeData {
    fn new(kind: GateKind, fanins: FaninArray, function: Option<TruthTable>) -> Self {
        Self {
            kind,
            fanins,
            po_refs: 0,
            fanout_count: 0,
            dead: false,
            function: function.map(Box::new),
        }
    }
}

/// An opaque, restorable copy of a network's logical state: node records
/// (fanins, fanouts, PO references, liveness, LUT functions), PI/PO
/// lists, the structural-hash table, the choice rings and any pending
/// change events.  Scratch slots and the traversal-epoch counter are
/// deliberately *not* part of a snapshot — they are per-run algorithm
/// state, and restoring must never rewind the epoch (stale marks from a
/// panicked pass would read as owned again).
///
/// Created by [`crate::Network::snapshot`], consumed by
/// [`crate::Network::restore`]; the checkpoint half of the resilient
/// flow executor's never-corrupt contract.
#[derive(Clone, Debug)]
pub struct NetworkSnapshot {
    nodes: Vec<NodeData>,
    fanout_lists: Vec<Vec<NodeId>>,
    pis: Vec<NodeId>,
    pos: Vec<Signal>,
    strash: HashMap<StrashKey, NodeId>,
    num_dead_gates: usize,
    choices: Option<ChoiceStore>,
    changes: ChangeLog,
    track_changes: bool,
    derived_stale: bool,
}

impl NetworkSnapshot {
    /// Number of node records captured (live and dead).
    pub fn num_nodes(&self) -> usize {
        self.nodes.len()
    }
}

/// Shared storage: node table, PI/PO lists, structural hashing, scratch
/// slots.
#[derive(Clone, Debug, Default)]
pub(crate) struct Storage {
    pub nodes: Vec<NodeData>,
    /// Per-node fanout lists, one entry per fanin occurrence; parallel to
    /// `nodes` whenever the derived state is fresh.  Kept outside
    /// [`NodeData`] because the lists are *derived* — bulk loading leaves
    /// them unmaterialised ([`Storage::ensure_derived`] rebuilds the whole
    /// table in one sweep) and the append hot path writes 24 fewer bytes
    /// per record.
    fanout_lists: Vec<Vec<NodeId>>,
    pub pis: Vec<NodeId>,
    pub pos: Vec<Signal>,
    strash: HashMap<StrashKey, NodeId>,
    pub num_dead_gates: usize,
    /// One generic scratch word per node (interior-mutable so read-only
    /// traversals can stamp visit marks without `&mut` access).
    scratch: Vec<ScratchSlot>,
    /// Monotonic epoch counter backing the scratch-slot traversal engine.
    epoch: EpochCounter,
    /// Structural change events recorded since the last drain (empty and
    /// untouched unless `track_changes` is on).
    changes: ChangeLog,
    /// Whether mutations append to `changes` (see
    /// [`crate::changes`]); off by default, one branch per mutation when
    /// off.
    track_changes: bool,
    /// Structural-choice rings (see [`crate::choices`]); absent until
    /// [`Storage::enable_choices`], one `Option` check per mutation when
    /// absent.
    choices: Option<ChoiceStore>,
    /// `true` while the fanout lists and the structural-hash table are
    /// unmaterialised after a bulk load (see
    /// [`Storage::seal_bulk_load`]).  The cached fanout counts are
    /// always valid; [`Storage::ensure_derived`] materialises the rest on
    /// first structural use.
    derived_stale: bool,
}

impl Storage {
    /// Creates a storage containing only the constant-zero node.
    pub fn new() -> Self {
        let mut storage = Self::default();
        storage
            .nodes
            .push(NodeData::new(GateKind::Constant, FaninArray::new(), None));
        storage.fanout_lists.push(Vec::new());
        storage.scratch.push(ScratchSlot::default());
        storage
    }

    #[inline]
    pub fn node(&self, id: NodeId) -> &NodeData {
        &self.nodes[id as usize]
    }

    #[inline]
    pub fn node_mut(&mut self, id: NodeId) -> &mut NodeData {
        &mut self.nodes[id as usize]
    }

    /// Reads the generic scratch slot of `id`.
    #[inline]
    pub fn scratch(&self, id: NodeId) -> u64 {
        self.scratch[id as usize].get()
    }

    /// Writes the generic scratch slot of `id` (interior mutability: works
    /// through a shared reference).
    #[inline]
    pub fn set_scratch(&self, id: NodeId, value: u64) {
        self.scratch[id as usize].set(value);
    }

    /// Resets every scratch slot to zero.
    pub fn clear_scratch(&self) {
        for slot in &self.scratch {
            slot.set(0);
        }
    }

    /// Draws the next traversal epoch (a value in `1..=u32::MAX`).  On the
    /// rare 32-bit wrap-around every scratch slot is cleared once so stale
    /// stamps from the previous epoch cycle cannot alias fresh epochs.
    pub fn next_traversal_epoch(&self) -> u64 {
        loop {
            let epoch = self.epoch.0.fetch_add(1, Ordering::Relaxed) + 1;
            let epoch = epoch & u64::from(u32::MAX);
            if epoch != 0 {
                return epoch;
            }
            self.clear_scratch();
        }
    }

    /// Returns the most recently drawn traversal epoch (0 before the first
    /// draw).  Debug aid backing the [`Traversal`](crate::Traversal) owner
    /// check; transiently off by the wrap-skip during the rare 32-bit
    /// wrap-around, which is acceptable for a debug-only diagnostic.
    pub fn current_traversal_epoch(&self) -> u64 {
        self.epoch.0.load(Ordering::Relaxed) & u64::from(u32::MAX)
    }

    /// Enables or disables change-event recording (see
    /// [`crate::changes`]).  Disabling discards any pending events.
    pub fn set_change_tracking(&mut self, enabled: bool) {
        self.track_changes = enabled;
        if !enabled {
            self.changes.clear();
        }
    }

    /// Returns `true` if mutations are currently being recorded.
    pub fn is_change_tracking(&self) -> bool {
        self.track_changes
    }

    /// Moves all recorded events onto the end of `into`, leaving the
    /// internal buffer empty (allocation-free in the steady state).
    pub fn drain_changes(&mut self, into: &mut ChangeLog) {
        into.append(&mut self.changes);
    }

    /// Puts already-drained events back in front of the internal buffer
    /// (preserving overall order), leaving `log` empty.  Used by passes
    /// that drain for their own refreshes but must hand an enclosing
    /// consumer's events back on exit.
    pub fn requeue_changes(&mut self, log: &mut ChangeLog) {
        log.append(&mut self.changes);
        self.changes.append(log);
    }

    #[inline]
    fn record(&mut self, event: ChangeEvent) {
        if self.track_changes {
            self.changes.push(event);
        }
    }

    // -- checkpoint / rollback ---------------------------------------------

    /// Captures the complete logical state (see [`NetworkSnapshot`]).
    pub fn snapshot(&self) -> NetworkSnapshot {
        NetworkSnapshot {
            nodes: self.nodes.clone(),
            fanout_lists: self.fanout_lists.clone(),
            pis: self.pis.clone(),
            pos: self.pos.clone(),
            strash: self.strash.clone(),
            num_dead_gates: self.num_dead_gates,
            choices: self.choices.clone(),
            changes: self.changes.clone(),
            track_changes: self.track_changes,
            derived_stale: self.derived_stale,
        }
    }

    /// Restores the logical state captured by `snapshot`.  Scratch slots
    /// are rebuilt zeroed and the traversal epoch is **bumped, never
    /// rewound** — any stamp a panicked pass left mid-traversal becomes
    /// unreachable, so the single-traversal debug check cannot fire
    /// spuriously and no stale mark can alias a fresh traversal.
    pub fn restore(&mut self, snapshot: &NetworkSnapshot) {
        self.nodes.clone_from(&snapshot.nodes);
        self.fanout_lists.clone_from(&snapshot.fanout_lists);
        self.pis.clone_from(&snapshot.pis);
        self.pos.clone_from(&snapshot.pos);
        self.strash.clone_from(&snapshot.strash);
        self.num_dead_gates = snapshot.num_dead_gates;
        self.choices.clone_from(&snapshot.choices);
        self.changes.clone_from(&snapshot.changes);
        self.track_changes = snapshot.track_changes;
        self.derived_stale = snapshot.derived_stale;
        self.scratch.clear();
        self.scratch
            .extend((0..snapshot.nodes.len()).map(|_| ScratchSlot::default()));
        self.next_traversal_epoch();
    }

    // -- structural choices (see [`crate::choices`]) -----------------------

    /// Enables the choice table (idempotent).
    pub fn enable_choices(&mut self) {
        if self.choices.is_none() {
            self.choices = Some(ChoiceStore::new());
        }
    }

    /// Returns `true` once the choice table exists.
    pub fn has_choices(&self) -> bool {
        self.choices.is_some()
    }

    /// Drops the choice table, lifting the removal protection of ring
    /// participants.  Cones that were only kept alive as choices become
    /// ordinary dangling logic (removed by the next cleanup).
    pub fn clear_choices(&mut self) {
        self.choices = None;
    }

    /// Representative of `node`'s equivalence class (`node` when
    /// unclassed or choices are disabled).
    #[inline]
    pub fn choice_repr(&self, node: NodeId) -> NodeId {
        match &self.choices {
            Some(store) => store.repr(node),
            None => node,
        }
    }

    /// Polarity of `node` relative to its representative.
    #[inline]
    pub fn choice_phase(&self, node: NodeId) -> bool {
        match &self.choices {
            Some(store) => store.phase(node),
            None => false,
        }
    }

    /// Next node of `node`'s choice ring, if any.
    #[inline]
    pub fn next_choice(&self, node: NodeId) -> Option<NodeId> {
        self.choices.as_ref().and_then(|store| store.next(node))
    }

    /// Number of ring members over all classes.
    pub fn num_choice_nodes(&self) -> usize {
        self.choices
            .as_ref()
            .map(ChoiceStore::num_members)
            .unwrap_or(0)
    }

    /// Returns `true` if `node` participates in a ring (and is therefore
    /// protected from dangling-logic removal).
    #[inline]
    fn is_choice_protected(&self, node: NodeId) -> bool {
        match &self.choices {
            Some(store) => store.participates(node),
            None => false,
        }
    }

    /// Registers `node` as a structural choice of the signal `repr`:
    /// every fanout and primary-output use of `node` is rewired onto
    /// `repr` (exactly like [`Storage::substitute`], cascading
    /// structural-hash merges included) but `node` — and with it its cone —
    /// stays **alive**, linked into `repr.node()`'s choice ring with the
    /// polarity `repr.is_complemented()`.
    ///
    /// Returns `false` when no ring entry was created: choices are not
    /// enabled, either side is dead, `node` is not a gate, or the pair is
    /// already ringed together — all of which leave the network unchanged.
    /// One `false` path *does* mutate: when a cascading structural-hash
    /// merge unifies the pair during the rewire itself, the fanouts have
    /// been rewired and the equivalence has become structural, so there is
    /// nothing left to ring.  The caller asserts functional equivalence
    /// (`node ≡ repr`) and that `node` does not appear in `repr`'s cone
    /// (the rewire would create a structural cycle).  The representative
    /// appearing inside the member's cone is legal — redundant
    /// re-expressions are typically built on top of the original node.
    pub fn register_choice(&mut self, node: NodeId, repr: Signal) -> bool {
        let Some(store) = &self.choices else {
            return false;
        };
        // resolve the representative through its own class: registering
        // against a node that is itself a member lands in that member's
        // ring head with the composed polarity
        let target = store.repr(repr.node());
        let phase = repr.is_complemented() ^ store.phase(repr.node());
        if node == target
            || self.node(node).dead
            || self.node(target).dead
            || !self.node(node).kind.is_gate()
        {
            return false;
        }
        let store = self.choices.as_ref().expect("checked above");
        if store.repr(node) == target {
            // already ringed together; report success iff the recorded
            // polarity agrees (a disagreement would mean node ≡ ¬node)
            return store.phase(node) == phase;
        }
        if store.repr(node) != node {
            // a member of a *different* ring: the caller's proof relates
            // two classes; merging whole classes is the representative's
            // business, refuse the member-level registration
            return false;
        }
        // rewire fanouts/outputs onto the representative, keeping `node`
        self.substitute_impl(node, Signal::new(target, phase), true);
        if self.node(node).dead || self.node(target).dead {
            // a cascading merge killed one side before linking: nothing to
            // ring (the equivalence is already structural)
            return false;
        }
        self.choices
            .as_mut()
            .expect("choices enabled")
            .append(target, node, phase);
        true
    }

    /// Ring maintenance for a node that is about to die by substitution:
    /// its ring (or membership) migrates onto the live replacement.
    fn choice_on_substituted(&mut self, old: NodeId, new: Signal) {
        let Some(store) = &mut self.choices else {
            return;
        };
        if !store.participates(old) {
            return;
        }
        if store.repr(old) != old {
            // a dying member simply leaves its ring: its structure is
            // gone, the replacement signal keeps the class's function
            store.remove(old, None);
            return;
        }
        // a dying representative: promote the ring onto the replacement
        // (resolving through the replacement's own class; non-gate
        // replacements dissolve the ring — a PI or constant needs no
        // structural alternatives)
        let target = store.repr(new.node());
        let phase = new.is_complemented() ^ store.phase(new.node());
        let promote = if self.nodes[target as usize].kind.is_gate() && target != old {
            Some(Signal::new(target, phase))
        } else {
            None
        };
        self.choices
            .as_mut()
            .expect("choices enabled")
            .remove(old, promote);
    }

    /// Reserves room for `additional` upcoming primary inputs, returning
    /// the allocator's refusal instead of aborting on it.
    pub fn try_reserve_pis(&mut self, additional: usize) -> Result<(), TryReserveError> {
        self.nodes.try_reserve(additional)?;
        self.fanout_lists.try_reserve(additional)?;
        self.scratch.try_reserve(additional)?;
        self.pis.try_reserve(additional)
    }

    pub fn create_pi(&mut self) -> Signal {
        let id = self.nodes.len() as NodeId;
        self.nodes
            .push(NodeData::new(GateKind::Input, FaninArray::new(), None));
        // harmless while the derived state is stale: `ensure_derived`
        // rebuilds the whole side table to match the node count
        self.fanout_lists.push(Vec::new());
        self.scratch.push(ScratchSlot::default());
        self.pis.push(id);
        Signal::new(id, false)
    }

    pub fn create_po(&mut self, signal: Signal) -> usize {
        let driver = self.node_mut(signal.node());
        driver.po_refs += 1;
        driver.fanout_count += 1;
        self.pos.push(signal);
        self.pos.len() - 1
    }

    /// Looks up an existing live gate with the given kind and fanins.
    ///
    /// # Panics
    ///
    /// Panics if the structural-hash table is unmaterialised after a bulk
    /// load (see [`Storage::ensure_derived`]).
    pub fn find_gate(&self, kind: GateKind, fanins: &[Signal]) -> Option<NodeId> {
        assert!(
            !self.derived_stale,
            "the structural-hash table is unmaterialised after a bulk load; \
             call ensure_derived_state() before structural lookups"
        );
        let key = StrashKey::new(kind, fanins);
        self.strash
            .get(&key)
            .copied()
            .filter(|&n| !self.node(n).dead)
    }

    /// Creates a new gate node (without any simplification) and registers
    /// it in the structural hash table (LUT nodes are not hashed).
    pub fn create_gate(
        &mut self,
        kind: GateKind,
        fanins: &[Signal],
        function: Option<TruthTable>,
    ) -> NodeId {
        self.ensure_derived();
        let id = self.nodes.len() as NodeId;
        for f in fanins {
            self.fanout_lists[f.node() as usize].push(id);
            self.nodes[f.node() as usize].fanout_count += 1;
        }
        if kind != GateKind::Lut {
            self.strash.insert(StrashKey::new(kind, fanins), id);
        }
        self.nodes.push(NodeData::new(
            kind,
            FaninArray::from_slice(fanins),
            function,
        ));
        self.fanout_lists.push(Vec::new());
        self.scratch.push(ScratchSlot::default());
        id
    }

    /// Pops every node with id ≥ `mark` in reverse creation order: the
    /// trial-construction undo of [`Storage::create_gate`].  Each pop
    /// removes the node's strash entry, pops it once off each fanin's
    /// fanout list (the last entry there, since later nodes were popped
    /// first) and decrements the fanins' cached counts; no change event is
    /// recorded.  The live ids below `mark` keep their records, their
    /// fanout lists in order and their relative order, and the popped ids
    /// are given out again by the next creation.
    ///
    /// # Panics
    ///
    /// Panics if `mark` lies beyond the node table, or if a popped node is
    /// not a live gate, has a fanout (one from below `mark`: the later
    /// nodes are gone by then), drives an output or sits in a choice ring —
    /// rolling such a node back would leave a dangling id behind.
    pub fn rollback_to(&mut self, mark: usize) {
        assert!(
            mark <= self.nodes.len(),
            "rollback mark {mark} lies beyond the node table ({} ids)",
            self.nodes.len()
        );
        if mark < self.nodes.len() {
            self.ensure_derived();
        }
        while self.nodes.len() > mark {
            let id = (self.nodes.len() - 1) as NodeId;
            let node = &self.nodes[id as usize];
            assert!(
                !node.dead && node.kind.is_gate(),
                "rollback over node {id}, which is not a live gate"
            );
            assert_eq!(
                node.po_refs, 0,
                "rollback over node {id}, which drives an output"
            );
            assert!(
                self.fanout_lists[id as usize].is_empty(),
                "rollback over node {id}, which has a fanout from below the mark"
            );
            assert!(
                !self.is_choice_protected(id),
                "rollback over node {id}, which sits in a choice ring"
            );
            let node = self.nodes.pop().expect("the table holds the node");
            if node.kind != GateKind::Lut {
                let key = StrashKey::new(node.kind, node.fanins.as_slice());
                if self.strash.get(&key) == Some(&id) {
                    self.strash.remove(&key);
                }
            }
            for f in node.fanins.iter().rev() {
                let popped = self.fanout_lists[f.node() as usize].pop();
                assert_eq!(popped, Some(id), "fanout list of {} out of order", f.node());
                self.nodes[f.node() as usize].fanout_count -= 1;
            }
            self.fanout_lists.pop();
            self.scratch.pop();
        }
    }

    /// Finds an existing gate with the given kind/fanins or creates one.
    pub fn find_or_create_gate(&mut self, kind: GateKind, fanins: &[Signal]) -> NodeId {
        self.ensure_derived();
        if let Some(existing) = self.find_gate(kind, fanins) {
            existing
        } else {
            self.create_gate(kind, fanins, None)
        }
    }

    #[inline]
    pub fn fanout_size(&self, id: NodeId) -> usize {
        let n = self.node(id);
        debug_assert!(
            self.derived_stale
                || n.fanout_count as usize
                    == self.fanout_lists[id as usize].len() + n.po_refs as usize,
            "cached fanout count diverged for node {id}"
        );
        n.fanout_count as usize
    }

    pub fn is_gate(&self, id: NodeId) -> bool {
        let n = self.node(id);
        !n.dead && n.kind.is_gate()
    }

    // -- bulk loading (see [`crate::bulk`]) --------------------------------
    //
    // The bulk path appends topologically-sorted node records *without* the
    // per-node bookkeeping of `create_gate` — no structural-hash probe, no
    // fanout pushes, no cached-count increments — and reconstructs all of
    // that derived state in a handful of linear passes at the end.  For a
    // million-gate ingest this turns scattered per-gate hash/`Vec` traffic
    // into sequential sweeps over dense arrays.

    /// Pre-allocates room for `additional` upcoming node records (bulk
    /// ingest reserves the whole file's worth up front), returning the
    /// allocator's refusal instead of aborting on it.
    pub(crate) fn try_reserve_nodes(&mut self, additional: usize) -> Result<(), TryReserveError> {
        self.nodes.try_reserve(additional)?;
        self.scratch.try_reserve(additional)
    }

    /// Bumps the cached fanout count of `id` by one.  Bulk-append
    /// companion of [`Storage::bulk_append_gate`]: the builder folds this
    /// into its single validation sweep over the fanins (those records
    /// are cache-hot — streams reference mostly recent nodes), so the
    /// append itself is a pure record push.
    #[inline]
    pub(crate) fn bulk_bump_fanout(&mut self, id: NodeId) {
        self.nodes[id as usize].fanout_count += 1;
    }

    /// Reverts [`Storage::bulk_bump_fanout`] — the builder's cold path
    /// when a later fanin of the same record turns out to be invalid.
    #[inline]
    pub(crate) fn bulk_unbump_fanout(&mut self, id: NodeId) {
        self.nodes[id as usize].fanout_count -= 1;
    }

    /// Appends a gate record with *no* derived-state maintenance: the
    /// caller has already bumped the fanin counts
    /// ([`Storage::bulk_bump_fanout`]), the fanout lists and the
    /// structural-hash table stay stale until [`Storage::ensure_derived`]
    /// runs, and the scratch table is extended in one resize at
    /// [`Storage::seal_bulk_load`] instead of a push per record.  Only
    /// the bulk builder may call this, on a storage it exclusively owns.
    #[inline]
    pub(crate) fn bulk_append_gate(&mut self, kind: GateKind, fanins: FaninArray) -> NodeId {
        let id = self.nodes.len() as NodeId;
        self.nodes.push(NodeData::new(kind, fanins, None));
        id
    }

    /// Appends a primary output, maintaining the driver's PO-reference and
    /// cached fanout count (like [`Storage::create_po`]).
    pub(crate) fn bulk_append_po(&mut self, signal: Signal) {
        let driver = self.node_mut(signal.node());
        driver.po_refs += 1;
        driver.fanout_count += 1;
        self.pos.push(signal);
    }

    /// Seals a bulk load: extends the scratch table to cover the appended
    /// records (one resize instead of a push per append) and marks the
    /// *expensive* derived state — the per-node fanout lists and the
    /// structural-hash table — stale.  The cached fanout and PO-reference
    /// counts were already maintained at append time, so nothing here
    /// touches the node table.
    ///
    /// This is the strash-free half of bulk loading: a freshly loaded
    /// network answers every fanin-side query (simulation, writers,
    /// equivalence checking, depth views) and [`Storage::fanout_size`]
    /// without ever having paid for fanout lists or hashing.  The first
    /// structural mutation or fanout traversal triggers
    /// [`Storage::ensure_derived`], which materialises the rest.
    pub(crate) fn seal_bulk_load(&mut self) {
        self.scratch
            .resize_with(self.nodes.len(), ScratchSlot::default);
        self.strash = HashMap::new();
        self.derived_stale = true;
    }

    /// `false` while the fanout lists and structural-hash table are
    /// pending materialisation after a bulk load.
    #[inline]
    pub fn has_derived(&self) -> bool {
        !self.derived_stale
    }

    /// Materialises the deferred derived state (no-op when fresh):
    ///
    /// 1. every fanout list is allocated at its exact final capacity
    ///    (recovered from the cached counts) and filled — no incremental
    ///    `Vec` growth,
    /// 2. the structural-hash table is built with one reservation and one
    ///    insertion per hashed gate (first definition wins, so
    ///    duplicate-free inputs — which every writer in this workspace
    ///    produces — reconstruct exactly the table incremental creation
    ///    would have built).
    ///
    /// Every `&mut self` structural entry point calls this first, so a
    /// bulk-loaded network lazily self-repairs on first mutation; `&self`
    /// fanout/strash readers instead assert freshness (see
    /// [`Storage::node_fanouts`]).
    pub fn ensure_derived(&mut self) {
        if !self.derived_stale {
            return;
        }
        let n = self.nodes.len();
        let mut num_hashed = 0usize;
        self.fanout_lists.clear();
        self.fanout_lists.resize_with(n, Vec::new);
        for (id, node) in self.nodes.iter().enumerate() {
            // degree = cached fanout count minus PO references
            let capacity = (node.fanout_count - node.po_refs) as usize;
            self.fanout_lists[id] = Vec::with_capacity(capacity);
            if node.kind.is_gate() && node.kind != GateKind::Lut && !node.dead {
                num_hashed += 1;
            }
        }
        for (id, node) in self.nodes.iter().enumerate() {
            for f in node.fanins.iter() {
                self.fanout_lists[f.node() as usize].push(id as NodeId);
            }
        }
        self.strash = HashMap::with_capacity(num_hashed);
        for id in 0..n {
            let node = &self.nodes[id];
            if node.dead || !node.kind.is_gate() || node.kind == GateKind::Lut {
                continue;
            }
            let key = StrashKey::new(node.kind, node.fanins.as_slice());
            self.strash.entry(key).or_insert(id as NodeId);
        }
        self.derived_stale = false;
    }

    /// The fanout list of `id`.
    ///
    /// # Panics
    ///
    /// Panics if the derived state is stale (freshly bulk-loaded network
    /// that has not been mutated): fanout lists do not exist yet, and a
    /// shared reference cannot build them.  Call
    /// [`Network::ensure_derived_state`](crate::Network::ensure_derived_state)
    /// first.
    #[inline]
    pub fn node_fanouts(&self, id: NodeId) -> &[NodeId] {
        assert!(
            !self.derived_stale,
            "fanout lists are unmaterialised after a bulk load; \
             call ensure_derived_state() before traversing fanouts"
        );
        &self.fanout_lists[id as usize]
    }

    /// Number of live gates, in O(1): every node is the constant, a PI or
    /// a gate, and only gates die, so the live-gate count falls out of the
    /// table sizes and the dead counter.
    pub fn num_gates(&self) -> usize {
        let count = self.nodes.len() - 1 - self.pis.len() - self.num_dead_gates;
        debug_assert_eq!(
            count,
            self.nodes
                .iter()
                .filter(|n| !n.dead && n.kind.is_gate())
                .count(),
            "live-gate counter diverged from the node table"
        );
        count
    }

    /// Returns all live gates in a topological order (fanins before
    /// fanouts).  Creation order is not sufficient because substitution can
    /// point an older gate at a newer one, so a DFS post-order is computed.
    pub fn gate_nodes(&self) -> Vec<NodeId> {
        let mut order = Vec::with_capacity(self.nodes.len());
        let mut visited = vec![false; self.nodes.len()];
        // constants and PIs are trivially "visited"
        for (id, data) in self.nodes.iter().enumerate() {
            if !data.kind.is_gate() {
                visited[id] = true;
            }
        }
        for seed in 0..self.nodes.len() as NodeId {
            if visited[seed as usize] || !self.is_gate(seed) {
                continue;
            }
            // iterative DFS post-order
            let mut stack: Vec<(NodeId, usize)> = vec![(seed, 0)];
            while let Some(&mut (node, ref mut child)) = stack.last_mut() {
                if visited[node as usize] {
                    stack.pop();
                    continue;
                }
                let fanins = self.node(node).fanins.as_slice();
                if *child < fanins.len() {
                    let next = fanins[*child].node();
                    *child += 1;
                    if !visited[next as usize] && self.is_gate(next) {
                        stack.push((next, 0));
                    }
                } else {
                    visited[node as usize] = true;
                    order.push(node);
                    stack.pop();
                }
            }
        }
        order
    }

    pub fn node_ids(&self) -> Vec<NodeId> {
        let mut ids: Vec<NodeId> = (0..self.nodes.len() as NodeId)
            .filter(|&id| !self.node(id).dead && !self.node(id).kind.is_gate())
            .collect();
        ids.extend(self.gate_nodes());
        ids
    }

    /// Replaces all uses of `old` by `new` in fanins and outputs, removing
    /// `old` and any nodes that become dangling.  Structural hashing is
    /// kept consistent; parents that become structural duplicates of
    /// existing nodes are merged recursively.
    pub fn substitute(&mut self, old: NodeId, new: Signal) {
        self.substitute_impl(old, new, false);
    }

    /// [`Storage::substitute`] with an option to keep the *initial* `old`
    /// node alive after its fanouts have been rewired (the
    /// [`Storage::register_choice`] path).  Cascading structural-hash
    /// merges always remove their duplicates.
    fn substitute_impl(&mut self, old: NodeId, new: Signal, keep_initial: bool) {
        self.ensure_derived();
        let mut worklist = vec![(old, new, keep_initial)];
        // Nodes whose removal is deferred until all pending merges are done:
        // taking a node out eagerly could kill the target of a later merge.
        let mut to_remove: Vec<NodeId> = Vec::new();
        while let Some((old, new, keep)) = worklist.pop() {
            if old == new.node() || self.node(old).dead || self.node(new.node()).dead {
                continue;
            }
            // Unique parents (a parent appears once per fanin occurrence).
            let mut parents = self.fanout_lists[old as usize].clone();
            parents.sort_unstable();
            parents.dedup();
            for p in parents {
                if self.node(p).dead {
                    continue;
                }
                let kind = self.node(p).kind;
                // Remove the stale strash entry for p (if it points to p).
                if kind != GateKind::Lut {
                    let key = StrashKey::new(kind, self.node(p).fanins.as_slice());
                    if self.strash.get(&key) == Some(&p) {
                        self.strash.remove(&key);
                    }
                }
                // Update fanins of p and move fanout references.
                let mut occurrences = 0usize;
                for f in self.nodes[p as usize].fanins.as_mut_slice() {
                    if f.node() == old {
                        *f = new.complement_if(f.is_complemented());
                        occurrences += 1;
                    }
                }
                // Remove `occurrences` entries of p from old's fanouts and
                // add them to new's fanouts.
                let mut removed = 0usize;
                self.fanout_lists[old as usize].retain(|&q| {
                    if q == p && removed < occurrences {
                        removed += 1;
                        false
                    } else {
                        true
                    }
                });
                self.nodes[old as usize].fanout_count -= removed as u32;
                let new_list = &mut self.fanout_lists[new.node() as usize];
                for _ in 0..occurrences {
                    new_list.push(p);
                }
                self.nodes[new.node() as usize].fanout_count += occurrences as u32;
                if occurrences > 0 {
                    self.record(ChangeEvent::RewiredFanin { node: p });
                }
                // Re-insert p into the strash table; if an equivalent gate
                // already exists, merge p into it.
                if kind != GateKind::Lut {
                    let key = StrashKey::new(kind, self.node(p).fanins.as_slice());
                    match self.strash.get(&key) {
                        Some(&q) if q != p && !self.node(q).dead => {
                            worklist.push((p, Signal::new(q, false), false));
                        }
                        Some(_) => {}
                        None => {
                            self.strash.insert(key, p);
                        }
                    }
                }
            }
            self.replace_in_outputs(old, new);
            if keep {
                // choice registration: fanouts are gone but the node (and
                // its cone, referenced through it) stays alive.  Its cone
                // did not change, so no `Substituted` event is recorded —
                // the parents' `RewiredFanin` events already cover every
                // piece of cone-derived state the rewire made stale.
                continue;
            }
            self.choice_on_substituted(old, new);
            self.record(ChangeEvent::Substituted { old, new });
            to_remove.push(old);
        }
        for node in to_remove {
            self.take_out(node);
        }
    }

    /// Replaces uses of `old` in the primary outputs by `new`.  A node
    /// that drives no output returns at once, and the scan stops once all
    /// `po_refs` outputs of `old` have moved.
    pub fn replace_in_outputs(&mut self, old: NodeId, new: Signal) {
        let refs = self.nodes[old as usize].po_refs;
        if old == new.node() || refs == 0 {
            return;
        }
        let mut moved = 0u32;
        for po in &mut self.pos {
            if po.node() == old {
                *po = new.complement_if(po.is_complemented());
                moved += 1;
                if moved == refs {
                    break;
                }
            }
        }
        debug_assert_eq!(moved, refs, "po_refs of node {old} diverged");
        let old_data = &mut self.nodes[old as usize];
        old_data.po_refs -= moved;
        old_data.fanout_count -= moved;
        let new_data = &mut self.nodes[new.node() as usize];
        new_data.po_refs += moved;
        new_data.fanout_count += moved;
    }

    /// Removes `id` if it is a gate with no fanouts, recursively removing
    /// fanins that become dangling.  Choice-ring participants are *kept*:
    /// a registered choice cone is fanout-free by construction and must
    /// survive until the rings are cleared (see [`crate::choices`]).
    pub fn take_out(&mut self, id: NodeId) {
        self.ensure_derived();
        let mut stack = vec![id];
        while let Some(id) = stack.pop() {
            {
                let n = self.node(id);
                if n.dead || !n.kind.is_gate() || n.fanout_count > 0 {
                    continue;
                }
            }
            if self.is_choice_protected(id) {
                continue;
            }
            // mark dead and unregister from strash
            let kind = self.node(id).kind;
            if kind != GateKind::Lut {
                let key = StrashKey::new(kind, self.node(id).fanins.as_slice());
                if self.strash.get(&key) == Some(&id) {
                    self.strash.remove(&key);
                }
            }
            self.nodes[id as usize].dead = true;
            self.num_dead_gates += 1;
            self.record(ChangeEvent::Deleted { node: id });
            let fanins = self.nodes[id as usize].fanins.clone();
            for f in &fanins {
                let list = &mut self.fanout_lists[f.node() as usize];
                if let Some(pos) = list.iter().position(|&q| q == id) {
                    list.swap_remove(pos);
                    self.nodes[f.node() as usize].fanout_count -= 1;
                }
            }
            for f in &fanins {
                if self.node(f.node()).kind.is_gate()
                    && !self.node(f.node()).dead
                    && self.fanout_size(f.node()) == 0
                {
                    stack.push(f.node());
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sig(n: NodeId) -> Signal {
        Signal::new(n, false)
    }

    #[test]
    fn storage_basics() {
        let mut s = Storage::new();
        assert_eq!(s.nodes.len(), 1);
        let a = s.create_pi();
        let b = s.create_pi();
        assert_eq!(s.pis.len(), 2);
        let g = s.find_or_create_gate(GateKind::And, &[a, b]);
        assert_eq!(s.num_gates(), 1);
        assert_eq!(s.fanout_size(a.node()), 1);
        // structural hashing: same fanins (any order) return the same node
        let g2 = s.find_or_create_gate(GateKind::And, &[b, a]);
        assert_eq!(g, g2);
        assert_eq!(s.num_gates(), 1);
        s.create_po(sig(g));
        assert_eq!(s.fanout_size(g), 1);
    }

    #[test]
    fn take_out_recursive() {
        let mut s = Storage::new();
        let a = s.create_pi();
        let b = s.create_pi();
        let g1 = s.find_or_create_gate(GateKind::And, &[a, b]);
        let g2 = s.find_or_create_gate(GateKind::And, &[sig(g1), a]);
        assert_eq!(s.num_gates(), 2);
        // no outputs: g2 has no fanout, removing it also removes g1
        s.take_out(g2);
        assert_eq!(s.num_gates(), 0);
        assert!(s.node(g1).dead);
        assert!(s.node(g2).dead);
        // PIs are never removed
        assert!(!s.node(a.node()).dead);
    }

    #[test]
    fn substitute_rewires_parents_and_outputs() {
        let mut s = Storage::new();
        let a = s.create_pi();
        let b = s.create_pi();
        let c = s.create_pi();
        let g1 = s.find_or_create_gate(GateKind::And, &[a, b]);
        let g2 = s.find_or_create_gate(GateKind::And, &[sig(g1), c]);
        s.create_po(sig(g2));
        s.create_po(!sig(g1));
        // replace g1 by c
        s.substitute(g1, c);
        assert!(s.node(g1).dead);
        // g2 now has fanins {c, c}
        assert_eq!(s.node(g2).fanins, vec![c, c]);
        assert_eq!(s.pos[1], !c);
        assert_eq!(s.node(c.node()).po_refs, 1);
    }

    /// Substituting a node that drives two outputs moves both (keeping
    /// their polarities) and its PO references; substituting one that
    /// drives none leaves the outputs alone.  The network stays intact
    /// after each.
    #[test]
    fn output_replacement_moves_exactly_the_driven_outputs() {
        use crate::views::check_network_integrity;
        use crate::{Aig, GateBuilder, Network};
        let mut aig = Aig::new();
        let a = aig.create_pi();
        let b = aig.create_pi();
        let c = aig.create_pi();
        let twice = aig.create_and(a, b);
        let inner = aig.create_and(b, c);
        let top = aig.create_and(inner, a);
        aig.create_po(top);
        aig.create_po(twice);
        aig.create_po(c);
        aig.create_po(!twice);
        check_network_integrity(&aig).unwrap();
        aig.substitute_node(twice.node(), !c);
        assert_eq!(aig.po_signals(), vec![top, !c, c, c]);
        assert_eq!(aig.storage.node(c.node()).po_refs, 3);
        check_network_integrity(&aig).unwrap();
        // `inner` drives no output: only its fanout `top` changes
        aig.substitute_node(inner.node(), a);
        assert_eq!(aig.po_signals()[1..], [!c, c, c]);
        assert_eq!(aig.storage.node(inner.node()).po_refs, 0);
        check_network_integrity(&aig).unwrap();
    }

    #[test]
    fn substitute_merges_structural_duplicates() {
        let mut s = Storage::new();
        let a = s.create_pi();
        let b = s.create_pi();
        let c = s.create_pi();
        let g1 = s.find_or_create_gate(GateKind::And, &[a, c]);
        let g2 = s.find_or_create_gate(GateKind::And, &[b, c]);
        let top1 = s.find_or_create_gate(GateKind::And, &[sig(g1), c]);
        let top2 = s.find_or_create_gate(GateKind::And, &[sig(g2), c]);
        s.create_po(sig(top1));
        s.create_po(sig(top2));
        // substituting b by a makes g2 a duplicate of g1, and transitively
        // top2 a duplicate of top1
        s.substitute(b.node(), a);
        assert!(s.node(g2).dead);
        assert!(s.node(top2).dead);
        assert_eq!(s.pos[0], s.pos[1]);
        assert_eq!(s.num_gates(), 2);
    }

    #[test]
    fn cached_fanout_counts_track_every_mutation() {
        let mut s = Storage::new();
        let a = s.create_pi();
        let b = s.create_pi();
        let c = s.create_pi();
        let g1 = s.find_or_create_gate(GateKind::And, &[a, b]);
        let g2 = s.find_or_create_gate(GateKind::And, &[sig(g1), c]);
        s.create_po(sig(g2));
        s.create_po(sig(g1));
        let check = |s: &Storage| {
            for (id, n) in s.nodes.iter().enumerate() {
                assert_eq!(
                    n.fanout_count as usize,
                    s.fanout_lists[id].len() + n.po_refs as usize,
                    "node {id}"
                );
            }
        };
        check(&s);
        s.substitute(g1, a);
        check(&s);
        s.take_out(g2);
        check(&s);
    }

    #[test]
    fn storage_stays_send_and_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Storage>();
    }

    #[test]
    fn register_choice_rewires_fanouts_but_keeps_the_cone() {
        let mut s = Storage::new();
        let a = s.create_pi();
        let b = s.create_pi();
        let c = s.create_pi();
        // original: g = a & b, with a consumer and a PO
        let g = s.find_or_create_gate(GateKind::And, &[a, b]);
        let top = s.find_or_create_gate(GateKind::And, &[sig(g), c]);
        s.create_po(sig(top));
        // alternative structure for g (structurally distinct)
        let h1 = s.find_or_create_gate(GateKind::And, &[a, c]);
        let h = s.find_or_create_gate(GateKind::And, &[sig(h1), b]);
        s.create_po(!sig(h));
        s.enable_choices();
        assert!(s.register_choice(h, sig(g)));
        // h's PO now points at g (complemented), h is alive but fanout-free
        assert_eq!(s.pos[1], !sig(g));
        assert!(!s.node(h).dead);
        assert_eq!(s.fanout_size(h), 0);
        // ring: g -> h, with positive phase
        assert_eq!(s.choice_repr(h), g);
        assert!(!s.choice_phase(h));
        assert_eq!(s.next_choice(g), Some(h));
        assert_eq!(s.next_choice(h), None);
        assert_eq!(s.num_choice_nodes(), 1);
        // the protected cone survives take_out
        s.take_out(h);
        assert!(!s.node(h).dead && !s.node(h1).dead);
        // clearing the rings lifts the protection
        s.clear_choices();
        s.take_out(h);
        assert!(s.node(h).dead && s.node(h1).dead);
    }

    #[test]
    fn substituting_a_representative_migrates_its_ring() {
        let mut s = Storage::new();
        let a = s.create_pi();
        let b = s.create_pi();
        let c = s.create_pi();
        let g = s.find_or_create_gate(GateKind::And, &[a, b]);
        s.create_po(sig(g));
        let h1 = s.find_or_create_gate(GateKind::And, &[a, c]);
        let h = s.find_or_create_gate(GateKind::And, &[sig(h1), b]);
        s.create_po(sig(h));
        s.enable_choices();
        assert!(s.register_choice(h, !sig(g)));
        assert!(s.choice_phase(h), "registered with a complemented edge");
        // a later pass replaces g by a fresh equivalent gate g2
        let g2 = s.find_or_create_gate(GateKind::And, &[b, c]);
        s.create_po(sig(g2));
        s.substitute(g, !sig(g2));
        assert!(s.node(g).dead);
        // the ring migrated: h is now a choice of g2, phase rebased
        assert_eq!(s.choice_repr(h), g2);
        assert!(!s.choice_phase(h), "phase rebased through the complement");
        assert_eq!(s.next_choice(g2), Some(h));
        assert!(!s.node(h).dead);
    }

    #[test]
    fn registering_against_a_member_lands_in_the_ring_head() {
        let mut s = Storage::new();
        let a = s.create_pi();
        let b = s.create_pi();
        let c = s.create_pi();
        let d = s.create_pi();
        let g = s.find_or_create_gate(GateKind::And, &[a, b]);
        s.create_po(sig(g));
        let m1 = s.find_or_create_gate(GateKind::And, &[a, c]);
        let m = s.find_or_create_gate(GateKind::And, &[sig(m1), b]);
        s.create_po(sig(m));
        let n1 = s.find_or_create_gate(GateKind::And, &[b, d]);
        let n = s.find_or_create_gate(GateKind::And, &[sig(n1), a]);
        s.create_po(sig(n));
        s.enable_choices();
        assert!(s.register_choice(m, !sig(g)));
        // registering n against the member m resolves to the head g, with
        // the phase composed through m's complement
        assert!(s.register_choice(n, sig(m)));
        assert_eq!(s.choice_repr(n), g);
        assert!(s.choice_phase(n), "n ≡ m ≡ ¬g");
        assert_eq!(s.num_choice_nodes(), 2);
        // ring order is registration order: g -> m -> n
        assert_eq!(s.next_choice(g), Some(m));
        assert_eq!(s.next_choice(m), Some(n));
        assert_eq!(s.next_choice(n), None);
    }

    /// Deterministic rendering of the complete logical state (strash
    /// entries sorted — `HashMap` iteration order is arbitrary).
    fn fingerprint(s: &Storage) -> String {
        let mut strash: Vec<String> = s
            .strash
            .iter()
            .map(|(k, v)| format!("{k:?}=>{v}"))
            .collect();
        strash.sort();
        format!(
            "nodes={:?} fanouts={:?} pis={:?} pos={:?} strash={:?} dead={} choices={:?} \
             changes={:?} track={}",
            s.nodes,
            s.fanout_lists,
            s.pis,
            s.pos,
            strash,
            s.num_dead_gates,
            s.choices,
            s.changes,
            s.track_changes
        )
    }

    /// A small network with sharing, a dead node and a complemented PO.
    fn build_sample() -> (Storage, Signal, Signal, Signal, NodeId, NodeId) {
        let mut s = Storage::new();
        let a = s.create_pi();
        let b = s.create_pi();
        let c = s.create_pi();
        let g1 = s.find_or_create_gate(GateKind::And, &[a, b]);
        let g2 = s.find_or_create_gate(GateKind::And, &[sig(g1), c]);
        s.create_po(sig(g2));
        s.create_po(!sig(g1));
        (s, a, b, c, g1, g2)
    }

    #[test]
    fn snapshot_restore_is_bit_identical_and_bumps_the_epoch() {
        let (mut s, a, b, _c, g1, g2) = build_sample();
        let before = fingerprint(&s);
        let snap = s.snapshot();
        assert_eq!(snap.num_nodes(), s.nodes.len());
        // mutate heavily: substitution, deletion, fresh structure, new PO
        s.substitute(g1, a);
        s.take_out(g2);
        let h = s.find_or_create_gate(GateKind::And, &[!a, b]);
        s.create_po(sig(h));
        assert_ne!(fingerprint(&s), before);
        let epoch_before = s.current_traversal_epoch();
        s.restore(&snap);
        assert_eq!(fingerprint(&s), before);
        // scratch follows the restored node table, zeroed
        assert_eq!(s.scratch.len(), s.nodes.len());
        assert!((0..s.nodes.len()).all(|i| s.scratch(i as NodeId) == 0));
        // the epoch is bumped, never rewound
        assert!(s.current_traversal_epoch() > epoch_before);
    }

    #[test]
    fn snapshot_preserves_pending_change_events() {
        let (mut s, a, _b, _c, g1, _g2) = build_sample();
        s.set_change_tracking(true);
        s.substitute(g1, a);
        let pending = s.changes.len();
        assert!(pending > 0);
        let snap = s.snapshot();
        let mut log = ChangeLog::new();
        s.drain_changes(&mut log);
        s.restore(&snap);
        // the enclosing consumer's undrained events are reinstated exactly
        assert_eq!(s.changes.len(), pending);
        assert_eq!(s.changes.events(), log.events());
    }

    /// Builds a trial on `ntk` with `build`, rolls it back and checks that
    /// the storage reads exactly as at the mark: node records and cached
    /// fanout counts, fanout lists in order, strash entries, the dead
    /// counter and the (tracked, still empty) change log, with a passing
    /// integrity check.  Returns the number of nodes the trial built.
    fn assert_rollback_restores<N: crate::Network>(
        ntk: &mut N,
        storage: fn(&N) -> &Storage,
        build: impl FnOnce(&mut N),
    ) -> usize {
        ntk.set_change_tracking(true);
        let before = fingerprint(storage(ntk));
        let (mark, gates) = (ntk.size(), ntk.num_gates());
        build(ntk);
        let built = ntk.size() - mark;
        ntk.rollback_to(mark);
        assert_eq!((ntk.size(), ntk.num_gates()), (mark, gates));
        assert_eq!(fingerprint(storage(ntk)), before);
        assert!(storage(ntk).changes.is_empty(), "rollback recorded events");
        assert_eq!(storage(ntk).scratch.len(), mark);
        crate::views::check_network_integrity(ntk).unwrap();
        built
    }

    /// Rolling back an XAG trial (an XOR, an AND over it and an existing
    /// gate, and a strash hit) restores the pre-trial state, also with a
    /// dead gate below the mark; the popped ids are given out again.
    #[test]
    fn rollback_restores_an_xag() {
        use crate::{GateBuilder, Network, Xag};
        let mut xag = Xag::new();
        let a = xag.create_pi();
        let b = xag.create_pi();
        let c = xag.create_pi();
        let ab = xag.create_and(a, b);
        let dead = xag.create_xor(b, c);
        let top = xag.create_and(ab, !c);
        xag.create_po(top);
        xag.create_po(ab);
        xag.take_out_node(dead.node());
        assert_eq!(xag.storage.num_dead_gates, 1);
        let mark = xag.size();
        let built = assert_rollback_restores(
            &mut xag,
            |x| &x.storage,
            |x| {
                let xor = x.create_xor(a, c);
                let and = x.create_and(xor, ab);
                x.create_xor(and, c);
                // a strash hit builds nothing
                assert_eq!(x.create_and(b, a), ab);
                // the dead gate's key is built again, above the mark
                x.create_xor(c, b);
            },
        );
        assert_eq!(built, 4);
        assert_eq!(xag.find_structural(GateKind::Xor, &[a, c]), None);
        assert_eq!(xag.find_structural(GateKind::And, &[a, b]), Some(ab.node()));
        let again = xag.create_xor(a, c);
        assert_eq!(
            again.node() as usize,
            mark,
            "the first popped id is given out again"
        );
        crate::views::check_network_integrity(&xag).unwrap();
    }

    /// Rolling back MIG ANDs and ORs, which read the constant node, pops
    /// the constant's fanout list back to its pre-trial order.
    #[test]
    fn rollback_restores_a_mig_over_the_constant() {
        use crate::{GateBuilder, Mig, Network};
        let mut mig = Mig::new();
        let a = mig.create_pi();
        let b = mig.create_pi();
        let c = mig.create_pi();
        let ab = mig.create_and(a, b);
        let bc = mig.create_or(b, c);
        let top = mig.create_maj(ab, bc, !a);
        mig.create_po(top);
        let constant_fanouts = mig.storage.node_fanouts(0).to_vec();
        let built = assert_rollback_restores(
            &mut mig,
            |m| &m.storage,
            |m| {
                let and = m.create_and(a, c);
                let or = m.create_or(and, ab);
                m.create_maj(or, bc, !and);
            },
        );
        assert_eq!(built, 3);
        assert_eq!(mig.storage.node_fanouts(0), constant_fanouts);
        assert_eq!(
            mig.find_structural(GateKind::Maj, &[mig.get_constant(false), a, c]),
            None
        );
    }

    /// LUT nodes are not hashed: rolling a k-LUT trial back only pops the
    /// fanout lists and the records.
    #[test]
    fn rollback_restores_a_klut() {
        use crate::{Klut, Network};
        let mut klut = Klut::new();
        let a = klut.create_pi();
        let b = klut.create_pi();
        let c = klut.create_pi();
        let xor = TruthTable::from_hex(2, "6").unwrap();
        let g = klut.create_lut(&[a, b], xor.clone());
        klut.create_po(g);
        let built = assert_rollback_restores(
            &mut klut,
            |k| &k.storage,
            |k| {
                let h = k.create_lut(&[g, c], xor.clone());
                k.create_lut(&[h, a, h], TruthTable::from_hex(3, "e8").unwrap());
            },
        );
        assert_eq!(built, 2);
    }

    /// Rolling back to the current size is a no-op.
    #[test]
    fn rollback_to_the_current_size_changes_nothing() {
        let (mut s, ..) = build_sample();
        let before = fingerprint(&s);
        s.rollback_to(s.nodes.len());
        assert_eq!(fingerprint(&s), before);
    }

    /// A node above the mark that a node below it reads cannot be rolled
    /// back: the reader would keep a dangling id.
    #[test]
    #[should_panic(expected = "has a fanout from below the mark")]
    fn rollback_over_a_node_read_from_below_the_mark_panics() {
        let mut s = Storage::new();
        let a = s.create_pi();
        let b = s.create_pi();
        let c = s.create_pi();
        let g1 = s.find_or_create_gate(GateKind::And, &[a, b]);
        let g2 = s.find_or_create_gate(GateKind::And, &[sig(g1), c]);
        s.create_po(sig(g2));
        let mark = s.nodes.len();
        let h = s.find_or_create_gate(GateKind::And, &[a, !b]);
        // g2 (below the mark) now reads h, which drives no output
        s.substitute(g1, sig(h));
        s.rollback_to(mark);
    }

    /// A node above the mark that drives an output cannot be rolled back.
    #[test]
    #[should_panic(expected = "drives an output")]
    fn rollback_over_an_output_driver_panics() {
        let (mut s, a, b, ..) = build_sample();
        let mark = s.nodes.len();
        let h = s.find_or_create_gate(GateKind::And, &[a, !b]);
        s.create_po(sig(h));
        s.rollback_to(mark);
    }

    /// A node above the mark in a choice ring cannot be rolled back.
    #[test]
    #[should_panic(expected = "sits in a choice ring")]
    fn rollback_over_a_choice_member_panics() {
        let (mut s, a, b, c, g1, _g2) = build_sample();
        let mark = s.nodes.len();
        let h1 = s.find_or_create_gate(GateKind::And, &[a, c]);
        let h = s.find_or_create_gate(GateKind::And, &[sig(h1), b]);
        s.enable_choices();
        assert!(s.register_choice(h, sig(g1)));
        s.rollback_to(mark);
    }

    #[test]
    fn scratch_slots_follow_nodes() {
        let mut s = Storage::new();
        let a = s.create_pi();
        let g = s.find_or_create_gate(GateKind::And, &[a, a]);
        assert_eq!(s.scratch(g), 0);
        s.set_scratch(g, 42);
        s.set_scratch(a.node(), 7);
        assert_eq!(s.scratch(g), 42);
        assert_eq!(s.scratch(a.node()), 7);
        s.clear_scratch();
        assert_eq!(s.scratch(g), 0);
    }
}
