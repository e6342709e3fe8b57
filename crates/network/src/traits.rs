//! The network interface API (layer 1 of the stacked architecture).
//!
//! The traits in this module are the Rust rendering of the paper's
//! "abstract concept definition of a logic representation": algorithms are
//! written only against [`Network`] (structural access and modification)
//! and [`GateBuilder`] (gate creation), and therefore work unchanged for
//! every network implementation that provides these interfaces.  Where the
//! C++ implementation uses template meta-programming and static assertions,
//! we use trait bounds checked at compile time.

use crate::{ChangeLog, FaninArray, GateKind, NetworkSnapshot, NodeId, Signal};
use glsx_truth::TruthTable;

/// Structural access to a logic network.
///
/// A network consists of the constant-zero node (node `0`), primary
/// inputs, internal gates and primary outputs.  Gates are returned in a
/// topological order (fanins precede fanouts), which every implementation
/// in this crate guarantees by construction.
///
/// The *mandatory* interface of the paper corresponds to the required
/// methods; convenience iteration helpers (`foreach_*`) are provided as
/// default methods on top of them.
///
/// Networks are required to be `Send + Sync` so read-only parallel passes
/// (bulk cut enumeration, portfolio threads) can share `&N` across
/// [`std::thread::scope`] workers.  The storage
/// layer already satisfies this: the only interior mutability is the
/// atomic per-node scratch slot, and parallel phases use thread-local
/// scratch ([`crate::traversal::LocalScratch`]) instead of stamping it.
pub trait Network: Sized + Send + Sync {
    /// Short human-readable name of the representation (e.g. `"AIG"`).
    const NAME: &'static str;

    /// Creates an empty network containing only the constant-zero node.
    fn new() -> Self;

    /// Returns the constant signal with the given value.
    fn get_constant(&self, value: bool) -> Signal {
        Signal::constant(value)
    }

    /// Creates a new primary input and returns its signal.
    fn create_pi(&mut self) -> Signal;

    /// Creates a new primary output driven by `signal`; returns its index.
    fn create_po(&mut self, signal: Signal) -> usize;

    /// Total number of nodes (constant + primary inputs + gates, including
    /// dead gates that have not been cleaned up).
    fn size(&self) -> usize;

    /// Number of primary inputs.
    fn num_pis(&self) -> usize;

    /// Number of primary outputs.
    fn num_pos(&self) -> usize;

    /// Number of live internal gates.
    fn num_gates(&self) -> usize;

    /// Returns `true` if `node` is the constant node.
    fn is_constant(&self, node: NodeId) -> bool;

    /// Returns `true` if `node` is a primary input.
    fn is_pi(&self, node: NodeId) -> bool;

    /// Returns `true` if `node` has been removed from the network.
    fn is_dead(&self, node: NodeId) -> bool;

    /// Returns `true` if `node` is a live internal gate.
    fn is_gate(&self, node: NodeId) -> bool;

    /// Returns the kind of gate implemented by `node`.
    fn gate_kind(&self, node: NodeId) -> GateKind;

    /// Returns the fanin signal of `node` at position `index`.
    ///
    /// Together with [`Network::fanin_size`] this is the *allocation-free*
    /// primitive for fanin access; the `fanins*`/`foreach_fanin` helpers
    /// are built on top of it.
    ///
    /// # Panics
    ///
    /// Panics if `index >= self.fanin_size(node)`.
    fn fanin(&self, node: NodeId, index: usize) -> Signal;

    /// Returns the number of fanins of `node` (zero for constants and
    /// primary inputs).
    fn fanin_size(&self, node: NodeId) -> usize;

    /// Returns the fanin signals of `node` as an inline array (heap-free
    /// for every fixed-function gate; only wide LUTs spill).
    ///
    /// This is the hot-path way to *hold* a node's fanins; prefer
    /// [`Network::foreach_fanin`] for pure iteration.
    fn fanins_inline(&self, node: NodeId) -> FaninArray {
        let mut fanins = FaninArray::new();
        for index in 0..self.fanin_size(node) {
            fanins.push(self.fanin(node, index));
        }
        fanins
    }

    /// Returns the fanin signals of `node` in a fresh `Vec`.
    ///
    /// Cold-path convenience (allocates on every call): use
    /// [`Network::fanin`]/[`Network::fanins_inline`]/
    /// [`Network::foreach_fanin`] in algorithm inner loops.
    fn fanins(&self, node: NodeId) -> Vec<Signal> {
        self.fanins_inline(node).to_vec()
    }

    /// Returns the number of fanouts of `node`, counting primary outputs.
    fn fanout_size(&self, node: NodeId) -> usize;

    /// Returns the nodes that use `node` as a fanin (without primary
    /// outputs; a node appears once per fanin occurrence).
    ///
    /// Cold-path convenience (allocates on every call): use
    /// [`Network::foreach_fanout`] in algorithm inner loops.
    ///
    /// # Panics
    ///
    /// Panics on a freshly bulk-loaded network whose fanout lists have not
    /// been materialised yet — call [`Network::ensure_derived_state`]
    /// first (every structural mutation does so implicitly).
    fn fanouts(&self, node: NodeId) -> Vec<NodeId>;

    /// Materialises the derived state a bulk load defers — the per-node
    /// fanout lists and the structural-hash table (see
    /// [`NetworkBuilder`](crate::bulk::NetworkBuilder)).  A no-op on
    /// networks that are already fresh, which is every network not built
    /// through the bulk path.
    ///
    /// Structural mutations ([`GateBuilder`](crate::GateBuilder) creation,
    /// [`Network::substitute_node`], …) call this implicitly; read-only
    /// consumers that traverse fanouts or call
    /// [`Network::find_structural`] on a bulk-loaded network must call it
    /// once up front.
    fn ensure_derived_state(&mut self);

    /// `false` while a bulk-loaded network's fanout lists and
    /// structural-hash table are pending materialisation (see
    /// [`Network::ensure_derived_state`]).
    fn has_derived_state(&self) -> bool;

    /// Reads the generic per-node scratch slot of `node`.
    ///
    /// Every node carries one `u64` of scratch data that algorithms may
    /// use for traversal marks, colouring or small per-node metadata
    /// without allocating side maps.  Slots start at zero; the scratch
    /// space is a shared resource, so algorithms should
    /// [`clear_scratch`](Network::clear_scratch) before relying on it.
    fn scratch(&self, node: NodeId) -> u64;

    /// Writes the generic per-node scratch slot of `node`.
    ///
    /// Works through a shared reference (interior mutability) so read-only
    /// traversals can stamp visit marks.
    fn set_scratch(&self, node: NodeId, value: u64);

    /// Resets every scratch slot to zero.
    fn clear_scratch(&self);

    /// Draws a fresh traversal epoch (strictly monotonic per network until
    /// the 32-bit space wraps, at which point the scratch slots are cleared
    /// once and the counter restarts).
    ///
    /// This is the primitive behind the
    /// [`Traversal`](crate::traversal::Traversal) engine; algorithms should
    /// use that engine rather than calling this directly.
    fn next_traversal_epoch(&self) -> u64;

    /// Returns the most recently drawn traversal epoch (0 before the first
    /// draw).
    ///
    /// Backs the debug-build owner check of the
    /// [`Traversal`](crate::traversal::Traversal) engine: a traversal that
    /// *writes* while a younger traversal exists violates the documented
    /// single-traversal-at-a-time contract and panics in debug builds.
    fn current_traversal_epoch(&self) -> u64;

    /// Returns the local function of the gate over its fanins (edge
    /// complementations are *not* included; callers compose them from
    /// [`Network::fanins`]).
    ///
    /// # Panics
    ///
    /// Panics if `node` is a primary input (its function is not defined).
    fn node_function(&self, node: NodeId) -> TruthTable;

    /// Returns all primary input nodes in creation order.
    fn pi_nodes(&self) -> Vec<NodeId>;

    /// Returns all primary output signals in creation order.
    fn po_signals(&self) -> Vec<Signal>;

    /// Returns the primary output signal at `index`.
    fn po_at(&self, index: usize) -> Signal {
        self.po_signals()[index]
    }

    /// Returns all live gate nodes in topological order.
    fn gate_nodes(&self) -> Vec<NodeId>;

    /// Returns all live nodes (constant, inputs and gates) in topological
    /// order.
    fn node_ids(&self) -> Vec<NodeId>;

    /// Replaces every use of `old` (in gate fanins and primary outputs) by
    /// the signal `new`, removing `old` and any gates that become dangling.
    ///
    /// The signal `new` must not depend on `old` (no cycles may be
    /// created).
    fn substitute_node(&mut self, old: NodeId, new: Signal);

    /// Replaces uses of `old` only in the primary outputs.
    fn replace_in_outputs(&mut self, old: NodeId, new: Signal);

    /// Removes `node` if it has no fanouts, recursively removing fanins
    /// that become dangling.  Constants and primary inputs are never
    /// removed.
    fn take_out_node(&mut self, node: NodeId);

    /// Trial construction: removes every node created since [`Network::size`]
    /// read `mark`, newest first, and gives their ids out again.  Structural
    /// hashing, fanout lists and fanout counts return to their state at the
    /// mark, and no change event is recorded.  A pass prices a candidate by
    /// building it and rolls it back when it does not pay, so rejected
    /// candidates leave no dead ids behind.
    ///
    /// # Panics
    ///
    /// Panics if a node above the mark is not a live gate, is read by a
    /// node below the mark, drives an output or sits in a choice ring
    /// (only freshly built, unreferenced structure can be rolled back).
    fn rollback_to(&mut self, mark: usize);

    // -- checkpoint / rollback (see [`crate::NetworkSnapshot`]) ------------

    /// Captures the complete logical state of the network — node records,
    /// PI/PO lists, structural hashing, choice rings and pending change
    /// events — as a restorable checkpoint.  Scratch slots and the
    /// traversal epoch are per-run algorithm state and are *not*
    /// captured.
    fn snapshot(&self) -> NetworkSnapshot;

    /// Restores the state captured by [`Network::snapshot`].  Scratch
    /// slots are rebuilt zeroed and the traversal epoch is bumped (never
    /// rewound), so marks a panicked pass left behind can neither alias a
    /// fresh traversal nor trip the single-traversal debug check.
    fn restore(&mut self, snapshot: &NetworkSnapshot);

    /// Looks up the live gate registered in the structural-hash table for
    /// `kind` over `fanins` (argument order irrelevant for commutative
    /// kinds; `None` for LUTs, which are not hashed).  Backs the strash
    /// consistency audit of
    /// [`check_network_integrity`](crate::views::check_network_integrity).
    ///
    /// # Panics
    ///
    /// Panics on a freshly bulk-loaded network whose structural-hash table
    /// has not been materialised yet — call
    /// [`Network::ensure_derived_state`] first.
    fn find_structural(&self, kind: GateKind, fanins: &[Signal]) -> Option<NodeId>;

    // -- the change-event layer (see [`crate::changes`]) -------------------

    /// Enables or disables structural change-event recording.  While
    /// enabled, [`Network::substitute_node`] and
    /// [`Network::take_out_node`] append
    /// [`ChangeEvent`](crate::ChangeEvent)s describing every fanin rewire,
    /// node merge and deletion they perform; consumers collect them with
    /// [`Network::drain_changes`] and refresh derived state incrementally.
    /// Disabling discards any pending events.  Off by default; one branch
    /// per mutation when off.
    fn set_change_tracking(&mut self, enabled: bool);

    /// Returns `true` if structural changes are currently being recorded.
    fn is_change_tracking(&self) -> bool;

    /// Moves every recorded change event onto the end of `into`, leaving
    /// the network's internal buffer empty (allocation-free in the steady
    /// state: both buffers keep their capacity).
    fn drain_changes(&mut self, into: &mut ChangeLog);

    /// Puts already-drained events back in *front* of the internal buffer
    /// (preserving overall event order), leaving `log` empty.  A pass
    /// that drains events for its own incremental refreshes calls this on
    /// exit when an enclosing consumer was already tracking, so the
    /// consumer's next [`Network::drain_changes`] still sees everything —
    /// the events the pass consumed *and* any recorded since.
    fn requeue_changes(&mut self, log: &mut ChangeLog);

    // -- structural choices (see [`crate::choices`]) -----------------------

    /// Enables the structural-choice table (idempotent).  While enabled,
    /// nodes registered as choices — and the cones hanging off them — are
    /// protected from dangling-logic removal, and the choice accessors
    /// below report the equivalence rings.
    fn enable_choices(&mut self);

    /// Returns `true` once the choice table exists.
    fn has_choices(&self) -> bool;

    /// Drops every choice ring and lifts the removal protection.  Cones
    /// that were only kept alive as choices become ordinary dangling logic
    /// (removed by the next cleanup or `take_out`).
    fn clear_choices(&mut self);

    /// Representative of `node`'s equivalence class (`node` itself when it
    /// has no class or choices are disabled).
    fn choice_repr(&self, node: NodeId) -> NodeId;

    /// Polarity of `node` relative to its representative
    /// (`node ≡ choice_repr(node) ⊕ choice_phase(node)`).
    fn choice_phase(&self, node: NodeId) -> bool;

    /// Next node of `node`'s choice ring (the representative's successor is
    /// the first member; `None` terminates).
    fn next_choice(&self, node: NodeId) -> Option<NodeId>;

    /// Number of ring members over all classes (representatives excluded).
    fn num_choice_nodes(&self) -> usize;

    /// Registers `node` as a structural choice of the signal `repr`:
    /// `node`'s fanouts and output uses are rewired onto `repr` (cascading
    /// structural-hash merges included) and `node` is linked into
    /// `repr`'s choice ring — alive, fanout-free, available to choice-aware
    /// consumers.  Returns `false` (network unchanged) when registration is
    /// impossible; see [`crate::choices`] for the caller's obligations
    /// (proven equivalence and acyclicity in both directions).
    fn register_choice(&mut self, node: NodeId, repr: Signal) -> bool;

    /// Calls `f(member, phase)` for every ring member of `repr` (the
    /// representative itself excluded), in registration order.  `phase` is
    /// the member's polarity relative to `repr`.
    fn foreach_choice<F: FnMut(NodeId, bool)>(&self, repr: NodeId, mut f: F) {
        let mut current = self.next_choice(repr);
        while let Some(member) = current {
            f(member, self.choice_phase(member));
            current = self.next_choice(member);
        }
    }

    // -- convenience iteration helpers (the paper's foreach-methods) -------

    /// Calls `f` for every primary input node.
    fn foreach_pi<F: FnMut(NodeId)>(&self, mut f: F) {
        for n in self.pi_nodes() {
            f(n);
        }
    }

    /// Calls `f` for every primary output signal.
    fn foreach_po<F: FnMut(Signal)>(&self, mut f: F) {
        for s in self.po_signals() {
            f(s);
        }
    }

    /// Calls `f` for every live gate in topological order.
    fn foreach_gate<F: FnMut(NodeId)>(&self, mut f: F) {
        for n in self.gate_nodes() {
            f(n);
        }
    }

    /// Calls `f` for every live node in topological order.
    fn foreach_node<F: FnMut(NodeId)>(&self, mut f: F) {
        for n in self.node_ids() {
            f(n);
        }
    }

    /// Calls `f` for every fanin signal of `node` (allocation-free).
    fn foreach_fanin<F: FnMut(Signal)>(&self, node: NodeId, mut f: F) {
        for index in 0..self.fanin_size(node) {
            f(self.fanin(node, index));
        }
    }

    /// Calls `f` for every gate that uses `node` as a fanin (one call per
    /// fanin occurrence, primary outputs excluded).
    fn foreach_fanout<F: FnMut(NodeId)>(&self, node: NodeId, mut f: F) {
        for n in self.fanouts(node) {
            f(n);
        }
    }
}

/// Gate-creation interface (the constructive part of the network API).
///
/// Every network provides `create_and`, `create_xor` and `create_maj`;
/// representations without a native gate for an operation implement it by
/// local decomposition into their own primitives (e.g. an AIG builds an
/// XOR from three AND gates, an MIG builds an AND as `maj(a, b, 0)`).
/// Derived operations (`create_or`, `create_ite`, n-ary helpers) have
/// default implementations.
pub trait GateBuilder: Network {
    /// Creates (or finds) a two-input AND gate.
    fn create_and(&mut self, a: Signal, b: Signal) -> Signal;

    /// Creates (or finds) a two-input XOR gate.
    fn create_xor(&mut self, a: Signal, b: Signal) -> Signal;

    /// Creates (or finds) a three-input majority gate.
    fn create_maj(&mut self, a: Signal, b: Signal, c: Signal) -> Signal;

    /// Creates a gate of the given kind over the given fanins.  Used by
    /// generic network copying (cleanup) and balancing.
    ///
    /// # Panics
    ///
    /// Panics if the representation cannot express `kind` natively and the
    /// fanin count does not match the kind's arity.
    fn create_gate(&mut self, kind: GateKind, fanins: &[Signal]) -> Signal;

    /// Returns the complement of a signal (free in all representations of
    /// this crate).
    fn create_not(&mut self, a: Signal) -> Signal {
        !a
    }

    /// Creates a two-input OR gate.
    fn create_or(&mut self, a: Signal, b: Signal) -> Signal {
        let and = self.create_and(!a, !b);
        !and
    }

    /// Creates a two-input NAND gate.
    fn create_nand(&mut self, a: Signal, b: Signal) -> Signal {
        let and = self.create_and(a, b);
        !and
    }

    /// Creates a two-input NOR gate.
    fn create_nor(&mut self, a: Signal, b: Signal) -> Signal {
        let or = self.create_or(a, b);
        !or
    }

    /// Creates a two-input XNOR gate.
    fn create_xnor(&mut self, a: Signal, b: Signal) -> Signal {
        let xor = self.create_xor(a, b);
        !xor
    }

    /// Creates an if-then-else (multiplexer): `cond ? then_s : else_s`.
    fn create_ite(&mut self, cond: Signal, then_s: Signal, else_s: Signal) -> Signal {
        let t = self.create_and(cond, then_s);
        let e = self.create_and(!cond, else_s);
        self.create_or(t, e)
    }

    /// Creates a balanced n-ary AND.
    fn create_nary_and(&mut self, signals: &[Signal]) -> Signal {
        self.nary_balanced(signals, Signal::constant(true), Self::create_and)
    }

    /// Creates a balanced n-ary OR.
    fn create_nary_or(&mut self, signals: &[Signal]) -> Signal {
        self.nary_balanced(signals, Signal::constant(false), Self::create_or)
    }

    /// Creates a balanced n-ary XOR.
    fn create_nary_xor(&mut self, signals: &[Signal]) -> Signal {
        self.nary_balanced(signals, Signal::constant(false), Self::create_xor)
    }

    /// Helper building a balanced tree of a binary operation.
    #[doc(hidden)]
    fn nary_balanced(
        &mut self,
        signals: &[Signal],
        empty: Signal,
        mut op: impl FnMut(&mut Self, Signal, Signal) -> Signal,
    ) -> Signal {
        match signals.len() {
            0 => empty,
            1 => signals[0],
            _ => {
                let mut layer: Vec<Signal> = signals.to_vec();
                while layer.len() > 1 {
                    let mut next = Vec::with_capacity(layer.len().div_ceil(2));
                    let mut iter = layer.chunks(2);
                    for chunk in &mut iter {
                        if chunk.len() == 2 {
                            next.push(op(self, chunk[0], chunk[1]));
                        } else {
                            next.push(chunk[0]);
                        }
                    }
                    layer = next;
                }
                layer[0]
            }
        }
    }
}

/// Optional interface: networks that can report a precomputed level
/// (depth) per node.  The generic algorithms fall back to the
/// [`DepthView`](crate::views::DepthView) when a network does not provide
/// levels natively.
pub trait HasLevels: Network {
    /// Returns the level (distance from the primary inputs) of `node`.
    fn level(&self, node: NodeId) -> u32;

    /// Returns the depth of the network (maximum level over the primary
    /// outputs).
    fn depth(&self) -> u32;
}

/// Compile-time capability check mirroring the paper's static assertions:
/// instantiating this function for a type only compiles if the type
/// implements the full constructive network interface.
///
/// # Example
///
/// ```
/// use glsx_network::{assert_network_interface, Aig};
///
/// assert_network_interface::<Aig>();
/// ```
pub fn assert_network_interface<N: Network + GateBuilder>() {}
