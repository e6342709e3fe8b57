//! Cut enumeration (Section 2.2.1 of the paper) with fused truth-table
//! computation.
//!
//! Two flavours are provided, both expressed purely through the network
//! interface API:
//!
//! * bottom-up *priority cut* enumeration ([`CutManager`]) merging fanin
//!   cut sets (used by rewriting and LUT mapping), and
//! * top-down *reconvergence-driven* cut computation
//!   ([`reconvergence_driven_cut`]) growing a cut from a root node (used by
//!   resubstitution and refactoring).
//!
//! The paper's `computeTruthTable` exists in two forms.  The preferred,
//! *fused* form computes every cut's truth table during enumeration, right
//! after the cut set of a node is pruned: an allocation-free cone walk in
//! fixed 256-bit [`CutFunction`] arithmetic whose visited window lives in
//! the scratch-slot traversal engine.  The tables are stored in an arena
//! parallel to the cuts, so downstream consumers (rewriting, LUT mapping)
//! read a cut's function in O(1) via [`CutManager::cut_function`] instead
//! of re-simulating the cone per candidate with heap-backed tables.  The
//! fallback form is explicit cone simulation ([`ConeSimulator`],
//! [`simulate_cut`]), used for reconvergence-driven cuts which are not
//! produced by merging; both forms produce bit-identical tables (see
//! [`CutManager::cut_function`] for why composing tables at merge time —
//! the seemingly cheaper alternative — cannot meet that contract).
//!
//! The substrate is allocation-free on the hot path: a [`Cut`] stores its
//! leaves in a fixed inline array (`Copy`, no heap), cut functions are
//! fixed 256-bit blocks ([`CutFunction`], `Copy`), and the manager keeps
//! all cut sets in one flat arena indexed by node id — no hash maps, so
//! enumeration order (and therefore every downstream optimisation) is
//! fully deterministic.  Invalidation-heavy passes (rewriting) abandon
//! arena spans; once more than half of the arena is dead the manager
//! compacts it in place instead of bump-leaking until drop.

use glsx_network::views::DepthView;
use glsx_network::{
    ChangeEvent, ChangeLog, GateKind, LocalScratch, Network, NodeId, SimBlock, Traversal,
};
use glsx_truth::TruthTable;
use std::collections::BTreeMap;
use std::ops::Range;

/// Maximum number of leaves a [`Cut`] can hold (the `k` of k-feasible
/// cuts; covers the paper's 4-input rewriting cuts and 6-input LUT
/// mapping with headroom).
pub const MAX_CUT_LEAVES: usize = 8;

/// Number of 64-bit words of a [`CutFunction`] (2^[`MAX_CUT_LEAVES`] bits).
const FUNCTION_WORDS: usize = (1 << MAX_CUT_LEAVES) / 64;

/// Bit patterns of the first six projection variables within one 64-bit
/// word (variable `i` toggles with period `2^i`).
const VAR_MASKS: [u64; 6] = [
    0xAAAA_AAAA_AAAA_AAAA,
    0xCCCC_CCCC_CCCC_CCCC,
    0xF0F0_F0F0_F0F0_F0F0,
    0xFF00_FF00_FF00_FF00,
    0xFFFF_0000_FFFF_0000,
    0xFFFF_FFFF_0000_0000,
];

/// A cut: a set of leaf nodes such that every path from a primary input to
/// the cut's root passes through a leaf.
///
/// Leaves are stored sorted ascending in a fixed inline array, so cuts are
/// `Copy` and never allocate.
#[derive(Clone, Copy, Debug)]
pub struct Cut {
    len: u8,
    /// Bloom-filter style signature used for fast domination checks
    /// (bit `l % 64` is set for every leaf `l`; lossy, so matches must be
    /// confirmed on the sorted leaves).
    signature: u64,
    leaves: [NodeId; MAX_CUT_LEAVES],
}

impl Cut {
    /// Creates a cut from (possibly unsorted, possibly duplicated) leaves.
    ///
    /// # Panics
    ///
    /// Panics if more than [`MAX_CUT_LEAVES`] distinct leaves are given.
    pub fn from_leaves(leaves: &[NodeId]) -> Self {
        let mut cut = Self::empty();
        for &leaf in leaves {
            cut.insert(leaf);
        }
        cut
    }

    /// The empty cut (used as the merge identity).
    #[inline]
    pub fn empty() -> Self {
        Self {
            len: 0,
            signature: 0,
            leaves: [0; MAX_CUT_LEAVES],
        }
    }

    /// The trivial cut `{node}`.
    #[inline]
    pub fn trivial(node: NodeId) -> Self {
        let mut leaves = [0; MAX_CUT_LEAVES];
        leaves[0] = node;
        Self {
            len: 1,
            signature: signature_bit(node),
            leaves,
        }
    }

    /// Inserts a leaf, keeping the array sorted and duplicate-free.
    fn insert(&mut self, leaf: NodeId) {
        let len = self.len as usize;
        let slice = &self.leaves[..len];
        let position = match slice.binary_search(&leaf) {
            Ok(_) => return, // duplicate
            Err(p) => p,
        };
        assert!(
            len < MAX_CUT_LEAVES,
            "cut overflow: more than {MAX_CUT_LEAVES} leaves"
        );
        self.leaves.copy_within(position..len, position + 1);
        self.leaves[position] = leaf;
        self.len += 1;
        self.signature |= signature_bit(leaf);
    }

    /// The sorted leaves of the cut.
    #[inline]
    pub fn leaves(&self) -> &[NodeId] {
        &self.leaves[..self.len as usize]
    }

    /// Number of leaves.
    #[inline]
    pub fn size(&self) -> usize {
        self.len as usize
    }

    /// The (lossy) leaf signature.
    #[inline]
    pub fn signature(&self) -> u64 {
        self.signature
    }

    /// Returns `true` if `self`'s leaves are a subset of `other`'s leaves
    /// (then `self` dominates `other`).
    pub fn dominates(&self, other: &Cut) -> bool {
        if self.len > other.len {
            return false;
        }
        // signature early-exit: a subset's signature has no extra bits.
        // (This subsumes a popcount comparison — popcount(self) >
        // popcount(other) implies an extra bit exists — at lower cost.)
        // Necessary but not sufficient, as signatures are lossy modulo 64,
        // so a surviving candidate is confirmed on the sorted leaf arrays.
        if self.signature & !other.signature != 0 {
            return false;
        }
        // sorted-merge subset test
        let (a, b) = (self.leaves(), other.leaves());
        let mut j = 0usize;
        'outer: for &l in a {
            while j < b.len() {
                match b[j].cmp(&l) {
                    std::cmp::Ordering::Less => j += 1,
                    std::cmp::Ordering::Equal => {
                        j += 1;
                        continue 'outer;
                    }
                    std::cmp::Ordering::Greater => return false,
                }
            }
            return false;
        }
        true
    }

    /// Merges two cuts; returns `None` if the union exceeds `max_size`
    /// leaves.  `max_size` is capped at [`MAX_CUT_LEAVES`] (the inline
    /// capacity of a cut), so passing a larger bound still rejects unions
    /// of more than [`MAX_CUT_LEAVES`] leaves.
    pub fn merge(&self, other: &Cut, max_size: usize) -> Option<Cut> {
        let max_size = max_size.min(MAX_CUT_LEAVES);
        // signature early-exit: the union signature counts at most as many
        // bits as the union has leaves, so too many bits ⇒ too many leaves.
        let signature = self.signature | other.signature;
        if signature.count_ones() as usize > max_size {
            return None;
        }
        let (a, b) = (self.leaves(), other.leaves());
        let mut leaves = [0 as NodeId; MAX_CUT_LEAVES];
        let mut len = 0usize;
        let (mut i, mut j) = (0usize, 0usize);
        while i < a.len() || j < b.len() {
            let next = match (a.get(i), b.get(j)) {
                (Some(&x), Some(&y)) if x == y => {
                    i += 1;
                    j += 1;
                    x
                }
                (Some(&x), Some(&y)) if x < y => {
                    i += 1;
                    x
                }
                (Some(_), Some(&y)) => {
                    j += 1;
                    y
                }
                (Some(&x), None) => {
                    i += 1;
                    x
                }
                (None, Some(&y)) => {
                    j += 1;
                    y
                }
                (None, None) => unreachable!(),
            };
            if len >= max_size {
                return None;
            }
            leaves[len] = next;
            len += 1;
        }
        Some(Cut {
            len: len as u8,
            signature,
            leaves,
        })
    }
}

impl PartialEq for Cut {
    fn eq(&self, other: &Self) -> bool {
        self.leaves() == other.leaves()
    }
}

impl Eq for Cut {}

#[inline]
fn signature_bit(leaf: NodeId) -> u64 {
    1u64 << (leaf % 64)
}

/// The truth table of a cut over its (at most [`MAX_CUT_LEAVES`]) leaves,
/// stored inline as a fixed 256-bit block so cut functions are `Copy` and
/// live in a flat arena next to the cuts themselves.
///
/// Variable `i` is the `i`-th leaf in the cut's sorted leaf order — the
/// exact convention of [`simulate_cut`], so
/// [`CutFunction::to_truth_table`] is bit-identical to cone simulation
/// over the same leaves.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct CutFunction {
    num_vars: u8,
    words: [u64; FUNCTION_WORDS],
}

/// Words used by a table over `num_vars` variables (the convention of
/// [`TruthTable`]).
#[inline]
pub(crate) fn word_count(num_vars: usize) -> usize {
    if num_vars <= 6 {
        1
    } else {
        1 << (num_vars - 6)
    }
}

/// The bits a table over `num_vars` variables uses in each of its words:
/// the low `2^num_vars` below 6 variables, all 64 from 6 on.  XOR with it
/// complements a table exactly as [`TruthTable`]'s `!` does.
#[inline]
pub(crate) fn word_mask(num_vars: usize) -> u64 {
    if num_vars < 6 {
        (1u64 << (1 << num_vars)) - 1
    } else {
        u64::MAX
    }
}

/// Writes the projection function of variable `var` into `words`, the
/// `word_count` words of a table (excess bits of a table below 6
/// variables are left for the caller to mask).
fn write_projection(words: &mut [u64], var: usize) {
    for (i, w) in words.iter_mut().enumerate() {
        *w = if var < 6 {
            VAR_MASKS[var]
        } else if (i >> (var - 6)) & 1 == 1 {
            u64::MAX
        } else {
            0
        };
    }
}

impl CutFunction {
    /// The constant-zero function.
    #[inline]
    pub fn zero(num_vars: usize) -> Self {
        debug_assert!(num_vars <= MAX_CUT_LEAVES);
        Self {
            num_vars: num_vars as u8,
            words: [0; FUNCTION_WORDS],
        }
    }

    /// The projection function of variable `var`.
    pub fn nth_var(num_vars: usize, var: usize) -> Self {
        debug_assert!(var < num_vars.max(1) && num_vars <= MAX_CUT_LEAVES);
        let mut f = Self::zero(num_vars);
        write_projection(&mut f.words[..word_count(num_vars)], var);
        f.mask_off_excess();
        f
    }

    /// Number of variables of the function.
    #[inline]
    pub fn num_vars(&self) -> usize {
        self.num_vars as usize
    }

    fn mask_off_excess(&mut self) {
        self.words[0] &= word_mask(self.num_vars as usize);
        for w in &mut self.words[word_count(self.num_vars as usize)..] {
            *w = 0;
        }
    }

    /// Complements the function (excess bits stay zero).
    #[inline]
    fn complement(mut self) -> Self {
        for w in &mut self.words {
            *w = !*w;
        }
        self.mask_off_excess();
        self
    }

    #[inline]
    fn binary(mut self, other: &Self, op: impl Fn(u64, u64) -> u64) -> Self {
        for (a, b) in self.words.iter_mut().zip(&other.words) {
            *a = op(*a, *b);
        }
        self
    }

    /// Converts to a heap-backed [`TruthTable`] (bit-identical to
    /// [`simulate_cut`] over the same sorted leaves).
    pub fn to_truth_table(&self) -> TruthTable {
        let wc = word_count(self.num_vars as usize);
        TruthTable::from_words(self.num_vars as usize, self.words[..wc].to_vec())
    }

    /// Builds a `Copy` cut function from a heap-backed table (at most
    /// [`MAX_CUT_LEAVES`] variables).
    ///
    /// # Panics
    ///
    /// Panics if the table has more than [`MAX_CUT_LEAVES`] variables.
    pub fn from_truth_table(tt: &TruthTable) -> Self {
        assert!(
            tt.num_vars() <= MAX_CUT_LEAVES,
            "cut functions hold at most {MAX_CUT_LEAVES} variables"
        );
        let mut f = Self::zero(tt.num_vars());
        for (slot, word) in f.words.iter_mut().zip(tt.words()) {
            *slot = *word;
        }
        f.mask_off_excess();
        f
    }

    /// Overwrites `tt` with this function, reusing `tt`'s word buffer —
    /// the allocation-free form of [`CutFunction::to_truth_table`] used by
    /// the replacement engine to cross the resynthesis boundary without a
    /// per-candidate heap table.
    pub fn write_truth_table(&self, tt: &mut TruthTable) {
        let wc = word_count(self.num_vars as usize);
        tt.assign_words(self.num_vars as usize, &self.words[..wc]);
    }
}

/// [`CutFunction`] is a [`SimBlock`], so the fused enumeration evaluates
/// gates through the same shared kind dispatch
/// ([`glsx_network::bitops::evaluate_gate`]) as whole-network simulation —
/// one `match` to keep correct when new gate kinds land, instead of three.
impl SimBlock for CutFunction {
    #[inline]
    fn zero(num_vars: usize) -> Self {
        CutFunction::zero(num_vars)
    }

    #[inline]
    fn ones(num_vars: usize) -> Self {
        CutFunction::zero(num_vars).complement()
    }

    #[inline]
    fn num_vars(&self) -> usize {
        CutFunction::num_vars(self)
    }

    #[inline]
    fn and(&self, other: &Self) -> Self {
        self.binary(other, |a, b| a & b)
    }

    #[inline]
    fn or(&self, other: &Self) -> Self {
        self.binary(other, |a, b| a | b)
    }

    #[inline]
    fn xor(&self, other: &Self) -> Self {
        self.binary(other, |a, b| a ^ b)
    }

    #[inline]
    fn complement(&self) -> Self {
        CutFunction::complement(*self)
    }
}

/// Evaluates a gate over already-expanded (and complement-resolved) fanin
/// cut functions.  `function` is consulted only for LUT gates.
///
/// Delegates to the shared gate-kind dispatch
/// ([`glsx_network::bitops::evaluate_gate`]), the single `match` also
/// backing whole-network and word-parallel simulation — no per-engine copy
/// to keep in sync when new gate kinds land.
fn evaluate_cut_gate(
    kind: GateKind,
    function: impl FnOnce() -> TruthTable,
    fanins: &[CutFunction],
) -> CutFunction {
    glsx_network::bitops::evaluate_gate(kind, function, fanins)
}

/// Parameters of bottom-up cut enumeration.
#[derive(Clone, Copy, Debug)]
pub struct CutParams {
    /// Maximum number of leaves per cut (at most [`MAX_CUT_LEAVES`]).
    pub cut_size: usize,
    /// Maximum number of cuts kept per node (priority cuts).
    pub cut_limit: usize,
    /// Fuse truth-table computation into enumeration: every cut's function
    /// is computed when the cut set is pruned and read back in O(1) via
    /// [`CutManager::cut_function`].
    pub compute_truth: bool,
}

impl Default for CutParams {
    fn default() -> Self {
        Self {
            cut_size: 4,
            cut_limit: 12,
            compute_truth: false,
        }
    }
}

/// State of one node's entry in the cut arena.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
enum SpanState {
    /// Never computed.
    #[default]
    Empty,
    /// `arena[start..start + len]` holds the node's cut set.
    Computed,
    /// Computed at least once, then dropped (substitution or refresh);
    /// behaves like [`SpanState::Empty`] except that the next commit
    /// counts as a *re*-enumeration in [`CutCounters`].
    Invalidated,
}

/// Per-node slice descriptor into the flat cut arena.
#[derive(Clone, Copy, Debug, Default)]
struct Span {
    start: u32,
    len: u16,
    state: SpanState,
}

/// Arena grows beyond this before compaction is considered.
const COMPACT_MIN_ARENA: usize = 4096;

/// Cumulative enumeration/invalidation counters of a [`CutManager`] — the
/// observability half of the incremental-maintenance contract.  A pass
/// that refreshes incrementally can report how much enumeration work each
/// substitution actually caused (`reenumerated_*`) against the full
/// rebuild it avoided (every live node).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CutCounters {
    /// Nodes whose cut set was enumerated (first time or again).
    pub enumerated_nodes: u64,
    /// Cuts committed to the arena over all enumerations.
    pub enumerated_cuts: u64,
    /// Nodes enumerated *again* after an invalidation dropped their set.
    pub reenumerated_nodes: u64,
    /// Cuts committed by re-enumerations.
    pub reenumerated_cuts: u64,
    /// Computed cut sets dropped by [`CutManager::invalidate`] or
    /// [`CutManager::refresh_from`].  A state transition count: a node
    /// whose set was never computed, or is already dropped, adds nothing.
    pub invalidated_nodes: u64,
    /// Calls to [`CutManager::refresh_from`].
    pub refreshes: u64,
    /// Nodes popped by the transitive-fanout walk of
    /// [`CutManager::refresh_from`], summed over all refreshes: the work
    /// of the walk itself, whether or not the node had a computed set to
    /// drop.
    pub refresh_walked: u64,
    /// Choice-derived cuts committed to representative tails by
    /// [`CutManager::choice_cuts_of`]: cuts harvested from ring members'
    /// cut sets (polarity-corrected) that survived dominance pruning
    /// against the representative's structural set.
    pub choice_cuts: u64,
}

impl glsx_network::MetricsSource for CutCounters {
    fn visit_metrics(&self, visit: &mut dyn FnMut(&str, u64)) {
        visit("enumerated_nodes", self.enumerated_nodes);
        visit("enumerated_cuts", self.enumerated_cuts);
        visit("reenumerated_nodes", self.reenumerated_nodes);
        visit("reenumerated_cuts", self.reenumerated_cuts);
        visit("invalidated_nodes", self.invalidated_nodes);
        visit("refreshes", self.refreshes);
        visit("refresh_walked", self.refresh_walked);
        visit("choice_cuts", self.choice_cuts);
    }
}

/// Reusable buffers of one cut-set computation: the Cartesian merge
/// pipeline, the pruned result (with fused functions) and the cone-walk
/// state for truth computation.
///
/// The [`CutManager`] owns one workspace for its serial path; parallel
/// bulk enumeration ([`CutManager::enumerate`]) hands every worker thread
/// its own, so the shared arena is only ever *read* while workers compute.
/// The truth-table cone walk marks visited nodes in a thread-local
/// [`LocalScratch`] instead of the network's shared scratch slots — the
/// partition-safe replacement for the single-traversal-at-a-time
/// [`Traversal`] contract.
#[derive(Debug, Default)]
struct CutWorkspace {
    /// Cartesian merge front (reused across nodes).
    partial: Vec<Cut>,
    next_partial: Vec<Cut>,
    /// The pruned cut set of the node under computation (trivial first).
    result: Vec<Cut>,
    /// Fused functions parallel to `result` (under `compute_truth`).
    result_functions: Vec<CutFunction>,
    /// Cone-walk values, indexed by [`LocalScratch`] stamps.
    sim_values: Vec<CutFunction>,
    sim_stack: Vec<NodeId>,
    /// Thread-local visited marks of the cone walk.
    scratch: LocalScratch,
}

impl CutWorkspace {
    /// Computes the pruned cut set of `node` into `self.result` (trivial
    /// cut first) by merging the fanins' committed cut sets (Cartesian
    /// product, pruned by size and dominance), then composes the surviving
    /// cuts' truth tables into `self.result_functions` when truth fusion
    /// is enabled.  Fanin cut sets are read from `arena[fanin_span(f)]`,
    /// so the caller decides whether `arena` is the manager's own (serial)
    /// or a shared snapshot (parallel workers).
    fn compute_node<N: Network>(
        &mut self,
        ntk: &N,
        node: NodeId,
        params: &CutParams,
        arena: &[Cut],
        fanin_span: &impl Fn(NodeId) -> Range<usize>,
    ) {
        debug_assert!(self.result.is_empty());
        self.partial.clear();
        self.partial.push(Cut::empty());
        let fanin_size = ntk.fanin_size(node);
        for index in 0..fanin_size {
            let fanin = ntk.fanin(node, index).node();
            let fanin_cuts = fanin_span(fanin);
            self.next_partial.clear();
            for base in &self.partial {
                for cut in &arena[fanin_cuts.clone()] {
                    if let Some(merged) = base.merge(cut, params.cut_size) {
                        self.next_partial.push(merged);
                    }
                }
            }
            std::mem::swap(&mut self.partial, &mut self.next_partial);
            if self.partial.is_empty() {
                break;
            }
        }
        // the trivial cut comes first so callers can skip it easily
        self.result.push(Cut::trivial(node));
        for i in 0..self.partial.len() {
            let cut = self.partial[i];
            if cut.size() <= params.cut_size {
                add_cut_pruned(&mut self.result, cut, params.cut_limit);
            }
        }
        if params.compute_truth {
            self.compute_result_functions(ntk, node);
        }
    }

    /// Computes the truth table of every cut in `self.result` (the pruned
    /// cut set of `node`) by an allocation-free cone walk over fixed-size
    /// [`CutFunction`] blocks.
    ///
    /// Why a walk and not composition from the fanin cuts' stored tables?
    /// Composition (expand each fanin cut's function to the leaf union,
    /// evaluate the gate) is *not* bit-identical to cone simulation in
    /// reconvergent networks: dominance pruning can leave only a fanin
    /// sub-cut whose cone bypasses one of the merged cut's own leaves, and
    /// the expanded table then fixes that leaf to its cone function instead
    /// of treating it as a free variable.  Both tables agree under
    /// consistent leaf valuations, but the contract here is exact equality
    /// with [`simulate_cut`] — so every table is computed with the same
    /// stop-at-every-leaf semantics, just without its per-call heap
    /// allocations.
    fn compute_result_functions<N: Network>(&mut self, ntk: &N, node: NodeId) {
        debug_assert!(self.result_functions.is_empty());
        // the trivial cut {node} is the projection of its single leaf
        self.result_functions.push(CutFunction::nth_var(1, 0));
        for index in 1..self.result.len() {
            let cut = self.result[index];
            let tt = self.cone_function(ntk, node, cut.leaves());
            self.result_functions.push(tt);
        }
    }

    /// Simulates the cone of `root` down to `leaves` in [`CutFunction`]
    /// arithmetic (bit-identical to [`simulate_cut`], allocation-free in
    /// the steady state).  The visited window lives in the workspace's
    /// [`LocalScratch`], so concurrent workers never contend on the
    /// network's shared scratch slots.
    fn cone_function<N: Network>(
        &mut self,
        ntk: &N,
        root: NodeId,
        leaves: &[NodeId],
    ) -> CutFunction {
        let num_vars = leaves.len();
        self.scratch.reset(ntk.size());
        self.sim_values.clear();
        // mirror `simulate_cut`: the constant node reads as zero unless it
        // is itself a leaf (the later stamp overwrites)
        self.scratch.set_value(0, 0);
        self.sim_values.push(CutFunction::zero(num_vars));
        for (i, &leaf) in leaves.iter().enumerate() {
            self.scratch.set_value(leaf, self.sim_values.len() as u32);
            self.sim_values.push(CutFunction::nth_var(num_vars, i));
        }
        debug_assert!(self.sim_stack.is_empty());
        self.sim_stack.push(root);
        while let Some(&current) = self.sim_stack.last() {
            if self.scratch.value(current).is_some() {
                self.sim_stack.pop();
                continue;
            }
            debug_assert!(
                ntk.is_gate(current),
                "cut cone reached node {current} outside the cut"
            );
            let mut missing = false;
            ntk.foreach_fanin(current, |f| {
                if self.scratch.value(f.node()).is_none() {
                    self.sim_stack.push(f.node());
                    missing = true;
                }
            });
            if missing {
                continue;
            }
            let fanin_size = ntk.fanin_size(current);
            assert!(
                fanin_size <= MAX_CUT_LEAVES,
                "fused truth tables support gates with at most {MAX_CUT_LEAVES} fanins"
            );
            let mut fanin_tts = [CutFunction::zero(0); MAX_CUT_LEAVES];
            for (j, slot) in fanin_tts.iter_mut().enumerate().take(fanin_size) {
                let f = ntk.fanin(current, j);
                let value = self.sim_values
                    [self.scratch.value(f.node()).expect("fanin simulated") as usize];
                *slot = if f.is_complemented() {
                    value.complement()
                } else {
                    value
                };
            }
            let tt = evaluate_cut_gate(
                ntk.gate_kind(current),
                || ntk.node_function(current),
                &fanin_tts[..fanin_size],
            );
            self.scratch
                .set_value(current, self.sim_values.len() as u32);
            self.sim_values.push(tt);
            self.sim_stack.pop();
        }
        self.sim_values[self.scratch.value(root).expect("root simulated") as usize]
    }
}

/// Per-worker output of one parallel enumeration bucket: the cut sets of
/// the worker's nodes concatenated, with per-node set lengths, ready to be
/// committed serially in bucket order.
#[derive(Debug, Default)]
struct BucketResults {
    lens: Vec<u16>,
    cuts: Vec<Cut>,
    functions: Vec<CutFunction>,
}

/// Level buckets smaller than this are enumerated serially even under a
/// parallel configuration: the fork/join overhead of a scoped-thread round
/// dominates the merge work for narrow levels.
pub(crate) const PARALLEL_BUCKET_MIN: usize = 64;

/// Bottom-up priority-cut enumeration with lazy, per-node memoisation and
/// optional fused truth tables.
///
/// All cut sets live in a single flat arena (`Vec<Cut>`, with a parallel
/// `Vec<CutFunction>` when truth tables are fused) addressed through a
/// dense per-node span table — no per-node allocations and no hash maps,
/// so repeated runs enumerate identical cut sets in identical order.  The
/// manager remains usable while the network is being rewritten: nodes
/// created after construction simply get their cuts computed when first
/// requested, and [`CutManager::invalidate`] drops a stale set.  Abandoned
/// arena spans are reclaimed by in-place compaction once more than half of
/// the arena is dead (invalidation-heavy passes no longer bump-leak until
/// the manager drops).
#[derive(Debug)]
pub struct CutManager {
    params: CutParams,
    /// Flat pool backing every node's cut set.
    arena: Vec<Cut>,
    /// Parallel pool of cut functions (`arena[i]`'s function is
    /// `functions[i]`); empty unless `params.compute_truth`.
    functions: Vec<CutFunction>,
    /// `spans[node]` locates the node's cut set inside the arena.
    spans: Vec<Span>,
    /// Number of live (non-abandoned) arena entries.  May overcount until
    /// the next compaction check recounts it (see
    /// [`CutManager::maybe_compact`]).
    live: usize,
    /// Arena length at which the next compaction check runs (doubles each
    /// time, so the recount is amortised O(1) per commit).
    next_compact_check: usize,
    /// Reused per-node computation buffers (kept on the manager so
    /// steady-state enumeration performs no allocations).  Parallel bulk
    /// enumeration gives every worker thread its own workspace.
    workspace: CutWorkspace,
    /// Reused transitive-fanout worklist of [`CutManager::refresh_from`].
    refresh_stack: Vec<NodeId>,
    /// Choice-cut tails: per-representative extra cuts harvested from ring
    /// members (see [`CutManager::choice_cuts_of`]).  A separate arena so
    /// the structural substrate above stays bit-identical whether or not a
    /// network carries choices.
    choice_arena: Vec<Cut>,
    /// Root of each tail cut: the ring member whose cone realises it,
    /// plus the member's polarity relative to the representative.
    choice_roots: Vec<(NodeId, bool)>,
    /// Functions of the tail cuts (polarity-corrected to the
    /// representative); filled only under [`CutParams::compute_truth`].
    choice_functions: Vec<CutFunction>,
    /// `choice_spans[node]` locates the node's tail inside `choice_arena`.
    choice_spans: Vec<Span>,
    /// Cumulative enumeration/invalidation counters.
    counters: CutCounters,
}

impl CutManager {
    /// Creates a cut manager with the given parameters.
    ///
    /// # Panics
    ///
    /// Panics if `params.cut_size` exceeds [`MAX_CUT_LEAVES`], or if
    /// `params.cut_limit` does not fit the arena's per-node span length
    /// (`u16`).
    pub fn new(params: CutParams) -> Self {
        assert!(
            params.cut_size <= MAX_CUT_LEAVES,
            "cut_size {} exceeds MAX_CUT_LEAVES {MAX_CUT_LEAVES}",
            params.cut_size
        );
        // +1 for the trivial cut; spans store their length as u16 and the
        // merge pipeline indexes cuts within a span as u16
        assert!(
            params.cut_limit < u16::MAX as usize,
            "cut_limit {} exceeds the arena span capacity",
            params.cut_limit
        );
        Self {
            params,
            arena: Vec::new(),
            functions: Vec::new(),
            spans: Vec::new(),
            live: 0,
            next_compact_check: COMPACT_MIN_ARENA,
            workspace: CutWorkspace::default(),
            refresh_stack: Vec::new(),
            choice_arena: Vec::new(),
            choice_roots: Vec::new(),
            choice_functions: Vec::new(),
            choice_spans: Vec::new(),
            counters: CutCounters::default(),
        }
    }

    /// The cumulative enumeration/invalidation counters.
    pub fn counters(&self) -> CutCounters {
        self.counters
    }

    /// Returns the cut set of `node`, computing it (and its ancestors'
    /// sets) if necessary.  The first cut is always the trivial cut
    /// `{node}`.
    pub fn cuts_of<N: Network>(&mut self, ntk: &N, node: NodeId) -> &[Cut] {
        self.ensure_cuts(ntk, node);
        let span = self.spans[node as usize];
        &self.arena[span.start as usize..span.start as usize + span.len as usize]
    }

    /// Returns the fused function of cut `index` of `node` (the cut at
    /// `cuts_of(ntk, node)[index]`), expressed over the cut's sorted
    /// leaves — bit-identical to [`simulate_cut`] over the same leaves.
    ///
    /// The returned reference points straight into the function arena: the
    /// hot path never materialises a heap table (copy the `Copy` value or
    /// use [`CutFunction::write_truth_table`] to cross into heap-table
    /// APIs).
    ///
    /// # Panics
    ///
    /// Panics if the manager was created without
    /// [`CutParams::compute_truth`] or the node's cuts have not been
    /// computed (or were invalidated).
    pub fn cut_function(&self, node: NodeId, index: usize) -> &CutFunction {
        assert!(
            self.params.compute_truth,
            "cut_function requires CutParams::compute_truth"
        );
        let span = self.spans[node as usize];
        assert!(
            span.state == SpanState::Computed && index < span.len as usize,
            "cut_function: cuts of node {node} not computed"
        );
        &self.functions[span.start as usize + index]
    }

    /// Drops the memoised cut set of `node` (used after the node has been
    /// substituted).  The abandoned arena span is reclaimed by the next
    /// compaction.
    pub fn invalidate(&mut self, node: NodeId) {
        if let Some(span) = self.spans.get_mut(node as usize) {
            if span.state == SpanState::Computed {
                self.live -= span.len as usize;
                span.state = SpanState::Invalidated;
                self.counters.invalidated_nodes += 1;
            }
        }
        self.drop_choice_tails();
    }

    /// Drops every memoised choice tail (cheap no-op while none exist).
    /// Tails are derived from *member* cut sets, whose staleness the
    /// per-node invalidation above cannot attribute to a representative
    /// without a network at hand — and choice-aware consumers (mapping)
    /// run on a static network, so a rebuild after structural churn is the
    /// rare case, not the steady state.
    fn drop_choice_tails(&mut self) {
        if self.choice_arena.is_empty() {
            return;
        }
        self.choice_arena.clear();
        self.choice_roots.clear();
        self.choice_functions.clear();
        self.choice_spans.clear();
    }

    /// Returns the *choice tail* of `node`: extra cuts harvested from the
    /// choice-ring members of `node` (empty unless the network carries
    /// choices and `node` represents a non-trivial ring).  Together with
    /// [`CutManager::cuts_of`] this is the enlarged, choice-aware cut set
    /// of the paper's choice networks: every tail cut is a cut of some
    /// ring member `m ≡ node ⊕ phase`, re-rooted at the representative —
    /// [`CutManager::choice_cut_root`] reports which member cone realises
    /// it, [`CutManager::choice_cut_function`] its polarity-corrected
    /// function.
    ///
    /// Member cuts are pruned against the representative's structural set
    /// and against each other (dominance), skip the member's trivial cut
    /// and any cut whose leaves include the representative or a
    /// non-representative ring member, and are capped at
    /// [`CutParams::cut_limit`] (smallest first on overflow, mirroring the
    /// structural pruning).  The structural set itself is never altered:
    /// with choices absent the manager is bit-identical to one that never
    /// heard of them.
    pub fn choice_cuts_of<N: Network>(&mut self, ntk: &N, node: NodeId) -> &[Cut] {
        if !ntk.has_choices() || ntk.choice_repr(node) != node || ntk.next_choice(node).is_none() {
            return &[];
        }
        if !self
            .choice_spans
            .get(node as usize)
            .map(|s| s.state == SpanState::Computed)
            .unwrap_or(false)
        {
            self.build_choice_tail(ntk, node);
        }
        let span = self.choice_spans[node as usize];
        &self.choice_arena[span.start as usize..span.start as usize + span.len as usize]
    }

    /// The member cone realising tail cut `index` of `node`: `(root,
    /// phase)` with `node ≡ root ⊕ phase`.  A consumer reconstructing the
    /// mapped structure walks `root`'s cone down to the cut leaves and
    /// complements the result iff `phase`.
    ///
    /// # Panics
    ///
    /// Panics if the tail of `node` has not been computed or `index` is
    /// out of range.
    pub fn choice_cut_root(&self, node: NodeId, index: usize) -> (NodeId, bool) {
        let span = self.choice_spans[node as usize];
        assert!(
            span.state == SpanState::Computed && index < span.len as usize,
            "choice_cut_root: tail of node {node} not computed"
        );
        self.choice_roots[span.start as usize + index]
    }

    /// The fused function of tail cut `index` of `node`, expressed over
    /// the cut's sorted leaves and polarity-corrected to the
    /// *representative* (complemented relative to the member's own
    /// function iff the member is antivalent).
    ///
    /// # Panics
    ///
    /// Panics like [`CutManager::cut_function`] (requires
    /// [`CutParams::compute_truth`] and a computed tail).
    pub fn choice_cut_function(&self, node: NodeId, index: usize) -> &CutFunction {
        assert!(
            self.params.compute_truth,
            "choice_cut_function requires CutParams::compute_truth"
        );
        let span = self.choice_spans[node as usize];
        assert!(
            span.state == SpanState::Computed && index < span.len as usize,
            "choice_cut_function: tail of node {node} not computed"
        );
        &self.choice_functions[span.start as usize + index]
    }

    /// Computes the choice tail of representative `node` from its ring
    /// members' (structural) cut sets.
    fn build_choice_tail<N: Network>(&mut self, ntk: &N, node: NodeId) {
        // the representative's structural set is the dominance reference
        self.ensure_cuts(ntk, node);
        // collect the ring first: ensuring member cut sets below re-borrows
        // the manager mutably
        let mut ring: Vec<(NodeId, bool)> = Vec::new();
        ntk.foreach_choice(node, |member, phase| ring.push((member, phase)));
        // tail candidates accumulate here before the capped commit
        let mut tail: Vec<(Cut, (NodeId, bool), CutFunction)> = Vec::new();
        for &(member, phase) in &ring {
            if ntk.is_dead(member) {
                continue;
            }
            self.ensure_cuts(ntk, member);
            let span = self.spans[member as usize];
            let start = span.start as usize;
            'cuts: for index in 1..span.len as usize {
                let cut = self.arena[start + index];
                if cut.size() > self.params.cut_size {
                    continue;
                }
                for &leaf in cut.leaves() {
                    // the representative as a leaf would make the LUT feed
                    // itself; a non-representative member as a leaf would
                    // duplicate class logic below the cut — skip both
                    if leaf == node || ntk.choice_repr(leaf) != leaf {
                        continue 'cuts;
                    }
                }
                // dominance against the structural set (kept intact) …
                let own = self.spans[node as usize];
                let own_range = own.start as usize..own.start as usize + own.len as usize;
                if self.arena[own_range].iter().any(|c| c.dominates(&cut)) {
                    continue;
                }
                // … and against the tail built so far (both directions)
                if tail.iter().any(|(c, _, _)| c.dominates(&cut)) {
                    continue;
                }
                tail.retain(|(c, _, _)| !cut.dominates(c));
                let function = if self.params.compute_truth {
                    let f = *self.cut_function(member, index);
                    if phase {
                        SimBlock::complement(&f)
                    } else {
                        f
                    }
                } else {
                    CutFunction::zero(0)
                };
                tail.push((cut, (member, phase), function));
            }
        }
        if tail.len() > self.params.cut_limit {
            tail.sort_by_key(|(c, _, _)| c.size());
            tail.truncate(self.params.cut_limit);
        }
        let start = self.choice_arena.len() as u32;
        let len = tail.len() as u16;
        for (cut, root, function) in tail {
            self.choice_arena.push(cut);
            self.choice_roots.push(root);
            if self.params.compute_truth {
                self.choice_functions.push(function);
            }
        }
        self.counters.choice_cuts += u64::from(len);
        if self.choice_spans.len() <= node as usize {
            self.choice_spans.resize(node as usize + 1, Span::default());
        }
        self.choice_spans[node as usize] = Span {
            start,
            len,
            state: SpanState::Computed,
        };
    }

    /// Drops every memoised cut set: after this call the manager behaves
    /// exactly like a freshly constructed one (modulo counters and
    /// reusable buffers).  The from-scratch reference that tests compare
    /// [`CutManager::refresh_from`] against; no pass calls it.
    #[cfg(test)]
    pub(crate) fn invalidate_all(&mut self) {
        for node in 0..self.spans.len() as NodeId {
            self.invalidate(node);
        }
    }

    /// Incrementally refreshes the manager after the structural changes
    /// recorded in `log`: cut sets of substituted and deleted nodes are
    /// dropped, and the *transitive fanout* of every rewired node — the
    /// exact set of nodes whose cones (and therefore cut sets and cut
    /// functions) the changes can have altered — is invalidated for lazy
    /// re-enumeration.  Nothing else is touched, so after a refresh the
    /// manager answers every query bit-identically to a from-scratch
    /// manager over the changed network, at the cost of re-enumerating
    /// only the invalidated region instead of everything (the contract
    /// verified by the property suite and the rewriting tests).  The
    /// nodes the walk visits are counted in
    /// [`CutCounters::refresh_walked`].
    ///
    /// The fanout walk is bounded by the scratch-slot [`Traversal`]
    /// engine; callers must not hold another live-writing traversal across
    /// this call.
    pub fn refresh_from<N: Network>(&mut self, ntk: &N, log: &ChangeLog) {
        self.counters.refreshes += 1;
        let tfo = Traversal::new(ntk);
        debug_assert!(self.refresh_stack.is_empty());
        for event in log.events() {
            match *event {
                ChangeEvent::Substituted { old, .. } => self.invalidate(old),
                ChangeEvent::Deleted { node } => self.invalidate(node),
                ChangeEvent::RewiredFanin { node } => {
                    if tfo.mark(ntk, node) {
                        self.refresh_stack.push(node);
                    }
                }
            }
        }
        while let Some(node) = self.refresh_stack.pop() {
            self.counters.refresh_walked += 1;
            self.invalidate(node);
            ntk.foreach_fanout(node, |parent| {
                if tfo.mark(ntk, parent) {
                    self.refresh_stack.push(parent);
                }
            });
        }
    }

    /// Number of arena slots currently allocated (live + abandoned);
    /// exposed for compaction tests.
    pub fn arena_len(&self) -> usize {
        self.arena.len()
    }

    #[inline]
    fn is_computed(&self, node: NodeId) -> bool {
        self.spans
            .get(node as usize)
            .map(|s| s.state == SpanState::Computed)
            .unwrap_or(false)
    }

    fn grow_spans(&mut self, node: NodeId) {
        if self.spans.len() <= node as usize {
            self.spans.resize(node as usize + 1, Span::default());
        }
    }

    /// Reclaims abandoned arena spans in place once more than half of the
    /// arena is dead.
    ///
    /// `self.live` can *overcount*: substitution kills a whole MFFC but
    /// callers only invalidate the root, so spans of the other dead nodes
    /// stay `Computed`.  Gating the trigger on the overcounted value would
    /// make compaction unreachable in exactly the invalidation-heavy passes
    /// it exists for.  Therefore the check is scheduled by *arena growth*
    /// (every time the arena doubles past [`COMPACT_MIN_ARENA`], amortised
    /// O(1) per commit): first recount true liveness — dropping spans of
    /// nodes that have died since memoisation — then compact if more than
    /// half of the arena turns out dead.  Live spans keep their relative
    /// order, so compaction never changes enumeration results — only where
    /// they are stored.
    fn maybe_compact<N: Network>(&mut self, ntk: &N) {
        if self.arena.len() < self.next_compact_check {
            return;
        }
        // recount: drop spans of dead nodes and correct the live total
        let mut order: Vec<NodeId> = Vec::new();
        let mut live = 0usize;
        for node in 0..self.spans.len() as NodeId {
            let span = self.spans[node as usize];
            if span.state != SpanState::Computed {
                continue;
            }
            if (node as usize) < ntk.size() && ntk.is_dead(node) {
                self.spans[node as usize].state = SpanState::Invalidated;
                continue;
            }
            live += span.len as usize;
            order.push(node);
        }
        self.live = live;
        if self.live * 2 >= self.arena.len() {
            // mostly live: check again once the arena has doubled
            self.next_compact_check = (self.arena.len() * 2).max(COMPACT_MIN_ARENA);
            return;
        }
        order.sort_unstable_by_key(|&n| self.spans[n as usize].start);
        let mut write = 0usize;
        for node in order {
            let span = self.spans[node as usize];
            let start = span.start as usize;
            let len = span.len as usize;
            self.arena.copy_within(start..start + len, write);
            if self.params.compute_truth {
                self.functions.copy_within(start..start + len, write);
            }
            self.spans[node as usize].start = write as u32;
            write += len;
        }
        debug_assert_eq!(write, self.live);
        self.arena.truncate(write);
        if self.params.compute_truth {
            self.functions.truncate(write);
        }
        self.next_compact_check = (self.arena.len() * 2).max(COMPACT_MIN_ARENA);
    }

    fn commit<N: Network>(&mut self, ntk: &N, node: NodeId) {
        self.maybe_compact(ntk);
        let start = self.arena.len() as u32;
        let len = self.workspace.result.len() as u16;
        self.arena.append(&mut self.workspace.result);
        if self.params.compute_truth {
            debug_assert_eq!(self.workspace.result_functions.len(), len as usize);
            self.functions.append(&mut self.workspace.result_functions);
        } else {
            self.workspace.result_functions.clear();
        }
        self.live += len as usize;
        self.grow_spans(node);
        self.counters.enumerated_nodes += 1;
        self.counters.enumerated_cuts += u64::from(len);
        if self.spans[node as usize].state == SpanState::Invalidated {
            self.counters.reenumerated_nodes += 1;
            self.counters.reenumerated_cuts += u64::from(len);
        }
        self.spans[node as usize] = Span {
            start,
            len,
            state: SpanState::Computed,
        };
    }

    fn ensure_cuts<N: Network>(&mut self, ntk: &N, node: NodeId) {
        if self.is_computed(node) {
            return;
        }
        // iterative dependency resolution to avoid deep recursion
        let mut stack = vec![node];
        while let Some(&current) = stack.last() {
            if self.is_computed(current) {
                stack.pop();
                continue;
            }
            if !ntk.is_gate(current) {
                self.workspace.result.push(Cut::trivial(current));
                if self.params.compute_truth {
                    self.workspace
                        .result_functions
                        .push(CutFunction::nth_var(1, 0));
                }
                self.commit(ntk, current);
                stack.pop();
                continue;
            }
            let mut missing = false;
            ntk.foreach_fanin(current, |f| {
                if !self.is_computed(f.node()) {
                    stack.push(f.node());
                    missing = true;
                }
            });
            if missing {
                continue;
            }
            self.compute_cuts(ntk, current);
            self.commit(ntk, current);
            stack.pop();
        }
    }

    /// Computes the cut set of `node` into the workspace by merging the
    /// fanins' committed cut sets (see [`CutWorkspace::compute_node`]).
    fn compute_cuts<N: Network>(&mut self, ntk: &N, node: NodeId) {
        let CutManager {
            params,
            arena,
            spans,
            workspace,
            ..
        } = self;
        workspace.compute_node(ntk, node, params, arena, &|fanin| {
            let span = spans[fanin as usize];
            debug_assert_eq!(span.state, SpanState::Computed);
            span.start as usize..span.start as usize + span.len as usize
        });
    }

    /// Bulk-enumerates the cut sets of every live node, level by level, on
    /// up to `threads` worker threads (`0` and `1` both mean the calling
    /// thread alone).
    ///
    /// The threaded path is an accelerated twin of the serial one: at
    /// every thread count it produces a *bit-identical* result —
    /// identical arena contents and order, identical per-node cut sets,
    /// identical counters — so the thread count changes wall-clock time
    /// only.  The commit order is *fixed*: the constant node, then
    /// primary inputs in id order, then the [`DepthView`] level buckets in
    /// ascending order (topological within each bucket).  Each bucket of
    /// at least `PARALLEL_BUCKET_MIN` nodes is split into contiguous
    /// chunks, one per worker thread, that compute into private
    /// [`CutWorkspace`]s while reading the committed arena immutably (a
    /// gate's fanins all live at lower, already-committed levels); the
    /// per-worker results are then committed serially in bucket order.
    /// Each level is a barrier, so the threads pay on wide, shallow
    /// networks and lose on deep ones with narrow levels.
    ///
    /// Already-computed nodes are skipped, so the call composes with lazy
    /// [`CutManager::cuts_of`] use — per-node cut sets are identical
    /// either way, only the arena layout differs between lazy and bulk
    /// order.
    pub fn enumerate<N: Network>(&mut self, ntk: &N, threads: usize) {
        self.enumerate_levels(ntk, &DepthView::new(ntk), threads);
    }

    /// [`CutManager::enumerate`] over the levels `depth` of `ntk` that the
    /// caller has already built.
    pub(crate) fn enumerate_levels<N: Network>(
        &mut self,
        ntk: &N,
        depth: &DepthView,
        threads: usize,
    ) {
        // non-gate spans first: the constant node, then PIs in id order
        let mut prelude: Vec<NodeId> = vec![0];
        prelude.extend(ntk.pi_nodes());
        for node in prelude {
            if self.is_computed(node) {
                continue;
            }
            self.workspace.result.push(Cut::trivial(node));
            if self.params.compute_truth {
                self.workspace
                    .result_functions
                    .push(CutFunction::nth_var(1, 0));
            }
            self.commit(ntk, node);
        }
        let mut worker_spaces: Vec<CutWorkspace> = Vec::new();
        let mut bucket: Vec<NodeId> = Vec::new();
        for level in 1..depth.num_levels() {
            bucket.clear();
            bucket.extend(
                depth
                    .gates_at_level(level)
                    .iter()
                    .copied()
                    .filter(|&n| !self.is_computed(n)),
            );
            if bucket.is_empty() {
                continue;
            }
            if threads <= 1 || bucket.len() < PARALLEL_BUCKET_MIN {
                for &node in &bucket {
                    self.compute_cuts(ntk, node);
                    self.commit(ntk, node);
                }
                continue;
            }
            let bounds = chunk_bounds(bucket.len(), threads);
            if worker_spaces.len() < bounds.len() {
                worker_spaces.resize_with(bounds.len(), CutWorkspace::default);
            }
            let params = &self.params;
            let arena = &self.arena;
            let spans = &self.spans;
            let bucket_ref = &bucket;
            let outputs: Vec<BucketResults> = std::thread::scope(|scope| {
                let handles: Vec<_> = bounds
                    .iter()
                    .zip(worker_spaces.iter_mut())
                    .map(|(&(start, end), workspace)| {
                        scope.spawn(move || {
                            let mut out = BucketResults::default();
                            for &node in &bucket_ref[start..end] {
                                workspace.compute_node(ntk, node, params, arena, &|fanin| {
                                    let span = spans[fanin as usize];
                                    debug_assert_eq!(span.state, SpanState::Computed);
                                    span.start as usize..span.start as usize + span.len as usize
                                });
                                out.lens.push(workspace.result.len() as u16);
                                out.cuts.append(&mut workspace.result);
                                out.functions.append(&mut workspace.result_functions);
                            }
                            out
                        })
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().unwrap()).collect()
            });
            // serial commit in bucket order restores the fixed layout
            let mut index = 0usize;
            for out in outputs {
                let mut offset = 0usize;
                for &len in &out.lens {
                    let node = bucket[index];
                    index += 1;
                    let end = offset + len as usize;
                    self.workspace
                        .result
                        .extend_from_slice(&out.cuts[offset..end]);
                    if self.params.compute_truth {
                        self.workspace
                            .result_functions
                            .extend_from_slice(&out.functions[offset..end]);
                    }
                    self.commit(ntk, node);
                    offset = end;
                }
            }
            debug_assert_eq!(index, bucket.len());
        }
    }
}

/// Splits `len` items into per-thread chunk bounds: at most `threads`
/// half-open ranges covering `0..len`, balanced to within one item.  Empty
/// ranges are omitted, so the result may have fewer entries than threads.
fn chunk_bounds(len: usize, threads: usize) -> Vec<(usize, usize)> {
    let workers = threads.clamp(1, len.max(1));
    let (base, extra) = (len / workers, len % workers);
    let start = |worker: usize| worker * base + worker.min(extra);
    (0..workers)
        .map(|worker| (start(worker), start(worker + 1)))
        .filter(|&(start, end)| end > start)
        .collect()
}

/// Inserts `cut` into the non-trivial tail of `set` (entries `1..`) unless
/// it is dominated; removes cuts it dominates; enforces the size limit
/// (keeping smaller cuts first).
fn add_cut_pruned(set: &mut Vec<Cut>, cut: Cut, limit: usize) {
    if set[1..].iter().any(|c| c.dominates(&cut)) {
        return;
    }
    let mut write = 1;
    for read in 1..set.len() {
        if !cut.dominates(&set[read]) {
            set[write] = set[read];
            write += 1;
        }
    }
    set.truncate(write);
    set.push(cut);
    if set.len() - 1 > limit {
        set[1..].sort_by_key(Cut::size);
        set.truncate(limit + 1);
    }
}

/// Simulates cut cones through the network interface, keeping the window
/// in reusable flat buffers addressed through the scratch-slot
/// [`Traversal`] engine: a node list and one word arena that holds every
/// window table at the fixed stride of `word_count(num_leaves)` words, in
/// [`TruthTable`]'s word layout with the excess bits zero.
///
/// AND, XOR, MAJ and XOR3 gates are evaluated word by word straight into
/// the arena, each complemented fanin read through an XOR mask, so a
/// window costs no table allocation in the steady state.  LUT gates go
/// through the generic [`glsx_network::bitops::evaluate_gate`] fallback.
///
/// The traversal stamps are only used while the window is being *built*
/// (membership tests); reading the finished window via [`Self::nodes`] /
/// [`Self::words_at`] stays valid even after other traversals have
/// recycled the scratch slots.
#[derive(Debug, Default)]
pub struct ConeSimulator {
    trav: Option<Traversal>,
    nodes: Vec<NodeId>,
    /// Entry `i` of the window is `words[i * stride..(i + 1) * stride]`.
    words: Vec<u64>,
    stride: usize,
    num_leaves: usize,
    stack: Vec<NodeId>,
}

impl ConeSimulator {
    /// Creates a simulator with empty buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Starts a fresh window over `leaves` and simulates the cone of
    /// `root`, returning the words of `root`'s truth table over the leaves
    /// (variable `i` is `leaves[i]`).
    ///
    /// # Panics
    ///
    /// Panics if the cone of `root` reaches a primary input that is not
    /// among the leaves, or if there are more than 16 leaves.  The constant
    /// node is always in the window, so a cone may reach it.
    pub fn simulate<N: Network>(&mut self, ntk: &N, root: NodeId, leaves: &[NodeId]) -> &[u64] {
        self.begin(ntk, leaves);
        self.extend_to(ntk, root);
        let index = self.index_of(ntk, root).expect("root was just simulated");
        self.words_at(index)
    }

    /// Resets the window: the constant node maps to the all-zero table and
    /// each leaf to its projection variable.  A leaf already in the window
    /// (the constant node, or a repeated leaf) has its table overwritten.
    fn begin<N: Network>(&mut self, ntk: &N, leaves: &[NodeId]) {
        let num_leaves = leaves.len();
        assert!(
            num_leaves <= 16,
            "cut simulation supports at most 16 leaves"
        );
        let trav = Traversal::new(ntk);
        self.nodes.clear();
        self.words.clear();
        self.num_leaves = num_leaves;
        self.stride = word_count(num_leaves);
        let stride = self.stride;
        trav.set_value(ntk, 0, 0);
        self.nodes.push(0);
        self.words.resize(stride, 0);
        for (var, &leaf) in leaves.iter().enumerate() {
            let index = match trav.value(ntk, leaf) {
                Some(index) => index as usize,
                None => {
                    trav.set_value(ntk, leaf, self.nodes.len() as u32);
                    self.nodes.push(leaf);
                    self.words.resize(self.words.len() + stride, 0);
                    self.nodes.len() - 1
                }
            };
            let entry = &mut self.words[index * stride..(index + 1) * stride];
            write_projection(entry, var);
            entry[0] &= word_mask(num_leaves);
        }
        self.trav = Some(trav);
    }

    /// Returns the window index of `node`, if present.
    ///
    /// Only valid while the window is being built (before any other
    /// traversal over the network begins).
    #[inline]
    pub fn index_of<N: Network>(&self, ntk: &N, node: NodeId) -> Option<usize> {
        self.trav
            .as_ref()
            .and_then(|t| t.value(ntk, node))
            .map(|v| v as usize)
    }

    /// Returns `true` if `node` is in the window (same validity caveat as
    /// [`Self::index_of`]).
    #[inline]
    pub fn contains<N: Network>(&self, ntk: &N, node: NodeId) -> bool {
        self.index_of(ntk, node).is_some()
    }

    /// The window nodes in insertion order (constant node first, then the
    /// leaves, then simulated cone/divisor nodes).
    #[inline]
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// The truth-table words of window entry `index` (parallel to
    /// [`Self::nodes`]): a table over [`Self::num_leaves`] variables.
    #[inline]
    pub fn words_at(&self, index: usize) -> &[u64] {
        &self.words[index * self.stride..(index + 1) * self.stride]
    }

    /// Number of leaves of the current window (the variables of its
    /// tables).
    #[inline]
    pub fn num_leaves(&self) -> usize {
        self.num_leaves
    }

    /// Number of window entries.
    #[inline]
    pub fn len(&self) -> usize {
        self.nodes.len()
    }

    /// Returns `true` if no window has been started.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.nodes.is_empty()
    }

    /// Evaluates `node` from the window tables of its fanins and appends
    /// the result.  All fanins must already be in the window.
    fn evaluate_into_window<N: Network>(&mut self, ntk: &N, node: NodeId) {
        let kind = ntk.gate_kind(node);
        let stride = self.stride;
        let mask = word_mask(self.num_leaves);
        let index = self.nodes.len();
        // a fanin as the start of its entry and its complement mask
        let fanin = |j: usize| {
            let f = ntk.fanin(node, j);
            let i = self
                .index_of(ntk, f.node())
                .expect("fanin is in the window");
            (i * stride, if f.is_complemented() { mask } else { 0 })
        };
        match kind {
            GateKind::And | GateKind::Xor | GateKind::Maj | GateKind::Xor3 => {
                let (a, pa) = fanin(0);
                let (b, pb) = fanin(1);
                // two-input kinds read the constant entry as an unused third
                let (c, pc) = if kind.arity() == Some(3) {
                    fanin(2)
                } else {
                    (0, 0)
                };
                self.words.resize((index + 1) * stride, 0);
                let (window, out) = self.words.split_at_mut(index * stride);
                let (a, b, c) = (
                    &window[a..a + stride],
                    &window[b..b + stride],
                    &window[c..c + stride],
                );
                for (w, o) in out.iter_mut().enumerate() {
                    let (x, y, z) = (a[w] ^ pa, b[w] ^ pb, c[w] ^ pc);
                    *o = match kind {
                        GateKind::And => x & y,
                        GateKind::Xor => x ^ y,
                        GateKind::Maj => (x & y) | (y & z) | (x & z),
                        _ => x ^ y ^ z,
                    };
                }
            }
            _ => {
                let fanins: Vec<TruthTable> = (0..ntk.fanin_size(node))
                    .map(|j| {
                        let (start, phase) = fanin(j);
                        let words = self.words[start..start + stride].iter();
                        TruthTable::from_words(self.num_leaves, words.map(|w| w ^ phase).collect())
                    })
                    .collect();
                let tt =
                    glsx_network::bitops::evaluate_gate(kind, || ntk.node_function(node), &fanins);
                self.words.extend_from_slice(tt.words());
            }
        }
        let trav = self.trav.as_ref().expect("window started");
        trav.set_value(ntk, node, index as u32);
        self.nodes.push(node);
    }

    /// Simulates every not-yet-simulated gate in the cone between the
    /// window and `root` (inclusive).
    fn extend_to<N: Network>(&mut self, ntk: &N, root: NodeId) {
        if self.contains(ntk, root) {
            return;
        }
        debug_assert!(self.stack.is_empty());
        self.stack.push(root);
        while let Some(&node) = self.stack.last() {
            if self.contains(ntk, node) {
                self.stack.pop();
                continue;
            }
            assert!(
                ntk.is_gate(node),
                "cut cone reached node {node} outside the cut (not a gate, not a leaf)"
            );
            let mut missing = false;
            ntk.foreach_fanin(node, |f| {
                if !self.contains(ntk, f.node()) {
                    self.stack.push(f.node());
                    missing = true;
                }
            });
            if missing {
                continue;
            }
            self.evaluate_into_window(ntk, node);
            self.stack.pop();
        }
    }

    /// Grows the window by one *side divisor*: evaluates `node` (all of
    /// whose fanins must already be in the window) and inserts it.  Used
    /// by resubstitution's window expansion.
    pub fn add_divisor<N: Network>(&mut self, ntk: &N, node: NodeId) {
        debug_assert!(!self.contains(ntk, node));
        self.evaluate_into_window(ntk, node);
    }
}

/// Computes the truth table of `root` expressed over the cut `leaves` by
/// exhaustive simulation of the cut cone (the paper's `computeTruthTable`).
///
/// Cold-path convenience that allocates a fresh [`ConeSimulator`] per
/// call: passes reuse a simulator (or read fused tables off the
/// [`CutManager`]) instead.
///
/// # Panics
///
/// Panics if the cone of `root` reaches a primary input that is not among
/// the leaves, or if there are more than 16 leaves.  The constant node is
/// always in the window, so a cone may reach it.
pub fn simulate_cut<N: Network>(ntk: &N, root: NodeId, leaves: &[NodeId]) -> TruthTable {
    let mut sim = ConeSimulator::new();
    TruthTable::from_words(leaves.len(), sim.simulate(ntk, root, leaves).to_vec())
}

/// Computes truth tables for every node in the cone between `leaves` and
/// `root` (inclusive), returned as an ordered map (deterministic iteration
/// by node id).
///
/// Cold-path convenience kept for inspection and tests; the optimisation
/// passes use [`ConeSimulator`] windows directly.
pub fn simulate_cut_cone<N: Network>(
    ntk: &N,
    root: NodeId,
    leaves: &[NodeId],
) -> BTreeMap<NodeId, TruthTable> {
    let mut sim = ConeSimulator::new();
    sim.simulate(ntk, root, leaves);
    let table = |i: usize| TruthTable::from_words(leaves.len(), sim.words_at(i).to_vec());
    sim.nodes
        .iter()
        .enumerate()
        .map(|(i, &node)| (node, table(i)))
        .collect()
}

/// Reusable reconvergence-driven cut computer: one leaf buffer shared
/// across calls, so a pass computing a cut per visited node allocates
/// nothing in the steady state (the scratch-slot pattern already used by
/// [`Replacer`](crate::replace::Replacer)).
///
/// Membership of the growing cut (`leaves ∪ expanded interior`) lives in
/// the scratch-slot [`Traversal`] engine, so every cost probe and
/// expansion test is O(1).  The traversal finishes before
/// [`ReconvergenceCut::compute`] returns and must not be interleaved with
/// another live-writing traversal (see [`glsx_network::traversal`]).
#[derive(Debug, Default)]
pub struct ReconvergenceCut {
    leaves: Vec<NodeId>,
}

impl ReconvergenceCut {
    /// Creates a computer with an empty buffer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Computes a reconvergence-driven cut of at most `max_leaves` leaves
    /// rooted at `root` (top-down expansion choosing the leaf whose
    /// expansion adds the fewest new leaves).
    ///
    /// The expansion cost of a leaf — how many of its fanins are outside
    /// the cut — is cached in the leaf's traversal *value*, so the cost
    /// probe reads each still-cached leaf in O(1) instead of re-walking
    /// its fanins on every iteration.  A cache entry is dropped exactly
    /// when it can go stale: membership only ever *grows*, so a leaf's
    /// cost changes only when one of its fanins enters the cut, at which
    /// point the fanin's marked fanouts have their caches cleared.
    ///
    /// Returns the sorted, duplicate-free leaves of the cut (primary
    /// inputs may appear as leaves); the slice stays valid until the next
    /// `compute` call on this computer.
    pub fn compute<N: Network>(&mut self, ntk: &N, root: NodeId, max_leaves: usize) -> &[NodeId] {
        let leaves = &mut self.leaves;
        leaves.clear();
        // one mark covers both the current leaves and the expanded
        // interior: a leaf keeps its mark when it moves to the interior,
        // and the tests below only ever ask for the union.  The mark's
        // 32-bit value holds the cached expansion cost plus one (0 = not
        // cached; `mark` initialises the value to 0).
        let in_cut = Traversal::new(ntk);
        in_cut.mark(ntk, root);
        // start from the fanins of the root
        ntk.foreach_fanin(root, |f| {
            if in_cut.mark(ntk, f.node()) {
                leaves.push(f.node());
            }
        });
        loop {
            // pick the best leaf to expand: a gate whose fanins add the
            // fewest new leaves (and at least keeps us within the limit)
            let mut best: Option<(usize, usize)> = None; // (cost, index)
            for (i, &leaf) in leaves.iter().enumerate() {
                if !ntk.is_gate(leaf) {
                    continue;
                }
                let cost = match in_cut.value(ntk, leaf) {
                    Some(cached) if cached > 0 => cached as usize - 1,
                    _ => {
                        let mut new_leaves = 0usize;
                        ntk.foreach_fanin(leaf, |f| {
                            if !in_cut.is_marked(ntk, f.node()) {
                                new_leaves += 1;
                            }
                        });
                        in_cut.set_value(ntk, leaf, new_leaves as u32 + 1);
                        new_leaves
                    }
                };
                if leaves.len() - 1 + cost > max_leaves {
                    continue;
                }
                if best.is_none_or(|(c, _)| cost < c) {
                    best = Some((cost, i));
                }
            }
            match best {
                None => break,
                Some((_, index)) => {
                    let leaf = leaves.swap_remove(index);
                    ntk.foreach_fanin(leaf, |f| {
                        if in_cut.mark(ntk, f.node()) {
                            leaves.push(f.node());
                            // this fanin just entered the cut: any marked
                            // fanout caching a cost that counted it as
                            // outside is stale now
                            ntk.foreach_fanout(f.node(), |parent| {
                                if in_cut.is_marked(ntk, parent) {
                                    in_cut.set_value(ntk, parent, 0);
                                }
                            });
                        }
                    });
                }
            }
            if leaves.len() >= max_leaves {
                break;
            }
        }
        leaves.sort_unstable();
        leaves.dedup();
        leaves
    }
}

/// Computes a reconvergence-driven cut of at most `max_leaves` leaves
/// rooted at `root`.
///
/// Cold-path convenience that allocates a fresh buffer per call; passes
/// reuse a [`ReconvergenceCut`] computer instead.
pub fn reconvergence_driven_cut<N: Network>(
    ntk: &N,
    root: NodeId,
    max_leaves: usize,
) -> Vec<NodeId> {
    let mut computer = ReconvergenceCut::new();
    computer.compute(ntk, root, max_leaves);
    computer.leaves
}

#[cfg(test)]
mod tests {
    use super::*;
    use glsx_network::{Aig, GateBuilder, Mig, Network};

    fn chain_aig() -> (Aig, Vec<glsx_network::Signal>) {
        let mut aig = Aig::new();
        let pis: Vec<_> = (0..4).map(|_| aig.create_pi()).collect();
        let g1 = aig.create_and(pis[0], pis[1]);
        let g2 = aig.create_and(pis[2], pis[3]);
        let g3 = aig.create_and(g1, g2);
        aig.create_po(g3);
        (aig, vec![g1, g2, g3])
    }

    /// A wide layered network (every level > `PARALLEL_BUCKET_MIN` nodes)
    /// so parallel enumeration actually exercises the scoped-thread path.
    fn wide_aig() -> Aig {
        let mut aig = Aig::new();
        let pis: Vec<_> = (0..80).map(|_| aig.create_pi()).collect();
        let mut layer = pis.clone();
        for round in 0..3 {
            let mut next = Vec::new();
            for i in 0..layer.len() {
                let a = layer[i];
                let b = layer[(i + 1 + round) % layer.len()];
                next.push(if i % 3 == 0 {
                    aig.create_and(a, !b)
                } else {
                    aig.create_or(a, b)
                });
            }
            layer = next;
        }
        for &s in &layer {
            aig.create_po(s);
        }
        aig
    }

    #[test]
    fn bulk_enumeration_is_bit_identical_at_every_thread_count() {
        let aig = wide_aig();
        let params = CutParams {
            cut_size: 4,
            cut_limit: 8,
            compute_truth: true,
        };
        let mut reference = CutManager::new(params);
        reference.enumerate(&aig, 1);
        for threads in [2, 4] {
            let mut manager = CutManager::new(params);
            manager.enumerate(&aig, threads);
            assert_eq!(
                manager.arena_len(),
                reference.arena_len(),
                "{threads} threads"
            );
            assert_eq!(manager.counters(), reference.counters());
            for node in 0..aig.size() as NodeId {
                if !aig.is_gate(node) {
                    continue;
                }
                let expect: Vec<Cut> = reference.cuts_of(&aig, node).to_vec();
                let got: Vec<Cut> = manager.cuts_of(&aig, node).to_vec();
                assert_eq!(got, expect, "cut set of node {node} ({threads} threads)");
                for index in 0..expect.len() {
                    assert_eq!(
                        manager.cut_function(node, index),
                        reference.cut_function(node, index),
                        "function of cut {index} of node {node}"
                    );
                }
            }
        }
    }

    /// Bulk enumeration answers every per-node query identically to the
    /// lazy path (the arena layout may differ, the cut sets may not).
    #[test]
    fn bulk_enumeration_matches_lazy_per_node_sets() {
        let aig = wide_aig();
        let params = CutParams {
            cut_size: 4,
            cut_limit: 8,
            compute_truth: false,
        };
        let mut lazy = CutManager::new(params);
        let mut bulk = CutManager::new(params);
        bulk.enumerate(&aig, 3);
        for node in aig.gate_nodes() {
            assert_eq!(
                bulk.cuts_of(&aig, node).to_vec(),
                lazy.cuts_of(&aig, node).to_vec(),
                "node {node}"
            );
        }
    }

    #[test]
    fn chunk_bounds_cover_the_range_without_overlap() {
        for threads in 0..=8 {
            for len in 0..40 {
                let bounds = chunk_bounds(len, threads);
                assert!(bounds.len() <= threads.max(1));
                let mut expected_start = 0;
                for &(start, end) in &bounds {
                    assert_eq!(start, expected_start);
                    assert!(end > start, "no empty chunks");
                    expected_start = end;
                }
                assert_eq!(expected_start, len, "threads={threads} len={len}");
            }
        }
    }

    #[test]
    fn chunk_bounds_are_balanced() {
        let sizes: Vec<usize> = chunk_bounds(10, 4).iter().map(|&(s, e)| e - s).collect();
        assert_eq!(sizes, vec![3, 3, 2, 2]);
    }

    #[test]
    fn cut_merge_and_domination() {
        let a = Cut::from_leaves(&[1, 2]);
        let b = Cut::from_leaves(&[2, 3]);
        let merged = a.merge(&b, 4).unwrap();
        assert_eq!(merged.leaves(), &[1, 2, 3]);
        assert!(a.merge(&b, 2).is_none());
        let small = Cut::from_leaves(&[2]);
        assert!(small.dominates(&a));
        assert!(!a.dominates(&small));
        assert!(a.dominates(&a));
    }

    #[test]
    fn construction_sorts_and_dedups() {
        let cut = Cut::from_leaves(&[9, 3, 9, 1, 3]);
        assert_eq!(cut.leaves(), &[1, 3, 9]);
        assert_eq!(cut.size(), 3);
        assert_eq!(cut, Cut::from_leaves(&[1, 3, 9]));
    }

    /// Leaves `1` and `65` collide in the 64-bit signature (both set bit
    /// 1), so the signature pre-checks alone would wrongly report the cuts
    /// as subset-related; the exact leaf comparison must reject them.
    #[test]
    fn signature_false_positives_are_rejected() {
        let a = Cut::from_leaves(&[1]);
        let b = Cut::from_leaves(&[65]);
        assert_eq!(a.signature(), b.signature(), "chosen leaves must collide");
        assert!(!a.dominates(&b), "signature collision is not domination");
        assert!(!b.dominates(&a));
        // merging collision partners keeps both distinct leaves
        let merged = a.merge(&b, 4).unwrap();
        assert_eq!(merged.leaves(), &[1, 65]);
        // a colliding superset is still correctly dominated
        let sup = Cut::from_leaves(&[1, 65, 70]);
        assert!(a.dominates(&sup));
        assert!(b.dominates(&sup));
        assert!(!sup.dominates(&a));
        // and signature-equal but disjoint sets never merge into less
        // than their true union, even at the size limit
        assert!(a.merge(&b, 1).is_none());
    }

    #[test]
    fn cut_enumeration_finds_structural_cuts() {
        let (aig, gs) = chain_aig();
        let mut mgr = CutManager::new(CutParams {
            cut_size: 4,
            cut_limit: 8,
            compute_truth: false,
        });
        let cuts = mgr.cuts_of(&aig, gs[2].node()).to_vec();
        // trivial cut first
        assert_eq!(cuts[0].leaves(), &[gs[2].node()]);
        // the 4-input cut over the PIs must be found
        let pis: Vec<NodeId> = aig.pi_nodes();
        assert!(cuts.iter().any(|c| c.leaves() == pis.as_slice()));
        // the cut {g1, g2} must be found
        assert!(cuts
            .iter()
            .any(|c| c.leaves() == [gs[0].node(), gs[1].node()]));
    }

    #[test]
    fn cut_enumeration_is_deterministic() {
        let (aig, gs) = chain_aig();
        let enumerate = || {
            let mut mgr = CutManager::new(CutParams::default());
            let mut all: Vec<Vec<NodeId>> = Vec::new();
            for node in aig.gate_nodes() {
                for cut in mgr.cuts_of(&aig, node) {
                    all.push(cut.leaves().to_vec());
                }
            }
            all
        };
        assert_eq!(enumerate(), enumerate());
        let mut mgr = CutManager::new(CutParams::default());
        let first = mgr.cuts_of(&aig, gs[2].node()).to_vec();
        mgr.invalidate(gs[2].node());
        let second = mgr.cuts_of(&aig, gs[2].node()).to_vec();
        assert_eq!(first, second);
    }

    #[test]
    fn cut_simulation_matches_function() {
        let (aig, gs) = chain_aig();
        let pis = aig.pi_nodes();
        let tt = simulate_cut(&aig, gs[2].node(), &pis);
        assert_eq!(tt.count_ones(), 1);
        assert!(tt.bit(0b1111));
        // over the intermediate cut the function is a simple AND
        let tt2 = simulate_cut(&aig, gs[2].node(), &[gs[0].node(), gs[1].node()]);
        assert_eq!(tt2.to_hex(), "8");
    }

    #[test]
    fn cut_simulation_handles_complements() {
        let mut aig = Aig::new();
        let a = aig.create_pi();
        let b = aig.create_pi();
        let g = aig.create_and(!a, b);
        aig.create_po(g);
        let tt = simulate_cut(&aig, g.node(), &[a.node(), b.node()]);
        assert_eq!(tt.to_hex(), "4");
    }

    #[test]
    fn simulate_cut_cone_window_is_ordered() {
        let (aig, gs) = chain_aig();
        let pis = aig.pi_nodes();
        let window = simulate_cut_cone(&aig, gs[2].node(), &pis);
        let keys: Vec<NodeId> = window.keys().copied().collect();
        let mut sorted = keys.clone();
        sorted.sort_unstable();
        assert_eq!(keys, sorted);
        assert!(window.contains_key(&gs[2].node()));
    }

    /// The heart of the fusion: for every enumerated cut the merged-in
    /// truth table is bit-identical to cone simulation over the same
    /// leaves.
    #[test]
    fn fused_cut_functions_match_cone_simulation() {
        let (aig, _) = chain_aig();
        let mut mgr = CutManager::new(CutParams {
            cut_size: 4,
            cut_limit: 8,
            compute_truth: true,
        });
        for node in aig.gate_nodes() {
            let cuts = mgr.cuts_of(&aig, node).to_vec();
            for (i, cut) in cuts.iter().enumerate() {
                let fused = mgr.cut_function(node, i).to_truth_table();
                let simulated = simulate_cut(&aig, node, cut.leaves());
                assert_eq!(fused, simulated, "node {node}, cut {i}");
            }
        }
    }

    /// MIG gates carry the constant node as a fanin (`and(a,b)` is
    /// `maj(a,b,0)`), so cuts with constant leaves must fuse correctly.
    #[test]
    fn fused_functions_handle_constant_leaves() {
        let mut mig = Mig::new();
        let a = mig.create_pi();
        let b = mig.create_pi();
        let c = mig.create_pi();
        let ab = mig.create_and(a, b);
        let f = mig.create_or(ab, c);
        mig.create_po(f);
        let mut mgr = CutManager::new(CutParams {
            cut_size: 4,
            cut_limit: 8,
            compute_truth: true,
        });
        for node in mig.gate_nodes() {
            let cuts = mgr.cuts_of(&mig, node).to_vec();
            for (i, cut) in cuts.iter().enumerate() {
                let fused = mgr.cut_function(node, i).to_truth_table();
                let simulated = simulate_cut(&mig, node, cut.leaves());
                assert_eq!(fused, simulated, "node {node}, cut {i}");
            }
        }
    }

    #[test]
    fn cut_function_arithmetic_matches_truth_tables() {
        let and2 = CutFunction::nth_var(2, 0).binary(&CutFunction::nth_var(2, 1), |a, b| a & b);
        assert_eq!(
            and2.to_truth_table(),
            TruthTable::nth_var(2, 0) & TruthTable::nth_var(2, 1)
        );
        let not_x7 = CutFunction::nth_var(8, 7).complement();
        assert_eq!(not_x7.to_truth_table(), !TruthTable::nth_var(8, 7));
        assert_eq!(CutFunction::zero(3).to_truth_table(), TruthTable::zero(3));
    }

    #[test]
    fn reconvergent_cut_stays_within_limit() {
        let (aig, gs) = chain_aig();
        let cut = reconvergence_driven_cut(&aig, gs[2].node(), 4);
        assert!(cut.len() <= 4);
        // with limit 4 the cut should reach the primary inputs
        assert_eq!(cut, aig.pi_nodes());
        let cut2 = reconvergence_driven_cut(&aig, gs[2].node(), 2);
        assert!(cut2.len() <= 2);
    }

    #[test]
    fn cuts_are_recomputed_for_new_nodes() {
        let (mut aig, gs) = chain_aig();
        let mut mgr = CutManager::new(CutParams::default());
        let _ = mgr.cuts_of(&aig, gs[2].node());
        // add a new node after the manager was created
        let pis = aig.pi_nodes();
        let extra = aig.create_and(
            glsx_network::Signal::new(pis[0], false),
            glsx_network::Signal::new(pis[2], false),
        );
        let cuts = mgr.cuts_of(&aig, extra.node()).to_vec();
        assert!(cuts.iter().any(|c| c.leaves() == [pis[0], pis[2]]));
    }

    /// Substitution kills a whole MFFC but callers only invalidate the
    /// root: compaction must also reclaim the spans of nodes that have
    /// died since their cuts were memoised, or they leak forever.
    #[test]
    fn compaction_reclaims_spans_of_dead_nodes() {
        let mut aig = Aig::new();
        let a = aig.create_pi();
        let b = aig.create_pi();
        // a disposable two-gate cone next to one durable gate
        let keep = aig.create_and(a, b);
        aig.create_po(keep);
        let g1 = aig.create_and(a, !b);
        let g2 = aig.create_and(g1, b);
        let po = aig.create_po(g2);
        let mut mgr = CutManager::new(CutParams {
            cut_size: 4,
            cut_limit: 8,
            compute_truth: true,
        });
        let _ = mgr.cuts_of(&aig, g2.node());
        // kill the cone (the PO moves to constant): g1 and g2 die, but only
        // g2 — the substitution root — is invalidated, mirroring rewriting
        let _ = po;
        aig.substitute_node(g2.node(), aig.get_constant(false));
        assert!(aig.is_dead(g1.node()) && aig.is_dead(g2.node()));
        mgr.invalidate(g2.node());
        // churn the durable gate until compaction fires; afterwards the
        // arena must hold only the live span (g1's dead span reclaimed)
        for _ in 0..COMPACT_MIN_ARENA {
            mgr.invalidate(keep.node());
            let _ = mgr.cuts_of(&aig, keep.node());
        }
        let live: usize = aig
            .node_ids()
            .iter()
            .map(|&n| mgr.cuts_of(&aig, n).len())
            .sum();
        assert!(
            mgr.arena_len() <= COMPACT_MIN_ARENA + live,
            "dead-node spans leaked ({} slots, {live} live)",
            mgr.arena_len()
        );
        // and the dead node's span is gone for good after a recompute ask
        let trivial = mgr.cuts_of(&aig, g1.node()).to_vec();
        assert_eq!(trivial.len(), 1, "dead node re-enumerates as trivial");
    }

    /// Invalidation-heavy usage triggers in-place compaction; cut sets,
    /// functions and enumeration order must be unchanged.
    #[test]
    fn arena_compaction_preserves_cuts_and_functions() {
        let mut aig = Aig::new();
        let pis: Vec<_> = (0..8).map(|_| aig.create_pi()).collect();
        let mut layer: Vec<_> = pis.clone();
        while layer.len() > 1 {
            let mut next = Vec::new();
            for pair in layer.chunks(2) {
                if pair.len() == 2 {
                    next.push(aig.create_and(pair[0], pair[1]));
                } else {
                    next.push(pair[0]);
                }
            }
            layer = next;
        }
        aig.create_po(layer[0]);

        let mut mgr = CutManager::new(CutParams {
            cut_size: 4,
            cut_limit: 8,
            compute_truth: true,
        });
        let gates = aig.gate_nodes();
        let snapshot: Vec<(NodeId, Vec<Cut>, Vec<CutFunction>)> = gates
            .iter()
            .map(|&n| {
                let cuts = mgr.cuts_of(&aig, n).to_vec();
                let tts = (0..cuts.len()).map(|i| *mgr.cut_function(n, i)).collect();
                (n, cuts, tts)
            })
            .collect();
        // churn: invalidate and recompute everything many times so the
        // arena accumulates far more dead than live spans
        for _ in 0..2000 {
            for &n in &gates {
                mgr.invalidate(n);
            }
            for &n in &gates {
                let _ = mgr.cuts_of(&aig, n);
            }
        }
        // without compaction the arena would hold one span per
        // (iteration × node) — tens of thousands of slots; with compaction
        // it stays bounded by the trigger threshold
        let live: usize = snapshot.iter().map(|(_, c, _)| c.len()).sum();
        assert!(
            mgr.arena_len() <= COMPACT_MIN_ARENA + live,
            "arena must be compacted instead of bump-leaking ({} slots, {live} live)",
            mgr.arena_len()
        );
        for (n, cuts, tts) in &snapshot {
            assert_eq!(mgr.cuts_of(&aig, *n), cuts.as_slice(), "node {n}");
            for (i, tt) in tts.iter().enumerate() {
                assert_eq!(mgr.cut_function(*n, i), tt, "node {n}, cut {i}");
            }
        }
    }

    /// Snapshot of every live node's cut sets and functions, used to
    /// compare an incrementally refreshed manager with a from-scratch one.
    fn full_snapshot<N: Network>(
        ntk: &N,
        mgr: &mut CutManager,
    ) -> Vec<(NodeId, Vec<Cut>, Vec<CutFunction>)> {
        ntk.node_ids()
            .iter()
            .map(|&n| {
                let cuts = mgr.cuts_of(ntk, n).to_vec();
                let tts = (0..cuts.len()).map(|i| *mgr.cut_function(n, i)).collect();
                (n, cuts, tts)
            })
            .collect()
    }

    /// The incremental-refresh contract: after a substitution, refreshing
    /// from the recorded change log makes the manager bit-identical to a
    /// from-scratch manager — same cut sets, same order, same functions —
    /// while re-enumerating only the invalidated region.
    #[test]
    fn refresh_from_matches_from_scratch_after_substitution() {
        use glsx_network::ChangeLog;
        let mut aig = Aig::new();
        let a = aig.create_pi();
        let b = aig.create_pi();
        let c = aig.create_pi();
        let ab = aig.create_and(a, b);
        let ac = aig.create_and(a, c);
        let top = aig.create_and(ab, ac);
        let side = aig.create_and(b, c); // untouched by the substitution
        aig.create_po(top);
        aig.create_po(side);
        let params = CutParams {
            cut_size: 4,
            cut_limit: 8,
            compute_truth: true,
        };
        let mut mgr = CutManager::new(params);
        let _ = full_snapshot(&aig, &mut mgr);
        let enumerated_before = mgr.counters().enumerated_nodes;

        aig.set_change_tracking(true);
        aig.substitute_node(ab.node(), a);
        let mut log = ChangeLog::new();
        aig.drain_changes(&mut log);
        mgr.refresh_from(&aig, &log);
        aig.set_change_tracking(false);

        let refreshed = full_snapshot(&aig, &mut mgr);
        let mut fresh = CutManager::new(params);
        let scratch_built = full_snapshot(&aig, &mut fresh);
        assert_eq!(refreshed, scratch_built);
        // only the invalidated region was re-enumerated, not everything
        let reenumerated = mgr.counters().enumerated_nodes - enumerated_before;
        assert!(
            reenumerated < enumerated_before,
            "incremental refresh re-enumerated {reenumerated} of {enumerated_before} nodes"
        );
        assert!(mgr.counters().refreshes == 1 && mgr.counters().invalidated_nodes > 0);
        // the walk pops `top`, the one rewired node; outputs are its only
        // fanouts
        assert_eq!(mgr.counters().refresh_walked, 1);
        // every post-refresh enumeration was a re-enumeration of an
        // invalidated span (the untouched side cone kept its memoised one)
        assert_eq!(mgr.counters().reenumerated_nodes, reenumerated);
    }

    /// `invalidate_all`, the from-scratch reference of the rewriting
    /// tests, leaves the manager answering like a fresh one.
    #[test]
    fn invalidate_all_equals_fresh_manager() {
        let (aig, _) = chain_aig();
        let params = CutParams {
            cut_size: 4,
            cut_limit: 8,
            compute_truth: true,
        };
        let mut mgr = CutManager::new(params);
        let first = full_snapshot(&aig, &mut mgr);
        mgr.invalidate_all();
        let second = full_snapshot(&aig, &mut mgr);
        assert_eq!(first, second);
        assert_eq!(
            mgr.counters().reenumerated_nodes,
            mgr.counters().invalidated_nodes
        );
    }

    /// Naive reference of the reconvergence-driven expansion (the pre-cache
    /// implementation): recompute every leaf's cost by a fanin walk on
    /// every probe.  The cached computer must match it bit for bit.
    fn reconvergence_cut_naive<N: Network>(
        ntk: &N,
        root: NodeId,
        max_leaves: usize,
    ) -> Vec<NodeId> {
        let mut leaves: Vec<NodeId> = Vec::new();
        let in_cut = glsx_network::Traversal::new(ntk);
        in_cut.mark(ntk, root);
        ntk.foreach_fanin(root, |f| {
            if in_cut.mark(ntk, f.node()) {
                leaves.push(f.node());
            }
        });
        loop {
            let mut best: Option<(usize, usize)> = None;
            for (i, &leaf) in leaves.iter().enumerate() {
                if !ntk.is_gate(leaf) {
                    continue;
                }
                let mut cost = 0usize;
                ntk.foreach_fanin(leaf, |f| {
                    if !in_cut.is_marked(ntk, f.node()) {
                        cost += 1;
                    }
                });
                if leaves.len() - 1 + cost > max_leaves {
                    continue;
                }
                if best.is_none_or(|(c, _)| cost < c) {
                    best = Some((cost, i));
                }
            }
            match best {
                None => break,
                Some((_, index)) => {
                    let leaf = leaves.swap_remove(index);
                    ntk.foreach_fanin(leaf, |f| {
                        if in_cut.mark(ntk, f.node()) {
                            leaves.push(f.node());
                        }
                    });
                }
            }
            if leaves.len() >= max_leaves {
                break;
            }
        }
        leaves.sort_unstable();
        leaves.dedup();
        leaves
    }

    /// The per-leaf cost cache is invisible: on heavily reconvergent
    /// random networks the cached computer reproduces the naive
    /// recompute-every-probe expansion exactly, for every root and limit.
    #[test]
    fn reconvergence_cost_cache_matches_naive_expansion() {
        let mut state = 0x00c0_ffee_u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as usize
        };
        for _ in 0..5 {
            let mut aig = Aig::new();
            let mut signals: Vec<glsx_network::Signal> = (0..6).map(|_| aig.create_pi()).collect();
            for _ in 0..60 {
                let a = signals[next() % signals.len()].complement_if(next() % 2 == 0);
                let b = signals[next() % signals.len()].complement_if(next() % 2 == 0);
                signals.push(aig.create_and(a, b));
            }
            for s in signals.iter().rev().take(3) {
                aig.create_po(*s);
            }
            let mut computer = ReconvergenceCut::new();
            for root in aig.gate_nodes() {
                for limit in [3usize, 5, 8, 12] {
                    let naive = reconvergence_cut_naive(&aig, root, limit);
                    assert_eq!(
                        computer.compute(&aig, root, limit),
                        naive.as_slice(),
                        "root {root}, limit {limit}"
                    );
                }
            }
        }
    }

    /// Choice tails: a ring member's cuts surface on the representative,
    /// polarity-corrected and re-rooted, without touching the structural
    /// set.
    #[test]
    fn choice_tails_surface_member_cuts_on_the_representative() {
        use glsx_network::GateBuilder;
        // a genuinely redundant pair, ringed by the choices-recording sweep
        let mut aig = Aig::new();
        let a = aig.create_pi();
        let b = aig.create_pi();
        let s = aig.create_pi();
        let x = aig.create_and(a, b);
        let t1 = aig.create_and(x, s);
        let t2 = aig.create_and(x, !s);
        let dup = aig.create_or(t1, t2); // ≡ x, structurally distinct
        aig.create_po(x);
        aig.create_po(dup);
        let stats = crate::sweeping::sweep(
            &mut aig,
            &crate::sweeping::SweepParams {
                record_choices: true,
                ..crate::sweeping::SweepParams::default()
            },
        );
        assert!(stats.choices_recorded >= 1, "{stats:?}");
        assert_eq!(aig.choice_repr(dup.node()), x.node());

        let mut mgr = CutManager::new(CutParams {
            cut_size: 4,
            cut_limit: 8,
            compute_truth: true,
        });
        let structural = mgr.cuts_of(&aig, x.node()).to_vec();
        let tail = mgr.choice_cuts_of(&aig, x.node()).to_vec();
        assert!(!tail.is_empty(), "member cuts must surface");
        assert!(mgr.counters().choice_cuts >= tail.len() as u64);
        // the structural set is untouched by the tail build
        assert_eq!(mgr.cuts_of(&aig, x.node()), structural.as_slice());
        for (i, cut) in tail.iter().enumerate() {
            // no tail cut may repeat a structural cut or use the
            // representative / a ring member as a leaf
            assert!(!structural.contains(cut), "duplicate {cut:?}");
            for &leaf in cut.leaves() {
                assert_ne!(leaf, x.node());
                assert_eq!(aig.choice_repr(leaf), leaf);
            }
            // the root is a ring member realising the representative:
            // simulating the member cone over the cut's leaves (and fixing
            // the polarity) must equal the fused, polarity-corrected table
            let (root, phase) = mgr.choice_cut_root(x.node(), i);
            assert_eq!(aig.choice_repr(root), x.node());
            let mut simulated = simulate_cut(&aig, root, cut.leaves());
            if phase {
                simulated = !simulated;
            }
            let fused = mgr.choice_cut_function(x.node(), i).to_truth_table();
            assert_eq!(fused, simulated, "tail cut {i}");
        }
        // non-representatives and choice-free nodes have empty tails
        assert!(mgr.choice_cuts_of(&aig, dup.node()).is_empty());
        let plain = Aig::new();
        let mut plain_mgr = CutManager::new(CutParams::default());
        assert!(plain_mgr.choice_cuts_of(&plain, 0).is_empty());
    }

    /// The reusable computer returns the same cuts as the cold-path
    /// wrapper and reuses its buffer across calls.
    #[test]
    fn reconvergence_cut_computer_matches_wrapper() {
        let (aig, gs) = chain_aig();
        let mut computer = ReconvergenceCut::new();
        for &g in &gs {
            for limit in [2usize, 4, 6] {
                assert_eq!(
                    computer.compute(&aig, g.node(), limit),
                    reconvergence_driven_cut(&aig, g.node(), limit).as_slice()
                );
            }
        }
    }
}
