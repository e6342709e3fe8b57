//! SAT sweeping (fraiging): proving and merging functionally equivalent
//! nodes, plus the sweeping combinational equivalence checker.
//!
//! The subsystem follows the classic fraig recipe, expressed entirely
//! through the network interface API so one implementation serves AIGs,
//! XAGs, MIGs, XMGs and k-LUT networks:
//!
//! 1. **Simulate** the whole network on a set of random 64-bit pattern
//!    words ([`glsx_network::wordsim::WordSimulator`]) and partition the
//!    nodes into candidate equivalence classes by their simulation
//!    signatures.  Signatures are polarity-normalised, so a node and the
//!    complement of another share a class and antivalent pairs are merged
//!    with a complemented edge.  The constant node participates, so nodes
//!    that simulate to a constant are proven against it.
//! 2. **Prove** every candidate class against the frozen network.  Each
//!    member is proven against the class representative by a miter under a
//!    per-pair conflict budget, first on a *window*: the 16 gates of the
//!    two cones nearest their roots, expanded in decreasing topological
//!    rank, with every node left on the window's frontier a free variable
//!    (Mishchenko et al., ICCAD 2006: most proven pairs are local).  Free
//!    leaves over-approximate what the real cones can feed the window, so
//!    `UNSAT` on the window is a proof of equivalence.  Only when the
//!    window is satisfiable (possibly spuriously) or undecided does the
//!    pair fall back to the full miter: the class's CDCL solver over a
//!    lazily built Tseitin encoding of both cones down to the primary
//!    inputs.  There `UNSAT` is a proof, `SAT` yields a real
//!    counterexample, and a budget timeout skips the pair, so sweeping
//!    degrades gracefully on hard instances instead of stalling.  Classes
//!    are proven one after another, each on a fresh solver.
//! 3. **Apply** the outcomes serially, in class order: every proven
//!    candidate is merged into its representative through the
//!    [`Replacer`](crate::Replacer) machinery.
//! 4. **Refine**: counterexamples are packed into fresh simulation pattern
//!    words and the network is re-simulated, splitting every class the new
//!    patterns distinguish.  The loop repeats until no counterexamples
//!    remain (or [`SweepParams::max_rounds`] is reached).  Class
//!    maintenance is *incremental*: new words can only split classes, so
//!    only the members of surviving multi-member classes are re-hashed,
//!    and only on the words appended that round — yielding exactly the
//!    classes, in exactly the order, of a full re-sort of every live node.
//!    Debug builds check that contract every round against the full
//!    re-sort that builds round one's classes.
//!
//! Merges happen only on `UNSAT` answers — there are no simulation-only
//! merges, so a sweep is an equivalence-preserving transformation by
//! construction.
//!
//! The same simulation and CNF machinery powers [`check_equivalence`],
//! the public equivalence checker the guarded executor, the test suite
//! and the bench smoke modes use to prove whole optimisation passes.  It
//! sweeps *across* two networks instead of inside one (Kuehlmann et al.,
//! TCAD 2002; Mishchenko et al., ICCAD 2006): both are simulated on shared
//! input words, a differing output is refuted at once, the gates of the
//! second network are mapped onto the first bottom-up — structurally when
//! the same gate over already-mapped fanins exists, by an `UNSAT` answer
//! against a simulation candidate otherwise, first on a 16-gate window
//! and only then on the check's shared solver.  An output mapped onto a
//! different signal than the first network's output is tried on the pair
//! window the sweep uses, and one SAT miter compares only the outputs
//! left.  A network checked against a copy of itself needs no SAT call at
//! all; see [`check_equivalence_with_limits`] for the details.
//!
//! A sweep keeps one window prover and one cone encoder; a check keeps
//! one of each too.  Each holds its node → variable maps in
//! [`LocalScratch`]es, reset in O(1) for every window and for every class
//! that opens its fallback solver, so no table is sized to the network
//! per pair, per window or per class.  A class's full-cone CNF is built
//! only on fallback, lazily: one variable per encoded node, cones encoded
//! on demand.  Windows are never encoded into a check's shared solver:
//! only the gates no window proved are.

use crate::replace::Replacer;
use glsx_network::telemetry::{self, BatchSpans, MetricsSource, Tracer, BATCH_INTERVAL};
use glsx_network::wordsim::WordSimulator;
use glsx_network::{Budget, GateKind, LocalScratch, Network, NodeId, Signal, StepOutcome};
use glsx_sat::{Lit, SatResult, Solver, SolverStats, Var};
use std::collections::{BinaryHeap, HashMap, HashSet};

/// Parameters of SAT sweeping.
#[derive(Clone, Copy, Debug)]
pub struct SweepParams {
    /// Number of initial random 64-bit simulation pattern words (64
    /// patterns each) used to form candidate classes.
    pub num_words: usize,
    /// Seed of the random simulation patterns.
    pub seed: u64,
    /// Conflict budget per candidate pair; a pair whose miter exceeds it
    /// is skipped (left unmerged) instead of stalling the sweep.
    pub conflict_limit: u64,
    /// Maximum number of counterexample-refinement rounds.
    pub max_rounds: usize,
    /// Keep every proven-equivalent cone as a structural *choice* of its
    /// class representative instead of deleting it: fanouts are still
    /// rewired onto the representative, but the losing cone stays alive in
    /// the representative's choice ring (see [`glsx_network::choices`]),
    /// available to choice-aware cut enumeration and LUT mapping.  The
    /// default `false` is the classic destructive fraig.
    pub record_choices: bool,
}

impl Default for SweepParams {
    fn default() -> Self {
        Self {
            num_words: 4,
            seed: 0x5eed_ba5e_u64,
            conflict_limit: 1_000,
            max_rounds: 8,
            record_choices: false,
        }
    }
}

/// Statistics of a sweep.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SweepStats {
    /// Live gates before the sweep.
    pub gates_before: usize,
    /// Live gates after the sweep.
    pub gates_after: usize,
    /// Refinement rounds executed.
    pub rounds: usize,
    /// Candidate pairs handed to the SAT solver.
    pub candidate_pairs: usize,
    /// Pairs proven equivalent (every one is merged; merges happen only
    /// with a SAT proof in hand).
    pub proven: usize,
    /// Of `proven`, the pairs whose proof closed on the bounded window of
    /// the two cones; the rest needed the full-cone miter.
    pub window_proven: usize,
    /// Pairs refuted by a counterexample (classes split next round).
    pub refuted: usize,
    /// Distinct pairs given up on: the conflict budget ran out, or a
    /// proven pair could not be merged structurally.  Each such pair is
    /// counted once and not retried in later rounds; its nodes stay
    /// unmerged.
    pub skipped: usize,
    /// Total SAT conflicts spent (summed over the window and full-cone
    /// solves).
    pub conflicts: u64,
    /// Nodes (re-)hashed into candidate classes over all rounds: every
    /// live node in round one, then only the members of surviving
    /// multi-member classes.  A full re-sort would hash every live node
    /// every round, so this stays below `rounds × live nodes` once
    /// refinement rounds run.
    pub reclassed_nodes: usize,
    /// Proven cones registered as structural choices instead of deleted
    /// (nonzero only under [`SweepParams::record_choices`]; every one is
    /// also counted in `proven`).
    pub choices_recorded: usize,
    /// Simulation pattern words inherited from a recycled [`SweepEngine`]
    /// at the start of the sweep (0 for a fresh sweep): the refinement
    /// knowledge — random patterns plus every counterexample earlier
    /// sweeps of the same flow paid SAT conflicts for — that this sweep
    /// did not have to rediscover.
    pub recycled_words: usize,
    /// Whether the sweep ran to completion or stopped on an exhausted
    /// effort budget (every merge committed so far is backed by a proof
    /// and stands).
    pub outcome: StepOutcome,
}

/// Result of a combinational equivalence check.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum EquivalenceResult {
    /// The networks are proven equivalent (the miter is unsatisfiable).
    Equivalent,
    /// The networks differ; the payload is a distinguishing primary-input
    /// assignment (indexed like `pi_nodes()`).
    Inequivalent(Vec<bool>),
    /// A conflict or propagation budget ran out before a verdict.
    Unknown,
}

impl EquivalenceResult {
    /// Returns `true` for [`EquivalenceResult::Equivalent`].
    pub fn is_equivalent(&self) -> bool {
        matches!(self, EquivalenceResult::Equivalent)
    }
}

/// Verdict of [`check_equivalence`] together with the solver's
/// proof-effort statistics, so equivalence-checking cost is
/// regression-trackable alongside the verdict itself.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct EquivalenceOutcome {
    /// The verdict.
    pub result: EquivalenceResult,
    /// Statistics of the check's solver, summed over every solve it ran
    /// (conflicts, decisions, propagations, restarts).
    pub solver: SolverStats,
    /// How the check got there: gates mapped structurally or by proof,
    /// refuted and undecided candidates, residual outputs.
    pub work: CecStats,
    /// `true` when an [`EquivalenceResult::Unknown`] verdict was caused by
    /// a resource limit running out (conflict or propagation budget)
    /// rather than a genuine solver failure — callers use this to tell
    /// "the verification budget was too small" apart from "the solver
    /// broke", and resilient executors report the two differently.
    pub limit_exhausted: bool,
}

impl EquivalenceOutcome {
    /// Returns `true` when the verdict is
    /// [`EquivalenceResult::Equivalent`].
    pub fn is_equivalent(&self) -> bool {
        self.result.is_equivalent()
    }
}

/// Lazy Tseitin encoder of one network into a [`Solver`].
///
/// One variable per encoded node, kept in a [`LocalScratch`] node →
/// variable map; cones are encoded on demand by a DFS whose visited set is
/// a second [`LocalScratch`].  Both start over in O(1), so moving to a
/// fresh solver ([`CnfEncoder::reset`]) sizes nothing to the network.  The
/// sweep keeps one encoder and resets it whenever a class opens its
/// fallback solver; the equivalence checker keeps one per check.
#[derive(Debug, Default)]
struct CnfEncoder {
    /// SAT variable index of every node encoded into the current solver.
    vars: LocalScratch,
    stack: Vec<NodeId>,
    clause: Vec<Lit>,
    fanin_lits: Vec<Lit>,
    /// DFS "fanins already scheduled" marks of [`CnfEncoder::encode_cone`].
    expanded: LocalScratch,
}

impl CnfEncoder {
    /// Forgets every encoded node, for a fresh solver over a network of
    /// `num_nodes` nodes.
    fn reset(&mut self, num_nodes: usize) {
        self.vars.reset(num_nodes);
    }

    /// The literal representing `signal` (edge complement applied).  The
    /// signal's cone must already be encoded.
    #[inline]
    fn lit_of(&self, signal: Signal) -> Lit {
        let var = self.vars.value(signal.node()).expect("signal cone encoded");
        Lit::new(Var::from_index(var as usize), !signal.is_complemented())
    }

    /// Returns the SAT variable of `node`, encoding its cone down to the
    /// primary inputs on first demand.
    fn var_of<N: Network>(&mut self, ntk: &N, solver: &mut Solver, node: NodeId) -> Var {
        if !self.vars.is_marked(node) {
            self.encode_cone(ntk, solver, node);
        }
        self.lit_of(Signal::new(node, false)).var()
    }

    /// The value of `node` in `solver`'s last model.  A node outside every
    /// encoded cone is unconstrained, so any value fits the model: `false`.
    fn model_value(&self, solver: &Solver, node: NodeId) -> bool {
        self.vars
            .value(node)
            .is_some_and(|var| solver.value(Var::from_index(var as usize)).unwrap_or(false))
    }

    /// Iterative post-order DFS over the unencoded part of `root`'s cone.
    ///
    /// The per-node DFS state ("fanins already scheduled") lives in the
    /// encoder's own [`LocalScratch`]: a gate surfacing unmarked pushes
    /// its unencoded fanins and marks itself; surfacing marked, its fanins
    /// are guaranteed encoded (a marked gate re-surfacing with unresolved
    /// fanins would require the pusher to sit inside the gate's own cone —
    /// a cycle), so it emits its clauses.  Each fanin list is scanned at
    /// most twice and no per-candidate map is allocated.
    fn encode_cone<N: Network>(&mut self, ntk: &N, solver: &mut Solver, root: NodeId) {
        self.expanded.reset(ntk.size());
        debug_assert!(self.stack.is_empty());
        self.stack.push(root);
        while let Some(&node) = self.stack.last() {
            if self.vars.is_marked(node) {
                self.stack.pop();
                continue;
            }
            if !ntk.is_gate(node) {
                // leaves: primary inputs are free variables, the constant
                // node is pinned to zero
                let var = solver.new_var();
                self.vars.set_value(node, var.index() as u32);
                if ntk.is_constant(node) {
                    solver.add_clause(&[Lit::negative(var)]);
                }
                self.stack.pop();
                continue;
            }
            if self.expanded.mark(node) {
                let before = self.stack.len();
                ntk.foreach_fanin(node, |f| {
                    if !self.vars.is_marked(f.node()) {
                        self.stack.push(f.node());
                    }
                });
                if self.stack.len() > before {
                    continue;
                }
            }
            self.encode_gate(ntk, solver, node);
            self.stack.pop();
        }
    }

    /// The literal of `signal`, encoding its cone on first demand.
    fn encode_signal<N: Network>(&mut self, ntk: &N, solver: &mut Solver, signal: Signal) -> Lit {
        self.var_of(ntk, solver, signal.node());
        self.lit_of(signal)
    }

    /// Encodes one gate whose fanins are all encoded.
    fn encode_gate<N: Network>(&mut self, ntk: &N, solver: &mut Solver, node: NodeId) {
        self.fanin_lits.clear();
        for index in 0..ntk.fanin_size(node) {
            self.fanin_lits.push(self.lit_of(ntk.fanin(node, index)));
        }
        let g = solver.new_var();
        self.vars.set_value(node, g.index() as u32);
        encode_gate_clauses(ntk, node, &self.fanin_lits, g, solver, &mut self.clause);
    }
}

/// Emits the Tseitin clauses of `out <-> node(fanins)`: the gate function
/// of `node` in `ntk`, applied to the given fanin literals (which need not
/// be the node's own fanins' variables).  The one gate encoder of the
/// module, shared by the sweep's lazy cone encoder and the equivalence
/// checker's second-network side.
fn encode_gate_clauses<N: Network>(
    ntk: &N,
    node: NodeId,
    fanins: &[Lit],
    out: Var,
    solver: &mut Solver,
    clause: &mut Vec<Lit>,
) {
    let g_pos = Lit::positive(out);
    let g_neg = Lit::negative(out);
    match ntk.gate_kind(node) {
        GateKind::And => {
            let (a, b) = (fanins[0], fanins[1]);
            solver.add_clause(&[g_neg, a]);
            solver.add_clause(&[g_neg, b]);
            solver.add_clause(&[g_pos, !a, !b]);
        }
        GateKind::Xor => {
            let (a, b) = (fanins[0], fanins[1]);
            solver.add_clause(&[g_neg, a, b]);
            solver.add_clause(&[g_neg, !a, !b]);
            solver.add_clause(&[g_pos, !a, b]);
            solver.add_clause(&[g_pos, a, !b]);
        }
        GateKind::Maj => {
            let (a, b, c) = (fanins[0], fanins[1], fanins[2]);
            solver.add_clause(&[g_neg, a, b]);
            solver.add_clause(&[g_neg, a, c]);
            solver.add_clause(&[g_neg, b, c]);
            solver.add_clause(&[g_pos, !a, !b]);
            solver.add_clause(&[g_pos, !a, !c]);
            solver.add_clause(&[g_pos, !b, !c]);
        }
        _ => {
            // generic kinds (XOR3, LUT): one clause per input minterm
            // forbidding the output that disagrees with the function
            let function = ntk.node_function(node);
            debug_assert_eq!(function.num_bits(), 1 << fanins.len());
            for m in 0..function.num_bits() {
                clause.clear();
                for (i, &lit) in fanins.iter().enumerate() {
                    // literal falsified exactly under minterm m
                    clause.push(if (m >> i) & 1 == 1 { !lit } else { lit });
                }
                clause.push(if function.bit(m) { g_pos } else { g_neg });
                solver.add_clause(clause);
            }
        }
    }
}

/// Adds a fresh variable `t <-> (a xor b)` and returns it: asking for a
/// model with `t` set to the opposite of a claimed relation between `a`
/// and `b` is asking for an input that violates it.
fn xor_tap(solver: &mut Solver, a: Lit, b: Lit) -> Var {
    let t = solver.new_var();
    let (tp, tn) = (Lit::positive(t), Lit::negative(t));
    solver.add_clause(&[tn, a, b]);
    solver.add_clause(&[tn, !a, !b]);
    solver.add_clause(&[tp, !a, b]);
    solver.add_clause(&[tp, a, !b]);
    t
}

/// Outcome of one candidate-pair proof attempt.
enum PairOutcome {
    /// A miter is unsatisfiable: the pair is equivalent (modulo the
    /// claimed polarity).  `in_window` when the bounded window of the two
    /// cones sufficed, `false` when the full-cone miter was needed.
    Proven { in_window: bool },
    /// A distinguishing input assignment was found.
    Refuted(Vec<bool>),
    /// The conflict limit or the effort budget's propagation allowance
    /// ran out.
    Undecided,
}

/// Attempts to prove `cand == repr` (or `cand == !repr` when `antivalent`)
/// on the full cones, encoded by `enc` into the class's `solver`, under
/// the sweep's conflict limit and the budget's remaining propagation
/// allowance.  The solve's propagations are charged to the budget.
fn prove_pair<N: Network>(
    ctx: &ProveContext<'_, N>,
    solver: &mut Solver,
    enc: &mut CnfEncoder,
    repr: NodeId,
    cand: NodeId,
    antivalent: bool,
) -> PairOutcome {
    let (ntk, budget) = (ctx.ntk, ctx.budget);
    let spent = solver.stats().propagations;
    let va = enc.var_of(ntk, solver, repr);
    let vb = enc.var_of(ntk, solver, cand);
    let t = xor_tap(solver, Lit::positive(va), Lit::positive(vb));
    solver.set_conflict_limit(Some(ctx.conflict_limit.max(1)));
    solver.set_propagation_limit(budget.sat_propagation_allowance());
    let result = solver.solve_with_assumptions(&[Lit::new(t, !antivalent)]);
    budget.consume_sat(solver.stats().propagations - spent);
    match result {
        SatResult::Unsat => PairOutcome::Proven { in_window: false },
        SatResult::Unknown => PairOutcome::Undecided,
        SatResult::Sat => PairOutcome::Refuted(
            ntk.pi_nodes()
                .into_iter()
                .map(|pi| enc.model_value(solver, pi))
                .collect(),
        ),
    }
}

/// Gate bound of every window: the pair window each `fraig` candidate pair
/// is proven on before the full-cone miter, and each side of the
/// equivalence checker's windows.  A constant, like resubstitution's
/// window limits.
const WINDOW_GATES: usize = 16;

/// One network's side of a window.
///
/// A side holds the gates nearest its roots: nodes are expanded in
/// decreasing topological rank (highest first, so a gate is expanded
/// before any gate of its fanin cone) until the gate bound is reached.
/// Every node left on the frontier — primary inputs, and gates past the
/// bound — is a free variable; the constant is pinned to zero.  The free
/// leaves can take any value, a superset of what the real cones feed the
/// window, so `UNSAT` on a window is a proof, while `SAT` may be spurious
/// and proves nothing.
///
/// The node → variable map is a [`LocalScratch`] sized once and reset in
/// O(1) per window, so no table is sized to the network per window.
#[derive(Debug, Default)]
struct WindowSide {
    /// SAT variable index of every node of the side.
    vars: LocalScratch,
    /// Side nodes not yet expanded, keyed by rank, highest first.
    frontier: BinaryHeap<(u32, NodeId)>,
    /// The side's gates, in expansion order.
    gates: Vec<NodeId>,
}

impl WindowSide {
    /// Empties the side for a window over a network of `num_nodes` nodes.
    fn reset(&mut self, num_nodes: usize) {
        self.vars.reset(num_nodes);
        self.frontier.clear();
        self.gates.clear();
    }

    /// Gives `node` a window variable, unless it has one, and queues it
    /// for expansion; the constant's variable is pinned to zero.
    fn leaf<N: Network>(&mut self, ntk: &N, solver: &mut Solver, rank: &[u32], node: NodeId) {
        if self.vars.is_marked(node) {
            return;
        }
        let var = solver.new_var();
        self.vars.set_value(node, var.index() as u32);
        if ntk.is_constant(node) {
            solver.add_clause(&[Lit::negative(var)]);
        }
        self.frontier.push((rank[node as usize], node));
    }

    /// Expands the frontier in decreasing rank until the side holds
    /// `max_gates` gates or runs out of nodes.  Every fanin of an expanded
    /// gate is first offered to `elsewhere`; the fanins it does not claim
    /// become leaves of this side.
    fn expand<N: Network>(
        &mut self,
        ntk: &N,
        solver: &mut Solver,
        rank: &[u32],
        max_gates: usize,
        mut elsewhere: impl FnMut(&mut Solver, Signal) -> bool,
    ) {
        while self.gates.len() < max_gates {
            let Some((_, node)) = self.frontier.pop() else {
                break;
            };
            if ntk.is_gate(node) {
                self.gates.push(node);
                ntk.foreach_fanin(node, |f| {
                    if !elsewhere(solver, f) {
                        self.leaf(ntk, solver, rank, f.node());
                    }
                });
            }
        }
    }

    /// The literal of `signal`, whose node has a variable on this side.
    fn lit(&self, signal: Signal) -> Lit {
        let var = self
            .vars
            .value(signal.node())
            .expect("window node has a variable");
        Lit::new(Var::from_index(var as usize), !signal.is_complemented())
    }
}

/// The window prover: the pair windows of `fraig` and of the equivalence
/// checker's outputs, and the checker's gate windows, all through one
/// expansion ([`WindowSide::expand`]) and one gate encoder.
///
/// A pair window is one side over one network, expanded from both roots.
/// A gate window spans the checker's two networks: the second network's
/// side holds the gate and its unmapped fanin gates, down to the signals
/// already mapped onto the first network; the first network's side is
/// expanded from the images of those signals and from the gate's
/// candidate.  Each window gets a fresh small solver; the sides are kept
/// and reset in O(1), so a sweep or a check sizes them once.
#[derive(Debug, Default)]
struct WindowProver {
    /// The side over the swept network, or the checker's first network.
    first: WindowSide,
    /// The checker's second-network side of a gate window.
    second: WindowSide,
    fanin_lits: Vec<Lit>,
    clause: Vec<Lit>,
}

impl WindowProver {
    /// Solves the miter of `cand == repr` (`cand == !repr` when
    /// `antivalent`) on a pair window of at most `max_gates` gates of
    /// `ntk`, under `limits`: a conflict limit and an optional propagation
    /// limit.
    /// Returns the answer with the window solver's statistics, or `None`
    /// when the window holds no gate: two distinct free leaves are never
    /// equal, so there is nothing to solve.
    ///
    /// The variables are numbered `repr`, `cand`, then in expansion order;
    /// the sweep's proof counters depend on that order.
    #[allow(clippy::too_many_arguments)]
    fn solve_pair<N: Network>(
        &mut self,
        ntk: &N,
        rank: &[u32],
        repr: NodeId,
        cand: NodeId,
        antivalent: bool,
        max_gates: usize,
        limits: (u64, Option<u64>),
    ) -> Option<(SatResult, SolverStats)> {
        let Self {
            first: side,
            fanin_lits,
            clause,
            ..
        } = self;
        let mut solver = Solver::new();
        side.reset(ntk.size());
        for root in [repr, cand] {
            side.leaf(ntk, &mut solver, rank, root);
        }
        side.expand(ntk, &mut solver, rank, max_gates, |_, _| false);
        if side.gates.is_empty() {
            return None;
        }
        encode_window_gates(ntk, &side.gates, &mut solver, fanin_lits, clause, |s| {
            side.lit(s)
        });
        let (x, y) = (
            side.lit(Signal::new(repr, false)),
            side.lit(Signal::new(cand, false)),
        );
        Some(solve_window_miter(solver, x, y, antivalent, limits))
    }

    /// Solves the miter of gate `h` of `b` against `image`, a signal of
    /// `a`, on a gate window of at most `max_gates` gates per side, under
    /// `limits` (as for [`WindowProver::solve_pair`]).  `images` maps
    /// the nodes of `b` visited before `h`: a fanin mapped onto `a` stands
    /// for its image's variable on the first side, an unmapped one is a
    /// gate of the second side (or, past the bound, a free leaf).
    #[allow(clippy::too_many_arguments)]
    fn solve_gate<A: Network, B: Network>(
        &mut self,
        (a, rank_a): (&A, &[u32]),
        (b, rank_b): (&B, &[u32]),
        images: &[Option<Image>],
        h: NodeId,
        image: Signal,
        max_gates: usize,
        limits: (u64, Option<u64>),
    ) -> (SatResult, SolverStats) {
        let Self {
            first,
            second,
            fanin_lits,
            clause,
        } = self;
        let mut solver = Solver::new();
        first.reset(a.size());
        second.reset(b.size());
        second.leaf(b, &mut solver, rank_b, h);
        second.expand(
            b,
            &mut solver,
            rank_b,
            max_gates,
            |solver, f| match images[f.node() as usize] {
                Some(Image::Mapped(s)) => {
                    first.leaf(a, solver, rank_a, s.node());
                    true
                }
                _ => false,
            },
        );
        first.leaf(a, &mut solver, rank_a, image.node());
        first.expand(a, &mut solver, rank_a, max_gates, |_, _| false);
        encode_window_gates(a, &first.gates, &mut solver, fanin_lits, clause, |s| {
            first.lit(s)
        });
        let lit_b = |s: Signal| match images[s.node() as usize] {
            Some(Image::Mapped(m)) => first.lit(m.complement_if(s.is_complemented())),
            _ => second.lit(s),
        };
        encode_window_gates(b, &second.gates, &mut solver, fanin_lits, clause, lit_b);
        let (x, y) = (second.lit(Signal::new(h, false)), first.lit(image));
        solve_window_miter(solver, x, y, false, limits)
    }
}

/// Emits the Tseitin clauses of the window gates `gates` of `ntk`, the
/// literal of every gate and fanin given by `lit`.
fn encode_window_gates<N: Network>(
    ntk: &N,
    gates: &[NodeId],
    solver: &mut Solver,
    fanin_lits: &mut Vec<Lit>,
    clause: &mut Vec<Lit>,
    lit: impl Fn(Signal) -> Lit,
) {
    for &gate in gates {
        fanin_lits.clear();
        ntk.foreach_fanin(gate, |f| fanin_lits.push(lit(f)));
        let out = lit(Signal::new(gate, false)).var();
        encode_gate_clauses(ntk, gate, fanin_lits, out, solver, clause);
    }
}

/// Asks a window's `solver` for a model with `x != y` (`x != !y` when
/// `antivalent`) under a conflict limit (at least 1) and an optional
/// propagation limit, returning the answer with the solver's statistics:
/// `UNSAT` proves `x == y` (`x == !y`).
fn solve_window_miter(
    mut solver: Solver,
    x: Lit,
    y: Lit,
    antivalent: bool,
    (conflict_limit, propagation_limit): (u64, Option<u64>),
) -> (SatResult, SolverStats) {
    let t = xor_tap(&mut solver, x, y);
    solver.set_conflict_limit(Some(conflict_limit.max(1)));
    solver.set_propagation_limit(propagation_limit);
    let result = solver.solve_with_assumptions(&[Lit::new(t, !antivalent)]);
    (result, solver.stats())
}

/// Topological rank of every node of `ntk`: the constant, then the
/// primary inputs, then the gates in topological order (`u32::MAX` for
/// dead nodes).  Windows expand in decreasing rank.
fn topological_rank<N: Network>(ntk: &N) -> Vec<u32> {
    let mut rank = vec![u32::MAX; ntk.size()];
    rank[0] = 0;
    let live = ntk.pi_nodes().into_iter().chain(ntk.gate_nodes());
    for (r, node) in live.enumerate() {
        rank[node as usize] = r as u32 + 1;
    }
    rank
}

/// Proof outcomes of one equivalence class.
///
/// Produced on a frozen network by [`prove_class`], consumed in class
/// order by the serial apply phase of [`sweep_traced`].
struct ClassOutcomes {
    /// The representative every pair was proven against: the lowest-ranked
    /// member alive when the phase started (class members arrive in rank
    /// order).  Meaningless when `pairs` is empty.
    repr: NodeId,
    /// One `(candidate, antivalent, outcome)` entry per attempted pair, in
    /// class order.
    pairs: Vec<(NodeId, bool, PairOutcome)>,
    /// Statistics of the class's solves, window and full-cone alike, summed
    /// (all zero when no pair was attempted).
    solver: SolverStats,
}

/// The frozen state every class of one round is proven against.
struct ProveContext<'a, N> {
    ntk: &'a N,
    sim: &'a WordSimulator,
    /// Topological rank of every node (see [`sweep_pass`]).
    rank: &'a [u32],
    no_retry: &'a HashSet<(NodeId, NodeId)>,
    conflict_limit: u64,
    /// Gate bound of the pair windows: [`WINDOW_GATES`], or 0 in the tests'
    /// full-cone oracle (every pair then goes straight to the full miter).
    window_gates: usize,
    budget: &'a Budget,
    tracer: &'a Tracer,
}

/// Proves the candidate pairs of one class against a frozen network.
///
/// Each pair is first solved on a bounded window of its two cones
/// ([`WindowProver`]); an `UNSAT` window proves it.  A satisfiable or
/// undecided window falls back to the full-cone miter ([`prove_pair`]) on
/// the class's own solver, opened on the class's first fallback with the
/// sweep's encoder reset for it; the miter either proves the pair or
/// yields a real input assignment that refutes it.  Every window and every
/// class gets a fresh solver, so under an unlimited budget the class's
/// outcomes are a pure function of the class, the network, the simulator
/// and the no-retry set: no solver state carries over from the classes
/// proven before it.  That purity is the determinism argument of the prove
/// phase.
///
/// The effort budget is charged per pair: one tick before the pair (the
/// class stops when it fails), every solve capped at the budget's remaining
/// propagation allowance, and each solve's propagations charged back
/// afterwards.
fn prove_class<N: Network>(
    ctx: &ProveContext<'_, N>,
    class: &[NodeId],
    window: &mut WindowProver,
    enc: &mut CnfEncoder,
    batch: &mut BatchSpans<'_>,
) -> ClassOutcomes {
    let (ntk, budget) = (ctx.ntk, ctx.budget);
    let mut out = ClassOutcomes {
        repr: 0,
        pairs: Vec::new(),
        solver: SolverStats::default(),
    };
    let mut solver: Option<Solver> = None;
    let mut repr: Option<NodeId> = None;
    for &node in class {
        if ntk.is_dead(node) {
            continue;
        }
        let repr_node = match repr {
            None => {
                repr = Some(node);
                continue;
            }
            Some(r) => r,
        };
        if ctx.no_retry.contains(&(repr_node, node)) {
            continue;
        }
        // only gates can be merged away; a non-gate sharing a class (a PI
        // colliding with the constant or another PI) is still proven — SAT
        // refutes it and the counterexample splits the class next round
        if !budget.consume(1) {
            break;
        }
        batch.tick();
        let antivalent = ctx.sim.phase(repr_node) != ctx.sim.phase(node);
        if let Some((result, stats)) = window.solve_pair(
            ntk,
            ctx.rank,
            repr_node,
            node,
            antivalent,
            ctx.window_gates,
            (ctx.conflict_limit, budget.sat_propagation_allowance()),
        ) {
            budget.consume_sat(stats.propagations);
            out.solver += stats;
            if result == SatResult::Unsat {
                out.pairs
                    .push((node, antivalent, PairOutcome::Proven { in_window: true }));
                continue;
            }
        }
        let solver = solver.get_or_insert_with(|| {
            enc.reset(ntk.size());
            let mut solver = Solver::new();
            // per-solve spans in full trace mode; purely observational
            solver.set_tracer(ctx.tracer.clone());
            solver
        });
        let outcome = prove_pair(ctx, solver, enc, repr_node, node, antivalent);
        out.pairs.push((node, antivalent, outcome));
    }
    out.repr = repr.unwrap_or(0);
    if let Some(solver) = solver {
        out.solver += solver.stats();
    }
    out
}

/// The prove phase of one round: every class in `bounds` (ranges of
/// `members`) is proven against the frozen network by [`prove_class`], in
/// class order, on the sweep's window prover and encoder.  Stops at the
/// first class that finds the budget exhausted.
fn prove_round<N: Network>(
    ctx: &ProveContext<'_, N>,
    members: &[NodeId],
    bounds: &[(u32, u32)],
    window: &mut WindowProver,
    enc: &mut CnfEncoder,
) -> Vec<ClassOutcomes> {
    let mut batch = BatchSpans::new(ctx.tracer, "pair_candidates", BATCH_INTERVAL);
    let mut outcomes = Vec::with_capacity(bounds.len());
    for &(start, end) in bounds {
        if ctx.budget.is_exhausted() {
            break;
        }
        let class = &members[start as usize..end as usize];
        outcomes.push(prove_class(ctx, class, window, enc, &mut batch));
    }
    outcomes
}

/// Reusable state shared by the `fraig` steps of one flow: the simulation
/// pattern words (initial random patterns plus every counterexample
/// discovered so far).
///
/// Node functions never change inside a flow — every pass substitutes
/// nodes by *proven or constructed equivalents* and node ids are never
/// reused — so recycled pattern words still distinguish exactly the nodes
/// they distinguished before: later sweeps start from already-refined
/// classes instead of re-earning each counterexample with SAT conflicts.
/// The engine must not be shared between *different* networks (it is keyed
/// to one node-id space); [`SweepEngine::reset`] clears it.
#[derive(Debug, Default)]
pub struct SweepEngine {
    /// Primary-input pattern words accumulated so far
    /// (`patterns[w][i]` = word `w` of input `i`); empty until the first
    /// sweep seeds them.
    patterns: Vec<Vec<u64>>,
    /// Number of primary inputs the patterns were recorded for.
    num_pis: usize,
    /// Interface/size fingerprint of the network the engine last swept
    /// (`num_pos`, `size()`), backing the best-effort misuse check below.
    num_pos: usize,
    last_size: usize,
}

impl SweepEngine {
    /// Creates an empty engine (the first sweep through it behaves exactly
    /// like a stand-alone [`sweep`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops all recycled pattern words.
    pub fn reset(&mut self) {
        *self = Self::default();
    }

    /// Number of pattern words currently carried.
    pub fn num_pattern_words(&self) -> usize {
        self.patterns.len()
    }
}

/// Runs SAT sweeping on `ntk`: functionally equivalent (or antivalent)
/// nodes are detected by word-parallel simulation, proven by SAT and
/// merged, removing the redundant cones (or — under
/// [`SweepParams::record_choices`] — keeping them alive as structural
/// choices of their representative).
///
/// Every merge is backed by an `UNSAT` proof; pairs the solver cannot
/// decide within [`SweepParams::conflict_limit`] conflicts are left
/// untouched.  The pass is deterministic: simulation patterns come from
/// [`SweepParams::seed`], classes are ordered by signature and topological
/// rank, and the solver is deterministic.
pub fn sweep<N: Network>(ntk: &mut N, params: &SweepParams) -> SweepStats {
    sweep_with_engine(ntk, params, &mut SweepEngine::new())
}

/// [`sweep`] with a caller-provided [`SweepEngine`], recycling pattern
/// words across the `fraig` steps of one flow.  A fresh engine reproduces
/// [`sweep`] bit for bit.
pub fn sweep_with_engine<N: Network>(
    ntk: &mut N,
    params: &SweepParams,
    engine_state: &mut SweepEngine,
) -> SweepStats {
    sweep_traced(
        ntk,
        params,
        engine_state,
        &Budget::unlimited(),
        telemetry::global(),
    )
}

/// [`sweep_with_engine`] under a cooperative effort [`Budget`], reporting
/// through an explicit telemetry [`Tracer`].
///
/// Each round proves every candidate class against the frozen network
/// (each pair on a bounded window first, then on the class's full-cone
/// solver), then applies the outcomes serially in class order.  A proven
/// pair whose endpoint died in an earlier merge of the same round is
/// dropped unmarked, so the next round re-examines it against fresh
/// classes.
///
/// SAT effort is folded into the tick currency per pair: the budget is
/// polled before every candidate pair, each of the pair's solves (window,
/// then full cone if needed) runs under the budget's remaining propagation
/// allowance (so a single hard miter cannot blow through the budget), and
/// the spent propagations are charged back.
/// A budgeted or deadlined sweep therefore stops within one pair; the
/// outcomes attempted so far are applied and the round loop ends, so every
/// committed merge is backed by an `UNSAT` proof and stands.  A tick
/// budget is deterministic: the same limit stops the sweep at the same
/// pair.
///
/// The tracer records a `fraig` pass span with per-round spans, the round
/// phases (`classify`, `prove`, `apply`, `resimulate`) as child spans,
/// `prove` tiled by `pair_candidates` batch spans in full mode, the sweep
/// statistics (`fraig.*`) and the statistics of every window and full-cone
/// solve summed over the sweep (`fraig.sat.*`).
/// Observational only — results are bit-identical at any trace mode.
pub fn sweep_traced<N: Network>(
    ntk: &mut N,
    params: &SweepParams,
    engine_state: &mut SweepEngine,
    budget: &Budget,
    tracer: &Tracer,
) -> SweepStats {
    sweep_pass(ntk, params, engine_state, budget, tracer, WINDOW_GATES)
}

/// The body of [`sweep_traced`], with the gate bound of the pair windows
/// passed in: the pass uses [`WINDOW_GATES`], and the tests pass 0 — every
/// pair proven on the full cones — as the oracle the windowed sweep must
/// match.
fn sweep_pass<N: Network>(
    ntk: &mut N,
    params: &SweepParams,
    engine_state: &mut SweepEngine,
    budget: &Budget,
    tracer: &Tracer,
    window_gates: usize,
) -> SweepStats {
    let _pass = tracer.span("fraig");
    let mut stats = SweepStats {
        gates_before: ntk.num_gates(),
        ..SweepStats::default()
    };
    if stats.gates_before == 0 {
        stats.gates_after = 0;
        return stats;
    }
    // one entry tick, so a sweep always polls the budget at least once —
    // a tick-1 budget (or an injected fault at tick 1) takes effect even
    // when simulation leaves no candidate pairs to prove
    if !budget.consume(1) {
        stats.gates_after = stats.gates_before;
        stats.outcome = budget.outcome();
        return stats;
    }
    if params.record_choices {
        ntk.enable_choices();
    }

    // Recycled state is only valid for the node-id space it was recorded
    // on.  A changed interface or a *shrunk* node table cannot be the
    // same flow's network (ids are append-only within a flow), so the
    // engine resets.  The check is best-effort: an unrelated network
    // with the same interface and a larger node table is
    // indistinguishable here — sharing an engine across different
    // networks is the caller's contract to uphold (see [`SweepEngine`]).
    if engine_state.num_pis != ntk.num_pis()
        || engine_state.num_pos != ntk.num_pos()
        || engine_state.last_size > ntk.size()
    {
        engine_state.reset();
    }
    let mut sim = if engine_state.patterns.is_empty() {
        WordSimulator::random(ntk, params.num_words.max(1), params.seed)
    } else {
        stats.recycled_words = engine_state.patterns.len();
        WordSimulator::from_pi_patterns(ntk, &engine_state.patterns)
    };

    // topological ranks: constant, then PIs, then gates in topological
    // order.  Candidates merge into the lowest-ranked class member, which
    // almost always points edges at topologically earlier logic.  The
    // ranking is a merge-direction heuristic, not a safety argument:
    // cascading structural-hash merges inside `substitute_node` can
    // locally invert it, so acyclicity is enforced per merge by
    // `merge_equivalent`'s fanout walk (a refused merge is counted as
    // skipped and not retried).  The pair windows expand by rank too; an
    // inverted rank only changes which gates a window holds, never its
    // soundness.
    let rank = topological_rank(&*ntk);

    let mut replacer = Replacer::new();
    // the class partition: `members` holds class members contiguously and
    // `bounds` the (start, end) range of every multi-member class, in
    // signature order.  Built from every live node in round one, it lives
    // across rounds and is only *refined* (split) by new pattern words.
    let mut members: Vec<NodeId> = Vec::new();
    let mut bounds: Vec<(u32, u32)> = Vec::new();
    let mut next_members: Vec<NodeId> = Vec::new();
    let mut next_bounds: Vec<(u32, u32)> = Vec::new();
    let mut cex_patterns: Vec<Vec<bool>> = Vec::new();
    // first word index appended by the previous round's counterexamples
    // (the only words incremental refinement needs to look at)
    let mut new_words_start = 0usize;
    // pairs that will not be retried in later rounds: conflict-budget
    // timeouts and structurally refused merges.  Counted in `skipped`
    // exactly once, and their miter is not re-encoded or re-solved when
    // an undistinguished class survives into the next round.
    let mut no_retry: HashSet<(NodeId, NodeId)> = HashSet::new();
    // the statistics of every window and full-cone solve, summed over the
    // sweep
    let mut sat = SolverStats::default();
    let mut window = WindowProver::default();
    let mut enc = CnfEncoder::default();

    for round in 0..params.max_rounds.max(1) {
        let _round = tracer.span("sweep_round");
        stats.rounds = round + 1;

        let classify = tracer.span("classify");
        if round == 0 {
            partition_from_scratch(ntk, &sim, &rank, &mut members, &mut bounds);
            stats.reclassed_nodes += members.len();
        } else {
            // incremental refinement: signatures only *gain* words, so
            // classes can only split — never merge, and a singleton can
            // never regain company.  Every surviving multi-member class is
            // re-partitioned on the words appended last round alone (its
            // members agree on all older words by construction); members
            // that died from earlier merges drop out.  Sub-classes are
            // ordered by the new words and ties by rank, which is exactly
            // the order the full re-sort would produce.
            let words = sim.num_words();
            let new_word_cmp = |a: NodeId, b: NodeId| {
                for w in new_words_start..words {
                    let cmp = sim.canonical_word(w, a).cmp(&sim.canonical_word(w, b));
                    if cmp != std::cmp::Ordering::Equal {
                        return cmp;
                    }
                }
                std::cmp::Ordering::Equal
            };
            next_members.clear();
            next_bounds.clear();
            for &(s, e) in &bounds {
                let seg_start = next_members.len();
                for &n in &members[s as usize..e as usize] {
                    if !ntk.is_dead(n) {
                        next_members.push(n);
                    }
                }
                if next_members.len() - seg_start < 2 {
                    next_members.truncate(seg_start);
                    continue;
                }
                let seg = &mut next_members[seg_start..];
                stats.reclassed_nodes += seg.len();
                seg.sort_unstable_by(|&a, &b| {
                    new_word_cmp(a, b).then_with(|| rank[a as usize].cmp(&rank[b as usize]))
                });
                let mut i = 0usize;
                while i < seg.len() {
                    let mut j = i + 1;
                    while j < seg.len() && new_word_cmp(seg[i], seg[j]) == std::cmp::Ordering::Equal
                    {
                        j += 1;
                    }
                    if j - i >= 2 {
                        next_bounds.push(((seg_start + i) as u32, (seg_start + j) as u32));
                    }
                    i = j;
                }
            }
            std::mem::swap(&mut members, &mut next_members);
            std::mem::swap(&mut bounds, &mut next_bounds);
            debug_assert!(
                matches_partition_from_scratch(ntk, &sim, &rank, &members, &bounds),
                "round {round}: refined classes differ from the from-scratch partition"
            );
        }

        drop(classify);
        let outcomes = {
            let _prove = tracer.span("prove");
            let ctx = ProveContext {
                ntk: &*ntk,
                sim: &sim,
                rank: &rank,
                no_retry: &no_retry,
                conflict_limit: params.conflict_limit,
                window_gates,
                budget,
                tracer,
            };
            prove_round(&ctx, &members, &bounds, &mut window, &mut enc)
        };
        // Apply the outcomes serially, in class order.  A merge cascade can
        // invalidate an *already proven* pair by killing one endpoint before
        // its turn; such pairs are dropped without a no-retry mark so the
        // next round re-examines them against fresh classes.
        let apply = tracer.span("apply");
        cex_patterns.clear();
        for out in outcomes {
            stats.candidate_pairs += out.pairs.len();
            sat += out.solver;
            let repr_node = out.repr;
            for (node, antivalent, outcome) in out.pairs {
                match outcome {
                    PairOutcome::Proven { in_window } => {
                        if ntk.is_dead(repr_node) || ntk.is_dead(node) {
                            continue;
                        }
                        let replacement = Signal::new(repr_node, antivalent);
                        let committed = ntk.is_gate(node)
                            && if params.record_choices {
                                // keep the losing cone alive as a mapping
                                // choice of the winner; the node survives,
                                // so the pair must not be re-proven when its
                                // class reaches the next round
                                replacer.keep_as_choice(ntk, node, replacement)
                            } else {
                                replacer.merge_equivalent(ntk, node, replacement)
                            };
                        if committed {
                            stats.proven += 1;
                            stats.window_proven += usize::from(in_window);
                            if params.record_choices {
                                stats.choices_recorded += 1;
                                no_retry.insert((repr_node, node));
                            }
                        } else {
                            // structurally unmergeable despite the proof
                            // (non-gate candidate, or a rank inversion the
                            // acyclicity walk refused): give up on the pair
                            // instead of re-proving it every round
                            stats.skipped += 1;
                            no_retry.insert((repr_node, node));
                        }
                    }
                    PairOutcome::Refuted(pattern) => {
                        stats.refuted += 1;
                        cex_patterns.push(pattern);
                    }
                    PairOutcome::Undecided => {
                        stats.skipped += 1;
                        no_retry.insert((repr_node, node));
                    }
                }
            }
        }
        drop(apply);

        // an exhausted budget ends the sweep once its proofs are applied
        if cex_patterns.is_empty() || budget.is_exhausted() {
            break;
        }
        // pack up to 64 counterexamples per fresh pattern word and
        // re-simulate, splitting every class the patterns distinguish
        let _resim = tracer.span("resimulate");
        new_words_start = sim.num_words();
        for chunk in cex_patterns.chunks(64) {
            let mut words: Vec<u64> = vec![0; ntk.num_pis()];
            for (bit, pattern) in chunk.iter().enumerate() {
                for (pi_index, &value) in pattern.iter().enumerate() {
                    if value {
                        words[pi_index] |= 1u64 << bit;
                    }
                }
            }
            sim.add_pattern_word(ntk, &words);
        }
    }

    // hand the accumulated pattern words (initial + every counterexample)
    // back to the engine for the next sweep of the flow
    engine_state.patterns = sim.pi_patterns(ntk);
    engine_state.num_pis = ntk.num_pis();
    engine_state.num_pos = ntk.num_pos();
    engine_state.last_size = ntk.size();

    stats.conflicts = sat.conflicts;
    stats.gates_after = ntk.num_gates();
    stats.outcome = budget.outcome();
    tracer.absorb("fraig", &stats);
    tracer.absorb("fraig.sat", &sat);
    tracer.set_gauge("fraig.gates_after", stats.gates_after as u64);
    stats
}

/// Partitions every live node into candidate classes from scratch: sorts
/// the constant, the inputs and the gates by their polarity-normalised
/// signature over all simulated words, then by topological `rank`.
/// `members` receives the sorted nodes (singletons included) and `bounds`
/// the (start, end) range of every multi-member class — a run of equal
/// signatures — in signature order.
fn partition_from_scratch<N: Network>(
    ntk: &N,
    sim: &WordSimulator,
    rank: &[u32],
    members: &mut Vec<NodeId>,
    bounds: &mut Vec<(u32, u32)>,
) {
    members.clear();
    members.push(0);
    members.extend(ntk.pi_nodes());
    members.extend(ntk.gate_nodes());
    let words = sim.num_words();
    let signature_cmp = |a: NodeId, b: NodeId| {
        for w in 0..words {
            let cmp = sim.canonical_word(w, a).cmp(&sim.canonical_word(w, b));
            if cmp != std::cmp::Ordering::Equal {
                return cmp;
            }
        }
        std::cmp::Ordering::Equal
    };
    members.sort_unstable_by(|&a, &b| {
        signature_cmp(a, b).then_with(|| rank[a as usize].cmp(&rank[b as usize]))
    });
    bounds.clear();
    let mut start = 0usize;
    while start < members.len() {
        let mut end = start + 1;
        while end < members.len()
            && signature_cmp(members[start], members[end]) == std::cmp::Ordering::Equal
        {
            end += 1;
        }
        if end - start >= 2 {
            bounds.push((start as u32, end as u32));
        }
        start = end;
    }
}

/// Whether the classes `bounds` delimits in `members` are exactly the
/// multi-member classes of [`partition_from_scratch`], in the same order:
/// the contract of incremental refinement, checked in debug builds.
fn matches_partition_from_scratch<N: Network>(
    ntk: &N,
    sim: &WordSimulator,
    rank: &[u32],
    members: &[NodeId],
    bounds: &[(u32, u32)],
) -> bool {
    let (mut all, mut all_bounds) = (Vec::new(), Vec::new());
    partition_from_scratch(ntk, sim, rank, &mut all, &mut all_bounds);
    bounds.len() == all_bounds.len()
        && bounds.iter().zip(&all_bounds).all(|(&(s, e), &(t, f))| {
            members[s as usize..e as usize] == all[t as usize..f as usize]
        })
}

impl MetricsSource for SweepStats {
    fn visit_metrics(&self, visit: &mut dyn FnMut(&str, u64)) {
        visit("rounds", self.rounds as u64);
        visit("candidate_pairs", self.candidate_pairs as u64);
        visit("proven", self.proven as u64);
        visit("window_proven", self.window_proven as u64);
        visit("refuted", self.refuted as u64);
        visit("skipped", self.skipped as u64);
        visit("conflicts", self.conflicts);
        visit("reclassed_nodes", self.reclassed_nodes as u64);
        visit("choices_recorded", self.choices_recorded as u64);
        visit("recycled_words", self.recycled_words as u64);
        visit("exhausted", u64::from(!self.outcome.is_completed()));
    }
}

/// Default conflict budget of [`check_equivalence`] (generous: the check
/// is complete for every workload in this repository; use
/// [`check_equivalence_with_limits`] to bound or unbound it explicitly).
pub const DEFAULT_CEC_CONFLICT_LIMIT: u64 = 10_000_000;

/// Random 64-bit pattern words the equivalence checker simulates both
/// networks on (the sweep's default, [`SweepParams::num_words`]).
const CEC_WORDS: usize = 4;

/// Work counters of one equivalence check: how each gate of the second
/// network was matched to the first, and how many outputs the final SAT
/// miter still had to compare.  Absorbed by the guarded executor as
/// `verify.*`.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CecStats {
    /// Gates mapped by structural identity: same gate kind over fanins
    /// already mapped onto the first network.  No SAT call.
    pub structural: usize,
    /// Gates mapped by an `UNSAT` answer against their simulation
    /// candidate.
    pub proven: usize,
    /// Of `proven`, the gates whose proof closed on a gate window; the
    /// rest needed the check's shared solver.
    pub window_proven: usize,
    /// Candidate pairs a satisfying assignment of the shared solver
    /// refuted; the gate keeps its own variable.
    pub refuted: usize,
    /// Candidate pairs the per-pair conflict cap left undecided; the gate
    /// keeps its own variable.
    pub undecided: usize,
    /// Output pairs mapped onto a different signal of the first network
    /// that a pair window proved equal to the first network's output.
    pub window_outputs: usize,
    /// Output pairs compared by the final miter: their mapped signals
    /// differ and no window closed them (0 when the mapping and the
    /// windows alone prove every output).
    pub residual_outputs: usize,
}

impl MetricsSource for CecStats {
    fn visit_metrics(&self, visit: &mut dyn FnMut(&str, u64)) {
        visit("structural", self.structural as u64);
        visit("proven", self.proven as u64);
        visit("window_proven", self.window_proven as u64);
        visit("refuted", self.refuted as u64);
        visit("undecided", self.undecided as u64);
        visit("window_outputs", self.window_outputs as u64);
        visit("residual_outputs", self.residual_outputs as u64);
    }
}

/// Checks combinational equivalence of two networks by SAT sweeping.
/// `UNSAT` answers and structural identity are *proofs* of equivalence —
/// unlike
/// [`equivalent_by_random_simulation`](glsx_network::simulation::equivalent_by_random_simulation),
/// which can only refute.
///
/// Outputs are compared position by position, inputs are shared by
/// position.  Returns the verdict together with the solver's proof-effort
/// statistics and the checker's work counters ([`EquivalenceOutcome`]), so
/// regression harnesses can track how hard a proof was, not just whether
/// it succeeded.  The conflict budget is [`DEFAULT_CEC_CONFLICT_LIMIT`].
///
/// # Panics
///
/// Panics if the networks have different numbers of primary inputs or
/// outputs.
pub fn check_equivalence<A: Network, B: Network>(a: &A, b: &B) -> EquivalenceOutcome {
    check_equivalence_with_limits(a, b, Some(DEFAULT_CEC_CONFLICT_LIMIT), None)
}

/// [`check_equivalence`] with explicit conflict and propagation budgets
/// for the whole check (`None` lifts the respective limit).
///
/// The check runs in four phases.  Proofs run on small window solvers
/// first, and on one shared solver, whose input variables the two
/// networks share, only when a window does not close:
///
/// 1. **Simulation.**  Both networks are simulated on the same random
///    input words; a differing output bit is returned as a counterexample
///    without any SAT call.
/// 2. **Mapping.**  The gates of `b` are visited in topological order and
///    mapped onto signals of `a`.  A gate whose fanins are all mapped and
///    whose kind exists in `a` over exactly those (normalised) fanin
///    signals is mapped structurally.  Any other gate is proven against
///    the first node of `a` (constant, inputs, gates) with the same
///    polarity-normalised simulation signature, first on a *gate window*
///    (Mishchenko et al., ICCAD 2006: most proven pairs are local): the
///    gate and its unmapped fanin gates down to mapped signals, at most 16
///    gates, against at most 16 gates of `a` expanded in decreasing rank
///    from the images of those signals and from the candidate, with every
///    frontier node free and the constant pinned.  `UNSAT` there maps the
///    gate, and nothing is encoded in the shared solver.  A satisfiable or
///    undecided window falls through to the shared solver: the gate is
///    Tseitin-encoded over its fanins' literals — mapped fanins use `a`'s
///    lazily encoded literals — and proven under an assumption.  On
///    `UNSAT` the gate is mapped (with the simulated phase) and the two
///    equality clauses are added; on `SAT` or at the cap it keeps its own
///    variable.  Both attempts are capped at
///    [`SweepParams::conflict_limit`] conflicts.
/// 3. **Output windows.**  An output pair whose image in `a` is a
///    different signal than `a`'s own output is tried on the pair window
///    `fraig` proves its candidates on, over `a` with the two signals as
///    roots.  `UNSAT` there proves the pair.
/// 4. **Residual miter.**  Only the output pairs left — the mapped
///    signals differ and no window closed them — get an XOR tap; no tap
///    is a proof, otherwise one solve decides.
///
/// Windows only ever prove: their free leaves over-approximate what the
/// real cones feed them, so `UNSAT` is a proof and `SAT` proves nothing.
/// Nothing is mapped on simulation alone, so every
/// [`EquivalenceResult::Equivalent`] rests on structural identity over
/// mapped fanins or on `UNSAT` answers, and every
/// [`EquivalenceResult::Inequivalent`] carries a real input assignment,
/// from simulation or from the residual miter.  The check is
/// deterministic: the simulation seed is fixed and gates are visited in
/// topological order.
///
/// Every solve, window or shared, runs under the remaining allowance of
/// both budgets and is charged back, and [`EquivalenceOutcome::solver`]
/// sums all of them.  The propagation limit is the deterministic knob
/// effort budgets drive
/// ([`glsx_network::Budget::sat_propagation_allowance`]); when either
/// budget runs out the verdict is [`EquivalenceResult::Unknown`] and
/// [`EquivalenceOutcome::limit_exhausted`] is `true`, which is how
/// callers tell a too-small verification budget apart from a genuine
/// solver failure.
///
/// # Panics
///
/// Panics if the networks have different numbers of primary inputs or
/// outputs.
pub fn check_equivalence_with_limits<A: Network, B: Network>(
    a: &A,
    b: &B,
    conflict_limit: Option<u64>,
    propagation_limit: Option<u64>,
) -> EquivalenceOutcome {
    check_pass(a, b, conflict_limit, propagation_limit, WINDOW_GATES)
}

/// The body of [`check_equivalence_with_limits`], with the gate bound of
/// its windows passed in: the check uses [`WINDOW_GATES`], and the tests
/// pass 0 — no window, every proof on the shared solver — as the oracle
/// the windowed check must agree with.
fn check_pass<A: Network, B: Network>(
    a: &A,
    b: &B,
    conflict_limit: Option<u64>,
    propagation_limit: Option<u64>,
    window_gates: usize,
) -> EquivalenceOutcome {
    assert_eq!(
        a.num_pis(),
        b.num_pis(),
        "networks must have the same number of inputs"
    );
    assert_eq!(
        a.num_pos(),
        b.num_pos(),
        "networks must have the same number of outputs"
    );
    let defaults = SweepParams::default();
    let sim_a = WordSimulator::random(a, CEC_WORDS, defaults.seed);
    let patterns = sim_a.pi_patterns(a);
    let sim_b = WordSimulator::from_pi_patterns(b, &patterns);
    let (pos_a, pos_b) = (a.po_signals(), b.po_signals());
    for (&sa, &sb) in pos_a.iter().zip(&pos_b) {
        for (w, word) in patterns.iter().enumerate() {
            let diff = sim_a.signal_word(w, sa) ^ sim_b.signal_word(w, sb);
            if diff != 0 {
                let bit = diff.trailing_zeros();
                let cex = word.iter().map(|&p| (p >> bit) & 1 == 1).collect();
                return EquivalenceOutcome {
                    result: EquivalenceResult::Inequivalent(cex),
                    solver: SolverStats::default(),
                    work: CecStats::default(),
                    limit_exhausted: false,
                };
            }
        }
    }

    let gates_a = a.gate_nodes();
    // structural table of `a`: normalised gate -> the signal computing it
    let mut structural: HashMap<GateKey, Signal> = HashMap::with_capacity(gates_a.len());
    let mut fanins: Vec<Signal> = Vec::with_capacity(3);
    for &g in &gates_a {
        fanins.clear();
        a.foreach_fanin(g, |f| fanins.push(f));
        if let Some((key, complement)) = gate_key(a.gate_kind(g), &fanins) {
            structural.entry(key).or_insert(Signal::new(g, complement));
        }
    }
    // proof candidates: polarity-normalised signature -> first node of `a`
    let signature = |sim: &WordSimulator, node: NodeId| -> [u64; CEC_WORDS] {
        std::array::from_fn(|w| sim.canonical_word(w, node))
    };
    let constant_a = a.get_constant(false);
    let mut candidates: HashMap<[u64; CEC_WORDS], NodeId> =
        HashMap::with_capacity(gates_a.len() + a.num_pis() + 1);
    for node in std::iter::once(constant_a.node())
        .chain(a.pi_nodes())
        .chain(gates_a.iter().copied())
    {
        candidates.entry(signature(&sim_a, node)).or_insert(node);
    }

    let mut checker = Checker {
        a,
        rank_a: topological_rank(a),
        solver: Solver::new(),
        enc_a: CnfEncoder::default(),
        window: WindowProver::default(),
        window_gates,
        windows: SolverStats::default(),
        images: vec![None; b.size()],
        conflict_limit,
        propagation_limit,
        work: CecStats::default(),
    };
    checker.enc_a.reset(a.size());
    // shared inputs: the i-th input of `b` is the i-th input of `a`
    checker.images[b.get_constant(false).node() as usize] = Some(Image::Mapped(constant_a));
    for (pa, pb) in a.pi_nodes().into_iter().zip(b.pi_nodes()) {
        checker.images[pb as usize] = Some(Image::Mapped(Signal::new(pa, false)));
    }

    let rank_b = topological_rank(b);
    let mut fanin_lits: Vec<Lit> = Vec::with_capacity(3);
    let mut clause: Vec<Lit> = Vec::new();
    for h in b.gate_nodes() {
        // structural: the same gate over the fanins' images exists in `a`
        fanins.clear();
        let mut all_mapped = true;
        b.foreach_fanin(h, |f| match checker.image(f) {
            Some(s) => fanins.push(s),
            None => all_mapped = false,
        });
        let same_gate = match gate_key(b.gate_kind(h), &fanins) {
            Some((key, complement)) if all_mapped => {
                structural.get(&key).map(|s| s.complement_if(complement))
            }
            _ => None,
        };
        if let Some(s) = same_gate {
            checker.images[h as usize] = Some(Image::Mapped(s));
            checker.work.structural += 1;
            continue;
        }
        // by proof against the simulation candidate: on a gate window
        // first, then on the shared solver
        let candidate = candidates
            .get(&signature(&sim_b, h))
            .map(|&c| Signal::new(c, sim_a.phase(c) != sim_b.phase(h)));
        if let Some(image) = candidate {
            match checker.gate_window(b, &rank_b, h, image) {
                None => return checker.finish(EquivalenceResult::Unknown),
                Some(true) => {
                    checker.images[h as usize] = Some(Image::Mapped(image));
                    checker.work.proven += 1;
                    checker.work.window_proven += 1;
                    continue;
                }
                Some(false) => {}
            }
        }
        fanin_lits.clear();
        for i in 0..b.fanin_size(h) {
            let lit = checker.lit_of(b.fanin(h, i));
            fanin_lits.push(lit);
        }
        let v = checker.solver.new_var();
        encode_gate_clauses(b, h, &fanin_lits, v, &mut checker.solver, &mut clause);
        checker.images[h as usize] = Some(Image::Free(v));
        let Some(image) = candidate else {
            continue;
        };
        let lc = checker.enc_a.encode_signal(a, &mut checker.solver, image);
        let lh = Lit::positive(v);
        let t = xor_tap(&mut checker.solver, lh, lc);
        match checker.solve(&[Lit::positive(t)], Some(defaults.conflict_limit)) {
            None => return checker.finish(EquivalenceResult::Unknown),
            Some(SatResult::Unsat) => {
                checker.images[h as usize] = Some(Image::Mapped(image));
                checker.solver.add_clause(&[!lh, lc]);
                checker.solver.add_clause(&[lh, !lc]);
                checker.work.proven += 1;
            }
            Some(SatResult::Sat) => checker.work.refuted += 1,
            Some(SatResult::Unknown) => checker.work.undecided += 1,
        }
    }

    // residual miter over the outputs neither the mapping nor a window
    // proved
    let mut taps: Vec<Lit> = Vec::new();
    for (&sa, &sb) in pos_a.iter().zip(&pos_b) {
        let image = checker.image(sb);
        if image == Some(sa) {
            continue;
        }
        if let Some(s) = image {
            match checker.output_window(sa, s) {
                None => return checker.finish(EquivalenceResult::Unknown),
                Some(true) => {
                    checker.work.window_outputs += 1;
                    continue;
                }
                Some(false) => {}
            }
        }
        let la = checker.enc_a.encode_signal(a, &mut checker.solver, sa);
        let lb = checker.lit_of(sb);
        taps.push(Lit::positive(xor_tap(&mut checker.solver, la, lb)));
    }
    checker.work.residual_outputs = taps.len();
    if taps.is_empty() {
        return checker.finish(EquivalenceResult::Equivalent);
    }
    checker.solver.add_clause(&taps);
    let result = match checker.solve(&[], None) {
        Some(SatResult::Unsat) => EquivalenceResult::Equivalent,
        Some(SatResult::Sat) => EquivalenceResult::Inequivalent(
            a.pi_nodes()
                .into_iter()
                .map(|pi| checker.enc_a.model_value(&checker.solver, pi))
                .collect(),
        ),
        // without a cap, only the check's own budgets end a solve early
        Some(SatResult::Unknown) | None => EquivalenceResult::Unknown,
    };
    checker.finish(result)
}

/// Structural-lookup key of a gate: its kind and normalised fanins
/// (slots past the kind's arity hold the constant).
type GateKey = (GateKind, [Signal; 3]);

/// Normalises a gate for structural lookup into a key `k` and an output
/// complement `c` with `kind(fanins) == F(k) ^ c`: commutative fanins are
/// sorted, XOR kinds move fanin complements to the output, and majority,
/// being self-dual, keeps at most one complemented fanin.  `None` for LUTs
/// (their function is not determined by the kind) and malformed arities.
fn gate_key(kind: GateKind, fanins: &[Signal]) -> Option<(GateKey, bool)> {
    if kind.arity() != Some(fanins.len()) {
        return None;
    }
    let mut key = [Signal::constant(false); 3];
    let slots = &mut key[..fanins.len()];
    slots.copy_from_slice(fanins);
    let mut complement = false;
    match kind {
        GateKind::And => {}
        GateKind::Xor | GateKind::Xor3 => {
            for s in slots.iter_mut() {
                complement ^= s.is_complemented();
                *s = s.regular();
            }
        }
        GateKind::Maj => {
            if slots.iter().filter(|s| s.is_complemented()).count() >= 2 {
                complement = true;
                for s in slots.iter_mut() {
                    *s = !*s;
                }
            }
        }
        _ => return None,
    }
    slots.sort_unstable();
    Some(((kind, key), complement))
}

/// What a node of the second network stands for in the checker.
#[derive(Clone, Copy, Debug)]
enum Image {
    /// A signal of the first network proven to compute the same function.
    Mapped(Signal),
    /// The gate's own variable: no equivalent signal of the first network
    /// was proven.
    Free(Var),
}

/// State of one [`check_equivalence_with_limits`] call: the shared solver,
/// the lazy encoder of the first network, the window prover and the image
/// of every node of the second (`None` until visited; fanins are visited
/// first).
struct Checker<'n, A: Network> {
    a: &'n A,
    /// Topological rank of every node of `a`, the order its window sides
    /// expand in.
    rank_a: Vec<u32>,
    solver: Solver,
    enc_a: CnfEncoder,
    window: WindowProver,
    /// Gate bound of the windows; 0 skips them (the tests' oracle).
    window_gates: usize,
    /// Statistics of every window solve, summed.
    windows: SolverStats,
    images: Vec<Option<Image>>,
    conflict_limit: Option<u64>,
    propagation_limit: Option<u64>,
    work: CecStats,
}

impl<A: Network> Checker<'_, A> {
    /// The outcome of the check.  An [`EquivalenceResult::Unknown`] verdict
    /// only ever comes from the check's budgets running out.
    fn finish(self, result: EquivalenceResult) -> EquivalenceOutcome {
        EquivalenceOutcome {
            limit_exhausted: result == EquivalenceResult::Unknown,
            result,
            solver: self.spent(),
            work: self.work,
        }
    }

    /// The signal of the first network a signal of the second is mapped
    /// to, if any.
    fn image(&self, signal: Signal) -> Option<Signal> {
        match self.images[signal.node() as usize] {
            Some(Image::Mapped(s)) => Some(s.complement_if(signal.is_complemented())),
            _ => None,
        }
    }

    /// The literal of a visited signal of the second network.
    fn lit_of(&mut self, signal: Signal) -> Lit {
        match self.images[signal.node() as usize] {
            Some(Image::Mapped(s)) => self.enc_a.encode_signal(
                self.a,
                &mut self.solver,
                s.complement_if(signal.is_complemented()),
            ),
            Some(Image::Free(v)) => Lit::new(v, !signal.is_complemented()),
            None => unreachable!("fanins are visited before their gate"),
        }
    }

    /// Statistics of every solve so far: the shared solver's and the
    /// windows'.
    fn spent(&self) -> SolverStats {
        let mut spent = self.solver.stats();
        spent += self.windows;
        spent
    }

    /// Whether the whole check's conflict or propagation allowance is used
    /// up.
    fn exhausted(&self) -> bool {
        let spent = self.spent();
        self.conflict_limit
            .is_some_and(|limit| spent.conflicts >= limit)
            || self
                .propagation_limit
                .is_some_and(|limit| spent.propagations >= limit)
    }

    /// The conflict and propagation limits of the next solve: at most
    /// `cap` conflicts, within the whole check's remaining allowance.
    /// `None` when that allowance is used up.
    fn limits(&self, cap: Option<u64>) -> Option<(Option<u64>, Option<u64>)> {
        if self.exhausted() {
            return None;
        }
        let spent = self.spent();
        let conflicts_left = self.conflict_limit.map(|limit| limit - spent.conflicts);
        Some((
            [cap, conflicts_left].into_iter().flatten().min(),
            self.propagation_limit
                .map(|limit| limit - spent.propagations),
        ))
    }

    /// Solves the shared solver under `assumptions` with at most `cap`
    /// conflicts, within the whole check's remaining allowance.  `None`
    /// when that allowance is used up.
    fn solve(&mut self, assumptions: &[Lit], cap: Option<u64>) -> Option<SatResult> {
        let (conflicts, propagations) = self.limits(cap)?;
        self.solver.set_conflict_limit(conflicts);
        self.solver.set_propagation_limit(propagations);
        let result = self.solver.solve_with_assumptions(assumptions);
        if matches!(result, SatResult::Unknown) && self.exhausted() {
            return None;
        }
        Some(result)
    }

    /// The conflict and propagation limits of the next window solve: the
    /// per-pair cap within the whole check's remaining allowance.  `None`
    /// when that allowance is used up.
    fn window_limits(&self) -> Option<(u64, Option<u64>)> {
        let cap = SweepParams::default().conflict_limit;
        let (conflicts, propagations) = self.limits(Some(cap))?;
        Some((conflicts.unwrap_or(cap), propagations))
    }

    /// Charges a window solve to the check: `Some(true)` when it proved
    /// its miter, `None` when it ran the check's allowance out.
    fn charge_window(&mut self, (result, stats): (SatResult, SolverStats)) -> Option<bool> {
        self.windows += stats;
        if result == SatResult::Unknown && self.exhausted() {
            return None;
        }
        Some(result == SatResult::Unsat)
    }

    /// Tries to prove gate `h` of `b` equal to `image` on a gate window,
    /// under the per-pair cap and the check's remaining allowance:
    /// `Some(true)` when the window closes, `Some(false)` when it does not
    /// (or windows are off), `None` when the allowance ran out.
    fn gate_window<B: Network>(
        &mut self,
        b: &B,
        rank_b: &[u32],
        h: NodeId,
        image: Signal,
    ) -> Option<bool> {
        if self.window_gates == 0 {
            return Some(false);
        }
        let limits = self.window_limits()?;
        let answer = self.window.solve_gate(
            (self.a, &self.rank_a),
            (b, rank_b),
            &self.images,
            h,
            image,
            self.window_gates,
            limits,
        );
        self.charge_window(answer)
    }

    /// Tries to prove the output `sa` of the first network equal to `s`,
    /// the image of the second network's output, on a pair window over
    /// the first network; the answers are those of
    /// [`Checker::gate_window`].
    fn output_window(&mut self, sa: Signal, s: Signal) -> Option<bool> {
        if self.window_gates == 0 || sa.node() == s.node() {
            return Some(false);
        }
        let limits = self.window_limits()?;
        let Some(answer) = self.window.solve_pair(
            self.a,
            &self.rank_a,
            sa.node(),
            s.node(),
            sa.is_complemented() != s.is_complemented(),
            self.window_gates,
            limits,
        ) else {
            return Some(false);
        };
        self.charge_window(answer)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glsx_network::simulation::{equivalent_by_simulation, simulate_patterns};
    use glsx_network::{Aig, GateBuilder, Klut, Mig, Xag};
    use glsx_truth::TruthTable;

    /// Builds `f ≡ g` pairs with different structure: `or(and(x, s),
    /// and(x, !s))` re-expresses `x` with three fresh gates.
    fn redundant_copy<N: Network + GateBuilder>(ntk: &mut N, x: Signal, s: Signal) -> Signal {
        let t1 = ntk.create_and(x, s);
        let t2 = ntk.create_and(x, !s);
        ntk.create_or(t1, t2)
    }

    #[test]
    fn sweep_merges_injected_redundancy() {
        let mut aig = Aig::new();
        let a = aig.create_pi();
        let b = aig.create_pi();
        let s = aig.create_pi();
        let x = aig.create_and(a, b);
        let dup = redundant_copy(&mut aig, x, s);
        aig.create_po(x);
        aig.create_po(dup);
        let reference = aig.clone();
        let before = aig.num_gates();
        let stats = sweep(&mut aig, &SweepParams::default());
        assert!(stats.proven >= 1, "{stats:?}");
        assert_eq!(stats.skipped, 0, "{stats:?}");
        assert!(aig.num_gates() < before, "{stats:?}");
        assert!(equivalent_by_simulation(&reference, &aig));
        assert!(check_equivalence(&reference, &aig).is_equivalent());
        // both outputs now point at the same node
        let pos = aig.po_signals();
        assert_eq!(pos[0], pos[1]);
    }

    #[test]
    fn sweep_merges_antivalent_nodes_into_complemented_edges() {
        // r = and(!q1, !q2) with q1 = a & s, q2 = a & !s computes !a:
        // antivalent to the primary input a
        let mut aig = Aig::new();
        let a = aig.create_pi();
        let s = aig.create_pi();
        let q1 = aig.create_and(a, s);
        let q2 = aig.create_and(a, !s);
        let r = aig.create_and(!q1, !q2);
        aig.create_po(!r);
        let reference = aig.clone();
        let stats = sweep(&mut aig, &SweepParams::default());
        assert!(stats.proven >= 1, "{stats:?}");
        assert_eq!(aig.num_gates(), 0, "the whole cone collapses: {stats:?}");
        assert_eq!(aig.po_signals()[0], a);
        assert!(equivalent_by_simulation(&reference, &aig));
    }

    #[test]
    fn sweep_proves_constant_nodes_against_the_constant_class() {
        // z = (a & s) & (a & !s) is constant zero but structurally alive
        let mut aig = Aig::new();
        let a = aig.create_pi();
        let s = aig.create_pi();
        let z1 = aig.create_and(a, s);
        let z2 = aig.create_and(a, !s);
        let z = aig.create_and(z1, z2);
        aig.create_po(z);
        let reference = aig.clone();
        let stats = sweep(&mut aig, &SweepParams::default());
        assert!(stats.proven >= 1, "{stats:?}");
        assert_eq!(aig.num_gates(), 0, "{stats:?}");
        assert_eq!(aig.po_signals()[0], aig.get_constant(false));
        assert!(equivalent_by_simulation(&reference, &aig));
    }

    /// Left-to-right XOR chain over `pis`.
    fn xor_chain(aig: &mut Aig, pis: &[Signal]) -> Signal {
        let mut chain = pis[0];
        for &pi in &pis[1..] {
            chain = aig.create_xor(chain, pi);
        }
        chain
    }

    /// Balanced XOR tree over `pis`.
    fn xor_tree(aig: &mut Aig, pis: &[Signal]) -> Signal {
        let mut layer = pis.to_vec();
        while layer.len() > 1 {
            let mut next = Vec::new();
            for pair in layer.chunks(2) {
                next.push(if pair.len() == 2 {
                    aig.create_xor(pair[0], pair[1])
                } else {
                    pair[0]
                });
            }
            layer = next;
        }
        layer[0]
    }

    /// Two structurally different parity trees over the same inputs: the
    /// roots are equivalent, but proving it needs real conflicts, so a
    /// one-conflict budget must skip the pair and leave it unmerged.
    fn parity_pair() -> (Aig, usize) {
        let mut aig = Aig::new();
        let pis: Vec<Signal> = (0..6).map(|_| aig.create_pi()).collect();
        let chain = xor_chain(&mut aig, &pis);
        let tree = xor_tree(&mut aig, &pis);
        aig.create_po(chain);
        aig.create_po(tree);
        let gates = aig.num_gates();
        (aig, gates)
    }

    /// The two parity structures of [`parity_pair`] as two one-output
    /// networks over six inputs: equivalent, but only the first XOR is
    /// shared structure, so the check needs real SAT work.
    fn parity_chain_and_tree() -> (Aig, Aig) {
        let build = |tree: bool| {
            let mut aig = Aig::new();
            let pis: Vec<Signal> = (0..6).map(|_| aig.create_pi()).collect();
            let root = if tree {
                xor_tree(&mut aig, &pis)
            } else {
                xor_chain(&mut aig, &pis)
            };
            aig.create_po(root);
            aig
        };
        (build(false), build(true))
    }

    #[test]
    fn conflict_budget_skips_hard_pairs_without_merging() {
        let (mut aig, before) = parity_pair();
        let reference = aig.clone();
        let stats = sweep(
            &mut aig,
            &SweepParams {
                conflict_limit: 1,
                max_rounds: 2,
                ..SweepParams::default()
            },
        );
        assert!(stats.skipped >= 1, "{stats:?}");
        assert_eq!(stats.proven, 0, "{stats:?}");
        assert_eq!(aig.num_gates(), before, "skipped classes stay unmerged");
        assert!(equivalent_by_simulation(&reference, &aig));
        // with a real budget the same pair is proven and merged
        let (mut aig, before) = parity_pair();
        let stats = sweep(&mut aig, &SweepParams::default());
        assert!(stats.proven >= 1, "{stats:?}");
        assert!(aig.num_gates() < before, "{stats:?}");
        assert!(equivalent_by_simulation(&reference, &aig));
        let pos = aig.po_signals();
        assert_eq!(pos[0], pos[1]);
    }

    #[test]
    fn sweep_works_across_representations() {
        fn build_and_sweep<N: Network + GateBuilder + Clone>() {
            let mut ntk = N::new();
            let a = ntk.create_pi();
            let b = ntk.create_pi();
            let s = ntk.create_pi();
            let x = ntk.create_maj(a, b, ntk.get_constant(false));
            let dup = redundant_copy(&mut ntk, x, s);
            ntk.create_po(x);
            ntk.create_po(!dup);
            let reference = ntk.clone();
            let stats = sweep(&mut ntk, &SweepParams::default());
            assert!(stats.proven >= 1, "{}: {stats:?}", N::NAME);
            assert!(
                equivalent_by_simulation(&reference, &ntk),
                "{}: sweep broke the function",
                N::NAME
            );
            assert!(
                check_equivalence(&reference, &ntk).is_equivalent(),
                "{}: miter disagrees",
                N::NAME
            );
        }
        build_and_sweep::<Aig>();
        build_and_sweep::<Xag>();
        build_and_sweep::<Mig>();
    }

    #[test]
    fn check_equivalence_agrees_with_simulation() {
        let build = |or_gate: bool| {
            let mut aig = Aig::new();
            let a = aig.create_pi();
            let b = aig.create_pi();
            let g = if or_gate {
                aig.create_or(a, b)
            } else {
                aig.create_and(a, b)
            };
            aig.create_po(g);
            aig
        };
        let and1 = build(false);
        let and2 = build(false);
        let or1 = build(true);
        let proven = check_equivalence(&and1, &and2);
        assert!(proven.is_equivalent());
        match check_equivalence(&and1, &or1).result {
            EquivalenceResult::Inequivalent(cex) => {
                // the counterexample must actually distinguish the outputs
                let patterns: Vec<u64> = cex.iter().map(|&v| u64::from(v)).collect();
                let oa = simulate_patterns(&and1, &patterns);
                let ob = simulate_patterns(&or1, &patterns);
                assert_ne!(oa[0] & 1, ob[0] & 1, "cex does not distinguish");
            }
            other => panic!("expected Inequivalent, got {other:?}"),
        }
    }

    #[test]
    fn check_equivalence_spans_representations_and_luts() {
        let mut aig = Aig::new();
        let a = aig.create_pi();
        let b = aig.create_pi();
        let c = aig.create_pi();
        let g = aig.create_maj(a, b, c);
        aig.create_po(g);

        let mig: Mig = glsx_network::convert_network(&aig);
        assert!(check_equivalence(&aig, &mig).is_equivalent());

        let mut klut = Klut::new();
        let ka = klut.create_pi();
        let kb = klut.create_pi();
        let kc = klut.create_pi();
        let maj = TruthTable::from_hex(3, "e8").unwrap();
        let kg = klut.create_lut(&[ka, kb, kc], maj);
        klut.create_po(kg);
        assert!(check_equivalence(&aig, &klut).is_equivalent());
    }

    #[test]
    fn check_equivalence_respects_output_polarity() {
        let mut a = Aig::new();
        let x = a.create_pi();
        let y = a.create_pi();
        let g = a.create_and(x, y);
        a.create_po(!g);
        let mut b = Aig::new();
        let x = b.create_pi();
        let y = b.create_pi();
        let g = b.create_and(x, y);
        b.create_po(g);
        assert!(!check_equivalence(&a, &b).is_equivalent());
        let b_clone = a.clone();
        assert!(check_equivalence(&a, &b_clone).is_equivalent());
    }

    /// Incremental class maintenance reproduces the full re-sort in every
    /// refinement round: the sweep debug-asserts it round by round, and
    /// this sweep runs refinement rounds, so it reaches that check.  The
    /// refinement re-hashes fewer nodes than re-sorting every live node
    /// each round would.
    #[test]
    fn incremental_classes_match_full_resort() {
        // many inputs + a single initial pattern word makes signature
        // collisions between inequivalent nodes likely, forcing real
        // counterexample-refinement rounds
        let mut aig = Aig::new();
        let pis: Vec<Signal> = (0..16).map(|_| aig.create_pi()).collect();
        let mut signals = pis.clone();
        let mut state = 0x1234_5678_u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as usize
        };
        for _ in 0..80 {
            let a = signals[next() % signals.len()].complement_if(next() % 2 == 0);
            let b = signals[next() % signals.len()].complement_if(next() % 2 == 0);
            signals.push(aig.create_and(a, b));
        }
        for s in signals.iter().rev().take(6) {
            aig.create_po(*s);
        }
        let live_nodes = 1 + aig.num_pis() + aig.num_gates();
        let mut swept = aig.clone();
        let stats = sweep(
            &mut swept,
            &SweepParams {
                num_words: 1,
                ..SweepParams::default()
            },
        );
        assert!(
            stats.rounds > 1 && stats.refuted > 0,
            "the refinement path must actually run: {stats:?}"
        );
        assert!(
            stats.reclassed_nodes < stats.rounds * live_nodes,
            "refinement re-hashed as much as a full re-sort: {stats:?}"
        );
        assert!(check_equivalence(&aig, &swept).is_equivalent());
    }

    /// Random AND cones over twelve inputs; with a single initial pattern
    /// word they force refinement rounds and give the prove phase many
    /// multi-member classes.
    fn colliding_cones(seed: u64, gates: usize, outputs: usize) -> Aig {
        let mut aig = Aig::new();
        let mut signals: Vec<Signal> = (0..12).map(|_| aig.create_pi()).collect();
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as usize
        };
        for _ in 0..gates {
            let a = signals[next() % signals.len()].complement_if(next() % 2 == 0);
            let b = signals[next() % signals.len()].complement_if(next() % 2 == 0);
            signals.push(aig.create_and(a, b));
        }
        for s in signals.iter().rev().take(outputs) {
            aig.create_po(*s);
        }
        aig
    }

    /// With one initial pattern word the phased rounds refute pairs and
    /// refine their classes, and the result is miter-equivalent to the
    /// input.
    #[test]
    fn phased_proving_refines_classes_and_preserves_the_function() {
        let build = || colliding_cones(0x9e37_79b9, 120, 8);
        let params = SweepParams {
            num_words: 1,
            ..SweepParams::default()
        };
        let mut swept = build();
        let stats = sweep(&mut swept, &params);
        assert!(
            stats.rounds > 1 && stats.refuted > 0,
            "the refinement path must actually run: {stats:?}"
        );
        assert!(check_equivalence(&build(), &swept).is_equivalent());
    }

    /// The equivalence outcome carries real proof-effort numbers.
    #[test]
    fn check_equivalence_reports_solver_stats() {
        let (chain, tree) = parity_chain_and_tree();
        // the two parity networks differ only in structure, which forces
        // real XOR reasoning
        let outcome = check_equivalence(&chain, &tree);
        assert!(outcome.is_equivalent());
        assert!(
            outcome.solver.propagations > 0,
            "a nontrivial miter must propagate: {:?}",
            outcome.solver
        );
    }

    /// A copy of a network maps gate by gate through the structural table:
    /// the check proves it without a single SAT call.
    #[test]
    fn structurally_identical_networks_are_proven_without_sat() {
        let (aig, gates) = parity_pair();
        let outcome = check_equivalence(&aig, &aig.clone());
        assert!(outcome.is_equivalent());
        assert_eq!(outcome.solver.conflicts, 0, "{outcome:?}");
        assert_eq!(outcome.solver.propagations, 0, "{outcome:?}");
        assert_eq!(outcome.work.structural, gates, "{outcome:?}");
        assert_eq!(outcome.work.residual_outputs, 0, "{outcome:?}");
        assert!(!outcome.limit_exhausted);
    }

    /// Structural keys are sound: for every fixed-function kind, fanin
    /// order and complement pattern, the gate computes its key's gate with
    /// the returned output complement; every complement pattern of an XOR
    /// kind shares one key, and a majority key has at most one complemented
    /// fanin.
    #[test]
    fn gate_keys_preserve_the_gate_function() {
        use glsx_network::simulation::evaluate_function;
        let function = TruthTable::zero(3);
        let evaluate = |kind: GateKind, fanins: &[Signal]| {
            let tts: Vec<TruthTable> = fanins
                .iter()
                .map(|s| {
                    let tt = TruthTable::nth_var(3, s.node() as usize - 1);
                    if s.is_complemented() {
                        !&tt
                    } else {
                        tt
                    }
                })
                .collect();
            evaluate_function(&function, kind, &tts)
        };
        for kind in [GateKind::And, GateKind::Xor, GateKind::Maj, GateKind::Xor3] {
            let arity = kind.arity().unwrap();
            let mut keys = HashSet::new();
            for mask in 0..1u32 << arity {
                for reversed in [false, true] {
                    let mut fanins: Vec<Signal> = (0..arity)
                        .map(|i| Signal::new(i as NodeId + 1, (mask >> i) & 1 == 1))
                        .collect();
                    if reversed {
                        fanins.reverse();
                    }
                    let ((key_kind, key), complement) = gate_key(kind, &fanins).unwrap();
                    assert_eq!(key_kind, kind);
                    let expected = evaluate(kind, &fanins);
                    let keyed = evaluate(kind, &key[..arity]);
                    let keyed = if complement { !&keyed } else { keyed };
                    assert_eq!(keyed, expected, "{kind:?} {fanins:?}");
                    if kind == GateKind::Maj {
                        assert!(key.iter().filter(|s| s.is_complemented()).count() <= 1);
                    }
                    keys.insert(key);
                }
            }
            let distinct = match kind {
                GateKind::And => 1 << arity,
                GateKind::Maj => 4,
                _ => 1,
            };
            assert_eq!(keys.len(), distinct, "{kind:?}");
        }
        assert!(gate_key(GateKind::Lut, &[Signal::new(1, false)]).is_none());
    }

    /// Two 16-input AND chains that differ in the polarity of the last
    /// input: they disagree on two of 65,536 patterns, which the random
    /// simulation words miss.  The shared prefix maps structurally, the
    /// last gate's simulation candidate (the constant) is refuted by SAT,
    /// and the residual miter finds a distinguishing input.
    #[test]
    fn rare_differences_are_refuted_by_sat() {
        let build = |last_complemented: bool| {
            let mut aig = Aig::new();
            let pis: Vec<Signal> = (0..16).map(|_| aig.create_pi()).collect();
            let mut chain = pis[0];
            for &pi in &pis[1..15] {
                chain = aig.create_and(chain, pi);
            }
            let root = aig.create_and(chain, pis[15].complement_if(last_complemented));
            aig.create_po(root);
            aig
        };
        let (a, b) = (build(false), build(true));
        let outcome = check_equivalence(&a, &b);
        let EquivalenceResult::Inequivalent(cex) = &outcome.result else {
            panic!("expected a refutation: {outcome:?}");
        };
        let patterns: Vec<u64> = cex.iter().map(|&v| u64::from(v)).collect();
        assert_ne!(
            simulate_patterns(&a, &patterns)[0] & 1,
            simulate_patterns(&b, &patterns)[0] & 1,
            "cex does not distinguish"
        );
        assert_eq!(outcome.work.structural, 14, "{outcome:?}");
        assert_eq!(outcome.work.refuted, 1, "{outcome:?}");
        assert_eq!(outcome.work.residual_outputs, 1, "{outcome:?}");
        assert!(!outcome.limit_exhausted);
    }

    /// Both 16-input AND chains of the test above as the two outputs of one
    /// network, checked against the same network with its outputs swapped.
    /// Every gate maps structurally, but each output maps onto the other
    /// chain, and the two differ on too few patterns for simulation: only
    /// the residual miter can refute the pair.
    #[test]
    fn outputs_mapped_onto_other_nodes_are_compared_by_the_residual_miter() {
        let build = |swapped: bool| {
            let mut aig = Aig::new();
            let pis: Vec<Signal> = (0..16).map(|_| aig.create_pi()).collect();
            let mut chain = pis[0];
            for &pi in &pis[1..15] {
                chain = aig.create_and(chain, pi);
            }
            let roots = [
                aig.create_and(chain, pis[15]),
                aig.create_and(chain, !pis[15]),
            ];
            aig.create_po(roots[usize::from(swapped)]);
            aig.create_po(roots[usize::from(!swapped)]);
            aig
        };
        let (a, b) = (build(false), build(true));
        let outcome = check_equivalence(&a, &b);
        let EquivalenceResult::Inequivalent(cex) = &outcome.result else {
            panic!("expected a refutation: {outcome:?}");
        };
        let patterns: Vec<u64> = cex.iter().map(|&v| u64::from(v)).collect();
        assert_ne!(
            simulate_patterns(&a, &patterns),
            simulate_patterns(&b, &patterns),
            "cex does not distinguish"
        );
        assert_eq!(outcome.work.structural, b.num_gates(), "{outcome:?}");
        assert_eq!(outcome.work.residual_outputs, 2, "{outcome:?}");
    }

    /// `record_choices` keeps every proven cone alive as a ring member of
    /// its representative: fanouts are rewired (the outputs merge exactly
    /// like a destructive sweep) but no logic disappears, and the rings
    /// carry the proven polarity.
    #[test]
    fn record_choices_keeps_proven_cones_as_ring_members() {
        let mut aig = Aig::new();
        let a = aig.create_pi();
        let b = aig.create_pi();
        let s = aig.create_pi();
        let x = aig.create_and(a, b);
        let dup = redundant_copy(&mut aig, x, s);
        aig.create_po(x);
        aig.create_po(!dup);
        let reference = aig.clone();
        let before = aig.num_gates();
        let stats = sweep(
            &mut aig,
            &SweepParams {
                record_choices: true,
                ..SweepParams::default()
            },
        );
        assert!(stats.proven >= 1, "{stats:?}");
        assert_eq!(stats.choices_recorded, stats.proven, "{stats:?}");
        // outputs merged onto the representative (with the proven polarity)
        let pos = aig.po_signals();
        assert_eq!(pos[1], !pos[0]);
        // but the losing cone is alive, ringed to the representative
        assert_eq!(aig.num_gates(), before, "no logic was deleted");
        assert!(aig.num_choice_nodes() >= 1);
        assert_eq!(aig.choice_repr(dup.node()), x.node());
        // `dup` is an OR built as a complemented AND: the ring phase is
        // the polarity of the *node* relative to the representative
        assert_eq!(aig.choice_phase(dup.node()), dup.is_complemented());
        glsx_network::views::check_choice_integrity(&aig).unwrap();
        assert!(check_equivalence(&reference, &aig).is_equivalent());
        // every ring member simulates to its representative (modulo the
        // recorded phase) — the functional half of the ring invariant
        let sim = WordSimulator::random(&aig, 4, 0x1234);
        aig.foreach_choice(x.node(), |member, phase| {
            for w in 0..sim.num_words() {
                let repr_word = sim.word(w, x.node());
                let member_word = sim.word(w, member);
                let expected = if phase { !repr_word } else { repr_word };
                assert_eq!(member_word, expected, "member {member} diverged");
            }
        });
    }

    /// Choice registration handles antivalent pairs through the ring
    /// phase, and a choices-on sweep of an irredundant network records
    /// nothing.
    #[test]
    fn record_choices_stores_antivalent_polarity() {
        let mut aig = Aig::new();
        let a = aig.create_pi();
        let s = aig.create_pi();
        let q1 = aig.create_and(a, s);
        let q2 = aig.create_and(a, !s);
        let r = aig.create_and(!q1, !q2); // == !a — antivalent to the PI
        aig.create_po(!r);
        aig.create_po(a);
        let reference = aig.clone();
        let stats = sweep(
            &mut aig,
            &SweepParams {
                record_choices: true,
                ..SweepParams::default()
            },
        );
        // the candidate's representative is the PI `a`: a non-gate cannot
        // ring a choice, so the pair is proven but skipped — the network
        // must survive unchanged and equivalent
        assert!(stats.proven + stats.skipped >= 1, "{stats:?}");
        glsx_network::views::check_choice_integrity(&aig).unwrap();
        assert!(check_equivalence(&reference, &aig).is_equivalent());
    }

    /// The engine carries pattern words across sweeps: the second sweep
    /// starts from the recycled words (observable in the stats) and never
    /// attempts more candidate pairs than a fresh sweep of the same network
    /// would.
    #[test]
    fn sweep_engine_recycles_words_across_sweeps() {
        let mut aig = colliding_cones(0xfeed_f00d, 60, 5);
        let params = SweepParams {
            num_words: 1, // provoke collisions → real refinement rounds
            ..SweepParams::default()
        };
        let mut engine = SweepEngine::new();
        let reference = aig.clone();
        let first = sweep_with_engine(&mut aig, &params, &mut engine);
        assert_eq!(first.recycled_words, 0, "first sweep starts fresh");
        assert!(
            engine.num_pattern_words() >= 1,
            "the engine must carry the accumulated words"
        );
        // a fresh engine's first sweep is bit-identical to plain sweep()
        let mut plain = reference.clone();
        let plain_stats = sweep(&mut plain, &params);
        assert_eq!(first, plain_stats);
        assert_eq!(aig.po_signals(), plain.po_signals());

        // second sweep over the (already swept) network: starts from the
        // recycled words and classes collapse without re-earning them
        let fresh_second = {
            let mut copy = aig.clone();
            sweep(&mut copy, &params)
        };
        let engine_second = sweep_with_engine(&mut aig, &params, &mut engine);
        assert_eq!(
            engine_second.recycled_words,
            engine.num_pattern_words(),
            "second sweep must inherit the engine's words: {engine_second:?}"
        );
        assert!(engine_second.recycled_words >= 1);
        assert!(
            engine_second.candidate_pairs <= fresh_second.candidate_pairs,
            "recycled words can only refine classes: {engine_second:?} vs {fresh_second:?}"
        );
        assert!(
            engine_second.refuted <= fresh_second.refuted,
            "recycled counterexamples are not rediscovered: {engine_second:?} vs {fresh_second:?}"
        );
        assert!(check_equivalence(&reference, &aig).is_equivalent());
    }

    #[test]
    fn sweeping_an_irredundant_network_is_a_no_op() {
        let mut aig = Aig::new();
        let a = aig.create_pi();
        let b = aig.create_pi();
        let c = aig.create_pi();
        let ab = aig.create_and(a, b);
        let f = aig.create_xor(ab, c);
        aig.create_po(f);
        let before = aig.num_gates();
        let stats = sweep(&mut aig, &SweepParams::default());
        assert_eq!(stats.proven, 0, "{stats:?}");
        assert_eq!(aig.num_gates(), before);
    }

    /// A starved verification budget must come back as `Unknown` with
    /// `limit_exhausted` set — distinguishable from a genuine failure —
    /// while the same check without limits proves equivalence cleanly and
    /// reports `limit_exhausted: false`.
    #[test]
    fn exhausted_verification_budgets_are_flagged_as_limit_unknowns() {
        let (reference, aig) = parity_chain_and_tree();
        let starved = check_equivalence_with_limits(&reference, &aig, None, Some(1));
        assert_eq!(starved.result, EquivalenceResult::Unknown);
        assert!(starved.limit_exhausted, "{starved:?}");
        let full = check_equivalence(&reference, &aig);
        assert!(full.is_equivalent());
        assert!(!full.limit_exhausted, "{full:?}");
    }

    /// Twenty-four redundant copies of distinct two-input ANDs over eight
    /// inputs: one provable candidate pair per copy.
    fn redundant_pairs() -> Aig {
        let mut aig = Aig::new();
        let pis: Vec<Signal> = (0..8).map(|_| aig.create_pi()).collect();
        for i in 0..24 {
            let (a, k) = (i % 8, 1 + i / 8);
            let x = aig.create_and(pis[a], pis[(a + k) % 8]);
            let dup = redundant_copy(&mut aig, x, pis[(a + 5) % 8]);
            aig.create_po(dup);
        }
        aig
    }

    /// A budgeted sweep stops cleanly and within one pair: the budget is
    /// charged per candidate pair inside the prove phase, so at every tick
    /// limit fewer pairs are attempted than the budget has ticks, the merge
    /// count never exceeds the unlimited run's, the network stays
    /// equivalent to its input, and small limits report the exhaustion.
    /// A finite budget is deterministic: two runs at the same limit return
    /// equal statistics and equal networks.
    #[test]
    fn budgeted_sweep_commits_an_equivalent_prefix() {
        let reference = redundant_pairs();
        let unlimited = Budget::unlimited();
        let full = sweep_traced(
            &mut redundant_pairs(),
            &SweepParams::default(),
            &mut SweepEngine::new(),
            &unlimited,
            &Tracer::off(),
        );
        assert!(full.candidate_pairs >= 20, "{full:?}");
        let run = |limit: u64| {
            let mut aig = redundant_pairs();
            let stats = sweep_traced(
                &mut aig,
                &SweepParams::default(),
                &mut SweepEngine::new(),
                &Budget::with_ticks(limit),
                &Tracer::off(),
            );
            let gates: Vec<_> = aig
                .gate_nodes()
                .into_iter()
                .map(|g| aig.fanins(g))
                .collect();
            let structure = (aig.size(), aig.po_signals(), gates);
            (stats, aig, structure)
        };
        let mut saw_exhausted = false;
        for limit in 0..=unlimited.spent() + 1 {
            let (stats, aig, structure) = run(limit);
            assert!(
                stats.candidate_pairs as u64 <= limit.saturating_sub(1),
                "limit {limit}: {stats:?}"
            );
            assert!(stats.proven <= full.proven, "{stats:?}");
            assert!(
                check_equivalence(&reference, &aig).is_equivalent(),
                "limit {limit}: {stats:?}"
            );
            let (again, _, again_structure) = run(limit);
            assert_eq!(again, stats, "limit {limit}: statistics differ");
            assert_eq!(again_structure, structure, "limit {limit}: networks differ");
            saw_exhausted |= !stats.outcome.is_completed();
        }
        assert!(saw_exhausted, "no limit exhausted");
    }

    /// A panic inside the prove phase — here an injected budget fault —
    /// reaches the caller with its payload intact, which is how the
    /// guarded executor recognises it.
    #[test]
    fn prove_phase_panics_reach_the_caller_with_their_payload() {
        use glsx_network::budget::INJECTED_PANIC_MESSAGE;
        use glsx_network::InjectedFault;
        let mut aig = redundant_pairs();
        let budget = Budget::unlimited().inject(InjectedFault::Panic, 3);
        let payload = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            sweep_traced(
                &mut aig,
                &SweepParams::default(),
                &mut SweepEngine::new(),
                &budget,
                &Tracer::off(),
            )
        }))
        .expect_err("the injected panic must reach the caller");
        let message = payload
            .downcast_ref::<String>()
            .cloned()
            .unwrap_or_default();
        assert!(message.starts_with(INJECTED_PANIC_MESSAGE), "{message:?}");
    }

    /// The solve statistics are summed once per sweep into `fraig.sat.*`:
    /// the conflict counter equals the sweep's own total, and a second
    /// sweep on the same engine adds only its own work.
    #[test]
    fn traced_sweeps_count_their_sat_work() {
        use glsx_network::telemetry::TraceMode;
        let tracer = Tracer::new(TraceMode::Counters);
        let params = SweepParams::default();
        let mut engine = SweepEngine::new();
        let (mut aig, _) = parity_pair();
        let budget = Budget::unlimited();
        let first = sweep_traced(&mut aig, &params, &mut engine, &budget, &tracer);
        assert!(first.conflicts > 0, "{first:?}");
        let metrics = tracer.metrics();
        assert_eq!(metrics.counter("fraig.sat.conflicts"), first.conflicts);
        assert!(metrics.counter("fraig.sat.propagations") > 0);
        let second = sweep_traced(&mut aig, &params, &mut engine, &budget, &tracer);
        assert_eq!(
            tracer.metrics().counter("fraig.sat.conflicts"),
            first.conflicts + second.conflicts
        );
    }

    /// `base` with seeded redundant copies and restructured alternatives
    /// of its cones, each driving a fresh output.
    fn injected<N: Network + GateBuilder>(mut ntk: N, seed: u64) -> N {
        glsx_benchmarks::inject_redundancy(&mut ntk, 12, seed);
        glsx_benchmarks::inject_restructured(&mut ntk, 12, seed ^ 0x5a5a);
        ntk
    }

    /// A windowed sweep (`sweep_pass` with [`WINDOW_GATES`]) and the
    /// full-cone oracle (bound 0) of `input`; both results are checked
    /// against the input by exhaustive simulation.
    fn windowed_and_full<N: Network + Clone>(
        input: &N,
        params: &SweepParams,
        case: &str,
    ) -> (SweepStats, SweepStats) {
        let run = |window_gates: usize| {
            let mut ntk = input.clone();
            let stats = sweep_pass(
                &mut ntk,
                params,
                &mut SweepEngine::new(),
                &Budget::unlimited(),
                &Tracer::off(),
                window_gates,
            );
            assert!(
                equivalent_by_simulation(input, &ntk),
                "{case}, window {window_gates}: the sweep changed the function: {stats:?}"
            );
            stats
        };
        (run(WINDOW_GATES), run(0))
    }

    /// Windowed sweeping proves and merges exactly what the full-cone
    /// oracle does on seeded AIGs, XAGs, MIGs and XMGs with injected
    /// redundant and restructured cones, with and without choices, and
    /// both results are exhaustively equivalent to the input.  One initial
    /// pattern word forces refutations, so pairs with a satisfiable window
    /// reach the fallback — a window that answered "proven" on `SAT`
    /// would merge inequivalent nodes and fail the simulation check.
    #[test]
    fn windowed_sweep_matches_the_full_cone_oracle() {
        use glsx_benchmarks::arithmetic::{adder, multiplier};
        use glsx_network::Xmg;
        fn cases<N: Network + GateBuilder + Clone>(name: &str, totals: &mut [usize; 3]) {
            for (circuit, base) in [("multiplier_4", multiplier::<N>(4)), ("adder_6", adder(6))] {
                for seed in [1u64, 2] {
                    let input = injected(base.clone(), seed);
                    for record_choices in [false, true] {
                        for num_words in [1, 4] {
                            let params = SweepParams {
                                record_choices,
                                num_words,
                                ..SweepParams::default()
                            };
                            let case = format!(
                                "{name} {circuit} seed {seed} choices {record_choices} words {num_words}"
                            );
                            let (windowed, full) = windowed_and_full(&input, &params, &case);
                            assert_eq!(windowed.proven, full.proven, "{case}");
                            assert_eq!(windowed.gates_after, full.gates_after, "{case}");
                            assert_eq!(full.window_proven, 0, "{case}");
                            assert!(windowed.window_proven <= windowed.proven, "{case}");
                            totals[0] += windowed.window_proven;
                            totals[1] += windowed.proven - windowed.window_proven;
                            totals[2] += windowed.refuted;
                        }
                    }
                }
            }
        }
        let mut totals = [0usize; 3];
        cases::<Aig>("aig", &mut totals);
        cases::<Xag>("xag", &mut totals);
        cases::<Mig>("mig", &mut totals);
        cases::<Xmg>("xmg", &mut totals);
        let [in_window, fell_back, refuted] = totals;
        assert!(in_window > 0, "no pair closed in its window: {totals:?}");
        assert!(
            fell_back > 0,
            "no proven pair needed the fallback: {totals:?}"
        );
        assert!(
            refuted > 0,
            "no satisfiable window reached the fallback: {totals:?}"
        );
    }

    /// Every pair a window proves is equivalent by exhaustive simulation:
    /// the window is tried on every pair that one random pattern word
    /// cannot tell apart (the candidates a sweep would see), equivalent or
    /// not, in AIGs, XAGs, MIGs and XMGs with injected cones.
    #[test]
    fn window_unsat_pairs_are_equivalent_by_exhaustive_simulation() {
        use glsx_benchmarks::arithmetic::multiplier;
        use glsx_network::simulation::simulate_nodes;
        use glsx_network::Xmg;
        fn check<N: Network + GateBuilder>(ntk: &N, counts: &mut [usize; 3]) {
            let tts = simulate_nodes(ntk);
            let sim = WordSimulator::random(ntk, 1, 0x3d);
            let mut nodes: Vec<NodeId> = std::iter::once(0).chain(ntk.pi_nodes()).collect();
            nodes.extend(ntk.gate_nodes());
            let mut rank = vec![u32::MAX; ntk.size()];
            for (r, &n) in nodes.iter().enumerate() {
                rank[n as usize] = r as u32;
            }
            let mut window = WindowProver::default();
            for (i, &repr) in nodes.iter().enumerate() {
                for &cand in &nodes[i + 1..] {
                    if sim.canonical_word(0, repr) != sim.canonical_word(0, cand) {
                        continue;
                    }
                    let antivalent = sim.phase(repr) != sim.phase(cand);
                    let equivalent = if antivalent {
                        tts[cand as usize] == !&tts[repr as usize]
                    } else {
                        tts[cand as usize] == tts[repr as usize]
                    };
                    let result = window
                        .solve_pair(
                            ntk,
                            &rank,
                            repr,
                            cand,
                            antivalent,
                            WINDOW_GATES,
                            (1_000, None),
                        )
                        .map(|(result, _)| result);
                    match result {
                        Some(SatResult::Unsat) => {
                            assert!(equivalent, "window proved {repr} ~ {cand}");
                            counts[0] += 1;
                        }
                        _ if equivalent => counts[1] += 1,
                        _ => counts[2] += 1,
                    }
                }
            }
        }
        let mut counts = [0usize; 3];
        check(&injected(multiplier::<Aig>(4), 3), &mut counts);
        check(&injected(multiplier::<Xag>(4), 3), &mut counts);
        check(&injected(multiplier::<Mig>(4), 3), &mut counts);
        check(&injected(multiplier::<Xmg>(4), 3), &mut counts);
        let [proven, missed, inequivalent] = counts;
        assert!(proven > 0, "{counts:?}");
        assert!(
            missed > 0,
            "no equivalent pair outgrew its window: {counts:?}"
        );
        assert!(
            inequivalent > 0,
            "no inequivalent candidate was tried: {counts:?}"
        );
    }

    /// Two parity trees over eight inputs, a chain and a balanced tree,
    /// share only their first XOR: proving the roots equal needs every
    /// gate above that XOR, 36 of the cones' 39.  The 16-gate window cannot
    /// close the pair; the full-cone fallback proves and merges it.
    #[test]
    fn pairs_beyond_the_window_fall_back_and_are_proven() {
        let mut aig = Aig::new();
        let pis: Vec<Signal> = (0..8).map(|_| aig.create_pi()).collect();
        let chain = xor_chain(&mut aig, &pis);
        let tree = xor_tree(&mut aig, &pis);
        aig.create_po(chain);
        aig.create_po(tree);
        let reference = aig.clone();
        let rank: Vec<u32> = (0..aig.size() as u32).collect();
        let mut window = WindowProver::default();
        let (repr, cand) = (chain.node().min(tree.node()), chain.node().max(tree.node()));
        let result = window.solve_pair(&aig, &rank, repr, cand, false, WINDOW_GATES, (1_000, None));
        assert_eq!(
            window.first.gates.len(),
            WINDOW_GATES,
            "the window hit its bound"
        );
        assert!(
            matches!(result, Some((SatResult::Sat, _))),
            "the window must not close the pair: {:?}",
            result.map(|(r, _)| r)
        );
        let stats = sweep(&mut aig, &SweepParams::default());
        assert!(stats.proven > stats.window_proven, "{stats:?}");
        let pos = aig.po_signals();
        assert_eq!(pos[0], pos[1], "the roots were merged: {stats:?}");
        assert!(equivalent_by_simulation(&reference, &aig));
    }

    /// `window_proven` repeats exactly, never exceeds `proven` or
    /// `candidate_pairs`, and reaches the metrics registry as
    /// `fraig.window_proven`.
    #[test]
    fn window_proven_counts_repeat_and_reach_the_registry() {
        use glsx_benchmarks::arithmetic::multiplier;
        use glsx_network::telemetry::TraceMode;
        let input = injected(multiplier::<Aig>(5), 7);
        let run = || {
            let tracer = Tracer::new(TraceMode::Counters);
            let mut ntk = input.clone();
            let stats = sweep_traced(
                &mut ntk,
                &SweepParams::default(),
                &mut SweepEngine::new(),
                &Budget::unlimited(),
                &tracer,
            );
            assert_eq!(
                tracer.metrics().counter("fraig.window_proven"),
                stats.window_proven as u64
            );
            stats
        };
        let first = run();
        assert!(first.window_proven > 0, "{first:?}");
        assert!(first.window_proven <= first.proven, "{first:?}");
        assert!(first.proven <= first.candidate_pairs, "{first:?}");
        assert_eq!(run(), first, "the sweep must repeat exactly");
    }

    /// The sweep of [`redundant_pairs`] keeps each output's AND and drops
    /// its re-expression: checked against its input, every gate maps
    /// structurally, and each of the 24 outputs maps onto the AND, a
    /// different node than the input's own output.  The output windows
    /// close all 24, so the residual miter compares nothing.
    #[test]
    fn output_windows_close_redundant_outputs() {
        let input = redundant_pairs();
        let mut swept = input.clone();
        sweep(&mut swept, &SweepParams::default());
        let outcome = check_equivalence(&input, &swept);
        assert!(outcome.is_equivalent(), "{outcome:?}");
        assert_eq!(outcome.work.structural, swept.num_gates(), "{outcome:?}");
        assert_eq!(outcome.work.window_outputs, 24, "{outcome:?}");
        assert_eq!(outcome.work.residual_outputs, 0, "{outcome:?}");
    }

    /// A verification budget that runs out inside a window ends the check
    /// as `Unknown` with `limit_exhausted`, and the window's work is
    /// charged.  Checked the other way round, the sweep of
    /// [`redundant_pairs`] maps each re-expression onto its AND in a gate
    /// window and the shared solver never solves, so every propagation
    /// limit below the unlimited check's total stops inside a window.
    #[test]
    fn budgets_run_out_inside_windows() {
        let input = redundant_pairs();
        let mut swept = input.clone();
        sweep(&mut swept, &SweepParams::default());
        let full = check_equivalence_with_limits(&swept, &input, None, None);
        assert!(full.is_equivalent(), "{full:?}");
        assert_eq!(full.work.window_proven, 24, "{full:?}");
        assert_eq!(full.work.proven, 24, "{full:?}");
        assert_eq!(full.work.residual_outputs, 0, "{full:?}");
        let total = full.solver.propagations;
        assert!(total > 1, "{full:?}");
        for limit in [1, total / 2] {
            let starved = check_equivalence_with_limits(&swept, &input, None, Some(limit));
            assert_eq!(starved.result, EquivalenceResult::Unknown, "{starved:?}");
            assert!(starved.limit_exhausted, "{starved:?}");
            assert!(starved.work.window_proven < 24, "{starved:?}");
            assert!(starved.solver.propagations >= limit, "{starved:?}");
        }
        let conflicts = full.solver.conflicts;
        assert!(conflicts > 1, "{full:?}");
        let starved = check_equivalence_with_limits(&swept, &input, Some(conflicts / 2), None);
        assert_eq!(starved.result, EquivalenceResult::Unknown, "{starved:?}");
        assert!(starved.limit_exhausted, "{starved:?}");
    }

    /// The windowed check against the window-free oracle (`check_pass`
    /// with bound 0, every proof on the shared solver) and exhaustive
    /// simulation.  Seeded AIGs, XAGs, MIGs and XMGs with injected
    /// redundant and restructured cones are checked, both ways, against
    /// their sweep and against copies of the sweep with one gate replaced
    /// by one of its fanins.  Both checkers must return the verdict of
    /// exhaustive simulation, every counterexample must tell an output
    /// pair apart, the oracle opens no window, and gate windows, output
    /// windows and shared-solver proofs after an open window are all
    /// exercised.
    #[test]
    fn windowed_check_matches_the_window_free_oracle() {
        use glsx_benchmarks::arithmetic::{adder, multiplier};
        use glsx_network::Xmg;
        fn agree<N: Network>(a: &N, b: &N, case: &str, totals: &mut [usize; 4]) {
            let expected = equivalent_by_simulation(a, b);
            let limit = Some(DEFAULT_CEC_CONFLICT_LIMIT);
            let windowed = check_pass(a, b, limit, None, WINDOW_GATES);
            let oracle = check_pass(a, b, limit, None, 0);
            for outcome in [&windowed, &oracle] {
                match &outcome.result {
                    EquivalenceResult::Equivalent => assert!(expected, "{case}: {outcome:?}"),
                    EquivalenceResult::Inequivalent(cex) => {
                        assert!(!expected, "{case}: {outcome:?}");
                        let patterns: Vec<u64> = cex.iter().map(|&v| u64::from(v)).collect();
                        let (oa, ob) = (
                            simulate_patterns(a, &patterns),
                            simulate_patterns(b, &patterns),
                        );
                        assert!(
                            oa.iter().zip(&ob).any(|(x, y)| (x ^ y) & 1 == 1),
                            "{case}: the counterexample distinguishes no output"
                        );
                    }
                    EquivalenceResult::Unknown => panic!("{case}: no verdict {outcome:?}"),
                }
            }
            let w = &windowed.work;
            assert_eq!(oracle.work.window_proven, 0, "{case}");
            assert_eq!(oracle.work.window_outputs, 0, "{case}");
            assert!(w.window_proven <= w.proven, "{case}: {w:?}");
            totals[0] += w.window_proven;
            totals[1] += w.window_outputs;
            totals[2] += w.proven - w.window_proven;
            totals[3] += usize::from(!expected);
        }
        fn cases<N: Network + GateBuilder + Clone>(name: &str, totals: &mut [usize; 4]) {
            for (circuit, base) in [("multiplier_4", multiplier::<N>(4)), ("adder_6", adder(6))] {
                for seed in [1u64, 2] {
                    let input = injected(base.clone(), seed);
                    let mut swept = input.clone();
                    sweep(&mut swept, &SweepParams::default());
                    let case = format!("{name} {circuit} seed {seed}");
                    agree(&input, &swept, &case, totals);
                    agree(&swept, &input, &format!("{case} reversed"), totals);
                    let gates = swept.gate_nodes();
                    for &g in gates.iter().step_by(gates.len() / 3 + 1) {
                        let mut mutant = swept.clone();
                        mutant.substitute_node(g, swept.fanin(g, 0));
                        let case = format!("{case} gate {g} replaced");
                        agree(&input, &mutant, &case, totals);
                        agree(&mutant, &input, &format!("{case} reversed"), totals);
                    }
                }
            }
        }
        let mut totals = [0usize; 4];
        cases::<Aig>("aig", &mut totals);
        cases::<Xag>("xag", &mut totals);
        cases::<Mig>("mig", &mut totals);
        cases::<Xmg>("xmg", &mut totals);
        let [gate_windows, output_windows, fallbacks, inequivalent] = totals;
        assert!(gate_windows > 0, "no gate closed in its window: {totals:?}");
        assert!(
            output_windows > 0,
            "no output closed in its window: {totals:?}"
        );
        assert!(
            fallbacks > 0,
            "no proof needed the shared solver: {totals:?}"
        );
        assert!(inequivalent > 0, "no inequivalent case: {totals:?}");
    }
}
