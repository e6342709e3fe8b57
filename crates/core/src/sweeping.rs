//! SAT sweeping (fraiging): proving and merging functionally equivalent
//! nodes, plus the miter-based combinational equivalence checker.
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
//! 2. **Prove** each candidate pair with the CDCL solver: a miter over a
//!    lazily built Tseitin encoding of the two cones is solved under a
//!    per-pair conflict budget.  `UNSAT` is a proof of equivalence and the
//!    candidate is merged into the class representative through the
//!    [`Replacer`](crate::Replacer) machinery; `SAT` yields a
//!    counterexample; a budget timeout skips the pair, so sweeping
//!    degrades gracefully on hard instances instead of stalling.
//! 3. **Refine**: counterexamples are packed into fresh simulation pattern
//!    words and the network is re-simulated, splitting every class the new
//!    patterns distinguish.  The loop repeats until no counterexamples
//!    remain (or [`SweepParams::max_rounds`] is reached).  Class
//!    maintenance is *incremental* by default: new words can only split
//!    classes, so only the members of surviving multi-member classes are
//!    re-hashed, and only on the words appended that round — visiting
//!    candidate pairs in exactly the order a full re-sort would (the
//!    verified [`SweepParams::incremental_classes`] contract).
//!
//! Merges happen only on `UNSAT` answers — there are no simulation-only
//! merges, so a sweep is an equivalence-preserving transformation by
//! construction.  The same CNF machinery powers [`check_equivalence`], the
//! public miter entry point used by the test suite and the bench smoke
//! mode to verify whole optimisation passes end to end.
//!
//! The CNF is built incrementally: one solver per sweep, one variable per
//! encoded node, cones encoded on demand with the cone walk's visited set
//! in an encoder-owned [`LocalScratch`] — no per-candidate maps.  The
//! encoding stays consistent across merges because node functions never
//! change: a merged node's clauses keep defining its variable as the
//! function of its (former) cone, which the proof showed equals the
//! representative's.

use crate::replace::Replacer;
use glsx_network::telemetry::{self, BatchSpans, MetricsSource, Tracer, BATCH_INTERVAL};
use glsx_network::wordsim::WordSimulator;
use glsx_network::{
    Budget, GateKind, LocalScratch, Network, NodeId, Parallelism, Signal, StepOutcome,
};
use glsx_sat::{Lit, SatResult, Solver, SolverStats, Var};

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
    /// Maintain equivalence classes incrementally across refinement rounds
    /// (default): new pattern words can only *split* classes, so after a
    /// counterexample round only the members of surviving multi-member
    /// classes are re-hashed, and only on the words appended that round —
    /// instead of re-sorting every live node on the full signature.  `false`
    /// selects the full re-sort, the from-scratch reference the incremental
    /// path is verified against (both visit candidate pairs in exactly the
    /// same order).
    pub incremental_classes: bool,
    /// Keep every proven-equivalent cone as a structural *choice* of its
    /// class representative instead of deleting it: fanouts are still
    /// rewired onto the representative, but the losing cone stays alive in
    /// the representative's choice ring (see [`glsx_network::choices`]),
    /// available to choice-aware cut enumeration and LUT mapping.  The
    /// default `false` is the classic destructive fraig.
    pub record_choices: bool,
    /// *Phased* proving: every candidate class of a round is proven
    /// against the frozen network on its own fresh solver — distributed
    /// across the configured worker threads — and the proven merges are
    /// applied serially in class order afterwards.  Each class's outcomes
    /// are a pure function of the class alone, so the result is
    /// bit-identical at every thread count (1 included).  `None` (the
    /// default) selects the legacy interleaved prove-and-merge schedule
    /// with one incremental, recycled solver; the phased schedule is a
    /// *different* algorithm (proofs do not see earlier merges of the same
    /// round), so its result is equivalence-preserving but not bit-equal
    /// to the legacy one — CI miter-proves the two against each other.
    pub parallel_proving: Option<Parallelism>,
}

impl Default for SweepParams {
    fn default() -> Self {
        Self {
            num_words: 4,
            seed: 0x5eed_ba5e_u64,
            conflict_limit: 1_000,
            max_rounds: 8,
            incremental_classes: true,
            record_choices: false,
            parallel_proving: None,
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
    /// Pairs refuted by a counterexample (classes split next round).
    pub refuted: usize,
    /// Distinct pairs given up on: the conflict budget ran out, or a
    /// proven pair could not be merged structurally.  Each such pair is
    /// counted once and not retried in later rounds; its nodes stay
    /// unmerged.
    pub skipped: usize,
    /// Total SAT conflicts spent.
    pub conflicts: u64,
    /// Nodes (re-)hashed into candidate classes over all rounds.  Under
    /// incremental class maintenance only members of surviving
    /// multi-member classes are re-hashed after round one; under the full
    /// re-sort every live node is, every round.  The two modes are
    /// otherwise bit-identical, so this counter is the work the
    /// incremental path saves.
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
    /// The conflict budget ran out before a verdict.
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
    /// Aggregate statistics of the miter solve (conflicts, decisions,
    /// propagations, restarts).
    pub solver: SolverStats,
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

/// Sentinel for "no SAT variable assigned yet".
const NO_VAR: u32 = u32::MAX;

/// Lazy Tseitin encoder of one network into a shared [`Solver`].
///
/// One variable per encoded node; cones are encoded on demand by a DFS
/// whose visited set lives in an encoder-owned [`LocalScratch`] (O(1)
/// start per call, no per-candidate maps, and — because the scratch is
/// thread-local, not the network's shared slots — any number of encoders
/// can walk the same network concurrently, which phased parallel proving
/// relies on).  Encoded clauses stay valid for the lifetime of the solver
/// even when nodes die: node ids are never reused and a dead node's
/// clauses still define its variable as its former cone's function over
/// the primary-input variables.
#[derive(Debug)]
struct CnfEncoder {
    /// `vars[node]` = SAT variable index of the node, or [`NO_VAR`].
    vars: Vec<u32>,
    stack: Vec<NodeId>,
    clause: Vec<Lit>,
    fanin_lits: Vec<Lit>,
    /// DFS "fanins already scheduled" marks of [`CnfEncoder::encode_cone`].
    expanded: LocalScratch,
}

impl CnfEncoder {
    fn new(num_nodes: usize) -> Self {
        Self {
            vars: vec![NO_VAR; num_nodes],
            stack: Vec::new(),
            clause: Vec::new(),
            fanin_lits: Vec::new(),
            expanded: LocalScratch::new(),
        }
    }

    /// Grows the variable table to cover `num_nodes` node ids (recycling
    /// hook: a solver carried across the sweeps of one flow keeps every
    /// encoded clause — node ids are never reused and every pass preserves
    /// each node's function over the primary inputs, so old clauses stay
    /// sound — while nodes created since simply encode on first demand).
    fn ensure_len(&mut self, num_nodes: usize) {
        if self.vars.len() < num_nodes {
            self.vars.resize(num_nodes, NO_VAR);
        }
    }

    /// The literal representing `signal` (edge complement applied).  The
    /// signal's cone must already be encoded.
    #[inline]
    fn lit_of(&self, signal: Signal) -> Lit {
        let var = self.vars[signal.node() as usize];
        debug_assert_ne!(var, NO_VAR, "signal cone not encoded");
        Lit::new(Var::from_index(var as usize), !signal.is_complemented())
    }

    /// Returns the SAT variable of `node`, encoding its cone down to the
    /// primary inputs on first demand.
    fn var_of<N: Network>(&mut self, ntk: &N, solver: &mut Solver, node: NodeId) -> Var {
        if self.vars[node as usize] == NO_VAR {
            self.encode_cone(ntk, solver, node);
        }
        Var::from_index(self.vars[node as usize] as usize)
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
            if self.vars[node as usize] != NO_VAR {
                self.stack.pop();
                continue;
            }
            if !ntk.is_gate(node) {
                // leaves: primary inputs are free variables, the constant
                // node is pinned to zero
                let var = solver.new_var();
                self.vars[node as usize] = var.index() as u32;
                if ntk.is_constant(node) {
                    solver.add_clause(&[Lit::negative(var)]);
                }
                self.stack.pop();
                continue;
            }
            if self.expanded.mark(node) {
                let before = self.stack.len();
                ntk.foreach_fanin(node, |f| {
                    if self.vars[f.node() as usize] == NO_VAR {
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

    /// Emits the Tseitin clauses of one gate whose fanins are all encoded.
    fn encode_gate<N: Network>(&mut self, ntk: &N, solver: &mut Solver, node: NodeId) {
        self.fanin_lits.clear();
        for index in 0..ntk.fanin_size(node) {
            self.fanin_lits.push(self.lit_of(ntk.fanin(node, index)));
        }
        let g = solver.new_var();
        self.vars[node as usize] = g.index() as u32;
        let g_pos = Lit::positive(g);
        let g_neg = Lit::negative(g);
        match ntk.gate_kind(node) {
            GateKind::And => {
                let (a, b) = (self.fanin_lits[0], self.fanin_lits[1]);
                solver.add_clause(&[g_neg, a]);
                solver.add_clause(&[g_neg, b]);
                solver.add_clause(&[g_pos, !a, !b]);
            }
            GateKind::Xor => {
                let (a, b) = (self.fanin_lits[0], self.fanin_lits[1]);
                solver.add_clause(&[g_neg, a, b]);
                solver.add_clause(&[g_neg, !a, !b]);
                solver.add_clause(&[g_pos, !a, b]);
                solver.add_clause(&[g_pos, a, !b]);
            }
            GateKind::Maj => {
                let (a, b, c) = (self.fanin_lits[0], self.fanin_lits[1], self.fanin_lits[2]);
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
                debug_assert_eq!(function.num_bits(), 1 << self.fanin_lits.len());
                for m in 0..function.num_bits() {
                    self.clause.clear();
                    for (i, &lit) in self.fanin_lits.iter().enumerate() {
                        // literal falsified exactly under minterm m
                        self.clause.push(if (m >> i) & 1 == 1 { !lit } else { lit });
                    }
                    self.clause
                        .push(if function.bit(m) { g_pos } else { g_neg });
                    solver.add_clause(&self.clause);
                }
            }
        }
    }
}

/// Outcome of one candidate-pair proof attempt.
enum PairOutcome {
    /// The miter is unsatisfiable: the pair is equivalent (modulo the
    /// claimed polarity).
    Proven,
    /// A distinguishing input assignment was found.
    Refuted(Vec<bool>),
    /// The conflict budget ran out.
    Undecided,
}

/// Incremental miter engine of one sweep: a solver plus the lazy encoder,
/// reused across every candidate pair.
#[derive(Debug)]
struct MiterEngine {
    solver: Solver,
    enc: CnfEncoder,
    cex: Vec<bool>,
}

impl MiterEngine {
    fn new(num_nodes: usize) -> Self {
        Self {
            solver: Solver::new(),
            enc: CnfEncoder::new(num_nodes),
            cex: Vec::new(),
        }
    }

    /// Attempts to prove `cand == repr` (or `cand == !repr` when
    /// `antivalent`) under a conflict budget.
    fn prove_pair<N: Network>(
        &mut self,
        ntk: &N,
        repr: NodeId,
        cand: NodeId,
        antivalent: bool,
        conflict_limit: u64,
    ) -> PairOutcome {
        let va = self.enc.var_of(ntk, &mut self.solver, repr);
        let vb = self.enc.var_of(ntk, &mut self.solver, cand);
        // t <-> va xor vb; asking for a model of t == !antivalent is asking
        // for an input where the claimed relation is violated
        let t = self.solver.new_var();
        let (tp, tn) = (Lit::positive(t), Lit::negative(t));
        let (a, b) = (Lit::positive(va), Lit::positive(vb));
        self.solver.add_clause(&[tn, a, b]);
        self.solver.add_clause(&[tn, !a, !b]);
        self.solver.add_clause(&[tp, !a, b]);
        self.solver.add_clause(&[tp, a, !b]);
        self.solver.set_conflict_limit(Some(conflict_limit.max(1)));
        let result = self
            .solver
            .solve_with_assumptions(&[Lit::new(t, !antivalent)]);
        self.solver.set_conflict_limit(None);
        match result {
            SatResult::Unsat => PairOutcome::Proven,
            SatResult::Unknown => PairOutcome::Undecided,
            SatResult::Sat => {
                self.cex.clear();
                for pi in ntk.pi_nodes() {
                    let var = self.enc.vars[pi as usize];
                    // inputs outside both cones are unconstrained: any
                    // value exhibits the difference, pick false
                    self.cex.push(if var == NO_VAR {
                        false
                    } else {
                        self.solver
                            .value(Var::from_index(var as usize))
                            .unwrap_or(false)
                    });
                }
                PairOutcome::Refuted(self.cex.clone())
            }
        }
    }
}

/// Proof outcomes of one equivalence class under the phased schedule.
///
/// Produced on a frozen network by [`prove_class`], consumed in class
/// order by the serial apply phase of [`sweep_with_engine`].
struct ClassOutcomes {
    /// The representative every pair was proven against: the lowest-ranked
    /// member alive when the phase started (class members arrive in rank
    /// order).  Meaningless when `pairs` is empty.
    repr: NodeId,
    /// One `(candidate, antivalent, outcome)` entry per attempted pair, in
    /// class order.
    pairs: Vec<(NodeId, bool, PairOutcome)>,
    /// SAT conflicts spent on this class.
    conflicts: u64,
    /// SAT propagations spent on this class (charged back to an effort
    /// budget serially after the phase).
    propagations: u64,
}

/// Proves every candidate pair of one class against a frozen network.
///
/// The class gets a fresh [`MiterEngine`] (allocated lazily, only when a
/// provable pair exists), so its outcomes are a pure function of the
/// class, the network, the simulator and the no-retry set — independent
/// of which thread runs it and of what other classes run concurrently.
/// That purity is the phased schedule's determinism argument: any
/// chunking of the class list produces the same outcome vector.
fn prove_class<N: Network>(
    ntk: &N,
    class: &[NodeId],
    sim: &WordSimulator,
    no_retry: &std::collections::HashSet<(NodeId, NodeId)>,
    conflict_limit: u64,
    tracer: &Tracer,
) -> ClassOutcomes {
    let mut out = ClassOutcomes {
        repr: 0,
        pairs: Vec::new(),
        conflicts: 0,
        propagations: 0,
    };
    let mut engine: Option<MiterEngine> = None;
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
        if no_retry.contains(&(repr_node, node)) {
            continue;
        }
        let antivalent = sim.phase(repr_node) != sim.phase(node);
        let engine = engine.get_or_insert_with(|| {
            let mut engine = MiterEngine::new(ntk.size());
            // per-solve spans in full trace mode; purely observational
            engine.solver.set_tracer(tracer.clone());
            engine
        });
        let outcome = engine.prove_pair(ntk, repr_node, node, antivalent, conflict_limit);
        out.pairs.push((node, antivalent, outcome));
    }
    out.repr = repr.unwrap_or(0);
    if let Some(e) = engine {
        out.conflicts = e.solver.stats().conflicts;
        out.propagations = e.solver.stats().propagations;
    }
    out
}

/// Reusable state shared by the `fraig` steps of one flow: the simulation
/// pattern words (initial random patterns plus every counterexample
/// discovered so far) and the incremental miter solver with its lazily
/// built CNF.
///
/// Node functions never change inside a flow — every pass substitutes
/// nodes by *proven or constructed equivalents* and node ids are never
/// reused — so both halves stay valid across sweeps: recycled pattern
/// words still distinguish exactly the nodes they distinguished before
/// (later sweeps start from already-refined classes instead of re-earning
/// each counterexample with SAT conflicts), and every encoded clause still
/// defines its variable as its node's function over the primary inputs.
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
    /// The miter solver and lazy encoder, created on first use.
    miter: Option<MiterEngine>,
}

impl SweepEngine {
    /// Creates an empty engine (the first sweep through it behaves exactly
    /// like a stand-alone [`sweep`]).
    pub fn new() -> Self {
        Self::default()
    }

    /// Drops all recycled state (pattern words and solver).
    pub fn reset(&mut self) {
        self.patterns.clear();
        self.num_pis = 0;
        self.num_pos = 0;
        self.last_size = 0;
        self.miter = None;
    }

    /// Number of pattern words currently carried.
    pub fn num_pattern_words(&self) -> usize {
        self.patterns.len()
    }
}

/// Runs SAT sweeping on `ntk`: functionally equivalent (or antivalent)
/// nodes are detected by word-parallel simulation, proven by incremental
/// SAT and merged, removing the redundant cones (or — under
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
/// words and the miter solver across the `fraig` steps of one flow.  A
/// fresh engine reproduces [`sweep`] bit for bit.
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
/// SAT effort is folded into the tick currency: under the legacy schedule
/// the budget is polled before every candidate pair, each pair's solve
/// runs under the budget's remaining propagation allowance (so a single
/// hard miter cannot blow through the budget), and the spent propagations
/// are charged back.  Under the phased parallel schedule, workers never
/// touch the budget (their proof outcomes must stay a pure function of
/// the class); instead the whole round's pairs and conflicts are charged
/// serially after the phase and the budget is polled between rounds.
/// Either way an exhausted sweep stops cleanly — every committed merge is
/// backed by an `UNSAT` proof and stands.
///
/// The tracer records a `fraig` pass span with per-round spans, the
/// round phases (`classify`, `prove_parallel`/`prove_merge`, `apply`,
/// `resimulate`) as child spans, per-chunk worker spans in the phased
/// parallel schedule (one per thread lane), and the sweep plus solver
/// statistics absorbed into the metrics registry.  Observational only —
/// results are bit-identical at any trace mode.
pub fn sweep_traced<N: Network>(
    ntk: &mut N,
    params: &SweepParams,
    engine_state: &mut SweepEngine,
    budget: &Budget,
    tracer: &Tracer,
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
    // `merge_equivalent`'s cone walk (a refused merge is counted as
    // skipped and not retried).
    let mut rank = vec![u32::MAX; ntk.size()];
    let mut next_rank = 0u32;
    rank[0] = next_rank;
    for pi in ntk.pi_nodes() {
        next_rank += 1;
        rank[pi as usize] = next_rank;
    }
    for gate in ntk.gate_nodes() {
        next_rank += 1;
        rank[gate as usize] = next_rank;
    }

    // Phased proving builds a fresh solver per class (outcomes must be a
    // pure function of the class, independent of proof order), so the
    // recycled incremental miter is used — and kept — only by the legacy
    // schedule.
    let mut engine = if params.parallel_proving.is_none() {
        let engine = engine_state
            .miter
            .get_or_insert_with(|| MiterEngine::new(ntk.size()));
        engine.enc.ensure_len(ntk.size());
        // per-solve spans in full trace mode; purely observational
        engine.solver.set_tracer(tracer.clone());
        Some(engine)
    } else {
        engine_state.miter = None;
        None
    };
    let mut replacer = Replacer::new();
    // the class partition: `members` holds class members contiguously and
    // `bounds` the (start, end) range of every multi-member class, in
    // signature order.  Under incremental maintenance the partition lives
    // across rounds and is only *refined* (split) by new pattern words;
    // under the full re-sort it is rebuilt from every live node each round.
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
    let mut no_retry: std::collections::HashSet<(NodeId, NodeId)> =
        std::collections::HashSet::new();
    let conflicts_before = |e: &MiterEngine| e.solver.stats().conflicts;

    'rounds: for round in 0..params.max_rounds.max(1) {
        if budget.is_exhausted() {
            break;
        }
        let _round = tracer.span("sweep_round");
        stats.rounds = round + 1;

        let classify = tracer.span("classify");
        if round == 0 || !params.incremental_classes {
            // deterministic partition from scratch: sort all live nodes by
            // their polarity-normalised signature, then by topological
            // rank; classes are the runs of equal signatures
            members.clear();
            members.push(0);
            members.extend(ntk.pi_nodes());
            members.extend(ntk.gate_nodes());
            stats.reclassed_nodes += members.len();
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
        } else {
            // incremental refinement: signatures only *gain* words, so
            // classes can only split — never merge, and a singleton can
            // never regain company.  Every surviving multi-member class is
            // re-partitioned on the words appended last round alone (its
            // members agree on all older words by construction); members
            // that died from earlier merges drop out.  Sub-classes are
            // ordered by the new words and ties by rank, which is exactly
            // the order the full re-sort would produce, so both modes
            // visit candidate pairs identically.
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
        }

        drop(classify);
        cex_patterns.clear();
        if let Some(par) = params.parallel_proving {
            // ---- phased schedule ------------------------------------------
            // Phase 1: prove every class against the *frozen* network.  The
            // class list is chunked contiguously across workers; each class
            // gets a fresh per-thread solver in `prove_class`, so outcomes
            // are a pure function of the class and the chunking is
            // invisible — every thread count yields the same vector.
            let frozen: &N = ntk;
            let class_chunks = par.chunk_bounds(bounds.len());
            let mut outcomes: Vec<ClassOutcomes> = Vec::with_capacity(bounds.len());
            let prove_phase = tracer.span("prove_parallel");
            std::thread::scope(|scope| {
                let handles: Vec<_> = class_chunks
                    .iter()
                    .enumerate()
                    .map(|(worker, &(lo, hi))| {
                        let chunk = &bounds[lo..hi];
                        let members = &members;
                        let sim = &sim;
                        let no_retry = &no_retry;
                        scope.spawn(move || {
                            // one span per worker chunk: phased proving
                            // shows up as concurrent lanes in the trace
                            tracer.name_lane(&format!("sweep-worker-{worker}"));
                            let _chunk = tracer.span("prove_chunk");
                            chunk
                                .iter()
                                .map(|&(s, e)| {
                                    prove_class(
                                        frozen,
                                        &members[s as usize..e as usize],
                                        sim,
                                        no_retry,
                                        params.conflict_limit,
                                        tracer,
                                    )
                                })
                                .collect::<Vec<_>>()
                        })
                    })
                    .collect();
                // join in chunk order restores the global class order
                for handle in handles {
                    outcomes.extend(handle.join().expect("class-proving worker panicked"));
                }
            });
            drop(prove_phase);
            // Phase 2: apply the outcomes serially, in class order.  Unlike
            // the legacy schedule, a merge cascade here can invalidate an
            // *already proven* pair by killing one endpoint before its turn;
            // such pairs are dropped without a no-retry mark so the next
            // round re-examines them against fresh classes.
            let _apply = tracer.span("apply");
            for out in outcomes {
                stats.candidate_pairs += out.pairs.len();
                stats.conflicts += out.conflicts;
                // charge the round's proof work serially (workers must not
                // touch the budget: outcomes stay a pure function of the
                // class); an exhausted budget still applies every proven
                // merge of this round and stops at the round boundary
                if !out.pairs.is_empty() {
                    budget.consume(out.pairs.len() as u64);
                    budget.consume_sat(out.propagations);
                }
                let repr_node = out.repr;
                for (node, antivalent, outcome) in out.pairs {
                    match outcome {
                        PairOutcome::Proven => {
                            if ntk.is_dead(repr_node) || ntk.is_dead(node) {
                                continue;
                            }
                            let replacement = Signal::new(repr_node, antivalent);
                            let committed = ntk.is_gate(node)
                                && if params.record_choices {
                                    replacer.keep_as_choice(ntk, node, replacement)
                                } else {
                                    replacer.merge_equivalent(ntk, node, replacement)
                                };
                            if committed {
                                stats.proven += 1;
                                if params.record_choices {
                                    stats.choices_recorded += 1;
                                    no_retry.insert((repr_node, node));
                                }
                            } else {
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
        } else {
            // ---- legacy schedule: prove and merge interleaved, one
            // recycled incremental solver across the whole sweep ----------
            let engine = engine
                .as_deref_mut()
                .expect("legacy schedule keeps the recycled miter");
            let _prove = tracer.span("prove_merge");
            let mut batch = BatchSpans::new(tracer, "pair_candidates", BATCH_INTERVAL);
            for &(start, end) in &bounds {
                let class = &members[start as usize..end as usize];
                // the representative is the lowest-ranked live member; it
                // can die when another class's (or an earlier pair's) merge
                // cascades over it, in which case the next live member takes
                // over before the pair is attempted
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
                        Some(r) if ntk.is_dead(r) => {
                            repr = Some(node);
                            continue;
                        }
                        Some(r) => r,
                    };
                    if no_retry.contains(&(repr_node, node)) {
                        continue;
                    }
                    // only gates can be merged away; a non-gate sharing a
                    // class (a PI colliding with the constant or another PI)
                    // is still proven below — SAT refutes it and the
                    // counterexample splits the class next round
                    if !budget.consume(1) {
                        break 'rounds;
                    }
                    batch.tick();
                    let antivalent = sim.phase(repr_node) != sim.phase(node);
                    stats.candidate_pairs += 1;
                    let spent = conflicts_before(engine);
                    let spent_propagations = engine.solver.stats().propagations;
                    // a finite budget caps each pair's solve at the
                    // remaining propagation allowance, so one hard miter
                    // cannot blow through the whole budget; the spent
                    // propagations are charged back below
                    engine
                        .solver
                        .set_propagation_limit(budget.sat_propagation_allowance());
                    let outcome =
                        engine.prove_pair(ntk, repr_node, node, antivalent, params.conflict_limit);
                    engine.solver.set_propagation_limit(None);
                    stats.conflicts += conflicts_before(engine) - spent;
                    budget.consume_sat(engine.solver.stats().propagations - spent_propagations);
                    match outcome {
                        PairOutcome::Proven => {
                            let replacement = Signal::new(repr_node, antivalent);
                            let committed = ntk.is_gate(node)
                                && if params.record_choices {
                                    // keep the losing cone alive as a
                                    // mapping choice of the winner; the node
                                    // survives, so the pair must not be
                                    // re-proven when its class reaches the
                                    // next round
                                    replacer.keep_as_choice(ntk, node, replacement)
                                } else {
                                    replacer.merge_equivalent(ntk, node, replacement)
                                };
                            if committed {
                                stats.proven += 1;
                                if params.record_choices {
                                    stats.choices_recorded += 1;
                                    no_retry.insert((repr_node, node));
                                }
                            } else {
                                // structurally unmergeable despite the proof
                                // (non-gate candidate, or a rank inversion
                                // the acyclicity walk refused): give up on
                                // the pair instead of re-proving it every
                                // round
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
        }

        if cex_patterns.is_empty() {
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

    // the recycled solver's lifetime stats (legacy schedule only; the
    // phased schedule's per-class solver work is already summed into
    // `stats.conflicts` through the class outcomes)
    if let Some(engine) = engine.as_deref() {
        tracer.absorb("fraig.sat", &engine.solver.stats());
    }

    // hand the accumulated pattern words (initial + every counterexample)
    // back to the engine for the next sweep of the flow
    engine_state.patterns = sim.pi_patterns(ntk);
    engine_state.num_pis = ntk.num_pis();
    engine_state.num_pos = ntk.num_pos();
    engine_state.last_size = ntk.size();

    stats.gates_after = ntk.num_gates();
    stats.outcome = budget.outcome();
    tracer.absorb("fraig", &stats);
    tracer.set_gauge("fraig.gates_after", stats.gates_after as u64);
    stats
}

impl MetricsSource for SweepStats {
    fn visit_metrics(&self, visit: &mut dyn FnMut(&str, u64)) {
        visit("rounds", self.rounds as u64);
        visit("candidate_pairs", self.candidate_pairs as u64);
        visit("proven", self.proven as u64);
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
/// [`check_equivalence_with`] to bound or unbound it explicitly).
pub const DEFAULT_CEC_CONFLICT_LIMIT: u64 = 10_000_000;

/// Checks combinational equivalence of two networks with a SAT miter:
/// shared primary-input variables, both networks Tseitin-encoded, and one
/// clause asserting that some output pair differs.  `UNSAT` is a *proof*
/// of equivalence — unlike
/// [`equivalent_by_random_simulation`](glsx_network::simulation::equivalent_by_random_simulation),
/// which can only refute.
///
/// Outputs are compared position by position.  Returns the verdict
/// together with the solver's proof-effort statistics
/// ([`EquivalenceOutcome`]), so regression harnesses can track how hard a
/// proof was, not just whether it succeeded.
///
/// # Panics
///
/// Panics if the networks have different numbers of primary inputs or
/// outputs.
pub fn check_equivalence<A: Network, B: Network>(a: &A, b: &B) -> EquivalenceOutcome {
    check_equivalence_with(a, b, Some(DEFAULT_CEC_CONFLICT_LIMIT))
}

/// [`check_equivalence`] with an explicit conflict budget (`None` solves
/// to completion).  The verdict is [`EquivalenceResult::Unknown`] when the
/// budget runs out.
pub fn check_equivalence_with<A: Network, B: Network>(
    a: &A,
    b: &B,
    conflict_limit: Option<u64>,
) -> EquivalenceOutcome {
    check_equivalence_with_limits(a, b, conflict_limit, None)
}

/// [`check_equivalence`] with explicit conflict *and* propagation budgets
/// (`None` lifts the respective limit).  The propagation limit is the
/// deterministic knob effort budgets drive
/// ([`glsx_network::Budget::sat_propagation_allowance`]); when either
/// limit runs out the verdict is [`EquivalenceResult::Unknown`] and
/// [`EquivalenceOutcome::limit_exhausted`] is `true`, which is how
/// callers tell a too-small verification budget apart from a genuine
/// solver failure.
pub fn check_equivalence_with_limits<A: Network, B: Network>(
    a: &A,
    b: &B,
    conflict_limit: Option<u64>,
    propagation_limit: Option<u64>,
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
    let mut solver = Solver::new();
    let mut enc_a = CnfEncoder::new(a.size());
    let mut enc_b = CnfEncoder::new(b.size());
    // shared input space: the i-th primary input of both networks is the
    // same SAT variable
    let pi_vars: Vec<Var> = (0..a.num_pis()).map(|_| solver.new_var()).collect();
    for (i, pi) in a.pi_nodes().iter().enumerate() {
        enc_a.vars[*pi as usize] = pi_vars[i].index() as u32;
    }
    for (i, pi) in b.pi_nodes().iter().enumerate() {
        enc_b.vars[*pi as usize] = pi_vars[i].index() as u32;
    }

    // one XOR tap per output pair; at least one must differ
    let mut taps: Vec<Lit> = Vec::with_capacity(a.num_pos());
    for (sa, sb) in a.po_signals().into_iter().zip(b.po_signals()) {
        enc_a.var_of(a, &mut solver, sa.node());
        enc_b.var_of(b, &mut solver, sb.node());
        let la = enc_a.lit_of(sa);
        let lb = enc_b.lit_of(sb);
        let t = solver.new_var();
        let (tp, tn) = (Lit::positive(t), Lit::negative(t));
        solver.add_clause(&[tn, la, lb]);
        solver.add_clause(&[tn, !la, !lb]);
        solver.add_clause(&[tp, !la, lb]);
        solver.add_clause(&[tp, la, !lb]);
        taps.push(tp);
    }
    solver.add_clause(&taps);

    solver.set_conflict_limit(conflict_limit);
    solver.set_propagation_limit(propagation_limit);
    let result = match solver.solve() {
        SatResult::Unsat => EquivalenceResult::Equivalent,
        SatResult::Unknown => EquivalenceResult::Unknown,
        SatResult::Sat => {
            let assignment = pi_vars
                .iter()
                .map(|&v| solver.value(v).unwrap_or(false))
                .collect();
            EquivalenceResult::Inequivalent(assignment)
        }
    };
    EquivalenceOutcome {
        result,
        solver: solver.stats(),
        limit_exhausted: solver.last_limit().is_some(),
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

    /// Two structurally different parity trees over the same inputs: the
    /// roots are equivalent, but proving it needs real conflicts, so a
    /// one-conflict budget must skip the pair and leave it unmerged.
    fn parity_pair() -> (Aig, usize) {
        let mut aig = Aig::new();
        let pis: Vec<Signal> = (0..6).map(|_| aig.create_pi()).collect();
        // left-to-right chain
        let mut chain = pis[0];
        for &pi in &pis[1..] {
            chain = aig.create_xor(chain, pi);
        }
        // balanced tree
        let mut layer = pis.clone();
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
        aig.create_po(chain);
        aig.create_po(layer[0]);
        let gates = aig.num_gates();
        (aig, gates)
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

    /// Incremental class maintenance is bit-identical to the full re-sort:
    /// same rounds, same candidate pairs in the same order (hence the same
    /// incremental solver state), same proofs, same merges — while
    /// re-hashing far fewer nodes.
    #[test]
    fn incremental_classes_match_full_resort() {
        let build = || {
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
            aig
        };
        let params = SweepParams {
            num_words: 1,
            ..SweepParams::default()
        };
        let mut incremental = build();
        let mut full = incremental.clone();
        let inc_stats = sweep(&mut incremental, &params);
        let full_stats = sweep(
            &mut full,
            &SweepParams {
                incremental_classes: false,
                ..params
            },
        );
        assert!(
            inc_stats.rounds > 1 && inc_stats.refuted > 0,
            "the refinement path must actually run: {inc_stats:?}"
        );
        // identical behaviour, field by field (except the work counter)
        assert_eq!(inc_stats.rounds, full_stats.rounds);
        assert_eq!(inc_stats.candidate_pairs, full_stats.candidate_pairs);
        assert_eq!(inc_stats.proven, full_stats.proven);
        assert_eq!(inc_stats.refuted, full_stats.refuted);
        assert_eq!(inc_stats.skipped, full_stats.skipped);
        assert_eq!(inc_stats.conflicts, full_stats.conflicts);
        assert_eq!(inc_stats.gates_after, full_stats.gates_after);
        assert_eq!(incremental.num_gates(), full.num_gates());
        assert_eq!(incremental.po_signals(), full.po_signals());
        // the incremental path re-hashes strictly less once refinement
        // rounds happen; with a single round both count the initial sort
        if inc_stats.rounds > 1 {
            assert!(
                inc_stats.reclassed_nodes < full_stats.reclassed_nodes,
                "incremental {inc_stats:?} vs full {full_stats:?}"
            );
        }
        assert!(check_equivalence(&incremental, &full).is_equivalent());
    }

    /// The phased schedule is bit-identical at every thread count (same
    /// stats, same network) and miter-equivalent to the legacy schedule.
    #[test]
    fn phased_proving_is_thread_count_invariant() {
        let build = || {
            // random AND cones over few patterns force refinement rounds
            // and give the phased scheduler many multi-member classes
            let mut aig = Aig::new();
            let pis: Vec<Signal> = (0..12).map(|_| aig.create_pi()).collect();
            let mut signals = pis.clone();
            let mut state = 0x9e37_79b9_u64;
            let mut next = move || {
                state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
                (state >> 33) as usize
            };
            for _ in 0..120 {
                let a = signals[next() % signals.len()].complement_if(next() % 2 == 0);
                let b = signals[next() % signals.len()].complement_if(next() % 2 == 0);
                signals.push(aig.create_and(a, b));
            }
            for s in signals.iter().rev().take(8) {
                aig.create_po(*s);
            }
            aig
        };
        let phased_params = |threads: usize| SweepParams {
            num_words: 1,
            parallel_proving: Some(Parallelism::new(threads)),
            ..SweepParams::default()
        };
        let mut legacy = build();
        let legacy_stats = sweep(
            &mut legacy,
            &SweepParams {
                num_words: 1,
                ..SweepParams::default()
            },
        );
        let mut baseline = build();
        let baseline_stats = sweep(&mut baseline, &phased_params(1));
        assert!(
            baseline_stats.rounds > 1 && baseline_stats.refuted > 0,
            "the refinement path must actually run: {baseline_stats:?}"
        );
        for threads in [2, 4] {
            let mut ntk = build();
            let stats = sweep(&mut ntk, &phased_params(threads));
            assert_eq!(stats, baseline_stats, "threads = {threads}");
            assert_eq!(ntk.num_gates(), baseline.num_gates(), "threads = {threads}");
            assert_eq!(
                ntk.po_signals(),
                baseline.po_signals(),
                "threads = {threads}"
            );
        }
        // phased and legacy interleave merges differently, so they may
        // produce different (equivalent) networks — the contract is
        // semantic, checked by the miter
        assert!(check_equivalence(&baseline, &legacy).is_equivalent());
        assert_eq!(legacy.num_gates(), legacy_stats.gates_after);
    }

    /// The equivalence outcome carries real proof-effort numbers.
    #[test]
    fn check_equivalence_reports_solver_stats() {
        let (aig, _) = parity_pair();
        // the two parity POs differ only in structure; comparing the
        // network against itself forces real XOR reasoning
        let outcome = check_equivalence(&aig, &aig.clone());
        assert!(outcome.is_equivalent());
        assert!(
            outcome.solver.propagations > 0,
            "a nontrivial miter must propagate: {:?}",
            outcome.solver
        );
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

    /// The engine carries pattern words and the solver across sweeps: the
    /// second sweep starts from the recycled words (observable in the
    /// stats) and never attempts more candidate pairs than a fresh sweep
    /// of the same network would.
    #[test]
    fn sweep_engine_recycles_words_across_sweeps() {
        let mut aig = Aig::new();
        let pis: Vec<Signal> = (0..12).map(|_| aig.create_pi()).collect();
        let mut signals = pis.clone();
        let mut state = 0xfeed_f00d_u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as usize
        };
        for _ in 0..60 {
            let a = signals[next() % signals.len()].complement_if(next() % 2 == 0);
            let b = signals[next() % signals.len()].complement_if(next() % 2 == 0);
            signals.push(aig.create_and(a, b));
        }
        for s in signals.iter().rev().take(5) {
            aig.create_po(*s);
        }
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
        let (aig, _) = parity_pair();
        let reference = aig.clone();
        let starved = check_equivalence_with_limits(&reference, &aig, None, Some(1));
        assert_eq!(starved.result, EquivalenceResult::Unknown);
        assert!(starved.limit_exhausted, "{starved:?}");
        let full = check_equivalence(&reference, &aig);
        assert!(full.is_equivalent());
        assert!(!full.limit_exhausted, "{full:?}");
    }

    /// A budgeted sweep stops cleanly: the network stays equivalent, the
    /// merge count never exceeds the unlimited run's, and the outcome
    /// names the exhaustion.
    #[test]
    fn budgeted_sweep_commits_an_equivalent_prefix() {
        use glsx_network::{Budget, StepOutcome};
        let build = || {
            let mut aig = Aig::new();
            let a = aig.create_pi();
            let b = aig.create_pi();
            let s = aig.create_pi();
            let x = aig.create_and(a, b);
            let dup = redundant_copy(&mut aig, x, s);
            let y = aig.create_and(x, s);
            let dup2 = redundant_copy(&mut aig, y, b);
            aig.create_po(dup);
            aig.create_po(dup2);
            aig
        };
        let reference = build();
        let full = {
            let mut aig = build();
            sweep(&mut aig, &SweepParams::default())
        };
        assert!(full.proven >= 2, "{full:?}");
        let mut saw_exhausted = false;
        for limit in 0..12u64 {
            let mut aig = build();
            let budget = Budget::with_ticks(limit);
            let mut engine = SweepEngine::default();
            let stats = sweep_traced(
                &mut aig,
                &SweepParams::default(),
                &mut engine,
                &budget,
                telemetry::global(),
            );
            assert!(stats.proven <= full.proven, "{stats:?}");
            assert!(equivalent_by_simulation(&reference, &aig));
            assert!(check_equivalence(&reference, &aig).is_equivalent());
            if let StepOutcome::Exhausted { .. } = stats.outcome {
                saw_exhausted = true;
            }
        }
        assert!(saw_exhausted, "no tick limit ever exhausted the sweep");
    }
}
