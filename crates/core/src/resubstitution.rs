//! Boolean resubstitution (Algorithm 5 of the paper).
//!
//! Resubstitution re-expresses the function of a node using *divisors* —
//! nodes that already exist in a window around it — adding at most `k` new
//! gates.  A substitution is beneficial when the maximum fanout-free cone
//! freed by removing the node is larger than the number of inserted gates.
//!
//! Only the computational kernel depends on the representation (the
//! paper's "performance tweak" layer): the divisor arity and the
//! filtering rules differ between AND/OR (AIG), AND/XOR (XAG) and majority
//! (MIG/XMG) networks.  The kernel is selected through the
//! [`ResubNetwork`] trait.

use crate::cuts::{word_count, word_mask, ConeSimulator, ReconvergenceCut};
use crate::refs::mffc_into;
use glsx_network::telemetry::{self, BatchSpans, MetricsSource, Tracer, BATCH_INTERVAL};
use glsx_network::{
    Aig, Budget, GateBuilder, Mig, Network, NodeId, Signal, StepOutcome, Traversal, Xag, Xmg,
};

/// The divisor-selection and resubstitution-rule style of a representation.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ResubStyle {
    /// Two-input AND/OR rules (And-inverter graphs).
    AndOr,
    /// AND/OR plus XOR rules (Xor-and graphs).
    AndXor,
    /// Majority rules in addition to AND/OR (majority-based graphs).
    Majority,
}

/// Networks that provide a resubstitution kernel (the representation-
/// specific specialisation required by the generic resubstitution
/// algorithm).
pub trait ResubNetwork: GateBuilder {
    /// Kernel style used for this representation.
    const STYLE: ResubStyle;
}

impl ResubNetwork for Aig {
    const STYLE: ResubStyle = ResubStyle::AndOr;
}

impl ResubNetwork for Xag {
    const STYLE: ResubStyle = ResubStyle::AndXor;
}

impl ResubNetwork for Mig {
    const STYLE: ResubStyle = ResubStyle::Majority;
}

impl ResubNetwork for Xmg {
    const STYLE: ResubStyle = ResubStyle::Majority;
}

/// Parameters of Boolean resubstitution.
#[derive(Clone, Copy, Debug)]
pub struct ResubParams {
    /// Maximum number of leaves of the reconvergence-driven cut (the `-c`
    /// parameter of the flow script).
    pub max_leaves: usize,
    /// Maximum number of gates inserted per substitution (the `-d`
    /// parameter; `0` means only direct divisor replacement).
    pub max_inserts: usize,
    /// Maximum number of divisors considered per node.
    pub max_divisors: usize,
    /// Accept zero-gain substitutions.
    pub allow_zero_gain: bool,
}

impl Default for ResubParams {
    fn default() -> Self {
        Self {
            max_leaves: 8,
            max_inserts: 1,
            max_divisors: 50,
            allow_zero_gain: false,
        }
    }
}

/// Statistics of a resubstitution pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResubStats {
    /// Number of gates visited.
    pub visited: usize,
    /// Number of committed substitutions.
    pub substitutions: usize,
    /// Sum of the estimated gains of committed substitutions.
    pub estimated_gain: i64,
    /// Window entries built (the constant, the leaves, the cone and the
    /// side divisors), summed over the visited gates.
    pub window_nodes: usize,
    /// Divisors collected from the windows, summed over the visited gates.
    pub divisors: usize,
    /// Whether the pass ran to completion or stopped on an exhausted
    /// effort budget.
    pub outcome: StepOutcome,
}

/// The target and the divisors of one window as raw truth-table words.
///
/// Every table is stored at the window's stride, divisor `i` at
/// `words[i * stride..(i + 1) * stride]`.  The search reads *polarised*
/// divisors: index `2i` is divisor `i` and `2i + 1` its complement, a
/// divisor's words read through an XOR with a phase mask of `0` or `mask`.
#[derive(Debug, Default)]
struct Divisors {
    stride: usize,
    /// The complement mask of one word over the window's variables.
    mask: u64,
    target: Vec<u64>,
    signals: Vec<Signal>,
    words: Vec<u64>,
}

impl Divisors {
    /// Starts a window over `num_vars` variables whose root has the table
    /// `target`.
    fn reset(&mut self, num_vars: usize, target: &[u64]) {
        self.stride = word_count(num_vars);
        self.mask = word_mask(num_vars);
        self.target.clear();
        self.target.extend_from_slice(target);
        self.signals.clear();
        self.words.clear();
    }

    fn push(&mut self, signal: Signal, words: &[u64]) {
        self.signals.push(signal);
        self.words.extend_from_slice(words);
    }

    fn len(&self) -> usize {
        self.signals.len()
    }

    #[inline]
    fn words(&self, i: usize) -> &[u64] {
        &self.words[i * self.stride..(i + 1) * self.stride]
    }

    /// Polarised divisor `p`: its divisor's words and its phase mask.
    #[inline]
    fn polar(&self, p: u32) -> (&[u64], u64) {
        let phase = if p & 1 == 1 { self.mask } else { 0 };
        (self.words(p as usize / 2), phase)
    }

    #[inline]
    fn polar_signal(&self, p: u32) -> Signal {
        self.signals[p as usize / 2].complement_if(p & 1 == 1)
    }

    /// `true` when word `w` of the target equals `f(w)` for every word;
    /// stops at the first word that differs.
    #[inline]
    fn matches(&self, f: impl Fn(usize) -> u64) -> bool {
        self.target.iter().enumerate().all(|(w, &t)| f(w) == t)
    }
}

/// Reused index lists of the divisor search.
#[derive(Debug, Default)]
struct SearchBuffers {
    /// Polarised divisors that cover the target (AND inputs).
    up: Vec<u32>,
    /// Polarised divisors covered by the target (OR inputs).
    down: Vec<u32>,
    /// Divisors sorted by function, then signal (the XOR lookup).
    by_function: Vec<u32>,
}

/// Runs Boolean resubstitution on `ntk`.
pub fn resubstitute<N: ResubNetwork + Network>(ntk: &mut N, params: &ResubParams) -> ResubStats {
    resubstitute_traced(ntk, params, &Budget::unlimited(), telemetry::global())
}

/// [`resubstitute`] under a cooperative effort [`Budget`] (one tick per
/// candidate gate, polled between candidates — an exhausted pass keeps
/// every committed substitution and stops cleanly), reporting through an
/// explicit telemetry [`Tracer`] (pass span, candidate-batch spans in
/// full mode, stats absorbed into the registry).  Observational only.
pub fn resubstitute_traced<N: ResubNetwork + Network>(
    ntk: &mut N,
    params: &ResubParams,
    budget: &Budget,
    tracer: &Tracer,
) -> ResubStats {
    let _pass = tracer.span("resub");
    let mut batch = BatchSpans::new(tracer, "resub_candidates", BATCH_INTERVAL);
    let mut stats = ResubStats::default();
    // buffers shared across all visited nodes: the steady state allocates
    // nothing (window tables live in the simulator's word arena, the
    // divisors' in a second one, and membership tests in the scratch-slot
    // traversal engine; see `glsx_network::traversal`)
    let mut window = Window::default();
    let mut buffers = SearchBuffers::default();
    let nodes: Vec<NodeId> = ntk.gate_nodes();
    for node in nodes {
        if !ntk.is_gate(node) || ntk.fanout_size(node) == 0 {
            continue;
        }
        if !budget.consume(1) {
            break;
        }
        batch.tick();
        stats.visited += 1;
        let Some(mffc_size) = window.collect(ntk, node, params) else {
            continue;
        };
        stats.window_nodes += window.sim.len();
        stats.divisors += window.divisors.len();

        let min_gain = if params.allow_zero_gain { 0 } else { 1 };
        let size_before = ntk.size();
        if let Some((replacement, inserted)) = find_resubstitution::<N>(
            ntk,
            &window.divisors,
            &mut buffers,
            params,
            mffc_size,
            min_gain,
        ) {
            let gain = mffc_size - inserted;
            if replacement.node() != node {
                ntk.substitute_node(node, replacement);
                stats.substitutions += 1;
                stats.estimated_gain += gain;
            }
        }
        crate::replace::sweep_new_dangling(ntk, size_before);
    }
    stats.outcome = budget.outcome();
    tracer.absorb("resub", &stats);
    stats
}

/// The reused buffers of one visited gate's window: its cut, the simulated
/// window, its MFFC and the divisors collected from the window.
#[derive(Debug, Default)]
struct Window {
    cut: ReconvergenceCut,
    sim: ConeSimulator,
    mffc_nodes: Vec<NodeId>,
    order: Vec<u32>,
    divisors: Divisors,
}

impl Window {
    /// Builds the window of `node` and collects its divisors.  Returns the
    /// size of `node`'s MFFC, or `None` when the cut has no leaves or more
    /// than 14.
    fn collect<N: Network>(&mut self, ntk: &N, node: NodeId, params: &ResubParams) -> Option<i64> {
        let leaves = self.cut.compute(ntk, node, params.max_leaves);
        if leaves.is_empty() || leaves.len() > 14 {
            return None;
        }
        // window traversal: simulate the cone, then expand with side
        // divisors — nodes outside the cone of `node` whose fanins already
        // lie in the window (their functions are therefore expressible over
        // the cut and they cannot depend on `node`)
        let sim = &mut self.sim;
        sim.simulate(ntk, node, leaves);
        expand_window(ntk, node, sim, params.max_divisors * 2);
        let root = sim.index_of(ntk, node).expect("root is in its window");
        self.divisors.reset(sim.num_leaves(), sim.words_at(root));

        // MFFC traversal (starts after the window traversal has finished;
        // the window is read through its own buffers from here on)
        mffc_into(ntk, node, &mut self.mffc_nodes);

        // divisor-filter traversal: mark the MFFC once, then test each
        // window node in O(1).  Divisors are collected in ascending node-id
        // order, so every later tie-break is deterministic.
        let mffc_marks = Traversal::new(ntk);
        for &m in &self.mffc_nodes {
            mffc_marks.mark(ntk, m);
        }
        self.order.clear();
        self.order.extend(0..sim.len() as u32);
        self.order
            .sort_unstable_by_key(|&i| sim.nodes()[i as usize]);
        for &i in &self.order {
            if self.divisors.len() >= params.max_divisors {
                break;
            }
            let n = sim.nodes()[i as usize];
            if n != node && n != 0 && !mffc_marks.is_marked(ntk, n) && !ntk.is_dead(n) {
                self.divisors
                    .push(Signal::new(n, false), sim.words_at(i as usize));
            }
        }
        Some(self.mffc_nodes.len() as i64)
    }
}

impl MetricsSource for ResubStats {
    fn visit_metrics(&self, visit: &mut dyn FnMut(&str, u64)) {
        visit("visited", self.visited as u64);
        visit("substitutions", self.substitutions as u64);
        visit("estimated_gain", self.estimated_gain.max(0) as u64);
        visit("window_nodes", self.window_nodes as u64);
        visit("divisors", self.divisors as u64);
        visit("exhausted", u64::from(!self.outcome.is_completed()));
    }
}

/// Grows the simulation window with side divisors: fanouts of window nodes
/// whose fanins all lie in the window already.  Such nodes are expressible
/// over the cut and can never contain `root` in their fanin cone.
///
/// The window is scanned as a worklist in insertion order (newly added
/// divisors are scanned too, reaching the same fixpoint as repeated
/// rounds), so the expansion frontier — and thereby which divisors make it
/// in before `limit` is reached — is deterministic across runs.
fn expand_window<N: Network>(ntk: &N, root: NodeId, sim: &mut ConeSimulator, limit: usize) {
    let mut i = 0usize;
    while i < sim.len() && sim.len() < limit {
        let member = sim.nodes()[i];
        i += 1;
        ntk.foreach_fanout(member, |candidate| {
            if sim.len() >= limit
                || candidate == root
                || sim.contains(ntk, candidate)
                || !ntk.is_gate(candidate)
            {
                return;
            }
            let mut all_in_window = true;
            ntk.foreach_fanin(candidate, |f| {
                if f.node() == root || !sim.contains(ntk, f.node()) {
                    all_in_window = false;
                }
            });
            if all_in_window {
                sim.add_divisor(ntk, candidate);
            }
        });
    }
}

/// Tries resubstitution kernels of increasing size (0-, 1-, 2-resub) and
/// returns the replacement signal and the number of inserted gates.
///
/// Every test is a loop over the target's words that stops at the first
/// word that differs.  The candidate lists keep their fixed order and
/// limits (40 covering and 40 covered polarised divisors, the first 24
/// polarised divisors for majority and the first 30 for 2-resub), so the
/// first match is deterministic.
fn find_resubstitution<N: ResubNetwork>(
    ntk: &mut N,
    divs: &Divisors,
    buffers: &mut SearchBuffers,
    params: &ResubParams,
    mffc_size: i64,
    min_gain: i64,
) -> Option<(Signal, i64)> {
    let (target, mask) = (&divs.target[..], divs.mask);
    // constants
    if target.iter().all(|&t| t == 0) {
        return Some((ntk.get_constant(false), 0));
    }
    if target.iter().all(|&t| t == mask) {
        return Some((ntk.get_constant(true), 0));
    }
    // 0-resubstitution: an existing divisor (or its complement) matches
    for i in 0..divs.len() {
        let d = divs.words(i);
        if divs.matches(|w| d[w]) {
            return Some((divs.signals[i], 0));
        }
        if divs.matches(|w| d[w] ^ mask) {
            return Some((!divs.signals[i], 0));
        }
    }
    let one = mffc_size > min_gain;
    let two = params.max_inserts >= 2 && mffc_size - 2 >= min_gain;
    if params.max_inserts == 0 || !(one || two) {
        return None;
    }

    // filtering rules: polarised divisors that can appear in an AND (they
    // cover the target) and ones that can appear in an OR (covered by it)
    let polarised = 2 * divs.len() as u32;
    let (up, down) = (&mut buffers.up, &mut buffers.down);
    up.clear();
    down.clear();
    for p in 0..polarised {
        let (d, phase) = divs.polar(p);
        if up.len() < 40 && target.iter().zip(d).all(|(&t, &d)| t & !(d ^ phase) == 0) {
            up.push(p);
        }
        if down.len() < 40 && target.iter().zip(d).all(|(&t, &d)| (d ^ phase) & !t == 0) {
            down.push(p);
        }
    }

    // 1-resubstitution (one inserted gate)
    if one {
        // AND of two covering divisors
        for (i, &pa) in up.iter().enumerate() {
            let (a, ma) = divs.polar(pa);
            for &pb in &up[i + 1..] {
                let (b, mb) = divs.polar(pb);
                if divs.matches(|w| (a[w] ^ ma) & (b[w] ^ mb)) {
                    let g = ntk.create_and(divs.polar_signal(pa), divs.polar_signal(pb));
                    return Some((g, 1));
                }
            }
        }
        // OR of two covered divisors
        for (i, &pa) in down.iter().enumerate() {
            let (a, ma) = divs.polar(pa);
            for &pb in &down[i + 1..] {
                let (b, mb) = divs.polar(pb);
                if divs.matches(|w| (a[w] ^ ma) | (b[w] ^ mb)) {
                    let g = ntk.create_or(divs.polar_signal(pa), divs.polar_signal(pb));
                    return Some((g, 1));
                }
            }
        }
        // XOR via sorted-divisor lookup (XAG-style kernels only — majority
        // kernels have no XOR primitive to insert): binary search for
        // `target ^ d` in the divisors sorted by function (lexicographic
        // words), then signal, which keeps the matched partner
        // deterministic
        if N::STYLE == ResubStyle::AndXor {
            let by_function = &mut buffers.by_function;
            by_function.clear();
            by_function.extend(0..divs.len() as u32);
            by_function.sort_unstable_by(|&a, &b| {
                let (a, b) = (a as usize, b as usize);
                divs.words(a)
                    .cmp(divs.words(b))
                    .then(divs.signals[a].cmp(&divs.signals[b]))
            });
            for i in 0..divs.len() {
                let d = divs.words(i);
                // order of a divisor's words against those of `target ^ d`
                let versus_needed = |probe: usize| {
                    let p = divs.words(probe);
                    (0..p.len())
                        .map(|w| p[w].cmp(&(target[w] ^ d[w])))
                        .find(|o| o.is_ne())
                        .unwrap_or(std::cmp::Ordering::Equal)
                };
                let first =
                    by_function.partition_point(|&probe| versus_needed(probe as usize).is_lt());
                if let Some(&probe) = by_function.get(first) {
                    let probe = probe as usize;
                    if versus_needed(probe).is_eq()
                        && divs.signals[probe].node() != divs.signals[i].node()
                    {
                        let g = ntk.create_xor(divs.signals[i], divs.signals[probe]);
                        return Some((g, 1));
                    }
                }
            }
        }
        // majority of three divisors (MIG/XMG-style kernels)
        if N::STYLE == ResubStyle::Majority {
            let limited = polarised.min(24);
            for pa in 0..limited {
                let (a, ma) = divs.polar(pa);
                for pb in pa + 1..limited {
                    let (b, mb) = divs.polar(pb);
                    for pc in pb + 1..limited {
                        let (c, mc) = divs.polar(pc);
                        let maj = |w: usize| {
                            let (x, y, z) = (a[w] ^ ma, b[w] ^ mb, c[w] ^ mc);
                            (x & y) | (y & z) | (x & z)
                        };
                        if divs.matches(maj) {
                            let g = ntk.create_maj(
                                divs.polar_signal(pa),
                                divs.polar_signal(pb),
                                divs.polar_signal(pc),
                            );
                            return Some((g, 1));
                        }
                    }
                }
            }
        }
    }

    // 2-resubstitution (two inserted gates)
    if two {
        let inner = polarised.min(30);
        // target = d1 & (d2 | d3) with d1 covering the target
        for &p1 in up.iter() {
            let (a, m1) = divs.polar(p1);
            for p2 in 0..inner {
                let (b, m2) = divs.polar(p2);
                for p3 in p2 + 1..inner {
                    let (c, m3) = divs.polar(p3);
                    if divs.matches(|w| (a[w] ^ m1) & ((b[w] ^ m2) | (c[w] ^ m3))) {
                        let or = ntk.create_or(divs.polar_signal(p2), divs.polar_signal(p3));
                        let g = ntk.create_and(divs.polar_signal(p1), or);
                        return Some((g, 2));
                    }
                    if N::STYLE == ResubStyle::AndXor
                        && divs.matches(|w| (a[w] ^ m1) & (b[w] ^ m2 ^ c[w] ^ m3))
                    {
                        let xor = ntk.create_xor(divs.polar_signal(p2), divs.polar_signal(p3));
                        let g = ntk.create_and(divs.polar_signal(p1), xor);
                        return Some((g, 2));
                    }
                }
            }
        }
        // target = d1 | (d2 & d3) with d1 covered by the target
        for &p1 in down.iter() {
            let (a, m1) = divs.polar(p1);
            for p2 in 0..inner {
                let (b, m2) = divs.polar(p2);
                for p3 in p2 + 1..inner {
                    let (c, m3) = divs.polar(p3);
                    if divs.matches(|w| (a[w] ^ m1) | ((b[w] ^ m2) & (c[w] ^ m3))) {
                        let and = ntk.create_and(divs.polar_signal(p2), divs.polar_signal(p3));
                        let g = ntk.create_or(divs.polar_signal(p1), and);
                        return Some((g, 2));
                    }
                }
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use glsx_network::simulation::{equivalent_by_simulation, evaluate_function};
    use glsx_network::{GateBuilder, GateKind, Klut, Network, TraceMode};
    use glsx_truth::TruthTable;

    #[test]
    fn zero_resub_removes_duplicate_logic() {
        // two structurally different but functionally equal cones
        let mut aig = Aig::new();
        let a = aig.create_pi();
        let b = aig.create_pi();
        let c = aig.create_pi();
        // f = a & (b | c)
        let b_or_c = aig.create_or(b, c);
        let f = aig.create_and(a, b_or_c);
        // g = (a & b) | (a & c)  == f, but built differently
        let ab = aig.create_and(a, b);
        let ac = aig.create_and(a, c);
        let g = aig.create_or(ab, ac);
        aig.create_po(f);
        aig.create_po(g);
        let reference = aig.clone();
        let before = aig.num_gates();
        let stats = resubstitute(&mut aig, &ResubParams::default());
        assert!(stats.substitutions >= 1);
        assert!(aig.num_gates() < before);
        assert!(equivalent_by_simulation(&reference, &aig));
    }

    #[test]
    fn one_resub_reuses_existing_divisors() {
        // h = a & b & c can be expressed as and(ab, c) but is built from
        // scratch next to an existing ab divisor with extra fanout
        let mut aig = Aig::new();
        let a = aig.create_pi();
        let b = aig.create_pi();
        let c = aig.create_pi();
        let d = aig.create_pi();
        let ab = aig.create_and(a, b);
        let keep = aig.create_and(ab, d); // gives ab an external fanout
        let ac = aig.create_and(a, c);
        let h = aig.create_and(ac, b); // a & b & c without using ab
        aig.create_po(keep);
        aig.create_po(h);
        let reference = aig.clone();
        let stats = resubstitute(
            &mut aig,
            &ResubParams {
                max_leaves: 8,
                max_inserts: 1,
                ..ResubParams::default()
            },
        );
        assert!(equivalent_by_simulation(&reference, &aig));
        assert!(stats.visited > 0);
        assert!(aig.num_gates() <= reference.num_gates());
    }

    #[test]
    fn resubstitution_works_on_migs() {
        let mut mig = Mig::new();
        let a = mig.create_pi();
        let b = mig.create_pi();
        let c = mig.create_pi();
        // build maj(a, b, c) the wasteful way: or(and(a,b), and(c, or(a,b)))
        let ab = mig.create_and(a, b);
        let aob = mig.create_or(a, b);
        let t = mig.create_and(c, aob);
        let m = mig.create_or(ab, t);
        mig.create_po(m);
        let reference = mig.clone();
        let before = mig.num_gates();
        resubstitute(
            &mut mig,
            &ResubParams {
                max_leaves: 6,
                max_inserts: 1,
                ..ResubParams::default()
            },
        );
        assert!(equivalent_by_simulation(&reference, &mig));
        assert!(mig.num_gates() <= before);
    }

    #[test]
    fn resubstitution_preserves_functions_on_random_networks() {
        let mut state = 0xfeed_f00d_u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as usize
        };
        for _ in 0..4 {
            let mut xag = Xag::new();
            let mut signals: Vec<Signal> = (0..6).map(|_| xag.create_pi()).collect();
            for step in 0..40 {
                let a = signals[next() % signals.len()].complement_if(next() % 2 == 0);
                let b = signals[next() % signals.len()].complement_if(next() % 2 == 0);
                let g = if step % 3 == 0 {
                    xag.create_xor(a, b)
                } else {
                    xag.create_and(a, b)
                };
                signals.push(g);
            }
            for s in signals.iter().rev().take(3) {
                xag.create_po(*s);
            }
            let reference = xag.clone();
            resubstitute(
                &mut xag,
                &ResubParams {
                    max_leaves: 8,
                    max_inserts: 2,
                    ..ResubParams::default()
                },
            );
            assert!(equivalent_by_simulation(&reference, &xag));
            assert!(xag.num_gates() <= reference.num_gates());
        }
    }

    // The table-level window and search the word kernel replaced, kept as
    // its oracle.  Every window table is a heap `TruthTable`; each
    // complemented fanin is cloned and each gate is evaluated through its
    // local function, and every divisor test allocates its tables.

    /// The table-level window simulator.
    #[derive(Default)]
    struct TableWindow {
        trav: Option<Traversal>,
        nodes: Vec<NodeId>,
        values: Vec<TruthTable>,
    }

    impl TableWindow {
        fn simulate<N: Network>(&mut self, ntk: &N, root: NodeId, leaves: &[NodeId]) {
            self.trav = Some(Traversal::new(ntk));
            self.nodes.clear();
            self.values.clear();
            self.insert(ntk, 0, TruthTable::zero(leaves.len()));
            for (i, &leaf) in leaves.iter().enumerate() {
                self.insert(ntk, leaf, TruthTable::nth_var(leaves.len(), i));
            }
            let mut stack = vec![root];
            while let Some(&node) = stack.last() {
                if self.index_of(ntk, node).is_some() {
                    stack.pop();
                    continue;
                }
                assert!(ntk.is_gate(node), "cone left the cut at {node}");
                let mut missing = false;
                ntk.foreach_fanin(node, |f| {
                    if self.index_of(ntk, f.node()).is_none() {
                        stack.push(f.node());
                        missing = true;
                    }
                });
                if !missing {
                    self.add(ntk, node);
                    stack.pop();
                }
            }
        }

        fn insert<N: Network>(&mut self, ntk: &N, node: NodeId, tt: TruthTable) {
            let trav = self.trav.as_ref().expect("window started");
            match trav.value(ntk, node) {
                Some(index) => self.values[index as usize] = tt,
                None => {
                    trav.set_value(ntk, node, self.nodes.len() as u32);
                    self.nodes.push(node);
                    self.values.push(tt);
                }
            }
        }

        fn index_of<N: Network>(&self, ntk: &N, node: NodeId) -> Option<usize> {
            let trav = self.trav.as_ref().expect("window started");
            trav.value(ntk, node).map(|v| v as usize)
        }

        fn add<N: Network>(&mut self, ntk: &N, node: NodeId) {
            let fanins: Vec<TruthTable> = (0..ntk.fanin_size(node))
                .map(|j| {
                    let f = ntk.fanin(node, j);
                    let tt = &self.values[self.index_of(ntk, f.node()).expect("fanin in window")];
                    if f.is_complemented() {
                        !tt
                    } else {
                        tt.clone()
                    }
                })
                .collect();
            let tt = evaluate_function(&ntk.node_function(node), ntk.gate_kind(node), &fanins);
            self.insert(ntk, node, tt);
        }

        /// [`expand_window`] over the table window.
        fn expand<N: Network>(&mut self, ntk: &N, root: NodeId, limit: usize) {
            let mut i = 0usize;
            while i < self.nodes.len() && self.nodes.len() < limit {
                let member = self.nodes[i];
                i += 1;
                ntk.foreach_fanout(member, |candidate| {
                    if self.nodes.len() >= limit
                        || candidate == root
                        || self.index_of(ntk, candidate).is_some()
                        || !ntk.is_gate(candidate)
                    {
                        return;
                    }
                    let mut all_in_window = true;
                    ntk.foreach_fanin(candidate, |f| {
                        if f.node() == root || self.index_of(ntk, f.node()).is_none() {
                            all_in_window = false;
                        }
                    });
                    if all_in_window {
                        self.add(ntk, candidate);
                    }
                });
            }
        }
    }

    struct TableDivisor {
        signal: Signal,
        function: TruthTable,
    }

    /// The target, the divisors and the MFFC size of `node`, collected
    /// like [`Window::collect`] over the table window.
    fn table_window<N: Network>(
        ntk: &N,
        node: NodeId,
        params: &ResubParams,
    ) -> Option<(TruthTable, Vec<TableDivisor>, i64)> {
        let leaves = ReconvergenceCut::new()
            .compute(ntk, node, params.max_leaves)
            .to_vec();
        if leaves.is_empty() || leaves.len() > 14 {
            return None;
        }
        let mut win = TableWindow::default();
        win.simulate(ntk, node, &leaves);
        win.expand(ntk, node, params.max_divisors * 2);
        let target = win.values[win.index_of(ntk, node).expect("root in window")].clone();
        let mut mffc_nodes = Vec::new();
        mffc_into(ntk, node, &mut mffc_nodes);
        let marks = Traversal::new(ntk);
        for &m in &mffc_nodes {
            marks.mark(ntk, m);
        }
        let mut order: Vec<usize> = (0..win.nodes.len()).collect();
        order.sort_unstable_by_key(|&i| win.nodes[i]);
        let mut divisors = Vec::new();
        for i in order {
            if divisors.len() >= params.max_divisors {
                break;
            }
            let n = win.nodes[i];
            if n != node && n != 0 && !marks.is_marked(ntk, n) && !ntk.is_dead(n) {
                divisors.push(TableDivisor {
                    signal: Signal::new(n, false),
                    function: win.values[i].clone(),
                });
            }
        }
        Some((target, divisors, mffc_nodes.len() as i64))
    }

    /// The table-level search.
    fn table_search<N: ResubNetwork>(
        ntk: &mut N,
        target: &TruthTable,
        divisors: &[TableDivisor],
        params: &ResubParams,
        mffc_size: i64,
        min_gain: i64,
    ) -> Option<(Signal, i64)> {
        if target.is_zero() {
            return Some((ntk.get_constant(false), 0));
        }
        if target.is_one() {
            return Some((ntk.get_constant(true), 0));
        }
        for d in divisors {
            if &d.function == target {
                return Some((d.signal, 0));
            }
            if d.function == !target {
                return Some((!d.signal, 0));
            }
        }
        if params.max_inserts == 0 {
            return None;
        }
        let polarised: Vec<(Signal, TruthTable)> = divisors
            .iter()
            .flat_map(|d| [(d.signal, d.function.clone()), (!d.signal, !&d.function)])
            .collect();
        let up: Vec<&(Signal, TruthTable)> = polarised
            .iter()
            .filter(|(_, tt)| target.implies(tt))
            .take(40)
            .collect();
        let down: Vec<&(Signal, TruthTable)> = polarised
            .iter()
            .filter(|(_, tt)| tt.implies(target))
            .take(40)
            .collect();
        if mffc_size > min_gain {
            for (i, (sa, ta)) in up.iter().enumerate() {
                for (sb, tb) in up.iter().skip(i + 1) {
                    if &(ta & tb) == target {
                        return Some((ntk.create_and(*sa, *sb), 1));
                    }
                }
            }
            for (i, (sa, ta)) in down.iter().enumerate() {
                for (sb, tb) in down.iter().skip(i + 1) {
                    if &(ta | tb) == target {
                        return Some((ntk.create_or(*sa, *sb), 1));
                    }
                }
            }
            if N::STYLE == ResubStyle::AndXor {
                let mut by_function: Vec<usize> = (0..divisors.len()).collect();
                by_function.sort_unstable_by(|&a, &b| {
                    let (a, b) = (&divisors[a], &divisors[b]);
                    a.function.cmp(&b.function).then(a.signal.cmp(&b.signal))
                });
                for d in divisors {
                    let needed = target ^ &d.function;
                    let first =
                        by_function.partition_point(|&probe| divisors[probe].function < needed);
                    if let Some(&probe) = by_function.get(first) {
                        let other = &divisors[probe];
                        if other.function == needed && other.signal.node() != d.signal.node() {
                            return Some((ntk.create_xor(d.signal, other.signal), 1));
                        }
                    }
                }
            }
            if N::STYLE == ResubStyle::Majority {
                let limited: Vec<&(Signal, TruthTable)> = polarised.iter().take(24).collect();
                for i in 0..limited.len() {
                    for j in (i + 1)..limited.len() {
                        for k in (j + 1)..limited.len() {
                            let (sa, ta) = limited[i];
                            let (sb, tb) = limited[j];
                            let (sc, tc) = limited[k];
                            if &TruthTable::maj(ta, tb, tc) == target {
                                return Some((ntk.create_maj(*sa, *sb, *sc), 1));
                            }
                        }
                    }
                }
            }
        }
        if params.max_inserts >= 2 && mffc_size - 2 >= min_gain {
            let inner: Vec<&(Signal, TruthTable)> = polarised.iter().take(30).collect();
            for (s1, t1) in &up {
                for i in 0..inner.len() {
                    for j in (i + 1)..inner.len() {
                        let (s2, t2) = inner[i];
                        let (s3, t3) = inner[j];
                        if &(t1 & &(t2 | t3)) == target {
                            let or = ntk.create_or(*s2, *s3);
                            return Some((ntk.create_and(*s1, or), 2));
                        }
                        if N::STYLE == ResubStyle::AndXor && &(t1 & &(t2 ^ t3)) == target {
                            let xor = ntk.create_xor(*s2, *s3);
                            return Some((ntk.create_and(*s1, xor), 2));
                        }
                    }
                }
            }
            for (s1, t1) in &down {
                for i in 0..inner.len() {
                    for j in (i + 1)..inner.len() {
                        let (s2, t2) = inner[i];
                        let (s3, t3) = inner[j];
                        if &(t1 | &(t2 & t3)) == target {
                            let and = ntk.create_and(*s2, *s3);
                            return Some((ntk.create_or(*s1, and), 2));
                        }
                    }
                }
            }
        }
        None
    }

    /// The resubstitution pass driven by the table-level window and
    /// search; returns its substitution count.
    fn table_resubstitute<N: ResubNetwork + Network>(ntk: &mut N, params: &ResubParams) -> usize {
        let mut substitutions = 0;
        for node in ntk.gate_nodes() {
            if !ntk.is_gate(node) || ntk.fanout_size(node) == 0 {
                continue;
            }
            let Some((target, divisors, mffc_size)) = table_window(ntk, node, params) else {
                continue;
            };
            let min_gain = i64::from(!params.allow_zero_gain);
            let size_before = ntk.size();
            if let Some((replacement, _)) =
                table_search(ntk, &target, &divisors, params, mffc_size, min_gain)
            {
                if replacement.node() != node {
                    ntk.substitute_node(node, replacement);
                    substitutions += 1;
                }
            }
            crate::replace::sweep_new_dangling(ntk, size_before);
        }
        substitutions
    }

    /// A seeded random network over `num_pis` inputs: each of `num_gates`
    /// steps calls `gate` with a random word and three earlier signals
    /// (mostly recent ones, so cones reconverge), possibly complemented.
    /// The last four signals are the outputs.
    fn random_network<N: GateBuilder>(
        seed: u64,
        num_pis: usize,
        num_gates: usize,
        gate: impl Fn(&mut N, u64, [Signal; 3]) -> Signal,
    ) -> N {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_add(0x9E37_79B9_7F4A_7C15);
            let mut z = state;
            z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
            z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
            z ^ (z >> 31)
        };
        let mut ntk = N::new();
        let mut signals: Vec<Signal> = (0..num_pis).map(|_| ntk.create_pi()).collect();
        for _ in 0..num_gates {
            let fanins: [Signal; 3] = std::array::from_fn(|_| {
                let r = next();
                let len = signals.len();
                let i = if r % 4 == 0 {
                    (r >> 8) as usize % len
                } else {
                    len - 1 - (r >> 8) as usize % len.min(16)
                };
                signals[i].complement_if(r & 2 == 2)
            });
            let s = gate(&mut ntk, next(), fanins);
            signals.push(s);
        }
        for s in signals.iter().rev().take(4) {
            ntk.create_po(*s);
        }
        ntk
    }

    fn random_aig(seed: u64) -> Aig {
        random_network(seed, 14, 90, |n: &mut Aig, _, [a, b, _]| n.create_and(a, b))
    }

    /// XAG in which some XORs also exist as an AND/OR cone, so windows
    /// hold divisors with equal functions (the XOR lookup's tie-break).
    fn random_xag(seed: u64) -> Xag {
        random_network(seed, 14, 90, |n: &mut Xag, r, [a, b, _]| match r % 6 {
            0 => {
                n.create_xor(a, b);
                let (p, q) = (n.create_and(a, !b), n.create_and(!a, b));
                n.create_or(p, q)
            }
            1 | 2 => n.create_xor(a, b),
            _ => n.create_and(a, b),
        })
    }

    /// MIG with AND and OR gates, majority gates with a constant fanin.
    fn random_mig(seed: u64) -> Mig {
        random_network(seed, 14, 90, |n: &mut Mig, r, [a, b, c]| match r % 4 {
            0 => n.create_and(a, b),
            1 => n.create_or(a, b),
            _ => n.create_maj(a, b, c),
        })
    }

    fn random_xmg(seed: u64) -> Xmg {
        random_network(seed, 14, 90, |n: &mut Xmg, r, [a, b, c]| match r % 4 {
            0 => n.create_xor3(a, b, c),
            1 => n.create_and(a, b),
            _ => n.create_maj(a, b, c),
        })
    }

    /// Simulates `root` over `leaves` in both windows, expands both with the
    /// same side divisors and asserts that every entry has the same node and
    /// the same table.
    fn assert_windows_agree<N: Network>(ntk: &N, root: NodeId, leaves: &[NodeId]) {
        let mut sim = ConeSimulator::new();
        let mut table = TableWindow::default();
        sim.simulate(ntk, root, leaves);
        table.simulate(ntk, root, leaves);
        let cone = sim.len();
        expand_window(ntk, root, &mut sim, 100);
        for &node in &sim.nodes()[cone..] {
            table.add(ntk, node);
        }
        assert_eq!(sim.nodes(), &table.nodes[..], "window order of {root}");
        for (i, tt) in table.values.iter().enumerate() {
            assert_eq!(tt.num_vars(), sim.num_leaves());
            assert_eq!(sim.words_at(i), tt.words(), "entry {i} of {root}'s window");
        }
    }

    /// Every window of every reconvergence cut at 4 to 12 leaves holds the
    /// table simulator's tables, on AIG, XAG, MIG, XMG and k-LUT networks,
    /// including MIG windows with the constant as a leaf and windows with a
    /// repeated leaf.
    #[test]
    fn window_tables_match_the_table_simulator() {
        fn check<N: Network>(ntk: &N) -> usize {
            let mut cut = ReconvergenceCut::new();
            let (mut constant_leaves, mut widest) = (0, 0);
            for node in ntk.gate_nodes() {
                for max_leaves in 4..=12 {
                    let mut leaves = cut.compute(ntk, node, max_leaves).to_vec();
                    constant_leaves += usize::from(leaves.contains(&0));
                    widest = widest.max(leaves.len());
                    assert_windows_agree(ntk, node, &leaves);
                    if leaves.len() < 12 {
                        leaves.push(leaves[0]);
                        assert_windows_agree(ntk, node, &leaves);
                    }
                }
            }
            assert!(widest > 6, "no window holds multi-word tables");
            constant_leaves
        }
        for seed in 0..2 {
            check(&random_aig(seed));
            check(&random_xag(seed));
            assert!(
                check(&random_mig(seed)) > 0,
                "no MIG window has a constant leaf"
            );
            check(&random_xmg(seed));
            let klut: Klut =
                random_network(seed, 14, 60, |n: &mut Klut, r, [a, b, c]| match r % 3 {
                    0 => n.create_xor(a, b),
                    1 => n.create_and(a, b),
                    _ => n.create_maj(a, b, c),
                });
            check(&klut);
        }
    }

    /// On every window, the word search returns the table search's
    /// replacement and insert count at `-c 6/8/10/12` × `-d 1/2`, for both
    /// gain thresholds, on AIG, XAG and MIG networks.
    #[test]
    fn word_search_matches_the_table_search() {
        fn check<N: ResubNetwork + Network + Clone>(ntk: &N) -> [usize; 4] {
            // matches found with 0, 1 and 2 inserted gates, and inserted
            // majority gates without a constant fanin
            let mut found = [0usize; 4];
            let mut window = Window::default();
            let mut buffers = SearchBuffers::default();
            for max_leaves in [6, 8, 10, 12] {
                for max_inserts in [1, 2] {
                    let params = ResubParams {
                        max_leaves,
                        max_inserts,
                        ..ResubParams::default()
                    };
                    for node in ntk.gate_nodes() {
                        let words = window.collect(ntk, node, &params);
                        let tables = table_window(ntk, node, &params);
                        let (Some(mffc_size), Some((target, table_divisors, table_mffc))) =
                            (words, tables)
                        else {
                            assert!(words.is_none() && table_window(ntk, node, &params).is_none());
                            continue;
                        };
                        let divs = &window.divisors;
                        assert_eq!(mffc_size, table_mffc);
                        assert_eq!(divs.target, target.words());
                        assert_eq!(divs.len(), table_divisors.len());
                        for (i, d) in table_divisors.iter().enumerate() {
                            assert_eq!(
                                (divs.signals[i], divs.words(i)),
                                (d.signal, d.function.words())
                            );
                        }
                        for min_gain in [0, 1] {
                            let (mut a, mut b) = (ntk.clone(), ntk.clone());
                            let word = find_resubstitution(
                                &mut a,
                                divs,
                                &mut buffers,
                                &params,
                                mffc_size,
                                min_gain,
                            );
                            let table = table_search(
                                &mut b,
                                &target,
                                &table_divisors,
                                &params,
                                mffc_size,
                                min_gain,
                            );
                            assert_eq!(
                                word, table,
                                "node {node}, -c {max_leaves} -d {max_inserts}"
                            );
                            if let Some((g, inserted)) = word {
                                found[inserted as usize] += 1;
                                let gate = g.node();
                                found[3] += usize::from(
                                    inserted == 1
                                        && a.gate_kind(gate) == GateKind::Maj
                                        && (0..3).all(|j| a.fanin(gate, j).node() != 0),
                                );
                            }
                        }
                    }
                }
            }
            found
        }
        let mut found = [[0usize; 4]; 3];
        for seed in 0..2 {
            for (total, n) in found.iter_mut().zip([
                check(&random_aig(seed)),
                check(&random_xag(seed)),
                check(&random_mig(seed)),
            ]) {
                total.iter_mut().zip(n).for_each(|(t, n)| *t += n);
            }
        }
        let [aig, xag, mig] = found;
        assert!(
            aig[..3].iter().all(|&n| n > 0),
            "AIG kernels unexercised: {aig:?}"
        );
        assert!(
            xag[..3].iter().all(|&n| n > 0),
            "XAG kernels unexercised: {xag:?}"
        );
        assert!(mig[0] > 0 && mig[3] > 0, "MIG kernels unexercised: {mig:?}");
    }

    /// Node count, every node's fanins and the outputs.
    fn structure<N: Network>(ntk: &N) -> (Vec<Vec<Signal>>, Vec<Signal>) {
        let fanins = (0..ntk.size() as NodeId)
            .map(|n| (0..ntk.fanin_size(n)).map(|j| ntk.fanin(n, j)).collect())
            .collect();
        (fanins, ntk.po_signals())
    }

    /// `resubstitute` and the table-level pass leave structurally identical
    /// networks.
    #[test]
    fn pass_matches_the_table_pass() {
        fn check<N: ResubNetwork + Network + Clone>(ntk: &N, params: &ResubParams) {
            let (mut words, mut tables) = (ntk.clone(), ntk.clone());
            let stats = resubstitute(&mut words, params);
            let substitutions = table_resubstitute(&mut tables, params);
            assert_eq!(stats.substitutions, substitutions);
            assert_eq!(words.size(), tables.size());
            assert_eq!(structure(&words), structure(&tables));
        }
        for seed in 0..2 {
            for (max_leaves, max_inserts) in [(8, 1), (10, 2), (12, 2)] {
                let params = ResubParams {
                    max_leaves,
                    max_inserts,
                    ..ResubParams::default()
                };
                check(&random_aig(seed), &params);
                check(&random_xag(seed), &params);
                check(&random_mig(seed), &params);
                check(&random_xmg(seed), &params);
            }
        }
    }

    /// The work counters repeat exactly, reach the registry under
    /// `resub.*`, and are non-zero whenever the pass visits a gate.
    #[test]
    fn work_counters_are_deterministic_and_reported() {
        let params = ResubParams {
            max_leaves: 10,
            max_inserts: 2,
            ..ResubParams::default()
        };
        let run = |mut xag: Xag| {
            let tracer = Tracer::new(TraceMode::Counters);
            let stats = resubstitute_traced(&mut xag, &params, &Budget::unlimited(), &tracer);
            let metrics = tracer.metrics();
            assert_eq!(
                metrics.counter("resub.window_nodes"),
                stats.window_nodes as u64
            );
            assert_eq!(metrics.counter("resub.divisors"), stats.divisors as u64);
            stats
        };
        let first = run(random_xag(3));
        assert!(first.visited > 0 && first.window_nodes > 0 && first.divisors > 0);
        assert_eq!(run(random_xag(3)), first);
    }
}
