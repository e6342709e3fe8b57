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

use crate::cuts::{ConeSimulator, ReconvergenceCut};
use crate::refs::mffc_into;
use glsx_network::telemetry::{self, BatchSpans, MetricsSource, Tracer, BATCH_INTERVAL};
use glsx_network::{
    Aig, Budget, GateBuilder, Mig, Network, NodeId, Signal, StepOutcome, Traversal, Xag, Xmg,
};
use glsx_truth::TruthTable;

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
    /// Whether the pass ran to completion or stopped on an exhausted
    /// effort budget.
    pub outcome: StepOutcome,
}

/// A divisor: an existing signal together with its window function.
#[derive(Clone, Debug)]
struct Divisor {
    signal: Signal,
    function: TruthTable,
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
    // no side tables (windows and membership tests live in the scratch-slot
    // traversal engine; see `glsx_network::traversal`)
    let mut sim = ConeSimulator::new();
    let mut cut = ReconvergenceCut::new();
    let mut mffc_nodes: Vec<NodeId> = Vec::new();
    let mut window_order: Vec<u32> = Vec::new();
    let mut divisors: Vec<Divisor> = Vec::new();
    let mut by_function: Vec<u32> = Vec::new();
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
        let leaves = cut.compute(ntk, node, params.max_leaves);
        if leaves.is_empty() || leaves.len() > 14 {
            continue;
        }
        // window traversal: simulate the cone, then expand with side
        // divisors — nodes outside the cone of `node` whose fanins already
        // lie in the window (their functions are therefore expressible over
        // the cut and they cannot depend on `node`)
        sim.simulate(ntk, node, leaves);
        expand_window(ntk, node, &mut sim, params.max_divisors * 2);
        let target = sim
            .value_at(sim.index_of(ntk, node).expect("root is in its window"))
            .clone();

        // MFFC traversal (starts after the window traversal has finished;
        // the window is read through its own buffers from here on)
        mffc_into(ntk, node, &mut mffc_nodes);
        let mffc_size = mffc_nodes.len() as i64;

        // divisor-filter traversal: mark the MFFC once, then test each
        // window node in O(1).  Divisors are collected in ascending node-id
        // order (matching the former ordered-map iteration), so every later
        // tie-break is deterministic.
        let mffc_marks = Traversal::new(ntk);
        for &m in &mffc_nodes {
            mffc_marks.mark(ntk, m);
        }
        window_order.clear();
        window_order.extend(0..sim.len() as u32);
        window_order.sort_unstable_by_key(|&i| sim.nodes()[i as usize]);
        divisors.clear();
        for &i in &window_order {
            if divisors.len() >= params.max_divisors {
                break;
            }
            let n = sim.nodes()[i as usize];
            if n != node && n != 0 && !mffc_marks.is_marked(ntk, n) && !ntk.is_dead(n) {
                divisors.push(Divisor {
                    signal: Signal::new(n, false),
                    function: sim.value_at(i as usize).clone(),
                });
            }
        }

        let min_gain = if params.allow_zero_gain { 0 } else { 1 };
        let size_before = ntk.size();
        if let Some((replacement, inserted)) = find_resubstitution::<N>(
            ntk,
            &target,
            &divisors,
            &mut by_function,
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

impl MetricsSource for ResubStats {
    fn visit_metrics(&self, visit: &mut dyn FnMut(&str, u64)) {
        visit("visited", self.visited as u64);
        visit("substitutions", self.substitutions as u64);
        visit("estimated_gain", self.estimated_gain.max(0) as u64);
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
fn find_resubstitution<N: ResubNetwork>(
    ntk: &mut N,
    target: &TruthTable,
    divisors: &[Divisor],
    by_function: &mut Vec<u32>,
    params: &ResubParams,
    mffc_size: i64,
    min_gain: i64,
) -> Option<(Signal, i64)> {
    // constants
    if target.is_zero() {
        return Some((ntk.get_constant(false), 0));
    }
    if target.is_one() {
        return Some((ntk.get_constant(true), 0));
    }
    // 0-resubstitution: an existing divisor (or its complement) matches
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

    // divisor lists with both polarities
    let polarised: Vec<(Signal, TruthTable)> = divisors
        .iter()
        .flat_map(|d| [(d.signal, d.function.clone()), (!d.signal, !&d.function)])
        .collect();
    // filtering rules: candidates that can appear in an AND (they cover the
    // target) and candidates that can appear in an OR (covered by it)
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

    // 1-resubstitution (one inserted gate)
    if mffc_size > min_gain {
        // AND of two covering divisors
        for (i, (sa, ta)) in up.iter().enumerate() {
            for (sb, tb) in up.iter().skip(i + 1) {
                if &(ta & tb) == target {
                    let g = ntk.create_and(*sa, *sb);
                    return Some((g, 1));
                }
            }
        }
        // OR of two covered divisors
        for (i, (sa, ta)) in down.iter().enumerate() {
            for (sb, tb) in down.iter().skip(i + 1) {
                if &(ta | tb) == target {
                    let g = ntk.create_or(*sa, *sb);
                    return Some((g, 1));
                }
            }
        }
        // XOR via sorted-divisor lookup (XAG-style kernels only — majority
        // kernels have no XOR primitive to insert); a sorted index (reused
        // buffer, no per-node allocation) with binary search replaces the
        // former hash map, keeping the matched partner deterministic
        // (smallest function, then signal)
        if N::STYLE == ResubStyle::AndXor {
            by_function.clear();
            by_function.extend(0..divisors.len() as u32);
            by_function.sort_unstable_by(|&a, &b| {
                let (a, b) = (&divisors[a as usize], &divisors[b as usize]);
                a.function.cmp(&b.function).then(a.signal.cmp(&b.signal))
            });
            for d in divisors {
                let needed = target ^ &d.function;
                let first = by_function
                    .partition_point(|&probe| divisors[probe as usize].function < needed);
                if let Some(&probe) = by_function.get(first) {
                    let other = &divisors[probe as usize];
                    if other.function == needed && other.signal.node() != d.signal.node() {
                        let g = ntk.create_xor(d.signal, other.signal);
                        return Some((g, 1));
                    }
                }
            }
        }
        // majority of three divisors (MIG/XMG-style kernels)
        if N::STYLE == ResubStyle::Majority {
            let limited: Vec<&(Signal, TruthTable)> = polarised.iter().take(24).collect();
            for i in 0..limited.len() {
                for j in (i + 1)..limited.len() {
                    for k in (j + 1)..limited.len() {
                        let (sa, ta) = limited[i];
                        let (sb, tb) = limited[j];
                        let (sc, tc) = limited[k];
                        if &TruthTable::maj(ta, tb, tc) == target {
                            let g = ntk.create_maj(*sa, *sb, *sc);
                            return Some((g, 1));
                        }
                    }
                }
            }
        }
    }

    // 2-resubstitution (two inserted gates)
    if params.max_inserts >= 2 && mffc_size - 2 >= min_gain {
        let inner: Vec<&(Signal, TruthTable)> = polarised.iter().take(30).collect();
        // target = d1 & (d2 | d3) with d1 covering the target
        for (s1, t1) in &up {
            for i in 0..inner.len() {
                for j in (i + 1)..inner.len() {
                    let (s2, t2) = inner[i];
                    let (s3, t3) = inner[j];
                    if &(t1 & &(t2 | t3)) == target {
                        let or = ntk.create_or(*s2, *s3);
                        let g = ntk.create_and(*s1, or);
                        return Some((g, 2));
                    }
                    if N::STYLE == ResubStyle::AndXor && &(t1 & &(t2 ^ t3)) == target {
                        let xor = ntk.create_xor(*s2, *s3);
                        let g = ntk.create_and(*s1, xor);
                        return Some((g, 2));
                    }
                }
            }
        }
        // target = d1 | (d2 & d3) with d1 covered by the target
        for (s1, t1) in &down {
            for i in 0..inner.len() {
                for j in (i + 1)..inner.len() {
                    let (s2, t2) = inner[i];
                    let (s3, t3) = inner[j];
                    if &(t1 | &(t2 & t3)) == target {
                        let and = ntk.create_and(*s2, *s3);
                        let g = ntk.create_or(*s1, and);
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
    use glsx_network::simulation::equivalent_by_simulation;
    use glsx_network::{GateBuilder, Network};

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
}
