//! Shared DAG-aware replacement machinery used by rewriting and
//! refactoring: evaluate the gain of re-expressing a node over a cut and
//! commit the substitution if it pays off.
//!
//! The machinery is packaged as a reusable [`Replacer`] so a whole pass
//! shares one set of buffers: the cone simulator (when the cut function is
//! not already known), the containment-check worklist and seen list.  The
//! per-candidate reference counts live in the network's scratch slots (see
//! [`RefCountView`]), so a replacement attempt allocates no hash maps or
//! side tables at all.

use crate::cuts::{ConeSimulator, CutFunction};
use crate::refs::RefCountView;
use glsx_network::{GateBuilder, Network, NodeId, Signal};
use glsx_synth::Resynthesis;
use glsx_truth::TruthTable;

/// Result of a replacement attempt.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum ReplaceOutcome {
    /// The node was substituted; the payload is the estimated gain in gate
    /// count (freed minus added).
    Substituted(i64),
    /// No beneficial replacement was found; the network is unchanged
    /// (candidate nodes, if any, were taken out again).
    Rejected,
}

/// Reusable replacement engine (buffers shared across candidates).
#[derive(Debug)]
pub struct Replacer {
    sim: ConeSimulator,
    /// Reused heap table crossing the resynthesis boundary: the `Copy`
    /// [`CutFunction`] handed in by rewriting is written into this buffer
    /// in place, so a candidate evaluation allocates no table at all.
    function_buf: TruthTable,
    leaf_signals: Vec<Signal>,
    seen: Vec<NodeId>,
    stack: Vec<NodeId>,
}

impl Default for Replacer {
    fn default() -> Self {
        Self {
            sim: ConeSimulator::new(),
            function_buf: TruthTable::zero(0),
            leaf_signals: Vec::new(),
            seen: Vec::new(),
            stack: Vec::new(),
        }
    }
}

impl Replacer {
    /// Creates a replacer with empty buffers.
    pub fn new() -> Self {
        Self::default()
    }

    /// Attempts to replace `node` by a resynthesised structure over the cut
    /// `leaves`.
    ///
    /// `function` is the `Copy` function of `node` over `leaves` if the
    /// caller already knows it (fused cut functions read straight off the
    /// [`CutManager`](crate::cuts::CutManager) arena); when `None` it is
    /// computed by cone simulation.  Either way the table crosses the
    /// resynthesis boundary through a reused buffer — no per-candidate
    /// heap `TruthTable` is materialised.
    ///
    /// The gain is measured DAG-aware via reference counting: `freed`
    /// counts the gates that disappear with `node`'s maximum fanout-free
    /// cone, `added` counts the new gates the candidate needs after
    /// structural hashing.  The candidate is committed when
    /// `added < freed`, or `added <= freed` if `allow_zero_gain` is set.
    pub fn try_replace_on_cut<N, R>(
        &mut self,
        ntk: &mut N,
        node: NodeId,
        leaves: &[NodeId],
        function: Option<CutFunction>,
        resynthesis: &mut R,
        allow_zero_gain: bool,
    ) -> ReplaceOutcome
    where
        N: Network + GateBuilder,
        R: Resynthesis<N>,
    {
        if !ntk.is_gate(node) || ntk.fanout_size(node) == 0 {
            return ReplaceOutcome::Rejected;
        }
        if leaves.is_empty() || leaves.contains(&node) || leaves.iter().any(|&l| ntk.is_dead(l)) {
            return ReplaceOutcome::Rejected;
        }
        // the simulator's traversal finishes before the ref-count traversal
        // below begins — they never interleave on the scratch slots
        match function {
            Some(cf) => cf.write_truth_table(&mut self.function_buf),
            None => {
                let words = self.sim.simulate(ntk, node, leaves);
                self.function_buf.assign_words(leaves.len(), words);
            }
        }

        // virtually remove the node's cone
        let mut refs = RefCountView::new(ntk);
        let freed = refs.deref_recursive(ntk, node) as i64;

        // build the candidate structure
        let size_before = ntk.size();
        self.leaf_signals.clear();
        self.leaf_signals
            .extend(leaves.iter().map(|&l| Signal::new(l, false)));
        let candidate = match resynthesis.resynthesize(ntk, &self.function_buf, &self.leaf_signals)
        {
            Some(c) => c,
            None => {
                refs.ref_recursive(ntk, node);
                return ReplaceOutcome::Rejected;
            }
        };

        // the candidate must neither be the node itself nor contain it
        if candidate.node() == node || self.candidate_contains(ntk, candidate.node(), node, leaves)
        {
            refs.ref_recursive(ntk, node);
            discard_candidate(ntk, candidate);
            sweep_new_dangling(ntk, size_before);
            return ReplaceOutcome::Rejected;
        }

        // treat freshly created nodes as unreferenced for gain measurement
        for id in size_before..ntk.size() {
            let id = id as NodeId;
            let mut external = 0i64;
            ntk.foreach_fanout(id, |p| {
                if (p as usize) < size_before {
                    external += 1;
                }
            });
            refs.set_count(ntk, id, external);
        }
        let added = if (candidate.node() as usize) < size_before {
            // pure reuse of existing logic
            0
        } else {
            refs.ref_recursive(ntk, candidate.node()) as i64
        };

        let accept = if allow_zero_gain {
            added <= freed
        } else {
            added < freed
        };
        let outcome = if accept {
            ntk.substitute_node(node, candidate);
            ReplaceOutcome::Substituted(freed - added)
        } else {
            discard_candidate(ntk, candidate);
            ReplaceOutcome::Rejected
        };
        sweep_new_dangling(ntk, size_before);
        outcome
    }

    /// Commits a *proven-equivalent* merge: substitutes every use of
    /// `node` by `replacement` and removes the logic that becomes
    /// dangling.  Returns `false` (leaving the network untouched) if the
    /// merge is structurally impossible: `node` is not a live gate,
    /// `replacement` is dead, or `replacement`'s cone contains `node` (the
    /// substitution would create a cycle).
    ///
    /// Unlike [`Replacer::try_replace_on_cut`] there is no gain
    /// evaluation and no resynthesis — the caller asserts functional
    /// equality (SAT sweeping proves it with a miter), and removing a
    /// duplicated cone can only shrink the network.
    ///
    /// The acyclicity walk uses a scratch-slot traversal; callers must not
    /// hold another live-writing traversal across this call.
    pub fn merge_equivalent<N: Network>(
        &mut self,
        ntk: &mut N,
        node: NodeId,
        replacement: Signal,
    ) -> bool {
        if !ntk.is_gate(node) || ntk.is_dead(replacement.node()) || replacement.node() == node {
            return false;
        }
        // `node` inside the replacement's cone — equivalently, the
        // replacement inside `node`'s fanout cone — means the substitution
        // would create a cycle
        if self.fanout_cone_contains(ntk, node, replacement.node()) {
            return false;
        }
        let size_before = ntk.size();
        ntk.substitute_node(node, replacement);
        sweep_new_dangling(ntk, size_before);
        true
    }

    /// Commits a *proven-equivalent* pair as a structural **choice**
    /// instead of a destructive merge: every use of `node` is rewired onto
    /// `replacement` (exactly like [`Replacer::merge_equivalent`]) but the
    /// cone of `node` is kept alive and linked into the representative's
    /// choice ring, so a choice-aware mapper can still realise it
    /// ([`glsx_network::choices`] documents the ring representation).
    /// Returns `false` (network untouched) when the registration is
    /// structurally impossible: `node` is not a live gate, `replacement`
    /// is dead, or `node` appears in `replacement`'s cone (rewiring the
    /// fanouts would create a structural cycle).  The representative
    /// appearing *inside* the member's cone is fine — the typical
    /// redundant re-expression is built on top of the original node — and
    /// choice-aware cut enumeration handles it (the representative can be
    /// an interior node of a member cut's cone; only cuts with the
    /// representative as a *leaf* are skipped).
    ///
    /// The acyclicity walk uses a scratch-slot traversal; callers must not
    /// hold another live-writing traversal across this call.
    pub fn keep_as_choice<N: Network>(
        &mut self,
        ntk: &mut N,
        node: NodeId,
        replacement: Signal,
    ) -> bool {
        if !ntk.is_gate(node) || ntk.is_dead(replacement.node()) || replacement.node() == node {
            return false;
        }
        // registration resolves a member-level replacement to its ring
        // head and rewires onto *that* node, so the acyclicity walk must
        // look for the head, not just the replacement
        let target = ntk.choice_repr(replacement.node());
        if ntk.is_dead(target) || target == node || self.fanout_cone_contains(ntk, node, target) {
            return false;
        }
        ntk.register_choice(node, replacement)
    }

    /// Returns `true` if `query` appears in the transitive fanout of `root`
    /// (inclusive): the same answer as "`root` appears in the fanin cone of
    /// `query`", asked from the side that is small in a sweep.  A merge's
    /// losing node is usually a redundant cone near the outputs with a
    /// small fanout cone, while the winner's fanin cone reaches down to the
    /// primary inputs: walking that for every merge would make a sweep's
    /// apply phase quadratic.  Fanout lists are materialised first (a
    /// bulk-loaded network defers them).
    fn fanout_cone_contains<N: Network>(
        &mut self,
        ntk: &mut N,
        root: NodeId,
        query: NodeId,
    ) -> bool {
        ntk.ensure_derived_state();
        let ntk = &*ntk;
        let visited = glsx_network::Traversal::new(ntk);
        self.stack.clear();
        self.stack.push(root);
        visited.mark(ntk, root);
        while let Some(n) = self.stack.pop() {
            if n == query {
                return true;
            }
            ntk.foreach_fanout(n, |p| {
                if visited.mark(ntk, p) {
                    self.stack.push(p);
                }
            });
        }
        false
    }

    /// Returns `true` if `query` appears in the cone of `root` (inclusive):
    /// the fanin walk [`Replacer::fanout_cone_contains`] replaced, kept as
    /// its test oracle.
    #[cfg(test)]
    fn cone_contains<N: Network>(&mut self, ntk: &N, root: NodeId, query: NodeId) -> bool {
        let visited = glsx_network::Traversal::new(ntk);
        self.stack.clear();
        self.stack.push(root);
        visited.mark(ntk, root);
        while let Some(n) = self.stack.pop() {
            if n == query {
                return true;
            }
            if !ntk.is_gate(n) {
                continue;
            }
            ntk.foreach_fanin(n, |f| {
                if visited.mark(ntk, f.node()) {
                    self.stack.push(f.node());
                }
            });
        }
        false
    }

    /// Checks whether `forbidden` occurs in the candidate structure rooted
    /// at `root`, searching only down to the cut leaves.
    ///
    /// Candidate structures are small (bounded by the resynthesised cover
    /// of a ≤16-leaf function), so the seen list is a plain vector with a
    /// linear membership scan — deterministic and allocation-free in the
    /// steady state, unlike the former per-call `HashSet`.  It must not use
    /// the scratch-slot traversal: the caller's [`RefCountView`] owns the
    /// scratch between the deref and re-ref phases.
    fn candidate_contains<N: Network>(
        &mut self,
        ntk: &N,
        root: NodeId,
        forbidden: NodeId,
        leaves: &[NodeId],
    ) -> bool {
        self.stack.clear();
        self.seen.clear();
        self.stack.push(root);
        while let Some(n) = self.stack.pop() {
            if n == forbidden {
                return true;
            }
            if leaves.contains(&n) || self.seen.contains(&n) || !ntk.is_gate(n) {
                continue;
            }
            self.seen.push(n);
            ntk.foreach_fanin(n, |f| self.stack.push(f.node()));
        }
        false
    }
}

/// Attempts to replace `node` by a resynthesised structure over the cut
/// `leaves` (convenience wrapper creating a fresh [`Replacer`]; passes
/// reuse one replacer across candidates instead).
pub fn try_replace_on_cut<N, R>(
    ntk: &mut N,
    node: NodeId,
    leaves: &[NodeId],
    resynthesis: &mut R,
    allow_zero_gain: bool,
) -> ReplaceOutcome
where
    N: Network + GateBuilder,
    R: Resynthesis<N>,
{
    Replacer::new().try_replace_on_cut(ntk, node, leaves, None, resynthesis, allow_zero_gain)
}

/// Removes nodes created during a replacement attempt that ended up without
/// any fanout (e.g. intermediate gates orphaned by constructor
/// simplification rules).
pub(crate) fn sweep_new_dangling<N: Network>(ntk: &mut N, size_before: usize) {
    for id in size_before..ntk.size() {
        let id = id as NodeId;
        if ntk.is_gate(id) && ntk.fanout_size(id) == 0 {
            ntk.take_out_node(id);
        }
    }
}

/// Removes a rejected candidate structure (only nodes without fanout are
/// taken out, so shared logic is untouched).
fn discard_candidate<N: Network>(ntk: &mut N, candidate: Signal) {
    if ntk.is_gate(candidate.node()) && ntk.fanout_size(candidate.node()) == 0 {
        ntk.take_out_node(candidate.node());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cuts::simulate_cut;
    use glsx_network::simulation::equivalent_by_simulation;
    use glsx_network::{Aig, GateBuilder};
    use glsx_synth::SopResynthesis;

    #[test]
    fn redundant_logic_is_replaced() {
        // f = (a & b) & (a & c): over the cut {a, b, c} this is a three-input
        // AND, which SOP factoring realises with 2 gates instead of 3.
        let mut aig = Aig::new();
        let a = aig.create_pi();
        let b = aig.create_pi();
        let c = aig.create_pi();
        let ab = aig.create_and(a, b);
        let ac = aig.create_and(a, c);
        let f = aig.create_and(ab, ac);
        aig.create_po(f);
        let reference = aig.clone();
        assert_eq!(aig.num_gates(), 3);
        let outcome = try_replace_on_cut(
            &mut aig,
            f.node(),
            &[a.node(), b.node(), c.node()],
            &mut SopResynthesis,
            false,
        );
        assert_eq!(outcome, ReplaceOutcome::Substituted(1));
        assert_eq!(aig.num_gates(), 2);
        assert!(equivalent_by_simulation(&reference, &aig));
    }

    #[test]
    fn precomputed_function_gives_identical_outcome() {
        let build = || {
            let mut aig = Aig::new();
            let a = aig.create_pi();
            let b = aig.create_pi();
            let c = aig.create_pi();
            let ab = aig.create_and(a, b);
            let ac = aig.create_and(a, c);
            let f = aig.create_and(ab, ac);
            aig.create_po(f);
            (aig, [a.node(), b.node(), c.node()], f.node())
        };
        let (mut implicit, leaves, f) = build();
        let o1 = try_replace_on_cut(&mut implicit, f, &leaves, &mut SopResynthesis, false);
        let (mut explicit, leaves, f) = build();
        let tt = simulate_cut(&explicit, f, &leaves);
        let o2 = Replacer::new().try_replace_on_cut(
            &mut explicit,
            f,
            &leaves,
            Some(CutFunction::from_truth_table(&tt)),
            &mut SopResynthesis,
            false,
        );
        assert_eq!(o1, o2);
        assert!(equivalent_by_simulation(&implicit, &explicit));
        assert_eq!(implicit.num_gates(), explicit.num_gates());
    }

    #[test]
    fn optimal_logic_is_left_alone() {
        let mut aig = Aig::new();
        let a = aig.create_pi();
        let b = aig.create_pi();
        let c = aig.create_pi();
        let ab = aig.create_and(a, b);
        let f = aig.create_and(ab, c);
        aig.create_po(f);
        let outcome = try_replace_on_cut(
            &mut aig,
            f.node(),
            &[a.node(), b.node(), c.node()],
            &mut SopResynthesis,
            false,
        );
        assert_eq!(outcome, ReplaceOutcome::Rejected);
        assert_eq!(aig.num_gates(), 2);
    }

    #[test]
    fn shared_logic_reduces_the_gain() {
        // the inner AND gate is shared with another output, so replacing the
        // top gate would free only one gate and the rejected candidate must
        // not bloat the network
        let mut aig = Aig::new();
        let a = aig.create_pi();
        let b = aig.create_pi();
        let c = aig.create_pi();
        let ab = aig.create_and(a, b);
        let ac = aig.create_and(a, c);
        let f = aig.create_and(ab, ac);
        aig.create_po(f);
        aig.create_po(ab); // extra fanout for ab
        aig.create_po(ac); // extra fanout for ac
        let before = aig.num_gates();
        let outcome = try_replace_on_cut(
            &mut aig,
            f.node(),
            &[a.node(), b.node(), c.node()],
            &mut SopResynthesis,
            false,
        );
        assert_eq!(outcome, ReplaceOutcome::Rejected);
        assert_eq!(aig.num_gates(), before);
    }

    /// A random network over six inputs: 40 gates, each built by `gate`
    /// from three random, randomly complemented earlier signals, plus six
    /// Shannon re-expressions `(x ∧ s) ∨ (x ∧ ¬s)` of random gates `x`, so
    /// a choice-recording sweep has redundancy to ring; the last signals
    /// drive the outputs.
    fn random_network<N>(seed: u64, gate: fn(&mut N, [Signal; 3], bool) -> Signal) -> N
    where
        N: Network + GateBuilder,
    {
        let mut state = seed;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as usize
        };
        let mut ntk = N::new();
        let pis: Vec<Signal> = (0..6).map(|_| ntk.create_pi()).collect();
        let mut signals = pis.clone();
        for _ in 0..40 {
            let fanins =
                [(); 3].map(|_| signals[next() % signals.len()].complement_if(next() % 2 == 0));
            let flag = next() % 2 == 0;
            signals.push(gate(&mut ntk, fanins, flag));
        }
        for _ in 0..6 {
            let x = signals[pis.len() + next() % 40];
            let s = pis[next() % pis.len()];
            let (t1, t2) = (ntk.create_and(x, s), ntk.create_and(x, !s));
            let dup = ntk.create_or(t1, t2);
            ntk.create_po(dup);
        }
        for s in signals.iter().rev().take(4) {
            ntk.create_po(*s);
        }
        ntk
    }

    /// The fanout walk the merges ask gives the fanin walk's answer for
    /// every ordered pair of live nodes: `b` in the fanout cone of `a`
    /// exactly when `a` is in the fanin cone of `b`.
    fn assert_walks_agree<N: Network>(ntk: &mut N, case: &str) -> usize {
        let mut replacer = Replacer::new();
        let live: Vec<NodeId> = ntk
            .node_ids()
            .into_iter()
            .filter(|&n| !ntk.is_dead(n))
            .collect();
        let mut reaching = 0;
        for &a in &live {
            for &b in &live {
                let fanout = replacer.fanout_cone_contains(ntk, a, b);
                assert_eq!(
                    fanout,
                    replacer.cone_contains(ntk, b, a),
                    "{case}: {a} -> {b}"
                );
                reaching += usize::from(fanout && a != b);
            }
        }
        reaching
    }

    /// The acyclicity walk from the losing node's side agrees with the
    /// fanin walk it replaced on random AIGs, XAGs and MIGs, before and
    /// after a choice-recording sweep rings their redundant cones.
    #[test]
    fn fanout_walk_agrees_with_the_fanin_walk() {
        use crate::sweeping::{sweep, SweepParams};
        use glsx_network::{Mig, Xag};
        fn check<N: Network + GateBuilder>(mut ntk: N, case: &str) -> usize {
            assert!(assert_walks_agree(&mut ntk, case) > 0, "{case}");
            let params = SweepParams {
                record_choices: true,
                ..SweepParams::default()
            };
            let stats = sweep(&mut ntk, &params);
            assert!(assert_walks_agree(&mut ntk, case) > 0, "{case}: {stats:?}");
            ntk.num_choice_nodes()
        }
        let mut rings = 0;
        for seed in 0..6u64 {
            let case = format!("seed {seed}");
            let and = |n: &mut Aig, [a, b, _]: [Signal; 3], _| n.create_and(a, b);
            rings += check(random_network(seed, and), &format!("aig {case}"));
            let and_xor = |n: &mut Xag, [a, b, _]: [Signal; 3], xor: bool| {
                if xor {
                    n.create_xor(a, b)
                } else {
                    n.create_and(a, b)
                }
            };
            rings += check(random_network(seed, and_xor), &format!("xag {case}"));
            let maj = |n: &mut Mig, [a, b, c]: [Signal; 3], _| n.create_maj(a, b, c);
            rings += check(random_network(seed, maj), &format!("mig {case}"));
        }
        assert!(rings > 0, "no choice ring was recorded");
    }
}
