//! Refactoring (Algorithm 4 of the paper).
//!
//! Refactoring collapses a larger cone of logic rooted at a node into its
//! truth table and resynthesises it from scratch — a powerful way to
//! overcome structural bias that local rewriting cannot fix.  The cone is a
//! reconvergence-driven cut with a bounded number of leaves; the new
//! structure is accepted when it is cheaper than the maximum fanout-free
//! cone it replaces (or equal, for zero-gain refactoring).

use crate::cuts::ReconvergenceCut;
use crate::replace::{ReplaceOutcome, Replacer};
use glsx_network::telemetry::{self, BatchSpans, MetricsSource, Tracer, BATCH_INTERVAL};
use glsx_network::{Budget, GateBuilder, Network, NodeId, StepOutcome};
use glsx_synth::{Resynthesis, SopResynthesis};

/// Parameters of refactoring.
#[derive(Clone, Copy, Debug)]
pub struct RefactorParams {
    /// Maximum number of leaves of the collapsed cone.
    pub max_leaves: usize,
    /// Accept replacements that do not change the size.
    pub allow_zero_gain: bool,
    /// Only refactor nodes whose maximum fanout-free cone has at least this
    /// many gates (small cones are better served by rewriting).
    pub min_mffc_size: usize,
}

impl Default for RefactorParams {
    fn default() -> Self {
        Self {
            max_leaves: 10,
            allow_zero_gain: false,
            min_mffc_size: 2,
        }
    }
}

/// Statistics of a refactoring pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RefactorStats {
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

/// Refactors `ntk` using the given resynthesis engine.
pub fn refactor_with<N, R>(
    ntk: &mut N,
    resynthesis: &mut R,
    params: &RefactorParams,
) -> RefactorStats
where
    N: Network + GateBuilder,
    R: Resynthesis<N>,
{
    refactor_traced(
        ntk,
        resynthesis,
        params,
        &Budget::unlimited(),
        telemetry::global(),
    )
}

/// [`refactor_with`] under a cooperative effort [`Budget`] (one tick per
/// candidate gate, polled between candidates — an exhausted pass keeps
/// every committed substitution and stops cleanly), reporting through an
/// explicit telemetry [`Tracer`] (pass span, candidate-batch spans in
/// full mode, stats absorbed into the registry).  Observational only.
pub fn refactor_traced<N, R>(
    ntk: &mut N,
    resynthesis: &mut R,
    params: &RefactorParams,
    budget: &Budget,
    tracer: &Tracer,
) -> RefactorStats
where
    N: Network + GateBuilder,
    R: Resynthesis<N>,
{
    let _pass = tracer.span("refactor");
    let mut batch = BatchSpans::new(tracer, "refactor_candidates", BATCH_INTERVAL);
    let mut stats = RefactorStats::default();
    let mut replacer = Replacer::new();
    // the cut computer's leaf buffer is reused across all visited nodes
    // (its traversal finishes inside `compute`, so the replacer's own
    // traversals never interleave with it)
    let mut cut = ReconvergenceCut::new();
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
        if crate::refs::mffc_size(ntk, node) < params.min_mffc_size {
            continue;
        }
        let leaves = cut.compute(ntk, node, params.max_leaves);
        if leaves.len() < 2 || leaves.len() > 16 {
            continue;
        }
        match replacer.try_replace_on_cut(
            ntk,
            node,
            leaves,
            None,
            resynthesis,
            params.allow_zero_gain,
        ) {
            ReplaceOutcome::Substituted(gain) => {
                stats.substitutions += 1;
                stats.estimated_gain += gain;
            }
            ReplaceOutcome::Rejected => {}
        }
    }
    stats.outcome = budget.outcome();
    tracer.absorb("refactor", &stats);
    stats
}

impl MetricsSource for RefactorStats {
    fn visit_metrics(&self, visit: &mut dyn FnMut(&str, u64)) {
        visit("visited", self.visited as u64);
        visit("substitutions", self.substitutions as u64);
        visit("estimated_gain", self.estimated_gain.max(0) as u64);
        visit("exhausted", u64::from(!self.outcome.is_completed()));
    }
}

/// Refactors `ntk` with the default SOP-factoring resynthesis engine.
pub fn refactor<N>(ntk: &mut N, params: &RefactorParams) -> RefactorStats
where
    N: Network + GateBuilder,
{
    refactor_with(ntk, &mut SopResynthesis, params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use glsx_network::simulation::equivalent_by_simulation;
    use glsx_network::{Aig, GateBuilder, Mig, Network, Signal};

    /// A sum-of-minterms implementation of a 3-input OR (structurally very
    /// redundant: 7 minterm cubes ORed together).
    fn minterm_or_aig() -> Aig {
        let mut aig = Aig::new();
        let pis: Vec<Signal> = (0..3).map(|_| aig.create_pi()).collect();
        let mut minterms = Vec::new();
        for m in 1u32..8 {
            let literals: Vec<Signal> = pis
                .iter()
                .enumerate()
                .map(|(i, &s)| s.complement_if((m >> i) & 1 == 0))
                .collect();
            minterms.push(aig.create_nary_and(&literals));
        }
        let f = aig.create_nary_or(&minterms);
        aig.create_po(f);
        aig
    }

    #[test]
    fn refactoring_collapses_redundant_cones() {
        let mut aig = minterm_or_aig();
        let reference = aig.clone();
        let before = aig.num_gates();
        let stats = refactor(&mut aig, &RefactorParams::default());
        assert!(stats.substitutions > 0);
        assert!(
            aig.num_gates() < before,
            "refactoring should shrink the minterm expansion ({} -> {})",
            before,
            aig.num_gates()
        );
        assert!(equivalent_by_simulation(&reference, &aig));
    }

    #[test]
    fn refactoring_preserves_functions_on_random_networks() {
        let mut state = 0x1357_9bdf_u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as usize
        };
        for _ in 0..4 {
            let mut mig = Mig::new();
            let mut signals: Vec<Signal> = (0..5).map(|_| mig.create_pi()).collect();
            for _ in 0..30 {
                let a = signals[next() % signals.len()].complement_if(next() % 2 == 0);
                let b = signals[next() % signals.len()].complement_if(next() % 2 == 0);
                let c = signals[next() % signals.len()].complement_if(next() % 2 == 0);
                signals.push(mig.create_maj(a, b, c));
            }
            for s in signals.iter().rev().take(2) {
                mig.create_po(*s);
            }
            let reference = mig.clone();
            refactor(&mut mig, &RefactorParams::default());
            assert!(equivalent_by_simulation(&reference, &mig));
            assert!(mig.num_gates() <= reference.num_gates());
        }
    }

    #[test]
    fn zero_gain_refactoring_does_not_grow_the_network() {
        let mut aig = minterm_or_aig();
        let params = RefactorParams {
            allow_zero_gain: true,
            ..RefactorParams::default()
        };
        let reference = aig.clone();
        refactor(&mut aig, &params);
        assert!(aig.num_gates() <= reference.num_gates());
        assert!(equivalent_by_simulation(&reference, &aig));
    }
}
