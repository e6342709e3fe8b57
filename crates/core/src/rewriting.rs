//! DAG-aware cut rewriting (Algorithm 3 of the paper).
//!
//! For every gate, cuts of bounded size are enumerated; each cut function
//! is handed to a [`Resynthesis`] engine (typically the NPN database) and
//! the replacement is committed when the DAG-aware gain — freed gates minus
//! newly added gates, accounting for structural hashing — is positive (or
//! non-negative for zero-gain rewriting).
//!
//! The pass is *incremental by default*: the network records every
//! structural change of a committed substitution into a
//! [`ChangeLog`](glsx_network::ChangeLog) and the cut manager refreshes
//! from it ([`CutManager::refresh_from`]), re-enumerating only the
//! transitive fanout of the rewired nodes.  Later visits therefore see cut
//! sets that reflect the *current* structure — bit-identical to rebuilding
//! the manager from scratch after each substitution
//! ([`CutMaintenance::FullRecompute`], the verification mode run by CI) at
//! a fraction of the enumeration work ([`RewriteStats::cuts`] records
//! both sides of that ledger).

use crate::cuts::{Cut, CutCounters, CutManager, CutParams};
use crate::replace::{ReplaceOutcome, Replacer};
use glsx_network::telemetry::{self, BatchSpans, MetricsSource, Tracer, BATCH_INTERVAL};
use glsx_network::{Budget, ChangeEvent, ChangeLog, GateBuilder, Network, NodeId, StepOutcome};
use glsx_synth::{NpnDatabase, Resynthesis};
use std::collections::VecDeque;

/// How the pass keeps the cut manager consistent with the network after a
/// committed substitution.  Both modes answer every cut query identically
/// (the contract checked by the property suite and the `--smoke` CI run);
/// they differ only in how much enumeration work they spend.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum CutMaintenance {
    /// Refresh incrementally from the recorded change events: only the
    /// transitive fanout of rewired nodes is re-enumerated.
    #[default]
    Incremental,
    /// Drop every memoised cut set after each substitution — the
    /// from-scratch reference the incremental path is verified against.
    FullRecompute,
}

/// Parameters of cut rewriting.
#[derive(Clone, Copy, Debug)]
pub struct RewriteParams {
    /// Maximum cut size (number of leaves considered per subnetwork).
    pub cut_size: usize,
    /// Maximum number of priority cuts kept per node.
    pub cut_limit: usize,
    /// Accept replacements that do not change the size (restructuring that
    /// enables follow-up optimisations; the `rwz` step of the flow).
    pub allow_zero_gain: bool,
    /// Cut-manager maintenance mode (incremental by default).
    pub cut_maintenance: CutMaintenance,
    /// Revisit the fanout frontier of committed substitutions (default):
    /// a commit rewires its fanouts onto new structure, so their cut sets
    /// — already visited or not — now hold candidates the stale pre-pass
    /// order never sees.  Rewired nodes are queued (from the pass's own
    /// [`ChangeEvent::RewiredFanin`](glsx_network::ChangeEvent) records)
    /// and re-attempted after the main sweep.  Revisits demand strictly
    /// positive gain even under `allow_zero_gain` — every revisit commit
    /// shrinks the network, which both bounds the loop and guarantees a
    /// pass is never worse than with the frontier disabled.
    pub revisit_frontier: bool,
}

impl Default for RewriteParams {
    fn default() -> Self {
        Self {
            cut_size: 4,
            cut_limit: 8,
            allow_zero_gain: false,
            cut_maintenance: CutMaintenance::Incremental,
            revisit_frontier: true,
        }
    }
}

/// Statistics of a rewriting pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RewriteStats {
    /// Number of gates visited.
    pub visited: usize,
    /// Number of committed substitutions.
    pub substitutions: usize,
    /// Sum of the estimated gains of committed substitutions.
    pub estimated_gain: i64,
    /// Cut-manager enumeration/invalidation counters of the pass: how many
    /// nodes were invalidated by substitutions and how many were actually
    /// re-enumerated (strictly fewer under incremental maintenance than a
    /// full rebuild would cost).
    pub cuts: CutCounters,
    /// Number of fanout-frontier nodes re-attempted after the main sweep
    /// (see [`RewriteParams::revisit_frontier`]).
    pub frontier_revisits: usize,
    /// Whether the pass ran to completion or stopped on an exhausted
    /// effort budget (having committed only the substitutions applied so
    /// far).
    pub outcome: StepOutcome,
}

/// Rewrites `ntk` using the given resynthesis engine and returns pass
/// statistics.
pub fn rewrite_with<N, R>(ntk: &mut N, resynthesis: &mut R, params: &RewriteParams) -> RewriteStats
where
    N: Network + GateBuilder,
    R: Resynthesis<N>,
{
    rewrite_traced(
        ntk,
        resynthesis,
        params,
        &Budget::unlimited(),
        telemetry::global(),
    )
}

/// [`rewrite_with`] under a cooperative effort [`Budget`], reporting
/// through an explicit telemetry [`Tracer`].
///
/// The budget is charged one tick per candidate gate and polled *between*
/// candidates, so an exhausted pass stops cleanly — every committed
/// substitution stands, no candidate is left half-applied — and reports
/// [`StepOutcome::Exhausted`] in [`RewriteStats::outcome`].  The tracer
/// records a `rewrite` pass span with `main_sweep` and `frontier` phase
/// spans, candidate-batch spans in full mode, and the pass statistics
/// (cut counters included) absorbed into the metrics registry.
/// Observational only — results are bit-identical at any trace mode.
pub fn rewrite_traced<N, R>(
    ntk: &mut N,
    resynthesis: &mut R,
    params: &RewriteParams,
    budget: &Budget,
    tracer: &Tracer,
) -> RewriteStats
where
    N: Network + GateBuilder,
    R: Resynthesis<N>,
{
    let _pass = tracer.span("rewrite");
    // truth tables are fused into enumeration: each candidate's function is
    // read off the cut arena in O(1) instead of re-simulating its cone
    let mut cut_manager = CutManager::new(CutParams {
        cut_size: params.cut_size,
        cut_limit: params.cut_limit,
        compute_truth: true,
    });
    let mut stats = RewriteStats::default();
    let mut replacer = Replacer::new();
    // the network records the structural changes of every committed
    // substitution; the manager refreshes from them so later visits read
    // cut sets of the *current* structure instead of stale pre-pass ones.
    // An enclosing consumer may already be tracking: its state is
    // restored and every event the pass drained — pending pre-pass ones
    // included — is requeued on exit, so the consumer's own refresh still
    // sees the full mutation history.
    let mut log = ChangeLog::new();
    let mut consumed = ChangeLog::new();
    let was_tracking = ntk.is_change_tracking();
    ntk.set_change_tracking(true);
    let nodes: Vec<NodeId> = ntk.gate_nodes();
    // cuts are copied out of the manager's arena once per node so the
    // manager can be invalidated mid-iteration; the buffer is reused, so
    // the steady state allocates nothing
    let mut cuts: Vec<Cut> = Vec::new();
    // fanout frontier of committed substitutions: rewired-but-live nodes
    // queued for a second attempt after the main sweep, FIFO in commit
    // order.  `pending` dedups the queue (a slot per node, grown on
    // demand: substitutions create fresh ids mid-pass).
    let mut revisit: VecDeque<NodeId> = VecDeque::new();
    let mut pending: Vec<bool> = Vec::new();

    /// One rewrite attempt at `node`: scan its (current) priority cuts and
    /// commit the first resynthesis candidate whose DAG-aware gain clears
    /// `allow_zero_gain`.  On commit, the drained change events refresh
    /// the cut manager and — when the frontier is enabled — enqueue every
    /// rewired fanout for a later revisit.
    #[allow(clippy::too_many_arguments)]
    fn attempt_node<N, R>(
        ntk: &mut N,
        node: NodeId,
        allow_zero_gain: bool,
        params: &RewriteParams,
        cut_manager: &mut CutManager,
        replacer: &mut Replacer,
        resynthesis: &mut R,
        cuts: &mut Vec<Cut>,
        log: &mut ChangeLog,
        consumed: &mut ChangeLog,
        revisit: &mut VecDeque<NodeId>,
        pending: &mut Vec<bool>,
        stats: &mut RewriteStats,
    ) where
        N: Network + GateBuilder,
        R: Resynthesis<N>,
    {
        cuts.clear();
        cuts.extend_from_slice(cut_manager.cuts_of(ntk, node));
        for (index, cut) in cuts.iter().enumerate().skip(1) {
            if cut.size() < 2 {
                continue;
            }
            let function = *cut_manager.cut_function(node, index);
            match replacer.try_replace_on_cut(
                ntk,
                node,
                cut.leaves(),
                Some(function),
                resynthesis,
                allow_zero_gain,
            ) {
                ReplaceOutcome::Substituted(gain) => {
                    stats.substitutions += 1;
                    stats.estimated_gain += gain;
                    // the log also carries rejected-candidate cleanup
                    // events from earlier attempts (and possibly an
                    // enclosing consumer's pre-pass events); refreshing
                    // from extras is harmless over-invalidation
                    ntk.drain_changes(log);
                    match params.cut_maintenance {
                        CutMaintenance::Incremental => cut_manager.refresh_from(ntk, log),
                        CutMaintenance::FullRecompute => cut_manager.invalidate_all(),
                    }
                    if params.revisit_frontier {
                        for event in log.events() {
                            let &ChangeEvent::RewiredFanin { node: rewired } = event else {
                                continue;
                            };
                            if pending.len() < ntk.size() {
                                pending.resize(ntk.size(), false);
                            }
                            if !pending[rewired as usize] {
                                pending[rewired as usize] = true;
                                revisit.push_back(rewired);
                            }
                        }
                    }
                    consumed.append(log);
                    break;
                }
                ReplaceOutcome::Rejected => {}
            }
        }
    }

    let _sweep = tracer.span("main_sweep");
    let mut batch = BatchSpans::new(tracer, "rewrite_candidates", BATCH_INTERVAL);
    for node in nodes {
        if !ntk.is_gate(node) || ntk.fanout_size(node) == 0 {
            // an earlier commit swallowed the node (merged or swept)
            continue;
        }
        if !budget.consume(1) {
            break;
        }
        batch.tick();
        stats.visited += 1;
        attempt_node(
            ntk,
            node,
            params.allow_zero_gain,
            params,
            &mut cut_manager,
            &mut replacer,
            resynthesis,
            &mut cuts,
            &mut log,
            &mut consumed,
            &mut revisit,
            &mut pending,
            &mut stats,
        );
    }
    // close the main-sweep span before the frontier phase opens so the
    // two phases show as siblings under the pass span
    drop(batch);
    drop(_sweep);
    // drain the frontier: every commit here must *strictly* shrink the
    // network (zero-gain restructuring is excluded even in `rwz` passes),
    // so the number of revisit commits is bounded by the gate count and
    // the queue — which only grows on commit — runs dry
    let _frontier = tracer.span("frontier");
    let mut batch = BatchSpans::new(tracer, "frontier_candidates", BATCH_INTERVAL);
    while let Some(node) = revisit.pop_front() {
        pending[node as usize] = false;
        if !ntk.is_gate(node) || ntk.is_dead(node) || ntk.fanout_size(node) == 0 {
            continue;
        }
        if !budget.consume(1) {
            break;
        }
        batch.tick();
        stats.frontier_revisits += 1;
        attempt_node(
            ntk,
            node,
            false,
            params,
            &mut cut_manager,
            &mut replacer,
            resynthesis,
            &mut cuts,
            &mut log,
            &mut consumed,
            &mut revisit,
            &mut pending,
            &mut stats,
        );
    }
    if was_tracking {
        // hand every drained event back, in order, for the enclosing
        // consumer's next drain
        ntk.requeue_changes(&mut consumed);
    } else {
        ntk.set_change_tracking(false);
    }
    stats.cuts = cut_manager.counters();
    stats.outcome = budget.outcome();
    tracer.absorb("rewrite", &stats);
    stats
}

impl MetricsSource for RewriteStats {
    fn visit_metrics(&self, visit: &mut dyn FnMut(&str, u64)) {
        visit("visited", self.visited as u64);
        visit("substitutions", self.substitutions as u64);
        visit("estimated_gain", self.estimated_gain.max(0) as u64);
        visit("frontier_revisits", self.frontier_revisits as u64);
        visit("exhausted", u64::from(!self.outcome.is_completed()));
        let mut nested = |name: &str, value: u64| visit(&format!("cuts.{name}"), value);
        self.cuts.visit_metrics(&mut nested);
    }
}

/// Rewrites `ntk` with a fresh NPN-database resynthesis engine (heuristic
/// structures); convenience wrapper over [`rewrite_with`].
pub fn rewrite<N>(ntk: &mut N, params: &RewriteParams) -> RewriteStats
where
    N: Network + GateBuilder,
{
    let mut database = NpnDatabase::new();
    rewrite_with(ntk, &mut database, params)
}

#[cfg(test)]
mod tests {
    use super::*;
    use glsx_network::simulation::{equivalent_by_simulation, simulate};
    use glsx_network::{Aig, GateBuilder, Mig, Network, Xag};

    /// Builds a deliberately wasteful implementation of the projection
    /// `f = a`: `f = (a & b) | (a & !b)`, three gates that a four-input cut
    /// rewrite collapses to zero gates.
    fn wasteful_projection_aig() -> Aig {
        let mut aig = Aig::new();
        let a = aig.create_pi();
        let b = aig.create_pi();
        let c = aig.create_pi();
        let ab = aig.create_and(a, b);
        let anb = aig.create_and(a, !b);
        let f = aig.create_or(ab, anb); // == a
        let g = aig.create_and(f, c); // == a & c
        aig.create_po(g);
        aig
    }

    #[test]
    fn rewriting_reduces_redundant_logic() {
        let mut aig = wasteful_projection_aig();
        let reference = aig.clone();
        let before = aig.num_gates();
        let stats = rewrite(&mut aig, &RewriteParams::default());
        assert!(stats.substitutions > 0);
        assert!(aig.num_gates() < before, "rewriting should reduce the size");
        assert!(equivalent_by_simulation(&reference, &aig));
        // the remaining logic computes a & c
        let tt = simulate(&aig)[0].clone();
        assert_eq!(tt, simulate(&reference)[0]);
    }

    #[test]
    fn rewriting_preserves_function_on_random_networks() {
        use glsx_network::Signal;
        let mut state = 0xabcd_ef01_u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as usize
        };
        for _ in 0..5 {
            let mut aig = Aig::new();
            let mut signals: Vec<Signal> = (0..6).map(|_| aig.create_pi()).collect();
            for _ in 0..40 {
                let a = signals[next() % signals.len()].complement_if(next() % 2 == 0);
                let b = signals[next() % signals.len()].complement_if(next() % 2 == 0);
                signals.push(aig.create_and(a, b));
            }
            for s in signals.iter().rev().take(3) {
                aig.create_po(*s);
            }
            let reference = aig.clone();
            rewrite(&mut aig, &RewriteParams::default());
            assert!(equivalent_by_simulation(&reference, &aig));
        }
    }

    #[test]
    fn rewriting_works_for_migs_and_xags() {
        fn build<N: Network + GateBuilder>() -> N {
            let mut ntk = N::new();
            let a = ntk.create_pi();
            let b = ntk.create_pi();
            let c = ntk.create_pi();
            let t1 = ntk.create_and(a, b);
            let t2 = ntk.create_and(a, c);
            let t3 = ntk.create_or(t1, t2); // a & (b | c)
            let t4 = ntk.create_and(t3, a); // still a & (b | c)
            ntk.create_po(t4);
            ntk
        }
        let mut mig: Mig = build();
        let mig_ref = mig.clone();
        rewrite(&mut mig, &RewriteParams::default());
        assert!(equivalent_by_simulation(&mig_ref, &mig));
        assert!(mig.num_gates() <= mig_ref.num_gates());

        let mut xag: Xag = build();
        let xag_ref = xag.clone();
        rewrite(&mut xag, &RewriteParams::default());
        assert!(equivalent_by_simulation(&xag_ref, &xag));
        assert!(xag.num_gates() <= xag_ref.num_gates());
    }

    /// The incremental-vs-full contract: refreshing the cut manager from
    /// the change log yields exactly the same pass as rebuilding it from
    /// scratch after every substitution — same substitutions, same gains,
    /// same resulting network — while re-enumerating strictly fewer nodes.
    #[test]
    fn incremental_maintenance_is_bit_identical_to_full_recompute() {
        for zero_gain in [false, true] {
            let mut incremental = wasteful_projection_aig();
            let mut full = incremental.clone();
            let params = RewriteParams {
                allow_zero_gain: zero_gain,
                ..RewriteParams::default()
            };
            let inc_stats = rewrite(&mut incremental, &params);
            let full_stats = rewrite(
                &mut full,
                &RewriteParams {
                    cut_maintenance: CutMaintenance::FullRecompute,
                    ..params
                },
            );
            assert_eq!(inc_stats.substitutions, full_stats.substitutions);
            assert_eq!(inc_stats.estimated_gain, full_stats.estimated_gain);
            assert_eq!(incremental.num_gates(), full.num_gates());
            assert!(equivalent_by_simulation(&incremental, &full));
            assert!(
                inc_stats.cuts.reenumerated_nodes <= full_stats.cuts.reenumerated_nodes,
                "incremental re-enumerated more than full rebuild: {:?} vs {:?}",
                inc_stats.cuts,
                full_stats.cuts
            );
        }
    }

    /// A pass restores the caller's change-tracking state and hands every
    /// event it drained back: an enclosing incremental consumer sees its
    /// own pre-pass mutations, the pass's substitutions, and post-pass
    /// mutations in its next drain.
    #[test]
    fn rewriting_preserves_enclosing_change_tracking_and_events() {
        use glsx_network::{ChangeEvent, ChangeLog};
        let mut aig = wasteful_projection_aig();
        aig.set_change_tracking(true);
        // the enclosing consumer mutates but does NOT drain before the pass
        let pre = aig.gate_nodes()[0];
        let pre_fanin = aig.fanin(pre, 0);
        aig.substitute_node(pre, pre_fanin);
        let stats = rewrite(&mut aig, &RewriteParams::default());
        assert!(stats.substitutions > 0, "the pass must commit something");
        assert!(aig.is_change_tracking(), "caller's tracking was disabled");
        // post-pass mutation
        let post = aig.gate_nodes()[0];
        let post_fanin = aig.fanin(post, 0);
        aig.substitute_node(post, post_fanin);
        let mut log = ChangeLog::new();
        aig.drain_changes(&mut log);
        let substituted: Vec<_> = log
            .events()
            .iter()
            .filter_map(|e| match e {
                ChangeEvent::Substituted { old, .. } => Some(*old),
                _ => None,
            })
            .collect();
        assert!(
            substituted.contains(&pre),
            "pre-pass event swallowed by the pass: {substituted:?}"
        );
        assert!(
            substituted.contains(&post),
            "post-pass event lost: {substituted:?}"
        );
        assert!(
            substituted.len() >= 2 + stats.substitutions,
            "the pass's own events must be handed back too: {substituted:?}"
        );
        // and without prior tracking the pass leaves it off
        let mut aig = wasteful_projection_aig();
        rewrite(&mut aig, &RewriteParams::default());
        assert!(!aig.is_change_tracking());
    }

    /// The fanout frontier only ever adds strictly-shrinking commits on
    /// top of the stale-order pass, so enabling it never costs gates; on
    /// structures whose second-chance candidates appear only after a
    /// commit it actually revisits.
    #[test]
    fn frontier_revisits_never_cost_gates() {
        use glsx_network::Signal;
        let mut state = 0x5eed_0006_u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as usize
        };
        let mut total_revisits = 0;
        for _ in 0..8 {
            let mut aig = Aig::new();
            let mut signals: Vec<Signal> = (0..8).map(|_| aig.create_pi()).collect();
            for _ in 0..60 {
                let a = signals[next() % signals.len()].complement_if(next() % 2 == 0);
                let b = signals[next() % signals.len()].complement_if(next() % 2 == 0);
                signals.push(aig.create_and(a, b));
            }
            for s in signals.iter().rev().take(4) {
                aig.create_po(*s);
            }
            for zero_gain in [false, true] {
                let reference = aig.clone();
                let mut with_frontier = aig.clone();
                let mut without = aig.clone();
                let params = RewriteParams {
                    allow_zero_gain: zero_gain,
                    ..RewriteParams::default()
                };
                let stats = rewrite(&mut with_frontier, &params);
                let base_stats = rewrite(
                    &mut without,
                    &RewriteParams {
                        revisit_frontier: false,
                        ..params
                    },
                );
                assert_eq!(base_stats.frontier_revisits, 0);
                assert!(
                    with_frontier.num_gates() <= without.num_gates(),
                    "frontier made the result worse: {stats:?} vs {base_stats:?}"
                );
                assert!(equivalent_by_simulation(&reference, &with_frontier));
                total_revisits += stats.frontier_revisits;
            }
        }
        assert!(
            total_revisits > 0,
            "no network exercised the revisit queue at all"
        );
    }

    #[test]
    fn zero_gain_rewriting_does_not_increase_size() {
        let mut aig = wasteful_projection_aig();
        let reference = aig.clone();
        let params = RewriteParams {
            allow_zero_gain: true,
            ..RewriteParams::default()
        };
        let before = aig.num_gates();
        rewrite(&mut aig, &params);
        assert!(aig.num_gates() <= before);
        assert!(equivalent_by_simulation(&reference, &aig));
    }

    /// At every tick limit, a budgeted pass commits a valid — always
    /// equivalent — prefix of the unlimited pass's work: never more
    /// substitutions than the full run, monotone enough that some limit
    /// exhausts and the unlimited limit completes.
    #[test]
    fn budgeted_rewriting_commits_an_equivalent_prefix_at_every_limit() {
        use glsx_network::{Budget, StepOutcome};
        use glsx_synth::NpnDatabase;
        let reference = wasteful_projection_aig();
        let full = {
            let mut aig = reference.clone();
            rewrite(&mut aig, &RewriteParams::default())
        };
        assert!(full.substitutions > 0);
        let mut saw_exhausted = false;
        for limit in 0..=(full.visited as u64 + 4) {
            let mut aig = reference.clone();
            let budget = Budget::with_ticks(limit);
            let stats = rewrite_traced(
                &mut aig,
                &mut NpnDatabase::new(),
                &RewriteParams::default(),
                &budget,
                telemetry::global(),
            );
            assert!(stats.substitutions <= full.substitutions);
            assert!(stats.visited <= full.visited);
            assert!(
                equivalent_by_simulation(&reference, &aig),
                "limit {limit} corrupted the network"
            );
            match stats.outcome {
                StepOutcome::Exhausted { at } => {
                    saw_exhausted = true;
                    // `at` counts ticks charged when the pass ended, so it
                    // is at least the limit that tripped it
                    assert!(at >= limit.max(1).min(full.visited as u64));
                }
                StepOutcome::Completed => {
                    assert_eq!(stats.substitutions, full.substitutions);
                }
            }
        }
        assert!(saw_exhausted, "no limit ever exhausted the budget");
    }
}
