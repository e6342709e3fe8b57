//! DAG-aware cut rewriting (Algorithm 3 of the paper).
//!
//! For every gate, cuts of bounded size are enumerated; each cut function
//! is handed to a [`Resynthesis`] engine (typically the NPN database) and
//! the replacement is committed when the DAG-aware gain — freed gates minus
//! newly added gates, accounting for structural hashing — is positive (or
//! non-negative for zero-gain rewriting).
//!
//! The pass is *incremental*: the network records every structural change
//! of a committed substitution into a
//! [`ChangeLog`](glsx_network::ChangeLog) and the cut manager refreshes
//! from it ([`CutManager::refresh_from`]), re-enumerating only the
//! transitive fanout of the rewired nodes.  Later visits therefore see cut
//! sets that reflect the *current* structure — bit-identical to rebuilding
//! the manager from scratch after each substitution, at a fraction of the
//! enumeration work ([`RewriteStats::cuts`] records it).  The from-scratch
//! rebuild is not a mode of the pass: it lives in this module's tests,
//! which run the same pass body with the rebuild in place of the refresh
//! and compare the two on random AIGs, XAGs and MIGs.

use crate::cuts::{Cut, CutCounters, CutManager, CutParams};
use crate::replace::{ReplaceOutcome, Replacer};
use glsx_network::telemetry::{self, BatchSpans, MetricsSource, Tracer, BATCH_INTERVAL};
use glsx_network::{Budget, ChangeEvent, ChangeLog, GateBuilder, Network, NodeId, StepOutcome};
use glsx_synth::{NpnDatabase, Resynthesis};
use std::collections::VecDeque;

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
}

impl Default for RewriteParams {
    fn default() -> Self {
        Self {
            cut_size: 4,
            cut_limit: 8,
            allow_zero_gain: false,
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
    /// nodes were invalidated by substitutions, how many the refresh walk
    /// visited and how many were actually re-enumerated.
    pub cuts: CutCounters,
    /// Number of fanout-frontier nodes re-attempted after the main sweep.
    /// A commit rewires its fanouts onto new structure, so their cut sets
    /// — already visited or not — now hold candidates the stale pre-pass
    /// order never sees.  Rewired nodes are queued (from the pass's own
    /// [`ChangeEvent::RewiredFanin`](glsx_network::ChangeEvent) records)
    /// and re-attempted after the main sweep.  Revisits demand strictly
    /// positive gain even under [`RewriteParams::allow_zero_gain`] — every
    /// revisit commit shrinks the network, which both bounds the loop and
    /// guarantees the frontier never costs gates.
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
    rewrite_pass(
        ntk,
        resynthesis,
        params,
        budget,
        tracer,
        CutManager::refresh_from,
    )
}

/// The body of [`rewrite_traced`], with the cut-manager update after each
/// committed substitution passed in: the pass uses
/// [`CutManager::refresh_from`], and the tests substitute a from-scratch
/// rebuild to check that both yield the identical pass.
fn rewrite_pass<N, R>(
    ntk: &mut N,
    resynthesis: &mut R,
    params: &RewriteParams,
    budget: &Budget,
    tracer: &Tracer,
    refresh: fn(&mut CutManager, &N, &ChangeLog),
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
    /// the cut manager and enqueue every rewired fanout for a later
    /// revisit.
    #[allow(clippy::too_many_arguments)]
    fn attempt_node<N, R>(
        ntk: &mut N,
        node: NodeId,
        allow_zero_gain: bool,
        refresh: fn(&mut CutManager, &N, &ChangeLog),
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
                    // rejected candidates were rolled back without
                    // events; the log may still carry an enclosing
                    // consumer's pre-pass events, and refreshing from
                    // extras is harmless over-invalidation
                    ntk.drain_changes(log);
                    refresh(cut_manager, ntk, log);
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
            refresh,
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
            refresh,
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
    use glsx_network::{Aig, GateBuilder, Mig, Network, Signal, Xag};

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

    /// The pass with the incremental refresh replaced by the from-scratch
    /// reference: every memoised cut set is dropped after each committed
    /// substitution.
    fn rewrite_from_scratch<N>(ntk: &mut N, params: &RewriteParams) -> RewriteStats
    where
        N: Network + GateBuilder,
    {
        rewrite_pass(
            ntk,
            &mut NpnDatabase::new(),
            params,
            &Budget::unlimited(),
            telemetry::global(),
            |manager, _, _| manager.invalidate_all(),
        )
    }

    /// Every node's liveness and, for live gates, its fanins: equal
    /// structures mean two passes built the same network node for node.
    fn structure<N: Network>(ntk: &N) -> Vec<(bool, Vec<Signal>)> {
        (0..ntk.size() as NodeId)
            .map(|node| {
                let live_gate = !ntk.is_dead(node) && ntk.is_gate(node);
                let fanins = if live_gate {
                    ntk.fanins(node)
                } else {
                    Vec::new()
                };
                (ntk.is_dead(node), fanins)
            })
            .collect()
    }

    /// The incremental-vs-full contract on one network, for `rw` and
    /// `rwz`: refreshing the cut manager from the change log yields exactly
    /// the pass that rebuilds it from scratch after every substitution —
    /// same substitutions, gains and frontier revisits, the same network
    /// node for node — while re-enumerating strictly fewer nodes whenever
    /// the pass commits.  Returns the number of commits.
    fn assert_refresh_matches_rebuild<N>(ntk: &N, label: &str) -> usize
    where
        N: Network + GateBuilder + Clone,
    {
        let mut commits = 0;
        for zero_gain in [false, true] {
            let params = RewriteParams {
                allow_zero_gain: zero_gain,
                ..RewriteParams::default()
            };
            let mut incremental = ntk.clone();
            let inc = rewrite(&mut incremental, &params);
            let mut full = ntk.clone();
            let fll = rewrite_from_scratch(&mut full, &params);
            let case = format!("{label}, zero gain {zero_gain}");
            assert_eq!(inc.substitutions, fll.substitutions, "{case}");
            assert_eq!(inc.estimated_gain, fll.estimated_gain, "{case}");
            assert_eq!(inc.frontier_revisits, fll.frontier_revisits, "{case}");
            assert_eq!(incremental.size(), full.size(), "{case}");
            assert_eq!(structure(&incremental), structure(&full), "{case}");
            assert_eq!(incremental.po_signals(), full.po_signals(), "{case}");
            assert!(
                inc.substitutions == 0 || inc.cuts.reenumerated_nodes < fll.cuts.reenumerated_nodes,
                "{case}: the refresh saved nothing over a full rebuild: {:?} vs {:?}",
                inc.cuts,
                fll.cuts
            );
            assert!(equivalent_by_simulation(ntk, &incremental), "{case}");
            commits += inc.substitutions;
        }
        commits
    }

    /// A random network over six inputs: 45 gates, each built by `gate`
    /// from three random, randomly complemented earlier signals and a
    /// random flag; the last three signals drive the outputs.
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
        let mut signals: Vec<Signal> = (0..6).map(|_| ntk.create_pi()).collect();
        for _ in 0..45 {
            let fanins =
                [(); 3].map(|_| signals[next() % signals.len()].complement_if(next() % 2 == 0));
            let flag = next() % 2 == 0;
            signals.push(gate(&mut ntk, fanins, flag));
        }
        for s in signals.iter().rev().take(3) {
            ntk.create_po(*s);
        }
        ntk
    }

    /// Random AIG, XAG and MIG over the same seed.
    fn random_networks(seed: u64) -> (Aig, Xag, Mig) {
        let aig = random_network(seed, |n: &mut Aig, [a, b, _], _| n.create_and(a, b));
        let xag = random_network(seed, |n: &mut Xag, [a, b, _], xor| {
            if xor {
                n.create_xor(a, b)
            } else {
                n.create_and(a, b)
            }
        });
        let mig = random_network(seed, |n: &mut Mig, [a, b, c], _| n.create_maj(a, b, c));
        (aig, xag, mig)
    }

    #[test]
    fn incremental_maintenance_is_bit_identical_to_full_recompute() {
        let commits = assert_refresh_matches_rebuild(&wasteful_projection_aig(), "projection");
        assert!(commits > 0);
    }

    /// The incremental-vs-full contract on random AIGs, XAGs and MIGs.
    #[test]
    fn incremental_rewriting_equals_full_recompute_on_random_networks() {
        let mut commits = [0; 3];
        for case in 0..8u64 {
            let (aig, xag, mig) = random_networks(0x150d_0000 + case);
            commits[0] += assert_refresh_matches_rebuild(&aig, &format!("aig {case}"));
            commits[1] += assert_refresh_matches_rebuild(&xag, &format!("xag {case}"));
            commits[2] += assert_refresh_matches_rebuild(&mig, &format!("mig {case}"));
        }
        assert!(
            commits.iter().all(|&c| c > 0),
            "commits per network: {commits:?}"
        );
    }

    /// The refresh walk's node count repeats exactly across runs, reaches
    /// the metrics registry as `rewrite.cuts.refresh_walked`, and is
    /// non-zero whenever a pass commits.
    #[test]
    fn refresh_walk_is_counted_and_repeats() {
        use glsx_network::telemetry::{TraceMode, Tracer};
        fn check<N: Network + GateBuilder + Clone>(ntk: &N, label: &str) {
            let run = || {
                let tracer = Tracer::new(TraceMode::Counters);
                let stats = rewrite_traced(
                    &mut ntk.clone(),
                    &mut NpnDatabase::new(),
                    &RewriteParams::default(),
                    &Budget::unlimited(),
                    &tracer,
                );
                let walked = tracer.metrics().counter("rewrite.cuts.refresh_walked");
                (stats, walked)
            };
            let (stats, walked) = run();
            assert_eq!(run(), (stats, walked), "{label}");
            assert_eq!(walked, stats.cuts.refresh_walked, "{label}");
            assert!(stats.substitutions == 0 || walked > 0, "{label}: {stats:?}");
        }
        for case in 0..8u64 {
            let (aig, xag, mig) = random_networks(0x150d_0000 + case);
            check(&aig, &format!("aig {case}"));
            check(&xag, &format!("xag {case}"));
            check(&mig, &format!("mig {case}"));
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
                // the main sweep charges one tick per visited node, so this
                // budget runs out on the first frontier tick
                let base_stats = rewrite_traced(
                    &mut without,
                    &mut NpnDatabase::new(),
                    &params,
                    &Budget::with_ticks(stats.visited as u64 + 1),
                    telemetry::global(),
                );
                assert_eq!(base_stats.visited, stats.visited);
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
