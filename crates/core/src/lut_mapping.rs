//! Cut-based k-LUT technology mapping.
//!
//! Maps a graph-based logic network into a [`Klut`] network of `k`-input
//! look-up tables, the representation in which the paper compares the
//! different logic representations (number of 6-LUTs after area
//! optimisation).  The mapper enumerates priority cuts, selects one best
//! cut per node (delay-oriented first, then an area-flow refinement pass)
//! and derives the cover from the primary outputs.
//!
//! Area-flow refinement is incremental: each node's best choice is cached
//! and a scratch-slot [`Traversal`] per round marks the nodes whose choice
//! actually changed (cone-propagated), so later rounds re-evaluate only
//! nodes with a changed cone instead of re-reading every node's cut set
//! off the arena each round.  [`LutMapParams::full_recompute`] selects the
//! from-scratch reference the incremental path is verified against.
//!
//! # Choice-aware mapping
//!
//! With [`LutMapParams::use_choices`] the mapper selects over the
//! *enlarged* cut sets of a choice network (see
//! [`glsx_network::choices`]): for every class representative the
//! structural cuts are joined by the tails harvested from its ring members
//! ([`CutManager::choice_cuts_of`]), each remembering which member cone
//! realises it.  A winning choice cut is reconstructed by simulating the
//! *member's* cone over the cut leaves (polarity-corrected), so the mapped
//! network can realise a structure the destructive fraig would have
//! deleted.  Because choice-cut leaves live in member cones — not in the
//! representative's own cone — the cover is ordered by an explicit
//! dependency DFS (leaves before roots) instead of node ids, and the rare
//! dependency cycle between two classes is broken deterministically by
//! demoting one participant to its best structural cut.  The choices-off
//! path is byte-identical to a mapper that never heard of choices — the
//! verified reference, with a miter proof guarding the choices-on result.

use crate::cuts::{ConeSimulator, Cut, CutManager, CutParams};
use glsx_network::telemetry::{self, MetricsSource, Tracer};
use glsx_network::{Budget, Klut, Network, NodeId, Signal, StepOutcome, Traversal};

/// Parameters of LUT mapping.
#[derive(Clone, Copy, Debug)]
pub struct LutMapParams {
    /// Number of LUT inputs (`k`); at most
    /// [`MAX_CUT_LEAVES`](crate::cuts::MAX_CUT_LEAVES), the inline leaf
    /// capacity of the cut substrate.
    pub lut_size: usize,
    /// Maximum number of priority cuts per node.
    pub cut_limit: usize,
    /// Number of area-flow refinement passes after the delay-oriented pass.
    pub area_flow_rounds: usize,
    /// Re-evaluate every node in every area-flow round instead of skipping
    /// nodes whose cone carries no changed choice.  Both modes select the
    /// same cover (the contract the tests verify); this is the
    /// verification mode.
    pub full_recompute: bool,
    /// Select over the enlarged cut sets of a choice network: ring
    /// members' cuts compete with the representative's own, and winning
    /// member structures are reconstructed into the mapped network (see
    /// the module docs).  `false` — the default and the verified
    /// reference — ignores choice rings entirely and is byte-identical to
    /// the pre-choice mapper.  Implies full per-round re-evaluation:
    /// choice-cut costs depend on member cones, which the fanin-based
    /// dirty tracking cannot see.
    pub use_choices: bool,
}

impl Default for LutMapParams {
    fn default() -> Self {
        Self {
            lut_size: 6,
            cut_limit: 8,
            area_flow_rounds: 1,
            full_recompute: false,
            use_choices: false,
        }
    }
}

impl LutMapParams {
    /// Creates parameters for a given LUT size with default settings
    /// otherwise.
    pub fn with_lut_size(lut_size: usize) -> Self {
        Self {
            lut_size,
            ..Self::default()
        }
    }
}

/// Result statistics of a mapping run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct LutMapStats {
    /// Number of LUTs in the cover.
    pub num_luts: usize,
    /// Depth of the mapped network in LUT levels.
    pub depth: u32,
    /// Number of per-node best-choice evaluations over all rounds.  Under
    /// incremental refinement, rounds after the first area-flow pass skip
    /// every node whose cone carries no changed choice, so this stays far
    /// below `rounds × gates`; under
    /// [`LutMapParams::full_recompute`] it is exactly `rounds × gates`.
    pub choice_evaluations: usize,
    /// Cover nodes realised through a choice-ring member's cone instead of
    /// the node's own structure (nonzero only under
    /// [`LutMapParams::use_choices`] when a member cut actually won).
    pub choice_wins: usize,
    /// Dependency cycles between classes broken by demoting a node to its
    /// best structural cut during cover ordering (see the module docs;
    /// expected to stay at or near zero).
    pub choice_cycle_fallbacks: usize,
    /// Whether the refinement rounds ran to completion or stopped on an
    /// exhausted effort budget.  The delay-oriented round is mandatory
    /// (every reachable gate needs a choice before a cover can be
    /// derived), so even an exhausted run returns a valid — merely less
    /// refined — cover.
    pub outcome: StepOutcome,
}

#[derive(Clone, Copy, Debug, PartialEq)]
struct MapChoice {
    cut: Cut,
    level: u32,
    area_flow: f64,
    /// The cone that realises this cut: the node itself for structural
    /// cuts, a choice-ring member for choice cuts.
    root: NodeId,
    /// Polarity of `root` relative to the mapped node (`node ≡ root ⊕
    /// root_phase`); always `false` for structural cuts.
    root_phase: bool,
}

/// Maps `ntk` into a k-LUT network.
///
/// # Example
///
/// ```
/// use glsx_core::lut_mapping::{lut_map, LutMapParams};
/// use glsx_network::{Aig, GateBuilder, Network};
///
/// let mut aig = Aig::new();
/// let pis: Vec<_> = (0..8).map(|_| aig.create_pi()).collect();
/// let f = aig.create_nary_and(&pis);
/// aig.create_po(f);
/// let klut = lut_map(&aig, &LutMapParams::with_lut_size(6));
/// assert!(klut.num_gates() <= 3);
/// ```
///
/// # Panics
///
/// Panics if `params.lut_size` exceeds
/// [`MAX_CUT_LEAVES`](crate::cuts::MAX_CUT_LEAVES).
pub fn lut_map<N: Network>(ntk: &N, params: &LutMapParams) -> Klut {
    assert!(
        params.lut_size <= crate::cuts::MAX_CUT_LEAVES,
        "lut_size {} is not supported: the cut substrate stores at most {} leaves inline \
         (MAX_CUT_LEAVES)",
        params.lut_size,
        crate::cuts::MAX_CUT_LEAVES
    );
    lut_map_with_stats(ntk, params).0
}

/// Maps `ntk` and returns both the k-LUT network and the statistics (one
/// selection and construction pass; [`lut_map`] and [`lut_map_stats`] are
/// thin wrappers).
///
/// Under [`LutMapParams::use_choices`] the *choices-off contract* is
/// enforced by construction, not by heuristic: the mapper also runs the
/// exact choices-off selection (the same code path a `use_choices: false`
/// call takes) and keeps the choice-aware cover only when it is strictly
/// smaller.  Area flow is a one-LUT-deep estimate, so a locally attractive
/// member cut can occasionally cost global area — this recovery comparison
/// turns "choices never map worse" from a tendency into a guarantee, and
/// [`LutMapStats::choice_wins`] reports wins only when the choice cover
/// actually shipped.
pub fn lut_map_with_stats<N: Network>(ntk: &N, params: &LutMapParams) -> (Klut, LutMapStats) {
    lut_map_traced(ntk, params, &Budget::unlimited(), telemetry::global())
}

/// [`lut_map_with_stats`] under a cooperative effort [`Budget`],
/// reporting through an explicit telemetry [`Tracer`].
///
/// The delay-oriented selection round is mandatory; one tick is charged
/// per node evaluation in the area-flow refinement rounds, and an
/// exhausted budget stops refinement early — the cover derived from the
/// choices selected so far is still complete and valid.  The tracer
/// records a `lut_map` pass span with per-round `map_round` spans (and a
/// `choices_off_reference` span for the recovery selection), statistics
/// absorbed into the metrics registry, and the final LUT count/depth as
/// gauges.  Observational only.
pub fn lut_map_traced<N: Network>(
    ntk: &N,
    params: &LutMapParams,
    budget: &Budget,
    tracer: &Tracer,
) -> (Klut, LutMapStats) {
    let _pass = tracer.span("lut_map");
    let selected = select_cover_budgeted(ntk, params, budget, tracer);
    let klut = build_klut(ntk, &selected.cover, &selected.choices);
    let mut stats = LutMapStats {
        num_luts: klut.num_gates(),
        depth: glsx_network::views::network_depth(&klut),
        choice_evaluations: selected.evaluations,
        choice_wins: selected.choice_wins,
        choice_cycle_fallbacks: selected.cycle_fallbacks,
        outcome: budget.outcome(),
    };
    let (klut, stats) = if !params.use_choices {
        (klut, stats)
    } else {
        let off_params = LutMapParams {
            use_choices: false,
            ..*params
        };
        let off_selected = {
            let _reference = tracer.span("choices_off_reference");
            select_cover_budgeted(ntk, &off_params, budget, tracer)
        };
        let off_klut = build_klut(ntk, &off_selected.cover, &off_selected.choices);
        stats.choice_evaluations += off_selected.evaluations;
        stats.outcome = budget.outcome();
        if klut.num_gates() < off_klut.num_gates() {
            (klut, stats)
        } else {
            // the enlarged cut space did not pay off: ship the reference
            // cover
            stats.num_luts = off_klut.num_gates();
            stats.depth = glsx_network::views::network_depth(&off_klut);
            stats.choice_wins = 0;
            (off_klut, stats)
        }
    };
    tracer.absorb("lut_map", &stats);
    tracer.set_gauge("lut_map.num_luts", stats.num_luts as u64);
    tracer.set_gauge("lut_map.depth", u64::from(stats.depth));
    (klut, stats)
}

impl MetricsSource for LutMapStats {
    fn visit_metrics(&self, visit: &mut dyn FnMut(&str, u64)) {
        visit("choice_evaluations", self.choice_evaluations as u64);
        visit("choice_wins", self.choice_wins as u64);
        visit("choice_cycle_fallbacks", self.choice_cycle_fallbacks as u64);
        visit("exhausted", u64::from(!self.outcome.is_completed()));
    }
}

/// Maps `ntk` and returns only the statistics (LUT count, depth and
/// refinement work) without keeping the k-LUT network.
pub fn lut_map_stats<N: Network>(ntk: &N, params: &LutMapParams) -> LutMapStats {
    lut_map_with_stats(ntk, params).1
}

/// Result of the selection phase: the cover in build order (every cut leaf
/// precedes its root) and the per-node winning choices.
struct SelectedCover {
    cover: Vec<NodeId>,
    choices: Vec<Option<MapChoice>>,
    evaluations: usize,
    choice_wins: usize,
    cycle_fallbacks: usize,
}

fn select_cover_budgeted<N: Network>(
    ntk: &N,
    params: &LutMapParams,
    budget: &Budget,
    tracer: &Tracer,
) -> SelectedCover {
    // truth fusion stays OFF here: the mapper reads only one function per
    // *cover* node (roughly a third of the gates), so paying for a table
    // per *enumerated* cut (cut_limit per gate) would be an order of
    // magnitude more truth work than is consumed — the selected cuts are
    // simulated once in `build_klut` instead
    let mut cut_manager = CutManager::new(CutParams {
        cut_size: params.lut_size,
        cut_limit: params.cut_limit,
        compute_truth: false,
    });
    // Under a parallel configuration, the whole cut substrate is enumerated
    // up front with level-partitioned workers; the per-node cut sets are
    // bit-identical to the lazy serial fill below, so the mapping result
    // does not depend on the thread count and the knob is safe to drive
    // from the environment.
    let par = glsx_network::Parallelism::from_env();
    if par.is_parallel() {
        cut_manager.enumerate(ntk, par);
    }
    let order = ntk.gate_nodes();
    // Area flow divides a leaf's cost by its fanout count as a sharing
    // estimate.  In a choice network the raw counts are inflated: cones
    // kept alive as ring members still reference shared logic, although
    // they will not be realised unless a choice cut selects them.  Under
    // choice-aware mapping the estimate therefore counts only references
    // from PO-reachable gates (plus output refs) — exactly the counts the
    // destructively swept network would report, so the structural
    // selection baseline matches the choices-off mapper and member cuts
    // compete on genuine merit.
    let effective_fanout: Vec<u32> = if params.use_choices {
        let mut counts = vec![0u32; ntk.size()];
        for po in ntk.po_signals() {
            counts[po.node() as usize] += 1;
        }
        for node in glsx_network::views::reachable_from_outputs(ntk) {
            if ntk.is_gate(node) {
                ntk.foreach_fanin(node, |f| counts[f.node() as usize] += 1);
            }
        }
        counts
    } else {
        Vec::new()
    };
    // dense, deterministic per-node tables instead of hash maps
    let mut choices: Vec<Option<MapChoice>> = vec![None; ntk.size()];
    // the best *structural* choice per node, kept alongside under
    // choice-aware mapping as the demotion target of cycle fallbacks
    let mut structural: Vec<Option<MapChoice>> = if params.use_choices {
        vec![None; ntk.size()]
    } else {
        Vec::new()
    };
    let mut evaluations = 0usize;

    // delay-oriented pass followed by area-flow refinement passes.  The
    // first area round re-evaluates everything (the cost function
    // changed); each later round re-evaluates only nodes whose cone
    // carries a choice that changed in the *previous* or the *current*
    // round.  One traversal spans all rounds: a node's value is the
    // 1-based tag of the last round in which its choice changed (or a
    // change below it propagated up through it), so round `r`'s skip test
    // is a constant-time read of the direct fanins' tags — tag `r` covers
    // changes made earlier in this very sweep, tag `r-1` the previous
    // round's; anything older is already *incorporated*: a node's cost is
    // a pure function of its cut sets (fixed) and its leaves' current
    // choices, leaves precede it in the topological sweep, and a change
    // two rounds back forced a re-evaluation one round back.  Regions the
    // refinement has converged on are never touched again (their
    // `cuts_of` pass over the arena is skipped entirely); `full_recompute`
    // re-evaluates everything every round and must produce bit-identical
    // choices — the verified contract.  If the cost model ever gains
    // cross-round mutable state (e.g. exact-area fanout refs of the
    // previous cover, required times), the round where that state changes
    // must re-evaluate every node, like `round == 1` does here.
    let dirty = Traversal::new(ntk);
    'rounds: for round in 0..(1 + params.area_flow_rounds) {
        let _round = tracer.span("map_round");
        let area_oriented = round > 0;
        let tag = round as u32 + 1;
        // choice-aware mapping re-evaluates every node each round: a
        // choice cut's cost depends on its member cone's leaves, which the
        // fanin-tag dirty scheme cannot observe
        let can_skip = round >= 2 && !params.full_recompute && !params.use_choices;
        for &node in &order {
            let mut recent_dirty = false; // changed in round-1 or earlier this round
            let mut current_dirty = false; // changed earlier this round
            if area_oriented {
                ntk.foreach_fanin(node, |f| match dirty.value(ntk, f.node()) {
                    Some(t) if t == tag => {
                        current_dirty = true;
                        recent_dirty = true;
                    }
                    Some(t) if t + 1 == tag => recent_dirty = true,
                    _ => {}
                });
            }
            if can_skip && !recent_dirty {
                // no choice in this node's cone changed since its last
                // evaluation, so re-evaluating would reproduce the cached
                // choice bit for bit — skip the whole cut-set read
                continue;
            }
            // the delay-oriented round is mandatory (the cover walk needs
            // a choice on every reachable gate); refinement is the
            // budgeted effort
            if area_oriented && !budget.consume(1) {
                break 'rounds;
            }
            evaluations += 1;
            // evaluate one candidate cut realised by `root` (⊕ phase)
            let evaluate =
                |choices: &[Option<MapChoice>], cut: &Cut, root: NodeId, root_phase: bool| {
                    let choice_of = |l: NodeId| choices[l as usize];
                    let level = 1 + cut
                        .leaves()
                        .iter()
                        .map(|&l| choice_of(l).map(|c| c.level).unwrap_or(0))
                        .max()
                        .unwrap_or(0);
                    let area_flow = 1.0
                        + cut
                            .leaves()
                            .iter()
                            .map(|&l| {
                                let leaf_flow = choice_of(l).map(|c| c.area_flow).unwrap_or(0.0);
                                let fanout = if params.use_choices {
                                    effective_fanout[l as usize] as usize
                                } else {
                                    ntk.fanout_size(l)
                                };
                                leaf_flow / (fanout.max(1) as f64)
                            })
                            .sum::<f64>();
                    MapChoice {
                        cut: *cut,
                        level,
                        area_flow,
                        root,
                        root_phase,
                    }
                };
            let better = |candidate: &MapChoice, best: &Option<MapChoice>| match best {
                None => true,
                Some(current) => {
                    if area_oriented {
                        (candidate.area_flow, candidate.level) < (current.area_flow, current.level)
                    } else {
                        (candidate.level, candidate.area_flow) < (current.level, current.area_flow)
                    }
                }
            };
            // the manager is not invalidated inside this loop, so its
            // arena slice can be borrowed directly — no copying
            let mut best: Option<MapChoice> = None;
            for cut in cut_manager.cuts_of(ntk, node).iter().skip(1) {
                if cut.size() == 0 || cut.leaves().contains(&node) {
                    continue;
                }
                let candidate = evaluate(&choices, cut, node, false);
                if better(&candidate, &best) {
                    best = Some(candidate);
                }
            }
            if params.use_choices {
                // member cuts compete against the structural best; a tie
                // keeps the structural winner (strict comparison), so a
                // ring that offers nothing leaves the selection untouched
                if best.is_some() {
                    structural[node as usize] = best;
                }
                let tail = cut_manager.choice_cuts_of(ntk, node).len();
                'tail: for index in 0..tail {
                    let cut = cut_manager.choice_cuts_of(ntk, node)[index];
                    // only repackagings over logic the cover already needs:
                    // a gate leaf no reachable consumer references would
                    // have to be materialised exclusively for this cut,
                    // which the one-LUT-deep area flow cannot price — such
                    // speculative wins routinely cost global area
                    for &leaf in cut.leaves() {
                        if ntk.is_gate(leaf) && effective_fanout[leaf as usize] == 0 {
                            continue 'tail;
                        }
                    }
                    let (root, phase) = cut_manager.choice_cut_root(node, index);
                    let candidate = evaluate(&choices, &cut, root, phase);
                    if better(&candidate, &best) {
                        best = Some(candidate);
                    }
                }
            }
            let mut changed = false;
            if best.is_some() {
                changed = best != choices[node as usize];
                choices[node as usize] = best;
            }
            // descendants must re-evaluate when any cone choice changed
            // this round, even if this node's own choice survived —
            // propagate the current-round tag (previous-round tags need no
            // re-propagation: round r-1 already tagged the whole fanout
            // cone of its changes)
            if area_oriented && (changed || current_dirty) {
                dirty.set_value(ntk, node, tag);
            }
        }
    }

    // Derive the cover by a dependency DFS from the outputs, emitted in
    // post-order (a valid build order).  Node-id order is not one: strash
    // cascades of `substitute_node` leave uncompacted networks with fanins
    // whose ids exceed their gate's, and a winning member cut's leaves live
    // in the member cone, not in the representative's own cone.  A back
    // edge — two classes whose selections depend on each other through
    // their member cones — is broken by demoting the topmost on-stack node
    // that selected a choice cut back to its best structural cut
    // (structural edges strictly descend the DAG, so every cycle contains
    // at least one such node, a structural-only selection has none, and
    // each demotion is final: the DFS terminates).
    let mut cover: Vec<NodeId> = Vec::new();
    let mut cycle_fallbacks = 0usize;
    // 0 = unvisited, 1 = on the DFS stack, 2 = done
    let mut state = vec![0u8; ntk.size()];
    let mut stack: Vec<(NodeId, usize)> = Vec::new();
    let po_roots: Vec<NodeId> = ntk
        .po_signals()
        .iter()
        .map(|s| s.node())
        .filter(|&n| ntk.is_gate(n))
        .collect();
    loop {
        let fallbacks_before = cycle_fallbacks;
        cover.clear();
        state.iter_mut().for_each(|s| *s = 0);
        stack.clear();
        for &root in &po_roots {
            if state[root as usize] != 0 {
                continue;
            }
            state[root as usize] = 1;
            stack.push((root, 0));
            while let Some(&mut (node, ref mut child)) = stack.last_mut() {
                let choice = choices[node as usize]
                    .as_ref()
                    .expect("every reachable gate has a mapping choice");
                let leaves = choice.cut.leaves();
                if *child >= leaves.len() {
                    state[node as usize] = 2;
                    cover.push(node);
                    stack.pop();
                    continue;
                }
                let leaf = leaves[*child];
                *child += 1;
                if !ntk.is_gate(leaf) || state[leaf as usize] == 2 {
                    continue;
                }
                if state[leaf as usize] == 0 {
                    state[leaf as usize] = 1;
                    stack.push((leaf, 0));
                    continue;
                }
                // back edge: `leaf` is an ancestor of `node`.  Demote the
                // topmost cycle participant that used a choice cut.
                let leaf_pos = stack
                    .iter()
                    .rposition(|&(n, _)| n == leaf)
                    .expect("on-stack leaf has a frame");
                let culprit_pos = (leaf_pos..stack.len())
                    .rev()
                    .find(|&p| {
                        let n = stack[p].0;
                        choices[n as usize].map(|c| c.root != n).unwrap_or(false)
                            && structural[n as usize].is_some()
                    })
                    .expect("a dependency cycle requires a demotable choice-cut edge");
                cycle_fallbacks += 1;
                let culprit = stack[culprit_pos].0;
                choices[culprit as usize] = structural[culprit as usize];
                debug_assert!(choices[culprit as usize].is_some());
                // unwind everything expanded above the culprit and
                // re-expand it from scratch with its structural leaves
                for &(n, _) in &stack[culprit_pos + 1..] {
                    state[n as usize] = 0;
                }
                stack.truncate(culprit_pos + 1);
                stack[culprit_pos].1 = 0;
            }
        }
        // a demotion may have abandoned subtrees that completed earlier in
        // this pass, leaving cover entries nothing references; demotions
        // are permanent (written into `choices`), so re-deriving from the
        // outputs converges and ships an orphan-free cover
        if cycle_fallbacks == fallbacks_before {
            break;
        }
    }
    let choice_wins = cover
        .iter()
        .filter(|&&n| choices[n as usize].map(|c| c.root != n).unwrap_or(false))
        .count();
    SelectedCover {
        cover,
        choices,
        evaluations,
        choice_wins,
        cycle_fallbacks,
    }
}

fn build_klut<N: Network>(ntk: &N, cover: &[NodeId], choices: &[Option<MapChoice>]) -> Klut {
    // one reused simulator: each selected cut's function is computed once,
    // with the window membership held in the scratch-slot traversal engine
    let mut sim = ConeSimulator::new();
    let mut klut = Klut::new();
    let mut map: Vec<Option<Signal>> = vec![None; ntk.size()];
    map[0] = Some(klut.get_constant(false));
    for pi in ntk.pi_nodes() {
        let s = klut.create_pi();
        map[pi as usize] = Some(s);
    }
    for &node in cover {
        let choice = choices[node as usize].expect("cover nodes have choices");
        // a choice cut is realised by *its member's* cone, complemented
        // when the member is antivalent to the mapped node
        let mut function = sim.simulate(ntk, choice.root, choice.cut.leaves()).clone();
        if choice.root_phase {
            function = !&function;
        }
        let mut fanins = Vec::with_capacity(choice.cut.size());
        for (i, &leaf) in choice.cut.leaves().iter().enumerate() {
            let mapped = map[leaf as usize].expect("leaves precede their root");
            if mapped.is_complemented() {
                function = function.flip(i);
            }
            fanins.push(mapped.regular());
        }
        let signal = klut.create_lut(&fanins, function);
        map[node as usize] = Some(signal);
    }
    for po in ntk.po_signals() {
        let mapped = map[po.node() as usize]
            .expect("outputs drive mapped nodes")
            .complement_if(po.is_complemented());
        klut.create_po(mapped);
    }
    klut
}

#[cfg(test)]
mod tests {
    use super::*;
    use glsx_network::simulation::equivalent_by_simulation;
    use glsx_network::views::network_depth;
    use glsx_network::{Aig, GateBuilder, Mig, Network, Xag};

    #[test]
    fn wide_and_maps_into_few_luts() {
        let mut aig = Aig::new();
        let pis: Vec<Signal> = (0..8).map(|_| aig.create_pi()).collect();
        let f = aig.create_nary_and(&pis);
        aig.create_po(f);
        let klut = lut_map(&aig, &LutMapParams::with_lut_size(6));
        assert!(klut.num_gates() <= 3);
        assert!(klut.max_fanin_size() <= 6);
        assert!(equivalent_by_simulation(&aig, &klut));
        let stats = lut_map_stats(&aig, &LutMapParams::with_lut_size(6));
        assert_eq!(stats.num_luts, klut.num_gates());
        assert_eq!(stats.depth, network_depth(&klut));
    }

    #[test]
    fn four_input_luts_cover_a_full_adder() {
        let mut xag = Xag::new();
        let a = xag.create_pi();
        let b = xag.create_pi();
        let c = xag.create_pi();
        let ab = xag.create_xor(a, b);
        let sum = xag.create_xor(ab, c);
        let t = xag.create_and(ab, c);
        let g = xag.create_and(a, b);
        let carry = xag.create_or(t, g);
        xag.create_po(sum);
        xag.create_po(carry);
        let klut = lut_map(&xag, &LutMapParams::with_lut_size(4));
        assert!(klut.num_gates() <= 2, "a full adder fits into two 4-LUTs");
        assert!(equivalent_by_simulation(&xag, &klut));
    }

    #[test]
    fn mapping_preserves_functions_of_random_networks() {
        let mut state = 0x5555_aaaa_u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as usize
        };
        for _ in 0..4 {
            let mut mig = Mig::new();
            let mut signals: Vec<Signal> = (0..6).map(|_| mig.create_pi()).collect();
            for _ in 0..50 {
                let a = signals[next() % signals.len()].complement_if(next() % 2 == 0);
                let b = signals[next() % signals.len()].complement_if(next() % 2 == 0);
                let c = signals[next() % signals.len()].complement_if(next() % 2 == 0);
                signals.push(mig.create_maj(a, b, c));
            }
            for s in signals.iter().rev().take(4) {
                mig.create_po(*s);
            }
            let klut = lut_map(&mig, &LutMapParams::with_lut_size(6));
            assert!(equivalent_by_simulation(&mig, &klut));
            assert!(klut.num_gates() <= mig.num_gates());
        }
    }

    /// A budgeted mapping always ships a complete, equivalent cover (the
    /// delay round is mandatory); an exhausted budget merely skips
    /// refinement and is reported in the stats.
    #[test]
    fn budgeted_mapping_always_yields_a_valid_cover() {
        use glsx_network::{Budget, StepOutcome};
        let mut state = 0xfeed_4321_u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as usize
        };
        let mut aig = Aig::new();
        let mut signals: Vec<Signal> = (0..8).map(|_| aig.create_pi()).collect();
        for _ in 0..80 {
            let a = signals[next() % signals.len()].complement_if(next() % 2 == 0);
            let b = signals[next() % signals.len()].complement_if(next() % 2 == 0);
            signals.push(aig.create_and(a, b));
        }
        for s in signals.iter().rev().take(3) {
            aig.create_po(*s);
        }
        let params = LutMapParams {
            area_flow_rounds: 3,
            ..LutMapParams::with_lut_size(4)
        };
        let (full_klut, full_stats) = lut_map_with_stats(&aig, &params);
        assert_eq!(full_stats.outcome, StepOutcome::Completed);
        let mut saw_exhausted = false;
        for limit in [0u64, 1, 8, 64, u64::MAX / 2] {
            let budget = Budget::with_ticks(limit);
            let (klut, stats) = lut_map_traced(&aig, &params, &budget, telemetry::global());
            assert!(
                equivalent_by_simulation(&aig, &klut),
                "limit {limit} broke the cover"
            );
            if let StepOutcome::Exhausted { .. } = stats.outcome {
                saw_exhausted = true;
            } else {
                assert_eq!(klut.num_gates(), full_klut.num_gates());
            }
        }
        assert!(saw_exhausted, "no tick limit ever exhausted refinement");
    }

    /// The incremental area-flow refinement skips nodes with unchanged
    /// cones yet selects exactly the same cover as full recomputation.
    #[test]
    fn incremental_area_flow_matches_full_recompute() {
        let mut state = 0xdead_1234_u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as usize
        };
        let mut aig = Aig::new();
        let mut signals: Vec<Signal> = (0..8).map(|_| aig.create_pi()).collect();
        for _ in 0..120 {
            let a = signals[next() % signals.len()].complement_if(next() % 2 == 0);
            let b = signals[next() % signals.len()].complement_if(next() % 2 == 0);
            signals.push(aig.create_and(a, b));
        }
        for s in signals.iter().rev().take(5) {
            aig.create_po(*s);
        }
        let incremental = LutMapParams {
            area_flow_rounds: 3,
            ..LutMapParams::with_lut_size(4)
        };
        let full = LutMapParams {
            full_recompute: true,
            ..incremental
        };
        let inc_stats = lut_map_stats(&aig, &incremental);
        let full_stats = lut_map_stats(&aig, &full);
        assert_eq!(inc_stats.num_luts, full_stats.num_luts);
        assert_eq!(inc_stats.depth, full_stats.depth);
        assert!(
            inc_stats.choice_evaluations < full_stats.choice_evaluations,
            "incremental refinement must skip work: {inc_stats:?} vs {full_stats:?}"
        );
        // the mapped networks are structurally identical, not just equal
        // in size
        let a = lut_map(&aig, &incremental);
        let b = lut_map(&aig, &full);
        assert_eq!(a.num_gates(), b.num_gates());
        assert_eq!(a.po_signals(), b.po_signals());
        assert!(equivalent_by_simulation(&a, &b));
    }

    /// Choice-aware mapping on a ringed network: the result stays
    /// miter-equivalent, choices-off on the same network is byte-identical
    /// to mapping with the rings stripped, and a strictly better member
    /// structure actually wins cuts.
    #[test]
    fn choice_aware_mapping_exploits_a_better_member_structure() {
        use crate::sweeping::{check_equivalence, sweep, SweepParams};
        // shared building blocks, each a mapped 4-LUT of its own output:
        // p = a∧b∧c∧d and q = e∧f∧g∧h (balanced trees)
        let mut aig = Aig::new();
        let pis: Vec<Signal> = (0..8).map(|_| aig.create_pi()).collect();
        let balanced_and = |aig: &mut Aig, xs: &[Signal]| {
            let l = aig.create_and(xs[0], xs[1]);
            let r = aig.create_and(xs[2], xs[3]);
            aig.create_and(l, r)
        };
        let p = balanced_and(&mut aig, &pis[..4]);
        let q = balanced_and(&mut aig, &pis[4..]);
        let sel = aig.create_pi();
        let u = aig.create_and(p, sel);
        aig.create_po(u);
        let v = aig.create_and(q, !sel);
        aig.create_po(v);
        // the target output: the same conjunction a∧…∧h, but built as an
        // *interleaved chain* that shares nothing with p and q
        let mut chain = pis[0];
        for &pi in [4usize, 1, 5, 2, 6, 3, 7].map(|i| &pis[i]) {
            chain = aig.create_and(chain, pi);
        }
        aig.create_po(chain);
        // the alternative structure: p ∧ q — one fresh gate over the two
        // shared blocks.  fraig keeps the (topologically earlier) chain as
        // the representative; a destructive sweep would delete this cone.
        let alt = aig.create_and(p, q);
        aig.create_po(alt);
        let source = aig.clone();
        let stats = sweep(
            &mut aig,
            &SweepParams {
                record_choices: true,
                ..SweepParams::default()
            },
        );
        assert!(stats.choices_recorded >= 1, "{stats:?}");
        assert!(aig.num_choice_nodes() >= 1);

        let off = LutMapParams::with_lut_size(4);
        let on = LutMapParams {
            use_choices: true,
            ..off
        };
        // choices-off on the ringed network == mapping with rings stripped
        // (the pre-choice mapper): the rings must be invisible to it
        let mut stripped = aig.clone();
        stripped.clear_choices();
        let klut_off = lut_map(&aig, &off);
        let klut_stripped = lut_map(&stripped, &off);
        assert_eq!(klut_off.num_gates(), klut_stripped.num_gates());
        assert_eq!(klut_off.po_signals(), klut_stripped.po_signals());
        let off_stats = lut_map_stats(&aig, &off);
        assert_eq!(off_stats.choice_wins, 0);

        // choices-on: equivalent to the source and at least as small
        let klut_on = lut_map(&aig, &on);
        assert!(
            check_equivalence(&source, &klut_on).is_equivalent(),
            "choice-aware mapping broke the function"
        );
        assert!(
            check_equivalence(&source, &klut_off).is_equivalent(),
            "choices-off mapping broke the function"
        );
        let on_stats = lut_map_stats(&aig, &on);
        assert!(
            on_stats.num_luts < off_stats.num_luts,
            "the shared-block member must strictly reduce the LUT count: \
             {on_stats:?} vs {off_stats:?}"
        );
        assert!(
            on_stats.choice_wins >= 1,
            "the p∧q member must win at least one cover cut: {on_stats:?}"
        );
    }

    /// Choice-aware mapping on a ring-free network selects exactly the
    /// choices-off cover (the strict comparison keeps structural winners).
    #[test]
    fn choices_on_without_rings_is_identical_to_choices_off() {
        let mut state = 0x0dd_ba11_u64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as usize
        };
        let mut aig = Aig::new();
        let mut signals: Vec<Signal> = (0..7).map(|_| aig.create_pi()).collect();
        for _ in 0..70 {
            let a = signals[next() % signals.len()].complement_if(next() % 2 == 0);
            let b = signals[next() % signals.len()].complement_if(next() % 2 == 0);
            signals.push(aig.create_and(a, b));
        }
        for s in signals.iter().rev().take(4) {
            aig.create_po(*s);
        }
        let off = LutMapParams::with_lut_size(4);
        let on = LutMapParams {
            use_choices: true,
            ..off
        };
        let a = lut_map(&aig, &off);
        let b = lut_map(&aig, &on);
        assert_eq!(a.num_gates(), b.num_gates());
        // same cover content; the choices-on build order is a DFS
        // post-order, so compare functionally and by size, plus stats
        assert!(equivalent_by_simulation(&a, &b));
        let sa = lut_map_stats(&aig, &off);
        let sb = lut_map_stats(&aig, &on);
        assert_eq!(sa.num_luts, sb.num_luts);
        assert_eq!(sa.depth, sb.depth);
        assert_eq!(sb.choice_wins, 0);
        assert_eq!(sb.choice_cycle_fallbacks, 0);
    }

    #[test]
    fn complemented_outputs_are_preserved() {
        let mut aig = Aig::new();
        let a = aig.create_pi();
        let b = aig.create_pi();
        let g = aig.create_and(a, b);
        aig.create_po(!g);
        aig.create_po(a);
        let klut = lut_map(&aig, &LutMapParams::default());
        assert!(equivalent_by_simulation(&aig, &klut));
    }
}
