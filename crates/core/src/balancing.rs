//! Tree balancing (Algorithm 2 of the paper).
//!
//! Balancing reduces the number of logic levels without increasing the
//! gate count.  The generic requirement is associativity and commutativity
//! of the gate function: chains of same-kind gates (with no external
//! fanout and no complemented internal edges) are collected into a group
//! and re-built as a balanced tree ordered by arrival times.

use glsx_network::telemetry::{self, BatchSpans, MetricsSource, Tracer, BATCH_INTERVAL};
use glsx_network::views::DepthView;
use glsx_network::{Budget, GateBuilder, GateKind, Network, NodeId, Signal, StepOutcome};

/// Parameters of tree balancing.
#[derive(Clone, Copy, Debug)]
pub struct BalanceParams {
    /// Minimum number of group leaves for rebuilding to be attempted.
    pub min_group_size: usize,
}

impl Default for BalanceParams {
    fn default() -> Self {
        Self { min_group_size: 3 }
    }
}

/// Statistics of a balancing pass.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct BalanceStats {
    /// Number of associative gate groups found.
    pub groups: usize,
    /// Number of groups actually rebuilt.
    pub rebuilt: usize,
    /// Network depth before the pass.
    pub depth_before: u32,
    /// Network depth after the pass.
    pub depth_after: u32,
    /// Whether the pass ran to completion or stopped on an exhausted
    /// effort budget.
    pub outcome: StepOutcome,
}

/// Balances `ntk` and returns pass statistics.  The gate count never
/// increases (rebuilding reuses structural hashing, so it may decrease).
pub fn balance<N: Network + GateBuilder>(ntk: &mut N, params: &BalanceParams) -> BalanceStats {
    balance_traced(ntk, params, &Budget::unlimited(), telemetry::global())
}

/// [`balance`] under a cooperative effort [`Budget`] (one tick per
/// candidate root, polled before a group is grown — a group is always
/// rebuilt and substituted whole, never half-applied), reporting through
/// an explicit telemetry [`Tracer`]: a `balance` pass span,
/// candidate-batch spans in full mode, and the pass statistics absorbed
/// into the metrics registry.  Tracing is observational only — results
/// are bit-identical at any trace mode.
pub fn balance_traced<N: Network + GateBuilder>(
    ntk: &mut N,
    params: &BalanceParams,
    budget: &Budget,
    tracer: &Tracer,
) -> BalanceStats {
    let _pass = tracer.span("balance");
    let mut batch = BatchSpans::new(tracer, "balance_candidates", BATCH_INTERVAL);
    let mut stats = BalanceStats {
        depth_before: DepthView::new(ntk).depth(),
        ..BalanceStats::default()
    };
    // process roots in topological order so that already balanced subtrees
    // feed later groups
    let nodes: Vec<NodeId> = ntk.gate_nodes();
    for node in nodes {
        if !ntk.is_gate(node) || ntk.fanout_size(node) == 0 {
            continue;
        }
        let kind = ntk.gate_kind(node);
        if !kind.is_associative() || kind.arity() != Some(2) {
            continue;
        }
        if !budget.consume(1) {
            break;
        }
        batch.tick();
        // grow the group of same-kind gates reachable through
        // non-complemented, single-fanout edges
        let leaves = grow_group(ntk, node, kind);
        if leaves.len() < params.min_group_size {
            continue;
        }
        stats.groups += 1;
        let depth = DepthView::new(ntk);
        let size_before = ntk.num_gates();
        let new_root = rebuild_balanced(ntk, kind, &leaves, &depth);
        if new_root.node() == node {
            continue;
        }
        // only substitute if the rebuild does not increase the gate count
        // (it adds at most leaves-1 gates, shared with existing structure)
        let size_after = ntk.num_gates();
        if size_after > size_before + leaves.len() - 1 {
            // should not happen; guard against pathological growth
            if ntk.fanout_size(new_root.node()) == 0 {
                ntk.take_out_node(new_root.node());
            }
            continue;
        }
        ntk.substitute_node(node, new_root);
        stats.rebuilt += 1;
    }
    stats.depth_after = DepthView::new(ntk).depth();
    stats.outcome = budget.outcome();
    tracer.absorb("balance", &stats);
    tracer.set_gauge("balance.depth_after", u64::from(stats.depth_after));
    stats
}

impl MetricsSource for BalanceStats {
    fn visit_metrics(&self, visit: &mut dyn FnMut(&str, u64)) {
        visit("groups", self.groups as u64);
        visit("rebuilt", self.rebuilt as u64);
        visit("exhausted", u64::from(!self.outcome.is_completed()));
    }
}

/// Collects the leaves of the maximal group of `kind`-gates rooted at
/// `root`.  Traversal stops at complemented edges, at gates of a different
/// kind, at primary inputs and at gates with external fanout (other than
/// the root itself).
fn grow_group<N: Network>(ntk: &N, root: NodeId, kind: GateKind) -> Vec<Signal> {
    let mut leaves = Vec::new();
    let mut stack = vec![root];
    while let Some(node) = stack.pop() {
        ntk.foreach_fanin(node, |fanin| {
            let child = fanin.node();
            let child_in_group = !fanin.is_complemented()
                && ntk.is_gate(child)
                && ntk.gate_kind(child) == kind
                && ntk.fanout_size(child) == 1;
            if child_in_group {
                stack.push(child);
            } else {
                leaves.push(fanin);
            }
        });
    }
    leaves
}

/// Rebuilds a balanced tree over the group leaves: the two leaves with the
/// smallest arrival times (levels) are combined first, Huffman style.
fn rebuild_balanced<N: Network + GateBuilder>(
    ntk: &mut N,
    kind: GateKind,
    leaves: &[Signal],
    depth: &DepthView,
) -> Signal {
    let mut queue: Vec<(u32, Signal)> =
        leaves.iter().map(|&s| (depth.level(s.node()), s)).collect();
    // sort descending so that pop() removes the smallest level
    queue.sort_by_key(|&(level, _)| std::cmp::Reverse(level));
    while queue.len() > 1 {
        let (la, a) = queue.pop().expect("at least two entries");
        let (lb, b) = queue.pop().expect("at least two entries");
        let combined = ntk.create_gate(kind, &[a, b]);
        let level = la.max(lb) + 1;
        // insert keeping descending order
        let position = queue
            .binary_search_by(|probe| level.cmp(&probe.0))
            .unwrap_or_else(|e| e);
        queue.insert(position, (level, combined));
    }
    queue.pop().expect("one root remains").1
}

#[cfg(test)]
mod tests {
    use super::*;
    use glsx_network::simulation::equivalent_by_simulation;
    use glsx_network::views::network_depth;
    use glsx_network::{Aig, Network, Xag};

    /// Builds a left-leaning chain of AND gates over `n` inputs.
    fn and_chain(n: usize) -> Aig {
        let mut aig = Aig::new();
        let pis: Vec<Signal> = (0..n).map(|_| aig.create_pi()).collect();
        let mut acc = pis[0];
        for &pi in &pis[1..] {
            acc = aig.create_and(acc, pi);
        }
        aig.create_po(acc);
        aig
    }

    #[test]
    fn balancing_reduces_depth_of_chains() {
        let mut aig = and_chain(8);
        let reference = aig.clone();
        assert_eq!(network_depth(&aig), 7);
        let stats = balance(&mut aig, &BalanceParams::default());
        assert!(stats.rebuilt >= 1);
        assert_eq!(network_depth(&aig), 3);
        assert!(aig.num_gates() <= reference.num_gates());
        assert!(equivalent_by_simulation(&reference, &aig));
    }

    #[test]
    fn balancing_respects_arrival_times() {
        // one input arrives late (through a chain); it should end up near the root
        let mut aig = Aig::new();
        let pis: Vec<Signal> = (0..6).map(|_| aig.create_pi()).collect();
        let late = {
            let t1 = aig.create_and(pis[4], pis[5]);
            aig.create_and(t1, !pis[4])
        };
        let mut acc = late;
        for &pi in &pis[..4] {
            acc = aig.create_and(acc, pi);
        }
        aig.create_po(acc);
        let reference = aig.clone();
        let before = network_depth(&aig);
        balance(&mut aig, &BalanceParams::default());
        assert!(network_depth(&aig) <= before);
        assert!(equivalent_by_simulation(&reference, &aig));
    }

    #[test]
    fn xor_chains_are_balanced_in_xags() {
        let mut xag = Xag::new();
        let pis: Vec<Signal> = (0..8).map(|_| xag.create_pi()).collect();
        let mut acc = pis[0];
        for &pi in &pis[1..] {
            acc = xag.create_xor(acc, pi);
        }
        xag.create_po(acc);
        let reference = xag.clone();
        assert_eq!(network_depth(&xag), 7);
        balance(&mut xag, &BalanceParams::default());
        assert_eq!(network_depth(&xag), 3);
        assert!(equivalent_by_simulation(&reference, &xag));
    }

    #[test]
    fn balancing_does_not_touch_shared_or_complemented_groups() {
        let mut aig = Aig::new();
        let pis: Vec<Signal> = (0..4).map(|_| aig.create_pi()).collect();
        let shared = aig.create_and(pis[0], pis[1]);
        let top = aig.create_and(shared, pis[2]);
        let top2 = aig.create_and(!top, pis[3]); // complemented edge blocks grouping
        aig.create_po(top2);
        aig.create_po(shared);
        let reference = aig.clone();
        balance(&mut aig, &BalanceParams::default());
        assert!(equivalent_by_simulation(&reference, &aig));
        assert_eq!(aig.num_gates(), reference.num_gates());
    }
}
