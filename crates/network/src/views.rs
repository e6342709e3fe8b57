//! Views: derived information layered on top of a network without
//! modifying it (topological order, levels/depth, reachability).

use crate::{GateKind, Network, NodeId};

/// Returns the set of nodes reachable from the primary outputs (the
/// "useful" logic), including primary inputs and the constant node.
pub fn reachable_from_outputs<N: Network>(ntk: &N) -> Vec<NodeId> {
    let mut visited = vec![false; ntk.size()];
    let mut stack: Vec<NodeId> = ntk.po_signals().iter().map(|s| s.node()).collect();
    let mut result = Vec::new();
    while let Some(node) = stack.pop() {
        if visited[node as usize] {
            continue;
        }
        visited[node as usize] = true;
        result.push(node);
        ntk.foreach_fanin(node, |f| {
            if !visited[f.node() as usize] {
                stack.push(f.node());
            }
        });
    }
    result
}

/// A depth (level) view of a network.
///
/// Levels follow the paper's Algorithm 1: primary inputs and constants are
/// at level 0 and every gate is one level above its deepest fanin.  The
/// view is a snapshot — recompute it after modifying the network.
///
/// # Example
///
/// ```
/// use glsx_network::{Aig, GateBuilder, Network};
/// use glsx_network::views::DepthView;
///
/// let mut aig = Aig::new();
/// let a = aig.create_pi();
/// let b = aig.create_pi();
/// let c = aig.create_pi();
/// let g1 = aig.create_and(a, b);
/// let g2 = aig.create_and(g1, c);
/// aig.create_po(g2);
/// let depth = DepthView::new(&aig);
/// assert_eq!(depth.depth(), 2);
/// assert_eq!(depth.level(g1.node()), 1);
/// ```
#[derive(Clone, Debug)]
pub struct DepthView {
    /// Level per node id (dense; dead nodes keep level 0).
    levels: Vec<u32>,
    depth: u32,
    /// CSR bucket offsets into `bucket_nodes`: the live gates of level `l`
    /// (levels start at 1; level 0 holds inputs/constants, not gates) are
    /// `bucket_nodes[bucket_offsets[l] .. bucket_offsets[l + 1]]`.
    bucket_offsets: Vec<u32>,
    /// Live gates grouped by level, topological order within each bucket.
    bucket_nodes: Vec<NodeId>,
}

impl DepthView {
    /// Computes levels for all live nodes of `ntk`.
    pub fn new<N: Network>(ntk: &N) -> Self {
        let mut levels: Vec<u32> = vec![0; ntk.size()];
        let gates = ntk.gate_nodes();
        let mut max_gate_level = 0u32;
        for &node in &gates {
            let mut level = 0;
            ntk.foreach_fanin(node, |f| level = level.max(levels[f.node() as usize]));
            levels[node as usize] = level + 1;
            max_gate_level = max_gate_level.max(level + 1);
        }
        let depth = ntk
            .po_signals()
            .iter()
            .map(|s| levels[s.node() as usize])
            .max()
            .unwrap_or(0);
        // counting sort of the gates into per-level buckets; the stable
        // two-pass construction keeps topological order within each bucket
        let num_levels = max_gate_level as usize + 1;
        let mut bucket_offsets = vec![0u32; num_levels + 1];
        for &node in &gates {
            bucket_offsets[levels[node as usize] as usize + 1] += 1;
        }
        for l in 0..num_levels {
            bucket_offsets[l + 1] += bucket_offsets[l];
        }
        let mut cursor = bucket_offsets.clone();
        let mut bucket_nodes = vec![0 as NodeId; gates.len()];
        for &node in &gates {
            let l = levels[node as usize] as usize;
            bucket_nodes[cursor[l] as usize] = node;
            cursor[l] += 1;
        }
        Self {
            levels,
            depth,
            bucket_offsets,
            bucket_nodes,
        }
    }

    /// Builds the view from a precomputed per-node level table (indexed by
    /// [`NodeId`], `levels.len() == ntk.size()`), skipping the fanin
    /// traversal of [`DepthView::new`].
    ///
    /// This is the free depth view promised by the bulk-ingest path: the
    /// [`NetworkBuilder`](crate::bulk::NetworkBuilder) levelizes records as
    /// they arrive, so the loaded network's depth view costs one counting
    /// sort over the node table.  The caller is responsible for the table
    /// being the true levels (in debug builds a from-scratch twin check
    /// enforces it).
    ///
    /// # Panics
    ///
    /// Panics if `levels.len() != ntk.size()`, and in debug builds if the
    /// table disagrees with a freshly computed one.
    pub fn from_levels<N: Network>(ntk: &N, levels: Vec<u32>) -> Self {
        assert_eq!(
            levels.len(),
            ntk.size(),
            "level table must cover every node"
        );
        let depth = ntk
            .po_signals()
            .iter()
            .map(|s| levels[s.node() as usize])
            .max()
            .unwrap_or(0);
        // counting sort over ascending node ids — no topological traversal
        // needed: gates sharing a level are mutually independent (every
        // fanin sits at a strictly lower level), so any order within a
        // bucket is a valid schedule and ascending id is deterministic
        let mut max_gate_level = 0u32;
        let mut num_gates = 0usize;
        for node in 0..ntk.size() as NodeId {
            if ntk.is_gate(node) {
                max_gate_level = max_gate_level.max(levels[node as usize]);
                num_gates += 1;
            }
        }
        let num_levels = max_gate_level as usize + 1;
        let mut bucket_offsets = vec![0u32; num_levels + 1];
        for node in 0..ntk.size() as NodeId {
            if ntk.is_gate(node) {
                bucket_offsets[levels[node as usize] as usize + 1] += 1;
            }
        }
        for l in 0..num_levels {
            bucket_offsets[l + 1] += bucket_offsets[l];
        }
        let mut cursor = bucket_offsets.clone();
        let mut bucket_nodes = vec![0 as NodeId; num_gates];
        for node in 0..ntk.size() as NodeId {
            if ntk.is_gate(node) {
                let l = levels[node as usize] as usize;
                bucket_nodes[cursor[l] as usize] = node;
                cursor[l] += 1;
            }
        }
        let view = Self {
            levels,
            depth,
            bucket_offsets,
            bucket_nodes,
        };
        #[cfg(debug_assertions)]
        {
            let twin = Self::new(ntk);
            for node in ntk.node_ids() {
                if !ntk.is_dead(node) {
                    debug_assert_eq!(
                        view.levels[node as usize], twin.levels[node as usize],
                        "supplied level table disagrees with recomputation at node {node}"
                    );
                }
            }
            debug_assert_eq!(view.depth, twin.depth);
        }
        view
    }

    /// [`DepthView::from_levels`] for *dense* networks whose gates occupy
    /// exactly the ids `first_gate..size` (what the bulk builder produces
    /// when all inputs are declared up front, i.e. every record stream).
    ///
    /// Knowing the gate range up front means the counting sort runs over
    /// the compact `u32` level table alone — it never touches the node
    /// table, which at a million gates is the difference between sweeping
    /// a few megabytes and sweeping a hundred.
    ///
    /// # Panics
    ///
    /// Panics if `levels.len() != ntk.size()`; in debug builds, if any id
    /// in `first_gate..size` is not a live gate (or any below is), or if
    /// the table disagrees with a freshly computed one.
    pub fn from_levels_dense<N: Network>(ntk: &N, levels: Vec<u32>, first_gate: NodeId) -> Self {
        assert_eq!(
            levels.len(),
            ntk.size(),
            "level table must cover every node"
        );
        #[cfg(debug_assertions)]
        for node in 0..ntk.size() as NodeId {
            debug_assert_eq!(
                ntk.is_gate(node),
                node >= first_gate,
                "network is not dense: gate range mismatch at node {node}"
            );
        }
        let depth = ntk
            .po_signals()
            .iter()
            .map(|s| levels[s.node() as usize])
            .max()
            .unwrap_or(0);
        let gate_levels = &levels[first_gate as usize..];
        let mut max_gate_level = 0u32;
        for &l in gate_levels {
            max_gate_level = max_gate_level.max(l);
        }
        let num_levels = max_gate_level as usize + 1;
        let mut bucket_offsets = vec![0u32; num_levels + 1];
        for &l in gate_levels {
            bucket_offsets[l as usize + 1] += 1;
        }
        for l in 0..num_levels {
            bucket_offsets[l + 1] += bucket_offsets[l];
        }
        let mut cursor = bucket_offsets.clone();
        let mut bucket_nodes = vec![0 as NodeId; gate_levels.len()];
        for (i, &l) in gate_levels.iter().enumerate() {
            bucket_nodes[cursor[l as usize] as usize] = first_gate + i as NodeId;
            cursor[l as usize] += 1;
        }
        let view = Self {
            levels,
            depth,
            bucket_offsets,
            bucket_nodes,
        };
        #[cfg(debug_assertions)]
        {
            let twin = Self::new(ntk);
            for node in ntk.node_ids() {
                if !ntk.is_dead(node) {
                    debug_assert_eq!(
                        view.levels[node as usize], twin.levels[node as usize],
                        "supplied level table disagrees with recomputation at node {node}"
                    );
                }
            }
            debug_assert_eq!(view.depth, twin.depth);
        }
        view
    }

    /// Returns the level of `node` (0 for nodes not known to the view).
    pub fn level(&self, node: NodeId) -> u32 {
        self.levels.get(node as usize).copied().unwrap_or(0)
    }

    /// Returns the depth of the network (maximum primary-output level).
    pub fn depth(&self) -> u32 {
        self.depth
    }

    /// Number of level buckets (one past the deepest *gate* level; level 0
    /// is always present and always empty of gates).
    pub fn num_levels(&self) -> usize {
        self.bucket_offsets.len() - 1
    }

    /// The live gates at `level`, in topological order.  This is the
    /// dependency frontier parallel passes partition over: every fanin of
    /// a gate at level `l` lives at a level `< l`, so the gates of one
    /// bucket can be processed concurrently once all lower buckets are
    /// done.  Out-of-range levels return an empty slice.
    pub fn gates_at_level(&self, level: usize) -> &[NodeId] {
        if level + 1 >= self.bucket_offsets.len() {
            return &[];
        }
        let start = self.bucket_offsets[level] as usize;
        let end = self.bucket_offsets[level + 1] as usize;
        &self.bucket_nodes[start..end]
    }
}

/// Computes the depth of a network (convenience wrapper around
/// [`DepthView`], mirroring the paper's Algorithm 1).
pub fn network_depth<N: Network>(ntk: &N) -> u32 {
    DepthView::new(ntk).depth()
}

/// Summary statistics of a network, used by the flow and the benchmark
/// harness for reporting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct NetworkStats {
    /// Number of primary inputs.
    pub num_pis: usize,
    /// Number of primary outputs.
    pub num_pos: usize,
    /// Number of live gates.
    pub num_gates: usize,
    /// Logic depth (levels).
    pub depth: u32,
}

impl NetworkStats {
    /// Collects statistics from a network.
    pub fn of<N: Network>(ntk: &N) -> Self {
        Self {
            num_pis: ntk.num_pis(),
            num_pos: ntk.num_pos(),
            num_gates: ntk.num_gates(),
            depth: network_depth(ntk),
        }
    }
}

impl std::fmt::Display for NetworkStats {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "i/o = {}/{}  gates = {}  depth = {}",
            self.num_pis, self.num_pos, self.num_gates, self.depth
        )
    }
}

/// Returns the transitive fanin cone of `roots` (gate nodes only), i.e. all
/// gates on some path from a primary input to one of the roots.
pub fn transitive_fanin<N: Network>(ntk: &N, roots: &[NodeId]) -> Vec<NodeId> {
    let mut visited = vec![false; ntk.size()];
    let mut stack: Vec<NodeId> = roots.to_vec();
    let mut cone = Vec::new();
    while let Some(node) = stack.pop() {
        if visited[node as usize] || !ntk.is_gate(node) {
            continue;
        }
        visited[node as usize] = true;
        cone.push(node);
        ntk.foreach_fanin(node, |f| stack.push(f.node()));
    }
    cone
}

/// Returns the signals driving the primary outputs that are reachable from
/// `node` (transitive fanout check used in tests and window selection).
pub fn is_in_transitive_fanin<N: Network>(ntk: &N, root: NodeId, query: NodeId) -> bool {
    if root == query {
        return true;
    }
    let mut visited = vec![false; ntk.size()];
    let mut stack = vec![root];
    let mut found = false;
    while let Some(node) = stack.pop() {
        if visited[node as usize] {
            continue;
        }
        visited[node as usize] = true;
        ntk.foreach_fanin(node, |f| {
            if f.node() == query {
                found = true;
            } else {
                stack.push(f.node());
            }
        });
        if found {
            return true;
        }
    }
    false
}

/// Checks structural sanity of a network: fanins of live nodes are live,
/// fanout counts are consistent, primary outputs point at live nodes,
/// the gate order is topological, every live fixed-function gate is
/// findable through the structural-hash table, and (when enabled) the
/// choice rings pass [`check_choice_integrity`].  Used by tests, debug
/// assertions in the algorithms, and the resilient executor's
/// post-rollback audit.
pub fn check_network_integrity<N: Network>(ntk: &N) -> Result<(), String> {
    // a freshly bulk-loaded network legitimately has no fanout lists or
    // strash table yet; audit only what exists (the fanin-side structure
    // and the cached counts), the rest is checked once materialised
    let derived = ntk.has_derived_state();
    // dense per-node PO reference counts, computed once
    let mut po_ref_counts = vec![0usize; ntk.size()];
    for po in ntk.po_signals() {
        po_ref_counts[po.node() as usize] += 1;
    }
    // dense fanin-degree counts, for auditing the cached fanout counts
    // without the fanout lists
    let mut degrees = vec![0usize; ntk.size()];
    for node in ntk.gate_nodes() {
        for f in ntk.fanins_inline(node).iter() {
            degrees[f.node() as usize] += 1;
        }
    }
    for node in ntk.gate_nodes() {
        for f in ntk.fanins_inline(node).iter() {
            if ntk.is_dead(f.node()) {
                return Err(format!("live node {node} has dead fanin {}", f.node()));
            }
            if derived && !ntk.fanouts(f.node()).contains(&node) {
                return Err(format!(
                    "fanout list of {} does not contain its reader {node}",
                    f.node()
                ));
            }
        }
        let counted = if derived {
            let mut counted = 0usize;
            ntk.foreach_fanout(node, |_| counted += 1);
            counted
        } else {
            degrees[node as usize]
        };
        let po_refs = po_ref_counts[node as usize];
        if counted + po_refs != ntk.fanout_size(node) {
            return Err(format!(
                "cached fanout count of {node} is {} but {} fanouts and {} output refs exist",
                ntk.fanout_size(node),
                counted,
                po_refs
            ));
        }
    }
    for (i, po) in ntk.po_signals().iter().enumerate() {
        if ntk.is_dead(po.node()) {
            return Err(format!(
                "primary output {i} points at dead node {}",
                po.node()
            ));
        }
    }
    // topological order sanity: every fanin must appear before its fanout
    let order = ntk.gate_nodes();
    let mut position: Vec<Option<usize>> = vec![None; ntk.size()];
    for (i, &n) in order.iter().enumerate() {
        position[n as usize] = Some(i);
    }
    for (i, &n) in order.iter().enumerate() {
        for f in ntk.fanins_inline(n).iter() {
            if let Some(j) = position[f.node() as usize] {
                if j >= i {
                    return Err(format!("gate order is not topological at node {n}"));
                }
            }
        }
    }
    // structural-hash consistency: every live fixed-function gate must be
    // findable through the hash table (LUTs are not hashed).  Without
    // choice rings, duplicates are merged eagerly, so the table must
    // answer with the gate itself; with rings, a member kept alive as a
    // mapping choice may share its key with a live duplicate.
    for node in ntk.gate_nodes() {
        if !derived {
            break;
        }
        let kind = ntk.gate_kind(node);
        if kind == GateKind::Lut {
            continue;
        }
        let fanins = ntk.fanins(node);
        match ntk.find_structural(kind, &fanins) {
            None => {
                return Err(format!(
                    "live gate {node} is missing from the structural-hash table"
                ));
            }
            Some(found) if found != node && !ntk.has_choices() => {
                return Err(format!(
                    "structural-hash entry for live gate {node} points at {found}"
                ));
            }
            Some(_) => {}
        }
    }
    check_choice_integrity(ntk)
}

/// Checks structural sanity of the choice rings (see [`crate::choices`]):
/// every ring member is a live gate reachable from exactly one live
/// representative, `choice_repr`/`choice_phase` agree with the ring walk,
/// and no node appears in two rings.  Used by tests and the property
/// suite; a network without choices trivially passes.
pub fn check_choice_integrity<N: Network>(ntk: &N) -> Result<(), String> {
    if !ntk.has_choices() {
        return Ok(());
    }
    let mut seen = vec![false; ntk.size()];
    let mut members = 0usize;
    for node in 0..ntk.size() as NodeId {
        if ntk.choice_repr(node) != node {
            continue; // members are visited through their representative
        }
        let mut current = ntk.next_choice(node);
        if current.is_some() && ntk.is_dead(node) {
            return Err(format!("dead node {node} heads a non-empty choice ring"));
        }
        while let Some(member) = current {
            if ntk.is_dead(member) {
                return Err(format!(
                    "choice ring of {node} contains dead member {member}"
                ));
            }
            if !ntk.is_gate(member) {
                return Err(format!("choice ring of {node} contains non-gate {member}"));
            }
            if seen[member as usize] {
                return Err(format!("node {member} appears in two choice rings"));
            }
            seen[member as usize] = true;
            members += 1;
            if ntk.choice_repr(member) != node {
                return Err(format!(
                    "member {member} reports representative {} instead of {node}",
                    ntk.choice_repr(member)
                ));
            }
            current = ntk.next_choice(member);
        }
    }
    if members != ntk.num_choice_nodes() {
        return Err(format!(
            "ring walk found {members} members but the table counts {}",
            ntk.num_choice_nodes()
        ));
    }
    // every self-declared member must have been reached through its ring
    for node in 0..ntk.size() as NodeId {
        if ntk.choice_repr(node) != node && !seen[node as usize] {
            return Err(format!(
                "member {node} is not reachable from its representative {}",
                ntk.choice_repr(node)
            ));
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Aig, GateBuilder, Network, Signal};

    fn sample_aig() -> (Aig, Signal, Signal) {
        let mut aig = Aig::new();
        let a = aig.create_pi();
        let b = aig.create_pi();
        let c = aig.create_pi();
        let g1 = aig.create_and(a, b);
        let g2 = aig.create_and(g1, c);
        let g3 = aig.create_and(!g1, !c);
        aig.create_po(g2);
        aig.create_po(g3);
        (aig, g1, g2)
    }

    #[test]
    fn depth_view_levels() {
        let (aig, g1, g2) = sample_aig();
        let depth = DepthView::new(&aig);
        assert_eq!(depth.level(g1.node()), 1);
        assert_eq!(depth.level(g2.node()), 2);
        assert_eq!(depth.depth(), 2);
        assert_eq!(network_depth(&aig), 2);
    }

    #[test]
    fn depth_view_level_buckets_partition_the_gates() {
        let (aig, g1, g2) = sample_aig();
        let depth = DepthView::new(&aig);
        assert_eq!(depth.num_levels(), 3);
        assert!(depth.gates_at_level(0).is_empty(), "level 0 holds no gates");
        assert_eq!(depth.gates_at_level(1), &[g1.node()]);
        let level2 = depth.gates_at_level(2);
        assert_eq!(level2.len(), 2);
        assert_eq!(level2[0], g2.node(), "topological order within a bucket");
        assert!(depth.gates_at_level(99).is_empty());
        // the buckets partition exactly the live gates and agree with level()
        let mut from_buckets: Vec<NodeId> = (0..depth.num_levels())
            .flat_map(|l| depth.gates_at_level(l).iter().copied())
            .collect();
        for l in 0..depth.num_levels() {
            for &n in depth.gates_at_level(l) {
                assert_eq!(depth.level(n) as usize, l);
            }
        }
        from_buckets.sort_unstable();
        let mut gates = aig.gate_nodes();
        gates.sort_unstable();
        assert_eq!(from_buckets, gates);
    }

    #[test]
    fn stats_snapshot() {
        let (aig, _, _) = sample_aig();
        let stats = NetworkStats::of(&aig);
        assert_eq!(stats.num_pis, 3);
        assert_eq!(stats.num_pos, 2);
        assert_eq!(stats.num_gates, 3);
        assert_eq!(stats.depth, 2);
        assert!(stats.to_string().contains("gates = 3"));
    }

    #[test]
    fn reachability_and_cones() {
        let (mut aig, g1, g2) = sample_aig();
        let pi0 = Signal::new(aig.pi_nodes()[0], false);
        let pi2 = Signal::new(aig.pi_nodes()[2], false);
        let _dangling = aig.create_and(pi0, !pi2);
        let reach = reachable_from_outputs(&aig);
        assert!(reach.contains(&g1.node()));
        assert!(reach.contains(&g2.node()));
        let cone = transitive_fanin(&aig, &[g2.node()]);
        assert!(cone.contains(&g1.node()));
        assert!(is_in_transitive_fanin(&aig, g2.node(), g1.node()));
        assert!(!is_in_transitive_fanin(&aig, g1.node(), g2.node()));
    }

    #[test]
    fn integrity_check_passes_for_well_formed_networks() {
        let (aig, _, _) = sample_aig();
        assert!(check_network_integrity(&aig).is_ok());
    }
}
