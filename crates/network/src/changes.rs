//! The change-event layer: structural mutations recorded as replayable
//! events, the substrate of incremental optimisation.
//!
//! Every optimisation pass owns derived state over the network — cut
//! arenas, simulation signatures, mapping choices — and the historic cost
//! model was "recompute after every local change".  The change-event layer
//! replaces that with a precise invalidation contract: a network records
//! the structural changes a substitution actually performs (fanin rewires,
//! node merges, node deletions) into a [`ChangeLog`], and consumers update
//! only what those events invalidate (e.g.
//! `CutManager::refresh_from` in `glsx-core` re-enumerates only the
//! transitive fanout of rewired nodes).
//!
//! Recording is off by default and costs one branch per mutation when off.
//! A pass that wants incremental maintenance enables it around its main
//! loop:
//!
//! ```
//! use glsx_network::{Aig, ChangeLog, GateBuilder, Network};
//!
//! let mut aig = Aig::new();
//! let a = aig.create_pi();
//! let b = aig.create_pi();
//! let g = aig.create_and(a, b);
//! aig.create_po(g);
//!
//! aig.set_change_tracking(true);
//! aig.substitute_node(g.node(), a);
//! let mut log = ChangeLog::new();
//! aig.drain_changes(&mut log);
//! assert!(log.events().iter().any(|e| matches!(
//!     e,
//!     glsx_network::ChangeEvent::Substituted { old, .. } if *old == g.node()
//! )));
//! aig.set_change_tracking(false);
//! ```
//!
//! The events are deliberately *low level* (one event per structural
//! effect, in the order the storage performed them) so a consumer can
//! reconstruct exactly which derived state is stale:
//!
//! * [`ChangeEvent::RewiredFanin`] — a live node's fanin list changed, so
//!   everything derived from its *cone* (cuts, signatures, arrival times)
//!   is stale, transitively for its fanout cone.
//! * [`ChangeEvent::Substituted`] — a node was replaced by a signal
//!   (covers both optimisation substitutions and cascading structural-hash
//!   merges); the old node is dead afterwards.
//! * [`ChangeEvent::Deleted`] — a node was removed by dangling-logic
//!   cleanup; purely a "drop cached state" signal, since a deleted node by
//!   definition had no live fanout.

use crate::{NodeId, Signal};

/// One recorded structural change (see the module docs for the
/// invalidation semantics of each variant).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum ChangeEvent {
    /// Every use of `old` was replaced by the signal `new`; `old` is dead.
    Substituted {
        /// The replaced node.
        old: NodeId,
        /// The signal now driving `old`'s former fanouts.
        new: Signal,
    },
    /// `node` is live but its fanin list changed (it was rewired onto a
    /// substitution's replacement signal).  Derived per-cone state of
    /// `node` and of its transitive fanout is stale.
    RewiredFanin {
        /// The rewired node.
        node: NodeId,
    },
    /// `node` was removed (dangling-logic cleanup).
    Deleted {
        /// The removed node.
        node: NodeId,
    },
}

/// A reusable buffer of [`ChangeEvent`]s in the order they happened.
///
/// Passes keep one log alive and [`clear`](ChangeLog::clear) it after each
/// consumer refresh, so the steady state records events without
/// allocating.
#[derive(Clone, Debug, Default)]
pub struct ChangeLog {
    events: Vec<ChangeEvent>,
}

impl ChangeLog {
    /// Creates an empty log.
    pub fn new() -> Self {
        Self::default()
    }

    /// The recorded events, oldest first.
    #[inline]
    pub fn events(&self) -> &[ChangeEvent] {
        &self.events
    }

    /// Returns `true` if no events are recorded.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.events.is_empty()
    }

    /// Number of recorded events.
    #[inline]
    pub fn len(&self) -> usize {
        self.events.len()
    }

    /// Appends one event.
    #[inline]
    pub fn push(&mut self, event: ChangeEvent) {
        self.events.push(event);
    }

    /// Moves all events of `other` onto the end of this log, leaving
    /// `other` empty (capacity preserved on both sides).
    pub fn append(&mut self, other: &mut ChangeLog) {
        self.events.append(&mut other.events);
    }

    /// Forgets all events, keeping the allocation.
    #[inline]
    pub fn clear(&mut self) {
        self.events.clear();
    }

    /// Drops every event recorded after the first `len` — the rollback
    /// primitive of the undo journal: events recorded by a rolled-back
    /// mutation burst must not reach an incremental consumer, since they
    /// describe structure that no longer exists.
    #[inline]
    pub fn truncate(&mut self, len: usize) {
        self.events.truncate(len);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Aig, GateBuilder, Network};

    #[test]
    fn tracking_is_off_by_default_and_drains_clean() {
        let mut aig = Aig::new();
        let a = aig.create_pi();
        let b = aig.create_pi();
        let g = aig.create_and(a, b);
        aig.create_po(g);
        aig.substitute_node(g.node(), a);
        let mut log = ChangeLog::new();
        aig.drain_changes(&mut log);
        assert!(log.is_empty(), "no events without tracking: {log:?}");
    }

    #[test]
    fn substitution_records_rewires_substitution_and_deletions() {
        let mut aig = Aig::new();
        let a = aig.create_pi();
        let b = aig.create_pi();
        let c = aig.create_pi();
        let g1 = aig.create_and(a, b);
        let g2 = aig.create_and(g1, c);
        aig.create_po(g2);
        aig.set_change_tracking(true);
        // replacing g1 by a rewires g2 and kills g1
        aig.substitute_node(g1.node(), a);
        let mut log = ChangeLog::new();
        aig.drain_changes(&mut log);
        assert!(log
            .events()
            .contains(&ChangeEvent::RewiredFanin { node: g2.node() }));
        assert!(log.events().contains(&ChangeEvent::Substituted {
            old: g1.node(),
            new: a,
        }));
        // draining empties the internal buffer
        let mut empty = ChangeLog::new();
        aig.drain_changes(&mut empty);
        assert!(empty.is_empty());
    }

    #[test]
    fn take_out_records_deletions_recursively() {
        let mut aig = Aig::new();
        let a = aig.create_pi();
        let b = aig.create_pi();
        let g1 = aig.create_and(a, b);
        let g2 = aig.create_and(g1, a);
        // no POs: g2 has no fanout, removing it cascades into g1
        aig.set_change_tracking(true);
        aig.take_out_node(g2.node());
        let mut log = ChangeLog::new();
        aig.drain_changes(&mut log);
        assert!(log
            .events()
            .contains(&ChangeEvent::Deleted { node: g2.node() }));
        assert!(log
            .events()
            .contains(&ChangeEvent::Deleted { node: g1.node() }));
    }

    #[test]
    fn disabling_tracking_discards_pending_events() {
        let mut aig = Aig::new();
        let a = aig.create_pi();
        let b = aig.create_pi();
        let g = aig.create_and(a, b);
        aig.create_po(g);
        aig.set_change_tracking(true);
        aig.substitute_node(g.node(), a);
        aig.set_change_tracking(false);
        let mut log = ChangeLog::new();
        aig.drain_changes(&mut log);
        assert!(log.is_empty());
    }

    #[test]
    fn cascading_strash_merges_are_recorded_as_substitutions() {
        let mut aig = Aig::new();
        let a = aig.create_pi();
        let b = aig.create_pi();
        let c = aig.create_pi();
        let g1 = aig.create_and(a, c);
        let g2 = aig.create_and(b, c);
        aig.create_po(g1);
        aig.create_po(g2);
        aig.set_change_tracking(true);
        // substituting b by a makes g2 a structural duplicate of g1; the
        // cascade records a second Substituted event for the merge
        aig.substitute_node(b.node(), a);
        let mut log = ChangeLog::new();
        aig.drain_changes(&mut log);
        let substituted: Vec<NodeId> = log
            .events()
            .iter()
            .filter_map(|e| match e {
                ChangeEvent::Substituted { old, .. } => Some(*old),
                _ => None,
            })
            .collect();
        assert!(substituted.contains(&b.node()));
        assert!(substituted.contains(&g2.node()), "{log:?}");
    }
}
