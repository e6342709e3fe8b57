//! Macro generating the storage-backed part of the [`Network`] trait
//! implementation shared by all concrete network types.

/// Implements the read/modify part of [`crate::Network`] for a type that
/// wraps a [`crate::storage::Storage`] in a field named `storage`.
macro_rules! impl_network_common {
    ($ty:ty, $name:literal) => {
        impl crate::Network for $ty {
            const NAME: &'static str = $name;

            fn new() -> Self {
                Self {
                    storage: crate::storage::Storage::new(),
                }
            }

            fn create_pi(&mut self) -> crate::Signal {
                self.storage.create_pi()
            }

            fn create_po(&mut self, signal: crate::Signal) -> usize {
                self.storage.create_po(signal)
            }

            fn size(&self) -> usize {
                self.storage.nodes.len()
            }

            fn num_pis(&self) -> usize {
                self.storage.pis.len()
            }

            fn num_pos(&self) -> usize {
                self.storage.pos.len()
            }

            fn num_gates(&self) -> usize {
                self.storage.num_gates()
            }

            fn is_constant(&self, node: crate::NodeId) -> bool {
                self.storage.node(node).kind == crate::GateKind::Constant
            }

            fn is_pi(&self, node: crate::NodeId) -> bool {
                self.storage.node(node).kind == crate::GateKind::Input
            }

            fn is_dead(&self, node: crate::NodeId) -> bool {
                self.storage.node(node).dead
            }

            fn is_gate(&self, node: crate::NodeId) -> bool {
                self.storage.is_gate(node)
            }

            fn gate_kind(&self, node: crate::NodeId) -> crate::GateKind {
                self.storage.node(node).kind
            }

            #[inline]
            fn fanin(&self, node: crate::NodeId, index: usize) -> crate::Signal {
                self.storage.node(node).fanins.as_slice()[index]
            }

            #[inline]
            fn fanin_size(&self, node: crate::NodeId) -> usize {
                self.storage.node(node).fanins.len()
            }

            #[inline]
            fn fanins_inline(&self, node: crate::NodeId) -> crate::FaninArray {
                self.storage.node(node).fanins.clone()
            }

            fn fanins(&self, node: crate::NodeId) -> Vec<crate::Signal> {
                self.storage.node(node).fanins.to_vec()
            }

            fn foreach_fanin<F: FnMut(crate::Signal)>(&self, node: crate::NodeId, mut f: F) {
                for &s in self.storage.node(node).fanins.iter() {
                    f(s);
                }
            }

            #[inline]
            fn fanout_size(&self, node: crate::NodeId) -> usize {
                self.storage.fanout_size(node)
            }

            fn fanouts(&self, node: crate::NodeId) -> Vec<crate::NodeId> {
                self.storage.node_fanouts(node).to_vec()
            }

            fn foreach_fanout<F: FnMut(crate::NodeId)>(&self, node: crate::NodeId, mut f: F) {
                for &n in self.storage.node_fanouts(node) {
                    f(n);
                }
            }

            #[inline]
            fn scratch(&self, node: crate::NodeId) -> u64 {
                self.storage.scratch(node)
            }

            #[inline]
            fn set_scratch(&self, node: crate::NodeId, value: u64) {
                self.storage.set_scratch(node, value)
            }

            fn clear_scratch(&self) {
                self.storage.clear_scratch()
            }

            #[inline]
            fn next_traversal_epoch(&self) -> u64 {
                self.storage.next_traversal_epoch()
            }

            #[inline]
            fn current_traversal_epoch(&self) -> u64 {
                self.storage.current_traversal_epoch()
            }

            fn node_function(&self, node: crate::NodeId) -> glsx_truth::TruthTable {
                let data = self.storage.node(node);
                match data.kind {
                    crate::GateKind::Lut => (**data
                        .function
                        .as_ref()
                        .expect("LUT node stores its function"))
                    .clone(),
                    crate::GateKind::Input => {
                        panic!("primary inputs have no local function")
                    }
                    kind => kind.function().expect("fixed-function gate"),
                }
            }

            fn pi_nodes(&self) -> Vec<crate::NodeId> {
                self.storage.pis.clone()
            }

            fn po_signals(&self) -> Vec<crate::Signal> {
                self.storage.pos.clone()
            }

            fn po_at(&self, index: usize) -> crate::Signal {
                self.storage.pos[index]
            }

            fn gate_nodes(&self) -> Vec<crate::NodeId> {
                self.storage.gate_nodes()
            }

            fn node_ids(&self) -> Vec<crate::NodeId> {
                self.storage.node_ids()
            }

            fn substitute_node(&mut self, old: crate::NodeId, new: crate::Signal) {
                self.storage.substitute(old, new);
            }

            fn replace_in_outputs(&mut self, old: crate::NodeId, new: crate::Signal) {
                self.storage.replace_in_outputs(old, new);
            }

            fn take_out_node(&mut self, node: crate::NodeId) {
                self.storage.take_out(node);
            }

            fn rollback_to(&mut self, mark: usize) {
                self.storage.rollback_to(mark);
            }

            fn snapshot(&self) -> crate::NetworkSnapshot {
                self.storage.snapshot()
            }

            fn restore(&mut self, snapshot: &crate::NetworkSnapshot) {
                self.storage.restore(snapshot);
            }

            fn find_structural(
                &self,
                kind: crate::GateKind,
                fanins: &[crate::Signal],
            ) -> Option<crate::NodeId> {
                self.storage.find_gate(kind, fanins)
            }

            fn set_change_tracking(&mut self, enabled: bool) {
                self.storage.set_change_tracking(enabled);
            }

            fn is_change_tracking(&self) -> bool {
                self.storage.is_change_tracking()
            }

            fn drain_changes(&mut self, into: &mut crate::ChangeLog) {
                self.storage.drain_changes(into);
            }

            fn requeue_changes(&mut self, log: &mut crate::ChangeLog) {
                self.storage.requeue_changes(log);
            }

            fn enable_choices(&mut self) {
                self.storage.enable_choices();
            }

            fn has_choices(&self) -> bool {
                self.storage.has_choices()
            }

            fn clear_choices(&mut self) {
                self.storage.clear_choices();
            }

            #[inline]
            fn choice_repr(&self, node: crate::NodeId) -> crate::NodeId {
                self.storage.choice_repr(node)
            }

            #[inline]
            fn choice_phase(&self, node: crate::NodeId) -> bool {
                self.storage.choice_phase(node)
            }

            #[inline]
            fn next_choice(&self, node: crate::NodeId) -> Option<crate::NodeId> {
                self.storage.next_choice(node)
            }

            fn num_choice_nodes(&self) -> usize {
                self.storage.num_choice_nodes()
            }

            fn register_choice(&mut self, node: crate::NodeId, repr: crate::Signal) -> bool {
                self.storage.register_choice(node, repr)
            }

            fn ensure_derived_state(&mut self) {
                self.storage.ensure_derived();
            }

            fn has_derived_state(&self) -> bool {
                self.storage.has_derived()
            }
        }

        impl Default for $ty {
            fn default() -> Self {
                <Self as crate::Network>::new()
            }
        }
    };
}

pub(crate) use impl_network_common;
