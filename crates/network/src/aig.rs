//! And-inverter graphs (AIGs).

use crate::common::impl_network_common;
use crate::storage::Storage;
use crate::{GateBuilder, GateKind, Network, Signal};
use std::collections::TryReserveError;

/// An And-inverter graph: a homogeneous network of two-input AND gates with
/// complemented edges.
///
/// AIGs are the most widely used technology-independent representation in
/// logic synthesis.  Gate creation applies the usual structural hashing and
/// local simplification rules (constant propagation, idempotence,
/// complementation).
///
/// # Example
///
/// ```
/// use glsx_network::{Aig, GateBuilder, Network};
///
/// let mut aig = Aig::new();
/// let a = aig.create_pi();
/// let b = aig.create_pi();
/// let f = aig.create_and(a, b);
/// aig.create_po(f);
/// assert_eq!(aig.num_gates(), 1);
/// // structural hashing: the same gate is not created twice
/// assert_eq!(aig.create_and(b, a), f);
/// assert_eq!(aig.num_gates(), 1);
/// ```
#[derive(Clone, Debug)]
pub struct Aig {
    pub(crate) storage: Storage,
}

impl_network_common!(Aig, "AIG");

impl Aig {
    /// Creates an empty AIG (alias of [`Network::new`]).
    pub fn empty() -> Self {
        <Self as Network>::new()
    }

    /// Reserves room for `additional` primary inputs up front, so a
    /// reader that must create an untrusted number of them (binary
    /// AIGER's inputs are implicit) gets the allocator's refusal as an
    /// error instead of a process abort.
    ///
    /// # Errors
    ///
    /// Returns the allocator's error when the room cannot be reserved.
    pub fn try_reserve_pis(&mut self, additional: usize) -> Result<(), TryReserveError> {
        self.storage.try_reserve_pis(additional)
    }
}

impl GateBuilder for Aig {
    fn create_and(&mut self, a: Signal, b: Signal) -> Signal {
        let const0 = self.get_constant(false);
        let const1 = self.get_constant(true);
        // local simplification rules
        if a == const0 || b == const0 || a == !b {
            return const0;
        }
        if a == const1 {
            return b;
        }
        if b == const1 {
            return a;
        }
        if a == b {
            return a;
        }
        let (a, b) = if a <= b { (a, b) } else { (b, a) };
        let node = self.storage.find_or_create_gate(GateKind::And, &[a, b]);
        Signal::new(node, false)
    }

    fn create_xor(&mut self, a: Signal, b: Signal) -> Signal {
        // a ^ b = !( !(a & !b) & !(!a & b) )
        let t0 = self.create_and(a, !b);
        let t1 = self.create_and(!a, b);
        !self.create_and(!t0, !t1)
    }

    fn create_maj(&mut self, a: Signal, b: Signal, c: Signal) -> Signal {
        // maj(a, b, c) = (a & b) | (c & (a | b))
        let ab = self.create_and(a, b);
        let aob = self.create_or(a, b);
        let t = self.create_and(c, aob);
        self.create_or(ab, t)
    }

    fn create_gate(&mut self, kind: GateKind, fanins: &[Signal]) -> Signal {
        match kind {
            GateKind::And => {
                assert_eq!(fanins.len(), 2, "AND gates have two fanins");
                self.create_and(fanins[0], fanins[1])
            }
            GateKind::Xor => {
                assert_eq!(fanins.len(), 2, "XOR gates have two fanins");
                self.create_xor(fanins[0], fanins[1])
            }
            GateKind::Maj => {
                assert_eq!(fanins.len(), 3, "MAJ gates have three fanins");
                self.create_maj(fanins[0], fanins[1], fanins[2])
            }
            GateKind::Xor3 => {
                assert_eq!(fanins.len(), 3, "XOR3 gates have three fanins");
                let t = self.create_xor(fanins[0], fanins[1]);
                self.create_xor(t, fanins[2])
            }
            other => panic!("AIG cannot create gates of kind {other}"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Network;

    #[test]
    fn and_simplification_rules() {
        let mut aig = Aig::new();
        let a = aig.create_pi();
        let b = aig.create_pi();
        let zero = aig.get_constant(false);
        let one = aig.get_constant(true);
        assert_eq!(aig.create_and(a, zero), zero);
        assert_eq!(aig.create_and(zero, b), zero);
        assert_eq!(aig.create_and(a, one), a);
        assert_eq!(aig.create_and(one, b), b);
        assert_eq!(aig.create_and(a, a), a);
        assert_eq!(aig.create_and(a, !a), zero);
        assert_eq!(aig.num_gates(), 0);
    }

    #[test]
    fn structural_hashing_and_counts() {
        let mut aig = Aig::new();
        let a = aig.create_pi();
        let b = aig.create_pi();
        let c = aig.create_pi();
        let g1 = aig.create_and(a, b);
        let g2 = aig.create_and(b, a);
        assert_eq!(g1, g2);
        let g3 = aig.create_and(!a, b);
        assert_ne!(g1, g3);
        let top = aig.create_and(g1, c);
        aig.create_po(top);
        assert_eq!(aig.num_pis(), 3);
        assert_eq!(aig.num_pos(), 1);
        assert_eq!(aig.num_gates(), 3);
        assert_eq!(aig.size(), 1 + 3 + 3);
        assert_eq!(aig.fanout_size(g1.node()), 1);
        assert_eq!(aig.fanout_size(top.node()), 1);
    }

    #[test]
    fn xor_and_maj_decompositions() {
        let mut aig = Aig::new();
        let a = aig.create_pi();
        let b = aig.create_pi();
        let c = aig.create_pi();
        let xor = aig.create_xor(a, b);
        assert_eq!(aig.num_gates(), 3);
        let maj = aig.create_maj(a, b, c);
        aig.create_po(xor);
        aig.create_po(maj);
        assert!(aig.num_gates() >= 6);
    }

    #[test]
    fn gate_kind_and_function() {
        let mut aig = Aig::new();
        let a = aig.create_pi();
        let b = aig.create_pi();
        let g = aig.create_and(a, b);
        assert_eq!(aig.gate_kind(g.node()), GateKind::And);
        assert_eq!(aig.node_function(g.node()).to_hex(), "8");
        assert_eq!(aig.fanins(g.node()), vec![a, b]);
        assert!(aig.is_gate(g.node()));
        assert!(aig.is_pi(a.node()));
        assert!(aig.is_constant(0));
    }

    #[test]
    fn substitution_updates_outputs() {
        let mut aig = Aig::new();
        let a = aig.create_pi();
        let b = aig.create_pi();
        let c = aig.create_pi();
        let g1 = aig.create_and(a, b);
        let g2 = aig.create_and(g1, c);
        aig.create_po(g2);
        // replace g1 with just `a` (pretend an optimisation proved it)
        aig.substitute_node(g1.node(), a);
        assert!(aig.is_dead(g1.node()));
        assert_eq!(aig.num_gates(), 1);
        let mut fanins = aig.fanins(g2.node());
        fanins.sort_unstable();
        assert_eq!(fanins, vec![a, c]);
    }

    #[test]
    fn foreach_helpers_iterate_in_topological_order() {
        let mut aig = Aig::new();
        let a = aig.create_pi();
        let b = aig.create_pi();
        let g1 = aig.create_and(a, b);
        let g2 = aig.create_and(g1, a);
        aig.create_po(g2);
        let mut seen = Vec::new();
        aig.foreach_gate(|n| seen.push(n));
        assert_eq!(seen, vec![g1.node(), g2.node()]);
        let mut pis = 0;
        aig.foreach_pi(|_| pis += 1);
        assert_eq!(pis, 2);
        let mut pos = Vec::new();
        aig.foreach_po(|s| pos.push(s));
        assert_eq!(pos, vec![g2]);
    }

    #[test]
    fn nary_helpers() {
        let mut aig = Aig::new();
        let xs: Vec<Signal> = (0..8).map(|_| aig.create_pi()).collect();
        let and_all = aig.create_nary_and(&xs);
        aig.create_po(and_all);
        assert_eq!(aig.num_gates(), 7);
        let or_all = aig.create_nary_or(&xs);
        aig.create_po(or_all);
        assert_eq!(aig.num_gates(), 14);
        assert_eq!(aig.create_nary_and(&[]), aig.get_constant(true));
        assert_eq!(aig.create_nary_or(&[]), aig.get_constant(false));
        assert_eq!(aig.create_nary_and(&xs[..1]), xs[0]);
    }
}
