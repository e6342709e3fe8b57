//! Bit-parallel simulation and simulation-based equivalence checking.
//!
//! Peephole optimisation relies on fast truth-table computation of small
//! windows; whole-network simulation is used to validate optimisations
//! (exhaustively for small input counts, with random patterns otherwise).

use crate::{GateKind, Network, NodeId, Signal};
use glsx_truth::TruthTable;

/// Maximum number of primary inputs for which exhaustive simulation is
/// attempted (2^16 = 65536 bits per node).
pub const MAX_EXHAUSTIVE_PIS: usize = 16;

/// Computes the truth table of every node of `ntk` over its primary
/// inputs.
///
/// Returns a vector indexed by node id; entries of dead nodes are constant
/// zero.
///
/// # Panics
///
/// Panics if the network has more than [`MAX_EXHAUSTIVE_PIS`] primary
/// inputs.
pub fn simulate_nodes<N: Network>(ntk: &N) -> Vec<TruthTable> {
    let num_pis = ntk.num_pis();
    assert!(
        num_pis <= MAX_EXHAUSTIVE_PIS,
        "exhaustive simulation supports at most {MAX_EXHAUSTIVE_PIS} inputs"
    );
    let mut tts = vec![TruthTable::zero(num_pis); ntk.size()];
    for (i, pi) in ntk.pi_nodes().iter().enumerate() {
        tts[*pi as usize] = TruthTable::nth_var(num_pis, i);
    }
    for node in ntk.gate_nodes() {
        tts[node as usize] = evaluate_node(ntk, node, &tts);
    }
    tts
}

/// Computes the truth table of each primary output of `ntk`.
///
/// # Panics
///
/// Panics if the network has more than [`MAX_EXHAUSTIVE_PIS`] primary
/// inputs.
pub fn simulate<N: Network>(ntk: &N) -> Vec<TruthTable> {
    let num_pis = ntk.num_pis();
    assert!(
        num_pis <= MAX_EXHAUSTIVE_PIS,
        "exhaustive simulation supports at most {MAX_EXHAUSTIVE_PIS} inputs"
    );
    // A gate's table is released once its last reader has been evaluated.
    // A table takes 8 KB at 16 inputs, so keeping one per node, as
    // `simulate_nodes` must, costs 8 KB per gate; only the tables between
    // evaluated and pending logic are live here.
    let gates = ntk.gate_nodes();
    let mut readers = vec![0u32; ntk.size()];
    for &node in &gates {
        ntk.foreach_fanin(node, |f| readers[f.node() as usize] += 1);
    }
    for po in ntk.po_signals() {
        readers[po.node() as usize] += 1;
    }
    let released = TruthTable::zero(0);
    let mut tts: Vec<TruthTable> = (0..ntk.size() as NodeId)
        .map(|node| {
            if ntk.is_constant(node) {
                TruthTable::zero(num_pis)
            } else {
                released.clone()
            }
        })
        .collect();
    for (i, pi) in ntk.pi_nodes().iter().enumerate() {
        tts[*pi as usize] = TruthTable::nth_var(num_pis, i);
    }
    for node in gates {
        let tt = evaluate_node(ntk, node, &tts);
        if readers[node as usize] > 0 {
            tts[node as usize] = tt;
        }
        ntk.foreach_fanin(node, |f| {
            let fanin = f.node() as usize;
            readers[fanin] -= 1;
            if readers[fanin] == 0 && ntk.is_gate(f.node()) {
                tts[fanin] = released.clone();
            }
        });
    }
    ntk.po_signals()
        .iter()
        .map(|s| resolve_signal(s, &tts))
        .collect()
}

fn resolve_signal(signal: &Signal, tts: &[TruthTable]) -> TruthTable {
    let tt = &tts[signal.node() as usize];
    if signal.is_complemented() {
        !tt
    } else {
        tt.clone()
    }
}

/// Evaluates the local function of `node` given truth tables for all of its
/// fanins (indexed by node id).
pub fn evaluate_node<N: Network>(ntk: &N, node: NodeId, tts: &[TruthTable]) -> TruthTable {
    let fanin_tts: Vec<TruthTable> = ntk
        .fanins_inline(node)
        .iter()
        .map(|f| resolve_signal(f, tts))
        .collect();
    evaluate_function(&ntk.node_function(node), ntk.gate_kind(node), &fanin_tts)
}

/// Evaluates a gate function over already-computed fanin truth tables.
///
/// Thin wrapper over the shared gate-kind dispatch
/// ([`crate::bitops::evaluate_gate`]); fast paths exist for the
/// fixed-function gate kinds and LUT functions are expanded minterm by
/// minterm.
pub fn evaluate_function(
    function: &TruthTable,
    kind: GateKind,
    fanin_tts: &[TruthTable],
) -> TruthTable {
    crate::bitops::evaluate_gate(kind, || function.clone(), fanin_tts)
}

/// Simulates the network under explicit 64-bit input patterns: `patterns`
/// holds one word per primary input, and the result holds one word per
/// primary output (bit `i` of each word corresponds to pattern `i`).
pub fn simulate_patterns<N: Network>(ntk: &N, patterns: &[u64]) -> Vec<u64> {
    assert_eq!(
        patterns.len(),
        ntk.num_pis(),
        "one pattern word per primary input"
    );
    let mut values = vec![0u64; ntk.size()];
    for (i, pi) in ntk.pi_nodes().iter().enumerate() {
        values[*pi as usize] = patterns[i];
    }
    // reused across gates so the inner loop stays allocation-free
    let mut inputs: Vec<u64> = Vec::new();
    for node in ntk.gate_nodes() {
        inputs.clear();
        ntk.foreach_fanin(node, |f| {
            let v = values[f.node() as usize];
            inputs.push(if f.is_complemented() { !v } else { v });
        });
        values[node as usize] = match ntk.gate_kind(node) {
            GateKind::Constant | GateKind::Input => 0,
            kind => crate::bitops::evaluate_gate(kind, || ntk.node_function(node), &inputs),
        };
    }
    ntk.po_signals()
        .iter()
        .map(|s| {
            let v = values[s.node() as usize];
            if s.is_complemented() {
                !v
            } else {
                v
            }
        })
        .collect()
}

/// Checks combinational equivalence of two networks by exhaustive
/// simulation.
///
/// Both networks must have the same number of primary inputs and outputs;
/// outputs are compared position by position.
///
/// # Panics
///
/// Panics if the networks have more than [`MAX_EXHAUSTIVE_PIS`] inputs or
/// mismatching interface sizes.
pub fn equivalent_by_simulation<A: Network, B: Network>(a: &A, b: &B) -> bool {
    assert_eq!(
        a.num_pis(),
        b.num_pis(),
        "networks must have the same inputs"
    );
    assert_eq!(
        a.num_pos(),
        b.num_pos(),
        "networks must have the same outputs"
    );
    simulate(a) == simulate(b)
}

/// Checks a necessary condition for equivalence using `rounds` rounds of
/// 64 random input patterns each (a cheap smoke test for large networks;
/// it can prove inequivalence but not equivalence).
pub fn equivalent_by_random_simulation<A: Network, B: Network>(
    a: &A,
    b: &B,
    rounds: usize,
    seed: u64,
) -> bool {
    assert_eq!(a.num_pis(), b.num_pis());
    assert_eq!(a.num_pos(), b.num_pos());
    let mut state = seed | 1;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        state
    };
    for _ in 0..rounds {
        let patterns: Vec<u64> = (0..a.num_pis()).map(|_| next()).collect();
        if simulate_patterns(a, &patterns) != simulate_patterns(b, &patterns) {
            return false;
        }
    }
    true
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Aig, GateBuilder, Klut, Mig, Network, Xag, Xmg};

    fn full_adder_tts() -> (TruthTable, TruthTable) {
        let a = TruthTable::nth_var(3, 0);
        let b = TruthTable::nth_var(3, 1);
        let c = TruthTable::nth_var(3, 2);
        let sum = &(&a ^ &b) ^ &c;
        let carry = TruthTable::maj(&a, &b, &c);
        (sum, carry)
    }

    fn build_full_adder<N: Network + GateBuilder>() -> N {
        let mut ntk = N::new();
        let a = ntk.create_pi();
        let b = ntk.create_pi();
        let c = ntk.create_pi();
        let ab = ntk.create_xor(a, b);
        let sum = ntk.create_xor(ab, c);
        let carry = ntk.create_maj(a, b, c);
        ntk.create_po(sum);
        ntk.create_po(carry);
        ntk
    }

    #[test]
    fn full_adder_simulates_identically_in_all_representations() {
        let (sum, carry) = full_adder_tts();
        let aig: Aig = build_full_adder();
        let xag: Xag = build_full_adder();
        let mig: Mig = build_full_adder();
        let xmg: Xmg = build_full_adder();
        for tts in [
            simulate(&aig),
            simulate(&xag),
            simulate(&mig),
            simulate(&xmg),
        ] {
            assert_eq!(tts[0], sum);
            assert_eq!(tts[1], carry);
        }
        assert!(equivalent_by_simulation(&aig, &mig));
        assert!(equivalent_by_simulation(&xag, &xmg));
        assert!(equivalent_by_random_simulation(&aig, &xmg, 4, 42));
    }

    /// `simulate` releases gate tables after their last reader; its
    /// outputs must still match the per-node tables, including outputs on
    /// inputs, constants and shared gates that later gates also read.
    #[test]
    fn output_tables_match_per_node_tables() {
        let mut aig = Aig::new();
        let pis: Vec<Signal> = (0..5).map(|_| aig.create_pi()).collect();
        let mut signals = pis.clone();
        let mut state = 0x51u64;
        for _ in 0..40 {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            let a = signals[(state >> 33) as usize % signals.len()];
            let b = signals[(state >> 17) as usize % signals.len()];
            signals.push(aig.create_and(a.complement_if(state & 1 == 1), b));
        }
        aig.create_po(!signals[20]);
        aig.create_po(pis[3]);
        aig.create_po(aig.get_constant(true));
        aig.create_po(*signals.last().unwrap());
        let nodes = simulate_nodes(&aig);
        let expected: Vec<TruthTable> = aig
            .po_signals()
            .iter()
            .map(|s| resolve_signal(s, &nodes))
            .collect();
        assert_eq!(simulate(&aig), expected);
    }

    #[test]
    fn klut_simulation_matches_function() {
        let mut klut = Klut::new();
        let a = klut.create_pi();
        let b = klut.create_pi();
        let c = klut.create_pi();
        let maj = TruthTable::from_hex(3, "e8").unwrap();
        let g = klut.create_lut(&[a, b, c], maj.clone());
        klut.create_po(g);
        let tts = simulate(&klut);
        assert_eq!(tts[0], maj);
    }

    #[test]
    fn complemented_outputs_are_respected() {
        let mut aig = Aig::new();
        let a = aig.create_pi();
        let b = aig.create_pi();
        let g = aig.create_and(a, b);
        aig.create_po(!g);
        let tts = simulate(&aig);
        assert_eq!(
            tts[0],
            !(TruthTable::nth_var(2, 0) & TruthTable::nth_var(2, 1))
        );
    }

    #[test]
    fn pattern_simulation_agrees_with_exhaustive() {
        let aig: Aig = build_full_adder();
        // enumerate all 8 input combinations in one 64-bit pattern word
        let mut patterns = vec![0u64; 3];
        for m in 0..8u64 {
            for (i, pattern) in patterns.iter_mut().enumerate() {
                if (m >> i) & 1 == 1 {
                    *pattern |= 1 << m;
                }
            }
        }
        let outputs = simulate_patterns(&aig, &patterns);
        let tts = simulate(&aig);
        for m in 0..8 {
            assert_eq!((outputs[0] >> m) & 1 == 1, tts[0].bit(m));
            assert_eq!((outputs[1] >> m) & 1 == 1, tts[1].bit(m));
        }
    }

    #[test]
    fn random_simulation_detects_inequivalence() {
        let mut a = Aig::new();
        let x = a.create_pi();
        let y = a.create_pi();
        let g = a.create_and(x, y);
        a.create_po(g);
        let mut b = Aig::new();
        let x = b.create_pi();
        let y = b.create_pi();
        let g = b.create_or(x, y);
        b.create_po(g);
        assert!(!equivalent_by_random_simulation(&a, &b, 2, 7));
        assert!(!equivalent_by_simulation(&a, &b));
    }
}
