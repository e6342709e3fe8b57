//! Word-parallel whole-network simulation: the signature substrate of
//! SAT sweeping.
//!
//! A [`WordSimulator`] evaluates every node of a network on a set of
//! 64-bit pattern words (64 input assignments per word, any number of
//! words).  Node *signatures* — the concatenation of a node's value words
//! — partition the network into candidate equivalence classes: two nodes
//! with different signatures are certainly inequivalent, two nodes with
//! equal signatures are candidates for SAT proving.  Signatures are
//! compared *polarity-normalised* ([`WordSimulator::canonical_word`]), so
//! a node and the complement of another land in the same class and
//! antivalent merges come out of the same machinery.
//!
//! The simulator supports the counterexample-refinement loop of sweeping:
//! a SAT counterexample (one input assignment that distinguishes a
//! candidate pair) is appended as a new pattern bit via
//! [`WordSimulator::add_pattern_word`], which re-simulates only the new
//! word and thereby splits every class the pattern distinguishes.
//!
//! Gate evaluation goes through the shared gate-kind dispatch
//! ([`crate::bitops::evaluate_gate`]) — the same code path as exhaustive
//! truth-table simulation and `glsx-core`'s fused cut functions.

use crate::bitops::WideWord;
use crate::{GateKind, Network, NodeId, Signal};

/// Lane width of the wide simulation blocks: 4 × 64 = 256 bits per
/// [`WideWord`] evaluation, matching one AVX2 register.  Every simulation
/// sweep processes its pattern words in chunks of this width (remainder
/// words fall back to the scalar path); each lane computes exactly what
/// the scalar pass computes for that word, so the widening is
/// bit-identical by construction (pinned down by the width-genericity
/// tests in [`crate::bitops`]).
const WIDE_LANES: usize = 4;

/// splitmix64 step (public-domain constants from Vigna's reference
/// implementation); the workspace is offline, so no `rand` dependency.
#[inline]
fn splitmix64(state: &mut u64) -> u64 {
    *state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
    let mut z = *state;
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

/// Word-parallel simulation values for every node of a network.
///
/// Values are stored word-major (`values[word][node]`), so appending a
/// counterexample word is O(nodes) and never restrides existing data.
/// The simulator is sized for the network it was created from; sweeping
/// never creates nodes, so the node space is fixed for its lifetime.
#[derive(Clone, Debug)]
pub struct WordSimulator {
    /// `values[w][node]` = value word `w` of `node`.
    values: Vec<Vec<u64>>,
    /// Number of nodes the simulator was sized for.
    num_nodes: usize,
    /// Reused per-gate fanin buffer.
    fanin_buf: Vec<u64>,
}

impl WordSimulator {
    /// Creates a simulator with `num_words` words of random primary-input
    /// patterns drawn from `seed` and simulates the whole network.
    ///
    /// # Panics
    ///
    /// Panics if `num_words` is zero.
    pub fn random<N: Network>(ntk: &N, num_words: usize, seed: u64) -> Self {
        assert!(num_words > 0, "at least one pattern word is required");
        let mut sim = Self {
            values: vec![vec![0u64; ntk.size()]; num_words],
            num_nodes: ntk.size(),
            fanin_buf: Vec::new(),
        };
        let mut state = seed;
        for w in 0..num_words {
            for pi in ntk.pi_nodes() {
                sim.values[w][pi as usize] = splitmix64(&mut state);
            }
        }
        sim.resimulate(ntk);
        sim
    }

    /// Creates a simulator from explicit primary-input pattern words
    /// (`patterns[w][i]` is word `w` of the `i`-th primary input) and
    /// simulates the whole network.  This is the recycling constructor:
    /// a [`sweep engine`](crate::wordsim) consumer can carry the pattern
    /// words — initial random patterns *plus* every accumulated
    /// counterexample — across repeated sweeps of a flow, so later sweeps
    /// start from already-refined candidate classes instead of
    /// rediscovering the counterexamples from scratch.
    ///
    /// # Panics
    ///
    /// Panics if `patterns` is empty or any word does not provide exactly
    /// one value per primary input.
    pub fn from_pi_patterns<N: Network>(ntk: &N, patterns: &[Vec<u64>]) -> Self {
        assert!(
            !patterns.is_empty(),
            "at least one pattern word is required"
        );
        let mut sim = Self {
            values: vec![vec![0u64; ntk.size()]; patterns.len()],
            num_nodes: ntk.size(),
            fanin_buf: Vec::new(),
        };
        let pis = ntk.pi_nodes();
        for (w, word) in patterns.iter().enumerate() {
            assert_eq!(word.len(), pis.len(), "one value per primary input");
            for (i, pi) in pis.iter().enumerate() {
                sim.values[w][*pi as usize] = word[i];
            }
        }
        sim.resimulate(ntk);
        sim
    }

    /// Extracts the primary-input pattern words (the inverse of
    /// [`WordSimulator::from_pi_patterns`]): `result[w][i]` is word `w` of
    /// the `i`-th primary input.
    pub fn pi_patterns<N: Network>(&self, ntk: &N) -> Vec<Vec<u64>> {
        let pis = ntk.pi_nodes();
        (0..self.num_words())
            .map(|w| pis.iter().map(|&pi| self.word(w, pi)).collect())
            .collect()
    }

    /// Number of pattern words per node.
    #[inline]
    pub fn num_words(&self) -> usize {
        self.values.len()
    }

    /// Raw value word `w` of `node`.
    #[inline]
    pub fn word(&self, w: usize, node: NodeId) -> u64 {
        self.values[w][node as usize]
    }

    /// Value word `w` of a signal (edge complement applied).
    #[inline]
    pub fn signal_word(&self, w: usize, signal: Signal) -> u64 {
        let v = self.word(w, signal.node());
        if signal.is_complemented() {
            !v
        } else {
            v
        }
    }

    /// The normalisation phase of `node`: the value of the very first
    /// simulated pattern.  Nodes are compared with this bit normalised to
    /// zero, so equivalent and antivalent candidates share a class.
    #[inline]
    pub fn phase(&self, node: NodeId) -> bool {
        self.values[0][node as usize] & 1 == 1
    }

    /// Polarity-normalised value word `w` of `node` (complemented iff the
    /// node's [`phase`](Self::phase) is set).
    #[inline]
    pub fn canonical_word(&self, w: usize, node: NodeId) -> u64 {
        let v = self.word(w, node);
        if self.phase(node) {
            !v
        } else {
            v
        }
    }

    /// Re-simulates every gate from the current primary-input pattern
    /// words (used after the pattern set changed).  Dead nodes keep stale
    /// values; callers only read live nodes.
    ///
    /// Pattern words are processed in 256-bit blocks of four words per
    /// gate evaluation; remainder words take the scalar path.
    pub fn resimulate<N: Network>(&mut self, ntk: &N) {
        assert!(
            ntk.size() <= self.num_nodes,
            "network grew under the simulator"
        );
        let gates = ntk.gate_nodes();
        let num_words = self.values.len();
        let full = (num_words / WIDE_LANES) * WIDE_LANES;
        for w0 in (0..full).step_by(WIDE_LANES) {
            self.simulate_word_chunk::<WIDE_LANES>(ntk, &gates, w0);
        }
        for w in full..num_words {
            self.simulate_word(ntk, &gates, w);
        }
    }

    /// Re-simulates every gate one pattern word at a time, never
    /// entering the 256-bit block path.
    ///
    /// This is the scalar twin the `parallel` bench measures
    /// [`resimulate`](Self::resimulate) against: by the
    /// [`SimBlock`](crate::bitops::SimBlock) lane contract every word it
    /// produces is bit-identical to the corresponding lane of the wide
    /// sweep, so the two paths differ only in evaluations per gate visit.
    pub fn resimulate_scalar<N: Network>(&mut self, ntk: &N) {
        assert!(
            ntk.size() <= self.num_nodes,
            "network grew under the simulator"
        );
        let gates = ntk.gate_nodes();
        for w in 0..self.values.len() {
            self.simulate_word(ntk, &gates, w);
        }
    }

    /// Appends one pattern word (`patterns[i]` is the new word of the
    /// `i`-th primary input) and simulates it.
    ///
    /// This is the counterexample-refinement hook: pack up to 64 SAT
    /// counterexamples into one word per input and every signature gains
    /// 64 distinguishing bits at the cost of a single simulation sweep.
    pub fn add_pattern_word<N: Network>(&mut self, ntk: &N, patterns: &[u64]) {
        assert_eq!(
            patterns.len(),
            ntk.num_pis(),
            "one pattern word per primary input"
        );
        assert!(
            ntk.size() <= self.num_nodes,
            "network grew under the simulator"
        );
        let mut row = vec![0u64; self.num_nodes];
        for (i, pi) in ntk.pi_nodes().iter().enumerate() {
            row[*pi as usize] = patterns[i];
        }
        self.values.push(row);
        let gates = ntk.gate_nodes();
        let w = self.values.len() - 1;
        self.simulate_word(ntk, &gates, w);
    }

    /// Simulates the `W` words starting at `w0` for every gate in `gates`
    /// (topological order) through one [`WideWord`] evaluation per gate.
    /// Lane `i` of each block is exactly the scalar value of word
    /// `w0 + i`, so the chunked sweep is bit-identical to `W` independent
    /// [`simulate_word`](Self::simulate_word) passes.
    fn simulate_word_chunk<const W: usize>(
        &mut self,
        ntk: &impl Network,
        gates: &[NodeId],
        w0: usize,
    ) {
        let mut fanin_buf: Vec<WideWord<W>> = Vec::new();
        for &node in gates {
            fanin_buf.clear();
            ntk.foreach_fanin(node, |f| {
                let mut lanes = [0u64; W];
                for (i, lane) in lanes.iter_mut().enumerate() {
                    *lane = self.signal_word(w0 + i, f);
                }
                fanin_buf.push(WideWord::from_lanes(lanes));
            });
            let value = match ntk.gate_kind(node) {
                GateKind::Constant | GateKind::Input => WideWord([0; W]),
                kind => crate::bitops::evaluate_gate(kind, || ntk.node_function(node), &fanin_buf),
            };
            for (i, &lane) in value.lanes().iter().enumerate() {
                self.values[w0 + i][node as usize] = lane;
            }
        }
    }

    /// Simulates word `w` for every gate in `gates` (topological order).
    fn simulate_word<N: Network>(&mut self, ntk: &N, gates: &[NodeId], w: usize) {
        let mut fanin_buf = std::mem::take(&mut self.fanin_buf);
        for &node in gates {
            fanin_buf.clear();
            ntk.foreach_fanin(node, |f| fanin_buf.push(self.signal_word(w, f)));
            self.values[w][node as usize] = match ntk.gate_kind(node) {
                GateKind::Constant | GateKind::Input => 0,
                kind => crate::bitops::evaluate_gate(kind, || ntk.node_function(node), &fanin_buf),
            };
        }
        self.fanin_buf = fanin_buf;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simulation::simulate_patterns;
    use crate::{Aig, GateBuilder, Mig, Network};

    fn full_adder<N: Network + GateBuilder>() -> N {
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
    fn matches_pattern_simulation_per_word() {
        let aig: Aig = full_adder();
        let sim = WordSimulator::random(&aig, 3, 0xfeed);
        for w in 0..3 {
            let patterns: Vec<u64> = aig.pi_nodes().iter().map(|&p| sim.word(w, p)).collect();
            let outputs = simulate_patterns(&aig, &patterns);
            for (i, po) in aig.po_signals().iter().enumerate() {
                assert_eq!(outputs[i], sim.signal_word(w, *po), "word {w}, output {i}");
            }
        }
    }

    /// Nine words force the wide path (two full 256-bit chunks plus one
    /// scalar remainder word); every word must still match the
    /// independent per-pattern simulation engine exactly.
    #[test]
    fn wide_chunked_sweep_matches_pattern_simulation() {
        let aig: Aig = full_adder();
        let num_words = 2 * WIDE_LANES + 1;
        let sim = WordSimulator::random(&aig, num_words, 0x71de);
        for w in 0..num_words {
            let patterns: Vec<u64> = aig.pi_nodes().iter().map(|&p| sim.word(w, p)).collect();
            let outputs = simulate_patterns(&aig, &patterns);
            for (i, po) in aig.po_signals().iter().enumerate() {
                assert_eq!(outputs[i], sim.signal_word(w, *po), "word {w}, output {i}");
            }
        }
    }

    #[test]
    fn representations_share_signatures() {
        let aig: Aig = full_adder();
        let mig: Mig = full_adder();
        let sa = WordSimulator::random(&aig, 2, 7);
        let sm = WordSimulator::random(&mig, 2, 7);
        for w in 0..2 {
            for (pa, pm) in aig.po_signals().iter().zip(mig.po_signals()) {
                assert_eq!(sa.signal_word(w, *pa), sm.signal_word(w, pm));
            }
        }
    }

    #[test]
    fn canonical_words_identify_antivalent_nodes() {
        let mut aig = Aig::new();
        let a = aig.create_pi();
        let b = aig.create_pi();
        let g = aig.create_and(a, b);
        aig.create_po(g);
        let sim = WordSimulator::random(&aig, 2, 99);
        // a node is phase-normalised against itself: canonical words of a
        // node and of "its complement" (same node, phase flipped) agree
        let n = g.node();
        let canonical: Vec<u64> = (0..2).map(|w| sim.canonical_word(w, n)).collect();
        let complement_phase = !sim.phase(n);
        let complemented: Vec<u64> = (0..2)
            .map(|w| {
                let v = !sim.word(w, n);
                if complement_phase {
                    !v
                } else {
                    v
                }
            })
            .collect();
        assert_eq!(canonical, complemented);
    }

    #[test]
    fn counterexample_words_extend_signatures() {
        let mut aig = Aig::new();
        let a = aig.create_pi();
        let b = aig.create_pi();
        let g = aig.create_and(a, b);
        aig.create_po(g);
        let mut sim = WordSimulator::random(&aig, 1, 3);
        assert_eq!(sim.num_words(), 1);
        // the pattern a=1, b=1 in bit 0 of the new word
        sim.add_pattern_word(&aig, &[1, 1]);
        assert_eq!(sim.num_words(), 2);
        assert_eq!(sim.word(1, g.node()) & 1, 1);
        // and a=1, b=0 leaves the AND at zero
        sim.add_pattern_word(&aig, &[1, 0]);
        assert_eq!(sim.word(2, g.node()) & 1, 0);
    }
}
