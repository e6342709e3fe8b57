//! Property-based tests on the core data structures and the key
//! invariants of the optimisation algorithms: every transformation must
//! preserve the Boolean function of the network and maintain structural
//! integrity, for arbitrary randomly generated networks.
//!
//! The harness is a small seeded-PRNG property loop instead of `proptest`
//! (the build environment is fully offline), which keeps every run
//! deterministic and reproducible from the seed printed on failure.

use glsx::algorithms::balancing::{balance, BalanceParams};
use glsx::algorithms::cuts::{simulate_cut, Cut, CutFunction, CutManager, CutParams};
use glsx::algorithms::lut_mapping::{lut_map, lut_map_stats, LutMapParams};
use glsx::algorithms::refactoring::{refactor, RefactorParams};
use glsx::algorithms::resubstitution::{resubstitute, ResubNetwork, ResubParams};
use glsx::algorithms::rewriting::{rewrite, RewriteParams};
use glsx::algorithms::sweeping::{
    check_equivalence, sweep, CecStats, EquivalenceResult, SweepParams,
};
use glsx::algorithms::Replacer;
use glsx::benchmarks::SplitMix64 as Rng;
use glsx::flow::{compress2rs, FlowOptions};
use glsx::network::simulation::{equivalent_by_simulation, simulate, simulate_patterns};
use glsx::network::views::{check_network_integrity, DepthView};
use glsx::network::{Aig, ChangeLog, GateBuilder, Mig, Network, NodeId, Signal, Xag};
use glsx::truth::{isop, npn_canonize, TruthTable};

/// Generates a random AIG over `num_pis` inputs with `num_steps` AND steps.
fn arbitrary_network(rng: &mut Rng, num_pis: usize, num_steps: usize) -> Aig {
    let mut aig = Aig::new();
    let mut signals: Vec<Signal> = (0..num_pis).map(|_| aig.create_pi()).collect();
    for _ in 0..num_steps {
        let x = signals[rng.gen_range(signals.len())].complement_if(rng.gen_bool());
        let y = signals[rng.gen_range(signals.len())].complement_if(rng.gen_bool());
        signals.push(aig.create_and(x, y));
    }
    for s in signals.iter().rev().take(3) {
        aig.create_po(*s);
    }
    aig
}

/// Generates a random XAG over `num_pis` inputs mixing AND and XOR steps.
fn arbitrary_xag(rng: &mut Rng, num_pis: usize, num_steps: usize) -> Xag {
    let mut xag = Xag::new();
    let mut signals: Vec<Signal> = (0..num_pis).map(|_| xag.create_pi()).collect();
    for _ in 0..num_steps {
        let x = signals[rng.gen_range(signals.len())].complement_if(rng.gen_bool());
        let y = signals[rng.gen_range(signals.len())].complement_if(rng.gen_bool());
        signals.push(if rng.gen_bool() {
            xag.create_and(x, y)
        } else {
            xag.create_xor(x, y)
        });
    }
    for s in signals.iter().rev().take(3) {
        xag.create_po(*s);
    }
    xag
}

/// Generates a random MIG over `num_pis` inputs with `num_steps` MAJ steps.
fn arbitrary_mig(rng: &mut Rng, num_pis: usize, num_steps: usize) -> Mig {
    let mut mig = Mig::new();
    let mut signals: Vec<Signal> = (0..num_pis).map(|_| mig.create_pi()).collect();
    for _ in 0..num_steps {
        let x = signals[rng.gen_range(signals.len())].complement_if(rng.gen_bool());
        let y = signals[rng.gen_range(signals.len())].complement_if(rng.gen_bool());
        let z = signals[rng.gen_range(signals.len())].complement_if(rng.gen_bool());
        signals.push(mig.create_maj(x, y, z));
    }
    for s in signals.iter().rev().take(3) {
        mig.create_po(*s);
    }
    mig
}

/// Random sorted+deduped leaf set of at most `max_len` node ids below
/// `universe`.
fn arbitrary_leaves(rng: &mut Rng, universe: u32, max_len: usize) -> Vec<NodeId> {
    let len = 1 + rng.gen_range(max_len);
    let mut leaves: Vec<NodeId> = (0..len)
        .map(|_| 1 + rng.gen_range(universe as usize) as NodeId)
        .collect();
    leaves.sort_unstable();
    leaves.dedup();
    leaves
}

/// Truth-table invariant: an ISOP cover always reproduces its function.
#[test]
fn isop_covers_are_exact() {
    let mut rng = Rng::seed_from_u64(0x1501);
    for _ in 0..64 {
        let tt = TruthTable::from_words(6, vec![rng.next_u64()]);
        assert_eq!(isop(&tt).to_truth_table(), tt);
    }
}

/// NPN canonisation is a class invariant: transforming the function and
/// canonising again yields the same representative.
#[test]
fn npn_canonisation_is_invariant() {
    let mut rng = Rng::seed_from_u64(0x1502);
    for _ in 0..64 {
        let tt = TruthTable::from_bits(4, rng.next_u64() & 0xffff);
        let (canon, transform) = npn_canonize(&tt);
        assert_eq!(transform.apply(&tt), canon.clone());
        // apply an arbitrary extra NPN transformation and re-canonise
        let neg = rng.gen_range(16) as u32;
        let mut member = tt;
        for v in 0..4 {
            if (neg >> v) & 1 == 1 {
                member = member.flip(v);
            }
        }
        if rng.gen_bool() {
            member = !member;
        }
        let (canon2, _) = npn_canonize(&member);
        assert_eq!(canon, canon2);
    }
}

/// All four optimisations preserve the function of random AIGs and keep
/// the network structurally sound.
#[test]
fn optimisations_preserve_functions() {
    let mut rng = Rng::seed_from_u64(0x1503);
    for case in 0..24 {
        let aig = arbitrary_network(&mut rng, 5, 30);
        let reference = aig.clone();

        let mut rewritten = aig.clone();
        rewrite(&mut rewritten, &RewriteParams::default());
        assert!(check_network_integrity(&rewritten).is_ok(), "case {case}");
        assert!(
            equivalent_by_simulation(&reference, &rewritten),
            "case {case}"
        );
        assert!(
            rewritten.num_gates() <= reference.num_gates(),
            "case {case}"
        );

        let mut refactored = aig.clone();
        refactor(&mut refactored, &RefactorParams::default());
        assert!(check_network_integrity(&refactored).is_ok(), "case {case}");
        assert!(
            equivalent_by_simulation(&reference, &refactored),
            "case {case}"
        );
        assert!(
            refactored.num_gates() <= reference.num_gates(),
            "case {case}"
        );

        let mut resubstituted = aig.clone();
        resubstitute(&mut resubstituted, &ResubParams::default());
        assert!(
            check_network_integrity(&resubstituted).is_ok(),
            "case {case}"
        );
        assert!(
            equivalent_by_simulation(&reference, &resubstituted),
            "case {case}"
        );
        assert!(
            resubstituted.num_gates() <= reference.num_gates(),
            "case {case}"
        );

        let mut balanced = aig.clone();
        balance(&mut balanced, &BalanceParams::default());
        assert!(check_network_integrity(&balanced).is_ok(), "case {case}");
        assert!(
            equivalent_by_simulation(&reference, &balanced),
            "case {case}"
        );
        assert!(balanced.num_gates() <= reference.num_gates(), "case {case}");
    }
}

/// Resubstitution's XOR, majority and 2-resub kernels preserve the
/// function of random XAGs and MIGs at `-c 8 -d 2` and `-c 12 -d 2`, keep
/// the network sound and never grow it.
#[test]
fn resubstitution_kernels_preserve_functions_on_xags_and_migs() {
    fn check<N: ResubNetwork + Network + Clone>(ntk: &N, case: u32) -> usize {
        let mut substitutions = 0;
        for max_leaves in [8, 12] {
            let params = ResubParams {
                max_leaves,
                max_inserts: 2,
                ..ResubParams::default()
            };
            let mut resubstituted = ntk.clone();
            substitutions += resubstitute(&mut resubstituted, &params).substitutions;
            let label = format!("case {case}, -c {max_leaves} -d 2");
            assert!(check_network_integrity(&resubstituted).is_ok(), "{label}");
            assert!(equivalent_by_simulation(ntk, &resubstituted), "{label}");
            assert!(resubstituted.num_gates() <= ntk.num_gates(), "{label}");
        }
        substitutions
    }
    let mut rng = Rng::seed_from_u64(0x1518);
    let (mut xag_subs, mut mig_subs) = (0, 0);
    for case in 0..12 {
        xag_subs += check(&arbitrary_xag(&mut rng, 10, 60), case);
        mig_subs += check(&arbitrary_mig(&mut rng, 10, 60), case);
    }
    assert!(xag_subs > 0 && mig_subs > 0, "{xag_subs} / {mig_subs}");
}

/// Rewriting preserves the simulated function on random AIGs — the direct
/// end-to-end invariant of the allocation-free cut substrate.
#[test]
fn rewriting_preserves_simulated_function_on_random_aigs() {
    let mut rng = Rng::seed_from_u64(0x1507);
    for case in 0..16 {
        let mut aig = arbitrary_network(&mut rng, 6, 45);
        let reference = simulate(&aig);
        rewrite(&mut aig, &RewriteParams::default());
        assert_eq!(simulate(&aig), reference, "case {case}");
        rewrite(
            &mut aig,
            &RewriteParams {
                allow_zero_gain: true,
                ..RewriteParams::default()
            },
        );
        assert_eq!(simulate(&aig), reference, "case {case} (zero gain)");
    }
}

/// LUT mapping preserves functions and respects the LUT size.
#[test]
fn lut_mapping_preserves_functions() {
    let mut rng = Rng::seed_from_u64(0x1504);
    for case in 0..16 {
        let aig = arbitrary_network(&mut rng, 6, 40);
        let k = 3 + rng.gen_range(4);
        let klut = lut_map(&aig, &LutMapParams::with_lut_size(k));
        assert!(klut.max_fanin_size() <= k, "case {case}");
        assert!(equivalent_by_simulation(&aig, &klut), "case {case}");
    }
}

/// Structural conversion between representations preserves functions.
#[test]
fn conversion_preserves_functions() {
    let mut rng = Rng::seed_from_u64(0x1505);
    for case in 0..16 {
        let aig = arbitrary_network(&mut rng, 5, 25);
        let mig: Mig = glsx::network::convert_network(&aig);
        let xag: Xag = glsx::network::convert_network(&aig);
        assert_eq!(simulate(&aig), simulate(&mig), "case {case}");
        assert_eq!(simulate(&aig), simulate(&xag), "case {case}");
    }
}

/// The fused-truth-table contract: for every enumerated cut of every gate,
/// in every representation, the truth table composed during enumeration is
/// bit-identical to exhaustive simulation of the cut cone
/// (`computeTruthTable`) over the same leaves.  Random networks are built
/// with heavy reuse of earlier signals, so cut sets are deeply reconvergent
/// (leaves of one cut routinely lie inside the cone of another leaf).
#[test]
fn fused_cut_functions_equal_cone_simulation() {
    fn check<N: Network + GateBuilder>(build: impl Fn(&mut Rng) -> N, rng: &mut Rng, cases: u32) {
        for case in 0..cases {
            let ntk = build(rng);
            for &(cut_size, cut_limit) in &[(4usize, 8usize), (6, 6)] {
                let mut mgr = CutManager::new(CutParams {
                    cut_size,
                    cut_limit,
                    compute_truth: true,
                });
                for node in ntk.gate_nodes() {
                    let cuts = mgr.cuts_of(&ntk, node).to_vec();
                    for (i, cut) in cuts.iter().enumerate() {
                        let fused = mgr.cut_function(node, i).to_truth_table();
                        let simulated = simulate_cut(&ntk, node, cut.leaves());
                        assert_eq!(
                            fused,
                            simulated,
                            "{} case {case}: node {node}, cut {i} ({:?}), k={cut_size}",
                            N::NAME,
                            cut.leaves()
                        );
                    }
                }
            }
        }
    }
    let mut rng = Rng::seed_from_u64(0x1508);
    check(|rng| arbitrary_network(rng, 6, 40), &mut rng, 8);
    check(
        |rng| {
            let mut xag = Xag::new();
            let mut signals: Vec<Signal> = (0..5).map(|_| xag.create_pi()).collect();
            for step in 0..35 {
                let a = signals[rng.gen_range(signals.len())].complement_if(rng.gen_bool());
                let b = signals[rng.gen_range(signals.len())].complement_if(rng.gen_bool());
                signals.push(if step % 3 == 0 {
                    xag.create_xor(a, b)
                } else {
                    xag.create_and(a, b)
                });
            }
            for s in signals.iter().rev().take(3) {
                xag.create_po(*s);
            }
            xag
        },
        &mut rng,
        8,
    );
    check(
        |rng| {
            let mut mig = Mig::new();
            let mut signals: Vec<Signal> = (0..5).map(|_| mig.create_pi()).collect();
            for _ in 0..30 {
                let a = signals[rng.gen_range(signals.len())].complement_if(rng.gen_bool());
                let b = signals[rng.gen_range(signals.len())].complement_if(rng.gen_bool());
                let c = signals[rng.gen_range(signals.len())].complement_if(rng.gen_bool());
                signals.push(mig.create_maj(a, b, c));
            }
            for s in signals.iter().rev().take(2) {
                mig.create_po(*s);
            }
            mig
        },
        &mut rng,
        8,
    );
}

/// Arena compaction is invisible: after invalidation-heavy churn, cut
/// sets, fused functions and enumeration order are identical to a fresh
/// manager's, and the arena stays bounded instead of bump-leaking.
#[test]
fn arena_compaction_preserves_cut_sets_and_determinism() {
    let mut rng = Rng::seed_from_u64(0x1509);
    let aig = arbitrary_network(&mut rng, 6, 60);
    let params = CutParams {
        cut_size: 4,
        cut_limit: 8,
        compute_truth: true,
    };
    let gates = aig.gate_nodes();
    let snapshot = |mgr: &mut CutManager| -> Vec<(Vec<Vec<NodeId>>, Vec<String>)> {
        gates
            .iter()
            .map(|&n| {
                let cuts: Vec<Vec<NodeId>> = mgr
                    .cuts_of(&aig, n)
                    .iter()
                    .map(|c| c.leaves().to_vec())
                    .collect();
                let tts = (0..cuts.len())
                    .map(|i| mgr.cut_function(n, i).to_truth_table().to_hex())
                    .collect();
                (cuts, tts)
            })
            .collect()
    };
    let mut fresh = CutManager::new(params);
    let expected = snapshot(&mut fresh);
    let mut churned = CutManager::new(params);
    let _ = snapshot(&mut churned);
    for round in 0..1000 {
        for &n in &gates {
            churned.invalidate(n);
        }
        assert_eq!(snapshot(&mut churned), expected, "round {round}");
    }
    // ~60 gates × ≥1 cut × 1000 rounds would bump-leak tens of thousands
    // of slots without compaction
    assert!(
        churned.arena_len() < 16_384,
        "arena bump-leaked to {} slots",
        churned.arena_len()
    );
}

/// SAT sweeping preserves the function of arbitrary networks in every
/// representation, never grows them, and its output is *proven* equal to
/// the input by an independent miter (`check_equivalence`) on top of the
/// exhaustive-simulation cross-check.  Random networks with heavy signal
/// reuse carry plenty of natural functional redundancy, so sweeps here
/// routinely merge nodes rather than passing through untouched.
#[test]
fn sweeping_preserves_functions_and_proves_its_merges() {
    fn check<N: Network + GateBuilder + Clone>(
        build: impl Fn(&mut Rng) -> N,
        rng: &mut Rng,
        cases: u32,
    ) -> usize {
        let mut merged_total = 0usize;
        for case in 0..cases {
            let ntk = build(rng);
            let reference = ntk.clone();
            let mut swept = ntk.clone();
            let stats = sweep(&mut swept, &SweepParams::default());
            assert!(
                check_network_integrity(&swept).is_ok(),
                "{} case {case}",
                N::NAME
            );
            assert!(
                swept.num_gates() <= reference.num_gates(),
                "{} case {case}: sweep grew the network",
                N::NAME
            );
            assert_eq!(
                stats.gates_before - stats.gates_after,
                reference.num_gates() - swept.num_gates(),
                "{} case {case}: stats disagree with the network",
                N::NAME
            );
            assert!(
                equivalent_by_simulation(&reference, &swept),
                "{} case {case}: sweep changed the simulated function",
                N::NAME
            );
            assert!(
                check_equivalence(&reference, &swept).is_equivalent(),
                "{} case {case}: miter refutes the sweep",
                N::NAME
            );
            merged_total += stats.proven;
        }
        merged_total
    }
    let mut rng = Rng::seed_from_u64(0x150a);
    let aig_merges = check(|rng| arbitrary_network(rng, 5, 40), &mut rng, 12);
    assert!(aig_merges > 0, "random AIGs should contain real redundancy");
    check(
        |rng| {
            let mut xag = Xag::new();
            let mut signals: Vec<Signal> = (0..5).map(|_| xag.create_pi()).collect();
            for step in 0..35 {
                let a = signals[rng.gen_range(signals.len())].complement_if(rng.gen_bool());
                let b = signals[rng.gen_range(signals.len())].complement_if(rng.gen_bool());
                signals.push(if step % 3 == 0 {
                    xag.create_xor(a, b)
                } else {
                    xag.create_and(a, b)
                });
            }
            for s in signals.iter().rev().take(3) {
                xag.create_po(*s);
            }
            xag
        },
        &mut rng,
        8,
    );
    check(
        |rng| {
            let mut mig = Mig::new();
            let mut signals: Vec<Signal> = (0..5).map(|_| mig.create_pi()).collect();
            for _ in 0..30 {
                let a = signals[rng.gen_range(signals.len())].complement_if(rng.gen_bool());
                let b = signals[rng.gen_range(signals.len())].complement_if(rng.gen_bool());
                let c = signals[rng.gen_range(signals.len())].complement_if(rng.gen_bool());
                signals.push(mig.create_maj(a, b, c));
            }
            for s in signals.iter().rev().take(2) {
                mig.create_po(*s);
            }
            mig
        },
        &mut rng,
        8,
    );
}

/// Random network over 8 to 12 inputs in which half the gates extend the
/// newest signal, and half the second fanins are primary inputs (`create`
/// gets a random third signal for majority gates).  The
/// deep, narrow cones this builds are true (or false) on few of the input
/// patterns, so a flipped edge can change an output on too few patterns
/// for random simulation to see.
fn deep_network<N: Network + GateBuilder>(
    rng: &mut Rng,
    create: impl Fn(&mut N, &mut Rng, [Signal; 3]) -> Signal,
) -> N {
    let mut ntk = N::new();
    let num_pis = 8 + rng.gen_range(5);
    let mut signals: Vec<Signal> = (0..num_pis).map(|_| ntk.create_pi()).collect();
    for _ in 0..5 * num_pis {
        let x = if rng.gen_bool() {
            signals[signals.len() - 1]
        } else {
            signals[rng.gen_range(signals.len())].complement_if(rng.gen_bool())
        };
        let y = if rng.gen_bool() {
            signals[rng.gen_range(num_pis)]
        } else {
            signals[rng.gen_range(signals.len())]
        };
        let y = y.complement_if(rng.gen_bool());
        let z = signals[rng.gen_range(signals.len())].complement_if(rng.gen_bool());
        let s = create(&mut ntk, rng, [x, y, z]);
        signals.push(s);
    }
    for s in signals.iter().rev().take(3) {
        ntk.create_po(*s);
    }
    ntk
}

/// Rebuilds `ntk` gate by gate with fanin `index` of gate `target`
/// complemented.
fn rebuild_with_flipped_edge<N: Network + GateBuilder>(ntk: &N, target: NodeId, index: usize) -> N {
    let mut copy = N::new();
    let mut map = vec![copy.get_constant(false); ntk.size()];
    for pi in ntk.pi_nodes() {
        map[pi as usize] = copy.create_pi();
    }
    for g in ntk.gate_nodes() {
        let fanins: Vec<Signal> = (0..ntk.fanin_size(g))
            .map(|i| {
                let f = ntk.fanin(g, i);
                let s = map[f.node() as usize].complement_if(f.is_complemented());
                s.complement_if(g == target && i == index)
            })
            .collect();
        map[g as usize] = copy.create_gate(ntk.gate_kind(g), &fanins);
    }
    for po in ntk.po_signals() {
        copy.create_po(map[po.node() as usize].complement_if(po.is_complemented()));
    }
    copy
}

/// Number of input patterns, out of all of them, on which some output
/// pair of `a` and `b` differs.
fn differing_patterns<A: Network, B: Network>(a: &A, b: &B) -> usize {
    let (ta, tb) = (simulate(a), simulate(b));
    let mut diff = &ta[0] ^ &tb[0];
    for (x, y) in ta.iter().zip(&tb).skip(1) {
        diff = &diff | &(x ^ y);
    }
    diff.count_ones()
}

/// The sweeping equivalence checker against an independent oracle,
/// exhaustive simulation.  Seeded random AIGs, XAGs and MIGs with at most
/// twelve inputs are checked, in both directions, against their
/// `compress2rs` result, a rebuilt copy with one random fanin edge
/// complemented, and their 6-LUT mapping.  A fourth copy flips the edge
/// whose flip changes the outputs on the fewest input patterns: a
/// difference random simulation is likely to miss, so the checker must
/// refute it by SAT.  Every verdict must equal the oracle's, and every
/// counterexample must make some output pair differ.  Over all cases, the
/// checker must prove gates on gate windows, outputs on output windows,
/// and gates on its shared solver after their window stayed open.  (The
/// comparison with the window-free checker is the unit test
/// `sweeping::tests::windowed_check_matches_the_window_free_oracle`: the
/// window bound is private to the checker.)
#[test]
fn equivalence_checker_agrees_with_exhaustive_simulation() {
    /// Checks `a` against `b`; returns the oracle's verdict, whether the
    /// checker needed SAT to refute, and the checker's work counters.
    fn agree<A: Network, B: Network>(a: &A, b: &B, what: &str) -> (bool, bool, CecStats) {
        let expected = equivalent_by_simulation(a, b);
        let outcome = check_equivalence(a, b);
        match &outcome.result {
            EquivalenceResult::Equivalent => assert!(expected, "{what}: false proof {outcome:?}"),
            EquivalenceResult::Inequivalent(cex) => {
                assert!(!expected, "{what}: false refutation {outcome:?}");
                let patterns: Vec<u64> = cex.iter().map(|&v| u64::from(v)).collect();
                let (oa, ob) = (
                    simulate_patterns(a, &patterns),
                    simulate_patterns(b, &patterns),
                );
                assert!(
                    oa.iter().zip(&ob).any(|(x, y)| (x ^ y) & 1 == 1),
                    "{what}: the counterexample distinguishes no output"
                );
            }
            EquivalenceResult::Unknown => panic!("{what}: no verdict {outcome:?}"),
        }
        let refuted_by_sat = !expected && outcome.solver.propagations > 0;
        (expected, refuted_by_sat, outcome.work)
    }
    #[derive(Debug, Default)]
    struct Tally {
        equivalent: usize,
        inequivalent: usize,
        refuted_by_sat: usize,
        /// Gates proven on a gate window.
        gate_windows: usize,
        /// Output pairs proven on an output window.
        output_windows: usize,
        /// Gates proven on the shared solver after their window stayed
        /// open.
        fallbacks: usize,
    }
    fn check<N: Network + GateBuilder + ResubNetwork + Clone>(
        build: impl Fn(&mut Rng) -> N,
        rng: &mut Rng,
        cases: u32,
        tally: &mut Tally,
    ) {
        for case in 0..cases {
            let ntk = build(rng);
            let mut optimised = ntk.clone();
            compress2rs(&mut optimised, &FlowOptions::default());
            let klut = lut_map(&ntk, &LutMapParams::with_lut_size(6));
            let edges: Vec<(NodeId, usize)> = ntk
                .gate_nodes()
                .into_iter()
                .flat_map(|g| (0..ntk.fanin_size(g)).map(move |i| (g, i)))
                .collect();
            let mut flips = Vec::new();
            if !edges.is_empty() {
                let (g, i) = edges[rng.gen_range(edges.len())];
                flips.push(rebuild_with_flipped_edge(&ntk, g, i));
                let rarest = edges
                    .iter()
                    .map(|&(g, i)| rebuild_with_flipped_edge(&ntk, g, i))
                    .map(|copy| (differing_patterns(&ntk, &copy), copy))
                    .filter(|(differing, _)| *differing > 0)
                    .min_by_key(|(differing, _)| *differing);
                flips.extend(rarest.map(|(_, copy)| copy));
            }
            let what = |other: &str| format!("{} case {case} vs {other}", N::NAME);
            let mut verdicts = vec![
                agree(&ntk, &optimised, &what("compress2rs")),
                agree(&optimised, &ntk, &what("compress2rs, reversed")),
                agree(&ntk, &klut, &what("6-LUT mapping")),
                agree(&klut, &ntk, &what("6-LUT mapping, reversed")),
            ];
            for flipped in &flips {
                verdicts.push(agree(&ntk, flipped, &what("flipped edge")));
                verdicts.push(agree(flipped, &ntk, &what("flipped edge, reversed")));
            }
            for (equivalent, refuted_by_sat, work) in verdicts {
                if equivalent {
                    tally.equivalent += 1;
                } else {
                    tally.inequivalent += 1;
                }
                tally.refuted_by_sat += usize::from(refuted_by_sat);
                tally.gate_windows += work.window_proven;
                tally.output_windows += work.window_outputs;
                tally.fallbacks += work.proven - work.window_proven;
            }
        }
    }
    let mut rng = Rng::seed_from_u64(0x150c);
    let mut tally = Tally::default();
    check(
        |rng| deep_network(rng, |aig: &mut Aig, _, [x, y, _]| aig.create_and(x, y)),
        &mut rng,
        12,
        &mut tally,
    );
    check(
        |rng| {
            deep_network(rng, |xag: &mut Xag, rng, [x, y, _]| {
                if rng.gen_range(4) == 0 {
                    xag.create_xor(x, y)
                } else {
                    xag.create_and(x, y)
                }
            })
        },
        &mut rng,
        12,
        &mut tally,
    );
    check(
        |rng| {
            deep_network(rng, |mig: &mut Mig, rng, [x, y, z]| {
                // a constant third fanin makes an AND or an OR
                let z = if rng.gen_bool() {
                    mig.get_constant(rng.gen_bool())
                } else {
                    z
                };
                mig.create_maj(x, y, z)
            })
        },
        &mut rng,
        12,
        &mut tally,
    );
    assert!(
        tally.equivalent > 0 && tally.inequivalent > 0 && tally.refuted_by_sat > 0,
        "{tally:?}"
    );
    assert!(
        tally.gate_windows > 0 && tally.output_windows > 0 && tally.fallbacks > 0,
        "gate windows, output windows and shared-solver fallbacks must each be exercised: \
         {tally:?}"
    );
}

/// Injected redundant cones are provably merged back: sweeping a network
/// with seeded duplicates reaches the gate count the duplicates added to,
/// and the result stays miter-equivalent to the redundant input.
#[test]
fn sweeping_removes_injected_redundancy_on_random_networks() {
    let mut rng = Rng::seed_from_u64(0x150b);
    for case in 0..8 {
        let mut aig = arbitrary_network(&mut rng, 6, 35);
        sweep(&mut aig, &SweepParams::default()); // start from an irredundant base
        let base_gates = aig.num_gates();
        let injected = glsx::benchmarks::inject_redundancy(&mut aig, 4, 0xc0de + case);
        assert_eq!(injected, 4, "case {case}");
        let redundant = aig.clone();
        let stats = sweep(&mut aig, &SweepParams::default());
        // ≥ 1 rather than == injected: identically seeded duplicates can
        // structurally hash together and merge as one pair
        assert!(stats.proven >= 1, "case {case}: {stats:?}");
        assert_eq!(
            aig.num_gates(),
            base_gates,
            "case {case}: duplicates not fully merged back"
        );
        assert!(
            check_equivalence(&redundant, &aig).is_equivalent(),
            "case {case}"
        );
    }
}

/// Snapshot of every live node's cut sets, their order and their fused
/// functions — the full observable state of a cut manager.
fn cut_snapshot<N: Network>(
    ntk: &N,
    mgr: &mut CutManager,
) -> Vec<(NodeId, Vec<Vec<NodeId>>, Vec<CutFunction>)> {
    ntk.node_ids()
        .iter()
        .map(|&n| {
            let cuts: Vec<Vec<NodeId>> = mgr
                .cuts_of(ntk, n)
                .iter()
                .map(|c| c.leaves().to_vec())
                .collect();
            let tts = (0..cuts.len()).map(|i| *mgr.cut_function(n, i)).collect();
            (n, cuts, tts)
        })
        .collect()
}

/// The incremental-refresh contract of the change-event layer: after
/// arbitrary randomized substitute/merge/delete sequences, a cut manager
/// refreshed from the recorded [`ChangeLog`] is bit-identical — same cut
/// sets, same order, same fused functions — to a manager built from
/// scratch on the mutated network, in every representation.
#[test]
fn refresh_from_change_log_equals_from_scratch_enumeration() {
    fn check<N: Network + GateBuilder>(build: impl Fn(&mut Rng) -> N, rng: &mut Rng, cases: u32) {
        let params = CutParams {
            cut_size: 4,
            cut_limit: 8,
            compute_truth: true,
        };
        for case in 0..cases {
            let mut ntk = build(rng);
            let mut mgr = CutManager::new(params);
            // memoise everything so stale state would be visible
            let _ = cut_snapshot(&ntk, &mut mgr);
            let mut log = ChangeLog::new();
            let mut replacer = Replacer::new();
            ntk.set_change_tracking(true);
            for step in 0..12 {
                // one randomized structural mutation per step
                let gates = ntk.gate_nodes();
                if gates.is_empty() {
                    break;
                }
                let target = gates[rng.gen_range(gates.len())];
                match rng.gen_range(4) {
                    // replace a gate by one of its own fanins (acyclic by
                    // construction)
                    0 => {
                        let f = ntk.fanin(target, rng.gen_range(ntk.fanin_size(target)));
                        ntk.substitute_node(target, f.complement_if(rng.gen_bool()));
                    }
                    // collapse a gate to a constant
                    1 => {
                        let c = ntk.get_constant(rng.gen_bool());
                        ntk.substitute_node(target, c);
                    }
                    // merge two gates (the replacer's cone walk refuses
                    // cyclic merges, so any pair is safe to try)
                    2 => {
                        let other = gates[rng.gen_range(gates.len())];
                        let _ = replacer.merge_equivalent(
                            &mut ntk,
                            target,
                            Signal::new(other, rng.gen_bool()),
                        );
                    }
                    // create a gate, then delete it again (exercises the
                    // Deleted events of dangling-logic cleanup)
                    _ => {
                        let a = Signal::new(target, rng.gen_bool());
                        let pis = ntk.pi_nodes();
                        let b = Signal::new(pis[rng.gen_range(pis.len())], rng.gen_bool());
                        let g = ntk.create_and(a, b);
                        if ntk.is_gate(g.node()) && ntk.fanout_size(g.node()) == 0 {
                            ntk.take_out_node(g.node());
                        }
                    }
                }
                // drain + refresh, then compare against a fresh manager
                ntk.drain_changes(&mut log);
                mgr.refresh_from(&ntk, &log);
                log.clear();
                let mut fresh = CutManager::new(params);
                assert_eq!(
                    cut_snapshot(&ntk, &mut mgr),
                    cut_snapshot(&ntk, &mut fresh),
                    "{} case {case}, step {step}: refreshed manager diverged",
                    N::NAME
                );
                assert!(check_network_integrity(&ntk).is_ok());
            }
            ntk.set_change_tracking(false);
        }
    }
    let mut rng = Rng::seed_from_u64(0x150c);
    check(|rng| arbitrary_network(rng, 5, 30), &mut rng, 6);
    check(
        |rng| {
            let mut xag = Xag::new();
            let mut signals: Vec<Signal> = (0..5).map(|_| xag.create_pi()).collect();
            for step in 0..25 {
                let a = signals[rng.gen_range(signals.len())].complement_if(rng.gen_bool());
                let b = signals[rng.gen_range(signals.len())].complement_if(rng.gen_bool());
                signals.push(if step % 3 == 0 {
                    xag.create_xor(a, b)
                } else {
                    xag.create_and(a, b)
                });
            }
            for s in signals.iter().rev().take(3) {
                xag.create_po(*s);
            }
            xag
        },
        &mut rng,
        5,
    );
    check(
        |rng| {
            let mut mig = Mig::new();
            let mut signals: Vec<Signal> = (0..5).map(|_| mig.create_pi()).collect();
            for _ in 0..25 {
                let a = signals[rng.gen_range(signals.len())].complement_if(rng.gen_bool());
                let b = signals[rng.gen_range(signals.len())].complement_if(rng.gen_bool());
                let c = signals[rng.gen_range(signals.len())].complement_if(rng.gen_bool());
                signals.push(mig.create_maj(a, b, c));
            }
            for s in signals.iter().rev().take(2) {
                mig.create_po(*s);
            }
            mig
        },
        &mut rng,
        5,
    );
}

/// Incremental sweeping classes match the full re-sort every round on
/// random signature-collision-heavy networks: the sweep debug-asserts the
/// refined classes against the full re-sort each round, and most cases
/// here run refinement rounds, so they reach that check.  Refinement
/// re-hashes fewer nodes than re-sorting every live node each round.
#[test]
fn incremental_sweeping_classes_match_full_resort() {
    let mut rng = Rng::seed_from_u64(0x150e);
    let mut refined = 0;
    for case in 0..6 {
        // wide input space + a single pattern word force collisions and
        // therefore real counterexample-refinement rounds
        let aig = arbitrary_network(&mut rng, 14, 60);
        let params = SweepParams {
            num_words: 1,
            seed: 0x5eed + case,
            ..SweepParams::default()
        };
        let live_nodes = 1 + aig.num_pis() + aig.num_gates();
        let mut swept = aig.clone();
        let stats = sweep(&mut swept, &params);
        if stats.rounds > 1 {
            refined += 1;
            assert!(
                stats.reclassed_nodes < stats.rounds * live_nodes,
                "case {case}: {stats:?}"
            );
        }
        assert!(
            check_equivalence(&aig, &swept).is_equivalent(),
            "case {case}"
        );
    }
    assert!(refined > 0, "no case ran a refinement round");
}

/// Cut-merge invariants of the arena-backed cut substrate: results are
/// sorted and duplicate-free, the merge contains both operands (and hence
/// their intersection), and domination is a partial order.
#[test]
fn cut_merge_invariants() {
    let mut rng = Rng::seed_from_u64(0x1506);
    for _ in 0..256 {
        let la = arbitrary_leaves(&mut rng, 96, 6);
        let lb = arbitrary_leaves(&mut rng, 96, 6);
        let a = Cut::from_leaves(&la);
        let b = Cut::from_leaves(&lb);

        // construction canonicalises: sorted ascending, no duplicates
        assert!(a.leaves().windows(2).all(|w| w[0] < w[1]));
        assert_eq!(a.leaves(), la.as_slice());

        if let Some(merged) = a.merge(&b, 8) {
            // sorted + deduped
            assert!(merged.leaves().windows(2).all(|w| w[0] < w[1]));
            // merge(a, b) ⊇ a and ⊇ b, hence ⊇ a ∩ b
            for l in a.leaves().iter().chain(b.leaves()) {
                assert!(merged.leaves().contains(l));
            }
            // and nothing else: merge(a, b) ⊆ a ∪ b
            for l in merged.leaves() {
                assert!(a.leaves().contains(l) || b.leaves().contains(l));
            }
            // the merged cut is dominated by both operands
            assert!(a.dominates(&merged));
            assert!(b.dominates(&merged));
        } else {
            // merge only fails when the union exceeds the size bound
            let mut union = [a.leaves(), b.leaves()].concat();
            union.sort_unstable();
            union.dedup();
            assert!(union.len() > 8);
        }

        // domination is reflexive and antisymmetric
        assert!(a.dominates(&a));
        if a.dominates(&b) && b.dominates(&a) {
            assert_eq!(a.leaves(), b.leaves());
        }
        // and transitive
        let lc = arbitrary_leaves(&mut rng, 96, 6);
        let c = Cut::from_leaves(&lc);
        if a.dominates(&b) && b.dominates(&c) {
            assert!(a.dominates(&c));
        }

        // semantics: dominates == subset-of-leaves
        let is_subset = a.leaves().iter().all(|l| b.leaves().contains(l));
        assert_eq!(a.dominates(&b), is_subset);
    }
}

/// Choice rings stay structurally consistent under randomized
/// substitute/delete sequences: members stay live and reachable from live
/// representatives, rings migrate across substitutions, and no node lands
/// in two rings — on top of ordinary network integrity.
#[test]
fn choice_rings_survive_randomized_mutations() {
    use glsx::network::views::check_choice_integrity;
    let mut rng = Rng::seed_from_u64(0xc1c1);
    for case in 0..10 {
        let mut aig = arbitrary_network(&mut rng, 6, 60);
        glsx::benchmarks::inject_redundancy(&mut aig, 4, 0xbead + case);
        let stats = sweep(
            &mut aig,
            &SweepParams {
                record_choices: true,
                ..SweepParams::default()
            },
        );
        if stats.choices_recorded == 0 {
            continue;
        }
        check_choice_integrity(&aig).unwrap();
        for step in 0..20 {
            let gates = aig.gate_nodes();
            if gates.is_empty() {
                break;
            }
            let node = gates[rng.gen_range(gates.len())];
            if rng.gen_bool() {
                let fanin = aig.fanin(node, rng.gen_range(aig.fanin_size(node)));
                aig.substitute_node(node, fanin.complement_if(rng.gen_bool()));
            } else {
                aig.take_out_node(node);
            }
            check_choice_integrity(&aig)
                .unwrap_or_else(|e| panic!("case {case}, step {step}: {e}"));
            check_network_integrity(&aig)
                .unwrap_or_else(|e| panic!("case {case}, step {step}: {e}"));
        }
        // clearing the rings releases the kept cones to ordinary cleanup
        aig.clear_choices();
        assert_eq!(aig.num_choice_nodes(), 0);
        check_network_integrity(&aig).unwrap();
    }
}

/// The choices-off/choices-on mapping contract on seeded networks with
/// injected redundancy, across representations: choices-off mapping of a
/// ringed network is bit-identical to mapping with the rings stripped
/// (the pre-choice mapper), and the choices-on mapped network is
/// miter-equivalent to the pre-sweep source while never using more LUTs.
#[test]
fn choice_mapping_contract_across_representations() {
    fn check<N>(build: impl Fn(&mut Rng) -> N, rng: &mut Rng, cases: u32) -> usize
    where
        N: Network + glsx::network::GateBuilder + Clone,
    {
        let mut wins = 0usize;
        for case in 0..cases {
            let mut ntk = build(rng);
            glsx::benchmarks::inject_redundancy(&mut ntk, 3, 0x0a17 + u64::from(case));
            glsx::benchmarks::inject_restructured(&mut ntk, 3, 0x1a17 + u64::from(case));
            let source = ntk.clone();
            let stats = sweep(
                &mut ntk,
                &SweepParams {
                    record_choices: true,
                    ..SweepParams::default()
                },
            );
            let params_off = LutMapParams::with_lut_size(4);
            let params_on = LutMapParams {
                use_choices: true,
                ..params_off
            };
            // choices-off is blind to the rings
            let mut stripped = ntk.clone();
            stripped.clear_choices();
            let klut_off = lut_map(&ntk, &params_off);
            let klut_stripped = lut_map(&stripped, &params_off);
            assert_eq!(
                klut_off.po_signals(),
                klut_stripped.po_signals(),
                "{}: case {case}: rings leaked into the choices-off mapper",
                N::NAME
            );
            assert_eq!(klut_off.num_gates(), klut_stripped.num_gates());
            // choices-on: proven equivalent, never more LUTs
            let klut_on = lut_map(&ntk, &params_on);
            assert!(
                check_equivalence(&source, &klut_on).is_equivalent(),
                "{}: case {case}: choice-aware mapping broke the function \
                 ({stats:?})",
                N::NAME
            );
            assert!(
                klut_on.num_gates() <= klut_off.num_gates(),
                "{}: case {case}: choices cost LUTs ({} > {})",
                N::NAME,
                klut_on.num_gates(),
                klut_off.num_gates()
            );
            let on_stats = lut_map_stats(&ntk, &params_on);
            wins += on_stats.choice_wins;
        }
        wins
    }
    let mut rng = Rng::seed_from_u64(0xc0f3);
    let aig_wins = check(|rng| arbitrary_network(rng, 6, 60), &mut rng, 8);
    let _ = aig_wins;
    // XAG and MIG exercise the generic paths (XOR gates, MAJ gates with
    // constant fanins) through the same contract
    check(|rng| arbitrary_xag(rng, 6, 50), &mut rng, 6);
    check(|rng| arbitrary_mig(rng, 6, 40), &mut rng, 6);
}

/// The parallel-execution contract: at every thread count the bulk cut
/// enumerator returns the serial enumeration's arena, and the threaded
/// portfolio runner returns what its three flows return when run one
/// after another, on arbitrary networks in every representation.
#[test]
fn parallel_execution_is_bit_identical_to_serial() {
    use glsx::flow::portfolio_best_luts;

    const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

    // data parallelism: bulk cut enumeration
    fn check_data_parallel<N: Network>(ntk: &N, label: &str) {
        let params = CutParams {
            cut_size: 4,
            cut_limit: 8,
            compute_truth: true,
        };
        let mut serial_mgr = CutManager::new(params);
        serial_mgr.enumerate(ntk, 1);
        let serial_cuts = cut_snapshot(ntk, &mut serial_mgr);
        for threads in THREAD_COUNTS {
            let mut mgr = CutManager::new(params);
            mgr.enumerate(ntk, threads);
            assert_eq!(
                mgr.arena_len(),
                serial_mgr.arena_len(),
                "{label}: cut arena diverged at {threads} threads"
            );
            assert_eq!(
                cut_snapshot(ntk, &mut mgr),
                serial_cuts,
                "{label}: cut sets diverged at {threads} threads"
            );
        }
    }

    let mut rng = Rng::seed_from_u64(0x9a9_0006);
    for case in 0..4 {
        check_data_parallel(
            &arbitrary_network(&mut rng, 8, 60),
            &format!("AIG case {case}"),
        );
        check_data_parallel(&arbitrary_xag(&mut rng, 8, 50), &format!("XAG case {case}"));
        check_data_parallel(&arbitrary_mig(&mut rng, 8, 40), &format!("MIG case {case}"));
    }

    // networks over 192 inputs, wide enough that some level holds the 64
    // gates from which `enumerate` splits a bucket across threads
    fn check_wide<N: Network>(ntk: &N, label: &str) {
        let levels = DepthView::new(ntk);
        let widest = (1..levels.num_levels())
            .map(|l| levels.gates_at_level(l).len())
            .max();
        assert!(widest >= Some(64), "{label}: widest level {widest:?}");
        check_data_parallel(ntk, label);
    }
    for case in 0..2 {
        check_wide(
            &arbitrary_network(&mut rng, 192, 400),
            &format!("wide AIG {case}"),
        );
        check_wide(
            &arbitrary_xag(&mut rng, 192, 400),
            &format!("wide XAG {case}"),
        );
        check_wide(
            &arbitrary_mig(&mut rng, 192, 400),
            &format!("wide MIG {case}"),
        );
    }

    // pass parallelism: the portfolio runs one representation per thread
    // and joins in fixed order, so it returns the sequential flows' counts
    fn flow_luts<N: Network + GateBuilder + ResubNetwork>(mut ntk: N) -> usize {
        compress2rs(&mut ntk, &FlowOptions::default());
        lut_map_stats(&ntk, &LutMapParams::with_lut_size(4)).num_luts
    }
    for case in 0..3 {
        let aig = arbitrary_network(&mut rng, 6, 40);
        let sequential = [
            flow_luts(aig.clone()),
            flow_luts(glsx::network::convert_network::<Aig, Mig>(&aig)),
            flow_luts(glsx::network::convert_network::<Aig, Xag>(&aig)),
        ];
        let parallel = portfolio_best_luts(&aig, &FlowOptions::default(), 4);
        assert_eq!(
            parallel.luts_per_representation, sequential,
            "case {case}: portfolio diverged from the sequential flows"
        );
    }
}

/// Interface-plus-structure fingerprint used to assert bit-identical
/// checkpoint restoration: node-table size, live gate count, PO signals
/// and every gate's exact fanin list.
type NetworkFingerprint = (usize, usize, Vec<Signal>, Vec<(NodeId, Vec<Signal>)>);

fn network_fingerprint<N: Network>(ntk: &N) -> NetworkFingerprint {
    (
        ntk.size(),
        ntk.num_gates(),
        ntk.po_signals(),
        ntk.gate_nodes()
            .into_iter()
            .map(|n| (n, ntk.fanins(n)))
            .collect(),
    )
}

/// Checkpoint property: snapshot → arbitrary mutation burst → restore is
/// bit-identical to the pre-snapshot network, on all three graph
/// representations, and the restored network passes the full structural
/// audit (strash + choice rings).
#[test]
fn checkpoints_restore_bit_identical_networks() {
    fn check<N: Network + GateBuilder + Clone>(
        build: impl Fn(&mut Rng) -> N,
        rng: &mut Rng,
        cases: u32,
    ) {
        for case in 0..cases {
            let mut ntk = build(rng);
            let reference = network_fingerprint(&ntk);
            let snapshot = ntk.snapshot();
            glsx::benchmarks::inject_redundancy(&mut ntk, 3, 0xf00d + case as u64);
            sweep(&mut ntk, &SweepParams::default());
            balance(&mut ntk, &BalanceParams::default());
            ntk.restore(&snapshot);
            assert_eq!(
                network_fingerprint(&ntk),
                reference,
                "{} case {case}: snapshot restore is not bit-identical",
                N::NAME
            );
            assert!(
                check_network_integrity(&ntk).is_ok(),
                "{} case {case}: restored network fails the structural audit",
                N::NAME
            );
        }
    }

    let mut rng = Rng::seed_from_u64(0x1515);
    check(|rng| arbitrary_network(rng, 6, 40), &mut rng, 6);
    check(
        |rng| {
            let mut xag = Xag::new();
            let mut signals: Vec<Signal> = (0..5).map(|_| xag.create_pi()).collect();
            for step in 0..30 {
                let a = signals[rng.gen_range(signals.len())].complement_if(rng.gen_bool());
                let b = signals[rng.gen_range(signals.len())].complement_if(rng.gen_bool());
                signals.push(if step % 3 == 0 {
                    xag.create_xor(a, b)
                } else {
                    xag.create_and(a, b)
                });
            }
            for s in signals.iter().rev().take(3) {
                xag.create_po(*s);
            }
            xag
        },
        &mut rng,
        4,
    );
    check(
        |rng| {
            let mut mig = Mig::new();
            let mut signals: Vec<Signal> = (0..5).map(|_| mig.create_pi()).collect();
            for _ in 0..30 {
                let a = signals[rng.gen_range(signals.len())].complement_if(rng.gen_bool());
                let b = signals[rng.gen_range(signals.len())].complement_if(rng.gen_bool());
                let c = signals[rng.gen_range(signals.len())].complement_if(rng.gen_bool());
                signals.push(mig.create_maj(a, b, c));
            }
            for s in signals.iter().rev().take(3) {
                mig.create_po(*s);
            }
            mig
        },
        &mut rng,
        4,
    );
}

/// Never-corrupt contract: the guarded executor stays miter-equivalent
/// to its input under *any* fault plan — random panics, exhaustions and
/// starved verifications at random sites, on all three graph
/// representations.
#[test]
fn guarded_flows_survive_arbitrary_fault_plans() {
    use glsx::algorithms::resubstitution::ResubNetwork;
    use glsx::flow::{
        run_script_guarded, FaultPlan, FlowOptions, FlowScript, GuardOptions, StepStatus,
        VerifyMode,
    };

    fn arbitrary_fault_plan(rng: &mut Rng) -> FaultPlan {
        let mut entries = Vec::new();
        for site in ["balance", "rewrite", "refactor", "resub", "fraig"] {
            if rng.gen_bool() {
                let action = if rng.gen_bool() { "panic" } else { "exhaust" };
                entries.push(format!("{action}@{site}:{}", 1 + rng.gen_range(2)));
            }
        }
        if rng.gen_bool() {
            entries.push(format!("unknown@verify:{}", 1 + rng.gen_range(5)));
        }
        FaultPlan::parse(&entries.join(",")).expect("generated plans are well-formed")
    }

    fn check<N: Network + GateBuilder + ResubNetwork + Clone>(
        build: impl Fn(&mut Rng) -> N,
        rng: &mut Rng,
        cases: u32,
    ) {
        let script = FlowScript::parse("bz; rw; rs -c 6; fraig; rf; rwz").unwrap();
        for case in 0..cases {
            let source = build(rng);
            let plan = arbitrary_fault_plan(rng);
            let mut ntk = source.clone();
            let report = run_script_guarded(
                &mut ntk,
                &script,
                &FlowOptions::default(),
                &GuardOptions {
                    verify: VerifyMode::Miter,
                    fault_plan: plan.clone(),
                    ..GuardOptions::default()
                },
            );
            assert_eq!(
                report.final_verify,
                Some(true),
                "{} case {case} plan `{plan}`: final miter not green: {report:?}",
                N::NAME
            );
            assert!(
                check_equivalence(&source, &ntk).is_equivalent(),
                "{} case {case} plan `{plan}`: output diverged from input",
                N::NAME
            );
            assert!(
                check_network_integrity(&ntk).is_ok(),
                "{} case {case} plan `{plan}`: corrupt output network",
                N::NAME
            );
            assert!(
                report.steps.iter().all(|s| s.status != StepStatus::Skipped),
                "{} case {case}: no deadline was set, nothing may be skipped",
                N::NAME
            );
            assert_eq!(
                report.committed + report.rollbacks,
                script.steps().len(),
                "{} case {case} plan `{plan}`: steps unaccounted for: {report:?}",
                N::NAME
            );
        }
    }

    let mut rng = Rng::seed_from_u64(0x1516);
    check(|rng| arbitrary_network(rng, 6, 40), &mut rng, 4);
    check(
        |rng| {
            let mut xag = Xag::new();
            let mut signals: Vec<Signal> = (0..5).map(|_| xag.create_pi()).collect();
            for step in 0..30 {
                let a = signals[rng.gen_range(signals.len())].complement_if(rng.gen_bool());
                let b = signals[rng.gen_range(signals.len())].complement_if(rng.gen_bool());
                signals.push(if step % 3 == 0 {
                    xag.create_xor(a, b)
                } else {
                    xag.create_and(a, b)
                });
            }
            for s in signals.iter().rev().take(3) {
                xag.create_po(*s);
            }
            xag
        },
        &mut rng,
        2,
    );
    check(
        |rng| {
            let mut mig = Mig::new();
            let mut signals: Vec<Signal> = (0..5).map(|_| mig.create_pi()).collect();
            for _ in 0..30 {
                let a = signals[rng.gen_range(signals.len())].complement_if(rng.gen_bool());
                let b = signals[rng.gen_range(signals.len())].complement_if(rng.gen_bool());
                let c = signals[rng.gen_range(signals.len())].complement_if(rng.gen_bool());
                signals.push(mig.create_maj(a, b, c));
            }
            for s in signals.iter().rev().take(3) {
                mig.create_po(*s);
            }
            mig
        },
        &mut rng,
        2,
    );
}

/// The telemetry contract: tracing is observational only.  A flow run
/// under a spans / counters / full tracer is bit-identical to the
/// untraced run on arbitrary seeded networks in every representation,
/// and the spans it records are well-nested on every lane.
#[test]
fn traced_flows_are_bit_identical_to_untraced() {
    use glsx::algorithms::resubstitution::ResubNetwork;
    use glsx::flow::{run_script_traced, FlowOptions, FlowScript};
    use glsx::network::telemetry::{spans_well_nested, TraceMode, Tracer};

    fn check<N>(ntk: &N, label: &str)
    where
        N: Network + GateBuilder + ResubNetwork + Clone,
    {
        let script = FlowScript::parse("bz; rw; rs -c 6; rf; fraig; rwz").unwrap();
        let options = FlowOptions::default();
        let mut untraced = N::clone(ntk);
        let untraced_stats = run_script_traced(&mut untraced, &script, &options, &Tracer::off());
        for mode in [TraceMode::Spans, TraceMode::Counters, TraceMode::Full] {
            let tracer = Tracer::new(mode);
            let mut traced = N::clone(ntk);
            let stats = run_script_traced(&mut traced, &script, &options, &tracer);
            assert_eq!(
                stats.substitutions, untraced_stats.substitutions,
                "{label}: {mode:?} tracing changed the flow"
            );
            assert_eq!(
                traced.num_gates(),
                untraced.num_gates(),
                "{label}: {mode:?} tracing changed the gate count"
            );
            assert_eq!(
                traced.po_signals(),
                untraced.po_signals(),
                "{label}: {mode:?} tracing changed the outputs"
            );
            assert!(
                spans_well_nested(&tracer.events()),
                "{label}: {mode:?} spans are not well-nested"
            );
        }
    }

    let mut rng = Rng::seed_from_u64(0x7e1e);
    for case in 0..3 {
        let aig = arbitrary_network(&mut rng, 6, 50);
        check(&aig, &format!("AIG case {case}"));

        let mut xag = Xag::new();
        let mut signals: Vec<Signal> = (0..6).map(|_| xag.create_pi()).collect();
        for _ in 0..40 {
            let x = signals[rng.gen_range(signals.len())].complement_if(rng.gen_bool());
            let y = signals[rng.gen_range(signals.len())].complement_if(rng.gen_bool());
            signals.push(if rng.gen_bool() {
                xag.create_and(x, y)
            } else {
                xag.create_xor(x, y)
            });
        }
        for s in signals.iter().rev().take(3) {
            xag.create_po(*s);
        }
        check(&xag, &format!("XAG case {case}"));

        let mut mig = Mig::new();
        let mut signals: Vec<Signal> = (0..6).map(|_| mig.create_pi()).collect();
        for _ in 0..30 {
            let x = signals[rng.gen_range(signals.len())].complement_if(rng.gen_bool());
            let y = signals[rng.gen_range(signals.len())].complement_if(rng.gen_bool());
            let z = signals[rng.gen_range(signals.len())].complement_if(rng.gen_bool());
            signals.push(mig.create_maj(x, y, z));
        }
        for s in signals.iter().rev().take(3) {
            mig.create_po(*s);
        }
        check(&mig, &format!("MIG case {case}"));
    }
}

/// The million-gate-ingest contract on arbitrary small networks: the
/// strash-free bulk load reproduces the robust per-gate replay bit for
/// bit, a GBC round-trip reproduces the dense streamed form bit for bit
/// (and re-serialises to the very same bytes), and binary AIGER
/// round-trips re-serialise byte-identically while preserving the
/// Boolean function.  Random networks may contain structurally folded
/// duplicates, so everything is compared against the dense form produced
/// by [`NetworkSource`]'s renumbering stream, not the raw source.
#[test]
fn streaming_io_round_trips_bit_identically() {
    use glsx::io::{
        read_aiger, read_gbc, transfer, write_aiger_binary, write_gbc, BuilderSink, NetworkSink,
        NetworkSource,
    };
    use glsx::network::BulkTarget;

    fn assert_identical<N: Network>(a: &N, b: &N, what: &str) {
        assert_eq!(a.size(), b.size(), "{what}: node count");
        assert_eq!(a.num_pis(), b.num_pis(), "{what}: PI count");
        assert_eq!(a.num_gates(), b.num_gates(), "{what}: gate count");
        assert_eq!(a.po_signals(), b.po_signals(), "{what}: PO signals");
        for node in a.gate_nodes() {
            assert_eq!(
                a.gate_kind(node),
                b.gate_kind(node),
                "{what}: kind of {node}"
            );
            assert_eq!(a.fanins(node), b.fanins(node), "{what}: fanins of {node}");
        }
    }

    fn check<N: Network + BulkTarget>(original: &N, what: &str) {
        // bulk load and per-gate replay of the same record stream
        let (bulk, _depth) =
            transfer(&mut NetworkSource::new(original), NetworkSink::<N>::new()).unwrap();
        let per_node: N = transfer(&mut NetworkSource::new(original), BuilderSink::new()).unwrap();
        assert!(
            check_network_integrity(&bulk).is_ok(),
            "{what}: bulk integrity"
        );
        assert!(
            check_network_integrity(&per_node).is_ok(),
            "{what}: per-node integrity"
        );
        assert_identical(&bulk, &per_node, &format!("{what}: bulk vs per-node"));
        assert!(
            equivalent_by_simulation(original, &bulk),
            "{what}: bulk load changed the function"
        );
        // GBC round-trip: the read-back network matches the dense form
        // bit for bit and re-serialises to the very same bytes
        let bytes = write_gbc(original).unwrap();
        let (back, _view) = read_gbc::<N>(&bytes).unwrap();
        assert!(
            check_network_integrity(&back).is_ok(),
            "{what}: GBC integrity"
        );
        assert_identical(&bulk, &back, &format!("{what}: GBC read-back"));
        assert_eq!(
            write_gbc(&back).unwrap(),
            bytes,
            "{what}: GBC re-serialisation"
        );
    }

    let mut rng = Rng::seed_from_u64(0x10_c057);
    for case in 0..10 {
        let aig = arbitrary_network(&mut rng, 4 + case % 4, 25 + 5 * case);
        check(&aig, &format!("AIG case {case}"));

        // binary AIGER is AIG-only; the writer normalises the rhs order
        // of every AND, so the node tables may legally differ from the
        // source — the contract is byte-identical re-serialisation plus
        // an unchanged Boolean function
        let bytes = write_aiger_binary(&aig);
        let back = read_aiger(&bytes).unwrap();
        assert_eq!(back.num_pis(), aig.num_pis(), "AIG case {case}: PI count");
        assert_eq!(back.num_pos(), aig.num_pos(), "AIG case {case}: PO count");
        assert_eq!(
            write_aiger_binary(&back),
            bytes,
            "AIG case {case}: binary AIGER re-serialisation"
        );
        assert!(
            equivalent_by_simulation(&aig, &back),
            "AIG case {case}: binary AIGER changed the function"
        );
    }
    for case in 0..8 {
        check(
            &arbitrary_xag(&mut rng, 5, 30 + 4 * case),
            &format!("XAG case {case}"),
        );
        check(
            &arbitrary_mig(&mut rng, 5, 25 + 4 * case),
            &format!("MIG case {case}"),
        );
    }
}

/// Seeded script mutations never panic a runner: the `compress2rs` script
/// and a choice-mapping script get their numbers swapped for edge values,
/// steps dropped, duplicated and reordered, `lut_map` inserted mid-script
/// and `-budget`/`-trace` marks added.  Every mutant that parses runs
/// through `run_script` and `run_script_and_map` on a small AIG, XAG and
/// MIG.
#[test]
fn mutated_flow_scripts_never_panic() {
    use glsx::algorithms::resubstitution::ResubNetwork;
    use glsx::benchmarks::arithmetic::adder;
    use glsx::flow::{compress2rs_script, run_script, run_script_and_map, FlowScript};
    use glsx::network::convert_network;
    use std::panic::{catch_unwind, AssertUnwindSafe};

    const NUMBERS: [&str; 7] = ["0", "1", "2", "9", "13", "64", "18446744073709551615"];

    fn mutate(rng: &mut Rng, steps: &mut Vec<String>) {
        let pick = |rng: &mut Rng, len: usize| rng.gen_range(len.max(1));
        let number = |rng: &mut Rng| NUMBERS[rng.gen_range(NUMBERS.len())];
        match rng.gen_range(7) {
            0 => {
                let numbered: Vec<(usize, usize)> = steps
                    .iter()
                    .enumerate()
                    .flat_map(|(i, step)| {
                        step.split_whitespace()
                            .enumerate()
                            .filter(|(_, token)| token.parse::<u64>().is_ok())
                            .map(move |(j, _)| (i, j))
                    })
                    .collect();
                if numbered.is_empty() {
                    return;
                }
                let (i, j) = numbered[pick(rng, numbered.len())];
                let mut tokens: Vec<&str> = steps[i].split_whitespace().collect();
                tokens[j] = number(rng);
                steps[i] = tokens.join(" ");
            }
            1 if !steps.is_empty() => {
                steps.remove(pick(rng, steps.len()));
            }
            2 if !steps.is_empty() => {
                let i = pick(rng, steps.len());
                steps.insert(i, steps[i].clone());
            }
            3 if !steps.is_empty() => {
                let (i, j) = (pick(rng, steps.len()), pick(rng, steps.len()));
                steps.swap(i, j);
            }
            4 => {
                let step = if rng.gen_bool() {
                    "lut_map".to_string()
                } else {
                    format!("lut_map -k {}", 3 + rng.gen_range(6))
                };
                steps.insert(pick(rng, steps.len()), step);
            }
            5 if !steps.is_empty() => {
                let i = pick(rng, steps.len());
                steps[i] = format!("{} -budget {}", steps[i], number(rng));
            }
            6 if !steps.is_empty() => {
                let i = pick(rng, steps.len());
                steps[i].push_str(" -trace");
            }
            _ => {}
        }
    }

    /// The runners that panicked on `script` over `ntk`.
    fn panicking_runners<N>(ntk: &N, script: &FlowScript) -> Vec<&'static str>
    where
        N: Network + GateBuilder + ResubNetwork + Clone,
    {
        let options = FlowOptions::default();
        let defaults = LutMapParams::with_lut_size(4);
        let mut panicked = Vec::new();
        let mut copy = ntk.clone();
        if catch_unwind(AssertUnwindSafe(|| run_script(&mut copy, script, &options))).is_err() {
            panicked.push("run_script");
        }
        let mut copy = ntk.clone();
        if catch_unwind(AssertUnwindSafe(|| {
            run_script_and_map(&mut copy, script, &options, &defaults)
        }))
        .is_err()
        {
            panicked.push("run_script_and_map");
        }
        panicked
    }

    let bases = [
        compress2rs_script().to_string(),
        "fraig -choices; lut_map -k 6 -choices".to_string(),
    ];
    let aig: Aig = adder(2);
    let xag: Xag = convert_network(&aig);
    let mig: Mig = convert_network(&aig);
    let mut rng = Rng::seed_from_u64(0x5c41_9700);
    let mut parsed = 0;
    let mut panics = Vec::new();
    for case in 0..96 {
        let mut steps: Vec<String> = bases[case % bases.len()]
            .split(';')
            .map(|step| step.trim().to_string())
            .collect();
        for _ in 0..1 + rng.gen_range(3) {
            mutate(&mut rng, &mut steps);
        }
        let text = steps.join("; ");
        let Ok(script) = FlowScript::parse(&text) else {
            continue;
        };
        parsed += 1;
        for (kind, runners) in [
            ("aig", panicking_runners(&aig, &script)),
            ("xag", panicking_runners(&xag, &script)),
            ("mig", panicking_runners(&mig, &script)),
        ] {
            for runner in runners {
                panics.push(format!("{runner} on {kind}: `{text}`"));
            }
        }
    }
    assert!(parsed >= 48, "only {parsed} of 96 mutants parsed");
    assert!(
        panics.is_empty(),
        "{} panics:\n{}",
        panics.len(),
        panics.join("\n")
    );
}
