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
use glsx::algorithms::resubstitution::{resubstitute, ResubParams};
use glsx::algorithms::rewriting::{rewrite, CutMaintenance, RewriteParams};
use glsx::algorithms::sweeping::{check_equivalence, sweep, SweepParams};
use glsx::algorithms::Replacer;
use glsx::benchmarks::SplitMix64 as Rng;
use glsx::network::simulation::{equivalent_by_simulation, simulate};
use glsx::network::views::check_network_integrity;
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

/// Incremental rewriting (change-log refresh) and full recomputation
/// (manager rebuilt after every substitution) are bit-identical passes on
/// random networks — and incremental re-enumerates no more nodes.
#[test]
fn incremental_rewriting_equals_full_recompute_on_random_networks() {
    let mut rng = Rng::seed_from_u64(0x150d);
    for case in 0..8 {
        let aig = arbitrary_network(&mut rng, 6, 45);
        for zero_gain in [false, true] {
            let params = RewriteParams {
                allow_zero_gain: zero_gain,
                ..RewriteParams::default()
            };
            let mut incremental = aig.clone();
            let inc = rewrite(&mut incremental, &params);
            let mut full = aig.clone();
            let fll = rewrite(
                &mut full,
                &RewriteParams {
                    cut_maintenance: CutMaintenance::FullRecompute,
                    ..params
                },
            );
            assert_eq!(inc.substitutions, fll.substitutions, "case {case}");
            assert_eq!(inc.estimated_gain, fll.estimated_gain, "case {case}");
            assert_eq!(incremental.num_gates(), full.num_gates(), "case {case}");
            assert_eq!(incremental.po_signals(), full.po_signals(), "case {case}");
            assert!(
                inc.cuts.reenumerated_nodes <= fll.cuts.reenumerated_nodes,
                "case {case}: {:?} vs {:?}",
                inc.cuts,
                fll.cuts
            );
            assert!(equivalent_by_simulation(&aig, &incremental), "case {case}");
        }
    }
}

/// Incremental sweeping classes match the full re-sort every round on
/// random signature-collision-heavy networks: identical pairs, proofs,
/// merges and final networks.
#[test]
fn incremental_sweeping_classes_match_full_resort() {
    let mut rng = Rng::seed_from_u64(0x150e);
    for case in 0..6 {
        // wide input space + a single pattern word force collisions and
        // therefore real counterexample-refinement rounds
        let aig = arbitrary_network(&mut rng, 14, 60);
        let params = SweepParams {
            num_words: 1,
            seed: 0x5eed + case,
            ..SweepParams::default()
        };
        let mut incremental = aig.clone();
        let inc = sweep(&mut incremental, &params);
        let mut full = aig.clone();
        let fll = sweep(
            &mut full,
            &SweepParams {
                incremental_classes: false,
                ..params
            },
        );
        assert_eq!(inc.rounds, fll.rounds, "case {case}");
        assert_eq!(inc.candidate_pairs, fll.candidate_pairs, "case {case}");
        assert_eq!(inc.proven, fll.proven, "case {case}");
        assert_eq!(inc.refuted, fll.refuted, "case {case}");
        assert_eq!(inc.skipped, fll.skipped, "case {case}");
        assert_eq!(inc.conflicts, fll.conflicts, "case {case}");
        assert_eq!(incremental.num_gates(), full.num_gates(), "case {case}");
        assert_eq!(incremental.po_signals(), full.po_signals(), "case {case}");
        assert!(
            inc.reclassed_nodes <= fll.reclassed_nodes,
            "case {case}: {inc:?} vs {fll:?}"
        );
        assert!(
            check_equivalence(&aig, &incremental).is_equivalent(),
            "case {case}"
        );
    }
}

/// Incremental area-flow refinement selects the same LUT cover as full
/// recomputation while evaluating fewer choices.
#[test]
fn incremental_lut_mapping_matches_full_recompute() {
    let mut rng = Rng::seed_from_u64(0x150f);
    for case in 0..6 {
        let aig = arbitrary_network(&mut rng, 6, 50);
        let incremental = LutMapParams {
            area_flow_rounds: 3,
            ..LutMapParams::with_lut_size(4)
        };
        let full = LutMapParams {
            full_recompute: true,
            ..incremental
        };
        let inc = lut_map_stats(&aig, &incremental);
        let fll = lut_map_stats(&aig, &full);
        assert_eq!(inc.num_luts, fll.num_luts, "case {case}");
        assert_eq!(inc.depth, fll.depth, "case {case}");
        assert!(
            inc.choice_evaluations < fll.choice_evaluations,
            "case {case}: {inc:?} vs {fll:?}"
        );
        let a = lut_map(&aig, &incremental);
        let b = lut_map(&aig, &full);
        assert_eq!(a.po_signals(), b.po_signals(), "case {case}");
        assert!(equivalent_by_simulation(&a, &b), "case {case}");
    }
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

/// The incremental depth view is bit-identical to its from-scratch twin:
/// under randomized substitution/deletion sequences (with change tracking
/// on), refreshing from the drained log reproduces `DepthView::new`'s
/// level for every live node and the same overall depth.
#[test]
fn incremental_depth_view_matches_from_scratch_twin() {
    use glsx::network::views::{DepthView, IncrementalDepthView};
    let mut rng = Rng::seed_from_u64(0xdeb7);
    for case in 0..12 {
        let mut aig = arbitrary_network(&mut rng, 6, 50);
        let mut view = IncrementalDepthView::new(&aig);
        let mut log = ChangeLog::new();
        aig.set_change_tracking(true);
        for step in 0..12 {
            let gates = aig.gate_nodes();
            if gates.is_empty() {
                break;
            }
            let node = gates[rng.gen_range(gates.len())];
            if rng.gen_bool() {
                // substitute by one of its fanins (always acyclic)
                let fanin = aig.fanin(node, rng.gen_range(aig.fanin_size(node)));
                aig.substitute_node(node, fanin.complement_if(rng.gen_bool()));
            } else {
                aig.take_out_node(node);
            }
            // occasionally grow fresh logic so new-node levelling is hit
            if rng.gen_range(3) == 0 {
                let gates = aig.gate_nodes();
                if !gates.is_empty() {
                    let a = Signal::new(gates[rng.gen_range(gates.len())], rng.gen_bool());
                    let b = Signal::new(aig.pi_nodes()[0], false);
                    let fresh = aig.create_and(a, b);
                    aig.create_po(fresh);
                }
            }
            aig.drain_changes(&mut log);
            view.refresh_from(&aig, &log);
            log.clear();
            let scratch = DepthView::new(&aig);
            for node in aig.node_ids() {
                assert_eq!(
                    view.level(node),
                    scratch.level(node),
                    "case {case}, step {step}, node {node}"
                );
            }
            assert_eq!(
                view.depth(&aig),
                scratch.depth(),
                "case {case}, step {step}"
            );
        }
        aig.set_change_tracking(false);
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
/// enumerator, the phased sweep schedule and the portfolio runner return
/// results bit-identical to the serial run, on arbitrary networks in every
/// representation.
#[test]
fn parallel_execution_is_bit_identical_to_serial() {
    use glsx::flow::{portfolio_best_luts, FlowOptions};
    use glsx::network::Parallelism;

    const THREAD_COUNTS: [usize; 3] = [1, 2, 4];

    // data parallelism: bulk cut enumeration
    fn check_data_parallel<N: Network>(ntk: &N, label: &str) {
        let params = CutParams {
            cut_size: 4,
            cut_limit: 8,
            compute_truth: true,
        };
        let mut serial_mgr = CutManager::new(params);
        serial_mgr.enumerate(ntk, Parallelism::serial());
        let serial_cuts = cut_snapshot(ntk, &mut serial_mgr);
        for threads in THREAD_COUNTS {
            let mut mgr = CutManager::new(params);
            mgr.enumerate(ntk, Parallelism::new(threads));
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

    // pass parallelism: the phased sweep schedule proves candidate classes
    // on independent per-thread miters and must be thread-count invariant
    fn check_phased_sweep<N: Network + Clone>(ntk: &N, label: &str) {
        let phased_params = |threads| SweepParams {
            num_words: 1,
            parallel_proving: Some(Parallelism::new(threads)),
            ..SweepParams::default()
        };
        let mut baseline = N::clone(ntk);
        let baseline_stats = sweep(&mut baseline, &phased_params(1));
        assert!(
            check_equivalence(ntk, &baseline).is_equivalent(),
            "{label}: phased sweep changed the function"
        );
        for threads in &THREAD_COUNTS[1..] {
            let mut swept = N::clone(ntk);
            let stats = sweep(&mut swept, &phased_params(*threads));
            assert_eq!(
                stats, baseline_stats,
                "{label}: sweep stats diverged at {threads} threads"
            );
            assert_eq!(
                swept.num_gates(),
                baseline.num_gates(),
                "{label}: swept gate count diverged at {threads} threads"
            );
            assert_eq!(
                swept.po_signals(),
                baseline.po_signals(),
                "{label}: swept outputs diverged at {threads} threads"
            );
        }
        // the phased schedule is a different algorithm than the legacy
        // incremental-miter schedule, so the cross-check is semantic
        let mut legacy = N::clone(ntk);
        sweep(
            &mut legacy,
            &SweepParams {
                num_words: 1,
                ..SweepParams::default()
            },
        );
        assert!(
            check_equivalence(&legacy, &baseline).is_equivalent(),
            "{label}: phased and legacy sweeps disagree on the function"
        );
    }

    let mut rng = Rng::seed_from_u64(0x9a9_0006);
    for case in 0..4 {
        let aig = arbitrary_network(&mut rng, 8, 60);
        check_data_parallel(&aig, &format!("AIG case {case}"));
        check_phased_sweep(&aig, &format!("AIG case {case}"));

        let mut xag = Xag::new();
        let mut signals: Vec<Signal> = (0..8).map(|_| xag.create_pi()).collect();
        for _ in 0..50 {
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
        check_data_parallel(&xag, &format!("XAG case {case}"));
        check_phased_sweep(&xag, &format!("XAG case {case}"));

        let mut mig = Mig::new();
        let mut signals: Vec<Signal> = (0..8).map(|_| mig.create_pi()).collect();
        for _ in 0..40 {
            let x = signals[rng.gen_range(signals.len())].complement_if(rng.gen_bool());
            let y = signals[rng.gen_range(signals.len())].complement_if(rng.gen_bool());
            let z = signals[rng.gen_range(signals.len())].complement_if(rng.gen_bool());
            signals.push(mig.create_maj(x, y, z));
        }
        for s in signals.iter().rev().take(3) {
            mig.create_po(*s);
        }
        check_data_parallel(&mig, &format!("MIG case {case}"));
        check_phased_sweep(&mig, &format!("MIG case {case}"));
    }

    // pass parallelism: the portfolio runs one representation per thread
    // and joins in fixed order, so the result is bit-identical to serial
    let aig = arbitrary_network(&mut rng, 6, 40);
    let serial = portfolio_best_luts(
        &aig,
        &FlowOptions {
            parallelism: Parallelism::serial(),
            ..FlowOptions::default()
        },
        4,
    );
    for threads in THREAD_COUNTS {
        let parallel = portfolio_best_luts(
            &aig,
            &FlowOptions {
                parallelism: Parallelism::new(threads),
                ..FlowOptions::default()
            },
            4,
        );
        assert_eq!(parallel, serial, "portfolio diverged at {threads} threads");
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
/// bit-identical to the pre-snapshot network (same for the cheaper undo
/// journal), on all three graph representations, and the restored
/// network passes the full structural audit (strash + choice rings).
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
            // full snapshot
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
            // undo journal
            ntk.begin_undo();
            glsx::benchmarks::inject_redundancy(&mut ntk, 3, 0xfeed + case as u64);
            sweep(&mut ntk, &SweepParams::default());
            balance(&mut ntk, &BalanceParams::default());
            assert!(
                ntk.rollback_undo(),
                "{} case {case}: journal vanished",
                N::NAME
            );
            assert_eq!(
                network_fingerprint(&ntk),
                reference,
                "{} case {case}: journal rollback is not bit-identical",
                N::NAME
            );
            assert!(
                check_network_integrity(&ntk).is_ok(),
                "{} case {case}: rolled-back network fails the structural audit",
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
/// starved verifications at random sites, with both rollback strategies,
/// on all three graph representations.
#[test]
fn guarded_flows_survive_arbitrary_fault_plans() {
    use glsx::algorithms::resubstitution::ResubNetwork;
    use glsx::flow::{
        run_script_guarded, FaultPlan, FlowOptions, FlowScript, GuardOptions, RollbackStrategy,
        StepStatus, VerifyMode,
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
            for rollback in [RollbackStrategy::Snapshot, RollbackStrategy::Journal] {
                let mut ntk = source.clone();
                let report = run_script_guarded(
                    &mut ntk,
                    &script,
                    &FlowOptions::default(),
                    &GuardOptions {
                        rollback,
                        verify: VerifyMode::Miter,
                        fault_plan: plan.clone(),
                        ..GuardOptions::default()
                    },
                );
                assert_eq!(
                    report.final_verify,
                    Some(true),
                    "{} case {case} plan `{plan}` {rollback:?}: final miter not green: {report:?}",
                    N::NAME
                );
                assert!(
                    check_equivalence(&source, &ntk).is_equivalent(),
                    "{} case {case} plan `{plan}` {rollback:?}: output diverged from input",
                    N::NAME
                );
                assert!(
                    check_network_integrity(&ntk).is_ok(),
                    "{} case {case} plan `{plan}` {rollback:?}: corrupt output network",
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
                    "{} case {case} plan `{plan}` {rollback:?}: steps unaccounted for: {report:?}",
                    N::NAME
                );
            }
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
