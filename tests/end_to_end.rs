//! Cross-crate integration tests: the full optimisation flow, LUT mapping
//! and I/O on generated benchmark circuits, checked for functional
//! correctness by simulation.

use glsx::algorithms::lut_mapping::{lut_map, LutMapParams};
use glsx::algorithms::sweeping::check_equivalence;
use glsx::benchmarks::{epfl_like_suite, inject_redundancy, SuiteScale};
use glsx::flow::{
    compress2rs, compress2rs_script, run_script, run_script_and_map, run_script_guarded, run_step,
    FlowOptions, FlowScript, GuardOptions,
};
use glsx::io::{read_aiger, read_gbc, write_aiger, write_blif, write_gbc};
use glsx::network::simulation::{equivalent_by_random_simulation, equivalent_by_simulation};
use glsx::network::{convert_network, Aig, Mig, Network, Xag};

/// The full generic flow preserves functionality on every benchmark of the
/// tiny suite, in every representation, and never increases the size.
#[test]
fn flow_is_sound_on_the_tiny_suite() {
    for benchmark in epfl_like_suite(SuiteScale::Tiny) {
        let aig = &benchmark.network;

        let mut opt_aig = aig.clone();
        let stats = compress2rs(&mut opt_aig, &FlowOptions::default());
        assert!(
            stats.final_size <= stats.initial_size,
            "{}: AIG flow grew the network",
            benchmark.name
        );
        assert!(
            equivalent_by_random_simulation(aig, &opt_aig, 8, 0xA1),
            "{}: AIG flow broke the function",
            benchmark.name
        );

        let mut opt_mig: Mig = convert_network(aig);
        compress2rs(&mut opt_mig, &FlowOptions::default());
        assert!(
            equivalent_by_random_simulation(aig, &opt_mig, 8, 0xA2),
            "{}: MIG flow broke the function",
            benchmark.name
        );

        let mut opt_xag: Xag = convert_network(aig);
        compress2rs(&mut opt_xag, &FlowOptions::default());
        assert!(
            equivalent_by_random_simulation(aig, &opt_xag, 8, 0xA3),
            "{}: XAG flow broke the function",
            benchmark.name
        );
    }
}

/// LUT mapping after optimisation preserves the function and respects the
/// LUT size for every benchmark of the tiny suite.
#[test]
fn mapping_is_sound_on_the_tiny_suite() {
    for benchmark in epfl_like_suite(SuiteScale::Tiny) {
        let mut aig = benchmark.network.clone();
        compress2rs(&mut aig, &FlowOptions::default());
        let klut = lut_map(&aig, &LutMapParams::with_lut_size(6));
        assert!(klut.max_fanin_size() <= 6, "{}", benchmark.name);
        assert!(
            equivalent_by_random_simulation(&benchmark.network, &klut, 8, 0xB1),
            "{}: LUT mapping broke the function",
            benchmark.name
        );
    }
}

/// Custom flow scripts compose with I/O: optimise, export to AIGER, re-read
/// and check equivalence; export the mapped network to BLIF.
#[test]
fn scripts_and_io_compose() {
    let benchmark = glsx::benchmarks::benchmark_by_name("multiplier", SuiteScale::Tiny).unwrap();
    let mut aig: Aig = benchmark.network.clone();
    let script = FlowScript::parse("bz; rw; rs -c 8; rf; rwz").unwrap();
    run_script(&mut aig, &script, &FlowOptions::default());
    let text = write_aiger(&aig);
    let reread = read_aiger(&text).unwrap();
    assert!(equivalent_by_simulation(&aig, &reread));
    let klut = lut_map(&aig, &LutMapParams::with_lut_size(4));
    let blif = write_blif(&klut, "multiplier");
    assert!(blif.contains(".model multiplier"));
    assert!(blif.contains(".end"));
}

/// A GBC-loaded network defers its fanout lists and strash table until
/// `ensure_derived_state`.  Every runner calls it before its first pass,
/// so each pass kind can open a script on a freshly read network.
#[test]
fn every_runner_accepts_a_gbc_loaded_network() {
    let source: Aig = glsx::benchmarks::arithmetic::adder(6);
    let bytes = write_gbc(&source).unwrap();
    let load = || read_gbc::<Aig>(&bytes).unwrap().0;
    let options = FlowOptions::default();
    let defaults = LutMapParams::with_lut_size(6);
    for first in ["bz", "rs -c 6", "rw", "rf", "fraig"] {
        let script = FlowScript::parse(&format!("{first}; lut_map -k 6")).unwrap();
        let mut ntk = load();
        run_script(&mut ntk, &script, &options);
        assert!(
            equivalent_by_simulation(&source, &ntk),
            "run_script, `{first}`"
        );
        let mut ntk = load();
        let (_, klut, _) = run_script_and_map(&mut ntk, &script, &options, &defaults);
        assert!(
            equivalent_by_simulation(&source, &klut),
            "run_script_and_map, `{first}`"
        );
        let mut ntk = load();
        let report = run_script_guarded(&mut ntk, &script, &options, &GuardOptions::default());
        assert_eq!(
            report.rollbacks, 0,
            "run_script_guarded, `{first}`: {report:?}"
        );
        assert!(
            equivalent_by_simulation(&source, &ntk),
            "run_script_guarded, `{first}`"
        );
    }
}

/// Every optimisation pass of the representative flow is followed by a
/// miter-based equivalence check against its own input: the SAT-complete
/// end-to-end soundness guarantee (the former random-simulation assertion
/// could only refute, never prove).
#[test]
fn every_flow_step_is_miter_verified() {
    let benchmark = glsx::benchmarks::benchmark_by_name("multiplier", SuiteScale::Tiny).unwrap();
    let mut aig: Aig = benchmark.network.clone();
    inject_redundancy(&mut aig, 3, 0xE2E);
    let script = FlowScript::parse("fraig; bz; rw; rf; rs -c 8; rwz").unwrap();
    let options = FlowOptions::default();
    let mut fraig_merges = 0usize;
    for step in script.steps() {
        let input = aig.clone();
        let substitutions = run_step(&mut aig, step, &options);
        assert!(
            check_equivalence(&input, &aig).is_equivalent(),
            "step `{step:?}` broke combinational equivalence"
        );
        if matches!(step, glsx::flow::FlowStep::Fraig { .. }) {
            fraig_merges += substitutions;
        }
    }
    assert!(fraig_merges >= 1, "fraig merged no injected duplicates");
}

/// Rejected rewrite, refactor and balance candidates are rolled back, so
/// the node table stays dense through a whole `compress2rs` on the deep
/// `mac_datapath(16,2)`: before any cleanup, after every step, it holds
/// fewer than three ids per live node (it held over a hundred when each
/// rejected candidate left its ids behind as dead nodes).
#[test]
fn compress2rs_keeps_the_node_table_dense() {
    let mut aig: Aig = glsx::benchmarks::arithmetic::mac_datapath(16, 2);
    let reference = aig.clone();
    let options = FlowOptions::default();
    for step in compress2rs_script().steps() {
        run_step(&mut aig, step, &options);
        let live = 1 + aig.num_pis() + aig.num_gates();
        assert!(
            aig.size() < 3 * live,
            "after `{step:?}`: {} ids for {live} live nodes",
            aig.size()
        );
    }
    assert!(equivalent_by_random_simulation(&reference, &aig, 16, 0xD5E));
}

/// The full generic flow output is miter-proven equivalent to its input in
/// every representation (complementing the per-step check above).
#[test]
fn optimised_networks_are_miter_equivalent_to_their_sources() {
    let benchmark = glsx::benchmarks::benchmark_by_name("adder", SuiteScale::Tiny).unwrap();
    let aig = &benchmark.network;

    let mut opt_aig = aig.clone();
    compress2rs(&mut opt_aig, &FlowOptions::default());
    assert!(check_equivalence(aig, &opt_aig).is_equivalent());

    let mut opt_mig: Mig = convert_network(aig);
    compress2rs(&mut opt_mig, &FlowOptions::default());
    assert!(check_equivalence(aig, &opt_mig).is_equivalent());

    let mut opt_xag: Xag = convert_network(aig);
    compress2rs(&mut opt_xag, &FlowOptions::default());
    assert!(check_equivalence(aig, &opt_xag).is_equivalent());
}

/// The portfolio never does worse than the individual representations.
#[test]
fn portfolio_dominates_single_representations() {
    let benchmark = glsx::benchmarks::benchmark_by_name("adder", SuiteScale::Tiny).unwrap();
    let result = glsx::flow::portfolio_best_luts(&benchmark.network, &FlowOptions::default(), 6);
    for luts in result.luts_per_representation {
        assert!(result.best_luts <= luts);
    }
}
