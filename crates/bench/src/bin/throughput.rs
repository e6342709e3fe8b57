//! Full-pass throughput on the arithmetic suite: the rewrite loop
//! (`BENCH_rewrite.json`) and the SAT-sweeping engine
//! (`BENCH_sweep.json`).
//!
//! The rewrite section measures end-to-end `rewrite` pass time (cut
//! enumeration, truth tables, gain estimation and substitution) in gates
//! per second, the NPN canonisation kernel behind its database in
//! canonisations per second over all 65,536 four-input functions,
//! asserting that they fall into the 222 known NPN classes, and the ISOP
//! kernel behind refactoring in cover pairs per second over a seeded set
//! of 10-input functions, asserting that every cover reproduces its
//! function, and one resubstitution pass (`rs -c 10 -d 2`) on
//! `multiplier(8)` as AIG, XAG and MIG in visited nodes per second,
//! checking each result against its input by exhaustive simulation.  The
//! sweep
//! section injects seeded structural redundancy into each circuit
//! (`glsx_benchmarks::inject_redundancy`) and measures a full `sweep`
//! pass — simulation, class partitioning, SAT proving and merging — in
//! nodes per second, asserting that every run merges proven duplicates
//! and that the swept network is miter-equivalent to its redundant
//! input.  Setting `GLSX_WRITE_BENCH_BASELINE=1` records the
//! results at the repository root.
//!
//! The mapping section (`BENCH_map.json`) injects *restructured
//! alternatives* (`glsx_benchmarks::inject_restructured`) into each
//! circuit and runs the choice-network pipeline both ways:
//! `fraig; lut_map` (destructive sweep, structural bias) against
//! `fraig -choices; lut_map -choices` (proven cones kept as mapping
//! choices).  Every mapped result is miter-proven equivalent to the
//! injected source, choices-on must never use more LUTs than choices-off,
//! and on at least one circuit it must use strictly fewer with nonzero
//! choice-derived cut wins — the acceptance bar of choice-aware mapping.
//!
//! `--smoke` runs a single small circuit through every optimisation pass
//! of a representative flow, following each pass with a miter-based
//! `check_equivalence` against that pass's input: the CI guard proving
//! pass soundness end to end.  It then runs the choice pipeline (choices
//! on AND off) with the same miter guards, counts the 4-input NPN
//! classes, checks the ISOP covers and runs the resubstitution row once.

use glsx_benchmarks::arithmetic::{adder, barrel_shifter, multiplier, square};
use glsx_benchmarks::{inject_redundancy, inject_restructured, SplitMix64};
use glsx_core::cuts::CutCounters;
use glsx_core::lut_mapping::LutMapParams;
use glsx_core::resubstitution::{resubstitute, ResubNetwork, ResubParams};
use glsx_core::rewriting::{rewrite, RewriteParams};
use glsx_core::sweeping::{check_equivalence, sweep, SweepParams};
use glsx_flow::{run_script_and_map, run_step, FlowOptions, FlowScript};
use glsx_network::simulation::equivalent_by_simulation;
use glsx_network::{convert_network, Aig, Mig, Network, Xag};
use glsx_truth::{isop, npn_canonize, TruthTable};
use std::collections::HashSet;
use std::hint::black_box;
use std::time::Instant;

struct Row {
    circuit: &'static str,
    gates_before: usize,
    gates_after: usize,
    substitutions: usize,
    /// Cut-manager work of the pass: nodes invalidated by substitutions,
    /// nodes the refresh walk visited and nodes/cuts actually
    /// re-enumerated.
    cuts: CutCounters,
    seconds_per_pass: f64,
    gates_per_sec: f64,
}

/// Times one full rewrite pass over `aig`; repeated until the timing
/// budget is exhausted, reporting the best pass (the minimum is the
/// machine's ceiling and far less sensitive to scheduler noise than the
/// mean).  Every repetition asserts the deterministic outcome (same final
/// size and substitution count).
fn measure(name: &'static str, aig: &Aig, budget_ms: u128) -> Row {
    // warm-up run pins the deterministic outcome
    let mut first = aig.clone();
    let reference_stats = rewrite(&mut first, &RewriteParams::default());
    let gates_after = first.num_gates();

    let started = Instant::now();
    let mut runs = 0u32;
    let mut seconds = f64::INFINITY;
    while runs < 20 && started.elapsed().as_millis() < budget_ms {
        let mut ntk = aig.clone();
        let t = Instant::now();
        let stats = rewrite(&mut ntk, &RewriteParams::default());
        seconds = seconds.min(t.elapsed().as_secs_f64());
        assert_eq!(stats, reference_stats, "{name}: nondeterministic rewrite");
        assert_eq!(
            ntk.num_gates(),
            gates_after,
            "{name}: nondeterministic size"
        );
        runs += 1;
    }
    Row {
        circuit: name,
        gates_before: aig.num_gates(),
        gates_after,
        substitutions: reference_stats.substitutions,
        cuts: reference_stats.cuts,
        seconds_per_pass: seconds,
        gates_per_sec: aig.num_gates() as f64 / seconds,
    }
}

/// The number of NPN classes of 4-input functions.
const NPN4_CLASSES: usize = 222;

struct NpnRow {
    functions: usize,
    classes: usize,
    seconds_per_pass: f64,
    canonisations_per_sec: f64,
}

/// Canonises every 4-input function once, asserting the class count, then
/// times passes over all of them until the budget is spent (at least one,
/// at most 20), reporting the best pass like [`measure`].
fn measure_npn(budget_ms: u128) -> NpnRow {
    let functions: Vec<TruthTable> = (0..1u64 << 16)
        .map(|bits| TruthTable::from_bits(4, bits))
        .collect();
    let classes: HashSet<TruthTable> = functions.iter().map(|f| npn_canonize(f).0).collect();
    assert_eq!(
        classes.len(),
        NPN4_CLASSES,
        "4-input functions must fall into {NPN4_CLASSES} NPN classes"
    );
    let started = Instant::now();
    let mut runs = 0u32;
    let mut seconds = f64::INFINITY;
    while runs == 0 || (runs < 20 && started.elapsed().as_millis() < budget_ms) {
        let t = Instant::now();
        for f in &functions {
            black_box(npn_canonize(black_box(f)));
        }
        seconds = seconds.min(t.elapsed().as_secs_f64());
        runs += 1;
    }
    NpnRow {
        functions: functions.len(),
        classes: classes.len(),
        seconds_per_pass: seconds,
        canonisations_per_sec: functions.len() as f64 / seconds,
    }
}

struct IsopRow {
    functions: usize,
    inputs: usize,
    cubes: usize,
    seconds_per_pass: f64,
    pairs_per_sec: f64,
}

/// Inputs of the functions [`measure_isop`] covers: the largest cut
/// refactoring collapses.
const ISOP_INPUTS: usize = 10;

/// Covers a fixed seeded set of 10-input functions and their complements,
/// the pair `sop_resynthesize` computes per refactoring candidate,
/// asserting once that every cover reproduces its function, then times
/// passes over the set until the budget is spent (at least one, at most
/// 20), reporting the best pass like [`measure`].  The total cube count is
/// a deterministic checksum of the covers.
fn measure_isop(budget_ms: u128) -> IsopRow {
    let mut rng = SplitMix64::seed_from_u64(0x150b);
    let words = 1 << (ISOP_INPUTS - 6);
    let pairs: Vec<(TruthTable, TruthTable)> = (0..256)
        .map(|_| {
            let f =
                TruthTable::from_words(ISOP_INPUTS, (0..words).map(|_| rng.next_u64()).collect());
            let complement = !&f;
            (f, complement)
        })
        .collect();
    let mut cubes = 0;
    for (f, complement) in &pairs {
        for g in [f, complement] {
            let cover = isop(g);
            assert_eq!(
                cover.to_truth_table(),
                *g,
                "isop cover differs from its function"
            );
            cubes += cover.num_cubes();
        }
    }
    let started = Instant::now();
    let mut runs = 0u32;
    let mut seconds = f64::INFINITY;
    while runs == 0 || (runs < 20 && started.elapsed().as_millis() < budget_ms) {
        let t = Instant::now();
        for (f, complement) in &pairs {
            black_box(isop(black_box(f)));
            black_box(isop(black_box(complement)));
        }
        seconds = seconds.min(t.elapsed().as_secs_f64());
        runs += 1;
    }
    IsopRow {
        functions: pairs.len(),
        inputs: ISOP_INPUTS,
        cubes,
        seconds_per_pass: seconds,
        pairs_per_sec: pairs.len() as f64 / seconds,
    }
}

struct ResubRow {
    network: &'static str,
    gates_before: usize,
    gates_after: usize,
    visited: usize,
    substitutions: usize,
    seconds_per_pass: f64,
    visited_per_sec: f64,
}

/// Window leaves and inserted gates of the resubstitution row: the
/// `rs -c 10 -d 2` step of `compress2rs`.
const RESUB_LEAVES: usize = 10;
const RESUB_INSERTS: usize = 2;

/// Times one resubstitution pass over `ntk` until the budget is spent (at
/// least one, at most 20), reporting the best pass like [`measure`].  The
/// first result is checked against `ntk` by exhaustive simulation, and
/// every pass must repeat its statistics and size.  `visited`,
/// `substitutions` and `gates_after` are deterministic checksums.
fn measure_resub<N: ResubNetwork + Network + Clone>(
    network: &'static str,
    ntk: &N,
    budget_ms: u128,
) -> ResubRow {
    let params = ResubParams {
        max_leaves: RESUB_LEAVES,
        max_inserts: RESUB_INSERTS,
        ..ResubParams::default()
    };
    let mut first = ntk.clone();
    let reference = resubstitute(&mut first, &params);
    assert!(
        equivalent_by_simulation(ntk, &first),
        "{network}: resubstitution changed the function"
    );
    let started = Instant::now();
    let mut runs = 0u32;
    let mut seconds = f64::INFINITY;
    while runs == 0 || (runs < 20 && started.elapsed().as_millis() < budget_ms) {
        let mut pass = ntk.clone();
        let t = Instant::now();
        let stats = resubstitute(black_box(&mut pass), &params);
        seconds = seconds.min(t.elapsed().as_secs_f64());
        assert_eq!(
            stats, reference,
            "{network}: nondeterministic resubstitution"
        );
        assert_eq!(
            pass.num_gates(),
            first.num_gates(),
            "{network}: nondeterministic size"
        );
        runs += 1;
    }
    ResubRow {
        network,
        gates_before: ntk.num_gates(),
        gates_after: first.num_gates(),
        visited: reference.visited,
        substitutions: reference.substitutions,
        seconds_per_pass: seconds,
        visited_per_sec: reference.visited as f64 / seconds,
    }
}

/// The resubstitution row: `multiplier(8)` as AIG, and converted to XAG
/// and MIG, each timed by [`measure_resub`].
fn measure_resub_rows(budget_ms: u128) -> Vec<ResubRow> {
    let aig: Aig = multiplier(8);
    vec![
        measure_resub("aig", &aig, budget_ms),
        measure_resub("xag", &convert_network::<Aig, Xag>(&aig), budget_ms),
        measure_resub("mig", &convert_network::<Aig, Mig>(&aig), budget_ms),
    ]
}

fn print_resub_row(prefix: &str, r: &ResubRow) {
    println!(
        "{prefix} multiplier_8 {} {:>5} -> {:>5} gates {:>5} visited {:>4} subs  {:>10.0} visited/s",
        r.network, r.gates_before, r.gates_after, r.visited, r.substitutions, r.visited_per_sec
    );
}

struct SweepRow {
    circuit: &'static str,
    gates_before: usize,
    gates_after: usize,
    proven: usize,
    skipped: usize,
    sat_conflicts: u64,
    seconds_per_sweep: f64,
    nodes_per_sec: f64,
}

/// Times a full SAT sweep of `aig` (which carries injected redundancy);
/// best-of-N timing like [`measure`], with every repetition asserting the
/// deterministic outcome.  The first run is verified with a miter:
/// sweeping must preserve combinational equivalence, and every merge must
/// be SAT-proven (`proven` counts exactly the merges; there is no other
/// merge path).
fn measure_sweep(name: &'static str, aig: &Aig, budget_ms: u128) -> SweepRow {
    let params = SweepParams::default();
    let mut first = aig.clone();
    let reference_stats = sweep(&mut first, &params);
    assert!(
        reference_stats.proven >= 1,
        "{name}: sweep found no redundancy to merge ({reference_stats:?})"
    );
    assert!(
        check_equivalence(aig, &first).is_equivalent(),
        "{name}: sweep broke combinational equivalence"
    );

    let started = Instant::now();
    let mut runs = 0u32;
    let mut seconds = f64::INFINITY;
    while runs < 20 && started.elapsed().as_millis() < budget_ms {
        let mut ntk = aig.clone();
        let t = Instant::now();
        let stats = sweep(&mut ntk, &params);
        seconds = seconds.min(t.elapsed().as_secs_f64());
        assert_eq!(stats, reference_stats, "{name}: nondeterministic sweep");
        runs += 1;
    }
    SweepRow {
        circuit: name,
        gates_before: aig.num_gates(),
        gates_after: reference_stats.gates_after,
        proven: reference_stats.proven,
        skipped: reference_stats.skipped,
        sat_conflicts: reference_stats.conflicts,
        seconds_per_sweep: seconds,
        nodes_per_sec: aig.num_gates() as f64 / seconds,
    }
}

struct MapRow {
    circuit: &'static str,
    gates: usize,
    luts_off: usize,
    depth_off: u32,
    luts_on: usize,
    depth_on: u32,
    choice_wins: usize,
    choices_recorded: usize,
    seconds_on: f64,
}

/// Runs the choice-network mapping pipeline on one redundancy-injected
/// circuit, choices off and on, with a miter proof for both results.
/// Returns the comparison row; `luts_on > luts_off` is a hard failure.
fn measure_map(name: &'static str, source: &Aig, lut_size: usize) -> MapRow {
    let defaults = LutMapParams::with_lut_size(lut_size);
    let options = FlowOptions::default();
    let off_script = FlowScript::parse(&format!("fraig; lut_map -k {lut_size}")).unwrap();
    let on_script =
        FlowScript::parse(&format!("fraig -choices; lut_map -k {lut_size} -choices")).unwrap();

    let mut off_ntk = source.clone();
    let (_, off_klut, off_stats) =
        run_script_and_map(&mut off_ntk, &off_script, &options, &defaults);
    assert!(
        check_equivalence(source, &off_klut).is_equivalent(),
        "{name}: choices-off mapping broke combinational equivalence"
    );

    let mut on_ntk = source.clone();
    let started = Instant::now();
    let (on_flow, on_klut, on_stats) =
        run_script_and_map(&mut on_ntk, &on_script, &options, &defaults);
    let seconds_on = started.elapsed().as_secs_f64();
    assert!(
        check_equivalence(source, &on_klut).is_equivalent(),
        "{name}: choices-on mapping broke combinational equivalence"
    );
    assert!(
        on_stats.num_luts <= off_stats.num_luts,
        "{name}: choices-on used more LUTs ({} > {})",
        on_stats.num_luts,
        off_stats.num_luts
    );
    MapRow {
        circuit: name,
        gates: source.num_gates(),
        luts_off: off_stats.num_luts,
        depth_off: off_stats.depth,
        luts_on: on_stats.num_luts,
        depth_on: on_stats.depth,
        choice_wins: on_stats.choice_wins,
        // the choices-on fraig step reports proven-and-ringed cones
        choices_recorded: on_flow.substitutions,
        seconds_on,
    }
}

/// `--smoke`: run every pass of a representative flow on one small
/// circuit, following each pass with a miter-based equivalence check
/// against the pass's input.
fn smoke() {
    // fraig runs first so it is the pass that faces the injected
    // duplicates (the rewriting family would otherwise absorb them); the
    // fraig -c step exercises the script-level conflict budget
    let script = FlowScript::parse("fraig; bz; rw; rf; rs -c 8; rwz; fraig -c 5000").unwrap();
    let options = FlowOptions::default();
    let mut ntk: Aig = adder(8);
    glsx_benchmarks::inject_redundancy(&mut ntk, 4, 0x51u64);
    let mut merged_by_fraig = 0usize;
    let mut proof_conflicts = 0u64;
    for step in script.steps() {
        let input = ntk.clone();
        let substitutions = run_step(&mut ntk, step, &options);
        let outcome = check_equivalence(&input, &ntk);
        assert!(
            outcome.is_equivalent(),
            "smoke: `{step:?}` broke combinational equivalence"
        );
        proof_conflicts += outcome.solver.conflicts;
        if matches!(step, glsx_flow::FlowStep::Fraig { .. }) {
            merged_by_fraig += substitutions;
        }
        println!(
            "smoke {:<10} {:>4} -> {:>4} gates ({} substitutions) miter OK",
            format!("{step:?}").split_whitespace().next().unwrap(),
            input.num_gates(),
            ntk.num_gates(),
            substitutions
        );
    }
    assert!(
        merged_by_fraig >= 1,
        "smoke: fraig merged none of the injected duplicates"
    );
    println!(
        "smoke: every pass proven equivalence-preserving by miter \
         ({proof_conflicts} total proof conflicts)"
    );

    // the choice pipeline, on AND off: the mapped results must both be
    // miter-proven against the injected source and choices-on must never
    // cost LUTs (asserted inside measure_map)
    let mut choice_source: Aig = adder(8);
    inject_restructured(&mut choice_source, 6, 0x51c3);
    inject_redundancy(&mut choice_source, 2, 0x51c4);
    let row = measure_map("adder_8", &choice_source, 4);
    println!(
        "smoke map {:>4} gates: {} LUTs off / {} LUTs on ({} choice wins, \
         {} choices recorded), both miter-proven",
        row.gates, row.luts_off, row.luts_on, row.choice_wins, row.choices_recorded
    );

    let npn = measure_npn(0);
    println!(
        "smoke npn: {} 4-input functions in {} classes, {:.0} canonisations/s",
        npn.functions, npn.classes, npn.canonisations_per_sec
    );
    let isop_row = measure_isop(0);
    println!(
        "smoke isop: {} {}-input cover pairs reproduce their functions ({} cubes), {:.0} pairs/s",
        isop_row.functions, isop_row.inputs, isop_row.cubes, isop_row.pairs_per_sec
    );
    for r in measure_resub_rows(0) {
        print_resub_row("smoke rs (exhaustively equivalent):", &r);
    }
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        smoke();
        // a fast sweep probe keeps the sweep harness itself from rotting
        let mut aig: Aig = adder(8);
        inject_redundancy(&mut aig, 4, 0xbea7);
        let _ = measure_sweep("adder_8", &aig, 200);
        return;
    }

    let suite: Vec<(&'static str, Aig)> = vec![
        ("adder_32", adder(32)),
        ("barrel_shifter_32", barrel_shifter(32)),
        ("multiplier_8", multiplier(8)),
        ("square_8", square(8)),
    ];

    let npn = measure_npn(2000);
    println!(
        "npn     {} 4-input functions  {} classes  {:.6} s/pass  {:>10.0} canonisations/s",
        npn.functions, npn.classes, npn.seconds_per_pass, npn.canonisations_per_sec
    );

    let isop_row = measure_isop(2000);
    println!(
        "isop    {} {}-input functions  {} cubes  {:.6} s/pass  {:>10.0} cover pairs/s",
        isop_row.functions,
        isop_row.inputs,
        isop_row.cubes,
        isop_row.seconds_per_pass,
        isop_row.pairs_per_sec
    );

    let resub_rows = measure_resub_rows(2000);
    for r in &resub_rows {
        print_resub_row("rs     ", r);
    }

    let mut rows = Vec::new();
    let mut sweep_rows = Vec::new();
    let mut map_rows = Vec::new();
    for (name, aig) in &suite {
        let row = measure(name, aig, 2000);
        println!(
            "rewrite {:<20} {:>5} -> {:>5} gates {:>4} subs  {:>6} invalidated {:>6} re-enumerated \
             {:>7} refresh-walked  {:>10.0} gates/s",
            row.circuit,
            row.gates_before,
            row.gates_after,
            row.substitutions,
            row.cuts.invalidated_nodes,
            row.cuts.reenumerated_nodes,
            row.cuts.refresh_walked,
            row.gates_per_sec
        );
        rows.push(row);

        // sweep workload: the same circuit with seeded redundant cones
        // (one duplicate per ~25 gates, at least 4)
        let mut redundant = aig.clone();
        let count = (aig.num_gates() / 25).max(4);
        inject_redundancy(&mut redundant, count, 0xbea7_0000 + count as u64);
        let srow = measure_sweep(name, &redundant, 2000);
        println!(
            "sweep   {:<20} {:>5} -> {:>5} gates {:>4} proven {:>3} skipped  {:>10.0} nodes/s",
            srow.circuit,
            srow.gates_before,
            srow.gates_after,
            srow.proven,
            srow.skipped,
            srow.nodes_per_sec
        );
        sweep_rows.push(srow);

        // choice-mapping workload: seeded restructured alternatives (the
        // useful kind of redundancy — resynthesised 10-leaf cones)
        let mut alternatives = aig.clone();
        let count = (aig.num_gates() / 15).clamp(8, 64);
        inject_restructured(&mut alternatives, count, 0xc401 + count as u64);
        let mrow = measure_map(name, &alternatives, 6);
        println!(
            "map     {:<20} {:>5} gates  {:>4} LUTs off  {:>4} LUTs on  \
             {:>3} choice wins  {:>3} choices  depth {} -> {}",
            mrow.circuit,
            mrow.gates,
            mrow.luts_off,
            mrow.luts_on,
            mrow.choice_wins,
            mrow.choices_recorded,
            mrow.depth_off,
            mrow.depth_on
        );
        map_rows.push(mrow);
    }
    // the acceptance bar of choice-aware mapping: at least one circuit
    // must map strictly smaller with choices on, through nonzero
    // choice-derived cut wins (miter proofs already ran per circuit)
    assert!(
        map_rows
            .iter()
            .any(|r| r.luts_on < r.luts_off && r.choice_wins > 0),
        "choice-aware mapping reduced no circuit strictly"
    );

    let json_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                concat!(
                    "    {{\"circuit\": \"{}\", \"gates_before\": {}, \"gates_after\": {}, ",
                    "\"substitutions\": {}, \"invalidated_nodes\": {}, ",
                    "\"reenumerated_nodes\": {}, \"reenumerated_cuts\": {}, ",
                    "\"refresh_walked\": {}, ",
                    "\"seconds_per_pass\": {:.6}, \"gates_per_sec\": {:.0}}}"
                ),
                r.circuit,
                r.gates_before,
                r.gates_after,
                r.substitutions,
                r.cuts.invalidated_nodes,
                r.cuts.reenumerated_nodes,
                r.cuts.reenumerated_cuts,
                r.cuts.refresh_walked,
                r.seconds_per_pass,
                r.gates_per_sec
            )
        })
        .collect();
    let npn_json = format!(
        concat!(
            "{{\"functions\": {}, \"classes\": {}, ",
            "\"seconds_per_pass\": {:.6}, \"canonisations_per_sec\": {:.0}}}"
        ),
        npn.functions, npn.classes, npn.seconds_per_pass, npn.canonisations_per_sec
    );
    let isop_json = format!(
        concat!(
            "{{\"functions\": {}, \"inputs\": {}, \"cubes\": {}, ",
            "\"seconds_per_pass\": {:.6}, \"cover_pairs_per_sec\": {:.0}}}"
        ),
        isop_row.functions,
        isop_row.inputs,
        isop_row.cubes,
        isop_row.seconds_per_pass,
        isop_row.pairs_per_sec
    );
    let resub_networks: Vec<String> = resub_rows
        .iter()
        .map(|r| {
            format!(
                concat!(
                    "{{\"network\": \"{}\", \"gates_before\": {}, \"gates_after\": {}, ",
                    "\"visited\": {}, \"substitutions\": {}, ",
                    "\"seconds_per_pass\": {:.6}, \"visited_per_sec\": {:.0}}}"
                ),
                r.network,
                r.gates_before,
                r.gates_after,
                r.visited,
                r.substitutions,
                r.seconds_per_pass,
                r.visited_per_sec
            )
        })
        .collect();
    let resub_json = format!(
        concat!(
            "{{\"circuit\": \"multiplier_8\", \"max_leaves\": {}, \"max_inserts\": {}, ",
            "\"networks\": [\n    {}\n  ]}}"
        ),
        RESUB_LEAVES,
        RESUB_INSERTS,
        resub_networks.join(",\n    ")
    );
    let json = format!(
        "{{\n  \"bench\": \"rewrite_pass\",\n  \"npn\": {npn_json},\n  \"isop\": {isop_json},\n  \"rs\": {resub_json},\n  \"circuits\": [\n{}\n  ]\n}}\n",
        json_rows.join(",\n")
    );
    let sweep_json_rows: Vec<String> = sweep_rows
        .iter()
        .map(|r| {
            format!(
                concat!(
                    "    {{\"circuit\": \"{}\", \"gates_before\": {}, \"gates_after\": {}, ",
                    "\"proven_merges\": {}, \"skipped_pairs\": {}, \"sat_conflicts\": {}, ",
                    "\"seconds_per_sweep\": {:.6}, \"nodes_per_sec\": {:.0}}}"
                ),
                r.circuit,
                r.gates_before,
                r.gates_after,
                r.proven,
                r.skipped,
                r.sat_conflicts,
                r.seconds_per_sweep,
                r.nodes_per_sec
            )
        })
        .collect();
    let sweep_json = format!(
        "{{\n  \"bench\": \"sat_sweep_pass\",\n  \"circuits\": [\n{}\n  ]\n}}\n",
        sweep_json_rows.join(",\n")
    );
    let map_json_rows: Vec<String> = map_rows
        .iter()
        .map(|r| {
            format!(
                concat!(
                    "    {{\"circuit\": \"{}\", \"gates\": {}, ",
                    "\"luts_choices_off\": {}, \"depth_choices_off\": {}, ",
                    "\"luts_choices_on\": {}, \"depth_choices_on\": {}, ",
                    "\"choice_wins\": {}, \"choices_recorded\": {}, ",
                    "\"seconds_choices_on\": {:.6}}}"
                ),
                r.circuit,
                r.gates,
                r.luts_off,
                r.depth_off,
                r.luts_on,
                r.depth_on,
                r.choice_wins,
                r.choices_recorded,
                r.seconds_on
            )
        })
        .collect();
    let map_json = format!(
        "{{\n  \"bench\": \"choice_lut_mapping\",\n  \"circuits\": [\n{}\n  ]\n}}\n",
        map_json_rows.join(",\n")
    );
    // tracked baselines: only refresh on request, like BENCH_cuts.json
    glsx_bench::emit_json("BENCH_rewrite.json", &json);
    glsx_bench::emit_json("BENCH_sweep.json", &sweep_json);
    glsx_bench::emit_json("BENCH_map.json", &map_json);
}
