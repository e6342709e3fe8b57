//! Thread-parallel execution benchmarks (`BENCH_parallel.json`): serial
//! versus multi-thread wall time for every threaded path — bulk cut
//! enumeration and the portfolio flow — plus a `wide_simulation` row
//! measuring the 256-bit `SimBlock` path against one-word-at-a-time
//! scalar evaluation.
//!
//! Cut enumeration is timed twice because its speed-up depends on the
//! circuit's shape: every level is a barrier, so it pays on the shallow
//! `random_control(256, 200_000, 256, 1)` (depth 46) and loses on the
//! deep `mac_datapath(16, 4)`, whose levels hold a handful of gates each.
//! Two `lut_map` rows sit on either side of the mapper's own choice
//! between the lazy cut fill and bulk enumeration
//! (`uses_bulk_enumeration`): `mac_datapath(16, 4)`, 39 gates per
//! level, and `random_control(64, 20_000, 64, 1)`, about 500.  Each
//! records the path `lut_map` took, its wall time, and the two fills
//! timed on their own through `CutManager`: `cuts_of` on every gate
//! (serial side) against `enumerate` on the mapper's
//! `BULK_ENUMERATION_THREADS` (parallel side).  The two sides differ in
//! algorithm as well as in threads, so these rows stay outside the ≥2×
//! bar.
//!
//! Every parallel run is checked against its serial twin before it is
//! timed: cut arenas must be bit-identical, and the portfolio must return
//! the LUT counts of its three flows run one after another.  Timings
//! report the best of several runs; the headline `speedup` is serial best
//! over parallel best.
//!
//! Threaded cut rows run at `min(4, CPUs)` threads and never fewer than
//! two, so a two-CPU machine records two-thread numbers; the `lut_map`
//! rows enumerate on two threads, as the mapper does, and the portfolio
//! runs its three flows on three threads.  `available_parallelism` is
//! recorded in the JSON and the ≥2× speedup acceptance bar — over the
//! two `cut_enumeration` rows, the only threaded twins run at four
//! threads — is only enforced when at least four CPUs are actually
//! available (the CI runner class).  Setting
//! `GLSX_WRITE_BENCH_BASELINE=1` records the results at the repository
//! root.
//!
//! `--smoke` skips the timing loops: it runs cut enumeration at four
//! threads against the serial enumeration, the wide blocks against the
//! scalar sweep and the portfolio against its sequential flows once, on
//! small circuits — the CI guard of the parallel layer.

use glsx_benchmarks::arithmetic::{mac_datapath, multiplier_16};
use glsx_benchmarks::control::random_control;
use glsx_core::cuts::{CutManager, CutParams};
use glsx_core::lut_mapping::{
    lut_map, lut_map_stats, uses_bulk_enumeration, LutMapParams, BULK_ENUMERATION_THREADS,
};
use glsx_core::resubstitution::ResubNetwork;
use glsx_flow::{compress2rs, portfolio_best_luts, FlowOptions};
use glsx_network::views::network_depth;
use glsx_network::wordsim::WordSimulator;
use glsx_network::{convert_network, Aig, GateBuilder, Mig, Network, Xag};
use std::time::Instant;

/// Thread count of the smoke run and upper bound of the timed cut rows
/// (the CI runner class).
const THREADS: usize = 4;

/// Best-of-N wall time of `run`, with a fixed repetition budget.
fn best_seconds(mut run: impl FnMut(), repeats: u32, budget_ms: u128) -> f64 {
    let started = Instant::now();
    let mut best = f64::INFINITY;
    let mut runs = 0;
    while runs < repeats && (runs == 0 || started.elapsed().as_millis() < budget_ms) {
        let t = Instant::now();
        run();
        best = best.min(t.elapsed().as_secs_f64());
        runs += 1;
    }
    best
}

struct Row {
    component: &'static str,
    circuit: &'static str,
    gates: usize,
    serial_seconds: f64,
    parallel_seconds: f64,
    /// Threads of the parallel configuration (1 for the SIMD-only
    /// `wide_simulation` row, where the gain is block width, not
    /// threads).
    threads: usize,
    /// What a `lut_map` row adds: the path the mapper took and its time.
    mapping: Option<Mapping>,
}

struct Mapping {
    gates_per_level: f64,
    bulk: bool,
    seconds: f64,
}

impl Row {
    fn speedup(&self) -> f64 {
        self.serial_seconds / self.parallel_seconds
    }
}

/// Bulk cut enumeration: identical arenas (length, per-node sets, order)
/// at 1 and `threads` threads, then both sides timed from scratch.
fn bench_cuts(name: &'static str, aig: &Aig, threads: usize, timed: bool) -> Row {
    let params = CutParams {
        compute_truth: false,
        ..CutParams::default()
    };
    let mut reference = CutManager::new(params);
    reference.enumerate(aig, 1);
    let mut manager = CutManager::new(params);
    manager.enumerate(aig, threads);
    assert_eq!(
        reference.arena_len(),
        manager.arena_len(),
        "{name}: parallel enumeration arena diverged"
    );
    for node in aig.gate_nodes() {
        assert_eq!(
            reference.cuts_of(aig, node),
            manager.cuts_of(aig, node),
            "{name}: cut set of node {node} diverged"
        );
    }
    let (repeats, budget) = if timed { (10, 5_000) } else { (1, 1) };
    let serial_seconds = best_seconds(
        || {
            let mut m = CutManager::new(params);
            m.enumerate(aig, 1);
        },
        repeats,
        budget,
    );
    let parallel_seconds = best_seconds(
        || {
            let mut m = CutManager::new(params);
            m.enumerate(aig, threads);
        },
        repeats,
        budget,
    );
    Row {
        component: "cut_enumeration",
        circuit: name,
        gates: aig.num_gates(),
        serial_seconds,
        parallel_seconds,
        threads,
        mapping: None,
    }
}

/// `lut_map` at k = 6: the path the mapper selects for `aig` and its wall
/// time, then its two cut fills timed on their own — the lazy fill
/// (`cuts_of` on every gate, in the mapper's order) against bulk
/// enumeration on the mapper's worker count — after checking that both
/// give every gate the same cut set.
fn bench_lut_map(name: &'static str, aig: &Aig) -> Row {
    let threads = BULK_ENUMERATION_THREADS;
    let map_params = LutMapParams::with_lut_size(6);
    let params = CutParams {
        cut_size: map_params.lut_size,
        cut_limit: map_params.cut_limit,
        compute_truth: false,
    };
    let gates = aig.gate_nodes();
    let lazy_fill = || {
        let mut m = CutManager::new(params);
        for &node in &gates {
            m.cuts_of(aig, node);
        }
        m
    };
    let mut lazy = lazy_fill();
    let mut bulk = CutManager::new(params);
    bulk.enumerate(aig, threads);
    for &node in &gates {
        assert_eq!(
            lazy.cuts_of(aig, node),
            bulk.cuts_of(aig, node),
            "{name}: bulk cut set of node {node} diverged from the lazy fill"
        );
    }
    let (repeats, budget) = (15, 10_000);
    let seconds = best_seconds(
        || {
            lut_map(aig, &map_params);
        },
        repeats,
        budget,
    );
    let serial_seconds = best_seconds(
        || {
            lazy_fill();
        },
        repeats,
        budget,
    );
    let parallel_seconds = best_seconds(
        || {
            let mut m = CutManager::new(params);
            m.enumerate(aig, threads);
        },
        repeats,
        budget,
    );
    Row {
        component: "lut_map",
        circuit: name,
        gates: aig.num_gates(),
        serial_seconds,
        parallel_seconds,
        threads,
        mapping: Some(Mapping {
            gates_per_level: aig.num_gates() as f64 / f64::from(network_depth(aig).max(1)),
            bulk: uses_bulk_enumeration(aig),
            seconds,
        }),
    }
}

/// LUT counts of the portfolio's three flows run one after another: the
/// serial baseline of the portfolio row.
fn sequential_portfolio(aig: &Aig, lut_size: usize) -> [usize; 3] {
    fn flow_luts<N: Network + GateBuilder + ResubNetwork>(mut ntk: N, lut_size: usize) -> usize {
        compress2rs(&mut ntk, &FlowOptions::default());
        lut_map_stats(&ntk, &LutMapParams::with_lut_size(lut_size)).num_luts
    }
    [
        flow_luts(aig.clone(), lut_size),
        flow_luts(convert_network::<Aig, Mig>(aig), lut_size),
        flow_luts(convert_network::<Aig, Xag>(aig), lut_size),
    ]
}

/// Portfolio flow: its three representation flows, one thread each, must
/// return exactly the LUT counts of the flows run one after another, then
/// both sides are timed.
fn bench_portfolio(name: &'static str, aig: &Aig, lut_size: usize, timed: bool) -> Row {
    let options = FlowOptions::default();
    let parallel = portfolio_best_luts(aig, &options, lut_size);
    assert_eq!(
        parallel.luts_per_representation,
        sequential_portfolio(aig, lut_size),
        "{name}: portfolio diverged from its sequential flows"
    );
    let (repeats, budget) = if timed { (3, 30_000) } else { (1, 1) };
    let serial_seconds = best_seconds(
        || {
            sequential_portfolio(aig, lut_size);
        },
        repeats,
        budget,
    );
    let parallel_seconds = best_seconds(
        || {
            portfolio_best_luts(aig, &options, lut_size);
        },
        repeats,
        budget,
    );
    Row {
        component: "portfolio",
        circuit: name,
        gates: aig.num_gates(),
        serial_seconds,
        parallel_seconds,
        threads: 3,
        mapping: None,
    }
}

/// Wide `SimBlock` path: one 256-bit-block sweep must reproduce every
/// word of the scalar one-word-at-a-time sweep (the `SimBlock` lane
/// contract), then both are timed on the same pattern set.  Single
/// thread on both sides — the gain measured here is block width alone.
fn bench_wide_simulation(name: &'static str, aig: &Aig, words: usize, timed: bool) -> Row {
    let mut scalar = WordSimulator::random(aig, words, 0xbe9c_0002);
    let mut wide = WordSimulator::random(aig, words, 0xbe9c_0002);
    scalar.resimulate_scalar(aig);
    wide.resimulate(aig);
    for node in 0..aig.size() as u32 {
        for w in 0..words {
            assert_eq!(
                scalar.word(w, node),
                wide.word(w, node),
                "{name}: wide simulation diverged at node {node} word {w}"
            );
        }
    }
    let (repeats, budget) = if timed { (10, 3_000) } else { (1, 1) };
    let serial_seconds = best_seconds(|| scalar.resimulate_scalar(aig), repeats, budget);
    let parallel_seconds = best_seconds(|| wide.resimulate(aig), repeats, budget);
    Row {
        component: "wide_simulation",
        circuit: name,
        gates: aig.num_gates(),
        serial_seconds,
        parallel_seconds,
        threads: 1,
        mapping: None,
    }
}

fn available_cpus() -> usize {
    std::thread::available_parallelism()
        .map(|n| n.get())
        .unwrap_or(1)
}

/// `--smoke`: one untimed pass of every threaded component against its
/// serial twin, on circuits small enough for CI.
fn smoke() {
    let aig: Aig = multiplier_16();
    bench_cuts("multiplier_16", &aig, THREADS, false);
    bench_wide_simulation("multiplier_16", &aig, 16, false);
    let small: Aig = glsx_benchmarks::arithmetic::multiplier(6);
    bench_portfolio("multiplier_6", &small, 6, false);
    println!(
        "smoke: cut enumeration at {THREADS} threads, wide blocks and the \
         portfolio verified against their serial twins (bit-identity) on {} CPUs",
        available_cpus()
    );
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        smoke();
        return;
    }

    let cpus = available_cpus();
    let threads = cpus.clamp(2, THREADS);
    let m16: Aig = multiplier_16();
    let datapath: Aig = mac_datapath(16, 4);
    let shallow: Aig = random_control(256, 200_000, 256, 1);
    let wide: Aig = random_control(64, 20_000, 64, 1);

    let rows = [
        bench_wide_simulation("mac_datapath_16x4", &datapath, 64, true),
        bench_cuts("mac_datapath_16x4", &datapath, threads, true),
        bench_cuts("random_control_256x200k", &shallow, threads, true),
        bench_lut_map("mac_datapath_16x4", &datapath),
        bench_lut_map("random_control_64x20k", &wide),
        bench_portfolio("multiplier_16", &m16, 6, true),
    ];

    for row in &rows {
        println!(
            "{:<16} {:<24} {:>7} gates  serial {:>9.4}s  {}T {:>9.4}s  speedup {:>5.2}x",
            row.component,
            row.circuit,
            row.gates,
            row.serial_seconds,
            row.threads,
            row.parallel_seconds,
            row.speedup(),
        );
        if let Some(m) = &row.mapping {
            let cheaper = if row.speedup() > 1.0 { "bulk" } else { "lazy" };
            println!(
                "{:<16} {:.0} gates/level: lut_map took the {} fill ({cheaper} is cheaper) \
                 in {:.4}s",
                "",
                m.gates_per_level,
                if m.bulk { "bulk" } else { "lazy" },
                m.seconds,
            );
        }
    }

    // the acceptance bar: with real hardware parallelism, at least one
    // pass must be ≥2x faster at 4 threads on the ≥10k-gate circuit.  Only
    // threaded twins count: the single-thread wide_simulation row measures
    // SIMD width, the portfolio runs three threads, and the lut_map rows
    // compare two fills, not thread counts
    let best = rows
        .iter()
        .filter(|r| r.mapping.is_none() && r.threads >= THREADS)
        .map(|r| r.speedup())
        .fold(f64::NEG_INFINITY, f64::max);
    if cpus >= THREADS {
        assert!(
            best >= 2.0,
            "no component reached a 2x speedup at {THREADS} threads on {cpus} CPUs \
             (best {best:.2}x)"
        );
    } else {
        println!(
            "({cpus} CPU(s) available: speedup bar not enforced, results recorded \
             for reference only)"
        );
    }

    let json_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            let mapping = r.mapping.as_ref().map_or(String::new(), |m| {
                format!(
                    concat!(
                        ", \"gates_per_level\": {:.1}, \"path\": \"{}\", ",
                        "\"lut_map_seconds\": {:.6}, \"selected_is_cheaper\": {}"
                    ),
                    m.gates_per_level,
                    if m.bulk { "bulk" } else { "lazy" },
                    m.seconds,
                    m.bulk == (r.speedup() > 1.0),
                )
            });
            format!(
                concat!(
                    "    {{\"component\": \"{}\", \"circuit\": \"{}\", \"gates\": {}, ",
                    "\"serial_seconds\": {:.6}, \"parallel_seconds\": {:.6}, ",
                    "\"threads\": {}, \"speedup\": {:.3}{}}}"
                ),
                r.component,
                r.circuit,
                r.gates,
                r.serial_seconds,
                r.parallel_seconds,
                r.threads,
                r.speedup(),
                mapping,
            )
        })
        .collect();
    let json = format!(
        concat!(
            "{{\n  \"bench\": \"parallel_execution\",\n",
            "  \"available_parallelism\": {},\n",
            "  \"speedup_bar_enforced\": {},\n",
            "  \"components\": [\n{}\n  ]\n}}\n"
        ),
        cpus,
        cpus >= THREADS,
        json_rows.join(",\n")
    );
    glsx_bench::emit_json("BENCH_parallel.json", &json);
}
