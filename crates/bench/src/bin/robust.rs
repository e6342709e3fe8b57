//! Resilient-flow benchmarks (`BENCH_robust.json`): the cost of the
//! guarded executor over the plain flow, and its recovery behaviour
//! under the standard fault plan.
//!
//! Two sections:
//!
//! * **Overhead.**  Every circuit of the arithmetic suite runs the
//!   `compress2rs` script unguarded ([`run_script`]) and guarded
//!   ([`run_script_guarded`]) with verification off — i.e. the always-on
//!   resilience machinery alone: per-step snapshots, the `catch_unwind`
//!   boundary and report bookkeeping.  Both
//!   runs must produce the identical network; the acceptance bar is a
//!   suite-aggregate overhead of **≤ 10 %**.  Two more guarded runs verify
//!   every step against the flow input: by random simulation
//!   (`simulation_seconds`) and by the sweeping SAT proof
//!   (`verified_seconds`).  On `multiplier_8` the proof must cost at most
//!   **3 ×** the simulation.
//! * **Recovery.**  One flow runs under the standard fault plan
//!   `panic@rewrite:1,exhaust@fraig:1,unknown@verify:2` with per-step
//!   miters: the injected panic and the injected verification unknown
//!   must each force a rollback, the injected exhaustion must stop its
//!   step early without failing it, the remaining steps must still run,
//!   and the final miter against the flow input must be green.
//!
//! Timings report the best of several runs; the unguarded and the
//! guarded flow are timed in alternating pairs, so the overhead compares
//! runs made side by side.  Setting
//! `GLSX_WRITE_BENCH_BASELINE=1` records the results at the repository
//! root.  `--smoke` skips the timing loops and runs the recovery section
//! (plus a guarded-equals-unguarded identity check) on a small circuit,
//! and the fault-free miter-verified flow on `multiplier_8` — the CI
//! guard of the resilience layer.

use glsx_benchmarks::arithmetic::{adder, barrel_shifter, multiplier, square};
use glsx_flow::{
    run_script, run_script_guarded, FaultPlan, FlowOptions, FlowReport, FlowScript, GuardOptions,
    VerifyMode,
};
use glsx_network::{Aig, Network};
use std::time::Instant;

/// The fault plan exercised by the recovery section (and the CI smoke
/// step): one pass panic, one budget exhaustion, one verification
/// unknown.
const STANDARD_FAULT_PLAN: &str = "panic@rewrite:1,exhaust@fraig:1,unknown@verify:2";

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

/// Best-of-N wall times of `first` and `second`, timed in alternating
/// pairs under one repetition budget: even repetitions run `first` first,
/// odd ones `second` first, so a drift in the machine's speed reaches
/// both sides alike.
fn best_paired_seconds(
    mut first: impl FnMut(),
    mut second: impl FnMut(),
    repeats: u32,
    budget_ms: u128,
) -> (f64, f64) {
    fn time(run: &mut impl FnMut(), best: &mut f64) {
        let t = Instant::now();
        run();
        *best = best.min(t.elapsed().as_secs_f64());
    }
    let started = Instant::now();
    let (mut best_first, mut best_second) = (f64::INFINITY, f64::INFINITY);
    let mut runs = 0;
    while runs < repeats && (runs == 0 || started.elapsed().as_millis() < budget_ms) {
        if runs % 2 == 0 {
            time(&mut first, &mut best_first);
            time(&mut second, &mut best_second);
        } else {
            time(&mut second, &mut best_second);
            time(&mut first, &mut best_first);
        }
        runs += 1;
    }
    (best_first, best_second)
}

fn script() -> FlowScript {
    FlowScript::parse("bz; rs -c 6; rw; rs -c 6 -d 2; bz; fraig; rs -c 8; rwz; bz").unwrap()
}

/// The guard whose cost the ≤10% bar applies to: snapshot checkpoints and
/// panic isolation on, verification off.
fn machinery_guard() -> GuardOptions {
    guard(VerifyMode::None)
}

fn guard(verify: VerifyMode) -> GuardOptions {
    GuardOptions {
        verify,
        ..GuardOptions::default()
    }
}

/// Per-step proofs may cost at most this many times per-step simulation
/// on `multiplier_8`.
const PROOF_OVER_SIMULATION_BAR: f64 = 3.0;

struct Row {
    circuit: &'static str,
    gates: usize,
    unguarded_seconds: f64,
    guarded_seconds: f64,
    simulation_seconds: f64,
    verified_seconds: f64,
}

impl Row {
    fn overhead(&self) -> f64 {
        self.guarded_seconds / self.unguarded_seconds - 1.0
    }
}

/// Guarded (verification off) and unguarded flows must produce the
/// identical network; then all four configurations are timed.
fn bench_overhead(name: &'static str, source: &Aig, timed: bool) -> Row {
    let options = FlowOptions::default();
    let mut plain = source.clone();
    let plain_stats = run_script(&mut plain, &script(), &options);
    let mut guarded = source.clone();
    let report = run_script_guarded(&mut guarded, &script(), &options, &machinery_guard());
    assert_eq!(report.rollbacks, 0, "{name}: fault-free flow rolled back");
    assert_eq!(
        report.substitutions, plain_stats.substitutions,
        "{name}: guarded flow diverged from the plain flow"
    );
    assert_eq!(
        (guarded.num_gates(), guarded.po_signals()),
        (plain.num_gates(), plain.po_signals()),
        "{name}: guarded network diverged from the plain flow"
    );
    let (repeats, budget) = if timed { (7, 10_000) } else { (1, 1) };
    let (unguarded_seconds, guarded_seconds) = best_paired_seconds(
        || {
            let mut ntk = source.clone();
            run_script(&mut ntk, &script(), &options);
        },
        || {
            let mut ntk = source.clone();
            run_script_guarded(&mut ntk, &script(), &options, &machinery_guard());
        },
        repeats,
        2 * budget,
    );
    let simulation_seconds = best_seconds(
        || {
            let mut ntk = source.clone();
            run_script_guarded(
                &mut ntk,
                &script(),
                &options,
                &guard(VerifyMode::Simulation),
            );
        },
        repeats,
        budget,
    );
    let verified_seconds = best_seconds(
        || {
            let mut ntk = source.clone();
            run_script_guarded(&mut ntk, &script(), &options, &guard(VerifyMode::Miter));
        },
        repeats,
        budget,
    );
    Row {
        circuit: name,
        gates: source.num_gates(),
        unguarded_seconds,
        guarded_seconds,
        simulation_seconds,
        verified_seconds,
    }
}

/// Runs the standard fault plan with per-step miters and checks every
/// recovery path fired as planned.
fn recovery_run(source: &Aig) -> FlowReport {
    let mut ntk = source.clone();
    let report = run_script_guarded(
        &mut ntk,
        &script(),
        &FlowOptions::default(),
        &GuardOptions {
            fault_plan: FaultPlan::parse(STANDARD_FAULT_PLAN).unwrap(),
            ..GuardOptions::default()
        },
    );
    assert!(
        report.rollbacks >= 2,
        "the injected panic and the injected unknown must each roll back: {report:?}"
    );
    assert_eq!(report.panics, 1, "{report:?}");
    assert_eq!(report.verify_failures, 1, "{report:?}");
    assert_eq!(
        report.exhausted_steps, 1,
        "the injected exhaustion must stop its step early, not fail it: {report:?}"
    );
    assert!(
        report.committed >= script().steps().len() - report.rollbacks,
        "the remaining steps must keep running: {report:?}"
    );
    assert_eq!(
        report.final_verify,
        Some(true),
        "never-corrupt contract: the final miter must be green: {report:?}"
    );
    report
}

/// The fault-free flow with a proof after every step: every step must
/// commit and the final miter must be green.
fn verified_run(name: &str, source: &Aig) -> FlowReport {
    let mut ntk = source.clone();
    let report = run_script_guarded(
        &mut ntk,
        &script(),
        &FlowOptions::default(),
        &guard(VerifyMode::Miter),
    );
    assert_eq!(
        report.committed,
        script().steps().len(),
        "{name}: every proven step commits: {report:?}"
    );
    assert_eq!(report.final_verify, Some(true), "{name}: {report:?}");
    report
}

/// `--smoke`: the recovery section plus a guarded-equals-unguarded
/// identity check on a small circuit, and the miter-verified flow on
/// `multiplier_8`.
fn smoke() {
    let aig: Aig = multiplier(6);
    bench_overhead("multiplier_6", &aig, false);
    let report = recovery_run(&aig);
    let verified = verified_run("multiplier_8", &multiplier(8));
    println!(
        "smoke: guarded flow recovered from `{STANDARD_FAULT_PLAN}` \
         ({} rollbacks, {} committed steps, final miter green), the \
         fault-free guarded flow is identical to the plain flow, and \
         multiplier_8 commits {} proven steps",
        report.rollbacks, report.committed, verified.committed
    );
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        smoke();
        return;
    }

    let suite: Vec<(&'static str, Aig)> = vec![
        ("adder_32", adder(32)),
        ("barrel_shifter_16", barrel_shifter(16)),
        ("multiplier_8", multiplier(8)),
        ("square_10", square(10)),
    ];

    let rows: Vec<Row> = suite
        .iter()
        .map(|(name, aig)| bench_overhead(name, aig, true))
        .collect();

    for row in &rows {
        println!(
            "{:<18} {:>6} gates  unguarded {:>9.4}s  guarded {:>9.4}s  \
             (+{:>5.1}%)  simulated {:>9.4}s  verified {:>9.4}s",
            row.circuit,
            row.gates,
            row.unguarded_seconds,
            row.guarded_seconds,
            100.0 * row.overhead(),
            row.simulation_seconds,
            row.verified_seconds
        );
    }

    // the acceptance bar: checkpointing + panic isolation cost ≤ 10%
    // over the whole suite
    let unguarded_total: f64 = rows.iter().map(|r| r.unguarded_seconds).sum();
    let guarded_total: f64 = rows.iter().map(|r| r.guarded_seconds).sum();
    let overhead = guarded_total / unguarded_total - 1.0;
    assert!(
        overhead <= 0.10,
        "guarded-flow overhead {:.1}% exceeds the 10% bar \
         (unguarded {unguarded_total:.4}s, guarded {guarded_total:.4}s)",
        100.0 * overhead
    );
    println!("suite overhead: +{:.2}% (bar: 10%)", 100.0 * overhead);

    // the proof bar: per-step proofs within 3x per-step simulation
    let (name, source) = &suite[2];
    verified_run(name, source);
    let proof = &rows[2];
    let proof_ratio = proof.verified_seconds / proof.simulation_seconds;
    assert!(
        proof_ratio <= PROOF_OVER_SIMULATION_BAR,
        "{name}: per-step proofs take {:.4}s, {proof_ratio:.2}x the {:.4}s of \
         per-step simulation (bar: {PROOF_OVER_SIMULATION_BAR}x)",
        proof.verified_seconds,
        proof.simulation_seconds
    );
    println!("{name}: proof / simulation {proof_ratio:.2}x (bar: {PROOF_OVER_SIMULATION_BAR}x)");

    let recovery = recovery_run(source);

    let json_rows: Vec<String> = rows
        .iter()
        .map(|r| {
            format!(
                concat!(
                    "    {{\"circuit\": \"{}\", \"gates\": {}, ",
                    "\"unguarded_seconds\": {:.6}, \"guarded_seconds\": {:.6}, ",
                    "\"simulation_seconds\": {:.6}, \"verified_seconds\": {:.6}, ",
                    "\"overhead\": {:.4}}}"
                ),
                r.circuit,
                r.gates,
                r.unguarded_seconds,
                r.guarded_seconds,
                r.simulation_seconds,
                r.verified_seconds,
                r.overhead()
            )
        })
        .collect();
    let json = format!(
        concat!(
            "{{\n  \"bench\": \"resilient_flow\",\n",
            "  \"suite_overhead\": {:.4},\n",
            "  \"overhead_bar\": 0.10,\n",
            "  \"proof_over_simulation\": {:.4},\n",
            "  \"proof_over_simulation_bar\": {:.1},\n",
            "  \"circuits\": [\n{}\n  ],\n",
            "  \"recovery\": {{\n",
            "    \"fault_plan\": \"{}\",\n",
            "    \"circuit\": \"{}\",\n",
            "    \"steps\": {},\n",
            "    \"committed\": {},\n",
            "    \"rollbacks\": {},\n",
            "    \"panics\": {},\n",
            "    \"verify_failures\": {},\n",
            "    \"exhausted_steps\": {},\n",
            "    \"substitutions\": {},\n",
            "    \"final_miter_green\": {}\n",
            "  }}\n}}\n"
        ),
        overhead,
        proof_ratio,
        PROOF_OVER_SIMULATION_BAR,
        json_rows.join(",\n"),
        STANDARD_FAULT_PLAN,
        name,
        recovery.steps.len(),
        recovery.committed,
        recovery.rollbacks,
        recovery.panics,
        recovery.verify_failures,
        recovery.exhausted_steps,
        recovery.substitutions,
        recovery.final_verify == Some(true)
    );
    glsx_bench::emit_json("BENCH_robust.json", &json);
}
