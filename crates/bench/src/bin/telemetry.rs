//! Telemetry benchmarks (`BENCH_telemetry.json`): the cost of the tracing
//! hooks when telemetry is off, the purity of traced runs, and the
//! concurrency an exported Chrome trace actually exhibits.
//!
//! The off-mode bar is compositional: every telemetry hook on a disabled
//! tracer is one branch on an `Option` discriminant (`disabled_hook_ns`,
//! microbenched below), and the number of hooks a flow crosses is bounded
//! by its budget ticks (one candidate is at most one batch-span tick)
//! plus twice its full-mode span count (open + close) plus a small
//! per-step constant.  The product is the worst-case time the telemetry
//! layer can add to an untraced flow; it must stay ≤2% of the measured
//! flow runtime.  Setting `GLSX_WRITE_BENCH_BASELINE=1` records the
//! results (and a sample Chrome trace of a portfolio run, whose three
//! flows run on three threads, `BENCH_telemetry_trace.json`) at the
//! repository root.
//!
//! `--smoke` skips the timing loops: it runs a 7-step guarded flow under
//! a full tracer (honouring `GLSX_TRACE` when set) and asserts the
//! exported Chrome trace parses back and covers every step — the CI
//! guard of the telemetry layer.

use std::hint::black_box;
use std::time::Instant;

use glsx_benchmarks::arithmetic::{adder, multiplier};
use glsx_flow::{
    compress2rs_script, portfolio_best_luts_traced, run_script_guarded_traced, run_script_traced,
    FlowOptions, FlowScript, GuardOptions, VerifyMode,
};
use glsx_network::telemetry::{
    concurrent_lanes, parse_chrome_trace, spans_well_nested, TraceMode, Tracer,
};
use glsx_network::{Aig, Network};

/// Off-mode overhead acceptance bar, in percent of flow runtime.
const OVERHEAD_BAR_PERCENT: f64 = 2.0;

/// The 7-step smoke flow: every pass kind appears at least once.
const SMOKE_SCRIPT: &str = "bz; rw; rs -c 6; rf; fraig; rwz; bz";

fn median(mut values: Vec<f64>) -> f64 {
    values.sort_by(f64::total_cmp);
    values[values.len() / 2]
}

/// Nanoseconds per telemetry hook on a disabled tracer: a span open/drop
/// and a batch-gate query per iteration, so two hooks each.
fn disabled_hook_ns() -> f64 {
    let tracer = Tracer::off();
    const CALLS: u32 = 4_000_000;
    let start = Instant::now();
    for i in 0..CALLS {
        let _ = black_box(tracer.span(black_box("probe")));
        black_box(tracer.batches_enabled());
        black_box(i);
    }
    start.elapsed().as_nanos() as f64 / f64::from(CALLS) / 2.0
}

fn run_smoke() {
    // honour the GLSX_TRACE knob CI sets, but never run the smoke blind
    let mode = std::env::var("GLSX_TRACE")
        .map(|v| TraceMode::from_env_value(&v))
        .unwrap_or(TraceMode::Full);
    let mode = if mode.spans() { mode } else { TraceMode::Full };
    let tracer = Tracer::new(mode);
    let script = FlowScript::parse(SMOKE_SCRIPT).expect("smoke script is well-formed");
    let mut ntk: Aig = multiplier(3);
    let report = run_script_guarded_traced(
        &mut ntk,
        &script,
        &FlowOptions::default(),
        &GuardOptions::default(),
        &tracer,
    );
    assert_eq!(
        report.committed,
        script.steps().len(),
        "every smoke step must commit: {report:?}"
    );
    let exported = tracer.chrome_trace_json();
    let spans = parse_chrome_trace(&exported).expect("the exported trace parses back");
    for step in &report.steps {
        let name = format!("step:{}", step.site);
        assert!(
            spans.iter().any(|s| s.name == name),
            "the exported trace covers every step (missing {name})"
        );
        assert!(
            step.duration_seconds > 0.0,
            "steps carry wall-clock durations: {step:?}"
        );
        assert!(
            !step.spans.is_empty(),
            "steps carry their span trees: {step:?}"
        );
    }
    assert!(
        spans_well_nested(&tracer.events()),
        "every lane's spans must nest"
    );
    println!(
        "telemetry smoke: {}-step flow traced, {} spans exported, every step covered",
        script.steps().len(),
        spans.len()
    );
}

fn main() {
    if std::env::args().any(|a| a == "--smoke") {
        run_smoke();
        return;
    }

    let source: Aig = multiplier(4);
    let script = compress2rs_script();
    let options = FlowOptions::default();

    // --- purity: a fully traced run is bit-identical to the untraced one
    let mut untraced = source.clone();
    run_script_traced(&mut untraced, &script, &options, &Tracer::off());
    let tracer = Tracer::new(TraceMode::Full);
    let mut traced = source.clone();
    run_script_traced(&mut traced, &script, &options, &tracer);
    assert_eq!(
        traced.num_gates(),
        untraced.num_gates(),
        "tracing must not change the flow"
    );
    assert_eq!(traced.po_signals(), untraced.po_signals());
    let span_events = tracer.events().len();
    assert!(span_events > 0, "a full tracer records the flow");
    assert!(spans_well_nested(&tracer.events()));

    // --- hook count: budget ticks (≥ batch ticks) + span open/close
    let mut counted = source.clone();
    let tick_report = run_script_guarded_traced(
        &mut counted,
        &script,
        &options,
        &GuardOptions {
            verify: VerifyMode::None,
            ..GuardOptions::default()
        },
        &Tracer::off(),
    );
    let hook_count =
        tick_report.ticks_spent + 2 * span_events as u64 + 4 * script.steps().len() as u64;

    // --- untraced flow runtime, median of 5
    let samples: Vec<f64> = (0..5)
        .map(|_| {
            let mut ntk = source.clone();
            let start = Instant::now();
            run_script_traced(&mut ntk, &script, &options, &Tracer::off());
            start.elapsed().as_secs_f64()
        })
        .collect();
    let flow_seconds = median(samples);

    let hook_ns = disabled_hook_ns();
    let overhead_percent = hook_count as f64 * hook_ns / (flow_seconds * 1e9) * 100.0;
    println!(
        "off-mode: {hook_ns:.2} ns/hook × {hook_count} hooks over {flow_seconds:.4} s flow \
         = {overhead_percent:.4}% overhead (bar {OVERHEAD_BAR_PERCENT}%)"
    );
    assert!(
        overhead_percent <= OVERHEAD_BAR_PERCENT,
        "disabled telemetry must cost ≤{OVERHEAD_BAR_PERCENT}% of flow runtime, \
         got {overhead_percent:.4}%"
    );

    // --- concurrency: a portfolio trace shows overlapping lanes
    let portfolio_input: Aig = adder(5);
    let untraced_portfolio =
        portfolio_best_luts_traced(&portfolio_input, &options, 6, &Tracer::off());
    let portfolio_tracer = Tracer::new(TraceMode::Full);
    let traced_portfolio =
        portfolio_best_luts_traced(&portfolio_input, &options, 6, &portfolio_tracer);
    assert_eq!(
        traced_portfolio, untraced_portfolio,
        "tracing must not change the portfolio"
    );
    assert!(spans_well_nested(&portfolio_tracer.events()));
    let trace_json = portfolio_tracer.chrome_trace_json();
    let portfolio_spans = parse_chrome_trace(&trace_json).expect("the exported trace parses back");
    let lanes = concurrent_lanes(&portfolio_spans);
    println!(
        "portfolio: {} spans on {lanes} concurrent lanes, winner {}",
        portfolio_spans.len(),
        traced_portfolio.winner
    );
    assert!(
        lanes >= 2,
        "a portfolio trace must show ≥2 concurrent lanes, got {lanes}"
    );

    let json = format!(
        concat!(
            "{{\n  \"bench\": \"telemetry\",\n",
            "  \"disabled_hook_ns\": {:.3},\n",
            "  \"hook_count\": {},\n",
            "  \"flow_seconds\": {:.6},\n",
            "  \"off_mode_overhead_percent\": {:.4},\n",
            "  \"overhead_bar_percent\": {},\n",
            "  \"traced_bit_identical\": true,\n",
            "  \"span_events\": {},\n",
            "  \"portfolio_concurrent_lanes\": {},\n",
            "  \"spans_well_nested\": true\n}}\n"
        ),
        hook_ns,
        hook_count,
        flow_seconds,
        overhead_percent,
        OVERHEAD_BAR_PERCENT,
        span_events,
        lanes
    );
    glsx_bench::emit_json("BENCH_telemetry.json", &json);
    glsx_bench::emit_json("BENCH_telemetry_trace.json", &trace_json);
}
