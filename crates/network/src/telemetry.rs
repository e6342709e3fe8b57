//! Structured tracing spans and a unified metrics registry: the
//! zero-cost-when-off observability substrate of the whole flow.
//!
//! The same argument that makes one generic optimisation engine cover
//! every network type makes one generic *instrumentation* layer cover
//! every pass: all six passes, the SAT solver, the parallel execution
//! tiers and the guarded executor report through a single [`Tracer`]
//! handle, exactly like [`Budget`](crate::budget::Budget) threaded one
//! effort-accounting type through all of them.
//!
//! Three pieces:
//!
//! * **Spans** — [`Tracer::span`] records nested pass/phase/batch
//!   intervals with monotonic timestamps (nanoseconds since the tracer
//!   was created) and per-thread *lane* ids, so parallel portfolio jobs
//!   show up as genuinely concurrent lanes in a trace viewer.  A disabled tracer costs **one branch and no
//!   allocation** per hook — the `Off` handle is a `None` discriminant
//!   and [`SpanGuard`]'s drop is empty for it.
//! * **Metrics** — a [`MetricsRegistry`] of named monotonic counters and
//!   gauges.  Existing typed stats structs (`RewriteStats`,
//!   `SweepStats`, `SolverStats`, …) keep their types and *absorb* into
//!   the registry through the one-method [`MetricsSource`] trait, so
//!   every pass reports through the same pipe.
//! * **Export** — [`Tracer::chrome_trace_json`] writes the Chrome trace
//!   event format (loadable in Perfetto / `chrome://tracing`) and
//!   [`Tracer::metrics_json`] a flat metrics dump.  A minimal JSON
//!   parser ([`parse_json`], [`parse_chrome_trace`]) lets tests and CI
//!   validate exported traces without external dependencies.
//!
//! The tracing mode is environment-driven: `GLSX_TRACE=spans` records
//! spans only, `counters` metrics only, `full` both plus fine-grained
//! candidate-batch spans.  [`global()`] reads the variable once and
//! hands out a `&'static Tracer`, so the standard (untraced) entry
//! points of every pass observe the knob without any signature change.
//!
//! **Invariant:** tracing never perturbs results.  Traced runs are
//! bit-identical to untraced runs (property-tested); the tracer records
//! observations and is never consulted for decisions.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU32, AtomicU8, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Instant;

/// What a [`Tracer`] records (driven by `GLSX_TRACE`).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum TraceMode {
    /// Record nothing; every hook is a single branch.
    #[default]
    Off,
    /// Record pass/phase spans only (`GLSX_TRACE=spans`).
    Spans,
    /// Record metrics only (`GLSX_TRACE=counters`).
    Counters,
    /// Record spans, metrics *and* fine-grained candidate-batch spans
    /// (`GLSX_TRACE=full`).
    Full,
}

impl TraceMode {
    /// Parses a `GLSX_TRACE` value; unknown values mean [`TraceMode::Off`].
    pub fn from_env_value(value: &str) -> TraceMode {
        match value {
            "spans" => TraceMode::Spans,
            "counters" => TraceMode::Counters,
            "full" => TraceMode::Full,
            _ => TraceMode::Off,
        }
    }

    /// `true` when pass/phase spans are recorded.
    #[inline]
    pub fn spans(self) -> bool {
        matches!(self, TraceMode::Spans | TraceMode::Full)
    }

    /// `true` when counters/gauges are recorded.
    #[inline]
    pub fn counters(self) -> bool {
        matches!(self, TraceMode::Counters | TraceMode::Full)
    }

    /// `true` when fine-grained candidate-batch spans are recorded.
    #[inline]
    pub fn batches(self) -> bool {
        matches!(self, TraceMode::Full)
    }
}

/// Per-step span filtering (the `-trace` flow-script flag): a script
/// that flags *some* steps suppresses span recording on the others and
/// forces it (in any armed mode) on the flagged ones.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum SpanOverride {
    /// Mode decides (the default).
    #[default]
    ModeDefault,
    /// Record no spans regardless of mode.
    Suppress,
    /// Record spans regardless of mode (as long as the tracer is armed).
    Force,
}

const OVERRIDE_DEFAULT: u8 = 0;
const OVERRIDE_SUPPRESS: u8 = 1;
const OVERRIDE_FORCE: u8 = 2;

/// One closed span: a named interval on a thread lane, timestamps in
/// nanoseconds since the owning tracer was created.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct SpanEvent {
    /// Span name (pass, phase or batch label).
    pub name: String,
    /// Thread lane the span ran on (see [`lane_id`]).
    pub lane: u32,
    /// Start, nanoseconds since the tracer's epoch.
    pub start_ns: u64,
    /// End, nanoseconds since the tracer's epoch.
    pub end_ns: u64,
}

/// Stable small integer per thread: `std::thread::ThreadId` has no
/// public numeric accessor, so lanes are assigned from a process-wide
/// counter on first use per thread.  Lane 0 is whichever thread asked
/// first (the main thread in practice).
pub fn lane_id() -> u32 {
    static NEXT_LANE: AtomicU32 = AtomicU32::new(0);
    thread_local! {
        static LANE: u32 = NEXT_LANE.fetch_add(1, Ordering::Relaxed);
    }
    LANE.with(|lane| *lane)
}

/// Anything that can pour its numbers into a [`MetricsRegistry`].
///
/// The existing typed stats structs implement this so they keep their
/// types *and* report through the uniform pipe; names are short local
/// identifiers (`"substitutions"`, `"conflicts"`) that the registry
/// prefixes with the absorbing pass (`"rewrite.substitutions"`).
pub trait MetricsSource {
    /// Calls `visit` once per metric with its local name and value.
    fn visit_metrics(&self, visit: &mut dyn FnMut(&str, u64));
}

/// Named monotonic counters and gauges, sorted deterministically.
///
/// Counters accumulate across absorptions ([`MetricsRegistry::add_counter`]
/// adds); gauges are last-write-wins level readings
/// ([`MetricsRegistry::set_gauge`]).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct MetricsRegistry {
    counters: BTreeMap<String, u64>,
    gauges: BTreeMap<String, u64>,
}

impl MetricsRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Adds `value` to the monotonic counter `name` (creating it at 0).
    pub fn add_counter(&mut self, name: &str, value: u64) {
        *self.counters.entry(name.to_string()).or_insert(0) += value;
    }

    /// Sets the gauge `name` to `value` (last write wins).
    pub fn set_gauge(&mut self, name: &str, value: u64) {
        self.gauges.insert(name.to_string(), value);
    }

    /// Current value of counter `name` (0 when absent).
    pub fn counter(&self, name: &str) -> u64 {
        self.counters.get(name).copied().unwrap_or(0)
    }

    /// Current value of gauge `name`.
    pub fn gauge(&self, name: &str) -> Option<u64> {
        self.gauges.get(name).copied()
    }

    /// `true` when no counter or gauge has ever been written.
    pub fn is_empty(&self) -> bool {
        self.counters.is_empty() && self.gauges.is_empty()
    }

    /// Pours every metric of `source` into this registry as counters
    /// named `prefix.name`.
    pub fn absorb(&mut self, prefix: &str, source: &dyn MetricsSource) {
        source.visit_metrics(&mut |name, value| {
            *self.counters.entry(format!("{prefix}.{name}")).or_insert(0) += value;
        });
    }

    /// Sorted snapshot of all counters (name, value).
    pub fn counter_snapshot(&self) -> Vec<(String, u64)> {
        self.counters.iter().map(|(k, v)| (k.clone(), *v)).collect()
    }

    /// Counter increments between two [`MetricsRegistry::counter_snapshot`]s
    /// (entries with a zero delta are dropped).  Both inputs are sorted,
    /// so this is a linear merge.
    pub fn counter_deltas(before: &[(String, u64)], after: &[(String, u64)]) -> Vec<(String, u64)> {
        let mut deltas = Vec::new();
        let mut b = before.iter().peekable();
        for (name, value) in after {
            let mut base = 0;
            while let Some((bn, bv)) = b.peek() {
                match bn.as_str().cmp(name.as_str()) {
                    std::cmp::Ordering::Less => {
                        b.next();
                    }
                    std::cmp::Ordering::Equal => {
                        base = *bv;
                        b.next();
                        break;
                    }
                    std::cmp::Ordering::Greater => break,
                }
            }
            if *value > base {
                deltas.push((name.clone(), value - base));
            }
        }
        deltas
    }

    /// Flat JSON dump: `{"counters": {...}, "gauges": {...}}`.
    pub fn to_json(&self) -> String {
        fn section(map: &BTreeMap<String, u64>) -> String {
            let rows: Vec<String> = map
                .iter()
                .map(|(k, v)| format!("    \"{}\": {}", escape_json(k), v))
                .collect();
            if rows.is_empty() {
                String::new()
            } else {
                format!("\n{}\n  ", rows.join(",\n"))
            }
        }
        format!(
            "{{\n  \"counters\": {{{}}},\n  \"gauges\": {{{}}}\n}}\n",
            section(&self.counters),
            section(&self.gauges)
        )
    }
}

#[derive(Debug)]
struct Shared {
    start: Instant,
    mode: TraceMode,
    span_override: AtomicU8,
    events: Mutex<Vec<SpanEvent>>,
    metrics: Mutex<MetricsRegistry>,
    lane_names: Mutex<BTreeMap<u32, String>>,
}

impl Shared {
    #[inline]
    fn elapsed_ns(&self) -> u64 {
        self.start.elapsed().as_nanos() as u64
    }
}

/// The tracing handle threaded through passes.
///
/// Cheap to clone (an `Option<Arc>`); the disabled handle
/// ([`Tracer::off`]) is a `None` discriminant, so every hook on it is a
/// single branch with no allocation.  All recording methods take
/// `&self` — the tracer is interior-mutable and `Sync`, so parallel
/// workers share one handle and their spans land on distinct lanes.
#[derive(Clone, Debug, Default)]
pub struct Tracer {
    inner: Option<Arc<Shared>>,
}

impl Tracer {
    /// The disabled tracer: records nothing, costs one branch per hook.
    pub const fn off() -> Tracer {
        Tracer { inner: None }
    }

    /// An armed tracer recording according to `mode`
    /// ([`TraceMode::Off`] yields the disabled handle).
    pub fn new(mode: TraceMode) -> Tracer {
        if mode == TraceMode::Off {
            return Tracer::off();
        }
        Tracer {
            inner: Some(Arc::new(Shared {
                start: Instant::now(),
                mode,
                span_override: AtomicU8::new(OVERRIDE_DEFAULT),
                events: Mutex::new(Vec::new()),
                metrics: Mutex::new(MetricsRegistry::new()),
                lane_names: Mutex::new(BTreeMap::new()),
            })),
        }
    }

    /// A tracer armed from the `GLSX_TRACE` environment variable
    /// (`spans` | `counters` | `full`; absent or unknown ⇒ off).
    pub fn from_env() -> Tracer {
        match std::env::var("GLSX_TRACE") {
            Ok(value) => Tracer::new(TraceMode::from_env_value(&value)),
            Err(_) => Tracer::off(),
        }
    }

    /// `true` when the tracer records anything at all.
    #[inline]
    pub fn is_enabled(&self) -> bool {
        self.inner.is_some()
    }

    /// The mode this tracer was armed with.
    pub fn mode(&self) -> TraceMode {
        self.inner.as_ref().map_or(TraceMode::Off, |s| s.mode)
    }

    #[inline]
    fn spans_on(&self) -> Option<&Shared> {
        let shared = self.inner.as_deref()?;
        match shared.span_override.load(Ordering::Relaxed) {
            OVERRIDE_SUPPRESS => None,
            OVERRIDE_FORCE => Some(shared),
            _ => {
                if shared.mode.spans() {
                    Some(shared)
                } else {
                    None
                }
            }
        }
    }

    /// `true` when a [`Tracer::span`] call would record.
    #[inline]
    pub fn spans_enabled(&self) -> bool {
        self.spans_on().is_some()
    }

    /// `true` when counters/gauges are recorded.
    #[inline]
    pub fn counters_enabled(&self) -> bool {
        self.inner.as_ref().is_some_and(|s| s.mode.counters())
    }

    /// `true` when fine-grained candidate-batch spans are recorded
    /// (mode [`TraceMode::Full`] and spans not suppressed).
    #[inline]
    pub fn batches_enabled(&self) -> bool {
        self.inner.as_ref().is_some_and(|s| s.mode.batches()) && self.spans_enabled()
    }

    /// Overrides span recording regardless of mode — the mechanism
    /// behind the per-step `-trace` flow-script flag.
    pub fn set_span_override(&self, over: SpanOverride) {
        if let Some(shared) = self.inner.as_deref() {
            let raw = match over {
                SpanOverride::ModeDefault => OVERRIDE_DEFAULT,
                SpanOverride::Suppress => OVERRIDE_SUPPRESS,
                SpanOverride::Force => OVERRIDE_FORCE,
            };
            shared.span_override.store(raw, Ordering::Relaxed);
        }
    }

    /// Opens a span named `name` on the current lane; the returned guard
    /// closes (and records) it on drop.  Disabled ⇒ one branch, no
    /// allocation (the inert guard holds an empty `String`).
    #[inline]
    pub fn span(&self, name: &str) -> SpanGuard<'_> {
        match self.spans_on() {
            None => SpanGuard {
                shared: None,
                name: String::new(),
                lane: 0,
                start_ns: 0,
            },
            Some(shared) => SpanGuard {
                shared: Some(shared),
                name: name.to_string(),
                lane: lane_id(),
                start_ns: shared.elapsed_ns(),
            },
        }
    }

    /// Names the current thread's lane in exported traces (e.g.
    /// `"portfolio-mig"`); last write wins.
    pub fn name_lane(&self, name: &str) {
        if let Some(shared) = self.inner.as_deref() {
            shared
                .lane_names
                .lock()
                .unwrap()
                .insert(lane_id(), name.to_string());
        }
    }

    /// Pours a stats struct into the registry under `prefix` (no-op
    /// unless counters are enabled).
    pub fn absorb(&self, prefix: &str, source: &dyn MetricsSource) {
        if let Some(shared) = self.inner.as_deref() {
            if shared.mode.counters() {
                shared.metrics.lock().unwrap().absorb(prefix, source);
            }
        }
    }

    /// Adds `value` to the counter `name` (no-op unless counters on).
    pub fn add_counter(&self, name: &str, value: u64) {
        if let Some(shared) = self.inner.as_deref() {
            if shared.mode.counters() {
                shared.metrics.lock().unwrap().add_counter(name, value);
            }
        }
    }

    /// Sets the gauge `name` (no-op unless counters are enabled).
    pub fn set_gauge(&self, name: &str, value: u64) {
        if let Some(shared) = self.inner.as_deref() {
            if shared.mode.counters() {
                shared.metrics.lock().unwrap().set_gauge(name, value);
            }
        }
    }

    /// Sorted snapshot of all counters — diff two snapshots with
    /// [`MetricsRegistry::counter_deltas`] for per-step accounting.
    pub fn metrics_snapshot(&self) -> Vec<(String, u64)> {
        self.inner.as_deref().map_or_else(Vec::new, |shared| {
            shared.metrics.lock().unwrap().counter_snapshot()
        })
    }

    /// A copy of the full registry.
    pub fn metrics(&self) -> MetricsRegistry {
        self.inner
            .as_deref()
            .map_or_else(MetricsRegistry::new, |shared| {
                shared.metrics.lock().unwrap().clone()
            })
    }

    /// Number of closed spans so far — record before a step, pass to
    /// [`Tracer::events_since`] after it for the step's own spans.
    pub fn event_mark(&self) -> usize {
        self.inner
            .as_deref()
            .map_or(0, |shared| shared.events.lock().unwrap().len())
    }

    /// The spans closed since `mark` (see [`Tracer::event_mark`]).
    pub fn events_since(&self, mark: usize) -> Vec<SpanEvent> {
        self.inner.as_deref().map_or_else(Vec::new, |shared| {
            let events = shared.events.lock().unwrap();
            events.get(mark..).unwrap_or(&[]).to_vec()
        })
    }

    /// All spans closed so far.
    pub fn events(&self) -> Vec<SpanEvent> {
        self.events_since(0)
    }

    /// Exports every closed span in the Chrome trace event format —
    /// load the result in Perfetto (<https://ui.perfetto.dev>) or
    /// `chrome://tracing`.  Lanes become `tid`s; named lanes emit
    /// `thread_name` metadata events; timestamps are microseconds since
    /// the tracer's epoch.
    pub fn chrome_trace_json(&self) -> String {
        let Some(shared) = self.inner.as_deref() else {
            return "{\"traceEvents\": []}\n".to_string();
        };
        let events = shared.events.lock().unwrap();
        let lane_names = shared.lane_names.lock().unwrap();
        let mut rows: Vec<String> = Vec::with_capacity(events.len() + lane_names.len());
        for (lane, name) in lane_names.iter() {
            rows.push(format!(
                "  {{\"ph\": \"M\", \"pid\": 1, \"tid\": {}, \"name\": \"thread_name\", \
                 \"args\": {{\"name\": \"{}\"}}}}",
                lane,
                escape_json(name)
            ));
        }
        for event in events.iter() {
            rows.push(format!(
                "  {{\"ph\": \"X\", \"pid\": 1, \"tid\": {}, \"name\": \"{}\", \
                 \"ts\": {:.3}, \"dur\": {:.3}}}",
                event.lane,
                escape_json(&event.name),
                event.start_ns as f64 / 1_000.0,
                event.end_ns.saturating_sub(event.start_ns) as f64 / 1_000.0
            ));
        }
        format!("{{\"traceEvents\": [\n{}\n]}}\n", rows.join(",\n"))
    }

    /// Flat JSON dump of the metrics registry.
    pub fn metrics_json(&self) -> String {
        self.metrics().to_json()
    }
}

/// The process-global tracer, armed once from `GLSX_TRACE`.  Standard
/// (untraced) pass entry points report through this handle, so the env
/// knob works without any signature change; explicit handles passed to
/// `*_traced` variants take precedence at their call sites.
pub fn global() -> &'static Tracer {
    static GLOBAL: OnceLock<Tracer> = OnceLock::new();
    GLOBAL.get_or_init(Tracer::from_env)
}

/// Guard of an open span; records the interval on drop.  Obtained from
/// [`Tracer::span`]; drop it early (`drop(guard)`) to close the span
/// before scope end.
#[must_use = "a span measures the scope its guard is alive in"]
#[derive(Debug)]
pub struct SpanGuard<'a> {
    shared: Option<&'a Shared>,
    name: String,
    lane: u32,
    start_ns: u64,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(shared) = self.shared {
            let end_ns = shared.elapsed_ns();
            shared.events.lock().unwrap().push(SpanEvent {
                name: std::mem::take(&mut self.name),
                lane: self.lane,
                start_ns: self.start_ns,
                end_ns,
            });
        }
    }
}

/// Candidate-batch spans for hot pass loops: one span per `interval`
/// candidates, recorded only in [`TraceMode::Full`].  With batches off
/// (any other mode, or a disabled tracer) every [`BatchSpans::tick`] is
/// a single branch.
#[derive(Debug)]
pub struct BatchSpans<'a> {
    tracer: &'a Tracer,
    name: &'static str,
    interval: u64,
    count: u64,
    active: bool,
    current: Option<SpanGuard<'a>>,
}

/// Default batch granularity of pass candidate loops.
pub const BATCH_INTERVAL: u64 = 1024;

impl<'a> BatchSpans<'a> {
    /// A batch-span rotator over `tracer`; inert unless batches are on.
    pub fn new(tracer: &'a Tracer, name: &'static str, interval: u64) -> Self {
        BatchSpans {
            tracer,
            name,
            interval: interval.max(1),
            count: 0,
            active: tracer.batches_enabled(),
            current: None,
        }
    }

    /// Counts one candidate; rotates the batch span on interval
    /// boundaries.  Inert ⇒ one branch.
    #[inline]
    pub fn tick(&mut self) {
        if !self.active {
            return;
        }
        if self.count.is_multiple_of(self.interval) {
            // close the previous batch before opening the next so the
            // spans tile instead of nest
            self.current = None;
            self.current = Some(self.tracer.span(self.name));
        }
        self.count += 1;
    }
}

/// One span as read back from an exported Chrome trace.
#[derive(Clone, Debug, PartialEq)]
pub struct ParsedSpan {
    /// Span name.
    pub name: String,
    /// Thread lane (`tid` in the trace).
    pub tid: u64,
    /// Start in microseconds.
    pub ts_us: f64,
    /// Duration in microseconds.
    pub dur_us: f64,
}

/// Parses a Chrome trace event JSON (as written by
/// [`Tracer::chrome_trace_json`]) back into its `"X"` complete events.
pub fn parse_chrome_trace(text: &str) -> Result<Vec<ParsedSpan>, String> {
    let json = parse_json(text)?;
    let events = json
        .get("traceEvents")
        .and_then(Json::as_array)
        .ok_or_else(|| "missing traceEvents array".to_string())?;
    let mut spans = Vec::new();
    for event in events {
        if event.get("ph").and_then(Json::as_str) != Some("X") {
            continue;
        }
        let name = event
            .get("name")
            .and_then(Json::as_str)
            .ok_or_else(|| "X event without name".to_string())?;
        let tid = event
            .get("tid")
            .and_then(Json::as_f64)
            .ok_or_else(|| "X event without tid".to_string())?;
        let ts_us = event
            .get("ts")
            .and_then(Json::as_f64)
            .ok_or_else(|| "X event without ts".to_string())?;
        let dur_us = event
            .get("dur")
            .and_then(Json::as_f64)
            .ok_or_else(|| "X event without dur".to_string())?;
        spans.push(ParsedSpan {
            name: name.to_string(),
            tid: tid as u64,
            ts_us,
            dur_us,
        });
    }
    Ok(spans)
}

/// Maximum number of *distinct* lanes with simultaneously open spans —
/// the concurrency a trace actually exhibits (≥2 proves parallel
/// execution showed up as parallel lanes).
pub fn concurrent_lanes(spans: &[ParsedSpan]) -> usize {
    let mut best = 0;
    for probe in spans {
        let mut tids: Vec<u64> = spans
            .iter()
            .filter(|other| {
                other.ts_us < probe.ts_us + probe.dur_us && probe.ts_us < other.ts_us + other.dur_us
            })
            .map(|other| other.tid)
            .collect();
        tids.sort_unstable();
        tids.dedup();
        best = best.max(tids.len());
    }
    best
}

/// Checks the well-nestedness invariant: on every lane, any two spans
/// are either disjoint or one contains the other (span guards close in
/// LIFO order per thread, so a violation means cross-thread lane
/// confusion or clock trouble).
pub fn spans_well_nested(events: &[SpanEvent]) -> bool {
    let mut lanes: BTreeMap<u32, Vec<&SpanEvent>> = BTreeMap::new();
    for event in events {
        lanes.entry(event.lane).or_default().push(event);
    }
    for lane_events in lanes.values_mut() {
        // parents first: by start ascending, longer span first on ties
        lane_events.sort_by(|a, b| a.start_ns.cmp(&b.start_ns).then(b.end_ns.cmp(&a.end_ns)));
        let mut stack: Vec<u64> = Vec::new(); // enclosing end times
        for event in lane_events {
            while let Some(&end) = stack.last() {
                if end <= event.start_ns {
                    stack.pop();
                } else {
                    break;
                }
            }
            if let Some(&end) = stack.last() {
                if event.end_ns > end {
                    return false; // partial overlap: not nested, not disjoint
                }
            }
            stack.push(event.end_ns);
        }
    }
    true
}

/// One node of a per-step span tree (see `FlowReport` in `glsx-flow`):
/// children are the spans the parent's interval contains on its lane.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct SpanNode {
    /// Span name.
    pub name: String,
    /// Thread lane.
    pub lane: u32,
    /// Start in microseconds since the tracer's epoch.
    pub start_us: f64,
    /// Duration in microseconds.
    pub duration_us: f64,
    /// Contained spans, in start order.
    pub children: Vec<SpanNode>,
}

/// Folds flat span events into per-lane containment trees; roots (from
/// all lanes) are returned in start order.
pub fn build_span_tree(events: &[SpanEvent]) -> Vec<SpanNode> {
    let mut lanes: BTreeMap<u32, Vec<&SpanEvent>> = BTreeMap::new();
    for event in events {
        lanes.entry(event.lane).or_default().push(event);
    }
    let mut roots: Vec<SpanNode> = Vec::new();
    for lane_events in lanes.values_mut() {
        lane_events.sort_by(|a, b| a.start_ns.cmp(&b.start_ns).then(b.end_ns.cmp(&a.end_ns)));
        // stack of open (node, end_ns); popping attaches to the new top
        let mut stack: Vec<(SpanNode, u64)> = Vec::new();
        let flush = |stack: &mut Vec<(SpanNode, u64)>, roots: &mut Vec<SpanNode>, until: u64| {
            while let Some((_, end)) = stack.last() {
                if *end <= until {
                    let (node, _) = stack.pop().unwrap();
                    match stack.last_mut() {
                        Some((parent, _)) => parent.children.push(node),
                        None => roots.push(node),
                    }
                } else {
                    break;
                }
            }
        };
        for event in lane_events.iter() {
            flush(&mut stack, &mut roots, event.start_ns);
            stack.push((
                SpanNode {
                    name: event.name.clone(),
                    lane: event.lane,
                    start_us: event.start_ns as f64 / 1_000.0,
                    duration_us: event.end_ns.saturating_sub(event.start_ns) as f64 / 1_000.0,
                    children: Vec::new(),
                },
                event.end_ns,
            ));
        }
        flush(&mut stack, &mut roots, u64::MAX);
    }
    roots.sort_by(|a, b| a.start_us.partial_cmp(&b.start_us).unwrap());
    roots
}

/// Escapes a string for embedding in a JSON string literal.
pub fn escape_json(input: &str) -> String {
    let mut out = String::with_capacity(input.len());
    for ch in input.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out
}

/// A parsed JSON value — the minimal in-tree parser behind trace/metrics
/// validation (the build environment has no serde; exported artifacts
/// must still be checkable).
#[derive(Clone, Debug, PartialEq)]
pub enum Json {
    /// `null`
    Null,
    /// `true` / `false`
    Bool(bool),
    /// Any JSON number (as `f64`).
    Number(f64),
    /// A string.
    String(String),
    /// An array.
    Array(Vec<Json>),
    /// An object, in source order.
    Object(Vec<(String, Json)>),
}

impl Json {
    /// Member `key` of an object.
    pub fn get(&self, key: &str) -> Option<&Json> {
        match self {
            Json::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// The elements when this is an array.
    pub fn as_array(&self) -> Option<&[Json]> {
        match self {
            Json::Array(items) => Some(items),
            _ => None,
        }
    }

    /// The string when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            Json::String(s) => Some(s),
            _ => None,
        }
    }

    /// The number when this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            Json::Number(n) => Some(*n),
            _ => None,
        }
    }
}

/// Parses a complete JSON document (rejects trailing garbage).
pub fn parse_json(input: &str) -> Result<Json, String> {
    let bytes = input.as_bytes();
    let mut pos = 0;
    let value = parse_value(bytes, &mut pos)?;
    skip_ws(bytes, &mut pos);
    if pos != bytes.len() {
        return Err(format!("trailing characters at byte {pos}"));
    }
    Ok(value)
}

fn skip_ws(bytes: &[u8], pos: &mut usize) {
    while *pos < bytes.len() && matches!(bytes[*pos], b' ' | b'\t' | b'\n' | b'\r') {
        *pos += 1;
    }
}

fn expect(bytes: &[u8], pos: &mut usize, ch: u8) -> Result<(), String> {
    if bytes.get(*pos) == Some(&ch) {
        *pos += 1;
        Ok(())
    } else {
        Err(format!(
            "expected '{}' at byte {} (found {:?})",
            ch as char,
            pos,
            bytes.get(*pos).map(|b| *b as char)
        ))
    }
}

fn parse_value(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    skip_ws(bytes, pos);
    match bytes.get(*pos) {
        Some(b'{') => parse_object(bytes, pos),
        Some(b'[') => parse_array(bytes, pos),
        Some(b'"') => Ok(Json::String(parse_string(bytes, pos)?)),
        Some(b't') => parse_literal(bytes, pos, "true", Json::Bool(true)),
        Some(b'f') => parse_literal(bytes, pos, "false", Json::Bool(false)),
        Some(b'n') => parse_literal(bytes, pos, "null", Json::Null),
        Some(b'-' | b'0'..=b'9') => parse_number(bytes, pos),
        other => Err(format!("unexpected {other:?} at byte {pos}")),
    }
}

fn parse_literal(bytes: &[u8], pos: &mut usize, word: &str, value: Json) -> Result<Json, String> {
    if bytes[*pos..].starts_with(word.as_bytes()) {
        *pos += word.len();
        Ok(value)
    } else {
        Err(format!("invalid literal at byte {pos}"))
    }
}

fn parse_number(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    let start = *pos;
    if bytes.get(*pos) == Some(&b'-') {
        *pos += 1;
    }
    while matches!(
        bytes.get(*pos),
        Some(b'0'..=b'9' | b'.' | b'e' | b'E' | b'+' | b'-')
    ) {
        *pos += 1;
    }
    let text = std::str::from_utf8(&bytes[start..*pos]).map_err(|e| e.to_string())?;
    text.parse::<f64>()
        .map(Json::Number)
        .map_err(|e| format!("bad number '{text}' at byte {start}: {e}"))
}

fn parse_string(bytes: &[u8], pos: &mut usize) -> Result<String, String> {
    expect(bytes, pos, b'"')?;
    let mut out = String::new();
    loop {
        match bytes.get(*pos) {
            None => return Err("unterminated string".to_string()),
            Some(b'"') => {
                *pos += 1;
                return Ok(out);
            }
            Some(b'\\') => {
                *pos += 1;
                match bytes.get(*pos) {
                    Some(b'"') => out.push('"'),
                    Some(b'\\') => out.push('\\'),
                    Some(b'/') => out.push('/'),
                    Some(b'n') => out.push('\n'),
                    Some(b'r') => out.push('\r'),
                    Some(b't') => out.push('\t'),
                    Some(b'b') => out.push('\u{8}'),
                    Some(b'f') => out.push('\u{c}'),
                    Some(b'u') => {
                        let hex = bytes
                            .get(*pos + 1..*pos + 5)
                            .ok_or("truncated \\u escape")?;
                        let code = u32::from_str_radix(
                            std::str::from_utf8(hex).map_err(|e| e.to_string())?,
                            16,
                        )
                        .map_err(|e| e.to_string())?;
                        out.push(char::from_u32(code).unwrap_or('\u{fffd}'));
                        *pos += 4;
                    }
                    other => return Err(format!("bad escape {other:?}")),
                }
                *pos += 1;
            }
            Some(_) => {
                // consume one UTF-8 scalar (multi-byte sequences pass through)
                let rest = std::str::from_utf8(&bytes[*pos..]).map_err(|e| e.to_string())?;
                let ch = rest.chars().next().unwrap();
                out.push(ch);
                *pos += ch.len_utf8();
            }
        }
    }
}

fn parse_array(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'[')?;
    let mut items = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b']') {
        *pos += 1;
        return Ok(Json::Array(items));
    }
    loop {
        items.push(parse_value(bytes, pos)?);
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b']') => {
                *pos += 1;
                return Ok(Json::Array(items));
            }
            other => return Err(format!("expected ',' or ']' (found {other:?})")),
        }
    }
}

fn parse_object(bytes: &[u8], pos: &mut usize) -> Result<Json, String> {
    expect(bytes, pos, b'{')?;
    let mut members = Vec::new();
    skip_ws(bytes, pos);
    if bytes.get(*pos) == Some(&b'}') {
        *pos += 1;
        return Ok(Json::Object(members));
    }
    loop {
        skip_ws(bytes, pos);
        let key = parse_string(bytes, pos)?;
        skip_ws(bytes, pos);
        expect(bytes, pos, b':')?;
        members.push((key, parse_value(bytes, pos)?));
        skip_ws(bytes, pos);
        match bytes.get(*pos) {
            Some(b',') => *pos += 1,
            Some(b'}') => {
                *pos += 1;
                return Ok(Json::Object(members));
            }
            other => return Err(format!("expected ',' or '}}' (found {other:?})")),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    struct FakeStats {
        hits: u64,
        misses: u64,
    }

    impl MetricsSource for FakeStats {
        fn visit_metrics(&self, visit: &mut dyn FnMut(&str, u64)) {
            visit("hits", self.hits);
            visit("misses", self.misses);
        }
    }

    #[test]
    fn off_tracer_records_nothing() {
        let tracer = Tracer::off();
        assert!(!tracer.is_enabled());
        assert!(!tracer.spans_enabled());
        assert!(!tracer.counters_enabled());
        {
            let _span = tracer.span("pass");
            tracer.add_counter("x", 1);
            tracer.absorb("s", &FakeStats { hits: 5, misses: 1 });
        }
        assert!(tracer.events().is_empty());
        assert!(tracer.metrics().is_empty());
        assert_eq!(tracer.chrome_trace_json(), "{\"traceEvents\": []}\n");
    }

    #[test]
    fn spans_nest_and_export() {
        let tracer = Tracer::new(TraceMode::Full);
        {
            let _outer = tracer.span("outer");
            {
                let _inner = tracer.span("inner");
            }
            let _second = tracer.span("second");
        }
        let events = tracer.events();
        assert_eq!(events.len(), 3);
        // guards close in LIFO order: inner first, outer last
        assert_eq!(events[0].name, "inner");
        assert_eq!(events[2].name, "outer");
        assert!(spans_well_nested(&events));
        let trace = tracer.chrome_trace_json();
        let parsed = parse_chrome_trace(&trace).expect("trace parses");
        assert_eq!(parsed.len(), 3);
        let tree = build_span_tree(&events);
        assert_eq!(tree.len(), 1);
        assert_eq!(tree[0].name, "outer");
        assert_eq!(tree[0].children.len(), 2);
        assert_eq!(tree[0].children[0].name, "inner");
        assert_eq!(tree[0].children[1].name, "second");
    }

    #[test]
    fn counters_mode_skips_spans_and_full_takes_both() {
        let counters = Tracer::new(TraceMode::Counters);
        {
            let _span = counters.span("pass");
        }
        counters.add_counter("n", 2);
        counters.add_counter("n", 3);
        assert!(counters.events().is_empty());
        assert_eq!(counters.metrics().counter("n"), 5);

        let spans = Tracer::new(TraceMode::Spans);
        {
            let _span = spans.span("pass");
        }
        spans.add_counter("n", 2);
        assert_eq!(spans.events().len(), 1);
        assert!(spans.metrics().is_empty());
    }

    #[test]
    fn absorb_prefixes_and_accumulates() {
        let tracer = Tracer::new(TraceMode::Counters);
        tracer.absorb("cache", &FakeStats { hits: 5, misses: 1 });
        tracer.absorb("cache", &FakeStats { hits: 2, misses: 0 });
        let metrics = tracer.metrics();
        assert_eq!(metrics.counter("cache.hits"), 7);
        assert_eq!(metrics.counter("cache.misses"), 1);
        let json = metrics.to_json();
        let parsed = parse_json(&json).expect("metrics json parses");
        assert_eq!(
            parsed.get("counters").and_then(|c| c.get("cache.hits")),
            Some(&Json::Number(7.0))
        );
    }

    #[test]
    fn counter_deltas_merge_sorted_snapshots() {
        let mut registry = MetricsRegistry::new();
        registry.add_counter("a", 1);
        registry.add_counter("b", 2);
        let before = registry.counter_snapshot();
        registry.add_counter("b", 3);
        registry.add_counter("c", 4);
        let after = registry.counter_snapshot();
        assert_eq!(
            MetricsRegistry::counter_deltas(&before, &after),
            vec![("b".to_string(), 3), ("c".to_string(), 4)]
        );
    }

    #[test]
    fn span_override_forces_and_suppresses() {
        let tracer = Tracer::new(TraceMode::Counters);
        assert!(!tracer.spans_enabled());
        tracer.set_span_override(SpanOverride::Force);
        {
            let _span = tracer.span("forced");
        }
        tracer.set_span_override(SpanOverride::ModeDefault);
        assert_eq!(tracer.events().len(), 1);

        let tracer = Tracer::new(TraceMode::Full);
        tracer.set_span_override(SpanOverride::Suppress);
        {
            let _span = tracer.span("hidden");
        }
        assert!(tracer.events().is_empty());
        assert!(!tracer.batches_enabled());
    }

    #[test]
    fn batch_spans_only_record_in_full_mode() {
        let full = Tracer::new(TraceMode::Full);
        {
            let mut batches = BatchSpans::new(&full, "batch", 4);
            for _ in 0..10 {
                batches.tick();
            }
        }
        assert_eq!(full.events().len(), 3); // ceil(10 / 4)

        let spans_only = Tracer::new(TraceMode::Spans);
        {
            let mut batches = BatchSpans::new(&spans_only, "batch", 4);
            for _ in 0..10 {
                batches.tick();
            }
        }
        assert!(spans_only.events().is_empty());
    }

    #[test]
    fn parallel_spans_land_on_distinct_lanes() {
        let tracer = Tracer::new(TraceMode::Spans);
        std::thread::scope(|scope| {
            for worker in 0..4 {
                let tracer = &tracer;
                scope.spawn(move || {
                    tracer.name_lane(&format!("worker-{worker}"));
                    let _outer = tracer.span("work");
                    let _inner = tracer.span("phase");
                    std::thread::sleep(std::time::Duration::from_millis(5));
                });
            }
        });
        let events = tracer.events();
        assert_eq!(events.len(), 8);
        let mut lanes: Vec<u32> = events.iter().map(|e| e.lane).collect();
        lanes.sort_unstable();
        lanes.dedup();
        assert_eq!(lanes.len(), 4, "each worker gets its own lane");
        assert!(spans_well_nested(&events));
        let parsed = parse_chrome_trace(&tracer.chrome_trace_json()).unwrap();
        assert!(concurrent_lanes(&parsed) >= 2, "workers overlap in time");
    }

    #[test]
    fn well_nestedness_detects_partial_overlap() {
        let ok = vec![
            SpanEvent {
                name: "a".into(),
                lane: 0,
                start_ns: 0,
                end_ns: 100,
            },
            SpanEvent {
                name: "b".into(),
                lane: 0,
                start_ns: 10,
                end_ns: 50,
            },
            SpanEvent {
                name: "c".into(),
                lane: 0,
                start_ns: 120,
                end_ns: 130,
            },
        ];
        assert!(spans_well_nested(&ok));
        let bad = vec![
            SpanEvent {
                name: "a".into(),
                lane: 0,
                start_ns: 0,
                end_ns: 100,
            },
            SpanEvent {
                name: "b".into(),
                lane: 0,
                start_ns: 50,
                end_ns: 150,
            },
        ];
        assert!(!spans_well_nested(&bad));
        // same intervals on different lanes never interact
        let cross = vec![
            SpanEvent {
                name: "a".into(),
                lane: 0,
                start_ns: 0,
                end_ns: 100,
            },
            SpanEvent {
                name: "b".into(),
                lane: 1,
                start_ns: 50,
                end_ns: 150,
            },
        ];
        assert!(spans_well_nested(&cross));
    }

    #[test]
    fn json_parser_round_trips_tricky_documents() {
        let doc = r#"{"a": [1, -2.5, 1e3], "b": {"nested": true, "s": "q\"\\\nA"}, "c": null}"#;
        let parsed = parse_json(doc).expect("parses");
        assert_eq!(
            parsed.get("a").and_then(Json::as_array).map(|a| a.len()),
            Some(3)
        );
        assert_eq!(
            parsed
                .get("b")
                .and_then(|b| b.get("s"))
                .and_then(Json::as_str),
            Some("q\"\\\nA")
        );
        assert_eq!(parsed.get("c"), Some(&Json::Null));
        assert!(parse_json("{\"a\": }").is_err());
        assert!(parse_json("[1, 2").is_err());
        assert!(parse_json("{} trailing").is_err());
    }

    #[test]
    fn escape_json_handles_specials() {
        assert_eq!(escape_json("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
        assert_eq!(escape_json("\u{1}"), "\\u0001");
    }

    #[test]
    fn trace_mode_parses_env_values() {
        assert_eq!(TraceMode::from_env_value("spans"), TraceMode::Spans);
        assert_eq!(TraceMode::from_env_value("counters"), TraceMode::Counters);
        assert_eq!(TraceMode::from_env_value("full"), TraceMode::Full);
        assert_eq!(TraceMode::from_env_value("bogus"), TraceMode::Off);
        assert!(TraceMode::Full.spans() && TraceMode::Full.counters() && TraceMode::Full.batches());
        assert!(!TraceMode::Spans.counters() && !TraceMode::Counters.spans());
    }
}
