//! Resilient flow execution: checkpointed, panic-isolated, verified steps.
//!
//! [`run_script_guarded`] executes a [`FlowScript`](crate::FlowScript)
//! under a *never-corrupt* contract: whatever a pass does — exhaust its
//! effort budget, produce a functionally wrong network, or panic halfway
//! through a substitution — the network handed back is always a valid,
//! input-equivalent state.  The machinery:
//!
//! * **Checkpoints.**  Before every mutating step the executor captures
//!   the network as a full
//!   [`NetworkSnapshot`](glsx_network::NetworkSnapshot): O(network) to
//!   take, and a restore whose cost does not depend on how much the
//!   failed step mutated.
//! * **Panic isolation.**  The step runs under
//!   [`std::panic::catch_unwind`]; a panic rolls the network back to the
//!   checkpoint (which also bumps the traversal epoch, so scratch stamps a
//!   dying pass left mid-traversal can never alias a later traversal) and
//!   the flow continues with the next step.
//! * **Verification.**  After a committed step the network is checked
//!   against the *flow input* (one clone taken up front) — by random
//!   simulation or a SAT-sweeping equivalence proof ([`VerifyMode`]).
//!   The proof maps every gate the flow left untouched onto the input
//!   structurally, so its SAT work follows what the flow has changed.  A
//!   refuted or unprovable step is rolled back like a panic.
//!   Budget-starved proofs are distinguishable from genuine failures via
//!   [`EquivalenceOutcome::limit_exhausted`](glsx_core::sweeping::EquivalenceOutcome),
//!   and the proof's work counters are absorbed as `verify.*`.
//! * **Budgets and deadlines.**  Per-step effort budgets come from the
//!   script (`rw -budget 2M`) or [`GuardOptions::step_budget`]; a
//!   flow-level wall-clock deadline is threaded into every budget and
//!   steps that would start past it are skipped outright.
//! * **Fault injection.**  A [`FaultPlan`] (`GLSX_FAULT_PLAN=`
//!   `panic@rewrite:3,exhaust@fraig:1,unknown@verify:2`) deterministically
//!   injects pass panics, budget exhaustions and verification unknowns at
//!   exact sites, which is how the recovery paths are tested — no mocks,
//!   the real rollback machinery runs.  An injected verification unknown
//!   does not call the checker, so it fires however little proof effort
//!   the step would have needed.
//!
//! In debug builds every rollback is followed by a full structural audit
//! ([`check_network_integrity`], which includes the structural-hash and
//! choice-ring checks), so a checkpoint that failed to restore invariants
//! fails loudly instead of corrupting later steps.

use crate::{
    apply_step_override, clear_step_overrides, run_step_traced, FlowOptions, FlowScript, FlowStep,
};
use glsx_core::resubstitution::ResubNetwork;
use glsx_core::sweeping::{check_equivalence_with_limits, EquivalenceResult, SweepEngine};
use glsx_network::simulation::equivalent_by_random_simulation;
use glsx_network::telemetry::{self, build_span_tree, MetricsRegistry, SpanNode, Tracer};
use glsx_network::views::check_network_integrity;
use glsx_network::{cleanup_dangling, Budget, GateBuilder, InjectedFault, Network, StepOutcome};
use std::cell::Cell;
use std::error::Error;
use std::fmt;
use std::panic::{self, AssertUnwindSafe};
use std::sync::Once;
use std::time::{Duration, Instant};

/// How a committed step is checked against the flow input.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub enum VerifyMode {
    /// No verification at all — per-step checks and the final contract
    /// check are both skipped ([`FlowReport::final_verify`] stays `None`).
    /// Rollback on panic still works; use this to measure the bare cost
    /// of the checkpoint/unwind machinery.
    None,
    /// Random word-parallel simulation — fast, refutation-only.
    Simulation,
    /// A SAT-sweeping equivalence proof per step
    /// ([`check_equivalence_with_limits`]) against the flow input: logic
    /// the flow left unchanged maps structurally, the rest is proven by
    /// SAT.
    #[default]
    Miter,
}

/// A deterministic fault to inject at a specific site occurrence.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultAction {
    /// Panic inside the pass at its first budget poll.
    Panic,
    /// Force the step's budget to exhaust at its first poll.
    Exhaust,
    /// Record the step's miter verification as `Unknown` with
    /// `verify_limit_exhausted` set, as if its budget had run out, without
    /// calling the checker.  Only meaningful at the `verify` site under
    /// [`VerifyMode::Miter`].
    Unknown,
}

impl FaultAction {
    fn name(&self) -> &'static str {
        match self {
            FaultAction::Panic => "panic",
            FaultAction::Exhaust => "exhaust",
            FaultAction::Unknown => "unknown",
        }
    }
}

/// One planned fault: `action@site:occurrence` (1-based occurrence of the
/// site within the flow).
#[derive(Clone, Debug, PartialEq, Eq)]
struct PlannedFault {
    action: FaultAction,
    site: String,
    occurrence: usize,
}

/// Error returned when a fault plan cannot be parsed.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ParseFaultPlanError {
    message: String,
}

impl fmt::Display for ParseFaultPlanError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid fault plan: {}", self.message)
    }
}

impl Error for ParseFaultPlanError {}

/// A deterministic fault-injection plan.
///
/// Parsed from `action@site:occurrence` entries separated by commas, e.g.
/// `panic@rewrite:3,exhaust@fraig:1,unknown@verify:2` — panic inside the
/// third rewriting step, exhaust the first fraig step's budget
/// immediately, and report the second per-step verification as a
/// budget-starved `Unknown`.  Sites are the step names (`balance`, `rewrite`,
/// `refactor`, `resub`, `fraig`, `lut_map`) plus `verify`; occurrences
/// are 1-based.  The plan is consulted by [`run_script_guarded`]; the
/// `GLSX_FAULT_PLAN` environment variable feeds [`FaultPlan::from_env`].
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct FaultPlan {
    faults: Vec<PlannedFault>,
}

impl FaultPlan {
    /// An empty plan (no faults).
    pub fn none() -> Self {
        Self::default()
    }

    /// `true` when the plan injects no faults.
    pub fn is_empty(&self) -> bool {
        self.faults.is_empty()
    }

    /// Number of planned faults.
    pub fn len(&self) -> usize {
        self.faults.len()
    }

    /// Parses a plan from the `action@site:occurrence[,...]` notation.
    ///
    /// # Errors
    ///
    /// Returns an error for unknown actions, malformed entries or a zero
    /// occurrence (occurrences are 1-based).
    pub fn parse(text: &str) -> Result<Self, ParseFaultPlanError> {
        let mut faults = Vec::new();
        for entry in text.split(',') {
            let entry = entry.trim();
            if entry.is_empty() {
                continue;
            }
            let (action_text, rest) = entry.split_once('@').ok_or_else(|| ParseFaultPlanError {
                message: format!("`{entry}` is missing `@` (want action@site:occurrence)"),
            })?;
            let (site, occurrence_text) =
                rest.split_once(':').ok_or_else(|| ParseFaultPlanError {
                    message: format!("`{entry}` is missing `:` (want action@site:occurrence)"),
                })?;
            let action = match action_text {
                "panic" => FaultAction::Panic,
                "exhaust" => FaultAction::Exhaust,
                "unknown" => FaultAction::Unknown,
                other => {
                    return Err(ParseFaultPlanError {
                        message: format!("unknown action `{other}` in `{entry}`"),
                    })
                }
            };
            let occurrence: usize = occurrence_text.parse().map_err(|_| ParseFaultPlanError {
                message: format!("invalid occurrence `{occurrence_text}` in `{entry}`"),
            })?;
            if occurrence == 0 {
                return Err(ParseFaultPlanError {
                    message: format!("occurrences are 1-based (`{entry}`)"),
                });
            }
            if action == FaultAction::Unknown && site != "verify" {
                return Err(ParseFaultPlanError {
                    message: format!(
                        "`unknown` faults only apply to the `verify` site (`{entry}`)"
                    ),
                });
            }
            faults.push(PlannedFault {
                action,
                site: site.to_string(),
                occurrence,
            });
        }
        Ok(Self { faults })
    }

    /// Reads the plan from the `GLSX_FAULT_PLAN` environment variable; an
    /// unset variable yields the empty plan, a malformed one panics (a
    /// silently dropped fault plan would make a failing resilience test
    /// pass vacuously).
    pub fn from_env() -> Self {
        match std::env::var("GLSX_FAULT_PLAN") {
            Ok(text) => Self::parse(&text).unwrap_or_else(|e| panic!("GLSX_FAULT_PLAN: {e}")),
            Err(_) => Self::default(),
        }
    }

    /// The fault planned for the `occurrence`-th visit of `site`, if any.
    fn fault_at(&self, site: &str, occurrence: usize) -> Option<FaultAction> {
        self.faults
            .iter()
            .find(|f| f.site == site && f.occurrence == occurrence)
            .map(|f| f.action)
    }
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let rendered: Vec<String> = self
            .faults
            .iter()
            .map(|fault| {
                format!(
                    "{}@{}:{}",
                    fault.action.name(),
                    fault.site,
                    fault.occurrence
                )
            })
            .collect();
        write!(f, "{}", rendered.join(","))
    }
}

/// Options of the guarded executor.
#[derive(Clone, Debug, Default)]
pub struct GuardOptions {
    /// How committed steps are verified against the flow input.
    pub verify: VerifyMode,
    /// Default per-step effort budget in ticks for steps the script does
    /// not budget itself (`None` = unlimited).
    pub step_budget: Option<u64>,
    /// Flow-level wall-clock deadline: threaded into every step budget,
    /// and steps that would *start* past it are skipped outright.
    pub deadline: Option<Duration>,
    /// Deterministic faults to inject (see [`FaultPlan`]).
    pub fault_plan: FaultPlan,
}

/// Why a guarded step was rolled back.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailureKind {
    /// The pass panicked; the unwind was caught at the step boundary.
    Panic,
    /// Verification refuted the step (a counterexample exists).
    VerifyInequivalent,
    /// Verification could not prove the step (its budget ran out); the
    /// step is rolled back conservatively.
    VerifyUnknown,
}

/// What happened to one guarded step.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum StepStatus {
    /// The step ran, passed verification and its mutations stand.
    Committed,
    /// The step failed ([`FailureKind`]) and the checkpoint was restored.
    RolledBack,
    /// The step never ran: the flow deadline had already passed.
    Skipped,
}

/// Which checkpoint actually ran before a guarded step.
///
/// Read-only steps (e.g. a [`FlowStep::LutMap`] mapping query inside an
/// in-place script, which mutates nothing) skip checkpointing entirely —
/// there is no mutation to protect against, so paying a full snapshot
/// clone for them would be pure overhead.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum CheckpointStrategy {
    /// A full network snapshot was taken.
    Snapshot,
    /// No checkpoint was taken: the step is read-only, so there is
    /// nothing a rollback could need to restore (per-step verification
    /// is skipped for the same reason).
    None,
}

/// Per-step record of a guarded flow.
#[derive(Clone, Debug)]
pub struct StepReport {
    /// The step in script notation (e.g. `rs -c 6`).
    pub step: String,
    /// Fault-plan site name of the step (`rewrite`, `fraig`, …).
    pub site: &'static str,
    /// Outcome of the guarded execution.
    pub status: StepStatus,
    /// Failure that caused a rollback, if any.
    pub failure: Option<FailureKind>,
    /// Committed substitutions (0 for rolled-back or skipped steps).
    pub substitutions: usize,
    /// Whether the step's budget ran dry ([`StepOutcome::Exhausted`]).
    pub outcome: StepOutcome,
    /// Budget ticks the step charged.
    pub ticks: u64,
    /// Whether the step's verification proof hit a resource limit (or an
    /// injected `unknown@verify` fault stood for one).
    pub verify_limit_exhausted: bool,
    /// Which checkpoint strategy ran before the step
    /// ([`CheckpointStrategy::None`] for read-only and deadline-skipped
    /// steps).
    pub checkpoint: CheckpointStrategy,
    /// Wall-clock duration of the guarded step (checkpoint, pass, verify
    /// and any rollback), on the same monotonic clock as the spans.
    pub duration_seconds: f64,
    /// The step's span tree (the `step:<site>` root with the pass's own
    /// spans nested inside), from the tracer the flow ran under; empty
    /// when span recording is off.
    pub spans: Vec<SpanNode>,
    /// Counters the step incremented (sorted, zero deltas dropped); empty
    /// when counter recording is off.
    pub metric_deltas: Vec<(String, u64)>,
}

/// Report of a guarded flow run ([`run_script_guarded`]).
#[derive(Clone, Debug, Default)]
pub struct FlowReport {
    /// One record per script step, in order.
    pub steps: Vec<StepReport>,
    /// Steps whose mutations stand.
    pub committed: usize,
    /// Steps rolled back to their checkpoint (any [`FailureKind`]).
    pub rollbacks: usize,
    /// Rollbacks caused by a caught pass panic.
    pub panics: usize,
    /// Rollbacks caused by verification (refuted or unprovable).
    pub verify_failures: usize,
    /// Committed steps that stopped on an exhausted budget.
    pub exhausted_steps: usize,
    /// Steps skipped because the flow deadline had passed.
    pub deadline_skips: usize,
    /// Total committed substitutions.
    pub substitutions: usize,
    /// Total budget ticks charged over all steps.
    pub ticks_spent: u64,
    /// Gate count before / after the flow.
    pub initial_size: usize,
    /// Gate count after the flow (post-compaction).
    pub final_size: usize,
    /// Verdict of the final miter against the flow input: `Some(true)` is
    /// a proof, `Some(false)` a refutation (never expected — the contract
    /// violation the guarded executor exists to prevent), `None` means
    /// the final check was skipped or unresolved.
    pub final_verify: Option<bool>,
    /// Wall-clock runtime of the guarded flow in seconds.
    pub runtime_seconds: f64,
}

/// Whether a step cannot mutate the network inside an in-place guarded
/// script, so checkpointing and per-step verification are skipped for it.
/// [`FlowStep::LutMap`] is a pure mapping query here: the in-place
/// runners do not consume it (only [`run_script_and_map`] does, as the
/// terminal representation change).
fn step_is_read_only(step: &FlowStep) -> bool {
    matches!(step, FlowStep::LutMap { .. })
}

/// Fault-plan site name of a step.
fn step_site(step: &FlowStep) -> &'static str {
    match step {
        FlowStep::Balance => "balance",
        FlowStep::Rewrite { .. } => "rewrite",
        FlowStep::Refactor { .. } => "refactor",
        FlowStep::Resubstitute { .. } => "resub",
        FlowStep::Fraig { .. } => "fraig",
        FlowStep::LutMap { .. } => "lut_map",
    }
}

thread_local! {
    /// Set while a guarded step runs, so the process panic hook stays
    /// silent for panics the executor is about to catch and handle.
    static EXPECTED_PANIC: Cell<bool> = const { Cell::new(false) };
}

/// Installs (once per process) a panic hook that suppresses the default
/// backtrace spew for panics raised inside a guarded step — they are
/// caught, recorded in the [`FlowReport`] and recovered from, so the
/// stderr noise would only obscure genuine failures.  Panics on other
/// threads or outside guarded steps still reach the previous hook.
fn install_quiet_panic_hook() {
    static INSTALL: Once = Once::new();
    INSTALL.call_once(|| {
        let previous = panic::take_hook();
        panic::set_hook(Box::new(move |info| {
            if EXPECTED_PANIC.with(|flag| flag.get()) {
                return;
            }
            previous(info);
        }));
    });
}

/// Runs `script` on `ntk` under the never-corrupt contract described in
/// the [module docs](self): every step is checkpointed, panic-isolated,
/// budgeted and verified, failures roll back and the flow continues.  The
/// network is compacted at the end (like
/// [`run_script`](crate::run_script)) and a final check against the flow
/// input — as strong as the configured [`VerifyMode`] — is recorded in
/// [`FlowReport::final_verify`].
///
/// The [`SweepEngine`] recycled across `fraig` steps is reset after every
/// rollback: its accumulated pattern words may reference node ids that
/// only existed in the rolled-back burst.
pub fn run_script_guarded<N>(
    ntk: &mut N,
    script: &FlowScript,
    options: &FlowOptions,
    guard: &GuardOptions,
) -> FlowReport
where
    N: Network + GateBuilder + ResubNetwork + Clone,
{
    run_script_guarded_traced(ntk, script, options, guard, telemetry::global())
}

/// [`run_script_guarded`] reporting through an explicit telemetry
/// [`Tracer`]: every step runs under a `step:<site>` span (the pass's own
/// spans nest inside), per-step verification under a `verify` span and
/// the final contract check under `final_verify`; each [`StepReport`]
/// carries the step's span tree and counter deltas, and each step's
/// budget charge is absorbed as `<site>.ticks_spent`.  Scripts with
/// `-trace` marks narrow span recording to exactly the marked steps.
pub fn run_script_guarded_traced<N>(
    ntk: &mut N,
    script: &FlowScript,
    options: &FlowOptions,
    guard: &GuardOptions,
    tracer: &Tracer,
) -> FlowReport
where
    N: Network + GateBuilder + ResubNetwork + Clone,
{
    install_quiet_panic_hook();
    let start = Instant::now();
    // a bulk-loaded network materialises its deferred fanout lists and
    // strash table here, before the passes (and the checkpoints) see it
    ntk.ensure_derived_state();
    // the single reference clone every per-step verification (and the
    // final miter) checks against
    let input = ntk.clone();
    let mut report = FlowReport {
        initial_size: ntk.num_gates(),
        ..FlowReport::default()
    };
    let mut engine = SweepEngine::new();
    // 1-based occurrence counters per fault-plan site
    let mut site_counts: Vec<(&'static str, usize)> = Vec::new();
    let mut verify_count = 0usize;
    for (index, step) in script.steps().iter().enumerate() {
        let site = step_site(step);
        let occurrence = {
            match site_counts.iter_mut().find(|(s, _)| *s == site) {
                Some((_, count)) => {
                    *count += 1;
                    *count
                }
                None => {
                    site_counts.push((site, 1));
                    1
                }
            }
        };
        let mut step_report = StepReport {
            step: step_text(script, index),
            site,
            status: StepStatus::Skipped,
            failure: None,
            substitutions: 0,
            outcome: StepOutcome::Completed,
            ticks: 0,
            verify_limit_exhausted: false,
            checkpoint: CheckpointStrategy::None,
            duration_seconds: 0.0,
            spans: Vec::new(),
            metric_deltas: Vec::new(),
        };
        // a step that would start past the deadline is not started at all
        if let Some(deadline) = guard.deadline {
            if start.elapsed() >= deadline {
                report.deadline_skips += 1;
                report.steps.push(step_report);
                continue;
            }
        }
        let mut budget = match script.budget_of(index).or(guard.step_budget) {
            Some(ticks) => Budget::with_ticks(ticks),
            None => Budget::unlimited(),
        };
        if let Some(deadline) = guard.deadline {
            budget = budget.and_deadline(deadline.saturating_sub(start.elapsed()));
        }
        match guard.fault_plan.fault_at(site, occurrence) {
            Some(FaultAction::Panic) => budget = budget.inject(InjectedFault::Panic, 1),
            Some(FaultAction::Exhaust) => budget = budget.inject(InjectedFault::Exhaust, 1),
            _ => {}
        }
        apply_step_override(tracer, script, index);
        let step_start = Instant::now();
        let span_mark = tracer.event_mark();
        let metrics_before = tracer.metrics_snapshot();
        let step_span = tracer.span(&format!("step:{site}"));
        // checkpoint, run under the unwind guard, then verify.  Read-only
        // steps skip both checkpoint and verification: there is no
        // mutation to protect, so a snapshot clone of a large network
        // would be pure overhead.
        let read_only = step_is_read_only(step);
        let checkpoint = (!read_only).then(|| ntk.snapshot());
        if checkpoint.is_some() {
            step_report.checkpoint = CheckpointStrategy::Snapshot;
        }
        let rollback = |ntk: &mut N, engine: &mut SweepEngine| {
            // a read-only step has no checkpoint: nothing was (or could
            // have been) mutated
            if let Some(snapshot) = &checkpoint {
                ntk.restore(snapshot);
            }
            // the engine's pattern words may reference rolled-back nodes
            engine.reset();
            if cfg!(debug_assertions) {
                check_network_integrity(ntk)
                    .unwrap_or_else(|e| panic!("rollback left a corrupt network: {e}"));
            }
        };
        let result = {
            EXPECTED_PANIC.with(|flag| flag.set(true));
            let result = panic::catch_unwind(AssertUnwindSafe(|| {
                run_step_traced(ntk, step, options, &mut engine, &budget, tracer)
            }));
            EXPECTED_PANIC.with(|flag| flag.set(false));
            result
        };
        step_report.ticks = budget.spent();
        step_report.outcome = budget.outcome();
        report.ticks_spent += step_report.ticks;
        tracer.absorb(site, &budget);
        match result {
            Err(_panic_payload) => {
                rollback(ntk, &mut engine);
                step_report.status = StepStatus::RolledBack;
                step_report.failure = Some(FailureKind::Panic);
                report.rollbacks += 1;
                report.panics += 1;
            }
            Ok(substitutions) => {
                let verify_span = tracer.span("verify");
                let verdict = match guard.verify {
                    // a read-only step changed nothing, so there is
                    // nothing to verify (or to roll back)
                    _ if read_only => None,
                    VerifyMode::None => None,
                    VerifyMode::Simulation => {
                        verify_count += 1;
                        Some(if equivalent_by_random_simulation(&input, ntk, 8, 0x5eed) {
                            EquivalenceResult::Equivalent
                        } else {
                            EquivalenceResult::Inequivalent(Vec::new())
                        })
                    }
                    VerifyMode::Miter => {
                        verify_count += 1;
                        if guard.fault_plan.fault_at("verify", verify_count)
                            == Some(FaultAction::Unknown)
                        {
                            // stands for a verification budget that ran out
                            step_report.verify_limit_exhausted = true;
                            Some(EquivalenceResult::Unknown)
                        } else {
                            let outcome = check_equivalence_with_limits(&input, ntk, None, None);
                            tracer.absorb("verify", &outcome.work);
                            tracer.absorb("verify.sat", &outcome.solver);
                            step_report.verify_limit_exhausted = outcome.limit_exhausted;
                            Some(outcome.result)
                        }
                    }
                };
                drop(verify_span);
                match verdict {
                    None | Some(EquivalenceResult::Equivalent) => {
                        step_report.status = StepStatus::Committed;
                        step_report.substitutions = substitutions;
                        report.committed += 1;
                        report.substitutions += substitutions;
                        if matches!(step_report.outcome, StepOutcome::Exhausted { .. }) {
                            report.exhausted_steps += 1;
                        }
                    }
                    Some(refuted_or_unknown) => {
                        rollback(ntk, &mut engine);
                        step_report.status = StepStatus::RolledBack;
                        step_report.failure =
                            Some(if refuted_or_unknown == EquivalenceResult::Unknown {
                                FailureKind::VerifyUnknown
                            } else {
                                FailureKind::VerifyInequivalent
                            });
                        report.rollbacks += 1;
                        report.verify_failures += 1;
                    }
                }
            }
        }
        drop(step_span);
        step_report.duration_seconds = step_start.elapsed().as_secs_f64();
        step_report.spans = build_span_tree(&tracer.events_since(span_mark));
        step_report.metric_deltas =
            MetricsRegistry::counter_deltas(&metrics_before, &tracer.metrics_snapshot());
        report.steps.push(step_report);
    }
    clear_step_overrides(tracer, script);
    *ntk = cleanup_dangling(ntk);
    report.final_size = ntk.num_gates();
    // the final check is never fault-injected: it is the contract check;
    // its strength follows the configured verification mode
    report.final_verify = {
        let _final = tracer.span("final_verify");
        match guard.verify {
            VerifyMode::None => None,
            VerifyMode::Simulation => Some(equivalent_by_random_simulation(&input, ntk, 8, 0x5eed)),
            VerifyMode::Miter => {
                match check_equivalence_with_limits(&input, ntk, None, None).result {
                    EquivalenceResult::Equivalent => Some(true),
                    EquivalenceResult::Inequivalent(_) => Some(false),
                    EquivalenceResult::Unknown => None,
                }
            }
        }
    };
    report.runtime_seconds = start.elapsed().as_secs_f64();
    report
}

/// The step in script notation, including its `-budget` flag.
fn step_text(script: &FlowScript, index: usize) -> String {
    let single = FlowScript::from_steps(vec![script.steps()[index]]);
    let mut text = single.to_string();
    if let Some(ticks) = script.budget_of(index) {
        let mut budgeted = single;
        budgeted.set_budget(0, Some(ticks));
        text = budgeted.to_string();
    }
    text
}

#[cfg(test)]
mod tests {
    use super::*;
    use glsx_benchmarks::arithmetic::adder;
    use glsx_core::sweeping::check_equivalence;
    use glsx_network::simulation::equivalent_by_simulation;
    use glsx_network::Aig;

    fn guarded_script() -> FlowScript {
        FlowScript::parse("bz; rw; rs -c 6; fraig; rwz; rf").unwrap()
    }

    #[test]
    fn fault_plans_parse_and_roundtrip() {
        let plan = FaultPlan::parse("panic@rewrite:3, exhaust@fraig:1,unknown@verify:2").unwrap();
        assert_eq!(plan.len(), 3);
        assert_eq!(plan.fault_at("rewrite", 3), Some(FaultAction::Panic));
        assert_eq!(plan.fault_at("rewrite", 2), None);
        assert_eq!(plan.fault_at("fraig", 1), Some(FaultAction::Exhaust));
        assert_eq!(plan.fault_at("verify", 2), Some(FaultAction::Unknown));
        assert_eq!(
            plan.to_string(),
            "panic@rewrite:3,exhaust@fraig:1,unknown@verify:2"
        );
        assert_eq!(FaultPlan::parse(&plan.to_string()).unwrap(), plan);
        assert!(FaultPlan::parse("").unwrap().is_empty());
        assert!(FaultPlan::parse("panic@rewrite").is_err());
        assert!(FaultPlan::parse("panic:3").is_err());
        assert!(FaultPlan::parse("explode@rewrite:1").is_err());
        assert!(FaultPlan::parse("panic@rewrite:0").is_err());
        assert!(FaultPlan::parse("unknown@rewrite:1").is_err());
    }

    #[test]
    fn guarded_flow_without_faults_matches_the_plain_flow() {
        let source: Aig = adder(4);
        let mut plain = source.clone();
        let plain_stats = crate::run_script(&mut plain, &guarded_script(), &FlowOptions::default());
        let mut guarded = source.clone();
        let report = run_script_guarded(
            &mut guarded,
            &guarded_script(),
            &FlowOptions::default(),
            &GuardOptions::default(),
        );
        assert_eq!(report.rollbacks, 0, "{report:?}");
        assert_eq!(report.committed, guarded_script().steps().len());
        assert_eq!(report.substitutions, plain_stats.substitutions);
        assert_eq!(guarded.num_gates(), plain.num_gates());
        assert_eq!(guarded.po_signals(), plain.po_signals());
        assert_eq!(report.final_verify, Some(true));
    }

    #[test]
    fn read_only_steps_skip_checkpoint_and_verification() {
        let source: Aig = adder(4);
        let mut ntk = source.clone();
        let report = run_script_guarded(
            &mut ntk,
            &FlowScript::parse("rw; lut_map -k 4; rwz").unwrap(),
            &FlowOptions::default(),
            &GuardOptions {
                verify: VerifyMode::Miter,
                ..GuardOptions::default()
            },
        );
        assert_eq!(report.rollbacks, 0, "{report:?}");
        assert_eq!(report.committed, 3);
        // mutating steps take a snapshot, the read-only mapping query none
        assert_eq!(report.steps[0].checkpoint, CheckpointStrategy::Snapshot);
        assert_eq!(report.steps[1].checkpoint, CheckpointStrategy::None);
        assert_eq!(report.steps[2].checkpoint, CheckpointStrategy::Snapshot);
        // the read-only step also skips its per-step verification:
        // no `verify` span and no miter limit flag
        assert_eq!(report.steps[1].substitutions, 0);
        assert!(!report.steps[1].verify_limit_exhausted);
        assert_eq!(report.final_verify, Some(true));
        assert!(equivalent_by_simulation(&source, &ntk));
        // a deadline-skipped step reports no checkpoint either
        let mut ntk = source.clone();
        let report = run_script_guarded(
            &mut ntk,
            &guarded_script(),
            &FlowOptions::default(),
            &GuardOptions {
                deadline: Some(Duration::ZERO),
                ..GuardOptions::default()
            },
        );
        assert!(report
            .steps
            .iter()
            .all(|s| s.checkpoint == CheckpointStrategy::None));
    }

    #[test]
    fn injected_panics_roll_back_and_the_flow_recovers() {
        let source: Aig = adder(4);
        let mut ntk = source.clone();
        let report = run_script_guarded(
            &mut ntk,
            &guarded_script(),
            &FlowOptions::default(),
            &GuardOptions {
                fault_plan: FaultPlan::parse("panic@rewrite:1,panic@resub:1").unwrap(),
                ..GuardOptions::default()
            },
        );
        assert_eq!(report.panics, 2, "{report:?}");
        assert_eq!(report.rollbacks, 2);
        assert_eq!(
            report.committed,
            guarded_script().steps().len() - 2,
            "the remaining steps keep running"
        );
        assert_eq!(report.final_verify, Some(true));
        assert!(equivalent_by_simulation(&source, &ntk));
        let panicked: Vec<&str> = report
            .steps
            .iter()
            .filter(|s| s.failure == Some(FailureKind::Panic))
            .map(|s| s.site)
            .collect();
        assert_eq!(panicked, ["rewrite", "resub"]);
    }

    #[test]
    fn injected_exhaustion_commits_a_clean_prefix() {
        let mut ntk: Aig = adder(4);
        let source = ntk.clone();
        let report = run_script_guarded(
            &mut ntk,
            &guarded_script(),
            &FlowOptions::default(),
            &GuardOptions {
                fault_plan: FaultPlan::parse("exhaust@rewrite:1").unwrap(),
                ..GuardOptions::default()
            },
        );
        assert_eq!(report.rollbacks, 0, "exhaustion is not a failure");
        assert_eq!(report.exhausted_steps, 1, "{report:?}");
        let rewrite_step = report
            .steps
            .iter()
            .find(|s| s.site == "rewrite")
            .expect("script has a rewrite step");
        assert!(matches!(
            rewrite_step.outcome,
            StepOutcome::Exhausted { .. }
        ));
        assert_eq!(rewrite_step.status, StepStatus::Committed);
        assert_eq!(report.final_verify, Some(true));
        assert!(check_equivalence(&source, &ntk).is_equivalent());
    }

    #[test]
    fn starved_verification_rolls_back_conservatively() {
        let mut ntk: Aig = adder(4);
        let source = ntk.clone();
        let report = run_script_guarded(
            &mut ntk,
            &guarded_script(),
            &FlowOptions::default(),
            &GuardOptions {
                fault_plan: FaultPlan::parse("unknown@verify:2").unwrap(),
                ..GuardOptions::default()
            },
        );
        assert_eq!(report.verify_failures, 1, "{report:?}");
        assert_eq!(report.rollbacks, 1);
        let failed = &report.steps[1];
        assert_eq!(failed.status, StepStatus::RolledBack);
        assert_eq!(failed.failure, Some(FailureKind::VerifyUnknown));
        assert!(
            failed.verify_limit_exhausted,
            "a starved miter must be distinguishable from a genuine failure: {failed:?}"
        );
        assert_eq!(report.final_verify, Some(true));
        assert!(check_equivalence(&source, &ntk).is_equivalent());
    }

    #[test]
    fn deadline_skips_steps_instead_of_corrupting_them() {
        let mut ntk: Aig = adder(5);
        let source = ntk.clone();
        let report = run_script_guarded(
            &mut ntk,
            &guarded_script(),
            &FlowOptions::default(),
            &GuardOptions {
                deadline: Some(Duration::ZERO),
                ..GuardOptions::default()
            },
        );
        assert_eq!(report.deadline_skips, guarded_script().steps().len());
        assert_eq!(report.committed, 0);
        assert!(report.steps.iter().all(|s| s.status == StepStatus::Skipped));
        assert_eq!(report.final_verify, Some(true));
        assert!(equivalent_by_simulation(&source, &ntk));
    }

    #[test]
    fn traced_guarded_steps_carry_spans_durations_and_deltas() {
        use glsx_network::telemetry::{TraceMode, Tracer};
        let source: Aig = adder(4);
        let mut plain = source.clone();
        let plain_report = run_script_guarded(
            &mut plain,
            &guarded_script(),
            &FlowOptions::default(),
            &GuardOptions::default(),
        );
        let tracer = Tracer::new(TraceMode::Full);
        let mut traced = source.clone();
        let report = run_script_guarded_traced(
            &mut traced,
            &guarded_script(),
            &FlowOptions::default(),
            &GuardOptions::default(),
            &tracer,
        );
        // tracing is observational: the flow is bit-identical
        assert_eq!(report.substitutions, plain_report.substitutions);
        assert_eq!(traced.num_gates(), plain.num_gates());
        assert_eq!(traced.po_signals(), plain.po_signals());
        for step in &report.steps {
            assert!(step.duration_seconds > 0.0, "{step:?}");
            assert_eq!(step.spans.len(), 1, "one step:<site> root: {step:?}");
            let root = &step.spans[0];
            assert_eq!(root.name, format!("step:{}", step.site));
            assert!(
                root.children.iter().any(|c| c.name == step.site),
                "the pass span nests inside the step span: {root:?}"
            );
            assert!(
                root.children.iter().any(|c| c.name == "verify"),
                "per-step verification is visible: {root:?}"
            );
        }
        assert!(
            report.steps.iter().any(|s| !s.metric_deltas.is_empty()),
            "pass work shows up as counter deltas"
        );
        let rewrite_step = report
            .steps
            .iter()
            .find(|s| s.site == "rewrite")
            .expect("script has a rewrite step");
        assert!(
            rewrite_step
                .metric_deltas
                .iter()
                .any(|(name, _)| name == "rewrite.ticks_spent"),
            "the step budget is absorbed under the site prefix: {rewrite_step:?}"
        );
    }

    /// Each verified step's checker work lands in its counter deltas: the
    /// gates a step left alone are proven structurally, and the flow-wide
    /// counters add up the per-step deltas.
    #[test]
    fn verification_work_is_counted_per_step() {
        use glsx_network::telemetry::{TraceMode, Tracer};
        let mut ntk: Aig = adder(4);
        let tracer = Tracer::new(TraceMode::Counters);
        let report = run_script_guarded_traced(
            &mut ntk,
            &guarded_script(),
            &FlowOptions::default(),
            &GuardOptions::default(),
            &tracer,
        );
        assert_eq!(report.rollbacks, 0, "{report:?}");
        let delta = |step: &StepReport, name: &str| {
            step.metric_deltas
                .iter()
                .find(|(n, _)| n == name)
                .map_or(0, |(_, v)| *v)
        };
        let structural: u64 = report
            .steps
            .iter()
            .map(|s| delta(s, "verify.structural"))
            .sum();
        assert!(structural > 0, "{report:?}");
        assert!(report
            .steps
            .iter()
            .all(|s| delta(s, "verify.structural") > 0));
        let metrics = tracer.metrics();
        assert_eq!(metrics.counter("verify.structural"), structural);
        let conflicts: u64 = report
            .steps
            .iter()
            .map(|s| delta(s, "verify.sat.conflicts"))
            .sum();
        assert_eq!(metrics.counter("verify.sat.conflicts"), conflicts);
    }

    #[test]
    fn selective_trace_marks_narrow_span_recording() {
        use glsx_network::telemetry::{TraceMode, Tracer};
        let mut ntk: Aig = adder(4);
        let script = FlowScript::parse("bz; rw -trace; rs -c 6").unwrap();
        let tracer = Tracer::new(TraceMode::Full);
        let report = run_script_guarded_traced(
            &mut ntk,
            &script,
            &FlowOptions::default(),
            &GuardOptions::default(),
            &tracer,
        );
        assert!(report.steps[0].spans.is_empty(), "{:?}", report.steps[0]);
        assert!(!report.steps[1].spans.is_empty(), "{:?}", report.steps[1]);
        assert!(report.steps[2].spans.is_empty(), "{:?}", report.steps[2]);
        // counters are not narrowed by -trace: unmarked steps still report
        assert!(
            !report.steps[2].metric_deltas.is_empty(),
            "{:?}",
            report.steps[2]
        );
    }

    #[test]
    fn script_budgets_reach_the_guarded_steps() {
        let mut ntk: Aig = adder(4);
        let script = FlowScript::parse("rw -budget 1; rs -c 6").unwrap();
        let report = run_script_guarded(
            &mut ntk,
            &script,
            &FlowOptions::default(),
            &GuardOptions::default(),
        );
        assert!(matches!(
            report.steps[0].outcome,
            StepOutcome::Exhausted { .. }
        ));
        assert_eq!(report.steps[0].step, "rw -budget 1");
        assert_eq!(report.steps[1].outcome, StepOutcome::Completed);
        assert_eq!(report.final_verify, Some(true));
    }
}
