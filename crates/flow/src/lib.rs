//! # glsx-flow
//!
//! The generic resynthesis flow of the paper: a sequence of balancing,
//! resubstitution, rewriting and refactoring passes modelled after the
//! ABC `compress2rs` area-optimisation script, formulated entirely through
//! the network interface API so that the same script optimises AIGs, XAGs,
//! MIGs and XMGs.
//!
//! The crate also provides a small flow-script language
//! ([`FlowScript::parse`], accepting the `bz; rs -c 6; rw; …` syntax used
//! in the paper), a hand-specialised AIG-only flow
//! ([`specialized::specialized_aig_compress2rs`]) serving as the Table-1
//! baseline, and a [`portfolio_best_luts`] runner that optimises a
//! benchmark with all representations and keeps the best result.
//!
//! # Example
//!
//! ```
//! use glsx_benchmarks::arithmetic::adder;
//! use glsx_flow::{compress2rs, FlowOptions};
//! use glsx_network::{Aig, Network};
//!
//! let mut aig: Aig = adder(4);
//! let stats = compress2rs(&mut aig, &FlowOptions::default());
//! assert!(stats.final_size <= stats.initial_size);
//! ```

mod executor;
mod portfolio;
mod script;
pub mod specialized;

pub use executor::{
    run_script_guarded, run_script_guarded_traced, CheckpointStrategy, FailureKind, FaultAction,
    FaultPlan, FlowReport, GuardOptions, ParseFaultPlanError, StepReport, StepStatus, VerifyMode,
};
pub use portfolio::{portfolio_best_luts, portfolio_best_luts_traced, PortfolioResult};
pub use script::{FlowScript, FlowStep, ParseFlowScriptError};

use glsx_core::balancing::{balance_traced, BalanceParams};
use glsx_core::lut_mapping::{lut_map_traced, LutMapParams, LutMapStats};
use glsx_core::refactoring::{refactor_traced, RefactorParams};
use glsx_core::resubstitution::{resubstitute_traced, ResubNetwork, ResubParams};
use glsx_core::rewriting::{rewrite_traced, RewriteParams};
use glsx_core::sweeping::{sweep_traced, SweepEngine, SweepParams};
use glsx_network::telemetry::{self, SpanOverride, Tracer};
use glsx_network::{cleanup_dangling, Budget, GateBuilder, Klut, Network};
use glsx_synth::{NpnDatabase, SopResynthesis};
use std::time::Instant;

/// Options of the generic resynthesis flow.  They set what the passes do,
/// never how many threads run them: threaded paths choose from the machine
/// and the input ([`glsx_core::lut_mapping::uses_bulk_enumeration`]).
#[derive(Clone, Copy, Debug)]
pub struct FlowOptions {
    /// Maximum cut size used by rewriting.
    pub rewrite_cut_size: usize,
    /// Maximum number of leaves used by refactoring.
    pub refactor_leaves: usize,
    /// Upper bound on resubstitution divisors.
    pub max_divisors: usize,
    /// SAT-sweeping parameters used by `fraig` steps.
    pub sweep: SweepParams,
}

impl Default for FlowOptions {
    fn default() -> Self {
        Self {
            rewrite_cut_size: 4,
            refactor_leaves: 10,
            max_divisors: 50,
            sweep: SweepParams::default(),
        }
    }
}

/// Statistics of a flow run.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct FlowStats {
    /// Gate count before the flow.
    pub initial_size: usize,
    /// Gate count after the flow.
    pub final_size: usize,
    /// Depth before the flow.
    pub initial_depth: u32,
    /// Depth after the flow.
    pub final_depth: u32,
    /// Wall-clock runtime of the flow in seconds.
    pub runtime_seconds: f64,
    /// Total number of committed substitutions over all passes.
    pub substitutions: usize,
}

/// Runs one step of the flow script on a network and returns the number of
/// committed substitutions (rebuild operations for balancing).  Creates a
/// fresh [`SweepEngine`] per call; [`run_step_traced`] recycles one across
/// the `fraig` steps of a flow.
pub fn run_step<N>(ntk: &mut N, step: &FlowStep, options: &FlowOptions) -> usize
where
    N: Network + GateBuilder + ResubNetwork,
{
    run_step_traced(
        ntk,
        step,
        options,
        &mut SweepEngine::new(),
        &Budget::unlimited(),
        telemetry::global(),
    )
}

/// [`run_step`] with a caller-provided [`SweepEngine`], under a
/// cooperative effort [`Budget`], reporting through an explicit telemetry
/// [`Tracer`].
///
/// Consecutive `fraig` steps of one flow recycle the engine's simulation
/// pattern words (initial random patterns plus every counterexample
/// already paid for), so repeated sweeps start from refined classes
/// instead of restarting.  Sound within one flow because every pass
/// preserves each node's function over the primary inputs and the engine
/// keeps only input patterns: the ids of nodes that were ever reachable
/// are never reused, and a rolled-back trial's ids are given out again
/// without changing any reachable node.  Pass a fresh engine per network;
/// it resets itself only when `size()` drops below its last sweep, which
/// a rollback cannot cause.
///
/// The budget is threaded into the pass, so an exhausted step stops
/// cleanly between candidates with every committed substitution intact
/// (the pass's `outcome` is readable via [`Budget::outcome`]).  The step
/// is dispatched to the pass's `*_traced` entry point, which records its
/// pass/phase/candidate-batch spans and pours its stats into the tracer's
/// metrics registry; the plain entry points observe the process-wide
/// `GLSX_TRACE` tracer ([`glsx_network::telemetry::global`]).
pub fn run_step_traced<N>(
    ntk: &mut N,
    step: &FlowStep,
    options: &FlowOptions,
    sweep_engine: &mut SweepEngine,
    budget: &Budget,
    tracer: &Tracer,
) -> usize
where
    N: Network + GateBuilder + ResubNetwork,
{
    match step {
        FlowStep::Balance => {
            let stats = balance_traced(ntk, &BalanceParams::default(), budget, tracer);
            stats.rebuilt
        }
        FlowStep::Rewrite { zero_gain, .. } => {
            let params = RewriteParams {
                cut_size: options.rewrite_cut_size,
                allow_zero_gain: *zero_gain,
                ..RewriteParams::default()
            };
            let mut database = NpnDatabase::new();
            let stats = rewrite_traced(ntk, &mut database, &params, budget, tracer);
            tracer.absorb("rewrite.npn", &database.stats());
            stats.substitutions
        }
        FlowStep::Refactor { zero_gain } => {
            let stats = refactor_traced(
                ntk,
                &mut SopResynthesis,
                &RefactorParams {
                    max_leaves: options.refactor_leaves,
                    allow_zero_gain: *zero_gain,
                    ..RefactorParams::default()
                },
                budget,
                tracer,
            );
            stats.substitutions
        }
        FlowStep::Resubstitute { cut_size, depth } => {
            let stats = resubstitute_traced(
                ntk,
                &ResubParams {
                    max_leaves: (*cut_size).min(12),
                    max_inserts: *depth,
                    max_divisors: options.max_divisors,
                    allow_zero_gain: false,
                },
                budget,
                tracer,
            );
            stats.substitutions
        }
        FlowStep::Fraig {
            conflict_limit,
            record_choices,
        } => {
            let mut params = options.sweep;
            if let Some(limit) = conflict_limit {
                params.conflict_limit = *limit;
            }
            if *record_choices {
                params.record_choices = true;
            }
            let stats = sweep_traced(ntk, &params, sweep_engine, budget, tracer);
            stats.proven
        }
        // mapping changes the representation and is consumed by
        // `run_script_and_map` as the terminal step; inside an in-place
        // pass sequence it has nothing to do
        FlowStep::LutMap { .. } => 0,
    }
}

/// Runs a complete flow script on a network and returns statistics.  The
/// network is compacted (dangling logic removed) at the end — note that
/// the compaction rebuild also drops choice rings recorded by
/// `fraig -choices` steps, so flows that should *map over* the recorded
/// choices use [`run_script_and_map`] (which maps before compacting);
/// [`FlowStep::LutMap`] steps are skipped here for the same reason.
///
/// Consecutive `fraig` steps share one [`SweepEngine`] (pattern words
/// recycled).
pub fn run_script<N>(ntk: &mut N, script: &FlowScript, options: &FlowOptions) -> FlowStats
where
    N: Network + GateBuilder + ResubNetwork,
{
    run_script_traced(ntk, script, options, telemetry::global())
}

/// Applies the script's selective `-trace` marks for step `index`: when
/// the script marks any step ([`FlowScript::has_traced_steps`]), span
/// recording is forced on the marked steps and suppressed on the rest.
/// The caller resets the override with [`clear_step_overrides`].
pub(crate) fn apply_step_override(tracer: &Tracer, script: &FlowScript, index: usize) {
    if script.has_traced_steps() {
        tracer.set_span_override(if script.is_traced(index) {
            SpanOverride::Force
        } else {
            SpanOverride::Suppress
        });
    }
}

/// Undoes [`apply_step_override`] after the last step of a script.
pub(crate) fn clear_step_overrides(tracer: &Tracer, script: &FlowScript) {
    if script.has_traced_steps() {
        tracer.set_span_override(SpanOverride::ModeDefault);
    }
}

/// [`run_script`] reporting through an explicit telemetry [`Tracer`]
/// (see [`run_step_traced`]); `-trace` marks in the script narrow span
/// recording to exactly the marked steps.
pub fn run_script_traced<N>(
    ntk: &mut N,
    script: &FlowScript,
    options: &FlowOptions,
    tracer: &Tracer,
) -> FlowStats
where
    N: Network + GateBuilder + ResubNetwork,
{
    run_flow(ntk, script, script.steps().len(), options, tracer, |_| ()).0
}

/// The body of the two unguarded runners: runs the first `passes` steps
/// of `script` in place, each under its script budget and `-trace` mark,
/// with one shared [`SweepEngine`], then `finish` (the terminal mapping of
/// [`run_script_and_map`]), then compacts the network.
fn run_flow<N, R>(
    ntk: &mut N,
    script: &FlowScript,
    passes: usize,
    options: &FlowOptions,
    tracer: &Tracer,
    finish: impl FnOnce(&N) -> R,
) -> (FlowStats, R)
where
    N: Network + GateBuilder + ResubNetwork,
{
    let start = Instant::now();
    // a bulk-loaded network materialises its deferred fanout lists and
    // strash table here, before any pass traverses fanouts
    ntk.ensure_derived_state();
    let mut stats = FlowStats {
        initial_size: ntk.num_gates(),
        initial_depth: glsx_network::views::network_depth(ntk),
        ..FlowStats::default()
    };
    let mut engine = SweepEngine::new();
    for (index, step) in script.steps()[..passes].iter().enumerate() {
        let budget = match script.budget_of(index) {
            Some(ticks) => Budget::with_ticks(ticks),
            None => Budget::unlimited(),
        };
        apply_step_override(tracer, script, index);
        stats.substitutions += run_step_traced(ntk, step, options, &mut engine, &budget, tracer);
    }
    let result = finish(ntk);
    clear_step_overrides(tracer, script);
    *ntk = cleanup_dangling(ntk);
    stats.final_size = ntk.num_gates();
    stats.final_depth = glsx_network::views::network_depth(ntk);
    stats.runtime_seconds = start.elapsed().as_secs_f64();
    (stats, result)
}

/// Runs a flow script that ends in LUT mapping: every optimisation step is
/// executed in place ([`run_step_traced`], one shared [`SweepEngine`]), then
/// the network is mapped **before** the compaction rebuild, so choice
/// rings recorded by `fraig -choices` steps are still alive when the
/// mapper selects over them.  The mapping parameters come from the
/// script's trailing [`FlowStep::LutMap`] step (or `defaults` when the
/// script ends without one); a `lut_map` step anywhere but last is
/// skipped, as in [`run_script`].
///
/// Returns the flow statistics, the mapped network and the mapping
/// statistics.
pub fn run_script_and_map<N>(
    ntk: &mut N,
    script: &FlowScript,
    options: &FlowOptions,
    defaults: &LutMapParams,
) -> (FlowStats, Klut, LutMapStats)
where
    N: Network + GateBuilder + ResubNetwork,
{
    run_script_and_map_traced(ntk, script, options, defaults, telemetry::global())
}

/// [`run_script_and_map`] reporting through an explicit telemetry
/// [`Tracer`] (see [`run_step_traced`]); the terminal mapping records its
/// `lut_map` span and stats on the same tracer.
pub fn run_script_and_map_traced<N>(
    ntk: &mut N,
    script: &FlowScript,
    options: &FlowOptions,
    defaults: &LutMapParams,
    tracer: &Tracer,
) -> (FlowStats, Klut, LutMapStats)
where
    N: Network + GateBuilder + ResubNetwork,
{
    let mut map_params = *defaults;
    let steps = script.steps();
    let passes = match steps.last() {
        Some(FlowStep::LutMap {
            lut_size,
            use_choices,
        }) => {
            map_params.lut_size = *lut_size;
            map_params.use_choices = *use_choices;
            steps.len() - 1
        }
        _ => steps.len(),
    };
    let (stats, (klut, map_stats)) = run_flow(ntk, script, passes, options, tracer, |ntk| {
        // a trailing `lut_map -trace` mark applies to the mapping itself; a
        // selective script without one keeps the defaults-mapping suppressed
        if script.has_traced_steps() {
            if steps.len() > passes {
                apply_step_override(tracer, script, steps.len() - 1);
            } else {
                tracer.set_span_override(SpanOverride::Suppress);
            }
        }
        lut_map_traced(ntk, &map_params, &Budget::unlimited(), tracer)
    });
    (stats, klut, map_stats)
}

/// The paper's generic area-optimisation flow, modelled after ABC's
/// `compress2rs`:
///
/// ```text
/// bz; rs -c 6; rw; rs -c 6 -d 2; rf; rs -c 8; bz; rs -c 8 -d 2; rw;
/// rs -c 10; rwz; rs -c 10 -d 2; bz; rs -c 12; rfz; rs -c 12 -d 2; rwz; bz
/// ```
pub fn compress2rs_script() -> FlowScript {
    FlowScript::parse(
        "bz; rs -c 6; rw; rs -c 6 -d 2; rf; rs -c 8; bz; rs -c 8 -d 2; rw; \
         rs -c 10; rwz; rs -c 10 -d 2; bz; rs -c 12; rfz; rs -c 12 -d 2; rwz; bz",
    )
    .expect("the built-in script is well-formed")
}

/// Runs the `compress2rs`-style generic flow on a network.
pub fn compress2rs<N>(ntk: &mut N, options: &FlowOptions) -> FlowStats
where
    N: Network + GateBuilder + ResubNetwork,
{
    run_script(ntk, &compress2rs_script(), options)
}

#[cfg(test)]
mod tests {
    use super::*;
    use glsx_benchmarks::arithmetic::{adder, multiplier};
    use glsx_benchmarks::control::random_control;
    use glsx_network::simulation::{equivalent_by_random_simulation, equivalent_by_simulation};
    use glsx_network::{convert_network, Aig, Mig, Xag};

    #[test]
    fn compress2rs_shrinks_an_adder_in_every_representation() {
        let aig: Aig = adder(4);
        let mut opt_aig = aig.clone();
        let stats = compress2rs(&mut opt_aig, &FlowOptions::default());
        assert!(stats.final_size <= stats.initial_size);
        assert!(equivalent_by_simulation(&aig, &opt_aig));

        let mig: Mig = convert_network(&aig);
        let mut opt_mig = mig.clone();
        let stats = compress2rs(&mut opt_mig, &FlowOptions::default());
        assert!(stats.final_size <= stats.initial_size);
        assert!(equivalent_by_simulation(&aig, &opt_mig));

        let xag: Xag = convert_network(&aig);
        let mut opt_xag = xag.clone();
        let stats = compress2rs(&mut opt_xag, &FlowOptions::default());
        assert!(stats.final_size <= stats.initial_size);
        assert!(equivalent_by_simulation(&aig, &opt_xag));
    }

    /// Every `rw` step pours its own NPN database's memo counters into
    /// the tracer, so a second step canonises again from an empty memo.
    #[test]
    fn rewrite_steps_report_their_npn_memo_work() {
        use glsx_network::telemetry::{TraceMode, Tracer};
        let npn_counters = |script: &str| {
            let tracer = Tracer::new(TraceMode::Counters);
            let mut aig: Aig = adder(8);
            let script = FlowScript::parse(script).unwrap();
            run_script_traced(&mut aig, &script, &FlowOptions::default(), &tracer);
            let metrics = tracer.metrics();
            ["canonisations", "cache_hits", "chains_built"]
                .map(|name| metrics.counter(&format!("rewrite.npn.{name}")))
        };
        let [canonisations, hits, chains] = npn_counters("rw");
        assert!(hits > 0 && chains > 0 && chains <= canonisations);
        let [twice, _, _] = npn_counters("rw; rw");
        assert!(twice > canonisations, "{twice} vs {canonisations}");
    }

    #[test]
    fn flow_preserves_function_of_control_logic() {
        let aig: Aig = random_control(12, 120, 10, 99);
        let mut optimised = aig.clone();
        let stats = compress2rs(&mut optimised, &FlowOptions::default());
        assert!(stats.final_size <= stats.initial_size);
        assert!(equivalent_by_random_simulation(&aig, &optimised, 16, 3));
    }

    #[test]
    fn fraig_steps_remove_injected_redundancy() {
        let mut aig: Aig = adder(4);
        glsx_benchmarks::inject_redundancy(&mut aig, 6, 0x5117);
        let reference = aig.clone();
        let script = FlowScript::parse("fraig").unwrap();
        let stats = run_script(&mut aig, &script, &FlowOptions::default());
        assert!(
            stats.substitutions >= 1,
            "sweeping must merge injected duplicates: {stats:?}"
        );
        assert!(stats.final_size < stats.initial_size, "{stats:?}");
        assert!(equivalent_by_random_simulation(&reference, &aig, 8, 0xF1));
        assert!(glsx_core::sweeping::check_equivalence(&reference, &aig).is_equivalent());
    }

    /// `fraig -c <n>` threads the conflict budget from the script into
    /// the sweep: with a one-conflict budget the structurally distinct
    /// parity pair cannot be proven, with the default budget it merges.
    #[test]
    fn fraig_conflict_budget_is_script_controllable() {
        let build = || {
            let mut aig = Aig::new();
            let pis: Vec<glsx_network::Signal> = (0..6).map(|_| aig.create_pi()).collect();
            let mut chain = pis[0];
            for &pi in &pis[1..] {
                chain = aig.create_xor(chain, pi);
            }
            let mut layer = pis.clone();
            while layer.len() > 1 {
                let mut next = Vec::new();
                for pair in layer.chunks(2) {
                    next.push(if pair.len() == 2 {
                        aig.create_xor(pair[0], pair[1])
                    } else {
                        pair[0]
                    });
                }
                layer = next;
            }
            aig.create_po(chain);
            aig.create_po(layer[0]);
            aig
        };
        let mut starved = build();
        let before = starved.num_gates();
        let script = FlowScript::parse("fraig -c 1").unwrap();
        let merges = run_script(&mut starved, &script, &FlowOptions::default()).substitutions;
        assert_eq!(merges, 0, "a one-conflict budget must skip the pair");
        assert_eq!(starved.num_gates(), before);

        let mut generous = build();
        let script = FlowScript::parse("fraig").unwrap();
        let merges = run_script(&mut generous, &script, &FlowOptions::default()).substitutions;
        assert!(merges >= 1, "the default budget proves the parity pair");
        assert!(generous.num_gates() < before);
    }

    /// The `fraig -choices; lut_map -choices` script path: choices are
    /// recorded, survive until mapping, the mapped result is miter-proven
    /// equivalent to the source, and it never uses more LUTs than the
    /// choices-off reference flow.
    #[test]
    fn choice_flow_maps_over_recorded_choices() {
        let mut source: Aig = adder(4);
        glsx_benchmarks::inject_restructured(&mut source, 4, 0xc01c);
        let reference = source.clone();

        let on_script = FlowScript::parse("fraig -choices; lut_map -k 4 -choices").unwrap();
        let off_script = FlowScript::parse("fraig; lut_map -k 4").unwrap();
        let defaults = glsx_core::lut_mapping::LutMapParams::with_lut_size(4);

        let mut on_ntk = source.clone();
        let (on_flow, on_klut, on_stats) =
            run_script_and_map(&mut on_ntk, &on_script, &FlowOptions::default(), &defaults);
        assert!(
            on_flow.substitutions >= 1,
            "fraig must prove the alternatives"
        );
        let mut off_ntk = source.clone();
        let (_, off_klut, off_stats) = run_script_and_map(
            &mut off_ntk,
            &off_script,
            &FlowOptions::default(),
            &defaults,
        );

        assert!(
            glsx_core::sweeping::check_equivalence(&reference, &on_klut).is_equivalent(),
            "choices-on mapping broke the function"
        );
        assert!(
            glsx_core::sweeping::check_equivalence(&reference, &off_klut).is_equivalent(),
            "choices-off mapping broke the function"
        );
        assert!(
            on_stats.num_luts <= off_stats.num_luts,
            "choices must never cost LUTs: {on_stats:?} vs {off_stats:?}"
        );
        // the optimised in-place networks are compacted after mapping
        assert!(!on_ntk.has_choices() || on_ntk.num_choice_nodes() == 0);
    }

    /// Mapping the uncompacted post-`fraig` network: strash cascades of
    /// the sweep's merges leave gates whose fanins have larger ids, so
    /// node-id order is not a build order for the cover.  Both scripts
    /// used to panic with "leaves precede their root" on this circuit
    /// (the choices-on one inside its choices-off recovery mapping).
    #[test]
    fn mapping_after_fraig_builds_covers_in_dependency_order() {
        let mut source: Aig = glsx_benchmarks::arithmetic::mac_datapath(8, 1);
        glsx_benchmarks::inject_redundancy(&mut source, 200, 7);
        glsx_benchmarks::inject_restructured(&mut source, 200, 9);
        let defaults = glsx_core::lut_mapping::LutMapParams::with_lut_size(6);
        for text in [
            "fraig; lut_map -k 6",
            "fraig -choices; lut_map -k 6 -choices",
        ] {
            let mut ntk = source.clone();
            let script = FlowScript::parse(text).unwrap();
            let (_, klut, _) =
                run_script_and_map(&mut ntk, &script, &FlowOptions::default(), &defaults);
            assert!(
                equivalent_by_random_simulation(&source, &klut, 8, 0x5eed),
                "`{text}` mapped to a different function"
            );
        }
    }

    /// A script without a trailing `lut_map` maps with the provided
    /// defaults, and plain `run_script` skips `lut_map` steps entirely.
    #[test]
    fn mapping_scripts_degrade_gracefully() {
        let defaults = glsx_core::lut_mapping::LutMapParams::with_lut_size(6);
        let mut aig: Aig = adder(3);
        let reference = aig.clone();
        let script = FlowScript::parse("rw").unwrap();
        let (_, klut, _) =
            run_script_and_map(&mut aig, &script, &FlowOptions::default(), &defaults);
        assert!(glsx_core::sweeping::check_equivalence(&reference, &klut).is_equivalent());

        let mut aig: Aig = adder(3);
        let with_map = FlowScript::parse("rw; lut_map").unwrap();
        let stats = run_script(&mut aig, &with_map, &FlowOptions::default());
        assert!(stats.final_size <= stats.initial_size);
        assert!(equivalent_by_simulation(&reference, &aig));
    }

    /// A `lut_map` step before the last is skipped by the mapping runner
    /// too: the terminal step alone sets the LUT size.
    #[test]
    fn mapping_runner_skips_non_terminal_lut_map_steps() {
        fn check<N: Network + GateBuilder + ResubNetwork + Clone>(ntk: &N) {
            let defaults = LutMapParams::with_lut_size(6);
            let script = FlowScript::parse("lut_map; rw; lut_map -k 4").unwrap();
            let mut optimised = ntk.clone();
            let (_, klut, stats) =
                run_script_and_map(&mut optimised, &script, &FlowOptions::default(), &defaults);
            assert!(klut.max_fanin_size() <= 4, "{stats:?}");
            assert!(equivalent_by_simulation(ntk, &klut));
        }
        let aig: Aig = adder(3);
        check(&aig);
        check(&convert_network::<Aig, Xag>(&aig));
        check(&convert_network::<Aig, Mig>(&aig));
    }

    #[test]
    fn single_steps_can_be_run_in_isolation() {
        let mut aig: Aig = multiplier(3);
        let before = aig.num_gates();
        let script = FlowScript::parse("rw; rs -c 8; bz").unwrap();
        let stats = run_script(&mut aig, &script, &FlowOptions::default());
        assert_eq!(stats.initial_size, before);
        assert_eq!(stats.final_size, aig.num_gates());
        assert!(stats.final_size <= before);
    }
}
