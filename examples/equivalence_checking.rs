//! SAT sweeping and miter-based equivalence checking, end to end.
//!
//! Builds an arithmetic circuit, injects structurally distinct but
//! functionally redundant cones, removes them with the `fraig` flow step,
//! and *proves* (rather than merely fails to refute) that every
//! transformation — the sweep itself, a follow-up optimisation flow and an
//! AIGER round-trip — preserved the circuit's function.
//!
//! Run with `cargo run --release --example equivalence_checking`.

use glsx::algorithms::sweeping::{check_equivalence, sweep, EquivalenceResult, SweepParams};
use glsx::benchmarks::{arithmetic::multiplier, inject_redundancy};
use glsx::flow::{run_script, FlowOptions, FlowScript};
use glsx::io::{read_aiger, write_aiger};
use glsx::network::{Aig, Network};

fn main() {
    // a multiplier with six seeded redundant cones (each a three-gate
    // re-expression of an existing node behind a fresh output)
    let mut aig: Aig = multiplier(6);
    let clean_gates = aig.num_gates();
    inject_redundancy(&mut aig, 6, 0xfabu64);
    println!(
        "multiplier_6: {clean_gates} gates, {} after injecting redundancy",
        aig.num_gates()
    );
    let redundant = aig.clone();

    // SAT sweeping partitions nodes by word-parallel simulation
    // signatures, proves each candidate class on its own miter solver and
    // merges only what the solver certified
    let stats = sweep(&mut aig, &SweepParams::default());
    println!(
        "sweep: {} -> {} gates, {} proven merges, {} refuted pairs, {} skipped, {} SAT conflicts",
        stats.gates_before,
        stats.gates_after,
        stats.proven,
        stats.refuted,
        stats.skipped,
        stats.conflicts
    );

    // the sweep is equivalence-preserving by construction — and provably
    // so; the outcome also reports how hard the proof was
    let outcome = check_equivalence(&redundant, &aig);
    match outcome.result {
        EquivalenceResult::Equivalent => println!(
            "miter: sweep output proven equivalent ({} conflicts, {} propagations)",
            outcome.solver.conflicts, outcome.solver.propagations
        ),
        other => panic!("sweep broke the circuit: {other:?}"),
    }

    // fraig composes with the optimisation flow like any other step
    let script = FlowScript::parse("fraig; bz; rw; rs -c 8; rwz").unwrap();
    let flow_stats = run_script(&mut aig, &script, &FlowOptions::default());
    println!(
        "flow `{script}`: {} -> {} gates",
        flow_stats.initial_size, flow_stats.final_size
    );
    assert!(check_equivalence(&redundant, &aig).is_equivalent());

    // and the guarantee survives an AIGER round-trip
    let reread = read_aiger(write_aiger(&aig)).expect("well-formed AIGER");
    assert!(check_equivalence(&aig, &reread).is_equivalent());
    println!("miter: optimised + exported + re-read network still equivalent");
}
