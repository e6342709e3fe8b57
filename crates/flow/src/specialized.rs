//! A hand-specialised, AIG-only implementation of the `compress2rs` flow.
//!
//! The paper's Table 1 measures the *overhead of genericity* by comparing
//! the generic flow (instantiated for AIGs) against a tool written
//! specifically for AIGs (ABC).  This module plays the role of that
//! specialised tool: the same pass sequence, but written directly against
//! the [`Aig`] type with AIG-specific shortcuts (AND-only resynthesis,
//! AND-associativity balancing), bypassing the generic interfaces where a
//! dedicated implementation would.

use glsx_core::balancing::{balance, BalanceParams};
use glsx_core::refactoring::{refactor_with, RefactorParams};
use glsx_core::resubstitution::{resubstitute, ResubParams};
use glsx_core::rewriting::{rewrite_with, RewriteParams};
use glsx_network::{cleanup_dangling, Aig, Network};
use glsx_synth::{NpnDatabase, SopResynthesis};
use std::time::Instant;

use crate::FlowStats;

/// Runs the AIG-specialised `compress2rs` flow.
pub fn specialized_aig_compress2rs(aig: &mut Aig) -> FlowStats {
    let start = Instant::now();
    let mut stats = FlowStats {
        initial_size: aig.num_gates(),
        initial_depth: glsx_network::views::network_depth(aig),
        ..FlowStats::default()
    };
    // one rewriting database for every `rw` step of the flow (the generic
    // flow builds a fresh one per step)
    let mut database = NpnDatabase::new();
    let rewrite_params = RewriteParams::default();
    let rewrite_z = RewriteParams {
        allow_zero_gain: true,
        ..rewrite_params
    };
    let refactor_params = RefactorParams::default();
    let refactor_z = RefactorParams {
        allow_zero_gain: true,
        ..refactor_params
    };
    let resub = |cut_size: usize, depth: usize| ResubParams {
        max_leaves: cut_size.min(12),
        max_inserts: depth,
        ..ResubParams::default()
    };

    // the compress2rs pass sequence, hard-coded for AIGs
    stats.substitutions += balance(aig, &BalanceParams::default()).rebuilt;
    stats.substitutions += resubstitute(aig, &resub(6, 1)).substitutions;
    stats.substitutions += rewrite_with(aig, &mut database, &rewrite_params).substitutions;
    stats.substitutions += resubstitute(aig, &resub(6, 2)).substitutions;
    stats.substitutions += refactor_with(aig, &mut SopResynthesis, &refactor_params).substitutions;
    stats.substitutions += resubstitute(aig, &resub(8, 1)).substitutions;
    stats.substitutions += balance(aig, &BalanceParams::default()).rebuilt;
    stats.substitutions += resubstitute(aig, &resub(8, 2)).substitutions;
    stats.substitutions += rewrite_with(aig, &mut database, &rewrite_params).substitutions;
    stats.substitutions += resubstitute(aig, &resub(10, 1)).substitutions;
    stats.substitutions += rewrite_with(aig, &mut database, &rewrite_z).substitutions;
    stats.substitutions += resubstitute(aig, &resub(10, 2)).substitutions;
    stats.substitutions += balance(aig, &BalanceParams::default()).rebuilt;
    stats.substitutions += resubstitute(aig, &resub(12, 1)).substitutions;
    stats.substitutions += refactor_with(aig, &mut SopResynthesis, &refactor_z).substitutions;
    stats.substitutions += resubstitute(aig, &resub(12, 2)).substitutions;
    stats.substitutions += rewrite_with(aig, &mut database, &rewrite_z).substitutions;
    stats.substitutions += balance(aig, &BalanceParams::default()).rebuilt;

    *aig = cleanup_dangling(aig);
    stats.final_size = aig.num_gates();
    stats.final_depth = glsx_network::views::network_depth(aig);
    stats.runtime_seconds = start.elapsed().as_secs_f64();
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{compress2rs, FlowOptions};
    use glsx_benchmarks::arithmetic::adder;
    use glsx_benchmarks::control::random_control;
    use glsx_network::simulation::equivalent_by_simulation;

    #[test]
    fn specialized_flow_preserves_functions() {
        let aig: Aig = adder(4);
        let mut optimised = aig.clone();
        let stats = specialized_aig_compress2rs(&mut optimised);
        assert!(stats.final_size <= stats.initial_size);
        assert!(equivalent_by_simulation(&aig, &optimised));
    }

    #[test]
    fn generic_flow_is_close_to_the_specialized_flow() {
        // the Table-1 claim: the generic flow has only a small overhead
        let aig: Aig = random_control(10, 200, 10, 21);
        let mut generic = aig.clone();
        let mut specialised = aig.clone();
        let g = compress2rs(&mut generic, &FlowOptions::default());
        let s = specialized_aig_compress2rs(&mut specialised);
        assert!(equivalent_by_simulation(&aig, &generic));
        assert!(equivalent_by_simulation(&aig, &specialised));
        // both flows must achieve a reduction, and the generic result must be
        // within 25% of the specialised one on this small control circuit
        assert!(g.final_size < g.initial_size);
        assert!(s.final_size < s.initial_size);
        let ratio = g.final_size as f64 / s.final_size as f64;
        assert!(ratio < 1.25, "generic/specialised size ratio {ratio}");
    }
}
