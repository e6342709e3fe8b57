//! The portfolio approach suggested in the paper's conclusion: run the
//! same generic flow with every representation and keep the best result
//! after LUT mapping.

use crate::{compress2rs_script, run_script_traced, FlowOptions};
use glsx_core::lut_mapping::{lut_map_traced, LutMapParams};
use glsx_core::resubstitution::ResubNetwork;
use glsx_network::telemetry::{self, Tracer};
use glsx_network::{convert_network, Aig, Budget, GateBuilder, Mig, Network, Xag};

/// Result of a portfolio run for one benchmark.
#[derive(Clone, Debug, PartialEq)]
pub struct PortfolioResult {
    /// Name of the winning representation (`"AIG"`, `"MIG"` or `"XAG"`).
    pub winner: &'static str,
    /// Number of k-LUTs of the winning result.
    pub best_luts: usize,
    /// LUT counts per representation, in the order AIG, MIG, XAG.
    pub luts_per_representation: [usize; 3],
}

/// One representation's portfolio job: optimise in place, map, count LUTs.
fn flow_and_map<N>(
    ntk: &mut N,
    options: &FlowOptions,
    map_params: &LutMapParams,
    tracer: &Tracer,
) -> usize
where
    N: Network + GateBuilder + ResubNetwork,
{
    run_script_traced(ntk, &compress2rs_script(), options, tracer);
    lut_map_traced(ntk, map_params, &Budget::unlimited(), tracer)
        .1
        .num_luts
}

/// Optimises `aig` with the generic flow instantiated for AIGs, MIGs and
/// XAGs, maps every result into `lut_size`-input LUTs and returns the best.
///
/// The three per-representation jobs are fully independent, so they run
/// on one scoped thread each and are joined in the fixed AIG, MIG, XAG
/// order: the result equals running the three flows one after another.
pub fn portfolio_best_luts(aig: &Aig, options: &FlowOptions, lut_size: usize) -> PortfolioResult {
    portfolio_best_luts_traced(aig, options, lut_size, telemetry::global())
}

/// [`portfolio_best_luts`] reporting through an explicit telemetry
/// [`Tracer`]: each representation's job runs under a `portfolio_aig` /
/// `portfolio_mig` / `portfolio_xag` span on a worker that names its
/// trace lane (`portfolio-aig`, …), so an exported Chrome trace shows the
/// three flows as concurrent named rows.  Tracing is observational only:
/// the result stays bit-identical to the untraced run.
pub fn portfolio_best_luts_traced(
    aig: &Aig,
    options: &FlowOptions,
    lut_size: usize,
    tracer: &Tracer,
) -> PortfolioResult {
    let map_params = LutMapParams::with_lut_size(lut_size);

    // conversion is cheap and deterministic; doing it up front leaves
    // three jobs with no shared state at all
    let mut as_aig = aig.clone();
    let mut as_mig: Mig = convert_network(aig);
    let mut as_xag: Xag = convert_network(aig);

    let [aig_luts, mig_luts, xag_luts] = std::thread::scope(|scope| {
        let aig_job = scope.spawn(|| {
            tracer.name_lane("portfolio-aig");
            let _job = tracer.span("portfolio_aig");
            flow_and_map(&mut as_aig, options, &map_params, tracer)
        });
        let mig_job = scope.spawn(|| {
            tracer.name_lane("portfolio-mig");
            let _job = tracer.span("portfolio_mig");
            flow_and_map(&mut as_mig, options, &map_params, tracer)
        });
        let xag_job = scope.spawn(|| {
            tracer.name_lane("portfolio-xag");
            let _job = tracer.span("portfolio_xag");
            flow_and_map(&mut as_xag, options, &map_params, tracer)
        });
        [
            aig_job.join().expect("AIG portfolio worker panicked"),
            mig_job.join().expect("MIG portfolio worker panicked"),
            xag_job.join().expect("XAG portfolio worker panicked"),
        ]
    });

    let results = [("AIG", aig_luts), ("MIG", mig_luts), ("XAG", xag_luts)];
    let (winner, best_luts) = results
        .iter()
        .copied()
        .min_by_key(|&(_, luts)| luts)
        .expect("three candidates");
    PortfolioResult {
        winner,
        best_luts,
        luts_per_representation: [aig_luts, mig_luts, xag_luts],
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::compress2rs;
    use glsx_benchmarks::arithmetic::adder;
    use glsx_core::lut_mapping::lut_map_stats;

    /// The serial oracle: the three flows run one after another through
    /// public calls.
    fn sequential_luts(aig: &Aig, lut_size: usize) -> [usize; 3] {
        fn flow_luts<N: Network + GateBuilder + ResubNetwork>(mut ntk: N, k: usize) -> usize {
            compress2rs(&mut ntk, &FlowOptions::default());
            lut_map_stats(&ntk, &LutMapParams::with_lut_size(k)).num_luts
        }
        [
            flow_luts(aig.clone(), lut_size),
            flow_luts(convert_network::<Aig, Mig>(aig), lut_size),
            flow_luts(convert_network::<Aig, Xag>(aig), lut_size),
        ]
    }

    #[test]
    fn portfolio_picks_the_minimum() {
        let aig: Aig = adder(4);
        let result = portfolio_best_luts(&aig, &FlowOptions::default(), 6);
        let expected_best = *result.luts_per_representation.iter().min().unwrap();
        assert_eq!(result.best_luts, expected_best);
        assert!(["AIG", "MIG", "XAG"].contains(&result.winner));
        assert!(result.best_luts > 0);
    }

    #[test]
    fn parallel_portfolio_is_bit_identical_to_serial() {
        for aig in [adder(4), glsx_benchmarks::arithmetic::multiplier(4)] {
            for lut_size in [4, 6] {
                let result = portfolio_best_luts(&aig, &FlowOptions::default(), lut_size);
                assert_eq!(
                    result.luts_per_representation,
                    sequential_luts(&aig, lut_size),
                    "{lut_size}-LUTs"
                );
            }
        }
    }

    #[test]
    fn traced_parallel_portfolio_is_pure_well_nested_and_concurrent() {
        use glsx_network::telemetry::{
            concurrent_lanes, parse_chrome_trace, spans_well_nested, TraceMode, Tracer,
        };
        let aig: Aig = adder(4);
        let options = FlowOptions::default();
        let untraced = portfolio_best_luts_traced(&aig, &options, 6, &Tracer::off());
        let tracer = Tracer::new(TraceMode::Full);
        let traced = portfolio_best_luts_traced(&aig, &options, 6, &tracer);
        assert_eq!(traced, untraced, "tracing is observational only");
        assert!(
            spans_well_nested(&tracer.events()),
            "every lane's spans must nest"
        );
        let exported = tracer.chrome_trace_json();
        let spans = parse_chrome_trace(&exported).expect("the export parses back");
        assert!(
            concurrent_lanes(&spans) >= 2,
            "the three portfolio jobs show overlapping lanes"
        );
        for lane in ["portfolio-aig", "portfolio-mig", "portfolio-xag"] {
            assert!(exported.contains(lane), "missing lane name {lane}");
        }
    }
}
