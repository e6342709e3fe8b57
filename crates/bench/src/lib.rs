//! # glsx-bench
//!
//! The benchmark harness that regenerates the paper's evaluation:
//!
//! * `cargo run -p glsx-bench --release --bin table1` — Table 1, the
//!   overhead of the generic flow on AIGs versus the AIG-specialised flow,
//! * `cargo run -p glsx-bench --release --bin table2` — Table 2, the
//!   cross-representation comparison (AIG/MIG/XAG + portfolio) after
//!   6-LUT mapping,
//! * `cargo run -p glsx-bench --release --bin ablations` — parameter
//!   sweeps for the design choices of Section 2 (cut sizes, resubstitution
//!   depth, zero-gain rewriting),
//! * `cargo bench -p glsx-bench` — Criterion micro-benchmarks of the
//!   algorithmic primitives and a reduced-scale run of both tables.
//!
//! The library part hosts the shared row-formatting and experiment-running
//! helpers used by the binaries and the Criterion benches.

use glsx_core::lut_mapping::{lut_map_stats, LutMapParams};
use glsx_flow::specialized::specialized_aig_compress2rs;
use glsx_flow::{compress2rs, FlowOptions, FlowStats};
use glsx_network::views::network_depth;
use glsx_network::{convert_network, Aig, Mig, Network, Xag};

/// Metrics reported per benchmark and representation (the columns of
/// Table 2).
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct RunMetrics {
    /// Gate count after optimisation.
    pub nodes: usize,
    /// Depth after optimisation.
    pub levels: u32,
    /// Number of 6-LUTs after mapping.
    pub luts: usize,
    /// Flow runtime in seconds.
    pub seconds: f64,
}

/// Baseline metrics of an unoptimised benchmark.
pub fn baseline_metrics(aig: &Aig, lut_size: usize) -> RunMetrics {
    let map = lut_map_stats(aig, &LutMapParams::with_lut_size(lut_size));
    RunMetrics {
        nodes: aig.num_gates(),
        levels: network_depth(aig),
        luts: map.num_luts,
        seconds: 0.0,
    }
}

fn metrics_after<N: Network>(ntk: &N, stats: &FlowStats, lut_size: usize) -> RunMetrics {
    let map = lut_map_stats(ntk, &LutMapParams::with_lut_size(lut_size));
    RunMetrics {
        nodes: stats.final_size,
        levels: stats.final_depth,
        luts: map.num_luts,
        seconds: stats.runtime_seconds,
    }
}

/// Runs the generic flow with AIGs and returns the resulting metrics.
pub fn run_generic_aig(aig: &Aig, lut_size: usize) -> RunMetrics {
    let mut ntk = aig.clone();
    let stats = compress2rs(&mut ntk, &FlowOptions::default());
    metrics_after(&ntk, &stats, lut_size)
}

/// Runs the generic flow with MIGs (converted structurally from the AIG).
pub fn run_generic_mig(aig: &Aig, lut_size: usize) -> RunMetrics {
    let mut ntk: Mig = convert_network(aig);
    let stats = compress2rs(&mut ntk, &FlowOptions::default());
    metrics_after(&ntk, &stats, lut_size)
}

/// Runs the generic flow with XAGs (converted structurally from the AIG).
pub fn run_generic_xag(aig: &Aig, lut_size: usize) -> RunMetrics {
    let mut ntk: Xag = convert_network(aig);
    let stats = compress2rs(&mut ntk, &FlowOptions::default());
    metrics_after(&ntk, &stats, lut_size)
}

/// Runs the AIG-specialised flow (the Table-1 baseline standing in for
/// ABC's `compress2rs`).
pub fn run_specialized_aig(aig: &Aig, lut_size: usize) -> RunMetrics {
    let mut ntk = aig.clone();
    let stats = specialized_aig_compress2rs(&mut ntk);
    metrics_after(&ntk, &stats, lut_size)
}

/// Percentage change from `baseline` to `value` (negative = improvement).
pub fn percent_change(baseline: usize, value: usize) -> f64 {
    if baseline == 0 {
        return 0.0;
    }
    (value as f64 - baseline as f64) / baseline as f64 * 100.0
}

/// Formats one row of a results table.
pub fn format_row(name: &str, cells: &[String]) -> String {
    let mut row = format!("{name:<12}");
    for cell in cells {
        row.push_str(&format!(" {cell:>10}"));
    }
    row
}

/// Writes a tracked bench baseline (`BENCH_*.json`, `file_name` relative
/// to the repository root) when `GLSX_WRITE_BENCH_BASELINE` is set, and
/// prints the refresh hint otherwise — the shared tail of every bench
/// binary.
pub fn emit_json(file_name: &str, json: &str) {
    let path = format!("{}/../../{file_name}", env!("CARGO_MANIFEST_DIR"));
    if std::env::var_os("GLSX_WRITE_BENCH_BASELINE").is_some() {
        std::fs::write(&path, json).unwrap_or_else(|e| panic!("write {file_name}: {e}"));
        println!("wrote {path}");
    } else {
        println!("(set GLSX_WRITE_BENCH_BASELINE=1 to refresh {file_name})");
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use glsx_benchmarks::arithmetic::adder;

    #[test]
    fn metrics_and_percentages() {
        let aig: Aig = adder(4);
        let base = baseline_metrics(&aig, 6);
        assert!(base.nodes > 0 && base.luts > 0);
        let opt = run_generic_aig(&aig, 6);
        assert!(opt.nodes <= base.nodes);
        assert!(percent_change(100, 70) + 30.0 < 1e-9);
        assert_eq!(percent_change(0, 10), 0.0);
        let row = format_row("adder", &["1".into(), "2".into()]);
        assert!(row.starts_with("adder"));
    }
}
