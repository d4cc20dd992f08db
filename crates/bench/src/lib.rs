//! Shared infrastructure for the experiment harnesses.
//!
//! One binary per table/figure of the paper's evaluation regenerates the
//! corresponding rows/series (see DESIGN.md's experiment index and
//! EXPERIMENTS.md for recorded paper-vs-measured results). Binaries run
//! a **quick** profile by default — smaller datasets and fewer threads so
//! the whole suite finishes on a small host — and the paper-scale
//! profile with `--full`. The A/B experiments behind `drtm-shell` and CI
//! live in one table, [`experiment::EXPERIMENTS`].
//!
//! Throughput numbers are in *virtual time* (see `drtm-base::clock`):
//! absolute values depend on the calibrated cost model, but the shapes —
//! who wins, by what factor, where curves flatten — are the reproduction
//! targets.

use drtm_workloads::driver::{EngineKind, Measurement, RunCfg};
use drtm_workloads::smallbank::SbCfg;
use drtm_workloads::tpcc::TpccCfg;
use drtm_workloads::ycsb::{YcsbCfg, YcsbMix};

pub mod experiment;
pub mod stamp;

pub use stamp::{git_rev, stamp_json, utc_rfc3339};

/// Experiment scale profile.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Paper-scale (true) or quick (false).
    pub full: bool,
}

impl Scale {
    /// Reads the profile from argv (`--full`).
    pub fn from_env() -> Self {
        Self {
            full: std::env::args().any(|a| a == "--full"),
        }
    }

    /// Picks `full` or `quick`.
    pub fn pick<T>(&self, full: T, quick: T) -> T {
        if self.full {
            full
        } else {
            quick
        }
    }
}

/// The TPC-C configuration used by the figure harnesses.
///
/// Paper setting: each worker thread hosts one warehouse with 10
/// districts (so `warehouses_per_node = threads`).
pub fn tpcc_cfg(scale: Scale, nodes: usize, threads: usize) -> TpccCfg {
    TpccCfg {
        nodes,
        warehouses_per_node: threads.max(1),
        customers: scale.pick(300, 48),
        items: scale.pick(10_000, 256),
        init_orders: scale.pick(20, 8),
        history_buckets: 1 << scale.pick(18, 13),
        ..Default::default()
    }
}

/// The SmallBank configuration used by the figure harnesses.
pub fn sb_cfg(scale: Scale, nodes: usize, cross_prob: f64) -> SbCfg {
    SbCfg {
        nodes,
        accounts: scale.pick(100_000, 2_000),
        cross_prob,
        ..Default::default()
    }
}

/// The YCSB configuration used by the figure harnesses: the B mix
/// (95% reads) with mild skew — the routine-pipelining A/B's workload,
/// where cross-node READs dominate and verb latency is there to hide.
pub fn ycsb_cfg(scale: Scale, nodes: usize, cross_prob: f64) -> YcsbCfg {
    YcsbCfg {
        nodes,
        records: scale.pick(100_000, 4_000),
        theta: 0.6,
        cross_prob,
        mix: YcsbMix::B,
        ..Default::default()
    }
}

/// A run configuration for the figure harnesses.
pub fn run_cfg(scale: Scale, engine: EngineKind, threads: usize, replicas: usize) -> RunCfg {
    RunCfg {
        engine,
        threads,
        replicas,
        txns_per_worker: scale.pick(400, 120),
        ..Default::default()
    }
}

/// Prints a figure/table header.
pub fn header(id: &str, what: &str, cols: &[&str]) {
    println!("# {id}: {what}");
    println!("# quick profile unless --full; throughput in virtual txns/sec");
    println!("{}", cols.join("\t"));
}

/// Formats a throughput in K/M units.
pub fn fmt_tps(tps: f64) -> String {
    if tps >= 1e6 {
        format!("{:.2}M", tps / 1e6)
    } else if tps >= 1e3 {
        format!("{:.1}K", tps / 1e3)
    } else {
        format!("{tps:.0}")
    }
}

/// Convenience: new-order throughput of a TPC-C measurement.
pub fn new_order_tps(m: &Measurement) -> f64 {
    m.tps_of("new-order")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scale_pick() {
        assert_eq!(Scale { full: true }.pick(1, 2), 1);
        assert_eq!(Scale { full: false }.pick(1, 2), 2);
    }

    #[test]
    fn fmt_units() {
        assert_eq!(fmt_tps(1_500_000.0), "1.50M");
        assert_eq!(fmt_tps(2_500.0), "2.5K");
        assert_eq!(fmt_tps(42.0), "42");
    }

    #[test]
    fn cfgs_are_consistent() {
        let s = Scale { full: false };
        let t = tpcc_cfg(s, 2, 3);
        assert_eq!(t.nodes, 2);
        assert_eq!(t.warehouses_per_node, 3);
        let b = sb_cfg(s, 4, 0.05);
        assert_eq!(b.nodes, 4);
        assert!((b.cross_prob - 0.05).abs() < 1e-12);
    }
}
