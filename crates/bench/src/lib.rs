//! The measurement harness: one table, one driver.
//!
//! Every figure and table of the paper's evaluation, and every A/B the
//! repo gates on, is a row of [`experiment::EXPERIMENTS`], run as
//! `drtm-shell <name> [size] [full] [json FILE] [gate]` (see DESIGN.md
//! §5 for the index and EXPERIMENTS.md for recorded paper-vs-measured
//! results). Entries run a **quick** shape by default — smaller
//! datasets and fewer threads so the whole table finishes on a small
//! host — and the paper-scale shape with `full`. The one binary,
//! `sweep`, runs a grid point chosen on the command line.
//!
//! Throughput numbers are in *virtual time* (see `drtm-base::clock`):
//! absolute values depend on the calibrated cost model, but the shapes —
//! who wins, by what factor, where curves flatten — are the reproduction
//! targets.

use drtm_workloads::driver::{EngineKind, RunCfg};
use drtm_workloads::smallbank::SbCfg;
use drtm_workloads::tpcc::TpccCfg;
use drtm_workloads::ycsb::{YcsbCfg, YcsbMix};

pub mod experiment;
pub mod figures;
pub mod stamp;
#[cfg(test)]
mod tests;

pub use stamp::{git_rev, stamp_json, utc_rfc3339};

/// Experiment scale profile.
#[derive(Debug, Clone, Copy)]
pub struct Scale {
    /// Paper-scale (true) or quick (false).
    pub full: bool,
}

impl Scale {
    /// Picks `full` or `quick`.
    pub fn pick<T>(&self, full: T, quick: T) -> T {
        if self.full {
            full
        } else {
            quick
        }
    }
}

/// The TPC-C configuration used by the figure entries.
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

/// The SmallBank configuration used by the figure entries.
pub fn sb_cfg(scale: Scale, nodes: usize, cross_prob: f64) -> SbCfg {
    SbCfg {
        nodes,
        accounts: scale.pick(100_000, 2_000),
        cross_prob,
        ..Default::default()
    }
}

/// The YCSB configuration used by the A/B entries: the B mix
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

/// A run configuration at the profile's default length (see
/// [`experiment::Size::run`] for an entry's own).
pub fn run_cfg(scale: Scale, engine: EngineKind, threads: usize, replicas: usize) -> RunCfg {
    RunCfg {
        engine,
        threads,
        replicas,
        txns_per_worker: scale.pick(400, 120),
        ..Default::default()
    }
}
