//! The paper's evaluation workloads: TPC-C and SmallBank (§7.1).
//!
//! Every workload transaction is written once against the uniform
//! transaction interface [`TxnApi`](drtm_core::txn::TxnApi), so one body
//! runs on DrTM+R and on both baselines the paper compares.
//!
//! * [`tpcc`] — TPC-C: nine tables, the five transaction types, the
//!   standard mix (45 % new-order), warehouse partitioning, and the
//!   cross-warehouse knobs the paper sweeps (Figures 10–12 and 17–19).
//! * [`smallbank`] — SmallBank: six transaction types over skewed
//!   accounts with a distributed-transaction probability knob
//!   (Figures 13–16).
//! * [`ycsb`] — YCSB A/B/C/F mixes with zipfian skew (not in the paper;
//!   the standard neutral-ground comparison for KV stores).
//! * [`driver`] — the closed-loop measurement harness over the
//!   [`Workload`] trait the three workloads implement: one cluster
//!   builder, one measurement loop for every engine, per-worker virtual
//!   clocks, per-transaction-type latency histograms, each machine's
//!   log truncation step between its transactions, and throughput
//!   aggregation
//!   (`Σ committed_w / vtime_w`, independent of host scheduling).
//! * [`audit`] — consistency checkers (TPC-C's W_YTD = Σ D_YTD audit,
//!   SmallBank balance conservation) used by the integration tests.

pub mod audit;
pub mod driver;
pub mod smallbank;
pub mod tpcc;
pub mod ycsb;

pub use driver::{EngineKind, Measurement, RunCfg, Workload};

#[cfg(test)]
mod tests;
