//! Foundation types shared by every DrTM+R subsystem.
//!
//! This crate provides the pieces that the simulated hardware layers
//! (`drtm-htm` and `drtm-rdma`) must agree on:
//!
//! * [`region::MemoryRegion`] — a shared, word-atomic memory segment with a
//!   per-cache-line *version word*. The software HTM validates read sets
//!   against these version words, and the RDMA simulator bumps them on every
//!   remote write, which is exactly how the real hardware's cache coherence
//!   makes a one-sided RDMA write abort a conflicting HTM transaction.
//! * [`clock`] — the virtual-time infrastructure used by the benchmark
//!   harness. A host of a core or two cannot run a many-node,
//!   many-thread cluster at its speed, so wall-clock throughput would
//!   only measure the host; every worker instead advances a private
//!   [`clock::VClock`] by charging operation costs from a
//!   [`clock::CostModel`], each charge under its [`clock::Cause`], and shared resources such as the NIC are modelled
//!   as ledgers of virtual-time windows ([`link::LinkBudget`]).
//! * [`stats`] — cheap concurrent counters and a log-scale latency histogram.
//! * [`rng`] — a small deterministic PRNG so experiments are reproducible.

pub mod cacheline;
pub mod clock;
pub mod link;
pub mod region;
pub mod rng;
pub mod shutdown;
pub mod stats;
pub mod sync;
pub mod task;

pub use cacheline::{
    line_of,
    line_range,
    CACHE_LINE, //
};
pub use clock::{Cause, CostModel, Ledger, VClock};
pub use link::LinkBudget;
pub use region::{MemoryRegion, ZeroedBytes};
pub use rng::SplitMix64;
pub use stats::{Counter, Histogram};
