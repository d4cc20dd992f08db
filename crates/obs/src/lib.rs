//! `drtm-obs` — observability for the DrTM+R engine.
//!
//! The paper's evaluation is built on decompositions (Table 6 per-phase
//! latencies, Figure 20 recovery timeline, §6 HTM abort attribution)
//! that require asking a live run "where did this transaction spend its
//! time, and why did it abort?". This crate answers that with four
//! pieces, none of which touch shared state on the hot path:
//!
//! * a **sharded metrics registry** ([`registry`]): each worker owns an
//!   `Arc<Shard>` of plain `drtm-base` counters/histograms, its scalar
//!   counters declared one `shard!` row each; aggregation happens only
//!   at scrape time by merging shards into a [`Snapshot`];
//! * **exposition** ([`expo`]): Prometheus text and JSON as two loops
//!   over one table of rows (DESIGN.md §6 has the "adding a metric"
//!   recipe), and a human report; [`json`] is the one writer of JSON
//!   strings and floats, [`jsonlint`] the checker tests parse with;
//! * a **structured trace ring** ([`trace`]): fixed-size per-thread
//!   ring buffers of engine events with wall *and* virtual timestamps,
//!   exportable as chrome://tracing JSON;
//! * a **time-series ring** ([`timeseries`]): a bounded history of
//!   periodic server telemetry samples (queue depth, in-flight, abort
//!   mix) a live server scrapes into and exports alongside the trace.
//!
//! Both rings are one type, [`Ring`], over their own entry.
//!
//! # Cost model when disabled
//!
//! One switch, at compile time: the `rec` feature. Building without it
//! (`default-features = false`, or `--no-default-features` on a
//! binary crate, which forwards its own default `rec` here) turns
//! every recording call into an inlined constant-false branch; the
//! optimizer deletes the call sites and the rings and per-phase tables
//! are never written. Only a worker's results — its commits, aborts,
//! fallbacks, user aborts and commit latency ([`Shard::note_commit`]
//! and its three siblings) — are counted in every build, because they
//! are the engine's answer, not instrumentation. CI's `obs-overhead`
//! job builds both and compares the `sweep --raw` throughput of one
//! closed-loop TPC-C run. That throughput is virtual, a pure function
//! of the run's configuration and seed, so both builds print the same
//! number and the job's 5% bound cannot fail: it checks that recording
//! changes no virtual result, not what recording costs the host. A
//! host-time measurand for the bound is ROADMAP item 2.
//!
//! The crate deliberately depends only on `drtm-base`, so every other
//! layer (rdma, htm, cluster, core, chaos, cli, bench) can depend on it
//! without cycles.

#![deny(missing_docs)]

pub mod expo;
pub mod json;
pub mod jsonlint;
pub mod registry;
pub mod ring;
pub mod timeseries;
pub mod trace;

pub use registry::{
    CacheStats, ContentionStats, HistSummary, MachineRow, NetStats, NicRow, PipelineStats,
    Registry, RouteStats, Shard, Snapshot,
};
pub use ring::Ring;
pub use timeseries::{TsRing, TsSample};
pub use trace::{EvPhase, EventKind, TraceEvent, TraceRing};

/// Whether recording is compiled in (the `rec` feature). A constant,
/// so with `rec` off callers' recording branches vanish.
#[inline(always)]
pub const fn enabled() -> bool {
    cfg!(feature = "rec")
}

/// Commit-protocol phases, in protocol order. These are the span
/// boundaries of the commit walk in `drtm-core`: `Execute` covers the
/// transaction body, `Lock`..`Unlock` map onto the paper's C.1–C.6 and
/// R.1–R.2 steps (see DESIGN.md §6 for the exact mapping).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Phase {
    /// Transaction body: reads, remote fetches, working-set buildup.
    Execute,
    /// C.1 — remote lock acquisition via RDMA CAS.
    Lock,
    /// C.2 — remote read validation of unlocked readers.
    Validate,
    /// C.3 + C.4 — the local HTM region (local validate + apply).
    Htm,
    /// R.1 — redo-log append to remote backups.
    Log,
    /// R.2 — makeup writes flipping odd seqs even on backups.
    Makeup,
    /// C.5 — remote primary write-back.
    Update,
    /// C.6 — remote unlock.
    Unlock,
}

impl Phase {
    /// All phases, in protocol order.
    pub const ALL: [Phase; 8] = [
        Phase::Execute,
        Phase::Lock,
        Phase::Validate,
        Phase::Htm,
        Phase::Log,
        Phase::Makeup,
        Phase::Update,
        Phase::Unlock,
    ];

    /// Number of phases.
    pub const COUNT: usize = Self::ALL.len();

    /// Dense index for per-phase arrays.
    #[inline]
    pub fn index(self) -> usize {
        self as usize
    }

    /// Stable label used in metric names and exposition.
    pub fn name(self) -> &'static str {
        match self {
            Phase::Execute => "execute",
            Phase::Lock => "lock",
            Phase::Validate => "validate",
            Phase::Htm => "htm",
            Phase::Log => "log",
            Phase::Makeup => "makeup",
            Phase::Update => "update",
            Phase::Unlock => "unlock",
        }
    }
}

/// Stable labels for the abort taxonomy, indexed by the reason codes
/// `drtm-core` passes to [`Shard::note_abort`]. The first six mirror
/// `drtm_core::AbortReason` variant order; `transport` is a verb-level
/// fault surfaced through a `WorkCompletion` (`TxnError::Transport` in
/// core); `user` is the explicit user-requested abort (a distinct
/// `TxnError` variant in core).
pub const ABORT_REASONS: [&str; 8] = [
    "lock_busy",
    "validation",
    "local_lock_busy",
    "remote_inconsistent",
    "fallback",
    "incarnation",
    "transport",
    "user",
];

/// Stable labels for HTM abort classes, mirroring the counters of
/// `drtm_htm::HtmStats` (in that order).
pub const HTM_CLASSES: [&str; 5] = ["conflict", "capacity", "explicit", "spurious", "fallback"];

#[cfg(test)]
mod tests;
