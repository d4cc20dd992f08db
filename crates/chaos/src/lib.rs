//! Deterministic fault injection and lease-driven recovery supervision
//! for the DrTM+R engine.
//!
//! The paper's recovery story (§5.2) rests on three mechanisms that are
//! hard to exercise from normal tests: leases as the failure detector,
//! reconfiguration fencing in-flight transactions, and redo-log replay
//! reconstructing a dead machine's shard. This crate drives all three
//! on purpose:
//!
//! * [`plan`] — [`FaultPlan`]: a seeded, replayable schedule of verb
//!   drops/delays/duplicates, virtual-time partitions and NIC flaps,
//!   and counted crash points (`C.1`–`C.6`, `R.1`–`R.3`) that kill a
//!   machine *after* a named protocol step, leaving genuinely dangling
//!   locks and odd (committed-but-unreplicated) records behind.
//! * [`injector`] — [`ChaosInjector`]: interprets a plan as both a
//!   [`drtm_rdma::FaultInjector`] (traffic) and a
//!   [`drtm_core::CrashPointHook`] (crashes), with every probabilistic
//!   decision a pure function of the seed and per-stream issue
//!   counters, and a fingerprintable decision trace.
//! * [`supervisor`] — [`Supervisor`]: lease heartbeats for alive
//!   members plus a detector that recovers machines only when their
//!   lease has genuinely expired, reporting detection / configuration
//!   commit / rebuild latencies (the Figure 20 decomposition).
//! * [`harness`] — [`run_smallbank_chaos`]: a zero-sum SmallBank run
//!   on the measurement driver under a plan, audited for money
//!   conservation through recovery and for a lock-free post-recovery
//!   cluster.

pub mod harness;
pub mod injector;
pub mod plan;
pub mod supervisor;

pub use harness::{run_smallbank_chaos, ChaosOutcome, ChaosRunCfg};
pub use injector::{ChaosEvent, ChaosInjector};
pub use plan::{CrashSpec, FaultPlan, FaultRule, NicFlap, Partition, PerMille};
pub use supervisor::{RecoveryEvent, Supervisor, SupervisorCfg};

use drtm_core::commit::STAGES;

/// The crash points a [`FaultPlan`] may name, with the state a crash
/// there leaves behind (the probe fires *after* the step completes):
/// the commit pipeline's [`STAGES`], then `R.3`.
///
/// There is no `C.3` probe: C.3 (local validation) and C.4 (local
/// apply) execute inside a single HTM region, so a machine cannot die
/// *between* them — a crash mid-region simply aborts the hardware
/// transaction and leaves no state, which is the HTM atomicity the
/// paper's protocol relies on.
pub const CRASH_POINTS: [(&str, &str); 8] = {
    let mut points = [("R.3", "log truncation step (between two transactions)"); 8];
    let mut i = 0;
    while i < STAGES.len() {
        points[i] = (STAGES[i].probe, STAGES[i].leaves);
        i += 1;
    }
    points
};
