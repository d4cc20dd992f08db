//! The recovery supervisor: lease heartbeats plus a failure detector
//! that drives recovery *only* through genuine lease expiry (§5.2).
//!
//! It runs on the run's virtual clock: whoever steps the workers calls
//! [`Supervisor::tick`] with the virtual time of each next action (the
//! chaos harness does it from the driver's loop), and each tick does
//! the supervisor's two jobs up to that time:
//!
//! * **heartbeat** — every lease/5 of virtual time, every alive member
//!   renews its lease. A machine killed by [`DrtmCluster::fail_silent`]
//!   (what crash points do) simply stops renewing, so its lease drains
//!   over the configured lease length — exactly how a real silent
//!   failure is observed.
//! * **detector** — checks [`LeaseBoard::first_expired`] over the
//!   current configuration's members and, on expiry, runs
//!   [`recover_node`] inline, recording when the failure was
//!   *suspected* and the per-phase latencies of the recovery pass (the
//!   Figure 20 decomposition: detection, configuration commit,
//!   rebuild). Inline is safe: no routine holds the log gate across a
//!   yield, since it is held only inside synchronous appends.
//!
//! Nothing here ever calls `recover_node` for a machine whose lease is
//! still live: suspicion is the lease's job, the supervisor only acts
//! on it. A run therefore detects, recovers and replays from its seed.
//!
//! [`LeaseBoard::first_expired`]: drtm_cluster::LeaseBoard::first_expired
//! [`DrtmCluster::fail_silent`]: drtm_core::cluster::DrtmCluster::fail_silent

use std::sync::Arc;
use std::time::Duration;

use drtm_core::cluster::DrtmCluster;
use drtm_core::recovery::{recover_node, RecoveryReport};
use drtm_rdma::NodeId;

use crate::injector::ChaosInjector;

/// Supervisor timing: the lease length alone; the heartbeat renews
/// every fifth of it.
#[derive(Debug, Clone, Copy)]
pub struct SupervisorCfg {
    /// Lease length granted per renewal, in µs (the paper uses 10 ms).
    pub lease_us: u64,
}

impl Default for SupervisorCfg {
    fn default() -> Self {
        Self { lease_us: 10_000 }
    }
}

/// One detected-and-recovered failure.
#[derive(Debug, Clone)]
pub struct RecoveryEvent {
    /// The machine recovered.
    pub dead: NodeId,
    /// Virtual time (ns) of the tick that saw the expired lease.
    pub suspected_at: u64,
    /// Crash-to-suspicion latency in virtual time, when the crash time
    /// is known (i.e. the chaos injector killed the machine). Above
    /// lease - heartbeat (the last renewal was at most a heartbeat
    /// before the crash) and at most a lease plus the gap to the next
    /// tick after the expiry.
    pub detect: Option<Duration>,
    /// What the recovery pass did, with its configuration-commit and
    /// rebuild timings — host time, as the pass has no cost model (it
    /// takes no virtual time).
    pub report: RecoveryReport,
}

/// A lease supervisor stepped on virtual time. Create with
/// [`Supervisor::start`], step with [`Supervisor::tick`], and collect
/// the recoveries with [`Supervisor::finish`].
pub struct Supervisor {
    cluster: Arc<DrtmCluster>,
    injector: Option<Arc<ChaosInjector>>,
    lease_ns: u64,
    /// Virtual time of the next heartbeat.
    next_beat: u64,
    /// The latest tick's virtual time.
    now: u64,
    events: Vec<RecoveryEvent>,
}

impl Supervisor {
    /// Grants every member a fresh lease at virtual time 0, where a
    /// run's workers start. `injector`, when given, supplies crash
    /// times so events carry a detection latency.
    pub fn start(
        cluster: &Arc<DrtmCluster>,
        cfg: SupervisorCfg,
        injector: Option<Arc<ChaosInjector>>,
    ) -> Self {
        let mut sup = Self {
            cluster: Arc::clone(cluster),
            injector,
            lease_ns: cfg.lease_us * 1_000,
            next_beat: 0,
            now: 0,
            events: Vec::new(),
        };
        sup.tick(0);
        sup
    }

    fn heartbeat(&self) -> u64 {
        self.lease_ns / 5
    }

    /// The latest tick's virtual time (ns).
    pub fn now(&self) -> u64 {
        self.now
    }

    /// Recoveries completed so far.
    pub fn recoveries(&self) -> usize {
        self.events.len()
    }

    /// Steps the supervisor to virtual time `now` (an earlier time is
    /// read as the latest one): every heartbeat due by then, each
    /// renewing the members alive at that point, then every expired
    /// lease's recovery, re-scanning after each for correlated
    /// failures.
    pub fn tick(&mut self, now: u64) {
        self.now = self.now.max(now);
        let (cluster, now) = (&self.cluster, self.now);
        while self.next_beat <= now {
            let beat = self.next_beat;
            cluster.config.with(|c| {
                for &node in c.members.iter().filter(|&&n| cluster.is_alive(n)) {
                    cluster.leases.renew(node, beat, self.lease_ns);
                }
            });
            self.next_beat += self.heartbeat();
        }
        let expired = || {
            cluster
                .config
                .with(|c| cluster.leases.first_expired(&c.members, now))
        };
        while let Some(dead) = expired() {
            let report = recover_node(cluster, dead);
            let crashed = self.injector.as_ref().and_then(|i| i.crash_instant(dead));
            self.events.push(RecoveryEvent {
                dead,
                suspected_at: now,
                detect: crashed.map(|t| Duration::from_nanos(now.saturating_sub(t))),
                report,
            });
        }
    }

    /// Steps on past the last tick, heartbeat by heartbeat, until every
    /// crash the injector fired is recovered — at most a lease and a
    /// heartbeat, by when the last renewal a dead machine got has
    /// drained — and returns the recovery events in detection order.
    /// Expiries fall on heartbeats (a lease is five of them, granted on
    /// one), so stepping by heartbeats detects each exactly on time.
    pub fn finish(mut self) -> Vec<RecoveryEvent> {
        let fired = self.injector.as_ref().map_or(0, |i| i.crashes_fired());
        let deadline = self.now + self.lease_ns + self.heartbeat();
        while self.recoveries() < fired && self.now < deadline {
            self.tick(self.next_beat.min(deadline));
        }
        self.events
    }
}
