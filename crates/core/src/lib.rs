//! The DrTM+R transaction layer: hybrid OCC over HTM and RDMA.
//!
//! This crate is the paper's primary contribution (§4–§5). It glues the
//! simulated hardware substrates into a strictly serializable distributed
//! transaction engine:
//!
//! * [`cluster`] — assembles an n-node cluster (regions, stores, HTM
//!   engines, RDMA fabric, replication logs, configuration service,
//!   leases) and owns shard placement.
//! * [`txn`] — the execution phase. Local reads run in small HTM regions
//!   that check the record lock; remote reads are lock-free one-sided
//!   RDMA READs made consistent by per-line version matching. All writes
//!   are buffered locally, so the read/write sets are known once
//!   execution finishes — the property that frees DrTM+R from DrTM's
//!   "know your read/write sets in advance" restriction. Its
//!   [`TxnApi`](txn::TxnApi) is the one interface every engine's
//!   transaction context implements.
//! * [`commit`] — the six-step commit (Figure 7): C.1 lock remote
//!   read+write sets with RDMA CAS, C.2 validate the remote read set,
//!   C.3+C.4 validate local reads and apply local writes inside one HTM
//!   transaction, C.5 write remote primaries, C.6 unlock. Read-only
//!   transactions validate sequence numbers with no HTM and no locks
//!   (§4.5). A fallback handler (§6.1) takes over after repeated HTM
//!   aborts, locking *all* records (local ones via loopback RDMA CAS,
//!   §6.2) in global address order.
//! * [`replication`] — optimistic replication (§5.1): local writes commit
//!   inside HTM with an *odd* sequence number (readable but
//!   uncommittable), redo records go to the f backups' non-volatile
//!   logs, then the "makeup" step R.2 flips the primaries to *even*
//!   (committable). A transaction that read an odd version can only
//!   commit once it observes the even successor — the seqlock trick that
//!   closes the visibility/replication race.
//! * [`recovery`] — lease-expiry detection, reconfiguration, log replay
//!   onto a surviving machine, and passive release of dangling locks
//!   whose owner left the configuration (§5.2).
//! * [`routine`] — cooperative transaction routines (DESIGN.md §11):
//!   a worker multiplexes several in-flight transactions, yielding at
//!   every doorbell instead of spinning on the CQ, so independent
//!   transactions' verb latencies overlap while their CPU segments stay
//!   serialized on one simulated core.
//! * [`history`] — recorded histories of committed transactions and
//!   the one correctness check over them: strict serializability on a
//!   direct serialization graph with real-time edges.
//! * [`contention`] — adaptive contention management for hot keys
//!   (DESIGN.md §15): a per-key conflict tracker drives a two-rung
//!   escalation ladder from randomized backoff to pessimistic C.1
//!   locking that waits for each busy lock's release — the one lock
//!   wait, which the baselines and the rollback share.

#![deny(missing_docs)]

pub mod cluster;
pub mod commit;
pub mod contention;
pub mod history;
pub mod obs_bridge;
pub mod recovery;
pub mod replication;
pub mod routine;
pub mod txn;

pub use cluster::{CrashPointHook, DrtmCluster, EngineOpts, LockTransport};
pub use contention::{ConflictTracker, ContentionPolicy, WaitRegistry};
pub use obs_bridge::scrape_cluster;
pub use recovery::{full_restart_scrub, recover_node, RecoveryReport};
pub use replication::BackupStore;
pub use routine::{Admission, QueueGroup, RoutePolicy, RoutinePool};
pub use txn::{AbortReason, TxnCtx, TxnError, Worker};

/// Validates a read: the current sequence number must be the *closest
/// committable* successor of the sequence number seen at execution time
/// (Table 4 of the paper: `(SN_old + 1) & !1 == SN_cur`).
///
/// For an even (committable) `seen` this demands `cur == seen`; for an
/// odd (uncommittable) `seen` it demands `cur == seen + 1`, i.e. the
/// writer that produced the version we read has finished replicating.
#[inline]
pub fn read_validates(seen: u64, cur: u64) -> bool {
    (seen + 1) & !1 == cur
}

/// Validates a record about to be written: its current sequence number
/// must be even, i.e. fully replicated (Table 4: `SN_cur & 1 == 0`).
#[inline]
pub fn write_validates(cur: u64) -> bool {
    cur & 1 == 0
}

#[cfg(test)]
mod tests;

#[cfg(test)]
mod validation_tests {
    use super::*;

    #[test]
    fn committable_read_requires_exact_match() {
        assert!(read_validates(4, 4));
        assert!(!read_validates(4, 5), "writer not yet replicated");
        assert!(!read_validates(4, 6), "record moved on");
        assert!(!read_validates(4, 2));
    }

    #[test]
    fn uncommittable_read_requires_replicated_successor() {
        assert!(
            !read_validates(5, 5),
            "still unreplicated: cannot commit yet"
        );
        assert!(read_validates(5, 6), "replication finished");
        assert!(!read_validates(5, 7));
        assert!(!read_validates(5, 4));
    }

    #[test]
    fn write_needs_committable_record() {
        assert!(write_validates(0));
        assert!(write_validates(8));
        assert!(!write_validates(3));
    }
}
