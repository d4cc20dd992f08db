//! FaRM-style leases for fast failure detection (§5.2).
//!
//! Every node continuously renews its lease; any peer observing an
//! expired lease *suspects* the node and triggers reconfiguration. The
//! paper sets leases to 10 ms and detects failures in about that time —
//! the "suspect" marker of Figure 20.
//!
//! The board keeps no clock of its own: every call takes the caller's
//! virtual time in ns, so a lease runs out at the same point of a
//! simulated run whatever the host does meanwhile.

use std::sync::atomic::{AtomicU64, Ordering};

use drtm_rdma::NodeId;

/// Per-node lease expiry times, in virtual ns.
#[derive(Debug)]
pub struct LeaseBoard {
    expiry_ns: Vec<AtomicU64>,
}

impl LeaseBoard {
    /// Creates a board for `n` nodes; all leases start expired until
    /// first renewal.
    pub fn new(n: usize) -> Self {
        Self {
            expiry_ns: (0..n).map(|_| AtomicU64::new(0)).collect(),
        }
    }

    /// Renews `node`'s lease at virtual time `now` for `duration_ns`.
    pub fn renew(&self, node: NodeId, now: u64, duration_ns: u64) {
        self.expiry_ns[node].fetch_max(now + duration_ns, Ordering::Relaxed);
        drtm_obs::trace::event(drtm_obs::EventKind::LeaseRenew, "", node as u64, 0);
    }

    /// Whether `node`'s lease has expired by virtual time `now`.
    pub fn expired(&self, node: NodeId, now: u64) -> bool {
        self.expiry_ns[node].load(Ordering::Relaxed) <= now
    }

    /// Kills `node`'s lease immediately (used by crash injection so
    /// detection latency is governed by the checking cadence, and by the
    /// node itself when leaving gracefully).
    pub fn revoke(&self, node: NodeId) {
        self.expiry_ns[node].store(0, Ordering::Relaxed);
        drtm_obs::trace::event(drtm_obs::EventKind::LeaseExpire, "revoked", node as u64, 0);
    }

    /// First member of `members` whose lease has expired by virtual time
    /// `now`, if any.
    pub fn first_expired<'a>(
        &self,
        members: impl IntoIterator<Item = &'a NodeId>,
        now: u64,
    ) -> Option<NodeId> {
        members.into_iter().copied().find(|&n| self.expired(n, now))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_leases_are_expired() {
        let b = LeaseBoard::new(2);
        assert!(b.expired(0, 0));
        assert!(b.expired(1, 0));
    }

    #[test]
    fn renewal_extends() {
        let b = LeaseBoard::new(1);
        b.renew(0, 0, 1_000_000);
        assert!(!b.expired(0, 0));
    }

    #[test]
    fn expiry_after_duration() {
        let b = LeaseBoard::new(1);
        b.renew(0, 1_000, 2_000_000); // 2 ms from 1 µs.
        assert!(!b.expired(0, 1_000));
        assert!(!b.expired(0, 2_000_999));
        assert!(
            b.expired(0, 2_001_000),
            "expires exactly at renewal + lease"
        );
        assert!(b.expired(0, 6_000_000));
    }

    #[test]
    fn revoke_is_immediate() {
        let b = LeaseBoard::new(1);
        b.renew(0, 0, 10_000_000);
        b.revoke(0);
        assert!(b.expired(0, 0));
    }

    #[test]
    fn first_expired_scans_members() {
        let b = LeaseBoard::new(3);
        b.renew(0, 0, 1_000_000);
        b.renew(2, 0, 1_000_000);
        let members = [0, 1, 2];
        assert_eq!(b.first_expired(members.iter(), 0), Some(1));
        b.renew(1, 0, 1_000_000);
        assert_eq!(b.first_expired(members.iter(), 0), None);
        assert_eq!(b.first_expired(members.iter(), 1_000_000), Some(0));
    }

    #[test]
    fn renew_never_shortens() {
        let b = LeaseBoard::new(1);
        b.renew(0, 0, 10_000_000);
        b.renew(0, 0, 1_000_000); // A shorter renewal must not pull expiry in.
        assert!(!b.expired(0, 3_000_000));
        assert!(b.expired(0, 10_000_000));
    }

    #[test]
    fn concurrent_renewers_never_lose_the_longest_lease() {
        // Many threads renew the same lease with different durations;
        // fetch_max means the longest grant must win regardless of the
        // interleaving, and the lease must never read expired while any
        // renewal is in flight.
        let b = std::sync::Arc::new(LeaseBoard::new(1));
        b.renew(0, 0, 60_000_000_000);
        let threads: Vec<_> = (0..8)
            .map(|i| {
                let b = std::sync::Arc::clone(&b);
                std::thread::spawn(move || {
                    for n in 0..10_000 {
                        b.renew(0, n, 1_000_000 + i * 137_000);
                        assert!(!b.expired(0, n), "lease lost under concurrent renewal");
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        // The initial 60 s grant is the max; short renewals cannot have
        // pulled it in.
        assert!(b.expiry_ns[0].load(Ordering::Relaxed) >= 60_000_000_000);
    }

    #[test]
    fn revoke_races_with_renewers_but_stays_reacquirable() {
        // A revoke concurrent with renewals: whichever wins, the board
        // stays consistent — and once renewals stop, a fresh renew (the
        // node rejoining after recovery) re-acquires the lease.
        let b = std::sync::Arc::new(LeaseBoard::new(1));
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let renewer = {
            let b = std::sync::Arc::clone(&b);
            let stop = std::sync::Arc::clone(&stop);
            std::thread::spawn(move || {
                while !stop.load(Ordering::Relaxed) {
                    b.renew(0, 0, 500_000);
                }
            })
        };
        for _ in 0..10_000 {
            b.revoke(0);
        }
        stop.store(true, Ordering::Relaxed);
        renewer.join().unwrap();
        // Heartbeats have stopped: the last grant, renewed at 0 for
        // 0.5 ms, has drained by 2 ms.
        assert!(
            b.expired(0, 2_000_000),
            "no renewer left; the last short grant drained"
        );
        // Rejoining is just renewing again.
        b.renew(0, 2_000_000, 1_000_000);
        assert!(
            !b.expired(0, 2_000_000),
            "a revoked lease must be re-acquirable"
        );
    }
}
