//! Virtual-time token-bucket model of a shared link (the per-node NIC).
//!
//! The paper's replication experiments are dominated by NIC bandwidth: a
//! single 56 Gbps ConnectX-3 saturates once each SmallBank transaction
//! issues four extra RDMA WRITEs for 3-way replication (Figures 15/16),
//! and FaRM's successor resorted to two NICs per machine. To reproduce
//! that *shape*, every node's NIC is a [`LinkBudget`].
//!
//! Each worker owns a private virtual clock, and clocks of co-located
//! workers drift apart (a delivery transaction costs 20x a payment), so
//! the link cannot simply serialise completion times — a slow-clock
//! worker would "queue behind" a fast-clock worker's future and the
//! clocks would entangle, inflating latencies with cluster size. Instead
//! the link is a classic token bucket kept in the *most advanced* clock
//! frame it has seen: tokens refill at the link rate as observed time
//! advances, every reservation drains its bytes, and a reservation that
//! finds the bucket in deficit is delayed by the time the backlog needs
//! to drain. Unsaturated links therefore add **zero** delay regardless of
//! clock skew, while saturated links push every user's clock forward at
//! exactly the rate that caps aggregate throughput at the link capacity.

use crate::sync::Mutex;

/// A shared bandwidth-limited resource in virtual time (e.g. one NIC
/// port).
#[derive(Debug)]
pub struct LinkBudget {
    state: Mutex<State>,
    bytes_per_ns: f64,
    /// Token cap: how large a burst passes without delay (100 µs worth).
    burst: f64,
}

#[derive(Debug)]
struct State {
    /// Most advanced virtual time observed.
    last_ns: u64,
    /// Available tokens in bytes; negative = backlog.
    tokens: f64,
    /// Total bytes ever granted (utilisation reporting).
    granted: u64,
}

impl LinkBudget {
    /// Creates a link with the given bandwidth in bytes per virtual
    /// second.
    pub fn new(bytes_per_sec: f64) -> Self {
        assert!(bytes_per_sec > 0.0, "bandwidth must be positive");
        let bytes_per_ns = bytes_per_sec / 1e9;
        Self {
            state: Mutex::new(State {
                last_ns: 0,
                tokens: bytes_per_ns * 100_000.0,
                granted: 0,
            }),
            bytes_per_ns,
            burst: bytes_per_ns * 100_000.0,
        }
    }

    /// Reserves `bytes` at virtual time `now`; returns the completion
    /// time in the caller's frame (`>= now`).
    ///
    /// Adds zero delay while the link keeps up; once demand exceeds
    /// capacity the bucket goes into deficit and every caller is pushed
    /// forward by the drain time of the backlog, capping aggregate
    /// throughput at the link rate.
    pub fn reserve(&self, now: u64, bytes: u64) -> u64 {
        let mut s = self.state.lock();
        if now > s.last_ns {
            let refill = (now - s.last_ns) as f64 * self.bytes_per_ns;
            s.tokens = (s.tokens + refill).min(self.burst);
            s.last_ns = now;
        }
        s.tokens -= bytes as f64;
        s.granted += bytes;
        if s.tokens >= 0.0 {
            now
        } else {
            now + (-s.tokens / self.bytes_per_ns) as u64
        }
    }

    /// Total bytes granted so far (utilisation reporting).
    pub fn granted(&self) -> u64 {
        self.state.lock().granted
    }

    /// Whether the link is currently in deficit (saturated).
    pub fn saturated(&self) -> bool {
        self.state.lock().tokens < 0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uncontended_reservations_add_no_delay() {
        let l = LinkBudget::new(1.0e9); // 1 GB/s = 1 B/ns.
        assert_eq!(l.reserve(100, 50), 100);
        assert_eq!(l.reserve(200, 50), 200);
        assert!(!l.saturated());
    }

    #[test]
    fn skewed_clocks_do_not_entangle() {
        // A fast-clock worker reserving far in the future must not delay
        // a slow-clock worker on an idle link.
        let l = LinkBudget::new(1.0e9);
        assert_eq!(l.reserve(1_000_000, 100), 1_000_000);
        assert_eq!(l.reserve(10, 100), 10, "slow worker sees an idle link");
    }

    #[test]
    fn sustained_overload_caps_throughput() {
        // Demand of 2 B/ns against a 1 B/ns link: after the burst runs
        // out, completions recede at the link rate (half the demand).
        let l = LinkBudget::new(1.0e9);
        let mut now = 0u64;
        let mut last_done = 0u64;
        for _ in 0..100_000 {
            // Each "transaction" takes 1000 ns of compute and sends
            // 2000 B.
            now += 1000;
            last_done = l.reserve(now, 2000);
            now = last_done.max(now);
        }
        // Aggregate: ~200 MB pushed; at 1 B/ns that needs ~200 ms of
        // virtual time. Demand alone would have taken 100 ms.
        assert!(last_done > 190_000_000, "link must throttle: {last_done}");
        assert!(l.saturated());
    }

    #[test]
    fn bursts_within_the_bucket_pass_free() {
        let l = LinkBudget::new(1.0e9); // Burst = 100 µs * 1 B/ns = 100 kB.
        assert_eq!(l.reserve(0, 50_000), 0);
        assert_eq!(l.reserve(0, 40_000), 0);
        // The bucket is nearly empty now; the next big burst pays.
        assert!(l.reserve(0, 50_000) > 0);
    }

    #[test]
    fn tokens_refill_with_time() {
        let l = LinkBudget::new(1.0e9);
        let done = l.reserve(0, 150_000); // Deficit of 50 kB.
        assert!(done >= 50_000);
        // 1 ms later the bucket has fully refilled.
        assert_eq!(l.reserve(1_000_000, 1_000), 1_000_000);
    }

    #[test]
    fn granted_accumulates() {
        let l = LinkBudget::new(1.0e9);
        l.reserve(0, 10);
        l.reserve(0, 32);
        assert_eq!(l.granted(), 42);
    }
}
