//! Virtual-time model of a shared link (the per-node NIC): a ledger of
//! fixed windows.
//!
//! The paper's replication experiments are dominated by NIC bandwidth: a
//! single 56 Gbps ConnectX-3 saturates once each SmallBank transaction
//! issues four extra RDMA WRITEs for 3-way replication (Figures 15/16),
//! and FaRM's successor resorted to two NICs per machine. To reproduce
//! that *shape*, every node's NIC is a [`LinkBudget`].
//!
//! Each worker owns a private virtual clock, and clocks of co-located
//! workers drift apart (a delivery transaction costs 20x a payment, and
//! each pool's clock advances by its own routines' CPU segments and
//! waits), so the link cannot simply serialise completion times — a
//! slow-clock worker would "queue behind" a fast-clock worker's future
//! and the clocks would entangle. Nor can it keep one token bucket in
//! any single clock's
//! frame: a bucket that refills only as the most advanced clock moves
//! lets a lagging clock drain it without refill, and charges that clock
//! drain delay on an idle link.
//!
//! So virtual time is cut into windows of [`WINDOW_NS`], each able to
//! carry `rate × WINDOW_NS` units, and a reservation is charged to the
//! window its *own* `now` falls in. While that window has room the
//! reservation completes at `now`, whatever any other clock did; only
//! what does not fit spills into the following windows, and the
//! reservation completes when its last spilled unit is served. Three
//! properties follow, each checked by a test below: an unsaturated link
//! adds zero delay regardless of clock skew, no window ever carries more
//! than its capacity (so skewed clocks cannot add up to more than the
//! link rate), and a saturated link pushes every user's clock forward at
//! exactly the link rate. The ledger remembers the last [`RING`]
//! windows; a reservation older than that is charged to the oldest one
//! it remembers — delayed like any other if that window is full, never
//! dropped.

use std::ops::Range;

use crate::sync::Mutex;

/// Width of one ledger window: 100 µs of virtual time, the burst the
/// model has always let through free ("100 µs of link capacity passes
/// without delay").
pub const WINDOW_NS: u64 = 100_000;

/// Windows the ledger remembers: 16 384 × 100 µs = 1.64 s of virtual
/// time, up to 128 KiB a budget, grown as virtual time reaches it.
/// Sized from the largest lag behind a budget's newest window measured
/// in paper-scale (`full`) figure runs with 96 worker threads on a
/// 2-core host: 0.59–0.71 s in `fig15 400 full` / `fig16 400 full` (a
/// worker whose backoff and lock waits kept charging virtual time while
/// the host ran its peers), 1.33 s in one `fig15 400 full`; quick runs
/// stay under 0.1 s.
pub const RING: usize = 16_384;

/// A shared rate-limited resource in virtual time (e.g. one NIC port's
/// bytes, or its verbs).
#[derive(Debug)]
pub struct LinkBudget {
    ledger: Mutex<Ledger>,
    /// Units one window carries.
    capacity: u64,
}

#[derive(Debug)]
struct Ledger {
    /// Units charged to each window the ring holds — windows
    /// `head + 1 - RING ..= head`, window `w` in slot `w % RING`; a slot
    /// past the end holds 0.
    used: Vec<u64>,
    /// Newest window charged so far.
    head: u64,
    /// A run of consecutive windows all full: a spill crosses it in one
    /// step instead of window by window (a clock far behind a saturated
    /// link's backlog would otherwise walk all of it on every verb).
    full: Range<u64>,
    /// Total units ever granted (utilisation reporting).
    granted: u64,
    /// Total virtual delay ever handed out, ns.
    delayed_ns: u64,
}

fn slot(w: u64) -> usize {
    (w % RING as u64) as usize
}

impl Ledger {
    /// The oldest window the ring holds.
    fn oldest(&self) -> u64 {
        self.head.saturating_sub(RING as u64 - 1)
    }

    /// Charges up to `left` units to window `w` (not older than the
    /// ring), returning the units the window then carries.
    fn charge(&mut self, w: u64, left: &mut u64, capacity: u64) -> u64 {
        // Windows entering the ring start empty.
        for v in (self.head + 1).max(w.saturating_sub(RING as u64 - 1))..=w {
            if let Some(used) = self.used.get_mut(slot(v)) {
                *used = 0;
            }
        }
        self.head = self.head.max(w);
        if slot(w) >= self.used.len() {
            self.used.resize(slot(w) + 1, 0);
        }
        let used = &mut self.used[slot(w)];
        let take = (*left).min(capacity - *used);
        *used += take;
        *left -= take;
        *used
    }

    /// Records that windows `r` are all full.
    fn note_full(&mut self, r: Range<u64>) {
        let touches = r.start <= self.full.end && self.full.start <= r.end;
        self.full = match touches {
            true => r.start.min(self.full.start)..r.end.max(self.full.end),
            false => r,
        };
    }
}

impl LinkBudget {
    /// Creates a link with the given rate in units (bytes, or verbs) per
    /// virtual second.
    pub fn new(units_per_sec: f64) -> Self {
        assert!(units_per_sec > 0.0, "rate must be positive");
        let capacity = (units_per_sec * WINDOW_NS as f64 / 1e9).round().max(1.0) as u64;
        Self {
            ledger: Mutex::new(Ledger {
                used: Vec::new(),
                head: 0,
                full: 0..0,
                granted: 0,
                delayed_ns: 0,
            }),
            capacity,
        }
    }

    /// Reserves `units` at virtual time `now`; returns the completion
    /// time in the caller's frame (`>= now`).
    ///
    /// Completes at `now` when the window `now` falls in has room;
    /// otherwise the window is filled, the rest spills into the windows
    /// after it, and the reservation completes when its last unit is
    /// served at the link rate inside the last window it reached.
    pub fn reserve(&self, now: u64, units: u64) -> u64 {
        let mut l = self.ledger.lock();
        l.granted += units;
        let start = (now / WINDOW_NS).max(l.oldest());
        let mut left = units;
        let mut carried = l.charge(start, &mut left, self.capacity);
        if left == 0 {
            return now;
        }
        let mut w = start;
        while left > 0 {
            w = if l.full.contains(&(w + 1)) {
                l.full.end
            } else {
                w + 1
            };
            carried = l.charge(w, &mut left, self.capacity);
        }
        l.note_full(start..w + u64::from(carried == self.capacity));
        let served = u128::from(carried) * u128::from(WINDOW_NS) / u128::from(self.capacity);
        let done = w * WINDOW_NS + served as u64;
        l.delayed_ns += done - now;
        done
    }

    /// Total units granted so far (utilisation reporting).
    pub fn granted(&self) -> u64 {
        self.ledger.lock().granted
    }

    /// Total virtual delay handed out so far, ns: the sum over every
    /// reservation of its completion minus its `now`.
    pub fn delayed_ns(&self) -> u64 {
        self.ledger.lock().delayed_ns
    }
}

#[cfg(test)]
mod tests {
    use std::collections::BTreeMap;

    use super::*;
    use crate::SplitMix64;

    #[test]
    fn uncontended_reservations_add_no_delay() {
        let l = LinkBudget::new(1.0e9); // 1 GB/s = 1 B/ns.
        assert_eq!(l.reserve(100, 50), 100);
        assert_eq!(l.reserve(200, 50), 200);
        assert_eq!(l.reserve(300, 50), 300, "the link still has room");
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
        // Demand of 2 B/ns against a 1 B/ns link: once the first window
        // is full, completions recede at the link rate (half the demand).
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
        assert!(l.reserve(now, 100_000) > now, "the link is still saturated");
    }

    #[test]
    fn bursts_within_the_bucket_pass_free() {
        let l = LinkBudget::new(1.0e9); // A window = 100 µs * 1 B/ns = 100 kB.
        assert_eq!(l.reserve(0, 50_000), 0);
        assert_eq!(l.reserve(0, 40_000), 0);
        // The window is nearly full now; the next big burst pays.
        assert!(l.reserve(0, 50_000) > 0);
    }

    #[test]
    fn tokens_refill_with_time() {
        let l = LinkBudget::new(1.0e9);
        let done = l.reserve(0, 150_000); // 50 kB past the first window.
        assert!(done >= 50_000);
        // 1 ms later the link is idle again.
        assert_eq!(l.reserve(1_000_000, 1_000), 1_000_000);
    }

    #[test]
    fn granted_accumulates() {
        let l = LinkBudget::new(1.0e9);
        l.reserve(0, 10);
        l.reserve(0, 32);
        assert_eq!(l.granted(), 42);
    }

    /// A lagging clock on a quiet link: one verb at 2 ms from a clock
    /// that ran ahead, then 900 verbs at 15 % of a 6 M verbs/s link from
    /// a clock between 0.5 and 1.5 ms. A bucket refilled only by the
    /// most advanced clock charges 7.6 ms of delay here.
    #[test]
    fn lagging_clock_on_a_quiet_link_waits_for_nothing() {
        let l = LinkBudget::new(6.0e6);
        assert_eq!(l.reserve(2_000_000, 1), 2_000_000);
        let delay: u64 = (0..900u64)
            .map(|i| {
                let now = 500_000 + i * 1_000_000 / 900;
                l.reserve(now, 1) - now
            })
            .sum();
        assert_eq!(delay, 0);
        assert_eq!(l.delayed_ns(), 0);
    }

    /// Two clocks 2 ms apart, each demanding the whole link: what the
    /// link carries up to the last completion stays within one window
    /// of the link rate, and both clocks are throttled.
    #[test]
    fn skewed_saturation_cannot_leak_capacity() {
        let l = LinkBudget::new(1.0e9);
        let mut clocks = [0u64, 2_000_000];
        let mut latest = 0;
        for _ in 0..20_000 {
            for now in &mut clocks {
                *now += 1000;
                *now = l.reserve(*now, 1000).max(*now);
                latest = latest.max(*now);
            }
        }
        let carried = l.granted();
        assert_eq!(carried, 40_000_000);
        assert!(carried <= latest + WINDOW_NS, "{carried} B by {latest} ns");
        // Demand alone would end the clocks at 20 and 22 ms; sharing the
        // link, both end where the 40 MB it carried take it.
        assert!(
            clocks.iter().all(|&c| c >= carried - WINDOW_NS),
            "{clocks:?}"
        );
    }

    /// A reservation older than every window the ledger remembers is
    /// charged to the oldest one: it uses that window's room, and waits
    /// when there is none.
    #[test]
    fn reservation_older_than_the_ring_is_charged() {
        let l = LinkBudget::new(1.0e9);
        let head = 2 * RING as u64 * WINDOW_NS;
        assert_eq!(l.reserve(head, 1), head);
        let oldest = head - (RING as u64 - 1) * WINDOW_NS;
        assert_eq!(l.reserve(0, 60_000), 0, "charged to the oldest window");
        assert!(l.reserve(oldest, 60_000) > oldest, "which it filled");
        let done = l.reserve(0, 1_000);
        assert!(done >= oldest + WINDOW_NS, "full: it waits ({done})");
        assert_eq!(l.granted(), 121_001);
    }

    /// The ledger without its ring and its run of full windows: every
    /// window kept, a spill walked one window at a time.
    fn reference(capacity: u64, book: &mut BTreeMap<u64, u64>, now: u64, units: u64) -> u64 {
        let (mut w, mut left) = (now / WINDOW_NS, units);
        loop {
            let used = book.entry(w).or_default();
            let take = left.min(capacity - *used);
            *used += take;
            left -= take;
            if left == 0 {
                break;
            }
            w += 1;
        }
        match w == now / WINDOW_NS {
            true => now,
            false => w * WINDOW_NS + book[&w] * WINDOW_NS / capacity,
        }
    }

    /// Random skewed reservation sequences, checked against
    /// [`reference`]: completion is never before `now`, a reservation
    /// whose window has room waits for nothing, no window carries more
    /// than its capacity, and the same sequence gives the same
    /// completions.
    #[test]
    fn random_skewed_sequences_keep_the_ledger_invariants() {
        let run = |seed: u64| {
            let l = LinkBudget::new(1.0e9);
            let mut book = BTreeMap::new();
            let mut rng = SplitMix64::new(seed);
            // Four clocks up to 3 ms apart; a clock moves to its
            // completion only half the time (an unsignalled verb).
            let mut clocks: Vec<u64> = (0..4).map(|_| rng.below(3_000_000)).collect();
            let mut done = Vec::new();
            for _ in 0..5_000 {
                let c = rng.below(4) as usize;
                clocks[c] += rng.below(3_000);
                let (now, units) = (clocks[c], rng.range(1, 40_000));
                let room = l.capacity - book.get(&(now / WINDOW_NS)).copied().unwrap_or(0);
                let t = l.reserve(now, units);
                assert_eq!(t, reference(l.capacity, &mut book, now, units));
                assert!(t >= now);
                if units <= room {
                    assert_eq!(t, now, "window had room for {units} at {now}");
                }
                if rng.chance(0.5) {
                    clocks[c] = t;
                }
                done.push(t);
            }
            // A few milliseconds of windows: the ring evicted none.
            assert!(l.ledger.lock().used.iter().all(|&u| u <= l.capacity));
            done
        };
        for seed in 1..=8 {
            assert_eq!(run(seed), run(seed), "seed {seed}");
        }
    }
}
