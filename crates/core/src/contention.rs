//! Adaptive contention management for hot keys (DESIGN.md §15).
//!
//! The paper's hybrid commit handles every conflict the same way: abort,
//! randomized virtual-time backoff, retry. Under zipfian hot keys that
//! backoff lottery collapses — a large transaction that must lock a hot
//! record loses the race to an endless stream of small writers and is
//! starved, and a routine pool burns its wake queue re-running losers.
//! This module implements a three-rung *escalation ladder* that adapts
//! the conflict response per `(table, key)`:
//!
//! 1. **Backoff** (rung 1) — the unchanged randomized virtual-time
//!    backoff of §4.3. This is the only rung when the policy is
//!    [`ContentionPolicy::Off`], and the first response under
//!    [`ContentionPolicy::Escalate`].
//! 2. **Pessimistic lock** (rung 2) — after
//!    [`PESSIMISTIC_AFTER`] consecutive aborts attributed to the same
//!    key, the next attempt acquires its C.1 locks in *wait mode*: a
//!    busy lock is retried under a [`SpinBudget`] (the same bounded
//!    spin-with-backoff the `drtm2pl` baseline uses for 2PL) instead of
//!    aborting on first sight. Large transactions stop losing to small
//!    ones because they hold what they already won.
//! 3. **Cooperative wakeup** (rung 3) — after [`PARK_AFTER`]
//!    consecutive aborts, the routine *parks* on the key's
//!    [`WaitRegistry`] list and the unlock path (C.6 or the local
//!    rollback release) grants it, draining lock convoys in
//!    wake-horizon order instead of by backoff lottery. Parked waiters
//!    poll through the reactor's spin-park protocol, so they are
//!    flush-exempt and cannot deadlock the shared doorbell (§14).
//!
//! One policy governs every table ([`crate::EngineOpts::contention`]):
//! [`ContentionPolicy::Off`], the default, which keeps the legacy retry
//! path byte-identical, or [`ContentionPolicy::Escalate`], the ladder.
//! Rungs 2 and 3 engage only on a conflict streak.
//!
//! ```
//! use drtm_core::contention::ContentionPolicy;
//! use drtm_core::EngineOpts;
//!
//! let opts = EngineOpts::builder()
//!     .contention(ContentionPolicy::Escalate)
//!     .build();
//! assert_eq!(opts.contention, ContentionPolicy::Escalate);
//! assert_eq!(EngineOpts::default().contention, ContentionPolicy::Off);
//! ```

use std::collections::HashMap;
use std::sync::Mutex;

use drtm_base::SplitMix64;
use drtm_rdma::NodeId;
use drtm_store::TableId;

/// Consecutive aborts on one key before rung 2 (pessimistic C.1
/// acquisition) engages under [`ContentionPolicy::Escalate`].
pub const PESSIMISTIC_AFTER: u32 = 2;

/// Consecutive aborts on one key before rung 3 (parking on the key's
/// wait list) engages. Only lock-occupancy conflicts park; validation
/// conflicts have no holder to wait for.
pub const PARK_AFTER: u32 = 3;

/// Bounded spins a wait-mode lock acquisition tolerates before giving
/// the record up as convoyed (shared with the `drtm2pl` baseline's 2PL
/// acquisition, which always waits).
pub const WAIT_SPIN_CAP: u32 = 64;

/// Cap of the randomized virtual-time backoff charged per wait-mode
/// spin, in ns (shared with the `drtm2pl` baseline).
pub const WAIT_BACKOFF_NS: u64 = 2_000;

/// Deterministic virtual-time cost of one parked-waiter poll, in ns.
/// Charged every time a parked routine checks its grant so the
/// escalated side pays honestly for waiting in the virtual-time A/B.
pub const PARK_POLL_NS: u64 = 500;

/// Polls a parked waiter performs before abandoning the wait — the
/// liveness bound when the lock holder crashed and no grant will ever
/// arrive (the chaos crash-while-parked audit leans on this).
pub const PARK_SPIN_CAP: u32 = 4_096;

/// How a worker responds to repeated conflicts on a key.
///
/// Configured for every table through [`crate::EngineOpts::builder`]
/// and per run through `drtm_workloads::driver::RunCfg`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum ContentionPolicy {
    /// No contention management: every conflict takes the legacy
    /// randomized backoff. This keeps the retry path byte-identical to
    /// the pre-ladder engine and is the default.
    #[default]
    Off,
    /// Climb the ladder on consecutive aborts: backoff, then
    /// pessimistic C.1 acquisition after [`PESSIMISTIC_AFTER`], then
    /// cooperative parking after [`PARK_AFTER`].
    Escalate,
}

impl ContentionPolicy {
    /// The policy's label in reports and artifact stamps.
    pub fn label(self) -> &'static str {
        match self {
            Self::Off => "off",
            Self::Escalate => "escalate",
        }
    }
}

/// A bounded spin-with-backoff budget for waiting on a busy lock.
///
/// One budget covers one record acquisition: each
/// [`step`](Self::step) spends one spin and returns the randomized
/// virtual-time backoff to charge before the next CAS, or `None` once
/// the cap is spent and the acquisition should fail. The constants
/// ([`WAIT_SPIN_CAP`], [`WAIT_BACKOFF_NS`]) are shared with the
/// `drtm2pl` baseline, whose 2PL lock acquisition has always waited
/// this way — rung 2 borrows exactly that machinery.
#[derive(Debug)]
pub struct SpinBudget {
    spins: u32,
    max: u32,
}

impl Default for SpinBudget {
    fn default() -> Self {
        Self::new(WAIT_SPIN_CAP)
    }
}

impl SpinBudget {
    /// A budget of `max` spins.
    pub fn new(max: u32) -> Self {
        Self { spins: 0, max }
    }

    /// Spends one spin: `Some(backoff_ns)` while budget remains,
    /// `None` once the cap is exhausted (no RNG draw happens then,
    /// keeping the abandoned path deterministic-cheap).
    pub fn step(&mut self, rng: &mut SplitMix64) -> Option<u64> {
        self.spins += 1;
        if self.spins > self.max {
            None
        } else {
            Some(rng.below(WAIT_BACKOFF_NS))
        }
    }
}

/// The site a conflict was attributed to: the record's `(table, key)`
/// identity (what the tracker keys on) plus its global lock address
/// (what the unlock path grants on).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConflictSite {
    /// Table of the conflicted record.
    pub table: TableId,
    /// Key of the conflicted record.
    pub key: u64,
    /// Global lock address `(home node, record offset)` — the name the
    /// unlock path knows the record by.
    pub addr: (NodeId, usize),
    /// `true` when the conflict was lock occupancy (C.1 busy, a local
    /// lock held through every read retry): someone holds the record
    /// and will release it, so parking on the address can be granted.
    /// Validation conflicts (`false`) have no holder and never park.
    pub lockish: bool,
}

/// Per-worker tracker of consecutive-abort streaks, keyed by
/// `(table, key)`.
///
/// Every abort attributed to a key bumps that key's streak; a commit
/// clears all streaks (the convoy this worker was stuck in has, for
/// its purposes, resolved). The streak height selects the ladder rung.
#[derive(Debug, Default)]
pub struct ConflictTracker {
    streaks: HashMap<(TableId, u64), u32>,
}

impl ConflictTracker {
    /// A tracker with no recorded conflicts.
    pub fn new() -> Self {
        Self::default()
    }

    /// Records an abort attributed to `(table, key)` and returns the
    /// key's updated consecutive-abort streak.
    pub fn note_abort(&mut self, table: TableId, key: u64) -> u32 {
        let s = self.streaks.entry((table, key)).or_insert(0);
        *s += 1;
        *s
    }

    /// Records a commit: every streak resets.
    pub fn note_commit(&mut self) {
        if !self.streaks.is_empty() {
            self.streaks.clear();
        }
    }

    /// The current streak of `(table, key)`.
    pub fn streak(&self, table: TableId, key: u64) -> u32 {
        self.streaks.get(&(table, key)).copied().unwrap_or(0)
    }
}

/// One per-key wait list: tickets parked behind a lock address.
#[derive(Debug, Default)]
struct WaitCell {
    /// Next ticket to hand out.
    next_ticket: u64,
    /// Tickets `< granted` may run.
    granted: u64,
}

/// The cluster-shared registry of parked waiters, keyed by global lock
/// address `(home node, record offset)`.
///
/// Keys are lock addresses rather than `(table, key)` because the
/// grant side — C.6's [`unlock`](Self::grant) and the local rollback
/// release — only knows addresses. Waiters take a FIFO *ticket* when
/// they park; each grant advances the granted frontier by one, so a
/// convoy drains strictly in park order (and, through the reactor's
/// spin-park dispatch, in wake-horizon order among runnable routines).
///
/// A waiter that abandons its ticket (its holder crashed and the
/// [`PARK_SPIN_CAP`] liveness bound expired) wastes at most one future
/// grant; the waiter behind it is still bounded by its own spin cap,
/// so abandonment never wedges the list.
#[derive(Debug, Default)]
pub struct WaitRegistry {
    cells: Mutex<HashMap<(NodeId, usize), WaitCell>>,
}

impl WaitRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Parks behind `addr`: returns the FIFO ticket to poll with
    /// [`ready`](Self::ready).
    pub fn park(&self, addr: (NodeId, usize)) -> u64 {
        let mut cells = self.cells.lock().unwrap();
        let cell = cells.entry(addr).or_default();
        let ticket = cell.next_ticket;
        cell.next_ticket += 1;
        ticket
    }

    /// Whether `ticket` has been granted (or the cell was cleaned up,
    /// which means every outstanding grant was consumed).
    pub fn ready(&self, addr: (NodeId, usize), ticket: u64) -> bool {
        let cells = self.cells.lock().unwrap();
        cells.get(&addr).is_none_or(|c| ticket < c.granted)
    }

    /// Grants one parked waiter of `addr`, if any; called by the
    /// unlock paths after releasing the record's lock word. Returns
    /// `true` when a waiter was actually granted.
    pub fn grant(&self, addr: (NodeId, usize)) -> bool {
        let mut cells = self.cells.lock().unwrap();
        let Some(cell) = cells.get_mut(&addr) else {
            return false;
        };
        if cell.granted < cell.next_ticket {
            cell.granted += 1;
        }
        if cell.granted == cell.next_ticket {
            // Every ticket granted: drop the cell so the map stays
            // bounded by the set of *currently* convoyed keys.
            cells.remove(&addr);
            return true;
        }
        true
    }

    /// Parked tickets not yet granted across all keys (the waiters
    /// gauge is derived from park/unpark counters instead; this is for
    /// tests and diagnostics).
    pub fn waiting(&self) -> u64 {
        let cells = self.cells.lock().unwrap();
        cells.values().map(|c| c.next_ticket - c.granted).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn spin_budget_matches_legacy_2pl_bounds() {
        let mut rng = SplitMix64::new(7);
        let mut b = SpinBudget::default();
        for _ in 0..WAIT_SPIN_CAP {
            let ns = b.step(&mut rng).expect("within budget");
            assert!(ns < WAIT_BACKOFF_NS);
        }
        assert_eq!(b.step(&mut rng), None, "cap exhausted");
        assert_eq!(b.step(&mut rng), None, "stays exhausted");
    }

    #[test]
    fn tracker_streaks_per_key_and_reset_on_commit() {
        let mut t = ConflictTracker::new();
        assert_eq!(t.note_abort(0, 5), 1);
        assert_eq!(t.note_abort(0, 5), 2);
        assert_eq!(t.note_abort(1, 5), 1, "other table is a different key");
        assert_eq!(t.streak(0, 5), 2);
        t.note_commit();
        assert_eq!(t.streak(0, 5), 0);
        assert_eq!(t.note_abort(0, 5), 1, "streak restarts after commit");
    }

    #[test]
    fn registry_grants_in_fifo_ticket_order() {
        let reg = WaitRegistry::new();
        let addr = (1usize, 0x40usize);
        let t0 = reg.park(addr);
        let t1 = reg.park(addr);
        assert_eq!((t0, t1), (0, 1));
        assert_eq!(reg.waiting(), 2);
        assert!(!reg.ready(addr, t0) && !reg.ready(addr, t1));
        assert!(reg.grant(addr));
        assert!(reg.ready(addr, t0), "first parked is first granted");
        assert!(!reg.ready(addr, t1));
        assert!(reg.grant(addr));
        assert!(reg.ready(addr, t1));
        assert_eq!(reg.waiting(), 0, "drained cell is cleaned up");
        assert!(!reg.grant(addr), "no waiters left to grant");
        assert!(
            reg.ready(addr, 99),
            "a cleaned-up cell blocks no one (stale tickets fail open)"
        );
    }

    #[test]
    fn registry_keys_are_independent() {
        let reg = WaitRegistry::new();
        let a = (0usize, 0x40usize);
        let b = (0usize, 0x80usize);
        let ta = reg.park(a);
        let tb = reg.park(b);
        assert!(reg.grant(a));
        assert!(reg.ready(a, ta));
        assert!(!reg.ready(b, tb), "grant on a does not leak to b");
    }
}
