//! Adaptive contention management for hot keys (DESIGN.md §15), and
//! the one lock wait every engine uses.
//!
//! The paper's hybrid commit handles every conflict the same way: abort,
//! randomized virtual-time backoff, retry. Under zipfian hot keys that
//! backoff lottery collapses — a large transaction that must lock a hot
//! record loses the race to an endless stream of small writers and is
//! starved, and a routine pool burns its wake queue re-running losers.
//! This module implements a two-rung *escalation ladder* that adapts
//! the conflict response per `(table, key)`:
//!
//! 1. **Backoff** (rung 1) — the unchanged randomized virtual-time
//!    backoff of §4.3. This is the only rung when the policy is
//!    [`ContentionPolicy::Off`], and the first response under
//!    [`ContentionPolicy::Escalate`].
//! 2. **Wait for the release** (rung 2) — after [`PESSIMISTIC_AFTER`]
//!    consecutive aborts attributed to the same key, the next attempt
//!    commits pessimistically: it locks every record it touched, local
//!    ones too, like the §6.1 fallback handler, one after another in
//!    global order, and waits for a lock held by a live member until
//!    its holder releases it, instead of aborting on first sight. Large
//!    transactions stop losing to small ones because they hold what
//!    they already won. A validation abort keeps the locks, and the
//!    retry runs at once under them, so its reads cannot be invalidated
//!    again. No wait holds a lock above the one it waits for — a retry
//!    keeps its locks only when they are its whole lock set, and its
//!    body does not wait for a busy local lock — so waits form no cycle.
//!
//! Every lock wait — rung 2's, the fallback rollback's local lock,
//! the `drtm2pl` baseline's 2PL acquisition and Calvin's lock table —
//! is one primitive: a [`Watch`] on the lock address in the cluster's
//! [`WaitRegistry`], and `Worker::wait_release`, which checks it every
//! [`PARK_POLL_NS`] until the address is released or [`PARK_SPIN_CAP`]
//! polls have passed. An acquisition opens its watch before the attempt
//! that may fail. Every release of a lock word calls
//! [`WaitRegistry::release`]. The polls ride the reactor's spin-park
//! protocol, so a waiter is flush-exempt and cannot deadlock the shared
//! doorbell (§14).
//!
//! One policy governs every table ([`crate::EngineOpts::contention`]):
//! [`ContentionPolicy::Off`], the default, which keeps the legacy retry
//! path byte-identical, or [`ContentionPolicy::Escalate`], the ladder.
//! Rung 2 engages only on a conflict streak.
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
use std::sync::atomic::{AtomicU64, Ordering};

use drtm_rdma::NodeId;
use drtm_store::TableId;

/// Consecutive aborts on one key before rung 2 (the pessimistic,
/// waiting commit) engages under [`ContentionPolicy::Escalate`].
pub const PESSIMISTIC_AFTER: u32 = 2;

/// Deterministic virtual-time cost of one lock-wait poll, in ns.
/// Charged every time a waiting routine checks its watch, so a wait
/// pays honestly for its time in the virtual-time A/Bs.
pub const PARK_POLL_NS: u64 = 500;

/// Polls a lock wait performs before giving up — the liveness bound
/// when the lock holder crashed and no release comes until recovery
/// sweeps its locks (the chaos crash-while-waiting audit leans on this).
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
    /// Climb the ladder on consecutive aborts: backoff, then a
    /// pessimistic, waiting commit after [`PESSIMISTIC_AFTER`].
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

/// The record a conflict was attributed to: its `(table, key)`
/// identity, which the tracker keys on.
#[derive(Debug)]
pub struct ConflictSite {
    /// Table of the conflicted record.
    pub table: TableId,
    /// Key of the conflicted record.
    pub key: u64,
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

/// Release counters in a [`WaitRegistry`]: addresses share a counter
/// when their hashes collide, which costs a waiter one spurious wakeup —
/// one more lock attempt, which every caller's loop already makes.
const STRIPES: usize = 1 << 10;

/// The cluster-shared registry of lock waits: release counters indexed
/// by a hash of the global lock address `(home node, record offset)`.
///
/// A waiter opens a [`Watch`] — one load of its address's counter —
/// *before* the acquisition attempt that may fail, and its wait ends
/// when the counter moves past the value the watch saw. Every release
/// of a lock word calls [`release`](Self::release) once the word is
/// free, so a release that lands between the failed attempt and the
/// wait still ends it: no wakeup falls into the gap. A watch is plain
/// data: a waiter whose attempt wins just forgets it.
#[derive(Debug)]
pub struct WaitRegistry {
    releases: Box<[AtomicU64]>,
}

impl Default for WaitRegistry {
    fn default() -> Self {
        Self {
            releases: (0..STRIPES).map(|_| AtomicU64::new(0)).collect(),
        }
    }
}

impl WaitRegistry {
    /// An empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    fn counter(&self, (node, off): (NodeId, usize)) -> &AtomicU64 {
        let h = ((node as u64) << 48 ^ off as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        &self.releases[(h >> (64 - STRIPES.trailing_zeros())) as usize]
    }

    /// Starts watching `addr` for releases. Take the watch before the
    /// attempt that may fail.
    pub fn watch(&self, addr: (NodeId, usize)) -> Watch {
        // SeqCst orders the load before the attempt's lock-word access,
        // against the release's increment after its lock-word store.
        let seen = self.counter(addr).load(Ordering::SeqCst);
        Watch { addr, seen }
    }

    /// Counts a release of `addr`; called after its lock word is free.
    pub fn release(&self, addr: (NodeId, usize)) {
        self.counter(addr).fetch_add(1, Ordering::SeqCst);
    }

    /// Whether `watch`'s address was released since the watch opened or
    /// last returned `true`; a `true` catches the watch up, so the next
    /// wait is for a later release.
    pub fn released(&self, watch: &mut Watch) -> bool {
        let now = self.counter(watch.addr).load(Ordering::SeqCst);
        let moved = now != watch.seen;
        watch.seen = now;
        moved
    }
}

/// One waiter's watch on a lock address (see [`WaitRegistry`]).
#[derive(Debug, Clone, Copy)]
pub struct Watch {
    addr: (NodeId, usize),
    /// The address's release count this watch has caught up with.
    seen: u64,
}

#[cfg(test)]
mod tests {
    use super::*;

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

    /// A release ends every wait watching the address, including one
    /// it precedes (the watch opened before the release), and only the
    /// releases after a watch caught up end its next wait.
    #[test]
    fn registry_counts_releases_per_watched_address() {
        let reg = WaitRegistry::new();
        let addr = (1usize, 0x40usize);
        reg.release(addr);
        let mut first = reg.watch(addr);
        assert!(
            !reg.released(&mut first),
            "a release before the watch is not seen"
        );
        reg.release(addr);
        let mut second = reg.watch(addr);
        assert!(
            reg.released(&mut first),
            "released between the watch and the wait"
        );
        assert!(
            !reg.released(&mut first),
            "caught up: the next wait needs a new release"
        );
        assert!(!reg.released(&mut second), "opened after that release");
        reg.release(addr);
        assert!(
            reg.released(&mut first) && reg.released(&mut second),
            "one release ends both"
        );
    }

    #[test]
    fn registry_keys_are_independent() {
        let reg = WaitRegistry::new();
        let a = (0usize, 0x40usize);
        let b = (0usize, 0x80usize);
        assert!(
            !std::ptr::eq(reg.counter(a), reg.counter(b)),
            "adjacent records share no counter"
        );
        let mut wa = reg.watch(a);
        let mut wb = reg.watch(b);
        reg.release(a);
        assert!(reg.released(&mut wa));
        assert!(!reg.released(&mut wb), "a release of a does not leak to b");
    }
}
