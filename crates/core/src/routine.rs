//! The routine reactor: thread-free cooperative transactions
//! (DESIGN.md §11; §14 for shared doorbells and serving pools).
//!
//! A real DrTM+R worker thread hides one-sided verb latency by
//! multiplexing several in-flight transactions: when one transaction
//! rings a doorbell and would otherwise spin on the CQ, the worker
//! switches to another transaction whose completions already arrived.
//! This module reproduces that structure as an explicit polled state
//! machine: each *routine* is a suspended future owning a
//! [`Worker`], and a per-pool **reactor** — running entirely on the
//! calling thread, and owning the one set of location caches its
//! routines share — polls exactly one routine at a time. The commit
//! path's yield points (`finish_batch`, `yield_remote_wait`,
//! `pause`) are `await`s that park the routine and return control
//! to the reactor; the OS thread count is therefore independent of the
//! routine count R, and `--routines 256` costs no more threads than
//! `--routines 1`.
//!
//! # Step/wake protocol
//!
//! A routine advances in *steps*: the reactor polls its future, and the
//! future runs — executing transaction logic, posting WRs, ringing
//! doorbells — until it reaches a yield point. The yield point writes a
//! `Park` record into the shared reactor state and suspends; the
//! reactor folds the park into its virtual-time bookkeeping and
//! dispatches the next runnable routine. Waking is equally explicit:
//! the reactor writes a grant (resume time, unhidden idle, pool depth)
//! and re-polls the owning future, whose suspended yield point reads
//! the grant and resumes execution. No wakers, no threads, no blocking:
//! a poll that returns `Pending` without registering a park is a bug
//! (the routine suspended on a foreign future) and panics the pool.
//!
//! # One loop for every pool
//!
//! The drive loop steps any number of pools on the calling thread —
//! the measurement driver's every worker slot ([`RoutinePool::run_many`])
//! — always taking the action that falls due earliest in virtual time:
//! a pool's due shared-doorbell flush or its next grant, ties to the
//! lower pool. A routine waiting on another pool's lock spins through
//! `Worker::pause`, whose clock advances each poll, until the holder's
//! pool is the earlier one. So a run is a pure function of its inputs.
//! A pool of one is the same loop over one reactor.
//!
//! Only a [`Worker`] outside any pool has no loop: its own *solo*
//! reactor (`Reactor::solo`) resolves each wait in the yield point's
//! first poll — `YieldFut::poll` folds the park, flushes and
//! dispatches, the loop's steps — which is why the synchronous facades
//! (`Worker::run`, `TxnCtx::read`, …) finish in
//! `drtm_base::task::block_now`'s single poll.
//!
//! # Virtual-time protocol
//!
//! The reactor tracks `cpu_now`, the frontier of CPU time consumed by
//! the pool. A routine reaching a verb wait has already posted its WRs
//! and rung the doorbell; its park carries
//!
//! * `cpu_release` — the instant its doorbell charge ended (the CPU is
//!   free from here on), and
//! * `wake` — the batch horizon (the completion time of its last WR,
//!   read from [`drtm_rdma::Cq::cookie_horizon`] by routine cookie).
//!
//! The reactor folds `cpu_release` into `cpu_now`, parks the routine,
//! and resumes the parked routine with the smallest `wake` (ties broken
//! by routine id, so schedules are deterministic) at
//! `resume_at = max(cpu_now, wake)`, advancing `cpu_now` to that point —
//! except that a routine holding commit locks (between posting C.1 and
//! posting C.6) whose completions have landed goes ahead of the rest,
//! see `ReactorState::dispatch`.
//! CPU segments of different routines therefore never overlap — the
//! pool models one core — while their NIC waits overlap freely; the
//! per-QP pipelined occupancy of the fabric remains the serialization
//! point for the verbs themselves. With a pool of one, `resume_at`
//! always equals `wake`, which is exactly the clock arithmetic of a
//! blocking [`drtm_rdma::Cq::poll`] (regression-pinned).
//!
//! The gap `wake - cpu_now` at resume time is CPU idleness nothing
//! could hide; the rest of the routine's wait was overlapped with other
//! routines' CPU segments. Both halves feed the worker's
//! [`drtm_obs::Shard`], as do the reactor's own depth and wake-lag
//! samples, so the exposed latency-hiding ratio is exact.
//!
//! # Invariants
//!
//! * **HTM never spans a step.** A context switch inside
//!   `XBEGIN`/`XEND` always aborts real RTM, so the C.3/C.4 commit
//!   step runs entirely between yields. Every yield primitive asserts
//!   [`drtm_htm::region_active`] is false — since yields are the *only*
//!   suspension points a routine future contains, an HTM region is
//!   provably confined inside a single reactor step.
//! * A routine waiting on another worker must yield through
//!   [`Worker::pause`]: the conflicting holder may be a parked routine
//!   of the same pool, and only the reactor can run it. A paused
//!   routine stays perpetually runnable and flush-exempt, so the §14
//!   quiescence rules need no new park kind. Two kinds of wait use it:
//!   - **lock waits**, which end when the lock is released: one
//!     primitive, [`Worker::wait_release`] over a watch on the lock
//!     address (DESIGN.md §15), polling at a fixed cadence. Four
//!     acquisitions call it — rung 2's wait-mode C.1 and the fallback
//!     rollback's local lock in DrTM+R, the DrTM baseline's 2PL lock,
//!     Calvin's lock table;
//!   - **back-offs**, random pauses that end by themselves: the rung-1
//!     retry back-off (§4.3), the read group's lock back-off, and the
//!     DrTM baseline's abort back-off.
//! * Bodies of a pool, of any size, must be genuinely async: a
//!   synchronous facade reaching a verb wait there panics in
//!   `drtm_base::task::block_now` rather than deadlocking.

use std::collections::{HashMap, VecDeque};
use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;
use std::task::{Context, Poll, Waker};
use std::time::Instant;

use drtm_base::clock::{CostModel, VClock};
use drtm_base::stats::{Counter, Histogram};
use drtm_base::sync::{Condvar, Mutex};
use drtm_rdma::{Cq, Fabric, NodeId, PostedWr, Qp};
use drtm_store::LocationCache;

use crate::cluster::DrtmCluster;
use crate::txn::Worker;

/// What a suspended routine reported to the reactor.
enum Park {
    /// First park: startup barrier. No CPU was consumed yet; the
    /// routine becomes runnable at `wake` (its clock at entry).
    Initial { id: usize, wake: u64 },
    /// Verb wait: CPU went idle at `cpu_release`, completions land at
    /// `wake`. A `spin` park is a CPU retry loop handing the baton over
    /// (`wake == cpu_release == now`): it is perpetually runnable at the
    /// CPU frontier, so it must *not* hold back a deferred-doorbell
    /// flush — the lock word it is spinning on may only clear when the
    /// holder's parked unlock WRs actually ring.
    Yield {
        id: usize,
        cpu_release: u64,
        wake: u64,
        spin: bool,
    },
    /// Deferred verb batches: the routine handed its WRs (cookie = its
    /// id), one batch per destination machine, to the pool's flush layer
    /// at virtual time `at`. It has no wake horizon yet — the reactor
    /// assigns one when it rings the shared doorbells (see
    /// [`Reactor::flush`]): the latest horizon of the batches' signalled
    /// WRs, or the last ring instant if they have none.
    Flush {
        id: usize,
        src: NodeId,
        batches: Vec<DstBatch>,
        at: u64,
    },
    /// External wait (serve pools): the routine found the submit queue
    /// empty at virtual time `at` and left the virtual-time race —
    /// it becomes runnable only when the reactor hands it a delivery.
    Idle { id: usize, at: u64 },
}

impl Park {
    fn id(&self) -> usize {
        match *self {
            Park::Initial { id, .. }
            | Park::Yield { id, .. }
            | Park::Flush { id, .. }
            | Park::Idle { id, .. } => id,
        }
    }
}

/// The WRs one park posts to one destination machine.
pub(crate) type DstBatch = (NodeId, Vec<PostedWr>);

/// One routine's deferred batches awaiting the next shared doorbell
/// flush, in park order.
struct PendingFlush {
    id: usize,
    src: NodeId,
    batches: Vec<DstBatch>,
    /// The instant the routine parked the batches.
    at: u64,
    /// The clock right after the last doorbell the park rode (set by
    /// the flush).
    release: u64,
}

impl PendingFlush {
    /// Whether the park posts to the `(src, dst)` edge.
    fn rides(&self, edge: (NodeId, NodeId)) -> bool {
        self.src == edge.0 && self.batches.iter().any(|b| b.0 == edge.1)
    }
}

/// The wake-up handed to a granted routine.
#[derive(Debug, Clone, Copy, Default)]
pub(crate) struct Grant {
    /// Virtual time to advance the routine's clock to.
    pub(crate) resume_at: u64,
    /// The slice of the routine's wait nothing overlapped (CPU idle).
    pub(crate) idle_ns: u64,
    /// Parked routines at dispatch time, the woken one included — the
    /// reactor's in-flight depth.
    pub(crate) depth: u64,
    /// The completion horizon the routine slept until. For flush parks
    /// the routine learns it here (only the reactor knew when the
    /// shared doorbell rang); for yield parks it equals the park's.
    pub(crate) wake: u64,
    /// The instant the routine's CPU went idle — for flush parks, the
    /// clock right after its batch's doorbell charge. Wait attribution
    /// (`wake - release`) matches the pre-flush accounting exactly.
    pub(crate) release: u64,
}

/// Shared reactor state, guarded by the reactor mutex. The mutex is
/// uncontended (the reactor and every routine future run on one
/// thread); it exists so [`RoutineCtl`] — and therefore [`Worker`] —
/// stays `Send`.
struct ReactorState {
    /// Frontier of CPU time consumed by the pool (one simulated core).
    cpu_now: u64,
    /// Parked runnable routines: `(id, wake)`.
    waiting: Vec<(usize, u64)>,
    /// Deferred verb batches awaiting the next shared doorbell flush,
    /// in park order. Flushed — one doorbell per destination, not per
    /// routine — when [`Self::needs_flush`] says so, so the MMIO charge
    /// amortizes over every routine that parked meanwhile.
    pending: Vec<PendingFlush>,
    /// Per-routine CPU-idle instant of the last wait (indexed by id);
    /// flush parks learn theirs only when the reactor rings.
    release: Vec<u64>,
    /// Whether each waiting routine's park is a spin retry (indexed by
    /// id). Spinners are perpetually runnable at the CPU frontier and
    /// must not hold back a deferred-doorbell flush.
    spin: Vec<bool>,
    /// Whether each routine is between posting its C.1 lock CASes and
    /// posting its C.6 unlocks (indexed by id): it holds — or is about
    /// to hold — lock words the whole cluster can collide with, so
    /// [`Self::dispatch`] resumes it first once its completions landed.
    committing: Vec<bool>,
    /// Externally-idle routines of a serve pool: `(id, clock at park)`,
    /// kept in id order.
    idle: Vec<(usize, u64)>,
    /// Park registered by the routine the reactor is currently polling.
    park: Option<Park>,
    /// Routine granted the CPU by the last dispatch; its suspended
    /// yield point consumes this on re-poll.
    granted: Option<usize>,
    /// The grant for `granted`.
    grant: Grant,
    /// Routines yet to perform their initial park (startup barrier:
    /// no dispatch until the whole pool has registered).
    unregistered: usize,
    /// Routines whose future has not yet completed.
    live: usize,
    /// The flush layer's QPs: one, opened lazily, per `(src, dst)`
    /// pair, over which the shared doorbells of every routine on that
    /// edge ride.
    qps: HashMap<(NodeId, NodeId), Qp>,
    /// What ringing one doorbell costs the core (`doorbell_ns`).
    doorbell_ns: u64,
    /// The soonest a batch rung now can land: the doorbell plus one
    /// READ latency, the shortest one-sided verb.
    round_trip_ns: u64,
    /// Where the CPU segment now running began: the last grant's
    /// `resume_at`.
    seg_start: u64,
    /// Total length and count of the CPU segments measured so far, each
    /// from a grant to the granted routine's next park — their mean is
    /// how long a runnable routine keeps the core.
    seg_ns: u64,
    segs: u64,
}

impl ReactorState {
    /// The state of a reactor of `total` routines, none registered yet,
    /// on a fabric charging `cost`.
    fn new(total: usize, cost: &CostModel) -> Self {
        Self {
            cpu_now: 0,
            waiting: Vec::with_capacity(total),
            pending: Vec::new(),
            release: vec![0; total],
            spin: vec![false; total],
            committing: vec![false; total],
            idle: Vec::new(),
            park: None,
            granted: None,
            grant: Grant::default(),
            unregistered: total,
            live: total,
            qps: HashMap::new(),
            doorbell_ns: cost.doorbell_ns,
            round_trip_ns: cost.doorbell_ns + cost.rdma_read_ns,
            seg_start: 0,
            seg_ns: 0,
            segs: 0,
        }
    }

    /// Ends, at `at`, the CPU segment the last grant began: the core
    /// is free from there on.
    fn end_segment(&mut self, at: u64) {
        self.cpu_now = self.cpu_now.max(at);
        self.seg_ns += at.saturating_sub(self.seg_start);
        self.segs += 1;
    }

    /// Folds one park into the scheduler state.
    fn fold(&mut self, park: Park) {
        match park {
            Park::Initial { id, wake } => {
                self.unregistered -= 1;
                self.release[id] = wake;
                self.spin[id] = false;
                self.waiting.push((id, wake));
            }
            Park::Yield {
                id,
                cpu_release,
                wake,
                spin,
            } => {
                self.end_segment(cpu_release);
                self.release[id] = cpu_release;
                self.spin[id] = spin;
                self.waiting.push((id, wake));
            }
            Park::Flush {
                id,
                src,
                batches,
                at,
            } => {
                self.end_segment(at);
                let park = PendingFlush {
                    id,
                    src,
                    batches,
                    at,
                    release: at,
                };
                self.pending.push(park);
            }
            Park::Idle { id, at } => {
                self.end_segment(at);
                self.idle.push((id, at));
                self.idle.sort_unstable();
            }
        }
    }

    /// Whether a parked routine can use the CPU frontier right now:
    /// its completions have landed and it is not a spin retry.
    fn runnable(&self, id: usize, wake: u64) -> bool {
        wake <= self.cpu_now && !self.spin[id]
    }

    /// Grants the CPU to the next parked routine and returns its id for
    /// the reactor to poll; `None` when nothing is parked. Lock holders
    /// runnable at the CPU frontier go first — every instant one of
    /// them queues behind an execution-phase sibling is an instant its
    /// C.1 locks stay held against the cluster — and everything else
    /// follows in `(wake, id)` order (ids break ties, so schedules are
    /// deterministic). A spin park never takes the priority, locks or
    /// not: it is waiting on some other holder, which it would starve.
    fn dispatch(&mut self) -> Option<usize> {
        debug_assert!(self.granted.is_none(), "dispatch with an unconsumed grant");
        let best = self.choose()?;
        let depth = self.waiting.len() as u64;
        let (id, wake) = self.waiting.swap_remove(best);
        let idle = wake.saturating_sub(self.cpu_now);
        let resume_at = self.cpu_now.max(wake);
        self.cpu_now = resume_at;
        self.seg_start = resume_at;
        self.granted = Some(id);
        self.grant = Grant {
            resume_at,
            idle_ns: idle,
            depth,
            wake,
            release: self.release[id],
        };
        Some(id)
    }

    /// The position in `waiting` of the routine [`Self::dispatch`]
    /// would grant; `None` before the startup barrier or with nothing
    /// parked.
    fn choose(&self) -> Option<usize> {
        if self.unregistered > 0 {
            return None;
        }
        let parked = self.waiting.iter().enumerate();
        let (best, _) = parked.min_by_key(|&(_, &(id, wake))| {
            let holder = self.committing[id] && self.runnable(id, wake);
            (!holder, wake, id)
        })?;
        Some(best)
    }

    /// The virtual instant of the reactor's next action: a due flush
    /// rings at the CPU frontier, else the grant [`Self::dispatch`]
    /// would make resumes its routine at `max(cpu_now, wake)`. `None`
    /// when the reactor has nothing to do.
    fn next_at(&self) -> Option<u64> {
        if self.needs_flush() {
            return Some(self.cpu_now);
        }
        let (_, wake) = self.waiting[self.choose()?];
        Some(self.cpu_now.max(wake))
    }

    /// Whether to ring the shared doorbells over the deferred batches
    /// now. Always once no routine is runnable at the CPU frontier
    /// (eRPC's "tx burst at the end of the loop iteration": any later
    /// would let virtual time jump over CPU work that is ready to
    /// issue). Waiting for that moment amortizes each doorbell best,
    /// but it also makes every batch leave in one burst and land one
    /// round trip later, with the core idle until then — so the
    /// doorbells ring *while routines are still runnable* when both
    ///
    /// 1. the runnable backlog would run dry before a batch rung now
    ///    could land: `runnable x mean CPU segment <= round trip` (with
    ///    a backlog longer than that nothing idles, and ringing early
    ///    would only forfeit amortization), and
    /// 2. the deferred batches have together waited what one more
    ///    doorbell would cost: `sum(cpu_now - parked at) >=
    ///    doorbell_ns` (otherwise each park would ring its own).
    ///
    /// And they ring at once, whatever is runnable, when a deferred
    /// batch has no signalled WR: nobody waits for it, so it is a lock
    /// release (C.6 proper, or an abort's), and every instant it sits
    /// here its locks stay held against the whole cluster — the doorbell
    /// it would have rung itself, shared with whoever else is pending.
    ///
    /// All three read only virtual-time reactor state, so a schedule
    /// stays a pure function of its park sequence.
    fn needs_flush(&self) -> bool {
        if self.unregistered > 0 || self.pending.is_empty() {
            return false;
        }
        let landed = self
            .waiting
            .iter()
            .filter(|&&(id, wake)| self.runnable(id, wake));
        let runnable = landed.count() as u64;
        let runs_dry = runnable * self.seg_ns <= self.round_trip_ns * self.segs;
        let waited: u64 = self.pending.iter().map(|b| self.cpu_now - b.at).sum();
        let release = |p: &PendingFlush| {
            let mut wrs = p.batches.iter().flat_map(|b| &b.1);
            !wrs.any(|wr| wr.signalled)
        };
        let rings_early = runs_dry && waited >= self.doorbell_ns;
        runnable == 0 || rings_early || self.pending.iter().any(release)
    }
}

/// The reactor core: one per pool, and one per [`Worker`] outside any
/// pool. See the module docs for the protocol.
pub(crate) struct Reactor {
    state: Mutex<ReactorState>,
    total: usize,
    /// Whether this is a worker's own reactor outside any pool
    /// ([`Self::solo`]): its waits resolve inside the yield point.
    solo: bool,
    fabric: Arc<Fabric>,
    /// Per-destination CQs, one per peer node, shared by every routine
    /// of the reactor. Completions carry the routine id as cookie, so
    /// one CQ holds interleaved completions of many routines and each
    /// claims exactly its own with [`Cq::take_cookie`].
    pub(crate) cqs: Vec<Cq>,
    /// The worker thread's location caches (DESIGN.md §8), indexed by
    /// home node: where each peer's records live. One set per reactor,
    /// shared by all of its routines — they never run concurrently, so
    /// a sibling's fill or invalidation is simply the next lookup's
    /// state. Uncontended like `state`, and never held across a yield
    /// point.
    pub(crate) locations: Mutex<Vec<LocationCache>>,
}

impl Reactor {
    /// A pool's reactor of `total` routines with empty location caches.
    fn new(total: usize, fabric: Arc<Fabric>) -> Self {
        let nodes = fabric.nodes();
        Self {
            state: Mutex::new(ReactorState::new(total, &fabric.cost)),
            total,
            solo: false,
            cqs: (0..nodes).map(|_| Cq::new()).collect(),
            locations: Mutex::new((0..nodes).map(|_| LocationCache::new()).collect()),
            fabric,
        }
    }

    /// The control handle of a worker outside any pool: routine 0 of
    /// its own reactor of one, already past the startup barrier, so
    /// every wait resolves inside the yield point (see the module
    /// docs).
    pub(crate) fn solo(fabric: Arc<Fabric>) -> RoutineCtl {
        let reactor = Self {
            solo: true,
            ..Self::new(1, fabric)
        };
        reactor.state.lock().unregistered = 0;
        RoutineCtl {
            id: 0,
            reactor: Arc::new(reactor),
        }
    }

    /// The reactor of a pool multiplexing `workers` — one worker
    /// thread's in-flight transactions — with fresh location caches.
    fn for_pool(workers: &[Worker]) -> Arc<Self> {
        assert!(!workers.is_empty(), "a pool needs at least one routine");
        let fabric = Arc::clone(&workers[0].cluster.fabric);
        Arc::new(Self::new(workers.len(), fabric))
    }

    /// The initial-park future of routine `id` (startup barrier).
    pub(crate) fn park_initial(self: &Arc<Self>, id: usize, wake: u64) -> YieldFut {
        YieldFut {
            reactor: Arc::clone(self),
            park: Some(Park::Initial { id, wake }),
            id,
        }
    }

    /// The verb-wait future of routine `id`, whose CPU went idle at
    /// `cpu_release` and whose pending completions land at `wake`.
    pub(crate) fn yield_wait(self: &Arc<Self>, id: usize, cpu_release: u64, wake: u64) -> YieldFut {
        YieldFut {
            reactor: Arc::clone(self),
            park: Some(Park::Yield {
                id,
                cpu_release,
                wake,
                spin: false,
            }),
            id,
        }
    }

    /// The spin-retry future of routine `id`: hands the baton over at
    /// the current clock without blocking the deferred-doorbell flush
    /// (see [`Park::Yield`]'s `spin` flag).
    pub(crate) fn spin_wait(self: &Arc<Self>, id: usize, now: u64) -> YieldFut {
        YieldFut {
            reactor: Arc::clone(self),
            park: Some(Park::Yield {
                id,
                cpu_release: now,
                wake: now,
                spin: true,
            }),
            id,
        }
    }

    /// The deferred-batch future of routine `id`: each of `batches`
    /// rides the pool's next shared doorbell to its destination, and
    /// the routine sleeps once, until the latest horizon of its
    /// signalled completions on any of them (learned from the grant —
    /// the reactor decides when the doorbells ring).
    pub(crate) fn flush_wait(
        self: &Arc<Self>,
        id: usize,
        src: NodeId,
        batches: Vec<DstBatch>,
        at: u64,
    ) -> YieldFut {
        YieldFut {
            reactor: Arc::clone(self),
            park: Some(Park::Flush {
                id,
                src,
                batches,
                at,
            }),
            id,
        }
    }

    /// Folds the park registered by the just-suspended routine `id`
    /// into the scheduler state. Panics if the poll suspended without
    /// registering one — the routine awaited a foreign future, which
    /// the reactor has no way to resume.
    fn fold_park(&self, id: usize) {
        let mut s = self.state.lock();
        let park = s.park.take().unwrap_or_else(|| {
            panic!("routine {id} suspended on a foreign future (no park registered)")
        });
        assert_eq!(park.id(), id, "park registered by a foreign routine");
        s.fold(park);
    }

    /// Retires a routine whose future completed with its clock at
    /// `final_clock`.
    fn finish(&self, final_clock: u64) {
        let mut s = self.state.lock();
        s.cpu_now = s.cpu_now.max(final_clock);
        s.live -= 1;
    }

    /// Rings the pool's shared doorbells over every deferred batch: one
    /// doorbell (well, one per `sq_depth` chunk) per `(src, dst)` pair
    /// rather than one per routine, charged back to back to the pool's
    /// single simulated core at the CPU frontier. Each parked routine
    /// then joins the runnable list at the latest horizon of its
    /// completions on any destination it posted to: its core is
    /// released when the last of *its* doorbells rang, so a park of k
    /// destinations costs `Σ doorbell + max(latency)`, not their sum.
    ///
    /// With one routine this fires immediately after its park, at the
    /// same instant — and with the same doorbell charges — as doorbells
    /// rung from inside the routine.
    fn flush(&self, s: &mut ReactorState) {
        let mut parks = std::mem::take(&mut s.pending);
        debug_assert!(!parks.is_empty(), "flush with nothing pending");
        let mut clk = VClock::new();
        clk.advance_to(s.cpu_now);
        // One doorbell per (src, dst): edges in first-post order (park
        // order, then each park's own batch order) and park order
        // within each — the deterministic issue order. A batch still
        // holding WRs names an edge not yet rung; ringing it drains
        // every park's batch for that edge.
        for first in 0..parks.len() {
            for b in 0..parks[first].batches.len() {
                if parks[first].batches[b].1.is_empty() {
                    continue;
                }
                let edge = (parks[first].src, parks[first].batches[b].0);
                let riders = parks[first..].iter_mut().filter(|p| p.rides(edge));
                let wrs: Vec<PostedWr> = riders
                    .flat_map(|p| p.batches.iter_mut().filter(move |b| b.0 == edge.1))
                    .flat_map(|b| b.1.drain(..))
                    .collect();
                let qp = s
                    .qps
                    .entry(edge)
                    .or_insert_with(|| self.fabric.qp(edge.0, edge.1));
                qp.doorbell_shared(&mut clk, &self.cqs[edge.1], wrs);
                for p in parks[first..].iter_mut().filter(|p| p.rides(edge)) {
                    p.release = clk.now();
                }
            }
        }
        // Every park's routine becomes runnable at its latest horizon.
        for p in parks.drain(..) {
            let horizons = p.batches.iter().filter_map(|b| {
                let cq = &self.cqs[b.0];
                cq.cookie_horizon(p.id as u64)
            });
            let wake = horizons.max().map_or(p.release, |h| h.max(p.release));
            s.release[p.id] = p.release;
            s.spin[p.id] = false;
            s.waiting.push((p.id, wake));
        }
        // Hand the emptied buffer back so the next park reuses it.
        s.pending = parks;
        s.cpu_now = s.cpu_now.max(clk.now());
    }

    /// One scheduling decision: flush if the CPU frontier ran dry, then
    /// grant the next runnable routine. A solo reactor takes it inside
    /// the yield point.
    fn next(&self, s: &mut ReactorState) -> Option<usize> {
        if s.needs_flush() {
            self.flush(s);
        }
        s.dispatch()
    }

    /// One action of the drive loop, the one [`ReactorState::next_at`]
    /// dates: the due flush, or else the grant. Returns the granted
    /// routine for the loop to poll.
    fn act(&self) -> Option<usize> {
        let mut s = self.state.lock();
        if s.needs_flush() {
            self.flush(&mut s);
            return None;
        }
        s.dispatch()
    }

    fn live(&self) -> usize {
        self.state.lock().live
    }

    fn idle_count(&self) -> usize {
        self.state.lock().idle.len()
    }

    /// The pool's bid for one more item, asked for by one of its idle
    /// routines or by a running routine whose clock stands at `at`.
    fn bid(&self, up: bool, at: u64, asking_idle: bool) -> Bid {
        let s = self.state.lock();
        let idle = s.idle.len();
        Bid {
            frontier: s.cpu_now.max(at),
            up,
            spare: idle > usize::from(asking_idle),
        }
    }

    /// Moves the lowest-id externally-idle routine back onto the
    /// runnable list (its wake is its clock at park — external waits
    /// never advance virtual time). Returns the routine id.
    fn rejoin_lowest_idle(&self) -> usize {
        let mut s = self.state.lock();
        let (id, at) = s.idle.remove(0);
        s.waiting.push((id, at));
        id
    }
}

/// The suspended yield point of a routine: first poll registers its
/// [`Park`] and suspends; the re-poll (which only the drive loop
/// issues, after dispatching this routine) consumes the grant and
/// resumes. On a solo reactor the first poll does both.
pub(crate) struct YieldFut {
    reactor: Arc<Reactor>,
    park: Option<Park>,
    id: usize,
}

impl Future for YieldFut {
    type Output = Grant;

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Grant> {
        let this = self.get_mut();
        let mut s = this.reactor.state.lock();
        if let Some(park) = this.park.take() {
            if !this.reactor.solo {
                debug_assert!(s.park.is_none(), "two parks registered in one step");
                s.park = Some(park);
                return Poll::Pending;
            }
            // A solo reactor: no drive loop runs it, so take the
            // loop's steps here and resume at once.
            s.fold(park);
            let granted = this.reactor.next(&mut s);
            assert_eq!(granted, Some(this.id), "lone routine not runnable");
        }
        debug_assert_eq!(
            s.granted,
            Some(this.id),
            "routine re-polled without a grant"
        );
        s.granted = None;
        Poll::Ready(s.grant)
    }
}

/// Outcome of [`QueueGroup::submit`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Admission {
    /// The request entered the bounded queue and will be executed.
    Admitted,
    /// The request was shed: the queue is at its high-water mark (or
    /// the queue is closed for draining). The submitter should answer
    /// the client with a fast `Rejected` instead of waiting.
    Rejected,
}

/// Dispatcher policy of the serving tier's admission plane
/// (DESIGN.md §16).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum RoutePolicy {
    /// A one-member [`QueueGroup`] that every pool serves: one FIFO
    /// queue, no routing, and — with no sibling queue — no steals. The
    /// baseline the routed shape is measured against.
    #[default]
    Shared,
    /// One member queue per pool: admission routes each request to its
    /// home pool (majority shard, first-writer tiebreak) and an empty
    /// pool steals from the deepest sibling queue, bounded by the
    /// group's reserve.
    Routed,
}

impl RoutePolicy {
    /// Parses `off`/`shared` and `on`/`routed` (case-insensitive).
    pub fn parse(s: &str) -> Option<Self> {
        if s.eq_ignore_ascii_case("off") || s.eq_ignore_ascii_case("shared") {
            Some(Self::Shared)
        } else if s.eq_ignore_ascii_case("on") || s.eq_ignore_ascii_case("routed") {
            Some(Self::Routed)
        } else {
            None
        }
    }
}

/// Counters of one member queue of a [`QueueGroup`].
struct MemberStats {
    /// Items admitted onto this queue.
    accepted: Counter,
    /// Submissions aimed at this queue that were shed.
    rejected: Counter,
    /// Items removed from this queue (by its own pool *or* a thief).
    delivered: Counter,
    /// Items this member's pool stole from sibling queues.
    steals: Counter,
}

/// What a serve pool tells its [`QueueGroup`] each time it asks for
/// work: the inputs of the group's dispatch rule (see [`QueueGroup`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Bid {
    /// The pool's reactor CPU frontier, virtual ns.
    pub(crate) frontier: u64,
    /// Whether the pool's machine is up. A down pool ranks behind every
    /// live one.
    pub(crate) up: bool,
    /// Whether the pool still has an idle routine once this ask takes
    /// an item.
    pub(crate) spare: bool,
}

/// How far in virtual time a pool may run ahead of a busy live pool
/// that could take the same item before it stops taking work: one NIC
/// ledger window ([`drtm_base::link::WINDOW_NS`]), the model's unit of
/// simultaneity. Without it a pool whose OS thread the host favours
/// keeps every routine busy, never looks idle, and leaves the other
/// pool's clock behind for as long as the favour lasts.
const RUN_AHEAD_NS: u64 = drtm_base::link::WINDOW_NS;

/// One serve pool's standing in the dispatch rule, as of its last ask.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Seat {
    /// The member queue the pool serves.
    member: usize,
    /// The pool's reactor CPU frontier at its last ask.
    frontier: u64,
    /// Whether the pool has a routine idle for work: it is up, its loop
    /// still runs, and its last ask found nothing or took an item with
    /// an idle routine to spare.
    idle: bool,
    /// Whether the pool is up and its loop still runs, idle or busy.
    live: bool,
}

/// Mutable state of a [`QueueGroup`]: every member deque under one
/// lock, so routing, shedding, stealing and the dispatch rule are each
/// a single atomic decision over the whole group.
struct GroupState<T> {
    qs: Vec<VecDeque<(Instant, T)>>,
    closed: bool,
    /// Serve pools by pool id, `None` until a pool first asks.
    seats: Vec<Option<Seat>>,
    /// Pools blocked on the condvar right now.
    waiters: usize,
}

impl<T> GroupState<T> {
    /// Whether a pool seated at `t` could take the front of `member`:
    /// it serves `member`, or its own member is empty and `member` is
    /// deep enough (above `reserve`) to steal from.
    fn could_take(&self, t: &Seat, member: usize, reserve: usize) -> bool {
        t.member == member || (self.qs[t.member].is_empty() && self.qs[member].len() > reserve)
    }

    /// Whether another pool that could take the front of `member`
    /// outranks pool `pool` bidding `bid`: an idle one of lower
    /// `(frontier, pool id)`, or a busy live one more than
    /// [`RUN_AHEAD_NS`] behind. A down asker ranks behind every live
    /// pool.
    fn outranked(&self, member: usize, reserve: usize, pool: usize, bid: Bid) -> bool {
        let mine = (if bid.up { bid.frontier } else { u64::MAX }, pool);
        let beats = |q: usize, t: &Seat| {
            (t.idle && (t.frontier, q) < mine)
                || (t.live && t.frontier.saturating_add(RUN_AHEAD_NS) < mine.0)
        };
        self.seats.iter().enumerate().any(|(q, seat)| {
            matches!(seat, Some(t) if q != pool
                && self.could_take(t, member, reserve) && beats(q, t))
        })
    }

    /// Records pool `pool`'s seat; whether it changed.
    fn seat(&mut self, pool: usize, seat: Seat) -> bool {
        if self.seats.len() <= pool {
            self.seats.resize(pool + 1, None);
        }
        self.seats[pool].replace(seat) != Some(seat)
    }
}

/// The serving tier's bounded MPMC admission plane (DESIGN.md §12,
/// §16): a group of member queues feeding externally-arriving work into
/// [`RoutinePool::serve_group`] loops. One member served by every pool
/// is the shared queue ([`RoutePolicy::Shared`]); one member per pool
/// adds routing and bounded work stealing ([`RoutePolicy::Routed`]).
///
/// Producers (connection reader threads) call [`QueueGroup::submit`],
/// which enqueues each item on its *home* queue (the router's pick).
/// Past the water marks submissions are *shed* — refused immediately
/// rather than queued — so overload degrades to fast rejects instead of
/// unbounded queue growth and latency collapse. The test is two-level:
/// a per-queue `high_water` (bounds how much backlog one hot pool may
/// hoard) and a group-wide `global_cap` on the total backlog.
/// Consumers are serve reactors: running routines drain with a
/// non-blocking pop between transactions, and only when every routine
/// is idle does the reactor block on the group's condvar in host time.
/// They pop their own queue front-first; a consumer whose queue is
/// empty **steals** the oldest item from the deepest sibling queue, but
/// never drains a sibling below `reserve` items — those stay put for
/// the home pool, keeping steals from destroying the locality the
/// router just created. All removals take queue fronts, so per-queue
/// FIFO order is preserved whether the home pool or a thief executes
/// the item.
///
/// Every item goes out by **virtual time**, not to whichever OS thread
/// wins the lock. Each ask of a [`RoutinePool::serve_group`] pool
/// carries its bid: its reactor's CPU frontier, whether its machine is
/// up, whether an idle routine is left. The pools that could take an
/// item are those serving its member and, while the member is above
/// the reserve, those whose own member is empty. The asker takes the
/// item only if none of the others has an idle routine and a lower
/// `(frontier, pool id)`, nor is busy more than one NIC ledger window
/// behind it (`RUN_AHEAD_NS`). So the shared queue hands each request
/// to the pool furthest behind, and in a routed group a thief steals
/// only what it would reach before the home pool in virtual time. The
/// loser parks its routine idle, as on an empty queue, and whenever a
/// pool's seat (its last bid) changes while work is queued, the condvar
/// wakes the blocked pools to re-run the rule. A down pool ranks behind
/// every live one, and a retired pool holds no routine at all.
///
/// The group keeps its own counters (admitted/shed/delivered/stolen)
/// and a host-time (wall-clock, not virtual) queue-wait histogram
/// measured from submit to routine pickup — the serving tier's real
/// queueing delay. Every removal is counted against the queue it came
/// *from*, so at close-and-drained each member independently satisfies
/// `accepted == delivered`: every admitted item was executed, and
/// nothing that bypassed admission (stats-only requests answered inline
/// by connection readers, fast rejects) consumed a queue slot.
/// [`RoutinePool::serve_group`] asserts this at drain.
pub struct QueueGroup<T> {
    inner: Mutex<GroupState<T>>,
    cv: Condvar,
    high_water: usize,
    global_cap: usize,
    reserve: usize,
    members: Vec<MemberStats>,
    shed_queue: Counter,
    shed_global: Counter,
    wait_ns: Histogram,
}

impl<T> QueueGroup<T> {
    /// Creates a group of `pools` queues. `high_water` bounds each
    /// member's depth, `global_cap` bounds the summed depth, and
    /// `reserve` is the per-queue floor below which siblings may not
    /// steal. Both water marks must admit at least one item.
    pub fn new(pools: usize, high_water: usize, global_cap: usize, reserve: usize) -> Self {
        assert!(pools >= 1, "a group needs at least one queue");
        assert!(high_water >= 1, "per-queue high water must admit something");
        assert!(global_cap >= 1, "global cap must admit something");
        Self {
            inner: Mutex::new(GroupState {
                qs: (0..pools).map(|_| VecDeque::new()).collect(),
                closed: false,
                seats: Vec::new(),
                waiters: 0,
            }),
            cv: Condvar::new(),
            high_water,
            global_cap,
            reserve,
            members: (0..pools)
                .map(|_| MemberStats {
                    accepted: Counter::new(),
                    rejected: Counter::new(),
                    delivered: Counter::new(),
                    steals: Counter::new(),
                })
                .collect(),
            shed_queue: Counter::new(),
            shed_global: Counter::new(),
            wait_ns: Histogram::new(),
        }
    }

    /// Offers `item` to pool `home`'s queue. Sheds without blocking
    /// when the group is closed, the home queue is at its high-water
    /// mark (per-queue level), or the summed backlog is at the global
    /// cap — the two-level test, each level counted separately.
    pub fn submit(&self, home: usize, item: T) -> Admission {
        let mut s = self.inner.lock();
        if s.closed {
            drop(s);
            self.members[home].rejected.inc();
            return Admission::Rejected;
        }
        if s.qs[home].len() >= self.high_water {
            drop(s);
            self.members[home].rejected.inc();
            self.shed_queue.inc();
            return Admission::Rejected;
        }
        let total: usize = s.qs.iter().map(|q| q.len()).sum();
        if total >= self.global_cap {
            drop(s);
            self.members[home].rejected.inc();
            self.shed_global.inc();
            return Admission::Rejected;
        }
        s.qs[home].push_back((Instant::now(), item));
        self.members[home].accepted.inc();
        drop(s);
        self.cv.notify_all();
        Admission::Admitted
    }

    /// Closes the group: later submissions shed, queued backlog still
    /// drains, and once every queue is empty each pool's
    /// `pop_blocking` reports done.
    pub fn close(&self) {
        self.inner.lock().closed = true;
        self.cv.notify_all();
    }

    /// One removal attempt under the lock by serve pool `pool` of
    /// `member`, bidding `bid`: the member's front, else — the member
    /// empty — the *oldest* item of the deepest sibling still above the
    /// reserve, either only if the dispatch rule gives it to the pool.
    /// Records the pool's seat. Counters are bumped before the lock
    /// drops so a concurrent drain check can never observe a removed
    /// item whose delivery is uncounted.
    fn take_locked(
        &self,
        pool: usize,
        member: usize,
        bid: Bid,
        s: &mut GroupState<T>,
    ) -> Option<(Instant, T)> {
        let from = if s.qs[member].is_empty() {
            s.qs.iter()
                .enumerate()
                .filter(|(i, q)| *i != member && q.len() > self.reserve)
                .max_by_key(|(_, q)| q.len())
                .map(|(i, _)| i)
        } else {
            Some(member)
        };
        let from = from.filter(|&m| !s.outranked(m, self.reserve, pool, bid));
        let it = from.map(|m| {
            self.members[m].delivered.inc();
            if m != member {
                self.members[member].steals.inc();
                drtm_obs::trace::event(
                    drtm_obs::EventKind::Net,
                    "steal",
                    ((member as u64) << 32) | m as u64,
                    0,
                );
            }
            s.qs[m].pop_front().expect("chosen queue non-empty")
        });
        let seat = Seat {
            member,
            frontier: bid.frontier,
            idle: bid.up && (it.is_none() || bid.spare),
            live: bid.up,
        };
        if s.seat(pool, seat) && s.waiters > 0 && s.qs.iter().any(|q| !q.is_empty()) {
            self.cv.notify_all(); // a blocked pool may win now
        }
        if it.is_some() && s.closed {
            self.cv.notify_all(); // a sibling may be waiting to retire
        }
        it
    }

    /// Non-blocking pop by serve pool `pool` of `member`, bidding `bid`:
    /// its own queue first, then the steal protocol, both under the
    /// dispatch rule. `None` means nothing poppable right now, or the
    /// rule gives it to another pool.
    pub(crate) fn try_pop(&self, pool: usize, member: usize, bid: Bid) -> Option<T> {
        let mut s = self.inner.lock();
        let (at, item) = self.take_locked(pool, member, bid, &mut s)?;
        drop(s);
        self.note_wait(at);
        Some(item)
    }

    /// Blocking pop by serve pool `pool` of `member`: waits for an item
    /// the dispatch rule gives the pool, calling `bid` — outside the
    /// group's lock — each time the pool wakes. `None` once the group is
    /// closed and *every* queue has drained (so no member's backlog is
    /// ever stranded behind a retired pool).
    pub(crate) fn pop_blocking(
        &self,
        pool: usize,
        member: usize,
        mut bid: impl FnMut() -> Bid,
    ) -> Option<T> {
        loop {
            // The bid is read outside the lock; every change it could
            // miss is made under the lock and re-checked below.
            let bid = bid();
            let mut s = self.inner.lock();
            if let Some((at, item)) = self.take_locked(pool, member, bid, &mut s) {
                drop(s);
                self.note_wait(at);
                return Some(item);
            }
            if s.closed && s.qs.iter().all(|q| q.is_empty()) {
                return None;
            }
            s.waiters += 1;
            s = self.cv.wait(s);
            s.waiters -= 1;
        }
    }

    /// Serve pools of `member` whose last ask left them an idle routine.
    #[cfg(test)]
    pub(crate) fn idle_pools(&self, member: usize) -> usize {
        let s = self.inner.lock();
        let idle = s
            .seats
            .iter()
            .flatten()
            .filter(|t| t.member == member && t.idle);
        idle.count()
    }

    /// Retires serve pool `pool`: it holds no idle routine from now on,
    /// so it never outranks a live pool again.
    pub(crate) fn leave(&self, pool: usize) {
        let mut s = self.inner.lock();
        if let Some(seat) = s.seats.get_mut(pool).and_then(Option::as_mut) {
            (seat.idle, seat.live) = (false, false);
        }
        drop(s);
        self.cv.notify_all();
    }

    fn note_wait(&self, enqueued: Instant) {
        self.wait_ns
            .record(enqueued.elapsed().as_nanos().min(u64::MAX as u128) as u64);
    }

    /// Member queues in the group.
    pub fn pools(&self) -> usize {
        self.members.len()
    }

    /// Steal floor: siblings never drain a queue below this depth.
    pub fn reserve(&self) -> usize {
        self.reserve
    }

    /// Items admitted onto `pool`'s queue so far.
    pub fn accepted(&self, pool: usize) -> u64 {
        self.members[pool].accepted.get()
    }

    /// Submissions aimed at `pool` that were shed.
    pub fn rejected(&self, pool: usize) -> u64 {
        self.members[pool].rejected.get()
    }

    /// Items removed from `pool`'s queue so far (home pops + thefts).
    pub fn delivered(&self, pool: usize) -> u64 {
        self.members[pool].delivered.get()
    }

    /// Items `pool` stole from sibling queues so far.
    pub fn steals(&self, pool: usize) -> u64 {
        self.members[pool].steals.get()
    }

    /// Total admissions across all queues.
    pub fn accepted_total(&self) -> u64 {
        self.members.iter().map(|m| m.accepted.get()).sum()
    }

    /// Total sheds across all queues.
    pub fn rejected_total(&self) -> u64 {
        self.members.iter().map(|m| m.rejected.get()).sum()
    }

    /// Total steals across all pools.
    pub fn steals_total(&self) -> u64 {
        self.members.iter().map(|m| m.steals.get()).sum()
    }

    /// Sheds charged to the per-queue high-water level.
    pub fn shed_queue(&self) -> u64 {
        self.shed_queue.get()
    }

    /// Sheds charged to the group-wide cap.
    pub fn shed_global(&self) -> u64 {
        self.shed_global.get()
    }

    /// Items waiting on `pool`'s queue right now.
    pub fn depth(&self, pool: usize) -> usize {
        self.inner.lock().qs[pool].len()
    }

    /// Per-queue depths right now, one entry per pool.
    pub fn depths(&self) -> Vec<u64> {
        self.inner
            .lock()
            .qs
            .iter()
            .map(|q| q.len() as u64)
            .collect()
    }

    /// Summed depth across all queues right now.
    pub fn depth_total(&self) -> usize {
        self.inner.lock().qs.iter().map(|q| q.len()).sum()
    }

    /// Host-time queue-wait histogram (submit → pickup, ns), pooled
    /// across members.
    pub fn wait_hist(&self) -> &Histogram {
        &self.wait_ns
    }

    /// Drain-time invariant: every member independently delivered
    /// exactly what it accepted — no admission was lost to a crashed
    /// pool and nothing that bypassed admission consumed a slot.
    fn assert_drained(&self) {
        for (i, m) in self.members.iter().enumerate() {
            assert_eq!(
                m.accepted.get(),
                m.delivered.get(),
                "queue {i} drained with undelivered admissions \
                 (a non-admitted request consumed a slot?)"
            );
        }
    }
}

/// Per-routine control handle every [`Worker`] carries: which routine
/// of which reactor its wait primitives park on — its own reactor of
/// one ([`Reactor::solo`]) outside a pool, the pool's while inside.
pub(crate) struct RoutineCtl {
    /// This routine's id within its reactor (doubles as the CQ cookie).
    pub(crate) id: usize,
    /// The reactor.
    pub(crate) reactor: Arc<Reactor>,
}

impl RoutineCtl {
    /// Marks this routine as holding commit locks (from posting C.1 to
    /// posting C.6) or not; see [`ReactorState::dispatch`].
    pub(crate) fn set_committing(&self, on: bool) {
        self.reactor.state.lock().committing[self.id] = on;
    }
}

/// The delivery mailbox of a serve pool: one slot per routine, filled
/// by the reactor when it hands a queued item (or the close signal) to
/// an idle routine.
type Slots<T> = Arc<Mutex<Vec<Option<Option<T>>>>>;

/// State machine of one "give me the next job" suspension in a serve
/// routine.
enum NextJob {
    /// Not yet polled: try the queue inline first.
    Start,
    /// Parked idle; the re-poll consumes the grant and the delivery.
    Parked,
}

/// The next-job future of a serve routine: an inline non-blocking pop
/// while the routine is running (no clock fold — the routine keeps its
/// step), else an idle park whose delivery the reactor provides.
/// Resolves to `(delivery, resume_at)`; a `None` delivery means the
/// group closed and drained.
struct NextJobFut<'q, T> {
    reactor: Arc<Reactor>,
    group: &'q QueueGroup<T>,
    seat: PoolSeat<'q>,
    slots: Slots<T>,
    id: usize,
    /// The routine's clock when the wait began.
    at: u64,
    state: NextJob,
}

impl<T> Future for NextJobFut<'_, T> {
    type Output = (Option<T>, u64);

    fn poll(self: Pin<&mut Self>, _cx: &mut Context<'_>) -> Poll<Self::Output> {
        let this = self.get_mut();
        match this.state {
            NextJob::Start => {
                let bid = this.reactor.bid(this.seat.up(), this.at, false);
                let (pool, member) = (this.seat.pool, this.seat.member);
                if let Some(item) = this.group.try_pop(pool, member, bid) {
                    // Backlog available: keep running in the current
                    // step, exactly like the pre-reactor inline drain.
                    return Poll::Ready((Some(item), this.at));
                }
                let mut s = this.reactor.state.lock();
                debug_assert!(s.park.is_none(), "two parks registered in one step");
                s.park = Some(Park::Idle {
                    id: this.id,
                    at: this.at,
                });
                this.state = NextJob::Parked;
                Poll::Pending
            }
            NextJob::Parked => {
                let grant = {
                    let mut s = this.reactor.state.lock();
                    debug_assert_eq!(
                        s.granted,
                        Some(this.id),
                        "idle routine re-polled without a grant"
                    );
                    s.granted = None;
                    s.grant
                };
                let msg = this.slots.lock()[this.id]
                    .take()
                    .expect("idle routine granted without a delivery");
                Poll::Ready((msg, grant.resume_at))
            }
        }
    }
}

/// A pool of cooperative transaction routines multiplexed over one
/// simulated core by a reactor on the *calling* thread (DESIGN.md §11).
///
/// [`RoutinePool::run`] drives `workers.len()` routines — each a
/// polled future owning one of the given [`Worker`]s — through `job`,
/// serializing their CPU segments under the deterministic reactor
/// while their verb waits overlap. All workers should live on the same
/// node (they model one worker thread's in-flight transactions). No
/// threads are spawned: R = 256 and R = 1 use the same single thread,
/// and [`RoutinePool::run_many`] steps many pools — one per worker
/// thread of the cluster — on that thread too.
pub struct RoutinePool;

/// A pooled routine pinned for reactor polling: resolves to the worker
/// it consumed plus the job's output.
type RoutineFut<'a, T> = Pin<Box<dyn Future<Output = (Worker, T)> + 'a>>;

/// One pooled routine: attaches the worker to the pool's reactor — its
/// wait queue and its caches — as routine `id`, performs the initial
/// park, runs `body`, and hands the worker its own reactor of one back.
async fn routine<T>(
    reactor: Arc<Reactor>,
    id: usize,
    mut w: Worker,
    body: impl AsyncFnOnce(&mut Worker) -> T,
) -> (Worker, T) {
    w.obs.note_routines(reactor.total as u64);
    let solo = std::mem::replace(
        &mut w.routine,
        RoutineCtl {
            id,
            reactor: Arc::clone(&reactor),
        },
    );
    let grant = reactor.park_initial(id, w.clock.now()).await;
    w.clock.advance_to(grant.resume_at);
    let out = body(&mut w).await;
    w.routine = solo;
    (w, out)
}

/// The drive loop of one or more pools, on the calling thread. Each
/// turn it takes the action that falls due earliest in virtual time
/// over every pool ([`ReactorState::next_at`]; ties go to the lower
/// pool index): a due shared-doorbell flush, or a grant whose routine
/// it then advances one step, folding its park. Pools therefore meet
/// one another — on a lock word, a NIC ledger — in virtual-time order,
/// whatever the host does. `admit` runs before every action, is handed
/// the virtual time that action falls due at (`None` while no pool has
/// one), and says whether it made parked routines runnable; `stalled`
/// runs when no pool has anything to do although routines remain.
/// Returns each pool's routine outputs in routine-id order.
fn drive<T>(
    reactors: &[Arc<Reactor>],
    mut futs: Vec<Vec<RoutineFut<'_, T>>>,
    mut admit: impl FnMut(Option<u64>) -> bool,
    mut stalled: impl FnMut(),
) -> Vec<Vec<(Worker, T)>> {
    let mut results: Vec<Vec<Option<(Worker, T)>>> = futs
        .iter()
        .map(|pool| pool.iter().map(|_| None).collect())
        .collect();
    // The reactor resumes routines by re-polling, never through wakers.
    let mut cx = Context::from_waker(Waker::noop());
    let mut step = |p: usize, id: usize| match futs[p][id].as_mut().poll(&mut cx) {
        Poll::Ready(done) => {
            reactors[p].finish(done.0.clock.now());
            results[p][id] = Some(done);
        }
        Poll::Pending => reactors[p].fold_park(id),
    };
    // Startup: poll every routine once, in (pool, id) order; each
    // registers its initial park (the startup barrier — no pool
    // dispatches until all of its routines are registered).
    for (p, reactor) in reactors.iter().enumerate() {
        (0..reactor.total).for_each(|id| step(p, id));
    }
    // Only a pool's own actions and routines change its next action,
    // so the loop re-dates the pool that acted, and every pool after
    // `admit` or `stalled` moved something.
    let due = |r: &Reactor| r.state.lock().next_at();
    let date = || reactors.iter().map(|r| due(r)).collect::<Vec<_>>();
    let mut next = date();
    let earliest = |next: &[Option<u64>]| {
        let dated = next.iter().enumerate();
        dated.filter_map(|(p, at)| Some((*at.as_ref()?, p))).min()
    };
    loop {
        let mut first = earliest(&next);
        if admit(first.map(|(at, _)| at)) {
            next = date();
            first = earliest(&next);
        }
        match first {
            Some((_, p)) => {
                // Decided under the lock, polled outside it: the
                // routine's yield points take the lock themselves.
                if let Some(id) = reactors[p].act() {
                    step(p, id);
                }
                next[p] = due(&reactors[p]);
            }
            None if reactors.iter().all(|r| r.live() == 0) => break,
            None => {
                stalled();
                next = date();
            }
        }
    }
    let done = |pool: Vec<Option<_>>| {
        let outs = pool.into_iter();
        outs.map(|r| r.expect("every routine produced a result"))
            .collect()
    };
    results.into_iter().map(done).collect()
}

impl RoutinePool {
    /// Runs `job(routine_id, worker)` on every worker concurrently as
    /// cooperative routines, returning each worker (clock advanced to
    /// its routine's end) with its job's result, in routine-id order:
    /// [`Self::run_many`] with one pool and no tick.
    ///
    /// A pool of one charges exactly what `job(0, &mut w)` charges on
    /// a worker outside any pool: the single routine's every yield
    /// resumes at its own wake time (regression-pinned).
    pub fn run<T, F>(workers: Vec<Worker>, job: F) -> Vec<(Worker, T)>
    where
        F: AsyncFn(usize, &mut Worker) -> T,
    {
        let mut done = Self::run_many(vec![workers], |_| {}, async |_, id, w| job(id, w).await);
        done.pop().expect("one pool")
    }

    /// Runs every pool of `pools` — one per simulated worker thread —
    /// on one drive loop on the calling thread: `job(pool, routine_id,
    /// worker)` on each worker, the pools stepped in virtual-time order
    /// (a routine waiting on another pool's lock spins in virtual time
    /// until that pool's holder, now earlier, runs and releases it).
    /// `tick(now)` runs before every action with the virtual time the
    /// action falls due at, so what the caller steps on the same clock
    /// (a lease supervisor) sees the run in virtual-time order too.
    /// Returns each pool's workers and results in routine-id order.
    /// The run is a pure function of the workers, the tick and the job:
    /// no host thread decides which pool meets which lock first.
    ///
    /// # Panics
    ///
    /// If routines stay live but none is runnable: a routine suspended
    /// on something that is not an engine yield point.
    pub fn run_many<T, F>(
        pools: Vec<Vec<Worker>>,
        mut tick: impl FnMut(u64),
        job: F,
    ) -> Vec<Vec<(Worker, T)>>
    where
        F: AsyncFn(usize, usize, &mut Worker) -> T,
    {
        let job = &job;
        let reactors: Vec<_> = pools.iter().map(|w| Reactor::for_pool(w)).collect();
        let futs = (pools.into_iter().enumerate())
            .map(|(p, workers)| {
                let reactor = &reactors[p];
                let routines = workers.into_iter().enumerate().map(|(id, w)| {
                    let body = async move |w: &mut Worker| job(p, id, w).await;
                    Box::pin(routine(Arc::clone(reactor), id, w, body)) as RoutineFut<'_, T>
                });
                routines.collect()
            })
            .collect();
        drive(
            &reactors,
            futs,
            |at| {
                at.map(&mut tick);
                false
            },
            || panic!("routine pools wedged with live routines"),
        )
    }

    /// Serves externally-submitted work from member `member` of `group`
    /// as serve pool `pool` (an id unique among the group's pools, and
    /// the tie-break of its dispatch rule): every worker becomes a
    /// routine that runs `handler(routine_id, worker, item)` on the
    /// items the pool pops, until the group is closed *and* **all**
    /// member queues have drained, then returns the workers in
    /// routine-id order. The pool drains its member front-first and,
    /// when that is empty, steals the oldest item from the deepest
    /// sibling queue still above the group's reserve (DESIGN.md §16).
    /// Several pools may serve the same member — that is the shared
    /// queue. Pops and steals alike go to the pool furthest behind in
    /// virtual time (see [`QueueGroup`]).
    ///
    /// While there is backlog, routines interleave exactly as in
    /// [`RoutinePool::run`] — one CPU, overlapped verb waits. When a
    /// routine finds nothing to pop it parks *idle* (leaving the
    /// virtual-time race so the others keep running); once every live
    /// routine is idle, the reactor itself blocks on the group in host
    /// time. External idle time therefore never advances virtual time,
    /// and a pool blocked on an empty queue consumes no simulated CPU.
    /// Arriving items are handed to the lowest-id idle routine at each
    /// scheduling point. Every ask reports the pool's CPU frontier, and
    /// whether the workers' machine is up, to the group; each wake of a
    /// pool blocked on the group takes the machine's log truncation
    /// step.
    ///
    /// At drain the pool asserts the per-queue `accepted == delivered`
    /// invariant (see [`QueueGroup`]) — what the serving tier's
    /// `completed == accepted` audit rests on.
    pub fn serve_group<T, F>(
        workers: Vec<Worker>,
        group: &QueueGroup<T>,
        pool: usize,
        member: usize,
        handler: F,
    ) -> Vec<Worker>
    where
        F: AsyncFn(usize, &mut Worker, T),
    {
        assert!(member < group.pools(), "member index outside the group");
        let reactor = Reactor::for_pool(&workers);
        let cluster = Arc::clone(&workers[0].cluster);
        let seat = PoolSeat {
            pool,
            member,
            cluster: &cluster,
            node: workers[0].node,
        };
        let slots: Slots<T> = Arc::new(Mutex::new(workers.iter().map(|_| None).collect()));
        let handler = &handler;
        let futs = workers
            .into_iter()
            .enumerate()
            .map(|(id, w)| {
                let (reactor, slots) = (Arc::clone(&reactor), Arc::clone(&slots));
                let fut = routine(Arc::clone(&reactor), id, w, async move |w| loop {
                    let (popped, resume_at) = NextJobFut {
                        reactor: Arc::clone(&reactor),
                        group,
                        seat,
                        slots: Arc::clone(&slots),
                        id,
                        at: w.clock.now(),
                        state: NextJob::Start,
                    }
                    .await;
                    w.clock.advance_to(resume_at);
                    match popped {
                        Some(item) => handler(id, w, item).await,
                        None => break, // closed and drained
                    }
                });
                Box::pin(fut) as RoutineFut<'_, ()>
            })
            .collect();
        // Makes the lowest-id idle routine runnable with `msg` in its slot.
        let deliver = |msg: Option<T>| {
            let id = reactor.rejoin_lowest_idle();
            slots.lock()[id] = Some(msg);
        };
        let reactors = [Arc::clone(&reactor)];
        let mut done = drive(
            &reactors,
            vec![futs],
            // Hand arrivals to idle routines (lowest id first) before
            // each scheduling decision, as long as the rule gives them
            // to this pool.
            |_| {
                let mut delivered = false;
                while reactor.idle_count() > 0 {
                    let bid = reactor.bid(seat.up(), 0, true);
                    let Some(item) = group.try_pop(pool, member, bid) else {
                        break;
                    };
                    deliver(Some(item));
                    delivered = true;
                }
                delivered
            },
            // Nothing runnable but routines remain: they must all be
            // idle on the empty queue (or on work the rule gives to
            // another pool). Block in host time — the only blocking
            // point of the whole pool — and hand the outcome to the
            // idle routines.
            || {
                assert_eq!(
                    reactor.idle_count(),
                    reactor.live(),
                    "serve pool wedged: live routines neither runnable nor idle"
                );
                // Nothing runs while the pool blocks, so only `up` can
                // move. A waiting pool is between requests: each wake
                // takes its machine's log truncation step, as a routine
                // does after each request, so a pool the rule holds back
                // still folds what its siblings' commits log on it.
                let bid = reactor.bid(true, 0, true);
                let popped = group.pop_blocking(pool, member, || {
                    seat.cluster.truncate_step_at(seat.node, bid.frontier);
                    Bid {
                        up: seat.up(),
                        ..bid
                    }
                });
                match popped {
                    Some(item) => deliver(Some(item)),
                    None => {
                        // Closed and drained: deliver the stop signal to
                        // every idle routine; the dispatch loop retires
                        // them in virtual-time order.
                        while reactor.idle_count() > 0 {
                            deliver(None);
                        }
                        // `pop_blocking` returned `None`, so the group
                        // is closed and *every* queue is empty: the
                        // per-member invariant holds group-wide, whichever
                        // pool observes the drain first.
                        group.assert_drained();
                    }
                }
            },
        );
        group.leave(pool);
        let done = done.pop().expect("one pool");
        done.into_iter().map(|(w, ())| w).collect()
    }
}

/// Who a serve pool is to its group: its pool id, the member it serves,
/// and the machine whose liveness it reports.
#[derive(Clone, Copy)]
struct PoolSeat<'a> {
    pool: usize,
    member: usize,
    cluster: &'a DrtmCluster,
    node: NodeId,
}

impl PoolSeat<'_> {
    /// Whether the pool's machine is up.
    fn up(&self) -> bool {
        self.cluster.is_alive(self.node)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A reactor state of three registered routines whose CPU frontier
    /// stands at `cpu_now`, parked as given: `(cpu_release, wake, spin)`
    /// per routine id.
    fn parked(cpu_now: u64, parks: [(u64, u64, bool); 3]) -> ReactorState {
        let mut s = ReactorState::new(3, &CostModel::default());
        s.unregistered = 0;
        for (id, (cpu_release, wake, spin)) in parks.into_iter().enumerate() {
            s.fold(Park::Yield {
                id,
                cpu_release,
                wake,
                spin,
            });
        }
        s.cpu_now = s.cpu_now.max(cpu_now);
        s
    }

    /// Drains the runnable list: the grant order and each resume time.
    fn grants(s: &mut ReactorState) -> Vec<(usize, u64)> {
        std::iter::from_fn(|| {
            let id = s.dispatch()?;
            s.granted = None;
            Some((id, s.grant.resume_at))
        })
        .collect()
    }

    /// Schedule pin, R = 3: routine 1 sits in a commit-phase verb wait
    /// (C.2 or C.5) whose completions landed at 150; routine 0 is an
    /// execution-phase read that landed earlier, at 100; routine 2's
    /// completions are still in flight. With the CPU frontier at 200
    /// the lock holder resumes first, then `(wake, id)` order.
    #[test]
    fn landed_lock_holder_is_granted_before_an_earlier_execution_wake() {
        let mut s = parked(200, [(10, 100, false), (20, 150, false), (30, 900, false)]);
        s.committing[1] = true;
        assert_eq!(grants(&mut s), [(1, 200), (0, 200), (2, 900)]);
        // The same parks with nobody committing: plain `(wake, id)`.
        let mut s = parked(200, [(10, 100, false), (20, 150, false), (30, 900, false)]);
        assert_eq!(grants(&mut s), [(0, 200), (1, 200), (2, 900)]);
    }

    /// A spin park — routine 1 retrying a busy C.1 lock in wait mode,
    /// earlier locks in hand — is perpetually "landed" but takes no
    /// priority: the routine it waits on may be the one it would cut
    /// in front of.
    #[test]
    fn spinning_lock_holder_is_not_prioritised() {
        let mut s = parked(200, [(10, 100, false), (200, 200, true), (30, 150, false)]);
        s.committing[1] = true;
        assert_eq!(grants(&mut s), [(0, 200), (2, 200), (1, 200)]);
    }

    /// With no completions landed at the CPU frontier the choice — and
    /// the idle time charged to it — is still the smallest
    /// `(wake, id)`, lock holder or not.
    #[test]
    fn nothing_runnable_grants_min_wake() {
        let mut s = parked(50, [(10, 100, false), (20, 150, false), (30, 100, false)]);
        s.committing[1] = true;
        assert_eq!(s.dispatch(), Some(0));
        assert_eq!((s.grant.resume_at, s.grant.idle_ns), (100, 50));
        s.granted = None;
        // The frontier moved to 100: routine 2 landed, the holder (150)
        // has not, so it still waits its turn.
        assert_eq!(grants(&mut s), [(2, 100), (1, 150)]);
    }

    /// A READ posted by routine 0.
    fn read(signalled: bool) -> PostedWr {
        PostedWr {
            cookie: 0,
            signalled,
            wr: drtm_rdma::WorkRequest::Read { raddr: 0, len: 8 },
        }
    }

    /// `s` with a measured mean CPU segment of `mean` ns and one
    /// deferred batch, waited for, parked at each instant of `batches`.
    fn deferring(mut s: ReactorState, mean: u64, batches: &[u64]) -> ReactorState {
        (s.seg_ns, s.segs) = (mean, 1);
        s.pending.extend(batches.iter().map(|&at| PendingFlush {
            id: 0,
            src: 0,
            batches: vec![(1, vec![read(true)])],
            at,
            release: at,
        }));
        s
    }

    /// The default cost model's doorbell is 250 ns and its shortest
    /// round trip 250 + 1 500: with nothing runnable at the frontier
    /// the doorbells ring however briefly the batches waited, as they
    /// always did.
    #[test]
    fn nothing_runnable_flushes() {
        let s = parked(200, [(10, 900, false), (20, 900, false), (30, 900, false)]);
        assert!(deferring(s, 1_000, &[200]).needs_flush());
        // Nothing deferred, nothing to ring.
        let s = parked(200, [(10, 900, false), (20, 900, false), (30, 900, false)]);
        assert!(!deferring(s, 1_000, &[]).needs_flush());
    }

    /// Two runnable routines at a mean 1 000 ns apiece keep the core
    /// busy past a 1 750 ns round trip: ringing early would only forfeit
    /// amortization, however long the batches have waited.
    #[test]
    fn backlog_longer_than_a_round_trip_defers() {
        let s = parked(
            1_000_000,
            [(10, 100, false), (20, 150, false), (30, 2_000_000, false)],
        );
        assert!(!deferring(s, 1_000, &[0, 5]).needs_flush());
        // At 875 ns apiece the same two run dry exactly as a batch rung
        // now would land: ring.
        let s = parked(
            1_000_000,
            [(10, 100, false), (20, 150, false), (30, 2_000_000, false)],
        );
        assert!(deferring(s, 875, &[0, 5]).needs_flush());
    }

    /// The same long backlog does not hold back a batch nobody waits
    /// for: an unsignalled unlock rings the moment it parks, and takes
    /// the deferred batches along.
    #[test]
    fn a_lock_release_rings_at_once() {
        let parks = [(10, 100, false), (20, 150, false), (30, 2_000_000, false)];
        let mut s = deferring(parked(1_000_000, parks), 1_000, &[0, 5]);
        assert!(!s.needs_flush());
        s.pending[1].batches = vec![(1, vec![read(true), read(false)])];
        assert!(!s.needs_flush(), "C.5 + C.6 waits for its image");
        // A park is a release only if no destination of it is waited for.
        s.pending[1].batches = vec![(1, vec![read(false)]), (2, vec![read(true)])];
        assert!(!s.needs_flush());
        s.pending[1].batches = vec![(1, vec![read(false)]), (2, vec![read(false)])];
        assert!(s.needs_flush());
    }

    /// One runnable routine is a short backlog; then the batches ring
    /// once they have *together* waited one doorbell's cost.
    #[test]
    fn short_backlog_rings_once_the_batches_waited_a_doorbell() {
        let parks = [(10, 100, false), (20, 9_000, false), (30, 9_000, false)];
        assert!(!deferring(parked(1_000, parks), 1_000, &[751]).needs_flush());
        assert!(deferring(parked(1_000, parks), 1_000, &[750]).needs_flush());
        assert!(!deferring(parked(1_000, parks), 1_000, &[875, 876]).needs_flush());
        assert!(deferring(parked(1_000, parks), 1_000, &[875, 875]).needs_flush());
    }

    /// A spin park is neither runnable nor backlog: alone it cannot
    /// hold the doorbells back (the lock it spins on may be released by
    /// one of the deferred WRs), and beside one runnable routine it does
    /// not make the backlog look a round trip long.
    #[test]
    fn spin_parks_count_on_neither_side_of_the_flush_rule() {
        let spinners = [(200, 200, true), (200, 200, true), (30, 900, false)];
        assert!(deferring(parked(200, spinners), 1_000, &[200]).needs_flush());
        let mixed = [(10, 100, false), (1_000, 1_000, true), (30, 9_000, false)];
        assert!(deferring(parked(1_000, mixed), 1_000, &[0]).needs_flush());
        // The same three with the spinner's park a plain landed wait:
        // two runnable, a backlog of 2 000 ns, no early ring.
        let landed = [(10, 100, false), (1_000, 1_000, false), (30, 9_000, false)];
        assert!(!deferring(parked(1_000, landed), 1_000, &[0]).needs_flush());
    }

    /// A reactor of one rings inside the yield point, at the park
    /// instant, with the charge of a doorbell rung by the routine
    /// itself: the core is released `doorbell_ns` later and the routine
    /// resumes at its completion's horizon, the whole round trip idle.
    #[test]
    fn reactor_of_one_flushes_at_its_park() {
        let fabric = Fabric::builder().fresh_regions(2, 4096).build();
        let cost = fabric.cost.clone();
        let ctl = Reactor::solo(Arc::clone(&fabric));
        let park = ctl
            .reactor
            .flush_wait(0, 0, vec![(1, vec![read(true)])], 5_000);
        let grant = drtm_base::task::block_now(park);
        let release = 5_000 + cost.doorbell_ns;
        let wake = release + cost.rdma_read(8);
        assert_eq!(
            (grant.release, grant.wake, grant.resume_at, grant.idle_ns),
            (release, wake, wake, cost.rdma_read(8))
        );
        assert_eq!(fabric.port(1).stats().doorbells.get(), 1);
        assert_eq!(ctl.reactor.cqs[1].take_cookie(0).len(), 1);
    }

    /// A READ of `len` bytes posted by routine `cookie`.
    fn read_of(cookie: u64, len: usize) -> PostedWr {
        PostedWr {
            cookie,
            signalled: true,
            wr: drtm_rdma::WorkRequest::Read { raddr: 0, len },
        }
    }

    /// The same reactor of one parking on two machines at once: the
    /// doorbells ring back to back on the core, in batch order, each
    /// READ flies from its own doorbell, and the routine sleeps once,
    /// to the later horizon — `Σ doorbell + max(latency)`, where two
    /// one-machine parks would cost `Σ (doorbell + latency)`.
    #[test]
    fn two_destination_park_wakes_at_the_later_horizon() {
        let fabric = Fabric::builder().fresh_regions(3, 4096).build();
        let cost = fabric.cost.clone();
        let (db, short, long) = (cost.doorbell_ns, cost.rdma_read(8), cost.rdma_read(2048));
        assert!(long > short + db, "the first-rung READ lands last");
        let ctl = Reactor::solo(Arc::clone(&fabric));
        let batches = vec![(1, vec![read_of(0, 2048)]), (2, vec![read_of(0, 8)])];
        let grant = drtm_base::task::block_now(ctl.reactor.flush_wait(0, 0, batches, 5_000));
        let release = 5_000 + 2 * db;
        let wake = 5_000 + db + long;
        assert_eq!(
            (grant.release, grant.wake, grant.resume_at, grant.idle_ns),
            (release, wake, wake, wake - release)
        );
        // The other way round the later doorbell's READ is the later
        // horizon: `2 x doorbell + long`.
        let batches = vec![(2, vec![read_of(0, 8)]), (1, vec![read_of(0, 2048)])];
        let grant = drtm_base::task::block_now(ctl.reactor.flush_wait(0, 0, batches, wake));
        assert_eq!(
            (grant.release, grant.wake),
            (wake + 2 * db, wake + 2 * db + long)
        );
        for node in [1, 2] {
            assert_eq!(fabric.port(node).stats().doorbells.get(), 2);
            assert_eq!(ctl.reactor.cqs[node].take_cookie(0).len(), 2);
        }
    }

    /// R = 2: routine 0 parks on machines 1 and 2, routine 1 on machine
    /// 2 alone. One flush rings one doorbell per edge — machine 2's
    /// carries both routines' WRs, in park order — and each routine
    /// wakes at its own latest horizon, released when the last doorbell
    /// *it* rides rang.
    #[test]
    fn sibling_parks_share_each_edges_doorbell() {
        let fabric = Fabric::builder().fresh_regions(3, 4096).build();
        let cost = fabric.cost.clone();
        let (db, pipe, read) = (cost.doorbell_ns, cost.verb_pipeline_ns, cost.rdma_read(8));
        let reactor = Reactor::new(2, Arc::clone(&fabric));
        let mut s = reactor.state.lock();
        s.unregistered = 0;
        s.fold(Park::Flush {
            id: 1,
            src: 0,
            batches: vec![(2, vec![read_of(1, 8)])],
            at: 900,
        });
        s.fold(Park::Flush {
            id: 0,
            src: 0,
            batches: vec![(1, vec![read_of(0, 8)]), (2, vec![read_of(0, 8)])],
            at: 1_000,
        });
        assert!(s.needs_flush());
        reactor.flush(&mut s);
        // Edges in first-post order: machine 2 (routine 1's, then
        // routine 0's WR behind it), then machine 1.
        assert_eq!(fabric.port(2).stats().doorbells.get(), 1);
        assert_eq!(fabric.port(1).stats().doorbells.get(), 1);
        assert_eq!(s.cpu_now, 1_000 + 2 * db);
        s.waiting.sort_unstable();
        let wake0 = (1_000 + db + pipe + read).max(1_000 + 2 * db + read);
        assert_eq!(s.waiting, [(0, wake0), (1, 1_000 + db + read)]);
        assert_eq!(s.release, [1_000 + 2 * db, 1_000 + db]);
        assert!(s.pending.is_empty());
    }
}
