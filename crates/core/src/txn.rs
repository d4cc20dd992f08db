//! Worker threads and the transaction execution phase (§4.3).
//!
//! A [`Worker`] is one in-flight slot of one of the paper's worker
//! threads: it runs on a machine and owns a private virtual clock and
//! queue pairs to every peer. The thread's location caches live on
//! its reactor, shared with the thread's other slots. A
//! [`TxnCtx`] is one in-flight transaction: the execution phase tracks
//! local/remote read and write sets; the commit phase lives in
//! [`crate::commit`].

use std::collections::BTreeMap;
use std::sync::Arc;

use drtm_base::task::block_now;
use drtm_base::{Histogram, SplitMix64, VClock};
use drtm_htm::{HtmConfig, HtmTxn, ReadSet};
use drtm_obs::{EventKind, Shard};
use drtm_rdma::{NodeId, PostedWr, Qp, VerbError, WorkCompletion, WorkRequest, WrResult};
use drtm_store::record::{parse_consistent, RecordLayout, LOCK_FREE};
use drtm_store::{LocationCache, RemoteProbe, Store, TableId, PROBE_LINE_BYTES};

use crate::cluster::DrtmCluster;
use crate::contention::{self, ConflictSite, ConflictTracker, ContentionPolicy};
use crate::routine::{DstBatch, Reactor, RoutineCtl};

/// Why a transaction could not commit.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AbortReason {
    /// A remote record could not be locked (held by a live owner).
    LockBusy,
    /// OCC validation failed (a record changed, or an uncommittable
    /// version had not been replicated yet).
    Validation,
    /// A local record's lock stayed held through every execution-phase
    /// retry.
    LocalLockBusy,
    /// No consistent snapshot of a remote record could be obtained.
    RemoteInconsistent,
    /// The HTM commit region exhausted its retries *and* the fallback
    /// handler's validation failed.
    Fallback,
    /// A record was freed (incarnation changed) mid-transaction.
    Incarnation,
}

impl AbortReason {
    /// Index into [`drtm_obs::ABORT_REASONS`] (the variant order here
    /// mirrors that label table; `user` occupies the final slot).
    pub fn obs_index(self) -> usize {
        self as usize
    }

    /// Stable label used in metrics and trace events.
    pub fn label(self) -> &'static str {
        drtm_obs::ABORT_REASONS[self.obs_index()]
    }
}

/// Index of the `transport` slot in [`drtm_obs::ABORT_REASONS`] (the
/// slot before the final `user` one).
pub(crate) const TRANSPORT_OBS_INDEX: usize = drtm_obs::ABORT_REASONS.len() - 2;

/// Errors surfaced to transaction bodies and callers.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TxnError {
    /// The requested key does not exist (not retried).
    NotFound,
    /// The transaction aborted and may be retried.
    Aborted(AbortReason),
    /// A verb-level transport fault — an injected drop whose WR never
    /// took effect, or an unreachable peer — surfaced through a
    /// [`drtm_rdma::WorkCompletion`]. Retried like an abort: the commit
    /// paths only report it from states they can unwind cleanly.
    Transport(VerbError),
    /// The application rolled the transaction back (e.g. TPC-C's 1 %
    /// intentional new-order aborts). Not retried.
    UserAbort,
    /// The executing machine died mid-protocol (crash injection). The
    /// transaction stops in place — locks stay held and partially
    /// replicated state stays as the crash left it — and the error
    /// propagates without retry so worker loops can observe the death.
    Crashed,
}

impl From<VerbError> for TxnError {
    /// Folds a per-WR fault into the transaction error surface: drops
    /// are retriable transport aborts; an unreachable peer means the
    /// fabric tore this machine's QPs down, which only happens when the
    /// machine itself left the membership — a death, not an abort.
    fn from(e: VerbError) -> Self {
        match e {
            VerbError::Unreachable => TxnError::Crashed,
            // `Dropped` and any future fault class: retriable transport
            // abort carrying the original fault.
            other => TxnError::Transport(other),
        }
    }
}

/// Per-worker statistics.
///
/// Per-step commit timing, the abort taxonomy, and everything else the
/// paper's breakdown tables need now live in the worker's
/// [`drtm_obs::Shard`] (see [`Worker::obs`]); these plain counters
/// remain for cheap in-process assertions.
#[derive(Debug, Default)]
pub struct WorkerStats {
    /// Committed transactions.
    pub committed: u64,
    /// Aborted attempts (all causes).
    pub aborted: u64,
    /// Commit-phase fallback-handler invocations.
    pub fallbacks: u64,
    /// Application-requested rollbacks.
    pub user_aborts: u64,
    /// Per-transaction latency in virtual nanoseconds.
    pub latency: Histogram,
}

/// One worker thread bound to a machine.
pub struct Worker {
    pub(crate) cluster: Arc<DrtmCluster>,
    /// The machine this worker executes on.
    pub node: NodeId,
    /// The worker's private virtual clock.
    pub clock: VClock,
    pub(crate) rng: SplitMix64,
    pub(crate) qps: Vec<Qp>,
    /// Commit/abort/latency counters.
    pub stats: WorkerStats,
    /// This worker's shard of the cluster metrics registry.
    pub obs: Arc<Shard>,
    /// The routine of the reactor every wait primitive parks on and
    /// whose location caches every remote access goes through: this worker's
    /// own reactor of one, or — while it runs inside a
    /// [`crate::routine::RoutinePool`] — the pool's.
    pub(crate) routine: RoutineCtl,
    /// Cumulative virtual ns this worker spent waiting on verb
    /// completions (doorbell to batch horizon). The commit path laps
    /// it for the per-phase wait/occupied split.
    pub(crate) wait_accum_ns: u64,
    /// Trace id of the request currently executing on this worker
    /// (0 = untraced). Set by the serving tier for head-sampled
    /// requests so the commit path can tag its phase spans.
    pub(crate) trace_id: u64,
    /// Wall-clock ns (trace epoch) when the traced transaction began —
    /// the start of its `execute` phase span.
    pub(crate) trace_wall_ns: u64,
    /// Consecutive-abort streaks per `(table, key)` feeding the
    /// escalation ladder (DESIGN.md §15). Inert while every table's
    /// contention policy is `Off`.
    pub(crate) tracker: ConflictTracker,
    /// The site the most recent abort was attributed to, recorded at
    /// the failure point (C.1 busy, C.2 mismatch, a held local lock)
    /// and consumed by the retry loop's ladder dispatch.
    pub(crate) last_conflict: Option<ConflictSite>,
    /// Rung 2: the next commit acquires its C.1 locks in wait mode.
    /// Set by the ladder after a conflict streak, cleared on commit.
    pub(crate) force_pessimistic: bool,
}

/// What one [`Worker::ring_all`] park posts to one destination machine
/// (at most one batch per machine and park): the first `signalled` WRs
/// are waited for, the rest are unsignalled.
pub(crate) struct Batch {
    pub node: NodeId,
    pub wrs: Vec<WorkRequest>,
    pub signalled: usize,
}

/// A local read-set entry.
pub(crate) struct LocalRead {
    pub table: TableId,
    pub key: u64,
    pub rec_off: usize,
    pub seq: u64,
    pub incarnation: u64,
    pub value: Vec<u8>,
}

/// A local write-set entry.
pub(crate) struct LocalWrite {
    pub table: TableId,
    pub key: u64,
    pub rec_off: usize,
    pub buf: Vec<u8>,
}

/// A remote read-set entry.
pub(crate) struct RemoteRead {
    pub node: NodeId,
    pub table: TableId,
    pub key: u64,
    pub rec_off: usize,
    pub seq: u64,
    pub incarnation: u64,
    pub value: Vec<u8>,
}

/// A remote write-set entry.
pub(crate) struct RemoteWrite {
    pub node: NodeId,
    pub table: TableId,
    pub key: u64,
    pub rec_off: usize,
    pub buf: Vec<u8>,
}

/// A buffered insert or delete, applied at commit.
pub(crate) struct PendingMutation {
    pub node: NodeId,
    pub table: TableId,
    pub key: u64,
    /// `Some(value)` inserts, `None` deletes.
    pub value: Option<Vec<u8>>,
}

/// A local read or write set finds a repeated record by scanning while
/// it is at most this long, and through its [`RepeatIndex`] past that.
const LINEAR_SET: usize = 16;

/// Position of each entry of a local set by `(table, key)`, for
/// transactions that touch hundreds of local records (stock-level,
/// delivery).
#[derive(Default)]
pub(crate) struct RepeatIndex(BTreeMap<(TableId, u64), usize>);

impl RepeatIndex {
    fn find<T: Keyed>(&self, set: &[T], at: (TableId, u64)) -> Option<usize> {
        if set.len() <= LINEAR_SET {
            return set.iter().position(|e| e.at() == at);
        }
        self.0.get(&at).copied()
    }

    /// Notes that `set` just grew by its last entry.
    fn pushed<T: Keyed>(&mut self, set: &[T]) {
        if set.len() > LINEAR_SET {
            // The first time past the limit indexes what the scan covered.
            let new = if self.0.is_empty() { 0 } else { set.len() - 1 };
            let entries = set.iter().enumerate().skip(new);
            self.0.extend(entries.map(|(i, e)| (e.at(), i)));
        }
    }
}

/// An entry of a local set, named by `(table, key)`.
trait Keyed {
    fn at(&self) -> (TableId, u64);
}

impl Keyed for LocalRead {
    fn at(&self) -> (TableId, u64) {
        (self.table, self.key)
    }
}

impl Keyed for LocalWrite {
    fn at(&self) -> (TableId, u64) {
        (self.table, self.key)
    }
}

impl Keyed for GroupMember {
    fn at(&self) -> (TableId, u64) {
        (self.table, self.key)
    }
}

/// One in-flight transaction.
pub struct TxnCtx<'w> {
    pub(crate) w: &'w mut Worker,
    pub(crate) start_ns: u64,
    /// The worker's verb-wait accumulator at begin, so commit can
    /// attribute execution-phase waits to the `Execute` span.
    pub(crate) start_wait_ns: u64,
    /// Configuration epoch at begin. Commit is fenced against it: a
    /// reconfiguration mid-transaction aborts the transaction rather
    /// than let it validate against (or log towards) a shard whose
    /// store was abandoned and re-homed (§5.2).
    pub(crate) start_epoch: u64,
    pub(crate) read_only: bool,
    pub(crate) l_rs: Vec<LocalRead>,
    pub(crate) l_ws: Vec<LocalWrite>,
    l_rs_at: RepeatIndex,
    l_ws_at: RepeatIndex,
    pub(crate) r_rs: Vec<RemoteRead>,
    pub(crate) r_ws: Vec<RemoteWrite>,
    pub(crate) mutations: Vec<PendingMutation>,
    /// Atomic reads that built the read sets: one per HTM region that
    /// read groups, one per consistent READ of a remote record.
    /// `commit_ro`'s one-snapshot rule reads it.
    pub(crate) snapshots: u32,
    /// A read-only transaction's open HTM region: the read set of the
    /// local read groups since it opened, which the next group extends
    /// (`read_region`). Closed — dropped — before a verb is posted, at a
    /// group's failed attempt and when the next group would overflow it.
    region: Option<ReadSet>,
}

impl Worker {
    /// Creates a worker on `node` with a deterministic RNG stream.
    pub fn new(cluster: Arc<DrtmCluster>, node: NodeId, seed: u64) -> Self {
        let n = cluster.nodes();
        let qps = (0..n).map(|dst| cluster.fabric.qp(node, dst)).collect();
        let obs = cluster.obs.shard(node);
        obs.note_routines(1);
        let routine = Reactor::solo(Arc::clone(&cluster.fabric));
        Self {
            cluster,
            node,
            clock: VClock::new(),
            rng: SplitMix64::new(seed ^ (node as u64) << 32),
            qps,
            stats: WorkerStats::default(),
            obs,
            routine,
            wait_accum_ns: 0,
            trace_id: 0,
            trace_wall_ns: 0,
            tracker: ConflictTracker::new(),
            last_conflict: None,
            force_pessimistic: false,
        }
    }

    /// Tags the *next* transactions this worker runs with a request
    /// trace id (0 clears it). The serving tier sets this for
    /// head-sampled requests just before dispatching the job body, so
    /// begin/commit/abort instants and the commit-phase spans all join
    /// the request's cross-process span tree.
    pub fn set_trace(&mut self, trace: u64) {
        self.trace_id = trace;
    }

    /// The trace id transactions on this worker are tagged with.
    pub fn trace_id(&self) -> u64 {
        self.trace_id
    }

    /// Rings each of `batches` to its destination and waits, once, for
    /// the signalled WRs among them; hands each batch's completions to
    /// `land(position, completions)`.
    /// This is a *yield point*: the batches are handed to the reactor's
    /// deferred-flush layer, which rings one shared doorbell per
    /// destination over every routine that parks before it is time to
    /// ring (DESIGN.md §14) — so the MMIO charges amortize across a pool
    /// instead of landing on this routine alone — and the routine
    /// *parks* until the latest of its signalled completions' horizons
    /// while other routines' CPU segments run inside its verb wait. A
    /// park with no signalled WR (lock releases nobody waits for)
    /// resumes at the ring instant, having waited for nothing. On a
    /// reactor of one (any worker outside a pool) the doorbells ring at
    /// once and the future completes in a single poll, so `block_now`
    /// facades stay sound.
    async fn finish_batches(
        &mut self,
        batches: Vec<DstBatch>,
        mut land: impl FnMut(usize, Vec<WorkCompletion>),
    ) {
        debug_assert!(
            !drtm_htm::region_active(),
            "verb waits must never run inside an HTM region"
        );
        let (reactor, id) = (Arc::clone(&self.routine.reactor), self.routine.id);
        // (A lone destination — the common park — is remembered without
        // a heap allocation.)
        let first = batches[0].0;
        let rest: Vec<NodeId> = batches[1..].iter().map(|b| b.0).collect();
        let grant = reactor
            .flush_wait(id, self.node, batches, self.clock.now())
            .await;
        self.clock.advance_to(grant.resume_at);
        let wait = grant.wake.saturating_sub(grant.release);
        if wait > 0 {
            self.wait_accum_ns += wait;
            self.obs
                .note_verb_wait(wait, wait.saturating_sub(grant.idle_ns));
            self.obs
                .note_reactor(grant.depth, grant.resume_at.saturating_sub(grant.wake));
        }
        for (at, node) in std::iter::once(first).chain(rest).enumerate() {
            land(at, reactor.cqs[node].take_cookie(id as u64));
        }
    }

    /// The reactor's one verb wait: posts every batch of `batches` —
    /// one per destination machine, at least one — parks once, and
    /// wakes at the latest horizon. Each batch's completions, in post
    /// order, go to `land(batch index, completions)`. A batch longer
    /// than the send queue goes out `sq_depth` WRs per park, each
    /// round's completions landed before the next is posted, so a
    /// transaction of any size fits.
    async fn ring_all_into(
        &mut self,
        batches: impl IntoIterator<Item = Batch>,
        mut land: impl FnMut(usize, Vec<WorkCompletion>),
    ) {
        let depth = self.cluster.fabric.sq_depth();
        let cookie = self.routine.id as u64;
        let post = |b: Batch| {
            let wrs = b.wrs.into_iter().enumerate().map(|(i, wr)| PostedWr {
                cookie,
                signalled: i < b.signalled,
                wr,
            });
            (b.node, wrs.collect())
        };
        let mut unposted: Vec<DstBatch> = batches.into_iter().map(post).collect();
        // What fits the send queue — nearly everything — is one round.
        if unposted.iter().all(|b| b.1.len() <= depth) {
            return self.finish_batches(unposted, land).await;
        }
        loop {
            // This round: the next `depth` WRs of every batch not yet
            // drained, and which batch each belongs to.
            let mut round = Vec::with_capacity(unposted.len());
            let mut owners = Vec::with_capacity(unposted.len());
            for (i, (node, wrs)) in unposted.iter_mut().enumerate() {
                if !wrs.is_empty() {
                    let tail = wrs.split_off(wrs.len().min(depth));
                    round.push((*node, std::mem::replace(wrs, tail)));
                    owners.push(i);
                }
            }
            if round.is_empty() {
                return;
            }
            self.finish_batches(round, |at, done| land(owners[at], done))
                .await;
        }
    }

    /// [`Self::ring_all_into`], the completions collected per batch.
    pub(crate) async fn ring_all(
        &mut self,
        batches: impl IntoIterator<Item = Batch>,
    ) -> Vec<Vec<WorkCompletion>> {
        let mut wcs: Vec<Vec<WorkCompletion>> = Vec::new();
        let land = |i: usize, done| {
            wcs.resize_with(wcs.len().max(i + 1), Vec::new);
            extend_or_take(&mut wcs[i], done);
        };
        self.ring_all_into(batches, land).await;
        wcs
    }

    /// [`Self::ring_all_into`] for one destination: rings `wrs` to
    /// `node`, the first `signalled` of them waited for, the rest
    /// unsignalled.
    pub(crate) async fn ring(
        &mut self,
        node: NodeId,
        wrs: Vec<WorkRequest>,
        signalled: usize,
    ) -> Vec<WorkCompletion> {
        let batch = Batch {
            node,
            wrs,
            signalled,
        };
        let mut wcs = Vec::new();
        let land = |_, done| extend_or_take(&mut wcs, done);
        self.ring_all_into([batch], land).await;
        wcs
    }

    /// [`Self::ring_all`] for signalled READs addressed one by one:
    /// `reads` go out grouped by machine in one park (none when there
    /// is nothing to read), and their results come back in `reads`
    /// order.
    async fn ring_reads(
        &mut self,
        reads: Vec<(NodeId, WorkRequest)>,
    ) -> Vec<Result<WrResult, VerbError>> {
        if reads.is_empty() {
            return Vec::new();
        }
        let mut batches: Vec<Batch> = Vec::new();
        let mut batch_of = Vec::with_capacity(reads.len());
        for (node, wr) in reads {
            let at = batches.iter().position(|b| b.node == node);
            let at = at.unwrap_or_else(|| {
                batches.push(Batch {
                    node,
                    wrs: Vec::new(),
                    signalled: 0,
                });
                batches.len() - 1
            });
            batches[at].wrs.push(wr);
            batches[at].signalled += 1;
            batch_of.push(at);
        }
        let wcs = self.ring_all(batches).await;
        let mut wcs: Vec<_> = wcs.into_iter().map(Vec::into_iter).collect();
        let next = |at: usize| wcs[at].next().expect("one completion per READ").result;
        batch_of.into_iter().map(next).collect()
    }

    /// Yields through a verb wait a *blocking* wrapper already spun the
    /// clock across: `cpu_release` is the instant the CPU went idle —
    /// typically right after the doorbell charge — and the worker clock
    /// now sits at the completion horizon. On a reactor of one the
    /// yield resumes at the current clock, changing nothing.
    pub(crate) async fn yield_remote_wait(&mut self, cpu_release: u64) {
        debug_assert!(
            !drtm_htm::region_active(),
            "verb waits must never run inside an HTM region"
        );
        let wake = self.clock.now();
        let wait = wake.saturating_sub(cpu_release);
        if wait == 0 {
            return;
        }
        self.wait_accum_ns += wait;
        let (reactor, id) = (Arc::clone(&self.routine.reactor), self.routine.id);
        let grant = reactor.yield_wait(id, wake - wait, wake).await;
        self.clock.advance_to(grant.resume_at);
        self.obs
            .note_verb_wait(wait, wait.saturating_sub(grant.idle_ns));
        self.obs
            .note_reactor(grant.depth, grant.resume_at.saturating_sub(wake));
    }

    /// Parks the routine at a CPU spin-wait (lock backoff and retry
    /// loops) so another routine of the same pool — possibly the
    /// conflicting lock holder — gets to run; without this a spinner
    /// could starve the pool forever. The clock jumps over any CPU time
    /// other routines consume meanwhile (none on a reactor of one).
    pub(crate) async fn spin_yield(&mut self) {
        debug_assert!(
            !drtm_htm::region_active(),
            "yields must never run inside an HTM region"
        );
        let (reactor, id) = (Arc::clone(&self.routine.reactor), self.routine.id);
        let now = self.clock.now();
        let grant = reactor.spin_wait(id, now).await;
        self.clock.advance_to(grant.resume_at);
        self.obs
            .note_reactor(grant.depth, grant.resume_at.saturating_sub(now));
    }

    /// The location caches of this worker's thread (its reactor's),
    /// indexed by home node. The guard must not live across a yield
    /// point: a sibling routine would block on it.
    pub(crate) fn locations(&self) -> std::sync::MutexGuard<'_, Vec<LocationCache>> {
        self.routine.reactor.locations.lock()
    }

    /// Starts a read-write transaction.
    pub fn begin(&mut self) -> TxnCtx<'_> {
        self.begin_inner(false)
    }

    /// Starts a read-only transaction (§4.5: validated without HTM or
    /// locking).
    pub fn begin_ro(&mut self) -> TxnCtx<'_> {
        self.begin_inner(true)
    }

    fn begin_inner(&mut self, read_only: bool) -> TxnCtx<'_> {
        let cost = self.cluster.opts.cost.txn_overhead_ns;
        self.clock.advance(cost);
        let start_ns = self.clock.now();
        let start_epoch = self.cluster.config.epoch();
        if self.trace_id != 0 {
            self.trace_wall_ns = drtm_obs::trace::wall_ns();
        }
        drtm_obs::trace::event_id(
            EventKind::TxnBegin,
            if read_only { "ro" } else { "rw" },
            self.node as u64,
            self.trace_id,
            start_ns,
        );
        TxnCtx {
            start_ns,
            start_wait_ns: self.wait_accum_ns,
            start_epoch,
            read_only,
            l_rs: Vec::new(),
            l_ws: Vec::new(),
            l_rs_at: RepeatIndex::default(),
            l_ws_at: RepeatIndex::default(),
            r_rs: Vec::new(),
            r_ws: Vec::new(),
            mutations: Vec::new(),
            snapshots: 0,
            region: None,
            w: self,
        }
    }

    /// Runs `body` as a read-write transaction with automatic retry on
    /// abort. Returns the body's value once a commit succeeds.
    ///
    /// Synchronous facade over [`Self::run_async`] for callers outside a
    /// routine pool (on the worker's own reactor of one no wait
    /// suspends).
    pub fn run<R>(
        &mut self,
        mut body: impl FnMut(&mut TxnCtx<'_>) -> Result<R, TxnError>,
    ) -> Result<R, TxnError> {
        block_now(self.run_inner(false, &mut async |t: &mut TxnCtx<'_>| body(t)))
    }

    /// Runs `body` as a read-only transaction with automatic retry.
    ///
    /// Synchronous facade over [`Self::run_ro_async`]; see [`Self::run`].
    pub fn run_ro<R>(
        &mut self,
        mut body: impl FnMut(&mut TxnCtx<'_>) -> Result<R, TxnError>,
    ) -> Result<R, TxnError> {
        block_now(self.run_inner(true, &mut async |t: &mut TxnCtx<'_>| body(t)))
    }

    /// Runs `body` as a read-write transaction with automatic retry on
    /// abort, suspending at every verb wait so a routine reactor can
    /// interleave other routines. This is the primary entry point inside
    /// a [`crate::routine::RoutinePool`]; outside a pool it completes in
    /// one poll, like [`Self::run`].
    pub async fn run_async<R>(
        &mut self,
        mut body: impl AsyncFnMut(&mut TxnCtx<'_>) -> Result<R, TxnError>,
    ) -> Result<R, TxnError> {
        self.run_inner(false, &mut body).await
    }

    /// Read-only variant of [`Self::run_async`].
    pub async fn run_ro_async<R>(
        &mut self,
        mut body: impl AsyncFnMut(&mut TxnCtx<'_>) -> Result<R, TxnError>,
    ) -> Result<R, TxnError> {
        self.run_inner(true, &mut body).await
    }

    /// Runs `body` exactly once and attempts a single commit — no retry.
    /// Intended for tests that assert on specific abort outcomes.
    pub fn run_once_for_test<R>(
        &mut self,
        body: impl FnOnce(&mut TxnCtx<'_>) -> Result<R, TxnError>,
    ) -> Result<R, TxnError> {
        let mut ctx = self.begin();
        let value = body(&mut ctx)?;
        ctx.commit()?;
        Ok(value)
    }

    async fn run_inner<R>(
        &mut self,
        read_only: bool,
        body: &mut impl AsyncFnMut(&mut TxnCtx<'_>) -> Result<R, TxnError>,
    ) -> Result<R, TxnError> {
        /// Database-transaction retries before giving up.
        const TXN_RETRIES: usize = 1_000_000;
        let mut last = TxnError::Aborted(AbortReason::Validation);
        for attempt in 0..=TXN_RETRIES {
            let mut ctx = self.begin_inner(read_only);
            match body(&mut ctx).await {
                Ok(value) => match ctx.commit_async().await {
                    Ok(()) => {
                        // Ladder bookkeeping: plain field writes, so the
                        // policy-off path stays byte-identical.
                        self.tracker.note_commit();
                        self.force_pessimistic = false;
                        return Ok(value);
                    }
                    Err(e @ (TxnError::Aborted(_) | TxnError::Transport(_))) => last = e,
                    Err(e) => return Err(e),
                },
                Err(e @ TxnError::Aborted(reason)) => {
                    // Execution-phase aborts (commit-phase ones are
                    // accounted inside `commit`).
                    self.stats.aborted += 1;
                    self.obs.note_abort(reason.obs_index());
                    drtm_obs::trace::event_id(
                        EventKind::TxnAbort,
                        reason.label(),
                        self.node as u64,
                        self.trace_id,
                        self.clock.now(),
                    );
                    last = e;
                }
                Err(e @ TxnError::Transport(verb)) => {
                    // No engine read surfaces this today (a dropped
                    // execution READ is retried like a torn one and the
                    // location probes retransmit); the arm is for bodies
                    // that return a transport error of their own.
                    self.stats.aborted += 1;
                    self.obs.note_abort(TRANSPORT_OBS_INDEX);
                    drtm_obs::trace::event_id(
                        EventKind::TxnAbort,
                        verb.label(),
                        self.node as u64,
                        self.trace_id,
                        self.clock.now(),
                    );
                    last = e;
                }
                Err(TxnError::UserAbort) => {
                    self.stats.user_aborts += 1;
                    self.obs.note_user_abort();
                    drtm_obs::trace::event_id(
                        EventKind::TxnAbort,
                        "user",
                        self.node as u64,
                        self.trace_id,
                        self.clock.now(),
                    );
                    return Err(TxnError::UserAbort);
                }
                Err(e) => return Err(e),
            }
            // Conflict response. With contention management off this is
            // the paper's §4.3 randomized backoff; otherwise the
            // escalation ladder (DESIGN.md §15) picks a rung from the
            // conflicted key's consecutive-abort streak.
            let policy = self.cluster.opts.contention;
            match self.last_conflict.take() {
                Some(site) if policy != ContentionPolicy::Off => {
                    self.escalate(site, policy, attempt).await
                }
                _ => self.retry_backoff(attempt).await,
            }
        }
        self.force_pessimistic = false;
        Err(last)
    }

    /// Rung 1 — the paper's randomised virtual-time backoff, growing
    /// with the attempt. The host-level yield prevents retry storms
    /// from starving the conflicting transaction on an oversubscribed
    /// host; the spin park keeps this routine perpetually runnable and
    /// flush-exempt in the reactor's poll loop (§14), so every other
    /// runnable routine — possibly the conflicting lock holder — is
    /// polled through to its wake horizon before the retry runs.
    async fn retry_backoff(&mut self, attempt: usize) {
        let cap = 1u64 << (attempt.min(10) as u32 + 7);
        let ns = self.rng.below(cap);
        self.clock.advance(ns);
        std::thread::yield_now();
        self.spin_yield().await;
    }

    /// One escalation-ladder response (DESIGN.md §15) to an abort
    /// attributed to `site` under `policy` (never `Off` here): bump the
    /// key's streak, arm rung 2 (pessimistic C.1) past its threshold,
    /// and either park on the key's wait list (rung 3) or fall back to
    /// the rung-1 backoff.
    async fn escalate(&mut self, site: ConflictSite, policy: ContentionPolicy, attempt: usize) {
        let streak = self.tracker.note_abort(site.table, site.key);
        self.force_pessimistic = policy == ContentionPolicy::AlwaysPessimistic
            || streak >= contention::PESSIMISTIC_AFTER;
        if self.force_pessimistic {
            self.obs.note_contention_pessimistic();
            drtm_obs::trace::event(
                EventKind::Contention,
                "pessimistic",
                self.node as u64,
                self.clock.now(),
            );
        }
        if site.lockish && streak >= contention::PARK_AFTER {
            self.park_on_key(site.addr).await;
        } else {
            self.retry_backoff(attempt).await;
        }
    }

    /// Rung 3 — parks on `addr`'s wait list until the unlock path (C.6
    /// or the local rollback release) grants this routine, or the
    /// liveness bound expires (the holder may have died with the lock
    /// held). Each poll charges a fixed virtual-time cost and rides the
    /// reactor's spin-park protocol, so parked waiters stay
    /// flush-exempt (§14) and a convoy drains in wake-horizon order
    /// instead of by backoff lottery.
    async fn park_on_key(&mut self, addr: (NodeId, usize)) {
        let ticket = self.cluster.waiters.park(addr);
        let parked_at = self.clock.now();
        self.obs.note_key_park();
        drtm_obs::trace::event(EventKind::Contention, "park", self.node as u64, parked_at);
        let mut polls = 0u32;
        let granted = loop {
            if self.cluster.waiters.ready(addr, ticket) {
                break true;
            }
            polls += 1;
            if polls > contention::PARK_SPIN_CAP {
                break false;
            }
            self.clock.advance(contention::PARK_POLL_NS);
            std::thread::yield_now();
            self.spin_yield().await;
        };
        let span = self.clock.now().saturating_sub(parked_at);
        self.obs.note_key_unpark(span);
        drtm_obs::trace::event(
            EventKind::Contention,
            if granted { "grant" } else { "park-timeout" },
            self.node as u64,
            self.clock.now(),
        );
    }
}

impl<'w> TxnCtx<'w> {
    /// The machine this transaction executes on.
    pub fn node(&self) -> NodeId {
        self.w.node
    }

    fn charge(&mut self, ns: u64) {
        self.w.clock.advance(ns);
    }

    /// Reads a record on the local machine (Figure 5's `LOCAL_READ`).
    ///
    /// Synchronous facade over [`Self::read_local_async`] for callers
    /// outside a routine pool.
    pub fn read_local(&mut self, table: TableId, key: u64) -> Result<Vec<u8>, TxnError> {
        block_now(self.read_local_async(table, key))
    }

    /// Reads a record on the local machine (Figure 5's `LOCAL_READ`): a
    /// read group of one (`read_group`, DESIGN.md §4). Buffered
    /// own-writes win, and a record already read returns its snapshot.
    pub async fn read_local_async(
        &mut self,
        table: TableId,
        key: u64,
    ) -> Result<Vec<u8>, TxnError> {
        self.read_local_at(table, key, None).await
    }

    /// [`Self::read_local_async`] for a caller that may already hold the
    /// record's offset — an index scan's hit — and so spares the second
    /// index walk. The offset is the index's answer at scan time, as
    /// `get_loc`'s is at its own call.
    async fn read_local_at(
        &mut self,
        table: TableId,
        key: u64,
        known_off: Option<usize>,
    ) -> Result<Vec<u8>, TxnError> {
        let member = match self.local_source(table, key, known_off)? {
            LocalSource::Served(value) => return Ok(value.to_vec()),
            LocalSource::Fetch(member) => member,
        };
        match self.read_group(&[member]).await {
            Ok(mut read) => Ok(self.enter_local_read(read.pop().expect("one member, one read"))),
            Err(_) => Err(self.local_lock_busy(member)),
        }
    }

    /// What a local read of `(table, key)` starts from: the own write or
    /// earlier snapshot that serves it — found by key, with no index
    /// walk — or the record it must fetch.
    fn local_source(
        &self,
        table: TableId,
        key: u64,
        known_off: Option<usize>,
    ) -> Result<LocalSource<'_>, TxnError> {
        if let Some(i) = self.l_ws_at.find(&self.l_ws, (table, key)) {
            return Ok(LocalSource::Served(&self.l_ws[i].buf));
        }
        // Repeatable read: if already in the read set, return the
        // snapshot, even of a record unlinked since (commit aborts on it).
        if let Some(i) = self.l_rs_at.find(&self.l_rs, (table, key)) {
            return Ok(LocalSource::Served(&self.l_rs[i].value));
        }
        let rec_off = match known_off {
            Some(off) => off,
            None => {
                let store = &self.w.cluster.stores[self.w.node];
                store.get_loc(table, key).ok_or(TxnError::NotFound)? as usize
            }
        };
        Ok(LocalSource::Fetch(GroupMember {
            table,
            key,
            rec_off,
        }))
    }

    /// Reads `members` — local records in neither local set, no two
    /// alike — as one *read group*: one HTM region reads them all and
    /// checks each lock word, where Figure 5's `LOCAL_READ` opens one
    /// region per record (and a read-only transaction's group extends
    /// the region its earlier groups opened, `read_region`). Returns one
    /// read-set entry per member, in order, not yet entered in the read
    /// set; `Err(i)`: member `i`'s lock outlasted every retry.
    ///
    /// A group whose lines exceed the read capacity
    /// ([`drtm_htm::HtmConfig::max_read_lines`]) is split into
    /// consecutive regions that each fit, and a region that the next
    /// part would overflow is closed first, so no read relies on a
    /// capacity abort.
    async fn read_group(&mut self, members: &[GroupMember]) -> Result<Vec<LocalRead>, usize> {
        let cluster = Arc::clone(&self.w.cluster);
        let store = &cluster.stores[self.w.node];
        let lines_of = |m: &GroupMember| store.table(m.table).layout.lines();
        let mut reads = Vec::new();
        let mut rest = members;
        while !rest.is_empty() {
            // The longest prefix whose lines fit one region (a record
            // always fits: its lines are far below any capacity).
            let mut lines = 0;
            let fits = |m: &&GroupMember| {
                lines += lines_of(m);
                lines <= cluster.opts.htm.max_read_lines
            };
            let n = rest.iter().take_while(fits).count().max(1);
            let (region, tail) = rest.split_at(n);
            let done = reads.len();
            let read = self.read_region(&cluster, region).await;
            extend_or_take(&mut reads, read.map_err(|i| done + i)?);
            rest = tail;
        }
        Ok(reads)
    }

    /// One region of a read group, attempted until it commits.
    ///
    /// A read-only transaction's group extends the region its earlier
    /// groups opened, while the two fit the read capacity: the attempt
    /// resumes that region's read set, so its commit proves every line
    /// the region read unchanged, and the region stays one snapshot
    /// however many groups it spans. The region stays open after the
    /// commit for the next group. A read-write transaction's group
    /// opens a region of its own and closes it: C.3 validates its reads.
    ///
    /// An attempt that finds a member locked by a committer is dropped
    /// and backs off as a per-record read did — a randomised wait, then
    /// a spin park in the reactor's poll loop (§14), which stays runnable
    /// and flush-exempt so the wait cannot wedge a deferred doorbell
    /// flush; a conflicting attempt retries at once. Either closes the
    /// region it extended, and the retry opens a new one. A region is
    /// opened and closed without suspending (§11). `Err(i)`: member `i`
    /// was locked at the last of the attempts.
    ///
    /// Charges, per attempt, `record_logic_ns` per member, plus
    /// `htm_begin_ns` when it opens a region; on its commit,
    /// `mem_access_ns` per line read, plus `htm_commit_ns` when it opened
    /// the region: the one `XBEGIN`/`XEND` pair of a region is charged to
    /// the group that opens it, and extending it costs neither.
    async fn read_region(
        &mut self,
        cluster: &DrtmCluster,
        members: &[GroupMember],
    ) -> Result<Vec<LocalRead>, usize> {
        /// Attempts while a member's lock stays held.
        const LOCAL_READ_RETRIES: usize = 10_000;
        let store = &cluster.stores[self.w.node];
        let cost = &cluster.opts.cost;
        let lines: usize = (members.iter())
            .map(|m| store.table(m.table).layout.lines())
            .sum();
        let max_lines = cluster.opts.htm.max_read_lines;
        if (self.region.as_ref()).is_some_and(|open| open.lines() + lines > max_lines) {
            self.region = None;
        }
        let mut busy = 0;
        for _ in 0..LOCAL_READ_RETRIES {
            // The attempt takes the open region: a failed one closes it.
            let open = self.region.take();
            let opens = u64::from(open.is_none());
            self.charge(opens * cost.htm_begin_ns + members.len() as u64 * cost.record_logic_ns);
            match attempt_region(store, &cluster.opts.htm, open, members) {
                RegionRead::Committed(read, set) => {
                    self.charge(opens * cost.htm_commit_ns + lines as u64 * cost.mem_access_ns);
                    self.snapshots += opens as u32;
                    if self.read_only {
                        self.region = Some(set);
                    }
                    return Ok(read);
                }
                RegionRead::Locked(i) => {
                    // The real yield lets the (possibly descheduled) lock
                    // holder run on an oversubscribed host.
                    busy = i;
                    let ns = self.w.rng.below(2_000);
                    self.charge(ns);
                    std::thread::yield_now();
                    self.w.spin_yield().await;
                }
                RegionRead::Conflict => {}
            }
        }
        Err(busy)
    }

    /// Closes the open HTM region, if any, before a verb is posted: a
    /// real RTM region cannot span a doorbell's MMIO write, nor the
    /// routine switch of the wait. (A read group's back-off closes it by
    /// failing its attempt.)
    fn close_region(&mut self) {
        self.region = None;
    }

    /// Enters a read group's entry in the local read set, returning its
    /// value.
    fn enter_local_read(&mut self, read: LocalRead) -> Vec<u8> {
        let value = read.value.clone();
        self.l_rs.push(read);
        self.l_rs_at.pushed(&self.l_rs);
        value
    }

    /// The abort of a read whose record `member` stayed locked, the
    /// conflict attributed to that record's lock occupancy so the
    /// escalation ladder (DESIGN.md §15) can target the key.
    fn local_lock_busy(&mut self, member: GroupMember) -> TxnError {
        self.w.last_conflict = Some(ConflictSite {
            table: member.table,
            key: member.key,
            addr: (self.w.node, member.rec_off),
            lockish: true,
        });
        TxnError::Aborted(AbortReason::LocalLockBusy)
    }

    /// Buffers a write to a local record. The record must exist; reading
    /// it first is typical but not required (blind writes are allowed).
    ///
    /// A record the transaction read is written at the offset the read
    /// found, with no second index walk and no second `record_logic_ns`:
    /// C.3 re-checks that read's incarnation in the HTM region that then
    /// writes there, so a record freed since aborts and is never written.
    pub fn write_local(
        &mut self,
        table: TableId,
        key: u64,
        value: Vec<u8>,
    ) -> Result<(), TxnError> {
        assert!(!self.read_only, "read-only transactions cannot write");
        let cluster = Arc::clone(&self.w.cluster);
        let store = &cluster.stores[self.w.node];
        assert_eq!(
            value.len(),
            store.table(table).spec.value_len,
            "value size mismatch"
        );
        if let Some(i) = self.l_ws_at.find(&self.l_ws, (table, key)) {
            self.l_ws[i].buf = value;
            return Ok(());
        }
        let rec_off = match self.l_rs_at.find(&self.l_rs, (table, key)) {
            Some(i) => self.l_rs[i].rec_off,
            None => {
                let off = store.get_loc(table, key).ok_or(TxnError::NotFound)?;
                self.charge(cluster.opts.cost.record_logic_ns);
                off as usize
            }
        };
        self.l_ws.push(LocalWrite {
            table,
            key,
            rec_off,
            buf: value,
        });
        self.l_ws_at.pushed(&self.l_ws);
        Ok(())
    }

    /// Reads a record on machine `node` with a lock-free consistent
    /// one-sided RDMA READ (Figure 6's `REMOTE_READ`).
    ///
    /// Synchronous facade over [`Self::read_remote_async`] for callers
    /// outside a routine pool.
    pub fn read_remote(
        &mut self,
        node: NodeId,
        table: TableId,
        key: u64,
    ) -> Result<Vec<u8>, TxnError> {
        block_now(self.read_remote_async(node, table, key))
    }

    /// Reads a record on machine `node` with a lock-free consistent
    /// one-sided RDMA READ (Figure 6's `REMOTE_READ`). The NIC wait is a
    /// reactor yield point.
    ///
    /// Read-write transactions deliberately do *not* check the lock word
    /// (a committing transaction read-locks records; rejecting them would
    /// be a spurious failure — validation at commit decides). Read-only
    /// transactions reject locked records to avoid uncommitted reads
    /// (§4.5).
    pub async fn read_remote_async(
        &mut self,
        node: NodeId,
        table: TableId,
        key: u64,
    ) -> Result<Vec<u8>, TxnError> {
        self.read_remote_with(node, table, key, None).await
    }

    /// [`Self::read_remote_async`], its first location lookup and first
    /// READ answered by `fetched` where [`Self::read_many_async`] ran
    /// them ahead in its shared parks. Everything else — what is checked
    /// in which order, what is charged, what enters the read set and the
    /// location cache, every retry — is the one body both callers share.
    async fn read_remote_with(
        &mut self,
        node: NodeId,
        table: TableId,
        key: u64,
        mut fetched: Option<Prefetch>,
    ) -> Result<Vec<u8>, TxnError> {
        if let Some(e) = self
            .r_ws
            .iter()
            .find(|e| e.node == node && e.table == table && e.key == key)
        {
            return Ok(e.buf.clone());
        }
        let cluster = Arc::clone(&self.w.cluster);
        // Repeatable read: if already in the read set, return the snapshot.
        if let Some(e) = self
            .r_rs
            .iter()
            .find(|e| e.node == node && e.table == table && e.key == key)
        {
            return Ok(e.value.clone());
        }
        let layout = cluster.stores[self.w.node].table(table).layout;
        // A stale location cache entry restarts the whole lookup (at most
        // once: the invalidation below guarantees the next iteration sees
        // no cached incarnation). A loop rather than recursion keeps the
        // future un-boxed.
        'lookup: loop {
            // Only the first lookup can have been run ahead.
            let (loc, mut ahead) = match fetched.take() {
                Some(f) => (Some(f.loc), f.read),
                None => (None, None),
            };
            let rec_off = match loc {
                Some(Located::At(off)) => off,
                Some(Located::Absent) => return Err(TxnError::NotFound),
                Some(Located::Past(probe)) => self.probe_remote(node, probe).await?,
                None => self.locate_remote(node, table, key).await?,
            };
            self.w.clock.advance(cluster.opts.cost.record_logic_ns);
            let mut read = None;
            for _ in 0..REMOTE_READ_RETRIES {
                // The READ rides the reactor's shared doorbell flush, so
                // its MMIO charge amortizes over every routine parked
                // this round.
                let result = match ahead.take() {
                    Some(result) => result,
                    None => {
                        let wr = record_read(rec_off, layout);
                        self.close_region();
                        let mut wcs = self.w.ring(node, vec![wr], 1).await;
                        wcs.pop().expect("one READ, one completion").result
                    }
                };
                let rr_opt = match &result {
                    Ok(WrResult::Read { data, .. }) => parse_consistent(data, layout),
                    // An injected drop surfaces as an error; retry it
                    // like a torn read — one honest retransmission
                    // round through the loop.
                    _ => None,
                };
                let Some(rr) = rr_opt else {
                    continue;
                };
                if self.read_only && rr.lock != LOCK_FREE {
                    // §4.5: a locked record may carry an uncommitted (odd)
                    // value; retry until the committer finishes.
                    continue;
                }
                read = Some(rr);
                break;
            }
            let Some(rr) = read else {
                return Err(TxnError::Aborted(AbortReason::RemoteInconsistent));
            };
            if cluster.opts.use_location_cache {
                let locations = &mut self.w.locations()[node];
                match locations.get(table, key) {
                    // Stale location cache: the block was freed/reused.
                    // Invalidate and retry the whole lookup once.
                    Some((_, cached_inc)) if cached_inc != rr.incarnation => {
                        locations.invalidate(table, key);
                        continue 'lookup;
                    }
                    Some(_) => {}
                    None => locations.put(table, key, rec_off as u64, rr.incarnation),
                }
            }
            let value = rr.value.clone();
            self.snapshots += 1;
            self.r_rs.push(RemoteRead {
                node,
                table,
                key,
                rec_off,
                seq: rr.seq,
                incarnation: rr.incarnation,
                value: rr.value,
            });
            return Ok(value);
        }
    }

    /// Buffers a write to a record on machine `node`.
    ///
    /// Synchronous facade over [`Self::write_remote_async`].
    pub fn write_remote(
        &mut self,
        node: NodeId,
        table: TableId,
        key: u64,
        value: Vec<u8>,
    ) -> Result<(), TxnError> {
        block_now(self.write_remote_async(node, table, key, value))
    }

    /// Buffers a write to a record on machine `node`. Locating the record
    /// may issue a lookup verb, which is a reactor yield point.
    ///
    /// A record the transaction read is written at the offset the read
    /// found: no lookup, no verb and no second `record_logic_ns`. C.2
    /// validates that read's incarnation before C.5 writes there.
    pub async fn write_remote_async(
        &mut self,
        node: NodeId,
        table: TableId,
        key: u64,
        value: Vec<u8>,
    ) -> Result<(), TxnError> {
        assert!(!self.read_only, "read-only transactions cannot write");
        let cluster = Arc::clone(&self.w.cluster);
        assert_eq!(
            value.len(),
            cluster.stores[self.w.node].table(table).spec.value_len,
            "value size mismatch"
        );
        let same = |n: NodeId, t: TableId, k: u64| (n, t, k) == (node, table, key);
        if let Some(e) = self.r_ws.iter_mut().find(|e| same(e.node, e.table, e.key)) {
            e.buf = value;
            return Ok(());
        }
        let read = self.r_rs.iter().find(|e| same(e.node, e.table, e.key));
        let rec_off = match read {
            Some(e) => e.rec_off,
            None => {
                let off = self.locate_remote(node, table, key).await?;
                self.charge(cluster.opts.cost.record_logic_ns);
                off
            }
        };
        self.r_ws.push(RemoteWrite {
            node,
            table,
            key,
            rec_off,
            buf: value,
        });
        Ok(())
    }

    /// Reads a record homed on `shard`, routing locally or over RDMA.
    ///
    /// Synchronous facade over [`Self::read_async`].
    pub fn read(&mut self, shard: usize, table: TableId, key: u64) -> Result<Vec<u8>, TxnError> {
        block_now(self.read_async(shard, table, key))
    }

    /// Reads a record homed on `shard`, routing locally or over RDMA.
    /// Remote routes suspend at the NIC wait under a routine reactor.
    pub async fn read_async(
        &mut self,
        shard: usize,
        table: TableId,
        key: u64,
    ) -> Result<Vec<u8>, TxnError> {
        let home = self.w.cluster.home_of(shard);
        if home == self.w.node {
            self.read_local_async(table, key).await
        } else {
            self.read_remote_async(home, table, key).await
        }
    }

    /// Writes a record homed on `shard`, routing locally or over RDMA.
    ///
    /// Synchronous facade over [`Self::write_async`].
    pub fn write(
        &mut self,
        shard: usize,
        table: TableId,
        key: u64,
        value: Vec<u8>,
    ) -> Result<(), TxnError> {
        block_now(self.write_async(shard, table, key, value))
    }

    /// Writes a record homed on `shard`, routing locally or over RDMA.
    pub async fn write_async(
        &mut self,
        shard: usize,
        table: TableId,
        key: u64,
        value: Vec<u8>,
    ) -> Result<(), TxnError> {
        let home = self.w.cluster.home_of(shard);
        if home == self.w.node {
            self.write_local(table, key, value)
        } else {
            self.write_remote_async(home, table, key, value).await
        }
    }

    /// Buffers an insert, applied if the transaction commits. Remote
    /// inserts are shipped to the host with SEND/RECV (§4.3).
    pub fn insert(&mut self, shard: usize, table: TableId, key: u64, value: Vec<u8>) {
        assert!(!self.read_only, "read-only transactions cannot insert");
        let node = self.w.cluster.home_of(shard);
        self.mutations.push(PendingMutation {
            node,
            table,
            key,
            value: Some(value),
        });
    }

    /// Buffers a delete, applied if the transaction commits.
    pub fn delete(&mut self, shard: usize, table: TableId, key: u64) {
        assert!(!self.read_only, "read-only transactions cannot delete");
        let node = self.w.cluster.home_of(shard);
        self.mutations.push(PendingMutation {
            node,
            table,
            key,
            value: None,
        });
    }

    /// Ordered-table range scan on the local machine. Returns the values
    /// of up to `limit` records with keys in `[lo, hi]`, reading each
    /// through the transactional local-read path.
    ///
    /// Synchronous facade over [`Self::scan_local_async`].
    pub fn scan_local(
        &mut self,
        table: TableId,
        lo: u64,
        hi: u64,
        limit: usize,
    ) -> Result<Vec<(u64, Vec<u8>)>, TxnError> {
        block_now(self.scan_local_async(table, lo, hi, limit))
    }

    /// Reactor-aware variant of [`Self::scan_local`]: the hits are read
    /// as one read group (`read_group`, DESIGN.md §4), which can yield
    /// at its HTM-retry backoff. Own writes and records read before are
    /// served as a read of each would serve them, and the group's
    /// entries enter the read set in scan order.
    pub async fn scan_local_async(
        &mut self,
        table: TableId,
        lo: u64,
        hi: u64,
        limit: usize,
    ) -> Result<Vec<(u64, Vec<u8>)>, TxnError> {
        let cluster = Arc::clone(&self.w.cluster);
        let hits = cluster.stores[self.w.node].scan(table, lo, hi, limit);
        let mut served = Vec::with_capacity(hits.len());
        let mut members = Vec::new();
        for &(key, off) in &hits {
            served.push(match self.local_source(table, key, Some(off as usize))? {
                LocalSource::Served(value) => Some(value.to_vec()),
                LocalSource::Fetch(member) => {
                    members.push(member);
                    None
                }
            });
        }
        let mut reads = match self.read_group(&members).await {
            Ok(reads) => reads.into_iter(),
            Err(i) => return Err(self.local_lock_busy(members[i])),
        };
        let mut out = Vec::with_capacity(hits.len());
        for ((key, _), value) in hits.into_iter().zip(served) {
            let value = match value {
                Some(value) => value,
                None => self.enter_local_read(reads.next().expect("one read per member")),
            };
            out.push((key, value));
        }
        Ok(out)
    }

    /// The largest key in `[lo, hi]` of a local ordered table, with its
    /// value read transactionally.
    ///
    /// Synchronous facade over [`Self::last_local_async`].
    pub fn last_local(
        &mut self,
        table: TableId,
        lo: u64,
        hi: u64,
    ) -> Result<Option<(u64, Vec<u8>)>, TxnError> {
        block_now(self.last_local_async(table, lo, hi))
    }

    /// Reactor-aware variant of [`Self::last_local`].
    pub async fn last_local_async(
        &mut self,
        table: TableId,
        lo: u64,
        hi: u64,
    ) -> Result<Option<(u64, Vec<u8>)>, TxnError> {
        let cluster = Arc::clone(&self.w.cluster);
        match cluster.stores[self.w.node].last_in_range(table, lo, hi) {
            Some((key, off)) => {
                let value = self.read_local_at(table, key, Some(off as usize)).await?;
                Ok(Some((key, value)))
            }
            None => Ok(None),
        }
    }

    /// Resolves a remote record offset via the location cache or one-sided
    /// hash probes of the peer's directory.
    async fn locate_remote(
        &mut self,
        node: NodeId,
        table: TableId,
        key: u64,
    ) -> Result<usize, TxnError> {
        if let Some(loc) = self.cached_location(node, table, key) {
            return Ok(loc);
        }
        let probe = self.w.cluster.stores[self.w.node].remote_probe(table, key);
        self.probe_remote(node, probe).await
    }

    /// Drives `probe` against `node`'s directory to its answer, each
    /// line a posted READ — a reactor yield point like every other
    /// verb. A dropped probe is posted again, under the same budget as
    /// a torn record READ.
    async fn probe_remote(
        &mut self,
        node: NodeId,
        mut probe: RemoteProbe,
    ) -> Result<usize, TxnError> {
        for _ in 0..REMOTE_READ_RETRIES {
            self.close_region();
            let mut wcs = self.w.ring(node, vec![probe_read(&probe)], 1).await;
            let line = wcs.pop().expect("one READ, one completion").result;
            if let Some(found) = feed_probe(&mut probe, &line) {
                return found.ok_or(TxnError::NotFound);
            }
        }
        Err(TxnError::Aborted(AbortReason::RemoteInconsistent))
    }

    /// The location cache's answer for a remote key, if it is in use
    /// and has one (a counted lookup).
    fn cached_location(&self, node: NodeId, table: TableId, key: u64) -> Option<usize> {
        if !self.w.cluster.opts.use_location_cache {
            return None;
        }
        let hit = self.w.locations()[node].get(table, key);
        hit.map(|(loc, _)| loc as usize)
    }

    /// Reads the records `keys` name — `(shard, table, key)` each — and
    /// returns their values in order.
    ///
    /// Synchronous facade over [`Self::read_many_async`].
    pub fn read_many(&mut self, keys: &[(usize, TableId, u64)]) -> Result<Vec<Vec<u8>>, TxnError> {
        block_now(self.read_many_async(keys))
    }

    /// Reads the records `keys` name — `(shard, table, key)` each — and
    /// returns their values in order: *exactly* the sequential
    /// [`Self::read_async`] calls (same values, same read-set, same
    /// location-cache effects, same error at the same key), except that
    /// the verbs those reads would have waited for one after another are
    /// posted together and the local records are read in one HTM region
    /// instead of one each. Every local key that must fetch its record
    /// joins one read group (`read_group`, DESIGN.md §4), read first, so
    /// that it extends a read-only transaction's open region before any
    /// verb closes it; then every remote key that needs a verb has the
    /// first line of its location probe posted in one park — one shared
    /// doorbell per machine — and its record READ in the next. Then each
    /// key takes its turn: a local key's group entry enters the read set
    /// there, and a remote key goes through the sequential read, which
    /// finds its first lookup and first READ already answered. Whatever
    /// the batch could not settle is taken up per key by that same loop:
    /// a probe chain running past its first line continues from its
    /// second, a torn or dropped READ or a record locked under a
    /// read-only reader is read again, a stale cached location is
    /// invalidated and looked up afresh. Charges differ from the sequential reads' only by the
    /// `htm_begin_ns + htm_commit_ns` pairs the group saves: in a
    /// read-write transaction, whose reads each open a region, one per
    /// local record beyond the group's regions; in a read-only one,
    /// whose reads extend one region, one per region the sequential
    /// reads reopen after a remote key's verbs closed it.
    ///
    /// This batches reads a body is about to issue anyway; it is not the
    /// a-priori read/write set DrTM needed: a key that depends on a
    /// value read earlier simply goes in a later call (or to `read`).
    pub async fn read_many_async(
        &mut self,
        keys: &[(usize, TableId, u64)],
    ) -> Result<Vec<Vec<u8>>, TxnError> {
        let mut grouped = self.read_local_keys(keys).await;
        let mut fetched = self.fetch_ahead(keys).await;
        let mut values = Vec::with_capacity(keys.len());
        for (i, &(shard, table, key)) in keys.iter().enumerate() {
            let ahead = fetched.get_mut(i).and_then(Option::take);
            // A key read ahead takes its turn on the machine its verbs
            // went to: a recovery may have re-homed the shard during the
            // parks, and an offset means nothing on another machine.
            // (C.1 fences a machine that has left, as for any read.)
            let home = match &ahead {
                Some(a) => a.node,
                None => self.w.cluster.home_of(shard),
            };
            if home != self.w.node {
                values.push(self.read_remote_with(home, table, key, ahead).await?);
                continue;
            }
            values.push(match grouped.get_mut(i).and_then(Option::take) {
                Some(Ok(read)) => self.enter_local_read(read),
                Some(Err(member)) => return Err(self.local_lock_busy(member)),
                None => self.read_local_async(table, key).await?,
            });
        }
        Ok(values)
    }

    /// The read group of [`Self::read_many_async`]: every local key that
    /// must fetch its record, up to the first one missing from its table
    /// (whose turn ends the reads), read as one group. Per key: its
    /// entry; `Err` with the member whose lock outlasted every retry; or
    /// `None` where the sequential read runs at its turn — a remote key,
    /// an own write, an earlier read, a repeat within `keys`, a key past
    /// the missing one, a member of a group that failed. Empty when no
    /// key joined.
    async fn read_local_keys(
        &mut self,
        keys: &[(usize, TableId, u64)],
    ) -> Vec<Option<Result<LocalRead, GroupMember>>> {
        let me = self.w.node;
        let mut members: Vec<GroupMember> = Vec::new();
        let mut member_of = Vec::new();
        let mut repeats = RepeatIndex::default();
        for (i, &(shard, table, key)) in keys.iter().enumerate() {
            if self.w.cluster.home_of(shard) != me {
                continue;
            }
            let member = match self.local_source(table, key, None) {
                Ok(LocalSource::Fetch(member)) => member,
                Ok(LocalSource::Served(_)) => continue,
                Err(_) => break,
            };
            if repeats.find(&members, member.at()).is_none() {
                members.push(member);
                repeats.pushed(&members);
                member_of.push(i);
            }
        }
        if members.is_empty() {
            return Vec::new();
        }
        let mut out: Vec<_> = keys.iter().map(|_| None).collect();
        match self.read_group(&members).await {
            Ok(reads) => {
                for (i, read) in member_of.into_iter().zip(reads) {
                    out[i] = Some(Ok(read));
                }
            }
            Err(at) => out[member_of[at]] = Some(Err(members[at])),
        }
        out
    }

    /// The two shared parks of [`Self::read_many_async`]: what they
    /// learned about each key, `None` where the sequential read needs no
    /// verb at its first step (local, own-written, already read, a
    /// repeat within `keys`) or where the batch settled
    /// nothing — and empty when that is every key. Reads and writes
    /// nothing but the fabric, the clock and the location cache's lookup
    /// count.
    async fn fetch_ahead(&mut self, keys: &[(usize, TableId, u64)]) -> Vec<Option<Prefetch>> {
        let cluster = Arc::clone(&self.w.cluster);
        let me = self.w.node;
        // Each key whose read starts with a verb — its index, home and
        // table — and what is known of where it lives: `None` nothing
        // yet, `Some(None)` that a probe proved it absent.
        let mut wanted: Vec<(usize, NodeId, TableId, Option<Option<usize>>)> = Vec::new();
        for (i, &(shard, table, key)) in keys.iter().enumerate() {
            let node = cluster.home_of(shard);
            let same = |n: NodeId, t: TableId, k: u64| (n, t, k) == (node, table, key);
            let settled = node == me
                || self.r_ws.iter().any(|e| same(e.node, e.table, e.key))
                || self.r_rs.iter().any(|e| same(e.node, e.table, e.key))
                || keys[..i]
                    .iter()
                    .any(|&(s, t, k)| same(cluster.home_of(s), t, k));
            if !settled {
                let cached = self.cached_location(node, table, key);
                wanted.push((i, node, table, cached.map(Some)));
            }
        }
        if wanted.is_empty() {
            return Vec::new();
        }
        // Every key wanted posts a probe line or a record READ.
        self.close_region();
        let mut out: Vec<Option<Prefetch>> = keys.iter().map(|_| None).collect();
        // Park one: the first probe line of every key not yet located.
        let store = &cluster.stores[me];
        let unlocated = wanted.iter().enumerate().filter(|(_, w)| w.3.is_none());
        let probes: Vec<(usize, RemoteProbe)> = unlocated
            .map(|(at, &(i, _, table, _))| (at, store.remote_probe(table, keys[i].2)))
            .collect();
        let lines = probes.iter().map(|(at, p)| (wanted[*at].1, probe_read(p)));
        let lines = self.w.ring_reads(lines.collect()).await;
        for ((at, mut probe), line) in probes.into_iter().zip(&lines) {
            match feed_probe(&mut probe, line) {
                Some(found) => wanted[at].3 = Some(found),
                // The chain runs past its first line (or the probe was
                // dropped): the key's own turn follows it from here.
                None => {
                    let (i, node, ..) = wanted[at];
                    let loc = Located::Past(probe);
                    out[i] = Some(Prefetch::at(node, loc));
                }
            }
        }
        // Park two: the record READ of every key now located.
        let mut reads = Vec::new();
        let mut read_for = Vec::new();
        for &(i, node, table, loc) in &wanted {
            let Some(loc) = loc else { continue };
            // An absent key ends the reads at its turn: nothing after
            // it is worth a READ.
            let Some(rec_off) = loc else {
                out[i] = Some(Prefetch::at(node, Located::Absent));
                break;
            };
            out[i] = Some(Prefetch::at(node, Located::At(rec_off)));
            reads.push((node, record_read(rec_off, store.table(table).layout)));
            read_for.push(i);
        }
        let records = self.w.ring_reads(reads).await;
        for (i, record) in read_for.into_iter().zip(records) {
            let ahead = out[i].as_mut().expect("a posted READ has its location");
            ahead.read = Some(record);
        }
        out
    }
}

/// Appends `more` to `v` — by taking it whole when `v` is still empty,
/// as after every park but an oversize batch's later rounds, and for
/// every read group that fits one region.
fn extend_or_take<T>(v: &mut Vec<T>, more: Vec<T>) {
    if v.is_empty() {
        *v = more;
    } else {
        v.extend(more);
    }
}

/// Retries for a consistent remote read (version matching), and for the
/// probe lines of one remote lookup.
const REMOTE_READ_RETRIES: usize = 64;

/// A local record a read group fetches.
#[derive(Clone, Copy)]
struct GroupMember {
    table: TableId,
    /// The key its read-set entry is found by, and the one the ladder
    /// blames should the record stay locked.
    key: u64,
    rec_off: usize,
}

/// Where a local read starts from.
enum LocalSource<'a> {
    /// An own write, or the snapshot an earlier read took.
    Served(&'a [u8]),
    /// Nothing yet: this record must be read.
    Fetch(GroupMember),
}

/// How one attempt at one of a read group's HTM regions ended.
enum RegionRead {
    /// Committed: every member's entry, in order, and the region's read
    /// set, for a later group to extend.
    Committed(Vec<LocalRead>, ReadSet),
    /// Member `i`'s lock word was held; the region was dropped.
    Locked(usize),
    /// A concurrent commit conflicted with the region.
    Conflict,
}

/// One attempt at one HTM region reading `members` from `store`, each
/// record's lock word checked inside the region — a new region, or the
/// `open` one extended. Never suspends: the region is committed or
/// dropped when this returns.
fn attempt_region(
    store: &Store,
    htm: &HtmConfig,
    open: Option<ReadSet>,
    members: &[GroupMember],
) -> RegionRead {
    let mut txn = match open {
        Some(set) => HtmTxn::resume(&store.region, htm, set),
        None => HtmTxn::begin(&store.region, htm),
    };
    let mut reads = Vec::with_capacity(members.len());
    for (i, m) in members.iter().enumerate() {
        let rec = store.record(m.table, m.rec_off);
        let mut value = vec![0u8; rec.layout.value_len];
        match rec.read_htm(&mut txn, &mut value) {
            // Locked by a committer: the region aborts by hand.
            Ok((lock, ..)) if lock != LOCK_FREE => return RegionRead::Locked(i),
            Ok((_, incarnation, seq)) => reads.push(LocalRead {
                table: m.table,
                key: m.key,
                rec_off: m.rec_off,
                seq,
                incarnation,
                value,
            }),
            Err(_) => return RegionRead::Conflict,
        }
    }
    match txn.commit_reads() {
        Ok(set) => RegionRead::Committed(reads, set),
        Err(_) => RegionRead::Conflict,
    }
}

/// What [`TxnCtx::read_many_async`]'s shared parks learned about one
/// remote key before its turn.
struct Prefetch {
    /// The machine the verbs went to: the key's home when it was read
    /// ahead.
    node: NodeId,
    loc: Located,
    /// What the record READ posted at `loc` completed with, if one was.
    read: Option<Result<WrResult, VerbError>>,
}

impl Prefetch {
    fn at(node: NodeId, loc: Located) -> Self {
        let read = None;
        Self { node, loc, read }
    }
}

/// What is known of where a remote record lives.
enum Located {
    /// At this offset (the location cache's or a probe's answer).
    At(usize),
    /// Nowhere: the probe proved the key absent.
    Absent,
    /// Not yet: the probe's first line was read and its chain runs on
    /// (or the READ of it failed); the lookup continues from here.
    Past(RemoteProbe),
}

/// The READ of the whole record at `rec_off`.
fn record_read(rec_off: usize, layout: RecordLayout) -> WorkRequest {
    WorkRequest::Read {
        raddr: rec_off,
        len: layout.size(),
    }
}

/// The READ of the line `probe` wants next.
fn probe_read(probe: &RemoteProbe) -> WorkRequest {
    WorkRequest::Read {
        raddr: probe.line(),
        len: PROBE_LINE_BYTES,
    }
}

/// Feeds a completed [`probe_read`] to its probe: the lookup's answer,
/// or `None` when it needs another line (a dropped READ included — the
/// same line again).
fn feed_probe(
    probe: &mut RemoteProbe,
    line: &Result<WrResult, VerbError>,
) -> Option<Option<usize>> {
    match line {
        Ok(WrResult::Read { data, .. }) => probe.feed(data).map(|f| f.map(|off| off as usize)),
        _ => None,
    }
}
