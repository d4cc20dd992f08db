//! The six-step commit phase (Figure 7), read-only commit (§4.5), the
//! fallback handler (§6.1), and optimistic replication (§5.1).
//!
//! Every commit is one walk over [`STAGES`] in order; the fallback
//! handler and the read-only commit are the same walk in another
//! `Mode`. A read-only walk skips C.1, runs only C.2's row — the whole
//! read set's validation, skipped when one atomic read built it — and
//! stops at the fence. The fence, before anything irreversible (C.4,
//! or a read-only `Ok`), is the walk's one configuration check: a
//! machine that left the configuration stops as
//! [`TxnError::Crashed`], and a transaction that spans a
//! reconfiguration aborts. R.1's append re-checks the epoch under the
//! log store's recovery gate.
//!
//! * **C.1** lock every remote record in the read *and* write sets with
//!   one-sided RDMA CAS: all machines in one park (no-wait locking
//!   cannot deadlock), or — in the ladder's wait mode, which locks the
//!   local records too — one lock after another in global
//!   `(node, offset)` order. Locking reads
//!   too is what makes the early remote validation equivalent to
//!   validation *inside* the HTM region (§4.6). A lock held by a machine
//!   that has left the configuration is released passively (§5.2).
//! * **C.2** validate the remote read set (sequence number + incarnation)
//!   with one-sided header READs. They ride C.1's doorbell, each behind
//!   its record's CAS, so C.1 and C.2 cost one round trip together;
//!   under the `IBV_ATOMIC_GLOB` ablation they are fused into the CAS.
//! * **C.3 + C.4** one HTM region validates the local read set, checks
//!   that no remote committer locked a local write-set record, and
//!   applies the buffered local writes. With replication on, the new
//!   sequence numbers are *odd*: visible but uncommittable.
//! * **R.1** append redo records to the non-volatile logs of every
//!   written record's backups (outside HTM — the race this would
//!   otherwise open is closed by the odd/even protocol).
//! * **R.2** "makeup": flip local primaries to *even* (committable).
//! * **C.5** write remote primaries (even sequence numbers) with RDMA
//!   WRITEs, every written machine's in one park.
//! * **C.6** unlock everything with RDMA CAS. With one written machine
//!   its unlocks ride C.5's doorbell, unsignalled, behind the WRITEs
//!   (an RC QP executes in post order and flushes what is posted behind
//!   a failed WR); everything else is released after C.5, all machines
//!   in one unsignalled park. The transaction reports committed after
//!   C.5, like the paper.

use std::sync::Arc;

use drtm_base::MemoryRegion;
use drtm_cluster::{LogEntry, LogEntryRef};
use drtm_htm::RunOutcome;
use drtm_rdma::{NodeId, VerbError, WorkCompletion, WorkRequest, WrResult};
use drtm_store::record::{
    lock_owner, lock_word, locked_write_wrs, remote_read_header, RecordHeader, HEADER_BYTES,
    INCARNATION_OFF, LOCK_FREE, LOCK_OFF, SEQ_OFF,
};
use drtm_store::CONTROL_LINE_OFF;

use drtm_obs::{EventKind, Phase};

use crate::contention::{ConflictSite, ContentionPolicy};
use crate::txn::{AbortReason, Batch, TxnCtx, TxnError, Worker};
use crate::{read_validates, write_validates};

/// One stage of the read-write commit pipeline.
pub struct Stage {
    /// Crash-point label: the paper step that has just completed when
    /// the stage's probe fires.
    pub probe: &'static str,
    /// The obs phase the stage's virtual time is recorded under.
    pub phase: Phase,
    /// What a machine dying at the probe leaves behind for recovery.
    pub leaves: &'static str,
}

/// The commit pipeline, in protocol order — its only spelling: the
/// commit walk closes each stage through its row, and
/// `drtm_chaos::CRASH_POINTS` and DESIGN.md §4 quote the table.
pub const STAGES: [Stage; 7] = [
    Stage {
        probe: "C.1",
        phase: Phase::Lock,
        leaves: "read/write sets locked; nothing applied",
    },
    Stage {
        probe: "C.2",
        phase: Phase::Validate,
        leaves: "remote read set validated; locks held",
    },
    Stage {
        probe: "C.4",
        phase: Phase::Htm,
        leaves: "local writes applied (odd when replicated); nothing logged",
    },
    Stage {
        probe: "R.1",
        phase: Phase::Log,
        leaves: "redo logs durable on all backups; commit not yet visible",
    },
    Stage {
        probe: "R.2",
        phase: Phase::Makeup,
        leaves: "local primaries flipped even; remote writes missing",
    },
    Stage {
        probe: "C.5",
        phase: Phase::Update,
        leaves: "remote primaries written; a lone written machine already unlocked",
    },
    Stage {
        probe: "C.6",
        phase: Phase::Unlock,
        leaves: "fully committed and unlocked",
    },
];

/// How a commit walks [`STAGES`]: what C.1 locks, what the validate
/// row checks, and what isolates the local half (C.3 + C.4).
#[derive(Clone, Copy, PartialEq)]
enum Mode {
    /// C.1 locks the remote read and write sets; the local read set is
    /// validated and the local writes applied inside one HTM region.
    Htm,
    /// The fallback handler (§6.1), entered when the HTM region
    /// exhausted its retries: C.1 locks *every* touched record — local
    /// ones via loopback RDMA CAS (§6.2) — and the local half runs
    /// under those locks.
    Locked,
    /// A read-only transaction (§4.5): no lock row; the validate row
    /// checks the whole read set — unless one atomic read built it —
    /// and the walk stops after the fence.
    ReadOnly,
}

/// The one read-validation rule (Table 4): a read validates while its
/// record keeps the incarnation it was read at and the sequence number
/// read or, for an uncommittable read, its replicated successor. Only
/// [`Mode::ReadOnly`] also fails a locked record: a read-write walk
/// holds the locks of what C.2 and its fallback's C.3 validate, and lock
/// words are per machine, so a sibling routine's lock would read as its
/// own.
fn check_read((inc, seq): (u64, u64), now: RecordHeader, mode: Mode) -> Result<(), AbortReason> {
    if now.incarnation != inc {
        Err(AbortReason::Incarnation)
    } else if !read_validates(seq, now.seq) || (mode == Mode::ReadOnly && now.lock != LOCK_FREE) {
        Err(AbortReason::Validation)
    } else {
        Ok(())
    }
}

/// The header of the record at `off` by plain loads: line 0 holds the
/// lock word, incarnation and sequence number.
fn header_at(region: &MemoryRegion, off: usize) -> RecordHeader {
    RecordHeader {
        lock: region.load64(off + LOCK_OFF),
        incarnation: region.load64(off + INCARNATION_OFF),
        seq: region.load64(off + SEQ_OFF),
    }
}

/// Lap clock over the commit phases of one transaction: each lap adds
/// the virtual time since the previous one — and how much of it was
/// verb wait (doorbell to batch horizon), the wait/occupied split the
/// pipeline metrics expose — to its phase, so a phase entered twice
/// (the HTM attempt, then the [`Mode::Locked`] re-entry) accumulates
/// and the phases always sum to the transaction's latency.
struct PhaseClock {
    mark: u64,
    wait_mark: u64,
    wall_mark: u64,
    ns: [u64; Phase::COUNT],
    wait_ns: [u64; Phase::COUNT],
    /// The phases lapped at least once.
    lapped: [bool; Phase::COUNT],
}

impl PhaseClock {
    /// A clock whose first lap starts where the transaction began.
    fn start(txn: &TxnCtx<'_>) -> Self {
        Self {
            mark: txn.start_ns,
            wait_mark: txn.start_wait_ns,
            wall_mark: txn.w.trace_wall_ns,
            ns: [0; Phase::COUNT],
            wait_ns: [0; Phase::COUNT],
            lapped: [false; Phase::COUNT],
        }
    }

    /// Ends `phase`'s current span. A head-sampled request also gets a
    /// trace span — a complete event with real wall boundaries, the
    /// virtual span riding in args — emitted as each phase laps, so an
    /// aborted commit still shows how far it got.
    fn lap(&mut self, w: &Worker, phase: Phase) {
        let now = w.clock.now();
        let span = now.saturating_sub(self.mark);
        self.ns[phase.index()] += span;
        self.lapped[phase.index()] = true;
        self.mark = now;
        self.wait_ns[phase.index()] += w.wait_accum_ns.saturating_sub(self.wait_mark);
        self.wait_mark = w.wait_accum_ns;
        if w.trace_id != 0 {
            let wall = drtm_obs::trace::wall_ns();
            drtm_obs::trace::span_complete(
                EventKind::Phase,
                phase.name(),
                w.trace_id,
                self.wall_mark,
                wall.saturating_sub(self.wall_mark),
                span,
            );
            self.wall_mark = wall;
        }
    }

    /// Records the phase spans of a *committed* transaction into the
    /// worker's metrics shard (scrape-time aggregation across workers):
    /// one sample per phase its walk lapped.
    fn note(&self, w: &Worker) {
        for phase in Phase::ALL.into_iter().filter(|p| self.lapped[p.index()]) {
            w.obs.note_phase(phase, self.ns[phase.index()]);
            w.obs.note_phase_wait(phase, self.wait_ns[phase.index()]);
        }
    }
}

/// A record to lock: `(node, record offset)`; ordering this tuple gives
/// the global sort order that makes lock acquisition deadlock-free.
type LockAddr = (NodeId, usize);

/// What one lock-word CAS came back with: the swap's result (`Err` is
/// the word found instead), or the transport fault that ate the WR.
type CasOutcome = Result<Result<u64, u64>, VerbError>;

/// C.2's READ of the header of the record at `raddr`.
fn header_read(raddr: usize) -> WorkRequest {
    WorkRequest::Read {
        raddr,
        len: HEADER_BYTES,
    }
}

/// The header a [`header_read`] completed with; `None` when the
/// injector dropped it.
fn header_of(wc: WorkCompletion) -> Option<RecordHeader> {
    match wc.result {
        Ok(WrResult::Read { data, .. }) => Some(RecordHeader::parse(&data)),
        Ok(_) => unreachable!("READ WRs complete with READ results"),
        Err(_) => None,
    }
}

/// One written machine's share of C.5 (see `TxnCtx::remote_update`).
struct Written {
    node: NodeId,
    /// Its WRs not yet posted, in post order: the line images, then —
    /// on a lone written machine — the chained unlocks.
    unposted: Vec<WorkRequest>,
    /// How many of its WRs are images.
    writes: usize,
    /// How many of its WRs were posted and settled.
    settled: usize,
    /// The images again, for retransmission: the WRs own the first
    /// copy, so these are built when a WR of this machine first fails,
    /// once.
    images: Option<Vec<(usize, Vec<u8>)>>,
}

/// Outcome of acquiring one lock whose group CAS lost (see
/// `TxnCtx::acquire_one`).
enum OneLock {
    /// The lock is held by this transaction (possibly after stealing it
    /// from a dead owner and healing the record).
    Acquired,
    /// A live member holds it: abort.
    Busy,
    /// The issuing machine died; no further verbs were issued.
    Dead,
}

impl TxnCtx<'_> {
    /// Fires the named crash-point probe (the step that just completed).
    ///
    /// If a chaos hook — or an earlier injected crash — kills this
    /// machine here, the transaction dies in place: held locks stay
    /// held, odd records stay odd, appended logs stay appended. That is
    /// precisely the state a real mid-protocol machine failure leaves
    /// behind for recovery to clean up, so nothing is unwound.
    fn probe(&mut self, point: &'static str) -> Result<(), TxnError> {
        if self
            .w
            .cluster
            .crash_point(self.w.node, point, self.w.clock.now())
        {
            Err(TxnError::Crashed)
        } else {
            Ok(())
        }
    }

    /// Closes a stage: laps its phase span, then fires its probe.
    fn stage_done(&mut self, pc: &mut PhaseClock, stage: &Stage) -> Result<(), TxnError> {
        pc.lap(self.w, stage.phase);
        self.probe(stage.probe)
    }

    /// Attempts to commit the transaction. Consumes the context.
    ///
    /// Synchronous facade over [`Self::commit_async`] for callers
    /// outside a routine pool.
    pub fn commit(self) -> Result<(), TxnError> {
        drtm_base::task::block_now(self.commit_async())
    }

    /// Attempts to commit the transaction. Consumes the context.
    ///
    /// The commit path is a polled state machine: the returned future
    /// suspends at every doorbell (C.1, C.2, R.1, C.5) and resumes when
    /// the reactor grants the batch horizon, while the C.3+C.4 HTM
    /// region runs synchronously inside a single step — it can never
    /// span a suspension.
    ///
    /// One walk over [`STAGES`] in the transaction's mode and, should
    /// the HTM region exhaust its retries, the same walk again under
    /// locks (§6.1) — on one phase clock, so the abandoned attempt's
    /// time stays in the committed transaction's phases.
    ///
    /// On success the worker's committed counter and latency histogram
    /// are updated; on `Err(TxnError::Aborted(_))` the abort counter is
    /// updated and the caller may retry with a fresh execution.
    pub async fn commit_async(mut self) -> Result<(), TxnError> {
        let mut pc = PhaseClock::start(&self);
        pc.lap(self.w, Phase::Execute);
        let mut mode = if self.read_only {
            Mode::ReadOnly
        } else if self.w.force_pessimistic {
            Mode::Locked
        } else {
            Mode::Htm
        };
        let result = loop {
            match self.commit_walk(mode, &mut pc).await {
                Ok(false) => {
                    self.w.note_fallback();
                    mode = Mode::Locked;
                }
                done => break done.map(drop),
            }
        };
        let Err(e) = result else {
            pc.note(self.w);
            let kind = if self.read_only { "ro" } else { "rw" };
            self.w.note_commit(self.start_ns, kind);
            return result;
        };
        self.w.note_abort(e);
        result
    }

    /// Whether one atomic read of committed records built the read set —
    /// one HTM region however many read groups extended it
    /// (`TxnCtx::read_region`), or one consistent READ — each of which
    /// saw every record unlocked: the set serializes at that read, as
    /// FaRM's lock-free single-object reads do, with nothing to validate.
    fn one_snapshot(&self) -> bool {
        self.snapshots == 1
            && self.l_rs.iter().all(|e| e.seq % 2 == 0)
            && self.r_rs.iter().all(|e| e.seq % 2 == 0)
    }

    /// The walk's one fence (§5.2), before anything irreversible (C.4's
    /// apply, a read-only `Ok`). A machine that left the configuration,
    /// dead or alive, stops as [`TxnError::Crashed`]: its shard is being
    /// recovered elsewhere, and its locks are a non-member's, released
    /// passively. A transaction that spans a reconfiguration aborts: a
    /// shard it read may have been re-homed, its abandoned headers
    /// frozen. R.1's fenced append closes the window after this.
    fn fence(&self) -> Result<(), TxnError> {
        match self.w.cluster.config.epoch_of(self.w.node) {
            None => Err(TxnError::Crashed),
            now if now == self.start_epoch => Ok(()),
            _ => Err(TxnError::Aborted(AbortReason::Validation)),
        }
    }

    /// One walk over [`STAGES`], each doorbell a suspension point of
    /// the commit state machine. `Ok(true)` is a commit; `Ok(false)`
    /// means the HTM gave up with every lock released again, and the
    /// caller re-enters in [`Mode::Locked`]. A read-only walk skips the
    /// lock row and stops after the validate row and the fence.
    async fn commit_walk(&mut self, mode: Mode, pc: &mut PhaseClock) -> Result<bool, TxnError> {
        let cluster = Arc::clone(&self.w.cluster);
        let [lock, validate, apply, log, makeup, update, unlock] = &STAGES;

        // C.1: lock the mode's lock set in global order. Rung 2 of the
        // escalation ladder (DESIGN.md §15) walks in [`Mode::Locked`] and
        // acquires in *wait mode*: a busy lock is waited for instead of
        // aborting on first sight, so a large transaction keeps what it
        // already won, and a validation abort keeps every lock for the
        // retry (`lock_set`). Only the ladder arms it, so it never
        // engages while contention management is off.
        let (mut locks, mut peeked) = (Vec::new(), Vec::new());
        if mode != Mode::ReadOnly {
            locks = self.lock_addrs(mode);
            peeked = self.lock_set(&locks, mode).await?;
            self.stage_done(pc, lock)?;
        }

        // C.2: validate remote reads — every read of a read-only
        // transaction — and learn current sequence numbers for remote
        // writes.
        let remote_new_seqs = match self.validate_reads(mode, &locks, &peeked).await {
            Ok(s) => s,
            Err(e) => {
                self.keep_or_unlock(locks, e).await;
                return Err(e);
            }
        };
        self.stage_done(pc, validate)?;

        // `lock_all` fenced each lock *target*; this covers the
        // committing machine and the configuration it began under.
        if let Err(e) = self.fence() {
            if e != TxnError::Crashed {
                self.unlock_all(&locks).await;
            }
            return Err(e);
        }
        if mode == Mode::ReadOnly {
            return Ok(true);
        }

        // C.3 + C.4: validate local reads and apply local writes, inside
        // one HTM region or under the locks C.1 took.
        let replicated = cluster.opts.replicas > 1;
        let local_bump = if replicated { 1 } else { 2 };
        let applied = match mode {
            Mode::Htm => self.htm_validate_and_apply(local_bump),
            Mode::Locked => Ok(self.locked_validate_and_apply(local_bump, locks.len())),
            Mode::ReadOnly => unreachable!("a read-only walk stops at the fence"),
        };
        let local_new_seqs = match applied {
            Ok(Ok(seqs)) => seqs,
            Ok(Err(reason)) => {
                let e = TxnError::Aborted(reason);
                self.keep_or_unlock(locks, e).await;
                return Err(e);
            }
            Err(()) => {
                // HTM retries exhausted: the fallback handler takes over
                // with the remote locks already released (§6.1).
                pc.lap(self.w, apply.phase);
                self.unlock_all(&locks).await;
                pc.lap(self.w, unlock.phase);
                return Ok(false);
            }
        };
        // A crash here leaves local writes applied but unlogged: odd
        // sequence numbers under replication — never reported committed,
        // and recovery rolls them back.
        self.stage_done(pc, apply)?;

        // R.1: redo records to every written record's backups. The
        // append is fenced: if a recovery pass committed a new
        // configuration since this transaction began, the logs it would
        // have targeted may already have been drained and replayed, so
        // nothing is appended and the transaction aborts — local writes
        // (odd, never reported committed) are rolled back to their
        // durable pre-images first.
        if replicated {
            let logged = self.append_logs(&local_new_seqs, &remote_new_seqs, local_bump);
            if !logged.await {
                self.rollback_local_writes(mode == Mode::Locked).await;
                self.unlock_all(&locks).await;
                return Err(TxnError::Aborted(AbortReason::Validation));
            }
        }
        // A crash here leaves the logs durable on the backups but the
        // local primaries still odd: recovery rolls them *forward*.
        self.stage_done(pc, log)?;

        // R.2: makeup — flip local primaries to even (committable).
        if replicated {
            let store = &cluster.stores[self.w.node];
            for (e, &new_seq) in self.l_ws.iter().zip(&local_new_seqs) {
                store.record(e.table, e.rec_off).set_seq(new_seq + 1);
                self.w.clock.advance(cluster.opts.cost.mem_access_ns);
            }
        }
        self.stage_done(pc, makeup)?;

        // C.5: write remote primaries. A machine that died mid-step stops
        // issuing WRITEs: its redo entries are durable, so the recovery
        // sweep rolls the still-locked remainder forward — whereas a
        // late write could stomp a *newer* value committed after the
        // sweep healed and released the record.
        let still_locked = self.remote_update(&remote_new_seqs, &locks).await?;

        // Inserts and deletes become visible only now, after validation
        // and logging — part of C.5, and timed as such.
        self.apply_mutations();

        // The transaction reports committed here; what C.5's doorbells
        // did not release, C.6 does after. A crash at C.5 is therefore
        // a *committed* transaction whose remaining locks dangle until
        // a survivor releases them passively.
        self.stage_done(pc, update)?;

        self.unlock_all(&still_locked).await;
        self.stage_done(pc, unlock)?;
        Ok(true)
    }

    /// One blocking lock-word CAS: a one-sided verb (a batch of one) by
    /// default or, under the FaRM-messaging ablation, a SEND/RECV round
    /// trip serviced by the target's CPU. The message handler interrupts
    /// the host, which aborts its in-flight HTM regions — modelled by
    /// bumping the target's control line (every HTM commit region
    /// subscribes to it in messaging mode).
    fn remote_cas(&mut self, node: NodeId, off: usize, expect: u64, new: u64) -> Result<u64, u64> {
        let cluster = Arc::clone(&self.w.cluster);
        let w = &mut *self.w;
        if cluster.opts.msg_locking {
            cluster
                .fabric
                .charge_message(&mut w.clock, w.node, node, 32);
            cluster
                .fabric
                .charge_message(&mut w.clock, node, w.node, 16);
            let region = &cluster.stores[node].region;
            region.faa64(CONTROL_LINE_OFF, 1); // The interrupt.
            region.cas64(off, expect, new)
        } else {
            w.qps[node].cas(&mut w.clock, off, expect, new)
        }
    }

    /// The lock-word CASes of several destinations at once (each of
    /// `groups` is one node's run of the sorted lock set), outcomes per
    /// group, in order. One-sided, every group rides its own doorbell
    /// (per `sq_depth` WRs) and all of them one park — a reactor
    /// suspension point: `signalled` waits for the completions, at the
    /// latest group's horizon, while unsignalled WRs are claimed as soon
    /// as the doorbells rang, without spinning the clock forward to
    /// them. With `peek(node)`, a [`HEADER_BYTES`] READ of every record
    /// of that node's group rides the same doorbell behind its CASes:
    /// an RC QP executes in post order, so the READ behind a *winning*
    /// CAS returns the header C.2 validates, already stable under the
    /// lock (`None` where the injector dropped it). Under the messaging
    /// ablation there is no doorbell to share: each CAS is its own
    /// round trip, none is ever dropped in flight, and no header comes
    /// back.
    async fn remote_cas_batches(
        &mut self,
        groups: &[&[LockAddr]],
        expect: u64,
        new: u64,
        signalled: bool,
        peek: impl Fn(NodeId) -> bool,
    ) -> Vec<Vec<(CasOutcome, Option<RecordHeader>)>> {
        if self.w.cluster.opts.msg_locking {
            let mut cas = |&(node, off): &LockAddr| {
                let outcome = self.remote_cas(node, off, expect, new);
                (Ok(outcome), None)
            };
            return groups
                .iter()
                .map(|g| g.iter().map(&mut cas).collect())
                .collect();
        }
        let batch = |group: &&[LockAddr]| {
            let node = group[0].0;
            let cas = group
                .iter()
                .map(|&(_, raddr)| WorkRequest::Cas { raddr, expect, new });
            let reads = group
                .iter()
                .filter(|_| peek(node))
                .map(|a| header_read(a.1));
            let wrs: Vec<WorkRequest> = cas.chain(reads).collect();
            let signalled = if signalled { wrs.len() } else { 0 };
            Batch {
                node,
                wrs,
                signalled,
            }
        };
        let wcs = self.w.ring_all(groups.iter().map(batch)).await;
        let outcomes = |(mut wcs, group): (Vec<WorkCompletion>, &&[LockAddr])| {
            let mut hdrs = wcs.split_off(group.len()).into_iter().map(header_of);
            let cas = wcs.into_iter().map(|wc| {
                let outcome = wc.result.map(|r| match r {
                    WrResult::Cas(res) => res,
                    _ => unreachable!("CAS WRs complete with CAS results"),
                });
                (outcome, hdrs.next().flatten())
            });
            cas.collect()
        };
        wcs.into_iter().zip(groups).map(outcomes).collect()
    }

    /// C.1's lock set, sorted and deduped: the remote read ∪ write
    /// addresses, plus — in [`Mode::Locked`] — every local record the
    /// transaction touched.
    fn lock_addrs(&self, mode: Mode) -> Vec<LockAddr> {
        let me = self.w.node;
        let mut v: Vec<LockAddr> = self
            .r_rs
            .iter()
            .map(|e| (e.node, e.rec_off))
            .chain(self.r_ws.iter().map(|e| (e.node, e.rec_off)))
            .collect();
        if mode == Mode::Locked {
            v.extend(self.l_rs.iter().map(|e| (me, e.rec_off)));
            v.extend(self.l_ws.iter().map(|e| (me, e.rec_off)));
        }
        v.sort_unstable();
        v.dedup();
        v
    }

    /// The error a failed lock acquisition surfaces: a dead machine is a
    /// death (its partial lock set dangles for recovery), a live one
    /// aborts and retries.
    fn lock_fail_err(&self) -> TxnError {
        if self.w.cluster.is_alive(self.w.node) {
            TxnError::Aborted(AbortReason::LockBusy)
        } else {
            TxnError::Crashed
        }
    }

    /// Attributes an abort to the record behind lock address `addr`, so
    /// the retry loop's escalation ladder can target its `(table, key)`.
    fn note_conflict(&mut self, addr: LockAddr) {
        if self.w.cluster.opts.contention == ContentionPolicy::Off {
            return;
        }
        // Remote sets first; a [`Mode::Locked`] lock set and the HTM
        // region's held-lock check name local write-set records too.
        let me = self.w.node;
        let remote_r = self
            .r_rs
            .iter()
            .map(|e| ((e.node, e.rec_off), (e.table, e.key)));
        let remote_w = self
            .r_ws
            .iter()
            .map(|e| ((e.node, e.rec_off), (e.table, e.key)));
        let local_w = self
            .l_ws
            .iter()
            .map(|e| ((me, e.rec_off), (e.table, e.key)));
        let mut sites = remote_r.chain(remote_w).chain(local_w);
        let id = sites.find_map(|(a, id)| (a == addr).then_some(id));
        if let Some((table, key)) = id {
            self.w.last_conflict = Some(ConflictSite { table, key });
        }
    }

    /// C.1 over the sorted lock set `locks`. A rung-2 retry whose lock
    /// set is the one its failed attempt kept ([`Self::keep_or_unlock`])
    /// holds it already; any other releases what it kept first, so no
    /// attempt waits for a lock while it holds one out of global order.
    async fn lock_set(
        &mut self,
        locks: &[LockAddr],
        mode: Mode,
    ) -> Result<Vec<Option<RecordHeader>>, TxnError> {
        let kept = std::mem::take(&mut self.w.kept);
        if !kept.is_empty() {
            // A machine that left the configuration must be locked
            // anew, which the fence in `lock_all` refuses.
            let config = &self.w.cluster.config;
            if kept == locks && config.with(|c| kept.iter().all(|a| c.contains(a.0))) {
                self.w.routine.set_committing(true);
                return Ok(vec![None; locks.len()]);
            }
            self.unlock_all(&kept).await;
        }
        self.lock_all(locks, self.w.force_pessimistic, mode).await
    }

    /// The release of C.1's lock set `locks` after C.2 or C.3 failed
    /// with `e`. A rung-2 attempt's abort keeps them instead (DESIGN.md §15):
    /// its retry, run at once, reads under them, so what it read cannot
    /// be invalidated again, and its C.1 takes only what it did not keep.
    async fn keep_or_unlock(&mut self, locks: Vec<LockAddr>, e: TxnError) {
        if self.w.force_pessimistic && matches!(e, TxnError::Aborted(_)) {
            self.w.kept = locks;
        } else {
            self.unlock_all(&locks).await;
        }
    }

    /// Releases the locks a rung-2 attempt kept, if any, when they will
    /// not carry into a commit.
    pub(crate) async fn unlock_kept(&mut self) {
        if !self.w.kept.is_empty() {
            let kept = std::mem::take(&mut self.w.kept);
            self.unlock_all(&kept).await;
        }
    }

    /// C.1: acquires every lock in `addrs` (already sorted), one CAS
    /// group per destination node ([`Self::remote_cas_batches`]) and all
    /// groups in one park: no-wait locking gives up on a busy word, so
    /// it cannot deadlock whatever order the machines are asked in.
    /// Conflicted words (a CAS that found the lock taken) fall back to
    /// [`Self::acquire_one`], which distinguishes a live owner (abort)
    /// from a dangling dead one (steal and heal, §5.2). With `wait`
    /// (rung 2), a busy word is waited for until its holder releases it
    /// instead of failing on first sight — and there the global order is
    /// what keeps two waiters from deadlocking, so the locks are taken
    /// one round trip after another: no wait holds a lock above the one
    /// it waits for.
    ///
    /// Each group's doorbell also carries the header READs C.2 needs —
    /// every record of the group, except the loopback group of local
    /// records in [`Mode::Locked`] (validated from memory) and under
    /// the two ablations whose transports have no READ to chain. On
    /// success returns those headers aligned with `addrs`: `None` where
    /// no READ rode along, where it was dropped, or where the lock was
    /// won later through [`Self::acquire_one`] (the header behind a
    /// losing CAS was not stable, and a steal's heal rewrites it).
    ///
    /// On failure releases the locks actually acquired (groups win
    /// CASes beside and after one that lost, so this is not always a
    /// prefix of `addrs`) and returns the error to surface. On `Crashed`
    /// the machine died mid-acquisition and that release is a no-op:
    /// whatever it already locked dangles for the recovery sweep.
    async fn lock_all(
        &mut self,
        addrs: &[LockAddr],
        wait: bool,
        mode: Mode,
    ) -> Result<Vec<Option<RecordHeader>>, TxnError> {
        let cluster = Arc::clone(&self.w.cluster);
        // From this post until C.6's the reactor resumes this routine
        // ahead of its execution-phase siblings (DESIGN.md §11).
        self.w.routine.set_committing(!addrs.is_empty());
        let me = lock_word(self.w.node);
        let chained = !(cluster.opts.msg_locking || cluster.opts.fuse_lock_validate);
        let local = self.w.node;
        let peek = |node| chained && (mode == Mode::Htm || node != local);
        let mut acquired: Vec<LockAddr> = Vec::with_capacity(addrs.len());
        let mut peeked: Vec<Option<RecordHeader>> = Vec::with_capacity(addrs.len());
        let mut failed: Option<TxnError> = None;
        let groups: Vec<&[LockAddr]> = if wait {
            addrs.chunks(1).collect()
        } else {
            addrs.chunk_by(|a, b| a.0 == b.0).collect()
        };
        let per_round = if wait { 1 } else { groups.len().max(1) };
        for round in groups.chunks(per_round) {
            // Fencing, once per destination (the point verbs are
            // issued): never lock (and therefore never write) records
            // on a machine that has left the configuration — its shard
            // has been (or is being) recovered elsewhere — and a dead
            // machine issues no verbs.
            let fenced = cluster
                .config
                .with(|c| round.iter().any(|g| !c.contains(g[0].0)));
            if fenced {
                failed = Some(self.lock_fail_err());
                break;
            }
            if !cluster.is_alive(self.w.node) {
                failed = Some(TxnError::Crashed);
                break;
            }
            let results = self
                .remote_cas_batches(round, LOCK_FREE, me, true, peek)
                .await;
            let outcomes = results.into_iter().flatten();
            for ((res, hdr), &addr) in outcomes.zip(round.iter().copied().flatten()) {
                match res {
                    Ok(Ok(_)) => {
                        acquired.push(addr);
                        peeked.push(hdr);
                    }
                    Ok(Err(seen)) => {
                        // Already failing: don't fight for further locks
                        // that would immediately be released.
                        if failed.is_some() {
                            continue;
                        }
                        match self.acquire_one(addr, me, wait, seen).await {
                            OneLock::Acquired => {
                                acquired.push(addr);
                                peeked.push(None);
                            }
                            OneLock::Busy => {
                                self.note_conflict(addr);
                                failed = Some(self.lock_fail_err());
                            }
                            OneLock::Dead => failed = Some(TxnError::Crashed),
                        }
                    }
                    // The CAS never took effect (injected drop): abort —
                    // but keep scanning, later CASes of the round may
                    // have acquired locks that must be released.
                    Err(e) => {
                        failed.get_or_insert(TxnError::from(e));
                    }
                }
            }
            if failed.is_some() {
                break;
            }
        }
        let Some(err) = failed else {
            return Ok(peeked);
        };
        self.unlock_all(&acquired).await;
        Err(err)
    }

    /// Acquires the lock at `addr` after its group CAS lost, finding
    /// `seen` in the word — classified from that word, with no CAS
    /// spent on learning the owner — through the §5.2 passive-release
    /// dance: a word owned by a machine outside the configuration is
    /// stolen (release-then-relock would let another writer slip in
    /// before the repair), the record rolled forward to its freshest
    /// durable version, and the lock kept.
    ///
    /// With `wait`, a word held by a *live* member is not
    /// [`OneLock::Busy`] on first sight (rung 2 of the ladder): the
    /// routine watches the address, CASes again, and on a second loss
    /// waits for the release through [`Worker::wait_release`] before
    /// each further CAS; only a wait that outlives its poll cap is
    /// `Busy`. The watch is opened before that second CAS, so a release
    /// landing between a lost CAS and the wait still ends the wait.
    /// Every CAS is a posted batch of one: its round trip parks the
    /// routine like any other commit verb instead of walking the pool's
    /// CPU frontier across it.
    async fn acquire_one(&mut self, addr: LockAddr, me: u64, wait: bool, seen: u64) -> OneLock {
        let cluster = Arc::clone(&self.w.cluster);
        let mut watch = None;
        // What the latest CAS found in the lock word.
        let mut word = seen;
        loop {
            let expect = match lock_owner(word) {
                // Dangling: swap this machine's word over the dead
                // owner's.
                Some(owner) if !cluster.is_member(owner) => word,
                Some(_) if !wait => return OneLock::Busy,
                Some(_) => match watch.as_mut() {
                    None => {
                        watch = Some(cluster.waiters.watch(addr));
                        LOCK_FREE
                    }
                    Some(watch) => {
                        if !self.w.wait_release(watch).await {
                            return OneLock::Busy;
                        }
                        LOCK_FREE
                    }
                },
                // A failed steal found the word released meanwhile.
                None => LOCK_FREE,
            };
            // A dead machine issues no verbs (its QPs died with it).
            // Without this per-attempt check, a worker thread of the
            // victim descheduled mid-acquisition could wake up *after*
            // the recovery sweep released its dangling locks and acquire
            // fresh ones that nothing ever sweeps again.
            if !cluster.is_alive(self.w.node) {
                return OneLock::Dead;
            }
            let mut cas = self
                .remote_cas_batches(&[&[addr]], expect, me, true, |_| false)
                .await;
            let mut cas = cas.pop().expect("one group, one outcome list");
            match cas.pop().expect("one CAS, one outcome").0 {
                Ok(Ok(_)) => {
                    if expect != LOCK_FREE {
                        cluster.heal_record(addr.0, addr.1, None);
                    }
                    return OneLock::Acquired;
                }
                Ok(Err(actual)) => word = actual,
                // Dropped: the CAS never took effect — one more lap.
                Err(_) => {}
            }
        }
    }

    /// C.6 for what C.5's doorbell did not carry, and every abort-path
    /// release: frees the locks in `addrs`, one unsignalled CAS group
    /// per destination node, all in one park on the reactor's shared
    /// flush. Nothing waits for the completions — the routine resumes
    /// when the last doorbell rang, exactly like unsignalled unlock WRs
    /// on real hardware.
    async fn unlock_all(&mut self, addrs: &[LockAddr]) {
        self.w.routine.set_committing(false);
        // A dead machine cannot release its own locks — that is the
        // recovery sweep's job (which may already have stolen them, so a
        // CAS here could also spuriously fail the assertion below). Its
        // waiters see no release either: recovery's sweep releases the
        // words, or their waits run out.
        if addrs.is_empty() || !self.w.cluster.is_alive(self.w.node) {
            return;
        }
        let me = lock_word(self.w.node);
        // `addrs` is sorted (the lock set, or the acquired subset of it,
        // both built in global order), so destinations are contiguous.
        let groups: Vec<&[LockAddr]> = addrs.chunk_by(|a, b| a.0 == b.0).collect();
        let results = self
            .remote_cas_batches(&groups, me, LOCK_FREE, false, |_| false)
            .await;
        for ((res, _), &(node, rec_off)) in results.into_iter().flatten().zip(addrs) {
            // A dropped unlock would dangle forever (recovery only
            // sweeps locks of dead machines), so retransmit it
            // through the blocking wrapper.
            let res = res.unwrap_or_else(|_| self.remote_cas(node, rec_off, me, LOCK_FREE));
            debug_assert!(res.is_ok(), "lost a lock we held");
        }
        self.release_all(addrs);
    }

    /// Counts the release of every lock in `addrs`, whose words are
    /// free, so the waits watching them end (DESIGN.md §15).
    fn release_all(&self, addrs: &[LockAddr]) {
        for &addr in addrs {
            self.w.cluster.waiters.release(addr);
        }
    }

    /// The line images C.5 writes to `node`, in post order: per record
    /// the reverse-line order version matching depends on.
    fn line_images(&self, node: NodeId, new_seqs: &[u64]) -> Vec<(usize, Vec<u8>)> {
        let tables = &self.w.cluster.stores[self.w.node];
        let mut images = Vec::new();
        for (e, &seq) in self.r_ws.iter().zip(new_seqs) {
            if e.node == node {
                let layout = tables.table(e.table).layout;
                images.extend(locked_write_wrs(e.rec_off, layout, &e.buf, seq));
            }
        }
        images
    }

    /// C.5: writes every remote write-set primary under its lock — all
    /// per-line WRITEs for one destination node behind a single
    /// doorbell, every destination's doorbell in one park, one-sided in
    /// both arms of the messaging ablation — and returns the locks of
    /// `locks` (C.1's sorted lock set) it left held.
    ///
    /// C.6 rides along where it can: an unlock may land only after
    /// *every* image of the transaction has (a reader that finds one
    /// record released must find all of them written). With **one**
    /// written machine its doorbell carries, behind the WRITEs, the
    /// unlock CAS of every lock held on that machine, unsignalled: the
    /// RC QP executes them in post order, and a failed WR flushes
    /// everything posted behind it ([`VerbError::Flushed`]), so no
    /// unlock overtakes an image that did not land. With two or more,
    /// nothing orders one machine's unlock behind another machine's
    /// image, so every lock stays held until all images were waited for
    /// and C.6 follows as its own unsignalled park. The messaging
    /// ablation's unlock is a message and rides nothing.
    ///
    /// A machine that died mid-step stops issuing doorbells — its redo
    /// entries are durable, so the recovery sweep rolls the still-locked
    /// remainder forward.
    async fn remote_update(
        &mut self,
        new_seqs: &[u64],
        locks: &[LockAddr],
    ) -> Result<Vec<LockAddr>, TxnError> {
        let cluster = Arc::clone(&self.w.cluster);
        let me = lock_word(self.w.node);
        let mut nodes: Vec<NodeId> = self.r_ws.iter().map(|e| e.node).collect();
        nodes.sort_unstable();
        nodes.dedup();
        let chained = match nodes[..] {
            [only] if !cluster.opts.msg_locking => Some(only),
            _ => None,
        };
        let (released, held): (Vec<LockAddr>, Vec<LockAddr>) =
            locks.iter().partition(|a| Some(a.0) == chained);
        let mut dests: Vec<Written> = nodes
            .iter()
            .map(|&node| {
                let images = self.line_images(node, new_seqs).into_iter();
                let unposted: Vec<WorkRequest> = images
                    .map(|(raddr, data)| WorkRequest::Write { raddr, data })
                    .collect();
                Written {
                    node,
                    writes: unposted.len(),
                    unposted,
                    settled: 0,
                    images: None,
                }
            })
            .collect();
        if chained.is_some() {
            let unlocks = released.iter().map(|&(_, raddr)| WorkRequest::Cas {
                raddr,
                expect: me,
                new: LOCK_FREE,
            });
            dests[0].unposted.extend(unlocks);
        }
        // One send queue's worth per destination at a time, each round
        // settled before the next is posted: the routine wakes at the
        // WRITEs' latest horizon and retransmits what failed, blocking
        // and in post order — an image (idempotent under the lock still
        // held) before the unlocks flushed behind it. So unlocks in
        // later chunks are posted behind images that all landed.
        let depth = cluster.fabric.sq_depth();
        while dests.iter().any(|d| !d.unposted.is_empty()) {
            if !cluster.is_alive(self.w.node) {
                return Err(TxnError::Crashed);
            }
            let round = dests.iter_mut().filter(|d| !d.unposted.is_empty());
            let (rung, batches): (Vec<&mut Written>, Vec<Batch>) = round
                .map(|d| {
                    let tail = d.unposted.split_off(d.unposted.len().min(depth));
                    let batch = Batch {
                        node: d.node,
                        wrs: std::mem::replace(&mut d.unposted, tail),
                        signalled: d.writes.saturating_sub(d.settled),
                    };
                    (d, batch)
                })
                .unzip();
            // Posting the last unlock ends the lock holder's dispatch
            // priority (DESIGN.md §11).
            if chained.is_some() && held.is_empty() && rung[0].unposted.is_empty() {
                self.w.routine.set_committing(false);
            }
            let wcs = self.w.ring_all(batches).await;
            for (d, wcs) in rung.into_iter().zip(wcs) {
                for (i, _) in wcs.iter().enumerate().filter(|(_, wc)| wc.result.is_err()) {
                    match (d.settled + i).checked_sub(d.writes) {
                        None => {
                            let images = d
                                .images
                                .get_or_insert_with(|| self.line_images(d.node, new_seqs));
                            let (raddr, img) = &images[d.settled + i];
                            let w = &mut *self.w;
                            w.qps[d.node].write(&mut w.clock, *raddr, img);
                        }
                        Some(lock) => {
                            let res = self.remote_cas(d.node, released[lock].1, me, LOCK_FREE);
                            debug_assert!(res.is_ok(), "lost a lock we held");
                        }
                    }
                }
                d.settled += wcs.len();
            }
        }
        self.release_all(&released);
        Ok(held)
    }

    /// The header reads (lock, incarnation, seq — [`HEADER_BYTES`] at the
    /// record base, a partial cache line) of `addrs`, sorted by machine,
    /// in order. One-sided, they are READs behind one doorbell per
    /// machine, all machines in one park; a dropped completion is
    /// retransmitted through the blocking wrapper (header reads are
    /// idempotent). The ablations have no READ to batch: GLOB fusion
    /// models the result the fused CAS already carried, so no verb is
    /// charged, and under messaging the lock service answers each
    /// validation peek with its own round trip.
    async fn remote_headers(&mut self, addrs: &[LockAddr]) -> Vec<RecordHeader> {
        let cluster = Arc::clone(&self.w.cluster);
        let w = &mut *self.w;
        if cluster.opts.fuse_lock_validate || cluster.opts.msg_locking {
            let mut hdrs = Vec::with_capacity(addrs.len());
            for &(node, off) in addrs {
                let region = &cluster.stores[node].region;
                if cluster.opts.msg_locking {
                    let fabric = &cluster.fabric;
                    fabric.charge_message(&mut w.clock, w.node, node, 24);
                    fabric.charge_message(&mut w.clock, node, w.node, 24);
                    region.faa64(CONTROL_LINE_OFF, 1);
                }
                hdrs.push(header_at(region, off));
            }
            return hdrs;
        }
        let batch = |group: &[LockAddr]| Batch {
            node: group[0].0,
            wrs: group.iter().map(|a| header_read(a.1)).collect(),
            signalled: group.len(),
        };
        let batches = addrs.chunk_by(|a, b| a.0 == b.0).map(batch);
        // Doorbells + one completion wait — a reactor suspension point.
        let wcs = w.ring_all(batches).await;
        let mut retransmit = |(node, off)| remote_read_header(&w.qps[node], &mut w.clock, off);
        let hdrs = wcs.into_iter().flatten().zip(addrs);
        hdrs.map(|(wc, &addr)| header_of(wc).unwrap_or_else(|| retransmit(addr)))
            .collect()
    }

    /// The headers of every `(node, rec_off)` in `addrs`, preserving
    /// order: whatever `known` already holds (the headers C.1's
    /// doorbells brought back), the rest fetched with one
    /// [`Self::remote_headers`] park. *Duplicate*
    /// addresses — a record both read and written appears once for
    /// validation and once for the sequence peek — are coalesced into
    /// one header serving every occurrence, counted in the destination
    /// port's `saved` statistic.
    async fn read_headers(
        &mut self,
        addrs: &[LockAddr],
        known: impl Fn(LockAddr) -> Option<RecordHeader>,
    ) -> Result<Vec<RecordHeader>, TxnError> {
        let cluster = Arc::clone(&self.w.cluster);
        let mut uniq: Vec<LockAddr> = Vec::with_capacity(addrs.len());
        let mut map: Vec<usize> = Vec::with_capacity(addrs.len());
        for &a in addrs {
            match uniq.iter().position(|&u| u == a) {
                Some(i) => {
                    map.push(i);
                    cluster.fabric.port(a.0).stats().saved.inc();
                }
                None => {
                    map.push(uniq.len());
                    uniq.push(a);
                }
            }
        }
        let mut hdrs: Vec<Option<RecordHeader>> = uniq.iter().map(|&a| known(a)).collect();
        // What is still missing, machine by machine.
        let mut idxs: Vec<usize> = (0..uniq.len()).filter(|&i| hdrs[i].is_none()).collect();
        idxs.sort_by_key(|&i| uniq[i].0);
        if !idxs.is_empty() {
            // Same death gate as every other doorbell site: a dead
            // machine issues no verbs.
            if !cluster.is_alive(self.w.node) {
                return Err(TxnError::Crashed);
            }
            let missing: Vec<LockAddr> = idxs.iter().map(|&i| uniq[i]).collect();
            for (h, i) in self.remote_headers(&missing).await.into_iter().zip(idxs) {
                hdrs[i] = Some(h);
            }
        }
        let hdr = |i: usize| hdrs[i].expect("every header is known or was fetched");
        Ok(map.into_iter().map(hdr).collect())
    }

    /// C.2: validates every remote read and computes the new (even)
    /// sequence number of every remote write.
    ///
    /// The headers — read-set validations and write-set sequence peeks —
    /// are the ones C.1 read behind its winning CASes (`peeked`,
    /// aligned with the sorted lock set `locks`); only what is missing
    /// there costs a [`Self::read_headers`] round trip, one doorbell per
    /// destination node. Either way every record here is locked by C.1,
    /// so its header is stable.
    ///
    /// In [`Mode::ReadOnly`] nothing is locked and this is the whole
    /// validation, run unless [`Self::one_snapshot`] holds (the pass is
    /// counted): local headers by load, one memory access each, then
    /// the remote ones in one park. A locked record fails wherever it
    /// lives and however it was read (§4.5's read-time rule, applied
    /// once more at the end): a committer between C.1 and C.6 may
    /// already have rewritten the transaction's *other* records — local
    /// ones are written in HTM at C.4 and never locked — while this one
    /// still shows its old sequence number. A read-only abort feeds the
    /// ladder no conflict.
    async fn validate_reads(
        &mut self,
        mode: Mode,
        locks: &[LockAddr],
        peeked: &[Option<RecordHeader>],
    ) -> Result<Vec<u64>, TxnError> {
        if mode == Mode::ReadOnly {
            if self.one_snapshot() {
                return Ok(Vec::new());
            }
            self.w.obs.note_ro_validation();
            let cluster = Arc::clone(&self.w.cluster);
            let region = &cluster.stores[self.w.node].region;
            for e in &self.l_rs {
                self.w.clock.advance(cluster.opts.cost.mem_access_ns);
                let now = header_at(region, e.rec_off);
                check_read((e.incarnation, e.seq), now, mode).map_err(TxnError::Aborted)?;
            }
        }
        let addrs: Vec<LockAddr> = self
            .r_rs
            .iter()
            .map(|e| (e.node, e.rec_off))
            .chain(self.r_ws.iter().map(|e| (e.node, e.rec_off)))
            .collect();
        let known = |a: LockAddr| locks.binary_search(&a).ok().and_then(|i| peeked[i]);
        let hdrs = self.read_headers(&addrs, known).await?;
        for (i, e) in self.r_rs.iter().enumerate() {
            if let Err(reason) = check_read((e.incarnation, e.seq), hdrs[i], mode) {
                if mode != Mode::ReadOnly {
                    self.note_conflict(addrs[i]);
                }
                return Err(TxnError::Aborted(reason));
            }
        }
        let mut new_seqs = Vec::with_capacity(self.r_ws.len());
        for i in 0..self.r_ws.len() {
            // (For reads-also-written records this is the same value C.2
            // just validated.)
            let seq = hdrs[self.r_rs.len() + i].seq;
            if !write_validates(seq) {
                // Still uncommittable: its writer has not replicated yet.
                self.note_conflict(addrs[self.r_rs.len() + i]);
                return Err(TxnError::Aborted(AbortReason::Validation));
            }
            new_seqs.push(seq + 2);
        }
        Ok(new_seqs)
    }

    /// C.3 + C.4 under HTM.
    ///
    /// Returns `Ok(Ok(new_seqs))` when validation passed and writes were
    /// applied (sequence numbers bumped by `bump`), `Ok(Err(reason))`
    /// when validation failed (nothing applied), and `Err(())` when the
    /// HTM gave up and the fallback handler must run.
    fn htm_validate_and_apply(&mut self, bump: u64) -> Result<Result<Vec<u64>, AbortReason>, ()> {
        let cluster = Arc::clone(&self.w.cluster);
        let cost = &cluster.opts.cost;
        let store = &cluster.stores[self.w.node];
        let htm = &cluster.htms[self.w.node];
        let region = &store.region;
        let l_rs = &self.l_rs;
        let l_ws = &self.l_ws;
        let pointer_swap = cluster.opts.pointer_swap;

        let msg_locking = cluster.opts.msg_locking;
        let outcome = htm.run(region, &mut self.w.rng, |t| {
            // Under the messaging ablation, every HTM region is exposed
            // to lock-service interrupts: subscribe to the control line
            // so a concurrent message handler aborts this region.
            if msg_locking {
                t.read_u64(CONTROL_LINE_OFF)?;
            }
            // C.3: validate local reads, each header loaded inside the
            // region. The error side carries the conflicted l_ws index
            // (when one is known) for the ladder's abort attribution.
            for e in l_rs {
                let mut hdr = [0u8; HEADER_BYTES];
                t.read_bytes(e.rec_off, &mut hdr)?;
                let now = RecordHeader::parse(&hdr);
                if let Err(reason) = check_read((e.incarnation, e.seq), now, Mode::Htm) {
                    return Ok(Err((reason, None)));
                }
            }
            // C.4 precondition: no remote committer may hold a local
            // write-set record (it could have locked it before this HTM
            // region began; the CAS after XBEGIN would abort us, but the
            // CAS before it would not — hence the explicit check).
            let mut cur_seqs = Vec::with_capacity(l_ws.len());
            for (i, e) in l_ws.iter().enumerate() {
                let lock = t.read_u64(e.rec_off)?;
                if lock != LOCK_FREE {
                    return Ok(Err((AbortReason::LockBusy, Some(i))));
                }
                let seq = t.read_u64(e.rec_off + SEQ_OFF)?;
                if !write_validates(seq) {
                    return Ok(Err((AbortReason::Validation, None)));
                }
                cur_seqs.push(seq);
            }
            // C.4: apply buffered writes.
            let mut new_seqs = Vec::with_capacity(l_ws.len());
            for (e, &cur) in l_ws.iter().zip(&cur_seqs) {
                let rec = store.record(e.table, e.rec_off);
                rec.write_htm(t, &e.buf, cur + bump)?;
                new_seqs.push(cur + bump);
            }
            Ok(Ok(new_seqs))
        });

        // Virtual-time cost of the HTM commit: validation touches one
        // line per read, writes touch each record's lines (or one line
        // with the §6.4 pointer-swap optimisation on local-only tables).
        let write_lines: u64 = l_ws
            .iter()
            .map(|e| {
                let t = store.table(e.table);
                if pointer_swap && t.spec.local_only {
                    1
                } else {
                    t.layout.lines() as u64
                }
            })
            .sum();
        let per_attempt = cost.htm_begin_ns
            + cost.htm_commit_ns
            + (l_rs.len() as u64 + write_lines) * cost.htm_per_line_ns;

        match outcome {
            RunOutcome::Committed { value, retries } => {
                self.w.clock.advance(per_attempt * (retries as u64 + 1));
                Ok(match value {
                    Ok(seqs) => Ok(seqs),
                    Err((reason, busy_idx)) => {
                        if let Some(i) = busy_idx {
                            // A remote committer holds this local
                            // write-set record.
                            self.note_conflict((self.w.node, self.l_ws[i].rec_off));
                        }
                        Err(reason)
                    }
                })
            }
            RunOutcome::Fallback(_) => {
                let max = cluster.opts.htm.max_retries as u64 + 1;
                self.w.clock.advance(per_attempt * max);
                Err(())
            }
        }
    }

    /// C.3 + C.4 under the locks of [`Mode::Locked`]: this transaction
    /// holds the lock word of every local record it touched, which
    /// every local HTM path checks, so plain loads and stores get the
    /// isolation the HTM region would provide. Same contract as
    /// [`Self::htm_validate_and_apply`], minus giving up; `locked` is
    /// the size of the lock set the handler's CPU cost scales with.
    fn locked_validate_and_apply(
        &mut self,
        bump: u64,
        locked: usize,
    ) -> Result<Vec<u64>, AbortReason> {
        let cluster = Arc::clone(&self.w.cluster);
        let store = &cluster.stores[self.w.node];
        for e in &self.l_rs {
            let now = header_at(&store.region, e.rec_off);
            check_read((e.incarnation, e.seq), now, Mode::Locked)?;
        }
        let mut new_seqs = Vec::with_capacity(self.l_ws.len());
        for e in &self.l_ws {
            let seq = store.region.load64(e.rec_off + SEQ_OFF);
            if !write_validates(seq) {
                return Err(AbortReason::Validation);
            }
            new_seqs.push(seq + bump);
        }
        for (e, &seq) in self.l_ws.iter().zip(&new_seqs) {
            store.record(e.table, e.rec_off).write_locked(&e.buf, seq);
        }
        let cost = &cluster.opts.cost;
        self.w.clock.advance(
            cost.local_cas_ns * locked as u64 + cost.mem_access_ns * self.l_ws.len() as u64,
        );
        Ok(new_seqs)
    }

    /// R.1: appends a redo record for every write (local, remote, and
    /// pending inserts/deletes) to the logs on the written record's
    /// backups as one overlapped fan-out. The records borrow the write
    /// sets' buffers; each log serialises them once.
    ///
    /// Entries are grouped by destination backup machine: each machine
    /// gets one doorbell carrying one WRITE per primary it backs. The
    /// doorbells ring back to back on the CPU, a doorbell's `i`-th WRITE
    /// issues `i` pipeline slots after it, every WRITE completes
    /// `rdma_write(bytes)` after its own issue instant (later if a link
    /// or verb-op budget on either port is in deficit), and the
    /// transaction waits once, for the slowest ack: `Σ_dst doorbell +
    /// max_dst(issue + write)`. The coordinator's own log (it backs a
    /// remote primary it wrote) is a local NVRAM store, done while the
    /// WRITEs fly.
    ///
    /// All-or-nothing with respect to recovery: the appends run under
    /// the log store's recovery gate, and only if the configuration
    /// epoch still matches the one this transaction began under.
    /// Returns `false` — with nothing appended anywhere — when the
    /// configuration moved (the transaction must abort and undo its
    /// local writes).
    async fn append_logs(
        &mut self,
        local_new_seqs: &[u64],
        remote_new_seqs: &[u64],
        local_bump: u64,
    ) -> bool {
        let cluster = Arc::clone(&self.w.cluster);
        let me = self.w.node;
        let nodes = cluster.nodes();
        let before = self.w.clock.now();
        // CPU the appends consume (doorbell charges, the loopback
        // store); everything else in the span is NIC/NVRAM latency a
        // routine can hide.
        let mut cpu_ns: u64 = 0;
        let ok = {
            // Local writes were applied at the odd `s`; the logged (and
            // made-up) sequence number is the even successor.
            let local = self.l_ws.iter().zip(local_new_seqs);
            let local = local.map(|(e, &s)| (me, e.table, e.key, s + 2 - local_bump, Some(&e.buf)));
            let remote = self.r_ws.iter().zip(remote_new_seqs);
            let remote = remote.map(|(e, &s)| (e.node, e.table, e.key, s, Some(&e.buf)));
            let pending = self.mutations.iter();
            let pending = pending.map(|m| (m.node, m.table, m.key, 2, m.value.as_ref()));
            let mut by_primary: Vec<Vec<LogEntryRef<'_>>> = vec![Vec::new(); nodes];
            for (primary, table, key, seq, value) in local.chain(remote).chain(pending) {
                by_primary[primary].push(LogEntry {
                    table,
                    key,
                    seq,
                    value: value.map_or(&[][..], Vec::as_slice),
                    delete: value.is_none(),
                });
            }
            let epoch = self.start_epoch.expect("the fence admitted a member");
            let clock = &mut self.w.clock;
            let cost = &cluster.opts.cost;
            cluster.logs.append_fenced(&cluster.config, epoch, |logs| {
                let mut by_backup: Vec<Vec<(NodeId, &[LogEntryRef<'_>])>> = vec![Vec::new(); nodes];
                for (p, batch) in by_primary.iter().enumerate() {
                    if !batch.is_empty() {
                        for b in cluster.backups_of(p) {
                            by_backup[b].push((p, batch));
                        }
                    }
                }
                let src = cluster.fabric.port(me);
                let loopback = std::mem::take(&mut by_backup[me]);
                let mut horizon = clock.now();
                for (b, batches) in by_backup.iter().enumerate() {
                    if batches.is_empty() {
                        continue;
                    }
                    let dst = cluster.fabric.port(b);
                    // R.1 rides the work queue too, rung like every
                    // other doorbell (`Qp::ring`): everything bound for
                    // this backup is one doorbell charged to the core,
                    // and its `i`-th WRITE issues `i` pipeline slots
                    // past the charge; counted on the destination port.
                    clock.advance(cost.doorbell_ns);
                    cpu_ns += cost.doorbell_ns;
                    dst.stats().doorbells.inc();
                    let base = clock.now();
                    for (i, &(p, batch)) in batches.iter().enumerate() {
                        // One chained WRITE per log: one verb-op
                        // reservation on both ports beside the bytes.
                        let issue = base + i as u64 * cost.verb_pipeline_ns;
                        let done = logs
                            .post(issue, cost, (src.nic(), dst.nic()), me, p, b, batch)
                            .max(src.nic_ops().reserve(issue, 1))
                            .max(dst.nic_ops().reserve(issue, 1));
                        dst.stats().writes.inc();
                        dst.stats()
                            .bytes
                            .add(LogEntry::batch_wire_size(batch) as u64);
                        horizon = horizon.max(done);
                    }
                }
                for (p, batch) in loopback {
                    let issue = clock.now();
                    let done = logs.post(issue, cost, (src.nic(), src.nic()), me, p, me, batch);
                    cpu_ns += done - issue;
                    clock.advance_to(done);
                }
                clock.advance_to(horizon);
            })
        };
        // One collapsed yield over the slowest ack: the CPU charges are
        // spent up front and the remainder of the span is hideable
        // latency.
        let span = self.w.clock.now().saturating_sub(before);
        let wait = span.saturating_sub(cpu_ns);
        let release = self.w.clock.now() - wait;
        self.w.yield_remote_wait(release).await;
        ok
    }

    /// Undoes this transaction's local writes after a fenced R.1 append.
    ///
    /// The records carry odd (never-committable) sequence numbers and
    /// none of this transaction's redo entries escaped to any log, so
    /// the freshest durable replicated version of each record *is* its
    /// pre-image. The incarnation bump guarantees a concurrent reader
    /// that snapshotted the odd value can never validate, even if a
    /// later transaction re-commits the record at exactly the sequence
    /// number that reader expects (an ABA on sequence numbers).
    ///
    /// `already_locked` is set in [`Mode::Locked`], which holds every
    /// local record's lock from its global lock acquisition; the HTM
    /// walk must take each lock here (any current holder is
    /// mid-validation and will abort on the odd sequence number; a
    /// non-member holder died without logging this record — its lock is
    /// stolen).
    async fn rollback_local_writes(&mut self, already_locked: bool) {
        let cluster = Arc::clone(&self.w.cluster);
        let me = self.w.node;
        let store = &cluster.stores[me];
        for i in 0..self.l_ws.len() {
            let (table, key, rec_off) = {
                let e = &self.l_ws[i];
                (e.table, e.key, e.rec_off)
            };
            if !already_locked {
                // The holder may be a parked routine of this worker's own
                // pool: the wait lets the reactor run it. The rollback
                // cannot give up, so a wait that runs out waits again.
                let mut watch = cluster.waiters.watch((me, rec_off));
                while let Err(actual) = store.region.cas64(rec_off, LOCK_FREE, lock_word(me)) {
                    let owner = lock_owner(actual).expect("non-free lock words name an owner");
                    if !cluster.is_member(owner)
                        && store.region.cas64(rec_off, actual, lock_word(me)).is_ok()
                    {
                        break;
                    }
                    self.w.wait_release(&mut watch).await;
                }
            }
            // Incarnation first: from here on, no reader of the aborted
            // value can validate, whatever the sequence number becomes.
            store.region.faa64(rec_off + INCARNATION_OFF, 1);
            match cluster.freshest_durable(me, table, key) {
                Some(v) if !v.deleted => store.record(table, rec_off).write_locked(&v.value, v.seq),
                _ => {}
            }
            if !already_locked {
                store.region.store64_coherent(rec_off, LOCK_FREE);
                cluster.waiters.release((me, rec_off));
            }
            self.w.clock.advance(cluster.opts.cost.mem_access_ns);
        }
    }

    /// Applies buffered inserts and deletes. Remote mutations are
    /// shipped to their host machine (SEND/RECV cost) and executed there.
    fn apply_mutations(&mut self) {
        let cluster = Arc::clone(&self.w.cluster);
        for m in std::mem::take(&mut self.mutations) {
            // Logged mutations of a dead machine are recovery's to
            // install; a late insert could resurrect a key on a store
            // someone else now owns.
            if !cluster.is_alive(self.w.node) {
                return;
            }
            if m.node != self.w.node {
                let bytes = 24 + m.value.as_ref().map_or(0, Vec::len);
                cluster
                    .fabric
                    .charge_message(&mut self.w.clock, self.w.node, m.node, bytes);
            }
            let store = &cluster.stores[m.node];
            match m.value {
                Some(v) => {
                    // Duplicate keys indicate a workload bug (keys are
                    // drawn from counters held in the write set).
                    let inserted = store.insert(m.table, m.key, &v, 2);
                    debug_assert!(inserted.is_some(), "duplicate insert {}:{}", m.table, m.key);
                }
                None => {
                    store.remove(m.table, m.key);
                }
            }
            self.w.clock.advance(cluster.opts.cost.record_logic_ns);
        }
    }
}
