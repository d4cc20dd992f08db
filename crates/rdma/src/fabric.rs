//! The simulated RDMA fabric: node ports, queue pairs, and verbs.

use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

use drtm_base::sync::{Mutex, RwLock};
use drtm_base::{Cause, CostModel, Counter, LinkBudget, MemoryRegion, VClock};

/// Identifies a machine (or logical node) on the fabric.
pub type NodeId = usize;

/// Verb class, as seen by a [`FaultInjector`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Verb {
    /// One-sided READ.
    Read,
    /// One-sided WRITE.
    Write,
    /// One-sided compare-and-swap.
    Cas,
    /// One-sided fetch-and-add.
    Faa,
    /// Two-sided SEND, charged by [`Fabric::charge_message`].
    Send,
}

impl Verb {
    /// All verb classes (stable order, used for per-class counters).
    pub const ALL: [Verb; 5] = [Verb::Read, Verb::Write, Verb::Cas, Verb::Faa, Verb::Send];

    /// Stable index of this verb in [`Verb::ALL`].
    pub fn index(self) -> usize {
        match self {
            Verb::Read => 0,
            Verb::Write => 1,
            Verb::Cas => 2,
            Verb::Faa => 3,
            Verb::Send => 4,
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            Verb::Read => "READ",
            Verb::Write => "WRITE",
            Verb::Cas => "CAS",
            Verb::Faa => "FAA",
            Verb::Send => "SEND",
        }
    }

    /// Lower-case label used in metric names and trace events.
    pub fn label(self) -> &'static str {
        match self {
            Verb::Read => "read",
            Verb::Write => "write",
            Verb::Cas => "cas",
            Verb::Faa => "faa",
            Verb::Send => "send",
        }
    }
}

/// Transport-level failure of a single work request.
///
/// Carried per-WR inside a [`WorkCompletion`] so chaos faults surface to
/// the protocol layer instead of panicking or silently degrading inside
/// the fabric. Upper layers fold their own transport-ish failures (verbs
/// issued across a dead machine) into the same vocabulary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
#[non_exhaustive]
pub enum VerbError {
    /// The WR's packet was lost and the QP's retransmission budget ran
    /// out: the remote memory operation did **not** take effect.
    Dropped,
    /// The peer (or the issuing machine itself) is dead or removed from
    /// the membership; the WR never reached remote memory.
    Unreachable,
    /// An earlier WR of the same doorbell failed, which put the RC QP
    /// in its error state: this WR, posted behind it, was flushed — it
    /// never went on the wire and the remote memory operation did
    /// **not** take effect.
    Flushed,
}

impl VerbError {
    /// Display label.
    pub fn label(self) -> &'static str {
        match self {
            VerbError::Dropped => "dropped",
            VerbError::Unreachable => "unreachable",
            VerbError::Flushed => "flushed",
        }
    }
}

/// A one-sided verb descriptor, enqueued with [`Qp::post`] and executed
/// as part of a doorbell batch by [`Qp::doorbell`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WorkRequest {
    /// One-sided READ of `len` bytes at remote byte offset `raddr`.
    Read {
        /// Remote byte offset.
        raddr: usize,
        /// Bytes to read.
        len: usize,
    },
    /// One-sided WRITE of `data` at remote byte offset `raddr`.
    Write {
        /// Remote byte offset.
        raddr: usize,
        /// Bytes to write.
        data: Vec<u8>,
    },
    /// One-sided compare-and-swap of the 8-byte word at `raddr`.
    Cas {
        /// Remote byte offset of the word.
        raddr: usize,
        /// Expected value.
        expect: u64,
        /// Replacement value.
        new: u64,
    },
    /// One-sided fetch-and-add on the 8-byte word at `raddr`.
    Faa {
        /// Remote byte offset of the word.
        raddr: usize,
        /// Addend.
        add: u64,
    },
}

impl WorkRequest {
    /// The verb class this work request issues.
    pub fn verb(&self) -> Verb {
        match self {
            WorkRequest::Read { .. } => Verb::Read,
            WorkRequest::Write { .. } => Verb::Write,
            WorkRequest::Cas { .. } => Verb::Cas,
            WorkRequest::Faa { .. } => Verb::Faa,
        }
    }

    /// Payload bytes this WR moves over the wire.
    fn payload_len(&self) -> usize {
        match self {
            WorkRequest::Read { len, .. } => *len,
            WorkRequest::Write { data, .. } => data.len(),
            WorkRequest::Cas { .. } | WorkRequest::Faa { .. } => 8,
        }
    }
}

/// One entry of the explicit WR list [`Qp::doorbell_shared`] rings.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PostedWr {
    /// Completion cookie: which waiter on the shared CQ the WR belongs
    /// to (see [`WorkCompletion::cookie`]).
    pub cookie: u64,
    /// Whether its poster waits for the completion. An *unsignalled* WR
    /// still deposits one — a drop must be seen to be retransmitted —
    /// but does not extend its poster's [`Cq::cookie_horizon`]: nobody
    /// sits on its latency (C.6 unlocks).
    pub signalled: bool,
    /// The work request.
    pub wr: WorkRequest,
}

/// Data produced by a successfully executed [`WorkRequest`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WrResult {
    /// READ: the bytes plus the version word each touched cache line was
    /// observed at (even values, exactly as [`Qp::read`] returns them).
    Read {
        /// The bytes read.
        data: Vec<u8>,
        /// Per-line version words.
        versions: Vec<u64>,
    },
    /// WRITE: no data.
    Write,
    /// CAS: `Ok(old)` when the swap happened, `Err(actual)` otherwise.
    /// A failed compare is a protocol outcome, not a transport error.
    Cas(Result<u64, u64>),
    /// FAA: the previous value of the word.
    Faa(u64),
}

/// One polled completion: which WR of which doorbell batch finished,
/// when, and with what outcome.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub struct WorkCompletion {
    /// Index of the WR within its batch, in post order.
    pub wr_id: usize,
    /// Doorbell batch id (fabric-unique; ids start at 1, 0 means "no
    /// batch" in trace events).
    pub batch: u64,
    /// Destination node of the QP the WR was posted on.
    pub dst: NodeId,
    /// Verb class of the WR.
    pub verb: Verb,
    /// Virtual completion time of this WR, ns.
    pub done_ns: u64,
    /// Caller-chosen completion cookie, set per WR by
    /// [`Qp::doorbell_shared`] (0 for [`Qp::doorbell`]). A scheduler
    /// multiplexing several routines over one shared CQ tags each
    /// routine's WRs with its routine id, so one poll can route
    /// completions back to — and wake — many waiters.
    pub cookie: u64,
    /// Whether the WR was posted signalled (see [`PostedWr`]).
    pub signalled: bool,
    /// Success payload, or the per-WR transport fault.
    pub result: Result<WrResult, VerbError>,
    /// The work request itself when it failed, handed back so its
    /// poster can re-post it; `None` once it landed.
    pub wr: Option<WorkRequest>,
}

/// A completion queue.
///
/// Doorbells deposit [`WorkCompletion`]s here in issue order. There is
/// one completion-delivery API, with two consumption disciplines
/// layered over the same deposit stream:
///
/// * **Blocking** — [`poll`](Cq::poll) drains everything and advances
///   the caller's clock to the latest completion time: the caller spins
///   until the whole fan-out has finished.
/// * **Reactor** — a scheduler multiplexing many routines over one CQ
///   stamps each routine's WRs with its cookie, reads
///   [`cookie_horizon`](Cq::cookie_horizon) to learn when they retire,
///   sleeps the owning routine until then, and the woken routine claims
///   exactly its own completions with [`take_cookie`](Cq::take_cookie).
///   Horizon reads never consume, so any number of routines can share
///   the CQ without stealing each other's work. Only *signalled* WRs
///   count towards the horizon; the unsignalled ones posted with them
///   are claimed at the same wake-up, whenever they land.
///
/// **Every WR surfaces exactly once.** A WR dropped by an injected fault
/// still deposits its completion — carrying
/// `Err(`[`VerbError::Dropped`]`)` and a `done_ns` that includes the
/// exhausted retransmission budget — and so does every WR flushed
/// behind it (`Err(`[`VerbError::Flushed`]`)`), so `poll`/`take_cookie`
/// always return one completion per posted WR. Failed work never
/// silently vanishes from the CQ; callers detect it from the per-WR
/// `result`, not from a missing entry.
#[derive(Debug, Default)]
pub struct Cq {
    done: Mutex<Vec<WorkCompletion>>,
}

impl Cq {
    /// Creates an empty completion queue.
    pub fn new() -> Self {
        Self::default()
    }

    fn push(&self, wc: WorkCompletion) {
        self.done.lock().push(wc);
    }

    /// Completions deposited and not yet drained.
    pub fn len(&self) -> usize {
        self.done.lock().len()
    }

    /// Whether no completions are pending.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Drains all completions in deposit order, advancing `clock` to the
    /// latest completion time: the caller blocks until every outstanding
    /// WR of every doorbell rung into this CQ has finished.
    ///
    /// Completions for WRs dropped by an injected fault are returned
    /// like any other — exactly once, with `Err(`[`VerbError::Dropped`]`)`
    /// in [`WorkCompletion::result`] — and their `done_ns` participates
    /// in the clock advance (the NIC spent the retry budget before
    /// erroring the WR).
    pub fn poll(&self, clock: &mut VClock) -> Vec<WorkCompletion> {
        let wcs = std::mem::take(&mut *self.done.lock());
        if let Some(t) = wcs.iter().map(|w| w.done_ns).max() {
            clock.advance_to(t, Cause::VerbWait);
        }
        wcs
    }

    /// Latest completion time of the queued *signalled* completions
    /// carrying `cookie`, without consuming them. Under a shared
    /// doorbell flush (see [`Qp::doorbell_shared`]) one batch
    /// interleaves WRs of many routines, so a waiter's wake horizon is
    /// keyed by its per-WR cookie rather than the batch id.
    pub fn cookie_horizon(&self, cookie: u64) -> Option<u64> {
        self.done
            .lock()
            .iter()
            .filter(|w| w.cookie == cookie && w.signalled)
            .map(|w| w.done_ns)
            .max()
    }

    /// Removes and returns the completions carrying `cookie`, in deposit
    /// (= issue) order, leaving other cookies queued: on a CQ shared by
    /// several routines each claims exactly its own WRs, even out of a
    /// batch that carried many routines'. The per-WR completion times
    /// stay available in [`WorkCompletion::done_ns`]; failed-WR
    /// completions are returned exactly once like everywhere else.
    pub fn take_cookie(&self, cookie: u64) -> Vec<WorkCompletion> {
        let mut g = self.done.lock();
        g.extract_if(.., |w| w.cookie == cookie).collect()
    }
}

/// A fault decision applied to one verb, produced by a [`FaultInjector`].
///
/// Semantics follow reliable-connected (RC) transport. A `drop` on a
/// one-sided WR models the QP's retry budget running out: the WR
/// completes with [`VerbError::Dropped`] after a retransmission
/// penalty, its memory effect is *not* applied, every WR posted behind
/// it in the doorbell is flushed ([`VerbError::Flushed`]), and its
/// poster decides whether to re-post — the blocking wrappers
/// ([`Qp::read`] and friends) re-post until the WR lands. `drop` on a
/// SEND ([`Fabric::charge_message`]) costs its retransmission: the
/// message still lands, later. Faults apply to *individual WRs inside a
/// batch*: the injector is consulted once per WR, so a single doorbell
/// can see any mix of delayed and duplicated work requests — up to its
/// first failed one (see [`Qp::doorbell`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Fault {
    /// Extra latency charged to the issuing worker's virtual clock, in ns
    /// (delayed or retransmitted packets, partition stalls, NIC flaps).
    pub delay_ns: u64,
    /// Extra wire bytes charged against both NICs (duplicated packets).
    pub extra_wire: u64,
    /// Lose the operation's packet once. A SEND completes after a
    /// retransmission penalty; a one-sided WR fails with
    /// [`VerbError::Dropped`] and flushes the WRs behind it.
    pub drop: bool,
}

impl Fault {
    /// The no-fault decision.
    pub const NONE: Fault = Fault {
        delay_ns: 0,
        extra_wire: 0,
        drop: false,
    };

    /// Whether this decision perturbs the verb at all.
    pub fn is_fault(&self) -> bool {
        *self != Fault::NONE
    }
}

/// Decides, per verb issue, whether and how to perturb it.
///
/// Implementations must be deterministic functions of their own state
/// and the `(src, dst, verb)` stream — the fabric calls `on_verb`
/// exactly once per verb, in issue order per caller thread, so an
/// injector keying decisions off per-stream counters reproduces the
/// same fault schedule for the same seed.
pub trait FaultInjector: Send + Sync {
    /// Called before the verb executes; returns the fault to apply.
    fn on_verb(&self, src: NodeId, dst: NodeId, verb: Verb, now: u64) -> Fault;
}

/// Per-NIC operation counters.
#[derive(Debug, Default)]
pub struct NicStats {
    /// One-sided READ verbs issued.
    pub reads: Counter,
    /// One-sided WRITE verbs issued.
    pub writes: Counter,
    /// Atomic verbs (CAS + FAA) issued.
    pub atomics: Counter,
    /// SEND verbs issued.
    pub sends: Counter,
    /// Doorbells rung toward this node (each flushes a batch of one or
    /// more WRs; not itself a verb, so excluded from verb totals).
    pub doorbells: Counter,
    /// Total payload bytes moved (both directions).
    pub bytes: Counter,
    /// Verbs toward this node that a client coalesced away instead of
    /// issuing (e.g. duplicate C.2 header READs deduplicated within one
    /// validation batch). Never charged to the wire; bumped by the
    /// protocol layer so saved traffic is auditable.
    pub saved: Counter,
}

/// A point-in-time copy of [`NicStats`], diffable with [`NicSnapshot::delta`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct NicSnapshot {
    /// One-sided READ verbs issued.
    pub reads: u64,
    /// One-sided WRITE verbs issued.
    pub writes: u64,
    /// Atomic verbs (CAS + FAA) issued.
    pub atomics: u64,
    /// SEND verbs issued.
    pub sends: u64,
    /// Doorbells rung toward this node.
    pub doorbells: u64,
    /// Total payload bytes moved.
    pub bytes: u64,
    /// Verbs coalesced away by clients instead of issued.
    pub saved: u64,
}

impl NicSnapshot {
    /// Counter increments since `earlier` (saturating, so a reset
    /// between snapshots yields zeros rather than wrapping).
    pub fn delta(&self, earlier: &NicSnapshot) -> NicSnapshot {
        NicSnapshot {
            reads: self.reads.saturating_sub(earlier.reads),
            writes: self.writes.saturating_sub(earlier.writes),
            atomics: self.atomics.saturating_sub(earlier.atomics),
            sends: self.sends.saturating_sub(earlier.sends),
            doorbells: self.doorbells.saturating_sub(earlier.doorbells),
            bytes: self.bytes.saturating_sub(earlier.bytes),
            saved: self.saved.saturating_sub(earlier.saved),
        }
    }

    /// Total verbs of all classes (doorbells are not verbs and are not
    /// included — divide by [`NicSnapshot::doorbells`] for the
    /// verbs-per-doorbell batching factor).
    pub fn verbs(&self) -> u64 {
        self.reads + self.writes + self.atomics + self.sends
    }
}

impl NicStats {
    /// Copies the current counter values.
    pub fn snapshot(&self) -> NicSnapshot {
        NicSnapshot {
            reads: self.reads.get(),
            writes: self.writes.get(),
            atomics: self.atomics.get(),
            sends: self.sends.get(),
            doorbells: self.doorbells.get(),
            bytes: self.bytes.get(),
            saved: self.saved.get(),
        }
    }

    /// Counter increments since an `earlier` snapshot.
    pub fn delta(&self, earlier: &NicSnapshot) -> NicSnapshot {
        self.snapshot().delta(earlier)
    }
}

/// One endpoint on the fabric: a registered memory region and its NIC's
/// link budgets and counters.
pub struct NodePort {
    region: Arc<MemoryRegion>,
    nic: LinkBudget,
    nic_ops: LinkBudget,
    stats: NicStats,
}

impl NodePort {
    fn new(region: Arc<MemoryRegion>, bytes_per_sec: f64, ops_per_sec: f64) -> Self {
        Self {
            region,
            nic: LinkBudget::new(bytes_per_sec),
            nic_ops: LinkBudget::new(ops_per_sec),
            stats: NicStats::default(),
        }
    }

    /// The node's registered memory (shared with its local HTM engine).
    pub fn region(&self) -> &Arc<MemoryRegion> {
        &self.region
    }

    /// Virtual-time NIC bandwidth budget for this node's single port.
    pub fn nic(&self) -> &LinkBudget {
        &self.nic
    }

    /// Virtual-time NIC verb-rate budget (message-rate ceiling).
    pub fn nic_ops(&self) -> &LinkBudget {
        &self.nic_ops
    }

    /// Verb counters.
    pub fn stats(&self) -> &NicStats {
        &self.stats
    }
}

/// The fabric: every node's port plus the shared cost model.
///
/// Construction registers one [`MemoryRegion`] per node; afterwards any
/// thread may open [`Qp`]s between any pair of nodes (including loopback —
/// the paper's "logical nodes" experiment drives RDMA between co-located
/// nodes through the same NIC).
pub struct Fabric {
    ports: Vec<NodePort>,
    /// Operation cost model used by all verbs.
    pub cost: CostModel,
    injector: RwLock<Option<Arc<dyn FaultInjector>>>,
    /// Maximum WRs postable on one QP send queue between doorbells.
    sq_depth: usize,
    /// Next doorbell batch id (fabric-unique, starts at 1).
    next_batch: AtomicU64,
}

/// Default per-QP send-queue depth (posted WRs per doorbell).
pub const DEFAULT_SQ_DEPTH: usize = 128;

/// Fluent construction of a [`Fabric`]: regions, cost model, fault
/// injector and queue depths in one step.
///
/// Exactly one of [`regions`](Self::regions) or
/// [`fresh_regions`](Self::fresh_regions) is required (a fabric with no
/// ports is legal but useless); everything else is optional —
/// [`cost`](Self::cost) defaults to [`CostModel::default`],
/// [`injector`](Self::injector) to a reliable fabric, and [`sq_depth`](Self::sq_depth) to [`DEFAULT_SQ_DEPTH`].
///
/// ```
/// use drtm_base::CostModel;
/// use drtm_rdma::Fabric;
///
/// let fabric = Fabric::builder()
///     .fresh_regions(3, 1 << 20)       // required: one region per node
///     .cost(CostModel::default())      // optional
///     .sq_depth(64)                    // optional, default 128
///     .build();
/// assert_eq!(fabric.nodes(), 3);
/// ```
pub struct FabricBuilder {
    regions: Vec<Arc<MemoryRegion>>,
    cost: CostModel,
    injector: Option<Arc<dyn FaultInjector>>,
    sq_depth: usize,
}

impl Default for FabricBuilder {
    fn default() -> Self {
        Self {
            regions: Vec::new(),
            cost: CostModel::default(),
            injector: None,
            sq_depth: DEFAULT_SQ_DEPTH,
        }
    }
}

impl FabricBuilder {
    /// The per-node registered memory regions (one per node).
    pub fn regions(mut self, regions: Vec<Arc<MemoryRegion>>) -> Self {
        self.regions = regions;
        self
    }

    /// Convenience: `n` fresh zeroed regions of `bytes` each.
    pub fn fresh_regions(mut self, n: usize, bytes: usize) -> Self {
        self.regions = (0..n).map(|_| Arc::new(MemoryRegion::new(bytes))).collect();
        self
    }

    /// The virtual-time cost model shared by all verbs.
    pub fn cost(mut self, cost: CostModel) -> Self {
        self.cost = cost;
        self
    }

    /// Installs a fault injector from construction time onward.
    pub fn injector(mut self, injector: Arc<dyn FaultInjector>) -> Self {
        self.injector = Some(injector);
        self
    }

    /// Per-QP send-queue depth: how many WRs may be posted between
    /// doorbells (default [`DEFAULT_SQ_DEPTH`]).
    ///
    /// # Panics
    ///
    /// Panics if `depth` is zero.
    pub fn sq_depth(mut self, depth: usize) -> Self {
        assert!(depth >= 1, "sq_depth must be at least 1");
        self.sq_depth = depth;
        self
    }

    /// Assembles the fabric.
    pub fn build(self) -> Arc<Fabric> {
        let bw = self.cost.nic_bytes_per_sec;
        let ops = self.cost.nic_ops_per_sec;
        Arc::new(Fabric {
            ports: self
                .regions
                .into_iter()
                .map(|r| NodePort::new(r, bw, ops))
                .collect(),
            cost: self.cost,
            injector: RwLock::new(self.injector),
            sq_depth: self.sq_depth,
            next_batch: AtomicU64::new(1),
        })
    }
}

impl Fabric {
    /// Starts building a fabric; see [`FabricBuilder`].
    pub fn builder() -> FabricBuilder {
        FabricBuilder::default()
    }

    /// Number of nodes on the fabric.
    pub fn nodes(&self) -> usize {
        self.ports.len()
    }

    /// The port (region + NIC + stats) of `node`.
    pub fn port(&self, node: NodeId) -> &NodePort {
        &self.ports[node]
    }

    /// Maximum WRs postable on one QP send queue between doorbells.
    pub fn sq_depth(&self) -> usize {
        self.sq_depth
    }

    /// Installs a fault injector consulted on every verb.
    pub fn set_injector(&self, injector: Arc<dyn FaultInjector>) {
        *self.injector.write() = Some(injector);
    }

    /// Removes the installed fault injector, restoring a reliable fabric.
    pub fn clear_injector(&self) {
        *self.injector.write() = None;
    }

    /// Consults the installed injector (if any) for this verb issue.
    fn fault(&self, src: NodeId, dst: NodeId, verb: Verb, now: u64) -> Fault {
        match &*self.injector.read() {
            Some(inj) => inj.on_verb(src, dst, verb, now),
            None => Fault::NONE,
        }
    }

    /// Opens a queue pair from `src` to `dst`.
    pub fn qp(self: &Arc<Self>, src: NodeId, dst: NodeId) -> Qp {
        assert!(src < self.ports.len() && dst < self.ports.len());
        Qp {
            fabric: Arc::clone(self),
            src,
            dst,
            sq: Mutex::new(Vec::new()),
        }
    }

    /// Charges `wire` bytes against both endpoints' NICs at time `now`,
    /// returning the completion time. Loopback charges the single NIC once.
    fn charge_nics(&self, src: NodeId, dst: NodeId, now: u64, wire: u64) -> u64 {
        let t1 = self.ports[src].nic.reserve(now, wire);
        let o1 = self.ports[src].nic_ops.reserve(now, 1);
        if src == dst {
            return t1.max(o1);
        }
        let t2 = self.ports[dst].nic.reserve(now, wire);
        let o2 = self.ports[dst].nic_ops.reserve(now, 1);
        t1.max(t2).max(o1).max(o2)
    }
}

/// A reliable-connected queue pair between two nodes.
///
/// The native interface is the posted work-queue model: [`Qp::post`]
/// enqueues [`WorkRequest`]s, [`Qp::doorbell`] flushes them as one batch
/// — charging a single doorbell latency plus per-WR pipelined occupancy
/// — and [`Cq::poll`] returns the [`WorkCompletion`]s. The blocking
/// verbs ([`read`](Qp::read), [`write`](Qp::write), [`cas`](Qp::cas),
/// [`fetch_add`](Qp::fetch_add)) are thin wrappers running one WR
/// through post → doorbell → poll, re-posting it until it lands and
/// advancing the caller's clock to the completion time.
pub struct Qp {
    fabric: Arc<Fabric>,
    src: NodeId,
    dst: NodeId,
    sq: Mutex<Vec<WorkRequest>>,
}

impl Qp {
    /// Destination node of this queue pair.
    pub fn dst(&self) -> NodeId {
        self.dst
    }

    /// Source node of this queue pair.
    pub fn src(&self) -> NodeId {
        self.src
    }

    fn port(&self) -> &NodePort {
        self.fabric.port(self.dst)
    }

    /// Posts a work request on this QP's send queue. Nothing executes
    /// (and no virtual time is charged) until [`Qp::doorbell`].
    ///
    /// # Panics
    ///
    /// Panics if the send queue already holds the fabric's `sq_depth`
    /// posted WRs.
    pub fn post(&self, wr: WorkRequest) {
        let mut sq = self.sq.lock();
        assert!(
            sq.len() < self.fabric.sq_depth,
            "send queue overflow: {} WRs posted without a doorbell (sq_depth = {})",
            sq.len(),
            self.fabric.sq_depth
        );
        sq.push(wr);
    }

    /// WRs currently posted and not yet flushed by a doorbell.
    pub fn posted(&self) -> usize {
        self.sq.lock().len()
    }

    /// Rings the doorbell: flushes every posted WR to the destination as
    /// one batch and deposits a [`WorkCompletion`] per WR into `cq`.
    ///
    /// Cost accounting: the caller's clock is charged one
    /// `doorbell_ns`; WR `i` then enters the wire `i * verb_pipeline_ns`
    /// after the doorbell and completes after its own verb latency (plus
    /// NIC bandwidth/op backpressure and injected faults), so the batch
    /// finishes at the *max* of the per-WR completion times rather than
    /// their sum. The caller's clock is **not** advanced to those
    /// completions — that is [`Cq::poll`]'s job — which is what lets a
    /// protocol fan out doorbells to several destinations and overlap
    /// their round trips.
    ///
    /// Memory effects are applied here, in post order (RC QPs execute
    /// in order), up to the first WR whose injected fault drops it:
    /// that one completes with [`VerbError::Dropped`], and — an RC QP
    /// whose WR exhausts its retries enters the error state — every WR
    /// posted behind it is *flushed*: it completes with
    /// [`VerbError::Flushed`] at that instant, never goes on the wire
    /// (no NIC charge, no verb count, the injector is not consulted)
    /// and leaves memory untouched. So a WR's effect landed only if
    /// every WR ahead of it in the doorbell landed too. The error state
    /// ends with the call: the poster re-posts what failed, each failed
    /// WR handed back in its completion ([`WorkCompletion::wr`]).
    ///
    /// Returns the fabric-unique batch id, or 0 when nothing was posted.
    pub fn doorbell(&self, clock: &mut VClock, cq: &Cq) -> u64 {
        let wrs = std::mem::take(&mut *self.sq.lock());
        if wrs.is_empty() {
            return 0;
        }
        let posted = wrs.into_iter().map(|wr| PostedWr {
            cookie: 0,
            signalled: true,
            wr,
        });
        self.ring(clock, cq, posted.collect(), &mut None)
    }

    /// Rings doorbells over an explicit WR list carrying a per-WR
    /// completion cookie, bypassing this QP's send queue: the shared
    /// doorbell flush of a routine scheduler. Many routines' batches to
    /// one destination ride the same MMIO — the caller's clock is
    /// charged one `doorbell_ns` per `sq_depth`-sized chunk rather than
    /// one per routine, which is the whole point of doorbell batching
    /// (amortization grows with the number of concurrently parked
    /// routines). Per-WR pipelined occupancy, NIC backpressure, faults
    /// and memory-effect ordering are identical to [`Qp::doorbell`] —
    /// the chunks are one post sequence on one QP, so a failed WR
    /// flushes the rest of its chunk *and* every later chunk; each
    /// [`WorkCompletion`] carries its WR's own cookie so waiters claim
    /// their work with [`Cq::take_cookie`].
    pub fn doorbell_shared(&self, clock: &mut VClock, cq: &Cq, wrs: Vec<PostedWr>) {
        let depth = self.fabric.sq_depth;
        let mut rest = wrs;
        let mut failed_at = None;
        while !rest.is_empty() {
            let tail = rest.split_off(rest.len().min(depth));
            self.ring(clock, cq, rest, &mut failed_at);
            rest = tail;
        }
    }

    /// Executes one doorbell over `wrs`: charges one `doorbell_ns`,
    /// issues WR `i` at `i * verb_pipeline_ns` past the charge, applies
    /// effects in post order, deposits per-cookie completions.
    /// `failed_at` is the QP's error state — when the WR that entered
    /// it completed — carried from chunk to chunk of one post sequence.
    /// Shared tail of every doorbell flavour.
    fn ring(
        &self,
        clock: &mut VClock,
        cq: &Cq,
        wrs: Vec<PostedWr>,
        failed_at: &mut Option<u64>,
    ) -> u64 {
        debug_assert!(!wrs.is_empty(), "doorbell rung with nothing posted");
        let f = &self.fabric;
        let batch = f.next_batch.fetch_add(1, Ordering::Relaxed);
        clock.advance(f.cost.doorbell_ns, Cause::Doorbell);
        self.port().stats.doorbells.inc();
        let base = clock.now();
        for (i, posted) in wrs.into_iter().enumerate() {
            let verb = posted.wr.verb();
            let issue = base + i as u64 * f.cost.verb_pipeline_ns;
            drtm_obs::trace::event_batch(
                drtm_obs::EventKind::VerbIssue,
                verb.label(),
                self.dst as u64,
                batch,
                issue,
            );
            let (result, done_ns) = match *failed_at {
                Some(at) => (Err(VerbError::Flushed), at.max(issue)),
                None => {
                    let fault = f.fault(self.src, self.dst, verb, issue);
                    self.execute_wr(&posted.wr, issue, fault)
                }
            };
            if matches!(result, Err(VerbError::Dropped)) {
                *failed_at = Some(done_ns);
            }
            drtm_obs::trace::event_batch(
                drtm_obs::EventKind::VerbComplete,
                verb.label(),
                self.dst as u64,
                batch,
                done_ns,
            );
            cq.push(WorkCompletion {
                wr_id: i,
                batch,
                dst: self.dst,
                verb,
                done_ns,
                cookie: posted.cookie,
                signalled: posted.signalled,
                wr: result.is_err().then_some(posted.wr),
                result,
            });
        }
        batch
    }

    /// Executes one WR issued at `issue` ns: charges both NICs, applies
    /// the remote-memory effect (unless a drop eats it), and returns the
    /// outcome plus the WR's completion time.
    fn execute_wr(
        &self,
        wr: &WorkRequest,
        issue: u64,
        fault: Fault,
    ) -> (Result<WrResult, VerbError>, u64) {
        let f = &self.fabric;
        let port = self.port();
        let payload = wr.payload_len();
        let wire = f.cost.wire_bytes(payload) + fault.extra_wire;
        let nic_done = f.charge_nics(self.src, self.dst, issue, wire);
        let latency = match wr {
            WorkRequest::Read { len, .. } => f.cost.rdma_read(*len),
            WorkRequest::Write { data, .. } => f.cost.rdma_write(data.len()),
            WorkRequest::Cas { .. } | WorkRequest::Faa { .. } => f.cost.rdma_atomic_ns,
        };
        match wr.verb() {
            Verb::Read => port.stats.reads.inc(),
            Verb::Write => port.stats.writes.inc(),
            Verb::Cas | Verb::Faa => port.stats.atomics.inc(),
            Verb::Send => unreachable!("SENDs are not work requests"),
        }
        port.stats.bytes.add(payload as u64);
        let mut t = issue + latency + fault.delay_ns;
        if fault.drop {
            // The QP spends at least one retransmission round trip
            // before its retry budget runs out and it errors the WR.
            t += fault.delay_ns.max(f.cost.msg_ns);
        }
        let done = t.max(nic_done);
        if fault.drop {
            return (Err(VerbError::Dropped), done);
        }
        let result = match wr {
            WorkRequest::Read { raddr, len } => {
                let mut data = vec![0u8; *len];
                let versions = port.region.read_bytes_coherent(*raddr, &mut data);
                WrResult::Read { data, versions }
            }
            WorkRequest::Write { raddr, data } => {
                port.region.write_bytes_coherent(*raddr, data);
                WrResult::Write
            }
            WorkRequest::Cas { raddr, expect, new } => {
                WrResult::Cas(port.region.cas64(*raddr, *expect, *new))
            }
            WorkRequest::Faa { raddr, add } => WrResult::Faa(port.region.faa64(*raddr, *add)),
        };
        (Ok(result), done)
    }

    /// Runs one WR through the full post → doorbell → poll cycle,
    /// re-posting it until it lands: the blocking path.
    fn run_blocking(&self, clock: &mut VClock, mut wr: WorkRequest) -> WrResult {
        debug_assert_eq!(
            self.posted(),
            0,
            "blocking verb issued while WRs are still posted on this QP"
        );
        let cq = Cq::new();
        loop {
            self.post(wr);
            self.doorbell(clock, &cq);
            let wc = cq.poll(clock).pop().expect("one WR was posted");
            match wc.result {
                Ok(result) => return result,
                Err(_) => wr = wc.wr.expect("a failed WR comes back"),
            }
        }
    }

    /// One-sided RDMA READ of `buf.len()` bytes at remote byte offset
    /// `raddr`.
    ///
    /// Returns the version word each touched cache line was observed at
    /// (even values; the read retries internally while a line is
    /// mid-write, like the DMA engine re-snooping a locked line).
    pub fn read(&self, clock: &mut VClock, raddr: usize, buf: &mut [u8]) -> Vec<u64> {
        let wr = WorkRequest::Read {
            raddr,
            len: buf.len(),
        };
        match self.run_blocking(clock, wr) {
            WrResult::Read { data, versions } => {
                buf.copy_from_slice(&data);
                versions
            }
            _ => unreachable!("READ WR yields a READ result"),
        }
    }

    /// One-sided RDMA WRITE of `data` at remote byte offset `raddr`.
    ///
    /// Applied one cache line at a time: atomic within each line, not
    /// across lines (Figure 4 of the paper). Bumps the line versions, so
    /// conflicting HTM transactions on the target abort.
    pub fn write(&self, clock: &mut VClock, raddr: usize, data: &[u8]) {
        let wr = WorkRequest::Write {
            raddr,
            data: data.to_vec(),
        };
        match self.run_blocking(clock, wr) {
            WrResult::Write => {}
            _ => unreachable!("WRITE WR yields a WRITE result"),
        }
    }

    /// One-sided RDMA compare-and-swap on the 8-byte word at `raddr`.
    ///
    /// Returns `Ok(old)` when the swap happened, `Err(actual)` otherwise.
    /// On success the containing line's version is bumped (the NIC's DMA
    /// write invalidates the line, aborting conflicting HTM readers).
    pub fn cas(&self, clock: &mut VClock, raddr: usize, expect: u64, new: u64) -> Result<u64, u64> {
        let wr = WorkRequest::Cas { raddr, expect, new };
        match self.run_blocking(clock, wr) {
            WrResult::Cas(res) => res,
            _ => unreachable!("CAS WR yields a CAS result"),
        }
    }

    /// One-sided RDMA fetch-and-add on the 8-byte word at `raddr`,
    /// returning the previous value.
    pub fn fetch_add(&self, clock: &mut VClock, raddr: usize, add: u64) -> u64 {
        let wr = WorkRequest::Faa { raddr, add };
        match self.run_blocking(clock, wr) {
            WrResult::Faa(old) => old,
            _ => unreachable!("FAA WR yields an FAA result"),
        }
    }
}

impl Fabric {
    /// Charges the virtual-time cost of a SEND/RECV round trip of
    /// `bytes` from `src` to `dst`: every two-sided message of the
    /// simulation. The caller applies the message's effect directly
    /// (e.g. shipping an insert to its host machine); only the wire cost
    /// is paid here. Injected SEND faults apply their delay, and a
    /// dropped SEND costs its retransmission — the effect still applies:
    /// RC retransmits until the request lands.
    pub fn charge_message(&self, clock: &mut VClock, src: NodeId, dst: NodeId, bytes: usize) {
        let fault = self.fault(src, dst, Verb::Send, clock.now());
        let wire = self.cost.wire_bytes(bytes) + fault.extra_wire;
        let done = self.charge_nics(src, dst, clock.now(), wire);
        clock.advance(self.cost.msg_ns, Cause::Message);
        clock.advance(fault.delay_ns, Cause::Message);
        if fault.drop {
            clock.advance(fault.delay_ns.max(self.cost.msg_ns), Cause::Message);
        }
        clock.advance_to(done, Cause::Message);
        self.ports[dst].stats.sends.inc();
        self.ports[dst].stats.bytes.add(bytes as u64);
    }
}

#[cfg(test)]
mod unit {
    use super::*;

    fn fabric(n: usize) -> Arc<Fabric> {
        Fabric::builder().fresh_regions(n, 4096).build()
    }

    #[test]
    fn read_write_roundtrip() {
        let f = fabric(2);
        let qp = f.qp(0, 1);
        let mut clock = VClock::new();
        qp.write(&mut clock, 128, b"hello rdma");
        let mut buf = [0u8; 10];
        qp.read(&mut clock, 128, &mut buf);
        assert_eq!(&buf, b"hello rdma");
        assert!(clock.now() > 0, "verbs charge virtual time");
        assert_eq!(f.port(1).stats().reads.get(), 1);
        assert_eq!(f.port(1).stats().writes.get(), 1);
        // The blocking wrappers run one WR per doorbell.
        assert_eq!(f.port(1).stats().doorbells.get(), 2);
    }

    #[test]
    fn cas_semantics() {
        let f = fabric(2);
        let qp = f.qp(0, 1);
        let mut clock = VClock::new();
        assert_eq!(qp.cas(&mut clock, 0, 0, 5), Ok(0));
        assert_eq!(qp.cas(&mut clock, 0, 0, 9), Err(5));
        assert_eq!(qp.fetch_add(&mut clock, 0, 3), 5);
        assert_eq!(f.port(1).region().load64(0), 8);
    }

    #[test]
    fn loopback_charges_one_nic() {
        let f = fabric(1);
        let qp = f.qp(0, 0);
        let mut clock = VClock::new();
        qp.write(&mut clock, 0, &[1u8; 64]);
        assert!(f.port(0).nic().granted() > 0);
    }

    #[test]
    fn bandwidth_backpressure_shows_in_clock() {
        // Deliberately tiny bandwidth: 1 MB/s.
        let cost = CostModel {
            nic_bytes_per_sec: 1.0e6,
            ..Default::default()
        };
        let f = Fabric::builder()
            .fresh_regions(2, 1 << 20)
            .cost(cost)
            .build();
        let qp = f.qp(0, 1);
        let mut clock = VClock::new();
        qp.write(&mut clock, 0, &vec![0u8; 100_000]);
        // 100 kB at 1 MB/s = ~100 ms of serialisation delay (the first
        // 100 µs window's share passes free).
        assert!(clock.now() >= 99_000_000, "clock = {}", clock.now());
    }

    #[test]
    fn snapshot_delta_diffs_counters() {
        let f = fabric(2);
        let qp = f.qp(0, 1);
        let mut clock = VClock::new();
        qp.write(&mut clock, 0, &[0u8; 16]);
        let before = f.port(1).stats().snapshot();
        qp.write(&mut clock, 0, &[0u8; 16]);
        let mut buf = [0u8; 8];
        qp.read(&mut clock, 0, &mut buf);
        qp.cas(&mut clock, 256, 0, 1).unwrap();
        let d = f.port(1).stats().delta(&before);
        assert_eq!((d.reads, d.writes, d.atomics, d.sends), (1, 1, 1, 0));
        assert_eq!(d.bytes, 16 + 8 + 8);
        assert_eq!(d.verbs(), 3, "doorbells are not verbs");
        assert_eq!(d.doorbells, 3, "one doorbell per blocking verb");
    }

    #[test]
    fn doorbell_batch_completes_at_max_not_sum() {
        // k WRITEs in one doorbell must cost far less than k blocking
        // WRITEs: one doorbell latency plus pipelined occupancy, with
        // the batch retiring at the slowest WR, not the serialized sum.
        let k = 8usize;
        let f = fabric(2);
        let qp = f.qp(0, 1);
        let mut serial = VClock::new();
        for i in 0..k {
            qp.write(&mut serial, i * 64, &[7u8; 16]);
        }
        let f2 = fabric(2);
        let qp2 = f2.qp(0, 1);
        let cq = Cq::new();
        let mut batched = VClock::new();
        for i in 0..k {
            qp2.post(WorkRequest::Write {
                raddr: i * 64,
                data: vec![7u8; 16],
            });
        }
        let batch = qp2.doorbell(&mut batched, &cq);
        assert!(batch > 0);
        let wcs = cq.poll(&mut batched);
        assert_eq!(wcs.len(), k);
        assert!(wcs.iter().all(|w| w.result.is_ok() && w.batch == batch));
        // Effects all landed.
        for i in 0..k {
            assert_eq!(f2.port(1).region().load64(i * 64), 0x0707070707070707);
        }
        assert_eq!(f2.port(1).stats().doorbells.get(), 1);
        assert_eq!(f2.port(1).stats().writes.get(), k as u64);
        assert!(
            batched.now() * 2 < serial.now(),
            "batched {} vs serial {}",
            batched.now(),
            serial.now()
        );
    }

    #[test]
    fn empty_doorbell_is_free() {
        let f = fabric(2);
        let qp = f.qp(0, 1);
        let cq = Cq::new();
        let mut clock = VClock::new();
        assert_eq!(qp.doorbell(&mut clock, &cq), 0);
        assert_eq!(clock.now(), 0);
        assert!(cq.is_empty());
        assert_eq!(f.port(1).stats().doorbells.get(), 0);
    }

    #[test]
    fn take_cookie_returns_completions_without_advancing_clock() {
        // The doorbell charges only its own latency; take_cookie() hands
        // back completions without making the caller sit on the round
        // trip (how the commit protocol claims its unsignalled unlocks).
        let f = fabric(2);
        let qp = f.qp(0, 1);
        let cq = Cq::new();
        let mut clock = VClock::new();
        qp.post(WorkRequest::Cas {
            raddr: 0,
            expect: 0,
            new: 9,
        });
        qp.doorbell(&mut clock, &cq);
        let after_doorbell = clock.now();
        assert_eq!(after_doorbell, f.cost.doorbell_ns);
        let wcs = cq.take_cookie(0);
        assert_eq!(clock.now(), after_doorbell, "claiming never blocks");
        assert_eq!(wcs.len(), 1);
        assert!(wcs[0].done_ns > after_doorbell);
        assert_eq!(wcs[0].result, Ok(WrResult::Cas(Ok(0))));
        assert_eq!(f.port(1).region().load64(0), 9, "effect already applied");
    }

    /// Drops the `k`-th one-sided verb it sees (0-based), then behaves.
    struct DropKth {
        k: u64,
        seen: AtomicU64,
    }
    impl FaultInjector for DropKth {
        fn on_verb(&self, _src: NodeId, _dst: NodeId, verb: Verb, _now: u64) -> Fault {
            if verb == Verb::Send {
                return Fault::NONE;
            }
            let n = self.seen.fetch_add(1, Ordering::Relaxed);
            Fault {
                drop: n == self.k,
                ..Fault::NONE
            }
        }
    }

    /// An 8-byte WRITE of `1`s at `raddr` for waiter `cookie`.
    fn write_for(cookie: u64, signalled: bool, raddr: usize) -> PostedWr {
        let data = vec![1u8; 8];
        PostedWr {
            cookie,
            signalled,
            wr: WorkRequest::Write { raddr, data },
        }
    }

    #[test]
    fn dropped_wr_in_batch_flushes_the_wrs_behind_it() {
        // Five WRs at `sq_depth` 2 are three doorbells of one post
        // sequence: the drop in the first flushes the other two whole.
        let f = Fabric::builder()
            .fresh_regions(2, 4096)
            .sq_depth(2)
            .injector(Arc::new(DropKth {
                k: 1,
                seen: AtomicU64::new(0),
            }))
            .build();
        let qp = f.qp(0, 1);
        let cq = Cq::new();
        let mut clock = VClock::new();
        let wrs = (0..5).map(|i| write_for(0, true, i * 64)).collect();
        qp.doorbell_shared(&mut clock, &cq, wrs);
        let wcs = cq.poll(&mut clock);
        assert!(wcs[0].result.is_ok());
        assert_eq!(wcs[0].wr, None, "a landed WR is not handed back");
        assert_eq!(wcs[1].result, Err(VerbError::Dropped));
        let region = f.port(1).region();
        assert_eq!(region.load64(0), 0x0101010101010101);
        for (i, wc) in wcs.iter().enumerate().skip(1) {
            let back = Some(write_for(0, true, i * 64).wr);
            assert_eq!(wc.wr, back, "WR {i} comes back to be re-posted");
        }
        for (i, wc) in wcs.iter().enumerate().skip(2) {
            assert_eq!(wc.result, Err(VerbError::Flushed), "WR {i}");
            assert!(wc.done_ns >= wcs[1].done_ns, "flushed when the QP failed");
            assert_eq!(region.load64(i * 64), 0, "a flushed WR has no effect");
        }
        let nic = f.port(1).stats().snapshot();
        assert_eq!((nic.writes, nic.doorbells), (2, 3), "flushed WRs stay home");
        // The error state ends with the call, and the injector was not
        // consulted for the flushed WRs: its count stands at 2.
        qp.post(WorkRequest::Read { raddr: 0, len: 8 });
        qp.doorbell(&mut clock, &cq);
        assert!(cq.poll(&mut clock)[0].result.is_ok());
    }

    #[test]
    fn dropped_wr_completion_surfaces_exactly_once() {
        // The doc contract on `Cq`: a chaos-dropped WR still deposits
        // one completion carrying the VerbError — it never vanishes and
        // is never duplicated, whichever consumption API is used.
        let f = Fabric::builder()
            .fresh_regions(2, 4096)
            .injector(Arc::new(DropKth {
                k: 0,
                seen: AtomicU64::new(0),
            }))
            .build();
        let qp = f.qp(0, 1);
        let cq = Cq::new();
        let mut clock = VClock::new();
        qp.post(WorkRequest::Write {
            raddr: 0,
            data: vec![1u8; 8],
        });
        qp.doorbell(&mut clock, &cq);
        assert_eq!(cq.len(), 1, "dropped WR still deposits its completion");
        let wcs = cq.take_cookie(0);
        assert_eq!(wcs.len(), 1);
        assert_eq!(wcs[0].result, Err(VerbError::Dropped));
        assert!(
            wcs[0].done_ns >= f.cost.msg_ns,
            "retry budget was spent before erroring"
        );
        // Exactly once: nothing left behind for any other consumer.
        assert!(cq.is_empty());
        assert!(cq.poll(&mut clock).is_empty());
    }

    #[test]
    fn dropped_wr_of_a_blocking_verb_is_reposted_until_it_lands() {
        // The first WRITE is dropped: the wrapper waits out its failed
        // completion, then rings a second doorbell that lands.
        let f = Fabric::builder()
            .fresh_regions(2, 4096)
            .injector(Arc::new(DropKth {
                k: 0,
                seen: AtomicU64::new(0),
            }))
            .build();
        let qp = f.qp(0, 1);
        let mut clock = VClock::new();
        qp.write(&mut clock, 0, &[1u8; 8]);
        assert_eq!(f.port(1).region().load64(0), 0x0101010101010101);
        let nic = f.port(1).stats().snapshot();
        assert_eq!((nic.writes, nic.doorbells), (2, 2), "{nic:?}");
        let clean = f.cost.doorbell_ns + f.cost.rdma_write(8);
        let penalty = f.cost.msg_ns;
        assert!(clock.now() >= 2 * clean + penalty, "{}", clock.now());
    }

    #[test]
    fn cookie_horizons_order_chaos_delayed_batches() {
        let f = Fabric::builder()
            .fresh_regions(2, 4096)
            .injector(Arc::new(DelayReads(50_000)))
            .build();
        let qp = f.qp(0, 1);
        let cq = Cq::new();
        let mut clock = VClock::new();
        // A fast WRITE and a chaos-delayed READ, each carrying its own
        // routine's cookie.
        let read = PostedWr {
            cookie: 2,
            signalled: true,
            wr: WorkRequest::Read { raddr: 0, len: 8 },
        };
        qp.doorbell_shared(&mut clock, &cq, vec![write_for(1, true, 0), read]);
        // The reactor sleeps each routine until its own horizon; the
        // delayed READ's must dominate the WRITE's.
        let hw = cq.cookie_horizon(1).expect("write queued");
        let hr = cq.cookie_horizon(2).expect("read queued");
        assert!(hr >= 50_000, "delayed READ dominates its horizon");
        assert!(hw < hr, "undelayed WRITE retires first");
        // Claiming the early batch leaves the in-flight one queued.
        let early = cq.take_cookie(1);
        assert_eq!(early.len(), 1);
        assert_eq!(early[0].verb, Verb::Write);
        assert_eq!(cq.len(), 1, "the in-flight READ stays queued");
        let late = cq.take_cookie(2);
        assert_eq!(late.len(), 1);
        assert_eq!(late[0].verb, Verb::Read);
        assert!(cq.is_empty());
    }

    #[test]
    fn shared_cq_routes_batches_by_cookie_and_id() {
        // Two "routines" share one CQ toward the same node; each tags
        // its doorbell with its routine id and later claims exactly its
        // own batch.
        let f = fabric(2);
        let qp = f.qp(0, 1);
        let cq = Cq::new();
        let mut clock = VClock::new();
        qp.doorbell_shared(&mut clock, &cq, vec![write_for(1, true, 0)]);
        let read = PostedWr {
            cookie: 2,
            signalled: true,
            wr: WorkRequest::Read { raddr: 64, len: 8 },
        };
        qp.doorbell_shared(&mut clock, &cq, vec![write_for(2, true, 64), read]);
        assert_eq!(cq.len(), 3);
        let h2 = cq.cookie_horizon(2).expect("batch 2 queued");
        assert!(h2 >= cq.cookie_horizon(1).unwrap());
        let mine = cq.take_cookie(2);
        assert_eq!(mine.len(), 2);
        assert!(mine
            .iter()
            .all(|w| w.cookie == 2 && w.batch == mine[0].batch));
        let theirs = cq.take_cookie(1);
        assert_eq!(theirs.len(), 1);
        assert_eq!(theirs[0].cookie, 1);
        assert_ne!(theirs[0].batch, mine[0].batch);
        assert!(cq.is_empty());
        assert!(cq.cookie_horizon(1).is_none());
    }

    #[test]
    fn sq_depth_limits_posted_wrs() {
        let f = Fabric::builder().fresh_regions(1, 4096).sq_depth(2).build();
        let qp = f.qp(0, 0);
        qp.post(WorkRequest::Read { raddr: 0, len: 8 });
        qp.post(WorkRequest::Read { raddr: 0, len: 8 });
        assert_eq!(qp.posted(), 2);
        let res = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            qp.post(WorkRequest::Read { raddr: 0, len: 8 });
        }));
        assert!(res.is_err(), "third post must overflow the send queue");
    }

    struct DropAllSends;
    impl FaultInjector for DropAllSends {
        fn on_verb(&self, _src: NodeId, _dst: NodeId, verb: Verb, _now: u64) -> Fault {
            Fault {
                drop: verb == Verb::Send,
                ..Fault::NONE
            }
        }
    }

    #[test]
    fn injector_drops_sends_but_not_one_sided() {
        let f = fabric(2);
        let send = |f: &Fabric| {
            let mut clock = VClock::new();
            f.charge_message(&mut clock, 0, 1, 16);
            clock.now()
        };
        let clean = send(&f);
        f.set_injector(Arc::new(DropAllSends));
        // A dropped SEND is retransmitted: `max(delay, msg_ns)` later.
        let dropped = send(&f);
        assert_eq!(dropped, clean + f.cost.msg_ns);
        assert_eq!(f.port(1).stats().sends.get(), 2, "a dropped SEND counts");
        let qp = f.qp(0, 1);
        let mut clock = VClock::new();
        qp.write(&mut clock, 0, b"still lands");
        let mut buf = [0u8; 11];
        qp.read(&mut clock, 0, &mut buf);
        assert_eq!(&buf, b"still lands");
        f.clear_injector();
        assert_eq!(send(&f), clean, "fabric reliable again");
    }

    struct DelayReads(u64);
    impl FaultInjector for DelayReads {
        fn on_verb(&self, _src: NodeId, _dst: NodeId, verb: Verb, _now: u64) -> Fault {
            Fault {
                delay_ns: if verb == Verb::Read { self.0 } else { 0 },
                ..Fault::NONE
            }
        }
    }

    #[test]
    fn injected_delay_charges_victim_clock() {
        let f = fabric(2);
        let qp = f.qp(0, 1);
        let mut buf = [0u8; 8];
        let mut base = VClock::new();
        qp.read(&mut base, 0, &mut buf);
        let clean = base.now();
        f.set_injector(Arc::new(DelayReads(1_000_000)));
        let mut slow = VClock::new();
        qp.read(&mut slow, 0, &mut buf);
        assert!(
            slow.now() >= clean + 1_000_000,
            "delay charged: {} vs {clean}",
            slow.now()
        );
    }
}
