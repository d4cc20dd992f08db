//! Virtual time and the operation cost model.
//!
//! A host of a core or two cannot run a many-node, many-thread cluster at
//! its speed, so wall-clock throughput would only measure the host.
//! Instead, every simulated worker owns a [`VClock`] — a private
//! nanosecond counter — and charges each operation a cost drawn from a
//! [`CostModel`]. Shared resources (the per-node NIC) are modelled in the
//! same virtual time by [`crate::link::LinkBudget`].
//!
//! Every charge names its [`Cause`] — a `CostModel` term, or what the
//! worker waited on — and the clock keeps one sum per cause, so a
//! worker's time splits by what it was spent on ([`Ledger`]).
//!
//! Throughput is then `committed transactions / elapsed virtual time`. A
//! closed-loop run steps every worker slot on one drive loop in
//! virtual-time order (`drtm_core::routine`): its conflicts and aborts
//! come from real accesses to shared memory in that order, and the run is
//! a pure function of its configuration and seed.
//!
//! The default [`CostModel`] constants are calibrated to the paper's
//! testbed (two-socket Xeon E5-2650 v3, ConnectX-3 56 Gbps InfiniBand):
//! one-sided RDMA ops take a couple of microseconds, an RDMA CAS is about
//! two orders of magnitude slower than a local CAS (§6.2 of the paper),
//! and IPoIB messaging (used by the Calvin baseline) is an order of
//! magnitude slower again.

/// Declares [`Cause`], its ledger order ([`Cause::ALL`]) and its report
/// names from one list.
macro_rules! causes {
    ($($(#[$doc:meta])* $cause:ident => $name:literal,)*) => {
        /// Why a clock moved: one CPU kind per [`CostModel`] term the
        /// engines charge, then one wait kind per thing a worker waits
        /// on. Every [`VClock::advance`] and [`VClock::advance_to`]
        /// names one, so a worker's virtual time splits into what it was
        /// spent on ([`Ledger`]).
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        pub enum Cause {
            $($(#[$doc])* $cause,)*
        }

        impl Cause {
            /// Every cause, in ledger order: the CPU kinds, then the
            /// waits.
            pub const ALL: [Cause; Cause::COUNT] = [$(Cause::$cause),*];

            /// The cause's report name.
            pub fn name(self) -> &'static str {
                match self {
                    $(Cause::$cause => $name,)*
                }
            }
        }
    };
}

causes! {
    /// Per-transaction bookkeeping (`txn_overhead_ns`).
    TxnOverhead => "txn_overhead",
    /// Application logic per record (`record_logic_ns`).
    RecordLogic => "record_logic",
    /// Local memory touched, per cache line (`mem_access_ns`).
    MemAccess => "mem_access",
    /// Local lock-word CASes (`local_cas_ns`).
    LocalCas => "local_cas",
    /// Entering HTM regions (`htm_begin_ns`).
    HtmBegin => "htm_begin",
    /// Committing HTM regions (`htm_commit_ns`).
    HtmCommit => "htm_commit",
    /// Cache lines an HTM commit tracks (`htm_per_line_ns`).
    HtmLine => "htm_line",
    /// Ringing doorbells (`doorbell_ns`).
    Doorbell => "doorbell",
    /// Two-sided SEND/RECV messages (`msg_ns`), their injected delays
    /// and NIC backlog included.
    Message => "message",
    /// IPoIB round trips (`ipoib_rtt_ns`): Calvin's sequencing and
    /// result forwarding.
    Ipoib => "ipoib",
    /// Randomised back-off before a retry.
    Backoff => "backoff",
    /// Waiting for one-sided verbs to complete.
    VerbWait => "verb_wait",
    /// R.1's log WRITEs held back past their latency by a NIC budget
    /// (bytes or verbs per second) in deficit.
    NicBudget => "nic_budget",
    /// Waiting for R.1's log WRITEs to land on the backups.
    LogFlush => "log_flush",
    /// Waiting for a lock another transaction holds, Calvin's lock
    /// service included.
    LockWait => "lock_wait",
    /// The core held by a sibling routine of the same pool.
    Sibling => "sibling",
    /// An idle serve routine waiting for a request.
    Admission => "admission",
}

impl Cause {
    /// How many causes there are.
    pub const COUNT: usize = Cause::Admission as usize + 1;
}

/// Virtual nanoseconds spent, per [`Cause`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ledger([u64; Cause::COUNT]);

impl Ledger {
    /// Nanoseconds spent on `cause`.
    #[inline]
    pub fn get(&self, cause: Cause) -> u64 {
        self.0[cause as usize]
    }

    /// Nanoseconds spent on every cause together.
    pub fn total(&self) -> u64 {
        self.0.iter().sum()
    }
}

impl std::ops::AddAssign<&Ledger> for Ledger {
    fn add_assign(&mut self, other: &Ledger) {
        for (a, b) in self.0.iter_mut().zip(other.0) {
            *a += b;
        }
    }
}

/// A private virtual-time clock, in nanoseconds, and what it was spent
/// on.
///
/// Workers advance the clock explicitly; it never reads the host clock.
/// Each advance names its [`Cause`], so [`Self::spent`] always totals
/// [`Self::now`].
#[derive(Debug, Clone, Default)]
pub struct VClock {
    now_ns: u64,
    spent: Ledger,
}

impl VClock {
    /// Creates a clock at time zero.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current virtual time in nanoseconds.
    #[inline]
    pub fn now(&self) -> u64 {
        self.now_ns
    }

    /// What the clock's time was spent on.
    pub fn spent(&self) -> &Ledger {
        &self.spent
    }

    /// Advances the clock by `ns` nanoseconds spent on `cause`.
    #[inline]
    pub fn advance(&mut self, ns: u64, cause: Cause) {
        self.now_ns += ns;
        self.spent.0[cause as usize] += ns;
    }

    /// Advances the clock to `t` if `t` is in the future (used after
    /// waiting on a shared resource whose grant time may exceed `now`),
    /// the jump spent on `cause`.
    #[inline]
    pub fn advance_to(&mut self, t: u64, cause: Cause) {
        if t > self.now_ns {
            self.advance(t - self.now_ns, cause);
        }
    }
}

/// Per-operation virtual-time costs, in nanoseconds unless noted.
///
/// All fields are public so experiments can perform ablations (e.g. "what
/// if RDMA CAS were as fast as a local CAS?").
#[derive(Debug, Clone)]
pub struct CostModel {
    /// One-sided RDMA READ base latency (PCIe + NIC + fabric, one hop).
    pub rdma_read_ns: u64,
    /// One-sided RDMA WRITE base latency.
    pub rdma_write_ns: u64,
    /// One-sided RDMA atomic (CAS / FAA) latency. Roughly 100x a local
    /// CAS, matching §6.2.
    pub rdma_atomic_ns: u64,
    /// Additional cost per byte moved over the NIC, derived from link
    /// bandwidth. 56 Gbps ≈ 7 GB/s ≈ 0.143 ns/B.
    pub rdma_ns_per_byte: f64,
    /// SEND/RECV verb message latency (one way), used for shipping
    /// inserts/deletes and control messages.
    pub msg_ns: u64,
    /// Round-trip cost of a message over IPoIB (no RDMA), used by the
    /// Calvin baseline.
    pub ipoib_rtt_ns: u64,
    /// Local compare-and-swap.
    pub local_cas_ns: u64,
    /// Local memory access touching one cache line (approx. L3/DRAM mix).
    pub mem_access_ns: u64,
    /// Entering an HTM region (XBEGIN).
    pub htm_begin_ns: u64,
    /// Committing an HTM region (XEND), excluding per-line costs.
    pub htm_commit_ns: u64,
    /// Per-cache-line cost inside an HTM commit (validation/write-back).
    pub htm_per_line_ns: u64,
    /// Fixed per-transaction bookkeeping (buffer management etc.). The
    /// paper attributes DrTM+R's ~2-10% overhead versus DrTM to
    /// "manually maintaining the local read/write buffers".
    pub txn_overhead_ns: u64,
    /// Cost of executing the transaction's application logic per record
    /// accessed (hashing, B+-tree walk, marshalling).
    pub record_logic_ns: u64,
    /// NIC link bandwidth in bytes per virtual second (per direction).
    pub nic_bytes_per_sec: f64,
    /// NIC verb-rate ceiling in operations per virtual second. Small
    /// messages saturate a ConnectX-3's processing rate long before its
    /// bandwidth — this is what caps replicated SmallBank at ~8 threads
    /// in the paper (Figures 15/16).
    pub nic_ops_per_sec: f64,
    /// Cost of ringing a doorbell: the MMIO write plus the NIC's fetch of
    /// the first WQE. Charged once per doorbell regardless of how many
    /// work requests the batch carries — this is the lever that makes
    /// doorbell batching pay (RDMA-CC, arXiv:2002.12664).
    pub doorbell_ns: u64,
    /// Per-work-request issue occupancy inside a batch: successive WRs of
    /// one doorbell enter the wire this many ns apart (WQE fetch + SGE
    /// DMA), so a batch completes at `doorbell + max_i(i*pipeline +
    /// latency_i)` instead of the sum of full latencies.
    pub verb_pipeline_ns: u64,
}

impl Default for CostModel {
    fn default() -> Self {
        Self {
            rdma_read_ns: 1_500,
            rdma_write_ns: 1_400,
            rdma_atomic_ns: 2_200,
            rdma_ns_per_byte: 0.143,
            msg_ns: 3_000,
            ipoib_rtt_ns: 60_000,
            local_cas_ns: 20,
            mem_access_ns: 60,
            htm_begin_ns: 20,
            htm_commit_ns: 20,
            htm_per_line_ns: 15,
            txn_overhead_ns: 550,
            record_logic_ns: 180,
            nic_bytes_per_sec: 7.0e9,
            nic_ops_per_sec: 6.0e6,
            doorbell_ns: 250,
            verb_pipeline_ns: 100,
        }
    }
}

impl CostModel {
    /// Cost of a one-sided RDMA READ of `bytes` bytes (latency portion
    /// only; bandwidth is accounted by the NIC's [`crate::LinkBudget`]).
    #[inline]
    pub fn rdma_read(&self, bytes: usize) -> u64 {
        self.rdma_read_ns + (self.rdma_ns_per_byte * bytes as f64) as u64
    }

    /// Cost of a one-sided RDMA WRITE of `bytes` bytes.
    #[inline]
    pub fn rdma_write(&self, bytes: usize) -> u64 {
        self.rdma_write_ns + (self.rdma_ns_per_byte * bytes as f64) as u64
    }

    /// Bytes on the wire for a payload, including verb/packet headers.
    #[inline]
    pub fn wire_bytes(&self, payload: usize) -> u64 {
        // InfiniBand RC transport adds roughly 60B of headers per op.
        payload as u64 + 60
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn clock_advances() {
        let mut c = VClock::new();
        assert_eq!(c.now(), 0);
        c.advance(10, Cause::Doorbell);
        assert_eq!(c.now(), 10);
        c.advance_to(5, Cause::VerbWait);
        assert_eq!(c.now(), 10, "advance_to never goes backwards");
        c.advance_to(50, Cause::VerbWait);
        assert_eq!(c.now(), 50);
        let spent = c.spent();
        assert_eq!(
            (spent.get(Cause::Doorbell), spent.get(Cause::VerbWait)),
            (10, 40)
        );
        assert_eq!(spent.total(), c.now());
    }

    #[test]
    fn causes_are_listed_once_in_ledger_order() {
        for (i, c) in Cause::ALL.into_iter().enumerate() {
            assert_eq!(c as usize, i, "{}", c.name());
        }
    }

    #[test]
    fn default_costs_are_sane() {
        let m = CostModel::default();
        // RDMA CAS must be ~two orders of magnitude above a local CAS (§6.2).
        assert!(m.rdma_atomic_ns >= 50 * m.local_cas_ns);
        // IPoIB messaging is far slower than one-sided RDMA.
        assert!(m.ipoib_rtt_ns > 10 * m.rdma_read_ns);
        // Payload size contributes.
        assert!(m.rdma_read(4096) > m.rdma_read(8));
        // A doorbell is much cheaper than any one-sided verb, and the
        // per-WR pipeline slot cheaper still — otherwise batching could
        // never win over blocking issues.
        assert!(m.doorbell_ns * 4 < m.rdma_write_ns);
        assert!(m.verb_pipeline_ns <= m.doorbell_ns);
    }
}
