//! Sharded metrics registry.
//!
//! Each worker thread owns an [`Arc<Shard>`]; all recording goes to the
//! worker's own shard so hot paths never contend on shared atomics.
//! [`Registry::scrape`] merges every shard into a plain-data
//! [`Snapshot`] — the only time cross-shard aggregation happens.

use std::sync::Arc;

use drtm_base::stats::{Counter, Histogram};
use drtm_base::sync::RwLock;

use crate::{enabled, Phase, ABORT_REASONS, HTM_CLASSES};

/// Declares [`Shard`] from one row per recorded scalar:
/// `/// doc` / `field => snapshot slot [: max];`. A row generates the
/// public `Counter` field, its line of `Shard::new`, its fold into the
/// [`Snapshot`] slot at scrape (summed across shards, or the maximum
/// for a `: max` gauge) — so a new counter is this row, its
/// stats-struct field, its `note_*` recorder and its exposition row in
/// `expo.rs`, and nothing else.
macro_rules! shard {
    ($($(#[$doc:meta])* $name:ident => $($slot:ident).+ $(: $fold:ident)?;)*) => {
        /// Per-worker metric shard. All fields are plain `drtm-base` atomics;
        /// a shard is only ever written by its owning worker (reads may come
        /// from a concurrent scrape, which the atomics make safe).
        #[derive(Debug)]
        pub struct Shard {
            /// Node this shard's worker runs on (shards of the same node are
            /// merged into one machine row at scrape time).
            pub node: usize,
            $($(#[$doc])* pub $name: Counter,)*
            /// End-to-end committed-transaction latency, virtual ns.
            pub latency: Histogram,
            /// Per-phase time, virtual ns, indexed by [`Phase::index`].
            pub phases: [Histogram; Phase::COUNT],
            /// Abort attempts by reason, indexed like [`ABORT_REASONS`].
            pub aborts: [Counter; ABORT_REASONS.len()],
            /// Per-phase verb-wait portion, virtual ns, indexed by
            /// [`Phase::index`] — subtract from [`Shard::phases`] for the
            /// CPU-occupied remainder of each phase.
            pub phase_waits: [Histogram; Phase::COUNT],
            /// Virtual ns each lock wait lasted (DESIGN.md §15).
            pub parked_ns: Histogram,
        }

        impl Shard {
            fn new(node: usize) -> Self {
                Self {
                    node,
                    $($name: Counter::new(),)*
                    latency: Histogram::new(),
                    phases: std::array::from_fn(|_| Histogram::new()),
                    aborts: std::array::from_fn(|_| Counter::new()),
                    phase_waits: std::array::from_fn(|_| Histogram::new()),
                    parked_ns: Histogram::new(),
                }
            }

            /// Folds every scalar row into its slot of `snap`.
            fn fold_scalars(&self, snap: &mut Snapshot) {
                $(shard!(@fold snap.$($slot).+, self.$name.get() $(, $fold)?);)*
            }
        }

        /// The rows again, for the table-driven test in `tests.rs`: field
        /// name, slot path, both accessors and whether shards fold by max.
        #[cfg(test)]
        #[allow(clippy::type_complexity)]
        pub(crate) const SCALARS: &[(&str, &[&str], fn(&Shard) -> &Counter, fn(&Snapshot) -> u64, bool)] = &[$((
            stringify!($name),
            &[$(stringify!($slot)),+],
            |sh| &sh.$name,
            |snap| snap.$($slot).+,
            shard!(@max $($fold)?),
        )),*];
    };
    (@fold $slot:expr, $v:expr) => { $slot += $v };
    (@fold $slot:expr, $v:expr, max) => { $slot = $slot.max($v) };
    (@max) => { false };
    (@max max) => { true };
}

shard! {
    /// Committed transactions.
    committed => committed;
    /// Aborted transaction *attempts* (a txn retried 3 times counts 3).
    aborted => aborted;
    /// Commits that went through the software fallback path (§6.1).
    fallbacks => fallbacks;
    /// Explicit user aborts.
    user_aborts => user_aborts;
    /// Read-only commits that ran the validation pass: a read set built
    /// by more than one atomic read, or holding an odd sequence number.
    /// A pass that aborts counts too.
    ro_validations => ro_validations;
    /// Size of the reactor this shard's worker last attached to (1 for
    /// a worker outside any pool; the pool size inside one). Scrape
    /// reports the *maximum* across shards as the gauge.
    routines => pipeline.routines: max;
    /// Total virtual ns this shard's routines spent waiting on verb
    /// completions (doorbell rung → batch horizon).
    verb_wait_ns => pipeline.wait_ns;
    /// Portion of [`Shard::verb_wait_ns`] during which the worker's CPU
    /// was running *other* routines — latency genuinely hidden by the
    /// scheduler. `overlap / wait` is the latency-hiding ratio.
    verb_overlap_ns => pipeline.overlap_ns;
    /// Reactor wake-ups: times a parked routine was granted the CPU
    /// after a yield point (a lone routine is granted at every wait).
    reactor_wakes => pipeline.wakes;
    /// Sum over wakes of the reactor's waiting-set depth at dispatch —
    /// `depth_sum / wakes` is the mean number of runnable-or-parked
    /// routines the reactor was juggling.
    reactor_depth_sum => pipeline.depth_sum;
    /// Sum over wakes of grant lag: virtual ns between a routine's wake
    /// time (its batch horizon) and the instant the reactor actually
    /// resumed it (another routine's CPU segment was in the way).
    reactor_lag_ns => pipeline.wake_lag_ns;
    /// Commits forced onto rung 2 of the contention ladder (pessimistic
    /// wait-mode C.1 acquisition, DESIGN.md §15).
    contention_pessimistic => contention.pessimistic;
    /// Lock waits begun (DESIGN.md §15).
    key_parks => contention.parks;
    /// Lock waits ended, by a release or by their poll cap;
    /// `parks − unparks` is the live waiters gauge.
    key_unparks => contention.unparks;
    /// Lock waits ended by a release.
    key_grants => contention.grants;
}

/// A worker's results — `committed`, `aborted`, `fallbacks`,
/// `user_aborts` and `latency` — are counted in every build: they are
/// the engine's answer, read by the drivers and the tests. Every other
/// recorder, the per-reason abort breakdown included, records only
/// when [`enabled`].
impl Shard {
    /// Records a committed transaction with its end-to-end latency.
    #[inline]
    pub fn note_commit(&self, latency_ns: u64) {
        self.committed.inc();
        self.latency.record(latency_ns);
    }

    /// Records one aborted attempt. `reason` indexes [`ABORT_REASONS`];
    /// out-of-range values are clamped onto the last slot rather than
    /// panicking in the hot path.
    #[inline]
    pub fn note_abort(&self, reason: usize) {
        self.aborted.inc();
        if enabled() {
            self.aborts[reason.min(ABORT_REASONS.len() - 1)].inc();
        }
    }

    /// Records a commit that used the software fallback path.
    #[inline]
    pub fn note_fallback(&self) {
        self.fallbacks.inc();
    }

    /// Records an explicit user abort. Counted in the per-reason
    /// breakdown under `user`, but not as a protocol abort (`aborted`
    /// tracks attempts the engine itself had to retry).
    #[inline]
    pub fn note_user_abort(&self) {
        self.user_aborts.inc();
        if enabled() {
            self.aborts[ABORT_REASONS.len() - 1].inc();
        }
    }

    /// Records a read-only commit that runs the validation pass.
    #[inline]
    pub fn note_ro_validation(&self) {
        if enabled() {
            self.ro_validations.inc();
        }
    }

    /// Records time spent in one commit-protocol phase.
    #[inline]
    pub fn note_phase(&self, phase: Phase, ns: u64) {
        if enabled() {
            self.phases[phase.index()].record(ns);
        }
    }

    /// Records the size of the reactor this worker's routine just
    /// attached to (its own reactor of one at construction, a pool's at
    /// pool attach), replacing the previous value; the scrape gauge is
    /// the max across shards.
    #[inline]
    pub fn note_routines(&self, n: u64) {
        if enabled() {
            self.routines.take();
            self.routines.add(n);
        }
    }

    /// Records one verb wait: `wait_ns` from doorbell to batch horizon,
    /// of which `overlap_ns` elapsed while other routines held the CPU.
    #[inline]
    pub fn note_verb_wait(&self, wait_ns: u64, overlap_ns: u64) {
        if enabled() {
            self.verb_wait_ns.add(wait_ns);
            self.verb_overlap_ns.add(overlap_ns);
        }
    }

    /// Records the verb-wait portion of one commit-protocol phase (the
    /// companion of [`Shard::note_phase`]; occupied = phase − wait).
    #[inline]
    pub fn note_phase_wait(&self, phase: Phase, ns: u64) {
        if enabled() {
            self.phase_waits[phase.index()].record(ns);
        }
    }

    /// Records one reactor wake-up: the routine was resumed with `depth`
    /// entries in the waiting set and `lag_ns` of virtual time between
    /// its wake horizon and its actual resume instant.
    #[inline]
    pub fn note_reactor(&self, depth: u64, lag_ns: u64) {
        if enabled() {
            self.reactor_wakes.inc();
            self.reactor_depth_sum.add(depth);
            self.reactor_lag_ns.add(lag_ns);
        }
    }

    /// Records a commit escalated to rung 2 (pessimistic wait-mode C.1).
    #[inline]
    pub fn note_contention_pessimistic(&self) {
        if enabled() {
            self.contention_pessimistic.inc();
        }
    }

    /// Records a lock wait beginning.
    #[inline]
    pub fn note_key_park(&self) {
        if enabled() {
            self.key_parks.inc();
        }
    }

    /// Records a lock wait ending after `span_ns` virtual ns (by a
    /// release or by its poll cap).
    #[inline]
    pub fn note_key_unpark(&self, span_ns: u64) {
        if enabled() {
            self.key_unparks.inc();
            self.parked_ns.record(span_ns);
        }
    }

    /// Records a lock wait ended by a release.
    #[inline]
    pub fn note_key_grant(&self) {
        if enabled() {
            self.key_grants.inc();
        }
    }
}

/// The per-cluster registry: hands out shards, merges them on scrape.
#[derive(Debug, Default)]
pub struct Registry {
    shards: RwLock<Vec<Arc<Shard>>>,
}

impl Registry {
    /// Creates an empty registry.
    pub fn new() -> Self {
        Self::default()
    }

    /// Allocates a fresh shard for a worker on `node`. Called once per
    /// worker at construction — never on the hot path.
    pub fn shard(&self, node: usize) -> Arc<Shard> {
        let s = Arc::new(Shard::new(node));
        self.shards.write().push(Arc::clone(&s));
        s
    }

    /// Clones the current shard handles (for tests and custom scrapes).
    pub fn shards(&self) -> Vec<Arc<Shard>> {
        self.shards.read().clone()
    }

    /// Merges every shard into a plain-data [`Snapshot`]. Safe to call
    /// while workers are actively recording: each underlying atomic is
    /// read with relaxed loads, so the snapshot is a consistent-enough
    /// point-in-time view (counts can trail sums by in-flight updates,
    /// never tear).
    pub fn scrape(&self) -> Snapshot {
        // Histograms merge into a scratch shard, scalars fold straight
        // into the snapshot.
        let total = Shard::new(0);
        let mut snap = Snapshot::default();
        for s in &self.shards() {
            s.fold_scalars(&mut snap);
            total.latency.merge(&s.latency);
            total.parked_ns.merge(&s.parked_ns);
            let per_phase = total.phases.iter().chain(&total.phase_waits);
            let mine = s.phases.iter().chain(&s.phase_waits);
            per_phase.zip(mine).for_each(|(agg, h)| agg.merge(h));
            for (slot, c) in snap.aborts.iter_mut().zip(&s.aborts) {
                slot.1 += c.get();
            }
            let at = snap.machines.iter().position(|m| m.node == s.node);
            let at = at.unwrap_or_else(|| {
                snap.machines.push(MachineRow {
                    node: s.node,
                    committed: 0,
                    aborted: 0,
                    fallbacks: 0,
                    alive: true,
                });
                snap.machines.len() - 1
            });
            let m = &mut snap.machines[at];
            m.committed += s.committed.get();
            m.aborted += s.aborted.get();
            m.fallbacks += s.fallbacks.get();
        }
        snap.machines.sort_by_key(|m| m.node);
        snap.contention.parked_ns = HistSummary::of(&total.parked_ns);
        snap.latency = HistSummary::of(&total.latency);
        let summaries = |hs: &[Histogram]| {
            let named = Phase::ALL.iter().zip(hs);
            named.map(|(p, h)| (p.name(), HistSummary::of(h))).collect()
        };
        snap.phases = summaries(&total.phases);
        snap.phase_waits = summaries(&total.phase_waits);
        snap
    }
}

/// `num / den`, 0 when `den` is 0: every rate and mean of the stats
/// structs below.
fn ratio(num: u64, den: u64) -> f64 {
    if den == 0 {
        0.0
    } else {
        num as f64 / den as f64
    }
}

/// Value-cache counters. No engine path caches values, so a scrape
/// leaves them zero; the section stays because the benchmark
/// harness and the exposition names (`drtm_cache_*`) read it.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// Remote reads served from the cache (no READ verb issued).
    pub hits: u64,
    /// Remote reads that went to the wire and filled the cache.
    pub misses: u64,
    /// Entries dropped as stale (validation, incarnation, recovery).
    pub invalidations: u64,
    /// Wire bytes the hits avoided.
    pub bytes_saved: u64,
}

impl CacheStats {
    /// Hit fraction in `[0, 1]`; 0 when no lookups were recorded.
    pub fn hit_rate(&self) -> f64 {
        ratio(self.hits, self.hits + self.misses)
    }
}

/// Aggregated routine-scheduler counters (merged across shards at
/// scrape). Every worker waits through a reactor, so these count on
/// every run; a reactor of one reports depth 1, no overlap and no lag.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PipelineStats {
    /// In-flight-routines gauge: the largest reactor any worker waits
    /// on (1 when no worker ran in a pool).
    pub routines: u64,
    /// Total virtual ns spent waiting on verb completions.
    pub wait_ns: u64,
    /// Portion of [`PipelineStats::wait_ns`] overlapped with other
    /// routines' CPU work on the same worker.
    pub overlap_ns: u64,
    /// Reactor wake-ups (parked routines granted the CPU).
    pub wakes: u64,
    /// Sum over wakes of the reactor waiting-set depth at dispatch.
    pub depth_sum: u64,
    /// Sum over wakes of grant lag (wake horizon → actual resume),
    /// virtual ns.
    pub wake_lag_ns: u64,
}

impl PipelineStats {
    /// Latency-hiding ratio in `[0, 1]`: overlapped verb wait over total
    /// verb wait. 0 when nothing waited (or nothing overlapped —
    /// notably every reactor of one).
    pub fn hiding_ratio(&self) -> f64 {
        ratio(self.overlap_ns, self.wait_ns)
    }

    /// Mean reactor waiting-set depth at dispatch; 0 with no wakes.
    pub fn avg_depth(&self) -> f64 {
        ratio(self.depth_sum, self.wakes)
    }

    /// Mean grant lag per wake, virtual ns; 0 with no wakes.
    pub fn avg_wake_lag_ns(&self) -> f64 {
        ratio(self.wake_lag_ns, self.wakes)
    }
}

/// Aggregated contention-ladder and lock-wait counters (merged across
/// shards at scrape). With every table's contention policy off, DrTM+R
/// escalates and waits never — save a rollback after a fenced R.1
/// append — while the baselines' lock waits still count.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ContentionStats {
    /// Commits escalated to rung 2 (pessimistic wait-mode C.1).
    pub pessimistic: u64,
    /// Lock waits begun.
    pub parks: u64,
    /// Lock waits ended: `grants` plus those that ran out of polls.
    pub unparks: u64,
    /// Lock waits ended by a release.
    pub grants: u64,
    /// Time each lock wait lasted, virtual ns.
    pub parked_ns: HistSummary,
}

impl ContentionStats {
    /// Waiters gauge: lock waits begun and not yet ended.
    pub fn waiting(&self) -> u64 {
        self.parks.saturating_sub(self.unparks)
    }
}

/// Serving-tier counters (TCP front-end, admission queue). Zero unless
/// a `drtm-net` server fills them in at scrape time — like the HTM/NIC
/// rows, this crate only defines the plain-data shape.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct NetStats {
    /// Connections accepted over the server's lifetime.
    pub conns_opened: u64,
    /// Connections since closed (by the peer or by shutdown).
    pub conns_closed: u64,
    /// Requests admitted into the bounded queue.
    pub accepted: u64,
    /// Requests shed with a fast `Rejected` reply (queue past its
    /// high-water mark, or server draining).
    pub rejected: u64,
    /// Admitted requests fully executed and answered.
    pub completed: u64,
    /// Gauge: requests admitted but not yet answered.
    pub in_flight: u64,
    /// Gauge: requests sitting in the admission queue right now.
    pub queue_depth: u64,
    /// Admission-queue wait (submit → routine pickup), **host** ns —
    /// unlike the engine histograms this measures real wall time.
    pub queue_wait_ns: HistSummary,
}

impl NetStats {
    /// Fraction of arrivals shed in `[0, 1]`; 0 when nothing arrived.
    pub fn reject_rate(&self) -> f64 {
        ratio(self.rejected, self.accepted + self.rejected)
    }
}

/// Shard-affinity routing counters (DESIGN.md §16): per-pool admission
/// queues plus bounded work stealing in the serving tier. Filled by a
/// `drtm-net` server running with routing on; `enabled` stays false
/// (and everything zero) on the shared-queue path.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct RouteStats {
    /// True when the server dispatches through per-pool queues.
    pub enabled: bool,
    /// Admitted requests whose shard set was wholly owned by the home
    /// pool (all-local execution, zero commit-path verbs).
    pub local: u64,
    /// Admitted requests with at least one shard outside the home pool.
    pub remote: u64,
    /// Items an empty pool stole from a sibling queue.
    pub steals: u64,
    /// Sheds charged to a single queue's high-water mark.
    pub shed_queue: u64,
    /// Sheds charged to the group-wide backlog cap.
    pub shed_global: u64,
    /// Gauge: per-pool queue depths at scrape time, indexed by pool.
    pub depths: Vec<u64>,
}

impl RouteStats {
    /// Fraction of routed admissions that were all-local, in `[0, 1]`;
    /// 0 when nothing was admitted.
    pub fn local_rate(&self) -> f64 {
        ratio(self.local, self.local + self.remote)
    }
}

/// Plain-data summary of one histogram, precomputed at scrape time so
/// exposition code never touches live atomics.
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct HistSummary {
    /// Recorded values.
    pub count: u64,
    /// Sum of recorded values.
    pub sum: u64,
    /// Mean, 0 if empty.
    pub mean: f64,
    /// Median (interpolated).
    pub p50: u64,
    /// 99th percentile (interpolated).
    pub p99: u64,
    /// 99.9th percentile (interpolated) — the tail the latency-vs-load
    /// curve artifact plots.
    pub p999: u64,
    /// Upper bound on the largest recorded value.
    pub max: u64,
}

impl HistSummary {
    /// Summarizes `h`.
    pub fn of(h: &Histogram) -> Self {
        Self {
            count: h.count(),
            sum: h.sum(),
            mean: h.mean(),
            p50: h.quantile(0.5),
            p99: h.quantile(0.99),
            p999: h.quantile(0.999),
            max: h.max(),
        }
    }
}

/// Per-machine aggregate row (shards of one node merged).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MachineRow {
    /// Node id.
    pub node: usize,
    /// Committed transactions on this node.
    pub committed: u64,
    /// Aborted attempts on this node.
    pub aborted: u64,
    /// Fallback commits on this node.
    pub fallbacks: u64,
    /// Liveness per the cluster membership view (patched in by the
    /// core-side bridge; `true` when no membership info is available).
    pub alive: bool,
}

/// One per-(node, verb) NIC counter row (filled by the core bridge from
/// `drtm-rdma::NicStats`).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct NicRow {
    /// Node whose port issued the verbs.
    pub node: usize,
    /// Verb label (`read`/`write`/`atomic`/`send`).
    pub verb: &'static str,
    /// Completed verb count.
    pub count: u64,
}

/// Point-in-time aggregate of the whole registry, plus engine-level
/// rows (HTM, NIC, membership) that a core-side bridge fills in —
/// this crate cannot see those types without a dependency cycle.
#[derive(Debug, Clone)]
pub struct Snapshot {
    /// Total committed transactions.
    pub committed: u64,
    /// Total aborted attempts.
    pub aborted: u64,
    /// Total fallback commits.
    pub fallbacks: u64,
    /// Total explicit user aborts.
    pub user_aborts: u64,
    /// Read-only commits that ran the validation pass.
    pub ro_validations: u64,
    /// End-to-end committed latency summary (virtual ns).
    pub latency: HistSummary,
    /// Per-phase latency summaries in [`Phase::ALL`] order.
    pub phases: Vec<(&'static str, HistSummary)>,
    /// Abort counts by reason, in [`ABORT_REASONS`] order (zeros kept).
    pub aborts: [(&'static str, u64); ABORT_REASONS.len()],
    /// HTM aborts by class, in [`HTM_CLASSES`] order (bridge-filled).
    pub htm: [(&'static str, u64); HTM_CLASSES.len()],
    /// Per-(node, verb) completed NIC verb counts (bridge-filled).
    pub nic: Vec<NicRow>,
    /// Per-node NIC bytes moved (bridge-filled).
    pub nic_bytes: Vec<(usize, u64)>,
    /// Per-machine rows.
    pub machines: Vec<MachineRow>,
    /// Value-cache counters (hits, misses, invalidations, bytes saved).
    pub cache: CacheStats,
    /// Routine-scheduler counters (pool gauge, verb wait, overlap).
    pub pipeline: PipelineStats,
    /// Per-phase verb-wait summaries in [`Phase::ALL`] order; subtract
    /// from [`Snapshot::phases`] for the CPU-occupied split.
    pub phase_waits: Vec<(&'static str, HistSummary)>,
    /// Serving-tier counters (filled by a `drtm-net` server; all zero
    /// when no TCP front-end is attached).
    pub net: NetStats,
    /// Contention-ladder counters (escalations, parks, grants; all zero
    /// with contention management off).
    pub contention: ContentionStats,
    /// Shard-affinity routing counters (local/remote dispatch, steals,
    /// per-pool depths; disabled and zero on the shared-queue path).
    pub route: RouteStats,
}

impl Snapshot {
    /// A snapshot with zeroed totals and fully-labelled empty tables
    /// (every abort reason and HTM class present with count 0).
    pub fn empty() -> Self {
        Self::default()
    }
}

// `Default` can't derive the labelled arrays, so spell it out.
impl Default for Snapshot {
    fn default() -> Self {
        let phases = Phase::ALL.map(|p| (p.name(), HistSummary::default()));
        Self {
            committed: 0,
            aborted: 0,
            fallbacks: 0,
            user_aborts: 0,
            ro_validations: 0,
            latency: HistSummary::default(),
            phases: phases.to_vec(),
            aborts: std::array::from_fn(|i| (ABORT_REASONS[i], 0)),
            htm: std::array::from_fn(|i| (HTM_CLASSES[i], 0)),
            nic: Vec::new(),
            nic_bytes: Vec::new(),
            machines: Vec::new(),
            cache: CacheStats::default(),
            pipeline: PipelineStats::default(),
            phase_waits: phases.to_vec(),
            net: NetStats::default(),
            contention: ContentionStats::default(),
            route: RouteStats::default(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scrape_merges_shards_exactly() {
        let r = Registry::new();
        let a = r.shard(0);
        let b = r.shard(0);
        let c = r.shard(1);
        a.note_commit(100);
        a.note_phase(Phase::Lock, 40);
        b.note_commit(300);
        b.note_abort(0);
        b.note_phase(Phase::Lock, 60);
        c.note_abort(1);
        c.note_abort(1);
        c.note_fallback();
        c.note_user_abort();
        let s = r.scrape();
        assert_eq!(s.committed, 2);
        assert_eq!(s.aborted, 3);
        assert_eq!(s.fallbacks, 1);
        assert_eq!(s.user_aborts, 1);
        assert_eq!(s.latency.count, 2);
        assert_eq!(s.latency.sum, 400);
        assert_eq!(s.aborts[0], ("lock_busy", 1));
        assert_eq!(s.aborts[1], ("validation", 2));
        let lock = s.phases.iter().find(|(n, _)| *n == "lock").unwrap().1;
        assert_eq!(lock.count, 2);
        assert_eq!(lock.sum, 100);
        // Two machines, shards of node 0 merged.
        assert_eq!(s.machines.len(), 2);
        assert_eq!(s.machines[0].node, 0);
        assert_eq!(s.machines[0].committed, 2);
        assert_eq!(s.machines[1].node, 1);
        assert_eq!(s.machines[1].aborted, 2);
    }

    #[test]
    fn contention_counters_merge() {
        let r = Registry::new();
        let a = r.shard(0);
        let b = r.shard(1);
        a.note_contention_pessimistic();
        a.note_key_park();
        b.note_key_park();
        b.note_key_unpark(700);
        b.note_key_grant();
        let s = r.scrape();
        assert_eq!(s.contention.pessimistic, 1);
        assert_eq!(s.contention.parks, 2);
        assert_eq!(s.contention.unparks, 1);
        assert_eq!(s.contention.grants, 1);
        assert_eq!(s.contention.waiting(), 1, "one park not yet resumed");
        assert_eq!(s.contention.parked_ns.count, 1);
        assert_eq!(s.contention.parked_ns.sum, 700);
    }

    #[test]
    fn out_of_range_abort_reason_is_clamped() {
        let r = Registry::new();
        let s = r.shard(0);
        s.note_abort(999);
        let snap = r.scrape();
        assert_eq!(snap.aborts.last().unwrap().1, 1);
    }

    #[test]
    fn concurrent_scrape_during_active_recording() {
        // Satellite: scraping while workers record must never tear or
        // panic, and a quiesced final scrape sees every record.
        use std::sync::atomic::{AtomicBool, Ordering};
        let r = std::sync::Arc::new(Registry::new());
        let stop = std::sync::Arc::new(AtomicBool::new(false));
        const WRITERS: usize = 4;
        const PER: u64 = 20_000;
        let writers: Vec<_> = (0..WRITERS)
            .map(|w| {
                let shard = r.shard(w % 2);
                std::thread::spawn(move || {
                    for i in 0..PER {
                        shard.note_commit(i % 1_000 + 1);
                        shard.note_phase(Phase::ALL[(i % 8) as usize], i % 97 + 1);
                        if i % 5 == 0 {
                            shard.note_abort((i % 7) as usize);
                        }
                    }
                })
            })
            .collect();
        let scraper = {
            let r = std::sync::Arc::clone(&r);
            let stop = std::sync::Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut last_committed = 0u64;
                while !stop.load(Ordering::Relaxed) {
                    let s = r.scrape();
                    // Monotone progress: counters only grow.
                    assert!(s.committed >= last_committed);
                    last_committed = s.committed;
                    // Phase tables always fully labelled.
                    assert_eq!(s.phases.len(), Phase::COUNT);
                }
            })
        };
        for w in writers {
            w.join().unwrap();
        }
        stop.store(true, Ordering::Relaxed);
        scraper.join().unwrap();
        let s = r.scrape();
        assert_eq!(s.committed, WRITERS as u64 * PER);
        assert_eq!(s.latency.count, WRITERS as u64 * PER);
        assert_eq!(s.aborted, WRITERS as u64 * (PER / 5));
        let phase_total: u64 = s.phases.iter().map(|(_, h)| h.count).sum();
        assert_eq!(phase_total, WRITERS as u64 * PER);
    }

    #[test]
    fn default_snapshot_is_fully_labelled() {
        let s = Snapshot::empty();
        assert_eq!(s.phases.len(), Phase::COUNT);
        assert_eq!(s.aborts.len(), ABORT_REASONS.len());
        assert_eq!(s.htm.len(), HTM_CLASSES.len());
        assert_eq!(s.aborts[4].0, "fallback");
    }
}
