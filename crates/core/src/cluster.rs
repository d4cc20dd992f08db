//! Cluster assembly and shard placement.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use drtm_base::sync::{Mutex, RwLock};
use drtm_base::{CostModel, MemoryRegion};
use drtm_cluster::{ConfigService, LeaseBoard, ReplLogStore};
use drtm_htm::{Htm, HtmConfig};
use drtm_rdma::{Fabric, FabricBuilder, NodeId};
use drtm_store::{Store, TableSpec};

use crate::contention::{ContentionPolicy, WaitRegistry};
use crate::replication::{BackupRecord, BackupStore};
use crate::txn::Worker;

/// A fault-injection hook consulted at the named crash points of the
/// commit protocol (`"C.1"` … `"C.6"`, `"R.1"` … `"R.3"`).
///
/// Each probe names the protocol step that *just completed*: returning
/// `true` from `"C.4"` kills the machine with its local writes applied
/// (odd sequence numbers under replication) but nothing logged — the
/// exact window the odd/even protocol exists to survive. The killed
/// machine stops silently: its lease is *not* revoked, so peers only
/// learn of the death when the lease genuinely expires.
pub trait CrashPointHook: Send + Sync {
    /// Returns `true` to kill `node` at `point`, which the probing
    /// worker passes at virtual time `now` (ns).
    fn on_point(&self, node: NodeId, point: &'static str, now: u64) -> bool;
}

/// The most copies of a record a cluster keeps ([`EngineOpts::replicas`]):
/// a primary and up to seven backups.
pub const MAX_REPLICAS: usize = 8;

/// The backups of one primary ([`DrtmCluster::backups_of`]) in ring
/// order: a fixed-capacity list, so asking costs no allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Backups {
    ids: [NodeId; MAX_REPLICAS - 1],
    len: usize,
}

impl std::ops::Deref for Backups {
    type Target = [NodeId];

    fn deref(&self) -> &[NodeId] {
        &self.ids[..self.len]
    }
}

impl IntoIterator for Backups {
    type Item = NodeId;
    type IntoIter = std::iter::Take<std::array::IntoIter<NodeId, { MAX_REPLICAS - 1 }>>;

    fn into_iter(self) -> Self::IntoIter {
        self.ids.into_iter().take(self.len)
    }
}

/// Engine-wide tuning knobs.
///
/// Construct through [`EngineOpts::builder`] (or start from
/// [`EngineOpts::default`] and assign fields): the struct is
/// `#[non_exhaustive]`, so literal construction outside this crate does
/// not compile and new knobs can be added without breaking downstream
/// builds.
///
/// ```
/// use drtm_core::cluster::EngineOpts;
///
/// let opts = EngineOpts::builder()
///     .replicas(3)
///     .region_size(8 << 20)
///     .build();
/// assert_eq!(opts.replicas, 3);
/// ```
#[derive(Debug, Clone)]
#[non_exhaustive]
pub struct EngineOpts {
    /// Total copies of every record (1 = replication off; the paper's
    /// "DrTM+R=3" is 3).
    pub replicas: usize,
    /// HTM configuration shared by all nodes.
    pub htm: HtmConfig,
    /// Virtual-time cost model.
    pub cost: CostModel,
    /// Region bytes per node.
    pub region_size: usize,
    /// Use the DrTM location cache for remote hash lookups.
    pub use_location_cache: bool,
    /// `IBV_ATOMIC_GLOB` ablation: fuse remote lock + validate into one
    /// RDMA CAS (§4.4, C.2). Requires a fabric advertising GLOB.
    pub fuse_lock_validate: bool,
    /// §6.4 pointer-swap accounting: local-only tables charge one HTM
    /// line per write instead of the full record.
    pub pointer_swap: bool,
    /// FaRM-style two-sided locking ablation: remote lock/unlock and
    /// validation travel as SEND/RECV messages served by the host CPU
    /// instead of one-sided RDMA verbs (C.5 writes and R.1 appends stay
    /// one-sided). Costs message round trips and interrupts the host,
    /// aborting its in-flight HTM regions — the §4.4 argument for
    /// one-sided operations.
    pub msg_locking: bool,
    /// Contention-management policy of every table (DESIGN.md §15): how
    /// a worker responds to repeated conflicts on one key. The default,
    /// [`ContentionPolicy::Off`], keeps the legacy randomized-backoff
    /// retry path byte-identical.
    pub contention: ContentionPolicy,
}

impl Default for EngineOpts {
    fn default() -> Self {
        Self {
            replicas: 1,
            htm: HtmConfig::default(),
            cost: CostModel::default(),
            region_size: 32 << 20,
            use_location_cache: true,
            fuse_lock_validate: false,
            pointer_swap: true,
            msg_locking: false,
            contention: ContentionPolicy::Off,
        }
    }
}

impl EngineOpts {
    /// Starts a builder seeded with [`EngineOpts::default`].
    pub fn builder() -> EngineOptsBuilder {
        EngineOptsBuilder::default()
    }
}

/// Fluent construction of [`EngineOpts`].
///
/// Every knob starts at its [`EngineOpts::default`] value; call only the
/// setters you care about, then [`EngineOptsBuilder::build`]. See each
/// field on [`EngineOpts`] for semantics.
///
/// ```
/// use drtm_core::cluster::EngineOpts;
///
/// let opts = EngineOpts::builder()
///     .replicas(3)
///     .msg_locking(true)
///     .build();
/// assert_eq!(opts.replicas, 3);
/// assert!(opts.msg_locking);
/// ```
#[derive(Debug, Clone, Default)]
pub struct EngineOptsBuilder {
    opts: EngineOpts,
}

impl EngineOptsBuilder {
    /// Total copies of every record (1 = replication off, at most
    /// [`MAX_REPLICAS`]).
    pub fn replicas(mut self, n: usize) -> Self {
        assert!(n >= 1, "need at least one copy of every record");
        self.opts.replicas = n;
        self
    }

    /// HTM configuration shared by all nodes.
    pub fn htm(mut self, htm: HtmConfig) -> Self {
        self.opts.htm = htm;
        self
    }

    /// Virtual-time cost model.
    pub fn cost(mut self, cost: CostModel) -> Self {
        self.opts.cost = cost;
        self
    }

    /// Region bytes per node.
    pub fn region_size(mut self, bytes: usize) -> Self {
        assert!(bytes > 0, "region must hold at least one byte");
        self.opts.region_size = bytes;
        self
    }

    /// Use the DrTM location cache for remote hash lookups.
    pub fn use_location_cache(mut self, on: bool) -> Self {
        self.opts.use_location_cache = on;
        self
    }

    /// `IBV_ATOMIC_GLOB` ablation: fuse remote lock + validate into one
    /// RDMA CAS.
    pub fn fuse_lock_validate(mut self, on: bool) -> Self {
        self.opts.fuse_lock_validate = on;
        self
    }

    /// §6.4 pointer-swap accounting for local-only tables.
    pub fn pointer_swap(mut self, on: bool) -> Self {
        self.opts.pointer_swap = on;
        self
    }

    /// FaRM-style two-sided locking ablation.
    pub fn msg_locking(mut self, on: bool) -> Self {
        self.opts.msg_locking = on;
        self
    }

    /// Contention-management policy of every table (DESIGN.md §15).
    pub fn contention(mut self, policy: ContentionPolicy) -> Self {
        self.opts.contention = policy;
        self
    }

    /// Finishes the builder.
    pub fn build(self) -> EngineOpts {
        self.opts
    }
}

/// A fully assembled DrTM+R cluster of simulated machines.
pub struct DrtmCluster {
    /// The RDMA fabric over all nodes' regions.
    pub fabric: Arc<Fabric>,
    /// Per-node stores (same schema everywhere).
    pub stores: Vec<Arc<Store>>,
    /// Per-node HTM engines.
    pub htms: Vec<Htm>,
    /// Replication logs (backup-side NVRAM).
    pub logs: ReplLogStore,
    /// Backup record images, maintained by each machine's
    /// [`Self::truncate_step`].
    pub backups: BackupStore,
    /// Membership agreement service.
    pub config: ConfigService,
    /// Failure-detection leases.
    pub leases: LeaseBoard,
    /// `shard -> serving node`; identity until a failover re-homes a
    /// dead machine's shard.
    pub shard_map: RwLock<Vec<NodeId>>,
    /// Liveness switches read by worker loops (crash injection).
    pub alive: Vec<AtomicBool>,
    /// Sharded metrics registry; every worker records into its own
    /// shard, scraped by `drtm-shell stats` and the bench binaries.
    pub obs: drtm_obs::Registry,
    /// Tuning knobs.
    pub opts: EngineOpts,
    /// Cluster-shared registry of lock waits: every lock wait watches
    /// its address here, and every release of a lock word is counted
    /// here (DESIGN.md §15).
    pub waiters: WaitRegistry,
    /// Completed recoveries: `dead -> new_home`. Held for the duration
    /// of a [`crate::recovery::recover_node`] pass, which serializes
    /// concurrent recoveries of the same (or different) machines and
    /// makes repeated calls no-ops.
    pub(crate) recovered: Mutex<HashMap<NodeId, Option<NodeId>>>,
    /// Crash-point hook (fault injection); `None` outside chaos runs.
    crash_hook: RwLock<Option<Arc<dyn CrashPointHook>>>,
    /// Fast-path flag mirroring `crash_hook.is_some()` so the per-commit
    /// probes cost one relaxed load when no hook is installed.
    crash_hook_set: AtomicBool,
}

impl DrtmCluster {
    /// Builds an `n`-node cluster instantiating `schema` on every node.
    pub fn new(n: usize, schema: &[TableSpec], opts: EngineOpts) -> Arc<Self> {
        Self::with_fabric(n, schema, opts, |fabric| fabric)
    }

    /// [`Self::new`] on a fabric whose builder went through `tune`
    /// first (tests shrink the send queue with it).
    pub(crate) fn with_fabric(
        n: usize,
        schema: &[TableSpec],
        opts: EngineOpts,
        tune: impl FnOnce(FabricBuilder) -> FabricBuilder,
    ) -> Arc<Self> {
        assert!(n >= 1);
        assert!(
            opts.replicas >= 1 && opts.replicas <= n.min(MAX_REPLICAS),
            "need 1 <= replicas <= nodes and replicas <= {MAX_REPLICAS}"
        );
        let regions: Vec<Arc<MemoryRegion>> = (0..n)
            .map(|_| Arc::new(MemoryRegion::new(opts.region_size)))
            .collect();
        let fabric = Fabric::builder()
            .regions(regions.clone())
            .cost(opts.cost.clone())
            .atomic_level(if opts.fuse_lock_validate {
                drtm_rdma::AtomicLevel::Glob
            } else {
                drtm_rdma::AtomicLevel::Hca
            });
        let fabric = tune(fabric).build();
        let stores = regions
            .iter()
            .map(|r| Arc::new(Store::new(Arc::clone(r), schema)))
            .collect();
        Arc::new(Self {
            fabric,
            stores,
            htms: (0..n).map(|_| Htm::new(opts.htm.clone())).collect(),
            logs: ReplLogStore::new(n),
            backups: BackupStore::new(n, schema),
            config: ConfigService::new(n),
            leases: LeaseBoard::new(n),
            shard_map: RwLock::new((0..n).collect()),
            alive: (0..n).map(|_| AtomicBool::new(true)).collect(),
            obs: drtm_obs::Registry::new(),
            opts,
            waiters: WaitRegistry::new(),
            recovered: Mutex::new(HashMap::new()),
            crash_hook: RwLock::new(None),
            crash_hook_set: AtomicBool::new(false),
        })
    }

    /// Number of machines (dead or alive).
    pub fn nodes(&self) -> usize {
        self.stores.len()
    }

    /// The node currently serving `shard` (identity before failures).
    pub fn home_of(&self, shard: usize) -> NodeId {
        self.shard_map.read()[shard]
    }

    /// Re-homes every shard served by `from` onto `to` (recovery).
    pub fn rehome(&self, from: NodeId, to: NodeId) {
        for s in self.shard_map.write().iter_mut() {
            if *s == from {
                *s = to;
            }
        }
    }

    /// The backup machines for records homed on `primary`: the next
    /// `replicas - 1` members along the node ring.
    ///
    /// Placement uses the *current* configuration so that re-replication
    /// after a failure never targets a dead machine.
    pub fn backups_of(&self, primary: NodeId) -> Backups {
        let n = self.nodes();
        let mut out = Backups {
            ids: [0; MAX_REPLICAS - 1],
            len: 0,
        };
        if self.opts.replicas == 1 {
            return out;
        }
        self.config.with(|members| {
            let mut i = 1;
            while out.len < self.opts.replicas - 1 && i < n {
                let cand = (primary + i) % n;
                if cand != primary && members.contains(cand) {
                    out.ids[out.len] = cand;
                    out.len += 1;
                }
                i += 1;
            }
        });
        out
    }

    /// Whether `node` is in the current configuration.
    pub fn is_member(&self, node: NodeId) -> bool {
        self.config.with(|c| c.contains(node))
    }

    /// Whether `node`'s worker loops should keep running.
    pub fn is_alive(&self, node: NodeId) -> bool {
        self.alive[node].load(Ordering::Relaxed)
    }

    /// Fail-stops `node`: its workers observe the switch and halt, and
    /// its lease is revoked so peers suspect it after one lease period.
    /// Memory (including its share of NVRAM logs) is retained.
    pub fn crash(&self, node: NodeId) {
        self.alive[node].store(false, Ordering::Relaxed);
        self.leases.revoke(node);
    }

    /// Fail-stops `node` *silently*: workers halt but the lease is left
    /// to expire on its own, so failure detection (and hence recovery)
    /// happens on the genuine lease-expiry path a real crash would take.
    pub fn fail_silent(&self, node: NodeId) {
        self.alive[node].store(false, Ordering::Relaxed);
    }

    /// Installs a [`CrashPointHook`] consulted at every named protocol
    /// point; replaces any previous hook.
    pub fn set_crash_hook(&self, hook: Arc<dyn CrashPointHook>) {
        *self.crash_hook.write() = Some(hook);
        self.crash_hook_set.store(true, Ordering::Release);
    }

    /// Removes the crash-point hook.
    pub fn clear_crash_hook(&self) {
        self.crash_hook_set.store(false, Ordering::Release);
        *self.crash_hook.write() = None;
    }

    /// One named crash-point probe for `node`, passed by a worker at
    /// virtual time `now`. Returns `true` when the machine is (or just
    /// became) dead and the caller must stop in place. Firing kills the
    /// machine silently — the lease keeps running out, exactly like a
    /// real mid-protocol power loss.
    pub fn crash_point(&self, node: NodeId, point: &'static str, now: u64) -> bool {
        if !self.is_alive(node) {
            return true;
        }
        if !self.crash_hook_set.load(Ordering::Acquire) {
            return false;
        }
        let hook = self.crash_hook.read().clone();
        if let Some(h) = hook {
            if h.on_point(node, point, now) {
                drtm_obs::trace::event(drtm_obs::EventKind::CrashPoint, point, node as u64, 0);
                self.fail_silent(node);
                return true;
            }
        }
        false
    }

    /// Creates a worker thread context executing on `node`.
    pub fn worker(self: &Arc<Self>, node: NodeId, seed: u64) -> Worker {
        Worker::new(Arc::clone(self), node, seed)
    }

    /// The log truncation step a worker loop of `node` (the measurement
    /// driver's routines, the serving pools) takes between two
    /// transactions, never inside one, at virtual time `now`: the `R.3`
    /// probe, then [`Self::truncate_step`]. It charges no virtual time.
    pub fn truncate_step_at(&self, node: NodeId, now: u64) -> usize {
        // R.3: a backup can die right before applying its pending log
        // entries — they stay in its NVRAM log for recovery to drain.
        let hooked = self.crash_hook_set.load(Ordering::Acquire);
        if self.opts.replicas >= 2 && hooked && self.crash_point(node, "R.3", now) {
            return 0;
        }
        self.truncate_step(node)
    }

    /// `node`'s log truncation step without a probe: applies and
    /// truncates every primary's pending log entries on this backup.
    /// Free on a cluster without backups.
    ///
    /// Returns the number of entries applied.
    pub fn truncate_step(&self, node: NodeId) -> usize {
        if self.opts.replicas < 2 {
            return 0;
        }
        let mut applied = 0;
        // A machine never backs itself up: its own queue stays empty.
        for primary in (0..self.nodes()).filter(|&p| p != node) {
            // Entries are applied under the queue lock so a concurrent
            // recovery snapshot never observes them as drained but not
            // yet folded into the image.
            applied += self
                .logs
                .drain_with(node, primary, |e| self.backups.apply(node, primary, e));
        }
        applied
    }

    /// Rolls the record at `rec_off` on `primary` forward to the
    /// freshest durable replicated version, if one is newer than the
    /// record's current value.
    ///
    /// This is the repair half of dangling-lock release (§5.2): a
    /// coordinator that died between making its redo records durable
    /// (R.1) and writing a remote primary (C.5) leaves the record both
    /// locked and stale. Whoever takes that lock over — a survivor
    /// transaction stealing it passively, or the recovery sweep — must
    /// install the durable version before the record becomes writable
    /// again, or the logged update is silently lost. The caller must
    /// hold the record's lock so the repair cannot race a new writer.
    ///
    /// `key` is the record's `(table, key)` where the caller knows it
    /// (the recovery sweep). A transaction that stole a dangling lock in
    /// C.1 holds only the address; its offset is reverse-mapped by a
    /// scan of `primary`'s indexes, once per stranded record it trips on.
    ///
    /// Returns `true` when a newer durable version was installed.
    pub fn heal_record(&self, primary: NodeId, rec_off: usize, key: Option<(u32, u64)>) -> bool {
        let store = &self.stores[primary];
        let owner = key.or_else(|| {
            (0..store.table_count() as u32).find_map(|table| {
                let mut keys = store.keys(table).into_iter();
                let hit = keys.find(|&(_, off)| off as usize == rec_off);
                hit.map(|(key, _)| (table, key))
            })
        });
        let Some((table, key)) = owner else {
            return false;
        };
        let cur = store.record(table, rec_off).seq();
        match self.freshest_durable(primary, table, key) {
            Some(v) if !v.deleted && v.seq > cur => {
                let layout = store.table(table).layout;
                drtm_store::RecordRef::new(&store.region, rec_off, layout)
                    .write_locked(&v.value, v.seq);
                true
            }
            _ => false,
        }
    }

    /// The freshest durable replicated version of `primary`'s record
    /// `(table, key)`, tombstones included: on each backup the last
    /// unapplied redo entry for the key, else the image's slot; across
    /// backups the higher sequence number. Point lookups only. The log
    /// is read first: [`ReplLogStore::drain_with`] folds under the queue
    /// lock, so an entry gone from the log is already in the image.
    pub fn freshest_durable(&self, primary: NodeId, table: u32, key: u64) -> Option<BackupRecord> {
        let owned = |seq, value: &[u8], deleted| BackupRecord {
            seq,
            value: value.to_vec(),
            deleted,
        };
        let mut best: Option<BackupRecord> = None;
        for b in self.backups_of(primary) {
            let logged = self.logs.peek(b, primary, |entries| {
                let of_key = entries.filter(|e| e.table == table && e.key == key);
                of_key.last().map(|e| owned(e.seq, e.value, e.delete))
            });
            let found = logged.or_else(|| {
                let image = self.backups.image(b, primary);
                image
                    .get(table, key)
                    .map(|r| owned(r.seq, r.value, r.deleted))
            });
            if let Some(v) = found {
                if best.as_ref().is_none_or(|cur| v.seq > cur.seq) {
                    best = Some(v);
                }
            }
        }
        best
    }

    /// Loads one record during the initial population: inserts it on the
    /// shard's serving node and seeds every backup image.
    ///
    /// Records start at sequence number 2 (even = committable). Nothing
    /// on this path allocates or clones (DESIGN.md §4): the backups are
    /// a fixed-capacity list read without cloning the membership.
    pub fn seed_record(&self, shard: usize, table: u32, key: u64, value: &[u8]) {
        let home = self.home_of(shard);
        self.stores[home]
            .insert(table, key, value, 2)
            .unwrap_or_else(|| panic!("seed failed: table {table} key {key}"));
        for b in self.backups_of(home) {
            self.backups.seed(b, home, table, key, 2, value);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn schema() -> Vec<TableSpec> {
        vec![TableSpec::hash(0, 1024, 40)]
    }

    #[test]
    fn builds_symmetric_cluster() {
        let c = DrtmCluster::new(3, &schema(), EngineOpts::default());
        assert_eq!(c.nodes(), 3);
        assert_eq!(c.home_of(2), 2);
        assert!(c.is_member(0) && c.is_alive(0));
    }

    #[test]
    fn backup_ring_placement() {
        let opts = EngineOpts::builder().replicas(3).build();
        let c = DrtmCluster::new(4, &schema(), opts);
        assert_eq!(*c.backups_of(0), [1, 2]);
        assert_eq!(*c.backups_of(3), [0, 1]);
        // After node 1 leaves, placement skips it.
        c.config.remove_member(1);
        assert_eq!(*c.backups_of(0), [2, 3]);
        assert_eq!(c.backups_of(0).into_iter().collect::<Vec<_>>(), [2, 3]);
    }

    #[test]
    fn crash_flips_liveness_and_lease() {
        let c = DrtmCluster::new(2, &schema(), EngineOpts::default());
        c.leases.renew(1, 0, 1_000_000);
        c.crash(1);
        assert!(!c.is_alive(1));
        assert!(c.leases.expired(1, 0));
    }

    #[test]
    fn seed_reaches_backups() {
        let opts = EngineOpts::builder().replicas(2).build();
        let c = DrtmCluster::new(3, &schema(), opts);
        c.seed_record(0, 0, 42, &[7u8; 40]);
        assert!(c.stores[0].get_loc(0, 42).is_some());
        assert_eq!(c.backups.live_len(1, 0), 1);
        assert_eq!(c.backups.live_len(2, 0), 0, "only replicas-1 backups");
    }

    #[test]
    fn rehome_moves_all_shards() {
        let c = DrtmCluster::new(3, &schema(), EngineOpts::default());
        c.rehome(1, 2);
        assert_eq!(c.home_of(1), 2);
        assert_eq!(c.home_of(0), 0);
    }
}
