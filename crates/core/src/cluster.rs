//! Cluster assembly and shard placement.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, AtomicUsize, Ordering};
use std::sync::{Arc, OnceLock};

use drtm_base::sync::{Mutex, RwLock};
use drtm_base::{CostModel, MemoryRegion};
use drtm_cluster::{ConfigService, LeaseBoard, ReplLogStore};
use drtm_htm::{Htm, HtmConfig};
use drtm_rdma::{Fabric, FabricBuilder, NodeId};
use drtm_store::{Store, TableSpec};

use crate::contention::{ContentionPolicy, WaitRegistry};
use crate::history::History;
use crate::replication::{BackupRecord, BackupStore, ImageGuard};
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
    /// How remote locks and their validation travel.
    pub locking: LockTransport,
    /// §6.4 pointer-swap accounting: local-only tables charge one HTM
    /// line per write instead of the full record.
    pub pointer_swap: bool,
    /// Contention-management policy of every table (DESIGN.md §15): how
    /// a worker responds to repeated conflicts on one key. The default,
    /// [`ContentionPolicy::Off`], keeps the legacy randomized-backoff
    /// retry path byte-identical.
    pub contention: ContentionPolicy,
}

/// The transport of C.1's remote locks and C.2's validation (§4.4).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum LockTransport {
    /// One-sided RDMA CAS, C.2's header READ chained on its doorbell.
    #[default]
    OneSided,
    /// `IBV_ATOMIC_GLOB` ablation: lock + validate fused into one RDMA
    /// CAS. Requires a fabric advertising GLOB.
    Glob,
    /// FaRM-style ablation: lock, unlock and validation travel as
    /// SEND/RECV messages served by the host CPU (C.5 writes and R.1
    /// appends stay one-sided). Costs message round trips and interrupts
    /// the host, aborting its in-flight HTM regions — the §4.4 argument
    /// for one-sided operations.
    Messages,
}

impl Default for EngineOpts {
    fn default() -> Self {
        Self {
            replicas: 1,
            htm: HtmConfig::default(),
            cost: CostModel::default(),
            region_size: 32 << 20,
            use_location_cache: true,
            locking: LockTransport::OneSided,
            pointer_swap: true,
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
/// use drtm_core::cluster::{EngineOpts, LockTransport};
///
/// let opts = EngineOpts::builder()
///     .replicas(3)
///     .locking(LockTransport::Messages)
///     .build();
/// assert_eq!(opts.replicas, 3);
/// assert_eq!(opts.locking, LockTransport::Messages);
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

    /// The transport of remote locks and their validation.
    pub fn locking(mut self, transport: LockTransport) -> Self {
        self.opts.locking = transport;
        self
    }

    /// §6.4 pointer-swap accounting for local-only tables.
    pub fn pointer_swap(mut self, on: bool) -> Self {
        self.opts.pointer_swap = on;
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
    /// The history every committed DrTM+R transaction appends to, once
    /// one is installed ([`Self::record_history`]); unset, a
    /// transaction pays one `get` at its begin.
    pub history: OnceLock<History>,
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
            .cost(opts.cost.clone());
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
            history: OnceLock::new(),
            recovered: Mutex::new(HashMap::new()),
            crash_hook: RwLock::new(None),
            crash_hook_set: AtomicBool::new(false),
        })
    }

    /// Installs a history, if none is yet, and returns it: every
    /// transaction begun from now on is recorded when it commits
    /// (`drtm_core::history`). Install it before the run.
    pub fn record_history(&self) -> &History {
        self.history.get_or_init(History::default)
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

    /// Loads every shard's initial records: `body(shard, seeder)` puts
    /// shard `shard`'s records through `seeder`, as each of the paper's
    /// machines loads its own partition.
    ///
    /// A load writes one store per home and one image of each home per
    /// backup, in jobs: one per home's store and, under replication, one
    /// per home's first backup image. A job runs the body for every
    /// shard of its home in shard order, with a seeder that writes its
    /// destination alone, so a body runs at most twice per shard and
    /// must put the same records each time. Once its image is loaded, an
    /// image job copies it to the home's other backups byte for byte
    /// ([`BackupStore::copy_image`]): all backups of a primary start out
    /// with the same image (§5.1), and the same puts in the same order
    /// would have built each of them.
    ///
    /// The jobs go to `min(available_parallelism, machines)` scoped
    /// threads, the next job to whichever thread is free. Each store
    /// and each image is written by one thread in the order a serial
    /// loop over the shards writes it, so allocator offsets, hash slots,
    /// incarnations and image slots come out the same. Each seeder is
    /// its destination's only writer, which is what lets
    /// [`Seeder::put`] seed the store without the run-time write
    /// protocol ([`Store::seed`]). A job locks only images of its own
    /// home, the copy's source before its destination, so the threads
    /// cannot deadlock.
    pub fn load_shards(&self, body: impl Fn(usize, &mut Seeder<'_>) + Sync) {
        let shard_map = self.shard_map.read().clone();
        let mut homes = shard_map.clone();
        homes.sort_unstable();
        homes.dedup();
        // The stores first: they take longer than the images.
        let stores = homes.iter().map(|&home| (home, None));
        let images = homes.iter().filter_map(|&home| {
            let first = self.backups_of(home).first().copied();
            first.map(|b| (home, Some(b)))
        });
        let jobs: Vec<(NodeId, Option<NodeId>)> = stores.chain(images).collect();
        // Relaxed: the counter publishes nothing; each add hands out one
        // index into `jobs`, which no thread writes.
        let next = AtomicUsize::new(0);
        let take = || jobs.get(next.fetch_add(1, Ordering::Relaxed));
        let threads = std::thread::available_parallelism().map_or(1, |n| n.get().min(self.nodes()));
        std::thread::scope(|s| {
            for _ in 0..threads {
                s.spawn(|| {
                    while let Some(&(home, backup)) = take() {
                        for shard in (0..shard_map.len()).filter(|&s| shard_map[s] == home) {
                            let mut images = [const { None }; MAX_REPLICAS - 1];
                            images[0] = backup.map(|b| self.backups.image(b, home));
                            let store = backup.is_none().then(|| &*self.stores[home]);
                            body(shard, &mut Seeder { store, images });
                        }
                        if let Some(first) = backup {
                            for b in self.backups_of(home).into_iter().skip(1) {
                                self.backups.copy_image(home, first, b);
                            }
                        }
                    }
                });
            }
        });
    }

    /// The installer of `shard`'s initial records on its serving node
    /// and every backup ([`Seeder`]): resolves the node and its backups
    /// once, and holds each backup's image of that node locked until
    /// dropped. Seed only before any transaction runs: a seeder must be
    /// the only writer of its store ([`Seeder::put`]).
    /// [`Self::load_shards`] gives its bodies seeders that each write
    /// one of those destinations.
    pub fn seeder(&self, shard: usize) -> Seeder<'_> {
        let home = self.home_of(shard);
        let backups = self.backups_of(home);
        Seeder {
            store: Some(&self.stores[home]),
            images: std::array::from_fn(|i| backups.get(i).map(|&b| self.backups.image(b, home))),
        }
    }

    /// Loads one record during the initial population: the one-record
    /// form of [`Self::seeder`].
    pub fn seed_record(&self, shard: usize, table: u32, key: u64, value: &[u8]) {
        self.seeder(shard).put(table, key, value);
    }
}

/// Installs one shard's initial records on its serving node and in
/// every backup image ([`DrtmCluster::seeder`]), or in one of them (a
/// job of [`DrtmCluster::load_shards`]). Nothing on this path
/// allocates or clones (DESIGN.md §4): the backups are a fixed-capacity
/// list read once without cloning the membership, and their images stay
/// locked for the seeder's life.
///
/// A seeder is the only writer of its destination: a load gives each
/// store and each loaded image one job, and every caller seeds before
/// any worker runs. So its puts skip the run-time write protocol
/// ([`Store::seed`], [`ImageGuard::seed`]), as the record's own bytes
/// always have.
#[must_use]
pub struct Seeder<'a> {
    /// The serving node's store; `None` in a load's image job.
    store: Option<&'a Store>,
    images: [Option<ImageGuard<'a>>; MAX_REPLICAS - 1],
}

impl Seeder<'_> {
    /// Inserts `key -> value` into `table` at sequence number 2 (even =
    /// committable) and copies it into every backup image: into each
    /// destination this seeder writes.
    ///
    /// # Panics
    ///
    /// Panics if the insert fails (the key is present or the region is
    /// full).
    pub fn put(&mut self, table: u32, key: u64, value: &[u8]) {
        if let Some(store) = self.store {
            store
                .seed(table, key, value, 2)
                .unwrap_or_else(|| panic!("seed failed: table {table} key {key}"));
        }
        for image in self.images.iter_mut().flatten() {
            image.seed(table, key, 2, value);
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
    fn a_seeder_installs_on_the_current_home_and_its_backups() {
        let opts = EngineOpts::builder().replicas(3).build();
        let c = DrtmCluster::new(4, &schema(), opts);
        c.rehome(1, 3);
        let mut seeder = c.seeder(1);
        for k in 0..5 {
            seeder.put(0, 1 << 32 | k, &[k as u8; 40]);
        }
        drop(seeder);
        assert!(c.stores[3].get_loc(0, 1 << 32 | 4).is_some());
        assert!(c.stores[1].get_loc(0, 1 << 32 | 4).is_none());
        let live = |b| c.backups.live_len(b, 3);
        assert_eq!([live(0), live(1), live(2)], [5, 5, 0], "node 3's ring");
    }

    /// A shard's body runs once for its store and once for its home's
    /// first backup image; the other backups get copies of that image.
    #[test]
    fn load_shards_seeds_every_shard_on_its_home_once() {
        for (replicas, runs) in [(1, 1), (2, 2), (3, 2)] {
            let opts = EngineOpts::builder().replicas(replicas).build();
            let c = DrtmCluster::new(5, &schema(), opts);
            c.rehome(1, 3);
            let calls: [AtomicUsize; 5] = std::array::from_fn(|_| AtomicUsize::new(0));
            c.load_shards(|shard, seeder| {
                calls[shard].fetch_add(1, Ordering::Relaxed);
                for k in 0..=shard as u64 {
                    seeder.put(0, (shard as u64) << 32 | k, &[k as u8; 40]);
                }
            });
            let calls = calls.map(AtomicUsize::into_inner);
            assert_eq!(
                calls, [runs; 5],
                "body runs per shard at replicas {replicas}"
            );
            let on = |node: usize| c.stores[node].keys(0).len();
            assert_eq!((0..5).map(on).collect::<Vec<_>>(), [1, 0, 3, 6, 5]);
            for (primary, live) in [(0, 1), (2, 3), (3, 6), (4, 5)] {
                for b in c.backups_of(primary) {
                    assert_eq!(
                        c.backups.live_len(b, primary),
                        live,
                        "{b}'s image of {primary}"
                    );
                }
            }
            assert_eq!(
                c.backups.footprint().0,
                15 * (replicas - 1),
                "no other image"
            );
        }
    }

    /// A store built through a seeder holds what one built through
    /// `Store::insert` holds: every region word, every index pair and
    /// the allocator's mark. Only the line versions and the write count
    /// stay where they were. A transaction then reads and overwrites
    /// seeded records, locally and over RDMA.
    #[test]
    fn seeding_equals_inserting() {
        let schema = [TableSpec::hash(0, 256, 40), TableSpec::ordered(1, 100)];
        let opts = EngineOpts::builder()
            .replicas(2)
            .region_size(1 << 20)
            .build();
        let c = DrtmCluster::new(2, &schema, opts);
        let inserted = Store::new(Arc::new(MemoryRegion::new(1 << 20)), &schema);
        let value = |k: u64, len| (0..len).map(|i| (k * 31 + i) as u8).collect::<Vec<u8>>();
        let mut seeder = c.seeder(0);
        for k in 0..150u64 {
            let (table, len) = if k % 3 == 0 { (1, 100) } else { (0, 40) };
            seeder.put(table, k * 7, &value(k, len));
            inserted.insert(table, k * 7, &value(k, len), 2).unwrap();
        }
        drop(seeder);
        let seeded = &c.stores[0];
        let words = |store: &Store| {
            let mut bytes = vec![0; store.region.size()];
            store.region.read_bytes_raw(0, &mut bytes);
            bytes
        };
        assert!(words(seeded) == words(&inserted), "a region word differs");
        for table in 0..2 {
            let mut pairs = [seeded.keys(table), inserted.keys(table)];
            pairs.iter_mut().for_each(|p| p.sort_unstable());
            assert_eq!(pairs[0], pairs[1], "table {table}'s (key, offset) pairs");
        }
        assert_eq!(seeded.alloc.used(), inserted.alloc.used());
        assert_eq!(seeded.region.line_writes(), 0, "seeding counts no write");
        assert!(inserted.region.line_writes() > 0);

        let bump = |v: Vec<u8>| {
            v.into_iter()
                .map(|b| b.wrapping_add(1))
                .collect::<Vec<u8>>()
        };
        for (node, table, key) in [(0, 1, 0), (1, 0, 7), (0, 0, 14)] {
            let mut w = c.worker(node, 1);
            let old = w.run(|t| {
                let v = t.read(0, table, key)?;
                t.write(0, table, key, bump(v.clone()))?;
                Ok(v)
            });
            let old = old.expect("commits");
            let now = w.run_ro(|t| t.read(0, table, key)).expect("reads");
            assert_eq!((now, old.len()), (bump(old), [40, 100][table as usize]));
        }
    }

    #[test]
    fn rehome_moves_all_shards() {
        let c = DrtmCluster::new(3, &schema(), EngineOpts::default());
        c.rehome(1, 2);
        assert_eq!(c.home_of(1), 2);
        assert_eq!(c.home_of(0), 0);
    }
}
