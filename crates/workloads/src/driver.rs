//! The measurement harness: one closed loop for every [`Workload`] on
//! every engine.
//!
//! Runs `nodes × threads` worker slots, each a [`RoutinePool`] of
//! [`Worker`]s on its machine, whatever the engine: DrTM+R's routines
//! or a baseline's one. Every slot runs on one drive loop on the
//! calling thread, which always steps the slot whose next action comes
//! earliest in virtual time, so slots meet each other's locks in
//! virtual-time order and a run is a pure function of its [`RunCfg`]
//! and seed. Each slot runs a fixed number of transactions, and
//! throughput is aggregated in *virtual* time: each slot is a pipeline
//! advancing its own clock, so the cluster rate is
//! `Σ_s committed_s / vtime_s`. Shared bottlenecks like the per-node
//! NIC couple slots through ledgers of virtual-time windows, which is
//! how the replication experiments saturate exactly like the paper's.
//!
//! On a replicated cluster every routine also takes its machine's log
//! truncation step ([`DrtmCluster::truncate_step_at`]) between two
//! transactions: the paper's backup work, off the critical path, on the
//! workers that run the machine and at no virtual cost.

use std::collections::HashMap;
use std::sync::Arc;

use drtm_base::{Histogram, Ledger, SplitMix64};
use drtm_baselines::{drtm2pl, CalvinEngine};
use drtm_core::cluster::{DrtmCluster, EngineOpts};
use drtm_core::txn::{TxnApi, TxnError, Worker};
use drtm_core::{ContentionPolicy, RoutinePool};
use drtm_store::TableSpec;

use crate::smallbank::SbCfg;
use crate::tpcc::TpccCfg;
use crate::ycsb::YcsbCfg;

/// Which engine to measure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EngineKind {
    /// DrTM+R (this paper).
    DrtmR,
    /// DrTM baseline.
    Drtm,
    /// Calvin baseline.
    Calvin,
}

/// A measurement run configuration.
#[derive(Debug, Clone)]
pub struct RunCfg {
    /// Engine under test.
    pub engine: EngineKind,
    /// Worker threads per machine.
    pub threads: usize,
    /// Copies per record (1 = replication off).
    pub replicas: usize,
    /// Transactions attempted per worker.
    pub txns_per_worker: usize,
    /// Base RNG seed.
    pub seed: u64,
    /// In-flight transaction routines multiplexed per worker thread
    /// (DESIGN.md §11). Each DrTM+R worker slot runs `R` cooperative
    /// routines through a [`RoutinePool`], splitting its transaction
    /// budget across them; the slot's virtual time is the slowest
    /// routine's clock, so verb waits hidden behind other routines' CPU
    /// work show up directly as throughput. With `1` (the default) the
    /// pool's one routine runs the transactions back to back. A
    /// baseline engine's slot is always a pool of one: DrTM and Calvin
    /// run one transaction per thread.
    pub routines: usize,
    /// Contention-management policy for every table (DESIGN.md §15):
    /// `Off` keeps the paper's randomized backoff byte-identical,
    /// `Escalate` climbs the three-rung ladder on consecutive aborts.
    pub contention: ContentionPolicy,
}

impl Default for RunCfg {
    fn default() -> Self {
        Self {
            engine: EngineKind::DrtmR,
            threads: 2,
            replicas: 1,
            txns_per_worker: 200,
            seed: 42,
            routines: 1,
            contention: ContentionPolicy::Off,
        }
    }
}

/// Per-transaction-type results.
#[derive(Debug, Clone, PartialEq)]
pub struct TypeStats {
    /// Committed count across all workers.
    pub count: u64,
    /// Failed attempts of this type across all workers: every abort of
    /// every try, the retried ones included. Summed over the types it
    /// is [`Measurement::aborted`].
    pub aborted: u64,
    /// Virtual throughput (txns/sec) across the cluster.
    pub tps: f64,
    /// Mean latency in virtual microseconds.
    pub mean_us: f64,
    /// Median latency in virtual microseconds.
    pub p50_us: f64,
    /// 99th-percentile latency in virtual microseconds.
    pub p99_us: f64,
}

/// Aggregated results of one run.
#[derive(Debug, Clone, PartialEq)]
pub struct Measurement {
    /// Total committed transactions.
    pub committed: u64,
    /// Total aborted attempts.
    pub aborted: u64,
    /// Fallback-handler invocations.
    pub fallbacks: u64,
    /// Cluster throughput over the whole mix, txns/sec (virtual time).
    pub throughput: f64,
    /// Per-type breakdown, keyed by type name.
    pub per_type: HashMap<&'static str, TypeStats>,
    /// Worker slots that stopped early: their machine died under them
    /// or left the configuration.
    pub stopped: usize,
    /// Virtual ns the workers' clocks spent, per cause, summed over
    /// every worker of the run.
    pub spent: Ledger,
}

impl Measurement {
    /// Throughput of one type (0.0 if absent).
    pub fn tps_of(&self, name: &str) -> f64 {
        self.per_type.get(name).map_or(0.0, |t| t.tps)
    }
}

/// A closed-loop workload: what the driver needs to build and load its
/// cluster, and to draw and run its transactions. TPC-C, SmallBank and
/// YCSB implement it on their configurations.
// The driver polls these futures on the thread that made them, so they
// need no `Send` bound.
#[allow(async_fn_in_trait)]
pub trait Workload {
    /// Salt of a worker slot's seed.
    const SLOT_SALT: u64;
    /// Salt of a routine's generator RNG.
    const GEN_SALT: u64;
    /// One routine's generator: its RNG and whatever else its draws
    /// carry from one transaction to the next.
    type Gen;
    /// One drawn transaction, fixed before it runs (an engine may run a
    /// body several times).
    type Input;

    /// Machines in the cluster.
    fn nodes(&self) -> usize;
    /// The schema instantiated on every node.
    fn schema(&self) -> Vec<TableSpec>;
    /// Region bytes per node for `run`.
    fn region_size(&self, run: &RunCfg) -> usize;
    /// Loads the initial dataset.
    fn load(&self, cluster: &DrtmCluster);
    /// The generator of routine `id` of worker slot `tid` on `node`,
    /// drawing from `rng`.
    fn generator(&self, node: usize, tid: usize, id: usize, rng: SplitMix64) -> Self::Gen;
    /// Draws transaction `i` (unique in its slot): its type name,
    /// whether it is read-only, and its input.
    fn next(&self, gen: &mut Self::Gen, i: u64) -> (&'static str, bool, Self::Input);
    /// Runs `input` as one transaction body.
    async fn execute(&self, t: &mut dyn TxnApi, input: &Self::Input) -> Result<(), TxnError>;
    /// Steps what the workload keeps on the run's virtual clock (the
    /// chaos harness's lease supervisor) to `now_vns`, the time of the
    /// drive loop's next action; [`run_on`] calls it before every one.
    fn tick(&self, _now_vns: u64) {}
}

/// One transaction type's tally in one measurement loop, or merged
/// over several.
#[derive(Default)]
struct TypeTally {
    committed: u64,
    aborted: u64,
    /// Commit latencies, virtual ns.
    latency: Histogram,
}

impl TypeTally {
    fn merge(&mut self, other: &TypeTally) {
        self.committed += other.committed;
        self.aborted += other.aborted;
        self.latency.merge(&other.latency);
    }
}

/// What one measurement loop returns: its tally per transaction type.
type LoopOut = HashMap<&'static str, TypeTally>;

#[derive(Default)]
struct WorkerResult {
    vtime_ns: u64,
    committed: u64,
    aborted: u64,
    fallbacks: u64,
    per_type: LoopOut,
    stopped: bool,
    spent: Ledger,
}

/// One worker slot of a run: `run.threads` of them on each machine.
struct Slot<'a, W> {
    wl: &'a W,
    run: &'a RunCfg,
    cluster: &'a DrtmCluster,
    calvin: Option<&'a CalvinEngine>,
    node: usize,
    tid: usize,
    seed: u64,
}

impl<W: Workload> Slot<'_, W> {
    /// The measurement loop: routine `id`'s `count` transactions on
    /// `w`, indexed from `id * run.txns_per_worker` so routines never
    /// share an index, drawn from the routine's own RNG stream, with
    /// the machine's truncation step after each. The routine stops
    /// early, and says so, when its machine dies or a transaction finds
    /// it `Crashed` (dead, or voted out of the configuration).
    async fn routine(&self, id: usize, count: usize, w: &mut Worker) -> (LoopOut, bool) {
        let rng = SplitMix64::new(self.seed ^ W::GEN_SALT ^ ((id as u64) << 12));
        let mut gen = self.wl.generator(self.node, self.tid, id, rng);
        let mut per_type = LoopOut::new();
        let base = id * self.run.txns_per_worker;
        for i in base..base + count {
            if !self.cluster.is_alive(self.node) {
                return (per_type, true);
            }
            if drtm_base::shutdown::requested() {
                break;
            }
            let (name, ro, input) = self.wl.next(&mut gen, i as u64);
            let (t0, aborted) = (w.clock.now(), w.obs.aborted.get());
            let result = self.exec_txn(w, ro, &input).await;
            let dt = w.clock.now().saturating_sub(t0);
            let e = per_type.entry(name).or_default();
            e.aborted += w.obs.aborted.get() - aborted;
            match result {
                Ok(()) => {
                    e.committed += 1;
                    e.latency.record(dt);
                }
                Err(TxnError::Crashed) => return (per_type, true),
                Err(_) => {}
            }
            self.cluster.truncate_step_at(self.node, w.clock.now());
        }
        (per_type, false)
    }

    /// Runs `input` as one transaction on `w` through the run's engine.
    async fn exec_txn(&self, w: &mut Worker, ro: bool, input: &W::Input) -> Result<(), TxnError> {
        let body = async |t: &mut dyn TxnApi| self.wl.execute(t, input).await;
        match self.run.engine {
            EngineKind::DrtmR if ro => w.run_ro_async(body).await,
            EngineKind::DrtmR => w.run_async(body).await,
            EngineKind::Drtm => drtm2pl::run(w, body).await,
            EngineKind::Calvin => self.calvin.expect("calvin engine").run(w, body).await,
        }
    }
}

/// One slot's result from its routines' workers and loops. The slot's
/// virtual time is the *slowest* routine's clock: the routines share
/// one simulated core, so verb waits hidden behind other routines' CPU
/// work shrink vtime and show up as throughput.
fn tally(outs: impl IntoIterator<Item = (Worker, (LoopOut, bool))>) -> WorkerResult {
    let mut res = WorkerResult::default();
    for (w, (per_type, stopped)) in outs {
        res.stopped |= stopped;
        res.vtime_ns = res.vtime_ns.max(w.clock.now());
        res.aborted += w.obs.aborted.get();
        res.fallbacks += w.obs.fallbacks.get();
        res.spent += w.clock.spent();
        for (name, t) in per_type {
            res.committed += t.committed;
            res.per_type.entry(name).or_default().merge(&t);
        }
    }
    res
}

/// Builds and loads a cluster for `wl` under `run`; `tweak` sets the
/// engine options a [`RunCfg`] does not carry (the ablations, the NIC
/// cost). The Calvin sequencer comes with it on a Calvin run.
pub fn build<W: Workload>(
    wl: &W,
    run: &RunCfg,
    tweak: impl FnOnce(&mut EngineOpts),
) -> (Arc<DrtmCluster>, Option<Arc<CalvinEngine>>) {
    let mut opts = EngineOpts::builder()
        .replicas(run.replicas)
        .region_size(wl.region_size(run))
        .contention(run.contention)
        .build();
    tweak(&mut opts);
    let cluster = DrtmCluster::new(wl.nodes(), &wl.schema(), opts);
    wl.load(&cluster);
    let calvin =
        (run.engine == EngineKind::Calvin).then(|| CalvinEngine::new(Arc::clone(&cluster)));
    (cluster, calvin)
}

/// Runs `wl` on an already built and loaded cluster. Every worker slot
/// is one [`RoutinePool`] whose routines split the slot's budget:
/// `run.routines` of them on DrTM+R, one on a baseline engine, which
/// has no routine scheduler of its own. All `nodes × threads` pools
/// run on one drive loop on the calling thread, stepped in virtual-time
/// order ([`RoutinePool::run_many`]), so the measurement is a function
/// of `run` and the cluster alone.
pub fn run_on<W: Workload>(
    wl: &W,
    run: &RunCfg,
    cluster: &Arc<DrtmCluster>,
    calvin: Option<&Arc<CalvinEngine>>,
) -> Measurement {
    let slots = run_slots(wl, run, cluster, calvin);
    aggregate(slots.into_iter().map(tally).collect())
}

/// [`run_on`]'s run: each slot's workers, as the run left them, with
/// their measurement loops' tallies.
fn run_slots<W: Workload>(
    wl: &W,
    run: &RunCfg,
    cluster: &Arc<DrtmCluster>,
    calvin: Option<&Arc<CalvinEngine>>,
) -> Vec<Vec<(Worker, (LoopOut, bool))>> {
    let r = if run.engine == EngineKind::DrtmR {
        run.routines.max(1)
    } else {
        1
    };
    let slots: Vec<Slot<'_, W>> = (0..wl.nodes())
        .flat_map(|node| (0..run.threads).map(move |tid| (node, tid)))
        .map(|(node, tid)| Slot {
            wl,
            run,
            cluster,
            calvin: calvin.map(Arc::as_ref),
            node,
            tid,
            seed: run.seed ^ ((node as u64) << 40) ^ ((tid as u64) << 20) ^ W::SLOT_SALT,
        })
        .collect();
    let pools = slots.iter().map(|slot| {
        let worker = |id: usize| cluster.worker(slot.node, slot.seed ^ ((id as u64) << 8));
        (0..r).map(worker).collect()
    });
    let (chunk, rem) = (run.txns_per_worker / r, run.txns_per_worker % r);
    RoutinePool::run_many(
        pools.collect(),
        |now| wl.tick(now),
        async |p, id, w| slots[p].routine(id, chunk + usize::from(id < rem), w).await,
    )
}

/// Builds a cluster for `wl` (see [`build`]) and runs it; returns the
/// cluster too, for what a caller reads off it afterwards.
pub fn run<W: Workload>(
    wl: &W,
    run: &RunCfg,
    tweak: impl FnOnce(&mut EngineOpts),
) -> (Arc<DrtmCluster>, Measurement) {
    let (cluster, calvin) = build(wl, run, tweak);
    let m = run_on(wl, run, &cluster, calvin.as_ref());
    (cluster, m)
}

/// The per-workload entry points `perf/`, the examples and the tests
/// name: [`build`], [`run`] and [`run_on`] at one configuration type.
macro_rules! entry_points {
    ($($what:literal $cfg:ty: $build:ident, $run:ident, $run_on:ident;)*) => {$(
        #[doc = concat!("Builds and loads a ", $what, " cluster for `run`.")]
        pub fn $build(cfg: &$cfg, run: &RunCfg) -> (Arc<DrtmCluster>, Option<Arc<CalvinEngine>>) {
            build(cfg, run, |_| {})
        }
        #[doc = concat!("Runs ", $what, " on a fresh cluster.")]
        pub fn $run(cfg: &$cfg, run: &RunCfg) -> Measurement {
            self::run(cfg, run, |_| {}).1
        }
        #[doc = concat!("Runs ", $what, " against an already built and loaded cluster.")]
        pub fn $run_on(
            cfg: &$cfg,
            run: &RunCfg,
            cluster: &Arc<DrtmCluster>,
            calvin: Option<&Arc<CalvinEngine>>,
        ) -> Measurement {
            run_on(cfg, run, cluster, calvin)
        }
    )*};
}
entry_points! {
    "TPC-C" TpccCfg: build_tpcc, run_tpcc, run_tpcc_on;
    "SmallBank" SbCfg: build_smallbank, run_smallbank, run_smallbank_on;
    "YCSB" YcsbCfg: build_ycsb, run_ycsb, run_ycsb_on;
}

fn aggregate(results: Vec<WorkerResult>) -> Measurement {
    let mut m = Measurement {
        committed: 0,
        aborted: 0,
        fallbacks: 0,
        throughput: 0.0,
        per_type: HashMap::new(),
        stopped: 0,
        spent: Ledger::default(),
    };
    // Per type: commits and aborts, throughput summed over workers, and
    // the workers' latency histograms merged, so that every quantile is
    // the merged distribution's and not a mean of per-worker quantiles.
    let mut types: HashMap<&'static str, (TypeTally, f64)> = HashMap::new();
    for r in results {
        m.committed += r.committed;
        m.aborted += r.aborted;
        m.fallbacks += r.fallbacks;
        m.stopped += usize::from(r.stopped);
        m.spent += &r.spent;
        let secs = (r.vtime_ns.max(1)) as f64 / 1e9;
        m.throughput += r.committed as f64 / secs;
        for (name, t) in r.per_type {
            let e = types.entry(name).or_default();
            e.0.merge(&t);
            e.1 += t.committed as f64 / secs;
        }
    }
    for (name, (t, tps)) in types {
        let (us, hist) = (|ns: f64| ns / 1e3, &t.latency);
        m.per_type.insert(
            name,
            TypeStats {
                count: t.committed,
                aborted: t.aborted,
                tps,
                mean_us: us(hist.mean()),
                p50_us: us(hist.quantile(0.5) as f64),
                p99_us: us(hist.quantile(0.99) as f64),
            },
        );
    }
    m
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Two workers whose latencies of one type differ by three orders of
    /// magnitude: the reported quantiles are those of one histogram that
    /// recorded every commit, not count-weighted means of each worker's.
    #[test]
    fn per_type_quantiles_are_the_merged_distributions() {
        let all = Histogram::new();
        let worker = |commits: u64, ns: u64| {
            let hist = Histogram::new();
            for _ in 0..commits {
                hist.record(ns);
                all.record(ns);
            }
            let tally = TypeTally {
                committed: commits,
                aborted: 0,
                latency: hist,
            };
            WorkerResult {
                vtime_ns: 1_000_000_000,
                committed: commits,
                aborted: 0,
                fallbacks: 0,
                per_type: HashMap::from([("x", tally)]),
                stopped: false,
                spent: Ledger::default(),
            }
        };
        let m = aggregate(vec![worker(300, 1_000), worker(100, 1_000_000)]);
        let x = &m.per_type["x"];
        assert_eq!((x.count, x.tps), (400, 400.0));
        assert_eq!(x.mean_us, all.mean() / 1e3);
        assert_eq!(x.p50_us, all.quantile(0.5) as f64 / 1e3);
        assert_eq!(x.p99_us, all.quantile(0.99) as f64 / 1e3);
        assert!(x.p50_us < 2.0 && x.p99_us > 500.0, "{x:?}");
    }

    /// Every worker's clock spends its time on named causes, on TPC-C
    /// on each engine (DrTM+R also in pools of 8 routines) and on 3-way
    /// replicated SmallBank: the causes
    /// total the clock, each fixed-cost CPU cause is a whole number of
    /// its constant, and the wait a sibling routine could hide — verb
    /// completions, and R.1's log WRITEs with their NIC backlog — is the
    /// verb wait the metrics registry summed for the same workers.
    #[test]
    fn every_clock_spends_its_time_on_named_causes() {
        use crate::smallbank::SbCfg;
        use crate::tpcc::TpccCfg;
        use drtm_base::{Cause, Ledger};
        use drtm_core::scrape_cluster;

        fn check<W: Workload>(wl: &W, run: &RunCfg) -> Ledger {
            let (cluster, calvin) = build(wl, run, |_| {});
            let slots = run_slots(wl, run, &cluster, calvin.as_ref());
            let cost = &cluster.opts.cost;
            let mut all = Ledger::default();
            for (w, _) in slots.iter().flatten() {
                let spent = w.clock.spent();
                assert_eq!(spent.total(), w.clock.now(), "{run:?}");
                for (cause, unit) in [
                    (Cause::RecordLogic, cost.record_logic_ns),
                    (Cause::Doorbell, cost.doorbell_ns),
                    (Cause::HtmBegin, cost.htm_begin_ns),
                ] {
                    assert_eq!(spent.get(cause) % unit, 0, "{} {run:?}", cause.name());
                }
                all += spent;
            }
            let hideable = [Cause::VerbWait, Cause::LogFlush, Cause::NicBudget];
            let hideable: u64 = hideable.into_iter().map(|c| all.get(c)).sum();
            let registry = scrape_cluster(&cluster).pipeline.wait_ns;
            assert_eq!(hideable, registry, "{run:?}");
            assert!(all.get(Cause::RecordLogic) > 0, "{run:?}");
            all
        }

        let tpcc = TpccCfg {
            nodes: 2,
            customers: 32,
            items: 64,
            init_orders: 6,
            history_buckets: 1 << 12,
            ..Default::default()
        };
        let run = |engine, replicas| RunCfg {
            engine,
            replicas,
            threads: 2,
            txns_per_worker: 100,
            ..Default::default()
        };
        let spent = check(&tpcc, &run(EngineKind::DrtmR, 1));
        assert!(spent.get(Cause::VerbWait) > 0 && spent.get(Cause::HtmBegin) > 0);
        let pooled = RunCfg {
            routines: 8,
            ..run(EngineKind::DrtmR, 1)
        };
        assert!(check(&tpcc, &pooled).get(Cause::Sibling) > 0);
        let spent = check(&tpcc, &run(EngineKind::Drtm, 1));
        assert!(spent.get(Cause::VerbWait) > 0 && spent.get(Cause::HtmBegin) > 0);
        let spent = check(&tpcc, &run(EngineKind::Calvin, 1));
        assert!(spent.get(Cause::Ipoib) > 0 && spent.get(Cause::LockWait) > 0);
        let sb = SbCfg {
            nodes: 3,
            accounts: 200,
            cross_prob: 0.5,
            ..Default::default()
        };
        let spent = check(&sb, &run(EngineKind::DrtmR, 3));
        assert!(spent.get(Cause::LogFlush) > 0 && spent.get(Cause::Doorbell) > 0);
    }
}
