//! The measurement harness.
//!
//! Spawns `nodes × threads` worker threads (each a simulated worker on
//! its machine), runs a fixed number of transactions per worker, and
//! aggregates throughput in *virtual* time: each worker is an
//! independent pipeline advancing its own clock, so the cluster rate is
//! `Σ_w committed_w / vtime_w` — independent of how the (single-core)
//! host schedules the threads. Shared bottlenecks like the per-node NIC
//! couple workers through ledgers of virtual-time windows, which is how
//! the replication experiments saturate exactly like the paper's.

use std::collections::HashMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use drtm_base::{Histogram, SplitMix64};
use drtm_baselines::CalvinEngine;
use drtm_core::cluster::{DrtmCluster, EngineOpts};
use drtm_core::txn::{TxnError, Worker};
use drtm_core::{ContentionPolicy, RoutinePool};

use crate::engine::{EngineWorker, TxnApi};
use crate::smallbank::{self, SbCfg};
use crate::tpcc::{self, txns, TpccCfg};
use crate::ycsb::{self, YcsbCfg};

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
    /// Override of the new-order cross-warehouse probability
    /// (Figure 17's sweep); `None` uses the workload config.
    pub cross_override: Option<f64>,
    /// Enable the `IBV_ATOMIC_GLOB` fused lock+validate ablation.
    pub fuse_lock_validate: bool,
    /// Disable the DrTM location cache (ablation).
    pub no_location_cache: bool,
    /// FaRM-style messaging for remote locking (ablation, §4.4).
    pub msg_locking: bool,
    /// In-flight transaction routines multiplexed per worker thread
    /// (DESIGN.md §11). Each DrTM+R worker slot runs `R` cooperative
    /// routines through a [`RoutinePool`], splitting its transaction
    /// budget across them; the slot's virtual time is the slowest
    /// routine's clock, so verb waits hidden behind other routines' CPU
    /// work show up directly as throughput. With `1` (the default) the
    /// pool's one routine runs the transactions back to back; baseline
    /// engines have no routine scheduler and always run that way.
    pub routines: usize,
    /// Contention-management policy for every table (DESIGN.md §15):
    /// `Off` keeps the paper's randomized backoff byte-identical,
    /// `Escalate` climbs the three-rung ladder on consecutive aborts,
    /// `AlwaysPessimistic` takes wait-mode C.1 locks from the first
    /// attempt.
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
            cross_override: None,
            fuse_lock_validate: false,
            no_location_cache: false,
            msg_locking: false,
            routines: 1,
            contention: ContentionPolicy::Off,
        }
    }
}

/// Per-transaction-type results.
#[derive(Debug, Clone)]
pub struct TypeStats {
    /// Committed count across all workers.
    pub count: u64,
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
#[derive(Debug, Clone)]
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
}

impl Measurement {
    /// Throughput of one type (0.0 if absent).
    pub fn tps_of(&self, name: &str) -> f64 {
        self.per_type.get(name).map_or(0.0, |t| t.tps)
    }
}

/// What one measurement loop returns: its commit count and, per
/// transaction type, the count and latency histogram.
type LoopOut = (u64, HashMap<&'static str, (u64, Histogram)>);

struct WorkerResult {
    vtime_ns: u64,
    committed: u64,
    aborted: u64,
    fallbacks: u64,
    per_type: HashMap<&'static str, (u64, Histogram)>,
}

/// The minimal surface the measurement loops need, so one loop body
/// serves both a baseline engine's [`EngineWorker`] (driven to
/// completion in a single poll) and a DrTM+R [`Worker`] routine (which
/// suspends back to its pool's reactor at every doorbell).
trait MeasuredWorker {
    /// Runs one transaction body to commit or abort.
    async fn exec_txn<B>(&mut self, ro: bool, body: B) -> Result<(), TxnError>
    where
        B: AsyncFnMut(&mut dyn TxnApi) -> Result<(), TxnError>;
    /// The worker's current virtual time.
    fn vnow(&self) -> u64;
}

impl MeasuredWorker for EngineWorker {
    async fn exec_txn<B>(&mut self, _ro: bool, body: B) -> Result<(), TxnError>
    where
        B: AsyncFnMut(&mut dyn TxnApi) -> Result<(), TxnError>,
    {
        self.exec(body)
    }
    fn vnow(&self) -> u64 {
        self.clock_now()
    }
}

impl MeasuredWorker for Worker {
    async fn exec_txn<B>(&mut self, ro: bool, mut body: B) -> Result<(), TxnError>
    where
        B: AsyncFnMut(&mut dyn TxnApi) -> Result<(), TxnError>,
    {
        if ro {
            self.run_ro_async(async |t| body(t as &mut dyn TxnApi).await)
                .await
        } else {
            self.run_async(async |t| body(t as &mut dyn TxnApi).await)
                .await
        }
    }
    fn vnow(&self) -> u64 {
        self.clock.now()
    }
}

/// Runs one DrTM+R worker slot's transactions through a
/// [`RoutinePool`]: `run.routines` routines split the slot's budget
/// (`loop_fn(id, worker, index_base, count)` runs one routine's share
/// with disjoint transaction indices), and the slot's virtual time is
/// the *slowest* routine's clock — the routines share one simulated
/// core, so verb waits hidden behind other routines' CPU work shrink
/// vtime and show up as throughput.
fn run_pipelined<F>(
    run: &RunCfg,
    cluster: &Arc<DrtmCluster>,
    node: usize,
    seed: u64,
    loop_fn: F,
) -> WorkerResult
where
    F: AsyncFn(usize, &mut Worker, usize, usize) -> LoopOut,
{
    let r = run.routines.max(1);
    let workers: Vec<Worker> = (0..r)
        .map(|id| cluster.worker(node, seed ^ ((id as u64) << 8)))
        .collect();
    let chunk = run.txns_per_worker / r;
    let rem = run.txns_per_worker % r;
    let outs = RoutinePool::run(workers, async |id, w| {
        let count = chunk + usize::from(id < rem);
        loop_fn(id, w, id * run.txns_per_worker, count).await
    });
    let mut res = WorkerResult {
        vtime_ns: 0,
        committed: 0,
        aborted: 0,
        fallbacks: 0,
        per_type: HashMap::new(),
    };
    for (w, (committed, per_type)) in outs {
        res.vtime_ns = res.vtime_ns.max(w.clock.now());
        res.committed += committed;
        res.aborted += w.stats.aborted;
        res.fallbacks += w.stats.fallbacks;
        for (name, (count, hist)) in per_type {
            let e = res
                .per_type
                .entry(name)
                .or_insert_with(|| (0, Histogram::new()));
            e.0 += count;
            e.1.merge(&hist);
        }
    }
    res
}

/// Runs one worker slot of `run.engine`: a DrTM+R slot's routines run
/// `pooled` (see [`run_pipelined`]); a baseline engine has no routine
/// scheduler and nothing in it suspends, so its one worker drives
/// `baseline` — the same loop with the whole budget — in a single poll.
fn run_slot(
    run: &RunCfg,
    cluster: &Arc<DrtmCluster>,
    calvin: Option<&Arc<CalvinEngine>>,
    node: usize,
    seed: u64,
    pooled: impl AsyncFn(usize, &mut Worker, usize, usize) -> LoopOut,
    baseline: impl AsyncFnOnce(&mut EngineWorker) -> LoopOut,
) -> WorkerResult {
    if run.engine == EngineKind::DrtmR {
        return run_pipelined(run, cluster, node, seed, pooled);
    }
    let mut ew = EngineWorker::new(run.engine, cluster, calvin, node, seed);
    let (committed, per_type) = drtm_base::task::block_now(baseline(&mut ew));
    WorkerResult {
        vtime_ns: ew.clock_now(),
        committed,
        aborted: ew.stats().aborted,
        fallbacks: ew.stats().fallbacks,
        per_type,
    }
}

/// The closed-loop harness every workload shares: `slot(node, tid)` on
/// its own OS thread for each of `nodes × run.threads` worker slots,
/// the log-truncation thread beside them on replicated runs, results
/// aggregated in virtual time.
fn run_slots(
    nodes: usize,
    run: &RunCfg,
    cluster: &Arc<DrtmCluster>,
    slot: impl Fn(usize, usize) -> WorkerResult + Sync,
) -> Measurement {
    let stop = Arc::new(AtomicBool::new(false));
    let aux = (run.replicas > 1).then(|| spawn_aux(cluster, &stop));
    let slot = &slot;
    let results = std::thread::scope(|s| {
        let handles: Vec<_> = (0..nodes)
            .flat_map(|node| (0..run.threads).map(move |tid| (node, tid)))
            .map(|(node, tid)| s.spawn(move || slot(node, tid)))
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("worker slot panicked"))
            .collect()
    });
    stop.store(true, Ordering::Relaxed);
    if let Some(a) = aux {
        a.join().unwrap();
    }
    aggregate(results)
}

/// Builds the engine options for a run.
fn engine_opts(run: &RunCfg, region_size: usize) -> EngineOpts {
    EngineOpts::builder()
        .replicas(run.replicas)
        .region_size(region_size)
        .fuse_lock_validate(run.fuse_lock_validate)
        .use_location_cache(!run.no_location_cache)
        .msg_locking(run.msg_locking)
        .contention(run.contention)
        .build()
}

/// Builds and loads a TPC-C cluster for `run`.
pub fn build_tpcc(cfg: &TpccCfg, run: &RunCfg) -> (Arc<DrtmCluster>, Option<Arc<CalvinEngine>>) {
    let expected = run.txns_per_worker * run.threads * 2;
    let opts = engine_opts(run, cfg.region_size(expected));
    let cluster = DrtmCluster::new(cfg.nodes, &cfg.schema(), opts);
    tpcc::load(&cluster, cfg);
    let calvin =
        (run.engine == EngineKind::Calvin).then(|| CalvinEngine::new(Arc::clone(&cluster)));
    (cluster, calvin)
}

/// Builds and loads a SmallBank cluster for `run`.
pub fn build_smallbank(cfg: &SbCfg, run: &RunCfg) -> (Arc<DrtmCluster>, Option<Arc<CalvinEngine>>) {
    // SmallBank writes every table it reads; nothing is read-mostly.
    let opts = engine_opts(run, cfg.region_size());
    let cluster = DrtmCluster::new(cfg.nodes, &cfg.schema(), opts);
    smallbank::load(&cluster, cfg);
    let calvin =
        (run.engine == EngineKind::Calvin).then(|| CalvinEngine::new(Arc::clone(&cluster)));
    (cluster, calvin)
}

/// Starts the auxiliary log-truncation thread (replication runs).
fn spawn_aux(cluster: &Arc<DrtmCluster>, stop: &Arc<AtomicBool>) -> std::thread::JoinHandle<()> {
    let cluster = Arc::clone(cluster);
    let stop = Arc::clone(stop);
    std::thread::spawn(move || {
        while !stop.load(Ordering::Relaxed) {
            for node in 0..cluster.nodes() {
                cluster.truncate_step(node);
            }
            std::thread::sleep(std::time::Duration::from_millis(1));
        }
    })
}

fn aggregate(results: Vec<WorkerResult>) -> Measurement {
    let mut m = Measurement {
        committed: 0,
        aborted: 0,
        fallbacks: 0,
        throughput: 0.0,
        per_type: HashMap::new(),
    };
    // Per type: commits, throughput summed over workers, and the
    // workers' latency histograms merged, so that every quantile is the
    // merged distribution's and not a mean of per-worker quantiles.
    let mut types: HashMap<&'static str, (u64, f64, Histogram)> = HashMap::new();
    for r in results {
        m.committed += r.committed;
        m.aborted += r.aborted;
        m.fallbacks += r.fallbacks;
        let secs = (r.vtime_ns.max(1)) as f64 / 1e9;
        m.throughput += r.committed as f64 / secs;
        for (name, (count, hist)) in r.per_type {
            let e = types
                .entry(name)
                .or_insert_with(|| (0, 0.0, Histogram::new()));
            e.0 += count;
            e.1 += count as f64 / secs;
            e.2.merge(&hist);
        }
    }
    for (name, (count, tps, hist)) in types {
        let us = |ns: f64| ns / 1e3;
        m.per_type.insert(
            name,
            TypeStats {
                count,
                tps,
                mean_us: us(hist.mean()),
                p50_us: us(hist.quantile(0.5) as f64),
                p99_us: us(hist.quantile(0.99) as f64),
            },
        );
    }
    m
}

/// Runs the TPC-C standard mix and reports per-type results.
///
/// `new-order` throughput is the paper's headline TPC-C metric.
pub fn run_tpcc(cfg: &TpccCfg, run: &RunCfg) -> Measurement {
    let (cluster, calvin) = build_tpcc(cfg, run);
    run_tpcc_on(cfg, run, &cluster, calvin.as_ref())
}

/// Runs TPC-C against an already built and loaded cluster.
pub fn run_tpcc_on(
    cfg: &TpccCfg,
    run: &RunCfg,
    cluster: &Arc<DrtmCluster>,
    calvin: Option<&Arc<CalvinEngine>>,
) -> Measurement {
    let cross = run.cross_override.unwrap_or(cfg.cross_new_order);
    run_slots(cfg.nodes, run, cluster, |node, tid| {
        let seed = run.seed ^ ((node as u64) << 40) ^ ((tid as u64) << 20);
        let home_w = (node * cfg.warehouses_per_node + tid % cfg.warehouses_per_node) as u64;
        let hist_base = ((node as u64) << 24 | tid as u64) << 32;
        // Routines get disjoint RNG streams and history-key ranges so
        // their insert keys never collide.
        let routine = async |id: usize, w: &mut Worker, base, count| {
            let rng_seed = seed ^ 0xBEEF ^ ((id as u64) << 12);
            let hist_base = hist_base | ((id as u64) << 26);
            tpcc_loop(
                cfg, cluster, w, node, home_w, cross, rng_seed, hist_base, base, count,
            )
            .await
        };
        let whole = async |ew: &mut EngineWorker| {
            let (rng_seed, count) = (seed ^ 0xBEEF, run.txns_per_worker);
            tpcc_loop(
                cfg, cluster, ew, node, home_w, cross, rng_seed, hist_base, 0, count,
            )
            .await
        };
        run_slot(run, cluster, calvin, node, seed, routine, whole)
    })
}

#[allow(clippy::too_many_arguments)]
async fn tpcc_loop<M: MeasuredWorker>(
    cfg: &TpccCfg,
    cluster: &DrtmCluster,
    ew: &mut M,
    node: usize,
    home_w: u64,
    cross: f64,
    rng_seed: u64,
    hist_base: u64,
    base: usize,
    count: usize,
) -> LoopOut {
    let mut rng = SplitMix64::new(rng_seed);
    let mut hist_key = hist_base;
    let mut per_type: HashMap<&'static str, (u64, Histogram)> = HashMap::new();
    let mut committed = 0u64;

    for j in 0..count {
        let i = base + j;
        if !cluster.is_alive(node) || drtm_base::shutdown::requested() {
            break;
        }
        let ttype = txns::TxnType::pick(&mut rng);
        let t0 = ew.vnow();
        let result: Result<(), TxnError> = match ttype {
            txns::TxnType::NewOrder => {
                let inp = txns::gen_new_order(cfg, &mut rng, home_w, cross);
                ew.exec_txn(false, async |t| {
                    txns::new_order(t, cfg, &inp, i as u64).await
                })
                .await
            }
            txns::TxnType::Payment => {
                hist_key += 1;
                let inp = txns::gen_payment(cfg, &mut rng, home_w, hist_key);
                ew.exec_txn(false, async |t| txns::payment(t, cfg, &inp).await)
                    .await
            }
            txns::TxnType::Delivery => {
                let carrier = rng.range(1, 10);
                ew.exec_txn(false, async |t| {
                    txns::delivery(t, cfg, home_w, carrier, i as u64).await
                })
                .await
            }
            txns::TxnType::OrderStatus => {
                let d = rng.below(cfg.districts as u64);
                let by = if rng.chance(0.6) {
                    txns::CustomerBy::LastName(crate::tpcc::lastname_id(txns::nurand(
                        &mut rng,
                        255,
                        0,
                        cfg.customers as u64 - 1,
                    )))
                } else {
                    txns::CustomerBy::Id(txns::nurand(&mut rng, 1023, 0, cfg.customers as u64 - 1))
                };
                ew.exec_txn(true, async |t| {
                    txns::order_status(t, cfg, home_w, d, by).await
                })
                .await
            }
            txns::TxnType::StockLevel => {
                let d = rng.below(cfg.districts as u64);
                let thr = rng.range(10, 20);
                ew.exec_txn(true, async |t| {
                    txns::stock_level(t, cfg, home_w, d, thr).await.map(|_| ())
                })
                .await
            }
        };
        let dt = ew.vnow().saturating_sub(t0);
        if result.is_ok() {
            committed += 1;
            let e = per_type
                .entry(ttype.name())
                .or_insert_with(|| (0, Histogram::new()));
            e.0 += 1;
            e.1.record(dt);
        }
    }
    (committed, per_type)
}

/// Builds and loads a YCSB cluster for `run`.
pub fn build_ycsb(cfg: &YcsbCfg, run: &RunCfg) -> (Arc<DrtmCluster>, Option<Arc<CalvinEngine>>) {
    let opts = engine_opts(run, cfg.region_size());
    let cluster = DrtmCluster::new(cfg.nodes, &cfg.schema(), opts);
    ycsb::load(&cluster, cfg);
    let calvin =
        (run.engine == EngineKind::Calvin).then(|| CalvinEngine::new(Arc::clone(&cluster)));
    (cluster, calvin)
}

/// Runs a YCSB mix.
pub fn run_ycsb(cfg: &YcsbCfg, run: &RunCfg) -> Measurement {
    let (cluster, calvin) = build_ycsb(cfg, run);
    run_ycsb_on(cfg, run, &cluster, calvin.as_ref())
}

/// Runs YCSB against an already built and loaded cluster.
pub fn run_ycsb_on(
    cfg: &YcsbCfg,
    run: &RunCfg,
    cluster: &Arc<DrtmCluster>,
    calvin: Option<&Arc<CalvinEngine>>,
) -> Measurement {
    run_slots(cfg.nodes, run, cluster, |node, tid| {
        let seed = run.seed ^ ((node as u64) << 40) ^ ((tid as u64) << 20) ^ 0x4C5B;
        let routine = async |id: usize, w: &mut Worker, base, count| {
            let rng_seed = seed ^ 0xD00D ^ ((id as u64) << 12);
            ycsb_loop(cfg, cluster, w, node, rng_seed, base, count).await
        };
        let whole = async |ew: &mut EngineWorker| {
            let (rng_seed, count) = (seed ^ 0xD00D, run.txns_per_worker);
            ycsb_loop(cfg, cluster, ew, node, rng_seed, 0, count).await
        };
        run_slot(run, cluster, calvin, node, seed, routine, whole)
    })
}

async fn ycsb_loop<M: MeasuredWorker>(
    cfg: &YcsbCfg,
    cluster: &DrtmCluster,
    ew: &mut M,
    node: usize,
    rng_seed: u64,
    base: usize,
    count: usize,
) -> LoopOut {
    let mut rng = SplitMix64::new(rng_seed);
    let zipf = ycsb::Zipf::new(cfg.records as u64, cfg.theta);
    let mut per_type: HashMap<&'static str, (u64, Histogram)> = HashMap::new();
    let mut committed = 0u64;
    for j in 0..count {
        let i = base + j;
        if !cluster.is_alive(node) || drtm_base::shutdown::requested() {
            break;
        }
        let op = ycsb::gen(cfg, &zipf, &mut rng, node);
        let name = if op.is_read { "read" } else { "update" };
        let t0 = ew.vnow();
        let result = ew
            .exec_txn(op.is_read, async |t| {
                ycsb::execute(t, cfg, &op, i as u64).await
            })
            .await;
        let dt = ew.vnow().saturating_sub(t0);
        if result.is_ok() {
            committed += 1;
            let e = per_type
                .entry(name)
                .or_insert_with(|| (0, Histogram::new()));
            e.0 += 1;
            e.1.record(dt);
        }
    }
    (committed, per_type)
}

/// Runs the SmallBank mix.
pub fn run_smallbank(cfg: &SbCfg, run: &RunCfg) -> Measurement {
    let (cluster, calvin) = build_smallbank(cfg, run);
    run_smallbank_on(cfg, run, &cluster, calvin.as_ref())
}

/// Runs SmallBank against an already built and loaded cluster.
pub fn run_smallbank_on(
    cfg: &SbCfg,
    run: &RunCfg,
    cluster: &Arc<DrtmCluster>,
    calvin: Option<&Arc<CalvinEngine>>,
) -> Measurement {
    run_slots(cfg.nodes, run, cluster, |node, tid| {
        let seed = run.seed ^ ((node as u64) << 40) ^ ((tid as u64) << 20) ^ 0x5B;
        let routine = async |id: usize, w: &mut Worker, _base, count| {
            let rng_seed = seed ^ 0xFACE ^ ((id as u64) << 12);
            sb_loop(cfg, cluster, w, node, rng_seed, count).await
        };
        let whole = async |ew: &mut EngineWorker| {
            sb_loop(cfg, cluster, ew, node, seed ^ 0xFACE, run.txns_per_worker).await
        };
        run_slot(run, cluster, calvin, node, seed, routine, whole)
    })
}

async fn sb_loop<M: MeasuredWorker>(
    cfg: &SbCfg,
    cluster: &DrtmCluster,
    ew: &mut M,
    node: usize,
    rng_seed: u64,
    count: usize,
) -> LoopOut {
    let mut rng = SplitMix64::new(rng_seed);
    let mut per_type: HashMap<&'static str, (u64, Histogram)> = HashMap::new();
    let mut committed = 0u64;

    for _ in 0..count {
        if !cluster.is_alive(node) || drtm_base::shutdown::requested() {
            break;
        }
        let inp = smallbank::gen(cfg, &mut rng, node);
        let t0 = ew.vnow();
        let result = ew
            .exec_txn(inp.txn.read_only(), async |t| {
                smallbank::execute(t, &inp).await
            })
            .await;
        let dt = ew.vnow().saturating_sub(t0);
        if result.is_ok() {
            committed += 1;
            let e = per_type
                .entry(inp.txn.name())
                .or_insert_with(|| (0, Histogram::new()));
            e.0 += 1;
            e.1.record(dt);
        }
    }
    (committed, per_type)
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
            WorkerResult {
                vtime_ns: 1_000_000_000,
                committed: commits,
                aborted: 0,
                fallbacks: 0,
                per_type: HashMap::from([("x", (commits, hist))]),
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
}
