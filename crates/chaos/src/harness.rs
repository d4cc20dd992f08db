//! The chaos harness: runs SmallBank under a fault plan with the
//! supervisor in charge of failure handling, then audits invariants.
//!
//! The workload is a zero-sum mix (send-payment only), so one global
//! invariant covers every failure mode this subsystem can inject: the
//! total money across all accounts — read through the *current* shard
//! map, i.e. through whatever machine recovery re-homed each shard to —
//! must equal the initial total. A lost committed update, a recovered
//! never-committed (odd) update, or a half-applied transaction all
//! break conservation.
//!
//! Recovery is triggered exclusively by the supervisor observing lease
//! expiry; the harness itself never calls `recover_node`.

use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use drtm_base::SplitMix64;
use drtm_core::cluster::{DrtmCluster, EngineOpts};
use drtm_core::recovery::full_restart_scrub;
use drtm_core::txn::{TxnError, Worker};
use drtm_core::{ContentionPolicy, RoutinePool};
use drtm_workloads::audit;
use drtm_workloads::smallbank::{self, SbCfg, SbInput, SbTxn};

use crate::injector::ChaosInjector;
use crate::plan::FaultPlan;
use crate::supervisor::{RecoveryEvent, Supervisor, SupervisorCfg};

/// Harness shape knobs (cluster size, load, supervisor timing).
#[derive(Debug, Clone)]
pub struct ChaosRunCfg {
    /// Machines in the cluster.
    pub nodes: usize,
    /// Worker threads per machine.
    pub threads: usize,
    /// SmallBank accounts per machine.
    pub accounts: usize,
    /// Probability a payment crosses shards (drives remote lock/write
    /// traffic, which is what most crash points need to be interesting).
    pub cross_prob: f64,
    /// Transactions attempted per worker (victim workers stop early).
    pub txns_per_worker: usize,
    /// Replication factor (`f + 1` copies; ≥ 2 for recovery to work).
    pub replicas: usize,
    /// Supervisor timing.
    pub supervisor: SupervisorCfg,
    /// How long to wait for the supervisor to recover every fired
    /// crash before giving up.
    pub await_recoveries: Duration,
    /// In-flight transaction routines per worker thread (DESIGN.md
    /// §11): each worker multiplexes `R` routines through a
    /// `RoutinePool`. With `R > 1` injected delays wake routines out of
    /// posting order and crash points fire at yield boundaries while
    /// sibling routines are mid-transaction; with `1` the pool's one
    /// routine runs its transactions back to back.
    pub routines: usize,
    /// Contention-management policy for every table (DESIGN.md §15).
    /// Chaos cares because rung 3 parks routines on per-key wait lists
    /// whose grants come from the *holder's* unlock path — a holder
    /// that crashes never grants, so parked waiters must drain through
    /// the liveness bound instead of deadlocking the pool.
    pub contention: ContentionPolicy,
    /// Wall-clock pause before each of a worker's transactions (zero:
    /// none). The lease machinery runs on host time, so a timeline
    /// measured in host time (Figure 20) needs paced workers: unpaced
    /// ones on an oversubscribed host starve the heartbeat thread (a
    /// healthy machine gets suspected) and *speed up* when peers die,
    /// inverting the timeline. The pause blocks the worker thread, so
    /// with `routines > 1` it paces the thread's routines together.
    pub pace: Duration,
}

impl Default for ChaosRunCfg {
    fn default() -> Self {
        Self {
            nodes: 3,
            threads: 2,
            accounts: 1_000,
            cross_prob: 0.2,
            txns_per_worker: 200,
            replicas: 3,
            supervisor: SupervisorCfg::default(),
            await_recoveries: Duration::from_secs(10),
            routines: 1,
            contention: ContentionPolicy::Off,
            pace: Duration::ZERO,
        }
    }
}

/// Everything a chaos run observed, plus the post-run invariant sweep.
#[derive(Debug)]
pub struct ChaosOutcome {
    /// Transactions reported committed across all workers.
    pub committed: u64,
    /// Transactions that aborted (including user aborts).
    pub aborted: u64,
    /// Workers that stopped early: their machine died under them or
    /// left the configuration.
    pub crashed_workers: usize,
    /// Crash specs that actually fired.
    pub crashes_fired: usize,
    /// Lease-driven recoveries, in detection order.
    pub events: Vec<RecoveryEvent>,
    /// Perturbing fault decisions taken.
    pub faults_injected: usize,
    /// Order-independent digest of the fault decisions (determinism
    /// checks).
    pub fingerprint: u64,
    /// Expected total money.
    pub initial_total: i64,
    /// Total money read through the post-recovery shard map.
    pub final_total: i64,
    /// Locks still held anywhere after recovery's sweeps (must be 0).
    pub stale_locks: usize,
    /// Odd records the restart scrub rolled forward (victim-store
    /// leftovers; abandoned stores are not read by anyone).
    pub rolled_forward: usize,
    /// Odd records the restart scrub rolled back.
    pub rolled_back: usize,
    /// When the workers started.
    pub started: Instant,
    /// When the first crash fired, if one did.
    pub crashed: Option<Instant>,
    /// When the last worker that did not stop early ran out of work
    /// (`None` if every worker stopped early).
    pub finished: Option<Instant>,
    /// `committed` split by the timeline: commits before the first
    /// crash, from then until the first recovery finished, and after.
    /// A commit racing either edge lands in the neighbouring window.
    pub window_commits: [u64; 3],
}

impl ChaosOutcome {
    /// The acceptance invariants: money conserved through recovery and
    /// no stale lock anywhere.
    pub fn audit_ok(&self) -> bool {
        self.final_total == self.initial_total && self.stale_locks == 0
    }
}

/// Runs SmallBank (zero-sum mix) under `plan` and audits the outcome.
pub fn run_smallbank_chaos(cfg: &ChaosRunCfg, plan: FaultPlan) -> ChaosOutcome {
    let sb = SbCfg {
        nodes: cfg.nodes,
        accounts: cfg.accounts,
        cross_prob: cfg.cross_prob,
        ..SbCfg::default()
    };
    let opts = EngineOpts::builder()
        .replicas(cfg.replicas.min(cfg.nodes))
        .region_size(sb.region_size())
        .contention(cfg.contention)
        .build();
    let cluster = DrtmCluster::new(cfg.nodes, &sb.schema(), opts);
    smallbank::load(&cluster, &sb);
    let initial_total = smallbank::initial_total(&sb);

    let injector = Arc::new(ChaosInjector::new(plan, cfg.nodes));
    cluster.fabric.set_injector(Arc::clone(&injector) as _);
    cluster.set_crash_hook(Arc::clone(&injector) as _);

    let sup = Supervisor::start(&cluster, cfg.supervisor, Some(Arc::clone(&injector)));
    // Commits per timeline window: before the first crash, until the
    // first recovery finished, after.
    let window_commits = [0, 1, 2].map(|_| AtomicU64::new(0));
    let window = || injector.crashes_fired().min(1) + sup.recoveries().min(1);
    let seed = injector.plan().seed;
    let routines = cfg.routines.max(1);

    // One worker thread's load: its aborts, and when it ran out of work
    // (`None`: it stopped early).
    let worker = |node: usize, tid: usize| {
        // One routine's share of the worker's load; crashes and
        // injected faults surface through the usual error paths.
        let body = async |w: &mut Worker, rng: &mut SplitMix64, txns: usize| {
            let (mut aborted, mut stopped) = (0u64, false);
            for _ in 0..txns {
                if !cfg.pace.is_zero() {
                    std::thread::sleep(cfg.pace);
                }
                // A machine voted out while alive stops through the
                // engine's fence (`Crashed`, below).
                if !cluster.is_alive(node) {
                    stopped = true;
                    break;
                }
                let a = (node, sb.pick_account(rng, node));
                let second = sb.pick_second_shard(rng, node);
                let b = (second, sb.pick_account(rng, second));
                if a == b {
                    continue;
                }
                let inp = SbInput {
                    txn: SbTxn::SendPayment,
                    a,
                    b,
                    amount: rng.range(1, 50),
                };
                match w
                    .run_async(async |t| smallbank::execute(t, &inp).await)
                    .await
                {
                    Ok(()) => _ = window_commits[window()].fetch_add(1, Ordering::Relaxed),
                    Err(TxnError::Crashed) => {
                        stopped = true;
                        break;
                    }
                    Err(_) => aborted += 1,
                }
            }
            (aborted, stopped)
        };
        // Seed stream of routine `rid`. A lone routine keeps the worker
        // id itself, so `routines = 1` runs replay the seeds recorded
        // before routines existed.
        let wid = (node * cfg.threads + tid) as u64;
        let stream = |rid: usize| match routines {
            1 => wid,
            _ => wid * 31 + rid as u64,
        };
        let pool: Vec<Worker> = (0..routines)
            .map(|rid| {
                cluster.worker(
                    node,
                    seed ^ (stream(rid).wrapping_mul(0x9e37_79b9_7f4a_7c15)),
                )
            })
            .collect();
        let txns = cfg.txns_per_worker;
        let outs = RoutinePool::run(pool, async |rid, w| {
            let mut rng = SplitMix64::new(seed.wrapping_add(stream(rid) * 7919));
            let share = txns / routines + usize::from(rid < txns % routines);
            body(w, &mut rng, share).await
        });
        let aborted = outs.iter().map(|(_, (a, _))| a).sum::<u64>();
        let stopped = outs.iter().any(|(_, (_, k))| *k);
        (aborted, (!stopped).then(Instant::now))
    };
    let worker = &worker;

    // Auxiliary log truncation, as in the measurement driver.
    let stop_aux = AtomicBool::new(false);
    let started = Instant::now();
    let (aborted, crashed_workers, finished) = std::thread::scope(|s| {
        s.spawn(|| {
            while !stop_aux.load(Ordering::Relaxed) {
                for node in 0..cluster.nodes() {
                    cluster.truncate_step(node);
                }
                std::thread::sleep(Duration::from_millis(1));
            }
        });
        let workers: Vec<_> = (0..cfg.nodes)
            .flat_map(|node| (0..cfg.threads).map(move |tid| (node, tid)))
            .map(|(node, tid)| s.spawn(move || worker(node, tid)))
            .collect();
        let (mut aborted, mut stopped, mut finished) = (0, 0, None);
        for h in workers {
            let (a, done) = h.join().expect("worker panicked");
            aborted += a;
            stopped += usize::from(done.is_none());
            finished = finished.max(done);
        }
        // Every fired crash must be detected through lease expiry
        // before the audit makes sense.
        sup.await_recoveries(injector.crashes_fired(), cfg.await_recoveries);
        stop_aux.store(true, Ordering::Relaxed);
        (aborted, stopped, finished)
    });
    let window_commits = window_commits.map(AtomicU64::into_inner);
    let crashes_fired = injector.crashes_fired();
    let events = sup.stop();

    // Restore a clean substrate before the invariant sweep: the scrub
    // must see the cluster as a restart would.
    cluster.clear_crash_hook();
    cluster.fabric.clear_injector();
    let (stale_locks, rolled_forward, rolled_back) = full_restart_scrub(&cluster);
    let final_total = audit::smallbank_total(&cluster, &sb);

    ChaosOutcome {
        committed: window_commits.iter().sum(),
        aborted,
        crashed_workers,
        crashes_fired,
        events,
        faults_injected: injector.faults_injected(),
        fingerprint: injector.fingerprint(),
        initial_total,
        final_total,
        stale_locks,
        rolled_forward,
        rolled_back,
        started,
        crashed: (0..cfg.nodes)
            .filter_map(|n| injector.crash_instant(n))
            .min(),
        finished,
        window_commits,
    }
}
