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
//! The load runs on the measurement driver ([`driver::run_on`]), as a
//! private [`Workload`]: the driver's slots are the chaos workers, and
//! they take their machine's log truncation step between transactions
//! as every replicated run does. The driver's loop also steps the
//! supervisor (the workload's tick), so leases, crashes and recoveries
//! all happen in virtual-time order and a run replays from its seed.
//! Recovery is triggered exclusively by the supervisor observing lease
//! expiry; the harness itself never calls `recover_node`.

use std::cell::RefCell;
use std::sync::Arc;

use drtm_base::SplitMix64;
use drtm_core::cluster::DrtmCluster;
use drtm_core::recovery::full_restart_scrub;
use drtm_core::txn::TxnError;
use drtm_core::ContentionPolicy;
use drtm_store::TableSpec;
use drtm_workloads::audit;
use drtm_workloads::driver::{self, EngineKind, RunCfg, Workload};
use drtm_workloads::engine::TxnApi;
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
    /// In-flight transaction routines per worker thread (DESIGN.md
    /// §11): each worker multiplexes `R` routines through a
    /// `RoutinePool`. With `R > 1` injected delays wake routines out of
    /// posting order and crash points fire at yield boundaries while
    /// sibling routines are mid-transaction; with `1` the pool's one
    /// routine runs its transactions back to back.
    pub routines: usize,
    /// Contention-management policy for every table (DESIGN.md §15).
    /// Chaos cares because rung 2 waits for a lock's release, which
    /// comes from the *holder's* unlock path — a holder that crashes
    /// never releases, so its waiters must drain through recovery's
    /// lock sweep or the wait's poll cap instead of deadlocking the
    /// pool.
    pub contention: ContentionPolicy,
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
            routines: 1,
            contention: ContentionPolicy::Off,
        }
    }
}

/// Everything a chaos run observed, plus the post-run invariant sweep.
#[derive(Debug)]
pub struct ChaosOutcome {
    /// Transactions reported committed across all workers.
    pub committed: u64,
    /// Aborted attempts, as the driver's [`driver::Measurement`] counts
    /// them: every protocol or transport abort of an attempt the engine
    /// then retried. A user abort (insufficient funds) or a crash is
    /// not one.
    pub aborted: u64,
    /// Worker slots that stopped early: their machine died under them
    /// or left the configuration.
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
    /// Virtual time (ns) the workers started at.
    pub started: u64,
    /// Virtual time (ns) the first crash fired at, if one did.
    pub crashed: Option<u64>,
    /// Virtual time (ns) of the driver loop's last action, the
    /// survivors out of work (`None` if every slot stopped early).
    pub finished: Option<u64>,
    /// `committed` split by the timeline: commits before the first
    /// crash, from then until the first recovery finished (recovery
    /// takes no virtual time: until the first suspicion), and after. A
    /// commit counts in the window current when its transaction was
    /// drawn, so one racing either edge lands in the earlier window.
    pub window_commits: [u64; 3],
}

impl ChaosOutcome {
    /// The acceptance invariants: money conserved through recovery and
    /// no stale lock anywhere.
    pub fn audit_ok(&self) -> bool {
        self.final_total == self.initial_total && self.stale_locks == 0
    }
}

/// The timeline windows a commit can fall in, as transaction type
/// names: before the first crash, until the first recovery finished,
/// after.
const WINDOWS: [&str; 3] = ["before-crash", "outage", "recovered"];

/// The chaos load as a driver [`Workload`]: SmallBank's schema and
/// data, send-payment only (zero-sum), each draw named after the
/// timeline window current when it is drawn, and the supervisor stepped
/// on the driver's tick.
struct Payments<'a> {
    sb: &'a SbCfg,
    injector: &'a ChaosInjector,
    sup: RefCell<Supervisor>,
}

impl Workload for Payments<'_> {
    const SLOT_SALT: u64 = 0xC4A0;
    const GEN_SALT: u64 = 0x5E7D;
    /// The RNG and the worker's machine.
    type Gen = (SplitMix64, usize);
    type Input = SbInput;

    fn nodes(&self) -> usize {
        self.sb.nodes
    }
    fn schema(&self) -> Vec<TableSpec> {
        self.sb.schema()
    }
    fn region_size(&self, _run: &RunCfg) -> usize {
        self.sb.region_size()
    }
    fn load(&self, cluster: &DrtmCluster) {
        smallbank::load(cluster, self.sb)
    }
    fn generator(&self, node: usize, _tid: usize, _id: usize, rng: SplitMix64) -> Self::Gen {
        (rng, node)
    }
    fn next(&self, (rng, node): &mut Self::Gen, _i: u64) -> (&'static str, bool, SbInput) {
        let recovered = self.sup.borrow().recoveries().min(1);
        let window = self.injector.crashes_fired().min(1) + recovered;
        let inp = SbInput {
            txn: SbTxn::SendPayment,
            ..smallbank::gen(self.sb, rng, *node)
        };
        (WINDOWS[window], false, inp)
    }
    async fn execute(&self, t: &mut dyn TxnApi, inp: &SbInput) -> Result<(), TxnError> {
        smallbank::execute(t, inp).await
    }
    fn tick(&self, now_vns: u64) {
        self.sup.borrow_mut().tick(now_vns);
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
    let run = RunCfg {
        engine: EngineKind::DrtmR,
        threads: cfg.threads,
        replicas: cfg.replicas.min(cfg.nodes),
        txns_per_worker: cfg.txns_per_worker,
        seed: plan.seed,
        routines: cfg.routines,
        contention: cfg.contention,
    };
    let (cluster, _) = driver::build(&sb, &run, |_| {});
    let initial_total = smallbank::initial_total(&sb);

    let injector = Arc::new(ChaosInjector::new(plan, cfg.nodes));
    cluster.fabric.set_injector(Arc::clone(&injector) as _);
    cluster.set_crash_hook(Arc::clone(&injector) as _);

    let sup = Supervisor::start(&cluster, cfg.supervisor, Some(Arc::clone(&injector)));
    let payments = Payments {
        sb: &sb,
        injector: &injector,
        sup: RefCell::new(sup),
    };
    let m = driver::run_on(&payments, &run, &cluster, None);
    let sup = payments.sup.into_inner();
    let finished = (m.stopped < cfg.nodes * cfg.threads).then(|| sup.now());
    // Every fired crash must be detected through lease expiry before
    // the audit makes sense.
    let events = sup.finish();
    let window_commits = WINDOWS.map(|w| m.per_type.get(w).map_or(0, |t| t.count));
    let crashes_fired = injector.crashes_fired();

    // Restore a clean substrate before the invariant sweep: the scrub
    // must see the cluster as a restart would.
    cluster.clear_crash_hook();
    cluster.fabric.clear_injector();
    let (stale_locks, rolled_forward, rolled_back) = full_restart_scrub(&cluster);
    let final_total = audit::smallbank_total(&cluster, &sb);

    ChaosOutcome {
        committed: m.committed,
        aborted: m.aborted,
        crashed_workers: m.stopped,
        crashes_fired,
        events,
        faults_injected: injector.faults_injected(),
        fingerprint: injector.fingerprint(),
        initial_total,
        final_total,
        stale_locks,
        rolled_forward,
        rolled_back,
        started: 0,
        crashed: (0..cfg.nodes)
            .filter_map(|n| injector.crash_instant(n))
            .min(),
        finished,
        window_commits,
    }
}
