//! Engine tests, one file per concern, over one fixture (this module):
//! a cluster builder, a read-back audit, a NIC mark, a threaded runner,
//! closure adapters for the crash-point hook and the fault injector, and
//! a committer held at any commit stage. A new engine test builds its
//! cluster, holds and hooks from here.

mod commit_walk;
mod history;
mod props;
mod read_only;
mod read_path;
mod replication;
mod routines;

use std::cell::RefCell;
use std::ops::Range;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Barrier};

use drtm_base::Cause;
use drtm_rdma::{Fault, FaultInjector, NicSnapshot, NodeId, Verb};
use drtm_store::TableSpec;

use crate::cluster::{CrashPointHook, DrtmCluster, EngineOpts, EngineOptsBuilder};
use crate::commit::Stage;
use crate::txn::{TxnError, Worker};

/// The account table: 16-byte values, the first 8 a little-endian u64.
const T_ACCT: u32 = 0;

/// An ordered table of 3-line records (100-byte values), for the read
/// group tests.
const T_ORD: u32 = 1;

fn val(x: u64) -> Vec<u8> {
    let mut v = vec![0u8; 16];
    v[..8].copy_from_slice(&x.to_le_bytes());
    v
}

fn num(v: &[u8]) -> u64 {
    u64::from_le_bytes(v[..8].try_into().unwrap())
}

fn key(shard: usize, k: u64) -> u64 {
    (shard as u64) << 32 | k
}

/// A test cluster under construction (see [`setup`]).
struct Setup {
    nodes: usize,
    opts: EngineOptsBuilder,
    schema: Vec<TableSpec>,
    sq_depth: usize,
    seed: (Range<usize>, Range<u64>, u64),
}

/// `nodes` machines with 4 MiB regions and one hash table of accounts,
/// keys `0..64` of every shard seeded at 100, one copy of every record.
fn setup(nodes: usize) -> Setup {
    Setup {
        nodes,
        opts: EngineOpts::builder().region_size(4 << 20),
        schema: vec![TableSpec::hash(T_ACCT, 4096, 16)],
        sq_depth: drtm_rdma::DEFAULT_SQ_DEPTH,
        seed: (0..nodes, 0..64, 100),
    }
}

/// [`setup`]'s cluster with `replicas` copies of every record.
fn cluster(nodes: usize, replicas: usize) -> Arc<DrtmCluster> {
    setup(nodes).replicas(replicas).build()
}

impl Setup {
    fn replicas(self, n: usize) -> Self {
        self.opts(|o| o.replicas(n))
    }

    /// Every HTM region aborts spuriously with probability `p`; a commit
    /// falls back to the locked walk after `retries` attempts.
    fn htm_fails(self, p: f64, retries: usize) -> Self {
        self.opts(|o| {
            o.htm(drtm_htm::HtmConfig {
                spurious_abort_prob: p,
                max_retries: retries,
                ..Default::default()
            })
        })
    }

    /// Any other engine knob.
    fn opts(mut self, f: impl FnOnce(EngineOptsBuilder) -> EngineOptsBuilder) -> Self {
        self.opts = f(self.opts);
        self
    }

    fn sq_depth(mut self, depth: usize) -> Self {
        self.sq_depth = depth;
        self
    }

    fn schema(mut self, schema: &[TableSpec]) -> Self {
        self.schema = schema.to_vec();
        self
    }

    /// Seeds `keys` of each of `shards` in [`T_ACCT`] at `value`, shard
    /// by shard, in place of the default.
    fn seed(mut self, shards: Range<usize>, keys: Range<u64>, value: u64) -> Self {
        self.seed = (shards, keys, value);
        self
    }

    fn build(self) -> Arc<DrtmCluster> {
        let opts = self.opts.build();
        let depth = self.sq_depth;
        let c = DrtmCluster::with_fabric(self.nodes, &self.schema, opts, |f| f.sq_depth(depth));
        let (shards, keys, value) = self.seed;
        for shard in shards {
            for k in keys.clone() {
                c.seed_record(shard, T_ACCT, key(shard, k), &val(value));
            }
        }
        c
    }
}

/// A fresh worker on the first live machine, for reading back what
/// committed.
fn auditor(c: &Arc<DrtmCluster>) -> Worker {
    let node = (0..c.nodes()).find(|&n| c.is_alive(n));
    c.worker(node.expect("a live machine"), 999)
}

/// What `key(shard, k)` of [`T_ACCT`] holds now.
fn value(c: &Arc<DrtmCluster>, shard: usize, k: u64) -> u64 {
    let got = auditor(c).run_ro(|t| t.read(shard, T_ACCT, key(shard, k)));
    num(&got.unwrap_or_else(|e| panic!("shard {shard} key {k}: {e:?}")))
}

/// The sum of `keys` over `shards` in [`T_ACCT`].
fn total(c: &Arc<DrtmCluster>, shards: Range<usize>, keys: Range<u64>) -> u64 {
    let mut w = auditor(c);
    let mut sum = 0;
    for shard in shards {
        for k in keys.clone() {
            sum += num(&w.run_ro(|t| t.read(shard, T_ACCT, key(shard, k))).unwrap());
        }
    }
    sum
}

/// One transaction on `w` that adds 1 to each of `keys` of [`T_ACCT`],
/// each read and then written in turn, and calls `executed()` as its
/// execution ends.
fn add_one(w: &mut Worker, keys: &[(usize, u64)], executed: impl Fn()) -> Result<(), TxnError> {
    w.run(|t| {
        for &(n, k) in keys {
            let v = num(&t.read(n, T_ACCT, key(n, k))?);
            t.write(n, T_ACCT, key(n, k), val(v + 1))?;
        }
        executed();
        Ok(())
    })
}

/// Every port's NIC counters at one instant. [`Nic::mark`] moves the
/// instant; a transaction body calls it last to leave the commit's
/// traffic alone in [`Nic::since`] (the body runs again on a retry, so
/// the mark is the committed attempt's).
struct Nic<'c> {
    c: &'c DrtmCluster,
    at: RefCell<Vec<NicSnapshot>>,
}

impl<'c> Nic<'c> {
    fn new(c: &'c DrtmCluster) -> Self {
        let nic = Self {
            c,
            at: RefCell::default(),
        };
        nic.mark();
        nic
    }

    fn mark(&self) {
        let now = (0..self.c.nodes()).map(|p| self.now(p)).collect();
        *self.at.borrow_mut() = now;
    }

    fn now(&self, port: NodeId) -> NicSnapshot {
        self.c.fabric.port(port).stats().snapshot()
    }

    /// `port`'s counters at the mark.
    fn at(&self, port: NodeId) -> NicSnapshot {
        self.at.borrow()[port]
    }

    /// `port`'s traffic since the mark.
    fn since(&self, port: NodeId) -> NicSnapshot {
        self.now(port).delta(&self.at(port))
    }
}

/// Runs `f(id)` for every `id` in `0..n` on its own scoped thread, all
/// released together by one barrier, and returns the results in `id`
/// order once every thread has joined.
fn threads<T: Send>(n: usize, f: impl Fn(usize) -> T + Sync) -> Vec<T> {
    let (start, f) = (Barrier::new(n), &f);
    std::thread::scope(|s| {
        let start = &start;
        let handles: Vec<_> = (0..n)
            .map(|id| {
                s.spawn(move || {
                    start.wait();
                    f(id)
                })
            })
            .collect();
        handles.into_iter().map(|h| h.join().unwrap()).collect()
    })
}

/// A crash-point hook that is a closure: `f(node, point)` sees every
/// probe and says whether `node` dies there.
struct Probe<F>(F);

impl<F: Fn(NodeId, &'static str) -> bool + Send + Sync> CrashPointHook for Probe<F> {
    fn on_point(&self, node: NodeId, point: &'static str, _now: u64) -> bool {
        (self.0)(node, point)
    }
}

/// Installs `f` as `c`'s crash-point hook.
fn on_probe(c: &DrtmCluster, f: impl Fn(NodeId, &'static str) -> bool + Send + Sync + 'static) {
    c.set_crash_hook(Arc::new(Probe(f)));
}

/// A fault injector that is a closure: `f(src, dst, verb)` sees every
/// verb before it executes (a flushed WR never gets here) and returns
/// its fault.
struct Tap<F>(F);

impl<F: Fn(NodeId, NodeId, Verb) -> Fault + Send + Sync> FaultInjector for Tap<F> {
    fn on_verb(&self, src: NodeId, dst: NodeId, verb: Verb, _now: u64) -> Fault {
        (self.0)(src, dst, verb)
    }
}

/// Installs `f` as `c`'s fault injector.
fn on_verb(c: &DrtmCluster, f: impl Fn(NodeId, NodeId, Verb) -> Fault + Send + Sync + 'static) {
    c.fabric.set_injector(Arc::new(Tap(f)));
}

/// The fault that loses the verb's packet if `lost`, or none.
fn drop_if(lost: bool) -> Fault {
    Fault {
        drop: lost,
        ..Fault::NONE
    }
}

/// Runs `during` while a committer is held at `stage`'s probe. The
/// committer runs on machine 0 and adds 1 to `key(0, 0)` — written in
/// HTM at C.4, never locked — and to `key(1, 0)`, locked at C.1 and
/// written at C.5. It is held at the first passage of the probe,
/// released when `during` returns, and must then commit.
fn hold_at<R>(c: &Arc<DrtmCluster>, stage: &Stage, during: impl FnOnce() -> R) -> R {
    let add = |w: &mut Worker| add_one(w, &[(0, 0), (1, 0)], || {});
    hold_with(c, stage, add, during)
}

/// [`hold_at`] holding `commit`, a transaction on a worker of machine 0,
/// in place of its committer.
fn hold_with<R>(
    c: &Arc<DrtmCluster>,
    stage: &Stage,
    commit: impl FnOnce(&mut Worker) -> Result<(), TxnError> + Send,
    during: impl FnOnce() -> R,
) -> R {
    let (held, release) = (Arc::new(Barrier::new(2)), Arc::new(Barrier::new(2)));
    let (point, first) = (stage.probe, AtomicBool::new(true));
    on_probe(c, {
        let (held, release) = (Arc::clone(&held), Arc::clone(&release));
        move |_, at| {
            if at == point && first.swap(false, Ordering::SeqCst) {
                held.wait();
                release.wait();
            }
            false
        }
    });
    let out = std::thread::scope(|s| {
        let committer = s.spawn(|| commit(&mut c.worker(0, 1)));
        held.wait();
        // Released even if `during` panics, or the scope would wait on
        // the held committer forever.
        let out = std::panic::catch_unwind(std::panic::AssertUnwindSafe(during));
        release.wait();
        assert_eq!(committer.join().unwrap(), Ok(()), "the held committer");
        out.unwrap_or_else(|panic| std::panic::resume_unwind(panic))
    });
    c.clear_crash_hook();
    out
}
