//! The Calvin baseline (SIGMOD'12): deterministic distributed
//! transactions without RDMA.
//!
//! Calvin routes every transaction through a **sequencer** that assigns a
//! global order, then a single-threaded **lock manager** per machine
//! grants locks strictly in that order; workers execute once all locks
//! are held and forward read results between partitions over ordinary
//! messaging. The released Calvin the paper compares against runs over
//! IPoIB (no RDMA verbs) and is hard-coded to 8 worker threads.
//!
//! The model here keeps those mechanics and costs:
//!
//! * the read/write sets come from the free oracle (Calvin *requires*
//!   them — the restriction §2.2 calls out);
//! * sequencing charges one IPoIB round trip per transaction (batched
//!   dispatch would amortise the epoch wait, which affects latency more
//!   than throughput, so only the messaging cost is charged);
//! * each machine's lock manager is a serial virtual-time resource
//!   ([`drtm_base::LinkBudget`]); every lock/unlock on records homed
//!   there must pass through it — this is Calvin's throughput ceiling;
//! * cross-partition transactions charge one IPoIB round trip per remote
//!   machine involved (result forwarding).
//!
//! Actual mutual exclusion uses a process-level lock table; acquisition
//! is in global address order, waiting on conflicts, which preserves
//! Calvin's deadlock-freedom-by-ordering property. A held entry is
//! waited for through the engine's one lock wait (DESIGN.md §15): a
//! watch on the address in the cluster's `WaitRegistry`, opened before
//! the table is checked, ends when the holder's release is counted.

use std::collections::HashSet;
use std::sync::Arc;

use drtm_base::sync::Mutex;
use drtm_base::task::block_now;
use drtm_base::{Cause, LinkBudget, VClock};
use drtm_core::cluster::DrtmCluster;
use drtm_core::txn::{TxnApi, TxnError, TxnFut, Worker};
use drtm_rdma::NodeId;
use drtm_store::TableId;

use crate::oracle::{value_head, OracleCtx};

/// Virtual nanoseconds of lock-manager service per lock or unlock
/// operation (single-threaded manager, so this serialises per machine).
const LOCK_OP_NS: f64 = 600.0;

/// Shared state of the Calvin deployment.
pub struct CalvinEngine {
    cluster: Arc<DrtmCluster>,
    /// One serial lock-manager budget per machine.
    lock_mgr: Vec<LinkBudget>,
    /// The lock table: held records by `(node, record offset)`.
    locks: Mutex<HashSet<(NodeId, usize)>>,
}

impl CalvinEngine {
    /// Creates the engine over an existing cluster substrate.
    pub fn new(cluster: Arc<DrtmCluster>) -> Arc<Self> {
        let n = cluster.nodes();
        Arc::new(Self {
            cluster,
            lock_mgr: (0..n)
                .map(|_| LinkBudget::new(1.0e9 / LOCK_OP_NS))
                .collect(),
            locks: Mutex::new(HashSet::new()),
        })
    }

    /// Runs one transaction deterministically on `w` to commit:
    /// sequencing, the oracle pass, every lock in global order, then
    /// the body under its locks. A lock held by an earlier transaction
    /// is waited for until its release ([`Worker::wait_release`]).
    ///
    /// The body runs on contexts that never suspend, so each pass
    /// finishes in one poll; only the lock wait parks.
    pub async fn run<R>(
        &self,
        w: &mut Worker,
        mut body: impl AsyncFnMut(&mut dyn TxnApi) -> Result<R, TxnError>,
    ) -> Result<R, TxnError> {
        let cost = &self.cluster.opts.cost;
        let start = w.clock.now();

        // Sequencing: ship the request to the sequencer over IPoIB.
        w.clock.advance(cost.ipoib_rtt_ns, Cause::Ipoib);

        // Oracle pass: Calvin requires the read/write sets up front.
        let mut oracle = OracleCtx::new(Arc::clone(&self.cluster), w.node);
        if let Err(e) = block_now(body(&mut oracle)) {
            w.note_abort(e);
            return Err(e);
        }
        let sets = oracle.sets;

        // All records this transaction touches, in global order.
        let mut addrs: Vec<(NodeId, usize)> = sets
            .reads
            .iter()
            .chain(&sets.writes)
            .map(|a| (a.0, a.3))
            .collect();
        addrs.sort_unstable();
        addrs.dedup();

        // Lock-manager service: every lock and unlock passes through the
        // home machine's single-threaded manager.
        for &(node, _) in &addrs {
            let t = self.lock_mgr[node].reserve(w.clock.now(), 1);
            w.clock.advance_to(t, Cause::LockWait);
        }

        // Actual mutual exclusion (ordered acquisition; waiting models
        // Calvin's in-order lock grants). Calvin never aborts on a
        // conflict, so a wait that runs out waits again.
        for &addr in &addrs {
            let mut watch = self.cluster.waiters.watch(addr);
            while !self.locks.lock().insert(addr) {
                w.wait_release(&mut watch).await;
            }
        }

        // Execute with everything locked.
        let mut ctx = CalvinCtx {
            engine: self,
            node: w.node,
            clock: &mut w.clock,
            charged: HashSet::new(),
        };
        let result = block_now(body(&mut ctx));

        // Release.
        {
            let mut table = self.locks.lock();
            for a in &addrs {
                table.remove(a);
            }
        }
        for &a in &addrs {
            self.cluster.waiters.release(a);
        }

        match result {
            Ok(_) => w.note_commit(start, "rw"),
            // Deterministic execution does not abort on conflicts; only
            // application errors land here.
            Err(e) => w.note_abort(e),
        }
        result
    }
}

/// Execution context: all locks are held, so reads and writes go
/// straight at the stores.
pub struct CalvinCtx<'a> {
    engine: &'a CalvinEngine,
    node: NodeId,
    clock: &'a mut VClock,
    /// Remote machines already charged for result forwarding.
    charged: HashSet<NodeId>,
}

impl CalvinCtx<'_> {
    fn charge_remote(&mut self, home: NodeId) {
        if home != self.node && self.charged.insert(home) {
            self.clock
                .advance(self.engine.cluster.opts.cost.ipoib_rtt_ns, Cause::Ipoib);
        }
    }
}

/// Under the transaction's locks, where nothing waits: every future is
/// ready on its first poll.
impl TxnApi for CalvinCtx<'_> {
    /// The reads one by one, each charging `mem_access_ns` once per
    /// record, however many of its lines hold the `head` bytes
    /// returned, and no `record_logic_ns` (EXPERIMENTS.md, "Known
    /// deviations").
    fn read_many<'a>(
        &'a mut self,
        keys: &'a [(usize, TableId, u64)],
        head: usize,
    ) -> TxnFut<'a, Vec<Vec<u8>>> {
        Box::pin(async move {
            let mut values = Vec::with_capacity(keys.len());
            for &(shard, table, key) in keys {
                let home = self.engine.cluster.home_of(shard);
                self.charge_remote(home);
                let store = &self.engine.cluster.stores[home];
                let off = store.get_loc(table, key).ok_or(TxnError::NotFound)? as usize;
                values.push(value_head(store, table, off, head));
                self.clock.advance(
                    self.engine.cluster.opts.cost.mem_access_ns,
                    Cause::MemAccess,
                );
            }
            Ok(values)
        })
    }

    fn write(&mut self, shard: usize, table: TableId, key: u64, value: Vec<u8>) -> TxnFut<'_, ()> {
        Box::pin(async move {
            let home = self.engine.cluster.home_of(shard);
            self.charge_remote(home);
            let store = &self.engine.cluster.stores[home];
            let off = store.get_loc(table, key).ok_or(TxnError::NotFound)? as usize;
            let rec = store.record(table, off);
            let seq = rec.seq();
            rec.write_locked(&value, seq + 2);
            self.clock.advance(
                self.engine.cluster.opts.cost.mem_access_ns,
                Cause::MemAccess,
            );
            Ok(())
        })
    }

    /// Applied at once: every conflicting transaction is ordered behind
    /// this one.
    fn insert(&mut self, shard: usize, table: TableId, key: u64, value: Vec<u8>) {
        let home = self.engine.cluster.home_of(shard);
        self.charge_remote(home);
        self.engine.cluster.stores[home].insert(table, key, &value, 2);
        self.clock.advance(
            self.engine.cluster.opts.cost.record_logic_ns,
            Cause::RecordLogic,
        );
    }

    fn delete(&mut self, shard: usize, table: TableId, key: u64) {
        let home = self.engine.cluster.home_of(shard);
        self.charge_remote(home);
        self.engine.cluster.stores[home].remove(table, key);
        self.clock.advance(
            self.engine.cluster.opts.cost.record_logic_ns,
            Cause::RecordLogic,
        );
    }

    /// Charges nothing per hit (EXPERIMENTS.md, "Known deviations").
    fn scan_local(
        &mut self,
        table: TableId,
        lo: u64,
        hi: u64,
        limit: usize,
        head: usize,
    ) -> TxnFut<'_, Vec<(u64, Vec<u8>)>> {
        Box::pin(async move {
            let store = &self.engine.cluster.stores[self.node];
            let hits = store.scan(table, lo, hi, limit).into_iter();
            Ok(hits
                .map(|(k, off)| (k, value_head(store, table, off as usize, head)))
                .collect())
        })
    }
}
