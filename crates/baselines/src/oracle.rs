//! The a-priori read/write-set oracle.
//!
//! DrTM and Calvin both require a transaction's read and write sets
//! before execution — DrTM to lock remote records up front, Calvin to
//! schedule deterministically. Real deployments obtain them from static
//! analysis, stored procedures, or DrTM's transaction chopping. The
//! simulation models that knowledge as a *free dry run*: the body
//! executes once against an uncharged snapshot context that records
//! every access, then the engine executes for real. No virtual time is
//! charged for the dry run, which if anything flatters the baselines
//! (DESIGN.md notes the bias direction).

use std::future::ready;
use std::sync::Arc;

use drtm_core::cluster::DrtmCluster;
use drtm_core::txn::{TxnApi, TxnError, TxnFut};
use drtm_rdma::NodeId;
use drtm_store::{Store, TableId};

/// An access recorded by the oracle: `(home node, table, key, offset)`.
pub type Access = (NodeId, TableId, u64, usize);

/// Read/write sets discovered by the oracle pass.
#[derive(Debug, Default)]
pub struct RwSets {
    /// Records read (deduplicated, in first-access order).
    pub reads: Vec<Access>,
    /// Records written.
    pub writes: Vec<Access>,
    /// Buffered inserts `(node, table, key, value)`.
    pub inserts: Vec<(NodeId, TableId, u64, Vec<u8>)>,
    /// Buffered deletes `(node, table, key)`.
    pub deletes: Vec<(NodeId, TableId, u64)>,
}

impl RwSets {
    /// Records read or written, each counted once: a record both read
    /// and written is one.
    pub fn distinct_records(&self) -> usize {
        let all = self.reads.iter().chain(&self.writes);
        let mut all: Vec<(NodeId, TableId, usize)> = all.map(|a| (a.0, a.1, a.3)).collect();
        all.sort_unstable();
        all.dedup();
        all.len()
    }
}

/// The snapshot context the oracle pass runs the body against.
///
/// Reads return the record's current value with no consistency protocol
/// and no virtual-time charge; writes and mutations are recorded only.
pub struct OracleCtx {
    cluster: Arc<DrtmCluster>,
    /// The machine the real execution will run on.
    pub node: NodeId,
    /// Sets collected so far.
    pub sets: RwSets,
}

impl OracleCtx {
    /// Creates an oracle context for a transaction on `node`.
    pub fn new(cluster: Arc<DrtmCluster>, node: NodeId) -> Self {
        Self {
            cluster,
            node,
            sets: RwSets::default(),
        }
    }

    fn locate(&self, shard: usize, table: TableId, key: u64) -> Result<(NodeId, usize), TxnError> {
        let home = self.cluster.home_of(shard);
        let off = self.cluster.stores[home]
            .get_loc(table, key)
            .ok_or(TxnError::NotFound)?;
        Ok((home, off as usize))
    }

    /// Snapshot read (uncharged) of the first `head` value bytes:
    /// records the access.
    pub fn read(
        &mut self,
        shard: usize,
        table: TableId,
        key: u64,
        head: usize,
    ) -> Result<Vec<u8>, TxnError> {
        let (home, off) = self.locate(shard, table, key)?;
        note(&mut self.sets.reads, (home, table, key, off));
        Ok(value_head(&self.cluster.stores[home], table, off, head))
    }

    /// Records a write; the value itself is ignored (the real pass
    /// recomputes it).
    pub fn write(&mut self, shard: usize, table: TableId, key: u64) -> Result<(), TxnError> {
        let (home, off) = self.locate(shard, table, key)?;
        note(&mut self.sets.writes, (home, table, key, off));
        Ok(())
    }

    /// Records an insert.
    pub fn insert(&mut self, shard: usize, table: TableId, key: u64, value: Vec<u8>) {
        let home = self.cluster.home_of(shard);
        self.sets.inserts.push((home, table, key, value));
    }

    /// Records a delete.
    pub fn delete(&mut self, shard: usize, table: TableId, key: u64) {
        let home = self.cluster.home_of(shard);
        self.sets.deletes.push((home, table, key));
    }

    /// Uncharged ordered-table scan on the local machine, each hit with
    /// its value's first `head` bytes.
    pub fn scan_local(
        &mut self,
        table: TableId,
        lo: u64,
        hi: u64,
        limit: usize,
        head: usize,
    ) -> Vec<(u64, Vec<u8>)> {
        let store = &self.cluster.stores[self.node];
        store
            .scan(table, lo, hi, limit)
            .into_iter()
            .map(|(k, off)| {
                let v = value_head(store, table, off as usize, head);
                // Scanned records join the read set too.
                note(&mut self.sets.reads, (self.node, table, k, off as usize));
                (k, v)
            })
            .collect()
    }
}

/// The dry run's verbs: each records its access and none suspends.
/// A write's value is ignored.
impl TxnApi for OracleCtx {
    fn read_many<'a>(
        &'a mut self,
        keys: &'a [(usize, TableId, u64)],
        head: usize,
    ) -> TxnFut<'a, Vec<Vec<u8>>> {
        let read = |&(shard, table, key): &_| OracleCtx::read(self, shard, table, key, head);
        Box::pin(ready(keys.iter().map(read).collect()))
    }
    fn write(&mut self, shard: usize, table: TableId, key: u64, _: Vec<u8>) -> TxnFut<'_, ()> {
        Box::pin(ready(OracleCtx::write(self, shard, table, key)))
    }
    fn insert(&mut self, shard: usize, table: TableId, key: u64, value: Vec<u8>) {
        OracleCtx::insert(self, shard, table, key, value)
    }
    fn delete(&mut self, shard: usize, table: TableId, key: u64) {
        OracleCtx::delete(self, shard, table, key)
    }
    fn scan_local(
        &mut self,
        table: TableId,
        lo: u64,
        hi: u64,
        limit: usize,
        head: usize,
    ) -> TxnFut<'_, Vec<(u64, Vec<u8>)>> {
        let hits = OracleCtx::scan_local(self, table, lo, hi, limit, head);
        Box::pin(ready(Ok(hits)))
    }
}

/// Adds `access` to `set` unless its record — `(node, table, offset)` —
/// is there already.
fn note(set: &mut Vec<Access>, access: Access) {
    let at = |a: &Access| (a.0, a.1, a.3);
    if !set.iter().any(|a| at(a) == at(&access)) {
        set.push(access);
    }
}

/// The first `head` value bytes of the record at `off`, read raw: the
/// caller needs no consistency (the oracle) or holds the lock (Calvin).
pub(crate) fn value_head(store: &Store, table: TableId, off: usize, head: usize) -> Vec<u8> {
    let rec = store.record(table, off);
    let mut v = vec![0u8; rec.layout.value_len];
    rec.read_value_raw(&mut v);
    v.truncate(head);
    v
}
