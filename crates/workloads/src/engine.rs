//! One transaction API over every engine under comparison.
//!
//! Workload transactions are written once against [`TxnApi`] and run
//! unchanged on DrTM+R, DrTM and Calvin. Shards are routed by the
//! engines themselves.
//!
//! The verbs that may cross the wire (`read`, `read_many`, `write`,
//! `scan_local`, `last_local`) return boxed futures so a body running
//! inside a [`RoutinePool`](drtm_core::routine::RoutinePool) suspends at
//! every doorbell and hands the worker to a sibling routine. The baseline
//! engines have no suspension points: their impls evaluate eagerly and
//! wrap the result, so awaiting them never parks.

use std::future::Future;
use std::pin::Pin;
use std::sync::Arc;

use drtm_baselines::calvin::{CalvinEngine, CalvinTxn, CalvinWorker};
use drtm_baselines::drtm2pl::{DrtmCtx, DrtmWorker};
use drtm_core::cluster::DrtmCluster;
use drtm_core::txn::{TxnError, WorkerStats};
use drtm_store::TableId;

/// Future returned by the suspending verbs of [`TxnApi`].
///
/// Boxed (rather than an associated type) so bodies can be written
/// against `&mut dyn TxnApi` — one monomorphisation of each workload
/// transaction serves all three engines.
pub type TxnFut<'a, R> = Pin<Box<dyn Future<Output = Result<R, TxnError>> + 'a>>;

/// The uniform transaction interface the workloads are written against.
pub trait TxnApi {
    /// Reads the record `key` of `table` homed on `shard`.
    fn read(&mut self, shard: usize, table: TableId, key: u64) -> TxnFut<'_, Vec<u8>>;
    /// Reads the records `keys` name, `(shard, table, key)` each, and
    /// returns their values in order: the same as calling
    /// [`read`](Self::read) on each in turn, which is what every engine
    /// but DrTM+R does. A body hands over the reads it is about to issue
    /// anyway; a key that depends on an earlier value goes in a later
    /// call.
    fn read_many<'a>(&'a mut self, keys: &'a [(usize, TableId, u64)]) -> TxnFut<'a, Vec<Vec<u8>>> {
        Box::pin(async move {
            let mut values = Vec::with_capacity(keys.len());
            for &(shard, table, key) in keys {
                values.push(self.read(shard, table, key).await?);
            }
            Ok(values)
        })
    }
    /// Writes it.
    fn write(&mut self, shard: usize, table: TableId, key: u64, value: Vec<u8>) -> TxnFut<'_, ()>;
    /// Buffers an insert.
    fn insert(&mut self, shard: usize, table: TableId, key: u64, value: Vec<u8>);
    /// Buffers a delete.
    fn delete(&mut self, shard: usize, table: TableId, key: u64);
    /// Scans a local ordered table.
    fn scan_local(
        &mut self,
        table: TableId,
        lo: u64,
        hi: u64,
        limit: usize,
    ) -> TxnFut<'_, Vec<(u64, Vec<u8>)>>;
    /// Largest key in `[lo, hi]` of a local ordered table.
    fn last_local(
        &mut self,
        table: TableId,
        lo: u64,
        hi: u64,
    ) -> TxnFut<'_, Option<(u64, Vec<u8>)>>;
}

impl TxnApi for drtm_core::txn::TxnCtx<'_> {
    fn read(&mut self, shard: usize, table: TableId, key: u64) -> TxnFut<'_, Vec<u8>> {
        Box::pin(self.read_async(shard, table, key))
    }
    fn read_many<'a>(&'a mut self, keys: &'a [(usize, TableId, u64)]) -> TxnFut<'a, Vec<Vec<u8>>> {
        Box::pin(self.read_many_async(keys))
    }
    fn write(&mut self, shard: usize, table: TableId, key: u64, v: Vec<u8>) -> TxnFut<'_, ()> {
        Box::pin(self.write_async(shard, table, key, v))
    }
    fn insert(&mut self, shard: usize, table: TableId, key: u64, v: Vec<u8>) {
        drtm_core::txn::TxnCtx::insert(self, shard, table, key, v)
    }
    fn delete(&mut self, shard: usize, table: TableId, key: u64) {
        drtm_core::txn::TxnCtx::delete(self, shard, table, key)
    }
    fn scan_local(
        &mut self,
        table: TableId,
        lo: u64,
        hi: u64,
        limit: usize,
    ) -> TxnFut<'_, Vec<(u64, Vec<u8>)>> {
        Box::pin(self.scan_local_async(table, lo, hi, limit))
    }
    fn last_local(
        &mut self,
        table: TableId,
        lo: u64,
        hi: u64,
    ) -> TxnFut<'_, Option<(u64, Vec<u8>)>> {
        Box::pin(self.last_local_async(table, lo, hi))
    }
}

impl TxnApi for DrtmCtx<'_, '_, '_> {
    fn read(&mut self, shard: usize, table: TableId, key: u64) -> TxnFut<'_, Vec<u8>> {
        let r = DrtmCtx::read(self, shard, table, key);
        Box::pin(async move { r })
    }
    fn write(&mut self, shard: usize, table: TableId, key: u64, v: Vec<u8>) -> TxnFut<'_, ()> {
        let r = DrtmCtx::write(self, shard, table, key, v);
        Box::pin(async move { r })
    }
    fn insert(&mut self, shard: usize, table: TableId, key: u64, v: Vec<u8>) {
        DrtmCtx::insert(self, shard, table, key, v)
    }
    fn delete(&mut self, shard: usize, table: TableId, key: u64) {
        DrtmCtx::delete(self, shard, table, key)
    }
    fn scan_local(
        &mut self,
        table: TableId,
        lo: u64,
        hi: u64,
        limit: usize,
    ) -> TxnFut<'_, Vec<(u64, Vec<u8>)>> {
        let r = DrtmCtx::scan_local(self, table, lo, hi, limit);
        Box::pin(async move { r })
    }
    fn last_local(
        &mut self,
        table: TableId,
        lo: u64,
        hi: u64,
    ) -> TxnFut<'_, Option<(u64, Vec<u8>)>> {
        let r = DrtmCtx::scan_local(self, table, lo, hi, usize::MAX).map(|mut v| v.pop());
        Box::pin(async move { r })
    }
}

impl TxnApi for CalvinTxn<'_, '_> {
    fn read(&mut self, shard: usize, table: TableId, key: u64) -> TxnFut<'_, Vec<u8>> {
        let r = CalvinTxn::read(self, shard, table, key);
        Box::pin(async move { r })
    }
    fn write(&mut self, shard: usize, table: TableId, key: u64, v: Vec<u8>) -> TxnFut<'_, ()> {
        let r = CalvinTxn::write(self, shard, table, key, v);
        Box::pin(async move { r })
    }
    fn insert(&mut self, shard: usize, table: TableId, key: u64, v: Vec<u8>) {
        CalvinTxn::insert(self, shard, table, key, v)
    }
    fn delete(&mut self, shard: usize, table: TableId, key: u64) {
        CalvinTxn::delete(self, shard, table, key)
    }
    fn scan_local(
        &mut self,
        table: TableId,
        lo: u64,
        hi: u64,
        limit: usize,
    ) -> TxnFut<'_, Vec<(u64, Vec<u8>)>> {
        let r = CalvinTxn::scan_local(self, table, lo, hi, limit);
        Box::pin(async move { r })
    }
    fn last_local(
        &mut self,
        table: TableId,
        lo: u64,
        hi: u64,
    ) -> TxnFut<'_, Option<(u64, Vec<u8>)>> {
        let r = CalvinTxn::scan_local(self, table, lo, hi, usize::MAX).map(|mut v| v.pop());
        Box::pin(async move { r })
    }
}

/// A worker of a baseline engine. DrTM+R runs through its own
/// [`Worker`](drtm_core::txn::Worker), in a routine pool that suspends at
/// every doorbell; nothing in a baseline suspends, so its worker drives
/// a body to completion in a single poll.
pub enum EngineWorker {
    /// DrTM (SOSP'15 baseline).
    Drtm(DrtmWorker),
    /// Calvin baseline.
    Calvin(CalvinWorker),
}

impl EngineWorker {
    /// Builds a worker of the baseline engine `kind` on `node`.
    ///
    /// # Panics
    ///
    /// On [`EngineKind::DrtmR`](crate::driver::EngineKind::DrtmR), which
    /// is not a baseline.
    pub fn new(
        kind: crate::driver::EngineKind,
        cluster: &Arc<DrtmCluster>,
        calvin: Option<&Arc<CalvinEngine>>,
        node: usize,
        seed: u64,
    ) -> Self {
        use crate::driver::EngineKind::*;
        match kind {
            Drtm => Self::Drtm(DrtmWorker::new(Arc::clone(cluster), node, seed)),
            Calvin => Self::Calvin(calvin.expect("calvin engine").worker(node, seed)),
            DrtmR => panic!("DrTM+R runs through its own Worker, not a baseline's"),
        }
    }

    /// Executes one transaction to commit.
    pub fn exec<R>(
        &mut self,
        mut body: impl AsyncFnMut(&mut dyn TxnApi) -> Result<R, TxnError>,
    ) -> Result<R, TxnError> {
        match self {
            EngineWorker::Drtm(w) => {
                w.run(|t| drtm_base::task::block_now(body(t as &mut dyn TxnApi)))
            }
            EngineWorker::Calvin(w) => {
                w.run(|t| drtm_base::task::block_now(body(t as &mut dyn TxnApi)))
            }
        }
    }

    /// The worker's current virtual time.
    pub fn clock_now(&self) -> u64 {
        match self {
            EngineWorker::Drtm(w) => w.clock.now(),
            EngineWorker::Calvin(w) => w.clock.now(),
        }
    }

    /// The worker's statistics.
    pub fn stats(&self) -> &WorkerStats {
        match self {
            EngineWorker::Drtm(w) => &w.stats,
            EngineWorker::Calvin(w) => &w.stats,
        }
    }
}
