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
//! engines park on their [`Worker`](drtm_core::txn::Worker)'s verbs and
//! lock waits, never inside a body: DrTM's body runs inside its one HTM
//! region and Calvin's under its locks, so their contexts evaluate
//! eagerly and wrap the result, and awaiting them never parks.

use std::future::Future;
use std::pin::Pin;

use drtm_baselines::oracle::{Exec, Pass};
use drtm_core::txn::TxnError;
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

/// The baseline engines' contexts: DrTM's runs inside its one HTM
/// region and Calvin's under its locks, where nothing may suspend, so
/// each verb evaluates eagerly and its future is ready on the first
/// poll.
impl<E: Exec> TxnApi for Pass<'_, E> {
    fn read(&mut self, shard: usize, table: TableId, key: u64) -> TxnFut<'_, Vec<u8>> {
        let r = Pass::read(self, shard, table, key);
        Box::pin(async move { r })
    }
    fn write(&mut self, shard: usize, table: TableId, key: u64, v: Vec<u8>) -> TxnFut<'_, ()> {
        let r = Pass::write(self, shard, table, key, v);
        Box::pin(async move { r })
    }
    fn insert(&mut self, shard: usize, table: TableId, key: u64, v: Vec<u8>) {
        Pass::insert(self, shard, table, key, v)
    }
    fn delete(&mut self, shard: usize, table: TableId, key: u64) {
        Pass::delete(self, shard, table, key)
    }
    fn scan_local(
        &mut self,
        table: TableId,
        lo: u64,
        hi: u64,
        limit: usize,
    ) -> TxnFut<'_, Vec<(u64, Vec<u8>)>> {
        let r = Pass::scan_local(self, table, lo, hi, limit);
        Box::pin(async move { r })
    }
    fn last_local(
        &mut self,
        table: TableId,
        lo: u64,
        hi: u64,
    ) -> TxnFut<'_, Option<(u64, Vec<u8>)>> {
        let r = Pass::scan_local(self, table, lo, hi, usize::MAX).map(|mut v| v.pop());
        Box::pin(async move { r })
    }
}
