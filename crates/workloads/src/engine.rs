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
///
/// The batched reads name how many leading value bytes the body uses,
/// `head` (`usize::MAX`: the whole value), and return just those bytes.
/// An engine may then read and track less of each record: DrTM+R's and
/// DrTM's HTM regions read only the cache lines that hold them
/// (`RecordLayout::lines_for`). `read` and `last_local` read whole
/// records. A body reads whole every record it writes, since a write
/// takes the whole value.
pub trait TxnApi {
    /// Reads the record `key` of `table` homed on `shard`.
    fn read(&mut self, shard: usize, table: TableId, key: u64) -> TxnFut<'_, Vec<u8>>;
    /// Reads the records `keys` name, `(shard, table, key)` each, and
    /// returns the first `head` bytes of their values in order: with
    /// `head = usize::MAX`, the same as calling [`read`](Self::read) on
    /// each in turn, which is what every engine but DrTM+R does. A body
    /// hands over the reads it is about to issue anyway; a key that
    /// depends on an earlier value goes in a later call.
    fn read_many<'a>(
        &'a mut self,
        keys: &'a [(usize, TableId, u64)],
        head: usize,
    ) -> TxnFut<'a, Vec<Vec<u8>>>;
    /// Writes it.
    fn write(&mut self, shard: usize, table: TableId, key: u64, value: Vec<u8>) -> TxnFut<'_, ()>;
    /// Buffers an insert.
    fn insert(&mut self, shard: usize, table: TableId, key: u64, value: Vec<u8>);
    /// Buffers a delete.
    fn delete(&mut self, shard: usize, table: TableId, key: u64);
    /// Scans a local ordered table: up to `limit` records with keys in
    /// `[lo, hi]`, each with its value's first `head` bytes.
    fn scan_local(
        &mut self,
        table: TableId,
        lo: u64,
        hi: u64,
        limit: usize,
        head: usize,
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
    fn read_many<'a>(
        &'a mut self,
        keys: &'a [(usize, TableId, u64)],
        head: usize,
    ) -> TxnFut<'a, Vec<Vec<u8>>> {
        Box::pin(self.read_many_async(keys, head))
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
        head: usize,
    ) -> TxnFut<'_, Vec<(u64, Vec<u8>)>> {
        Box::pin(self.scan_local_async(table, lo, hi, limit, head))
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
        let r = Pass::read(self, shard, table, key, usize::MAX);
        Box::pin(async move { r })
    }
    /// The reads one by one.
    fn read_many<'a>(
        &'a mut self,
        keys: &'a [(usize, TableId, u64)],
        head: usize,
    ) -> TxnFut<'a, Vec<Vec<u8>>> {
        let read = |&(shard, table, key): &_| Pass::read(self, shard, table, key, head);
        let r = keys.iter().map(read).collect();
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
        head: usize,
    ) -> TxnFut<'_, Vec<(u64, Vec<u8>)>> {
        let r = Pass::scan_local(self, table, lo, hi, limit, head);
        Box::pin(async move { r })
    }
    fn last_local(
        &mut self,
        table: TableId,
        lo: u64,
        hi: u64,
    ) -> TxnFut<'_, Option<(u64, Vec<u8>)>> {
        let r = Pass::scan_local(self, table, lo, hi, usize::MAX, usize::MAX);
        let r = r.map(|mut v| v.pop());
        Box::pin(async move { r })
    }
}
