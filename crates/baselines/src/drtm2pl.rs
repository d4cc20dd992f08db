//! The DrTM baseline (SOSP'15): 2PL over RDMA + one HTM region per
//! transaction.
//!
//! DrTM locks every *remote* record up front (exclusive RDMA CAS, in
//! global order, waiting on conflict — two-phase locking), prefetches the
//! remote values, then runs the **entire transaction** inside a single
//! HTM region: all local reads and writes, plus computation. Strong
//! atomicity makes remote CAS/WRITEs abort the region, which is how DrTM
//! glues 2PL to HTM. After the region commits, buffered remote writes go
//! back over RDMA and the locks are released.
//!
//! The remote half is DrTM+R's commit walk (DESIGN.md §11): its C.1 in
//! wait mode — one lock per round trip in global order, a held lock
//! waited for through the engine's one lock wait (§15), a dead owner's
//! lock stolen and its record healed (§5.2) — then one READ of every
//! locked record, one doorbell per machine; after the region, its C.5
//! and C.6. Only the region, the oracle glue and the retry loop, whose
//! one random pause is the abort back-off, are DrTM's own.
//!
//! Two behaviours matter for the paper's comparisons and emerge naturally
//! here: the *large HTM working set* (the whole transaction, not just
//! metadata) degrades scalability past one socket (Figure 11) and under
//! contention (Figure 18); and the requirement for a-priori read/write
//! sets — supplied by the zero-cost [`crate::oracle`] — restricts
//! generality (the paper's motivation for DrTM+R). Transactions whose
//! real execution touches records the oracle pass did not predict are
//! aborted and retried, modelling chopping imperfection.

use std::collections::HashMap;
use std::sync::Arc;

use drtm_base::task::block_now;
use drtm_base::Cause;
use drtm_core::cluster::DrtmCluster;
use drtm_core::txn::{AbortReason, TxnApi, TxnError, TxnFut, Worker};
use drtm_htm::{AbortCode, HtmTxn, RunOutcome};
use drtm_rdma::NodeId;
use drtm_store::record::lock_owner;
use drtm_store::TableId;

use crate::oracle::{Access, OracleCtx};

/// The real execution pass: local accesses via one big HTM region,
/// remote reads from the prefetched snapshot, remote writes buffered.
pub struct ExecCtx<'a, 'b> {
    cluster: Arc<DrtmCluster>,
    node: NodeId,
    txn: &'a mut HtmTxn<'b>,
    /// Remote values prefetched under lock: `(node, table, key) -> value`.
    remote_vals: &'a HashMap<(NodeId, TableId, u64), Vec<u8>>,
    out: Buffered,
}

/// An execution pass's abort when its region conflicted or it strayed
/// from the oracle's sets.
const CONFLICT: TxnError = TxnError::Aborted(AbortReason::Validation);

/// What one execution pass leaves for after its region commits.
#[derive(Default)]
struct Buffered {
    /// Remote writes `(node, table, key, value)`.
    remote_writes: Vec<(NodeId, TableId, u64, Vec<u8>)>,
    /// Inserts/deletes.
    mutations: Vec<(NodeId, TableId, u64, Option<Vec<u8>>)>,
    /// Lines read/written locally (cost accounting).
    local_lines: u64,
}

impl ExecCtx<'_, '_> {
    /// Reads the first `head` value bytes of a record (`usize::MAX`:
    /// the whole value). Local: inside the HTM region, which reads and
    /// tracks only the lines holding them; remote: from the locked
    /// prefetched snapshot.
    fn read_head(
        &mut self,
        shard: usize,
        table: TableId,
        key: u64,
        head: usize,
    ) -> Result<Vec<u8>, TxnError> {
        let home = self.cluster.home_of(shard);
        if home != self.node {
            let value = self.remote_vals.get(&(home, table, key));
            let value = value.ok_or(CONFLICT)?;
            return Ok(value[..head.min(value.len())].to_vec());
        }
        let store = &self.cluster.stores[home];
        let off = store.get_loc(table, key).ok_or(TxnError::NotFound)? as usize;
        let rec = store.record(table, off);
        let mut v = vec![0u8; head.min(rec.layout.value_len)];
        let (lock, ..) = rec.read_htm(self.txn, &mut v).map_err(|_| CONFLICT)?;
        if lock_owner(lock).is_some() {
            // A remote 2PL owner holds the record.
            return Err(TxnError::Aborted(AbortReason::LockBusy));
        }
        self.out.local_lines += rec.layout.lines_for(head) as u64;
        Ok(v)
    }
}

/// Inside the one HTM region, where nothing may suspend: every future
/// is ready on its first poll.
impl TxnApi for ExecCtx<'_, '_> {
    /// The reads one by one.
    fn read_many<'a>(
        &'a mut self,
        keys: &'a [(usize, TableId, u64)],
        head: usize,
    ) -> TxnFut<'a, Vec<Vec<u8>>> {
        Box::pin(async move {
            let read = |&(shard, table, key): &_| self.read_head(shard, table, key, head);
            keys.iter().map(read).collect()
        })
    }

    fn write(&mut self, shard: usize, table: TableId, key: u64, value: Vec<u8>) -> TxnFut<'_, ()> {
        Box::pin(async move {
            let home = self.cluster.home_of(shard);
            let store = &self.cluster.stores[self.node];
            assert_eq!(value.len(), store.table(table).spec.value_len);
            if home != self.node {
                if !self.remote_vals.contains_key(&(home, table, key)) {
                    // Written record was not in the oracle's (locked) set.
                    return Err(CONFLICT);
                }
                let writes = &mut self.out.remote_writes;
                writes.retain(|w| (w.0, w.1, w.2) != (home, table, key));
                writes.push((home, table, key, value));
                return Ok(());
            }
            let off = store.get_loc(table, key).ok_or(TxnError::NotFound)? as usize;
            let rec = store.record(table, off);
            let seq = self.txn.read_u64(rec.seq_off()).map_err(|_| CONFLICT)?;
            rec.write_htm(self.txn, &value, seq + 2)
                .map_err(|_| CONFLICT)?;
            self.out.local_lines += rec.layout.lines() as u64;
            Ok(())
        })
    }

    /// Buffered until the region commits.
    fn insert(&mut self, shard: usize, table: TableId, key: u64, value: Vec<u8>) {
        let home = self.cluster.home_of(shard);
        self.out.mutations.push((home, table, key, Some(value)));
    }

    /// Buffered until the region commits.
    fn delete(&mut self, shard: usize, table: TableId, key: u64) {
        let home = self.cluster.home_of(shard);
        self.out.mutations.push((home, table, key, None));
    }

    /// Each hit through the region's read, so the scan is in its read
    /// set (scanned tables are local-only).
    fn scan_local(
        &mut self,
        table: TableId,
        lo: u64,
        hi: u64,
        limit: usize,
        head: usize,
    ) -> TxnFut<'_, Vec<(u64, Vec<u8>)>> {
        Box::pin(async move {
            let hits = self.cluster.stores[self.node].scan(table, lo, hi, limit);
            let mut read = |(k, _)| Ok((k, self.read_head(self.node, table, k, head)?));
            hits.into_iter().map(&mut read).collect()
        })
    }
}

/// Runs one DrTM transaction on `w` to commit: an oracle pass, then
/// 2PL over the remote records and one HTM region for the rest. Locks
/// are waited for until released, so only a lock wait that outlives its
/// poll cap, a dropped lock CAS or an execution that strays from the
/// oracle's sets retries, after a random pause of up to 4 µs.
///
/// The body runs on contexts that never suspend (the oracle's snapshot,
/// then the HTM region), so each pass finishes in one poll; the commit
/// rows' verbs are what park.
pub async fn run<R>(
    w: &mut Worker,
    mut body: impl AsyncFnMut(&mut dyn TxnApi) -> Result<R, TxnError>,
) -> Result<R, TxnError> {
    w.clock
        .advance(w.cluster.opts.cost.txn_overhead_ns / 2, Cause::TxnOverhead);
    let start = w.clock.now();
    loop {
        match attempt(w, &mut body).await {
            Ok(r) => {
                w.note_commit(start, "rw");
                return Ok(r);
            }
            Err(e) => {
                w.note_abort(e);
                let (TxnError::Aborted(_) | TxnError::Transport(_)) = e else {
                    return Err(e);
                };
                let ns = w.rng.below(4_000);
                w.pause(ns, Cause::Backoff).await;
            }
        }
    }
}

/// One attempt: the oracle pass, the commit walk's C.1 in wait mode
/// over the remote records and their READs under the locks
/// ([`TxnCtx::lock_and_fetch`]), the one HTM region, then the walk's
/// C.5 and C.6 ([`TxnCtx::write_back`]).
///
/// [`TxnCtx::lock_and_fetch`]: drtm_core::txn::TxnCtx::lock_and_fetch
/// [`TxnCtx::write_back`]: drtm_core::txn::TxnCtx::write_back
async fn attempt<R>(
    w: &mut Worker,
    body: &mut impl AsyncFnMut(&mut dyn TxnApi) -> Result<R, TxnError>,
) -> Result<R, TxnError> {
    let cluster = Arc::clone(&w.cluster);
    let me = w.node;
    // Free oracle pass: DrTM's "a-priori read/write sets".
    let mut oracle = OracleCtx::new(Arc::clone(&cluster), me);
    block_now(body(&mut oracle))?;
    let sets = oracle.sets;

    // 2PL: lock every remote record in global order, waiting for each
    // held one's release, and read them under their locks.
    let all = sets.reads.iter().chain(&sets.writes);
    let mut remote: Vec<Access> = all.filter(|a| a.0 != me).copied().collect();
    remote.sort_unstable_by_key(|a| (a.0, a.3));
    remote.dedup_by_key(|a| (a.0, a.3));
    let mut t = w.begin_two_phase();
    let values = t.lock_and_fetch(&remote).await?;
    let at = remote.iter().map(|a| (a.0, a.1, a.2));
    let remote_vals: HashMap<_, _> = at.zip(values).collect();

    // One HTM region for the entire transaction.
    let cost = cluster.opts.cost.clone();
    let htm = &cluster.htms[me];
    let region = &cluster.stores[me].region;
    let outcome = htm.run(region, &mut t.worker().rng, |txn| {
        let mut e = ExecCtx {
            cluster: Arc::clone(&cluster),
            node: me,
            txn,
            remote_vals: &remote_vals,
            out: Buffered::default(),
        };
        match block_now(body(&mut e)) {
            Ok(v) => Ok(Ok((v, e.out))),
            Err(TxnError::Aborted(AbortReason::LockBusy)) => Err(AbortCode::Explicit(1)),
            Err(err) => Ok(Err(err)),
        }
    });

    let (value, out, retries) = match outcome {
        RunOutcome::Committed {
            value: Ok((v, out)),
            retries,
        } => (v, out, retries),
        RunOutcome::Committed { value: Err(e), .. } => {
            t.release_locks().await;
            return Err(e);
        }
        RunOutcome::Fallback(_) => {
            t.worker().note_fallback();
            t.release_locks().await;
            // DrTM's slow path re-runs under locking; modelled as an
            // abort + retry with an extra locking toll.
            let toll = cost.rdma_atomic_ns * (sets.reads.len() as u64 + 1);
            t.worker().clock.advance(toll, Cause::LockWait);
            return Err(TxnError::Aborted(AbortReason::Fallback));
        }
    };

    // Cost of the big HTM region: one XBEGIN/XEND per transaction,
    // then per-record application logic and per-line memory/HTM
    // tracking for everything it touched — the same per-record terms
    // DrTM+R pays (one `record_logic_ns` per record, however often it
    // is read and written), minus DrTM+R's per-read HTM region and
    // buffer maintenance (its "generality cost"). Repeated per retry.
    // Its inserts and deletes pay no `record_logic_ns`, where DrTM+R's
    // pay one each (EXPERIMENTS.md, "Known deviations").
    let (attempts, lines) = (retries as u64 + 1, out.local_lines);
    let records = sets.distinct_records() as u64;
    let w = t.worker();
    let clock = &mut w.clock;
    clock.advance(attempts * cost.htm_begin_ns, Cause::HtmBegin);
    clock.advance(attempts * cost.htm_commit_ns, Cause::HtmCommit);
    clock.advance(attempts * lines * cost.htm_per_line_ns, Cause::HtmLine);
    clock.advance(attempts * lines * cost.mem_access_ns, Cause::MemAccess);
    clock.advance(
        attempts * records * cost.record_logic_ns,
        Cause::RecordLogic,
    );

    // Apply inserts/deletes, each shipped to its home machine.
    for (dst, table, key, val) in &out.mutations {
        if *dst != me {
            let bytes = 24 + val.as_ref().map_or(0, Vec::len);
            cluster.fabric.charge_message(&mut w.clock, me, *dst, bytes);
        }
        let store = &cluster.stores[*dst];
        match val {
            Some(v) => _ = store.insert(*table, *key, v, 2),
            None => _ = store.remove(*table, *key),
        }
    }

    // Write back the remote writes under their locks, then unlock.
    for (dst, table, key, val) in out.remote_writes {
        t.write_remote_async(dst, table, key, val).await?;
    }
    t.write_back().await?;
    Ok(value)
}
