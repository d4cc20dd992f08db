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
//! A held lock is waited for through the engine's one lock wait
//! (DESIGN.md §15): a watch on the lock address, opened before the CAS,
//! ends when the holder's unlock counts its release in the cluster's
//! `WaitRegistry`. Its one random pause is the abort back-off.
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
use drtm_core::cluster::DrtmCluster;
use drtm_core::txn::{AbortReason, TxnError, Worker};
use drtm_htm::{AbortCode, HtmTxn, RunOutcome};
use drtm_rdma::{NodeId, WorkRequest, WrResult};
use drtm_store::record::{
    lock_owner, lock_word, locked_write_wrs, parse_consistent, RecordLayout, LOCK_FREE,
};
use drtm_store::TableId;

use crate::oracle::{Exec, OracleCtx, Pass, RwSets};

/// Transaction context handed to DrTM transaction bodies: the oracle
/// pass, then the real, charged execution inside HTM.
pub type DrtmCtx<'x, 'a, 'b> = Pass<'x, ExecCtx<'a, 'b>>;

/// The real execution pass: local accesses via one big HTM region,
/// remote reads from the prefetched snapshot, remote writes buffered.
pub struct ExecCtx<'a, 'b> {
    cluster: Arc<DrtmCluster>,
    node: NodeId,
    txn: &'a mut HtmTxn<'b>,
    /// Remote values prefetched under lock: `(node, table, key) -> value`.
    remote_vals: HashMap<(NodeId, TableId, u64), Vec<u8>>,
    /// Buffered remote writes `(node, table, key, off, value)`.
    remote_writes: Vec<(NodeId, TableId, u64, usize, Vec<u8>)>,
    /// Buffered inserts/deletes.
    mutations: Vec<(NodeId, TableId, u64, Option<Vec<u8>>)>,
    /// Lines read/written locally (cost accounting).
    local_lines: u64,
}

impl Exec for ExecCtx<'_, '_> {
    /// Local: inside the HTM region, which reads and tracks only the
    /// lines holding the first `head` value bytes; remote: from the
    /// locked prefetched snapshot.
    fn read(
        &mut self,
        shard: usize,
        table: TableId,
        key: u64,
        head: usize,
    ) -> Result<Vec<u8>, TxnError> {
        let home = self.cluster.home_of(shard);
        if home != self.node {
            let value = self.remote_vals.get(&(home, table, key));
            let value = value.ok_or(TxnError::Aborted(AbortReason::Validation))?;
            return Ok(value[..head.min(value.len())].to_vec());
        }
        let store = &self.cluster.stores[home];
        let off = store.get_loc(table, key).ok_or(TxnError::NotFound)? as usize;
        let rec = store.record(table, off);
        let mut v = vec![0u8; head.min(rec.layout.value_len)];
        match rec.read_htm(self.txn, &mut v) {
            Ok((lock, _inc, _seq)) => {
                if lock != LOCK_FREE {
                    // A remote 2PL owner holds the record.
                    return Err(TxnError::Aborted(AbortReason::LockBusy));
                }
                self.local_lines += rec.layout.lines_for(head) as u64;
                Ok(v)
            }
            Err(_) => Err(TxnError::Aborted(AbortReason::Validation)),
        }
    }

    fn write(
        &mut self,
        shard: usize,
        table: TableId,
        key: u64,
        value: Vec<u8>,
    ) -> Result<(), TxnError> {
        let home = self.cluster.home_of(shard);
        let store = &self.cluster.stores[self.node];
        assert_eq!(value.len(), store.table(table).spec.value_len);
        if home != self.node {
            let roff = self.cluster.stores[home]
                .get_loc(table, key)
                .ok_or(TxnError::NotFound)? as usize;
            if !self.remote_vals.contains_key(&(home, table, key)) {
                // Written record was not in the oracle's (locked) set.
                return Err(TxnError::Aborted(AbortReason::Validation));
            }
            self.remote_writes
                .retain(|w| !(w.0 == home && w.1 == table && w.2 == key));
            self.remote_writes.push((home, table, key, roff, value));
            return Ok(());
        }
        let off = store.get_loc(table, key).ok_or(TxnError::NotFound)? as usize;
        let rec = store.record(table, off);
        let seq = self
            .txn
            .read_u64(rec.seq_off())
            .map_err(|_| TxnError::Aborted(AbortReason::Validation))?;
        rec.write_htm(self.txn, &value, seq + 2)
            .map_err(|_| TxnError::Aborted(AbortReason::Validation))?;
        self.local_lines += rec.layout.lines() as u64;
        Ok(())
    }

    /// Buffered until the region commits.
    fn insert(&mut self, shard: usize, table: TableId, key: u64, value: Vec<u8>) {
        let home = self.cluster.home_of(shard);
        self.mutations.push((home, table, key, Some(value)));
    }

    /// Buffered until the region commits.
    fn delete(&mut self, shard: usize, table: TableId, key: u64) {
        let home = self.cluster.home_of(shard);
        self.mutations.push((home, table, key, None));
    }

    fn scan_local(
        &mut self,
        table: TableId,
        lo: u64,
        hi: u64,
        limit: usize,
        head: usize,
    ) -> Result<Vec<(u64, Vec<u8>)>, TxnError> {
        let hits = self.cluster.stores[self.node].scan(table, lo, hi, limit);
        let mut out = Vec::with_capacity(hits.len());
        let keys: Vec<u64> = hits.into_iter().map(|(k, _)| k).collect();
        for k in keys {
            // Route through the HTM read so the scan is in the read set.
            let shard_of_self = self.node; // Scans are local-only tables.
            let v = self.read(shard_of_self, table, k, head)?;
            out.push((k, v));
        }
        Ok(out)
    }
}

/// Runs one DrTM transaction on `w` to commit: an oracle pass, then
/// 2PL over the remote records and one HTM region for the rest. Locks
/// are waited for until released, so only a lock wait that outlives its
/// poll cap, a torn prefetch or an execution that strays from the
/// oracle's sets retries, after a random pause of up to 4 µs.
///
/// The body runs on contexts that never suspend (the oracle's snapshot,
/// then the HTM region), so each pass finishes in one poll; `w`'s verbs
/// are what park.
pub async fn run<R>(
    w: &mut Worker,
    mut body: impl AsyncFnMut(&mut DrtmCtx<'_, '_, '_>) -> Result<R, TxnError>,
) -> Result<R, TxnError> {
    w.clock.advance(w.cluster.opts.cost.txn_overhead_ns / 2);
    let start = w.clock.now();
    loop {
        match attempt(w, &mut body).await {
            Ok(r) => {
                w.note_commit(start, "rw");
                return Ok(r);
            }
            Err(e) => {
                w.note_abort(e);
                let TxnError::Aborted(_) = e else {
                    return Err(e);
                };
                let ns = w.rng.below(4_000);
                w.pause(ns).await;
            }
        }
    }
}

async fn attempt<R>(
    w: &mut Worker,
    body: &mut impl AsyncFnMut(&mut DrtmCtx<'_, '_, '_>) -> Result<R, TxnError>,
) -> Result<R, TxnError> {
    let cluster = Arc::clone(&w.cluster);
    let me = w.node;
    // Free oracle pass: DrTM's "a-priori read/write sets".
    let mut oracle = OracleCtx::new(Arc::clone(&cluster), me);
    block_now(body(&mut DrtmCtx::Oracle(&mut oracle)))?;
    let sets = oracle.sets;

    // 2PL: lock all remote records in global order, waiting for each
    // held one's release (bounded by the wait's poll cap to stay live).
    let remote = remote_addrs(&sets, me);
    if let Err(held) = lock_remote_waiting(w, &remote).await {
        unlock_remote(w, &remote[..held]).await;
        return Err(TxnError::Aborted(AbortReason::LockBusy));
    }

    // Prefetch every locked remote record.
    let mut remote_vals = HashMap::new();
    for &(node, table, key, off) in sets.reads.iter().chain(&sets.writes) {
        if node == me {
            continue;
        }
        let layout = cluster.stores[me].table(table).layout;
        let Some(value) = prefetch(w, node, off, layout).await else {
            unlock_remote(w, &remote).await;
            return Err(TxnError::Aborted(AbortReason::RemoteInconsistent));
        };
        remote_vals.insert((node, table, key), value);
    }

    // One HTM region for the entire transaction.
    let cost = cluster.opts.cost.clone();
    let htm = &cluster.htms[me];
    let region = &cluster.stores[me].region;
    let outcome = htm.run(region, &mut w.rng, |t| {
        let mut e = ExecCtx {
            cluster: Arc::clone(&cluster),
            node: me,
            txn: t,
            remote_vals: remote_vals.clone(),
            remote_writes: Vec::new(),
            mutations: Vec::new(),
            local_lines: 0,
        };
        let r = block_now(body(&mut DrtmCtx::Exec(&mut e)));
        let ExecCtx {
            remote_writes,
            mutations,
            local_lines,
            ..
        } = e;
        match r {
            Ok(v) => Ok(Ok((v, remote_writes, mutations, local_lines))),
            Err(TxnError::Aborted(AbortReason::LockBusy)) => Err(AbortCode::Explicit(1)),
            Err(err) => Ok(Err(err)),
        }
    });

    let (value, remote_writes, mutations, local_lines, retries) = match outcome {
        RunOutcome::Committed {
            value: Ok((v, rw, m, l)),
            retries,
        } => (v, rw, m, l, retries),
        RunOutcome::Committed { value: Err(e), .. } => {
            unlock_remote(w, &remote).await;
            return Err(e);
        }
        RunOutcome::Fallback(_) => {
            w.note_fallback();
            unlock_remote(w, &remote).await;
            // DrTM's slow path re-runs under locking; modelled as an
            // abort + retry with an extra locking toll.
            w.clock
                .advance(cost.rdma_atomic_ns * (sets.reads.len() as u64 + 1));
            return Err(TxnError::Aborted(AbortReason::Fallback));
        }
    };

    // Cost of the big HTM region: one XBEGIN/XEND per transaction,
    // then per-record application logic and per-line memory/HTM
    // tracking for everything it touched — the same per-record terms
    // DrTM+R pays (one `record_logic_ns` per record, however often it
    // is read and written), minus DrTM+R's per-read HTM region and
    // buffer maintenance (its "generality cost"). Repeated per retry.
    let per_attempt = cost.htm_begin_ns
        + cost.htm_commit_ns
        + local_lines * (cost.htm_per_line_ns + cost.mem_access_ns)
        + sets.distinct_records() as u64 * cost.record_logic_ns;
    w.clock.advance(per_attempt * (retries as u64 + 1));

    // Write back remote writes (still holding their locks), one
    // doorbell per record.
    for (dst, table, _key, off, val) in &remote_writes {
        let layout = cluster.stores[me].table(*table).layout;
        let cur = cluster.stores[*dst].region.load64(*off + 16);
        let wrs = locked_write_wrs(*off, layout, val, cur + 2)
            .into_iter()
            .map(|(raddr, data)| WorkRequest::Write { raddr, data })
            .collect();
        ring_until_landed(w, *dst, wrs).await;
    }

    // Apply inserts/deletes.
    for (dst, table, key, val) in &mutations {
        if *dst != me {
            cluster.fabric.charge_message(
                &mut w.clock,
                me,
                *dst,
                24 + val.as_ref().map_or(0, Vec::len),
            );
        }
        match val {
            Some(v) => {
                cluster.stores[*dst].insert(*table, *key, v, 2);
            }
            None => {
                cluster.stores[*dst].remove(*table, *key);
            }
        }
    }

    unlock_remote(w, &remote).await;
    Ok(value)
}

fn remote_addrs(sets: &RwSets, me: NodeId) -> Vec<(NodeId, usize)> {
    let mut v: Vec<(NodeId, usize)> = sets
        .reads
        .iter()
        .chain(&sets.writes)
        .filter(|a| a.0 != me)
        .map(|a| (a.0, a.3))
        .collect();
    v.sort_unstable();
    v.dedup();
    v
}

/// Rings `wrs` to `node` on `w`'s verb path, all signalled, and rings
/// them again while the fabric drops one: RC retransmits until the
/// request lands. A dropped WR and those flushed behind it took no
/// effect, so only batches safe to repeat — one CAS, one READ, one
/// record's WRITEs — go through here.
async fn ring_until_landed(w: &mut Worker, node: NodeId, wrs: Vec<WorkRequest>) -> Vec<WrResult> {
    loop {
        let wcs = w.ring(node, wrs.clone(), wrs.len()).await;
        if let Ok(done) = wcs.into_iter().map(|wc| wc.result).collect() {
            return done;
        }
    }
}

/// One remote CAS of the lock word at `off` on `node`: `Ok(old)` when
/// it swapped, `Err(actual)` otherwise.
async fn cas(w: &mut Worker, node: NodeId, off: usize, expect: u64, new: u64) -> Result<u64, u64> {
    let wr = WorkRequest::Cas {
        raddr: off,
        expect,
        new,
    };
    match ring_until_landed(w, node, vec![wr]).await.pop() {
        Some(WrResult::Cas(res)) => res,
        _ => unreachable!("a CAS WR completes with a CAS result"),
    }
}

/// Reads the locked record at `off` on `node`, re-reading a torn image
/// up to 16 times; its value, or `None`.
async fn prefetch(
    w: &mut Worker,
    node: NodeId,
    off: usize,
    layout: RecordLayout,
) -> Option<Vec<u8>> {
    let wr = WorkRequest::Read {
        raddr: off,
        len: layout.size(),
    };
    for _ in 0..=16 {
        let img = ring_until_landed(w, node, vec![wr.clone()]).await.pop();
        let Some(WrResult::Read { data, .. }) = img else {
            unreachable!("a READ WR completes with a READ result");
        };
        if let Some(rr) = parse_consistent(&data, layout) {
            return Some(rr.value);
        }
    }
    None
}

/// 2PL acquisition: each lock in global order, waiting for a held one
/// to be released. The wait is the engine's one lock wait
/// ([`Worker::wait_release`], DESIGN.md §15), the watch opened before
/// the first CAS, so a lock held by a sibling routine of this pool or a
/// worker on another thread costs one lost CAS per release. A wait that
/// outlives its poll cap gives up, and the attempt aborts.
async fn lock_remote_waiting(w: &mut Worker, addrs: &[(NodeId, usize)]) -> Result<(), usize> {
    let cluster = Arc::clone(&w.cluster);
    let me = lock_word(w.node);
    let members = cluster.config.get();
    for (i, &(node, off)) in addrs.iter().enumerate() {
        if !members.contains(node) {
            return Err(i);
        }
        let mut watch = cluster.waiters.watch((node, off));
        while let Err(actual) = cas(w, node, off, LOCK_FREE, me).await {
            let owner = lock_owner(actual).expect("locked");
            if !members.contains(owner) {
                if cas(w, node, off, actual, LOCK_FREE).await.is_ok() {
                    cluster.waiters.release((node, off));
                }
                continue;
            }
            if !w.wait_release(&mut watch).await {
                return Err(i);
            }
        }
    }
    Ok(())
}

async fn unlock_remote(w: &mut Worker, addrs: &[(NodeId, usize)]) {
    let me = lock_word(w.node);
    for &(node, off) in addrs {
        let _ = cas(w, node, off, me, LOCK_FREE).await;
        w.cluster.waiters.release((node, off));
    }
}
