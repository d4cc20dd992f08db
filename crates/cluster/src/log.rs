//! Replication-log transport: durable redo queues on each backup.
//!
//! In the paper, a committing transaction writes redo records for every
//! updated record into non-volatile logs on the f backups (R.1) using
//! one-sided RDMA WRITEs, and backups truncate their logs with auxiliary
//! threads after full commit; here a backup's worker loops truncate
//! between their transactions. Each backup holds one durable queue
//! per primary. Appends charge the caller's virtual clock and both NICs
//! exactly like an RDMA WRITE of the serialised entry, so the replication
//! bandwidth bottleneck of Figures 15/16 is preserved; the queue itself
//! is host memory that survives a simulated crash (our "battery-backed
//! DRAM"): one byte vector of entries in their wire format, so a WRITE
//! lands as a copy and readers borrow [`LogEntryRef`] views out of it.

use drtm_base::sync::{Mutex, RwLock};
use drtm_base::{Cause, CostModel, LinkBudget, VClock, CACHE_LINE};
use drtm_rdma::NodeId;

use crate::ConfigService;

/// One redo record: enough to replay an update during recovery. The
/// value is owned (`LogEntry`) or borrowed ([`LogEntryRef`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LogEntry<V = Vec<u8>> {
    /// Table the record belongs to.
    pub table: u32,
    /// User key.
    pub key: u64,
    /// Sequence number the value carries after replay (always even: a
    /// replayed record is fully replicated by construction).
    pub seq: u64,
    /// The record value (empty for deletions).
    pub value: V,
    /// Whether this entry records a deletion rather than an update.
    pub delete: bool,
}

/// A redo record over someone else's bytes: a committing transaction's
/// write-set buffer, or the queue it was serialised onto.
pub type LogEntryRef<'a> = LogEntry<&'a [u8]>;

/// Bytes before the value, on the wire and in a queue:
/// `table u32 | key u64 | seq u64 | value_len u64 | delete u8`.
const HEADER: usize = 4 + 8 + 8 + 8 + 1;

impl<V: AsRef<[u8]>> LogEntry<V> {
    /// Serialised size on the wire (header + value).
    pub fn wire_size(&self) -> usize {
        HEADER + self.value.as_ref().len()
    }

    /// Serialised size of one redo batch: the payload of its RDMA WRITE.
    pub fn batch_wire_size(entries: &[Self]) -> usize {
        entries.iter().map(Self::wire_size).sum()
    }

    fn encode(&self, out: &mut Vec<u8>) {
        let value = self.value.as_ref();
        out.extend_from_slice(&self.table.to_le_bytes());
        out.extend_from_slice(&self.key.to_le_bytes());
        out.extend_from_slice(&self.seq.to_le_bytes());
        out.extend_from_slice(&(value.len() as u64).to_le_bytes());
        out.push(self.delete as u8);
        out.extend_from_slice(value);
    }
}

/// The entries of a queue's bytes, in log order.
pub struct Entries<'a>(&'a [u8]);

impl<'a> Iterator for Entries<'a> {
    type Item = LogEntryRef<'a>;

    fn next(&mut self) -> Option<Self::Item> {
        let bytes = (!self.0.is_empty()).then_some(self.0)?;
        let u64_at = |at: usize| u64::from_le_bytes(bytes[at..at + 8].try_into().unwrap());
        let (value, rest) = bytes[HEADER..].split_at(u64_at(20) as usize);
        self.0 = rest;
        Some(LogEntry {
            table: u32::from_le_bytes(bytes[..4].try_into().unwrap()),
            key: u64_at(4),
            seq: u64_at(12),
            value,
            delete: bytes[HEADER - 1] != 0,
        })
    }
}

/// All replication logs of a cluster: `logs[backup][primary]` is the redo
/// queue that `primary` appends to on machine `backup`.
pub struct ReplLogStore {
    /// Each queue is whole entries back to back, oldest first.
    logs: Vec<Vec<Mutex<Vec<u8>>>>,
    /// Recovery gate ordering appends against log drains. Appenders hold
    /// it shared for the duration of one transaction's R.1 (all queues);
    /// recovery write-acquires it once, *after* committing the new
    /// configuration and *before* draining the dead primary's logs.
    gate: RwLock<()>,
}

impl ReplLogStore {
    /// Creates empty logs for an `n`-node cluster.
    pub fn new(n: usize) -> Self {
        Self {
            logs: (0..n)
                .map(|_| (0..n).map(|_| Mutex::default()).collect())
                .collect(),
            gate: RwLock::new(()),
        }
    }

    /// Posts one redo WRITE without waiting for it: machine `src` issues
    /// `entries` at virtual time `issue` toward `primary`'s log on
    /// `backup`, and the entries are serialised onto the queue. Returns
    /// the WRITE's completion horizon — `issue + rdma_write(bytes)`, or
    /// later if either NIC (`nics` = source, destination) is in byte
    /// deficit. A transaction's R.1 posts one WRITE per `(primary,
    /// backup)` pair and waits once for the latest horizon;
    /// [`Self::append`] is the blocking form.
    ///
    /// Loopback (`src == backup`: the coordinator is itself a backup of
    /// a primary it wrote) never leaves the machine: it is a local NVRAM
    /// store, `mem_access_ns` per cache line, and reserves no NIC.
    #[allow(clippy::too_many_arguments)]
    pub fn post(
        &self,
        issue: u64,
        cost: &CostModel,
        nics: (&LinkBudget, &LinkBudget),
        src: NodeId,
        primary: NodeId,
        backup: NodeId,
        entries: &[LogEntry<impl AsRef<[u8]>>],
    ) -> u64 {
        let bytes = LogEntry::batch_wire_size(entries);
        let done = if src == backup {
            issue + cost.mem_access_ns * bytes.div_ceil(CACHE_LINE) as u64
        } else {
            let wire = cost.wire_bytes(bytes);
            let t1 = nics.0.reserve(issue, wire);
            let t2 = nics.1.reserve(issue, wire);
            (issue + cost.rdma_write(bytes)).max(t1).max(t2)
        };
        let mut log = self.logs[backup][primary].lock();
        log.reserve(bytes);
        entries.iter().for_each(|e| e.encode(&mut log));
        done
    }

    /// Appends `entries` from `primary` to its log on `backup` and waits
    /// for the ack: one complete blocking [`Self::post`] issued by the
    /// primary itself, charging `clock` and the two NIC budgets like a
    /// single batched RDMA WRITE (the paper batches one log write per
    /// transaction per backup).
    pub fn append(
        &self,
        clock: &mut VClock,
        cost: &CostModel,
        nics: (&LinkBudget, &LinkBudget),
        primary: NodeId,
        backup: NodeId,
        entries: &[LogEntry<impl AsRef<[u8]>>],
    ) {
        let done = self.post(clock.now(), cost, nics, primary, primary, backup, entries);
        clock.advance_to(done, Cause::LogFlush);
    }

    /// Runs one transaction's R.1 appends atomically with respect to
    /// recovery (§5.2 fencing).
    ///
    /// `append_batches` runs with the recovery gate held shared, but only
    /// if the configuration epoch still equals `expected_epoch` — the
    /// epoch the appending transaction began under. Returns `false`
    /// (nothing appended) when the configuration moved.
    ///
    /// This closes the orphaned-append race: recovery bumps the epoch
    /// and then write-acquires the gate before draining a dead primary's
    /// logs, so an appender that observes the old epoch under the shared
    /// gate is guaranteed to finish *before* the drain (its entries get
    /// replayed), while one that would append *after* the drain observes
    /// the new epoch and is refused.
    pub fn append_fenced(
        &self,
        config: &ConfigService,
        expected_epoch: u64,
        append_batches: impl FnOnce(&Self),
    ) -> bool {
        let _gate = self.gate.read();
        if config.epoch() != expected_epoch {
            return false;
        }
        append_batches(self);
        true
    }

    /// Write-acquires (and releases) the recovery gate: every in-flight
    /// [`Self::append_fenced`] completes first, and every later one
    /// observes whatever configuration change preceded this call.
    pub fn quiesce_appends(&self) {
        drop(self.gate.write());
    }

    /// Truncates the oldest `n` entries of `primary`'s log on `backup`.
    pub fn truncate(&self, backup: NodeId, primary: NodeId, n: usize) {
        let mut log = self.logs[backup][primary].lock();
        let mut rest = Entries(&log);
        rest.by_ref().take(n).for_each(drop);
        let cut = log.len() - rest.0.len();
        log.drain(..cut);
    }

    /// Number of unreclaimed entries `primary` has on `backup`.
    pub fn len(&self, backup: NodeId, primary: NodeId) -> usize {
        self.peek(backup, primary, |entries| entries.count())
    }

    /// Whether the log is empty.
    pub fn is_empty(&self, backup: NodeId, primary: NodeId) -> bool {
        self.logs[backup][primary].lock().is_empty()
    }

    /// Bytes the unreclaimed entries of every log occupy.
    pub fn bytes(&self) -> usize {
        let logs = self.logs.iter().flatten();
        logs.map(|log| log.lock().len()).sum()
    }

    /// Drains `primary`'s log on `backup`, running `apply` on each entry
    /// *while still holding the queue lock*. Entries are therefore never
    /// observable as "drained but not yet applied": anyone who sees the
    /// queue empty afterwards also sees every effect of `apply`. The
    /// backups' truncation steps and recovery both use this so a
    /// recovery snapshot racing a truncation step cannot miss entries.
    /// Returns the number of entries applied.
    pub fn drain_with(
        &self,
        backup: NodeId,
        primary: NodeId,
        apply: impl FnMut(LogEntryRef<'_>),
    ) -> usize {
        let mut log = self.logs[backup][primary].lock();
        let n = Entries(&log).map(apply).count();
        log.clear();
        n
    }

    /// Runs `read` over (without truncating) the unreclaimed entries
    /// `primary` has on `backup`, under the queue lock: durable redo
    /// state not yet folded into the backup images.
    pub fn peek<R>(
        &self,
        backup: NodeId,
        primary: NodeId,
        read: impl FnOnce(Entries<'_>) -> R,
    ) -> R {
        read(Entries(&self.logs[backup][primary].lock()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn entry(key: u64, seq: u64) -> LogEntry {
        LogEntry {
            table: 0,
            key,
            seq,
            value: vec![1, 2, 3],
            delete: false,
        }
    }

    fn view(e: &LogEntry) -> LogEntryRef<'_> {
        LogEntry {
            table: e.table,
            key: e.key,
            seq: e.seq,
            value: &e.value,
            delete: e.delete,
        }
    }

    fn owned(e: LogEntryRef<'_>) -> LogEntry {
        LogEntry {
            table: e.table,
            key: e.key,
            seq: e.seq,
            value: e.value.to_vec(),
            delete: e.delete,
        }
    }

    fn nics() -> (LinkBudget, LinkBudget) {
        (LinkBudget::new(1e9), LinkBudget::new(1e9))
    }

    #[test]
    fn append_and_truncate() {
        let s = ReplLogStore::new(2);
        let cost = CostModel::default();
        let (a, b) = nics();
        let mut clock = VClock::new();
        s.append(
            &mut clock,
            &cost,
            (&a, &b),
            0,
            1,
            &[entry(1, 2), entry(2, 2)],
        );
        assert_eq!(s.len(1, 0), 2);
        s.truncate(1, 0, 1);
        assert_eq!(s.len(1, 0), 1);
        s.truncate(1, 0, 10);
        assert!(s.is_empty(1, 0));
    }

    #[test]
    fn append_charges_time_and_bandwidth() {
        let s = ReplLogStore::new(2);
        let cost = CostModel::default();
        let (a, b) = nics();
        let mut clock = VClock::new();
        s.append(&mut clock, &cost, (&a, &b), 0, 1, &[entry(1, 2)]);
        assert!(clock.now() > 0);
        assert!(a.granted() > 0 && b.granted() > 0);
    }

    #[test]
    fn post_returns_the_horizon_append_waits_for() {
        let s = ReplLogStore::new(2);
        let cost = CostModel::default();
        let (a, b) = nics();
        let batch = [entry(1, 2)];
        let done = s.post(500, &cost, (&a, &b), 0, 0, 1, &batch);
        assert_eq!(done, 500 + cost.rdma_write(batch[0].wire_size()));
        let mut clock = VClock::new();
        clock.advance(500, Cause::TxnOverhead);
        s.append(&mut clock, &cost, (&a, &b), 0, 1, &batch);
        assert_eq!(clock.now(), done, "append = post + wait");
        assert_eq!(s.len(1, 0), 2);
    }

    #[test]
    fn loopback_append_is_a_local_store() {
        // Machine 1 coordinates a write to primary 0 and is itself one of
        // 0's backups: its own log is local NVRAM, not a NIC round trip.
        let s = ReplLogStore::new(2);
        let cost = CostModel::default();
        let (a, b) = nics();
        let batch = [entry(1, 2), entry(2, 2), entry(3, 2)]; // 96 B: two lines.
        let done = s.post(0, &cost, (&a, &b), 1, 0, 1, &batch);
        assert_eq!(done, 2 * cost.mem_access_ns);
        assert_eq!((a.granted(), b.granted()), (0, 0));
        assert_eq!(s.len(1, 0), 3, "still enqueued");
    }

    #[test]
    fn recovery_drains_everything() {
        let s = ReplLogStore::new(3);
        let cost = CostModel::default();
        let (a, b) = nics();
        let mut clock = VClock::new();
        s.append(&mut clock, &cost, (&a, &b), 0, 2, &[entry(5, 4)]);
        s.append(&mut clock, &cost, (&a, &b), 1, 2, &[entry(6, 2)]);
        let mut got = Vec::new();
        assert_eq!(s.drain_with(2, 0, |e| got.push(owned(e))), 1);
        assert_eq!(got, vec![entry(5, 4)]);
        assert!(s.is_empty(2, 0));
        assert_eq!(s.len(2, 1), 1, "other primaries' logs untouched");
    }

    /// What goes in comes out: same entries, same order, through every
    /// reader, and `truncate` cuts on entry boundaries.
    #[test]
    fn queue_round_trips_entries_in_log_order() {
        let s = ReplLogStore::new(2);
        let cost = CostModel::default();
        let (a, b) = nics();
        let tombstone = LogEntry {
            table: 3,
            key: u64::MAX,
            seq: 10,
            value: Vec::new(),
            delete: true,
        };
        let wide = LogEntry {
            table: 7,
            key: 1 << 40,
            seq: 2,
            value: (0..=255).collect(),
            delete: false,
        };
        let batches = [
            vec![entry(1, 2)],
            vec![tombstone.clone(), wide.clone(), entry(1, 4)],
            vec![entry(9, 6), tombstone.clone()],
        ];
        let all: Vec<LogEntry> = batches.concat();
        let mut issue = 0;
        for batch in &batches {
            // Owned and borrowed batches serialise alike.
            let views: Vec<LogEntryRef<'_>> = batch.iter().map(view).collect();
            let done = s.post(issue, &cost, (&a, &b), 0, 0, 1, &views);
            let bytes = LogEntry::batch_wire_size(batch);
            assert_eq!(bytes, LogEntry::batch_wire_size(&views));
            assert_eq!(done, issue + cost.rdma_write(bytes));
            issue = done;
        }
        assert_eq!(s.len(1, 0), all.len(), "entries, not bytes");
        assert_eq!(s.bytes(), LogEntry::batch_wire_size(&all));
        let peeked: Vec<LogEntry> = s.peek(1, 0, |es| es.map(owned).collect());
        assert_eq!(peeked, all);
        assert_eq!(s.len(1, 0), all.len(), "peek keeps the queue");

        for cut in [0, 1, 3] {
            s.truncate(1, 0, cut);
        }
        let rest: Vec<LogEntry> = s.peek(1, 0, |es| es.map(owned).collect());
        assert_eq!(rest, all[4..]);
        assert_eq!(s.bytes(), LogEntry::batch_wire_size(&all[4..]));

        let mut drained = Vec::new();
        assert_eq!(s.drain_with(1, 0, |e| drained.push(owned(e))), 2);
        assert_eq!(drained, all[4..]);
        assert!(s.is_empty(1, 0) && s.bytes() == 0);
        assert_eq!(s.len(1, 0), 0);
        // A drained queue takes appends again.
        s.post(0, &cost, (&a, &b), 0, 0, 1, &[view(&wide)]);
        assert_eq!(s.peek(1, 0, |es| es.map(owned).collect::<Vec<_>>()), [wide]);
    }

    #[test]
    fn wire_size_includes_value() {
        assert_eq!(entry(1, 2).wire_size(), 29 + 3);
    }
}
