//! Replication-log transport: durable redo queues on each backup.
//!
//! In the paper, a committing transaction writes redo records for every
//! updated record into non-volatile logs on the f backups (R.1) using
//! one-sided RDMA WRITEs, and backups truncate their logs with auxiliary
//! threads after full commit. Here each backup holds one durable queue
//! per primary. Appends charge the caller's virtual clock and both NICs
//! exactly like an RDMA WRITE of the serialised entry, so the replication
//! bandwidth bottleneck of Figures 15/16 is preserved; the queue itself
//! is host memory that survives a simulated crash (our "battery-backed
//! DRAM").

use drtm_base::sync::{Mutex, RwLock};
use drtm_base::{CostModel, LinkBudget, VClock, CACHE_LINE};
use drtm_rdma::NodeId;

use crate::ConfigService;

/// One redo record: enough to replay an update during recovery.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LogEntry {
    /// Table the record belongs to.
    pub table: u32,
    /// User key.
    pub key: u64,
    /// Sequence number the value carries after replay (always even: a
    /// replayed record is fully replicated by construction).
    pub seq: u64,
    /// The record value (empty for deletions).
    pub value: Vec<u8>,
    /// Whether this entry records a deletion rather than an update.
    pub delete: bool,
}

impl LogEntry {
    /// Serialised size on the wire (header + value).
    pub fn wire_size(&self) -> usize {
        4 + 8 + 8 + 8 + 1 + self.value.len()
    }

    /// Serialised size of one redo batch: the payload of its RDMA WRITE.
    pub fn batch_wire_size(entries: &[LogEntry]) -> usize {
        entries.iter().map(LogEntry::wire_size).sum()
    }
}

/// All replication logs of a cluster: `logs[backup][primary]` is the redo
/// queue that `primary` appends to on machine `backup`.
pub struct ReplLogStore {
    logs: Vec<Vec<Mutex<Vec<LogEntry>>>>,
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
                .map(|_| (0..n).map(|_| Mutex::new(Vec::new())).collect())
                .collect(),
            gate: RwLock::new(()),
        }
    }

    /// Posts one redo WRITE without waiting for it: machine `src` issues
    /// `entries` at virtual time `issue` toward `primary`'s log on
    /// `backup`, and the entries are enqueued. Returns the WRITE's
    /// completion horizon — `issue + rdma_write(bytes)`, or later if
    /// either NIC (`nics` = source, destination) is in byte deficit. A
    /// transaction's R.1 posts one WRITE per `(primary, backup)` pair and
    /// waits once for the latest horizon; [`Self::append`] is the
    /// blocking form.
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
        entries: &[LogEntry],
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
        self.logs[backup][primary].lock().extend_from_slice(entries);
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
        entries: &[LogEntry],
    ) {
        let done = self.post(clock.now(), cost, nics, primary, primary, backup, entries);
        clock.advance_to(done);
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

    /// Truncates the oldest `n` entries of `primary`'s log on `backup`
    /// (the auxiliary threads' job; off the worker critical path).
    pub fn truncate(&self, backup: NodeId, primary: NodeId, n: usize) {
        let mut log = self.logs[backup][primary].lock();
        let n = n.min(log.len());
        log.drain(..n);
    }

    /// Number of unreclaimed entries `primary` has on `backup`.
    pub fn len(&self, backup: NodeId, primary: NodeId) -> usize {
        self.logs[backup][primary].lock().len()
    }

    /// Whether the log is empty.
    pub fn is_empty(&self, backup: NodeId, primary: NodeId) -> bool {
        self.len(backup, primary) == 0
    }

    /// Drains every entry `primary` ever logged on `backup` — the
    /// recovery path: survivors replay the dead primary's redo records.
    pub fn drain_for_recovery(&self, backup: NodeId, primary: NodeId) -> Vec<LogEntry> {
        std::mem::take(&mut *self.logs[backup][primary].lock())
    }

    /// Drains `primary`'s log on `backup`, running `apply` on each entry
    /// *while still holding the queue lock*. Entries are therefore never
    /// observable as "drained but not yet applied": anyone who sees the
    /// queue empty afterwards also sees every effect of `apply`. The
    /// auxiliary truncation threads and recovery both use this so a
    /// recovery snapshot racing a truncation step cannot miss entries.
    /// Returns the number of entries applied.
    pub fn drain_with(
        &self,
        backup: NodeId,
        primary: NodeId,
        mut apply: impl FnMut(&LogEntry),
    ) -> usize {
        let mut log = self.logs[backup][primary].lock();
        let n = log.len();
        for e in log.drain(..) {
            apply(&e);
        }
        n
    }

    /// Copies (without truncating) every unreclaimed entry `primary`
    /// has on `backup`. The dangling-lock healing path uses this to
    /// read durable redo state that the auxiliary threads have not yet
    /// folded into the backup images.
    pub fn peek(&self, backup: NodeId, primary: NodeId) -> Vec<LogEntry> {
        self.logs[backup][primary].lock().clone()
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
        clock.advance(500);
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
        let got = s.drain_for_recovery(2, 0);
        assert_eq!(got, vec![entry(5, 4)]);
        assert!(s.is_empty(2, 0));
        assert_eq!(s.len(2, 1), 1, "other primaries' logs untouched");
    }

    #[test]
    fn wire_size_includes_value() {
        assert_eq!(entry(1, 2).wire_size(), 29 + 3);
    }
}
