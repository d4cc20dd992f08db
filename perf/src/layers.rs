//! Per-layer metrics read from the public scrape (`Snapshot`) after a
//! run: virtual time per commit phase, abort and HTM classes, verbs,
//! doorbells and bytes, value-cache, reactor and contention counters —
//! all per committed transaction, so runs of different length compare.

use drtm_obs::{HistSummary, Snapshot};

fn labelled<T: Copy>(rows: &[(&'static str, T)], label: &str) -> T {
    rows.iter()
        .find(|(l, _)| *l == label)
        .unwrap_or_else(|| panic!("the scrape has no `{label}` row"))
        .1
}

/// Appends every scrape-derived per-layer metric of `snap` to `out`.
pub fn from_snapshot(snap: &Snapshot, out: &mut Vec<(&'static str, f64)>) {
    let txns = snap.committed.max(1) as f64;
    let per_txn = |n: u64| n as f64 / txns;
    let per_ktxn = |n: u64| n as f64 * 1e3 / txns;

    let phase = |label| labelled::<HistSummary>(&snap.phases, label).sum;
    let abort = |label| labelled::<u64>(&snap.aborts, label);
    let htm = |label| labelled::<u64>(&snap.htm, label);
    let nic = |verb: &str| {
        snap.nic
            .iter()
            .filter(|r| r.verb == verb)
            .map(|r| r.count)
            .sum::<u64>()
    };
    let doorbells = nic("doorbell");
    let wrs = nic("read") + nic("write") + nic("atomic");
    let bytes: u64 = snap.nic_bytes.iter().map(|(_, b)| b).sum();

    out.extend([
        ("core.phase.execute_vns", per_txn(phase("execute"))),
        ("core.phase.lock_vns", per_txn(phase("lock"))),
        ("core.phase.validate_vns", per_txn(phase("validate"))),
        ("core.phase.htm_vns", per_txn(phase("htm"))),
        ("core.phase.log_vns", per_txn(phase("log"))),
        ("core.phase.makeup_vns", per_txn(phase("makeup"))),
        ("core.phase.update_vns", per_txn(phase("update"))),
        ("core.phase.unlock_vns", per_txn(phase("unlock"))),
        ("core.aborts_per_commit", per_txn(snap.aborted)),
        (
            "core.abort.lock_busy_per_ktxn",
            per_ktxn(abort("lock_busy")),
        ),
        (
            "core.abort.validation_per_ktxn",
            per_ktxn(abort("validation")),
        ),
        (
            "core.abort.local_lock_busy_per_ktxn",
            per_ktxn(abort("local_lock_busy")),
        ),
        (
            "core.abort.transport_per_ktxn",
            per_ktxn(abort("transport")),
        ),
        ("core.abort.user_per_ktxn", per_ktxn(snap.user_aborts)),
        ("core.fallbacks_per_ktxn", per_ktxn(snap.fallbacks)),
        ("core.routine.hiding_ratio", snap.pipeline.hiding_ratio()),
        ("core.routine.avg_depth", snap.pipeline.avg_depth()),
        ("core.routine.wake_lag_ns", snap.pipeline.avg_wake_lag_ns()),
        (
            "core.contention.pessimistic_per_ktxn",
            per_ktxn(snap.contention.pessimistic),
        ),
        (
            "core.contention.parks_per_ktxn",
            per_ktxn(snap.contention.parks),
        ),
        (
            "core.contention.parked_p99_vns",
            snap.contention.parked_ns.p99 as f64,
        ),
        ("htm.abort.conflict_per_ktxn", per_ktxn(htm("conflict"))),
        ("htm.abort.capacity_per_ktxn", per_ktxn(htm("capacity"))),
        ("htm.abort.spurious_per_ktxn", per_ktxn(htm("spurious"))),
        ("htm.fallback_per_ktxn", per_ktxn(htm("fallback"))),
        ("rdma.read_per_txn", per_txn(nic("read"))),
        ("rdma.write_per_txn", per_txn(nic("write"))),
        ("rdma.atomic_per_txn", per_txn(nic("atomic"))),
        ("rdma.send_per_txn", per_txn(nic("send"))),
        ("rdma.doorbells_per_txn", per_txn(doorbells)),
        (
            "rdma.wrs_per_doorbell",
            if doorbells == 0 {
                0.0
            } else {
                wrs as f64 / doorbells as f64
            },
        ),
        ("rdma.saved_per_txn", per_txn(nic("saved"))),
        ("rdma.bytes_per_txn", per_txn(bytes)),
        ("store.cache_hit_rate", snap.cache.hit_rate()),
        (
            "store.cache_invalidations_per_ktxn",
            per_ktxn(snap.cache.invalidations),
        ),
        (
            "store.cache_bytes_saved_per_txn",
            per_txn(snap.cache.bytes_saved),
        ),
    ]);
}
