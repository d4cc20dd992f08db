//! Failure recovery (§5.2): reconfiguration, log replay, re-homing.
//!
//! After a lease expires, a survivor drives recovery:
//!
//! 1. Commit a new configuration without the dead machine (epoch bump).
//!    In-flight transactions that try to lock records on — or held locks
//!    owned by — the dead machine observe the new epoch: writes to its
//!    shard are fenced, and its dangling locks are released passively by
//!    whoever trips on them.
//! 2. Pick the dead machine's first surviving backup as the shard's new
//!    home, apply all unapplied redo-log entries to the backup image,
//!    and instantiate every live record in the new home's store.
//! 3. Re-replicate: seed the shard's records onto the new home's
//!    backups so the `f + 1` copy invariant holds again.
//! 4. Re-home the shard so new transactions route to the new machine.
//! 5. Scrub survivors: eagerly release dangling locks still owned by
//!    the dead machine (the passive path in `lock_all` remains as a
//!    backstop for any this sweep races with) and roll forward survivor
//!    records whose redo entry became durable at R.1 but whose primary
//!    write (C.5) never happened because the coordinator died between.
//!
//! Committed-but-unreplicated (odd) updates on the dead machine are
//! *not* recovered — by construction they were never reported committed
//! (the report happens after R.1 writes the logs), and no other
//! transaction can have committed against them (the odd/even validation
//! rule), so losing them is safe. The replication tests assert exactly
//! this.
//!
//! `recover_node` is idempotent and safe to race: a cluster-wide
//! registry serializes concurrent passes, and a repeated call for an
//! already-recovered machine returns immediately with `repeat = true`,
//! the original outcome, and no epoch bump or data movement.

use std::time::Instant;

use drtm_rdma::NodeId;
use drtm_store::record::{lock_owner, lock_word, RecordRef, LOCK_FREE};

use crate::cluster::DrtmCluster;

/// What a recovery pass did, with wall-clock phase timings for the
/// Figure 20 timeline.
#[derive(Debug, Clone)]
pub struct RecoveryReport {
    /// The machine that was removed.
    pub dead: NodeId,
    /// The surviving machine now serving the dead machine's shard (None
    /// when running without replication — data is lost, as the paper's
    /// durability argument requires `f + 1 > 1` copies).
    pub new_home: Option<NodeId>,
    /// Epoch of the committed post-failure configuration.
    pub epoch: u64,
    /// Live records re-instantiated on the new home.
    pub records_recovered: usize,
    /// Unapplied redo-log entries replayed during the rebuild.
    pub log_entries_replayed: usize,
    /// Dangling locks owned by non-members released eagerly from
    /// survivor stores.
    pub locks_swept: usize,
    /// Survivor records rolled forward from durable redo state (the
    /// coordinator died between R.1 and C.5).
    pub rolled_forward: usize,
    /// Wall-clock time for the configuration commit.
    pub config_commit: std::time::Duration,
    /// Wall-clock time for data rebuild + re-replication.
    pub rebuild: std::time::Duration,
    /// `true` when this machine was already recovered by an earlier
    /// pass; nothing was re-applied and the epoch did not move.
    pub repeat: bool,
}

/// Recovers from the fail-stop crash of `dead`.
///
/// Call after [`DrtmCluster::crash`] (or after detecting a genuinely
/// expired lease). Idempotent: repeated calls — including concurrent
/// ones from several detecting survivors — bump the epoch exactly once
/// and apply the data rebuild exactly once.
pub fn recover_node(cluster: &DrtmCluster, dead: NodeId) -> RecoveryReport {
    // The registry lock is held for the whole pass: concurrent
    // detections serialize here, and all but the first become repeats.
    let mut registry = cluster.recovered.lock();
    if let Some(&new_home) = registry.get(&dead) {
        return RecoveryReport {
            dead,
            new_home,
            epoch: cluster.config.get().epoch,
            records_recovered: 0,
            log_entries_replayed: 0,
            locks_swept: 0,
            rolled_forward: 0,
            config_commit: std::time::Duration::ZERO,
            rebuild: std::time::Duration::ZERO,
            repeat: true,
        };
    }

    drtm_obs::trace::event(drtm_obs::EventKind::Recovery, "suspect", dead as u64, 0);
    let t0 = Instant::now();
    let cfg = cluster.config.remove_member(dead);
    // Quiesce R.1 appends before touching any log: in-flight fenced
    // appends that began under the old epoch finish first (their entries
    // are drained and replayed below), and every later append observes
    // the new epoch and refuses — no redo entry can be orphaned by
    // landing in a queue after it was drained.
    cluster.logs.quiesce_appends();
    let config_commit = t0.elapsed();
    drtm_obs::trace::event(drtm_obs::EventKind::Recovery, "config_commit", cfg.epoch, 0);

    let t1 = Instant::now();
    let backups = cluster.backups_of(dead);
    let Some(&new_home) = backups.first() else {
        registry.insert(dead, None);
        return RecoveryReport {
            dead,
            new_home: None,
            epoch: cfg.epoch,
            records_recovered: 0,
            log_entries_replayed: 0,
            locks_swept: 0,
            rolled_forward: 0,
            config_commit,
            rebuild: t1.elapsed(),
            repeat: false,
        };
    };

    // Apply any redo entries the backups' truncation steps had not yet
    // applied, on every surviving backup (keeps all images equally
    // fresh).
    let mut replayed = 0;
    for &b in backups.iter() {
        replayed += cluster
            .logs
            .drain_with(b, dead, |e| cluster.backups.apply(b, dead, e));
    }

    // Instantiate the shard on the new home from its (now fully applied)
    // image. Every commit logged to *all* backups, so one image is
    // complete. Existing records (left by an interrupted earlier pass)
    // are tolerated: the newest sequence number wins.
    let image = cluster.backups.image(new_home, dead);
    let live = || image.iter().filter(|(_, rec)| !rec.deleted);
    let mut recovered = 0;
    for ((table, key), rec) in live() {
        let store = &cluster.stores[new_home];
        match store.get_loc(table, key) {
            None => {
                store.insert(table, key, rec.value, rec.seq);
                recovered += 1;
            }
            Some(off) if store.record(table, off as usize).seq() < rec.seq => {
                let layout = store.table(table).layout;
                RecordRef::new(&store.region, off as usize, layout)
                    .write_locked(rec.value, rec.seq);
                recovered += 1;
            }
            Some(_) => {}
        }
    }

    // Re-replicate: the recovered shard needs backups again, and they
    // must not include the dead machine.
    for b in cluster.backups_of(new_home) {
        let mut copy = cluster.backups.image(b, new_home);
        for ((table, key), rec) in live() {
            copy.put(table, key, rec.seq, rec.value);
        }
    }
    drop(image);

    cluster.rehome(dead, new_home);

    // Scrub the survivors: eager dangling-lock release plus roll-forward
    // of redo entries the dead coordinator made durable but never wrote.
    let (locks_swept, rolled_forward) = sweep_survivors(cluster);

    registry.insert(dead, Some(new_home));
    drtm_obs::trace::event(drtm_obs::EventKind::Recovery, "done", new_home as u64, 0);
    RecoveryReport {
        dead,
        new_home: Some(new_home),
        epoch: cfg.epoch,
        records_recovered: recovered,
        log_entries_replayed: replayed,
        locks_swept,
        rolled_forward,
        config_commit,
        rebuild: t1.elapsed(),
        repeat: false,
    }
}

/// Releases every dangling lock owned by a non-member and rolls forward
/// survivor records whose committed update was durable in the backups
/// (R.1 finished) but never written to the primary (the coordinator
/// died before its C.5 RDMA WRITE landed).
///
/// A record in that window is always still locked by the dead
/// coordinator — C.1 locked it and nothing before C.6 unlocks — so the
/// dangling lock is the trigger: compare the record against the
/// freshest durable image and install the newer version before
/// releasing the lock. Buffered inserts the coordinator logged but
/// never shipped show up as image-only keys and are instantiated.
/// Returns `(locks_swept, rolled_forward)`.
fn sweep_survivors(cluster: &DrtmCluster) -> (usize, usize) {
    let members = cluster.config.get().members;
    // Flush pending survivor redo logs into the images first so the
    // image comparison below sees everything that is durable.
    for &b in &members {
        cluster.truncate_step(b);
    }
    let mut swept = 0;
    let mut rolled = 0;
    for &p in &members {
        let store = &cluster.stores[p];
        for table in 0..store.table_count() as u32 {
            for (key, off) in store.keys(table) {
                let rec = store.record(table, off as usize);
                let word = rec.lock();
                let dangling = lock_owner(word).is_some_and(|o| !members.contains(&o));
                if !dangling {
                    continue;
                }
                // Steal the lock before repairing: a concurrent
                // survivor transaction tripping on the same dangling
                // lock steals-and-heals through `lock_all`, and only
                // one of us may own the repair window.
                if store
                    .region
                    .cas64(rec.lock_off(), word, lock_word(p))
                    .is_err()
                {
                    continue; // a survivor stole it first and heals it
                }
                if cluster.heal_record(p, off as usize, Some((table, key))) {
                    rolled += 1;
                }
                store.region.store64_coherent(rec.lock_off(), LOCK_FREE);
                // Ends the waits of survivors queued behind the dead owner.
                cluster.waiters.release((p, off as usize));
                swept += 1;
            }
        }
        // Inserts logged at R.1 but never applied: live in a durable
        // image, absent from the primary. (Every backup is asked: one
        // that joined the ring at this reconfiguration holds nothing.)
        let mut missing: Vec<(u32, u64)> = Vec::new();
        for b in cluster.backups_of(p) {
            let image = cluster.backups.image(b, p);
            let absent = image
                .iter()
                .filter(|((t, k), r)| !r.deleted && store.get_loc(*t, *k).is_none());
            missing.extend(absent.map(|(at, _)| at));
        }
        missing.sort_unstable();
        missing.dedup();
        for (table, key) in missing {
            match cluster.freshest_durable(p, table, key) {
                Some(v) if !v.deleted => {
                    store.insert(table, key, &v.value, v.seq);
                    rolled += 1;
                }
                _ => {}
            }
        }
    }
    // Abandoned stores (removed machines) can also hold dangling locks:
    // a dead coordinator in the fallback path locked its *own* records
    // with loopback CAS. Nobody serves those stores any more, but a
    // clean scrub should find no stale locks anywhere, so release
    // non-member-owned locks there too. Member-owned locks are left
    // alone — a live transaction may hold them and will unlock itself.
    for node in 0..cluster.nodes() {
        if members.contains(&node) {
            continue;
        }
        let store = &cluster.stores[node];
        for table in 0..store.table_count() as u32 {
            for (_, off) in store.keys(table) {
                let rec = store.record(table, off as usize);
                if lock_owner(rec.lock()).is_some_and(|o| !members.contains(&o)) {
                    store.region.store64_coherent(rec.lock_off(), LOCK_FREE);
                    cluster.waiters.release((node, off as usize));
                    swept += 1;
                }
            }
        }
    }
    (swept, rolled)
}

/// Repairs a cluster after a *complete* power failure ("full restart").
///
/// The paper's durability argument (§5.2): with `f + 1` copies in
/// non-volatile memory, even a whole-cluster failure loses no committed
/// transaction. On restart the data is all still there (battery-backed
/// DRAM), but two kinds of in-flight state need scrubbing before the
/// cluster serves transactions again:
///
/// * **dangling locks** — every record lock is cleared (no transaction
///   survived the outage);
/// * **uncommittable records** — a record with an *odd* sequence number
///   was updated in HTM but its writer died somewhere between C.4 and
///   R.2. If the matching redo entry reached the backups' logs or
///   images, the transaction was reported committed and the record
///   *rolls forward* (its even successor is durable). Otherwise the
///   transaction was never reported committed and the record *rolls
///   back* to the newest replicated value.
///
/// Returns `(locks_cleared, rolled_forward, rolled_back)`.
pub fn full_restart_scrub(cluster: &DrtmCluster) -> (usize, usize, usize) {
    // First apply every unapplied redo entry so the backup images are
    // current (the logs are durable).
    for node in 0..cluster.nodes() {
        cluster.truncate_step(node);
    }
    let mut locks_cleared = 0;
    let mut rolled_forward = 0;
    let mut rolled_back = 0;
    for node in 0..cluster.nodes() {
        let store = &cluster.stores[node];
        for table in 0..store.table_count() as u32 {
            let layout = store.table(table).layout;
            for (key, off) in store.keys(table) {
                let rec = store.record(table, off as usize);
                if rec.lock() != drtm_store::LOCK_FREE {
                    store
                        .region
                        .store64_coherent(rec.lock_off(), drtm_store::LOCK_FREE);
                    locks_cleared += 1;
                }
                let seq = rec.seq();
                if seq.is_multiple_of(2) {
                    continue;
                }
                // Odd: decide by what the backups hold.
                let replicated = cluster
                    .freshest_durable(node, table, key)
                    .filter(|v| !v.deleted);
                match replicated {
                    Some(v) if v.seq == seq + 1 => {
                        // The odd update was logged: roll forward by
                        // finishing the makeup step.
                        rec.set_seq(seq + 1);
                        rolled_forward += 1;
                    }
                    Some(v) => {
                        // Roll back to the newest replicated version.
                        let rec = drtm_store::RecordRef::new(&store.region, off as usize, layout);
                        rec.write_locked(&v.value, v.seq);
                        rolled_back += 1;
                    }
                    None => {
                        // Never replicated at all (e.g. replication off):
                        // make it committable as-is; nothing newer exists.
                        rec.set_seq(seq + 1);
                        rolled_forward += 1;
                    }
                }
            }
        }
    }
    (locks_cleared, rolled_forward, rolled_back)
}
