//! The routine scheduler (DESIGN.md §11): the routines = 1 pins,
//! overlap, dispatch order, `QueueGroup` and `serve_group`, and the
//! contention ladder (DESIGN.md §15).

use std::cell::Cell;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

use drtm_rdma::Verb::{Cas, Read, Write};

use super::*;
use crate::routine::{Admission, QueueGroup, Rank, RoutinePool};
use crate::txn::TxnApi;

/// The workload both arms of the routines=1 identity test run: a mix of
/// local, remote and replicated read-modify-writes, plus a read-only
/// audit — every commit-path doorbell site fires at least once.
async fn identity_job(w: &mut Worker, txns: u64) {
    for i in 0..txns {
        let k = i % 4;
        w.run_async(async |t| {
            let a = num(&t.read(0, T_ACCT, key(0, k)).await?);
            let b = num(&t.read(1, T_ACCT, key(1, k)).await?);
            t.write(0, T_ACCT, key(0, k), val(a + 1)).await?;
            t.write(1, T_ACCT, key(1, k), val(b + 1)).await
        })
        .await
        .unwrap();
        w.run_ro_async(async |t| t.read(1, T_ACCT, key(1, k)).await)
            .await
            .unwrap();
    }
}

/// `(count, sum, p50, p99)` per phase, in [`drtm_obs::Phase::ALL`]
/// order — the digest the routines = 1 pins compare.
fn phase_digest(v: &[(&'static str, drtm_obs::HistSummary)]) -> Vec<(u64, u64, u64, u64)> {
    v.iter()
        .map(|(_, h)| (h.count, h.sum, h.p50, h.p99))
        .collect()
}

/// Pin: one routine charges what a worker outside any pool charges. A
/// bare worker and a pool of one, both seeded 42, run twelve rounds of
/// [`identity_job`] on twin clusters and must land on the same final
/// clock, commit counts, per-verb NIC traffic and per-phase
/// virtual-time breakdown. The constants are the blocking engine's,
/// recorded before its wait path was deleted, as the commit path now
/// charges them:
///
/// - C.2's header READ rides C.1's doorbell: it issues 100 ns behind
///   the CAS and lands 597 ns before it, so validate costs 0 ns.
/// - C.6's unlock CAS rides unsignalled behind C.5's line image, so
///   unlock costs 0 ns and the update phase ends at the WRITE's horizon
///   (19 836 ns, of which 16 836 is wait).
/// - A write to a record the transaction read takes the read's
///   location, so neither of a commit's two writes pays its own
///   `record_logic_ns`: execute is 33 664 ns (p50/p99 buckets 3 072 /
///   4 096).
/// - A read-only transaction built by one atomic read of a committed
///   record does not validate: each of the 12 pays its record READ and
///   nothing at commit.
/// - A read-only commit walks the validate row only, so it adds one
///   execute and one (zero) validate sample: its execute span is
///   `record_logic_ns` + doorbell + the READ (180 + 250 + 1 509 =
///   1 939 ns, 1 509 of it wait), so execute reads 33 664 + 12 × 1 939
///   = 56 932 ns over 24 samples, 24 144 + 12 × 1 509 = 42 252 of it
///   wait.
///
/// So machine 1 sees, per read-write commit, its record READ, C.1 +
/// C.2 (one CAS, one header READ), R.1 (one redo WRITE: machine 0's
/// log of machine 1 is a local store) and C.5 + C.6 (image and unlock),
/// four doorbells; per read-only commit one READ and one doorbell; and
/// four location probes, one per key: 40 READs, 24 WRITEs, 24 CASes,
/// 64 doorbells, one park each, and 12 header READs saved by C.2's
/// coalescing.
#[test]
fn routines_one_matches_blocking_path_pins() {
    use drtm_rdma::NicSnapshot;
    let build = || setup(2).replicas(2).seed(0..2, 0..8, 100).build();
    let check = |arm: &str, nic: &Nic, w: &Worker| {
        assert_eq!(w.clock.now(), 140_800, "{arm}: virtual time");
        assert_eq!(
            (w.obs.committed.get(), w.obs.aborted.get()),
            (24, 0),
            "{arm}"
        );
        assert_eq!(
            nic.since(0),
            NicSnapshot::default(),
            "{arm}: node 0 traffic"
        );
        let expect = NicSnapshot {
            reads: 40,
            writes: 24,
            atomics: 24,
            sends: 0,
            doorbells: 64,
            bytes: 3100,
            saved: 12,
        };
        assert_eq!(nic.since(1), expect, "{arm}: node 1 traffic");
        let snap = nic.c.obs.scrape();
        assert_eq!(
            phase_digest(&snap.phases),
            [
                (24, 56932, 2048, 4096),
                (12, 29400, 3072, 4096),
                (24, 0, 1, 2),
                (12, 840, 96, 128),
                (12, 19872, 1536, 2048),
                (12, 720, 48, 64),
                (12, 19836, 1536, 2048),
                (12, 0, 1, 2),
            ],
            "{arm}: per-phase breakdown"
        );
        assert_eq!(
            phase_digest(&snap.phase_waits),
            [
                (24, 42252, 1638, 4096),
                (12, 26400, 3072, 4096),
                (24, 0, 1, 2),
                (12, 0, 1, 2),
                (12, 16152, 1536, 2048),
                (12, 0, 1, 2),
                (12, 16836, 1536, 2048),
                (12, 0, 1, 2),
            ],
            "{arm}: per-phase verb waits"
        );
        assert_eq!(snap.pipeline.wait_ns, 101_640, "{arm}");
        // A single routine can never overlap its own waits, and is
        // resumed exactly at each wake horizon.
        assert_eq!(snap.pipeline.overlap_ns, 0, "{arm}");
        assert_eq!(snap.pipeline.routines, 1, "{arm}");
        assert_eq!(snap.pipeline.wakes, 64, "{arm}");
        assert_eq!(snap.pipeline.depth_sum, 64, "{arm}");
        assert_eq!(snap.pipeline.wake_lag_ns, 0, "{arm}");
    };

    // A worker outside any pool: every wait resolves inside its yield
    // point, so one poll drives the whole job.
    let c = build();
    let nic = Nic::new(&c);
    let mut w = c.worker(0, 42);
    drtm_base::task::block_now(identity_job(&mut w, 12));
    check("bare worker", &nic, &w);

    // The same worker seed driven through a pool of one.
    let c = build();
    let nic = Nic::new(&c);
    let w = c.worker(0, 42);
    let mut out = RoutinePool::run(vec![w], async |_, w| identity_job(w, 12).await);
    check("pool of one", &nic, &out.remove(0).0);
}

/// A bare worker under fault injection: sync `t.read`/`t.write` bodies
/// still finish in `block_now`'s single poll when the injector delays
/// one WR and drops another — the delayed completion is waited out
/// inline, the dropped one surfaces through its `WorkCompletion` and is
/// retried (execution READ) or aborts retriably (commit path) — and the
/// scrape shows the waits went through the worker's reactor of one.
#[test]
fn bare_worker_waits_inline_under_injected_delay_and_drop() {
    let c = setup(2).seed(1..2, 0..4, 100).build();
    // Delays the 2nd one-sided WR it sees by 40 µs and drops the 5th.
    let seen = AtomicU64::new(0);
    on_verb(&c, move |_, _, verb| {
        if verb == drtm_rdma::Verb::Send {
            return Fault::NONE;
        }
        match seen.fetch_add(1, Ordering::Relaxed) {
            1 => Fault {
                delay_ns: 40_000,
                ..Fault::NONE
            },
            4 => drop_if(true),
            _ => Fault::NONE,
        }
    });
    let mut w = c.worker(0, 5);
    let mut outcomes = Vec::new();
    for k in 0..4u64 {
        // `Worker::run` is `block_now` over the async engine: a wait
        // that suspended would panic here.
        outcomes.push(add_one(&mut w, &[(1, k)], || {}));
    }
    for r in &outcomes {
        assert!(
            matches!(
                r,
                Ok(()) | Err(TxnError::Aborted(_)) | Err(TxnError::Transport(_))
            ),
            "commit or retriable abort, got {r:?}"
        );
    }
    assert!(outcomes.iter().any(|r| r.is_ok()), "{outcomes:?}");
    assert!(w.clock.now() >= 40_000, "the injected delay was waited out");
    let snap = c.obs.scrape();
    assert_eq!(snap.pipeline.routines, 1);
    assert!(snap.pipeline.wakes > 0);
    assert_eq!(snap.pipeline.overlap_ns, 0);
    // Nothing was lost to the drop: every key reads 100 or 101.
    c.fabric.clear_injector();
    for k in 0..4u64 {
        let want = 100 + u64::from(outcomes[k as usize].is_ok());
        assert_eq!(value(&c, 1, k), want, "key {k}");
    }
}

/// Acceptance: with several routines in flight, verb waits genuinely
/// overlap — the pool finishes the same conflict-free cross-node work
/// in materially less virtual time than the routines would take
/// back-to-back, and the exposed latency-hiding ratio reflects it.
#[test]
fn routines_overlap_independent_verb_waits() {
    const R: usize = 4;
    const TXNS: u64 = 8;
    // Each routine owns a disjoint key range on the remote node, so no
    // aborts perturb the comparison.
    let job = async |id: usize, w: &mut Worker| {
        for i in 0..TXNS {
            let k = (id as u64) * 8 + (i % 8);
            w.run_async(async |t| {
                let v = num(&t.read(1, T_ACCT, key(1, k)).await?);
                t.write(1, T_ACCT, key(1, k), val(v + 1)).await
            })
            .await
            .unwrap();
        }
    };

    // Serial baseline: the same R jobs on R fresh workers, one after
    // another (sum of their virtual spans).
    let ca = cluster(2, 1);
    let mut serial_ns = 0u64;
    for id in 0..R {
        let mut w = ca.worker(0, 7 + id as u64);
        drtm_base::task::block_now(job(id, &mut w));
        serial_ns += w.clock.now();
    }

    // Pipelined: the same jobs as one pool; wall-clock is the slowest
    // routine's clock.
    let cb = cluster(2, 1);
    let workers: Vec<_> = (0..R).map(|id| cb.worker(0, 7 + id as u64)).collect();
    let done = RoutinePool::run(workers, async |id, w| job(id, w).await);
    let pipelined_ns = done.iter().map(|(w, _)| w.clock.now()).max().unwrap();

    assert!(
        (pipelined_ns as f64) < 0.75 * serial_ns as f64,
        "pipelining hid too little latency: {pipelined_ns} vs serial {serial_ns}"
    );
    let snap = cb.obs.scrape();
    assert_eq!(snap.committed, (R as u64) * TXNS);
    assert_eq!(snap.pipeline.routines, R as u64);
    assert!(snap.pipeline.wait_ns > 0);
    assert!(
        snap.pipeline.hiding_ratio() > 0.25,
        "expected real overlap, got {:?}",
        snap.pipeline
    );
    // The work itself still committed correctly.
    for id in 0..R as u64 {
        for i in 0..8u64.min(TXNS) {
            assert_eq!(value(&cb, 1, id * 8 + i), 101, "routine {id} key {i}");
        }
    }
}

/// Moves one unit from `key(0, k)` to `key(1, k)`.
async fn transfer(w: &mut Worker, k: u64) {
    w.run_async(async |t| {
        let a = num(&t.read(0, T_ACCT, key(0, k)).await?);
        let b = num(&t.read(1, T_ACCT, key(1, k)).await?);
        t.write(0, T_ACCT, key(0, k), val(a - 1)).await?;
        t.write(1, T_ACCT, key(1, k), val(b + 1)).await
    })
    .await
    .unwrap();
}

/// Conflicting routines of one pool stay live: every routine hammers
/// the *same* two records, so a routine parked while holding a lock (or
/// spinning on one) must hand the baton around for anyone to finish.
#[test]
fn conflicting_routines_make_progress() {
    let c = setup(2).seed(0..2, 0..1, 1000).build();
    let workers: Vec<_> = (0..4).map(|id| c.worker(0, 100 + id as u64)).collect();
    let done = RoutinePool::run(workers, async |_, w| {
        for _ in 0..6 {
            transfer(w, 0).await;
        }
    });
    assert_eq!(done.len(), 4);
    let (a, b) = (value(&c, 0, 0), value(&c, 1, 0));
    assert_eq!(a, 1000 - 24);
    assert_eq!(b, 1000 + 24);
    assert_eq!(a + b, 2000, "transfers conserve under contention");
}

/// Schedule pin, R = 3, CPU-bound: routine 0 commits one remote
/// read-modify-write while routines 1 and 2 are execution-phase
/// stand-ins that burn 4 us of CPU after every remote READ — longer
/// than a verb round trip, so whenever a segment ends both other
/// routines' completions have already landed. (They post bare READs:
/// one park per read, where a transaction's first read of a key is two
/// — the location probe is a posted verb like any other.) `(wake, id)`
/// order would make routine 0 queue behind both siblings at its C.1
/// park (C.2's READ in the same doorbell), its locks held throughout;
/// the reactor instead resumes it at the first scheduling point after
/// its completions land. At its C.5 park the priority is over — the
/// unlock rides that doorbell, so nothing is held for the core any
/// more — and it takes its `(wake, id)` turn. The log is every resume
/// in grant order: the commit's stage probes (fired as routine 0 runs
/// on from the park) and `r<id>` for each READ a stand-in returns from.
#[test]
fn lock_holder_resumes_ahead_of_landed_execution_reads() {
    let c = cluster(2, 1);
    let log = Arc::new(Mutex::new(Vec::new()));
    on_probe(&c, {
        let log = Arc::clone(&log);
        move |_, point| {
            log.lock().unwrap().push(point);
            false
        }
    });
    let workers: Vec<_> = (0..3).map(|id| c.worker(0, 60 + id)).collect();
    let done = RoutinePool::run(workers, async |id, w| {
        if id == 0 {
            return w
                .run_async(async |t| {
                    let v = num(&t.read(1, T_ACCT, key(1, 0)).await?);
                    t.write(1, T_ACCT, key(1, 0), val(v + 1)).await
                })
                .await;
        }
        for _ in 0..4 {
            let read = drtm_rdma::WorkRequest::Read { raddr: 0, len: 64 };
            w.ring(1, vec![read], 1).await;
            log.lock().unwrap().push(["", "r1", "r2"][id]);
            w.clock.advance(4_000, Cause::RecordLogic);
        }
        Ok(())
    });
    assert!(done.iter().all(|(_, r)| r.is_ok()));
    // Routine 0's probe and record READ each wait out a sibling
    // segment, so its C.1 + C.2 batch parks at 16 678, as r2's second
    // segment begins, rings there and lands inside it. When that
    // segment ends (20 678) r1's third READ has landed too, and
    // earlier: under `(wake, id)` alone this reads r1 r2 r1 r2 r1 C.1 ..
    // R.2 r2 C.5 .. — a 4 us segment ahead of the holder. Instead the
    // holder is granted at 20 678 and runs C.1 to its C.5 post, r1
    // follows at 20 718, and the holder's C.5 batch, landed inside
    // r1's segment, takes its `(wake, id)` turn after it.
    assert_eq!(
        *log.lock().unwrap(),
        [
            "r1", "r2", "r1", "r2", "C.1", "C.2", "C.4", "R.1", "R.2", "r1", "C.5", "C.6", "r2",
            "r1", "r2"
        ]
    );
}

/// R = 2, one shared doorbell: routine 1's execution READ parks while
/// routine 0 — its C.1 batch landed — waits for the core, so when
/// routine 0 then parks its C.5 + C.6 chain the reactor rings both in
/// one doorbell, the READ ahead. Dropping that READ flushes the whole
/// chain behind it although it belongs to another transaction: routine
/// 0 wakes at the flush, re-posts image then unlock, and commits
/// exactly once; routine 1 retries its READ.
#[test]
fn dropped_sibling_read_flushes_a_whole_commit_chain() {
    let c = cluster(2, 1);
    // Armed by routine 1 just before the READ to drop; every verb after
    // the drop is logged.
    let armed = Arc::new(AtomicBool::new(false));
    let after = Arc::new(Mutex::new(None::<Vec<drtm_rdma::Verb>>));
    on_verb(&c, {
        let (armed, after) = (Arc::clone(&armed), Arc::clone(&after));
        move |_, _, verb| {
            let mut after = after.lock().unwrap();
            if let Some(log) = after.as_mut() {
                log.push(verb);
                return Fault::NONE;
            }
            let drop = verb == Read && armed.load(Ordering::SeqCst);
            if drop {
                *after = Some(Vec::new());
            }
            drop_if(drop)
        }
    });
    let mut workers: Vec<_> = (0..2).map(|id| c.worker(0, 70 + id)).collect();
    // Routine 1 starts late enough that its first READ is still in
    // flight when routine 0 parks C.1 (so that batch rings at once),
    // then computes across the instant C.1 lands.
    workers[1].clock.advance(1_500, Cause::RecordLogic);
    let nic = Nic::new(&c);
    let done = RoutinePool::run(workers, async |id, w| {
        if id == 0 {
            return w
                .run_async(async |t| {
                    let v = num(&t.read(1, T_ACCT, key(1, 0)).await?);
                    t.write(1, T_ACCT, key(1, 0), val(v + 1)).await
                })
                .await
                .map(|()| 0);
        }
        let mut t = w.begin_ro();
        TxnApi::read(&mut t, 1, T_ACCT, key(1, 8)).await?;
        t.w.clock.advance(3_000, Cause::RecordLogic);
        armed.store(true, Ordering::SeqCst);
        let v = num(&TxnApi::read(&mut t, 1, T_ACCT, key(1, 9)).await?);
        t.commit_async().await.map(|()| v)
    });
    let outcomes: Vec<_> = done
        .iter()
        .map(|(w, r)| (*r, w.obs.aborted.get()))
        .collect();
    assert_eq!(outcomes, [(Ok(0), 0), (Ok(100), 0)]);
    // Nothing behind the dropped READ — key 9's location probe, posted
    // like every other verb — reached the injector; then the image, the
    // unlock and the probe again (and routine 1's record READ and two
    // C.2 header READs).
    let after = after.lock().unwrap().clone().expect("a READ was dropped");
    assert_eq!(after, [Write, Cas, Read, Read, Read, Read]);
    // The flushed image and unlock never reached the wire: one WRITE
    // and one unlock CAS in all, both re-posts.
    let d = nic.since(1);
    assert_eq!((d.writes, d.atomics), (1, 1 + 1), "{d:?}");
    c.fabric.clear_injector();
    assert_eq!(value(&c, 1, 0), 101, "committed exactly once");
}

/// Logs the verb class and issue time of every verb from machine 0 to
/// machine 1, and drops the first WRITE among them.
#[derive(Default)]
struct DropFirstWrite(Mutex<Vec<(drtm_rdma::Verb, u64)>>);

impl FaultInjector for DropFirstWrite {
    fn on_verb(&self, src: NodeId, dst: NodeId, verb: drtm_rdma::Verb, now: u64) -> Fault {
        let mut log = self.0.lock().unwrap();
        if (src, dst) != (0, 1) {
            return Fault::NONE;
        }
        let first = verb == Write && log.iter().all(|e| e.0 != Write);
        log.push((verb, now));
        drop_if(first)
    }
}

/// R = 2: routine 0 commits a remote read-modify-write whose C.5 image
/// is dropped, flushing the unlock chained behind it; routine 1 runs
/// 200 ns CPU segments between spin parks. The re-posted image and
/// unlock park routine 0 on the reactor like any other verb, so a
/// segment of routine 1 starts inside that wait: after the re-posted
/// WRITE is issued and before routine 0's commit returns.
#[test]
fn dropped_image_is_reposted_on_the_reactor_so_a_sibling_runs() {
    let c = cluster(2, 1);
    let tap = Arc::new(DropFirstWrite::default());
    c.fabric
        .set_injector(Arc::clone(&tap) as Arc<dyn FaultInjector>);
    let (done, starts) = (Cell::new(None), Mutex::new(Vec::new()));
    let workers: Vec<_> = (0..2).map(|id| c.worker(0, 90 + id)).collect();
    RoutinePool::run(workers, async |id, w| {
        if id == 0 {
            let r = w
                .run_async(async |t| {
                    let v = num(&t.read(1, T_ACCT, key(1, 0)).await?);
                    t.write(1, T_ACCT, key(1, 0), val(v + 1)).await
                })
                .await;
            assert_eq!((r, w.obs.aborted.get()), (Ok(()), 0));
            done.set(Some(w.clock.now()));
            return;
        }
        while done.get().is_none() {
            starts.lock().unwrap().push(w.clock.now());
            w.clock.advance(200, Cause::RecordLogic);
            w.pause(0, Cause::Backoff).await;
        }
    });
    let log = tap.0.lock().unwrap().clone();
    let writes: Vec<u64> = log.iter().filter(|e| e.0 == Write).map(|e| e.1).collect();
    let after: Vec<_> = log
        .iter()
        .skip_while(|e| e.0 != Write)
        .map(|e| e.0)
        .collect();
    assert_eq!(
        after,
        [Write, Write, Cas],
        "the drop, then image and unlock"
    );
    let (reposted, end) = (writes[1], done.get().unwrap());
    let starts = starts.into_inner().unwrap();
    assert!(
        starts.iter().any(|&s| reposted < s && s < end),
        "no segment of routine 1 starts in ({reposted}, {end}): {starts:?}"
    );
    c.fabric.clear_injector();
    assert_eq!(value(&c, 1, 0), 101, "committed exactly once");
}

/// A live pool's rank at `frontier`.
fn up(frontier: u64) -> Rank {
    (false, frontier)
}

/// The rank of a pool at `frontier` that cannot serve: its machine is
/// down, or its routines retired.
fn down(frontier: u64) -> Rank {
    (true, frontier)
}

/// The shared admission queue is a one-member group: it sheds at the
/// high-water mark and counts it, pops FIFO, and drains after close.
#[test]
fn submit_queue_sheds_past_high_water() {
    let q: QueueGroup<u64> = QueueGroup::new(1, 3, 3, 0);
    assert_eq!(q.submit(0, 1), Admission::Admitted);
    assert_eq!(q.submit(0, 2), Admission::Admitted);
    assert_eq!(q.submit(0, 3), Admission::Admitted);
    assert_eq!(q.submit(0, 4), Admission::Rejected, "queue full must shed");
    assert_eq!(q.depth(0), 3);
    assert_eq!(q.take(0, &[up(0)]), Some(1));
    assert_eq!(q.delivered(0), 1, "pop counts as a delivery");
    assert_eq!(q.submit(0, 5), Admission::Admitted, "pop frees a slot");
    assert_eq!((q.accepted_total(), q.rejected_total()), (4, 1));
    q.close();
    assert_eq!(q.submit(0, 6), Admission::Rejected, "closed queue sheds");
    // The backlog still drains after close, then the loop's wait
    // reports the group drained.
    assert!(!q.wait(|| {}), "backlog left");
    assert_eq!(q.take(0, &[up(0)]), Some(2));
    assert_eq!(q.take(0, &[up(0)]), Some(3));
    assert_eq!(q.take(0, &[up(0)]), Some(5));
    assert_eq!(q.take(0, &[up(0)]), None);
    assert!(q.wait(|| {}), "closed and drained");
    assert_eq!(q.wait_hist().count(), 4, "every delivery recorded a wait");
    assert_eq!(
        q.delivered(0),
        q.accepted(0),
        "every admitted item was delivered; a shed or closing pop must not count"
    );
    assert_eq!(q.steals_total(), 0, "one member: nothing to steal from");
}

/// Two-level shedding (DESIGN.md §16): a hot queue sheds at its own
/// high-water mark while siblings still admit, and the group cap sheds
/// on total backlog — each level counted separately.
#[test]
fn queue_group_sheds_two_level_and_counts_each() {
    // 2 queues, per-queue high water 2, global cap 3, no reserve.
    let g: QueueGroup<u64> = QueueGroup::new(2, 2, 3, 0);
    assert_eq!(g.submit(0, 10), Admission::Admitted);
    assert_eq!(g.submit(0, 11), Admission::Admitted);
    assert_eq!(
        g.submit(0, 12),
        Admission::Rejected,
        "queue 0 at its high-water mark must shed"
    );
    assert_eq!((g.shed_queue(), g.shed_global()), (1, 0));
    assert_eq!(g.submit(1, 20), Admission::Admitted, "sibling still admits");
    assert_eq!(
        g.submit(1, 21),
        Admission::Rejected,
        "total backlog at the global cap must shed"
    );
    assert_eq!((g.shed_queue(), g.shed_global()), (1, 1));
    assert_eq!((g.accepted_total(), g.rejected_total()), (3, 2));
    assert_eq!((g.rejected(0), g.rejected(1)), (1, 1));
    g.close();
    assert_eq!(g.submit(0, 13), Admission::Rejected, "closed group sheds");
    let ranks = [up(100), up(0)];
    assert_eq!(g.take(0, &ranks), Some(10));
    assert_eq!(g.take(0, &ranks), Some(11));
    assert_eq!(g.take(1, &ranks), Some(20));
    assert_eq!(g.take(0, &ranks), None);
    assert!(g.wait(|| {}), "closed and all queues drained");
    assert_eq!(g.wait_hist().count(), 3, "every delivery recorded a wait");
    for pool in 0..2 {
        assert_eq!(g.accepted(pool), g.delivered(pool));
    }
}

/// The steal protocol: an empty pool steals the *oldest* item from the
/// deepest sibling queue — per-queue FIFO order holds across home pops
/// and thefts — and never drains a sibling below the reserve. The
/// thief is behind the home pool in virtual time.
#[test]
fn queue_group_steal_preserves_fifo_and_respects_reserve() {
    let g: QueueGroup<u64> = QueueGroup::new(2, 16, 32, 1);
    for v in [10, 11, 12, 13] {
        assert_eq!(g.submit(0, v), Admission::Admitted);
    }
    // Pool 1 is empty: it steals queue 0's front, oldest first.
    let ranks = [up(100), up(0)];
    assert_eq!(
        g.take(1, &ranks),
        Some(10),
        "steal takes the victim's front"
    );
    assert_eq!(g.take(1, &ranks), Some(11));
    assert_eq!(g.take(1, &ranks), Some(12));
    assert_eq!(
        g.take(1, &ranks),
        None,
        "reserve floor: the last item stays for the home pool"
    );
    assert_eq!(g.depth(0), 1);
    assert_eq!(
        g.take(0, &ranks),
        Some(13),
        "home pop below the reserve is fine"
    );
    assert_eq!(g.steals(1), 3);
    assert_eq!(g.steals(0), 0);
    assert_eq!(g.steals_total(), 3);
    // Deliveries are counted against the queue stolen *from*.
    assert_eq!(g.delivered(0), 4);
    assert_eq!(g.delivered(1), 0);
    assert_eq!(g.accepted(0), g.delivered(0));
}

/// Deepest-queue victim selection: a thief with several non-empty
/// siblings steals from the one with the most backlog.
#[test]
fn queue_group_steals_from_deepest_sibling() {
    let g: QueueGroup<u64> = QueueGroup::new(3, 16, 64, 0);
    assert_eq!(g.submit(0, 1), Admission::Admitted);
    for v in [20, 21, 22] {
        assert_eq!(g.submit(1, v), Admission::Admitted);
    }
    let ranks = [up(100), up(100), up(0)];
    assert_eq!(g.take(2, &ranks), Some(20), "queue 1 is deepest");
    assert_eq!(g.take(2, &ranks), Some(21), "still deepest (2 vs 1)");
    assert_eq!(g.depth(0), 1);
    assert_eq!(g.depth(1), 1);
}

/// Steals follow the dispatch rule: while the victim is above the
/// reserve, a thief behind the home pool in virtual time takes the
/// front ahead of the home pool's own ask — idle, or busy and asking
/// inline — and at the reserve the item is the home pool's alone.
#[test]
fn routed_steal_goes_to_a_thief_behind() {
    let g: QueueGroup<u64> = QueueGroup::new(2, 16, 32, 1);
    for v in [10, 11, 12] {
        assert_eq!(g.submit(0, v), Admission::Admitted);
    }
    let ranks = [up(500), up(100)];
    assert_eq!(
        g.take(0, &ranks),
        None,
        "the home pool is ahead of the thief"
    );
    assert_eq!(g.take(1, &ranks), Some(10), "the thief steals");
    assert_eq!(g.take(0, &ranks), None, "the thief is still behind");
    assert_eq!(g.take(1, &ranks), Some(11), "and steals again");
    assert_eq!(g.take(1, &ranks), None, "reserve floor");
    assert_eq!(
        g.take(0, &ranks),
        Some(12),
        "at the reserve the item is the home pool's alone"
    );
    assert_eq!((g.steals(1), g.delivered(0)), (2, 3));
}

/// A thief ahead of the home pool leaves the item to it — the home
/// pool reaches it first in virtual time — and steals once the home
/// pool has passed it. The reserve still bounds every steal.
#[test]
fn routed_thief_far_ahead_leaves_the_item_home() {
    let window = drtm_base::link::WINDOW_NS;
    let g: QueueGroup<u64> = QueueGroup::new(2, 16, 32, 1);
    for v in [1, 2, 3, 4] {
        assert_eq!(g.submit(0, v), Admission::Admitted);
    }
    let ranks = [up(100), up(101 + window)];
    assert_eq!(g.take(0, &ranks), Some(1), "the home pool is behind");
    assert_eq!(g.take(1, &ranks), None, "the thief is ahead");
    let ranks = [up(window), up(101 + window)];
    assert_eq!(g.take(1, &ranks), None, "still ahead");
    assert_eq!(g.take(0, &ranks), Some(2));
    let ranks = [up(102 + window), up(101 + window)];
    assert_eq!(g.take(1, &ranks), Some(3), "the home pool passed it");
    assert_eq!(
        g.take(1, &ranks),
        None,
        "reserve floor: the last item stays home"
    );
    assert_eq!((g.steals(1), g.delivered(0)), (1, 3));
}

/// The dispatch rule of a shared queue (DESIGN.md §16): of two idle
/// pools, the one behind in virtual time takes the item, and the pool
/// ahead of it is refused — even when it asks first.
#[test]
fn shared_queue_gives_the_item_to_the_pool_behind() {
    let g: QueueGroup<u64> = QueueGroup::new(1, 8, 8, 0);
    let ranks = [up(500), up(900)];
    assert_eq!(g.take(0, &ranks), None, "empty");
    assert_eq!(g.submit(0, 7), Admission::Admitted);
    assert_eq!(g.take(1, &ranks), None, "pool 1 is ahead of idle pool 0");
    assert_eq!(g.take(0, &ranks), Some(7), "the pool behind takes it");
    assert_eq!((g.accepted(0), g.delivered(0)), (1, 1));
}

/// A busy pool behind keeps the item from an idle pool ahead, however
/// far ahead: the rule has no run-ahead window. The busy pool takes it
/// when a routine of it next asks, and the pool ahead takes work again
/// once the busy pool's clock has passed it.
#[test]
fn shared_queue_busy_pool_behind_keeps_the_item_from_an_idle_pool_ahead() {
    let window = drtm_base::link::WINDOW_NS;
    let g: QueueGroup<u64> = QueueGroup::new(1, 8, 8, 0);
    for v in [1, 2, 3] {
        assert_eq!(g.submit(0, v), Admission::Admitted);
    }
    let ranks = [up(100), up(100 + window)];
    assert_eq!(g.take(0, &ranks), Some(1), "pool 0 busy at 100");
    assert_eq!(g.take(1, &ranks), None, "one window ahead");
    assert_eq!(g.take(1, &[up(100), up(900)]), None, "less ahead");
    assert_eq!(g.take(0, &[up(window), up(101 + window)]), Some(2));
    let ranks = [up(102 + window), up(101 + window)];
    assert_eq!(g.take(0, &ranks), None, "pool 0 passed pool 1");
    assert_eq!(g.take(1, &ranks), Some(3));
}

/// Equal frontiers go to the lower pool id, whichever asks first.
#[test]
fn shared_queue_breaks_frontier_ties_by_pool_id() {
    let g: QueueGroup<u64> = QueueGroup::new(1, 8, 8, 0);
    let ranks = [up(500), up(500)];
    assert_eq!(g.take(0, &ranks), None);
    assert_eq!(g.submit(0, 3), Admission::Admitted);
    assert_eq!(g.take(1, &ranks), None, "tie: pool 0 wins");
    assert_eq!(g.take(0, &ranks), Some(3));
    assert_eq!(g.submit(0, 4), Admission::Admitted);
    assert_eq!(g.take(0, &ranks), Some(4), "pool 1 at 500 too");
}

/// A pool whose machine is down, or whose routines retired, never holds
/// work back from a live pool; and a down pool's cheap aborts do not
/// attract work — it ranks behind every live pool however far behind
/// its clock is, and takes only what no live pool can take.
#[test]
fn a_dead_or_retired_pool_never_blocks_a_live_one() {
    let g: QueueGroup<u64> = QueueGroup::new(1, 8, 8, 0);
    assert_eq!(g.submit(0, 1), Admission::Admitted);
    assert_eq!(g.take(1, &[up(100), up(900)]), None);
    // Pool 0's machine goes down: its rank says so, and it loses.
    let ranks = [down(0), up(900)];
    assert_eq!(g.take(0, &ranks), None, "a down pool ranks last");
    assert_eq!(g.take(1, &ranks), Some(1), "and no longer blocks");
    assert_eq!(g.submit(0, 2), Admission::Admitted);
    assert_eq!(g.take(0, &ranks), None, "no work for cheap aborts");
    // Pool 1 retires with the item still queued: the down pool is all
    // that is left, so it takes the item.
    assert_eq!(g.take(0, &[down(0), down(900)]), Some(2));
    // A retired pool never blocks either: pool 2 behind has retired.
    assert_eq!(g.submit(0, 3), Admission::Admitted);
    assert_eq!(g.take(1, &[down(0), up(900), down(10)]), Some(3));
}

/// Close-and-drain is unchanged under the rule: the loop blocked on an
/// empty group wakes on a submit and on the close, calling its wake
/// step each time; the backlog still drains after close, the wait
/// reports done once every queue is empty, and `accepted ==
/// delivered`.
#[test]
fn shared_queue_drains_and_wakes_the_blocked_loop() {
    let g: QueueGroup<u64> = QueueGroup::new(1, 8, 8, 0);
    let wakes = AtomicU64::new(0);
    let woke = || {
        wakes.fetch_add(1, Ordering::SeqCst);
    };
    std::thread::scope(|s| {
        let blocked = s.spawn(|| g.wait(woke));
        while wakes.load(Ordering::SeqCst) == 0 {
            std::thread::yield_now();
        }
        std::thread::sleep(std::time::Duration::from_millis(5));
        assert_eq!(g.submit(0, 1), Admission::Admitted);
        assert!(!blocked.join().unwrap(), "a submit wakes the loop");
    });
    assert_eq!(g.take(0, &[up(100), up(900)]), Some(1));
    assert_eq!(g.submit(0, 2), Admission::Admitted);
    g.close();
    assert_eq!(g.submit(0, 9), Admission::Rejected, "closed group sheds");
    assert!(!g.wait(woke), "the backlog still drains");
    assert_eq!(g.take(0, &[up(100), up(900)]), Some(2));
    let empty: QueueGroup<u64> = QueueGroup::new(1, 8, 8, 0);
    std::thread::scope(|s| {
        let blocked = s.spawn(|| empty.wait(|| {}));
        std::thread::sleep(std::time::Duration::from_millis(5));
        empty.close();
        assert!(blocked.join().unwrap(), "the close wakes the loop");
    });
    assert!(g.wait(woke), "closed and drained");
    assert!(wakes.load(Ordering::SeqCst) >= 3, "one wake step per wait");
    assert_eq!(g.accepted(0), g.delivered(0));
    assert_eq!(g.wait_hist().count(), 2);
}

/// Submits `n` transfers of keys `i % 8` to queue 0 of `g`, pausing
/// 2 ms after every sixteenth so the serving pools empty the queue and
/// park idle, then closes the group.
fn submit_and_close(g: &QueueGroup<u64>, n: u64) {
    for i in 0..n {
        assert_eq!(g.submit(0, i % 8), Admission::Admitted);
        if i % 16 == 7 {
            std::thread::sleep(std::time::Duration::from_millis(2));
        }
    }
    g.close();
}

/// Two pools of `routines` routines each, pool `p` on machine `p`,
/// seeded from `seed`.
fn serve_pools(c: &Arc<DrtmCluster>, routines: usize, seed: u64) -> Vec<Vec<Worker>> {
    let pool = |p: usize| {
        let seeds = (0..routines).map(|r| seed + (p * 10 + r) as u64);
        seeds.map(|s| c.worker(p, s)).collect()
    };
    (0..2).map(pool).collect()
}

/// Two serve pools over one [`QueueGroup`] with every submission homed
/// on pool 0: pool 1 lives entirely off steals, both retire when the
/// group closes, and the per-queue `accepted == delivered` conservation
/// invariant holds group-wide.
#[test]
fn serve_group_drains_skewed_load_via_steals() {
    const SUBMITTED: u64 = 40;
    let c = cluster(2, 1);
    let g: QueueGroup<u64> = QueueGroup::new(2, 1024, 2048, 0);
    // Thread 0 submits; thread 1 serves pools 0 and 1, each on its own
    // machine, and reports how many routines of each retired.
    let retired = threads(2, |id| {
        if id == 0 {
            submit_and_close(&g, SUBMITTED);
            return vec![];
        }
        let pools = serve_pools(&c, 2, 700);
        let done = RoutinePool::serve_group(pools, &g, async |_, _, w, k| transfer(w, k).await);
        done.iter().map(Vec::len).collect()
    });
    assert_eq!(retired, [vec![], vec![2, 2]]);
    assert_eq!(g.accepted(0), SUBMITTED);
    assert_eq!(g.accepted(1), 0);
    for pool in 0..2 {
        assert_eq!(
            g.delivered(pool),
            g.accepted(pool),
            "queue {pool}: every admission reached a routine"
        );
    }
    assert!(
        g.steals(1) > 0,
        "pool 1 had no home work: it must have stolen"
    );
    assert_eq!(g.depth_total(), 0, "close drains every queue");
    let snap = c.obs.scrape();
    assert_eq!(snap.committed, SUBMITTED);
    assert_eq!(total(&c, 0..2, 0..8), 8 * 200, "stolen transfers conserve");
}

/// Two serving pools drain externally-submitted transactions from the
/// one shared member queue: routines park idle while it is empty
/// (host-time block, no virtual-time burn), re-join on arrival, and
/// retire cleanly when the queue closes. Every submitted transfer
/// commits exactly once, and sharing a queue is never counted a steal.
#[test]
fn serve_drains_external_submissions_and_stops_on_close() {
    const SUBMITTED: u64 = 40;
    let c = cluster(2, 1);
    let q: QueueGroup<u64> = QueueGroup::new(1, 1024, 1024, 0);
    // Thread 0 submits; thread 1 serves the one queue from machines 0
    // and 1.
    let retired = threads(2, |id| {
        if id == 0 {
            submit_and_close(&q, SUBMITTED);
            return vec![];
        }
        let pools = serve_pools(&c, 2, 500);
        let done = RoutinePool::serve_group(pools, &q, async |_, _, w, k| transfer(w, k).await);
        done.iter().map(Vec::len).collect()
    });
    assert_eq!(retired, [vec![], vec![2, 2]]);
    assert_eq!(q.accepted(0), SUBMITTED);
    assert_eq!(
        q.delivered(0),
        SUBMITTED,
        "every admission reached a routine"
    );
    assert_eq!(q.steals_total(), 0, "own-queue pops are not steals");
    assert_eq!(q.wait_hist().count(), SUBMITTED);
    assert_eq!(q.depth_total(), 0, "close drains the backlog");
    let snap = c.obs.scrape();
    assert_eq!(snap.committed, SUBMITTED);
    // Conservation: each key moved (submissions of that key) units.
    assert_eq!(total(&c, 0..2, 0..8), 8 * 200, "transfers conserve");
}

/// Virtual-time dispatch against a host-time handicap: two pools of
/// two routines serve one shared queue, and pool 1's jobs sleep 100 µs
/// of host time after every transfer, while a submitter offers 200
/// transfers one at a time, each once the last one committed, so each
/// arrives with every routine idle. The rule hands each to the pool
/// behind in virtual time, so the host delay does not shift the split
/// and the commits split evenly. Every attempt ends as a commit or an
/// abort, and every admission is delivered.
#[test]
fn serve_group_splits_a_shared_queue_by_virtual_time() {
    const SUBMITTED: u64 = 200;
    let c = cluster(2, 1);
    let q: QueueGroup<u64> = QueueGroup::new(1, 1024, 1024, 0);
    let (attempts, done) = (AtomicU64::new(0), AtomicU64::new(0));
    let pools = threads(2, |id| {
        if id == 0 {
            for i in 0..SUBMITTED {
                while done.load(Ordering::SeqCst) < i {
                    std::thread::yield_now();
                }
                assert_eq!(q.submit(0, i % 8), Admission::Admitted);
            }
            q.close();
            return vec![];
        }
        let pools = serve_pools(&c, 2, 900);
        let pools = RoutinePool::serve_group(pools, &q, async |p, _, w, k| {
            w.run_async(async |t| {
                attempts.fetch_add(1, Ordering::Relaxed);
                let a = num(&t.read(0, T_ACCT, key(0, k)).await?);
                let b = num(&t.read(1, T_ACCT, key(1, k)).await?);
                t.write(0, T_ACCT, key(0, k), val(a - 1)).await?;
                t.write(1, T_ACCT, key(1, k), val(b + 1)).await
            })
            .await
            .unwrap();
            done.fetch_add(1, Ordering::SeqCst);
            if p == 1 {
                std::thread::sleep(std::time::Duration::from_micros(100));
            }
        });
        let stats = |workers: &Vec<Worker>| {
            let stats = workers
                .iter()
                .map(|w| (w.obs.committed.get(), w.obs.aborted.get()));
            stats.fold((0, 0), |a, b| (a.0 + b.0, a.1 + b.1))
        };
        pools.iter().map(stats).collect()
    });
    let pools = &pools[1];
    let commits: u64 = pools.iter().map(|p| p.0).sum();
    let aborts: u64 = pools.iter().map(|p| p.1).sum();
    assert_eq!(commits, SUBMITTED);
    assert_eq!(attempts.load(Ordering::Relaxed), commits + aborts);
    assert_eq!((q.accepted(0), q.delivered(0)), (SUBMITTED, SUBMITTED));
    assert_eq!(total(&c, 0..2, 0..8), 8 * 200, "transfers conserve");
    let share = pools[1].0 as f64 / SUBMITTED as f64;
    assert!(
        (0.45..=0.55).contains(&share),
        "pool 1 committed {} of {SUBMITTED} ({pools:?})",
        pools[1].0
    );
}

/// One serve loop is a pure function of its inputs: two pools of four
/// routines serve a group filled and closed before the loop starts, a
/// shared queue and a routed group alike, and two runs on fresh
/// clusters agree in every pool's commits and final clocks and in which
/// pool ran each item.
#[test]
fn serve_group_runs_repeat_exactly() {
    const ITEMS: u64 = 64;
    let run = |members: usize| {
        let c = cluster(2, 1);
        let g: QueueGroup<u64> = QueueGroup::new(members, 1024, 1024, 0);
        for i in 0..ITEMS {
            let home = (i % members as u64) as usize;
            assert_eq!(g.submit(home, i), Admission::Admitted);
        }
        g.close();
        let ran = Mutex::new(Vec::new());
        let pools = RoutinePool::serve_group(serve_pools(&c, 4, 300), &g, async |p, _, w, i| {
            ran.lock().unwrap().push((i, p));
            transfer(w, i % 8).await
        });
        let pool = |workers: &Vec<Worker>| {
            let commits = workers.iter().map(|w| w.obs.committed.get()).sum::<u64>();
            let clocks: Vec<u64> = workers.iter().map(|w| w.clock.now()).collect();
            (commits, clocks)
        };
        let pools: Vec<_> = pools.iter().map(pool).collect();
        assert_eq!(pools.iter().map(|p| p.0).sum::<u64>(), ITEMS);
        assert!(pools.iter().all(|p| p.0 > 0), "{pools:?}");
        (pools, ran.into_inner().unwrap())
    };
    for members in [1, 2] {
        assert_eq!(run(members), run(members), "{members} member(s)");
    }
}

/// Starvation regression (DESIGN.md §15): one transaction that
/// read-modify-writes 16 hot keys across both shards races a storm of
/// single-key writers hammering the same keys. Under pure rung-1
/// backoff the large transaction loses the backoff lottery for hundreds
/// of attempts — every retry finds some key re-locked by a small
/// writer. Under `escalate`, two consecutive aborts on the same key
/// force rung 2 (a pessimistic commit), which waits for busy locks'
/// releases instead of re-rolling the whole transaction and keeps its
/// locks through a validation abort, so the retry reads under them: the
/// 16-key transaction must commit within a small bounded number of
/// attempts. The transaction and the storm are routines of one pool on
/// machine 0, dispatched in virtual time, so the race repeats exactly.
/// Each storm writer thinks for eight READ round trips between its
/// transactions (a wait that leaves the core to the others). Most of
/// the big transaction's aborts before rung 2 are validation aborts of
/// reads taken before C.1; only the kept locks stop them.
#[test]
fn large_txn_commits_bounded_under_escalate() {
    const STORM: usize = 4;
    const THINK_READS: usize = 8;
    let c = setup(2)
        .opts(|o| o.contention(crate::ContentionPolicy::Escalate))
        .seed(0..2, 0..8, 100)
        .build();
    let done = Cell::new(false);
    let workers = (0..=STORM)
        .map(|id| c.worker(0, [1, 10, 11, 12, 13][id]))
        .collect();
    let out = RoutinePool::run(workers, async |id, w| {
        if id == 0 {
            let before = w.obs.aborted.get();
            w.run_async(async |t| {
                for shard in 0..2usize {
                    for k in 0..8u64 {
                        let v = num(&t.read(shard, T_ACCT, key(shard, k)).await?);
                        t.write(shard, T_ACCT, key(shard, k), val(v + 1)).await?;
                    }
                }
                Ok(())
            })
            .await
            .expect("the 16-key transaction must commit");
            done.set(true);
            return w.obs.aborted.get() - before + 1;
        }
        // The storm: each writer re-locks one of the 16 hot keys at a
        // time, alternating shards.
        let mut i = id as u64 - 1;
        while !done.get() {
            let shard = (i % 2) as usize;
            let k = key(shard, i % 8);
            let _ = w
                .run_async(async |t| {
                    let v = num(&t.read(shard, T_ACCT, k).await?);
                    t.write(shard, T_ACCT, k, val(v + 1)).await
                })
                .await;
            i = i.wrapping_add(3);
            for _ in 0..THINK_READS {
                let read = drtm_rdma::WorkRequest::Read { raddr: 0, len: 64 };
                w.ring(1, vec![read], 1).await;
            }
        }
        0
    });
    let attempts = out[0].1;
    assert!(attempts > 1, "the storm forced no abort");
    assert!(
        attempts <= 64,
        "escalation must bound the big transaction's attempts, took {attempts}"
    );
    let snap = crate::scrape_cluster(&c);
    assert!(
        snap.contention.pessimistic > 0 || attempts <= crate::contention::PESSIMISTIC_AFTER as u64,
        "a bounded win over the storm should have used rung 2: {snap:?}"
    );
}

/// No lost wakeup (DESIGN.md §15): a wait-mode C.1 watches a busy lock
/// before the CAS that loses it, so a release that lands between that
/// lost CAS and the start of the wait ends the wait at its first check.
/// One pool in virtual time: routine 0 is armed for rung 2 and writes
/// `key(1, 0)`, whose lock a live member holds; routine 1 plays the
/// holder, stepping 100 ns at a time until the waiter's second lock CAS
/// — wait mode's first — has executed and lost, then frees the word and
/// counts the release before the waiter resumes from that CAS. The
/// waiter must take the lock within `PARK_POLL_NS` plus one CAS round
/// trip of the release: one wait of at most one poll, and the next CAS
/// wins. Watching only after the lost CAS, the wait would run to its
/// `PARK_SPIN_CAP` polls (2 ms) and the attempt abort.
#[test]
fn release_between_lost_cas_and_wait_ends_the_wait() {
    use drtm_store::{lock_word, LOCK_FREE};
    let c = setup(2)
        .opts(|o| o.contention(crate::ContentionPolicy::Escalate))
        .seed(1..2, 0..1, 100)
        .build();
    let off = c.stores[1].get_loc(T_ACCT, key(1, 0)).unwrap() as usize;
    c.stores[1]
        .region
        .cas64(off, LOCK_FREE, lock_word(1))
        .unwrap();
    let cases = Arc::new(AtomicU64::new(0));
    on_verb(&c, {
        let cases = Arc::clone(&cases);
        move |_, dst, verb| {
            if (dst, verb) == (1, Cas) {
                cases.fetch_add(1, Ordering::SeqCst);
            }
            drtm_rdma::Fault::NONE
        }
    });
    let workers = (0..2).map(|id| c.worker(0, 1 + id)).collect();
    let out = RoutinePool::run(workers, async |id, w| {
        if id == 1 {
            while cases.load(Ordering::SeqCst) < 2 {
                w.pause(100, Cause::Backoff).await;
            }
            c.stores[1].region.store64_coherent(off, LOCK_FREE);
            c.waiters.release((1, off));
            return 0;
        }
        w.force_pessimistic = true;
        w.run_async(async |t| t.write(1, T_ACCT, key(1, 0), val(7)).await)
            .await
            .unwrap();
        w.obs.aborted.get()
    });
    assert_eq!(out[0].1, 0, "the waiter's attempt aborted");
    // Three lock CASes (the group's, wait mode's first, the winner) and
    // the unlock.
    assert_eq!(cases.load(Ordering::SeqCst), 4);
    let waits = crate::scrape_cluster(&c).contention;
    assert_eq!((waits.parks, waits.grants), (1, 1), "{waits:?}");
    assert!(
        waits.parked_ns.sum <= crate::contention::PARK_POLL_NS,
        "the wait outlived one poll: {waits:?}"
    );
    assert_eq!(value(&c, 1, 0), 7);
}
