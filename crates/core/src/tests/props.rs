//! Property-based tests of the transaction engine: randomized workloads
//! must preserve global invariants on every engine configuration.

use std::cell::{Cell, RefCell};
use std::collections::HashMap;
use std::sync::atomic::AtomicU64;

use drtm_base::SplitMix64;

use super::*;
use crate::routine::RoutinePool;
use crate::ContentionPolicy;

/// One randomized operation in a generated schedule.
#[derive(Debug, Clone)]
enum Op {
    /// Transfer `amt` between two accounts.
    Transfer {
        from: (usize, u64),
        to: (usize, u64),
        amt: u64,
    },
    /// Increment one account.
    Inc { at: (usize, u64), by: u64 },
    /// Insert a fresh account with balance `init` (key offset >= 100).
    Insert { at: (usize, u64), init: u64 },
    /// Delete an inserted account (only keys >= 100 are eligible).
    Delete { at: (usize, u64) },
}

fn acct(rng: &mut SplitMix64) -> (usize, u64) {
    (rng.below(3) as usize, rng.below(6))
}

fn extra_acct(rng: &mut SplitMix64) -> (usize, u64) {
    (rng.below(3) as usize, 100 + rng.below(4))
}

/// Picks one weighted-random [`Op`] (4:3:1:1 transfer/inc/insert/delete).
fn gen_op(rng: &mut SplitMix64) -> Op {
    match rng.below(9) {
        0..=3 => Op::Transfer {
            from: acct(rng),
            to: acct(rng),
            amt: rng.range(1, 20),
        },
        4..=6 => Op::Inc {
            at: acct(rng),
            by: rng.range(1, 50),
        },
        7 => Op::Insert {
            at: extra_acct(rng),
            init: rng.range(1, 100),
        },
        _ => Op::Delete {
            at: extra_acct(rng),
        },
    }
}

/// Generates a schedule of 1..`max_len` random ops.
fn gen_schedule(rng: &mut SplitMix64, max_len: u64) -> Vec<Op> {
    let n = 1 + rng.below(max_len - 1) as usize;
    (0..n).map(|_| gen_op(rng)).collect()
}

/// Three machines with 2 MiB regions and `buckets` buckets of accounts,
/// keys `0..keys` of every shard seeded at `value`.
fn bank(buckets: usize, keys: u64, value: u64) -> Setup {
    setup(3)
        .opts(|o| o.region_size(2 << 20))
        .schema(&[TableSpec::hash(T_ACCT, buckets, 16)])
        .seed(0..3, 0..keys, value)
}

/// Reads `at` and writes it back plus `by`.
async fn inc(t: &mut crate::TxnCtx<'_>, at: (usize, u64), by: u64) -> Result<(), TxnError> {
    let a = num(&t.read_async(at.0, T_ACCT, key(at.0, at.1)).await?);
    t.write_async(at.0, T_ACCT, key(at.0, at.1), val(a + by))
        .await
}

/// Runs one op as a transaction on `w` and, if it commits, on `model`.
async fn apply_op(w: &mut Worker, op: &Op, model: &RefCell<HashMap<(usize, u64), u64>>) {
    match *op {
        Op::Transfer { from, to, amt } => {
            if from == to {
                return;
            }
            let r = w
                .run_async(async |t| {
                    let a = num(&t.read_async(from.0, T_ACCT, key(from.0, from.1)).await?);
                    let b = num(&t.read_async(to.0, T_ACCT, key(to.0, to.1)).await?);
                    if a < amt {
                        return Err(TxnError::UserAbort);
                    }
                    // Both writes rewrite records read earlier, and so
                    // take the reads' locations.
                    t.write_async(from.0, T_ACCT, key(from.0, from.1), val(a - amt))
                        .await?;
                    t.write_async(to.0, T_ACCT, key(to.0, to.1), val(b + amt))
                        .await
                })
                .await;
            match r {
                Ok(()) => {
                    let mut model = model.borrow_mut();
                    *model.get_mut(&from).unwrap() -= amt;
                    *model.get_mut(&to).unwrap() += amt;
                }
                Err(TxnError::UserAbort) => {}
                Err(e) => panic!("unexpected error {e:?}"),
            }
        }
        Op::Inc { at, by } => {
            if w.run_async(async |t| inc(t, at, by).await).await.is_ok() {
                *model.borrow_mut().get_mut(&at).unwrap() += by;
            }
        }
        Op::Insert { at, init } => {
            if model.borrow().contains_key(&at) {
                return;
            }
            w.run_async(async |t| {
                t.insert(at.0, T_ACCT, key(at.0, at.1), val(init));
                Ok(())
            })
            .await
            .unwrap();
            model.borrow_mut().insert(at, init);
        }
        Op::Delete { at } => {
            if !model.borrow().contains_key(&at) || at.1 < 100 {
                return;
            }
            w.run_async(async |t| {
                t.delete(at.0, T_ACCT, key(at.0, at.1));
                Ok(())
            })
            .await
            .unwrap();
            model.borrow_mut().remove(&at);
        }
    }
}

/// Applies a schedule through the engine and in parallel to a sequential
/// model; the final database state must match the model exactly.
/// `routines` routines of one pool on machine 0 deal the schedule out
/// round-robin and still apply it strictly in order — a routine spins
/// until its op's turn — so one sequential model serves every pool
/// size while the ops of a pool of several go through sibling
/// routines' shared location caches.
fn run_schedule(ops: Vec<Op>, replicas: usize, spurious: f64, routines: usize) {
    let c = bank(2048, 6, 100)
        .replicas(replicas)
        .htm_fails(spurious, 8)
        .build();
    let model: HashMap<_, _> = (0..3usize)
        .flat_map(|shard| (0..6u64).map(move |k| ((shard, k), 100u64)))
        .collect();

    let model = RefCell::new(model);
    let turn = Cell::new(0);
    let workers = (0..routines).map(|id| c.worker(0, 7 + id as u64)).collect();
    RoutinePool::run(workers, async |id, w| {
        for (i, op) in ops.iter().enumerate().skip(id).step_by(routines) {
            while turn.get() != i {
                w.clock.advance(200);
                w.spin_yield().await;
            }
            apply_op(w, op, &model).await;
            turn.set(i + 1);
        }
    });
    let model = model.into_inner();

    // Final state equals the model.
    for (&(shard, k), &want) in &model {
        assert_eq!(value(&c, shard, k), want, "account {shard}/{k}");
    }
    // Deleted accounts are gone.
    let mut auditor = auditor(&c);
    for shard in 0..3usize {
        for k in 100u64..104 {
            if !model.contains_key(&(shard, k)) {
                assert_eq!(
                    auditor
                        .run_ro(|t| t.read(shard, T_ACCT, key(shard, k)))
                        .err(),
                    Some(TxnError::NotFound)
                );
            }
        }
    }
}

/// Sequential model equivalence without replication.
#[test]
fn schedule_matches_model() {
    let mut rng = SplitMix64::new(0x5eed_0007);
    for _ in 0..24 {
        run_schedule(gen_schedule(&mut rng, 40), 1, 0.0, 1);
    }
}

/// The same with 3-way replication (exercises R.1/R.2 on every write).
#[test]
fn schedule_matches_model_replicated() {
    let mut rng = SplitMix64::new(0x5eed_0008);
    for _ in 0..24 {
        run_schedule(gen_schedule(&mut rng, 25), 3, 0.0, 1);
    }
}

/// The same through a pool of four routines on one shared set of
/// location caches: where one routine located, freed or re-inserted a
/// record is what the next op's routine looks up.
#[test]
fn schedule_matches_model_pooled() {
    let mut rng = SplitMix64::new(0x5eed_000b);
    for _ in 0..24 {
        run_schedule(gen_schedule(&mut rng, 40), 1, 0.0, 4);
    }
}

/// Replication *and* a flaky HTM: fallback-handler commits mix with
/// R.1/R.2 replication traffic.
#[test]
fn schedule_matches_model_replicated_flaky() {
    let mut rng = SplitMix64::new(0x5eed_000c);
    for _ in 0..12 {
        run_schedule(gen_schedule(&mut rng, 25), 3, 0.2, 1);
    }
}

/// The same with an unreliable HTM (forces fallback-handler commits
/// mixed with HTM commits).
#[test]
fn schedule_matches_model_with_flaky_htm() {
    let mut rng = SplitMix64::new(0x5eed_0009);
    for _ in 0..24 {
        run_schedule(gen_schedule(&mut rng, 25), 1, 0.3, 1);
    }
}

/// Runs 3 OS threads, each multiplexing `r` transaction routines through
/// a [`RoutinePool`], over a shared bank of accounts. Transfers move
/// money without creating it and increments are tracked per routine, so
/// serializability implies the audited grand total equals seeded +
/// committed increments — a stale read or lost write would break the
/// equality. With `inject`, every third one-sided verb is delayed by
/// 40 µs, so batches posted later can complete *earlier* than batches
/// posted first and the scheduler must wake routines out of posting
/// order.
fn routine_conservation_case(
    inject: bool,
    rs: &[usize],
    txns_per_routine: usize,
    contention: ContentionPolicy,
) {
    let mut seeds = SplitMix64::new(if inject { 0x5eed_000e } else { 0x5eed_000d });
    for &r in rs {
        let seed = seeds.below(1 << 20);
        let replicas = 1 + (r / 4).min(2);
        let c = bank(1024, 4, 1000)
            .replicas(replicas)
            .opts(|o| o.contention(contention))
            .build();
        if inject {
            let seen = AtomicU64::new(0);
            on_verb(&c, move |_, _, verb| {
                if verb == Verb::Send || !seen.fetch_add(1, Ordering::Relaxed).is_multiple_of(3) {
                    return Fault::NONE;
                }
                Fault {
                    delay_ns: 40_000,
                    ..Fault::NONE
                }
            });
        }
        let incs = threads(3, |node| {
            let workers = (0..r)
                .map(|i| c.worker(node, seed ^ (node * 8 + i) as u64))
                .collect();
            let done = RoutinePool::run(workers, async |id, w| {
                let mut rng = SplitMix64::new(seed.wrapping_mul(127) ^ ((node * 8 + id) as u64));
                let mut incs = 0u64;
                for _ in 0..txns_per_routine {
                    if rng.below(3) == 0 {
                        let at = (rng.below(3) as usize, rng.below(4));
                        let by = rng.range(1, 9);
                        if w.run_async(async |t| inc(t, at, by).await).await.is_ok() {
                            incs += by;
                        }
                        continue;
                    }
                    let from = (rng.below(3) as usize, rng.below(4));
                    let to = (rng.below(3) as usize, rng.below(4));
                    if from == to {
                        continue;
                    }
                    let _ = w
                        .run_async(async |t| {
                            let a = num(&t.read_async(from.0, T_ACCT, key(from.0, from.1)).await?);
                            let b = num(&t.read_async(to.0, T_ACCT, key(to.0, to.1)).await?);
                            if a < 3 {
                                return Err(TxnError::UserAbort);
                            }
                            // A repeated read is the first one's snapshot,
                            // whatever committed since.
                            let again = t.read_async(from.0, T_ACCT, key(from.0, from.1)).await?;
                            assert_eq!(num(&again), a, "repeatable read");
                            t.write_async(from.0, T_ACCT, key(from.0, from.1), val(a - 3))
                                .await?;
                            t.write_async(to.0, T_ACCT, key(to.0, to.1), val(b + 3))
                                .await
                        })
                        .await;
                }
                incs
            });
            done.into_iter().map(|(_, incs)| incs).sum::<u64>()
        });
        let inc_total: u64 = incs.iter().sum();
        assert_eq!(
            total(&c, 0..3, 0..4),
            3 * 4 * 1000 + inc_total,
            "r={r} inject={inject} seed={seed}"
        );
        let snap = crate::scrape_cluster(&c);
        assert_eq!(snap.pipeline.routines, r as u64, "pool size gauge");
    }
}

/// Multi-routine schedules (R ∈ {2, 4, 8}) conserve money and apply
/// every committed increment exactly once on a reliable fabric.
#[test]
fn multi_routine_schedules_conserve() {
    routine_conservation_case(false, &[2, 4, 8], 12, ContentionPolicy::Off);
}

/// The same under injected verb delays: completions arrive out of
/// posting order, so routines wake in a different order than they
/// yielded — serializability must not depend on wake order.
#[test]
fn multi_routine_schedules_conserve_under_delay() {
    routine_conservation_case(true, &[2, 4, 8], 12, ContentionPolicy::Off);
}

/// Thread-free scale: R ∈ {64, 256} routines multiplexed on the same 3
/// OS threads, still serializable on a reliable fabric. Fewer
/// transactions per routine keep the case fast; the point is the
/// scheduler handling hundreds of parked routines per reactor, not the
/// transaction volume.
#[test]
fn high_r_routine_schedules_conserve() {
    routine_conservation_case(false, &[64, 256], 3, ContentionPolicy::Off);
}

/// R ∈ {64, 256} with every-3rd-verb delay injection: at this
/// multiplexing depth most routines are parked at any instant and
/// delayed completions constantly reorder the wake queue. Conservation
/// failing here would mean a routine resumed against another routine's
/// in-flight state.
#[test]
fn high_r_routine_schedules_conserve_under_delay() {
    routine_conservation_case(true, &[64, 256], 3, ContentionPolicy::Off);
}

/// The escalation ladder (DESIGN.md §15) under the same conservation
/// audit, at R ∈ {8, 64}: 12 hot keys shared by up to 192 routines
/// guarantee rung 2 (pessimistic C.1) and rung 3 (park on a per-key
/// wait list, granted by the holder's unlock) both fire, so a
/// serializability hole in either rung — a forced lock leaking past an
/// abort, a granted waiter resuming against stale state — would break
/// the audited total.
#[test]
fn contended_routine_schedules_conserve_with_ladder() {
    routine_conservation_case(false, &[8, 64], 6, ContentionPolicy::Escalate);
}

/// `always-pessimistic` is rung 2 on every attempt — every C.1 spins
/// on busy locks instead of aborting. Conservation plus termination at
/// R = 8 shows the wait-mode lock path cannot deadlock the reactor:
/// spins are bounded (`SpinBudget`) and fall back to an abort, never a
/// blocked OS thread.
#[test]
fn always_pessimistic_schedules_conserve() {
    routine_conservation_case(false, &[8], 8, ContentionPolicy::AlwaysPessimistic);
}

/// Concurrent random transfers conserve the total for arbitrary seeds
/// and replica counts.
#[test]
fn concurrent_transfers_conserve() {
    let mut seeds = SplitMix64::new(0x5eed_000a);
    for case in 0..12u64 {
        let seed = seeds.below(1000);
        let replicas = 1 + (case % 3) as usize;
        let c = bank(1024, 4, 50).replicas(replicas).build();
        threads(3, |node| {
            let mut w = c.worker(node, seed ^ node as u64);
            let mut rng = SplitMix64::new(seed.wrapping_mul(31) + node as u64);
            for _ in 0..30 {
                let from = (rng.below(3) as usize, rng.below(4));
                let to = (rng.below(3) as usize, rng.below(4));
                if from == to {
                    continue;
                }
                let _ = w.run(|t| {
                    let a = num(&t.read(from.0, T_ACCT, key(from.0, from.1))?);
                    let b = num(&t.read(to.0, T_ACCT, key(to.0, to.1))?);
                    if a < 3 {
                        return Err(TxnError::UserAbort);
                    }
                    t.write(from.0, T_ACCT, key(from.0, from.1), val(a - 3))?;
                    t.write(to.0, T_ACCT, key(to.0, to.1), val(b + 3))
                });
            }
        });
        let total = total(&c, 0..3, 0..4);
        assert_eq!(total, 3 * 4 * 50, "seed={seed} replicas={replicas}");
    }
}

/// A second table, with fewer buckets, for the `read_many` cases.
const T2: u32 = 1;

/// Everything a read leaves behind that a later step can observe: the
/// remote and local read sets in order, and — over `universe` — what
/// the thread's location caches hold.
type ReadEffects = (
    Vec<(usize, u32, u64, usize, u64, u64, Vec<u8>)>,
    Vec<(u32, u64, usize, u64, u64, Vec<u8>)>,
    Vec<Option<(u64, u64)>>,
);

fn read_effects(t: &crate::TxnCtx<'_>, universe: &[(usize, u32, u64)]) -> ReadEffects {
    let remote = t.r_rs.iter().map(|e| {
        let value = e.value.clone();
        (
            e.node,
            e.table,
            e.key,
            e.rec_off,
            e.seq,
            e.incarnation,
            value,
        )
    });
    let local = t.l_rs.iter().map(|e| {
        let value = e.value.clone();
        (e.table, e.key, e.rec_off, e.seq, e.incarnation, value)
    });
    let mut caches = t.w.locations();
    let locations = universe
        .iter()
        .map(|&(n, tb, k)| caches[n].get(tb, k))
        .collect();
    (remote.collect(), local.collect(), locations)
}

/// `read_many(keys)` is the sequential reads of `keys`: on twin
/// clusters one worker runs the same prefix — an optional warm-up
/// transaction (cold vs warm location caches), own writes,
/// earlier reads — and then reads a random key list, through
/// `read_async` one key at a time on one twin and through one
/// `read_many_async` on the other. Values (or the error), both read
/// sets in order, the location caches and the commit outcome must be
/// equal; only the clock may differ — downwards, when every key is
/// found and no verb fails: in a read-write transaction the local
/// records fetched share one HTM region, which saves `htm_begin_ns +
/// htm_commit_ns` for each but one, and that is the whole saving when
/// every key is local (a third of the cases); a read-only transaction's
/// sequential reads extend one region just as the group does, so with
/// every key local the two spend the same. Keys are local, remote on two machines, in two
/// tables, repeated, own-written, already read, located, or missing; half
/// the cases drop every third or fourth READ, so batched READs come
/// back dropped or flushed and fall back to the per-key loop.
#[test]
fn read_many_is_the_sequential_reads() {
    let mut rng = SplitMix64::new(0x5eed_0010);
    // Few buckets, so that probe chains run past their first line.
    let schema = [TableSpec::hash(T_ACCT, 16, 16), TableSpec::hash(T2, 8, 16)];
    let universe: Vec<(usize, u32, u64)> = (0..3usize)
        .flat_map(|s| (0..6u64).map(move |k| (s, k)))
        .flat_map(|(s, k)| [(s, T_ACCT, key(s, k)), (s, T2, key(s, k))])
        .collect();
    for case in 0..96u64 {
        let drop_every = [0, 0, 3, 4][(case % 4) as usize];
        let read_only = rng.chance(0.3);
        let warm: Vec<usize> = (0..rng.below(13)).map(|_| rng.below(36) as usize).collect();
        let pick = |rng: &mut SplitMix64| {
            let (s, tb, k) = universe[rng.below(universe.len() as u64) as usize];
            // One key in twenty-five is missing from its table.
            (s, tb, if rng.chance(0.04) { k + 900 } else { k })
        };
        let written: Vec<_> = (0..rng.below(3)).map(|_| pick(&mut rng)).collect();
        let earlier: Vec<_> = (0..rng.below(3)).map(|_| pick(&mut rng)).collect();
        let mut keys: Vec<_> = (0..1 + rng.below(8)).map(|_| pick(&mut rng)).collect();
        // Repeats, own-written and already-read keys on purpose.
        for extra in [keys.first(), written.first(), earlier.first()].map(|k| k.copied()) {
            keys.extend(extra.filter(|_| rng.chance(0.5)));
        }
        let local_only = case % 3 == 2;
        if local_only {
            for (s, _, k) in &mut keys {
                (*s, *k) = (0, key(0, *k & 0xffff_ffff));
            }
        }
        let run = |batched: bool| {
            let c = setup(3)
                .opts(|o| o.region_size(2 << 20))
                .schema(&schema)
                .seed(0..0, 0..0, 0)
                .build();
            for &(s, tb, k) in &universe {
                c.seed_record(s, tb, k, &val(100 + k % 7));
            }
            // Drops every `drop_every`-th one-sided READ (0: none).
            let seen = AtomicU64::new(0);
            on_verb(&c, move |_, _, verb| {
                if drop_every == 0 || verb != Verb::Read {
                    return Fault::NONE;
                }
                drop_if(seen.fetch_add(1, Ordering::Relaxed) % drop_every == drop_every - 1)
            });
            let mut w = c.worker(0, 5);
            w.run_ro(|t| {
                for &i in &warm {
                    let (s, tb, k) = universe[i];
                    t.read(s, tb, k)?;
                }
                Ok(())
            })
            .unwrap();
            let mut t = if read_only { w.begin_ro() } else { w.begin() };
            for &(s, tb, k) in written.iter().filter(|_| !read_only) {
                // A missing key cannot be written; skip it on both twins.
                let _ = t.write(s, tb, k, val(7));
            }
            for &(s, tb, k) in &earlier {
                let _ = t.read(s, tb, k);
            }
            let (before, fetched) = (t.w.clock.now(), t.l_rs.len());
            let got = if batched {
                t.read_many(&keys)
            } else {
                keys.iter().map(|&(s, tb, k)| t.read(s, tb, k)).collect()
            };
            let spent = t.w.clock.now() - before;
            // Local records fetched (each 1 line: one region holds all).
            let fetched = (t.l_rs.len() - fetched) as u64;
            let cost = &t.w.cluster.opts.cost;
            let regions = if read_only {
                0
            } else {
                fetched.saturating_sub(1)
            };
            let saved = (cost.htm_begin_ns + cost.htm_commit_ns) * regions;
            let effects = read_effects(&t, &universe);
            let committed = got.as_ref().map_err(|&e| e).and_then(|_| t.commit());
            (got, effects, committed, spent, saved)
        };
        let (seq, seq_effects, seq_commit, seq_ns, _) = run(false);
        let (many, many_effects, many_commit, many_ns, saved) = run(true);
        let ctx = format!("case {case}: keys {keys:?} written {written:?} earlier {earlier:?}");
        assert_eq!(many, seq, "{ctx}");
        assert_eq!(many_effects, seq_effects, "{ctx}");
        assert_eq!(many_commit, seq_commit, "{ctx}");
        // (A failing key's successors were probed and read for nothing,
        // and a dropped WR flushes the batch behind it. With every key
        // local no verb runs, so drops change nothing.)
        if seq.is_ok() && local_only {
            assert_eq!(seq_ns - many_ns, saved, "{ctx}");
        } else if seq.is_ok() && drop_every == 0 {
            let at_least = many_ns + saved;
            assert!(seq_ns >= at_least, "{ctx}: {seq_ns} < {at_least}");
        }
    }
}
