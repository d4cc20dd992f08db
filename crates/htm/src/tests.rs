//! Unit, concurrency, and property tests for the software RTM.

use std::collections::{BTreeMap, BTreeSet};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;

use drtm_base::cacheline::line_range;
use drtm_base::{MemoryRegion, SplitMix64};

use crate::{AbortCode, Htm, HtmConfig, HtmTxn, ReadSet, RunOutcome};

fn region() -> MemoryRegion {
    MemoryRegion::new(4096)
}

#[test]
fn read_own_writes() {
    let r = region();
    let cfg = HtmConfig::default();
    let mut t = HtmTxn::begin(&r, &cfg);
    t.write_u64(0, 42).unwrap();
    assert_eq!(t.read_u64(0).unwrap(), 42);
    // Not visible outside before commit (strong atomicity).
    assert_eq!(r.load64(0), 0);
    t.commit().unwrap();
    assert_eq!(r.load64(0), 42);
}

#[test]
fn partial_overlay_of_buffered_writes() {
    let r = region();
    r.write_bytes_raw(0, &[0xAA; 16]);
    let cfg = HtmConfig::default();
    let mut t = HtmTxn::begin(&r, &cfg);
    t.write_bytes(4, &[0xBB; 4]).unwrap();
    let mut buf = [0u8; 16];
    t.read_bytes(0, &mut buf).unwrap();
    assert_eq!(&buf[0..4], &[0xAA; 4]);
    assert_eq!(&buf[4..8], &[0xBB; 4]);
    assert_eq!(&buf[8..16], &[0xAA; 8]);
}

#[test]
fn conflicting_coherent_write_aborts_reader() {
    let r = region();
    let cfg = HtmConfig::default();
    let mut t = HtmTxn::begin(&r, &cfg);
    assert_eq!(t.read_u64(64).unwrap(), 0);
    // A non-transactional (e.g. RDMA) write to the tracked line...
    r.store64_coherent(64, 7);
    // ...kills the transaction: the next read observes the conflict,
    let mut b = [0u8; 8];
    assert_eq!(t.read_bytes(128, &mut b), Err(AbortCode::Conflict));
}

#[test]
fn conflicting_write_aborts_at_commit() {
    let r = region();
    let cfg = HtmConfig::default();
    let mut t = HtmTxn::begin(&r, &cfg);
    assert_eq!(t.read_u64(64).unwrap(), 0);
    t.write_u64(0, 1).unwrap();
    r.store64_coherent(64, 7);
    assert_eq!(t.commit(), Err(AbortCode::Conflict));
    // The write-set buffer must not have leaked.
    assert_eq!(r.load64(0), 0);
}

#[test]
fn false_sharing_conflicts() {
    // Two addresses in the same cache line conflict even though the bytes
    // are disjoint — RTM tracks whole lines.
    let r = region();
    let cfg = HtmConfig::default();
    let mut t = HtmTxn::begin(&r, &cfg);
    assert_eq!(t.read_u64(0).unwrap(), 0);
    r.store64_coherent(8, 9); // Same line, different word.
    let mut b = [0u8; 8];
    assert_eq!(t.read_bytes(256, &mut b), Err(AbortCode::Conflict));
}

#[test]
fn write_write_conflict_at_commit() {
    let r = region();
    let cfg = HtmConfig::default();
    let mut a = HtmTxn::begin(&r, &cfg);
    let mut b = HtmTxn::begin(&r, &cfg);
    a.write_u64(0, 1).unwrap();
    b.write_u64(8, 2).unwrap(); // Same line: false sharing.
    a.commit().unwrap();
    // B read nothing, but its write line's version moved only if B also
    // read it; a blind write still succeeds (last-writer-wins per line is
    // fine for blind writes, as on hardware where B would have aborted
    // earlier but the final state is equivalent).
    b.commit().unwrap();
    assert_eq!(r.load64(0), 1);
    assert_eq!(r.load64(8), 2);
}

#[test]
fn read_then_write_conflict_detected_via_acquisition() {
    let r = region();
    let cfg = HtmConfig::default();
    let mut a = HtmTxn::begin(&r, &cfg);
    assert_eq!(a.read_u64(0).unwrap(), 0);
    a.write_u64(0, 5).unwrap();
    // Concurrent writer commits to the same line first.
    r.store64_coherent(0, 99);
    assert_eq!(a.commit(), Err(AbortCode::Conflict));
    assert_eq!(r.load64(0), 99);
}

#[test]
fn capacity_abort_on_write_set() {
    let r = MemoryRegion::new(64 * 1024);
    let cfg = HtmConfig {
        max_write_lines: 4,
        ..Default::default()
    };
    let mut t = HtmTxn::begin(&r, &cfg);
    for i in 0..4 {
        t.write_u64(i * 64, 1).unwrap();
    }
    assert_eq!(t.write_u64(4 * 64, 1), Err(AbortCode::Capacity));
}

#[test]
fn capacity_abort_on_read_set() {
    let r = MemoryRegion::new(64 * 1024);
    let cfg = HtmConfig {
        max_read_lines: 4,
        ..Default::default()
    };
    let mut t = HtmTxn::begin(&r, &cfg);
    for i in 0..4 {
        t.read_u64(i * 64).unwrap();
    }
    let mut b = [0u8; 8];
    assert_eq!(t.read_bytes(4 * 64, &mut b), Err(AbortCode::Capacity));
}

#[test]
fn explicit_abort_propagates_through_run() {
    let htm = Htm::default();
    let r = region();
    let mut rng = SplitMix64::new(1);
    let out: RunOutcome<()> = htm.run(&r, &mut rng, |_| Err(AbortCode::Explicit(3)));
    assert!(matches!(out, RunOutcome::Fallback(AbortCode::Explicit(3))));
    assert_eq!(htm.stats.fallbacks.get(), 1);
    assert!(htm.stats.explicit_aborts.get() > 0);
}

#[test]
fn run_commits_and_counts() {
    let htm = Htm::default();
    let r = region();
    let mut rng = SplitMix64::new(2);
    let out = htm.run(&r, &mut rng, |t| {
        let v = t.read_u64(0)?;
        t.write_u64(0, v + 1)?;
        Ok(v)
    });
    assert!(matches!(
        out,
        RunOutcome::Committed {
            value: 0,
            retries: 0
        }
    ));
    assert_eq!(r.load64(0), 1);
    assert_eq!(htm.stats.commits.get(), 1);
}

#[test]
fn spurious_aborts_eventually_fall_back() {
    let htm = Htm::new(HtmConfig {
        spurious_abort_prob: 1.0,
        max_retries: 3,
        ..Default::default()
    });
    let r = region();
    let mut rng = SplitMix64::new(3);
    let out: RunOutcome<u64> = htm.run(&r, &mut rng, |t| t.read_u64(0));
    assert!(matches!(out, RunOutcome::Fallback(AbortCode::Spurious)));
    assert_eq!(htm.stats.spurious_aborts.get(), 4);
}

#[test]
fn concurrent_increments_are_atomic() {
    // N threads × M transactional increments must produce exactly N*M.
    let r = Arc::new(MemoryRegion::new(4096));
    let htm = Arc::new(Htm::new(HtmConfig {
        max_retries: 1000,
        ..Default::default()
    }));
    const THREADS: usize = 4;
    const INCS: usize = 500;
    let mut handles = Vec::new();
    for tid in 0..THREADS {
        let r = r.clone();
        let htm = htm.clone();
        handles.push(std::thread::spawn(move || {
            let mut rng = SplitMix64::new(tid as u64);
            let mut fallback_lock_needed = 0;
            for _ in 0..INCS {
                let out = htm.run(&r, &mut rng, |t| {
                    let v = t.read_u64(0)?;
                    t.write_u64(0, v + 1)?;
                    Ok(())
                });
                if matches!(out, RunOutcome::Fallback(_)) {
                    fallback_lock_needed += 1;
                }
            }
            fallback_lock_needed
        }));
    }
    let fallbacks: usize = handles.into_iter().map(|h| h.join().unwrap()).sum();
    assert_eq!(fallbacks, 0, "1000 retries should always succeed here");
    assert_eq!(r.load64(0), (THREADS * INCS) as u64);
}

#[test]
fn strong_atomicity_against_plain_writer() {
    // A plain coherent writer hammers line 1; transactions read line 1 and
    // write line 0. Any committed transaction's read must have been
    // stable, i.e. the value it copied is the value the version pinned.
    let r = Arc::new(MemoryRegion::new(4096));
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let r = r.clone();
        let stop = stop.clone();
        std::thread::spawn(move || {
            let mut v = 0u64;
            while !stop.load(Ordering::Relaxed) {
                v += 1;
                r.store64_coherent(64, v);
            }
        })
    };
    let htm = Htm::new(HtmConfig {
        max_retries: 10_000,
        ..Default::default()
    });
    let mut rng = SplitMix64::new(7);
    for _ in 0..300 {
        let out = htm.run(&r, &mut rng, |t| {
            let a = t.read_u64(64)?;
            let b = t.read_u64(64)?;
            // Within one transaction the value cannot change.
            assert_eq!(a, b);
            t.write_u64(0, a)?;
            Ok(a)
        });
        if let RunOutcome::Committed { value, .. } = out {
            // The committed snapshot must be *a* value the writer produced
            // (trivially true) and the write must equal it.
            assert_eq!(r.load64(0), value);
            // (A later transaction may overwrite line 0 — single reader
            // here, so no race on the assertion.)
        }
    }
    stop.store(true, Ordering::Relaxed);
    writer.join().unwrap();
}

/// Transfers between two accounts conserve the total under concurrency.
#[test]
fn concurrent_transfers_conserve_total() {
    let r = Arc::new(MemoryRegion::new(4096));
    r.write_bytes_raw(0, &500u64.to_le_bytes());
    r.write_bytes_raw(128, &500u64.to_le_bytes());
    let htm = Arc::new(Htm::new(HtmConfig {
        max_retries: 100_000,
        ..Default::default()
    }));
    let mut handles = Vec::new();
    for tid in 0..4u64 {
        let r = r.clone();
        let htm = htm.clone();
        handles.push(std::thread::spawn(move || {
            let mut rng = SplitMix64::new(tid);
            for _ in 0..400 {
                let amount = rng.range(1, 5);
                let dir = rng.chance(0.5);
                let (from, to) = if dir { (0, 128) } else { (128, 0) };
                let out = htm.run(&r, &mut rng, |t| {
                    let f = t.read_u64(from)?;
                    let g = t.read_u64(to)?;
                    if f < amount {
                        return Ok(()); // Insufficient funds: no-op.
                    }
                    t.write_u64(from, f - amount)?;
                    t.write_u64(to, g + amount)?;
                    Ok(())
                });
                assert!(matches!(out, RunOutcome::Committed { .. }));
            }
        }));
    }
    for h in handles {
        h.join().unwrap();
    }
    assert_eq!(r.load64(0) + r.load64(128), 1000);
}

/// A serial sequence of transactional writes then reads behaves like a
/// plain byte array (sequential model check, randomized schedules).
#[test]
fn serial_model_check() {
    let mut rng = SplitMix64::new(0x5eed_0003);
    for _ in 0..64 {
        let n = 1 + rng.below(59) as usize;
        let ops: Vec<(usize, u8)> = (0..n)
            .map(|_| (rng.below(1024) as usize, rng.next_u64() as u8))
            .collect();
        let r = MemoryRegion::new(2048);
        let cfg = HtmConfig::default();
        let mut model = vec![0u8; 2048];
        for (off, val) in &ops {
            let mut t = HtmTxn::begin(&r, &cfg);
            t.write_bytes(*off, &[*val]).unwrap();
            t.commit().unwrap();
            model[*off] = *val;
        }
        let mut t = HtmTxn::begin(&r, &cfg);
        for (off, _) in &ops {
            let mut b = [0u8; 1];
            t.read_bytes(*off, &mut b).unwrap();
            assert_eq!(b[0], model[*off]);
        }
        t.commit().unwrap();
    }
}

/// Multi-byte transactional writes commit atomically: a reader using
/// per-line coherent reads never sees a torn *line*.
#[test]
fn committed_writes_are_line_atomic() {
    let mut rng = SplitMix64::new(0x5eed_0004);
    for _ in 0..64 {
        let len = 1 + rng.below(199) as usize;
        let off = rng.below(64) as usize;
        let r = MemoryRegion::new(1024);
        let cfg = HtmConfig::default();
        let mut t = HtmTxn::begin(&r, &cfg);
        let data: Vec<u8> = (0..len).map(|i| (i % 251) as u8).collect();
        t.write_bytes(off, &data).unwrap();
        t.commit().unwrap();
        let mut out = vec![0u8; len];
        r.read_bytes_coherent(off, &mut out);
        assert_eq!(out, data, "len={len} off={off}");
    }
}

/// The write set as it was before it became line images: one map entry
/// per written byte, plus the set of lines written. The reference of
/// `write_set_matches_a_byte_map`.
struct ByteMapWrites {
    bytes: BTreeMap<usize, u8>,
    lines: BTreeSet<usize>,
    max_lines: usize,
}

impl ByteMapWrites {
    fn write(&mut self, off: usize, data: &[u8]) -> Result<(), AbortCode> {
        for line in line_range(off, data.len()) {
            if self.lines.insert(line) && self.lines.len() > self.max_lines {
                return Err(AbortCode::Capacity);
            }
        }
        for (i, &b) in data.iter().enumerate() {
            self.bytes.insert(off + i, b);
        }
        Ok(())
    }

    /// Reads `buf.len()` bytes at `off` of `region` with the buffered
    /// bytes laid over them.
    fn read(&self, region: &MemoryRegion, off: usize, buf: &mut [u8]) {
        region.read_bytes_raw(off, buf);
        for (&at, &b) in self.bytes.range(off..off + buf.len()) {
            buf[at - off] = b;
        }
    }

    fn commit(&self, region: &MemoryRegion) {
        for (&at, &b) in &self.bytes {
            region.write_bytes_coherent(at, &[b]);
        }
    }
}

/// The line-image write set against a byte map: twin regions of random
/// bytes take the same seeded writes and reads — 1 to 129 bytes at any
/// offset, so ranges straddle lines — under a write capacity of 1 to 12
/// lines. Every write returns the same result, every read the same
/// bytes, `write_lines` agrees after every operation, and the twins hold
/// the same bytes after each commit: a commit publishes exactly the
/// bytes written, never the rest of their lines.
#[test]
fn write_set_matches_a_byte_map() {
    const SIZE: usize = 24 * 64;
    let mut rng = SplitMix64::new(0x5eed_0005);
    let [a, b] = [MemoryRegion::new(SIZE), MemoryRegion::new(SIZE)];
    let init: Vec<u8> = (0..SIZE).map(|_| rng.next_u64() as u8).collect();
    a.write_bytes_raw(0, &init);
    b.write_bytes_raw(0, &init);
    let (mut commits, mut capacity) = (0u32, 0u32);
    for case in 0..20_000 {
        let cfg = HtmConfig {
            max_write_lines: 1 + rng.below(12) as usize,
            ..Default::default()
        };
        let mut txn = HtmTxn::begin(&a, &cfg);
        let mut model = ByteMapWrites {
            bytes: BTreeMap::new(),
            lines: BTreeSet::new(),
            max_lines: cfg.max_write_lines,
        };
        let mut alive = true;
        for op in 0..1 + rng.below(12) {
            let ctx = format!("case {case} op {op}");
            let len = 1 + rng.below(129) as usize;
            let off = rng.below((SIZE - len + 1) as u64) as usize;
            if rng.chance(0.5) {
                let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
                let got = txn.write_bytes(off, &data);
                assert_eq!(got, model.write(off, &data), "{ctx}: write {off}+{len}");
                alive = got.is_ok();
            } else {
                let (mut x, mut y) = (vec![0u8; len], vec![0u8; len]);
                assert_eq!(txn.read_bytes(off, &mut x), Ok(()), "{ctx}: read");
                model.read(&b, off, &mut y);
                assert_eq!(x, y, "{ctx}: read {off}+{len}");
            }
            if !alive {
                capacity += 1;
                break;
            }
            assert_eq!(txn.write_lines(), model.lines.len(), "{ctx}: write_lines");
        }
        if alive {
            assert_eq!(txn.commit(), Ok(()), "case {case}: commit");
            model.commit(&b);
            commits += 1;
        }
        let (mut x, mut y) = (vec![0u8; SIZE], vec![0u8; SIZE]);
        a.read_bytes_raw(0, &mut x);
        b.read_bytes_raw(0, &mut y);
        assert_eq!(x, y, "case {case}: bytes");
    }
    assert!(
        commits > 1_000 && capacity > 1_000,
        "both outcomes are exercised: {commits} commits, {capacity} capacity aborts"
    );
}

/// Reads that check only their own lines against reads that re-validate
/// everything: twin regions run the same seeded transactions — reads,
/// writes, commits — with coherent writes, CASes and stores injected
/// into both between operations. Every read returns the same bytes or
/// the same abort code, every write and commit the same outcome, and
/// the twins end every transaction with equal bytes and line versions.
/// The read set is small enough that capacity aborts happen too.
#[test]
fn linear_reads_match_validating_every_line() {
    const SIZE: usize = 16 * 64;
    let cfg = HtmConfig {
        max_read_lines: 6,
        max_write_lines: 4,
        ..Default::default()
    };
    let mut rng = SplitMix64::new(0x0417_0026);
    let [a, b] = [MemoryRegion::new(SIZE), MemoryRegion::new(SIZE)];
    let init: Vec<u8> = (0..SIZE).map(|_| rng.next_u64() as u8).collect();
    a.write_bytes_raw(0, &init);
    b.write_bytes_raw(0, &init);
    let mut outcomes = [0u32; 4]; // committed, read abort, write abort, commit abort
    for case in 0..2_000 {
        let mut fast = HtmTxn::begin(&a, &cfg);
        let mut slow = HtmTxn::begin(&b, &cfg);
        let mut alive = true;
        for op in 0..rng.below(12) {
            let ctx = format!("case {case} op {op}");
            let off = rng.below(SIZE as u64 - 1) as usize;
            let len = (1 + rng.below(100) as usize).min(SIZE - off);
            match rng.below(10) {
                0..=4 => {
                    let (mut x, mut y) = (vec![0u8; len], vec![0u8; len]);
                    let got = fast.read_bytes(off, &mut x).map(|()| x);
                    let want = slow.read_bytes_validating_all(off, &mut y).map(|()| y);
                    assert_eq!(got, want, "{ctx}: read {off}+{len}");
                    alive = got.is_ok();
                    outcomes[1] += u32::from(!alive);
                }
                5..=6 => {
                    let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
                    let got = fast.write_bytes(off, &data);
                    assert_eq!(got, slow.write_bytes(off, &data), "{ctx}: write");
                    alive = got.is_ok();
                    outcomes[2] += u32::from(!alive);
                }
                // Another writer — a peer's RDMA WRITE, CAS or a plain
                // store — publishes between two operations.
                7 => {
                    let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
                    a.write_bytes_coherent(off, &data);
                    b.write_bytes_coherent(off, &data);
                }
                8 => {
                    let word = off & !7;
                    let expect = a.load64(word) ^ rng.below(2);
                    assert_eq!(a.cas64(word, expect, 9), b.cas64(word, expect, 9));
                }
                _ => {
                    let word = off & !7;
                    a.store64_coherent(word, op);
                    b.store64_coherent(word, op);
                }
            }
            if !alive {
                break;
            }
        }
        if alive {
            let got = fast.commit();
            assert_eq!(got, slow.commit(), "case {case}: commit");
            outcomes[if got.is_ok() { 0 } else { 3 }] += 1;
        }
        let (mut x, mut y) = (vec![0u8; SIZE], vec![0u8; SIZE]);
        a.read_bytes_raw(0, &mut x);
        b.read_bytes_raw(0, &mut y);
        assert_eq!(x, y, "case {case}: bytes");
        let versions =
            |r: &MemoryRegion| -> Vec<u64> { (0..r.lines()).map(|l| r.line_version(l)).collect() };
        assert_eq!(versions(&a), versions(&b), "case {case}: versions");
    }
    assert!(
        outcomes.iter().all(|&n| n > 20),
        "every outcome is exercised: {outcomes:?}"
    );
}

/// Opacity survives the skipped re-validation: a write to a line the
/// transaction never read leaves it alive (the next read validates
/// everything once and moves on), and a write to a line it read —
/// however long ago, and whatever it reads next — aborts its next read.
#[test]
fn a_write_to_a_read_line_aborts_the_next_read() {
    let r = region();
    let cfg = HtmConfig::default();
    let mut t = HtmTxn::begin(&r, &cfg);
    for line in 0..4 {
        t.read_u64(line * 64).unwrap();
    }
    r.store64_coherent(10 * 64, 1); // unread line
    assert_eq!(t.read_u64(4 * 64), Ok(0));
    assert_eq!(t.read_u64(5 * 64), Ok(0));
    r.store64_coherent(64 + 8, 2); // line 1, read first of all
    let mut b = [0u8; 8];
    assert_eq!(t.read_bytes(6 * 64, &mut b), Err(AbortCode::Conflict));
}

/// A multi-line committer against a reader that reads the lines in the
/// other order: the writer keeps lines 0 and 5 equal in every commit
/// and publishes line 0 first; a reader that reads line 5, then line 0
/// must abort rather than return a newer line 0 beside an older line 5
/// (a write is counted before its new version is stored).
#[test]
fn reads_never_mix_two_commits_of_a_multi_line_writer() {
    let r = Arc::new(region());
    let stop = Arc::new(AtomicBool::new(false));
    let writer = {
        let (r, stop) = (Arc::clone(&r), Arc::clone(&stop));
        std::thread::spawn(move || {
            let cfg = HtmConfig::default();
            let mut v = 0u64;
            while !stop.load(Ordering::Relaxed) {
                v += 1;
                let mut t = HtmTxn::begin(&r, &cfg);
                t.write_u64(0, v).unwrap();
                t.write_u64(5 * 64, v).unwrap();
                let _ = t.commit();
            }
        })
    };
    let cfg = HtmConfig::default();
    let mut consistent = 0;
    for _ in 0..400_000 {
        let mut t = HtmTxn::begin(&r, &cfg);
        let Ok(high) = t.read_u64(5 * 64) else {
            continue;
        };
        if let Ok(low) = t.read_u64(0) {
            assert_eq!(low, high, "a read mixed two commits");
            consistent += 1;
        }
    }
    stop.store(true, Ordering::Relaxed);
    writer.join().unwrap();
    assert!(consistent > 0);
}

#[test]
fn region_residency_is_tracked_across_commit_and_abort() {
    let region = region();
    let cfg = HtmConfig::default();
    assert!(!crate::region_active());
    // Committed path: resident from begin to commit.
    let mut t = HtmTxn::begin(&region, &cfg);
    assert!(crate::region_active());
    t.write_u64(0, 7).unwrap();
    t.commit().unwrap();
    assert!(!crate::region_active(), "XEND leaves the region");
    // Abort path: dropping a doomed transaction also leaves the region.
    let mut t = HtmTxn::begin(&region, &cfg);
    let _ = t.read_u64(0).unwrap();
    assert!(crate::region_active());
    drop(t);
    assert!(!crate::region_active(), "abort leaves the region");
    // Htm::run never leaks residency past its return.
    let htm = Htm::default();
    let mut rng = SplitMix64::new(3);
    let out = htm.run(&region, &mut rng, |t| {
        assert!(crate::region_active());
        let v = t.read_u64(0)?;
        t.write_u64(0, v + 1)?;
        Ok(())
    });
    assert!(matches!(out, RunOutcome::Committed { .. }));
    assert!(!crate::region_active());
}

/// A resumed region keeps tracking the lines its read set came with: it
/// commits while none moved, and a write to one of them since the set's
/// commit aborts its next read, even of an untouched line.
#[test]
fn a_resumed_region_tracks_the_lines_it_resumed() {
    let r = region();
    let cfg = HtmConfig::default();
    let read_line = |set: ReadSet, off: usize| {
        let mut t = HtmTxn::resume(&r, &cfg, set);
        t.read_u64(off)?;
        t.commit_reads()
    };
    let mut t = HtmTxn::begin(&r, &cfg);
    t.read_u64(0).unwrap();
    let set = t.commit_reads().unwrap();
    assert!(
        !crate::region_active(),
        "a kept read set is not a live region"
    );
    let set = read_line(set, 64).unwrap();
    assert_eq!(set.lines(), 2);
    r.store64_coherent(64, 7);
    assert_eq!(
        read_line(set, 128).map(|s| s.lines()),
        Err(AbortCode::Conflict)
    );

    let mut t = HtmTxn::begin(&r, &cfg);
    t.read_u64(0).unwrap();
    r.store64_coherent(0, 1);
    assert_eq!(
        t.commit_reads().map(|s| s.lines()),
        Err(AbortCode::Conflict)
    );
}
