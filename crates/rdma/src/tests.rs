//! Cross-cutting tests: RDMA/HTM coherence and torn-write semantics.

use std::sync::Arc;

use drtm_base::{SplitMix64, VClock};

use crate::{Cq, Fabric, PostedWr, WorkRequest};

fn fabric(n: usize) -> Arc<Fabric> {
    Fabric::builder().fresh_regions(n, 8192).build()
}

#[test]
fn rdma_write_bumps_line_versions_on_target() {
    let f = fabric(2);
    let qp = f.qp(0, 1);
    let mut clock = VClock::new();
    let before = f.port(1).region().line_version(2);
    qp.write(&mut clock, 128, &[9u8; 64]);
    assert!(f.port(1).region().line_version(2) > before);
}

#[test]
fn multi_line_write_is_not_atomic_across_lines() {
    // Figure 4 of the paper: an RDMA WRITE spanning lines updates each
    // line independently. We verify that the region's line versions move
    // independently, which is what lets a concurrent reader observe a
    // mixed-generation record (and why DrTM+R adds per-line versions).
    let f = fabric(2);
    let qp = f.qp(0, 1);
    let mut clock = VClock::new();
    qp.write(&mut clock, 0, &[1u8; 192]); // Lines 0..3 each bumped once.
    qp.write(&mut clock, 64, &[2u8; 64]); // Only line 1 bumped again.
    let r = f.port(1).region();
    assert_eq!(r.line_version(0), 2);
    assert_eq!(r.line_version(1), 4);
    assert_eq!(r.line_version(2), 2);
}

#[test]
fn rdma_cas_aborts_conflicting_htm_reader() {
    // The coherence property: a local HTM transaction that has read a
    // record's lock word is aborted when a remote RDMA CAS locks it.
    use drtm_htm::{AbortCode, HtmConfig, HtmTxn};
    let f = fabric(2);
    let qp = f.qp(0, 1);
    let cfg = HtmConfig::default();
    let target = f.port(1).region();

    let mut txn = HtmTxn::begin(target, &cfg);
    assert_eq!(txn.read_u64(0).unwrap(), 0, "lock word free");
    txn.write_u64(8, 1).unwrap();

    // Remote machine locks the record (offset 0 = lock word).
    let mut clock = VClock::new();
    assert!(qp.cas(&mut clock, 0, 0, 0xdead).is_ok());

    assert_eq!(txn.commit(), Err(AbortCode::Conflict));
}

#[test]
fn failed_rdma_cas_does_not_abort_htm_reader() {
    use drtm_htm::{HtmConfig, HtmTxn};
    let f = fabric(2);
    let qp = f.qp(0, 1);
    let cfg = HtmConfig::default();
    let target = f.port(1).region();
    target.store64_coherent(0, 77);

    let mut txn = HtmTxn::begin(target, &cfg);
    assert_eq!(txn.read_u64(0).unwrap(), 77);

    let mut clock = VClock::new();
    assert_eq!(qp.cas(&mut clock, 0, 0, 1), Err(77), "CAS fails");

    txn.commit()
        .expect("failed CAS wrote nothing, txn survives");
}

#[test]
fn htm_commit_aborts_on_concurrent_rdma_write() {
    use drtm_htm::{AbortCode, HtmConfig, HtmTxn};
    let f = fabric(2);
    let qp = f.qp(0, 1);
    let cfg = HtmConfig::default();
    let target = f.port(1).region();

    let mut txn = HtmTxn::begin(target, &cfg);
    let _ = txn.read_u64(64).unwrap();
    let mut clock = VClock::new();
    qp.write(&mut clock, 64, &[5u8; 8]);
    assert_eq!(txn.commit(), Err(AbortCode::Conflict));
}

#[test]
fn concurrent_cas_lock_is_mutual_exclusive() {
    // Two remote machines race to lock the same word with RDMA CAS;
    // exactly one must win each round.
    let f = fabric(3);
    let stop = Arc::new(std::sync::atomic::AtomicBool::new(false));
    let wins = Arc::new(drtm_base::Counter::new());
    let mut handles = Vec::new();
    for src in 0..2 {
        let f = f.clone();
        let stop = stop.clone();
        let wins = wins.clone();
        handles.push(std::thread::spawn(move || {
            let qp = f.qp(src, 2);
            let mut clock = VClock::new();
            let me = src as u64 + 1;
            while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                if qp.cas(&mut clock, 0, 0, me).is_ok() {
                    // Hold briefly, verify no one stole it, release.
                    assert_eq!(f.port(2).region().load64(0), me);
                    wins.inc();
                    assert_eq!(qp.cas(&mut clock, 0, me, 0), Ok(me));
                }
            }
        }));
    }
    std::thread::sleep(std::time::Duration::from_millis(50));
    stop.store(true, std::sync::atomic::Ordering::Relaxed);
    for h in handles {
        h.join().unwrap();
    }
    assert!(wins.get() > 0, "locks were acquired");
    assert_eq!(f.port(2).region().load64(0), 0, "lock released at the end");
}

/// READ returns exactly what WRITE stored, for randomized offsets and
/// lengths (quiescent fabric).
#[test]
fn read_after_write_roundtrip() {
    let mut rng = SplitMix64::new(0x5eed_0001);
    for _ in 0..32 {
        let off = rng.below(4096) as usize;
        let len = 1 + rng.below(511) as usize;
        if off + len > 8192 {
            continue;
        }
        let data: Vec<u8> = (0..len).map(|_| rng.next_u64() as u8).collect();
        let f = fabric(2);
        let qp = f.qp(0, 1);
        let mut clock = VClock::new();
        qp.write(&mut clock, off, &data);
        let mut buf = vec![0u8; data.len()];
        qp.read(&mut clock, off, &mut buf);
        assert_eq!(buf, data, "off={off} len={len}");
    }
}

/// Virtual time is monotone and every verb costs something.
#[test]
fn verbs_always_cost_time() {
    let mut rng = SplitMix64::new(0x5eed_0002);
    for _ in 0..32 {
        let n = 1 + rng.below(19) as usize;
        let f = fabric(2);
        let qp = f.qp(0, 1);
        let mut clock = VClock::new();
        let mut last = 0;
        for i in 0..n {
            match i % 3 {
                0 => {
                    qp.write(&mut clock, 0, &[0u8; 32]);
                }
                1 => {
                    let mut b = [0u8; 32];
                    qp.read(&mut clock, 0, &mut b);
                }
                _ => {
                    let _ = qp.fetch_add(&mut clock, 0, 1);
                }
            }
            assert!(clock.now() > last);
            last = clock.now();
        }
    }
}

#[test]
fn unsignalled_wr_is_claimed_but_sets_no_horizon() {
    let write = |signalled, raddr| PostedWr {
        cookie: 7,
        signalled,
        wr: WorkRequest::Write {
            raddr,
            data: vec![1u8; 8],
        },
    };
    let f = fabric(2);
    let cq = Cq::new();
    let mut clock = VClock::new();
    f.qp(0, 1)
        .doorbell_shared(&mut clock, &cq, vec![write(true, 0), write(false, 64)]);
    let horizon = cq.cookie_horizon(7).expect("one signalled WR");
    let wcs = cq.take_cookie(7);
    assert_eq!(wcs.len(), 2, "both completions are deposited");
    assert_eq!(horizon, wcs[0].done_ns, "only the signalled one counts");
    assert!(wcs[1].done_ns > horizon && wcs[1].result.is_ok());
    // All-unsignalled: nothing to sleep on, everything to claim.
    f.qp(0, 1)
        .doorbell_shared(&mut clock, &cq, vec![write(false, 128)]);
    assert_eq!(cq.cookie_horizon(7), None);
    assert_eq!(cq.take_cookie(7).len(), 1);
}
