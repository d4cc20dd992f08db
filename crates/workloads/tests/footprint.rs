//! A cluster's memory does not depend on the clusters built before it,
//! and a dropped cluster gives its memory back.
//!
//! Three build-load-drop cycles of a replicated SmallBank cluster in
//! one process (this binary's own). The resident set right after each
//! later build and load must be within 5 % of the first one's. Regions
//! that took their zeroed memory from the heap that a dropped cluster
//! freed (its regions, its backup images) would write zeros over every
//! page of it, so a later cluster would cost its whole regions however
//! few records they hold.
//!
//! After each drop the resident set must come back within 8 MiB of its
//! value before that cycle's build. The regions are mappings of their
//! own and go back at once, and so are the backup images' slab chunks
//! and indexes (`drtm_base::ZeroedBytes`), whatever thread loaded them.
//!
//! What a build and load adds to the resident set must be at most what
//! the cluster has written: each store's words up to its allocator's
//! high-water mark, rounded up to the 2 MiB extents that transparent
//! huge pages fault in whole, plus its line versions (one word per
//! 64-byte line, an eighth of the region's size; a load no longer
//! touches them), plus the pages the backup images' slots and indexes
//! touch (`BackupStore::footprint`), plus 8 MiB. A region whose every page were
//! made resident (`MAP_POPULATE`, or a `calloc` over recycled heap)
//! breaks it. Everything is measured in one test because `VmRSS`
//! covers the whole process.
//!
//! Linux only: it reads `VmRSS` from `/proc/self/status`.
#![cfg(target_os = "linux")]

use drtm_core::{DrtmCluster, EngineOpts};
use drtm_workloads::smallbank::{self, SbCfg};

/// The resident set of this process, in KiB.
fn vm_rss_kib() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    let line = status.lines().find(|l| l.starts_with("VmRSS:"));
    let kib = line.and_then(|l| l.split_whitespace().nth(1));
    kib.and_then(|n| n.parse().ok()).expect("a VmRSS line")
}

/// How far `VmRSS` after a drop may sit from its value before the
/// build, and how far past what a build and load wrote it may grow.
const RETAINED_KIB: u64 = 8 << 10;

/// The extent a transparent huge page makes resident at once.
const HUGE_PAGE: usize = 2 << 20;

/// The most a build and load of `cluster` may add to `VmRSS`, in KiB:
/// what its stores and backup images hold, plus 8 MiB.
fn written_kib(cluster: &DrtmCluster) -> u64 {
    let stores = cluster.stores.iter();
    let regions = stores.map(|s| s.alloc.used().next_multiple_of(HUGE_PAGE) + s.region.size() / 8);
    let bytes = regions.sum::<usize>() + cluster.backups.footprint().1;
    (bytes >> 10) as u64 + RETAINED_KIB
}

#[test]
fn later_builds_cost_what_the_first_did() {
    let cfg = SbCfg {
        nodes: 3,
        accounts: 100_000,
        ..Default::default()
    };
    let mut loaded = Vec::new();
    for cycle in 1..=3 {
        let before = vm_rss_kib();
        let opts = EngineOpts::builder()
            .replicas(3)
            .region_size(cfg.region_size())
            .build();
        let cluster = DrtmCluster::new(cfg.nodes, &cfg.schema(), opts);
        smallbank::load(&cluster, &cfg);
        let kib = vm_rss_kib();
        let (grew, bound) = (kib.saturating_sub(before), written_kib(&cluster));
        assert!(
            grew <= bound,
            "VmRSS grew {grew} KiB over build and load {cycle}, past the {bound} KiB \
             its stores and images wrote, plus slack"
        );
        loaded.push(kib);
        drop(cluster);
        let after = vm_rss_kib();
        assert!(
            after.abs_diff(before) <= RETAINED_KIB,
            "VmRSS after drop {cycle}: {after} KiB against {before} KiB before its build"
        );
    }
    let first = loaded[0] as f64;
    for (cycle, &kib) in loaded.iter().enumerate().skip(1) {
        let ratio = kib as f64 / first;
        assert!(
            (ratio - 1.0).abs() <= 0.05,
            "VmRSS after build {}: {kib} KiB, {ratio:.3}x the first build's {first} KiB \
             (all builds: {loaded:?})",
            cycle + 1,
        );
    }
}
