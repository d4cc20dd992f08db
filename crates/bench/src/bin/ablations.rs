//! Ablations for the design decisions DESIGN.md calls out:
//!
//! * the DrTM location cache (remote lookups become multi-READ probes
//!   without it);
//! * the IBV_ATOMIC_GLOB fused lock+validate CAS (§4.4 C.2), which
//!   saves one RDMA READ per remote read-set record — a WR in C.1's
//!   doorbell here (DESIGN.md §7), no longer a round trip of its own;
//! * the §6.4 pointer-swap local-record update (HTM write-set footprint
//!   and commit cost).

use drtm_bench::{fmt_tps, new_order_tps, run_cfg, tpcc_cfg, Scale};
use drtm_core::cluster::{DrtmCluster, EngineOpts};
use drtm_workloads::driver::{run_tpcc, run_tpcc_on, EngineKind, RunCfg};
use drtm_workloads::tpcc;

fn main() {
    let scale = Scale::from_env();
    let nodes = scale.pick(4, 2);
    let threads = scale.pick(4, 2);
    let cfg = tpcc_cfg(scale, nodes, threads);
    // Make remote traffic matter for the cache/fusion ablations.
    let base = RunCfg {
        cross_override: Some(0.5),
        ..run_cfg(scale, EngineKind::DrtmR, threads, 1)
    };

    println!("# Ablations (TPC-C, {nodes} machines x {threads} threads, 50% cross-warehouse)");
    let on = run_tpcc(&cfg, &base);
    println!("baseline:                 {}", fmt_tps(new_order_tps(&on)));

    let no_cache = run_tpcc(
        &cfg,
        &RunCfg {
            no_location_cache: true,
            ..base.clone()
        },
    );
    println!(
        "without location cache:   {}",
        fmt_tps(new_order_tps(&no_cache))
    );

    let fused = run_tpcc(
        &cfg,
        &RunCfg {
            fuse_lock_validate: true,
            ..base.clone()
        },
    );
    println!(
        "GLOB fused lock+validate: {}",
        fmt_tps(new_order_tps(&fused))
    );

    // FaRM-style messaging for locking: message round trips replace
    // one-sided CAS, and the lock-service interrupts abort the host's
    // HTM regions (the paper's argument for one-sided verbs, §4.4).
    let msg = run_tpcc(
        &cfg,
        &RunCfg {
            msg_locking: true,
            ..base.clone()
        },
    );
    println!("messaging-based locking:  {}", fmt_tps(new_order_tps(&msg)));

    // Pointer-swap: custom cluster with the optimisation disabled.
    let expected = base.txns_per_worker * base.threads * 2;
    let opts = EngineOpts::builder()
        .region_size(cfg.region_size(expected))
        .pointer_swap(false)
        .build();
    let cluster = DrtmCluster::new(cfg.nodes, &cfg.schema(), opts);
    tpcc::load(&cluster, &cfg);
    let no_swap = run_tpcc_on(&cfg, &base, &cluster, None);
    println!(
        "without pointer-swap:     {}",
        fmt_tps(new_order_tps(&no_swap))
    );
}
