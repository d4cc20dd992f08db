//! TPC-C consistency conditions hold after running the standard mix on
//! every engine, through the public workload API.

use drtm::workloads::audit::tpcc_audit;
use drtm::workloads::driver::{build_tpcc, run_tpcc_on, EngineKind, RunCfg};
use drtm::workloads::tpcc::TpccCfg;

fn cfg(nodes: usize) -> TpccCfg {
    TpccCfg {
        nodes,
        warehouses_per_node: 1,
        customers: 24,
        items: 48,
        init_orders: 5,
        history_buckets: 1 << 12,
        ..Default::default()
    }
}

fn check(engine: EngineKind, nodes: usize, threads: usize, replicas: usize) {
    check_run(
        cfg(nodes),
        RunCfg {
            engine,
            threads,
            replicas,
            txns_per_worker: 40,
            ..Default::default()
        },
    );
}

fn check_run(cfg: TpccCfg, run: RunCfg) {
    let (cluster, calvin) = build_tpcc(&cfg, &run);
    let m = run_tpcc_on(&cfg, &run, &cluster, calvin.as_ref());
    let engine = run.engine;
    assert!(m.committed > 0, "{engine:?} committed nothing");
    let violations = tpcc_audit(&cluster, &cfg);
    assert!(violations.is_empty(), "{engine:?}: {violations:?}");
}

#[test]
fn drtm_r_distributed() {
    check(EngineKind::DrtmR, 2, 2, 1);
}

#[test]
fn drtm_r_replicated() {
    check(EngineKind::DrtmR, 3, 1, 3);
}

#[test]
fn drtm_baseline() {
    check(EngineKind::Drtm, 2, 1, 1);
}

/// DrTM with every new-order cross-warehouse: each one locks its remote
/// stock records through the commit walk's wait-mode C.1, and the two
/// slots of a machine wait on each other's locks.
#[test]
fn drtm_all_distributed_new_orders() {
    check_run(
        TpccCfg {
            cross_new_order: 1.0,
            ..cfg(2)
        },
        RunCfg {
            engine: EngineKind::Drtm,
            threads: 2,
            txns_per_worker: 40,
            ..Default::default()
        },
    );
}

#[test]
fn calvin_baseline() {
    check(EngineKind::Calvin, 2, 1, 1);
}

/// Eight routines per worker thread, whose transactions interleave at
/// every doorbell and share the thread's caches, still leave a
/// consistent database.
#[test]
fn drtm_r_routines() {
    check_run(
        cfg(2),
        RunCfg {
            threads: 2,
            txns_per_worker: 80,
            routines: 8,
            ..Default::default()
        },
    );
}

/// High-contention configuration (all threads in one warehouse) still
/// produces a consistent database.
#[test]
fn high_contention_stays_consistent() {
    check_run(
        cfg(1),
        RunCfg {
            engine: EngineKind::DrtmR,
            threads: 3,
            txns_per_worker: 40,
            ..Default::default()
        },
    );
}

/// 100% cross-warehouse new-orders (the Figure 17 extreme) stay
/// consistent.
#[test]
fn all_distributed_new_orders_stay_consistent() {
    check_run(
        TpccCfg {
            cross_new_order: 1.0,
            ..cfg(2)
        },
        RunCfg {
            engine: EngineKind::DrtmR,
            threads: 2,
            txns_per_worker: 30,
            ..Default::default()
        },
    );
}
