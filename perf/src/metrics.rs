//! The metric tables: every name the benchmark prints, with its unit,
//! its clock, its direction and (end to end) its regression bound.
//!
//! `BENCHMARK.json` at the repo root lists the same names; `perf
//! selftest` fails when the two disagree.

/// Which way is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Better {
    Higher,
    Lower,
}

impl Better {
    pub fn label(self) -> &'static str {
        match self {
            Better::Higher => "higher",
            Better::Lower => "lower",
        }
    }
}

/// The clock a metric is read on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Clock {
    /// Modelled hardware time (`VClock`). A change meant only to speed
    /// the simulator must leave these unchanged.
    Virtual,
    /// Wall time of the simulator process.
    Host,
    /// Wall time seen by a TCP client of `drtm::net::Server`.
    Served,
    /// A count or ratio; no clock.
    None,
}

impl Clock {
    pub fn label(self) -> &'static str {
        match self {
            Clock::Virtual => "virtual",
            Clock::Host => "host",
            Clock::Served => "served",
            Clock::None => "-",
        }
    }
}

/// One end-to-end metric and the bound `perf compare` holds it to.
#[derive(Debug, Clone, Copy)]
pub struct E2e {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub better: Better,
    /// Share of the base median by which the metric may worsen before
    /// `perf compare` calls it worse. Compare works per workload and
    /// answers `unresolved` when a side's own spread exceeds the bound,
    /// so these can be as tight as the steadiest workload allows.
    pub rel: f64,
    /// Absolute allowance that applies when it exceeds the share.
    pub abs_floor: f64,
    /// The metric's `bound` under `end_to_end` in `BENCHMARK.json`, or
    /// `None` when it is listed under `per_layer` there instead. The
    /// driver's contract takes only metrics that every workload reports,
    /// that are never 0, and whose spread over ten seeds stays inside
    /// one bound shared by all workloads — so each bound is at least
    /// three times the widest quartile spread any workload showed
    /// (`serve-smallbank` on the virtual metrics, `ycsb-hot` on memory),
    /// and `host_tps`, whose spread on the 2-core sandbox reaches the
    /// contract's 25% cap, cannot be listed at all.
    pub contract_bound: Option<f64>,
}

pub const E2E: [E2e; 9] = [
    E2e {
        name: "setup_s",
        unit: "s",
        clock: Clock::Host,
        better: Better::Lower,
        rel: 0.20,
        abs_floor: 0.05,
        contract_bound: Some(0.25),
    },
    E2e {
        name: "vtps",
        unit: "1/s",
        clock: Clock::Virtual,
        better: Better::Higher,
        rel: 0.05,
        abs_floor: 0.0,
        contract_bound: Some(0.20),
    },
    E2e {
        name: "vlat_p50_us",
        unit: "us",
        clock: Clock::Virtual,
        better: Better::Lower,
        rel: 0.05,
        abs_floor: 0.0,
        contract_bound: Some(0.15),
    },
    E2e {
        name: "vlat_p99_us",
        unit: "us",
        clock: Clock::Virtual,
        better: Better::Lower,
        rel: 0.10,
        abs_floor: 0.0,
        contract_bound: Some(0.15),
    },
    E2e {
        name: "host_tps",
        unit: "1/s",
        clock: Clock::Host,
        better: Better::Higher,
        rel: 0.10,
        abs_floor: 0.0,
        contract_bound: None,
    },
    E2e {
        name: "lat_p50_us",
        unit: "us",
        clock: Clock::Served,
        better: Better::Lower,
        rel: 0.10,
        abs_floor: 0.0,
        contract_bound: None,
    },
    E2e {
        name: "failed_share",
        unit: "share",
        clock: Clock::None,
        better: Better::Lower,
        rel: 0.0,
        abs_floor: 0.001,
        contract_bound: None,
    },
    E2e {
        name: "peak_rss_mb",
        unit: "MB",
        clock: Clock::Host,
        better: Better::Lower,
        rel: 0.10,
        abs_floor: 0.0,
        contract_bound: Some(0.20),
    },
    E2e {
        name: "check_ok",
        unit: "bool",
        clock: Clock::None,
        better: Better::Higher,
        rel: 0.0,
        abs_floor: 0.0,
        contract_bound: None,
    },
];

/// One per-layer metric: no bound, read from the traced pass.
#[derive(Debug, Clone, Copy)]
pub struct Layer {
    pub name: &'static str,
    pub unit: &'static str,
    pub clock: Clock,
    pub better: Better,
}

const fn l(name: &'static str, unit: &'static str, clock: Clock, better: Better) -> Layer {
    Layer {
        name,
        unit,
        clock,
        better,
    }
}

use Better::{Higher as Hi, Lower as Lo};
use Clock::{Host as H, None as N, Served as S, Virtual as V};

/// Per-layer metrics, layer = crate name. `_vns` is virtual ns per
/// committed transaction, `_per_ktxn` per 1000 committed, `_ns`/`_us`
/// host time per call from the kernel pass. The four end-to-end
/// metrics the driver's contract cannot carry come first.
pub const LAYERS: [Layer; 84] = [
    l("host_tps", "1/s", H, Hi),
    l("lat_p50_us", "us", S, Lo),
    l("failed_share", "share", N, Lo),
    l("check_ok", "bool", N, Hi),
    // core
    l("core.phase.execute_vns", "ns", V, Lo),
    l("core.phase.lock_vns", "ns", V, Lo),
    l("core.phase.validate_vns", "ns", V, Lo),
    l("core.phase.htm_vns", "ns", V, Lo),
    l("core.phase.log_vns", "ns", V, Lo),
    l("core.phase.makeup_vns", "ns", V, Lo),
    l("core.phase.update_vns", "ns", V, Lo),
    l("core.phase.unlock_vns", "ns", V, Lo),
    l("core.aborts_per_commit", "ratio", N, Lo),
    l("core.abort.lock_busy_per_ktxn", "count", N, Lo),
    l("core.abort.validation_per_ktxn", "count", N, Lo),
    l("core.abort.local_lock_busy_per_ktxn", "count", N, Lo),
    l("core.abort.transport_per_ktxn", "count", N, Lo),
    l("core.abort.user_per_ktxn", "count", N, Lo),
    l("core.fallbacks_per_ktxn", "count", N, Lo),
    l("core.routine.hiding_ratio", "ratio", V, Hi),
    l("core.routine.avg_depth", "count", N, Hi),
    l("core.routine.wake_lag_ns", "ns", V, Lo),
    l("core.contention.pessimistic_per_ktxn", "count", N, Lo),
    l("core.contention.parks_per_ktxn", "count", N, Lo),
    l("core.contention.parked_p99_vns", "ns", V, Lo),
    l("core.build_s", "s", H, Lo),
    l("core.txn_local_rw_ns", "ns", H, Lo),
    l("core.txn_local_ro_ns", "ns", H, Lo),
    l("core.txn_remote_rw_ns", "ns", H, Lo),
    l("core.txn_repl_rw_ns", "ns", H, Lo),
    l("core.routine_r8_remote_ro_ns", "ns", H, Lo),
    // htm
    l("htm.abort.conflict_per_ktxn", "count", N, Lo),
    l("htm.abort.capacity_per_ktxn", "count", N, Lo),
    l("htm.abort.spurious_per_ktxn", "count", N, Lo),
    l("htm.fallback_per_ktxn", "count", N, Lo),
    l("htm.rmw1_ns", "ns", H, Lo),
    l("htm.rmw8_ns", "ns", H, Lo),
    l("htm.read200_ns", "ns", H, Lo),
    // rdma
    l("rdma.read_per_txn", "count", N, Lo),
    l("rdma.write_per_txn", "count", N, Lo),
    l("rdma.atomic_per_txn", "count", N, Lo),
    l("rdma.send_per_txn", "count", N, Lo),
    l("rdma.doorbells_per_txn", "count", N, Lo),
    l("rdma.wrs_per_doorbell", "ratio", N, Hi),
    l("rdma.saved_per_txn", "count", N, Hi),
    l("rdma.bytes_per_txn", "B", N, Lo),
    l("rdma.read64_ns", "ns", H, Lo),
    l("rdma.write64_ns", "ns", H, Lo),
    l("rdma.cas_ns", "ns", H, Lo),
    l("rdma.batch8_ns", "ns", H, Lo),
    // store
    l("store.cache_hit_rate", "ratio", N, Hi),
    l("store.cache_invalidations_per_ktxn", "count", N, Lo),
    l("store.cache_bytes_saved_per_txn", "B", N, Hi),
    l("store.hash_get_ns", "ns", H, Lo),
    l("store.hash_insert_ns", "ns", H, Lo),
    l("store.btree_get_ns", "ns", H, Lo),
    l("store.btree_insert_ns", "ns", H, Lo),
    l("store.btree_scan20_ns", "ns", H, Lo),
    l("store.remote_read100_ns", "ns", H, Lo),
    l("store.cache_get_put_ns", "ns", H, Lo),
    // cluster
    l("cluster.log_append_ns", "ns", H, Lo),
    // workloads
    l("workloads.load_s", "s", H, Lo),
    l("workloads.gen_tpcc_ns", "ns", H, Lo),
    l("workloads.gen_smallbank_ns", "ns", H, Lo),
    l("workloads.gen_ycsb_ns", "ns", H, Lo),
    l("workloads.tpcc.new_order_vtps", "1/s", V, Hi),
    l("workloads.tpcc.new_order_p50_us", "us", V, Lo),
    l("workloads.tpcc.new_order_p99_us", "us", V, Lo),
    // net
    l("net.start_s", "s", H, Lo),
    l("net.drain_s", "s", H, Lo),
    l("net.queue_wait_p50_us", "us", H, Lo),
    l("net.queue_wait_p99_us", "us", H, Lo),
    l("net.rejected_share", "share", N, Lo),
    l("net.lat_p99_us_20k", "us", S, Lo),
    l("net.lat_p50_us_40k", "us", S, Lo),
    l("net.lat_p99_us_40k", "us", S, Lo),
    l("net.lat_from_send_p50_us_20k", "us", S, Lo),
    l("net.sched_lag_p50_us", "us", H, Lo),
    l("net.sched_lag_p99_us", "us", H, Lo),
    l("net.vlat_p50_us", "us", V, Lo),
    l("net.proto_roundtrip_ns", "ns", H, Lo),
    // obs
    l("obs.scrape_us", "us", H, Lo),
    l("obs.render_json_us", "us", H, Lo),
    l("obs.trace_overhead_share", "share", H, Lo),
];

/// Unit and clock of any metric the harness prints.
pub fn describe(name: &str) -> (&'static str, Clock) {
    E2E.iter()
        .map(|m| (m.name, m.unit, m.clock))
        .chain(LAYERS.iter().map(|m| (m.name, m.unit, m.clock)))
        .find(|(n, ..)| *n == name)
        .map(|(_, unit, clock)| (unit, clock))
        .unwrap_or_else(|| panic!("metric `{name}` is not in the tables"))
}

pub fn unit_of(name: &str) -> &'static str {
    describe(name).0
}
