//! The five workloads: their shapes, their sizes, and one repetition
//! of each against the public API of the `drtm` facade.
//!
//! Sizes are fixed counts (so virtual metrics compare across commits),
//! stated at `REFERENCE_SECONDS` and scaled linearly by `--seconds`;
//! `--smoke` is nothing but a `--seconds` of 1% of the reference.

use std::sync::Arc;

use drtm::base::SplitMix64;
use drtm::core::{scrape_cluster, ContentionPolicy, DrtmCluster, EngineOpts, RoutePolicy};
use drtm::net::{Server, ServerCfg};
use drtm::workloads::audit::tpcc_audit;
use drtm::workloads::driver::{
    build_smallbank, build_tpcc, build_ycsb, run_smallbank_on, run_tpcc_on, run_ycsb_on,
    EngineKind, Measurement, RunCfg,
};
use drtm::workloads::smallbank::{self, SbCfg};
use drtm::workloads::tpcc::{self, TpccCfg};
use drtm::workloads::ycsb::{self, YcsbCfg, YcsbMix};

use drtm::net::proto::Msg;

use crate::loadgen::{gen_requests, poisson_due_ns, Client, PhaseOut};
use crate::spans::Recorder;

pub const NAMES: [&str; 5] = [
    "tpcc-local",
    "smallbank-repl",
    "ycsb-remote",
    "ycsb-hot",
    "serve-smallbank",
];

/// Measured repetitions per workload; every metric is their median.
pub const REPS: usize = 3;
/// Set-ups timed beside the repetitions' own, so `setup_s` is a median
/// of `REPS + EXTRA_SETUPS` samples: it is the shortest interval the
/// benchmark bounds, and the noisiest.
pub const EXTRA_SETUPS: usize = 4;
/// The `--seconds` the counts below are stated at (`run_seconds` in
/// `BENCHMARK.json`): three repetitions of 5–6 s on a 2-core host.
pub const REFERENCE_SECONDS: f64 = 15.0;
/// Size of the discarded warm-up, as a share of one repetition.
pub const WARMUP_SHARE: f64 = 0.05;

/// Transactions per worker per repetition at `REFERENCE_SECONDS`.
const TPCC_TXNS: usize = 36_000;
const SMALLBANK_TXNS: usize = 360_000;
const YCSB_REMOTE_TXNS: usize = 900_000;
const YCSB_HOT_TXNS: usize = 800_000;
/// Requests per phase per repetition at `REFERENCE_SECONDS`.
const SERVE_PACED_20K: usize = 48_000;
const SERVE_PACED_40K: usize = 48_000;
const SERVE_SATURATE: usize = 120_000;

/// The dataset a closed-loop workload runs on.
#[derive(Clone)]
pub enum Data {
    Tpcc(TpccCfg),
    Smallbank(SbCfg),
    Ycsb(YcsbCfg),
}

/// One workload at one size.
#[derive(Clone)]
pub enum Spec {
    /// Every worker sends its next transaction when the previous one
    /// completed, in process, through `workloads::driver`.
    Closed { data: Data, run: RunCfg },
    /// One TCP connection into an in-process `drtm::net::Server`:
    /// requests per phase (20 000/s, 40 000/s, saturation), taken from
    /// the front of `inputs`.
    Serve {
        counts: [usize; 3],
        inputs: Arc<ServeInputs>,
    },
}

/// Everything `serve-smallbank` sends, drawn from the seed before any
/// clock starts and shared by the warm-up and every repetition (they
/// run the same seed, so they send the same requests).
pub struct ServeInputs {
    /// One request list per phase, ids consecutive across the three.
    msgs: [Vec<Msg>; 3],
    /// Poisson due times of the two open-loop phases, ns from phase start.
    due_ns: [Vec<u64>; 2],
}

fn scaled(count: usize, scale: f64) -> usize {
    ((count as f64 * scale).round() as usize).max(1)
}

/// The workload called `name`, sized for `seconds` of measurement.
pub fn spec(name: &str, seed: u64, seconds: f64) -> Option<Spec> {
    let scale = seconds / REFERENCE_SECONDS;
    // Only the fields a paper figure reads are named; the rest are the
    // engine's defaults.
    let run = |replicas, routines, contention, txns| RunCfg {
        engine: EngineKind::DrtmR,
        threads: 1,
        replicas,
        txns_per_worker: scaled(txns, scale),
        seed,
        routines,
        contention,
        ..Default::default()
    };
    let ycsb = |theta, mix| YcsbCfg {
        nodes: 2,
        records: 100_000,
        theta,
        cross_prob: 0.6,
        mix,
        ..Default::default()
    };
    Some(match name {
        "tpcc-local" => Spec::Closed {
            data: Data::Tpcc(TpccCfg {
                nodes: 2,
                warehouses_per_node: 1,
                customers: 3_000,
                items: 100_000,
                ..Default::default()
            }),
            run: run(1, 1, ContentionPolicy::Off, TPCC_TXNS),
        },
        "smallbank-repl" => Spec::Closed {
            data: Data::Smallbank(SbCfg {
                nodes: 3,
                accounts: 100_000,
                cross_prob: 0.05,
                ..Default::default()
            }),
            run: run(3, 1, ContentionPolicy::Off, SMALLBANK_TXNS),
        },
        "ycsb-remote" => Spec::Closed {
            data: Data::Ycsb(ycsb(0.6, YcsbMix::B)),
            run: run(1, 8, ContentionPolicy::Off, YCSB_REMOTE_TXNS),
        },
        "ycsb-hot" => Spec::Closed {
            data: Data::Ycsb(ycsb(0.99, YcsbMix::A)),
            run: run(1, 8, ContentionPolicy::Escalate, YCSB_HOT_TXNS),
        },
        "serve-smallbank" => serve_spec(seed, seconds, true),
        _ => return None,
    })
}

/// `serve-smallbank` at `seconds`. `zero_sum` keeps the SmallBank subset
/// that conserves money; it is `false` only where `selftest` shows a
/// wrong expectation (the full mix conserves money) failing the run.
pub fn serve_spec(seed: u64, seconds: f64, zero_sum: bool) -> Spec {
    let scale = seconds / REFERENCE_SECONDS;
    let counts = [SERVE_PACED_20K, SERVE_PACED_40K, SERVE_SATURATE].map(|n| scaled(n, scale));
    let sb = SbCfg {
        nodes: SERVE_NODES,
        accounts: SERVE_ACCOUNTS,
        cross_prob: SERVE_CROSS,
        ..Default::default()
    };
    let mut rng = SplitMix64::new(seed);
    let mut first_id = 0u64;
    let msgs = counts.map(|n| {
        let m = gen_requests(&sb, &mut rng, first_id, n, zero_sum);
        first_id += n as u64;
        m
    });
    let due_ns = [
        poisson_due_ns(&mut rng, 20_000.0, counts[0]),
        poisson_due_ns(&mut rng, 40_000.0, counts[1]),
    ];
    Spec::Serve {
        counts,
        inputs: Arc::new(ServeInputs { msgs, due_ns }),
    }
}

impl Spec {
    /// The same workload at `share` of its size (the warm-up).
    pub fn shrunk(&self, share: f64) -> Spec {
        match self.clone() {
            Spec::Closed { data, mut run } => {
                run.txns_per_worker = scaled(run.txns_per_worker, share);
                Spec::Closed { data, run }
            }
            Spec::Serve { counts, inputs } => Spec::Serve {
                counts: counts.map(|n| scaled(n, share)),
                inputs,
            },
        }
    }

    /// Whether identical repetitions must commit identical counts: TPC-C
    /// user aborts are drawn from the seed, and with one routine per
    /// worker nothing else decides how many transactions commit.
    pub fn is_count_deterministic(&self) -> bool {
        matches!(self, Spec::Closed { data: Data::Tpcc(_), run } if run.routines == 1)
    }

    /// The counts of one repetition, as a JSON object for the stamp.
    pub fn sizes_json(&self) -> String {
        match self {
            Spec::Closed { data, run } => format!(
                "{{\"nodes\":{},\"threads\":{},\"routines\":{},\"replicas\":{},\
                 \"txns_per_worker\":{},\"contention\":\"{}\"}}",
                data.nodes(),
                run.threads,
                run.routines,
                run.replicas,
                run.txns_per_worker,
                run.contention.label(),
            ),
            Spec::Serve { counts, .. } => format!(
                "{{\"nodes\":{SERVE_NODES},\"accounts\":{SERVE_ACCOUNTS},\"paced_20k\":{},\
                 \"paced_40k\":{},\"saturate\":{}}}",
                counts[0], counts[1], counts[2]
            ),
        }
    }
}

impl Data {
    fn nodes(&self) -> usize {
        match self {
            Data::Tpcc(c) => c.nodes,
            Data::Smallbank(c) => c.nodes,
            Data::Ycsb(c) => c.nodes,
        }
    }

    /// Builds and loads the cluster the run uses.
    fn build(&self, run: &RunCfg) -> Arc<DrtmCluster> {
        match self {
            Data::Tpcc(c) => build_tpcc(c, run).0,
            Data::Smallbank(c) => build_smallbank(c, run).0,
            Data::Ycsb(c) => build_ycsb(c, run).0,
        }
    }

    fn run_on(&self, run: &RunCfg, cluster: &Arc<DrtmCluster>) -> Measurement {
        match self {
            Data::Tpcc(c) => run_tpcc_on(c, run, cluster, None),
            Data::Smallbank(c) => run_smallbank_on(c, run, cluster, None),
            Data::Ycsb(c) => run_ycsb_on(c, run, cluster, None),
        }
    }

    /// Builds a second, throwaway cluster of the same schema, region
    /// size and replication in two timed steps, which `build_*` does
    /// not expose: `core.build_s` (empty cluster) and
    /// `workloads.load_s` (data load).
    fn probe_build_load(
        &self,
        replicas: usize,
        txns_per_node: usize,
        rec: &mut Recorder,
    ) -> [(&'static str, f64); 2] {
        let (schema, region) = match self {
            Data::Tpcc(c) => (c.schema(), c.region_size(txns_per_node * 2)),
            Data::Smallbank(c) => (c.schema(), c.region_size()),
            Data::Ycsb(c) => (c.schema(), c.region_size()),
        };
        let opts = EngineOpts::builder()
            .replicas(replicas)
            .region_size(region)
            .build();
        let (cluster, build_s) =
            rec.span("build", |_| DrtmCluster::new(self.nodes(), &schema, opts));
        let ((), load_s) = rec.span("load", |_| match self {
            Data::Tpcc(c) => tpcc::load(&cluster, c),
            Data::Smallbank(c) => smallbank::load(&cluster, c),
            Data::Ycsb(c) => ycsb::load(&cluster, c),
        });
        [("core.build_s", build_s), ("workloads.load_s", load_s)]
    }
}

/// One correctness check and how it came out.
#[derive(Debug, Clone)]
pub struct Check {
    pub name: String,
    pub ok: bool,
    pub detail: String,
}

pub fn check(name: &str, ok: bool, detail: String) -> Check {
    Check {
        name: name.to_string(),
        ok,
        detail,
    }
}

/// What one repetition measured: every metric it can report, by name.
#[derive(Debug, Clone, Default)]
pub struct RepOut {
    pub metrics: Vec<(&'static str, f64)>,
    pub attempted: u64,
    pub committed: u64,
    pub failed: u64,
    pub checks: Vec<Check>,
}

impl RepOut {
    pub fn get(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| *n == name)
            .map(|(_, v)| *v)
    }
}

/// Runs one repetition in a fresh cluster (or server). With `probe`,
/// also times the build/load split on a throwaway cluster.
pub fn repetition(spec: &Spec, rec: &mut Recorder, probe: bool) -> RepOut {
    match spec {
        Spec::Closed { data, run } => closed_rep(data, run, rec, probe),
        Spec::Serve { counts, inputs } => serve_rep(*counts, inputs, rec, probe),
    }
}

/// Sets the workload up once more and tears it down unused: one more
/// sample of `setup_s`, in seconds.
pub fn setup_only(spec: &Spec) -> f64 {
    let t0 = std::time::Instant::now();
    match spec {
        Spec::Closed { data, run } => {
            let cluster = data.build(run);
            let s = t0.elapsed().as_secs_f64();
            drop(cluster);
            s
        }
        Spec::Serve { .. } => {
            let (server, client) = start_server();
            let s = t0.elapsed().as_secs_f64();
            client.close();
            server.shutdown();
            s
        }
    }
}

fn closed_rep(data: &Data, run: &RunCfg, rec: &mut Recorder, probe: bool) -> RepOut {
    let (cluster, setup_s) = rec.span("setup", |_| data.build(run));
    let (m, run_s) = rec.span("run", |_| data.run_on(run, &cluster));
    let (snap, _) = rec.span("scrape", |_| scrape_cluster(&cluster));

    let attempted = (data.nodes() * run.threads * run.txns_per_worker) as u64;
    let failed = attempted.saturating_sub(m.committed + snap.user_aborts);
    let failed_share = failed as f64 / attempted as f64;

    let mut out = RepOut {
        attempted,
        committed: m.committed,
        failed,
        ..Default::default()
    };
    rec.span("audit", |_| {
        out.checks.push(check(
            "driver and registry agree on commits",
            m.committed == snap.committed,
            format!("driver {} registry {}", m.committed, snap.committed),
        ));
        out.checks.push(check(
            "committed + user aborts + failed = attempted",
            m.committed + snap.user_aborts + failed == attempted && failed_share <= 0.001,
            format!(
                "{} + {} + {failed} vs {attempted}",
                m.committed, snap.user_aborts
            ),
        ));
        if let Data::Tpcc(cfg) = data {
            let violations = tpcc_audit(&cluster, cfg);
            out.checks.push(check(
                "tpcc_audit is empty",
                violations.is_empty(),
                format!("{} violations {:?}", violations.len(), violations.first()),
            ));
        }
        if matches!(data, Data::Ycsb(cfg) if cfg.read_mostly_tables().is_empty()) {
            out.checks.push(check(
                "value cache idle on a mix that is not read-mostly",
                snap.cache.hits + snap.cache.misses == 0,
                format!("{} hits {} misses", snap.cache.hits, snap.cache.misses),
            ));
        }
    });
    rec.span("teardown", |_| drop(cluster));

    out.metrics = vec![
        ("setup_s", setup_s),
        ("vtps", m.throughput),
        ("vlat_p50_us", snap.latency.p50 as f64 / 1e3),
        ("vlat_p99_us", snap.latency.p99 as f64 / 1e3),
        ("host_tps", m.committed as f64 / run_s),
        ("failed_share", failed_share),
    ];
    crate::layers::from_snapshot(&snap, &mut out.metrics);
    if let Some(no) = m.per_type.get("new-order") {
        out.metrics.extend([
            ("workloads.tpcc.new_order_vtps", no.tps),
            ("workloads.tpcc.new_order_p50_us", no.p50_us),
            ("workloads.tpcc.new_order_p99_us", no.p99_us),
        ]);
    }
    if probe {
        out.metrics.extend(data.probe_build_load(
            run.replicas,
            run.txns_per_worker * run.threads,
            rec,
        ));
    }
    out
}

const SERVE_NODES: usize = 2;
const SERVE_ACCOUNTS: usize = 10_000;
const SERVE_CROSS: f64 = 0.10;

/// Boots the in-process server and connects the one client.
fn start_server() -> (Server, Client) {
    let server = Server::start(ServerCfg {
        nodes: SERVE_NODES,
        accounts: SERVE_ACCOUNTS,
        routines: 4,
        high_water: 256,
        window: 64,
        route: RoutePolicy::Shared,
        sample_ms: 0,
        ..Default::default()
    })
    .expect("bind an ephemeral local port");
    let (client, nodes, accounts) =
        Client::connect(server.local_addr()).expect("connect to the in-process server");
    assert_eq!((nodes, accounts), (SERVE_NODES, SERVE_ACCOUNTS), "greeting");
    (server, client)
}

fn serve_rep(sizes: [usize; 3], inputs: &ServeInputs, rec: &mut Recorder, probe: bool) -> RepOut {
    let ((server, mut client), start_s) = rec.span("server.start", |_| start_server());
    let initial_total = server.initial_total();

    let mut phase = |span: &str, i: usize, rec: &mut Recorder| -> PhaseOut {
        let due = inputs.due_ns.get(i).map(|d| &d[..sizes[i]]);
        rec.span(span, |_| client.run_phase(&inputs.msgs[i][..sizes[i]], due))
            .0
            .unwrap_or_else(|e| panic!("{span}: {e}"))
    };
    let p20 = phase("client.paced20k", 0, rec);
    let p40 = phase("client.paced40k", 1, rec);
    let sat = phase("client.saturate", 2, rec);
    client.close();
    let (drained, drain_s) = rec.span("server.shutdown", |_| server.shutdown());
    let snap = &drained.snap;

    let phases = [&p20, &p40, &sat];
    let sum = |f: fn(&PhaseOut) -> u64| phases.iter().map(|p| f(p)).sum::<u64>();
    let (sent, replies) = (sum(|p| p.sent), sum(|p| p.replies));
    let (committed, aborted, rejected) = (
        sum(|p| p.committed),
        sum(|p| p.aborted),
        sum(|p| p.rejected),
    );
    let failed = rejected + aborted;

    let mut out = RepOut {
        attempted: sent,
        committed,
        failed,
        ..Default::default()
    };
    rec.span("audit", |_| {
        out.checks.push(check(
            "replies = sent",
            replies == sent && sent == sizes.iter().sum::<usize>() as u64,
            format!("{replies} replies, {sent} sent"),
        ));
        out.checks.push(check(
            "completed = accepted in the drain snapshot",
            snap.net.completed == snap.net.accepted
                && snap.net.accepted + snap.net.rejected == sent,
            format!(
                "completed {} accepted {} rejected {}",
                snap.net.completed, snap.net.accepted, snap.net.rejected
            ),
        ));
        out.checks.push(check(
            "client and registry agree on commits",
            committed == snap.committed,
            format!("client {committed} registry {}", snap.committed),
        ));
        let total = Server::audit_total(&drained.cluster, &drained.sb);
        out.checks.push(check(
            "audit_total = initial_total",
            total == initial_total,
            format!("{total} vs {initial_total}"),
        ));
    });

    out.metrics = vec![
        ("setup_s", start_s),
        (
            "vtps",
            snap.committed as f64 / (drained.virtual_ns.max(1) as f64 / 1e9),
        ),
        ("vlat_p50_us", snap.latency.p50 as f64 / 1e3),
        ("vlat_p99_us", snap.latency.p99 as f64 / 1e3),
        ("host_tps", sat.goodput()),
        ("lat_p50_us", p20.due_us(0.5)),
        ("failed_share", failed as f64 / sent as f64),
        ("net.start_s", start_s),
        ("net.drain_s", drain_s),
        (
            "net.queue_wait_p50_us",
            snap.net.queue_wait_ns.p50 as f64 / 1e3,
        ),
        (
            "net.queue_wait_p99_us",
            snap.net.queue_wait_ns.p99 as f64 / 1e3,
        ),
        ("net.rejected_share", rejected as f64 / sent as f64),
        ("net.lat_p99_us_20k", p20.due_us(0.99)),
        ("net.lat_p50_us_40k", p40.due_us(0.5)),
        ("net.lat_p99_us_40k", p40.due_us(0.99)),
        ("net.lat_from_send_p50_us_20k", p20.send_us(0.5)),
        ("net.sched_lag_p50_us", p20.lateness_us(0.5)),
        ("net.sched_lag_p99_us", p20.lateness_us(0.99)),
        ("net.vlat_p50_us", snap.latency.p50 as f64 / 1e3),
    ];
    crate::layers::from_snapshot(snap, &mut out.metrics);
    println!(
        "# serve-smallbank samples: 20k {} 40k {} saturate {} (goodput 20k {:.0}/s 40k {:.0}/s)",
        p20.from_due_ns.len(),
        p40.from_due_ns.len(),
        sat.from_due_ns.len(),
        p20.goodput(),
        p40.goodput(),
    );
    rec.span("teardown", |_| drop(drained));

    if probe {
        let data = Data::Smallbank(SbCfg {
            nodes: SERVE_NODES,
            accounts: SERVE_ACCOUNTS,
            ..Default::default()
        });
        out.metrics.extend(data.probe_build_load(1, 0, rec));
    }
    out
}
