//! The experiment table and its one driver.
//!
//! Every comparison the repo gates on — shell command, unit test and CI
//! job alike — is one [`Experiment`] entry in [`EXPERIMENTS`]: a name,
//! one configuration per arm spelled out as a `RunCfg` / `ServerCfg`,
//! and the checks that must hold over the measured arms. An entry's
//! `run` returns labelled [`Arm`]s whose metrics are filled by three
//! shared extractors ([`Arm::measured`] from a driver `Measurement`,
//! [`Arm::scraped`] from an obs `Snapshot`, [`Arm::served`] from a
//! `drtm-net` client report and drain). The driver
//! ([`Experiment::run_checked`] / [`Experiment::execute`]) alone
//! retries, evaluates the checks, renders the arms-by-metrics table and
//! writes the stamped JSON artifact, so adding an experiment is adding
//! a table entry and nothing else. The paper's figures and tables (§7)
//! are rows too — their arms are the x-axis points, their metrics the
//! series; the run functions live in [`crate::figures`].

use drtm_base::Cause;
use drtm_core::{scrape_cluster, ContentionPolicy, EngineOpts, RoutePolicy};
use drtm_net::{
    run_client, scrape, ClientCfg, ClientReport, Drained, ScrapeFormat, Server, ServerCfg,
    WireError,
};
use drtm_obs::{expo, json, Snapshot};
use drtm_workloads::driver::{self, build_tpcc, EngineKind, Measurement, RunCfg, Workload};
use drtm_workloads::smallbank::SbCfg;
use drtm_workloads::tpcc::{txns, TpccCfg};
use drtm_workloads::ycsb::{YcsbCfg, YcsbMix};

use crate::{figures, run_cfg, sb_cfg, stamp_json, tpcc_cfg, ycsb_cfg, Scale};

/// How much of an experiment to run.
#[derive(Debug, Clone, Copy)]
pub struct Size<'a> {
    /// Transactions per worker, or requests per arm.
    pub n: usize,
    /// Offered rates of a sweep entry, one arm each (`loadcurve`);
    /// empty for fixed-arm entries.
    pub rates: &'a [f64],
    /// The paper-scale shape (machines, threads, dataset) of a figure
    /// entry instead of its quick one; the A/B entries have one shape.
    pub full: bool,
}

impl Size<'_> {
    /// `n` at the quick shape, no rate sweep.
    pub const fn of(n: usize) -> Size<'static> {
        Size {
            n,
            rates: &[],
            full: false,
        }
    }

    /// The profile `full` selects.
    pub fn scale(&self) -> Scale {
        Scale { full: self.full }
    }

    /// A figure entry's run: `n` transactions per worker.
    pub fn run(&self, engine: EngineKind, threads: usize, replicas: usize) -> RunCfg {
        RunCfg {
            txns_per_worker: self.n,
            ..run_cfg(self.scale(), engine, threads, replicas)
        }
    }
}

/// One labelled configuration of an experiment and what it measured.
#[derive(Debug, Clone)]
pub struct Arm {
    /// Arm label (`off`, `r8`, `routed`, `1500/s`, ...).
    pub label: String,
    /// Measured `(metric, unit, value)`s, in report order. Names are
    /// workload-prefixed where an arm runs several; counts and flags
    /// are stored as floats too.
    pub metrics: Vec<(String, &'static str, f64)>,
}

impl Arm {
    /// An arm with no metrics yet.
    pub fn new(label: impl Into<String>) -> Self {
        Self {
            label: label.into(),
            metrics: Vec::new(),
        }
    }

    /// Appends one metric.
    pub fn push(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        self.metrics.push((name.into(), unit, value));
    }

    /// Extractor 1: the closed-loop driver's end-to-end numbers, and for
    /// TPC-C the new-order rate the paper plots.
    pub fn measured(&mut self, prefix: &str, m: &Measurement) {
        let attempts = (m.committed + m.aborted).max(1) as f64;
        self.push(format!("{prefix}committed"), "txn", m.committed as f64);
        self.push(format!("{prefix}vtps"), "txn/s", m.throughput);
        self.push(
            format!("{prefix}abort_pct"),
            "%",
            100.0 * m.aborted as f64 / attempts,
        );
        if let Some(t) = m.per_type.get("new-order") {
            self.push(format!("{prefix}new_order_vtps"), "txn/s", t.tps);
        }
    }

    /// Extractor 2: the layered numbers of an obs scrape, picked by
    /// name from the one catalogue in `snapshot_metric`.
    pub fn scraped(&mut self, prefix: &str, snap: &Snapshot, names: &[&str]) {
        for name in names {
            let (unit, value) = snapshot_metric(snap, name);
            self.push(format!("{prefix}{name}"), unit, value);
        }
    }

    /// Extractor 3: an open-loop client run against the serving tier,
    /// plus — when the server drained after this run — the drain's
    /// virtual-time horizon (over the server's whole life), how unevenly
    /// the serve pools' clocks ran (`pool_skew`), routing counters and
    /// conservation audit against the dataset's `initial` total.
    pub fn served(&mut self, offered: f64, r: &ClientReport, drain: Option<(&Drained, i64)>) {
        let us = |q: f64| r.latency.quantile(q) as f64 / 1e3;
        let shed_pct = 100.0 * r.rejected as f64 / r.sent.max(1) as f64;
        for (name, unit, value) in [
            ("offered", "req/s", offered),
            ("sent", "req", r.sent as f64),
            ("committed", "req", r.committed as f64),
            ("aborted", "req", r.aborted as f64),
            ("rejected", "req", r.rejected as f64),
            ("shed_pct", "%", shed_pct),
            ("goodput", "txn/s", r.goodput),
            ("p50_us", "us", us(0.5)),
            ("p99_us", "us", us(0.99)),
            ("p999_us", "us", us(0.999)),
        ] {
            self.push(name, unit, value);
        }
        let Some((d, initial)) = drain else { return };
        let conserved = Server::audit_total(&d.cluster, &d.sb) == initial;
        for (name, unit, value) in [
            ("virtual_us", "us", d.virtual_ns as f64 / 1e3),
            ("pool_skew", "ratio", d.pool_skew()),
            ("routed", "bool", f64::from(u8::from(d.snap.route.enabled))),
            ("local", "req", d.snap.route.local as f64),
            ("remote", "req", d.snap.route.remote as f64),
            ("steals", "req", d.snap.route.steals as f64),
            ("conserved", "bool", f64::from(u8::from(conserved))),
        ] {
            self.push(name, unit, value);
        }
    }
}

/// `arm["metric"]`: the metric's value, NaN when the arm never recorded
/// it — so a check comparing a missing metric fails instead of passing.
impl std::ops::Index<&str> for Arm {
    type Output = f64;
    fn index(&self, name: &str) -> &f64 {
        let found = self.metrics.iter().find(|m| m.0 == name);
        found.map_or(&f64::NAN, |m| &m.2)
    }
}

/// The catalogue behind [`Arm::scraped`]: every layered metric an
/// experiment can ask a scrape for. A recorded scalar is read straight
/// out of the exposition table under its JSON name — `<section>_<key>`
/// (`net_accepted`) or the bare key (`parks`), unit `ns` by its suffix
/// and `count` otherwise — so a new counter needs no line here; what is
/// spelled out below is only what this catalogue derives from several.
fn snapshot_metric(s: &Snapshot, name: &str) -> (&'static str, f64) {
    let per_txn = |x: u64| x as f64 / s.committed.max(1) as f64;
    // Virtual ns summed over the named phases, or over all of them.
    let phase_ns = |pick: &[&str]| -> f64 {
        let picked = s
            .phases
            .iter()
            .filter(|(n, _)| pick.is_empty() || pick.contains(n));
        picked.map(|(_, h)| h.sum as f64).sum()
    };
    let total = phase_ns(&[]).max(1.0);
    let verbs = |pick: fn(&str) -> bool| -> u64 {
        s.nic.iter().filter(|r| pick(r.verb)).map(|r| r.count).sum()
    };
    // `abort_<reason>_per_ktxn` / `htm_<class>_per_ktxn`: one label of a
    // counter family per 1 000 commits, as `perf/src/layers.rs` has it.
    let per_ktxn = |family: &[(&str, u64)], prefix: &str| {
        let label = name.strip_prefix(prefix)?.strip_suffix("_per_ktxn")?;
        let n = family.iter().find(|(l, _)| *l == label)?.1;
        Some(("count", 1e3 * per_txn(n)))
    };
    // `<phase>_pct`: one commit phase's share of all phase time;
    // `<phase>_p50_us` / `<phase>_p99_us`: its latency quantiles.
    let phase_stat = || {
        let (phase, stat) = name.split_once('_')?;
        let h = &s.phases.iter().find(|(n, _)| *n == phase)?.1;
        match stat {
            "pct" => Some(("%", 100.0 * h.sum as f64 / total)),
            "p50_us" => Some(("us", h.p50 as f64 / 1e3)),
            "p99_us" => Some(("us", h.p99 as f64 / 1e3)),
            _ => None,
        }
    };
    let from_table = || {
        let (_, _, v) = expo::scalars(s).find(|&(section, key, _)| {
            name == key || name.strip_prefix(section).and_then(|k| k.strip_prefix('_')) == Some(key)
        })?;
        Some((if name.ends_with("_ns") { "ns" } else { "count" }, v))
    };
    match name {
        "us_per_txn" => ("us", total / s.committed.max(1) as f64 / 1e3),
        // C.1 + C.2 + C.5 + C.6: the phases that ring one doorbell per
        // destination machine.
        "fanout_pct" => (
            "%",
            100.0 * phase_ns(&["lock", "validate", "update", "unlock"]) / total,
        ),
        "verbs_per_doorbell" => (
            "ratio",
            verbs(|v| v != "doorbell") as f64 / verbs(|v| v == "doorbell").max(1) as f64,
        ),
        "nic_bytes_per_txn" => ("B", per_txn(s.nic_bytes.iter().map(|(_, b)| b).sum())),
        "reads_per_txn" => ("verb", per_txn(verbs(|v| v == "read"))),
        "doorbells_per_txn" => ("doorbell", per_txn(verbs(|v| v == "doorbell"))),
        "hiding_pct" => ("%", 100.0 * s.pipeline.hiding_ratio()),
        // Verb wait no sibling's CPU segment overlapped: core idle.
        "idle_ns_per_txn" => (
            "ns",
            per_txn(s.pipeline.wait_ns.saturating_sub(s.pipeline.overlap_ns)),
        ),
        other => per_ktxn(&s.aborts, "abort_")
            .or_else(|| per_ktxn(&s.htm, "htm_"))
            .or_else(phase_stat)
            .or_else(from_table)
            .unwrap_or_else(|| panic!("unknown snapshot metric {other:?}")),
    }
}

/// A named predicate over an experiment's arms: what must hold (as
/// printed in reports and artifacts), the runs the driver may spend on
/// it — `1` for a single-shot gate, `3` where the outcome rides host
/// timing (`route`'s TCP arrivals) or a floor that fails exactly waits
/// to be re-based — and the predicate itself, given the run's size and arms
/// in order.
pub type Check = (&'static str, u32, fn(Size, &[Arm]) -> bool);

/// One row of the experiment table.
pub struct Experiment {
    /// Command name (`drtm-shell <name>`), artifact key and CI matrix
    /// entry.
    pub name: &'static str,
    /// One line: the arms and what they are compared on.
    pub about: &'static str,
    /// The size when none is given; `rates` is non-empty exactly for
    /// sweep entries.
    pub default: Size<'static>,
    /// Measures every arm.
    pub run: fn(Size) -> Result<Vec<Arm>, String>,
    /// The checks shell, tests and CI all gate on.
    pub checks: &'static [Check],
}

/// Looks an experiment up by its command name.
pub fn find(name: &str) -> Option<&'static Experiment> {
    EXPERIMENTS.iter().find(|e| e.name == name)
}

/// One help line per table entry, for `drtm-shell help`.
pub fn help() -> String {
    let mut out = String::from(
        "experiments: <name> [size] [full] [rates r1,r2,...] [json FILE] [gate]\n\
         \x20 fresh clusters per arm; `full` runs a figure at the paper's scale,\n\
         \x20 `json FILE` writes the stamped artifact, a trailing `gate` turns a\n\
         \x20 failed check into an error\n",
    );
    for e in EXPERIMENTS {
        out += &format!("  {:<10} {:>5}  {}\n", e.name, e.default.n, e.about);
    }
    out.pop();
    out
}

/// A finished experiment: the reported run's arms and check outcomes.
pub struct Report {
    /// Name of the table entry that ran (`sweep` for the free-form
    /// grid-point program).
    pub name: &'static str,
    /// What its arms are compared on.
    pub about: &'static str,
    /// Transactions per worker, or requests per arm, it ran at.
    pub size: usize,
    /// Whether it ran the paper-scale shape.
    pub full: bool,
    /// The reported run's arms.
    pub arms: Vec<Arm>,
    /// Each check of the entry and whether it held, in table order.
    pub checks: Vec<(&'static Check, bool)>,
}

/// `last / first` of one metric across the arms — the A/B ratio.
pub fn ratio(arms: &[Arm], metric: &str) -> f64 {
    match (arms.first(), arms.last()) {
        (Some(a), Some(b)) => b[metric] / a[metric],
        _ => f64::NAN,
    }
}

/// Decimals a report shows `v` with: none for whole numbers and
/// thousands, `places` for the rest.
fn decimals(v: f64, places: usize) -> usize {
    if v.fract() == 0.0 || v.abs() >= 1_000.0 {
        0
    } else {
        places
    }
}

impl Report {
    /// Names of the checks that did not hold.
    pub fn failed(&self) -> Vec<&'static str> {
        let failed = self.checks.iter().filter(|(_, ok)| !ok);
        failed.map(|(c, _)| c.0).collect()
    }

    /// The one text form of an experiment: arms as columns, metrics as
    /// rows, the last-over-first ratio, then one line per check.
    pub fn render(&self) -> String {
        let mut rows: Vec<(&str, &str)> = Vec::new();
        for (name, unit, _) in self.arms.iter().flat_map(|a| &a.metrics) {
            if !rows.iter().any(|(n, _)| n == name) {
                rows.push((name, unit));
            }
        }
        let full = if self.full { ", full" } else { "" };
        let mut out = format!("{}: {} (size {}{full})\n", self.name, self.about, self.size);
        let w = self.arms.iter().map(|a| a.label.len()).fold(11, usize::max);
        out += &format!("  {:<34}", "metric");
        for a in &self.arms {
            out += &format!(" {:>w$}", a.label);
        }
        out += &format!(" {:>10}\n", "last/first");
        for (name, unit) in rows {
            out += &format!("  {:<34}", format!("{name} ({unit})"));
            for a in &self.arms {
                let v = Some(a[name]).filter(|v| v.is_finite());
                let v = v.map_or("-".into(), |v| format!("{v:.*}", decimals(v, 2)));
                out += &format!(" {v:>w$}");
            }
            let r = ratio(&self.arms, name);
            let r = if r.is_finite() {
                format!("{r:.2}x")
            } else {
                "-".into()
            };
            out += &format!(" {r:>10}\n");
        }
        for ((name, tries, _), ok) in &self.checks {
            let verdict = if *ok { "ok" } else { "FAIL" };
            out += &format!("  [{verdict}] {name}");
            if *tries > 1 {
                out += &format!(" (best of {tries})");
            }
            out.push('\n');
        }
        out.pop();
        out
    }

    /// The one JSON form of an experiment, around the shared `stamp`
    /// object: `stamp`, `experiment`, `size`, `full`, `arms[]`,
    /// `checks[]`.
    pub fn to_json(&self, stamp: &str) -> String {
        // `lead` is punctuation and a literal key; `v` becomes a string.
        let text = |out: &mut String, lead: &str, v: &str| {
            out.push_str(lead);
            json::string(out, v);
        };
        let mut out = format!("{{\"stamp\":{stamp}");
        text(&mut out, ",\"experiment\":", self.name);
        out += &format!(",\"size\":{},\"full\":{},\n\"arms\":", self.size, self.full);
        json::list(&mut out, "[]", &self.arms, |out, a| {
            text(out, "\n{\"label\":", &a.label);
            out.push_str(",\"metrics\":");
            json::list(out, "[]", &a.metrics, |out, (name, unit, value)| {
                text(out, "{\"name\":", name);
                text(out, ",\"unit\":", unit);
                out.push_str(",\"value\":");
                json::number(out, *value, decimals(*value, 4));
                out.push('}');
            });
            out.push('}');
        });
        out.push_str(",\n\"checks\":");
        json::list(
            &mut out,
            "[]",
            &self.checks,
            |out, ((name, tries, _), ok)| {
                text(out, "\n{\"name\":", name);
                *out += &format!(",\"tries\":{tries},\"ok\":{ok}}}");
            },
        );
        out.push_str("}\n");
        out
    }
}

impl Experiment {
    /// Runs the entry and evaluates its checks. A run is accepted when
    /// every check holds; otherwise the whole experiment is re-run
    /// while some failing check still has tries left, and the last run
    /// is reported.
    pub fn run_checked(&'static self, size: Size) -> Result<Report, String> {
        let size = Size {
            n: size.n.max(1),
            ..size
        };
        let mut runs = 0;
        loop {
            runs += 1;
            let arms = (self.run)(size)?;
            let held = |c: &'static Check| (c, (c.2)(size, &arms));
            let checks: Vec<_> = self.checks.iter().map(held).collect();
            if !checks.iter().any(|(c, ok)| !ok && c.1 > runs) {
                return Ok(Report {
                    name: self.name,
                    about: self.about,
                    size: size.n,
                    full: size.full,
                    arms,
                    checks,
                });
            }
        }
    }

    /// The whole command: run, render, optionally write the stamped
    /// artifact to `out`, and — with `gate` — fail when a check did.
    pub fn execute(
        &'static self,
        size: Size,
        out: Option<&str>,
        gate: bool,
    ) -> Result<String, String> {
        let name = self.name;
        let report = self.run_checked(size)?;
        let mut text = report.render();
        if let Some(path) = out {
            let json = report.to_json(&stamp_json(None));
            drtm_obs::jsonlint::validate(&json)
                .map_err(|e| format!("internal error: {name} artifact is not valid JSON: {e}"))?;
            std::fs::write(path, &json).map_err(|e| format!("cannot write {path}: {e}"))?;
            text += &format!("\n  wrote {path} ({} bytes)", json.len());
        }
        let failed = report.failed();
        if gate && !failed.is_empty() {
            return Err(format!(
                "{text}\n{name}: gate failed: {}",
                failed.join("; ")
            ));
        }
        Ok(text)
    }
}

// ---- shared arm runners ------------------------------------------------

/// One closed-loop run of `wl` on a fresh cluster whose engine options
/// `tweak` adjusts, recorded under `prefix`: the driver's end-to-end
/// numbers plus the named scrape metrics.
pub fn closed_arm<W: Workload>(
    arm: &mut Arm,
    prefix: &str,
    wl: &W,
    run: &RunCfg,
    tweak: impl FnOnce(&mut EngineOpts),
    scraped: &[&str],
) -> Measurement {
    let (cluster, m) = driver::run(wl, run, tweak);
    arm.measured(prefix, &m);
    arm.scraped(prefix, &scrape_cluster(&cluster), scraped);
    m
}

/// Boots a fresh loopback front-end, drives one client run at it,
/// drains, and reports both halves.
fn served_arm(label: &str, server: ServerCfg, client: ClientCfg) -> Result<Arm, String> {
    let server = Server::start(server).map_err(|e| format!("{label}: bind failed: {e}"))?;
    let (initial, rate) = (server.initial_total(), client.rate);
    let report = run_client(&ClientCfg {
        addr: server.local_addr().to_string(),
        ..client
    });
    let drained = server.shutdown();
    let report = report.map_err(|e| format!("{label}: client failed: {e}"))?;
    let mut arm = Arm::new(label);
    arm.served(rate, &report, Some((&drained, initial)));
    // This server's whole life was this one run, so committed over its
    // virtual horizon is the run's virtual-time throughput.
    let virtual_s = drained.virtual_ns.max(1) as f64 / 1e9;
    arm.push("vtps", "txn/s", report.committed as f64 / virtual_s);
    Ok(arm)
}

/// The serving tier every loopback experiment boots: 2 engine
/// machines, 2 routines each, 200 accounts.
fn server_cfg(high_water: usize) -> ServerCfg {
    ServerCfg {
        nodes: 2,
        accounts: 200,
        replicas: 1,
        routines: 2,
        high_water,
        window: 2_048,
        ..Default::default()
    }
}

/// A zero-sum SmallBank client over 4 connections (the server can
/// audit conservation after it).
fn client_cfg(rate: f64, requests: usize, seed: u64, cross_prob: f64, skew: f64) -> ClientCfg {
    ClientCfg {
        addr: String::new(),
        rate,
        requests,
        seed,
        conns: 4,
        zero_sum: true,
        cross_prob,
        shard_skew: skew,
    }
}

const QUICK: Scale = Scale { full: false };

/// Cross-node-heavy closed-loop run shape shared by `pipeline`,
/// `reactor` and `contend`: 2 machines x 2 worker threads.
fn two_by_two(txns: usize, routines: usize, contention: ContentionPolicy) -> RunCfg {
    RunCfg {
        threads: 2,
        txns_per_worker: txns,
        routines,
        contention,
        ..Default::default()
    }
}

// ---- the entries' run functions ----------------------------------------

/// TPC-C new-order only, one worker on 3 machines, `n` transactions
/// per arm: where a transaction's virtual time goes per protocol step,
/// local vs fully distributed, with and without 3-way replication.
fn run_breakdown(size: Size) -> Result<Vec<Arm>, String> {
    const CASES: [(&str, f64, usize); 4] = [
        ("local-r1", 0.01, 1),
        ("cross-r1", 1.0, 1),
        ("local-r3", 0.01, 3),
        ("cross-r3", 1.0, 3),
    ];
    let arms = CASES.iter().map(|&(label, cross, replicas)| {
        let cfg = TpccCfg {
            cross_new_order: cross,
            ..tpcc_cfg(QUICK, 3, 1)
        };
        let run = run_cfg(QUICK, EngineKind::DrtmR, 1, replicas);
        let (cluster, _) = build_tpcc(&cfg, &run);
        let mut w = cluster.worker(0, 7);
        let mut rng = drtm_base::SplitMix64::new(11);
        for i in 0..size.n {
            let inp = txns::gen_new_order(&cfg, &mut rng, 0, cfg.cross_new_order);
            let _ = drtm_base::task::block_now(
                w.run_async(async |t| txns::new_order(t, &cfg, &inp, i as u64).await),
            );
        }
        // Fold the logs as a worker loop's truncation steps would.
        for node in 0..cfg.nodes {
            cluster.truncate_step(node);
        }
        let mut arm = Arm::new(label);
        let scraped = [
            "us_per_txn",
            "execute_pct",
            "lock_pct",
            "validate_pct",
            "htm_pct",
            "log_pct",
            "makeup_pct",
            "update_pct",
            "unlock_pct",
            "fanout_pct",
            "verbs_per_doorbell",
        ];
        arm.scraped("", &scrape_cluster(&cluster), &scraped);
        arm
    });
    Ok(arms.collect())
}

/// `routines` in-flight transactions per worker slot over the figure
/// harnesses' YCSB-B and (for `pipeline`) SmallBank, both 60%
/// cross-machine.
fn routines_arm(txns: usize, routines: usize, with_smallbank: bool) -> Arm {
    let run = two_by_two(txns, routines, ContentionPolicy::Off);
    let mut arm = Arm::new(format!("r{routines}"));
    // The last two are the trade the reactor's doorbell timing makes
    // (DESIGN.md §14): ringing sooner costs doorbells and buys idle.
    let scraped = [
        "overlap_ns",
        "hiding_pct",
        "doorbells_per_txn",
        "idle_ns_per_txn",
    ];
    // Idle as a share of the core time a committed transaction costs:
    // one simulated core per worker slot, `slots / vtps` seconds each.
    let idle_share = |arm: &mut Arm, prefix: &str, nodes: usize| {
        let core_ns = (nodes * run.threads) as f64 * 1e9 / arm[&format!("{prefix}vtps")];
        let idle_pct = 100.0 * arm[&format!("{prefix}idle_ns_per_txn")] / core_ns;
        arm.push(format!("{prefix}idle_pct"), "%", idle_pct);
    };
    let ycsb = ycsb_cfg(QUICK, 2, 0.6);
    closed_arm(&mut arm, "ycsb_", &ycsb, &run, |_| {}, &scraped);
    idle_share(&mut arm, "ycsb_", ycsb.nodes);
    if with_smallbank {
        let sb = sb_cfg(QUICK, 2, 0.6);
        closed_arm(&mut arm, "sb_", &sb, &run, |_| {}, &scraped);
        idle_share(&mut arm, "sb_", sb.nodes);
    }
    arm
}

fn run_pipeline(size: Size) -> Result<Vec<Arm>, String> {
    Ok([1, 8].map(|r| routines_arm(size.n, r, true)).into())
}

/// Routines are reactor-polled futures (DESIGN.md §14): the OS thread
/// count is the same at R=256 as at R=8, so the gain is pure latency
/// hiding.
fn run_reactor(size: Size) -> Result<Vec<Arm>, String> {
    Ok([8, 256].map(|r| routines_arm(size.n, r, false)).into())
}

/// Two hot-key workloads under each policy. YCSB is mix F
/// (read-modify-write), 99%-zipfian over 32 records: every op both
/// reads and locks its row, so an abort throws away a remote round
/// trip — the waste the ladder exists to avoid (A's blind writes
/// re-execute nearly for free). SmallBank is 16 accounts with 95% of
/// accesses in the hot quarter, so send-payment convoys form.
fn run_contend(size: Size) -> Result<Vec<Arm>, String> {
    let ycsb = YcsbCfg {
        nodes: 2,
        records: 32,
        theta: 0.99,
        cross_prob: 0.6,
        mix: YcsbMix::F,
        ..Default::default()
    };
    let sb = SbCfg {
        nodes: 2,
        accounts: 16,
        hot_fraction: 0.25,
        hot_prob: 0.95,
        cross_prob: 0.4,
    };
    let arms = [ContentionPolicy::Off, ContentionPolicy::Escalate].map(|policy| {
        let run = two_by_two(size.n, 8, policy);
        let mut arm = Arm::new(policy.label());
        // The last two are informational: the rates the ladder moves.
        let scraped = [
            "pessimistic",
            "parks",
            "grants",
            "abort_lock_busy_per_ktxn",
            "htm_conflict_per_ktxn",
        ];
        closed_arm(&mut arm, "ycsb_", &ycsb, &run, |_| {}, &scraped);
        closed_arm(&mut arm, "sb_", &sb, &run, |_| {}, &scraped);
        arm
    });
    Ok(arms.into())
}

/// The same request count paced under capacity and as one burst far
/// past a 16-deep admission queue.
fn run_serve(size: Size) -> Result<Vec<Arm>, String> {
    let client = |rate| client_cfg(rate, size.n, 0xAB, 0.2, 0.0);
    Ok(vec![
        served_arm("paced", server_cfg(16), client(500.0))?,
        served_arm("burst", server_cfg(16), client(0.0))?,
    ])
}

/// A single-home-heavy (5% cross-shard) burst, mildly skewed toward
/// one home shard so the routed arm's steal path engages. High-water
/// sits above the burst: the A/B compares commit locality, not
/// shedding.
fn run_route(size: Size) -> Result<Vec<Arm>, String> {
    let requests = size.n;
    let arm = |label, route| {
        let server = ServerCfg {
            route,
            ..server_cfg(requests.max(16))
        };
        served_arm(label, server, client_cfg(0.0, requests, 0x60, 0.05, 0.3))
    };
    Ok(vec![
        arm("shared", RoutePolicy::Shared)?,
        arm("routed", RoutePolicy::Routed)?,
    ])
}

/// Pulls one integer counter out of a live stats-JSON scrape's
/// `"net":{...}` section.
fn live_net_counter(json: &str, key: &str) -> f64 {
    json.split("\"net\":{")
        .nth(1)
        .and_then(|net| net.split(&format!("\"{key}\":")).nth(1))
        .and_then(|t| {
            let digits: String = t.chars().take_while(char::is_ascii_digit).collect();
            digits.parse().ok()
        })
        .unwrap_or(f64::NAN)
}

/// One server for the whole sweep: each grid point (ascending) is an
/// open-loop client run followed by a live `StatsRequest` scrape of
/// the still-running server, so the artifact also exercises the live
/// telemetry path. The server drains once, after the last point, and
/// that arm carries the drain's audit.
fn run_loadcurve(size: Size) -> Result<Vec<Arm>, String> {
    let mut rates = size.rates.to_vec();
    rates.sort_by(f64::total_cmp);
    let server =
        Server::start(server_cfg(64)).map_err(|e| format!("loadcurve: bind failed: {e}"))?;
    let initial = server.initial_total();
    let addr = server.local_addr().to_string();
    let point = |(i, &rate): (usize, &f64)| {
        let client = client_cfg(rate, size.n, 0xAB + i as u64, 0.2, 0.0);
        let report = run_client(&ClientCfg {
            addr: addr.clone(),
            ..client
        })?;
        Ok((rate, report, scrape(&addr, ScrapeFormat::Json)?))
    };
    let points: Result<Vec<_>, WireError> = rates.iter().enumerate().map(point).collect();
    let drained = server.shutdown();
    let points = points.map_err(|e| format!("loadcurve: point failed: {e}"))?;
    let last = points.len().saturating_sub(1);
    let arms = points.iter().enumerate().map(|(i, (rate, report, live))| {
        let live = String::from_utf8_lossy(live);
        let mut arm = Arm::new(format!("{rate:.0}/s"));
        arm.served(*rate, report, (i == last).then_some((&drained, initial)));
        for key in ["accepted", "completed"] {
            arm.push(format!("live_{key}"), "req", live_net_counter(&live, key));
        }
        arm
    });
    Ok(arms.collect())
}

/// Every committed transaction of SmallBank and TPC-C on DrTM+R through
/// the history checker (DESIGN.md "The history checker"): one worker a
/// machine, one routine or eight, unreplicated on 2 machines and 3-way
/// replicated on 3. Both workloads are contended on purpose — a hot
/// quarter of 64 accounts a machine, half the payments and a tenth of
/// the new-orders across machines — so the histories interleave.
fn run_history(size: Size) -> Result<Vec<Arm>, String> {
    let arms = [(1, 1), (8, 1), (1, 3), (8, 3)].map(|(routines, replicas)| {
        let nodes = replicas.max(2);
        let run = RunCfg {
            threads: 1,
            replicas,
            txns_per_worker: size.n,
            routines,
            ..Default::default()
        };
        let sb = SbCfg {
            nodes,
            accounts: 64,
            hot_fraction: 0.25,
            cross_prob: 0.5,
            ..Default::default()
        };
        let tpcc = TpccCfg {
            cross_new_order: 0.1,
            ..tpcc_cfg(QUICK, nodes, 1)
        };
        let label = match replicas {
            1 => format!("r{routines}"),
            _ => format!("r{routines}-x{replicas}"),
        };
        let mut arm = Arm::new(label);
        checked_arm(&mut arm, "sb_", &sb, &run);
        checked_arm(&mut arm, "tpcc_", &tpcc, &run);
        arm
    });
    Ok(arms.into())
}

/// One closed-loop run of `wl` on a fresh cluster that records its
/// history, recorded under `prefix`: the driver's end-to-end numbers,
/// then the checker's verdict (`acyclic`; a violation is printed to
/// stderr) and the graph's size.
fn checked_arm<W: Workload>(arm: &mut Arm, prefix: &str, wl: &W, run: &RunCfg) {
    let (cluster, _) = driver::build(wl, run, |_| {});
    let history = cluster.record_history();
    let m = driver::run_on(wl, run, &cluster, None);
    arm.measured(prefix, &m);
    let checked = history.check();
    if let Err(v) = &checked {
        eprintln!("history {} {prefix}(seed {}): {v}", arm.label, run.seed);
    }
    let graph = checked.as_ref().ok().copied().unwrap_or_default();
    for (name, value) in [
        ("acyclic", f64::from(u8::from(checked.is_ok()))),
        ("recorded", history.len() as f64),
        ("ww", graph.ww as f64),
        ("wr", graph.wr as f64),
        ("rw", graph.rw as f64),
        ("rt", graph.rt as f64),
        ("wr_cross", graph.wr_cross as f64),
        ("rw_cross", graph.rw_cross as f64),
    ] {
        let unit = if name == "acyclic" { "bool" } else { "count" };
        arm.push(format!("{prefix}{name}"), unit, value);
    }
}

/// Where a committed transaction's virtual time goes, by cause
/// (DESIGN.md "The time ledger"): fig10's one-machine TPC-C point on
/// each engine, and SmallBank 3-way replicated on DrTM+R at 8 threads a
/// machine, where the paper's NIC saturates — so R.1's log flush and
/// the NIC budget's backlog show.
fn run_causes(size: Size) -> Result<Vec<Arm>, String> {
    let scale = size.scale();
    let threads = scale.pick(8, 2);
    let tpcc = tpcc_cfg(scale, 1, threads);
    let mut arms: Vec<Arm> = [
        ("drtm+r", EngineKind::DrtmR),
        ("drtm", EngineKind::Drtm),
        ("calvin", EngineKind::Calvin),
    ]
    .into_iter()
    .map(|(label, engine)| {
        let (_, m) = driver::run(&tpcc, &size.run(engine, threads, 1), |_| {});
        ledger_arm(label, &m)
    })
    .collect();
    let sb = sb_cfg(scale, 3, 0.01);
    let (_, m) = driver::run(&sb, &size.run(EngineKind::DrtmR, 8, 3), |_| {});
    arms.push(ledger_arm("sb-drtm+r=3", &m));
    Ok(arms)
}

/// An arm of `m`'s end-to-end numbers, then its workers' virtual time
/// per committed transaction: in all, and by cause.
fn ledger_arm(label: &str, m: &Measurement) -> Arm {
    let mut arm = Arm::new(label);
    arm.measured("", m);
    let per_txn = |ns: u64| ns as f64 / m.committed.max(1) as f64;
    arm.push("total", "ns", per_txn(m.spent.total()));
    for cause in Cause::ALL {
        arm.push(cause.name(), "ns", per_txn(m.spent.get(cause)));
    }
    arm
}

// ---- the table ---------------------------------------------------------

/// `true` when `metric` never decreases from one arm to the next.
fn ascending(arms: &[Arm], metric: &str) -> bool {
    arms.windows(2).all(|w| w[0][metric] <= w[1][metric])
}

/// The failed machine was recovered once, through its own lease, and
/// the restart audit found the money conserved and no lock held.
fn recovered_once(arm: &Arm) -> bool {
    arm["recoveries"] == 1.0 && arm["audit_ok"] == 1.0
}

/// Suspicion lands within a heartbeat (a fifth of the lease) of a
/// lease after the crash: the dead machine's last renewal came at most
/// a heartbeat before it, and the detector looks on every action of
/// the loop and, once the survivors are done, on every heartbeat.
fn waited_out_lease(arm: &Arm) -> bool {
    let (detect, lease) = (arm["detect_ms"], arm["lease_ms"]);
    (detect - lease).abs() <= lease / 5.0
}

/// A `breakdown` phase share as microseconds per transaction.
fn phase_us(arm: &Arm, phase_pct: &str) -> f64 {
    arm[phase_pct] / 100.0 * arm["us_per_txn"]
}

/// Every experiment the shell, the tests and CI run.
pub static EXPERIMENTS: &[Experiment] = &[
    Experiment {
        name: "breakdown",
        about: "TPC-C new-order commit-phase shares: local / 100% cross x R=1 / R=3",
        default: Size::of(300),
        run: run_breakdown,
        checks: &[
            (
                "unreplicated arms spend nothing in R.1/R.2, replicated arms do",
                1,
                |_, a| {
                    let repl = |arm: &Arm| arm["log_pct"] + arm["makeup_pct"];
                    repl(&a[0]) == 0.0
                        && repl(&a[1]) == 0.0
                        && repl(&a[2]) > 0.0
                        && repl(&a[3]) > 0.0
                },
            ),
            (
                "fully distributed new-orders cost more virtual time than local ones",
                1,
                |_, a| {
                    a[1]["us_per_txn"] > a[0]["us_per_txn"]
                        && a[3]["us_per_txn"] > a[2]["us_per_txn"]
                },
            ),
            (
                "C.6 rings only where C.5 could not carry it: unlock_pct < 0.05 local; with two written machines two unsignalled doorbells and no wait, unlock < 2 x 250 ns + 10% per txn",
                1,
                |_, a| {
                    let unlock_us = |i: usize| phase_us(&a[i], "unlock_pct");
                    a[0]["unlock_pct"].max(a[2]["unlock_pct"]) < 0.05
                        && unlock_us(1).max(unlock_us(3)) < 0.55
                },
            ),
            (
                "one park per phase: 100%-cross new-orders cost >= 1.5x fewer us than with per-record reads and per-machine C.1/C.5 (cross-r1 40.48 -> <= 26.99, cross-r3 46.13 -> <= 30.75), execute and lock both shorter than cross-r1's 27.0 / 5.66 us",
                1,
                |_, a| {
                    a[1]["us_per_txn"] <= 40.48 / 1.5
                        && a[3]["us_per_txn"] <= 46.13 / 1.5
                        && phase_us(&a[1], "execute_pct") < 27.0
                        && phase_us(&a[1], "lock_pct") < 5.66
                },
            ),
        ],
    },
    Experiment {
        name: "pipeline",
        about: "1 blocking routine vs 8 pipelined per worker, YCSB-B and SmallBank 60% cross",
        default: Size::of(300),
        run: run_pipeline,
        checks: &[
            ("r1 overlaps nothing", 1, |_, a| {
                a[0]["ycsb_overlap_ns"] + a[0]["sb_overlap_ns"] == 0.0
            }),
            ("r8 overlaps verb wait on both workloads", 1, |_, a| {
                a[1]["ycsb_overlap_ns"] > 0.0 && a[1]["sb_overlap_ns"] > 0.0
            }),
            ("YCSB-B r8/r1 vtps >= 1.25", 1, |_, a| {
                ratio(a, "ycsb_vtps") >= 1.25
            }),
            ("SmallBank r8/r1 vtps >= 1.15", 1, |_, a| {
                ratio(a, "sb_vtps") >= 1.15
            }),
            ("YCSB-B r8 abort rate <= 5%", 1, |_, a| {
                a[1]["ycsb_abort_pct"] <= 5.0
            }),
            ("YCSB-B r8 hides > 25% of its verb wait", 1, |_, a| {
                a[1]["ycsb_hiding_pct"] > 25.0
            }),
        ],
    },
    Experiment {
        name: "reactor",
        about: "8 vs 256 reactor-polled routines per worker, YCSB-B 60% cross",
        default: Size::of(8_000),
        run: run_reactor,
        checks: &[
            ("both arms commit every transaction", 1, |s, a| {
                a.iter()
                    .all(|arm| arm["ycsb_committed"] == 4.0 * s.n as f64)
            }),
            ("r256 overlaps more verb wait than r8", 1, |_, a| {
                ratio(a, "ycsb_overlap_ns") > 1.0
            }),
            // The one arm where ringing a doorbell early can only cost
            // (the backlog always covers a round trip): R = 8's gain must
            // never be bought with R = 256's throughput. Since location
            // probes park like every other verb, R = 8 leaves little on
            // the table, so the floor is on what R = 256 still buys,
            // amortized doorbells. With every slot on one loop both
            // ratios repeat exactly. r256 ends on a drain tail of about
            // the same virtual idle at every size, so its vtps ratio
            // ramps 0.90 / 0.95 / 1.04 / 1.06x at 1 000 / 2 000 /
            // 4 000 / 8 000 transactions a slot; the default is the
            // first size where r256's idle share falls below r8's
            // (31 transactions a routine).
            ("r256 vtps not below r8", 1, |_, a| {
                ratio(a, "ycsb_vtps") >= 1.0
            }),
            ("r256 rings <= 0.75x r8's doorbells per txn", 1, |_, a| {
                ratio(a, "ycsb_doorbells_per_txn") <= 0.75
            }),
        ],
    },
    Experiment {
        name: "contend",
        about: "contention ladder off vs escalate, 99%-zipfian YCSB-F and hot-account SmallBank",
        default: Size::of(1_000),
        run: run_contend,
        checks: &[
            ("policy off never escalates", 1, |_, a| {
                [
                    "ycsb_pessimistic",
                    "ycsb_parks",
                    "sb_pessimistic",
                    "sb_parks",
                ]
                .iter()
                .all(|m| a[0][*m] == 0.0)
            }),
            (
                "both escalated workloads take pessimistic commits",
                1,
                |_, a| a[1]["ycsb_pessimistic"] > 0.0 && a[1]["sb_pessimistic"] > 0.0,
            ),
            ("YCSB-F escalate/off vtps >= 1.15", 1, |_, a| {
                ratio(a, "ycsb_vtps") >= 1.15
            }),
        ],
    },
    Experiment {
        name: "serve",
        about:
            "TCP serving tier, zero-sum SmallBank paced at 500/s vs one burst past high-water 16",
        default: Size::of(400),
        run: run_serve,
        checks: &[
            ("every request is sent on both arms", 1, |s, a| {
                a.iter().all(|arm| arm["sent"] == s.n as f64)
            }),
            ("the burst sheds", 1, |_, a| a[1]["rejected"] > 0.0),
            ("paced load sheds < 5%", 1, |_, a| a[0]["shed_pct"] < 5.0),
            ("admitted burst p99 < 2 s", 1, |_, a| a[1]["p99_us"] < 2e6),
            ("both arms commit and conserve money", 1, |_, a| {
                a.iter()
                    .all(|arm| arm["committed"] > 0.0 && arm["conserved"] == 1.0)
            }),
        ],
    },
    Experiment {
        name: "route",
        about:
            "shared admission queue vs shard-affinity routing, single-home-heavy SmallBank burst",
        default: Size::of(200),
        run: run_route,
        checks: &[
            ("every request is sent and nothing sheds", 1, |s, a| {
                a.iter()
                    .all(|arm| arm["sent"] == s.n as f64 && arm["rejected"] == 0.0)
            }),
            (
                "shared arm runs the shared queue and classifies no dispatch",
                1,
                |_, a| a[0]["routed"] == 0.0 && a[0]["local"] + a[0]["remote"] == 0.0,
            ),
            (
                "routed arm classifies every admitted request, mostly local",
                1,
                |_, a| {
                    let r = &a[1];
                    r["routed"] == 1.0
                        && r["local"] + r["remote"] == r["committed"] + r["aborted"]
                        && r["local"] > r["remote"]
                },
            ),
            ("both arms conserve money", 1, |_, a| {
                a.iter().all(|arm| arm["conserved"] == 1.0)
            }),
            (
                "routed commits in less virtual time than shared",
                1,
                |_, a| ratio(a, "vtps") > 1.0,
            ),
            // Twenty single-shot runs: 1.73-1.85 (shared 609-645 k,
            // routed 1.08-1.13 M), so the floor sits 30 % under the
            // lowest run.
            ("routed/shared vtps >= 1.20", 3, |_, a| {
                ratio(a, "vtps") >= 1.20
            }),
        ],
    },
    Experiment {
        name: "loadcurve",
        about: "latency vs offered load on one live-scraped server, zero-sum SmallBank per rate",
        default: Size {
            n: 300,
            rates: &[500.0, 1_500.0, 3_000.0],
            full: false,
        },
        run: run_loadcurve,
        checks: &[
            (
                "one point per rate, ascending by offered rate",
                1,
                |s, a| a.len() == s.rates.len() && ascending(a, "offered"),
            ),
            ("every request is sent at every point", 1, |s, a| {
                a.iter().all(|p| p["sent"] == s.n as f64)
            }),
            ("p999 >= p99 >= p50 at every point", 1, |_, a| {
                a.iter()
                    .all(|p| p["p999_us"] >= p["p99_us"] && p["p99_us"] >= p["p50_us"])
            }),
            (
                "live scrape: completed <= accepted, both monotone",
                1,
                |_, a| {
                    a.iter().all(|p| p["live_completed"] <= p["live_accepted"])
                        && ascending(a, "live_accepted")
                        && ascending(a, "live_completed")
                },
            ),
            ("money is conserved after the drain", 1, |_, a| {
                a.last().is_some_and(|p| p["conserved"] == 1.0)
            }),
        ],
    },
    Experiment {
        name: "history",
        about: "SmallBank and TPC-C histories through the checker: r1 / r8, unreplicated / 3-way",
        default: Size::of(300),
        run: run_history,
        checks: &[
            ("every arm commits, and its history holds every commit", 1, |_, a| {
                let whole = |arm: &Arm, w: &str| {
                    let committed = arm[&format!("{w}committed")];
                    committed > 0.0 && arm[&format!("{w}recorded")] == committed
                };
                a.iter().all(|arm| whole(arm, "sb_") && whole(arm, "tpcc_"))
            }),
            ("every history is acyclic: strictly serializable", 1, |_, a| {
                a.iter().all(|arm| arm["sb_acyclic"] == 1.0 && arm["tpcc_acyclic"] == 1.0)
            }),
            ("every graph has wr and rw edges between two workers", 1, |_, a| {
                let cross = |arm: &Arm, w: &str| {
                    arm[&format!("{w}wr_cross")] > 0.0 && arm[&format!("{w}rw_cross")] > 0.0
                };
                a.iter().all(|arm| cross(arm, "sb_") && cross(arm, "tpcc_"))
            }),
            ("the r8 arms abort: their histories interleave", 1, |_, a| {
                let r8 = a.iter().filter(|arm| arm.label.starts_with("r8"));
                r8.clone().count() == 2
                    && r8.into_iter().all(|arm| arm["sb_abort_pct"] > 0.0 && arm["tpcc_abort_pct"] > 0.0)
            }),
        ],
    },
    Experiment {
        name: "causes",
        about: "ns per committed txn by cause: TPC-C on one machine x 3 engines, 3-way SmallBank",
        default: Size::of(120),
        run: run_causes,
        checks: &[
            (
                "DrTM charges its inserts and deletes no record logic: DrTM+R's record logic exceeds DrTM's by Calvin's (which charges it for inserts and deletes alone) within 5 %",
                1,
                |_, a| {
                    let [r, d, c] = [0, 1, 2].map(|i| a[i]["record_logic"]);
                    c > 0.0 && ((r - d) - c).abs() <= 0.05 * c
                },
            ),
            (
                "Calvin spends most of its time in IPoIB round trips and its lock service",
                1,
                |_, a| a[2]["ipoib"] + a[2]["lock_wait"] > 0.5 * a[2]["total"],
            ),
            (
                "DrTM+R's generality costs HTM regions: more XBEGINs per txn than DrTM's one",
                1,
                |_, a| a[0]["htm_begin"] > a[1]["htm_begin"],
            ),
            (
                "3-way replicated SmallBank waits on its log flush and on the NIC's budget",
                1,
                |_, a| a[3]["log_flush"] > 0.0 && a[3]["nic_budget"] > 0.0,
            ),
        ],
    },
    // ---- the paper's evaluation (§7); run functions in `figures` ------
    // Each named check held in 20 of 20 release runs with margin;
    // series too noisy to gate are reported without one
    // (EXPERIMENTS.md).
    Experiment {
        name: "fig10",
        about: "TPC-C new-order vtps vs machines: DrTM+R, replicated, DrTM, Calvin",
        default: Size::of(120),
        run: figures::fig10,
        checks: &[
            ("DrTM+R scales: 3 machines >= 2.2 x 1 machine", 1, |_, a| {
                a[2]["drtm+r"] >= 2.2 * a[0]["drtm+r"]
            }),
            // No remote access on one machine: the generality cost alone,
            // which read groups brought to parity and one
            // `record_logic_ns` per record on both engines keeps there
            // (EXPERIMENTS.md).
            ("DrTM within 5 % of DrTM+R on one machine", 1, |_, a| {
                a[0]["drtm"] >= 0.95 * a[0]["drtm+r"]
            }),
            ("DrTM+R >= 4 x Calvin at every machine count", 1, |_, a| {
                a.iter().all(|p| p["drtm+r"] >= 4.0 * p["calvin"])
            }),
        ],
    },
    Experiment {
        name: "fig11",
        about: "TPC-C new-order vtps vs threads per machine: DrTM+R, replicated, DrTM",
        default: Size::of(120),
        run: figures::fig11,
        checks: &[
            ("DrTM+R scales: 4 threads >= 3 x 1 thread", 1, |_, a| {
                a[2]["drtm+r"] >= 3.0 * a[0]["drtm+r"]
            }),
            // The replicated series is `drtm+r=2` quick, `drtm+r=3` full.
            ("replication costs throughput at every thread count", 1, |_, a| {
                let copies = |m: &(String, &str, f64)| m.0.starts_with("drtm+r=");
                a.iter().all(|p| p.metrics.iter().any(|m| copies(m) && m.2 < p["drtm+r"]))
            }),
        ],
    },
    Experiment {
        name: "fig12",
        about: "TPC-C new-order vtps vs logical nodes of 4 workers sharing NICs 4 to a machine",
        default: Size::of(100),
        run: figures::fig12,
        checks: &[("every step of logical nodes adds throughput", 1, |_, a| {
            a.windows(2).all(|w| w[0]["drtm+r"] < w[1]["drtm+r"])
        })],
    },
    Experiment {
        name: "fig13",
        about: "SmallBank vtps vs machines at 1 / 5 / 10 % cross-machine, no replication",
        default: Size::of(120),
        run: |size| figures::smallbank_fig(size, false, 1),
        checks: &[
            ("1 % cross scales: 3 machines >= 2.5 x 1 machine", 1, |_, a| {
                a[2]["cross=1%"] >= 2.5 * a[0]["cross=1%"]
            }),
            ("from 2 machines up, 1 % cross is above 5 % and 10 %", 1, |_, a| {
                a[1..].iter().all(|p| p["cross=1%"] > p["cross=5%"].max(p["cross=10%"]))
            }),
        ],
    },
    Experiment {
        name: "fig14",
        about: "SmallBank vtps vs threads per machine at 1 / 5 / 10 % cross-machine, no replication",
        default: Size::of(120),
        run: |size| figures::smallbank_fig(size, true, 1),
        checks: &[
            ("1 % cross scales: 4 threads >= 3 x 1 thread", 1, |_, a| {
                a[2]["cross=1%"] >= 3.0 * a[0]["cross=1%"]
            }),
            ("1 % cross is above 5 % and 10 % at 1 and 2 threads", 1, |_, a| {
                let top = |p: &Arm| p["cross=1%"] > p["cross=5%"].max(p["cross=10%"]);
                a[..2].iter().all(top)
            }),
        ],
    },
    Experiment {
        name: "fig15",
        about: "SmallBank vtps vs machines at 1 / 5 / 10 % cross-machine, 3-way replication",
        default: Size::of(120),
        run: |size| figures::smallbank_fig(size, false, 3),
        checks: &[],
    },
    Experiment {
        name: "fig16",
        about: "SmallBank vtps vs threads per machine at 1 / 5 / 10 % cross-machine, 3-way replication",
        default: Size::of(120),
        run: |size| figures::smallbank_fig(size, true, 3),
        checks: &[("1 % cross still scales: 4 threads >= 1.3 x 1 thread", 1, |_, a| {
            a[2]["cross=1%"] >= 1.3 * a[0]["cross=1%"]
        })],
    },
    Experiment {
        name: "fig17",
        about: "TPC-C new-order vtps vs cross-warehouse %: DrTM+R, replicated, DrTM",
        default: Size::of(120),
        run: figures::fig17,
        checks: &[
            // One park per phase bounds what distribution can cost an
            // uncontended new-order at `breakdown`'s 12.95 / 21.00 us =
            // 0.62; contention only lowers it (0.17-0.63 over twenty
            // runs; 0.21-0.50 against a bound of 0.6 when every stock
            // record was its own round trip).
            ("DrTM+R at 100 % cross <= 0.75 x at 1 %", 1, |_, a| {
                ratio(a, "drtm+r") <= 0.75
            }),
            ("DrTM at 100 % cross <= 0.4 x at 1 %", 1, |_, a| {
                ratio(a, "drtm") <= 0.4
            }),
        ],
    },
    Experiment {
        name: "fig18",
        about: "TPC-C new-order vtps vs threads, one warehouse per machine: DrTM+R vs DrTM",
        default: Size::of(120),
        run: figures::fig18,
        checks: &[("DrTM+R still scales: 4 threads >= 1.5 x 1 thread", 1, |_, a| {
            a[2]["drtm+r"] >= 1.5 * a[0]["drtm+r"]
        })],
    },
    Experiment {
        name: "fig19",
        about: "TPC-C new-order vtps vs warehouses per machine: DrTM+R, replicated",
        default: Size::of(120),
        run: figures::fig19,
        checks: &[("DrTM+R stable across database sizes: max/min <= 1.4", 1, |_, a| {
            let v = a.iter().map(|p| p["drtm+r"]);
            v.clone().fold(0.0, f64::max) <= 1.4 * v.fold(f64::MAX, f64::min)
        })],
    },
    Experiment {
        name: "recovery",
        about: "Figure 20: commits before / during / after a machine failure under leases",
        default: Size::of(4_000),
        run: figures::recovery,
        checks: &[
            ("one lease-driven recovery; money conserved, no stale lock", 1, |_, a| {
                recovered_once(&a[1])
            }),
            ("suspicion waits out the lease: |detect - lease| <= heartbeat", 1, |_, a| {
                waited_out_lease(&a[1])
            }),
            ("the commit rate falls with the failed machine", 1, |_, a| {
                a[1]["commits_per_ms"] < a[0]["commits_per_ms"]
            }),
            ("survivors keep committing after the recovery", 1, |_, a| {
                a[2]["commits_per_ms"] > 0.0
            }),
        ],
    },
    Experiment {
        name: "lease",
        about: "Figure 20 decomposition vs lease length (ms): detect / config / rebuild",
        default: Size::of(400),
        run: figures::lease,
        checks: &[
            ("every lease length: one recovery, audit ok", 1, |_, a| {
                a.iter().all(recovered_once)
            }),
            ("suspicion waits out every lease: |detect - lease| <= heartbeat", 1, |_, a| {
                a.iter().all(waited_out_lease)
            }),
            ("detection time grows with the lease", 1, |_, a| {
                ascending(a, "detect_ms")
            }),
        ],
    },
    Experiment {
        name: "table6",
        about: "TPC-C standard mix without / with 3-way replication: throughput, latency, phases",
        default: Size::of(120),
        run: figures::table6,
        checks: &[
            ("replication overhead on new-order <= 60 %", 1, |_, a| {
                ratio(a, "new_order_vtps") >= 0.4
            }),
            ("R.1 costs nothing unreplicated, something replicated", 1, |_, a| {
                a[0]["log_p99_us"] < 0.01 && a[1]["log_p50_us"] > 1.0
            }),
        ],
    },
    Experiment {
        name: "ablations",
        about: "TPC-C 50 % cross: baseline vs one design decision switched off per arm",
        default: Size::of(120),
        run: figures::ablations,
        checks: &[],
    },
    Experiment {
        name: "ycsb",
        about: "YCSB A / B / C / F vtps vs machines, zipfian 0.99, 5 % cross-machine",
        default: Size::of(150),
        run: figures::ycsb,
        checks: &[
            ("every mix scales: third point >= 2 x 1 machine", 1, |_, a| {
                ["A", "B", "C", "F"].iter().all(|m| a[2][*m] >= 2.0 * a[0][*m])
            }),
            ("read-modify-write F is below read-mostly B and C at every point", 1, |_, a| {
                a.iter().all(|p| p["F"] < p["B"].min(p["C"]))
            }),
        ],
    },
];

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::{AtomicU32, Ordering};

    static RUNS: AtomicU32 = AtomicU32::new(0);

    fn two_arms(_: Size) -> Result<Vec<Arm>, String> {
        RUNS.fetch_add(1, Ordering::Relaxed);
        let mut a = Arm::new("a");
        a.push("vtps", "txn/s", 100.0);
        a.push("only_a", "x", 0.5);
        let mut b = Arm::new("b");
        b.push("vtps", "txn/s", 150.0);
        Ok(vec![a, b])
    }

    static FAKE: Experiment = Experiment {
        name: "fake",
        about: "two canned arms",
        default: Size::of(7),
        run: two_arms,
        checks: &[
            ("b beats a", 1, |_, a| ratio(a, "vtps") > 1.0),
            ("b doubles a", 3, |_, a| ratio(a, "vtps") >= 2.0),
        ],
    };

    /// A failing check is reported, retried up to its `tries`, and only
    /// becomes an error under `gate` — after the artifact is written.
    #[test]
    fn driver_reports_retries_and_gates_a_failing_check() {
        let report = FAKE
            .run_checked(Size {
                n: 0,
                ..FAKE.default
            })
            .unwrap();
        assert_eq!((report.size, RUNS.load(Ordering::Relaxed)), (1, 3));
        assert!(report.checks[0].1 && !report.checks[1].1);
        assert_eq!(report.failed(), ["b doubles a"]);

        let text = FAKE.execute(FAKE.default, None, false).expect("ungated");
        for needle in [
            "vtps (txn/s)",
            "only_a (x)",
            "1.50x",
            "[ok] b beats a",
            "[FAIL] b doubles a (best of 3)",
        ] {
            assert!(text.contains(needle), "missing {needle:?}: {text}");
        }

        let path = std::env::temp_dir().join(format!("drtm-fake-{}.json", std::process::id()));
        let err = FAKE
            .execute(FAKE.default, path.to_str(), true)
            .expect_err("a failed check must fail the gate");
        assert!(err.contains("fake: gate failed: b doubles a"), "{err}");
        let json = std::fs::read_to_string(&path).expect("artifact written before the gate");
        std::fs::remove_file(&path).ok();
        drtm_obs::jsonlint::validate(&json).expect("artifact parses");
        assert!(json.contains("\"experiment\":\"fake\",\"size\":7,"));
        assert!(json.contains("{\"name\":\"b doubles a\",\"tries\":3,\"ok\":false}"));
        // A metric one arm lacks renders as `-` and serializes nowhere.
        assert!(text.contains(" - "), "{text}");
    }

    /// `recovery` and `lease` at a small size: the supervisor recovers
    /// the one failed machine once, through its own lease, and the
    /// restart audit holds, in every arm that ran the failover.
    #[test]
    fn failover_entries_recover_once_and_audit_ok() {
        for (name, runs) in [("recovery", 1), ("lease", 5)] {
            let report = find(name).unwrap().run_checked(Size::of(150)).unwrap();
            let ran = report.arms.iter().filter(|a| a["lease_ms"] > 0.0);
            let ok = ran.filter(|a| recovered_once(a) && waited_out_lease(a));
            assert_eq!(ok.count(), runs, "{}", report.render());
        }
    }

    #[test]
    fn table_names_are_unique_and_helped() {
        let help = help();
        for (i, e) in EXPERIMENTS.iter().enumerate() {
            assert!(std::ptr::eq(find(e.name).unwrap(), e));
            assert!(EXPERIMENTS[..i].iter().all(|o| o.name != e.name));
            assert!(help.contains(e.name) && help.contains(e.about));
        }
        assert!(find("nosuch").is_none());
    }
}
