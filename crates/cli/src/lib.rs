//! The `drtm-shell` command interpreter.
//!
//! An interactive (or scripted) shell over a DrTM+R cluster: create a
//! cluster, read and write keys transactionally, transfer between
//! accounts, kill and recover machines, and inspect statistics. The
//! interpreter is a plain state machine over parsed commands, kept in a
//! library so it can be unit-tested without a terminal.

use std::sync::Arc;

use drtm_bench::experiment::{self, Experiment, Size};
use drtm_core::cluster::{DrtmCluster, EngineOpts, MAX_REPLICAS};
use drtm_core::recovery::{full_restart_scrub, recover_node};
use drtm_core::txn::{TxnError, Worker};
use drtm_rdma::NicSnapshot;
use drtm_store::TableSpec;

/// The generic key-value table every shell cluster carries.
pub const TABLE: u32 = 0;
/// Value size of the shell's table (a single `u64` plus padding).
pub const VALUE_LEN: usize = 16;

/// A parsed shell command.
#[derive(Debug, Clone, PartialEq)]
pub enum Cmd {
    /// `cluster <nodes> [replicas]`
    Cluster { nodes: usize, replicas: usize },
    /// `put <shard> <key> <value>`
    Put { shard: usize, key: u64, value: u64 },
    /// `get <shard> <key>`
    Get { shard: usize, key: u64 },
    /// `del <shard> <key>`
    Del { shard: usize, key: u64 },
    /// `transfer <shard> <key> <shard> <key> <amount>`
    Transfer {
        from: (usize, u64),
        to: (usize, u64),
        amount: u64,
    },
    /// `crash <node>`
    Crash { node: usize },
    /// `recover <node>`
    Recover { node: usize },
    /// `scrub` (full-restart repair)
    Scrub,
    /// `chaos <seed> <node> <point> [hit]` — standalone fault-injection
    /// run: SmallBank under a plan that kills `node` at crash point
    /// `point`, recovered through lease expiry, then audited.
    Chaos {
        seed: u64,
        node: usize,
        point: &'static str,
        hit: u64,
    },
    /// `smallbank [txns]` — load and run a small SmallBank benchmark
    /// on a fresh 2-machine cluster so the metrics registry has real
    /// per-phase and abort data to report.
    Smallbank {
        /// Transactions attempted per worker thread.
        txns: usize,
    },
    /// `<name> [size] [full] [rates r1,r2,...] [json FILE] [gate]` — run
    /// one entry of the experiment table
    /// ([`drtm_bench::experiment::EXPERIMENTS`]) on fresh clusters and
    /// print its arms-by-metrics report and checks.
    Experiment {
        /// The table entry's name.
        name: &'static str,
        /// Transactions per worker, or requests per arm.
        size: usize,
        /// Offered rates of a sweep entry (`loadcurve`); empty for a
        /// fixed-arm entry.
        rates: Vec<f64>,
        /// The paper-scale shape of a figure entry.
        full: bool,
        /// Optional path for the stamped JSON artifact.
        out: Option<String>,
        /// Turn a failed check into an error.
        gate: bool,
    },
    /// `stats [prom|json]`
    Stats {
        /// Output format.
        format: StatsFormat,
    },
    /// `trace <file>` — export the trace rings as chrome://tracing JSON
    Trace {
        /// Destination path.
        path: String,
    },
    /// `help`
    Help,
    /// `quit`
    Quit,
}

/// Output format of the `stats` command.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum StatsFormat {
    /// Human-readable tables (the default).
    Text,
    /// Prometheus text exposition.
    Prom,
    /// JSON.
    Json,
}

/// Resolves a crash-point name to its canonical `&'static str`
/// ([`drtm_chaos::CrashSpec`] stores static names, not owned strings).
fn crash_point_name(s: &str) -> Result<&'static str, String> {
    drtm_chaos::CRASH_POINTS
        .iter()
        .find(|(p, _)| *p == s)
        .map(|(p, _)| *p)
        .ok_or_else(|| {
            let names: Vec<&str> = drtm_chaos::CRASH_POINTS.iter().map(|(p, _)| *p).collect();
            format!("unknown crash point {s:?} (one of {})", names.join(", "))
        })
}

/// Parses one shell line into a command.
pub fn parse(line: &str) -> Result<Option<Cmd>, String> {
    let words: Vec<&str> = line.split_whitespace().collect();
    let num = |w: &str| -> Result<u64, String> {
        w.parse::<u64>().map_err(|_| format!("not a number: {w:?}"))
    };
    let cmd = match words.as_slice() {
        [] | ["#", ..] => return Ok(None),
        ["cluster", n] => Cmd::Cluster {
            nodes: num(n)? as usize,
            replicas: 1,
        },
        ["cluster", n, r] => Cmd::Cluster {
            nodes: num(n)? as usize,
            replicas: num(r)? as usize,
        },
        ["put", s, k, v] => Cmd::Put {
            shard: num(s)? as usize,
            key: num(k)?,
            value: num(v)?,
        },
        ["get", s, k] => Cmd::Get {
            shard: num(s)? as usize,
            key: num(k)?,
        },
        ["del", s, k] => Cmd::Del {
            shard: num(s)? as usize,
            key: num(k)?,
        },
        ["transfer", s1, k1, s2, k2, amt] => Cmd::Transfer {
            from: (num(s1)? as usize, num(k1)?),
            to: (num(s2)? as usize, num(k2)?),
            amount: num(amt)?,
        },
        ["crash", n] => Cmd::Crash {
            node: num(n)? as usize,
        },
        ["recover", n] => Cmd::Recover {
            node: num(n)? as usize,
        },
        ["scrub"] => Cmd::Scrub,
        ["chaos", seed, node, point] => Cmd::Chaos {
            seed: num(seed)?,
            node: num(node)? as usize,
            point: crash_point_name(point)?,
            hit: 3,
        },
        ["chaos", seed, node, point, hit] => Cmd::Chaos {
            seed: num(seed)?,
            node: num(node)? as usize,
            point: crash_point_name(point)?,
            hit: num(hit)?,
        },
        ["smallbank"] => Cmd::Smallbank { txns: 200 },
        ["smallbank", n] => Cmd::Smallbank {
            txns: num(n)? as usize,
        },
        ["stats"] => Cmd::Stats {
            format: StatsFormat::Text,
        },
        ["stats", "prom"] => Cmd::Stats {
            format: StatsFormat::Prom,
        },
        ["stats", "json"] => Cmd::Stats {
            format: StatsFormat::Json,
        },
        ["trace", path] => Cmd::Trace {
            path: (*path).to_string(),
        },
        ["help"] => Cmd::Help,
        ["quit"] | ["exit"] => Cmd::Quit,
        [name, rest @ ..] => match experiment::find(name) {
            Some(exp) => parse_experiment(exp, rest)?,
            None => return Err(format!("unknown command: {words:?} (try `help`)")),
        },
    };
    Ok(Some(cmd))
}

/// Parses the words after an experiment's name: an optional leading
/// size, then `full` and `requests N` / `rates r1,r2,...` / `json FILE`
/// pairs in any order, then an optional trailing `gate`.
fn parse_experiment(exp: &'static Experiment, words: &[&str]) -> Result<Cmd, String> {
    let name = exp.name;
    let size = |w: &str| {
        w.parse::<usize>()
            .map_err(|_| format!("{name}: not a size: {w:?}"))
    };
    let Size {
        mut n,
        rates,
        mut full,
    } = exp.default;
    let (mut rates, mut out, mut gate) = (rates.to_vec(), None, false);
    let mut it = words.iter().peekable();
    if let Some(w) = it.next_if(|w| w.starts_with(|c: char| c.is_ascii_digit())) {
        n = size(w)?;
    }
    while let Some(&key) = it.next() {
        if key == "gate" && it.peek().is_none() {
            gate = true;
            break;
        }
        let mut value = || it.next().ok_or(format!("{name}: {key} needs a value"));
        match key {
            "full" if full => return Err(format!("{name}: full given twice")),
            "full" => full = true,
            "requests" => n = size(value()?)?,
            "json" => out = Some(value()?.to_string()),
            "rates" if rates.is_empty() => {
                return Err(format!("{name}: not a sweep, takes no rates"))
            }
            "rates" => {
                let list = value()?;
                rates = (list.split(','))
                    .map(|r| r.parse().ok().filter(|r: &f64| *r > 0.0 && r.is_finite()))
                    .collect::<Option<_>>()
                    .ok_or(format!("{name}: bad rate list {list:?}"))?
            }
            other => {
                return Err(format!(
                    "{name}: expected [size] [full] [rates r1,r2,...] [json FILE] [gate], got {other:?}"
                ))
            }
        }
    }
    Ok(Cmd::Experiment {
        name,
        size: n,
        rates,
        full,
        out,
        gate,
    })
}

/// The interpreter state: a cluster plus one worker per machine.
#[derive(Default)]
pub struct Shell {
    cluster: Option<Arc<DrtmCluster>>,
    workers: Vec<Worker>,
    /// NIC counters at the previous `stats`, so the next one can show
    /// the delta as well as the running totals.
    last_nic: Vec<NicSnapshot>,
}

/// The help text: the fixed commands, then one line per entry of the
/// experiment table.
pub fn help() -> String {
    format!("{COMMANDS}\n{}", experiment::help())
}

const COMMANDS: &str = "\
commands:
  cluster <nodes> [replicas]   create a cluster (one KV table)
  put <shard> <key> <value>    transactional insert-or-update
  get <shard> <key>            transactional read-only lookup
  del <shard> <key>            transactional delete
  transfer <s1> <k1> <s2> <k2> <amt>
                               distributed transfer between two keys
  crash <node>                 fail-stop a machine
  recover <node>               reconfigure + replay its redo logs
  scrub                        full-restart repair (locks, odd records)
  chaos <seed> <node> <point> [hit]
                               standalone chaos run: SmallBank while
                               <node> is killed at crash point <point>
                               (C.1-C.6, R.1-R.3) on its [hit]-th
                               passage; recovery via lease expiry; the
                               conservation audit is printed
  smallbank [txns]             run SmallBank on a fresh 2-machine
                               cluster (fills the metrics registry)
  stats [prom|json]            commit-phase latencies, abort taxonomy,
                               HTM abort classes, NIC counters, and
                               per-machine liveness (default: text)
  trace <file>                 export trace rings as chrome://tracing
                               JSON (open in a chromium browser or
                               https://ui.perfetto.dev)
  help | quit";

/// The SmallBank configuration behind `smallbank`: small and hot on
/// purpose — a couple of machines, a tiny account set, and plenty of
/// cross-machine transactions, so the abort taxonomy and every commit
/// phase light up.
fn shell_smallbank_cfg() -> drtm_workloads::smallbank::SbCfg {
    drtm_workloads::smallbank::SbCfg {
        nodes: 2,
        accounts: 20,
        hot_fraction: 0.2,
        hot_prob: 0.95,
        cross_prob: 0.4,
    }
}

fn val(x: u64) -> Vec<u8> {
    let mut v = vec![0u8; VALUE_LEN];
    v[..8].copy_from_slice(&x.to_le_bytes());
    v
}

fn num_of(v: &[u8]) -> u64 {
    u64::from_le_bytes(v[..8].try_into().unwrap())
}

impl Shell {
    /// Creates an empty shell (no cluster yet).
    pub fn new() -> Self {
        Self::default()
    }

    /// A final text stats scrape for graceful-shutdown paths (SIGINT /
    /// SIGTERM), `None` when no cluster was ever created.
    pub fn final_scrape(&self) -> Option<String> {
        let cluster = self.cluster.as_ref()?;
        let snap = drtm_core::scrape_cluster(cluster);
        Some(drtm_obs::expo::render_text(&snap))
    }

    fn worker_for(&mut self, shard: usize) -> Result<&mut Worker, String> {
        let cluster = self
            .cluster
            .as_ref()
            .ok_or("no cluster (run `cluster N` first)")?;
        if self.workers.is_empty() {
            // A benchmark cluster (e.g. `smallbank`) has no interactive
            // workers and a workload-specific schema.
            return Err(
                "this cluster is read-only for stats (run `cluster N` for a KV one)".into(),
            );
        }
        let node = cluster.home_of(shard);
        Ok(&mut self.workers[node])
    }

    fn check_shard(&self, shard: usize) -> Result<(), String> {
        let cluster = self
            .cluster
            .as_ref()
            .ok_or("no cluster (run `cluster N` first)")?;
        if shard >= cluster.nodes() {
            return Err(format!(
                "shard {shard} out of range (cluster has {})",
                cluster.nodes()
            ));
        }
        Ok(())
    }

    /// Executes one command, returning the text to print (or `None` to
    /// exit).
    pub fn execute(&mut self, cmd: Cmd) -> Result<Option<String>, String> {
        match cmd {
            Cmd::Cluster { nodes, replicas } => {
                if nodes == 0 || replicas == 0 || replicas > nodes {
                    return Err("need nodes >= replicas >= 1".into());
                }
                if replicas > MAX_REPLICAS {
                    return Err(format!("at most {MAX_REPLICAS} replicas"));
                }
                let opts = EngineOpts::builder()
                    .replicas(replicas)
                    .region_size(16 << 20)
                    .build();
                let cluster =
                    DrtmCluster::new(nodes, &[TableSpec::hash(TABLE, 1 << 14, VALUE_LEN)], opts);
                self.workers = (0..nodes)
                    .map(|n| cluster.worker(n, 0xC11 + n as u64))
                    .collect();
                self.last_nic.clear();
                self.cluster = Some(cluster);
                Ok(Some(format!(
                    "cluster up: {nodes} machines, {replicas} copies per record"
                )))
            }
            Cmd::Put { shard, key, value } => {
                self.check_shard(shard)?;
                let w = self.worker_for(shard)?;
                let r = w.run(|t| match t.read(shard, TABLE, key) {
                    Ok(_) => t.write(shard, TABLE, key, val(value)),
                    Err(TxnError::NotFound) => {
                        t.insert(shard, TABLE, key, val(value));
                        Ok(())
                    }
                    Err(e) => Err(e),
                });
                match r {
                    Ok(()) => Ok(Some(format!("{shard}/{key} = {value}"))),
                    Err(e) => Err(format!("put failed: {e:?}")),
                }
            }
            Cmd::Get { shard, key } => {
                self.check_shard(shard)?;
                let w = self.worker_for(shard)?;
                match w.run_ro(|t| t.read(shard, TABLE, key)) {
                    Ok(v) => Ok(Some(format!("{shard}/{key} = {}", num_of(&v)))),
                    Err(TxnError::NotFound) => Ok(Some(format!("{shard}/{key} (not found)"))),
                    Err(e) => Err(format!("get failed: {e:?}")),
                }
            }
            Cmd::Del { shard, key } => {
                self.check_shard(shard)?;
                let w = self.worker_for(shard)?;
                w.run(|t| {
                    t.read(shard, TABLE, key)?;
                    t.delete(shard, TABLE, key);
                    Ok(())
                })
                .map_err(|e| format!("del failed: {e:?}"))?;
                Ok(Some(format!("{shard}/{key} deleted")))
            }
            Cmd::Transfer { from, to, amount } => {
                self.check_shard(from.0)?;
                self.check_shard(to.0)?;
                if from == to {
                    return Err("cannot transfer a key to itself".into());
                }
                let w = self.worker_for(from.0)?;
                let r = w.run(|t| {
                    let a = num_of(&t.read(from.0, TABLE, from.1)?);
                    let b = num_of(&t.read(to.0, TABLE, to.1)?);
                    if a < amount {
                        return Err(TxnError::UserAbort);
                    }
                    t.write(from.0, TABLE, from.1, val(a - amount))?;
                    t.write(to.0, TABLE, to.1, val(b + amount))
                });
                match r {
                    Ok(()) => Ok(Some(format!(
                        "transferred {amount}: {}/{} -> {}/{}",
                        from.0, from.1, to.0, to.1
                    ))),
                    Err(TxnError::UserAbort) => Err("insufficient funds".into()),
                    Err(e) => Err(format!("transfer failed: {e:?}")),
                }
            }
            Cmd::Crash { node } => {
                self.check_shard(node)?;
                let cluster = self.cluster.as_ref().unwrap();
                cluster.crash(node);
                Ok(Some(format!("machine {node} fail-stopped (lease revoked)")))
            }
            Cmd::Recover { node } => {
                self.check_shard(node)?;
                let cluster = self.cluster.as_ref().unwrap();
                let report = recover_node(cluster, node);
                Ok(Some(match report.new_home {
                    Some(h) => format!(
                        "recovered {} records onto machine {h} (epoch {}, {} log entries replayed)",
                        report.records_recovered, report.epoch, report.log_entries_replayed
                    ),
                    None => format!(
                        "machine {node} removed (epoch {}); no replicas to recover from",
                        report.epoch
                    ),
                }))
            }
            Cmd::Scrub => {
                let cluster = self.cluster.as_ref().ok_or("no cluster")?;
                let (locks, fwd, back) = full_restart_scrub(cluster);
                Ok(Some(format!(
                    "scrubbed: {locks} locks cleared, {fwd} rolled forward, {back} rolled back"
                )))
            }
            Cmd::Chaos {
                seed,
                node,
                point,
                hit,
            } => {
                // Standalone run on its own 4-machine cluster — the
                // shell's interactive cluster (if any) is not touched —
                // under the paper's 10 ms leases (the default).
                let cfg = drtm_chaos::ChaosRunCfg {
                    nodes: 4,
                    cross_prob: 0.5,
                    ..drtm_chaos::ChaosRunCfg::default()
                };
                if node >= cfg.nodes {
                    return Err(format!("node {node} out of range (chaos runs on 4)"));
                }
                let plan = drtm_chaos::FaultPlan::new(seed).crash_at(node, point, hit);
                let out = drtm_chaos::run_smallbank_chaos(&cfg, plan);
                let mut text = format!(
                    "chaos run (seed {seed}): kill machine {node} at {point} hit {hit}\n\
                     {} committed, {} aborted, {} crash fired, {} worker(s) died",
                    out.committed, out.aborted, out.crashes_fired, out.crashed_workers
                );
                for ev in &out.events {
                    text += &format!(
                        "\nrecovered machine {} (epoch {}): {} records, {} log entries, \
                         detect {:?} (virtual), config {:?}, rebuild {:?} (host)",
                        ev.dead,
                        ev.report.epoch,
                        ev.report.records_recovered,
                        ev.report.log_entries_replayed,
                        ev.detect.unwrap_or_default(),
                        ev.report.config_commit,
                        ev.report.rebuild,
                    );
                }
                text += &format!(
                    "\naudit: total {} vs {}, {} stale locks -> {}",
                    out.final_total,
                    out.initial_total,
                    out.stale_locks,
                    if out.audit_ok() { "OK" } else { "FAILED" }
                );
                Ok(Some(text))
            }
            Cmd::Smallbank { txns } => {
                use drtm_workloads::driver::{self, RunCfg};
                let cfg = shell_smallbank_cfg();
                let run = RunCfg {
                    threads: 3,
                    txns_per_worker: txns.max(1),
                    ..Default::default()
                };
                let (cluster, m) = driver::run(&cfg, &run, |_| {});
                self.workers.clear();
                self.last_nic.clear();
                self.cluster = Some(cluster);
                Ok(Some(format!(
                    "smallbank: {} committed, {} aborted, {} fallbacks over {} machines \
                     ({} txns/worker x 3 threads); see `stats`",
                    m.committed, m.aborted, m.fallbacks, cfg.nodes, run.txns_per_worker,
                )))
            }
            Cmd::Experiment {
                name,
                size,
                rates,
                full,
                out,
                gate,
            } => {
                // Standalone runs on fresh clusters — the shell's
                // interactive cluster (if any) is not touched.
                let exp = experiment::find(name).ok_or(format!("no experiment {name:?}"))?;
                let size = Size {
                    n: size,
                    rates: &rates,
                    full,
                };
                exp.execute(size, out.as_deref(), gate).map(Some)
            }
            Cmd::Stats { format } => {
                let cluster = Arc::clone(self.cluster.as_ref().ok_or("no cluster")?);
                let snap = drtm_core::scrape_cluster(&cluster);
                match format {
                    StatsFormat::Prom => Ok(Some(drtm_obs::expo::render_prometheus(&snap))),
                    StatsFormat::Json => Ok(Some(drtm_obs::expo::render_json(&snap))),
                    StatsFormat::Text => {
                        let mut out = drtm_obs::expo::render_text(&snap);
                        out.push_str("\nnic delta since last stats:\n");
                        let mut next = Vec::with_capacity(cluster.nodes());
                        for node in 0..cluster.nodes() {
                            let cur = cluster.fabric.port(node).stats().snapshot();
                            let prev = self.last_nic.get(node).copied().unwrap_or_default();
                            let d = cur.delta(&prev);
                            out += &format!(
                                "  node {node}: reads={} writes={} atomics={} sends={} \
                                 doorbells={} ({:.1} KB)\n",
                                d.reads,
                                d.writes,
                                d.atomics,
                                d.sends,
                                d.doorbells,
                                d.bytes as f64 / 1_024.0
                            );
                            next.push(cur);
                        }
                        self.last_nic = next;
                        out.pop();
                        Ok(Some(out))
                    }
                }
            }
            Cmd::Trace { path } => {
                let json = drtm_obs::trace::export_chrome_json_meta(&drtm_bench::stamp_json(None));
                drtm_obs::jsonlint::validate(&json)
                    .map_err(|e| format!("internal error: trace export is not valid JSON: {e}"))?;
                let events = drtm_obs::trace::buffered();
                std::fs::write(&path, &json).map_err(|e| format!("cannot write {path}: {e}"))?;
                Ok(Some(format!(
                    "wrote {} buffered events ({} bytes) to {path} — load in chrome://tracing",
                    events,
                    json.len()
                )))
            }
            Cmd::Help => Ok(Some(help())),
            Cmd::Quit => Ok(None),
        }
    }
}

/// The shell's read-parse-execute loop over `input`, writing results
/// to `out` and errors to stderr. An interactive session reports a
/// failed command and carries on; a script or pipe stops at the first
/// one. Returns `false` when it stopped that way, so the caller can
/// exit nonzero. A failed write to `out` ends the loop as
/// [`output_failed`] says: quietly, as end of input does, when the
/// reader has gone.
pub fn run_lines(
    shell: &mut Shell,
    input: impl std::io::BufRead,
    out: &mut impl std::io::Write,
    interactive: bool,
) -> bool {
    for line in input.lines() {
        if drtm_base::shutdown::requested() {
            break;
        }
        let Ok(line) = line else { break };
        if interactive {
            // The prompt appears *after* the previous output.
            if let Err(e) = write!(out, "> ").and_then(|()| out.flush()) {
                return output_failed(&e);
            }
        }
        let result = match parse(&line) {
            Ok(None) => continue,
            Ok(Some(cmd)) => shell.execute(cmd),
            Err(e) => Err(e),
        };
        match result {
            Ok(Some(text)) => {
                if let Err(e) = writeln!(out, "{text}") {
                    return output_failed(&e);
                }
            }
            Ok(None) => break,
            Err(e) => {
                eprintln!("error: {e}");
                if !interactive {
                    return false;
                }
            }
        }
    }
    true
}

/// Whether a session whose output failed with `e` ended well. A reader
/// that has gone (`BrokenPipe`, as when the output is piped into
/// `head`) ends it quietly, as end of input does; any other failure is
/// reported on stderr and ends it as a failed command does.
pub fn output_failed(e: &std::io::Error) -> bool {
    if e.kind() == std::io::ErrorKind::BrokenPipe {
        return true;
    }
    eprintln!("error: cannot write output: {e}");
    false
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_basics() {
        assert_eq!(parse("").unwrap(), None);
        assert_eq!(parse("# comment").unwrap(), None);
        assert_eq!(
            parse("cluster 3 2").unwrap(),
            Some(Cmd::Cluster {
                nodes: 3,
                replicas: 2
            })
        );
        assert_eq!(
            parse("put 0 10 99").unwrap(),
            Some(Cmd::Put {
                shard: 0,
                key: 10,
                value: 99
            })
        );
        assert_eq!(
            parse("transfer 0 1 2 3 50").unwrap(),
            Some(Cmd::Transfer {
                from: (0, 1),
                to: (2, 3),
                amount: 50
            })
        );
        assert!(parse("frobnicate").is_err());
        assert!(parse("put x y z").is_err());
    }

    #[test]
    fn session_end_to_end() {
        let mut sh = Shell::new();
        assert!(
            sh.execute(Cmd::Get { shard: 0, key: 1 }).is_err(),
            "no cluster yet"
        );
        sh.execute(Cmd::Cluster {
            nodes: 3,
            replicas: 2,
        })
        .unwrap();
        sh.execute(Cmd::Put {
            shard: 0,
            key: 1,
            value: 100,
        })
        .unwrap();
        sh.execute(Cmd::Put {
            shard: 2,
            key: 9,
            value: 50,
        })
        .unwrap();
        let out = sh.execute(Cmd::Get { shard: 0, key: 1 }).unwrap().unwrap();
        assert!(out.contains("= 100"));
        sh.execute(Cmd::Transfer {
            from: (0, 1),
            to: (2, 9),
            amount: 30,
        })
        .unwrap();
        let out = sh.execute(Cmd::Get { shard: 2, key: 9 }).unwrap().unwrap();
        assert!(out.contains("= 80"));
        // Update an existing key through put.
        sh.execute(Cmd::Put {
            shard: 0,
            key: 1,
            value: 7,
        })
        .unwrap();
        let out = sh.execute(Cmd::Get { shard: 0, key: 1 }).unwrap().unwrap();
        assert!(out.contains("= 7"));
        // Delete it.
        sh.execute(Cmd::Del { shard: 0, key: 1 }).unwrap();
        let out = sh.execute(Cmd::Get { shard: 0, key: 1 }).unwrap().unwrap();
        assert!(out.contains("not found"));
    }

    #[test]
    fn crash_recover_through_shell() {
        let mut sh = Shell::new();
        sh.execute(Cmd::Cluster {
            nodes: 3,
            replicas: 3,
        })
        .unwrap();
        sh.execute(Cmd::Put {
            shard: 1,
            key: 5,
            value: 42,
        })
        .unwrap();
        sh.execute(Cmd::Crash { node: 1 }).unwrap();
        let out = sh.execute(Cmd::Recover { node: 1 }).unwrap().unwrap();
        assert!(out.contains("recovered"), "{out}");
        // The key survives on the new home (routed transparently).
        let out = sh.execute(Cmd::Get { shard: 1, key: 5 }).unwrap().unwrap();
        assert!(out.contains("= 42"), "{out}");
    }

    #[test]
    fn transfer_guards() {
        let mut sh = Shell::new();
        sh.execute(Cmd::Cluster {
            nodes: 2,
            replicas: 1,
        })
        .unwrap();
        sh.execute(Cmd::Put {
            shard: 0,
            key: 1,
            value: 10,
        })
        .unwrap();
        sh.execute(Cmd::Put {
            shard: 1,
            key: 2,
            value: 0,
        })
        .unwrap();
        let r = sh.execute(Cmd::Transfer {
            from: (0, 1),
            to: (1, 2),
            amount: 100,
        });
        assert!(r.is_err(), "insufficient funds must fail");
        assert!(sh
            .execute(Cmd::Transfer {
                from: (0, 1),
                to: (0, 1),
                amount: 1
            })
            .is_err());
    }

    #[test]
    fn parse_chaos() {
        assert_eq!(
            parse("chaos 42 2 C.4").unwrap(),
            Some(Cmd::Chaos {
                seed: 42,
                node: 2,
                point: "C.4",
                hit: 3
            })
        );
        assert_eq!(
            parse("chaos 7 1 C.5 10").unwrap(),
            Some(Cmd::Chaos {
                seed: 7,
                node: 1,
                point: "C.5",
                hit: 10
            })
        );
        assert!(parse("chaos 7 1 C.9").is_err(), "unknown crash point");
    }

    #[test]
    fn chaos_command_runs_and_audits() {
        let mut sh = Shell::new();
        let out = sh
            .execute(Cmd::Chaos {
                seed: 42,
                node: 2,
                point: "C.4",
                hit: 5,
            })
            .unwrap()
            .unwrap();
        assert!(out.contains("recovered machine 2"), "{out}");
        assert!(out.ends_with("OK"), "{out}");
        assert!(
            sh.execute(Cmd::Chaos {
                seed: 1,
                node: 9,
                point: "C.4",
                hit: 1
            })
            .is_err(),
            "node out of range"
        );
    }

    #[test]
    fn stats_and_scrub() {
        let mut sh = Shell::new();
        sh.execute(Cmd::Cluster {
            nodes: 2,
            replicas: 2,
        })
        .unwrap();
        sh.execute(Cmd::Put {
            shard: 0,
            key: 1,
            value: 1,
        })
        .unwrap();
        let out = sh
            .execute(Cmd::Stats {
                format: StatsFormat::Text,
            })
            .unwrap()
            .unwrap();
        assert!(out.contains("node 0"), "{out}");
        assert!(out.contains("alive"), "{out}");
        assert!(out.contains("nic delta since last stats"), "{out}");
        let out = sh.execute(Cmd::Scrub).unwrap().unwrap();
        assert!(out.contains("scrubbed"));
    }

    #[test]
    fn parse_obs_commands() {
        assert_eq!(
            parse("stats").unwrap(),
            Some(Cmd::Stats {
                format: StatsFormat::Text
            })
        );
        assert_eq!(
            parse("stats prom").unwrap(),
            Some(Cmd::Stats {
                format: StatsFormat::Prom
            })
        );
        assert_eq!(
            parse("stats json").unwrap(),
            Some(Cmd::Stats {
                format: StatsFormat::Json
            })
        );
        assert_eq!(
            parse("smallbank").unwrap(),
            Some(Cmd::Smallbank { txns: 200 })
        );
        assert_eq!(
            parse("smallbank 50").unwrap(),
            Some(Cmd::Smallbank { txns: 50 })
        );
        assert_eq!(
            parse("trace /tmp/out.json").unwrap(),
            Some(Cmd::Trace {
                path: "/tmp/out.json".into()
            })
        );
        assert!(parse("stats xml").is_err());
    }

    /// The PR's acceptance flow: after a SmallBank run, `stats` must
    /// show per-phase p50/p99 latencies and a nonzero abort-reason
    /// breakdown, and the prom/json forms must be well-formed.
    #[test]
    fn smallbank_then_stats_shows_phases_and_aborts() {
        let mut sh = Shell::new();
        let out = sh.execute(Cmd::Smallbank { txns: 300 }).unwrap().unwrap();
        assert!(out.contains("committed"), "{out}");
        let text = sh
            .execute(Cmd::Stats {
                format: StatsFormat::Text,
            })
            .unwrap()
            .unwrap();
        // Per-phase latency table with quantile columns and the six
        // user-facing phases (plus htm/makeup).
        assert!(text.contains("p50 us"), "{text}");
        assert!(text.contains("p99 us"), "{text}");
        for phase in ["execute", "lock", "validate", "log", "update", "unlock"] {
            assert!(text.contains(phase), "missing phase {phase}: {text}");
        }
        // A hot 50-account working set with 40% cross-machine traffic
        // must produce real contention aborts.
        assert!(
            !text.contains("aborts by reason: none"),
            "expected nonzero abort breakdown: {text}"
        );
        assert!(text.contains("nic verbs"), "{text}");
        // The benchmark cluster is stats-only for KV commands.
        assert!(sh.execute(Cmd::Get { shard: 0, key: 1 }).is_err());
        // Prom and JSON forms.
        let prom = sh
            .execute(Cmd::Stats {
                format: StatsFormat::Prom,
            })
            .unwrap()
            .unwrap();
        assert!(prom.contains("drtm_txn_committed_total"), "{prom}");
        assert!(
            prom.contains("drtm_commit_phase_ns{phase=\"lock\""),
            "{prom}"
        );
        let json = sh
            .execute(Cmd::Stats {
                format: StatsFormat::Json,
            })
            .unwrap()
            .unwrap();
        drtm_obs::jsonlint::validate(&json).expect("stats json must be valid");
    }

    fn exp(name: &'static str, size: usize, out: Option<&str>, gate: bool) -> Cmd {
        Cmd::Experiment {
            name,
            size,
            rates: experiment::find(name).unwrap().default.rates.to_vec(),
            full: false,
            out: out.map(String::from),
            gate,
        }
    }

    /// Every spelling the seven hand-parsed A/B commands accepted still
    /// parses, now through the table lookup.
    #[test]
    fn parse_experiment_spellings() {
        for e in experiment::EXPERIMENTS {
            assert_eq!(
                parse(e.name).unwrap(),
                Some(exp(e.name, e.default.n, None, false))
            );
        }
        for (line, want) in [
            ("breakdown 80", exp("breakdown", 80, None, false)),
            ("pipeline 60", exp("pipeline", 60, None, false)),
            ("contend 40 gate", exp("contend", 40, None, true)),
            ("serve requests 100", exp("serve", 100, None, false)),
            (
                "route 150 json r.json",
                exp("route", 150, Some("r.json"), false),
            ),
            (
                "route json r.json gate",
                exp("route", 200, Some("r.json"), true),
            ),
        ] {
            assert_eq!(parse(line).unwrap(), Some(want), "{line}");
        }
        // `full` in any position after the size and before `gate`.
        for (line, size, out, gate) in [
            ("fig10 full", 120, None, false),
            ("fig10 50 full", 50, None, false),
            ("fig10 full json f.json", 120, Some("f.json"), false),
            ("fig10 json f.json full gate", 120, Some("f.json"), true),
            ("lease requests 90 full gate", 90, None, true),
        ] {
            let Ok(Some(Cmd::Experiment {
                size: n,
                full,
                out: o,
                gate: g,
                ..
            })) = parse(line)
            else {
                panic!("{line}");
            };
            assert_eq!(
                (n, full, o.as_deref(), g),
                (size, true, out, gate),
                "{line}"
            );
        }
        assert!(parse("fig10 full full").is_err(), "given twice");
        assert!(parse("fig10 full json f.json full").is_err(), "given twice");
        assert!(parse("fig10 gate full").is_err(), "`gate` is last");
        assert!(parse("fig10 full 50").is_err(), "the size leads");
        // Unknown experiment name, malformed size, stray words.
        assert!(parse("nosuch 100").is_err());
        assert!(parse("pipeline 12x").is_err());
        assert!(parse("route nope").is_err());
        assert!(parse("route gate 5").is_err());
        assert!(parse("pipeline rates 1,2").is_err(), "not a sweep");
    }

    #[test]
    fn parse_loadcurve_forms() {
        assert_eq!(
            parse("loadcurve").unwrap(),
            Some(exp("loadcurve", 300, None, false))
        );
        assert_eq!(
            parse("loadcurve rates 800,100,400 requests 50 json /tmp/x.json").unwrap(),
            Some(Cmd::Experiment {
                name: "loadcurve",
                size: 50,
                rates: vec![800.0, 100.0, 400.0],
                full: false,
                out: Some("/tmp/x.json".into()),
                gate: false,
            })
        );
        assert!(parse("loadcurve rates").is_err());
        assert!(parse("loadcurve rates 0").is_err());
        assert!(parse("loadcurve rates 5,").is_err());
        assert!(parse("loadcurve bogus 1").is_err());
    }

    /// Every table entry, once, at its default size, through the shell
    /// with `json` + `gate`: the text names every metric the arms
    /// declared, the artifact is valid stamped JSON in the one schema,
    /// and every check of the entry holds.
    /// What the per-command tests used to assert lives on the entries
    /// as named checks.
    #[test]
    fn every_experiment_runs_gated_and_every_check_holds() {
        let mut sh = Shell::new();
        for e in experiment::EXPERIMENTS {
            let path =
                std::env::temp_dir().join(format!("drtm-{}-{}.json", e.name, std::process::id()));
            // `gate` turns any failed check into an error.
            let text = sh
                .execute(exp(e.name, e.default.n, path.to_str(), true))
                .unwrap_or_else(|text| panic!("{text}"))
                .unwrap();
            assert!(
                text.starts_with(&format!("{}: {}", e.name, e.about)),
                "{text}"
            );
            assert!(text.contains("last/first"), "{text}");
            let held = |c: &experiment::Check| text.contains(&format!("[ok] {}", c.0));
            assert!(e.checks.iter().all(held), "{text}");
            let json = std::fs::read_to_string(&path).unwrap();
            std::fs::remove_file(&path).ok();
            drtm_obs::jsonlint::validate(&json).expect("artifact parses");
            let stamp = json.split_once("\"run_cfg\"").expect("stamped").0;
            assert!(stamp.starts_with("{\"stamp\":{\"git_rev\":\""), "{json}");
            assert!(!stamp.contains("\"\"") && stamp.ends_with("Z\","), "{json}");
            assert!(
                json.contains(&format!("\"experiment\":\"{}\",\"size\":", e.name)),
                "{json}"
            );
            assert!(json.contains("\"checks\":["), "{json}");
            let metrics: Vec<&str> = json
                .split("{\"name\":\"")
                .skip(1)
                .filter(|t| t.contains("\"unit\":"))
                .map(|t| t.split('"').next().unwrap())
                .collect();
            assert!(!metrics.is_empty(), "{json}");
            for m in metrics {
                assert!(text.contains(&format!("  {m} (")), "missing {m}: {text}");
            }
        }
    }

    /// A grid given out of order is swept ascending: the gated
    /// "points ascend by offered rate" check holds on it.
    #[test]
    fn loadcurve_sorts_its_grid() {
        let cmd = parse("loadcurve rates 4000,2000 requests 40 gate").unwrap();
        let text = Shell::new().execute(cmd.unwrap()).unwrap().unwrap();
        let (lo, hi) = (text.find("2000/s").unwrap(), text.find("4000/s").unwrap());
        assert!(lo < hi, "{text}");
    }

    /// Script mode stops at the first failed command and reports it;
    /// an interactive session survives it and keeps executing.
    #[test]
    fn scripts_stop_at_the_first_error_interactive_sessions_do_not() {
        let script = "cluster 2\nnosuch\nput 0 1 5\n";
        let (mut sh, sink) = (Shell::new(), &mut std::io::sink());
        assert!(!run_lines(&mut sh, script.as_bytes(), sink, false));
        let get = Cmd::Get { shard: 0, key: 1 };
        let out = sh.execute(get.clone()).unwrap().unwrap();
        assert!(out.contains("not found"), "put ran after the error: {out}");

        let mut sh = Shell::new();
        assert!(run_lines(&mut sh, script.as_bytes(), sink, true));
        let out = sh.execute(get).unwrap().unwrap();
        assert!(out.contains("= 5"), "{out}");
        // A command that fails in `execute` (not only in `parse`) stops
        // a script too; `quit` ends one cleanly.
        let (failing, quit) = ("get 0 1\n".as_bytes(), "quit\nnosuch\n".as_bytes());
        assert!(!run_lines(&mut Shell::new(), failing, sink, false));
        assert!(run_lines(&mut Shell::new(), quit, sink, false));
    }

    /// Output whose reader has gone: every write fails as a closed
    /// pipe's does.
    struct ClosedPipe;

    impl std::io::Write for ClosedPipe {
        fn write(&mut self, _: &[u8]) -> std::io::Result<usize> {
            Err(std::io::ErrorKind::BrokenPipe.into())
        }

        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    /// A session whose reader closes early (`drtm-shell | head`) stops
    /// reading at its first unwritable output and ends well: in a
    /// script the failing command after `help` is never read, and at a
    /// prompt the prompt's own write ends it.
    #[test]
    fn a_closed_output_ends_the_session_quietly() {
        let script = "help\nget 0 1\n".as_bytes();
        assert!(run_lines(&mut Shell::new(), script, &mut ClosedPipe, false));
        assert!(run_lines(&mut Shell::new(), script, &mut ClosedPipe, true));
    }

    #[test]
    fn trace_writes_valid_chrome_json() {
        let mut sh = Shell::new();
        sh.execute(Cmd::Cluster {
            nodes: 2,
            replicas: 1,
        })
        .unwrap();
        sh.execute(Cmd::Put {
            shard: 1,
            key: 3,
            value: 9,
        })
        .unwrap();
        let path = std::env::temp_dir().join(format!("drtm-trace-{}.json", std::process::id()));
        let path_str = path.to_str().unwrap().to_string();
        let out = sh
            .execute(Cmd::Trace {
                path: path_str.clone(),
            })
            .unwrap()
            .unwrap();
        assert!(out.contains("wrote"), "{out}");
        let json = std::fs::read_to_string(&path).unwrap();
        std::fs::remove_file(&path).ok();
        drtm_obs::jsonlint::validate(&json).expect("trace file must be valid JSON");
        assert!(json.contains("\"traceEvents\""), "{json}");
        // The cross-machine put above issued verbs and committed a txn.
        assert!(json.contains("txn_commit"), "{json}");
    }

    #[test]
    fn nic_delta_resets_between_stats() {
        let mut sh = Shell::new();
        sh.execute(Cmd::Cluster {
            nodes: 2,
            replicas: 1,
        })
        .unwrap();
        sh.execute(Cmd::Put {
            shard: 1,
            key: 1,
            value: 1,
        })
        .unwrap();
        let first = sh
            .execute(Cmd::Stats {
                format: StatsFormat::Text,
            })
            .unwrap()
            .unwrap();
        // Immediately re-scraping with no traffic in between: the delta
        // section must be all-zero while the totals persist.
        let second = sh
            .execute(Cmd::Stats {
                format: StatsFormat::Text,
            })
            .unwrap()
            .unwrap();
        let delta_of = |s: &str| {
            s.split("nic delta since last stats:")
                .nth(1)
                .unwrap()
                .to_string()
        };
        assert!(delta_of(&first).contains("atomics="), "{first}");
        for line in delta_of(&second).lines().filter(|l| l.contains("node")) {
            assert!(
                line.contains("reads=0") && line.contains("atomics=0"),
                "second delta should be zero: {line}"
            );
        }
    }
}
