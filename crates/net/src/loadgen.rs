//! Open-loop load generation.
//!
//! A closed-loop client (send, wait for the reply, send again) can
//! never drive a server past saturation: its own waiting throttles the
//! offered load, and measured latency silently excludes the queueing
//! the server imposed — the classic *coordinated omission* trap. This
//! module generates an **open-loop** arrival process instead: request
//! send times are drawn up front from a seeded Poisson process at the
//! configured offered rate, the sender dispatches at those wall-clock
//! times regardless of outstanding replies, and per-request latency is
//! measured from the *scheduled* arrival — a request the server made
//! wait in the socket still pays that wait in the histogram.
//!
//! The schedule is a pure function of `(seed, rate, n)`, so a run is
//! reproducible end to end (same arrivals, same SmallBank inputs).

use std::collections::HashMap;
use std::io::Write as _;
use std::net::TcpStream;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use drtm_base::stats::{Counter, Histogram};
use drtm_base::sync::Mutex;
use drtm_base::SplitMix64;
use drtm_obs::trace::{self, EventKind};
use drtm_workloads::smallbank::{SbCfg, SbTxn};

use crate::proto::{self, Msg, Status, PROTO_VERSION};

/// A precomputed arrival schedule: send offsets from the run start.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Schedule {
    /// Nanosecond offsets, non-decreasing, one per request.
    pub offsets_ns: Vec<u64>,
}

impl Schedule {
    /// Poisson arrivals at `rate_per_sec` (> 0): exponential
    /// inter-arrival gaps `-ln(u)/rate` drawn from a [`SplitMix64`]
    /// seeded with `seed`. Same `(seed, rate, n)` → identical schedule.
    pub fn poisson(seed: u64, rate_per_sec: f64, n: usize) -> Self {
        assert!(rate_per_sec > 0.0, "offered rate must be positive");
        let mut rng = SplitMix64::new(seed);
        let mut at = 0.0f64;
        let offsets_ns = (0..n)
            .map(|_| {
                // Uniform in (0, 1]: never ln(0).
                let u = ((rng.next_u64() >> 11) + 1) as f64 / (1u64 << 53) as f64;
                at += -u.ln() / rate_per_sec * 1e9;
                at as u64
            })
            .collect();
        Self { offsets_ns }
    }

    /// All-at-once burst: every request scheduled at t=0. The tightest
    /// possible overload probe (offered rate ≈ ∞).
    pub fn burst(n: usize) -> Self {
        Self {
            offsets_ns: vec![0; n],
        }
    }
}

/// Client configuration.
#[derive(Debug, Clone)]
pub struct ClientCfg {
    /// Server address, e.g. `127.0.0.1:7070`.
    pub addr: String,
    /// Offered load in requests/second; `0.0` means an all-at-once
    /// burst.
    pub rate: f64,
    /// Total requests to send.
    pub requests: usize,
    /// RNG seed (arrival schedule *and* SmallBank inputs).
    pub seed: u64,
    /// Connections to stripe requests over (round-robin).
    pub conns: usize,
    /// Restrict the mix to send-payment + balance, which is zero-sum
    /// over checking totals — lets the server audit conservation.
    pub zero_sum: bool,
    /// Probability a two-account transaction crosses machines.
    pub cross_prob: f64,
    /// Zipfian skew θ over *home shard* selection: `0.0` keeps today's
    /// uniform pick; higher values concentrate offered load on a few
    /// shards, exercising the routed dispatcher's steal path. Seeded
    /// with the run's seed, so a skewed run reproduces exactly.
    pub shard_skew: f64,
}

impl Default for ClientCfg {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:7070".into(),
            rate: 10_000.0,
            requests: 10_000,
            seed: 1,
            conns: 4,
            zero_sum: false,
            cross_prob: 0.1,
            shard_skew: 0.0,
        }
    }
}

/// Outcome of one open-loop run.
#[derive(Debug)]
pub struct ClientReport {
    /// Requests sent.
    pub sent: u64,
    /// Requests that committed.
    pub committed: u64,
    /// Requests that aborted.
    pub aborted: u64,
    /// Requests shed by admission control.
    pub rejected: u64,
    /// Wall latency of *admitted* requests (committed + aborted),
    /// measured from the scheduled arrival time, ns.
    pub latency: Histogram,
    /// Wall-clock duration of the run, first send to last reply, ns.
    pub elapsed_ns: u64,
    /// Committed requests per wall second.
    pub goodput: f64,
    /// The home-shard zipfian θ this run offered (0 = uniform),
    /// stamped so a skewed artifact is self-describing.
    pub shard_skew: f64,
}

impl ClientReport {
    /// Renders the report as one JSON object (hand-built, no deps).
    pub fn to_json(&self) -> String {
        let mut out = format!(
            "{{\"sent\":{},\"committed\":{},\"aborted\":{},\"rejected\":{}",
            self.sent, self.committed, self.aborted, self.rejected,
        );
        let us = |ns: u64| ns as f64 / 1e3;
        for (lead, v, places) in [
            (",\"goodput\":", self.goodput, 1),
            (",\"elapsed_ms\":", self.elapsed_ns as f64 / 1e6, 1),
            (",\"shard_skew\":", self.shard_skew, 2),
            (",\"latency_us\":{\"mean\":", self.latency.mean() / 1e3, 1),
            (",\"p50\":", us(self.latency.quantile(0.5)), 1),
            (",\"p99\":", us(self.latency.quantile(0.99)), 1),
            (",\"p999\":", us(self.latency.quantile(0.999)), 1),
            (",\"max\":", us(self.latency.max()), 1),
        ] {
            out.push_str(lead);
            drtm_obs::json::number(&mut out, v, places);
        }
        out.push_str("}}");
        out
    }
}

struct ConnShared {
    /// Request id → scheduled arrival instant, inserted by the sender
    /// before the frame hits the socket, removed by the reader.
    pending: Mutex<HashMap<u64, Instant>>,
}

/// The next client run's number; ids below `1 << RUN_BITS` (run 0) are
/// left to requests numbered by hand.
static RUNS: AtomicU64 = AtomicU64::new(1);

/// Drives one open-loop run against a server and collects the report.
///
/// Run `n` of a process numbers its requests from `n <<`
/// [`trace::RUN_BITS`], so no two runs share a trace id. Separate
/// processes (two `drtm-client`s) number alike, and theirs can collide.
pub fn run_client(cfg: &ClientCfg) -> Result<ClientReport, proto::WireError> {
    assert!(cfg.conns >= 1, "need at least one connection");
    let first_id = RUNS.fetch_add(1, Ordering::Relaxed) << trace::RUN_BITS;
    let schedule = if cfg.rate > 0.0 {
        Schedule::poisson(cfg.seed, cfg.rate, cfg.requests)
    } else {
        Schedule::burst(cfg.requests)
    };

    // Connect and learn the topology from the Hello.
    let mut streams = Vec::with_capacity(cfg.conns);
    let mut sb = SbCfg::default();
    for _ in 0..cfg.conns {
        let mut s = TcpStream::connect(&cfg.addr)?;
        s.set_nodelay(true)?;
        match proto::read_msg(&mut s)? {
            Some(Msg::Hello {
                version,
                nodes,
                accounts,
            }) => {
                if version != PROTO_VERSION {
                    return Err(proto::WireError::BadValue("protocol version"));
                }
                sb.nodes = nodes as usize;
                sb.accounts = accounts as usize;
            }
            _ => return Err(proto::WireError::BadValue("greeting")),
        }
        streams.push(s);
    }
    sb.cross_prob = cfg.cross_prob;

    let committed = Counter::new();
    let aborted = Counter::new();
    let rejected = Counter::new();
    let latency = Histogram::new();
    let shared: Vec<Arc<ConnShared>> = (0..cfg.conns)
        .map(|_| {
            Arc::new(ConnShared {
                pending: Mutex::new(HashMap::new()),
            })
        })
        .collect();

    let start = Instant::now();
    let sent = std::thread::scope(|scope| -> Result<u64, proto::WireError> {
        // One reader per connection: match responses to their scheduled
        // send instants and record wall latency.
        let readers: Vec<_> = streams
            .iter()
            .enumerate()
            .map(|(i, s)| {
                let mut r = s.try_clone().expect("clone stream");
                let shared = Arc::clone(&shared[i]);
                let (committed, aborted, rejected, latency) =
                    (&committed, &aborted, &rejected, &latency);
                scope.spawn(move || {
                    while let Ok(Some(msg)) = proto::read_msg(&mut r) {
                        if let Msg::Response { id, status, .. } = msg {
                            let sched_at = shared.pending.lock().remove(&id);
                            match status {
                                Status::Committed => committed.inc(),
                                Status::Aborted => aborted.inc(),
                                Status::Rejected => rejected.inc(),
                            }
                            let tr = trace::trace_for(id);
                            if tr != 0 {
                                trace::span_end(EventKind::Net, "client", tr, 0);
                                // Sheds terminate server-side; the
                                // reject path already ended the flow.
                                if status != Status::Rejected {
                                    trace::flow_end(tr, 0);
                                }
                            }
                            if status != Status::Rejected {
                                if let Some(at) = sched_at {
                                    latency.record(at.elapsed().as_nanos() as u64);
                                }
                            }
                        }
                    }
                })
            })
            .collect();

        // The open-loop sender: dispatch each request at its scheduled
        // offset, never waiting for replies.
        let mut rng = SplitMix64::new(cfg.seed ^ 0x5EED_CAFE);
        // Home-shard skew: a zipfian over nodes, seeded with the run —
        // a skewed offered load concentrates on a few home pools,
        // which is exactly what exercises the routed steal path.
        let zipf = (cfg.shard_skew > 0.0)
            .then(|| drtm_workloads::ycsb::Zipf::new(sb.nodes as u64, cfg.shard_skew));
        let mut sent = 0u64;
        for (i, &off) in schedule.offsets_ns.iter().enumerate() {
            let due = start + Duration::from_nanos(off);
            let now = Instant::now();
            if due > now {
                std::thread::sleep(due - now);
            }
            let id = first_id + i as u64;
            let conn = i % cfg.conns;
            let home = match &zipf {
                Some(z) => z.sample(&mut rng) as usize,
                None => rng.below(sb.nodes as u64) as usize,
            };
            let msg = gen_request(&sb, &mut rng, id, off, cfg.zero_sum, home);
            // Latency clock starts at the *scheduled* time: if this
            // send itself lagged (socket backpressure), the request
            // pays for it.
            shared[conn].pending.lock().insert(id, due);
            let tr = trace::trace_for(id);
            if tr != 0 {
                trace::span_begin(EventKind::Net, "client", tr, 0);
                trace::flow_start(tr, 0);
            }
            proto::write_msg(&mut &streams[conn], &msg)?;
            sent += 1;
        }
        for s in &streams {
            let _ = (&mut &*s).flush();
            let _ = s.shutdown(std::net::Shutdown::Write);
        }
        drop(readers); // scope joins them: all responses (or EOF) seen
        Ok(sent)
    })?;

    let elapsed_ns = start.elapsed().as_nanos() as u64;
    let goodput = committed.get() as f64 / (elapsed_ns as f64 / 1e9);
    Ok(ClientReport {
        sent,
        committed: committed.get(),
        aborted: aborted.get(),
        rejected: rejected.get(),
        latency,
        elapsed_ns,
        goodput,
        shard_skew: cfg.shard_skew,
    })
}

/// Scrapes a live server once: opens a fresh connection, swallows the
/// greeting, sends one [`Msg::StatsRequest`] and returns the rendered
/// body. This is the client side of the live telemetry plane — the
/// scrape shares the drain snapshot's rendering path server-side, so
/// cumulative counters read here are comparable with the final drain.
pub fn scrape(addr: &str, format: proto::ScrapeFormat) -> Result<Vec<u8>, proto::WireError> {
    let mut s = TcpStream::connect(addr)?;
    s.set_nodelay(true)?;
    match proto::read_msg(&mut s)? {
        Some(Msg::Hello { version, .. }) if version == PROTO_VERSION => {}
        _ => return Err(proto::WireError::BadValue("greeting")),
    }
    proto::write_msg(&mut s, &Msg::StatsRequest { format })?;
    match proto::read_msg(&mut s)? {
        Some(Msg::StatsResponse { format: f, body }) if f == format => Ok(body),
        _ => Err(proto::WireError::BadValue("stats response")),
    }
}

/// Generates one SmallBank request on `home`. `zero_sum` restricts the
/// mix to send-payment (75%) + balance (25%), which conserves the
/// checking total so the server can audit conservation after a run.
fn gen_request(
    sb: &SbCfg,
    rng: &mut SplitMix64,
    id: u64,
    sched_ns: u64,
    zero_sum: bool,
    home: usize,
) -> Msg {
    let mut inp = drtm_workloads::smallbank::gen(sb, rng, home);
    if zero_sum {
        inp.txn = if rng.chance(0.25) {
            SbTxn::Balance
        } else {
            SbTxn::SendPayment
        };
    }
    let txn = SbTxn::ALL.iter().position(|t| *t == inp.txn).unwrap() as u8;
    Msg::SmallBank {
        id,
        txn,
        a_shard: inp.a.0 as u32,
        a_key: inp.a.1,
        b_shard: inp.b.0 as u32,
        b_key: inp.b.1,
        amount: inp.amount,
        sched_ns,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Satellite: open-loop determinism — same seed + rate → the
    /// identical arrival schedule, different seed or rate → different.
    #[test]
    fn poisson_schedule_is_deterministic() {
        let a = Schedule::poisson(42, 50_000.0, 4_096);
        let b = Schedule::poisson(42, 50_000.0, 4_096);
        assert_eq!(a, b, "same seed+rate must reproduce exactly");
        let c = Schedule::poisson(43, 50_000.0, 4_096);
        assert_ne!(a, c, "a different seed must differ");
        let d = Schedule::poisson(42, 25_000.0, 4_096);
        assert_ne!(a, d, "a different rate must differ");
    }

    #[test]
    fn poisson_mean_rate_matches_offered() {
        let rate = 100_000.0;
        let n = 50_000;
        let s = Schedule::poisson(7, rate, n);
        assert!(s.offsets_ns.windows(2).all(|w| w[0] <= w[1]));
        let span_s = *s.offsets_ns.last().unwrap() as f64 / 1e9;
        let achieved = n as f64 / span_s;
        assert!(
            (achieved - rate).abs() / rate < 0.05,
            "offered {rate}, scheduled {achieved}"
        );
    }

    #[test]
    fn burst_schedule_is_all_at_zero() {
        let s = Schedule::burst(10);
        assert_eq!(s.offsets_ns, vec![0; 10]);
    }
}
