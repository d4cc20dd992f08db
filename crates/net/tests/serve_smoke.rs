//! End-to-end serving-tier smoke tests: a real TCP server on loopback,
//! a real open-loop client, overload past the admission high-water
//! mark, and a conservation audit after the graceful drain.

use drtm_core::RoutePolicy;
use drtm_net::loadgen::{run_client, scrape, ClientCfg};
use drtm_net::proto::ScrapeFormat;
use drtm_net::server::{Server, ServerCfg};

/// Pulls the integer value of `"key":N` out of the `"net":{...}`
/// object of a stats-JSON scrape.
fn net_counter(json: &str, key: &str) -> u64 {
    let net = json.split("\"net\":{").nth(1).expect("net section");
    let tail = net
        .split(&format!("\"{key}\":"))
        .nth(1)
        .unwrap_or_else(|| panic!("missing {key} in {net}"));
    tail.chars()
        .take_while(|c| c.is_ascii_digit())
        .collect::<String>()
        .parse()
        .expect("integer counter")
}

/// The ISSUE's acceptance scenario in miniature: a seeded burst far
/// past the admission high-water mark must (a) shed load with fast
/// rejects rather than queueing without bound, (b) keep p99 latency of
/// *admitted* requests bounded, (c) conserve money under a zero-sum
/// mix, and (d) shut down cleanly with the counters visible in the
/// final scrape.
#[test]
fn overload_burst_sheds_conserves_and_drains() {
    let server = Server::start(ServerCfg {
        nodes: 2,
        accounts: 200,
        replicas: 1,
        routines: 2,
        high_water: 16,
        window: 2_048, // readers never throttle: the queue is the choke
        ..Default::default()
    })
    .expect("bind loopback");
    let initial = server.initial_total();

    let report = run_client(&ClientCfg {
        addr: server.local_addr().to_string(),
        rate: 0.0, // all-at-once burst: offered rate >> capacity
        requests: 4_000,
        seed: 7,
        conns: 4,
        zero_sum: true,
        cross_prob: 0.2,
        shard_skew: 0.0,
    })
    .expect("client run");

    assert_eq!(report.sent, 4_000);
    assert_eq!(
        report.committed + report.aborted + report.rejected,
        4_000,
        "every request got exactly one response"
    );
    assert!(report.committed > 0, "some requests must commit");
    assert!(
        report.rejected > 0,
        "a burst past high-water must shed load: {report:?}"
    );
    // Bounded latency for admitted work: with a 16-deep queue and fast
    // simulated transactions, nothing should wait anywhere near this.
    assert!(
        report.latency.quantile(0.99) < 2_000_000_000,
        "admitted p99 unbounded: {} ns",
        report.latency.quantile(0.99)
    );

    let drained = server.shutdown();
    let (snap, cluster, sb) = (drained.snap, drained.cluster, drained.sb);
    assert!(drained.virtual_ns > 0, "pools advanced virtual time");
    assert_eq!(snap.net.conns_opened, 4);
    assert_eq!(snap.net.accepted + snap.net.rejected, 4_000);
    assert_eq!(snap.net.rejected, report.rejected);
    assert_eq!(snap.net.completed, snap.net.accepted);
    assert_eq!(snap.net.in_flight, 0, "drain left work in flight");
    assert_eq!(snap.net.queue_depth, 0, "drain left a backlog");
    assert_eq!(
        snap.committed, report.committed,
        "engine commits match client view"
    );
    assert_eq!(snap.net.queue_wait_ns.count, snap.net.accepted);

    // Zero-sum mix: the money supply is exactly conserved.
    assert_eq!(
        Server::audit_total(&cluster, &sb),
        initial,
        "conservation violated"
    );

    // The counters surface in every exposition format.
    let prom = drtm_obs::expo::render_prometheus(&snap);
    assert!(prom.contains(&format!("drtm_net_rejected_total {}", snap.net.rejected)));
    let json = drtm_obs::expo::render_json(&snap);
    drtm_obs::jsonlint::validate(&json).expect("stats json parses");
    assert!(json.contains("\"net\":{"));

    // The shared policy is a one-member queue group, but the scrape
    // still says routing is off: sheds at the member's high water are
    // plain rejects, and pools sharing the member never count a steal.
    assert_eq!(snap.route, drtm_obs::RouteStats::default());
    assert!(!drtm_obs::expo::render_text(&snap).contains("routing:"));
    assert!(prom.contains("drtm_route_enabled 0\n"));
    assert!(prom.contains("drtm_route_steal_total 0\n"));
    assert!(!prom.contains("drtm_route_queue_depth{"));
    assert!(json.contains(
        "\"route\":{\"enabled\":false,\"local\":0,\"remote\":0,\"steals\":0,\
         \"shed_queue\":0,\"shed_global\":0,\"depths\":[]}"
    ));
}

/// A zero high-water mark would shed every request: the server refuses
/// the configuration up front instead of panicking after the load.
#[test]
fn zero_high_water_is_rejected_before_boot() {
    let err = Server::start(ServerCfg {
        high_water: 0,
        ..Default::default()
    })
    .err()
    .expect("high_water 0 must be refused");
    assert_eq!(err.kind(), std::io::ErrorKind::InvalidInput);
}

/// More copies than machines, or than a cluster keeps, is refused up
/// front instead of panicking in the cluster's constructor.
#[test]
fn out_of_range_replicas_are_rejected_before_boot() {
    for (nodes, replicas) in [(2, 0), (2, 3), (10, 9)] {
        let err = Server::start(ServerCfg {
            nodes,
            replicas,
            ..Default::default()
        })
        .err()
        .expect("out-of-range replicas must be refused");
        assert_eq!(
            err.kind(),
            std::io::ErrorKind::InvalidInput,
            "{nodes} x {replicas}"
        );
    }
}

/// A paced run under capacity: nothing is shed, every request commits
/// or user-aborts, and two identically-seeded clients offer identical
/// schedules (open-loop determinism end to end).
#[test]
fn paced_run_under_capacity_rejects_nothing() {
    let server = Server::start(ServerCfg {
        nodes: 2,
        accounts: 400,
        replicas: 1,
        routines: 4,
        high_water: 512,
        window: 256,
        ..Default::default()
    })
    .expect("bind loopback");

    let report = run_client(&ClientCfg {
        addr: server.local_addr().to_string(),
        rate: 2_000.0,
        requests: 600,
        seed: 11,
        conns: 2,
        zero_sum: false,
        cross_prob: 0.1,
        shard_skew: 0.0,
    })
    .expect("client run");

    assert_eq!(report.sent, 600);
    assert_eq!(report.rejected, 0, "under-capacity load must not shed");
    assert_eq!(report.committed + report.aborted, 600);
    let snap = server.shutdown().snap;
    assert_eq!(snap.net.accepted, 600);
    assert_eq!(snap.net.rejected, 0);
    assert_eq!(snap.net.conns_closed, 2);
}

/// A live `StatsRequest` scrape mid-burst and the drain scrape share
/// one rendering path, so cumulative counters must agree: every
/// counter read live is ≤ its drain value, and successive live scrapes
/// are themselves monotone. Also exercises all three scrape formats
/// against a running server.
#[test]
fn live_scrape_mid_burst_agrees_with_drain() {
    let server = Server::start(ServerCfg {
        nodes: 2,
        accounts: 200,
        replicas: 1,
        routines: 2,
        high_water: 64,
        window: 2_048,
        sample_ms: 1,
        ..Default::default()
    })
    .expect("bind loopback");
    let addr = server.local_addr().to_string();

    let live = std::thread::scope(|scope| {
        let client = {
            let addr = addr.clone();
            scope.spawn(move || {
                run_client(&ClientCfg {
                    addr,
                    rate: 0.0,
                    requests: 4_000,
                    seed: 13,
                    conns: 4,
                    zero_sum: true,
                    cross_prob: 0.2,
                    shard_skew: 0.0,
                })
                .expect("client run")
            })
        };
        // Scrape while the burst is (very likely) still in flight; the
        // monotonicity assertions hold regardless of interleaving.
        let mut live = Vec::new();
        for _ in 0..3 {
            let body = scrape(&addr, ScrapeFormat::Json).expect("live scrape");
            live.push(String::from_utf8(body).expect("utf8 json"));
        }
        let _ = client.join().expect("client thread");
        // One more after the run but before the drain.
        live.push(String::from_utf8(scrape(&addr, ScrapeFormat::Json).unwrap()).unwrap());
        live
    });

    // The non-JSON formats also serve live.
    let prom = String::from_utf8(scrape(&addr, ScrapeFormat::Prom).unwrap()).unwrap();
    assert!(prom.contains("drtm_net_accepted_total"));
    let series = String::from_utf8(scrape(&addr, ScrapeFormat::Series).unwrap()).unwrap();
    drtm_obs::jsonlint::validate(&series).expect("series json parses");
    assert!(series.contains("\"series\":["));

    let snap = server.shutdown().snap;
    for json in &live {
        drtm_obs::jsonlint::validate(json).expect("live scrape parses");
    }
    for key in ["accepted", "rejected", "completed", "conns_opened"] {
        let mut prev = 0;
        for json in &live {
            let v = net_counter(json, key);
            assert!(v >= prev, "{key} went backwards live: {v} < {prev}");
            prev = v;
        }
        let drain = match key {
            "accepted" => snap.net.accepted,
            "rejected" => snap.net.rejected,
            "completed" => snap.net.completed,
            _ => snap.net.conns_opened,
        };
        assert!(
            drain >= prev,
            "{key}: drain {drain} below last live scrape {prev}"
        );
    }
    // The post-run live scrape saw the whole burst accounted for.
    let last = live.last().unwrap();
    assert_eq!(
        net_counter(last, "accepted") + net_counter(last, "rejected"),
        4_000
    );
    // The sampler populated the time-series ring, and its cumulative
    // columns are monotone too.
    let ts = server_series_check(&series);
    assert!(ts > 0, "sampler produced no samples");
}

/// Asserts the time-series scrape's cumulative columns are monotone
/// and returns the sample count.
fn server_series_check(series: &str) -> usize {
    let mut count = 0;
    let mut prev = (0u64, 0u64, 0u64);
    for obj in series.split("{\"wall_ms\":").skip(1) {
        let grab = |key: &str| -> u64 {
            obj.split(&format!("\"{key}\":"))
                .nth(1)
                .map(|t| {
                    t.chars()
                        .take_while(|c| c.is_ascii_digit())
                        .collect::<String>()
                        .parse()
                        .unwrap_or(0)
                })
                .unwrap_or(0)
        };
        let cur = (grab("accepted"), grab("rejected"), grab("completed"));
        assert!(
            cur.0 >= prev.0 && cur.1 >= prev.1 && cur.2 >= prev.2,
            "time series not monotone: {cur:?} after {prev:?}"
        );
        prev = cur;
        count += 1;
    }
    count
}

/// Stats-only traffic is answered at the connection reader, never the
/// engine: any number of live scrapes must leave the submit queue
/// untouched — no admission, no delivery, no slot held — so an operator
/// polling metrics can never displace transaction work behind a full
/// queue. (The pool's drain audit separately asserts
/// `accepted == delivered`, which a stats request sneaking through the
/// queue would break.)
#[test]
fn stats_scrapes_never_consume_submit_queue_slots() {
    let server = Server::start(ServerCfg {
        nodes: 2,
        accounts: 100,
        replicas: 1,
        routines: 2,
        high_water: 2, // tiny queue: one leaked slot would reject scrapes
        ..Default::default()
    })
    .expect("bind loopback");
    let addr = server.local_addr().to_string();

    for format in [ScrapeFormat::Json, ScrapeFormat::Prom, ScrapeFormat::Series] {
        for _ in 0..16 {
            scrape(&addr, format).expect("stats scrape answered");
        }
    }
    // Live view: nothing was admitted (or shed) on behalf of scrapes.
    let json = String::from_utf8(scrape(&addr, ScrapeFormat::Json).unwrap()).unwrap();
    assert_eq!(net_counter(&json, "accepted"), 0);
    assert_eq!(net_counter(&json, "rejected"), 0);

    let snap = server.shutdown().snap;
    assert_eq!(snap.net.accepted, 0, "stats requests consumed queue slots");
    assert_eq!(snap.net.rejected, 0, "stats requests hit admission control");
    assert_eq!(snap.net.completed, 0, "stats requests reached a routine");
    assert_eq!(snap.net.in_flight, 0);
    assert_eq!(snap.net.queue_depth, 0);
}

/// The routed dispatcher under the same overload burst: a skewed
/// offered load lands on a few home queues, sibling pools steal, the
/// burst sheds through the two-level test, and the drain holds the
/// conservation audit plus the per-queue `accepted == delivered`
/// invariant (asserted inside `serve_group`; re-checked here from the
/// scrape's route section).
#[test]
fn routed_burst_steals_sheds_conserves_and_drains() {
    let server = Server::start(ServerCfg {
        nodes: 2,
        accounts: 200,
        replicas: 1,
        routines: 2,
        high_water: 16,
        window: 2_048,
        route: RoutePolicy::Routed,
        ..Default::default()
    })
    .expect("bind loopback");
    let initial = server.initial_total();

    let report = run_client(&ClientCfg {
        addr: server.local_addr().to_string(),
        rate: 0.0,
        requests: 4_000,
        seed: 7,
        conns: 4,
        zero_sum: true,
        cross_prob: 0.2,
        shard_skew: 0.9, // skewed home shards: the steal path must fire
    })
    .expect("client run");

    assert_eq!(report.sent, 4_000);
    assert_eq!(
        report.committed + report.aborted + report.rejected,
        4_000,
        "every request got exactly one response"
    );
    assert!(report.committed > 0);
    assert!(report.rejected > 0, "a burst past high-water must shed");

    let drained = server.shutdown();
    let snap = &drained.snap;
    assert!(drained.virtual_ns > 0);
    assert!(snap.route.enabled, "routed server must report route stats");
    assert_eq!(
        snap.route.local + snap.route.remote,
        snap.net.accepted,
        "every admission was routed exactly once"
    );
    assert!(
        snap.route.local > 0,
        "a zero-sum SmallBank mix has single-home requests"
    );
    assert_eq!(
        snap.route.shed_queue + snap.route.shed_global,
        snap.net.rejected,
        "every shed is charged to exactly one level"
    );
    assert!(
        snap.route.depths.iter().all(|&d| d == 0),
        "drain left per-pool backlog: {:?}",
        snap.route.depths
    );
    assert_eq!(
        snap.net.completed, snap.net.accepted,
        "accepted == delivered == completed across all queues"
    );
    assert_eq!(snap.net.in_flight, 0);
    assert_eq!(
        Server::audit_total(&drained.cluster, &drained.sb),
        initial,
        "conservation violated under routing"
    );

    // Routing counters surface in the machine formats.
    let prom = drtm_obs::expo::render_prometheus(snap);
    assert!(prom.contains("drtm_route_enabled 1"));
    assert!(prom.contains(&format!("drtm_route_local_total {}", snap.route.local)));
    let json = drtm_obs::expo::render_json(snap);
    drtm_obs::jsonlint::validate(&json).expect("stats json parses");
    assert!(json.contains("\"route\":{\"enabled\":true"));
}

/// Chaos on the steal path: crash one pool's simulated machine while
/// its queue still holds backlog. The pool keeps draining (transactions
/// touching the dead node abort but still answer), siblings keep
/// stealing, recovery restores the node, and the drain audit holds —
/// `accepted == delivered` per queue with zero in-flight leftovers.
#[test]
fn routed_drain_survives_node_crash_mid_backlog() {
    let server = Server::start(ServerCfg {
        nodes: 2,
        accounts: 200,
        replicas: 2, // a backup exists: recovery can restore node 1
        routines: 2,
        high_water: 64,
        window: 2_048,
        route: RoutePolicy::Routed,
        ..Default::default()
    })
    .expect("bind loopback");

    let addr = server.local_addr().to_string();
    let report = std::thread::scope(|scope| {
        let client = scope.spawn(move || {
            run_client(&ClientCfg {
                addr,
                rate: 0.0, // burst: queues hold backlog when the crash lands
                requests: 2_000,
                seed: 31,
                conns: 4,
                zero_sum: true,
                cross_prob: 0.2,
                shard_skew: 0.9,
            })
            .expect("client run")
        });
        // Land the crash mid-drain, then recover while load continues.
        std::thread::sleep(std::time::Duration::from_millis(20));
        server.crash_node(1);
        std::thread::sleep(std::time::Duration::from_millis(20));
        server.recover_node(1);
        client.join().expect("client thread")
    });

    assert_eq!(
        report.committed + report.aborted + report.rejected,
        2_000,
        "every request answered through the crash"
    );
    let drained = server.shutdown();
    let snap = &drained.snap;
    // The serve_group drain already asserted accepted == delivered per
    // queue (it would have panicked the pump thread otherwise); the
    // scrape-level restatement:
    assert_eq!(snap.net.completed, snap.net.accepted);
    assert_eq!(snap.net.in_flight, 0);
    assert!(snap.route.depths.iter().all(|&d| d == 0));
    assert_eq!(snap.route.local + snap.route.remote, snap.net.accepted);
}

/// The ISSUE's acceptance scenario: requests against a running server
/// produce an exported trace in which one trace id links the
/// client-send span, the queue-wait span, the routine span, the
/// commit-phase spans, and the request flow arrows.
#[test]
fn single_request_trace_links_client_queue_routine_and_phases() {
    use drtm_net::proto::{self, Msg};
    use drtm_obs::trace::{self, EvPhase, EventKind};
    use std::net::TcpStream;

    // Trace every request: this test asserts on complete span trees,
    // not on the sampling budget (covered by obs unit tests).
    trace::set_sample_every(1);
    let server = Server::start(ServerCfg {
        nodes: 2,
        accounts: 200,
        replicas: 1,
        routines: 2,
        high_water: 256,
        window: 64,
        ..Default::default()
    })
    .expect("bind loopback");

    let report = run_client(&ClientCfg {
        addr: server.local_addr().to_string(),
        rate: 5_000.0,
        requests: 64,
        seed: 23,
        conns: 1,
        zero_sum: true,
        cross_prob: 0.2,
        shard_skew: 0.0,
    })
    .expect("client run");
    assert!(report.committed > 0);
    // Requests numbered by hand from `OWN`, below every client run's
    // range (`trace::RUN_BITS`) and above the other hand-numbered
    // tests' ids, carry trace ids that no concurrently running test
    // shares.
    const OWN: u64 = 1 << 30;
    let mut conn = TcpStream::connect(server.local_addr()).expect("connect");
    proto::read_msg(&mut conn).expect("greeting");
    for id in OWN..OWN + 16 {
        let balance = Msg::SmallBank {
            id,
            txn: 1,
            a_shard: (id % 2) as u32,
            a_key: id % 200,
            b_shard: 0,
            b_key: 0,
            amount: 0,
            sched_ns: 0,
        };
        proto::write_msg(&mut conn, &balance).expect("send");
        let reply = proto::read_msg(&mut conn).expect("reply");
        assert!(
            matches!(reply, Some(Msg::Response { id: r, .. }) if r == id),
            "{reply:?}"
        );
    }
    drop(conn);
    let _ = server.shutdown();

    // Group every traced event by trace id across all thread rings.
    let mut by_id: std::collections::HashMap<u64, Vec<drtm_obs::trace::TraceEvent>> =
        std::collections::HashMap::new();
    for (_, evs) in trace::export_streams() {
        for ev in evs {
            if ev.id != 0 {
                by_id.entry(ev.id).or_default().push(ev);
            }
        }
    }
    let has = |evs: &[drtm_obs::trace::TraceEvent], label: &str, ph: EvPhase| {
        evs.iter().any(|e| e.label == label && e.ph == ph)
    };
    // At least one request's whole journey survived the rings: client
    // send/receive, queue wait, routine execution, commit phases, and
    // the flow arrows tying them into one tree in the trace viewer.
    let complete = by_id.values().find(|evs| {
        has(evs, "client", EvPhase::Begin)
            && has(evs, "client", EvPhase::End)
            && has(evs, "queue", EvPhase::Begin)
            && has(evs, "queue", EvPhase::End)
            && has(evs, "routine", EvPhase::Begin)
            && has(evs, "routine", EvPhase::End)
            && evs
                .iter()
                .any(|e| e.kind == EventKind::Phase && e.ph == EvPhase::Complete)
            && has(evs, trace::FLOW_LABEL, EvPhase::FlowStart)
            && has(evs, trace::FLOW_LABEL, EvPhase::FlowEnd)
    });
    assert!(
        complete.is_some(),
        "no trace id links client+queue+routine+phase spans; ids seen: {}",
        by_id.len()
    );
    // The reader opens the queue span before the submit that lets the
    // engine close it: each request of this test's own range has one
    // queue Begin and one End, in that order.
    for id in OWN..OWN + 16 {
        let evs = &by_id[&trace::trace_for(id)];
        let edge = |ph| {
            let queue = evs.iter().filter(|e| e.label == "queue" && e.ph == ph);
            let wall: Vec<u64> = queue.map(|e| e.wall_ns).collect();
            assert_eq!(wall.len(), 1, "request {id}: queue {ph:?} edges {wall:?}");
            wall[0]
        };
        let (b, e) = (edge(EvPhase::Begin), edge(EvPhase::End));
        assert!(
            b <= e,
            "request {id}: queue span ends at {e} before it begins at {b}"
        );
    }
    // A committed read-write request carries the full phase set.
    let phases: std::collections::HashSet<&str> = by_id
        .values()
        .flatten()
        .filter(|e| e.kind == EventKind::Phase)
        .map(|e| e.label)
        .collect();
    for want in ["execute", "lock", "validate", "htm", "unlock"] {
        assert!(
            phases.contains(want),
            "missing phase span {want}: {phases:?}"
        );
    }
    // The rendered export is valid JSON and shows the flow arrows.
    let json = trace::export_chrome_json();
    drtm_obs::jsonlint::validate(&json).expect("trace json parses");
    assert!(json.contains("\"ph\":\"s\"") && json.contains("\"ph\":\"f\""));
}

/// A request naming a shard or table the cluster lacks, or writing a
/// value of the wrong length for its table, is a protocol violation:
/// the reader drops its connection before the engine or the router
/// sees it, so no client can panic the one engine thread. Each
/// bad form closes its own connection; a second client is still
/// served, and the drain conserves money.
/// Two client runs in one process send under disjoint trace ids: each
/// request of the second run opens exactly one queue span on the
/// server. (Numbered from 0 by both runs, each id had two.)
#[test]
fn two_client_runs_never_share_a_trace_id() {
    use drtm_obs::trace::{self, EvPhase, EventKind};

    trace::set_sample_every(1);
    let server = Server::start(ServerCfg {
        nodes: 2,
        accounts: 200,
        replicas: 1,
        routines: 2,
        high_water: 256,
        window: 64,
        ..Default::default()
    })
    .expect("bind loopback");
    let cfg = ClientCfg {
        addr: server.local_addr().to_string(),
        rate: 5_000.0,
        requests: 32,
        seed: 29,
        conns: 1,
        zero_sum: true,
        cross_prob: 0.2,
        shard_skew: 0.0,
    };
    run_client(&cfg).expect("first run");
    let between = trace::wall_ns();
    let report = run_client(&cfg).expect("second run");
    assert_eq!(report.sent, 32);
    let _ = server.shutdown();

    // The sender runs on this thread: its ring, found by a marker,
    // holds the second run's client spans.
    trace::event(EventKind::Net, "two-runs-marker", 0, 0);
    let streams = trace::export_streams();
    let mine = streams
        .iter()
        .find(|(_, evs)| evs.iter().any(|e| e.label == "two-runs-marker"))
        .map(|(_, evs)| evs)
        .expect("this thread's ring");
    let second: Vec<u64> = mine
        .iter()
        .filter(|e| e.label == "client" && e.ph == EvPhase::Begin && e.wall_ns > between)
        .map(|e| e.id)
        .collect();
    assert_eq!(second.len(), 32, "one client span per request");
    for id in second {
        let queued = streams
            .iter()
            .flat_map(|(_, evs)| evs)
            .filter(|e| e.id == id && e.label == "queue" && e.ph == EvPhase::Begin)
            .count();
        assert_eq!(queued, 1, "trace id {id}: queue Begin spans");
    }
}

#[test]
fn out_of_range_requests_drop_the_connection_and_spare_the_engine() {
    use drtm_net::proto::{self, Msg, RawOp};
    use std::net::TcpStream;

    let server = Server::start(ServerCfg {
        nodes: 2,
        accounts: 200,
        replicas: 1,
        routines: 2,
        ..Default::default()
    })
    .expect("bind loopback");
    let initial = server.initial_total();
    let raw = |op| Msg::Raw {
        id: 1,
        sched_ns: 0,
        ops: vec![op],
    };
    let bad = [
        raw(RawOp::Read {
            shard: 2,
            table: 0,
            key: 1,
        }),
        raw(RawOp::Write {
            shard: 0,
            table: 99,
            key: 1,
            value: vec![0; 40],
        }),
        raw(RawOp::Write {
            shard: 0,
            table: 0,
            key: 1,
            value: vec![0; 1],
        }),
        Msg::SmallBank {
            id: 1,
            txn: 0,
            a_shard: 2,
            a_key: 1,
            b_shard: 0,
            b_key: 2,
            amount: 5,
            sched_ns: 0,
        },
    ];
    for msg in &bad {
        let mut conn = TcpStream::connect(server.local_addr()).expect("connect");
        conn.set_read_timeout(Some(std::time::Duration::from_secs(10)))
            .unwrap();
        let hello = proto::read_msg(&mut conn).expect("greeting");
        assert!(
            matches!(hello, Some(Msg::Hello { nodes: 2, .. })),
            "{hello:?}"
        );
        proto::write_msg(&mut conn, msg).expect("send");
        let reply = proto::read_msg(&mut conn);
        assert!(matches!(reply, Ok(None)), "{msg:?} got {reply:?}");
    }
    let report = run_client(&ClientCfg {
        addr: server.local_addr().to_string(),
        rate: 0.0,
        requests: 200,
        seed: 3,
        conns: 1,
        zero_sum: true,
        cross_prob: 0.2,
        shard_skew: 0.0,
    })
    .expect("a second client is served");
    assert_eq!(report.committed + report.aborted, 200, "{report:?}");
    let drained = server.shutdown();
    assert_eq!(drained.snap.net.accepted, 200);
    assert_eq!(Server::audit_total(&drained.cluster, &drained.sb), initial);
}

/// A replicated server folds its redo logs as it serves: each pool
/// routine takes its machine's truncation step after every request, so
/// after a drain the backups' logs hold only what the last requests
/// appended after a backup's last step, not one entry per committed
/// write. The bound is `TAIL` redo entries of SmallBank's 40-byte
/// values (69 bytes each), where ten runs left at most four; with
/// nothing truncating, the same run leaves about 3 000 (207 KB).
#[test]
fn replicated_server_truncates_its_logs() {
    const TAIL: usize = 64;
    let server = Server::start(ServerCfg {
        nodes: 2,
        accounts: 200,
        replicas: 2,
        routines: 2,
        high_water: 4_096,
        window: 2_048,
        ..Default::default()
    })
    .expect("bind loopback");
    let report = run_client(&ClientCfg {
        addr: server.local_addr().to_string(),
        rate: 0.0,
        requests: 2_000,
        seed: 17,
        conns: 2,
        zero_sum: true,
        cross_prob: 0.2,
        shard_skew: 0.0,
    })
    .expect("client run");
    assert_eq!(report.rejected, 0);
    assert!(report.committed > 1_000, "{report:?}");
    let drained = server.shutdown();
    let left = drained.cluster.logs.bytes();
    assert!(
        left <= TAIL * 69,
        "{left} unapplied log bytes after the drain"
    );
}
