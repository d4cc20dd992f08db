//! The TCP serving front-end (DESIGN.md §12, §16).
//!
//! Three thread populations cooperate around one admission plane:
//!
//! * the **acceptor** polls a non-blocking listener (exponential
//!   backoff from 100 µs to 5 ms while idle, reset on accept), greets
//!   each connection with [`Msg::Hello`], and spawns its reader/writer
//!   pair;
//! * per-connection **readers** decode frames and submit them. A reader
//!   stops pulling from its socket while the connection's in-flight
//!   window is full — the kernel's TCP flow control then pushes back on
//!   the client, which is the per-connection backpressure story. A
//!   submission shed by the admission plane is answered with a fast
//!   `Rejected` instead (load shedding: overload degrades to rejects,
//!   not latency collapse). A request naming a shard or table the
//!   cluster does not have is a protocol violation: the reader drops
//!   the connection and the engine never sees it;
//! * one **engine** thread steps every node's serve pool on one
//!   [`RoutinePool::serve_group`] loop over the admission plane, in
//!   virtual-time order, executing each request as a real DrTM+R
//!   transaction and pushing the response into the connection's bounded
//!   outbox, which a per-connection **writer** thread flushes — engine
//!   routines never block on socket I/O. Between two requests a
//!   routine takes its machine's log truncation step, and the loop
//!   waiting for work takes every machine's each time it wakes, so a
//!   replicated server's backups fold their redo logs as they serve.
//!
//! The admission plane is one [`QueueGroup`], shaped by
//! [`ServerCfg::route`]:
//!
//! * **`RoutePolicy::Shared`** (default): a single member queue drained
//!   by every pool — no routing, and with no sibling queue, no steals.
//!   Each request goes to the pool furthest behind in virtual time
//!   (DESIGN.md §12).
//! * **`RoutePolicy::Routed`** (DESIGN.md §16): one member queue per
//!   pool. Admission routes each request to its *home* pool
//!   ([`crate::route::home_of`]: majority shard, first-writer
//!   tiebreak), so single-home requests execute as all-local HTM
//!   transactions with zero commit-path verbs; an empty pool steals
//!   the oldest item from the deepest sibling queue, never draining it
//!   below [`STEAL_RESERVE`] items, and only when it is behind the
//!   home pool in virtual time (the same rule). Shedding is two-level: a
//!   per-queue high-water mark plus a group-wide cap preserving the
//!   shared queue's total-backlog fast-reject semantics.
//!
//! Shutdown ([`Server::shutdown`], or SIGINT/SIGTERM via
//! `drtm_base::shutdown`) is graceful: the acceptor stops, the queue
//! closes (new arrivals shed, backlog drains), the engine loop retires
//! once the queue is empty, writers flush every outstanding response,
//! and a final stats scrape is returned.

use std::collections::VecDeque;
use std::io::Write as _;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::time::{Duration, Instant};

use drtm_base::stats::Counter;
use drtm_base::sync::{Condvar, Mutex};
use drtm_core::cluster::{DrtmCluster, EngineOpts, MAX_REPLICAS};
use drtm_core::txn::TxnApi;
use drtm_core::{
    scrape_cluster, Admission, QueueGroup, RecoveryReport, RoutePolicy, RoutinePool, Worker,
};
use drtm_obs::trace::{self, event, event_id, EventKind};
use drtm_obs::{expo, HistSummary, NetStats, RouteStats, Snapshot, TsRing, TsSample};
use drtm_workloads::smallbank::{self, SbCfg, SbInput, SbTxn};

use crate::proto::{self, Msg, RawOp, ScrapeFormat, Status};
use crate::route;

/// Capacity of the in-server time-series ring: at the default sampling
/// cadence this holds the last several minutes of server history.
const TS_RING_CAP: usize = 4096;

/// Steal floor with `route = Routed`: a pool never drains a sibling
/// queue below this many items.
pub const STEAL_RESERVE: usize = 2;

/// Server configuration.
#[derive(Debug, Clone)]
pub struct ServerCfg {
    /// Listen address; use port 0 for an ephemeral port.
    pub addr: String,
    /// Machines in the simulated cluster.
    pub nodes: usize,
    /// SmallBank accounts per machine.
    pub accounts: usize,
    /// Replicas per record (1 = no replication).
    pub replicas: usize,
    /// Serving routines per node (the [`RoutinePool`] size).
    pub routines: usize,
    /// Admission-queue high-water mark: submissions past this depth are
    /// shed with a fast `Rejected`.
    pub high_water: usize,
    /// Per-connection in-flight window: a reader stops pulling from its
    /// socket once this many requests are admitted but unanswered.
    pub window: usize,
    /// Period of the telemetry sampler thread that feeds the in-server
    /// time-series ring; 0 disables the sampler.
    pub sample_ms: u64,
    /// Admission dispatcher: `Shared` (one queue that every pool
    /// serves) or `Routed` (per-pool queues + bounded stealing,
    /// DESIGN.md §16).
    pub route: RoutePolicy,
}

impl Default for ServerCfg {
    fn default() -> Self {
        Self {
            addr: "127.0.0.1:0".into(),
            nodes: 2,
            accounts: 1_000,
            replicas: 1,
            routines: 4,
            high_water: 256,
            window: 128,
            sample_ms: 5,
            route: RoutePolicy::Shared,
        }
    }
}

/// One admitted request travelling from a reader to an engine routine.
struct Job {
    conn: Arc<Conn>,
    id: u64,
    body: JobBody,
    admitted: Instant,
    /// Non-zero for head-sampled requests: the wire-propagated trace id
    /// linking the client-send, queue-wait, routine, and commit-phase
    /// spans of this request into one tree.
    trace: u64,
}

enum JobBody {
    SmallBank(SbInput),
    Raw(Vec<RawOp>),
}

/// In-flight accounting of one connection.
struct Flight {
    in_flight: usize,
    eof: bool,
}

/// Per-connection shared state: the response outbox (flushed by the
/// writer thread) and the in-flight window (throttling the reader).
struct Conn {
    out: Mutex<(VecDeque<Vec<u8>>, bool)>,
    out_cv: Condvar,
    fl: Mutex<Flight>,
    fl_cv: Condvar,
}

impl Conn {
    fn new() -> Self {
        Self {
            out: Mutex::new((VecDeque::new(), false)),
            out_cv: Condvar::new(),
            fl: Mutex::new(Flight {
                in_flight: 0,
                eof: false,
            }),
            fl_cv: Condvar::new(),
        }
    }

    /// Queues an encoded frame for the writer thread.
    fn send(&self, frame: Vec<u8>) {
        self.out.lock().0.push_back(frame);
        self.out_cv.notify_all();
    }

    /// Marks the outbox complete: the writer flushes what's left and
    /// exits.
    fn close_out(&self) {
        self.out.lock().1 = true;
        self.out_cv.notify_all();
    }

    /// Blocks the reader until the in-flight window has room, then
    /// takes a slot. Returns `false` if the connection is closing.
    fn acquire_slot(&self, window: usize) -> bool {
        let mut fl = self.fl.lock();
        while fl.in_flight >= window && !fl.eof {
            fl = self.fl_cv.wait(fl);
        }
        if fl.eof {
            return false;
        }
        fl.in_flight += 1;
        true
    }

    /// Sends the response for an admitted request and releases its
    /// window slot; closes the outbox when the socket hit EOF and this
    /// was the last outstanding request.
    fn complete(&self, frame: Vec<u8>) {
        self.send(frame);
        let mut fl = self.fl.lock();
        fl.in_flight -= 1;
        let drained = fl.eof && fl.in_flight == 0;
        drop(fl);
        self.fl_cv.notify_all();
        if drained {
            self.close_out();
        }
    }

    /// Records reader-side EOF; closes the outbox once nothing is in
    /// flight.
    fn reader_done(&self) {
        let mut fl = self.fl.lock();
        fl.eof = true;
        let drained = fl.in_flight == 0;
        drop(fl);
        self.fl_cv.notify_all();
        if drained {
            self.close_out();
        }
    }
}

/// The shared telemetry plane of one running server.
///
/// Every scrape — the drain snapshot returned by [`Server::shutdown`],
/// a live [`Msg::StatsRequest`] answered mid-burst, and the periodic
/// time-series sampler — funnels through [`Telemetry::snapshot`], so
/// all consumers agree on what each counter means and live and drain
/// scrapes of the same cumulative counter are comparable (monotone).
struct Telemetry {
    cluster: Arc<DrtmCluster>,
    /// The admission plane: readers submit to it, the engine drains it.
    queue: QueueGroup<Job>,
    /// Whether admission routes requests to home pools
    /// ([`RoutePolicy::Routed`]) or feeds the one shared member.
    routed: bool,
    /// Admitted requests whose whole shard set was home-owned (routed
    /// only).
    local: Counter,
    /// Admitted requests with at least one off-home shard (routed only).
    remote: Counter,
    conns_opened: Counter,
    conns_closed: Counter,
    completed: Counter,
    in_flight: AtomicU64,
    /// Ring of periodic sampler output; rendered by
    /// [`ScrapeFormat::Series`] scrapes.
    ts: TsRing,
    started: Instant,
}

impl Telemetry {
    fn new(cluster: Arc<DrtmCluster>, queue: QueueGroup<Job>, routed: bool) -> Self {
        Self {
            cluster,
            queue,
            routed,
            local: Counter::new(),
            remote: Counter::new(),
            conns_opened: Counter::new(),
            conns_closed: Counter::new(),
            completed: Counter::new(),
            in_flight: AtomicU64::new(0),
            ts: TsRing::new(TS_RING_CAP),
            started: Instant::now(),
        }
    }

    /// The single scrape path: the engine scrape with the serving-tier
    /// and routing sections filled in.
    fn snapshot(&self) -> Snapshot {
        let mut s = scrape_cluster(&self.cluster);
        s.net = NetStats {
            conns_opened: self.conns_opened.get(),
            conns_closed: self.conns_closed.get(),
            accepted: self.queue.accepted_total(),
            rejected: self.queue.rejected_total(),
            completed: self.completed.get(),
            in_flight: self.in_flight.load(Ordering::Relaxed),
            queue_depth: self.queue.depth_total() as u64,
            queue_wait_ns: HistSummary::of(self.queue.wait_hist()),
        };
        // The routing section stays disabled/zero on the shared shape.
        if self.routed {
            s.route = RouteStats {
                enabled: true,
                local: self.local.get(),
                remote: self.remote.get(),
                steals: self.queue.steals_total(),
                shed_queue: self.queue.shed_queue(),
                shed_global: self.queue.shed_global(),
                depths: self.queue.depths(),
            };
        }
        s
    }

    /// Renders one scrape in the requested wire format.
    fn render(&self, format: ScrapeFormat) -> Vec<u8> {
        match format {
            ScrapeFormat::Json => expo::render_json(&self.snapshot()).into_bytes(),
            ScrapeFormat::Prom => expo::render_prometheus(&self.snapshot()).into_bytes(),
            ScrapeFormat::Series => self.ts.render_json().into_bytes(),
        }
    }

    /// Takes one time-series sample. Cheaper than a full snapshot: it
    /// reads the live counters directly instead of scraping histograms
    /// and NIC tables, so a few-millisecond cadence stays invisible.
    fn sample(&self) -> TsSample {
        let mut committed = 0;
        let mut aborted = 0;
        let mut abort_reasons = [0u64; drtm_obs::ABORT_REASONS.len()];
        for sh in self.cluster.obs.shards() {
            committed += sh.committed.get();
            aborted += sh.aborted.get();
            for (slot, c) in abort_reasons.iter_mut().zip(sh.aborts.iter()) {
                *slot += c.get();
            }
        }
        TsSample {
            wall_ms: self.started.elapsed().as_millis() as u64,
            queue_depth: self.queue.depth_total() as u64,
            in_flight: self.in_flight.load(Ordering::Relaxed),
            accepted: self.queue.accepted_total(),
            rejected: self.queue.rejected_total(),
            completed: self.completed.get(),
            committed,
            aborted,
            abort_reasons,
        }
    }
}

/// A running serving front-end. Dropping without [`Server::shutdown`]
/// leaks the listener thread; always shut down explicitly.
pub struct Server {
    sb: SbCfg,
    addr: SocketAddr,
    stop: Arc<AtomicBool>,
    tele: Arc<Telemetry>,
    acceptor: Option<std::thread::JoinHandle<()>>,
    sampler: Option<std::thread::JoinHandle<()>>,
    /// The one engine thread: every serve pool's workers when it ends.
    engine: std::thread::JoinHandle<Vec<Vec<Worker>>>,
}

impl Server {
    /// Boots a server: builds and loads the simulated cluster, binds
    /// the listener, and spawns the acceptor and the engine thread.
    ///
    /// A `high_water` of 0 would shed every request, and a cluster
    /// keeps 1 to `nodes` (at most [`MAX_REPLICAS`]) copies of a
    /// record; anything else is refused with
    /// [`std::io::ErrorKind::InvalidInput`] before anything is built.
    pub fn start(cfg: ServerCfg) -> std::io::Result<Server> {
        let invalid =
            |what: String| Err(std::io::Error::new(std::io::ErrorKind::InvalidInput, what));
        if cfg.high_water == 0 {
            return invalid("high-water mark must admit at least one request".into());
        }
        if cfg.replicas == 0 || cfg.replicas > cfg.nodes.min(MAX_REPLICAS) {
            return invalid(format!(
                "need 1 <= replicas <= nodes and replicas <= {MAX_REPLICAS}"
            ));
        }
        let sb = SbCfg {
            nodes: cfg.nodes,
            accounts: cfg.accounts,
            ..Default::default()
        };
        let opts = EngineOpts::builder()
            .replicas(cfg.replicas)
            .region_size(sb.region_size())
            .build();
        let cluster = DrtmCluster::new(cfg.nodes, &sb.schema(), opts);
        smallbank::load(&cluster, &sb);

        // The admission plane. Shared: one member queue bounded by the
        // high-water mark. Routed: per-pool queues with a two-level
        // shed — each queue's high-water scaled so a single hot pool
        // can hoard at most twice its fair share, the group cap keeping
        // the shared shape's total-backlog fast-reject semantics
        // exactly.
        let routed = cfg.route == RoutePolicy::Routed;
        let queue = if routed {
            let pools = cfg.nodes.max(1);
            let per_queue = (2 * cfg.high_water / pools).max(1);
            QueueGroup::new(pools, per_queue, cfg.high_water, STEAL_RESERVE)
        } else {
            QueueGroup::new(1, cfg.high_water, cfg.high_water, 0)
        };
        let listener = TcpListener::bind(&cfg.addr)?;
        let addr = listener.local_addr()?;
        listener.set_nonblocking(true)?;
        let stop = Arc::new(AtomicBool::new(false));
        let tele = Arc::new(Telemetry::new(Arc::clone(&cluster), queue, routed));

        // The engine: one routine pool per node, whose pool id is the
        // node, all on one loop. Shared: every pool serves the one
        // member queue, each item going to the pool furthest behind in
        // virtual time. Routed: each pool serves its own member,
        // stealing from siblings per the group's bounds and the same
        // rule.
        let engine = {
            let tele = Arc::clone(&tele);
            std::thread::Builder::new()
                .name("drtm-engine".into())
                .spawn(move || {
                    let pool = |node: usize| {
                        let routines = 0..cfg.routines.max(1);
                        let seed = |r: usize| 0xC0FFEE + (node * 131 + r) as u64;
                        routines.map(|r| cluster.worker(node, seed(r))).collect()
                    };
                    RoutinePool::serve_group(
                        (0..cfg.nodes).map(pool).collect(),
                        &tele.queue,
                        async |_, _, w, job: Job| execute_job(w, job, &tele).await,
                    )
                })
                .expect("spawn engine")
        };

        // The telemetry sampler: periodically push one cheap sample
        // into the time-series ring until shutdown.
        let sampler = (cfg.sample_ms > 0).then(|| {
            let tele = Arc::clone(&tele);
            let stop = Arc::clone(&stop);
            let period = Duration::from_millis(cfg.sample_ms);
            std::thread::Builder::new()
                .name("drtm-sample".into())
                .spawn(move || {
                    while !stop.load(Ordering::Relaxed) && !drtm_base::shutdown::requested() {
                        tele.ts.push(tele.sample());
                        std::thread::sleep(period);
                    }
                    // One final sample so the series covers the drain.
                    tele.ts.push(tele.sample());
                })
                .expect("spawn sampler")
        });

        // The acceptor: poll for connections until stopped, backing
        // off exponentially while idle (100 µs → 5 ms) so cold
        // connections are greeted fast without a hot spin.
        const ACCEPT_BACKOFF_MIN: Duration = Duration::from_micros(100);
        const ACCEPT_BACKOFF_MAX: Duration = Duration::from_millis(5);
        let acceptor = {
            let stop = Arc::clone(&stop);
            let tele = Arc::clone(&tele);
            let value_lens: Vec<usize> = sb.schema().iter().map(|t| t.value_len).collect();
            let hello = Msg::Hello {
                version: proto::PROTO_VERSION,
                nodes: cfg.nodes as u32,
                accounts: cfg.accounts as u64,
            };
            std::thread::Builder::new()
                .name("drtm-accept".into())
                .spawn(move || {
                    let mut conn_threads = Vec::new();
                    let mut backoff = ACCEPT_BACKOFF_MIN;
                    loop {
                        if stop.load(Ordering::Relaxed) || drtm_base::shutdown::requested() {
                            break;
                        }
                        match listener.accept() {
                            Ok((stream, peer)) => {
                                backoff = ACCEPT_BACKOFF_MIN;
                                tele.conns_opened.inc();
                                event(EventKind::Net, "accept", peer.port() as u64, 0);
                                conn_threads.push(spawn_conn(
                                    stream,
                                    &hello,
                                    Arc::clone(&stop),
                                    Arc::clone(&tele),
                                    cfg.window,
                                    value_lens.clone(),
                                ));
                            }
                            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                                std::thread::sleep(backoff);
                                backoff = (backoff * 2).min(ACCEPT_BACKOFF_MAX);
                            }
                            Err(_) => break,
                        }
                    }
                    for (r, w) in conn_threads {
                        let _ = r.join();
                        let _ = w.join();
                    }
                })
                .expect("spawn acceptor")
        };

        Ok(Server {
            sb,
            addr,
            stop,
            tele,
            acceptor: Some(acceptor),
            sampler,
            engine,
        })
    }

    /// The bound listen address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// Point-in-time stats: the engine scrape with the serving-tier
    /// section filled in. Same path a live [`Msg::StatsRequest`] takes.
    pub fn snapshot(&self) -> Snapshot {
        self.tele.snapshot()
    }

    /// The conservation baseline for this server's dataset.
    pub fn initial_total(&self) -> i64 {
        smallbank::initial_total(&self.sb)
    }

    /// Sums every account balance (only meaningful once quiesced —
    /// i.e. after [`Server::shutdown`] on a zero-sum workload).
    pub fn audit_total(cluster: &Arc<DrtmCluster>, sb: &SbCfg) -> i64 {
        drtm_workloads::audit::smallbank_total(cluster, sb)
    }

    /// Chaos hook: crashes simulated machine `node` under live load —
    /// its leases lapse, in-flight transactions touching it abort, and
    /// the pool keeps draining (aborted requests still get answers, so
    /// conservation audits hold through the fault).
    pub fn crash_node(&self, node: usize) {
        self.tele.cluster.crash(node);
    }

    /// Chaos hook: runs lease-driven recovery for a crashed `node`,
    /// restoring it to the configuration.
    pub fn recover_node(&self, node: usize) -> RecoveryReport {
        drtm_core::recover_node(&self.tele.cluster, node)
    }

    /// Gracefully drains and stops the server: no new connections, new
    /// submissions shed, backlog executed, responses flushed. Returns
    /// the final stats scrape, the quiesced cluster for audits, and the
    /// pools' virtual-time horizon.
    ///
    /// # Panics
    ///
    /// With the engine's panic, if the engine thread panicked (the
    /// drain's `accepted == delivered` assert included).
    pub fn shutdown(mut self) -> Drained {
        event(EventKind::Net, "drain", 0, 0);
        self.stop.store(true, Ordering::SeqCst);
        self.tele.queue.close();
        // The pools' virtual clocks are the denominator of any
        // simulated-throughput claim: committed / (virtual_ns / 1e9) is
        // what an A/B across dispatcher policies must compare, not wall
        // time (verb waits advance virtual clocks without sleeping).
        let pools = match self.engine.join() {
            Ok(pools) => pools,
            Err(panic) => std::panic::resume_unwind(panic),
        };
        let pools: Vec<PoolRow> = (pools.into_iter())
            .map(|workers| PoolRow {
                committed: workers.iter().map(|w| w.obs.committed.get()).sum(),
                virtual_ns: workers.iter().map(|w| w.clock.now()).max().unwrap_or(0),
            })
            .collect();
        let virtual_ns = pools.iter().map(|p| p.virtual_ns).max().unwrap_or(0);
        if let Some(a) = self.acceptor.take() {
            let _ = a.join();
        }
        if let Some(s) = self.sampler.take() {
            let _ = s.join();
        }
        let snap = self.tele.snapshot();
        Drained {
            cluster: Arc::clone(&self.tele.cluster),
            sb: self.sb.clone(),
            snap,
            virtual_ns,
            pools,
        }
    }
}

/// What a graceful [`Server::shutdown`] leaves behind: the final
/// scrape, the quiesced cluster (for conservation audits), the dataset
/// shape, and the serve pools' virtual-time horizon.
pub struct Drained {
    /// Final stats scrape (drain-complete counters).
    pub snap: Snapshot,
    /// The quiesced simulated cluster, for balance audits.
    pub cluster: Arc<DrtmCluster>,
    /// The dataset the server loaded.
    pub sb: SbCfg,
    /// Max virtual clock over every pool worker, ns — the denominator
    /// for committed-per-virtual-second throughput.
    pub virtual_ns: u64,
    /// One row per serve pool, in node order.
    pub pools: Vec<PoolRow>,
}

impl Drained {
    /// How far the busiest pool's clock ran past the average: max pool
    /// clock over mean pool clock (1.0 when every pool ran equally
    /// long). `virtual_ns` is the max, so this is what an uneven split
    /// costs the committed-per-virtual-second figure.
    pub fn pool_skew(&self) -> f64 {
        let clocks = self.pools.iter().map(|p| p.virtual_ns as f64);
        let mean = clocks.sum::<f64>() / self.pools.len().max(1) as f64;
        self.virtual_ns as f64 / mean.max(1.0)
    }
}

/// What one serve pool did over the server's life.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct PoolRow {
    /// Transactions the pool's routines committed.
    pub committed: u64,
    /// The pool's final virtual clock: max over its workers, ns.
    pub virtual_ns: u64,
}

/// Executes one admitted request on a pool routine's worker, completes
/// it back to its connection, then takes the machine's log truncation
/// step (a no-op without replication).
async fn execute_job(w: &mut Worker, job: Job, tele: &Telemetry) {
    let queue_us = (job.admitted.elapsed().as_micros()).min(u32::MAX as u128) as u32;
    if job.trace != 0 {
        // Close the queue-wait span opened at admission and open the
        // routine span covering engine execution; the worker tags the
        // commit-phase spans itself via `set_trace`.
        trace::span_end(EventKind::Net, "queue", job.trace, 0);
        trace::span_begin(EventKind::Net, "routine", job.trace, 0);
        trace::flow_step(job.trace, 0);
    }
    w.set_trace(job.trace);
    let res = match &job.body {
        JobBody::SmallBank(inp) => {
            let body = async |t: &mut dyn TxnApi| smallbank::execute(t, inp).await;
            if inp.txn.read_only() {
                w.run_ro_async(body).await
            } else {
                w.run_async(body).await
            }
        }
        JobBody::Raw(ops) => {
            w.run_async(async |t| {
                for op in ops {
                    match op {
                        RawOp::Read { shard, table, key } => {
                            t.read(*shard as usize, *table, *key).await?;
                        }
                        RawOp::Write {
                            shard,
                            table,
                            key,
                            value,
                        } => {
                            t.write(*shard as usize, *table, *key, value.clone())
                                .await?;
                        }
                    }
                }
                Ok(())
            })
            .await
        }
    };
    let status = match res {
        Ok(()) => Status::Committed,
        Err(_) => Status::Aborted,
    };
    w.set_trace(0);
    if job.trace != 0 {
        trace::span_end(EventKind::Net, "routine", job.trace, 0);
    }
    tele.completed.inc();
    tele.in_flight.fetch_sub(1, Ordering::Relaxed);
    job.conn.complete(proto::encode(&Msg::Response {
        id: job.id,
        status,
        queue_us,
    }));
    w.cluster.truncate_step_at(w.node, w.clock.now());
}

type ConnHandles = (std::thread::JoinHandle<()>, std::thread::JoinHandle<()>);

/// Picks the home pool for a decoded request body: the router's
/// majority-shard/first-writer rule over the body's access list. For
/// SmallBank this reduces to the first-written account's shard
/// (SendPayment and Amalgamate both write `a` first; every other txn
/// touches only `a`).
fn home_of_body(body: &JobBody, nodes: usize) -> (usize, bool) {
    match body {
        JobBody::SmallBank(inp) => {
            if matches!(inp.txn, SbTxn::SendPayment | SbTxn::Amalgamate) {
                route::home_of(&[(inp.a.0, true), (inp.b.0, true)], nodes)
            } else {
                route::home_of(&[(inp.a.0, !inp.txn.read_only())], nodes)
            }
        }
        JobBody::Raw(ops) => {
            let accesses: Vec<(usize, bool)> = ops
                .iter()
                .map(|op| match op {
                    RawOp::Read { shard, .. } => (*shard as usize, false),
                    RawOp::Write { shard, .. } => (*shard as usize, true),
                })
                .collect();
            route::home_of(&accesses, nodes)
        }
    }
}

/// Whether every shard and table a request body uses exists in a
/// cluster of `nodes` machines whose table `t` holds values of
/// `value_lens[t]` bytes, and every raw write carries a whole value of
/// its table. Only the two-account SmallBank types use their second
/// account.
fn in_range(body: &JobBody, nodes: usize, value_lens: &[usize]) -> bool {
    match body {
        JobBody::SmallBank(inp) => {
            let two = matches!(inp.txn, SbTxn::SendPayment | SbTxn::Amalgamate);
            inp.a.0 < nodes && (!two || inp.b.0 < nodes)
        }
        JobBody::Raw(ops) => ops.iter().all(|op| match op {
            RawOp::Read { shard, table, .. } => {
                (*shard as usize) < nodes && (*table as usize) < value_lens.len()
            }
            RawOp::Write {
                shard,
                table,
                value,
                ..
            } => (*shard as usize) < nodes && value_lens.get(*table as usize) == Some(&value.len()),
        }),
    }
}

/// Spawns the reader/writer pair of one accepted connection to a
/// cluster whose table `t` holds values of `value_lens[t]` bytes.
fn spawn_conn(
    stream: TcpStream,
    hello: &Msg,
    stop: Arc<AtomicBool>,
    tele: Arc<Telemetry>,
    window: usize,
    value_lens: Vec<usize>,
) -> ConnHandles {
    let _ = stream.set_nodelay(true);
    let conn = Arc::new(Conn::new());
    conn.send(proto::encode(hello));

    let writer = {
        let conn = Arc::clone(&conn);
        let mut out = stream.try_clone().expect("clone stream");
        std::thread::spawn(move || {
            loop {
                let frame = {
                    let mut o = conn.out.lock();
                    loop {
                        if let Some(f) = o.0.pop_front() {
                            break Some(f);
                        }
                        if o.1 {
                            break None;
                        }
                        o = conn.out_cv.wait(o);
                    }
                };
                match frame {
                    Some(f) => {
                        if out.write_all(&f).is_err() {
                            break;
                        }
                    }
                    None => break,
                }
            }
            let _ = out.flush();
            let _ = out.shutdown(std::net::Shutdown::Both);
        })
    };

    let reader = {
        let conn = Arc::clone(&conn);
        let mut input = stream;
        // A finite read timeout lets an idle connection notice server
        // shutdown instead of blocking in `read` forever.
        let _ = input.set_read_timeout(Some(Duration::from_millis(50)));
        std::thread::spawn(move || {
            loop {
                // Backpressure: no more reads while the window is full.
                if !conn.acquire_slot(window) {
                    break;
                }
                let msg = match proto::read_msg(&mut input) {
                    Ok(Some(m)) => m,
                    Ok(None) => {
                        release_slot(&conn);
                        break; // clean EOF
                    }
                    Err(proto::WireError::Io(e))
                        if e.kind() == std::io::ErrorKind::WouldBlock
                            || e.kind() == std::io::ErrorKind::TimedOut =>
                    {
                        release_slot(&conn);
                        if stop.load(Ordering::Relaxed) || drtm_base::shutdown::requested() {
                            break;
                        }
                        continue;
                    }
                    Err(_) => {
                        release_slot(&conn);
                        break; // protocol violation: drop the conn
                    }
                };
                let (id, sched_ns, body) = match msg {
                    Msg::SmallBank {
                        id,
                        txn,
                        a_shard,
                        a_key,
                        b_shard,
                        b_key,
                        amount,
                        sched_ns,
                    } => (
                        id,
                        sched_ns,
                        JobBody::SmallBank(SbInput {
                            txn: SbTxn::ALL[txn as usize],
                            a: (a_shard as usize, a_key),
                            b: (b_shard as usize, b_key),
                            amount,
                        }),
                    ),
                    Msg::Raw { id, sched_ns, ops } => (id, sched_ns, JobBody::Raw(ops)),
                    Msg::StatsRequest { format } => {
                        // A live scrape: answered inline from the
                        // telemetry plane, never touching the engine
                        // queue or its accept/complete counters.
                        conn.complete(proto::encode(&Msg::StatsResponse {
                            format,
                            body: tele.render(format),
                        }));
                        continue;
                    }
                    _ => {
                        release_slot(&conn);
                        break; // clients must not send server messages
                    }
                };
                if !in_range(&body, tele.cluster.nodes(), &value_lens) {
                    release_slot(&conn);
                    break; // a shard or table the cluster lacks, or a torn value
                }
                // Same deterministic head-sampling decision the client
                // made, recomputed from the request id — no wire bit.
                let tr = trace::trace_for(id);
                // Routed: pick the home pool from the request's shard
                // set before admission. Shared: everything goes to the
                // one member queue, no router.
                let (home, all_local) = if tele.routed {
                    home_of_body(&body, tele.cluster.nodes())
                } else {
                    (0, false)
                };
                tele.in_flight.fetch_add(1, Ordering::Relaxed);
                // The queue span opens before the submit: once queued,
                // the engine may pick the request up and close it.
                if tr != 0 {
                    trace::flow_step(tr, 0);
                    trace::span_begin(EventKind::Net, "queue", tr, 0);
                }
                let job = Job {
                    conn: Arc::clone(&conn),
                    id,
                    body,
                    admitted: Instant::now(),
                    trace: tr,
                };
                if tele.queue.submit(home, job) == Admission::Rejected {
                    // Shed: answer immediately, release the slot — the
                    // engine never sees this request.
                    event(EventKind::Net, "reject", id, 0);
                    if tr != 0 {
                        trace::span_end(EventKind::Net, "queue", tr, 0);
                        trace::flow_end(tr, 0);
                    }
                    tele.in_flight.fetch_sub(1, Ordering::Relaxed);
                    conn.complete(proto::encode(&Msg::Response {
                        id,
                        status: Status::Rejected,
                        queue_us: 0,
                    }));
                } else {
                    event_id(EventKind::Net, "admit", sched_ns, tr, 0);
                    if tele.routed {
                        if all_local {
                            tele.local.inc();
                        } else {
                            tele.remote.inc();
                        }
                        // Routing decision, observable per request:
                        // arg packs all_local (bit 32) over the home
                        // pool index.
                        event(
                            EventKind::Net,
                            "route",
                            ((all_local as u64) << 32) | home as u64,
                            0,
                        );
                    }
                }
            }
            conn.reader_done();
            tele.conns_closed.inc();
        })
    };
    (reader, writer)
}

/// Returns an acquired-but-unused window slot.
fn release_slot(conn: &Conn) {
    let mut fl = conn.fl.lock();
    fl.in_flight -= 1;
    drop(fl);
    conn.fl_cv.notify_all();
}
