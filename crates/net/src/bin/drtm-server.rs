//! `drtm-server` — boots the DrTM+R TCP serving front-end and runs
//! until SIGINT/SIGTERM, then drains gracefully and prints a final
//! stats scrape (text; `--prom`/`--json` for machine formats).

use std::time::Duration;

use drtm_core::RoutePolicy;
use drtm_net::server::{Server, ServerCfg};

fn usage() -> ! {
    eprintln!(
        "usage: drtm-server [--addr A] [--nodes N] [--accounts N] [--replicas N]\n\
         \x20                 [--routines N] [--high-water N] [--window N]\n\
         \x20                 [--route on|off]\n\
         \x20                 [--sample-ms N] [--trace FILE] [--audit] [--prom|--json]\n\
         Serves SmallBank transactions over the drtm-net wire protocol until\n\
         SIGINT/SIGTERM, then drains in-flight work and prints a final scrape.\n\
         While running, clients can scrape live stats with a StatsRequest\n\
         frame (see drtm-client --scrape). --route on dispatches each request\n\
         to the pool owning the majority of its shards (per-pool queues with\n\
         bounded work stealing, leaving each queue at least two items);\n\
         off (the default) keeps the one shared queue.\n\
         --high-water must be at least 1.\n\
         --sample-ms sets the in-server time-series sampler period (0\n\
         disables). --trace writes the server's chrome://tracing span export\n\
         to FILE on drain (head-sampled; set DRTM_TRACE_SAMPLE=1 to trace\n\
         every request). --audit sums every account after the drain and\n\
         checks conservation (meaningful when clients send a zero-sum mix)."
    );
    std::process::exit(2);
}

fn main() {
    let mut cfg = ServerCfg {
        addr: "127.0.0.1:7070".into(),
        ..Default::default()
    };
    let mut audit = false;
    let mut format = "text";
    let mut trace_out: Option<String> = None;
    let mut args = std::env::args().skip(1);
    while let Some(a) = args.next() {
        let val = |args: &mut dyn Iterator<Item = String>| -> String {
            args.next().unwrap_or_else(|| usage())
        };
        match a.as_str() {
            "--addr" => cfg.addr = val(&mut args),
            "--nodes" => cfg.nodes = val(&mut args).parse().unwrap_or_else(|_| usage()),
            "--accounts" => cfg.accounts = val(&mut args).parse().unwrap_or_else(|_| usage()),
            "--replicas" => cfg.replicas = val(&mut args).parse().unwrap_or_else(|_| usage()),
            "--routines" => cfg.routines = val(&mut args).parse().unwrap_or_else(|_| usage()),
            "--high-water" => cfg.high_water = val(&mut args).parse().unwrap_or_else(|_| usage()),
            "--window" => cfg.window = val(&mut args).parse().unwrap_or_else(|_| usage()),
            "--route" => cfg.route = RoutePolicy::parse(&val(&mut args)).unwrap_or_else(|| usage()),
            "--sample-ms" => cfg.sample_ms = val(&mut args).parse().unwrap_or_else(|_| usage()),
            "--trace" => trace_out = Some(val(&mut args)),
            "--audit" => audit = true,
            "--prom" => format = "prom",
            "--json" => format = "json",
            _ => usage(),
        }
    }

    drtm_base::shutdown::install();
    let server = match Server::start(cfg) {
        Ok(s) => s,
        Err(e) if e.kind() == std::io::ErrorKind::InvalidInput => {
            eprintln!("drtm-server: {e}");
            usage();
        }
        Err(e) => {
            eprintln!("drtm-server: bind failed: {e}");
            std::process::exit(1);
        }
    };
    eprintln!("drtm-server: listening on {}", server.local_addr());

    while !drtm_base::shutdown::requested() {
        std::thread::sleep(Duration::from_millis(50));
    }
    eprintln!("drtm-server: draining...");
    let initial = server.initial_total();
    let drained = server.shutdown();
    let (snap, cluster, sb) = (drained.snap, drained.cluster, drained.sb);
    eprintln!(
        "drtm-server: drained at virtual t={:.3}s",
        drained.virtual_ns as f64 / 1e9
    );
    match format {
        "prom" => print!("{}", drtm_obs::expo::render_prometheus(&snap)),
        "json" => println!("{}", drtm_obs::expo::render_json(&snap)),
        _ => print!("{}", drtm_obs::expo::render_text(&snap)),
    }
    if let Some(path) = trace_out {
        let json = drtm_obs::trace::export_chrome_json();
        match std::fs::write(&path, &json) {
            Ok(()) => eprintln!("drtm-server: trace written to {path}"),
            Err(e) => eprintln!("drtm-server: trace write failed: {e}"),
        }
    }
    if audit {
        let total = Server::audit_total(&cluster, &sb);
        if total == initial {
            eprintln!("drtm-server: conservation audit OK (total {total})");
        } else {
            eprintln!("drtm-server: CONSERVATION VIOLATION: {total} != {initial}");
            std::process::exit(1);
        }
    }
}
