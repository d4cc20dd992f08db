//! The observability layer end to end, through the facade crate: a
//! small cluster runs local and cross-node transactions, and one scrape
//! rendered three ways — text, Prometheus, JSON — tells the same story
//! as the transactions the workers ran.

use drtm::core::cluster::{DrtmCluster, EngineOpts};
use drtm::core::scrape_cluster;
use drtm::store::TableSpec;
use drtm_obs::{expo, jsonlint};

const T: u32 = 0;

fn val(x: u64) -> Vec<u8> {
    let mut v = vec![0u8; 16];
    v[..8].copy_from_slice(&x.to_le_bytes());
    v
}

#[test]
fn three_renderings_of_one_scrape_agree_with_the_workers() {
    let c = DrtmCluster::new(2, &[TableSpec::hash(T, 256, 16)], EngineOpts::default());
    let key = |shard: usize, k: u64| (shard as u64) << 32 | k;
    for shard in 0..2 {
        for k in 0..4 {
            c.seed_record(shard, T, key(shard, k), &val(100));
        }
    }
    let mut committed = 0;
    for node in 0..2 {
        let mut w = c.worker(node, 1);
        for k in 0..4 {
            // One local read-modify-write, one that also writes remotely.
            let runs = [
                w.run(|t| {
                    let v = t.read(node, T, key(node, k))?;
                    t.write(node, T, key(node, k), v)
                }),
                w.run(|t| {
                    let v = t.read(node, T, key(node, k))?;
                    t.write(1 - node, T, key(1 - node, k), v)
                }),
            ];
            committed += runs.iter().filter(|r| r.is_ok()).count() as u64;
        }
    }
    assert_eq!(committed, 16);

    let snap = scrape_cluster(&c);
    assert_eq!(snap.committed, committed);
    assert_eq!(snap.machines.len(), 2);
    assert!(snap.nic.iter().any(|r| r.count > 0), "remote writes ring");

    let json = expo::render_json(&snap);
    jsonlint::validate(&json).expect("scrape JSON parses");
    assert!(json.starts_with(&format!("{{\"committed\":{committed},")));
    let prom = expo::render_prometheus(&snap);
    assert!(prom.contains(&format!("\ndrtm_txn_committed_total {committed}\n")));
    assert!(prom.contains("\ndrtm_machine_committed_total{node=\"1\"} 8\n"));
    let text = expo::render_text(&snap);
    assert!(text.starts_with(&format!("txns: {committed} committed, ")));
    assert_eq!(expo::scalar(&snap, "", "committed"), Some(committed as f64));
    // Every scalar the table exposes appears in both machine formats.
    for (section, key, _) in expo::scalars(&snap) {
        assert!(json.contains(&format!("\"{key}\":")), "{section}.{key}");
    }
    let families = prom.lines().filter(|l| l.starts_with("# TYPE ")).count();
    assert!(families >= 41 + 4, "41 table rows and 4 tails: {families}");
}
