//! What a drain reports per serve pool: each pool's commits and final
//! virtual clock, and the skew of those clocks.

use drtm_net::loadgen::{run_client, ClientCfg};
use drtm_net::server::{Server, ServerCfg};

/// A paced run through the shared queue: the drain carries one row per
/// node, the rows' commits add up to the engine's, the horizon is the
/// latest pool clock, and the dispatch rule leaves both pools with work
/// and their clocks within one NIC ledger window of each other, plus
/// the request that crossed it.
#[test]
fn drain_reports_each_pools_commits_and_clock() {
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
        rate: 4_000.0,
        requests: 400,
        seed: 5,
        conns: 2,
        zero_sum: true,
        cross_prob: 0.1,
        shard_skew: 0.0,
    })
    .expect("client run");
    assert_eq!(report.committed + report.aborted, 400);
    let drained = server.shutdown();
    let pools = &drained.pools;
    assert_eq!(pools.len(), 2, "one row per node");
    let committed: u64 = pools.iter().map(|p| p.committed).sum();
    assert_eq!(committed, drained.snap.committed);
    let latest = pools.iter().map(|p| p.virtual_ns).max();
    assert_eq!(latest, Some(drained.virtual_ns));
    assert!(pools.iter().all(|p| p.committed > 0), "{pools:?}");
    let gap = pools[0].virtual_ns.abs_diff(pools[1].virtual_ns);
    assert!(gap <= 2 * drtm_base::link::WINDOW_NS, "{pools:?}");
    let skew = drained.pool_skew();
    assert!((1.0..1.1).contains(&skew), "pool_skew {skew}");
}
