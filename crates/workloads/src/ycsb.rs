//! YCSB-style key-value workloads (A/B/C mixes, zipfian skew).
//!
//! Not part of the paper's evaluation, but the standard way downstream
//! users assess a transactional KV store; included so the engine can be
//! compared on neutral ground. One hash table of fixed-size records,
//! zipfian key popularity, a read/update mix, and a cross-machine
//! probability knob.

use drtm_base::SplitMix64;
use drtm_core::cluster::DrtmCluster;
use drtm_core::txn::{TxnApi, TxnError};
use drtm_store::{TableId, TableSpec};

use crate::driver::{RunCfg, Workload};

/// The YCSB table id.
pub const T_KV: TableId = 0;

/// The standard YCSB mixes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum YcsbMix {
    /// Workload A: 50 % reads, 50 % updates.
    A,
    /// Workload B: 95 % reads, 5 % updates.
    B,
    /// Workload C: 100 % reads.
    C,
    /// Workload F: read-modify-write.
    F,
}

impl YcsbMix {
    /// Read fraction of the mix.
    pub fn read_ratio(self) -> f64 {
        match self {
            YcsbMix::A => 0.5,
            YcsbMix::B => 0.95,
            YcsbMix::C => 1.0,
            YcsbMix::F => 0.0, // Every op is a read-modify-write.
        }
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            YcsbMix::A => "A",
            YcsbMix::B => "B",
            YcsbMix::C => "C",
            YcsbMix::F => "F",
        }
    }
}

/// YCSB sizing and behaviour knobs.
#[derive(Debug, Clone)]
pub struct YcsbCfg {
    /// Machines in the cluster.
    pub nodes: usize,
    /// Records per machine.
    pub records: usize,
    /// Value size in bytes.
    pub value_len: usize,
    /// Zipfian skew parameter (0 = uniform; YCSB default 0.99).
    pub theta: f64,
    /// Probability an operation targets another machine.
    pub cross_prob: f64,
    /// The operation mix.
    pub mix: YcsbMix,
}

impl Default for YcsbCfg {
    fn default() -> Self {
        Self {
            nodes: 1,
            records: 100_000,
            value_len: 96,
            theta: 0.99,
            cross_prob: 0.05,
            mix: YcsbMix::A,
        }
    }
}

impl YcsbCfg {
    /// The schema instantiated on every node.
    pub fn schema(&self) -> Vec<TableSpec> {
        vec![TableSpec::hash(T_KV, self.records * 2, self.value_len)]
    }

    /// Region bytes needed per node.
    pub fn region_size(&self) -> usize {
        (self.records * (32 + self.value_len.next_multiple_of(64) + 64) + (4 << 20))
            .next_power_of_two()
    }

    /// Record key of row `r` on `shard`.
    pub fn key(&self, shard: usize, r: u64) -> u64 {
        (shard as u64) << 40 | r
    }

    /// The read-mostly tables of this mix: the KV table on read-heavy
    /// mixes (B, C), none otherwise. It classifies the mix and nothing
    /// more — no engine path caches values. It stays because the
    /// benchmark harness (`perf/src/workloads.rs`) reads it.
    pub fn read_mostly_tables(&self) -> Vec<u32> {
        if self.mix.read_ratio() >= 0.9 {
            vec![T_KV]
        } else {
            Vec::new()
        }
    }
}

/// A zipfian sampler over `[0, n)` (Gray et al., as used by YCSB).
#[derive(Debug, Clone)]
pub struct Zipf {
    n: u64,
    theta: f64,
    alpha: f64,
    zetan: f64,
    eta: f64,
}

impl Zipf {
    /// Builds a sampler for `n` items with skew `theta` (`0 <= theta < 1`;
    /// 0 degenerates to uniform).
    pub fn new(n: u64, theta: f64) -> Self {
        assert!(n > 0);
        assert!((0.0..1.0).contains(&theta), "theta in [0, 1)");
        let zetan: f64 = (1..=n).map(|i| 1.0 / (i as f64).powf(theta)).sum();
        let zeta2: f64 = (1..=2.min(n)).map(|i| 1.0 / (i as f64).powf(theta)).sum();
        Self {
            n,
            theta,
            alpha: 1.0 / (1.0 - theta),
            zetan,
            eta: (1.0 - (2.0 / n as f64).powf(1.0 - theta)) / (1.0 - zeta2 / zetan),
        }
    }

    /// Draws one item (0 is the most popular).
    pub fn sample(&self, rng: &mut SplitMix64) -> u64 {
        if self.theta == 0.0 {
            return rng.below(self.n);
        }
        let u = (rng.next_u64() >> 11) as f64 / (1u64 << 53) as f64;
        let uz = u * self.zetan;
        if uz < 1.0 {
            return 0;
        }
        if uz < 1.0 + 0.5f64.powf(self.theta) {
            return 1;
        }
        ((self.n as f64) * (self.eta * u - self.eta + 1.0).powf(self.alpha)) as u64 % self.n
    }
}

/// One generated operation.
#[derive(Debug, Clone)]
pub struct YcsbOp {
    /// Target shard and row.
    pub shard: usize,
    /// Row index.
    pub row: u64,
    /// Whether this op only reads.
    pub is_read: bool,
    /// Read-modify-write (workload F).
    pub rmw: bool,
}

/// Generates one operation for a worker on `home`.
pub fn gen(cfg: &YcsbCfg, zipf: &Zipf, rng: &mut SplitMix64, home: usize) -> YcsbOp {
    let shard = if cfg.nodes > 1 && rng.chance(cfg.cross_prob) {
        let mut s = rng.below(cfg.nodes as u64 - 1) as usize;
        if s >= home {
            s += 1;
        }
        s
    } else {
        home
    };
    let row = zipf.sample(rng);
    if cfg.mix == YcsbMix::F {
        return YcsbOp {
            shard,
            row,
            is_read: false,
            rmw: true,
        };
    }
    YcsbOp {
        shard,
        row,
        is_read: rng.chance(cfg.mix.read_ratio()),
        rmw: false,
    }
}

/// Executes one YCSB operation as a transaction.
pub async fn execute(
    t: &mut dyn TxnApi,
    cfg: &YcsbCfg,
    op: &YcsbOp,
    stamp: u64,
) -> Result<(), TxnError> {
    let key = cfg.key(op.shard, op.row);
    if op.is_read {
        let _ = t.read(op.shard, T_KV, key).await?;
        return Ok(());
    }
    let mut v = if op.rmw {
        t.read(op.shard, T_KV, key).await?
    } else {
        vec![0u8; cfg.value_len]
    };
    v[..8].copy_from_slice(&stamp.to_le_bytes());
    t.write(op.shard, T_KV, key, v).await
}

impl Workload for YcsbCfg {
    const SLOT_SALT: u64 = 0x4C5B;
    const GEN_SALT: u64 = 0xD00D;
    /// The RNG, the key distribution and the worker's machine.
    type Gen = (SplitMix64, Zipf, usize);
    /// The operation and its index, which a write stamps into the row.
    type Input = (YcsbOp, u64);

    fn nodes(&self) -> usize {
        self.nodes
    }
    fn schema(&self) -> Vec<TableSpec> {
        YcsbCfg::schema(self)
    }
    fn region_size(&self, _run: &RunCfg) -> usize {
        YcsbCfg::region_size(self)
    }
    fn load(&self, cluster: &DrtmCluster) {
        load(cluster, self)
    }
    fn generator(&self, node: usize, _tid: usize, _id: usize, rng: SplitMix64) -> Self::Gen {
        (rng, Zipf::new(self.records as u64, self.theta), node)
    }
    fn next(&self, (rng, zipf, node): &mut Self::Gen, i: u64) -> (&'static str, bool, Self::Input) {
        let op = gen(self, zipf, rng, *node);
        let name = if op.is_read { "read" } else { "update" };
        (name, op.is_read, (op, i))
    }
    async fn execute(&self, t: &mut dyn TxnApi, (op, i): &Self::Input) -> Result<(), TxnError> {
        execute(t, self, op, *i).await
    }
}

/// Loads the YCSB dataset, the stores and backup images at once
/// ([`DrtmCluster::load_shards`]).
pub fn load(cluster: &DrtmCluster, cfg: &YcsbCfg) {
    cluster.load_shards(|shard, seeder| {
        let mut v = vec![0u8; cfg.value_len];
        for r in 0..cfg.records as u64 {
            v[..8].copy_from_slice(&r.to_le_bytes());
            seeder.put(T_KV, cfg.key(shard, r), &v);
        }
    });
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn zipf_is_skewed_and_in_range() {
        let z = Zipf::new(1000, 0.99);
        let mut rng = SplitMix64::new(1);
        let mut counts = vec![0u64; 1000];
        for _ in 0..100_000 {
            let v = z.sample(&mut rng);
            assert!(v < 1000);
            counts[v as usize] += 1;
        }
        // The most popular item dominates; the tail is thin but present.
        assert!(
            counts[0] > counts[500] * 10,
            "{} vs {}",
            counts[0],
            counts[500]
        );
        assert!(counts.iter().filter(|&&c| c > 0).count() > 300);
    }

    #[test]
    fn zipf_theta_zero_is_uniform() {
        let z = Zipf::new(100, 0.0);
        let mut rng = SplitMix64::new(2);
        let mut counts = vec![0u64; 100];
        for _ in 0..100_000 {
            counts[z.sample(&mut rng) as usize] += 1;
        }
        let max = *counts.iter().max().unwrap() as f64;
        let min = *counts.iter().min().unwrap() as f64;
        assert!(max / min < 1.5, "uniform draw too skewed: {max} vs {min}");
    }

    #[test]
    fn mixes_have_expected_read_ratios() {
        let mut rng = SplitMix64::new(3);
        for (mix, want) in [(YcsbMix::A, 0.5), (YcsbMix::B, 0.95), (YcsbMix::C, 1.0)] {
            let cfg = YcsbCfg {
                nodes: 1,
                mix,
                ..Default::default()
            };
            let zipf = Zipf::new(100, 0.5);
            let reads = (0..20_000)
                .filter(|_| gen(&cfg, &zipf, &mut rng, 0).is_read)
                .count() as f64
                / 20_000.0;
            assert!((reads - want).abs() < 0.02, "{mix:?}: {reads}");
        }
    }

    #[test]
    fn end_to_end_on_the_engine() {
        use crate::driver::{run_ycsb, EngineKind, RunCfg};
        let cfg = YcsbCfg {
            nodes: 2,
            records: 200,
            cross_prob: 0.2,
            ..Default::default()
        };
        let run = RunCfg {
            engine: EngineKind::DrtmR,
            threads: 2,
            txns_per_worker: 100,
            ..Default::default()
        };
        let m = run_ycsb(&cfg, &run);
        assert!(m.committed > 0);
        assert!(m.throughput > 0.0);
    }

    #[test]
    fn workload_f_rmw_preserves_values() {
        use crate::driver::{build_ycsb, run_ycsb_on, EngineKind, RunCfg};
        let cfg = YcsbCfg {
            nodes: 1,
            records: 64,
            mix: YcsbMix::F,
            ..Default::default()
        };
        let run = RunCfg {
            engine: EngineKind::DrtmR,
            threads: 2,
            txns_per_worker: 80,
            ..Default::default()
        };
        let (cluster, _) = build_ycsb(&cfg, &run);
        let m = run_ycsb_on(&cfg, &run, &cluster, None);
        assert_eq!(m.committed, 160);
    }
}
