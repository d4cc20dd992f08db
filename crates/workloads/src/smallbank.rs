//! SmallBank: six banking transactions over skewed accounts (§7.1).
//!
//! Two hash tables (SAVINGS, CHECKING) keyed by account id; accounts are
//! partitioned across machines. Access is skewed — a small hot set
//! receives most requests — and the two-account transactions
//! (send-payment, amalgamate) pick their second account on another
//! machine with a configurable probability, the knob Figures 13–16
//! sweep.

use drtm_base::SplitMix64;
use drtm_core::cluster::DrtmCluster;
use drtm_core::txn::{TxnApi, TxnError};
use drtm_store::{TableId, TableSpec};

use crate::driver::{RunCfg, Workload};

/// SAVINGS table id.
pub const T_SAVINGS: TableId = 0;
/// CHECKING table id.
pub const T_CHECKING: TableId = 1;

/// SmallBank sizing and behaviour knobs.
#[derive(Debug, Clone)]
pub struct SbCfg {
    /// Machines in the cluster.
    pub nodes: usize,
    /// Accounts per machine.
    pub accounts: usize,
    /// Fraction of accounts forming the hot set.
    pub hot_fraction: f64,
    /// Probability an access goes to the hot set.
    pub hot_prob: f64,
    /// Probability the second account of SP/AMG lives on another
    /// machine (the paper sweeps 1 %, 5 %, 10 %).
    pub cross_prob: f64,
}

impl Default for SbCfg {
    fn default() -> Self {
        Self {
            nodes: 1,
            accounts: 100_000,
            hot_fraction: 0.04,
            hot_prob: 0.9,
            cross_prob: 0.01,
        }
    }
}

impl SbCfg {
    /// The schema instantiated on every node.
    pub fn schema(&self) -> Vec<TableSpec> {
        vec![
            TableSpec::hash(T_SAVINGS, self.accounts * 2, 40),
            TableSpec::hash(T_CHECKING, self.accounts * 2, 40),
        ]
    }

    /// Region bytes needed per node.
    pub fn region_size(&self) -> usize {
        (self.accounts * 2 * (16 * 2 + 64) + (4 << 20)).next_power_of_two()
    }

    /// Account key for account `a` of `shard`.
    pub fn acct(&self, shard: usize, a: u64) -> u64 {
        (shard as u64) << 32 | a
    }

    /// Draws a (skewed) account id on `shard`.
    pub fn pick_account(&self, rng: &mut SplitMix64, shard: usize) -> u64 {
        let hot = ((self.accounts as f64 * self.hot_fraction) as u64).max(1);
        let a = if rng.chance(self.hot_prob) {
            rng.below(hot)
        } else {
            rng.below(self.accounts as u64)
        };
        self.acct(shard, a)
    }

    /// Draws the second shard of a two-account transaction.
    pub fn pick_second_shard(&self, rng: &mut SplitMix64, home: usize) -> usize {
        if self.nodes > 1 && rng.chance(self.cross_prob) {
            let mut s = rng.below(self.nodes as u64 - 1) as usize;
            if s >= home {
                s += 1;
            }
            s
        } else {
            home
        }
    }
}

/// The six transaction types with the paper's mix (Table 5):
/// SP 25 %, BAL 15 %, DC 15 %, WC 15 %, TS 15 %, AMG 15 %.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum SbTxn {
    /// Send-payment: checking A → checking B (two accounts).
    SendPayment,
    /// Balance: read both balances (read-only).
    Balance,
    /// Deposit-checking.
    DepositChecking,
    /// Write-check (withdraw from checking).
    WriteCheck,
    /// Transfer-to-savings.
    TransactSavings,
    /// Amalgamate: move everything from A to B's checking (two
    /// accounts).
    Amalgamate,
}

impl SbTxn {
    /// Draws a type according to the mix.
    pub fn pick(rng: &mut SplitMix64) -> Self {
        match rng.below(100) {
            0..=24 => SbTxn::SendPayment,
            25..=39 => SbTxn::Balance,
            40..=54 => SbTxn::DepositChecking,
            55..=69 => SbTxn::WriteCheck,
            70..=84 => SbTxn::TransactSavings,
            _ => SbTxn::Amalgamate,
        }
    }

    /// Whether the type is read-only.
    pub fn read_only(self) -> bool {
        matches!(self, SbTxn::Balance)
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            SbTxn::SendPayment => "send-payment",
            SbTxn::Balance => "balance",
            SbTxn::DepositChecking => "deposit-checking",
            SbTxn::WriteCheck => "write-check",
            SbTxn::TransactSavings => "transact-savings",
            SbTxn::Amalgamate => "amalgamate",
        }
    }

    /// All six types.
    pub const ALL: [SbTxn; 6] = [
        SbTxn::SendPayment,
        SbTxn::Balance,
        SbTxn::DepositChecking,
        SbTxn::WriteCheck,
        SbTxn::TransactSavings,
        SbTxn::Amalgamate,
    ];
}

/// Input of one SmallBank transaction (fixed before execution).
#[derive(Debug, Clone)]
pub struct SbInput {
    /// Transaction type.
    pub txn: SbTxn,
    /// First account (home shard).
    pub a: (usize, u64),
    /// Second account (SP/AMG only; possibly on another machine).
    pub b: (usize, u64),
    /// Amount in cents.
    pub amount: u64,
}

/// Generates an input for a worker on `home` shard.
pub fn gen(cfg: &SbCfg, rng: &mut SplitMix64, home: usize) -> SbInput {
    let txn = SbTxn::pick(rng);
    let a = (home, cfg.pick_account(rng, home));
    let second = cfg.pick_second_shard(rng, home);
    let mut b = (second, cfg.pick_account(rng, second));
    if b == a {
        b.1 = ((b.1 + 1) % cfg.accounts as u64) | ((b.0 as u64) << 32);
    }
    SbInput {
        txn,
        a,
        b,
        amount: rng.range(1, 100),
    }
}

impl Workload for SbCfg {
    const SLOT_SALT: u64 = 0x5B;
    const GEN_SALT: u64 = 0xFACE;
    /// The RNG and the worker's machine.
    type Gen = (SplitMix64, usize);
    type Input = SbInput;

    fn nodes(&self) -> usize {
        self.nodes
    }
    fn schema(&self) -> Vec<TableSpec> {
        SbCfg::schema(self)
    }
    fn region_size(&self, _run: &RunCfg) -> usize {
        SbCfg::region_size(self)
    }
    fn load(&self, cluster: &DrtmCluster) {
        load(cluster, self)
    }
    fn generator(&self, node: usize, _tid: usize, _id: usize, rng: SplitMix64) -> Self::Gen {
        (rng, node)
    }
    fn next(&self, (rng, node): &mut Self::Gen, _i: u64) -> (&'static str, bool, SbInput) {
        let inp = gen(self, rng, *node);
        (inp.txn.name(), inp.txn.read_only(), inp)
    }
    async fn execute(&self, t: &mut dyn TxnApi, inp: &SbInput) -> Result<(), TxnError> {
        execute(t, inp).await
    }
}

fn bal(v: &[u8]) -> i64 {
    i64::from_le_bytes(v[..8].try_into().unwrap())
}

fn set_bal(v: &mut [u8], x: i64) {
    v[..8].copy_from_slice(&x.to_le_bytes());
}

/// Executes one SmallBank transaction. Every type knows all the
/// records it reads from its input, so it gathers them in one
/// `read_many`.
pub async fn execute(t: &mut dyn TxnApi, inp: &SbInput) -> Result<(), TxnError> {
    let (sa, ka) = inp.a;
    let (sb, kb) = inp.b;
    let amount = inp.amount as i64;
    match inp.txn {
        SbTxn::Balance => {
            let keys = [(sa, T_SAVINGS, ka), (sa, T_CHECKING, ka)];
            let [s, c] = read_n(t, &keys).await?;
            let _ = bal(&s) + bal(&c);
            Ok(())
        }
        SbTxn::DepositChecking => {
            let [mut c] = read_n(t, &[(sa, T_CHECKING, ka)]).await?;
            let nb = bal(&c) + amount;
            set_bal(&mut c, nb);
            t.write(sa, T_CHECKING, ka, c).await
        }
        SbTxn::TransactSavings => {
            let [mut s] = read_n(t, &[(sa, T_SAVINGS, ka)]).await?;
            let nb = bal(&s) + amount;
            set_bal(&mut s, nb);
            t.write(sa, T_SAVINGS, ka, s).await
        }
        SbTxn::WriteCheck => {
            let keys = [(sa, T_SAVINGS, ka), (sa, T_CHECKING, ka)];
            let [s, mut c] = read_n(t, &keys).await?;
            let total = bal(&s) + bal(&c);
            let penalty = if total < amount { 100 } else { 0 };
            let nb = bal(&c) - amount - penalty;
            set_bal(&mut c, nb);
            t.write(sa, T_CHECKING, ka, c).await
        }
        SbTxn::SendPayment => {
            let keys = [(sa, T_CHECKING, ka), (sb, T_CHECKING, kb)];
            let [mut ca, mut cb] = read_n(t, &keys).await?;
            if bal(&ca) < amount {
                return Err(TxnError::UserAbort);
            }
            let nb = bal(&ca) - amount;
            set_bal(&mut ca, nb);
            let nb = bal(&cb) + amount;
            set_bal(&mut cb, nb);
            t.write(sa, T_CHECKING, ka, ca).await?;
            t.write(sb, T_CHECKING, kb, cb).await
        }
        SbTxn::Amalgamate => {
            let keys = [
                (sa, T_SAVINGS, ka),
                (sa, T_CHECKING, ka),
                (sb, T_CHECKING, kb),
            ];
            let [mut s, mut ca, mut cb] = read_n(t, &keys).await?;
            let moved = bal(&s) + bal(&ca);
            set_bal(&mut s, 0);
            set_bal(&mut ca, 0);
            let nb = bal(&cb) + moved;
            set_bal(&mut cb, nb);
            t.write(sa, T_SAVINGS, ka, s).await?;
            t.write(sa, T_CHECKING, ka, ca).await?;
            t.write(sb, T_CHECKING, kb, cb).await
        }
    }
}

/// `read_many` over a fixed number of keys, the values as an array.
async fn read_n<const N: usize>(
    t: &mut dyn TxnApi,
    keys: &[(usize, TableId, u64); N],
) -> Result<[Vec<u8>; N], TxnError> {
    let values = t.read_many(keys, usize::MAX).await?;
    Ok(values
        .try_into()
        .expect("read_many returns one value per key"))
}

/// Loads the SmallBank dataset (every account starts with 10 000 cents
/// in each of savings and checking, so totals are auditable). A shard's
/// accounts draw nothing from another's, so the stores and backup
/// images load at once, on up to one thread per machine
/// ([`DrtmCluster::load_shards`]), and the loaded bytes are those of a
/// serial loop over the shards.
pub fn load(cluster: &DrtmCluster, cfg: &SbCfg) {
    let mut v = [0u8; 40];
    set_bal(&mut v, 10_000);
    cluster.load_shards(|shard, seeder| {
        for a in 0..cfg.accounts as u64 {
            let key = cfg.acct(shard, a);
            seeder.put(T_SAVINGS, key, &v);
            seeder.put(T_CHECKING, key, &v);
        }
    });
}

/// Initial total across all accounts (for conservation audits).
pub fn initial_total(cfg: &SbCfg) -> i64 {
    (cfg.nodes * cfg.accounts) as i64 * 20_000
}

#[cfg(test)]
mod unit {
    use super::*;

    #[test]
    fn mix_matches_table_5() {
        let mut rng = SplitMix64::new(7);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..200_000 {
            *counts.entry(SbTxn::pick(&mut rng).name()).or_insert(0u64) += 1;
        }
        let pct = |n: &str| *counts.get(n).unwrap() as f64 / 2000.0;
        assert!((pct("send-payment") - 25.0).abs() < 1.0);
        for n in [
            "balance",
            "deposit-checking",
            "write-check",
            "transact-savings",
            "amalgamate",
        ] {
            assert!((pct(n) - 15.0).abs() < 1.0, "{n}: {}", pct(n));
        }
    }

    #[test]
    fn hot_set_receives_most_accesses() {
        let cfg = SbCfg {
            accounts: 10_000,
            ..Default::default()
        };
        let mut rng = SplitMix64::new(11);
        let hot = (10_000.0 * cfg.hot_fraction) as u64;
        let mut hot_hits = 0u64;
        for _ in 0..50_000 {
            let a = cfg.pick_account(&mut rng, 0) & 0xffff_ffff;
            if a < hot {
                hot_hits += 1;
            }
        }
        let frac = hot_hits as f64 / 50_000.0;
        assert!(frac > 0.85, "hot set got only {frac}");
    }

    #[test]
    fn cross_shard_probability_respected() {
        let cfg = SbCfg {
            nodes: 4,
            cross_prob: 0.10,
            ..Default::default()
        };
        let mut rng = SplitMix64::new(13);
        let remote = (0..50_000)
            .filter(|_| cfg.pick_second_shard(&mut rng, 1) != 1)
            .count() as f64
            / 50_000.0;
        assert!((remote - 0.10).abs() < 0.01, "got {remote}");
    }

    #[test]
    fn gen_never_produces_identical_accounts() {
        let cfg = SbCfg {
            nodes: 2,
            accounts: 4,
            cross_prob: 0.5,
            ..Default::default()
        };
        let mut rng = SplitMix64::new(17);
        for _ in 0..10_000 {
            let inp = gen(&cfg, &mut rng, 0);
            assert_ne!(inp.a, inp.b);
        }
    }

    #[test]
    fn account_keys_are_shard_scoped() {
        let cfg = SbCfg::default();
        assert_ne!(cfg.acct(0, 5), cfg.acct(1, 5));
    }
}
