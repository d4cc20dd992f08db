//! The five TPC-C transactions, written once against [`TxnApi`].
//!
//! Inputs are generated *before* execution (engines may run a body
//! several times — OCC retries, oracle passes — so bodies must be
//! deterministic functions of their input).

use drtm_base::SplitMix64;
use drtm_core::cluster::DrtmCluster;
use drtm_core::txn::{TxnApi, TxnError};
use drtm_store::{TableId, TableSpec};

use crate::driver::{RunCfg, Workload};
use crate::tpcc::*;

/// The standard-mix transaction types with their Table 5 percentages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum TxnType {
    /// 45 %, read-write, distributed (1 % cross-warehouse items).
    NewOrder,
    /// 43 %, read-write, distributed (15 % remote customer).
    Payment,
    /// 4 %, read-write, local.
    Delivery,
    /// 4 %, read-only, local.
    OrderStatus,
    /// 4 %, read-only, local.
    StockLevel,
}

impl TxnType {
    /// Draws a type according to the standard mix.
    pub fn pick(rng: &mut SplitMix64) -> Self {
        match rng.below(100) {
            0..=44 => TxnType::NewOrder,
            45..=87 => TxnType::Payment,
            88..=91 => TxnType::Delivery,
            92..=95 => TxnType::OrderStatus,
            _ => TxnType::StockLevel,
        }
    }

    /// Whether the type is read-only (runs under §4.5's protocol).
    pub fn read_only(self) -> bool {
        matches!(self, TxnType::OrderStatus | TxnType::StockLevel)
    }

    /// Display name.
    pub fn name(self) -> &'static str {
        match self {
            TxnType::NewOrder => "new-order",
            TxnType::Payment => "payment",
            TxnType::Delivery => "delivery",
            TxnType::OrderStatus => "order-status",
            TxnType::StockLevel => "stock-level",
        }
    }

    /// All five types, mix order.
    pub const ALL: [TxnType; 5] = [
        TxnType::NewOrder,
        TxnType::Payment,
        TxnType::Delivery,
        TxnType::OrderStatus,
        TxnType::StockLevel,
    ];
}

/// TPC-C's non-uniform random distribution.
pub fn nurand(rng: &mut SplitMix64, a: u64, x: u64, y: u64) -> u64 {
    const C: u64 = 42;
    (((rng.below(a + 1) | rng.range(x, y)) + C) % (y - x + 1)) + x
}

/// Input of one new-order transaction.
#[derive(Debug, Clone)]
pub struct NewOrderInput {
    /// Home warehouse.
    pub w: u64,
    /// District.
    pub d: u64,
    /// Customer.
    pub c: u64,
    /// 1 % of new-orders roll back (invalid item).
    pub rollback: bool,
    /// `(item, supply warehouse, quantity)` per line.
    pub lines: Vec<(u64, u64, u64)>,
}

/// Generates a new-order input for a worker homed on warehouse `home_w`.
///
/// `cross_prob` overrides the config's cross-warehouse probability (the
/// Figure 17 sweep varies it from 1 % to 100 %).
pub fn gen_new_order(
    cfg: &TpccCfg,
    rng: &mut SplitMix64,
    home_w: u64,
    cross_prob: f64,
) -> NewOrderInput {
    let d = rng.below(cfg.districts as u64);
    let c = nurand(rng, 1023, 0, cfg.customers as u64 - 1);
    let n = rng.range(5, 15);
    let lines = (0..n)
        .map(|_| {
            let i = nurand(rng, 8191, 0, cfg.items as u64 - 1);
            let supply_w = if cfg.warehouses() > 1 && rng.chance(cross_prob) {
                let mut o = rng.below(cfg.warehouses() as u64 - 1);
                if o >= home_w {
                    o += 1;
                }
                o
            } else {
                home_w
            };
            (i, supply_w, rng.range(1, 10))
        })
        .collect();
    NewOrderInput {
        w: home_w,
        d,
        c,
        rollback: rng.chance(0.01),
        lines,
    }
}

/// Executes a new-order transaction.
pub async fn new_order(
    t: &mut dyn TxnApi,
    cfg: &TpccCfg,
    inp: &NewOrderInput,
    ts: u64,
) -> Result<(), TxnError> {
    let (w, d) = (inp.w, inp.d);
    let shard = cfg.shard_of(w);
    let wv = t.read(shard, T_WAREHOUSE, w).await?;
    let _w_tax = slot(&wv, 1);
    let dk = dkey(w, d);
    let mut dv = t.read(shard, T_DISTRICT, dk).await?;
    let o = slot(&dv, 2);
    set_slot(&mut dv, 2, o + 1);
    t.write(shard, T_DISTRICT, dk, dv).await?;
    // Whole: spec §2.4.2.2 returns C_LAST and C_CREDIT beside the
    // discount, and C_LAST starts at byte 40, past the first line.
    let cv = t.read(shard, T_CUSTOMER, ckey(w, d, inp.c)).await?;
    let discount_bp = slot(&cv, 4);

    if inp.rollback {
        // Spec: an unused item id forces a rollback after the reads.
        return Err(TxnError::UserAbort);
    }

    t.insert(
        shard,
        T_ORDER,
        okey(w, d, o),
        value(32, &[inp.c, inp.lines.len() as u64, 0, ts]),
    );
    t.insert(shard, T_NEW_ORDER, okey(w, d, o), value(8, &[o]));
    t.insert(shard, T_ORDER_CIDX, cidxkey(w, d, inp.c, o), value(8, &[o]));

    // Every line's item and stock record is named by the input: gather
    // the reads, then update line by line. Both are read whole: the
    // stock record is rewritten, and spec §2.4.2.2 returns the item's
    // I_NAME and tests its I_DATA, which run to the value's last byte.
    let line_keys = |&(i, supply_w, _): &(u64, u64, u64)| {
        let stock = (cfg.shard_of(supply_w), T_STOCK, skey(supply_w, i));
        [(shard, T_ITEM, ikey(shard, i)), stock]
    };
    let keys: Vec<_> = inp.lines.iter().flat_map(line_keys).collect();
    let mut values = t.read_many(&keys, usize::MAX).await?.into_iter();
    let mut total = 0u64;
    for (idx, &(i, supply_w, qty)) in inp.lines.iter().enumerate() {
        let iv = values.next().expect("an item per line");
        let mut sv = values.next().expect("a stock record per line");
        let price = slot(&iv, 0);
        let s_shard = cfg.shard_of(supply_w);
        let sk = skey(supply_w, i);
        // A line repeating an earlier line's stock record updates what
        // that line wrote, not the gathered snapshot.
        let repeat = |l: &(u64, u64, u64)| (l.0, l.1) == (i, supply_w);
        if inp.lines[..idx].iter().any(repeat) {
            sv = t.read(s_shard, T_STOCK, sk).await?;
        }
        let q = slot(&sv, 0);
        set_slot(
            &mut sv,
            0,
            if q >= qty + 10 { q - qty } else { q + 91 - qty },
        );
        let ns = slot(&sv, 1) + qty;
        set_slot(&mut sv, 1, ns);
        let ns = slot(&sv, 2) + 1;
        set_slot(&mut sv, 2, ns);
        if supply_w != w {
            let ns = slot(&sv, 3) + 1;
            set_slot(&mut sv, 3, ns);
        }
        t.write(s_shard, T_STOCK, sk, sv).await?;
        let amount = qty * price;
        total += amount;
        t.insert(
            shard,
            T_ORDER_LINE,
            olkey(w, d, o, idx as u64),
            value(48, &[i, supply_w, qty, amount, 0]),
        );
    }
    let _ = total * (10_000 - discount_bp);
    Ok(())
}

/// How a transaction selects its customer (spec §2.5.1.2 / §2.6.1.2:
/// 60 % by last name, 40 % by id).
#[derive(Debug, Clone, Copy)]
pub enum CustomerBy {
    /// Direct customer id.
    Id(u64),
    /// Last-name id; the transaction resolves it through the local
    /// `T_CUST_NAME` index and picks the middle match.
    LastName(u64),
}

/// Input of one payment transaction.
#[derive(Debug, Clone)]
pub struct PaymentInput {
    /// Home warehouse and district.
    pub w: u64,
    /// District.
    pub d: u64,
    /// Customer's warehouse (15 % remote), district, and id.
    pub cw: u64,
    /// Customer district.
    pub cd: u64,
    /// Customer selector. Remote customers are always selected by id
    /// (the last-name index is an ordered, local-only table).
    pub c: CustomerBy,
    /// Amount in cents.
    pub amount: u64,
    /// Unique history key.
    pub hist_key: u64,
}

/// Resolves a customer selector against the local last-name index,
/// returning the customer id (the spec's "middle row, ordered by first
/// name" becomes the middle match by id).
pub async fn resolve_customer(
    t: &mut dyn TxnApi,
    w: u64,
    d: u64,
    by: CustomerBy,
) -> Result<u64, TxnError> {
    match by {
        CustomerBy::Id(c) => Ok(c),
        CustomerBy::LastName(l) => {
            let hits = t
                .scan_local(
                    T_CUST_NAME,
                    nkey(w, d, l, 0),
                    nkey(w, d, l, 4095),
                    usize::MAX,
                    usize::MAX,
                )
                .await?;
            if hits.is_empty() {
                return Err(TxnError::NotFound);
            }
            Ok(slot(&hits[hits.len() / 2].1, 0))
        }
    }
}

/// Generates a payment input.
pub fn gen_payment(
    cfg: &TpccCfg,
    rng: &mut SplitMix64,
    home_w: u64,
    hist_key: u64,
) -> PaymentInput {
    let d = rng.below(cfg.districts as u64);
    let (cw, cd) = if cfg.warehouses() > 1 && rng.chance(cfg.cross_payment) {
        let mut o = rng.below(cfg.warehouses() as u64 - 1);
        if o >= home_w {
            o += 1;
        }
        (o, rng.below(cfg.districts as u64))
    } else {
        (home_w, d)
    };
    // 60 % select the customer by last name (only possible locally —
    // the name index is an ordered, local-only table).
    let c = if cw == home_w && rng.chance(0.6) {
        CustomerBy::LastName(lastname_id(nurand(rng, 255, 0, cfg.customers as u64 - 1)))
    } else {
        CustomerBy::Id(nurand(rng, 1023, 0, cfg.customers as u64 - 1))
    };
    PaymentInput {
        w: home_w,
        d,
        cw,
        cd,
        c,
        amount: rng.range(100, 500_000),
        hist_key,
    }
}

/// Executes a payment transaction.
pub async fn payment(
    t: &mut dyn TxnApi,
    cfg: &TpccCfg,
    inp: &PaymentInput,
) -> Result<(), TxnError> {
    let shard = cfg.shard_of(inp.w);
    let c_shard = cfg.shard_of(inp.cw);
    let c = if inp.cw == inp.w {
        resolve_customer(t, inp.cw, inp.cd, inp.c).await?
    } else {
        match inp.c {
            CustomerBy::Id(c) => c,
            CustomerBy::LastName(_) => unreachable!("remote customers are selected by id"),
        }
    };
    let dk = dkey(inp.w, inp.d);
    let ck = ckey(inp.cw, inp.cd, c);
    let keys = [
        (shard, T_WAREHOUSE, inp.w),
        (shard, T_DISTRICT, dk),
        (c_shard, T_CUSTOMER, ck),
    ];
    let values = t.read_many(&keys, usize::MAX).await?;
    let [mut wv, mut dv, mut cv]: [Vec<u8>; 3] = values.try_into().expect("a value per key");

    let ns = slot(&wv, 0) + inp.amount;
    set_slot(&mut wv, 0, ns);
    t.write(shard, T_WAREHOUSE, inp.w, wv).await?;

    let ns = slot(&dv, 0) + inp.amount;
    set_slot(&mut dv, 0, ns);
    t.write(shard, T_DISTRICT, dk, dv).await?;

    let bal = slot(&cv, 0) as i64 - inp.amount as i64;
    set_slot(&mut cv, 0, bal as u64);
    let ns = slot(&cv, 1) + inp.amount;
    set_slot(&mut cv, 1, ns);
    let ns = slot(&cv, 2) + 1;
    set_slot(&mut cv, 2, ns);
    t.write(c_shard, T_CUSTOMER, ck, cv).await?;

    t.insert(
        shard,
        T_HISTORY,
        inp.hist_key,
        value(48, &[inp.amount, inp.w, dk, ck]),
    );
    Ok(())
}

/// Executes a delivery transaction for warehouse `w` (all districts).
pub async fn delivery(
    t: &mut dyn TxnApi,
    cfg: &TpccCfg,
    w: u64,
    carrier: u64,
    ts: u64,
) -> Result<(), TxnError> {
    let shard = cfg.shard_of(w);
    for d in 0..cfg.districts as u64 {
        // Oldest undelivered order in this district.
        let lo = okey(w, d, 0);
        let hi = okey(w, d, (1 << 24) - 1);
        let Some((no_key, nov)) = t
            .scan_local(T_NEW_ORDER, lo, hi, 1, usize::MAX)
            .await?
            .into_iter()
            .next()
        else {
            continue;
        };
        let o = slot(&nov, 0);
        t.delete(shard, T_NEW_ORDER, no_key);

        let ok = okey(w, d, o);
        let mut ov = t.read(shard, T_ORDER, ok).await?;
        let c = slot(&ov, 0);
        let ol_cnt = slot(&ov, 1);
        set_slot(&mut ov, 2, carrier);
        t.write(shard, T_ORDER, ok, ov).await?;

        let mut sum = 0u64;
        let ol_keys = order_line_keys(shard, w, d, o, ol_cnt);
        let lines = t.read_many(&ol_keys, usize::MAX).await?;
        for (&(_, _, olk), mut olv) in ol_keys.iter().zip(lines) {
            sum += slot(&olv, 3);
            set_slot(&mut olv, 4, ts);
            t.write(shard, T_ORDER_LINE, olk, olv).await?;
        }

        let ck = ckey(w, d, c);
        let mut cv = t.read(shard, T_CUSTOMER, ck).await?;
        let nb = (slot(&cv, 0) as i64 + sum as i64) as u64;
        set_slot(&mut cv, 0, nb);
        let ns = slot(&cv, 3) + 1;
        set_slot(&mut cv, 3, ns);
        t.write(shard, T_CUSTOMER, ck, cv).await?;
    }
    Ok(())
}

/// Executes an order-status transaction (read-only).
pub async fn order_status(
    t: &mut dyn TxnApi,
    cfg: &TpccCfg,
    w: u64,
    d: u64,
    by: CustomerBy,
) -> Result<(), TxnError> {
    let shard = cfg.shard_of(w);
    let c = resolve_customer(t, w, d, by).await?;
    let cv = t.read(shard, T_CUSTOMER, ckey(w, d, c)).await?;
    let _balance = slot(&cv, 0) as i64;
    let lo = cidxkey(w, d, c, 0);
    let hi = cidxkey(w, d, c, (1 << 24) - 1);
    let Some((_, idx)) = t.last_local(T_ORDER_CIDX, lo, hi).await? else {
        return Ok(()); // Customer has no orders yet.
    };
    let o = slot(&idx, 0);
    let ov = t.read(shard, T_ORDER, okey(w, d, o)).await?;
    let ol_cnt = slot(&ov, 1);
    // Spec §2.6.2.2 returns five fields of each line: OL_I_ID,
    // OL_SUPPLY_W_ID, OL_QUANTITY, OL_AMOUNT and OL_DELIVERY_D, the
    // value's first 40 bytes.
    t.read_many(&order_line_keys(shard, w, d, o, ol_cnt), 40)
        .await?;
    Ok(())
}

/// The `read_many` keys of order `o`'s `ol_cnt` lines.
fn order_line_keys(
    shard: usize,
    w: u64,
    d: u64,
    o: u64,
    ol_cnt: u64,
) -> Vec<(usize, TableId, u64)> {
    let line = |ol| (shard, T_ORDER_LINE, olkey(w, d, o, ol));
    (0..ol_cnt).map(line).collect()
}

/// Executes a stock-level transaction (read-only; large read set).
pub async fn stock_level(
    t: &mut dyn TxnApi,
    cfg: &TpccCfg,
    w: u64,
    d: u64,
    threshold: u64,
) -> Result<usize, TxnError> {
    let shard = cfg.shard_of(w);
    let dv = t.read(shard, T_DISTRICT, dkey(w, d)).await?;
    let next_o = slot(&dv, 2);
    if next_o == 0 {
        return Ok(0);
    }
    // The lines of the last 20 orders: the line keys of consecutive
    // orders are consecutive, so one range covers them. The body uses
    // 8 bytes of each line (OL_I_ID) and of each stock record
    // (S_QUANTITY), so it reads just those.
    let lo = olkey(w, d, next_o.saturating_sub(20), 0);
    let hi = olkey(w, d, next_o - 1, 15);
    let lines = t.scan_local(T_ORDER_LINE, lo, hi, usize::MAX, 8).await?;
    // Distinct items in id order: the reads' order is the same in every
    // process.
    let items: std::collections::BTreeSet<u64> =
        lines.iter().map(|(_, olv)| slot(olv, 0)).collect();
    let keys: Vec<_> = items
        .iter()
        .map(|&i| (shard, T_STOCK, skey(w, i)))
        .collect();
    let stock = t.read_many(&keys, 8).await?;
    Ok(stock.iter().filter(|sv| slot(sv, 0) < threshold).count())
}

/// One drawn TPC-C transaction. The home warehouse and the transaction
/// index ride along where the body takes them.
#[derive(Debug, Clone)]
pub enum TpccInput {
    /// A new-order and its index (its order's entry timestamp).
    NewOrder(NewOrderInput, u64),
    /// A payment.
    Payment(PaymentInput),
    /// A delivery of warehouse `w` by `carrier`, stamped `ts`.
    Delivery { w: u64, carrier: u64, ts: u64 },
    /// An order-status of a customer of district `d` of warehouse `w`.
    OrderStatus { w: u64, d: u64, by: CustomerBy },
    /// A stock-level of district `d` of warehouse `w`.
    StockLevel { w: u64, d: u64, threshold: u64 },
}

/// A TPC-C routine's generator.
pub struct TpccGen {
    rng: SplitMix64,
    home_w: u64,
    /// The last HISTORY key this routine drew.
    hist_key: u64,
}

impl Workload for TpccCfg {
    const SLOT_SALT: u64 = 0;
    const GEN_SALT: u64 = 0xBEEF;
    type Gen = TpccGen;
    type Input = TpccInput;

    fn nodes(&self) -> usize {
        self.nodes
    }
    fn schema(&self) -> Vec<TableSpec> {
        TpccCfg::schema(self)
    }
    fn region_size(&self, run: &RunCfg) -> usize {
        TpccCfg::region_size(self, run.txns_per_worker * run.threads * 2)
    }
    fn load(&self, cluster: &DrtmCluster) {
        crate::tpcc::load(cluster, self)
    }
    /// Slot `tid` is homed on warehouse `tid % warehouses_per_node` of
    /// its machine; routines draw from disjoint HISTORY key ranges so
    /// their inserts never collide.
    fn generator(&self, node: usize, tid: usize, id: usize, rng: SplitMix64) -> TpccGen {
        let home_w = (node * self.warehouses_per_node + tid % self.warehouses_per_node) as u64;
        let hist_key = ((node as u64) << 24 | tid as u64) << 32 | ((id as u64) << 26);
        TpccGen {
            rng,
            home_w,
            hist_key,
        }
    }
    fn next(&self, g: &mut TpccGen, i: u64) -> (&'static str, bool, TpccInput) {
        let (rng, w) = (&mut g.rng, g.home_w);
        let ttype = TxnType::pick(rng);
        let input = match ttype {
            TxnType::NewOrder => {
                TpccInput::NewOrder(gen_new_order(self, rng, w, self.cross_new_order), i)
            }
            TxnType::Payment => {
                g.hist_key += 1;
                TpccInput::Payment(gen_payment(self, rng, w, g.hist_key))
            }
            TxnType::Delivery => TpccInput::Delivery {
                w,
                carrier: rng.range(1, 10),
                ts: i,
            },
            TxnType::OrderStatus => {
                let d = rng.below(self.districts as u64);
                let last = self.customers as u64 - 1;
                let by = if rng.chance(0.6) {
                    CustomerBy::LastName(lastname_id(nurand(rng, 255, 0, last)))
                } else {
                    CustomerBy::Id(nurand(rng, 1023, 0, last))
                };
                TpccInput::OrderStatus { w, d, by }
            }
            TxnType::StockLevel => {
                let d = rng.below(self.districts as u64);
                let threshold = rng.range(10, 20);
                TpccInput::StockLevel { w, d, threshold }
            }
        };
        (ttype.name(), ttype.read_only(), input)
    }
    async fn execute(&self, t: &mut dyn TxnApi, input: &TpccInput) -> Result<(), TxnError> {
        match *input {
            TpccInput::NewOrder(ref inp, ts) => new_order(t, self, inp, ts).await,
            TpccInput::Payment(ref inp) => payment(t, self, inp).await,
            TpccInput::Delivery { w, carrier, ts } => delivery(t, self, w, carrier, ts).await,
            TpccInput::OrderStatus { w, d, by } => order_status(t, self, w, d, by).await,
            TpccInput::StockLevel { w, d, threshold } => {
                stock_level(t, self, w, d, threshold).await.map(|_| ())
            }
        }
    }
}
