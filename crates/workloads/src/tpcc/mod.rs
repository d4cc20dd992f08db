//! TPC-C: schema, key encodings, loader, and configuration.
//!
//! Nine tables follow the paper's store split (§6.3): customer-facing
//! tables that remote machines access live in RDMA-friendly hash tables;
//! order tables that only the home machine touches (`NEW_ORDER`,
//! `ORDER`, `ORDER_LINE`, the customer→order index) are ordered,
//! local-only B+-trees — which also makes them eligible for the §6.4
//! pointer-swap accounting, exactly the tables the paper names.
//!
//! Money is integer cents, rates are basis points; all fields are
//! little-endian `u64` slots inside fixed-size values.

pub mod txns;

use drtm_store::{TableId, TableSpec};

/// WAREHOUSE table id (hash): `[ytd, tax_bp]`.
pub const T_WAREHOUSE: TableId = 0;
/// DISTRICT table id (hash): `[ytd, tax_bp, next_o_id]`.
pub const T_DISTRICT: TableId = 1;
/// CUSTOMER table id (hash): `[balance, ytd_payment, payment_cnt,
/// delivery_cnt, discount_bp, ...data]`.
pub const T_CUSTOMER: TableId = 2;
/// HISTORY table id (hash, insert-only).
pub const T_HISTORY: TableId = 3;
/// NEW_ORDER table id (ordered, local-only).
pub const T_NEW_ORDER: TableId = 4;
/// ORDER table id (ordered, local-only): `[c_id, ol_cnt, carrier,
/// entry_ts]`.
pub const T_ORDER: TableId = 5;
/// Customer→order index (ordered, local-only).
pub const T_ORDER_CIDX: TableId = 6;
/// ORDER_LINE table id (ordered, local-only): `[i_id, supply_w, qty,
/// amount, delivery_ts]`.
pub const T_ORDER_LINE: TableId = 7;
/// ITEM table id (hash, read-only, replicated on every node).
pub const T_ITEM: TableId = 8;
/// STOCK table id (hash): `[quantity, ytd, order_cnt, remote_cnt, ...]`.
pub const T_STOCK: TableId = 9;
/// Customer last-name secondary index (ordered, local-only): maps
/// `(w, d, last-name id, c)` to the customer id. The spec selects 60 %
/// of payment and order-status customers by `C_LAST`.
pub const T_CUST_NAME: TableId = 10;

/// TPC-C sizing and behaviour knobs.
#[derive(Debug, Clone)]
pub struct TpccCfg {
    /// Machines in the cluster (= shards).
    pub nodes: usize,
    /// Warehouses served by each machine.
    pub warehouses_per_node: usize,
    /// Districts per warehouse (spec: 10).
    pub districts: usize,
    /// Customers per district (spec: 3000; smaller for quick runs).
    pub customers: usize,
    /// Items in the catalogue (spec: 100 000; smaller for quick runs).
    pub items: usize,
    /// Orders preloaded per district.
    pub init_orders: usize,
    /// Probability a new-order item is supplied by another warehouse
    /// (spec and paper default: 1 %).
    pub cross_new_order: f64,
    /// Probability a payment's customer belongs to another warehouse
    /// (spec and paper default: 15 %).
    pub cross_payment: f64,
    /// HISTORY hash capacity (insert-only; sized for the planned run).
    pub history_buckets: usize,
}

impl Default for TpccCfg {
    fn default() -> Self {
        Self {
            nodes: 1,
            warehouses_per_node: 1,
            districts: 10,
            customers: 300,
            items: 2_000,
            init_orders: 10,
            cross_new_order: 0.01,
            cross_payment: 0.15,
            history_buckets: 1 << 17,
        }
    }
}

impl TpccCfg {
    /// Total warehouses in the cluster.
    pub fn warehouses(&self) -> usize {
        self.nodes * self.warehouses_per_node
    }

    /// The shard (initial home machine) of warehouse `w`.
    pub fn shard_of(&self, w: u64) -> usize {
        (w as usize) / self.warehouses_per_node
    }

    /// The schema instantiated on every node.
    pub fn schema(&self) -> Vec<TableSpec> {
        let wh = self.warehouses_per_node;
        let per_node_customers = wh * self.districts * self.customers;
        let per_node_stock = wh * self.items;
        vec![
            TableSpec::hash(T_WAREHOUSE, wh * 4, 32),
            TableSpec::hash(T_DISTRICT, wh * self.districts * 4, 32),
            TableSpec::hash(T_CUSTOMER, per_node_customers * 2, 120),
            TableSpec::hash(T_HISTORY, self.history_buckets, 48),
            TableSpec::ordered(T_NEW_ORDER, 8),
            TableSpec::ordered(T_ORDER, 32),
            TableSpec::ordered(T_ORDER_CIDX, 8),
            TableSpec::ordered(T_ORDER_LINE, 48),
            TableSpec::hash(T_ITEM, self.items * 2, 48),
            TableSpec::hash(T_STOCK, per_node_stock * 2, 64),
            TableSpec::ordered(T_CUST_NAME, 8),
        ]
    }

    /// A region size that comfortably fits the loaded data plus growth
    /// from inserts during `expected_txns` transactions per node.
    pub fn region_size(&self, expected_txns: usize) -> usize {
        let wh = self.warehouses_per_node;
        let records = wh * 4 * 64                       // warehouses
            + wh * self.districts * 64                   // districts
            + wh * self.districts * self.customers * 192 // customers
            + self.items * 128                           // items
            + wh * self.items * 128                      // stock
            + self.history_buckets * 64; // history records
        let slots: usize = self
            .schema()
            .iter()
            .map(|s| match s.kind {
                drtm_store::TableKind::Hash { buckets } => buckets.next_power_of_two() * 16,
                drtm_store::TableKind::Ordered => 0,
            })
            .sum();
        let growth = expected_txns * 512; // order-line records etc.
        (records + slots + growth + (8 << 20)).next_power_of_two()
    }
}

// --- Key encodings (documented bit budgets; asserted in the loader) ---

/// DISTRICT key: `w * 16 + d`.
pub fn dkey(w: u64, d: u64) -> u64 {
    w * 16 + d
}

/// CUSTOMER key.
pub fn ckey(w: u64, d: u64, c: u64) -> u64 {
    dkey(w, d) << 12 | c
}

/// ORDER / NEW_ORDER key.
pub fn okey(w: u64, d: u64, o: u64) -> u64 {
    dkey(w, d) << 24 | o
}

/// ORDER_LINE key.
pub fn olkey(w: u64, d: u64, o: u64, ol: u64) -> u64 {
    okey(w, d, o) << 4 | ol
}

/// Customer→order index key.
pub fn cidxkey(w: u64, d: u64, c: u64, o: u64) -> u64 {
    ckey(w, d, c) << 24 | o
}

/// STOCK key.
pub fn skey(w: u64, i: u64) -> u64 {
    w << 20 | i
}

/// ITEM key (shard-scoped so recovered shards never collide).
pub fn ikey(shard: usize, i: u64) -> u64 {
    (shard as u64) << 32 | i
}

/// The TPC-C last-name syllables.
pub const SYLLABLES: [&str; 10] = [
    "BAR", "OUGHT", "ABLE", "PRI", "PRES", "ESE", "ANTI", "CALLY", "ATION", "EING",
];

/// The last-name id of customer `c` (the spec derives names from a
/// three-digit number; customers alias across ids beyond 1000).
pub fn lastname_id(c: u64) -> u64 {
    c % 1000
}

/// Renders a last-name id as its syllable string (for display).
pub fn lastname(id: u64) -> String {
    let d = [(id / 100) % 10, (id / 10) % 10, id % 10];
    d.iter().map(|&i| SYLLABLES[i as usize]).collect()
}

/// Customer last-name index key.
pub fn nkey(w: u64, d: u64, lname: u64, c: u64) -> u64 {
    ((dkey(w, d) << 10 | lname) << 12) | c
}

// --- Value slot helpers ---

/// Reads `u64` slot `i` of a value.
pub fn slot(v: &[u8], i: usize) -> u64 {
    u64::from_le_bytes(v[i * 8..i * 8 + 8].try_into().unwrap())
}

/// Writes `u64` slot `i` of a value.
pub fn set_slot(v: &mut [u8], i: usize, x: u64) {
    v[i * 8..i * 8 + 8].copy_from_slice(&x.to_le_bytes());
}

/// Builds a zeroed value of `len` bytes with the given leading slots.
pub fn value(len: usize, slots: &[u64]) -> Vec<u8> {
    let mut v = vec![0u8; len];
    for (i, &x) in slots.iter().enumerate() {
        set_slot(&mut v, i, x);
    }
    v
}

/// Fills `v[from..]` with printable pseudo-text (the spec's a-strings:
/// names, streets, C_DATA...). Loaded records then carry realistic
/// non-zero content through every cache line, so multi-line consistency
/// paths are exercised with real data rather than zero padding.
pub fn fill_astring(v: &mut [u8], rng: &mut drtm_base::SplitMix64, from: usize) {
    const ALPHABET: &[u8] = b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789 ";
    for b in &mut v[from..] {
        *b = ALPHABET[rng.below(ALPHABET.len() as u64) as usize];
    }
}

/// A customer value with realistic text fields after the numeric slots
/// (bytes 40.. carry C_LAST syllables + C_DATA-style filler).
pub fn customer_value(rng: &mut drtm_base::SplitMix64, c: u64, slots: &[u64]) -> Vec<u8> {
    let mut v = value(120, slots);
    fill_astring(&mut v, rng, 40);
    let name = lastname(lastname_id(c));
    let name_bytes = name.as_bytes();
    let n = name_bytes.len().min(120 - 40);
    v[40..40 + n].copy_from_slice(&name_bytes[..n]);
    v
}

/// Loads the full TPC-C dataset into `cluster` according to `cfg`.
///
/// Every record is seeded on its shard's serving node and, with
/// replication on, into the backup images.
pub fn load(cluster: &drtm_core::cluster::DrtmCluster, cfg: &TpccCfg) {
    assert!(cfg.customers <= 4096, "customer id must fit 12 bits");
    assert!(cfg.items <= 1 << 20, "item id must fit 20 bits");
    assert!(
        cfg.warehouses() * 16 <= 1 << 13,
        "district key must fit 13 bits"
    );
    let mut rng = drtm_base::SplitMix64::new(t_seed());
    for shard in 0..cfg.nodes {
        // The item catalogue is replicated on every node (read-only).
        for i in 0..cfg.items as u64 {
            let price = 100 + (i * 37) % 9900;
            let mut iv = value(48, &[price]);
            fill_astring(&mut iv, &mut rng, 8); // I_NAME + I_DATA.
            cluster.seed_record(shard, T_ITEM, ikey(shard, i), &iv);
        }
        for wi in 0..cfg.warehouses_per_node as u64 {
            let w = (shard * cfg.warehouses_per_node) as u64 + wi;
            cluster.seed_record(
                shard,
                T_WAREHOUSE,
                w,
                &value(32, &[30_000_000, rng.below(2000)]),
            );
            for i in 0..cfg.items as u64 {
                let qty = 10 + rng.below(91);
                let mut sv = value(64, &[qty, 0, 0, 0]);
                fill_astring(&mut sv, &mut rng, 32); // S_DIST_xx / S_DATA.
                cluster.seed_record(shard, T_STOCK, skey(w, i), &sv);
            }
            for d in 0..cfg.districts as u64 {
                cluster.seed_record(
                    shard,
                    T_DISTRICT,
                    dkey(w, d),
                    &value(32, &[3_000_000, rng.below(2000), cfg.init_orders as u64]),
                );
                for c in 0..cfg.customers as u64 {
                    let discount = rng.below(5000);
                    let cv =
                        customer_value(&mut rng, c, &[(-1000i64) as u64, 100_000, 1, 0, discount]);
                    cluster.seed_record(shard, T_CUSTOMER, ckey(w, d, c), &cv);
                    cluster.seed_record(
                        shard,
                        T_CUST_NAME,
                        nkey(w, d, lastname_id(c), c),
                        &value(8, &[c]),
                    );
                }
                for o in 0..cfg.init_orders as u64 {
                    let c = rng.below(cfg.customers as u64);
                    let ol_cnt = 5 + rng.below(11);
                    cluster.seed_record(
                        shard,
                        T_ORDER,
                        okey(w, d, o),
                        &value(32, &[c, ol_cnt, 1, 0]),
                    );
                    cluster.seed_record(shard, T_ORDER_CIDX, cidxkey(w, d, c, o), &value(8, &[o]));
                    for ol in 0..ol_cnt {
                        let i = rng.below(cfg.items as u64);
                        cluster.seed_record(
                            shard,
                            T_ORDER_LINE,
                            olkey(w, d, o, ol),
                            &value(48, &[i, w, 5, 500, 1]),
                        );
                    }
                    // The most recent third are undelivered.
                    if o * 3 >= 2 * cfg.init_orders as u64 {
                        cluster.seed_record(shard, T_NEW_ORDER, okey(w, d, o), &value(8, &[o]));
                    }
                }
            }
        }
    }
}

fn t_seed() -> u64 {
    0x7C0C
}

#[cfg(test)]
mod unit {
    use super::*;

    #[test]
    fn key_encodings_are_injective_per_table() {
        use std::collections::HashSet;
        // Keys must be unique within each table's keyspace (tables are
        // separate indexes, so no cross-space requirement).
        let mut d_keys = HashSet::new();
        let mut c_keys = HashSet::new();
        let mut o_keys = HashSet::new();
        let mut ol_keys = HashSet::new();
        for w in [0u64, 5, 383] {
            for d in [0u64, 9] {
                assert!(d_keys.insert(dkey(w, d)));
                for c in [0u64, 17, 4095] {
                    assert!(c_keys.insert(ckey(w, d, c)));
                }
                for o in [0u64, 12345, (1 << 24) - 1] {
                    assert!(o_keys.insert(okey(w, d, o)));
                    for ol in [0u64, 15] {
                        assert!(ol_keys.insert(olkey(w, d, o, ol)));
                    }
                }
            }
        }
    }

    #[test]
    fn olkey_embeds_okey() {
        assert_eq!(olkey(3, 2, 100, 7) >> 4, okey(3, 2, 100));
    }

    #[test]
    fn cidx_range_covers_customer_orders_only() {
        let lo = cidxkey(1, 2, 3, 0);
        let hi = cidxkey(1, 2, 3, (1 << 24) - 1);
        assert!(lo < hi);
        assert!(
            cidxkey(1, 2, 4, 0) > hi,
            "next customer is outside the range"
        );
    }

    #[test]
    fn lastname_rendering() {
        assert_eq!(lastname(0), "BARBARBAR");
        assert_eq!(lastname(371), "PRICALLYOUGHT");
        assert_eq!(lastname_id(1371), 371, "names alias beyond 1000");
    }

    #[test]
    fn nkey_groups_by_name_then_customer() {
        let a = nkey(1, 2, 371, 5);
        let b = nkey(1, 2, 371, 6);
        let c = nkey(1, 2, 372, 0);
        assert!(a < b && b < c);
    }

    #[test]
    fn loaded_values_carry_realistic_text() {
        let mut rng = drtm_base::SplitMix64::new(1);
        let cv = customer_value(&mut rng, 371, &[1, 2, 3, 4, 5]);
        assert_eq!(slot(&cv, 0), 1);
        assert_eq!(slot(&cv, 4), 5);
        let name = lastname(371);
        assert_eq!(&cv[40..40 + name.len()], name.as_bytes());
        assert!(
            cv[40..].iter().all(|&b| b.is_ascii_graphic() || b == b' '),
            "text tail must be printable"
        );
        assert!(cv[100..].iter().any(|&b| b != 0), "no zero padding tail");
    }

    #[test]
    fn slot_roundtrip() {
        let mut v = value(32, &[7, 9]);
        assert_eq!(slot(&v, 0), 7);
        assert_eq!(slot(&v, 1), 9);
        set_slot(&mut v, 3, 42);
        assert_eq!(slot(&v, 3), 42);
    }

    #[test]
    fn schema_is_dense_and_sized() {
        let cfg = TpccCfg::default();
        let schema = cfg.schema();
        for (i, s) in schema.iter().enumerate() {
            assert_eq!(s.id as usize, i);
        }
        assert!(cfg.region_size(1000) > 1 << 20);
    }

    #[test]
    fn mix_is_table_5() {
        use super::txns::TxnType;
        let mut rng = drtm_base::SplitMix64::new(3);
        let mut counts = std::collections::HashMap::new();
        for _ in 0..200_000 {
            *counts.entry(TxnType::pick(&mut rng).name()).or_insert(0u64) += 1;
        }
        let pct = |n: &str| *counts.get(n).unwrap() as f64 / 2000.0;
        assert!((pct("new-order") - 45.0).abs() < 1.0);
        assert!((pct("payment") - 43.0).abs() < 1.0);
        assert!((pct("delivery") - 4.0).abs() < 0.5);
        assert!((pct("order-status") - 4.0).abs() < 0.5);
        assert!((pct("stock-level") - 4.0).abs() < 0.5);
    }

    #[test]
    fn nurand_is_skewed_but_in_range() {
        use super::txns::nurand;
        let mut rng = drtm_base::SplitMix64::new(5);
        let mut counts = vec![0u64; 100];
        for _ in 0..100_000 {
            let v = nurand(&mut rng, 1023, 0, 99);
            counts[v as usize] += 1;
        }
        assert!(counts.iter().all(|&c| c > 0), "full range covered");
        let max = *counts.iter().max().unwrap() as f64;
        let min = *counts.iter().min().unwrap() as f64;
        assert!(max / min > 1.5, "distribution must be non-uniform");
    }

    #[test]
    fn cross_warehouse_probability_respected() {
        use super::txns::gen_new_order;
        let cfg = TpccCfg {
            nodes: 4,
            warehouses_per_node: 2,
            ..Default::default()
        };
        let mut rng = drtm_base::SplitMix64::new(9);
        let mut remote_lines = 0u64;
        let mut total = 0u64;
        for _ in 0..5_000 {
            let inp = gen_new_order(&cfg, &mut rng, 3, 0.10);
            for &(_, sw, _) in &inp.lines {
                total += 1;
                if sw != 3 {
                    remote_lines += 1;
                }
            }
        }
        let frac = remote_lines as f64 / total as f64;
        assert!((frac - 0.10).abs() < 0.02, "got {frac}");
    }
}
