//! `olap_scan`: one client making repeated passes over five analytic
//! SELECT classes on TPC-H `lineitem` + `supplier`, stored as ORC with
//! Snappy, with a block cache far smaller than the columns the queries
//! read. Time goes to DFS reads, decompression, decoding, vectorized
//! operators and the shuffle; parse and plan are a rounding error.

use crate::rng::Rng;
use crate::workload::{compare, Answer, Class, Client, Kind, Loaded, Workload};
use hive_common::config::keys;
use hive_common::{Result, Row, Schema, Value};
use hive_core::HiveSession;
use hive_datagen::tpch;
use hive_dfs::DfsConfig;
use std::collections::HashMap;
use std::sync::Arc;
use std::time::Instant;

const CLASSES: &[Class] = &[
    Class {
        name: "q1",
        kind: Kind::Read,
    },
    Class {
        name: "q6",
        kind: Kind::Read,
    },
    Class {
        name: "supplier_join",
        kind: Kind::Read,
    },
    Class {
        name: "supplier_mode_agg",
        kind: Kind::Read,
    },
    Class {
        name: "orderkey_agg",
        kind: Kind::Read,
    },
];

/// Block cache for this workload: far below the ~10 MiB of compressed
/// column data the five classes read per pass at the default scale, so
/// most reads miss and go through DFS, CRC and decompression.
const CACHE_BYTES: u64 = 1 << 20;

/// `CREATE TABLE` text for a generated schema.
pub fn ddl(table: &str, schema: &Schema) -> String {
    let cols: Vec<String> = schema
        .fields()
        .iter()
        .map(|f| format!("{} {}", f.name, f.data_type))
        .collect();
    format!("CREATE TABLE {table} ({}) STORED AS orc", cols.join(", "))
}

/// The columns the oracle needs, one vector per column.
struct Cols {
    orderkey: Vec<i64>,
    suppkey: Vec<i64>,
    qty: Vec<f64>,
    price: Vec<f64>,
    disc: Vec<f64>,
    tax: Vec<f64>,
    returnflag: Vec<String>,
    linestatus: Vec<String>,
    shipdate: Vec<String>,
    shipmode: Vec<String>,
    /// `s_nationkey` by `s_suppkey`.
    nation: HashMap<i64, i64>,
}

fn int(v: &Value) -> i64 {
    match v {
        Value::Int(i) => *i,
        other => panic!("generator produced {other:?} for a BIGINT column"),
    }
}

fn dbl(v: &Value) -> f64 {
    match v {
        Value::Double(d) => *d,
        other => panic!("generator produced {other:?} for a DOUBLE column"),
    }
}

fn text(v: &Value) -> String {
    match v {
        Value::String(s) => s.clone(),
        other => panic!("generator produced {other:?} for a STRING column"),
    }
}

impl Cols {
    fn new(lineitem: &[Row], supplier: &[Row]) -> Cols {
        let col = |i: usize| lineitem.iter().map(move |r| &r.values()[i]);
        Cols {
            orderkey: col(0).map(int).collect(),
            suppkey: col(2).map(int).collect(),
            qty: col(4).map(dbl).collect(),
            price: col(5).map(dbl).collect(),
            disc: col(6).map(dbl).collect(),
            tax: col(7).map(dbl).collect(),
            returnflag: col(8).map(text).collect(),
            linestatus: col(9).map(text).collect(),
            shipdate: col(10).map(text).collect(),
            shipmode: col(14).map(text).collect(),
            nation: supplier
                .iter()
                .map(|r| (int(&r.values()[0]), int(&r.values()[2])))
                .collect(),
        }
    }
}

pub struct Olap {
    seed: u64,
    sf: f64,
    lineitem: Vec<Row>,
    supplier: Vec<Row>,
    cols: Arc<Cols>,
}

impl Olap {
    /// Generate `lineitem` and `supplier` at TPC-H scale factor `sf`.
    pub fn new(seed: u64, sf: f64) -> Olap {
        let lineitem: Vec<Row> = tpch::lineitem_rows(sf, seed).collect();
        let supplier: Vec<Row> = tpch::supplier_rows(sf, seed).collect();
        let cols = Arc::new(Cols::new(&lineitem, &supplier));
        Olap {
            seed,
            sf,
            lineitem,
            supplier,
            cols,
        }
    }
}

impl Workload for Olap {
    fn classes(&self) -> &'static [Class] {
        CLASSES
    }

    fn clients(&self) -> usize {
        1
    }

    fn tables(&self) -> &'static [&'static str] {
        &["lineitem", "supplier"]
    }

    fn setup(&self) -> Result<Loaded> {
        // Small blocks and stripes so a scan splits into several map tasks.
        let server = HiveSession::builder()
            .dfs_config(DfsConfig {
                block_size: 4 << 20,
                replication: 3,
                nodes: 10,
            })
            .set(keys::ORC_STRIPE_SIZE, (2u64 << 20).to_string())?
            .set(keys::ORC_COMPRESS, "snappy")?
            .set(keys::IO_CACHE_BYTES, CACHE_BYTES.to_string())?
            .build_server()?;
        let mut s = server.new_session();
        s.execute(&ddl("lineitem", &tpch::lineitem_schema()))?;
        s.execute(&ddl("supplier", &tpch::supplier_schema()))?;
        let (mut load_s, mut prep_s, mut rows) = (0.0, 0.0, 0);
        for (table, data) in [("lineitem", &self.lineitem), ("supplier", &self.supplier)] {
            let t = Instant::now();
            let batch = data.clone();
            prep_s += t.elapsed().as_secs_f64();
            let t = Instant::now();
            rows += s.load_rows(table, batch)?;
            load_s += t.elapsed().as_secs_f64();
        }
        Ok(Loaded {
            server,
            rows,
            load_s,
            prep_s,
        })
    }

    fn client(&self, id: usize) -> Box<dyn Client + Send> {
        Box::new(OlapClient {
            rng: Rng::new(self.seed.wrapping_mul(1_000_003).wrapping_add(id as u64)),
            cols: Arc::clone(&self.cols),
            n: 0,
            pending: None,
            expected: None,
        })
    }

    fn loaded_rows(&self) -> u64 {
        (self.cols.orderkey.len() + self.cols.nation.len()) as u64
    }

    fn drop_rows(&mut self) {
        self.lineitem = Vec::new();
        self.supplier = Vec::new();
    }

    fn sample_rows(&self, n: usize) -> (Schema, Vec<Row>) {
        (
            tpch::lineitem_schema(),
            tpch::lineitem_rows(self.sf, self.seed).take(n).collect(),
        )
    }
}

/// One statement's drawn literals.
#[derive(Clone, Copy)]
enum Params {
    Q1 { date_idx: i64 },
    Q6 { year: i64, disc: i64, qty: i64 },
    SupplierJoin { qty: i64 },
    SupplierModeAgg { date_idx: i64 },
    OrderkeyAgg { tax: i64 },
}

struct OlapClient {
    rng: Rng,
    cols: Arc<Cols>,
    n: usize,
    pending: Option<Params>,
    /// The pending statement's answer, once computed.
    expected: Option<(usize, Answer)>,
}

fn cents(x: i64) -> String {
    format!("0.{x:02}")
}

impl OlapClient {
    fn draw(&mut self, class: usize) -> (Params, String) {
        let r = &mut self.rng;
        match class {
            0 => {
                let date_idx = r.range(1800, 2399);
                let sql = format!(
                    "SELECT l_returnflag, l_linestatus, SUM(l_quantity), SUM(l_extendedprice), \
                     SUM(l_extendedprice * (1 - l_discount)), \
                     SUM(l_extendedprice * (1 - l_discount) * (1 + l_tax)), \
                     AVG(l_quantity), AVG(l_extendedprice), AVG(l_discount), COUNT(*) \
                     FROM lineitem WHERE l_shipdate <= '{}' \
                     GROUP BY l_returnflag, l_linestatus",
                    hive_datagen::date_from_index(date_idx)
                );
                (Params::Q1 { date_idx }, sql)
            }
            1 => {
                let (year, disc, qty) = (r.range(1992, 1997), r.range(2, 8), r.range(20, 30));
                let sql = format!(
                    "SELECT SUM(l_extendedprice * l_discount) FROM lineitem \
                     WHERE l_shipdate >= '{year}-01-01' AND l_shipdate < '{}-01-01' \
                     AND l_discount BETWEEN {} AND {} AND l_quantity < {qty}",
                    year + 1,
                    cents(disc - 1),
                    cents(disc + 1)
                );
                (Params::Q6 { year, disc, qty }, sql)
            }
            2 => {
                let qty = r.range(10, 40);
                let sql = format!(
                    "SELECT s_nationkey, COUNT(*), SUM(l_extendedprice) \
                     FROM lineitem JOIN supplier ON (l_suppkey = s_suppkey) \
                     WHERE l_quantity <= {qty} GROUP BY s_nationkey"
                );
                (Params::SupplierJoin { qty }, sql)
            }
            3 => {
                let date_idx = r.range(0, 600);
                let sql = format!(
                    "SELECT l_suppkey, l_shipmode, COUNT(*), SUM(l_quantity), MAX(l_discount) \
                     FROM lineitem WHERE l_shipdate >= '{}' \
                     GROUP BY l_suppkey, l_shipmode",
                    hive_datagen::date_from_index(date_idx)
                );
                (Params::SupplierModeAgg { date_idx }, sql)
            }
            _ => {
                let tax = r.range(2, 8);
                let sql = format!(
                    "SELECT l_orderkey, COUNT(*), SUM(l_extendedprice) FROM lineitem \
                     WHERE l_tax <= {} GROUP BY l_orderkey",
                    cents(tax)
                );
                (Params::OrderkeyAgg { tax }, sql)
            }
        }
    }
}

/// Running sums for one group, keyed by its rendered key.
fn accumulate(map: &mut HashMap<Vec<String>, Vec<f64>>, key: Vec<String>, vals: &[f64]) {
    let acc = map.entry(key).or_insert_with(|| vec![0.0; vals.len()]);
    for (a, v) in acc.iter_mut().zip(vals) {
        *a += v;
    }
}

/// The oracle: each class's answer computed from the generated columns.
fn answer(c: &Cols, p: Params) -> (usize, Answer) {
    let n = c.orderkey.len();
    match p {
        Params::Q1 { date_idx } => {
            let date = hive_datagen::date_from_index(date_idx);
            let mut m = HashMap::new();
            for i in (0..n).filter(|&i| c.shipdate[i].as_str() <= date.as_str()) {
                let disc_price = c.price[i] * (1.0 - c.disc[i]);
                accumulate(
                    &mut m,
                    vec![c.returnflag[i].clone(), c.linestatus[i].clone()],
                    &[
                        c.qty[i],
                        c.price[i],
                        disc_price,
                        disc_price * (1.0 + c.tax[i]),
                        c.disc[i],
                        1.0,
                    ],
                );
            }
            let ans = m
                .into_iter()
                .map(|(k, s)| {
                    let cnt = s[5];
                    (
                        k,
                        vec![
                            s[0],
                            s[1],
                            s[2],
                            s[3],
                            s[0] / cnt,
                            s[1] / cnt,
                            s[4] / cnt,
                            cnt,
                        ],
                    )
                })
                .collect();
            (2, ans)
        }
        Params::Q6 { year, disc, qty } => {
            let (lo_date, hi_date) = (format!("{year}-01-01"), format!("{}-01-01", year + 1));
            let (lo, hi) = ((disc - 1) as f64 / 100.0, (disc + 1) as f64 / 100.0);
            let mut sum = 0.0;
            let mut any = false;
            for i in 0..n {
                let d = c.shipdate[i].as_str();
                if d >= lo_date.as_str()
                    && d < hi_date.as_str()
                    && c.disc[i] >= lo
                    && c.disc[i] <= hi
                    && c.qty[i] < qty as f64
                {
                    sum += c.price[i] * c.disc[i];
                    any = true;
                }
            }
            let v = if any { sum } else { f64::NAN };
            (0, Answer::from([(Vec::new(), vec![v])]))
        }
        Params::SupplierJoin { qty } => {
            let mut m = HashMap::new();
            for i in (0..n).filter(|&i| c.qty[i] <= qty as f64) {
                if let Some(nation) = c.nation.get(&c.suppkey[i]) {
                    accumulate(&mut m, vec![nation.to_string()], &[1.0, c.price[i]]);
                }
            }
            (1, m.into_iter().collect())
        }
        Params::SupplierModeAgg { date_idx } => {
            let date = hive_datagen::date_from_index(date_idx);
            let mut m: HashMap<Vec<String>, Vec<f64>> = HashMap::new();
            for i in (0..n).filter(|&i| c.shipdate[i].as_str() >= date.as_str()) {
                let key = vec![c.suppkey[i].to_string(), c.shipmode[i].clone()];
                let acc = m.entry(key).or_insert_with(|| vec![0.0, 0.0, f64::MIN]);
                acc[0] += 1.0;
                acc[1] += c.qty[i];
                acc[2] = acc[2].max(c.disc[i]);
            }
            (2, m.into_iter().collect())
        }
        Params::OrderkeyAgg { tax } => {
            let limit = tax as f64 / 100.0;
            let mut m = HashMap::new();
            for i in (0..n).filter(|&i| c.tax[i] <= limit) {
                accumulate(&mut m, vec![c.orderkey[i].to_string()], &[1.0, c.price[i]]);
            }
            (1, m.into_iter().collect())
        }
    }
}

impl Client for OlapClient {
    fn next(&mut self) -> (usize, String) {
        let class = self.n % CLASSES.len();
        self.n += 1;
        let (p, sql) = self.draw(class);
        self.pending = Some(p);
        self.expected = None;
        (class, sql)
    }

    fn check(&mut self, rows: &[Row]) -> std::result::Result<(), String> {
        let p = self.pending.expect("check follows next");
        let (keys, want) = self.expected.get_or_insert_with(|| answer(&self.cols, p));
        compare(rows, *keys, want)
    }

    fn at_boundary(&self) -> bool {
        self.n.is_multiple_of(CLASSES.len())
    }
}
