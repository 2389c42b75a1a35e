//! `interactive_lookup`: two closed-loop clients sending short BI-style
//! statements at a small table that sits well inside the block cache. The
//! table has a bloom filter on the point-lookup column and a replica
//! sorted on the range column, so each statement reads little; what
//! remains is per-statement fixed cost: parse, plan, the driver, metrics
//! and trace building, task launch and cached reads.

use crate::olap::ddl;
use crate::rng::Rng;
use crate::workload::{compare, Answer, Class, Client, Kind, Loaded, Workload};
use hive_common::config::keys;
use hive_common::{Result, Row, Schema, Value};
use hive_core::HiveSession;
use std::time::Instant;

const CLASSES: &[Class] = &[
    Class {
        name: "point",
        kind: Kind::Read,
    },
    Class {
        name: "range",
        kind: Kind::Read,
    },
];

/// Multipliers that scatter the lookup and range columns over the file
/// order. Both are coprime to any row count of the form `2^a * 5^b`.
const K_MUL: i64 = 104_729;
const R_MUL: i64 = 7_919;
const GROUPS: i64 = 16;
/// Cache-fill statements per client before timing.
const CACHE_FILL: u64 = 200;

/// The generator's closed form, row `i` of `n`: `(id, k, r, g, v)`.
/// `k` is even, so odd keys inside its range are absent and only the bloom
/// filter can rule a row group out. `salt` comes from the seed.
pub fn kv_row(i: i64, n: i64, salt: i64) -> [i64; 5] {
    let k = 2 * (i * K_MUL % n);
    let r = i * R_MUL % n;
    [i, k, r, r % GROUPS, v_of(r, salt)]
}

fn v_of(r: i64, salt: i64) -> i64 {
    (r * 7_919 + salt) % 100_000
}

fn schema() -> Schema {
    Schema::parse(&[
        ("id", "bigint"),
        ("k", "bigint"),
        ("r", "bigint"),
        ("g", "bigint"),
        ("v", "bigint"),
    ])
    .expect("static schema")
}

fn rows(n: i64, salt: i64) -> impl Iterator<Item = Row> {
    (0..n).map(move |i| Row::new(kv_row(i, n, salt).into_iter().map(Value::Int).collect()))
}

fn salt(seed: u64) -> i64 {
    (seed % 100_000) as i64
}

pub struct Lookup {
    seed: u64,
    n: i64,
    clients: usize,
    rows: Vec<Row>,
}

impl Lookup {
    /// `n` must have only 2 and 5 as prime factors (see `K_MUL`).
    pub fn new(seed: u64, n: i64, clients: usize) -> Lookup {
        let mut m = n;
        for p in [2, 5] {
            while m % p == 0 {
                m /= p;
            }
        }
        assert_eq!(m, 1, "row count {n} must be 2^a * 5^b");
        Lookup {
            seed,
            n,
            clients,
            rows: rows(n, salt(seed)).collect(),
        }
    }
}

impl Workload for Lookup {
    fn classes(&self) -> &'static [Class] {
        CLASSES
    }

    fn clients(&self) -> usize {
        self.clients
    }

    fn tables(&self) -> &'static [&'static str] {
        &["kv"]
    }

    /// Point lookups fill the block cache one bloom-selected row group at
    /// a time; a few hundred per client leave few cold groups behind.
    fn cache_fill(&self) -> u64 {
        CACHE_FILL
    }

    fn setup(&self) -> Result<Loaded> {
        // Small stripes and index strides keep pruning fine-grained; the
        // block cache stays at its default, far above the table's size.
        let server = HiveSession::builder()
            .set(keys::ORC_STRIPE_SIZE, (256u64 << 10).to_string())?
            .set(keys::ORC_ROW_INDEX_STRIDE, "1000")?
            .set(keys::ORC_COMPRESS, "snappy")?
            .set(keys::ORC_BLOOM_FILTER_COLUMNS, "k")?
            .set(keys::ORC_REPLICA_SORT_COLUMNS, "r")?
            .build_server()?;
        let mut s = server.new_session();
        s.execute(&ddl("kv", &schema()))?;
        let t = Instant::now();
        let batch = self.rows.clone();
        let prep_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let rows = s.load_rows("kv", batch)?;
        Ok(Loaded {
            server,
            rows,
            load_s: t.elapsed().as_secs_f64(),
            prep_s,
        })
    }

    fn client(&self, id: usize) -> Box<dyn Client + Send> {
        Box::new(LookupClient {
            rng: Rng::new(self.seed.wrapping_mul(1_000_003).wrapping_add(id as u64)),
            n: self.n,
            salt: salt(self.seed),
            pending: None,
        })
    }

    fn loaded_rows(&self) -> u64 {
        self.n as u64
    }

    fn drop_rows(&mut self) {
        self.rows = Vec::new();
    }

    fn sample_rows(&self, n: usize) -> (Schema, Vec<Row>) {
        (schema(), rows(self.n, salt(self.seed)).take(n).collect())
    }
}

#[derive(Clone, Copy)]
enum Params {
    /// A key lookup; `row` is the generator row holding the key, if any.
    Point {
        row: Option<i64>,
    },
    Range {
        lo: i64,
        hi: i64,
    },
}

struct LookupClient {
    rng: Rng,
    n: i64,
    salt: i64,
    pending: Option<Params>,
}

impl Client for LookupClient {
    fn next(&mut self) -> (usize, String) {
        // Three point lookups for every range statement.
        let class = usize::from(self.rng.chance(0.25));
        let (p, sql) = if class == 0 {
            let i = self.rng.range(0, self.n - 1);
            let present = self.rng.chance(0.75);
            let k = kv_row(i, self.n, self.salt)[1] + i64::from(!present);
            (
                Params::Point {
                    row: present.then_some(i),
                },
                format!("SELECT id, r, v FROM kv WHERE k = {k}"),
            )
        } else {
            let width = self.rng.range(500, 2000);
            let lo = self.rng.range(0, self.n - width);
            let hi = lo + width - 1;
            (
                Params::Range { lo, hi },
                format!(
                    "SELECT g, COUNT(*), SUM(v) FROM kv WHERE r BETWEEN {lo} AND {hi} GROUP BY g"
                ),
            )
        };
        self.pending = Some(p);
        (class, sql)
    }

    fn check(&mut self, rows: &[Row]) -> std::result::Result<(), String> {
        match self.pending.expect("check follows next") {
            Params::Point { row, .. } => {
                let want: Answer = row
                    .map(|i| {
                        let [id, _, r, _, v] = kv_row(i, self.n, self.salt);
                        (
                            vec![id.to_string(), r.to_string(), v.to_string()],
                            Vec::new(),
                        )
                    })
                    .into_iter()
                    .collect();
                compare(rows, 3, &want)
            }
            Params::Range { lo, hi } => {
                let mut want = Answer::new();
                for r in lo..=hi {
                    let acc = want
                        .entry(vec![(r % GROUPS).to_string()])
                        .or_insert_with(|| vec![0.0, 0.0]);
                    acc[0] += 1.0;
                    acc[1] += v_of(r, self.salt) as f64;
                }
                compare(rows, 1, &want)
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn closed_form_is_a_permutation_with_even_keys() {
        let n = 1_000;
        let mut ks: Vec<i64> = (0..n).map(|i| kv_row(i, n, 3)[1]).collect();
        let mut rs: Vec<i64> = (0..n).map(|i| kv_row(i, n, 3)[2]).collect();
        ks.sort_unstable();
        rs.sort_unstable();
        assert_eq!(ks, (0..n).map(|x| 2 * x).collect::<Vec<_>>());
        assert_eq!(rs, (0..n).collect::<Vec<_>>());
    }
}
