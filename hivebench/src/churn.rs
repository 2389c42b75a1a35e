//! `acid_churn`: one client interleaving INSERT, UPDATE and selective
//! DELETE with merge-on-read aggregates and point reads on an ACID ORC
//! table, compacting minor every few rounds and major less often. The
//! same storage stack serves writes beside reads: the transaction layer,
//! the ORC writer, DFS write and rename, and delta merge-on-read.

use crate::olap::ddl;
use crate::rng::Rng;
use crate::workload::{compare, Answer, Class, Client, Kind, Loaded, Workload};
use hive_common::config::keys;
use hive_common::{Result, Row, Schema, Value};
use hive_core::HiveSession;
use std::collections::BTreeMap;
use std::time::Instant;

const CLASSES: &[Class] = &[
    Class {
        name: "insert",
        kind: Kind::Write,
    },
    Class {
        name: "update",
        kind: Kind::Write,
    },
    Class {
        name: "delete",
        kind: Kind::Write,
    },
    Class {
        name: "agg_read",
        kind: Kind::Read,
    },
    Class {
        name: "point_read",
        kind: Kind::Read,
    },
    Class {
        name: "compact_minor",
        kind: Kind::Compact,
    },
    Class {
        name: "compact_major",
        kind: Kind::Compact,
    },
];
const INSERT: usize = 0;
const UPDATE: usize = 1;
const DELETE: usize = 2;
const AGG_READ: usize = 3;
const POINT_READ: usize = 4;
const MINOR: usize = 5;
const MAJOR: usize = 6;

/// One round's statements; a compaction may follow (see `Churn::next`).
const ROUND: &[usize] = &[INSERT, POINT_READ, UPDATE, AGG_READ, DELETE, POINT_READ];
/// A minor compaction after every `MINOR_EVERY` rounds, made major every
/// `MAJOR_EVERY` rounds.
const MINOR_EVERY: u64 = 3;
const MAJOR_EVERY: u64 = 9;
/// Rows each INSERT adds and each DELETE removes, so the table keeps its
/// size while the data moves.
const BATCH: i64 = 40;
const GROUPS: i64 = 32;

fn schema() -> Schema {
    Schema::parse(&[
        ("id", "bigint"),
        ("bal", "bigint"),
        ("grp", "bigint"),
        ("note", "string"),
    ])
    .expect("static schema")
}

/// A free-text column, so rows carry a realistic string payload through
/// the writer, the deltas and compaction. Depends only on the id.
fn note(id: i64) -> String {
    const WORDS: &[&str] = &[
        "wire", "card", "refund", "fee", "payroll", "transfer", "deposit", "atm", "loan",
        "interest", "rent", "grocery", "fuel", "travel",
    ];
    let mut r = Rng::new(id as u64);
    let words: Vec<&str> = (0..r.range(3, 6))
        .map(|_| WORDS[r.range(0, WORDS.len() as i64 - 1) as usize])
        .collect();
    words.join(" ")
}

fn initial_balance(seed: u64, id: i64) -> i64 {
    let mut r = Rng::new(seed ^ (id as u64).wrapping_mul(0x2545_F491_4F6C_DD1D));
    r.range(0, 9_999)
}

pub struct Churn {
    seed: u64,
    n: i64,
    rows: Vec<Row>,
}

impl Churn {
    pub fn new(seed: u64, n: i64) -> Churn {
        Churn {
            seed,
            n,
            rows: (0..n)
                .map(|id| row(id, initial_balance(seed, id)))
                .collect(),
        }
    }
}

fn row(id: i64, bal: i64) -> Row {
    Row::new(vec![
        Value::Int(id),
        Value::Int(bal),
        Value::Int(id % GROUPS),
        Value::String(note(id)),
    ])
}

impl Workload for Churn {
    fn classes(&self) -> &'static [Class] {
        CLASSES
    }

    fn clients(&self) -> usize {
        1
    }

    fn tables(&self) -> &'static [&'static str] {
        &["acct"]
    }

    fn setup(&self) -> Result<Loaded> {
        let server = HiveSession::builder()
            .set(keys::ORC_COMPRESS, "snappy")?
            .build_server()?;
        let mut s = server.new_session();
        s.execute(&ddl("acct", &schema()))?;
        let t = Instant::now();
        let batch = self.rows.clone();
        let prep_s = t.elapsed().as_secs_f64();
        let t = Instant::now();
        let rows = s.load_rows("acct", batch)?;
        Ok(Loaded {
            server,
            rows,
            load_s: t.elapsed().as_secs_f64(),
            prep_s,
        })
    }

    fn client(&self, id: usize) -> Box<dyn Client + Send> {
        Box::new(ChurnClient {
            rng: Rng::new(self.seed.wrapping_mul(1_000_003).wrapping_add(id as u64)),
            model: (0..self.n)
                .map(|id| (id, initial_balance(self.seed, id)))
                .collect(),
            next_id: self.n,
            oldest: 0,
            step: 0,
            pending: None,
            net_rows: 0,
        })
    }

    fn loaded_rows(&self) -> u64 {
        self.n as u64
    }

    fn drop_rows(&mut self) {
        self.rows = Vec::new();
    }

    fn sample_rows(&self, n: usize) -> (Schema, Vec<Row>) {
        let rows = (0..self.n.min(n as i64))
            .map(|id| row(id, initial_balance(self.seed, id)))
            .collect();
        (schema(), rows)
    }
}

enum Pending {
    Insert(Vec<(i64, i64)>),
    Update { lo: i64, hi: i64, delta: i64 },
    Delete { lo: i64, hi: i64 },
    Agg { lo: i64, hi: i64 },
    Point(i64),
    Compact,
}

/// The client and its model of the table: `id → bal` (`grp` is `id % 32`).
struct ChurnClient {
    rng: Rng,
    model: BTreeMap<i64, i64>,
    next_id: i64,
    /// Lowest id not yet deleted by the oldest-first DELETE stream.
    oldest: i64,
    step: u64,
    pending: Option<Pending>,
    net_rows: i64,
}

impl ChurnClient {
    fn class_at(step: u64) -> usize {
        let per_round = ROUND.len() as u64 + 1;
        let (round, pos) = (step / per_round, (step % per_round) as usize);
        match ROUND.get(pos) {
            Some(&c) => c,
            None if (round + 1) % MAJOR_EVERY == 0 => MAJOR,
            None if (round + 1) % MINOR_EVERY == 0 => MINOR,
            // No compaction this round: a point read fills the slot.
            None => POINT_READ,
        }
    }

    fn count(&self, lo: i64, hi: i64) -> i64 {
        self.model.range(lo..=hi).count() as i64
    }
}

fn one_count(rows: &[Row], want: i64) -> std::result::Result<(), String> {
    compare(rows, 0, &Answer::from([(Vec::new(), vec![want as f64])]))
}

impl Client for ChurnClient {
    fn next(&mut self) -> (usize, String) {
        let class = Self::class_at(self.step);
        self.step += 1;
        let live_hi = self.next_id - 1;
        let (p, sql) = match class {
            INSERT => {
                let rows: Vec<(i64, i64)> = (self.next_id..self.next_id + BATCH)
                    .map(|id| (id, self.rng.range(0, 9_999)))
                    .collect();
                self.next_id += BATCH;
                let values: Vec<String> = rows
                    .iter()
                    .map(|(id, bal)| format!("({id}, {bal}, {}, '{}')", id % GROUPS, note(*id)))
                    .collect();
                (
                    Pending::Insert(rows),
                    format!("INSERT INTO acct VALUES {}", values.join(", ")),
                )
            }
            UPDATE => {
                let lo = self.rng.range(self.oldest, live_hi - 60);
                let hi = lo + self.rng.range(20, 60);
                let delta = self.rng.range(1, 500);
                (
                    Pending::Update { lo, hi, delta },
                    format!("UPDATE acct SET bal = bal + {delta} WHERE id BETWEEN {lo} AND {hi}"),
                )
            }
            DELETE => {
                let (lo, hi) = (self.oldest, self.oldest + BATCH - 1);
                self.oldest += BATCH;
                (
                    Pending::Delete { lo, hi },
                    format!("DELETE FROM acct WHERE id BETWEEN {lo} AND {hi}"),
                )
            }
            AGG_READ => {
                let span = (live_hi - self.oldest) / 2;
                let lo = self.rng.range(self.oldest, live_hi - span);
                let hi = lo + span;
                (
                    Pending::Agg { lo, hi },
                    format!(
                        "SELECT grp, COUNT(*), SUM(bal) FROM acct \
                         WHERE id BETWEEN {lo} AND {hi} GROUP BY grp"
                    ),
                )
            }
            POINT_READ => {
                // Some probes land on rows deleted a round or two ago.
                let id = self.rng.range(self.oldest - 2 * BATCH, live_hi);
                (
                    Pending::Point(id),
                    format!("SELECT bal, grp FROM acct WHERE id = {id}"),
                )
            }
            _ => {
                let mode = if class == MAJOR { "major" } else { "minor" };
                (
                    Pending::Compact,
                    format!("ALTER TABLE acct COMPACT '{mode}'"),
                )
            }
        };
        self.pending = Some(p);
        (class, sql)
    }

    fn check(&mut self, rows: &[Row]) -> std::result::Result<(), String> {
        // Writes are applied to the model even when the engine's count is
        // off, so one wrong answer does not cascade into later ones.
        match self.pending.as_ref().expect("check follows next") {
            Pending::Insert(new) => {
                let n = new.len() as i64;
                self.model.extend(new.iter().copied());
                self.net_rows += n;
                one_count(rows, n)
            }
            &Pending::Update { lo, hi, delta } => {
                let n = self.count(lo, hi);
                for (_, bal) in self.model.range_mut(lo..=hi) {
                    *bal += delta;
                }
                one_count(rows, n)
            }
            &Pending::Delete { lo, hi } => {
                let n = self.count(lo, hi);
                let ids: Vec<i64> = self.model.range(lo..=hi).map(|(&id, _)| id).collect();
                for id in ids {
                    self.model.remove(&id);
                }
                self.net_rows -= n;
                one_count(rows, n)
            }
            &Pending::Agg { lo, hi } => {
                let mut want = Answer::new();
                for (&id, &bal) in self.model.range(lo..=hi) {
                    let acc = want
                        .entry(vec![(id % GROUPS).to_string()])
                        .or_insert_with(|| vec![0.0, 0.0]);
                    acc[0] += 1.0;
                    acc[1] += bal as f64;
                }
                compare(rows, 1, &want)
            }
            &Pending::Point(id) => {
                let want: Answer = self
                    .model
                    .get(&id)
                    .map(|bal| (vec![bal.to_string(), (id % GROUPS).to_string()], Vec::new()))
                    .into_iter()
                    .collect();
                compare(rows, 2, &want)
            }
            Pending::Compact => match rows {
                [r] if r.len() == 1 => Ok(()),
                _ => Err(format!("compaction returned {} rows", rows.len())),
            },
        }
    }

    fn net_rows_added(&self) -> i64 {
        self.net_rows
    }

    fn acid_table(&self) -> Option<&'static str> {
        Some("acct")
    }

    /// Right after a major compaction: stored bytes are compared in the
    /// same phase of the compaction cycle on every run.
    fn at_boundary(&self) -> bool {
        self.step
            .is_multiple_of((ROUND.len() as u64 + 1) * MAJOR_EVERY)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_compact_minor_then_major() {
        let per_round = ROUND.len() as u64 + 1;
        let slot = |round: u64| ChurnClient::class_at(round * per_round + per_round - 1);
        assert_eq!(slot(0), POINT_READ);
        assert_eq!(slot(MINOR_EVERY - 1), MINOR);
        assert_eq!(slot(MAJOR_EVERY - 1), MAJOR);
        assert_eq!(ChurnClient::class_at(0), INSERT);
    }
}
