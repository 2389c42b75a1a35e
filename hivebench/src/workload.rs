//! What a workload provides to the runner, and the answer comparison its
//! oracles share.

use hive_common::{Result, Row, Value};
use hive_core::HiveServer;
use std::collections::BTreeMap;

/// How the runner accounts a statement class.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// A SELECT: timed into the read metrics, traced layer by layer.
    Read,
    /// INSERT, UPDATE or DELETE.
    Write,
    /// `ALTER TABLE … COMPACT`.
    Compact,
}

#[derive(Debug, Clone, Copy)]
pub struct Class {
    pub name: &'static str,
    pub kind: Kind,
}

/// A server brought up and loaded by [`Workload::setup`].
pub struct Loaded {
    pub server: HiveServer,
    /// Rows passed through `HiveSession::load_rows`.
    pub rows: u64,
    /// Seconds spent inside `load_rows`.
    pub load_s: f64,
    /// Seconds spent copying generated rows for `load_rows`; excluded
    /// from set-up time like row generation itself.
    pub prep_s: f64,
}

/// One benchmark workload: the tables it loads and the closed-loop
/// clients that query them. Generated rows and oracles are built when the
/// workload is constructed, so set-up time covers only the server's work.
pub trait Workload: Sync {
    fn classes(&self) -> &'static [Class];
    /// Closed-loop clients running at once against the one server.
    fn clients(&self) -> usize;
    /// Statements each client runs on the kept server after set-up and
    /// before timing, to fill caches the timed phase relies on. Not part
    /// of `setup_s`: it is statement work, which the timed metrics cover.
    fn cache_fill(&self) -> u64 {
        0
    }
    /// Tables the workload loads (for stored-bytes accounting).
    fn tables(&self) -> &'static [&'static str];
    /// Start a server, create the tables and load the generated rows.
    fn setup(&self) -> Result<Loaded>;
    /// Client `id`'s statement stream, seeded from the workload seed.
    fn client(&self, id: usize) -> Box<dyn Client + Send>;
    /// Live rows in the workload's tables right after set-up.
    fn loaded_rows(&self) -> u64;
    /// Free the generated rows once every set-up has loaded them.
    fn drop_rows(&mut self);
    /// Generated rows of the main table, for the writer probe.
    fn sample_rows(&self, n: usize) -> (hive_common::Schema, Vec<Row>);
}

/// A closed-loop client: it produces one statement, the runner executes
/// it, and the client checks the answer before producing the next.
pub trait Client {
    /// The next statement: its class index and SQL text.
    fn next(&mut self) -> (usize, String);
    /// Check the rows returned for the statement last produced by
    /// [`Client::next`]. Reads may be checked more than once; a write's
    /// check also applies it to the client's model.
    fn check(&mut self, rows: &[Row]) -> std::result::Result<(), String>;
    /// Net rows this client added to the tables (inserts minus deletes).
    fn net_rows_added(&self) -> i64 {
        0
    }
    /// The tables' ACID delta and delete files are relevant to reads.
    fn acid_table(&self) -> Option<&'static str> {
        None
    }
    /// Whether the client has completed a whole cycle of its statement
    /// mix (a pass over every class, a compaction cycle). A timed phase
    /// ends only there, so every run measures whole cycles.
    fn at_boundary(&self) -> bool {
        true
    }
}

/// An expected answer: group key (rendered) → aggregate values.
pub type Answer = BTreeMap<Vec<String>, Vec<f64>>;

/// Relative tolerance for doubles: the engine and the oracle sum in
/// different orders, so the last few bits may differ.
pub const REL_TOL: f64 = 1e-9;

fn key_text(v: &Value) -> String {
    match v {
        Value::String(s) => s.clone(),
        other => other.to_string(),
    }
}

fn number(v: &Value) -> Option<f64> {
    match v {
        Value::Int(i) => Some(*i as f64),
        Value::Double(d) => Some(*d),
        // An aggregate over no rows; oracles expect NaN there.
        Value::Null => Some(f64::NAN),
        _ => None,
    }
}

/// Compare result rows to `expected`: the first `key_cols` columns are the
/// group key, the rest numbers. Row order does not matter.
pub fn compare(
    rows: &[Row],
    key_cols: usize,
    expected: &Answer,
) -> std::result::Result<(), String> {
    if rows.len() != expected.len() {
        return Err(format!(
            "expected {} rows, got {}",
            expected.len(),
            rows.len()
        ));
    }
    for row in rows {
        let vals = row.values();
        let key: Vec<String> = vals[..key_cols].iter().map(key_text).collect();
        let want = expected
            .get(&key)
            .ok_or_else(|| format!("unexpected group {key:?}"))?;
        if vals.len() != key_cols + want.len() {
            return Err(format!("group {key:?}: {} columns", vals.len()));
        }
        for (i, (v, w)) in vals[key_cols..].iter().zip(want).enumerate() {
            let got = number(v).ok_or_else(|| format!("group {key:?}: non-numeric {v:?}"))?;
            let same = if w.is_nan() {
                got.is_nan()
            } else {
                (got - w).abs() <= REL_TOL * w.abs().max(1.0)
            };
            if !same {
                return Err(format!("group {key:?} column {i}: got {got}, expected {w}"));
            }
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn compare_ignores_order_and_tolerates_rounding() {
        let rows = vec![
            Row::new(vec![
                Value::String("b".into()),
                Value::Int(2),
                Value::Double(0.3),
            ]),
            Row::new(vec![
                Value::String("a".into()),
                Value::Int(1),
                Value::Double(1.0),
            ]),
        ];
        let mut want = Answer::new();
        want.insert(vec!["a".into()], vec![1.0, 1.0]);
        want.insert(vec!["b".into()], vec![2.0, 0.1 + 0.2]);
        assert_eq!(compare(&rows, 1, &want), Ok(()));
        want.insert(vec!["b".into()], vec![2.0, 0.31]);
        assert!(compare(&rows, 1, &want).is_err());
        want.remove(&vec!["b".to_string()]);
        assert!(compare(&rows, 1, &want).is_err());
    }
}
