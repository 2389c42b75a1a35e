//! Oracle test for the keyed path of `VectorHashAggregator`: random batches
//! go to the aggregator and to a plain `BTreeMap` model written here, and
//! both must produce the same partial rows in the same first-seen group
//! order, with doubles compared by bit pattern.
//!
//! The batches cover 1–3 key columns of Long, Double and Bytes; nulls,
//! `is_repeating`, `selected_in_use` and empty batches; -0.0, 0.0 and NaN
//! as keys (two payloads) and as inputs; every `AggKind`; and key domains
//! large enough to grow the group table several times.

use hive_common::{DataType, Value};
use hive_vector::aggregates::{AggKind, AggSpec, VectorHashAggregator};
use hive_vector::{ColumnVector, VectorizedRowBatch};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::BTreeMap;

const ROWS: usize = 64;

/// Doubles that must each form their own group: signed zeros and two NaN
/// payloads (the canonical quiet NaN and one with a low payload bit set).
/// Aggregate inputs draw only the first three: which payload `NaN + NaN`
/// keeps is unspecified in Rust, so two payloads would make sums differ
/// between any two correct implementations.
const SPECIAL_DOUBLES: [u64; 4] = [
    0x8000_0000_0000_0000,
    0x0000_0000_0000_0000,
    0x7ff8_0000_0000_0000,
    0x7ff8_0000_0000_0001,
];

fn key_type(t: u8) -> DataType {
    match t {
        0 => DataType::Int,
        1 => DataType::Double,
        _ => DataType::String,
    }
}

/// Input columns follow the key columns: one of each vector type.
const INPUT_TYPES: [DataType; 3] = [DataType::Int, DataType::Double, DataType::String];

/// Every aggregate, each over an input column of the type it accepts.
fn specs(nk: usize) -> Vec<AggSpec> {
    let (long, double, bytes) = (Some(nk), Some(nk + 1), Some(nk + 2));
    [
        (AggKind::CountStar, None),
        (AggKind::Count, long),
        (AggKind::Count, bytes),
        (AggKind::SumLong, long),
        (AggKind::SumDouble, double),
        (AggKind::MinLong, long),
        (AggKind::MaxLong, long),
        (AggKind::MinDouble, double),
        (AggKind::MaxDouble, double),
        (AggKind::MinBytes, bytes),
        (AggKind::MaxBytes, bytes),
        (AggKind::Avg, long),
        (AggKind::Avg, double),
    ]
    .into_iter()
    .map(|(kind, input_column)| AggSpec { kind, input_column })
    .collect()
}

fn double_of(rng: &mut StdRng, domain: u64, specials: usize) -> f64 {
    if rng.gen_bool(0.2) {
        f64::from_bits(SPECIAL_DOUBLES[rng.gen_range(0..specials)])
    } else {
        rng.gen_range(0..domain) as f64 * 0.25 - 3.0
    }
}

/// Fill column `c` of `b` for rows `0..n`: values from a domain of
/// `domain` distinct values, some nulls, sometimes repeating.
fn fill(
    b: &mut VectorizedRowBatch,
    c: usize,
    n: usize,
    is_key: bool,
    domain: u64,
    rng: &mut StdRng,
) {
    let null_rate = [0.0, 0.05, 0.4][rng.gen_range(0..3usize)];
    let repeating = rng.gen_bool(0.1);
    let nulls: Vec<bool> = (0..n).map(|_| rng.gen_bool(null_rate)).collect();
    let any_null = nulls.iter().any(|&x| x);
    match &mut b.columns[c] {
        ColumnVector::Long(v) => {
            for i in 0..n {
                v.vector[i] = rng.gen_range(0..domain) as i64 - (domain / 2) as i64;
            }
            if rng.gen_bool(0.05) {
                v.vector[0] = i64::MAX; // wrapping sums
            }
            v.null[..n].copy_from_slice(&nulls);
            v.no_nulls = !any_null;
            v.is_repeating = repeating;
        }
        ColumnVector::Double(v) => {
            for i in 0..n {
                v.vector[i] = double_of(rng, domain, if is_key { 4 } else { 3 });
            }
            v.null[..n].copy_from_slice(&nulls);
            v.no_nulls = !any_null;
            v.is_repeating = repeating;
        }
        ColumnVector::Bytes(v) => {
            for i in 0..n {
                let k = rng.gen_range(0..domain);
                let s = if k == 0 {
                    String::new()
                } else {
                    format!("k{k}")
                };
                v.set(i, s.as_bytes());
            }
            v.null[..n].copy_from_slice(&nulls);
            v.no_nulls = !any_null;
            v.is_repeating = repeating;
        }
    }
}

fn random_batch(
    types: &[DataType],
    nk: usize,
    domain: u64,
    rng: &mut StdRng,
) -> VectorizedRowBatch {
    let mut b = VectorizedRowBatch::new(types, ROWS).unwrap();
    let n = if rng.gen_bool(0.1) {
        0
    } else {
        rng.gen_range(1..=ROWS)
    };
    for c in 0..types.len() {
        if c < nk {
            fill(&mut b, c, n, true, domain, rng);
        } else {
            fill(&mut b, c, n, false, 1000, rng);
        }
    }
    b.size = n;
    if rng.gen_bool(0.4) {
        b.selected_in_use = true;
        let mut k = 0;
        for i in 0..n {
            if rng.gen_bool(0.6) {
                b.selected[k] = i;
                k += 1;
            }
        }
        b.size = k;
    }
    b
}

// ---------------------------------------------------------- reference --

#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord)]
enum RefKey {
    Null,
    Long(i64),
    Double(u64),
    Bytes(Vec<u8>),
}

impl RefKey {
    fn value(&self) -> Value {
        match self {
            RefKey::Null => Value::Null,
            RefKey::Long(v) => Value::Int(*v),
            RefKey::Double(bits) => Value::Double(f64::from_bits(*bits)),
            RefKey::Bytes(b) => Value::String(String::from_utf8_lossy(b).into_owned()),
        }
    }
}

/// One row's input to an aggregate, read through the batch accessors.
enum Input<'a> {
    Null,
    Long(i64),
    Double(f64),
    Bytes(&'a [u8]),
}

fn input(col: &ColumnVector, i: usize) -> Input<'_> {
    if col.is_null(i) {
        return Input::Null;
    }
    match col {
        ColumnVector::Long(v) => Input::Long(v.value(i)),
        ColumnVector::Double(v) => Input::Double(v.value(i)),
        ColumnVector::Bytes(v) => Input::Bytes(v.value(i)),
    }
}

/// Textbook per-row aggregate states.
#[derive(Clone)]
enum RefState {
    Count(i64),
    Long(Option<i64>),
    Double(Option<f64>),
    Bytes(Option<Vec<u8>>),
    Avg(f64, i64),
}

impl RefState {
    fn new(kind: AggKind) -> RefState {
        match kind {
            AggKind::CountStar | AggKind::Count => RefState::Count(0),
            AggKind::SumLong | AggKind::MinLong | AggKind::MaxLong => RefState::Long(None),
            AggKind::SumDouble | AggKind::MinDouble | AggKind::MaxDouble => RefState::Double(None),
            AggKind::MinBytes | AggKind::MaxBytes => RefState::Bytes(None),
            AggKind::Avg => RefState::Avg(0.0, 0),
        }
    }

    fn update(&mut self, kind: AggKind, x: &Input) {
        match (kind, self, x) {
            (AggKind::CountStar, RefState::Count(c), _) => *c += 1,
            (_, _, Input::Null) => {}
            (AggKind::Count, RefState::Count(c), _) => *c += 1,
            (AggKind::SumLong, RefState::Long(s), Input::Long(x)) => {
                *s = Some(s.unwrap_or(0).wrapping_add(*x))
            }
            (AggKind::MinLong, RefState::Long(m), Input::Long(x)) => {
                *m = Some(m.map_or(*x, |c| c.min(*x)))
            }
            (AggKind::MaxLong, RefState::Long(m), Input::Long(x)) => {
                *m = Some(m.map_or(*x, |c| c.max(*x)))
            }
            (AggKind::SumDouble, RefState::Double(s), Input::Double(x)) => {
                *s = Some(s.unwrap_or(0.0) + x)
            }
            (AggKind::MinDouble, RefState::Double(m), Input::Double(x)) => {
                *m = Some(m.map_or(*x, |c| c.min(*x)))
            }
            (AggKind::MaxDouble, RefState::Double(m), Input::Double(x)) => {
                *m = Some(m.map_or(*x, |c| c.max(*x)))
            }
            (AggKind::MinBytes, RefState::Bytes(m), Input::Bytes(x)) => {
                if m.as_deref().is_none_or(|c| *x < c) {
                    *m = Some(x.to_vec());
                }
            }
            (AggKind::MaxBytes, RefState::Bytes(m), Input::Bytes(x)) => {
                if m.as_deref().is_none_or(|c| *x > c) {
                    *m = Some(x.to_vec());
                }
            }
            (AggKind::Avg, RefState::Avg(s, n), Input::Long(x)) => {
                *s += *x as f64;
                *n += 1;
            }
            (AggKind::Avg, RefState::Avg(s, n), Input::Double(x)) => {
                *s += x;
                *n += 1;
            }
            (kind, _, _) => panic!("reference: bad input for {kind:?}"),
        }
    }

    fn partial(&self) -> Value {
        match self {
            RefState::Count(c) => Value::Int(*c),
            RefState::Long(v) => v.map_or(Value::Null, Value::Int),
            RefState::Double(v) => v.map_or(Value::Null, Value::Double),
            RefState::Bytes(v) => v.as_ref().map_or(Value::Null, |b| {
                Value::String(String::from_utf8_lossy(b).into_owned())
            }),
            RefState::Avg(s, n) => Value::Struct(vec![Value::Double(*s), Value::Int(*n)]),
        }
    }
}

/// Groups keyed by their key parts, each with its first-seen rank.
#[derive(Default)]
struct Reference {
    groups: BTreeMap<Vec<RefKey>, (usize, Vec<RefState>)>,
}

impl Reference {
    fn process(&mut self, b: &VectorizedRowBatch, key_cols: &[usize], specs: &[AggSpec]) {
        for i in b.iter_selected() {
            let key: Vec<RefKey> = key_cols
                .iter()
                .map(|&c| match input(&b.columns[c], i) {
                    Input::Null => RefKey::Null,
                    Input::Long(v) => RefKey::Long(v),
                    Input::Double(v) => RefKey::Double(v.to_bits()),
                    Input::Bytes(v) => RefKey::Bytes(v.to_vec()),
                })
                .collect();
            let rank = self.groups.len();
            let (_, states) = self
                .groups
                .entry(key)
                .or_insert_with(|| (rank, specs.iter().map(|s| RefState::new(s.kind)).collect()));
            for (spec, state) in specs.iter().zip(states.iter_mut()) {
                let x = match spec.input_column {
                    Some(c) => input(&b.columns[c], i),
                    None => Input::Null,
                };
                state.update(spec.kind, &x);
            }
        }
    }

    /// Partial rows in first-seen order.
    fn rows(&self) -> Vec<Vec<Value>> {
        let mut groups: Vec<_> = self.groups.iter().collect();
        groups.sort_by_key(|(_, (rank, _))| *rank);
        groups
            .into_iter()
            .map(|(key, (_, states))| {
                key.iter()
                    .map(RefKey::value)
                    .chain(states.iter().map(RefState::partial))
                    .collect()
            })
            .collect()
    }
}

/// A value with every double replaced by its bit pattern, so -0.0 vs 0.0
/// and NaN payloads compare exactly.
fn bits(v: &Value) -> String {
    match v {
        Value::Double(x) => format!("D{:016x}", x.to_bits()),
        Value::Struct(fs) => format!("S({})", fs.iter().map(bits).collect::<Vec<_>>().join(",")),
        other => format!("{other:?}"),
    }
}

fn canonical(rows: &[Vec<Value>]) -> Vec<Vec<String>> {
    rows.iter().map(|r| r.iter().map(bits).collect()).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn keyed_aggregation_matches_btreemap_model(
        key_types in proptest::collection::vec(0u8..3, 1..=3),
        domain in prop_oneof![Just(3u64), Just(40u64), Just(2000u64)],
        batches in 1usize..=24,
        seed in any::<u64>(),
    ) {
        let nk = key_types.len();
        let mut types: Vec<DataType> = key_types.iter().map(|&t| key_type(t)).collect();
        types.extend(INPUT_TYPES);
        let key_cols: Vec<usize> = (0..nk).collect();
        let specs = specs(nk);

        let mut agg = VectorHashAggregator::new(key_cols.clone(), specs.clone());
        let mut reference = Reference::default();
        let mut rng = StdRng::seed_from_u64(seed);
        for _ in 0..batches {
            let b = random_batch(&types, nk, domain, &mut rng);
            agg.process(&b).unwrap();
            reference.process(&b, &key_cols, &specs);
        }

        let want = reference.rows();
        prop_assert_eq!(agg.num_groups(), want.len());
        let width = nk + specs.len();
        let got: Vec<Vec<Value>> = (0..agg.num_groups())
            .map(|g| (0..width).map(|c| agg.partial_value(g, c)).collect())
            .collect();
        prop_assert_eq!(canonical(&got), canonical(&want));
    }
}

/// Keys sharing one batch but spread over many table growths keep their
/// first-seen numbering, and the final (non-partial) rows finish AVG.
#[test]
fn growth_keeps_first_seen_order_and_finishes_avg() {
    let mut b = VectorizedRowBatch::new(&[DataType::Int, DataType::Int], 1000).unwrap();
    for i in 0..1000 {
        if let ColumnVector::Long(v) = &mut b.columns[0] {
            v.vector[i] = 999 - i as i64;
        }
        if let ColumnVector::Long(v) = &mut b.columns[1] {
            v.vector[i] = i as i64;
        }
    }
    b.size = 1000;
    let mut agg = VectorHashAggregator::new(
        vec![0],
        vec![AggSpec {
            kind: AggKind::Avg,
            input_column: Some(1),
        }],
    );
    agg.process(&b).unwrap();
    agg.process(&b).unwrap();
    let rows = agg.finish();
    assert_eq!(rows.len(), 1000);
    for (i, r) in rows.iter().enumerate() {
        assert_eq!(
            r.values(),
            &[Value::Int(999 - i as i64), Value::Double(i as f64)]
        );
    }
}
