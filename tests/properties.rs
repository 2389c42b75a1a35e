//! Property-based tests (proptest) on the core invariants:
//!
//! * every encoder/codec round-trips arbitrary inputs;
//! * ORC round-trips arbitrary rows of arbitrary (primitive) shape, under
//!   every compression codec;
//! * predicate pushdown is *sound*: whatever the reader skips, no matching
//!   row is ever lost;
//! * the vectorized expressions agree with the interpreted row-mode
//!   expressions on arbitrary data — the equivalence Fig. 12 rests on.

use hive::codec::block::{BlockCodec, Compression, DeflateLikeCodec, NoneCodec, SnappyLikeCodec};
use hive::common::{DataType, Row, Schema, Value};
use hive::dfs::{Dfs, DfsConfig};
use hive::formats::orc::reader::{OrcReadOptions, OrcReader};
use hive::formats::orc::writer::{OrcWriter, OrcWriterOptions};
use hive::formats::{PredicateLeaf, SearchArgument, TableReader, TableWriter};
use proptest::prelude::*;

fn small_dfs() -> Dfs {
    Dfs::new(DfsConfig {
        block_size: 1 << 20,
        replication: 1,
        nodes: 3,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn varint_round_trips(v in any::<i64>()) {
        let mut buf = Vec::new();
        hive::codec::varint::write_signed(&mut buf, v);
        let mut pos = 0;
        prop_assert_eq!(hive::codec::varint::read_signed(&buf, &mut pos).unwrap(), v);
        prop_assert_eq!(pos, buf.len());
    }

    #[test]
    fn int_rle_round_trips(vals in proptest::collection::vec(any::<i64>(), 0..2000)) {
        let enc = hive::codec::int_rle::encode(&vals);
        prop_assert_eq!(hive::codec::int_rle::decode(&enc).unwrap(), vals);
    }

    #[test]
    fn int_rle_round_trips_runs(
        runs in proptest::collection::vec((any::<i32>(), -3i64..=3, 1usize..100), 0..20)
    ) {
        // Run-shaped data (base + small delta) exercises the run encoder.
        let mut vals = Vec::new();
        for (base, delta, len) in runs {
            let mut v = base as i64;
            for _ in 0..len {
                vals.push(v);
                v = v.wrapping_add(delta);
            }
        }
        let enc = hive::codec::int_rle::encode(&vals);
        prop_assert_eq!(hive::codec::int_rle::decode(&enc).unwrap(), vals);
    }

    #[test]
    fn byte_rle_round_trips(data in proptest::collection::vec(any::<u8>(), 0..4000)) {
        let enc = hive::codec::byte_rle::encode(&data);
        prop_assert_eq!(hive::codec::byte_rle::decode(&enc).unwrap(), data);
    }

    #[test]
    fn bitfield_round_trips(bits in proptest::collection::vec(any::<bool>(), 0..4000)) {
        let enc = hive::codec::bitfield::encode(&bits);
        prop_assert_eq!(hive::codec::bitfield::decode(&enc, bits.len()).unwrap(), bits);
    }

    #[test]
    fn block_codecs_round_trip(data in proptest::collection::vec(any::<u8>(), 0..20_000)) {
        let codecs: Vec<Box<dyn BlockCodec>> = vec![
            Box::new(NoneCodec),
            Box::new(SnappyLikeCodec),
            Box::new(DeflateLikeCodec),
        ];
        for c in codecs {
            let comp = c.compress(&data);
            prop_assert_eq!(c.decompress(&comp).unwrap(), data.clone(), "codec {}", c.name());
        }
    }

    #[test]
    fn huffman_round_trips(data in proptest::collection::vec(any::<u8>(), 0..20_000)) {
        let comp = hive::codec::huffman::compress(&data);
        prop_assert_eq!(hive::codec::huffman::decompress(&comp).unwrap(), data);
    }
}

/// An arbitrary primitive value of a given type (possibly null).
fn value_strategy(dt: &DataType) -> BoxedStrategy<Value> {
    let non_null: BoxedStrategy<Value> = match dt {
        DataType::Int => any::<i64>().prop_map(Value::Int).boxed(),
        DataType::Double => {
            // Finite doubles only (NaN breaks Eq-based comparisons).
            prop_oneof![
                proptest::num::f64::NORMAL.prop_map(Value::Double),
                Just(Value::Double(0.0)),
            ]
            .boxed()
        }
        DataType::Boolean => any::<bool>().prop_map(Value::Boolean).boxed(),
        DataType::String => "[a-z0-9 ]{0,24}".prop_map(Value::String).boxed(),
        DataType::Timestamp => any::<i64>().prop_map(Value::Timestamp).boxed(),
        _ => unreachable!("primitive types only"),
    };
    prop_oneof![9 => non_null, 1 => Just(Value::Null)].boxed()
}

fn rows_strategy() -> impl Strategy<Value = (Vec<DataType>, Vec<Row>)> {
    let dt = prop_oneof![
        Just(DataType::Int),
        Just(DataType::Double),
        Just(DataType::Boolean),
        Just(DataType::String),
        Just(DataType::Timestamp),
    ];
    proptest::collection::vec(dt, 1..5).prop_flat_map(|types| {
        let row = types
            .iter()
            .map(value_strategy)
            .collect::<Vec<_>>()
            .prop_map(Row::new);
        (Just(types), proptest::collection::vec(row, 0..300))
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn orc_round_trips_arbitrary_rows(
        (types, rows) in rows_strategy(),
        comp in prop_oneof![
            Just(Compression::None),
            Just(Compression::Snappy),
            Just(Compression::Zlib)
        ],
    ) {
        let dfs = small_dfs();
        let schema = Schema::new(
            types
                .iter()
                .enumerate()
                .map(|(i, t)| hive::common::Field::new(format!("c{i}"), t.clone()))
                .collect(),
        );
        let mut w: Box<dyn TableWriter> = Box::new(OrcWriter::create(
            &dfs,
            "/p/orc",
            &schema,
            OrcWriterOptions {
                stripe_size: 4 << 10, // force several stripes
                row_index_stride: 16,
                compression: comp,
                compress_unit: 2 << 10,
                ..Default::default()
            },
            None,
        ));
        for r in &rows {
            w.write_row(r).unwrap();
        }
        w.close().unwrap();
        let mut r = OrcReader::open(&dfs, "/p/orc", OrcReadOptions::default()).unwrap();
        let mut back = Vec::new();
        while let Some(row) = r.next_row().unwrap() {
            back.push(row);
        }
        prop_assert_eq!(back, rows);
    }

    #[test]
    fn orc_ppd_is_sound(
        vals in proptest::collection::vec(any::<i16>(), 1..500),
        lo in any::<i16>(),
        hi in any::<i16>(),
    ) {
        // Whatever the statistics say, every matching row must come back.
        let (lo, hi) = (lo.min(hi) as i64, lo.max(hi) as i64);
        let dfs = small_dfs();
        let schema = Schema::parse(&[("x", "bigint")]).unwrap();
        let mut w: Box<dyn TableWriter> = Box::new(OrcWriter::create(
            &dfs,
            "/p/ppd",
            &schema,
            OrcWriterOptions {
                stripe_size: 2 << 10,
                row_index_stride: 8,
                ..Default::default()
            },
            None,
        ));
        for &v in &vals {
            w.write_row(&Row::new(vec![Value::Int(v as i64)])).unwrap();
        }
        w.close().unwrap();

        let sarg = SearchArgument::new(vec![PredicateLeaf::between(
            0,
            Value::Int(lo),
            Value::Int(hi),
        )]);
        let mut r = OrcReader::open(
            &dfs,
            "/p/ppd",
            OrcReadOptions { sarg: Some(sarg), use_index: true, ..Default::default() },
        )
        .unwrap();
        let mut got = Vec::new();
        while let Some(row) = r.next_row().unwrap() {
            let v = row[0].as_int().unwrap();
            if (lo..=hi).contains(&v) {
                got.push(v);
            }
        }
        let expected: Vec<i64> = vals
            .iter()
            .map(|&v| v as i64)
            .filter(|v| (lo..=hi).contains(v))
            .collect();
        prop_assert_eq!(got, expected, "PPD must never drop matching rows");
    }

    #[test]
    fn vectorized_filter_matches_row_filter(
        vals in proptest::collection::vec((any::<i16>(), any::<bool>()), 1..500),
        threshold in any::<i16>(),
    ) {
        use hive::exec::expr::{BinaryOp, ExprNode};
        use hive::vector::expressions::{FilterLongColGreaterLongScalar, VectorExpression};
        use hive::vector::{ColumnVector, VectorizedRowBatch};

        let n = vals.len();
        // Row mode.
        let pred = ExprNode::binary(
            BinaryOp::Gt,
            ExprNode::col(0),
            ExprNode::lit(Value::Int(threshold as i64)),
        );
        let row_selected: Vec<usize> = vals
            .iter()
            .enumerate()
            .filter(|(_, (v, null))| {
                let row = Row::new(vec![if *null { Value::Null } else { Value::Int(*v as i64) }]);
                pred.eval_predicate(&row).unwrap()
            })
            .map(|(i, _)| i)
            .collect();

        // Vector mode.
        let mut batch = VectorizedRowBatch::new(&[DataType::Int], n).unwrap();
        if let ColumnVector::Long(c) = &mut batch.columns[0] {
            for (i, (v, null)) in vals.iter().enumerate() {
                c.vector[i] = *v as i64;
                if *null {
                    c.null[i] = true;
                    c.no_nulls = false;
                }
            }
        }
        batch.size = n;
        FilterLongColGreaterLongScalar { column: 0, scalar: threshold as i64 }
            .evaluate(&mut batch)
            .unwrap();
        let vec_selected: Vec<usize> = batch.iter_selected().collect();
        prop_assert_eq!(vec_selected, row_selected);
    }

    #[test]
    fn vectorized_arith_matches_row_arith(
        vals in proptest::collection::vec((-10_000i64..10_000, -10_000i64..10_000), 1..300),
    ) {
        use hive::exec::expr::{BinaryOp, ExprNode};
        use hive::vector::expressions::{LongColMultiplyLongColumn, VectorExpression};
        use hive::vector::{ColumnVector, VectorizedRowBatch};

        let n = vals.len();
        let expr = ExprNode::binary(BinaryOp::Multiply, ExprNode::col(0), ExprNode::col(1));
        let row_out: Vec<i64> = vals
            .iter()
            .map(|(a, b)| {
                expr.eval(&Row::new(vec![Value::Int(*a), Value::Int(*b)]))
                    .unwrap()
                    .as_int()
                    .unwrap()
            })
            .collect();

        let mut batch =
            VectorizedRowBatch::new(&[DataType::Int, DataType::Int, DataType::Int], n).unwrap();
        for (col, pick) in [(0usize, 0usize), (1, 1)] {
            if let ColumnVector::Long(c) = &mut batch.columns[col] {
                for (i, v) in vals.iter().enumerate() {
                    c.vector[i] = if pick == 0 { v.0 } else { v.1 };
                }
            }
        }
        batch.size = n;
        LongColMultiplyLongColumn { left_column: 0, right_column: 1, output_column: 2 }
            .evaluate(&mut batch)
            .unwrap();
        let vec_out: Vec<i64> = (0..n)
            .map(|i| batch.columns[2].as_long().unwrap().vector[i])
            .collect();
        prop_assert_eq!(vec_out, row_out);
    }

    #[test]
    fn shuffle_key_comparison_is_total_order(
        a in proptest::collection::vec(any::<i32>(), 0..4),
        b in proptest::collection::vec(any::<i32>(), 0..4),
        c in proptest::collection::vec(any::<i32>(), 0..4),
    ) {
        use hive::mapreduce::engine::cmp_keys;
        let ka: Vec<Value> = a.into_iter().map(|v| Value::Int(v as i64)).collect();
        let kb: Vec<Value> = b.into_iter().map(|v| Value::Int(v as i64)).collect();
        let kc: Vec<Value> = c.into_iter().map(|v| Value::Int(v as i64)).collect();
        // Antisymmetry and transitivity (spot checks).
        prop_assert_eq!(cmp_keys(&ka, &kb), cmp_keys(&kb, &ka).reverse());
        if cmp_keys(&ka, &kb).is_le() && cmp_keys(&kb, &kc).is_le() {
            prop_assert!(cmp_keys(&ka, &kc).is_le());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn text_serde_round_trips_rows((types, rows) in rows_strategy()) {
        let schema = Schema::new(
            types
                .iter()
                .enumerate()
                .map(|(i, t)| hive::common::Field::new(format!("c{i}"), t.clone()))
                .collect(),
        );
        for row in &rows {
            let mut buf = Vec::new();
            hive::formats::serde::text_serialize(row, &mut buf);
            let back = hive::formats::serde::text_deserialize(&buf, &schema).unwrap();
            prop_assert_eq!(&back, row);
        }
    }

    #[test]
    fn binary_serde_round_trips_rows((_, rows) in rows_strategy()) {
        for row in &rows {
            let mut buf = Vec::new();
            hive::formats::serde::binary_serialize_row(row, &mut buf);
            let mut pos = 0;
            let back = hive::formats::serde::binary_deserialize_row(&buf, &mut pos).unwrap();
            prop_assert_eq!(&back, row);
            prop_assert_eq!(pos, buf.len());
        }
    }

    #[test]
    fn vectorized_between_matches_row_between(
        vals in proptest::collection::vec(any::<i16>(), 1..400),
        a in any::<i16>(),
        b in any::<i16>(),
    ) {
        use hive::exec::expr::ExprNode;
        use hive::vector::expressions::{FilterLongColumnBetween, VectorExpression};
        use hive::vector::{ColumnVector, VectorizedRowBatch};

        let (lo, hi) = (a.min(b) as i64, a.max(b) as i64);
        let pred = ExprNode::Between {
            expr: Box::new(ExprNode::col(0)),
            lo: Box::new(ExprNode::lit(Value::Int(lo))),
            hi: Box::new(ExprNode::lit(Value::Int(hi))),
            negated: false,
        };
        let row_sel: Vec<usize> = vals
            .iter()
            .enumerate()
            .filter(|(_, v)| {
                pred.eval_predicate(&Row::new(vec![Value::Int(**v as i64)])).unwrap()
            })
            .map(|(i, _)| i)
            .collect();

        let n = vals.len();
        let mut batch = VectorizedRowBatch::new(&[DataType::Int], n).unwrap();
        if let ColumnVector::Long(c) = &mut batch.columns[0] {
            for (i, v) in vals.iter().enumerate() {
                c.vector[i] = *v as i64;
            }
        }
        batch.size = n;
        FilterLongColumnBetween { column: 0, lo, hi }.evaluate(&mut batch).unwrap();
        prop_assert_eq!(batch.iter_selected().collect::<Vec<_>>(), row_sel);
    }

    #[test]
    fn rcfile_round_trips_arbitrary_primitive_rows((types, rows) in rows_strategy()) {
        use hive::formats::rcfile::{RcFileReader, RcFileWriter};
        let schema = Schema::new(
            types
                .iter()
                .enumerate()
                .map(|(i, t)| hive::common::Field::new(format!("c{i}"), t.clone()))
                .collect(),
        );
        let dfs = small_dfs();
        let mut w: Box<dyn TableWriter> = Box::new(RcFileWriter::create(
            &dfs,
            "/p/rc",
            &schema,
            4 << 10,
            Compression::Snappy,
        ));
        for r in &rows {
            w.write_row(r).unwrap();
        }
        w.close().unwrap();
        let mut r = RcFileReader::open(&dfs, "/p/rc", &schema, None, None).unwrap();
        let mut back = Vec::new();
        while let Some(row) = r.next_row().unwrap() {
            back.push(row);
        }
        prop_assert_eq!(back, rows);
    }
}

// ---------------------------------------------------------------------------
// Differential row-vs-vector map-join harness: arbitrary build/probe tables
// (nulls, duplicate keys, empty sides) must produce byte-identical sorted
// results through the row-mode and vectorized map-join operators, and the
// vectorized run must actually have used the vectorized operator.
// ---------------------------------------------------------------------------

/// Join keys from a narrow per-type pool so duplicates, matches, misses and
/// NULLs all occur; NULL keys never match on either side.
fn join_key_strategy(dt: &DataType) -> BoxedStrategy<Value> {
    let non_null: BoxedStrategy<Value> = match dt {
        DataType::Int => (0i64..6).prop_map(Value::Int).boxed(),
        DataType::Boolean => any::<bool>().prop_map(Value::Boolean).boxed(),
        DataType::String => prop_oneof![
            Just(Value::String("a".into())),
            Just(Value::String("bb".into())),
            Just(Value::String("ccc".into())),
            Just(Value::String(String::new())),
        ]
        .boxed(),
        DataType::Timestamp => (0i64..4).prop_map(Value::Timestamp).boxed(),
        DataType::Double => prop_oneof![
            Just(Value::Double(0.0)),
            Just(Value::Double(1.5)),
            Just(Value::Double(-2.25)),
        ]
        .boxed(),
        _ => unreachable!("join-key types only"),
    };
    prop_oneof![4 => non_null, 1 => Just(Value::Null)].boxed()
}

fn join_tables_strategy() -> impl Strategy<Value = (DataType, Vec<Value>, Vec<Value>)> {
    let dt = prop_oneof![
        Just(DataType::Int),
        Just(DataType::Boolean),
        Just(DataType::String),
        Just(DataType::Timestamp),
        Just(DataType::Double),
    ];
    dt.prop_flat_map(|dt| {
        let build = proptest::collection::vec(join_key_strategy(&dt), 0..16);
        let probe = proptest::collection::vec(join_key_strategy(&dt), 1..120);
        (Just(dt), build, probe)
    })
}

fn join_session(
    build: &[Value],
    probe: &[Value],
    dt: &DataType,
    vectorize: bool,
) -> hive::HiveSession {
    let sql_type = match dt {
        DataType::Int => "BIGINT",
        DataType::Boolean => "BOOLEAN",
        DataType::String => "STRING",
        DataType::Timestamp => "TIMESTAMP",
        DataType::Double => "DOUBLE",
        _ => unreachable!(),
    };
    let mut hive = hive::HiveSession::in_memory();
    hive.set(
        hive::common::config::keys::VECTORIZED_MAPJOIN_ENABLED,
        if vectorize { "true" } else { "false" },
    );
    hive.execute(&format!(
        "CREATE TABLE build_t (k {sql_type}, name STRING) STORED AS orc"
    ))
    .unwrap();
    hive.load_rows(
        "build_t",
        build
            .iter()
            .enumerate()
            .map(|(i, k)| Row::new(vec![k.clone(), Value::String(format!("b{i}"))])),
    )
    .unwrap();
    hive.execute(&format!(
        "CREATE TABLE probe_t (k {sql_type}, id BIGINT) STORED AS orc"
    ))
    .unwrap();
    hive.load_rows(
        "probe_t",
        probe
            .iter()
            .enumerate()
            .map(|(i, k)| Row::new(vec![k.clone(), Value::Int(i as i64)])),
    )
    .unwrap();
    hive
}

fn sorted_rows(mut rows: Vec<Row>) -> Vec<Row> {
    rows.sort_by(|a, b| {
        for (x, y) in a.values().iter().zip(b.values()) {
            let c = x.sql_cmp(y);
            if c != std::cmp::Ordering::Equal {
                return c;
            }
        }
        std::cmp::Ordering::Equal
    });
    rows
}

// ---------------------------------------------------------------------------
// Differential cache harness: random tables and query batches must produce
// byte-identical sorted results and identical row counts whether the server
// caches are cold, warm (second run against the same server), disabled
// (`hive.io.cache.bytes=0`), or hammered from 4 client threads at once —
// always compared against a fresh single-use session per query.
// ---------------------------------------------------------------------------

/// A random cache workload: table shape plus a batch of parameterized
/// queries spanning sarg scans, group-bys, map-joins, and the
/// stats-answered path (which reads footers through the metadata cache).
fn cache_workload_strategy() -> impl Strategy<Value = (u32, u32, Vec<(usize, i64)>)> {
    (
        50u32..400,
        2u32..20,
        proptest::collection::vec((0usize..4, 0i64..400), 1..6),
    )
}

fn cache_query(template: usize, threshold: i64) -> String {
    match template {
        0 => format!("SELECT k, v FROM t WHERE v < {threshold}"),
        1 => "SELECT k, COUNT(*) AS n, SUM(v) AS sv FROM t GROUP BY k".to_string(),
        2 => format!("SELECT t.k, d.name FROM t JOIN d ON (t.k = d.key) WHERE t.v < {threshold}"),
        _ => "SELECT COUNT(*), MIN(v), MAX(v) FROM t".to_string(),
    }
}

/// Deterministic-clock builder for the differential harness; `cache_on`
/// false disables both cache tiers via the master knob.
fn cache_builder(cache_on: bool) -> hive::SessionBuilder {
    let b = hive::HiveSession::builder().knob(
        hive::common::config::knobs::EXEC_SIM_DETERMINISTIC_CPU,
        true,
    );
    if cache_on {
        b
    } else {
        b.set(hive::common::config::keys::IO_CACHE_BYTES, "0")
            .unwrap()
    }
}

fn load_cache_tables(hive: &mut hive::HiveSession, rows: u32, modulus: u32) {
    hive.execute("CREATE TABLE t (k BIGINT, v BIGINT, s STRING) STORED AS orc")
        .unwrap();
    hive.execute("CREATE TABLE d (key BIGINT, name STRING) STORED AS orc")
        .unwrap();
    hive.load_rows(
        "t",
        (0..rows as i64).map(|i| {
            Row::new(vec![
                Value::Int(i % modulus as i64),
                Value::Int(i),
                Value::String(format!("s{}", i % 7)),
            ])
        }),
    )
    .unwrap();
    hive.load_rows(
        "d",
        (0..modulus as i64).map(|i| Row::new(vec![Value::Int(i), Value::String(format!("d{i}"))])),
    )
    .unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn cache_cold_warm_and_concurrent_match_single_use_sessions(
        (rows, modulus, batch) in cache_workload_strategy(),
    ) {
        // Reference: a fresh single-use session per query — nothing shared,
        // nothing cached across statements.
        let expected: Vec<Vec<Row>> = batch
            .iter()
            .map(|&(t, th)| {
                let mut fresh = cache_builder(true).build().unwrap();
                load_cache_tables(&mut fresh, rows, modulus);
                sorted_rows(fresh.execute(&cache_query(t, th)).unwrap().rows)
            })
            .collect();

        for cache_on in [true, false] {
            let server = cache_builder(cache_on).build_server().unwrap();
            {
                let mut s = server.new_session();
                load_cache_tables(&mut s, rows, modulus);
                // Cold pass fills the caches; warm pass must serve from them
                // with identical rows.
                for pass in ["cold", "warm"] {
                    for (&(t, th), want) in batch.iter().zip(&expected) {
                        let got = sorted_rows(s.execute(&cache_query(t, th)).unwrap().rows);
                        prop_assert_eq!(
                            &got, want,
                            "{} pass diverged (cache_on={}) on {}",
                            pass, cache_on, cache_query(t, th)
                        );
                    }
                }
            }
            // Concurrent: 4 client threads replay the batch against the same
            // (now warm) server.
            std::thread::scope(|scope| {
                for _ in 0..4 {
                    let srv = server.clone();
                    let batch = &batch;
                    let expected = &expected;
                    scope.spawn(move || {
                        for (&(t, th), want) in batch.iter().zip(expected) {
                            let got = sorted_rows(srv.execute(&cache_query(t, th)).unwrap().rows);
                            assert_eq!(
                                &got, want,
                                "concurrent run diverged (cache_on={cache_on}) on {}",
                                cache_query(t, th)
                            );
                        }
                    });
                }
            });
        }
    }
}

// ---------------------------------------------------------------------------
// Plan-cache differential: the prepared-plan cache must be semantically
// invisible. A random batch of statements interleaved with table reloads
// (which move the DFS data watermark) and DDL (which moves the catalog
// generation) replays against two servers — plan cache on and off — and
// every statement must return identical rows on both. Each statement runs
// twice so repeats exercise the hit path, and hits are asserted to have
// actually happened whenever the batch contains a query.
// ---------------------------------------------------------------------------

/// Ops: 0..4 = the [`cache_query`] templates, 4 = reload table `t`,
/// 5 = unrelated DDL.
fn plan_cache_op_strategy() -> impl Strategy<Value = Vec<(usize, i64, u32)>> {
    proptest::collection::vec((0usize..6, 0i64..400, 20u32..150), 2..10)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn plan_cache_is_semantically_invisible(ops in plan_cache_op_strategy()) {
        let build = |on: bool| {
            let server = cache_builder(true)
                .set(
                    "hive.query.plan.cache.enabled",
                    if on { "true" } else { "false" },
                )
                .unwrap()
                .build_server()
                .unwrap();
            let mut s = server.new_session();
            load_cache_tables(&mut s, 120, 10);
            server
        };
        let cached = build(true);
        let plain = build(false);
        let mut queries = 0u64;
        for (i, &(op, th, rows)) in ops.iter().enumerate() {
            match op {
                4 => {
                    for srv in [&cached, &plain] {
                        let mut s = srv.new_session();
                        s.load_rows(
                            "t",
                            (0..rows as i64).map(|i| {
                                Row::new(vec![
                                    Value::Int(i % 9),
                                    Value::Int(i * 3),
                                    Value::String(format!("r{}", i % 4)),
                                ])
                            }),
                        )
                        .unwrap();
                    }
                }
                5 => {
                    for srv in [&cached, &plain] {
                        srv.execute(&format!("CREATE TABLE ddl_{i} (x BIGINT) STORED AS orc"))
                            .unwrap();
                    }
                }
                t => {
                    queries += 1;
                    let q = cache_query(t, th);
                    // Twice: the second run on the cached server is a
                    // guaranteed hit (query scratch writes do not move the
                    // data watermark).
                    for _ in 0..2 {
                        let got = sorted_rows(cached.execute(&q).unwrap().rows);
                        let want = sorted_rows(plain.execute(&q).unwrap().rows);
                        prop_assert_eq!(got, want, "cache on/off diverged on {}", q);
                    }
                }
            }
        }
        if queries > 0 {
            prop_assert!(
                cached.plan_cache().hits() >= queries,
                "every repeated statement should have hit ({} hits, {} queries)",
                cached.plan_cache().hits(),
                queries
            );
        }
        prop_assert_eq!(plain.plan_cache().hits() + plain.plan_cache().misses(), 0);
    }
}

// ---------------------------------------------------------------------------
// Differential row-vs-vector FULL-QUERY harness: random filter + expression
// + group-by pipelines over nullable data must produce identical results in
// batch-native and row mode, and the EXPLAIN ANALYZE profiles must agree on
// every comparable row count — scan rows, per-boundary logical rows, the
// whole reduce side, and the result cardinality.
// ---------------------------------------------------------------------------

/// One random full-query shape over `t (k BIGINT, v BIGINT, d DOUBLE,
/// s STRING)`: a WHERE template (0 = none) plus either a grouped aggregate
/// (over an int or string key) or an expression projection.
fn full_query(filter: usize, th: i64, shape: usize) -> String {
    let w = match filter {
        1 => format!(" WHERE v > {th}"),
        2 => format!(" WHERE v + k < {th}"),
        3 => format!(" WHERE v BETWEEN {th} AND {}", th + 250),
        4 => " WHERE d IS NOT NULL".to_string(),
        _ => String::new(),
    };
    match shape {
        0 => format!(
            "SELECT k, COUNT(*) AS n, SUM(v) AS sv, MIN(v) AS mn, MAX(v) AS mx, \
             AVG(d) AS ad FROM t{w} GROUP BY k"
        ),
        1 => format!("SELECT s, COUNT(*) AS n, SUM(v) AS sv FROM t{w} GROUP BY s"),
        _ => format!("SELECT k, v * 2 AS v2, v + k AS vk, d FROM t{w}"),
    }
}

/// Nullable rows for the full-query harness: narrow key domains so groups
/// collide, nulls in every column, doubles exact in binary.
fn full_query_rows_strategy() -> impl Strategy<Value = Vec<Row>> {
    let k = prop_oneof![4 => (0i64..8).prop_map(Value::Int), 1 => Just(Value::Null)];
    let v = prop_oneof![4 => (-500i64..500).prop_map(Value::Int), 1 => Just(Value::Null)];
    let d = prop_oneof![
        4 => (-64i32..64).prop_map(|x| Value::Double(x as f64 / 4.0)),
        1 => Just(Value::Null)
    ];
    let s = prop_oneof![
        4 => (0u8..5).prop_map(|x| Value::String(format!("g{x}"))),
        1 => Just(Value::Null)
    ];
    proptest::collection::vec(
        (k, v, d, s).prop_map(|(k, v, d, s)| Row::new(vec![k, v, d, s])),
        1..220,
    )
}

fn full_query_session(rows: &[Row], vectorize: bool) -> hive::HiveSession {
    let mut hive = hive::HiveSession::builder()
        .knob(
            hive::common::config::knobs::EXEC_SIM_DETERMINISTIC_CPU,
            true,
        )
        .build()
        .unwrap();
    hive.set(
        hive::common::config::keys::VECTORIZED_ENABLED,
        if vectorize { "true" } else { "false" },
    );
    hive.execute("CREATE TABLE t (k BIGINT, v BIGINT, d DOUBLE, s STRING) STORED AS orc")
        .unwrap();
    hive.load_rows("t", rows.iter().cloned()).unwrap();
    hive
}

/// The row counts a profile commits to, independent of operator naming:
/// scan rows, result rows, logical rows entering the first and leaving the
/// last map-side operator, and the entire reduce side (both modes run the
/// identical row-mode reduce graph, so it must match name-for-name).
#[allow(clippy::type_complexity)]
fn profile_row_counts(text: &str) -> (u64, u64, Vec<(u64, u64)>, Vec<(String, u64, u64)>) {
    let grab = |line: &str, key: &str| -> u64 {
        let at = line
            .find(key)
            .unwrap_or_else(|| panic!("no {key} in {line}"));
        line[at + key.len()..]
            .split(|c: char| !c.is_ascii_digit())
            .next()
            .unwrap()
            .parse()
            .unwrap()
    };
    let mut scan_rows = 0;
    let mut result_rows = 0;
    let mut map_ops = Vec::new();
    let mut reduce_ops = Vec::new();
    let mut section = "";
    for line in text.lines() {
        if line.contains("result_rows=") {
            result_rows = grab(line, "result_rows=");
        } else if line.trim_start().starts_with("scan: rows=") {
            scan_rows += grab(line, "rows=");
        } else if line.contains("map operators:") {
            section = "map";
        } else if line.contains("reduce operators:") {
            section = "reduce";
        } else if line.contains("rows_in=") {
            let rows_in = grab(line, "rows_in=");
            let rows_out = grab(line, "rows_out=");
            match section {
                "map" => map_ops.push((rows_in, rows_out)),
                "reduce" => {
                    let name = line.trim_start().split(" rows_in=").next().unwrap();
                    reduce_ops.push((name.trim_end().to_string(), rows_in, rows_out));
                }
                _ => {}
            }
        }
    }
    (scan_rows, result_rows, map_ops, reduce_ops)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn vectorized_full_queries_match_row_mode(
        rows in full_query_rows_strategy(),
        filter in 0usize..5,
        th in -300i64..300,
        shape in 0usize..3,
    ) {
        let sql = full_query(filter, th, shape);

        let mut vec_s = full_query_session(&rows, true);
        let vec_rows = vec_s.execute(&sql).unwrap().rows;
        let vec_text = vec_s
            .execute(&format!("EXPLAIN ANALYZE {sql}"))
            .unwrap()
            .explain
            .unwrap();
        prop_assert!(
            vec_text.contains("Vector"),
            "query silently fell back to row mode:\n{vec_text}"
        );

        let mut row_s = full_query_session(&rows, false);
        let row_rows = row_s.execute(&sql).unwrap().rows;
        let row_text = row_s
            .execute(&format!("EXPLAIN ANALYZE {sql}"))
            .unwrap()
            .explain
            .unwrap();
        prop_assert!(!row_text.contains("Vector"), "{row_text}");

        prop_assert_eq!(
            sorted_rows(vec_rows),
            sorted_rows(row_rows),
            "results diverged on {}",
            sql
        );

        let (vscan, vres, vmap, vreduce) = profile_row_counts(&vec_text);
        let (rscan, rres, rmap, rreduce) = profile_row_counts(&row_text);
        prop_assert_eq!(vscan, rscan, "scan rows diverged on {}", sql);
        prop_assert_eq!(vres, rres, "result rows diverged on {}", sql);
        // Logical rows entering the map chain and leaving it must agree;
        // the chains differ structurally (fusion, bridge) in between.
        prop_assert_eq!(
            vmap.first().map(|o| o.0),
            rmap.first().map(|o| o.0),
            "map-entry rows diverged on {}\nvec:\n{}\nrow:\n{}",
            sql, vec_text, row_text
        );
        prop_assert_eq!(
            vmap.last().map(|o| o.1),
            rmap.last().map(|o| o.1),
            "map-exit rows diverged on {}\nvec:\n{}\nrow:\n{}",
            sql, vec_text, row_text
        );
        // Both modes run the identical row-mode reduce graph: every reduce
        // operator must report the same logical rows, name for name.
        prop_assert_eq!(
            vreduce, rreduce,
            "reduce-side profiles diverged on {}\nvec:\n{}\nrow:\n{}",
            sql, vec_text, row_text
        );
    }
}

// ---------------------------------------------------------------------------
// Differential row-vs-vector ACID harness: a random INSERT/UPDATE/DELETE
// history against a transactional table, then a random filter / expression /
// group-by / map-join query, run batch-native and in row mode. Both modes
// must return identical sorted rows, identical profile row counts, and
// identical `acid:` merge accounting — before AND after major compaction.
// ---------------------------------------------------------------------------

/// One random DML statement, parameterized so inserts collide with existing
/// keys, updates sometimes match nothing, and deletes span ranges that may
/// cross base and delta files.
fn acid_dml(op: usize, a: i64, b: i64) -> String {
    match op {
        0 => format!(
            "INSERT INTO t VALUES ({}, {}), ({}, {})",
            a % 8,
            b,
            (a + 3) % 8,
            b + 7
        ),
        1 => format!(
            "UPDATE t SET v = v + {} WHERE k = {}",
            (b % 97) + 100,
            a % 8
        ),
        _ => format!("DELETE FROM t WHERE v BETWEEN {} AND {}", b, b + (a % 120)),
    }
}

/// A random query over the ACID table `t (k, v)` joined (shape 2) against
/// the plain dimension `d (key, name)`.
fn acid_query(filter: usize, th: i64, shape: usize) -> String {
    let w = |p: &str| match filter {
        1 => format!(" WHERE {p}v > {th}"),
        2 => format!(" WHERE {p}v + {p}k < {th}"),
        3 => format!(" WHERE {p}v BETWEEN {th} AND {}", th + 250),
        _ => String::new(),
    };
    match shape {
        0 => format!(
            "SELECT k, COUNT(*) AS n, SUM(v) AS sv, MIN(v) AS mn, MAX(v) AS mx \
             FROM t{} GROUP BY k",
            w("")
        ),
        1 => format!("SELECT k, v * 2 AS v2, v + k AS vk FROM t{}", w("")),
        _ => format!(
            "SELECT d.name, COUNT(*) AS n, SUM(t.v) AS sv FROM t \
             JOIN d ON (t.k = d.key){} GROUP BY d.name",
            w("t.")
        ),
    }
}

fn acid_diff_session(rows: &[(i64, i64)], vectorize: bool) -> hive::HiveSession {
    let mut hive = hive::HiveSession::builder()
        .knob(
            hive::common::config::knobs::EXEC_SIM_DETERMINISTIC_CPU,
            true,
        )
        .build()
        .unwrap();
    hive.set(
        hive::common::config::keys::VECTORIZED_ENABLED,
        if vectorize { "true" } else { "false" },
    );
    hive.execute("CREATE TABLE t (k BIGINT, v BIGINT) STORED AS orc")
        .unwrap();
    hive.load_rows(
        "t",
        rows.iter()
            .map(|&(k, v)| Row::new(vec![Value::Int(k), Value::Int(v)])),
    )
    .unwrap();
    hive.execute("CREATE TABLE d (key BIGINT, name STRING) STORED AS orc")
        .unwrap();
    hive.load_rows(
        "d",
        (0..8i64).map(|i| Row::new(vec![Value::Int(i), Value::String(format!("d{i}"))])),
    )
    .unwrap();
    hive
}

/// The `acid:` lines of a profile — merge-on-read accounting (snapshot
/// generation, delta files, delta rows, masked rows) that must be
/// mode-independent.
fn acid_profile_lines(text: &str) -> Vec<String> {
    text.lines()
        .filter(|l| l.trim_start().starts_with("acid:"))
        .map(str::to_string)
        .collect()
}

/// One differential checkpoint: run `sql` in both sessions and compare
/// rows, profile row counts, and acid accounting.
fn acid_diff_check(
    vec_s: &mut hive::HiveSession,
    row_s: &mut hive::HiveSession,
    sql: &str,
    bridges: usize,
    phase: &str,
) -> Result<(), proptest::test_runner::TestCaseError> {
    let vec_rows = vec_s.execute(sql).unwrap().rows;
    let vec_text = vec_s
        .execute(&format!("EXPLAIN ANALYZE {sql}"))
        .unwrap()
        .explain
        .unwrap();
    prop_assert!(
        vec_text.contains("Vector"),
        "{phase}: ACID query fell back to row mode:\n{vec_text}"
    );
    // ACID-ness must not add fallback crossings: aggregation chains end in
    // a vector sink (zero bridges); a map-only projection crosses exactly
    // the one bridge into the row-mode FileSink that plain tables cross.
    prop_assert_eq!(
        vec_text.matches("RowBridge").count(),
        bridges,
        "{}: unexpected bridge count on {}:\n{}",
        phase,
        sql,
        vec_text
    );
    let row_rows = row_s.execute(sql).unwrap().rows;
    let row_text = row_s
        .execute(&format!("EXPLAIN ANALYZE {sql}"))
        .unwrap()
        .explain
        .unwrap();
    prop_assert!(!row_text.contains("Vector"), "{row_text}");

    prop_assert_eq!(
        sorted_rows(vec_rows),
        sorted_rows(row_rows),
        "{}: results diverged on {}",
        phase,
        sql
    );
    let (vscan, vres, vmap, vreduce) = profile_row_counts(&vec_text);
    let (rscan, rres, rmap, rreduce) = profile_row_counts(&row_text);
    prop_assert_eq!(vscan, rscan, "{}: scan rows diverged on {}", phase, sql);
    prop_assert_eq!(vres, rres, "{}: result rows diverged on {}", phase, sql);
    prop_assert_eq!(
        vmap.first().map(|o| o.0),
        rmap.first().map(|o| o.0),
        "{}: map-entry rows diverged on {}\nvec:\n{}\nrow:\n{}",
        phase,
        sql,
        vec_text,
        row_text
    );
    prop_assert_eq!(
        vmap.last().map(|o| o.1),
        rmap.last().map(|o| o.1),
        "{}: map-exit rows diverged on {}\nvec:\n{}\nrow:\n{}",
        phase,
        sql,
        vec_text,
        row_text
    );
    prop_assert_eq!(
        vreduce,
        rreduce,
        "{}: reduce-side profiles diverged on {}\nvec:\n{}\nrow:\n{}",
        phase,
        sql,
        vec_text,
        row_text
    );
    // Batch-wise delta merge and selected[]-level masking must account
    // logical rows exactly like the row-at-a-time path.
    prop_assert_eq!(
        acid_profile_lines(&vec_text),
        acid_profile_lines(&row_text),
        "{}: acid merge accounting diverged on {}\nvec:\n{}\nrow:\n{}",
        phase,
        sql,
        vec_text,
        row_text
    );
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    #[test]
    fn vectorized_acid_full_queries_match_row_mode(
        base in proptest::collection::vec((0i64..8, -500i64..500), 0..120),
        history in proptest::collection::vec(
            (0usize..3, 0i64..1000, -400i64..400), 1..6),
        filter in 0usize..4,
        th in -300i64..300,
        shape in 0usize..3,
    ) {
        let sql = acid_query(filter, th, shape);
        let mut vec_s = acid_diff_session(&base, true);
        let mut row_s = acid_diff_session(&base, false);

        // Replay the same DML history against both sessions; the affected
        // row counts must already agree statement by statement.
        for &(op, a, b) in &history {
            let dml = acid_dml(op, a, b);
            let vec_n = vec_s.execute(&dml).unwrap().rows;
            let row_n = row_s.execute(&dml).unwrap().rows;
            prop_assert_eq!(vec_n, row_n, "DML disagreed on {}", dml);
        }
        let bridges = if shape == 1 { 1 } else { 0 };
        acid_diff_check(&mut vec_s, &mut row_s, &sql, bridges, "pre-compaction")?;

        for s in [&mut vec_s, &mut row_s] {
            s.execute("ALTER TABLE t COMPACT 'major'").unwrap();
        }
        acid_diff_check(&mut vec_s, &mut row_s, &sql, bridges, "post-compaction")?;
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn vectorized_mapjoin_matches_row_mapjoin(
        (dt, build, probe) in join_tables_strategy(),
    ) {
        for join in ["JOIN", "LEFT JOIN"] {
            let sql = format!(
                "SELECT probe_t.id, probe_t.k, build_t.name FROM probe_t \
                 {join} build_t ON (probe_t.k = build_t.k)"
            );
            let mut vec_s = join_session(&build, &probe, &dt, true);
            let vec_rows = vec_s.execute(&sql).unwrap().rows;
            let analyze = vec_s
                .execute(&format!("EXPLAIN ANALYZE {sql}"))
                .unwrap()
                .explain
                .expect("EXPLAIN ANALYZE sets explain text");
            prop_assert!(
                analyze.contains("VectorMapJoin"),
                "{join}: plan silently fell back to row mode:\n{analyze}"
            );
            let mut row_s = join_session(&build, &probe, &dt, false);
            let row_rows = row_s.execute(&sql).unwrap().rows;
            prop_assert_eq!(
                sorted_rows(vec_rows),
                sorted_rows(row_rows),
                "{} over {:?} build={} probe={}",
                join, dt, build.len(), probe.len()
            );
        }
    }
}

// ---------------------------------------------------------------------------
// Differential skipping matrix: ORC bloom filters and HAIL-style per-replica
// sort orders are *pure skipping* — they may change what gets read, never
// what comes out. Random data and random point/range predicates must return
// identical results under all four knob combos, on clean files, on files
// with a salvaged-corrupt stripe, and through an ACID delete/update overlay
// (delete masks stay ordinal-aligned however many groups bloom prunes).
// ---------------------------------------------------------------------------

/// All four skipping-knob combinations: (bloom filters, replica sort).
const SKIP_COMBOS: [(bool, bool); 4] = [(false, false), (true, false), (false, true), (true, true)];

/// Small DFS block for the skipping matrix: with wide rows and ~6 KB
/// stripes, block padding gives every stripe a block of its own, so the
/// corrupt-stripe matrix can tamper one stripe without collateral damage.
const SKIP_BLOCK: u64 = 8192;

/// Wide payload string keyed by `k` — wide enough that an encoded stripe
/// exceeds half a DFS block, so no two stripes ever share one.
fn skip_str(k: i64) -> String {
    format!("s{k:0>120}")
}

/// One random skipping query over `t (k BIGINT, v BIGINT, s STRING)`:
/// point lookups and IN lists (bloom territory), a range (min/max stats
/// territory), and a grouped aggregate on top of a point predicate.
fn skip_query(shape: usize, a: i64, b: i64) -> String {
    match shape {
        0 => format!("SELECT k, v, s FROM t WHERE k = {}", a % 240),
        1 => format!("SELECT k, v FROM t WHERE s = '{}'", skip_str(a % 240)),
        2 => format!("SELECT k, v FROM t WHERE v BETWEEN {b} AND {}", b + 60),
        3 => format!(
            "SELECT k, COUNT(*) AS n, SUM(v) AS sv FROM t WHERE k = {} GROUP BY k",
            a % 240
        ),
        _ => format!(
            "SELECT k, v FROM t WHERE k IN ({}, {}, {})",
            a % 240,
            (a + 13) % 240,
            (a + 29) % 240
        ),
    }
}

/// Row-mode oracle for `skip_query`, evaluated directly over the base rows
/// (minus any salvage-dropped prefix): what every knob combo must return.
fn skip_oracle(shape: usize, a: i64, b: i64, rows: &[(i64, i64)]) -> Vec<Row> {
    let key = a % 240;
    let kv = |&(k, v): &(i64, i64)| Row::new(vec![Value::Int(k), Value::Int(v)]);
    match shape {
        0 => rows
            .iter()
            .filter(|r| r.0 == key)
            .map(|&(k, v)| {
                Row::new(vec![
                    Value::Int(k),
                    Value::Int(v),
                    Value::String(skip_str(k)),
                ])
            })
            .collect(),
        1 => rows.iter().filter(|r| r.0 == key).map(kv).collect(),
        2 => rows
            .iter()
            .filter(|r| r.1 >= b && r.1 <= b + 60)
            .map(kv)
            .collect(),
        3 => {
            let hits: Vec<i64> = rows.iter().filter(|r| r.0 == key).map(|r| r.1).collect();
            if hits.is_empty() {
                vec![]
            } else {
                vec![Row::new(vec![
                    Value::Int(key),
                    Value::Int(hits.len() as i64),
                    Value::Int(hits.iter().sum()),
                ])]
            }
        }
        _ => {
            let ks = [a % 240, (a + 13) % 240, (a + 29) % 240];
            rows.iter().filter(|r| ks.contains(&r.0)).map(kv).collect()
        }
    }
}

/// Session for one knob combo. The skipping knobs are set *before* the
/// load so the writer sees them; small stripes and groups give even tiny
/// tables several of each.
fn skip_session(rows: &[(i64, i64)], bloom: bool, replica: bool) -> hive::HiveSession {
    use hive::common::config::keys;
    let mut hive = hive::HiveSession::builder()
        .knob(
            hive::common::config::knobs::EXEC_SIM_DETERMINISTIC_CPU,
            true,
        )
        .dfs_config(DfsConfig {
            block_size: SKIP_BLOCK,
            replication: 3,
            nodes: 10,
        })
        .build()
        .unwrap();
    // ~40 wide rows per stripe, encoded well past half a block, so block
    // padding deterministically gives every stripe its own block. Direct
    // string encoding keeps stripe sizes independent of key collisions.
    hive.set(keys::ORC_STRIPE_SIZE, "12000");
    hive.set(keys::ORC_ROW_INDEX_STRIDE, "25");
    hive.set(keys::ORC_DICT_THRESHOLD, "0.0");
    hive.set(
        keys::ORC_BLOOM_FILTER_COLUMNS,
        if bloom { "k,s" } else { "" },
    );
    hive.set(
        keys::ORC_REPLICA_SORT_COLUMNS,
        if replica { "k,v" } else { "" },
    );
    hive.execute("CREATE TABLE t (k BIGINT, v BIGINT, s STRING) STORED AS orc")
        .unwrap();
    hive.load_rows(
        "t",
        rows.iter().map(|&(k, v)| {
            Row::new(vec![
                Value::Int(k),
                Value::Int(v),
                Value::String(skip_str(k)),
            ])
        }),
    )
    .unwrap();
    hive
}

/// Total `salvaged=` rows across a profile's scan lines (0 when absent).
fn salvaged_rows(text: &str) -> u64 {
    text.lines()
        .filter_map(|l| {
            let l = l.trim_start();
            if !l.starts_with("scan:") {
                return None;
            }
            let at = l.find("salvaged=")?;
            l[at + 9..]
                .split(|c: char| !c.is_ascii_digit())
                .next()?
                .parse::<u64>()
                .ok()
        })
        .sum()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn skipping_knobs_never_change_results(
        rows in proptest::collection::vec((0i64..240, -500i64..500), 120..360),
        shape in 0usize..5,
        a in 0i64..1000,
        b in -400i64..400,
    ) {
        let sql = skip_query(shape, a, b);
        let expect = sorted_rows(skip_oracle(shape, a, b, &rows));
        for (bloom, replica) in SKIP_COMBOS {
            let mut s = skip_session(&rows, bloom, replica);
            let got = sorted_rows(s.execute(&sql).unwrap().rows);
            let text = s
                .execute(&format!("EXPLAIN ANALYZE {sql}"))
                .unwrap()
                .explain
                .unwrap();
            prop_assert_eq!(
                &got, &expect,
                "results diverged (bloom={} replica={}) on {}\n{}",
                bloom, replica, sql, text
            );
            // Sorted variants must be picked whenever the predicate hits a
            // sort column — every shape but the string lookup (s is not a
            // sort column, so the planner has nothing to offer the DFS).
            if replica && shape != 1 {
                prop_assert!(
                    text.contains("replica: "),
                    "no replica choice under {}:\n{}",
                    sql, text
                );
            }
            if !replica {
                prop_assert!(!text.contains("replica: "), "{}", text);
            }
            if !bloom {
                prop_assert!(!text.contains("skip: "), "{}", text);
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn skipping_knobs_agree_on_salvaged_corruption(
        rows in proptest::collection::vec((0i64..240, -500i64..500), 160..320),
        shape in 0usize..5,
        a in 0i64..1000,
        b in -400i64..400,
    ) {
        let sql = skip_query(shape, a, b);
        let mut baseline: Option<(Vec<Row>, u64, u64)> = None;
        let base_part = |s: &hive::HiveSession| -> Vec<String> {
            s.dfs()
                .list("/warehouse/t/")
                .into_iter()
                .filter(|p| p.contains("part-"))
                .collect()
        };
        // Salvage is physical and per copy: sorted replicas lay rows out
        // differently and split planning reads them whenever the predicate
        // hits a sort column, so the matrix runs over the combos that
        // write no sorted replicas and thus all read the tampered base copy.
        for (bloom, replica) in SKIP_COMBOS.into_iter().filter(|&(_, replica)| !replica) {
            let mut s = skip_session(&rows, bloom, replica);
            s.set(hive::common::config::keys::ORC_SKIP_CORRUPT, "true");
            let parts = base_part(&s);
            prop_assert_eq!(parts.len(), 1, "expected one part file, got {:?}", parts);
            let (first_byte, s0_nrows) = {
                let r = OrcReader::open(s.dfs(), &parts[0], OrcReadOptions::default()).unwrap();
                let infos = r.stripe_infos();
                prop_assert!(infos.len() >= 2, "need >= 2 stripes, got {}", infos.len());
                // Block padding must have isolated stripe 0 in its own
                // block — the whole corrupt-matrix design rests on it.
                prop_assert_eq!(
                    (infos[0].offset + infos[0].total_len() - 1) / SKIP_BLOCK,
                    infos[0].offset / SKIP_BLOCK,
                    "stripe 0 crosses a block boundary"
                );
                prop_assert!(
                    infos[1].offset / SKIP_BLOCK > infos[0].offset / SKIP_BLOCK,
                    "stripes 0 and 1 share a block"
                );
                // Writing sorted replicas must leave the base copy's stripe
                // layout (and so the stripe-0 row boundary) untouched.
                let sorted = skip_session(&rows, bloom, true);
                let sorted_parts = base_part(&sorted);
                prop_assert_eq!(&sorted_parts, &parts);
                let sorted_base =
                    OrcReader::open(sorted.dfs(), &sorted_parts[0], OrcReadOptions::default())
                        .unwrap();
                prop_assert_eq!(
                    sorted_base.stripe_infos(),
                    infos,
                    "sorted replicas moved the base copy's stripes (bloom={})",
                    bloom
                );
                (infos[0].offset, infos[0].nrows)
            };
            // One flipped byte fails the whole block's CRC: every read of
            // stripe 0 now errors and salvage drops the entire stripe.
            s.dfs().corrupt_stored(&parts[0], first_byte, 0x5a).unwrap();

            let got = sorted_rows(s.execute(&sql).unwrap().rows);
            let text = s
                .execute(&format!("EXPLAIN ANALYZE {sql}"))
                .unwrap()
                .explain
                .unwrap();
            let salvaged = salvaged_rows(&text);
            // Whether stripe 0 was stats-pruned (salvaged=0, had no
            // matches) or salvaged away, the surviving answer is exactly
            // the oracle over the rows after the dropped prefix.
            let expect = sorted_rows(skip_oracle(shape, a, b, &rows[s0_nrows as usize..]));
            prop_assert_eq!(
                &got, &expect,
                "salvaged results diverged (bloom={} replica={}) on {}\n{}",
                bloom, replica, sql, text
            );
            match &baseline {
                None => baseline = Some((got, salvaged, s0_nrows)),
                Some((rows0, salvaged0, nrows0)) => {
                    prop_assert_eq!(&got, rows0, "combos disagreed on {}", sql);
                    prop_assert_eq!(
                        salvaged, *salvaged0,
                        "salvage accounting diverged (bloom={} replica={}) on {}\n{}",
                        bloom, replica, sql, text
                    );
                    prop_assert_eq!(
                        s0_nrows, *nrows0,
                        "stripe-0 row boundary moved between combos"
                    );
                }
            }
        }
    }
}

/// One random DML statement over `t (k, v, s)`; `s` stays keyed by `k` so
/// the string point-lookup shape remains meaningful after updates.
fn skip_dml(op: usize, a: i64, b: i64) -> String {
    let k1 = a % 240;
    let k2 = (a + 31) % 240;
    match op {
        0 => format!(
            "INSERT INTO t VALUES ({k1}, {b}, '{}'), ({k2}, {}, '{}')",
            skip_str(k1),
            b + 7,
            skip_str(k2)
        ),
        1 => format!("UPDATE t SET v = v + {} WHERE k = {}", (b % 97) + 100, k1),
        _ => format!("DELETE FROM t WHERE v BETWEEN {b} AND {}", b + (a % 120)),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    #[test]
    fn skipping_knobs_never_change_acid_results(
        rows in proptest::collection::vec((0i64..240, -500i64..500), 80..200),
        history in proptest::collection::vec(
            (0usize..3, 0i64..1000, -400i64..400), 1..5),
        shape in 0usize..5,
        a in 0i64..1000,
        b in -400i64..400,
    ) {
        let sql = skip_query(shape, a, b);
        let mut baseline: Option<(Vec<u64>, Vec<Row>, Vec<Row>)> = None;
        for (bloom, replica) in SKIP_COMBOS {
            let mut s = skip_session(&rows, bloom, replica);
            let dml_counts: Vec<u64> = history
                .iter()
                .map(|&(op, da, db)| s.execute(&skip_dml(op, da, db)).unwrap().rows.len() as u64)
                .collect();
            let got = sorted_rows(s.execute(&sql).unwrap().rows);
            let text = s
                .execute(&format!("EXPLAIN ANALYZE {sql}"))
                .unwrap()
                .explain
                .unwrap();
            // Merge-on-read pins every file to the base copy: delete masks
            // are keyed to variant 0's row ordinals, so replica selection
            // must sit out ACID reads entirely.
            prop_assert!(
                !text.contains("replica: "),
                "replica selection leaked into an ACID read:\n{}",
                text
            );
            s.execute("ALTER TABLE t COMPACT 'major'").unwrap();
            let post = sorted_rows(s.execute(&sql).unwrap().rows);
            prop_assert_eq!(
                &post, &got,
                "compaction changed results (bloom={} replica={}) on {}",
                bloom, replica, sql
            );
            match &baseline {
                None => baseline = Some((dml_counts, got, post)),
                Some((counts0, rows0, post0)) => {
                    prop_assert_eq!(
                        &dml_counts, counts0,
                        "DML row counts diverged (bloom={} replica={})",
                        bloom, replica
                    );
                    prop_assert_eq!(
                        &got, rows0,
                        "ACID results diverged (bloom={} replica={}) on {}\n{}",
                        bloom, replica, sql, text
                    );
                    prop_assert_eq!(&post, post0, "post-compaction divergence on {}", sql);
                }
            }
        }
    }
}
