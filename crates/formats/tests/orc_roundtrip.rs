//! End-to-end ORC tests: round trips, decomposition, indexes, predicate
//! pushdown, compression, padding, the memory manager and the vectorized
//! reader — each mapped to a behaviour Section 4 / 6.5 of the paper claims.

use hive_codec::block::Compression;
use hive_common::{DataType, Row, Schema, Value};
use hive_dfs::{Dfs, DfsConfig};
use hive_formats::orc::reader::{OrcReadOptions, OrcReader};
use hive_formats::orc::writer::{OrcWriter, OrcWriterOptions};
use hive_formats::orc::MemoryManager;
use hive_formats::{PredicateLeaf, PredicateOp, SearchArgument, TableReader, TableWriter};
use hive_vector::VectorizedRowBatch;

fn dfs() -> Dfs {
    Dfs::new(DfsConfig {
        block_size: 1 << 20,
        replication: 2,
        nodes: 4,
    })
}

fn small_opts() -> OrcWriterOptions {
    OrcWriterOptions {
        stripe_size: 64 << 10,
        row_index_stride: 100,
        ..Default::default()
    }
}

fn write_orc(
    fs: &Dfs,
    path: &str,
    schema: &Schema,
    opts: OrcWriterOptions,
    rows: impl Iterator<Item = Row>,
) {
    let mut w: Box<dyn TableWriter> = Box::new(OrcWriter::create(fs, path, schema, opts, None));
    for r in rows {
        w.write_row(&r).unwrap();
    }
    w.close().unwrap();
}

fn read_all(fs: &Dfs, path: &str, opts: OrcReadOptions) -> (Vec<Row>, OrcReader) {
    let mut r = OrcReader::open(fs, path, opts).unwrap();
    let mut rows = Vec::new();
    while let Some(row) = r.next_row().unwrap() {
        rows.push(row);
    }
    (rows, r)
}

#[test]
fn primitive_round_trip_across_stripes_and_groups() {
    let fs = dfs();
    let schema = Schema::parse(&[
        ("i", "bigint"),
        ("d", "double"),
        ("s", "string"),
        ("b", "boolean"),
        ("t", "timestamp"),
    ])
    .unwrap();
    let make = |i: i64| {
        Row::new(vec![
            Value::Int(i * 3 - 500),
            Value::Double(i as f64 / 7.0),
            Value::String(format!("val-{}", i % 13)),
            Value::Boolean(i % 2 == 0),
            Value::Timestamp(1_400_000_000_000 + i),
        ])
    };
    write_orc(&fs, "/orc/prim", &schema, small_opts(), (0..5000).map(make));
    let (rows, r) = read_all(&fs, "/orc/prim", OrcReadOptions::default());
    assert_eq!(r.num_rows(), 5000);
    assert_eq!(rows.len(), 5000);
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(*row, make(i as i64), "row {i}");
    }
}

#[test]
fn figure_3_complex_types_round_trip() {
    let fs = dfs();
    let schema = Schema::parse(&[
        ("col1", "int"),
        ("col2", "array<int>"),
        ("col4", "map<string,struct<col7:string,col8:int>>"),
        ("col9", "string"),
    ])
    .unwrap();
    let make = |i: i64| {
        Row::new(vec![
            Value::Int(i),
            Value::Array((0..(i % 4)).map(Value::Int).collect()),
            Value::Map(vec![(
                Value::String(format!("k{i}")),
                Value::Struct(vec![Value::String(format!("s{i}")), Value::Int(i * 2)]),
            )]),
            Value::String(format!("tail-{i}")),
        ])
    };
    write_orc(&fs, "/orc/cplx", &schema, small_opts(), (0..1000).map(make));
    let (rows, _) = read_all(&fs, "/orc/cplx", OrcReadOptions::default());
    assert_eq!(rows.len(), 1000);
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(*row, make(i as i64), "row {i}");
    }
}

#[test]
fn nulls_round_trip_everywhere() {
    let fs = dfs();
    let schema = Schema::parse(&[("i", "bigint"), ("s", "string"), ("a", "array<int>")]).unwrap();
    let make = |i: i64| {
        Row::new(vec![
            if i % 3 == 0 {
                Value::Null
            } else {
                Value::Int(i)
            },
            if i % 5 == 0 {
                Value::Null
            } else {
                Value::String(format!("x{i}"))
            },
            if i % 7 == 0 {
                Value::Null
            } else {
                Value::Array(vec![if i % 2 == 0 {
                    Value::Null
                } else {
                    Value::Int(i)
                }])
            },
        ])
    };
    write_orc(
        &fs,
        "/orc/nulls",
        &schema,
        small_opts(),
        (0..2000).map(make),
    );
    let (rows, _) = read_all(&fs, "/orc/nulls", OrcReadOptions::default());
    assert_eq!(rows.len(), 2000);
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(*row, make(i as i64), "row {i}");
    }
}

#[test]
fn union_type_round_trip() {
    let fs = dfs();
    let schema = Schema::parse(&[("u", "uniontype<bigint,string>")]).unwrap();
    let make = |i: i64| {
        Row::new(vec![if i % 2 == 0 {
            Value::Union(0, Box::new(Value::Int(i)))
        } else {
            Value::Union(1, Box::new(Value::String(format!("u{i}"))))
        }])
    };
    write_orc(&fs, "/orc/union", &schema, small_opts(), (0..500).map(make));
    let (rows, _) = read_all(&fs, "/orc/union", OrcReadOptions::default());
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(*row, make(i as i64));
    }
}

#[test]
fn dictionary_and_direct_encodings_both_round_trip() {
    let fs = dfs();
    let schema = Schema::parse(&[("lo", "string"), ("hi", "string")]).unwrap();
    // `lo` has 10 distinct values (dictionary); `hi` is all-distinct (direct).
    let make = |i: i64| {
        Row::new(vec![
            Value::String(format!("cat-{}", i % 10)),
            Value::String(format!("unique-{i}-xyzzy")),
        ])
    };
    write_orc(&fs, "/orc/dict", &schema, small_opts(), (0..3000).map(make));
    let (rows, _) = read_all(&fs, "/orc/dict", OrcReadOptions::default());
    assert_eq!(rows.len(), 3000);
    for (i, row) in rows.iter().enumerate() {
        assert_eq!(*row, make(i as i64));
    }
}

#[test]
fn dictionary_encoding_shrinks_low_cardinality_columns() {
    let fs = dfs();
    let schema = Schema::parse(&[("s", "string")]).unwrap();
    let lowcard = |i: i64| Row::new(vec![Value::String(format!("state-{:02}", i % 50))]);
    let mut x = 88172645463325252u64;
    let mut highcard = |_: i64| {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        Row::new(vec![Value::String(format!("{x:032x}{x:032x}"))])
    };
    write_orc(
        &fs,
        "/orc/low",
        &schema,
        small_opts(),
        (0..20000).map(lowcard),
    );
    write_orc(
        &fs,
        "/orc/high",
        &schema,
        small_opts(),
        (0..20000).map(&mut highcard),
    );
    let low = fs.len("/orc/low").unwrap();
    let high = fs.len("/orc/high").unwrap();
    // Dictionary: ~2 bytes/row of ids vs 64 bytes/row of direct data.
    assert!(low * 4 < high, "dictionary file {low} vs direct {high}");
}

#[test]
fn compression_variants_round_trip_and_shrink() {
    let fs = dfs();
    let schema = Schema::parse(&[("i", "bigint"), ("s", "string")]).unwrap();
    let make = |i: i64| {
        Row::new(vec![
            Value::Int(i % 100),
            Value::String(format!("the quick brown fox {i} jumps over the lazy dog")),
        ])
    };
    let mut sizes = Vec::new();
    for comp in [Compression::None, Compression::Snappy, Compression::Zlib] {
        let path = format!("/orc/comp-{comp}");
        let opts = OrcWriterOptions {
            compression: comp,
            compress_unit: 8 << 10,
            ..small_opts()
        };
        write_orc(&fs, &path, &schema, opts, (0..5000).map(make));
        let (rows, _) = read_all(&fs, &path, OrcReadOptions::default());
        assert_eq!(rows.len(), 5000, "codec {comp}");
        assert_eq!(rows[4321], make(4321));
        sizes.push(fs.len(&path).unwrap());
    }
    assert!(sizes[1] < sizes[0], "snappy should shrink: {sizes:?}");
    assert!(sizes[2] < sizes[0], "zlib should shrink: {sizes:?}");
}

#[test]
fn projection_reads_fewer_bytes_and_decomposed_children() {
    let fs = dfs();
    let schema = Schema::parse(&[
        ("a", "bigint"),
        ("blob", "string"),
        ("m", "map<string,int>"),
    ])
    .unwrap();
    let make = |i: i64| {
        Row::new(vec![
            Value::Int(i),
            Value::String(format!("{:0>200}", i)), // fat column
            Value::Map(vec![(Value::String(format!("k{i}")), Value::Int(i))]),
        ])
    };
    write_orc(&fs, "/orc/proj", &schema, small_opts(), (0..3000).map(make));

    fs.stats().reset();
    let (rows, _) = read_all(&fs, "/orc/proj", OrcReadOptions::default());
    assert_eq!(rows.len(), 3000);
    let full = fs.stats().snapshot().bytes_read();

    fs.stats().reset();
    let (rows, _) = read_all(
        &fs,
        "/orc/proj",
        OrcReadOptions {
            projection: Some(vec![0]),
            ..Default::default()
        },
    );
    assert_eq!(rows[5].values(), &[Value::Int(5)]);
    let narrow = fs.stats().snapshot().bytes_read();
    assert!(
        narrow * 5 < full,
        "projected read {narrow} should be far below full {full}"
    );
}

#[test]
fn predicate_pushdown_skips_stripes_and_groups() {
    let fs = dfs();
    let schema = Schema::parse(&[("x", "bigint"), ("v", "double")]).unwrap();
    // x is sorted, so stats ranges are tight per group/stripe.
    let make = |i: i64| Row::new(vec![Value::Int(i), Value::Double(i as f64)]);
    write_orc(&fs, "/orc/ppd", &schema, small_opts(), (0..20000).map(make));

    let sarg = SearchArgument::new(vec![PredicateLeaf::between(
        0,
        Value::Int(500),
        Value::Int(600),
    )]);

    // No PPD: everything read.
    fs.stats().reset();
    let (rows_all, r_all) = read_all(&fs, "/orc/ppd", OrcReadOptions::default());
    let bytes_all = fs.stats().snapshot().bytes_read();
    assert_eq!(rows_all.len(), 20000);
    assert_eq!(r_all.counters.groups_read, r_all.counters.groups_total);

    // PPD: only the overlapping groups read.
    fs.stats().reset();
    let (rows_sel, r_sel) = read_all(
        &fs,
        "/orc/ppd",
        OrcReadOptions {
            sarg: Some(sarg),
            use_index: true,
            ..Default::default()
        },
    );
    let bytes_sel = fs.stats().snapshot().bytes_read();
    // Selected rows form a superset of the exact range (whole groups).
    assert!(
        rows_sel.len() >= 101 && rows_sel.len() <= 400,
        "{}",
        rows_sel.len()
    );
    assert!(rows_sel.iter().any(|r| r[0] == Value::Int(550)));
    assert!(r_sel.counters.groups_read < r_all.counters.groups_total / 10);
    assert!(
        bytes_sel * 5 < bytes_all,
        "PPD bytes {bytes_sel} vs full {bytes_all}"
    );
}

#[test]
fn stripe_level_skipping_without_index_groups() {
    let fs = dfs();
    let schema = Schema::parse(&[("x", "bigint")]).unwrap();
    let make = |i: i64| Row::new(vec![Value::Int(i)]);
    write_orc(
        &fs,
        "/orc/stripe-skip",
        &schema,
        small_opts(),
        (0..50000).map(make),
    );
    let sarg = SearchArgument::new(vec![PredicateLeaf::new(
        0,
        PredicateOp::LessThan,
        Some(Value::Int(100)),
    )]);
    let (_, r) = read_all(
        &fs,
        "/orc/stripe-skip",
        OrcReadOptions {
            sarg: Some(sarg),
            use_index: false, // only stripe statistics
            ..Default::default()
        },
    );
    assert!(r.counters.stripes_total > 1);
    assert!(
        r.counters.stripes_read < r.counters.stripes_total,
        "{:?}",
        r.counters
    );
}

#[test]
fn block_padding_keeps_stripes_within_blocks() {
    let fs = Dfs::new(DfsConfig {
        block_size: 96 << 10, // deliberately small
        replication: 1,
        nodes: 2,
    });
    let schema = Schema::parse(&[("i", "bigint"), ("s", "string")]).unwrap();
    let make = |i: i64| {
        Row::new(vec![
            Value::Int(i),
            Value::String(format!("padding-test-row-{i:08}")),
        ])
    };
    let opts = OrcWriterOptions {
        stripe_size: 32 << 10,
        row_index_stride: 100,
        block_padding: true,
        ..Default::default()
    };
    let mut w = OrcWriter::create(&fs, "/orc/padded", &schema, opts, None);
    for i in 0..20000 {
        TableWriter::write_row(&mut w, &make(i)).unwrap();
    }
    let padding = w.padding_bytes;
    Box::new(w).close().unwrap();
    assert!(padding > 0, "expected some padding with tiny blocks");

    // Verify alignment by reading footer stripe infos via the reader.
    let r = OrcReader::open(&fs, "/orc/padded", OrcReadOptions::default()).unwrap();
    let _ = r;
    // And the data still round-trips.
    let (rows, _) = read_all(&fs, "/orc/padded", OrcReadOptions::default());
    assert_eq!(rows.len(), 20000);
    assert_eq!(rows[12345], make(12345));
}

#[test]
fn file_stats_answer_simple_aggregations() {
    let fs = dfs();
    let schema = Schema::parse(&[("x", "bigint")]).unwrap();
    write_orc(
        &fs,
        "/orc/stats",
        &schema,
        small_opts(),
        (0..1000).map(|i| Row::new(vec![Value::Int(i)])),
    );
    let r = OrcReader::open(&fs, "/orc/stats", OrcReadOptions::default()).unwrap();
    let stats = r.file_stats(0).unwrap();
    assert_eq!(stats.count(), 1000);
    assert_eq!(stats.min_value(), Some(Value::Int(0)));
    assert_eq!(stats.max_value(), Some(Value::Int(999)));
    assert_eq!(stats.sum_value(), Some(Value::Int(499_500)));
}

#[test]
fn memory_manager_shrinks_stripes_under_pressure() {
    let fs = dfs();
    let schema = Schema::parse(&[("i", "bigint"), ("s", "string")]).unwrap();
    let make = |i: i64| {
        Row::new(vec![
            Value::Int(i),
            Value::String(format!("row-{i}-{}", "y".repeat(64))),
        ])
    };
    // Tight memory: 10 concurrent writers with 64 KB stripes vs 128 KB pool.
    let mm = MemoryManager::new(128 << 10);
    let mut writers: Vec<OrcWriter> = (0..10)
        .map(|w| {
            OrcWriter::create(
                &fs,
                &format!("/orc/mm-{w}"),
                &schema,
                OrcWriterOptions {
                    stripe_size: 64 << 10,
                    row_index_stride: 100,
                    ..Default::default()
                },
                Some(&mm),
            )
        })
        .collect();
    for i in 0..2000 {
        for w in writers.iter_mut() {
            TableWriter::write_row(w, &make(i)).unwrap();
        }
        // The bound must hold at all times.
        let total: usize = writers.iter().map(|w| w.memory_estimate()).sum();
        assert!(
            total <= (160 << 10),
            "writers exceeded the bounded footprint: {total}"
        );
    }
    for w in writers {
        Box::new(w).close().unwrap();
    }
    // All files still readable.
    for wid in 0..10 {
        let (rows, _) = read_all(&fs, &format!("/orc/mm-{wid}"), OrcReadOptions::default());
        assert_eq!(rows.len(), 2000);
    }
}

#[test]
fn vectorized_reader_matches_row_reader() {
    let fs = dfs();
    let schema = Schema::parse(&[("i", "bigint"), ("d", "double"), ("s", "string")]).unwrap();
    let make = |i: i64| {
        Row::new(vec![
            if i % 11 == 0 {
                Value::Null
            } else {
                Value::Int(i)
            },
            Value::Double(i as f64 * 0.5),
            Value::String(format!("s{}", i % 3)),
        ])
    };
    write_orc(&fs, "/orc/vec", &schema, small_opts(), (0..3000).map(make));

    let (rows, _) = read_all(&fs, "/orc/vec", OrcReadOptions::default());

    let mut r = OrcReader::open(&fs, "/orc/vec", OrcReadOptions::default()).unwrap();
    let types: Vec<DataType> = schema
        .fields()
        .iter()
        .map(|f| f.data_type.clone())
        .collect();
    let mut batch = VectorizedRowBatch::new(&types, 256).unwrap();
    let mut got = Vec::new();
    while r.next_batch(&mut batch).unwrap() {
        let cols: Vec<(usize, DataType)> = types.iter().cloned().enumerate().collect();
        got.extend(hive_vector::row_convert::batch_to_rows(&batch, &cols));
    }
    assert_eq!(got.len(), rows.len());
    for (a, b) in got.iter().zip(rows.iter()) {
        assert_eq!(a, b);
    }
}

#[test]
fn vectorized_reader_sets_no_nulls_flag() {
    let fs = dfs();
    let schema = Schema::parse(&[("i", "bigint")]).unwrap();
    write_orc(
        &fs,
        "/orc/nonull",
        &schema,
        small_opts(),
        (0..500).map(|i| Row::new(vec![Value::Int(i)])),
    );
    let mut r = OrcReader::open(&fs, "/orc/nonull", OrcReadOptions::default()).unwrap();
    let mut batch = VectorizedRowBatch::new(&[DataType::Int], 128).unwrap();
    assert!(r.next_batch(&mut batch).unwrap());
    assert!(batch.columns[0].as_long().unwrap().no_nulls);
}

#[test]
fn empty_file_round_trips() {
    let fs = dfs();
    let schema = Schema::parse(&[("i", "bigint")]).unwrap();
    write_orc(&fs, "/orc/empty", &schema, small_opts(), std::iter::empty());
    let (rows, r) = read_all(&fs, "/orc/empty", OrcReadOptions::default());
    assert!(rows.is_empty());
    assert_eq!(r.num_rows(), 0);
}

#[test]
fn corrupt_magic_is_rejected() {
    let fs = dfs();
    let mut w = fs.create("/orc/bogus");
    w.write(b"this is not an orc file at all, sorry!");
    w.close();
    assert!(OrcReader::open(&fs, "/orc/bogus", OrcReadOptions::default()).is_err());
}

#[test]
fn in_list_predicate_pushdown_skips() {
    let fs = dfs();
    let schema = Schema::parse(&[("state", "string"), ("v", "bigint")]).unwrap();
    // Sorted by state so stripe/group statistics have tight string ranges.
    let states = ["AL", "CA", "GA", "NY", "OH", "SD", "TN", "TX", "WA", "WY"];
    let mut rows = Vec::new();
    for s in states {
        for i in 0..2000i64 {
            rows.push(Row::new(vec![Value::String(s.to_string()), Value::Int(i)]));
        }
    }
    write_orc(&fs, "/orc/in", &schema, small_opts(), rows.into_iter());

    let sarg = SearchArgument::new(vec![hive_formats::PredicateLeaf::in_list(
        0,
        vec![Value::String("SD".into()), Value::String("TN".into())],
    )]);
    let (rows_sel, r) = read_all(
        &fs,
        "/orc/in",
        OrcReadOptions {
            sarg: Some(sarg),
            use_index: true,
            ..Default::default()
        },
    );
    // SD+TN is 20% of the rows; boundary groups straddle states, so allow
    // some slack while still requiring real skipping.
    assert!(
        r.counters.groups_read * 10 < r.counters.groups_total * 6,
        "{:?}",
        r.counters
    );
    assert!(
        r.counters.stripes_read < r.counters.stripes_total,
        "{:?}",
        r.counters
    );
    // Soundness: every SD/TN row is present.
    let hits = rows_sel
        .iter()
        .filter(|row| matches!(row[0].as_str(), Some("SD") | Some("TN")))
        .count();
    assert_eq!(hits, 4000);
}

#[test]
fn block_padding_reduces_remote_reads() {
    // Section 4.1's claim: without stripe/block alignment a stripe can span
    // two blocks (two machines), so a data-local map task must fetch part
    // of its stripe remotely; with padding every stripe is block-local.
    let fs = Dfs::new(DfsConfig {
        block_size: 64 << 10,
        replication: 1, // one replica → any cross-block span is remote
        nodes: 8,
    });
    let schema = Schema::parse(&[("i", "bigint"), ("s", "string")]).unwrap();
    let make = |i: i64| {
        Row::new(vec![
            Value::Int(i),
            Value::String(format!("padding-measure-{i:06}-{}", "z".repeat(24))),
        ])
    };
    let remote_bytes = |padding: bool| -> u64 {
        let path = format!("/orc/pad-{padding}");
        let opts = OrcWriterOptions {
            stripe_size: 24 << 10,
            row_index_stride: 200,
            block_padding: padding,
            ..Default::default()
        };
        write_orc(&fs, &path, &schema, opts, (0..20_000).map(make));
        // One "map task" per block, each reading its own stripes from the
        // block's replica node (data-local scheduling).
        fs.stats().reset();
        let len = fs.len(&path).unwrap();
        let mut total_rows = 0;
        for block in fs.blocks(&path).unwrap() {
            let node = block.replicas[0];
            let mut r = OrcReader::open(
                &fs,
                &path,
                OrcReadOptions {
                    split: Some((block.offset, block.offset + block.len)),
                    node: Some(node),
                    ..Default::default()
                },
            )
            .unwrap();
            while r.next_row().unwrap().is_some() {
                total_rows += 1;
            }
        }
        assert_eq!(total_rows, 20_000, "splits must cover every row once");
        let _ = len;
        fs.stats().snapshot().bytes_remote
    };
    let unpadded = remote_bytes(false);
    let padded = remote_bytes(true);
    assert!(
        padded < unpadded,
        "alignment must cut remote reads: padded {padded} vs unpadded {unpadded}"
    );
}

#[test]
fn split_stripe_totals_sum_to_the_footer_count() {
    // Each split reports only the stripes it owns (first byte in
    // `[start, end)`), so summing the per-split totals across a job's map
    // tasks gives the file's stripe count, not `splits × stripes`.
    let fs = Dfs::new(DfsConfig {
        block_size: 32 << 10,
        replication: 1,
        nodes: 4,
    });
    let schema = Schema::parse(&[("i", "bigint"), ("s", "string")]).unwrap();
    let opts = OrcWriterOptions {
        stripe_size: 12 << 10,
        row_index_stride: 200,
        ..Default::default()
    };
    let rows =
        (0..12_000).map(|i| Row::new(vec![Value::Int(i), Value::String(format!("row-{i:06}"))]));
    write_orc(&fs, "/orc/split-totals", &schema, opts, rows);
    let stripes = OrcReader::open(&fs, "/orc/split-totals", OrcReadOptions::default())
        .unwrap()
        .stripe_infos()
        .len() as u64;
    assert!(stripes >= 4, "want several stripes, got {stripes}");
    assert!(fs.blocks("/orc/split-totals").unwrap().len() >= 2);
    let len = fs.len("/orc/split-totals").unwrap();
    let sarg = SearchArgument::new(vec![PredicateLeaf::new(
        0,
        PredicateOp::LessThan,
        Some(Value::Int(3000)),
    )]);
    for n in [1u64, 2, 3, 7, 24] {
        for pushdown in [None, Some(sarg.clone())] {
            let (mut total, mut read, mut rows) = (0, 0, 0);
            for k in 0..n {
                let split = (k * len / n, (k + 1) * len / n);
                let (got, r) = read_all(
                    &fs,
                    "/orc/split-totals",
                    OrcReadOptions {
                        split: Some(split),
                        sarg: pushdown.clone(),
                        ..Default::default()
                    },
                );
                let c = r.counters;
                assert!(
                    c.stripes_read <= c.stripes_total,
                    "{n} splits, {split:?}: {c:?}"
                );
                total += c.stripes_total;
                read += c.stripes_read;
                rows += got.len();
            }
            assert_eq!(total, stripes, "{n} splits");
            if pushdown.is_none() {
                assert_eq!(read, stripes, "{n} splits");
                assert_eq!(rows, 12_000, "{n} splits");
            } else {
                assert!(read < stripes, "{n} splits: the sarg prunes stripes");
            }
        }
    }
}
