//! Oracle test for the ACID delete mask behind `open_reader`: a reader
//! opened with a delete set must return exactly what the same reader
//! without one returns, minus the rows whose physical ordinal is deleted —
//! under input splits, SARG-driven index-group skipping and any batch
//! size, in both `next_row` and `next_batch` — and report the number of
//! rows it hid.
//!
//! Every row carries its own physical ordinal in column `x`, so the oracle
//! needs no ordinal bookkeeping: a correctly aligned mask drops exactly the
//! rows whose `x` is a deleted ordinal.

use hive_common::config::keys;
use hive_common::{DataType, HiveConf, Row, Schema, Value};
use hive_dfs::{Dfs, DfsConfig};
use hive_formats::{
    create_writer, open_reader, DeleteSet, FormatKind, PredicateLeaf, ReadOptions, SearchArgument,
    TableReader, WriteOptions,
};
use hive_vector::VectorizedRowBatch;
use proptest::prelude::*;
use std::collections::BTreeSet;
use std::sync::Arc;

const PATH: &str = "/w/t/part-00000";

fn schema() -> Schema {
    Schema::parse(&[("x", "bigint"), ("k", "bigint"), ("s", "string")]).unwrap()
}

/// `k` repeats in runs of 37 rows with scattered values, so min/max
/// statistics prune index groups that are not contiguous in the file.
fn row(i: i64) -> Row {
    Row::new(vec![
        Value::Int(i),
        Value::Int((i / 37) * 7919 % 200),
        Value::String(format!("r{}", i % 13)),
    ])
}

fn write_file(dfs: &Dfs, conf: &HiveConf, format: FormatKind, rows: i64) {
    let mut w = create_writer(
        dfs,
        PATH,
        &schema(),
        conf,
        &WriteOptions {
            format,
            ..Default::default()
        },
    )
    .unwrap();
    for i in 0..rows {
        w.write_row(&row(i)).unwrap();
    }
    w.close().unwrap();
}

/// Drain `reader` row by row (`batch_size == 0`) or batch by batch,
/// returning the `x` of every row it hands out.
fn drain(reader: &mut dyn TableReader, batch_size: usize) -> Vec<i64> {
    let mut out = Vec::new();
    if batch_size == 0 {
        while let Some(r) = reader.next_row().unwrap() {
            out.push(r[0].as_int().unwrap());
        }
        return out;
    }
    let types = [DataType::Int, DataType::Int, DataType::String];
    loop {
        let mut batch = VectorizedRowBatch::new(&types, batch_size).unwrap();
        let more = reader.next_batch(&mut batch).unwrap();
        let x = batch.columns[0].as_long().unwrap();
        out.extend(batch.iter_selected().map(|i| x.value(i)));
        if !more {
            return out;
        }
    }
}

/// One scan of the file with and without `deletes`; checks the masked
/// reader against the oracle and returns how many rows the mask hid.
fn check(
    dfs: &Dfs,
    conf: &HiveConf,
    opts: ReadOptions,
    deleted: &BTreeSet<i64>,
    deletes: DeleteSet,
    batch_size: usize,
) -> Result<u64, TestCaseError> {
    let open = |opts: &ReadOptions| open_reader(dfs, PATH, &schema(), conf, opts).unwrap();
    let scanned = drain(open(&opts).as_mut(), batch_size);
    let masked_opts = ReadOptions {
        deletes: Some(Arc::new(deletes)),
        ..opts
    };
    let mut masked = open(&masked_opts);
    let got = drain(masked.as_mut(), batch_size);
    let expected: Vec<i64> = scanned
        .iter()
        .copied()
        .filter(|x| !deleted.contains(x))
        .collect();
    prop_assert_eq!(&got, &expected);
    let hidden = (scanned.len() - expected.len()) as u64;
    prop_assert_eq!(masked.rows_masked(), hidden);
    Ok(hidden)
}

/// Random delete set over `0..rows`: scattered ordinals plus one dense
/// run, so some batches lose every row. Keys of another file never mask
/// this one.
fn delete_set(rows: i64, scattered: &[i64], run: (i64, i64)) -> (BTreeSet<i64>, DeleteSet) {
    let (start, len) = (run.0 % rows, run.1);
    let deleted: BTreeSet<i64> = scattered
        .iter()
        .map(|o| o % rows)
        .chain(start..(start + len).min(rows))
        .collect();
    let mut set = DeleteSet::default();
    for &o in &deleted {
        set.insert(PATH.to_string(), o as u64);
        set.insert("/w/t/delta_0000000002".to_string(), o as u64);
    }
    (deleted, set)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(40))]

    #[test]
    fn masked_orc_reader_matches_unmasked_scan_minus_deletes(
        rows in 1i64..3000,
        stride in prop_oneof![Just(10usize), Just(50usize), Just(100usize)],
        batch_size in prop_oneof![Just(0usize), 1usize..64, 1000usize..1100],
        split in (0u64..100, 0u64..100),
        whole_file in any::<bool>(),
        sarg in (0i64..200, 0i64..60),
        use_sarg in any::<bool>(),
        scattered in proptest::collection::vec(0i64..3000, 0..200),
        run in (0i64..3000, 0i64..1500),
    ) {
        let dfs = Dfs::new(DfsConfig { block_size: 16 << 10, replication: 1, nodes: 2 });
        let conf = HiveConf::new()
            .with(keys::ORC_STRIPE_SIZE, "8000")
            .with(keys::ORC_ROW_INDEX_STRIDE, stride.to_string());
        write_file(&dfs, &conf, FormatKind::Orc, rows);
        let len = dfs.len(PATH).unwrap();
        let (a, b) = (split.0.min(split.1) * len / 100, split.0.max(split.1) * len / 100);
        let opts = ReadOptions {
            format: FormatKind::Orc,
            split: (!whole_file).then_some((a, b)),
            sarg: use_sarg.then(|| {
                SearchArgument::new(vec![PredicateLeaf::between(
                    1,
                    Value::Int(sarg.0),
                    Value::Int(sarg.0 + sarg.1),
                )])
            }),
            ..Default::default()
        };
        let (deleted, deletes) = delete_set(rows, &scattered, run);
        check(&dfs, &conf, opts, &deleted, deletes, batch_size)?;
    }

    #[test]
    fn masked_reader_counts_ordinals_of_formats_without_them(
        rows in 1i64..1500,
        format in prop_oneof![
            Just(FormatKind::Text),
            Just(FormatKind::Sequence),
            Just(FormatKind::RcFile),
        ],
        batch_size in prop_oneof![Just(0usize), 1usize..64, 1000usize..1100],
        scattered in proptest::collection::vec(0i64..1500, 0..100),
        run in (0i64..1500, 0i64..800),
    ) {
        let dfs = Dfs::new(DfsConfig { block_size: 1 << 20, replication: 1, nodes: 2 });
        let conf = HiveConf::new();
        write_file(&dfs, &conf, format, rows);
        let (deleted, deletes) = delete_set(rows, &scattered, run);
        let opts = ReadOptions { format, ..Default::default() };
        // Whole-file scan: the oracle is every row minus the deleted ones.
        let hidden = check(&dfs, &conf, opts, &deleted, deletes, batch_size)?;
        prop_assert_eq!(hidden, deleted.len() as u64);
    }
}

/// Row mode: the ordinal a masked reader reports for each row it returns
/// is the row's physical position, whether the format tracks ordinals
/// (ORC, here under a split and index-group skipping) or the mask counts
/// them.
#[test]
fn masked_reader_reports_each_rows_physical_ordinal() {
    let dfs = Dfs::new(DfsConfig {
        block_size: 16 << 10,
        replication: 1,
        nodes: 2,
    });
    let conf = HiveConf::new()
        .with(keys::ORC_STRIPE_SIZE, "8000")
        .with(keys::ORC_ROW_INDEX_STRIDE, "50");
    for (format, split, sarg) in [
        (FormatKind::Text, None, None),
        (
            FormatKind::Orc,
            Some((2000, 40_000)),
            Some(SearchArgument::new(vec![PredicateLeaf::between(
                1,
                Value::Int(0),
                Value::Int(60),
            )])),
        ),
    ] {
        write_file(&dfs, &conf, format, 2500);
        let mut deletes = DeleteSet::default();
        for o in (0..2500).step_by(3) {
            deletes.insert(PATH.to_string(), o);
        }
        let mut r = open_reader(
            &dfs,
            PATH,
            &schema(),
            &conf,
            &ReadOptions {
                format,
                split,
                sarg,
                deletes: Some(Arc::new(deletes)),
                ..Default::default()
            },
        )
        .unwrap();
        let mut n = 0;
        while let Some(row) = r.next_row().unwrap() {
            let x = row[0].as_int().unwrap() as u64;
            assert_eq!(r.last_row_ordinal(), Some(x), "{format}");
            assert_ne!(x % 3, 0, "{format}: deleted row {x} returned");
            n += 1;
        }
        assert!(n > 0 && r.rows_masked() > 0, "{format}: fixture too small");
        dfs.delete(PATH);
    }
}
