//! Uniform construction of readers and writers across the four formats,
//! driven by session configuration — the role Hive's `FileFormat` +
//! `SerDe` registry plays.

use crate::delta::{DeleteSet, MaskedReader};
use crate::orc::memory::MemoryManager;
use crate::orc::reader::{OrcReadOptions, OrcReader};
use crate::orc::writer::{OrcWriter, OrcWriterOptions};
use crate::rcfile::{RcFileReader, RcFileWriter};
use crate::sequence::{SequenceReader, SequenceWriter};
use crate::text::{TextReader, TextWriter};
use crate::{SearchArgument, TableReader, TableWriter};
use hive_codec::block::Compression;
use hive_common::config::keys;
use hive_common::{HiveConf, HiveError, Result, Schema};
use hive_dfs::{Dfs, NodeId};
use std::sync::Arc;

/// The storage format of a table.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum FormatKind {
    Text,
    Sequence,
    RcFile,
    #[default]
    Orc,
}

impl FormatKind {
    pub fn parse(s: &str) -> Result<FormatKind> {
        match s.to_ascii_lowercase().as_str() {
            "text" | "textfile" => Ok(FormatKind::Text),
            "seq" | "sequencefile" => Ok(FormatKind::Sequence),
            "rcfile" | "rc" => Ok(FormatKind::RcFile),
            "orc" | "orcfile" => Ok(FormatKind::Orc),
            other => Err(HiveError::Config(format!("unknown file format `{other}`"))),
        }
    }
}

impl std::fmt::Display for FormatKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            FormatKind::Text => write!(f, "textfile"),
            FormatKind::Sequence => write!(f, "sequencefile"),
            FormatKind::RcFile => write!(f, "rcfile"),
            FormatKind::Orc => write!(f, "orc"),
        }
    }
}

/// Options for creating a writer.
#[derive(Clone, Default)]
pub struct WriteOptions {
    pub format: FormatKind,
    /// Override the configured general-purpose codec.
    pub compression: Option<Compression>,
    /// Memory manager shared by the task's ORC writers.
    pub memory: Option<MemoryManager>,
}

/// Options for opening a reader.
#[derive(Clone, Default)]
pub struct ReadOptions {
    pub format: FormatKind,
    /// Top-level projected columns, in output order.
    pub projection: Option<Vec<usize>>,
    /// Predicates to push into the reader (ORC only).
    pub sarg: Option<SearchArgument>,
    pub node: Option<NodeId>,
    /// Input-split byte range (Text/RCFile/ORC honour it; SequenceFile is
    /// read whole by one task).
    pub split: Option<(u64, u64)>,
    /// Sorted copy of the file to read (ORC only; `0` = base file).
    pub variant: usize,
    /// ACID delete set: rows of this file it names are masked out of the
    /// reader's output (see [`MaskedReader`]).
    pub deletes: Option<Arc<DeleteSet>>,
}

/// Create a writer for one file of a table.
pub fn create_writer(
    dfs: &Dfs,
    path: &str,
    schema: &Schema,
    conf: &HiveConf,
    opts: &WriteOptions,
) -> Result<Box<dyn TableWriter>> {
    let compression = match opts.compression {
        Some(c) => c,
        None => Compression::parse(conf.get_raw(keys::ORC_COMPRESS).unwrap_or("none"))?,
    };
    Ok(match opts.format {
        FormatKind::Text => Box::new(TextWriter::create(dfs, path)),
        FormatKind::Sequence => Box::new(SequenceWriter::create(dfs, path)),
        FormatKind::RcFile => Box::new(RcFileWriter::create(
            dfs,
            path,
            schema,
            conf.get_usize(keys::RCFILE_ROWGROUP_SIZE)?,
            compression,
        )),
        FormatKind::Orc => {
            let wopts = OrcWriterOptions {
                stripe_size: conf.get_usize(keys::ORC_STRIPE_SIZE)?,
                row_index_stride: conf.get_usize(keys::ORC_ROW_INDEX_STRIDE)?,
                dictionary_threshold: conf.get_f64(keys::ORC_DICT_THRESHOLD)?,
                compression,
                compress_unit: conf.get_usize(keys::ORC_COMPRESS_UNIT)?,
                block_padding: conf.get_bool(keys::ORC_BLOCK_PADDING)?,
                bloom_columns: resolve_columns(
                    conf.get_raw(keys::ORC_BLOOM_FILTER_COLUMNS).unwrap_or(""),
                    schema,
                )
                .into_iter()
                .map(|(i, _)| i)
                .collect(),
                bloom_fpp: conf.get_f64(keys::ORC_BLOOM_FILTER_FPP)?,
                sort_column: String::new(),
            };
            // Per-replica sort orders apply to table data only: scratch
            // files (shuffle intermediates, ACID txn staging under /tmp/)
            // are read once, whole, and never via replica selection.
            let sort_columns = if path.starts_with("/tmp/") {
                Vec::new()
            } else {
                resolve_columns(
                    conf.get_raw(keys::ORC_REPLICA_SORT_COLUMNS).unwrap_or(""),
                    schema,
                )
            };
            if sort_columns.is_empty() {
                Box::new(OrcWriter::create(
                    dfs,
                    path,
                    schema,
                    wopts,
                    opts.memory.as_ref(),
                ))
            } else {
                Box::new(crate::orc::ReplicatedOrcWriter::create(
                    dfs,
                    path,
                    schema,
                    wopts,
                    sort_columns,
                    opts.memory.as_ref(),
                ))
            }
        }
    })
}

/// Resolve a comma-separated column-name list against a schema, keeping
/// list order. Names the schema does not have are skipped: the knobs are
/// session-global and tables legitimately differ.
fn resolve_columns(raw: &str, schema: &Schema) -> Vec<(usize, String)> {
    raw.split(',')
        .map(str::trim)
        .filter(|s| !s.is_empty())
        .filter_map(|name| {
            schema
                .fields()
                .iter()
                .position(|f| f.name == name)
                .map(|i| (i, name.to_string()))
        })
        .collect()
}

/// Open a reader for one file of a table.
pub fn open_reader(
    dfs: &Dfs,
    path: &str,
    schema: &Schema,
    conf: &HiveConf,
    opts: &ReadOptions,
) -> Result<Box<dyn TableReader>> {
    let reader: Box<dyn TableReader> = match opts.format {
        FormatKind::Text => {
            let (start, end) = opts.split.unwrap_or((0, dfs.len(path)?));
            Box::new(TextReader::open_split(
                dfs,
                path,
                schema.clone(),
                opts.projection.clone(),
                start,
                end,
                opts.node,
            )?)
        }
        FormatKind::Sequence => Box::new(SequenceReader::open(
            dfs,
            path,
            schema.clone(),
            opts.projection.clone(),
            opts.node,
        )?),
        FormatKind::RcFile => {
            let r = RcFileReader::open(dfs, path, schema, opts.projection.clone(), opts.node)?;
            Box::new(match opts.split {
                Some((s, e)) => r.with_split(s, e),
                None => r,
            })
        }
        FormatKind::Orc => Box::new(OrcReader::open(
            dfs,
            path,
            OrcReadOptions {
                projection: opts.projection.clone(),
                sarg: opts.sarg.clone(),
                use_index: conf.get_bool(keys::OPT_PPD_STORAGE)?,
                node: opts.node,
                split: opts.split,
                skip_corrupt: conf.get_bool(keys::ORC_SKIP_CORRUPT)?,
                // `hive.io.cache.bytes=0` is the master switch for both
                // cache tiers; metadata caching piggybacks on it.
                cache_metadata: conf.get_i64(keys::IO_CACHE_BYTES)? > 0,
                variant: opts.variant,
            },
        )?),
    };
    Ok(match &opts.deletes {
        Some(deletes) => Box::new(MaskedReader::new(reader, deletes.ordinals_of(path))),
        None => reader,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use hive_common::{Row, Value};

    #[test]
    fn every_format_round_trips_through_factory() {
        let dfs = Dfs::new(hive_dfs::DfsConfig {
            block_size: 4 << 20,
            replication: 1,
            nodes: 2,
        });
        let conf = HiveConf::new();
        let schema = Schema::parse(&[("a", "bigint"), ("b", "string")]).unwrap();
        for fmt in [
            FormatKind::Text,
            FormatKind::Sequence,
            FormatKind::RcFile,
            FormatKind::Orc,
        ] {
            let path = format!("/fact/{fmt}");
            let mut w = create_writer(
                &dfs,
                &path,
                &schema,
                &conf,
                &WriteOptions {
                    format: fmt,
                    ..Default::default()
                },
            )
            .unwrap();
            for i in 0..100 {
                w.write_row(&Row::new(vec![
                    Value::Int(i),
                    Value::String(format!("v{}", i % 7)),
                ]))
                .unwrap();
            }
            w.close().unwrap();
            let mut r = open_reader(
                &dfs,
                &path,
                &schema,
                &conf,
                &ReadOptions {
                    format: fmt,
                    ..Default::default()
                },
            )
            .unwrap();
            let mut n = 0i64;
            while let Some(row) = r.next_row().unwrap() {
                assert_eq!(row[0], Value::Int(n), "format {fmt}");
                n += 1;
            }
            assert_eq!(n, 100, "format {fmt}");
        }
    }

    #[test]
    fn format_parse() {
        assert_eq!(FormatKind::parse("ORC").unwrap(), FormatKind::Orc);
        assert_eq!(FormatKind::parse("textfile").unwrap(), FormatKind::Text);
        assert!(FormatKind::parse("parquet2").is_err());
    }
}
