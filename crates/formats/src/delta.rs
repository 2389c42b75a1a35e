//! ACID delta-store support: snapshot manifests, delete files, and the
//! merge-on-read overlay (paper Section 7 outlook; modern Hive ACID).
//!
//! An ACID table directory holds immutable **base** files, **delta** files
//! (inserted rows, written in the table's own format so the scan layer
//! reads them like any other input), **delete** files (keys of rows masked
//! out, `(file path, row ordinal)`), and a chain of `_manifest_<N>` files.
//! The manifest is the *only* source of truth: a file not listed by the
//! current manifest does not exist as far as readers are concerned, which
//! is what makes crash recovery trivial — orphans from a died writer are
//! invisible garbage, never partial state.
//!
//! Every manifest carries its own CRC32 trailer. A torn manifest (the
//! write died mid-stream) fails its checksum and is skipped, so the
//! newest *valid* manifest defines the snapshot; publishing a manifest via
//! atomic rename is therefore the commit point of every transaction.

use crate::{ReadStats, TableReader};
use hive_common::{HiveError, Result, Row};
use hive_dfs::{crc, Dfs};
use hive_vector::VectorizedRowBatch;
use std::collections::{BTreeMap, BTreeSet};
use std::sync::Arc;

/// Basename prefix of snapshot manifests: `_manifest_<version>`.
pub const MANIFEST_PREFIX: &str = "_manifest_";
/// Basename prefix of insert-delta files: `delta_<txn>`.
pub const DELTA_PREFIX: &str = "delta_";
/// Basename prefix of delete files: `delete_<txn>`.
pub const DELETE_PREFIX: &str = "delete_";
/// Basename prefix of compaction-written base files: `base_<txn>`. Original
/// (pre-ACID) base files keep whatever name they were loaded under.
pub const BASE_PREFIX: &str = "base_";

/// Whether a path's basename is ACID bookkeeping (manifest, delta, or
/// delete file) rather than plain base data. Raw directory listings must
/// exclude these: their visibility is decided by the manifest alone.
pub fn is_acid_path(path: &str) -> bool {
    let base = path.rsplit('/').next().unwrap_or(path);
    base.starts_with(MANIFEST_PREFIX)
        || base.starts_with(DELTA_PREFIX)
        || base.starts_with(DELETE_PREFIX)
        || base.starts_with(BASE_PREFIX)
}

/// One committed snapshot of an ACID table — the decoded `_manifest_<N>`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TableSnapshot {
    /// Manifest version `N`; doubles as the table's snapshot generation.
    pub version: u64,
    /// Highest transaction id any listed file belongs to. Recovery deletes
    /// orphan delta/delete files with a txn beyond this.
    pub last_txn: u64,
    /// Base files, in scan order.
    pub base: Vec<String>,
    /// Insert deltas as `(txn, path)`, in commit order.
    pub deltas: Vec<(u64, String)>,
    /// Delete files as `(txn, path)`, in commit order.
    pub deletes: Vec<(u64, String)>,
}

impl TableSnapshot {
    /// An empty (pre-ACID) snapshot over existing base files.
    pub fn initial(base: Vec<String>) -> TableSnapshot {
        TableSnapshot {
            version: 0,
            last_txn: 0,
            base,
            deltas: Vec::new(),
            deletes: Vec::new(),
        }
    }

    /// Every file a reader of this snapshot scans: base files then deltas,
    /// in commit order (insert deltas append after base rows).
    pub fn scan_paths(&self) -> Vec<String> {
        let mut out = self.base.clone();
        out.extend(self.deltas.iter().map(|(_, p)| p.clone()));
        out
    }

    /// Serialize with a CRC32 trailer so torn manifests are detectable.
    pub fn encode(&self) -> Vec<u8> {
        let mut body = String::new();
        body.push_str("hivemanifest v1\n");
        body.push_str(&format!("version {}\n", self.version));
        body.push_str(&format!("txn {}\n", self.last_txn));
        for p in &self.base {
            body.push_str(&format!("base {p}\n"));
        }
        for (txn, p) in &self.deltas {
            body.push_str(&format!("delta {txn} {p}\n"));
        }
        for (txn, p) in &self.deletes {
            body.push_str(&format!("delete {txn} {p}\n"));
        }
        let crc = crc::crc32(body.as_bytes());
        body.push_str(&format!("crc {crc:08x}\n"));
        body.into_bytes()
    }

    /// Parse and CRC-verify a manifest image. Any mismatch — truncated
    /// file, missing trailer, flipped byte — is a `Format` error; callers
    /// treat such a manifest as never committed.
    pub fn decode(bytes: &[u8]) -> Result<TableSnapshot> {
        let text = std::str::from_utf8(bytes)
            .map_err(|_| HiveError::Format("manifest is not utf-8".into()))?;
        if !text.ends_with('\n') {
            return Err(HiveError::Format("manifest truncated".into()));
        }
        let Some(crc_line_start) = text.trim_end_matches('\n').rfind('\n') else {
            return Err(HiveError::Format("manifest truncated".into()));
        };
        let (body, trailer) = text.split_at(crc_line_start + 1);
        let trailer = trailer.trim_end();
        let Some(stated) = trailer.strip_prefix("crc ") else {
            return Err(HiveError::Format("manifest missing crc trailer".into()));
        };
        let stated = u32::from_str_radix(stated, 16)
            .map_err(|_| HiveError::Format("manifest crc trailer malformed".into()))?;
        let actual = crc::crc32(body.as_bytes());
        if stated != actual {
            return Err(HiveError::Format(format!(
                "manifest crc mismatch (stated {stated:08x}, actual {actual:08x})"
            )));
        }
        let mut lines = body.lines();
        if lines.next() != Some("hivemanifest v1") {
            return Err(HiveError::Format("manifest bad magic".into()));
        }
        let mut snap = TableSnapshot::initial(Vec::new());
        for line in lines {
            let mut parts = line.splitn(2, ' ');
            let (kw, rest) = (parts.next().unwrap_or(""), parts.next().unwrap_or(""));
            match kw {
                "version" => {
                    snap.version = rest
                        .parse()
                        .map_err(|_| HiveError::Format("manifest bad version".into()))?;
                }
                "txn" => {
                    snap.last_txn = rest
                        .parse()
                        .map_err(|_| HiveError::Format("manifest bad txn".into()))?;
                }
                "base" => snap.base.push(rest.to_string()),
                "delta" | "delete" => {
                    let mut halves = rest.splitn(2, ' ');
                    let txn: u64 = halves
                        .next()
                        .unwrap_or("")
                        .parse()
                        .map_err(|_| HiveError::Format(format!("manifest bad {kw} line")))?;
                    let path = halves
                        .next()
                        .ok_or_else(|| HiveError::Format(format!("manifest bad {kw} line")))?;
                    if kw == "delta" {
                        snap.deltas.push((txn, path.to_string()));
                    } else {
                        snap.deletes.push((txn, path.to_string()));
                    }
                }
                other => {
                    return Err(HiveError::Format(format!(
                        "manifest unknown keyword `{other}`"
                    )));
                }
            }
        }
        Ok(snap)
    }
}

/// The manifest path for version `version` of the table at `location`
/// (trailing `/` included).
pub fn manifest_path(location: &str, version: u64) -> String {
    format!("{location}{MANIFEST_PREFIX}{version:010}")
}

/// Load the newest *valid* snapshot under `location`, or `None` when the
/// table has never committed a transaction (non-ACID so far). Manifests
/// that fail to parse or CRC-verify are skipped — a torn manifest never
/// happened; the previous one still defines the table.
pub fn load_snapshot(dfs: &Dfs, location: &str) -> Result<Option<TableSnapshot>> {
    let prefix = format!("{location}{MANIFEST_PREFIX}");
    let mut versions: Vec<(u64, String)> = dfs
        .list(&prefix)
        .into_iter()
        .filter_map(|p| {
            p.strip_prefix(&prefix)
                .and_then(|s| s.parse::<u64>().ok())
                .map(|v| (v, p))
        })
        .collect();
    versions.sort_unstable_by_key(|v| std::cmp::Reverse(v.0));
    for (_, path) in versions {
        let mut reader = dfs.open(&path, None)?;
        let Ok(bytes) = reader.read_all() else {
            continue; // tampered manifest: skip, an older one governs
        };
        if let Ok(snap) = TableSnapshot::decode(&bytes) {
            return Ok(Some(snap));
        }
    }
    Ok(None)
}

/// The key of one masked-out row: the file that holds it and the row's
/// ordinal within that file (0-based, in the file's physical row order —
/// stable because base and delta files are immutable).
pub type DeleteKey = (String, u64);

/// Serialize one delete file's keys with a CRC trailer.
pub fn encode_delete_file(keys: &[DeleteKey]) -> Vec<u8> {
    let mut body = String::from("hivedelete v1\n");
    for (path, ordinal) in keys {
        body.push_str(&format!("{ordinal}\t{path}\n"));
    }
    let crc = crc::crc32(body.as_bytes());
    body.push_str(&format!("crc {crc:08x}\n"));
    body.into_bytes()
}

/// Parse and CRC-verify one delete file.
pub fn decode_delete_file(bytes: &[u8]) -> Result<Vec<DeleteKey>> {
    let text = std::str::from_utf8(bytes)
        .map_err(|_| HiveError::Format("delete file is not utf-8".into()))?;
    if !text.ends_with('\n') {
        return Err(HiveError::Format("delete file truncated".into()));
    }
    let Some(crc_line_start) = text.trim_end_matches('\n').rfind('\n') else {
        return Err(HiveError::Format("delete file truncated".into()));
    };
    let (body, trailer) = text.split_at(crc_line_start + 1);
    let stated = trailer
        .trim_end()
        .strip_prefix("crc ")
        .and_then(|s| u32::from_str_radix(s, 16).ok())
        .ok_or_else(|| HiveError::Format("delete file missing crc trailer".into()))?;
    if stated != crc::crc32(body.as_bytes()) {
        return Err(HiveError::Format("delete file crc mismatch".into()));
    }
    let mut lines = body.lines();
    if lines.next() != Some("hivedelete v1") {
        return Err(HiveError::Format("delete file bad magic".into()));
    }
    lines
        .map(|line| {
            let mut halves = line.splitn(2, '\t');
            let ordinal: u64 = halves
                .next()
                .unwrap_or("")
                .parse()
                .map_err(|_| HiveError::Format("delete file bad ordinal".into()))?;
            let path = halves
                .next()
                .ok_or_else(|| HiveError::Format("delete file bad line".into()))?;
            Ok((path.to_string(), ordinal))
        })
        .collect()
}

/// The union of a snapshot's delete files: which `(path, ordinal)` rows
/// the merge-on-read scan must mask. Keyed by file, so a reader looks up
/// its own file's ordinals once, at open.
#[derive(Debug, Default, Clone, PartialEq, Eq)]
pub struct DeleteSet {
    files: BTreeMap<String, Arc<BTreeSet<u64>>>,
}

impl DeleteSet {
    pub fn insert(&mut self, path: String, ordinal: u64) {
        Arc::make_mut(self.files.entry(path).or_default()).insert(ordinal);
    }

    /// The deleted ordinals of one file (empty when it has none).
    pub fn ordinals_of(&self, path: &str) -> Arc<BTreeSet<u64>> {
        self.files.get(path).cloned().unwrap_or_default()
    }

    pub fn len(&self) -> usize {
        self.files.values().map(|o| o.len()).sum()
    }

    pub fn is_empty(&self) -> bool {
        self.files.is_empty()
    }

    /// Every key as `(path, ordinal)`, ascending by path then ordinal.
    pub fn iter(&self) -> impl Iterator<Item = (&str, u64)> {
        self.files
            .iter()
            .flat_map(|(p, o)| o.iter().map(move |&ord| (p.as_str(), ord)))
    }
}

/// Read and union every delete file of `snapshot`.
pub fn load_delete_set(dfs: &Dfs, snapshot: &TableSnapshot) -> Result<DeleteSet> {
    let mut set = DeleteSet::default();
    for (_, path) in &snapshot.deletes {
        let bytes = dfs.open(path, None)?.read_all()?;
        for (file, ordinal) in decode_delete_file(&bytes)? {
            set.insert(file, ordinal);
        }
    }
    Ok(set)
}

/// A reader with one file's delete mask applied — what
/// [`crate::open_reader`] returns when [`crate::ReadOptions::deletes`] is
/// set. Masked rows are skipped by `next_row` and unselected from the
/// `selected[]` lane by `next_batch`, so no caller ever sees them; the
/// count is reported by [`TableReader::rows_masked`].
///
/// Ordinals come from the inner reader's skip-aware clock when it keeps
/// one (ORC); otherwise rows are counted sequentially, which is correct
/// only for whole-file scans — the split planner reads such files whole
/// under an overlay.
pub(crate) struct MaskedReader {
    inner: Box<dyn TableReader>,
    deleted: Arc<BTreeSet<u64>>,
    next_ordinal: u64,
    last_ordinal: Option<u64>,
    masked: u64,
}

impl MaskedReader {
    pub(crate) fn new(inner: Box<dyn TableReader>, deleted: Arc<BTreeSet<u64>>) -> MaskedReader {
        MaskedReader {
            inner,
            deleted,
            next_ordinal: 0,
            last_ordinal: None,
            masked: 0,
        }
    }
}

impl TableReader for MaskedReader {
    fn next_row(&mut self) -> Result<Option<Row>> {
        while let Some(row) = self.inner.next_row()? {
            let ord = self.inner.last_row_ordinal().unwrap_or(self.next_ordinal);
            self.next_ordinal += 1;
            if self.deleted.contains(&ord) {
                self.masked += 1;
                continue;
            }
            self.last_ordinal = Some(ord);
            return Ok(Some(row));
        }
        Ok(None)
    }

    fn next_batch(&mut self, batch: &mut VectorizedRowBatch) -> Result<bool> {
        let more = self.inner.next_batch(batch)?;
        let physical = batch.size as u64;
        let sequential = [(self.next_ordinal, physical)];
        self.next_ordinal += physical;
        if physical == 0 || self.deleted.is_empty() {
            return Ok(more);
        }
        let runs = self.inner.batch_ordinal_runs().unwrap_or(&sequential);
        debug_assert_eq!(
            runs.iter().map(|r| r.1).sum::<u64>(),
            physical,
            "ordinal runs must cover the whole batch"
        );
        // One ranged probe per run: O(log n + hits), not one per lane.
        let mut drop = Vec::new();
        let mut lane = 0usize;
        for &(start, len) in runs {
            drop.extend(
                self.deleted
                    .range(start..start.saturating_add(len))
                    .map(|ord| lane + (ord - start) as usize),
            );
            lane += len as usize;
        }
        self.masked += drop.len() as u64;
        batch.unselect_rows(&drop);
        Ok(more)
    }

    /// Always known: the inner reader's ordinal or the sequential count.
    fn last_row_ordinal(&self) -> Option<u64> {
        self.last_ordinal
    }

    fn rows_skipped(&self) -> u64 {
        self.inner.rows_skipped()
    }

    fn rows_masked(&self) -> u64 {
        self.masked
    }

    fn read_stats(&self) -> ReadStats {
        self.inner.read_stats()
    }
}

/// The merge-on-read overlay a planner attaches to an ACID table's scan:
/// which snapshot the statement pinned, which of its paths are deltas, and
/// which rows are masked out. Delete keys address rows by skip-aware file
/// ordinal, which readers that support data skipping (ORC) report per row
/// or per batch run — so predicate pushdown and block-range splits stay
/// enabled under an overlay. Formats without ordinal tracking are scanned
/// whole-file so sequential counting still lines up.
#[derive(Debug, Clone)]
pub struct AcidOverlay {
    /// Manifest version pinned at plan time.
    pub snapshot_gen: u64,
    /// Paths (among the input's paths) that are insert deltas.
    pub delta_paths: Vec<String>,
    /// Rows masked out of base and delta files.
    pub deletes: Arc<DeleteSet>,
}

impl AcidOverlay {
    pub fn is_delta(&self, path: &str) -> bool {
        self.delta_paths.iter().any(|p| p == path)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use hive_dfs::DfsConfig;

    fn fs() -> Dfs {
        Dfs::new(DfsConfig {
            block_size: 1 << 20,
            replication: 1,
            nodes: 2,
        })
    }

    fn snap() -> TableSnapshot {
        TableSnapshot {
            version: 3,
            last_txn: 7,
            base: vec!["/w/t/part-00000".into()],
            deltas: vec![(5, "/w/t/delta_5".into()), (7, "/w/t/delta_7".into())],
            deletes: vec![(6, "/w/t/delete_6".into())],
        }
    }

    #[test]
    fn manifest_round_trips() {
        let s = snap();
        assert_eq!(TableSnapshot::decode(&s.encode()).unwrap(), s);
        assert_eq!(
            s.scan_paths(),
            vec!["/w/t/part-00000", "/w/t/delta_5", "/w/t/delta_7"]
        );
    }

    #[test]
    fn torn_manifest_fails_its_crc() {
        let bytes = snap().encode();
        // Any strict prefix (a torn write) must fail to decode.
        for cut in [0, 1, bytes.len() / 2, bytes.len() - 1] {
            assert!(
                TableSnapshot::decode(&bytes[..cut]).is_err(),
                "prefix of {cut} bytes decoded"
            );
        }
        // A flipped byte fails too.
        let mut flipped = bytes.clone();
        flipped[20] ^= 0x40;
        assert!(TableSnapshot::decode(&flipped).is_err());
    }

    #[test]
    fn newest_valid_manifest_wins_torn_ones_are_skipped() {
        let dfs = fs();
        let mut old = snap();
        old.version = 1;
        let mut w = dfs.create(&manifest_path("/w/t/", 1));
        w.write(&old.encode());
        w.close();
        // Manifest 2 committed fully.
        let mut cur = snap();
        cur.version = 2;
        let mut w = dfs.create(&manifest_path("/w/t/", 2));
        w.write(&cur.encode());
        w.close();
        // Manifest 3 is torn: a prefix of its bytes.
        let mut newer = snap();
        newer.version = 3;
        let bytes = newer.encode();
        let mut w = dfs.create(&manifest_path("/w/t/", 3));
        w.write(&bytes[..bytes.len() / 2]);
        w.close();

        let loaded = load_snapshot(&dfs, "/w/t/").unwrap().unwrap();
        assert_eq!(loaded.version, 2, "torn manifest 3 must be invisible");
        assert!(load_snapshot(&dfs, "/w/empty/").unwrap().is_none());
    }

    #[test]
    fn delete_file_round_trips_and_unions() {
        let keys = vec![
            ("/w/t/part-00000".to_string(), 4u64),
            ("/w/t/delta_5".to_string(), 0u64),
        ];
        let decoded = decode_delete_file(&encode_delete_file(&keys)).unwrap();
        assert_eq!(decoded, keys);
        assert!(decode_delete_file(b"hivedelete v1\n").is_err());

        let dfs = fs();
        let mut w = dfs.create("/w/t/delete_6");
        w.write(&encode_delete_file(&keys));
        w.close();
        let mut s = snap();
        s.deletes = vec![(6, "/w/t/delete_6".into())];
        let set = load_delete_set(&dfs, &s).unwrap();
        assert_eq!(set.len(), 2);
        assert!(set.ordinals_of("/w/t/part-00000").contains(&4));
        assert!(!set.ordinals_of("/w/t/part-00000").contains(&5));
        assert!(set.ordinals_of("/w/t/delta_7").is_empty());
        assert_eq!(
            set.iter().collect::<Vec<_>>(),
            vec![("/w/t/delta_5", 0), ("/w/t/part-00000", 4)]
        );
    }

    #[test]
    fn acid_paths_are_recognized() {
        assert!(is_acid_path("/w/t/_manifest_0000000001"));
        assert!(is_acid_path("/w/t/delta_00005"));
        assert!(is_acid_path("/w/t/delete_00006"));
        assert!(is_acid_path("/w/t/base_0000000003"));
        assert!(!is_acid_path("/w/t/part-00000"));
    }
}
