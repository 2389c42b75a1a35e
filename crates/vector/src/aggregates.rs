//! Vectorized aggregation: tight-loop global aggregates and a hash
//! group-by over batches, the vectorized counterpart of Hive's
//! GroupByOperator for queries like TPC-H q1/q6 (paper Section 7.4).
//!
//! The keyed path is a batch kernel of three loops over the selected
//! lanes: encode each lane's group key once into a normalized byte form,
//! look the keys up in an open-addressing table (filling a `lane → group`
//! vector), then update each aggregate's typed state column over that
//! vector. Groups are emitted in first-seen order with no sort; the reduce
//! side sorts by key anyway.

use crate::batch::{ColumnVector, VectorizedRowBatch};
use hive_common::{HiveError, Result, Row, Value};
use std::collections::hash_map::RandomState;
use std::hash::BuildHasher;

/// Which aggregate function to compute.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AggKind {
    CountStar,
    /// COUNT(col): non-null values.
    Count,
    SumLong,
    SumDouble,
    MinLong,
    MaxLong,
    MinDouble,
    MaxDouble,
    MinBytes,
    MaxBytes,
    /// AVG(col) kept as (sum, count) until finalization.
    Avg,
}

/// One aggregate to compute: the function plus its input column
/// (`None` only for COUNT(*)).
#[derive(Debug, Clone)]
pub struct AggSpec {
    pub kind: AggKind,
    pub input_column: Option<usize>,
}

/// Running state of a single aggregate within one group.
#[derive(Debug, Clone)]
pub enum AggState {
    Count(i64),
    SumLong { sum: i64, seen: bool },
    SumDouble { sum: f64, seen: bool },
    MinLong(Option<i64>),
    MaxLong(Option<i64>),
    MinDouble(Option<f64>),
    MaxDouble(Option<f64>),
    MinBytes(Option<Vec<u8>>),
    MaxBytes(Option<Vec<u8>>),
    Avg { sum: f64, count: i64 },
}

impl AggState {
    fn new(kind: AggKind) -> AggState {
        match kind {
            AggKind::CountStar | AggKind::Count => AggState::Count(0),
            AggKind::SumLong => AggState::SumLong {
                sum: 0,
                seen: false,
            },
            AggKind::SumDouble => AggState::SumDouble {
                sum: 0.0,
                seen: false,
            },
            AggKind::MinLong => AggState::MinLong(None),
            AggKind::MaxLong => AggState::MaxLong(None),
            AggKind::MinDouble => AggState::MinDouble(None),
            AggKind::MaxDouble => AggState::MaxDouble(None),
            AggKind::MinBytes => AggState::MinBytes(None),
            AggKind::MaxBytes => AggState::MaxBytes(None),
            AggKind::Avg => AggState::Avg { sum: 0.0, count: 0 },
        }
    }

    /// Map-side partial value (what travels through the shuffle): AVG
    /// becomes a struct(sum, count); everything else matches its final
    /// value shape.
    pub fn partial(&self) -> Value {
        match self {
            AggState::Avg { sum, count } => {
                Value::Struct(vec![Value::Double(*sum), Value::Int(*count)])
            }
            other => other.finish(),
        }
    }

    /// Final SQL value of this state.
    pub fn finish(&self) -> Value {
        match self {
            AggState::Count(n) => Value::Int(*n),
            AggState::SumLong { sum, seen } => {
                if *seen {
                    Value::Int(*sum)
                } else {
                    Value::Null
                }
            }
            AggState::SumDouble { sum, seen } => {
                if *seen {
                    Value::Double(*sum)
                } else {
                    Value::Null
                }
            }
            AggState::MinLong(v) | AggState::MaxLong(v) => v.map(Value::Int).unwrap_or(Value::Null),
            AggState::MinDouble(v) | AggState::MaxDouble(v) => {
                v.map(Value::Double).unwrap_or(Value::Null)
            }
            AggState::MinBytes(v) | AggState::MaxBytes(v) => v
                .as_ref()
                .map(|b| Value::String(String::from_utf8_lossy(b).into_owned()))
                .unwrap_or(Value::Null),
            AggState::Avg { sum, count } => {
                if *count > 0 {
                    Value::Double(sum / *count as f64)
                } else {
                    Value::Null
                }
            }
        }
    }
}

/// Physical type of one group-key column, fixed by the first batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum KeyKind {
    Long,
    Double,
    Bytes,
}

impl KeyKind {
    fn of(col: &ColumnVector) -> KeyKind {
        match col {
            ColumnVector::Long(_) => KeyKind::Long,
            ColumnVector::Double(_) => KeyKind::Double,
            ColumnVector::Bytes(_) => KeyKind::Bytes,
        }
    }
}

/// Normalized key encoding: each key column contributes a tag byte
/// (`NULL_TAG` or `VALUE_TAG`) and then, for a fixed-width column, 8 bytes
/// (the `i64`, or the `f64` bit pattern, so doubles group by bits and
/// -0.0, 0.0 and every NaN payload are distinct groups), or for a string
/// column a `u32` length and the bytes. A NULL keeps its column's payload
/// zeroed, so NULL is its own group.
const NULL_TAG: u8 = 0;
const VALUE_TAG: u8 = 1;
const FIXED_WIDTH: usize = 9;
const BYTES_HEADER: usize = 5;

/// Open-addressing table from encoded group key to group number: linear
/// probing over a power-of-two slot array kept at most half full. Groups
/// are numbered in first-seen order; their keys sit back to back in one
/// arena.
struct GroupTable {
    seed: u64,
    /// `group + 1` per slot; 0 marks an empty slot.
    slots: Vec<u32>,
    /// Each group's key hash, so growing never rehashes key bytes.
    hashes: Vec<u64>,
    /// Group `g`'s key is `arena[bounds[g]..bounds[g + 1]]`.
    bounds: Vec<usize>,
    arena: Vec<u8>,
}

/// Slots of a fresh table: a short interactive statement never grows it.
const INITIAL_SLOTS: usize = 16;

impl GroupTable {
    fn new() -> GroupTable {
        GroupTable {
            seed: RandomState::new().hash_one(0u8),
            slots: vec![0; INITIAL_SLOTS],
            hashes: Vec::new(),
            bounds: vec![0],
            arena: Vec::new(),
        }
    }

    fn len(&self) -> usize {
        self.hashes.len()
    }

    fn key(&self, g: usize) -> &[u8] {
        &self.arena[self.bounds[g]..self.bounds[g + 1]]
    }

    fn find_or_insert(&mut self, key: &[u8]) -> u32 {
        let hash = hash_key(self.seed, key);
        let mask = self.slots.len() - 1;
        let mut pos = hash as usize & mask;
        while self.slots[pos] != 0 {
            let g = (self.slots[pos] - 1) as usize;
            if self.hashes[g] == hash && self.key(g) == key {
                return g as u32;
            }
            pos = (pos + 1) & mask;
        }
        let g = self.len() as u32;
        self.slots[pos] = g + 1;
        self.hashes.push(hash);
        self.arena.extend_from_slice(key);
        self.bounds.push(self.arena.len());
        if self.len() * 2 > self.slots.len() {
            self.grow();
        }
        g
    }

    fn grow(&mut self) {
        let mask = self.slots.len() * 2 - 1;
        let mut slots = vec![0u32; mask + 1];
        for (g, &hash) in self.hashes.iter().enumerate() {
            let mut pos = hash as usize & mask;
            while slots[pos] != 0 {
                pos = (pos + 1) & mask;
            }
            slots[pos] = g as u32 + 1;
        }
        self.slots = slots;
    }
}

/// Hash of an encoded key: multiply-rotate over 8-byte words from a
/// per-table random seed (keys come from table data, so the probe
/// sequence must not be predictable), then the murmur3 finalizer so the
/// low bits the table masks with are well mixed.
fn hash_key(seed: u64, key: &[u8]) -> u64 {
    const K: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut h = seed ^ key.len() as u64;
    let mut words = key.chunks_exact(8);
    for w in &mut words {
        h = (h.rotate_left(5)
            ^ u64::from_le_bytes(w.try_into().expect("chunks_exact yields 8 bytes")))
        .wrapping_mul(K);
    }
    let rest = words.remainder();
    if !rest.is_empty() {
        let mut w = [0u8; 8];
        w[..rest.len()].copy_from_slice(rest);
        h = (h.rotate_left(5) ^ u64::from_le_bytes(w)).wrapping_mul(K);
    }
    h ^= h >> 33;
    h = h.wrapping_mul(0xff51_afd7_ed55_8ccd);
    h ^= h >> 33;
    h = h.wrapping_mul(0xc4ce_b9fe_1a85_ec53);
    h ^ (h >> 33)
}

/// One aggregate's state for every group: typed columns indexed by group
/// number. `seen[g]` stays false until group `g` meets a non-null input.
enum StateColumn {
    /// COUNT(*) and COUNT(col).
    Count(Vec<i64>),
    /// SUM, MIN or MAX over longs.
    Long {
        val: Vec<i64>,
        seen: Vec<bool>,
    },
    /// SUM, MIN or MAX over doubles.
    Double {
        val: Vec<f64>,
        seen: Vec<bool>,
    },
    /// MIN or MAX over strings.
    Bytes(Vec<Option<Vec<u8>>>),
    Avg {
        sum: Vec<f64>,
        count: Vec<i64>,
    },
}

impl StateColumn {
    fn new(kind: AggKind) -> StateColumn {
        match kind {
            AggKind::CountStar | AggKind::Count => StateColumn::Count(Vec::new()),
            AggKind::SumLong | AggKind::MinLong | AggKind::MaxLong => StateColumn::Long {
                val: Vec::new(),
                seen: Vec::new(),
            },
            AggKind::SumDouble | AggKind::MinDouble | AggKind::MaxDouble => StateColumn::Double {
                val: Vec::new(),
                seen: Vec::new(),
            },
            AggKind::MinBytes | AggKind::MaxBytes => StateColumn::Bytes(Vec::new()),
            AggKind::Avg => StateColumn::Avg {
                sum: Vec::new(),
                count: Vec::new(),
            },
        }
    }

    /// Give every group up to `n` a fresh state.
    fn resize(&mut self, n: usize) {
        match self {
            StateColumn::Count(c) => c.resize(n, 0),
            StateColumn::Long { val, seen } => {
                val.resize(n, 0);
                seen.resize(n, false);
            }
            StateColumn::Double { val, seen } => {
                val.resize(n, 0.0);
                seen.resize(n, false);
            }
            StateColumn::Bytes(v) => v.resize(n, None),
            StateColumn::Avg { sum, count } => {
                sum.resize(n, 0.0);
                count.resize(n, 0);
            }
        }
    }

    /// Group `g`'s value: the map-side partial (AVG as `struct(sum,
    /// count)`) or the final SQL value.
    fn value(&self, g: usize, partial: bool) -> Value {
        match self {
            StateColumn::Count(c) => Value::Int(c[g]),
            StateColumn::Long { val, seen } => {
                if seen[g] {
                    Value::Int(val[g])
                } else {
                    Value::Null
                }
            }
            StateColumn::Double { val, seen } => {
                if seen[g] {
                    Value::Double(val[g])
                } else {
                    Value::Null
                }
            }
            StateColumn::Bytes(v) => v[g]
                .as_ref()
                .map(|b| Value::String(String::from_utf8_lossy(b).into_owned()))
                .unwrap_or(Value::Null),
            StateColumn::Avg { sum, count } => {
                if partial {
                    Value::Struct(vec![Value::Double(sum[g]), Value::Int(count[g])])
                } else if count[g] > 0 {
                    Value::Double(sum[g] / count[g] as f64)
                } else {
                    Value::Null
                }
            }
        }
    }
}

/// Per-batch buffers of the keyed kernel, kept across batches so a batch
/// allocates only when it outgrows them.
#[derive(Default)]
struct LaneBuffers {
    /// Physical row index of each selected lane.
    lanes: Vec<usize>,
    /// Lane `j`'s encoded key is `keys[bounds[j]..bounds[j + 1]]`.
    keys: Vec<u8>,
    bounds: Vec<usize>,
    /// Write position of the next key column, per lane.
    cursor: Vec<usize>,
    /// Group number of each lane.
    groups: Vec<u32>,
}

/// Hash aggregation over vectorized batches.
///
/// With no group-by keys the aggregator runs tight per-vector loops (the
/// common scan-heavy case of q1/q6's map side after filtering). With keys
/// each batch goes through the keyed kernel: encode, look up, then update
/// one state column at a time over the `lane → group` vector, in lane
/// order, so every float sum adds its inputs in arrival order.
pub struct VectorHashAggregator {
    key_columns: Vec<usize>,
    specs: Vec<AggSpec>,
    /// Physical type of each key column, taken from the first batch.
    key_kinds: Vec<KeyKind>,
    table: GroupTable,
    /// One state column per aggregate (keyed path only).
    states: Vec<StateColumn>,
    buf: LaneBuffers,
    /// Fast path state when `key_columns` is empty.
    global: Option<Vec<AggState>>,
}

impl VectorHashAggregator {
    pub fn new(key_columns: Vec<usize>, specs: Vec<AggSpec>) -> VectorHashAggregator {
        let (global, states) = if key_columns.is_empty() {
            (
                Some(specs.iter().map(|s| AggState::new(s.kind)).collect()),
                Vec::new(),
            )
        } else {
            (
                None,
                specs.iter().map(|s| StateColumn::new(s.kind)).collect(),
            )
        };
        VectorHashAggregator {
            key_columns,
            specs,
            key_kinds: Vec::new(),
            table: GroupTable::new(),
            states,
            buf: LaneBuffers::default(),
            global,
        }
    }

    pub fn num_groups(&self) -> usize {
        if self.global.is_some() {
            1
        } else {
            self.table.len()
        }
    }

    /// Consume one batch.
    pub fn process(&mut self, batch: &VectorizedRowBatch) -> Result<()> {
        if batch.size == 0 {
            return Ok(());
        }
        if let Some(states) = &mut self.global {
            for (spec, state) in self.specs.iter().zip(states.iter_mut()) {
                update_vectorized(spec, state, batch)?;
            }
            return Ok(());
        }
        let lanes = &mut self.buf.lanes;
        lanes.clear();
        if batch.selected_in_use {
            lanes.extend_from_slice(&batch.selected[..batch.size]);
        } else {
            lanes.extend(0..batch.size);
        }
        self.encode_keys(batch)?;
        let s = &mut self.buf;
        s.groups.clear();
        for w in s.bounds.windows(2) {
            s.groups
                .push(self.table.find_or_insert(&s.keys[w[0]..w[1]]));
        }
        for (spec, state) in self.specs.iter().zip(self.states.iter_mut()) {
            state.resize(self.table.len());
            update_groups(spec, state, batch, &s.lanes, &s.groups)?;
        }
        Ok(())
    }

    /// Encode every selected lane's key into `buf.keys`, one key
    /// column at a time.
    fn encode_keys(&mut self, batch: &VectorizedRowBatch) -> Result<()> {
        if self.key_kinds.is_empty() {
            self.key_kinds = self
                .key_columns
                .iter()
                .map(|&c| KeyKind::of(&batch.columns[c]))
                .collect();
        }
        let s = &mut self.buf;
        let n = s.lanes.len();
        let mut width = 0;
        for (&c, &kind) in self.key_columns.iter().zip(&self.key_kinds) {
            if KeyKind::of(&batch.columns[c]) != kind {
                return Err(HiveError::Execution(format!(
                    "group key column {c} changed type between batches"
                )));
            }
            width += if kind == KeyKind::Bytes {
                BYTES_HEADER
            } else {
                FIXED_WIDTH
            };
        }
        // Lane widths, then their prefix sums.
        s.bounds.clear();
        s.bounds.resize(n + 1, width);
        s.bounds[0] = 0;
        for &c in &self.key_columns {
            if let ColumnVector::Bytes(v) = &batch.columns[c] {
                for (b, &i) in s.bounds[1..].iter_mut().zip(&s.lanes) {
                    if !v.is_null(i) {
                        *b += v.value(i).len();
                    }
                }
            }
        }
        for j in 1..=n {
            s.bounds[j] += s.bounds[j - 1];
        }
        s.keys.clear();
        s.keys.resize(s.bounds[n], 0);
        s.cursor.clear();
        s.cursor.extend_from_slice(&s.bounds[..n]);
        for &c in &self.key_columns {
            let keys = &mut s.keys;
            match &batch.columns[c] {
                ColumnVector::Long(v) => {
                    for (&i, p) in s.lanes.iter().zip(s.cursor.iter_mut()) {
                        if !v.is_null(i) {
                            keys[*p] = VALUE_TAG;
                            keys[*p + 1..*p + FIXED_WIDTH]
                                .copy_from_slice(&v.value(i).to_le_bytes());
                        }
                        *p += FIXED_WIDTH;
                    }
                }
                ColumnVector::Double(v) => {
                    for (&i, p) in s.lanes.iter().zip(s.cursor.iter_mut()) {
                        if !v.is_null(i) {
                            keys[*p] = VALUE_TAG;
                            keys[*p + 1..*p + FIXED_WIDTH]
                                .copy_from_slice(&v.value(i).to_bits().to_le_bytes());
                        }
                        *p += FIXED_WIDTH;
                    }
                }
                ColumnVector::Bytes(v) => {
                    for (&i, p) in s.lanes.iter().zip(s.cursor.iter_mut()) {
                        if v.is_null(i) {
                            *p += BYTES_HEADER;
                            continue;
                        }
                        let b = v.value(i);
                        keys[*p] = VALUE_TAG;
                        keys[*p + 1..*p + BYTES_HEADER]
                            .copy_from_slice(&(b.len() as u32).to_le_bytes());
                        *p += BYTES_HEADER;
                        keys[*p..*p + b.len()].copy_from_slice(b);
                        *p += b.len();
                    }
                }
            }
        }
        Ok(())
    }

    /// Key column `c` of an encoded key.
    fn decode_key(&self, key: &[u8], c: usize) -> Value {
        let mut p = 0;
        for kind in &self.key_kinds[..c] {
            p += match kind {
                KeyKind::Bytes => BYTES_HEADER + read_len(key, p),
                _ => FIXED_WIDTH,
            };
        }
        if key[p] == NULL_TAG {
            return Value::Null;
        }
        let word = |p: usize| {
            u64::from_le_bytes(
                key[p + 1..p + FIXED_WIDTH]
                    .try_into()
                    .expect("8-byte payload"),
            )
        };
        match self.key_kinds[c] {
            KeyKind::Long => Value::Int(word(p) as i64),
            KeyKind::Double => Value::Double(f64::from_bits(word(p))),
            KeyKind::Bytes => {
                let b = &key[p + BYTES_HEADER..p + BYTES_HEADER + read_len(key, p)];
                Value::String(String::from_utf8_lossy(b).into_owned())
            }
        }
    }

    /// Column `c` of group `g`'s output row (keys, then one value per
    /// aggregate), partial or final. Groups are numbered in first-seen
    /// order.
    fn value(&self, g: usize, c: usize, partial: bool) -> Value {
        if let Some(states) = &self.global {
            return if partial {
                states[c].partial()
            } else {
                states[c].finish()
            };
        }
        let nk = self.key_columns.len();
        if c < nk {
            self.decode_key(self.table.key(g), c)
        } else {
            self.states[c - nk].value(g, partial)
        }
    }

    /// Column `c` of group `g`'s map-side partial row (what travels through
    /// the shuffle): the key columns, then one partial state per aggregate.
    pub fn partial_value(&self, g: usize, c: usize) -> Value {
        self.value(g, c, true)
    }

    /// Finish: emit one row per group — key values then aggregate values —
    /// in first-seen group order.
    pub fn finish(self) -> Vec<Row> {
        let width = self.key_columns.len() + self.specs.len();
        (0..self.num_groups())
            .map(|g| Row::new((0..width).map(|c| self.value(g, c, false)).collect()))
            .collect()
    }
}

/// The `u32` length of a string key part that starts at `p`.
fn read_len(key: &[u8], p: usize) -> usize {
    u32::from_le_bytes(
        key[p + 1..p + BYTES_HEADER]
            .try_into()
            .expect("4-byte length"),
    ) as usize
}

/// Visit `(group, value)` for every lane whose input is non-null, in lane
/// order.
macro_rules! for_non_null {
    ($v:expr, $lanes:expr, $groups:expr, |$g:ident, $x:ident| $body:expr) => {
        for (&i, &g) in $lanes.iter().zip($groups) {
            if !$v.is_null(i) {
                let $g = g as usize;
                let $x = $v.value(i);
                $body;
            }
        }
    };
}

/// Keyed update of one aggregate's state column over a batch: the column
/// types are matched once, then one loop runs over the `lane → group`
/// vector.
fn update_groups(
    spec: &AggSpec,
    state: &mut StateColumn,
    batch: &VectorizedRowBatch,
    lanes: &[usize],
    groups: &[u32],
) -> Result<()> {
    if let (AggKind::CountStar, StateColumn::Count(c)) = (spec.kind, &mut *state) {
        for &g in groups {
            c[g as usize] += 1;
        }
        return Ok(());
    }
    let col = &batch.columns[spec
        .input_column
        .ok_or_else(|| HiveError::Execution("aggregate missing input column".into()))?];
    match (spec.kind, state, col) {
        (AggKind::Count, StateColumn::Count(c), col) => {
            for (&i, &g) in lanes.iter().zip(groups) {
                c[g as usize] += !col.is_null(i) as i64;
            }
        }
        (AggKind::SumLong, StateColumn::Long { val, seen }, ColumnVector::Long(v)) => {
            for_non_null!(v, lanes, groups, |g, x| {
                val[g] = val[g].wrapping_add(x);
                seen[g] = true;
            });
        }
        (AggKind::MinLong, StateColumn::Long { val, seen }, ColumnVector::Long(v)) => {
            for_non_null!(v, lanes, groups, |g, x| {
                val[g] = if seen[g] { val[g].min(x) } else { x };
                seen[g] = true;
            });
        }
        (AggKind::MaxLong, StateColumn::Long { val, seen }, ColumnVector::Long(v)) => {
            for_non_null!(v, lanes, groups, |g, x| {
                val[g] = if seen[g] { val[g].max(x) } else { x };
                seen[g] = true;
            });
        }
        (AggKind::SumDouble, StateColumn::Double { val, seen }, ColumnVector::Double(v)) => {
            for_non_null!(v, lanes, groups, |g, x| {
                val[g] += x;
                seen[g] = true;
            });
        }
        (AggKind::MinDouble, StateColumn::Double { val, seen }, ColumnVector::Double(v)) => {
            for_non_null!(v, lanes, groups, |g, x| {
                val[g] = if seen[g] { val[g].min(x) } else { x };
                seen[g] = true;
            });
        }
        (AggKind::MaxDouble, StateColumn::Double { val, seen }, ColumnVector::Double(v)) => {
            for_non_null!(v, lanes, groups, |g, x| {
                val[g] = if seen[g] { val[g].max(x) } else { x };
                seen[g] = true;
            });
        }
        (AggKind::MinBytes, StateColumn::Bytes(m), ColumnVector::Bytes(v)) => {
            for_non_null!(v, lanes, groups, |g, x| {
                if m[g].as_deref().is_none_or(|cur| x < cur) {
                    m[g] = Some(x.to_vec());
                }
            });
        }
        (AggKind::MaxBytes, StateColumn::Bytes(m), ColumnVector::Bytes(v)) => {
            for_non_null!(v, lanes, groups, |g, x| {
                if m[g].as_deref().is_none_or(|cur| x > cur) {
                    m[g] = Some(x.to_vec());
                }
            });
        }
        (AggKind::Avg, StateColumn::Avg { sum, count }, ColumnVector::Long(v)) => {
            for_non_null!(v, lanes, groups, |g, x| {
                sum[g] += x as f64;
                count[g] += 1;
            });
        }
        (AggKind::Avg, StateColumn::Avg { sum, count }, ColumnVector::Double(v)) => {
            for_non_null!(v, lanes, groups, |g, x| {
                sum[g] += x;
                count[g] += 1;
            });
        }
        (kind, _, _) => {
            return Err(HiveError::Execution(format!(
                "aggregate/column type mismatch for {kind:?}"
            )))
        }
    }
    Ok(())
}

/// Tight-loop update of one aggregate over a whole batch (global case).
fn update_vectorized(
    spec: &AggSpec,
    state: &mut AggState,
    batch: &VectorizedRowBatch,
) -> Result<()> {
    let n = batch.size;
    if let (AggKind::CountStar, AggState::Count(c)) = (spec.kind, &mut *state) {
        *c += n as i64;
        return Ok(());
    }
    let col_idx = spec
        .input_column
        .ok_or_else(|| HiveError::Execution("aggregate missing input column".into()))?;
    let col = &batch.columns[col_idx];
    match (spec.kind, state) {
        (AggKind::Count, AggState::Count(c)) => {
            for i in batch.iter_selected() {
                *c += !col.is_null(i) as i64;
            }
        }
        (AggKind::SumLong, AggState::SumLong { sum, seen }) => {
            let v = col.as_long()?;
            // The hot inner loops: no-null + unselected is pure vector sum.
            if v.no_nulls && !batch.selected_in_use && !v.is_repeating {
                let mut s = 0i64;
                for x in &v.vector[..n] {
                    s = s.wrapping_add(*x);
                }
                *sum = sum.wrapping_add(s);
                *seen = true;
            } else {
                for i in batch.iter_selected() {
                    if !v.is_null(i) {
                        *sum = sum.wrapping_add(v.value(i));
                        *seen = true;
                    }
                }
            }
        }
        (AggKind::SumDouble, AggState::SumDouble { sum, seen }) => {
            let v = col.as_double()?;
            if v.no_nulls && !batch.selected_in_use && !v.is_repeating {
                let mut s = 0.0f64;
                for x in &v.vector[..n] {
                    s += *x;
                }
                *sum += s;
                *seen = true;
            } else {
                for i in batch.iter_selected() {
                    if !v.is_null(i) {
                        *sum += v.value(i);
                        *seen = true;
                    }
                }
            }
        }
        (AggKind::Avg, AggState::Avg { sum, count }) => match col {
            ColumnVector::Long(v) => {
                for i in batch.iter_selected() {
                    if !v.is_null(i) {
                        *sum += v.value(i) as f64;
                        *count += 1;
                    }
                }
            }
            ColumnVector::Double(v) => {
                for i in batch.iter_selected() {
                    if !v.is_null(i) {
                        *sum += v.value(i);
                        *count += 1;
                    }
                }
            }
            _ => return Err(HiveError::Execution("AVG over non-numeric column".into())),
        },
        (AggKind::MinLong, AggState::MinLong(m)) => {
            let v = col.as_long()?;
            for i in batch.iter_selected() {
                if !v.is_null(i) {
                    let x = v.value(i);
                    *m = Some(m.map_or(x, |cur| cur.min(x)));
                }
            }
        }
        (AggKind::MaxLong, AggState::MaxLong(m)) => {
            let v = col.as_long()?;
            for i in batch.iter_selected() {
                if !v.is_null(i) {
                    let x = v.value(i);
                    *m = Some(m.map_or(x, |cur| cur.max(x)));
                }
            }
        }
        (AggKind::MinDouble, AggState::MinDouble(m)) => {
            let v = col.as_double()?;
            for i in batch.iter_selected() {
                if !v.is_null(i) {
                    let x = v.value(i);
                    *m = Some(m.map_or(x, |cur| cur.min(x)));
                }
            }
        }
        (AggKind::MaxDouble, AggState::MaxDouble(m)) => {
            let v = col.as_double()?;
            for i in batch.iter_selected() {
                if !v.is_null(i) {
                    let x = v.value(i);
                    *m = Some(m.map_or(x, |cur| cur.max(x)));
                }
            }
        }
        (AggKind::MinBytes, AggState::MinBytes(m)) => {
            let v = col.as_bytes()?;
            for i in batch.iter_selected() {
                if !v.is_null(i) {
                    let x = v.value(i);
                    if m.as_deref().is_none_or(|cur| x < cur) {
                        *m = Some(x.to_vec());
                    }
                }
            }
        }
        (AggKind::MaxBytes, AggState::MaxBytes(m)) => {
            let v = col.as_bytes()?;
            for i in batch.iter_selected() {
                if !v.is_null(i) {
                    let x = v.value(i);
                    if m.as_deref().is_none_or(|cur| x > cur) {
                        *m = Some(x.to_vec());
                    }
                }
            }
        }
        (kind, _) => {
            return Err(HiveError::Execution(format!(
                "aggregate state mismatch for {kind:?}"
            )))
        }
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expressions::testutil::batch_with;
    use hive_common::DataType;

    #[test]
    fn global_sum_count() {
        let mut agg = VectorHashAggregator::new(
            vec![],
            vec![
                AggSpec {
                    kind: AggKind::SumLong,
                    input_column: Some(0),
                },
                AggSpec {
                    kind: AggKind::CountStar,
                    input_column: None,
                },
            ],
        );
        let b = batch_with(&[1, 2, 3, 4], &[]);
        agg.process(&b).unwrap();
        agg.process(&b).unwrap();
        let rows = agg.finish();
        assert_eq!(rows.len(), 1);
        assert_eq!(rows[0].values(), &[Value::Int(20), Value::Int(8)]);
    }

    #[test]
    fn global_sum_respects_selection() {
        let mut b = batch_with(&[10, 20, 30, 40], &[]);
        b.selected_in_use = true;
        b.selected[0] = 0;
        b.selected[1] = 3;
        b.size = 2;
        let mut agg = VectorHashAggregator::new(
            vec![],
            vec![AggSpec {
                kind: AggKind::SumLong,
                input_column: Some(0),
            }],
        );
        agg.process(&b).unwrap();
        assert_eq!(agg.finish()[0].values(), &[Value::Int(50)]);
    }

    #[test]
    fn keyed_grouping() {
        let mut b = batch_with(&[1, 2, 1, 2, 1], &[10.0, 20.0, 30.0, 40.0, 50.0]);
        b.size = 5;
        let mut agg = VectorHashAggregator::new(
            vec![0],
            vec![
                AggSpec {
                    kind: AggKind::SumDouble,
                    input_column: Some(1),
                },
                AggSpec {
                    kind: AggKind::CountStar,
                    input_column: None,
                },
            ],
        );
        agg.process(&b).unwrap();
        let rows = agg.finish();
        assert_eq!(rows.len(), 2);
        // First-seen order: key 1 then key 2.
        assert_eq!(
            rows[0].values(),
            &[Value::Int(1), Value::Double(90.0), Value::Int(3)]
        );
        assert_eq!(
            rows[1].values(),
            &[Value::Int(2), Value::Double(60.0), Value::Int(2)]
        );
    }

    #[test]
    fn nulls_skipped_by_aggregates_but_counted_by_count_star() {
        let mut b = batch_with(&[1, 2, 3], &[]);
        {
            let c = b.columns[0].as_long_mut().unwrap();
            c.no_nulls = false;
            c.null[1] = true;
        }
        let mut agg = VectorHashAggregator::new(
            vec![],
            vec![
                AggSpec {
                    kind: AggKind::SumLong,
                    input_column: Some(0),
                },
                AggSpec {
                    kind: AggKind::Count,
                    input_column: Some(0),
                },
                AggSpec {
                    kind: AggKind::CountStar,
                    input_column: None,
                },
                AggSpec {
                    kind: AggKind::Avg,
                    input_column: Some(0),
                },
            ],
        );
        agg.process(&b).unwrap();
        let r = agg.finish();
        assert_eq!(
            r[0].values(),
            &[
                Value::Int(4),
                Value::Int(2),
                Value::Int(3),
                Value::Double(2.0)
            ]
        );
    }

    #[test]
    fn min_max_all_types() {
        let mut b = batch_with(&[5, -2, 9], &[1.5, -0.5, 2.5]);
        b.size = 3;
        let sc = b.add_scratch(&DataType::String).unwrap();
        {
            let c = b.columns[sc].as_bytes_mut().unwrap();
            c.set(0, b"m");
            c.set(1, b"a");
            c.set(2, b"z");
        }
        let mut agg = VectorHashAggregator::new(
            vec![],
            vec![
                AggSpec {
                    kind: AggKind::MinLong,
                    input_column: Some(0),
                },
                AggSpec {
                    kind: AggKind::MaxLong,
                    input_column: Some(0),
                },
                AggSpec {
                    kind: AggKind::MinDouble,
                    input_column: Some(1),
                },
                AggSpec {
                    kind: AggKind::MaxDouble,
                    input_column: Some(1),
                },
                AggSpec {
                    kind: AggKind::MinBytes,
                    input_column: Some(sc),
                },
                AggSpec {
                    kind: AggKind::MaxBytes,
                    input_column: Some(sc),
                },
            ],
        );
        agg.process(&b).unwrap();
        let r = agg.finish();
        assert_eq!(
            r[0].values(),
            &[
                Value::Int(-2),
                Value::Int(9),
                Value::Double(-0.5),
                Value::Double(2.5),
                Value::String("a".into()),
                Value::String("z".into()),
            ]
        );
    }

    #[test]
    fn empty_input_sums_are_null() {
        let agg = VectorHashAggregator::new(
            vec![],
            vec![
                AggSpec {
                    kind: AggKind::SumLong,
                    input_column: Some(0),
                },
                AggSpec {
                    kind: AggKind::CountStar,
                    input_column: None,
                },
            ],
        );
        let r = agg.finish();
        assert_eq!(r[0].values(), &[Value::Null, Value::Int(0)]);
    }

    #[test]
    fn null_keys_form_their_own_group() {
        let mut b = batch_with(&[1, 1, 2], &[]);
        {
            let c = b.columns[0].as_long_mut().unwrap();
            c.no_nulls = false;
            c.null[2] = true;
        }
        let mut agg = VectorHashAggregator::new(
            vec![0],
            vec![AggSpec {
                kind: AggKind::CountStar,
                input_column: None,
            }],
        );
        agg.process(&b).unwrap();
        let rows = agg.finish();
        assert_eq!(rows.len(), 2);
    }
}
