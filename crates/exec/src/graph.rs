//! The push-based operator graph.
//!
//! Hive "inherits the push-based data processing model in a Map and a
//! Reduce task from the MapReduce engine" (paper Section 5.2.2). Operators
//! receive messages — rows (tagged with their input source, as the
//! MapReduce engine tags shuffle inputs) and group boundary signals — and
//! emit messages to their children. The graph is a DAG, not a tree: after
//! the Correlation Optimizer runs, a MuxOperator can have several parents.

use hive_common::{HiveError, Result, Row, Value};
use hive_obs::OpProfile;
use hive_vector::VectorizedRowBatch;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// A message flowing between operators (or from the task driver).
///
/// Data arrives either row-at-a-time or as a shared 1024-row column batch —
/// the batch-native redesign makes `Batch` the common case on the map side,
/// with `Row` the explicit fallback. Batches are `Arc`-shared so broadcast
/// fan-out is zero-copy; an operator that mutates its input batch does so
/// copy-on-write (`Arc::make_mut`), cloning only when the batch is actually
/// shared.
#[derive(Debug, Clone, PartialEq)]
pub enum Message {
    /// A row with its input tag ("used to identify the source of a row").
    Row { row: Row, tag: usize },
    /// A shared vectorized row batch with its input tag.
    Batch {
        batch: Arc<VectorizedRowBatch>,
        tag: usize,
    },
    /// A new key group is starting (reduce side only).
    StartGroup,
    /// The current key group has ended; buffering operators emit results.
    EndGroup,
}

impl Message {
    /// Logical rows carried by this message: the *selected* count for a
    /// batch (`size` already reflects `selected[]`), 1 for a row. Profile
    /// accounting is pinned to logical rows so row- and batch-mode plans
    /// report identical `rows_in`/`rows_out`.
    pub fn logical_rows(&self) -> u64 {
        match self {
            Message::Row { .. } => 1,
            Message::Batch { batch, .. } => batch.size as u64,
            Message::StartGroup | Message::EndGroup => 0,
        }
    }
}

/// A record destined for the shuffle, produced by ReduceSinkOperators.
#[derive(Debug, Clone, PartialEq)]
pub struct ShuffleRecord {
    pub key: Vec<Value>,
    pub value: Row,
    pub tag: usize,
    pub num_reducers: usize,
}

/// What an operator emits in response to a message.
#[derive(Debug)]
pub enum Emit {
    /// Send to the child connected at `child_slot`.
    Forward { child_slot: usize, msg: Message },
    /// Send to every child.
    Broadcast(Message),
    /// Leave the task toward the shuffle.
    Shuffle(ShuffleRecord),
    /// Leave the task toward the query output / file sink.
    Output(Row),
}

/// A push-based operator.
pub trait Operator: Send {
    fn name(&self) -> String;

    /// The metrics registry's `op` label: the name without statement
    /// literals, so registry series are bounded by plan shape. Defaults to
    /// the name, which for most operators holds none.
    fn label(&self) -> String {
        self.name()
    }

    /// Handle one message.
    fn receive(&mut self, msg: Message) -> Result<Vec<Emit>>;

    /// End of input: flush buffered state. The graph closes operators in
    /// topological order, so emissions here still reach children before
    /// the children close.
    fn close(&mut self) -> Result<Vec<Emit>> {
        Ok(Vec::new())
    }

    /// Operator-specific profile counters surfaced as `OpProfile.detail`
    /// in `EXPLAIN ANALYZE` (e.g. batch counts for vectorized operators).
    fn profile_detail(&self) -> Vec<(String, u64)> {
        Vec::new()
    }
}

/// An operator DAG with tagged edges.
///
/// The graph profiles itself as it runs: per-operator rows in/out and CPU
/// time, exported as [`OpProfile`]s for `EXPLAIN ANALYZE`. (Under the
/// deterministic clock the engine replaces the measured CPU with the
/// per-row constant, so profiles stay reproducible.)
pub struct OperatorGraph {
    ops: Vec<Box<dyn Operator>>,
    /// `edges[op][slot] = (child, tag_override)`.
    edges: Vec<Vec<(usize, Option<usize>)>>,
    closed: Vec<bool>,
    /// Row messages received, per operator.
    rows_in: Vec<u64>,
    /// Rows sent downstream (children + shuffle + output), per operator.
    rows_out: Vec<u64>,
    /// Measured nanoseconds in `receive`/`close`, per operator.
    cpu_ns: Vec<u64>,
}

// The parallel task runtime moves whole pipelines onto pool workers, so the
// execution types must stay `Send`. Keep these assertions next to the type
// definitions: they fail the build the moment someone adds an `Rc`/`RefCell`.
const _: () = {
    const fn assert_send<T: Send + ?Sized>() {}
    assert_send::<OperatorGraph>();
    assert_send::<Box<dyn Operator>>();
    assert_send::<Message>();
    assert_send::<ShuffleRecord>();
    assert_send::<crate::expr::ExprNode>();
};

impl OperatorGraph {
    pub fn new() -> OperatorGraph {
        OperatorGraph {
            ops: Vec::new(),
            edges: Vec::new(),
            closed: Vec::new(),
            rows_in: Vec::new(),
            rows_out: Vec::new(),
            cpu_ns: Vec::new(),
        }
    }

    pub fn add(&mut self, op: Box<dyn Operator>) -> usize {
        self.ops.push(op);
        self.edges.push(Vec::new());
        self.closed.push(false);
        self.rows_in.push(0);
        self.rows_out.push(0);
        self.cpu_ns.push(0);
        self.ops.len() - 1
    }

    /// Connect `parent` slot-ordered to `child`. Rows crossing this edge
    /// get their tag rewritten to `tag` when given.
    pub fn connect(&mut self, parent: usize, child: usize, tag: Option<usize>) {
        self.edges[parent].push((child, tag));
    }

    pub fn len(&self) -> usize {
        self.ops.len()
    }

    pub fn is_empty(&self) -> bool {
        self.ops.is_empty()
    }

    /// Operator names with child lists (EXPLAIN-style output).
    pub fn describe(&self) -> Vec<String> {
        self.ops
            .iter()
            .enumerate()
            .map(|(i, op)| {
                let kids: Vec<String> = self.edges[i]
                    .iter()
                    .map(|(c, t)| match t {
                        Some(t) => format!("{c}(tag {t})"),
                        None => format!("{c}"),
                    })
                    .collect();
                format!("#{i} {} -> [{}]", op.name(), kids.join(", "))
            })
            .collect()
    }

    /// Push one message into `root`, dispatching transitively.
    pub fn push(
        &mut self,
        root: usize,
        msg: Message,
        shuffle: &mut dyn FnMut(ShuffleRecord),
        output: &mut dyn FnMut(Row),
    ) -> Result<()> {
        let mut queue: VecDeque<(usize, Message)> = VecDeque::new();
        queue.push_back((root, msg));
        self.run(&mut queue, shuffle, output)
    }

    fn run(
        &mut self,
        queue: &mut VecDeque<(usize, Message)>,
        shuffle: &mut dyn FnMut(ShuffleRecord),
        output: &mut dyn FnMut(Row),
    ) -> Result<()> {
        while let Some((op_id, msg)) = queue.pop_front() {
            self.rows_in[op_id] += msg.logical_rows();
            let start = Instant::now();
            let emits = self.ops[op_id].receive(msg)?;
            self.cpu_ns[op_id] += start.elapsed().as_nanos() as u64;
            self.dispatch(op_id, emits, queue, shuffle, output)?;
        }
        Ok(())
    }

    fn dispatch(
        &mut self,
        op_id: usize,
        emits: Vec<Emit>,
        queue: &mut VecDeque<(usize, Message)>,
        shuffle: &mut dyn FnMut(ShuffleRecord),
        output: &mut dyn FnMut(Row),
    ) -> Result<()> {
        for e in emits {
            match e {
                Emit::Forward { child_slot, msg } => {
                    let (child, tag_override) =
                        *self.edges[op_id].get(child_slot).ok_or_else(|| {
                            HiveError::Execution(format!(
                                "operator #{op_id} has no child slot {child_slot}"
                            ))
                        })?;
                    self.rows_out[op_id] += msg.logical_rows();
                    queue.push_back((child, apply_tag(msg, tag_override)));
                }
                Emit::Broadcast(msg) => {
                    self.rows_out[op_id] += msg.logical_rows() * self.edges[op_id].len() as u64;
                    // Cloning a `Batch` message clones the `Arc`, not the
                    // columns: fan-out stays zero-copy.
                    for &(child, tag_override) in &self.edges[op_id] {
                        queue.push_back((child, apply_tag(msg.clone(), tag_override)));
                    }
                }
                Emit::Shuffle(rec) => {
                    self.rows_out[op_id] += 1;
                    shuffle(rec);
                }
                Emit::Output(row) => {
                    self.rows_out[op_id] += 1;
                    output(row);
                }
            }
        }
        Ok(())
    }

    /// Close every operator in topological order so flushed rows still
    /// reach downstream operators before they close.
    pub fn finish(
        &mut self,
        shuffle: &mut dyn FnMut(ShuffleRecord),
        output: &mut dyn FnMut(Row),
    ) -> Result<()> {
        for op_id in self.topo_order()? {
            if self.closed[op_id] {
                continue;
            }
            self.closed[op_id] = true;
            let start = Instant::now();
            let emits = self.ops[op_id].close()?;
            self.cpu_ns[op_id] += start.elapsed().as_nanos() as u64;
            let mut queue = VecDeque::new();
            self.dispatch(op_id, emits, &mut queue, shuffle, output)?;
            self.run(&mut queue, shuffle, output)?;
        }
        Ok(())
    }

    fn topo_order(&self) -> Result<Vec<usize>> {
        let n = self.ops.len();
        let mut indeg = vec![0usize; n];
        for edges in &self.edges {
            for &(c, _) in edges {
                indeg[c] += 1;
            }
        }
        let mut queue: VecDeque<usize> = (0..n).filter(|&i| indeg[i] == 0).collect();
        let mut order = Vec::with_capacity(n);
        while let Some(i) = queue.pop_front() {
            order.push(i);
            for &(c, _) in &self.edges[i] {
                indeg[c] -= 1;
                if indeg[c] == 0 {
                    queue.push_back(c);
                }
            }
        }
        if order.len() != n {
            return Err(HiveError::Plan("operator graph has a cycle".into()));
        }
        Ok(order)
    }

    /// Per-operator runtime profiles collected so far, by operator index.
    pub fn profiles(&self) -> Vec<OpProfile> {
        self.ops
            .iter()
            .enumerate()
            .map(|(i, op)| OpProfile {
                name: op.name(),
                label: op.label(),
                rows_in: self.rows_in[i],
                rows_out: self.rows_out[i],
                cpu_ns: self.cpu_ns[i],
                detail: op.profile_detail(),
            })
            .collect()
    }

    /// Logical rows received by one operator so far.
    pub fn rows_in_of(&self, op_id: usize) -> u64 {
        self.rows_in[op_id]
    }

    /// Logical rows sent downstream by one operator so far.
    pub fn rows_out_of(&self, op_id: usize) -> u64 {
        self.rows_out[op_id]
    }

    /// Number of parents of each operator (MuxOperator setup needs this).
    pub fn parent_counts(&self) -> Vec<usize> {
        let mut counts = vec![0usize; self.ops.len()];
        for edges in &self.edges {
            for &(c, _) in edges {
                counts[c] += 1;
            }
        }
        counts
    }
}

impl Default for OperatorGraph {
    fn default() -> Self {
        OperatorGraph::new()
    }
}

fn apply_tag(msg: Message, tag_override: Option<usize>) -> Message {
    match (msg, tag_override) {
        (Message::Row { row, .. }, Some(t)) => Message::Row { row, tag: t },
        (Message::Batch { batch, .. }, Some(t)) => Message::Batch { batch, tag: t },
        (m, _) => m,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Forwards rows, appending a marker value.
    struct Tagger(i64);

    impl Operator for Tagger {
        fn name(&self) -> String {
            format!("Tagger({})", self.0)
        }

        fn receive(&mut self, msg: Message) -> Result<Vec<Emit>> {
            match msg {
                Message::Row { mut row, tag } => {
                    row.values_mut().push(Value::Int(self.0));
                    Ok(vec![Emit::Forward {
                        child_slot: 0,
                        msg: Message::Row { row, tag },
                    }])
                }
                other => Ok(vec![Emit::Broadcast(other)]),
            }
        }
    }

    struct Sink;

    impl Operator for Sink {
        fn name(&self) -> String {
            "Sink".into()
        }

        fn receive(&mut self, msg: Message) -> Result<Vec<Emit>> {
            match msg {
                Message::Row { row, .. } => Ok(vec![Emit::Output(row)]),
                _ => Ok(vec![]),
            }
        }
    }

    #[test]
    fn linear_pipeline_delivers_in_order() {
        let mut g = OperatorGraph::new();
        let a = g.add(Box::new(Tagger(1)));
        let b = g.add(Box::new(Tagger(2)));
        let s = g.add(Box::new(Sink));
        g.connect(a, b, None);
        g.connect(b, s, None);
        let mut out = Vec::new();
        g.push(
            a,
            Message::Row {
                row: Row::new(vec![Value::Int(0)]),
                tag: 0,
            },
            &mut |_| {},
            &mut |r| out.push(r),
        )
        .unwrap();
        assert_eq!(
            out,
            vec![Row::new(vec![Value::Int(0), Value::Int(1), Value::Int(2)])]
        );
    }

    #[test]
    fn edge_tags_rewrite_row_tags() {
        struct TagCheck(Vec<usize>);
        impl Operator for TagCheck {
            fn name(&self) -> String {
                "TagCheck".into()
            }
            fn receive(&mut self, msg: Message) -> Result<Vec<Emit>> {
                if let Message::Row { tag, .. } = msg {
                    self.0.push(tag);
                }
                Ok(vec![])
            }
            fn close(&mut self) -> Result<Vec<Emit>> {
                assert_eq!(self.0, vec![7]);
                Ok(vec![])
            }
        }
        let mut g = OperatorGraph::new();
        let a = g.add(Box::new(Tagger(0)));
        let c = g.add(Box::new(TagCheck(Vec::new())));
        g.connect(a, c, Some(7));
        g.push(
            a,
            Message::Row {
                row: Row::new(vec![]),
                tag: 0,
            },
            &mut |_| {},
            &mut |_| {},
        )
        .unwrap();
        g.finish(&mut |_| {}, &mut |_| {}).unwrap();
    }

    #[test]
    fn profiles_count_rows_through_the_graph() {
        let mut g = OperatorGraph::new();
        let a = g.add(Box::new(Tagger(1)));
        let s = g.add(Box::new(Sink));
        g.connect(a, s, None);
        let mut out = Vec::new();
        for i in 0..3 {
            g.push(
                a,
                Message::Row {
                    row: Row::new(vec![Value::Int(i)]),
                    tag: 0,
                },
                &mut |_| {},
                &mut |r| out.push(r),
            )
            .unwrap();
        }
        g.finish(&mut |_| {}, &mut |_| {}).unwrap();
        let profiles = g.profiles();
        assert_eq!(profiles.len(), 2);
        assert_eq!(profiles[0].name, "Tagger(1)");
        assert_eq!(profiles[0].rows_in, 3);
        assert_eq!(profiles[0].rows_out, 3);
        assert_eq!(profiles[1].rows_in, 3);
        assert_eq!(profiles[1].rows_out, 3); // Sink emits Output rows
        assert_eq!(out.len(), 3);
    }

    #[test]
    fn batch_broadcast_is_zero_copy_and_counts_logical_rows() {
        use hive_common::DataType;

        /// Remembers the Arc of every batch it sees, then forwards nothing.
        struct BatchSink(Vec<Arc<VectorizedRowBatch>>);
        impl Operator for BatchSink {
            fn name(&self) -> String {
                "BatchSink".into()
            }
            fn receive(&mut self, msg: Message) -> Result<Vec<Emit>> {
                if let Message::Batch { batch, .. } = msg {
                    self.0.push(batch);
                }
                Ok(vec![])
            }
        }
        /// Broadcasts whatever it receives.
        struct Fan;
        impl Operator for Fan {
            fn name(&self) -> String {
                "Fan".into()
            }
            fn receive(&mut self, msg: Message) -> Result<Vec<Emit>> {
                Ok(vec![Emit::Broadcast(msg)])
            }
        }

        let mut g = OperatorGraph::new();
        let f = g.add(Box::new(Fan));
        let a = g.add(Box::new(BatchSink(Vec::new())));
        let b = g.add(Box::new(BatchSink(Vec::new())));
        g.connect(f, a, None);
        g.connect(f, b, Some(3));

        let mut batch = VectorizedRowBatch::new(&[DataType::Int], 8).unwrap();
        // 5 valid rows, 3 selected → 3 logical rows.
        batch.size = 3;
        batch.selected_in_use = true;
        batch.selected[..3].copy_from_slice(&[0, 2, 4]);
        let shared = Arc::new(batch);
        g.push(
            f,
            Message::Batch {
                batch: Arc::clone(&shared),
                tag: 0,
            },
            &mut |_| {},
            &mut |_| {},
        )
        .unwrap();

        assert_eq!(g.rows_in_of(f), 3);
        assert_eq!(g.rows_out_of(f), 6, "3 logical rows × 2 children");
        assert_eq!(g.rows_in_of(a), 3);
        assert_eq!(g.rows_in_of(b), 3);
        // Zero-copy: this handle plus both sinks share one allocation.
        assert_eq!(Arc::strong_count(&shared), 3);
    }

    #[test]
    fn cycle_detection() {
        let mut g = OperatorGraph::new();
        let a = g.add(Box::new(Sink));
        let b = g.add(Box::new(Sink));
        g.connect(a, b, None);
        g.connect(b, a, None);
        assert!(g.finish(&mut |_| {}, &mut |_| {}).is_err());
    }

    #[test]
    fn parent_counts() {
        let mut g = OperatorGraph::new();
        let a = g.add(Box::new(Sink));
        let b = g.add(Box::new(Sink));
        let m = g.add(Box::new(Sink));
        g.connect(a, m, None);
        g.connect(b, m, None);
        assert_eq!(g.parent_counts(), vec![0, 0, 2]);
    }
}
