//! Exec-graph nodes for batch-native execution.
//!
//! Vectorized operators from `hive-vector` run as ordinary nodes of the
//! push-based operator graph, wrapped in [`VectorOpAdapter`], which handles
//! `Arc` sharing (copy-on-write on mutation) and batch counting. Three
//! boundary operators complete the protocol:
//!
//! * [`RowBridgeOperator`] — the *only* batch→row crossing point. A
//!   vectorized segment that ends before a row-mode operator ends in
//!   exactly one bridge.
//! * [`VectorReduceSinkOperator`] — emits shuffle records straight from
//!   batches, so a fully vectorized map task never bridges.
//! * [`VectorGroupBySinkOperator`] — the fused map-side partial
//!   aggregation + reduce sink: batches stream into a typed vectorized
//!   hash aggregator, and the (small) per-group partial rows only come
//!   into existence as shuffle records at close.

use crate::expr::ExprNode;
use crate::graph::{Emit, Message, Operator, ShuffleRecord};
use hive_common::{DataType, HiveError, Result, Row};
use hive_vector::aggregates::VectorHashAggregator;
use hive_vector::row_convert::{batch_to_rows, get_value};
use hive_vector::{VectorExpression, VectorOperator, VectorizedRowBatch};
use std::sync::Arc;

fn wiring_bug(op: &str, got: &str) -> HiveError {
    HiveError::Execution(format!(
        "{op} received a {got} message; this is a planner wiring bug"
    ))
}

/// Runs one [`VectorOperator`] as a graph node.
pub struct VectorOpAdapter {
    inner: Box<dyn VectorOperator>,
    batches: u64,
}

impl VectorOpAdapter {
    pub fn new(inner: Box<dyn VectorOperator>) -> VectorOpAdapter {
        VectorOpAdapter { inner, batches: 0 }
    }
}

impl Operator for VectorOpAdapter {
    fn name(&self) -> String {
        self.inner.name()
    }

    fn label(&self) -> String {
        self.inner.label()
    }

    fn receive(&mut self, msg: Message) -> Result<Vec<Emit>> {
        match msg {
            Message::Batch { batch, tag } => {
                self.batches += 1;
                let mut shared = batch;
                let mut emits = Vec::new();
                // Copy-on-write: `make_mut` clones the columns only when the
                // batch is actually shared (broadcast fan-out); the common
                // linear-chain case mutates in place.
                let flows = {
                    let b = Arc::make_mut(&mut shared);
                    let mut out = |fresh: VectorizedRowBatch| {
                        emits.push(Emit::Forward {
                            child_slot: 0,
                            msg: Message::Batch {
                                batch: Arc::new(fresh),
                                tag,
                            },
                        });
                    };
                    self.inner.process(b, &mut out)?
                };
                if flows && shared.size > 0 {
                    emits.push(Emit::Forward {
                        child_slot: 0,
                        msg: Message::Batch { batch: shared, tag },
                    });
                }
                Ok(emits)
            }
            Message::Row { .. } => Err(wiring_bug(&self.name(), "row")),
            signal => Ok(vec![Emit::Broadcast(signal)]),
        }
    }

    fn close(&mut self) -> Result<Vec<Emit>> {
        let mut emits = Vec::new();
        let mut out = |fresh: VectorizedRowBatch| {
            emits.push(Emit::Forward {
                child_slot: 0,
                msg: Message::Batch {
                    batch: Arc::new(fresh),
                    tag: 0,
                },
            });
        };
        self.inner.close(&mut out)?;
        Ok(emits)
    }

    fn profile_detail(&self) -> Vec<(String, u64)> {
        let mut d = vec![("batches".to_string(), self.batches)];
        d.extend(self.inner.profile_detail());
        d
    }
}

/// The single batch→row crossing point. A vectorized segment that cannot
/// continue in batch mode (an unsupported downstream shape, or a map join
/// with its gate off) ends in exactly one bridge, which materializes the selected rows
/// and forwards them row-mode.
pub struct RowBridgeOperator {
    /// Batch column index + logical type of each materialized column.
    pub output_columns: Vec<(usize, DataType)>,
    batches: u64,
}

impl RowBridgeOperator {
    pub fn new(output_columns: Vec<(usize, DataType)>) -> RowBridgeOperator {
        RowBridgeOperator {
            output_columns,
            batches: 0,
        }
    }
}

impl Operator for RowBridgeOperator {
    fn name(&self) -> String {
        "RowBridge".into()
    }

    fn receive(&mut self, msg: Message) -> Result<Vec<Emit>> {
        match msg {
            Message::Batch { batch, tag } => {
                self.batches += 1;
                Ok(batch_to_rows(&batch, &self.output_columns)
                    .into_iter()
                    .map(|row| Emit::Forward {
                        child_slot: 0,
                        msg: Message::Row { row, tag },
                    })
                    .collect())
            }
            Message::Row { .. } => Err(wiring_bug("RowBridge", "row")),
            signal => Ok(vec![Emit::Broadcast(signal)]),
        }
    }

    fn profile_detail(&self) -> Vec<(String, u64)> {
        vec![("batches".to_string(), self.batches)]
    }
}

/// Batch-native reduce sink: evaluates key/value columns per selected row
/// and emits shuffle records directly, with no intermediate row operator.
pub struct VectorReduceSinkOperator {
    /// Scratch-column expressions run per batch before key/value extraction.
    pub expressions: Vec<Box<dyn VectorExpression>>,
    pub key_columns: Vec<(usize, DataType)>,
    pub value_columns: Vec<(usize, DataType)>,
    pub tag: usize,
    pub num_reducers: usize,
    batches: u64,
}

impl VectorReduceSinkOperator {
    pub fn new(
        expressions: Vec<Box<dyn VectorExpression>>,
        key_columns: Vec<(usize, DataType)>,
        value_columns: Vec<(usize, DataType)>,
        tag: usize,
        num_reducers: usize,
    ) -> VectorReduceSinkOperator {
        VectorReduceSinkOperator {
            expressions,
            key_columns,
            value_columns,
            tag,
            num_reducers,
            batches: 0,
        }
    }
}

impl Operator for VectorReduceSinkOperator {
    fn name(&self) -> String {
        format!("VectorReduceSink(tag {})", self.tag)
    }

    fn receive(&mut self, msg: Message) -> Result<Vec<Emit>> {
        match msg {
            Message::Batch { batch, tag: _ } => {
                self.batches += 1;
                let mut shared = batch;
                let b = Arc::make_mut(&mut shared);
                for e in &self.expressions {
                    e.evaluate(b)?;
                }
                let mut emits = Vec::with_capacity(b.size);
                for i in b.iter_selected() {
                    let key = self
                        .key_columns
                        .iter()
                        .map(|(c, dt)| get_value(&b.columns[*c], i, dt))
                        .collect();
                    let value = self
                        .value_columns
                        .iter()
                        .map(|(c, dt)| get_value(&b.columns[*c], i, dt))
                        .collect();
                    emits.push(Emit::Shuffle(ShuffleRecord {
                        key,
                        value: Row::new(value),
                        tag: self.tag,
                        num_reducers: self.num_reducers,
                    }));
                }
                Ok(emits)
            }
            Message::Row { .. } => Err(wiring_bug(&self.name(), "row")),
            // Group signals never cross the shuffle boundary.
            _ => Ok(vec![]),
        }
    }

    fn profile_detail(&self) -> Vec<(String, u64)> {
        vec![("batches".to_string(), self.batches)]
    }
}

/// Fused map-side partial group-by + reduce sink: the batch chain ends in a
/// typed vectorized hash aggregation, and partial results surface only as
/// shuffle records at close (AVG partials are `struct(sum, count)` values,
/// which never fit a column vector — the shuffle is the natural row
/// boundary, and per-group row counts are small).
pub struct VectorGroupBySinkOperator {
    /// Scratch-column expressions run per batch (group keys + agg inputs).
    pub expressions: Vec<Box<dyn VectorExpression>>,
    aggregator: VectorHashAggregator,
    /// Row-mode expressions over the partial row (keys ++ partial values).
    pub key_exprs: Vec<ExprNode>,
    pub value_exprs: Vec<ExprNode>,
    pub tag: usize,
    pub num_reducers: usize,
    batches: u64,
    rows_seen: u64,
    groups_out: u64,
}

impl VectorGroupBySinkOperator {
    pub fn new(
        expressions: Vec<Box<dyn VectorExpression>>,
        aggregator: VectorHashAggregator,
        key_exprs: Vec<ExprNode>,
        value_exprs: Vec<ExprNode>,
        tag: usize,
        num_reducers: usize,
    ) -> VectorGroupBySinkOperator {
        VectorGroupBySinkOperator {
            expressions,
            aggregator,
            key_exprs,
            value_exprs,
            tag,
            num_reducers,
            batches: 0,
            rows_seen: 0,
            groups_out: 0,
        }
    }
}

impl Operator for VectorGroupBySinkOperator {
    fn name(&self) -> String {
        format!("VectorGroupBySink(tag {})", self.tag)
    }

    fn receive(&mut self, msg: Message) -> Result<Vec<Emit>> {
        match msg {
            Message::Batch { batch, tag: _ } => {
                self.batches += 1;
                let mut shared = batch;
                let b = Arc::make_mut(&mut shared);
                for e in &self.expressions {
                    e.evaluate(b)?;
                }
                self.rows_seen += b.size as u64;
                self.aggregator.process(b)?;
                Ok(vec![])
            }
            Message::Row { .. } => Err(wiring_bug(&self.name(), "row")),
            _ => Ok(vec![]),
        }
    }

    fn close(&mut self) -> Result<Vec<Emit>> {
        // Match the row-mode hash GroupBy: no input rows → no partials (the
        // hash table never grew an entry).
        if self.rows_seen == 0 {
            return Ok(vec![]);
        }
        let agg = std::mem::replace(
            &mut self.aggregator,
            VectorHashAggregator::new(vec![], vec![]),
        );
        let partials = agg.finish_partial();
        self.groups_out = partials.len() as u64;
        let mut emits = Vec::with_capacity(partials.len());
        for row in partials {
            let mut key = Vec::with_capacity(self.key_exprs.len());
            for e in &self.key_exprs {
                key.push(e.eval(&row)?);
            }
            let mut value = Vec::with_capacity(self.value_exprs.len());
            for e in &self.value_exprs {
                value.push(e.eval(&row)?);
            }
            emits.push(Emit::Shuffle(ShuffleRecord {
                key,
                value: Row::new(value),
                tag: self.tag,
                num_reducers: self.num_reducers,
            }));
        }
        Ok(emits)
    }

    fn profile_detail(&self) -> Vec<(String, u64)> {
        vec![
            ("batches".to_string(), self.batches),
            ("groups".to_string(), self.groups_out),
        ]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::graph::OperatorGraph;
    use hive_common::Value;
    use hive_vector::aggregates::{AggKind, AggSpec};
    use hive_vector::row_convert::rows_to_batch;
    use hive_vector::VectorFilterOperator;

    fn int_batch(vals: &[i64]) -> VectorizedRowBatch {
        let rows: Vec<Row> = vals
            .iter()
            .map(|&v| Row::new(vec![Value::Int(v)]))
            .collect();
        let mut b = VectorizedRowBatch::new(&[DataType::Int], vals.len().max(1)).unwrap();
        rows_to_batch(&rows, &mut b).unwrap();
        b
    }

    #[test]
    fn adapter_filter_then_bridge_counts_logical_rows() {
        use hive_vector::expressions::filters::FilterLongColGreaterLongScalar;

        let mut g = OperatorGraph::new();
        let f = g.add(Box::new(VectorOpAdapter::new(Box::new(
            VectorFilterOperator {
                predicate: Box::new(FilterLongColGreaterLongScalar {
                    column: 0,
                    scalar: 2,
                }),
            },
        ))));
        let br = g.add(Box::new(RowBridgeOperator::new(vec![(0, DataType::Int)])));
        let s = g.add(Box::new(crate::operators::FileSinkOperator));
        g.connect(f, br, None);
        g.connect(br, s, None);

        let mut out = Vec::new();
        g.push(
            f,
            Message::Batch {
                batch: Arc::new(int_batch(&[1, 2, 3, 4, 5])),
                tag: 0,
            },
            &mut |_| {},
            &mut |r| out.push(r),
        )
        .unwrap();
        g.finish(&mut |_| {}, &mut |_| {}).unwrap();

        assert_eq!(
            out,
            vec![
                Row::new(vec![Value::Int(3)]),
                Row::new(vec![Value::Int(4)]),
                Row::new(vec![Value::Int(5)]),
            ]
        );
        // Logical-row accounting: filter 5 in → 3 out; bridge 3 in → 3 out.
        assert_eq!(g.rows_in_of(f), 5);
        assert_eq!(g.rows_out_of(f), 3);
        assert_eq!(g.rows_in_of(br), 3);
        assert_eq!(g.rows_out_of(br), 3);
        let profs = g.profiles();
        assert!(profs[0].detail.contains(&("batches".to_string(), 1)));
    }

    #[test]
    fn vector_reduce_sink_emits_shuffle_records() {
        let mut op = VectorReduceSinkOperator::new(
            vec![],
            vec![(0, DataType::Int)],
            vec![(0, DataType::Int)],
            2,
            4,
        );
        let emits = op
            .receive(Message::Batch {
                batch: Arc::new(int_batch(&[7, 8])),
                tag: 0,
            })
            .unwrap();
        assert_eq!(emits.len(), 2);
        match &emits[0] {
            Emit::Shuffle(rec) => {
                assert_eq!(rec.key, vec![Value::Int(7)]);
                assert_eq!(rec.value, Row::new(vec![Value::Int(7)]));
                assert_eq!(rec.tag, 2);
                assert_eq!(rec.num_reducers, 4);
            }
            other => panic!("expected shuffle, got {other:?}"),
        }
    }

    #[test]
    fn group_by_sink_aggregates_and_flushes_partials_at_close() {
        let mut op = VectorGroupBySinkOperator::new(
            vec![],
            VectorHashAggregator::new(
                vec![0],
                vec![AggSpec {
                    kind: AggKind::CountStar,
                    input_column: None,
                }],
            ),
            vec![ExprNode::Column(0)],
            vec![ExprNode::Column(1)],
            0,
            1,
        );
        let emits = op
            .receive(Message::Batch {
                batch: Arc::new(int_batch(&[1, 2, 1, 1])),
                tag: 0,
            })
            .unwrap();
        assert!(emits.is_empty(), "partials only surface at close");
        let flushed = op.close().unwrap();
        assert_eq!(flushed.len(), 2);
        match &flushed[0] {
            Emit::Shuffle(rec) => {
                assert_eq!(rec.key, vec![Value::Int(1)]);
                assert_eq!(rec.value, Row::new(vec![Value::Int(3)]));
            }
            other => panic!("expected shuffle, got {other:?}"),
        }
        assert!(op.profile_detail().contains(&("groups".to_string(), 2)));
    }

    #[test]
    fn group_by_sink_empty_input_emits_nothing() {
        let mut op = VectorGroupBySinkOperator::new(
            vec![],
            VectorHashAggregator::new(
                vec![],
                vec![AggSpec {
                    kind: AggKind::CountStar,
                    input_column: None,
                }],
            ),
            vec![],
            vec![ExprNode::Column(0)],
            0,
            1,
        );
        assert!(op.close().unwrap().is_empty());
    }

    #[test]
    fn rows_reaching_vector_operators_are_wiring_bugs() {
        let row = Message::Row {
            row: Row::new(vec![]),
            tag: 0,
        };
        let mut bridge = RowBridgeOperator::new(vec![]);
        assert!(bridge.receive(row.clone()).is_err());
        let mut rs = VectorReduceSinkOperator::new(vec![], vec![], vec![], 0, 1);
        assert!(rs.receive(row).is_err());
    }
}
