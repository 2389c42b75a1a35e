//! The task compiler: operator DAG → DAG of MapReduce jobs (paper
//! Section 2: "the task compiler ... breaks the operator tree to multiple
//! stages represented by executable tasks").
//!
//! Job boundaries are the ReduceSink→consumer edges plus any
//! IntermediateCut nodes. The compiler:
//!
//! * groups operators into fragments,
//! * emits one shuffle job per reduce fragment (its map side being the
//!   fragments feeding its ReduceSinks) and one map-only job per source
//!   fragment ending in a sink,
//! * decides Map-only-job merging per Section 5.1 (the
//!   `hive.optimize.merge.maponly.jobs` knob and the hash-table size
//!   threshold),
//! * inserts the Demux/Mux coordination operators into Reduce-side
//!   operator graphs (Section 5.2.2, Figure 5),
//! * invokes the vectorization pass on eligible map-side chains
//!   (Section 6.4).

use crate::correlation::fragments;
use crate::plan::{GroupByPhase, PlanGraph, PlanNode, PlanOp};
use crate::semantic::Translation;
use crate::vectorize;
use hive_common::config::keys;
use hive_common::{HiveConf, HiveError, Result, Row, Value};
use hive_exec::agg::AggMode;
use hive_exec::expr::ExprNode;
use hive_exec::graph::OperatorGraph;
use hive_exec::operators as ops;
use hive_mapreduce::job::{
    JobInput, JobOutput, JobSpec, MapPipeline, MapPipelineFactory, ReducePipelineFactory, SideInput,
};
use std::collections::{BTreeMap, HashMap};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Arc;

static QUERY_COUNTER: AtomicU64 = AtomicU64::new(0);

/// A fully compiled query. Cloneable (job pipeline factories are shared
/// `Arc`s) so the server's plan cache can reuse one compilation across
/// executions; see [`CompiledQuery::rebase`].
#[derive(Clone)]
pub struct CompiledQuery {
    pub jobs: Vec<JobSpec>,
    /// Driver-side final sort: output column index + ascending.
    pub order_by: Vec<(usize, bool)>,
    pub limit: Option<u64>,
    pub output_names: Vec<String>,
    pub explain: String,
    /// Scratch prefix (`/tmp/query-<N>`) this compilation's intermediate
    /// job outputs live under. Unique per compilation.
    pub tmp_base: String,
}

impl CompiledQuery {
    /// A copy of this plan with every intermediate path moved under a
    /// fresh `/tmp/query-<N>` prefix. A cached plan must be rebased before
    /// each execution: two statements running the same cached plan
    /// concurrently would otherwise collide on intermediate part files.
    pub fn rebase(&self) -> CompiledQuery {
        let fresh = fresh_tmp_base();
        let moved = |p: &str| {
            if let Some(rest) = p.strip_prefix(&self.tmp_base) {
                format!("{fresh}{rest}")
            } else {
                p.to_string()
            }
        };
        let mut out = self.clone();
        for job in &mut out.jobs {
            for input in &mut job.inputs {
                for p in &mut input.paths {
                    *p = moved(p);
                }
            }
            for side in &mut job.side_inputs {
                for p in &mut side.paths {
                    *p = moved(p);
                }
            }
            if let JobOutput::Intermediate { path_prefix } = &mut job.output {
                *path_prefix = moved(path_prefix);
            }
        }
        out.explain = out.explain.replace(&self.tmp_base, &fresh);
        out.tmp_base = fresh;
        out
    }
}

/// A fresh, process-unique scratch prefix for one query's intermediates.
pub fn fresh_tmp_base() -> String {
    let qid = QUERY_COUNTER.fetch_add(1, Ordering::Relaxed);
    format!("/tmp/query-{qid}")
}

/// One map-side input of a job (compile-time form).
#[derive(Clone)]
struct MapInput {
    alias: String,
    /// The node rows enter the exec graph at (scan or cut-child or RS).
    source: usize,
    /// Whether `source` is a plan TableScan (vs an intermediate read).
    scan: Option<usize>,
    /// Intermediate read: (path prefix, schema provider node).
    intermediate: Option<(String, usize)>,
    /// Plan node ids executed in this input's chain.
    nodes: Vec<usize>,
    /// ReduceSink plan id → shuffle tag.
    rs_tags: BTreeMap<usize, usize>,
}

/// Compile an (optimized) translation into jobs.
pub fn compile(t: &Translation, conf: &HiveConf) -> Result<CompiledQuery> {
    let mut g = t.graph.clone();
    insert_cuts(&mut g, conf)?;
    let tmp_base = fresh_tmp_base();

    let frag_of = fragments(&g);
    // Fragment → members.
    let mut members: BTreeMap<usize, Vec<usize>> = BTreeMap::new();
    for (&node, &f) in &frag_of {
        members.entry(f).or_default().push(node);
    }

    // Classify each fragment.
    struct FragInfo {
        nodes: Vec<usize>,
        /// RS nodes in other fragments whose child is here.
        feeding_rs: Vec<usize>,
        /// RS nodes here whose child is elsewhere.
        sink_rs: Vec<usize>,
        sink_cuts: Vec<usize>,
        has_fs: bool,
    }
    let mut infos: BTreeMap<usize, FragInfo> = BTreeMap::new();
    for (&f, nodes) in &members {
        let mut info = FragInfo {
            nodes: nodes.clone(),
            feeding_rs: Vec::new(),
            sink_rs: Vec::new(),
            sink_cuts: Vec::new(),
            has_fs: false,
        };
        for &n in nodes {
            match &g.node(n).op {
                PlanOp::ReduceSink {
                    degenerate: false, ..
                } => info.sink_rs.push(n),
                PlanOp::IntermediateCut => info.sink_cuts.push(n),
                PlanOp::FileSink => info.has_fs = true,
                _ => {}
            }
            for &p in &g.node(n).parents {
                if matches!(
                    g.node(p).op,
                    PlanOp::ReduceSink {
                        degenerate: false,
                        ..
                    }
                ) && frag_of.get(&p) != Some(&f)
                {
                    info.feeding_rs.push(p);
                }
            }
        }
        info.feeding_rs.sort_unstable();
        info.feeding_rs.dedup();
        infos.insert(f, info);
    }

    // Topological order of fragments along boundary edges.
    let frag_order = order_fragments(&g, &frag_of, &infos.keys().copied().collect::<Vec<_>>());

    let mut jobs = Vec::new();
    // Boundary node (RS in reduce fragment, or Cut) → intermediate prefix.
    let mut intermediates: HashMap<usize, String> = HashMap::new();
    let mut explain = String::new();

    for f in frag_order {
        let info = &infos[&f];
        let is_reduce = !info.feeding_rs.is_empty();
        if !is_reduce && !info.has_fs && info.sink_cuts.is_empty() {
            // A pure map fragment: executed as part of a shuffle job.
            continue;
        }

        // ----- Output of this job. -------------------------------------
        let sink_count = info.has_fs as usize
            + usize::from(!info.sink_cuts.is_empty())
            + usize::from(is_reduce && !info.sink_rs.is_empty());
        if sink_count != 1 {
            return Err(HiveError::Plan(format!(
                "fragment has {sink_count} output kinds; exactly one supported"
            )));
        }
        let job_idx = jobs.len();
        let output = if info.has_fs {
            JobOutput::Collect
        } else {
            let prefix = format!("{tmp_base}/job-{job_idx}");
            for &cut in &info.sink_cuts {
                intermediates.insert(cut, prefix.clone());
            }
            if is_reduce {
                for &rs in &info.sink_rs {
                    intermediates.insert(rs, prefix.clone());
                }
            }
            JobOutput::Intermediate {
                path_prefix: format!("{prefix}/"),
            }
        };
        // Trim the trailing slash for writes; reads use list(prefix + '/').
        let output = match output {
            JobOutput::Intermediate { path_prefix } => JobOutput::Intermediate {
                path_prefix: path_prefix.trim_end_matches('/').to_string(),
            },
            o => o,
        };

        // ----- Map side. -------------------------------------------------
        let map_inputs = if is_reduce {
            build_map_inputs(&g, &frag_of, &info.feeding_rs, &intermediates)?
        } else {
            // Map-only job: the fragment itself is the map side.
            build_maponly_input(&g, &info.nodes, &intermediates)?
        };

        // Side inputs (MapJoin hash tables) from all map nodes.
        let mut side_inputs = Vec::new();
        for mi in &map_inputs {
            for &n in &mi.nodes {
                if let PlanOp::MapJoin { sides } = &g.node(n).op {
                    for s in sides {
                        side_inputs.push(SideInput {
                            alias: s.alias.clone(),
                            paths: s.table.paths.clone(),
                            format: s.table.format,
                            schema: s.table.schema.clone(),
                            projection: Some(s.projection.clone()),
                        });
                    }
                }
            }
        }

        // num_reducers: agree across feeding RSs.
        let num_reducers = if is_reduce {
            let mut n = 0usize;
            for &rs in &info.feeding_rs {
                let PlanOp::ReduceSink { num_reducers, .. } = &g.node(rs).op else {
                    unreachable!()
                };
                n = n.max(*num_reducers);
            }
            // A global aggregation (empty keys) forces one reducer.
            for &rs in &info.feeding_rs {
                if let PlanOp::ReduceSink { keys, .. } = &g.node(rs).op {
                    if keys.is_empty() {
                        n = 1;
                    }
                }
            }
            n.max(1)
        } else {
            0
        };

        // ----- JobSpec inputs and factories. ------------------------------
        let vectorize_on = conf.get_bool(keys::VECTORIZED_ENABLED)?;
        let vectorize_mapjoin = conf.get_bool(keys::VECTORIZED_MAPJOIN_ENABLED)?;
        let batch_size = conf.get_usize(keys::VECTORIZED_BATCH_SIZE)?;
        let mut job_inputs = Vec::new();
        for mi in &map_inputs {
            match (mi.scan, &mi.intermediate) {
                (Some(scan_id), _) => {
                    let PlanOp::TableScan {
                        table,
                        projection,
                        sarg,
                        ..
                    } = &g.node(scan_id).op
                    else {
                        unreachable!()
                    };
                    // Predicate pushdown stays on for ACID scans: delete
                    // masks address rows by (file, ordinal) and the ORC
                    // reader reports skip-aware ordinals, so index-group
                    // skipping no longer desynchronizes the mask. A SARG is
                    // an overapproximation — rows it prunes could never
                    // reach the output, deleted or not.
                    job_inputs.push(JobInput {
                        alias: mi.alias.clone(),
                        paths: table.paths.clone(),
                        format: table.format,
                        schema: table.schema.clone(),
                        projection: Some(projection.clone()),
                        sarg: sarg.clone(),
                        overlay: table.acid.clone(),
                    });
                }
                (None, Some((prefix, schema_node))) => {
                    let schema_cols = &g.node(*schema_node).schema;
                    let schema = hive_common::Schema::new(
                        schema_cols
                            .iter()
                            .map(|c| hive_common::Field::new(c.name.clone(), c.data_type.clone()))
                            .collect(),
                    );
                    job_inputs.push(JobInput {
                        alias: mi.alias.clone(),
                        paths: vec![format!("{prefix}/")],
                        format: hive_formats::FormatKind::Sequence,
                        schema,
                        projection: None,
                        sarg: None,
                        overlay: None,
                    });
                }
                _ => return Err(HiveError::Plan("map input without a source".into())),
            }
        }

        let map_spec = Arc::new(MapBuildSpec {
            nodes: g.nodes.clone(),
            inputs: map_inputs.clone(),
            num_reducers,
            vectorize: vectorize_on,
            vectorize_mapjoin,
            batch_size,
        });
        let map_factory: MapPipelineFactory = {
            let spec = map_spec.clone();
            Arc::new(move |side| spec.build(side))
        };

        let reduce_factory: Option<ReducePipelineFactory> = if is_reduce {
            let spec = Arc::new(ReduceBuildSpec {
                nodes: g.nodes.clone(),
                fragment: info.nodes.clone(),
                feeding_rs: info.feeding_rs.clone(),
            });
            Some(Arc::new(move || spec.build()))
        } else {
            None
        };

        let name = format!(
            "job-{job_idx}[{}]",
            if is_reduce { "map+reduce" } else { "map-only" }
        );
        let spec = JobSpec {
            name,
            inputs: job_inputs,
            side_inputs,
            map_factory,
            reduce_factory,
            num_reducers,
            output,
        };
        explain.push_str(&spec.describe());
        explain.push('\n');
        jobs.push(spec);
    }

    explain.push_str("\noperator tree:\n");
    explain.push_str(&g.explain());

    Ok(CompiledQuery {
        jobs,
        order_by: t.order_by.clone(),
        limit: t.limit,
        output_names: t.output_names.clone(),
        explain,
        tmp_base,
    })
}

/// Insert IntermediateCuts: (a) mandatory boundaries before Map-phase-only
/// operators (MapJoin, map-side GroupBy) that ended up downstream of a
/// Reduce phase — Hive materializes a temp file there and continues in the
/// next job's Map phase — and (b) boundaries after MapJoins per the
/// Section 5.1 merging rule.
fn insert_cuts(g: &mut PlanGraph, conf: &HiveConf) -> Result<()> {
    // (a) Mandatory cuts; iterate to a fixpoint since each cut changes the
    //     fragment structure.
    loop {
        let frag_of = fragments(g);
        let mut receives: std::collections::BTreeSet<usize> = Default::default();
        for node in &g.nodes {
            if !node.alive {
                continue;
            }
            for &p in &node.parents {
                if matches!(
                    g.node(p).op,
                    PlanOp::ReduceSink {
                        degenerate: false,
                        ..
                    }
                ) && frag_of.get(&p) != frag_of.get(&node.id)
                {
                    if let Some(&f) = frag_of.get(&node.id) {
                        receives.insert(f);
                    }
                }
            }
        }
        let mut target = None;
        for node in &g.nodes {
            if !node.alive {
                continue;
            }
            let map_phase_only = matches!(
                node.op,
                PlanOp::MapJoin { .. }
                    | PlanOp::GroupBy {
                        phase: GroupByPhase::MapHash,
                        ..
                    }
            );
            if map_phase_only
                && frag_of.get(&node.id).is_some_and(|f| receives.contains(f))
                && !node
                    .parents
                    .iter()
                    .all(|&p| matches!(g.node(p).op, PlanOp::IntermediateCut))
            {
                target = Some(node.id);
                break;
            }
        }
        let Some(n) = target else { break };
        let parent = g.node(n).parents[0];
        let schema = g.node(parent).schema.clone();
        g.node_mut(parent).children.retain(|&c| c != n);
        let cut = g.add(PlanOp::IntermediateCut, schema, vec![parent]);
        g.node_mut(cut).children.push(n);
        for slot in g.node_mut(n).parents.iter_mut() {
            if *slot == parent {
                *slot = cut;
            }
        }
    }

    // (b) The Section 5.1 merging rule.
    let merge = conf.get_bool(keys::MERGE_MAPONLY_JOBS)?;
    let threshold = conf.get_usize(keys::MERGE_MAPONLY_THRESHOLD)? as u64;
    let frag_of = fragments(g);
    // Total hash-table bytes per fragment.
    let mut side_bytes: BTreeMap<usize, u64> = BTreeMap::new();
    for n in g.find(|n| matches!(n.op, PlanOp::MapJoin { .. })) {
        if let PlanOp::MapJoin { sides } = &g.node(n).op {
            let f = frag_of[&n];
            *side_bytes.entry(f).or_default() +=
                sides.iter().map(|s| s.table.size_bytes).sum::<u64>();
        }
    }
    for mj in g.find(|n| matches!(n.op, PlanOp::MapJoin { .. })) {
        let cut_here = !merge || side_bytes[&frag_of[&mj]] > threshold;
        if !cut_here {
            continue;
        }
        let children = g.node(mj).children.clone();
        let schema = g.node(mj).schema.clone();
        for child in children {
            // parent → cut → child.
            g.node_mut(mj).children.retain(|&c| c != child);
            let cut = g.add(PlanOp::IntermediateCut, schema.clone(), vec![mj]);
            g.node_mut(cut).children.push(child);
            for slot in g.node_mut(child).parents.iter_mut() {
                if *slot == mj {
                    *slot = cut;
                }
            }
        }
    }
    Ok(())
}

/// Topologically order fragments along boundary (RS/Cut → child) edges.
fn order_fragments(g: &PlanGraph, frag_of: &BTreeMap<usize, usize>, frags: &[usize]) -> Vec<usize> {
    let mut deps: BTreeMap<usize, Vec<usize>> = BTreeMap::new(); // frag → consumers
    let mut indeg: BTreeMap<usize, usize> = frags.iter().map(|&f| (f, 0)).collect();
    for node in &g.nodes {
        if !node.alive {
            continue;
        }
        if matches!(
            node.op,
            PlanOp::ReduceSink {
                degenerate: false,
                ..
            } | PlanOp::IntermediateCut
        ) {
            let pf = frag_of[&node.id];
            for &c in &node.children {
                let cf = frag_of[&c];
                if cf != pf {
                    deps.entry(pf).or_default().push(cf);
                    *indeg.get_mut(&cf).unwrap() += 1;
                }
            }
        }
    }
    let mut queue: Vec<usize> = indeg
        .iter()
        .filter(|(_, &d)| d == 0)
        .map(|(&f, _)| f)
        .collect();
    let mut out = Vec::new();
    while let Some(f) = queue.pop() {
        out.push(f);
        if let Some(consumers) = deps.get(&f) {
            for &c in consumers.clone().iter() {
                let d = indeg.get_mut(&c).unwrap();
                *d -= 1;
                if *d == 0 {
                    queue.push(c);
                }
            }
        }
        queue.sort_unstable_by(|a, b| b.cmp(a)); // deterministic
    }
    out
}

/// Map inputs of a shuffle job: one per distinct source feeding its RSs.
fn build_map_inputs(
    g: &PlanGraph,
    frag_of: &BTreeMap<usize, usize>,
    feeding_rs: &[usize],
    intermediates: &HashMap<usize, String>,
) -> Result<Vec<MapInput>> {
    // Tag assignment: feeding RS order.
    let mut inputs: Vec<MapInput> = Vec::new();
    for (tag, &rs) in feeding_rs.iter().enumerate() {
        // Where does this RS's data come from?
        let rs_frag = frag_of[&rs];
        let rs_frag_is_reduce = g.nodes.iter().any(|n| {
            n.alive
                && frag_of.get(&n.id) == Some(&rs_frag)
                && n.parents.iter().any(|&p| {
                    matches!(
                        g.node(p).op,
                        PlanOp::ReduceSink {
                            degenerate: false,
                            ..
                        }
                    ) && frag_of.get(&p) != Some(&rs_frag)
                })
        });
        if rs_frag_is_reduce {
            // The RS executes over the previous job's intermediate output.
            let prefix = intermediates.get(&rs).ok_or_else(|| {
                HiveError::Plan("intermediate path missing for reduce-side RS".into())
            })?;
            let parent = g.node(rs).parents[0];
            inputs.push(MapInput {
                alias: format!("intermediate#{rs}"),
                source: rs,
                scan: None,
                intermediate: Some((prefix.clone(), parent)),
                nodes: vec![rs],
                rs_tags: BTreeMap::from([(rs, tag)]),
            });
            continue;
        }
        // Walk up to the chain's source (scan or cut-child).
        let mut cur = rs;
        let source;
        loop {
            let parents = &g.node(cur).parents;
            if parents.is_empty() {
                source = cur;
                break;
            }
            let p = parents[0];
            if matches!(g.node(p).op, PlanOp::IntermediateCut) {
                source = cur; // chain starts below the cut
                break;
            }
            cur = p;
        }
        // Shared source (merged scans): fold into the existing input.
        if let Some(existing) = inputs.iter_mut().find(|i| i.source == source) {
            existing.rs_tags.insert(rs, tag);
            let chain = chain_nodes(g, source, rs);
            for n in chain {
                if !existing.nodes.contains(&n) {
                    existing.nodes.push(n);
                }
            }
            continue;
        }
        let nodes = chain_nodes(g, source, rs);
        let (scan, intermediate, alias) = match &g.node(source).op {
            PlanOp::TableScan { alias, .. } => (Some(source), None, format!("{alias}#{source}")),
            _ => {
                // Source sits below a cut: read that cut's intermediate.
                let cut = g.node(source).parents[0];
                let prefix = intermediates
                    .get(&cut)
                    .ok_or_else(|| HiveError::Plan("intermediate path missing for cut".into()))?;
                (None, Some((prefix.clone(), cut)), format!("cut#{cut}"))
            }
        };
        inputs.push(MapInput {
            alias,
            source,
            scan,
            intermediate,
            nodes,
            rs_tags: BTreeMap::from([(rs, tag)]),
        });
    }
    Ok(inputs)
}

/// The single map input of a map-only job (whole fragment).
fn build_maponly_input(
    g: &PlanGraph,
    nodes: &[usize],
    intermediates: &HashMap<usize, String>,
) -> Result<Vec<MapInput>> {
    // Source: the unique node without in-fragment parents.
    let mut sources = Vec::new();
    for &n in nodes {
        let parents = &g.node(n).parents;
        if parents.is_empty() {
            sources.push(n);
        } else if parents
            .iter()
            .all(|&p| matches!(g.node(p).op, PlanOp::IntermediateCut))
        {
            sources.push(n);
        }
    }
    if sources.len() != 1 {
        return Err(HiveError::Plan(format!(
            "map-only job must have exactly one source, found {}",
            sources.len()
        )));
    }
    let source = sources[0];
    let (scan, intermediate, alias) = match &g.node(source).op {
        PlanOp::TableScan { alias, .. } => (Some(source), None, format!("{alias}#{source}")),
        _ => {
            let cut = g.node(source).parents[0];
            let prefix = intermediates
                .get(&cut)
                .ok_or_else(|| HiveError::Plan("intermediate path missing for cut".into()))?;
            (None, Some((prefix.clone(), cut)), format!("cut#{cut}"))
        }
    };
    Ok(vec![MapInput {
        alias,
        source,
        scan,
        intermediate,
        nodes: nodes.to_vec(),
        rs_tags: BTreeMap::new(),
    }])
}

/// Plan nodes on paths `source → sink` (inclusive).
fn chain_nodes(g: &PlanGraph, source: usize, sink: usize) -> Vec<usize> {
    // Descendants of source.
    let mut desc = vec![false; g.nodes.len()];
    let mut stack = vec![source];
    while let Some(n) = stack.pop() {
        if desc[n] {
            continue;
        }
        desc[n] = true;
        if matches!(
            g.node(n).op,
            PlanOp::ReduceSink {
                degenerate: false,
                ..
            } | PlanOp::IntermediateCut
        ) && n != source
        {
            continue; // do not walk past boundaries
        }
        for &c in &g.node(n).children {
            stack.push(c);
        }
    }
    // Ancestors of sink.
    let mut anc = vec![false; g.nodes.len()];
    let mut stack = vec![sink];
    while let Some(n) = stack.pop() {
        if anc[n] {
            continue;
        }
        anc[n] = true;
        if n != source {
            for &p in &g.node(n).parents {
                if desc[p] {
                    stack.push(p);
                }
            }
        }
    }
    (0..g.nodes.len()).filter(|&n| desc[n] && anc[n]).collect()
}

// ---------------------------------------------------------------------------
// Exec-graph construction
// ---------------------------------------------------------------------------

/// Captured state for building map pipelines per task.
struct MapBuildSpec {
    nodes: Vec<PlanNode>,
    inputs: Vec<MapInput>,
    num_reducers: usize,
    vectorize: bool,
    vectorize_mapjoin: bool,
    batch_size: usize,
}

impl MapBuildSpec {
    fn build(&self, side: &HashMap<String, Vec<Row>>) -> Result<MapPipeline> {
        let mut graph = OperatorGraph::new();
        let mut roots = HashMap::new();
        let mut vector = HashMap::new();
        for mi in &self.inputs {
            // Vectorization applies to single-sink table-scan chains.
            let mut remaining: Vec<usize> = mi.nodes.clone();
            let mut chain: Option<vectorize::VectorizedChain> = None;
            // ACID scans vectorize like any other: the reader unselects
            // deleted ordinals from each batch before it enters the
            // pipeline, so the mask survives the batch-native path.
            if self.vectorize && mi.scan.is_some() && mi.rs_tags.len() <= 1 {
                let view = vectorize::MapInputView {
                    scan: mi.scan,
                    nodes: &mi.nodes,
                    rs_tags: &mi.rs_tags,
                };
                let opts = vectorize::VectorizeOpts {
                    batch_size: self.batch_size,
                    num_reducers: self.num_reducers.max(1),
                    mapjoin: self.vectorize_mapjoin,
                };
                if let Some(c) = vectorize::try_vectorize(&self.nodes, &view, side, &opts)? {
                    remaining.retain(|n| !c.consumed.contains(n));
                    chain = Some(c);
                }
            }

            // Add the batch-native chain first (display order: batches flow
            // scan → ... → sink/bridge), linearly connected.
            let mut stage: Option<hive_mapreduce::job::VectorStage> = None;
            let mut bridge: Option<(usize, std::collections::HashSet<usize>)> = None;
            if let Some(c) = chain {
                let ids: Vec<usize> = c.operators.into_iter().map(|op| graph.add(op)).collect();
                for w in ids.windows(2) {
                    graph.connect(w[0], w[1], None);
                }
                let (&root, &terminal) = (ids.first().unwrap(), ids.last().unwrap());
                stage = Some(hive_mapreduce::job::VectorStage {
                    batch_types: c.batch_types,
                    batch_size: self.batch_size,
                    root,
                    terminal,
                });
                if c.bridged {
                    bridge = Some((terminal, c.consumed));
                }
            }

            // Build exec ops for remaining nodes.
            let mut exec_of: HashMap<usize, usize> = HashMap::new();
            let order = topo(&self.nodes, &remaining);
            for &n in &order {
                if let Some(op) = self.make_map_op(n, side)? {
                    let id = graph.add(op);
                    exec_of.insert(n, id);
                }
            }
            // Edges.
            for &n in &order {
                let Some(&from) = exec_of.get(&n) else {
                    continue;
                };
                for &c in &self.nodes[n].children {
                    if let Some(&to) = exec_of.get(&c) {
                        graph.connect(from, to, None);
                    }
                }
            }

            if let Some((bridge_id, consumed)) = bridge {
                // The RowBridge's rows enter the row-mode graph at the
                // first non-consumed node downstream of the chain.
                let entry = remaining
                    .iter()
                    .copied()
                    .find(|&n| {
                        self.nodes[n]
                            .parents
                            .iter()
                            .any(|p| consumed.contains(p) || *p == mi.source)
                    })
                    .or_else(|| remaining.first().copied())
                    .ok_or_else(|| HiveError::Plan("bridged chain has no row entry".into()))?;
                let entry = *exec_of
                    .get(&entry)
                    .ok_or_else(|| HiveError::Plan("row entry not materialized".into()))?;
                graph.connect(bridge_id, entry, None);
            }

            if let Some(stage) = stage {
                vector.insert(mi.alias.clone(), stage);
                continue; // batches enter at stage.root; no row root
            }

            // Row-mode alias: scan's first exec child, or (for
            // intermediate inputs) the RS itself.
            let first = match mi.scan {
                Some(scan) => {
                    // First node whose parent is the scan.
                    order
                        .iter()
                        .copied()
                        .find(|&n| self.nodes[n].parents.contains(&scan))
                }
                None => Some(mi.source),
            };
            let first = first.ok_or_else(|| HiveError::Plan("map chain has no entry".into()))?;
            let root = *exec_of
                .get(&first)
                .ok_or_else(|| HiveError::Plan("entry not materialized".into()))?;
            // Shared scans need a fan-out point: if the scan has several
            // exec children, interpose a PassThrough.
            let root = if let Some(scan) = mi.scan {
                let heads: Vec<usize> = order
                    .iter()
                    .copied()
                    .filter(|&n| self.nodes[n].parents.contains(&scan))
                    .filter_map(|n| exec_of.get(&n).copied())
                    .collect();
                if heads.len() > 1 {
                    let tee = graph.add(Box::new(ops::PassThroughOperator));
                    for h in heads {
                        graph.connect(tee, h, None);
                    }
                    tee
                } else {
                    root
                }
            } else {
                root
            };
            roots.insert(mi.alias.clone(), root);
        }
        Ok(MapPipeline {
            graph,
            roots,
            vector,
        })
    }

    /// Translate one map-side plan node into an exec operator.
    fn make_map_op(
        &self,
        n: usize,
        side: &HashMap<String, Vec<Row>>,
    ) -> Result<Option<Box<dyn hive_exec::graph::Operator>>> {
        let node = &self.nodes[n];
        Ok(Some(match &node.op {
            PlanOp::TableScan { .. } => return Ok(None),
            PlanOp::Filter { predicate } => Box::new(ops::FilterOperator {
                predicate: predicate.clone(),
            }),
            PlanOp::Select { exprs } => Box::new(ops::SelectOperator {
                exprs: exprs.clone(),
            }),
            PlanOp::Limit(k) => Box::new(ops::LimitOperator::new(*k)),
            PlanOp::GroupBy {
                phase: GroupByPhase::MapHash,
                keys,
                aggs,
            } => Box::new(ops::GroupByOperator::new(
                keys.clone(),
                aggs.iter()
                    .map(|a| ops::AggSpec {
                        function: a.function,
                        mode: AggMode::Partial,
                        arg: a.arg.clone(),
                    })
                    .collect(),
                ops::GroupByMode::Hash,
            )),
            PlanOp::MapJoin { sides } => {
                let mut tables = Vec::with_capacity(sides.len());
                for s in sides {
                    let rows = side.get(&s.alias).ok_or_else(|| {
                        HiveError::Execution(format!("side input `{}` missing", s.alias))
                    })?;
                    // Apply the build filter and prepend key columns so the
                    // stored row layout is keys ++ columns.
                    let mut built = Vec::with_capacity(rows.len());
                    for r in rows {
                        if let Some(f) = &s.build_filter {
                            if !f.eval_predicate(r)? {
                                continue;
                            }
                        }
                        let mut vals: Vec<Value> = Vec::with_capacity(s.width);
                        for k in &s.build_keys {
                            vals.push(k.eval(r)?);
                        }
                        vals.extend(r.values().iter().cloned());
                        built.push(Row::new(vals));
                    }
                    // Hash on the prepended key columns.
                    let nk = s.build_keys.len();
                    let hash_keys: Vec<ExprNode> = (0..nk).map(ExprNode::col).collect();
                    tables.push(ops::MapJoinTable::build(
                        &built,
                        &hash_keys,
                        s.stream_keys.clone(),
                        s.join_type,
                        s.width,
                    )?);
                }
                Box::new(ops::MapJoinOperator { tables })
            }
            PlanOp::ReduceSink {
                keys,
                values,
                degenerate,
                ..
            } => {
                if *degenerate {
                    let mut exprs = keys.clone();
                    exprs.extend(values.iter().cloned());
                    Box::new(ops::SelectOperator { exprs })
                } else {
                    let tag = self
                        .inputs
                        .iter()
                        .find_map(|mi| mi.rs_tags.get(&n))
                        .copied()
                        .unwrap_or(0);
                    Box::new(ops::ReduceSinkOperator {
                        key_exprs: keys.clone(),
                        value_exprs: values.clone(),
                        tag,
                        num_reducers: self.num_reducers.max(1),
                    })
                }
            }
            PlanOp::FileSink | PlanOp::IntermediateCut => Box::new(ops::FileSinkOperator),
            PlanOp::GroupBy { .. } | PlanOp::Join { .. } => {
                return Err(HiveError::Plan(format!(
                    "{} cannot run in a Map phase",
                    node.op.kind_name()
                )))
            }
        }))
    }
}

/// Captured state for building reduce pipelines per task.
struct ReduceBuildSpec {
    nodes: Vec<PlanNode>,
    fragment: Vec<usize>,
    feeding_rs: Vec<usize>,
}

impl ReduceBuildSpec {
    fn build(&self) -> Result<(OperatorGraph, usize)> {
        let mut graph = OperatorGraph::new();
        let mut exec_of: HashMap<usize, usize> = HashMap::new();
        let order = topo(&self.nodes, &self.fragment);

        // 1. Operators.
        for &n in &order {
            let node = &self.nodes[n];
            let op: Box<dyn hive_exec::graph::Operator> = match &node.op {
                PlanOp::Filter { predicate } => Box::new(ops::FilterOperator {
                    predicate: predicate.clone(),
                }),
                PlanOp::Select { exprs } => Box::new(ops::SelectOperator {
                    exprs: exprs.clone(),
                }),
                PlanOp::Limit(k) => Box::new(ops::LimitOperator::new(*k)),
                PlanOp::GroupBy { phase, keys, aggs } => {
                    let mode = match phase {
                        GroupByPhase::ReduceMerge => AggMode::Final,
                        GroupByPhase::ReduceComplete => AggMode::Complete,
                        GroupByPhase::MapHash => {
                            return Err(HiveError::Plan(
                                "map-side GroupBy in a Reduce phase".into(),
                            ))
                        }
                    };
                    Box::new(ops::GroupByOperator::new(
                        keys.clone(),
                        aggs.iter()
                            .map(|a| ops::AggSpec {
                                function: a.function,
                                mode,
                                arg: a.arg.clone(),
                            })
                            .collect(),
                        ops::GroupByMode::Streaming,
                    ))
                }
                PlanOp::Join { kind, input_widths } => Box::new(ops::CommonJoinOperator::new(
                    input_widths.len(),
                    *kind,
                    input_widths.clone(),
                )),
                // A degenerate RS executes as a projection in place.
                PlanOp::ReduceSink {
                    keys,
                    values,
                    degenerate: true,
                    ..
                } => {
                    let mut exprs = keys.clone();
                    exprs.extend(values.iter().cloned());
                    Box::new(ops::SelectOperator { exprs })
                }
                // Sinks: FileSink collects; a sink RS or Cut writes the
                // job's intermediate output.
                PlanOp::FileSink | PlanOp::ReduceSink { .. } | PlanOp::IntermediateCut => {
                    Box::new(ops::FileSinkOperator)
                }
                PlanOp::TableScan { .. } | PlanOp::MapJoin { .. } => {
                    return Err(HiveError::Plan(format!(
                        "{} cannot run in a Reduce phase",
                        node.op.kind_name()
                    )))
                }
            };
            exec_of.insert(n, graph.add(op));
        }

        // 2. A Mux in front of every major operator (paper Figure 5).
        let mut mux_of: HashMap<usize, usize> = HashMap::new();
        for &n in &order {
            if self.nodes[n].op.is_major() {
                // Parent count = chain parents inside the fragment + feeding
                // RS routes.
                let n_parents = self.nodes[n].parents.len().max(1);
                let mux = graph.add(Box::new(ops::MuxOperator::new(n_parents, None)));
                mux_of.insert(n, mux);
                graph.connect(mux, exec_of[&n], None);
            }
        }

        // 3. Demux entry: compute routes and targets first, then add the
        //    operator and its edges (Figure 5's tag remapping).
        let mut routes = Vec::new();
        let mut targets = Vec::new();
        for &rs in &self.feeding_rs {
            let consumer = *self.nodes[rs]
                .children
                .first()
                .ok_or_else(|| HiveError::Plan("feeding ReduceSink has no consumer".into()))?;
            let old_tag = self.nodes[consumer]
                .parents
                .iter()
                .position(|&p| p == rs)
                .unwrap_or(0);
            let target = mux_of
                .get(&consumer)
                .copied()
                .or_else(|| exec_of.get(&consumer).copied())
                .ok_or_else(|| HiveError::Plan("feeding RS consumer not in fragment".into()))?;
            routes.push((routes.len(), old_tag));
            targets.push(target);
        }
        let demux = graph.add(Box::new(ops::DemuxOperator { routes }));
        for t in targets {
            graph.connect(demux, t, None);
        }

        // 4. Chain edges within the fragment (into Muxes where needed).
        for &n in &order {
            for &c in &self.nodes[n].children {
                if !self.fragment.contains(&c) {
                    continue;
                }
                let from = exec_of[&n];
                match mux_of.get(&c) {
                    Some(&mux) => {
                        let slot = self.nodes[c]
                            .parents
                            .iter()
                            .position(|&p| p == n)
                            .unwrap_or(0);
                        graph.connect(from, mux, Some(slot));
                    }
                    None => {
                        graph.connect(from, exec_of[&c], None);
                    }
                }
            }
        }

        Ok((graph, demux))
    }
}

/// Topological order of `subset` by plan edges.
fn topo(nodes: &[PlanNode], subset: &[usize]) -> Vec<usize> {
    let inset: std::collections::HashSet<usize> = subset.iter().copied().collect();
    let mut indeg: HashMap<usize, usize> = subset.iter().map(|&n| (n, 0)).collect();
    for &n in subset {
        for &c in &nodes[n].children {
            if inset.contains(&c) {
                *indeg.get_mut(&c).unwrap() += 1;
            }
        }
    }
    let mut queue: Vec<usize> = subset.iter().copied().filter(|n| indeg[n] == 0).collect();
    queue.sort_unstable();
    let mut out = Vec::new();
    while let Some(n) = queue.pop() {
        out.push(n);
        for &c in &nodes[n].children {
            if let Some(d) = indeg.get_mut(&c) {
                *d -= 1;
                if *d == 0 {
                    queue.push(c);
                }
            }
        }
        queue.sort_unstable();
    }
    out
}
