//! Bridge from parser routing decisions to the HPC simulator.
//!
//! Figure 5 of the paper reports the throughput of each parser — and of
//! AdaParse — from 1 to 128 Polaris nodes. This module turns a document
//! workload into `hpcsim` tasks (one per document, with stage-in bytes,
//! compute seconds from the parser cost model, and model-load cold-start
//! costs) and runs the Parsl-like executor over an arbitrary node count.

use hpcsim::{ClusterConfig, ExecutorConfig, GroupRole, LustreModel, SlotKind, Task, WorkflowExecutor};
use parsersim::cost::CostModel;
use parsersim::ParserKind;
use serde::{Deserialize, Serialize};

use parsersim::ParserFrontier;

use crate::cascade::ParserChoice;
use crate::config::AdaParseConfig;
use crate::engine::RoutedDocument;
use crate::scaling::{NodePlan, Stage};

/// A lightweight description of a document workload for scaling studies.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WorkloadSpec {
    /// Number of documents.
    pub documents: usize,
    /// Average pages per document.
    pub pages_per_doc: usize,
    /// Average input size per document in MiB.
    pub mb_per_doc: f64,
}

impl Default for WorkloadSpec {
    fn default() -> Self {
        WorkloadSpec { documents: 10_000, pages_per_doc: 10, mb_per_doc: 1.5 }
    }
}

/// Build one task per document for a single fixed parser.
pub fn tasks_for_parser(kind: ParserKind, workload: &WorkloadSpec) -> Vec<Task> {
    let model = CostModel::for_parser(kind);
    let cost = model.document_cost(workload.pages_per_doc, 0.3);
    let slot = if kind.requires_gpu() { SlotKind::Gpu } else { SlotKind::Cpu };
    let compute = if kind.requires_gpu() { cost.gpu_seconds } else { cost.cpu_seconds };
    (0..workload.documents)
        .map(|i| {
            Task::new(i as u64, slot, compute)
                .with_input_mb(workload.mb_per_doc)
                .with_input_files(1)
                .with_cold_start(model.model_load_seconds)
                .with_label(kind.name())
        })
        .collect()
}

/// Compute seconds of the split and join bookkeeping tasks of a per-page
/// delegation DAG: cheap CPU work (page-range bookkeeping and text
/// stitching), deliberately non-zero so the DAG's ordering is visible in
/// schedules.
const SPLIT_JOIN_SECONDS: f64 = 0.05;

/// Build the page-level task DAG of a cascade campaign with node-affinity
/// placement. Per document:
///
/// * an **extract** task (base parser, CPU) — every document pays it;
/// * for a whole-document upgrade, one **parse** task depending on the
///   extract, exactly like [`build_routing_tasks`] with a plan;
/// * for a per-page delegation
///   ([`ParserChoice::upgraded_pages`] non-empty), a **split** task
///   depending on the extract, one **page** task per delegated page (each
///   [`hpcsim::Task::depends_on`] the split, costed at the upgrade parser's
///   single-page rate), and a **join** task depending on *every* page task
///   — the join can never complete before the last of its page children,
///   which the cascade equivalence suite asserts against executor
///   schedules.
///
/// All of a document's parse-side tasks (split, pages, join, or the single
/// whole-document parse) share the document's [`hpcsim::TaskGroup`] with
/// [`GroupRole::Parse`], so pair co-scheduling anchors the whole subgraph —
/// and the stitching join — next to its extract partner. Task ids are
/// stride-based (`doc_id * stride + offset`), deterministic, and collision
/// free for any delegation pattern in the batch.
pub fn tasks_for_cascade_with_affinity(
    frontier: &ParserFrontier,
    choices: &[ParserChoice],
    workload: &WorkloadSpec,
    plan: &NodePlan,
) -> Vec<Task> {
    let base_model = CostModel::for_parser(frontier.base());
    let base_cost = base_model.document_cost(workload.pages_per_doc, 0.3);
    let max_pages = choices.iter().map(|c| c.upgraded_pages.len()).max().unwrap_or(0);
    // extract + split + pages + join, with room for the whole-doc parse.
    let stride = (max_pages as u64) + 4;
    let page_mb = workload.mb_per_doc / (workload.pages_per_doc.max(1) as f64);

    let mut tasks = Vec::new();
    let mut parse_index = 0usize;
    for (extract_index, choice) in choices.iter().enumerate() {
        let base_id = choice.doc_id * stride;
        let extraction = Task::new(base_id, SlotKind::Cpu, base_cost.cpu_seconds)
            .with_input_mb(workload.mb_per_doc)
            .with_label(frontier.base().name())
            .with_preferred_node(plan.preferred_node(Stage::Extract, extract_index))
            .with_group(choice.doc_id, GroupRole::Extract);
        tasks.push(extraction);
        if !choice.is_upgraded() {
            continue;
        }
        let parser = choice.parser;
        let model = CostModel::for_parser(parser);
        let slot = if parser.requires_gpu() { SlotKind::Gpu } else { SlotKind::Cpu };
        let node = plan.preferred_node(Stage::Parse, parse_index);
        parse_index += 1;
        let parse_side =
            |task: Task| task.with_preferred_node(node).with_group(choice.doc_id, GroupRole::Parse);
        if choice.upgraded_pages.is_empty() {
            // Whole-document upgrade: the classic single parse task.
            let cost = model.document_cost(workload.pages_per_doc, 0.3);
            let compute = if parser.requires_gpu() { cost.gpu_seconds } else { cost.cpu_seconds };
            let parse = Task::new(base_id + 1, slot, compute)
                .with_input_mb(workload.mb_per_doc)
                .with_cold_start(model.model_load_seconds)
                .with_label(parser.name())
                .with_dependency(base_id);
            tasks.push(parse_side(parse));
            continue;
        }
        // Per-page delegation: split → page tasks → join.
        let split = Task::new(base_id + 1, SlotKind::Cpu, SPLIT_JOIN_SECONDS)
            .with_label("page-split")
            .with_dependency(base_id);
        tasks.push(parse_side(split));
        let page_cost = model.document_cost(1, 0.3);
        let page_compute = if parser.requires_gpu() { page_cost.gpu_seconds } else { page_cost.cpu_seconds };
        let join_id = base_id + 2 + choice.upgraded_pages.len() as u64;
        let mut join = Task::new(join_id, SlotKind::Cpu, SPLIT_JOIN_SECONDS).with_label("page-join");
        for (offset, _page) in choice.upgraded_pages.iter().enumerate() {
            let page_id = base_id + 2 + offset as u64;
            let page_task = Task::new(page_id, slot, page_compute)
                .with_input_mb(page_mb)
                .with_cold_start(model.model_load_seconds)
                .with_label(parser.name())
                .with_dependency(base_id + 1);
            tasks.push(parse_side(page_task));
            join = join.with_dependency(page_id);
        }
        tasks.push(parse_side(join));
    }
    tasks
}

/// Build the tasks of an AdaParse campaign from explicit routing decisions:
/// every document gets an extraction task and the documents routed to the
/// high-quality parser get a parse task on top (a GPU task when that parser
/// needs one).
///
/// With a [`NodePlan`] the tasks are placed *with node affinity*: extraction
/// tasks are staged round-robin across the plan's extraction fleet,
/// high-quality parse tasks across its parse fleet, and every task carries
/// its staging node so the executor's data-locality model applies. The
/// extract and parse tasks of the same document additionally share a
/// [`hpcsim::TaskGroup`], so the executor's pair co-scheduling can reunite
/// them on one node (the parse half's real input is the extract half's
/// output), *and* each parse task carries a [`hpcsim::Task::depends_on`] edge
/// to its extract partner, so the dependency-aware engine never starts a
/// document's parse before its extraction has finished. This is how the
/// [`crate::scaling::ScalingController`]'s node-level decisions reach the
/// simulator. Without a plan the tasks are placement-indifferent *and*
/// order-free (the legacy throughput-model construction, kept
/// dependency-free so fixed-α scaling sweeps stay comparable with the seed's
/// Figure 5 numbers). One code path, so the affinity and non-affinity
/// simulations always stay comparable.
///
/// Every placed task joins its document's group even when the document
/// routes cheap and the group stays a singleton: the group role is what
/// attributes the task to a stage in the executor's `StageTimings` (which
/// the closed loop divides across *all* documents of a wave), and a
/// singleton anchors trivially — its lone member never counts as a
/// co-located or split pair.
///
/// `parse_fraction` scales the high-quality parse compute — the task-level
/// model of per-page delegation, where only a document's delegated page
/// fraction runs on the upgrade parser (the serve layer passes each tenant's
/// planned delegation fraction). `1.0` is a **bitwise no-op**
/// (`x * 1.0 == x`), which is what whole-document callers pass.
///
/// # Example
///
/// ```
/// use adaparse::{build_routing_tasks, AdaParseConfig, NodePlan, RoutedDocument, WorkloadSpec};
/// use hpcsim::{ClusterConfig, ExecutorConfig, LustreModel, WorkflowExecutor};
///
/// let config = AdaParseConfig::default();
/// // Two documents: the first routed to the high-quality parser.
/// let routed: Vec<RoutedDocument> = (0..2)
///     .map(|i| RoutedDocument {
///         doc_id: i,
///         parser: if i == 0 { config.high_quality_parser } else { config.default_parser },
///         predicted_improvement: 0.5,
///         cls1_invalid: false,
///     })
///     .collect();
/// let workload = WorkloadSpec { documents: 2, pages_per_doc: 5, mb_per_doc: 1.0 };
/// let plan = NodePlan { extract_nodes: 1, parse_nodes: 1 };
///
/// let tasks = build_routing_tasks(&config, &routed, &workload, Some(&plan), 1.0);
/// assert_eq!(tasks.len(), 3); // two extractions + one high-quality parse
/// assert!(tasks.iter().all(|t| t.preferred_node.is_some() && t.group.is_some()));
/// // The parse task (odd id) depends on its extract partner (its id - 1).
/// let parse = tasks.iter().find(|t| t.id % 2 == 1).unwrap();
/// assert_eq!(parse.depends_on.as_slice(), &[parse.id - 1]);
///
/// // The tasks run as-is on a cluster shaped like the plan.
/// let report = WorkflowExecutor::new(ExecutorConfig::default())
///     .run(&tasks, &ClusterConfig::polaris(plan.total()), &LustreModel::default());
/// assert_eq!(report.tasks_completed, 3);
/// assert_eq!(report.co_located_pairs, 1); // the pair reunited on one node
/// ```
pub fn build_routing_tasks(
    config: &AdaParseConfig,
    routed: &[RoutedDocument],
    workload: &WorkloadSpec,
    plan: Option<&NodePlan>,
    parse_fraction: f64,
) -> Vec<Task> {
    let cheap_model = CostModel::for_parser(config.default_parser);
    let expensive_model = CostModel::for_parser(config.high_quality_parser);
    let cheap = cheap_model.document_cost(workload.pages_per_doc, 0.3);
    let expensive = expensive_model.document_cost(workload.pages_per_doc, 0.3);
    let place = |task: Task, stage: Stage, index: usize, doc_id: u64| match plan {
        Some(plan) => {
            let role = match stage {
                Stage::Extract => GroupRole::Extract,
                Stage::Parse => GroupRole::Parse,
            };
            task.with_preferred_node(plan.preferred_node(stage, index)).with_group(doc_id, role)
        }
        None => task,
    };
    let mut tasks = Vec::with_capacity(routed.len() * 2);
    let mut parse_index = 0usize;
    for (extract_index, decision) in routed.iter().enumerate() {
        let extraction = Task::new(decision.doc_id * 2, SlotKind::Cpu, cheap.cpu_seconds)
            .with_input_mb(workload.mb_per_doc)
            .with_label(config.default_parser.name());
        tasks.push(place(extraction, Stage::Extract, extract_index, decision.doc_id));
        if decision.parser == config.high_quality_parser {
            let slot = if config.high_quality_parser.requires_gpu() { SlotKind::Gpu } else { SlotKind::Cpu };
            let compute = if config.high_quality_parser.requires_gpu() {
                expensive.gpu_seconds
            } else {
                expensive.cpu_seconds
            } * parse_fraction;
            let mut parse = Task::new(decision.doc_id * 2 + 1, slot, compute)
                .with_input_mb(workload.mb_per_doc)
                .with_cold_start(expensive_model.model_load_seconds)
                .with_label(config.high_quality_parser.name());
            if plan.is_some() {
                // A document's parse consumes its extraction's output: the
                // dependency-aware engine must not start it earlier.
                parse = parse.with_dependency(decision.doc_id * 2);
            }
            tasks.push(place(parse, Stage::Parse, parse_index, decision.doc_id));
            parse_index += 1;
        }
    }
    tasks
}

/// Build tasks for an AdaParse campaign by *assuming* an α-fraction goes to
/// the high-quality parser (used for large synthetic scaling sweeps where
/// running the router per document would be wasteful).
pub fn tasks_for_alpha(config: &AdaParseConfig, workload: &WorkloadSpec) -> Vec<Task> {
    let quota = ((workload.documents as f64) * config.alpha.clamp(0.0, 1.0)).floor() as usize;
    let routed: Vec<RoutedDocument> = (0..workload.documents)
        .map(|i| RoutedDocument {
            doc_id: i as u64,
            parser: if i < quota { config.high_quality_parser } else { config.default_parser },
            predicted_improvement: 0.0,
            cls1_invalid: false,
        })
        .collect();
    build_routing_tasks(config, &routed, workload, None, 1.0)
}

/// Throughput (documents per second) of one parser at a given node count.
pub fn parser_throughput_at_scale(
    kind: ParserKind,
    workload: &WorkloadSpec,
    nodes: usize,
    executor: &ExecutorConfig,
) -> f64 {
    let tasks = tasks_for_parser(kind, workload);
    let report =
        WorkflowExecutor::new(*executor).run(&tasks, &ClusterConfig::polaris(nodes), &LustreModel::default());
    // One task per document for fixed parsers.
    report.throughput_per_second
}

/// Throughput (documents per second) of an AdaParse configuration at a given
/// node count, using the α-quota task construction.
pub fn adaparse_throughput_at_scale(
    config: &AdaParseConfig,
    workload: &WorkloadSpec,
    nodes: usize,
    executor: &ExecutorConfig,
) -> f64 {
    let tasks = tasks_for_alpha(config, workload);
    let report =
        WorkflowExecutor::new(*executor).run(&tasks, &ClusterConfig::polaris(nodes), &LustreModel::default());
    if report.makespan_seconds > 0.0 {
        workload.documents as f64 / report.makespan_seconds
    } else {
        0.0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_workload() -> WorkloadSpec {
        WorkloadSpec { documents: 400, pages_per_doc: 10, mb_per_doc: 1.5 }
    }

    #[test]
    fn fixed_parser_tasks_have_the_right_slot_kind() {
        let w = small_workload();
        let nougat = tasks_for_parser(ParserKind::Nougat, &w);
        assert_eq!(nougat.len(), w.documents);
        assert!(nougat.iter().all(|t| t.slot == SlotKind::Gpu));
        assert!(nougat[0].cold_start_seconds > 10.0);
        let pymupdf = tasks_for_parser(ParserKind::PyMuPdf, &w);
        assert!(pymupdf.iter().all(|t| t.slot == SlotKind::Cpu));
        assert!(pymupdf[0].compute_seconds < nougat[0].compute_seconds);
    }

    #[test]
    fn alpha_quota_controls_the_number_of_gpu_tasks() {
        let w = small_workload();
        let config = AdaParseConfig { alpha: 0.05, ..Default::default() };
        let tasks = tasks_for_alpha(&config, &w);
        let gpu_tasks = tasks.iter().filter(|t| t.slot == SlotKind::Gpu).count();
        assert_eq!(gpu_tasks, 20);
        assert_eq!(tasks.len(), w.documents + gpu_tasks);
    }

    #[test]
    fn scaling_order_matches_figure_5() {
        let w = small_workload();
        let executor = ExecutorConfig::default();
        let nodes = 4;
        let pymupdf = parser_throughput_at_scale(ParserKind::PyMuPdf, &w, nodes, &executor);
        let nougat = parser_throughput_at_scale(ParserKind::Nougat, &w, nodes, &executor);
        let marker = parser_throughput_at_scale(ParserKind::Marker, &w, nodes, &executor);
        let adaparse = adaparse_throughput_at_scale(
            &AdaParseConfig { alpha: 0.05, ..Default::default() },
            &w,
            nodes,
            &executor,
        );
        assert!(pymupdf > adaparse, "extraction is fastest: {pymupdf} vs {adaparse}");
        assert!(adaparse > nougat, "AdaParse beats Nougat: {adaparse} vs {nougat}");
        assert!(nougat > marker, "Nougat beats Marker: {nougat} vs {marker}");
        // AdaParse improves on Nougat by a large factor (the paper reports 17×).
        assert!(adaparse / nougat > 4.0, "ratio = {}", adaparse / nougat);
    }

    #[test]
    fn affinity_tasks_carry_plan_nodes_and_stay_local_on_matching_clusters() {
        // Small enough that no fleet queues (spilling off-node is *allowed*
        // once queueing beats the penalty; with free slots it never is).
        let w = WorkloadSpec { documents: 60, pages_per_doc: 10, mb_per_doc: 1.5 };
        let config = AdaParseConfig { alpha: 0.05, ..Default::default() };
        let quota = ((w.documents as f64) * config.alpha).floor() as usize;
        let routed: Vec<RoutedDocument> = (0..w.documents)
            .map(|i| RoutedDocument {
                doc_id: i as u64,
                parser: if i < quota { config.high_quality_parser } else { config.default_parser },
                predicted_improvement: 0.0,
                cls1_invalid: false,
            })
            .collect();
        let plan = NodePlan { extract_nodes: 3, parse_nodes: 1 };
        let tasks = build_routing_tasks(&config, &routed, &w, Some(&plan), 1.0);
        assert_eq!(tasks.len(), w.documents + quota);
        // Extraction tasks cycle over nodes 0..3, parse tasks pin to node 3;
        // parse tasks depend on their extract partner, extractions on
        // nothing.
        for task in &tasks {
            let node = task.preferred_node.expect("every task carries its staging node");
            match task.slot {
                SlotKind::Cpu => assert!(node < 3),
                SlotKind::Gpu => assert_eq!(node, 3),
            }
            if task.id % 2 == 1 {
                assert_eq!(task.depends_on.as_slice(), &[task.id - 1]);
            } else {
                assert!(task.depends_on.as_slice().is_empty());
            }
        }
        // The plain (plan-free) construction stays order-free: it is the
        // legacy throughput model the fixed-α scaling sweeps are built on.
        let plain = build_routing_tasks(&config, &routed, &w, None, 1.0);
        assert!(plain.iter().all(|t| t.depends_on.as_slice().is_empty()));
        // On a cluster shaped like the plan, scheduling honors the affinity.
        let report = WorkflowExecutor::new(ExecutorConfig::default()).run(
            &tasks,
            &ClusterConfig::polaris(plan.total()),
            &LustreModel::default(),
        );
        assert_eq!(report.tasks_completed, tasks.len());
        assert_eq!(report.non_local_tasks, 0, "a matching cluster never pays the locality penalty");
    }

    #[test]
    fn more_nodes_increase_adaparse_throughput() {
        let w = small_workload();
        let config = AdaParseConfig { alpha: 0.05, ..Default::default() };
        let executor = ExecutorConfig::default();
        let one = adaparse_throughput_at_scale(&config, &w, 1, &executor);
        let four = adaparse_throughput_at_scale(&config, &w, 4, &executor);
        assert!(four > one, "{four} vs {one}");
    }
}
