//! Bridge from parser routing decisions to the HPC simulator.
//!
//! Figure 5 of the paper reports the throughput of each parser — and of
//! AdaParse — from 1 to 128 Polaris nodes. This module turns routing
//! decisions into `hpcsim` tasks. [`tasks_for_choices`] is the one builder
//! of routed work: the closed loop ([`crate::run_closed_loop`], which is how
//! Figure 5 runs AdaParse), serve and the cascade all use it.
//! [`tasks_for_parser`] is the fixed-parser baseline, with no extract stage,
//! and [`parser_throughput_at_scale`] runs it on the Parsl-like executor.

use hpcsim::{ClusterConfig, ExecutorConfig, GroupRole, LustreModel, SlotKind, Task, WorkflowExecutor};
use parsersim::cost::{CostModel, ResourceCost, PLANNING_DIFFICULTY};
use parsersim::{ParserFrontier, ParserKind};
use std::ops::Range;

use crate::cascade::ParserChoice;
use crate::scaling::{NodePlan, Stage};

/// A lightweight description of a document workload for scaling studies.
#[derive(Debug, Clone, Copy, PartialEq)]
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
    let cost = model.document_cost(workload.pages_per_doc, PLANNING_DIFFICULTY);
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

/// Compute seconds of the split and join bookkeeping tasks of a partly
/// upgraded document's split → page → join DAG: cheap CPU work (page-range bookkeeping and text
/// stitching), deliberately non-zero so the DAG's ordering is visible in
/// schedules.
const SPLIT_JOIN_SECONDS: f64 = 0.05;

/// Task-id stride of a batch whose longest
/// [`ParserChoice::upgraded_pages`] holds `max_upgraded_pages` pages. Document `d` owns the ids
/// from `d * stride`: its extract at offset 0, its parse or page split at 1,
/// then its pages and join. A batch of whole-document choices strides by 2.
pub fn task_id_stride(max_upgraded_pages: usize) -> u64 {
    match max_upgraded_pages {
        0 => 2,
        pages => pages as u64 + 4,
    }
}

/// Build the tasks of routing decisions — the one place extract, parse,
/// split, page and join tasks are made. Every document gets an **extract**
/// task (`base` parser, CPU). A granted whole-document upgrade adds one
/// **parse** task on the chosen parser (GPU when it needs one), its compute
/// scaled by `parse_fraction` (`1.0` is a bitwise no-op). A partial
/// upgrade ([`ParserChoice::upgraded_pages`]) adds a **split**, a **page**
/// task per granted page at the single-page rate, and a **join**. No grant, no parse-side task. Ids follow [`task_id_stride`].
///
/// Extracts round-robin over the `plan`'s extraction fleet and each
/// upgraded document's parse side sits on one parse-fleet node. A
/// document's tasks share its [`hpcsim::TaskGroup`] (pair co-scheduling;
/// stage attribution in `StageTimings`) and each depends on its input: the
/// parse or split on the extract, pages on the split, the join on every
/// page.
///
/// # Panics
///
/// Panics unless `workload.mb_per_doc` is finite and non-negative: every
/// task is built here, and a NaN or negative size would stage nothing.
///
/// # Example
///
/// ```
/// use adaparse::{tasks_for_choices, NodePlan, ParserChoice, WorkloadSpec};
/// use hpcsim::{ClusterConfig, ExecutorConfig, LustreModel, WorkflowExecutor};
/// use parsersim::{ParserFrontier, ParserKind};
///
/// // Two documents: the first granted the high-quality parser.
/// let frontier = ParserFrontier::pair(ParserKind::PyMuPdf, ParserKind::Nougat);
/// let resolve = |doc_id, granted| ParserChoice::resolve(&frontier, doc_id, granted, 0.4, false);
/// let choices = [resolve(0, Some(0)), resolve(1, None)];
/// let workload = WorkloadSpec { documents: 2, pages_per_doc: 5, mb_per_doc: 1.0 };
/// let plan = NodePlan { extract_nodes: 1, parse_nodes: 1 };
///
/// let tasks = tasks_for_choices(ParserKind::PyMuPdf, &choices, &workload, &plan, 1.0);
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
pub fn tasks_for_choices(
    base: ParserKind,
    choices: &[ParserChoice],
    workload: &WorkloadSpec,
    plan: &NodePlan,
    parse_fraction: f64,
) -> Vec<Task> {
    let mb = workload.mb_per_doc;
    assert!(mb.is_finite() && mb >= 0.0, "stage-in size must be finite and non-negative, got {mb} MiB");
    let base_cost = CostModel::for_parser(base).document_cost(workload.pages_per_doc, PLANNING_DIFFICULTY);
    let stride = task_id_stride(choices.iter().map(|c| c.upgraded_pages.len()).max().unwrap_or(0));
    let page_mb = mb / (workload.pages_per_doc.max(1) as f64);
    let mut tasks = Vec::with_capacity(choices.len() * 2);
    let mut parse_index = 0usize;
    for (extract_index, choice) in choices.iter().enumerate() {
        let id = choice.doc_id * stride;
        // A task gets its staging node, the document's group and an edge
        // from each id in `inputs`.
        let place = |task: Task, stage: Stage, index: usize, inputs: Range<u64>| {
            let role = if stage == Stage::Extract { GroupRole::Extract } else { GroupRole::Parse };
            let task = task.with_preferred_node(plan.preferred_node(stage, index));
            inputs.fold(task.with_group(choice.doc_id, role), Task::with_dependency)
        };
        let extract =
            Task::new(id, SlotKind::Cpu, base_cost.cpu_seconds).with_input_mb(mb).with_label(base.name());
        tasks.push(place(extract, Stage::Extract, extract_index, id..id));
        if !choice.is_upgraded() {
            continue;
        }
        let (parser, model) = (choice.parser, CostModel::for_parser(choice.parser));
        let on_gpu = parser.requires_gpu();
        let slot = if on_gpu { SlotKind::Gpu } else { SlotKind::Cpu };
        let compute = |cost: ResourceCost| if on_gpu { cost.gpu_seconds } else { cost.cpu_seconds };
        let node = parse_index;
        parse_index += 1;
        let pages = choice.upgraded_pages.len() as u64;
        if pages == 0 {
            let cost = model.document_cost(workload.pages_per_doc, PLANNING_DIFFICULTY);
            let parse = Task::new(id + 1, slot, compute(cost) * parse_fraction)
                .with_input_mb(mb)
                .with_cold_start(model.model_load_seconds)
                .with_label(parser.name());
            tasks.push(place(parse, Stage::Parse, node, id..id + 1));
            continue;
        }
        let split = Task::new(id + 1, SlotKind::Cpu, SPLIT_JOIN_SECONDS).with_label("page-split");
        tasks.push(place(split, Stage::Parse, node, id..id + 1));
        let page_compute = compute(model.document_cost(1, PLANNING_DIFFICULTY));
        for page_id in id + 2..id + 2 + pages {
            let page = Task::new(page_id, slot, page_compute)
                .with_input_mb(page_mb)
                .with_cold_start(model.model_load_seconds)
                .with_label(parser.name());
            tasks.push(place(page, Stage::Parse, node, id + 1..id + 2));
        }
        let join = Task::new(id + 2 + pages, SlotKind::Cpu, SPLIT_JOIN_SECONDS).with_label("page-join");
        tasks.push(place(join, Stage::Parse, node, id + 2..id + 2 + pages));
    }
    tasks
}

/// The page-level task DAG of a cascade campaign placed under `plan`:
/// [`tasks_for_choices`] over the frontier's base at full parse fraction.
pub fn tasks_for_cascade_with_affinity(
    frontier: &ParserFrontier,
    choices: &[ParserChoice],
    workload: &WorkloadSpec,
    plan: &NodePlan,
) -> Vec<Task> {
    tasks_for_choices(frontier.base(), choices, workload, plan, 1.0)
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::AdaParseConfig;
    use crate::scaling::simloop::{run_closed_loop, SimLoopConfig};
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn small_workload() -> WorkloadSpec {
        WorkloadSpec { documents: 400, pages_per_doc: 10, mb_per_doc: 1.5 }
    }

    /// AdaParse at α = 0.05 through the closed loop: the report and
    /// documents per simulated second.
    fn adaparse_at(workload: &WorkloadSpec, sim: &SimLoopConfig) -> (crate::SimLoopReport, f64) {
        let mut rng = StdRng::seed_from_u64(5);
        let scores: Vec<f64> = (0..workload.documents).map(|_| rng.gen_range(0.0..1.0)).collect();
        let config = AdaParseConfig { alpha: 0.05, ..Default::default() };
        let report = run_closed_loop(&config, &scores, workload, sim);
        let rate = workload.documents as f64 / report.makespan_seconds;
        (report, rate)
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
        let (report, _) = adaparse_at(&w, &SimLoopConfig { window: w.documents, ..Default::default() });
        assert_eq!(report.selected, 20);
        assert_eq!(report.executor_report.tasks_completed, w.documents + 20);
    }

    #[test]
    #[should_panic(expected = "alpha must be a number")]
    fn a_nan_alpha_builds_no_workload() {
        let config = AdaParseConfig { alpha: f64::NAN, ..Default::default() };
        run_closed_loop(&config, &[0.5; 4], &small_workload(), &SimLoopConfig::default());
    }

    #[test]
    fn scaling_order_matches_figure_5() {
        let w = small_workload();
        let executor = ExecutorConfig::default();
        let nodes = 4;
        let pymupdf = parser_throughput_at_scale(ParserKind::PyMuPdf, &w, nodes, &executor);
        let nougat = parser_throughput_at_scale(ParserKind::Nougat, &w, nodes, &executor);
        let marker = parser_throughput_at_scale(ParserKind::Marker, &w, nodes, &executor);
        let (_, adaparse) = adaparse_at(&w, &SimLoopConfig { nodes, executor, ..Default::default() });
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
        let config = AdaParseConfig::default();
        let frontier = ParserFrontier::pair(config.default_parser, config.high_quality_parser);
        let quota = 3;
        let choices: Vec<ParserChoice> = (0..w.documents as u64)
            .map(|doc| ParserChoice::resolve(&frontier, doc, (doc < quota).then_some(0), 0.5, false))
            .collect();
        let plan = NodePlan { extract_nodes: 3, parse_nodes: 1 };
        let tasks = tasks_for_choices(frontier.base(), &choices, &w, &plan, 1.0);
        assert_eq!(tasks.len(), w.documents + quota as usize);
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
        let (_, one) = adaparse_at(&w, &SimLoopConfig { nodes: 1, ..Default::default() });
        let (_, four) = adaparse_at(&w, &SimLoopConfig { nodes: 4, ..Default::default() });
        assert!(four > one, "{four} vs {one}");
    }
}
