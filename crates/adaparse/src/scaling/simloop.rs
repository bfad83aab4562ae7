//! Closed-loop simulation-driven scaling — waveless.
//!
//! This module is where every piece of the resource-scaling engine meets:
//! it runs a whole routed campaign *inside* `hpcsim`, one selection window
//! per controller decision epoch, and feeds what the simulator observes
//! back into the controller —
//!
//! ```text
//!        ┌────────────── ExecutorSession clock (simulated s) ◄───────────┐
//!        ▼                                                               │
//!  ScalingController ──plan_nodes──► NodePlan ──tasks──► hpcsim          │
//!        ▲                                   ExecutorSession::submit_owned
//!        │ WaveStats (per-stage busy seconds)      (persistent slots,    │
//!        └────────────────────────────────────────  warm pools, anchors) ┘
//! ```
//!
//! Each epoch: the [`WindowedSelector`] routes the next k documents at the
//! configured α; the [`ScalingController`]'s node plan places the
//! window's extract+parse task pairs (each parse carrying a dependency edge
//! to its extract partner); the persistent [`hpcsim::ExecutorSession`]
//! schedules the window against the *live* cluster state — slots still busy
//! with earlier windows delay it, models loaded by earlier windows are
//! still warm, and its tasks start the moment a slot frees, even before the
//! previous window's stragglers finish. **There is no wave barrier**: the
//! campaign makespan is the session's last completion time, not a sum of
//! per-wave makespans. Nothing in the loop reads the host clock or any
//! other ambient state: replaying the same scores and workload replays the
//! same report bit for bit, on any machine.
//!
//! # Decision causality
//!
//! Each window is admitted at an *event boundary*: the session's dispatch
//! frontier — the simulated time the engine last ran out of undispatched
//! work, recorded per wave as [`SimWave::decided_at_seconds`] — which is
//! also its release floor ([`hpcsim::SubmitOptions::release_seconds`]), so
//! none of its tasks starts before the decision that created it. The
//! controller ([`ScalingController::observe_at`]) samples only the tasks
//! that *finished at or before* the decision time; stragglers wait in a
//! `DeferredQueue` for a later boundary. Window *i+1* still overlaps window
//! *i*'s stragglers (the floor is the dispatch frontier, not the completion
//! time), and the controller's backlog counts the *true* pending work:
//! documents not yet windowed plus session tasks in flight at the boundary
//! ([`SimWave::queue_depth`]).
//!
//! # A window costs what a window holds
//!
//! A window's schedule rows are read once, right after its drain — stage
//! samples into the deferred queue, `start − ready` into a
//! [`LatencyLedger`] — and then the loop retires the session behind the
//! boundary it just observed ([`hpcsim::ExecutorSession::retire_before`]):
//! rows, completion records, pair anchors and GPU spans of everything
//! finished by then. The session holds the work in flight, not the
//! campaign. No report bit can tell, because `retire_before`'s three
//! obligations hold by construction: the next window's release floor *is*
//! this boundary; an unbounded drain leaves nothing pending and every
//! later window mints fresh `doc_id`s — task ids, dependency edges and pair
//! groups are all per document — so no future task names a retired one;
//! and the only in-flight query is made at the frontier, before the
//! retire, and the frontier never rewinds. The one observable that narrows
//! is the raw GPU span list ([`SimLoopReport::executor_report`]).

use hpcsim::{
    CampaignReport, ClusterConfig, ExecutorConfig, LustreModel, StageTiming, SubmitOptions, WorkflowExecutor,
};
use parsersim::cost::{CostModel, PLANNING_DIFFICULTY};
use parsersim::ParserFrontier;

use crate::cascade::ParserChoice;
use crate::config::AdaParseConfig;
use crate::hpc::{task_id_stride, tasks_for_choices, WorkloadSpec};
use crate::scaling::observed::DeferredQueue;
use crate::scaling::{
    Allocation, AllocationEvent, ControllerConfig, NodePlan, ScalingController, WaveStats, WindowedSelector,
};
use crate::stats::{LatencyLedger, LatencySummary};

/// Knobs of a closed-loop simulated campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimLoopConfig {
    /// Selection window size k — one window is one controller decision
    /// epoch.
    pub window: usize,
    /// Cluster size in (Polaris-like) nodes.
    pub nodes: usize,
    /// Explicit cluster shape; `None` (the default) uses
    /// [`ClusterConfig::polaris`] over [`nodes`](Self::nodes). Overriding
    /// lets a test or what-if run drive the loop against degenerate
    /// clusters (e.g. one without the GPU slots the high-quality parser
    /// needs — its parse tasks are then skipped, and an epoch may complete
    /// nothing at all; see [`SimWave::tasks_skipped`]).
    pub cluster: Option<ClusterConfig>,
    /// Executor options (warm starts, node-local staging).
    pub executor: ExecutorConfig,
    /// Shared-filesystem model.
    pub filesystem: LustreModel,
    /// Controller tuning; its worker allocation is projected onto the
    /// cluster via [`ScalingController::plan_nodes`] each epoch.
    pub controller: ControllerConfig,
}

impl Default for SimLoopConfig {
    fn default() -> Self {
        SimLoopConfig {
            window: 256,
            nodes: 4,
            cluster: None,
            executor: ExecutorConfig::default(),
            filesystem: LustreModel::default(),
            controller: ControllerConfig::default(),
        }
    }
}

/// One selection window (decision epoch) of a waveless closed-loop
/// campaign.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct SimWave {
    /// Zero-based epoch index.
    pub wave_index: usize,
    /// Simulated time of the decision that created the epoch — the release
    /// floor its batch was submitted under: the session's dispatch
    /// frontier at selection time. Every task of the epoch starts at or
    /// after it, and it is monotone across epochs.
    pub decided_at_seconds: f64,
    /// Simulated time the epoch's *earliest* task started. Wavelessness
    /// made visible: this is routinely earlier than the previous epoch's
    /// [`finished_at_seconds`](Self::finished_at_seconds) — the next window
    /// starts on slots that free up while the previous window's stragglers
    /// are still running. An epoch that completed nothing (all tasks
    /// skipped, see [`tasks_skipped`](Self::tasks_skipped)) is pinned to
    /// its decision time: `started == finished == decided_at`.
    pub started_at_seconds: f64,
    /// Simulated time the epoch's last task finished. Not necessarily
    /// monotone across epochs: a short window can drain before an earlier
    /// window's straggler — the controller's clock clamps monotonically on
    /// its own. Equal to
    /// [`decided_at_seconds`](Self::decided_at_seconds) for an epoch that
    /// completed nothing.
    pub finished_at_seconds: f64,
    /// Documents routed in the epoch.
    pub documents: usize,
    /// Documents upgraded to the high-quality parser.
    pub selected: usize,
    /// The α the epoch was selected at.
    pub effective_alpha: f64,
    /// Node plan the epoch's tasks were placed under.
    pub plan: NodePlan,
    /// Worker allocation after the controller digested the epoch.
    pub allocation: Allocation,
    /// Extract+parse pairs reunited on one node this epoch.
    pub co_located_pairs: usize,
    /// Pairs split across nodes this epoch.
    pub split_pairs: usize,
    /// Data-locality penalty seconds paid this epoch.
    pub locality_penalty_seconds: f64,
    /// Warm-pool hits this epoch (models reused across epochs count here —
    /// pools persist).
    pub warm_hits: usize,
    /// Seconds the epoch's tasks spent ready but queued for a slot.
    pub queue_wait_seconds: f64,
    /// Tasks of the epoch that could not run (no slot of the required
    /// kind, or a dependency that was itself skipped). An epoch whose
    /// tasks were *all* skipped is well-defined: its
    /// [`started_at_seconds`](Self::started_at_seconds) and
    /// [`finished_at_seconds`](Self::finished_at_seconds) both equal its
    /// [`decided_at_seconds`](Self::decided_at_seconds).
    pub tasks_skipped: usize,
    /// The backlog the controller observed after this epoch: documents not
    /// yet windowed *plus* session tasks still in flight at the
    /// observation boundary (stragglers from this or any earlier epoch) —
    /// the true pending count, not just the unwindowed remainder.
    pub queue_depth: usize,
    /// Per-stage extract timing of the epoch.
    pub extract: StageTiming,
    /// Per-stage parse timing of the epoch.
    pub parse: StageTiming,
}

/// Aggregate outcome of a closed-loop simulated campaign.
#[derive(Debug, Clone, PartialEq)]
pub struct SimLoopReport {
    /// Per-epoch records, in epoch order.
    pub waves: Vec<SimWave>,
    /// The selector's grant mask, concatenated across epochs (`true` =
    /// granted an upgrade slot). A grant that lands on a non-candidate
    /// score leaves its document on the base parser, so this can exceed
    /// [`selected`](Self::selected).
    pub mask: Vec<bool>,
    /// Documents routed.
    pub documents: usize,
    /// Documents upgraded to the high-quality parser.
    pub selected: usize,
    /// Total simulated campaign time: the persistent session's last
    /// completion. Epochs overlap (no barrier), so this is *less* than the
    /// sum of per-epoch spans whenever the cluster pipeline stays busy.
    pub makespan_seconds: f64,
    /// The controller's allocation trace, timestamped in simulated seconds.
    pub history: Vec<AllocationEvent>,
    /// The session-cumulative executor report: critical path, queue wait,
    /// pair locality, per-model warm hits and misses — everything the
    /// persistent engine measured over the whole campaign, bit for bit what
    /// a session that never retired reports. Its `gpu_trace` keeps every
    /// per-GPU `busy_seconds` / `model_load_seconds` bit but only the raw
    /// spans not retired by the last window's boundary (so
    /// [`hpcsim::GpuTrace::utilization_series`] sees the closing stragglers
    /// only), exactly as [`crate::serve::ServeReport`]'s does.
    pub executor_report: CampaignReport,
    /// Distribution of per-task slot waits (`start − ready`), recorded in
    /// schedule order as each window is harvested and summarized with the
    /// shared exact nearest-rank percentiles ([`crate::stats`]) — the
    /// definition the serve layer's per-tenant latency SLOs use, so a
    /// campaign's queue tail and a service's latency tail are comparable.
    pub queue_wait: LatencySummary,
}

/// Run a waveless closed-loop simulated campaign over per-document
/// improvement scores (one score per document, in input order). Each
/// window's grants resolve through [`ParserChoice::resolve`], the
/// campaign's rule: a grant on a non-candidate score stays on the base
/// parser.
///
/// The loop is fully deterministic: same inputs, same report. See the
/// module docs for the feedback structure and the no-barrier semantics.
///
/// # Panics
///
/// Panics on a NaN α, and when the default and high-quality parsers are
/// one parser ([`ParserFrontier::pair`]), as the campaign does.
pub fn run_closed_loop(
    config: &AdaParseConfig,
    improvements: &[f64],
    workload: &WorkloadSpec,
    sim: &SimLoopConfig,
) -> SimLoopReport {
    let window = sim.window.max(1);
    let nodes = sim.nodes.max(1);
    let cluster = sim.cluster.unwrap_or_else(|| ClusterConfig::polaris(nodes));
    let executor = WorkflowExecutor::new(sim.executor);
    // The one persistent session: slots, warm pools, pair anchors, and the
    // clock live across every decision epoch below.
    let mut session = executor.session(&cluster);

    let mut selector = WindowedSelector::new(window, config.alpha);
    let mut controller = ScalingController::new(sim.controller);

    let mut waves = Vec::new();
    let mut grants = Vec::with_capacity(improvements.len());
    let mut selected_total = 0;

    // Deferred observations: a task's stage sample `(is_parse,
    // busy_seconds)` only becomes visible to the loop once a decision
    // boundary passes its finish time.
    let mut deferred_tasks: DeferredQueue<(bool, f64)> = DeferredQueue::new();
    // The next window's decision time; advances to the session's dispatch
    // frontier after every epoch.
    let mut decided_at = 0.0f64;
    // Every task's slot wait, in schedule order — the one thing the close
    // needs from a row after its window has been harvested.
    let mut queue_waits = LatencyLedger::new();
    let frontier = ParserFrontier::pair(config.default_parser, config.high_quality_parser);
    // Whole-document choices: extract at `stride · doc`, parse one id later.
    let stride = task_id_stride(0);
    // Per-window scratch, allocated once.
    let mut choices: Vec<ParserChoice> = Vec::new();

    for (wave_index, chunk) in improvements.chunks(window).enumerate() {
        let offset = wave_index * window;
        let effective_alpha = selector.effective_alpha();
        let mask = selector.select_window(chunk);
        choices.clear();
        for ((&granted, &score), doc_id) in mask.iter().zip(chunk).zip(offset as u64..) {
            choices.push(ParserChoice::resolve(&frontier, doc_id, granted.then_some(0), score, false));
        }
        let selected = choices.iter().filter(|choice| choice.is_upgraded()).count();

        // Fleets: the controller's allocation projected onto the cluster.
        let plan = controller.plan_nodes(cluster.nodes);
        let tasks = tasks_for_choices(frontier.base(), &choices, workload, &plan, 1.0);
        // Global-order harvest cursor: retirement never moves it.
        let scheduled_before = session.schedule_len();
        session.submit_owned(tasks, SubmitOptions { release_seconds: Some(decided_at) });
        let wave = session.advance_to_frontier(&sim.filesystem);
        // The event boundary the controller observes at: the dispatch
        // frontier (the engine just ran out of undispatched work — a live
        // controller would be refilling the queue now, with this epoch's
        // stragglers still running).
        let observed_at = session.frontier_seconds();
        // The true backlog at that boundary: documents not yet windowed
        // plus session tasks still in flight (stragglers from this or any
        // earlier epoch) — not just the unwindowed remainder.
        let docs_remaining = improvements.len().saturating_sub(offset + chunk.len());
        let queue_depth = docs_remaining + session.tasks_in_flight_at(observed_at);
        // The one pass over the window's rows: the epoch's earliest start,
        // every task's slot wait and its stage sample (observable once a
        // boundary passes its finish).
        let mut first_start = f64::INFINITY;
        for row in session.schedule_since(scheduled_before) {
            let (start, finish) = (row.start_seconds, row.finish_seconds);
            first_start = first_start.min(start);
            queue_waits.record(start - row.ready_seconds);
            deferred_tasks.push(finish, (row.id % stride == 1, finish - start));
        }
        // Rows read, in-flight query made: everything finished by the
        // boundary can go (the module docs say why nothing can tell).
        session.retire_before(observed_at);
        // An epoch that completed nothing is pinned to its decision time;
        // otherwise its span is first start to last completion.
        let (started_at_seconds, finished_at_seconds) = if wave.tasks_completed == 0 {
            (decided_at, decided_at)
        } else {
            (first_start, wave.makespan_seconds)
        };
        let (extract, parse) = deferred_tasks.pop_stage_samples(observed_at);
        let allocation =
            controller.observe_at(observed_at, &WaveStats { wave_index, extract, parse, queue_depth });

        selected_total += selected;
        waves.push(SimWave {
            wave_index,
            decided_at_seconds: decided_at,
            started_at_seconds,
            finished_at_seconds,
            documents: chunk.len(),
            selected,
            effective_alpha,
            plan,
            allocation,
            co_located_pairs: wave.co_located_pairs,
            split_pairs: wave.split_pairs,
            locality_penalty_seconds: wave.locality_penalty_seconds,
            warm_hits: wave.warm_hits,
            queue_wait_seconds: wave.queue_wait_seconds,
            tasks_skipped: wave.tasks_skipped,
            queue_depth,
            extract: wave.stage_timings.extract,
            parse: wave.stage_timings.parse,
        });
        grants.extend(mask);
        decided_at = observed_at;
    }

    SimLoopReport {
        waves,
        mask: grants,
        documents: improvements.len(),
        selected: selected_total,
        makespan_seconds: session.now_seconds(),
        history: controller.history().to_vec(),
        executor_report: session.report(),
        queue_wait: queue_waits.summary(),
    }
}

/// Planned per-document costs in seconds at a given page count, as
/// `(cheap, expensive)`: the cheap cost is the default parser alone, the
/// expensive cost is extraction *plus* the high-quality parser — matching
/// what the campaign actually pays per routed document. This is the single
/// source of the cost convention every budget ledger is seeded with; size
/// campaign budgets with it rather than re-deriving the formula.
pub fn planned_costs(config: &AdaParseConfig, pages_per_doc: usize) -> (f64, f64) {
    let cheap =
        CostModel::for_parser(config.default_parser).document_cost(pages_per_doc, PLANNING_DIFFICULTY);
    let expensive =
        CostModel::for_parser(config.high_quality_parser).document_cost(pages_per_doc, PLANNING_DIFFICULTY);
    let planned_cheap = cheap.cpu_seconds + cheap.gpu_seconds;
    let planned_expensive = planned_cheap + expensive.cpu_seconds + expensive.gpu_seconds;
    (planned_cheap, planned_expensive)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    fn scores(n: usize, seed: u64) -> Vec<f64> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n).map(|_| rng.gen_range(0.0..1.0)).collect()
    }

    fn base_config() -> AdaParseConfig {
        AdaParseConfig { alpha: 0.2, ..Default::default() }
    }

    fn workload(n: usize) -> WorkloadSpec {
        WorkloadSpec { documents: n, pages_per_doc: 8, mb_per_doc: 50.0 }
    }

    #[test]
    fn closed_loop_replays_bitwise() {
        let config = base_config();
        let improvements = scores(240, 11);
        let sim = SimLoopConfig {
            window: 48,
            controller: ControllerConfig { total_workers: 8, patience: 1 },
            ..Default::default()
        };
        let a = run_closed_loop(&config, &improvements, &workload(240), &sim);
        let b = run_closed_loop(&config, &improvements, &workload(240), &sim);
        assert_eq!(a, b, "a closed-loop run must be a pure function of its inputs");
        assert_eq!(a.documents, 240);
        assert_eq!(a.mask.len(), 240);
        assert!(a.makespan_seconds > 0.0);
        // The campaign makespan is the session's last completion, and the
        // executor's cumulative report agrees with the loop's view.
        assert_eq!(a.executor_report.makespan_seconds, a.makespan_seconds);
        assert!(a.executor_report.critical_path_seconds > 0.0);
        assert!(a.executor_report.critical_path_seconds <= a.makespan_seconds);
        // Every epoch's event boundary lies inside the campaign, and the
        // last one closes it.
        for wave in &a.waves {
            assert!(wave.started_at_seconds <= wave.finished_at_seconds);
            assert!(wave.finished_at_seconds <= a.makespan_seconds);
        }
        assert!(a.waves.iter().any(|w| w.finished_at_seconds == a.makespan_seconds));
        // Controller trace timestamps are simulated times within the run.
        for event in &a.history {
            assert!(event.at_seconds > 0.0 && event.at_seconds <= a.makespan_seconds);
        }
        // The shared nearest-rank queue-wait summary covers every scheduled
        // task and agrees with the executor's summed queue wait.
        assert_eq!(a.queue_wait.count, a.executor_report.tasks_completed);
        assert!(a.queue_wait.p50_seconds <= a.queue_wait.p99_seconds);
        assert!(a.queue_wait.p99_seconds <= a.queue_wait.max_seconds);
        let summed = a.queue_wait.mean_seconds * a.queue_wait.count as f64;
        assert!(
            (summed - a.executor_report.queue_wait_seconds).abs() <= 1e-6 * summed.max(1.0),
            "percentile summary and executor sum disagree: {summed} vs {}",
            a.executor_report.queue_wait_seconds
        );
    }

    #[test]
    fn epochs_overlap_without_a_wave_barrier() {
        let config = base_config();
        let improvements = scores(200, 3);
        let sim = SimLoopConfig { window: 40, nodes: 2, ..Default::default() };
        let report = run_closed_loop(&config, &improvements, &workload(200), &sim);
        assert!(
            report.waves.windows(2).any(|pair| pair[1].started_at_seconds < pair[0].finished_at_seconds),
            "later windows must start on freed slots before earlier stragglers finish"
        );
        // The waveless makespan beats the barriered sum of epoch spans.
        let barriered: f64 = report.waves.iter().map(|w| w.finished_at_seconds - w.started_at_seconds).sum();
        assert!(report.makespan_seconds < barriered, "{} vs {barriered}", report.makespan_seconds);
    }

    #[test]
    fn warm_pools_persist_across_epochs() {
        let config = base_config();
        let improvements = scores(200, 7);
        let sim = SimLoopConfig { window: 40, ..Default::default() };
        let report = run_closed_loop(&config, &improvements, &workload(200), &sim);
        let executor = &report.executor_report;
        assert!(executor.warm_hits > 0, "resident models must be reused");
        // The high-quality model loads at most once per concurrent loader
        // per node over the *whole campaign* — not once per epoch.
        let parse_tasks: usize = report.waves.iter().map(|w| w.selected).sum();
        assert!(parse_tasks > executor.cold_starts * 2, "cold starts must not scale with epochs");
        // Later epochs find the model warm: their hits show up per wave.
        assert!(report.waves.iter().skip(1).any(|w| w.warm_hits > 0));
    }

    #[test]
    fn empty_campaign_is_a_noop() {
        let report = run_closed_loop(&base_config(), &[], &workload(0), &SimLoopConfig::default());
        assert_eq!(report.documents, 0);
        assert!(report.waves.is_empty());
        assert_eq!(report.makespan_seconds, 0.0);
        assert_eq!(report.selected, 0);
    }
}
