//! Closed-loop simulation-driven scaling — waveless.
//!
//! This module is where every piece of the resource-scaling engine meets:
//! it runs a whole routed campaign *inside* `hpcsim`, one selection window
//! per controller decision epoch, and feeds everything the simulator
//! observes back into the decision layers —
//!
//! ```text
//!        ┌────────────── ExecutorSession clock (simulated s) ◄───────────┐
//!        ▼                                                               │
//!  ScalingController ──plan_nodes──► NodePlan ──tasks──► hpcsim          │
//!        ▲                                   ExecutorSession::submit_owned
//!        │ WaveStats (per-stage busy seconds)      (persistent slots,    │
//!        └────────────────────────────────────────  warm pools, anchors) ┤
//!  WindowedSelector ◄──ingest──  ObservedCosts  ◄── WaveCosts ◄──────────┘
//!     (Ledger)                  (effective α)
//! ```
//!
//! Each epoch: the [`WindowedSelector`] routes the next k documents at its
//! current effective α; the [`ScalingController`]'s node plan places the
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
//! effective α ingests only the [`WaveCosts`] of documents whose tasks
//! *finished at or before* the decision time, and the controller
//! ([`ScalingController::observe_at`]) samples the same finished-by-then
//! task set; stragglers wait in a `DeferredQueue` for a later boundary.
//! What is still deferred when the last window has been selected is folded
//! in after the loop, so the *report's* final cost estimates and remaining
//! budget cover every completed document (no selection is affected).
//! Window *i+1* still overlaps window *i*'s stragglers (the floor is the
//! dispatch frontier, not the completion time), and the controller's
//! backlog counts the *true* pending work: documents not yet windowed plus
//! session tasks in flight at the boundary ([`SimWave::queue_depth`]).
//!
//! # A window costs what a window holds
//!
//! A window's schedule rows are read once, right after its drain — spans
//! into the deferred queues, `start − ready` into a [`LatencyLedger`] —
//! and then the loop retires the session behind the boundary it just
//! observed ([`hpcsim::ExecutorSession::retire_before`]): rows, completion
//! records, pair anchors, cold-start intervals and GPU spans of everything
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
use parsersim::cost::CostModel;

use crate::cascade::ParserChoice;
use crate::config::AdaParseConfig;
use crate::hpc::{task_id_stride, tasks_for_choices, WorkloadSpec};
use crate::scaling::observed::{DeferredQueue, ObservedCosts, WaveCosts, DEFAULT_PRIOR_WEIGHT};
use crate::scaling::{
    Allocation, AllocationEvent, ControllerConfig, Ledger, NodePlan, ScalingController, WaveStats,
    WindowedSelector,
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
    /// Total compute budget in seconds; `None` routes at the configured α
    /// with no seconds ledger.
    pub total_budget_seconds: Option<f64>,
    /// Pseudo-document weight of the planned-cost prior in the observed
    /// ledger (ignored without a budget).
    pub prior_weight: f64,
    /// Executor options (warm pools, staging, prefetch, pair
    /// co-scheduling).
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
            total_budget_seconds: None,
            prior_weight: DEFAULT_PRIOR_WEIGHT,
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
    /// Documents sent to the high-quality parser.
    pub selected: usize,
    /// The α the epoch was selected at (after any ledger tightening).
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
    /// Seconds the epoch's paid cold starts spent queued for a shared
    /// model-load channel
    /// ([`hpcsim::LustreModel::model_load_channels`]) — the
    /// thundering-herd serialization cost. Zero with unlimited channels.
    pub herd_queue_seconds: f64,
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
    /// The full routing mask, concatenated across epochs (`true` = routed
    /// to the high-quality parser).
    pub mask: Vec<bool>,
    /// Documents routed.
    pub documents: usize,
    /// Documents sent to the high-quality parser.
    pub selected: usize,
    /// Total simulated campaign time: the persistent session's last
    /// completion. Epochs overlap (no barrier), so this is *less* than the
    /// sum of per-epoch spans whenever the cluster pipeline stays busy.
    pub makespan_seconds: f64,
    /// Extract+parse pairs reunited on one node, campaign-wide.
    pub co_located_pairs: usize,
    /// Pairs split across nodes, campaign-wide.
    pub split_pairs: usize,
    /// Tasks that ran away from their data, campaign-wide.
    pub non_local_tasks: usize,
    /// Data-locality penalty seconds paid, campaign-wide.
    pub locality_penalty_seconds: f64,
    /// The controller's allocation trace, timestamped in simulated seconds.
    pub history: Vec<AllocationEvent>,
    /// The session-cumulative executor report: critical path, queue wait,
    /// per-model warm hits/evictions — everything the persistent engine
    /// measured over the whole campaign, bit for bit what a session that
    /// never retired reports. Its `gpu_trace` keeps every per-GPU
    /// `busy_seconds` / `model_load_seconds` bit but only the raw spans not
    /// retired by the last window's boundary (so
    /// [`hpcsim::GpuTrace::utilization_series`] sees the closing stragglers
    /// only), exactly as [`crate::serve::ServeReport`]'s does.
    pub executor_report: CampaignReport,
    /// Distribution of per-task slot waits (`start − ready`), recorded in
    /// schedule order as each window is harvested and summarized with the
    /// shared exact nearest-rank percentiles ([`crate::stats`]) — the
    /// definition the serve layer's per-tenant latency SLOs use, so a
    /// campaign's queue tail and a service's latency tail are comparable.
    pub queue_wait: LatencySummary,
    /// Final observed-cost estimates, when a budget ledger was attached.
    pub final_observed: Option<ObservedCosts>,
    /// Seconds of budget left unspent, when a budget was set.
    pub remaining_budget_seconds: Option<f64>,
}

impl SimLoopReport {
    /// Whether any epoch started before its predecessor finished — the
    /// direct witness that the loop ran without a wave barrier.
    pub fn epochs_overlap(&self) -> bool {
        self.waves.windows(2).any(|pair| pair[1].started_at_seconds < pair[0].finished_at_seconds)
    }
}

/// Run a waveless closed-loop simulated campaign over per-document
/// improvement scores (one score per document, in input order).
///
/// The loop is fully deterministic: same inputs, same report. See the
/// module docs for the feedback structure and the no-barrier semantics.
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
    if let Some(total_seconds) = sim.total_budget_seconds {
        selector = selector.with_budget(Ledger::seconds(
            total_seconds,
            improvements.len(),
            (config.default_parser, config.high_quality_parser),
            planned_costs(config, workload.pages_per_doc),
            sim.prior_weight,
        ));
    }
    let mut controller = ScalingController::new(sim.controller);

    let mut report = SimLoopReport {
        waves: Vec::new(),
        mask: Vec::with_capacity(improvements.len()),
        documents: improvements.len(),
        selected: 0,
        makespan_seconds: 0.0,
        co_located_pairs: 0,
        split_pairs: 0,
        non_local_tasks: 0,
        locality_penalty_seconds: 0.0,
        history: Vec::new(),
        // Placeholder until the loop closes (a blank session's snapshot is
        // identical to its full report); the cheap path skips cloning the
        // GPU trace and warm rows.
        executor_report: session.report_snapshot(),
        queue_wait: LatencySummary::default(),
        final_observed: None,
        remaining_budget_seconds: None,
    };

    // Deferred observations: a document's cost `(expensive, seconds)` or a
    // task's stage sample `(is_parse, busy_seconds)` only becomes visible
    // to the loop once a decision boundary passes its finish time.
    let mut deferred_docs: DeferredQueue<(bool, f64)> = DeferredQueue::new();
    let mut deferred_tasks: DeferredQueue<(bool, f64)> = DeferredQueue::new();
    // The next window's decision time; advances to the session's dispatch
    // frontier after every epoch.
    let mut decided_at = 0.0f64;
    // Documents whose measured costs have been reconciled so far: whatever
    // is committed but never observed — skipped work — has its reservation
    // released at campaign close.
    let mut observed_docs = 0usize;
    // Every task's slot wait, in schedule order — the one thing the close
    // needs from a row after its window has been harvested.
    let mut queue_waits = LatencyLedger::new();
    let (base, upgrade) = (config.default_parser, config.high_quality_parser);
    // Whole-document choices: extract at `stride · doc`, parse one id later.
    let stride = task_id_stride(0);
    // Per-window scratch, allocated once.
    let mut choices: Vec<ParserChoice> = Vec::new();
    let mut spans: Vec<Option<(f64, f64)>> = Vec::new();

    for (wave_index, chunk) in improvements.chunks(window).enumerate() {
        let offset = wave_index * window;
        // Partial-window observation: ingest exactly the documents whose
        // tasks finished at or before this decision time — stragglers stay
        // deferred for a later boundary, and the ledger releases its
        // reservations one document-slot at a time.
        observed_docs += ingest_observable(selector.ledger_mut(), &mut deferred_docs, decided_at);
        let effective_alpha = selector.effective_alpha();
        let mask = selector.select_window(chunk);
        let selected = mask.iter().filter(|&&m| m).count();
        choices.clear();
        choices.extend(ParserChoice::from_mask(base, upgrade, offset as u64, &mask));

        // Fleets: the controller's allocation projected onto the cluster.
        let plan = controller.plan_nodes(cluster.nodes);
        let tasks = tasks_for_choices(base, &choices, workload, Some(&plan), 1.0);
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
        // every task's slot wait, its stage sample (observable once a
        // boundary passes its finish) and its `(start, finish)` by
        // `id − stride·offset` — an unbounded drain schedules only this
        // window's tasks.
        spans.clear();
        spans.resize(stride as usize * chunk.len(), None);
        let mut first_start = f64::INFINITY;
        for row in session.schedule_since(scheduled_before) {
            let (start, finish) = (row.start_seconds, row.finish_seconds);
            first_start = first_start.min(start);
            queue_waits.record(start - row.ready_seconds);
            deferred_tasks.push(finish, (row.id % stride == 1, finish - start));
            spans[(row.id - stride * offset as u64) as usize] = Some((start, finish));
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

        for (k, hq) in choices.iter().map(ParserChoice::is_upgraded).enumerate() {
            // A document whose extract was skipped ran nothing at all —
            // its cost is never observable and its reservation is released
            // at campaign close.
            let Some((extract_start, extract_finish)) = spans[stride as usize * k] else { continue };
            let extract_busy = extract_finish - extract_start;
            let (observable_at, seconds) = match spans[stride as usize * k + 1] {
                Some((parse_start, parse_finish)) if hq => {
                    (extract_finish.max(parse_finish), extract_busy + (parse_finish - parse_start))
                }
                // An upgraded document whose parse was skipped still burned
                // its extract seconds: charge what actually ran.
                _ => (extract_finish, extract_busy),
            };
            deferred_docs.push(observable_at, (hq, seconds));
        }
        let (extract, parse) = deferred_tasks.pop_stage_samples(observed_at);
        let allocation =
            controller.observe_at(observed_at, &WaveStats { wave_index, extract, parse, queue_depth });

        report.selected += selected;
        report.co_located_pairs += wave.co_located_pairs;
        report.split_pairs += wave.split_pairs;
        report.non_local_tasks += wave.non_local_tasks;
        report.locality_penalty_seconds += wave.locality_penalty_seconds;
        report.waves.push(SimWave {
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
            herd_queue_seconds: wave.herd_queue_seconds,
            tasks_skipped: wave.tasks_skipped,
            queue_depth,
            extract: wave.stage_timings.extract,
            parse: wave.stage_timings.parse,
        });
        report.mask.extend(mask);
        decided_at = observed_at;
    }

    // No further decision to protect: the straggler observations still
    // deferred fold in here, and the reservations of documents that will
    // never complete (skipped work) are released. This only reconciles the
    // *report* — `remaining = budget − Σ measured` (clamped at zero) over
    // every completed document.
    observed_docs += ingest_observable(selector.ledger_mut(), &mut deferred_docs, f64::INFINITY);
    selector.ledger_mut().release_unobserved(improvements.len().saturating_sub(observed_docs));

    report.makespan_seconds = session.now_seconds();
    report.history = controller.history().to_vec();
    report.executor_report = session.report();
    report.queue_wait = queue_waits.summary();
    report.final_observed = selector.ledger().observed().copied();
    report.remaining_budget_seconds = selector.ledger().remaining_seconds();
    report
}

/// Fold every deferred document cost observable at `boundary` into the
/// ledger, one reservation slot per document; returns how many documents
/// that reconciled.
fn ingest_observable(ledger: &mut Ledger, deferred: &mut DeferredQueue<(bool, f64)>, boundary: f64) -> usize {
    let mut costs = WaveCosts::default();
    deferred.pop_due(boundary, |(expensive, seconds)| costs.record(expensive, seconds));
    if costs.docs() > 0 {
        ledger.ingest(&costs);
    }
    costs.docs()
}

/// Planned per-document costs in seconds at a given page count, as
/// `(cheap, expensive)`: the cheap cost is the default parser alone, the
/// expensive cost is extraction *plus* the high-quality parser — matching
/// what the campaign actually pays per routed document. This is the single
/// source of the cost convention every budget ledger is seeded with; size
/// campaign budgets with it rather than re-deriving the formula.
pub fn planned_costs(config: &AdaParseConfig, pages_per_doc: usize) -> (f64, f64) {
    let cheap = CostModel::for_parser(config.default_parser).document_cost(pages_per_doc, 0.3);
    let expensive = CostModel::for_parser(config.high_quality_parser).document_cost(pages_per_doc, 0.3);
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
            total_budget_seconds: Some(5_000.0),
            controller: ControllerConfig { total_workers: 8, patience: 1, ..Default::default() },
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
            report.epochs_overlap(),
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
        assert_eq!(executor.warm_evictions, 0, "an unbounded pool never evicts");
        // The high-quality model loads at most once per concurrent loader
        // per node over the *whole campaign* — not once per epoch.
        let parse_tasks: usize = report.waves.iter().map(|w| w.selected).sum();
        assert!(parse_tasks > executor.cold_starts * 2, "cold starts must not scale with epochs");
        // Later epochs find the model warm: their hits show up per wave.
        assert!(report.waves.iter().skip(1).any(|w| w.warm_hits > 0));
    }

    #[test]
    fn co_scheduling_reunites_pairs_and_cuts_the_penalty() {
        let config = base_config();
        let improvements = scores(160, 5);
        // Two nodes keep the slots contended: with idle slots everywhere
        // a pair's halves land wherever the plan staged them and there is
        // no queueing for co-scheduling to trade against.
        let paired = SimLoopConfig { window: 40, nodes: 2, ..Default::default() };
        let split = SimLoopConfig {
            executor: ExecutorConfig { co_schedule_pairs: false, ..Default::default() },
            ..paired
        };
        let with_pairs = run_closed_loop(&config, &improvements, &workload(160), &paired);
        let without = run_closed_loop(&config, &improvements, &workload(160), &split);
        assert!(with_pairs.co_located_pairs > 0, "pairs must reunite under co-scheduling");
        assert_eq!(with_pairs.selected, without.selected, "placement must not change routing");
        assert!(
            with_pairs.locality_penalty_seconds < without.locality_penalty_seconds,
            "co-scheduling must cut the locality penalty ({} vs {})",
            with_pairs.locality_penalty_seconds,
            without.locality_penalty_seconds
        );
        assert!(without.split_pairs > with_pairs.split_pairs);
    }

    #[test]
    fn observed_overruns_throttle_selection_under_a_budget() {
        let config = base_config();
        let improvements = scores(300, 9);
        let n = improvements.len();
        // Budget sized so the *planned* costs afford exactly the configured
        // α = 0.2 — but simulated documents also pay stage-in, cold starts,
        // and contention, so observed costs run hot and the ledger must
        // throttle.
        let (planned_cheap, planned_expensive) = planned_costs(&config, 8);
        let budget = n as f64 * planned_cheap + 0.2 * n as f64 * (planned_expensive - planned_cheap);
        let open = SimLoopConfig { window: 30, ..Default::default() };
        let closed = SimLoopConfig {
            window: 30,
            total_budget_seconds: Some(budget),
            prior_weight: 8.0,
            ..Default::default()
        };
        let unbudgeted = run_closed_loop(&config, &improvements, &workload(n), &open);
        let budgeted = run_closed_loop(&config, &improvements, &workload(n), &closed);
        assert!(unbudgeted.selected as f64 > 0.15 * n as f64, "α = 0.2 without a ledger");
        assert!(
            budgeted.selected < unbudgeted.selected,
            "observed overruns must tighten selection ({} vs {})",
            budgeted.selected,
            unbudgeted.selected
        );
        let observed = budgeted.final_observed.expect("budgeted run keeps observed estimates");
        assert!(
            observed.expensive_divergence() > 1.0,
            "simulated costs exceed the pure-compute plan: {}",
            observed.expensive_divergence()
        );
        // Later epochs run at a tighter α than the first.
        let first = budgeted.waves.first().unwrap().effective_alpha;
        let last = budgeted.waves.last().unwrap().effective_alpha;
        assert!(last < first, "effective α must tighten over the campaign ({first} → {last})");
    }

    #[test]
    fn empty_campaign_is_a_noop() {
        let report = run_closed_loop(&base_config(), &[], &workload(0), &SimLoopConfig::default());
        assert_eq!(report.documents, 0);
        assert!(report.waves.is_empty());
        assert_eq!(report.makespan_seconds, 0.0);
        assert_eq!(report.selected, 0);
        assert!(!report.epochs_overlap());
    }
}
