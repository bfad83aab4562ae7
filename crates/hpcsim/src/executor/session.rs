//! The session: the parts, the batch being drained, and the per-task
//! dispatch sequence across them.

use super::fleet::{Fleet, Slot};
use super::history::History;
use super::pending::{PendingMeta, PendingSet};
use super::warm::WarmLedger;
use super::{CampaignReport, ExecutorConfig, ScheduledTask, SubmitOptions};
#[cfg(doc)]
use super::{WarmPool, WorkflowExecutor};
use crate::lustre::LustreModel;
use crate::profiler::GpuTrace;
use crate::task::{ClusterConfig, Task};

/// A resumable executor run: the cluster's slots, warm pools, pair anchors,
/// and clock, persisting across [`submit_owned`](Self::submit_owned) batches. Created by
/// [`WorkflowExecutor::session`].
#[derive(Debug, Clone)]
pub struct ExecutorSession {
    config: ExecutorConfig,
    cluster: ClusterConfig,
    pending: PendingSet,
    fleet: Fleet,
    warm: WarmLedger,
    history: History,
    /// Sums over every drain so far, with a blank `gpu_trace`: the spans
    /// live in `trace`, so a per-epoch snapshot clones no history. Its
    /// makespan is the session clock.
    cumulative: CampaignReport,
    /// The cumulative per-GPU trace [`report`](Self::report) attaches.
    trace: GpuTrace,
    /// Latest task start so far (see [`frontier_seconds`](Self::frontier_seconds)).
    frontier: f64,
}

impl ExecutorSession {
    pub(super) fn new(config: ExecutorConfig, cluster: &ClusterConfig) -> Self {
        let fleet = Fleet::new(cluster);
        ExecutorSession {
            config,
            cluster: *cluster,
            pending: PendingSet::default(),
            warm: WarmLedger::new(cluster.nodes),
            history: History::default(),
            cumulative: CampaignReport::blank(fleet.gpus),
            trace: GpuTrace::new(fleet.gpus),
            fleet,
            frontier: 0.0,
        }
    }

    /// The session's simulated time: the latest completion seen so far.
    pub fn now_seconds(&self) -> f64 {
        self.cumulative.makespan_seconds
    }

    /// The session's *dispatch frontier*: the latest task start so far —
    /// the simulated time at which the engine last ran out of
    /// undispatched work. This is the event boundary a closed loop should
    /// stamp its next admission decision with
    /// ([`SubmitOptions::release_seconds`]): at the frontier every
    /// submitted task has been dispatched (stragglers may still be
    /// *running*), so a live controller would be refilling the queue.
    pub fn frontier_seconds(&self) -> f64 {
        self.frontier
    }

    /// Tasks enqueued by [`submit_owned`](Self::submit_owned) but not yet
    /// drained by [`advance_to_frontier`](Self::advance_to_frontier) or
    /// [`advance_until`](Self::advance_until).
    pub fn pending_task_count(&self) -> usize {
        self.pending.live()
    }

    /// Nodes currently receiving new work (see
    /// [`set_active_nodes`](Self::set_active_nodes)).
    pub fn active_nodes(&self) -> usize {
        self.fleet.active_nodes
    }

    /// Resize the *active fleet*: dispatch from now on only targets nodes
    /// `< nodes` (raised to at least 1, then capped at `cluster.nodes` — a
    /// zero-node cluster stays at zero and skips every task). This is the
    /// fleet-autoscaling hook for a resident service: shrinking never
    /// preempts — tasks already dispatched to a drained node run to
    /// completion, and the node keeps its slot availability and warm-pool
    /// residency so growing the fleet back is instant (resident models on
    /// returning nodes are still warm). Fully deterministic: the active
    /// fleet is always the prefix of the node list, so two runs issuing the
    /// same `set_active_nodes` calls at the same event boundaries place
    /// every task identically.
    pub fn set_active_nodes(&mut self, nodes: usize) {
        self.fleet.active_nodes = nodes.max(1).min(self.cluster.nodes);
    }

    /// Number of *dispatched* tasks still in flight at simulated time
    /// `seconds`: scheduled tasks whose finish lies strictly after it.
    /// This is the session half of a controller's true backlog — work
    /// admitted but not yet done — alongside whatever upstream documents
    /// have not been windowed yet. Tasks merely enqueued (pending, not
    /// yet drained) are not counted; call this after a drain.
    ///
    /// Query times must be **non-decreasing** across calls and at or after
    /// the retirement watermark (`debug_assert!`ed): the natural query
    /// time is the dispatch frontier, which never rewinds. Each call drops
    /// the finishes passed since the last one in one pass over those still
    /// kept, so a per-epoch caller pays for the tasks in flight and those
    /// dispatched since, never for a million-task campaign's history.
    pub fn tasks_in_flight_at(&mut self, seconds: f64) -> usize {
        self.history.in_flight_after(seconds)
    }

    /// Every *retained* scheduled task, in schedule order (ready-queue pop
    /// order), across all submitted batches. Without retirement this is
    /// the full session schedule; after [`retire_before`](Self::retire_before)
    /// the retained rows start [`retired_rows`](Self::retired_rows) deep
    /// into global schedule order — cursor-based harvesters should use
    /// [`schedule_since`](Self::schedule_since) /
    /// [`schedule_len`](Self::schedule_len) instead of indexing this slice.
    pub fn schedule(&self) -> &[ScheduledTask] {
        self.history.schedule()
    }

    /// Total schedule rows ever produced (retired rows included): the
    /// global-order cursor value a harvester holds after consuming
    /// everything. `schedule_len() - retired_rows()` rows are retained.
    pub fn schedule_len(&self) -> usize {
        self.history.retired_rows() + self.history.schedule().len()
    }

    /// Schedule rows dropped by [`retire_before`](Self::retire_before) so
    /// far — the base offset of [`schedule`](Self::schedule) in global
    /// schedule order.
    pub fn retired_rows(&self) -> usize {
        self.history.retired_rows()
    }

    /// The retained schedule rows from global cursor position `cursor`
    /// (0-based over all rows ever produced) to the end — the harvest API
    /// for resident loops: read `schedule_since(cursor)`, then set `cursor
    /// = schedule_len()`. Identical, row for row, to
    /// `&schedule()[cursor..]` on a never-retired session.
    ///
    /// # Panics
    ///
    /// Panics if `cursor` points below the retirement watermark (those
    /// rows are gone — the caller failed the harvest-before-retire
    /// contract) or past [`schedule_len`](Self::schedule_len).
    pub fn schedule_since(&self, cursor: usize) -> &[ScheduledTask] {
        let retired = self.history.retired_rows();
        assert!(
            cursor >= retired,
            "schedule cursor {cursor} points below the retirement watermark ({retired} rows retired)"
        );
        &self.history.schedule()[cursor - retired..]
    }

    /// Exclusive upper bound of retired history — zero until
    /// [`retire_before`](Self::retire_before) is first called.
    pub fn retire_watermark(&self) -> f64 {
        self.history.watermark()
    }

    /// Number of completed-task records currently retained (the
    /// cross-batch dependency map). Grows with work, shrinks at
    /// [`retire_before`](Self::retire_before) — a steady-state memory
    /// probe for soak benchmarks.
    pub fn retained_completed_tasks(&self) -> usize {
        self.history.retained_completed()
    }

    /// Drop session history that finished at or before `watermark_seconds`:
    /// schedule rows, completed-task records, skip records, fully-finished
    /// group anchors, in-flight counter entries, and the cumulative GPU
    /// trace's span prefix (its busy accounting is carried forward
    /// bitwise). Idempotent; watermarks must be finite and non-negative,
    /// and a watermark at or below the current one is a no-op.
    ///
    /// # Contract — when retirement is invisible
    ///
    /// Under the following caller obligations, **every subsequent
    /// observable is bitwise identical** to the unretired session:
    /// cumulative reports ([`report`](Self::report) /
    /// [`report_snapshot`](Self::report_snapshot) — all counters, warm
    /// stats, and the trace's busy/load accounting; only the trace's raw
    /// span list and per-bin
    /// [`GpuTrace::utilization_series`] forget retired spans), batch
    /// reports, schedules read through
    /// [`schedule_since`](Self::schedule_since),
    /// [`tasks_in_flight_at`](Self::tasks_in_flight_at) at `t ≥ watermark`,
    /// dispatch order, placement, and every start/finish time.
    ///
    /// 1. Every future batch's release floor is ≥ the watermark (a causal
    ///    resident loop retiring at its last decision boundary satisfies
    ///    this by construction).
    /// 2. No future task depends on, or shares a group with, a task whose
    ///    finish is ≤ the watermark (otherwise its recorded finish /
    ///    critical path / skip poison / anchor node are forgotten, which
    ///    can change `decision_lag_seconds`, `critical_path_seconds`, the
    ///    skip cascade, or pair-locality accounting).
    /// 3. In-flight queries only ask about `t ≥ watermark` (earlier times
    ///    undercount by exactly the retired finishes above them).
    ///
    /// Both resident loops meet all three structurally, retiring at the
    /// decision boundary itself once its rows are harvested and its
    /// in-flight query made: the serve loop at each epoch boundary (floors
    /// are the boundaries; an extract→parse pair dispatches within the
    /// boundary its dependency finished under), the closed loop at each
    /// dispatch frontier (the next floor; an unbounded drain leaves nothing
    /// pending). Neither's documents ever reference an earlier batch.
    ///
    /// # Panics
    ///
    /// Panics if `watermark_seconds` is non-finite or negative.
    pub fn retire_before(&mut self, watermark_seconds: f64) {
        assert!(
            watermark_seconds.is_finite() && watermark_seconds >= 0.0,
            "retirement watermark must be finite and non-negative, got {watermark_seconds}"
        );
        if watermark_seconds <= self.history.watermark() {
            return;
        }
        self.history.retire_before(watermark_seconds);
        self.trace.retire_before(watermark_seconds);
    }

    /// The session-cumulative report over every batch submitted so far:
    /// [`report_snapshot`](Self::report_snapshot) plus one clone of the
    /// cumulative GPU trace. Per-epoch callers that do not need the trace
    /// should take the snapshot.
    pub fn report(&self) -> CampaignReport {
        CampaignReport { gpu_trace: self.trace.clone(), ..self.report_snapshot() }
    }

    /// [`report`](Self::report) without the per-GPU trace: every other
    /// field is bitwise identical, but `gpu_trace` is a blank
    /// [`GpuTrace`] over the session's GPU count — O(models) with no
    /// O(session-history) clone: the warm-model rows come pre-sorted from
    /// the incrementally maintained label order. This is the
    /// per-wave/per-epoch reporting path for
    /// resident loops; take the full [`report`](Self::report) once at
    /// close when the trace is wanted.
    pub fn report_snapshot(&self) -> CampaignReport {
        let mut report = self.cumulative.clone();
        report.throughput_per_second = if report.makespan_seconds > 0.0 {
            report.tasks_completed as f64 / report.makespan_seconds
        } else {
            0.0
        };
        report.warm_models = self.warm.total_rows();
        report
    }

    /// Enqueue a batch of tasks *without* running the engine: the batch
    /// joins the session's persistent pending set and ready queue, to be
    /// dispatched by the next [`advance_to_frontier`](Self::advance_to_frontier)
    /// or [`advance_until`](Self::advance_until) against the session's
    /// *persistent* state — slots already busy from earlier batches delay
    /// it, and earlier batches' warm models are still resident.
    /// Batches enqueued between drains interleave in global
    /// `(ready time, task id)` event order — a later batch's task released
    /// earlier is dispatched first — which is what lets a closed loop
    /// admit window *i+1* at an event boundary while window *i*'s
    /// stragglers are still in flight.
    ///
    /// Dependency edges may point at tasks completed in earlier drains
    /// (satisfied at their recorded finish time), at ids this session has
    /// never seen (vacuously satisfied at time zero), or at any batch
    /// sharing the drain, in either enqueue direction: a task naming an id
    /// that only arrives in a *later* `submit_owned` call waits for it all
    /// the same. Tasks in a dependency cycle, tasks whose slot kind has no
    /// slots, and dependents of skipped tasks — whether the dependency was
    /// skipped in this drain or any earlier one — are counted in
    /// [`tasks_skipped`](CampaignReport::tasks_skipped).
    ///
    /// The batch carries a *release floor*
    /// ([`SubmitOptions::release_seconds`], defaulting to the session
    /// clock): the simulated time of the decision that created it. Every
    /// task's ready time is clamped to it, so nothing starts before the
    /// decision existed, and it is recorded on every
    /// [`ScheduledTask::submitted_at_seconds`].
    ///
    /// The batch is taken by value: each task's dependency list moves
    /// straight into the pending arena. At million-task scale a per-task
    /// clone is the dominant allocation cost of submission, and callers
    /// build their batches fresh every epoch.
    ///
    /// # Panics
    ///
    /// Panics if `options.release_seconds` is non-finite.
    pub fn submit_owned(&mut self, tasks: Vec<Task>, options: SubmitOptions) {
        // Default floor: a task in this batch cannot have existed before
        // the batch was submitted (= the session clock, the previous
        // drain's last completion) — zero for the session's first batch,
        // preserving one-shot `run` semantics.
        let floor = match options.release_seconds {
            Some(seconds) => {
                assert!(seconds.is_finite(), "release floor must be finite");
                seconds.max(0.0)
            }
            None => self.now_seconds(),
        };
        self.pending.enqueue(tasks, floor, &self.history);
    }

    /// Drain the session's pending set: dispatch every enqueued task in
    /// `(ready time, task id)` event order against the persistent cluster
    /// state, and return a report over the tasks dispatched by *this*
    /// call (the batch-local report when one batch was enqueued). After
    /// this returns, the dispatch frontier
    /// ([`frontier_seconds`](Self::frontier_seconds)) is the event
    /// boundary at which the engine ran out of undispatched work — the
    /// time a closed loop should stamp its next
    /// [`submit_owned`](Self::submit_owned) decision with, while the tasks
    /// counted by [`tasks_in_flight_at`](Self::tasks_in_flight_at) are
    /// still running past it.
    ///
    /// With nothing pending this is a no-op returning an empty report
    /// whose makespan is the current session clock.
    ///
    /// # Panics
    ///
    /// Panics if `filesystem` has a NaN field, a bandwidth that is not
    /// positive or an infinite metadata latency.
    pub fn advance_to_frontier(&mut self, filesystem: &LustreModel) -> CampaignReport {
        self.drain(filesystem, None)
    }

    /// Bounded drain: dispatch, in the same global `(release time, task
    /// id)` event order as [`advance_to_frontier`](Self::advance_to_frontier),
    /// exactly the pending tasks whose release time is at or before
    /// `until_seconds` — including tasks whose dependencies finish within
    /// the bound mid-drain — and leave everything released later pending
    /// for a future advance. This is what lets a resident service
    /// interleave admission decisions with dispatch: advance to the next
    /// decision tick, observe what completed, admit the next arrivals with
    /// a release floor at the tick, repeat.
    ///
    /// A task released at or before the bound may still *finish* after it;
    /// the session clock tracks the latest completion as usual. Dependency
    /// cycles are never resolved by a bounded drain (their members simply
    /// stay pending); only `advance_to_frontier` sweeps them out as
    /// skipped.
    ///
    /// Interleaving bounded drains is *schedule-transparent*: any sequence
    /// of `advance_until` calls followed by a final `advance_to_frontier`
    /// yields bitwise the same schedule (every placement, start, and
    /// finish), frontier, and clock as one big `advance_to_frontier` over
    /// the same submissions — the event order is merely consumed in
    /// segments. The cumulative report's *summed* aggregates (busy
    /// seconds, queue wait, …) accumulate per segment, so they may differ
    /// from the one-drain sums in the last ulp — floating-point addition
    /// is not associative; replaying the same segmentation is still
    /// bitwise-deterministic. (Transparency holds when submissions are the
    /// same; the point of the bound is of course to let *later*
    /// submissions depend on what completed early.)
    ///
    /// # Panics
    ///
    /// Panics if `until_seconds` is NaN, and on a `filesystem`
    /// [`advance_to_frontier`](Self::advance_to_frontier) rejects.
    pub fn advance_until(&mut self, until_seconds: f64, filesystem: &LustreModel) -> CampaignReport {
        assert!(!until_seconds.is_nan(), "advance_until bound must not be NaN");
        self.drain(filesystem, Some(until_seconds))
    }

    /// The shared drain behind [`advance_to_frontier`](Self::advance_to_frontier)
    /// (`until: None`) and [`advance_until`](Self::advance_until)
    /// (`until: Some(bound)`).
    fn drain(&mut self, filesystem: &LustreModel, until: Option<f64>) -> CampaignReport {
        // Enqueueing never advances the clock, so this is also the
        // session clock at the time the drained batches were submitted.
        let advance_floor = self.now_seconds();
        let mut report = CampaignReport::blank(self.fleet.gpus);
        let mut first_start = f64::INFINITY;
        filesystem.validate();
        let (concurrency, aggregated) = (self.cluster.nodes, self.config.node_local_staging);
        let mut stage_costs = StageCosts { filesystem, concurrency, aggregated, last: None };

        self.pending.seed();
        while let Some((time, index, task, meta)) = self.pending.pop(until) {
            let no_slots = self.cluster.total_slots(task.slot) == 0;
            if meta.poisoned || no_slots {
                report.tasks_skipped += 1;
                self.history.record_skip(task.id, time);
                self.pending.poison_dependents(index, time);
            } else {
                let (start, end, critical_path) =
                    self.dispatch(&mut report, &mut stage_costs, time, task, meta);
                first_start = first_start.min(start);
                self.pending.release_dependents(index, end, critical_path);
            }
        }
        if until.is_none() {
            let swept_at = advance_floor.max(report.makespan_seconds);
            report.tasks_skipped += self.pending.skip_cycles(swept_at, &mut self.history);
        } else {
            self.pending.compact();
        }

        // A drain that completed nothing (every task skipped, or no tasks
        // at all) ends where the session already was — `makespan_seconds`
        // is documented as absolute session time, never the blank report's
        // t = 0, which for a later batch would precede its own submission.
        if report.tasks_completed == 0 {
            report.makespan_seconds = advance_floor;
        }
        // Batch throughput is measured over the batch's own span (first
        // start to last finish); for the first batch of a session that span
        // starts at zero, matching the one-shot `run` semantics.
        let batch_span = report.makespan_seconds - first_start.min(report.makespan_seconds);
        report.throughput_per_second =
            if batch_span > 0.0 { report.tasks_completed as f64 / batch_span } else { 0.0 };
        report.warm_models = self.warm.take_batch_rows();
        report.warm_hits = report.warm_models.iter().map(|model| model.hits).sum();
        self.absorb(&report);
        report
    }

    /// Run one released task: *place* it on a slot, *acquire* its model,
    /// *account* the batch report, and *record* it in the history. Returns
    /// its start, its finish and its busy-weighted critical path (the last
    /// two release its dependents).
    fn dispatch(
        &mut self,
        report: &mut CampaignReport,
        stage_costs: &mut StageCosts,
        time: f64,
        task: Task,
        meta: PendingMeta,
    ) -> (f64, f64, f64) {
        let (base_stage_in, refetch) = stage_costs.of(&task);
        // Where the task's input actually lives: a pair's later members
        // find it on the node the pair was anchored to (the first
        // member's output is there); everyone else finds it where the
        // plan staged it.
        let anchor = task.group.and_then(|group| self.history.anchor(group.id));
        let data_node = anchor.or(task.preferred_node);
        let off_node_penalty = if data_node.is_some() { refetch } else { 0.0 };
        // What the penalty costs in *completion time*: stage-in overlaps
        // compute, so the re-fetch hides under it and only the part that
        // pushes stage-in past the compute time delays the task.
        let marginal_penalty = task.compute_seconds.max(base_stage_in + off_node_penalty)
            - task.compute_seconds.max(base_stage_in);
        let (slot_index, Slot { node, gpu_index, free_at }) =
            self.fleet.place(&task, time, marginal_penalty, data_node);
        let penalty = match data_node {
            Some(data_node) if node != data_node => off_node_penalty,
            _ => 0.0,
        };
        // Later members of an anchored group count as co-located or
        // split; the first claims the node once `end` is known below.
        match anchor {
            None => {}
            Some(anchor) if anchor == node => report.co_located_pairs += 1,
            Some(_) => report.split_pairs += 1,
        }
        if penalty > 0.0 {
            report.non_local_tasks += 1;
            report.locality_penalty_seconds += penalty;
        }

        let start = free_at.max(time);
        // Resident models are free, absent or still-loading ones pay the
        // cold start; zero-cost models bypass the pools entirely, and so
        // does everything when warm starts are off.
        let cold = if task.cold_start_seconds <= 0.0 {
            0.0
        } else if !self.config.warm_start {
            task.cold_start_seconds
        } else {
            self.warm.acquire(node, task.label, task.cold_start_seconds, start)
        };
        if cold > 0.0 {
            report.cold_starts += 1;
        }

        // Stage-in overlaps compute; model loading can never be overlapped.
        let stage_in = base_stage_in + penalty;
        let busy = cold + task.compute_seconds.max(stage_in);
        let end = start + busy;
        report.stage_in_seconds += stage_in;
        // `time` is already clamped to the floor, and `start >= time`.
        report.queue_wait_seconds += start - time;
        // How far the task's dependency-only readiness preceded the
        // decision that released it.
        report.decision_lag_seconds += (meta.floor - meta.raw_ready).max(0.0);
        debug_assert!(start >= meta.floor, "no task may start before its release floor");
        match gpu_index {
            None => report.cpu_busy_seconds += busy,
            Some(gpu) => {
                report.gpu_busy_seconds += busy;
                if cold > 0.0 {
                    report.gpu_trace.record(gpu, start, start + cold, true);
                }
                report.gpu_trace.record(gpu, start + cold, end, false);
            }
        }
        if let Some(group) = task.group {
            report.stage_timings.record(group.role, busy, end);
        }
        report.tasks_completed += 1;
        report.makespan_seconds = report.makespan_seconds.max(end);
        let critical_path = meta.chain + busy;
        report.critical_path_seconds = report.critical_path_seconds.max(critical_path);
        self.fleet.occupy(slot_index, task.slot, end);
        self.frontier = self.frontier.max(start);
        self.history.record(
            ScheduledTask {
                id: task.id,
                label: task.label,
                kind: task.slot,
                node,
                ready_seconds: time,
                submitted_at_seconds: meta.floor,
                start_seconds: start,
                finish_seconds: end,
                cold_start_paid_seconds: cold,
            },
            critical_path,
            task.group.map(|group| group.id),
        );
        (start, end, critical_path)
    }

    /// Fold a batch report into the session-cumulative one. (Warm-model
    /// rows are *not* folded here — the warm ledger keeps session totals
    /// itself.)
    fn absorb(&mut self, batch: &CampaignReport) {
        let total = &mut self.cumulative;
        total.tasks_completed += batch.tasks_completed;
        total.tasks_skipped += batch.tasks_skipped;
        total.makespan_seconds = total.makespan_seconds.max(batch.makespan_seconds);
        total.cpu_busy_seconds += batch.cpu_busy_seconds;
        total.gpu_busy_seconds += batch.gpu_busy_seconds;
        total.stage_in_seconds += batch.stage_in_seconds;
        total.cold_starts += batch.cold_starts;
        total.non_local_tasks += batch.non_local_tasks;
        total.locality_penalty_seconds += batch.locality_penalty_seconds;
        total.co_located_pairs += batch.co_located_pairs;
        total.split_pairs += batch.split_pairs;
        total.critical_path_seconds = total.critical_path_seconds.max(batch.critical_path_seconds);
        total.queue_wait_seconds += batch.queue_wait_seconds;
        total.decision_lag_seconds += batch.decision_lag_seconds;
        total.warm_hits += batch.warm_hits;
        total.stage_timings.absorb(&batch.stage_timings);
        self.trace.merge(&batch.gpu_trace);
    }
}

/// One drain's stage-in arithmetic: a task's stage-in time and the cost of
/// re-fetching its input off node. Both are pure functions of `(input_mb,
/// input_files)` while the drain's filesystem, fleet size and staging mode
/// stay fixed, and consecutive tasks usually share them, so the last pair
/// computed is kept.
struct StageCosts<'a> {
    filesystem: &'a LustreModel,
    /// In steady state every node stages data concurrently; that is the
    /// contention level the shared filesystem sees.
    concurrency: usize,
    aggregated: bool,
    last: Option<((u64, usize), (f64, f64))>,
}

impl StageCosts<'_> {
    /// `(stage-in, off-node re-fetch)` seconds of `task`'s input.
    #[inline]
    fn of(&mut self, task: &Task) -> (f64, f64) {
        let key = (task.input_mb.to_bits(), task.input_files);
        match self.last {
            Some((last, costs)) if last == key => costs,
            _ => {
                let fs = self.filesystem;
                let costs = (
                    fs.stage_in_seconds(task.input_mb, task.input_files, self.concurrency, self.aggregated),
                    fs.locality_penalty_seconds(task.input_mb, self.concurrency),
                );
                self.last = Some((key, costs));
                costs
            }
        }
    }
}
