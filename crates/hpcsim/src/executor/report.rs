//! What the engine reports: per-batch and cumulative [`CampaignReport`]s and
//! the per-task [`ScheduledTask`] rows.

#[cfg(doc)]
use super::{ExecutorConfig, ExecutorSession, SubmitOptions};
use crate::profiler::GpuTrace;
#[cfg(doc)]
use crate::task::Task;
use crate::task::{GroupRole, SlotKind};

/// Aggregate timing of one pipeline stage over a (simulated) campaign or
/// wave. Only tasks carrying a [`Task::group`] are attributed to a stage;
/// ungrouped tasks contribute to the report's totals but not to this
/// breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StageTiming {
    /// Slot-busy seconds summed over the stage's tasks (compute, stage-in,
    /// locality re-fetches, and cold starts included).
    pub busy_seconds: f64,
    /// Number of completed tasks attributed to the stage.
    pub tasks: usize,
    /// Simulated time at which the stage's last task finished.
    pub finished_at_seconds: f64,
}

/// Per-stage timing breakdown of a campaign, keyed by [`GroupRole`]. This is
/// what the resource-scaling controller consumes as its per-wave stage
/// samples when it is driven from simulated time instead of wall time.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct StageTimings {
    /// Tasks whose group role is [`GroupRole::Extract`].
    pub extract: StageTiming,
    /// Tasks whose group role is [`GroupRole::Parse`].
    pub parse: StageTiming,
}

impl StageTimings {
    pub(super) fn record(&mut self, role: GroupRole, busy_seconds: f64, end: f64) {
        let timing = match role {
            GroupRole::Extract => &mut self.extract,
            GroupRole::Parse => &mut self.parse,
        };
        timing.busy_seconds += busy_seconds;
        timing.tasks += 1;
        timing.finished_at_seconds = timing.finished_at_seconds.max(end);
    }

    pub(super) fn absorb(&mut self, other: &StageTimings) {
        for (mine, theirs) in [(&mut self.extract, &other.extract), (&mut self.parse, &other.parse)] {
            mine.busy_seconds += theirs.busy_seconds;
            mine.tasks += theirs.tasks;
            mine.finished_at_seconds = mine.finished_at_seconds.max(theirs.finished_at_seconds);
        }
    }
}

/// Warm-pool counters of one model kind over a batch or campaign.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ModelWarmStats {
    /// The model key (the scheduled tasks' [`Task::label`]).
    pub model: String,
    /// Tasks that found the model resident and ready — no cold start paid.
    pub hits: usize,
    /// Tasks that paid the model's cold start (the model was absent, or
    /// still loading for a concurrently scheduled task).
    pub misses: usize,
}

/// Outcome of one simulated campaign (or one drain of an
/// [`ExecutorSession`] — drain reports carry batch-local sums, with
/// [`makespan_seconds`](Self::makespan_seconds) as the absolute simulated
/// time of the batch's last completion).
#[derive(Debug, Clone, PartialEq, Default)]
pub struct CampaignReport {
    /// Number of tasks that ran.
    pub tasks_completed: usize,
    /// Number of tasks that could not run: no slot of the required kind, a
    /// dependency cycle, or a dependency that was itself skipped.
    pub tasks_skipped: usize,
    /// Simulated time of the last completion (campaign wall-clock length
    /// when the session started at time zero). For a later batch this is
    /// the *absolute* session time of the batch's last completion, not the
    /// batch's span.
    pub makespan_seconds: f64,
    /// Completed tasks per second over the report's own span: first task
    /// start to last completion (zero to makespan for a whole campaign or
    /// a fresh session's first batch).
    pub throughput_per_second: f64,
    /// Total busy CPU-slot seconds.
    pub cpu_busy_seconds: f64,
    /// Total busy GPU-slot seconds.
    pub gpu_busy_seconds: f64,
    /// Seconds spent staging input data, *including* any data-locality
    /// re-fetch seconds (which are also broken out separately in
    /// [`locality_penalty_seconds`](Self::locality_penalty_seconds) — do not
    /// sum the two fields).
    pub stage_in_seconds: f64,
    /// Number of cold starts (model loads) that were paid.
    pub cold_starts: usize,
    /// Tasks with a preferred node that ran elsewhere (each paid the
    /// data-locality penalty).
    pub non_local_tasks: usize,
    /// Total seconds of data-locality penalty paid by off-node placements
    /// (a breakdown of, not an addition to,
    /// [`stage_in_seconds`](Self::stage_in_seconds)).
    pub locality_penalty_seconds: f64,
    /// Task pairs ([`Task::group`]) whose members ran on the same node.
    /// Counted per later member, so a two-task pair contributes at most one.
    pub co_located_pairs: usize,
    /// Task pairs whose members were split across nodes (each later member
    /// paid the data-locality penalty to re-fetch its partner's output).
    pub split_pairs: usize,
    /// Length of the longest dependency chain, weighted by slot-busy
    /// seconds: the lower bound on the makespan with unlimited slots. With
    /// no dependency edges this is simply the longest single task.
    pub critical_path_seconds: f64,
    /// Seconds tasks spent *ready but waiting for a slot*, summed over
    /// tasks: the slot-contention (not dependency-stall) share of latency.
    /// A task's wait is measured from when it could first have run — the
    /// later of its dependencies' finish and its batch's release floor —
    /// so a later batch is never charged for the session time that elapsed
    /// before it was submitted.
    pub queue_wait_seconds: f64,
    /// Seconds by which task readiness preceded the batch's release floor,
    /// summed over completed tasks (`max(0, floor − dependency-only ready
    /// time)` per task): the delay the floor injected so that no task runs
    /// before the decision that created it.
    pub decision_lag_seconds: f64,
    /// Warm-pool hits: tasks that reused resident model weights for free.
    pub warm_hits: usize,
    /// Per-model warm-pool counters, sorted by model key. Empty when
    /// [`ExecutorConfig::warm_start`] is off (the pools are bypassed).
    pub warm_models: Vec<ModelWarmStats>,
    /// Per-stage busy-time breakdown of the grouped tasks — the wave stage
    /// timings the resource-scaling controller consumes under simulated
    /// time.
    pub stage_timings: StageTimings,
    /// Per-GPU busy trace (Figure 4).
    pub gpu_trace: GpuTrace,
}

impl CampaignReport {
    /// An all-zero report tracking `gpus` devices.
    pub(super) fn blank(gpus: usize) -> Self {
        CampaignReport { gpu_trace: GpuTrace::new(gpus), ..Default::default() }
    }

    /// Mean GPU utilization over `[0, makespan]`. Meaningful for whole
    /// campaigns and cumulative session reports; for a later batch report
    /// the horizon includes session time before the batch began, deflating
    /// the figure — use the cumulative [`ExecutorSession::report`] instead.
    pub fn mean_gpu_utilization(&self) -> f64 {
        self.gpu_trace.mean_utilization(self.makespan_seconds)
    }
}

/// One scheduled task as placed by an [`ExecutorSession`], in schedule
/// order. This is the ground truth dependency tests assert against: a
/// task's [`start_seconds`](Self::start_seconds) is never earlier than any
/// of its dependencies' [`finish_seconds`](Self::finish_seconds).
#[derive(Debug, Clone, PartialEq)]
pub struct ScheduledTask {
    /// The task's id.
    pub id: u64,
    /// The task's model label.
    pub label: &'static str,
    /// Slot kind the task ran on.
    pub kind: SlotKind,
    /// Node the task ran on.
    pub node: usize,
    /// Simulated time the task entered the ready queue: the later of its
    /// last dependency's finish and its batch's release floor, so never
    /// below [`submitted_at_seconds`](Self::submitted_at_seconds).
    /// `start_seconds - ready_seconds` is the task's slot wait, the
    /// per-task term of [`CampaignReport::queue_wait_seconds`].
    pub ready_seconds: f64,
    /// The release floor the task's batch was submitted under — the
    /// simulated time of the decision that created it
    /// ([`SubmitOptions::release_seconds`], defaulting to the session
    /// clock at submission). Every schedule row carries it so a trace can
    /// be audited for causality: `start_seconds >= submitted_at_seconds`
    /// on every row.
    pub submitted_at_seconds: f64,
    /// Simulated time the task started.
    pub start_seconds: f64,
    /// Simulated time the task finished.
    pub finish_seconds: f64,
    /// Cold-start seconds this task paid (zero on a warm hit). The task's
    /// compute begins only after `start_seconds + cold_start_paid_seconds`.
    pub cold_start_paid_seconds: f64,
}
