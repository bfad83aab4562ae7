//! The Parsl-like workflow executor — an event-driven, dependency-aware
//! discrete-event engine.
//!
//! Tasks carry precedence edges ([`Task::depends_on`]) and are released by a
//! ready queue only once every dependency has finished; ready tasks are
//! dispatched to per-node CPU and GPU worker slots in deterministic
//! `(ready time, task id)` order. The engine is resumable *and
//! event-interleaved*: an [`ExecutorSession`] keeps slot availability,
//! per-node warm pools, pair anchors, a persistent pending set, and the
//! simulated clock alive across batches. [`ExecutorSession::submit_owned`]
//! enqueues a batch under a *release floor* (the simulated time of the
//! decision that created it) without running the engine, and
//! [`ExecutorSession::advance_to_frontier`] drains everything pending in
//! global event order — so a closed-loop controller can admit window *i+1*
//! at an event boundary while window *i*'s stragglers are still in flight,
//! without ever barriering the cluster. Release floors are always enforced:
//! no task starts before the decision that created it, so every schedule
//! is an achievable one. The executor reproduces the orchestration
//! optimizations of the paper's §5.2 / §6.1 so they can be ablated:
//!
//! * **warm pools** — each node keeps a [`WarmPool`] of resident ML model
//!   weights keyed by the task's model label: reusing a resident model is
//!   free, loading an absent one pays the cold start, and exceeding the
//!   configurable pool capacity evicts the least-recently-used model (which
//!   then re-pays its cold start on return). Zero-cost models never occupy
//!   capacity,
//! * **node-local staging** — inputs arrive as aggregated archives instead of
//!   many small files, removing metadata pressure on the shared filesystem,
//! * **prefetching** — stage-in of the next batch overlaps with compute,
//! * **node affinity** — a task whose input was staged on a node
//!   ([`Task::preferred_node`]) runs there unless queueing makes an off-node
//!   slot worthwhile *after* paying the [`LustreModel`] data-locality
//!   penalty; the resource-scaling controller's node plans rely on this,
//! * **pair co-scheduling** — the extract and parse tasks of one document
//!   ([`Task::group`]) prefer the same node: the first member of a group
//!   anchors it to the node it ran on, and later members find their input
//!   there rather than where the original plan staged it,
//! * **dependency edges** — a parse task never starts before its extract
//!   partner finishes; cycles and dependents of skipped tasks are skipped
//!   (never deadlocked), and DAG schedules are bitwise-independent of task
//!   submission order thanks to the `(time, id)` ready-queue tie-break.

use serde::{Deserialize, Serialize};

use crate::clock::SimClock;
use crate::event::ReadyQueue;
use crate::idmap::IdMap;
use crate::intern::{ModelId, ModelInterner};
use crate::lustre::LustreModel;
use crate::profiler::GpuTrace;
use crate::slotindex::{InFlightCounter, SlotIndex};
use crate::task::{ClusterConfig, GroupRole, SlotKind, Task};

/// How a batch's release floor ([`SubmitOptions::release_seconds`]) binds
/// its tasks. There is one rule: every task's ready time is clamped to the
/// floor, so `start_seconds >= submitted_at_seconds` on every schedule row.
/// The enum and [`ExecutorConfig::causality`] survive only because the
/// frozen `benchmark/` harness spells
/// `ExecutorConfig { causality: CausalityMode::Causal, .. }`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum CausalityMode {
    /// No task starts before its batch's release floor.
    Causal,
}

/// Per-batch submission options for [`ExecutorSession::submit_owned`].
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct SubmitOptions {
    /// The simulated time the decision that created this batch was made —
    /// the batch's *release floor*. `None` uses the session clock at
    /// submission (the latest completion seen so far; zero on a fresh
    /// session). No task of the batch starts before this floor, and it is
    /// recorded on each [`ScheduledTask::submitted_at_seconds`].
    pub release_seconds: Option<f64>,
}

/// How the dispatcher ranks candidate slots for a ready task.
///
/// [`EarliestSlot`](PlacementPolicy::EarliestSlot) is the legacy policy and
/// the default — bitwise-identical to the engine before this enum existed.
/// [`CostAware`](PlacementPolicy::CostAware) additionally charges each
/// candidate node the cold start the task would pay there (probing the
/// node's [`WarmPool`] residency without mutating it), so a slightly later
/// slot on a node that already holds the task's model warm can beat an
/// earlier slot on a cold node. The two policies coincide bitwise whenever
/// every task's cold start is zero or warm starts are disabled — pinned by
/// `tests/placement_equivalence.rs`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PlacementPolicy {
    /// Rank slots by effective start time only (availability plus any
    /// locality penalty): the legacy earliest-effective-slot scan.
    EarliestSlot,
    /// Rank slots by expected completion: effective start plus locality
    /// penalty plus cold-start-if-miss on the candidate node, with
    /// deterministic (cost, locality, idle-time, node, slot) tie-breaks.
    CostAware,
}

/// Executor options.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecutorConfig {
    /// Keep ML models resident in per-node [`WarmPool`]s across tasks
    /// (paper §5.2). When disabled every task with a positive cold-start
    /// cost pays it and the pools are never consulted.
    pub warm_start: bool,
    /// Aggregate inputs into node-local archives (paper §6.1).
    pub node_local_staging: bool,
    /// Overlap stage-in with computation.
    pub prefetch: bool,
    /// Steer the later members of a [`Task::group`] pair toward the node
    /// where the pair's first member ran (its output — the pair's actual
    /// data location — lives there). When disabled the scheduler falls back
    /// to each task's own [`Task::preferred_node`] and pays the
    /// data-locality penalty for the re-fetch it didn't know it needed;
    /// that is the ablation baseline.
    pub co_schedule_pairs: bool,
    /// Resident-model capacity of each node's [`WarmPool`]: `None` is
    /// unbounded (every model loaded on a node stays warm), `Some(k)` keeps
    /// at most `k` models resident per node with least-recently-used
    /// eviction, and `Some(0)` disables residency entirely (every task
    /// re-pays its cold start, but per-model miss counts are still
    /// reported — unlike `warm_start: false`, which bypasses the pools).
    pub warm_pool_capacity: Option<usize>,
    /// Always [`CausalityMode::Causal`] (see there for why the field
    /// still exists).
    pub causality: CausalityMode,
    /// How candidate slots are ranked for each ready task
    /// ([`PlacementPolicy::EarliestSlot`], the legacy default, or the
    /// warm-aware [`PlacementPolicy::CostAware`]).
    pub placement: PlacementPolicy,
}

impl Default for ExecutorConfig {
    fn default() -> Self {
        ExecutorConfig {
            warm_start: true,
            node_local_staging: true,
            prefetch: true,
            co_schedule_pairs: true,
            warm_pool_capacity: None,
            causality: CausalityMode::Causal,
            placement: PlacementPolicy::EarliestSlot,
        }
    }
}

/// Aggregate timing of one pipeline stage over a (simulated) campaign or
/// wave. Only tasks carrying a [`Task::group`] are attributed to a stage;
/// ungrouped tasks contribute to the report's totals but not to this
/// breakdown.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
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
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct StageTimings {
    /// Tasks whose group role is [`GroupRole::Extract`].
    pub extract: StageTiming,
    /// Tasks whose group role is [`GroupRole::Parse`].
    pub parse: StageTiming,
}

impl StageTimings {
    fn record(&mut self, role: GroupRole, busy_seconds: f64, end: f64) {
        let timing = match role {
            GroupRole::Extract => &mut self.extract,
            GroupRole::Parse => &mut self.parse,
        };
        timing.busy_seconds += busy_seconds;
        timing.tasks += 1;
        timing.finished_at_seconds = timing.finished_at_seconds.max(end);
    }

    fn absorb(&mut self, other: &StageTimings) {
        for (mine, theirs) in [(&mut self.extract, &other.extract), (&mut self.parse, &other.parse)] {
            mine.busy_seconds += theirs.busy_seconds;
            mine.tasks += theirs.tasks;
            mine.finished_at_seconds = mine.finished_at_seconds.max(theirs.finished_at_seconds);
        }
    }
}

/// Warm-pool counters of one model kind over a batch or campaign.
#[derive(Debug, Clone, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct ModelWarmStats {
    /// The model key (the scheduled tasks' [`Task::label`]).
    pub model: String,
    /// Tasks that found the model resident and ready — no cold start paid.
    pub hits: usize,
    /// Tasks that paid the model's cold start (the model was absent, or
    /// still loading for a concurrently scheduled task).
    pub misses: usize,
    /// Times the model was evicted from a node's pool to make room.
    pub evictions: usize,
}

/// Outcome of one simulated campaign (or one drain of an
/// [`ExecutorSession`] — drain reports carry batch-local sums, with
/// [`makespan_seconds`](Self::makespan_seconds) as the absolute simulated
/// time of the batch's last completion).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
    /// Models evicted from per-node warm pools to make room.
    pub warm_evictions: usize,
    /// Seconds paid cold starts spent queued for a free model-load channel
    /// ([`crate::LustreModel::model_load_channels`]), summed over tasks —
    /// the thundering-herd serialization cost. Zero with unlimited
    /// channels. Equals the sum of [`ScheduledTask::herd_wait_seconds`]
    /// over the report's tasks, bitwise (folded in schedule order).
    pub herd_queue_seconds: f64,
    /// Largest number of model loads in flight at any instant — the peak
    /// of the cold-start herd the load channels had to absorb (exact, via
    /// a sweep over the report's load intervals).
    pub concurrent_cold_starts_peak: usize,
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
    fn blank(gpus: usize) -> Self {
        CampaignReport {
            tasks_completed: 0,
            tasks_skipped: 0,
            makespan_seconds: 0.0,
            throughput_per_second: 0.0,
            cpu_busy_seconds: 0.0,
            gpu_busy_seconds: 0.0,
            stage_in_seconds: 0.0,
            cold_starts: 0,
            non_local_tasks: 0,
            locality_penalty_seconds: 0.0,
            co_located_pairs: 0,
            split_pairs: 0,
            critical_path_seconds: 0.0,
            queue_wait_seconds: 0.0,
            decision_lag_seconds: 0.0,
            warm_hits: 0,
            warm_evictions: 0,
            herd_queue_seconds: 0.0,
            concurrent_cold_starts_peak: 0,
            warm_models: Vec::new(),
            stage_timings: StageTimings::default(),
            gpu_trace: GpuTrace::new(gpus),
        }
    }

    /// Mean GPU utilization over `[0, makespan]`. Meaningful for whole
    /// campaigns and cumulative session reports; for a later batch report
    /// the horizon includes session time before the batch began, deflating
    /// the figure — use the cumulative [`ExecutorSession::report`] instead.
    pub fn mean_gpu_utilization(&self) -> f64 {
        self.gpu_trace.mean_utilization(self.makespan_seconds)
    }
}

/// Exact maximum number of half-open `[start, end)` load intervals
/// overlapping at any instant, by an event sweep (ends processed before
/// starts at equal times, so a load beginning exactly when another finishes
/// does not count as concurrent with it).
fn peak_concurrent_loads(intervals: &[(f64, f64)]) -> usize {
    peak_concurrent_loads_below(intervals, f64::INFINITY)
}

/// [`peak_concurrent_loads`], restricted to instants strictly before
/// `bound`: the same sweep, taking the maximum only at start events `< bound`
/// (overlap counts can only change at starts, so the supremum over `[0,
/// bound)` is attained at one). This is the retirement-watermark carry:
/// computed over the still-present intervals *at retirement time* it is the
/// exact peak over all history below the watermark, because every interval
/// open anywhere in `[0, bound)` either ends after the previous watermark
/// (still present) or was already folded into the previous carry.
fn peak_concurrent_loads_below(intervals: &[(f64, f64)], bound: f64) -> usize {
    let mut starts: Vec<f64> = intervals.iter().map(|&(s, _)| s).collect();
    let mut ends: Vec<f64> = intervals.iter().map(|&(_, e)| e).collect();
    starts.sort_by(f64::total_cmp);
    ends.sort_by(f64::total_cmp);
    let (mut peak, mut open, mut closed) = (0usize, 0usize, 0usize);
    for &start in &starts {
        if start >= bound {
            break;
        }
        while closed < ends.len() && ends[closed] <= start {
            closed += 1;
        }
        open += 1;
        peak = peak.max(open - closed);
    }
    peak
}

/// Outcome of a [`WarmPool::acquire`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum WarmAccess {
    /// The model was resident and its weights were ready: the cold start is
    /// free. Zero-cost models always hit (they have nothing to load and
    /// never occupy pool capacity).
    Hit,
    /// The model is resident but its weights were still loading for an
    /// earlier-scheduled task when this one started, so this task pays the
    /// cold start too (and may pull the load-finish time earlier).
    Loading,
    /// The model was absent: the task pays the cold start and the model
    /// becomes resident, evicting the least-recently-used model when the
    /// pool is over capacity (`evicted` names it).
    Miss {
        /// Interned id of the model evicted to make room, if the pool was
        /// at capacity (resolve it with [`ModelInterner::resolve`]).
        evicted: Option<ModelId>,
    },
}

#[derive(Debug, Clone, Copy)]
struct Resident {
    model: ModelId,
    /// Simulated time the model's weights finish loading; tasks starting
    /// earlier must pay the cold start themselves.
    loaded_at_seconds: f64,
    last_use: u64,
}

/// A node's pool of resident ML model weights, keyed by *interned* model
/// id ([`ModelId`], assigned by the session's [`ModelInterner`] from each
/// task's label).
///
/// Reusing a resident model is free; loading an absent one pays the task's
/// cold start; exceeding the pool capacity evicts the least-recently-used
/// model, which re-pays its cold start if it ever returns. Models with a
/// zero cold-start cost are always warm and never occupy capacity — there
/// are no weights to keep resident. Working in dense integer ids keeps the
/// per-dispatch residency check free of string hashing and cloning; the
/// labels are materialized back only when a report is built.
///
/// # Example
///
/// ```
/// use hpcsim::{ModelInterner, WarmAccess, WarmPool};
///
/// let mut models = ModelInterner::new();
/// let nougat = models.intern("Nougat");
/// let marker = models.intern("Marker");
/// let pymupdf = models.intern("PyMuPDF");
/// let mut pool = WarmPool::new(Some(1));
/// // First Nougat task loads the weights (15 s), finishing at t = 15.
/// assert_eq!(pool.acquire(nougat, 15.0, 0.0), WarmAccess::Miss { evicted: None });
/// // A task starting after the load reuses them for free.
/// assert_eq!(pool.acquire(nougat, 15.0, 20.0), WarmAccess::Hit);
/// // A different model evicts Nougat from the capacity-1 pool.
/// assert_eq!(pool.acquire(marker, 12.0, 30.0), WarmAccess::Miss { evicted: Some(nougat) });
/// // Zero-cost models are always warm and never occupy capacity.
/// assert_eq!(pool.acquire(pymupdf, 0.0, 0.0), WarmAccess::Hit);
/// assert!(pool.is_resident(marker));
/// ```
#[derive(Debug, Clone, Default)]
pub struct WarmPool {
    capacity: Option<usize>,
    resident: Vec<Resident>,
    access_sequence: u64,
}

impl WarmPool {
    /// A pool holding at most `capacity` resident models (`None` is
    /// unbounded).
    pub fn new(capacity: Option<usize>) -> Self {
        WarmPool { capacity, resident: Vec::new(), access_sequence: 0 }
    }

    /// Number of models currently resident.
    pub fn resident_models(&self) -> usize {
        self.resident.len()
    }

    /// Whether `model` is currently resident (loading counts as resident).
    pub fn is_resident(&self, model: ModelId) -> bool {
        self.resident.iter().any(|r| r.model == model)
    }

    /// Request `model` for a task starting at `start_seconds` whose cold
    /// start costs `cold_start_seconds`. Updates residency and returns what
    /// the task pays: on [`WarmAccess::Hit`] nothing, otherwise the cold
    /// start. Zero-cost models always hit without touching the pool.
    ///
    /// Pool state evolves in *call* order (the executor's schedule order),
    /// which need not be monotone in `start_seconds`: a task acquired
    /// earlier but starting later is charged against the load-finish time
    /// known at acquire time, even if a later acquire's concurrent load
    /// would have made the weights resident sooner. The accounting is
    /// therefore conservative (never undercounts cold starts) and fully
    /// deterministic.
    pub fn acquire(&mut self, model: ModelId, cold_start_seconds: f64, start_seconds: f64) -> WarmAccess {
        if cold_start_seconds <= 0.0 {
            return WarmAccess::Hit;
        }
        self.access_sequence += 1;
        let sequence = self.access_sequence;
        if let Some(entry) = self.resident.iter_mut().find(|r| r.model == model) {
            entry.last_use = sequence;
            if start_seconds >= entry.loaded_at_seconds {
                return WarmAccess::Hit;
            }
            // Still loading for an earlier-scheduled task: this one loads
            // concurrently and the weights are ready at the earlier finish.
            entry.loaded_at_seconds = entry.loaded_at_seconds.min(start_seconds + cold_start_seconds);
            return WarmAccess::Loading;
        }
        if self.capacity == Some(0) {
            return WarmAccess::Miss { evicted: None };
        }
        let evicted = if self.capacity.is_some_and(|cap| self.resident.len() >= cap) {
            let lru = self
                .resident
                .iter()
                .enumerate()
                .min_by_key(|(_, r)| r.last_use)
                .map(|(index, _)| index)
                .expect("pool at positive capacity is non-empty");
            Some(self.resident.swap_remove(lru).model)
        } else {
            None
        };
        self.resident.push(Resident {
            model,
            loaded_at_seconds: start_seconds + cold_start_seconds,
            last_use: sequence,
        });
        WarmAccess::Miss { evicted }
    }

    /// Whether a task starting at `start_seconds` whose cold start costs
    /// `cold_start_seconds` would find `model` warm — a side-effect-free
    /// residency *probe* for placement ranking. Unlike
    /// [`acquire`](Self::acquire) it never touches LRU order, the access
    /// sequence, or residency, so ranking any number of candidate nodes
    /// cannot perturb which model a later acquire evicts. Returns `true`
    /// exactly when `acquire` with the same arguments would return
    /// [`WarmAccess::Hit`]: zero-cost models are always warm, and a
    /// resident model still loading at `start_seconds` counts as a miss
    /// (the task would pay the cold start concurrently).
    pub fn would_hit(&self, model: ModelId, cold_start_seconds: f64, start_seconds: f64) -> bool {
        if cold_start_seconds <= 0.0 {
            return true;
        }
        self.resident.iter().find(|r| r.model == model).is_some_and(|r| start_seconds >= r.loaded_at_seconds)
    }
}

/// One scheduled task as placed by an [`ExecutorSession`], in schedule
/// order. This is the ground truth dependency tests assert against: a
/// task's [`start_seconds`](Self::start_seconds) is never earlier than any
/// of its dependencies' [`finish_seconds`](Self::finish_seconds).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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
    /// Cold-start seconds this task paid (zero on a warm hit).
    pub cold_start_paid_seconds: f64,
    /// Seconds this task's paid model load waited for a free model-load
    /// channel ([`crate::LustreModel::model_load_channels`]) before its
    /// weights could start streaming. Zero on warm hits and with unlimited
    /// channels. The task's compute begins only after
    /// `start_seconds + herd_wait_seconds + cold_start_paid_seconds`.
    pub herd_wait_seconds: f64,
}

#[derive(Debug, Clone)]
struct Slot {
    kind: SlotKind,
    /// Home node of the slot: tasks whose `preferred_node` differs pay the
    /// filesystem's data-locality penalty when scheduled here.
    node: usize,
    gpu_index: Option<usize>,
}

#[derive(Debug, Clone, Copy)]
struct Finished {
    finish_seconds: f64,
    critical_path_seconds: f64,
}

/// Dependency-graph bookkeeping for one submitted-but-not-yet-dispatched
/// task. The pending set is laid out struct-of-arrays — the `Task` payloads
/// ([`ExecutorSession::pending_tasks`]), this metadata, and the dependent
/// edges live in three parallel arenas — so the drain's seeding and
/// leftover-cycle sweeps scan this small `Copy` record without dragging the
/// task payloads through cache.
#[derive(Debug, Clone, Copy)]
struct PendingMeta {
    /// The batch's release floor (see [`SubmitOptions::release_seconds`]):
    /// the lower bound on the task's ready time.
    floor: f64,
    /// Latest dependency finish seen so far — the task's *unclamped* ready
    /// time. The release-time clamp is applied on top of this when the
    /// task enters the ready queue, so the engine can report how much
    /// readiness the floor deferred ([`CampaignReport::decision_lag_seconds`]).
    raw_ready: f64,
    /// Busy-weighted critical-path length inherited from dependencies.
    chain: f64,
    /// Undispatched dependencies remaining.
    remaining: usize,
    /// A dependency was skipped (here or in an earlier batch): this task
    /// can never find its input and will be skipped too.
    poisoned: bool,
    /// Popped from the ready queue (run or skipped). Entries never popped
    /// by the end of an *unbounded* drain are dependency cycles; a bounded
    /// [`ExecutorSession::advance_until`] leaves them pending instead.
    dispatched: bool,
    /// Already pushed onto the session's ready queue. The queue persists
    /// across bounded drains, so the per-drain seeding sweep must not push
    /// an entry a previous drain (or a mid-drain dependency release)
    /// already queued.
    seeded: bool,
}

/// A small set of arena indices that avoids heap allocation for the
/// overwhelmingly common zero- and one-element cases: in a campaign DAG
/// almost every task has at most one dependent (a document's parse waits on
/// its extract) and almost every id names exactly one pending instance, so
/// a `Vec` per entry would be a million tiny allocations per drain.
#[derive(Debug, Clone, Default)]
enum IndexList {
    /// No indices.
    #[default]
    None,
    /// Exactly one index.
    One(usize),
    /// Two or more indices, in insertion order.
    Many(Vec<usize>),
}

impl IndexList {
    fn push(&mut self, index: usize) {
        match self {
            IndexList::None => *self = IndexList::One(index),
            IndexList::One(first) => *self = IndexList::Many(vec![*first, index]),
            IndexList::Many(list) => list.push(index),
        }
    }

    fn iter(&self) -> IndexListIter<'_> {
        match self {
            IndexList::None => IndexListIter::Slice([].iter()),
            IndexList::One(index) => IndexListIter::One(Some(*index)),
            IndexList::Many(list) => IndexListIter::Slice(list.iter()),
        }
    }
}

impl IntoIterator for IndexList {
    type Item = usize;
    type IntoIter = IndexListIntoIter;

    fn into_iter(self) -> Self::IntoIter {
        match self {
            IndexList::None => IndexListIntoIter::One(None),
            IndexList::One(index) => IndexListIntoIter::One(Some(index)),
            IndexList::Many(list) => IndexListIntoIter::Many(list.into_iter()),
        }
    }
}

enum IndexListIter<'a> {
    One(Option<usize>),
    Slice(std::slice::Iter<'a, usize>),
}

impl Iterator for IndexListIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        match self {
            IndexListIter::One(index) => index.take(),
            IndexListIter::Slice(iter) => iter.next().copied(),
        }
    }
}

enum IndexListIntoIter {
    One(Option<usize>),
    Many(std::vec::IntoIter<usize>),
}

impl Iterator for IndexListIntoIter {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        match self {
            IndexListIntoIter::One(index) => index.take(),
            IndexListIntoIter::Many(iter) => iter.next(),
        }
    }
}

/// Per-model warm-pool counters, indexed by [`ModelId`] in the session's
/// integer-keyed side tables and materialized into [`ModelWarmStats`] (with
/// the label string) only when a report is built.
#[derive(Debug, Clone, Copy, Default)]
struct WarmCounts {
    hits: usize,
    misses: usize,
    evictions: usize,
}

/// Batch-local warm counters plus a touched flag, so the per-drain scratch
/// table can be reset by walking only the touched ids instead of
/// reallocating (or zeroing) the whole table every drain.
#[derive(Debug, Clone, Copy, Default)]
struct BatchWarm {
    counts: WarmCounts,
    touched: bool,
}

/// The workflow executor.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct WorkflowExecutor {
    config: ExecutorConfig,
}

impl WorkflowExecutor {
    /// Create an executor with the given options.
    pub fn new(config: ExecutorConfig) -> Self {
        WorkflowExecutor { config }
    }

    /// The executor's configuration.
    pub fn config(&self) -> ExecutorConfig {
        self.config
    }

    /// Open a resumable session on `cluster`: slots start free at simulated
    /// time zero and warm pools start empty. Feed it batches via
    /// [`ExecutorSession::submit_owned`]; slot availability, warm-pool residency,
    /// pair anchors, and completed-task finish times persist between
    /// batches, which is what lets a closed-loop controller interleave
    /// decisions with execution without barriering the cluster.
    pub fn session(&self, cluster: &ClusterConfig) -> ExecutorSession {
        ExecutorSession::new(self.config, cluster)
    }

    /// Run a whole campaign in one fresh session and report aggregate
    /// statistics. Scheduling policy: tasks are released in
    /// `(ready time, task id)` order and each is dispatched to the slot of
    /// its kind that starts it earliest — a slot's availability plus the
    /// *marginal* completion-time cost of the data-locality penalty the
    /// task would pay there (zero on its preferred node; elsewhere a
    /// [`LustreModel`] re-fetch, which prefetch can partly or fully hide
    /// under compute). Ties prefer the task's own node (even a latency-free
    /// re-fetch burns shared-filesystem bandwidth), then the
    /// longest-idle slot, then the lowest slot index, so scheduling is
    /// fully deterministic; tasks without dependencies or a preferred node
    /// see the classic earliest-available-slot policy.
    pub fn run(&self, tasks: &[Task], cluster: &ClusterConfig, filesystem: &LustreModel) -> CampaignReport {
        let mut session = self.session(cluster);
        session.submit_owned(tasks.to_vec(), SubmitOptions::default());
        session.advance_to_frontier(filesystem)
    }
}

/// A resumable executor run: the cluster's slots, warm pools, pair anchors,
/// and clock, persisting across [`submit_owned`](Self::submit_owned) batches. Created by
/// [`WorkflowExecutor::session`].
#[derive(Debug, Clone)]
pub struct ExecutorSession {
    config: ExecutorConfig,
    cluster: ClusterConfig,
    slots: Vec<Slot>,
    cpu_slots: Vec<usize>,
    gpu_slots: Vec<usize>,
    free_at: Vec<f64>,
    /// One warm pool per node.
    pools: Vec<WarmPool>,
    /// Anchor of each task group: the first member of a group to be
    /// scheduled leaves its output on `node`, and that is where later
    /// members of the same group find their input. `last_finish` tracks
    /// the latest member completion so fully finished anchors can be
    /// retired ([`retire_before`](Self::retire_before)).
    group_nodes: IdMap<GroupAnchor>,
    /// Finish time and critical path of every completed task, so precedence
    /// edges may span submit batches.
    completed: IdMap<Finished>,
    schedule: Vec<ScheduledTask>,
    clock: SimClock,
    cumulative: CampaignReport,
    /// Session-level label interner: warm pools and warm statistics work in
    /// dense [`ModelId`]s, with label strings materialized only in reports.
    interner: ModelInterner,
    /// Session-cumulative warm counters, indexed by [`ModelId`] and updated
    /// incrementally at dispatch time (no per-batch rebuild-and-merge).
    warm_totals: Vec<WarmCounts>,
    /// Per-drain warm-counter scratch, indexed by [`ModelId`]; reset via
    /// `batch_warm_touched` after each drain and reused across drains.
    batch_warm: Vec<BatchWarm>,
    /// Ids touched in `batch_warm` this drain, in first-touch order.
    batch_warm_touched: Vec<ModelId>,
    /// Ids of tasks skipped in any batch (no slot, cycle, or poisoned
    /// dependency), so dependents submitted in *later* batches are skipped
    /// too — the skip cascade spans batch boundaries, like the completion
    /// map does. The value is the simulated time the skip was recorded,
    /// so [`retire_before`](Self::retire_before) can age entries out.
    skipped: IdMap<f64>,
    /// The session-persistent pending set: tasks enqueued by
    /// [`submit_owned`](Self::submit_owned) that
    /// [`advance_to_frontier`](Self::advance_to_frontier) has not yet
    /// drained. Cleared after every unbounded drain (the engine dispatches
    /// eagerly, so nothing lingers) and compacted down to the undispatched
    /// backlog after every bounded [`advance_until`](Self::advance_until);
    /// batches enqueued *between* drains share this arena and interleave
    /// in `(ready time, task id)` event order.
    /// Struct-of-arrays: `pending_meta[i]` and `pending_dependents[i]`
    /// belong to `pending_tasks[i]`.
    pending_tasks: Vec<Task>,
    /// Dependency bookkeeping parallel to `pending_tasks`.
    pending_meta: Vec<PendingMeta>,
    /// Arena indices of the pending tasks waiting on each pending task,
    /// parallel to `pending_tasks`.
    pending_dependents: Vec<IndexList>,
    /// Undispatched arena indices by task id, for wiring dependency edges
    /// across batches enqueued into the same drain.
    pending_by_id: IdMap<IndexList>,
    /// The session-persistent ready queue feeding the dispatch loop.
    ready: ReadyQueue<usize>,
    /// Per-(node, kind) ordered index of slot availability: the dispatch
    /// loop's earliest-effective-slot query without the O(slots) scan.
    slot_index: SlotIndex,
    /// Finish times no in-flight query or retirement has passed yet,
    /// backing [`tasks_in_flight_at`](Self::tasks_in_flight_at).
    in_flight: InFlightCounter,
    /// Latest task start so far — the *dispatch frontier*: the simulated
    /// time at which the engine last ran out of undispatched work, which
    /// is the natural event boundary for a closed loop to make its next
    /// admission decision at.
    frontier: f64,
    /// Nodes currently receiving new work: dispatch only targets nodes
    /// `< active_nodes`. Tasks already running on a node drained by
    /// [`set_active_nodes`](Self::set_active_nodes) run to completion, and
    /// the node's warm pools and slot availability stay indexed for when
    /// the fleet grows back.
    active_nodes: usize,
    gpu_count: usize,
    /// Free-at times of the shared model-load channels
    /// ([`LustreModel::model_load_channels`]), persisting across batches so
    /// a herd straddling a drain boundary still queues. Resized at each
    /// drain to the filesystem's channel count; empty means unlimited.
    load_channel_free: Vec<f64>,
    /// `(load_start, load_end)` of every paid cold start this session *not
    /// yet retired*, in dispatch order — the sweep input for the
    /// session-exact [`CampaignReport::concurrent_cold_starts_peak`],
    /// combined with [`retired_peak`](Self::retire_before) for history
    /// below the watermark.
    load_intervals: Vec<(f64, f64)>,
    /// Exclusive upper bound of retired history: every observable at or
    /// after it is bitwise identical to the unretired session (see
    /// [`retire_before`](Self::retire_before)). Starts at zero.
    retire_watermark: f64,
    /// Exact concurrent-cold-start peak over `[0, retire_watermark)`,
    /// carried across retirements so the cumulative peak never needs the
    /// retired intervals again.
    retired_peak: usize,
    /// Schedule rows dropped by [`retire_before`](Self::retire_before):
    /// the base offset of the retained `schedule` vector in global
    /// schedule-order coordinates (see [`schedule_since`](Self::schedule_since)).
    retired_rows: usize,
    /// Interned model ids sorted by resolved label — the report's
    /// `warm_models` row order, maintained incrementally as the interner
    /// grows so [`report`](Self::report) never re-sorts label strings.
    warm_order: Vec<ModelId>,
}

/// Where a task group's output lives and when its members last finished.
#[derive(Debug, Clone, Copy)]
struct GroupAnchor {
    node: usize,
    /// Latest finish among the group's dispatched members — the earliest
    /// watermark at which the anchor itself can retire.
    last_finish: f64,
}

impl ExecutorSession {
    fn new(config: ExecutorConfig, cluster: &ClusterConfig) -> Self {
        let mut slots = Vec::new();
        let mut gpu_count = 0usize;
        for node in 0..cluster.nodes {
            for _ in 0..cluster.cpu_slots_per_node {
                slots.push(Slot { kind: SlotKind::Cpu, node, gpu_index: None });
            }
            for _ in 0..cluster.gpu_slots_per_node {
                slots.push(Slot { kind: SlotKind::Gpu, node, gpu_index: Some(gpu_count) });
                gpu_count += 1;
            }
        }
        let cpu_slots: Vec<usize> = (0..slots.len()).filter(|&i| slots[i].kind == SlotKind::Cpu).collect();
        let gpu_slots: Vec<usize> = (0..slots.len()).filter(|&i| slots[i].kind == SlotKind::Gpu).collect();
        let free_at = vec![0.0f64; slots.len()];
        let pools = (0..cluster.nodes).map(|_| WarmPool::new(config.warm_pool_capacity)).collect();
        let mut slot_index = SlotIndex::new(cluster.nodes);
        for (index, slot) in slots.iter().enumerate() {
            slot_index.insert(slot.kind, slot.node, 0.0, index);
        }
        ExecutorSession {
            config,
            cluster: *cluster,
            slots,
            cpu_slots,
            gpu_slots,
            free_at,
            pools,
            group_nodes: IdMap::default(),
            completed: IdMap::default(),
            schedule: Vec::new(),
            clock: SimClock::new(),
            cumulative: CampaignReport::blank(gpu_count),
            interner: ModelInterner::new(),
            warm_totals: Vec::new(),
            batch_warm: Vec::new(),
            batch_warm_touched: Vec::new(),
            skipped: IdMap::default(),
            pending_tasks: Vec::new(),
            pending_meta: Vec::new(),
            pending_dependents: Vec::new(),
            pending_by_id: IdMap::default(),
            ready: ReadyQueue::new(),
            slot_index,
            in_flight: InFlightCounter::new(),
            frontier: 0.0,
            active_nodes: cluster.nodes,
            gpu_count,
            load_channel_free: Vec::new(),
            load_intervals: Vec::new(),
            retire_watermark: 0.0,
            retired_peak: 0,
            retired_rows: 0,
            warm_order: Vec::new(),
        }
    }

    /// The session's simulated time: the latest completion seen so far.
    pub fn now_seconds(&self) -> f64 {
        self.clock.now_seconds()
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
        self.pending_meta.iter().filter(|m| !m.dispatched).count()
    }

    /// Nodes currently receiving new work (see
    /// [`set_active_nodes`](Self::set_active_nodes)).
    pub fn active_nodes(&self) -> usize {
        self.active_nodes
    }

    /// Resize the *active fleet*: dispatch from now on only targets nodes
    /// `< nodes` (clamped to `1..=cluster.nodes`). This is the
    /// fleet-autoscaling hook for a resident service: shrinking never
    /// preempts — tasks already dispatched to a drained node run to
    /// completion, and the node keeps its slot availability and warm-pool
    /// residency so growing the fleet back is instant (resident models on
    /// returning nodes are still warm). Fully deterministic: the active
    /// fleet is always the prefix of the node list, so two runs issuing the
    /// same `set_active_nodes` calls at the same event boundaries place
    /// every task identically.
    pub fn set_active_nodes(&mut self, nodes: usize) {
        self.active_nodes = nodes.clamp(1, self.cluster.nodes);
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
    /// time is the dispatch frontier, which never rewinds. Each call pops
    /// the finishes passed since the last one, so a per-epoch caller pays
    /// O(Δ log in-flight) even over a million-task campaign.
    pub fn tasks_in_flight_at(&mut self, seconds: f64) -> usize {
        self.in_flight.count_after(seconds)
    }

    /// Every *retained* scheduled task, in schedule order (ready-queue pop
    /// order), across all submitted batches. Without retirement this is
    /// the full session schedule; after [`retire_before`](Self::retire_before)
    /// the retained rows start [`retired_rows`](Self::retired_rows) deep
    /// into global schedule order — cursor-based harvesters should use
    /// [`schedule_since`](Self::schedule_since) /
    /// [`schedule_len`](Self::schedule_len) instead of indexing this slice.
    pub fn schedule(&self) -> &[ScheduledTask] {
        &self.schedule
    }

    /// Total schedule rows ever produced (retired rows included): the
    /// global-order cursor value a harvester holds after consuming
    /// everything. `schedule_len() - retired_rows()` rows are retained.
    pub fn schedule_len(&self) -> usize {
        self.retired_rows + self.schedule.len()
    }

    /// Schedule rows dropped by [`retire_before`](Self::retire_before) so
    /// far — the base offset of [`schedule`](Self::schedule) in global
    /// schedule order.
    pub fn retired_rows(&self) -> usize {
        self.retired_rows
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
        assert!(
            cursor >= self.retired_rows,
            "schedule cursor {cursor} points below the retirement watermark ({} rows retired)",
            self.retired_rows
        );
        &self.schedule[cursor - self.retired_rows..]
    }

    /// Exclusive upper bound of retired history — zero until
    /// [`retire_before`](Self::retire_before) is first called.
    pub fn retire_watermark(&self) -> f64 {
        self.retire_watermark
    }

    /// Number of completed-task records currently retained (the
    /// cross-batch dependency map). Grows with work, shrinks at
    /// [`retire_before`](Self::retire_before) — a steady-state memory
    /// probe for soak benchmarks.
    pub fn retained_completed_tasks(&self) -> usize {
        self.completed.len()
    }

    /// Number of cold-start load intervals currently retained (the peak
    /// sweep's input). Same probe role as
    /// [`retained_completed_tasks`](Self::retained_completed_tasks).
    pub fn retained_load_intervals(&self) -> usize {
        self.load_intervals.len()
    }

    /// Drop session history that finished at or before `watermark_seconds`:
    /// schedule rows, completed-task records, skip records, fully-finished
    /// group anchors, cold-start load intervals (their exact peak is
    /// carried forward), in-flight counter entries, and the cumulative GPU
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
    /// stats, the concurrent-cold-start peak, and the trace's busy/load
    /// accounting; only the trace's raw span list and per-bin
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
        if watermark_seconds <= self.retire_watermark {
            return;
        }
        let w = watermark_seconds;
        // Peak carry first, while the intervals open below `w` are still
        // present: after this, `retired_peak` is the exact sweep maximum
        // over all history in `[0, w)`.
        self.retired_peak = self.retired_peak.max(peak_concurrent_loads_below(&self.load_intervals, w));
        self.load_intervals.retain(|&(_, end)| end > w);
        // Schedule rows retire as the longest finished *prefix* (finishes
        // are not monotone in pop order), keeping the retained rows
        // contiguous in global schedule order for `schedule_since`.
        let cut = self.schedule.iter().position(|row| row.finish_seconds > w).unwrap_or(self.schedule.len());
        self.schedule.drain(..cut);
        self.retired_rows += cut;
        self.completed.retain(|_, done| done.finish_seconds > w);
        self.skipped.retain(|_, &mut at| at > w);
        self.group_nodes.retain(|_, anchor| anchor.last_finish > w);
        self.in_flight.retire(w);
        self.cumulative.gpu_trace.retire_before(w);
        self.retire_watermark = w;
    }

    /// The session-cumulative report over every batch submitted so far.
    ///
    /// O(models + retained load intervals) plus one clone of the
    /// cumulative GPU trace: the warm-model rows come pre-sorted from the
    /// incrementally maintained label order, and the concurrent-cold-start
    /// peak sweeps only the intervals above the retirement watermark (the
    /// carried [`retire_before`](Self::retire_before) prefix peak covers
    /// the rest exactly). Per-epoch callers that do not need the trace
    /// should use [`report_snapshot`](Self::report_snapshot), which skips
    /// the trace clone too.
    pub fn report(&self) -> CampaignReport {
        let mut report = self.cumulative.clone();
        self.finish_report(&mut report);
        report
    }

    /// [`report`](Self::report) without the per-GPU trace: every other
    /// field is bitwise identical, but `gpu_trace` is a blank
    /// [`GpuTrace`] over the session's GPU count — O(models + retained
    /// load intervals) with no O(session-history) clone. This is the
    /// per-wave/per-epoch reporting path for resident loops; take the full
    /// [`report`](Self::report) once at close when the trace is wanted.
    pub fn report_snapshot(&self) -> CampaignReport {
        let c = &self.cumulative;
        let mut report = CampaignReport {
            tasks_completed: c.tasks_completed,
            tasks_skipped: c.tasks_skipped,
            makespan_seconds: c.makespan_seconds,
            throughput_per_second: c.throughput_per_second,
            cpu_busy_seconds: c.cpu_busy_seconds,
            gpu_busy_seconds: c.gpu_busy_seconds,
            stage_in_seconds: c.stage_in_seconds,
            cold_starts: c.cold_starts,
            non_local_tasks: c.non_local_tasks,
            locality_penalty_seconds: c.locality_penalty_seconds,
            co_located_pairs: c.co_located_pairs,
            split_pairs: c.split_pairs,
            critical_path_seconds: c.critical_path_seconds,
            queue_wait_seconds: c.queue_wait_seconds,
            decision_lag_seconds: c.decision_lag_seconds,
            warm_hits: c.warm_hits,
            warm_evictions: c.warm_evictions,
            herd_queue_seconds: c.herd_queue_seconds,
            concurrent_cold_starts_peak: c.concurrent_cold_starts_peak,
            warm_models: Vec::new(),
            stage_timings: c.stage_timings,
            gpu_trace: GpuTrace::new(self.gpu_count),
        };
        self.finish_report(&mut report);
        report
    }

    /// The derived fields shared by [`report`](Self::report) and
    /// [`report_snapshot`](Self::report_snapshot): throughput, the
    /// label-ordered warm rows, and the watermark-carried exact peak.
    fn finish_report(&self, report: &mut CampaignReport) {
        report.throughput_per_second = if report.makespan_seconds > 0.0 {
            report.tasks_completed as f64 / report.makespan_seconds
        } else {
            0.0
        };
        // `warm_order` holds every interned id sorted by label, so this is
        // the same row set and order `materialize_warm_models` would build
        // from scratch — without the per-call sort.
        report.warm_models = self
            .warm_order
            .iter()
            .map(|&id| {
                let counts = self.warm_totals[id as usize];
                ModelWarmStats {
                    model: self.interner.resolve(id).to_string(),
                    hits: counts.hits,
                    misses: counts.misses,
                    evictions: counts.evictions,
                }
            })
            .collect();
        // The cumulative peak is exact over the whole session: the carried
        // prefix peak covers `[0, watermark)` and the sweep covers the
        // retained intervals (the per-batch maximum `absorb` keeps is only
        // a lower bound when a herd straddles a drain boundary).
        report.concurrent_cold_starts_peak =
            self.retired_peak.max(peak_concurrent_loads(&self.load_intervals));
    }

    /// Build report-facing [`ModelWarmStats`] rows from integer-keyed
    /// counters, resolving ids back to label strings and sorting by label
    /// (the order the old `BTreeMap<String, _>` bookkeeping produced).
    fn materialize_warm_models(
        &self,
        counts: impl Iterator<Item = (ModelId, WarmCounts)>,
    ) -> Vec<ModelWarmStats> {
        let mut models: Vec<ModelWarmStats> = counts
            .map(|(id, counts)| ModelWarmStats {
                model: self.interner.resolve(id).to_string(),
                hits: counts.hits,
                misses: counts.misses,
                evictions: counts.evictions,
            })
            .collect();
        models.sort_by(|a, b| a.model.cmp(&b.model));
        models
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
            None => self.clock.now_seconds(),
        };
        // --- Dependency graph over the session's pending set. Insert the
        // whole batch first so in-batch forward references resolve. ---
        let base = self.pending_tasks.len();
        self.pending_tasks.reserve(tasks.len());
        self.pending_meta.reserve(tasks.len());
        self.pending_dependents.reserve(tasks.len());
        self.pending_by_id.reserve(tasks.len());
        for task in tasks {
            let index = self.pending_tasks.len();
            self.pending_by_id.entry(task.id).or_default().push(index);
            self.pending_tasks.push(task);
            self.pending_meta.push(PendingMeta {
                floor,
                raw_ready: 0.0,
                chain: 0.0,
                remaining: 0,
                poisoned: false,
                dispatched: false,
                seeded: false,
            });
            self.pending_dependents.push(IndexList::None);
        }
        for index in base..self.pending_tasks.len() {
            let deps = std::mem::take(&mut self.pending_tasks[index].depends_on);
            for dep in &deps {
                if let Some(instances) = self.pending_by_id.get(dep).cloned() {
                    // A pending dependency — in this batch or an earlier
                    // batch enqueued into the same drain (a self-edge
                    // joins the cycle leftovers: its count never drains).
                    for instance in instances {
                        self.pending_meta[index].remaining += 1;
                        self.pending_dependents[instance].push(index);
                    }
                } else if let Some(done) = self.completed.get(dep) {
                    let meta = &mut self.pending_meta[index];
                    meta.raw_ready = meta.raw_ready.max(done.finish_seconds);
                    meta.chain = meta.chain.max(done.critical_path_seconds);
                } else if self.skipped.contains_key(dep) {
                    // The dependency was skipped in an earlier batch: its
                    // output never materialized, so this task is skipped
                    // too (same cascade as within a batch).
                    self.pending_meta[index].poisoned = true;
                }
                // Unknown ids are vacuously satisfied at time zero.
            }
            self.pending_tasks[index].depends_on = deps;
        }
        // Forward edges: an *earlier* undrained batch may depend on ids
        // this batch introduces — same-drain edges are real in either
        // enqueue direction, so wire the new instances in. (Instances
        // enqueued before the dependent were wired above or at its own
        // enqueue; only indices >= base are new.) Ready-queue population
        // is deferred to the drain, so a task that loses its
        // released-vacuously status here was never prematurely queued.
        let mut fresh: Vec<usize> = Vec::new();
        for earlier in 0..base {
            let deps = std::mem::take(&mut self.pending_tasks[earlier].depends_on);
            for dep in &deps {
                if let Some(instances) = self.pending_by_id.get(dep) {
                    fresh.clear();
                    fresh.extend(instances.iter().filter(|&i| i >= base));
                    for &instance in &fresh {
                        self.pending_meta[earlier].remaining += 1;
                        self.pending_dependents[instance].push(earlier);
                    }
                }
            }
            self.pending_tasks[earlier].depends_on = deps;
        }
    }

    /// A pending task's ready-queue release time: its latest dependency
    /// finish, clamped to its batch's release floor.
    fn release_time(&self, index: usize) -> f64 {
        let meta = &self.pending_meta[index];
        meta.raw_ready.max(meta.floor)
    }

    /// Mark `id` touched in the per-drain warm scratch, growing the
    /// integer-keyed side tables if the interner has grown. New ids are
    /// also spliced into `warm_order` at their label's sorted position, so
    /// reports read the rows off in label order without ever re-sorting.
    fn touch_warm(&mut self, id: ModelId) {
        let needed = self.interner.len();
        if self.batch_warm.len() < needed {
            let grown = self.batch_warm.len()..needed;
            self.batch_warm.resize(needed, BatchWarm::default());
            self.warm_totals.resize(needed, WarmCounts::default());
            for new_id in grown {
                let new_id = new_id as ModelId;
                let label = self.interner.resolve(new_id);
                let pos = self
                    .warm_order
                    .binary_search_by(|&seen| self.interner.resolve(seen).cmp(label))
                    .unwrap_err();
                self.warm_order.insert(pos, new_id);
            }
        }
        let entry = &mut self.batch_warm[id as usize];
        if !entry.touched {
            entry.touched = true;
            self.batch_warm_touched.push(id);
        }
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
    /// Panics if `until_seconds` is NaN.
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
        let advance_floor = self.clock.now_seconds();
        let mut report = CampaignReport::blank(self.gpu_count);
        let mut batch_trace = GpuTrace::new(self.gpu_count);

        // In steady state every node stages data concurrently; that is the
        // contention level the shared filesystem sees.
        let staging_concurrency = self.cluster.nodes;
        let mut batch_first_start = f64::INFINITY;
        // Shared model-load channels: paid cold starts queue on these.
        // Resynced per drain so the filesystem parameter may change between
        // batches; an empty vector (0 channels) is unlimited — the legacy
        // free-parallel-load behavior, bitwise.
        if self.load_channel_free.len() != filesystem.model_load_channels {
            self.load_channel_free.resize(filesystem.model_load_channels, 0.0);
        }
        // This drain's paid-load intervals, for the batch-exact
        // `concurrent_cold_starts_peak` sweep.
        let mut batch_load_intervals: Vec<(f64, f64)> = Vec::new();

        // Seed the ready queue with every pending task whose dependencies
        // are already satisfied. Deferred to the drain (rather than done
        // at enqueue) so that batches enqueued later into the same drain
        // may still add forward edges to earlier ones. The queue persists
        // across bounded drains, so entries it already holds (seeded by an
        // earlier drain, released after its bound) must not be re-pushed.
        for index in 0..self.pending_meta.len() {
            let meta = self.pending_meta[index];
            if meta.remaining == 0 && !meta.seeded {
                self.pending_meta[index].seeded = true;
                let release = self.release_time(index);
                self.ready.push(release, self.pending_tasks[index].id, index);
            }
        }

        loop {
            if let Some(limit) = until {
                match self.ready.peek_time() {
                    Some(next) if next <= limit => {}
                    _ => break,
                }
            }
            let Some((time, _, index)) = self.ready.pop() else { break };
            self.pending_meta[index].dispatched = true;
            // Move the task out of the arena (it is dispatched exactly
            // once and the arena clears at the end of the drain) — no
            // per-dispatch clone of its dependency list.
            let task = std::mem::replace(&mut self.pending_tasks[index], Task::new(0, SlotKind::Cpu, 0.0));
            let PendingMeta { floor, raw_ready, chain, poisoned, .. } = self.pending_meta[index];
            let no_slots = match task.slot {
                SlotKind::Cpu => self.cpu_slots.is_empty(),
                SlotKind::Gpu => self.gpu_slots.is_empty(),
            };
            if poisoned || no_slots {
                report.tasks_skipped += 1;
                self.skipped.insert(task.id, time);
                // Dependents of a skipped task can never find their input.
                for dependent in std::mem::take(&mut self.pending_dependents[index]) {
                    let meta = &mut self.pending_meta[dependent];
                    meta.poisoned = true;
                    meta.remaining -= 1;
                    if meta.remaining == 0 {
                        meta.seeded = true;
                        let release = self.release_time(dependent).max(time);
                        self.ready.push(release, self.pending_tasks[dependent].id, dependent);
                    }
                }
                continue;
            }

            let base_stage_in = filesystem.stage_in_seconds(
                task.input_mb,
                task.input_files,
                staging_concurrency,
                self.config.node_local_staging,
            );
            // Where the task's input actually lives: a pair's later members
            // find it on the node the pair was anchored to (the first
            // member's output is there); everyone else finds it where the
            // plan staged it. `believed_node` is what the *scheduler* acts
            // on — with co-scheduling disabled it naively trusts the static
            // plan and only discovers the re-fetch at accounting time.
            let anchor = task.group.as_ref().and_then(|g| self.group_nodes.get(&g.id)).map(|a| a.node);
            let data_node = anchor.or(task.preferred_node);
            let believed_node = if self.config.co_schedule_pairs { data_node } else { task.preferred_node };
            let off_node_penalty = match data_node {
                Some(_) => filesystem.locality_penalty_seconds(task.input_mb, staging_concurrency),
                None => 0.0,
            };
            // What the penalty costs in *completion time*: with prefetch
            // the re-fetch hides under compute, so only the part that
            // pushes stage-in past the compute time delays the task.
            let marginal_penalty = if self.config.prefetch {
                task.compute_seconds.max(base_stage_in + off_node_penalty)
                    - task.compute_seconds.max(base_stage_in)
            } else {
                off_node_penalty
            };
            // Pick the slot starting the task earliest (its free time or
            // the task's ready time, whichever is later, plus the
            // marginal penalty off-node); ties prefer the task's own
            // node (a free local slot always beats an equally free
            // remote one, even when prefetch makes the re-fetch
            // latency-free — it still burns shared-filesystem
            // bandwidth), then the longest-idle slot, then the lowest
            // slot index. Fully deterministic, and answered by the
            // per-(node, kind) [`SlotIndex`] in O(nodes + log slots)
            // instead of a scan over every slot of the kind.
            //
            // Under `CostAware` the ranking additionally charges each
            // candidate node the cold start the task would pay there — a
            // side-effect-free `would_hit` probe of the node's warm pool,
            // so ranking cannot perturb LRU order. The probe only runs
            // when the cold addend can differ across nodes (warm starts
            // on, positive cold start); otherwise it would be a uniform
            // addend, which float rounding could collapse into spurious
            // ties, so the plain earliest-slot scan — to which the policy
            // is then exactly equivalent — answers instead.
            let cost_probe = if self.config.placement == PlacementPolicy::CostAware
                && self.config.warm_start
                && task.cold_start_seconds > 0.0
            {
                Some(self.interner.intern(task.label))
            } else {
                None
            };
            let slot_index = match cost_probe {
                Some(label_id) => {
                    let pools = &self.pools;
                    let cold_cost = task.cold_start_seconds;
                    self.slot_index.best_slot_cost_aware(
                        task.slot,
                        time,
                        marginal_penalty,
                        believed_node,
                        self.active_nodes,
                        |node, projected_start| {
                            if pools[node].would_hit(label_id, cold_cost, projected_start) {
                                0.0
                            } else {
                                cold_cost
                            }
                        },
                    )
                }
                None => self.slot_index.best_slot(
                    task.slot,
                    time,
                    marginal_penalty,
                    believed_node,
                    self.active_nodes,
                ),
            }
            .expect("slots of this kind exist, so the index has a champion");
            // The penalty actually *paid* is against the data's real
            // location, not the scheduler's belief: a scheduler that
            // ignored the pair anchor still re-fetches from the shared
            // filesystem when the data is elsewhere.
            let penalty = match data_node {
                Some(node) if self.slots[slot_index].node != node => off_node_penalty,
                _ => 0.0,
            };
            // Later members of an anchored group count as co-located or
            // split; the first claims the node once `end` is known below.
            match anchor {
                None => {}
                Some(node) if node == self.slots[slot_index].node => report.co_located_pairs += 1,
                Some(_) => report.split_pairs += 1,
            }
            if penalty > 0.0 {
                report.non_local_tasks += 1;
                report.locality_penalty_seconds += penalty;
            }

            let start = self.free_at[slot_index].max(time);
            batch_first_start = batch_first_start.min(start);
            let node = self.slots[slot_index].node;
            // Warm pools: resident models are free, absent or still-loading
            // ones pay the cold start; zero-cost models bypass the pool
            // entirely (nothing to load, no capacity occupied, no stats).
            let cold = if task.cold_start_seconds <= 0.0 {
                0.0
            } else if !self.config.warm_start {
                task.cold_start_seconds
            } else {
                // One interner lookup per task; the pool and both counter
                // tables (per-drain scratch and session totals) work in the
                // dense id. Session totals accumulate right here — there is
                // no per-batch map rebuilt and re-merged at absorb time.
                let label_id = self.interner.intern(task.label);
                self.touch_warm(label_id);
                match self.pools[node].acquire(label_id, task.cold_start_seconds, start) {
                    WarmAccess::Hit => {
                        self.batch_warm[label_id as usize].counts.hits += 1;
                        self.warm_totals[label_id as usize].hits += 1;
                        report.warm_hits += 1;
                        0.0
                    }
                    WarmAccess::Loading => {
                        self.batch_warm[label_id as usize].counts.misses += 1;
                        self.warm_totals[label_id as usize].misses += 1;
                        task.cold_start_seconds
                    }
                    WarmAccess::Miss { evicted } => {
                        self.batch_warm[label_id as usize].counts.misses += 1;
                        self.warm_totals[label_id as usize].misses += 1;
                        if let Some(victim) = evicted {
                            report.warm_evictions += 1;
                            self.touch_warm(victim);
                            self.batch_warm[victim as usize].counts.evictions += 1;
                            self.warm_totals[victim as usize].evictions += 1;
                        }
                        task.cold_start_seconds
                    }
                }
            };
            // A paid cold start must claim a model-load channel before its
            // weights can stream; with none free it queues behind the
            // earliest-finishing load (lowest channel index on ties). The
            // wait is the herd-serialization cost: compute begins only once
            // the channel frees *and* the load completes.
            let herd_wait = if cold > 0.0 && !self.load_channel_free.is_empty() {
                let channel = self
                    .load_channel_free
                    .iter()
                    .enumerate()
                    .min_by_key(|&(index, &free)| (free.to_bits(), index))
                    .map(|(index, _)| index)
                    .expect("checked non-empty");
                let load_start = self.load_channel_free[channel].max(start);
                self.load_channel_free[channel] = load_start + cold;
                load_start - start
            } else {
                0.0
            };
            if cold > 0.0 {
                report.cold_starts += 1;
                report.herd_queue_seconds += herd_wait;
                let load_start = start + herd_wait;
                batch_load_intervals.push((load_start, load_start + cold));
                self.load_intervals.push((load_start, load_start + cold));
            }

            // Prefetching overlaps stage-in with compute; otherwise they are
            // serial. Model loading (queueing included) can never be
            // overlapped. `stall` is bitwise `cold` when no herd wait was
            // paid, so unlimited channels reproduce the legacy arithmetic
            // exactly.
            let stall = herd_wait + cold;
            let stage_in = base_stage_in + penalty;
            let busy = if self.config.prefetch {
                stall + task.compute_seconds.max(stage_in)
            } else {
                stall + stage_in + task.compute_seconds
            };
            let end = start + busy;
            report.stage_in_seconds += stage_in;
            // `time` is already clamped to the floor, and `start >= time`.
            report.queue_wait_seconds += start - time;
            // How far the task's dependency-only readiness preceded the
            // decision that released it.
            report.decision_lag_seconds += (floor - raw_ready).max(0.0);
            debug_assert!(start >= floor, "no task may start before its release floor");
            match self.slots[slot_index].kind {
                SlotKind::Cpu => report.cpu_busy_seconds += busy,
                SlotKind::Gpu => {
                    report.gpu_busy_seconds += busy;
                    if let Some(gpu) = self.slots[slot_index].gpu_index {
                        if cold > 0.0 {
                            batch_trace.record(gpu, start, start + stall, true);
                        }
                        batch_trace.record(gpu, start + stall, end, false);
                    }
                }
            }
            if let Some(group) = &task.group {
                report.stage_timings.record(group.role, busy, end);
                // The first member anchors the group to this node; its
                // retirement horizon is the latest member finish.
                self.group_nodes
                    .entry(group.id)
                    .and_modify(|anchor| anchor.last_finish = anchor.last_finish.max(end))
                    .or_insert(GroupAnchor { node, last_finish: end });
            }
            report.tasks_completed += 1;
            report.makespan_seconds = report.makespan_seconds.max(end);
            let critical_path = chain + busy;
            report.critical_path_seconds = report.critical_path_seconds.max(critical_path);
            let old_free = self.free_at[slot_index];
            self.free_at[slot_index] = end;
            self.slot_index.update(task.slot, node, old_free, end, slot_index);
            self.in_flight.insert(end);
            self.frontier = self.frontier.max(start);
            self.completed
                .insert(task.id, Finished { finish_seconds: end, critical_path_seconds: critical_path });
            self.schedule.push(ScheduledTask {
                id: task.id,
                label: task.label,
                kind: task.slot,
                node,
                ready_seconds: time,
                submitted_at_seconds: floor,
                start_seconds: start,
                finish_seconds: end,
                cold_start_paid_seconds: cold,
                herd_wait_seconds: herd_wait,
            });
            // Release dependents whose last dependency just finished.
            for dependent in std::mem::take(&mut self.pending_dependents[index]) {
                let meta = &mut self.pending_meta[dependent];
                meta.raw_ready = meta.raw_ready.max(end);
                meta.chain = meta.chain.max(critical_path);
                meta.remaining -= 1;
                if meta.remaining == 0 {
                    meta.seeded = true;
                    let release = self.release_time(dependent);
                    self.ready.push(release, self.pending_tasks[dependent].id, dependent);
                }
            }
        }
        if until.is_none() {
            // Tasks never released: dependency cycles (including
            // self-edges). They count as skipped, and — like every other
            // skip — poison their dependents in later batches.
            let swept_at = advance_floor.max(report.makespan_seconds);
            for (index, meta) in self.pending_meta.iter().enumerate() {
                if !meta.dispatched {
                    self.skipped.insert(self.pending_tasks[index].id, swept_at);
                    report.tasks_skipped += 1;
                }
            }
            // Everything pending has now been dispatched or skipped; later
            // batches resolve dependencies through the completion and skip
            // maps, so the arenas empty between drains (keeping their
            // capacity for the next batch).
            self.pending_tasks.clear();
            self.pending_meta.clear();
            self.pending_dependents.clear();
            self.pending_by_id.clear();
        } else {
            // A bounded drain leaves later-released tasks pending; evict
            // only the dispatched entries so the arenas stay proportional
            // to the live backlog over a long-running service.
            self.compact_pending();
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
        let batch_span = report.makespan_seconds - batch_first_start.min(report.makespan_seconds);
        report.throughput_per_second =
            if batch_span > 0.0 { report.tasks_completed as f64 / batch_span } else { 0.0 };
        report.gpu_trace = batch_trace;
        report.concurrent_cold_starts_peak = peak_concurrent_loads(&batch_load_intervals);
        // Materialize the batch's warm rows from the touched scratch slots,
        // then reset exactly those slots for the next drain.
        report.warm_models = self.materialize_warm_models(
            self.batch_warm_touched.iter().map(|&id| (id, self.batch_warm[id as usize].counts)),
        );
        for &touched in &self.batch_warm_touched {
            self.batch_warm[touched as usize] = BatchWarm::default();
        }
        self.batch_warm_touched.clear();
        self.absorb(&report);
        report
    }

    /// Evict dispatched entries from the pending arenas after a bounded
    /// drain, compacting the live (undispatched) remainder in place so the
    /// arenas — and the forward-edge sweep each later
    /// [`submit_owned`](Self::submit_owned) runs over them — stay
    /// proportional to the live backlog instead of growing with everything
    /// a resident service ever admitted.
    ///
    /// Dependent edges only ever point at live entries (a task with an
    /// undispatched dependency has `remaining > 0`, so it was never popped;
    /// a dispatched entry's dependent list was taken at dispatch), so the
    /// order-preserving remap rewrites only live lists. Ready-queue
    /// payloads are remapped by re-pushing in pop order, which preserves
    /// the deterministic `(time, id, insertion)` order exactly.
    fn compact_pending(&mut self) {
        if !self.pending_meta.iter().any(|meta| meta.dispatched) {
            return;
        }
        // Ready entries always reference undispatched tasks (each entry is
        // pushed once, and popping it is what dispatches the task), so if
        // everything is dispatched the queue is empty and a plain clear
        // suffices.
        if self.pending_meta.iter().all(|meta| meta.dispatched) {
            debug_assert!(self.ready.is_empty(), "ready queue must not outlive a fully dispatched arena");
            self.pending_tasks.clear();
            self.pending_meta.clear();
            self.pending_dependents.clear();
            self.pending_by_id.clear();
            return;
        }
        let len = self.pending_meta.len();
        let mut remap = vec![usize::MAX; len];
        let mut live = 0usize;
        for (old, slot) in remap.iter_mut().enumerate() {
            if !self.pending_meta[old].dispatched {
                *slot = live;
                if live != old {
                    self.pending_tasks.swap(live, old);
                    self.pending_meta[live] = self.pending_meta[old];
                    self.pending_dependents[live] = std::mem::take(&mut self.pending_dependents[old]);
                }
                live += 1;
            }
        }
        self.pending_tasks.truncate(live);
        self.pending_meta.truncate(live);
        self.pending_dependents.truncate(live);
        for list in &mut self.pending_dependents {
            match list {
                IndexList::None => {}
                IndexList::One(index) => *index = remap[*index],
                IndexList::Many(indices) => {
                    for index in indices {
                        *index = remap[*index];
                    }
                }
            }
        }
        self.pending_by_id.clear();
        for (index, task) in self.pending_tasks.iter().enumerate() {
            self.pending_by_id.entry(task.id).or_default().push(index);
        }
        if !self.ready.is_empty() {
            let mut entries = Vec::with_capacity(self.ready.len());
            while let Some(entry) = self.ready.pop() {
                entries.push(entry);
            }
            for (time, id, index) in entries {
                debug_assert!(remap[index] != usize::MAX, "queued entries reference live tasks");
                self.ready.push(time, id, remap[index]);
            }
        }
    }

    /// Fold a batch report into the session-cumulative one. (Warm-model
    /// counters are *not* folded here — they accumulate incrementally in
    /// `warm_totals` at dispatch time.)
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
        total.warm_evictions += batch.warm_evictions;
        total.herd_queue_seconds += batch.herd_queue_seconds;
        // A per-batch max is a lower bound on the session-wide peak when a
        // herd straddles a drain boundary; `report()` recomputes the exact
        // figure over every session load interval.
        total.concurrent_cold_starts_peak =
            total.concurrent_cold_starts_peak.max(batch.concurrent_cold_starts_peak);
        total.stage_timings.absorb(&batch.stage_timings);
        total.gpu_trace.merge(&batch.gpu_trace);
        self.clock.advance_to(batch.makespan_seconds);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn cpu_tasks(n: usize, seconds: f64) -> Vec<Task> {
        (0..n).map(|i| Task::new(i as u64, SlotKind::Cpu, seconds).with_input_mb(1.0)).collect()
    }

    /// Enqueue one batch under `release_seconds` and drain it.
    fn submit(
        session: &mut ExecutorSession,
        tasks: &[Task],
        release_seconds: Option<f64>,
        filesystem: &LustreModel,
    ) -> CampaignReport {
        session.submit_owned(tasks.to_vec(), SubmitOptions { release_seconds });
        session.advance_to_frontier(filesystem)
    }

    fn gpu_tasks(n: usize, seconds: f64, cold: f64) -> Vec<Task> {
        (0..n)
            .map(|i| Task::new(i as u64, SlotKind::Gpu, seconds).with_input_mb(5.0).with_cold_start(cold))
            .collect()
    }

    #[test]
    fn all_tasks_complete_and_throughput_is_positive() {
        let report = WorkflowExecutor::new(ExecutorConfig::default()).run(
            &cpu_tasks(100, 0.2),
            &ClusterConfig::polaris(2),
            &LustreModel::default(),
        );
        assert_eq!(report.tasks_completed, 100);
        assert_eq!(report.tasks_skipped, 0);
        assert!(report.throughput_per_second > 0.0);
        assert!(report.makespan_seconds > 0.0);
        // Order-free tasks never wait on dependencies, so the critical path
        // is one task's busy time and queue waits cover the rest.
        assert!(report.critical_path_seconds < report.makespan_seconds);
        assert!(report.queue_wait_seconds > 0.0);
    }

    #[test]
    fn more_nodes_mean_higher_throughput_until_fs_contention() {
        let tasks = cpu_tasks(4000, 0.05);
        let run = |nodes| {
            WorkflowExecutor::new(ExecutorConfig::default()).run(
                &tasks,
                &ClusterConfig::polaris(nodes),
                &LustreModel::default(),
            )
        };
        let one = run(1).throughput_per_second;
        let four = run(4).throughput_per_second;
        assert!(four > one * 2.0, "scaling 1→4 nodes should be near-linear ({one} vs {four})");
    }

    #[test]
    fn warm_start_pays_the_model_load_once_per_concurrent_loader() {
        let tasks = gpu_tasks(40, 2.0, 15.0);
        let cluster = ClusterConfig::polaris(1);
        let fs = LustreModel::default();
        let warm = WorkflowExecutor::new(ExecutorConfig { warm_start: true, ..Default::default() })
            .run(&tasks, &cluster, &fs);
        let cold = WorkflowExecutor::new(ExecutorConfig { warm_start: false, ..Default::default() })
            .run(&tasks, &cluster, &fs);
        // All four GPU slots start a task at t = 0, before any load finishes,
        // so each pays the cold start; every later task reuses the weights.
        assert_eq!(warm.cold_starts, cluster.gpu_slots_per_node);
        assert_eq!(warm.warm_hits, 40 - cluster.gpu_slots_per_node);
        assert_eq!(warm.warm_evictions, 0);
        assert_eq!(warm.warm_models.len(), 1);
        assert_eq!(warm.warm_models[0].misses, warm.cold_starts);
        assert_eq!(cold.cold_starts, 40);
        assert!(cold.warm_models.is_empty(), "warm_start: false bypasses the pools");
        assert!(warm.makespan_seconds < cold.makespan_seconds);
        assert!(warm.throughput_per_second > cold.throughput_per_second * 1.5);
    }

    #[test]
    fn warm_pool_capacity_zero_disables_reuse_but_counts_misses() {
        let tasks = gpu_tasks(12, 1.0, 10.0);
        let report =
            WorkflowExecutor::new(ExecutorConfig { warm_pool_capacity: Some(0), ..Default::default() }).run(
                &tasks,
                &ClusterConfig::polaris(1),
                &LustreModel::default(),
            );
        assert_eq!(report.cold_starts, 12);
        assert_eq!(report.warm_hits, 0);
        assert_eq!(report.warm_evictions, 0);
        assert_eq!(report.warm_models.len(), 1);
        assert_eq!(report.warm_models[0].misses, 12);
    }

    #[test]
    fn switching_models_evicts_under_a_capacity_one_pool() {
        // Two models alternating on a single GPU slot: a capacity-1 pool
        // thrashes (every task evicts the other model), an unbounded pool
        // loads each model once.
        let tasks: Vec<Task> = (0..8)
            .map(|i| {
                Task::new(i, SlotKind::Gpu, 1.0).with_cold_start(10.0).with_label(if i % 2 == 0 {
                    "Nougat"
                } else {
                    "Marker"
                })
            })
            .collect();
        let cluster = ClusterConfig { nodes: 1, cpu_slots_per_node: 0, gpu_slots_per_node: 1 };
        let fs = LustreModel::default();
        let tight =
            WorkflowExecutor::new(ExecutorConfig { warm_pool_capacity: Some(1), ..Default::default() })
                .run(&tasks, &cluster, &fs);
        assert_eq!(tight.cold_starts, 8, "alternating models thrash a capacity-1 pool");
        assert_eq!(tight.warm_evictions, 7);
        let unbounded = WorkflowExecutor::new(ExecutorConfig::default()).run(&tasks, &cluster, &fs);
        assert_eq!(unbounded.cold_starts, 2, "each model loads once");
        assert_eq!(unbounded.warm_hits, 6);
        assert_eq!(unbounded.warm_evictions, 0);
        assert!(unbounded.makespan_seconds < tight.makespan_seconds);
    }

    #[test]
    fn zero_cost_models_never_occupy_pool_capacity() {
        // A capacity-1 pool, one real model, and a flood of zero-cost tasks:
        // the real model must stay resident (zero-cost models have no
        // weights to keep warm and must not evict anything).
        let mut tasks = vec![Task::new(0, SlotKind::Cpu, 1.0).with_cold_start(5.0).with_label("Nougat")];
        for i in 1..10 {
            tasks.push(Task::new(i, SlotKind::Cpu, 0.1).with_label("PyMuPDF"));
        }
        tasks.push(Task::new(10, SlotKind::Cpu, 1.0).with_cold_start(5.0).with_label("Nougat"));
        let cluster = ClusterConfig { nodes: 1, cpu_slots_per_node: 1, gpu_slots_per_node: 0 };
        let report =
            WorkflowExecutor::new(ExecutorConfig { warm_pool_capacity: Some(1), ..Default::default() }).run(
                &tasks,
                &cluster,
                &LustreModel::default(),
            );
        assert_eq!(report.cold_starts, 1, "the second Nougat task must still be warm");
        assert_eq!(report.warm_hits, 1);
        assert_eq!(report.warm_evictions, 0);
        // The pool API itself also guards directly.
        let mut models = ModelInterner::new();
        let nougat = models.intern("Nougat");
        let pymupdf = models.intern("PyMuPDF");
        let mut pool = WarmPool::new(Some(1));
        assert_eq!(pool.acquire(nougat, 5.0, 0.0), WarmAccess::Miss { evicted: None });
        assert_eq!(pool.acquire(pymupdf, 0.0, 1.0), WarmAccess::Hit);
        assert_eq!(pool.resident_models(), 1);
        assert!(pool.is_resident(nougat));
    }

    #[test]
    fn node_local_staging_helps_small_file_workloads() {
        let tasks: Vec<Task> = (0..200)
            .map(|i| Task::new(i, SlotKind::Cpu, 0.02).with_input_mb(2.0).with_input_files(50))
            .collect();
        let cluster = ClusterConfig::polaris(8);
        let fs = LustreModel::default();
        let staged = WorkflowExecutor::new(ExecutorConfig { node_local_staging: true, ..Default::default() })
            .run(&tasks, &cluster, &fs);
        let raw = WorkflowExecutor::new(ExecutorConfig { node_local_staging: false, ..Default::default() })
            .run(&tasks, &cluster, &fs);
        assert!(staged.makespan_seconds < raw.makespan_seconds);
    }

    #[test]
    fn gpu_trace_reflects_gpu_work_only() {
        let mut tasks = gpu_tasks(8, 3.0, 10.0);
        tasks.extend(cpu_tasks(8, 1.0));
        let report = WorkflowExecutor::new(ExecutorConfig::default()).run(
            &tasks,
            &ClusterConfig::polaris(1),
            &LustreModel::default(),
        );
        assert!(report.gpu_busy_seconds > 0.0);
        assert!(report.cpu_busy_seconds > 0.0);
        assert!(report.mean_gpu_utilization() > 0.0);
        assert!(report.mean_gpu_utilization() <= 1.0);
        let load: f64 = (0..report.gpu_trace.gpus()).map(|g| report.gpu_trace.model_load_seconds(g)).sum();
        assert!(load > 0.0, "model loads must appear in the trace");
    }

    #[test]
    fn missing_slot_kind_skips_tasks() {
        let cluster = ClusterConfig { nodes: 1, cpu_slots_per_node: 2, gpu_slots_per_node: 0 };
        let report = WorkflowExecutor::new(ExecutorConfig::default()).run(
            &gpu_tasks(5, 1.0, 0.0),
            &cluster,
            &LustreModel::default(),
        );
        assert_eq!(report.tasks_completed, 0);
        assert_eq!(report.tasks_skipped, 5);
        assert_eq!(report.throughput_per_second, 0.0);
    }

    #[test]
    fn dependencies_serialize_a_chain_onto_idle_slots() {
        // A 3-task chain on a 4-slot node: plenty of slots, so the makespan
        // is exactly the chain's busy time and equals the critical path.
        let tasks = vec![
            Task::new(0, SlotKind::Cpu, 2.0),
            Task::new(1, SlotKind::Cpu, 3.0).with_dependency(0),
            Task::new(2, SlotKind::Cpu, 4.0).with_dependency(1),
        ];
        let cluster = ClusterConfig { nodes: 1, cpu_slots_per_node: 4, gpu_slots_per_node: 0 };
        let executor = WorkflowExecutor::new(ExecutorConfig::default());
        let mut session = executor.session(&cluster);
        let report = submit(&mut session, &tasks, None, &LustreModel::default());
        assert_eq!(report.tasks_completed, 3);
        assert!((report.makespan_seconds - 9.0).abs() < 1e-12);
        assert_eq!(report.critical_path_seconds, report.makespan_seconds);
        let schedule = session.schedule();
        assert_eq!(schedule.len(), 3);
        for pair in schedule.windows(2) {
            assert!(pair[1].start_seconds >= pair[0].finish_seconds);
        }
    }

    #[test]
    fn diamond_dependencies_join_on_the_slower_branch() {
        //      0
        //    /   \
        //   1     2      1 is slow, 2 is fast; 3 waits for both.
        //    \   /
        //      3
        let tasks = vec![
            Task::new(0, SlotKind::Cpu, 1.0),
            Task::new(1, SlotKind::Cpu, 5.0).with_dependency(0),
            Task::new(2, SlotKind::Cpu, 1.0).with_dependency(0),
            Task::new(3, SlotKind::Cpu, 1.0).with_depends_on(vec![1, 2]),
        ];
        let cluster = ClusterConfig { nodes: 1, cpu_slots_per_node: 4, gpu_slots_per_node: 0 };
        let executor = WorkflowExecutor::new(ExecutorConfig::default());
        let mut session = executor.session(&cluster);
        let report = submit(&mut session, &tasks, None, &LustreModel::default());
        assert_eq!(report.tasks_completed, 4);
        let join = session.schedule().iter().find(|s| s.id == 3).unwrap().clone();
        let slow = session.schedule().iter().find(|s| s.id == 1).unwrap().clone();
        assert!(join.start_seconds >= slow.finish_seconds);
        assert_eq!(report.critical_path_seconds, report.makespan_seconds);
    }

    #[test]
    fn dependency_cycles_are_skipped_not_deadlocked() {
        let tasks = vec![
            Task::new(0, SlotKind::Cpu, 1.0).with_dependency(1),
            Task::new(1, SlotKind::Cpu, 1.0).with_dependency(0),
            Task::new(2, SlotKind::Cpu, 1.0),
            Task::new(3, SlotKind::Cpu, 1.0).with_dependency(3), // self-edge
        ];
        let report = WorkflowExecutor::new(ExecutorConfig::default()).run(
            &tasks,
            &ClusterConfig::polaris(1),
            &LustreModel::default(),
        );
        assert_eq!(report.tasks_completed, 1);
        assert_eq!(report.tasks_skipped, 3);
    }

    #[test]
    fn dependents_of_skipped_tasks_are_skipped() {
        // Task 0 needs a GPU on a CPU-only cluster; 1 depends on it; 2 is
        // independent and must still run.
        let tasks = vec![
            Task::new(0, SlotKind::Gpu, 1.0),
            Task::new(1, SlotKind::Cpu, 1.0).with_dependency(0),
            Task::new(2, SlotKind::Cpu, 1.0),
        ];
        let cluster = ClusterConfig { nodes: 1, cpu_slots_per_node: 2, gpu_slots_per_node: 0 };
        let report =
            WorkflowExecutor::new(ExecutorConfig::default()).run(&tasks, &cluster, &LustreModel::default());
        assert_eq!(report.tasks_completed, 1);
        assert_eq!(report.tasks_skipped, 2);
    }

    #[test]
    fn skip_cascades_span_batch_boundaries() {
        // Task 0 needs a GPU on a CPU-only cluster and is skipped in batch
        // 1; its dependent arrives in batch 2 and must be skipped too — the
        // same cascade the single-batch test asserts.
        let cluster = ClusterConfig { nodes: 1, cpu_slots_per_node: 2, gpu_slots_per_node: 0 };
        let executor = WorkflowExecutor::new(ExecutorConfig::default());
        let mut session = executor.session(&cluster);
        let first = submit(&mut session, &[Task::new(0, SlotKind::Gpu, 1.0)], None, &LustreModel::default());
        assert_eq!(first.tasks_skipped, 1);
        let second = submit(
            &mut session,
            &[
                Task::new(1, SlotKind::Cpu, 1.0).with_dependency(0),
                // Transitive: 2 depends on 1, which is poisoned.
                Task::new(2, SlotKind::Cpu, 1.0).with_dependency(1),
                Task::new(3, SlotKind::Cpu, 1.0),
            ],
            None,
            &LustreModel::default(),
        );
        assert_eq!(second.tasks_completed, 1);
        assert_eq!(second.tasks_skipped, 2);
        // Cycle members are skip-poisonous across batches too.
        let mut cyclic = executor.session(&cluster);
        submit(
            &mut cyclic,
            &[
                Task::new(0, SlotKind::Cpu, 1.0).with_dependency(1),
                Task::new(1, SlotKind::Cpu, 1.0).with_dependency(0),
            ],
            None,
            &LustreModel::default(),
        );
        let after = submit(
            &mut cyclic,
            &[Task::new(2, SlotKind::Cpu, 1.0).with_dependency(0)],
            None,
            &LustreModel::default(),
        );
        assert_eq!(after.tasks_completed, 0);
        assert_eq!(after.tasks_skipped, 1);
    }

    #[test]
    fn batch_throughput_is_measured_over_the_batch_span() {
        // One slot: batch 1 occupies [0, 10], batch 2 occupies [10, 15].
        let cluster = ClusterConfig { nodes: 1, cpu_slots_per_node: 1, gpu_slots_per_node: 0 };
        let executor = WorkflowExecutor::new(ExecutorConfig::default());
        let mut session = executor.session(&cluster);
        let first = submit(&mut session, &[Task::new(0, SlotKind::Cpu, 10.0)], None, &LustreModel::default());
        assert!((first.throughput_per_second - 0.1).abs() < 1e-6);
        let second = submit(
            &mut session,
            &[Task::new(1, SlotKind::Cpu, 2.5), Task::new(2, SlotKind::Cpu, 2.5)],
            None,
            &LustreModel::default(),
        );
        // 2 tasks over the batch's own [10, 15] span, not over [0, 15].
        assert!((second.throughput_per_second - 0.4).abs() < 1e-6, "{}", second.throughput_per_second);
        assert!((second.makespan_seconds - 15.0).abs() < 1e-9, "makespan stays absolute");
        // The cumulative report keeps whole-campaign throughput.
        assert!((session.report().throughput_per_second - 0.2).abs() < 1e-6);
    }

    #[test]
    fn queue_wait_is_measured_from_batch_submission_not_session_start() {
        // One slot: batch 1 occupies [0, 10]. Batch 2's two dependency-free
        // tasks are submitted at t = 10, so the first starts immediately
        // (zero wait) and the second queues only for its sibling's 2.5 s —
        // not for the 10 s of session time before the batch existed.
        let cluster = ClusterConfig { nodes: 1, cpu_slots_per_node: 1, gpu_slots_per_node: 0 };
        let executor = WorkflowExecutor::new(ExecutorConfig::default());
        let mut session = executor.session(&cluster);
        let first = submit(&mut session, &[Task::new(0, SlotKind::Cpu, 10.0)], None, &LustreModel::default());
        assert_eq!(first.queue_wait_seconds, 0.0);
        let second = submit(
            &mut session,
            &[Task::new(1, SlotKind::Cpu, 2.5), Task::new(2, SlotKind::Cpu, 2.5)],
            None,
            &LustreModel::default(),
        );
        assert!(
            (second.queue_wait_seconds - 2.5).abs() < 1e-9,
            "expected 2.5 s of sibling contention, got {}",
            second.queue_wait_seconds
        );
        // A slot that freed *before* the next batch was submitted is idle
        // when the batch's floor (the session clock, t = 10) arrives: the
        // task starts at its floor and is charged no wait.
        let cluster = ClusterConfig { nodes: 1, cpu_slots_per_node: 2, gpu_slots_per_node: 0 };
        let mut session = executor.session(&cluster);
        submit(
            &mut session,
            &[Task::new(0, SlotKind::Cpu, 10.0), Task::new(1, SlotKind::Cpu, 2.0)],
            None,
            &LustreModel::default(),
        );
        let overlap =
            submit(&mut session, &[Task::new(2, SlotKind::Cpu, 1.0)], None, &LustreModel::default());
        assert_eq!(overlap.queue_wait_seconds, 0.0, "starts at its floor on the early-freed slot");
        let late = session.schedule().iter().find(|s| s.id == 2).unwrap();
        assert_eq!((late.node, late.start_seconds), (0, 10.0));
        assert_eq!(late.ready_seconds, late.submitted_at_seconds);
    }

    #[test]
    fn all_skipped_batch_ends_at_its_submission_time_not_zero() {
        // CPU-only cluster, session advanced to t = 10 by batch 1; batch 2
        // is all GPU tasks, so everything is skipped and nothing completes.
        // The batch's makespan is absolute session time, which cannot
        // rewind to 0 — an event boundary fed to a controller must not
        // precede the batch's own submission.
        let cluster = ClusterConfig { nodes: 1, cpu_slots_per_node: 1, gpu_slots_per_node: 0 };
        let executor = WorkflowExecutor::new(ExecutorConfig::default());
        let mut session = executor.session(&cluster);
        submit(&mut session, &[Task::new(0, SlotKind::Cpu, 10.0)], None, &LustreModel::default());
        let skipped = submit(
            &mut session,
            &[Task::new(1, SlotKind::Gpu, 1.0), Task::new(2, SlotKind::Gpu, 1.0)],
            None,
            &LustreModel::default(),
        );
        assert_eq!(skipped.tasks_completed, 0);
        assert_eq!(skipped.tasks_skipped, 2);
        assert_eq!(skipped.makespan_seconds, 10.0);
        assert_eq!(skipped.throughput_per_second, 0.0);
        assert_eq!(session.now_seconds(), 10.0, "the clock never rewinds");
    }

    #[test]
    fn cross_batch_dependencies_resolve_at_recorded_finish_times() {
        let executor = WorkflowExecutor::new(ExecutorConfig::default());
        let cluster = ClusterConfig { nodes: 1, cpu_slots_per_node: 4, gpu_slots_per_node: 0 };
        let mut session = executor.session(&cluster);
        submit(&mut session, &[Task::new(0, SlotKind::Cpu, 5.0)], None, &LustreModel::default());
        let second = submit(
            &mut session,
            &[
                Task::new(1, SlotKind::Cpu, 1.0).with_dependency(0),
                // Unknown ids are vacuously satisfied.
                Task::new(2, SlotKind::Cpu, 1.0).with_dependency(999),
            ],
            // Released at campaign start: only the dependency holds task 1.
            Some(0.0),
            &LustreModel::default(),
        );
        assert_eq!(second.tasks_completed, 2);
        let chained = session.schedule().iter().find(|s| s.id == 1).unwrap();
        let free = session.schedule().iter().find(|s| s.id == 2).unwrap();
        assert!(chained.start_seconds >= 5.0, "dependency spans the batch boundary");
        assert!(free.start_seconds < 5.0, "independent tasks overlap the earlier batch");
        // Critical path spans batches too.
        assert!(session.report().critical_path_seconds >= 6.0);
    }

    #[test]
    fn sessions_keep_slots_and_warm_pools_across_batches() {
        let executor = WorkflowExecutor::new(ExecutorConfig::default());
        let cluster = ClusterConfig { nodes: 1, cpu_slots_per_node: 0, gpu_slots_per_node: 2 };
        let fs = LustreModel::default();
        let mut session = executor.session(&cluster);
        let first = submit(&mut session, &gpu_tasks(4, 1.0, 10.0), None, &fs);
        assert_eq!(first.cold_starts, 2, "both slots load concurrently");
        // Both batches exist from campaign start (floor 0); only the
        // submission is split.
        let second = submit(&mut session, &gpu_tasks(4, 1.0, 10.0), Some(0.0), &fs);
        assert_eq!(second.cold_starts, 0, "the model is still resident across batches");
        assert_eq!(second.warm_hits, 4);
        // Cumulative report folds both batches.
        let total = session.report();
        assert_eq!(total.tasks_completed, 8);
        assert_eq!(total.cold_starts, 2);
        assert_eq!(total.warm_hits, 6);
        assert_eq!(total.warm_models.len(), 1);
        assert_eq!(total.warm_models[0].misses + total.warm_models[0].hits, 8);
        // A fresh campaign over the same 8 tasks pays the same colds but the
        // split submission must not barrier: makespans agree.
        let mut tasks = gpu_tasks(4, 1.0, 10.0);
        tasks.extend(gpu_tasks(4, 1.0, 10.0));
        let oneshot = executor.run(&tasks, &cluster, &fs);
        assert_eq!(total.makespan_seconds, oneshot.makespan_seconds);
    }

    #[test]
    fn affine_tasks_stay_on_their_node_when_it_is_free() {
        // Two nodes, plenty of slots: every task with a preferred node should
        // land there and pay no penalty.
        let cluster = ClusterConfig { nodes: 2, cpu_slots_per_node: 4, gpu_slots_per_node: 0 };
        let tasks: Vec<Task> = (0..8)
            .map(|i| {
                Task::new(i, SlotKind::Cpu, 0.5).with_input_mb(100.0).with_preferred_node((i % 2) as usize)
            })
            .collect();
        let report =
            WorkflowExecutor::new(ExecutorConfig::default()).run(&tasks, &cluster, &LustreModel::default());
        assert_eq!(report.tasks_completed, 8);
        assert_eq!(report.non_local_tasks, 0);
        assert_eq!(report.locality_penalty_seconds, 0.0);
    }

    #[test]
    fn off_node_placement_pays_the_locality_penalty() {
        // Every task prefers node 0, which has a single slot: the scheduler
        // spills onto node 1 only once the penalty beats the queueing delay,
        // and each spill is accounted.
        let cluster = ClusterConfig { nodes: 2, cpu_slots_per_node: 1, gpu_slots_per_node: 0 };
        let fs = LustreModel { per_node_bandwidth_mb_s: 100.0, ..Default::default() };
        let tasks: Vec<Task> = (0..16)
            .map(|i| Task::new(i, SlotKind::Cpu, 2.0).with_input_mb(50.0).with_preferred_node(0))
            .collect();
        let report = WorkflowExecutor::new(ExecutorConfig::default()).run(&tasks, &cluster, &fs);
        assert_eq!(report.tasks_completed, 16);
        assert!(report.non_local_tasks > 0, "a long node-0 queue must spill to node 1");
        assert!(report.non_local_tasks < 16, "node 0 must still serve its own tasks");
        assert!(report.locality_penalty_seconds > 0.0);
        // An affinity-oblivious workload (same shape, no preference) never
        // pays the penalty.
        let oblivious: Vec<Task> =
            (0..16).map(|i| Task::new(i, SlotKind::Cpu, 2.0).with_input_mb(50.0)).collect();
        let base = WorkflowExecutor::new(ExecutorConfig::default()).run(&oblivious, &cluster, &fs);
        assert_eq!(base.non_local_tasks, 0);
        assert!(report.makespan_seconds >= base.makespan_seconds);
    }

    #[test]
    fn good_node_plans_beat_hot_spotted_ones() {
        // All tasks pinned to one node serialize on its slots; spreading the
        // same tasks across both nodes halves the makespan (locality holds
        // in both cases — the penalty never fires).
        let cluster = ClusterConfig { nodes: 2, cpu_slots_per_node: 2, gpu_slots_per_node: 0 };
        let fs = LustreModel { per_node_bandwidth_mb_s: 10.0, ..Default::default() };
        let build = |spread: bool| -> Vec<Task> {
            (0..32)
                .map(|i| {
                    let node = if spread { (i % 2) as usize } else { 0 };
                    Task::new(i, SlotKind::Cpu, 1.0).with_input_mb(200.0).with_preferred_node(node)
                })
                .collect()
        };
        let executor = WorkflowExecutor::new(ExecutorConfig::default());
        let hot = executor.run(&build(false), &cluster, &fs);
        let spread = executor.run(&build(true), &cluster, &fs);
        assert!(
            spread.makespan_seconds < hot.makespan_seconds,
            "{} vs {}",
            spread.makespan_seconds,
            hot.makespan_seconds
        );
    }

    #[test]
    fn affinity_scheduling_is_deterministic() {
        let cluster = ClusterConfig::polaris(2);
        let tasks: Vec<Task> = (0..200)
            .map(|i| {
                Task::new(i, SlotKind::Cpu, 0.1 + (i % 7) as f64 * 0.03)
                    .with_input_mb(1.0 + (i % 3) as f64)
                    .with_preferred_node((i % 2) as usize)
            })
            .collect();
        let executor = WorkflowExecutor::new(ExecutorConfig::default());
        let a = executor.run(&tasks, &cluster, &LustreModel::default());
        let b = executor.run(&tasks, &cluster, &LustreModel::default());
        assert_eq!(a, b);
    }

    /// Extract+parse pairs: extraction on CPU staged per-plan, parse on CPU
    /// of the same document grouped under the doc id. `parse_node` is the
    /// node the *plan* would send the parse half to.
    fn paired_tasks(n: usize, extract_nodes: usize, parse_node: usize) -> Vec<Task> {
        let mut tasks = Vec::new();
        for i in 0..n as u64 {
            tasks.push(
                Task::new(i * 2, SlotKind::Cpu, 0.5)
                    .with_input_mb(200.0)
                    .with_preferred_node(i as usize % extract_nodes)
                    .with_group(i, GroupRole::Extract),
            );
            tasks.push(
                Task::new(i * 2 + 1, SlotKind::Cpu, 2.0)
                    .with_input_mb(200.0)
                    .with_preferred_node(parse_node)
                    .with_group(i, GroupRole::Parse),
            );
        }
        tasks
    }

    #[test]
    fn co_scheduling_keeps_pairs_together_and_avoids_the_penalty() {
        let cluster = ClusterConfig { nodes: 4, cpu_slots_per_node: 8, gpu_slots_per_node: 0 };
        let fs = LustreModel { per_node_bandwidth_mb_s: 100.0, ..Default::default() };
        // The plan sends every parse half to node 3, but each pair's data
        // ends up wherever its extract half ran (nodes 0–2). Eight pairs fit
        // node 3's slots, so the naive schedule never spills back by luck.
        let tasks = paired_tasks(8, 3, 3);
        let paired = WorkflowExecutor::new(ExecutorConfig::default()).run(&tasks, &cluster, &fs);
        assert_eq!(paired.tasks_completed, 16);
        assert_eq!(paired.co_located_pairs, 8, "every pair should reunite on its anchor node");
        assert_eq!(paired.split_pairs, 0);
        assert_eq!(paired.locality_penalty_seconds, 0.0);

        let naive = WorkflowExecutor::new(ExecutorConfig { co_schedule_pairs: false, ..Default::default() })
            .run(&tasks, &cluster, &fs);
        assert_eq!(naive.co_located_pairs, 0, "the plan separates every pair");
        assert_eq!(naive.split_pairs, 8);
        assert!(naive.locality_penalty_seconds > 0.0, "split pairs must pay the re-fetch");
        assert!(naive.non_local_tasks > 0);
        assert!(
            paired.locality_penalty_seconds < naive.locality_penalty_seconds,
            "co-scheduling must reduce the locality penalty"
        );
    }

    #[test]
    fn stage_timings_attribute_grouped_busy_time_per_role() {
        let cluster = ClusterConfig { nodes: 2, cpu_slots_per_node: 4, gpu_slots_per_node: 0 };
        let tasks = paired_tasks(8, 2, 1);
        let report =
            WorkflowExecutor::new(ExecutorConfig::default()).run(&tasks, &cluster, &LustreModel::default());
        assert_eq!(report.stage_timings.extract.tasks, 8);
        assert_eq!(report.stage_timings.parse.tasks, 8);
        assert!(report.stage_timings.extract.busy_seconds > 0.0);
        // Parse compute is 4× extract compute per task, so its busy time
        // dominates.
        assert!(report.stage_timings.parse.busy_seconds > report.stage_timings.extract.busy_seconds);
        assert!(report.stage_timings.parse.finished_at_seconds <= report.makespan_seconds + 1e-9);
        // Ungrouped tasks stay out of the breakdown.
        let plain = WorkflowExecutor::new(ExecutorConfig::default()).run(
            &cpu_tasks(5, 1.0),
            &cluster,
            &LustreModel::default(),
        );
        assert_eq!(plain.stage_timings, StageTimings::default());
    }

    #[test]
    fn paired_scheduling_is_deterministic() {
        let cluster = ClusterConfig::polaris(2);
        let tasks = paired_tasks(40, 2, 0);
        let executor = WorkflowExecutor::new(ExecutorConfig::default());
        let a = executor.run(&tasks, &cluster, &LustreModel::default());
        let b = executor.run(&tasks, &cluster, &LustreModel::default());
        assert_eq!(a, b);
    }

    #[test]
    fn submit_with_enqueues_without_draining() {
        let cluster = ClusterConfig { nodes: 1, cpu_slots_per_node: 2, gpu_slots_per_node: 0 };
        let executor = WorkflowExecutor::new(ExecutorConfig::default());
        let mut session = executor.session(&cluster);
        session.submit_owned(cpu_tasks(3, 1.0), SubmitOptions::default());
        assert_eq!(session.pending_task_count(), 3, "submit_owned must not run the engine");
        assert!(session.schedule().is_empty());
        let report = session.advance_to_frontier(&LustreModel::default());
        assert_eq!(report.tasks_completed, 3);
        assert_eq!(session.pending_task_count(), 0);
        assert_eq!(session.schedule().len(), 3);
        // A second advance with nothing pending is a no-op at the clock.
        let idle = session.advance_to_frontier(&LustreModel::default());
        assert_eq!(idle.tasks_completed, 0);
        assert_eq!(idle.makespan_seconds, session.now_seconds());
    }

    #[test]
    fn batches_enqueued_together_interleave_in_event_order() {
        // Two batches drained at once: the later batch's earlier-ready task
        // (smaller id, same ready time) dispatches first — submission order
        // does not bias the interleaving.
        let cluster = ClusterConfig { nodes: 1, cpu_slots_per_node: 1, gpu_slots_per_node: 0 };
        let executor = WorkflowExecutor::new(ExecutorConfig::default());
        let mut session = executor.session(&cluster);
        session.submit_owned(vec![Task::new(5, SlotKind::Cpu, 1.0)], SubmitOptions::default());
        session.submit_owned(vec![Task::new(2, SlotKind::Cpu, 1.0)], SubmitOptions::default());
        session.advance_to_frontier(&LustreModel::default());
        let order: Vec<u64> = session.schedule().iter().map(|s| s.id).collect();
        assert_eq!(order, vec![2, 5], "the (time, id) ready order must span batches");
        // Dependencies wire across batches enqueued into the same drain —
        // in either enqueue direction.
        for dependent_first in [false, true] {
            let mut chained = executor.session(&cluster);
            let producer = vec![Task::new(0, SlotKind::Cpu, 2.0)];
            let consumer = vec![Task::new(1, SlotKind::Cpu, 1.0).with_dependency(0)];
            let batches = if dependent_first { [consumer, producer] } else { [producer, consumer] };
            for batch in batches {
                chained.submit_owned(batch, SubmitOptions::default());
            }
            let report = chained.advance_to_frontier(&LustreModel::default());
            assert_eq!(report.tasks_completed, 2);
            let dependent = chained.schedule().iter().find(|s| s.id == 1).unwrap();
            assert!(
                dependent.start_seconds >= 2.0,
                "the edge must hold with dependent_first = {dependent_first}"
            );
        }
    }

    #[test]
    fn causal_mode_never_starts_a_task_before_its_release_floor() {
        let cluster = ClusterConfig { nodes: 1, cpu_slots_per_node: 2, gpu_slots_per_node: 0 };
        let mut session = WorkflowExecutor::new(ExecutorConfig::default()).session(&cluster);
        // Batch 1: one long task and one short — a slot frees at t = 1.
        submit(
            &mut session,
            &[Task::new(0, SlotKind::Cpu, 10.0), Task::new(1, SlotKind::Cpu, 1.0)],
            None,
            &LustreModel::default(),
        );
        // Batch 2 released at t = 4: the idle slot may not run it earlier.
        let report =
            submit(&mut session, &[Task::new(2, SlotKind::Cpu, 1.0)], Some(4.0), &LustreModel::default());
        let late = session.schedule().iter().find(|s| s.id == 2).unwrap();
        assert_eq!(late.submitted_at_seconds, 4.0);
        assert!(late.start_seconds >= 4.0, "started at {} before its floor", late.start_seconds);
        assert!(late.ready_seconds >= 4.0, "ready time must be clamped to the floor");
        // The floor deferred 4 s of readiness (the task had no deps).
        assert_eq!(report.decision_lag_seconds, 4.0);
        for row in session.schedule() {
            assert!(row.start_seconds >= row.submitted_at_seconds);
        }
    }

    #[test]
    fn tasks_in_flight_counts_unfinished_work() {
        let cluster = ClusterConfig { nodes: 1, cpu_slots_per_node: 2, gpu_slots_per_node: 0 };
        let executor = WorkflowExecutor::new(ExecutorConfig::default());
        let mut session = executor.session(&cluster);
        submit(
            &mut session,
            &[Task::new(0, SlotKind::Cpu, 10.0), Task::new(1, SlotKind::Cpu, 2.0)],
            None,
            &LustreModel::default(),
        );
        assert_eq!(session.tasks_in_flight_at(1.0), 2);
        assert_eq!(session.tasks_in_flight_at(5.0), 1, "the short task finished at t = 2");
        assert_eq!(session.tasks_in_flight_at(10.0), 0, "finish is exclusive");
        assert_eq!(session.frontier_seconds(), 0.0, "both tasks started at t = 0");
    }

    #[test]
    fn empty_campaign_is_a_noop() {
        let report = WorkflowExecutor::new(ExecutorConfig::default()).run(
            &[],
            &ClusterConfig::polaris(1),
            &LustreModel::default(),
        );
        assert_eq!(report.tasks_completed, 0);
        assert_eq!(report.makespan_seconds, 0.0);
        assert_eq!(report.critical_path_seconds, 0.0);
    }
}
