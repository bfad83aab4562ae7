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
//! optimizations of the paper's §5.2 / §6.1; the first two can be switched
//! off ([`ExecutorConfig`]) to ablate them:
//!
//! * **warm pools** — each node keeps a [`WarmPool`] of resident ML model
//!   weights keyed by the task's model label: reusing a resident model is
//!   free, loading an absent one pays the cold start, and a loaded model
//!   stays resident. Zero-cost models never become resident,
//! * **node-local staging** — inputs arrive as aggregated archives instead of
//!   many small files, removing metadata pressure on the shared filesystem,
//! * **prefetching** — a task's stage-in overlaps with its compute,
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
//!
//! The per-task methods of the parts `session` drives are `#[inline]`: the
//! crate builds in several codegen units, and the dispatch sequence costs
//! ≈ 2.5 % of a `sim_closed_loop` pass when it cannot inline across them.

mod config;
mod fleet;
mod history;
mod pending;
mod report;
mod session;
#[cfg(test)]
mod tests;
mod warm;

pub use config::{CausalityMode, ExecutorConfig, SubmitOptions};
pub use report::{CampaignReport, ModelWarmStats, ScheduledTask, StageTiming, StageTimings};
pub use session::ExecutorSession;
pub use warm::{WarmAccess, WarmPool};

use crate::lustre::LustreModel;
use crate::task::{ClusterConfig, Task};

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
    /// [`LustreModel`] re-fetch, which can hide partly or fully under
    /// compute). Ties prefer the task's own node (even a latency-free
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
