//! Discrete-event simulator of a leadership-class HPC system running a
//! Parsl-style parsing campaign.
//!
//! The paper's throughput results (Figures 4 and 5) are not properties of the
//! parsers alone — they come from how the workflow engine schedules
//! heterogeneous tasks over CPU cores and GPUs, whether ML models stay warm
//! across task boundaries, and how the shared Lustre filesystem behaves when
//! hundreds of nodes read many small files at once. This crate implements
//! that orchestration layer for real and drives it with simulated task
//! durations:
//!
//! * [`event`] — the dependency engine's `(time, task id)`-ordered ready
//!   queue,
//! * [`task`] — the task/cluster description (CPU vs GPU slots, stage-in
//!   bytes, cold-start model-load costs, co-scheduling pair hints, and
//!   [`Task::depends_on`] precedence edges in an inline [`SmallList`]),
//! * [`lustre`] — a shared-filesystem contention model (aggregate bandwidth,
//!   metadata pressure from small files, node-local staging),
//! * [`executor`] — the event-driven, dependency-aware Parsl-like engine,
//!   one file per state owner: `config` and `report` (the public types),
//!   `session` ([`ExecutorSession`]: submit, drain, the per-task dispatch
//!   sequence, retire), `pending` (the undispatched DAG and its ready
//!   queue), `fleet` (slot availability over [`slotindex`]), `warm`
//!   ([`WarmPool`]s, the [`intern`]ed labels and per-model counters),
//!   `loads` (model-load channels and the cold-start peak) and `history`
//!   (schedule rows, finish/skip records, pair anchors),
//! * [`profiler`] — per-GPU utilization traces (the Nsight view of Figure 4).
//!
//! # Example
//!
//! ```
//! use hpcsim::{ClusterConfig, ExecutorConfig, LustreModel, Task, SlotKind, WorkflowExecutor};
//!
//! let tasks: Vec<Task> = (0..64).map(|i| Task::new(i, SlotKind::Cpu, 0.5).with_input_mb(2.0)).collect();
//! let cluster = ClusterConfig { nodes: 2, cpu_slots_per_node: 8, gpu_slots_per_node: 4 };
//! let report = WorkflowExecutor::new(ExecutorConfig::default())
//!     .run(&tasks, &cluster, &LustreModel::default());
//! assert!(report.makespan_seconds > 0.0);
//! assert_eq!(report.tasks_completed, 64);
//! ```

#![deny(missing_docs)]

pub mod event;
pub mod executor;
mod idmap;
pub mod intern;
pub mod lustre;
pub mod profiler;
pub mod slotindex;
mod smalllist;
pub mod task;

pub use event::ReadyQueue;
pub use executor::{
    CampaignReport, CausalityMode, ExecutorConfig, ExecutorSession, ModelWarmStats, PlacementPolicy,
    ScheduledTask, StageTiming, StageTimings, SubmitOptions, WarmAccess, WarmPool, WorkflowExecutor,
};
pub use idmap::IdMap;
pub use intern::{ModelId, ModelInterner};
pub use lustre::LustreModel;
pub use profiler::GpuTrace;
pub use slotindex::{InFlightCounter, SlotIndex};
pub use smalllist::SmallList;
pub use task::{ClusterConfig, GroupRole, SlotKind, Task, TaskGroup};
