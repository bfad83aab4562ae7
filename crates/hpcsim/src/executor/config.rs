//! Executor options: the per-session [`ExecutorConfig`] and the per-batch
//! [`SubmitOptions`].

use serde::{Deserialize, Serialize};

#[cfg(doc)]
use super::{ExecutorSession, ScheduledTask, WarmPool};

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
            causality: CausalityMode::Causal,
            placement: PlacementPolicy::EarliestSlot,
        }
    }
}
