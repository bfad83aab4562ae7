//! The adaptive resource-scaling engine (the paper's "… and Resource
//! Scaling Engine" half).
//!
//! The Appendix C budget optimizer, run globally, serializes routing: no
//! document can be parsed before *every* document has been extracted, scored,
//! and sorted. This module replaces that whole-corpus barrier with two
//! cooperating pieces:
//!
//! * [`WindowedSelector`] — the one streaming budget selector. Documents
//!   arrive in input order and are selected per *window* of size k against a
//!   running credit ledger (fractional slot credit carries over between
//!   windows, so the spend never exceeds ⌊α·seen⌋ at any prefix). One
//!   `credit`/`spent` core serves two views: the single-upgrade mask view
//!   (bounded top-k heap — the binary router, `simloop`, `serve`) and the
//!   per-upgrade frontier view ([`crate::budget::assign_k`] — the k-parser
//!   cascade); the frontier's width picks the ranking. Window boundaries
//!   are fixed by k alone — never by worker count or timing — so the emitted
//!   routing masks are bitwise-deterministic, and with k = corpus size the
//!   selection is exactly the global optimum. The windowed-vs-global
//!   optimality gap is measurable with
//!   [`crate::budget::windowed_optimality_gap`].
//!
//! * [`ScalingController`] — the feedback loop. Each wave it samples
//!   per-stage throughput and queue depth ([`WaveStats`]) and reallocates
//!   workers between the extraction and parsing stages under a total-worker
//!   cap, with hysteresis (a persistent imbalance must exceed a threshold for
//!   `patience` consecutive waves before a worker moves). Decisions are pure
//!   functions of the observed stats, so identical stat streams produce
//!   identical allocation traces. [`ScalingController::plan_nodes`] projects
//!   the same allocation onto an `hpcsim` cluster as a node split whose
//!   data-locality consequences the executor models (tasks carry a preferred
//!   node; off-node placement pays a `LustreModel` penalty).
//!
//! [`crate::campaign::CampaignPipeline`] drives the selector window by
//! window in its one wall-clock loop (every stage there is CPU work on one
//! thread pool, so it does not split its workers into fleets); the
//! controller's live use is the simulated twin and the serve layer.
//!
//! The loop is *closed* in three directions:
//!
//! * **Time** — the controller never reads wall time.
//!   [`ScalingController::observe_at`] samples an external simulated clock
//!   (the [`hpcsim::ExecutorSession`]'s dispatch frontier or the serve
//!   loop's epoch boundary), so a trace is a pure function of its clock and
//!   stat stream: replaying a simulation replays the trace bit for bit.
//! * **Costs** — a serve tenant's seconds [`Ledger`] (seconds budgets live
//!   only in serve) reserves each admitted batch's planned spend, releases
//!   the reservation slot by slot as documents' measured costs
//!   ([`observed::WaveCosts`]) arrive, and re-derives the affordable α from
//!   [`observed::ObservedCosts`] — the plan blended with those
//!   measurements — tightening (or loosening) selection as reality diverges
//!   from plan.
//! * **Placement** — [`simloop::run_closed_loop`] drives the scaling
//!   circuit inside `hpcsim` at the configured α: simulated clock →
//!   controller → node plan → co-scheduled extract+parse task pairs →
//!   stage samples → controller.
//!
//! The loop is also *waveless*: the circuit runs over one
//! persistent [`hpcsim::ExecutorSession`], so slot availability, per-node
//! warm-pool residency, and pair anchors survive across decision epochs —
//! a later window starts on slots that free up while the previous window's
//! stragglers are still running, models stay loaded across windows instead
//! of re-paying their cold starts each wave, and each parse task carries a
//! dependency edge to its extract partner so the engine never schedules a
//! parse before its input exists. The controller observes at event
//! boundaries via [`ScalingController::observe_at`], and the whole run —
//! including the executor's critical-path, queue-wait, and per-model warm
//! statistics — replays bit for bit.
//!
//! The loop is *causal*: each window is admitted at the session's
//! dispatch frontier as a release floor — no task starts before the
//! decision that created it, the controller samples only tasks finished
//! by the decision time (stragglers defer to a later boundary), and its
//! backlog counts documents remaining
//! *plus* tasks still in flight. Closed-loop makespans are therefore
//! achievable schedules; the readiness the floors deferred is reported in
//! [`hpcsim::CampaignReport::decision_lag_seconds`]. See [`simloop`]'s
//! "Decision causality" section.

pub mod autoscale;
pub mod controller;
pub mod observed;
pub mod simloop;
pub mod window;

pub use autoscale::{AutoscaleConfig, FleetEvent, SloAutoscaler};
pub use controller::{
    Allocation, AllocationEvent, ControllerConfig, NodePlan, ScalingController, Stage, StageSample, WaveStats,
};
pub use observed::{ObservedCosts, WaveCosts, DEFAULT_PRIOR_WEIGHT};
pub use simloop::{planned_costs, run_closed_loop, SimLoopConfig, SimLoopReport, SimWave};
pub use window::{Ledger, WindowedSelector};
