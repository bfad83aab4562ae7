//! The feedback-driven resource-scaling controller.
//!
//! Each wave of the streaming pipeline reports how long its extraction and
//! parsing stages ran and how much work remains ([`WaveStats`]); the
//! controller turns that into the next wave's worker [`Allocation`] under a
//! total-worker cap. Hysteresis keeps the loop stable: a stage must be the
//! bottleneck by more than a configurable ratio for a configurable number of
//! consecutive waves before a worker moves, and at most `step` workers move
//! at a time. The decision is a pure function of the controller's state and
//! the observed stats — replaying the same stat stream replays the same
//! allocation trace — while the *campaign result* never depends on the
//! allocation at all (worker counts only change wall-clock time).

use serde::{Deserialize, Serialize};

/// Pipeline stages the controller allocates workers across. Routing is a
/// cheap sequential pass and gets no dedicated workers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Stage {
    /// SPDF decode + first-page extraction + CLS scoring (CPU-bound).
    Extract,
    /// Assigned-parser runs + scoring (the expensive, possibly GPU-bound
    /// stage).
    Parse,
}

/// One stage's measurements for one wave.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct StageSample {
    /// Wall-clock seconds the stage spent on the wave.
    pub busy_seconds: f64,
    /// Documents the stage processed in the wave.
    pub items: usize,
}

/// Everything the controller observes about one completed wave.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct WaveStats {
    /// Zero-based wave index.
    pub wave_index: usize,
    /// Extraction-stage sample (includes CLS scoring).
    pub extract: StageSample,
    /// Parse-stage sample (includes quality scoring).
    pub parse: StageSample,
    /// The *true* pending count after this wave: work items not yet done
    /// when the wave was observed. In the closed simulation loop this is
    /// documents not yet windowed **plus** session tasks still in flight
    /// at the observation boundary (stragglers from earlier epochs
    /// included — counting only the unwindowed remainder undercounts the
    /// backlog and freezes the allocation too early on a draining tail).
    pub queue_depth: usize,
}

/// Worker split across the two pipeline stages.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Allocation {
    /// Workers running extraction (+ CLS scoring).
    pub extract_workers: usize,
    /// Workers running parse (+ quality scoring).
    pub parse_workers: usize,
}

impl Allocation {
    /// Total workers in use.
    pub fn total(&self) -> usize {
        self.extract_workers + self.parse_workers
    }

    /// An even split of `total` workers (extract rounds down, both ≥ 1).
    pub fn even(total: usize) -> Self {
        let total = total.max(2);
        let extract = (total / 2).max(1);
        Allocation { extract_workers: extract, parse_workers: (total - extract).max(1) }
    }
}

/// Controller tuning knobs.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ControllerConfig {
    /// Total workers shared by both stages. Clamped to ≥ 2 (each stage keeps
    /// at least one worker so neither can starve).
    pub total_workers: usize,
    /// Minimum workers pinned to each stage.
    pub min_per_stage: usize,
    /// A stage must take more than `hysteresis ×` the other stage's wave
    /// time to count as the bottleneck (≥ 1.0).
    pub hysteresis: f64,
    /// Consecutive bottleneck waves required before a worker moves.
    pub patience: usize,
    /// Workers moved per adjustment.
    pub step: usize,
}

impl Default for ControllerConfig {
    fn default() -> Self {
        ControllerConfig { total_workers: 8, min_per_stage: 1, hysteresis: 1.25, patience: 2, step: 1 }
    }
}

impl ControllerConfig {
    /// A default-tuned controller config over `total` workers.
    pub fn for_workers(total: usize) -> Self {
        ControllerConfig { total_workers: total, ..Default::default() }
    }

    /// Clamp degenerate values.
    pub fn normalized(mut self) -> Self {
        self.total_workers = self.total_workers.max(2);
        self.min_per_stage = self.min_per_stage.clamp(1, self.total_workers / 2);
        self.hysteresis = if self.hysteresis.is_finite() { self.hysteresis.max(1.0) } else { 1.0 };
        self.patience = self.patience.max(1);
        self.step = self.step.max(1);
        self
    }
}

/// One allocation change, kept in the controller's trace.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AllocationEvent {
    /// Wave whose stats triggered the change.
    pub wave_index: usize,
    /// Campaign time of the change in seconds: simulated time when the
    /// controller is driven by a clock via
    /// [`ScalingController::observe_at`] (e.g. an
    /// [`hpcsim::ExecutorSession`]'s dispatch frontier), otherwise the
    /// controller's internal accumulation of observed wave seconds. Either
    /// way it is derived purely from the observed stats, never read from
    /// the host's clock, so a fixed stat stream (recorded or simulated)
    /// replays its trace bit for bit; stats that are themselves wall-clock
    /// measurements vary run to run, and so do their traces.
    pub at_seconds: f64,
    /// Stage that gained `ControllerConfig::step` workers.
    pub gained: Stage,
    /// The allocation after the change.
    pub allocation: Allocation,
}

/// Node split for an `hpcsim` cluster mirroring the worker allocation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct NodePlan {
    /// Nodes `0..extract_nodes` serve extraction tasks.
    pub extract_nodes: usize,
    /// Nodes `extract_nodes..extract_nodes + parse_nodes` serve parse tasks.
    pub parse_nodes: usize,
}

impl NodePlan {
    /// Total nodes in the plan.
    pub fn total(&self) -> usize {
        self.extract_nodes + self.parse_nodes
    }

    /// The preferred node for the `index`-th task of `stage`: round-robin
    /// within the stage's node range, so data staged for a stage stays on
    /// its fleet. A stage whose fleet is empty (e.g. `plan_nodes(1)` gives
    /// the parse fleet zero nodes) falls back to the whole plan, so the
    /// returned node always exists on a cluster shaped like the plan.
    pub fn preferred_node(&self, stage: Stage, index: usize) -> usize {
        let (offset, span) = match stage {
            Stage::Extract if self.extract_nodes > 0 => (0, self.extract_nodes),
            Stage::Parse if self.parse_nodes > 0 => (self.extract_nodes, self.parse_nodes),
            _ => (0, self.total().max(1)),
        };
        offset + index % span
    }
}

/// The resource-scaling engine's feedback loop.
///
/// Create it with a [`ControllerConfig`], feed it one [`WaveStats`] per wave
/// via [`observe`](ScalingController::observe), and read the allocation for
/// the next wave from the return value. [`history`](ScalingController::history)
/// records every change for reporting.
///
/// The controller never reads the host's wall clock. Timestamps in its
/// trace come either from its own virtual clock (which accrues the
/// overlapped wave time `max(extract, parse)` per observed wave) or — in
/// closed-loop simulation — from an external simulated clock passed to
/// [`observe_at`](ScalingController::observe_at), typically an
/// [`hpcsim::ExecutorSession`]'s dispatch frontier or epoch boundary.
///
/// # Example
///
/// ```
/// use adaparse::{ControllerConfig, ScalingController, StageSample, WaveStats};
///
/// let mut controller = ScalingController::new(ControllerConfig::for_workers(8));
/// // Parse is the persistent bottleneck: after `patience` (default 2)
/// // consecutive waves a worker moves from extract to parse.
/// for wave in 0..2 {
///     controller.observe(&WaveStats {
///         wave_index: wave,
///         extract: StageSample { busy_seconds: 1.0, items: 64 },
///         parse: StageSample { busy_seconds: 3.0, items: 64 },
///         queue_depth: 256,
///     });
/// }
/// let allocation = controller.allocation();
/// assert_eq!(allocation.parse_workers, 5);
/// assert_eq!(allocation.total(), 8);
/// assert_eq!(controller.history().len(), 1);
/// ```
#[derive(Debug, Clone, PartialEq)]
pub struct ScalingController {
    config: ControllerConfig,
    allocation: Allocation,
    /// Signed bottleneck streak: positive = parse was the bottleneck for
    /// `pressure` consecutive waves, negative = extract was.
    pressure: i64,
    /// The controller's notion of campaign time in seconds (see
    /// [`clock_seconds`](ScalingController::clock_seconds)).
    clock_seconds: f64,
    history: Vec<AllocationEvent>,
}

impl ScalingController {
    /// A controller starting from an even worker split.
    pub fn new(config: ControllerConfig) -> Self {
        let config = config.normalized();
        ScalingController {
            allocation: Allocation::even(config.total_workers),
            config,
            pressure: 0,
            clock_seconds: 0.0,
            history: Vec::new(),
        }
    }

    /// The controller's configuration (normalized).
    pub fn config(&self) -> &ControllerConfig {
        &self.config
    }

    /// The current allocation.
    pub fn allocation(&self) -> Allocation {
        self.allocation
    }

    /// Every allocation change so far, in wave order.
    pub fn history(&self) -> &[AllocationEvent] {
        &self.history
    }

    /// The controller's current campaign time in seconds: the last
    /// timestamp sampled via [`observe_at`](ScalingController::observe_at),
    /// or — under plain [`observe`](ScalingController::observe) — the sum
    /// of overlapped wave times seen so far. Never wall time.
    pub fn clock_seconds(&self) -> f64 {
        self.clock_seconds
    }

    /// Digest one wave's stats and return the allocation for the next wave.
    ///
    /// Pure in the functional sense: the new state (and thus the returned
    /// allocation) depends only on the previous state and `stats`. The
    /// controller's virtual clock advances by the wave's overlapped
    /// duration, `max(extract, parse)` busy seconds.
    pub fn observe(&mut self, stats: &WaveStats) -> Allocation {
        let wave_seconds = stats.extract.busy_seconds.max(stats.parse.busy_seconds).max(0.0);
        let at = self.clock_seconds + if wave_seconds.is_finite() { wave_seconds } else { 0.0 };
        self.observe_at(at, stats)
    }

    /// [`observe`](ScalingController::observe), sampling an external clock:
    /// `at_seconds` is the campaign time the wave completed at — in
    /// closed-loop simulation, the [`hpcsim::ExecutorSession`]'s
    /// dispatch frontier after the wave. Trace timestamps then carry
    /// simulated time, so a replayed simulation reproduces the trace
    /// exactly.
    pub fn observe_at(&mut self, at_seconds: f64, stats: &WaveStats) -> Allocation {
        if at_seconds.is_finite() && at_seconds > self.clock_seconds {
            self.clock_seconds = at_seconds;
        }
        // An empty downstream queue means the campaign is draining; freeze
        // the allocation rather than react to a final ragged wave.
        if stats.queue_depth == 0 {
            return self.allocation;
        }
        let extract_s = stats.extract.busy_seconds.max(0.0);
        let parse_s = stats.parse.busy_seconds.max(0.0);
        let direction = if parse_s > extract_s * self.config.hysteresis {
            1
        } else if extract_s > parse_s * self.config.hysteresis {
            -1
        } else {
            0
        };
        // Hysteresis: the streak resets whenever the bottleneck flips or
        // disappears, and must reach `patience` before anything moves.
        self.pressure = match direction {
            0 => 0,
            d if self.pressure.signum() == d => self.pressure + d,
            d => d,
        };
        if self.pressure.unsigned_abs() as usize >= self.config.patience {
            let gained = if self.pressure > 0 { Stage::Parse } else { Stage::Extract };
            if self.shift(gained, stats.wave_index) {
                self.pressure = 0;
            }
        }
        self.allocation
    }

    /// Move `step` workers toward `gained`, respecting the per-stage floor.
    /// Returns whether anything moved.
    fn shift(&mut self, gained: Stage, wave_index: usize) -> bool {
        let step = self.config.step;
        let (give, take) = match gained {
            Stage::Parse => (&mut self.allocation.extract_workers, &mut self.allocation.parse_workers),
            Stage::Extract => (&mut self.allocation.parse_workers, &mut self.allocation.extract_workers),
        };
        let movable = give.saturating_sub(self.config.min_per_stage).min(step);
        if movable == 0 {
            return false;
        }
        *give -= movable;
        *take += movable;
        self.history.push(AllocationEvent {
            wave_index,
            at_seconds: self.clock_seconds,
            gained,
            allocation: self.allocation,
        });
        true
    }

    /// Project the worker allocation onto an `hpcsim` cluster of `nodes`
    /// nodes: each stage gets a node share proportional to its workers, and
    /// both fleets keep at least one node (for `nodes ≥ 2`).
    pub fn plan_nodes(&self, nodes: usize) -> NodePlan {
        if nodes <= 1 {
            return NodePlan { extract_nodes: nodes, parse_nodes: 0 };
        }
        let share = self.allocation.extract_workers as f64 / self.allocation.total().max(1) as f64;
        let extract = ((nodes as f64 * share).round() as usize).clamp(1, nodes - 1);
        NodePlan { extract_nodes: extract, parse_nodes: nodes - extract }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stats(wave: usize, extract_s: f64, parse_s: f64, queue: usize) -> WaveStats {
        WaveStats {
            wave_index: wave,
            extract: StageSample { busy_seconds: extract_s, items: 64 },
            parse: StageSample { busy_seconds: parse_s, items: 64 },
            queue_depth: queue,
        }
    }

    #[test]
    fn balanced_waves_never_move_workers() {
        let mut c = ScalingController::new(ControllerConfig::for_workers(8));
        let start = c.allocation();
        for wave in 0..20 {
            assert_eq!(c.observe(&stats(wave, 1.0, 1.1, 100)), start);
        }
        assert!(c.history().is_empty());
    }

    #[test]
    fn persistent_parse_bottleneck_shifts_workers_to_parse() {
        let mut c = ScalingController::new(ControllerConfig::for_workers(8));
        // patience = 2: the first slow wave arms the streak, the second fires.
        c.observe(&stats(0, 1.0, 3.0, 100));
        assert_eq!(c.allocation(), Allocation::even(8));
        let after = c.observe(&stats(1, 1.0, 3.0, 100));
        assert_eq!(after, Allocation { extract_workers: 3, parse_workers: 5 });
        assert_eq!(c.history().len(), 1);
        assert_eq!(c.history()[0].gained, Stage::Parse);
        // Total worker cap holds throughout.
        assert_eq!(after.total(), 8);
    }

    #[test]
    fn hysteresis_ignores_transient_spikes() {
        let mut c = ScalingController::new(ControllerConfig::for_workers(8));
        for wave in 0..10 {
            // Alternate bottlenecks: the streak never reaches patience.
            let (e, p) = if wave % 2 == 0 { (1.0, 3.0) } else { (3.0, 1.0) };
            c.observe(&stats(wave, e, p, 100));
        }
        assert_eq!(c.allocation(), Allocation::even(8));
        assert!(c.history().is_empty());
    }

    #[test]
    fn allocation_never_starves_a_stage() {
        let mut c =
            ScalingController::new(ControllerConfig { total_workers: 4, patience: 1, ..Default::default() });
        for wave in 0..50 {
            let a = c.observe(&stats(wave, 0.1, 10.0, 100));
            assert!(a.extract_workers >= 1 && a.parse_workers >= 1);
            assert_eq!(a.total(), 4);
        }
        assert_eq!(c.allocation(), Allocation { extract_workers: 1, parse_workers: 3 });
    }

    #[test]
    fn identical_stat_streams_replay_identical_traces() {
        let run = || {
            let mut c = ScalingController::new(ControllerConfig::for_workers(16));
            let mut trace = Vec::new();
            for wave in 0..30 {
                let parse_s = if wave < 15 { 4.0 } else { 0.5 };
                trace.push(c.observe(&stats(wave, 1.0, parse_s, 500 - wave * 16)));
            }
            (trace, c.history().to_vec())
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn draining_queue_freezes_the_allocation() {
        let mut c =
            ScalingController::new(ControllerConfig { total_workers: 8, patience: 1, ..Default::default() });
        c.observe(&stats(0, 1.0, 5.0, 100));
        let before = c.allocation();
        // Ragged final wave with a wild imbalance: ignored.
        assert_eq!(c.observe(&stats(1, 0.001, 9.0, 0)), before);
    }

    #[test]
    fn node_plan_mirrors_the_worker_split() {
        let mut c =
            ScalingController::new(ControllerConfig { total_workers: 8, patience: 1, ..Default::default() });
        assert_eq!(c.plan_nodes(8), NodePlan { extract_nodes: 4, parse_nodes: 4 });
        // Push workers toward parse, the node plan follows.
        for wave in 0..3 {
            c.observe(&stats(wave, 1.0, 9.0, 100));
        }
        let plan = c.plan_nodes(8);
        assert!(plan.parse_nodes > plan.extract_nodes, "{plan:?}");
        assert_eq!(plan.total(), 8);
        // Both fleets survive even extreme splits.
        let tiny = c.plan_nodes(2);
        assert_eq!(tiny, NodePlan { extract_nodes: 1, parse_nodes: 1 });
        assert_eq!(c.plan_nodes(1), NodePlan { extract_nodes: 1, parse_nodes: 0 });
    }

    #[test]
    fn preferred_nodes_round_robin_within_each_fleet() {
        let plan = NodePlan { extract_nodes: 2, parse_nodes: 3 };
        let extract: Vec<usize> = (0..4).map(|i| plan.preferred_node(Stage::Extract, i)).collect();
        assert_eq!(extract, vec![0, 1, 0, 1]);
        let parse: Vec<usize> = (0..4).map(|i| plan.preferred_node(Stage::Parse, i)).collect();
        assert_eq!(parse, vec![2, 3, 4, 2]);
    }

    #[test]
    fn empty_fleets_fall_back_to_nodes_that_exist() {
        // A 1-node plan has no parse fleet: parse tasks must still land on
        // the (only) real node instead of a phantom node 1.
        let single = NodePlan { extract_nodes: 1, parse_nodes: 0 };
        for i in 0..4 {
            assert_eq!(single.preferred_node(Stage::Parse, i), 0);
            assert_eq!(single.preferred_node(Stage::Extract, i), 0);
        }
        let parse_only = NodePlan { extract_nodes: 0, parse_nodes: 2 };
        let extract: Vec<usize> = (0..4).map(|i| parse_only.preferred_node(Stage::Extract, i)).collect();
        assert_eq!(extract, vec![0, 1, 0, 1]);
    }

    #[test]
    fn virtual_clock_accrues_overlapped_wave_time() {
        let mut c = ScalingController::new(ControllerConfig::for_workers(8));
        c.observe(&stats(0, 1.0, 3.0, 100));
        assert_eq!(c.clock_seconds(), 3.0);
        c.observe(&stats(1, 2.5, 1.0, 100));
        assert_eq!(c.clock_seconds(), 5.5);
    }

    #[test]
    fn simulated_clock_timestamps_the_trace() {
        let mut c =
            ScalingController::new(ControllerConfig { total_workers: 8, patience: 1, ..Default::default() });
        c.observe_at(10.0, &stats(0, 1.0, 5.0, 100));
        assert_eq!(c.clock_seconds(), 10.0);
        assert_eq!(c.history().len(), 1);
        assert_eq!(c.history()[0].at_seconds, 10.0);
        // Stale or bad samples never move the clock backwards.
        c.observe_at(5.0, &stats(1, 1.0, 1.0, 100));
        c.observe_at(f64::NAN, &stats(2, 1.0, 1.0, 100));
        assert_eq!(c.clock_seconds(), 10.0);
    }

    #[test]
    fn config_normalization_clamps() {
        let c = ControllerConfig {
            total_workers: 0,
            min_per_stage: 99,
            hysteresis: f64::NAN,
            patience: 0,
            step: 0,
        }
        .normalized();
        assert_eq!(c.total_workers, 2);
        assert_eq!(c.min_per_stage, 1);
        assert_eq!(c.hysteresis, 1.0);
        assert_eq!(c.patience, 1);
        assert_eq!(c.step, 1);
    }
}
