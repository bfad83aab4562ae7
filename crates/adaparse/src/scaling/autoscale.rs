//! SLO-driven fleet autoscaling for the serve layer.
//!
//! The [`ScalingController`](crate::scaling::ScalingController) splits a
//! *fixed* fleet between stages; this
//! module decides how big the fleet should be in the first place. Each
//! serve epoch the [`SloAutoscaler`] observes two signals — the worst
//! per-tenant ratio of achieved p99 time-to-parsed to its SLO target, and
//! the admission backlog per active slot — and moves the active node count
//! asymmetrically:
//!
//! * **Up, fast**: one epoch of SLO violation (`ratio > 1`) or of backlog
//!   above the pressure threshold grows the fleet by `STEP_UP` nodes. Tail
//!   latency compounds while you hesitate.
//! * **Down, slow**: the fleet shrinks by `STEP_DOWN` only after
//!   `DOWN_PATIENCE` *consecutive* epochs with every tenant comfortably
//!   under target (`ratio < HEADROOM`) and a quiet backlog. This
//!   hysteresis keeps a bursty trace from whipsawing the fleet.
//!
//! Decisions are pure functions of the observation stream, so a replayed
//! serve run replays its fleet trace bit for bit. Every change is recorded
//! as a [`FleetEvent`] for reports and ablations.

/// Nodes added per scale-up decision.
const STEP_UP: usize = 3;
/// Nodes removed per scale-down decision.
const STEP_DOWN: usize = 2;
/// Consecutive healthy epochs required before any scale-down.
const DOWN_PATIENCE: usize = 2;
/// A tenant p99/SLO ratio below this counts as "comfortable"; only then
/// does the healthy streak advance.
const HEADROOM: f64 = 0.6;
/// Admitted-but-unfinished documents per active slot above which the fleet
/// scales up even with no SLO violation yet (backlog is a leading
/// indicator; p99 is a trailing one).
const BACKLOG_PER_SLOT_UP: f64 = 1.0;

/// The fleet bounds of an [`SloAutoscaler`]: `min_nodes..=max_nodes`; see
/// the module docs for the up/down asymmetry.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct AutoscaleConfig {
    /// Smallest fleet the autoscaler will ever request (≥ 1).
    pub min_nodes: usize,
    /// Largest fleet the autoscaler will ever request.
    pub max_nodes: usize,
}

impl Default for AutoscaleConfig {
    fn default() -> Self {
        AutoscaleConfig { min_nodes: 1, max_nodes: 8 }
    }
}

/// One fleet-size change: which epoch, when, from/to how many nodes, and
/// the signals that drove it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FleetEvent {
    /// Serve epoch index of the decision.
    pub epoch: usize,
    /// Simulated time of the decision boundary.
    pub at_seconds: f64,
    /// Active nodes before the change.
    pub from_nodes: usize,
    /// Active nodes after the change.
    pub to_nodes: usize,
    /// Worst per-tenant achieved-p99 / SLO ratio observed this epoch
    /// (0 when no tenant has completions yet).
    pub worst_slo_ratio: f64,
    /// Admission backlog per active slot observed this epoch.
    pub backlog_per_slot: f64,
}

/// The SLO-driven autoscaler. Feed it one observation per serve epoch via
/// [`SloAutoscaler::observe`], which returns the fleet size for the next
/// epoch; read the change log with [`SloAutoscaler::history`].
#[derive(Debug, Clone)]
pub struct SloAutoscaler {
    config: AutoscaleConfig,
    nodes: usize,
    healthy_streak: usize,
    history: Vec<FleetEvent>,
}

impl SloAutoscaler {
    /// Create an autoscaler starting at `initial_nodes` (clamped into the
    /// configured bounds).
    ///
    /// # Panics
    ///
    /// Panics if the bounds are inconsistent: `min_nodes` of zero or
    /// `max_nodes < min_nodes`.
    pub fn new(config: AutoscaleConfig, initial_nodes: usize) -> Self {
        assert!(config.min_nodes >= 1, "min_nodes must be at least 1");
        assert!(
            config.max_nodes >= config.min_nodes,
            "max_nodes ({}) must be >= min_nodes ({})",
            config.max_nodes,
            config.min_nodes
        );
        let nodes = initial_nodes.clamp(config.min_nodes, config.max_nodes);
        SloAutoscaler { config, nodes, healthy_streak: 0, history: Vec::new() }
    }

    /// Every fleet-size change so far, in decision order.
    pub fn history(&self) -> &[FleetEvent] {
        &self.history
    }

    /// Observe one epoch boundary and return the fleet size to run the
    /// next epoch with. `worst_slo_ratio` is the maximum over tenants of
    /// achieved p99 / SLO target (0 when nothing has completed yet);
    /// `backlog_per_slot` is admitted-but-unfinished documents divided by
    /// active slots.
    pub fn observe(
        &mut self,
        epoch: usize,
        at_seconds: f64,
        worst_slo_ratio: f64,
        backlog_per_slot: f64,
    ) -> usize {
        let pressured = worst_slo_ratio > 1.0 || backlog_per_slot > BACKLOG_PER_SLOT_UP;
        let comfortable = worst_slo_ratio < HEADROOM && backlog_per_slot <= BACKLOG_PER_SLOT_UP * 0.5;
        let target = if pressured {
            self.healthy_streak = 0;
            (self.nodes + STEP_UP).min(self.config.max_nodes)
        } else if comfortable {
            self.healthy_streak += 1;
            if self.healthy_streak >= DOWN_PATIENCE {
                self.healthy_streak = 0;
                self.nodes.saturating_sub(STEP_DOWN).max(self.config.min_nodes)
            } else {
                self.nodes
            }
        } else {
            // Neither pressured nor comfortable: hold, and restart the
            // patience clock so a borderline epoch can't sneak a shrink.
            self.healthy_streak = 0;
            self.nodes
        };
        if target != self.nodes {
            self.history.push(FleetEvent {
                epoch,
                at_seconds,
                from_nodes: self.nodes,
                to_nodes: target,
                worst_slo_ratio,
                backlog_per_slot,
            });
            self.nodes = target;
        }
        self.nodes
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scaler() -> SloAutoscaler {
        SloAutoscaler::new(AutoscaleConfig::default(), 2)
    }

    #[test]
    fn violation_scales_up_immediately() {
        let mut s = scaler();
        assert_eq!(s.observe(0, 10.0, 1.3, 0.0), 5);
        assert_eq!(s.history().len(), 1);
        assert_eq!(s.history()[0].from_nodes, 2);
        assert_eq!(s.history()[0].to_nodes, 5);
    }

    #[test]
    fn backlog_pressure_scales_up_without_a_violation() {
        let mut s = scaler();
        assert_eq!(s.observe(0, 10.0, 0.2, 1.0), 2, "a backlog at the threshold is not pressure");
        assert_eq!(s.observe(1, 20.0, 0.2, 1.5), 5);
    }

    #[test]
    fn scale_down_requires_consecutive_healthy_epochs() {
        let mut s = scaler();
        s.observe(0, 0.0, 1.5, 0.0); // up to 5
        assert_eq!(s.observe(1, 1.0, 0.1, 0.0), 5);
        // Second comfortable epoch in a row shrinks.
        assert_eq!(s.observe(2, 2.0, 0.1, 0.0), 3);
        // A borderline epoch resets the patience clock.
        assert_eq!(s.observe(3, 3.0, 0.8, 0.0), 3);
        assert_eq!(s.observe(4, 4.0, 0.1, 0.0), 3);
        assert_eq!(s.observe(5, 5.0, 0.1, 0.0), 1);
    }

    #[test]
    fn fleet_stays_inside_the_configured_bounds() {
        let mut s = scaler();
        let fleets: Vec<usize> = (0..10).map(|epoch| s.observe(epoch, epoch as f64, 2.0, 50.0)).collect();
        assert!(fleets.iter().all(|&nodes| nodes <= 8));
        assert_eq!(fleets.last(), Some(&8));
        let mut s = scaler();
        let fleets: Vec<usize> = (0..40).map(|epoch| s.observe(epoch, epoch as f64, 0.0, 0.0)).collect();
        assert!(fleets.iter().all(|&nodes| nodes >= 1));
        assert_eq!(fleets.last(), Some(&1));
    }

    #[test]
    fn identical_observation_streams_replay_identical_traces() {
        let observations =
            [(0.1, 0.0), (1.4, 2.0), (0.2, 0.1), (0.9, 5.0), (0.1, 0.0), (0.1, 0.0), (0.1, 0.0)];
        let run = |mut s: SloAutoscaler| {
            let fleets: Vec<usize> = observations
                .iter()
                .enumerate()
                .map(|(epoch, (ratio, backlog))| s.observe(epoch, epoch as f64 * 7.0, *ratio, *backlog))
                .collect();
            (fleets, s.history().to_vec())
        };
        assert_eq!(run(scaler()), run(scaler()));
    }

    #[test]
    #[should_panic(expected = "max_nodes")]
    fn inverted_bounds_panic() {
        SloAutoscaler::new(AutoscaleConfig { min_nodes: 4, max_nodes: 2 }, 2);
    }
}
