//! Model-load channels and the cold-start intervals behind the exact
//! concurrent-load peak.

/// Owns the shared model-load channels and every paid cold start's load
/// interval: [`claim`](Self::claim) is the only writer of both, so the
/// intervals are exactly the loads the channels carried, in dispatch order.
#[derive(Debug, Clone, Default)]
pub(super) struct LoadChannels {
    /// Free-at times of the channels ([`crate::LustreModel::model_load_channels`]),
    /// persisting across batches so a herd straddling a drain boundary
    /// still queues. Empty means unlimited.
    free: Vec<f64>,
    /// `(load_start, load_end)` of every paid cold start *not yet retired*.
    intervals: Vec<(f64, f64)>,
    /// Exact concurrent-load peak over the retired history, carried across
    /// retirements so the cumulative peak never needs those intervals again.
    retired_peak: usize,
}

impl LoadChannels {
    /// Resync to the filesystem's channel count (it may change between
    /// drains); 0 channels is unlimited — free parallel loads.
    pub(super) fn resize(&mut self, channels: usize) {
        self.free.resize(channels, 0.0);
    }

    /// Claim a channel for a paid cold start of `cold` seconds on a task
    /// starting at `start`, and return the seconds the load waits for one:
    /// with none free it queues behind the earliest-finishing load (lowest
    /// channel index on ties). The wait is the herd-serialization cost —
    /// compute begins only once the channel frees *and* the load completes.
    pub(super) fn claim(&mut self, start: f64, cold: f64) -> f64 {
        let channel = self.free.iter().enumerate().min_by_key(|&(index, &free)| (free.to_bits(), index));
        let herd_wait = match channel {
            Some((index, &free)) => {
                let load_start = free.max(start);
                self.free[index] = load_start + cold;
                load_start - start
            }
            None => 0.0,
        };
        let load_start = start + herd_wait;
        self.intervals.push((load_start, load_start + cold));
        herd_wait
    }

    /// Load intervals currently retained.
    pub(super) fn retained(&self) -> usize {
        self.intervals.len()
    }

    /// [`concurrent_cold_starts_peak`](super::CampaignReport::concurrent_cold_starts_peak) over the intervals
    /// claimed since `retained()` read `mark` (a drain's own loads).
    pub(super) fn peak_since(&self, mark: usize) -> usize {
        peak_concurrent_loads_below(&self.intervals[mark..], f64::INFINITY)
    }

    /// The session-exact peak: the carried prefix peak covers the retired
    /// history and the sweep covers the retained intervals (a per-batch
    /// maximum is only a lower bound when a herd straddles a drain
    /// boundary).
    pub(super) fn peak(&self) -> usize {
        self.retired_peak.max(self.peak_since(0))
    }

    /// Drop intervals ending at or before `watermark`, carrying their peak.
    pub(super) fn retire_before(&mut self, watermark: f64) {
        // Peak carry first, while the intervals open below the watermark
        // are still present.
        self.retired_peak = self.retired_peak.max(peak_concurrent_loads_below(&self.intervals, watermark));
        self.intervals.retain(|&(_, end)| end > watermark);
    }
}

/// Exact maximum number of half-open `[start, end)` load intervals
/// overlapping at any instant strictly before `bound`, by an event sweep
/// (ends processed before starts at equal times, so a load beginning exactly
/// when another finishes does not count as concurrent with it). The maximum
/// is taken only at start events `< bound`: overlap counts can only change at
/// starts, so the supremum over `[0, bound)` is attained at one. This is the
/// retirement-watermark carry: computed over the still-present intervals *at
/// retirement time* it is the exact peak over all history below the
/// watermark, because every interval open anywhere in `[0, bound)` either
/// ends after the previous watermark (still present) or was already folded
/// into the previous carry.
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
