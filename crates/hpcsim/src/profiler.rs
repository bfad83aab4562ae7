//! GPU-utilization traces (the Nsight-style view of the paper's Figure 4).

/// Busy intervals recorded per GPU during a campaign.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct GpuTrace {
    /// `intervals[g]` holds `(start, end, is_model_load)` busy spans of GPU `g`.
    intervals: Vec<Vec<(f64, f64, bool)>>,
    /// Left-fold busy-seconds partial sum over spans retired from each GPU
    /// by [`retire_before`](Self::retire_before); sized lazily (missing
    /// entries are zero). Folding the retained spans *starting from* this
    /// partial reproduces the full-history fold bitwise — left-to-right
    /// float summation composes over any prefix split.
    retired_busy: Vec<f64>,
    /// Same partial sum restricted to model-load spans.
    retired_load: Vec<f64>,
}

impl GpuTrace {
    /// Trace for `gpus` devices.
    pub fn new(gpus: usize) -> Self {
        GpuTrace { intervals: vec![Vec::new(); gpus], retired_busy: Vec::new(), retired_load: Vec::new() }
    }

    /// Number of GPUs tracked.
    pub fn gpus(&self) -> usize {
        self.intervals.len()
    }

    /// Record a busy span on a GPU. Spans outside the tracked range are ignored.
    pub fn record(&mut self, gpu: usize, start: f64, end: f64, is_model_load: bool) {
        if let Some(spans) = self.intervals.get_mut(gpu) {
            if end > start {
                spans.push((start, end, is_model_load));
            }
        }
    }

    /// Append every span of `other` onto this trace, growing the device
    /// range if `other` tracks more GPUs. Used by executor sessions to fold
    /// per-batch traces into the campaign-cumulative one; span order is
    /// batch order then schedule order, so merged traces are deterministic.
    pub fn merge(&mut self, other: &GpuTrace) {
        if other.intervals.len() > self.intervals.len() {
            self.intervals.resize(other.intervals.len(), Vec::new());
        }
        for (gpu, spans) in other.intervals.iter().enumerate() {
            self.intervals[gpu].extend_from_slice(spans);
        }
    }

    /// Drop the longest *prefix* of each GPU's span list that ends at or
    /// before `watermark_seconds`, folding the dropped spans into the
    /// retired partial sums. [`busy_seconds`](Self::busy_seconds),
    /// [`model_load_seconds`](Self::model_load_seconds), and everything
    /// derived from them ([`utilization`](Self::utilization),
    /// [`mean_utilization`](Self::mean_utilization)) stay **bitwise
    /// identical** to the unretired trace: summation is the same
    /// left-to-right fold, merely resumed from the retired partial.
    /// Only [`utilization_series`](Self::utilization_series) loses
    /// information — retired spans no longer appear in per-bin breakdowns.
    ///
    /// Prefix-only (rather than filtering every early span) keeps the fold
    /// order intact; spans are recorded in batch-then-schedule order, so in
    /// steady state the un-retired suffix is bounded by work in flight.
    pub fn retire_before(&mut self, watermark_seconds: f64) {
        if self.retired_busy.len() < self.intervals.len() {
            self.retired_busy.resize(self.intervals.len(), 0.0);
            self.retired_load.resize(self.intervals.len(), 0.0);
        }
        for (gpu, spans) in self.intervals.iter_mut().enumerate() {
            let cut = spans.iter().position(|&(_, end, _)| end > watermark_seconds).unwrap_or(spans.len());
            for &(start, end, load) in &spans[..cut] {
                self.retired_busy[gpu] += end - start;
                if load {
                    self.retired_load[gpu] += end - start;
                }
            }
            spans.drain(..cut);
        }
    }

    /// Total busy seconds of one GPU (compute + model load), retired spans
    /// included (bitwise, see [`retire_before`](Self::retire_before)).
    pub fn busy_seconds(&self, gpu: usize) -> f64 {
        let retired = self.retired_busy.get(gpu).copied().unwrap_or(0.0);
        self.intervals
            .get(gpu)
            .map(|spans| spans.iter().fold(retired, |acc, (s, e, _)| acc + (e - s)))
            .unwrap_or(retired)
    }

    /// Seconds one GPU spent loading models rather than computing, retired
    /// spans included (bitwise, see [`retire_before`](Self::retire_before)).
    pub fn model_load_seconds(&self, gpu: usize) -> f64 {
        let retired = self.retired_load.get(gpu).copied().unwrap_or(0.0);
        self.intervals
            .get(gpu)
            .map(|spans| {
                spans.iter().filter(|(_, _, load)| *load).fold(retired, |acc, (s, e, _)| acc + (e - s))
            })
            .unwrap_or(retired)
    }

    /// Utilization of one GPU over `[0, horizon]` in `[0, 1]`.
    pub fn utilization(&self, gpu: usize, horizon: f64) -> f64 {
        if horizon <= 0.0 {
            return 0.0;
        }
        (self.busy_seconds(gpu) / horizon).clamp(0.0, 1.0)
    }

    /// Mean utilization across all GPUs.
    pub fn mean_utilization(&self, horizon: f64) -> f64 {
        if self.intervals.is_empty() {
            return 0.0;
        }
        (0..self.intervals.len()).map(|g| self.utilization(g, horizon)).sum::<f64>()
            / self.intervals.len() as f64
    }

    /// Utilization time series of one GPU: `bins` equal windows over
    /// `[0, horizon]`, each reporting the busy fraction within the window.
    /// This is the per-GPU series plotted in Figure 4.
    pub fn utilization_series(&self, gpu: usize, horizon: f64, bins: usize) -> Vec<f64> {
        if horizon <= 0.0 || bins == 0 {
            return vec![0.0; bins];
        }
        let bin_width = horizon / bins as f64;
        let mut series = vec![0.0; bins];
        if let Some(spans) = self.intervals.get(gpu) {
            for &(start, end, _) in spans {
                let first_bin = ((start / bin_width).floor() as usize).min(bins.saturating_sub(1));
                let last_bin = ((end / bin_width).ceil() as usize).min(bins);
                for (b, slot) in series.iter_mut().enumerate().take(last_bin).skip(first_bin) {
                    let bin_start = b as f64 * bin_width;
                    let bin_end = bin_start + bin_width;
                    let overlap = (end.min(bin_end) - start.max(bin_start)).max(0.0);
                    *slot += overlap / bin_width;
                }
            }
        }
        for v in &mut series {
            *v = v.clamp(0.0, 1.0);
        }
        series
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn busy_seconds_and_utilization() {
        let mut trace = GpuTrace::new(2);
        trace.record(0, 0.0, 5.0, false);
        trace.record(0, 10.0, 12.0, true);
        trace.record(1, 0.0, 1.0, false);
        assert_eq!(trace.gpus(), 2);
        assert!((trace.busy_seconds(0) - 7.0).abs() < 1e-12);
        assert!((trace.model_load_seconds(0) - 2.0).abs() < 1e-12);
        assert!((trace.utilization(0, 14.0) - 0.5).abs() < 1e-12);
        assert!((trace.mean_utilization(14.0) - (0.5 + 1.0 / 14.0) / 2.0).abs() < 1e-9);
        assert_eq!(trace.busy_seconds(7), 0.0);
    }

    #[test]
    fn merge_appends_spans_and_grows_the_device_range() {
        let mut a = GpuTrace::new(1);
        a.record(0, 0.0, 1.0, false);
        let mut b = GpuTrace::new(2);
        b.record(0, 1.0, 2.0, true);
        b.record(1, 0.0, 3.0, false);
        a.merge(&b);
        assert_eq!(a.gpus(), 2);
        assert!((a.busy_seconds(0) - 2.0).abs() < 1e-12);
        assert!((a.model_load_seconds(0) - 1.0).abs() < 1e-12);
        assert!((a.busy_seconds(1) - 3.0).abs() < 1e-12);
    }

    #[test]
    fn invalid_spans_are_ignored() {
        let mut trace = GpuTrace::new(1);
        trace.record(0, 5.0, 5.0, false);
        trace.record(0, 6.0, 4.0, false);
        trace.record(9, 0.0, 1.0, false);
        assert_eq!(trace.busy_seconds(0), 0.0);
    }

    #[test]
    fn retire_before_preserves_busy_accounting_bitwise() {
        let mut full = GpuTrace::new(2);
        let mut retired = GpuTrace::new(2);
        // Irrational-ish durations so any fold-order change would show.
        let spans = [
            (0usize, 0.1, 1.3, false),
            (0, 1.7, 2.9, true),
            (1, 0.3, 0.7, false),
            (0, 3.1, 4.3, false),
            (1, 2.9, 6.1, true),
            (0, 5.0, 7.7, false),
        ];
        for &(gpu, s, e, load) in &spans {
            full.record(gpu, s, e, load);
            retired.record(gpu, s, e, load);
        }
        retired.retire_before(3.0);
        retired.retire_before(5.0); // repeated retirement composes
        for gpu in 0..2 {
            assert_eq!(full.busy_seconds(gpu).to_bits(), retired.busy_seconds(gpu).to_bits());
            assert_eq!(full.model_load_seconds(gpu).to_bits(), retired.model_load_seconds(gpu).to_bits());
            assert_eq!(full.utilization(gpu, 7.7).to_bits(), retired.utilization(gpu, 7.7).to_bits());
        }
        assert_eq!(full.mean_utilization(7.7).to_bits(), retired.mean_utilization(7.7).to_bits());
        // GPU 1's long span straddles the watermark: it must not retire.
        // (Prefix rule: GPU 0 retired its first two spans only — span 3
        // ends at 4.3 > 3.0 at the first call, then <= 5.0 at the second.)
        assert!(retired.busy_seconds(1) > 0.0);
    }

    #[test]
    fn utilization_series_localizes_activity() {
        let mut trace = GpuTrace::new(1);
        trace.record(0, 0.0, 5.0, false);
        let series = trace.utilization_series(0, 10.0, 10);
        assert_eq!(series.len(), 10);
        assert!(series[..5].iter().all(|&v| v > 0.99));
        assert!(series[5..].iter().all(|&v| v < 0.01));
        assert!(trace.utilization_series(0, 0.0, 4).iter().all(|&v| v == 0.0));
    }
}
