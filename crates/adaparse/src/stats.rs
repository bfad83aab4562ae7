//! Exact order statistics shared by the closed-loop simulator and the
//! serve layer.
//!
//! Latency SLOs are stated over tail percentiles, and two subsystems
//! reporting "p99" must mean the same number — so both the simulation
//! loop's queue-wait summary and the serve layer's per-tenant
//! time-to-parsed use this one helper instead of ad-hoc aggregates. The
//! method is the *exact nearest-rank* definition (no interpolation): the
//! p-th percentile of `n` values is the `ceil(p/100 · n)`-th smallest
//! (1-indexed), which is always one of the observed values — a latency
//! that actually happened, not a blend of two. NaNs sort last under a
//! deterministic total order, so a corrupted observation can only inflate
//! the extreme tail, never silently vanish or poison a comparison.

/// Deterministic total order on `f64`: ordinary order on numbers
/// (`-0.0 == 0.0`), every NaN after every number, NaNs tied with each
/// other.
fn nan_last(a: &f64, b: &f64) -> std::cmp::Ordering {
    a.partial_cmp(b).unwrap_or_else(|| a.is_nan().cmp(&b.is_nan()))
}

/// The one selection under every percentile in this module: the
/// `ceil(p/100 · population)`-th smallest value (1-indexed, clamped into
/// `1..=population`) of `scratch` under [`nan_last`], by
/// `select_nth_unstable_by` — O(n), no full sort — and its index.
/// `scratch` is left partitioned there, so a lower percentile of the same
/// population is the same call on `scratch[..=index]` with the *whole*
/// population's size (hence `population` apart from `scratch.len()`).
fn select_rank(scratch: &mut [f64], population: usize, percentile: f64) -> (usize, f64) {
    // The product is exact enough for any realistic n; the clamp guards
    // the p = 0 and rounding edges.
    let rank = ((percentile / 100.0) * population as f64).ceil() as usize;
    let index = rank.clamp(1, population) - 1;
    (index, *scratch.select_nth_unstable_by(index, nan_last).1)
}

/// [`nearest_rank_percentile`] on a scratch buffer the caller lets it
/// reorder (the serve layer's copy of a sliding SLO window).
pub(crate) fn percentile_in_place(scratch: &mut [f64], percentile: f64) -> Option<f64> {
    assert!((0.0..=100.0).contains(&percentile), "percentile must be in [0, 100], got {percentile}");
    if scratch.is_empty() {
        return None;
    }
    Some(select_rank(scratch, scratch.len(), percentile).1)
}

/// The exact nearest-rank `percentile` (in `[0, 100]`) of `values`:
/// the `ceil(p/100 · n)`-th smallest value (1-indexed), under the
/// NaN-last total order. `p = 0` returns the minimum. Returns `None` on an
/// empty slice.
///
/// # Panics
///
/// Panics if `percentile` is not in `[0, 100]` (NaN included).
///
/// # Examples
///
/// ```
/// use adaparse::stats::nearest_rank_percentile;
///
/// let waits = [4.0, 1.0, 3.0, 2.0];
/// assert_eq!(nearest_rank_percentile(&waits, 50.0), Some(2.0));
/// assert_eq!(nearest_rank_percentile(&waits, 99.0), Some(4.0));
/// assert_eq!(nearest_rank_percentile(&waits, 0.0), Some(1.0));
/// assert_eq!(nearest_rank_percentile(&[], 50.0), None);
/// ```
pub fn nearest_rank_percentile(values: &[f64], percentile: f64) -> Option<f64> {
    percentile_in_place(&mut values.to_vec(), percentile)
}

/// Exact summary of one latency population: count, mean, max, and the two
/// SLO-facing nearest-rank percentiles. This is the unit both
/// `SimLoopReport` (queue waits) and the serve layer's per-tenant
/// time-to-parsed reports carry, so their tails are directly comparable.
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct LatencySummary {
    /// Number of observations.
    pub count: usize,
    /// Arithmetic mean (0 when empty).
    pub mean_seconds: f64,
    /// Exact nearest-rank p50 (0 when empty).
    pub p50_seconds: f64,
    /// Exact nearest-rank p99 (0 when empty).
    pub p99_seconds: f64,
    /// Largest observation (0 when empty).
    pub max_seconds: f64,
}

impl LatencySummary {
    /// Summarize `values` (empty input yields the all-zero summary).
    pub fn from_values(values: &[f64]) -> Self {
        LatencySummary::with_sum(values, values.iter().sum())
    }

    /// The summary of `values` whose mean is `sum / n`: one scratch copy,
    /// p99 selected first and p50 inside the part at or below it.
    fn with_sum(values: &[f64], sum: f64) -> Self {
        let count = values.len();
        if count == 0 {
            return LatencySummary::default();
        }
        let mut scratch = values.to_vec();
        let (at_p99, p99_seconds) = select_rank(&mut scratch, count, 99.0);
        let (_, p50_seconds) = select_rank(&mut scratch[..=at_p99], count, 50.0);
        let max_seconds = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        LatencySummary { count, mean_seconds: sum / count as f64, p50_seconds, p99_seconds, max_seconds }
    }
}

/// The exact latency population of one tenant (or of a whole run): every
/// observation in recording order, plus its running sum.
///
/// [`summary`](Self::summary) is [`LatencySummary::from_values`] over the
/// recorded values, bit for bit — same count, same left-to-right sum, same
/// selection, same `f64::max` fold — with one documented difference: after
/// [`absorb`](Self::absorb) the mean is the *merged-sum* mean (each absorbed
/// ledger's own sum added as one term, in absorb order), which is what the
/// serve report's overall latency has always carried. Values that compare
/// equal but differ in bits are interchangeable to an unstable selection: a
/// percentile landing on a tie between `-0.0` and `0.0` may return either,
/// and one landing among NaNs (which sort last) any of their bit patterns.
/// Neither occurs in the serve domain — a latency is a finite finish minus
/// an earlier finite arrival.
///
/// Memory is one `f64` per observation, which is the floor: an exact
/// nearest-rank percentile of `n` distinct values needs Ω(n) memory in any
/// structure, and serve latencies *are* distinct, because arrival times are
/// continuous — measured over whole runs, 510 000 of 510 000 on the
/// `serve_soak` benchmark workload, 4 080 of 4 080 on `serve_steady`, 261
/// of 960 on `serve_demo` (its same-timestamp herd tenant: 21 of 720). A
/// count per distinct value therefore held one ordered-map node per
/// observation at ≈ 3× these bytes; a windowed or sketched summary would
/// bound memory but change the reported percentiles.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct LatencyLedger {
    /// Every observation, in recording (then absorb) order.
    values: Vec<f64>,
    /// Running sum in observation order (the `from_values` mean fold).
    sum: f64,
}

impl LatencyLedger {
    /// An empty ledger.
    pub fn new() -> Self {
        LatencyLedger::default()
    }

    /// Record one observation.
    pub fn record(&mut self, seconds: f64) {
        self.values.push(seconds);
        self.sum += seconds;
    }

    /// Number of observations recorded.
    pub fn len(&self) -> usize {
        self.values.len()
    }

    /// Whether the ledger is empty.
    pub fn is_empty(&self) -> bool {
        self.values.is_empty()
    }

    /// Fold another ledger into this one, as if `other`'s observations had
    /// been recorded after this ledger's own (the merged sum is
    /// `self.sum + other.sum`, one addition — callers folding tenants in a
    /// fixed order get a deterministic, reproducible merged mean).
    pub fn absorb(&mut self, other: &LatencyLedger) {
        self.values.extend_from_slice(&other.values);
        self.sum += other.sum;
    }

    /// Exact nearest-rank `percentile` (in `[0, 100]`) over the recorded
    /// population — the value [`nearest_rank_percentile`] returns on the
    /// same observations. `None` when empty.
    ///
    /// # Panics
    ///
    /// Panics if `percentile` is not in `[0, 100]` (NaN included).
    pub fn percentile(&self, percentile: f64) -> Option<f64> {
        nearest_rank_percentile(&self.values, percentile)
    }

    /// Summarize the population: [`LatencySummary::from_values`] over the
    /// same observations, bit for bit (two caveats in the type docs).
    pub fn summary(&self) -> LatencySummary {
        LatencySummary::with_sum(&self.values, self.sum)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_input_has_no_percentile() {
        assert_eq!(nearest_rank_percentile(&[], 0.0), None);
        assert_eq!(nearest_rank_percentile(&[], 50.0), None);
        assert_eq!(nearest_rank_percentile(&[], 100.0), None);
        assert_eq!(LatencySummary::from_values(&[]), LatencySummary::default());
    }

    #[test]
    fn single_value_is_every_percentile() {
        for p in [0.0, 1.0, 50.0, 99.0, 100.0] {
            assert_eq!(nearest_rank_percentile(&[7.5], p), Some(7.5), "p{p}");
        }
        let summary = LatencySummary::from_values(&[7.5]);
        assert_eq!(summary.count, 1);
        assert_eq!(summary.p50_seconds, 7.5);
        assert_eq!(summary.p99_seconds, 7.5);
        assert_eq!(summary.max_seconds, 7.5);
    }

    #[test]
    fn tied_values_return_the_tie() {
        let tied = [3.0; 9];
        assert_eq!(nearest_rank_percentile(&tied, 50.0), Some(3.0));
        assert_eq!(nearest_rank_percentile(&tied, 99.0), Some(3.0));
        // Ties mixed with distinct values still hit an observed value.
        let mixed = [1.0, 2.0, 2.0, 2.0, 5.0];
        assert_eq!(nearest_rank_percentile(&mixed, 50.0), Some(2.0));
        assert_eq!(nearest_rank_percentile(&mixed, 80.0), Some(2.0));
        assert_eq!(nearest_rank_percentile(&mixed, 81.0), Some(5.0));
    }

    #[test]
    fn nearest_rank_matches_the_textbook_cases() {
        // Classic worked example: n = 5.
        let v = [15.0, 20.0, 35.0, 40.0, 50.0];
        assert_eq!(nearest_rank_percentile(&v, 5.0), Some(15.0));
        assert_eq!(nearest_rank_percentile(&v, 30.0), Some(20.0));
        assert_eq!(nearest_rank_percentile(&v, 40.0), Some(20.0));
        assert_eq!(nearest_rank_percentile(&v, 50.0), Some(35.0));
        assert_eq!(nearest_rank_percentile(&v, 100.0), Some(50.0));
        // Unsorted input is handled (the helper sorts a copy).
        let shuffled = [40.0, 15.0, 50.0, 20.0, 35.0];
        assert_eq!(nearest_rank_percentile(&shuffled, 50.0), Some(35.0));
    }

    #[test]
    fn nans_sort_last_and_only_touch_the_extreme_tail() {
        let v = [1.0, f64::NAN, 2.0, 3.0];
        assert_eq!(nearest_rank_percentile(&v, 50.0), Some(2.0));
        assert_eq!(nearest_rank_percentile(&v, 75.0), Some(3.0));
        assert!(nearest_rank_percentile(&v, 100.0).unwrap().is_nan());
        // Negative zero and zero are tied; the result is a real value.
        assert_eq!(nearest_rank_percentile(&[-0.0, 0.0], 50.0), Some(0.0));
    }

    #[test]
    #[should_panic(expected = "percentile must be in [0, 100]")]
    fn out_of_range_percentile_panics() {
        nearest_rank_percentile(&[1.0], 101.0);
    }

    #[test]
    fn ledger_summary_is_bitwise_equal_to_from_values() {
        // Deterministic LCG over awkward magnitudes, with heavy ties.
        let mut state = 0xDEADBEEFCAFEF00Du64;
        let mut next = move || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            let u = ((state >> 33) as f64) / ((1u64 << 31) as f64);
            if u < 0.3 {
                1.5 // tie cluster
            } else {
                u * 73.3 + 0.001
            }
        };
        let mut ledger = LatencyLedger::new();
        let mut values = Vec::new();
        for _ in 0..1000 {
            let v = next();
            ledger.record(v);
            values.push(v);
        }
        let from_vec = LatencySummary::from_values(&values);
        let from_ledger = ledger.summary();
        assert_eq!(from_ledger.count, from_vec.count);
        assert_eq!(from_ledger.mean_seconds.to_bits(), from_vec.mean_seconds.to_bits());
        assert_eq!(from_ledger.p50_seconds.to_bits(), from_vec.p50_seconds.to_bits());
        assert_eq!(from_ledger.p99_seconds.to_bits(), from_vec.p99_seconds.to_bits());
        assert_eq!(from_ledger.max_seconds.to_bits(), from_vec.max_seconds.to_bits());
        for p in [0.0, 1.0, 37.0, 50.0, 99.0, 100.0] {
            assert_eq!(
                ledger.percentile(p).unwrap().to_bits(),
                nearest_rank_percentile(&values, p).unwrap().to_bits(),
                "p{p}"
            );
        }
    }

    #[test]
    fn ledger_absorb_merges_multisets_exactly() {
        let mut a = LatencyLedger::new();
        let mut b = LatencyLedger::new();
        let mut all = Vec::new();
        for (i, v) in [5.0, 1.0, 3.0, 3.0, 9.0, 2.0, 7.0, 3.0].iter().enumerate() {
            if i % 2 == 0 {
                a.record(*v);
            } else {
                b.record(*v);
            }
        }
        // Merge order a-then-b defines the merged observation order.
        for v in [5.0, 3.0, 9.0, 7.0, 1.0, 3.0, 2.0, 3.0] {
            all.push(v);
        }
        a.absorb(&b);
        assert_eq!(a.len(), 8);
        let expected = LatencySummary::from_values(&all);
        let got = a.summary();
        assert_eq!(got.count, expected.count);
        assert_eq!(got.p50_seconds.to_bits(), expected.p50_seconds.to_bits());
        assert_eq!(got.p99_seconds.to_bits(), expected.p99_seconds.to_bits());
        assert_eq!(got.max_seconds.to_bits(), expected.max_seconds.to_bits());
        // Absorbing an empty ledger is a no-op; absorbing into empty copies.
        let snapshot = a.clone();
        a.absorb(&LatencyLedger::new());
        assert_eq!(a, snapshot);
        let mut fresh = LatencyLedger::new();
        fresh.absorb(&snapshot);
        assert_eq!(fresh.summary(), snapshot.summary());
        assert!(LatencyLedger::new().is_empty());
        assert_eq!(LatencyLedger::new().summary(), LatencySummary::default());
        assert_eq!(LatencyLedger::new().percentile(50.0), None);
    }

    #[test]
    fn summary_is_exact_on_a_known_population() {
        let values: Vec<f64> = (1..=100).map(|i| i as f64).collect();
        let summary = LatencySummary::from_values(&values);
        assert_eq!(summary.count, 100);
        assert_eq!(summary.mean_seconds, 50.5);
        assert_eq!(summary.p50_seconds, 50.0);
        assert_eq!(summary.p99_seconds, 99.0);
        assert_eq!(summary.max_seconds, 100.0);
    }
}
