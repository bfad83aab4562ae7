//! Observed per-document cost accounting.
//!
//! A seconds [`crate::scaling::Ledger`] plans with *a-priori* per-document
//! costs from the parser cost models. Real campaigns diverge from those
//! plans — per-tool cost varies wildly across document categories, and on a
//! cluster the effective cost of a document includes stage-in time, cold
//! starts, and data-locality re-fetches. This module closes that gap: a
//! [`WaveCosts`] snapshot reports what completed documents *actually* cost,
//! and the ledger's [`ObservedCosts`] blends those observations with the
//! planned priors into running per-document cost estimates that tighten (or
//! loosen) the effective α the remaining budget affords.
//!
//! Everything here is plain arithmetic over the cost trace, in ingestion
//! order — feeding the same trace twice produces the same estimates bit for
//! bit, which is what keeps the windowed selector deterministic under a
//! budget.

use serde::{Deserialize, Serialize};

use crate::scaling::StageSample;

/// Actual measured costs of one completed wave (or window) of documents,
/// split by routing category.
///
/// "Cheap" documents are the ones routed to the default parser; "expensive"
/// documents went to the high-quality parser and their seconds include
/// *everything* they cost (extraction + high-quality parse), matching the
/// ledger's commit model where a selected document pays the full expensive
/// per-document cost.
#[derive(Debug, Clone, Copy, PartialEq, Default, Serialize, Deserialize)]
pub struct WaveCosts {
    /// Documents routed to the default parser in the wave.
    pub cheap_docs: usize,
    /// Total observed seconds those default-routed documents cost.
    pub cheap_seconds: f64,
    /// Documents routed to the high-quality parser in the wave.
    pub expensive_docs: usize,
    /// Total observed seconds those high-quality documents cost
    /// (extraction included).
    pub expensive_seconds: f64,
}

impl WaveCosts {
    /// Documents covered by the snapshot.
    pub fn docs(&self) -> usize {
        self.cheap_docs + self.expensive_docs
    }

    /// Total observed seconds of the wave.
    pub fn total_seconds(&self) -> f64 {
        self.cheap_seconds + self.expensive_seconds
    }

    /// Fold one document into the snapshot: `high_quality` selects the
    /// category, `seconds` is everything the document cost.
    pub fn record(&mut self, high_quality: bool, seconds: f64) {
        let seconds = seconds.max(0.0);
        if high_quality {
            self.expensive_docs += 1;
            self.expensive_seconds += seconds;
        } else {
            self.cheap_docs += 1;
            self.cheap_seconds += seconds;
        }
    }
}

/// Running per-document cost estimates blending planned priors with
/// observed samples — the cost model of a seconds
/// [`crate::scaling::Ledger`], which builds and feeds it.
///
/// Each category's estimate is a pseudo-count blend: the planned cost
/// enters as `prior_weight` phantom documents, so early waves barely move
/// the estimate and a long campaign converges to the empirical mean. With
/// nothing observed the blend is the plan exactly. The estimate feeds
/// [`crate::scaling::Ledger::affordable_alpha`], so when real documents run
/// more expensive than planned the effective α tightens — and loosens again
/// if costs come in under plan.
///
/// # Example
///
/// ```
/// use adaparse::{Ledger, WaveCosts};
/// use parsersim::ParserKind;
///
/// // Planned: 1 s cheap, 10 s expensive; prior worth 4 phantom documents.
/// let pair = (ParserKind::PyMuPdf, ParserKind::Nougat);
/// let mut ledger = Ledger::seconds(1_000.0, 100, pair, (1.0, 10.0), 4.0);
/// assert_eq!(ledger.observed().unwrap().effective_expensive(), 10.0);
///
/// // A wave whose expensive documents actually cost 20 s each.
/// ledger.ingest(&WaveCosts { cheap_docs: 8, cheap_seconds: 8.0, expensive_docs: 4, expensive_seconds: 80.0 });
/// let costs = ledger.observed().unwrap();
/// // (4 × 10 + 80) / (4 + 4) = 15 s — halfway between prior and evidence.
/// assert_eq!(costs.effective_expensive(), 15.0);
/// assert_eq!(costs.effective_cheap(), 1.0);
/// assert!(costs.expensive_divergence() > 1.0);
/// ```
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct ObservedCosts {
    planned_cheap: f64,
    planned_expensive: f64,
    prior_weight: f64,
    cheap_docs: usize,
    cheap_seconds: f64,
    expensive_docs: usize,
    expensive_seconds: f64,
}

/// Default pseudo-document weight of the planned-cost prior.
pub const DEFAULT_PRIOR_WEIGHT: f64 = 32.0;

impl ObservedCosts {
    /// An accumulator seeded with the planned per-document costs, worth
    /// `prior_weight` phantom documents (0 = trust observations
    /// immediately; large = trust the plan longer). The ledger has checked
    /// all three are finite and non-negative.
    pub(crate) fn new(planned_cheap: f64, planned_expensive: f64, prior_weight: f64) -> Self {
        ObservedCosts {
            planned_cheap,
            planned_expensive,
            prior_weight,
            cheap_docs: 0,
            cheap_seconds: 0.0,
            expensive_docs: 0,
            expensive_seconds: 0.0,
        }
    }

    /// Fold one wave's measured costs into the running estimates.
    pub(crate) fn ingest(&mut self, wave: &WaveCosts) {
        self.cheap_docs += wave.cheap_docs;
        self.cheap_seconds += wave.cheap_seconds.max(0.0);
        self.expensive_docs += wave.expensive_docs;
        self.expensive_seconds += wave.expensive_seconds.max(0.0);
    }

    /// Current per-document estimate for default-routed documents.
    pub fn effective_cheap(&self) -> f64 {
        blend(self.planned_cheap, self.prior_weight, self.cheap_seconds, self.cheap_docs)
    }

    /// Current per-document estimate for high-quality-routed documents.
    pub fn effective_expensive(&self) -> f64 {
        blend(self.planned_expensive, self.prior_weight, self.expensive_seconds, self.expensive_docs)
    }

    /// Ratio of the current cheap estimate to the planned cheap cost
    /// (1.0 = on plan, above = running hot).
    pub fn cheap_divergence(&self) -> f64 {
        divergence(self.effective_cheap(), self.planned_cheap)
    }

    /// Ratio of the current expensive estimate to the planned expensive
    /// cost (1.0 = on plan, above = running hot).
    pub fn expensive_divergence(&self) -> f64 {
        divergence(self.effective_expensive(), self.planned_expensive)
    }

    /// Documents observed so far, across both categories.
    pub fn observed_docs(&self) -> usize {
        self.cheap_docs + self.expensive_docs
    }
}

/// Pseudo-count blend of a planned per-document cost with observed totals.
/// With no prior and no observations the planned value is returned as-is.
fn blend(planned: f64, prior_weight: f64, observed_seconds: f64, observed_docs: usize) -> f64 {
    let denominator = prior_weight + observed_docs as f64;
    if denominator <= 0.0 {
        return planned;
    }
    (prior_weight * planned + observed_seconds) / denominator
}

fn divergence(effective: f64, planned: f64) -> f64 {
    if planned > 0.0 {
        effective / planned
    } else {
        1.0
    }
}

/// Measurements waiting for a decision boundary to pass the finish time
/// that makes them observable — the one deferred-observation queue of the
/// closed simulation loop (per window) and the serve loop (per epoch):
/// neither acts on a completion that has not happened yet.
///
/// One insertion-ordered list. [`pop_due`](Self::pop_due) is a single
/// stable in-place pass: due items are handed out in push order — which
/// every downstream float fold (cost sums, controller samples,
/// fingerprints) depends on — and the rest compacted, so a boundary builds
/// no list of its own. What a pop leaves behind is work in flight at the
/// boundary, which [`hpcsim::ExecutorSession::retire_before`] walks every
/// boundary anyway, so the rescan is a constant factor on the pushes.
/// Measured over whole benchmark passes: `sim_closed_loop`, 439 999 task +
/// 400 000 document pushes over 1 563 boundaries, leaves 16 entries behind
/// every pop (the GPU parses in flight) and scans 1.06× the pushes;
/// `serve_soak`, 634 499 + 510 000 pushes over 37 569 boundaries, leaves a
/// mean of 1.6 (at most 146, under 240 documents in flight) and scans
/// 1.09–1.12×. The min-heap keyed by `(time, insertion index)` this
/// replaces produced the same order with a sift per entry, a re-sort per
/// pop and a `Vec` per boundary; with this little left behind it bought
/// nothing.
pub(crate) struct DeferredQueue<T> {
    /// `(observable-at, measurement)` in push order.
    waiting: Vec<(f64, T)>,
}

impl<T: Copy> DeferredQueue<T> {
    pub(crate) fn new() -> Self {
        DeferredQueue { waiting: Vec::new() }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.waiting.is_empty()
    }

    pub(crate) fn push(&mut self, observable_at: f64, item: T) {
        debug_assert!(!observable_at.is_nan(), "observable-at must be a time");
        self.waiting.push((observable_at, item));
    }

    /// Hand every entry observable at or before `boundary` (`+∞` takes
    /// everything) to `visit`, in push order, and keep the rest.
    pub(crate) fn pop_due(&mut self, boundary: f64, mut visit: impl FnMut(T)) {
        self.waiting.retain(|&(observable_at, item)| {
            let due = observable_at <= boundary;
            if due {
                visit(item);
            }
            !due
        });
    }
}

impl DeferredQueue<(bool, f64)> {
    /// Fold the per-task samples `(is_parse, busy_seconds)` observable at
    /// `boundary` into the controller's `(extract, parse)` stage samples —
    /// built only from tasks finished by the boundary, never from work
    /// whose outcome does not causally exist yet.
    pub(crate) fn pop_stage_samples(&mut self, boundary: f64) -> (StageSample, StageSample) {
        let mut stages = [StageSample { busy_seconds: 0.0, items: 0 }; 2];
        self.pop_due(boundary, |(is_parse, busy_seconds)| {
            stages[is_parse as usize].busy_seconds += busy_seconds;
            stages[is_parse as usize].items += 1;
        });
        (stages[0], stages[1])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn estimates_start_at_the_plan_and_converge_to_observations() {
        let mut costs = ObservedCosts::new(1.0, 10.0, 10.0);
        assert_eq!(costs.effective_cheap(), 1.0);
        assert_eq!(costs.effective_expensive(), 10.0);
        assert_eq!(costs.cheap_divergence(), 1.0);
        // 1000 observed documents at 2 s cheap / 30 s expensive swamp the
        // 10-document prior.
        for _ in 0..100 {
            costs.ingest(&WaveCosts {
                cheap_docs: 9,
                cheap_seconds: 18.0,
                expensive_docs: 1,
                expensive_seconds: 30.0,
            });
        }
        assert!((costs.effective_cheap() - 2.0).abs() < 0.05);
        assert!((costs.effective_expensive() - 30.0).abs() < 2.0);
        assert!(costs.cheap_divergence() > 1.9);
        assert_eq!(costs.observed_docs(), 1000);
    }

    #[test]
    fn costs_under_plan_loosen_the_estimate() {
        let mut costs = ObservedCosts::new(2.0, 20.0, 0.0);
        costs.ingest(&WaveCosts {
            cheap_docs: 4,
            cheap_seconds: 4.0,
            expensive_docs: 2,
            expensive_seconds: 20.0,
        });
        assert_eq!(costs.effective_cheap(), 1.0);
        assert_eq!(costs.effective_expensive(), 10.0);
        assert!(costs.expensive_divergence() < 1.0);
    }

    #[test]
    fn wave_costs_record_by_category() {
        let mut wave = WaveCosts::default();
        wave.record(false, 1.5);
        wave.record(true, 12.0);
        wave.record(false, -3.0); // clamped to zero seconds
        assert_eq!(wave.cheap_docs, 2);
        assert_eq!(wave.expensive_docs, 1);
        assert_eq!(wave.cheap_seconds, 1.5);
        assert_eq!(wave.total_seconds(), 13.5);
        assert_eq!(wave.docs(), 3);
    }

    #[test]
    fn deferred_queue_matches_its_definition_on_random_interleavings() {
        // The definition: a pop hands out every pushed item whose time is at
        // or before the boundary and that no earlier pop handed out, in push
        // order. Times and boundaries share one small grid, so ties and
        // items due exactly at the boundary are the rule; both zeros and
        // the closing `+∞` are in it.
        const TIMES: [f64; 8] = [0.0, -0.0, 0.5, 1.0, 1.0 + f64::EPSILON, 2.5, 4.0, f64::INFINITY];
        for seed in 0..64u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let mut queue = DeferredQueue::new();
            // `(time, item)` pushed and not yet popped, in push order.
            let mut waiting: Vec<(f64, u32)> = Vec::new();
            let pop = |queue: &mut DeferredQueue<u32>, waiting: &mut Vec<(f64, u32)>, boundary: f64| {
                let mut popped = Vec::new();
                queue.pop_due(boundary, |item| popped.push(item));
                let due: Vec<u32> = waiting.iter().filter(|w| w.0 <= boundary).map(|w| w.1).collect();
                assert_eq!(popped, due, "seed {seed}, boundary {boundary}");
                waiting.retain(|w| w.0 > boundary);
                assert_eq!(queue.waiting, *waiting, "what stays is exactly what is later than {boundary}");
                assert_eq!(queue.is_empty(), waiting.is_empty());
            };
            for item in 0..200u32 {
                let at = TIMES[rng.gen_range(0..TIMES.len())];
                if rng.gen_range(0..4) > 0 {
                    queue.push(at, item);
                    waiting.push((at, item));
                    assert!(!queue.is_empty());
                } else {
                    pop(&mut queue, &mut waiting, at);
                }
            }
            // The close takes whatever is left, and a second close nothing.
            pop(&mut queue, &mut waiting, f64::INFINITY);
            assert!(queue.is_empty() && waiting.is_empty());
            pop(&mut queue, &mut waiting, f64::INFINITY);
        }
    }

    #[test]
    fn degenerate_priors_are_safe() {
        // The ledger rejects non-finite and negative numbers before they get
        // here; what remains degenerate is a zero prior with no data.
        let zero_prior = ObservedCosts::new(1.0, 2.0, 0.0);
        assert_eq!(zero_prior.effective_cheap(), 1.0, "no data and no prior keeps the plan");
        assert_eq!(zero_prior.cheap_divergence(), 1.0);
        let free = ObservedCosts::new(0.0, 0.0, 0.0);
        assert_eq!(free.expensive_divergence(), 1.0, "a zero plan reports no divergence");
    }
}
