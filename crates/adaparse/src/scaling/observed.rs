//! Observed per-document cost accounting.
//!
//! The budget ledger of [`crate::scaling::window`] plans with *a-priori*
//! per-document costs from the parser cost models. Real campaigns diverge
//! from those plans — per-tool cost varies wildly across document
//! categories, and on a cluster the effective cost of a document includes
//! stage-in time, cold starts, and data-locality re-fetches. This module
//! closes that gap: a [`WaveCosts`] snapshot reports what a completed wave
//! *actually* cost, and an [`ObservedCosts`] accumulator blends those
//! observations with the planned priors into running per-document cost
//! estimates that tighten (or loosen) the effective α the remaining budget
//! affords.
//!
//! Everything here is plain arithmetic over the cost trace, in ingestion
//! order — feeding the same trace twice produces the same estimates bit for
//! bit, which is what keeps the windowed selector deterministic with
//! feedback enabled.

use std::cmp::{Ordering, Reverse};
use std::collections::BinaryHeap;

use serde::{Deserialize, Serialize};

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
/// observed samples.
///
/// Each category's estimate is a pseudo-count blend: the planned cost
/// enters as `prior_weight` phantom documents, so early waves barely move
/// the estimate and a long campaign converges to the empirical mean. The
/// estimate feeds [`crate::scaling::BudgetLedger::affordable_alpha`], so
/// when real documents run more expensive than planned the effective α
/// tightens — and loosens again if costs come in under plan.
///
/// # Example
///
/// ```
/// use adaparse::{ObservedCosts, WaveCosts};
///
/// // Planned: 1 s cheap, 10 s expensive; prior worth 4 phantom documents.
/// let mut costs = ObservedCosts::new(1.0, 10.0).with_prior_weight(4.0);
/// assert_eq!(costs.effective_expensive(), 10.0);
///
/// // A wave whose expensive documents actually cost 20 s each.
/// costs.ingest(&WaveCosts { cheap_docs: 8, cheap_seconds: 8.0, expensive_docs: 4, expensive_seconds: 80.0 });
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
    /// An accumulator seeded with the planned per-document costs and the
    /// [`DEFAULT_PRIOR_WEIGHT`].
    pub fn new(planned_cheap: f64, planned_expensive: f64) -> Self {
        ObservedCosts {
            planned_cheap: planned_cheap.max(0.0),
            planned_expensive: planned_expensive.max(0.0),
            prior_weight: DEFAULT_PRIOR_WEIGHT,
            cheap_docs: 0,
            cheap_seconds: 0.0,
            expensive_docs: 0,
            expensive_seconds: 0.0,
        }
    }

    /// Override how many phantom documents the planned costs are worth
    /// (0 = trust observations immediately; large = trust the plan longer).
    pub fn with_prior_weight(mut self, weight: f64) -> Self {
        self.prior_weight = if weight.is_finite() { weight.max(0.0) } else { DEFAULT_PRIOR_WEIGHT };
        self
    }

    /// Fold one wave's measured costs into the running estimates.
    pub fn ingest(&mut self, wave: &WaveCosts) {
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

/// Order-preserving bit key of an observable-at time: non-negative finite
/// times sort by their IEEE-754 bits (`-0.0` → 0); `+∞` (the close
/// boundary) sorts last.
fn time_bits(seconds: f64) -> u64 {
    debug_assert!(seconds >= 0.0 && !seconds.is_nan(), "observable-at out of domain: {seconds}");
    if seconds == 0.0 {
        0
    } else {
        seconds.to_bits()
    }
}

/// An entry of a [`DeferredQueue`], ordered by `(observable-at bits,
/// insertion sequence)` — the deterministic tie-break that lets the heap
/// reproduce a linear rescan's insertion order exactly.
struct DeferredEntry<T> {
    at_bits: u64,
    seq: u64,
    item: T,
}

impl<T> PartialEq for DeferredEntry<T> {
    fn eq(&self, other: &Self) -> bool {
        (self.at_bits, self.seq) == (other.at_bits, other.seq)
    }
}
impl<T> Eq for DeferredEntry<T> {}
impl<T> PartialOrd for DeferredEntry<T> {
    fn partial_cmp(&self, other: &Self) -> Option<Ordering> {
        Some(self.cmp(other))
    }
}
impl<T> Ord for DeferredEntry<T> {
    fn cmp(&self, other: &Self) -> Ordering {
        (self.at_bits, self.seq).cmp(&(other.at_bits, other.seq))
    }
}

/// Measurements waiting for a decision boundary to pass the finish time
/// that makes them observable — the one deferred-observation queue, shared
/// by the closed simulation loop (per window) and the serve loop (per
/// epoch): neither acts on a completion that has not happened yet.
///
/// A min-heap keyed by `(observable_at bits, insertion index)`. Each
/// boundary pops only the entries it surfaces — O(Δ log n) — instead of
/// rescanning every deferred item, and the popped batch is re-sorted by
/// insertion index so the output is *bitwise the order the full rescan
/// produced* (insertion order among due items), which everything
/// downstream (cost folds, controller samples, fingerprints) depends on.
pub(crate) struct DeferredQueue<T> {
    heap: BinaryHeap<Reverse<DeferredEntry<T>>>,
    next_seq: u64,
}

impl<T> DeferredQueue<T> {
    pub(crate) fn new() -> Self {
        DeferredQueue { heap: BinaryHeap::new(), next_seq: 0 }
    }

    pub(crate) fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    pub(crate) fn push(&mut self, observable_at: f64, item: T) {
        let seq = self.next_seq;
        self.next_seq += 1;
        self.heap.push(Reverse(DeferredEntry { at_bits: time_bits(observable_at), seq, item }));
    }

    /// Pop every entry observable at or before `boundary` (`+∞` pops
    /// everything), in insertion order.
    pub(crate) fn pop_due(&mut self, boundary: f64) -> Vec<T> {
        let boundary_bits = if boundary.is_infinite() { u64::MAX } else { time_bits(boundary) };
        let mut due: Vec<DeferredEntry<T>> = Vec::new();
        while let Some(Reverse(entry)) = self.heap.peek() {
            if entry.at_bits > boundary_bits {
                break;
            }
            let Reverse(entry) = self.heap.pop().expect("peeked non-empty");
            due.push(entry);
        }
        due.sort_by_key(|entry| entry.seq);
        due.into_iter().map(|entry| entry.item).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimates_start_at_the_plan_and_converge_to_observations() {
        let mut costs = ObservedCosts::new(1.0, 10.0).with_prior_weight(10.0);
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
        let mut costs = ObservedCosts::new(2.0, 20.0).with_prior_weight(0.0);
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
    fn degenerate_priors_are_safe() {
        let costs = ObservedCosts::new(-1.0, f64::INFINITY).with_prior_weight(f64::NAN);
        assert_eq!(costs.effective_cheap(), 0.0);
        // Planned costs are clamped non-negative; the NaN prior weight falls
        // back to the default.
        assert!(costs.effective_expensive().is_infinite());
        let zero_prior = ObservedCosts::new(1.0, 2.0).with_prior_weight(0.0);
        assert_eq!(zero_prior.effective_cheap(), 1.0, "no data and no prior keeps the plan");
    }
}
