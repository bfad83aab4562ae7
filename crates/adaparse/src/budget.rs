//! The constrained-budget optimizer of Appendix C.
//!
//! AdaParse restricts itself to two parsers (PyMuPDF and Nougat). Given a
//! total compute budget `T`, the fraction α of documents that may go to
//! Nougat is bounded by
//!
//! ```text
//! α ≤ (T − n·T_PyMuPDF) / (n·(T_Nougat − T_PyMuPDF))
//! ```
//!
//! and the objective is maximized by sorting documents by the *expected
//! accuracy improvement* of Nougat over PyMuPDF and sending the top ⌊αn⌋ to
//! Nougat. For throughput, AdaParse performs this selection per batch of
//! size k rather than globally; the optimality gap is negligible for large k
//! and is measurable with [`windowed_optimality_gap`].

/// Ranking key of a document CLS I flagged invalid: it outranks every real
/// improvement, so it always deserves an upgrade slot while any remain.
pub const URGENT: f64 = f64::MAX / 4.0;

/// Ranking key of an invalid document's *second-choice* render-reading
/// upgrade ([`crate::cascade::cascade_gains`]): above every real gain, below
/// [`URGENT`].
pub const URGENT_SECOND: f64 = f64::MAX / 8.0;

/// Ranking key of a document the router expects no improvement for: it ranks
/// below every real score, and a slot that lands on it anyway (surplus quota)
/// leaves the document on the base parser.
pub const NON_CANDIDATE: f64 = f64::MIN / 4.0;

/// Scores at or below this floor are [`NON_CANDIDATE`] sentinels, not
/// predictions.
pub const CANDIDATE_FLOOR: f64 = f64::MIN / 8.0;

/// Whether `score` is a real upgrade candidate rather than the
/// [`NON_CANDIDATE`] sentinel (NaN is not a candidate).
pub fn is_candidate(score: f64) -> bool {
    score > CANDIDATE_FLOOR
}

/// Upper bound on α implied by a total budget `total_budget` (seconds) for
/// `n` documents with average per-document costs `cheap_cost` and
/// `expensive_cost` (seconds).
///
/// Returns a value clamped to `[0, 1]`; returns `0.0` when even the cheap
/// parser alone exceeds the budget, and `1.0` when the expensive parser fits
/// for every document.
pub fn max_affordable_alpha(total_budget: f64, n: usize, cheap_cost: f64, expensive_cost: f64) -> f64 {
    if n == 0 {
        return 1.0;
    }
    let n = n as f64;
    if expensive_cost <= cheap_cost {
        return 1.0;
    }
    let alpha = (total_budget - n * cheap_cost) / (n * (expensive_cost - cheap_cost));
    alpha.clamp(0.0, 1.0)
}

/// One kept entry of the bounded top-k heap: ordered so the heap's *maximum*
/// is the worst-ranked kept entry (lowest key, then highest index), making
/// `peek()` the replacement candidate.
#[derive(Debug, Clone, Copy, PartialEq)]
struct Kept {
    key: f64,
    index: usize,
}

impl Eq for Kept {}

impl Ord for Kept {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reverse of rank order: a *worse*-ranked entry (smaller key, or an
        // equal key at a larger index) compares greater, so it surfaces at
        // the top of the max-heap.
        other.key.total_cmp(&self.key).then_with(|| self.index.cmp(&other.index))
    }
}

impl PartialOrd for Kept {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}

/// Indices of the `k` highest entries of `scores`, in descending-score
/// order under a *total* order (`f64::total_cmp`), ties broken by ascending
/// index — exactly the first `k` entries of a full descending sort, without
/// sorting all n: a bounded max-heap keeps the k best seen so far, so the
/// cost is O(n log k) instead of O(n log n). For the windowed selector this
/// is the per-window hot path (k = ⌊α·window⌋ is small while n is the
/// window size).
///
/// `partial_cmp(..).unwrap_or(Equal)` would make NaN or tied improvements
/// order-unstable (dependent on the heap's internal state); a total order
/// with an index tiebreak keeps every routing mask a pure function of the
/// score vector. NaN scores rank below every real score (under raw
/// `total_cmp`, positive NaN would outrank +∞ — a NaN prediction must never
/// win a routing slot).
pub(crate) fn top_k_indices(scores: &[f64], k: usize) -> Vec<usize> {
    fn key(v: f64) -> f64 {
        if v.is_nan() {
            f64::NEG_INFINITY
        } else {
            v
        }
    }
    let k = k.min(scores.len());
    if k == 0 {
        return Vec::new();
    }
    let mut heap: std::collections::BinaryHeap<Kept> = std::collections::BinaryHeap::with_capacity(k);
    for (index, &score) in scores.iter().enumerate() {
        let entry = Kept { key: key(score), index };
        if heap.len() < k {
            heap.push(entry);
        } else if entry < *heap.peek().expect("heap holds k > 0 entries") {
            // Better-ranked than the worst kept entry: replace it.
            heap.pop();
            heap.push(entry);
        }
    }
    let mut kept = heap.into_vec();
    // `Kept`'s order is reverse rank, so ascending sort is best-first.
    kept.sort_unstable();
    kept.into_iter().map(|entry| entry.index).collect()
}

/// Mark the `quota` highest entries of `scores` in a fresh boolean mask,
/// using the deterministic [`top_k_indices`] ranking.
pub(crate) fn top_quota_mask(scores: &[f64], quota: usize) -> Vec<bool> {
    let mut mask = vec![false; scores.len()];
    for index in top_k_indices(scores, quota) {
        mask[index] = true;
    }
    mask
}

/// Per-batch greedy selection: mark the ⌊α·k⌋ documents with the highest
/// predicted improvement within each batch of size `batch_size`.
///
/// Returns a boolean mask (`true` = route to the high-quality parser) of the
/// same length as `improvements`.
pub fn select_batch(improvements: &[f64], alpha: f64, batch_size: usize) -> Vec<bool> {
    let alpha = alpha.clamp(0.0, 1.0);
    let batch_size = batch_size.max(1);
    let mut mask = vec![false; improvements.len()];
    for (batch_index, batch) in improvements.chunks(batch_size).enumerate() {
        let quota = ((batch.len() as f64) * alpha).floor() as usize;
        if quota == 0 {
            continue;
        }
        for local in top_k_indices(batch, quota) {
            mask[batch_index * batch_size + local] = true;
        }
    }
    mask
}

/// Global selection: mark the ⌊α·n⌋ documents with the highest predicted
/// improvement across the whole collection (the optimum of the relaxed
/// problem).
pub fn select_global(improvements: &[f64], alpha: f64) -> Vec<bool> {
    let quota = ((improvements.len() as f64) * alpha.clamp(0.0, 1.0)).floor() as usize;
    top_quota_mask(improvements, quota)
}

/// Result of a k-parser greedy assignment: per document the chosen upgrade
/// (an index into the frontier's upgrade list) or `None` for the base
/// parser, plus the slot budget actually consumed.
#[derive(Debug, Clone, PartialEq)]
pub struct KAssignment {
    /// Per-document choice: `Some(j)` assigns upgrade `j` (frontier order),
    /// `None` keeps the base parser.
    pub choices: Vec<Option<usize>>,
    /// Sum of the weights of all granted upgrades (≤ the slot budget).
    pub slots_consumed: f64,
}

/// Marginal-gain-per-cost greedy assignment over a k-parser frontier — the
/// k-way generalization of [`select_global`]'s top-⌊αn⌋ selection.
///
/// `gains_per_parser` holds one gain vector per upgrade parser (frontier
/// order), each of length n; `weights` holds the per-upgrade slot costs
/// (`FrontierEntry::upgrade_weight`: in `(0, 1]`, exactly `1.0` for the
/// costliest upgrade); `slots` is the budget in units of the costliest
/// upgrade. Candidates `(document, upgrade)` are ranked by gain/weight
/// under the same total order as [`select_global`] (NaN last, ties by gain,
/// then ascending document, then ascending — i.e. cheapest — upgrade), and
/// granted first-fit while their weight fits the remaining budget; each
/// document takes at most one upgrade.
///
/// **Degenerate-case guarantee (pinned by this module's proptests):** with a
/// single upgrade of weight exactly `1.0` and `slots = ⌊α·n⌋`, the ranking
/// key `gain / 1.0` is bitwise the gain itself and the slot arithmetic is
/// exact integer f64 counting, so the returned mask equals
/// `select_global(gains, α)` bitwise — ordering, tie-breaks, NaN handling
/// and all.
///
/// # Panics
///
/// Panics when `gains_per_parser` and `weights` disagree in length, the gain
/// vectors have unequal lengths, or a weight is outside `(0, 1]`.
pub fn assign_k(gains_per_parser: &[Vec<f64>], weights: &[f64], slots: f64) -> KAssignment {
    fn key(v: f64) -> f64 {
        if v.is_nan() {
            f64::NEG_INFINITY
        } else {
            v
        }
    }
    assert_eq!(gains_per_parser.len(), weights.len(), "one gain vector per upgrade parser");
    let n = gains_per_parser.first().map(Vec::len).unwrap_or(0);
    for gains in gains_per_parser {
        assert_eq!(gains.len(), n, "gain vectors must have equal length");
    }
    for &w in weights {
        assert!(w > 0.0 && w <= 1.0, "upgrade weights must lie in (0, 1], got {w}");
    }
    struct Candidate {
        ratio_key: f64,
        gain_key: f64,
        doc: usize,
        parser: usize,
    }
    let mut candidates = Vec::with_capacity(n * weights.len());
    for (parser, gains) in gains_per_parser.iter().enumerate() {
        let weight = weights[parser];
        for (doc, &gain) in gains.iter().enumerate() {
            candidates.push(Candidate { ratio_key: key(gain / weight), gain_key: key(gain), doc, parser });
        }
    }
    candidates.sort_unstable_by(|a, b| {
        b.ratio_key
            .total_cmp(&a.ratio_key)
            .then_with(|| b.gain_key.total_cmp(&a.gain_key))
            .then_with(|| a.doc.cmp(&b.doc))
            .then_with(|| a.parser.cmp(&b.parser))
    });
    let mut choices: Vec<Option<usize>> = vec![None; n];
    let mut remaining = slots.max(0.0);
    let mut slots_consumed = 0.0;
    for candidate in candidates {
        if choices[candidate.doc].is_some() {
            continue;
        }
        let weight = weights[candidate.parser];
        if weight <= remaining {
            choices[candidate.doc] = Some(candidate.parser);
            remaining -= weight;
            slots_consumed += weight;
        }
    }
    KAssignment { choices, slots_consumed }
}

/// Total improvement captured by a selection mask.
fn captured_improvement(improvements: &[f64], mask: &[bool]) -> f64 {
    improvements.iter().zip(mask).filter(|(_, &m)| m).map(|(v, _)| v).sum()
}

/// Relative optimality gap of the *streaming windowed* selection (size-`window`
/// windows against a running remaining-budget ledger, see
/// [`crate::scaling::WindowedSelector`]) against the global optimum.
///
/// The paper's claim — the gap is negligible for large k — is testable here:
/// with `window == improvements.len()` the gap is exactly zero, and for
/// nonnegative improvements the ledger's quota carryover makes the windowed
/// gap no worse than the independent per-batch gap ([`select_batch`]) at
/// the same size. With negative scores the carryover can *force* a
/// loss-making pick that a quota-forfeiting batch would have skipped, so
/// that ordering is not guaranteed there (the campaign itself is safe: a
/// selected non-candidate still routes to the default parser).
pub fn windowed_optimality_gap(improvements: &[f64], alpha: f64, window: usize) -> f64 {
    let mask = crate::scaling::WindowedSelector::new(window, alpha).select_all(improvements);
    gap_against_global(improvements, alpha, &mask)
}

/// `(global − captured(mask)) / global`, clamped to `[0, ∞)`, or `0.0` when
/// the global optimum captures nothing.
fn gap_against_global(improvements: &[f64], alpha: f64, mask: &[bool]) -> f64 {
    let global = captured_improvement(improvements, &select_global(improvements, alpha));
    if global <= 0.0 {
        return 0.0;
    }
    let captured = captured_improvement(improvements, mask);
    ((global - captured) / global).max(0.0)
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn alpha_bound_matches_the_formula() {
        // n = 100 docs, cheap = 1 s, expensive = 11 s, budget = 150 s:
        // alpha <= (150 - 100) / (100 * 10) = 0.05.
        let alpha = max_affordable_alpha(150.0, 100, 1.0, 11.0);
        assert!((alpha - 0.05).abs() < 1e-12);
        assert_eq!(max_affordable_alpha(50.0, 100, 1.0, 11.0), 0.0);
        assert_eq!(max_affordable_alpha(1e9, 100, 1.0, 11.0), 1.0);
        assert_eq!(max_affordable_alpha(1.0, 0, 1.0, 11.0), 1.0);
        assert_eq!(max_affordable_alpha(1.0, 10, 2.0, 2.0), 1.0);
    }

    #[test]
    fn batch_selection_respects_the_quota_per_batch() {
        let improvements: Vec<f64> = (0..100).map(|i| i as f64 / 100.0).collect();
        let mask = select_batch(&improvements, 0.1, 20);
        assert_eq!(mask.len(), 100);
        for chunk in mask.chunks(20) {
            assert_eq!(chunk.iter().filter(|&&m| m).count(), 2);
        }
        // Within each batch the selected entries are the largest.
        for (b, chunk) in improvements.chunks(20).enumerate() {
            let selected_min = chunk
                .iter()
                .zip(&mask[b * 20..(b + 1) * 20])
                .filter(|(_, &m)| m)
                .map(|(v, _)| *v)
                .fold(f64::INFINITY, f64::min);
            let unselected_max = chunk
                .iter()
                .zip(&mask[b * 20..(b + 1) * 20])
                .filter(|(_, &m)| !m)
                .map(|(v, _)| *v)
                .fold(f64::NEG_INFINITY, f64::max);
            assert!(selected_min >= unselected_max);
        }
    }

    #[test]
    fn global_selection_picks_the_overall_top() {
        let improvements = vec![0.1, 0.9, 0.2, 0.8, 0.0, 0.7];
        let mask = select_global(&improvements, 0.5);
        assert_eq!(mask.iter().filter(|&&m| m).count(), 3);
        assert!(mask[1] && mask[3] && mask[5]);
    }

    #[test]
    fn zero_alpha_selects_nothing_and_one_selects_everything() {
        let improvements = vec![0.5; 10];
        assert!(select_batch(&improvements, 0.0, 4).iter().all(|&m| !m));
        assert!(select_global(&improvements, 1.0).iter().all(|&m| m));
        assert!(select_batch(&[], 0.5, 4).is_empty());
    }

    #[test]
    fn tied_and_nan_scores_break_ties_by_index() {
        // All-tied scores: the mask must pick the *earliest* entries, and do
        // so identically on every call (a total order with an index tiebreak,
        // not whatever the sort happened to leave in place).
        let tied = vec![0.5; 8];
        let mask = select_batch(&tied, 0.5, 8);
        assert_eq!(mask, vec![true, true, true, true, false, false, false, false]);
        assert_eq!(mask, select_batch(&tied, 0.5, 8));
        assert_eq!(mask, select_global(&tied, 0.5));

        // NaN ranks below every real number under total_cmp, so it is never
        // selected while finite candidates remain.
        let with_nan = vec![f64::NAN, 0.1, f64::NAN, 0.2];
        let mask = select_global(&with_nan, 0.5);
        assert_eq!(mask, vec![false, true, false, true]);
        assert_eq!(select_batch(&with_nan, 0.5, 2), vec![false, true, false, true]);
    }

    #[test]
    fn windowed_gap_is_zero_at_full_window_and_no_worse_than_batch() {
        let mut rng = StdRng::seed_from_u64(17);
        let improvements: Vec<f64> = (0..2048).map(|_| rng.gen_range(0.0..1.0)).collect();
        assert!(windowed_optimality_gap(&improvements, 0.05, improvements.len()) < 1e-12);
        for window in [8usize, 64, 512] {
            let windowed = windowed_optimality_gap(&improvements, 0.05, window);
            let batch = gap_against_global(&improvements, 0.05, &select_batch(&improvements, 0.05, window));
            assert!(windowed <= batch + 1e-9, "window={window}: {windowed} vs batch {batch}");
        }
    }

    #[test]
    fn captured_improvement_sums_selected_entries() {
        let improvements = vec![0.2, 0.4, 0.6];
        let mask = vec![true, false, true];
        assert!((captured_improvement(&improvements, &mask) - 0.8).abs() < 1e-12);
    }

    /// The full O(n log n) descending sort that [`top_k_indices`] replaced:
    /// NaN ranks last, ties break by ascending index.
    fn full_sort_order(scores: &[f64]) -> Vec<usize> {
        fn key(v: f64) -> f64 {
            if v.is_nan() {
                f64::NEG_INFINITY
            } else {
                v
            }
        }
        let mut order: Vec<usize> = (0..scores.len()).collect();
        order.sort_by(|&a, &b| key(scores[b]).total_cmp(&key(scores[a])).then_with(|| a.cmp(&b)));
        order
    }

    #[test]
    fn assign_k_prefers_high_ratio_candidates() {
        // Two upgrades: cheap (weight 0.25) with modest gains, costly
        // (weight 1.0) with large gains.
        let gains = vec![vec![0.1, 0.05, 0.2, 0.0], vec![0.3, 0.6, 0.25, 0.0]];
        let weights = vec![0.25, 1.0];
        let assignment = assign_k(&gains, &weights, 1.5);
        // Ratios: cheap = gain*4 → [0.4, 0.2, 0.8, 0], costly = [0.3, 0.6, 0.25, 0].
        // Greedy order: doc2@cheap(0.8), doc1@costly(0.6), doc0@cheap(0.4)...
        // Budget 1.5: 0.25 + 1.0 + 0.25 = 1.5 — all three fit.
        assert_eq!(assignment.choices, vec![Some(0), Some(1), Some(0), None]);
        assert!((assignment.slots_consumed - 1.5).abs() < 1e-12);
    }

    #[test]
    fn assign_k_skips_too_costly_and_continues_with_cheaper() {
        let gains = vec![vec![0.1, 0.09], vec![10.0, 9.0]];
        let weights = vec![0.5, 1.0];
        // Budget 0.5: the costly upgrades rank first by ratio but do not
        // fit; the greedy continues and grants one cheap upgrade.
        let assignment = assign_k(&gains, &weights, 0.5);
        assert_eq!(assignment.choices, vec![Some(0), None]);
        assert!((assignment.slots_consumed - 0.5).abs() < 1e-12);
    }

    #[test]
    fn assign_k_gives_each_doc_at_most_one_upgrade() {
        let gains = vec![vec![1.0; 6], vec![2.0; 6]];
        let weights = vec![0.5, 1.0];
        let assignment = assign_k(&gains, &weights, 100.0);
        assert!(assignment.choices.iter().all(Option::is_some));
        assert!(assignment.slots_consumed <= 100.0);
    }

    #[test]
    fn assign_k_empty_inputs() {
        let assignment = assign_k(&[], &[], 5.0);
        assert!(assignment.choices.is_empty());
        assert_eq!(assignment.slots_consumed, 0.0);
        let assignment = assign_k(&[Vec::new()], &[1.0], 5.0);
        assert!(assignment.choices.is_empty());
    }

    use proptest::prelude::*;

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(96))]

        // Order-sensitive equivalence: the bounded heap must return the
        // exact *prefix* of the full descending sort — same indices in the
        // same order — across NaN, ±∞, and heavy ties.
        #[test]
        fn bounded_heap_is_a_prefix_of_the_full_sort(
            raw in prop::collection::vec((0u8..10, 0.0f64..1.0), 0..150),
            k in 0usize..180,
        ) {
            let scores: Vec<f64> = raw
                .into_iter()
                .map(|(tag, v)| match tag {
                    0 => f64::NAN,
                    1 => f64::INFINITY,
                    2 => f64::NEG_INFINITY,
                    3 => 0.5, // force ties so the index tiebreak is exercised
                    _ => v,
                })
                .collect();
            let expected: Vec<usize> =
                full_sort_order(&scores).into_iter().take(k.min(scores.len())).collect();
            prop_assert_eq!(top_k_indices(&scores, k), expected);
        }

        // The pinned degenerate case: one upgrade at weight exactly 1.0
        // makes the k-way greedy bitwise-identical to the binary selectors,
        // across NaN, ±∞, sentinels, and heavy ties.
        #[test]
        fn degenerate_assign_k_equals_binary_selection(
            raw in prop::collection::vec((0u8..12, -1.0f64..1.0), 0..200),
            alpha in 0.0f64..1.0,
            batch in 1usize..64,
        ) {
            let scores: Vec<f64> = raw
                .into_iter()
                .map(|(tag, v)| match tag {
                    0 => f64::NAN,
                    1 => f64::INFINITY,
                    2 => f64::NEG_INFINITY,
                    3 => 0.5,
                    4 => URGENT,
                    5 => NON_CANDIDATE,
                    _ => v,
                })
                .collect();
            // `⌊α·n⌋` slots over the whole slice, then per chunk.
            let at_alpha = |chunk: &[f64]| -> Vec<bool> {
                let assignment = assign_k(&[chunk.to_vec()], &[1.0], (chunk.len() as f64 * alpha).floor());
                assignment.choices.iter().map(Option::is_some).collect()
            };
            prop_assert_eq!(at_alpha(&scores), select_global(&scores, alpha));
            let batched: Vec<bool> = scores.chunks(batch).flat_map(at_alpha).collect();
            prop_assert_eq!(batched, select_batch(&scores, alpha, batch));
        }
    }
}
