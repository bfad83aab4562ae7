//! Mask-level equivalence of the public selection API against a full-sort
//! reference implementation.
//!
//! `select_global` and `select_batch` now rank with a bounded O(n log k)
//! max-heap instead of sorting every score. The routing mask is part of the
//! campaign's determinism contract (it feeds the fingerprint in
//! `BENCH_hotpath.json`), so these properties pin the masks bitwise against
//! the obvious full-sort selection: NaN never beats a finite score, ties
//! break by ascending index, and the per-batch quota is `⌊α·|batch|⌋`.

use adaparse::budget::{select_batch, select_global};
use proptest::prelude::*;

/// Reference selection: full descending sort (NaN last, index tiebreak),
/// mark the first `quota` entries.
fn sort_mask(scores: &[f64], quota: usize) -> Vec<bool> {
    fn key(v: f64) -> f64 {
        if v.is_nan() {
            f64::NEG_INFINITY
        } else {
            v
        }
    }
    let mut order: Vec<usize> = (0..scores.len()).collect();
    order.sort_by(|&a, &b| key(scores[b]).total_cmp(&key(scores[a])).then_with(|| a.cmp(&b)));
    let mut mask = vec![false; scores.len()];
    for &index in order.iter().take(quota.min(scores.len())) {
        mask[index] = true;
    }
    mask
}

/// Expand the generated `(tag, value)` pairs into scores that cover NaN,
/// infinities, and deliberate ties alongside ordinary finite values.
fn decode(raw: Vec<(u8, f64)>) -> Vec<f64> {
    raw.into_iter()
        .map(|(tag, v)| match tag {
            0 => f64::NAN,
            1 => f64::INFINITY,
            2 => f64::NEG_INFINITY,
            3 => 0.25,
            _ => v,
        })
        .collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    #[test]
    fn global_selection_matches_full_sort(
        raw in prop::collection::vec((0u8..9, 0.0f64..1.0), 0..200),
        alpha in 0.0f64..1.0,
    ) {
        let scores = decode(raw);
        let quota = ((scores.len() as f64) * alpha).floor() as usize;
        prop_assert_eq!(select_global(&scores, alpha), sort_mask(&scores, quota));
    }

    #[test]
    fn batch_selection_matches_full_sort_per_batch(
        raw in prop::collection::vec((0u8..9, 0.0f64..1.0), 0..200),
        alpha in 0.0f64..1.0,
        batch_size in 1usize..40,
    ) {
        let scores = decode(raw);
        let got = select_batch(&scores, alpha, batch_size);
        let mut expected = vec![false; scores.len()];
        for (batch_index, batch) in scores.chunks(batch_size).enumerate() {
            let quota = ((batch.len() as f64) * alpha).floor() as usize;
            for (local, &m) in sort_mask(batch, quota).iter().enumerate() {
                expected[batch_index * batch_size + local] = m;
            }
        }
        prop_assert_eq!(got, expected);
    }
}
