//! N-gram counting utilities shared by BLEU and ROUGE.

use std::collections::HashMap;

/// A multiset of n-grams of a fixed order over interned word tokens.
///
/// The keys are the `order`-long windows of the id slice the multiset was
/// counted from (see `tokenize::Vocab`), borrowed, not copied: two multisets
/// compare only when their ids come from the same vocabulary.
#[derive(Debug, Clone, Default)]
pub struct NgramCounts<'a> {
    order: usize,
    counts: HashMap<&'a [u32], usize>,
    total: usize,
}

impl<'a> NgramCounts<'a> {
    /// Count the n-grams of the given `order` in `tokens`.
    ///
    /// # Panics
    ///
    /// Panics if `order == 0`.
    pub fn from_tokens(tokens: &'a [u32], order: usize) -> Self {
        assert!(order > 0, "n-gram order must be positive");
        let total = (tokens.len() + 1).saturating_sub(order);
        let mut counts = HashMap::with_capacity(total);
        for window in tokens.windows(order) {
            *counts.entry(window).or_insert(0) += 1;
        }
        NgramCounts { order, counts, total }
    }

    /// The n-gram order of this multiset.
    pub fn order(&self) -> usize {
        self.order
    }

    /// Total number of n-grams counted (with multiplicity).
    pub fn total(&self) -> usize {
        self.total
    }

    /// Number of distinct n-grams.
    pub fn distinct(&self) -> usize {
        self.counts.len()
    }

    /// Count of a specific n-gram.
    pub fn count(&self, key: &[u32]) -> usize {
        self.counts.get(key).copied().unwrap_or(0)
    }

    /// Clipped overlap with another multiset: `sum_g min(self[g], other[g])`.
    ///
    /// This is the numerator of BLEU's modified n-gram precision and of
    /// ROUGE-N recall.
    pub fn clipped_overlap(&self, other: &NgramCounts) -> usize {
        // Iterate over the smaller map for efficiency.
        let (small, large) = if self.counts.len() <= other.counts.len() {
            (&self.counts, &other.counts)
        } else {
            (&other.counts, &self.counts)
        };
        small.iter().map(|(k, &c)| c.min(large.get(k).copied().unwrap_or(0))).sum()
    }

    /// Iterate over `(ngram, count)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (&'a [u32], usize)> + '_ {
        self.counts.iter().map(|(&k, &v)| (k, v))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // a = 0, b = 1, c = 2, the = 3, cat = 4, sat = 5.

    #[test]
    fn unigram_counts() {
        let c = NgramCounts::from_tokens(&[0, 1, 0, 2], 1);
        assert_eq!(c.total(), 4);
        assert_eq!(c.distinct(), 3);
        assert_eq!(c.count(&[0]), 2);
        assert_eq!(c.count(&[9]), 0);
    }

    #[test]
    fn bigram_counts() {
        let c = NgramCounts::from_tokens(&[0, 1, 0, 1], 2);
        assert_eq!(c.total(), 3);
        assert_eq!(c.count(&[0, 1]), 2);
        assert_eq!(c.count(&[1, 0]), 1);
    }

    #[test]
    fn order_longer_than_sequence_is_empty() {
        let c = NgramCounts::from_tokens(&[0, 1], 3);
        assert_eq!(c.total(), 0);
        assert_eq!(c.distinct(), 0);
    }

    #[test]
    fn clipped_overlap_is_symmetric_and_clipped() {
        let a = NgramCounts::from_tokens(&[3, 3, 3, 4], 1);
        let b = NgramCounts::from_tokens(&[3, 4, 5], 1);
        assert_eq!(a.clipped_overlap(&b), 2); // min(3,1) for "the" + min(1,1) for "cat"
        assert_eq!(b.clipped_overlap(&a), 2);
    }

    #[test]
    #[should_panic(expected = "order must be positive")]
    fn zero_order_panics() {
        let _ = NgramCounts::from_tokens(&[0], 0);
    }
}
