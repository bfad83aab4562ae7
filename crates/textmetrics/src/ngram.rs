//! The n-gram matcher shared by BLEU and ROUGE-N.
//!
//! N-grams are never hashed or compared as token windows. Every distinct
//! n-gram of the reference gets a dense id instead, chained from the id of
//! its own prefix: an order-1 id is the token id (see `tokenize::Vocab`),
//! and the order-`k` id of the window at `i` is looked up under the pair
//! (order-`k − 1` id of the window at `i`, token `i + k − 1`), numbered in
//! order of first occurrence. A candidate window follows the same chain and
//! drops out as soon as its prefix or its last token is unknown to the
//! reference. Counts are then plain vectors indexed by id.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::tokenize::UNKNOWN_TOKEN;

/// Id of an n-gram the reference does not contain.
const UNKNOWN: u32 = UNKNOWN_TOKEN;

/// Multiply-rotate hash of the one `u64` a [`PairTable`] key writes. The
/// keys are pairs of dense ids this module assigned, not input bytes, and
/// the multiplication's well-mixed high bits are rotated down to where the
/// table takes its bucket index from.
#[derive(Default)]
struct PairHasher(u64);

impl Hasher for PairHasher {
    fn write(&mut self, _: &[u8]) {
        unreachable!("a pair table hashes u64 keys only");
    }

    fn write_u64(&mut self, key: u64) {
        self.0 = key.wrapping_mul(0x9E37_79B9_7F4A_7C15).rotate_left(26);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// (id of a window's prefix, the window's last token) → id of the window.
type PairTable = HashMap<u64, u32, BuildHasherDefault<PairHasher>>;

fn pair_key(prefix: u32, token: u32) -> u64 {
    u64::from(prefix) << 32 | u64::from(token)
}

/// Number of `order`-long windows in a sequence of `len` tokens.
pub(crate) fn ngram_total(len: usize, order: usize) -> usize {
    (len + 1).saturating_sub(order)
}

/// The n-grams of one order in the reference.
#[derive(Debug, Clone, Default)]
struct Order {
    /// Empty for order 1, whose ids are the token ids.
    ids: PairTable,
    /// Occurrences of each id.
    counts: Vec<u32>,
}

/// The n-grams of orders `1..=max_order` of a reference token sequence,
/// ready to be matched against any number of candidates.
///
/// Token ids must be dense (`0..n`, as `tokenize::Vocab` assigns them) on
/// the reference side; a candidate token the reference lacks, in practice
/// `tokenize::UNKNOWN_TOKEN`, matches nothing.
#[derive(Debug, Clone)]
pub(crate) struct NgramIndex {
    len: usize,
    orders: Vec<Order>,
}

impl NgramIndex {
    /// Number and count the n-grams of `reference` up to `max_order`.
    ///
    /// # Panics
    ///
    /// Panics if `max_order == 0`.
    pub(crate) fn new(reference: &[u32], max_order: usize) -> Self {
        assert!(max_order > 0, "n-gram order must be positive");
        let mut orders = Vec::with_capacity(max_order);
        let mut unigrams = Order::default();
        unigrams.counts.resize(reference.iter().max().map_or(0, |&id| id as usize + 1), 0);
        reference.iter().for_each(|&id| unigrams.counts[id as usize] += 1);
        orders.push(unigrams);
        // Ids of the current order's windows, by start position.
        let mut window_ids = reference.to_vec();
        for order in 2..=max_order {
            window_ids.truncate(ngram_total(reference.len(), order));
            let mut next = Order::default();
            next.ids.reserve(window_ids.len());
            for (id, &token) in window_ids.iter_mut().zip(reference.iter().skip(order - 1)) {
                let fresh = next.counts.len() as u32;
                *id = *next.ids.entry(pair_key(*id, token)).or_insert(fresh);
                match next.counts.get_mut(*id as usize) {
                    Some(count) => *count += 1,
                    None => next.counts.push(1),
                }
            }
            orders.push(next);
        }
        NgramIndex { len: reference.len(), orders }
    }

    /// Number of reference n-grams of `order`, with multiplicity.
    pub(crate) fn total(&self, order: usize) -> usize {
        ngram_total(self.len, order)
    }

    /// Clipped overlap with `candidate`'s n-grams, `Σ_g min(candidate[g],
    /// reference[g])`, for each order from 1 (index 0) up: the numerator of
    /// BLEU's modified n-gram precision and of ROUGE-N. Symmetric in the two
    /// sequences.
    pub(crate) fn clipped_matches(&self, candidate: &[u32]) -> Vec<usize> {
        let mut window_ids = candidate.to_vec();
        let mut seen = Vec::new();
        let mut matches = Vec::with_capacity(self.orders.len());
        for (order, reference) in (1..).zip(&self.orders) {
            if order > 1 {
                window_ids.truncate(ngram_total(candidate.len(), order));
                for (id, &token) in window_ids.iter_mut().zip(candidate.iter().skip(order - 1)) {
                    // The first test spares most unknown windows the lookup.
                    if *id != UNKNOWN {
                        *id = reference.ids.get(&pair_key(*id, token)).copied().unwrap_or(UNKNOWN);
                    }
                }
            }
            seen.clear();
            seen.resize(reference.counts.len(), 0u32);
            let mut matched = 0;
            for &id in &window_ids {
                // No slot: unknown to the reference.
                if let Some(seen) = seen.get_mut(id as usize) {
                    *seen += 1;
                    matched += usize::from(*seen <= reference.counts[id as usize]);
                }
            }
            matches.push(matched);
        }
        matches
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // a = 0, b = 1, c = 2, the = 3, cat = 4, sat = 5.

    #[test]
    fn unigram_counts() {
        let c = NgramIndex::new(&[0, 1, 0, 2], 1);
        assert_eq!(c.total(1), 4);
        assert_eq!(c.orders[0].counts, [2, 1, 1]);
        assert_eq!(c.clipped_matches(&[0; 5]), [2]); // clipped to the two "a"
        assert_eq!(c.clipped_matches(&[9, UNKNOWN]), [0]);
    }

    #[test]
    fn bigram_counts() {
        let c = NgramIndex::new(&[0, 1, 0, 1], 2);
        assert_eq!(c.total(2), 3);
        assert_eq!(c.orders[1].counts, [2, 1]); // "a b" twice, then "b a"
        assert_eq!(c.clipped_matches(&[0, 1, 2, 0, 1, 2, 0, 1]), [4, 2]);
        assert_eq!(c.clipped_matches(&[1, 0, 2, 1, 0]), [4, 1]);
    }

    #[test]
    fn order_longer_than_sequence_is_empty() {
        let c = NgramIndex::new(&[0, 1], 3);
        assert_eq!(c.total(3), 0);
        assert!(c.orders[2].counts.is_empty());
        assert_eq!(c.clipped_matches(&[0, 1, 0, 1]), [2, 1, 0]);
        assert_eq!(c.clipped_matches(&[0]), [1, 0, 0]);
    }

    #[test]
    fn clipped_overlap_is_symmetric_and_clipped() {
        let (a, b) = ([3, 3, 3, 4], [3, 4, 5]);
        // min(3,1) for "the" + min(1,1) for "cat"
        assert_eq!(NgramIndex::new(&a, 1).clipped_matches(&b), [2]);
        assert_eq!(NgramIndex::new(&b, 1).clipped_matches(&a), [2]);
    }

    #[test]
    #[should_panic(expected = "order must be positive")]
    fn zero_order_panics() {
        let _ = NgramIndex::new(&[0], 0);
    }
}
