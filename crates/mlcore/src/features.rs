//! Hashed n-gram featurization (fastText-flavoured).
//!
//! The AdaParse (FT) variant uses fastText word embeddings; the LLM variant
//! feeds first-page text into a transformer. Both are approximated here by
//! hashed bag-of-n-gram features: word unigrams/bigrams plus character
//! trigrams, hashed into a fixed-dimensional L2-normalized vector. Hashed
//! n-grams preserve exactly the signal the selector needs — the presence of
//! malformed substrings, LaTeX residue, scrambled words — without any
//! pretrained weights.

use serde::{Deserialize, Serialize};

use crate::matrix::l2_normalize;

/// Featurizer turning text into a fixed-dimensional hashed n-gram vector.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct HashedNgramFeaturizer {
    dim: usize,
    use_word_bigrams: bool,
    use_char_trigrams: bool,
}

impl HashedNgramFeaturizer {
    /// Featurizer with word unigrams/bigrams and character trigrams.
    ///
    /// # Panics
    ///
    /// Panics if `dim` is zero.
    pub fn new(dim: usize) -> Self {
        assert!(dim > 0, "feature dimension must be positive");
        HashedNgramFeaturizer { dim, use_word_bigrams: true, use_char_trigrams: true }
    }

    /// Word-only featurizer (used by the fastText-style variant).
    pub fn words_only(dim: usize) -> Self {
        assert!(dim > 0, "feature dimension must be positive");
        HashedNgramFeaturizer { dim, use_word_bigrams: true, use_char_trigrams: false }
    }

    /// Output dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Featurize a text into an L2-normalized vector of length [`Self::dim`].
    pub fn features(&self, text: &str) -> Vec<f64> {
        let mut v = vec![0.0f64; self.dim];
        self.fill(text, &mut v);
        v
    }

    /// [`Self::features`] into a caller-provided slice of length
    /// [`Self::dim`] (overwritten). Every n-gram is hashed straight from a
    /// byte range of the lowercased text, continuing from the FNV state of
    /// its tag, so nothing is allocated per word, bigram or trigram.
    ///
    /// # Panics
    ///
    /// Panics if `out.len() != self.dim()`.
    pub fn fill(&self, text: &str, out: &mut [f64]) {
        assert_eq!(out.len(), self.dim, "feature slice length mismatch");
        out.fill(0.0);
        let lower = text.to_lowercase();
        let mut bump = |h: u64| out[(h % self.dim as u64) as usize] += 1.0;
        // FNV state after "b:", the previous word and "_".
        let mut bigram_prefix = None;
        for word in lower.split_whitespace() {
            bump(fnv(WORD_TAG, word.as_bytes()));
            if self.use_word_bigrams {
                if let Some(prefix) = bigram_prefix {
                    bump(fnv(prefix, word.as_bytes()));
                }
                bigram_prefix = Some(fnv(fnv(BIGRAM_TAG, word.as_bytes()), b"_"));
            }
        }
        if self.use_char_trigrams {
            // A trigram's bytes run from the start of the character two
            // back to the end of the current one.
            let (mut first, mut second) = (None, None);
            for (start, ch) in lower.char_indices() {
                if let Some(first) = first {
                    bump(fnv(TRIGRAM_TAG, &lower.as_bytes()[first..start + ch.len_utf8()]));
                }
                (first, second) = (second, Some(start));
            }
        }
        l2_normalize(out);
    }
}

pub(crate) const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

/// FNV-1a continued from state `h` over `bytes`.
pub(crate) const fn fnv(mut h: u64, bytes: &[u8]) -> u64 {
    let mut i = 0;
    while i < bytes.len() {
        h ^= bytes[i] as u64;
        h = h.wrapping_mul(FNV_PRIME);
        i += 1;
    }
    h
}

const WORD_TAG: u64 = fnv(FNV_OFFSET, b"w:");
const BIGRAM_TAG: u64 = fnv(FNV_OFFSET, b"b:");
const TRIGRAM_TAG: u64 = fnv(FNV_OFFSET, b"c:");

/// Aggregate text statistics used as dense side-features by CLS I and the
/// metadata baselines: length, alphanumeric ratio, word-likeness, mean word
/// length, digit ratio, uppercase ratio, backslash density, whitespace runs.
pub fn aggregate_statistics(text: &str) -> Vec<f64> {
    let (mut chars, mut words, mut nonspace) = (0usize, 0usize, 0usize);
    let (mut alnum, mut digits, mut upper, mut backslashes) = (0usize, 0usize, 0usize, 0usize);
    // `matches("  ")` does not overlap: a run of n spaces holds n / 2 pairs.
    let (mut double_spaces, mut space_run) = (0usize, 0usize);
    let mut in_word = false;
    for c in text.chars() {
        chars += 1;
        if c == ' ' {
            space_run += 1;
        } else {
            double_spaces += space_run / 2;
            space_run = 0;
        }
        if c.is_whitespace() {
            in_word = false;
            continue;
        }
        nonspace += 1;
        words += !in_word as usize;
        in_word = true;
        alnum += c.is_alphanumeric() as usize;
        digits += c.is_ascii_digit() as usize;
        upper += c.is_uppercase() as usize;
        backslashes += matches!(c, '\\' | '$' | '{') as usize;
    }
    double_spaces += space_run / 2;
    let [char_count, word_count, alnum, digits, upper, backslashes, double_spaces] =
        [chars, words, alnum, digits, upper, backslashes, double_spaces].map(|n| n as f64);
    let mean_word_len = if word_count > 0.0 { alnum / word_count } else { 0.0 };
    let nonspace = nonspace.max(1) as f64;
    vec![
        (char_count / 5_000.0).min(2.0),
        (word_count / 1_000.0).min(2.0),
        alnum / nonspace,
        digits / nonspace,
        upper / nonspace,
        backslashes / nonspace,
        (double_spaces / (word_count + 1.0)).min(1.0),
        (mean_word_len / 10.0).min(2.0),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn features_are_normalized_and_deterministic() {
        let f = HashedNgramFeaturizer::new(128);
        let a = f.features("the enzyme catalyzes the reaction");
        let b = f.features("the enzyme catalyzes the reaction");
        assert_eq!(a, b);
        let norm: f64 = a.iter().map(|v| v * v).sum();
        assert!((norm - 1.0).abs() < 1e-9);
        assert_eq!(a.len(), 128);
    }

    #[test]
    fn different_texts_give_different_features() {
        let f = HashedNgramFeaturizer::new(256);
        let a = f.features("quantum entanglement in superconducting qubits");
        let b = f.features("randomized clinical trial of a new antibody");
        let cos: f64 = a.iter().zip(b.iter()).map(|(x, y)| x * y).sum();
        assert!(cos < 0.9, "distinct topics should not be near-identical (cos = {cos})");
    }

    #[test]
    fn empty_text_is_the_zero_vector() {
        let f = HashedNgramFeaturizer::new(32);
        let v = f.features("");
        assert!(v.iter().all(|&x| x == 0.0));
    }

    #[test]
    #[should_panic(expected = "dimension must be positive")]
    fn zero_dim_panics() {
        HashedNgramFeaturizer::new(0);
    }

    #[test]
    fn words_only_ignores_character_structure_less() {
        // Character trigrams make the full featurizer more sensitive to
        // in-word scrambling than the words-only variant.
        let full = HashedNgramFeaturizer::new(512);
        let words = HashedNgramFeaturizer::words_only(512);
        let clean = "gravitational interactions between macromolecules in solution";
        let scrambled = "grvaitational interacitons bewteen macromolecuels in soluiton";
        let cos = |a: &[f64], b: &[f64]| a.iter().zip(b).map(|(x, y)| x * y).sum::<f64>();
        let full_sim = cos(&full.features(clean), &full.features(scrambled));
        let word_sim = cos(&words.features(clean), &words.features(scrambled));
        assert!(full_sim > word_sim, "char trigrams retain partial overlap: {full_sim} vs {word_sim}");
    }

    #[test]
    fn aggregate_statistics_have_expected_shape_and_signal() {
        let clean = aggregate_statistics("This is ordinary prose with reasonable words.");
        let latexy = aggregate_statistics("\\frac{a}{b} $$ \\sum_{i} x_i $$ {braces}");
        assert_eq!(clean.len(), 8);
        assert_eq!(latexy.len(), 8);
        assert!(latexy[5] > clean[5], "backslash density must be higher for latex residue");
        let empty = aggregate_statistics("");
        assert_eq!(empty.len(), 8);
        assert!(empty.iter().all(|v| v.is_finite()));
    }
}
