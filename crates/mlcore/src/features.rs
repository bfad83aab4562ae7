//! Hashed n-gram featurization (fastText-flavoured).
//!
//! The AdaParse (FT) variant uses fastText word embeddings; the LLM variant
//! feeds first-page text into a transformer. Both are approximated here by
//! hashed bag-of-n-gram features: word unigrams/bigrams plus character
//! trigrams of the lowercased text, hashed into a fixed-dimensional
//! L2-normalized vector. Hashed n-grams preserve exactly the signal the
//! selector needs — the presence of malformed substrings, LaTeX residue,
//! scrambled words — without any pretrained weights.
//!
//! [`HashedNgramFeaturizer::fill_row`] builds the encoder's whole feature
//! row: the hashed counts followed by the eight [`aggregate_statistics`].
//! An ASCII text takes one pass over its bytes, lower-casing each as it is
//! read and advancing the word, bigram and trigram hashes as bytes arrive;
//! any other text takes [`str::to_lowercase`] (which knows Greek final
//! sigma) and a walk over its chars. Both paths count the same n-grams, so
//! the row is bit-identical either way. An n-gram's bucket is its hash
//! masked to the width when the width is a power of two and reduced modulo
//! the width otherwise — the same bucket, without a divide.

use crate::matrix::l2_normalize;

/// Featurizer turning text into a fixed-dimensional hashed n-gram vector.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct HashedNgramFeaturizer {
    dim: usize,
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
        HashedNgramFeaturizer { dim, use_char_trigrams: true }
    }

    /// Word unigrams and bigrams only (used by the fastText-style variant).
    pub fn words_only(dim: usize) -> Self {
        assert!(dim > 0, "feature dimension must be positive");
        HashedNgramFeaturizer { dim, use_char_trigrams: false }
    }

    /// Output dimensionality.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// The encoder's feature row: the text's hashed n-gram counts,
    /// L2-normalized, in the first [`Self::dim`] entries of `row` and
    /// [`aggregate_statistics`] in the last eight, from one pass over the
    /// bytes of an ASCII text (nothing is allocated for one).
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != self.dim() + 8`.
    pub fn fill_row(&self, text: &str, row: &mut [f64]) {
        assert_eq!(row.len(), self.dim + 8, "feature row length mismatch");
        let (ngrams, statistics) = row.split_at_mut(self.dim);
        let tallied = self.count(text, ngrams);
        statistics.copy_from_slice(&tallied.unwrap_or_else(|| aggregate_statistics(text)));
        l2_normalize(ngrams);
    }

    /// Overwrite `ngrams` with the n-gram counts of `text`; the statistics
    /// when the byte pass tallied them on the way.
    fn count(&self, text: &str, ngrams: &mut [f64]) -> Option<[f64; 8]> {
        ngrams.fill(0.0);
        let dim = self.dim as u64;
        if dim.is_power_of_two() {
            self.count_with(text, ngrams, |h| (h & (dim - 1)) as usize)
        } else {
            self.count_with(text, ngrams, |h| (h % dim) as usize)
        }
    }

    /// [`Self::count`] with the bucket rule fixed.
    #[inline(always)]
    fn count_with(&self, text: &str, ngrams: &mut [f64], bucket: impl Fn(u64) -> usize) -> Option<[f64; 8]> {
        let mut bump = |h: u64| ngrams[bucket(h)] += 1.0;
        if !text.is_ascii() {
            self.count_chars(&text.to_lowercase(), &mut bump);
            return None;
        }
        let mut tally = Tally::default();
        // FNV states of the word being read: its unigram, its bigram with
        // the previous word (`None` for the first word) and the prefix
        // "b:" + word that the next word's bigram continues from.
        let (mut word, mut bigram, mut prefix) = (WORD_TAG, None, BIGRAM_TAG);
        // `prefix` + "_" of the last finished word.
        let mut previous = None;
        // The two bytes before the current one, lowercased.
        let mut window = [0u8; 2];
        for (i, &raw) in text.as_bytes().iter().enumerate() {
            let b = raw.to_ascii_lowercase();
            let in_word = tally.in_word;
            tally.push(raw as char);
            // `tally.in_word` now says whether `raw` is part of a word.
            if tally.in_word {
                if !in_word {
                    (word, bigram, prefix) = (WORD_TAG, previous, BIGRAM_TAG);
                }
                word = fnv(word, &[b]);
                bigram = bigram.map(|h| fnv(h, &[b]));
                prefix = fnv(prefix, &[b]);
            } else if in_word {
                [Some(word), bigram].into_iter().flatten().for_each(&mut bump);
                previous = Some(fnv(prefix, b"_"));
            }
            if self.use_char_trigrams && i >= 2 {
                bump(fnv(TRIGRAM_TAG, &[window[0], window[1], b]));
            }
            window = [window[1], b];
        }
        if tally.in_word {
            [Some(word), bigram].into_iter().flatten().for_each(&mut bump);
        }
        Some(tally.statistics())
    }

    /// The char walk over a lowercased text: the definition the byte pass
    /// reproduces. Every n-gram is hashed straight from a byte range of
    /// `lower`, continuing from the FNV state of its tag.
    fn count_chars(&self, lower: &str, bump: &mut impl FnMut(u64)) {
        // FNV state after "b:", the previous word and "_".
        let mut bigram_prefix = None;
        for word in lower.split_whitespace() {
            bump(fnv(WORD_TAG, word.as_bytes()));
            if let Some(prefix) = bigram_prefix {
                bump(fnv(prefix, word.as_bytes()));
            }
            bigram_prefix = Some(fnv(fnv(BIGRAM_TAG, word.as_bytes()), b"_"));
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

/// Aggregate text statistics, the encoder's eight dense side-features:
/// length, alphanumeric ratio, word-likeness, mean word length, digit
/// ratio, uppercase ratio, backslash density, whitespace runs.
pub fn aggregate_statistics(text: &str) -> [f64; 8] {
    let mut tally = Tally::default();
    text.chars().for_each(|c| tally.push(c));
    tally.statistics()
}

/// The counts behind [`aggregate_statistics`], one char at a time.
#[derive(Debug, Default)]
struct Tally {
    chars: usize,
    words: usize,
    nonspace: usize,
    alnum: usize,
    digits: usize,
    upper: usize,
    backslashes: usize,
    // `matches("  ")` does not overlap: a run of n spaces holds n / 2 pairs.
    double_spaces: usize,
    space_run: usize,
    in_word: bool,
}

impl Tally {
    #[inline(always)]
    fn push(&mut self, c: char) {
        self.chars += 1;
        if c == ' ' {
            self.space_run += 1;
        } else {
            self.double_spaces += self.space_run / 2;
            self.space_run = 0;
        }
        if c.is_whitespace() {
            self.in_word = false;
            return;
        }
        self.nonspace += 1;
        self.words += !self.in_word as usize;
        self.in_word = true;
        self.alnum += c.is_alphanumeric() as usize;
        self.digits += c.is_ascii_digit() as usize;
        self.upper += c.is_uppercase() as usize;
        self.backslashes += matches!(c, '\\' | '$' | '{') as usize;
    }

    fn statistics(&self) -> [f64; 8] {
        let double_spaces = self.double_spaces + self.space_run / 2;
        let [char_count, word_count, alnum, digits, upper, backslashes, double_spaces] =
            [self.chars, self.words, self.alnum, self.digits, self.upper, self.backslashes, double_spaces]
                .map(|n| n as f64);
        let mean_word_len = if word_count > 0.0 { alnum / word_count } else { 0.0 };
        let nonspace = self.nonspace.max(1) as f64;
        [
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
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The L2-normalized n-gram part of `text`'s feature row.
    fn features(f: &HashedNgramFeaturizer, text: &str) -> Vec<f64> {
        let mut row = vec![0.0; f.dim() + 8];
        f.fill_row(text, &mut row);
        row.truncate(f.dim());
        row
    }

    #[test]
    fn features_are_normalized_and_deterministic() {
        let f = HashedNgramFeaturizer::new(128);
        let a = features(&f, "the enzyme catalyzes the reaction");
        let b = features(&f, "the enzyme catalyzes the reaction");
        assert_eq!(a, b);
        let norm: f64 = a.iter().map(|v| v * v).sum();
        assert!((norm - 1.0).abs() < 1e-9);
        assert_eq!(a.len(), 128);
    }

    #[test]
    fn different_texts_give_different_features() {
        let f = HashedNgramFeaturizer::new(256);
        let a = features(&f, "quantum entanglement in superconducting qubits");
        let b = features(&f, "randomized clinical trial of a new antibody");
        let cos: f64 = a.iter().zip(b.iter()).map(|(x, y)| x * y).sum();
        assert!(cos < 0.9, "distinct topics should not be near-identical (cos = {cos})");
    }

    #[test]
    fn empty_text_is_the_zero_vector() {
        let f = HashedNgramFeaturizer::new(32);
        let v = features(&f, "");
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
        let full_sim = cos(&features(&full, clean), &features(&full, scrambled));
        let word_sim = cos(&features(&words, clean), &features(&words, scrambled));
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
