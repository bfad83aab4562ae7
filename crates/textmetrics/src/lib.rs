//! Text-quality metrics for evaluating PDF parser output.
//!
//! This crate implements every metric the AdaParse paper relies on to compare
//! parser output against ground-truth text:
//!
//! * word-level metrics: [`bleu`] (Bilingual Evaluation Understudy) and
//!   [`rouge`] (Recall-Oriented Understudy for Gisting Evaluation),
//! * character-level metrics: [`levenshtein`] edit distance and the derived
//!   character accuracy rate (CAR),
//! * preference-derived metrics: [`winrate`] (normalized win rate from
//!   pairwise human preferences) and [`accepted`] tokens (fraction of tokens
//!   coming from documents whose score clears an acceptance threshold),
//! * summary [`stats`] used throughout the evaluation (Pearson correlation,
//!   coefficient of determination, simple significance tests).
//!
//! # Example
//!
//! ```
//! use textmetrics::{bleu::sentence_bleu, rouge::rouge_l, levenshtein::char_accuracy_rate};
//!
//! let reference = "the gravitational force between two masses is proportional to their product";
//! let candidate = "the gravitational force between two masses is proportional to their product";
//! assert!(sentence_bleu(candidate, reference) > 0.99);
//! assert!(rouge_l(candidate, reference).f1 > 0.99);
//! assert!(char_accuracy_rate(candidate, reference) > 0.99);
//! ```

pub mod accepted;
pub mod bleu;
pub mod levenshtein;
pub mod ngram;
pub mod rouge;
pub mod stats;
pub mod tokenize;
pub mod winrate;

pub use accepted::AcceptedTokens;
pub use bleu::{sentence_bleu, BleuConfig, BleuScore};
pub use levenshtein::{char_accuracy_rate, edit_distance, normalized_similarity};
pub use rouge::{rouge_l, rouge_n, RougeScore};
pub use stats::{mean, pearson, r_squared};
pub use tokenize::{normalize_whitespace, tokenize_chars, tokenize_words};
pub use winrate::{PreferenceOutcome, WinRateTable};

/// A bundle of the document-level quality metrics reported in the paper's
/// Tables 1–3 for a single (candidate, reference) pair.
///
/// All values are fractions in `[0, 1]`; the bench harness multiplies by 100
/// to report percentages like the paper.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct QualityReport {
    /// Smoothed BLEU-4 of the candidate against the reference.
    pub bleu: f64,
    /// ROUGE-L F1 of the candidate against the reference.
    pub rouge: f64,
    /// Character accuracy rate (1 − normalized edit distance).
    pub car: f64,
    /// Fraction of reference pages covered by the candidate (provided by the
    /// caller; metrics in this crate operate on flat text).
    pub coverage: f64,
}

impl QualityReport {
    /// Compute BLEU, ROUGE-L and CAR for a candidate/reference pair.
    ///
    /// `coverage` is supplied by the caller because page attribution is a
    /// property of the document model, not of flat text. The three scores
    /// are bit-equal to [`sentence_bleu`], [`rouge_l`]`.f1` and
    /// [`char_accuracy_rate`] on the same pair; each text is tokenized,
    /// interned and whitespace-normalized once for all of them. `coverage`
    /// is clamped to `[0, 1]`, and a NaN coverage reads as 0: one such
    /// document would otherwise make every mean over coverages NaN.
    pub fn compute(candidate: &str, reference: &str, coverage: f64) -> Self {
        ReferenceText::new(reference).score(candidate, coverage)
    }
}

/// A reference text prepared for scoring: whitespace-normalized characters
/// for CAR, interned word tokens for ROUGE-L and their counted n-grams for
/// BLEU.
///
/// [`QualityReport::compute`] prepares one per call; a caller scoring several
/// candidates against one ground truth (the six parsers of an evaluation)
/// prepares it once.
#[derive(Debug, Clone)]
pub struct ReferenceText {
    chars: Vec<char>,
    vocab: tokenize::Vocab,
    ids: Vec<u32>,
    ngrams: ngram::NgramIndex,
}

impl ReferenceText {
    /// Normalize, tokenize and intern `reference` in one walk, and count its
    /// n-grams.
    pub fn new(reference: &str) -> Self {
        let mut vocab = tokenize::Vocab::default();
        let (chars, ids) = tokenize::chars_and_ids(reference, |token| vocab.intern_token(token));
        let ngrams = ngram::NgramIndex::new(&ids, BleuConfig::default().max_order);
        ReferenceText { chars, vocab, ids, ngrams }
    }

    /// Score `candidate` against this reference; see [`QualityReport::compute`].
    pub fn score(&self, candidate: &str, coverage: f64) -> QualityReport {
        self.score_counting(candidate, coverage).0
    }

    /// [`Self::score`] and the candidate's word-token count, equal to
    /// [`tokenize::count_words`]: scoring tokenizes the candidate anyway, in
    /// the same one walk that normalizes its characters.
    pub fn score_counting(&self, candidate: &str, coverage: f64) -> (QualityReport, usize) {
        let (chars, ids) = tokenize::chars_and_ids(candidate, |token| self.vocab.lookup_token(token));
        let report = QualityReport {
            bleu: bleu::bleu_against(&self.ngrams, &ids, BleuConfig::default().smoothing).score,
            rouge: rouge::rouge_l_of_ids(&ids, &self.ids, self.vocab.len()).f1,
            car: levenshtein::car_of_chars(&chars, &self.chars),
            coverage: if coverage.is_nan() { 0.0 } else { coverage.clamp(0.0, 1.0) },
        };
        (report, ids.len())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quality_report_identical_text_is_near_one() {
        let text = "parsing scientific documents is a systems problem with many moving parts";
        let r = QualityReport::compute(text, text, 1.0);
        assert!(r.bleu > 0.99, "bleu = {}", r.bleu);
        assert!(r.rouge > 0.99, "rouge = {}", r.rouge);
        assert!(r.car > 0.99, "car = {}", r.car);
        assert_eq!(r.coverage, 1.0);
    }

    #[test]
    fn quality_report_disjoint_text_is_near_zero() {
        let a = "alpha beta gamma delta epsilon zeta";
        let b = "one two three four five six seven";
        let r = QualityReport::compute(a, b, 0.5);
        assert!(r.bleu < 0.05);
        assert!(r.rouge < 0.05);
        assert!(r.car < 0.6);
    }

    #[test]
    fn coverage_is_clamped() {
        let r = QualityReport::compute("a", "a", 1.7);
        assert_eq!(r.coverage, 1.0);
        let r = QualityReport::compute("a", "a", -0.3);
        assert_eq!(r.coverage, 0.0);
    }

    #[test]
    fn nan_coverage_reads_as_zero() {
        assert_eq!(QualityReport::compute("a", "a", f64::NAN).coverage.to_bits(), 0.0f64.to_bits());
    }
}
