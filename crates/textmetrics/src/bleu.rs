//! BLEU (Bilingual Evaluation Understudy) with smoothing.
//!
//! The paper uses BLEU as its primary word-level accuracy proxy and as the
//! regression target for the parser-selection model. We implement the
//! standard BLEU-4 with modified n-gram precision, brevity penalty, and
//! add-ε smoothing so short or partially-overlapping texts do not collapse to
//! exactly zero (which would make the regression target degenerate).

use crate::ngram::{ngram_total, NgramIndex};
use crate::tokenize::intern_pair;

/// Configuration for BLEU computation.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BleuConfig {
    /// Maximum n-gram order (the classic metric uses 4).
    pub max_order: usize,
    /// Additive smoothing constant applied to n-gram precisions with zero
    /// matches (Lin & Och smoothing variant).
    pub smoothing: f64,
}

impl Default for BleuConfig {
    fn default() -> Self {
        BleuConfig { max_order: 4, smoothing: 1e-2 }
    }
}

/// The decomposition of a BLEU score.
#[derive(Debug, Clone, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct BleuScore {
    /// Final score in `[0, 1]`.
    pub score: f64,
    /// Modified n-gram precisions, index 0 = unigram.
    pub precisions: Vec<f64>,
    /// Brevity penalty in `(0, 1]`.
    pub brevity_penalty: f64,
    /// Candidate length in tokens.
    pub candidate_len: usize,
    /// Reference length in tokens.
    pub reference_len: usize,
}

/// Compute BLEU for a single candidate/reference pair with the given config.
pub fn sentence_bleu_with(candidate: &str, reference: &str, config: BleuConfig) -> BleuScore {
    let (cand, refr, _) = intern_pair(candidate, reference);
    bleu_of_ids(&cand, &refr, config)
}

/// Compute BLEU-4 with default smoothing for a candidate/reference pair.
///
/// ```
/// use textmetrics::bleu::sentence_bleu;
/// let r = "the cat sat on the mat";
/// assert!(sentence_bleu(r, r) > 0.99);
/// assert!(sentence_bleu("completely unrelated words here", r) < 0.05);
/// ```
pub fn sentence_bleu(candidate: &str, reference: &str) -> f64 {
    sentence_bleu_with(candidate, reference, BleuConfig::default()).score
}

/// BLEU of two token-id sequences from one vocabulary.
pub(crate) fn bleu_of_ids(cand: &[u32], refr: &[u32], config: BleuConfig) -> BleuScore {
    bleu_against(&NgramIndex::new(refr, config.max_order.max(1)), cand, config.smoothing)
}

/// BLEU of a candidate's token ids against a reference's n-grams, up to the
/// order they were counted to, from ids of the same vocabulary.
pub(crate) fn bleu_against(reference: &NgramIndex, cand: &[u32], smoothing: f64) -> BleuScore {
    let matches = reference.clipped_matches(cand);
    let totals: Vec<usize> = (1..=matches.len()).map(|order| ngram_total(cand.len(), order)).collect();
    finish_bleu(&matches, &totals, cand.len(), reference.total(1), smoothing)
}

/// BLEU from the clipped matches and candidate n-gram totals of each order.
fn finish_bleu(
    matches: &[usize],
    totals: &[usize],
    cand_len: usize,
    ref_len: usize,
    smoothing: f64,
) -> BleuScore {
    let max_order = matches.len();
    if cand_len == 0 || ref_len == 0 {
        let score = if cand_len == 0 && ref_len == 0 { 1.0 } else { 0.0 };
        return BleuScore {
            score,
            precisions: vec![score; max_order],
            brevity_penalty: 1.0,
            candidate_len: cand_len,
            reference_len: ref_len,
        };
    }
    let mut precisions = Vec::with_capacity(max_order);
    let mut log_sum = 0.0f64;
    let mut usable_orders = 0usize;
    for order in 0..max_order {
        if totals[order] == 0 {
            // Candidate shorter than the order; skip rather than zeroing out.
            precisions.push(0.0);
            continue;
        }
        let p = if matches[order] == 0 {
            smoothing / totals[order] as f64
        } else {
            matches[order] as f64 / totals[order] as f64
        };
        precisions.push(p);
        log_sum += p.max(f64::MIN_POSITIVE).ln();
        usable_orders += 1;
    }
    let geo_mean = if usable_orders == 0 { 0.0 } else { (log_sum / usable_orders as f64).exp() };
    let brevity_penalty =
        if cand_len >= ref_len { 1.0 } else { (1.0 - ref_len as f64 / cand_len as f64).exp() };
    BleuScore {
        score: (geo_mean * brevity_penalty).clamp(0.0, 1.0),
        precisions,
        brevity_penalty,
        candidate_len: cand_len,
        reference_len: ref_len,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn identical_text_scores_one() {
        let t = "adaptive parsing routes documents to the cheapest adequate parser";
        let s = sentence_bleu_with(t, t, BleuConfig::default());
        assert!(s.score > 0.999, "score = {}", s.score);
        assert_eq!(s.brevity_penalty, 1.0);
        for p in &s.precisions {
            assert!(*p > 0.999);
        }
    }

    #[test]
    fn disjoint_text_scores_near_zero() {
        let s = sentence_bleu("alpha beta gamma delta epsilon", "one two three four five");
        assert!(s < 0.05, "score = {s}");
    }

    #[test]
    fn score_is_bounded() {
        let cases = [
            ("", ""),
            ("", "a b c"),
            ("a b c", ""),
            ("a", "a"),
            ("a b", "a b c d e f g h"),
            ("a b c d e f g h", "a b"),
        ];
        for (c, r) in cases {
            let s = sentence_bleu(c, r);
            assert!((0.0..=1.0).contains(&s), "({c:?},{r:?}) -> {s}");
        }
    }

    #[test]
    fn empty_candidate_with_nonempty_reference_is_zero() {
        assert_eq!(sentence_bleu("", "some reference text"), 0.0);
        assert_eq!(sentence_bleu("", ""), 1.0);
    }

    #[test]
    fn brevity_penalty_punishes_truncation() {
        let reference = "one two three four five six seven eight nine ten eleven twelve";
        let truncated = "one two three four";
        let full = reference;
        assert!(sentence_bleu(truncated, reference) < sentence_bleu(full, reference));
    }

    #[test]
    fn word_scrambling_reduces_score() {
        // The paper's BLEU/ROUGE critique: scrambled text still gets non-zero
        // scores but must score lower than the faithful text.
        let reference = "the gravitational force between two masses is directly proportional \
                         to the product of their masses";
        let scrambled = "the gravitational force masses two between is proportional directly \
                         product the to of masses their";
        let faithful = reference;
        let s_scrambled = sentence_bleu(scrambled, reference);
        let s_faithful = sentence_bleu(faithful, reference);
        assert!(s_scrambled < s_faithful);
        assert!(s_scrambled > 0.0);
    }

    #[test]
    fn custom_order_config() {
        let cfg = BleuConfig { max_order: 1, smoothing: 0.0 };
        let s = sentence_bleu_with("b a", "a b", cfg);
        assert!((s.score - 1.0).abs() < 1e-9, "unigram BLEU ignores order");
    }
}
