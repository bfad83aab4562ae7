//! ROUGE (Recall-Oriented Understudy for Gisting Evaluation).
//!
//! We implement ROUGE-N (n-gram recall/precision/F1) and ROUGE-L (longest
//! common subsequence). The paper reports a single "ROUGE" column in its
//! tables; we follow the common convention of reporting ROUGE-L F1 there and
//! expose ROUGE-1/2 for completeness.

use crate::ngram::{ngram_total, NgramIndex};
use crate::tokenize::{intern_pair, Vocab};

/// Precision / recall / F1 triple produced by every ROUGE variant.
#[derive(Debug, Clone, Copy, PartialEq, serde::Serialize, serde::Deserialize)]
pub struct RougeScore {
    /// Fraction of candidate units that appear in the reference.
    pub precision: f64,
    /// Fraction of reference units that appear in the candidate.
    pub recall: f64,
    /// Harmonic mean of precision and recall.
    pub f1: f64,
}

impl RougeScore {
    fn from_counts(overlap: f64, candidate_total: f64, reference_total: f64) -> Self {
        let precision = if candidate_total > 0.0 { overlap / candidate_total } else { 0.0 };
        let recall = if reference_total > 0.0 { overlap / reference_total } else { 0.0 };
        let f1 = if precision + recall > 0.0 { 2.0 * precision * recall / (precision + recall) } else { 0.0 };
        RougeScore { precision, recall, f1 }
    }

    /// Score for two empty texts (conventionally perfect).
    fn perfect() -> Self {
        RougeScore { precision: 1.0, recall: 1.0, f1: 1.0 }
    }
}

/// ROUGE-N over word tokens.
///
/// ```
/// use textmetrics::rouge::rouge_n;
/// let s = rouge_n("the cat sat", "the cat sat on the mat", 1);
/// assert!(s.recall < 1.0 && s.precision > 0.99);
/// ```
pub fn rouge_n(candidate: &str, reference: &str, order: usize) -> RougeScore {
    let (cand, refr, _) = intern_pair(candidate, reference);
    if cand.is_empty() && refr.is_empty() {
        return RougeScore::perfect();
    }
    let order = order.max(1);
    let reference = NgramIndex::new(&refr, order);
    let overlap = reference.clipped_matches(&cand)[order - 1] as f64;
    RougeScore::from_counts(overlap, ngram_total(cand.len(), order) as f64, reference.total(order) as f64)
}

/// ROUGE-L over word tokens, based on the longest common subsequence.
///
/// For very long documents the quadratic LCS table is too large, so token
/// sequences are truncated to the first [`ROUGE_L_MAX_TOKENS`] tokens — the
/// same windowing approach used by summarization toolkits for long inputs.
pub fn rouge_l(candidate: &str, reference: &str) -> RougeScore {
    let (cand, refr, vocab_len) = intern_pair(candidate, reference);
    rouge_l_of_ids(&cand, &refr, vocab_len)
}

/// [`rouge_l`] of two token-id sequences from one vocabulary of `vocab_len`
/// tokens.
pub(crate) fn rouge_l_of_ids(cand: &[u32], refr: &[u32], vocab_len: usize) -> RougeScore {
    if cand.is_empty() && refr.is_empty() {
        return RougeScore::perfect();
    }
    let cand = &cand[..cand.len().min(ROUGE_L_MAX_TOKENS)];
    let refr = &refr[..refr.len().min(ROUGE_L_MAX_TOKENS)];
    let lcs = lcs_of_ids(cand, refr, vocab_len) as f64;
    RougeScore::from_counts(lcs, cand.len() as f64, refr.len() as f64)
}

/// Maximum number of tokens considered by [`rouge_l`] on each side.
pub const ROUGE_L_MAX_TOKENS: usize = 3_000;

/// Length of the longest common subsequence of two token slices.
///
/// Memory usage is `O(σ · min(n, m) / 64)` words for `σ` distinct tokens in
/// the shorter slice.
pub fn lcs_length(a: &[String], b: &[String]) -> usize {
    let mut vocab = Vocab::default();
    let a_ids: Vec<u32> = a.iter().map(|token| vocab.intern_token(token)).collect();
    let b_ids: Vec<u32> = b.iter().map(|token| vocab.lookup_token(token)).collect();
    lcs_of_ids(&a_ids, &b_ids, vocab.len())
}

/// LCS length of two id sequences. An id of `vocab_len` or more — in
/// practice `tokenize::UNKNOWN_TOKEN` — matches nothing, itself included.
///
/// Bit-vector LCS (Allison–Dix, in Hyyrö's form): the shorter sequence is
/// the pattern, one bit per token, and `V` starts all ones. Each token `c`
/// of the longer one updates `V' = (V + (V & M[c])) | (V & !M[c])`, where
/// `M[c]` marks the pattern positions holding `c`; only the addition
/// carries from one 64-bit block into the next. The zero bits of the final
/// `V` are the LCS length — the same integer as the textbook row recurrence
/// (the test oracle in `tests/kernel_equivalence.rs`).
fn lcs_of_ids(a: &[u32], b: &[u32], vocab_len: usize) -> usize {
    let (pattern, text) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if pattern.is_empty() {
        return 0;
    }
    let words = pattern.len().div_ceil(u64::BITS as usize);
    // Row of each id's mask in `masks`, numbered first so `masks` is
    // allocated once at its final size; row 0 stays zero for ids the
    // pattern lacks.
    let mut row_of = vec![0u32; vocab_len];
    let mut rows = 0;
    for &id in pattern {
        let Some(row) = row_of.get_mut(id as usize) else { continue };
        if *row == 0 {
            rows += 1;
            *row = rows;
        }
    }
    let mut masks = vec![0u64; (rows as usize + 1) * words];
    for (i, &id) in pattern.iter().enumerate() {
        if let Some(&row) = row_of.get(id as usize) {
            masks[row as usize * words + i / 64] |= 1 << (i % 64);
        }
    }
    // The bits past the pattern in the last block have no mask bit, so they
    // stay one and never count as matches.
    let mut v = vec![u64::MAX; words];
    for &id in text {
        let row = row_of.get(id as usize).map_or(0, |&row| row as usize);
        if row == 0 {
            continue; // an all-zero mask leaves `V` as it is
        }
        let mut carry = false;
        for (v, &mask) in v.iter_mut().zip(&masks[row * words..(row + 1) * words]) {
            let matched = *v & mask;
            let (sum, c1) = v.overflowing_add(matched);
            let (sum, c2) = sum.overflowing_add(u64::from(carry));
            carry = c1 | c2;
            *v = sum | (*v & !mask);
        }
    }
    v.iter().map(|block| block.count_zeros() as usize).sum()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toks(s: &str) -> Vec<String> {
        s.split_whitespace().map(|x| x.to_string()).collect()
    }

    #[test]
    fn lcs_basic() {
        assert_eq!(lcs_length(&toks("a b c d"), &toks("a c d")), 3);
        assert_eq!(lcs_length(&toks(""), &toks("a b")), 0);
        assert_eq!(lcs_length(&toks("a b"), &toks("b a")), 1);
        assert_eq!(lcs_length(&toks("x y z"), &toks("x y z")), 3);
    }

    #[test]
    fn rouge_identical_is_one() {
        let t = "recall oriented understudy for gisting evaluation";
        let s = rouge_l(t, t);
        assert!((s.f1 - 1.0).abs() < 1e-9);
        let s1 = rouge_n(t, t, 1);
        assert!((s1.f1 - 1.0).abs() < 1e-9);
        let s2 = rouge_n(t, t, 2);
        assert!((s2.f1 - 1.0).abs() < 1e-9);
    }

    #[test]
    fn rouge_disjoint_is_zero() {
        let s = rouge_l("alpha beta gamma", "one two three");
        assert_eq!(s.f1, 0.0);
        assert_eq!(rouge_n("alpha beta", "one two", 1).f1, 0.0);
    }

    #[test]
    fn empty_inputs() {
        assert_eq!(rouge_l("", "").f1, 1.0);
        assert_eq!(rouge_l("", "text").f1, 0.0);
        assert_eq!(rouge_l("text", "").f1, 0.0);
        assert_eq!(rouge_n("", "", 2).f1, 1.0);
    }

    #[test]
    fn precision_recall_asymmetry() {
        // Candidate is a strict prefix of the reference: perfect precision,
        // partial recall.
        let s = rouge_n("the cat sat", "the cat sat on the mat", 1);
        assert!(s.precision > 0.99);
        assert!(s.recall < 0.99);
        // And swapping the arguments swaps precision and recall.
        let swapped = rouge_n("the cat sat on the mat", "the cat sat", 1);
        assert!((s.precision - swapped.recall).abs() < 1e-9);
        assert!((s.recall - swapped.precision).abs() < 1e-9);
    }

    #[test]
    fn rouge_scores_bounded() {
        let cases =
            [("a b c", "c b a"), ("a a a a", "a"), ("longer candidate text with many words", "short ref")];
        for (c, r) in cases {
            for s in [rouge_l(c, r), rouge_n(c, r, 1), rouge_n(c, r, 2)] {
                assert!((0.0..=1.0).contains(&s.precision));
                assert!((0.0..=1.0).contains(&s.recall));
                assert!((0.0..=1.0).contains(&s.f1));
            }
        }
    }

    #[test]
    fn scrambled_text_scores_high_rouge1_lower_rougel() {
        // Mirrors the paper's observation that ROUGE can over-reward
        // incoherent candidates: unigram overlap stays high but ROUGE-L drops.
        let reference = "the gravitational force between two masses is directly proportional \
                         to the product of their masses";
        let scrambled = "the gravitational force masses directly two the between proportional \
                         product is of to their masses";
        let r1 = rouge_n(scrambled, reference, 1);
        let rl = rouge_l(scrambled, reference);
        assert!(r1.f1 > 0.9, "rouge-1 stays high: {}", r1.f1);
        assert!(rl.f1 < r1.f1, "rouge-l must be lower than rouge-1");
    }

    #[test]
    fn long_input_is_truncated_not_panicking() {
        let reference = "word ".repeat(10_000);
        let candidate = "word ".repeat(9_000);
        let s = rouge_l(&candidate, &reference);
        assert!(s.f1 > 0.99);
    }
}
