//! Character-level edit distance and the character accuracy rate (CAR).
//!
//! The paper reports CAR as one of its accuracy columns in Tables 1–3. CAR is
//! defined here as `1 − d(candidate, reference) / max(|candidate|, |reference|)`
//! where `d` is the Levenshtein distance over whitespace-normalized character
//! sequences, clamped to `[0, 1]`.
//!
//! Both distances are Myers/Hyyrö bit-vector algorithms: a column of the
//! dynamic-programming table is kept as its vertical differences, 64 cells
//! to a machine word. [`edit_distance_chars`] computes the whole table
//! (`|a|·|b|/64` word steps) and scores inputs up to [`BANDED_THRESHOLD`];
//! [`edit_distance_banded`] computes only the blocks a diagonal band touches
//! and scores the longer ones, at a cost that depends on the lengths and the
//! band alone, not on how much the texts differ.

use std::collections::HashMap;

use crate::tokenize::tokenize_chars;

/// Length (in characters, of the longer input) above which
/// [`char_accuracy_rate`] scores with the band rule.
pub const BANDED_THRESHOLD: usize = 4_000;

const WORD: usize = u64::BITS as usize;

/// Per-symbol match masks of a pattern (`Peq` in the literature): bit `i` of
/// a symbol's mask is set iff `pattern[i]` is that symbol. One row of
/// `words` words per distinct symbol; row 0 is all zeros and serves every
/// symbol the pattern lacks.
struct MatchMasks {
    words: usize,
    /// Row of each ASCII character (0 = not in the pattern).
    ascii: [u32; 128],
    /// Row of every other character in the pattern.
    other: HashMap<char, u32>,
    rows: Vec<u64>,
}

impl MatchMasks {
    fn new(pattern: &[char]) -> Self {
        let words = pattern.len().div_ceil(WORD);
        let mut masks = MatchMasks { words, ascii: [0; 128], other: HashMap::new(), rows: Vec::new() };
        // Number the distinct characters first, so the rows are allocated
        // once at their final size.
        let mut distinct = 0;
        for &ch in pattern {
            let row = match masks.ascii.get_mut(ch as usize) {
                Some(row) => row,
                None => masks.other.entry(ch).or_insert(0),
            };
            if *row == 0 {
                distinct += 1;
                *row = distinct;
            }
        }
        masks.rows = vec![0; (distinct as usize + 1) * words];
        for (i, &ch) in pattern.iter().enumerate() {
            let row = masks.row_index(ch);
            masks.rows[row * words + i / WORD] |= 1 << (i % WORD);
        }
        masks
    }

    fn row_index(&self, ch: char) -> usize {
        match self.ascii.get(ch as usize) {
            Some(&row) => row as usize,
            None => self.other.get(&ch).map_or(0, |&row| row as usize),
        }
    }

    fn row(&self, ch: char) -> &[u64] {
        let row = self.row_index(ch);
        &self.rows[row * self.words..(row + 1) * self.words]
    }
}

/// One 64-row block of one column of Myers' algorithm in Hyyrö's block
/// form. `pv`/`mv` hold the block's vertical differences (+1 / −1 bits) in
/// the previous column and are replaced by the current column's; `eq` is the
/// column character's match mask; `above` is what this function returned for
/// the block above. Returns the block's horizontal +1 and −1 bit-vectors:
/// bit `r` is the difference leaving row `r`, and the top bits enter the
/// block below.
#[inline(always)]
fn advance_block(pv: &mut u64, mv: &mut u64, eq: u64, above: (u64, u64)) -> (u64, u64) {
    let (hp_in, hn_in) = (above.0 >> (WORD - 1), above.1 >> (WORD - 1));
    let xv = eq | *mv;
    let eq = eq | hn_in;
    let xh = ((eq & *pv).wrapping_add(*pv) ^ *pv) | eq;
    let ph = *mv | !(xh | *pv);
    let mh = *pv & xh;
    let ph_in = (ph << 1) | hp_in;
    let mh_in = (mh << 1) | hn_in;
    *pv = mh_in | !(xv | ph_in);
    *mv = ph_in & xv;
    (ph, mh)
}

/// Row 0 of the table is 0, 1, 2, …: +1 enters every column's first block,
/// written as the top bit of a block above it.
const ENTER: (u64, u64) = (1 << (WORD - 1), 0);

/// Exact Levenshtein distance between two character slices.
///
/// Bit-parallel (Myers 1999, Hyyrö's block formulation): the shorter slice
/// is the pattern, laid out down a column 64 rows to a word; every
/// character of the longer one advances the column by one word step per
/// block. Carries only run from low rows to high rows, so the unused high
/// bits of the last block are never read: the distance is tracked at bit
/// `(m − 1) % 64` of that block. Returns the same integer as the textbook
/// row recurrence (the test oracle in `tests/kernel_equivalence.rs`).
///
/// Memory usage is `O(σ · min(|a|, |b|) / 64)` words for `σ` distinct
/// pattern characters.
pub fn edit_distance_chars(a: &[char], b: &[char]) -> usize {
    let (pattern, text) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let m = pattern.len();
    if m == 0 {
        return text.len();
    }
    let masks = MatchMasks::new(pattern);
    let last = masks.words - 1;
    let score_bit = (m - 1) % WORD;
    // Column 0 of the table is 0, 1, 2, …: every vertical difference is +1.
    let mut pv = vec![u64::MAX; masks.words];
    let mut mv = vec![0u64; masks.words];
    let mut score = m;
    let mut add_score = |(ph, mh): (u64, u64)| {
        score += (ph >> score_bit & 1) as usize;
        score -= (mh >> score_bit & 1) as usize;
    };
    // Two columns at a time, the second one block behind the first: block b
    // of column j and block b − 1 of column j + 1 depend on nothing of each
    // other, so the processor overlaps the two carry chains.
    let mut columns = text.chunks_exact(2);
    for pair in &mut columns {
        let (eq0, eq1) = (masks.row(pair[0]), masks.row(pair[1]));
        let (mut p, mut q) = (pv[0], mv[0]);
        let mut h0 = advance_block(&mut p, &mut q, eq0[0], ENTER);
        let mut h1 = ENTER;
        for block in 1..=last {
            let (mut p1, mut q1) = (p, q);
            (p, q) = (pv[block], mv[block]);
            h0 = advance_block(&mut p, &mut q, eq0[block], h0);
            h1 = advance_block(&mut p1, &mut q1, eq1[block - 1], h1);
            (pv[block - 1], mv[block - 1]) = (p1, q1);
        }
        h1 = advance_block(&mut p, &mut q, eq1[last], h1);
        (pv[last], mv[last]) = (p, q);
        add_score(h0);
        add_score(h1);
    }
    for &ch in columns.remainder() {
        let mut h = ENTER;
        for ((pv, mv), &eq) in pv.iter_mut().zip(&mut mv).zip(masks.row(ch)) {
            h = advance_block(pv, mv, eq, h);
        }
        add_score(h);
    }
    score
}

/// Exact Levenshtein distance between two strings (raw characters, no
/// normalization).
///
/// ```
/// use textmetrics::levenshtein::edit_distance;
/// assert_eq!(edit_distance("kitten", "sitting"), 3);
/// assert_eq!(edit_distance("hyperthyroidism", "hypothyroidism"), 2);
/// ```
pub fn edit_distance(a: &str, b: &str) -> usize {
    let ac: Vec<char> = a.chars().collect();
    let bc: Vec<char> = b.chars().collect();
    edit_distance_chars(&ac, &bc)
}

/// Banded (Ukkonen-style) edit distance: the cost of the cheapest alignment
/// that stays within `band` diagonals of the main one. An upper bound on the
/// true distance, and exact whenever the true distance is at most `band`. A
/// length gap wider than the band admits no such alignment and returns
/// `max(|a|, |b|)`.
///
/// Bit-parallel like [`edit_distance_chars`], over the blocks the band
/// touches in each column only: `|text| · (2·band/64 + 2)` word steps at
/// most. Neighbouring cells inside the band still differ by at most one, so
/// the band's edges fit the same encoding. The rows of the first block that
/// lie above the band are given vertical differences of −1 and no matches,
/// which makes each of them, and so the cell above the band's top cell, one
/// more than its left neighbour: a value the top cell's diagonal move always
/// beats. The rows below the band keep the +1 differences of column 0, which
/// does the same for the bottom cell's left neighbour. Returns the same
/// integer as the row recurrence with every cell outside the band at
/// infinity (the test oracle in `tests/kernel_equivalence.rs`).
pub fn edit_distance_banded(a: &[char], b: &[char], band: usize) -> usize {
    let (pattern, text) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    let (m, n) = (pattern.len(), text.len());
    if m == 0 || n - m > band {
        return n;
    }
    let masks = MatchMasks::new(pattern);
    let mut pv = vec![u64::MAX; masks.words];
    let mut mv = vec![0u64; masks.words];
    // The band's top cell in the previous column.
    let mut top = 0;
    for (j, &ch) in (1usize..).zip(text) {
        // Rows (1-based) of the band in column j, and their blocks.
        let lo = j.saturating_sub(band).max(1);
        let hi = (j + band).min(m);
        let (first, last) = ((lo - 1) / WORD, (hi - 1) / WORD);
        let eq = masks.row(ch);

        let above_band = (1 << ((lo - 1) % WORD)) - 1;
        pv[first] &= !above_band;
        mv[first] |= above_band;
        let mut h = advance_block(&mut pv[first], &mut mv[first], eq[first] & !above_band, ENTER);
        for block in first + 1..=last {
            h = advance_block(&mut pv[block], &mut mv[block], eq[block], h);
        }
        // The sweep also advanced the rows of the last block below the band.
        let below_band = (u64::MAX << ((hi - 1) % WORD)) << 1;
        pv[last] |= below_band;
        mv[last] &= !below_band;

        // The cell above the top cell: row 0 of the table while the band
        // reaches it, one more than the previous top cell afterwards.
        let above = if lo == 1 { j } else { top + 1 };
        let bit = (lo - 1) % WORD;
        top = above + (pv[first] >> bit & 1) as usize - (mv[first] >> bit & 1) as usize;
    }
    // Down the last column from the top cell (row `lo`) to row m.
    let lo = n.saturating_sub(band).max(1);
    let (mut plus, mut minus) = (0, 0);
    for block in lo / WORD..=(m - 1) / WORD {
        let mut rows = u64::MAX;
        if block == lo / WORD {
            rows &= u64::MAX << (lo % WORD);
        }
        if block == (m - 1) / WORD {
            rows &= u64::MAX >> (WORD - 1 - (m - 1) % WORD);
        }
        plus += (pv[block] & rows).count_ones() as usize;
        minus += (mv[block] & rows).count_ones() as usize;
    }
    top + plus - minus
}

/// Normalized similarity in `[0, 1]`: `1 − d / max(|a|, |b|)` over raw
/// characters. Two empty strings are considered identical (similarity 1).
pub fn normalized_similarity(a: &str, b: &str) -> f64 {
    let ac: Vec<char> = a.chars().collect();
    let bc: Vec<char> = b.chars().collect();
    let denom = ac.len().max(bc.len());
    if denom == 0 {
        return 1.0;
    }
    let d = edit_distance_chars(&ac, &bc);
    1.0 - d as f64 / denom as f64
}

/// Character accuracy rate between parser output and ground truth.
///
/// Both inputs are whitespace-normalized first; the score is `1 − d / max(n,
/// m)` over the normalized lengths `n` (candidate) and `m` (reference).
///
/// Up to [`BANDED_THRESHOLD`] characters `d` is the exact edit distance.
/// Above it `d` is the distance of an alignment confined to a band of
/// `max(m / 5, 64)` diagonals — how OCR evaluation toolkits bound their
/// alignment, pessimistic for heavily shuffled text. The rule has two
/// consequences callers rely on (every recorded fingerprint contains them):
///
/// * a length gap wider than the band scores exactly `0.0`, however similar
///   the texts are otherwise;
/// * the band is 20 % of the *reference* length, so above the threshold
///   `char_accuracy_rate(a, b)` and `char_accuracy_rate(b, a)` can differ.
///
/// Returns a value in `[0, 1]`.
pub fn char_accuracy_rate(candidate: &str, reference: &str) -> f64 {
    car_of_chars(&tokenize_chars(candidate), &tokenize_chars(reference))
}

/// [`char_accuracy_rate`] of two already normalized character sequences.
pub(crate) fn car_of_chars(cand: &[char], refr: &[char]) -> f64 {
    let denom = cand.len().max(refr.len());
    if denom == 0 {
        return 1.0;
    }
    let d = if denom > BANDED_THRESHOLD {
        edit_distance_banded(cand, refr, (refr.len() / 5).max(64))
    } else {
        edit_distance_chars(cand, refr)
    };
    (1.0 - d as f64 / denom as f64).clamp(0.0, 1.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classic_distances() {
        assert_eq!(edit_distance("", ""), 0);
        assert_eq!(edit_distance("abc", ""), 3);
        assert_eq!(edit_distance("", "abc"), 3);
        assert_eq!(edit_distance("abc", "abc"), 0);
        assert_eq!(edit_distance("kitten", "sitting"), 3);
        assert_eq!(edit_distance("flaw", "lawn"), 2);
    }

    #[test]
    fn paper_example_hyperthyroidism() {
        // The paper's motivating example: distance 2, similarity ~86.7%.
        let d = edit_distance("hyperthyroidism", "hypothyroidism");
        assert_eq!(d, 2);
        let sim = normalized_similarity("hyperthyroidism", "hypothyroidism");
        assert!((sim - (1.0 - 2.0 / 15.0)).abs() < 1e-9);
    }

    #[test]
    fn distance_is_symmetric() {
        for (a, b) in [("abcdef", "azced"), ("xy", "yx"), ("", "q")] {
            assert_eq!(edit_distance(a, b), edit_distance(b, a));
        }
    }

    #[test]
    fn banded_matches_exact_when_band_large() {
        let a: Vec<char> = "the quick brown fox jumps".chars().collect();
        let b: Vec<char> = "the quikc brown fox jmps over".chars().collect();
        let exact = edit_distance_chars(&a, &b);
        let banded = edit_distance_banded(&a, &b, a.len() + b.len());
        assert_eq!(exact, banded);
    }

    #[test]
    fn banded_is_upper_bound() {
        let a: Vec<char> = "abcdefghijabcdefghij".chars().collect();
        let b: Vec<char> = "abcdefghijzzzzefghij".chars().collect();
        let exact = edit_distance_chars(&a, &b);
        for band in [1usize, 2, 4, 8, 40] {
            assert!(edit_distance_banded(&a, &b, band) >= exact);
        }
    }

    #[test]
    fn car_identical_is_one_and_disjoint_low() {
        assert_eq!(char_accuracy_rate("same text", "same  text"), 1.0);
        assert!(char_accuracy_rate("aaaaaaa", "zzzzzzz") < 0.01);
        assert_eq!(char_accuracy_rate("", ""), 1.0);
        assert_eq!(char_accuracy_rate("", "abc"), 0.0);
    }

    #[test]
    fn car_length_gap_over_the_band_scores_exactly_zero() {
        let reference = "abcde".repeat(1_000); // band = 1 000
        assert_eq!(char_accuracy_rate(&reference[..4_000], &reference), 0.8);
        assert_eq!(char_accuracy_rate(&reference[..3_999], &reference), 0.0);
    }

    #[test]
    fn car_above_the_threshold_is_asymmetric() {
        // The band is 20 % of the *reference*: 1 000 one way, 820 the other,
        // and the length gap of 900 lies between them.
        let long = "abcde".repeat(1_000);
        let short = &long[..4_100];
        assert_eq!(char_accuracy_rate(short, &long), 1.0 - 900.0 / 5_000.0);
        assert_eq!(char_accuracy_rate(&long, short), 0.0);
    }

    #[test]
    fn car_long_input_uses_banded_and_stays_bounded() {
        let reference: String = "scientific text about proteins and enzymes ".repeat(200);
        let mut candidate = reference.clone();
        candidate.insert_str(100, "XYZ");
        let car = char_accuracy_rate(&candidate, &reference);
        assert!(car > 0.99, "car = {car}");
        assert!(car <= 1.0);
    }
}
