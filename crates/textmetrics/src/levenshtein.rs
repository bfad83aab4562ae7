//! Character-level edit distance and the character accuracy rate (CAR).
//!
//! The paper reports CAR as one of its accuracy columns in Tables 1–3. CAR is
//! defined here as `1 − d(candidate, reference) / max(|candidate|, |reference|)`
//! where `d` is the Levenshtein distance over whitespace-normalized character
//! sequences, clamped to `[0, 1]`.
//!
//! Both distances are Myers/Hyyrö bit-vector algorithms: a column of the
//! dynamic-programming table is kept as its vertical differences, 64 cells
//! to a machine word, and a pass over the longer text advances the blocks of
//! a diagonal band only.
//!
//! A pair's cost follows how much its texts differ, not how long they are.
//! Both distances try thresholds `t = g, g + 1, g + 2, g + 4, …` for a length
//! gap `g`, the excess over the gap doubling each time, and return the
//! first result within its threshold. Each threshold is tried with the
//! cheaper of two exact passes, judged by their worst cases:
//!
//! * the diagonal-transition search (`crate::diagonal`, Ukkonen 1985,
//!   Landau–Vishkin 1989) deepened to `t`, which returns the distance
//!   exactly when it is at most `t`, in at most `(t − g + 1)(t + 1)` states
//!   in all: cheap when the texts differ by little beyond their gap, the
//!   common case. One search serves every threshold, resumed where the last
//!   one stopped;
//! * the band of the diagonals an alignment of cost at most `t` can use:
//!   it leaves the main diagonal by at most `p = (t − g) / 2` on the shorter
//!   text's side and `g + p` on the other (Ukkonen 1985) — going further
//!   and coming back to the last cell costs more than `t` in insertions and
//!   deletions alone. Its result `r` is the cost of a real alignment, hence
//!   no less than the distance; if `r ≤ t` the cheapest alignment was inside
//!   the band and `r` is the distance.
//!
//! Since every pass is exact below its threshold, the schedule moves no
//! result. [`edit_distance_chars`] scores inputs up to [`BANDED_THRESHOLD`]
//! and ends, when no threshold cheap enough settles the pair, in the whole
//! table (`|a|·|b|/64` word steps); [`edit_distance_banded`] scores the
//! longer ones, stops its thresholds at `band` and ends in the symmetric
//! band that defines it. Passes are tried only while they together cost no
//! more than the pass they lead to, so the worst pair costs at most twice
//! what that pass alone would.

use std::collections::HashMap;

use crate::diagonal::DiagonalSearch;
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

/// Edits beyond the length gap (which every alignment pays) that the
/// thresholds allow: none, one, then `DEEPENING` times the one before.
const DEEPENING: usize = 2;

/// Rows (1-based) of column `j` on the diagonals from `up` above the main
/// one to `down` below it, for a pattern of `m` rows.
fn band_rows(j: usize, up: usize, down: usize, m: usize) -> (usize, usize) {
    (j.saturating_sub(up).max(1), (j + down).min(m))
}

/// Word steps per column, at most, of a band `up` diagonals above the main
/// one and `down` below it: its `up + down + 1` rows, wherever they start.
fn band_words(up: usize, down: usize) -> usize {
    (up + down) / WORD + 2
}

/// The thresholds of both distances (see the module documentation): `gap`,
/// `gap + 1`, then each `DEEPENING` times further above the gap, ending at
/// `cap` (not below `gap`).
fn thresholds(gap: usize, cap: usize) -> impl Iterator<Item = usize> {
    let excess = std::iter::successors(Some(0usize), |&s| Some((s * DEEPENING).max(1)));
    excess.map(move |s| gap.saturating_add(s).min(cap)).scan(false, move |ended, t| {
        (!*ended).then(|| {
            *ended = t == cap;
            t
        })
    })
}

/// A pass [`settle`] tries at one threshold.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Pass {
    /// The pair's [`DiagonalSearch`], deepened to the threshold.
    Diagonal,
    /// [`Pair::distance_in_band`] on the diagonals from `up` above the main
    /// one to `down` below it.
    Band { up: usize, down: usize },
}

/// The passes both distances try, as `(t, pass)`, one per threshold `t`
/// ([`thresholds`]) of a text of `n` characters: the diagonal pass where
/// its state bound `(t − gap + 1)(t + 1)` is below the `n ·` [`band_words`]
/// word steps of the band of threshold `t`, which spans the diagonals from
/// `up = gap + p` to `down = p`, `p = (t − gap) / 2`; that band elsewhere.
///
/// Passes are tried only while they together cost no more, in word steps
/// (a diagonal pass at its whole bound, although the resumed search pays
/// only what the last threshold had not), than the `n · final_words` of the pass
/// that follows when none settles the pair, which bounds the worst pair at
/// twice that pass.
fn passes(gap: usize, n: usize, cap: usize, final_words: usize) -> impl Iterator<Item = (usize, Pass)> {
    let mut spent = 0usize;
    thresholds(gap, cap).map_while(move |t| {
        let (up, down) = (gap + (t - gap) / 2, (t - gap) / 2);
        let (states, steps) = ((t - gap + 1).saturating_mul(t + 1), n * band_words(up, down));
        let (pass, cost) =
            if states < steps { (Pass::Diagonal, states) } else { (Pass::Band { up, down }, steps) };
        spent = spent.saturating_add(cost);
        (spent <= n * final_words).then_some((t, pass))
    })
}

/// One (pattern, text) pair: the pattern's match masks, built once, and the
/// column state every pass over the text reuses.
struct Pair<'a> {
    masks: MatchMasks,
    text: &'a [char],
    /// Pattern length.
    m: usize,
    pv: Vec<u64>,
    mv: Vec<u64>,
}

impl<'a> Pair<'a> {
    /// `pattern` must be the shorter side and not empty.
    fn new(pattern: &[char], text: &'a [char]) -> Self {
        let masks = MatchMasks::new(pattern);
        let (pv, mv) = (vec![0; masks.words], vec![0; masks.words]);
        Pair { masks, text, m: pattern.len(), pv, mv }
    }

    /// Column 0 of the table is 0, 1, 2, …: every vertical difference is +1.
    fn reset(&mut self) {
        self.pv.fill(u64::MAX);
        self.mv.fill(0);
    }

    /// Cost of the cheapest alignment confined to the diagonals from `up`
    /// above the main one (towards the longer text; at least the length gap,
    /// so that the last cell is inside) to `down` below it: the row
    /// recurrence with every cell outside rows [`band_rows`] at infinity.
    ///
    /// Only the blocks the band touches in a column advance. Neighbouring
    /// cells inside the band still differ by at most one, so the band's edges
    /// fit the bit-vector encoding. The rows of the first block that lie
    /// above the band are given vertical differences of −1 and no matches,
    /// which makes each of them, and so the cell above the band's top cell,
    /// one more than its left neighbour: a value the top cell's diagonal move
    /// always beats. The rows below the band keep the +1 differences of
    /// column 0, which does the same for the bottom cell's left neighbour.
    fn distance_in_band(&mut self, up: usize, down: usize) -> usize {
        self.reset();
        let Pair { masks, text, m, pv, mv } = self;
        let m = *m;
        // The band's top cell in the previous column.
        let mut top = 0;
        for (j, &ch) in (1usize..).zip(*text) {
            let (lo, hi) = band_rows(j, up, down, m);
            let (first, last) = ((lo - 1) / WORD, (hi - 1) / WORD);
            let eq = &masks.row(ch)[first..=last];
            let (pv, mv) = (&mut pv[first..=last], &mut mv[first..=last]);

            let bit = (lo - 1) % WORD;
            let above_band = (1 << bit) - 1;
            pv[0] &= !above_band;
            mv[0] |= above_band;
            let mut h = advance_block(&mut pv[0], &mut mv[0], eq[0] & !above_band, ENTER);
            for ((pv, mv), &eq) in pv.iter_mut().zip(mv.iter_mut()).zip(eq).skip(1) {
                h = advance_block(pv, mv, eq, h);
            }
            // The sweep also advanced the rows of the last block below the band.
            let below_band = (u64::MAX << ((hi - 1) % WORD)) << 1;
            pv[last - first] |= below_band;
            mv[last - first] &= !below_band;

            // The cell above the top cell: row 0 of the table while the band
            // reaches it, one more than the previous top cell afterwards.
            let above = if lo == 1 { j } else { top + 1 };
            top = above + (pv[0] >> bit & 1) as usize - (mv[0] >> bit & 1) as usize;
        }
        // Down the last column from the top cell (row `lo`) to row m.
        let (lo, _) = band_rows(text.len(), up, down, m);
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

    /// The whole table, `|text| · ⌈m / 64⌉` word steps. Carries only run from
    /// low rows to high rows, so the unused high bits of the last block are
    /// never read: the distance is tracked at bit `(m − 1) % 64` of that
    /// block.
    fn distance_in_table(&mut self) -> usize {
        self.reset();
        let Pair { masks, text, m, pv, mv } = self;
        let last = masks.words - 1;
        let score_bit = (*m - 1) % WORD;
        let mut score = *m;
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
            for ((pv, mv), &eq) in pv.iter_mut().zip(mv.iter_mut()).zip(masks.row(ch)) {
                h = advance_block(pv, mv, eq, h);
            }
            add_score(h);
        }
        score
    }
}

/// Exact Levenshtein distance between two character slices.
///
/// Bit-parallel (Myers 1999, Hyyrö's block formulation): the shorter slice
/// is the pattern, laid out down a column 64 rows to a word; every
/// character of the longer one advances the column by one word step per
/// block it visits. The thresholds (see the module documentation) try the
/// diagonal pass or a narrow diagonal band first: the band of threshold `t`
/// costs `|text| · (t / 64 + 2)` word steps, and the passes before the one
/// that settles a pair cost no more than it does. The whole table's word
/// steps are about twice as fast (two columns in flight, no band edges), so
/// passes are tried only within half of its `|text| · ⌈|pattern| / 64⌉`; a
/// pair they do not settle gets the table. Returns the same integer as the
/// textbook row recurrence (the test oracle in `tests/kernel_equivalence.rs`).
///
/// Memory usage is `O(σ · min(|a|, |b|) / 64)` words for `σ` distinct
/// pattern characters.
pub fn edit_distance_chars(a: &[char], b: &[char]) -> usize {
    let (pattern, text) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if pattern.is_empty() {
        return text.len();
    }
    let table_words = pattern.len().div_ceil(WORD);
    settle(pattern, text, text.len(), table_words / 2, Pair::distance_in_table)
}

/// Both distances after their first checks: the [`passes`] in turn, the
/// first result within its threshold, and `last` when none settles the
/// pair (see the module documentation). `pattern` is the shorter side and
/// not empty.
///
/// Every pass is exact below its threshold: the diagonal pass returns the
/// distance exactly when it is at most `t`, and a band pass's result `r ≤
/// t` is the distance. So the order of the passes moves no result, only
/// what a pair costs. The diagonal passes are one [`DiagonalSearch`],
/// sized for the deepest of them and resumed at each threshold.
fn settle<'a>(
    pattern: &[char],
    text: &'a [char],
    cap: usize,
    final_words: usize,
    last: impl FnOnce(&mut Pair<'a>) -> usize,
) -> usize {
    let gap = text.len() - pattern.len();
    let schedule = || passes(gap, text.len(), cap, final_words);
    let deepest = schedule().filter(|&(_, pass)| pass == Pass::Diagonal).map(|(t, _)| t).last();
    // The search and the match masks are built only for the first pass that
    // needs them.
    let (mut search, mut pair) = (None, None);
    for (t, pass) in schedule() {
        let distance = match pass {
            Pass::Diagonal => search
                .get_or_insert_with(|| DiagonalSearch::new(pattern, text, deepest.unwrap_or(t), true))
                .deepen(t),
            Pass::Band { up, down } => {
                let distance =
                    pair.get_or_insert_with(|| Pair::new(pattern, text)).distance_in_band(up, down);
                (distance <= t).then_some(distance)
            }
        };
        if let Some(distance) = distance {
            return distance;
        }
    }
    last(pair.get_or_insert_with(|| Pair::new(pattern, text)))
}

/// The distance of `pattern` and `text` (not shorter) if it is at most `t`,
/// else `None`: [`DiagonalSearch`] deepened to `t`.
///
/// Public, but not part of the API, for the oracle in
/// `tests/kernel_equivalence.rs`.
#[doc(hidden)]
pub fn diagonal_distance(pattern: &[char], text: &[char], t: usize) -> Option<usize> {
    DiagonalSearch::new(pattern, text, t, true).deepen(t)
}

/// Banded (Ukkonen-style) edit distance: the cost of the cheapest alignment
/// that stays within `band` diagonals of the main one. An upper bound on the
/// true distance, and exact whenever the true distance is at most `band`. A
/// length gap wider than the band admits no such alignment and returns
/// `max(|a|, |b|)`.
///
/// Bit-parallel like [`edit_distance_chars`] and on the same thresholds,
/// capped at `band`. A pass of threshold `t ≤ band` that settles the pair
/// returns the exact distance `d ≤ t ≤ band` (see the module
/// documentation), and the symmetric band's value is then `d` too, at a
/// cost that follows `d` as it does for [`edit_distance_chars`]. A pair no
/// threshold settles — its exact distance exceeds `band`, or the last
/// passes were not worth trying — pays for the symmetric band itself,
/// `|text| · (2·band/64 + 2)` word steps, after passes that together cost
/// no more than that: no pair costs over twice what the symmetric band
/// alone would. Returns the same integer as the row recurrence with every
/// cell outside the band at infinity (the test oracle in
/// `tests/kernel_equivalence.rs`).
pub fn edit_distance_banded(a: &[char], b: &[char], band: usize) -> usize {
    let (pattern, text) = if a.len() <= b.len() { (a, b) } else { (b, a) };
    if pattern.is_empty() || text.len() - pattern.len() > band {
        return text.len();
    }
    settle(pattern, text, band, band_words(band, band), |pair| pair.distance_in_band(band, band))
}

/// The band kernel on its own, for the oracle in
/// `tests/kernel_equivalence.rs`; not part of the API. `pattern` must not be
/// empty or longer than `text`, and `up` not less than the length gap.
#[doc(hidden)]
pub fn distance_in_band(pattern: &[char], text: &[char], up: usize, down: usize) -> usize {
    Pair::new(pattern, text).distance_in_band(up, down)
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

    fn distance(a: &str, b: &str) -> usize {
        edit_distance_chars(&a.chars().collect::<Vec<_>>(), &b.chars().collect::<Vec<_>>())
    }

    #[test]
    fn classic_distances() {
        assert_eq!(distance("", ""), 0);
        assert_eq!(distance("abc", ""), 3);
        assert_eq!(distance("", "abc"), 3);
        assert_eq!(distance("abc", "abc"), 0);
        assert_eq!(distance("kitten", "sitting"), 3);
        assert_eq!(distance("flaw", "lawn"), 2);
    }

    #[test]
    fn paper_example_hyperthyroidism() {
        // The paper's motivating example: distance 2, similarity ~86.7%.
        assert_eq!(distance("hyperthyroidism", "hypothyroidism"), 2);
        let sim = char_accuracy_rate("hyperthyroidism", "hypothyroidism");
        assert!((sim - (1.0 - 2.0 / 15.0)).abs() < 1e-9);
    }

    #[test]
    fn distance_is_symmetric() {
        for (a, b) in [("abcdef", "azced"), ("xy", "yx"), ("", "q")] {
            assert_eq!(distance(a, b), distance(b, a));
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

    /// Lengths and bands on a grid up to 40 000, with every length gap the
    /// band admits at and around the rung boundaries.
    fn schedule_grid() -> impl Iterator<Item = (usize, usize, usize)> {
        let sizes = [1, 63, 64, 65, 200, 666, 800, 1_000, 4_000, 4_001, 12_000, 40_000];
        let bands = [0usize, 1, 63, 64, 65, 255, 256, 257, 300, 800, 1_024, 2_400, 8_000];
        sizes.into_iter().flat_map(move |m| {
            bands.into_iter().flat_map(move |band| {
                let gaps = [0, 1, 63, 64, 65, band / 4, band / 2, band.saturating_sub(1), band];
                gaps.into_iter()
                    .filter(move |&gap| gap <= band && m + gap <= 40_000)
                    .map(move |gap| (m, gap, band))
            })
        })
    }

    /// What a pass costs in word steps, as [`passes`] charges it.
    fn cost(t: usize, gap: usize, n: usize, pass: Pass) -> usize {
        match pass {
            Pass::Diagonal => (t - gap + 1) * (t + 1),
            Pass::Band { up, down } => n * band_words(up, down),
        }
    }

    #[test]
    fn failed_rungs_never_cost_more_than_the_pass_they_lead_to() {
        for (m, gap, band) in schedule_grid() {
            let (n, table_words) = (m + gap, m.div_ceil(WORD));
            for (cap, final_words) in [(band, band_words(band, band)), (n, table_words / 2)] {
                let mut spent = 0;
                let mut previous = None;
                for (t, pass) in passes(gap, n, cap, final_words) {
                    assert!(previous < Some(t) && gap <= t && t <= cap, "thresholds rise to the cap");
                    let (up, down) = (gap + (t - gap) / 2, (t - gap) / 2);
                    let diagonal = (t - gap + 1) * (t + 1) < n * band_words(up, down);
                    if diagonal {
                        assert_eq!(pass, Pass::Diagonal, "the cheaper pass");
                    } else {
                        // Wide enough for every alignment of cost t, inside the symmetric band of t.
                        assert_eq!(pass, Pass::Band { up, down });
                        assert!(up <= t && down <= t);
                    }
                    spent += cost(t, gap, n, pass);
                    previous = Some(t);
                }
                assert!(
                    spent <= n * final_words,
                    "m = {m}, gap = {gap}, cap = {cap}: {spent} > {final_words}"
                );
            }
        }
    }

    #[test]
    fn thresholds_deepen_from_the_gap_to_the_cap() {
        let listed: Vec<usize> = thresholds(10, 1_000).collect();
        assert_eq!(listed, [10, 11, 12, 14, 18, 26, 42, 74, 138, 266, 522, 1_000]);
        assert_eq!(thresholds(7, 7).collect::<Vec<_>>(), [7]);
        assert_eq!(thresholds(0, 5).collect::<Vec<_>>(), [0, 1, 2, 4, 5]);
    }

    #[test]
    fn a_first_rung_pair_costs_a_seventh_of_the_symmetric_band() {
        // A pair at most 64 edits past its gap, in a text at least four
        // bands long (CAR's band is a fifth of the reference).
        let grid = schedule_grid().filter(|&(m, gap, band)| gap < 64 && band >= 800 && m + gap >= 4 * band);
        for (m, gap, band) in grid {
            let n = m + gap;
            let final_words = band_words(band, band);
            let settled: Vec<(usize, Pass)> =
                passes(gap, n, band, final_words).take_while(|&(t, _)| t <= gap + 64).collect();
            assert_eq!(settled.last().map(|&(t, _)| t), Some(gap + 64), "affordable");
            let spent: usize = settled.iter().map(|&(t, pass)| cost(t, gap, n, pass)).sum();
            assert!(7 * spent <= n * final_words, "gap = {gap}, band = {band}: {spent}");
        }
    }

    #[test]
    fn band_words_bounds_the_blocks_of_every_column() {
        for (m, gap, band) in schedule_grid().filter(|&(m, ..)| m <= 4_001) {
            for (up, down) in [(band, band), (gap, 0), (gap + band / 2, band / 2), (gap + 1, 62)] {
                for j in 1..=m + gap {
                    let (lo, hi) = band_rows(j, up, down, m);
                    assert!(1 <= lo && lo <= hi && hi <= m, "j = {j}, up = {up}, down = {down}, m = {m}");
                    assert!((hi - 1) / WORD - (lo - 1) / WORD < band_words(up, down));
                }
            }
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
