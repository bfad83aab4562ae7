//! Differential wall between the bit-parallel metric kernels and the scalar
//! dynamic programs they replaced.
//!
//! `reference` below is the implementation the crate shipped before the
//! kernels were made bit-parallel — the row-by-row Levenshtein table, the
//! banded table with every cell outside the band at infinity, the row-by-row LCS,
//! `String`-keyed n-gram counts and the allocate-per-token tokenizer — kept
//! here, and only here, as the oracle. Distances and LCS lengths must be the
//! same integers; every `f64` derived from them must have the same bits.

use proptest::prelude::*;
use textmetrics::bleu::sentence_bleu;
use textmetrics::levenshtein::{
    char_accuracy_rate, diagonal_distance, distance_in_band, edit_distance_banded, edit_distance_chars,
    BANDED_THRESHOLD,
};
use textmetrics::ngram::{ngram_profile, OrderProfile};
use textmetrics::rouge::{lcs_length, rouge_l, ROUGE_L_MAX_TOKENS};
use textmetrics::{QualityReport, ReferenceText};

mod reference {
    use std::collections::HashMap;

    pub fn edit_distance_chars(a: &[char], b: &[char]) -> usize {
        let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
        if short.is_empty() {
            return long.len();
        }
        let mut prev: Vec<usize> = (0..=short.len()).collect();
        let mut curr: Vec<usize> = vec![0; short.len() + 1];
        for (i, &lc) in long.iter().enumerate() {
            curr[0] = i + 1;
            for (j, &sc) in short.iter().enumerate() {
                let cost = usize::from(lc != sc);
                curr[j + 1] = (prev[j] + cost).min(prev[j + 1] + 1).min(curr[j] + 1);
            }
            std::mem::swap(&mut prev, &mut curr);
        }
        prev[short.len()]
    }

    pub fn edit_distance_banded(a: &[char], b: &[char], band: usize) -> usize {
        let n = a.len();
        let m = b.len();
        if n == 0 {
            return m;
        }
        if m == 0 {
            return n;
        }
        if n.abs_diff(m) > band {
            return n.max(m);
        }
        let inf = n + m + 1;
        let mut prev = vec![inf; m + 1];
        let mut curr = vec![inf; m + 1];
        for (j, slot) in prev.iter_mut().enumerate().take(band.min(m) + 1) {
            *slot = j;
        }
        for i in 1..=n {
            let lo = i.saturating_sub(band).max(1);
            let hi = (i + band).min(m);
            curr.iter_mut().for_each(|x| *x = inf);
            if lo == 1 {
                curr[0] = i;
            }
            for j in lo..=hi {
                let cost = usize::from(a[i - 1] != b[j - 1]);
                let mut best = prev[j - 1].saturating_add(cost);
                best = best.min(prev[j].saturating_add(1));
                best = best.min(curr[j - 1].saturating_add(1));
                curr[j] = best;
            }
            std::mem::swap(&mut prev, &mut curr);
        }
        prev[m].min(n.max(m))
    }

    /// The row recurrence over the cells on diagonals `-down..=up` (column
    /// minus row; `text` runs along the columns), every other cell at
    /// infinity.
    pub fn edit_distance_in_band(pattern: &[char], text: &[char], up: usize, down: usize) -> usize {
        let (m, n) = (pattern.len(), text.len());
        let inf = n + m + 1;
        let inside = |i: usize, j: usize| j <= i + up && i <= j + down;
        let mut prev: Vec<usize> = (0..=m).map(|i| if inside(i, 0) { i } else { inf }).collect();
        let mut curr = vec![inf; m + 1];
        for j in 1..=n {
            curr[0] = if inside(0, j) { j } else { inf };
            for i in 1..=m {
                let cost = usize::from(pattern[i - 1] != text[j - 1]);
                let best = (prev[i - 1] + cost).min(prev[i] + 1).min(curr[i - 1] + 1);
                curr[i] = if inside(i, j) { best.min(inf) } else { inf };
            }
            std::mem::swap(&mut prev, &mut curr);
        }
        prev[m]
    }

    fn normalize_whitespace(text: &str) -> String {
        let mut out = String::with_capacity(text.len());
        let mut last_was_space = true;
        for ch in text.chars() {
            if ch.is_whitespace() {
                if !last_was_space {
                    out.push(' ');
                    last_was_space = true;
                }
            } else {
                out.push(ch);
                last_was_space = false;
            }
        }
        if out.ends_with(' ') {
            out.pop();
        }
        out
    }

    pub fn char_accuracy_rate(candidate: &str, reference: &str) -> f64 {
        let cand: Vec<char> = normalize_whitespace(candidate).chars().collect();
        let refr: Vec<char> = normalize_whitespace(reference).chars().collect();
        let denom = cand.len().max(refr.len());
        if denom == 0 {
            return 1.0;
        }
        let d = if denom > super::BANDED_THRESHOLD {
            let band = (refr.len() / 5).max(64);
            edit_distance_banded(&cand, &refr, band)
        } else {
            edit_distance_chars(&cand, &refr)
        };
        (1.0 - d as f64 / denom as f64).clamp(0.0, 1.0)
    }

    pub fn tokenize_words(text: &str) -> Vec<String> {
        let mut tokens = Vec::new();
        let mut current = String::new();
        for ch in text.chars() {
            if ch.is_alphanumeric() {
                for lc in ch.to_lowercase() {
                    current.push(lc);
                }
            } else if !current.is_empty() {
                tokens.push(std::mem::take(&mut current));
            }
        }
        if !current.is_empty() {
            tokens.push(current);
        }
        tokens
    }

    pub fn lcs_length(a: &[String], b: &[String]) -> usize {
        let (short, long) = if a.len() <= b.len() { (a, b) } else { (b, a) };
        if short.is_empty() {
            return 0;
        }
        let mut prev = vec![0usize; short.len() + 1];
        let mut curr = vec![0usize; short.len() + 1];
        for lc in long {
            for (j, sc) in short.iter().enumerate() {
                curr[j + 1] = if lc == sc { prev[j] + 1 } else { prev[j + 1].max(curr[j]) };
            }
            std::mem::swap(&mut prev, &mut curr);
            curr[0] = 0;
        }
        prev[short.len()]
    }

    pub fn rouge_l_f1(candidate: &str, reference: &str) -> f64 {
        let mut cand = tokenize_words(candidate);
        let mut refr = tokenize_words(reference);
        if cand.is_empty() && refr.is_empty() {
            return 1.0;
        }
        cand.truncate(super::ROUGE_L_MAX_TOKENS);
        refr.truncate(super::ROUGE_L_MAX_TOKENS);
        let overlap = lcs_length(&cand, &refr) as f64;
        let (cand_total, ref_total) = (cand.len() as f64, refr.len() as f64);
        let precision = if cand_total > 0.0 { overlap / cand_total } else { 0.0 };
        let recall = if ref_total > 0.0 { overlap / ref_total } else { 0.0 };
        if precision + recall > 0.0 {
            2.0 * precision * recall / (precision + recall)
        } else {
            0.0
        }
    }

    fn ngram_counts(tokens: &[String], order: usize) -> (HashMap<String, usize>, usize) {
        let mut counts = HashMap::new();
        let mut total = 0;
        if tokens.len() >= order {
            for window in tokens.windows(order) {
                *counts.entry(window.join("\u{1}")).or_insert(0) += 1;
                total += 1;
            }
        }
        (counts, total)
    }

    /// BLEU-4 with the smoothing of `1e-2`.
    pub fn sentence_bleu(candidate: &str, reference: &str) -> f64 {
        let cand = tokenize_words(candidate);
        let refr = tokenize_words(reference);
        if cand.is_empty() || refr.is_empty() {
            return if cand.is_empty() && refr.is_empty() { 1.0 } else { 0.0 };
        }
        let mut log_sum = 0.0f64;
        let mut usable_orders = 0usize;
        for order in 1..=4 {
            let (c, total) = ngram_counts(&cand, order);
            let (r, _) = ngram_counts(&refr, order);
            let matches: usize = c.iter().map(|(k, &n)| n.min(r.get(k).copied().unwrap_or(0))).sum();
            if total == 0 {
                continue;
            }
            let p = if matches == 0 { 1e-2 / total as f64 } else { matches as f64 / total as f64 };
            log_sum += p.max(f64::MIN_POSITIVE).ln();
            usable_orders += 1;
        }
        let geo_mean = if usable_orders == 0 { 0.0 } else { (log_sum / usable_orders as f64).exp() };
        let brevity_penalty =
            if cand.len() >= refr.len() { 1.0 } else { (1.0 - refr.len() as f64 / cand.len() as f64).exp() };
        (geo_mean * brevity_penalty).clamp(0.0, 1.0)
    }
}

/// xorshift64*: the tests need repeatable inputs, not good randomness.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 >> 12;
        self.0 ^= self.0 << 25;
        self.0 ^= self.0 >> 27;
        self.0.wrapping_mul(0x2545_F491_4F6C_DD1D)
    }

    fn below(&mut self, n: usize) -> usize {
        (self.next() % n as u64) as usize
    }
}

/// Alphabets of 2, 26 and over 200 symbols; the last spans ASCII, Latin-1,
/// Greek, Cyrillic, CJK and non-BMP letters (all alphanumeric, some with a
/// multi-character lower case such as 'İ').
fn alphabets() -> Vec<Vec<char>> {
    let wide: Vec<char> = ('A'..='Z')
        .chain('a'..='z')
        .chain('À'..='Ö')
        .chain('Α'..='Ρ')
        .chain('а'..='я')
        .chain('一'..='丟')
        .chain('𝐀'..='𝐙')
        .chain('𠀀'..='𠀟')
        .chain(['İ', 'ß', 'ǅ', 'Σ'])
        .collect();
    assert!(wide.len() > 128 && wide.iter().any(|&c| c as u32 > 0xFFFF));
    vec![vec!['a', 'b'], ('a'..='z').collect(), wide]
}

fn random_chars(rng: &mut Rng, alphabet: &[char], len: usize) -> Vec<char> {
    (0..len).map(|_| alphabet[rng.below(alphabet.len())]).collect()
}

/// `text` after `edits` random substitutions, insertions and deletions.
fn mutate(rng: &mut Rng, alphabet: &[char], text: &[char], edits: usize) -> Vec<char> {
    let mut out = text.to_vec();
    for _ in 0..edits {
        let symbol = alphabet[rng.below(alphabet.len())];
        let at = rng.below(out.len() + 1);
        match rng.below(3) {
            0 if at < out.len() => out[at] = symbol,
            1 if at < out.len() => {
                out.remove(at);
            }
            _ => out.insert(at, symbol),
        }
    }
    out
}

/// Words of one to three symbols separated by spaces, newlines and
/// punctuation.
fn random_words(rng: &mut Rng, alphabet: &[char], words: usize) -> String {
    let mut text = String::new();
    for _ in 0..words {
        for _ in 0..=rng.below(3) {
            text.push(alphabet[rng.below(alphabet.len())]);
        }
        text.push_str([" ", "  ", "\n", ", ", " - "][rng.below(5)]);
    }
    text
}

/// `text` with roughly one word in `one_in` dropped, doubled or replaced.
fn mutate_words(rng: &mut Rng, alphabet: &[char], text: &str, one_in: usize) -> String {
    let mut out = String::new();
    for word in text.split(' ') {
        match rng.below(one_in * 3) {
            0 => {}
            1 => out.push_str(&format!("{word} {word} ")),
            2 => out.push_str(&random_words(rng, alphabet, 1)),
            _ => {
                out.push_str(word);
                out.push(' ');
            }
        }
    }
    out
}

const BLOCK_EDGE_LENGTHS: [usize; 8] = [0, 1, 63, 64, 65, 127, 128, 129];

fn assert_distance_matches(a: &[char], b: &[char]) {
    let expected = reference::edit_distance_chars(a, b);
    assert_eq!(edit_distance_chars(a, b), expected, "|a| = {}, |b| = {}", a.len(), b.len());
    assert_eq!(edit_distance_chars(b, a), expected, "swapped, |a| = {}, |b| = {}", a.len(), b.len());
}

fn assert_metrics_match(candidate: &str, reference: &str) {
    for (c, r) in [(candidate, reference), (reference, candidate)] {
        assert_eq!(char_accuracy_rate(c, r).to_bits(), reference::char_accuracy_rate(c, r).to_bits(), "CAR");
        assert_eq!(rouge_l(c, r).f1.to_bits(), reference::rouge_l_f1(c, r).to_bits(), "ROUGE-L");
        assert_eq!(sentence_bleu(c, r).to_bits(), reference::sentence_bleu(c, r).to_bits(), "BLEU");
        let report = QualityReport::compute(c, r, 0.75);
        assert_eq!(report.bleu.to_bits(), sentence_bleu(c, r).to_bits());
        assert_eq!(report.rouge.to_bits(), rouge_l(c, r).f1.to_bits());
        assert_eq!(report.car.to_bits(), char_accuracy_rate(c, r).to_bits());
        assert_eq!(report.coverage, 0.75);
        assert_eq!(ReferenceText::new(r).score(c, 0.75), report);
    }
}

#[test]
fn edit_distance_matches_scalar_at_block_edges() {
    let mut rng = Rng(0x5EED_0001);
    for alphabet in alphabets() {
        for &n in &BLOCK_EDGE_LENGTHS {
            for &m in &BLOCK_EDGE_LENGTHS {
                let a = random_chars(&mut rng, &alphabet, n);
                assert_distance_matches(&a, &random_chars(&mut rng, &alphabet, m));
                // A near copy of the same length class: few edits, long runs of matches.
                let near = mutate(&mut rng, &alphabet, &a, 1 + n / 16);
                assert_distance_matches(&a, &near);
            }
        }
    }
}

#[test]
fn edit_distance_matches_scalar_on_random_lengths() {
    let mut rng = Rng(0x5EED_0002);
    for alphabet in alphabets() {
        for _ in 0..40 {
            let (n, edits) = (rng.below(700), rng.below(60));
            let a = random_chars(&mut rng, &alphabet, n);
            assert_distance_matches(&a, &mutate(&mut rng, &alphabet, &a, edits));
            let m = rng.below(700);
            assert_distance_matches(&a, &random_chars(&mut rng, &alphabet, m));
        }
    }
    // All-equal and all-different columns: the carry runs through every block.
    let same = vec!['x'; 300];
    assert_distance_matches(&same, &same[..257]);
    assert_distance_matches(&same, &vec!['y'; 300]);
}

fn assert_banded_matches(a: &[char], b: &[char], band: usize) {
    for (x, y) in [(a, b), (b, a)] {
        assert_eq!(
            edit_distance_banded(x, y, band),
            reference::edit_distance_banded(x, y, band),
            "|x| = {}, |y| = {}, band = {band}",
            x.len(),
            y.len()
        );
    }
}

#[test]
fn banded_distance_matches_the_scalar_band_on_random_lengths() {
    let mut rng = Rng(0x5EED_0003);
    for alphabet in alphabets() {
        for _ in 0..30 {
            let (n, edits) = (rng.below(400), rng.below(80));
            let a = random_chars(&mut rng, &alphabet, n);
            let near = mutate(&mut rng, &alphabet, &a, edits);
            let m = rng.below(400);
            let far = random_chars(&mut rng, &alphabet, m);
            for band in [0, 1, 2, 7, 63, 64, 65, 1000] {
                assert_banded_matches(&a, &near, band);
                assert_banded_matches(&a, &far, band);
            }
        }
    }
}

/// The band's two edges cross a block boundary at every combination of
/// offsets, with the length gap at and around the band.
#[test]
fn banded_distance_matches_the_scalar_band_at_block_edges() {
    let mut rng = Rng(0x5EED_000A);
    for alphabet in alphabets() {
        for &n in &BLOCK_EDGE_LENGTHS {
            let a = random_chars(&mut rng, &alphabet, n);
            for band in [0, 1, 2, 31, 62, 63, 64, 65, 66, 127, 128, 129] {
                for m in [n, n + 1, n + band / 2, n + band, n + band + 1] {
                    assert_banded_matches(&a, &random_chars(&mut rng, &alphabet, m), band);
                }
                assert_banded_matches(&a, &mutate(&mut rng, &alphabet, &a, 1 + n / 16), band);
            }
        }
    }
}

/// A block of text moved from the front to the back: the cheapest alignment
/// follows a diagonal `shift` off the main one, so a band narrower than the
/// shift has to pay for a worse one and the banded distance exceeds the
/// exact distance.
#[test]
fn banded_distance_matches_the_scalar_band_when_the_best_alignment_leaves_it() {
    let mut rng = Rng(0x5EED_000B);
    for alphabet in alphabets().into_iter().skip(1) {
        for (len, shift) in [(300, 40), (700, 130), (1500, 200)] {
            let body = random_chars(&mut rng, &alphabet, len);
            let moved = random_chars(&mut rng, &alphabet, shift);
            let a = [&moved[..], &body[..]].concat();
            let b = [&body[..], &moved[..]].concat();
            let exact = reference::edit_distance_chars(&a, &b);
            assert!(reference::edit_distance_banded(&a, &b, shift / 2) > exact);
            for band in [shift / 2, shift - 1, shift, shift + 1, 2 * shift, exact, exact + 1] {
                assert_banded_matches(&a, &b, band);
                assert_banded_matches(&a, &mutate(&mut rng, &alphabet, &b, 25), band);
            }
        }
    }
}

#[test]
fn lcs_matches_scalar_at_block_edges_and_random_lengths() {
    let mut rng = Rng(0x5EED_0004);
    let token = |rng: &mut Rng, alphabet: &[char]| -> String {
        (0..=rng.below(2)).map(|_| alphabet[rng.below(alphabet.len())]).collect()
    };
    for alphabet in alphabets() {
        let mut lengths: Vec<(usize, usize)> =
            BLOCK_EDGE_LENGTHS.iter().flat_map(|&n| BLOCK_EDGE_LENGTHS.map(|m| (n, m))).collect();
        lengths.extend((0..20).map(|_| (rng.below(500), rng.below(500))));
        for (n, m) in lengths {
            let a: Vec<String> = (0..n).map(|_| token(&mut rng, &alphabet)).collect();
            let b: Vec<String> = (0..m).map(|_| token(&mut rng, &alphabet)).collect();
            let expected = reference::lcs_length(&a, &b);
            assert_eq!(lcs_length(&a, &b), expected, "n = {n}, m = {m}");
            assert_eq!(lcs_length(&b, &a), expected, "swapped, n = {n}, m = {m}");
        }
    }
}

/// Token sequences from no to a few hundred edits apart, with and without a
/// dropped block (a wide length gap), on either side of the budget of the
/// diagonal search ROUGE-L's LCS tries first: the LCS is the oracle's
/// either way, and a token only one side holds, however often, matches
/// nothing.
#[test]
fn lcs_is_exact_on_either_side_of_the_diagonal_search_budget() {
    let mut rng = Rng(0x5EED_0013);
    let words: Vec<String> = (0..60).map(|i| format!("w{i}")).collect();
    for len in [1usize, 63, 64, 65, 300, 900, 2_000] {
        let a: Vec<String> = (0..len).map(|_| words[rng.below(words.len())].clone()).collect();
        for edits in [0usize, 1, 2, 5, 10, 20, 40, 80, 160, 400] {
            for dropped in [0, len / 4] {
                let mut b = a.clone();
                let at = rng.below(len - dropped + 1);
                b.drain(at..at + dropped);
                for _ in 0..edits {
                    let word = match rng.below(4) {
                        0 => format!("x{}", rng.below(8)),
                        _ => words[rng.below(words.len())].clone(),
                    };
                    let at = rng.below(b.len() + 1);
                    match rng.below(3) {
                        0 if at < b.len() => b[at] = word,
                        1 if at < b.len() => {
                            b.remove(at);
                        }
                        _ => b.insert(at, word),
                    }
                }
                let expected = reference::lcs_length(&a, &b);
                assert_eq!(lcs_length(&a, &b), expected, "len = {len}, edits = {edits}, dropped = {dropped}");
                assert_eq!(lcs_length(&b, &a), expected, "swapped, len = {len}, edits = {edits}");
            }
        }
    }
}

#[test]
fn metrics_are_bit_equal_on_short_and_medium_texts() {
    let mut rng = Rng(0x5EED_0005);
    assert_metrics_match("", "");
    assert_metrics_match("", "one two three");
    assert_metrics_match(" \n ", "İstanbul ΣΟΦΟΣ straße");
    for alphabet in alphabets() {
        for words in [1, 3, 4, 5, 40, 400] {
            let reference = random_words(&mut rng, &alphabet, words);
            assert_metrics_match(&mutate_words(&mut rng, &alphabet, &reference, 8), &reference);
            assert_metrics_match(&random_words(&mut rng, &alphabet, words), &reference);
        }
    }
}

#[test]
fn car_is_bit_equal_straddling_the_banded_threshold() {
    let mut rng = Rng(0x5EED_0006);
    for alphabet in alphabets() {
        let base = random_chars(&mut rng, &alphabet, BANDED_THRESHOLD + 1);
        for n in [BANDED_THRESHOLD - 1, BANDED_THRESHOLD, BANDED_THRESHOLD + 1] {
            for m in [BANDED_THRESHOLD - 1, BANDED_THRESHOLD, BANDED_THRESHOLD + 1] {
                // Substitutions only, so the lengths stay exactly n and m.
                let mut candidate = base[..n].to_vec();
                for _ in 0..50 {
                    let at = rng.below(n);
                    candidate[at] = alphabet[rng.below(alphabet.len())];
                }
                let candidate: String = candidate.into_iter().collect();
                let reference: String = base[..m].iter().collect();
                assert_eq!(
                    char_accuracy_rate(&candidate, &reference).to_bits(),
                    reference::char_accuracy_rate(&candidate, &reference).to_bits(),
                    "n = {n}, m = {m}"
                );
            }
        }
    }
}

/// Above the threshold a pair falls in one of three regimes; build each on
/// purpose and check which one it is before comparing.
#[test]
fn car_is_bit_equal_in_the_three_long_input_regimes() {
    let mut rng = Rng(0x5EED_0007);
    for alphabet in alphabets() {
        let reference = random_chars(&mut rng, &alphabet, 5_000);
        let band = reference.len() / 5;

        // 1. Length gap over the band: the cliff, exactly zero.
        let truncated = &reference[..reference.len() - band - 1];
        // 2. Distance within the band: the exact distance is the banded one.
        let near = mutate(&mut rng, &alphabet, &reference, 300);
        assert!(near.len().abs_diff(reference.len()) <= band);
        assert!(reference::edit_distance_chars(&near, &reference) <= band);
        // 3. Lengths within the band, distance beyond it: the banded table runs.
        let far = random_chars(&mut rng, &alphabet, 4_600);
        assert!(reference::edit_distance_chars(&far, &reference) > band);

        let reference: String = reference.iter().collect();
        for candidate in [truncated, &near, &far] {
            let candidate: String = candidate.iter().collect();
            for (c, r) in [(&candidate, &reference), (&reference, &candidate)] {
                assert_eq!(
                    char_accuracy_rate(c, r).to_bits(),
                    reference::char_accuracy_rate(c, r).to_bits(),
                    "|c| = {}, |r| = {}",
                    c.chars().count(),
                    r.chars().count()
                );
            }
        }
        let truncated: String = truncated.iter().collect();
        assert_eq!(char_accuracy_rate(&truncated, &reference), 0.0);
    }
}

#[test]
fn word_metrics_are_bit_equal_straddling_the_rouge_token_cap() {
    let mut rng = Rng(0x5EED_0008);
    let alphabet = &alphabets()[1];
    let base = random_words(&mut rng, alphabet, ROUGE_L_MAX_TOKENS + 1);
    let words: Vec<&str> = base.split_whitespace().filter(|w| w.chars().any(char::is_alphanumeric)).collect();
    assert_eq!(reference::tokenize_words(&base).len(), ROUGE_L_MAX_TOKENS + 1);
    for n in [ROUGE_L_MAX_TOKENS - 1, ROUGE_L_MAX_TOKENS, ROUGE_L_MAX_TOKENS + 1] {
        let reference = words[..n].join(" ");
        let candidate = mutate_words(&mut rng, alphabet, &reference, 10);
        for (c, r) in [(&candidate, &reference), (&reference, &candidate)] {
            assert_eq!(rouge_l(c, r).f1.to_bits(), reference::rouge_l_f1(c, r).to_bits(), "n = {n}");
            assert_eq!(sentence_bleu(c, r).to_bits(), reference::sentence_bleu(c, r).to_bits(), "n = {n}");
        }
    }
}

#[test]
fn quality_report_is_bit_equal_on_a_multi_page_document() {
    let mut rng = Rng(0x5EED_0009);
    let alphabet = &alphabets()[2];
    let reference = random_words(&mut rng, alphabet, 3_500);
    assert!(reference.chars().count() > BANDED_THRESHOLD);
    assert_metrics_match(&mutate_words(&mut rng, alphabet, &reference, 12), &reference);
}

/// The band kernel on its own against the row recurrence confined to the
/// same diagonals: every shape the rungs use (`up` = gap + p, `down` = p,
/// down to p = 0) and lopsided ones, with the edges crossing block
/// boundaries, on near copies and on unrelated texts (where the confined
/// cost exceeds the exact distance).
#[test]
fn band_kernel_matches_the_scalar_recurrence_on_the_same_diagonals() {
    let mut rng = Rng(0x5EED_000C);
    let check = |pattern: &[char], text: &[char], up: usize, down: usize| {
        assert_eq!(
            distance_in_band(pattern, text, up, down),
            reference::edit_distance_in_band(pattern, text, up, down),
            "m = {}, n = {}, up = {up}, down = {down}",
            pattern.len(),
            text.len()
        );
    };
    for alphabet in alphabets() {
        let mut lengths: Vec<(usize, usize)> =
            BLOCK_EDGE_LENGTHS[1..].iter().flat_map(|&m| [0, 1, 2, 63, 64, 65].map(|gap| (m, gap))).collect();
        lengths.extend((0..12).map(|_| (1 + rng.below(400), rng.below(90))));
        for (m, gap) in lengths {
            let pattern = random_chars(&mut rng, &alphabet, m);
            // Exactly `gap` longer: substitutions, then insertions.
            let mut near = pattern.clone();
            for _ in 0..m / 10 {
                let at = rng.below(m);
                near[at] = alphabet[rng.below(alphabet.len())];
            }
            for _ in 0..gap {
                near.insert(rng.below(near.len() + 1), alphabet[rng.below(alphabet.len())]);
            }
            let far = random_chars(&mut rng, &alphabet, m + gap);
            for p in [0, 1, 31, 32, 62, 63, 64, 65, 127, 128, 129] {
                for (up, down) in [(gap + p, p), (gap + p, 0), (gap, p), (gap + 2 * p + 1, p / 2)] {
                    check(&pattern, &near, up, down);
                    check(&pattern, &far, up, down);
                }
            }
        }
    }
    // Up = down = band is the symmetric oracle the file started with.
    let (a, b) = (random_chars(&mut rng, &['a', 'b'], 150), random_chars(&mut rng, &['a', 'b'], 170));
    for band in [20, 21, 64, 200] {
        assert_eq!(
            reference::edit_distance_in_band(&a, &b, band, band),
            reference::edit_distance_banded(&a, &b, band)
        );
    }
}

/// A pair whose exact distance and alignment are known by construction:
/// `gap + 2·detour + substitutions`, the cheapest alignment leaving the main
/// diagonal by `detour` on one side (`low_side`) or by `gap + detour` on the
/// other. `#`, `%` and `@` occur in no alphabet, so each costs one edit.
fn detour_pair(
    rng: &mut Rng,
    alphabet: &[char],
    body: usize,
    gap: usize,
    detour: usize,
    substitutions: usize,
    low_side: bool,
) -> (Vec<char>, Vec<char>) {
    let shared = random_chars(rng, alphabet, body);
    let mut edited = shared.clone();
    for k in 0..substitutions {
        edited[(k + 1) * body / (substitutions + 1)] = '@';
    }
    let (only_pattern, only_text) = (vec!['#'; detour], vec!['%'; gap + detour]);
    if low_side {
        ([only_pattern, shared].concat(), [edited, only_text].concat())
    } else {
        ([shared, only_pattern].concat(), [only_text, edited].concat())
    }
}

/// Distances at, one over and two over a rung's threshold, alignments that
/// run along a rung's outermost diagonal or one beyond it, length gaps at
/// the first rung, and the band at and around all of them.
#[test]
fn distances_are_exact_at_every_rung_boundary() {
    let mut rng = Rng(0x5EED_000D);
    let alphabet = &alphabets()[2];
    // (length gap, threshold of the rung under test): first rungs at
    // gap + 64, second ones at four times that.
    for (gap, t) in
        [(0usize, 64usize), (1, 65), (30, 94), (63, 127), (64, 128), (65, 129), (0, 256), (7, 284), (20, 336)]
    {
        let reach = (t - gap) / 2; // `t − gap` is odd for some of these
        for (detour, substitutions) in [
            (0, t - gap),                 // d = t on the main diagonals
            (0, t - gap + 1),             // d = t + 1
            (reach, (t - gap) % 2),       // d = t along the rung's edge
            (reach, (t - gap) % 2 + 1),   // d = t + 1 along the rung's edge
            (reach + 1, 0),               // one diagonal beyond the rung
            (reach.saturating_sub(1), 2), // inside it
        ] {
            for low_side in [true, false] {
                let (pattern, text) =
                    detour_pair(&mut rng, alphabet, 500, gap, detour, substitutions, low_side);
                let exact = gap + 2 * detour + substitutions;
                assert_eq!(reference::edit_distance_chars(&pattern, &text), exact, "the construction");
                assert_eq!(
                    edit_distance_chars(&pattern, &text),
                    exact,
                    "gap = {gap}, t = {t}, detour = {detour}"
                );
                assert_eq!(edit_distance_chars(&text, &pattern), exact);
                for band in
                    [gap.saturating_sub(1), gap, gap + 1, t - 1, t, t + 1, exact - 1, exact, exact + 1, 4 * t]
                {
                    assert_banded_matches(&pattern, &text, band);
                }
            }
        }
    }
    // A rung that must refuse a result over its threshold. Gap 1: the second
    // rung is t = 260, reaching 129 diagonals below the main one; the
    // cheapest alignment (261 = t + 1) needs 130, and the cheapest one inside
    // the rung costs 262 — an upper bound, not the distance.
    let pattern: Vec<char> = "#".repeat(130).chars().chain("a".repeat(999).chars()).chain(['b']).collect();
    let text: Vec<char> = "a".repeat(999).chars().chain(['b']).chain("%".repeat(131).chars()).collect();
    assert_eq!(reference::edit_distance_chars(&pattern, &text), 261, "the construction");
    assert_eq!(reference::edit_distance_in_band(&pattern, &text, 130, 129), 262, "the construction");
    assert_eq!(distance_in_band(&pattern, &text, 130, 129), 262);
    assert_eq!(edit_distance_chars(&pattern, &text), 261);
    for band in [260, 261, 262, 1_000] {
        assert_banded_matches(&pattern, &text, band);
    }

    // One-block patterns: the first rung already spans every row.
    for m in [1, 2, 63, 64] {
        let a = random_chars(&mut rng, alphabet, m);
        for n in [m, m + 1, m + 64, m + 200] {
            let b = random_chars(&mut rng, alphabet, n);
            assert_distance_matches(&a, &b);
            assert_banded_matches(&a, &b, 64);
            assert_banded_matches(&a, &b, b.len());
        }
    }
}

/// A moved block wider than the band, in a text long enough for three rungs
/// to run and fail before the symmetric band does: the result is the band's
/// own value, above the exact distance.
#[test]
fn a_pair_that_fails_every_rung_gets_the_symmetric_bands_value() {
    let mut rng = Rng(0x5EED_000E);
    let alphabet = &alphabets()[1];
    let (body, moved) = (random_chars(&mut rng, alphabet, 3_000), random_chars(&mut rng, alphabet, 700));
    let a = [&moved[..], &body[..]].concat();
    let b = [&body[..], &moved[..]].concat();
    let exact = reference::edit_distance_chars(&a, &b);
    assert_eq!(edit_distance_chars(&a, &b), exact);
    for band in [600, 650, 699] {
        let banded = reference::edit_distance_banded(&a, &b, band);
        assert!(banded > exact && exact > band, "band = {band}: {banded} vs {exact}");
        assert_eq!(edit_distance_banded(&a, &b, band), banded);
        assert_eq!(edit_distance_banded(&b, &a, band), banded);
    }
    assert_eq!(edit_distance_banded(&a, &b, exact), exact);
}

/// The diagonal pass at the first rung's threshold `t1 = gap + 64`: it
/// returns the exact distance up to `t1` and nothing above, with the
/// cheapest alignment on the main diagonals, along the outermost one the
/// threshold allows, or one beyond it.
#[test]
fn the_diagonal_pass_is_exact_up_to_the_first_threshold() {
    let mut rng = Rng(0x5EED_0011);
    let alphabet = &alphabets()[2]; // multi-byte and non-BMP characters
    for gap in [0usize, 1, 63, 64, 65] {
        let t1 = gap + 64;
        for (detour, substitutions) in [(0, 63), (0, 64), (0, 65), (31, 1), (32, 0), (32, 1), (33, 0)] {
            for low_side in [true, false] {
                let (pattern, text) =
                    detour_pair(&mut rng, alphabet, 700, gap, detour, substitutions, low_side);
                let exact = gap + 2 * detour + substitutions;
                assert_eq!(reference::edit_distance_chars(&pattern, &text), exact, "the construction");
                let settled = (exact <= t1).then_some(exact);
                assert_eq!(diagonal_distance(&pattern, &text, t1), settled, "gap = {gap}, d = {exact}");
                assert_eq!(edit_distance_chars(&pattern, &text), exact);
                assert_eq!(edit_distance_chars(&text, &pattern), exact);
                for band in [gap, t1 - 1, t1, t1 + 1, exact] {
                    assert_banded_matches(&pattern, &text, band);
                }
            }
        }
    }
    // An empty side costs the other side's length, the gap itself.
    let text = random_chars(&mut rng, alphabet, 70);
    for t in [70, 71, 200] {
        assert_eq!(diagonal_distance(&[], &text, t), Some(70), "t = {t}");
    }
    assert_eq!(diagonal_distance(&[], &[], 0), Some(0));
    assert_distance_matches(&[], &text);
    assert_banded_matches(&[], &text, 70);
    // Unrelated texts: nothing within the threshold.
    let (a, b) = (random_chars(&mut rng, alphabet, 900), random_chars(&mut rng, alphabet, 910));
    assert_eq!(diagonal_distance(&a, &b, 74), None);
    assert_distance_matches(&a, &b);
}

/// Above [`BANDED_THRESHOLD`], one pair the diagonal pass settles and one
/// it leaves to the rungs: CAR has the oracle's bits either way.
#[test]
fn car_above_the_threshold_is_bit_equal_whether_or_not_the_diagonal_pass_settles() {
    let mut rng = Rng(0x5EED_0012);
    for alphabet in alphabets() {
        let reference = random_chars(&mut rng, &alphabet, 6_000);
        for (edits, settles) in [(20, true), (400, false)] {
            let candidate = mutate(&mut rng, &alphabet, &reference, edits);
            let (pattern, text) = if candidate.len() <= reference.len() {
                (&candidate, &reference)
            } else {
                (&reference, &candidate)
            };
            let t1 = (text.len() - pattern.len() + 64).min(reference.len() / 5);
            assert_eq!(diagonal_distance(pattern, text, t1).is_some(), settles, "edits = {edits}");
            let (candidate, reference): (String, String) =
                (candidate.iter().collect(), reference.iter().collect());
            for (c, r) in [(&candidate, &reference), (&reference, &candidate)] {
                assert_eq!(char_accuracy_rate(c, r).to_bits(), reference::char_accuracy_rate(c, r).to_bits());
                assert_eq!(
                    ReferenceText::new(r).score(c, 1.0).car.to_bits(),
                    char_accuracy_rate(c, r).to_bits()
                );
            }
        }
    }
}

/// Every ASCII whitespace `char::is_whitespace` knows (`\x0B` included,
/// which `u8::is_ascii_whitespace` is not), two non-ASCII ones, 'İ' (whose
/// lower case is two characters) and both cases.
fn whitespace_mix() -> impl Strategy<Value = String> {
    "[aAbB9İé \t\n\r\x0B\x0C\u{85}\u{a0}.,]{0,60}"
}

// One walk per text scores like the allocate-per-token tokenizer and the
// separate whitespace normalizer.
proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn scoring_matches_the_oracle_on_every_kind_of_whitespace(
        candidate in whitespace_mix(),
        reference in whitespace_mix(),
    ) {
        let (report, tokens) = ReferenceText::new(&reference).score_counting(&candidate, 1.0);
        prop_assert_eq!(report.bleu.to_bits(), reference::sentence_bleu(&candidate, &reference).to_bits());
        prop_assert_eq!(report.rouge.to_bits(), reference::rouge_l_f1(&candidate, &reference).to_bits());
        prop_assert_eq!(report.car.to_bits(), reference::char_accuracy_rate(&candidate, &reference).to_bits());
        prop_assert_eq!(tokens, reference::tokenize_words(&candidate).len());
    }
}

#[test]
fn a_vertical_tab_is_whitespace() {
    let report = ReferenceText::new("a b").score("a\x0Bb", 1.0);
    assert_eq!(report.car, 1.0);
    assert_eq!(report.car.to_bits(), reference::char_accuracy_rate("a\x0Bb", "a b").to_bits());
}

fn assert_bleu_matches(candidate: &str, reference: &str) {
    assert_eq!(
        sentence_bleu(candidate, reference).to_bits(),
        reference::sentence_bleu(candidate, reference).to_bits(),
        "candidate = {candidate:?}, reference = {reference:?}"
    );
}

#[test]
fn bleu_is_bit_equal_on_repeats_unknown_tokens_and_short_candidates() {
    let reference = "a b a b c a b a b d e f g a b a b";
    // Repeated n-grams, clipped from either side.
    assert_bleu_matches("a b a b a b a b a b a b a b a b a b a b", reference);
    assert_bleu_matches("a b", reference);
    assert_bleu_matches(reference, "a b a b");
    assert_bleu_matches("a a a a a a", "a a a");
    // Nothing but tokens the reference lacks.
    assert_bleu_matches("x y z w x y z w", reference);
    // One unknown token in each position of a four-token window, and at both ends.
    for at in 0..8 {
        let mut tokens: Vec<&str> = reference.split(' ').collect();
        tokens[at] = "x";
        assert_bleu_matches(&tokens.join(" "), reference);
        tokens.insert(at, "y");
        assert_bleu_matches(&tokens.join(" "), reference);
    }
    assert_bleu_matches("a b a b c a b a b d e f g a b a x", reference);
    // Candidates and references shorter than the order.
    for short in ["", "a", "a b", "a b a", "g a b a b", "x", "x y z"] {
        assert_bleu_matches(short, reference);
        assert_bleu_matches(reference, short);
    }
    let mut rng = Rng(0x5EED_000F);
    for alphabet in alphabets() {
        let reference = random_words(&mut rng, &alphabet, 300);
        assert_bleu_matches(&mutate_words(&mut rng, &alphabet, &reference, 6), &reference);
        assert_bleu_matches(&random_words(&mut rng, &alphabet, 200), &reference);
    }
}

/// One prepared reference scores six different candidates in a row, each as
/// if it were the only one.
#[test]
fn a_reference_text_carries_nothing_from_one_candidate_to_the_next() {
    let mut rng = Rng(0x5EED_0010);
    let alphabet = &alphabets()[1];
    let text = random_words(&mut rng, alphabet, 900);
    assert!(text.chars().count() < BANDED_THRESHOLD);
    let long = random_words(&mut rng, alphabet, 2_500);
    assert!(long.chars().count() > BANDED_THRESHOLD);
    for text in [text, long] {
        let candidates = [
            mutate_words(&mut rng, alphabet, &text, 40),
            random_words(&mut rng, alphabet, 800),
            String::new(),
            text.clone(),
            mutate_words(&mut rng, alphabet, &text, 3),
            text[..text.len() / 2].to_string(),
        ];
        let reference = ReferenceText::new(&text);
        for _ in 0..2 {
            for candidate in &candidates {
                let report = reference.score(candidate, 0.5);
                assert_eq!(report, QualityReport::compute(candidate, &text, 0.5));
                assert_eq!(report.bleu.to_bits(), reference::sentence_bleu(candidate, &text).to_bits());
                assert_eq!(report.car.to_bits(), reference::char_accuracy_rate(candidate, &text).to_bits());
            }
        }
    }
}

fn assert_bleu_only_matches(candidate: &str, reference: &str) {
    let prepared = ReferenceText::new(reference);
    let bleu = prepared.bleu(candidate).to_bits();
    let context = format!("candidate = {candidate:?}, reference = {reference:?}");
    assert_eq!(bleu, prepared.score(candidate, 0.5).bleu.to_bits(), "score: {context}");
    assert_eq!(bleu, sentence_bleu(candidate, reference).to_bits(), "sentence_bleu: {context}");
}

/// `ReferenceText::bleu` is the BLEU field of a full score, and of
/// `sentence_bleu`, by bits — labelling keeps only that field.
#[test]
fn bleu_alone_is_the_bleu_of_a_full_score() {
    let mut rng = Rng(0x5EED_0011);
    let mut texts = vec![
        String::new(),
        " ".to_string(),
        " \n\t\x0B\x0C\r \u{85}\u{a0}".to_string(),
        "a".to_string(),
        "the cat sat on the mat".to_string(),
        "İstanbul straße ǅemal ΣΟΦΙΑ привет 一丁 𝐀𝐁 𠀀".to_string(),
        "é\u{a0}é\u{85}İ, 9.".to_string(),
    ];
    for alphabet in alphabets() {
        let text = random_words(&mut rng, &alphabet, 200);
        texts.push(mutate_words(&mut rng, &alphabet, &text, 12));
        texts.push(text);
    }
    for candidate in &texts {
        for reference in &texts {
            assert_bleu_only_matches(candidate, reference);
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn bleu_alone_matches_on_every_kind_of_whitespace(
        candidate in whitespace_mix(),
        reference in whitespace_mix(),
    ) {
        assert_bleu_only_matches(&candidate, &reference);
    }
}

#[test]
fn hostile_shapes_score_inside_the_unit_interval() {
    let non_bmp: String = ['𝐀', '𠀀', ' ', '𝐙', 'İ', '𠀟'].iter().cycle().take(4_001).collect();
    let same = "x".repeat(4_001);
    let texts = [
        String::new(),
        " \n\t ".to_string(),
        "x".to_string(),
        same[..4_000].to_string(),
        same.clone(),
        "y".repeat(4_001),
        non_bmp.chars().take(4_000).collect(),
        non_bmp,
        "x ".repeat(2_400),
    ];
    for candidate in &texts {
        for reference in &texts {
            let report = QualityReport::compute(candidate, reference, 1.0);
            for score in [report.bleu, report.rouge, report.car] {
                assert!(
                    (0.0..=1.0).contains(&score),
                    "{score} for {:?}… vs {:?}…",
                    candidate.get(..1),
                    reference.get(..1)
                );
            }
            assert_eq!(report.car.to_bits(), reference::char_accuracy_rate(candidate, reference).to_bits());
        }
    }
}

/// BLEU's n-gram index as it shipped with one `HashMap` per order, copied
/// verbatim (the test-only accessors at the end aside): the oracle for the
/// ids, counts, totals and clipped matches of whatever replaces it.
mod hashmap_chain {
    use std::collections::HashMap;
    use std::hash::{BuildHasherDefault, Hasher};

    /// Id of an n-gram the reference does not contain.
    pub const UNKNOWN: u32 = u32::MAX;

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
    pub fn ngram_total(len: usize, order: usize) -> usize {
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

    #[derive(Debug, Clone)]
    pub struct NgramIndex {
        len: usize,
        orders: Vec<Order>,
    }

    impl NgramIndex {
        pub fn new(reference: &[u32], max_order: usize) -> Self {
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

        pub fn total(&self, order: usize) -> usize {
            ngram_total(self.len, order)
        }

        pub fn clipped_matches(&self, candidate: &[u32]) -> Vec<usize> {
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

        // Test-only accessors.

        pub fn counts(&self, order: usize) -> &[u32] {
            &self.orders[order - 1].counts
        }

        pub fn id_of(&self, order: usize, prefix: u32, token: u32) -> u32 {
            self.orders[order - 1].ids.get(&pair_key(prefix, token)).copied().unwrap_or(UNKNOWN)
        }
    }
}

/// The oracle's view of `reference`'s index from `candidate`, in the shape
/// of [`ngram_profile`].
fn oracle_ngram_profile(reference: &[u32], candidate: &[u32], max_order: usize) -> Vec<OrderProfile> {
    use hashmap_chain::{ngram_total, NgramIndex, UNKNOWN};
    let index = NgramIndex::new(reference, max_order);
    let unigrams = index.counts(1).len();
    let mut window_ids: Vec<u32> =
        candidate.iter().map(|&token| if (token as usize) < unigrams { token } else { UNKNOWN }).collect();
    let matches = index.clipped_matches(candidate);
    let mut profile = Vec::new();
    for order in 1..=max_order {
        if order > 1 {
            window_ids.truncate(ngram_total(candidate.len(), order));
            for (i, id) in window_ids.iter_mut().enumerate() {
                if *id != UNKNOWN {
                    *id = index.id_of(order, *id, candidate[i + order - 1]);
                }
            }
        }
        profile.push(OrderProfile {
            counts: index.counts(order).to_vec(),
            window_ids: window_ids.clone(),
            total: index.total(order),
            matched: matches[order - 1],
        });
    }
    profile
}

/// Token ids from an alphabet of `alphabet` ids, with every id at or above
/// `known` turned into the id of a token the reference never saw.
fn id_sequence(rng: &mut Rng, len: usize, alphabet: usize, known: usize) -> Vec<u32> {
    (0..len)
        .map(|_| match rng.below(alphabet) {
            id if id < known => id as u32,
            _ => u32::MAX,
        })
        .collect()
}

#[test]
fn the_ngram_index_matches_the_hashmap_chain_on_fixed_shapes() {
    // Repeats clipped from either side, unknown tokens at every position of
    // a window, and sequences shorter than the order on either side.
    let (a, b, c, d, x) = (0, 1, 2, 3, u32::MAX);
    let reference = [a, b, a, b, c, a, b, a, b, d, a, b, a, b];
    let shapes: [&[u32]; 12] = [
        &[a, b, a, b, a, b, a, b, a, b, a, b],
        &[a, b],
        &[a, a, a, a, a, a],
        &[x, x, x, x],
        &[x, b, a, b],
        &[a, x, a, b],
        &[a, b, x, b],
        &[a, b, a, x],
        &[a, b, c, a, x, b, a, b, d],
        &[],
        &[a],
        &[c, a, b],
    ];
    for candidate in shapes {
        for refr in [&reference[..], &[a, b, a], &[a], &[], &[d, d, d, d, d]] {
            for max_order in 1..=5 {
                assert_eq!(
                    ngram_profile(refr, candidate, max_order),
                    oracle_ngram_profile(refr, candidate, max_order),
                    "reference = {refr:?}, candidate = {candidate:?}, order = {max_order}"
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    // Ids numbered in order of first occurrence, counts, totals and clipped
    // matches per order, on references of up to 300 tokens over alphabets
    // of 2 to 64 ids (long repeats at the small end, nearly all distinct
    // n-grams at the large one) and candidates with unknown tokens.
    #[test]
    fn the_ngram_index_matches_the_hashmap_chain(
        shape in (0u64..u64::MAX, 0usize..301, 0usize..301),
        alphabet in 2usize..65,
        unknown_share in 0usize..4,
    ) {
        let (seed, ref_len, cand_len) = shape;
        let mut rng = Rng(seed | 1);
        let reference = id_sequence(&mut rng, ref_len, alphabet, alphabet);
        // One id in `1 + unknown_share` of the candidate's alphabet is unknown.
        let known = alphabet * 4 / (4 + unknown_share);
        let candidate = id_sequence(&mut rng, cand_len, alphabet, known.max(1));
        // A near copy of the reference too, with a few tokens unknown.
        let mut near = reference.clone();
        for _ in 0..=ref_len / 20 {
            if let Some(at) = (!near.is_empty()).then(|| rng.below(near.len())) {
                near[at] = u32::MAX;
            }
        }
        for candidate in [&candidate, &near] {
            prop_assert_eq!(ngram_profile(&reference, candidate, 4), oracle_ngram_profile(&reference, candidate, 4));
        }
    }

    // Distances exactly at and one over `gap + s` for `s` at every power of
    // two up to 256 — each threshold a deepening schedule over the length
    // gap could stop at — with the cheapest alignment on the main
    // diagonals or `detour` off them, for gaps 0, 1, 63, 64 and 65, from
    // both sides and through the band at and around the distance.
    #[test]
    fn distances_are_exact_at_every_deepening_boundary(
        shape in (0u64..u64::MAX, 0usize..5, 0usize..9),
        over in 0usize..2,
        split in (0usize..3, 0usize..2),
        body in 300usize..700,
    ) {
        let (seed, gap_index, power) = shape;
        let gap = [0usize, 1, 63, 64, 65][gap_index];
        let excess = (1usize << power) + over; // d − gap: at the threshold, then one over
        // All of it as substitutions, as far a detour as it allows, or half and half.
        let detour = match split.0 { 0 => 0, 1 => excess / 2, _ => excess / 4 };
        let substitutions = excess - 2 * detour;
        let mut rng = Rng(seed | 1);
        let alphabet = &alphabets()[1 + split.1];
        let (pattern, text) = detour_pair(&mut rng, alphabet, body, gap, detour, substitutions, split.1 == 0);
        let exact = gap + excess;
        prop_assert_eq!(reference::edit_distance_chars(&pattern, &text), exact);
        prop_assert_eq!(edit_distance_chars(&pattern, &text), exact);
        prop_assert_eq!(edit_distance_chars(&text, &pattern), exact);
        for t in [exact - 1, exact] {
            let settled = (exact <= t).then_some(exact);
            prop_assert_eq!(diagonal_distance(&pattern, &text, t), settled);
        }
        for band in [gap, exact - 1, exact, exact + 1] {
            assert_banded_matches(&pattern, &text, band);
        }
    }
}
