//! `corrupt::{shuffle_word_order, scramble_characters, ocr_noise}` and the
//! scrambled text layer against the bodies they replaced, kept here
//! verbatim. Every committed fingerprint was produced by those bodies, so
//! each case checks the output bytes *and* the generator's next draw: equal
//! bytes from a different number of draws would still move every document
//! generated after them.

use docmodel::corrupt::{ocr_noise, scramble_characters, shuffle_word_order};
use docmodel::textlayer::{TextLayer, TextLayerQuality};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, RngCore, SeedableRng};

fn oracle_scramble_characters<R: Rng + ?Sized>(text: &str, rate: f64, rng: &mut R) -> String {
    let rate = rate.clamp(0.0, 1.0);
    let mut out = Vec::new();
    for word in text.split_whitespace() {
        let mut chars: Vec<char> = word.chars().collect();
        if chars.len() >= 4 && rng.gen_bool(rate) {
            let i = rng.gen_range(1..chars.len() - 2);
            chars.swap(i, i + 1);
        }
        out.push(chars.into_iter().collect::<String>());
    }
    out.join(" ")
}

fn oracle_confuse<R: Rng + ?Sized>(c: char, rng: &mut R) -> char {
    let table: &[(char, &[char])] = &[
        ('0', &['O', 'o']),
        ('O', &['0', 'Q']),
        ('1', &['l', 'I']),
        ('l', &['1', 'I']),
        ('I', &['l', '1']),
        ('5', &['S']),
        ('S', &['5']),
        ('8', &['B']),
        ('B', &['8']),
        ('m', &['n', 'w']),
        ('e', &['c', 'o']),
        ('a', &['o', 'e']),
        ('u', &['v', 'n']),
        ('h', &['b', 'n']),
        ('t', &['f', 'r']),
        ('g', &['q', '9']),
    ];
    for (from, to) in table {
        if *from == c {
            return to[rng.gen_range(0..to.len())];
        }
    }
    // Fall back to a neighbouring ASCII letter for alphabetic characters.
    if c.is_ascii_lowercase() {
        let shifted = ((c as u8 - b'a' + 1) % 26) + b'a';
        shifted as char
    } else if c.is_ascii_uppercase() {
        let shifted = ((c as u8 - b'A' + 1) % 26) + b'A';
        shifted as char
    } else {
        c
    }
}

fn oracle_ocr_noise<R: Rng + ?Sized>(text: &str, legibility: f64, rng: &mut R) -> String {
    let legibility = legibility.clamp(0.0, 1.0);
    let confuse_rate = 0.12 * (1.0 - legibility);
    let drop_rate = 0.05 * (1.0 - legibility).powi(2);
    let mut out = String::with_capacity(text.len());
    for c in text.chars() {
        if !c.is_whitespace() && rng.gen_bool(drop_rate) {
            continue;
        }
        if !c.is_whitespace() && rng.gen_bool(confuse_rate) {
            out.push(oracle_confuse(c, rng));
        } else {
            out.push(c);
        }
    }
    out
}

fn oracle_shuffle_word_order<R: Rng + ?Sized>(text: &str, severity: f64, rng: &mut R) -> String {
    let severity = severity.clamp(0.0, 1.0);
    let mut words: Vec<&str> = text.split_whitespace().collect();
    if words.len() < 4 || severity <= 0.0 {
        return words.join(" ");
    }
    let swaps = ((words.len() as f64) * severity * 0.5).ceil() as usize;
    for _ in 0..swaps {
        let i = rng.gen_range(0..words.len());
        let max_offset = ((words.len() as f64 * severity * 0.3).ceil() as usize).max(1);
        let j = (i + rng.gen_range(1..=max_offset)).min(words.len() - 1);
        words.swap(i, j);
    }
    words.join(" ")
}

/// Words of every kind the corpus and the parsers feed these functions:
/// ASCII prose of every length around the four-character scramble cut,
/// LaTeX, OCR-confusable characters, and multi-byte words, including ones
/// whose case mapping changes their length.
const WORDS: &[&str] = &[
    "a",
    "ab",
    "abc",
    "abcd",
    "abcde",
    "enzyme",
    "kinetics",
    "throughput.",
    "(2019).",
    "\\frac{\\partial",
    "u}{\\partial",
    "$$",
    "x_{i}^{2}",
    "\\alpha",
    "0O1lI5S8B",
    "mehtuag",
    "İstanbul",
    "ΣΟΦΟΣ",
    "naïve",
    "café",
    "東京大学",
    "🙂🙂🙂🙂",
    "ßẞ",
    "é",
];

/// Whitespace runs: the empty one (only before the first word or after the
/// last), single and repeated spaces, tabs, newlines, no-break and
/// ideographic spaces, and a form feed.
const GAPS: &[&str] = &["", " ", "  ", "   ", "\t", "\n", "\n\n", "\u{a0}", " \u{3000} ", "\u{c}"];

/// A text of `(gap, word)` pairs, each gap before its word, then `trail`.
fn text_of(parts: &[(usize, usize)], trail: usize) -> String {
    let mut text = String::new();
    for (i, &(gap, word)) in parts.iter().enumerate() {
        text.push_str(if i > 0 && gap == 0 { " " } else { GAPS[gap] });
        text.push_str(WORDS[word]);
    }
    text.push_str(GAPS[trail]);
    text
}

fn text_strategy() -> impl Strategy<Value = String> {
    (prop::collection::vec((0..GAPS.len(), 0..WORDS.len()), 0..40), 0..GAPS.len())
        .prop_map(|(parts, trail)| text_of(&parts, trail))
}

/// A rate: the two ends (where `gen_bool` draws nothing), values past
/// them (which clamp), or any value in between.
fn rate_of(kind: usize, value: f64) -> f64 {
    match kind {
        0 => 0.0,
        1 => 1.0,
        2 => -0.5,
        3 => 1.5,
        _ => value,
    }
}

/// Run `new` and `oracle` from the same seed and compare bytes and the
/// next draw.
fn assert_same(
    text: &str,
    seed: u64,
    new: impl Fn(&str, &mut StdRng) -> String,
    oracle: impl Fn(&str, &mut StdRng) -> String,
) {
    let (mut a, mut b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
    assert_eq!(new(text, &mut a), oracle(text, &mut b), "{text:?} seed {seed}");
    assert_eq!(a.next_u64(), b.next_u64(), "draw count differs on {text:?} seed {seed}");
}

#[test]
fn edge_cases_match_the_old_bodies() {
    for text in [
        "",
        " ",
        " \t\n ",
        "abcd",
        "  abcd  efgh  ",
        "İstanbul ΣΟΦΟΣ",
        "a ab abc abcd abcde",
        "0O1lI5S8B mehtuag 0O1lI5S8B",
        "\\frac{\\partial u}{\\partial t} = \\alpha \\nabla^{2} u",
    ] {
        for seed in [1, 2, 3] {
            for rate in [0.0, 0.3, 1.0] {
                assert_same(
                    text,
                    seed,
                    |t, r| scramble_characters(t, rate, r),
                    |t, r| oracle_scramble_characters(t, rate, r),
                );
                assert_same(text, seed, |t, r| ocr_noise(t, rate, r), |t, r| oracle_ocr_noise(t, rate, r));
                assert_same(
                    text,
                    seed,
                    |t, r| shuffle_word_order(t, rate, r),
                    |t, r| oracle_shuffle_word_order(t, rate, r),
                );
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn scramble_matches_the_old_body(text in text_strategy(), rate in (0usize..6, 0.0f64..1.0), seed in 0u64..1_000_000) {
        let rate = rate_of(rate.0, rate.1);
        assert_same(&text, seed, |t, r| scramble_characters(t, rate, r), |t, r| oracle_scramble_characters(t, rate, r));
    }

    #[test]
    fn ocr_noise_matches_the_old_body(text in text_strategy(), legibility in (0usize..6, 0.0f64..1.0), seed in 0u64..1_000_000) {
        let legibility = rate_of(legibility.0, legibility.1);
        assert_same(&text, seed, |t, r| ocr_noise(t, legibility, r), |t, r| oracle_ocr_noise(t, legibility, r));
    }

    #[test]
    fn shuffle_matches_the_old_body(text in text_strategy(), severity in (0usize..6, 0.0f64..1.0), seed in 0u64..1_000_000) {
        let severity = rate_of(severity.0, severity.1);
        assert_same(&text, seed, |t, r| shuffle_word_order(t, severity, r), |t, r| oracle_shuffle_word_order(t, severity, r));
    }

    #[test]
    fn text_layers_match_the_old_bodies_at_exact_size(pages in prop::collection::vec(text_strategy(), 0..4), error_rate in 0.0f64..0.6, seed in 0u64..1_000_000) {
        let oracle_page = |quality, gt: &str, rng: &mut StdRng| match quality {
            TextLayerQuality::OcrGenerated { error_rate } => oracle_ocr_noise(gt, (1.0 - error_rate).clamp(0.0, 1.0), rng),
            TextLayerQuality::Scrambled => {
                let shuffled = oracle_shuffle_word_order(gt, 0.8, rng);
                oracle_scramble_characters(&shuffled, 0.6, rng)
            }
            TextLayerQuality::LatexMangled => docmodel::corrupt::mangle_latex(gt),
            TextLayerQuality::Clean => gt.to_string(),
            TextLayerQuality::Missing => String::new(),
        };
        for quality in [
            TextLayerQuality::Clean,
            TextLayerQuality::LatexMangled,
            TextLayerQuality::OcrGenerated { error_rate },
            TextLayerQuality::Scrambled,
            TextLayerQuality::Missing,
        ] {
            let (mut a, mut b) = (StdRng::seed_from_u64(seed), StdRng::seed_from_u64(seed));
            let layer = TextLayer::from_ground_truth(&pages, quality, &mut a);
            let expected: Vec<String> = pages.iter().map(|gt| oracle_page(quality, gt, &mut b)).collect();
            prop_assert_eq!(&layer.pages, &expected, "{:?}", quality);
            prop_assert_eq!(a.next_u64(), b.next_u64(), "draw count differs under {:?}", quality);
            for page in &layer.pages {
                prop_assert_eq!(page.capacity(), page.len(), "{:?} page stored with spare capacity", quality);
            }
        }
    }
}
