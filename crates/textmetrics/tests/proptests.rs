//! Property-based tests for the metric invariants the rest of the system
//! relies on (boundedness, identity, symmetry, triangle inequality).

use proptest::prelude::*;
use textmetrics::bleu::{sentence_bleu, sentence_bleu_with, BleuConfig};
use textmetrics::levenshtein::{char_accuracy_rate, edit_distance, normalized_similarity};
use textmetrics::rouge::{rouge_l, rouge_n};
use textmetrics::stats::{pearson, r_squared};
use textmetrics::tokenize::{
    alphanumeric_ratio, count_words, normalize_whitespace, tokenize_words, wordlike_ratio, TextCounts,
};
use textmetrics::ReferenceText;

fn word() -> impl Strategy<Value = String> {
    "[a-z]{1,8}"
}

fn sentence() -> impl Strategy<Value = String> {
    prop::collection::vec(word(), 0..40).prop_map(|ws| ws.join(" "))
}

fn short_text() -> impl Strategy<Value = String> {
    "[ -~]{0,120}"
}

/// Tokens of one to a few characters: digits, letters of both cases,
/// punctuation, every kind of whitespace, and the characters whose lower case
/// is longer ('İ') or context-dependent ('Σ') than themselves.
fn mixed_text() -> impl Strategy<Value = String> {
    "[   a-cA-C0-9İßΣé東٣_#.\t\n\u{a0}]{0,80}"
}

/// `wordlike_ratio` as it was before the single-walk [`TextCounts`]: a token
/// vector and three character counts per token.
fn wordlike_ratio_oracle(text: &str) -> f64 {
    let tokens = tokenize_words(text);
    if tokens.is_empty() {
        return 0.0;
    }
    let wordlike = tokens
        .iter()
        .filter(|t| {
            t.chars().count() >= 2 && t.chars().filter(|c| c.is_alphabetic()).count() * 2 > t.chars().count()
        })
        .count();
    wordlike as f64 / tokens.len() as f64
}

/// `alphanumeric_ratio` as its own walk.
fn alphanumeric_ratio_oracle(text: &str) -> f64 {
    let mut alnum = 0usize;
    let mut total = 0usize;
    for ch in text.chars() {
        if ch.is_whitespace() {
            continue;
        }
        total += 1;
        if ch.is_alphanumeric() {
            alnum += 1;
        }
    }
    if total == 0 {
        0.0
    } else {
        alnum as f64 / total as f64
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    #[test]
    fn edit_distance_identity(a in short_text()) {
        prop_assert_eq!(edit_distance(&a, &a), 0);
    }

    #[test]
    fn edit_distance_symmetry(a in short_text(), b in short_text()) {
        prop_assert_eq!(edit_distance(&a, &b), edit_distance(&b, &a));
    }

    #[test]
    fn edit_distance_triangle(a in "[a-c]{0,25}", b in "[a-c]{0,25}", c in "[a-c]{0,25}") {
        let ab = edit_distance(&a, &b);
        let bc = edit_distance(&b, &c);
        let ac = edit_distance(&a, &c);
        prop_assert!(ac <= ab + bc, "triangle violated: {} > {} + {}", ac, ab, bc);
    }

    #[test]
    fn edit_distance_bounded_by_longer_length(a in short_text(), b in short_text()) {
        let d = edit_distance(&a, &b);
        let la = a.chars().count();
        let lb = b.chars().count();
        prop_assert!(d <= la.max(lb));
        prop_assert!(d >= la.abs_diff(lb));
    }

    #[test]
    fn normalized_similarity_bounded(a in short_text(), b in short_text()) {
        let s = normalized_similarity(&a, &b);
        prop_assert!((0.0..=1.0).contains(&s));
    }

    #[test]
    fn car_bounded_and_identity(a in sentence(), b in sentence()) {
        let c = char_accuracy_rate(&a, &b);
        prop_assert!((0.0..=1.0).contains(&c));
        prop_assert!(char_accuracy_rate(&a, &a) > 0.999);
    }

    #[test]
    fn bleu_bounded(a in sentence(), b in sentence()) {
        let s = sentence_bleu(&a, &b);
        prop_assert!((0.0..=1.0).contains(&s), "bleu out of range: {}", s);
    }

    #[test]
    fn bleu_identity_is_one(a in prop::collection::vec(word(), 4..40).prop_map(|ws| ws.join(" "))) {
        prop_assert!(sentence_bleu(&a, &a) > 0.999);
    }

    #[test]
    fn bleu_custom_orders_bounded(a in sentence(), b in sentence(), order in 1usize..6) {
        let cfg = BleuConfig { max_order: order, smoothing: 0.01 };
        let s = sentence_bleu_with(&a, &b, cfg);
        prop_assert!((0.0..=1.0).contains(&s.score));
        prop_assert!((0.0..=1.0).contains(&s.brevity_penalty));
    }

    #[test]
    fn rouge_bounded_and_symmetric_f1(a in sentence(), b in sentence()) {
        let rl = rouge_l(&a, &b);
        prop_assert!((0.0..=1.0).contains(&rl.f1));
        // F1 is symmetric because precision and recall swap roles.
        let rl_swapped = rouge_l(&b, &a);
        prop_assert!((rl.f1 - rl_swapped.f1).abs() < 1e-9);
        let r1 = rouge_n(&a, &b, 1);
        prop_assert!((0.0..=1.0).contains(&r1.f1));
    }

    #[test]
    fn rouge1_f1_at_least_rouge2_f1(a in sentence(), b in sentence()) {
        // Higher-order n-gram overlap can never exceed unigram overlap rate by
        // much; in particular ROUGE-2 == 0 whenever ROUGE-1 == 0.
        let r1 = rouge_n(&a, &b, 1);
        let r2 = rouge_n(&a, &b, 2);
        if r1.f1 == 0.0 {
            prop_assert!(r2.f1 == 0.0);
        }
    }

    #[test]
    fn normalize_whitespace_idempotent(a in short_text()) {
        let once = normalize_whitespace(&a);
        prop_assert_eq!(normalize_whitespace(&once), once.clone());
        prop_assert!(!once.contains("  "));
    }

    #[test]
    fn count_words_equals_tokenizer_len(a in short_text()) {
        prop_assert_eq!(count_words(&a), tokenize_words(&a).len());
    }

    #[test]
    fn scoring_counts_the_tokens_count_words_does(a in mixed_text(), reference in mixed_text()) {
        let (_, tokens) = ReferenceText::new(&reference).score_counting(&a, 1.0);
        prop_assert_eq!(tokens, count_words(&a));
        prop_assert_eq!(tokens, tokenize_words(&a).len());
    }

    #[test]
    fn text_counts_match_the_separate_walks(a in mixed_text()) {
        let counts = TextCounts::of(&a);
        prop_assert_eq!(counts.words, count_words(&a));
        prop_assert_eq!(counts.wordlike_ratio().to_bits(), wordlike_ratio_oracle(&a).to_bits());
        prop_assert_eq!(counts.alphanumeric_ratio().to_bits(), alphanumeric_ratio_oracle(&a).to_bits());
        prop_assert_eq!(wordlike_ratio(&a).to_bits(), wordlike_ratio_oracle(&a).to_bits());
        prop_assert_eq!(alphanumeric_ratio(&a).to_bits(), alphanumeric_ratio_oracle(&a).to_bits());
    }

    #[test]
    fn pearson_bounded(pairs in prop::collection::vec((0.0f64..1.0, 0.0f64..1.0), 2..60)) {
        let xs: Vec<f64> = pairs.iter().map(|p| p.0).collect();
        let ys: Vec<f64> = pairs.iter().map(|p| p.1).collect();
        let r = pearson(&xs, &ys);
        prop_assert!((-1.0..=1.0).contains(&r));
    }

    #[test]
    fn r_squared_of_perfect_prediction_is_one(values in prop::collection::vec(0.0f64..1.0, 3..50)) {
        // Skip degenerate constant vectors.
        let spread = values.iter().cloned().fold(f64::NEG_INFINITY, f64::max)
            - values.iter().cloned().fold(f64::INFINITY, f64::min);
        prop_assume!(spread > 1e-9);
        prop_assert!((r_squared(&values, &values) - 1.0).abs() < 1e-9);
    }
}

#[test]
fn text_counts_on_the_edge_cases() {
    for text in
        ["", " ", " \t\n\u{a0} ", "a", "ab", "a1", "1a b2 cd", "İİ1", "İa", "ΟΔΟΣ", "東京 大学", "#", "# a"]
    {
        let counts = TextCounts::of(text);
        assert_eq!(counts.words, count_words(text), "{text:?}");
        assert_eq!(counts.wordlike_ratio().to_bits(), wordlike_ratio_oracle(text).to_bits(), "{text:?}");
        assert_eq!(
            counts.alphanumeric_ratio().to_bits(),
            alphanumeric_ratio_oracle(text).to_bits(),
            "{text:?}"
        );
    }
    // Lower-casing 'İ' yields a letter and a combining mark: "İİ1" is five
    // characters, two of them alphabetic — not word-like, though its three
    // upper-case characters would be.
    assert_eq!(TextCounts::of("İİ1").wordlike, 0);
    assert_eq!(TextCounts::of("İa").wordlike, 1);
}
