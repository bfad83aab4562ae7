//! The batched, column-major encoder against the per-document, row-major
//! code it replaced, bit for bit.
//!
//! The oracle below is that code verbatim: a featurizer that collects the
//! words and characters and builds one `String` per trigram, a projection
//! drawn by `Matrix::random` and applied by `Matrix::matvec`, and the
//! seven-pass aggregate statistics. Every committed campaign fingerprint
//! was produced by it, so "equal to the oracle" is "no fingerprint moves".

use mlcore::encoder::{EncoderProfile, PretrainedEncoder};
use mlcore::features::{aggregate_statistics, HashedNgramFeaturizer};
use mlcore::matrix::{l2_normalize, Matrix};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::{Rng, SeedableRng};

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0000_0100_0000_01b3;

fn oracle_bump(v: &mut [f64], parts: &[&str]) {
    let mut h = FNV_OFFSET;
    for part in parts {
        for b in part.as_bytes() {
            h ^= *b as u64;
            h = h.wrapping_mul(FNV_PRIME);
        }
    }
    let dim = v.len() as u64;
    v[(h % dim) as usize] += 1.0;
}

fn oracle_features(dim: usize, use_char_trigrams: bool, text: &str) -> Vec<f64> {
    let mut v = vec![0.0f64; dim];
    let lower = text.to_lowercase();
    let words: Vec<&str> = lower.split_whitespace().collect();
    for word in &words {
        oracle_bump(&mut v, &["w:", word]);
    }
    for pair in words.windows(2) {
        oracle_bump(&mut v, &["b:", pair[0], "_", pair[1]]);
    }
    if use_char_trigrams {
        let chars: Vec<char> = lower.chars().collect();
        for window in chars.windows(3) {
            let tri: String = window.iter().collect();
            oracle_bump(&mut v, &["c:", &tri]);
        }
    }
    l2_normalize(&mut v);
    v
}

fn oracle_statistics(text: &str) -> Vec<f64> {
    let char_count = text.chars().count() as f64;
    let word_count = text.split_whitespace().count() as f64;
    let alnum = text.chars().filter(|c| c.is_alphanumeric()).count() as f64;
    let digits = text.chars().filter(|c| c.is_ascii_digit()).count() as f64;
    let upper = text.chars().filter(|c| c.is_uppercase()).count() as f64;
    let backslashes = text.chars().filter(|&c| c == '\\' || c == '$' || c == '{').count() as f64;
    let double_spaces = text.matches("  ").count() as f64;
    let mean_word_len = if word_count > 0.0 { alnum / word_count } else { 0.0 };
    let nonspace = text.chars().filter(|c| !c.is_whitespace()).count().max(1) as f64;
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

/// (embedding width, feature width, noise, character trigrams) per profile.
fn oracle_shape(profile: EncoderProfile) -> (usize, usize, f64, bool) {
    match profile {
        EncoderProfile::SciBert => (192, 2048, 0.00, true),
        EncoderProfile::Specter => (160, 1536, 0.01, true),
        EncoderProfile::Bert => (192, 1024, 0.04, true),
        EncoderProfile::MiniLm => (96, 512, 0.07, false),
        EncoderProfile::FastText => (64, 512, 0.05, false),
    }
}

struct OracleEncoder {
    profile: EncoderProfile,
    projection: Matrix,
}

impl OracleEncoder {
    fn new(profile: EncoderProfile) -> Self {
        let (embedding_dim, feature_dim, ..) = oracle_shape(profile);
        let mut rng = StdRng::seed_from_u64(0xC0FFEE ^ embedding_dim as u64 ^ (feature_dim as u64) << 16);
        let projection =
            Matrix::random(embedding_dim, feature_dim + 8, (2.0 / feature_dim as f64).sqrt(), &mut rng);
        OracleEncoder { profile, projection }
    }

    fn encode(&self, text: &str) -> Vec<f64> {
        let (_, feature_dim, noise, trigrams) = oracle_shape(self.profile);
        let mut features = oracle_features(feature_dim, trigrams, text);
        features.extend_from_slice(&oracle_statistics(text));
        let mut embedding = self.projection.matvec(&features);
        if noise > 0.0 {
            let mut h = FNV_OFFSET;
            for b in text.as_bytes() {
                h ^= *b as u64;
                h = h.wrapping_mul(FNV_PRIME);
            }
            let mut rng = StdRng::seed_from_u64(0x5EED ^ h);
            for v in &mut embedding {
                *v += rng.gen_range(-noise..=noise);
            }
        }
        l2_normalize(&mut embedding);
        embedding
    }
}

fn bits(values: &[f64]) -> Vec<u64> {
    values.iter().map(|v| v.to_bits()).collect()
}

/// The inputs the issue names, plus ordinary prose long enough to fill most
/// hashed features.
fn corpus() -> Vec<String> {
    let mut texts: Vec<String> = [
        "",
        " ",
        " \t\n  \u{a0} ",
        "a",
        "ab",
        "é",
        "a b",
        "abc",
        "İstanbul İİ ß STRASSE ΟΔΟΣ ΣΟΦΟΣ Σ ǅ ﬁn",
        "naïve café Schrödinger 東京大学 🙂🙂🙂 αβγ",
        "\\frac{a}{b} $$ \\sum_{i=0}^{n} x_i $$ {braces} \\begin{equation} E = mc^2 \\end{equation}",
        "three   spaces    four     five  \u{c}next page",
        "!!! ??? --- ... ;;; ### @@@",
    ]
    .into_iter()
    .map(String::from)
    .collect();
    let mut rng = StdRng::seed_from_u64(7);
    let vocabulary = [
        "enzyme",
        "kinetics",
        "Substrate",
        "the",
        "of",
        "reaction",
        "rate",
        "7.4",
        "pH",
        "observed",
        "µm",
        "Table",
        "2",
        "measurement",
        "robust",
        "x_i",
        "conditions",
        "study",
        "and",
        "across",
        "β-sheet",
    ];
    for words in [12, 80, 400, 900] {
        let text: Vec<&str> = (0..words).map(|_| *vocabulary.choose(&mut rng).unwrap()).collect();
        texts.push(text.join(" "));
    }
    texts
}

#[test]
fn featurizer_matches_the_string_building_oracle() {
    for text in corpus() {
        for dim in [1, 7, 512, 2048] {
            let full = HashedNgramFeaturizer::new(dim).features(&text);
            assert_eq!(bits(&full), bits(&oracle_features(dim, true, &text)), "dim {dim}, text {text:?}");
            let words = HashedNgramFeaturizer::words_only(dim).features(&text);
            assert_eq!(bits(&words), bits(&oracle_features(dim, false, &text)), "dim {dim}, text {text:?}");
        }
    }
}

#[test]
fn single_encode_matches_the_row_major_oracle_for_every_profile() {
    for profile in EncoderProfile::ALL {
        let encoder = PretrainedEncoder::new(profile);
        let oracle = OracleEncoder::new(profile);
        for text in corpus() {
            assert_eq!(bits(&encoder.encode(&text)), bits(&oracle.encode(&text)), "{profile}: {text:?}");
        }
    }
}

#[test]
fn all_zero_features_give_the_zero_embedding() {
    // No words, no characters, and every aggregate statistic is 0 / max(0, 1).
    for profile in EncoderProfile::ALL {
        let embedding = PretrainedEncoder::new(profile).encode("");
        let (_, _, noise, _) = oracle_shape(profile);
        if noise == 0.0 {
            assert!(embedding.iter().all(|v| v.to_bits() == 0), "{profile}: +0.0 everywhere");
        }
        assert_eq!(bits(&embedding), bits(&OracleEncoder::new(profile).encode("")));
    }
}

#[test]
fn an_embedding_does_not_depend_on_its_batch_mates() {
    let texts = corpus();
    let mut rng = StdRng::seed_from_u64(99);
    for profile in EncoderProfile::ALL {
        let encoder = PretrainedEncoder::new(profile);
        let oracle = OracleEncoder::new(profile);
        let expected: Vec<Vec<u64>> = texts.iter().map(|t| bits(&oracle.encode(t))).collect();
        for size in [1usize, 2, 7, 8, 9, 33] {
            for _ in 0..3 {
                // With replacement: 33 exceeds the corpus, and duplicates in
                // one batch are a composition worth covering.
                let picks: Vec<usize> = (0..size).map(|_| rng.gen_range(0..texts.len())).collect();
                let batch: Vec<&str> = picks.iter().map(|&i| texts[i].as_str()).collect();
                let embeddings = encoder.encode_batch(&batch);
                assert_eq!(embeddings.len(), size);
                for (&i, embedding) in picks.iter().zip(&embeddings) {
                    assert_eq!(bits(embedding), expected[i], "{profile}, batch of {size}: {:?}", texts[i]);
                }
            }
        }
        assert!(encoder.encode_batch::<&str>(&[]).is_empty());
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    #[test]
    fn aggregate_statistics_match_the_seven_pass_form(text in "[     a-cA-C0-9İßΣ\\\\${}.\t\n\u{a0}]{0,60}") {
        prop_assert_eq!(bits(&aggregate_statistics(&text)), bits(&oracle_statistics(&text)));
    }

    #[test]
    fn featurizer_matches_the_oracle_on_random_text(text in "[   a-cA-C0-9İßΣé東\t\n]{0,60}") {
        let fast = HashedNgramFeaturizer::new(64).features(&text);
        prop_assert_eq!(bits(&fast), bits(&oracle_features(64, true, &text)));
    }
}

#[test]
fn space_runs_count_pairs_without_overlap() {
    // Eight words, so the ratio stays below its 1.0 cap.
    let padded = |gap: &str| format!("a{gap}b c d e f g h");
    let pairs = |text: &str| aggregate_statistics(text)[6] * 9.0;
    assert_eq!(pairs(&padded(" ")), 0.0);
    assert_eq!(pairs(&padded("  ")), 1.0);
    assert_eq!(pairs(&padded("   ")), 1.0);
    assert_eq!(pairs(&padded("    ")), 2.0);
    assert_eq!(bits(&aggregate_statistics("   ")), bits(&oracle_statistics("   ")));
}
