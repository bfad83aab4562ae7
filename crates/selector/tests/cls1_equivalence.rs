//! CLS I's single-walk `is_valid` against the three-walk form it replaced:
//! the same `bool` for every text, page count and rule set.

use proptest::prelude::*;
use selector::cls1::ValidityRules;
use textmetrics::tokenize::{alphanumeric_ratio, count_words, wordlike_ratio};

/// `is_valid` as three early-returning walks over the text (the ratio
/// functions are pinned to their own multi-pass forms in `textmetrics`).
fn is_valid_oracle(rules: &ValidityRules, extracted_text: &str, pages: usize) -> bool {
    let pages = pages.max(1) as f64;
    let words = count_words(extracted_text) as f64;
    if words / pages < rules.min_words_per_page {
        return false;
    }
    if wordlike_ratio(extracted_text) < rules.min_wordlike_ratio {
        return false;
    }
    if alphanumeric_ratio(extracted_text) < rules.min_alphanumeric_ratio {
        return false;
    }
    true
}

/// Rule sets on both sides of what short random texts reach, plus the
/// degenerate thresholds (0 accepts everything, NaN compares false).
fn rule_sets() -> Vec<ValidityRules> {
    let mut sets = vec![ValidityRules::default()];
    for words in [0.0, 1.0, 3.0, f64::NAN] {
        for wordlike in [0.0, 0.34, 0.5, 1.0, f64::NAN] {
            for alphanumeric in [0.0, 0.5, 0.8, 1.0] {
                sets.push(ValidityRules {
                    min_words_per_page: words,
                    min_wordlike_ratio: wordlike,
                    min_alphanumeric_ratio: alphanumeric,
                });
            }
        }
    }
    sets
}

fn agree_on(text: &str) -> Result<(), String> {
    for rules in rule_sets() {
        for pages in [0, 1, 2, 7] {
            if rules.is_valid(text, pages) != is_valid_oracle(&rules, text, pages) {
                return Err(format!("{rules:?}, {pages} pages, {text:?}"));
            }
        }
    }
    Ok(())
}

#[test]
fn edge_cases_agree() {
    for text in
        ["", " ", "\t \n\u{a0}", "a", "ab cd", "İİ1 İa", "ΟΔΟΣ ΣΟΦΟΣ", "## $$ {}", "x1 9z 3q", "東京 大学 #"]
    {
        agree_on(text).unwrap();
    }
    let page = "The measurement of enzyme kinetics demonstrates a robust relationship. ".repeat(8);
    agree_on(&page).unwrap();
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn single_walk_matches_three_walks(text in "[   a-cA-C0-9İßΣé東_#.\t\n\u{a0}]{0,60}") {
        let outcome = agree_on(&text);
        prop_assert!(outcome.is_ok(), "{}", outcome.unwrap_err());
    }
}
