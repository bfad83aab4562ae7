//! CLS I: rule-based validation of the extracted text.
//!
//! The first stage operates on "coarse but fast-to-compute features (e.g.,
//! text length)" of the PyMuPDF extraction. If the extraction looks invalid —
//! too short for the page count, dominated by symbols, or not word-like —
//! the document is routed straight to the high-quality parser without
//! spending any model inference on it.

use textmetrics::tokenize::TextCounts;

/// Decision produced by CLS I.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Cls1Decision {
    /// The extraction looks like real text; later stages may still improve it.
    Valid,
    /// The extraction is unusable; route to the high-quality parser.
    Invalid,
}

/// Thresholds of the rule-based validator.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct ValidityRules {
    /// Minimum number of word tokens per page.
    pub min_words_per_page: f64,
    /// Minimum fraction of word-like tokens.
    pub min_wordlike_ratio: f64,
    /// Minimum fraction of alphanumeric characters.
    pub min_alphanumeric_ratio: f64,
}

impl Default for ValidityRules {
    fn default() -> Self {
        ValidityRules { min_words_per_page: 40.0, min_wordlike_ratio: 0.55, min_alphanumeric_ratio: 0.70 }
    }
}

impl ValidityRules {
    /// Classify an extraction given the number of pages it should cover.
    pub fn decide(&self, extracted_text: &str, pages: usize) -> Cls1Decision {
        if self.is_valid(extracted_text, pages) {
            Cls1Decision::Valid
        } else {
            Cls1Decision::Invalid
        }
    }

    /// Whether an extraction passes all rules.
    pub fn is_valid(&self, extracted_text: &str, pages: usize) -> bool {
        let counts = TextCounts::of(extracted_text);
        let too_sparse = (counts.words as f64 / pages.max(1) as f64) < self.min_words_per_page;
        let garbled = counts.wordlike_ratio() < self.min_wordlike_ratio;
        let symbol_soup = counts.alphanumeric_ratio() < self.min_alphanumeric_ratio;
        !(too_sparse || garbled || symbol_soup)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn normal_page_text() -> String {
        "The measurement of enzyme kinetics demonstrates a robust relationship between substrate \
         concentration and the observed reaction rate across all tested conditions in the study. "
            .repeat(3)
    }

    #[test]
    fn clean_prose_is_valid() {
        let rules = ValidityRules::default();
        assert_eq!(rules.decide(&normal_page_text(), 1), Cls1Decision::Valid);
    }

    #[test]
    fn empty_or_tiny_extraction_is_invalid() {
        let rules = ValidityRules::default();
        assert_eq!(rules.decide("", 1), Cls1Decision::Invalid);
        assert_eq!(rules.decide("only a few words here", 1), Cls1Decision::Invalid);
        // Enough words overall but spread over many pages.
        assert_eq!(rules.decide(&normal_page_text(), 20), Cls1Decision::Invalid);
    }

    #[test]
    fn symbol_soup_is_invalid() {
        let rules = ValidityRules::default();
        let soup = "{}$ \\^ %% ## @@ || ((( ]] ~~ ".repeat(30);
        assert_eq!(rules.decide(&soup, 1), Cls1Decision::Invalid);
    }

    #[test]
    fn scrambled_short_tokens_are_invalid() {
        let rules = ValidityRules::default();
        let scrambled = "q3 x9 z1 k2 p0 w4 j7 v5 ".repeat(20);
        assert_eq!(rules.decide(&scrambled, 1), Cls1Decision::Invalid);
    }

    #[test]
    fn thresholds_are_tunable() {
        let lenient =
            ValidityRules { min_words_per_page: 1.0, min_wordlike_ratio: 0.0, min_alphanumeric_ratio: 0.0 };
        assert_eq!(lenient.decide("two words", 1), Cls1Decision::Valid);
    }
}
