//! pypdf simulator: pure-Python text extraction.
//!
//! pypdf reads the same embedded text layer as PyMuPDF but an order of
//! magnitude more slowly and with heavier artifacts: aggressive whitespace
//! injection, character-case corruption from damaged font encodings (the
//! reason its character accuracy rate collapses in the paper's Table 1), and
//! occasional per-page extraction failures.

use docmodel::corrupt;
use docmodel::spdf::{SpdfFile, SpdfIndex};
use rand::{Rng, RngCore};

use crate::cost::{content_difficulty, CostModel, ResourceCost};
use crate::traits::{assemble_pages, first_page_with, ParseError, ParseOutput, Parser, ParserKind};

/// pypdf text extraction simulator.
#[derive(Debug, Clone)]
pub struct PypdfParser {
    cost: CostModel,
}

impl Default for PypdfParser {
    fn default() -> Self {
        Self::new()
    }
}

impl PypdfParser {
    /// Create the simulator with the calibrated cost model.
    pub fn new() -> Self {
        PypdfParser { cost: CostModel::for_parser(ParserKind::Pypdf) }
    }

    /// Extract one page from its embedded text layer; `None` when it has
    /// none or the page's extraction fails.
    fn extract_page(embedded: &str, rng: &mut dyn RngCore) -> Option<String> {
        if embedded.trim().is_empty() || rng.gen_bool(0.04) {
            return None;
        }
        let text = corrupt::mangle_latex(embedded);
        let text = corrupt::inject_whitespace(&text, 0.20, rng);
        let text = corrupt::scramble_characters(&text, 0.08, rng);
        // Damaged encodings flip case pervasively, cratering CAR.
        Some(crate::failure::corrupt_case(&text, 0.25, rng))
    }
}

impl Parser for PypdfParser {
    fn kind(&self) -> ParserKind {
        ParserKind::Pypdf
    }

    fn parse_file(&self, file: &SpdfFile, rng: &mut dyn RngCore) -> Result<ParseOutput, ParseError> {
        let pages = file.pages.iter().map(|page| {
            let embedded = page.embedded_text.as_str();
            (content_difficulty(embedded), Self::extract_page(embedded, rng))
        });
        assemble_pages(self.kind(), &self.cost, pages)
    }

    fn first_page_text(&self, index: &SpdfIndex<'_>, rng: &mut dyn RngCore) -> Result<String, ParseError> {
        first_page_with(index, |page| Self::extract_page(&page.embedded_text, rng))
    }

    fn estimate_cost(&self, pages: usize) -> ResourceCost {
        self.cost.document_cost(pages, 0.3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pymupdf::PyMuPdfParser;
    use crate::testutil::{doc_with_quality, parse_doc};
    use docmodel::textlayer::TextLayerQuality;
    use textmetrics::bleu::sentence_bleu;
    use textmetrics::levenshtein::char_accuracy_rate;

    #[test]
    fn pypdf_is_worse_and_slower_than_pymupdf() {
        let (doc, file) = doc_with_quality(TextLayerQuality::Clean, 4);
        let pypdf = parse_doc(&PypdfParser::new(), &file);
        let pymupdf = parse_doc(&PyMuPdfParser::new(), &file);
        let gt = doc.ground_truth();
        assert!(sentence_bleu(&pypdf.text, &gt) < sentence_bleu(&pymupdf.text, &gt));
        assert!(pypdf.cost.cpu_seconds > pymupdf.cost.cpu_seconds * 5.0);
    }

    #[test]
    fn case_corruption_craters_car_but_not_bleu_as_much() {
        let (doc, file) = doc_with_quality(TextLayerQuality::Clean, 3);
        let out = parse_doc(&PypdfParser::new(), &file);
        let gt = doc.ground_truth();
        let car = char_accuracy_rate(&out.text, &gt);
        let pymupdf_car = char_accuracy_rate(&parse_doc(&PyMuPdfParser::new(), &file).text, &gt);
        assert!(car < pymupdf_car, "pypdf CAR {car} should trail PyMuPDF {pymupdf_car}");
    }

    #[test]
    fn missing_layer_produces_nothing() {
        let (_doc, file) = doc_with_quality(TextLayerQuality::Missing, 2);
        let out = parse_doc(&PypdfParser::new(), &file);
        assert_eq!(out.pages_parsed, 0);
        assert!(out.token_count() < 5);
    }

    #[test]
    fn coverage_is_high_but_not_perfect() {
        // Per-page failures should show up over many pages.
        let (_doc, file) = doc_with_quality(TextLayerQuality::Clean, 12);
        let mut total_parsed = 0usize;
        let mut total_pages = 0usize;
        for seed in 0..8u64 {
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            use rand::SeedableRng;
            let out = PypdfParser::new().parse_file(&file, &mut rng).unwrap();
            total_parsed += out.pages_parsed;
            total_pages += out.pages_total;
        }
        let coverage = total_parsed as f64 / total_pages as f64;
        assert!(coverage > 0.85 && coverage < 1.0, "coverage = {coverage}");
    }
}
