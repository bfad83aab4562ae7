//! pypdf simulator: pure-Python text extraction.
//!
//! pypdf reads the same embedded text layer as PyMuPDF but an order of
//! magnitude more slowly and with heavier artifacts: aggressive whitespace
//! injection, character-case corruption from damaged font encodings (the
//! reason its character accuracy rate collapses in the paper's Table 1), and
//! occasional per-page extraction failures.

use docmodel::corrupt;
use docmodel::spdf::{SpdfFile, SpdfPage};
use rand::{Rng, RngCore};

use crate::cost::content_difficulty;
use crate::traits::{assemble_pages, ParseError, ParseOutput, ParserKind};

/// Extract one page from its embedded text layer; `None` when it has none or
/// the page's extraction fails.
pub(crate) fn extract_page(page: &SpdfPage, rng: &mut dyn RngCore) -> Option<String> {
    let embedded = page.embedded_text.as_str();
    if embedded.trim().is_empty() || rng.gen_bool(0.04) {
        return None;
    }
    let text = corrupt::mangle_latex(embedded);
    let text = corrupt::inject_whitespace(&text, 0.20, rng);
    let text = corrupt::scramble_characters(&text, 0.08, rng);
    // Damaged encodings flip case pervasively, cratering CAR.
    Some(crate::failure::corrupt_case(&text, 0.25, rng))
}

/// [`ParserKind::parse_file`] for pypdf: [`extract_page`] on every page.
pub(crate) fn parse_file(file: &SpdfFile, rng: &mut dyn RngCore) -> Result<ParseOutput, ParseError> {
    let pages =
        file.pages.iter().map(|page| (content_difficulty(&page.embedded_text), extract_page(page, rng)));
    assemble_pages(ParserKind::Pypdf, pages)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{doc_with_quality, parse_doc};
    use docmodel::textlayer::TextLayerQuality;
    use textmetrics::bleu::sentence_bleu;
    use textmetrics::levenshtein::char_accuracy_rate;

    #[test]
    fn pypdf_is_worse_and_slower_than_pymupdf() {
        let (doc, file) = doc_with_quality(TextLayerQuality::Clean, 4);
        let pypdf = parse_doc(ParserKind::Pypdf, &file);
        let pymupdf = parse_doc(ParserKind::PyMuPdf, &file);
        let gt = doc.ground_truth();
        assert!(sentence_bleu(&pypdf.text, &gt) < sentence_bleu(&pymupdf.text, &gt));
        assert!(pypdf.cost.cpu_seconds > pymupdf.cost.cpu_seconds * 5.0);
    }

    #[test]
    fn case_corruption_craters_car_but_not_bleu_as_much() {
        let (doc, file) = doc_with_quality(TextLayerQuality::Clean, 3);
        let out = parse_doc(ParserKind::Pypdf, &file);
        let gt = doc.ground_truth();
        let car = char_accuracy_rate(&out.text, &gt);
        let pymupdf_car = char_accuracy_rate(&parse_doc(ParserKind::PyMuPdf, &file).text, &gt);
        assert!(car < pymupdf_car, "pypdf CAR {car} should trail PyMuPDF {pymupdf_car}");
    }

    #[test]
    fn missing_layer_produces_nothing() {
        let (_doc, file) = doc_with_quality(TextLayerQuality::Missing, 2);
        let out = parse_doc(ParserKind::Pypdf, &file);
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
            let out = ParserKind::Pypdf.parse_file(&file, &mut rng).unwrap();
            total_parsed += out.pages_parsed;
            total_pages += out.pages_total;
        }
        let coverage = total_parsed as f64 / total_pages as f64;
        assert!(coverage > 0.85 && coverage < 1.0, "coverage = {coverage}");
    }
}
