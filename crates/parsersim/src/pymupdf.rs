//! PyMuPDF simulator: fast, high-fidelity text extraction.
//!
//! PyMuPDF reads the embedded text layer directly. On clean born-digital
//! documents its output is nearly perfect prose; its characteristic failures
//! are LaTeX-to-plaintext mangling of equations and the occasional injected
//! whitespace. On documents without a usable text layer it returns (almost)
//! nothing — which is exactly the signal AdaParse's CLS I stage keys on.

use docmodel::corrupt;
use docmodel::spdf::{SpdfFile, SpdfPage};
use rand::RngCore;

use crate::cost::content_difficulty;
use crate::traits::{assemble_pages, ParseError, ParseOutput, ParserKind};

/// Extract one page from its embedded text layer; `None` when it has none.
pub(crate) fn extract_page(page: &SpdfPage, rng: &mut dyn RngCore) -> Option<String> {
    let embedded = page.embedded_text.as_str();
    if embedded.trim().is_empty() {
        return None;
    }
    // Equations stored as glyph runs come back as flattened plaintext.
    let text = corrupt::mangle_latex(embedded);
    // Mild whitespace injection from glyph-positioning heuristics.
    Some(corrupt::inject_whitespace(&text, 0.01, rng))
}

/// [`ParserKind::parse_file`] for PyMuPDF: [`extract_page`] on every page.
pub(crate) fn parse_file(file: &SpdfFile, rng: &mut dyn RngCore) -> Result<ParseOutput, ParseError> {
    let pages =
        file.pages.iter().map(|page| (content_difficulty(&page.embedded_text), extract_page(page, rng)));
    assemble_pages(ParserKind::PyMuPdf, pages)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cost::CostModel;
    use crate::testutil::{doc_with_quality, parse_doc};
    use docmodel::textlayer::TextLayerQuality;
    use textmetrics::bleu::sentence_bleu;

    #[test]
    fn clean_text_layer_extracts_nearly_verbatim() {
        let (doc, file) = doc_with_quality(TextLayerQuality::Clean, 3);
        let out = parse_doc(ParserKind::PyMuPdf, &file);
        assert_eq!(out.pages_total, doc.page_count());
        assert_eq!(out.pages_parsed, doc.page_count());
        let bleu = sentence_bleu(&out.text, &doc.ground_truth());
        assert!(bleu > 0.6, "bleu = {bleu}");
        assert_eq!(out.cost.gpu_seconds, 0.0);
        assert!(out.cost.cpu_seconds > 0.0);
    }

    #[test]
    fn missing_text_layer_yields_empty_output() {
        let (_doc, file) = doc_with_quality(TextLayerQuality::Missing, 3);
        let out = parse_doc(ParserKind::PyMuPdf, &file);
        assert_eq!(out.pages_parsed, 0);
        assert_eq!(out.coverage(), 0.0);
        assert!(out.token_count() < 5);
    }

    #[test]
    fn scrambled_layer_extracts_garbage_but_fast() {
        let (doc, file) = doc_with_quality(TextLayerQuality::Scrambled, 2);
        let out = parse_doc(ParserKind::PyMuPdf, &file);
        let bleu = sentence_bleu(&out.text, &doc.ground_truth());
        let (clean_doc, clean_file) = doc_with_quality(TextLayerQuality::Clean, 2);
        let clean_out = parse_doc(ParserKind::PyMuPdf, &clean_file);
        let clean_bleu = sentence_bleu(&clean_out.text, &clean_doc.ground_truth());
        assert!(bleu < clean_bleu, "scrambled {bleu} must score below clean {clean_bleu}");
    }

    #[test]
    fn output_never_contains_latex_control_sequences() {
        let (_doc, file) = doc_with_quality(TextLayerQuality::Clean, 2);
        let out = parse_doc(ParserKind::PyMuPdf, &file);
        assert!(!out.text.contains('\\'));
        assert!(!out.text.contains("$$"));
    }

    #[test]
    fn estimate_matches_actual_order_of_magnitude() {
        let (_doc, file) = doc_with_quality(TextLayerQuality::Clean, 4);
        let out = parse_doc(ParserKind::PyMuPdf, &file);
        // What the scheduler plans with: the cost model at difficulty 0.3.
        let estimate = CostModel::for_parser(ParserKind::PyMuPdf).document_cost(file.pages.len(), 0.3);
        assert!(out.cost.cpu_seconds < estimate.cpu_seconds * 3.0 + 0.1);
        assert!(estimate.cpu_seconds < out.cost.cpu_seconds * 3.0 + 0.1);
    }
}
