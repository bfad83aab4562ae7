//! Tesseract simulator: LSTM-based optical character recognition.
//!
//! Tesseract recognizes text line-by-line from page images, so it does not
//! care whether a text layer exists — but its accuracy tracks raster
//! legibility, it cannot reconstruct LaTeX, and it is orders of magnitude
//! slower than extraction (CPU-bound, roughly seconds per page).

use docmodel::corrupt;
use docmodel::spdf::{SpdfFile, SpdfPage};
use rand::RngCore;

use crate::cost::content_difficulty;
use crate::traits::{assemble_pages, ParseError, ParseOutput, ParserKind};

/// Recognize one page from its image; `None` when nothing comes back.
pub(crate) fn recognize_page<R: RngCore + ?Sized>(page: &SpdfPage, rng: &mut R) -> Option<String> {
    let glyphs = page.glyph_text.as_str();
    if glyphs.trim().is_empty() {
        return None;
    }
    // OCR flattens math into character soup before misreading it.
    let text = corrupt::mangle_latex(glyphs);
    // Classic OCR engines read character by character; recognition error
    // scales with how degraded the render is.
    let text = corrupt::ocr_noise(&text, 0.35 + 0.65 * page.image.legibility(), rng);
    // Severely degraded pages sometimes come back empty.
    (!text.trim().is_empty()).then_some(text)
}

/// [`ParserKind::parse_file`] for Tesseract: [`recognize_page`] on every
/// page, priced up for illegible renders.
pub(crate) fn parse_file<R: RngCore + ?Sized>(
    file: &SpdfFile,
    rng: &mut R,
) -> Result<ParseOutput, ParseError> {
    let mut legibility_sum = 0.0;
    let pages = file.pages.iter().map(|page| {
        legibility_sum += page.image.legibility();
        (content_difficulty(&page.glyph_text), recognize_page(page, rng))
    });
    let mut output = assemble_pages(ParserKind::Tesseract, pages)?;
    let mean_legibility = legibility_sum / file.pages.len() as f64;
    // Degraded scans cost more OCR passes (binarization retries etc.).
    output.cost = output.cost.scaled(1.0 + 0.5 * (1.0 - mean_legibility));
    Ok(output)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{doc_with_quality, parse_doc, scanned_doc};
    use docmodel::textlayer::TextLayerQuality;
    use textmetrics::bleu::sentence_bleu;

    #[test]
    fn ocr_ignores_the_text_layer() {
        // Even with a missing text layer, OCR recovers most of the content.
        let (doc, file) = doc_with_quality(TextLayerQuality::Missing, 3);
        let out = parse_doc(ParserKind::Tesseract, &file);
        assert!(out.pages_parsed > 0);
        let bleu = sentence_bleu(&out.text, &doc.ground_truth());
        let extraction = parse_doc(ParserKind::PyMuPdf, &file);
        let extraction_bleu = sentence_bleu(&extraction.text, &doc.ground_truth());
        assert!(bleu > extraction_bleu, "OCR {bleu} must beat extraction {extraction_bleu} on scans");
    }

    #[test]
    fn accuracy_tracks_image_legibility() {
        let (doc_good, file_good) = scanned_doc(3, false);
        let (doc_bad, file_bad) = scanned_doc(3, true);
        let good = parse_doc(ParserKind::Tesseract, &file_good);
        let bad = parse_doc(ParserKind::Tesseract, &file_bad);
        let bleu_good = sentence_bleu(&good.text, &doc_good.ground_truth());
        let bleu_bad = sentence_bleu(&bad.text, &doc_bad.ground_truth());
        assert!(bleu_good > bleu_bad, "legible {bleu_good} must beat degraded {bleu_bad}");
        // Degraded scans also cost more.
        assert!(bad.cost.cpu_seconds > good.cost.cpu_seconds * 0.9);
    }

    #[test]
    fn ocr_is_much_slower_than_extraction() {
        let (_doc, file) = doc_with_quality(TextLayerQuality::Clean, 5);
        let ocr = parse_doc(ParserKind::Tesseract, &file);
        let extraction = parse_doc(ParserKind::PyMuPdf, &file);
        assert!(ocr.cost.cpu_seconds > extraction.cost.cpu_seconds * 20.0);
        assert_eq!(ocr.cost.gpu_seconds, 0.0);
    }

    #[test]
    fn no_latex_in_ocr_output() {
        let (_doc, file) = doc_with_quality(TextLayerQuality::Clean, 3);
        let out = parse_doc(ParserKind::Tesseract, &file);
        assert!(!out.text.contains("\\frac"));
        assert!(!out.text.contains("$$"));
    }
}
