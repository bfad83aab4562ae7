//! Nougat simulator: Vision-Transformer document recognition.
//!
//! Nougat decodes page images end-to-end into markdown-flavoured text with
//! LaTeX equations preserved, which makes it the highest-quality parser on
//! complex or degraded documents. It is GPU-bound (≈1–2 PDF/s per 4-GPU
//! node), pays a ≈15 s model-load cost per cold worker, and exhibits the
//! paper's most severe failure mode: entire pages silently dropped, plus the
//! occasional auto-regressive repetition loop.

use docmodel::corrupt;
use docmodel::spdf::SpdfFile;
use rand::RngCore;

use crate::cost::content_difficulty;
use crate::failure;
use crate::traits::{assemble_pages, ParseError, ParseOutput, ParserKind};

/// Probability that Nougat silently drops a page.
const PAGE_DROP_PROBABILITY: f64 = 0.055;

/// [`ParserKind::parse_file`] for Nougat.
pub(crate) fn parse_file(file: &SpdfFile, rng: &mut dyn RngCore) -> Result<ParseOutput, ParseError> {
    parse_with_page_drops(file, PAGE_DROP_PROBABILITY, rng)
}

/// Nougat with each page dropped independently with `page_drop_probability`
/// before recognition.
pub(crate) fn parse_with_page_drops(
    file: &SpdfFile,
    page_drop_probability: f64,
    rng: &mut dyn RngCore,
) -> Result<ParseOutput, ParseError> {
    let keep = failure::page_drop_mask(file.pages.len(), page_drop_probability, rng);
    let pages = file.pages.iter().zip(keep).map(|(page, keep_page)| {
        let glyphs = page.glyph_text.as_str();
        let difficulty = content_difficulty(glyphs);
        if !keep_page || glyphs.trim().is_empty() {
            return (difficulty, None);
        }
        // Trained on scan-style augmentations, so quality degrades only
        // mildly with raster legibility; LaTeX is preserved.
        let legibility = page.image.legibility();
        let text = corrupt::ocr_noise(glyphs, 0.85 + 0.15 * legibility, rng);
        let text = failure::repetition_loop(&text, 0.02, rng);
        (difficulty, Some(failure::markdownify(&text, 2)))
    });
    assemble_pages(ParserKind::Nougat, pages)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{doc_with_quality, parse_doc, scanned_doc};
    use docmodel::textlayer::TextLayerQuality;
    use rand::rngs::StdRng;
    use rand::SeedableRng;
    use textmetrics::bleu::sentence_bleu;

    /// Nougat with page drops disabled, at `parse_doc`'s seed.
    fn parse_without_drops(file: &SpdfFile) -> ParseOutput {
        parse_with_page_drops(file, 0.0, &mut StdRng::seed_from_u64(99)).expect("parse")
    }

    #[test]
    fn nougat_beats_extraction_on_documents_without_text_layers() {
        let (doc, file) = doc_with_quality(TextLayerQuality::Missing, 4);
        let nougat = parse_doc(ParserKind::Nougat, &file);
        let pymupdf = parse_doc(ParserKind::PyMuPdf, &file);
        let gt = doc.ground_truth();
        assert!(sentence_bleu(&nougat.text, &gt) > sentence_bleu(&pymupdf.text, &gt));
    }

    #[test]
    fn nougat_preserves_latex() {
        let (doc, file) = doc_with_quality(TextLayerQuality::Clean, 3);
        let out = parse_doc(ParserKind::Nougat, &file);
        if doc.ground_truth().contains("\\frac") {
            assert!(out.text.contains('\\'), "latex control sequences should survive");
        }
        assert!(out.cost.gpu_seconds > 0.0, "nougat consumes GPU time");
    }

    #[test]
    fn page_drops_reduce_coverage_below_one() {
        let (_doc, file) = doc_with_quality(TextLayerQuality::Clean, 10);
        let mut parsed = 0usize;
        let mut total = 0usize;
        for seed in 0..10u64 {
            let mut rng = StdRng::seed_from_u64(seed);
            let out = parse_with_page_drops(&file, 0.3, &mut rng).unwrap();
            parsed += out.pages_parsed;
            total += out.pages_total;
        }
        let coverage = parsed as f64 / total as f64;
        assert!(coverage < 0.95 && coverage > 0.4, "coverage = {coverage}");
    }

    #[test]
    fn disabling_page_drops_gives_full_coverage() {
        let (_doc, file) = doc_with_quality(TextLayerQuality::Clean, 6);
        let out = parse_without_drops(&file);
        assert_eq!(out.pages_parsed, out.pages_total);
    }

    #[test]
    fn nougat_is_robust_to_scan_degradation() {
        let (doc_good, file_good) = scanned_doc(3, false);
        let (doc_bad, file_bad) = scanned_doc(3, true);
        let good = sentence_bleu(&parse_without_drops(&file_good).text, &doc_good.ground_truth());
        let bad = sentence_bleu(&parse_without_drops(&file_bad).text, &doc_bad.ground_truth());
        // Quality drops, but far less than proportionally to the degradation.
        assert!(bad > good * 0.6, "good={good} bad={bad}");
    }
}
