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

use crate::cost::{content_difficulty, CostModel, ResourceCost};
use crate::failure;
use crate::traits::{assemble_pages, ParseError, ParseOutput, Parser, ParserKind};

/// Probability that Nougat silently drops a page.
pub const PAGE_DROP_PROBABILITY: f64 = 0.055;

/// Nougat ViT recognition simulator.
#[derive(Debug, Clone)]
pub struct NougatParser {
    cost: CostModel,
    page_drop_probability: f64,
}

impl Default for NougatParser {
    fn default() -> Self {
        Self::new()
    }
}

impl NougatParser {
    /// Create the simulator with the calibrated cost model.
    pub fn new() -> Self {
        NougatParser {
            cost: CostModel::for_parser(ParserKind::Nougat),
            page_drop_probability: PAGE_DROP_PROBABILITY,
        }
    }

    /// Override the page-drop probability (used by ablation benches).
    pub fn with_page_drop_probability(mut self, probability: f64) -> Self {
        self.page_drop_probability = probability.clamp(0.0, 1.0);
        self
    }
}

impl Parser for NougatParser {
    fn kind(&self) -> ParserKind {
        ParserKind::Nougat
    }

    fn parse_file(&self, file: &SpdfFile, rng: &mut dyn RngCore) -> Result<ParseOutput, ParseError> {
        let keep = failure::page_drop_mask(file.pages.len(), self.page_drop_probability, rng);
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
        assemble_pages(self.kind(), &self.cost, pages)
    }

    fn estimate_cost(&self, pages: usize) -> ResourceCost {
        self.cost.document_cost(pages, 0.3)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::pymupdf::PyMuPdfParser;
    use crate::testutil::{doc_with_quality, parse_doc, scanned_doc};
    use docmodel::textlayer::TextLayerQuality;
    use textmetrics::bleu::sentence_bleu;

    #[test]
    fn nougat_beats_extraction_on_documents_without_text_layers() {
        let (doc, file) = doc_with_quality(TextLayerQuality::Missing, 4);
        let nougat = parse_doc(&NougatParser::new(), &file);
        let pymupdf = parse_doc(&PyMuPdfParser::new(), &file);
        let gt = doc.ground_truth();
        assert!(sentence_bleu(&nougat.text, &gt) > sentence_bleu(&pymupdf.text, &gt));
    }

    #[test]
    fn nougat_preserves_latex() {
        let (doc, file) = doc_with_quality(TextLayerQuality::Clean, 3);
        let out = parse_doc(&NougatParser::new(), &file);
        if doc.ground_truth().contains("\\frac") {
            assert!(out.text.contains('\\'), "latex control sequences should survive");
        }
        assert!(out.cost.gpu_seconds > 0.0, "nougat consumes GPU time");
    }

    #[test]
    fn page_drops_reduce_coverage_below_one() {
        let parser = NougatParser::new().with_page_drop_probability(0.3);
        let (_doc, file) = doc_with_quality(TextLayerQuality::Clean, 10);
        let mut parsed = 0usize;
        let mut total = 0usize;
        for seed in 0..10u64 {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let out = parser.parse_file(&file, &mut rng).unwrap();
            parsed += out.pages_parsed;
            total += out.pages_total;
        }
        let coverage = parsed as f64 / total as f64;
        assert!(coverage < 0.95 && coverage > 0.4, "coverage = {coverage}");
    }

    #[test]
    fn disabling_page_drops_gives_full_coverage() {
        let parser = NougatParser::new().with_page_drop_probability(0.0);
        let (_doc, file) = doc_with_quality(TextLayerQuality::Clean, 6);
        let out = parse_doc(&parser, &file);
        assert_eq!(out.pages_parsed, out.pages_total);
    }

    #[test]
    fn nougat_is_robust_to_scan_degradation() {
        let (doc_good, file_good) = scanned_doc(3, false);
        let (doc_bad, file_bad) = scanned_doc(3, true);
        let parser = NougatParser::new().with_page_drop_probability(0.0);
        let good = sentence_bleu(&parse_doc(&parser, &file_good).text, &doc_good.ground_truth());
        let bad = sentence_bleu(&parse_doc(&parser, &file_bad).text, &doc_bad.ground_truth());
        // Quality drops, but far less than proportionally to the degradation.
        assert!(bad > good * 0.6, "good={good} bad={bad}");
    }
}
