//! Marker simulator: layout detection followed by per-element recognition.
//!
//! Marker runs an explicit layout-detection stage before recognizing each
//! element with texify, which gives it the highest page coverage of all
//! parsers, markdown-formatted output, but slightly lower text fidelity than
//! Nougat and the worst throughput of the zoo (≈0.1 PDF/s per node).

use docmodel::corrupt;
use docmodel::spdf::SpdfFile;
use rand::{Rng, RngCore};

use crate::cost::content_difficulty;
use crate::failure;
use crate::traits::{assemble_pages, ParseError, ParseOutput, ParserKind};

/// [`ParserKind::parse_file`] for Marker.
pub(crate) fn parse_file(file: &SpdfFile, rng: &mut dyn RngCore) -> Result<ParseOutput, ParseError> {
    // Layout detection almost never loses a whole page.
    let keep = failure::page_drop_mask(file.pages.len(), 0.02, rng);
    let pages = file.pages.iter().zip(keep).map(|(page, keep_page)| {
        let glyphs = page.glyph_text.as_str();
        let difficulty = content_difficulty(glyphs);
        if !keep_page || glyphs.trim().is_empty() {
            return (difficulty, None);
        }
        let legibility = page.image.legibility();
        // texify keeps most LaTeX, but layout segmentation sometimes hands
        // an equation block to the plain-text recognizer.
        let text = if rng.gen_bool(0.4) { corrupt::mangle_latex(glyphs) } else { glyphs.to_string() };
        let text = corrupt::ocr_noise(&text, 0.78 + 0.22 * legibility, rng);
        // Aggressive markdown conversion (headings, table pipes).
        (difficulty, Some(failure::markdownify(&text, 1)))
    });
    assemble_pages(ParserKind::Marker, pages)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{doc_with_quality, parse_doc};
    use docmodel::textlayer::TextLayerQuality;
    use textmetrics::bleu::sentence_bleu;

    #[test]
    fn marker_has_highest_coverage() {
        let (_doc, file) = doc_with_quality(TextLayerQuality::Clean, 12);
        let mut marker_cov = 0.0;
        let mut nougat_cov = 0.0;
        let n = 10u64;
        for seed in 0..n {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            marker_cov += ParserKind::Marker.parse_file(&file, &mut rng).unwrap().coverage();
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            nougat_cov += ParserKind::Nougat.parse_file(&file, &mut rng).unwrap().coverage();
        }
        assert!(marker_cov >= nougat_cov, "marker {marker_cov} vs nougat {nougat_cov}");
    }

    #[test]
    fn marker_is_the_most_expensive_parser() {
        let (_doc, file) = doc_with_quality(TextLayerQuality::Clean, 5);
        let marker = parse_doc(ParserKind::Marker, &file);
        let nougat = parse_doc(ParserKind::Nougat, &file);
        assert!(marker.cost.gpu_seconds > nougat.cost.gpu_seconds);
    }

    #[test]
    fn marker_output_is_markdown_flavoured() {
        let (_doc, file) = doc_with_quality(TextLayerQuality::Clean, 3);
        let out = parse_doc(ParserKind::Marker, &file);
        assert!(out.text.contains('#') || out.text.contains('|'), "markdown artifacts expected");
    }

    #[test]
    fn marker_quality_is_reasonable_but_below_nougat_on_average() {
        let (doc, file) = doc_with_quality(TextLayerQuality::Missing, 6);
        let gt = doc.ground_truth();
        let mut marker_bleu = 0.0;
        let mut nougat_bleu = 0.0;
        let n = 6u64;
        for seed in 0..n {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            marker_bleu += sentence_bleu(&ParserKind::Marker.parse_file(&file, &mut rng).unwrap().text, &gt);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let nougat = crate::nougat::parse_with_page_drops(&file, 0.0, &mut rng).unwrap();
            nougat_bleu += sentence_bleu(&nougat.text, &gt);
        }
        assert!(marker_bleu > 0.0);
        assert!(nougat_bleu > marker_bleu, "nougat {nougat_bleu} should beat marker {marker_bleu}");
    }
}
