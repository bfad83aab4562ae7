//! GROBID simulator: structure-oriented extraction.
//!
//! GROBID excels at bibliographic structure (references, affiliations,
//! metadata) but produces comparatively poor full-text output: equations,
//! tables and figures are dropped or mis-segmented, and whole sections can be
//! skipped when its layout models fail — which is why it has the lowest
//! coverage and BLEU among the paper's parsers despite being "smart".

use docmodel::corrupt;
use docmodel::spdf::SpdfFile;
use rand::{Rng, RngCore};

use crate::cost::content_difficulty;
use crate::failure;
use crate::traits::{assemble_pages, ParseError, ParseOutput, ParserKind};

/// [`ParserKind::parse_file`] for GROBID.
pub(crate) fn parse_file(file: &SpdfFile, rng: &mut dyn RngCore) -> Result<ParseOutput, ParseError> {
    // GROBID's segmentation models occasionally skip entire pages.
    let keep = failure::page_drop_mask(file.pages.len(), 0.16, rng);
    let pages = file.pages.iter().zip(keep).map(|(page, keep_page)| {
        let source = if page.embedded_text.trim().is_empty() {
            // Falls back to its internal OCR pass on image-only pages.
            corrupt::ocr_noise(&page.glyph_text, 0.5 + 0.5 * page.image.legibility(), rng)
        } else {
            page.embedded_text.clone()
        };
        let difficulty = content_difficulty(&source);
        if !keep_page || source.trim().is_empty() {
            return (difficulty, None);
        }
        // Structure-oriented output: equations, tables, figures and list
        // markers are not part of the body text model and get dropped.
        let text = failure::drop_lines(&source, |line| {
            let t = line.trim_start();
            t.starts_with("$$") || t.starts_with("Table:") || t.starts_with("Figure:") || t.starts_with("- ")
        });
        // Inline math fragments vanish too.
        let text = corrupt::mangle_latex(&text);
        // Sentence segmentation artifacts.
        let text = corrupt::inject_whitespace(&text, 0.05, rng);
        // Some body paragraphs are misclassified as front/back matter.
        let text = text.lines().filter(|_| !rng.gen_bool(0.10)).collect::<Vec<_>>().join("\n");
        (difficulty, Some(text).filter(|text| !text.trim().is_empty()))
    });
    assemble_pages(ParserKind::Grobid, pages)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::testutil::{doc_with_quality, parse_doc};
    use docmodel::textlayer::TextLayerQuality;
    use textmetrics::bleu::sentence_bleu;

    #[test]
    fn grobid_drops_structured_content() {
        let (_doc, file) = doc_with_quality(TextLayerQuality::Clean, 4);
        let out = parse_doc(ParserKind::Grobid, &file);
        assert!(!out.text.contains("Table:"));
        assert!(!out.text.contains("Figure:"));
        assert!(!out.text.contains("$$"));
    }

    #[test]
    fn grobid_has_lower_coverage_and_bleu_than_pymupdf_on_clean_docs() {
        // Aggregate over several seeds to smooth out page-drop randomness.
        let (doc, file) = doc_with_quality(TextLayerQuality::Clean, 8);
        let gt = doc.ground_truth();
        let mut grobid_cov = 0.0;
        let mut grobid_bleu = 0.0;
        let mut pymupdf_bleu = 0.0;
        let n = 6;
        for seed in 0..n {
            use rand::SeedableRng;
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let g = ParserKind::Grobid.parse_file(&file, &mut rng).unwrap();
            grobid_cov += g.coverage();
            grobid_bleu += sentence_bleu(&g.text, &gt);
            let mut rng = rand::rngs::StdRng::seed_from_u64(seed);
            let p = ParserKind::PyMuPdf.parse_file(&file, &mut rng).unwrap();
            pymupdf_bleu += sentence_bleu(&p.text, &gt);
        }
        let n = n as f64;
        assert!(grobid_cov / n < 0.98, "coverage = {}", grobid_cov / n);
        assert!(grobid_bleu / n < pymupdf_bleu / n, "grobid must trail pymupdf on clean text");
    }

    #[test]
    fn grobid_still_produces_text_on_scanned_documents() {
        let (_doc, file) = doc_with_quality(TextLayerQuality::Missing, 4);
        let out = parse_doc(ParserKind::Grobid, &file);
        assert!(out.token_count() > 20, "internal OCR fallback should produce text");
    }

    #[test]
    fn grobid_is_cpu_only() {
        let (_doc, file) = doc_with_quality(TextLayerQuality::Clean, 3);
        let out = parse_doc(ParserKind::Grobid, &file);
        assert_eq!(out.cost.gpu_seconds, 0.0);
        assert!(out.cost.cpu_seconds > 0.5);
    }
}
