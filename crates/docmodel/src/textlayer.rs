//! The embedded text layer of a document.
//!
//! Born-digital PDFs carry a text layer produced by the typesetting tool;
//! scanned PDFs either have none or carry one attached later by OCR software
//! of varying quality. Text-extraction parsers (PyMuPDF, pypdf) can only ever
//! return what this layer contains — which is exactly why they fail on
//! scanned or scrambled documents and why AdaParse predicts, from the
//! extracted text itself, whether a recognition parser is needed.

use std::borrow::Cow;

use rand::Rng;

use crate::corrupt;

/// Quality class of the embedded text layer.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum TextLayerQuality {
    /// Faithful text layer written by the typesetting tool.
    Clean,
    /// LaTeX-heavy layer: equations are present but stored as the garbled
    /// plaintext extraction produces (paper failure mode f).
    LatexMangled,
    /// Text layer attached by an OCR pass with the given character error
    /// rate in `[0, 1]`.
    OcrGenerated {
        /// Character error rate of the OCR pass that produced the layer.
        error_rate: f64,
    },
    /// Author-scrambled or font-subset-damaged layer: word order and
    /// characters are shuffled (extraction-hostile documents).
    Scrambled,
    /// No embedded text at all (pure scan).
    Missing,
}

/// Per-page embedded text plus its quality class.
#[derive(Debug, Clone, PartialEq)]
pub struct TextLayer {
    /// Quality class describing how the layer was produced.
    pub quality: TextLayerQuality,
    /// Embedded text for each page; empty strings for missing layers.
    pub pages: Vec<String>,
}

impl TextLayer {
    /// Build a text layer of the requested quality from ground-truth page
    /// text, applying the corresponding corruption model. Every page is
    /// stored at exactly its length. A clean layer moves owned pages in
    /// (cloning borrowed ones).
    pub fn from_ground_truth<'a, R: Rng + ?Sized>(
        ground_truth_pages: impl Into<Cow<'a, [String]>>,
        quality: TextLayerQuality,
        rng: &mut R,
    ) -> Self {
        let ground_truth_pages = ground_truth_pages.into();
        let pages = match quality {
            TextLayerQuality::Clean => ground_truth_pages.into_owned().into_iter().map(exact).collect(),
            TextLayerQuality::LatexMangled => {
                ground_truth_pages.iter().map(|gt| exact(corrupt::mangle_latex(gt))).collect()
            }
            TextLayerQuality::OcrGenerated { error_rate } => {
                let legibility = (1.0 - error_rate).clamp(0.0, 1.0);
                ground_truth_pages.iter().map(|gt| exact(corrupt::ocr_noise(gt, legibility, rng))).collect()
            }
            TextLayerQuality::Scrambled => ground_truth_pages
                .iter()
                .map(|gt| {
                    // Shuffling draws everything it draws before scrambling
                    // starts, so the scramble can run over its word list
                    // rather than re-split the joined text.
                    let words = corrupt::shuffled_words(gt, 0.8, rng);
                    let len = words.iter().map(|w| w.len() + 1).sum::<usize>().saturating_sub(1);
                    corrupt::scramble_words(words, len, 0.6, rng)
                })
                .collect(),
            TextLayerQuality::Missing => vec![String::new(); ground_truth_pages.len()],
        };
        TextLayer { quality, pages }
    }

    /// Number of pages covered by the layer.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Embedded text of one page, if it exists.
    pub fn page(&self, index: usize) -> Option<&str> {
        self.pages.get(index).map(|s| s.as_str())
    }
}

/// `page` without spare capacity: a corruption pass reserves the input's
/// length and may drop characters, and a ground-truth page grew as it was
/// written. Shrinking leaves the text where it is.
fn exact(mut page: String) -> String {
    page.shrink_to_fit();
    page
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn has_text(layer: &TextLayer) -> bool {
        layer.pages.iter().any(|p| !p.trim().is_empty())
    }

    fn gt_pages() -> Vec<String> {
        vec![
            "The enzyme kinetics follow Michaelis Menten behaviour with $$ v = \\frac{V_m S}{K_m + S} $$ in vitro.".to_string(),
            "Scaling laws govern the throughput of parallel parsing campaigns on leadership class systems.".to_string(),
        ]
    }

    #[test]
    fn clean_layer_equals_ground_truth() {
        let gt = gt_pages();
        let layer = TextLayer { quality: TextLayerQuality::Clean, pages: gt.clone() };
        assert_eq!(layer.pages, gt);
        assert!(has_text(&layer));
        assert_eq!(layer.page_count(), 2);
        assert_eq!(layer.page(0).unwrap(), gt[0]);
        assert!(layer.page(5).is_none());
    }

    #[test]
    fn missing_layer_has_no_text() {
        let layer = TextLayer { quality: TextLayerQuality::Missing, pages: vec![String::new(); 3] };
        assert_eq!(layer.page_count(), 3);
        assert!(!has_text(&layer));
    }

    #[test]
    fn ocr_generated_layer_degrades_with_error_rate() {
        let gt = gt_pages();
        let mut rng = StdRng::seed_from_u64(7);
        let mild =
            TextLayer::from_ground_truth(&gt, TextLayerQuality::OcrGenerated { error_rate: 0.05 }, &mut rng);
        let mut rng = StdRng::seed_from_u64(7);
        let severe =
            TextLayer::from_ground_truth(&gt, TextLayerQuality::OcrGenerated { error_rate: 0.6 }, &mut rng);
        let dist = |a: &str, b: &str| a.chars().zip(b.chars()).filter(|(x, y)| x != y).count();
        assert!(dist(&gt[0], &severe.pages[0]) >= dist(&gt[0], &mild.pages[0]));
    }

    #[test]
    fn scrambled_layer_differs_from_ground_truth() {
        let gt = gt_pages();
        let mut rng = StdRng::seed_from_u64(11);
        let layer = TextLayer::from_ground_truth(&gt, TextLayerQuality::Scrambled, &mut rng);
        assert_ne!(layer.pages[0], gt[0]);
        assert!(has_text(&layer));
    }

    #[test]
    fn latex_mangled_layer_strips_markup() {
        let gt = gt_pages();
        let mut rng = StdRng::seed_from_u64(13);
        let layer = TextLayer::from_ground_truth(&gt, TextLayerQuality::LatexMangled, &mut rng);
        assert!(!layer.pages[0].contains('\\'));
        assert!(!layer.pages[0].contains('$'));
    }
}
