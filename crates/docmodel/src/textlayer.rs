//! The embedded text layer of a document.
//!
//! Born-digital PDFs carry a text layer produced by the typesetting tool;
//! scanned PDFs either have none or carry one attached later by OCR software
//! of varying quality. Text-extraction parsers (PyMuPDF, pypdf) can only ever
//! return what this layer contains — which is exactly why they fail on
//! scanned or scrambled documents and why AdaParse predicts, from the
//! extracted text itself, whether a recognition parser is needed.

use rand::Rng;
use serde::{Deserialize, Serialize};

use crate::corrupt;

/// Quality class of the embedded text layer.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
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

impl TextLayerQuality {
    /// Expected fidelity of extraction output against ground truth, in `[0, 1]`.
    pub fn expected_fidelity(&self) -> f64 {
        match self {
            TextLayerQuality::Clean => 0.97,
            TextLayerQuality::LatexMangled => 0.80,
            TextLayerQuality::OcrGenerated { error_rate } => (1.0 - error_rate).clamp(0.0, 1.0) * 0.9,
            TextLayerQuality::Scrambled => 0.35,
            TextLayerQuality::Missing => 0.0,
        }
    }
}

/// Per-page embedded text plus its quality class.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct TextLayer {
    /// Quality class describing how the layer was produced.
    pub quality: TextLayerQuality,
    /// Embedded text for each page; empty strings for missing layers.
    pub pages: Vec<String>,
}

impl TextLayer {
    /// A faithful text layer equal to the ground-truth page text.
    pub fn clean(ground_truth_pages: &[String]) -> Self {
        TextLayer { quality: TextLayerQuality::Clean, pages: ground_truth_pages.to_vec() }
    }

    /// An entirely missing text layer (pure scan) for `page_count` pages.
    pub fn missing(page_count: usize) -> Self {
        TextLayer { quality: TextLayerQuality::Missing, pages: vec![String::new(); page_count] }
    }

    /// Build a text layer of the requested quality from ground-truth page
    /// text, applying the corresponding corruption model.
    pub fn from_ground_truth<R: Rng + ?Sized>(
        ground_truth_pages: &[String],
        quality: TextLayerQuality,
        rng: &mut R,
    ) -> Self {
        let pages = ground_truth_pages
            .iter()
            .map(|gt| match quality {
                TextLayerQuality::Clean => gt.clone(),
                TextLayerQuality::LatexMangled => corrupt::mangle_latex(gt),
                TextLayerQuality::OcrGenerated { error_rate } => {
                    let legibility = (1.0 - error_rate).clamp(0.0, 1.0);
                    corrupt::ocr_noise(gt, legibility, rng)
                }
                TextLayerQuality::Scrambled => {
                    let shuffled = corrupt::shuffle_word_order(gt, 0.8, rng);
                    corrupt::scramble_characters(&shuffled, 0.6, rng)
                }
                TextLayerQuality::Missing => String::new(),
            })
            .collect();
        TextLayer { quality, pages }
    }

    /// Number of pages covered by the layer.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Whether the layer contains any non-whitespace text at all.
    pub fn has_text(&self) -> bool {
        self.pages.iter().any(|p| !p.trim().is_empty())
    }

    /// Embedded text of one page, if it exists.
    pub fn page(&self, index: usize) -> Option<&str> {
        self.pages.get(index).map(|s| s.as_str())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    fn gt_pages() -> Vec<String> {
        vec![
            "The enzyme kinetics follow Michaelis Menten behaviour with $$ v = \\frac{V_m S}{K_m + S} $$ in vitro.".to_string(),
            "Scaling laws govern the throughput of parallel parsing campaigns on leadership class systems.".to_string(),
        ]
    }

    #[test]
    fn clean_layer_equals_ground_truth() {
        let gt = gt_pages();
        let layer = TextLayer::clean(&gt);
        assert_eq!(layer.pages, gt);
        assert!(layer.has_text());
        assert_eq!(layer.page_count(), 2);
        assert_eq!(layer.page(0).unwrap(), gt[0]);
        assert!(layer.page(5).is_none());
    }

    #[test]
    fn missing_layer_has_no_text() {
        let layer = TextLayer::missing(3);
        assert_eq!(layer.page_count(), 3);
        assert!(!layer.has_text());
        assert_eq!(layer.expected_fidelity_of_quality(), 0.0);
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
        assert!(layer.has_text());
    }

    #[test]
    fn latex_mangled_layer_strips_markup() {
        let gt = gt_pages();
        let mut rng = StdRng::seed_from_u64(13);
        let layer = TextLayer::from_ground_truth(&gt, TextLayerQuality::LatexMangled, &mut rng);
        assert!(!layer.pages[0].contains('\\'));
        assert!(!layer.pages[0].contains('$'));
    }

    #[test]
    fn expected_fidelity_ordering() {
        assert!(
            TextLayerQuality::Clean.expected_fidelity() > TextLayerQuality::LatexMangled.expected_fidelity()
        );
        assert!(
            TextLayerQuality::LatexMangled.expected_fidelity()
                > TextLayerQuality::Scrambled.expected_fidelity()
        );
        assert_eq!(TextLayerQuality::Missing.expected_fidelity(), 0.0);
        let o = TextLayerQuality::OcrGenerated { error_rate: 0.1 };
        assert!(o.expected_fidelity() > 0.5);
    }

    impl TextLayer {
        fn expected_fidelity_of_quality(&self) -> f64 {
            self.quality.expected_fidelity()
        }
    }
}
