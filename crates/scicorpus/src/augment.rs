//! Corpus augmentation pipelines (paper §6.2 / §7.2).
//!
//! Two regimes are evaluated in the paper beyond the unmodified test set:
//!
//! 1. **Simulated scans** (Table 2): a 15 % subset of documents has its image
//!    layer degraded with random rotation, contrast adjustment, Gaussian blur
//!    and compression. Text extraction is unaffected; recognition parsers
//!    suffer.
//! 2. **OCR-degraded text layers** (Table 3): a 15 % subset has its embedded
//!    text layer replaced with the output of a common OCR/structuring tool,
//!    harming extraction parsers while leaving images untouched.

use docmodel::document::Document;
use docmodel::textlayer::{TextLayer, TextLayerQuality};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Configuration shared by the augmentation passes.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct AugmentConfig {
    /// Fraction of documents to augment (the paper uses 0.15).
    pub fraction: f64,
    /// RNG seed for selecting and degrading documents.
    pub seed: u64,
}

impl Default for AugmentConfig {
    fn default() -> Self {
        AugmentConfig { fraction: 0.15, seed: 99 }
    }
}

/// Degrade the image layer of a random `fraction` of documents in place
/// (Table 2 regime). Returns the indices of augmented documents.
pub fn augment_image_layers(documents: &mut [Document], config: &AugmentConfig) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(config.seed);
    let mut touched = Vec::new();
    for (index, doc) in documents.iter_mut().enumerate() {
        if rng.gen_bool(config.fraction.clamp(0.0, 1.0)) {
            doc.image_layer.degrade_all(&mut rng);
            touched.push(index);
        }
    }
    touched
}

/// Replace the embedded text layer of a random `fraction` of documents with
/// simulated OCR output (Table 3 regime). Returns the indices of augmented
/// documents.
pub fn augment_text_layers(documents: &mut [Document], config: &AugmentConfig) -> Vec<usize> {
    let mut rng = StdRng::seed_from_u64(config.seed.wrapping_add(1));
    let mut touched = Vec::new();
    for (index, doc) in documents.iter_mut().enumerate() {
        if rng.gen_bool(config.fraction.clamp(0.0, 1.0)) {
            let gt = doc.ground_truth_pages();
            // The replacement layer mimics what "common tools" (Tesseract or
            // GROBID, per the paper) attach: OCR noise whose severity depends
            // on how legible the page images are.
            let error_rate = 0.08 + 0.5 * (1.0 - doc.image_layer.mean_legibility());
            doc.text_layer = TextLayer::from_ground_truth(
                &gt,
                TextLayerQuality::OcrGenerated { error_rate: error_rate.clamp(0.0, 0.9) },
                &mut rng,
            );
            touched.push(index);
        }
    }
    touched
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::generator::{DocumentGenerator, GeneratorConfig};

    fn corpus(n: usize) -> Vec<Document> {
        DocumentGenerator::new(GeneratorConfig {
            n_documents: n,
            seed: 21,
            min_pages: 1,
            max_pages: 3,
            ..Default::default()
        })
        .generate_many(n)
    }

    #[test]
    fn image_augmentation_touches_roughly_the_requested_fraction() {
        let mut docs = corpus(200);
        let config = AugmentConfig { fraction: 0.15, seed: 3 };
        let touched = augment_image_layers(&mut docs, &config);
        let fraction = touched.len() as f64 / docs.len() as f64;
        assert!((0.05..0.30).contains(&fraction), "fraction = {fraction}");
        for &i in &touched {
            assert!(docs[i].image_layer.scanned);
        }
    }

    #[test]
    fn image_augmentation_lowers_legibility_only_for_touched_docs() {
        let mut docs = corpus(60);
        let before: Vec<f64> = docs.iter().map(|d| d.image_layer.mean_legibility()).collect();
        let touched = augment_image_layers(&mut docs, &AugmentConfig { fraction: 0.4, seed: 5 });
        for (i, doc) in docs.iter().enumerate() {
            if touched.contains(&i) {
                assert!(doc.image_layer.mean_legibility() < before[i]);
            } else {
                assert!((doc.image_layer.mean_legibility() - before[i]).abs() < 1e-12);
            }
        }
    }

    #[test]
    fn text_augmentation_replaces_layer_with_ocr_quality() {
        let mut docs = corpus(80);
        let touched = augment_text_layers(&mut docs, &AugmentConfig { fraction: 0.5, seed: 7 });
        assert!(!touched.is_empty());
        for &i in &touched {
            assert!(matches!(docs[i].text_layer.quality, TextLayerQuality::OcrGenerated { .. }));
            // Ground truth is untouched by text-layer replacement.
            assert!(docs[i].word_count() > 0);
        }
    }

    #[test]
    fn zero_fraction_is_a_noop() {
        let mut docs = corpus(30);
        let original = docs.clone();
        let config = AugmentConfig { fraction: 0.0, seed: 1 };
        assert!(augment_image_layers(&mut docs, &config).is_empty());
        assert!(augment_text_layers(&mut docs, &config).is_empty());
        assert_eq!(docs, original);
    }

    #[test]
    fn augmentation_is_deterministic_per_seed() {
        let mut a = corpus(50);
        let mut b = corpus(50);
        let config = AugmentConfig { fraction: 0.3, seed: 77 };
        let ta = augment_image_layers(&mut a, &config);
        let tb = augment_image_layers(&mut b, &config);
        assert_eq!(ta, tb);
        assert_eq!(a, b);
    }
}
