//! CLS II: metadata-driven prediction of whether a better parse is likely.
//!
//! For documents whose extraction passed CLS I, the second stage asks a
//! cheaper question than "which parser is best": *is any other parser likely
//! to improve meaningfully over the extraction?* The paper infers this binary
//! label from metadata (authoring tool, year, number of pages, publisher).

use mlcore::linear::LogisticRegression;

use crate::dataset::AccuracySample;

/// Improvement threshold (in BLEU) above which a document is labelled
/// "another parser would meaningfully improve it".
pub const DEFAULT_IMPROVEMENT_THRESHOLD: f64 = 0.05;

/// Metadata-driven binary classifier: "is an improvement likely?".
#[derive(Debug, Clone, PartialEq)]
pub struct ImprovementClassifier {
    model: LogisticRegression,
}

impl ImprovementClassifier {
    /// Untrained classifier for the standard 27+1-dimensional metadata
    /// feature vector (metadata one-hots plus normalized page count).
    pub fn new() -> Self {
        ImprovementClassifier { model: LogisticRegression::new(28) }
    }

    fn features(metadata_features: &[f64], pages: usize) -> Vec<f64> {
        let mut f = Vec::with_capacity(metadata_features.len() + 1);
        f.extend_from_slice(metadata_features);
        f.push((pages as f64 / 30.0).min(2.0));
        f
    }

    fn label(sample: &AccuracySample) -> bool {
        sample.improvement_over_extraction() > DEFAULT_IMPROVEMENT_THRESHOLD
    }

    /// Train on labelled samples.
    pub fn fit(&mut self, samples: &[AccuracySample]) {
        if samples.is_empty() {
            return;
        }
        let xs: Vec<Vec<f64>> =
            samples.iter().map(|s| Self::features(&s.metadata_features, s.pages)).collect();
        let ys: Vec<bool> = samples.iter().map(Self::label).collect();
        self.model.fit(&xs, &ys, 300, 0.5, 1e-4);
    }

    /// Probability that another parser meaningfully improves a document,
    /// from its metadata feature vector and page count.
    pub fn probability_from(&self, metadata_features: &[f64], pages: usize) -> f64 {
        self.model.predict_proba(&Self::features(metadata_features, pages))
    }
}

impl Default for ImprovementClassifier {
    fn default() -> Self {
        Self::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsersim::ParserKind;

    /// Synthetic samples where scanner-produced documents (producer one-hot
    /// index 18 in the 27-feature metadata vector) improve a lot and
    /// born-digital ones do not.
    fn synthetic_samples(n: usize) -> Vec<AccuracySample> {
        (0..n)
            .map(|i| {
                let scanned = i % 2 == 0;
                let mut metadata = vec![0.0; 27];
                metadata[0] = 1.0; // publisher
                metadata[6] = 1.0; // domain
                metadata[14 + if scanned { 4 } else { 0 }] = 1.0; // producer: Scanner vs PdfLatex
                metadata[21 + 3] = 1.0; // format 1.7
                metadata[26] = 0.85;
                let mut targets = vec![0.3; ParserKind::ALL.len()];
                if scanned {
                    targets[ParserKind::PyMuPdf.index()] = 0.05;
                    targets[ParserKind::Nougat.index()] = 0.6;
                } else {
                    targets[ParserKind::PyMuPdf.index()] = 0.62;
                    targets[ParserKind::Nougat.index()] = 0.6;
                }
                AccuracySample {
                    doc_id: i as u64,
                    first_page_text: String::new(),
                    title: String::new(),
                    metadata_features: metadata,
                    targets,
                    pages: 5,
                }
            })
            .collect()
    }

    #[test]
    fn classifier_learns_the_metadata_signal() {
        let samples = synthetic_samples(120);
        let mut clf = ImprovementClassifier::new();
        clf.fit(&samples);
        // Scanner docs (even indices) should have high improvement probability.
        let probability = |s: &AccuracySample| clf.probability_from(&s.metadata_features, s.pages);
        assert!(probability(&samples[0]) > 0.6);
        assert!(probability(&samples[1]) < 0.4);
    }

    #[test]
    fn untrained_classifier_is_indifferent() {
        let clf = ImprovementClassifier::new();
        let samples = synthetic_samples(2);
        let p = clf.probability_from(&samples[0].metadata_features, samples[0].pages);
        assert!((p - 0.5).abs() < 1e-9);
    }

    #[test]
    fn empty_fit_is_a_no_op() {
        let mut clf = ImprovementClassifier::new();
        clf.fit(&[]);
        assert_eq!(clf, ImprovementClassifier::new());
    }
}
