//! The supervised dataset behind the selector: per-document first-page text,
//! metadata features and per-parser BLEU targets.
//!
//! In the paper the regression dataset holds N = 29 200 (page text, BLEU)
//! pairs with an m = 6 dimensional target (one accuracy per parser). Here the
//! dataset is built by running the parser zoo over a generated corpus and
//! scoring each output against ground truth.

use docmodel::document::Document;
use parsersim::evaluate::{evaluate_corpus, DocumentEvaluation};
use parsersim::ParserKind;
use serde::{Deserialize, Serialize};

/// One training/evaluation sample.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AccuracySample {
    /// Document identifier.
    pub doc_id: u64,
    /// PyMuPDF extraction of the first page (CLS I / CLS III input).
    pub first_page_text: String,
    /// Document title (CLS II input).
    pub title: String,
    /// Dense metadata features (CLS I / CLS II input).
    pub metadata_features: Vec<f64>,
    /// Per-parser BLEU targets in [`ParserKind::ALL`] order.
    pub targets: Vec<f64>,
    /// Number of pages in the document.
    pub pages: usize,
}

impl AccuracySample {
    /// Index (into [`ParserKind::ALL`]) of the BLEU-maximal parser.
    pub fn best_parser_index(&self) -> usize {
        let mut best = 0;
        for (i, v) in self.targets.iter().enumerate() {
            if *v > self.targets[best] {
                best = i;
            }
        }
        best
    }

    /// The BLEU-maximal parser.
    pub fn best_parser(&self) -> ParserKind {
        ParserKind::ALL[self.best_parser_index()]
    }

    /// BLEU of a specific parser on this document.
    pub fn target_for(&self, kind: ParserKind) -> f64 {
        self.targets[kind.index()]
    }

    /// Expected improvement of the best parser over PyMuPDF.
    pub fn improvement_over_extraction(&self) -> f64 {
        self.targets[self.best_parser_index()] - self.target_for(ParserKind::PyMuPdf)
    }
}

/// The samples' first-page texts, in order (what the batched CLS III entry
/// points take).
pub(crate) fn first_page_texts(samples: &[AccuracySample]) -> Vec<&str> {
    samples.iter().map(|s| s.first_page_text.as_str()).collect()
}

/// A dataset of [`AccuracySample`]s with a train/test split boundary.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct AccuracyDataset {
    samples: Vec<AccuracySample>,
    train_len: usize,
}

impl AccuracyDataset {
    /// Build a dataset by evaluating `documents` with the full parser zoo.
    ///
    /// `train_fraction` of the samples (in document order) become the
    /// training split; the rest are the test split.
    pub fn build(documents: &[Document], seed: u64, train_fraction: f64) -> AccuracyDataset {
        let evaluations = evaluate_corpus(documents, seed);
        Self::from_evaluations(documents, &evaluations, train_fraction)
    }

    /// Build from precomputed evaluations (avoids re-running the parsers).
    ///
    /// # Panics
    ///
    /// Panics if `documents` and `evaluations` have different lengths.
    pub fn from_evaluations(
        documents: &[Document],
        evaluations: &[DocumentEvaluation],
        train_fraction: f64,
    ) -> AccuracyDataset {
        assert_eq!(documents.len(), evaluations.len(), "documents/evaluations length mismatch");
        let samples: Vec<AccuracySample> = documents
            .iter()
            .zip(evaluations.iter())
            .map(|(doc, eval)| AccuracySample {
                doc_id: doc.id.0,
                first_page_text: eval.first_page_extraction.clone(),
                title: doc.metadata.title.clone(),
                metadata_features: doc.metadata.feature_vector(),
                targets: eval.bleu_targets(),
                pages: doc.page_count(),
            })
            .collect();
        let train_len =
            (((samples.len() as f64) * train_fraction.clamp(0.0, 1.0)).round() as usize).min(samples.len());
        AccuracyDataset { samples, train_len }
    }

    /// All samples.
    pub fn samples(&self) -> &[AccuracySample] {
        &self.samples
    }

    /// Training split.
    pub fn train(&self) -> &[AccuracySample] {
        &self.samples[..self.train_len]
    }

    /// Test split.
    pub fn test(&self) -> &[AccuracySample] {
        &self.samples[self.train_len..]
    }

    /// Number of samples.
    pub fn len(&self) -> usize {
        self.samples.len()
    }

    /// Whether the dataset is empty.
    pub fn is_empty(&self) -> bool {
        self.samples.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scicorpus::generator::{DocumentGenerator, GeneratorConfig};

    fn dataset(n: usize) -> AccuracyDataset {
        let docs = DocumentGenerator::new(GeneratorConfig {
            n_documents: n,
            seed: 61,
            min_pages: 1,
            max_pages: 2,
            ..Default::default()
        })
        .generate_many(n);
        AccuracyDataset::build(&docs, 3, 0.7)
    }

    #[test]
    fn dataset_has_full_targets_and_split() {
        let ds = dataset(12);
        assert_eq!(ds.len(), 12);
        assert_eq!(ds.train().len() + ds.test().len(), 12);
        assert!(!ds.train().is_empty());
        assert!(!ds.test().is_empty());
        for sample in ds.samples() {
            assert_eq!(sample.targets.len(), ParserKind::ALL.len());
            assert_eq!(sample.metadata_features.len(), 27);
            assert!(sample.targets.iter().all(|t| (0.0..=1.0).contains(t)));
        }
    }

    #[test]
    fn best_parser_helpers_agree() {
        let ds = dataset(6);
        for sample in ds.samples() {
            let idx = sample.best_parser_index();
            assert_eq!(sample.best_parser(), ParserKind::ALL[idx]);
            assert!(sample.improvement_over_extraction() >= -1e-12);
        }
    }

    #[test]
    fn empty_dataset_behaves() {
        let ds = AccuracyDataset::from_evaluations(&[], &[], 0.7);
        assert!(ds.is_empty());
    }
}
