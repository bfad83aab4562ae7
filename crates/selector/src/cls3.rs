//! CLS III: text-driven accuracy prediction and parser selection.
//!
//! The third stage embeds the first-page extraction with a frozen
//! "pretrained" encoder, regresses the BLEU every parser would achieve on the
//! document (the paper's m = 6 output head), and selects the argmax. Human
//! preference data enters through DPO: a scalar quality scorer is post-trained
//! on (preferred output, rejected output) pairs and distilled into a
//! per-parser alignment bias added to the predicted accuracies.

use mlcore::dpo::{DpoConfig, DpoTrainer, PreferencePair};
use mlcore::encoder::{EncoderProfile, PretrainedEncoder};
use mlcore::linear::LinearRegression;
use parsersim::ParserKind;
use serde::{Deserialize, Serialize};

use crate::dataset::{first_page_texts, AccuracySample};

/// A human preference between two parser outputs for the same document page.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParserPreference {
    /// Parser whose output was preferred.
    pub preferred: ParserKind,
    /// Text of the preferred output (a page-sized excerpt).
    pub preferred_text: String,
    /// Parser whose output was rejected.
    pub rejected: ParserKind,
    /// Text of the rejected output.
    pub rejected_text: String,
}

/// Configuration of the CLS III predictor. Supervised fine-tuning runs a
/// fixed 250 epochs at learning rate 0.4 with L2 1e-4.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PredictorConfig {
    /// Which frozen encoder to build on.
    pub encoder: EncoderProfile,
    /// Weight of the DPO-derived per-parser alignment bias.
    pub dpo_weight: f64,
    /// DPO hyperparameters.
    pub dpo: DpoConfig,
}

impl Default for PredictorConfig {
    fn default() -> Self {
        PredictorConfig { encoder: EncoderProfile::SciBert, dpo_weight: 0.05, dpo: DpoConfig::default() }
    }
}

/// The CLS III accuracy predictor.
#[derive(Debug, Clone)]
pub struct AccuracyPredictor {
    encoder: PretrainedEncoder,
    head: LinearRegression,
    parser_bias: Vec<f64>,
    config: PredictorConfig,
    dpo_pair_accuracy: Option<f64>,
}

impl AccuracyPredictor {
    /// Untrained predictor with the given configuration.
    pub fn new(config: PredictorConfig) -> Self {
        let encoder = PretrainedEncoder::new(config.encoder);
        let head = LinearRegression::new(encoder.embedding_dim(), ParserKind::ALL.len());
        AccuracyPredictor {
            encoder,
            head,
            parser_bias: vec![0.0; ParserKind::ALL.len()],
            config,
            dpo_pair_accuracy: None,
        }
    }

    /// Supervised fine-tuning: regress per-parser BLEU from first-page text.
    pub fn fit_regression(&mut self, samples: &[AccuracySample]) {
        if samples.is_empty() {
            return;
        }
        let xs = self.encoder.encode_batch(&first_page_texts(samples));
        let ys: Vec<Vec<f64>> = samples.iter().map(|s| s.targets.clone()).collect();
        // 250 epochs, learning rate 0.4, L2 regularization 1e-4.
        self.head.fit(&xs, &ys, 250, 0.4, 1e-4);
    }

    /// DPO post-training on human preference pairs. A scalar quality scorer is
    /// trained with the DPO objective on output-text embeddings; the mean
    /// score each parser's outputs receive becomes a per-parser alignment
    /// bias. Returns the trainer's pairwise accuracy after training.
    pub fn fit_preferences(&mut self, preferences: &[ParserPreference]) -> f64 {
        if preferences.is_empty() {
            return 0.0;
        }
        let preferred: Vec<&str> = preferences.iter().map(|p| p.preferred_text.as_str()).collect();
        let rejected: Vec<&str> = preferences.iter().map(|p| p.rejected_text.as_str()).collect();
        let pairs: Vec<PreferencePair> = self
            .encoder
            .encode_batch(&preferred)
            .into_iter()
            .zip(self.encoder.encode_batch(&rejected))
            .map(|(preferred, rejected)| PreferencePair { preferred, rejected })
            .collect();
        let dim = self.encoder.embedding_dim();
        let mut trainer = DpoTrainer::from_reference(vec![0.0; dim], 0.0, self.config.dpo);
        trainer.train(&pairs);
        let accuracy = trainer.pairwise_accuracy(&pairs);
        self.dpo_pair_accuracy = Some(accuracy);

        // Distil the scorer into a per-parser bias: average the quality score
        // of each parser's outputs seen during the study, then centre it.
        let mut sums = vec![0.0; ParserKind::ALL.len()];
        let mut counts = vec![0usize; ParserKind::ALL.len()];
        for (preference, pair) in preferences.iter().zip(&pairs) {
            sums[preference.preferred.index()] += trainer.score(&pair.preferred);
            counts[preference.preferred.index()] += 1;
            sums[preference.rejected.index()] += trainer.score(&pair.rejected);
            counts[preference.rejected.index()] += 1;
        }
        let means: Vec<f64> =
            sums.iter().zip(&counts).map(|(s, &c)| if c > 0 { s / c as f64 } else { 0.0 }).collect();
        let grand = means.iter().sum::<f64>() / means.len() as f64;
        self.parser_bias = means.iter().map(|m| self.config.dpo_weight * (m - grand)).collect();
        accuracy
    }

    /// Pairwise preference accuracy achieved during DPO training, if run.
    pub fn dpo_pair_accuracy(&self) -> Option<f64> {
        self.dpo_pair_accuracy
    }

    /// Per-parser alignment bias (zero before [`Self::fit_preferences`]).
    pub fn parser_bias(&self) -> &[f64] {
        &self.parser_bias
    }

    /// Predicted BLEU for every parser, in [`ParserKind::ALL`] order, clamped
    /// to `[0, 1]` before the alignment bias is added, for a batch of texts
    /// in order: one pass of the encoder's batched projection, then the
    /// regression head per embedding. A text's predictions do not depend on
    /// its batch-mates.
    pub fn predict_accuracies_batch<S: AsRef<str>>(&self, first_page_texts: &[S]) -> Vec<Vec<f64>> {
        self.encoder
            .encode_batch(first_page_texts)
            .iter()
            .map(|embedding| {
                self.head
                    .predict(embedding)
                    .iter()
                    .zip(&self.parser_bias)
                    .map(|(p, b)| p.clamp(0.0, 1.0) + b)
                    .collect()
            })
            .collect()
    }

    /// The parser with the highest predicted accuracy for each text of a
    /// batch, in order.
    pub fn select_batch<S: AsRef<str>>(&self, first_page_texts: &[S]) -> Vec<ParserKind> {
        self.predict_accuracies_batch(first_page_texts)
            .iter()
            .map(|predictions| best_predicted(predictions))
            .collect()
    }

    /// Fraction of samples where the selected parser equals the BLEU-maximal
    /// parser (Table 4's "ACC" column).
    pub fn selection_accuracy(&self, samples: &[AccuracySample]) -> f64 {
        if samples.is_empty() {
            return 0.0;
        }
        let selected = self.select_batch(&first_page_texts(samples));
        let correct = samples.iter().zip(selected).filter(|(s, kind)| *kind == s.best_parser()).count();
        correct as f64 / samples.len() as f64
    }
}

/// The parser with the highest prediction (the last one on ties).
fn best_predicted(predictions: &[f64]) -> ParserKind {
    ParserKind::ALL
        .into_iter()
        .max_by(|a, b| {
            predictions[a.index()].partial_cmp(&predictions[b.index()]).unwrap_or(std::cmp::Ordering::Equal)
        })
        .expect("ParserKind::ALL is not empty")
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Synthetic samples with a learnable rule: pages mentioning "scan"
    /// favour Nougat, pages mentioning "clean" favour PyMuPDF.
    fn synthetic_samples(n: usize) -> Vec<AccuracySample> {
        (0..n)
            .map(|i| {
                let scanned = i % 2 == 0;
                let text = if scanned {
                    format!("scan artifact garbled {} fragment noise blur", i)
                } else {
                    format!("clean prose with ordinary scientific sentences number {}", i)
                };
                let mut targets = vec![0.2; ParserKind::ALL.len()];
                if scanned {
                    targets[ParserKind::Nougat.index()] = 0.7;
                    targets[ParserKind::PyMuPdf.index()] = 0.1;
                } else {
                    targets[ParserKind::Nougat.index()] = 0.55;
                    targets[ParserKind::PyMuPdf.index()] = 0.75;
                }
                AccuracySample {
                    doc_id: i as u64,
                    first_page_text: text,
                    title: String::new(),
                    metadata_features: vec![0.0; 27],
                    targets,
                    pages: 4,
                }
            })
            .collect()
    }

    #[test]
    fn regression_learns_to_route_by_text() {
        let samples = synthetic_samples(80);
        let mut predictor = AccuracyPredictor::new(PredictorConfig::default());
        predictor.fit_regression(&samples);
        let acc = predictor.selection_accuracy(&samples);
        assert!(acc > 0.8, "selection accuracy = {acc}");
    }

    #[test]
    fn dpo_biases_selection_toward_preferred_parser() {
        let samples = synthetic_samples(40);
        let mut predictor =
            AccuracyPredictor::new(PredictorConfig { dpo_weight: 0.2, ..PredictorConfig::default() });
        predictor.fit_regression(&samples);
        // Humans systematically prefer Nougat's output over pypdf's.
        let preferences: Vec<ParserPreference> = (0..30)
            .map(|i| ParserPreference {
                preferred: ParserKind::Nougat,
                preferred_text: format!("well formed faithful text with equations preserved {i}"),
                rejected: ParserKind::Pypdf,
                rejected_text: format!("g arbled wh itespace r i d d l e d te xt {i}"),
            })
            .collect();
        let pair_accuracy = predictor.fit_preferences(&preferences);
        assert!(pair_accuracy > 0.8, "dpo pair accuracy = {pair_accuracy}");
        assert!(predictor.dpo_pair_accuracy().is_some());
        let bias = predictor.parser_bias();
        assert!(
            bias[ParserKind::Nougat.index()] > bias[ParserKind::Pypdf.index()],
            "nougat bias {} must exceed pypdf bias {}",
            bias[ParserKind::Nougat.index()],
            bias[ParserKind::Pypdf.index()]
        );
    }

    #[test]
    fn untrained_predictor_is_usable_and_bounded() {
        let predictor = AccuracyPredictor::new(PredictorConfig::default());
        let preds = predictor.predict_accuracies_batch(&["any text at all"]).remove(0);
        assert_eq!(preds.len(), ParserKind::ALL.len());
        assert!(preds.iter().all(|p| p.is_finite()));
        assert_eq!(predictor.dpo_pair_accuracy(), None);
        assert_eq!(predictor.selection_accuracy(&[]), 0.0);
    }
}
