//! CLS III: text-driven accuracy prediction and parser selection.
//!
//! The third stage embeds the first-page extraction with a frozen
//! "pretrained" encoder, regresses the BLEU every parser would achieve on the
//! document (the paper's m = 6 output head), and selects the argmax. It is
//! one supervised regression head over a frozen encoder; the paper's
//! preference alignment has no counterpart here.

use mlcore::encoder::{EncoderProfile, PretrainedEncoder};
use mlcore::linear::LinearRegression;
use parsersim::ParserKind;

use crate::dataset::{first_page_texts, AccuracySample};

/// A human preference between two parser outputs for the same document page.
///
/// Nothing trains on it: CLS III is a regression head alone. The type stays
/// because `adaparse::AdaParseEngine::train` still takes, and ignores, a
/// slice of it.
#[derive(Debug, Clone, PartialEq)]
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

/// The CLS III accuracy predictor.
#[derive(Debug, Clone)]
pub struct AccuracyPredictor {
    encoder: PretrainedEncoder,
    head: LinearRegression,
}

impl AccuracyPredictor {
    /// Untrained predictor over the given frozen encoder.
    pub fn new(profile: EncoderProfile) -> Self {
        let encoder = PretrainedEncoder::new(profile);
        let head = LinearRegression::new(encoder.embedding_dim(), ParserKind::ALL.len());
        AccuracyPredictor { encoder, head }
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

    /// Predicted BLEU for every parser, in [`ParserKind::ALL`] order, clamped
    /// to `[0, 1]`, for a batch of texts in order: one pass of the encoder's batched projection, then the
    /// regression head per embedding. A text's predictions do not depend on
    /// its batch-mates.
    pub fn predict_accuracies_batch<S: AsRef<str>>(&self, first_page_texts: &[S]) -> Vec<Vec<f64>> {
        self.encoder
            .encode_batch(first_page_texts)
            .iter()
            .map(|embedding| self.head.predict(embedding).iter().map(|p| p.clamp(0.0, 1.0)).collect())
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
        let mut predictor = AccuracyPredictor::new(EncoderProfile::SciBert);
        predictor.fit_regression(&samples);
        let selected = predictor.select_batch(&first_page_texts(&samples));
        let correct = samples.iter().zip(selected).filter(|(s, kind)| *kind == s.best_parser()).count();
        let acc = correct as f64 / samples.len() as f64;
        assert!(acc > 0.8, "selection accuracy = {acc}");
    }

    /// `predict_accuracies_batch`'s output, bit for bit, for a SciBERT
    /// predictor fitted on [`synthetic_samples`]. Re-pinned when the head
    /// moved from the per-sample gradient to the sample-Gram form: every
    /// value moved by at most 46 ulps (1.5e-15).
    #[test]
    fn trained_predictions_are_pinned_bit_for_bit() {
        const PINNED: [[u64; 6]; 4] = [
            [
                0x3fc9_bf37_a60c_dfc8,
                0x3fe6_72b8_26cf_d8f4,
                0x3fbc_8935_116e_0256,
                0x3fc9_bf37_a60c_dfc8,
                0x3fc9_bf37_a60c_dfc8,
                0x3fc9_bf37_a60c_dfc8,
            ],
            [
                0x3fc9_9d87_5b83_8840,
                0x3fe1_a3e3_134b_da8a,
                0x3fe7_e2cf_7d7a_77f4,
                0x3fc9_9d87_5b83_8840,
                0x3fc9_9d87_5b83_8840,
                0x3fc9_9d87_5b83_8840,
            ],
            [
                0x3fc7_9f03_b03e_743a,
                0x3fe2_cdb5_600d_6a31,
                0x3fd6_1178_f974_f60e,
                0x3fc7_9f03_b03e_743a,
                0x3fc7_9f03_b03e_743a,
                0x3fc7_9f03_b03e_743a,
            ],
            [
                0x3fbd_64b2_bbb8_dcc9,
                0x3fd7_0b0c_9da4_36cc,
                0x3fce_8a60_12ee_3c3f,
                0x3fbd_64b2_bbb8_dcc9,
                0x3fbd_64b2_bbb8_dcc9,
                0x3fbd_64b2_bbb8_dcc9,
            ],
        ];
        let mut predictor = AccuracyPredictor::new(EncoderProfile::SciBert);
        predictor.fit_regression(&synthetic_samples(80));
        let texts = [
            "scan artifact garbled 7 fragment noise blur",
            "clean prose with ordinary scientific sentences number 12",
            "Schrödinger équation — ΔE = ħω, résumé of a Greek αβγ abstract",
            "",
        ];
        let bits: Vec<Vec<u64>> = predictor
            .predict_accuracies_batch(&texts)
            .iter()
            .map(|predictions| predictions.iter().map(|p| p.to_bits()).collect())
            .collect();
        assert_eq!(bits, PINNED.map(Vec::from).to_vec());
    }

    #[test]
    fn untrained_predictor_is_usable_and_bounded() {
        let predictor = AccuracyPredictor::new(EncoderProfile::SciBert);
        let preds = predictor.predict_accuracies_batch(&["any text at all"]).remove(0);
        assert_eq!(preds.len(), ParserKind::ALL.len());
        assert!(preds.iter().all(|p| p.is_finite()));
        assert!(predictor.select_batch::<&str>(&[]).is_empty());
    }
}
