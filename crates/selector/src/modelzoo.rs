//! The prediction-model comparison of the paper's Table 4.
//!
//! Table 4 evaluates a spectrum of prediction models for parser selection:
//! CLS III text-driven LLM regressors (SciBERT ± DPO, BERT), CLS II
//! title/metadata encoders (SPECTER, MiniLM), CLS I metadata-only SVCs over
//! different feature subsets, and three reference policies (BLEU-maximal,
//! random, BLEU-minimal selection). Every entry here trains on the dataset's
//! training split and is scored by the quality its *selections* achieve on
//! the test split.

use mlcore::encoder::EncoderProfile;
use mlcore::linear::LinearSvc;
use parsersim::evaluate::DocumentEvaluation;
use parsersim::ParserKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::cls3::{AccuracyPredictor, ParserPreference, PredictorConfig};
use crate::dataset::{first_page_texts, AccuracyDataset, AccuracySample};

/// One row of Table 4: achieved quality of a prediction model's selections.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Table4Row {
    /// Model name as printed in the table.
    pub name: String,
    /// Mean BLEU of the selected parsers' outputs (fraction, not %).
    pub bleu: f64,
    /// Mean ROUGE-L of the selected outputs.
    pub rouge: f64,
    /// Mean CAR of the selected outputs.
    pub car: f64,
    /// Fraction of documents where the selection equals the BLEU-maximal parser.
    pub selection_accuracy: f64,
}

/// A Table 4 model variant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum ModelZooEntry {
    /// CLS III: SciBERT text regression with DPO post-training.
    TextSciBertDpo,
    /// CLS III: SciBERT text regression.
    TextSciBert,
    /// CLS III: BERT text regression.
    TextBert,
    /// CLS II: SPECTER on title + metadata.
    TitleMetadataSpecter,
    /// CLS II: SPECTER on title only.
    TitleSpecter,
    /// CLS II: MiniLM on title + metadata.
    TitleMetadataMiniLm,
    /// CLS I: SVC on format + producer.
    SvcFormatProducer,
    /// CLS I: SVC on format only.
    SvcFormat,
    /// CLS I: SVC on year + producer.
    SvcYearProducer,
    /// CLS I: SVC on publisher + (sub-)category.
    SvcPublisherCategory,
    /// Reference: always pick the BLEU-maximal parser (oracle).
    BleuMaximal,
    /// Reference: pick a parser uniformly at random.
    RandomSelection,
    /// Reference: always pick the BLEU-minimal parser.
    BleuMinimal,
}

impl ModelZooEntry {
    /// All rows in the order the paper lists them.
    pub const ALL: [ModelZooEntry; 13] = [
        ModelZooEntry::TextSciBertDpo,
        ModelZooEntry::TextSciBert,
        ModelZooEntry::TextBert,
        ModelZooEntry::TitleMetadataSpecter,
        ModelZooEntry::TitleSpecter,
        ModelZooEntry::TitleMetadataMiniLm,
        ModelZooEntry::SvcFormatProducer,
        ModelZooEntry::SvcFormat,
        ModelZooEntry::SvcYearProducer,
        ModelZooEntry::SvcPublisherCategory,
        ModelZooEntry::BleuMaximal,
        ModelZooEntry::RandomSelection,
        ModelZooEntry::BleuMinimal,
    ];

    /// Display name as used in Table 4.
    pub fn name(&self) -> &'static str {
        match self {
            ModelZooEntry::TextSciBertDpo => "Text (SciBERT + DPO)",
            ModelZooEntry::TextSciBert => "Text (SciBERT)",
            ModelZooEntry::TextBert => "Text (BERT)",
            ModelZooEntry::TitleMetadataSpecter => "Title + Metadata (SPECTER)",
            ModelZooEntry::TitleSpecter => "Title (SPECTER)",
            ModelZooEntry::TitleMetadataMiniLm => "Title + Metadata (MiniLM-L6)",
            ModelZooEntry::SvcFormatProducer => "Format + Producer (SVC)",
            ModelZooEntry::SvcFormat => "Format (SVC)",
            ModelZooEntry::SvcYearProducer => "Year + Producer (SVC)",
            ModelZooEntry::SvcPublisherCategory => "Publisher + (Sub-)category (SVC)",
            ModelZooEntry::BleuMaximal => "BLEU-maximal selection",
            ModelZooEntry::RandomSelection => "Random selection",
            ModelZooEntry::BleuMinimal => "BLEU-minimal selection",
        }
    }

    /// Train the entry on the dataset's training split and evaluate its
    /// selections on the test split. `evaluations` must cover every test
    /// document (keyed by document id) so the achieved ROUGE/CAR of the
    /// selected parser can be looked up. `preferences` feed the DPO variant.
    pub fn evaluate(
        &self,
        dataset: &AccuracyDataset,
        evaluations: &[DocumentEvaluation],
        preferences: &[ParserPreference],
        seed: u64,
    ) -> Table4Row {
        let selections: Vec<ParserKind> = match self {
            ModelZooEntry::TextSciBertDpo => {
                let mut predictor = AccuracyPredictor::new(PredictorConfig {
                    encoder: EncoderProfile::SciBert,
                    ..PredictorConfig::default()
                });
                predictor.fit_regression(dataset.train());
                predictor.fit_preferences(preferences);
                predictor.select_batch(&first_page_texts(dataset.test()))
            }
            ModelZooEntry::TextSciBert | ModelZooEntry::TextBert => {
                let encoder = if matches!(self, ModelZooEntry::TextSciBert) {
                    EncoderProfile::SciBert
                } else {
                    EncoderProfile::Bert
                };
                let mut predictor =
                    AccuracyPredictor::new(PredictorConfig { encoder, ..PredictorConfig::default() });
                predictor.fit_regression(dataset.train());
                predictor.select_batch(&first_page_texts(dataset.test()))
            }
            ModelZooEntry::TitleMetadataSpecter
            | ModelZooEntry::TitleSpecter
            | ModelZooEntry::TitleMetadataMiniLm => {
                let encoder = if matches!(self, ModelZooEntry::TitleMetadataMiniLm) {
                    EncoderProfile::MiniLm
                } else {
                    EncoderProfile::Specter
                };
                let use_metadata = !matches!(self, ModelZooEntry::TitleSpecter);
                let mut predictor =
                    AccuracyPredictor::new(PredictorConfig { encoder, ..PredictorConfig::default() });
                let project = |s: &AccuracySample| title_view(s, use_metadata);
                let train: Vec<AccuracySample> = dataset.train().iter().map(project).collect();
                predictor.fit_regression(&train);
                let test: Vec<AccuracySample> = dataset.test().iter().map(project).collect();
                predictor.select_batch(&first_page_texts(&test))
            }
            ModelZooEntry::SvcFormatProducer
            | ModelZooEntry::SvcFormat
            | ModelZooEntry::SvcYearProducer
            | ModelZooEntry::SvcPublisherCategory => self.evaluate_svc(dataset),
            ModelZooEntry::BleuMaximal => dataset.test().iter().map(|s| s.best_parser()).collect(),
            ModelZooEntry::BleuMinimal => dataset
                .test()
                .iter()
                .map(|s| {
                    let mut worst = 0;
                    for (i, v) in s.targets.iter().enumerate() {
                        if *v < s.targets[worst] {
                            worst = i;
                        }
                    }
                    ParserKind::ALL[worst]
                })
                .collect(),
            ModelZooEntry::RandomSelection => {
                let mut rng = StdRng::seed_from_u64(seed);
                dataset
                    .test()
                    .iter()
                    .map(|_| ParserKind::ALL[rng.gen_range(0..ParserKind::ALL.len())])
                    .collect()
            }
        };
        score_selections(self.name(), dataset.test(), &selections, evaluations)
    }

    fn evaluate_svc(&self, dataset: &AccuracyDataset) -> Vec<ParserKind> {
        let slice = |s: &AccuracySample| svc_features(s, self);
        let xs: Vec<Vec<f64>> = dataset.train().iter().map(&slice).collect();
        let labels: Vec<usize> = dataset.train().iter().map(|s| s.best_parser_index()).collect();
        if xs.is_empty() {
            return dataset.test().iter().map(|_| ParserKind::PyMuPdf).collect();
        }
        let mut svc = LinearSvc::new(xs[0].len(), ParserKind::ALL.len());
        svc.fit(&xs, &labels, 300, 0.3, 1e-3);
        dataset.test().iter().map(|s| ParserKind::ALL[svc.predict(&slice(s))]).collect()
    }
}

/// Feature subsets for the SVC rows. Metadata layout (see
/// `DocMetadata::feature_vector`): publisher 0–5, domain 6–13, producer
/// 14–20, format 21–25, year 26.
fn svc_features(sample: &AccuracySample, entry: &ModelZooEntry) -> Vec<f64> {
    let m = &sample.metadata_features;
    match entry {
        ModelZooEntry::SvcFormatProducer => [&m[21..26], &m[14..21]].concat(),
        ModelZooEntry::SvcFormat => m[21..26].to_vec(),
        ModelZooEntry::SvcYearProducer => {
            let mut f = m[14..21].to_vec();
            f.push(m[26]);
            f
        }
        ModelZooEntry::SvcPublisherCategory => [&m[0..6], &m[6..14]].concat(),
        _ => m.clone(),
    }
}

/// Build the text view the CLS II rows see: title (optionally with a textual
/// rendering of the metadata) instead of page text.
fn title_view(sample: &AccuracySample, with_metadata: bool) -> AccuracySample {
    let mut text = sample.title.clone();
    if with_metadata {
        let m = &sample.metadata_features;
        text.push_str(&format!(
            " [meta pub{} dom{} prod{} fmt{} y{:.2}]",
            m[0..6].iter().position(|&x| x > 0.5).unwrap_or(9),
            m[6..14].iter().position(|&x| x > 0.5).unwrap_or(9),
            m[14..21].iter().position(|&x| x > 0.5).unwrap_or(9),
            m[21..26].iter().position(|&x| x > 0.5).unwrap_or(9),
            m[26]
        ));
    }
    AccuracySample { first_page_text: text, ..sample.clone() }
}

/// Score a list of selections against the achieved per-parser quality.
fn score_selections(
    name: &str,
    samples: &[AccuracySample],
    selections: &[ParserKind],
    evaluations: &[DocumentEvaluation],
) -> Table4Row {
    let mut bleu = 0.0;
    let mut rouge = 0.0;
    let mut car = 0.0;
    let mut correct = 0usize;
    let n = samples.len().max(1) as f64;
    for (sample, &selected) in samples.iter().zip(selections) {
        bleu += sample.target_for(selected);
        if selected == sample.best_parser() {
            correct += 1;
        }
        if let Some(eval) = evaluations.iter().find(|e| e.doc_id.0 == sample.doc_id) {
            if let Some(p) = eval.for_parser(selected) {
                rouge += p.report.rouge;
                car += p.report.car;
            }
        }
    }
    Table4Row {
        name: name.to_string(),
        bleu: bleu / n,
        rouge: rouge / n,
        car: car / n,
        selection_accuracy: correct as f64 / n,
    }
}

/// Evaluate every Table 4 row.
pub fn evaluate_all(
    dataset: &AccuracyDataset,
    evaluations: &[DocumentEvaluation],
    preferences: &[ParserPreference],
    seed: u64,
) -> Vec<Table4Row> {
    ModelZooEntry::ALL.iter().map(|entry| entry.evaluate(dataset, evaluations, preferences, seed)).collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsersim::evaluate::evaluate_corpus;
    use scicorpus::generator::{DocumentGenerator, GeneratorConfig};

    fn fixture() -> (AccuracyDataset, Vec<DocumentEvaluation>) {
        let docs = DocumentGenerator::new(GeneratorConfig {
            n_documents: 24,
            seed: 71,
            min_pages: 1,
            max_pages: 2,
            scanned_fraction: 0.3,
            ..Default::default()
        })
        .generate_many(24);
        let evaluations = evaluate_corpus(&docs, 5);
        let dataset = AccuracyDataset::from_evaluations(&docs, &evaluations, 0.67);
        (dataset, evaluations)
    }

    #[test]
    fn reference_rows_bound_every_model() {
        let (dataset, evaluations) = fixture();
        let oracle = ModelZooEntry::BleuMaximal.evaluate(&dataset, &evaluations, &[], 1);
        let minimal = ModelZooEntry::BleuMinimal.evaluate(&dataset, &evaluations, &[], 1);
        let random = ModelZooEntry::RandomSelection.evaluate(&dataset, &evaluations, &[], 1);
        let scibert = ModelZooEntry::TextSciBert.evaluate(&dataset, &evaluations, &[], 1);
        assert!(oracle.bleu >= scibert.bleu - 1e-9);
        assert!(oracle.bleu >= random.bleu - 1e-9);
        assert!(minimal.bleu <= random.bleu + 1e-9);
        assert!(minimal.bleu <= scibert.bleu + 1e-9);
        assert!((oracle.selection_accuracy - 1.0).abs() < 1e-9);
        assert_eq!(minimal.name, "BLEU-minimal selection");
    }

    #[test]
    fn svc_rows_produce_valid_selections() {
        let (dataset, evaluations) = fixture();
        for entry in [
            ModelZooEntry::SvcFormatProducer,
            ModelZooEntry::SvcFormat,
            ModelZooEntry::SvcYearProducer,
            ModelZooEntry::SvcPublisherCategory,
        ] {
            let row = entry.evaluate(&dataset, &evaluations, &[], 2);
            assert!((0.0..=1.0).contains(&row.bleu), "{}: bleu {}", row.name, row.bleu);
            assert!((0.0..=1.0).contains(&row.selection_accuracy));
            assert!(!row.name.is_empty());
        }
    }

    #[test]
    fn text_model_beats_random_selection() {
        let (dataset, evaluations) = fixture();
        let text = ModelZooEntry::TextSciBert.evaluate(&dataset, &evaluations, &[], 3);
        let random = ModelZooEntry::RandomSelection.evaluate(&dataset, &evaluations, &[], 3);
        assert!(
            text.bleu >= random.bleu - 0.02,
            "text model ({}) should not trail random ({}) materially",
            text.bleu,
            random.bleu
        );
    }

    #[test]
    fn all_rows_have_distinct_names() {
        let mut names: Vec<&str> = ModelZooEntry::ALL.iter().map(|e| e.name()).collect();
        let before = names.len();
        names.sort_unstable();
        names.dedup();
        assert_eq!(before, names.len());
    }
}
