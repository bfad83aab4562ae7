//! The preference study: pairing design, collection, and splits.

use parsersim::evaluate::DocumentEvaluation;
use parsersim::ParserKind;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use textmetrics::winrate::PreferenceOutcome;

use crate::annotator::AnnotatorPool;

/// Configuration of the study.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct StudyConfig {
    /// Number of annotators (the paper engaged 23).
    pub annotators: usize,
    /// Number of preference judgements to collect (the paper collected 2 794).
    pub target_preferences: usize,
    /// Fraction of pairings shown to more than one annotator (for consensus
    /// measurement).
    pub repeat_fraction: f64,
    /// RNG seed.
    pub seed: u64,
}

impl Default for StudyConfig {
    fn default() -> Self {
        StudyConfig { annotators: 23, target_preferences: 2794, repeat_fraction: 0.3, seed: 11 }
    }
}

/// One collected preference judgement.
#[derive(Debug, Clone, PartialEq)]
pub struct PreferenceRecord {
    /// Document the page came from.
    pub doc_id: u64,
    /// Annotator who judged the pair.
    pub annotator: usize,
    /// First parser shown.
    pub first: ParserKind,
    /// Second parser shown.
    pub second: ParserKind,
    /// Outcome.
    pub outcome: PreferenceOutcome,
    /// Identifier of the pairing (records sharing it were shown to multiple
    /// annotators).
    pub pairing_id: usize,
}

impl PreferenceRecord {
    /// The preferred parser, if the judgement was decisive.
    pub fn preferred(&self) -> Option<ParserKind> {
        match self.outcome {
            PreferenceOutcome::FirstWins => Some(self.first),
            PreferenceOutcome::SecondWins => Some(self.second),
            PreferenceOutcome::Neither => None,
        }
    }
}

/// The collected study with train/validation/test splits over records.
#[derive(Debug, Clone, PartialEq)]
pub struct PreferenceStudy {
    records: Vec<PreferenceRecord>,
    train_len: usize,
    validation_len: usize,
}

impl PreferenceStudy {
    /// Run the study over a set of evaluated documents.
    ///
    /// Non-adaptive pairing: document, parser pair, and annotator are drawn
    /// independently of previous outcomes (the paper does this deliberately
    /// to avoid feedback bias).
    pub fn collect(evaluations: &[DocumentEvaluation], config: &StudyConfig) -> PreferenceStudy {
        let mut records = Vec::with_capacity(config.target_preferences);
        if evaluations.is_empty() || config.target_preferences == 0 {
            return PreferenceStudy { records, train_len: 0, validation_len: 0 };
        }
        let pool = AnnotatorPool::new(config.annotators.max(1), config.seed ^ 0xA770);
        let mut rng = StdRng::seed_from_u64(config.seed);
        let mut pairing_id = 0usize;
        while records.len() < config.target_preferences {
            let eval = &evaluations[rng.gen_range(0..evaluations.len())];
            let first = ParserKind::ALL[rng.gen_range(0..ParserKind::ALL.len())];
            let mut second = ParserKind::ALL[rng.gen_range(0..ParserKind::ALL.len())];
            while second == first {
                second = ParserKind::ALL[rng.gen_range(0..ParserKind::ALL.len())];
            }
            let repeats = if rng.gen_bool(config.repeat_fraction.clamp(0.0, 1.0)) { 2 } else { 1 };
            for _ in 0..repeats {
                if records.len() >= config.target_preferences {
                    break;
                }
                let annotator_index = rng.gen_range(0..pool.len());
                let annotator = pool.annotator(annotator_index);
                let first_eval = eval.for_parser(first).expect("parser present");
                let second_eval = eval.for_parser(second).expect("parser present");
                let first_page = first_eval.output.text.split('\u{c}').next().unwrap_or("");
                let second_page = second_eval.output.text.split('\u{c}').next().unwrap_or("");
                let outcome = annotator.judge(
                    first_page,
                    first_eval.report.bleu,
                    second_page,
                    second_eval.report.bleu,
                    &mut rng,
                );
                records.push(PreferenceRecord {
                    doc_id: eval.doc_id.0,
                    annotator: annotator_index,
                    first,
                    second,
                    outcome,
                    pairing_id,
                });
            }
            pairing_id += 1;
        }
        // The paper's split: most preferences go to the test subset.
        let train_len = (records.len() as f64 * 0.25).round() as usize;
        let validation_len = (records.len() as f64 * 0.08).round() as usize;
        PreferenceStudy { records, train_len, validation_len }
    }

    /// All records.
    pub fn records(&self) -> &[PreferenceRecord] {
        &self.records
    }

    /// Training records (the paper's alignment split; nothing here trains on it).
    pub fn train(&self) -> &[PreferenceRecord] {
        &self.records[..self.train_len.min(self.records.len())]
    }

    /// Validation records.
    pub fn validation(&self) -> &[PreferenceRecord] {
        let start = self.train_len.min(self.records.len());
        let end = (self.train_len + self.validation_len).min(self.records.len());
        &self.records[start..end]
    }

    /// Test records (the majority, used for win-rate estimation).
    pub fn test(&self) -> &[PreferenceRecord] {
        let start = (self.train_len + self.validation_len).min(self.records.len());
        &self.records[start..]
    }

    /// Number of collected judgements.
    pub fn len(&self) -> usize {
        self.records.len()
    }

    /// Whether no judgements were collected.
    pub fn is_empty(&self) -> bool {
        self.records.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use parsersim::evaluate::evaluate_corpus;
    use scicorpus::generator::{DocumentGenerator, GeneratorConfig};

    fn evaluations() -> Vec<DocumentEvaluation> {
        let docs = DocumentGenerator::new(GeneratorConfig {
            n_documents: 10,
            seed: 81,
            min_pages: 1,
            max_pages: 2,
            scanned_fraction: 0.3,
            ..Default::default()
        })
        .generate_many(10);
        evaluate_corpus(&docs, 13)
    }

    #[test]
    fn study_collects_the_requested_number_of_preferences() {
        let config = StudyConfig { target_preferences: 300, ..Default::default() };
        let study = PreferenceStudy::collect(&evaluations(), &config);
        assert_eq!(study.len(), 300);
        assert_eq!(study.train().len() + study.validation().len() + study.test().len(), 300);
        assert!(study.test().len() > study.train().len(), "most records go to test");
    }

    #[test]
    fn records_are_well_formed() {
        let config = StudyConfig { target_preferences: 150, ..Default::default() };
        let study = PreferenceStudy::collect(&evaluations(), &config);
        for record in study.records() {
            assert_ne!(record.first, record.second);
            let expected = match record.outcome {
                PreferenceOutcome::FirstWins => Some(record.first),
                PreferenceOutcome::SecondWins => Some(record.second),
                PreferenceOutcome::Neither => None,
            };
            assert_eq!(record.preferred(), expected);
        }
    }

    #[test]
    fn collection_is_deterministic() {
        let config = StudyConfig { target_preferences: 100, ..Default::default() };
        let evals = evaluations();
        assert_eq!(PreferenceStudy::collect(&evals, &config), PreferenceStudy::collect(&evals, &config));
    }

    #[test]
    fn empty_inputs_yield_empty_study() {
        let config = StudyConfig::default();
        let study = PreferenceStudy::collect(&[], &config);
        assert!(study.is_empty());
        let none = PreferenceStudy::collect(&evaluations(), &StudyConfig { target_preferences: 0, ..config });
        assert!(none.is_empty());
    }

    #[test]
    fn repeated_pairings_exist_for_consensus_measurement() {
        let config = StudyConfig { target_preferences: 400, repeat_fraction: 0.5, ..Default::default() };
        let study = PreferenceStudy::collect(&evaluations(), &config);
        let mut counts = std::collections::HashMap::new();
        for r in study.records() {
            *counts.entry(r.pairing_id).or_insert(0usize) += 1;
        }
        assert!(counts.values().any(|&c| c >= 2), "some pairings must repeat");
    }
}
