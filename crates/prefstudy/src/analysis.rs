//! Analysis of the collected study: the §7.1 statistics.

use parsersim::evaluate::DocumentEvaluation;
use parsersim::ParserKind;
use textmetrics::stats::{correlation_p_value, pearson};
use textmetrics::winrate::{PreferenceOutcome, WinRateTable};

use crate::study::PreferenceStudy;

/// Summary statistics of a preference study.
#[derive(Debug, Clone, PartialEq)]
pub struct StudyAnalysis {
    /// Normalized win rate per parser, `(name, rate)`.
    pub win_rates: Vec<(String, f64)>,
    /// Fraction of judgements that were decisive (paper: 91.3 %).
    pub decisiveness: f64,
    /// Agreement rate among repeated pairings (paper: 82.2 %).
    pub consensus: f64,
    /// Pearson correlation between per-parser mean BLEU and win rate
    /// (paper: ρ ≈ 0.47).
    pub bleu_winrate_correlation: f64,
    /// Two-sided p-value for the correlation.
    pub correlation_p_value: f64,
    /// Number of judgements analysed.
    pub n_preferences: usize,
}

impl StudyAnalysis {
    /// Analyse a study against the parser evaluations it was collected from.
    pub fn compute(study: &PreferenceStudy, evaluations: &[DocumentEvaluation]) -> StudyAnalysis {
        let mut table = WinRateTable::new();
        for record in study.records() {
            table.record(record.first.name(), record.second.name(), record.outcome);
        }
        let win_rates: Vec<(String, f64)> =
            ParserKind::ALL.iter().map(|k| (k.name().to_string(), table.win_rate(k.name()))).collect();

        // Consensus: among pairings judged more than once, how often do the
        // decisive judgements agree on the winner?
        let mut by_pairing: std::collections::HashMap<usize, Vec<Option<ParserKind>>> =
            std::collections::HashMap::new();
        for record in study.records() {
            if record.outcome != PreferenceOutcome::Neither {
                by_pairing.entry(record.pairing_id).or_default().push(record.preferred());
            }
        }
        let mut agreements = 0usize;
        let mut comparisons = 0usize;
        for judgements in by_pairing.values() {
            if judgements.len() < 2 {
                continue;
            }
            for pair in judgements.windows(2) {
                comparisons += 1;
                if pair[0] == pair[1] {
                    agreements += 1;
                }
            }
        }
        let consensus = if comparisons == 0 { 0.0 } else { agreements as f64 / comparisons as f64 };

        // Correlation between the per-parser mean BLEU (over the evaluated
        // corpus) and the per-parser win rate.
        let mean_bleus: Vec<f64> = ParserKind::ALL
            .iter()
            .map(|k| {
                let scores: Vec<f64> =
                    evaluations.iter().filter_map(|e| e.for_parser(*k).map(|p| p.report.bleu)).collect();
                if scores.is_empty() {
                    0.0
                } else {
                    scores.iter().sum::<f64>() / scores.len() as f64
                }
            })
            .collect();
        let rates: Vec<f64> = win_rates.iter().map(|(_, r)| *r).collect();
        let correlation = pearson(&mean_bleus, &rates);
        let p_value = correlation_p_value(correlation, study.records().len().max(3));

        StudyAnalysis {
            win_rates,
            decisiveness: table.decisiveness(),
            consensus,
            bleu_winrate_correlation: correlation,
            correlation_p_value: p_value,
            n_preferences: study.len(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::study::StudyConfig;
    use parsersim::evaluate::evaluate_corpus;
    use scicorpus::generator::{DocumentGenerator, GeneratorConfig};

    fn fixture() -> (PreferenceStudy, Vec<DocumentEvaluation>) {
        let docs = DocumentGenerator::new(GeneratorConfig {
            n_documents: 16,
            seed: 91,
            min_pages: 1,
            max_pages: 2,
            scanned_fraction: 0.25,
            ..Default::default()
        })
        .generate_many(16);
        let evaluations = evaluate_corpus(&docs, 17);
        let study = PreferenceStudy::collect(
            &evaluations,
            &StudyConfig { target_preferences: 600, repeat_fraction: 0.4, ..Default::default() },
        );
        (study, evaluations)
    }

    #[test]
    fn headline_statistics_match_the_papers_shape() {
        let (study, evaluations) = fixture();
        let analysis = StudyAnalysis::compute(&study, &evaluations);
        // Users express a preference most of the time (paper: 91.3 %).
        assert!(analysis.decisiveness > 0.7, "decisiveness = {}", analysis.decisiveness);
        // Repeated pairings mostly agree (paper: 82.2 %).
        assert!(analysis.consensus > 0.6, "consensus = {}", analysis.consensus);
        // BLEU correlates positively with win rate but is not fully predictive.
        assert!(
            analysis.bleu_winrate_correlation > 0.1,
            "correlation = {}",
            analysis.bleu_winrate_correlation
        );
        assert!(analysis.bleu_winrate_correlation < 0.999);
        assert_eq!(analysis.n_preferences, 600);
        assert_eq!(analysis.win_rates.len(), ParserKind::ALL.len());
    }

    #[test]
    fn pypdf_has_the_lowest_win_rate_among_extraction_parsers() {
        let (study, evaluations) = fixture();
        let analysis = StudyAnalysis::compute(&study, &evaluations);
        // The paper reports pypdf winning only 2.1–2.4 % of its comparisons;
        // our simulation should at least rank it clearly below PyMuPDF.
        let rate =
            |kind: ParserKind| analysis.win_rates.iter().find(|(name, _)| name == kind.name()).unwrap().1;
        assert!(
            rate(ParserKind::Pypdf) < rate(ParserKind::PyMuPdf),
            "pypdf {} should trail PyMuPDF {}",
            rate(ParserKind::Pypdf),
            rate(ParserKind::PyMuPdf)
        );
    }

    #[test]
    fn win_rates_are_bounded() {
        let (study, evaluations) = fixture();
        let analysis = StudyAnalysis::compute(&study, &evaluations);
        for (name, rate) in &analysis.win_rates {
            assert!((0.0..=1.0).contains(rate), "{name} rate {rate}");
        }
        assert!((0.0..=1.0).contains(&analysis.correlation_p_value));
    }

    #[test]
    fn empty_study_analysis_is_safe() {
        let analysis = StudyAnalysis::compute(&PreferenceStudy::collect(&[], &StudyConfig::default()), &[]);
        assert_eq!(analysis.n_preferences, 0);
        assert_eq!(analysis.decisiveness, 0.0);
        assert_eq!(analysis.consensus, 0.0);
    }
}
