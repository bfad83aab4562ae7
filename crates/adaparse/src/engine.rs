//! The AdaParse engine: configuration, training, and hierarchical routing.
//!
//! Campaign *execution* lives in [`crate::campaign`]; the engine's
//! `parse_documents` / `route_documents` are thin delegates over a
//! default-configured [`CampaignPipeline`] running the binary cascade in
//! windows of the paper's k = 256.

use docmodel::document::Document;
use parsersim::cost::{node_rate, CostModel, ResourceCost, PLANNING_DIFFICULTY};
use parsersim::ParserKind;
use selector::cls1::{Cls1Decision, ValidityRules};
use selector::cls2::ImprovementClassifier;
use selector::cls3::{AccuracyPredictor, ParserPreference};
use selector::dataset::AccuracyDataset;

use crate::budget::{NON_CANDIDATE, URGENT};
use crate::campaign::{CampaignFailures, CampaignPipeline, RoutingInput};
use crate::cascade::CascadeConfig;
use crate::config::{AdaParseConfig, Variant};
use crate::output::ParsedRecord;

/// Routing decision for one document.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutedDocument {
    /// Document identifier.
    pub doc_id: u64,
    /// Parser the document was routed to.
    pub parser: ParserKind,
    /// Predicted improvement of the high-quality parser over the default
    /// (the ranking key of the budget optimizer).
    pub predicted_improvement: f64,
    /// Whether CLS I flagged the extraction as invalid.
    pub cls1_invalid: bool,
}

/// Aggregate output quality of a campaign (one row of Tables 1–3).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CampaignQuality {
    /// Mean page coverage.
    pub coverage: f64,
    /// Mean BLEU.
    pub bleu: f64,
    /// Mean ROUGE-L F1.
    pub rouge: f64,
    /// Mean character accuracy rate.
    pub car: f64,
    /// Accepted-token rate.
    pub accepted_tokens: f64,
    /// Number of documents parsed.
    pub documents: usize,
}

/// Full result of a campaign over a document collection.
#[derive(Debug, Clone, PartialEq)]
pub struct CampaignResult {
    /// Aggregate quality.
    pub quality: CampaignQuality,
    /// Per-document routing decisions.
    pub routed: Vec<RoutedDocument>,
    /// Fraction of documents upgraded: routed to any parser but the default
    /// one (in a binary campaign, the high-quality parser).
    pub high_quality_fraction: f64,
    /// Total resources consumed (extraction + assigned parsers).
    pub total_cost: ResourceCost,
    /// Per-document output records (JSONL-ready). Empty when the campaign
    /// streamed records to a [`crate::output::RecordSink`] instead.
    pub records: Vec<ParsedRecord>,
    /// Per-document parser failure counts (paper §5 failure analysis).
    pub failures: CampaignFailures,
}

/// The AdaParse engine.
#[derive(Debug, Clone)]
pub struct AdaParseEngine {
    config: AdaParseConfig,
    cls2: ImprovementClassifier,
    cls3: AccuracyPredictor,
}

impl AdaParseEngine {
    /// Create an engine (untrained) from a configuration.
    pub fn new(config: AdaParseConfig) -> Self {
        let config = config.normalized();
        let encoder = match config.variant {
            Variant::FastText => mlcore::encoder::EncoderProfile::FastText,
            Variant::Llm => mlcore::encoder::EncoderProfile::SciBert,
        };
        AdaParseEngine { cls2: ImprovementClassifier::new(), cls3: AccuracyPredictor::new(encoder), config }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &AdaParseConfig {
        &self.config
    }

    /// Train CLS II and CLS III on a labelled dataset.
    ///
    /// `_preferences` is ignored: CLS III is one supervised regression head
    /// and nothing aligns it with human preferences. The parameter stays only
    /// because the frozen repository benchmark (`benchmark/`) calls
    /// `engine.train(&dataset, &[])`.
    pub fn train(&mut self, dataset: &AccuracyDataset, _preferences: &[ParserPreference]) {
        self.cls2.fit(dataset.train());
        self.cls3.fit_regression(dataset.train());
    }

    /// Convenience: evaluate `documents` with the parser zoo to build the
    /// training dataset, then train (without preference data).
    pub fn train_on_corpus(&mut self, documents: &[Document], seed: u64) {
        let dataset = AccuracyDataset::build(documents, seed, 1.0);
        self.train(&dataset, &[]);
    }

    /// CLS I → II/III scoring for a shard of documents: per document, in
    /// order, the predicted improvement of the high-quality parser (the
    /// budget optimizer's ranking key) and the CLS I invalid flag. CLS I runs
    /// per document; CLS III runs once over the shard's valid documents
    /// ([`AccuracyPredictor::predict_accuracies_batch`]). A document's score
    /// does not depend on its shard-mates, so the campaign pipeline may shard
    /// a window any way it likes.
    pub fn routing_improvements(&self, inputs: &[&RoutingInput]) -> Vec<(f64, bool)> {
        let rules = ValidityRules::default();
        let invalid: Vec<bool> =
            inputs.iter().map(|input| rules.decide(&input.text, 1) == Cls1Decision::Invalid).collect();
        let valid = inputs.iter().zip(&invalid).filter(|(_, &invalid)| !invalid).map(|(input, _)| *input);
        let gains: Vec<f64> = match self.config.variant {
            Variant::FastText => valid
                .map(|input| self.cls2.probability_from(&input.metadata_features, input.pages))
                .map(|p| if p >= 0.5 { p } else { NON_CANDIDATE })
                .collect(),
            Variant::Llm => {
                let texts: Vec<&str> = valid.map(|input| input.text.as_str()).collect();
                let (candidate, baseline) =
                    (self.config.high_quality_parser.index(), self.config.default_parser.index());
                self.cls3
                    .predict_accuracies_batch(&texts)
                    .iter()
                    .map(|predictions| predictions[candidate] - predictions[baseline])
                    .map(|gain| if gain > 0.0 { gain } else { NON_CANDIDATE })
                    .collect()
            }
        };
        let mut gains = gains.into_iter();
        invalid
            .into_iter()
            .map(|invalid| match invalid {
                // CLS I failures always deserve the high-quality parser.
                true => (URGENT, true),
                false => (gains.next().expect("one gain per valid document"), false),
            })
            .collect()
    }

    /// [`Self::routing_improvements`] for one document.
    pub(crate) fn routing_improvement(&self, input: &RoutingInput) -> (f64, bool) {
        self.routing_improvements(&[input])[0]
    }

    /// The binary cascade the engine's entry points run: its two parsers
    /// and α, in windows of the paper's batch size k = 256 (Appendix C).
    fn binary_cascade(&self) -> CascadeConfig {
        CascadeConfig::binary(&self.config, 256)
    }

    /// Route a document collection without parsing it (returns one decision
    /// per document, in order): stages 1–2 of [`Self::parse_documents`],
    /// exactly its [`CampaignResult::routed`].
    pub fn route_documents(&self, documents: &[Document], seed: u64) -> Vec<RoutedDocument> {
        let (result, ..) = CampaignPipeline::default()
            .run_windows(self, documents, &self.binary_cascade(), seed, None)
            .expect("routing writes to no sink");
        result.routed
    }

    /// Parse a document collection end-to-end: extract, route, parse with the
    /// assigned parser, and score against ground truth.
    ///
    /// Runs [`CampaignPipeline::run_cascade`] over the binary cascade in
    /// windows of 256 on a default-configured pipeline; use the pipeline
    /// directly to set worker count, shard size, window or frontier, or to
    /// stream records to a [`crate::output::RecordSink`]. The result is
    /// identical for every worker count.
    pub fn parse_documents(&self, documents: &[Document], seed: u64) -> CampaignResult {
        CampaignPipeline::default().run_cascade(self, documents, &self.binary_cascade(), seed).result
    }

    /// Steady-state documents per second of one Polaris node ([`node_rate`])
    /// under this configuration: every document pays the extraction cost, an
    /// α-fraction additionally pays the high-quality parser, and the LLM
    /// variant pays a small per-document inference cost for CLS III.
    pub fn node_throughput(&self, pages_per_doc: f64) -> f64 {
        let cheap = CostModel::for_parser(self.config.default_parser)
            .document_cost(pages_per_doc.ceil() as usize, PLANNING_DIFFICULTY);
        let expensive = CostModel::for_parser(self.config.high_quality_parser)
            .document_cost(pages_per_doc.ceil() as usize, PLANNING_DIFFICULTY);
        let inference_cpu = match self.config.variant {
            Variant::FastText => 0.002,
            Variant::Llm => 0.03,
        };
        let cpu_per_doc = cheap.cpu_seconds + inference_cpu + self.config.alpha * expensive.cpu_seconds;
        let gpu_per_doc = self.config.alpha * expensive.gpu_seconds;
        node_rate(cpu_per_doc, gpu_per_doc)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scicorpus::generator::{DocumentGenerator, GeneratorConfig};

    fn corpus(n: usize, scanned_fraction: f64, seed: u64) -> Vec<Document> {
        DocumentGenerator::new(GeneratorConfig {
            n_documents: n,
            seed,
            min_pages: 1,
            max_pages: 2,
            scanned_fraction,
            ..Default::default()
        })
        .generate_many(n)
    }

    fn trained_engine(config: AdaParseConfig) -> AdaParseEngine {
        let mut engine = AdaParseEngine::new(config);
        engine.train_on_corpus(&corpus(20, 0.3, 111), 5);
        engine
    }

    /// A binary campaign over windows of `window` documents.
    fn run(engine: &AdaParseEngine, docs: &[Document], window: usize, seed: u64) -> CampaignResult {
        let binary = CascadeConfig::binary(engine.config(), window);
        CampaignPipeline::default().run_cascade(engine, docs, &binary, seed).result
    }

    #[test]
    fn alpha_budget_is_respected() {
        let engine = trained_engine(AdaParseConfig { alpha: 0.10, ..Default::default() });
        let docs = corpus(40, 0.4, 222);
        let result = run(&engine, &docs, 10, 9);
        let upgraded = result.routed.iter().filter(|r| r.parser == ParserKind::Nougat).count();
        assert!(upgraded <= (0.10 * 40.0f64).floor() as usize, "{upgraded} upgraded");
        assert_eq!(result.high_quality_fraction, upgraded as f64 / 40.0);
        assert_eq!(result.routed.len(), 40);
        assert_eq!(result.records.len(), 40);
        assert_eq!(result.quality.documents, 40);
    }

    #[test]
    fn adaparse_beats_the_pure_default_parser_on_mixed_corpora() {
        let engine = trained_engine(AdaParseConfig { alpha: 0.3, ..Default::default() });
        let docs = corpus(32, 0.5, 333);
        let adaparse = run(&engine, &docs, 16, 13);
        // Baseline: α = 0 means every document goes to PyMuPDF.
        let baseline_engine = trained_engine(AdaParseConfig { alpha: 0.0, ..Default::default() });
        let baseline = baseline_engine.parse_documents(&docs, 13);
        assert!(
            adaparse.quality.bleu >= baseline.quality.bleu,
            "adaparse {} must not trail extraction-only {}",
            adaparse.quality.bleu,
            baseline.quality.bleu
        );
        assert!(adaparse.high_quality_fraction > 0.0);
        assert!(baseline.high_quality_fraction == 0.0);
        // Extra quality costs extra resources.
        assert!(adaparse.total_cost.gpu_seconds > baseline.total_cost.gpu_seconds);
    }

    #[test]
    fn ft_variant_routes_without_llm_inference() {
        let engine =
            trained_engine(AdaParseConfig { variant: Variant::FastText, alpha: 0.2, ..Default::default() });
        let docs = corpus(16, 0.5, 444);
        let result = run(&engine, &docs, 8, 21);
        assert!(result.high_quality_fraction <= 0.2 + 1e-9);
        for decision in &result.routed {
            assert!(matches!(decision.parser, ParserKind::PyMuPdf | ParserKind::Nougat));
        }
    }

    #[test]
    fn a_shard_scores_like_its_documents_one_by_one() {
        use crate::campaign::ExtractStage;
        let docs = corpus(24, 0.4, 777);
        for variant in [Variant::Llm, Variant::FastText] {
            let engine = trained_engine(AdaParseConfig { variant, ..Default::default() });
            let stage = ExtractStage::new(engine.config(), &parsersim::ParserPool);
            let inputs: Vec<RoutingInput> = docs.iter().map(|doc| stage.run(doc, 3).input).collect();
            let shard: Vec<&RoutingInput> = inputs.iter().collect();
            let together = engine.routing_improvements(&shard);
            assert!(together.iter().any(|&(_, invalid)| invalid), "the shard mixes CLS I outcomes");
            assert!(together.iter().any(|&(_, invalid)| !invalid));
            for (input, (score, invalid)) in inputs.iter().zip(together) {
                let (alone, alone_invalid) = engine.routing_improvement(input);
                assert_eq!((alone.to_bits(), alone_invalid), (score.to_bits(), invalid), "{variant:?}");
            }
        }
        let engine = trained_engine(AdaParseConfig::default());
        assert!(engine.routing_improvements(&[]).is_empty());
    }

    #[test]
    fn scanned_documents_are_preferentially_routed_to_nougat() {
        let engine = trained_engine(AdaParseConfig { alpha: 0.25, ..Default::default() });
        let docs = corpus(40, 0.4, 555);
        let routed = engine.route_documents(&docs, 31);
        let mut nougat_scanned = 0usize;
        let mut nougat_clean = 0usize;
        for (doc, decision) in docs.iter().zip(&routed) {
            if decision.parser == ParserKind::Nougat {
                if doc.text_layer.pages.iter().any(|p| !p.trim().is_empty()) {
                    nougat_clean += 1;
                } else {
                    nougat_scanned += 1;
                }
            }
        }
        assert!(
            nougat_scanned >= nougat_clean,
            "scanned docs should dominate Nougat routing ({nougat_scanned} vs {nougat_clean})"
        );
        // CLS I should flag at least some scanned documents as invalid.
        assert!(routed.iter().any(|r| r.cls1_invalid));
    }

    #[test]
    fn throughput_ordering_matches_the_paper() {
        let llm = trained_engine(AdaParseConfig { variant: Variant::Llm, ..Default::default() });
        let ft = trained_engine(AdaParseConfig { variant: Variant::FastText, ..Default::default() });
        let t_llm = llm.node_throughput(10.0);
        let t_ft = ft.node_throughput(10.0);
        let t_nougat = CostModel::for_parser(ParserKind::Nougat).node_throughput(10.0);
        let t_pymupdf = CostModel::for_parser(ParserKind::PyMuPdf).node_throughput(10.0);
        // AdaParse sits between pure extraction and pure recognition…
        assert!(t_llm < t_pymupdf);
        assert!(t_llm > t_nougat);
        // …the FT variant is faster than the LLM variant…
        assert!(t_ft >= t_llm);
        // …and the LLM variant is roughly an order of magnitude (the paper
        // reports 17×) faster than Nougat alone.
        let ratio = t_llm / t_nougat;
        assert!(ratio > 5.0, "AdaParse(LLM)/Nougat ratio = {ratio}");
    }

    #[test]
    fn node_throughput_is_pinned_bit_for_bit() {
        // Untrained engines: routing weights do not enter the rate. Both
        // variants are GPU-bound at the default α; α = 0 leaves the CPU side.
        use Variant::{FastText, Llm};
        let bits = [(Llm, 0.05), (FastText, 0.05), (Llm, 0.0), (FastText, 0.0)].map(|(variant, alpha)| {
            AdaParseEngine::new(AdaParseConfig { variant, alpha, ..Default::default() })
                .node_throughput(10.0)
                .to_bits()
        });
        assert_eq!(
            bits,
            [0x4030_16a7_1016_a710, 0x4030_16a7_1016_a710, 0x4060_f2fb_a938_6822, 0x4063_3b13_b13b_13b1]
        );
    }

    #[test]
    fn untrained_engine_still_routes_within_budget() {
        let engine = AdaParseEngine::new(AdaParseConfig { alpha: 0.05, ..Default::default() });
        let docs = corpus(20, 0.2, 666);
        let routed = engine.route_documents(&docs, 41);
        let nougat = routed.iter().filter(|r| r.parser == ParserKind::Nougat).count();
        assert!(nougat <= (0.05 * 20.0f64).floor() as usize, "{nougat} upgraded");
    }

    #[test]
    fn empty_document_set_yields_empty_result() {
        let engine = AdaParseEngine::new(AdaParseConfig::default());
        let result = engine.parse_documents(&[], 1);
        assert_eq!(result.quality.documents, 0);
        assert_eq!(result.records.len(), 0);
        assert_eq!(result.high_quality_fraction, 0.0);
    }
}
