//! The staged, parallel campaign pipeline.
//!
//! This module is the execution spine of the reproduction. A campaign runs
//! window by window through four explicit stages:
//!
//! 1. [`ExtractStage`] — serialize each document to SPDF, open it as a
//!    validated [`SpdfIndex`] and run the cheap default parser over page 0
//!    alone to produce the [`RoutingInput`] the router consumes (no ground
//!    truth involved; later pages are checked but never decoded).
//! 2. [`RouteStage`] — score every document's expected improvement under the
//!    high-quality parser (CLS I → II/III); the window's scores then go
//!    through the streaming [`WindowedSelector`], which spends the α budget
//!    over the [`CascadeConfig`]'s frontier.
//! 3. [`ParseStage`] — parse each document with its assigned parser from the
//!    shared [`ParserPool`] (stitching per page under
//!    [`RoutingGranularity::ByPage`]).
//! 4. [`ScoreStage`] — score output against ground truth and account
//!    resource costs.
//!
//! There is **one loop**: every entry point of [`CampaignPipeline`] — binary
//! or k-parser, routing-only or full, buffered or sunk — is a call into the
//! same window loop with a [`CascadeConfig`]. The binary campaign is the
//! cascade over a two-parser frontier ([`CascadeConfig::binary`]): `run`,
//! `run_with_sink` and `route` are the paper's per-batch optimizer, which
//! forfeits unspent credit at every routing batch; `run_cascade` and
//! `route_cascade` carry it from window to window.
//!
//! Stages 1, 2a and 3–4 are per-document pure functions and run data-parallel
//! over shards of a window on one `rayon` thread pool ([`PipelineConfig`]
//! controls worker count and shard size); selection is a cheap sequential
//! pass per window. Per-document RNG streams are keyed by `seed ^ doc_id`,
//! window boundaries are fixed by the window size alone, and the reduction
//! folds per-document outcomes in input order, so a campaign's
//! [`CampaignResult`] is **bitwise identical for every worker count and
//! shard size** — the `campaign_fingerprints` test pins it for both.
//!
//! This is the *wall-clock* pipeline. Its simulated twin is
//! [`crate::scaling::simloop::run_closed_loop`], which runs the same
//! window-by-window circuit wavelessly inside a persistent
//! [`hpcsim::ExecutorSession`] — dependency edges, warm-pool residency, slot
//! state and the stage-split controller carried across decision epochs —
//! for deterministic what-if planning of the campaigns this pipeline
//! executes for real.

use docmodel::document::Document;
use docmodel::spdf::{write_document, SpdfFile, SpdfIndex};
use parsersim::cost::{CostModel, ResourceCost};
use parsersim::registry::ParserPool;
use parsersim::{ParseError, ParserKind};
use rand::rngs::StdRng;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};
use textmetrics::accepted::{AcceptedTokens, DEFAULT_ACCEPTANCE_THRESHOLD};
use textmetrics::{QualityReport, ReferenceText};

use rayon::prelude::*;
use rayon::ThreadPoolBuilder;

use crate::budget::is_candidate;
use crate::cascade::{
    cascade_gains, delegated_pages, CascadeConfig, CascadeFeatures, ParserChoice, RoutingGranularity,
};
use crate::config::AdaParseConfig;
use crate::engine::{AdaParseEngine, CampaignQuality, CampaignResult, RoutedDocument};
use crate::output::{MemorySink, ParsedRecord, RecordSink};
use crate::scaling::{Ledger, WindowedSelector};

/// Parallel-execution knobs of a campaign run.
///
/// `workers` and `shard_size` never affect the campaign's *result* — only
/// its wall-clock time. What a campaign routes is set by the engine's
/// [`AdaParseConfig`] (α and batch size of the binary entry points) or by
/// the [`CascadeConfig`] handed to the cascade entry points.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct PipelineConfig {
    /// Worker threads for the data-parallel stages (`0` = all available
    /// cores).
    pub workers: usize,
    /// Documents per shard handed to a worker at a time.
    pub shard_size: usize,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig { workers: 0, shard_size: 32 }
    }
}

impl PipelineConfig {
    /// Clamp degenerate values: a zero shard size would spin forever.
    pub fn normalized(mut self) -> Self {
        if self.shard_size == 0 {
            self.shard_size = 1;
        }
        self
    }
}

/// Per-document failure counts of a campaign (paper §5 failure analysis).
///
/// The simulated parsers can fail outright (malformed container, zero-page
/// document); previously those errors were silently swallowed into empty
/// strings. They still degrade into empty output — a campaign never aborts —
/// but the counts are surfaced here so failure rates are observable.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct CampaignFailures {
    /// First-page extractions (stage 1) that returned a parser error.
    pub extraction: usize,
    /// Assigned-parser runs (stage 3) that returned a parser error.
    pub parsing: usize,
}

impl CampaignFailures {
    /// Total number of failed parser invocations.
    pub fn total(&self) -> usize {
        self.extraction + self.parsing
    }
}

/// Everything the router needs for one document (no ground truth involved).
#[derive(Debug, Clone, PartialEq)]
pub struct RoutingInput {
    /// Document identifier.
    pub doc_id: u64,
    /// Cheap first-page extraction feeding CLS I–III.
    pub first_page_text: String,
    /// Metadata feature vector.
    pub metadata_features: Vec<f64>,
    /// Document title.
    pub title: String,
    /// Page count.
    pub pages: usize,
}

/// Stage 1 output for one document.
///
/// Neither the serialized container nor anything decoded from it is
/// retained: each stage re-derives the bytes from the document (the stand-in
/// for re-reading the PDF from storage), so campaign memory stays bounded by
/// the input corpus plus one wave of output.
pub struct Extracted {
    /// Router inputs.
    pub input: RoutingInput,
    /// Whether the container was corrupt or the first-page extraction failed
    /// (empty text was substituted).
    pub failed: bool,
}

/// Stage 1: serialize, validate the container, extract the first page.
pub struct ExtractStage<'a> {
    config: &'a AdaParseConfig,
    pool: &'a ParserPool,
}

impl<'a> ExtractStage<'a> {
    /// Create the stage over a shared parser pool.
    pub fn new(config: &'a AdaParseConfig, pool: &'a ParserPool) -> Self {
        ExtractStage { config, pool }
    }

    /// Run the stage for one document.
    pub fn run(&self, doc: &Document, seed: u64) -> Extracted {
        let first_page = self.first_page_text(&write_document(doc), seed ^ doc.id.0 ^ 0xEAF1);
        Extracted {
            failed: first_page.is_err(),
            input: RoutingInput {
                doc_id: doc.id.0,
                first_page_text: first_page.unwrap_or_default(),
                metadata_features: doc.metadata.feature_vector(),
                title: doc.metadata.title.clone(),
                pages: doc.page_count(),
            },
        }
    }

    /// The bytes → text half of the stage: a corrupt container is an error
    /// like any other parser failure, never a panic.
    fn first_page_text(&self, bytes: &[u8], rng_seed: u64) -> Result<String, ParseError> {
        let index = SpdfIndex::open(bytes)?;
        let parser = self.pool.get(self.config.default_parser);
        parser.first_page_text(&index, &mut StdRng::seed_from_u64(rng_seed))
    }
}

/// Stage 2a: hierarchical routing (CLS I → II/III) — the per-document score
/// the window's budget selection ranks.
pub struct RouteStage<'a> {
    engine: &'a AdaParseEngine,
}

impl<'a> RouteStage<'a> {
    /// Create the stage over a trained (or untrained) engine.
    pub fn new(engine: &'a AdaParseEngine) -> Self {
        RouteStage { engine }
    }

    /// Score one document's expected improvement:
    /// [`AdaParseEngine::routing_improvements`] of a shard of one.
    pub fn improvement(&self, input: &RoutingInput) -> (f64, bool) {
        self.engine.routing_improvement(input)
    }
}

/// Stage 3 output for one document.
pub struct Parsed {
    /// The assigned parser's output (empty text on failure).
    pub output: parsersim::ParseOutput,
    /// Whether the assigned parser failed.
    pub failed: bool,
}

/// Stage 3: parse with the assigned parser from the shared pool.
pub struct ParseStage<'a> {
    config: &'a AdaParseConfig,
    pool: &'a ParserPool,
}

impl<'a> ParseStage<'a> {
    /// Create the stage over a shared parser pool.
    pub fn new(config: &'a AdaParseConfig, pool: &'a ParserPool) -> Self {
        ParseStage { config, pool }
    }

    /// Run one named parser over the decoded container; a container that did
    /// not decode fails every parser. The per-document RNG stream is keyed by
    /// the document id alone, so every parser sees the same stream regardless
    /// of how the document was routed.
    fn run_parser(&self, file: Option<&SpdfFile>, doc: &Document, kind: ParserKind, seed: u64) -> Parsed {
        let mut rng = StdRng::seed_from_u64(seed ^ doc.id.0.wrapping_mul(0x2545F491));
        match file.and_then(|file| self.pool.get(kind).parse_file(file, &mut rng).ok()) {
            Some(output) => Parsed { output, failed: false },
            None => Parsed {
                output: parsersim::ParseOutput {
                    parser: kind,
                    text: String::new(),
                    pages_parsed: 0,
                    pages_total: doc.page_count(),
                    cost: ResourceCost::default(),
                },
                failed: true,
            },
        }
    }

    /// Run the stage for one routed document. With an empty delegation set
    /// the choice's parser handles the whole document. With
    /// [`crate::cascade::RoutingGranularity::ByPage`] delegation the upgrade
    /// parser and the frontier's `base` parser both run, and the output is
    /// stitched page by page: delegated pages come from the upgrade, the
    /// rest from the base. The stitched cost is the upgrade's cost scaled by
    /// the delegated page fraction — the base pass models re-reading the
    /// extraction the document already paid for, so only the delegated
    /// fraction is billed on top (the campaign's extraction cost covers the
    /// rest), which is the whole point of per-page delegation.
    ///
    /// The SPDF container is re-derived from the document (modelling a
    /// re-read from storage) rather than carried over from extraction,
    /// keeping campaign memory window-bounded; it is written and decoded
    /// once, however many parsers read it.
    pub fn run_choice(&self, doc: &Document, choice: &ParserChoice, base: ParserKind, seed: u64) -> Parsed {
        self.run_choice_on(&write_document(doc), doc, choice, base, seed)
    }

    /// The bytes → output half of [`Self::run_choice`]: a corrupt container
    /// is a failed parse, never a panic.
    fn run_choice_on(
        &self,
        bytes: &[u8],
        doc: &Document,
        choice: &ParserChoice,
        base: ParserKind,
        seed: u64,
    ) -> Parsed {
        let file = SpdfFile::parse(bytes).ok();
        let upgraded = self.run_parser(file.as_ref(), doc, choice.parser, seed);
        if choice.upgraded_pages.is_empty() || upgraded.failed {
            return upgraded;
        }
        let base_parse = self.run_parser(file.as_ref(), doc, base, seed);
        let total = doc.page_count();
        let upgrade_pages: Vec<&str> = upgraded.output.text.split('\u{c}').collect();
        let base_pages: Vec<&str> = base_parse.output.text.split('\u{c}').collect();
        let mut stitched: Vec<&str> = Vec::with_capacity(total);
        for page in 0..total {
            let text = if choice.upgraded_pages.contains(&page) {
                upgrade_pages.get(page).copied().unwrap_or("")
            } else {
                base_pages.get(page).copied().unwrap_or("")
            };
            stitched.push(text);
        }
        let pages_parsed = stitched.iter().filter(|text| !text.is_empty()).count();
        let fraction = choice.upgraded_pages.len() as f64 / total.max(1) as f64;
        Parsed {
            output: parsersim::ParseOutput {
                parser: choice.parser,
                text: stitched.join("\u{c}"),
                pages_parsed,
                pages_total: total,
                cost: upgraded.output.cost.scaled(fraction),
            },
            failed: false,
        }
    }

    /// The cheap extraction every document pays regardless of routing.
    fn extraction_cost(&self, pages: usize) -> ResourceCost {
        CostModel::for_parser(self.config.default_parser).document_cost(pages, 0.3)
    }
}

/// Per-document outcome produced by stage 4 and folded into the campaign
/// aggregate.
pub struct DocOutcome {
    /// JSONL-ready record.
    pub record: ParsedRecord,
    /// Quality against ground truth.
    pub report: QualityReport,
    /// Word tokens in the output (feeds accepted-token accounting).
    pub tokens: usize,
    /// Resources consumed by this document (extraction + assigned parser).
    pub cost: ResourceCost,
    /// Whether the document was upgraded: routed to any parser but the
    /// default one (in a binary campaign, the high-quality parser).
    pub high_quality: bool,
    /// Whether the assigned parser failed.
    pub parse_failed: bool,
}

/// Stage 4: score parsed output against ground truth and account costs.
pub struct ScoreStage<'a> {
    config: &'a AdaParseConfig,
}

impl<'a> ScoreStage<'a> {
    /// Create the stage.
    pub fn new(config: &'a AdaParseConfig) -> Self {
        ScoreStage { config }
    }

    /// Run the stage for one document.
    pub fn run(
        &self,
        doc: &Document,
        decision: &RoutedDocument,
        parsed: Parsed,
        extraction_cost: ResourceCost,
    ) -> DocOutcome {
        let output = parsed.output;
        // The cheap extraction is always paid (it feeds the router); the
        // assigned parser is paid on top unless it *is* the extraction.
        let mut cost = extraction_cost;
        if decision.parser != self.config.default_parser {
            cost = cost + output.cost;
        }
        let (report, tokens) =
            ReferenceText::new(&doc.ground_truth()).score_counting(&output.text, output.coverage());
        DocOutcome {
            record: ParsedRecord {
                doc_id: doc.id.0,
                parser: decision.parser,
                text: output.text,
                coverage: report.coverage,
                bleu: report.bleu,
            },
            report,
            tokens,
            cost,
            high_quality: decision.parser != self.config.default_parser,
            parse_failed: parsed.failed,
        }
    }
}

/// Result of a k-parser cascade campaign: the ordinary [`CampaignResult`]
/// plus the cascade-specific routing breakdown.
///
/// For [`CascadeConfig::binary`] the embedded `result` is the binary
/// campaign with credit carried across windows of the cascade's size;
/// [`CampaignPipeline::run`] is the same loop with credit forfeited at every
/// routing batch.
#[derive(Debug, Clone, PartialEq)]
pub struct CascadeReport {
    /// The campaign result (quality, costs, failures, records), folded in
    /// input order exactly like every other campaign mode.
    pub result: CampaignResult,
    /// Per-document cascade decisions, in input order.
    pub choices: Vec<ParserChoice>,
    /// Documents per resolved parser, in [`ParserKind::index`] order
    /// (parsers that received no documents are omitted).
    pub parser_docs: Vec<(ParserKind, usize)>,
    /// Planned spend per parser class, in page-dollars
    /// ([`parsersim::registry::page_dollars`] units), net of per-page
    /// delegation refunds.
    pub dollars: Ledger,
    /// Pages delegated to upgrade parsers under
    /// [`RoutingGranularity::ByPage`] (0 under
    /// [`RoutingGranularity::ByDoc`]).
    pub pages_delegated: usize,
    /// Total pages in the corpus.
    pub pages_total: usize,
}

/// The staged campaign executor.
///
/// Owns a [`ParserPool`] (each parser constructed once, shared across all
/// workers), the rayon thread pool (built once per pipeline), and a
/// [`PipelineConfig`]. Results are independent of both knobs; see the module
/// docs for why.
pub struct CampaignPipeline {
    config: PipelineConfig,
    pool: ParserPool,
    threads: rayon::ThreadPool,
}

impl Default for CampaignPipeline {
    fn default() -> Self {
        CampaignPipeline::new(PipelineConfig::default())
    }
}

impl CampaignPipeline {
    /// Create a pipeline with explicit parallelism knobs.
    pub fn new(config: PipelineConfig) -> Self {
        let config = config.normalized();
        let threads = ThreadPoolBuilder::new()
            .num_threads(config.workers)
            .build()
            .expect("thread pool construction cannot fail");
        CampaignPipeline { config, pool: ParserPool::new(), threads }
    }

    /// The pipeline's parallelism configuration.
    pub fn config(&self) -> &PipelineConfig {
        &self.config
    }

    /// Run stages 1–2 only: routing decisions for a document collection, in
    /// input order, without parsing or scoring — exactly the
    /// [`CampaignResult::routed`] of [`Self::run`].
    pub fn route(&self, engine: &AdaParseEngine, documents: &[Document], seed: u64) -> Vec<RoutedDocument> {
        let (result, ..) = self
            .run_windows(engine, documents, &per_batch(engine), false, seed, None)
            .expect("routing writes to no sink");
        result.routed
    }

    /// Run the full campaign, buffering records in memory (the classic
    /// [`CampaignResult::records`] shape). Selection is the paper's Appendix C
    /// per-batch optimizer: each routing batch
    /// ([`AdaParseConfig::batch_size`]) upgrades its own `⌊len·α⌋`
    /// documents, and the fractional remainder is forfeited.
    pub fn run(&self, engine: &AdaParseEngine, documents: &[Document], seed: u64) -> CampaignResult {
        let mut sink = MemorySink::new();
        let mut result =
            self.run_with_sink(engine, documents, seed, &mut sink).expect("memory sink cannot fail");
        result.records = sink.into_records();
        result
    }

    /// Run the full campaign, streaming each [`ParsedRecord`] to `sink` in
    /// input order instead of buffering (`CampaignResult::records` stays
    /// empty). The campaign runs routing batch by routing batch, and each
    /// batch is folded and sunk before the next is extracted. Decoded SPDF
    /// containers are per-stage temporaries and routing inputs are dropped
    /// with their window, so resident memory beyond the caller's own corpus
    /// is one window of parsed output plus the (small) per-document routing
    /// decisions.
    pub fn run_with_sink(
        &self,
        engine: &AdaParseEngine,
        documents: &[Document],
        seed: u64,
        sink: &mut dyn RecordSink,
    ) -> std::io::Result<CampaignResult> {
        let (result, ..) =
            self.run_windows(engine, documents, &per_batch(engine), false, seed, Some(sink))?;
        Ok(result)
    }

    /// Run stages 1–2 of a k-parser cascade campaign: per-document (and,
    /// under [`RoutingGranularity::ByPage`], per-page) routing decisions
    /// over the cascade's frontier, without parsing or scoring.
    ///
    /// Windows, α, and granularity come from the [`CascadeConfig`], and
    /// unspent credit carries from window to window. Decisions are bitwise
    /// identical for every worker count and shard size, like every other
    /// routing path.
    pub fn route_cascade(
        &self,
        engine: &AdaParseEngine,
        documents: &[Document],
        cascade: &CascadeConfig,
        seed: u64,
    ) -> Vec<ParserChoice> {
        let (_, choices, _) = self
            .run_windows(engine, documents, cascade, true, seed, None)
            .expect("routing writes to no sink");
        choices
    }

    /// Run a full k-parser cascade campaign: windowed selection over the
    /// cascade's frontier, whole-document or per-page delegation, parse and
    /// score folded in input order.
    ///
    /// Credit carries from window to window, so
    /// `run_cascade(&CascadeConfig::binary(config, k))` is the binary
    /// campaign with carried credit over windows of `k`. Wider frontiers
    /// route over the transformed gains of [`cascade_gains`]; per-page
    /// delegation sends only a document's above-mean-difficulty pages to the
    /// upgrade parser and bills only that fraction of the upgrade's cost. The report is bitwise
    /// identical across worker counts and shard sizes.
    pub fn run_cascade(
        &self,
        engine: &AdaParseEngine,
        documents: &[Document],
        cascade: &CascadeConfig,
        seed: u64,
    ) -> CascadeReport {
        let mut sink = MemorySink::new();
        let (mut result, choices, selector) = self
            .run_windows(engine, documents, cascade, true, seed, Some(&mut sink))
            .expect("memory sink cannot fail");
        result.records = sink.into_records();
        let parser_docs = ParserKind::ALL
            .iter()
            .map(|&kind| (kind, choices.iter().filter(|c| c.parser == kind).count()))
            .filter(|&(_, count)| count > 0)
            .collect();
        CascadeReport {
            result,
            parser_docs,
            dollars: selector.ledger().clone(),
            pages_delegated: choices.iter().map(|c| c.upgraded_pages.len()).sum(),
            pages_total: documents.iter().map(Document::page_count).sum(),
            choices,
        }
    }

    /// The campaign loop — the only one. Per window of the cascade:
    /// extract and score (stages 1–2a, sharded), select and resolve (stage
    /// 2b, sequential), then — when a `sink` is given — parse and score
    /// (stages 3–4, sharded), fold in input order and sink the records.
    /// Without a sink the loop stops after stage 2: the routing-only entry
    /// points. With `carry_credit` one selector spans the campaign;
    /// without it every window starts from a fresh selector, an independent
    /// `⌊len·α⌋` batch. Returns the result, the per-document choices, and
    /// the selector that made them (its page-dollar ledger feeds
    /// [`CascadeReport`]).
    fn run_windows(
        &self,
        engine: &AdaParseEngine,
        documents: &[Document],
        cascade: &CascadeConfig,
        carry_credit: bool,
        seed: u64,
        mut sink: Option<&mut dyn RecordSink>,
    ) -> std::io::Result<(CampaignResult, Vec<ParserChoice>, WindowedSelector)> {
        let config = engine.config();
        let parse = ParseStage::new(config, &self.pool);
        let score = ScoreStage::new(config);
        let base = cascade.frontier.base();
        let fresh =
            WindowedSelector::new(cascade.window, cascade.alpha).with_frontier(cascade.frontier.clone());
        let mut selector = fresh.clone();

        let mut aggregates = Aggregates::default();
        let mut routed_all: Vec<RoutedDocument> = Vec::with_capacity(documents.len());
        let mut choices_all: Vec<ParserChoice> = Vec::with_capacity(documents.len());
        let mut extraction_failures = 0usize;

        for wave_docs in documents.chunks(fresh.window()) {
            if !carry_credit {
                selector = fresh.clone();
            }
            let wave = self.extract_and_score_wave(engine, wave_docs, seed);
            extraction_failures += wave.failures;
            let (routed_wave, choice_wave) =
                resolve_wave(cascade, &mut selector, wave_docs, &wave.inputs, &wave.scores);

            if let Some(sink) = &mut sink {
                let jobs: Vec<(&Document, &RoutedDocument, &ParserChoice)> = wave_docs
                    .iter()
                    .zip(&routed_wave)
                    .zip(&choice_wave)
                    .map(|((doc, decision), choice)| (doc, decision, choice))
                    .collect();
                let shards: Vec<Vec<DocOutcome>> = self.threads.install(|| {
                    jobs.par_chunks(self.config.shard_size)
                        .map(|shard| {
                            shard
                                .iter()
                                .map(|&(doc, decision, choice)| {
                                    let parsed = parse.run_choice(doc, choice, base, seed);
                                    let extraction_cost = parse.extraction_cost(doc.page_count());
                                    score.run(doc, decision, parsed, extraction_cost)
                                })
                                .collect()
                        })
                        .collect()
                });
                for outcome in shards.into_iter().flatten() {
                    aggregates.fold(outcome, &mut **sink)?;
                }
            }
            routed_all.extend(routed_wave);
            choices_all.extend(choice_wave);
        }

        let result = aggregates.into_result(documents.len(), routed_all, extraction_failures);
        Ok((result, choices_all, selector))
    }

    /// Stages 1–2a for one window, sharded across the pool: each shard is
    /// extracted, then scored in one call (so CLS III projects the shard as
    /// a batch). A document's extraction and score depend on nothing but
    /// the document; results come back in input order.
    fn extract_and_score_wave(&self, engine: &AdaParseEngine, docs: &[Document], seed: u64) -> ExtractedWave {
        let stage = ExtractStage::new(engine.config(), &self.pool);
        let shards: Vec<Vec<(Extracted, (f64, bool))>> = self.threads.install(|| {
            docs.par_chunks(self.config.shard_size)
                .map(|shard| {
                    let extracted: Vec<Extracted> = shard.iter().map(|doc| stage.run(doc, seed)).collect();
                    let inputs: Vec<&RoutingInput> = extracted.iter().map(|e| &e.input).collect();
                    let improvements = engine.routing_improvements(&inputs);
                    extracted.into_iter().zip(improvements).collect()
                })
                .collect()
        });
        let mut inputs = Vec::with_capacity(docs.len());
        let mut scores = Vec::with_capacity(docs.len());
        let mut failures = 0usize;
        for (extracted, improvement) in shards.into_iter().flatten() {
            failures += extracted.failed as usize;
            inputs.push(extracted.input);
            scores.push(improvement);
        }
        ExtractedWave { inputs, scores, failures }
    }
}

/// The binary cascade of the per-batch entry points: the engine's two
/// parsers, α and routing batch.
fn per_batch(engine: &AdaParseEngine) -> CascadeConfig {
    CascadeConfig::binary(engine.config(), engine.config().batch_size)
}

/// Stage 2b of a window: transform scores into per-upgrade gains, select
/// through the running [`WindowedSelector`], and resolve each grant into a
/// [`ParserChoice`] (with its delegation set under
/// [`RoutingGranularity::ByPage`]) plus the [`RoutedDocument`] the parse and
/// score stages consume.
fn resolve_wave(
    cascade: &CascadeConfig,
    selector: &mut WindowedSelector,
    wave_docs: &[Document],
    inputs: &[RoutingInput],
    scores: &[(f64, bool)],
) -> (Vec<RoutedDocument>, Vec<ParserChoice>) {
    let features: Vec<CascadeFeatures> = wave_docs.iter().map(CascadeFeatures::of).collect();
    let gains = cascade_gains(&cascade.frontier, scores, &features);
    let granted = selector.select_frontier(&gains);
    let mut routed_wave = Vec::with_capacity(wave_docs.len());
    let mut choice_wave = Vec::with_capacity(wave_docs.len());
    for (i, doc) in wave_docs.iter().enumerate() {
        let (improvement, invalid) = scores[i];
        let gain = granted[i].map_or(improvement, |j| gains[j][i]);
        let mut choice =
            ParserChoice::resolve(&cascade.frontier, inputs[i].doc_id, granted[i], gain, invalid);
        if cascade.granularity == RoutingGranularity::ByPage && choice.is_upgraded() {
            let pages = delegated_pages(doc);
            if pages.len() < doc.page_count() {
                let fraction = pages.len() as f64 / doc.page_count().max(1) as f64;
                selector.ledger_mut().refund_delegated(choice.upgrade.expect("upgraded choice"), fraction);
                choice.upgraded_pages = pages;
            }
        }
        routed_wave.push(RoutedDocument {
            doc_id: choice.doc_id,
            parser: choice.parser,
            predicted_improvement: if is_candidate(improvement) { improvement } else { 0.0 },
            cls1_invalid: invalid,
        });
        choice_wave.push(choice);
    }
    (routed_wave, choice_wave)
}

/// Stage 1–2a output for one window.
struct ExtractedWave {
    /// Router inputs, in input order.
    inputs: Vec<RoutingInput>,
    /// CLS improvement scores, aligned with `inputs`.
    scores: Vec<(f64, bool)>,
    /// Extraction failures in the window.
    failures: usize,
}

/// The campaign's order-preserving aggregate fold. Folding is strictly in
/// input order, so float accumulation — and the [`CampaignResult`] as a
/// whole — is identical for every worker count, shard size, and window
/// boundary.
#[derive(Default)]
struct Aggregates {
    total_cost: ResourceCost,
    accepted: AcceptedTokens,
    coverage: f64,
    bleu: f64,
    rouge: f64,
    car: f64,
    high_quality: usize,
    parse_failures: usize,
}

impl Aggregates {
    /// Fold one document outcome and hand its record to the sink.
    fn fold(&mut self, outcome: DocOutcome, sink: &mut dyn RecordSink) -> std::io::Result<()> {
        self.coverage += outcome.report.coverage;
        self.bleu += outcome.report.bleu;
        self.rouge += outcome.report.rouge;
        self.car += outcome.report.car;
        self.accepted.record(outcome.tokens, outcome.report.bleu, DEFAULT_ACCEPTANCE_THRESHOLD);
        self.total_cost = self.total_cost + outcome.cost;
        self.high_quality += outcome.high_quality as usize;
        self.parse_failures += outcome.parse_failed as usize;
        sink.accept(outcome.record)
    }

    /// Close the fold into a [`CampaignResult`].
    fn into_result(
        self,
        documents: usize,
        routed: Vec<RoutedDocument>,
        extraction_failures: usize,
    ) -> CampaignResult {
        let n = documents.max(1) as f64;
        CampaignResult {
            quality: CampaignQuality {
                coverage: self.coverage / n,
                bleu: self.bleu / n,
                rouge: self.rouge / n,
                car: self.car / n,
                accepted_tokens: self.accepted.rate(),
                documents,
            },
            routed,
            high_quality_fraction: self.high_quality as f64 / n,
            total_cost: self.total_cost,
            records: Vec::new(),
            failures: CampaignFailures { extraction: extraction_failures, parsing: self.parse_failures },
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use scicorpus::generator::{DocumentGenerator, GeneratorConfig};

    /// Truncated and byte-bumped containers fed to the bytes half of stages 1
    /// and 3: whatever the reader rejects is a counted failure with empty
    /// output, whatever it accepts still runs.
    #[test]
    fn a_corrupt_container_is_a_counted_failure_in_both_stages() {
        let config = AdaParseConfig::default();
        let pool = ParserPool::new();
        let extract = ExtractStage::new(&config, &pool);
        let parse = ParseStage::new(&config, &pool);
        let config = GeneratorConfig { seed: 16, min_pages: 3, max_pages: 3, ..Default::default() };
        let doc = DocumentGenerator::new(config).generate();
        let by_page = ParserChoice {
            doc_id: doc.id.0,
            parser: ParserKind::Nougat,
            upgrade: Some(0),
            predicted_gain: 0.5,
            cls1_invalid: false,
            upgraded_pages: vec![1],
        };

        let bytes = write_document(&doc);
        let mut hostile: Vec<Vec<u8>> =
            (0..bytes.len()).step_by(61).map(|cut| bytes[..cut].to_vec()).collect();
        for at in (0..bytes.len()).step_by(97) {
            let mut bumped = bytes.clone();
            bumped[at] = bumped[at].wrapping_add(13);
            hostile.push(bumped);
        }
        let rejected = hostile.iter().filter(|bytes| SpdfIndex::open(bytes).is_err()).count();
        assert!(rejected > 50 && rejected < hostile.len(), "{rejected} of {}", hostile.len());

        let extraction = hostile.iter().filter(|bytes| extract.first_page_text(bytes, 7).is_err()).count();
        let mut failures = CampaignFailures { extraction, parsing: 0 };
        for bytes in &hostile {
            let parsed = parse.run_choice_on(bytes, &doc, &by_page, ParserKind::PyMuPdf, 7);
            assert_eq!(parsed.failed, SpdfIndex::open(bytes).is_err());
            assert_eq!(parsed.failed, parsed.output.text.is_empty() && parsed.output.pages_parsed == 0);
            assert_eq!(parsed.output.pages_total, 3);
            failures.parsing += parsed.failed as usize;
        }
        assert_eq!(failures, CampaignFailures { extraction: rejected, parsing: rejected });
    }
}
