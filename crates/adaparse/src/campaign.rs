//! The staged, parallel campaign pipeline.
//!
//! This module is the execution spine of the reproduction. A campaign runs
//! window by window through four explicit stages:
//!
//! 1. [`ExtractStage`] — serialize each document to SPDF, then read only the
//!    bytes: open them as a validated [`SpdfIndex`] and build the
//!    [`RoutingInput`]s the router consumes from what the container records
//!    and the cheap default parser's text — one per document from page 0
//!    alone (later pages are checked but never decoded), or one per page
//!    under [`RoutingGranularity::ByPage`].
//! 2. [`RouteStage`] — score every unit's expected improvement under the
//!    high-quality parser (CLS I → II/III); the window's scores then go
//!    through the streaming [`WindowedSelector`], which spends the α budget
//!    over the [`CascadeConfig`]'s frontier, unit by unit, and charges each
//!    unit's pages to its ledger.
//! 3. [`ParseStage`] — parse each document with its assigned parser
//!    ([`ParserKind::parse_file`]; stitched per page when only some of a
//!    document's pages were granted).
//! 4. [`ScoreStage`] — score output against ground truth and account
//!    resource costs.
//!
//! There is **one loop** and **one credit rule**.
//! [`CampaignPipeline::run_with_sink`] runs a [`CascadeConfig`] (binary or
//! k-parser, by document or by page) and streams the records to a
//! [`RecordSink`]; `run_cascade` buffers them and `route_cascade` stops
//! after stage 2. One selector spans the campaign, so credit a window leaves
//! unspent carries to the next and a campaign of n routing units spends at
//! most ⌊α·n⌋ slots (a slot is one upgrade to the costliest parser; in the
//! binary campaign, one upgraded document).
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
use docmodel::metadata::DocMetadata;
use docmodel::spdf::{write_document, SpdfFile, SpdfIndex};
use parsersim::cost::{CostModel, ResourceCost, PLANNING_DIFFICULTY};
use parsersim::registry::ParserPool;
use parsersim::{ParseError, ParserKind};
use rand::rngs::StdRng;
use rand::SeedableRng;
use textmetrics::accepted::{AcceptedTokens, DEFAULT_ACCEPTANCE_THRESHOLD};
use textmetrics::{QualityReport, ReferenceText};

use rayon::prelude::*;
use rayon::ThreadPoolBuilder;

use crate::budget::is_candidate;
use crate::cascade::{cascade_gains, CascadeConfig, ParserChoice, RoutingGranularity};
use crate::config::AdaParseConfig;
use crate::engine::{AdaParseEngine, CampaignQuality, CampaignResult, RoutedDocument};
use crate::output::{MemorySink, ParsedRecord, RecordSink};
use crate::scaling::{Ledger, WindowedSelector};

/// Parallel-execution knobs of a campaign run.
///
/// `workers` and `shard_size` never affect the campaign's *result* — only
/// its wall-clock time. What a campaign routes is set by the
/// [`CascadeConfig`] it runs.
#[derive(Debug, Clone, Copy, PartialEq)]
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
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
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

/// Everything the router needs for one routing unit — a document, or one of
/// its pages under [`RoutingGranularity::ByPage`] — all of it read from the
/// unit's SPDF container.
#[derive(Debug, Clone, PartialEq)]
pub struct RoutingInput {
    /// Identifier of the unit's document (its storage key).
    pub doc_id: u64,
    /// Cheap default-parser extraction feeding CLS I–III: the document's
    /// first page, or the unit's page.
    pub text: String,
    /// The metadata feature vector ([`DocMetadata::feature_vector`]) of the
    /// container's `/Info` dictionary and header version.
    pub metadata_features: Vec<f64>,
    /// The container's page count.
    pub pages: usize,
    /// Mean legibility of the container's page images
    /// ([`SpdfIndex::mean_legibility`]).
    pub legibility: f64,
}

/// The most characters of a later page's text a by-page unit routes on.
const MAX_PAGE_CHARS: usize = 3_200;

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

/// Stage 1: serialize, validate the container, extract the routing units.
pub struct ExtractStage<'a> {
    config: &'a AdaParseConfig,
}

impl<'a> ExtractStage<'a> {
    /// Create the stage. The [`ParserPool`] is the frozen benchmark's
    /// spelling and carries nothing.
    pub fn new(config: &'a AdaParseConfig, _pool: &ParserPool) -> Self {
        ExtractStage { config }
    }

    /// Run the stage for one document: its by-doc routing input.
    pub fn run(&self, doc: &Document, seed: u64) -> Extracted {
        let (mut inputs, failed) =
            self.units(&write_document(doc), doc.id.0, RoutingGranularity::ByDoc, seed);
        Extracted { input: inputs.pop().expect("a by-doc document is one unit"), failed }
    }

    /// The routing units of the container `bytes` stored under `doc_id`,
    /// and whether extraction failed. A unit's text is the default parser's
    /// first page, then — by page — each later page of the same one whole
    /// parse (its page 0 is that first page), capped at
    /// [`MAX_PAGE_CHARS`]. A corrupt container, an `/Info` name or version
    /// [`SpdfIndex::metadata`] does not know, or a parser error fails
    /// extraction, never a panic: a failed by-doc document is one unit of
    /// empty text, a zero metadata vector and legibility 0.0 that keeps the
    /// container's page count if it opened (0 if not); a failed by-page
    /// document is none, so it stays on the base parser.
    fn units(
        &self,
        bytes: &[u8],
        doc_id: u64,
        by: RoutingGranularity,
        seed: u64,
    ) -> (Vec<RoutingInput>, bool) {
        let mut rng = StdRng::seed_from_u64(seed ^ doc_id ^ 0xEAF1);
        let index = SpdfIndex::open(bytes);
        let pages = index.as_ref().map_or(0, SpdfIndex::page_count);
        let read = index.map_err(ParseError::from).and_then(|index| {
            let metadata = index.metadata()?;
            let parser = self.config.default_parser;
            let texts = if by == RoutingGranularity::ByPage && pages > 1 {
                let text = parser.parse_file(&index.decode_all(), &mut rng)?.text;
                let mut page_texts = text.split('\u{c}');
                let mut texts = vec![page_texts.next().unwrap_or_default().to_string()];
                texts.extend(page_texts.map(|page| page.chars().take(MAX_PAGE_CHARS).collect()));
                texts
            } else {
                vec![parser.first_page_text(&index, &mut rng)?]
            };
            Ok((texts, metadata.feature_vector(), index.mean_legibility()))
        });
        let ((texts, metadata_features, legibility), failed) = match read {
            Ok(read) => (read, false),
            Err(_) if by == RoutingGranularity::ByDoc => {
                ((vec![String::new()], vec![0.0; DocMetadata::FEATURES], 0.0), true)
            }
            Err(_) => ((Vec::new(), Vec::new(), 0.0), true),
        };
        let input = |text| RoutingInput {
            doc_id,
            text,
            metadata_features: metadata_features.clone(),
            pages,
            legibility,
        };
        (texts.into_iter().map(input).collect(), failed)
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

/// Stage 3: parse with the assigned parser.
pub struct ParseStage<'a> {
    config: &'a AdaParseConfig,
}

impl<'a> ParseStage<'a> {
    /// Create the stage. The [`ParserPool`] is the frozen benchmark's
    /// spelling and carries nothing.
    pub fn new(config: &'a AdaParseConfig, _pool: &ParserPool) -> Self {
        ParseStage { config }
    }

    /// Run one named parser over the decoded container; a container that did
    /// not decode fails every parser. The per-document RNG stream is keyed by
    /// the document id alone, so every parser sees the same stream regardless
    /// of how the document was routed.
    fn run_parser(&self, file: Option<&SpdfFile>, doc: &Document, kind: ParserKind, seed: u64) -> Parsed {
        let mut rng = StdRng::seed_from_u64(seed ^ doc.id.0.wrapping_mul(0x2545F491));
        match file.and_then(|file| kind.parse_file(file, &mut rng).ok()) {
            Some(output) => Parsed { output, failed: false },
            None => Parsed { output: parsersim::ParseOutput::empty(kind, doc.page_count()), failed: true },
        }
    }

    /// Run the stage for one routed document. With no
    /// [`ParserChoice::upgraded_pages`] the choice's parser handles the
    /// whole document. Otherwise the upgrade parser and the frontier's
    /// `base` parser both run, and the output is stitched page by page:
    /// granted pages come from the upgrade, the rest from the base. The
    /// stitched cost is the upgrade's cost scaled by the granted page
    /// fraction — the base pass models re-reading the extraction the
    /// document already paid for, so only the granted fraction is billed on
    /// top (the campaign's extraction cost covers the rest).
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
        let (mut upgrade_pages, mut base_pages) =
            (upgraded.output.text.split('\u{c}'), base_parse.output.text.split('\u{c}'));
        let stitched: Vec<&str> = (0..total)
            .map(|page| {
                let (upgrade, base) = (upgrade_pages.next(), base_pages.next());
                if choice.upgraded_pages.contains(&page) { upgrade } else { base }.unwrap_or("")
            })
            .collect();
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
        CostModel::for_parser(self.config.default_parser).document_cost(pages, PLANNING_DIFFICULTY)
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

/// Result of a campaign: the ordinary [`CampaignResult`] plus the cascade's
/// routing breakdown. For [`CascadeConfig::binary`] the embedded `result`
/// is the paper's binary campaign over windows of the cascade's size.
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
    /// ([`parsersim::registry::page_dollars`] units): every routed unit's
    /// pages at the base rate, every granted unit's pages at its upgrade's.
    pub dollars: Ledger,
    /// Pages listed in [`ParserChoice::upgraded_pages`]: the granted pages
    /// of partly upgraded documents. A document with every page granted
    /// lists none, so this is always 0 under [`RoutingGranularity::ByDoc`].
    pub pages_delegated: usize,
    /// Total pages in the corpus.
    pub pages_total: usize,
}

/// The staged campaign executor.
///
/// Owns the rayon thread pool (built once per pipeline) and a
/// [`PipelineConfig`]. Results are independent of both knobs; see the module
/// docs for why.
pub struct CampaignPipeline {
    config: PipelineConfig,
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
        CampaignPipeline { config, threads }
    }

    /// Run a full campaign: windowed selection over the cascade's frontier,
    /// then parse and score, with each [`ParsedRecord`] streamed to `sink`
    /// in input order (`result.records` stays empty). Each window is folded
    /// and sunk before the next is extracted, so resident memory beyond the
    /// caller's corpus is one window of parsed output plus the per-document
    /// routing decisions.
    ///
    /// Windows, α and granularity come from the [`CascadeConfig`], and
    /// unspent credit carries from window to window:
    /// `CascadeConfig::binary(config, k)` is the paper's binary campaign
    /// over windows of k; wider frontiers route over the transformed gains
    /// of [`cascade_gains`]; by-page routing grants pages at α of the
    /// corpus' pages. The report is bitwise identical across worker counts
    /// and shard sizes.
    ///
    /// # Panics
    ///
    /// Panics if the frontier's base parser is not the engine's default
    /// parser: extraction routes on the default parser's text, and scoring
    /// bills every document that parser's extraction.
    pub fn run_with_sink(
        &self,
        engine: &AdaParseEngine,
        documents: &[Document],
        cascade: &CascadeConfig,
        seed: u64,
        sink: &mut dyn RecordSink,
    ) -> std::io::Result<CascadeReport> {
        let (result, choices, selector) = self.run_windows(engine, documents, cascade, seed, Some(sink))?;
        let parser_docs = ParserKind::ALL
            .iter()
            .map(|&kind| (kind, choices.iter().filter(|c| c.parser == kind).count()))
            .filter(|&(_, count)| count > 0)
            .collect();
        Ok(CascadeReport {
            result,
            parser_docs,
            dollars: selector.ledger().clone(),
            pages_delegated: choices.iter().map(|c| c.upgraded_pages.len()).sum(),
            pages_total: documents.iter().map(Document::page_count).sum(),
            choices,
        })
    }

    /// [`Self::run_with_sink`] into a [`MemorySink`]: the report's
    /// `result.records` holds every record, in input order.
    pub fn run_cascade(
        &self,
        engine: &AdaParseEngine,
        documents: &[Document],
        cascade: &CascadeConfig,
        seed: u64,
    ) -> CascadeReport {
        let mut sink = MemorySink::new();
        let mut report =
            self.run_with_sink(engine, documents, cascade, seed, &mut sink).expect("memory sink cannot fail");
        report.result.records = sink.into_records();
        report
    }

    /// Run stages 1–2 of [`Self::run_with_sink`] only: per-document routing
    /// decisions (granted page by page under [`RoutingGranularity::ByPage`]),
    /// without parsing or scoring — exactly the report's `choices`.
    pub fn route_cascade(
        &self,
        engine: &AdaParseEngine,
        documents: &[Document],
        cascade: &CascadeConfig,
        seed: u64,
    ) -> Vec<ParserChoice> {
        let (_, choices, _) =
            self.run_windows(engine, documents, cascade, seed, None).expect("routing writes to no sink");
        choices
    }

    /// The campaign loop — the only one. Per window of the cascade:
    /// extract and score (stages 1–2a, sharded), select and resolve (stage
    /// 2b, sequential), then — when a `sink` is given — parse and score
    /// (stages 3–4, sharded), fold in input order and sink the records.
    /// Without a sink the loop stops after stage 2: the routing-only calls.
    /// One selector spans the campaign, so unspent credit carries from
    /// window to window. Returns the result, the per-document choices, and
    /// the selector that made them (its page-dollar ledger feeds
    /// [`CascadeReport`]).
    pub(crate) fn run_windows(
        &self,
        engine: &AdaParseEngine,
        documents: &[Document],
        cascade: &CascadeConfig,
        seed: u64,
        mut sink: Option<&mut dyn RecordSink>,
    ) -> std::io::Result<(CampaignResult, Vec<ParserChoice>, WindowedSelector)> {
        let config = engine.config();
        let base = cascade.frontier.base();
        assert_eq!(
            base, config.default_parser,
            "the frontier's base parser {base} must be the engine's default parser {}",
            config.default_parser
        );
        let parse = ParseStage { config };
        let score = ScoreStage::new(config);
        let mut selector =
            WindowedSelector::new(cascade.window, cascade.alpha).with_frontier(cascade.frontier.clone());

        let mut aggregates = Aggregates::default();
        let mut routed_all: Vec<RoutedDocument> = Vec::with_capacity(documents.len());
        let mut choices_all: Vec<ParserChoice> = Vec::with_capacity(documents.len());
        let mut extraction_failures = 0usize;

        for wave_docs in documents.chunks(selector.window()) {
            let wave = self.extract_and_score_wave(engine, wave_docs, cascade.granularity, seed);
            extraction_failures += wave.iter().filter(|&(_, failed)| *failed).count();
            let doc_ids: Vec<u64> = wave_docs.iter().map(|doc| doc.id.0).collect();
            let (routed_wave, choice_wave) = resolve_wave(cascade, &mut selector, &doc_ids, &wave);

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

    /// Stages 1–2a for one window, sharded across the pool: each shard's
    /// documents are extracted into routing units, then every unit of the
    /// shard is scored in one call (so CLS III projects the shard as a
    /// batch). Returns each document's scored units and whether its
    /// extraction failed, in input order; both depend on nothing but the
    /// document's container.
    fn extract_and_score_wave(
        &self,
        engine: &AdaParseEngine,
        docs: &[Document],
        granularity: RoutingGranularity,
        seed: u64,
    ) -> Vec<ScoredDoc> {
        let stage = ExtractStage { config: engine.config() };
        let shards: Vec<Vec<ScoredDoc>> = self.threads.install(|| {
            docs.par_chunks(self.config.shard_size)
                .map(|shard| {
                    let extracted: Vec<(Vec<RoutingInput>, bool)> = shard
                        .iter()
                        .map(|doc| stage.units(&write_document(doc), doc.id.0, granularity, seed))
                        .collect();
                    let inputs: Vec<&RoutingInput> = extracted.iter().flat_map(|(units, _)| units).collect();
                    let mut scores = engine.routing_improvements(&inputs).into_iter();
                    let mut scored = |unit: &RoutingInput| ScoredUnit {
                        score: scores.next().expect("one score per unit"),
                        pages: unit.pages,
                        legibility: unit.legibility,
                    };
                    extracted
                        .iter()
                        .map(|(units, failed)| (units.iter().map(&mut scored).collect(), *failed))
                        .collect()
                })
                .collect()
        });
        shards.into_iter().flatten().collect()
    }
}

/// One routing unit after stages 1–2a: its score and CLS I verdict, and its
/// container's page count and legibility.
struct ScoredUnit {
    score: (f64, bool),
    pages: usize,
    legibility: f64,
}

/// One document's stages 1–2a: its scored units, and whether its extraction
/// failed.
type ScoredDoc = (Vec<ScoredUnit>, bool);

/// Stage 2b of a window: transform unit scores into per-upgrade gains
/// (each unit carries its container's legibility), select through the
/// running [`WindowedSelector`], which charges each unit's pages, and
/// resolve each of the window's documents (`doc_ids`, one per entry of
/// `wave`) into a [`ParserChoice`] and a [`RoutedDocument`].
///
/// A document resolves on its highest-gain granted unit (ties to the lower
/// page), else its first; every granted page runs that unit's upgrade and
/// is listed unless all are. A document without units stays on the base
/// parser.
fn resolve_wave(
    cascade: &CascadeConfig,
    selector: &mut WindowedSelector,
    doc_ids: &[u64],
    wave: &[ScoredDoc],
) -> (Vec<RoutedDocument>, Vec<ParserChoice>) {
    let frontier = &cascade.frontier;
    let units: Vec<&ScoredUnit> = wave.iter().flat_map(|(units, _)| units).collect();
    let scores: Vec<(f64, bool)> = units.iter().map(|unit| unit.score).collect();
    let legibility: Vec<f64> = units.iter().map(|unit| unit.legibility).collect();
    let by_page = cascade.granularity == RoutingGranularity::ByPage;
    let pages: Vec<usize> = units.iter().map(|unit| if by_page { 1 } else { unit.pages }).collect();
    let gains = cascade_gains(frontier, &scores, &legibility);
    let granted = selector.select_frontier(&gains, &pages);
    // A unit's grant, when it landed on a real candidate.
    let grant = |u: usize| granted[u].filter(|&j| is_candidate(gains[j][u]));
    let gain = |u: usize| granted[u].map_or(scores[u].0, |j| gains[j][u]);
    let (mut routed_wave, mut choice_wave) = (Vec::new(), Vec::new());
    let mut first = 0;
    for (&doc_id, units) in doc_ids.iter().zip(wave.iter().map(|(units, _)| units.len())) {
        let span = first..first + units;
        first = span.end;
        let lead = (span.clone().filter(|&u| grant(u).is_some()))
            .max_by(|&a, &b| gain(a).total_cmp(&gain(b)).then(b.cmp(&a)))
            .or((units > 0).then_some(span.start));
        let (improvement, invalid) = lead.map_or((0.0, false), |u| scores[u]);
        let (granted_lead, lead_gain) = lead.map_or((None, 0.0), |u| (granted[u], gain(u)));
        let mut choice = ParserChoice::resolve(frontier, doc_id, granted_lead, lead_gain, invalid);
        let upgraded: Vec<usize> = (0..units).filter(|&page| grant(span.start + page).is_some()).collect();
        if choice.is_upgraded() && upgraded.len() < units {
            choice.upgraded_pages = upgraded;
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

    /// Truncated and byte-bumped containers, and well-formed ones whose
    /// `/Info` or header names an unknown publisher, domain, producer or
    /// version, fed to the bytes half of stages 1 and 3 beside the untouched
    /// container: extraction fails exactly where the reader or
    /// [`SpdfIndex::metadata`] does, routing the failure on nothing but
    /// empty text; whatever the reader accepts still parses.
    #[test]
    fn a_corrupt_container_is_a_counted_failure_in_both_stages() {
        let config = AdaParseConfig::default();
        let extract = ExtractStage { config: &config };
        let parse = ParseStage { config: &config };
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
        // The untouched container first: the control that must not fail.
        let mut inputs = vec![bytes.clone()];
        inputs.extend((0..bytes.len()).step_by(61).map(|cut| bytes[..cut].to_vec()));
        for at in (0..bytes.len()).step_by(97) {
            let mut bumped = bytes.clone();
            bumped[at] = bumped[at].wrapping_add(13);
            inputs.push(bumped);
        }
        let m = &doc.metadata;
        for (prefix, known, unknown) in [
            ("/Publisher /", m.publisher.name(), "Elsevier"),
            ("/Domain /", m.domain.name(), "Alchemy"),
            ("/Producer (", m.producer.name(), "Acrobat"),
            ("%SPDF-", m.format.version_string(), "9.9"),
        ] {
            let from = format!("{prefix}{known}");
            let at = bytes.windows(from.len()).position(|w| w == from.as_bytes()).expect("written");
            let renamed =
                [&bytes[..at], prefix.as_bytes(), unknown.as_bytes(), &bytes[at + from.len()..]].concat();
            assert!(SpdfIndex::open(&renamed).is_ok(), "{unknown} is well-formed");
            inputs.push(renamed);
        }
        let rejected = inputs.iter().filter(|bytes| SpdfIndex::open(bytes).is_err()).count();
        assert!(rejected > 50 && rejected < inputs.len(), "{rejected} of {}", inputs.len());

        let (mut failures, mut unknown) = (CampaignFailures::default(), 0);
        for (i, bytes) in inputs.iter().enumerate() {
            let index = SpdfIndex::open(bytes);
            let unreadable = !index.as_ref().is_ok_and(|index| index.metadata().is_ok());
            unknown += (index.is_ok() && unreadable) as usize;
            let (units, failed) = extract.units(bytes, doc.id.0, RoutingGranularity::ByDoc, 7);
            assert_eq!(failed, unreadable, "input {i}");
            failures.extraction += failed as usize;
            if failed {
                let empty = RoutingInput {
                    doc_id: doc.id.0,
                    text: String::new(),
                    metadata_features: vec![0.0; DocMetadata::FEATURES],
                    pages: index.as_ref().map_or(0, SpdfIndex::page_count),
                    legibility: 0.0,
                };
                assert_eq!(units, [empty], "input {i}");
            }
            // A by-page document that fails extraction routes no unit.
            let (units, failed) = extract.units(bytes, doc.id.0, RoutingGranularity::ByPage, 7);
            assert_eq!((failed, units.len()), (unreadable, if unreadable { 0 } else { 3 }), "input {i}");
            let parsed = parse.run_choice_on(bytes, &doc, &by_page, ParserKind::PyMuPdf, 7);
            assert_eq!(parsed.failed, index.is_err());
            assert_eq!(parsed.failed, parsed.output.text.is_empty() && parsed.output.pages_parsed == 0);
            assert_eq!(parsed.output.pages_total, 3);
            failures.parsing += parsed.failed as usize;
        }
        assert!(unknown >= 4, "{unknown} unknown names");
        assert_eq!(failures, CampaignFailures { extraction: rejected + unknown, parsing: rejected });
    }
}
