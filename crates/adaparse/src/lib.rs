//! AdaParse: the adaptive parallel PDF parsing and resource scaling engine.
//!
//! This crate is the paper's primary contribution: a meta-parser that routes
//! every document to the parser most likely to produce accurate text, subject
//! to a compute budget, and a staged parallel pipeline that runs that routing
//! as a large campaign.
//!
//! # Architecture: the staged campaign pipeline
//!
//! A campaign flows, one window of documents at a time, through four
//! explicit stages (see [`campaign`]):
//!
//! ```text
//!             ┌────────────┐   ┌───────────┐   ┌────────────┐   ┌────────────┐
//!  window k ──► ExtractStage├──►│RouteStage ├──►│ ParseStage ├──►│ ScoreStage ├─► CampaignResult
//!             │ (parallel)  │   │ + window  │   │ (parallel) │   │ (parallel) │      + RecordSink
//!             └────────────┘   │ selection │   └────────────┘   └────────────┘
//!                              └───────────┘
//! ```
//!
//! * **Extract** — SPDF round-trip plus a cheap first-page extraction with
//!   the default parser; produces the router's per-document features.
//! * **Route** — CLS I validity, then CLS II (FastText variant) or CLS III
//!   (LLM variant) improvement prediction, then the window's scores go
//!   through the one streaming [`WindowedSelector`], which caps the upgraded
//!   fraction at α over the campaign's parser frontier (two parsers for the
//!   paper's binary router, k for a [`CascadeConfig::full`] cascade).
//! * **Parse** — each document runs its assigned parser
//!   ([`parsersim::ParserKind::parse_file`]; parsers hold no state).
//! * **Score** — BLEU/ROUGE/CAR/coverage against ground truth plus resource
//!   accounting; records stream to a [`RecordSink`] in document order.
//!
//! There is one campaign loop, and one call that parses:
//! [`CampaignPipeline::run_with_sink`] runs a [`CascadeConfig`] and streams
//! its records; `run_cascade` buffers them and `route_cascade` stops after
//! routing. One selector spans the campaign, so unspent credit carries from
//! window to window and a binary campaign of n documents upgrades at most
//! ⌊α·n⌋ of them.
//! The parallel stages run over shards of a window on a `rayon` thread pool
//! ([`PipelineConfig`] sets worker count and shard size). Per-document RNG
//! streams are keyed by `seed ^ doc_id` and the final fold is in input order,
//! so the result is **bitwise identical for every worker count** — the
//! pipeline scales without changing a single output bit. Parser errors are
//! never silently swallowed: [`CampaignFailures`] counts them per stage.
//!
//! Module map:
//!
//! * [`config`] — the engine configuration (variant, α budget, parser pair),
//! * [`budget`] — the Appendix C constrained-budget optimizer (global top-⌊αn⌋
//!   selection, the k-parser greedy, and the per-batch reference the
//!   streaming selector is measured against),
//! * [`engine`] — configuration + training + the hierarchical router
//!   (CLS I → II → III); campaign entry points delegate to the pipeline,
//! * [`campaign`] — the staged parallel pipeline described above,
//! * [`cascade`] — the k-parser frontier configuration, the per-upgrade
//!   gain transform and the routing unit (document or page); the binary
//!   router is its two-parser case,
//! * [`scaling`] — the resource-scaling engine: the streaming
//!   [`WindowedSelector`], the feedback-driven [`ScalingController`]
//!   that reallocates workers (and `hpcsim` nodes) between stages — driven
//!   by simulated time, never wall time — the seconds [`Ledger`] whose
//!   [`ObservedCosts`] tighten or loosen the effective α as measured costs
//!   diverge from plan, and the fully closed, *waveless* simulation loop
//!   ([`scaling::simloop`]: one persistent `hpcsim` executor session whose
//!   slots, warm pools, and pair anchors survive across decision epochs),
//! * [`output`] — JSONL records, [`RecordSink`], in-memory and streaming
//!   JSONL sinks,
//! * [`hpc`] — the bridge turning routed documents into `hpcsim` tasks so
//!   multi-node throughput (Figure 5) and GPU utilization (Figure 4) can be
//!   simulated, including node-affinity task placement from a
//!   [`scaling::NodePlan`] and parse→extract dependency edges for the
//!   dependency-aware engine.
//!
//! # Example
//!
//! ```
//! use adaparse::{AdaParseConfig, AdaParseEngine, CampaignPipeline, CascadeConfig, PipelineConfig};
//! use scicorpus::{Corpus, GeneratorConfig};
//!
//! // A small corpus with a train/test split.
//! let corpus = Corpus::generate(&GeneratorConfig {
//!     n_documents: 12,
//!     seed: 3,
//!     min_pages: 1,
//!     max_pages: 2,
//!     ..Default::default()
//! });
//! let train: Vec<_> = corpus.train().into_iter().cloned().collect();
//! let test: Vec<_> = corpus.test().into_iter().cloned().collect();
//!
//! // Train the router and run a campaign through the parallel pipeline.
//! let mut engine = AdaParseEngine::new(AdaParseConfig::default());
//! engine.train_on_corpus(&train, 7);
//! let pipeline = CampaignPipeline::new(PipelineConfig { workers: 2, shard_size: 4 });
//! let binary = CascadeConfig::binary(engine.config(), 256);
//! let report = pipeline.run_cascade(&engine, &test, &binary, 11);
//! assert_eq!(report.result.quality.documents, test.len());
//! // Identical to the engine's default (sequential-equivalent) entry point.
//! assert_eq!(report.result, engine.parse_documents(&test, 11));
//!
//! // Windows of 4 carry unspent quota credit from window to window; the
//! // result is bitwise identical across worker counts too.
//! let windowed = pipeline.run_cascade(&engine, &test, &CascadeConfig::binary(engine.config(), 4), 11);
//! assert_eq!(windowed.result.quality.documents, test.len());
//! ```

#![deny(missing_docs)]

pub mod budget;
pub mod campaign;
pub mod cascade;
pub mod config;
pub mod engine;
pub mod hpc;
pub mod output;
pub mod scaling;
pub mod serve;
pub mod stats;

pub use budget::{assign_k, max_affordable_alpha, select_global, KAssignment};
pub use campaign::{CampaignFailures, CampaignPipeline, CascadeReport, PipelineConfig, RoutingInput};
pub use cascade::{cascade_gains, CascadeConfig, ParserChoice, RoutingGranularity};
pub use config::{AdaParseConfig, Variant};
pub use engine::{AdaParseEngine, CampaignQuality, CampaignResult, RoutedDocument};
pub use hpc::{
    parser_throughput_at_scale, task_id_stride, tasks_for_cascade_with_affinity, tasks_for_choices,
    WorkloadSpec,
};
pub use output::{JsonlSink, MemorySink, ParsedRecord, RecordSink};
pub use scaling::{
    planned_costs, run_closed_loop, Allocation, AllocationEvent, AutoscaleConfig, ControllerConfig,
    FleetEvent, Ledger, NodePlan, ObservedCosts, ScalingController, SimLoopConfig, SimLoopReport, SimWave,
    SloAutoscaler, Stage, StageSample, WaveCosts, WaveStats, WindowedSelector, DEFAULT_PRIOR_WEIGHT,
};
pub use serve::{
    run_service, run_service_instrumented, CampaignBudget, DocArrival, ServeConfig, ServeReport, SoakStats,
    TenantRegistry, TenantServeReport, TenantSpec, TenantTrace, BY_PAGE_PLANNED_FRACTION,
};
pub use stats::{nearest_rank_percentile, LatencyLedger, LatencySummary};
