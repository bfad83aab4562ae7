//! Fingerprint pins on the campaign loop.
//!
//! The digests below were captured on the commit *before* the three campaign
//! runners (two-phase `GlobalBatch`, overlapped streaming, cascade) and the
//! two floor-and-carry selectors were collapsed onto the single window loop —
//! when each scenario still ran through its own hand-written runner. They
//! replace the walls that pinned those runners to each other (k=2 by-doc
//! cascade ≡ streaming campaign, binary ≡ streaming in `streaming_scaling`):
//! any change to routing, parsing, scoring, folding order or ledger
//! arithmetic moves at least one digest. Every scenario is also run at five
//! (workers, shard) shapes, so the pins double as the cross-worker
//! determinism check for each policy — and, since CLS III scores a shard as
//! one batch, as the check that a document's score does not depend on its
//! shard-mates: shards of one are the batch-of-one view, shards of 300 hold
//! a whole window (the corpus is 90 documents) in one call.
//!
//! "streaming window=16" was recorded from the binary campaign with credit
//! carried across windows of 16; it now runs as
//! `run_cascade(&CascadeConfig::binary(&config, 16))`, hashed over the
//! report's `result`, and reads the same digest.

use adaparse::{
    AdaParseConfig, AdaParseEngine, CampaignPipeline, CampaignResult, CascadeConfig, CascadeReport,
    PipelineConfig,
};
use docmodel::document::Document;
use scicorpus::generator::{DocumentGenerator, GeneratorConfig};

const SHAPES: [(usize, usize); 5] = [(1, 7), (2, 8), (4, 16), (2, 1), (2, 300)];
const SEED: u64 = 11;

fn corpus(n: usize, seed: u64) -> Vec<Document> {
    DocumentGenerator::new(GeneratorConfig {
        n_documents: n,
        seed,
        min_pages: 1,
        max_pages: 3,
        scanned_fraction: 0.25,
        ..Default::default()
    })
    .generate_many(n)
}

fn trained_engine(config: AdaParseConfig) -> AdaParseEngine {
    let mut engine = AdaParseEngine::new(config);
    engine.train_on_corpus(&corpus(20, 2024), 5);
    engine
}

/// FNV-1a, order-sensitive, over every bit of a result.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.0 ^= byte as u64;
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn u64(&mut self, value: u64) {
        self.bytes(&value.to_le_bytes());
    }

    fn f64(&mut self, value: f64) {
        self.u64(value.to_bits());
    }

    fn result(&mut self, result: &CampaignResult) {
        let q = &result.quality;
        for value in [q.coverage, q.bleu, q.rouge, q.car, q.accepted_tokens, result.high_quality_fraction] {
            self.f64(value);
        }
        self.u64(q.documents as u64);
        let c = &result.total_cost;
        for value in [c.cpu_seconds, c.gpu_seconds, c.cpu_memory_mb, c.gpu_memory_mb] {
            self.f64(value);
        }
        self.u64(result.failures.extraction as u64);
        self.u64(result.failures.parsing as u64);
        self.u64(result.routed.len() as u64);
        for decision in &result.routed {
            self.u64(decision.doc_id);
            self.u64(decision.parser.index() as u64);
            self.f64(decision.predicted_improvement);
            self.u64(decision.cls1_invalid as u64);
        }
        self.u64(result.records.len() as u64);
        for record in &result.records {
            self.u64(record.doc_id);
            self.u64(record.parser.index() as u64);
            self.u64(record.text.len() as u64);
            self.bytes(record.text.as_bytes());
            self.f64(record.coverage);
            self.f64(record.bleu);
        }
    }

    fn report(&mut self, report: &CascadeReport) {
        self.result(&report.result);
        for choice in &report.choices {
            self.u64(choice.doc_id);
            self.u64(choice.parser.index() as u64);
            self.u64(choice.upgrade.map_or(0, |j| j as u64 + 1));
            self.f64(choice.predicted_gain);
            self.u64(choice.cls1_invalid as u64);
            self.u64(choice.upgraded_pages.len() as u64);
            for &page in &choice.upgraded_pages {
                self.u64(page as u64);
            }
        }
        for &(kind, docs) in &report.parser_docs {
            self.u64(kind.index() as u64);
            self.u64(docs as u64);
        }
        for (kind, dollars) in report.dollars.classes() {
            self.u64(kind.index() as u64);
            self.f64(dollars);
        }
        self.u64(report.pages_delegated as u64);
        self.u64(report.pages_total as u64);
    }
}

/// Run one scenario at every shape, assert the shapes agree, return the digest.
fn pin(name: &str, run: impl Fn(PipelineConfig) -> u64) -> u64 {
    let digests: Vec<u64> =
        SHAPES.iter().map(|&(workers, shard_size)| run(PipelineConfig { workers, shard_size })).collect();
    assert!(digests.iter().all(|&d| d == digests[0]), "{name}: shapes {SHAPES:?} disagree: {digests:x?}");
    digests[0]
}

fn result_digest(result: &CampaignResult) -> u64 {
    let mut fnv = Fnv::new();
    fnv.result(result);
    fnv.0
}

fn campaign_digest(engine: &AdaParseEngine, docs: &[Document], shape: PipelineConfig) -> u64 {
    result_digest(&CampaignPipeline::new(shape).run(engine, docs, SEED))
}

fn cascade_digest(
    engine: &AdaParseEngine,
    docs: &[Document],
    shape: PipelineConfig,
    cascade: &CascadeConfig,
) -> u64 {
    let report = CampaignPipeline::new(shape).run_cascade(engine, docs, cascade, SEED);
    let mut fnv = Fnv::new();
    fnv.report(&report);
    fnv.0
}

#[test]
fn campaign_fingerprints() {
    let docs = corpus(90, 77);
    let default_engine = trained_engine(AdaParseConfig::default());
    let small_batch = trained_engine(AdaParseConfig { alpha: 0.13, batch_size: 10, ..Default::default() });
    let config = AdaParseConfig { alpha: 0.2, ..Default::default() };
    let engine = trained_engine(config.clone());

    let actual = [
        pin("global-batch default", |shape| campaign_digest(&default_engine, &docs, shape)),
        // ⌊10 · 0.13⌋ = 1 per batch: the fractional 0.3 is forfeited, never carried.
        pin("global-batch batch=10 alpha=0.13", |shape| campaign_digest(&small_batch, &docs, shape)),
        pin("streaming window=16", |shape| {
            let binary = CascadeConfig::binary(&config, 16);
            result_digest(&CampaignPipeline::new(shape).run_cascade(&engine, &docs, &binary, SEED).result)
        }),
        pin("full frontier by-doc", |shape| {
            cascade_digest(&engine, &docs, shape, &CascadeConfig::full(&config, 16))
        }),
        pin("full frontier by-page", |shape| {
            cascade_digest(&engine, &docs, shape, &CascadeConfig::full(&config, 16).by_page())
        }),
    ];
    let expected: [u64; 5] = [
        0xeed5_9416_7122_bf63,
        0x56f7_9663_e646_57bd,
        0x1b7d_02bb_fc10_22b0,
        0xc6ac_a40b_e577_995c,
        0xb221_f4f8_6eb2_88d0,
    ];
    assert_eq!(actual, expected, "actual digests: {actual:#018x?}");
}
