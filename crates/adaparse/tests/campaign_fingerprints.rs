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
//!
//! The two full-frontier digests were re-pinned when the page became the
//! unit the selector grants and the ledger charges: "full frontier by-doc"
//! moved in its ledger alone (its dollars now read in pages; every other
//! hashed bit is unchanged), "full frontier by-page" in full. Both moved
//! again when routing stopped reading the `Document`: the cascade's gains
//! lost their ground-truth difficulty tilt and read legibility from the
//! container's page-image dictionaries.
//!
//! The three binary campaigns ("global-batch default", "window=10
//! alpha=0.13" and "fasttext global-batch") were recorded from the per-batch
//! entry points, which forfeited each batch's unspent credit; they now run
//! `run_cascade(&CascadeConfig::binary(&config, k))`, hashed over the
//! report's `result`. The two at k = 256 hold the 90-document corpus in one
//! window, where forfeiting and carrying select alike, and read the same
//! digests. "window=10 alpha=0.13" was re-pinned, and relabelled from
//! "global-batch batch=10 alpha=0.13", when the forfeit mode was deleted:
//! ⌊10 · 0.13⌋ = 1 a batch forfeited 0.3 in each of nine windows, and
//! carried credit spends it (0x56f79663e64657bd before).
//!
//! "fasttext global-batch" routes through CLS II, which reads a unit's
//! metadata feature vector and page count rather than its text: it pins
//! those two router inputs bit for bit (42 of its 90 documents are
//! candidates whose CLS II probability enters the digest).
//!
//! Each scenario is also hashed a second time, by the same walk with
//! `RoutedDocument::predicted_improvement` and `ParserChoice::predicted_gain`
//! left out: every choice, record, cost and quality figure, without the
//! last-ulp bits of the router's predictions. A change that moves only
//! prediction bits re-pins the first array and leaves the second alone.
//!
//! The five text-routed digests were re-pinned, that way, when CLS III's
//! regression head moved from the per-sample gradient to Gram-coordinate
//! descent: its predictions moved in their last bits, every decision-only
//! digest held, and "fasttext global-batch", which CLS II routes, held in
//! full. Before: 0xeed594167122bf63, 0xbe2f27f6cadf3f5a,
//! 0x1b7d02bbfc1022b0, 0xf7d1756cc9d87ff6, 0x6d6a8cfb7f50c24c.

use adaparse::{
    AdaParseConfig, AdaParseEngine, CampaignPipeline, CampaignResult, CascadeConfig, CascadeReport,
    PipelineConfig, Variant,
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

/// FNV-1a, order-sensitive, over every bit of a result — or, with
/// `predictions` off, over every bit but the router's predicted gains.
struct Fnv {
    hash: u64,
    predictions: bool,
}

impl Fnv {
    fn new(predictions: bool) -> Self {
        Fnv { hash: 0xCBF2_9CE4_8422_2325, predictions }
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &byte in bytes {
            self.hash ^= byte as u64;
            self.hash = self.hash.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }

    fn u64(&mut self, value: u64) {
        self.bytes(&value.to_le_bytes());
    }

    fn f64(&mut self, value: f64) {
        self.u64(value.to_bits());
    }

    fn prediction(&mut self, value: f64) {
        if self.predictions {
            self.f64(value);
        }
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
            self.prediction(decision.predicted_improvement);
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
            self.prediction(choice.predicted_gain);
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

/// A scenario's full digest and its decisions-only digest.
type Digests = (u64, u64);

/// Run one scenario at every shape, assert the shapes agree, return the digests.
fn pin(name: &str, run: impl Fn(PipelineConfig) -> Digests) -> Digests {
    let digests: Vec<Digests> =
        SHAPES.iter().map(|&(workers, shard_size)| run(PipelineConfig { workers, shard_size })).collect();
    assert!(digests.iter().all(|&d| d == digests[0]), "{name}: shapes {SHAPES:?} disagree: {digests:x?}");
    digests[0]
}

fn digests(walk: impl Fn(&mut Fnv)) -> Digests {
    let [full, decisions] = [true, false].map(|predictions| {
        let mut fnv = Fnv::new(predictions);
        walk(&mut fnv);
        fnv.hash
    });
    (full, decisions)
}

/// The binary campaign over windows of `window`, hashed over its result.
fn campaign_digest(
    engine: &AdaParseEngine,
    docs: &[Document],
    shape: PipelineConfig,
    window: usize,
) -> Digests {
    let binary = CascadeConfig::binary(engine.config(), window);
    let result = CampaignPipeline::new(shape).run_cascade(engine, docs, &binary, SEED).result;
    digests(|fnv| fnv.result(&result))
}

fn cascade_digest(
    engine: &AdaParseEngine,
    docs: &[Document],
    shape: PipelineConfig,
    cascade: &CascadeConfig,
) -> Digests {
    let report = CampaignPipeline::new(shape).run_cascade(engine, docs, cascade, SEED);
    digests(|fnv| fnv.report(&report))
}

#[test]
fn campaign_fingerprints() {
    let docs = corpus(90, 77);
    let default_engine = trained_engine(AdaParseConfig::default());
    let small_window = trained_engine(AdaParseConfig { alpha: 0.13, ..Default::default() });
    let config = AdaParseConfig { alpha: 0.2, ..Default::default() };
    let engine = trained_engine(config.clone());
    let fasttext = trained_engine(AdaParseConfig { variant: Variant::FastText, ..config.clone() });

    let actual = [
        pin("global-batch default", |shape| campaign_digest(&default_engine, &docs, shape, 256)),
        // 10 · 0.13 = 1.3 credit a window: the fractional 0.3 carries.
        pin("window=10 alpha=0.13", |shape| campaign_digest(&small_window, &docs, shape, 10)),
        pin("streaming window=16", |shape| campaign_digest(&engine, &docs, shape, 16)),
        pin("full frontier by-doc", |shape| {
            cascade_digest(&engine, &docs, shape, &CascadeConfig::full(&config, 16))
        }),
        pin("full frontier by-page", |shape| {
            cascade_digest(&engine, &docs, shape, &CascadeConfig::full(&config, 16).by_page())
        }),
        // CLS II routes on the metadata feature vector and the page count.
        pin("fasttext global-batch", |shape| campaign_digest(&fasttext, &docs, shape, 256)),
    ];
    let expected: [u64; 6] = [
        0x6e9b_3a77_2821_cdc4,
        0x8749_c9bb_ae3a_abdd,
        0x7194_07e4_5604_e8f7,
        0xfd94_4056_efb9_2e1a,
        0x6b7c_eadb_8343_f271,
        0x2298_4546_d650_95f5,
    ];
    // Every choice, record, cost and quality bit without the predicted gains.
    let expected_decisions: [u64; 6] = [
        0x77af_64d4_1eeb_df76,
        0x668a_d9bc_a2f4_56db,
        0xb4ca_e3ca_ef42_c2d5,
        0x52ea_6bf0_c900_d7db,
        0x3f41_9efa_62d3_e430,
        0x0d58_c63f_60fc_8e87,
    ];
    let (full, decisions): (Vec<u64>, Vec<u64>) = actual.into_iter().unzip();
    assert_eq!(full, expected, "actual digests: {full:#018x?}");
    assert_eq!(decisions, expected_decisions, "actual decisions-only digests: {decisions:#018x?}");
}
