//! Per-layer cost of one campaign document: what extraction, routing,
//! parsing and scoring each take, in time and in allocations.
//!
//! The corpus, engine and cascade are those of the repository benchmark's
//! `campaign_bydoc` workload at the same seed: 192 documents stratified over
//! its category skew and one to four pages, an engine trained on 24
//! one-page documents, and the full frontier at window 64. One by-doc
//! campaign (`run_cascade`, one worker) fixes every document's decision;
//! then each layer's public entry runs over the whole corpus on those
//! decisions, serially, [`REPS`] times, the layers interleaved within each
//! rep so a drift in machine speed reaches all of them alike. A row gives
//! the median pass in µs per document, the allocations and bytes per
//! document of one pass, and a digest of what the layer produced. Rows:
//!
//! * `campaign` — `run_cascade` itself, the whole document end to end;
//! * `extract` — `ExtractStage::run` (SPDF write, open, first page);
//! * `route` — `RouteStage::improvement` (CLS I–III) on each extraction;
//! * `parse` — `ParseStage::run_choice` on the campaign's choice;
//! * `score` — what `ScoreStage::run` scores: the ground truth, prepared as
//!   a `ReferenceText`, scoring the parse with `score_counting`;
//! * `score.reference` — the ground truth and its `ReferenceText` alone;
//! * `score.bleu` — `ReferenceText::bleu` on a prepared reference;
//! * `score.rouge_l`, `score.car` — `rouge_l` and `char_accuracy_rate` on
//!   the pair, each normalizing both texts itself.
//!
//! Each run appends an entry to `BENCH_layers.json`; `--validate` checks
//! the file (the CI step).
//!
//! ```text
//! cargo run --release --bin bench_layers                   # full entry
//! cargo run --release --bin bench_layers -- --out /tmp/BENCH_layers.json
//! cargo run --release --bin bench_layers -- --validate
//! ```

use std::hint::black_box;
use std::process::ExitCode;
use std::time::Instant;

use adaparse::campaign::{ExtractStage, ParseStage, RouteStage};
use adaparse::{AdaParseConfig, AdaParseEngine, CampaignPipeline, CascadeConfig, PipelineConfig};
use bench::driver::{drive, fnv1a, CountingAllocator, Flags, Trajectory};
use bench::trajectory::JsonValue;
use docmodel::document::{DocId, Document};
use docmodel::DocCategory;
use parsersim::{ParserKind, ParserPool};
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use scicorpus::categories::{generate_categorized, CategoryMix};
use scicorpus::generator::GeneratorConfig;
use selector::dataset::AccuracyDataset;
use textmetrics::{QualityReport, ReferenceText};

#[global_allocator]
static GLOBAL: CountingAllocator = CountingAllocator;

const TRAJECTORY: Trajectory = Trajectory {
    bin: "bench_layers",
    benchmark: "layers",
    required: &["label", "seed", "docs", "reps", "layers"],
};

/// The campaign workloads' category skew and their most pages a document.
const CATEGORY_SKEW: [(DocCategory, f64); 4] = [
    (DocCategory::Scanned, 0.30),
    (DocCategory::TablesHeavy, 0.25),
    (DocCategory::Multilingual, 0.10),
    (DocCategory::CleanBornDigital, 0.35),
];
const MAX_PAGES: usize = 4;

/// The campaign workloads' corpus size, and the passes a row's median is
/// taken over.
const DOCS: usize = 192;
const REPS: usize = 15;

/// Salts of the benchmark's seeded streams: training split, accuracy
/// dataset, corpus, shuffle, and the run.
const TRAIN: u64 = 0x7A11;
const DATASET: u64 = 0xDA7A;
const CORPUS: u64 = 0xC0A5;
const SHUFFLE: u64 = 0x5AFF;
const RUN: u64 = 0xCA5C;

/// The bin has no flags of its own.
fn parse_args(flags: &mut Flags) -> Result<(), String> {
    match flags.next_own()? {
        Some(flag) => Err(Flags::unknown(&flag)),
        None => Ok(()),
    }
}

/// `n` documents whose category shares follow [`CATEGORY_SKEW`] and whose
/// page counts cycle over `1..=max_pages` inside each category, shuffled
/// and renumbered: the benchmark's corpus for the same `n`, `max_pages`
/// and seed.
fn skewed_corpus(n: usize, max_pages: usize, seed: u64) -> Vec<Document> {
    let mut documents = Vec::with_capacity(n);
    let (mut assigned, mut cumulative) = (0usize, 0.0);
    for (cell, &(category, share)) in CATEGORY_SKEW.iter().enumerate() {
        cumulative += share;
        let upto = if cell + 1 == CATEGORY_SKEW.len() { n } else { (cumulative * n as f64).round() as usize };
        let in_category = upto.saturating_sub(assigned);
        assigned += in_category;
        for pages in 1..=max_pages {
            let count = (in_category + max_pages - pages) / max_pages;
            if count == 0 {
                continue;
            }
            let base = GeneratorConfig { min_pages: pages, max_pages: pages, ..Default::default() };
            let mix = CategoryMix { weights: vec![(category, 1.0)] };
            let cell_seed = seed ^ ((cell * MAX_PAGES + pages) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            documents.extend(generate_categorized(&base, &mix, count, cell_seed).documents);
        }
    }
    documents.shuffle(&mut StdRng::seed_from_u64(seed ^ SHUFFLE));
    for (index, doc) in documents.iter_mut().enumerate() {
        doc.id = DocId(index as u64);
    }
    documents
}

/// One row being measured: pass times, and the allocations, bytes and
/// digest of the first pass.
struct Layer {
    name: &'static str,
    seconds: Vec<f64>,
    allocations: u64,
    bytes: u64,
    digest: u64,
}

impl Layer {
    fn new(name: &'static str) -> Self {
        Layer { name, seconds: Vec::new(), allocations: 0, bytes: 0, digest: 0 }
    }

    /// Time one pass of `body`. The first pass's allocations are kept, and
    /// the digest of the bytes `digest` writes of its output.
    fn pass<T>(&mut self, body: impl FnOnce() -> T, digest: impl FnOnce(&T, &mut Vec<u8>)) {
        let (allocations, bytes) = (CountingAllocator::allocations(), CountingAllocator::allocated_bytes());
        let start = Instant::now();
        let output = black_box(body());
        self.seconds.push(start.elapsed().as_secs_f64());
        if self.seconds.len() == 1 {
            self.allocations = CountingAllocator::allocations() - allocations;
            self.bytes = CountingAllocator::allocated_bytes() - bytes;
            let mut digested = Vec::new();
            digest(&output, &mut digested);
            self.digest = fnv1a(digested);
        }
    }

    fn median_us_per_doc(&self, docs: usize) -> f64 {
        let mut sorted = self.seconds.clone();
        sorted.sort_by(f64::total_cmp);
        sorted[sorted.len() / 2] * 1e6 / docs as f64
    }

    fn json(&self, docs: usize) -> JsonValue {
        let per_doc = |count: u64| JsonValue::F64((count as f64 / docs as f64 * 10.0).round() / 10.0);
        JsonValue::object(vec![
            ("name", JsonValue::Str(self.name.to_string())),
            ("us_per_doc", JsonValue::F64((self.median_us_per_doc(docs) * 10.0).round() / 10.0)),
            ("allocations_per_doc", per_doc(self.allocations)),
            ("bytes_per_doc", per_doc(self.bytes)),
            ("digest", JsonValue::hex(self.digest)),
        ])
    }
}

fn bits_bytes(scores: &[f64], out: &mut Vec<u8>) {
    scores.iter().for_each(|score| out.extend_from_slice(&score.to_bits().to_le_bytes()));
}

fn report_bytes(report: &QualityReport, out: &mut Vec<u8>) {
    bits_bytes(&[report.bleu, report.rouge, report.car, report.coverage], out);
}

/// One output per document, in a vector that allocates once: a pass's
/// allocations are then the layer's own, and one more.
fn collect<T>(outputs: impl ExactSizeIterator<Item = T>) -> Vec<T> {
    let mut collected = Vec::with_capacity(outputs.len());
    collected.extend(outputs);
    collected
}

fn run(flags: &Flags, (): ()) -> Result<Vec<(&'static str, JsonValue)>, String> {
    let seed = flags.seed;
    let config = AdaParseConfig { alpha: 0.1, high_quality_parser: ParserKind::Marker, ..Default::default() };
    let mut engine = AdaParseEngine::new(config.clone());
    engine.train(&AccuracyDataset::build(&skewed_corpus(24, 1, seed ^ TRAIN), seed ^ DATASET, 1.0), &[]);
    let docs = skewed_corpus(DOCS, MAX_PAGES, seed ^ CORPUS);
    let mut cascade = CascadeConfig::full(&config, 64);
    let costliest = cascade.frontier.costliest().map_or(1.0, |entry| entry.cost_per_page);
    cascade.alpha = config.alpha * parsersim::page_dollars(config.high_quality_parser) / costliest;
    let base = cascade.frontier.base();
    let run_seed = seed ^ RUN;
    let pipeline = CampaignPipeline::new(PipelineConfig { workers: 1, ..Default::default() });
    let campaign = pipeline.run_cascade(&engine, &docs, &cascade, run_seed);
    println!(
        "bench_layers: {} documents, seed {seed}, {} reps, {} upgraded",
        docs.len(),
        REPS,
        campaign.choices.iter().filter(|choice| choice.is_upgraded()).count()
    );

    let pool = ParserPool::new();
    let (extract, route, parse) =
        (ExtractStage::new(&config, &pool), RouteStage::new(&engine), ParseStage::new(&config, &pool));
    let extracted: Vec<_> = docs.iter().map(|doc| extract.run(doc, run_seed)).collect();
    let parsed: Vec<_> = docs
        .iter()
        .zip(&campaign.choices)
        .map(|(doc, choice)| parse.run_choice(doc, choice, base, run_seed))
        .collect();
    let ground_truths: Vec<String> = docs.iter().map(Document::ground_truth).collect();
    let references: Vec<ReferenceText> = ground_truths.iter().map(|text| ReferenceText::new(text)).collect();
    let pairs = || parsed.iter().zip(&ground_truths).map(|(parsed, truth)| (&parsed.output, truth.as_str()));

    let mut layers = [
        "campaign",
        "extract",
        "route",
        "parse",
        "score",
        "score.reference",
        "score.bleu",
        "score.rouge_l",
        "score.car",
    ]
    .map(Layer::new);
    for _ in 0..REPS {
        let [whole, extract_layer, route_layer, parse_layer, score, reference, bleu, rouge, car] =
            &mut layers;
        whole.pass(
            || pipeline.run_cascade(&engine, &docs, &cascade, run_seed),
            |report, out| {
                let quality = &report.result.quality;
                bits_bytes(&[quality.bleu, quality.rouge, quality.car, quality.coverage], out);
                for record in &report.result.records {
                    out.extend_from_slice(&record.bleu.to_bits().to_le_bytes());
                    out.push(record.parser.index() as u8);
                }
            },
        );
        extract_layer.pass(
            || collect(docs.iter().map(|doc| extract.run(doc, run_seed))),
            |extracted, out| {
                for extracted in extracted {
                    out.extend_from_slice(extracted.input.text.as_bytes());
                    out.extend_from_slice(&extracted.input.legibility.to_bits().to_le_bytes());
                    out.push(u8::from(extracted.failed));
                }
            },
        );
        route_layer.pass(
            || collect(extracted.iter().map(|extracted| route.improvement(&extracted.input))),
            |scores, out| {
                for &(score, invalid) in scores {
                    out.extend_from_slice(&score.to_bits().to_le_bytes());
                    out.push(u8::from(invalid));
                }
            },
        );
        parse_layer.pass(
            || {
                collect(
                    docs.iter()
                        .zip(&campaign.choices)
                        .map(|(doc, choice)| parse.run_choice(doc, choice, base, run_seed)),
                )
            },
            |parsed, out| {
                for parsed in parsed {
                    out.extend_from_slice(parsed.output.text.as_bytes());
                    out.push(u8::from(parsed.failed));
                }
            },
        );
        score.pass(
            || {
                collect(docs.iter().zip(pairs()).map(|(doc, (output, _))| {
                    ReferenceText::new(&doc.ground_truth()).score_counting(&output.text, output.coverage())
                }))
            },
            |scored, out| {
                for (report, tokens) in scored {
                    report_bytes(report, out);
                    out.extend_from_slice(&(*tokens as u64).to_le_bytes());
                }
            },
        );
        reference.pass(
            || collect(docs.iter().map(|doc| ReferenceText::new(&doc.ground_truth()))),
            |prepared, out| {
                for (prepared, (output, _)) in prepared.iter().zip(pairs()) {
                    report_bytes(&prepared.score(&output.text, output.coverage()), out);
                }
            },
        );
        bleu.pass(
            || {
                collect(
                    references.iter().zip(pairs()).map(|(prepared, (output, _))| prepared.bleu(&output.text)),
                )
            },
            |scores, out| bits_bytes(scores, out),
        );
        rouge.pass(
            || collect(pairs().map(|(output, truth)| textmetrics::rouge_l(&output.text, truth).f1)),
            |scores, out| bits_bytes(scores, out),
        );
        car.pass(
            || collect(pairs().map(|(output, truth)| textmetrics::char_accuracy_rate(&output.text, truth))),
            |scores, out| bits_bytes(scores, out),
        );
    }

    let n = docs.len();
    println!("  {:<16} {:>10} {:>12} {:>12}  digest", "layer", "µs/doc", "allocs/doc", "KB/doc");
    for layer in &layers {
        println!(
            "  {:<16} {:>10.1} {:>12.1} {:>12.1}  {:#018x}",
            layer.name,
            layer.median_us_per_doc(n),
            layer.allocations as f64 / n as f64,
            layer.bytes as f64 / n as f64 / 1024.0,
            layer.digest
        );
    }
    let stages: f64 = layers[1..5].iter().map(|layer| layer.median_us_per_doc(n)).sum();
    println!("  extract + route + parse + score: {stages:.1} µs/doc");
    Ok(vec![
        ("seed", JsonValue::U64(seed)),
        ("docs", JsonValue::U64(n as u64)),
        ("reps", JsonValue::U64(REPS as u64)),
        ("stages_us_per_doc", JsonValue::F64((stages * 10.0).round() / 10.0)),
        ("layers", JsonValue::Array(layers.iter().map(|layer| layer.json(n)).collect())),
    ])
}

fn main() -> ExitCode {
    drive(&TRAJECTORY, parse_args, run)
}
