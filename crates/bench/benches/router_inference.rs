//! The router's per-document inference, layer by layer, on one 256-document
//! selection window of real first-page extractions: the hashed n-gram
//! featurizer, the encoder (featurize + sparse projection) one document at a
//! time and eight at a time, CLS I, and stage 2a as the campaign runs it —
//! `AdaParseEngine::routing_improvements` over shards of eight — next to its
//! batch-of-one view, `RouteStage::improvement`.
//!
//! The `encode` rows time the same eight documents, so `batch_of_8` against
//! `batch_of_1` is what sharing each projection column between shard-mates
//! buys, and `batch_of_8_baseline` against `batch_of_8` is what projecting at
//! the CPU's widest vector width buys; `route_window` rows divide by 256 for a
//! per-document figure.

use adaparse::campaign::{ExtractStage, RouteStage, RoutingInput};
use adaparse::{AdaParseConfig, AdaParseEngine};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mlcore::encoder::{EncoderProfile, PretrainedEncoder};
use mlcore::features::HashedNgramFeaturizer;
use parsersim::registry::ParserPool;
use scicorpus::generator::{DocumentGenerator, GeneratorConfig};
use selector::cls1::ValidityRules;

const WINDOW: usize = 256;
const SHARD: usize = 8;

fn bench_router_inference(c: &mut Criterion) {
    let docs = DocumentGenerator::new(GeneratorConfig {
        n_documents: WINDOW + 24,
        seed: 42,
        min_pages: 1,
        max_pages: 4,
        scanned_fraction: 0.3,
        ..Default::default()
    })
    .generate_many(WINDOW + 24);
    let mut engine = AdaParseEngine::new(AdaParseConfig::default());
    engine.train_on_corpus(&docs[WINDOW..], 5);
    let pool = ParserPool::new();
    let extract = ExtractStage::new(engine.config(), &pool);
    let inputs: Vec<RoutingInput> = docs[..WINDOW].iter().map(|doc| extract.run(doc, 7).input).collect();
    let rules = ValidityRules::default();
    let valid: Vec<&str> = inputs
        .iter()
        .map(|input| input.first_page_text.as_str())
        .filter(|text| rules.is_valid(text, 1))
        .collect();
    let shard = &valid[..SHARD];

    let featurizer = HashedNgramFeaturizer::new(2048);
    let mut features = vec![0.0; featurizer.dim()];
    c.bench_function("featurize/8_docs", |b| {
        b.iter(|| shard.iter().for_each(|text| featurizer.fill(black_box(text), &mut features)))
    });

    let encoder = PretrainedEncoder::new(EncoderProfile::SciBert);
    c.bench_function("encode/batch_of_1_x8", |b| {
        b.iter(|| shard.iter().map(|text| encoder.encode(black_box(text))).collect::<Vec<_>>())
    });
    c.bench_function("encode/batch_of_8", |b| b.iter(|| encoder.encode_batch(black_box(shard))));
    let baseline = encoder.clone().at_baseline_width();
    c.bench_function("encode/batch_of_8_baseline", |b| b.iter(|| baseline.encode_batch(black_box(shard))));

    c.bench_function("cls1/256_docs", |b| {
        b.iter(|| inputs.iter().filter(|input| rules.is_valid(black_box(&input.first_page_text), 1)).count())
    });

    let route = RouteStage::new(&engine);
    let refs: Vec<&RoutingInput> = inputs.iter().collect();
    c.bench_function("route_window/one_by_one", |b| {
        b.iter(|| refs.iter().map(|input| route.improvement(black_box(input))).collect::<Vec<_>>())
    });
    c.bench_function("route_window/shards_of_8", |b| {
        b.iter(|| {
            refs.chunks(SHARD)
                .flat_map(|shard| engine.routing_improvements(black_box(shard)))
                .collect::<Vec<_>>()
        })
    });
}

criterion_group!(benches, bench_router_inference);
criterion_main!(benches);
