//! The router's per-document inference, layer by layer, on one 256-document
//! selection window of real first-page extractions: the hashed n-gram
//! featurizer, the encoder (featurize + sparse projection) one document at a
//! time and eight at a time, CLS I, and stage 2a as the campaign runs it —
//! `AdaParseEngine::routing_improvements` over shards of eight — next to its
//! batch-of-one view, `RouteStage::improvement`.
//!
//! The two `featurize` rows time the encoder's whole feature row
//! (`fill_row`: n-gram counts and the eight statistics) for the same eight
//! documents at SciBERT's width (2048, a power of two: each n-gram's bucket is
//! a mask) and SPECTER's (1536: a 64-bit remainder per n-gram). The `encode` rows time those eight
//! documents too, so `batch_of_8` against `batch_of_1` is what sharing each
//! projection column between shard-mates buys, and `batch_of_8_baseline`
//! against `batch_of_8` is what projecting at the CPU's widest vector width
//! buys; `route_window` rows divide by 256 for a per-document figure.
//!
//! The two `fit` rows train CLS III's regression head as set-up does (250
//! epochs, learning rate 0.4, L2 1e-4, six outputs) on seeded unit-norm rows
//! of the encoder's width, 192: 24 samples, the training set's size, take
//! the sample-Gram form, and 700 take the feature-Gram form.

use adaparse::campaign::{ExtractStage, RouteStage, RoutingInput};
use adaparse::{AdaParseConfig, AdaParseEngine};
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use mlcore::encoder::{EncoderProfile, PretrainedEncoder};
use mlcore::features::HashedNgramFeaturizer;
use mlcore::linear::LinearRegression;
use mlcore::matrix::l2_normalize;
use parsersim::registry::ParserPool;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
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
    let extract = ExtractStage::new(engine.config(), &ParserPool);
    let inputs: Vec<RoutingInput> = docs[..WINDOW].iter().map(|doc| extract.run(doc, 7).input).collect();
    let rules = ValidityRules::default();
    let valid: Vec<&str> =
        inputs.iter().map(|input| input.text.as_str()).filter(|text| rules.is_valid(text, 1)).collect();
    let shard = &valid[..SHARD];

    for (name, dim) in [("featurize/8_docs", 2048), ("featurize/8_docs_specter", 1536)] {
        let featurizer = HashedNgramFeaturizer::new(dim);
        let mut row = vec![0.0; dim + 8];
        c.bench_function(name, |b| {
            b.iter(|| shard.iter().for_each(|text| featurizer.fill_row(black_box(text), &mut row)))
        });
    }

    let encoder = PretrainedEncoder::new(EncoderProfile::SciBert);
    c.bench_function("encode/batch_of_1_x8", |b| {
        b.iter(|| shard.iter().map(|text| encoder.encode(black_box(text))).collect::<Vec<_>>())
    });
    c.bench_function("encode/batch_of_8", |b| b.iter(|| encoder.encode_batch(black_box(shard))));
    let baseline = encoder.clone().at_baseline_width();
    c.bench_function("encode/batch_of_8_baseline", |b| b.iter(|| baseline.encode_batch(black_box(shard))));

    c.bench_function("cls1/256_docs", |b| {
        b.iter(|| inputs.iter().filter(|input| rules.is_valid(black_box(&input.text), 1)).count())
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

    for (name, samples) in [("fit/regression_24x192", 24), ("fit/regression_700x192", 700)] {
        let mut rng = StdRng::seed_from_u64(samples as u64);
        let xs: Vec<Vec<f64>> = (0..samples)
            .map(|_| {
                let mut x: Vec<f64> = (0..192).map(|_| rng.gen_range(-1.0..1.0)).collect();
                l2_normalize(&mut x);
                x
            })
            .collect();
        let ys: Vec<Vec<f64>> =
            (0..samples).map(|_| (0..6).map(|_| rng.gen_range(0.0..1.0)).collect()).collect();
        c.bench_function(name, |b| {
            b.iter(|| {
                let mut head = LinearRegression::new(192, 6);
                head.fit(black_box(&xs), black_box(&ys), 250, 0.4, 1e-4);
                head
            })
        });
    }
}

criterion_group!(benches, bench_router_inference);
criterion_main!(benches);
