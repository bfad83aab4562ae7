//! Corpus generation, the bulk of a campaign's set-up, and its parts.
//!
//! `generate/skewed_1to4_pages` draws 256 documents in the repository
//! benchmark's corpus shape: 30 % scanned, 25 % tables-heavy, 10 %
//! multilingual and 35 % clean born-digital, each category's documents
//! spread evenly over 1–4 pages, one `generate_categorized` call per
//! (category, pages) cell. Divide by 256 for a per-document figure.
//!
//! The `text_layer` rows build one embedded text layer from the same four
//! ground-truth pages: `ocr` at a 25 % character error rate (two draws per
//! character) and `scrambled` (word shuffle, then character swaps).
//! `vocab/paragraph` renders one four-sentence paragraph, the unit most of
//! a page is made of.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use docmodel::metadata::{DocCategory, Domain};
use docmodel::textlayer::{TextLayer, TextLayerQuality};
use rand::rngs::StdRng;
use rand::SeedableRng;
use scicorpus::categories::{generate_categorized, CategoryMix};
use scicorpus::generator::GeneratorConfig;
use scicorpus::vocab;

const DOCS: usize = 256;
const MAX_PAGES: usize = 4;

/// The category shares of the repository benchmark's corpora.
const SKEW: [(DocCategory, f64); 4] = [
    (DocCategory::Scanned, 0.30),
    (DocCategory::TablesHeavy, 0.25),
    (DocCategory::Multilingual, 0.10),
    (DocCategory::CleanBornDigital, 0.35),
];

/// `DOCS` documents in [`SKEW`]'s shape, one generator call per
/// (category, pages) cell.
fn skewed_corpus(seed: u64) -> usize {
    let mut generated = 0;
    let mut cumulative = 0.0;
    let mut assigned = 0;
    for (cell, &(category, share)) in SKEW.iter().enumerate() {
        cumulative += share;
        let upto = if cell + 1 == SKEW.len() { DOCS } else { (cumulative * DOCS as f64).round() as usize };
        let in_category = upto - assigned;
        assigned = upto;
        for pages in 1..=MAX_PAGES {
            let count = (in_category + MAX_PAGES - pages) / MAX_PAGES;
            let base = GeneratorConfig { min_pages: pages, max_pages: pages, ..Default::default() };
            let mix = CategoryMix { weights: vec![(category, 1.0)] };
            let cell_seed = seed ^ ((cell * MAX_PAGES + pages) as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
            generated += black_box(generate_categorized(&base, &mix, count, cell_seed)).documents.len();
        }
    }
    generated
}

fn bench_corpus_generation(c: &mut Criterion) {
    assert_eq!(skewed_corpus(42), DOCS);
    c.bench_function("generate/skewed_1to4_pages", |b| b.iter(|| skewed_corpus(black_box(42))));

    let base = GeneratorConfig { min_pages: 4, max_pages: 4, ..Default::default() };
    let mix = CategoryMix { weights: vec![(DocCategory::CleanBornDigital, 1.0)] };
    let ground_truth = generate_categorized(&base, &mix, 1, 7).documents[0].ground_truth_pages();
    for (row, quality) in [
        ("text_layer/ocr", TextLayerQuality::OcrGenerated { error_rate: 0.25 }),
        ("text_layer/scrambled", TextLayerQuality::Scrambled),
    ] {
        c.bench_function(row, |b| {
            b.iter(|| {
                let mut rng = StdRng::seed_from_u64(3);
                TextLayer::from_ground_truth(black_box(&ground_truth), quality, &mut rng)
            })
        });
    }

    c.bench_function("vocab/paragraph", |b| {
        let mut rng = StdRng::seed_from_u64(5);
        b.iter(|| vocab::paragraph(&mut rng, black_box(Domain::Physics), 4))
    });
}

criterion_group!(benches, bench_corpus_generation);
criterion_main!(benches);
