//! Bit-for-bit pins of the generated corpus, recorded before corpus rendering
//! moved from `format!` to appends into one buffer. Every committed benchmark
//! fingerprint starts from these documents, so a change to a rendered byte or
//! to the order of the random draws moves a digest here first.
//!
//! A digest is FNV-1a over each document's `{:?}` rendering: every field,
//! every string byte, and every `f64` printed round-trip exact. The cases are
//! each category alone and the paper's mix, at 1–4 pages and at the default
//! 3–14, under three seeds; and `TextLayer::from_ground_truth` under each of
//! the five qualities on fixed pages, followed by the generator's next `u64`
//! so that a changed number of draws shows even where the bytes agree.

use docmodel::metadata::DocCategory;
use docmodel::textlayer::{TextLayer, TextLayerQuality};
use rand::rngs::StdRng;
use rand::{RngCore, SeedableRng};
use scicorpus::categories::{generate_categorized, CategoryMix};
use scicorpus::generator::GeneratorConfig;

const SEEDS: [u64; 3] = [42, 7, 20_260_930];

/// Documents generated per case.
const DOCS_PER_CASE: usize = 6;

fn fnv(hash: &mut u64, bytes: &[u8]) {
    for &b in bytes {
        *hash = (*hash ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
    }
}

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;

/// The mixes every page range and seed is generated under: each category
/// alone, then the paper's default mix.
fn mixes() -> Vec<(&'static str, CategoryMix)> {
    let mut mixes: Vec<(&'static str, CategoryMix)> = DocCategory::ALL
        .iter()
        .map(|&category| (category.name(), CategoryMix { weights: vec![(category, 1.0)] }))
        .collect();
    mixes.push(("paper_default", CategoryMix::paper_default()));
    mixes
}

/// One digest per (pages, seed, mix), in that nesting order.
fn corpus_digests() -> Vec<(String, u64)> {
    let mut digests = Vec::new();
    for (min_pages, max_pages) in [(1, 4), (3, 14)] {
        let base = GeneratorConfig { min_pages, max_pages, ..Default::default() };
        for seed in SEEDS {
            for (name, mix) in mixes() {
                let corpus = generate_categorized(&base, &mix, DOCS_PER_CASE, seed);
                let mut hash = FNV_OFFSET;
                for (doc, category) in corpus.documents.iter().zip(&corpus.categories) {
                    fnv(&mut hash, format!("{category:?} {doc:?}").as_bytes());
                }
                digests.push((format!("{name} pages {min_pages}..={max_pages} seed {seed}"), hash));
            }
        }
    }
    digests
}

/// Ground-truth pages for the text-layer cases: generated prose with LaTeX
/// and tables, multi-byte words, whitespace runs and an empty page.
fn fixed_pages() -> Vec<String> {
    let base = GeneratorConfig { min_pages: 2, max_pages: 2, ..Default::default() };
    let mix = CategoryMix { weights: vec![(DocCategory::TablesHeavy, 1.0)] };
    let mut pages = generate_categorized(&base, &mix, 1, 3).documents[0].ground_truth_pages();
    pages.push("İstanbul ΣΟΦΟΣ naïve café 東京大学 🙂🙂🙂🙂 a ab abc abcd".to_string());
    pages.push("  lead\t\ttabs  and\n\nnewlines \u{a0} no-break  trail  ".to_string());
    pages.push(String::new());
    pages.push("$$ \\frac{\\partial u}{\\partial t} = \\alpha \\nabla^{2} u $$ 0O1lI5S8B".to_string());
    pages
}

fn text_layer_digests() -> Vec<(String, u64)> {
    let pages = fixed_pages();
    let qualities = [
        TextLayerQuality::Clean,
        TextLayerQuality::LatexMangled,
        TextLayerQuality::OcrGenerated { error_rate: 0.05 },
        TextLayerQuality::OcrGenerated { error_rate: 0.45 },
        TextLayerQuality::Scrambled,
        TextLayerQuality::Missing,
    ];
    let mut digests = Vec::new();
    for quality in qualities {
        for seed in SEEDS {
            let mut rng = StdRng::seed_from_u64(seed);
            let layer = TextLayer::from_ground_truth(&pages, quality, &mut rng);
            let mut hash = FNV_OFFSET;
            fnv(&mut hash, format!("{layer:?}").as_bytes());
            fnv(&mut hash, &rng.next_u64().to_le_bytes());
            digests.push((format!("{quality:?} seed {seed}"), hash));
        }
    }
    digests
}

/// Compare against the pins, printing every case (with the new value) on a
/// mismatch so that a deliberate re-pin is one copy.
fn check(actual: &[(String, u64)], pinned: &[u64]) {
    let listing: Vec<String> =
        actual.iter().map(|(name, hash)| format!("    0x{hash:016x}, // {name}")).collect();
    assert_eq!(actual.len(), pinned.len(), "case count changed:\n{}", listing.join("\n"));
    let moved: Vec<&str> =
        actual.iter().zip(pinned).filter(|((_, a), p)| a != *p).map(|((name, _), _)| name.as_str()).collect();
    assert!(moved.is_empty(), "digests moved for {moved:?}; now:\n{}", listing.join("\n"));
}

#[test]
fn generated_corpus_is_pinned() {
    check(&corpus_digests(), &CORPUS_PINS);
}

#[test]
fn text_layers_and_their_draws_are_pinned() {
    check(&text_layer_digests(), &TEXT_LAYER_PINS);
}

const CORPUS_PINS: [u64; 30] = [
    0x03cf5d7e9714b389, // scanned pages 1..=4 seed 42
    0x89306a809ea7016d, // tables-heavy pages 1..=4 seed 42
    0x78651e21354afc7a, // multilingual pages 1..=4 seed 42
    0x60b3adc3eba67c5f, // clean-born-digital pages 1..=4 seed 42
    0x94d4b84aaa9e8c16, // paper_default pages 1..=4 seed 42
    0xc51cdc3d848f918e, // scanned pages 1..=4 seed 7
    0x0c0b2c2828d1f363, // tables-heavy pages 1..=4 seed 7
    0x8e383b0e8eee6002, // multilingual pages 1..=4 seed 7
    0x5d19c03a68e7f72f, // clean-born-digital pages 1..=4 seed 7
    0xf38a3188e23aa9e9, // paper_default pages 1..=4 seed 7
    0x5b53da15a6359864, // scanned pages 1..=4 seed 20260930
    0xa1b811cdac78d3e6, // tables-heavy pages 1..=4 seed 20260930
    0xdec26c3817a6d6e0, // multilingual pages 1..=4 seed 20260930
    0x4e44d304de7481ad, // clean-born-digital pages 1..=4 seed 20260930
    0x09d69a42099809f2, // paper_default pages 1..=4 seed 20260930
    0x5ecd84a4129e72eb, // scanned pages 3..=14 seed 42
    0xfc3c149dee31ae75, // tables-heavy pages 3..=14 seed 42
    0xdf2815597dfa571e, // multilingual pages 3..=14 seed 42
    0x48c8f309f8f04f0c, // clean-born-digital pages 3..=14 seed 42
    0xf7795a5225a025ec, // paper_default pages 3..=14 seed 42
    0x4891cd678faeb5b1, // scanned pages 3..=14 seed 7
    0x05c8f94cd6bc369a, // tables-heavy pages 3..=14 seed 7
    0xd14804a83ffa4281, // multilingual pages 3..=14 seed 7
    0x8501b80987df535b, // clean-born-digital pages 3..=14 seed 7
    0x848817d941bac8a0, // paper_default pages 3..=14 seed 7
    0xf7ed23c743bbb5a5, // scanned pages 3..=14 seed 20260930
    0x96084eaefec72dac, // tables-heavy pages 3..=14 seed 20260930
    0xeaacf8ed953c000f, // multilingual pages 3..=14 seed 20260930
    0xe24811ea5f75f239, // clean-born-digital pages 3..=14 seed 20260930
    0x9870b9571d98d161, // paper_default pages 3..=14 seed 20260930
];

const TEXT_LAYER_PINS: [u64; 18] = [
    0xe432b48b163772af, // Clean seed 42
    0xbf68a600ddf02749, // Clean seed 7
    0x69ccfd9f9bf3f33f, // Clean seed 20260930
    0xd9b8a0d527f244a8, // LatexMangled seed 42
    0xbde3431308405d46, // LatexMangled seed 7
    0x7e098bc7faf8ad20, // LatexMangled seed 20260930
    0x294279610e93c695, // OcrGenerated { error_rate: 0.05 } seed 42
    0x9775f9a75cf9f0f5, // OcrGenerated { error_rate: 0.05 } seed 7
    0xce330a2bf7965cf1, // OcrGenerated { error_rate: 0.05 } seed 20260930
    0x38a224efc24e1073, // OcrGenerated { error_rate: 0.45 } seed 42
    0xfc0f79f1745449b7, // OcrGenerated { error_rate: 0.45 } seed 7
    0x1c0f5c818c1587e1, // OcrGenerated { error_rate: 0.45 } seed 20260930
    0x75aec805b159b8d1, // Scrambled seed 42
    0xecde7628a13f3db1, // Scrambled seed 7
    0xa5ff6b8b7445ca61, // Scrambled seed 20260930
    0x2e429cf641b98039, // Missing seed 42
    0x3c95e733dfb1c777, // Missing seed 7
    0xd51ecda10b420195, // Missing seed 20260930
];
