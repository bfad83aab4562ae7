//! Microbenchmarks of the metric kernels every evaluation run leans on
//! (BLEU, ROUGE-L, character accuracy rate).
//!
//! CAR costs what a pair's texts differ by, so its rows are pairs of one
//! length class at different distances. `medium_doc` (≈3 400 characters)
//! stays under `BANDED_THRESHOLD`; a 2–4 page document does not: of the
//! ≈11 000-character pairs, `near_copy_long` (< 64 edits) stops on the first
//! threshold rung, `long_doc` (a few hundred edits) on the second, and
//! `beyond_band` (similar lengths, unrelated content) fails every rung and
//! pays for the symmetric band as well — the worst case, which must stay
//! under twice what the symmetric band alone costs (its cost before the
//! rungs). `multilingual` is the non-ASCII side of the match masks.
//! `quality_report/six_candidates` is one evaluation: one `ReferenceText`,
//! six parser outputs. `quality_report/campaign_doc` is what a campaign
//! scores per document: a generated 4-page document's ground truth against
//! its simulated Nougat parse.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use docmodel::spdf::{write_document, SpdfFile};
use parsersim::nougat::NougatParser;
use parsersim::Parser;
use rand::rngs::StdRng;
use rand::SeedableRng;
use scicorpus::generator::{DocumentGenerator, GeneratorConfig};
use textmetrics::bleu::sentence_bleu;
use textmetrics::levenshtein::char_accuracy_rate;
use textmetrics::rouge::rouge_l;
use textmetrics::{QualityReport, ReferenceText};

const SENTENCE: &str = "the gravitational force between two masses is directly proportional to the \
                        product of their masses and inversely proportional to the square of the distance ";
const MULTILINGUAL: &str = "η βαρυτική δύναμη μεταξύ δύο μαζών είναι ανάλογη του γινομένου τους · \
                            сила тяготения между двумя массами пропорциональна их произведению · \
                            两个质量之间的引力与它们的乘积成正比 𝐅 = 𝐆 𝐦₁ 𝐦₂ ∕ 𝐫² ";

fn sample_pair() -> (String, String) {
    let reference = SENTENCE.repeat(20);
    let mut candidate = reference.clone();
    candidate.insert_str(200, "scrambled artifact ");
    (candidate, reference)
}

/// `reference` with every `every`-th character substituted, dropped or
/// doubled in turn — parser noise spread over the whole text.
fn with_edits(reference: &str, every: usize) -> String {
    let mut candidate = String::with_capacity(reference.len());
    for (i, ch) in reference.chars().enumerate() {
        match (i % every == 0, i / every % 3) {
            (true, 0) => candidate.push('#'),
            (true, 1) => {}
            (true, _) => candidate.extend([ch, ch]),
            (false, _) => candidate.push(ch),
        }
    }
    candidate
}

fn bench_metrics(c: &mut Criterion) {
    let (candidate, reference) = sample_pair();
    c.bench_function("bleu/medium_doc", |b| {
        b.iter(|| sentence_bleu(black_box(&candidate), black_box(&reference)))
    });
    c.bench_function("rouge_l/medium_doc", |b| {
        b.iter(|| rouge_l(black_box(&candidate), black_box(&reference)))
    });
    c.bench_function("car/medium_doc", |b| {
        b.iter(|| char_accuracy_rate(black_box(&candidate), black_box(&reference)))
    });

    let reference = SENTENCE.repeat(70);
    let near_copy = with_edits(&reference, 250);
    c.bench_function("car/near_copy_long", |b| {
        b.iter(|| char_accuracy_rate(black_box(&near_copy), black_box(&reference)))
    });
    let candidate = with_edits(&reference, 40);
    c.bench_function("car/long_doc", |b| {
        b.iter(|| char_accuracy_rate(black_box(&candidate), black_box(&reference)))
    });
    c.bench_function("bleu/long_doc", |b| {
        b.iter(|| sentence_bleu(black_box(&candidate), black_box(&reference)))
    });
    c.bench_function("rouge_l/long_doc", |b| {
        b.iter(|| rouge_l(black_box(&candidate), black_box(&reference)))
    });
    c.bench_function("quality_report/long_doc", |b| {
        b.iter(|| QualityReport::compute(black_box(&candidate), black_box(&reference), 1.0))
    });
    let candidates: Vec<String> = [250, 90, 40, 25, 15, 9].map(|every| with_edits(&reference, every)).into();
    c.bench_function("quality_report/six_candidates", |b| {
        b.iter(|| {
            let reference = ReferenceText::new(black_box(&reference));
            candidates.iter().map(|candidate| reference.score(candidate, 1.0).car).sum::<f64>()
        })
    });

    // Similar lengths, unrelated content: the distance is far over the band.
    let unrelated: String = SENTENCE.repeat(30).chars().rev().collect();
    let reference = SENTENCE.repeat(29);
    c.bench_function("car/beyond_band", |b| {
        b.iter(|| char_accuracy_rate(black_box(&unrelated), black_box(&reference)))
    });

    let reference = MULTILINGUAL.repeat(40);
    let candidate = with_edits(&reference, 40);
    c.bench_function("car/multilingual", |b| {
        b.iter(|| char_accuracy_rate(black_box(&candidate), black_box(&reference)))
    });

    let doc = DocumentGenerator::new(GeneratorConfig {
        n_documents: 1,
        seed: 7,
        min_pages: 4,
        max_pages: 4,
        ..Default::default()
    })
    .generate();
    let file = SpdfFile::parse(&write_document(&doc)).expect("writer output parses");
    let parsed = NougatParser::new().parse_file(&file, &mut StdRng::seed_from_u64(3)).expect("Nougat parses");
    let ground_truth = doc.ground_truth();
    c.bench_function("quality_report/campaign_doc", |b| {
        b.iter(|| {
            ReferenceText::new(black_box(&ground_truth))
                .score_counting(black_box(&parsed.text), parsed.coverage())
        })
    });
}

criterion_group!(benches, bench_metrics);
criterion_main!(benches);
