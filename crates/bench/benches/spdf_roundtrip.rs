//! Benchmarks of the SPDF container (write, open, decode) and of the fastest
//! extraction parser over it — the per-document overhead every campaign pays,
//! whole-document (stage 3) and first-page (stage 1) side by side.

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use docmodel::spdf::{write_document, SpdfFile, SpdfIndex};
use parsersim::ParserKind;
use rand::rngs::StdRng;
use rand::SeedableRng;
use scicorpus::generator::{DocumentGenerator, GeneratorConfig};

fn bench_spdf(c: &mut Criterion) {
    let mut generator = DocumentGenerator::new(GeneratorConfig {
        n_documents: 1,
        seed: 7,
        min_pages: 8,
        max_pages: 8,
        ..Default::default()
    });
    let doc = generator.generate();
    let bytes = write_document(&doc);

    c.bench_function("spdf/write_8_pages", |b| b.iter(|| write_document(black_box(&doc))));
    c.bench_function("spdf/parse_8_pages", |b| b.iter(|| SpdfFile::parse(black_box(&bytes)).unwrap()));
    c.bench_function("spdf/open_index_8_pages", |b| b.iter(|| SpdfIndex::open(black_box(&bytes)).unwrap()));
    c.bench_function("spdf/first_page_8_pages", |b| {
        b.iter(|| SpdfIndex::open(black_box(&bytes)).unwrap().page(0).unwrap())
    });
    c.bench_function("pymupdf/parse_8_pages", |b| {
        let file = SpdfFile::parse(&bytes).unwrap();
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(3);
            ParserKind::PyMuPdf.parse_file(black_box(&file), &mut rng).unwrap()
        })
    });
    c.bench_function("pymupdf/first_page_text_8_pages", |b| {
        let index = SpdfIndex::open(&bytes).unwrap();
        b.iter(|| {
            let mut rng = StdRng::seed_from_u64(3);
            ParserKind::PyMuPdf.first_page_text(black_box(&index), &mut rng).unwrap()
        })
    });
}

criterion_group!(benches, bench_spdf);
criterion_main!(benches);
