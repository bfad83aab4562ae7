//! Bit-for-bit pins of every parser's output, recorded on the commit before
//! parsing became a method of `ParserKind` (when each parser was a struct
//! behind a trait object). Any change to a parser body, its RNG draw order,
//! its cost model or the page assembly moves the digest.
//!
//! The corpus is every category preset at 1–4 pages plus a document with no
//! text layer, each parsed under two RNG seeds; the digest covers the whole
//! `parse_file` output (text, page counts, every cost field's bits), the
//! `first_page_text` of the same document under the same seed, and the
//! `EmptyDocument` errors both return for a zero-page document.

use docmodel::document::{DocId, Document};
use docmodel::imagelayer::ImageLayer;
use docmodel::metadata::{DocCategory, DocMetadata};
use docmodel::spdf::{write_document, SpdfIndex};
use docmodel::textlayer::TextLayer;
use parsersim::{ParseError, ParseOutput, ParserKind};
use rand::rngs::StdRng;
use rand::SeedableRng;
use scicorpus::categories::category_preset;
use scicorpus::generator::{DocumentGenerator, GeneratorConfig};

/// The digest of [`pinned_outputs`], recorded from the trait-object parsers.
const PARSER_DIGEST: u64 = 0x36cc_3ae2_4f6d_bfcd;

/// The RNG seeds every document is parsed under.
const RNG_SEEDS: [u64; 2] = [7, 0xDEAD_BEEF_F00D];

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 = (self.0 ^ b as u64).wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn word(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }

    fn text(&mut self, text: &str) {
        self.word(text.len() as u64);
        self.bytes(text.as_bytes());
    }

    fn output(&mut self, out: &ParseOutput) {
        self.word(out.parser.index() as u64);
        self.text(&out.text);
        self.word(out.pages_parsed as u64);
        self.word(out.pages_total as u64);
        let cost = &out.cost;
        for v in [cost.cpu_seconds, cost.gpu_seconds, cost.cpu_memory_mb, cost.gpu_memory_mb] {
            self.word(v.to_bits());
        }
    }

    fn error(&mut self, error: &ParseError) {
        self.word(u64::MAX);
        self.text(&error.to_string());
    }
}

/// Every category preset at 1–4 pages, then one document whose text layer is
/// missing (the extraction parsers' empty-output path).
fn pinned_corpus() -> Vec<Document> {
    let base = GeneratorConfig::default();
    let mut documents = Vec::new();
    for category in DocCategory::ALL {
        for pages in 1..=4usize {
            let config = GeneratorConfig {
                seed: 0x9A25_E125 ^ ((category.index() * 4 + pages) as u64).wrapping_mul(0x9E37_79B9),
                min_pages: pages,
                max_pages: pages,
                ..category_preset(&base, category)
            };
            documents.push(DocumentGenerator::new(config).generate());
        }
    }
    let mut missing = DocumentGenerator::new(GeneratorConfig {
        seed: 0x5CA7,
        min_pages: 3,
        max_pages: 3,
        scanned_fraction: 0.0,
        ..base
    })
    .generate();
    missing.text_layer = TextLayer::missing(missing.page_count());
    documents.push(missing);
    documents
}

/// Hash every parser's whole-file and first-page output over the corpus.
fn pinned_outputs() -> u64 {
    let mut h = Fnv::new();
    for doc in pinned_corpus() {
        let bytes = write_document(&doc);
        let index = SpdfIndex::open(&bytes).expect("writer output opens");
        let file = index.decode_all();
        for kind in ParserKind::ALL {
            for seed in RNG_SEEDS {
                match kind.parse_file(&file, &mut StdRng::seed_from_u64(seed)) {
                    Ok(out) => h.output(&out),
                    Err(e) => h.error(&e),
                }
                match kind.first_page_text(&index, &mut StdRng::seed_from_u64(seed)) {
                    Ok(text) => h.text(&text),
                    Err(e) => h.error(&e),
                }
            }
        }
    }
    let empty = Document::new(
        DocId(5),
        DocMetadata::default(),
        Vec::new(),
        TextLayer::clean(&[]),
        ImageLayer::born_digital(0),
    );
    let bytes = write_document(&empty);
    let index = SpdfIndex::open(&bytes).expect("writer output opens");
    for kind in ParserKind::ALL {
        let mut rng = StdRng::seed_from_u64(RNG_SEEDS[0]);
        let whole = kind.parse_file(&index.decode_all(), &mut rng).expect_err("zero pages");
        h.error(&whole);
        let first = kind.first_page_text(&index, &mut rng).expect_err("zero pages");
        h.error(&first);
    }
    h.0
}

#[test]
fn every_parser_output_matches_its_pin() {
    let digest = pinned_outputs();
    assert_eq!(digest, PARSER_DIGEST, "parser outputs moved: 0x{digest:016x}");
}
