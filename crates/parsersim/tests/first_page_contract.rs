//! The contract of `Parser::first_page_text`: for every parser it equals
//! `parse_file` over the whole decoded document, cut at the first form feed —
//! same text, same RNG seed, error exactly when `parse_file` errors.
//!
//! This is what licenses the page-0-only overrides of the per-page parsers,
//! and what fails if a document-level draw is ever added to one of them.

use docmodel::document::{DocId, Document};
use docmodel::element::Element;
use docmodel::imagelayer::ImageLayer;
use docmodel::metadata::{DocCategory, DocMetadata};
use docmodel::spdf::{write_document, SpdfIndex};
use docmodel::textlayer::TextLayer;
use parsersim::{all_parsers, ParseError};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::SeedableRng;
use scicorpus::categories::category_preset;
use scicorpus::generator::{DocumentGenerator, GeneratorConfig};

/// Hold every parser to the contract on one document.
fn check(doc: &Document, rng_seed: u64) {
    let bytes = write_document(doc);
    let index = SpdfIndex::open(&bytes).expect("writer output opens");
    let file = index.decode_all();
    for parser in all_parsers() {
        let whole = parser.parse_file(&file, &mut StdRng::seed_from_u64(rng_seed));
        let expected = whole.map(|out| out.text.split('\u{c}').next().unwrap_or("").to_string());
        let first = parser.first_page_text(&index, &mut StdRng::seed_from_u64(rng_seed));
        assert_eq!(first, expected, "{} on {} ({} pages)", parser.name(), doc.id, doc.page_count());
    }
}

proptest! {
    #[test]
    fn first_page_text_is_parse_file_cut_at_the_first_form_feed(
        doc_seed in 0u64..u64::MAX,
        rng_seed in 0u64..u64::MAX,
        form_feed_on_page_zero in 0u8..4,
    ) {
        let base = GeneratorConfig::default();
        for category in DocCategory::ALL {
            for pages in 1..=4usize {
                let config = GeneratorConfig {
                    seed: doc_seed ^ (category.index() * 4 + pages) as u64,
                    min_pages: pages,
                    max_pages: pages,
                    ..category_preset(&base, category)
                };
                let mut doc = DocumentGenerator::new(config).generate();
                if form_feed_on_page_zero == 0 {
                    // A form feed *inside* page 0 ends the first page there,
                    // in the text layer and in the glyph source alike.
                    doc.pages[0].elements.insert(1, Element::paragraph("before \u{c} after"));
                    doc.text_layer.pages[0].insert_str(0, "before \u{c} after\n");
                }
                check(&doc, rng_seed);
            }
        }
    }
}

#[test]
fn a_zero_page_document_fails_both_ways_for_every_parser() {
    let doc = Document::new(
        DocId(3),
        DocMetadata::default(),
        Vec::new(),
        TextLayer::clean(&[]),
        ImageLayer::born_digital(0),
    );
    let bytes = write_document(&doc);
    let index = SpdfIndex::open(&bytes).expect("writer output opens");
    for parser in all_parsers() {
        let mut rng = StdRng::seed_from_u64(1);
        assert_eq!(parser.parse_file(&index.decode_all(), &mut rng).err(), Some(ParseError::EmptyDocument));
        assert_eq!(parser.first_page_text(&index, &mut rng), Err(ParseError::EmptyDocument));
    }
}
