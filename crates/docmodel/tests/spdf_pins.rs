//! Pins recorded on the commit *before* the SPDF reader became an index and
//! the writer a streaming pass: the rewrite must reproduce the old writer byte
//! for byte and the old reader result for result, hostile inputs included.
//! Both were re-pinned once when the writer stopped emitting the content
//! stream's `/Quality` label, a generator-side tag no parser read.
//!
//! `SpdfFile::parse` is `SpdfIndex::open` followed by the infallible
//! `decode_all`, so the reader digest also pins `open` alone: it fails on
//! exactly the inputs the digest records as errors, with the same error.

use docmodel::document::{DocId, Document};
use docmodel::metadata::DocCategory;
use docmodel::spdf::{write_document, SpdfError, SpdfFile, SpdfIndex};
use scicorpus::categories::category_preset;
use scicorpus::generator::{DocumentGenerator, GeneratorConfig};

/// `write_document` over [`pinned_corpus`], recorded from the `Object`-tree writer
/// and re-pinned without `/Quality`.
const WRITER_DIGEST: u64 = 0x95c1_41a1_f5fe_9a77;
/// The mutation sweep over [`pinned_corpus`], recorded from the eager reader and
/// re-pinned without `/Quality`.
const READER_DIGEST: u64 = 0x3ff9_9a7a_b6c0_92c4;

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
}

/// 64 documents: every category × 1–4 pages × 4 draws. Every eighth document
/// gets a hand-made title and subcategory (parentheses, backslashes, CR/LF,
/// non-ASCII), an id that does not fit an `i64`, and raster parameters that
/// exercise the `{:.6}` reals (negative, sub-precision, rounding up, large).
fn pinned_corpus() -> Vec<Document> {
    const TITLES: [&str; 8] = [
        "Parsing (at scale) with \\backslashes\\",
        "Line one\nline two\r\nline three\r",
        "naïve Bayes — übergrößen 数学 ✓",
        "((nested) (parens)) and a lone ) then (",
        "trailing backslash \\",
        "\\n is not a newline but \n is",
        "",
        "tab\tand \u{c} form feed",
    ];
    let base = GeneratorConfig::default();
    let mut documents = Vec::with_capacity(64);
    for category in DocCategory::ALL {
        for pages in 1..=4usize {
            let config = GeneratorConfig {
                seed: 0x5BDF_0016 ^ ((category.index() * 4 + pages) as u64).wrapping_mul(0x9E37_79B9),
                min_pages: pages,
                max_pages: pages,
                ..category_preset(&base, category)
            };
            documents.extend(DocumentGenerator::new(config).generate_many(4));
        }
    }
    for (i, doc) in documents.iter_mut().enumerate() {
        doc.id = DocId((i as u64).wrapping_mul(0x0123_4567_89AB_CDEF));
        if i % 8 == 0 {
            let k = i / 8;
            doc.metadata.title = TITLES[k].to_string();
            doc.metadata.subcategory = TITLES[(k + 3) % 8].to_string();
            doc.id = DocId(u64::MAX - k as u64);
            let image = &mut doc.image_layer.pages[0];
            image.skew_degrees = [-3.25, 0.000_000_4, -0.000_000_6, 12_345.678_901_25][k % 4];
            image.blur_sigma = [0.999_999_5, 1e-9, 2.5, 1e7][k % 4];
            image.noise = [0.1 + 0.2, 1.0 / 3.0, 0.0, -0.0][k % 4];
        }
    }
    documents
}

/// Replace the first occurrence of `from` (no-op when absent).
fn replace_first(bytes: &[u8], from: &[u8], to: &[u8]) -> Vec<u8> {
    match bytes.windows(from.len()).position(|w| w == from) {
        Some(at) => [&bytes[..at], to, &bytes[at + from.len()..]].concat(),
        None => bytes.to_vec(),
    }
}

/// Rewrite the integer after the first `key ` by `delta`.
fn bump_int(bytes: &[u8], key: &[u8], delta: i64) -> Vec<u8> {
    let Some(at) = bytes.windows(key.len()).position(|w| w == key) else { return bytes.to_vec() };
    let start = at + key.len();
    let end = start + bytes[start..].iter().take_while(|b| b.is_ascii_digit() || **b == b'-').count();
    let value: i64 = std::str::from_utf8(&bytes[start..end]).unwrap().parse().unwrap();
    [&bytes[..start], (value + delta).to_string().as_bytes(), &bytes[end..]].concat()
}

/// Every hostile variant of one serialized document, in a fixed order.
fn mutations(bytes: &[u8]) -> Vec<Vec<u8>> {
    let mut out = vec![bytes.to_vec()];
    out.extend((0..bytes.len()).step_by(61).map(|cut| bytes[..cut].to_vec()));
    for at in (0..bytes.len()).step_by(97) {
        let mut bumped = bytes.to_vec();
        bumped[at] = bumped[at].wrapping_add(13);
        out.push(bumped);
    }
    out.push(bump_int(bytes, b"/Length ", 1));
    out.push(bump_int(bytes, b"/Length ", -1));
    out.push(replace_first(bytes, b"\nendstream", b""));
    out.push(replace_first(bytes, b"/Contents 4 0 R", b"/Contents 999 0 R"));
    out.push(bump_int(bytes, b"/PageCount ", 1));
    out.push(bump_int(bytes, b"/PageCount ", -1));
    out
}

#[test]
fn writer_output_is_byte_identical_to_the_recorded_writer() {
    let mut digest = Fnv::new();
    for doc in pinned_corpus() {
        let bytes = write_document(&doc);
        digest.word(bytes.len() as u64);
        digest.bytes(&bytes);
    }
    assert_eq!(digest.0, WRITER_DIGEST, "writer digest {:#018x}", digest.0);
}

#[test]
fn reader_results_match_the_recorded_reader_under_mutation() {
    let mut digest = Fnv::new();
    let (mut ok, mut err) = (0usize, 0usize);
    for doc in pinned_corpus() {
        for mutated in mutations(&write_document(&doc)) {
            match SpdfFile::parse(&mutated) {
                Ok(file) => {
                    ok += 1;
                    digest.word(1);
                    digest.word(file.pages.len() as u64);
                    digest.word(file.doc_id);
                    digest.bytes(format!("{file:?}").as_bytes());
                }
                Err(error) => {
                    err += 1;
                    digest.word(0);
                    digest.bytes(format!("{error:?}").as_bytes());
                }
            }
        }
    }
    // The sweep must exercise both outcomes for the digest to mean anything.
    assert!(ok > 1_000 && err > 1_000, "ok {ok}, err {err}");
    assert_eq!(digest.0, READER_DIGEST, "reader digest {:#018x} (ok {ok}, err {err})", digest.0);
}

#[test]
fn index_pages_equal_the_decoded_file_field_for_field() {
    for doc in pinned_corpus() {
        let bytes = write_document(&doc);
        let file = SpdfFile::parse(&bytes).expect("writer output parses");
        let index = SpdfIndex::open(&bytes).expect("writer output opens");
        assert_eq!(index.page_count(), file.pages.len());
        for (i, page) in file.pages.iter().enumerate() {
            assert_eq!(index.page(i).as_ref(), Some(page), "doc {} page {i}", doc.id);
        }
        assert_eq!(index.page(file.pages.len()), None);
        assert_eq!(index.decode_all(), file);
    }
}

/// What routing reads of a container — its metadata and its page-image
/// legibility — comes back from the file for every pinned document, hostile
/// titles and sub-precision rasters included; a well-formed container that
/// names an unknown publisher, domain, producer or version is a typed error.
#[test]
fn routing_metadata_reads_back_from_the_file() {
    for doc in pinned_corpus() {
        let bytes = write_document(&doc);
        let index = SpdfIndex::open(&bytes).expect("writer output opens");
        assert_eq!(index.metadata(), Ok(doc.metadata.clone()));
        assert!((index.mean_legibility() - doc.image_layer.mean_legibility()).abs() < 1e-5, "{}", doc.id);
        let m = &doc.metadata;
        for (key, prefix, known, value) in [
            ("Publisher", "/Publisher /", m.publisher.name(), "Elsevier"),
            ("Domain", "/Domain /", m.domain.name(), "Alchemy"),
            ("Producer", "/Producer (", m.producer.name(), "Acrobat"),
            ("SPDF", "%SPDF-", m.format.version_string(), "9.9"),
        ] {
            let from = format!("{prefix}{known}");
            let renamed = replace_first(&bytes, from.as_bytes(), format!("{prefix}{value}").as_bytes());
            let index = SpdfIndex::open(&renamed).expect("a renamed value stays well-formed");
            let error = Err(SpdfError::Unrecognized { key, value: value.to_string() });
            assert_eq!(index.metadata(), error, "{}", doc.id);
        }
    }
}
