//! SPDF: a from-scratch mini-PDF container format.
//!
//! SPDF mirrors the structural skeleton of real PDF files — a version header,
//! numbered objects holding dictionaries and streams, an xref table and a
//! trailer — without the full complexity of the ISO 32000 specification. It
//! exists so that the parser simulators in `parsersim` do genuine byte-level
//! parsing work (lexing, object resolution, stream decoding, error recovery
//! on truncated files) instead of being handed in-memory strings.
//!
//! Layout of a serialized document:
//!
//! ```text
//! %SPDF-1.7
//! 1 0 obj << /Type /Catalog /PageCount 2 /Info 2 0 R /DocId 7 >> endobj
//! 2 0 obj << /Type /Info /Title (..) /Publisher /ArXiv ... >> endobj
//! 3 0 obj << /Type /Page /Index 0 /Contents 4 0 R /Image 5 0 R >> endobj
//! 4 0 obj << /Type /Content /Length 123 >> stream ... endstream endobj
//! 5 0 obj << /Type /PageImage /DPI 300 ... /Length 456 >> stream ... endstream endobj
//! ...
//! xref
//! trailer << /Size 8 /Root 1 0 R >>
//! startxref
//! 1042
//! %%EOF
//! ```
//!
//! The `/Content` stream carries the embedded text layer (what extraction
//! parsers read); the `/PageImage` stream carries the page's glyph source —
//! the stand-in for rendered pixels — together with the raster quality
//! parameters that recognition parsers combine with their own noise models.
//!
//! There is one writer ([`write_document`], a single streaming pass) and one
//! reader, in two steps. [`SpdfIndex::open`] validates the whole container —
//! header, every object and dictionary, every `/Length` against the input and
//! its `endstream`, xref, trailer, `startxref`, `%%EOF`, the catalog, the info
//! dictionary and every page's references — and borrows the stream payloads
//! as byte ranges; it is where every [`SpdfError`] comes from. What it defers
//! is the per-page payload work: [`SpdfIndex::page`] decodes one page's
//! content stream and glyph source, [`SpdfIndex::decode_all`] all of them into
//! an owned [`SpdfFile`] ([`SpdfFile::parse`] is the two in sequence). The
//! router reads page 0 and pays for page 0.

mod object;
mod reader;
mod writer;

pub use reader::{SpdfError, SpdfFile, SpdfIndex, SpdfInfo, SpdfPage};
pub use writer::write_document;

#[cfg(test)]
mod tests {
    use super::*;
    use crate::document::{DocId, Document, Page};
    use crate::element::Element;
    use crate::imagelayer::ImageLayer;
    use crate::metadata::{DocMetadata, Domain, PdfFormat, ProducerTool, Publisher};
    use crate::textlayer::TextLayer;

    fn sample_document() -> Document {
        let pages = vec![
            Page::new(vec![
                Element::heading(1, "Adaptive Parsing"),
                Element::paragraph("Throughput and accuracy trade off against each other (in practice)."),
                Element::equation("\\alpha \\le \\frac{T - n T_{p}}{n (T_{N} - T_{p})}"),
            ]),
            Page::new(vec![
                Element::paragraph("We parse documents with heterogeneous layouts."),
                Element::Smiles { code: "CC(=O)OC1=CC=CC=C1C(=O)O".to_string() },
            ]),
        ];
        let gt: Vec<String> = pages.iter().map(|p| p.ground_truth_text()).collect();
        let metadata = DocMetadata {
            title: "Parsing at (scale) \\ with backslashes".to_string(),
            publisher: Publisher::Nature,
            domain: Domain::Chemistry,
            subcategory: "catalysis".to_string(),
            year: 2023,
            producer: ProducerTool::XeLatex,
            format: PdfFormat::V1_5,
        };
        Document::new(DocId(99), metadata, pages, TextLayer::clean(&gt), ImageLayer::born_digital(2))
    }

    #[test]
    fn roundtrip_preserves_structure_and_metadata() {
        let doc = sample_document();
        let bytes = write_document(&doc);
        assert!(bytes.starts_with(b"%SPDF-1.5"));
        assert!(bytes.ends_with(b"%%EOF\n"));
        let parsed = SpdfFile::parse(&bytes).expect("roundtrip parse");
        assert_eq!(parsed.doc_id, 99);
        assert_eq!(parsed.info.title, doc.metadata.title);
        assert_eq!(parsed.info.publisher, "Nature");
        assert_eq!(parsed.info.domain, "Chemistry");
        assert_eq!(parsed.info.subcategory, "catalysis");
        assert_eq!(parsed.info.year, 2023);
        assert_eq!(parsed.info.producer, "XeTeX");
        assert_eq!(parsed.format_version, "1.5");
        assert_eq!(parsed.pages.len(), 2);
        // Embedded text layer must round-trip exactly.
        for (page, gt) in parsed.pages.iter().zip(doc.text_layer.pages.iter()) {
            assert_eq!(&page.embedded_text, gt);
        }
        // Glyph source must equal the ground truth pages.
        for (page, gt) in parsed.pages.iter().zip(doc.ground_truth_pages().iter()) {
            assert_eq!(&page.glyph_text, gt);
        }
        assert!(parsed.pages[0].image.legibility() > 0.9);
    }

    #[test]
    fn missing_text_layer_round_trips_as_empty() {
        let mut doc = sample_document();
        doc.text_layer = TextLayer::missing(2);
        let bytes = write_document(&doc);
        let parsed = SpdfFile::parse(&bytes).unwrap();
        assert!(parsed.pages.iter().all(|p| p.embedded_text.is_empty()));
    }

    #[test]
    fn truncated_file_yields_error_not_panic() {
        let doc = sample_document();
        let bytes = write_document(&doc);
        for cut in [0, 5, 17, bytes.len() / 4, bytes.len() / 2, bytes.len() - 10] {
            let truncated = &bytes[..cut];
            assert!(SpdfFile::parse(truncated).is_err(), "cut at {cut} should fail");
        }
    }

    #[test]
    fn corrupted_header_is_rejected() {
        let doc = sample_document();
        let mut bytes = write_document(&doc);
        bytes[1] = b'X';
        assert!(matches!(SpdfFile::parse(&bytes), Err(SpdfError::BadHeader)));
    }

    #[test]
    fn flipped_bytes_in_body_do_not_panic() {
        let doc = sample_document();
        let bytes = write_document(&doc);
        // Flip a byte every 97 positions; parsing must either succeed or fail
        // cleanly, never panic.
        for step in 0..(bytes.len() / 97) {
            let mut corrupted = bytes.clone();
            corrupted[step * 97] = corrupted[step * 97].wrapping_add(13);
            let _ = SpdfFile::parse(&corrupted);
        }
    }

    #[test]
    fn write_is_deterministic() {
        let doc = sample_document();
        assert_eq!(write_document(&doc), write_document(&doc));
    }

    #[test]
    fn file_size_scales_with_content() {
        let doc = sample_document();
        let small = write_document(&doc);
        let mut bigger = doc.clone();
        let extra = Page::new(vec![Element::paragraph(&"lorem ipsum dolor ".repeat(200))]);
        let gt = extra.ground_truth_text();
        bigger.pages.push(extra);
        bigger.text_layer.pages.push(gt);
        bigger.image_layer.pages.push(crate::imagelayer::PageImage::born_digital());
        let large = write_document(&bigger);
        assert!(large.len() > small.len() + 1000);
    }
}
