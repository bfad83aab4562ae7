//! The document type tying pages, metadata, text layer and image layer
//! together.

use crate::element::Element;
use crate::imagelayer::ImageLayer;
use crate::metadata::DocMetadata;
use crate::textlayer::TextLayer;

/// Opaque document identifier, unique within a corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct DocId(pub u64);

impl std::fmt::Display for DocId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "doc-{:08}", self.0)
    }
}

/// One page: an ordered list of structural elements.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct Page {
    /// Elements in reading order.
    pub elements: Vec<Element>,
}

impl Page {
    /// Create a page from its elements.
    pub fn new(elements: Vec<Element>) -> Self {
        Page { elements }
    }

    /// Ground-truth text of the page (elements joined by newlines).
    pub fn ground_truth_text(&self) -> String {
        let mut out = String::new();
        self.write_ground_truth_text(&mut out);
        out
    }

    /// Append [`Page::ground_truth_text`] to `out`.
    pub fn write_ground_truth_text(&self, out: &mut String) {
        for (i, element) in self.elements.iter().enumerate() {
            if i > 0 {
                out.push('\n');
            }
            element.write_ground_truth_text(out);
        }
    }
}

/// A scientific document: metadata, structured pages (the ground truth), the
/// embedded text layer and the raster image layer.
#[derive(Debug, Clone, PartialEq)]
pub struct Document {
    /// Corpus-unique identifier.
    pub id: DocId,
    /// Publisher/domain/producer metadata.
    pub metadata: DocMetadata,
    /// Structured pages (the source of ground truth).
    pub pages: Vec<Page>,
    /// Embedded text layer (what extraction parsers see).
    pub text_layer: TextLayer,
    /// Raster image layer (what recognition parsers see).
    pub image_layer: ImageLayer,
}

impl Document {
    /// Assemble a document.
    ///
    /// # Panics
    ///
    /// Panics if the text layer or image layer page counts disagree with the
    /// number of structured pages — such a document could not exist as a real
    /// PDF and indicates a generator bug.
    pub fn new(
        id: DocId,
        metadata: DocMetadata,
        pages: Vec<Page>,
        text_layer: TextLayer,
        image_layer: ImageLayer,
    ) -> Self {
        assert_eq!(pages.len(), text_layer.page_count(), "text layer page count must match structured pages");
        assert_eq!(
            pages.len(),
            image_layer.page_count(),
            "image layer page count must match structured pages"
        );
        Document { id, metadata, pages, text_layer, image_layer }
    }

    /// Number of pages.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Ground-truth text of the whole document; pages separated by form feeds.
    pub fn ground_truth(&self) -> String {
        let mut out = String::new();
        for (i, page) in self.pages.iter().enumerate() {
            if i > 0 {
                out.push('\u{c}');
            }
            page.write_ground_truth_text(&mut out);
        }
        out
    }

    /// Ground-truth text per page.
    pub fn ground_truth_pages(&self) -> Vec<String> {
        self.pages.iter().map(|p| p.ground_truth_text()).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::textlayer::TextLayerQuality;

    fn sample_pages() -> Vec<Page> {
        vec![
            Page::new(vec![
                Element::heading(1, "Introduction"),
                Element::Paragraph {
                    text: "Large corpora of scientific text require accurate parsing.".into(),
                },
                Element::Equation { latex: "\\mathcal{L} = -\\log p_\\theta(y|x)".into(), display: true },
            ]),
            Page::new(vec![
                Element::Paragraph { text: "We evaluate on a benchmark of one thousand documents.".into() },
                Element::Table {
                    caption: "Throughput".to_string(),
                    rows: vec![vec!["parser".into(), "pdf/s".into()], vec!["pymupdf".into(), "315".into()]],
                },
            ]),
        ]
    }

    fn doc_of(pages: Vec<Page>) -> Document {
        let gt: Vec<String> = pages.iter().map(|p| p.ground_truth_text()).collect();
        let image_layer = ImageLayer::born_digital(pages.len());
        Document::new(
            DocId(1),
            DocMetadata::default(),
            pages,
            TextLayer { quality: TextLayerQuality::Clean, pages: gt.clone() },
            image_layer,
        )
    }

    fn sample_doc() -> Document {
        doc_of(sample_pages())
    }

    #[test]
    fn ground_truth_concatenates_pages() {
        let doc = sample_doc();
        let gt = doc.ground_truth();
        assert!(gt.contains("Introduction"));
        assert!(gt.contains("Throughput"));
        assert_eq!(gt.matches('\u{c}').count(), 1);
        assert_eq!(doc.ground_truth_pages().len(), 2);
    }

    #[test]
    fn ground_truth_is_the_pages_joined_by_form_feeds() {
        let two = sample_pages();
        let four = [two.clone(), vec![Page::default()], two[..1].to_vec()].concat();
        for pages in [vec![], two[..1].to_vec(), two, four] {
            let doc = doc_of(pages);
            assert_eq!(
                doc.ground_truth(),
                doc.ground_truth_pages().join("\u{c}"),
                "{} pages",
                doc.page_count()
            );
        }
    }

    #[test]
    fn counts_and_difficulty() {
        let doc = sample_doc();
        assert_eq!(doc.page_count(), 2);
        assert!(doc.ground_truth().split_whitespace().count() > 10);
        let elements = || doc.pages.iter().flat_map(|p| &p.elements);
        assert_eq!(elements().filter(|e| matches!(e, Element::Equation { .. })).count(), 1);
        assert_eq!(elements().filter(|e| matches!(e, Element::Table { .. })).count(), 1);
        assert_eq!(elements().filter(|e| matches!(e, Element::Smiles { .. })).count(), 0);
    }

    #[test]
    #[should_panic(expected = "text layer page count")]
    fn mismatched_text_layer_panics() {
        let pages = sample_pages();
        let _ = Document::new(
            DocId(4),
            DocMetadata::default(),
            pages,
            TextLayer { quality: TextLayerQuality::Missing, pages: vec![String::new(); 5] },
            ImageLayer::born_digital(2),
        );
    }

    #[test]
    #[should_panic(expected = "image layer page count")]
    fn mismatched_image_layer_panics() {
        let pages = sample_pages();
        let gt: Vec<String> = pages.iter().map(|p| p.ground_truth_text()).collect();
        let _ = Document::new(
            DocId(5),
            DocMetadata::default(),
            pages,
            TextLayer { quality: TextLayerQuality::Clean, pages: gt.clone() },
            ImageLayer::born_digital(9),
        );
    }

    #[test]
    fn doc_id_display_is_stable() {
        assert_eq!(DocId(42).to_string(), "doc-00000042");
    }

    #[test]
    fn ocr_text_layer_lowers_expected_fidelity_not_structure() {
        let pages = sample_pages();
        let gt: Vec<String> = pages.iter().map(|p| p.ground_truth_text()).collect();
        let mut rng = rand::rngs::mock::StepRng::new(2, 1);
        let layer =
            TextLayer::from_ground_truth(&gt, TextLayerQuality::OcrGenerated { error_rate: 0.3 }, &mut rng);
        let doc = Document::new(DocId(6), DocMetadata::default(), pages, layer, ImageLayer::born_digital(2));
        assert_eq!(doc.page_count(), 2);
    }

    #[test]
    fn empty_document_is_not_difficult() {
        let doc = Document::new(
            DocId(7),
            DocMetadata::default(),
            vec![],
            TextLayer { quality: TextLayerQuality::Missing, pages: Vec::new() },
            ImageLayer::born_digital(0),
        );
        assert_eq!(doc.page_count(), 0);
        assert_eq!(doc.ground_truth().split_whitespace().count(), 0);
    }
}
