//! The document type tying pages, metadata, text layer and image layer
//! together.

use serde::{Deserialize, Serialize};

use crate::element::{Element, ElementKind};
use crate::imagelayer::ImageLayer;
use crate::metadata::DocMetadata;
use crate::textlayer::TextLayer;

/// Opaque document identifier, unique within a corpus.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub struct DocId(pub u64);

impl std::fmt::Display for DocId {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "doc-{:08}", self.0)
    }
}

/// One page: an ordered list of structural elements.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
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

    /// Number of ground-truth words on the page.
    pub fn word_count(&self) -> usize {
        self.elements.iter().map(|e| e.word_count()).sum()
    }

    /// Number of elements of a given kind.
    pub fn count_kind(&self, kind: ElementKind) -> usize {
        self.elements.iter().filter(|e| e.kind() == kind).count()
    }

    /// Mean extraction difficulty of the page's elements (0.0 for an empty page).
    pub fn extraction_difficulty(&self) -> f64 {
        if self.elements.is_empty() {
            return 0.0;
        }
        self.elements.iter().map(|e| e.extraction_difficulty()).sum::<f64>() / self.elements.len() as f64
    }
}

/// A scientific document: metadata, structured pages (the ground truth), the
/// embedded text layer and the raster image layer.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
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

    /// Total ground-truth word count.
    pub fn word_count(&self) -> usize {
        self.pages.iter().map(|p| p.word_count()).sum()
    }

    /// Number of elements of a given kind in the whole document.
    pub fn count_kind(&self, kind: ElementKind) -> usize {
        self.pages.iter().map(|p| p.count_kind(kind)).sum()
    }

    /// Intrinsic parsing difficulty of one page in `[0, 1]`, used by
    /// page-granular cascade routing to decide which pages of a document to delegate to an
    /// expensive parser. Combines the page's structural difficulty, the
    /// document-wide text-layer fidelity penalty, that page's raster
    /// legibility, and a tiny hash-seeded jitter keyed on `(doc id, page)` so
    /// equal-structure pages still order deterministically. Pure arithmetic —
    /// no RNG state is created or advanced.
    ///
    /// Returns `None` when `page` is out of range.
    pub fn page_difficulty(&self, page: usize) -> Option<f64> {
        let structured = self.pages.get(page)?;
        let structural = structured.extraction_difficulty();
        let text_penalty = 1.0 - self.text_layer.quality.expected_fidelity();
        let image_penalty = 1.0 - self.image_layer.pages.get(page).map(|p| p.legibility()).unwrap_or(0.0);
        // SplitMix64 of (id, page) → jitter in [0, 0.01): breaks ties between
        // structurally identical pages without perturbing the ranking of
        // genuinely different ones.
        let mut h = self.id.0 ^ (page as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15);
        h = (h ^ (h >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        h = (h ^ (h >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        h ^= h >> 31;
        let jitter = (h >> 11) as f64 / (1u64 << 53) as f64 * 0.01;
        Some((0.45 * structural + 0.35 * text_penalty + 0.20 * image_penalty + jitter).clamp(0.0, 1.0))
    }

    /// Per-page intrinsic difficulties, in page order (see
    /// [`Document::page_difficulty`]).
    pub fn page_difficulties(&self) -> Vec<f64> {
        (0..self.pages.len()).map(|i| self.page_difficulty(i).unwrap_or(0.0)).collect()
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
                Element::paragraph("Large corpora of scientific text require accurate parsing."),
                Element::equation("\\mathcal{L} = -\\log p_\\theta(y|x)"),
            ]),
            Page::new(vec![
                Element::paragraph("We evaluate on a benchmark of one thousand documents."),
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
        Document::new(DocId(1), DocMetadata::default(), pages, TextLayer::clean(&gt), image_layer)
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
        assert!(doc.word_count() > 10);
        assert_eq!(doc.count_kind(ElementKind::Equation), 1);
        assert_eq!(doc.count_kind(ElementKind::Table), 1);
        assert_eq!(doc.count_kind(ElementKind::Smiles), 0);
    }

    #[test]
    #[should_panic(expected = "text layer page count")]
    fn mismatched_text_layer_panics() {
        let pages = sample_pages();
        let _ = Document::new(
            DocId(4),
            DocMetadata::default(),
            pages,
            TextLayer::missing(5),
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
            TextLayer::clean(&gt),
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
        assert!(doc.text_layer.quality.expected_fidelity() < 0.9);
    }

    #[test]
    fn page_difficulty_is_deterministic_bounded_and_total() {
        let doc = sample_doc();
        let first = doc.page_difficulties();
        let second = doc.page_difficulties();
        assert_eq!(first.len(), doc.page_count());
        assert_eq!(first, second, "per-page difficulty must be a pure function of the document");
        for (i, d) in first.iter().enumerate() {
            assert!((0.0..=1.0).contains(d));
            assert_eq!(doc.page_difficulty(i), Some(*d));
        }
        assert_eq!(doc.page_difficulty(doc.page_count()), None);
    }

    #[test]
    fn page_difficulty_tracks_page_legibility() {
        let mut doc = sample_doc();
        let clean = doc.page_difficulty(0).unwrap();
        use rand::SeedableRng;
        let mut rng = rand::rngs::StdRng::seed_from_u64(3);
        doc.image_layer.pages[0].degrade_scan(&mut rng);
        doc.image_layer.pages[0].degrade_scan(&mut rng);
        let degraded = doc.page_difficulty(0).unwrap();
        assert!(degraded > clean, "degraded page {degraded} must be harder than clean {clean}");
        // Page 1's raster was untouched; its difficulty moves not at all.
        assert_eq!(doc.page_difficulty(1), sample_doc().page_difficulty(1));
    }

    #[test]
    fn page_jitter_separates_identical_pages() {
        let page = Page::new(vec![Element::paragraph("identical content on every page")]);
        let pages = vec![page.clone(), page.clone(), page];
        let gt: Vec<String> = pages.iter().map(|p| p.ground_truth_text()).collect();
        let doc = Document::new(
            DocId(9),
            DocMetadata::default(),
            pages,
            TextLayer::clean(&gt),
            ImageLayer::born_digital(3),
        );
        let d = doc.page_difficulties();
        assert!(d[0] != d[1] || d[1] != d[2], "jitter must break structural ties");
        let spread = d.iter().cloned().fold(f64::MIN, f64::max) - d.iter().cloned().fold(f64::MAX, f64::min);
        assert!(spread < 0.01, "jitter must stay tiny, spread = {spread}");
    }

    #[test]
    fn empty_document_is_not_difficult() {
        let doc = Document::new(
            DocId(7),
            DocMetadata::default(),
            vec![],
            TextLayer::missing(0),
            ImageLayer::born_digital(0),
        );
        assert_eq!(doc.page_count(), 0);
        assert_eq!(doc.word_count(), 0);
    }
}
