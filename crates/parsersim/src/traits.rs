//! The [`Parser`] trait and its supporting types.

use docmodel::spdf::{SpdfError, SpdfFile, SpdfIndex, SpdfPage};
use rand::RngCore;
use serde::{Deserialize, Serialize};

use crate::cost::{CostModel, ResourceCost};

/// Identity of a concrete parser implementation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum ParserKind {
    /// MuPDF-based text extraction (the fast default).
    PyMuPdf,
    /// Pure-Python `pypdf` text extraction.
    Pypdf,
    /// Tesseract LSTM OCR.
    Tesseract,
    /// GROBID structured extraction.
    Grobid,
    /// Nougat Vision-Transformer recognition.
    Nougat,
    /// Marker layout-detection + texify recognition.
    Marker,
}

impl ParserKind {
    /// All parser kinds, in the order the paper's tables list them.
    pub const ALL: [ParserKind; 6] = [
        ParserKind::Marker,
        ParserKind::Nougat,
        ParserKind::PyMuPdf,
        ParserKind::Pypdf,
        ParserKind::Grobid,
        ParserKind::Tesseract,
    ];

    /// Display name matching the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            ParserKind::PyMuPdf => "PyMuPDF",
            ParserKind::Pypdf => "pypdf",
            ParserKind::Tesseract => "Tesseract",
            ParserKind::Grobid => "GROBID",
            ParserKind::Nougat => "Nougat",
            ParserKind::Marker => "Marker",
        }
    }

    /// Whether this parser needs a GPU to run at a useful speed.
    pub fn requires_gpu(&self) -> bool {
        matches!(self, ParserKind::Nougat | ParserKind::Marker)
    }

    /// Whether this parser only reads the embedded text layer (as opposed to
    /// recognizing text from page images).
    pub fn is_extraction(&self) -> bool {
        matches!(self, ParserKind::PyMuPdf | ParserKind::Pypdf)
    }

    /// Dense index (stable across runs) used for model output heads.
    pub fn index(&self) -> usize {
        ParserKind::ALL.iter().position(|k| k == self).unwrap_or(0)
    }
}

impl std::fmt::Display for ParserKind {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Errors produced when a parser cannot handle its input.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ParseError {
    /// The SPDF container itself was malformed.
    Container(SpdfError),
    /// The document has no content this parser can operate on (e.g. an
    /// extraction parser on a document without a text layer is *not* an
    /// error — it returns empty text — but a zero-page document is).
    EmptyDocument,
}

impl std::fmt::Display for ParseError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ParseError::Container(e) => write!(f, "malformed container: {e}"),
            ParseError::EmptyDocument => write!(f, "document has no pages"),
        }
    }
}

impl std::error::Error for ParseError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ParseError::Container(e) => Some(e),
            ParseError::EmptyDocument => None,
        }
    }
}

impl From<SpdfError> for ParseError {
    fn from(value: SpdfError) -> Self {
        ParseError::Container(value)
    }
}

/// The result of parsing one document.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ParseOutput {
    /// Which parser produced the output.
    pub parser: ParserKind,
    /// Extracted/recognized text, pages separated by form feeds.
    pub text: String,
    /// Number of pages for which output was produced.
    pub pages_parsed: usize,
    /// Number of pages in the document.
    pub pages_total: usize,
    /// Resources consumed by this parse.
    pub cost: ResourceCost,
}

impl ParseOutput {
    /// Page coverage in `[0, 1]` (the paper's "coverage" column).
    pub fn coverage(&self) -> f64 {
        if self.pages_total == 0 {
            0.0
        } else {
            (self.pages_parsed as f64 / self.pages_total as f64).clamp(0.0, 1.0)
        }
    }

    /// Number of word tokens in the output text.
    pub fn token_count(&self) -> usize {
        textmetrics::tokenize::count_words(&self.text)
    }
}

/// Cut a parser's output at the first form feed: the text of its first page.
fn cut_at_form_feed(mut text: String) -> String {
    text.truncate(text.find('\u{c}').unwrap_or(text.len()));
    text
}

/// [`Parser::first_page_text`] for a parser whose `parse_file` is a pure
/// per-page loop: decode page 0 alone and run the loop's `body` on it.
pub(crate) fn first_page_with(
    index: &SpdfIndex<'_>,
    body: impl FnOnce(&SpdfPage) -> Option<String>,
) -> Result<String, ParseError> {
    let page = index.page(0).ok_or(ParseError::EmptyDocument)?;
    Ok(cut_at_form_feed(body(&page).unwrap_or_default()))
}

/// The epilogue every `parse_file` shares: fold a parser's per-page
/// `(content difficulty, text)` stream — `None` for a page it produced
/// nothing for — into the form-feed-joined [`ParseOutput`], priced by `cost`
/// at the mean difficulty. The stream is consumed in page order, so a page
/// body's RNG draws happen exactly where the parser's own loop made them.
///
/// # Errors
///
/// [`ParseError::EmptyDocument`] for a zero-page stream.
pub(crate) fn assemble_pages(
    parser: ParserKind,
    cost: &CostModel,
    pages: impl ExactSizeIterator<Item = (f64, Option<String>)>,
) -> Result<ParseOutput, ParseError> {
    let pages_total = pages.len();
    if pages_total == 0 {
        return Err(ParseError::EmptyDocument);
    }
    let mut pages_parsed = 0usize;
    let mut out_pages = Vec::with_capacity(pages_total);
    let mut difficulty_sum = 0.0;
    for (difficulty, text) in pages {
        difficulty_sum += difficulty;
        pages_parsed += text.is_some() as usize;
        out_pages.push(text.unwrap_or_default());
    }
    Ok(ParseOutput {
        parser,
        text: out_pages.join("\u{c}"),
        pages_parsed,
        pages_total,
        cost: cost.document_cost(pages_total, difficulty_sum / pages_total as f64),
    })
}

/// A PDF parser simulator.
///
/// Implementations are deterministic given the input bytes and the caller's
/// RNG, which models the run-to-run variation of real OCR/ViT inference.
pub trait Parser: Send + Sync {
    /// Which parser this is.
    fn kind(&self) -> ParserKind;

    /// Display name.
    fn name(&self) -> &'static str {
        self.kind().name()
    }

    /// Whether this parser needs a GPU.
    fn requires_gpu(&self) -> bool {
        self.kind().requires_gpu()
    }

    /// Parse an already-decoded SPDF file.
    fn parse_file(&self, file: &SpdfFile, rng: &mut dyn RngCore) -> Result<ParseOutput, ParseError>;

    /// Parse raw SPDF bytes (decodes the container first).
    ///
    /// # Errors
    ///
    /// Returns [`ParseError::Container`] when the bytes are not valid SPDF and
    /// [`ParseError::EmptyDocument`] for zero-page documents.
    fn parse_bytes(&self, bytes: &[u8], rng: &mut dyn RngCore) -> Result<ParseOutput, ParseError> {
        let file = SpdfFile::parse(bytes)?;
        self.parse_file(&file, rng)
    }

    /// The text of the first page — what the router reads — from an
    /// undecoded container.
    ///
    /// The default *is the definition*: [`Parser::parse_file`] over the whole
    /// decoded document, cut at the first form feed. A parser may override it
    /// with a cheaper page-0-only pass only if its `parse_file` is a pure
    /// per-page loop, so page 0's RNG draws come first and nothing about
    /// later pages reaches page 0's text (PyMuPDF, pypdf, Tesseract). A
    /// parser that makes a document-level draw before page 0 (the page-drop
    /// masks of Nougat, Marker and GROBID) must keep the default; the
    /// `first_page_contract` property test holds every parser to it.
    ///
    /// # Errors
    ///
    /// Exactly when [`Parser::parse_file`] fails on the decoded document.
    fn first_page_text(&self, index: &SpdfIndex<'_>, rng: &mut dyn RngCore) -> Result<String, ParseError> {
        Ok(cut_at_form_feed(self.parse_file(&index.decode_all(), rng)?.text))
    }

    /// Expected resource cost of parsing a document with the given page count
    /// without actually parsing it (used by the scheduler).
    fn estimate_cost(&self, pages: usize) -> ResourceCost;
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gpu_and_extraction_flags() {
        assert!(ParserKind::Nougat.requires_gpu());
        assert!(ParserKind::Marker.requires_gpu());
        assert!(!ParserKind::PyMuPdf.requires_gpu());
        assert!(ParserKind::PyMuPdf.is_extraction());
        assert!(ParserKind::Pypdf.is_extraction());
        assert!(!ParserKind::Tesseract.is_extraction());
    }

    #[test]
    fn indices_are_dense() {
        let mut idx: Vec<usize> = ParserKind::ALL.iter().map(|k| k.index()).collect();
        idx.sort_unstable();
        assert_eq!(idx, (0..6).collect::<Vec<_>>());
    }

    #[test]
    fn coverage_and_token_count() {
        let out = ParseOutput {
            parser: ParserKind::PyMuPdf,
            text: "three word output".to_string(),
            pages_parsed: 3,
            pages_total: 4,
            cost: ResourceCost::default(),
        };
        assert!((out.coverage() - 0.75).abs() < 1e-12);
        assert_eq!(out.token_count(), 3);
        let empty = ParseOutput { pages_total: 0, pages_parsed: 0, ..out };
        assert_eq!(empty.coverage(), 0.0);
    }

    #[test]
    fn parse_error_display() {
        let e = ParseError::EmptyDocument;
        assert!(!e.to_string().is_empty());
        let c: ParseError = docmodel::spdf::SpdfError::BadHeader.into();
        assert!(c.to_string().contains("malformed container"));
    }
}
