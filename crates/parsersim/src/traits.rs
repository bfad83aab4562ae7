//! [`ParserKind`] — the closed set of simulated parsers, each parsing by a
//! `match` into its own module — and the types a parse returns.

use docmodel::spdf::{SpdfError, SpdfFile, SpdfIndex, SpdfPage};
use rand::RngCore;

use crate::cost::{CostModel, ResourceCost};
use crate::{grobid, marker, nougat, pymupdf, pypdf, tesseract};

/// One of the simulated PDF parsers.
///
/// Parsers hold no state: a parse is deterministic given the input and the
/// caller's RNG, which models the run-to-run variation of real OCR/ViT
/// inference.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
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

    /// Parse an already-decoded SPDF file.
    ///
    /// # Errors
    ///
    /// [`ParseError::EmptyDocument`] for a zero-page document.
    pub fn parse_file<R: RngCore + ?Sized>(
        self,
        file: &SpdfFile,
        rng: &mut R,
    ) -> Result<ParseOutput, ParseError> {
        match self {
            ParserKind::PyMuPdf => pymupdf::parse_file(file, rng),
            ParserKind::Pypdf => pypdf::parse_file(file, rng),
            ParserKind::Tesseract => tesseract::parse_file(file, rng),
            ParserKind::Grobid => grobid::parse_file(file, rng),
            ParserKind::Nougat => nougat::parse_file(file, rng),
            ParserKind::Marker => marker::parse_file(file, rng),
        }
    }

    /// The text of the first page — what the router reads — from an
    /// undecoded container.
    ///
    /// The definition is [`ParserKind::parse_file`] over the whole decoded
    /// document, cut at the first form feed. PyMuPDF, pypdf and Tesseract
    /// decode and parse page 0 alone instead: their `parse_file` is a pure
    /// per-page loop, so page 0's RNG draws come first and nothing about later
    /// pages reaches page 0's text. Nougat, Marker and GROBID draw a
    /// document-level page-drop mask before page 0 and so keep the definition;
    /// the `first_page_contract` property test holds every kind to it.
    ///
    /// # Errors
    ///
    /// Exactly when [`ParserKind::parse_file`] fails on the decoded document.
    pub fn first_page_text<R: RngCore + ?Sized>(
        self,
        index: &SpdfIndex<'_>,
        rng: &mut R,
    ) -> Result<String, ParseError> {
        let page_body: fn(&SpdfPage, &mut R) -> Option<String> = match self {
            ParserKind::PyMuPdf => pymupdf::extract_page,
            ParserKind::Pypdf => pypdf::extract_page,
            ParserKind::Tesseract => tesseract::recognize_page,
            ParserKind::Grobid | ParserKind::Nougat | ParserKind::Marker => {
                return Ok(cut_at_form_feed(self.parse_file(&index.decode_all(), rng)?.text));
            }
        };
        let page = index.page(0).ok_or(ParseError::EmptyDocument)?;
        Ok(cut_at_form_feed(page_body(&page, rng).unwrap_or_default()))
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
#[derive(Debug, Clone, PartialEq)]
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
    /// What a failed parse stands in with: no text, no page parsed, no cost.
    pub fn empty(parser: ParserKind, pages_total: usize) -> Self {
        ParseOutput { parser, text: String::new(), pages_parsed: 0, pages_total, cost: Default::default() }
    }

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

/// The epilogue every `parse_file` shares: fold a parser's per-page
/// `(content difficulty, text)` stream — `None` for a page it produced
/// nothing for — into the form-feed-joined [`ParseOutput`], priced by the
/// parser's [`CostModel`] at the mean difficulty. The stream is consumed in
/// page order, so a page body's RNG draws happen exactly where the parser's
/// own loop made them.
///
/// # Errors
///
/// [`ParseError::EmptyDocument`] for a zero-page stream.
pub(crate) fn assemble_pages(
    parser: ParserKind,
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
        cost: CostModel::for_parser(parser).document_cost(pages_total, difficulty_sum / pages_total as f64),
    })
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
