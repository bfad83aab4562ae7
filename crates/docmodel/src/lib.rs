//! Scientific document model and the SPDF container format.
//!
//! The AdaParse paper operates on real scientific PDFs. This crate provides
//! the reproduction's stand-in: a structured [`Document`] model (paragraphs,
//! headings, LaTeX equations, tables, figures, references, SMILES strings)
//! with publisher/domain/producer [`metadata`], an embedded [`textlayer`]
//! whose quality can be degraded the same way real PDFs degrade, and an
//! [`imagelayer`] carrying the raster properties (DPI, skew, blur, contrast,
//! compression) that drive OCR difficulty.
//!
//! Documents serialize to **SPDF**, a from-scratch mini-PDF binary format
//! ([`spdf`]) with objects, dictionaries, content streams, an xref table and
//! a trailer — so the parser simulators in the `parsersim` crate do real
//! byte-level work (lexing, object resolution, stream decoding) rather than
//! being handed strings.
//!
//! # Example
//!
//! ```
//! use docmodel::{Document, DocId, metadata::DocMetadata, element::Element, document::Page};
//! use docmodel::textlayer::{TextLayer, TextLayerQuality};
//! use docmodel::imagelayer::ImageLayer;
//!
//! let pages = vec![Page::new(vec![
//!     Element::heading(1, "Introduction"),
//!     Element::Paragraph { text: "Parsing scientific PDFs at scale is a systems problem.".into() },
//! ])];
//! let gt: Vec<String> = pages.iter().map(|p| p.ground_truth_text()).collect();
//! let doc = Document::new(
//!     DocId(7),
//!     DocMetadata::default(),
//!     pages,
//!     TextLayer { quality: TextLayerQuality::Clean, pages: gt.clone() },
//!     ImageLayer::born_digital(1),
//! );
//! let bytes = docmodel::spdf::write_document(&doc);
//! let parsed = docmodel::spdf::SpdfFile::parse(&bytes).unwrap();
//! assert_eq!(parsed.pages.len(), 1);
//! ```

pub mod corrupt;
pub mod document;
pub mod element;
pub mod imagelayer;
pub mod metadata;
pub mod spdf;
pub mod textlayer;

pub use document::{DocId, Document, Page};
pub use element::Element;
pub use imagelayer::{ImageLayer, PageImage};
pub use metadata::{DocCategory, DocMetadata, Domain, PdfFormat, ProducerTool, Publisher};
pub use textlayer::{TextLayer, TextLayerQuality};
