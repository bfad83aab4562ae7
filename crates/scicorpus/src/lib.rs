//! Synthetic scientific corpus generation.
//!
//! The paper benchmarks parsers on 25 000 scientific PDFs drawn from six
//! publishers, eight domains and 67 sub-categories, with HTML-derived ground
//! truth, and stresses the corpus under two augmentation regimes (simulated
//! scans and OCR-degraded text layers). This crate generates the
//! reproduction's stand-in corpus:
//!
//! * [`vocab`] / [`latex`] / [`smiles`] — domain-conditioned building blocks,
//! * [`generator`] — turns a [`GeneratorConfig`] into [`docmodel::Document`]s
//!   whose structure, metadata and layer quality follow the distributions the
//!   paper describes,
//! * [`augment`] — the §7.2 augmentation pipelines (image-layer degradation,
//!   text-layer replacement),
//! * [`dataset`] — corpus container, deterministic train/validation/test
//!   splits.
//!
//! # Example
//!
//! ```
//! use scicorpus::{Corpus, GeneratorConfig};
//!
//! let corpus = Corpus::generate(&GeneratorConfig { n_documents: 8, seed: 1, ..Default::default() });
//! assert_eq!(corpus.len(), 8);
//! assert!(corpus.documents()[0].word_count() > 50);
//! ```

pub mod arrivals;
pub mod augment;
pub mod categories;
pub mod dataset;
pub mod generator;
pub mod latex;
pub mod smiles;
pub mod vocab;

pub use arrivals::{generate_arrivals, Arrival, ArrivalConfig, ArrivalPattern};
pub use augment::{augment_image_layers, augment_text_layers, AugmentConfig};
pub use categories::{category_preset, generate_categorized, CategorizedCorpus, CategoryMix};
pub use dataset::{Corpus, SplitSizes};
pub use generator::{DocumentGenerator, GeneratorConfig};
