//! The hierarchical parser-selection pipeline (paper §5.1, Figure 2).
//!
//! AdaParse routes every document through up to three classification stages,
//! each conditioned on progressively richer (and costlier) signals:
//!
//! * **CLS I** ([`cls1`]) — rule-based validation of the cheap PyMuPDF
//!   extraction from coarse aggregate statistics (text length, symbol
//!   ratios). Invalid extractions go straight to the high-quality parser.
//! * **CLS II** ([`cls2`]) — a metadata-driven classifier estimating whether
//!   any other parser is likely to improve over the extraction.
//! * **CLS III** ([`cls3`]) — a text-driven accuracy predictor (frozen
//!   encoder + trainable regression head) that regresses the
//!   BLEU of every parser from the first-page text and picks the best one.
//!
//! [`dataset`] builds the supervised regression dataset from parser
//! evaluations, and [`modelzoo`] reproduces the prediction-model comparison
//! of the paper's Table 4.

pub mod cls1;
pub mod cls2;
pub mod cls3;
pub mod dataset;
pub mod modelzoo;

pub use cls1::{Cls1Decision, ValidityRules};
pub use cls2::ImprovementClassifier;
pub use cls3::AccuracyPredictor;
pub use dataset::{AccuracyDataset, AccuracySample};
pub use modelzoo::{ModelZooEntry, Table4Row};
