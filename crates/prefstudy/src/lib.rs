//! Simulated human preference study (paper §6.3 / §7.1).
//!
//! The paper recruits 23 scientists who, shown a page image and two parser
//! outputs, pick the output they prefer (or "neither"), yielding 2 794
//! preferences over 642 pages. Here those preferences ground the win-rate /
//! accepted-token metrics of Tables 1–3; the paper also post-trains its
//! router on them, which this reproduction does not.
//!
//! Real annotators are unavailable here, so [`annotator`] models them: each
//! simulated scientist scores a parser output by a latent quality mixing BLEU
//! with format-taste terms (markdown dislike, whitespace dislike) plus
//! per-annotator noise, and abstains when the two outputs are too close to
//! call. The simulator is calibrated so the headline statistics of §7.1 —
//! high decisiveness, high inter-annotator consensus, and a BLEU↔win-rate
//! correlation that is significant but far from 1 — are reproduced.
//!
//! [`study`] organizes the pairing design and splits, and [`analysis`]
//! computes the §7.1 statistics.

pub mod analysis;
pub mod annotator;
pub mod study;

pub use analysis::StudyAnalysis;
pub use annotator::{Annotator, AnnotatorPool};
pub use study::{PreferenceRecord, PreferenceStudy, StudyConfig};
