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
//! assert_eq!(corpus.documents().len(), 8);
//! assert!(corpus.documents()[0].ground_truth().split_whitespace().count() > 50);
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

use std::cell::RefCell;

thread_local! {
    /// The buffer [`render`] writes into; it grows to the longest string
    /// rendered on the thread and is reused from then on.
    static SCRATCH: RefCell<String> = const { RefCell::new(String::new()) };
}

/// Run `write` into this thread's scratch buffer and return one copy of what
/// it wrote, allocated at exactly its length. `write` must not call `render`.
pub(crate) fn render(write: impl FnOnce(&mut String)) -> String {
    SCRATCH.with_borrow_mut(|buf| {
        buf.clear();
        write(buf);
        buf.as_str().to_owned()
    })
}

/// Append the decimal digits of `n`, as `{}` prints it.
pub(crate) fn push_decimal(out: &mut String, n: usize) {
    if n >= 10 {
        push_decimal(out, n / 10);
    }
    out.push(char::from(b'0' + (n % 10) as u8));
}
