//! Umbrella crate for the AdaParse reproduction.
//!
//! This crate re-exports the workspace's public surface so the examples and
//! the cross-crate integration tests can use one coherent namespace. The
//! actual functionality lives in the member crates:
//!
//! * [`textmetrics`] — BLEU / ROUGE / CAR / accepted tokens / win rates,
//! * [`docmodel`] — the scientific document model and the SPDF container,
//! * [`scicorpus`] — synthetic corpus generation and augmentation,
//! * [`parsersim`] — the parser zoo simulators and their cost models,
//! * [`mlcore`] — the ML substrate (features, frozen encoders, linear heads),
//! * [`selector`] — CLS I/II/III and the Table 4 model zoo,
//! * [`prefstudy`] — the simulated human-preference study,
//! * [`hpcsim`] — the discrete-event HPC / Parsl simulator,
//! * [`adaparse`] — the adaptive routing engine and campaign driver.

pub use adaparse;
pub use docmodel;
pub use hpcsim;
pub use mlcore;
pub use parsersim;
pub use prefstudy;
pub use scicorpus;
pub use selector;
pub use textmetrics;
