// The logistic and SVC gradient steps and `Matrix::matvec` index several
// parallel buffers with one loop counter (`w[i] -= lr * (grad_w[i] + l2 * w[i])`);
// clippy's iterator rewrite obscures that shape.
#![allow(clippy::needless_range_loop)]

//! Minimal machine-learning substrate for the AdaParse reproduction.
//!
//! The paper fine-tunes pretrained language models (SciBERT, BERT, MiniLM,
//! SPECTER) to regress per-parser BLEU from first-page text. Shipping those
//! checkpoints is impossible here, so this crate provides the stand-ins with
//! the same *shape*: a frozen encoder under one supervised regression head.
//!
//! * [`matrix`] — the vector helpers the models need and a small dense
//!   matrix (no external linear-algebra crates),
//! * [`features`] — hashed character/word n-gram featurization (fastText-like),
//! * [`encoder`] — frozen "pretrained" encoders of graded quality simulating
//!   the SciBERT > BERT > MiniLM ordering,
//! * [`linear`] — trainable heads (multi-output linear regression by
//!   full-batch gradient descent, logistic regression, linear SVC).
//!
//! # Example
//!
//! ```
//! use mlcore::features::HashedNgramFeaturizer;
//! use mlcore::linear::LinearRegression;
//!
//! let featurizer = HashedNgramFeaturizer::new(64);
//! let row = |text: &str| {
//!     let mut row = vec![0.0; 64 + 8]; // n-gram counts, then eight text statistics
//!     featurizer.fill_row(text, &mut row);
//!     row
//! };
//! let xs: Vec<Vec<f64>> = ["alpha beta", "gamma delta"].into_iter().map(row).collect();
//! let ys = vec![vec![1.0], vec![0.0]];
//! let mut model = LinearRegression::new(64 + 8, 1);
//! model.fit(&xs, &ys, 200, 0.5, 1e-4);
//! assert!(model.predict(&xs[0])[0] > model.predict(&xs[1])[0]);
//! ```

pub mod encoder;
pub mod features;
pub mod linear;
pub mod matrix;

pub use encoder::{EncoderProfile, PretrainedEncoder};
pub use features::HashedNgramFeaturizer;
pub use linear::{LinearRegression, LinearSvc, LogisticRegression};
pub use matrix::Matrix;
