// The gradient kernels index several parallel buffers with one loop counter
// (`grad_w[i] += g * x[i]`); clippy's iterator rewrite obscures that shape.
#![allow(clippy::needless_range_loop)]

//! Minimal machine-learning substrate for the AdaParse reproduction.
//!
//! The paper fine-tunes pretrained language models (SciBERT, BERT, MiniLM,
//! SPECTER) to regress per-parser BLEU from first-page text, applies LoRA
//! for parameter-efficient adaptation, and post-trains with DPO on human
//! preference pairs. Shipping those checkpoints is impossible here, so this
//! crate provides the stand-ins with the same *shape*:
//!
//! * [`matrix`] — a small dense-matrix type with the operations the models
//!   need (no external linear-algebra crates),
//! * [`features`] — hashed character/word n-gram featurization (fastText-like),
//! * [`encoder`] — frozen "pretrained" encoders of graded quality simulating
//!   the SciBERT > BERT > MiniLM ordering,
//! * [`linear`] — trainable heads (multi-output ridge/SGD linear
//!   regression, logistic regression, linear SVC),
//! * [`optim`] — the SGD step the regression head trains with,
//! * [`lora`] — low-rank adaptation of a frozen projection,
//! * [`dpo`] — direct preference optimization on a scalar scoring head.
//!
//! # Example
//!
//! ```
//! use mlcore::features::HashedNgramFeaturizer;
//! use mlcore::linear::LinearRegression;
//!
//! let featurizer = HashedNgramFeaturizer::new(64);
//! let xs: Vec<Vec<f64>> = ["alpha beta", "gamma delta"].iter().map(|t| featurizer.features(t)).collect();
//! let ys = vec![vec![1.0], vec![0.0]];
//! let mut model = LinearRegression::new(64, 1);
//! model.fit(&xs, &ys, 200, 0.5, 1e-4);
//! assert!(model.predict(&xs[0])[0] > model.predict(&xs[1])[0]);
//! ```

pub mod dpo;
pub mod encoder;
pub mod features;
pub mod linear;
pub mod lora;
pub mod matrix;
pub mod optim;

pub use dpo::{DpoConfig, DpoTrainer, PreferencePair};
pub use encoder::{EncoderProfile, PretrainedEncoder};
pub use features::HashedNgramFeaturizer;
pub use linear::{LinearRegression, LinearSvc, LogisticRegression};
pub use matrix::Matrix;
pub use optim::Sgd;
