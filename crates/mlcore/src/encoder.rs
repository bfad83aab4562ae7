//! Frozen "pretrained" text encoders of graded quality.
//!
//! Table 4 of the paper compares prediction models built on different
//! pretrained encoders: SciBERT and SPECTER (scientific pretraining) beat
//! BERT and MiniLM (web pretraining). We reproduce the *ordering* rather
//! than the checkpoints: every profile is a hashed-n-gram featurizer followed
//! by a frozen random projection, and the profiles differ in embedding
//! width, feature richness and the amount of noise injected — lower-quality
//! encoders see a noisier, narrower view of the text.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

use crate::features::{aggregate_statistics, fnv, HashedNgramFeaturizer, FNV_OFFSET};
use crate::matrix::l2_normalize;

/// Which pretrained encoder a [`PretrainedEncoder`] emulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum EncoderProfile {
    /// SciBERT: scientific-text pretraining, the paper's CLS III choice.
    SciBert,
    /// SPECTER: citation-informed scientific document encoder.
    Specter,
    /// BERT: general web/books pretraining.
    Bert,
    /// MiniLM-L6: small distilled general-purpose encoder.
    MiniLm,
    /// fastText-style averaged word embeddings (AdaParse FT variant).
    FastText,
}

impl EncoderProfile {
    /// All profiles evaluated in Table 4 (plus fastText).
    pub const ALL: [EncoderProfile; 5] = [
        EncoderProfile::SciBert,
        EncoderProfile::Specter,
        EncoderProfile::Bert,
        EncoderProfile::MiniLm,
        EncoderProfile::FastText,
    ];

    /// Display name as used in the paper's tables.
    pub fn name(&self) -> &'static str {
        match self {
            EncoderProfile::SciBert => "SciBERT",
            EncoderProfile::Specter => "SPECTER",
            EncoderProfile::Bert => "BERT",
            EncoderProfile::MiniLm => "MiniLM-L6",
            EncoderProfile::FastText => "fastText",
        }
    }

    /// Embedding width.
    pub fn embedding_dim(&self) -> usize {
        match self {
            EncoderProfile::SciBert | EncoderProfile::Bert => 192,
            EncoderProfile::Specter => 160,
            EncoderProfile::MiniLm => 96,
            EncoderProfile::FastText => 64,
        }
    }

    /// Width of the hashed-n-gram view the encoder gets to see. Scientific
    /// pretraining is modelled as a richer (wider, char-aware) view.
    fn feature_dim(&self) -> usize {
        match self {
            EncoderProfile::SciBert => 2048,
            EncoderProfile::Specter => 1536,
            EncoderProfile::Bert => 1024,
            EncoderProfile::MiniLm => 512,
            EncoderProfile::FastText => 512,
        }
    }

    /// Standard deviation of the representation noise injected per encode,
    /// modelling the domain mismatch of web-pretrained encoders.
    fn representation_noise(&self) -> f64 {
        match self {
            EncoderProfile::SciBert => 0.00,
            EncoderProfile::Specter => 0.01,
            EncoderProfile::Bert => 0.04,
            EncoderProfile::MiniLm => 0.07,
            EncoderProfile::FastText => 0.05,
        }
    }

    fn uses_char_trigrams(&self) -> bool {
        !matches!(self, EncoderProfile::FastText | EncoderProfile::MiniLm)
    }
}

impl std::fmt::Display for EncoderProfile {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Documents [`PretrainedEncoder::encode_batch`] projects together: their
/// feature rows (16 KiB each at SciBERT width) stay cache-resident while each
/// projection column is read once for all of them.
const TILE: usize = 8;

/// A frozen encoder: hashed n-grams → fixed random projection → embedding.
#[derive(Debug, Clone)]
pub struct PretrainedEncoder {
    profile: EncoderProfile,
    featurizer: HashedNgramFeaturizer,
    /// `embedding_dim × (feature_dim + 8)` weights stored column-major: the
    /// weights of feature `j` are `projection[j * embedding_dim..][..embedding_dim]`.
    projection: Vec<f64>,
    noise_seed: u64,
}

impl PretrainedEncoder {
    /// Instantiate an encoder for the given profile. The projection is a pure
    /// function of the profile, playing the role of frozen pretrained weights.
    pub fn new(profile: EncoderProfile) -> Self {
        let feature_dim = profile.feature_dim();
        let featurizer = if profile.uses_char_trigrams() {
            HashedNgramFeaturizer::new(feature_dim)
        } else {
            HashedNgramFeaturizer::words_only(feature_dim)
        };
        let mut rng =
            StdRng::seed_from_u64(0xC0FFEE ^ profile.embedding_dim() as u64 ^ (feature_dim as u64) << 16);
        // +8 columns for the aggregate-statistics side features. The weights
        // are drawn row by row — the draw order is part of the frozen
        // checkpoint — and each lands in its column-major slot.
        let (rows, cols) = (profile.embedding_dim(), feature_dim + 8);
        let scale = (2.0 / feature_dim as f64).sqrt();
        let mut projection = vec![0.0; rows * cols];
        for row in 0..rows {
            for col in 0..cols {
                projection[col * rows + row] = rng.gen_range(-scale..=scale);
            }
        }
        PretrainedEncoder { profile, featurizer, projection, noise_seed: 0x5EED }
    }

    /// Output embedding width.
    pub fn embedding_dim(&self) -> usize {
        self.profile.embedding_dim()
    }

    /// Encode a text into a fixed-width embedding: [`Self::encode_batch`] of
    /// one.
    pub fn encode(&self, text: &str) -> Vec<f64> {
        self.encode_batch(&[text]).pop().expect("one embedding per text")
    }

    /// Encode a batch of texts, one embedding per text in order.
    ///
    /// Deterministic and independent of batch composition: the projection
    /// walks the columns once per tile of eight texts and adds
    /// `column · feature` into the embedding of every text whose feature is
    /// non-zero, so each embedding entry sums its terms in ascending column
    /// order whatever its batch-mates are. Skipping a zero feature is exact:
    /// its term is `±0.0`, and an accumulator that starts at `+0.0` is never
    /// `-0.0`, so adding it would change nothing. The product and the sum
    /// are rounded separately (no `mul_add`): a fused multiply-add rounds
    /// once, which would move every embedding and with it every routing
    /// score. The representation noise of the low-quality profiles is seeded
    /// from a hash of the text, so repeated calls agree.
    pub fn encode_batch<S: AsRef<str>>(&self, texts: &[S]) -> Vec<Vec<f64>> {
        let width = self.featurizer.dim() + 8;
        let mut features = vec![0.0; TILE.min(texts.len()) * width];
        texts.chunks(TILE).flat_map(|tile| self.encode_tile(tile, &mut features)).collect()
    }

    /// Encode at most [`TILE`] texts; `features` is scratch for one feature
    /// row per text.
    fn encode_tile<S: AsRef<str>>(&self, tile: &[S], features: &mut [f64]) -> Vec<Vec<f64>> {
        let dim = self.embedding_dim();
        let hashed = self.featurizer.dim();
        let width = hashed + 8;
        for (text, row) in tile.iter().zip(features.chunks_exact_mut(width)) {
            let (ngrams, statistics) = row.split_at_mut(hashed);
            self.featurizer.fill(text.as_ref(), ngrams);
            statistics.copy_from_slice(&aggregate_statistics(text.as_ref()));
        }
        let mut embeddings = vec![vec![0.0; dim]; tile.len()];
        for (j, column) in self.projection.chunks_exact(dim).enumerate() {
            for (embedding, row) in embeddings.iter_mut().zip(features.chunks_exact(width)) {
                let x = row[j];
                if x != 0.0 {
                    for (e, w) in embedding.iter_mut().zip(column) {
                        *e += w * x;
                    }
                }
            }
        }
        let noise = self.profile.representation_noise();
        for (text, embedding) in tile.iter().zip(&mut embeddings) {
            if noise > 0.0 {
                let mut rng =
                    StdRng::seed_from_u64(self.noise_seed ^ fnv(FNV_OFFSET, text.as_ref().as_bytes()));
                for v in embedding.iter_mut() {
                    *v += rng.gen_range(-noise..=noise);
                }
            }
            l2_normalize(embedding);
        }
        embeddings
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn encoding_is_deterministic_and_normalized() {
        let encoder = PretrainedEncoder::new(EncoderProfile::SciBert);
        let a = encoder.encode("the enzyme kinetics follow michaelis menten behaviour");
        let b = encoder.encode("the enzyme kinetics follow michaelis menten behaviour");
        assert_eq!(a, b);
        assert_eq!(a.len(), EncoderProfile::SciBert.embedding_dim());
        let norm: f64 = a.iter().map(|v| v * v).sum();
        assert!((norm - 1.0).abs() < 1e-9);
    }

    #[test]
    fn different_texts_produce_different_embeddings() {
        let encoder = PretrainedEncoder::new(EncoderProfile::Bert);
        let a = encoder.encode("deep learning for protein folding");
        let b = encoder.encode("macroeconomic effects of fiscal policy");
        let cos: f64 = a.iter().zip(&b).map(|(x, y)| x * y).sum();
        assert!(cos < 0.95);
    }

    #[test]
    fn profiles_have_expected_dims_and_names() {
        for profile in EncoderProfile::ALL {
            let encoder = PretrainedEncoder::new(profile);
            assert_eq!(encoder.encode("text sample").len(), profile.embedding_dim());
            assert!(!profile.name().is_empty());
        }
        assert!(EncoderProfile::SciBert.embedding_dim() > EncoderProfile::MiniLm.embedding_dim());
    }

    #[test]
    fn batch_encoding_matches_single() {
        let encoder = PretrainedEncoder::new(EncoderProfile::MiniLm);
        let texts = ["alpha beta", "gamma delta"];
        let batch = encoder.encode_batch(&texts);
        assert_eq!(batch[0], encoder.encode("alpha beta"));
        assert_eq!(batch[1], encoder.encode("gamma delta"));
    }

    #[test]
    fn scibert_is_less_noisy_than_minilm() {
        // Two texts differing by scrambling should stay closer under the
        // noisier, narrower encoder view than under SciBERT's richer view?
        // The important property for Table 4 is simply that the *noise*
        // parameter ordering holds.
        assert!(
            EncoderProfile::SciBert.representation_noise() < EncoderProfile::MiniLm.representation_noise()
        );
        assert!(EncoderProfile::Specter.representation_noise() < EncoderProfile::Bert.representation_noise());
    }
}
