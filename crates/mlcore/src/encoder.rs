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

use crate::features::{fnv, HashedNgramFeaturizer, FNV_OFFSET};
use crate::matrix::l2_normalize;

/// Which pretrained encoder a [`PretrainedEncoder`] emulates.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
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

/// Add `column · x` into the embedding of every feature row whose entry `x`
/// is non-zero, column by column. `projection` is column-major with `dim`
/// rows; `features` holds one row of `projection.len() / dim` entries per
/// embedding. The one loop body behind every [`Width`].
#[inline(always)]
fn project(projection: &[f64], dim: usize, features: &[f64], embeddings: &mut [Vec<f64>]) {
    let width = projection.len() / dim;
    for (j, column) in projection.chunks_exact(dim).enumerate() {
        for (embedding, row) in embeddings.iter_mut().zip(features.chunks_exact(width)) {
            let x = row[j];
            if x != 0.0 {
                for (e, w) in embedding.iter_mut().zip(column) {
                    *e += w * x;
                }
            }
        }
    }
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx2")]
fn project_avx2(projection: &[f64], dim: usize, features: &[f64], embeddings: &mut [Vec<f64>]) {
    project(projection, dim, features, embeddings)
}

#[cfg(target_arch = "x86_64")]
#[target_feature(enable = "avx512f")]
fn project_avx512(projection: &[f64], dim: usize, features: &[f64], embeddings: &mut [Vec<f64>]) {
    project(projection, dim, features, embeddings)
}

type Projection = unsafe fn(&[f64], usize, &[f64], &mut [Vec<f64>]);

/// [`project`] compiled for one x86-64 vector width. `body` is an `unsafe fn`
/// because a build above the baseline may only run on a CPU that has its
/// instructions; [`Width::supported`] is the only place one is made.
#[derive(Clone, Copy)]
struct Width {
    name: &'static str,
    body: Projection,
}

impl std::fmt::Debug for Width {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name)
    }
}

/// The build every target runs.
const BASELINE: Width = Width { name: "baseline", body: project };

impl Width {
    /// The widths this CPU runs, widest first; the baseline is always last.
    fn supported() -> Vec<Width> {
        #[allow(unused_mut)] // Only x86-64 has more than the baseline.
        let mut widths = Vec::new();
        #[cfg(target_arch = "x86_64")]
        {
            if is_x86_feature_detected!("avx512f") {
                widths.push(Width { name: "avx512f", body: project_avx512 });
            }
            if is_x86_feature_detected!("avx2") {
                widths.push(Width { name: "avx2", body: project_avx2 });
            }
        }
        widths.push(BASELINE);
        widths
    }
}

/// A frozen encoder: hashed n-grams → fixed random projection → embedding.
#[derive(Debug, Clone)]
pub struct PretrainedEncoder {
    profile: EncoderProfile,
    featurizer: HashedNgramFeaturizer,
    /// `embedding_dim × (feature_dim + 8)` weights stored column-major: the
    /// weights of feature `j` are `projection[j * embedding_dim..][..embedding_dim]`.
    projection: Vec<f64>,
    /// One of [`Width::supported`]: the widest at construction.
    width: Width,
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
        let width = Width::supported()[0];
        PretrainedEncoder { profile, featurizer, projection, width, noise_seed: 0x5EED }
    }

    /// The same encoder projecting at the baseline vector width whatever the
    /// CPU offers: the reference a benchmark compares the detected width
    /// with. Embeddings are bit-equal at every width.
    pub fn at_baseline_width(self) -> Self {
        PretrainedEncoder { width: BASELINE, ..self }
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
    /// score. The same holds at every vector width: the encoder runs one loop
    /// body built for the baseline, AVX2 or AVX-512F — the widest the CPU
    /// has — and Rust never contracts `w * x + e` into a fused multiply-add,
    /// while each vector lane is a different embedding entry that still sums
    /// its terms in ascending column order. The representation noise of the
    /// low-quality profiles is seeded from a hash of the text, so repeated
    /// calls agree.
    pub fn encode_batch<S: AsRef<str>>(&self, texts: &[S]) -> Vec<Vec<f64>> {
        let width = self.featurizer.dim() + 8;
        let mut features = vec![0.0; TILE.min(texts.len()) * width];
        texts.chunks(TILE).flat_map(|tile| self.encode_tile(tile, &mut features)).collect()
    }

    /// Encode at most [`TILE`] texts; `features` is scratch for one feature
    /// row per text.
    fn encode_tile<S: AsRef<str>>(&self, tile: &[S], features: &mut [f64]) -> Vec<Vec<f64>> {
        let dim = self.embedding_dim();
        let width = self.featurizer.dim() + 8;
        for (text, row) in tile.iter().zip(features.chunks_exact_mut(width)) {
            self.featurizer.fill_row(text.as_ref(), row);
        }
        let mut embeddings = vec![vec![0.0; dim]; tile.len()];
        // SAFETY: `self.width` comes from `Width::supported`, which offers a
        // build above the baseline only after `is_x86_feature_detected!` found
        // its instructions on this CPU, or is `BASELINE`, which needs none.
        unsafe { (self.width.body)(&self.projection, dim, features, &mut embeddings) };
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
    fn every_supported_width_projects_the_same_bits() {
        // Nine texts — a full tile and a tile of one — with empty, multi-byte
        // and markup inputs among prose.
        let mut texts = vec![String::new(), "é İstanbul ΣΟΦΟΣ 東京大学".into(), "\\frac{a}{b} $x^2$".into()];
        texts.extend((1..=6).map(|n| "enzyme kinetics of the observed reaction rate ".repeat(n * 7)));
        let widths = Width::supported();
        println!("projection widths run: {widths:?}");
        for profile in EncoderProfile::ALL {
            let bits = |width| {
                let encoder = PretrainedEncoder { width, ..PretrainedEncoder::new(profile) };
                encoder.encode_batch(&texts).concat().iter().map(|v| v.to_bits()).collect::<Vec<_>>()
            };
            let baseline = bits(BASELINE);
            for &width in &widths {
                assert_eq!(bits(width), baseline, "{profile} at {width:?}");
            }
        }
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
