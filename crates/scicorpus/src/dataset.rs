//! Corpus container, deterministic splits and difficulty ranking.

use docmodel::document::Document;
use rand::rngs::StdRng;
use rand::seq::SliceRandom;
use rand::SeedableRng;
use serde::{Deserialize, Serialize};

use crate::generator::{DocumentGenerator, GeneratorConfig};

/// Sizes of a train/validation/test split.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct SplitSizes {
    /// Number of training documents.
    pub train: usize,
    /// Number of validation documents.
    pub validation: usize,
    /// Number of test documents.
    pub test: usize,
}

impl SplitSizes {
    /// Total number of documents covered by the split.
    pub fn total(&self) -> usize {
        self.train + self.validation + self.test
    }

    /// Proportional split of `n` documents using the canonical 70/10/20 ratio.
    pub fn proportional(n: usize) -> SplitSizes {
        let train = (n as f64 * 0.7).floor() as usize;
        let validation = (n as f64 * 0.1).floor() as usize;
        let test = n.saturating_sub(train + validation);
        SplitSizes { train, validation, test }
    }
}

/// A generated corpus with split bookkeeping.
#[derive(Debug, Clone, PartialEq)]
pub struct Corpus {
    documents: Vec<Document>,
    split: SplitSizes,
    /// Permutation applied before splitting (indices into `documents`).
    order: Vec<usize>,
}

impl Corpus {
    /// Generate a corpus from a configuration. The result (including the
    /// split permutation) is a pure function of the configuration.
    pub fn generate(config: &GeneratorConfig) -> Corpus {
        let mut generator = DocumentGenerator::new(config.clone());
        let documents = generator.generate_many(config.n_documents);
        Corpus::from_documents(documents, config.seed)
    }

    /// Wrap an existing document collection, shuffling with `seed` to define
    /// the split order.
    pub fn from_documents(documents: Vec<Document>, seed: u64) -> Corpus {
        let mut order: Vec<usize> = (0..documents.len()).collect();
        let mut rng = StdRng::seed_from_u64(seed.wrapping_mul(0x9E37_79B9).wrapping_add(1));
        order.shuffle(&mut rng);
        let split = SplitSizes::proportional(documents.len());
        Corpus { documents, split, order }
    }

    /// Number of documents.
    pub fn len(&self) -> usize {
        self.documents.len()
    }

    /// Whether the corpus is empty.
    pub fn is_empty(&self) -> bool {
        self.documents.is_empty()
    }

    /// All documents in generation order.
    pub fn documents(&self) -> &[Document] {
        &self.documents
    }

    /// Current split sizes.
    pub fn split(&self) -> SplitSizes {
        self.split
    }

    /// Training subset (in split order).
    pub fn train(&self) -> Vec<&Document> {
        self.slice(0, self.split.train)
    }

    /// Validation subset.
    pub fn validation(&self) -> Vec<&Document> {
        self.slice(self.split.train, self.split.validation)
    }

    /// Test subset.
    pub fn test(&self) -> Vec<&Document> {
        self.slice(self.split.train + self.split.validation, self.split.test)
    }

    fn slice(&self, start: usize, len: usize) -> Vec<&Document> {
        self.order.iter().skip(start).take(len).filter_map(|&i| self.documents.get(i)).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_corpus() -> Corpus {
        Corpus::generate(&GeneratorConfig {
            n_documents: 40,
            seed: 17,
            min_pages: 1,
            max_pages: 3,
            ..Default::default()
        })
    }

    #[test]
    fn generation_is_deterministic() {
        let config =
            GeneratorConfig { n_documents: 10, seed: 4, min_pages: 1, max_pages: 2, ..Default::default() };
        assert_eq!(Corpus::generate(&config), Corpus::generate(&config));
    }

    #[test]
    fn splits_are_disjoint_and_cover_expected_sizes() {
        let corpus = small_corpus();
        let split = corpus.split();
        assert_eq!(split.total(), corpus.len());
        let train = corpus.train();
        let val = corpus.validation();
        let test = corpus.test();
        assert_eq!(train.len(), split.train);
        assert_eq!(val.len(), split.validation);
        assert_eq!(test.len(), split.test);
        let mut ids: Vec<u64> = train.iter().chain(val.iter()).chain(test.iter()).map(|d| d.id.0).collect();
        let before = ids.len();
        ids.sort_unstable();
        ids.dedup();
        assert_eq!(before, ids.len(), "splits must be disjoint");
    }

    #[test]
    fn proportional_split_adds_up() {
        for n in [0usize, 1, 7, 100, 1234] {
            let s = SplitSizes::proportional(n);
            assert_eq!(s.total(), n);
        }
    }

    #[test]
    fn empty_corpus_behaves() {
        let corpus = Corpus::from_documents(vec![], 1);
        assert!(corpus.is_empty());
        assert!(corpus.train().is_empty());
    }
}
