//! Quickstart: generate a small corpus, train AdaParse, and parse a held-out
//! set, printing the quality/throughput summary.
//!
//! Run with: `cargo run --example quickstart --release`

use adaparse::{AdaParseConfig, AdaParseEngine};
use scicorpus::{Corpus, GeneratorConfig};

fn main() {
    // 1. A synthetic scientific corpus (stand-in for real PDFs).
    let corpus = Corpus::generate(&GeneratorConfig {
        n_documents: 60,
        seed: 7,
        min_pages: 1,
        max_pages: 3,
        scanned_fraction: 0.2,
        ..Default::default()
    });
    let train: Vec<_> = corpus.train().into_iter().cloned().collect();
    let test: Vec<_> = corpus.test().into_iter().cloned().collect();
    println!("corpus: {} train / {} test documents", train.len(), test.len());

    // 2. Train the routing engine (CLS II + CLS III) on the training split.
    let mut engine = AdaParseEngine::new(AdaParseConfig { alpha: 0.05, ..Default::default() });
    engine.train_on_corpus(&train[..train.len().min(40)], 3);

    // 3. Parse the held-out documents adaptively.
    let result = engine.parse_documents(&test, 11);
    println!(
        "AdaParse: BLEU {:.1} %, ROUGE {:.1} %, CAR {:.1} %, coverage {:.1} %, accepted tokens {:.1} %",
        100.0 * result.quality.bleu,
        100.0 * result.quality.rouge,
        100.0 * result.quality.car,
        100.0 * result.quality.coverage,
        100.0 * result.quality.accepted_tokens,
    );
    println!(
        "routed {:.1} % of documents to {}, estimated single-node throughput {:.1} PDFs/s",
        100.0 * result.high_quality_fraction,
        engine.config().high_quality_parser,
        engine.node_throughput(10.0),
    );

    // 4. The JSONL output a campaign would write to storage.
    let jsonl = adaparse::output::to_jsonl(&result.records);
    println!("first output record: {}", jsonl.lines().next().unwrap_or(""));
}
