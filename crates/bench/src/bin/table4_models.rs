//! Table 4: comparison of prediction models for parser selection (CLS III
//! text regressors, CLS II title/metadata encoders, CLS I metadata SVCs, and
//! the reference selections).
//!
//! Usage: `cargo run -p bench --bin table4_models --release`

use bench::{bench_doc_count, benchmark_corpus};
use parsersim::evaluate::evaluate_corpus;
use selector::dataset::AccuracyDataset;
use selector::modelzoo;

fn main() {
    let n = bench_doc_count(80);
    let corpus = benchmark_corpus(n, 44);
    let evaluations = evaluate_corpus(corpus.documents(), 55);
    let dataset = AccuracyDataset::from_evaluations(corpus.documents(), &evaluations, 0.7);

    println!("Table 4 — prediction models (n = {n} documents)");
    println!("{:<34} {:>7} {:>7} {:>7} {:>7}", "Features (Model)", "BLEU", "ROUGE", "CAR", "ACC");
    for row in modelzoo::evaluate_all(&dataset, &evaluations, 7) {
        println!(
            "{:<34} {:>7.1} {:>7.1} {:>7.1} {:>7.1}",
            row.name,
            100.0 * row.bleu,
            100.0 * row.rouge,
            100.0 * row.car,
            100.0 * row.selection_accuracy
        );
    }
}
