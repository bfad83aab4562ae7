//! Figure 3: per-document BLEU of every parser against the document
//! difficulty rank (difficulty = mean BLEU across parsers, descending), plus
//! the single-node throughput legend.
//!
//! Usage: `cargo run -p bench --bin fig3_difficulty --release`

use bench::{bench_doc_count, benchmark_corpus};
use parsersim::cost::node_throughput_table;
use parsersim::evaluate::evaluate_corpus;
use parsersim::ParserKind;

fn main() {
    let n = bench_doc_count(150);
    let corpus = benchmark_corpus(n, 33);
    let evaluations = evaluate_corpus(corpus.documents(), 77);

    // Rank documents by estimated difficulty (descending mean BLEU = easy first).
    let mut ranked: Vec<usize> = (0..evaluations.len()).collect();
    ranked.sort_by(|&a, &b| {
        evaluations[b]
            .mean_bleu()
            .partial_cmp(&evaluations[a].mean_bleu())
            .unwrap_or(std::cmp::Ordering::Equal)
    });

    println!("Figure 3 — parser BLEU by difficulty rank (n = {n})");
    println!("Legend (single-node throughput, PDFs/s, 10-page documents):");
    for (kind, rate) in node_throughput_table(10.0) {
        println!("  {:<10} {:>9.2}", kind.name(), rate);
    }
    println!();
    print!("{:>6}", "rank");
    for kind in ParserKind::ALL {
        print!(" {:>10}", kind.name());
    }
    println!(" {:>10}", "mean");
    // Print a decimated series so the output stays readable at any scale.
    let step = (ranked.len() / 50).max(1);
    for (rank, &doc_index) in ranked.iter().enumerate().step_by(step) {
        let eval = &evaluations[doc_index];
        print!("{rank:>6}");
        for kind in ParserKind::ALL {
            let bleu = eval.for_parser(kind).map(|p| p.report.bleu).unwrap_or(0.0);
            print!(" {:>10.3}", bleu);
        }
        println!(" {:>10.3}", eval.mean_bleu());
    }
}
