//! Compare every parser in the zoo on the same corpus: quality (BLEU, ROUGE,
//! CAR, coverage) and single-node throughput — a miniature of the paper's
//! Table 1 + Figure 3 legend.
//!
//! Run with: `cargo run --example parser_comparison --release`

use parsersim::cost::node_throughput_table;
use parsersim::evaluate::evaluate_corpus;
use parsersim::ParserKind;
use scicorpus::{Corpus, GeneratorConfig};

fn main() {
    let corpus = Corpus::generate(&GeneratorConfig {
        n_documents: 40,
        seed: 17,
        min_pages: 1,
        max_pages: 3,
        scanned_fraction: 0.25,
        ..Default::default()
    });
    let evaluations = evaluate_corpus(corpus.documents(), 23);
    let throughputs = node_throughput_table(10.0);

    println!(
        "{:<11} {:>8} {:>8} {:>8} {:>9} {:>12}",
        "Parser", "BLEU", "ROUGE", "CAR", "Coverage", "PDFs/s/node"
    );
    for kind in ParserKind::ALL {
        let n = evaluations.len().max(1) as f64;
        let mut bleu = 0.0;
        let mut rouge = 0.0;
        let mut car = 0.0;
        let mut coverage = 0.0;
        for eval in &evaluations {
            if let Some(p) = eval.for_parser(kind) {
                bleu += p.report.bleu;
                rouge += p.report.rouge;
                car += p.report.car;
                coverage += p.report.coverage;
            }
        }
        let throughput = throughputs.iter().find(|(k, _)| *k == kind).map(|(_, t)| *t).unwrap_or(0.0);
        println!(
            "{:<11} {:>7.1}% {:>7.1}% {:>7.1}% {:>8.1}% {:>12.2}",
            kind.name(),
            100.0 * bleu / n,
            100.0 * rouge / n,
            100.0 * car / n,
            100.0 * coverage / n,
            throughput
        );
    }
    println!();
    println!("Documents where each parser is the best choice:");
    for kind in ParserKind::ALL {
        let best = evaluations.iter().filter(|e| e.best_parser() == kind).count();
        println!("  {:<11} {best}", kind.name());
    }
}
