//! §5.1 throughput claims: single-node throughput of every parser and both
//! AdaParse variants, plus the headline ratios (PyMuPDF ≈ 135× Nougat,
//! ≈ 13× pypdf; AdaParse (LLM) ≈ 17× Nougat).
//!
//! Usage: `cargo run -p bench --bin throughput_ratios --release`

use adaparse::{AdaParseConfig, AdaParseEngine, Variant};
use parsersim::cost::CostModel;
use parsersim::ParserKind;

fn main() {
    let pages = 10.0;
    println!("Single-node throughput (PDFs/s, {}-page documents, Polaris-like node)", pages as usize);
    let mut rates = std::collections::BTreeMap::new();
    for kind in ParserKind::ALL {
        let rate = CostModel::for_parser(kind).node_throughput(pages);
        rates.insert(kind.name().to_string(), rate);
        println!("  {:<14} {:>9.2}", kind.name(), rate);
    }
    for variant in [Variant::FastText, Variant::Llm] {
        let engine = AdaParseEngine::new(AdaParseConfig { variant, alpha: 0.05, ..Default::default() });
        let rate = engine.node_throughput(pages);
        rates.insert(variant.name().to_string(), rate);
        println!("  {:<14} {:>9.2}", variant.name(), rate);
    }
    let ratio = |a: &str, b: &str| rates.get(a).unwrap_or(&0.0) / rates.get(b).unwrap_or(&1.0);
    println!();
    println!("Headline ratios (paper values in parentheses):");
    println!("  PyMuPDF / Nougat        = {:>7.1}x   (135x)", ratio("PyMuPDF", "Nougat"));
    println!("  PyMuPDF / pypdf         = {:>7.1}x   (13x)", ratio("PyMuPDF", "pypdf"));
    println!("  AdaParse (LLM) / Nougat = {:>7.1}x   (17x)", ratio("AdaParse (LLM)", "Nougat"));
    println!("  AdaParse (FT) / Nougat  = {:>7.1}x", ratio("AdaParse (FT)", "Nougat"));
}
