//! Non-finite generator knobs and category weights panic where they are
//! given, instead of silently skewing the corpus: a NaN fraction draws
//! `false` forever, and an infinite weight, or weights whose sum overflows,
//! make every cumulative weight NaN and send every document to the last
//! category. Finite values outside `[0, 1]` keep clamping.

use docmodel::element::ElementKind;
use docmodel::metadata::DocCategory;
use scicorpus::categories::{generate_categorized, CategoryMix};
use scicorpus::generator::{DocumentGenerator, GeneratorConfig};

#[test]
#[should_panic(expected = "finite non-negative weights")]
fn an_infinite_weight_panics() {
    let mix = CategoryMix {
        weights: vec![(DocCategory::Scanned, f64::INFINITY), (DocCategory::CleanBornDigital, 1.0)],
    };
    generate_categorized(&GeneratorConfig::default(), &mix, 1, 1);
}

#[test]
#[should_panic(expected = "finite non-negative weights")]
fn weights_whose_sum_overflows_panic() {
    let mix =
        CategoryMix { weights: vec![(DocCategory::Scanned, 1e308), (DocCategory::CleanBornDigital, 1e308)] };
    generate_categorized(&GeneratorConfig::default(), &mix, 1, 1);
}

#[test]
#[should_panic(expected = "GeneratorConfig::table_probability must be finite, got NaN")]
fn a_nan_knob_panics() {
    DocumentGenerator::new(GeneratorConfig { table_probability: f64::NAN, ..Default::default() });
}

#[test]
#[should_panic(expected = "GeneratorConfig::scanned_fraction must be finite, got inf")]
fn an_infinite_knob_panics() {
    DocumentGenerator::new(GeneratorConfig { scanned_fraction: f64::INFINITY, ..Default::default() });
}

#[test]
fn finite_out_of_range_knobs_clamp() {
    let config = GeneratorConfig { scanned_fraction: 7.0, table_probability: -2.0, ..Default::default() };
    let docs = DocumentGenerator::new(config).generate_many(5);
    assert!(docs.iter().all(|d| d.image_layer.scanned && d.count_kind(ElementKind::Table) == 0));
}
