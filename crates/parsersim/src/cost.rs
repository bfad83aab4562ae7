//! Resource-cost models for each parser family.
//!
//! The absolute numbers are calibrated so the *relative* throughputs match
//! the paper: on one Polaris-like node (32 CPU cores, 4 A100 GPUs) Nougat
//! parses ≈1–2 PDF/s, PyMuPDF is ≈135× faster, pypdf ≈13× slower than
//! PyMuPDF, and Marker is the slowest at ≈0.1 PDF/s. Vision-Transformer
//! parsers additionally pay a large one-time model-load cost (≈15 s), which
//! is why the warm-start optimization in §5.2 matters.

use crate::traits::ParserKind;

/// Resources consumed by a parse (or estimated for one).
#[derive(Debug, Clone, Copy, PartialEq, Default)]
pub struct ResourceCost {
    /// CPU-core seconds.
    pub cpu_seconds: f64,
    /// GPU seconds.
    pub gpu_seconds: f64,
    /// Peak host memory in MiB.
    pub cpu_memory_mb: f64,
    /// Peak device memory in MiB.
    pub gpu_memory_mb: f64,
}

impl ResourceCost {
    /// Element-wise sum.
    pub fn add(&self, other: &ResourceCost) -> ResourceCost {
        ResourceCost {
            cpu_seconds: self.cpu_seconds + other.cpu_seconds,
            gpu_seconds: self.gpu_seconds + other.gpu_seconds,
            cpu_memory_mb: self.cpu_memory_mb.max(other.cpu_memory_mb),
            gpu_memory_mb: self.gpu_memory_mb.max(other.gpu_memory_mb),
        }
    }

    /// Scale all time components by a factor (memory is unchanged).
    pub fn scaled(&self, factor: f64) -> ResourceCost {
        ResourceCost {
            cpu_seconds: self.cpu_seconds * factor,
            gpu_seconds: self.gpu_seconds * factor,
            ..*self
        }
    }
}

impl std::ops::Add for ResourceCost {
    type Output = ResourceCost;

    fn add(self, rhs: ResourceCost) -> ResourceCost {
        ResourceCost::add(&self, &rhs)
    }
}

/// CPU cores of the Polaris node the throughput figures assume (AMD Milan).
const NODE_CPU_CORES: f64 = 32.0;

/// GPUs of the Polaris node the throughput figures assume (4× A100).
const NODE_GPUS: f64 = 4.0;

/// Steady-state documents per second of one Polaris node when every document
/// costs `cpu_seconds` and `gpu_seconds`, assuming warm workers and perfect
/// parallelism over the node's 32 cores and 4 GPUs; 0 when neither cost is
/// positive.
pub fn node_rate(cpu_seconds: f64, gpu_seconds: f64) -> f64 {
    let cpu_rate = if cpu_seconds > 0.0 { NODE_CPU_CORES / cpu_seconds } else { f64::INFINITY };
    let gpu_rate = if gpu_seconds > 0.0 { NODE_GPUS / gpu_seconds } else { f64::INFINITY };
    let rate = cpu_rate.min(gpu_rate);
    if rate.is_finite() {
        rate
    } else {
        0.0
    }
}

/// Mean content difficulty ([`content_difficulty`]) every planned cost is
/// priced at: the scheduler's task estimates, the seconds ledgers' planned
/// costs, the frontier's page dollars and [`CostModel::node_throughput`].
pub const PLANNING_DIFFICULTY: f64 = 0.3;

/// Per-parser cost model.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct CostModel {
    /// Which parser this model describes.
    pub parser: ParserKind,
    /// CPU seconds per page.
    pub cpu_seconds_per_page: f64,
    /// GPU seconds per page.
    pub gpu_seconds_per_page: f64,
    /// One-time model-load seconds (paid per cold worker start).
    pub model_load_seconds: f64,
    /// Host memory per worker in MiB.
    pub cpu_memory_mb: f64,
    /// Device memory per worker in MiB.
    pub gpu_memory_mb: f64,
    /// Extra per-page multiplier applied for each unit of content difficulty
    /// (equations/tables raise recognition cost).
    pub difficulty_multiplier: f64,
}

impl CostModel {
    /// The calibrated cost model for a parser.
    pub fn for_parser(parser: ParserKind) -> CostModel {
        match parser {
            ParserKind::PyMuPdf => CostModel {
                parser,
                cpu_seconds_per_page: 0.02,
                gpu_seconds_per_page: 0.0,
                model_load_seconds: 0.0,
                cpu_memory_mb: 180.0,
                gpu_memory_mb: 0.0,
                difficulty_multiplier: 0.1,
            },
            ParserKind::Pypdf => CostModel {
                parser,
                cpu_seconds_per_page: 0.25,
                gpu_seconds_per_page: 0.0,
                model_load_seconds: 0.0,
                cpu_memory_mb: 250.0,
                gpu_memory_mb: 0.0,
                difficulty_multiplier: 0.15,
            },
            ParserKind::Tesseract => CostModel {
                parser,
                cpu_seconds_per_page: 1.9,
                gpu_seconds_per_page: 0.0,
                model_load_seconds: 1.0,
                cpu_memory_mb: 600.0,
                gpu_memory_mb: 0.0,
                difficulty_multiplier: 0.3,
            },
            ParserKind::Grobid => CostModel {
                parser,
                cpu_seconds_per_page: 0.9,
                gpu_seconds_per_page: 0.0,
                model_load_seconds: 6.0,
                cpu_memory_mb: 2_000.0,
                gpu_memory_mb: 0.0,
                difficulty_multiplier: 0.2,
            },
            ParserKind::Nougat => CostModel {
                parser,
                cpu_seconds_per_page: 0.05,
                gpu_seconds_per_page: 0.45,
                model_load_seconds: 15.0,
                cpu_memory_mb: 3_000.0,
                gpu_memory_mb: 14_000.0,
                difficulty_multiplier: 0.35,
            },
            ParserKind::Marker => CostModel {
                parser,
                cpu_seconds_per_page: 0.4,
                gpu_seconds_per_page: 3.6,
                model_load_seconds: 22.0,
                cpu_memory_mb: 4_000.0,
                gpu_memory_mb: 18_000.0,
                difficulty_multiplier: 0.5,
            },
        }
    }

    /// Cost of parsing `pages` pages of the given mean difficulty (in
    /// `[0, 1]`), excluding the model-load cost.
    pub fn document_cost(&self, pages: usize, mean_difficulty: f64) -> ResourceCost {
        let factor = 1.0 + self.difficulty_multiplier * mean_difficulty.clamp(0.0, 1.0);
        ResourceCost {
            cpu_seconds: self.cpu_seconds_per_page * pages as f64 * factor,
            gpu_seconds: self.gpu_seconds_per_page * pages as f64 * factor,
            cpu_memory_mb: self.cpu_memory_mb,
            gpu_memory_mb: self.gpu_memory_mb,
        }
    }

    /// Steady-state single-node throughput in documents per second
    /// ([`node_rate`]) for documents of `pages_per_doc` pages.
    pub fn node_throughput(&self, pages_per_doc: f64) -> f64 {
        let per_doc = self.document_cost(pages_per_doc.ceil() as usize, PLANNING_DIFFICULTY);
        node_rate(per_doc.cpu_seconds, per_doc.gpu_seconds)
    }
}

/// Content difficulty of a page's text in `[0, 1]`: the share of characters
/// that are math/markup symbols rather than prose. Equation- and table-heavy
/// pages cost recognition parsers more and are where extraction output
/// degrades.
pub fn content_difficulty(text: &str) -> f64 {
    // Counted without a branch on the class: every character adds its
    // non-whitespace bit to the total and its symbol bit to the symbols.
    let (mut symbols, mut total) = (0usize, 0usize);
    for c in text.chars() {
        let space = c.is_whitespace();
        let plain = c.is_alphanumeric() || c == '.' || c == ',';
        total += usize::from(!space);
        symbols += usize::from(!space && !plain);
    }
    if total == 0 {
        0.0
    } else {
        ((symbols as f64 / total as f64) * 3.0).clamp(0.0, 1.0)
    }
}

/// Single-node throughput of every parser, `(kind, docs/s)`, for documents of
/// the given average length. This regenerates the Figure 3 legend and the
/// §5.1 throughput ratios.
pub fn node_throughput_table(pages_per_doc: f64) -> Vec<(ParserKind, f64)> {
    ParserKind::ALL
        .iter()
        .map(|&kind| (kind, CostModel::for_parser(kind).node_throughput(pages_per_doc)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn resource_cost_arithmetic() {
        let a =
            ResourceCost { cpu_seconds: 1.0, gpu_seconds: 2.0, cpu_memory_mb: 100.0, gpu_memory_mb: 10.0 };
        let b = ResourceCost { cpu_seconds: 0.5, gpu_seconds: 1.0, cpu_memory_mb: 300.0, gpu_memory_mb: 5.0 };
        let c = a + b;
        assert!((c.cpu_seconds - 1.5).abs() < 1e-12);
        assert!((c.gpu_seconds - 3.0).abs() < 1e-12);
        assert_eq!(c.cpu_memory_mb, 300.0);
        assert_eq!(c.gpu_memory_mb, 10.0);
        assert!((a.scaled(2.0).cpu_seconds - 2.0).abs() < 1e-12);
    }

    #[test]
    fn relative_throughputs_match_the_paper() {
        let pages = 10.0;
        let t = |k: ParserKind| CostModel::for_parser(k).node_throughput(pages);

        let pymupdf = t(ParserKind::PyMuPdf);
        let pypdf = t(ParserKind::Pypdf);
        let nougat = t(ParserKind::Nougat);
        let marker = t(ParserKind::Marker);
        let tesseract = t(ParserKind::Tesseract);

        // Nougat parses roughly 1–2 PDF/s on a 4-GPU node.
        assert!((0.5..3.0).contains(&nougat), "nougat = {nougat}");
        // PyMuPDF ≈ 135× Nougat (paper §5.1); allow a broad band.
        let ratio = pymupdf / nougat;
        assert!((80.0..250.0).contains(&ratio), "pymupdf/nougat = {ratio}");
        // PyMuPDF ≈ 13× pypdf.
        let ratio = pymupdf / pypdf;
        assert!((8.0..20.0).contains(&ratio), "pymupdf/pypdf = {ratio}");
        // Marker is the slowest of all parsers.
        for k in ParserKind::ALL {
            if k != ParserKind::Marker {
                assert!(t(k) > marker, "{k} should outpace Marker");
            }
        }
        // OCR is orders of magnitude slower than extraction.
        assert!(pymupdf / tesseract > 50.0);
    }

    #[test]
    fn difficulty_raises_cost() {
        let model = CostModel::for_parser(ParserKind::Nougat);
        let easy = model.document_cost(10, 0.0);
        let hard = model.document_cost(10, 1.0);
        assert!(hard.gpu_seconds > easy.gpu_seconds);
    }

    #[test]
    fn throughput_table_covers_all_parsers() {
        // The Figure 3 legend and §5.1 ratios at 10 pages, bit for bit: any
        // change to the cost models or the node's 32 cores and 4 GPUs shows.
        let bits: Vec<(ParserKind, u64)> =
            node_throughput_table(10.0).into_iter().map(|(kind, rate)| (kind, rate.to_bits())).collect();
        assert_eq!(
            bits,
            vec![
                (ParserKind::Marker, 0x3fb8_bbfb_0d9a_96e1),
                (ParserKind::Nougat, 0x3fe9_bdd8_19bd_d81a),
                (ParserKind::PyMuPdf, 0x4063_6adf_b077_4d0c),
                (ParserKind::Pypdf, 0x4028_7f63_371e_9f3c),
                (ParserKind::Grobid, 0x400a_d59a_0783_7d0c),
                (ParserKind::Tesseract, 0x3ff8_b8ec_5881_8b8e),
            ]
        );
    }

    #[test]
    fn zero_page_document_costs_nothing_per_page() {
        let model = CostModel::for_parser(ParserKind::Tesseract);
        let c = model.document_cost(0, 0.5);
        assert_eq!(c.cpu_seconds, 0.0);
        assert_eq!(c.gpu_seconds, 0.0);
    }
}
