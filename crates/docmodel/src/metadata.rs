//! Document metadata: publisher, scientific domain, sub-category, year,
//! producing tool, and PDF format version.
//!
//! The paper's benchmark spans six publishers, eight domains and 67
//! sub-categories; metadata features (format, producer, year, publisher,
//! category) are the inputs of the CLS I / CLS II stages and of the SVC
//! baselines in Table 4.

use serde::{Deserialize, Serialize};

/// Source venue of a document.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Publisher {
    /// arXiv preprint server.
    Arxiv,
    /// bioRxiv preprint server.
    BioRxiv,
    /// BioMed Central.
    Bmc,
    /// MDPI journals.
    Mdpi,
    /// medRxiv preprint server.
    MedRxiv,
    /// Nature portfolio journals.
    Nature,
}

impl Publisher {
    /// All publishers in the benchmark.
    pub const ALL: [Publisher; 6] = [
        Publisher::Arxiv,
        Publisher::BioRxiv,
        Publisher::Bmc,
        Publisher::Mdpi,
        Publisher::MedRxiv,
        Publisher::Nature,
    ];

    /// Stable display name (also used as the SPDF name token).
    pub fn name(&self) -> &'static str {
        match self {
            Publisher::Arxiv => "ArXiv",
            Publisher::BioRxiv => "BioRxiv",
            Publisher::Bmc => "BMC",
            Publisher::Mdpi => "MDPI",
            Publisher::MedRxiv => "MedRxiv",
            Publisher::Nature => "Nature",
        }
    }

    /// Index into [`Publisher::ALL`] (used for one-hot feature encoding).
    pub fn index(&self) -> usize {
        Publisher::ALL.iter().position(|p| p == self).unwrap_or(0)
    }
}

impl std::fmt::Display for Publisher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Top-level scientific domain; each has a fixed list of sub-categories
/// totalling 67 across all domains (matching the paper's corpus description).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum Domain {
    /// Mathematics.
    Mathematics,
    /// Biology.
    Biology,
    /// Chemistry.
    Chemistry,
    /// Physics.
    Physics,
    /// Engineering.
    Engineering,
    /// Medicine.
    Medicine,
    /// Economics.
    Economics,
    /// Computer science.
    ComputerScience,
}

impl Domain {
    /// All eight domains.
    pub const ALL: [Domain; 8] = [
        Domain::Mathematics,
        Domain::Biology,
        Domain::Chemistry,
        Domain::Physics,
        Domain::Engineering,
        Domain::Medicine,
        Domain::Economics,
        Domain::ComputerScience,
    ];

    /// Stable display name (also used as the SPDF name token).
    pub fn name(&self) -> &'static str {
        match self {
            Domain::Mathematics => "Mathematics",
            Domain::Biology => "Biology",
            Domain::Chemistry => "Chemistry",
            Domain::Physics => "Physics",
            Domain::Engineering => "Engineering",
            Domain::Medicine => "Medicine",
            Domain::Economics => "Economics",
            Domain::ComputerScience => "ComputerScience",
        }
    }

    /// Index into [`Domain::ALL`] (used for one-hot feature encoding).
    pub fn index(&self) -> usize {
        Domain::ALL.iter().position(|d| d == self).unwrap_or(0)
    }

    /// Sub-categories of this domain. The union over all domains has exactly
    /// 67 entries, matching the corpus described in the paper (§6.2).
    pub fn subcategories(&self) -> &'static [&'static str] {
        match self {
            Domain::Mathematics => &[
                "algebra",
                "analysis",
                "combinatorics",
                "geometry",
                "number theory",
                "probability",
                "statistics",
                "topology",
            ],
            Domain::Biology => &[
                "biochemistry",
                "bioinformatics",
                "cell biology",
                "ecology",
                "genetics",
                "microbiology",
                "neuroscience",
                "structural biology",
                "zoology",
            ],
            Domain::Chemistry => &[
                "analytical chemistry",
                "catalysis",
                "electrochemistry",
                "inorganic chemistry",
                "organic chemistry",
                "physical chemistry",
                "polymer chemistry",
                "medicinal chemistry",
            ],
            Domain::Physics => &[
                "acoustics",
                "astrophysics",
                "condensed matter",
                "fluid dynamics",
                "high energy physics",
                "nuclear physics",
                "optics",
                "plasma physics",
                "quantum physics",
            ],
            Domain::Engineering => &[
                "aerospace engineering",
                "chemical engineering",
                "civil engineering",
                "electrical engineering",
                "materials science",
                "mechanical engineering",
                "robotics",
                "systems engineering",
            ],
            Domain::Medicine => &[
                "cardiology",
                "endocrinology",
                "epidemiology",
                "immunology",
                "oncology",
                "pharmacology",
                "public health",
                "radiology",
                "surgery",
            ],
            Domain::Economics => &[
                "behavioral economics",
                "development economics",
                "econometrics",
                "finance",
                "game theory",
                "labor economics",
                "macroeconomics",
                "microeconomics",
            ],
            Domain::ComputerScience => &[
                "artificial intelligence",
                "computer architecture",
                "databases",
                "distributed systems",
                "machine learning",
                "networking",
                "programming languages",
                "security",
            ],
        }
    }

    /// How equation-dense documents from this domain typically are, in `[0, 1]`.
    ///
    /// Drives the synthetic generator and — as the paper stresses — is only a
    /// *weak* predictor of per-document parsing difficulty.
    pub fn equation_density(&self) -> f64 {
        match self {
            Domain::Mathematics => 0.85,
            Domain::Physics => 0.70,
            Domain::Engineering => 0.45,
            Domain::ComputerScience => 0.40,
            Domain::Economics => 0.35,
            Domain::Chemistry => 0.30,
            Domain::Biology => 0.15,
            Domain::Medicine => 0.10,
        }
    }

    /// How likely documents from this domain are to contain SMILES strings.
    pub fn smiles_density(&self) -> f64 {
        match self {
            Domain::Chemistry => 0.6,
            Domain::Biology => 0.2,
            Domain::Medicine => 0.15,
            _ => 0.02,
        }
    }
}

impl std::fmt::Display for Domain {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Coarse document *condition* category, orthogonal to [`Domain`]: what kind
/// of artifact the PDF is, which drives both how a corpus generator skews a
/// category's documents and which parsers a cascade should prefer for them.
/// Used by `scicorpus`' category-skewed generator presets.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum DocCategory {
    /// Scanner output: raster pages, missing or OCR-attached text layer.
    Scanned,
    /// Born-digital but dense with tables (layout-sensitive extraction).
    TablesHeavy,
    /// Mixed-script documents whose embedded text layers come through
    /// mangled (modeled via scrambled/LaTeX-mangled layers).
    Multilingual,
    /// Clean born-digital documents with faithful text layers.
    CleanBornDigital,
}

impl DocCategory {
    /// Every category, in stable order.
    pub const ALL: [DocCategory; 4] = [
        DocCategory::Scanned,
        DocCategory::TablesHeavy,
        DocCategory::Multilingual,
        DocCategory::CleanBornDigital,
    ];

    /// Stable human-readable name.
    pub fn name(&self) -> &'static str {
        match self {
            DocCategory::Scanned => "scanned",
            DocCategory::TablesHeavy => "tables-heavy",
            DocCategory::Multilingual => "multilingual",
            DocCategory::CleanBornDigital => "clean-born-digital",
        }
    }

    /// Stable index into [`DocCategory::ALL`].
    pub fn index(&self) -> usize {
        match self {
            DocCategory::Scanned => 0,
            DocCategory::TablesHeavy => 1,
            DocCategory::Multilingual => 2,
            DocCategory::CleanBornDigital => 3,
        }
    }
}

impl std::fmt::Display for DocCategory {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// Software that produced the PDF; a strong CLS I / CLS II feature because it
/// correlates with text-layer quality.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum ProducerTool {
    /// pdfTeX / pdfLaTeX (born-digital, clean text layer).
    PdfLatex,
    /// XeLaTeX / LuaLaTeX (born-digital, Unicode-heavy).
    XeLatex,
    /// Microsoft Word export.
    Word,
    /// Adobe InDesign (publisher typesetting).
    InDesign,
    /// Flatbed or sheet-fed scanner (no native text layer).
    Scanner,
    /// A scanner pipeline that attached an OCR text layer after the fact.
    OcrAttached,
    /// Producer string missing or unrecognized.
    Unknown,
}

impl ProducerTool {
    /// All producer tools.
    pub const ALL: [ProducerTool; 7] = [
        ProducerTool::PdfLatex,
        ProducerTool::XeLatex,
        ProducerTool::Word,
        ProducerTool::InDesign,
        ProducerTool::Scanner,
        ProducerTool::OcrAttached,
        ProducerTool::Unknown,
    ];

    /// Stable display name.
    pub fn name(&self) -> &'static str {
        match self {
            ProducerTool::PdfLatex => "pdfTeX",
            ProducerTool::XeLatex => "XeTeX",
            ProducerTool::Word => "Word",
            ProducerTool::InDesign => "InDesign",
            ProducerTool::Scanner => "Scanner",
            ProducerTool::OcrAttached => "OCRAttached",
            ProducerTool::Unknown => "Unknown",
        }
    }

    /// Index into [`ProducerTool::ALL`].
    pub fn index(&self) -> usize {
        ProducerTool::ALL.iter().position(|p| p == self).unwrap_or(6)
    }
}

impl std::fmt::Display for ProducerTool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.name())
    }
}

/// PDF specification version recorded in the file header.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord, Serialize, Deserialize)]
pub enum PdfFormat {
    /// PDF 1.4 (older documents, frequently scanned).
    V1_4,
    /// PDF 1.5.
    V1_5,
    /// PDF 1.6.
    V1_6,
    /// PDF 1.7 (most common).
    V1_7,
    /// PDF 2.0.
    V2_0,
}

impl PdfFormat {
    /// All format versions.
    pub const ALL: [PdfFormat; 5] =
        [PdfFormat::V1_4, PdfFormat::V1_5, PdfFormat::V1_6, PdfFormat::V1_7, PdfFormat::V2_0];

    /// Version string as it appears in the file header, e.g. `"1.7"`.
    pub fn version_string(&self) -> &'static str {
        match self {
            PdfFormat::V1_4 => "1.4",
            PdfFormat::V1_5 => "1.5",
            PdfFormat::V1_6 => "1.6",
            PdfFormat::V1_7 => "1.7",
            PdfFormat::V2_0 => "2.0",
        }
    }

    /// Index into [`PdfFormat::ALL`].
    pub fn index(&self) -> usize {
        PdfFormat::ALL.iter().position(|f| f == self).unwrap_or(3)
    }
}

impl std::fmt::Display for PdfFormat {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(self.version_string())
    }
}

/// Metadata attached to every document in the corpus.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DocMetadata {
    /// Document title.
    pub title: String,
    /// Source venue.
    pub publisher: Publisher,
    /// Scientific domain.
    pub domain: Domain,
    /// Sub-category within the domain (one of the domain's
    /// [`Domain::subcategories`]).
    pub subcategory: String,
    /// Publication year.
    pub year: u16,
    /// Software that produced the PDF.
    pub producer: ProducerTool,
    /// PDF specification version.
    pub format: PdfFormat,
}

impl Default for DocMetadata {
    fn default() -> Self {
        DocMetadata {
            title: "Untitled manuscript".to_string(),
            publisher: Publisher::Arxiv,
            domain: Domain::ComputerScience,
            subcategory: "machine learning".to_string(),
            year: 2024,
            producer: ProducerTool::PdfLatex,
            format: PdfFormat::V1_7,
        }
    }
}

impl DocMetadata {
    /// Dense numeric feature vector used by the metadata-driven classifiers
    /// (CLS I / CLS II / the SVC rows of Table 4).
    ///
    /// Layout: one-hot publisher (6), one-hot domain (8), one-hot producer
    /// (7), one-hot format (5), normalized year (1) = 27 features.
    pub fn feature_vector(&self) -> Vec<f64> {
        let mut v = vec![0.0; 27];
        v[self.publisher.index()] = 1.0;
        v[6 + self.domain.index()] = 1.0;
        v[14 + self.producer.index()] = 1.0;
        v[21 + self.format.index()] = 1.0;
        v[26] = ((self.year as f64) - 1990.0) / 40.0;
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn there_are_exactly_67_subcategories() {
        // The paper reports 67 sub-categories across all domains.
        assert_eq!(Domain::ALL.iter().map(|d| d.subcategories().len()).sum::<usize>(), 67);
    }

    #[test]
    fn subcategories_are_unique_within_and_across_domains() {
        let mut all: Vec<&str> = Domain::ALL.iter().flat_map(|d| d.subcategories().iter().copied()).collect();
        let before = all.len();
        all.sort_unstable();
        all.dedup();
        assert_eq!(before, all.len(), "duplicate subcategory names");
    }

    #[test]
    fn indices_are_dense_and_distinct() {
        let idx: Vec<usize> = Publisher::ALL.iter().map(|p| p.index()).collect();
        assert_eq!(idx, (0..6).collect::<Vec<_>>());
        let idx: Vec<usize> = Domain::ALL.iter().map(|d| d.index()).collect();
        assert_eq!(idx, (0..8).collect::<Vec<_>>());
        let idx: Vec<usize> = ProducerTool::ALL.iter().map(|p| p.index()).collect();
        assert_eq!(idx, (0..7).collect::<Vec<_>>());
    }

    #[test]
    fn feature_vector_shape_and_onehot() {
        let m = DocMetadata::default();
        let v = m.feature_vector();
        assert_eq!(v.len(), 27);
        let ones = v.iter().filter(|&&x| (x - 1.0).abs() < 1e-12).count();
        assert_eq!(ones, 4, "four one-hot groups must be active");
    }

    #[test]
    fn equation_density_ordering_matches_intuition() {
        assert!(Domain::Mathematics.equation_density() > Domain::Medicine.equation_density());
        assert!(Domain::Chemistry.smiles_density() > Domain::Physics.smiles_density());
        for d in Domain::ALL {
            assert!((0.0..=1.0).contains(&d.equation_density()));
            assert!((0.0..=1.0).contains(&d.smiles_density()));
        }
    }

    #[test]
    fn display_impls_are_nonempty() {
        assert_eq!(Publisher::Nature.to_string(), "Nature");
        assert_eq!(Domain::Physics.to_string(), "Physics");
        assert_eq!(PdfFormat::V1_7.to_string(), "1.7");
        assert_eq!(ProducerTool::PdfLatex.to_string(), "pdfTeX");
    }
}
