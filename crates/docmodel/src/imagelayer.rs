//! The raster (image) layer of a document.
//!
//! Text-recognition parsers (Tesseract, Nougat, Marker) operate on rendered
//! page images, so their accuracy depends on raster quality: resolution,
//! skew, contrast, blur, compression artifacts and sensor noise. The paper
//! simulates scan degradation with "random rotations, contrast adjustments,
//! Gaussian blurring, and compression" (§7.2); [`PageImage::degrade_scan`]
//! reproduces that augmentation pipeline.

use rand::Rng;

/// Raster properties of a single rendered page.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PageImage {
    /// Rendering resolution in dots per inch.
    pub dpi: u16,
    /// Page skew in degrees (scanners introduce small rotations).
    pub skew_degrees: f64,
    /// Contrast in `[0, 1]` where 1 is nominal print contrast.
    pub contrast: f64,
    /// Gaussian blur sigma in pixels.
    pub blur_sigma: f64,
    /// JPEG quality factor in `[1, 100]`; 100 means lossless-like.
    pub jpeg_quality: u8,
    /// Additive sensor/film-grain noise level in `[0, 1]`.
    pub noise: f64,
}

impl Default for PageImage {
    fn default() -> Self {
        PageImage::born_digital()
    }
}

impl PageImage {
    /// Pristine render of a born-digital page.
    pub fn born_digital() -> Self {
        PageImage {
            dpi: 300,
            skew_degrees: 0.0,
            contrast: 1.0,
            blur_sigma: 0.0,
            jpeg_quality: 95,
            noise: 0.0,
        }
    }

    /// A typical flatbed scan with mild degradation drawn from `rng`.
    pub fn scanned<R: Rng + ?Sized>(rng: &mut R) -> Self {
        PageImage {
            dpi: *[150u16, 200, 300].get(rng.gen_range(0..3)).unwrap_or(&200),
            skew_degrees: rng.gen_range(-2.0..2.0),
            contrast: rng.gen_range(0.6..0.95),
            blur_sigma: rng.gen_range(0.0..1.2),
            jpeg_quality: rng.gen_range(55..90),
            noise: rng.gen_range(0.0..0.25),
        }
    }

    /// Apply the paper's scan-degradation augmentation (random rotation,
    /// contrast adjustment, Gaussian blur, stronger compression) on top of the
    /// current state.
    pub fn degrade_scan<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        self.skew_degrees += rng.gen_range(-4.0..4.0);
        self.contrast = (self.contrast * rng.gen_range(0.5..0.95)).clamp(0.05, 1.0);
        self.blur_sigma += rng.gen_range(0.3..1.8);
        self.jpeg_quality = self.jpeg_quality.saturating_sub(rng.gen_range(10..40)).max(10);
        self.noise = (self.noise + rng.gen_range(0.05..0.3)).clamp(0.0, 1.0);
    }

    /// Legibility score in `[0, 1]`: how much signal an OCR/ViT model can
    /// recover from this render. 1.0 for a pristine born-digital render.
    pub fn legibility(&self) -> f64 {
        let dpi_factor = (self.dpi as f64 / 300.0).min(1.0);
        let skew_factor = 1.0 - (self.skew_degrees.abs() / 20.0).min(0.5);
        let contrast_factor = self.contrast.clamp(0.0, 1.0);
        let blur_factor = 1.0 / (1.0 + 0.6 * self.blur_sigma.max(0.0));
        let jpeg_factor = 0.5 + 0.5 * (self.jpeg_quality as f64 / 100.0);
        let noise_factor = 1.0 - 0.7 * self.noise.clamp(0.0, 1.0);
        (dpi_factor * skew_factor * contrast_factor * blur_factor * jpeg_factor * noise_factor)
            .clamp(0.0, 1.0)
    }
}

/// Raster layer of a whole document.
#[derive(Debug, Clone, PartialEq)]
pub struct ImageLayer {
    /// Per-page raster properties.
    pub pages: Vec<PageImage>,
    /// Whether the document originates from a scanner (as opposed to a
    /// born-digital render).
    pub scanned: bool,
}

impl ImageLayer {
    /// Pristine born-digital renders for `page_count` pages.
    pub fn born_digital(page_count: usize) -> Self {
        ImageLayer { pages: vec![PageImage::born_digital(); page_count], scanned: false }
    }

    /// Scanned renders with per-page random degradation.
    pub fn scanned<R: Rng + ?Sized>(page_count: usize, rng: &mut R) -> Self {
        ImageLayer { pages: (0..page_count).map(|_| PageImage::scanned(rng)).collect(), scanned: true }
    }

    /// Number of pages.
    pub fn page_count(&self) -> usize {
        self.pages.len()
    }

    /// Mean legibility across pages; 0.0 for an empty layer.
    pub fn mean_legibility(&self) -> f64 {
        if self.pages.is_empty() {
            0.0
        } else {
            self.pages.iter().map(|p| p.legibility()).sum::<f64>() / self.pages.len() as f64
        }
    }

    /// Apply scan degradation to every page.
    pub fn degrade_all<R: Rng + ?Sized>(&mut self, rng: &mut R) {
        for page in &mut self.pages {
            page.degrade_scan(rng);
        }
        self.scanned = true;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn born_digital_is_fully_legible() {
        let img = PageImage::born_digital();
        assert!(img.legibility() > 0.95, "legibility = {}", img.legibility());
        let layer = ImageLayer::born_digital(4);
        assert_eq!(layer.page_count(), 4);
        assert!(!layer.scanned);
        assert!(layer.mean_legibility() > 0.95);
    }

    #[test]
    fn scanned_pages_are_less_legible_than_born_digital() {
        let mut rng = StdRng::seed_from_u64(3);
        let layer = ImageLayer::scanned(8, &mut rng);
        assert!(layer.scanned);
        assert!(layer.mean_legibility() < PageImage::born_digital().legibility());
        for p in &layer.pages {
            assert!((0.0..=1.0).contains(&p.legibility()));
        }
    }

    #[test]
    fn degradation_monotonically_reduces_legibility() {
        let mut rng = StdRng::seed_from_u64(9);
        let mut img = PageImage::born_digital();
        let before = img.legibility();
        img.degrade_scan(&mut rng);
        let after_once = img.legibility();
        img.degrade_scan(&mut rng);
        let after_twice = img.legibility();
        assert!(after_once < before);
        assert!(after_twice <= after_once);
    }

    #[test]
    fn degrade_all_marks_layer_scanned() {
        let mut rng = StdRng::seed_from_u64(5);
        let mut layer = ImageLayer::born_digital(2);
        let before = layer.mean_legibility();
        layer.degrade_all(&mut rng);
        assert!(layer.scanned);
        assert!(layer.mean_legibility() < before);
    }

    #[test]
    fn empty_layer_legibility_is_zero() {
        assert_eq!(ImageLayer::born_digital(0).mean_legibility(), 0.0);
    }

    #[test]
    fn legibility_always_bounded() {
        let extreme = PageImage {
            dpi: 72,
            skew_degrees: 45.0,
            contrast: 0.01,
            blur_sigma: 10.0,
            jpeg_quality: 1,
            noise: 1.0,
        };
        assert!((0.0..=1.0).contains(&extreme.legibility()));
        assert!(extreme.legibility() < 0.1);
    }
}
