//! Machine-speed calibration.
//!
//! The sandbox this benchmark runs in shares its cores' caches with other
//! tenants: the same single-threaded pass of the same binary on the same
//! seed takes ±20 % from one minute to the next, and the state lasts for
//! tens of seconds, so measuring for longer inside one run does not
//! average it out. What does track it is a small fixed computation timed
//! right beside the passes: over 8-second windows its time correlates 0.96
//! with the time of a `sim_closed_loop` pass.
//!
//! So an untraced run times a reference kernel — an edit-distance table
//! over two fixed 2000-byte strings — around every set-up and in every gap
//! between the passes of the single-threaded workloads, and scales those
//! times by `NOMINAL_SECONDS ÷ median kernel time`: what the run would have
//! measured had the machine run at its nominal speed throughout. The
//! factor and the unscaled values are printed in the run summary.
//!
//! Passes that keep every core busy (`campaign_*`, `route_only`) are not
//! scaled: their threads contend with each other rather than with a
//! neighbour, and the single-threaded kernel does not see what they see.

use std::hint::black_box;
use std::time::Instant;

use crate::stats;

/// The kernel's time on a quiet reference container (2 vCPUs, Xeon
/// 2.1 GHz). Frozen: it only fixes the scale of the corrected metrics, and
/// both sides of any comparison are scaled by it alike.
pub const NOMINAL_SECONDS: f64 = 0.012;

/// Kernel samples taken in each gap between passes.
pub const SAMPLES_PER_GAP: usize = 6;

const TEXT_BYTES: usize = 2000;

/// One thread's kernel state: the two texts and two table rows.
struct Kernel {
    a: Vec<u8>,
    b: Vec<u8>,
    previous: Vec<u32>,
    current: Vec<u32>,
}

impl Kernel {
    /// A kernel over two fixed pseudo-random texts on a 16-letter alphabet
    /// (so that, as in real text, some characters match).
    fn new() -> Self {
        let text = |mut state: u32| -> Vec<u8> {
            (0..TEXT_BYTES)
                .map(|_| {
                    state = state.wrapping_mul(1_664_525).wrapping_add(1_013_904_223);
                    (state >> 28) as u8
                })
                .collect()
        };
        Kernel { a: text(1), b: text(2), previous: vec![0; TEXT_BYTES + 1], current: vec![0; TEXT_BYTES + 1] }
    }

    /// One run: the full Levenshtein table of the two texts, two rows at
    /// a time. Returns the distance.
    fn run(&mut self) -> u32 {
        for (j, cell) in self.previous.iter_mut().enumerate() {
            *cell = j as u32;
        }
        for (i, &cb) in self.b.iter().enumerate() {
            self.current[0] = i as u32 + 1;
            for (j, &ca) in self.a.iter().enumerate() {
                let substitute = self.previous[j] + u32::from(ca != cb);
                self.current[j + 1] = substitute.min(self.previous[j + 1] + 1).min(self.current[j] + 1);
            }
            std::mem::swap(&mut self.previous, &mut self.current);
        }
        self.previous[TEXT_BYTES]
    }
}

/// The reference kernel and the samples it has taken.
pub struct Calibrator {
    kernel: Kernel,
    samples: Vec<f64>,
}

impl Calibrator {
    /// A calibrator with no samples.
    pub fn new() -> Self {
        Calibrator { kernel: Kernel::new(), samples: Vec::new() }
    }

    /// Time the kernel `count` times and keep the samples.
    pub fn sample(&mut self, count: usize) {
        for _ in 0..count {
            let started = Instant::now();
            black_box(self.kernel.run());
            self.samples.push(started.elapsed().as_secs_f64());
        }
    }

    /// `NOMINAL_SECONDS ÷ median sample`: multiply a measured time by this
    /// to get what it would have been at nominal machine speed. Clears the
    /// samples. 1 when none were taken.
    pub fn take_factor(&mut self) -> f64 {
        let factor =
            if self.samples.is_empty() { 1.0 } else { NOMINAL_SECONDS / stats::median(&self.samples) };
        self.samples.clear();
        factor
    }
}

impl Default for Calibrator {
    fn default() -> Self {
        Calibrator::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn kernel_is_a_fixed_computation() {
        let mut kernel = Kernel::new();
        let first = kernel.run();
        assert_eq!(kernel.run(), first, "same inputs, same table");
        // Two unrelated 16-letter texts of equal length: far apart, but
        // closer than substituting every character.
        assert!(first > TEXT_BYTES as u32 / 2 && first < TEXT_BYTES as u32, "distance {first}");
    }

    #[test]
    fn factor_is_nominal_over_the_median_sample_and_resets() {
        let mut calibrator = Calibrator::new();
        assert_eq!(calibrator.take_factor(), 1.0, "no samples, no correction");
        calibrator.samples = vec![0.02, 0.025, 0.05];
        assert_eq!(calibrator.take_factor(), NOMINAL_SECONDS / 0.025);
        assert!(calibrator.samples.is_empty());
        calibrator.sample(2);
        assert_eq!(calibrator.samples.len(), 2);
        assert!(calibrator.take_factor() > 0.0);
    }
}
