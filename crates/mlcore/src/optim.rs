//! The first-order optimizer the trainable heads step with.

use serde::{Deserialize, Serialize};

/// Plain stochastic gradient descent over a flat parameter slice.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Sgd {
    /// Learning rate.
    pub learning_rate: f64,
}

impl Sgd {
    /// SGD with the given learning rate.
    pub fn new(learning_rate: f64) -> Self {
        Sgd { learning_rate }
    }

    /// Apply one update step: `params -= learning_rate · grads`.
    ///
    /// # Panics
    ///
    /// Panics if `params.len() != grads.len()`.
    pub fn step(&self, params: &mut [f64], grads: &[f64]) {
        assert_eq!(params.len(), grads.len(), "parameter/gradient length mismatch");
        for (param, grad) in params.iter_mut().zip(grads) {
            *param -= self.learning_rate * grad;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sgd_converges_on_quadratic() {
        // Minimize f(x) = (x - 3)^2.
        let opt = Sgd::new(0.1);
        let mut params = vec![0.0f64];
        for _ in 0..200 {
            let grads = vec![2.0 * (params[0] - 3.0)];
            opt.step(&mut params, &grads);
        }
        assert!((params[0] - 3.0).abs() < 1e-3, "x = {}", params[0]);
    }

    #[test]
    #[should_panic(expected = "length mismatch")]
    fn mismatched_lengths_panic() {
        Sgd::new(0.1).step(&mut [0.0, 1.0], &[1.0]);
    }
}
