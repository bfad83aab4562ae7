//! Linear models: multi-output regression, logistic regression, linear SVC.

use serde::{Deserialize, Serialize};

use crate::matrix::{dot, sigmoid};
use crate::optim::Sgd;

/// Multi-output linear regression trained with mini-batch SGD and L2
/// regularization. This is the trainable "head" placed on top of a frozen
/// encoder: in the paper's terms, the supervised fine-tuning stage that
/// predicts per-parser BLEU from text.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinearRegression {
    /// Weight matrix flattened row-major: `outputs × inputs`.
    weights: Vec<f64>,
    bias: Vec<f64>,
    inputs: usize,
    outputs: usize,
}

impl LinearRegression {
    /// Zero-initialized model.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(inputs: usize, outputs: usize) -> Self {
        assert!(inputs > 0 && outputs > 0, "dimensions must be positive");
        LinearRegression { weights: vec![0.0; inputs * outputs], bias: vec![0.0; outputs], inputs, outputs }
    }

    /// Predict the output vector for one input.
    ///
    /// # Panics
    ///
    /// Panics if `x.len()` is not the input dimension.
    pub fn predict(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.inputs, "input dimension mismatch");
        (0..self.outputs)
            .map(|o| dot(&self.weights[o * self.inputs..(o + 1) * self.inputs], x) + self.bias[o])
            .collect()
    }

    /// Fit with full-batch gradient descent for `epochs` epochs.
    ///
    /// # Panics
    ///
    /// Panics if the sample and target counts differ or dimensions mismatch.
    pub fn fit(&mut self, xs: &[Vec<f64>], ys: &[Vec<f64>], epochs: usize, learning_rate: f64, l2: f64) {
        assert_eq!(xs.len(), ys.len(), "sample/target count mismatch");
        if xs.is_empty() {
            return;
        }
        let n = xs.len() as f64;
        let optimizer = Sgd::new(learning_rate);
        for _ in 0..epochs {
            let mut grad_w = vec![0.0; self.weights.len()];
            let mut grad_b = vec![0.0; self.bias.len()];
            for (x, y) in xs.iter().zip(ys.iter()) {
                assert_eq!(y.len(), self.outputs, "target dimension mismatch");
                let pred = self.predict(x);
                for o in 0..self.outputs {
                    let err = pred[o] - y[o];
                    grad_b[o] += 2.0 * err / n;
                    let row = &mut grad_w[o * self.inputs..(o + 1) * self.inputs];
                    for (g, xi) in row.iter_mut().zip(x.iter()) {
                        *g += 2.0 * err * xi / n;
                    }
                }
            }
            for (g, w) in grad_w.iter_mut().zip(self.weights.iter()) {
                *g += l2 * w;
            }
            optimizer.step(&mut self.weights, &grad_w);
            optimizer.step(&mut self.bias, &grad_b);
        }
    }
}

/// Binary logistic regression.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogisticRegression {
    weights: Vec<f64>,
    bias: f64,
}

impl LogisticRegression {
    /// Zero-initialized model for `inputs` features.
    ///
    /// # Panics
    ///
    /// Panics if `inputs` is zero.
    pub fn new(inputs: usize) -> Self {
        assert!(inputs > 0, "dimensions must be positive");
        LogisticRegression { weights: vec![0.0; inputs], bias: 0.0 }
    }

    /// Probability of the positive class.
    pub fn predict_proba(&self, x: &[f64]) -> f64 {
        sigmoid(dot(&self.weights, x) + self.bias)
    }

    /// Hard classification at the 0.5 threshold.
    pub fn predict(&self, x: &[f64]) -> bool {
        self.predict_proba(x) >= 0.5
    }

    /// Fit with gradient descent on the logistic loss.
    pub fn fit(&mut self, xs: &[Vec<f64>], ys: &[bool], epochs: usize, learning_rate: f64, l2: f64) {
        assert_eq!(xs.len(), ys.len(), "sample/target count mismatch");
        if xs.is_empty() {
            return;
        }
        let n = xs.len() as f64;
        for _ in 0..epochs {
            let mut grad_w = vec![0.0; self.weights.len()];
            let mut grad_b = 0.0;
            for (x, &y) in xs.iter().zip(ys.iter()) {
                let p = self.predict_proba(x);
                let err = p - if y { 1.0 } else { 0.0 };
                grad_b += err / n;
                for (g, xi) in grad_w.iter_mut().zip(x.iter()) {
                    *g += err * xi / n;
                }
            }
            for i in 0..self.weights.len() {
                self.weights[i] -= learning_rate * (grad_w[i] + l2 * self.weights[i]);
            }
            self.bias -= learning_rate * grad_b;
        }
    }
}

/// Multi-class linear support vector classifier (one-vs-rest, hinge loss).
/// This is the paper's CLS I / CLS II metadata baseline ("SVC").
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinearSvc {
    weights: Vec<f64>,
    bias: Vec<f64>,
    inputs: usize,
    classes: usize,
}

impl LinearSvc {
    /// Zero-initialized one-vs-rest SVC.
    ///
    /// # Panics
    ///
    /// Panics if either dimension is zero.
    pub fn new(inputs: usize, classes: usize) -> Self {
        assert!(inputs > 0 && classes > 0, "dimensions must be positive");
        LinearSvc { weights: vec![0.0; inputs * classes], bias: vec![0.0; classes], inputs, classes }
    }

    /// Per-class decision scores.
    pub fn decision_function(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.inputs, "input dimension mismatch");
        (0..self.classes)
            .map(|c| dot(&self.weights[c * self.inputs..(c + 1) * self.inputs], x) + self.bias[c])
            .collect()
    }

    /// Predicted class index.
    pub fn predict(&self, x: &[f64]) -> usize {
        let scores = self.decision_function(x);
        scores
            .iter()
            .enumerate()
            .max_by(|a, b| a.1.partial_cmp(b.1).unwrap_or(std::cmp::Ordering::Equal))
            .map(|(i, _)| i)
            .unwrap_or(0)
    }

    /// Fit with sub-gradient descent on the one-vs-rest hinge loss.
    pub fn fit(&mut self, xs: &[Vec<f64>], labels: &[usize], epochs: usize, learning_rate: f64, l2: f64) {
        assert_eq!(xs.len(), labels.len(), "sample/label count mismatch");
        if xs.is_empty() {
            return;
        }
        let n = xs.len() as f64;
        for _ in 0..epochs {
            let mut grad_w = vec![0.0; self.weights.len()];
            let mut grad_b = vec![0.0; self.bias.len()];
            for (x, &label) in xs.iter().zip(labels.iter()) {
                let scores = self.decision_function(x);
                for c in 0..self.classes {
                    let target = if c == label { 1.0 } else { -1.0 };
                    let margin = target * scores[c];
                    if margin < 1.0 {
                        grad_b[c] += -target / n;
                        let row = &mut grad_w[c * self.inputs..(c + 1) * self.inputs];
                        for (g, xi) in row.iter_mut().zip(x.iter()) {
                            *g += -target * xi / n;
                        }
                    }
                }
            }
            for c in 0..self.classes {
                for i in 0..self.inputs {
                    let idx = c * self.inputs + i;
                    self.weights[idx] -= learning_rate * (grad_w[idx] + l2 * self.weights[idx]);
                }
                self.bias[c] -= learning_rate * grad_b[c];
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::rngs::StdRng;
    use rand::{Rng, SeedableRng};

    #[test]
    fn linear_regression_recovers_a_linear_map() {
        let mut rng = StdRng::seed_from_u64(1);
        let xs: Vec<Vec<f64>> =
            (0..200).map(|_| vec![rng.gen_range(-1.0..1.0), rng.gen_range(-1.0..1.0)]).collect();
        let ys: Vec<Vec<f64>> = xs.iter().map(|x| vec![2.0 * x[0] - x[1] + 0.5]).collect();
        let mut model = LinearRegression::new(2, 1);
        model.fit(&xs, &ys, 800, 0.3, 0.0);
        let pred = model.predict(&[0.5, -0.5]);
        assert!((pred[0] - 2.0).abs() < 0.1, "pred = {}", pred[0]);
    }

    #[test]
    fn multi_output_regression_learns_independent_targets() {
        let xs: Vec<Vec<f64>> = (0..50).map(|i| vec![i as f64 / 50.0]).collect();
        let ys: Vec<Vec<f64>> = xs.iter().map(|x| vec![x[0], 1.0 - x[0]]).collect();
        let mut model = LinearRegression::new(1, 2);
        model.fit(&xs, &ys, 2000, 0.5, 0.0);
        let p = model.predict(&[0.25]);
        assert!((p[0] - 0.25).abs() < 0.05);
        assert!((p[1] - 0.75).abs() < 0.05);
    }

    #[test]
    fn empty_fit_is_a_noop() {
        let mut model = LinearRegression::new(3, 1);
        let before = model.clone();
        model.fit(&[], &[], 10, 0.1, 0.0);
        assert_eq!(model, before);
    }

    #[test]
    #[should_panic(expected = "dimensions must be positive")]
    fn zero_dimension_panics() {
        LinearRegression::new(0, 1);
    }

    #[test]
    fn logistic_regression_separates_separable_data() {
        let mut rng = StdRng::seed_from_u64(2);
        let mut xs = Vec::new();
        let mut ys = Vec::new();
        for _ in 0..100 {
            let positive = rng.gen_bool(0.5);
            let center = if positive { 1.0 } else { -1.0 };
            xs.push(vec![center + rng.gen_range(-0.4..0.4), rng.gen_range(-1.0..1.0)]);
            ys.push(positive);
        }
        let mut model = LogisticRegression::new(2);
        model.fit(&xs, &ys, 500, 0.5, 1e-4);
        let correct = xs.iter().zip(&ys).filter(|(x, &y)| model.predict(x) == y).count();
        assert!(correct as f64 / xs.len() as f64 > 0.9);
        assert!(model.predict_proba(&[2.0, 0.0]) > 0.8);
        assert!(model.predict_proba(&[-2.0, 0.0]) < 0.2);
    }

    #[test]
    fn svc_learns_a_three_class_problem() {
        let mut rng = StdRng::seed_from_u64(3);
        let mut xs = Vec::new();
        let mut labels = Vec::new();
        let centers = [(0.0f64, 2.0f64), (2.0, -1.0), (-2.0, -1.0)];
        for _ in 0..240 {
            let class = rng.gen_range(0..3usize);
            let (cx, cy) = centers[class];
            xs.push(vec![cx + rng.gen_range(-0.5..0.5), cy + rng.gen_range(-0.5..0.5)]);
            labels.push(class);
        }
        let mut model = LinearSvc::new(2, 3);
        model.fit(&xs, &labels, 400, 0.2, 1e-4);
        let correct = xs.iter().zip(&labels).filter(|(x, &l)| model.predict(x) == l).count();
        assert!(correct as f64 / xs.len() as f64 > 0.9, "accuracy too low");
        assert_eq!(model.decision_function(&[0.0, 2.0]).len(), 3);
    }
}
