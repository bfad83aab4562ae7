//! Linear models: multi-output regression, logistic regression, linear SVC.

use crate::matrix::{dot, sigmoid};

/// Multi-output linear regression trained by full-batch gradient descent on
/// the mean squared error with an L2 penalty on the weights. This is the
/// trainable "head" placed on top of a frozen encoder: in the paper's terms,
/// the supervised fine-tuning stage that predicts per-parser BLEU from text.
#[derive(Debug, Clone, PartialEq)]
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

    /// Fit with `epochs` steps of full-batch gradient descent from the
    /// current weights: each step moves the weights by
    /// `−learning_rate · (2/n · Σᵢ eᵢ·xᵢ + l2 · W)` and the bias by
    /// `−learning_rate · 2/n · Σᵢ eᵢ`, where `eᵢ` is sample `i`'s residual.
    ///
    /// The samples enter that recurrence only through inner products, so it
    /// runs in whichever Gram coordinates are smaller. With no more samples
    /// than inputs the weights stay `c · W₀ + A · X` (`c = (1 − learning_rate ·
    /// l2)^t` carries the starting weights, `A` is outputs × samples) and a
    /// step costs outputs · samples² against `X · Xᵀ`; otherwise the weights
    /// step against `XᵀX`, `Σ xᵢ` and `XᵀY` at outputs · inputs² a step.
    /// Either form sums in another order than the per-sample gradient did,
    /// so it agrees with that sum to rounding (a few ulps), not bit for bit.
    /// Panics if the sample and target counts differ or dimensions mismatch.
    pub fn fit(&mut self, xs: &[Vec<f64>], ys: &[Vec<f64>], epochs: usize, learning_rate: f64, l2: f64) {
        assert_eq!(xs.len(), ys.len(), "sample/target count mismatch");
        assert!(xs.iter().all(|x| x.len() == self.inputs), "input dimension mismatch");
        assert!(ys.iter().all(|y| y.len() == self.outputs), "target dimension mismatch");
        if xs.is_empty() || epochs == 0 {
            return;
        }
        let (step, decay) = (2.0 * learning_rate / xs.len() as f64, 1.0 - learning_rate * l2);
        let form = if xs.len() <= self.inputs { Self::fit_sample_gram } else { Self::fit_feature_gram };
        form(self, xs, ys, epochs, step, decay);
    }

    /// Gradient descent with each weight row kept as `c · w₀ + Σⱼ aⱼ · xⱼ`,
    /// at m² a step against the sample Gram `X · Xᵀ`.
    fn fit_sample_gram(&mut self, xs: &[Vec<f64>], ys: &[Vec<f64>], epochs: usize, step: f64, decay: f64) {
        let m = xs.len();
        let gram: Vec<f64> = (0..m * m).map(|k| dot(&xs[k / m], &xs[k % m])).collect();
        let mut errors = vec![0.0; m];
        for (o, row) in self.weights.chunks_mut(self.inputs).enumerate() {
            let start: Vec<f64> = xs.iter().map(|x| dot(row, x)).collect();
            let (mut coeffs, mut scale) = (vec![0.0; m], 1.0);
            for _ in 0..epochs {
                symmetric_matvec(&mut errors, &gram, &coeffs);
                for (j, e) in errors.iter_mut().enumerate() {
                    *e = scale * start[j] + *e + self.bias[o] - ys[j][o];
                }
                self.bias[o] -= step * errors.iter().sum::<f64>();
                coeffs.iter_mut().zip(&errors).for_each(|(a, e)| *a = decay * *a - step * e);
                scale *= decay;
            }
            row.iter_mut().for_each(|w| *w *= scale);
            xs.iter().zip(&coeffs).for_each(|(x, &a)| axpy(row, a, x));
        }
    }

    /// Gradient descent on the weights against the feature Gram `XᵀX`, `Σ xᵢ`
    /// and `XᵀY`, at d² a step.
    fn fit_feature_gram(&mut self, xs: &[Vec<f64>], ys: &[Vec<f64>], epochs: usize, step: f64, decay: f64) {
        let (d, n) = (self.inputs, xs.len() as f64);
        let (mut gram, mut sum_x, mut grad) = (vec![0.0; d * d], vec![0.0; d], vec![0.0; d]);
        for x in xs {
            gram.chunks_mut(d).zip(x).for_each(|(row, &xi)| axpy(row, xi, x));
            axpy(&mut sum_x, 1.0, x);
        }
        for (o, w) in self.weights.chunks_mut(d).enumerate() {
            let mut xty = vec![0.0; d];
            xs.iter().zip(ys).for_each(|(x, y)| axpy(&mut xty, y[o], x));
            let sum_y: f64 = ys.iter().map(|y| y[o]).sum();
            for _ in 0..epochs {
                let b = self.bias[o];
                symmetric_matvec(&mut grad, &gram, w);
                for (i, g) in grad.iter_mut().enumerate() {
                    *g = *g + b * sum_x[i] - xty[i];
                }
                self.bias[o] -= step * (dot(w, &sum_x) + n * b - sum_y);
                w.iter_mut().zip(&grad).for_each(|(w, g)| *w = decay * *w - step * g);
            }
        }
    }
}

/// `acc += a · x`, element by element.
fn axpy(acc: &mut [f64], a: f64, x: &[f64]) {
    acc.iter_mut().zip(x).for_each(|(y, x)| *y += a * x);
}

/// `out = G · v` for a symmetric `G`, summed as `Σₖ vₖ · G[k]`: vectorized.
fn symmetric_matvec(out: &mut [f64], gram: &[f64], v: &[f64]) {
    out.fill(0.0);
    v.iter().zip(gram.chunks(out.len())).for_each(|(&vk, row)| axpy(out, vk, row));
}

/// Binary logistic regression.
#[derive(Debug, Clone, PartialEq)]
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

    /// Probability of the positive class. Panics if `x.len()` is not the
    /// input dimension.
    pub fn predict_proba(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.weights.len(), "input dimension mismatch");
        sigmoid(dot(&self.weights, x) + self.bias)
    }

    /// Hard classification at the 0.5 threshold.
    pub fn predict(&self, x: &[f64]) -> bool {
        self.predict_proba(x) >= 0.5
    }

    /// Fit with gradient descent on the logistic loss. Panics if the sample
    /// and label counts differ or a sample's width is not the input dimension.
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
#[derive(Debug, Clone, PartialEq)]
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
