//! `LinearRegression::fit`'s Gram-coordinate gradient descent against the
//! per-sample trainer it replaced.
//!
//! The oracle below is that trainer verbatim: every epoch predicts each
//! sample, accumulates `2 · err · xᵢ / n` into a gradient the size of the
//! weights, adds the L2 term and takes one SGD step. Both sides run the same
//! recurrence and differ only in summation order, so their predictions
//! agree to rounding, on shapes with fewer samples than inputs (the sample
//! Gram) and with more (the feature Gram), from zero and from warm weights.
//! Every head rejects a sample of the wrong width.

use mlcore::linear::{LinearRegression, LogisticRegression};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// The optimizer the oracle stepped with.
struct Sgd {
    learning_rate: f64,
}

impl Sgd {
    fn new(learning_rate: f64) -> Self {
        Sgd { learning_rate }
    }

    fn step(&self, params: &mut [f64], grads: &[f64]) {
        assert_eq!(params.len(), grads.len(), "parameter/gradient length mismatch");
        for (param, grad) in params.iter_mut().zip(grads) {
            *param -= self.learning_rate * grad;
        }
    }
}

/// The regression head's fields, with the per-sample trainer.
struct Oracle {
    weights: Vec<f64>,
    bias: Vec<f64>,
    inputs: usize,
    outputs: usize,
}

impl Oracle {
    fn new(inputs: usize, outputs: usize) -> Self {
        Oracle { weights: vec![0.0; inputs * outputs], bias: vec![0.0; outputs], inputs, outputs }
    }

    fn predict(&self, x: &[f64]) -> Vec<f64> {
        assert_eq!(x.len(), self.inputs, "input dimension mismatch");
        (0..self.outputs)
            .map(|o| dot(&self.weights[o * self.inputs..(o + 1) * self.inputs], x) + self.bias[o])
            .collect()
    }

    fn oracle_fit(&mut self, xs: &[Vec<f64>], ys: &[Vec<f64>], epochs: usize, learning_rate: f64, l2: f64) {
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

fn dot(a: &[f64], b: &[f64]) -> f64 {
    a.iter().zip(b.iter()).map(|(x, y)| x * y).sum()
}

/// One generated training problem.
struct Case {
    xs: Vec<Vec<f64>>,
    ys: Vec<Vec<f64>>,
    /// A warm start: a first fit on other targets, run on both sides.
    warm: Option<Vec<Vec<f64>>>,
    learning_rate: f64,
    probes: Vec<Vec<f64>>,
}

impl Case {
    /// `m` samples of width `d` in `[-1, 1]`, targets in `[0, 1]`, and a
    /// learning rate that keeps full-batch descent stable on them.
    fn generate(seed: u64, m: usize, d: usize, outputs: usize, warm: bool) -> Case {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut rows = |count: usize, width: usize, lo: f64| -> Vec<Vec<f64>> {
            (0..count).map(|_| (0..width).map(|_| rng.gen_range(lo..1.0)).collect()).collect()
        };
        let xs = rows(m, d, -1.0);
        let ys = rows(m, outputs, 0.0);
        let warm = warm.then(|| rows(m, outputs, 0.0));
        let probes = rows(3, d, -1.0);
        let widest = xs.iter().map(|x| dot(x, x)).fold(0.0, f64::max);
        let learning_rate = rng.gen_range(0.05..0.9) / (1.0 + widest);
        Case { xs, ys, warm, learning_rate, probes }
    }
}

/// Predictions agree within `1e-12 · (1 + |p|)`.
fn assert_close(model: &LinearRegression, oracle: &Oracle, points: &[Vec<f64>], context: &str) {
    for x in points {
        for (p, q) in model.predict(x).into_iter().zip(oracle.predict(x)) {
            assert!((p - q).abs() <= 1e-12 * (1.0 + q.abs()), "{context}: {p} vs oracle {q}");
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(128))]

    #[test]
    fn gram_descent_matches_the_per_sample_oracle(
        seed in 0u64..u64::MAX,
        shape in (1usize..40, 1usize..40, 1usize..7),
        settings in (0usize..2, 0usize..2, 0usize..61),
    ) {
        let (m, d, outputs) = shape;
        let (l2_pick, warm_pick, epochs) = settings;
        let l2 = [0.0, 1e-4][l2_pick];
        let case = Case::generate(seed, m, d, outputs, warm_pick == 1);
        let mut model = LinearRegression::new(d, outputs);
        let mut oracle = Oracle::new(d, outputs);
        if let Some(warm) = &case.warm {
            model.fit(&case.xs, warm, 7, case.learning_rate, l2);
            oracle.oracle_fit(&case.xs, warm, 7, case.learning_rate, l2);
        }
        model.fit(&case.xs, &case.ys, epochs, case.learning_rate, l2);
        oracle.oracle_fit(&case.xs, &case.ys, epochs, case.learning_rate, l2);
        let context = format!("seed {seed}, {m} samples × {d} inputs → {outputs}, {epochs} epochs, l2 {l2}");
        assert_close(&model, &oracle, &case.xs, &context);
        assert_close(&model, &oracle, &case.probes, &context);
    }
}

/// Both Gram forms, at the campaign head's width, on each side of m = d.
#[test]
fn both_forms_match_the_oracle_at_the_campaign_shape() {
    for (m, seed) in [(24, 1), (192, 2), (193, 3), (400, 4)] {
        let case = Case::generate(seed, m, 192, 6, true);
        let mut model = LinearRegression::new(192, 6);
        let mut oracle = Oracle::new(192, 6);
        let warm = case.warm.as_ref().expect("generated warm");
        model.fit(&case.xs, warm, 3, case.learning_rate, 1e-4);
        oracle.oracle_fit(&case.xs, warm, 3, case.learning_rate, 1e-4);
        model.fit(&case.xs, &case.ys, 250, case.learning_rate, 1e-4);
        oracle.oracle_fit(&case.xs, &case.ys, 250, case.learning_rate, 1e-4);
        assert_close(&model, &oracle, &case.xs, &format!("{m} × 192"));
        assert_close(&model, &oracle, &case.probes, &format!("{m} × 192 probes"));
    }
}

fn prediction_bits(model: &LinearRegression, points: &[Vec<f64>]) -> Vec<u64> {
    points.iter().flat_map(|x| model.predict(x)).map(f64::to_bits).collect()
}

#[test]
fn no_samples_or_no_epochs_leave_the_model_bit_identical() {
    let case = Case::generate(9, 5, 8, 3, true);
    let mut model = LinearRegression::new(8, 3);
    model.fit(&case.xs, case.warm.as_ref().expect("generated warm"), 20, case.learning_rate, 1e-4);
    let before = model.clone();
    let bits = prediction_bits(&model, &case.probes);
    model.fit(&[], &[], 10, case.learning_rate, 1e-4);
    model.fit(&case.xs, &case.ys, 0, case.learning_rate, 1e-4);
    assert_eq!(model, before);
    assert_eq!(prediction_bits(&model, &case.probes), bits);
}

#[test]
#[should_panic(expected = "input dimension mismatch")]
fn a_narrow_sample_panics() {
    let case = Case::generate(10, 4, 6, 2, false);
    let mut xs = case.xs;
    xs[2].pop();
    LinearRegression::new(6, 2).fit(&xs, &case.ys, 5, case.learning_rate, 0.0);
}

#[test]
#[should_panic(expected = "input dimension mismatch")]
fn a_wide_sample_panics_on_the_feature_gram_side() {
    let case = Case::generate(11, 12, 3, 2, false);
    let mut xs = case.xs;
    xs[7].push(0.5);
    LinearRegression::new(3, 2).fit(&xs, &case.ys, 5, case.learning_rate, 0.0);
}

/// The logistic head checks widths as the regression head does; a release
/// build's `dot` would otherwise truncate the product to the shorter slice.
#[test]
#[should_panic(expected = "input dimension mismatch")]
fn logistic_regression_rejects_a_narrow_sample() {
    let mut model = LogisticRegression::new(3);
    model.fit(&[vec![1.0, 0.0, 0.0], vec![0.5, 0.5]], &[true, false], 1, 0.1, 0.0);
}
