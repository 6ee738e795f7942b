//! L2-regularized logistic regression, the paper's workhorse model.
//!
//! Sec. IV-D reformulates "which environment variables matter" as binary
//! classification: a sample is *optimal* when its speedup over the default
//! configuration exceeds 1.01. A logistic model is fit per data grouping,
//! and the **weight-normalized absolute coefficient magnitudes** are read
//! as per-feature influence (the heat maps of Figs. 2–4).
//!
//! We fit by Newton's method (IRLS) with a gradient-descent fallback when
//! the Hessian is singular, matching scikit-learn's `lbfgs` results closely
//! on these low-dimensional problems.

use crate::encode::Design;
use crate::matrix::Matrix;
use serde::{Deserialize, Serialize};

/// A fitted logistic model `P(y=1|x) = sigmoid(intercept + coef · x)`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LogisticModel {
    pub intercept: f64,
    pub coefficients: Vec<f64>,
    /// Number of optimizer iterations actually used.
    pub iterations: usize,
    /// Final mean negative log-likelihood (without the L2 term).
    pub loss: f64,
}

/// Hyperparameters for [`fit_logistic`].
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LogisticOptions {
    /// L2 penalty strength (applied to coefficients, not the intercept).
    pub l2: f64,
    /// Maximum optimizer iterations.
    pub max_iter: usize,
    /// Convergence tolerance on the max coefficient update.
    pub tol: f64,
}

impl Default for LogisticOptions {
    fn default() -> Self {
        LogisticOptions {
            l2: 1e-4,
            max_iter: 100,
            tol: 1e-8,
        }
    }
}

/// Errors from [`fit_logistic`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LogRegError {
    /// No rows, ragged rows, or label length mismatch.
    BadShape,
    /// Labels are all one class; the separation problem is degenerate.
    SingleClass,
}

impl std::fmt::Display for LogRegError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LogRegError::BadShape => write!(f, "empty, ragged, or mismatched inputs"),
            LogRegError::SingleClass => write!(f, "labels contain a single class"),
        }
    }
}

impl std::error::Error for LogRegError {}

/// Numerically stable logistic sigmoid: `1 / (1 + e^-z)` for `z >= 0`
/// and `e^z / (1 + e^z)` below, both as `num / (1 + e^-|z|)`, so the one
/// `exp` call does not wait on the sign test.
pub fn sigmoid(z: f64) -> f64 {
    let e = (-z.abs()).exp();
    let num = if z >= 0.0 { 1.0 } else { e };
    num / (1.0 + e)
}

impl LogisticModel {
    /// Linear score (log-odds) for a feature vector.
    pub fn decision(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.coefficients.len(), "feature width mismatch");
        self.intercept
            + self
                .coefficients
                .iter()
                .zip(x)
                .map(|(c, v)| c * v)
                .sum::<f64>()
    }

    /// Hard 0/1 prediction at the 0.5 threshold.
    pub fn predict(&self, x: &[f64]) -> bool {
        self.decision(x) >= 0.0
    }

    /// Weight-normalized absolute coefficient magnitudes — the paper's
    /// per-feature "influence" measure. Sums to 1 (all-zero coefficients
    /// yield all-zero influence).
    pub fn normalized_influence(&self) -> Vec<f64> {
        let mags: Vec<f64> = self.coefficients.iter().map(|c| c.abs()).collect();
        let total: f64 = mags.iter().sum();
        if total == 0.0 {
            mags
        } else {
            mags.iter().map(|m| m / total).collect()
        }
    }
}

/// Fit a logistic model on the rows of `x` with boolean labels `y`.
///
/// Each Newton step walks the rows in spans of [`SPAN`], two passes a
/// span. The first computes every row's residual `err` and weight `w`
/// (the `exp` calls, with nothing waiting on them); the second adds the
/// span's terms to the gradient `err·x_i` and to the upper triangle of
/// the Hessian `(w·x_i)·x_j`, a few column chunks of one row `i` at a
/// time held in registers (see [`Rows::add`]). Every entry is the same
/// sum of the same products in row order as a one-pass row-by-row loop,
/// so the model is too, bit for bit.
pub fn fit_logistic(
    x: &Design,
    y: &[bool],
    opts: LogisticOptions,
) -> Result<LogisticModel, LogRegError> {
    if x.is_empty() || x.len() != y.len() {
        return Err(LogRegError::BadShape);
    }
    let pos = y.iter().filter(|v| **v).count();
    if pos == 0 || pos == y.len() {
        return Err(LogRegError::SingleClass);
    }

    let n = x.len();
    let p = x.dim() + 1;
    // The rows copied once, each zero-padded to whole chunks of `LANES`
    // columns, so that every chunk a sum reads is in bounds.
    let width = p.div_ceil(LANES) * LANES;
    let mut padded = vec![0.0f64; n * width];
    for (to, row) in padded.chunks_exact_mut(width).zip(x.rows()) {
        to[..p].copy_from_slice(row);
    }
    let mut beta = vec![0.0f64; p]; // [intercept, coefs...]
    let mut iterations = 0;
    let (mut err, mut weight) = (vec![0.0f64; SPAN], vec![0.0f64; SPAN]);
    // Rows 0..p: the Hessian's rows (entries left of the diagonal are
    // never read); row p: the gradient.
    let mut sums = vec![0.0f64; (p + 1) * width];
    let mut grad = vec![0.0f64; p];
    let mut hess = Matrix::zeros(p, p);

    for iter in 0..opts.max_iter {
        iterations = iter + 1;
        // Gradient and Hessian of the regularized negative log-likelihood.
        sums.fill(0.0);
        let (hess_sums, grad_sums) = sums.split_at_mut(p * width);
        for (data, ys) in padded.chunks(SPAN * width).zip(y.chunks(SPAN)) {
            let rows = Rows { width, data };
            let (err, weight) = (&mut err[..ys.len()], &mut weight[..ys.len()]);
            for ((row, &yi), (e, w)) in rows.iter().zip(ys).zip(err.iter_mut().zip(&mut *weight)) {
                let z: f64 = beta.iter().zip(row).map(|(b, v)| b * v).sum();
                let mu = sigmoid(z);
                *e = mu - if yi { 1.0 } else { 0.0 };
                *w = (mu * (1.0 - mu)).max(1e-10);
            }
            rows.add(0, err, |e, _| e, grad_sums);
            for (i, out) in hess_sums.chunks_exact_mut(width).enumerate() {
                rows.add(i, weight, |w, row| w * row[i], out);
            }
        }
        let nf = n as f64;
        for i in 0..p {
            grad[i] = grad_sums[i] / nf;
            for j in i..p {
                hess[(i, j)] = hess_sums[i * width + j] / nf;
            }
        }
        // L2 on coefficients only.
        for i in 1..p {
            grad[i] += opts.l2 * beta[i];
            hess[(i, i)] += opts.l2;
        }
        for i in 0..p {
            for j in 0..i {
                hess[(i, j)] = hess[(j, i)];
            }
            hess[(i, i)] += 1e-10; // keep the Newton step well-posed
        }

        let step = match hess.solve(&grad) {
            Some(s) => s,
            None => {
                // Fallback: plain gradient step (rare; near-separable data).
                grad.iter().map(|g| g * 0.5).collect()
            }
        };
        let mut max_update = 0.0f64;
        for i in 0..p {
            beta[i] -= step[i];
            max_update = max_update.max(step[i].abs());
        }
        if max_update < opts.tol {
            break;
        }
    }

    let model = LogisticModel {
        intercept: beta[0],
        coefficients: beta[1..].to_vec(),
        iterations,
        loss: 0.0,
    };
    let loss = mean_nll(&model, x, y);
    Ok(LogisticModel { loss, ..model })
}

/// Rows a Newton step sweeps as one span: 24 KiB at 12 columns, so a
/// span stays in L1 while every sum is swept over it.
const SPAN: usize = 256;

/// Columns in one register chunk of [`add_chunks`].
const LANES: usize = 4;

/// A span of padded design rows, `width` columns each.
struct Rows<'a> {
    width: usize,
    data: &'a [f64],
}

impl Rows<'_> {
    fn iter(&self) -> std::slice::ChunksExact<'_, f64> {
        self.data.chunks_exact(self.width)
    }

    /// `out[j] += scale(w_r, x_r) · x_rj` over the rows `r` in order,
    /// for every column `j` from the chunk that holds column `from`, up
    /// to four chunks per sweep of the rows.
    fn add(
        &self,
        from: usize,
        weights: &[f64],
        scale: impl Fn(f64, &[f64]) -> f64 + Copy,
        out: &mut [f64],
    ) {
        let mut j0 = from / LANES * LANES;
        while j0 < self.width {
            j0 += LANES
                * match (self.width - j0) / LANES {
                    1 => add_chunks::<1>(self, j0, weights, scale, out),
                    2 => add_chunks::<2>(self, j0, weights, scale, out),
                    3 => add_chunks::<3>(self, j0, weights, scale, out),
                    _ => add_chunks::<4>(self, j0, weights, scale, out),
                };
        }
    }
}

/// [`Rows::add`] for the `C` chunks from column `j0`: the `C·LANES` sums
/// stay in registers for the whole sweep, and each is still the running
/// sum of its own column's terms in row order. Returns `C`.
fn add_chunks<const C: usize>(
    rows: &Rows,
    j0: usize,
    weights: &[f64],
    scale: impl Fn(f64, &[f64]) -> f64,
    out: &mut [f64],
) -> usize {
    let mut acc = [[0.0f64; LANES]; C];
    for (c, a) in acc.iter_mut().enumerate() {
        a.copy_from_slice(&out[j0 + c * LANES..][..LANES]);
    }
    for (row, &w) in rows.iter().zip(weights) {
        let a = scale(w, row);
        let xs = &row[j0..j0 + C * LANES];
        for c in 0..C {
            for k in 0..LANES {
                acc[c][k] += a * xs[c * LANES + k];
            }
        }
    }
    for (c, a) in acc.iter().enumerate() {
        out[j0 + c * LANES..][..LANES].copy_from_slice(a);
    }
    C
}

/// Streaming logistic learner: one AdaGrad step per observation.
///
/// The batch fitter above needs the whole design matrix; a live sweep
/// wants the influence ranking *while samples stream in*. This learner
/// keeps the same objective (L2-regularized logistic loss, penalty on
/// coefficients only) and takes a single per-coordinate adaptive
/// gradient step per sample, so an update is O(d) with no allocation —
/// cheap enough to ride a sweep's batch-completion path. Updates are
/// deterministic given the observation order.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct OnlineLogistic {
    /// `[intercept, coefficients...]`.
    beta: Vec<f64>,
    /// Per-coordinate squared-gradient accumulators (AdaGrad).
    g2: Vec<f64>,
    /// L2 penalty on coefficients (not the intercept).
    l2: f64,
    /// Base learning rate, scaled by `1/sqrt(g2)` per coordinate.
    rate: f64,
    /// Observations consumed so far.
    n: u64,
}

impl OnlineLogistic {
    /// A fresh learner for `dim` features with the default L2 penalty
    /// (matching [`LogisticOptions::default`]) and step size.
    pub fn new(dim: usize) -> OnlineLogistic {
        OnlineLogistic::with_options(dim, LogisticOptions::default().l2, 0.5)
    }

    /// A learner with explicit L2 strength and base learning rate.
    pub fn with_options(dim: usize, l2: f64, rate: f64) -> OnlineLogistic {
        OnlineLogistic {
            beta: vec![0.0; dim + 1],
            g2: vec![0.0; dim + 1],
            l2,
            rate,
            n: 0,
        }
    }

    /// Feature dimensionality this learner was built for.
    pub fn dim(&self) -> usize {
        self.beta.len() - 1
    }

    /// Observations consumed so far.
    pub fn n(&self) -> u64 {
        self.n
    }

    /// Consume one labelled observation: a single AdaGrad step on the
    /// regularized logistic loss.
    pub fn observe(&mut self, x: &[f64], y: bool) {
        assert_eq!(x.len(), self.dim(), "feature width mismatch");
        let z: f64 = self.beta[0]
            + self.beta[1..]
                .iter()
                .zip(x)
                .map(|(b, v)| b * v)
                .sum::<f64>();
        let err = sigmoid(z) - if y { 1.0 } else { 0.0 };
        for i in 0..self.beta.len() {
            let mut g = err * if i == 0 { 1.0 } else { x[i - 1] };
            if i > 0 {
                g += self.l2 * self.beta[i];
            }
            self.g2[i] += g * g;
            self.beta[i] -= self.rate * g / (self.g2[i].sqrt() + 1e-12);
        }
        self.n += 1;
    }

    /// The current coefficients as a [`LogisticModel`] snapshot
    /// (`iterations` carries the observation count; `loss` is not
    /// tracked incrementally and reads 0).
    pub fn model(&self) -> LogisticModel {
        LogisticModel {
            intercept: self.beta[0],
            coefficients: self.beta[1..].to_vec(),
            iterations: self.n as usize,
            loss: 0.0,
        }
    }

    /// Weight-normalized |coefficient| per feature — the same influence
    /// measure as [`LogisticModel::normalized_influence`], recomputable
    /// after every observation.
    pub fn normalized_influence(&self) -> Vec<f64> {
        self.model().normalized_influence()
    }
}

/// Mean negative log-likelihood of `model` on `(x, y)`.
pub fn mean_nll(model: &LogisticModel, x: &Design, y: &[bool]) -> f64 {
    let mut total = 0.0;
    for (row, &yi) in x.rows().zip(y) {
        let z = model.decision(&row[1..]);
        // log(1 + e^z) computed stably.
        let log1pexp = if z > 30.0 { z } else { (1.0 + z.exp()).ln() };
        total += if yi { log1pexp - z } else { log1pexp };
    }
    total / x.len() as f64
}

/// Classification accuracy of `model` on `(x, y)`.
pub fn accuracy(model: &LogisticModel, x: &Design, y: &[bool]) -> f64 {
    let correct = x
        .rows()
        .zip(y)
        .filter(|(row, &yi)| model.predict(&row[1..]) == yi)
        .count();
    correct as f64 / x.len() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    fn design(xs: &[Vec<f64>]) -> Design {
        Design::from_rows(xs).expect("rows of equal width")
    }

    fn separable_data() -> (Vec<Vec<f64>>, Vec<bool>) {
        // Positive iff x0 + x1 > 5.
        let mut xs = Vec::new();
        let mut y = Vec::new();
        for i in 0..10 {
            for j in 0..10 {
                xs.push(vec![i as f64, j as f64]);
                y.push(i + j > 5);
            }
        }
        (xs, y)
    }

    #[test]
    fn sigmoid_extremes_are_stable() {
        assert_eq!(sigmoid(1000.0), 1.0);
        assert_eq!(sigmoid(-1000.0), 0.0);
        assert!((sigmoid(0.0) - 0.5).abs() < 1e-15);
    }

    #[test]
    fn fits_separable_data_accurately() {
        let (xs, y) = separable_data();
        let x = design(&xs);
        let m = fit_logistic(&x, &y, LogisticOptions::default()).unwrap();
        assert!(accuracy(&m, &x, &y) > 0.97, "acc={}", accuracy(&m, &x, &y));
        // Both features matter equally for x0 + x1 > 5.
        let infl = m.normalized_influence();
        assert!((infl[0] - 0.5).abs() < 0.05, "influence={:?}", infl);
    }

    #[test]
    fn irrelevant_feature_gets_low_influence() {
        // y depends only on x0; x1 cycles independently of the label.
        let xs: Vec<Vec<f64>> = (0..200)
            .map(|i| vec![(i % 10) as f64, ((i * 7) % 13) as f64])
            .collect();
        let y: Vec<bool> = xs.iter().map(|r| r[0] > 4.5).collect();
        let m = fit_logistic(&design(&xs), &y, LogisticOptions::default()).unwrap();
        let infl = m.normalized_influence();
        assert!(infl[0] > 0.9, "influence={:?}", infl);
    }

    #[test]
    fn single_class_rejected() {
        let xs = vec![vec![1.0], vec![2.0]];
        assert_eq!(
            fit_logistic(&design(&xs), &[true, true], LogisticOptions::default()).unwrap_err(),
            LogRegError::SingleClass
        );
    }

    #[test]
    fn empty_rejected() {
        assert_eq!(
            fit_logistic(
                &Design::with_capacity(1, 0),
                &[],
                LogisticOptions::default()
            )
            .unwrap_err(),
            LogRegError::BadShape
        );
    }

    #[test]
    fn loss_decreases_relative_to_null_model() {
        let (xs, y) = separable_data();
        let x = design(&xs);
        let m = fit_logistic(&x, &y, LogisticOptions::default()).unwrap();
        let null = LogisticModel {
            intercept: 0.0,
            coefficients: vec![0.0, 0.0],
            iterations: 0,
            loss: 0.0,
        };
        assert!(m.loss < mean_nll(&null, &x, &y) / 2.0);
    }

    #[test]
    fn online_matches_batch_ranking_on_separable_data() {
        let (xs, y) = separable_data();
        let mut online = OnlineLogistic::new(2);
        // The fixture is unstandardized, so the intercept has far to
        // travel; forty passes give AdaGrad's decaying steps room to
        // settle (real callers z-score their inputs first).
        for _ in 0..40 {
            for (x, &yi) in xs.iter().zip(&y) {
                online.observe(x, yi);
            }
        }
        assert_eq!(online.n(), 4000);
        let (m, x) = (online.model(), design(&xs));
        assert!(
            accuracy(&m, &x, &y) > 0.9,
            "online acc={}",
            accuracy(&m, &x, &y)
        );
        // Both features matter equally for x0 + x1 > 5 — same verdict
        // as the batch fitter.
        let infl = online.normalized_influence();
        assert!((infl[0] - 0.5).abs() < 0.1, "influence={infl:?}");
        assert!((infl.iter().sum::<f64>() - 1.0).abs() < 1e-12);
    }

    #[test]
    fn online_finds_the_dominant_feature() {
        let xs: Vec<Vec<f64>> = (0..400)
            .map(|i| vec![(i % 10) as f64 - 4.5, ((i * 7) % 13) as f64 - 6.0])
            .collect();
        let y: Vec<bool> = xs.iter().map(|r| r[0] > 0.0).collect();
        let mut online = OnlineLogistic::new(2);
        for (x, &yi) in xs.iter().zip(&y) {
            online.observe(x, yi);
        }
        let infl = online.normalized_influence();
        assert!(infl[0] > 0.8, "influence={infl:?}");
    }

    #[test]
    fn online_updates_are_deterministic() {
        let (xs, y) = separable_data();
        let run = || {
            let mut o = OnlineLogistic::new(2);
            for (x, &yi) in xs.iter().zip(&y) {
                o.observe(x, yi);
            }
            o
        };
        assert_eq!(run(), run());
    }

    #[test]
    fn online_untrained_influence_is_zero() {
        let o = OnlineLogistic::new(3);
        assert_eq!(o.n(), 0);
        assert_eq!(o.dim(), 3);
        assert!(o.normalized_influence().iter().all(|v| *v == 0.0));
    }

    #[test]
    fn normalized_influence_sums_to_one() {
        let m = LogisticModel {
            intercept: 0.3,
            coefficients: vec![2.0, -1.0, 1.0],
            iterations: 1,
            loss: 0.0,
        };
        let infl = m.normalized_influence();
        assert!((infl.iter().sum::<f64>() - 1.0).abs() < 1e-12);
        assert!((infl[0] - 0.5).abs() < 1e-12);
    }
}
