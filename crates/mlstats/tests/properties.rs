//! Property-based tests of the statistics substrate.

use mlstats::describe::{mean, quantile, std_population, Summary};
use mlstats::encode::{Design, StandardScaler};
use mlstats::linreg::fit_linear;
use mlstats::logreg::{fit_logistic, sigmoid, LogisticModel, LogisticOptions};
use mlstats::matrix::Matrix;
use mlstats::wilcoxon::wilcoxon_signed_rank;
use proptest::prelude::*;

/// The IRLS fit written over `Vec<f64>` rows: every sample re-copied
/// into a scratch `[1, x…]` row, the Hessian summed as `w·x_i·x_j` into
/// a full matrix. The reference the packed [`fit_logistic`] kernel must
/// reproduce bit for bit.
fn reference_fit(xs: &[Vec<f64>], y: &[bool], opts: LogisticOptions) -> LogisticModel {
    let n = xs.len();
    let p = xs[0].len() + 1;
    let mut beta = vec![0.0f64; p];
    let mut iterations = 0;
    for iter in 0..opts.max_iter {
        iterations = iter + 1;
        let mut grad = vec![0.0f64; p];
        let mut hess = Matrix::zeros(p, p);
        let mut row = vec![0.0f64; p];
        for (x, &yi) in xs.iter().zip(y) {
            row[0] = 1.0;
            row[1..].copy_from_slice(x);
            let z: f64 = beta.iter().zip(&row).map(|(b, v)| b * v).sum();
            let mu = sigmoid(z);
            let err = mu - if yi { 1.0 } else { 0.0 };
            let w = (mu * (1.0 - mu)).max(1e-10);
            for i in 0..p {
                grad[i] += err * row[i];
                for j in i..p {
                    hess[(i, j)] += w * row[i] * row[j];
                }
            }
        }
        let nf = n as f64;
        for i in 0..p {
            grad[i] /= nf;
            for j in i..p {
                hess[(i, j)] /= nf;
            }
        }
        for i in 1..p {
            grad[i] += opts.l2 * beta[i];
            hess[(i, i)] += opts.l2;
        }
        for i in 0..p {
            for j in 0..i {
                hess[(i, j)] = hess[(j, i)];
            }
            hess[(i, i)] += 1e-10;
        }
        let step = match hess.solve(&grad) {
            Some(s) => s,
            None => grad.iter().map(|g| g * 0.5).collect(),
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
    let mut total = 0.0;
    for (x, &yi) in xs.iter().zip(y) {
        let z = model.decision(x);
        let log1pexp = if z > 30.0 { z } else { (1.0 + z.exp()).ln() };
        total += if yi { log1pexp - z } else { log1pexp };
    }
    LogisticModel {
        loss: total / n as f64,
        ..model
    }
}

/// The logistic sigmoid as it was written before `fit_logistic` took its
/// two-pass form: one `exp` on each side of a branch.
fn retired_sigmoid(z: f64) -> f64 {
    if z >= 0.0 {
        1.0 / (1.0 + (-z).exp())
    } else {
        let e = z.exp();
        e / (1.0 + e)
    }
}

/// The one-pass Newton loop `fit_logistic` retired: per row, its `exp`,
/// then the gradient and the packed upper triangle of the Hessian summed
/// in place, `w·x_i` hoisted. Also counts the steps that fell back to the
/// gradient because the Hessian was singular.
fn retired_fit(x: &Design, y: &[bool], opts: LogisticOptions) -> (LogisticModel, usize) {
    let n = x.len();
    let p = x.dim() + 1;
    let mut beta = vec![0.0f64; p];
    let mut iterations = 0;
    let mut fallbacks = 0;
    let mut grad = vec![0.0f64; p];
    let mut upper = vec![0.0f64; p * (p + 1) / 2];
    let mut hess = Matrix::zeros(p, p);
    for iter in 0..opts.max_iter {
        iterations = iter + 1;
        grad.fill(0.0);
        upper.fill(0.0);
        for (row, &yi) in x.rows().zip(y) {
            let z: f64 = beta.iter().zip(row).map(|(b, v)| b * v).sum();
            let mu = retired_sigmoid(z);
            let err = mu - if yi { 1.0 } else { 0.0 };
            let w = (mu * (1.0 - mu)).max(1e-10);
            let mut k = 0;
            for i in 0..p {
                grad[i] += err * row[i];
                let wi = w * row[i];
                for (h, xj) in upper[k..k + p - i].iter_mut().zip(&row[i..]) {
                    *h += wi * xj;
                }
                k += p - i;
            }
        }
        let nf = n as f64;
        let mut packed = upper.iter();
        for i in 0..p {
            grad[i] /= nf;
            for (j, h) in (i..p).zip(packed.by_ref()) {
                hess[(i, j)] = h / nf;
            }
        }
        for i in 1..p {
            grad[i] += opts.l2 * beta[i];
            hess[(i, i)] += opts.l2;
        }
        for i in 0..p {
            for j in 0..i {
                hess[(i, j)] = hess[(j, i)];
            }
            hess[(i, i)] += 1e-10;
        }
        let step = hess.solve(&grad).unwrap_or_else(|| {
            fallbacks += 1;
            grad.iter().map(|g| g * 0.5).collect()
        });
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
    let loss = mlstats::logreg::mean_nll(&model, x, y);
    (LogisticModel { loss, ..model }, fallbacks)
}

/// Whether two models are the same bits: intercept, coefficients,
/// iterations and loss.
fn same_bits(got: &LogisticModel, want: &LogisticModel) {
    prop_assert_eq!(got.iterations, want.iterations);
    prop_assert_eq!(got.intercept.to_bits(), want.intercept.to_bits());
    prop_assert_eq!(got.coefficients.len(), want.coefficients.len());
    for (g, w) in got.coefficients.iter().zip(&want.coefficients) {
        prop_assert_eq!(g.to_bits(), w.to_bits());
    }
    prop_assert_eq!(got.loss.to_bits(), want.loss.to_bits());
}

/// `xs` with column `c` replaced by the constant `value` (0 makes it a
/// zero column).
fn with_constant_column(xs: &mut [Vec<f64>], c: usize, value: f64) {
    for x in xs {
        x[c] = value;
    }
}

/// An L2 penalty of `-1e-10` cancels the `1e-10` the fit adds to the
/// diagonal, so a zero column leaves the Hessian exactly singular: every
/// step is the gradient fallback.
const SINGULAR_L2: f64 = -1e-10;

/// A random `n × d` design shaped like the analysis's encodings: column
/// `c` holds small integer levels, a continuous value or a log2 size by
/// `c % 3`; labels follow a random linear score plus `noise`-scaled
/// jitter (`noise` 0 is separable).
fn random_problem(n: usize, d: usize, seed: u64, noise: f64) -> (Vec<Vec<f64>>, Vec<bool>) {
    let mut state = seed;
    let mut unit = move || {
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        ((z ^ (z >> 31)) >> 11) as f64 / (1u64 << 53) as f64
    };
    let weights: Vec<f64> = (0..d).map(|_| unit() * 4.0 - 2.0).collect();
    let mut xs = Vec::with_capacity(n);
    let mut y = Vec::with_capacity(n);
    for _ in 0..n {
        let x: Vec<f64> = (0..d)
            .map(|c| match c % 3 {
                0 => (unit() * 6.0).floor(),
                1 => unit() * 6.0 - 3.0,
                _ => (3.0 + (unit() * 8.0).floor()).log2(),
            })
            .collect();
        let score: f64 = weights.iter().zip(&x).map(|(w, v)| w * v).sum();
        y.push(score + noise * (unit() * 8.0 - 4.0) > weights.iter().sum::<f64>());
        xs.push(x);
    }
    (xs, y)
}

proptest! {
    /// A solved linear system actually satisfies A·x = b.
    #[test]
    fn solve_satisfies_system(
        entries in prop::collection::vec(-10.0f64..10.0, 9),
        b in prop::collection::vec(-10.0f64..10.0, 3),
    ) {
        let mut a = Matrix::zeros(3, 3);
        for i in 0..3 {
            for j in 0..3 {
                a[(i, j)] = entries[i * 3 + j];
            }
            // Diagonal dominance guarantees solvability.
            a[(i, i)] += 40.0;
        }
        let x = a.solve(&b).expect("diagonally dominant");
        let back = a.matvec(&x);
        for (u, v) in back.iter().zip(&b) {
            prop_assert!((u - v).abs() < 1e-6, "{u} vs {v}");
        }
    }

    /// Summary invariants: min <= q1 <= median <= q3 <= max, mean within
    /// [min, max].
    #[test]
    fn summary_orderings(xs in prop::collection::vec(-1e6f64..1e6, 1..200)) {
        let s = Summary::of(&xs).expect("non-empty");
        prop_assert!(s.min <= s.q1 + 1e-9);
        prop_assert!(s.q1 <= s.median + 1e-9);
        prop_assert!(s.median <= s.q3 + 1e-9);
        prop_assert!(s.q3 <= s.max + 1e-9);
        prop_assert!(s.mean >= s.min - 1e-9 && s.mean <= s.max + 1e-9);
    }

    /// Quantiles are monotone in q.
    #[test]
    fn quantiles_monotone(xs in prop::collection::vec(-100.0f64..100.0, 1..100), q in 0.0f64..1.0) {
        let q2 = (q + 0.1).min(1.0);
        prop_assert!(quantile(&xs, q) <= quantile(&xs, q2) + 1e-12);
    }

    /// Standardization: shifting and scaling the input is undone up to
    /// the same transform (mean 0, population std 1 per column).
    #[test]
    fn scaler_normalizes(raw in prop::collection::vec(-50.0f64..50.0, 10..100)) {
        let xs: Vec<Vec<f64>> = raw.iter().map(|v| vec![*v]).collect();
        let (_, t) = StandardScaler::fit_transform(&xs);
        let col: Vec<f64> = t.iter().map(|r| r[0]).collect();
        prop_assert!(mean(&col).abs() < 1e-9);
        let s = std_population(&col);
        // Constant input stays centered with std 0; otherwise unit std.
        prop_assert!(s.abs() < 1e-9 || (s - 1.0).abs() < 1e-9);
    }

    /// Wilcoxon p-values live in (0, 1]; identical-after-shift samples
    /// with a consistent sign give small p for n >= 10.
    #[test]
    fn wilcoxon_bounds(xs in prop::collection::vec(0.1f64..100.0, 10..60), shift in 0.5f64..5.0) {
        let y: Vec<f64> = xs.iter().map(|v| v + shift).collect();
        let r = wilcoxon_signed_rank(&xs, &y).expect("valid");
        prop_assert!(r.p_value > 0.0 && r.p_value <= 1.0);
        prop_assert!(r.p_value < 0.01, "consistent shift must be significant: {}", r.p_value);
    }

    /// OLS recovers a noiseless linear relationship exactly.
    #[test]
    fn linreg_recovers_exact_relations(
        coef in -5.0f64..5.0,
        intercept in -5.0f64..5.0,
        n in 10usize..80,
    ) {
        let xs: Vec<Vec<f64>> = (0..n).map(|i| vec![i as f64 / 3.0]).collect();
        let y: Vec<f64> = xs.iter().map(|r| intercept + coef * r[0]).collect();
        let m = fit_linear(&Design::from_rows(&xs).unwrap(), &y).expect("fits");
        prop_assert!((m.intercept - intercept).abs() < 1e-5);
        prop_assert!((m.coefficients[0] - coef).abs() < 1e-5);
    }

    /// Logistic regression separates linearly separable data with high
    /// accuracy, for arbitrary thresholds.
    #[test]
    fn logreg_separates(threshold in 2.0f64..8.0) {
        let xs: Vec<Vec<f64>> = (0..200).map(|i| vec![(i % 11) as f64]).collect();
        let y: Vec<bool> = xs.iter().map(|r| r[0] > threshold).collect();
        prop_assume!(y.iter().any(|v| *v) && y.iter().any(|v| !*v));
        let x = Design::from_rows(&xs).unwrap();
        let m = fit_logistic(&x, &y, LogisticOptions::default()).expect("fits");
        let acc = mlstats::logreg::accuracy(&m, &x, &y);
        prop_assert!(acc > 0.95, "accuracy {acc}");
    }

    /// The packed-Hessian kernel over a contiguous design is the
    /// row-copying reference bit for bit: the same intercept,
    /// coefficients and loss by `to_bits`, after the same number of
    /// Newton steps — raw or z-scored, separable or noisy.
    #[test]
    fn packed_kernel_is_the_reference_bit_for_bit(
        n in 2usize..400,
        d in 1usize..12,
        seed in any::<u64>(),
        noise in 0.0f64..2.0,
        standardize in any::<bool>(),
    ) {
        let (mut xs, y) = random_problem(n, d, seed, noise);
        prop_assume!(y.iter().any(|v| *v) && y.iter().any(|v| !*v));
        let mut design = Design::from_rows(&xs).expect("rows of equal width");
        if standardize {
            xs = StandardScaler::fit_transform(&xs).1;
            design.standardize();
        }
        let opts = LogisticOptions::default();
        let want = reference_fit(&xs, &y, opts);
        let got = fit_logistic(&design, &y, opts).expect("both classes present");
        prop_assert_eq!(got.iterations, want.iterations);
        prop_assert_eq!(got.intercept.to_bits(), want.intercept.to_bits());
        for (g, w) in got.coefficients.iter().zip(&want.coefficients) {
            prop_assert_eq!(g.to_bits(), w.to_bits());
        }
        prop_assert_eq!(got.coefficients.len(), d);
        prop_assert_eq!(got.loss.to_bits(), want.loss.to_bits());
    }

    /// The two-pass Newton step is the retired one-pass loop bit for bit
    /// on random designs, with up to two columns made constant (zero or
    /// not), and at L2 penalties that include one leaving a zero column's
    /// Hessian singular, so that the gradient fallback runs too.
    #[test]
    fn two_pass_newton_step_is_the_retired_loop_bit_for_bit(
        n in 2usize..300,
        d in 1usize..14,
        seed in any::<u64>(),
        noise in 0.0f64..2.0,
        constant in prop::collection::vec((0usize..14, prop_oneof![Just(0.0), Just(1.0), Just(-2.5)]), 0..3),
        l2 in prop_oneof![Just(1e-4), Just(0.0), Just(SINGULAR_L2)],
        standardize in any::<bool>(),
    ) {
        let (mut xs, y) = random_problem(n, d, seed, noise);
        prop_assume!(y.iter().any(|v| *v) && y.iter().any(|v| !*v));
        for &(c, value) in &constant {
            with_constant_column(&mut xs, c % d, value);
        }
        let mut design = Design::from_rows(&xs).expect("rows of equal width");
        if standardize {
            design.standardize();
        }
        let opts = LogisticOptions { l2, max_iter: 30, ..LogisticOptions::default() };
        let (want, _) = retired_fit(&design, &y, opts);
        let got = fit_logistic(&design, &y, opts).expect("both classes present");
        same_bits(&got, &want);
    }
}

/// The singular case the proptest draws is real: a zero column at
/// [`SINGULAR_L2`] makes every step the gradient fallback, and the
/// two-pass fit still takes the retired loop's steps bit for bit.
#[test]
fn a_singular_hessian_takes_the_gradient_fallback_in_both_loops() {
    let (mut xs, y) = random_problem(120, 4, 11, 0.5);
    with_constant_column(&mut xs, 2, 0.0);
    let design = Design::from_rows(&xs).unwrap();
    let opts = LogisticOptions {
        l2: SINGULAR_L2,
        max_iter: 25,
        ..LogisticOptions::default()
    };
    let (want, fallbacks) = retired_fit(&design, &y, opts);
    assert_eq!(fallbacks, want.iterations, "every step falls back");
    let got = fit_logistic(&design, &y, opts).unwrap();
    same_bits(&got, &want);
}

/// The branch-free sigmoid is the two-branch one bit for bit.
#[test]
fn the_sigmoid_is_the_retired_one_bit_for_bit() {
    let mut state = 0x5eed_u64;
    let mut zs = vec![
        0.0, -0.0, 1e-300, -1e-300, 36.0, -36.0, 745.0, -745.0, 1e308, -1e308,
    ];
    zs.extend([
        f64::INFINITY,
        f64::NEG_INFINITY,
        f64::MIN_POSITIVE,
        -f64::MIN_POSITIVE,
    ]);
    for _ in 0..200_000 {
        state = state
            .wrapping_mul(6364136223846793005)
            .wrapping_add(1442695040888963407);
        let bits = state >> 1 ^ state << 63;
        let z = f64::from_bits(bits);
        // Random bits, and the range fits actually see.
        zs.push(z);
        zs.push((bits >> 11) as f64 / (1u64 << 53) as f64 * 80.0 - 40.0);
    }
    for z in zs {
        let (got, want) = (sigmoid(z), retired_sigmoid(z));
        assert!(
            got.to_bits() == want.to_bits() || (got.is_nan() && want.is_nan()),
            "sigmoid({z:e}) = {got:e}, was {want:e}"
        );
    }
}
