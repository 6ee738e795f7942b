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
}
