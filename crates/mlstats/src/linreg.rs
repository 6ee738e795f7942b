//! Ordinary least-squares linear regression via the normal equations.
//!
//! The paper first attempts to fit linear regression to the runtime data and
//! observes poor fits ("low confidence scores associated with poor model
//! fitting", Sec. IV-D) because the speedup distribution is highly
//! non-normal. We implement OLS with an R² score so that the reproduction
//! can *demonstrate* that observation before falling back to the
//! classification formulation (see [`crate::logreg`]).

use crate::encode::Design;
use crate::matrix::Matrix;
use serde::{Deserialize, Serialize};

/// A fitted linear model `y ≈ intercept + coef · x`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct LinearModel {
    pub intercept: f64,
    pub coefficients: Vec<f64>,
    /// Coefficient of determination on the training data.
    pub r2: f64,
}

/// Errors from [`fit_linear`].
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LinRegError {
    /// No rows, or rows with inconsistent widths.
    BadShape,
    /// Fewer rows than columns (underdetermined) or singular normal matrix.
    Singular,
}

impl std::fmt::Display for LinRegError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LinRegError::BadShape => write!(f, "empty or ragged design matrix"),
            LinRegError::Singular => write!(f, "singular normal equations (collinear features?)"),
        }
    }
}

impl std::error::Error for LinRegError {}

impl LinearModel {
    /// Predict the response for a single feature vector.
    ///
    /// # Panics
    /// Panics if `x.len()` does not match the number of coefficients.
    pub fn predict(&self, x: &[f64]) -> f64 {
        assert_eq!(x.len(), self.coefficients.len(), "feature width mismatch");
        self.intercept
            + self
                .coefficients
                .iter()
                .zip(x)
                .map(|(c, v)| c * v)
                .sum::<f64>()
    }
}

/// Fit `y ≈ b0 + B·x` by OLS over the rows of `x`.
///
/// A tiny ridge term (1e-9) is added to the normal matrix diagonal to keep
/// near-collinear encodings (common with the paper's naive numeric feature
/// scheme) numerically stable without meaningfully biasing coefficients.
pub fn fit_linear(x: &Design, y: &[f64]) -> Result<LinearModel, LinRegError> {
    if x.is_empty() || x.len() != y.len() {
        return Err(LinRegError::BadShape);
    }
    let p = x.dim() + 1; // + intercept column
    if x.len() < p {
        return Err(LinRegError::Singular);
    }

    // Build X^T X and X^T y directly from the design's rows.
    let mut xtx = Matrix::zeros(p, p);
    let mut xty = vec![0.0f64; p];
    for (row, &yi) in x.rows().zip(y) {
        for i in 0..p {
            xty[i] += row[i] * yi;
            for j in i..p {
                xtx[(i, j)] += row[i] * row[j];
            }
        }
    }
    // Mirror the upper triangle and regularize.
    for i in 0..p {
        for j in 0..i {
            xtx[(i, j)] = xtx[(j, i)];
        }
        xtx[(i, i)] += 1e-9;
    }

    let beta = xtx.solve(&xty).ok_or(LinRegError::Singular)?;
    let model = LinearModel {
        intercept: beta[0],
        coefficients: beta[1..].to_vec(),
        r2: 0.0,
    };
    let r2 = r_squared(&model, x, y);
    Ok(LinearModel { r2, ..model })
}

/// R² of `model` on `(x, y)`. 1.0 is a perfect fit; can be negative for a
/// model worse than predicting the mean.
pub fn r_squared(model: &LinearModel, x: &Design, y: &[f64]) -> f64 {
    let ybar = crate::describe::mean(y);
    let mut ss_res = 0.0;
    let mut ss_tot = 0.0;
    for (row, &yi) in x.rows().zip(y) {
        let e = yi - model.predict(&row[1..]);
        ss_res += e * e;
        let d = yi - ybar;
        ss_tot += d * d;
    }
    if ss_tot == 0.0 {
        if ss_res == 0.0 {
            1.0
        } else {
            f64::NEG_INFINITY
        }
    } else {
        1.0 - ss_res / ss_tot
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn recovers_exact_linear_relation() {
        // y = 3 + 2a - b
        let xs: Vec<Vec<f64>> = (0..20)
            .map(|i| vec![i as f64, (i * i % 7) as f64])
            .collect();
        let y: Vec<f64> = xs.iter().map(|r| 3.0 + 2.0 * r[0] - r[1]).collect();
        let m = fit_linear(&Design::from_rows(&xs).unwrap(), &y).unwrap();
        assert!((m.intercept - 3.0).abs() < 1e-6);
        assert!((m.coefficients[0] - 2.0).abs() < 1e-6);
        assert!((m.coefficients[1] + 1.0).abs() < 1e-6);
        assert!(m.r2 > 0.999999);
    }

    #[test]
    fn poor_fit_on_nonlinear_data_has_low_r2() {
        // The paper's motivation: strongly non-linear data fits poorly.
        let xs: Vec<Vec<f64>> = (0..100).map(|i| vec![i as f64 / 10.0]).collect();
        let y: Vec<f64> = xs.iter().map(|r| (r[0] * 3.0).sin()).collect();
        let m = fit_linear(&Design::from_rows(&xs).unwrap(), &y).unwrap();
        assert!(m.r2 < 0.3, "r2={}", m.r2);
    }

    #[test]
    fn underdetermined_is_rejected() {
        let x = Design::from_rows(&[vec![1.0, 2.0, 3.0]]).unwrap();
        assert_eq!(fit_linear(&x, &[1.0]).unwrap_err(), LinRegError::Singular);
    }

    #[test]
    fn mismatched_input_rejected() {
        let x = Design::from_rows(&[vec![1.0], vec![2.0]]).unwrap();
        assert_eq!(fit_linear(&x, &[0.0]).unwrap_err(), LinRegError::BadShape);
    }

    #[test]
    fn predict_panics_on_width_mismatch() {
        let m = LinearModel {
            intercept: 0.0,
            coefficients: vec![1.0],
            r2: 1.0,
        };
        assert!(std::panic::catch_unwind(|| m.predict(&[1.0, 2.0])).is_err());
    }
}
