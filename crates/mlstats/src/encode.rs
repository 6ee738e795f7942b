//! Feature normalization and the regressions' design matrix.
//!
//! The paper encodes categorical features with a "naive numeric scheme"
//! (`omptune_core::encode_env_feature`) and standardizes columns before
//! fitting. This module holds the standardization and the matrix the
//! encoded rows are fitted over.

use serde::{Deserialize, Serialize};

/// Per-column z-score standardizer: `x' = (x - mean) / std`.
///
/// Constant columns are left centered but unscaled (std treated as 1), the
/// same behaviour as scikit-learn's `StandardScaler`.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct StandardScaler {
    pub means: Vec<f64>,
    pub stds: Vec<f64>,
}

impl StandardScaler {
    /// Fit a scaler to rows of equal width.
    ///
    /// # Panics
    /// Panics on empty or ragged input.
    pub fn fit(xs: &[Vec<f64>]) -> StandardScaler {
        assert!(!xs.is_empty(), "cannot fit scaler to empty data");
        let d = xs[0].len();
        assert!(xs.iter().all(|r| r.len() == d), "ragged rows");
        StandardScaler::fit_rows(d, xs.iter().map(Vec::as_slice))
    }

    /// Fit to `d`-wide rows, visited twice: once for the means, once for
    /// the deviations.
    fn fit_rows<'a>(d: usize, rows: impl Iterator<Item = &'a [f64]> + Clone) -> StandardScaler {
        let mut n = 0usize;
        let mut means = vec![0.0f64; d];
        for r in rows.clone() {
            n += 1;
            for (m, v) in means.iter_mut().zip(r) {
                *m += v;
            }
        }
        let n = n as f64;
        for m in &mut means {
            *m /= n;
        }
        let mut stds = vec![0.0f64; d];
        for r in rows {
            for ((s, v), m) in stds.iter_mut().zip(r).zip(&means) {
                let e = v - m;
                *s += e * e;
            }
        }
        for s in &mut stds {
            *s = (*s / n).sqrt();
            if *s < 1e-12 {
                *s = 1.0;
            }
        }
        StandardScaler { means, stds }
    }

    /// Transform one row in place.
    pub fn transform_row(&self, row: &mut [f64]) {
        assert_eq!(row.len(), self.means.len(), "width mismatch");
        for ((v, m), s) in row.iter_mut().zip(&self.means).zip(&self.stds) {
            *v = (*v - m) / s;
        }
    }

    /// Transform a whole dataset, returning new rows.
    pub fn transform(&self, xs: &[Vec<f64>]) -> Vec<Vec<f64>> {
        xs.iter()
            .map(|r| {
                let mut out = r.clone();
                self.transform_row(&mut out);
                out
            })
            .collect()
    }

    /// Fit and transform in one step.
    pub fn fit_transform(xs: &[Vec<f64>]) -> (StandardScaler, Vec<Vec<f64>>) {
        let s = StandardScaler::fit(xs);
        let t = s.transform(xs);
        (s, t)
    }
}

/// A regression design matrix: one contiguous row-major `n × (d + 1)`
/// block whose column 0 is the intercept's constant `1.0` and whose
/// other `d` columns are the features. The logistic and linear fitters
/// run over this layout, so a row is read in place, never copied.
#[derive(Debug, Clone, PartialEq)]
pub struct Design {
    /// `d + 1`: the intercept column plus the features.
    width: usize,
    data: Vec<f64>,
}

impl Design {
    /// An empty design of `d` features with room for `n` rows.
    pub fn with_capacity(d: usize, n: usize) -> Design {
        Design {
            width: d + 1,
            data: Vec::with_capacity(n * (d + 1)),
        }
    }

    /// Copy rows of equal width. `None` when `xs` is empty or ragged.
    pub fn from_rows(xs: &[Vec<f64>]) -> Option<Design> {
        let d = xs.first()?.len();
        let mut design = Design::with_capacity(d, xs.len());
        for x in xs {
            if x.len() != d {
                return None;
            }
            design.push(x.iter().copied());
        }
        Some(design)
    }

    /// Append one row of `d` features (the intercept's `1.0` goes first).
    ///
    /// # Panics
    /// Panics if the row does not hold exactly `d` features.
    pub fn push(&mut self, features: impl IntoIterator<Item = f64>) {
        let start = self.data.len();
        self.data.push(1.0);
        self.data.extend(features);
        assert_eq!(
            self.data.len() - start,
            self.width,
            "feature width mismatch"
        );
    }

    /// Number of rows.
    pub fn len(&self) -> usize {
        self.data.len() / self.width
    }

    /// True when the design has no rows.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// Number of features `d` (the intercept column not counted).
    pub fn dim(&self) -> usize {
        self.width - 1
    }

    /// The rows, each `[1.0, x_1, …, x_d]`.
    pub fn rows(&self) -> std::slice::ChunksExact<'_, f64> {
        self.data.chunks_exact(self.width)
    }

    /// Z-score the feature columns in place: the values
    /// [`StandardScaler::fit_transform`] gives for the same rows, bit for
    /// bit. The intercept column stays `1.0`.
    pub fn standardize(&mut self) {
        let scaler = StandardScaler::fit_rows(self.dim(), self.rows().map(|r| &r[1..]));
        for row in self.data.chunks_exact_mut(self.width) {
            scaler.transform_row(&mut row[1..]);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scaler_zero_mean_unit_std() {
        let xs = vec![vec![1.0, 10.0], vec![2.0, 20.0], vec![3.0, 30.0]];
        let (_, t) = StandardScaler::fit_transform(&xs);
        for col in 0..2 {
            let column: Vec<f64> = t.iter().map(|r| r[col]).collect();
            assert!(crate::describe::mean(&column).abs() < 1e-12);
            assert!((crate::describe::std_population(&column) - 1.0).abs() < 1e-12);
        }
    }

    #[test]
    fn scaler_constant_column_is_centered_not_scaled() {
        let xs = vec![vec![5.0], vec![5.0], vec![5.0]];
        let (s, t) = StandardScaler::fit_transform(&xs);
        assert_eq!(s.stds[0], 1.0);
        assert!(t.iter().all(|r| r[0] == 0.0));
    }

    #[test]
    fn design_standardizes_like_the_scaler() {
        let xs = vec![
            vec![1.0, 10.0, 7.0],
            vec![2.5, 20.0, 7.0],
            vec![3.0, 35.0, 7.0],
        ];
        let mut design = Design::from_rows(&xs).unwrap();
        assert_eq!((design.len(), design.dim()), (3, 3));
        design.standardize();
        let (_, t) = StandardScaler::fit_transform(&xs);
        for (row, want) in design.rows().zip(&t) {
            assert_eq!(row[0], 1.0);
            assert_eq!(&row[1..], want.as_slice());
        }
    }

    #[test]
    fn design_rejects_empty_and_ragged_rows() {
        assert_eq!(Design::from_rows(&[]), None);
        assert_eq!(Design::from_rows(&[vec![1.0], vec![1.0, 2.0]]), None);
    }

    #[test]
    #[should_panic(expected = "empty")]
    fn scaler_rejects_empty() {
        let _ = StandardScaler::fit(&[]);
    }
}
