//! Classification metrics and cross-validation for the logistic models.
//!
//! The paper justifies its naive numeric feature encoding by "high model
//! prediction scores" (Sec. IV-D). These utilities make that claim
//! checkable: confusion matrices, precision/recall/F1, and deterministic
//! k-fold cross-validation so the scores are out-of-sample.

use crate::encode::Design;
use crate::logreg::{fit_logistic, LogRegError, LogisticModel, LogisticOptions};
use serde::{Deserialize, Serialize};

/// A binary confusion matrix.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Serialize, Deserialize)]
pub struct Confusion {
    pub true_positive: usize,
    pub true_negative: usize,
    pub false_positive: usize,
    pub false_negative: usize,
}

impl Confusion {
    /// Tally predictions against labels.
    pub fn tally(model: &LogisticModel, xs: &[Vec<f64>], y: &[bool]) -> Confusion {
        let mut c = Confusion::default();
        for (x, &label) in xs.iter().zip(y) {
            match (model.predict(x), label) {
                (true, true) => c.true_positive += 1,
                (false, false) => c.true_negative += 1,
                (true, false) => c.false_positive += 1,
                (false, true) => c.false_negative += 1,
            }
        }
        c
    }

    /// Total samples tallied.
    pub fn total(&self) -> usize {
        self.true_positive + self.true_negative + self.false_positive + self.false_negative
    }

    /// Fraction of correct predictions.
    pub fn accuracy(&self) -> f64 {
        if self.total() == 0 {
            return f64::NAN;
        }
        (self.true_positive + self.true_negative) as f64 / self.total() as f64
    }

    /// TP / (TP + FP); `NaN` when nothing was predicted positive.
    pub fn precision(&self) -> f64 {
        let denom = self.true_positive + self.false_positive;
        if denom == 0 {
            return f64::NAN;
        }
        self.true_positive as f64 / denom as f64
    }

    /// TP / (TP + FN); `NaN` when no positives exist.
    pub fn recall(&self) -> f64 {
        let denom = self.true_positive + self.false_negative;
        if denom == 0 {
            return f64::NAN;
        }
        self.true_positive as f64 / denom as f64
    }

    /// Harmonic mean of precision and recall.
    pub fn f1(&self) -> f64 {
        let p = self.precision();
        let r = self.recall();
        if p.is_nan() || r.is_nan() || p + r == 0.0 {
            return f64::NAN;
        }
        2.0 * p * r / (p + r)
    }
}

/// Result of a k-fold cross-validation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct CrossValidation {
    /// Held-out accuracy per fold.
    pub fold_accuracy: Vec<f64>,
    /// Aggregate held-out confusion matrix.
    pub confusion: Confusion,
}

impl CrossValidation {
    /// Mean held-out accuracy.
    pub fn mean_accuracy(&self) -> f64 {
        self.fold_accuracy.iter().sum::<f64>() / self.fold_accuracy.len() as f64
    }
}

/// Deterministic k-fold cross-validation of a logistic model: samples are
/// assigned to folds round-robin (the caller should pre-shuffle if the
/// data is ordered). Folds whose training partition is single-class are
/// skipped.
pub fn cross_validate(
    xs: &[Vec<f64>],
    y: &[bool],
    k: usize,
    opts: LogisticOptions,
) -> Result<CrossValidation, LogRegError> {
    if xs.is_empty() || xs.len() != y.len() {
        return Err(LogRegError::BadShape);
    }
    let k = k.clamp(2, xs.len());
    let mut fold_accuracy = Vec::new();
    let mut confusion = Confusion::default();
    for fold in 0..k {
        let mut train_x = Vec::new();
        let mut train_y = Vec::new();
        let mut test_x = Vec::new();
        let mut test_y = Vec::new();
        for (i, (x, &label)) in xs.iter().zip(y).enumerate() {
            if i % k == fold {
                test_x.push(x.clone());
                test_y.push(label);
            } else {
                train_x.push(x.clone());
                train_y.push(label);
            }
        }
        if test_x.is_empty() {
            continue;
        }
        let train = Design::from_rows(&train_x).ok_or(LogRegError::BadShape)?;
        match fit_logistic(&train, &train_y, opts) {
            Ok(model) => {
                let c = Confusion::tally(&model, &test_x, &test_y);
                fold_accuracy.push(c.accuracy());
                confusion.true_positive += c.true_positive;
                confusion.true_negative += c.true_negative;
                confusion.false_positive += c.false_positive;
                confusion.false_negative += c.false_negative;
            }
            Err(LogRegError::SingleClass) => continue,
            Err(e) => return Err(e),
        }
    }
    if fold_accuracy.is_empty() {
        return Err(LogRegError::SingleClass);
    }
    Ok(CrossValidation {
        fold_accuracy,
        confusion,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn separable() -> (Vec<Vec<f64>>, Vec<bool>) {
        let xs: Vec<Vec<f64>> = (0..120).map(|i| vec![(i % 12) as f64]).collect();
        let y: Vec<bool> = xs.iter().map(|r| r[0] > 5.5).collect();
        (xs, y)
    }

    #[test]
    fn confusion_counts_add_up() {
        let (xs, y) = separable();
        let m = fit_logistic(
            &Design::from_rows(&xs).unwrap(),
            &y,
            LogisticOptions::default(),
        )
        .unwrap();
        let c = Confusion::tally(&m, &xs, &y);
        assert_eq!(c.total(), 120);
        assert!(c.accuracy() > 0.95);
        assert!(c.f1() > 0.95);
    }

    #[test]
    fn perfect_classifier_metrics() {
        let c = Confusion {
            true_positive: 10,
            true_negative: 10,
            false_positive: 0,
            false_negative: 0,
        };
        assert_eq!(c.accuracy(), 1.0);
        assert_eq!(c.precision(), 1.0);
        assert_eq!(c.recall(), 1.0);
        assert_eq!(c.f1(), 1.0);
    }

    #[test]
    fn degenerate_metrics_are_nan() {
        let c = Confusion::default();
        assert!(c.accuracy().is_nan());
        assert!(c.precision().is_nan());
        assert!(c.recall().is_nan());
        assert!(c.f1().is_nan());
    }

    #[test]
    fn cross_validation_holds_up_on_separable_data() {
        let (xs, y) = separable();
        let cv = cross_validate(&xs, &y, 5, LogisticOptions::default()).unwrap();
        assert_eq!(cv.fold_accuracy.len(), 5);
        assert!(
            cv.mean_accuracy() > 0.9,
            "cv accuracy {}",
            cv.mean_accuracy()
        );
        assert_eq!(cv.confusion.total(), 120);
    }

    #[test]
    fn cross_validation_detects_noise() {
        // Labels independent of features: held-out accuracy ~ 0.5.
        let xs: Vec<Vec<f64>> = (0..200).map(|i| vec![(i % 7) as f64]).collect();
        let y: Vec<bool> = (0..200).map(|i| (i * 2654435761_usize) % 9 < 4).collect();
        let cv = cross_validate(&xs, &y, 4, LogisticOptions::default()).unwrap();
        assert!(
            cv.mean_accuracy() < 0.8,
            "cv accuracy {}",
            cv.mean_accuracy()
        );
    }

    #[test]
    fn mismatched_inputs_rejected() {
        assert_eq!(
            cross_validate(&[vec![1.0]], &[], 2, LogisticOptions::default()).unwrap_err(),
            LogRegError::BadShape
        );
    }
}
