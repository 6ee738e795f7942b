//! Holm step-down correction for multiple comparisons.
//!
//! The drift sentinel (`ompobs`) runs one Wilcoxon signed-rank test per
//! (architecture, config-stratum) pair — dozens of hypotheses per
//! comparison. At α = 0.05 a 24-test family produces a spurious
//! "drift" verdict in roughly 70 % of identical-run comparisons if raw
//! p-values are thresholded directly. Holm's method controls the
//! family-wise error rate at α with no independence assumption and
//! uniformly more power than Bonferroni: sort the p-values ascending,
//! compare the i-th smallest against α/(m−i), and stop rejecting at the
//! first failure.

/// Holm-adjusted p-values, in the **input order** of `p_values`.
///
/// The adjusted value for the i-th smallest raw p is
/// `max over j ≤ i of (m − j) · p_(j)`, clamped to 1 — the standard
/// step-down adjustment whose comparison against α reproduces Holm's
/// sequential test exactly. Rejecting `adjusted[k] ≤ alpha` controls
/// the family-wise error rate at `alpha`.
pub fn holm_adjust(p_values: &[f64]) -> Vec<f64> {
    let m = p_values.len();
    let mut order: Vec<usize> = (0..m).collect();
    // Total order even with NaN (sorted last: a missing p-value can
    // only make the adjustment more conservative for the others).
    order.sort_by(|&a, &b| {
        p_values[a]
            .partial_cmp(&p_values[b])
            .unwrap_or_else(|| p_values[a].is_nan().cmp(&p_values[b].is_nan()))
    });
    let mut adjusted = vec![0.0f64; m];
    let mut running_max = 0.0f64;
    for (rank, &idx) in order.iter().enumerate() {
        if p_values[idx].is_nan() {
            // A missing p-value is never evidence; stays NaN (rejected
            // by no threshold) without contaminating the running max.
            adjusted[idx] = f64::NAN;
            continue;
        }
        let stepped = (m - rank) as f64 * p_values[idx];
        running_max = running_max.max(stepped);
        adjusted[idx] = running_max.min(1.0);
    }
    adjusted
}

/// Indices of hypotheses rejected by Holm's step-down test at
/// family-wise level `alpha`, in input order.
pub fn holm_reject(p_values: &[f64], alpha: f64) -> Vec<usize> {
    holm_adjust(p_values)
        .iter()
        .enumerate()
        .filter(|(_, &p)| p <= alpha)
        .map(|(i, _)| i)
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn empty_and_single_families() {
        assert!(holm_adjust(&[]).is_empty());
        // One hypothesis: Holm is the raw test.
        assert_eq!(holm_adjust(&[0.03]), vec![0.03]);
        assert_eq!(holm_reject(&[0.03], 0.05), vec![0]);
        assert!(holm_reject(&[0.07], 0.05).is_empty());
    }

    #[test]
    fn matches_hand_worked_example() {
        // Classic worked example: p = (0.01, 0.04, 0.03, 0.005), m = 4.
        // Sorted: 0.005·4 = 0.02, 0.01·3 = 0.03, 0.03·2 = 0.06,
        // 0.04·1 = 0.04 → monotone max → 0.06.
        let adj = holm_adjust(&[0.01, 0.04, 0.03, 0.005]);
        let want = [0.03, 0.06, 0.06, 0.02];
        for (a, w) in adj.iter().zip(want) {
            assert!((a - w).abs() < 1e-12, "{adj:?}");
        }
        // At α = 0.05 only the two smallest survive.
        assert_eq!(holm_reject(&[0.01, 0.04, 0.03, 0.005], 0.05), vec![0, 3]);
    }

    #[test]
    fn adjustment_is_monotone_in_rank_and_clamped() {
        let p = [0.2, 0.9, 0.001, 0.5, 0.7, 0.04];
        let adj = holm_adjust(&p);
        let mut order: Vec<usize> = (0..p.len()).collect();
        order.sort_by(|&a, &b| p[a].partial_cmp(&p[b]).unwrap());
        for w in order.windows(2) {
            assert!(adj[w[0]] <= adj[w[1]], "{adj:?}");
        }
        assert!(adj.iter().all(|&a| (0.0..=1.0).contains(&a)), "{adj:?}");
    }

    #[test]
    fn uniformly_no_less_powerful_than_bonferroni() {
        let p = [0.012, 0.002, 0.049, 0.03, 0.11];
        let m = p.len() as f64;
        let adj = holm_adjust(&p);
        for (raw, holm) in p.iter().zip(&adj) {
            assert!(*holm <= (raw * m).min(1.0) + 1e-12);
        }
    }

    #[test]
    fn identical_runs_survive_a_wide_family() {
        // 24 strata of pure noise around p ≈ 0.5: nothing rejected.
        let p: Vec<f64> = (0..24).map(|i| 0.3 + 0.02 * i as f64).collect();
        assert!(holm_reject(&p, 0.05).is_empty());
        // One real effect among them still gets through.
        let mut p = p;
        p[7] = 1e-6;
        assert_eq!(holm_reject(&p, 0.05), vec![7]);
    }

    #[test]
    fn nan_p_values_sort_last_and_never_reject() {
        let p = [0.001, f64::NAN, 0.02];
        let adj = holm_adjust(&p);
        assert!(adj[1].is_nan() || adj[1] >= 1.0 - 1e-12, "{adj:?}");
        let rejected = holm_reject(&p, 0.05);
        assert!(!rejected.contains(&1), "{rejected:?}");
    }
}
