//! Discrete search-space autotuners (paper Sec. VI).
//!
//! The paper's concluding discussion proposes using the influence
//! analysis as a *search-space pruning* device for discrete tuners:
//! "hill climbing algorithms vary the parameter value of one variable at
//! a time while keeping others fixed … having information on the impact
//! of variables can further decrease [the probability of local minima]".
//! This module implements that proposal:
//!
//! - [`hill_climb`] — coordinate descent over the seven variables, one
//!   full value-domain scan per variable, repeated until a pass finds no
//!   improvement;
//! - [`random_search`] — the deterministic baseline;
//! - [`influence_order`] — variable ordering derived from an
//!   [`crate::analysis::InfluenceRow`], so the most influential knobs
//!   are explored first (fewer evaluations to near-optimal).
//!
//! Objectives map a configuration to a runtime (lower is better); in
//! this repository they are usually `simrt::simulate` closures, but any
//! measurement works.

use crate::analysis::{Feature, InfluenceRow};
use crate::arch::Arch;
use crate::config::TuningConfig;
use crate::space::ConfigSpace;
use crate::variable::Variable;

/// Result of a tuning run.
#[derive(Debug, Clone, PartialEq)]
pub struct TuneResult {
    /// Best configuration found.
    pub best: TuningConfig,
    /// Objective value of `best`.
    pub best_value: f64,
    /// Number of objective evaluations spent.
    pub evaluations: usize,
    /// Objective value after each evaluation (monotone non-increasing
    /// best-so-far), for evaluations-to-quality curves.
    pub trajectory: Vec<f64>,
}

/// Order variables by descending influence from an analysis row — the
/// paper's pruning suggestion. Features absent from the row (e.g.
/// `Architecture`) are ignored; variables missing entirely keep their
/// declaration order at the tail.
pub fn influence_order(row: &InfluenceRow, features: &[Feature]) -> Vec<Variable> {
    let mut scored: Vec<(f64, Variable)> = Variable::ALL
        .iter()
        .map(|&v| {
            let score = features
                .iter()
                .position(|f| *f == v.feature())
                .map(|i| row.influence[i])
                .unwrap_or(0.0);
            (score, v)
        })
        .collect();
    scored.sort_by(|a, b| b.0.partial_cmp(&a.0).expect("finite influence"));
    scored.into_iter().map(|(_, v)| v).collect()
}

/// Coordinate-descent hill climbing: scan each variable's full value
/// domain on `arch` in `order`, keep the best, repeat passes until one
/// finds no improvement or `max_evals` is exhausted. Deterministic.
/// `start` need not lie in `arch`'s space (a best configuration
/// transplanted from another machine): a value outside the domain just
/// makes every value of the domain a candidate.
pub fn hill_climb<F>(
    arch: Arch,
    start: TuningConfig,
    order: &[Variable],
    max_evals: usize,
    mut objective: F,
) -> TuneResult
where
    F: FnMut(&TuningConfig) -> f64,
{
    let mut best = start;
    let mut best_value = objective(&best);
    let mut evaluations = 1;
    let mut trajectory = vec![best_value];

    loop {
        let mut improved = false;
        for &var in order {
            let current = var.slot(&best);
            for slot in var.slots(arch) {
                if Some(slot) == current {
                    continue;
                }
                if evaluations >= max_evals {
                    return TuneResult {
                        best,
                        best_value,
                        evaluations,
                        trajectory,
                    };
                }
                let candidate = var.at(best, slot);
                let value = objective(&candidate);
                evaluations += 1;
                if value < best_value {
                    best = candidate;
                    best_value = value;
                    improved = true;
                }
                trajectory.push(best_value);
            }
        }
        if !improved {
            return TuneResult {
                best,
                best_value,
                evaluations,
                trajectory,
            };
        }
    }
}

/// Uniform random search over the space (deterministic in `seed`).
pub fn random_search<F>(
    arch: Arch,
    num_threads: usize,
    seed: u64,
    max_evals: usize,
    mut objective: F,
) -> TuneResult
where
    F: FnMut(&TuningConfig) -> f64,
{
    let space = ConfigSpace::new(arch, num_threads);
    // SplitMix the seed so that nearby seeds give unrelated streams, and
    // guarantee a nonzero xorshift state.
    let mut state = crate::splitmix64(seed) | 1;
    let mut next = move || {
        // xorshift64*
        state ^= state >> 12;
        state ^= state << 25;
        state ^= state >> 27;
        state.wrapping_mul(0x2545F4914F6CDD1D)
    };
    let mut best = space.default_config();
    let mut best_value = f64::INFINITY;
    let mut trajectory = Vec::with_capacity(max_evals);
    for _ in 0..max_evals {
        let idx = (next() % space.len() as u64) as usize;
        let candidate = space.get(idx).expect("in space");
        let value = objective(&candidate);
        if value < best_value {
            best = candidate;
            best_value = value;
        }
        trajectory.push(best_value);
    }
    TuneResult {
        best,
        best_value,
        evaluations: max_evals,
        trajectory,
    }
}

/// Evaluations needed by a trajectory to come within `factor` (≥ 1.0) of
/// `target` (the known optimum). `None` if never reached.
pub fn evals_to_within(trajectory: &[f64], target: f64, factor: f64) -> Option<usize> {
    trajectory
        .iter()
        .position(|v| *v <= target * factor)
        .map(|i| i + 1)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::envvar::KmpLibrary;

    /// Synthetic objective: turnaround halves the runtime, spread bind
    /// shaves 20 %, master bind is catastrophic, everything else is
    /// neutral. Global optimum = turnaround + spread.
    fn objective(c: &TuningConfig) -> f64 {
        let mut t = 100.0;
        if c.library == KmpLibrary::Turnaround {
            t *= 0.5;
        }
        match c.effective_bind() {
            crate::config::EffectiveBind::Spread => t *= 0.8,
            crate::config::EffectiveBind::Master => t *= 50.0,
            _ => {}
        }
        t
    }

    #[test]
    fn hill_climb_finds_the_optimum() {
        let start = TuningConfig::default_for(Arch::Milan, 96);
        let r = hill_climb(Arch::Milan, start, &Variable::ALL, 500, objective);
        assert_eq!(r.best_value, 40.0, "best {:?}", r.best);
        assert_eq!(r.best.library, KmpLibrary::Turnaround);
        assert_eq!(
            r.best.effective_bind(),
            crate::config::EffectiveBind::Spread
        );
        // Coordinate descent over 7 small domains: cheap.
        assert!(r.evaluations < 60, "used {}", r.evaluations);
    }

    #[test]
    fn trajectory_is_monotone_nonincreasing() {
        let start = TuningConfig::default_for(Arch::A64fx, 48);
        let r = hill_climb(Arch::A64fx, start, &Variable::ALL, 500, objective);
        assert!(r.trajectory.windows(2).all(|w| w[1] <= w[0]));
        let rs = random_search(Arch::A64fx, 48, 7, 200, objective);
        assert!(rs.trajectory.windows(2).all(|w| w[1] <= w[0]));
    }

    #[test]
    fn influence_ordering_prioritizes_the_dominant_knob() {
        let features = Feature::columns(crate::analysis::GroupBy::ArchApplication);
        let mut influence = vec![0.01; features.len()];
        // Make KMP_LIBRARY dominant.
        let lib_col = features
            .iter()
            .position(|f| *f == Feature::Library)
            .unwrap();
        influence[lib_col] = 0.9;
        let row = InfluenceRow {
            group: "x".into(),
            influence,
            accuracy: 0.9,
            n_samples: 100,
            optimal_fraction: 0.2,
        };
        let order = influence_order(&row, &features);
        assert_eq!(order[0], Variable::Library);
        assert_eq!(order.len(), 7);
    }

    #[test]
    fn guided_order_converges_faster_on_the_synthetic_objective() {
        // Library is the big knob; exploring it first reaches the
        // optimum in fewer evaluations than exploring it last.
        let start = TuningConfig::default_for(Arch::Milan, 96);
        let guided = [
            Variable::Library,
            Variable::ProcBind,
            Variable::Places,
            Variable::Schedule,
            Variable::Blocktime,
            Variable::ForceReduction,
            Variable::AlignAlloc,
        ];
        let reversed: Vec<Variable> = guided.iter().rev().copied().collect();
        let a = hill_climb(Arch::Milan, start, &guided, 500, objective);
        let b = hill_climb(Arch::Milan, start, &reversed, 500, objective);
        assert_eq!(a.best_value, b.best_value, "both converge");
        let ea = evals_to_within(&a.trajectory, 40.0, 1.0).unwrap();
        let eb = evals_to_within(&b.trajectory, 40.0, 1.0).unwrap();
        assert!(ea < eb, "guided {ea} vs reversed {eb}");
    }

    #[test]
    fn random_search_is_deterministic_and_bounded() {
        let a = random_search(Arch::Skylake, 40, 42, 100, objective);
        let b = random_search(Arch::Skylake, 40, 42, 100, objective);
        assert_eq!(a, b);
        assert_eq!(a.evaluations, 100);
        // Different seeds must explore different paths: with a 1-eval
        // budget the first sampled config decides the outcome, and over
        // many seeds more than one distinct value must occur.
        let firsts: std::collections::BTreeSet<u64> = (0..32)
            .map(|seed| {
                random_search(Arch::Skylake, 40, seed, 1, objective)
                    .best_value
                    .to_bits()
            })
            .collect();
        assert!(firsts.len() > 1, "seeds collapsed to one stream");
    }

    #[test]
    fn max_evals_is_respected() {
        let start = TuningConfig::default_for(Arch::Milan, 96);
        let r = hill_climb(Arch::Milan, start, &Variable::ALL, 5, objective);
        assert!(r.evaluations <= 5);
    }

    #[test]
    fn a_transplanted_start_makes_every_target_value_a_candidate() {
        // RQ2's transfer scenario: Milan's default (64 B alignment) as the
        // warm start on A64FX, whose domain is {256, 512}.
        let start = TuningConfig::default_for(Arch::Milan, 48);
        let mut aligns = std::collections::BTreeSet::new();
        let r = hill_climb(Arch::A64fx, start, &Variable::ALL, 500, |c| {
            aligns.insert(c.align_alloc.bytes());
            objective(c)
        });
        assert_eq!(r.best_value, 40.0, "best {:?}", r.best);
        assert_eq!(aligns.into_iter().collect::<Vec<_>>(), [64, 256, 512]);
    }
}
