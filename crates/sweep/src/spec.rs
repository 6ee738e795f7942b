//! Sweep specifications: which part of the configuration space to run,
//! and how to reproduce the paper's exact dataset sizes (Table II).
//!
//! The paper reports 53,822 / 99,707 / 90,230 unique samples on A64FX /
//! Milan / Skylake. Those are not full cross-products (cluster failures
//! and cleaning trimmed them), so the reproduction offers several scopes:
//! [`Scope::Full`] sweeps every configuration, [`Scope::PaperSized`]
//! deterministically strides the space so the per-architecture totals
//! match Table II exactly, and [`Scope::Strided`] takes every `n`-th.

use omptune_core::{paper, Arch, ConfigSpace, TuningConfig};
use serde::{Deserialize, Serialize};

/// Which slice of the configuration space a sweep covers.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum Scope {
    /// Every configuration of every setting.
    Full,
    /// Evenly-strided subsample sized to reproduce Table II.
    PaperSized,
    /// A tiny smoke-test slice (every `n`-th configuration).
    Strided(usize),
}

/// Sweep parameters.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct SweepSpec {
    pub scope: Scope,
    /// Timed repetitions per configuration (the paper pairs R0..R3).
    pub reps: u32,
    /// Master seed for the noise model.
    pub seed: u64,
    /// Probability that one repetition fails (node crash, OOM, timeout —
    /// the cluster losses that trimmed the paper's totals). Failed reps
    /// record `NaN` and the whole sample is dropped by
    /// [`crate::dataset::clean`]. Deterministic per sample identity.
    pub failure_rate: f64,
}

impl Default for SweepSpec {
    fn default() -> Self {
        SweepSpec {
            scope: Scope::PaperSized,
            reps: 3,
            seed: 0x0527_1CEB,
            failure_rate: 0.0,
        }
    }
}

/// Paper sample totals per architecture (Table II's rows in
/// `omptune_core::paper`).
pub fn table2_target(arch: Arch) -> usize {
    paper::value(paper::Key::Samples(arch)) as usize
}

/// Number of (application, setting) pairs swept on `arch`:
/// every available app has three settings.
pub fn settings_count(arch: Arch) -> usize {
    workloads::apps_on(arch).len() * 3
}

/// How many configurations setting number `setting_idx` (in sweep order)
/// contributes under `scope` on `arch`, at any team size.
pub fn samples_for_setting(arch: Arch, setting_idx: usize, scope: Scope) -> usize {
    let space = ConfigSpace::new(arch, 1);
    match scope {
        Scope::Full => space.len(),
        Scope::Strided(n) => space.len().div_ceil(n.max(1)),
        Scope::PaperSized => {
            let settings = settings_count(arch);
            let target = table2_target(arch);
            let base = target / settings;
            let remainder = target % settings;
            base + usize::from(setting_idx < remainder)
        }
    }
}

/// The configuration indices (into the odometer order of [`ConfigSpace`])
/// sampled for one setting. Evenly spaced, deterministic, unique.
pub fn config_indices(space_len: usize, n_samples: usize) -> Vec<usize> {
    let n = n_samples.min(space_len);
    (0..n).map(|k| k * space_len / n).collect()
}

/// Materialize the sampled configurations for one setting.
///
/// The vector keeps room for one more entry: the scheduler appends the
/// batch's default row, and growing it there instead costs a warm sweep
/// a fresh allocation and copy per batch (about a fifth of its time).
pub fn configs_for(
    arch: Arch,
    num_threads: usize,
    setting_idx: usize,
    scope: Scope,
) -> Vec<(usize, TuningConfig)> {
    let space = ConfigSpace::new(arch, num_threads);
    let n = samples_for_setting(arch, setting_idx, scope);
    let mut configs = Vec::with_capacity(n + 1);
    configs.extend(
        config_indices(space.len(), n)
            .into_iter()
            .map(|i| (i, space.get(i).expect("index in space"))),
    );
    configs
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_sized_totals_match_table2_exactly() {
        for arch in Arch::ALL {
            let total: usize = (0..settings_count(arch))
                .map(|i| samples_for_setting(arch, i, Scope::PaperSized))
                .sum();
            assert_eq!(total, table2_target(arch), "{arch}");
        }
    }

    #[test]
    fn settings_counts_per_arch() {
        assert_eq!(settings_count(Arch::A64fx), 45);
        assert_eq!(settings_count(Arch::Milan), 39);
        assert_eq!(settings_count(Arch::Skylake), 36);
    }

    #[test]
    fn config_indices_unique_and_in_range() {
        let idx = config_indices(9216, 2506);
        assert_eq!(idx.len(), 2506);
        assert!(idx.windows(2).all(|w| w[0] < w[1]));
        assert!(*idx.last().unwrap() < 9216);
    }

    #[test]
    fn full_scope_covers_everything() {
        assert_eq!(samples_for_setting(Arch::Milan, 0, Scope::Full), 9216);
        assert_eq!(samples_for_setting(Arch::A64fx, 0, Scope::Full), 4608);
    }

    #[test]
    fn strided_scope_shrinks() {
        assert_eq!(samples_for_setting(Arch::Milan, 0, Scope::Strided(100)), 93);
    }

    #[test]
    fn configs_are_valid_for_the_space() {
        let configs = configs_for(Arch::Skylake, 40, 0, Scope::Strided(500));
        assert!(!configs.is_empty());
        assert!(
            configs.capacity() > configs.len(),
            "no slot for the default row"
        );
        for (i, c) in &configs {
            assert_eq!(c.num_threads, 40);
            let space = ConfigSpace::new(Arch::Skylake, 40);
            assert_eq!(space.index_of(c), Some(*i));
        }
    }

    #[test]
    fn oversample_clamps_to_space() {
        let idx = config_indices(100, 1000);
        assert_eq!(idx.len(), 100);
    }
}
