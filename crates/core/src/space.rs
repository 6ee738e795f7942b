//! Full-factorial enumeration of the configuration search space.
//!
//! The paper's sweep explores the cross-product of all seven variables'
//! value domains (Sec. IV): on the x86 machines this is
//! 4 × 6 × 4 × 2 × 3 × 4 × 4 = **9216** configurations per
//! (application, setting) pair; on A64FX the smaller `KMP_ALIGN_ALLOC`
//! domain gives 4 × 6 × 4 × 2 × 3 × 4 × 2 = **4608**.
//!
//! Thread count is *not* part of the product — the paper varies either
//! thread count or input size per application, never both simultaneously
//! (Sec. IV-B) — so [`ConfigSpace`] is parameterized by a fixed
//! `num_threads` and the sweep harness instantiates one space per setting.

use crate::arch::Arch;
use crate::config::TuningConfig;
use crate::variable::Variable;

/// The full factorial space of tuning configurations for one architecture
/// and thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ConfigSpace {
    pub arch: Arch,
    pub num_threads: usize,
}

impl ConfigSpace {
    /// Create a space for `arch` with a fixed thread count.
    ///
    /// # Panics
    /// Panics when `num_threads` is zero or exceeds the machine's cores —
    /// the study never oversubscribes.
    pub fn new(arch: Arch, num_threads: usize) -> ConfigSpace {
        assert!(num_threads >= 1, "need at least one thread");
        assert!(
            num_threads <= arch.cores(),
            "study does not oversubscribe: {} > {} cores",
            num_threads,
            arch.cores()
        );
        ConfigSpace { arch, num_threads }
    }

    /// Exact number of configurations in the space.
    pub fn len(&self) -> usize {
        Variable::ALL
            .iter()
            .map(|v| v.slots(self.arch).len())
            .product()
    }

    /// Spaces are never empty.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Iterate over every configuration in a deterministic order
    /// (odometer order over the variable domains).
    pub fn iter(&self) -> ConfigIter {
        ConfigIter {
            space: *self,
            index: 0,
        }
    }

    /// The configuration at odometer position `index`.
    pub fn get(&self, index: usize) -> Option<TuningConfig> {
        if index >= self.len() {
            return None;
        }
        let mut config = self.default_config();
        let mut i = index;
        for var in Variable::ALL.iter().rev() {
            let slots = var.slots(self.arch);
            config = var.at(config, slots.start + i % slots.len());
            i /= slots.len();
        }
        Some(config)
    }

    /// Odometer position of `config`, the inverse of [`ConfigSpace::get`].
    /// `None` if the config does not belong to this space (wrong thread
    /// count or an alignment outside this arch's domain).
    pub fn index_of(&self, config: &TuningConfig) -> Option<usize> {
        if config.num_threads != self.num_threads {
            return None;
        }
        let mut index = 0;
        for var in Variable::ALL {
            let slots = var.slots(self.arch);
            let slot = var.slot(config).filter(|s| slots.contains(s))?;
            index = index * slots.len() + (slot - slots.start);
        }
        Some(index)
    }

    /// The default configuration within this space.
    pub fn default_config(&self) -> TuningConfig {
        TuningConfig::default_for(self.arch, self.num_threads)
    }
}

/// Iterator over a [`ConfigSpace`] in odometer order.
#[derive(Debug, Clone)]
pub struct ConfigIter {
    space: ConfigSpace,
    index: usize,
}

impl Iterator for ConfigIter {
    type Item = TuningConfig;

    fn next(&mut self) -> Option<TuningConfig> {
        let c = self.space.get(self.index)?;
        self.index += 1;
        Some(c)
    }

    fn size_hint(&self) -> (usize, Option<usize>) {
        let rem = self.space.len().saturating_sub(self.index);
        (rem, Some(rem))
    }
}

impl ExactSizeIterator for ConfigIter {}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::HashSet;

    #[test]
    fn space_sizes_match_paper() {
        assert_eq!(ConfigSpace::new(Arch::Skylake, 40).len(), 9216);
        assert_eq!(ConfigSpace::new(Arch::Milan, 96).len(), 9216);
        assert_eq!(ConfigSpace::new(Arch::A64fx, 48).len(), 4608);
    }

    #[test]
    fn iterator_yields_len_unique_configs() {
        let space = ConfigSpace::new(Arch::A64fx, 48);
        let all: Vec<_> = space.iter().collect();
        assert_eq!(all.len(), space.len());
        let unique: HashSet<_> = all.iter().collect();
        assert_eq!(unique.len(), space.len());
    }

    #[test]
    fn get_index_roundtrip() {
        let space = ConfigSpace::new(Arch::Milan, 96);
        for idx in [0, 1, 17, 1000, 9215] {
            let c = space.get(idx).unwrap();
            assert_eq!(space.index_of(&c), Some(idx));
        }
        assert!(space.get(9216).is_none());
    }

    #[test]
    fn default_config_is_in_space() {
        for arch in Arch::ALL {
            let space = ConfigSpace::new(arch, arch.cores());
            let d = space.default_config();
            assert!(space.index_of(&d).is_some());
        }
    }

    #[test]
    fn wrong_thread_count_not_in_space() {
        let space = ConfigSpace::new(Arch::Milan, 96);
        let c = TuningConfig::default_for(Arch::Milan, 48);
        assert_eq!(space.index_of(&c), None);
    }

    #[test]
    #[should_panic(expected = "oversubscribe")]
    fn oversubscription_rejected() {
        let _ = ConfigSpace::new(Arch::Skylake, 41);
    }

    #[test]
    fn exact_size_iterator() {
        let space = ConfigSpace::new(Arch::A64fx, 16);
        let mut it = space.iter();
        assert_eq!(it.len(), 4608);
        it.next();
        assert_eq!(it.len(), 4607);
    }
}
