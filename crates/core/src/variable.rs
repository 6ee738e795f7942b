//! The variable table (paper Sec. III): the seven swept environment
//! variables, their names, value domains, and the index and spelling of
//! every value. Whatever walks "each variable" or "each value" loops over
//! [`Variable::ALL`] and these methods. A value is addressed by its *slot*,
//! its position in the variable's union domain (the values any architecture
//! sweeps), so slots, labels and cell layouts are the same everywhere.

use crate::analysis::Feature;
use crate::arch::Arch;
use crate::config::TuningConfig;
use crate::envvar::{
    KmpAlignAlloc, KmpBlocktime, KmpForceReduction, KmpLibrary, OmpPlaces, OmpProcBind, OmpSchedule,
};
use std::ops::Range;

/// The seven tunable variables.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, serde::Serialize, serde::Deserialize)]
pub enum Variable {
    Places,
    ProcBind,
    Schedule,
    Library,
    Blocktime,
    ForceReduction,
    AlignAlloc,
}

/// Union of the per-architecture `KMP_ALIGN_ALLOC` domains, ascending,
/// with each value's spelling. Every architecture sweeps a suffix of it.
const ALIGNS: [(u32, &str); 4] = [(64, "64"), (128, "128"), (256, "256"), (512, "512")];

impl Variable {
    /// Declaration order: presentation order and odometer significance
    /// (the last variable varies fastest).
    pub const ALL: [Variable; 7] = [
        Variable::Places,
        Variable::ProcBind,
        Variable::Schedule,
        Variable::Library,
        Variable::Blocktime,
        Variable::ForceReduction,
        Variable::AlignAlloc,
    ];

    /// Environment name, short report key, heat-map column.
    fn row(self) -> (&'static str, &'static str, Feature) {
        match self {
            Variable::Places => ("OMP_PLACES", "places", Feature::Places),
            Variable::ProcBind => ("OMP_PROC_BIND", "bind", Feature::ProcBind),
            Variable::Schedule => ("OMP_SCHEDULE", "sched", Feature::Schedule),
            Variable::Library => ("KMP_LIBRARY", "lib", Feature::Library),
            Variable::Blocktime => ("KMP_BLOCKTIME", "blocktime", Feature::Blocktime),
            Variable::ForceReduction => ("KMP_FORCE_REDUCTION", "red", Feature::ForceReduction),
            Variable::AlignAlloc => ("KMP_ALIGN_ALLOC", "align", Feature::AlignAlloc),
        }
    }

    /// The environment variable's name (`OMP_PLACES`).
    pub fn env_name(self) -> &'static str {
        self.row().0
    }

    /// The short key reports and logs print (`places`).
    pub fn key(self) -> &'static str {
        self.row().1
    }

    /// The heat-map column of this variable.
    pub fn feature(self) -> Feature {
        self.row().2
    }

    /// Number of slots: the length of the union domain.
    pub fn union_len(self) -> usize {
        match self {
            Variable::Places => OmpPlaces::ALL.len(),
            Variable::ProcBind => OmpProcBind::ALL.len(),
            Variable::Schedule => OmpSchedule::ALL.len(),
            Variable::Library => KmpLibrary::ALL.len(),
            Variable::Blocktime => KmpBlocktime::ALL.len(),
            Variable::ForceReduction => KmpForceReduction::ALL.len(),
            Variable::AlignAlloc => ALIGNS.len(),
        }
    }

    /// The slots `arch` sweeps, in odometer order. Only `KMP_ALIGN_ALLOC`
    /// starts past 0 anywhere (A64FX sweeps the upper two alignments).
    pub fn slots(self, arch: Arch) -> Range<usize> {
        let skipped = match self {
            Variable::AlignAlloc => ALIGNS.len() - KmpAlignAlloc::domain(arch).len(),
            _ => 0,
        };
        skipped..self.union_len()
    }

    /// The slot of `config`'s value: `None` only for an alignment outside
    /// the union. Each enum's `ALL` is in declaration order, so the
    /// discriminant is the position.
    pub fn slot(self, config: &TuningConfig) -> Option<usize> {
        match self {
            Variable::Places => Some(config.places as usize),
            Variable::ProcBind => Some(config.proc_bind as usize),
            Variable::Schedule => Some(config.schedule as usize),
            Variable::Library => Some(config.library as usize),
            Variable::Blocktime => Some(config.blocktime as usize),
            Variable::ForceReduction => Some(config.force_reduction as usize),
            Variable::AlignAlloc => ALIGNS.iter().position(|a| a.0 == config.align_alloc.0),
        }
    }

    /// `config` with this variable at `slot`; panics past the union domain.
    pub fn at(self, mut config: TuningConfig, slot: usize) -> TuningConfig {
        match self {
            Variable::Places => config.places = OmpPlaces::ALL[slot],
            Variable::ProcBind => config.proc_bind = OmpProcBind::ALL[slot],
            Variable::Schedule => config.schedule = OmpSchedule::ALL[slot],
            Variable::Library => config.library = KmpLibrary::ALL[slot],
            Variable::Blocktime => config.blocktime = KmpBlocktime::ALL[slot],
            Variable::ForceReduction => config.force_reduction = KmpForceReduction::ALL[slot],
            Variable::AlignAlloc => config.align_alloc = KmpAlignAlloc(ALIGNS[slot].0),
        }
        config
    }

    /// Environment spelling of the value at `slot`; `None` means "leave
    /// the variable unset". Panics like [`Variable::at`].
    pub fn spelling(self, slot: usize) -> Option<&'static str> {
        match self {
            Variable::Places => OmpPlaces::ALL[slot].env_value(),
            Variable::ProcBind => OmpProcBind::ALL[slot].env_value(),
            Variable::Schedule => Some(OmpSchedule::ALL[slot].env_value()),
            Variable::Library => Some(KmpLibrary::ALL[slot].env_value()),
            Variable::Blocktime => Some(KmpBlocktime::ALL[slot].env_value()),
            Variable::ForceReduction => KmpForceReduction::ALL[slot].env_value(),
            Variable::AlignAlloc => Some(ALIGNS[slot].1),
        }
    }

    /// [`Variable::spelling`] with unset spelled out, for reports.
    pub fn label(self, slot: usize) -> &'static str {
        self.spelling(slot).unwrap_or("unset")
    }

    /// `config` with this variable parsed from its environment spelling
    /// (`None` = not set: the default). `None` when `s` spells no value.
    pub fn parse(self, mut c: TuningConfig, s: Option<&str>, arch: Arch) -> Option<TuningConfig> {
        match self {
            Variable::Places => c.places = OmpPlaces::parse(s)?,
            Variable::ProcBind => c.proc_bind = OmpProcBind::parse(s)?,
            Variable::Schedule => c.schedule = OmpSchedule::parse(s)?,
            Variable::Library => c.library = KmpLibrary::parse(s)?,
            Variable::Blocktime => c.blocktime = KmpBlocktime::parse(s)?,
            Variable::ForceReduction => c.force_reduction = KmpForceReduction::parse(s)?,
            Variable::AlignAlloc => c.align_alloc = KmpAlignAlloc::parse(s, arch)?,
        }
        Some(c)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::fnv::Fnv1a;
    use crate::space::ConfigSpace;

    /// The one gate on the table: every architecture, every odometer index.
    #[test]
    fn the_table_enumerates_the_parents_spaces() {
        let mut described = Fnv1a::new();
        for arch in Arch::ALL {
            // Arch domains are suffixes of the union.
            let swept = &ALIGNS[Variable::AlignAlloc.slots(arch).start..];
            let swept: Vec<KmpAlignAlloc> = swept.iter().map(|a| KmpAlignAlloc(a.0)).collect();
            assert_eq!(swept, KmpAlignAlloc::domain(arch));

            let space = ConfigSpace::new(arch, arch.cores());
            for index in 0..space.len() {
                let c = space.get(index).expect("within len");
                assert_eq!(space.index_of(&c), Some(index));
                for var in Variable::ALL {
                    let slot = var.slot(&c).expect("a point of the space has every slot");
                    assert!(var.slots(arch).contains(&slot));
                    assert_eq!(var.at(c, slot), c);
                    assert_eq!(c.label(var), var.label(slot));
                }
                described.eat(c.describe().as_bytes());
            }
        }
        // Captured at the parent of the commit that introduced the table:
        // pins odometer order, every spelling and every key.
        assert_eq!(described.finish(), 0x5e60_1bd6_2152_60a5);
        for var in Variable::ALL {
            assert_eq!(format!("{:?}", var.feature()), format!("{var:?}"));
        }
    }

    #[test]
    fn a_foreign_alignment_has_no_slot_but_still_spells() {
        let mut c = TuningConfig::default_for(Arch::Milan, 96);
        c.align_alloc = KmpAlignAlloc(1024);
        assert_eq!(Variable::AlignAlloc.slot(&c), None);
        assert_eq!(ConfigSpace::new(Arch::Milan, 96).index_of(&c), None);
        assert!(c.describe().contains("align=1024"));
        assert_eq!(c.to_env()["KMP_ALIGN_ALLOC"], "1024");
    }
}
