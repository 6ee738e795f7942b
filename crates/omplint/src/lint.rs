//! Configuration-space lint pass.
//!
//! The paper (Sec. III) arrives at its 9216/4608-point sweep by excluding
//! values that are invalid on the studied machines (`OMP_PLACES=threads`
//! without SMT, `numa_domains` without hwloc, `KMP_LIBRARY=serial`,
//! alignments below the A64FX cache line) — but it does so by hand. This
//! pass mechanizes the argument: it enumerates a *raw* cross-product that
//! still contains every excluded value, classifies each point as
//! [`PointClass::Valid`], [`PointClass::Redundant`] (equivalent to
//! another point under the runtime's own derivation rules) or
//! [`PointClass::Invalid`], and emits one [`Diagnostic`] per
//! rule firing.
//!
//! Redundancy is the model's equivalence, [`TuningConfig::canonical`]:
//! a point is redundant iff it is not a fixpoint of that rewrite, and
//! each redundancy rule names one of its four rewrites. The rewrite
//! lives in `omptune_core`, where a tier-1 test holds it to `simrt` bit
//! for bit; a rule the model refutes cannot live here.

use omptune_core::{
    Arch, Diagnostic, KmpAlignAlloc, KmpBlocktime, KmpForceReduction, KmpLibrary, OmpPlaces,
    OmpProcBind, OmpSchedule, Severity, TuningConfig,
};
use serde::{Deserialize, Serialize};

/// `OMP_PLACES` before the paper's exclusions: the four swept values plus
/// the two Sec. III rules out.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RawPlaces {
    Unset,
    Cores,
    LlCaches,
    Sockets,
    /// One place per hardware thread — meaningless without SMT.
    Threads,
    /// One place per NUMA domain — needs an hwloc-enabled runtime build.
    NumaDomains,
}

impl RawPlaces {
    pub const ALL: [RawPlaces; 6] = [
        RawPlaces::Unset,
        RawPlaces::Cores,
        RawPlaces::LlCaches,
        RawPlaces::Sockets,
        RawPlaces::Threads,
        RawPlaces::NumaDomains,
    ];

    /// The swept equivalent, `None` for the excluded values.
    pub fn paper(self) -> Option<OmpPlaces> {
        match self {
            RawPlaces::Unset => Some(OmpPlaces::Unset),
            RawPlaces::Cores => Some(OmpPlaces::Cores),
            RawPlaces::LlCaches => Some(OmpPlaces::LlCaches),
            RawPlaces::Sockets => Some(OmpPlaces::Sockets),
            RawPlaces::Threads | RawPlaces::NumaDomains => None,
        }
    }

    pub fn env_value(self) -> &'static str {
        match self {
            RawPlaces::Unset => "<unset>",
            RawPlaces::Cores => "cores",
            RawPlaces::LlCaches => "ll_caches",
            RawPlaces::Sockets => "sockets",
            RawPlaces::Threads => "threads",
            RawPlaces::NumaDomains => "numa_domains",
        }
    }
}

/// `KMP_LIBRARY` before exclusions: the two swept modes plus `serial`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum RawLibrary {
    Throughput,
    Turnaround,
    /// Executes the program serially — excluded because it answers no
    /// tuning question.
    Serial,
}

impl RawLibrary {
    pub const ALL: [RawLibrary; 3] = [
        RawLibrary::Throughput,
        RawLibrary::Turnaround,
        RawLibrary::Serial,
    ];

    /// The swept equivalent, `None` for `serial`.
    pub fn paper(self) -> Option<KmpLibrary> {
        match self {
            RawLibrary::Throughput => Some(KmpLibrary::Throughput),
            RawLibrary::Turnaround => Some(KmpLibrary::Turnaround),
            RawLibrary::Serial => None,
        }
    }

    pub fn env_value(self) -> &'static str {
        match self {
            RawLibrary::Throughput => "throughput",
            RawLibrary::Turnaround => "turnaround",
            RawLibrary::Serial => "serial",
        }
    }
}

/// Alignments considered before the per-arch domain restriction.
pub const RAW_ALIGNS: [u32; 4] = [64, 128, 256, 512];

/// One point of the raw (pre-exclusion) cross-product.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct RawPoint {
    pub places: RawPlaces,
    pub proc_bind: OmpProcBind,
    pub schedule: OmpSchedule,
    pub library: RawLibrary,
    pub blocktime: KmpBlocktime,
    pub force_reduction: KmpForceReduction,
    pub align: u32,
}

impl RawPoint {
    /// Compact description for diagnostics.
    pub fn describe(&self) -> String {
        format!(
            "places={} bind={} sched={} lib={} blocktime={} red={} align={}",
            self.places.env_value(),
            self.proc_bind.env_value().unwrap_or("<unset>"),
            self.schedule.env_value(),
            self.library.env_value(),
            self.blocktime.env_value(),
            self.force_reduction.env_value().unwrap_or("<unset>"),
            self.align,
        )
    }

    /// Project into the paper's swept space; `None` when the point uses
    /// an excluded value.
    pub fn to_config(&self, num_threads: usize) -> Option<TuningConfig> {
        Some(TuningConfig {
            places: self.places.paper()?,
            proc_bind: self.proc_bind,
            schedule: self.schedule,
            library: self.library.paper()?,
            blocktime: self.blocktime,
            force_reduction: self.force_reduction,
            align_alloc: KmpAlignAlloc(self.align),
            num_threads,
        })
    }
}

/// Classification of a configuration point.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum PointClass {
    /// Canonical and worth sweeping.
    Valid,
    /// Equivalent to its canonical form, a different point.
    Redundant,
    /// Must not be swept on this machine.
    Invalid,
}

/// Catalog entry describing one lint rule.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Rule {
    pub id: &'static str,
    pub severity: Severity,
    pub summary: &'static str,
}

/// The full rule catalog, invalidity rules first.
pub const RULES: [Rule; 10] = [
    Rule {
        id: "E-PLACES-SMT",
        severity: Severity::Error,
        summary: "OMP_PLACES=threads needs SMT; none of the studied machines has it",
    },
    Rule {
        id: "E-PLACES-HWLOC",
        severity: Severity::Error,
        summary: "OMP_PLACES=numa_domains needs an hwloc-enabled runtime build",
    },
    Rule {
        id: "E-LIB-SERIAL",
        severity: Severity::Error,
        summary: "KMP_LIBRARY=serial forces serial execution and answers no tuning question",
    },
    Rule {
        id: "E-ALIGN-ARCH",
        severity: Severity::Error,
        summary: "KMP_ALIGN_ALLOC below the architecture cache line is not in the arch domain",
    },
    Rule {
        id: "E-OVERSUB",
        severity: Severity::Error,
        summary: "OMP_NUM_THREADS exceeds the machine's cores; the study never oversubscribes",
    },
    Rule {
        id: "R-SCHED-AUTO",
        severity: Severity::Warning,
        summary: "OMP_SCHEDULE=auto maps to static in libomp",
    },
    Rule {
        id: "R-BIND-TRUE",
        severity: Severity::Warning,
        summary: "OMP_PROC_BIND=true binds close, same as the explicit value",
    },
    Rule {
        id: "R-BIND-DEFAULT-SPREAD",
        severity: Severity::Warning,
        summary:
            "OMP_PROC_BIND=spread with places set equals the unset default (spread is derived)",
    },
    Rule {
        id: "R-BIND-FALSE-DEFAULT",
        severity: Severity::Warning,
        summary: "OMP_PROC_BIND=false without places equals the unset default (no binding)",
    },
    Rule {
        id: "R-PLACES-UNBOUND",
        severity: Severity::Warning,
        summary: "OMP_PLACES is never consulted when OMP_PROC_BIND=false disables binding",
    },
];

/// Look up a catalog rule by id (panics on unknown id — rule ids are
/// compile-time constants, so a miss is a bug).
fn rule(id: &str) -> &'static Rule {
    RULES.iter().find(|r| r.id == id).expect("unknown rule id")
}

fn fire(diags: &mut Vec<Diagnostic>, id: &str, message: String) {
    let r = rule(id);
    diags.push(Diagnostic::new(r.id, r.severity, message));
}

/// One linted point with its classification and rule firings.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LintedPoint {
    pub point: RawPoint,
    pub class: PointClass,
    pub diagnostics: Vec<Diagnostic>,
    /// For redundant points: the canonical equivalent.
    pub canonical: Option<TuningConfig>,
}

/// Result of linting one (architecture, thread count) universe.
#[derive(Debug, Clone, Serialize, Deserialize)]
pub struct LintReport {
    pub arch: Arch,
    pub num_threads: usize,
    pub points: Vec<LintedPoint>,
}

impl LintReport {
    /// Total points in the raw universe.
    pub fn raw_len(&self) -> usize {
        self.points.len()
    }

    pub fn count(&self, class: PointClass) -> usize {
        self.points.iter().filter(|p| p.class == class).count()
    }

    /// Firings per rule id, in catalog order (rules that never fired are
    /// included with count 0 so reports always show the full catalog).
    pub fn rule_counts(&self) -> Vec<(&'static str, usize)> {
        RULES
            .iter()
            .map(|r| {
                let n = self
                    .points
                    .iter()
                    .flat_map(|p| p.diagnostics.iter())
                    .filter(|d| d.rule == r.id)
                    .count();
                (r.id, n)
            })
            .collect()
    }
}

/// Lint one raw point. Invalidity rules are checked first; redundancy
/// rules only apply to points that survive them.
pub fn lint_point(point: &RawPoint, arch: Arch, num_threads: usize) -> LintedPoint {
    let mut diags = Vec::new();

    if num_threads > arch.cores() {
        fire(
            &mut diags,
            "E-OVERSUB",
            format!(
                "{} threads oversubscribe the {} cores of {}",
                num_threads,
                arch.cores(),
                arch.id()
            ),
        );
    }
    if point.places == RawPlaces::Threads {
        fire(
            &mut diags,
            "E-PLACES-SMT",
            format!("OMP_PLACES=threads is invalid on {}: no SMT", arch.id()),
        );
    }
    if point.places == RawPlaces::NumaDomains {
        fire(
            &mut diags,
            "E-PLACES-HWLOC",
            "OMP_PLACES=numa_domains requires an hwloc-enabled runtime".to_string(),
        );
    }
    if point.library == RawLibrary::Serial {
        fire(
            &mut diags,
            "E-LIB-SERIAL",
            "KMP_LIBRARY=serial disables parallel execution entirely".to_string(),
        );
    }
    if !KmpAlignAlloc::domain(arch).contains(&KmpAlignAlloc(point.align)) {
        fire(
            &mut diags,
            "E-ALIGN-ARCH",
            format!(
                "KMP_ALIGN_ALLOC={} is below the {}-byte cache line of {}",
                point.align,
                arch.cacheline(),
                arch.id()
            ),
        );
    }
    if !diags.is_empty() {
        return LintedPoint {
            point: *point,
            class: PointClass::Invalid,
            diagnostics: diags,
            canonical: None,
        };
    }

    let config = point
        .to_config(num_threads)
        .expect("point without invalidity firings projects into the paper space");

    if point.schedule == OmpSchedule::Auto {
        fire(
            &mut diags,
            "R-SCHED-AUTO",
            "schedule auto is static under libomp's mapping".to_string(),
        );
    }
    if point.proc_bind == OmpProcBind::True {
        fire(
            &mut diags,
            "R-BIND-TRUE",
            "proc_bind true binds close; sweep the explicit value instead".to_string(),
        );
    }
    if point.proc_bind == OmpProcBind::Spread && point.places != RawPlaces::Unset {
        fire(
            &mut diags,
            "R-BIND-DEFAULT-SPREAD",
            "with places set, unset proc_bind already derives spread".to_string(),
        );
    }
    if point.proc_bind == OmpProcBind::False && point.places == RawPlaces::Unset {
        fire(
            &mut diags,
            "R-BIND-FALSE-DEFAULT",
            "proc_bind false without places is the unbound default".to_string(),
        );
    }
    if point.proc_bind == OmpProcBind::False && point.places != RawPlaces::Unset {
        fire(
            &mut diags,
            "R-PLACES-UNBOUND",
            format!(
                "places={} is never consulted while proc_bind=false disables binding",
                point.places.env_value()
            ),
        );
    }

    if diags.is_empty() {
        LintedPoint {
            point: *point,
            class: PointClass::Valid,
            diagnostics: diags,
            canonical: None,
        }
    } else {
        let canonical = config.canonical();
        debug_assert_ne!(
            canonical, config,
            "redundant point must rewrite to a different point"
        );
        for d in &mut diags {
            d.suggestion = Some(canonical.describe());
        }
        LintedPoint {
            point: *point,
            class: PointClass::Redundant,
            diagnostics: diags,
            canonical: Some(canonical),
        }
    }
}

/// Enumerate the raw universe in odometer order (align fastest, places
/// slowest — the same nesting as [`ConfigSpace`](omptune_core::ConfigSpace)).
pub fn raw_universe() -> Vec<RawPoint> {
    let mut out = Vec::new();
    for places in RawPlaces::ALL {
        for proc_bind in OmpProcBind::ALL {
            for schedule in OmpSchedule::ALL {
                for library in RawLibrary::ALL {
                    for blocktime in KmpBlocktime::ALL {
                        for force_reduction in KmpForceReduction::ALL {
                            for align in RAW_ALIGNS {
                                out.push(RawPoint {
                                    places,
                                    proc_bind,
                                    schedule,
                                    library,
                                    blocktime,
                                    force_reduction,
                                    align,
                                });
                            }
                        }
                    }
                }
            }
        }
    }
    out
}

/// Lint the full raw universe for one architecture and thread count.
pub fn lint_space(arch: Arch, num_threads: usize) -> LintReport {
    assert!(num_threads >= 1, "need at least one thread");
    let points = raw_universe()
        .iter()
        .map(|p| lint_point(p, arch, num_threads))
        .collect();
    LintReport {
        arch,
        num_threads,
        points,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omptune_core::ConfigSpace;

    #[test]
    fn raw_universe_size() {
        // 6 places x 6 binds x 4 schedules x 3 libraries x 3 blocktimes
        // x 4 reductions x 4 alignments.
        assert_eq!(raw_universe().len(), 20736);
    }

    #[test]
    fn classes_partition_and_tie_out_to_the_paper_space() {
        for (arch, threads) in [(Arch::Skylake, 40), (Arch::Milan, 96), (Arch::A64fx, 48)] {
            let report = lint_space(arch, threads);
            let invalid = report.count(PointClass::Invalid);
            let valid = report.count(PointClass::Valid);
            let redundant = report.count(PointClass::Redundant);
            assert_eq!(invalid + valid + redundant, report.raw_len());
            // Everything that is not machine-invalid is exactly the
            // paper's swept space.
            let space = ConfigSpace::new(arch, threads);
            assert_eq!(valid + redundant, space.len(), "{arch:?}");
        }
    }

    #[test]
    fn valid_counts_are_exact() {
        // Fixpoints of `canonical()`: 13 (bind,places) pairs x 3
        // schedules x 6 (library,blocktime) pairs x 4 reductions x aligns.
        let report = lint_space(Arch::Skylake, 40);
        assert_eq!(report.count(PointClass::Valid), 13 * 3 * 6 * 4 * 4);
        let report = lint_space(Arch::A64fx, 48);
        assert_eq!(report.count(PointClass::Valid), 13 * 3 * 6 * 4 * 2);
    }

    #[test]
    fn every_rule_fires_somewhere_except_oversub() {
        let report = lint_space(Arch::A64fx, 48);
        for (id, n) in report.rule_counts() {
            if id == "E-OVERSUB" {
                assert_eq!(n, 0, "oversubscription cannot fire at 48/48 threads");
            } else {
                assert!(n > 0, "rule {id} never fired");
            }
        }
    }

    #[test]
    fn oversubscription_invalidates_everything() {
        let report = lint_space(Arch::Skylake, 41);
        assert_eq!(report.count(PointClass::Invalid), report.raw_len());
        assert!(report.points[0]
            .diagnostics
            .iter()
            .any(|d| d.rule == "E-OVERSUB"));
    }

    #[test]
    fn align_arch_rule_is_arch_dependent() {
        // 64 and 128 are invalid on A64FX but fine on x86.
        let a64 = lint_space(Arch::A64fx, 48);
        let x86 = lint_space(Arch::Milan, 96);
        let fired = |r: &LintReport| {
            r.rule_counts()
                .iter()
                .find(|(id, _)| *id == "E-ALIGN-ARCH")
                .unwrap()
                .1
        };
        assert!(fired(&a64) > 0);
        assert_eq!(fired(&x86), 0);
    }

    #[test]
    fn paper_exclusions_reproduced_exactly() {
        // The three Sec. III exclusions are exactly the non-align,
        // non-oversub invalidity firings.
        let report = lint_space(Arch::Skylake, 40);
        for p in &report.points {
            let excluded_by_paper = p.point.places.paper().is_none()
                || p.point.library.paper().is_none()
                || !KmpAlignAlloc::domain(Arch::Skylake).contains(&KmpAlignAlloc(p.point.align));
            assert_eq!(
                p.class == PointClass::Invalid,
                excluded_by_paper,
                "{}",
                p.point.describe()
            );
        }
    }

    #[test]
    fn a_point_is_valid_iff_it_is_a_fixpoint_of_canonical() {
        for arch in Arch::ALL {
            let report = lint_space(arch, arch.cores());
            for p in report
                .points
                .iter()
                .filter(|p| p.class != PointClass::Invalid)
            {
                let config = p.point.to_config(arch.cores()).unwrap();
                let canonical = config.canonical();
                assert_eq!(
                    p.class == PointClass::Valid,
                    canonical == config,
                    "{arch:?}: {}",
                    p.point.describe()
                );
                assert_eq!(p.canonical, (canonical != config).then_some(canonical));
            }
        }
    }

    #[test]
    fn redundant_points_always_carry_a_suggestion() {
        let report = lint_space(Arch::Milan, 96);
        for p in &report.points {
            if p.class == PointClass::Redundant {
                assert!(p.canonical.is_some());
                assert!(p.diagnostics.iter().all(|d| d.suggestion.is_some()));
            }
        }
    }
}
