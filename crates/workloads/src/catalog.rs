//! Application catalog: the paper's 15 benchmarks, their experimental
//! settings, and architecture availability (paper Sec. IV-A/B, Table II).
//!
//! Settings follow the paper's design exactly:
//!
//! - **NPB** and **BOTS** applications vary the *input size* (three
//!   classes, code 0–2) at a fixed thread count (the full machine);
//! - the **proxy applications** (XSBench, RSBench, SU3Bench, LULESH) vary
//!   the *thread count* (¼, ½, and all cores) at the default input;
//! - **Sort** and **Strassen** were only executed on A64FX ("due to
//!   higher traffic on the cluster"), and one further BOTS application —
//!   Health in this reproduction — is missing on Skylake, giving the
//!   paper's 15 / 13 / 12 application counts per architecture.

use omptune_core::Arch;
use simrt::Model;

/// Benchmark suite of an application.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum Suite {
    /// NAS Parallel Benchmarks (loop parallelism).
    Npb,
    /// Barcelona OpenMP Task Suite (task parallelism).
    Bots,
    /// Proxy/mini-apps (XSBench, RSBench, SU3Bench, LULESH).
    Proxy,
}

/// One experimental setting: input-size class and thread count.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Setting {
    /// Input-size code: 0 = smallest class. Proxy apps always use 1.
    pub input_code: u32,
    pub num_threads: usize,
}

/// A registered application.
#[derive(Clone, Copy)]
pub struct AppSpec {
    /// Lower-case identifier, e.g. `"cg"`, `"nqueens"`.
    pub name: &'static str,
    pub suite: Suite,
    /// Build the simulation model for one (architecture, setting).
    pub model: fn(Arch, Setting) -> Model,
}

impl std::fmt::Debug for AppSpec {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("AppSpec")
            .field("name", &self.name)
            .field("suite", &self.suite)
            .finish()
    }
}

/// All 15 applications in the paper's presentation order.
pub fn apps() -> &'static [AppSpec] {
    &[
        AppSpec {
            name: "bt",
            suite: Suite::Npb,
            model: crate::npb::bt::model,
        },
        AppSpec {
            name: "cg",
            suite: Suite::Npb,
            model: crate::npb::cg::model,
        },
        AppSpec {
            name: "ep",
            suite: Suite::Npb,
            model: crate::npb::ep::model,
        },
        AppSpec {
            name: "ft",
            suite: Suite::Npb,
            model: crate::npb::ft::model,
        },
        AppSpec {
            name: "lu",
            suite: Suite::Npb,
            model: crate::npb::lu::model,
        },
        AppSpec {
            name: "mg",
            suite: Suite::Npb,
            model: crate::npb::mg::model,
        },
        AppSpec {
            name: "alignment",
            suite: Suite::Bots,
            model: crate::bots::alignment::model,
        },
        AppSpec {
            name: "health",
            suite: Suite::Bots,
            model: crate::bots::health::model,
        },
        AppSpec {
            name: "nqueens",
            suite: Suite::Bots,
            model: crate::bots::nqueens::model,
        },
        AppSpec {
            name: "sort",
            suite: Suite::Bots,
            model: crate::bots::sort::model,
        },
        AppSpec {
            name: "strassen",
            suite: Suite::Bots,
            model: crate::bots::strassen::model,
        },
        AppSpec {
            name: "xsbench",
            suite: Suite::Proxy,
            model: crate::proxy::xsbench::model,
        },
        AppSpec {
            name: "rsbench",
            suite: Suite::Proxy,
            model: crate::proxy::rsbench::model,
        },
        AppSpec {
            name: "su3bench",
            suite: Suite::Proxy,
            model: crate::proxy::su3bench::model,
        },
        AppSpec {
            name: "lulesh",
            suite: Suite::Proxy,
            model: crate::proxy::lulesh::model,
        },
    ]
}

/// Look up an application by name.
pub fn app(name: &str) -> Option<&'static AppSpec> {
    apps().iter().find(|a| a.name == name)
}

/// Whether `name` was executed on `arch` in the study (never, for a name
/// the catalog does not hold).
pub fn available_on(name: &str, arch: Arch) -> bool {
    match (name, arch) {
        // Sort and Strassen ran on A64FX only (paper Sec. V Q2 note).
        ("sort" | "strassen", Arch::Skylake | Arch::Milan) => false,
        // Health is additionally missing on Skylake (12 apps there).
        ("health", Arch::Skylake) => false,
        _ => app(name).is_some(),
    }
}

/// Paper-roster applications available on `arch`, in catalog order.
pub fn apps_on(arch: Arch) -> Vec<&'static AppSpec> {
    apps()
        .iter()
        .filter(|a| available_on(a.name, arch))
        .collect()
}

/// The settings swept for `app` on `arch` (paper Sec. IV-B).
pub fn settings_for(app: &AppSpec, arch: Arch) -> Vec<Setting> {
    let cores = arch.cores();
    match app.suite {
        Suite::Npb | Suite::Bots => (0..3)
            .map(|input_code| Setting {
                input_code,
                num_threads: cores,
            })
            .collect(),
        Suite::Proxy => [cores / 4, cores / 2, cores]
            .into_iter()
            .map(|num_threads| Setting {
                input_code: 1,
                num_threads,
            })
            .collect(),
    }
}

/// Input-size multiplier used by the model builders: class 0/1/2 scale
/// work geometrically, mirroring NPB class steps.
pub fn size_mult(input_code: u32) -> f64 {
    match input_code {
        0 => 1.0,
        1 => 3.0,
        _ => 9.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fifteen_apps_registered() {
        assert_eq!(apps().len(), 15);
        let mut names: Vec<&str> = apps().iter().map(|a| a.name).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), 15, "duplicate app names");
    }

    #[test]
    fn table2_application_counts() {
        assert_eq!(apps_on(Arch::A64fx).len(), 15);
        assert_eq!(apps_on(Arch::Milan).len(), 13);
        assert_eq!(apps_on(Arch::Skylake).len(), 12);
    }

    #[test]
    fn npb_varies_input_at_full_threads() {
        let cg = app("cg").unwrap();
        let s = settings_for(cg, Arch::Milan);
        assert_eq!(s.len(), 3);
        assert!(s.iter().all(|x| x.num_threads == 96));
        assert_eq!(
            s.iter().map(|x| x.input_code).collect::<Vec<_>>(),
            vec![0, 1, 2]
        );
    }

    #[test]
    fn proxy_varies_threads_at_default_input() {
        let xs = app("xsbench").unwrap();
        let s = settings_for(xs, Arch::Skylake);
        assert_eq!(
            s.iter().map(|x| x.num_threads).collect::<Vec<_>>(),
            vec![10, 20, 40]
        );
        assert!(s.iter().all(|x| x.input_code == 1));
    }

    #[test]
    fn all_models_build_on_all_available_archs() {
        for arch in Arch::ALL {
            for a in apps_on(arch) {
                for s in settings_for(a, arch) {
                    let m = (a.model)(arch, s);
                    assert_eq!(m.name, a.name);
                    assert!(m.timesteps >= 1);
                    assert!(!m.phases.is_empty());
                    assert!(m.total_cycles() > 0.0, "{} has no work", a.name);
                }
            }
        }
    }

    #[test]
    fn size_mult_is_monotone() {
        assert!(size_mult(0) < size_mult(1));
        assert!(size_mult(1) < size_mult(2));
    }

    #[test]
    fn unknown_app_is_none() {
        assert!(app("miniFE").is_none());
        assert!(Arch::ALL.iter().all(|&arch| !available_on("miniFE", arch)));
    }
}
