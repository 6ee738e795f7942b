//! The one slice `omptel-report`, `ompprof` and `ompwatt` profile: a
//! strided sweep of an application's largest setting on one architecture,
//! catalog position 0, default seed. The three tools' figures (the
//! recorded 143.57x CG/Milan gap among them) agree because they call this.

use crate::{RawSample, Scope, SettingData, SweepOptions, SweepSpec, SweepStats};
use omptune_core::{Arch, TuningConfig};
use workloads::{AppSpec, Setting};

/// A swept report slice and what it was swept from.
pub struct ReportSlice {
    pub arch: Arch,
    pub app: &'static AppSpec,
    /// The application's largest setting on `arch`.
    pub setting: Setting,
    pub spec: SweepSpec,
    pub data: SettingData,
    pub stats: SweepStats,
}

impl ReportSlice {
    /// Sweep every `scope`-th configuration of `app_name`'s largest
    /// setting on `arch`. The application name is outside input: unknown,
    /// or not run on `arch` in the study, is an error.
    pub fn sweep(
        arch: Arch,
        app_name: &str,
        scope: usize,
        opts: &SweepOptions,
    ) -> Result<ReportSlice, String> {
        let app = workloads::app(app_name).ok_or_else(|| format!("unknown app {app_name:?}"))?;
        if !workloads::available_on(app_name, arch) {
            return Err(format!("{app_name} is not available on {}", arch.id()));
        }
        let setting = workloads::settings_for(app, arch)
            .last()
            .copied()
            .ok_or_else(|| format!("{app_name} has no settings on {}", arch.id()))?;
        let spec = SweepSpec {
            scope: Scope::Strided(scope),
            ..SweepSpec::default()
        };
        let (data, stats) = crate::sweep_setting_scheduled(arch, app, setting, 0, &spec, opts);
        Ok(ReportSlice {
            arch,
            app,
            setting,
            spec,
            data,
            stats,
        })
    }

    /// The sample with the lowest mean runtime.
    pub fn fastest(&self) -> Result<&RawSample, String> {
        let samples = self.data.samples.iter();
        samples.min_by(by_mean_runtime).ok_or_else(empty)
    }

    /// The sample with the highest mean runtime.
    pub fn slowest(&self) -> Result<&RawSample, String> {
        let samples = self.data.samples.iter();
        samples.max_by(by_mean_runtime).ok_or_else(empty)
    }

    /// The simulation model of the slice's (architecture, setting).
    pub fn model(&self) -> simrt::Model {
        (self.app.model)(self.arch, self.setting)
    }

    /// [`summarize`] one configuration of the slice.
    pub fn summarize(&self, config: &TuningConfig) -> Result<omptel::Summary, String> {
        summarize(self.arch, config, &self.model(), self.spec.seed)
    }
}

/// Region-level telemetry of one configuration: re-simulate it under an
/// exclusive session, so the summary carries region profiles on top of the
/// sink totals a sample keeps.
pub fn summarize(
    arch: Arch,
    config: &TuningConfig,
    model: &simrt::Model,
    seed: u64,
) -> Result<omptel::Summary, String> {
    let session = omptel::session().map_err(|e| format!("telemetry session: {e}"))?;
    simrt::simulate(arch, config, model, seed);
    Ok(session.finish().summary())
}

fn by_mean_runtime(a: &&RawSample, b: &&RawSample) -> std::cmp::Ordering {
    a.mean_runtime().total_cmp(&b.mean_runtime())
}

fn empty() -> String {
    "empty sweep".to_string()
}
