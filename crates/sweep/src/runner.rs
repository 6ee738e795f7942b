//! The sweep runner: executes (architecture × application × setting ×
//! configuration × repetition) on the simulator, with the
//! architecture-dependent noise model applied per repetition.
//!
//! Determinism: a sample's noise stream is derived from its identity
//! (arch, app, setting, config index), never from evaluation order, so a
//! partial or parallel sweep produces byte-identical samples.

use crate::spec::{configs_for, SweepSpec};
use archsim::NoiseModel;
use omptune_core::{Arch, Fnv1a, TuningConfig};
use serde::{Deserialize, Serialize};
use workloads::{AppSpec, Setting};

/// Identity of one sweep batch.
#[derive(Clone)]
pub struct RunKey {
    pub arch: Arch,
    pub app: String,
    pub input_code: u32,
    pub num_threads: usize,
    /// Lazily-built cache-file stem (`<app>-i<input>-t<threads>`), so
    /// warm cache traffic never re-formats batch paths. Derived from
    /// the identity fields; excluded from equality, hashing, and serde.
    stem: std::sync::OnceLock<String>,
}

impl RunKey {
    /// A batch identity. Use this (not a struct literal) so the derived
    /// path stem starts unset.
    pub fn new(arch: Arch, app: impl Into<String>, input_code: u32, num_threads: usize) -> RunKey {
        RunKey {
            arch,
            app: app.into(),
            input_code,
            num_threads,
            stem: std::sync::OnceLock::new(),
        }
    }

    /// The batch-file stem `<app>-i<input>-t<threads>`, formatted once
    /// per key and cached.
    pub fn stem(&self) -> &str {
        self.stem
            .get_or_init(|| format!("{}-i{}-t{}", self.app, self.input_code, self.num_threads))
    }
}

impl PartialEq for RunKey {
    fn eq(&self, other: &RunKey) -> bool {
        self.arch == other.arch
            && self.app == other.app
            && self.input_code == other.input_code
            && self.num_threads == other.num_threads
    }
}

impl Eq for RunKey {}

impl std::hash::Hash for RunKey {
    fn hash<H: std::hash::Hasher>(&self, state: &mut H) {
        self.arch.hash(state);
        self.app.hash(state);
        self.input_code.hash(state);
        self.num_threads.hash(state);
    }
}

impl std::fmt::Debug for RunKey {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("RunKey")
            .field("arch", &self.arch)
            .field("app", &self.app)
            .field("input_code", &self.input_code)
            .field("num_threads", &self.num_threads)
            .finish()
    }
}

// Hand-written (not derived) so the lazy `stem` stays out of the
// serialized form; the encoding matches what the derive produced before
// the stem existed, so persisted keys parse unchanged.
impl Serialize for RunKey {
    fn serialize<S: serde::Sink>(&self, sink: &mut S) -> Result<(), S::Error> {
        sink.map_begin()?;
        sink.entry("arch", &self.arch)?;
        sink.entry("app", &self.app)?;
        sink.entry("input_code", &self.input_code)?;
        sink.entry("num_threads", &self.num_threads)?;
        sink.map_end()
    }
}

impl Deserialize for RunKey {
    fn deserialize<'de, S: serde::Source<'de>>(source: &mut S) -> Result<Self, serde::Error> {
        #[derive(Deserialize)]
        struct Fields {
            arch: Arch,
            app: String,
            input_code: u32,
            num_threads: usize,
        }
        let f = Fields::deserialize(source)?;
        Ok(RunKey::new(f.arch, f.app, f.input_code, f.num_threads))
    }
}

/// Telemetry attached to every sample: the simulator's virtual-time
/// view of the noiseless run the repetitions perturb. The breakdown is
/// closed against the total (components sum to `virtual_ns` exactly,
/// uncharged idle time folded into the imbalance sink), so downstream
/// aggregation via [`omptel::Summary::add_aggregate`] needs no fixup.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct SampleTelemetry {
    /// End-to-end virtual runtime in nanoseconds (pre-noise).
    pub virtual_ns: f64,
    /// Parallel regions executed over the whole run.
    pub regions: u64,
    /// Where the virtual time went, summing to `virtual_ns`.
    pub breakdown: omptel::Breakdown,
    /// Where the energy went: the run priced under the architecture's
    /// power model ([`simrt::price_energy`]), joules. A pure function of
    /// (arch, config, breakdown), so it reproduces bit-identically on
    /// every path — and can be recomputed for cache records that predate
    /// the energy format.
    pub energy: omptel::EnergyBreakdown,
}

impl SampleTelemetry {
    /// The telemetry of one simulated run of `config`: its breakdown
    /// closed against the total, and its energy priced.
    pub(crate) fn from_sim(
        arch: Arch,
        config: &TuningConfig,
        sim: &simrt::SimResult,
    ) -> SampleTelemetry {
        let breakdown = sim.breakdown.to_tel().close_to_total(sim.total_ns);
        let energy = simrt::price_energy(arch, config, &breakdown, sim.total_ns, sim.regions);
        SampleTelemetry {
            virtual_ns: sim.total_ns,
            regions: sim.regions,
            breakdown,
            energy,
        }
    }

    /// Fold this sample into a telemetry summary.
    pub fn fold_into(&self, s: &mut omptel::Summary) {
        s.add_aggregate(self.virtual_ns, &self.breakdown, self.regions);
    }

    /// The bits of every number the block holds, in field order: equal
    /// keys serialize to equal text. Destructured to the last field, so
    /// a field added to any of the three structs fails to compile here.
    fn memo_key(&self) -> [u64; 15] {
        let SampleTelemetry {
            virtual_ns,
            regions,
            breakdown,
            energy,
        } = self;
        let omptel::Breakdown {
            compute_ns,
            memory_ns,
            sync_ns,
            wake_ns,
            dispatch_ns,
            serial_ns,
            imbalance_ns,
        } = breakdown;
        let omptel::EnergyBreakdown {
            total_j,
            active_j,
            memory_j,
            wait_j,
            serial_j,
            base_j,
        } = energy;
        [
            virtual_ns.to_bits(),
            *regions,
            compute_ns.to_bits(),
            memory_ns.to_bits(),
            sync_ns.to_bits(),
            wake_ns.to_bits(),
            dispatch_ns.to_bits(),
            serial_ns.to_bits(),
            imbalance_ns.to_bits(),
            total_j.to_bits(),
            active_j.to_bits(),
            memory_j.to_bits(),
            wait_j.to_bits(),
            serial_j.to_bits(),
            base_j.to_bits(),
        ]
    }
}

// Hand-written (not derived) to hand the block to the sink's memo: most
// configurations of a setting price to the same telemetry, and a JSON
// sink writes each distinct block once per document. The fields and
// their order are the derive's.
impl Serialize for SampleTelemetry {
    fn serialize<S: serde::Sink>(&self, sink: &mut S) -> Result<(), S::Error> {
        struct Fields<'a>(&'a SampleTelemetry);
        impl Serialize for Fields<'_> {
            fn serialize<S: serde::Sink>(&self, sink: &mut S) -> Result<(), S::Error> {
                let t = self.0;
                sink.map_begin()?;
                sink.field("virtual_ns", &t.virtual_ns)?;
                sink.field("regions", &t.regions)?;
                sink.field("breakdown", &t.breakdown)?;
                sink.field("energy", &t.energy)?;
                sink.map_end()
            }
        }
        sink.memo(&self.memo_key(), &Fields(self))
    }
}

/// One raw sample: a configuration with its repeated "measurements"
/// (virtual seconds perturbed by the noise model).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RawSample {
    pub config_index: usize,
    pub config: TuningConfig,
    /// One runtime (seconds) per repetition, R0..R{reps-1}.
    pub runtimes: Vec<f64>,
    /// Virtual-time telemetry of the underlying simulation.
    pub telemetry: SampleTelemetry,
}

impl RawSample {
    /// Mean runtime across repetitions — the paper averages repetitions
    /// per configuration to mitigate noise (Sec. IV-C).
    pub fn mean_runtime(&self) -> f64 {
        self.runtimes.iter().sum::<f64>() / self.runtimes.len() as f64
    }
}

/// All samples of one (arch, app, setting) batch, plus the default
/// configuration's runtimes the speedups are measured against.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SettingData {
    pub key: RunKey,
    pub samples: Vec<RawSample>,
    /// Repeated runtimes of the default configuration of this setting.
    pub default_runtimes: Vec<f64>,
    /// Virtual-time telemetry of the default configuration's simulation.
    pub default_telemetry: SampleTelemetry,
}

impl SettingData {
    /// Mean default runtime.
    pub fn default_mean(&self) -> f64 {
        self.default_runtimes.iter().sum::<f64>() / self.default_runtimes.len() as f64
    }

    /// Speedup of one sample over the default (ratio of averaged runs).
    pub fn speedup(&self, sample: &RawSample) -> f64 {
        self.default_mean() / sample.mean_runtime()
    }
}

/// Stable stream id for the noise model from the sample identity. Public
/// so provenance records can name the exact stream a sample drew from.
pub fn noise_stream(key: &RunKey, config_index: usize) -> u64 {
    let mut h = Fnv1a::new();
    h.mix(key.arch as u64);
    for byte in key.app.bytes() {
        h.mix(byte as u64);
    }
    h.mix(key.input_code as u64);
    h.mix(key.num_threads as u64);
    h.mix(config_index as u64);
    h.finish()
}

/// Deterministic uniform in [0, 1) for failure injection.
fn failure_roll(seed: u64, stream: u64, rep: u32) -> f64 {
    let z = seed ^ stream.rotate_left(17) ^ ((rep as u64) << 48) ^ 0xFA11_FA11;
    (omptune_core::splitmix64(z) >> 11) as f64 / (1u64 << 53) as f64
}

/// Turn one simulation result into a sample: telemetry plus noised
/// (and failure-injected) repetition times. Repetitions hit by the
/// failure model record `NaN` ("the job died"), to be dropped by the
/// cleaning pass. The sequential [`sweep_setting`] and the scheduler's
/// batch pricing both end here, so their samples agree bit for bit.
pub(crate) fn sample_from_sim(
    key: &RunKey,
    sim: &simrt::SimResult,
    config: &TuningConfig,
    config_index: usize,
    spec: &SweepSpec,
    noise: &NoiseModel,
) -> (Vec<f64>, SampleTelemetry) {
    let telemetry = SampleTelemetry::from_sim(key.arch, config, sim);
    omptel::add(omptel::Counter::EnergySamples, 1);
    omptel::add(
        omptel::Counter::EnergyUj,
        (telemetry.energy.total_j * 1e6) as u64,
    );
    omptel::add(
        omptel::Counter::EnergyWaitUj,
        (telemetry.energy.wait_j * 1e6) as u64,
    );
    let base = sim.seconds();
    let stream = noise_stream(key, config_index);
    let runtimes = (0..spec.reps)
        .map(|rep| {
            if spec.failure_rate > 0.0 && failure_roll(spec.seed, stream, rep) < spec.failure_rate {
                f64::NAN
            } else {
                base * noise.factor(spec.seed, stream, rep)
            }
        })
        .collect();
    (runtimes, telemetry)
}

/// The workload model of one batch.
pub(crate) fn model_of(app: &AppSpec, key: &RunKey) -> simrt::Model {
    let setting = Setting {
        input_code: key.input_code,
        num_threads: key.num_threads,
    };
    (app.model)(key.arch, setting)
}

/// Run the full batch for one (arch, app, setting).
///
/// `setting_idx` is the setting's position in the architecture's sweep
/// order (it determines the paper-sized sample count).
pub fn sweep_setting(
    arch: Arch,
    app: &AppSpec,
    setting: Setting,
    setting_idx: usize,
    spec: &SweepSpec,
) -> SettingData {
    let key = RunKey::new(arch, app.name, setting.input_code, setting.num_threads);
    let noise = NoiseModel::for_machine(arch.id());
    let configs = configs_for(arch, setting.num_threads, setting_idx, spec.scope);

    let model = model_of(app, &key);
    let plans = simrt::PlanCache::new(arch, &model, spec.seed);
    let run_config = |config: &TuningConfig, config_index: usize| {
        let sim = simrt::simulate_with_cache(arch, config, &model, spec.seed, &plans);
        sample_from_sim(&key, &sim, config, config_index, spec, &noise)
    };

    let samples: Vec<RawSample> = configs
        .into_iter()
        .map(|(config_index, config)| {
            let (runtimes, telemetry) = run_config(&config, config_index);
            RawSample {
                config_index,
                runtimes,
                telemetry,
                config,
            }
        })
        .collect();

    // The default configuration is simulated explicitly (it may or may
    // not be among the sampled rows) with its own noise stream.
    let default_config = TuningConfig::default_for(arch, setting.num_threads);
    let (default_runtimes, default_telemetry) = run_config(&default_config, usize::MAX);

    SettingData {
        key,
        samples,
        default_runtimes,
        default_telemetry,
    }
}

/// The (app, setting, setting-index) work list for one architecture, in
/// catalog order: the setting indices [`Scope::PaperSized`] is sized by.
pub(crate) fn work_list(arch: Arch) -> Vec<(&'static workloads::AppSpec, Setting, usize)> {
    let mut out = Vec::new();
    let mut setting_idx = 0;
    for app in workloads::apps_on(arch) {
        for setting in workloads::settings_for(app, arch) {
            out.push((app, setting, setting_idx));
            setting_idx += 1;
        }
    }
    out
}

/// Sweep everything available on one architecture, in catalog order.
pub fn sweep_arch(arch: Arch, spec: &SweepSpec) -> Vec<SettingData> {
    work_list(arch)
        .into_iter()
        .map(|(app, setting, idx)| sweep_setting(arch, app, setting, idx, spec))
        .collect()
}

/// Sweep all three architectures (the paper's full data collection).
pub fn sweep_all(spec: &SweepSpec) -> Vec<SettingData> {
    Arch::ALL
        .iter()
        .flat_map(|&arch| sweep_arch(arch, spec))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Scope;

    fn tiny_spec() -> SweepSpec {
        SweepSpec {
            scope: Scope::Strided(400),
            reps: 3,
            seed: 42,
            failure_rate: 0.0,
        }
    }

    #[test]
    fn sweep_is_deterministic() {
        let app = workloads::app("cg").unwrap();
        let setting = Setting {
            input_code: 0,
            num_threads: 40,
        };
        let a = sweep_setting(Arch::Skylake, app, setting, 0, &tiny_spec());
        let b = sweep_setting(Arch::Skylake, app, setting, 0, &tiny_spec());
        assert_eq!(a, b);
    }

    #[test]
    fn runtimes_positive_and_rep_count_honoured() {
        let app = workloads::app("ep").unwrap();
        let setting = Setting {
            input_code: 0,
            num_threads: 48,
        };
        let data = sweep_setting(Arch::A64fx, app, setting, 0, &tiny_spec());
        assert!(!data.samples.is_empty());
        for s in &data.samples {
            assert_eq!(s.runtimes.len(), 3);
            assert!(s.runtimes.iter().all(|r| *r > 0.0 && r.is_finite()));
        }
        assert_eq!(data.default_runtimes.len(), 3);
    }

    #[test]
    fn default_speedup_is_about_one() {
        // A sampled row equal to the default config must have speedup ~1
        // (exactly 1 up to noise).
        let app = workloads::app("ep").unwrap();
        let setting = Setting {
            input_code: 0,
            num_threads: 48,
        };
        let spec = SweepSpec {
            scope: Scope::Full,
            reps: 3,
            seed: 7,
            failure_rate: 0.0,
        };
        let data = sweep_setting(Arch::A64fx, app, setting, 0, &spec);
        let default_row = data
            .samples
            .iter()
            .find(|s| s.config.is_default(Arch::A64fx))
            .expect("full scope contains the default");
        let sp = data.speedup(default_row);
        assert!((sp - 1.0).abs() < 0.01, "speedup {sp}");
    }

    #[test]
    fn sample_telemetry_breakdown_sums_to_virtual_time() {
        let app = workloads::app("cg").unwrap();
        let setting = Setting {
            input_code: 0,
            num_threads: 96,
        };
        let data = sweep_setting(Arch::Milan, app, setting, 0, &tiny_spec());
        for s in &data.samples {
            let t = &s.telemetry;
            assert!(t.virtual_ns > 0.0);
            assert!(t.regions > 0);
            let sum = t.breakdown.sum();
            assert!(
                (sum - t.virtual_ns).abs() <= t.virtual_ns * 1e-9,
                "config {}: breakdown sum {sum} != virtual {}",
                s.config_index,
                t.virtual_ns
            );
        }
        // Telemetry aggregates into a summary without losing regions.
        let mut summary = omptel::Summary::default();
        for s in &data.samples {
            s.telemetry.fold_into(&mut summary);
        }
        let expect: u64 = data.samples.iter().map(|s| s.telemetry.regions).sum();
        assert_eq!(summary.regions, expect);
    }

    #[test]
    fn milan_rep0_runs_visibly_slower() {
        // The Table IV drift pattern must be visible in raw samples.
        let app = workloads::app("alignment").unwrap();
        let setting = Setting {
            input_code: 0,
            num_threads: 96,
        };
        let data = sweep_setting(Arch::Milan, app, setting, 0, &tiny_spec());
        let mean_rep = |r: usize| {
            data.samples.iter().map(|s| s.runtimes[r]).sum::<f64>() / data.samples.len() as f64
        };
        assert!(mean_rep(0) > 1.15 * mean_rep(1), "missing batch drift");
    }

    /// Every sample's noise stream is identity-derived, so the
    /// work-stealing scheduler reproduces the sequential sweep at any
    /// worker count.
    #[test]
    fn parallel_sweep_is_byte_identical_to_sequential() {
        use crate::schedule::{sweep_arch_scheduled, SweepOptions};
        let spec = SweepSpec {
            scope: Scope::Strided(1500),
            reps: 2,
            seed: 3,
            failure_rate: 0.0,
        };
        let seq = sweep_arch(Arch::A64fx, &spec);
        for workers in [1usize, 2, 5] {
            let par = sweep_arch_scheduled(Arch::A64fx, &spec, &SweepOptions::new(workers));
            assert_eq!(par.batches, seq, "{workers} workers diverged");
        }
    }

    #[test]
    fn failure_injection_produces_nans_that_cleaning_drops() {
        let app = workloads::app("lu").unwrap();
        let setting = Setting {
            input_code: 0,
            num_threads: 40,
        };
        let spec = SweepSpec {
            scope: Scope::Strided(100),
            reps: 3,
            seed: 9,
            failure_rate: 0.15,
        };
        let mut data = sweep_setting(Arch::Skylake, app, setting, 0, &spec);
        let failed = data
            .samples
            .iter()
            .filter(|s| s.runtimes.iter().any(|r| r.is_nan()))
            .count();
        let n = data.samples.len();
        // ~1 - 0.85^3 = 38% of samples lose at least one rep.
        assert!(failed > n / 8 && failed < n * 3 / 4, "{failed}/{n} failed");
        let report = crate::dataset::clean(&mut data, 3);
        assert_eq!(report.dropped.len(), failed);
        assert!(data
            .samples
            .iter()
            .all(|s| s.runtimes.iter().all(|r| r.is_finite())));
        // Determinism extends to failures.
        let again = sweep_setting(Arch::Skylake, app, setting, 0, &spec);
        let failed_again = again
            .samples
            .iter()
            .filter(|s| s.runtimes.iter().any(|r| r.is_nan()))
            .count();
        assert_eq!(failed, failed_again);
    }

    #[test]
    fn arch_sweep_covers_all_settings() {
        let spec = SweepSpec {
            scope: Scope::Strided(2000),
            reps: 2,
            seed: 1,
            failure_rate: 0.0,
        };
        let data = sweep_arch(Arch::Skylake, &spec);
        assert_eq!(data.len(), 36);
        // Health and Sort/Strassen absent on Skylake.
        assert!(data.iter().all(|d| d.key.app != "health"));
        assert!(data.iter().all(|d| d.key.app != "sort"));
    }

    /// `t` with the lowest bit of its `field`-th number (memo-key order)
    /// flipped.
    fn nudged(t: &SampleTelemetry, field: usize) -> SampleTelemetry {
        let mut t = t.clone();
        let flip = |x: &mut f64| *x = f64::from_bits(x.to_bits() ^ 1);
        let (b, e) = (&mut t.breakdown, &mut t.energy);
        match field {
            0 => flip(&mut t.virtual_ns),
            1 => t.regions ^= 1,
            2 => flip(&mut b.compute_ns),
            3 => flip(&mut b.memory_ns),
            4 => flip(&mut b.sync_ns),
            5 => flip(&mut b.wake_ns),
            6 => flip(&mut b.dispatch_ns),
            7 => flip(&mut b.serial_ns),
            8 => flip(&mut b.imbalance_ns),
            9 => flip(&mut e.total_j),
            10 => flip(&mut e.active_j),
            11 => flip(&mut e.memory_j),
            12 => flip(&mut e.wait_j),
            13 => flip(&mut e.serial_j),
            14 => flip(&mut e.base_j),
            _ => unreachable!("a telemetry block holds 15 numbers"),
        }
        t
    }

    /// The JSON sink writes a telemetry block it has seen before as the
    /// text it recorded under the block's key, so the key must tell
    /// apart any two blocks that differ at all: one bit of one number
    /// is a different block, written as its own text.
    #[test]
    fn telemetries_one_bit_apart_are_written_apart() {
        let app = workloads::app("cg").unwrap();
        let setting = Setting {
            input_code: 0,
            num_threads: 96,
        };
        let data = sweep_setting(Arch::Milan, app, setting, 0, &tiny_spec());
        let base = data.samples[0].telemetry.clone();
        // Enough blocks ahead of the variant for the sink to memoize.
        let mut doc = vec![base.clone(); 64];
        for field in 0..15 {
            let variant = nudged(&base, field);
            let differs: Vec<usize> = (0..15)
                .filter(|&i| variant.memo_key()[i] != base.memo_key()[i])
                .collect();
            assert_eq!(differs, [field], "key word order");
            doc.push(variant.clone());
            let text = serde_json::to_string(&doc).unwrap();
            let back: Vec<SampleTelemetry> = serde_json::from_str(&text).unwrap();
            assert_eq!(back[0], base);
            assert_eq!(back.last(), Some(&variant), "field {field}");
            let one = serde_json::to_string(&variant).unwrap();
            assert!(text.ends_with(&format!(",{one}]")), "field {field}");
            doc.pop();
        }
    }
}
