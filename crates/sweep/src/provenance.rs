//! Sweep provenance: enough metadata per sample to re-derive it from
//! scratch, plus a structured manifest for the whole collection run.
//!
//! The paper's dataset mixes three clusters, months of collection, and
//! cleaning passes — provenance is what lets a published number be traced
//! back to the exact (config, seed, noise stream) that produced it. Every
//! record is one JSON line (append-friendly, `grep`-able); the manifest
//! is one pretty-printed JSON document per run.

use crate::runner::{noise_stream, RawSample, SampleTelemetry, SettingData};
use crate::schedule::SweepStats;
use crate::spec::SweepSpec;
use omptune_core::{Fnv1a, TuningConfig};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io::{self, Write};

/// FNV-1a over the canonical JSON encoding of a configuration — a stable
/// content hash usable as a join key across exports. The JSON is hashed
/// as it is written; no text is kept.
pub fn config_hash(config: &TuningConfig) -> u64 {
    let mut h = Fnv1a::new();
    serde_json::to_writer(&mut h, config).expect("config serializes");
    h.finish()
}

/// [`config_hash`], remembered per distinct configuration: a sweep
/// repeats each configuration across settings (13x at `collect fast`),
/// and a table lookup is cheaper than the JSON encode.
#[derive(Default)]
struct ConfigHashes(HashMap<TuningConfig, u64>);

impl ConfigHashes {
    fn get(&mut self, config: &TuningConfig) -> u64 {
        *self.0.entry(*config).or_insert_with(|| config_hash(config))
    }
}

/// FNV-1a over a configuration's fields directly, one round per field
/// ([`Fnv1a::mix`]) — no serialization, so a fingerprint costs eight
/// integer folds instead of a JSON encode. This is the hot-path content
/// address the binary sample cache stores and verifies on every warm
/// lookup (a change to it is a new cache container); [`config_hash`]
/// remains the archival join key (the two are different hash domains
/// and never compared to each other).
pub fn config_fingerprint(config: &TuningConfig) -> u64 {
    let mut h = Fnv1a::new();
    for field in [
        config.places as u64,
        config.proc_bind as u64,
        config.schedule as u64,
        config.library as u64,
        config.blocktime as u64,
        config.force_reduction as u64,
        config.align_alloc.0 as u64,
        config.num_threads as u64,
    ] {
        h.mix(field);
    }
    h.finish()
}

/// Everything needed to reproduce (and audit) one sample: a
/// [`ProvenanceRow`] that owns its data, and is written as one.
#[derive(Debug, Clone, PartialEq, Deserialize)]
pub struct SampleProvenance {
    pub arch: String,
    pub app: String,
    pub input_code: u32,
    pub num_threads: usize,
    /// Position in the odometer order of the configuration space.
    pub config_index: usize,
    /// Content hash of the configuration (FNV-1a of canonical JSON).
    pub config_hash: u64,
    /// Master seed the simulation and noise drew from.
    pub seed: u64,
    /// The identity-derived noise stream of this sample.
    pub noise_stream: u64,
    /// Measured repetition times (seconds, noise applied; NaN = failed).
    pub rep_times: Vec<f64>,
    /// Virtual-time counter summary of the underlying simulation.
    pub telemetry: SampleTelemetry,
}

impl Serialize for SampleProvenance {
    fn serialize<S: serde::Sink>(&self, sink: &mut S) -> Result<(), S::Error> {
        ProvenanceRow::from(self).serialize(sink)
    }
}

/// One line of `provenance.jsonl`, borrowing its text and numbers from
/// the batch it describes (or from a [`SampleProvenance`]): the one
/// writer of the format. Fields as [`SampleProvenance`] documents them.
#[derive(Debug)]
pub struct ProvenanceRow<'a> {
    arch: &'a str,
    app: &'a str,
    input_code: u32,
    num_threads: usize,
    config_index: usize,
    config_hash: u64,
    seed: u64,
    noise_stream: u64,
    rep_times: &'a [f64],
    telemetry: &'a SampleTelemetry,
}

impl<'a> ProvenanceRow<'a> {
    /// The row of `sample` within its batch, given its `config_hash`.
    fn of(
        data: &'a SettingData,
        sample: &'a RawSample,
        spec: &SweepSpec,
        config_hash: u64,
    ) -> ProvenanceRow<'a> {
        ProvenanceRow {
            arch: data.key.arch.id(),
            app: &data.key.app,
            input_code: data.key.input_code,
            num_threads: data.key.num_threads,
            config_index: sample.config_index,
            config_hash,
            seed: spec.seed,
            noise_stream: noise_stream(&data.key, sample.config_index),
            rep_times: &sample.runtimes,
            telemetry: &sample.telemetry,
        }
    }

    /// The record that owns a copy of this row.
    fn to_record(&self) -> SampleProvenance {
        SampleProvenance {
            arch: self.arch.to_string(),
            app: self.app.to_string(),
            input_code: self.input_code,
            num_threads: self.num_threads,
            config_index: self.config_index,
            config_hash: self.config_hash,
            seed: self.seed,
            noise_stream: self.noise_stream,
            rep_times: self.rep_times.to_vec(),
            telemetry: self.telemetry.clone(),
        }
    }
}

impl<'a> From<&'a SampleProvenance> for ProvenanceRow<'a> {
    fn from(record: &'a SampleProvenance) -> ProvenanceRow<'a> {
        ProvenanceRow {
            arch: &record.arch,
            app: &record.app,
            input_code: record.input_code,
            num_threads: record.num_threads,
            config_index: record.config_index,
            config_hash: record.config_hash,
            seed: record.seed,
            noise_stream: record.noise_stream,
            rep_times: &record.rep_times,
            telemetry: &record.telemetry,
        }
    }
}

// Hand-written: the derive takes no lifetime parameter. The fields and
// their order are `SampleProvenance`'s, which reads the text back.
impl Serialize for ProvenanceRow<'_> {
    fn serialize<S: serde::Sink>(&self, sink: &mut S) -> Result<(), S::Error> {
        sink.map_begin()?;
        sink.field("arch", self.arch)?;
        sink.field("app", self.app)?;
        sink.field("input_code", &self.input_code)?;
        sink.field("num_threads", &self.num_threads)?;
        sink.field("config_index", &self.config_index)?;
        sink.field("config_hash", &self.config_hash)?;
        sink.field("seed", &self.seed)?;
        sink.field("noise_stream", &self.noise_stream)?;
        sink.field("rep_times", self.rep_times)?;
        sink.field("telemetry", self.telemetry)?;
        sink.map_end()
    }
}

/// FNV-1a fingerprint of a sweep slice: every sample's identity (key,
/// config index) and raw runtime bit patterns, folded in sweep order.
/// Two slices fingerprint equal iff they contain the same samples with
/// bit-identical measurements — the provenance stamp `ompprof` writes
/// into attribution profiles so a profile can be matched to the exact
/// slice that produced it. Order-dependent by design (it names a slice,
/// not a set).
pub fn slice_fingerprint(batches: &[SettingData]) -> u64 {
    let mut h = Fnv1a::new();
    let mut hashes = ConfigHashes::default();
    for data in batches {
        h.eat_u64(noise_stream(&data.key, 0));
        for t in &data.default_runtimes {
            h.eat_u64(t.to_bits());
        }
        for sample in &data.samples {
            h.eat_u64(sample.config_index as u64);
            h.eat_u64(hashes.get(&sample.config));
            for t in &sample.runtimes {
                h.eat_u64(t.to_bits());
            }
        }
    }
    h.finish()
}

/// The provenance row of every sample of a batch list, in sweep order,
/// each borrowing from its batch.
pub fn provenance_rows<'a>(
    batches: &'a [SettingData],
    spec: &'a SweepSpec,
) -> impl Iterator<Item = ProvenanceRow<'a>> + 'a {
    let mut hashes = ConfigHashes::default();
    batches
        .iter()
        .flat_map(|data| data.samples.iter().map(move |s| (data, s)))
        .map(move |(data, s)| ProvenanceRow::of(data, s, spec, hashes.get(&s.config)))
}

/// Provenance records for every sample of a batch list, in sweep order:
/// [`provenance_rows`], each copied into a record of its own.
pub fn provenance_of(batches: &[SettingData], spec: &SweepSpec) -> Vec<SampleProvenance> {
    provenance_rows(batches, spec)
        .map(|row| row.to_record())
        .collect()
}

/// Write provenance as JSON lines (one sample per line), all through one
/// JSON sink. Takes records by reference (`&[SampleProvenance]`) or rows
/// (a lazy [`provenance_rows`], which copies nothing).
pub fn write_provenance_jsonl<'a, W, I>(records: I, out: &mut W) -> io::Result<()>
where
    W: Write,
    I: IntoIterator,
    I::Item: Into<ProvenanceRow<'a>>,
{
    let rows = records.into_iter().map(Into::into);
    serde_json::to_writer_lines(out, rows).map_err(io::Error::other)
}

/// Per-architecture slice of a collection run.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct ArchManifest {
    pub arch: String,
    pub settings: usize,
    pub samples: usize,
    pub dropped: usize,
    /// Wall-clock seconds this architecture's sweep took.
    pub elapsed_s: f64,
    /// Virtual-time telemetry aggregated over every sample.
    pub summary: omptel::Summary,
    /// Scheduler statistics (cache hits/misses, steals, units) as the
    /// scheduler reported them when this architecture finished: the
    /// plan, steal and unit counts are this architecture's own, the
    /// sample-cache pair is cumulative over the run's one cache handle
    /// ([`RunManifest::arch_lookups`] takes the difference).
    pub stats: SweepStats,
    /// Per-sample wall-latency distribution (log-bucketed; empty when
    /// the sweep ran without a progress meter).
    pub sample_latency: omptel::Histogram,
}

/// Structured manifest of one collection run: what was swept, with what
/// parameters, and what came out.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct RunManifest {
    /// Human-readable scope, e.g. `"PaperSized"`.
    pub scope: String,
    pub reps: u32,
    pub seed: u64,
    pub failure_rate: f64,
    pub arches: Vec<ArchManifest>,
    pub total_samples: usize,
    pub total_dropped: usize,
}

impl RunManifest {
    /// Manifest skeleton from the spec; architectures are pushed as their
    /// sweeps complete.
    pub fn new(spec: &SweepSpec) -> RunManifest {
        RunManifest {
            scope: format!("{:?}", spec.scope),
            reps: spec.reps,
            seed: spec.seed,
            failure_rate: spec.failure_rate,
            arches: Vec::new(),
            total_samples: 0,
            total_dropped: 0,
        }
    }

    /// Record one architecture's completed sweep.
    pub fn push_arch(
        &mut self,
        arch: omptune_core::Arch,
        batches: &[SettingData],
        dropped: usize,
        elapsed_s: f64,
        stats: SweepStats,
        sample_latency: omptel::Histogram,
    ) {
        let mut summary = omptel::Summary::default();
        let mut samples = 0usize;
        for b in batches {
            for s in &b.samples {
                s.telemetry.fold_into(&mut summary);
                samples += 1;
            }
        }
        self.arches.push(ArchManifest {
            arch: arch.id().to_string(),
            settings: batches.len(),
            samples,
            dropped,
            elapsed_s,
            summary,
            stats,
            sample_latency,
        });
        self.total_samples += samples;
        self.total_dropped += dropped;
    }

    /// Sample-cache `(hits, misses)` of architecture `i` alone: its
    /// cumulative `stats` pair less the previous architecture's.
    pub fn arch_lookups(&self, i: usize) -> (u64, u64) {
        let pair = |a: &ArchManifest| (a.stats.sample_hits, a.stats.sample_misses);
        let (hits, misses) = pair(&self.arches[i]);
        let (hits0, misses0) = i.checked_sub(1).map_or((0, 0), |p| pair(&self.arches[p]));
        (hits.saturating_sub(hits0), misses.saturating_sub(misses0))
    }
}

/// Write the manifest as pretty-printed JSON.
pub fn write_manifest<W: Write>(manifest: &RunManifest, out: &mut W) -> io::Result<()> {
    let text = serde_json::to_string_pretty(manifest).map_err(io::Error::other)?;
    out.write_all(text.as_bytes())?;
    out.write_all(b"\n")
}

/// Parse a manifest back.
pub fn read_manifest(data: &[u8]) -> io::Result<RunManifest> {
    serde_json::from_slice(data).map_err(io::Error::other)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Scope;
    use omptune_core::Arch;
    use workloads::Setting;

    fn tiny_batch() -> (Vec<SettingData>, SweepSpec) {
        let spec = SweepSpec {
            scope: Scope::Strided(800),
            reps: 2,
            seed: 11,
            failure_rate: 0.0,
        };
        let app = workloads::app("ep").unwrap();
        let setting = Setting {
            input_code: 0,
            num_threads: 40,
        };
        let data = crate::runner::sweep_setting(Arch::Skylake, app, setting, 0, &spec);
        (vec![data], spec)
    }

    #[test]
    fn provenance_covers_every_sample_and_roundtrips() {
        let (batches, spec) = tiny_batch();
        let records = provenance_of(&batches, &spec);
        assert_eq!(records.len(), batches[0].samples.len());
        for (r, s) in records.iter().zip(&batches[0].samples) {
            assert_eq!(r.config_index, s.config_index);
            assert_eq!(r.config_hash, config_hash(&s.config));
            assert_eq!(
                r.noise_stream,
                noise_stream(&batches[0].key, s.config_index)
            );
            assert_eq!(r.rep_times, s.runtimes);
            assert_eq!(r.seed, 11);
        }
        let mut buf = Vec::new();
        write_provenance_jsonl(&records, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        assert_eq!(text.lines().count(), records.len());
        let back: Vec<SampleProvenance> = text
            .lines()
            .map(|line| serde_json::from_str(line).unwrap())
            .collect();
        assert_eq!(back, records);
        // Fed rows lazily, the writer produces the same bytes.
        let mut lazy = Vec::new();
        write_provenance_jsonl(provenance_rows(&batches, &spec), &mut lazy).unwrap();
        assert_eq!(lazy, text.as_bytes());
    }

    #[test]
    fn config_hash_distinguishes_configs() {
        let (batches, _) = tiny_batch();
        let hashes: std::collections::HashSet<u64> = batches[0]
            .samples
            .iter()
            .map(|s| config_hash(&s.config))
            .collect();
        assert_eq!(hashes.len(), batches[0].samples.len(), "hash collision");
        // Stable across calls.
        let c = &batches[0].samples[0].config;
        assert_eq!(config_hash(c), config_hash(c));
    }

    #[test]
    fn config_fingerprint_distinguishes_configs() {
        let (batches, _) = tiny_batch();
        let prints: std::collections::HashSet<u64> = batches[0]
            .samples
            .iter()
            .map(|s| config_fingerprint(&s.config))
            .collect();
        assert_eq!(
            prints.len(),
            batches[0].samples.len(),
            "fingerprint collision"
        );
        let c = &batches[0].samples[0].config;
        assert_eq!(config_fingerprint(c), config_fingerprint(c));
        // Every field participates.
        let base = omptune_core::TuningConfig::default_for(Arch::Milan, 48);
        let fp = config_fingerprint(&base);
        let mut v = base;
        v.align_alloc = omptune_core::KmpAlignAlloc(base.align_alloc.0 ^ 4096);
        assert_ne!(config_fingerprint(&v), fp);
        let mut v = base;
        v.num_threads += 1;
        assert_ne!(config_fingerprint(&v), fp);
    }

    /// The sample cache tells configurations apart by fingerprint alone
    /// once their index matches, so no two points of any space may share
    /// one.
    #[test]
    fn config_fingerprints_are_distinct_over_every_space() {
        for arch in Arch::ALL {
            let space = omptune_core::ConfigSpace::new(arch, arch.cores());
            let prints: std::collections::HashSet<u64> =
                space.iter().map(|c| config_fingerprint(&c)).collect();
            assert_eq!(prints.len(), space.len(), "{arch:?}");
        }
    }

    #[test]
    fn slice_fingerprint_names_the_exact_slice() {
        let (batches, _) = tiny_batch();
        // Stable across calls on identical data.
        assert_eq!(slice_fingerprint(&batches), slice_fingerprint(&batches));
        // Any measurement perturbation changes the name — even one ULP.
        let mut bumped = batches.clone();
        let t = bumped[0].samples[0].runtimes[0];
        bumped[0].samples[0].runtimes[0] = f64::from_bits(t.to_bits() ^ 1);
        assert_ne!(slice_fingerprint(&batches), slice_fingerprint(&bumped));
        // Dropping a sample changes it too.
        let mut shorter = batches.clone();
        shorter[0].samples.pop();
        assert_ne!(slice_fingerprint(&batches), slice_fingerprint(&shorter));
        // The empty slice has a well-defined fingerprint (FNV offset).
        assert_eq!(slice_fingerprint(&[]), 0xcbf29ce484222325);
    }

    #[test]
    fn manifest_aggregates_and_roundtrips() {
        let (batches, spec) = tiny_batch();
        let mut manifest = RunManifest::new(&spec);
        let stats = SweepStats {
            sample_misses: 7,
            steals: 2,
            units: 5,
            ..SweepStats::default()
        };
        let mut lat = omptel::Histogram::new();
        lat.record(1_000);
        lat.record(2_000_000);
        manifest.push_arch(Arch::Skylake, &batches, 1, 0.25, stats, lat);
        assert_eq!(manifest.arches.len(), 1);
        let am = &manifest.arches[0];
        assert_eq!(am.arch, "skylake");
        assert_eq!(am.stats, stats);
        assert_eq!(am.sample_latency.count, 2);
        assert_eq!(am.samples, batches[0].samples.len());
        assert_eq!(am.summary.regions as usize, {
            batches[0]
                .samples
                .iter()
                .map(|s| s.telemetry.regions as usize)
                .sum()
        });
        assert_eq!(manifest.total_samples, am.samples);
        assert_eq!(manifest.total_dropped, 1);

        let mut buf = Vec::new();
        write_manifest(&manifest, &mut buf).unwrap();
        assert_eq!(read_manifest(&buf).unwrap(), manifest);
    }
}
