//! The longitudinal run registry backing `ompobs`: an append-only,
//! content-addressed log of every collection run and bench invocation.
//!
//! A registry directory (`.ompobs/`) holds `registry.jsonl` — one JSON
//! record per run, append-only, never rewritten — and `registry.lock`,
//! the OS lock appends serialize on. Every record carries the content
//! address of its own core, so a damaged line degrades to
//! skip-with-counter on load (the [`SampleCache`](crate::SampleCache)
//! discipline): corruption costs one record, never the registry.
//!
//! Every record splits into two parts:
//!
//! - **`core`** — the content-addressed digest of what the run
//!   *computed*: sweep spec, per-arch per-stratum virtual-time series,
//!   per-app and per-(variable, value) cost digests (or, for bench
//!   records, the scalar and repetition arrays of a `BENCH_*.json`).
//!   Virtual time is deterministic given the seed, so the core — and
//!   therefore [`RunRecord::record_hash`] — is byte-identical at any
//!   worker count. `f64` figures are stored as `u64` bit patterns for
//!   exact round-trips.
//! - **`info`** — everything legitimately run-varying: wall time,
//!   worker count, scheduler steals, engine counters, the manifest
//!   digest, the timestamp. Informational only; never hashed.
//!
//! The split is what makes the registry a regression instrument: two
//! records with equal `record_hash` computed the same results, whatever
//! machine, worker count, or wall clock produced them.

use crate::runner::{RunKey, SettingData};
use crate::spec::{Scope, SweepSpec};
use omptune_core::{Fnv1a, Variable};
use serde::{Deserialize, Serialize, Sink, Source};
use std::fs;
use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

/// Schema marker of every JSONL line; a line carrying any other is
/// skipped and counted like a damaged one.
pub const SCHEMA: &str = "ompobs-run-v2";

/// Config strata every per-stratum series folds into
/// (`config_index % STRATA`) — here and in the series `ompobs drift`
/// folds from a run's dataset ([`crate::series`]).
pub const STRATA: usize = 8;

/// Per-stratum series tail retained in a record. The sentinel pairs
/// points positionally (tail-aligned, like ring files), so the tail is
/// the comparable region; capping it keeps record building — and the
/// record's serialized footprint, which the append path hashes and
/// writes on every run — a fixed cost per run, whatever the sweep's
/// scale.
pub const SERIES_RETAIN: usize = 16;

const KIND_COLLECT: u64 = 0;
const KIND_BENCH: u64 = 1;

// ---------------------------------------------------------------------------
// Hashing: [`Fnv1a`] over bytes for strings/files, and its
// word-at-a-time mix for the record core (the core is mostly u64 words;
// hashing words instead of rendered text keeps content addressing off
// the serialization hot path).

fn mix_str(h: &mut Fnv1a, s: &str) {
    h.mix(Fnv1a::of(s.as_bytes()));
    h.mix(s.len() as u64);
}

/// Content fingerprint of a sweep specification: two runs with equal
/// fingerprints swept the same space the same way, so the sentinel may
/// compare them point-for-point.
pub fn spec_fingerprint(spec: &SweepSpec) -> u64 {
    let mut h = Fnv1a::new();
    // Words 4 and 5 were the two retired pruned scopes: no new scope
    // takes them, so their recorded runs match none of these.
    match spec.scope {
        Scope::Full => h.mix(1),
        Scope::PaperSized => h.mix(2),
        Scope::Strided(n) => {
            h.mix(3);
            h.mix(n as u64);
        }
    }
    // Word 11 is the one roster's (the paper's): recorded fingerprints stay valid.
    h.mix(11);
    h.mix(spec.reps as u64);
    h.mix(spec.seed);
    h.mix(spec.failure_rate.to_bits());
    h.finish()
}

// ---------------------------------------------------------------------------
// The content-addressed core of a collection run.

/// One stratum's virtual-time series: one point per sample carrying the
/// simulation's deterministic `virtual_ns` (count 1, sum the ns figure),
/// ring-capped to the most recent [`SERIES_RETAIN`] points. Virtual
/// time is what the perturbation gate scales and what the sentinel
/// tests, and it lives inline in every sample — the fold never has to
/// chase the per-repetition runtime arrays.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct StratumSeries {
    /// Points folded over the whole run (retained + evicted).
    pub total: u64,
    /// Point count per retained entry (1 per sample), oldest first.
    pub counts: Vec<u64>,
    /// Virtual-ns figure per retained point, as `f64` bit patterns.
    pub sum_bits: Vec<u64>,
}

impl StratumSeries {
    /// Reference ring-append; [`ArchDigest::fold`] inlines the same
    /// discipline over flat arrays for speed, and
    /// `fold_matches_push_reference` pins the two together.
    #[cfg(test)]
    fn push(&mut self, count: u64, sum: f64) {
        if self.counts.len() < SERIES_RETAIN {
            self.counts.push(count);
            self.sum_bits.push(sum.to_bits());
        } else {
            let at = (self.total as usize) % SERIES_RETAIN;
            self.counts[at] = count;
            self.sum_bits[at] = sum.to_bits();
        }
        self.total += 1;
    }

    /// Restore oldest-first order after ring wrap.
    fn seal(&mut self) {
        if self.counts.len() == SERIES_RETAIN {
            let at = (self.total as usize) % SERIES_RETAIN;
            self.counts.rotate_left(at);
            self.sum_bits.rotate_left(at);
        }
    }

    /// Per-point mean repetition times, oldest first.
    pub fn means(&self) -> Vec<f64> {
        self.counts
            .iter()
            .zip(&self.sum_bits)
            .map(|(&c, &s)| f64::from_bits(s) / c.max(1) as f64)
            .collect()
    }
}

/// Aggregate cost of one application on one architecture.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct AppDigest {
    pub app: String,
    pub samples: u64,
    /// Summed virtual nanoseconds (whole-ns truncation per sample).
    pub virt_ns: u64,
    /// Summed modeled energy in microjoules (whole-µJ truncation per
    /// sample).
    pub energy_uj: u64,
}

/// Aggregate cost of one (variable, value) cell on one architecture.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CellDigest {
    /// The tuning variable's name (the field is the wire key).
    pub var: String,
    pub value: String,
    pub samples: u64,
    pub virt_ns: u64,
    /// Summed modeled energy in microjoules.
    pub energy_uj: u64,
}

/// Everything one architecture contributed to a run's core.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct ArchDigest {
    pub arch: String,
    pub settings: u64,
    pub samples: u64,
    pub dropped: u64,
    /// `virt[k]` = stratum `config_index % STRATA == k`.
    pub virt: Vec<StratumSeries>,
    /// Per-stratum energy series mirroring `virt`: `sum_bits` hold the
    /// per-sample `total_j` bit patterns (joules), same slots, same
    /// totals.
    pub energy: Vec<StratumSeries>,
    pub apps: Vec<AppDigest>,
    /// One cell per (variable, slot) of the variable table, flattened in
    /// [`Variable::ALL`] × slot order.
    pub cells: Vec<CellDigest>,
}

/// Slots a variable's cell row holds; the longest union domain
/// (`OMP_PROC_BIND`) has six.
const SLOT_CAP: usize = 6;

/// (samples, virt_ns, energy_uj) per cell, indexed `[variable][slot]`;
/// the triple is interleaved so a cell update touches adjacent words.
type CellTable = [[[u64; 3]; SLOT_CAP]; Variable::ALL.len()];

/// One batch's registry-digest contribution: flat fixed-size
/// accumulators a worker folds the moment it finalizes the batch —
/// while the samples are still cache-hot — so recording a run never
/// needs a second cold walk over every sample. Merged into an
/// [`ArchDigest`] in canonical batch order by
/// [`ArchDigest::from_partials`]; [`ArchDigest::fold`] is the
/// sequential composition of the two steps, so the split cannot drift
/// from the whole-batch definition.
#[derive(Debug, Clone)]
pub struct BatchPartial {
    samples: u64,
    virt: u64,
    energy_uj: u64,
    /// Stratum point counts (`config_index % STRATA`, positive finite
    /// virtual time only).
    strata_count: [u64; STRATA],
    /// Per-stratum ring of `virtual_ns` bit patterns: slot `s` holds
    /// the batch's last point with in-batch index ≡ s (mod RETAIN).
    strata_ring: [[u64; SERIES_RETAIN]; STRATA],
    /// Per-stratum ring of `total_j` bit patterns, written at exactly
    /// the `strata_ring` slots — energy exists for precisely the
    /// samples virtual time does, so the two rings share their count.
    strata_ring_energy: [[u64; SERIES_RETAIN]; STRATA],
    cells: CellTable,
}

impl BatchPartial {
    /// Fold one batch. Per-sample work is a handful of integer adds
    /// over L1-resident arrays (the `registry_fold_s` series of
    /// `BENCH_sweep.json` times it), cheap enough to run as a batch
    /// observer on every sweep.
    pub fn fold(data: &SettingData) -> BatchPartial {
        let mut p = BatchPartial {
            samples: 0,
            virt: 0,
            energy_uj: 0,
            strata_count: [0; STRATA],
            strata_ring: [[0; SERIES_RETAIN]; STRATA],
            strata_ring_energy: [[0; SERIES_RETAIN]; STRATA],
            cells: CellTable::default(),
        };
        for sample in &data.samples {
            let vns = sample.telemetry.virtual_ns;
            let ej = sample.telemetry.energy.total_j;
            let v = if vns.is_finite() && vns > 0.0 {
                vns as u64
            } else {
                0
            };
            let e = if ej.is_finite() && ej > 0.0 {
                (ej * 1e6) as u64
            } else {
                0
            };
            if v > 0 {
                let k = sample.config_index % STRATA;
                let at = (p.strata_count[k] as usize) % SERIES_RETAIN;
                p.strata_ring[k][at] = vns.to_bits();
                p.strata_ring_energy[k][at] = ej.to_bits();
                p.strata_count[k] += 1;
            }
            p.samples += 1;
            p.virt += v;
            p.energy_uj += e;
            for var in Variable::ALL {
                // A value outside the variable's domain (a foreign
                // alignment in a hand-made batch) has no cell.
                let Some(slot) = var.slot(&sample.config) else {
                    continue;
                };
                let cell = &mut p.cells[var as usize][slot];
                cell[0] += 1;
                cell[1] += v;
                cell[2] += e;
            }
        }
        p
    }
}

impl ArchDigest {
    /// Fold one architecture's batches: per-batch partials merged in
    /// batch order. Equivalent to one per-sample pass, but callers that
    /// folded each batch at production time (cache-hot, via a sweep
    /// batch observer) can hand the partials to
    /// [`ArchDigest::from_partials`] and skip re-walking every sample.
    pub fn fold(arch: &str, batches: &[SettingData], dropped: u64) -> ArchDigest {
        Self::from_partials(
            arch,
            batches
                .iter()
                .map(|d| (d.key.app.as_str(), BatchPartial::fold(d))),
            dropped,
        )
    }

    /// Merge per-batch partials — in canonical batch order — into
    /// exactly the digest a whole-arch per-sample fold produces. The
    /// per-stratum ring merge is exact: after `T` earlier points, a
    /// batch's ring slot `s` (its last point with in-batch index ≡ s
    /// mod RETAIN) lands at arch slot `(T + s) % RETAIN`; any point the
    /// batch ring evicted had ≥ RETAIN later points in the same batch,
    /// so it could never survive the arch-wide ring either.
    pub fn from_partials<'p, I>(arch: &str, parts: I, dropped: u64) -> ArchDigest
    where
        I: IntoIterator<Item = (&'p str, BatchPartial)>,
    {
        let mut ring_sums = [[0u64; SERIES_RETAIN]; STRATA];
        let mut ring_energy = [[0u64; SERIES_RETAIN]; STRATA];
        let mut ring_total = [0u64; STRATA];
        let mut cells_acc = CellTable::default();
        let mut apps: Vec<AppDigest> = Vec::new();
        let mut samples_total = 0u64;
        let mut settings = 0u64;
        for (app, p) in parts {
            settings += 1;
            let app_at = match apps.iter().position(|a| a.app == app) {
                Some(i) => i,
                None => {
                    apps.push(AppDigest {
                        app: app.to_string(),
                        samples: 0,
                        virt_ns: 0,
                        energy_uj: 0,
                    });
                    apps.len() - 1
                }
            };
            apps[app_at].samples += p.samples;
            apps[app_at].virt_ns += p.virt;
            apps[app_at].energy_uj += p.energy_uj;
            samples_total += p.samples;
            for k in 0..STRATA {
                let c = p.strata_count[k];
                let written = (c as usize).min(SERIES_RETAIN);
                let t = ring_total[k] as usize;
                for s in 0..written {
                    ring_sums[k][(t + s) % SERIES_RETAIN] = p.strata_ring[k][s];
                    ring_energy[k][(t + s) % SERIES_RETAIN] = p.strata_ring_energy[k][s];
                }
                ring_total[k] += c;
            }
            let words = cells_acc.iter_mut().flatten().flatten();
            for (acc, part) in words.zip(p.cells.iter().flatten().flatten()) {
                *acc += part;
            }
        }
        let mut virt = Vec::with_capacity(STRATA);
        let mut energy = Vec::with_capacity(STRATA);
        for k in 0..STRATA {
            let total = ring_total[k];
            let retained = (total as usize).min(SERIES_RETAIN);
            let mut s = StratumSeries {
                total,
                // Every retained point is a single sample.
                counts: vec![1; retained],
                sum_bits: ring_sums[k][..retained].to_vec(),
            };
            s.seal();
            virt.push(s);
            let mut e = StratumSeries {
                total,
                counts: vec![1; retained],
                sum_bits: ring_energy[k][..retained].to_vec(),
            };
            e.seal();
            energy.push(e);
        }
        let mut cells = Vec::new();
        for var in Variable::ALL {
            let row = &cells_acc[var as usize][..var.union_len()];
            for (slot, &[samples, virt_ns, energy_uj]) in row.iter().enumerate() {
                cells.push(CellDigest {
                    var: var.env_name().to_string(),
                    value: var.label(slot).to_string(),
                    samples,
                    virt_ns,
                    energy_uj,
                });
            }
        }
        ArchDigest {
            arch: arch.to_string(),
            settings,
            samples: samples_total,
            dropped,
            virt,
            energy,
            apps,
            cells,
        }
    }

    /// Total attributed virtual nanoseconds (sum over apps).
    pub fn virt_ns(&self) -> u64 {
        self.apps.iter().map(|a| a.virt_ns).sum()
    }

    /// Total attributed modeled energy in microjoules (sum over apps).
    pub fn energy_uj(&self) -> u64 {
        self.apps.iter().map(|a| a.energy_uj).sum()
    }
}

/// The deterministic, content-addressed core of a collection run.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct CollectCore {
    pub scope: String,
    pub roster: String,
    pub reps: u32,
    pub seed: u64,
    pub failure_rate_bits: u64,
    pub spec_fingerprint: u64,
    pub arches: Vec<ArchDigest>,
}

impl CollectCore {
    pub fn new(spec: &SweepSpec) -> CollectCore {
        CollectCore {
            scope: format!("{:?}", spec.scope),
            // The one roster; kept because recorded runs hash this field.
            roster: "Paper".to_string(),
            reps: spec.reps,
            seed: spec.seed,
            failure_rate_bits: spec.failure_rate.to_bits(),
            spec_fingerprint: spec_fingerprint(spec),
            arches: Vec::new(),
        }
    }

    /// Fold and append one architecture's cleaned batches.
    pub fn push_arch(&mut self, arch: &str, batches: &[SettingData], dropped: u64) {
        self.arches.push(ArchDigest::fold(arch, batches, dropped));
    }

    /// Append one architecture from per-batch partials folded at
    /// production time (a sweep batch observer). `partials` may arrive
    /// in any completion order; they are matched to `batches` by batch
    /// key and merged canonically, so the digest — and the record hash
    /// — is byte-identical to [`CollectCore::push_arch`] on the same
    /// batches at any worker count.
    ///
    /// Panics if a batch has no matching partial: the observer runs for
    /// every finalized batch, so a hole means the caller wired the
    /// observer to a different sweep.
    pub fn push_arch_partials(
        &mut self,
        arch: &str,
        batches: &[SettingData],
        mut partials: Vec<(RunKey, BatchPartial)>,
        dropped: u64,
    ) {
        let ordered = batches.iter().map(|data| {
            let at = partials
                .iter()
                .position(|(key, _)| *key == data.key)
                .expect("every batch has an observed partial");
            let (key, partial) = partials.swap_remove(at);
            debug_assert_eq!(key.app, data.key.app);
            (data.key.app.as_str(), partial)
        });
        self.arches
            .push(ArchDigest::from_partials(arch, ordered, dropped));
    }

    fn hash_into(&self, h: &mut Fnv1a) {
        mix_str(h, &self.scope);
        mix_str(h, &self.roster);
        h.mix(self.reps as u64);
        h.mix(self.seed);
        h.mix(self.failure_rate_bits);
        h.mix(self.spec_fingerprint);
        for a in &self.arches {
            mix_str(h, &a.arch);
            h.mix(a.settings);
            h.mix(a.samples);
            h.mix(a.dropped);
            for s in &a.virt {
                h.mix(s.total);
                for (&c, &b) in s.counts.iter().zip(&s.sum_bits) {
                    h.mix(c);
                    h.mix(b);
                }
            }
            for app in &a.apps {
                mix_str(h, &app.app);
                h.mix(app.samples);
                h.mix(app.virt_ns);
            }
            for cell in &a.cells {
                mix_str(h, &cell.var);
                mix_str(h, &cell.value);
                h.mix(cell.samples);
                h.mix(cell.virt_ns);
            }
            for s in &a.energy {
                h.mix(s.total);
                for (&c, &b) in s.counts.iter().zip(&s.sum_bits) {
                    h.mix(c);
                    h.mix(b);
                }
            }
            for app in &a.apps {
                h.mix(app.energy_uj);
            }
            for cell in &a.cells {
                h.mix(cell.energy_uj);
            }
        }
    }
}

/// The content-addressed core of one bench invocation: every scalar and
/// every repetition array of a `BENCH_*.json`, bits-exact.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BenchCore {
    pub bench: String,
    /// Scalar keys with `f64` bit patterns, key-sorted.
    pub scalars: Vec<(String, u64)>,
    /// `*_reps` arrays with `f64` bit patterns, key-sorted.
    pub reps: Vec<(String, Vec<u64>)>,
}

impl BenchCore {
    /// Digest one bench result document (the `BENCH_*.json` format).
    pub fn from_bench_json(bench: &str, text: &str) -> Result<BenchCore, String> {
        let doc: serde::Value =
            serde_json::from_str(text).map_err(|e| format!("unparsable bench JSON: {e}"))?;
        let map = doc.as_map().ok_or("bench JSON is not an object")?;
        let mut scalars = Vec::new();
        let mut reps = Vec::new();
        for (k, v) in map {
            let Some(key) = k.as_str() else { continue };
            if let Some(seq) = v.as_seq() {
                let bits: Vec<u64> = seq
                    .iter()
                    .filter_map(|x| x.as_f64())
                    .map(f64::to_bits)
                    .collect();
                reps.push((key.to_string(), bits));
            } else if let Some(x) = v.as_f64() {
                scalars.push((key.to_string(), x.to_bits()));
            }
        }
        scalars.sort();
        reps.sort();
        Ok(BenchCore {
            bench: bench.to_string(),
            scalars,
            reps,
        })
    }

    /// The scalar `key`, as the number the document held.
    pub fn scalar(&self, key: &str) -> Option<f64> {
        let found = self.scalars.iter().find(|(k, _)| k == key)?;
        Some(f64::from_bits(found.1))
    }

    /// The repetitions published beside the scalar `key` (`<key>_reps`).
    pub fn reps_of(&self, key: &str) -> Option<Vec<f64>> {
        let found = self
            .reps
            .iter()
            .find(|(k, _)| k.strip_suffix("_reps") == Some(key))?;
        Some(found.1.iter().map(|&bits| f64::from_bits(bits)).collect())
    }

    fn hash_into(&self, h: &mut Fnv1a) {
        mix_str(h, &self.bench);
        for (k, bits) in &self.scalars {
            mix_str(h, k);
            h.mix(*bits);
        }
        for (k, arr) in &self.reps {
            mix_str(h, k);
            h.mix(arr.len() as u64);
            for &b in arr {
                h.mix(b);
            }
        }
    }
}

/// What a registered run computed — the hashed half of a record.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum RunCore {
    Collect(CollectCore),
    Bench(BenchCore),
}

impl RunCore {
    pub fn kind(&self) -> &'static str {
        match self {
            RunCore::Collect(_) => "collect",
            RunCore::Bench(_) => "bench",
        }
    }

    /// Grouping key: sweeps group by spec fingerprint, benches by name.
    pub fn spec_fp(&self) -> u64 {
        match self {
            RunCore::Collect(c) => c.spec_fingerprint,
            RunCore::Bench(b) => Fnv1a::of(b.bench.as_bytes()),
        }
    }

    /// The content address. Covers every word of the core and nothing
    /// of the info, so equal hashes mean equal computed results.
    pub fn hash(&self) -> u64 {
        let mut h = Fnv1a::new();
        match self {
            RunCore::Collect(c) => {
                h.mix(KIND_COLLECT);
                c.hash_into(&mut h);
            }
            RunCore::Bench(b) => {
                h.mix(KIND_BENCH);
                b.hash_into(&mut h);
            }
        }
        h.finish()
    }
}

/// The run-varying half of a record: context, never identity.
#[derive(Debug, Clone, Default, PartialEq, Serialize, Deserialize)]
pub struct RunInfo {
    pub workers: u64,
    pub elapsed_s: f64,
    /// FNV-1a of `manifest.json` bytes (0 when absent).
    pub manifest_digest: u64,
    pub out_dir: String,
    /// Engine/scheduler counters, name-sorted by the writer.
    pub counters: Vec<(String, u64)>,
}

/// One immutable registry entry.
#[derive(Debug, Clone, PartialEq)]
pub struct RunRecord {
    pub seq: u64,
    pub ts_unix: u64,
    pub git_rev: String,
    pub record_hash: u64,
    pub core: RunCore,
    pub info: RunInfo,
}

// ---------------------------------------------------------------------------
// Serialization. Every struct under the envelope derives its JSON form;
// the envelope is written by hand because `kind` selects the type of
// `core`, and because reading it ends in the integrity check.

impl Serialize for RunRecord {
    fn serialize<S: Sink>(&self, sink: &mut S) -> Result<(), S::Error> {
        sink.map_begin()?;
        sink.entry("schema", SCHEMA)?;
        sink.entry("seq", &self.seq)?;
        sink.entry("ts_unix", &self.ts_unix)?;
        sink.entry("git_rev", &self.git_rev)?;
        sink.entry("kind", self.core.kind())?;
        sink.entry("record_hash", &self.record_hash)?;
        sink.entry("spec_fp", &self.core.spec_fp())?;
        match &self.core {
            RunCore::Collect(c) => sink.entry("core", c)?,
            RunCore::Bench(b) => sink.entry("core", b)?,
        }
        sink.entry("info", &self.info)?;
        sink.map_end()
    }
}

impl Deserialize for RunRecord {
    /// `kind` must precede `core` (as the writer orders them); `spec_fp`
    /// is derived from the core and not read back.
    fn deserialize<'de, S: Source<'de>>(source: &mut S) -> Result<Self, serde::Error> {
        let (mut schema, mut kind, mut core, mut info) = (None, None, None, None);
        let (mut seq, mut ts_unix, mut git_rev, mut record_hash) = (None, None, None, None);
        source.map_begin()?;
        while let Some(key) = source.map_key()? {
            match &*key {
                "schema" => schema = Some(source.str()?),
                "seq" => seq = Some(source.u64()?),
                "ts_unix" => ts_unix = Some(source.u64()?),
                "git_rev" => git_rev = Some(String::deserialize(source)?),
                "kind" => kind = Some(source.str()?),
                "record_hash" => record_hash = Some(source.u64()?),
                "core" => {
                    core = Some(match kind.as_deref() {
                        Some("collect") => RunCore::Collect(CollectCore::deserialize(source)?),
                        Some("bench") => RunCore::Bench(BenchCore::deserialize(source)?),
                        Some(other) => return Err(serde::Error::unknown_variant(other, "RunCore")),
                        None => return Err(serde::Error::custom("`core` before `kind`")),
                    })
                }
                "info" => info = Some(RunInfo::deserialize(source)?),
                _ => source.skip()?,
            }
        }
        let missing = serde::Error::missing_field;
        let schema = schema.ok_or_else(|| missing("schema"))?;
        if schema != SCHEMA {
            return Err(serde::Error::custom(format!("unknown schema {schema:?}")));
        }
        let record = RunRecord {
            seq: seq.ok_or_else(|| missing("seq"))?,
            ts_unix: ts_unix.ok_or_else(|| missing("ts_unix"))?,
            git_rev: git_rev.ok_or_else(|| missing("git_rev"))?,
            record_hash: record_hash.ok_or_else(|| missing("record_hash"))?,
            core: core.ok_or_else(|| missing("core"))?,
            info: info.ok_or_else(|| missing("info"))?,
        };
        // Integrity: the stored address must match the parsed content.
        // A mismatch means the line was altered — treat as corrupt.
        if record.core.hash() != record.record_hash {
            return Err(serde::Error::custom("record_hash does not match its core"));
        }
        Ok(record)
    }
}

impl RunRecord {
    /// Render the full JSONL line (no trailing newline).
    pub fn to_jsonl(&self) -> String {
        serde_json::to_string(self).expect("writing JSON into memory cannot fail")
    }

    /// Parse one JSONL line. `Err` carries a short reason; callers
    /// count it and move on — a damaged line never takes the registry
    /// down.
    pub fn from_jsonl(line: &str) -> Result<RunRecord, String> {
        serde_json::from_str(line).map_err(|e| e.to_string())
    }
}

// ---------------------------------------------------------------------------
// The on-disk registry.

/// Append-only run registry over one directory.
#[derive(Debug, Clone)]
pub struct Registry {
    dir: PathBuf,
}

/// Everything a registry load reports: the surviving records plus the
/// degradation counters (never a panic, never a hard error for data
/// damage — only I/O errors propagate).
#[derive(Debug, Default)]
pub struct RegistryLoad {
    /// Surviving records, seq order.
    pub records: Vec<RunRecord>,
    /// Damaged JSONL lines (or hash-mismatched records) skipped.
    pub corrupt_skipped: u64,
}

struct LockGuard {
    file: fs::File,
}

impl Drop for LockGuard {
    fn drop(&mut self) {
        let _ = self.file.unlock();
    }
}

/// The lines in `file`, and whether the last one lacks its newline (it
/// still counts). Counted through one 64 KiB buffer: the registry only
/// grows, and every run appends to it.
fn count_lines(file: &mut fs::File) -> io::Result<(u64, bool)> {
    let mut buf = vec![0u8; 64 * 1024];
    let (mut newlines, mut last) = (0u64, b'\n');
    loop {
        match file.read(&mut buf) {
            Ok(0) => break,
            Ok(n) => {
                newlines += buf[..n].iter().filter(|&&b| b == b'\n').count() as u64;
                last = buf[n - 1];
            }
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let torn = last != b'\n';
    Ok((newlines + u64::from(torn), torn))
}

impl Registry {
    /// Open (creating if needed) a registry directory.
    pub fn open(dir: impl Into<PathBuf>) -> io::Result<Registry> {
        let dir = dir.into();
        fs::create_dir_all(&dir)?;
        Ok(Registry { dir })
    }

    pub fn dir(&self) -> &Path {
        &self.dir
    }

    fn jsonl_path(&self) -> PathBuf {
        self.dir.join("registry.jsonl")
    }

    /// Advisory whole-registry lock: a blocking OS file lock on
    /// `registry.lock`. The kernel releases it when the holder exits —
    /// crashed writers never leave a stale lock behind, so there is no
    /// timeout/takeover heuristic to get wrong, and acquiring it in the
    /// common uncontended case is a single open.
    fn lock(&self) -> io::Result<LockGuard> {
        let file = fs::OpenOptions::new()
            .write(true)
            .create(true)
            .truncate(false)
            .open(self.dir.join("registry.lock"))?;
        file.lock()?;
        Ok(LockGuard { file })
    }

    /// Append one run under the registry lock: the next sequence number
    /// is the count of lines already in the file, read through the same
    /// handle the new line is then appended with. Returns the completed
    /// record.
    pub fn append(
        &self,
        core: RunCore,
        info: RunInfo,
        git_rev: &str,
        ts_unix: u64,
    ) -> io::Result<RunRecord> {
        // Content hashing needs no sequence number — do it before
        // taking the lock to keep the critical section I/O-only.
        let record_hash = core.hash();
        let _guard = self.lock()?;
        let mut jsonl = fs::OpenOptions::new()
            .read(true)
            .append(true)
            .create(true)
            .open(self.jsonl_path())?;
        let (seq, torn) = count_lines(&mut jsonl)?;
        let record = RunRecord {
            seq,
            ts_unix,
            git_rev: git_rev.to_string(),
            record_hash,
            core,
            info,
        };
        let mut line = record.to_jsonl();
        line.push('\n');
        if torn {
            // A writer died mid-line: end its torn line (one skipped
            // record on load) so it cannot swallow this one.
            line.insert(0, '\n');
        }
        jsonl.write_all(line.as_bytes())?;
        jsonl.flush()?;
        Ok(record)
    }

    /// Load every surviving record. Damage degrades, it never fails: a
    /// line that does not parse, or whose content no longer matches its
    /// stored address, is skipped and counted.
    pub fn load(&self) -> io::Result<RegistryLoad> {
        let mut out = RegistryLoad::default();
        let jsonl = match fs::read(self.jsonl_path()) {
            Ok(bytes) => bytes,
            Err(e) if e.kind() == io::ErrorKind::NotFound => return Ok(out),
            Err(e) => return Err(e),
        };
        for line in String::from_utf8_lossy(&jsonl).lines() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            match RunRecord::from_jsonl(line) {
                Ok(rec) => out.records.push(rec),
                Err(_) => out.corrupt_skipped += 1,
            }
        }
        Ok(out)
    }
}

// ---------------------------------------------------------------------------
// Context helpers for writers.

/// Default registry location for a collection run: a `.ompobs/` sibling
/// of the output directory, so every run written next to its peers
/// lands in the same longitudinal history.
pub fn default_registry_dir(out_dir: &Path) -> PathBuf {
    match out_dir.parent() {
        Some(p) if !p.as_os_str().is_empty() => p.join(".ompobs"),
        _ => PathBuf::from(".ompobs"),
    }
}

/// Registry directory override from the environment (`OMPOBS_DIR`).
pub fn env_registry_dir() -> Option<PathBuf> {
    std::env::var_os("OMPOBS_DIR").map(PathBuf::from)
}

/// Seconds since the Unix epoch (0 if the clock is before it).
pub fn unix_now() -> u64 {
    std::time::SystemTime::now()
        .duration_since(std::time::UNIX_EPOCH)
        .map(|d| d.as_secs())
        .unwrap_or(0)
}

/// Resolve the current git revision without shelling out: walk up from
/// `start` to a `.git`, follow `HEAD` through loose refs or
/// `packed-refs`. `"unknown"` when nothing resolves — the registry
/// works outside a checkout too.
pub fn detect_git_rev(start: &Path) -> String {
    let start = start.canonicalize().unwrap_or_else(|_| start.to_path_buf());
    for dir in start.ancestors() {
        let dot_git = dir.join(".git");
        let git_dir = if dot_git.is_dir() {
            dot_git
        } else if dot_git.is_file() {
            // Worktree: `.git` is a file "gitdir: <path>".
            match fs::read_to_string(&dot_git) {
                Ok(text) => match text.trim().strip_prefix("gitdir:") {
                    Some(p) => {
                        let p = p.trim();
                        let pb = PathBuf::from(p);
                        if pb.is_absolute() {
                            pb
                        } else {
                            dir.join(pb)
                        }
                    }
                    None => continue,
                },
                Err(_) => continue,
            }
        } else {
            continue;
        };
        let Ok(head) = fs::read_to_string(git_dir.join("HEAD")) else {
            continue;
        };
        let head = head.trim();
        if let Some(refname) = head.strip_prefix("ref:") {
            let refname = refname.trim();
            if let Ok(hash) = fs::read_to_string(git_dir.join(refname)) {
                let hash = hash.trim();
                if !hash.is_empty() {
                    return hash.to_string();
                }
            }
            if let Ok(packed) = fs::read_to_string(git_dir.join("packed-refs")) {
                for line in packed.lines() {
                    let line = line.trim();
                    if line.starts_with('#') || line.starts_with('^') {
                        continue;
                    }
                    if let Some((hash, name)) = line.split_once(' ') {
                        if name.trim() == refname {
                            return hash.trim().to_string();
                        }
                    }
                }
            }
            return "unknown".to_string();
        }
        if head.len() >= 7 && head.bytes().all(|b| b.is_ascii_hexdigit()) {
            return head.to_string();
        }
    }
    "unknown".to_string()
}

/// Register one bench result document into `dir`. The convenience the
/// bench harness and `bench-diff` call: parses the `BENCH_*.json` text,
/// stamps timestamp and git revision, appends.
pub fn record_bench(dir: &Path, bench: &str, json_text: &str) -> io::Result<RunRecord> {
    let core = BenchCore::from_bench_json(bench, json_text)
        .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))?;
    let registry = Registry::open(dir)?;
    registry.append(
        RunCore::Bench(core),
        RunInfo::default(),
        &detect_git_rev(Path::new(".")),
        unix_now(),
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{sweep_arch_scheduled, SweepOptions};
    use omptune_core::Arch;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("ompobs-reg-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir
    }

    fn tiny_core(seed: u64) -> CollectCore {
        let spec = SweepSpec {
            scope: Scope::Strided(2000),
            seed,
            ..SweepSpec::default()
        };
        let mut core = CollectCore::new(&spec);
        let outcome = sweep_arch_scheduled(Arch::Skylake, &spec, &SweepOptions::new(2));
        let mut batches = outcome.batches;
        let mut dropped = 0usize;
        for data in &mut batches {
            dropped += crate::clean(data, spec.reps as usize).dropped.len();
        }
        core.push_arch(Arch::Skylake.id(), &batches, dropped as u64);
        core
    }

    #[test]
    fn stratum_series_ring_keeps_tail() {
        let mut s = StratumSeries::default();
        for i in 0..(SERIES_RETAIN as u64 + 10) {
            s.push(3, i as f64);
        }
        s.seal();
        assert_eq!(s.total, SERIES_RETAIN as u64 + 10);
        assert_eq!(s.counts.len(), SERIES_RETAIN);
        let means = s.means();
        // Oldest retained point is #10, newest is the last pushed.
        assert_eq!(means[0], 10.0 / 3.0);
        assert_eq!(means[SERIES_RETAIN - 1], (SERIES_RETAIN as f64 + 9.0) / 3.0);
    }

    #[test]
    fn observed_partials_match_whole_fold() {
        // The cache-hot observer path — per-batch partials folded in
        // scheduling-dependent completion order, matched back to
        // canonical order by batch key — must produce bit-identical
        // digests to the one-pass whole-arch fold, at any worker
        // count. Strided(1500) covers both ring regimes: busy strata
        // wrap SERIES_RETAIN, sparse ones stay under it.
        use std::sync::Mutex;
        let spec = SweepSpec {
            scope: Scope::Strided(1500),
            ..SweepSpec::default()
        };
        for workers in [1usize, 2, 4] {
            let sink: Mutex<Vec<(RunKey, BatchPartial)>> = Mutex::new(Vec::new());
            let observe = |data: &SettingData| {
                let partial = BatchPartial::fold(data);
                sink.lock().unwrap().push((data.key.clone(), partial));
            };
            let opts = SweepOptions::new(workers).with_batch_observer(&observe);
            let batches = sweep_arch_scheduled(Arch::Milan, &spec, &opts).batches;
            let partials = sink.into_inner().unwrap();
            assert_eq!(partials.len(), batches.len());
            let whole = ArchDigest::fold(Arch::Milan.id(), &batches, 7);
            let mut core = CollectCore::new(&spec);
            core.push_arch_partials(Arch::Milan.id(), &batches, partials, 7);
            assert_eq!(core.arches[0], whole, "{workers} workers diverged");
        }
    }

    #[test]
    fn a_foreign_alignment_is_left_out_of_the_alignment_cells() {
        // `KmpAlignAlloc` deserialises any `u32`; 1024 B has no slot, so
        // the sample is counted everywhere but in an alignment cell.
        let spec = SweepSpec {
            scope: Scope::Strided(2000),
            ..SweepSpec::default()
        };
        let mut batches = sweep_arch_scheduled(Arch::Skylake, &spec, &SweepOptions::new(1)).batches;
        batches.truncate(1);
        batches[0].samples[0].config.align_alloc = omptune_core::KmpAlignAlloc(1024);
        let digest = ArchDigest::fold(Arch::Skylake.id(), &batches, 0);
        for var in Variable::ALL {
            let cells = digest.cells.iter().filter(|c| c.var == var.env_name());
            let foreign = u64::from(var == Variable::AlignAlloc);
            assert_eq!(
                cells.map(|c| c.samples).sum::<u64>() + foreign,
                digest.samples
            );
        }
    }

    #[test]
    fn energy_words_are_content_addressed() {
        let core = tiny_core(10);
        let a = &core.arches[0];
        assert!(a.energy.iter().any(|s| s.total > 0), "energy series empty");
        assert!(a.energy_uj() > 0, "no attributed energy");
        // Cell energy must close against app energy the way virt does.
        let app_uj: u64 = a.apps.iter().map(|x| x.energy_uj).sum();
        let cell_uj: u64 = a.cells.iter().map(|c| c.energy_uj).sum();
        assert_eq!(
            cell_uj,
            app_uj * Variable::ALL.len() as u64,
            "each sample lands in one cell per variable"
        );
        let h = RunCore::Collect(core.clone()).hash();
        let mut tampered = core;
        let bit = tampered.arches[0]
            .energy
            .iter_mut()
            .flat_map(|s| s.sum_bits.iter_mut())
            .next()
            .expect("at least one energy point");
        *bit ^= 1;
        assert_ne!(h, RunCore::Collect(tampered).hash(), "energy bit flip");
    }

    #[test]
    fn spec_fingerprint_distinguishes_specs() {
        let base = SweepSpec::default();
        let strided = SweepSpec {
            scope: Scope::Strided(400),
            ..base
        };
        let reseeded = SweepSpec { seed: 7, ..base };
        assert_ne!(spec_fingerprint(&base), spec_fingerprint(&strided));
        assert_ne!(spec_fingerprint(&base), spec_fingerprint(&reseeded));
        assert_eq!(spec_fingerprint(&base), spec_fingerprint(&base.clone()));
    }

    #[test]
    fn fold_is_worker_count_invariant() {
        let spec = SweepSpec {
            scope: Scope::Strided(2000),
            ..SweepSpec::default()
        };
        let mut digests = Vec::new();
        for workers in [1usize, 4] {
            let outcome = sweep_arch_scheduled(Arch::Milan, &spec, &SweepOptions::new(workers));
            let mut batches = outcome.batches;
            for data in &mut batches {
                crate::clean(data, spec.reps as usize);
            }
            digests.push(ArchDigest::fold(Arch::Milan.id(), &batches, 0));
        }
        assert_eq!(digests[0], digests[1]);
        let mut core = CollectCore::new(&spec);
        core.arches.push(digests[0].clone());
        let h1 = RunCore::Collect(core.clone()).hash();
        core.arches[0] = digests[1].clone();
        assert_eq!(h1, RunCore::Collect(core).hash());
    }

    #[test]
    fn bench_core_digests_scalars_and_rep_arrays() {
        let json = r#"{"warm_s": 0.005, "samples": 9090, "warm_s_reps": [0.005, 0.0051, null], "label": "x"}"#;
        let core = BenchCore::from_bench_json("sweep", json).unwrap();
        assert_eq!(core.scalars.len(), 2, "{:?}", core.scalars);
        assert_eq!(core.reps.len(), 1);
        // null reps parse as NaN bits; the array length survives.
        assert_eq!(core.reps[0].1.len(), 3);
        let rc = RunCore::Bench(core);
        let record = RunRecord {
            seq: 0,
            ts_unix: 0,
            git_rev: "unknown".to_string(),
            record_hash: rc.hash(),
            core: rc,
            info: RunInfo::default(),
        };
        let back = RunRecord::from_jsonl(&record.to_jsonl()).unwrap();
        assert_eq!(back, record);
    }

    #[test]
    fn registry_append_load_roundtrip() {
        let dir = tmp_dir("roundtrip");
        let registry = Registry::open(&dir).unwrap();
        let core = tiny_core(1);
        let mut appended = Vec::new();
        for i in 0..3u64 {
            let info = RunInfo {
                workers: i + 1,
                elapsed_s: 1.25,
                manifest_digest: 42,
                out_dir: "dataset".to_string(),
                counters: vec![("steals".to_string(), 17)],
            };
            let rec = registry.append(RunCore::Collect(core.clone()), info, "deadbeef", 100 + i);
            appended.push(rec.unwrap());
            assert_eq!(appended[i as usize].seq, i);
        }
        let loaded = registry.load().unwrap();
        assert_eq!(loaded.corrupt_skipped, 0);
        // A swept core and its run context come back through the file
        // equal, content address included.
        assert_eq!(loaded.records, appended);
        // Same core content => same address on every record.
        let h0 = loaded.records[0].record_hash;
        assert!(loaded.records.iter().all(|r| r.record_hash == h0));
        let _ = fs::remove_dir_all(dir);
    }

    /// Two lines as the commit before the derived codec wrote them,
    /// through its hand-rolled string-pushing writer.
    const PARENT_COLLECT_LINE: &str = r#"{"schema":"ompobs-run-v2","seq":7,"ts_unix":1700000000,"git_rev":"1c7150e0431f","kind":"collect","record_hash":14500987378058802642,"spec_fp":1311768467463790320,"core":{"scope":"Strided(400)","roster":"Paper","reps":3,"seed":42,"failure_rate_bits":4576918229304087675,"spec_fingerprint":1311768467463790320,"arches":[{"arch":"skylake","settings":2,"samples":5,"dropped":1,"virt":[{"total":3,"counts":[1,1],"sum_bits":[4654311885213007872,4654863840050151424]},{"total":0,"counts":[],"sum_bits":[]}],"energy":[{"total":3,"counts":[1,1],"sum_bits":[4598175219545276416,4600427019358961664]},{"total":0,"counts":[],"sum_bits":[]}],"apps":[{"app":"cg","samples":5,"virt_ns":7625,"energy_uj":310}],"cells":[{"var":"OMP_SCHEDULE","value":"dynamic,16","samples":3,"virt_ns":4500,"energy_uj":200},{"var":"KMP_LIBRARY","value":"turn\"around\\","samples":2,"virt_ns":3125,"energy_uj":110}]}]},"info":{"workers":4,"elapsed_s":1.250000,"manifest_digest":18369602397475290863,"out_dir":"runs/\"cold\"\n","counters":[["plan_hits",12],["steals",0]]}}"#;
    const PARENT_BENCH_LINE: &str = r#"{"schema":"ompobs-run-v2","seq":8,"ts_unix":1700000001,"git_rev":"unknown","kind":"bench","record_hash":14548571392040988712,"spec_fp":14193032250847526115,"core":{"bench":"sweep","scalars":[["samples",4666222894676705280],["warm_s",4572414629676717179]],"reps":[["warm_s_reps",[4572414629676717179,4572529921827177864,9221120237041090560]]]},"info":{"workers":0,"elapsed_s":0.000000,"manifest_digest":0,"out_dir":"","counters":[]}}"#;

    #[test]
    fn parent_written_lines_load_and_come_back_byte_for_byte() {
        // Loading checks each core against the `record_hash` the parent
        // stored, which pins every word of both cores. Written again,
        // only `elapsed_s` (never hashed) prints other digits.
        let lines = [
            (PARENT_COLLECT_LINE, ":1.250000,", ":1.25,"),
            (PARENT_BENCH_LINE, ":0.000000,", ":0.0,"),
        ];
        for (line, old_elapsed, elapsed) in lines {
            let rec = RunRecord::from_jsonl(line).expect("a parent-written line loads");
            assert_eq!(rec.to_jsonl(), line.replace(old_elapsed, elapsed));
        }
        let info = RunRecord::from_jsonl(PARENT_COLLECT_LINE).unwrap().info;
        assert_eq!((info.workers, info.elapsed_s), (4, 1.25));
        assert_eq!(info.out_dir, "runs/\"cold\"\n");
        assert_eq!(info.counters[0], ("plan_hits".to_string(), 12));
    }

    #[test]
    fn hostile_lines_end_as_a_consistent_record_or_one_skip() {
        // `Ok` is a record whose content matches its address; anything
        // else is an `Err` for `load` to count. Never a panic.
        let survives = |bytes: &[u8]| {
            if let Ok(rec) = RunRecord::from_jsonl(&String::from_utf8_lossy(bytes)) {
                assert_eq!(rec.core.hash(), rec.record_hash);
            }
        };
        for line in [PARENT_COLLECT_LINE, PARENT_BENCH_LINE] {
            let bytes = line.as_bytes();
            for at in 0..bytes.len() {
                let torn = String::from_utf8_lossy(&bytes[..at]);
                assert!(RunRecord::from_jsonl(&torn).is_err(), "cut at {at}");
                for with in [b'0', b'"', b'{', b']', b'\\', b',', 0xff, bytes[at] ^ 1] {
                    let mut mutated = bytes.to_vec();
                    mutated[at] = with;
                    survives(&mutated);
                }
            }
        }
        // Arbitrary bytes, alternating with arbitrary strings over the
        // bytes JSON is made of (those get further into the reader).
        let json_bytes = b"{}[]\",:\\0123456789.-e nulltruefalse\"core\"\"kind\"";
        let mut state = 0x9e37_79b9_7f4a_7c15_u64;
        let mut next = || {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1);
            (state >> 33) as usize
        };
        for round in 0..4000 {
            let pick = |n: usize| [n as u8, json_bytes[n % json_bytes.len()]][round % 2];
            let junk: Vec<u8> = (0..next() % 96).map(|_| pick(next())).collect();
            survives(&junk);
        }
        // In a registry each such line costs one skip and nothing else:
        // torn, content altered, a key altered, not JSON, every field
        // missing, another schema. The intact line after them survives.
        let dir = tmp_dir("hostile");
        let hostile = [
            PARENT_COLLECT_LINE[..200].to_string(),
            PARENT_COLLECT_LINE.replace("7625", "7626"),
            PARENT_COLLECT_LINE.replacen("\"samples\":", "\"samplez\":", 1),
            "\u{0}[[[".to_string(),
            "{}".to_string(),
            PARENT_BENCH_LINE.replace(SCHEMA, "ompobs-run-v3"),
        ];
        let text = format!("{}\n{PARENT_BENCH_LINE}\n", hostile.join("\n"));
        fs::write(dir.join("registry.jsonl"), text).unwrap();
        let loaded = Registry::open(&dir).unwrap().load().unwrap();
        assert_eq!(loaded.corrupt_skipped, 6);
        assert_eq!(loaded.records.len(), 1);
        assert_eq!(loaded.records[0].git_rev, "unknown");
        let _ = fs::remove_dir_all(dir);
    }

    fn bench_core(bench: &str) -> RunCore {
        RunCore::Bench(BenchCore::from_bench_json(bench, r#"{"warm_s": 0.005}"#).unwrap())
    }

    #[test]
    fn two_handles_number_forty_appends_from_the_one_file() {
        let dir = tmp_dir("twohandles");
        let seqs: Vec<u64> = std::thread::scope(|scope| {
            let writers: Vec<_> = ["a", "b"]
                .into_iter()
                .map(|who| {
                    let registry = Registry::open(&dir).unwrap();
                    scope.spawn(move || {
                        (0..20)
                            .map(|i| {
                                registry
                                    .append(bench_core(who), RunInfo::default(), who, i)
                                    .unwrap()
                                    .seq
                            })
                            .collect::<Vec<u64>>()
                    })
                })
                .collect();
            writers
                .into_iter()
                .flat_map(|w| w.join().unwrap())
                .collect()
        });
        let mut sorted = seqs.clone();
        sorted.sort_unstable();
        assert!(sorted.iter().copied().eq(0..40), "{seqs:?}");
        // The file is in seq order, and it is the whole registry.
        let loaded = Registry::open(&dir).unwrap().load().unwrap();
        assert_eq!(loaded.corrupt_skipped, 0);
        assert!(loaded.records.iter().map(|r| r.seq).eq(0..40));
        let mut files: Vec<String> = fs::read_dir(&dir)
            .unwrap()
            .map(|e| e.unwrap().file_name().into_string().unwrap())
            .collect();
        files.sort();
        assert_eq!(files, ["registry.jsonl", "registry.lock"]);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn a_torn_last_line_costs_itself_and_not_the_next_append() {
        let dir = tmp_dir("torn");
        let registry = Registry::open(&dir).unwrap();
        for who in ["a", "b"] {
            registry
                .append(bench_core(who), RunInfo::default(), who, 1)
                .unwrap();
        }
        // Kill the second append mid-line.
        let path = dir.join("registry.jsonl");
        let bytes = fs::read(&path).unwrap();
        fs::write(&path, &bytes[..bytes.len() - 20]).unwrap();
        let rec = registry
            .append(bench_core("c"), RunInfo::default(), "c", 2)
            .unwrap();
        assert_eq!(rec.seq, 2, "the torn line still counts as a line");
        let loaded = registry.load().unwrap();
        assert_eq!(loaded.corrupt_skipped, 1);
        let revs: Vec<&str> = loaded.records.iter().map(|r| r.git_rev.as_str()).collect();
        assert_eq!(revs, ["a", "c"]);
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn git_rev_resolves_a_plain_checkout() {
        let dir = tmp_dir("git");
        let git = dir.join(".git");
        fs::create_dir_all(git.join("refs/heads")).unwrap();
        fs::write(git.join("HEAD"), "ref: refs/heads/main\n").unwrap();
        fs::write(git.join("refs/heads/main"), "0123abcd0123abcd\n").unwrap();
        assert_eq!(detect_git_rev(&dir), "0123abcd0123abcd");
        // Packed-refs fallback when the loose ref is gone.
        fs::remove_file(git.join("refs/heads/main")).unwrap();
        fs::write(
            git.join("packed-refs"),
            "# pack-refs with: peeled\nfeedface0000 refs/heads/main\n",
        )
        .unwrap();
        assert_eq!(detect_git_rev(&dir), "feedface0000");
        let _ = fs::remove_dir_all(dir);
    }

    #[test]
    fn default_registry_dir_is_out_dir_sibling() {
        assert_eq!(
            default_registry_dir(Path::new("/runs/cold")),
            PathBuf::from("/runs/.ompobs")
        );
        assert_eq!(
            default_registry_dir(Path::new("dataset")),
            PathBuf::from(".ompobs")
        );
    }
}
