//! Persistent content-addressed sample cache: a warm re-run of a sweep
//! replays simulation results from disk instead of recomputing them.
//!
//! A sample's identity is
//! `(engine version, arch, app, setting, config hash, seed)` — exactly
//! the inputs [`crate::runner::run_config_sim`] is a pure function of
//! (the noise stream is identity-derived, so `config_index` is pinned by
//! the configuration and the setting). Every float is stored as its
//! IEEE-754 bit pattern (`f64::to_bits`) so cached samples are
//! **byte-identical** to recomputed ones — NaN failure-injected
//! repetitions included — which the determinism tests pin.
//!
//! Two on-disk forms per `(arch, app, setting)` batch:
//!
//! - **`.bin` (hot)** — a fixed-record binary file: one checksummed
//!   header carrying the batch spec, then fixed-stride records of raw
//!   little-endian `u64` words. Because every record has the same
//!   stride, a record's byte offset is a function of its slot — the
//!   loader builds a `config_index → slot` index in one pass with no
//!   parsing, and warm lookups are O(1) word reads plus a fieldwise
//!   FNV fingerprint check (no serde anywhere on the warm path).
//! - **`.jsonl` (archival)** — the original JSON-lines form, still
//!   written on every store. It is `grep`-able, diff-able, survives
//!   format evolution, and is the fallback the loader consults when the
//!   binary file is absent or its header is damaged. Legacy JSONL-only
//!   caches are upgraded in place by [`migrate_cache_dir`] (the
//!   `cache-migrate` tool).
//!
//! Corruption tolerance is identical across both forms: a truncated
//! record, junk bytes, a wrong-version record, or a hash mismatch make
//! the affected sample a cache miss — it is recomputed and rewritten.
//! The cache can never change a result, only the time it takes to
//! produce it.

use crate::provenance::{config_fingerprint, config_hash};
use crate::runner::{RunKey, SampleTelemetry, SettingData};
use crate::spec::SweepSpec;
use omptune_core::{Arch, TuningConfig};
use serde::{Deserialize, Serialize};
use std::collections::HashMap;
use std::io::Write;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};

/// Cache format / simulator-semantics version. Bump whenever the
/// simulator, the noise model, or the record layout changes meaning —
/// stale-version records are ignored (recomputed), never reinterpreted.
pub const ENGINE_VERSION: u32 = 1;

/// The `config_index` under which a batch's default-configuration row is
/// stored (it is not part of the sampled space; the runner gives it this
/// sentinel index for its noise stream already).
pub const DEFAULT_ROW_INDEX: usize = usize::MAX;

/// One cached sample in the archival JSONL form, floats as IEEE-754 bit
/// patterns.
///
/// `Deserialize` is hand-written (not derived) for one reason: records
/// written before the energy format carry no `energy_bits` field, and
/// they must keep parsing — a warm cache stays warm across the format
/// bump, with energy recomputed at lookup time from the power model.
#[derive(Debug, Clone, PartialEq, Eq, Serialize)]
pub struct CacheRecord {
    /// [`ENGINE_VERSION`] at write time.
    pub engine: u32,
    /// Master seed of the sweep that produced this record.
    pub seed: u64,
    /// Repetitions per configuration at write time.
    pub reps: u32,
    /// `SweepSpec::failure_rate` bits (failures are part of the data).
    pub failure_rate_bits: u64,
    /// Odometer index of the configuration ([`DEFAULT_ROW_INDEX`] for
    /// the default row).
    pub config_index: usize,
    /// FNV-1a content hash of the configuration (the address).
    pub config_hash: u64,
    /// Repetition runtimes, seconds, as bits (exact, NaN included).
    pub runtimes_bits: Vec<u64>,
    /// Telemetry: virtual nanoseconds as bits.
    pub virtual_ns_bits: u64,
    /// Telemetry: parallel regions executed.
    pub regions: u64,
    /// Telemetry breakdown as bits, in [`BREAKDOWN_FIELDS`] order.
    pub breakdown_bits: Vec<u64>,
    /// Priced energy as bits, in [`ENERGY_FIELDS`] order. Empty on
    /// records written before the energy format; such records still
    /// answer, with energy re-priced at lookup (it is a pure function
    /// of arch, config, and the stored breakdown).
    pub energy_bits: Vec<u64>,
}

impl Deserialize for CacheRecord {
    fn deserialize<'de, S: serde::Source<'de>>(source: &mut S) -> Result<Self, serde::Error> {
        // The derive's rules (any order, unknown keys skipped, the first
        // of a duplicate kept) but for `energy_bits`, which may be absent.
        let (mut engine, mut seed, mut reps, mut failure_rate_bits) = (None, None, None, None);
        let (mut config_index, mut config_hash, mut runtimes_bits) = (None, None, None);
        let (mut virtual_ns_bits, mut regions, mut breakdown_bits) = (None, None, None);
        let mut energy_bits = None;
        macro_rules! fill {
            ($slot:ident) => {
                $slot = Some(Deserialize::deserialize(source)?)
            };
        }
        source.map_begin()?;
        while let Some(key) = source.map_key()? {
            match &*key {
                "engine" if engine.is_none() => fill!(engine),
                "seed" if seed.is_none() => fill!(seed),
                "reps" if reps.is_none() => fill!(reps),
                "failure_rate_bits" if failure_rate_bits.is_none() => fill!(failure_rate_bits),
                "config_index" if config_index.is_none() => fill!(config_index),
                "config_hash" if config_hash.is_none() => fill!(config_hash),
                "runtimes_bits" if runtimes_bits.is_none() => fill!(runtimes_bits),
                "virtual_ns_bits" if virtual_ns_bits.is_none() => fill!(virtual_ns_bits),
                "regions" if regions.is_none() => fill!(regions),
                "breakdown_bits" if breakdown_bits.is_none() => fill!(breakdown_bits),
                "energy_bits" if energy_bits.is_none() => fill!(energy_bits),
                _ => source.skip()?,
            }
        }
        macro_rules! need {
            ($slot:ident) => {
                $slot.ok_or_else(|| serde::Error::missing_field(stringify!($slot)))?
            };
        }
        Ok(CacheRecord {
            engine: need!(engine),
            seed: need!(seed),
            reps: need!(reps),
            failure_rate_bits: need!(failure_rate_bits),
            config_index: need!(config_index),
            config_hash: need!(config_hash),
            runtimes_bits: need!(runtimes_bits),
            virtual_ns_bits: need!(virtual_ns_bits),
            regions: need!(regions),
            breakdown_bits: need!(breakdown_bits),
            energy_bits: energy_bits.unwrap_or_default(),
        })
    }
}

/// Field order of [`CacheRecord::breakdown_bits`].
pub const BREAKDOWN_FIELDS: usize = 7;
/// Field order of [`CacheRecord::energy_bits`]: total, active, memory,
/// wait, serial, base.
pub const ENERGY_FIELDS: usize = 6;

fn energy_to_bits(e: &omptel::EnergyBreakdown) -> Vec<u64> {
    vec![
        e.total_j.to_bits(),
        e.active_j.to_bits(),
        e.memory_j.to_bits(),
        e.wait_j.to_bits(),
        e.serial_j.to_bits(),
        e.base_j.to_bits(),
    ]
}

fn energy_from_bits(bits: &[u64]) -> omptel::EnergyBreakdown {
    omptel::EnergyBreakdown {
        total_j: f64::from_bits(bits[0]),
        active_j: f64::from_bits(bits[1]),
        memory_j: f64::from_bits(bits[2]),
        wait_j: f64::from_bits(bits[3]),
        serial_j: f64::from_bits(bits[4]),
        base_j: f64::from_bits(bits[5]),
    }
}

fn breakdown_to_bits(b: &omptel::Breakdown) -> Vec<u64> {
    vec![
        b.compute_ns.to_bits(),
        b.memory_ns.to_bits(),
        b.sync_ns.to_bits(),
        b.wake_ns.to_bits(),
        b.dispatch_ns.to_bits(),
        b.serial_ns.to_bits(),
        b.imbalance_ns.to_bits(),
    ]
}

fn breakdown_from_bits(bits: &[u64]) -> omptel::Breakdown {
    omptel::Breakdown {
        compute_ns: f64::from_bits(bits[0]),
        memory_ns: f64::from_bits(bits[1]),
        sync_ns: f64::from_bits(bits[2]),
        wake_ns: f64::from_bits(bits[3]),
        dispatch_ns: f64::from_bits(bits[4]),
        serial_ns: f64::from_bits(bits[5]),
        imbalance_ns: f64::from_bits(bits[6]),
    }
}

impl CacheRecord {
    /// Encode one computed sample.
    pub fn encode(
        spec: &SweepSpec,
        config_index: usize,
        config: &TuningConfig,
        runtimes: &[f64],
        telemetry: &SampleTelemetry,
    ) -> CacheRecord {
        CacheRecord {
            engine: ENGINE_VERSION,
            seed: spec.seed,
            reps: spec.reps,
            failure_rate_bits: spec.failure_rate.to_bits(),
            config_index,
            config_hash: config_hash(config),
            runtimes_bits: runtimes.iter().map(|r| r.to_bits()).collect(),
            virtual_ns_bits: telemetry.virtual_ns.to_bits(),
            regions: telemetry.regions,
            breakdown_bits: breakdown_to_bits(&telemetry.breakdown),
            energy_bits: energy_to_bits(&telemetry.energy),
        }
    }

    /// Whether this record can answer for `spec` (same engine, seed,
    /// repetition count, failure rate) and is structurally sound.
    /// Pre-energy records (empty `energy_bits`) answer; their energy is
    /// re-priced at lookup.
    pub fn answers(&self, spec: &SweepSpec) -> bool {
        self.engine == ENGINE_VERSION
            && self.seed == spec.seed
            && self.reps == spec.reps
            && self.failure_rate_bits == spec.failure_rate.to_bits()
            && self.runtimes_bits.len() == spec.reps as usize
            && self.breakdown_bits.len() == BREAKDOWN_FIELDS
            && (self.energy_bits.is_empty() || self.energy_bits.len() == ENERGY_FIELDS)
    }

    /// Decode the repetition runtimes.
    pub fn runtimes(&self) -> Vec<f64> {
        self.runtimes_bits
            .iter()
            .map(|&b| f64::from_bits(b))
            .collect()
    }

    /// Decode the telemetry. Pre-energy records re-price their energy
    /// under `arch`'s power model for `config` — bit-identical to what
    /// the sweep would have recorded, since pricing is pure.
    pub fn telemetry(&self, arch: Arch, config: &TuningConfig) -> SampleTelemetry {
        let virtual_ns = f64::from_bits(self.virtual_ns_bits);
        let breakdown = breakdown_from_bits(&self.breakdown_bits);
        let energy = if self.energy_bits.len() == ENERGY_FIELDS {
            energy_from_bits(&self.energy_bits)
        } else {
            simrt::price_energy(arch, config, &breakdown, virtual_ns, self.regions)
        };
        SampleTelemetry {
            virtual_ns,
            regions: self.regions,
            breakdown,
            energy,
        }
    }
}

// ---------------------------------------------------------------------
// Binary batch format.
//
// All values are little-endian u64 words. Layout ("OMPSCB02"):
//
//   header   [magic, engine, reps, seed, failure_rate_bits,
//             count, hash_kind, checksum]                       8 words
//   record×N [config_index, verify_hash, virtual_ns_bits, regions,
//             breakdown_bits×7, energy_bits×6,
//             runtimes_bits×reps, checksum]                     18+reps
//
// The previous generation ("OMPSCB01") lacks the six energy words; the
// loader accepts both magics with per-magic record stride, re-pricing
// energy at lookup for v1 records (pricing is a pure function of arch,
// config, and the stored breakdown, so the answers are bit-identical to
// a fresh run). New files are always written in the v2 layout.
//
// `hash_kind` selects the verification hash carried in `verify_hash`:
// files the sweep writes carry the fieldwise fingerprint
// (`HASH_KIND_FAST`); files migrated from archival JSONL can only carry
// the serde-based `config_hash` the JSONL records store
// (`HASH_KIND_SERDE`). Lookups verify with whichever hash the file
// declares, so both answer with identical results.
//
// Checksums are FNV-1a over the preceding bytes of the header/record.
// A record whose checksum fails is skipped (a miss); a header whose
// checksum fails sends the loader to the archival JSONL; a header whose
// *spec* mismatches means a legitimately stale batch (empty, no
// fallback — the JSONL beside it was written by the same store and is
// equally stale).
// ---------------------------------------------------------------------

/// Pre-energy container magic (no energy words in its records).
const BIN_MAGIC_V1: u64 = u64::from_le_bytes(*b"OMPSCB01");
/// Current container magic (records carry [`ENERGY_FIELDS`] words).
const BIN_MAGIC: u64 = u64::from_le_bytes(*b"OMPSCB02");
const HEADER_WORDS: usize = 8;
/// Words before the runtimes in each v1 record (index, verify, virtual,
/// regions, breakdown×7).
const RECORD_HEAD_WORDS_V1: usize = 11;
/// Words before the runtimes in each v2 record (v1 plus energy×6).
const RECORD_HEAD_WORDS: usize = RECORD_HEAD_WORDS_V1 + ENERGY_FIELDS;
/// Hash kind: `verify_hash` is the fieldwise [`config_fingerprint`].
pub const HASH_KIND_FAST: u64 = 0;
/// Hash kind: `verify_hash` is the serde-based [`config_hash`]
/// (migrated files).
pub const HASH_KIND_SERDE: u64 = 1;

fn record_words(reps: usize) -> usize {
    RECORD_HEAD_WORDS + reps + 1
}

fn record_words_v1(reps: usize) -> usize {
    RECORD_HEAD_WORDS_V1 + reps + 1
}

fn fnv_bytes(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf29ce484222325;
    for &b in bytes {
        h ^= b as u64;
        h = h.wrapping_mul(0x100000001b3);
    }
    h
}

fn push_word(buf: &mut Vec<u8>, w: u64) {
    buf.extend_from_slice(&w.to_le_bytes());
}

fn read_word(bytes: &[u8], word_idx: usize) -> u64 {
    let at = word_idx * 8;
    u64::from_le_bytes(bytes[at..at + 8].try_into().expect("8 bytes"))
}

fn encode_bin_header(
    buf: &mut Vec<u8>,
    magic: u64,
    spec_words: &BinSpec,
    count: u64,
    hash_kind: u64,
) {
    push_word(buf, magic);
    push_word(buf, spec_words.engine);
    push_word(buf, spec_words.reps);
    push_word(buf, spec_words.seed);
    push_word(buf, spec_words.failure_rate_bits);
    push_word(buf, count);
    push_word(buf, hash_kind);
    let sum = fnv_bytes(&buf[buf.len() - (HEADER_WORDS - 1) * 8..]);
    push_word(buf, sum);
}

#[allow(clippy::too_many_arguments)]
fn encode_bin_record(
    buf: &mut Vec<u8>,
    config_index: usize,
    verify_hash: u64,
    virtual_ns_bits: u64,
    regions: u64,
    breakdown_bits: &[u64],
    energy_bits: &[u64],
    runtimes_bits: &[u64],
) {
    let start = buf.len();
    push_word(buf, config_index as u64);
    push_word(buf, verify_hash);
    push_word(buf, virtual_ns_bits);
    push_word(buf, regions);
    for &w in breakdown_bits {
        push_word(buf, w);
    }
    // Empty in v1 containers (pre-energy records), 6 words in v2.
    for &w in energy_bits {
        push_word(buf, w);
    }
    for &w in runtimes_bits {
        push_word(buf, w);
    }
    let sum = fnv_bytes(&buf[start..]);
    push_word(buf, sum);
}

/// The spec words a binary header carries (and a batch must match).
struct BinSpec {
    engine: u64,
    reps: u64,
    seed: u64,
    failure_rate_bits: u64,
}

impl BinSpec {
    fn of(spec: &SweepSpec) -> BinSpec {
        BinSpec {
            engine: ENGINE_VERSION as u64,
            reps: spec.reps as u64,
            seed: spec.seed,
            failure_rate_bits: spec.failure_rate.to_bits(),
        }
    }
}

/// How a verification hash is computed for a loaded batch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum VerifyKind {
    /// Fieldwise FNV fingerprint — sweep-written binary files.
    Fast,
    /// Serde-based content hash — JSONL records and migrated files.
    Serde,
}

/// A loaded batch. Binary batches decode into one flat word vector plus
/// a `config_index → slot` index (the fixed record stride makes a
/// slot's offset pure arithmetic); JSONL batches keep their parsed
/// records behind the same interface. Lookups verify the configuration
/// hash, so an index collision from a different space layout can never
/// serve a wrong sample.
pub struct BatchEntries {
    /// Repetitions per record.
    reps: usize,
    /// Slot-major words: `[verify, virtual, regions, breakdown×7,
    /// energy_present, energy×6, runtimes×reps]` per slot. Records
    /// loaded from pre-energy forms carry `energy_present == 0` and
    /// zeroed energy words; their energy is re-priced at lookup.
    slots: Vec<u64>,
    /// `config_index → slot` offset index.
    index: HashMap<usize, u32>,
    verify: VerifyKind,
    /// Whether this batch came from the indexed binary format (hits are
    /// then counted under `SampleCacheIndexHits`).
    indexed: bool,
    /// The architecture whose power model prices pre-energy records.
    arch: Arch,
}

/// Words per slot in [`BatchEntries::slots`] before the runtimes:
/// verify, virtual, regions, breakdown×7, energy_present, energy×6.
const SLOT_HEAD_WORDS: usize = 10 + 1 + ENERGY_FIELDS;
/// Offset of the `energy_present` flag word within a slot.
const SLOT_ENERGY_AT: usize = 10;

impl BatchEntries {
    /// No cached entries (cold batch). The arch is irrelevant: every
    /// lookup misses.
    pub fn empty() -> BatchEntries {
        BatchEntries {
            reps: 0,
            slots: Vec::new(),
            index: HashMap::new(),
            verify: VerifyKind::Fast,
            indexed: false,
            arch: Arch::A64fx,
        }
    }

    fn with_capacity(
        arch: Arch,
        reps: usize,
        records: usize,
        verify: VerifyKind,
        indexed: bool,
    ) -> BatchEntries {
        BatchEntries {
            reps,
            slots: Vec::with_capacity(records * (SLOT_HEAD_WORDS + reps)),
            index: HashMap::with_capacity(records),
            verify,
            indexed,
            arch,
        }
    }

    fn stride(&self) -> usize {
        SLOT_HEAD_WORDS + self.reps
    }

    /// Insert one record's payload words (last write wins, matching the
    /// append-order semantics of the JSONL form).
    fn push_record(&mut self, config_index: usize, payload: &[u64]) {
        debug_assert_eq!(payload.len(), self.stride());
        match self.index.get(&config_index) {
            Some(&slot) => {
                let at = slot as usize * self.stride();
                self.slots[at..at + payload.len()].copy_from_slice(payload);
            }
            None => {
                let slot = (self.slots.len() / self.stride()) as u32;
                self.slots.extend_from_slice(payload);
                self.index.insert(config_index, slot);
            }
        }
    }

    /// The cached `(runtimes, telemetry)` for `config`, if present and
    /// content-addressed to exactly this configuration.
    pub fn lookup(
        &self,
        config_index: usize,
        config: &TuningConfig,
    ) -> Option<(Vec<f64>, SampleTelemetry)> {
        let &slot = self.index.get(&config_index)?;
        let at = slot as usize * self.stride();
        let words = &self.slots[at..at + self.stride()];
        let expect = match self.verify {
            VerifyKind::Fast => config_fingerprint(config),
            VerifyKind::Serde => config_hash(config),
        };
        if words[0] != expect {
            return None;
        }
        let runtimes = words[SLOT_HEAD_WORDS..]
            .iter()
            .map(|&b| f64::from_bits(b))
            .collect();
        let virtual_ns = f64::from_bits(words[1]);
        let regions = words[2];
        let breakdown = breakdown_from_bits(&words[3..SLOT_ENERGY_AT]);
        let energy = if words[SLOT_ENERGY_AT] != 0 {
            energy_from_bits(&words[SLOT_ENERGY_AT + 1..SLOT_HEAD_WORDS])
        } else {
            // Pre-energy record: price it now. Pure function of what is
            // already verified above, so bit-identical to a fresh run.
            simrt::price_energy(self.arch, config, &breakdown, virtual_ns, regions)
        };
        let telemetry = SampleTelemetry {
            virtual_ns,
            regions,
            breakdown,
            energy,
        };
        if self.indexed {
            omptel::add(omptel::Counter::SampleCacheIndexHits, 1);
        }
        Some((runtimes, telemetry))
    }

    /// Number of usable records.
    pub fn len(&self) -> usize {
        self.index.len()
    }

    /// Whether the batch holds no usable records.
    pub fn is_empty(&self) -> bool {
        self.index.is_empty()
    }
}

/// Outcome of decoding a binary batch file.
enum BinLoad {
    /// Usable (possibly partially — damaged records became misses).
    Loaded(BatchEntries),
    /// Structurally sound but written for a different spec: every
    /// lookup legitimately misses, and the archival JSONL (written by
    /// the same store) is equally stale — no fallback.
    Stale,
    /// The container itself is damaged; consult the archival JSONL.
    BadHeader,
}

/// Thread-safe handle to an on-disk sample cache rooted at one
/// directory. Hit/miss counts are tracked locally (always) and mirrored
/// into the `omptel` counters when a telemetry session is active.
/// Opening the cache reaps stale temporary files left by crashed
/// writers (counted under `SampleCacheTmpReaped`).
pub struct SampleCache {
    dir: PathBuf,
    hits: AtomicU64,
    misses: AtomicU64,
    tmp_reaped: u64,
}

impl SampleCache {
    /// Cache rooted at `dir` (created on first store). Stale `*.tmp`
    /// files from interrupted stores are deleted here: a crash between
    /// create and rename leaves them orphaned, and they would otherwise
    /// accumulate forever.
    pub fn new(dir: impl Into<PathBuf>) -> SampleCache {
        let dir = dir.into();
        let tmp_reaped = reap_tmp_files(&dir);
        if tmp_reaped > 0 {
            omptel::add(omptel::Counter::SampleCacheTmpReaped, tmp_reaped);
        }
        SampleCache {
            dir,
            hits: AtomicU64::new(0),
            misses: AtomicU64::new(0),
            tmp_reaped,
        }
    }

    /// The cache root.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Stale temporary files deleted when this handle opened.
    pub fn tmp_reaped(&self) -> u64 {
        self.tmp_reaped
    }

    fn batch_file(&self, key: &RunKey, ext: &str) -> PathBuf {
        let stem = key.stem();
        let mut name = String::with_capacity(stem.len() + ext.len());
        name.push_str(stem);
        name.push_str(ext);
        self.dir.join(key.arch.id()).join(name)
    }

    /// Archival JSON-lines file holding one `(arch, app, setting)`
    /// batch.
    pub fn batch_path(&self, key: &RunKey) -> PathBuf {
        self.batch_file(key, ".jsonl")
    }

    /// Hot indexed binary file holding the same batch.
    pub fn bin_path(&self, key: &RunKey) -> PathBuf {
        self.batch_file(key, ".bin")
    }

    /// Load the usable records of one batch: the indexed binary form
    /// when present and sound, the archival JSONL otherwise. Unreadable
    /// files, corrupt records, wrong-version or wrong-spec records are
    /// skipped (and reported to the flight recorder / anomaly watchdog
    /// as cache corruption): any damage degrades to recomputation,
    /// never to an error or a wrong result.
    pub fn load_batch(&self, key: &RunKey, spec: &SweepSpec) -> BatchEntries {
        let _span = omptel::span(omptel::SpanKind::CacheRead, key.num_threads as u64);
        let mut corrupt = 0u64;
        let from_bin = match std::fs::read(self.bin_path(key)) {
            Ok(bytes) => match decode_bin_batch(&bytes, key, spec, &mut corrupt) {
                BinLoad::Loaded(entries) => Some(entries),
                BinLoad::Stale => Some(BatchEntries::empty()),
                BinLoad::BadHeader => None,
            },
            Err(_) => None,
        };
        let entries = from_bin.unwrap_or_else(|| self.load_jsonl_batch(key, spec, &mut corrupt));
        if corrupt > 0 {
            omptel::add(omptel::Counter::SampleCacheCorrupt, corrupt);
        }
        entries
    }

    /// The archival JSONL read path (binary file absent or its header
    /// damaged).
    fn load_jsonl_batch(&self, key: &RunKey, spec: &SweepSpec, corrupt: &mut u64) -> BatchEntries {
        let mut entries =
            BatchEntries::with_capacity(key.arch, spec.reps as usize, 0, VerifyKind::Serde, false);
        let mut payload = Vec::with_capacity(entries.stride());
        if let Ok(text) = std::fs::read_to_string(self.batch_path(key)) {
            for (lineno, line) in text.lines().enumerate() {
                let line = line.trim();
                if line.is_empty() {
                    continue;
                }
                match serde_json::from_str::<CacheRecord>(line) {
                    Ok(rec) => {
                        // Wrong-spec records are stale, not corrupt: a
                        // reseeded sweep legitimately misses everything.
                        if rec.answers(spec) {
                            payload.clear();
                            payload.push(rec.config_hash);
                            payload.push(rec.virtual_ns_bits);
                            payload.push(rec.regions);
                            payload.extend_from_slice(&rec.breakdown_bits);
                            if rec.energy_bits.len() == ENERGY_FIELDS {
                                payload.push(1);
                                payload.extend_from_slice(&rec.energy_bits);
                            } else {
                                payload.resize(payload.len() + 1 + ENERGY_FIELDS, 0);
                            }
                            payload.extend_from_slice(&rec.runtimes_bits);
                            entries.push_record(rec.config_index, &payload);
                        }
                    }
                    Err(_) => {
                        *corrupt += 1;
                        omptel::report_corrupt(&format!(
                            "{}/{} i{} t{}: unparseable record at line {}",
                            key.arch.id(),
                            key.app,
                            key.input_code,
                            key.num_threads,
                            lineno + 1
                        ));
                    }
                }
            }
        }
        entries
    }

    /// Persist one completed batch (all samples plus the default row),
    /// replacing any previous files: the archival JSONL first, then the
    /// hot binary form. Each write goes through a temporary file renamed
    /// into place, so a crash mid-write leaves either the old or the new
    /// content — a torn tail at worst, which the tolerant loader
    /// degrades to misses (and whose leftover `.tmp` the next open
    /// reaps).
    pub fn store_batch(&self, data: &SettingData, spec: &SweepSpec) -> std::io::Result<()> {
        let _span = omptel::span(omptel::SpanKind::CacheWrite, data.samples.len() as u64);
        let path = self.batch_path(&data.key);
        let parent = path.parent().expect("batch path has a parent");
        std::fs::create_dir_all(parent)?;
        let default_config = TuningConfig::default_for(data.key.arch, data.key.num_threads);

        let tmp = path.with_extension("jsonl.tmp");
        {
            let mut out = std::io::BufWriter::new(std::fs::File::create(&tmp)?);
            for s in &data.samples {
                let rec =
                    CacheRecord::encode(spec, s.config_index, &s.config, &s.runtimes, &s.telemetry);
                serde_json::to_writer(&mut out, &rec).map_err(std::io::Error::other)?;
                out.write_all(b"\n")?;
            }
            let rec = CacheRecord::encode(
                spec,
                DEFAULT_ROW_INDEX,
                &default_config,
                &data.default_runtimes,
                &data.default_telemetry,
            );
            serde_json::to_writer(&mut out, &rec).map_err(std::io::Error::other)?;
            out.write_all(b"\n")?;
            out.flush()?;
        }
        std::fs::rename(&tmp, &path)?;

        let reps = spec.reps as usize;
        let count = data.samples.len() + 1;
        let mut buf = Vec::with_capacity((HEADER_WORDS + count * record_words(reps)) * 8);
        encode_bin_header(
            &mut buf,
            BIN_MAGIC,
            &BinSpec::of(spec),
            count as u64,
            HASH_KIND_FAST,
        );
        let mut runtimes_bits = Vec::with_capacity(reps);
        let mut encode_one = |buf: &mut Vec<u8>,
                              idx: usize,
                              config: &TuningConfig,
                              runtimes: &[f64],
                              tel: &SampleTelemetry| {
            runtimes_bits.clear();
            runtimes_bits.extend(runtimes.iter().map(|r| r.to_bits()));
            encode_bin_record(
                buf,
                idx,
                config_fingerprint(config),
                tel.virtual_ns.to_bits(),
                tel.regions,
                &breakdown_to_bits(&tel.breakdown),
                &energy_to_bits(&tel.energy),
                &runtimes_bits,
            );
        };
        for s in &data.samples {
            encode_one(
                &mut buf,
                s.config_index,
                &s.config,
                &s.runtimes,
                &s.telemetry,
            );
        }
        encode_one(
            &mut buf,
            DEFAULT_ROW_INDEX,
            &default_config,
            &data.default_runtimes,
            &data.default_telemetry,
        );
        let bin = self.bin_path(&data.key);
        let bin_tmp = bin.with_extension("bin.tmp");
        std::fs::write(&bin_tmp, &buf)?;
        std::fs::rename(&bin_tmp, &bin)
    }

    /// Record `n` cache hits.
    pub fn count_hits(&self, n: u64) {
        self.hits.fetch_add(n, Ordering::Relaxed);
        omptel::add(omptel::Counter::SampleCacheHits, n);
    }

    /// Record `n` cache misses.
    pub fn count_misses(&self, n: u64) {
        self.misses.fetch_add(n, Ordering::Relaxed);
        omptel::add(omptel::Counter::SampleCacheMisses, n);
    }

    /// `(hits, misses)` so far.
    pub fn stats(&self) -> (u64, u64) {
        (
            self.hits.load(Ordering::Relaxed),
            self.misses.load(Ordering::Relaxed),
        )
    }
}

/// Delete stale `*.tmp` files under a cache root (top level and the
/// per-architecture subdirectories). Returns how many were removed.
fn reap_tmp_files(dir: &Path) -> u64 {
    fn reap_dir(dir: &Path, recurse: bool, reaped: &mut u64) {
        let Ok(read) = std::fs::read_dir(dir) else {
            return;
        };
        for entry in read.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if recurse {
                    reap_dir(&path, false, reaped);
                }
            } else if path.extension().is_some_and(|e| e == "tmp")
                && std::fs::remove_file(&path).is_ok()
            {
                *reaped += 1;
            }
        }
    }
    let mut reaped = 0;
    reap_dir(dir, true, &mut reaped);
    reaped
}

/// Decode one binary batch file. Damaged records are skipped and
/// reported; a damaged header rejects the whole file (archival JSONL
/// takes over); a sound header for a different spec yields [`BinLoad::Stale`].
fn decode_bin_batch(bytes: &[u8], key: &RunKey, spec: &SweepSpec, corrupt: &mut u64) -> BinLoad {
    let mut bad_header = |what: &str| {
        *corrupt += 1;
        omptel::report_corrupt(&format!(
            "{}/{} i{} t{}: unparseable record header ({what}) in binary batch",
            key.arch.id(),
            key.app,
            key.input_code,
            key.num_threads,
        ));
        BinLoad::BadHeader
    };
    if bytes.len() < HEADER_WORDS * 8 {
        return bad_header("short file");
    }
    let header = &bytes[..HEADER_WORDS * 8];
    let magic = read_word(header, 0);
    if magic != BIN_MAGIC && magic != BIN_MAGIC_V1 {
        return bad_header("bad magic");
    }
    // v1 records carry no energy words; lookups re-price them.
    let has_energy = magic == BIN_MAGIC;
    if read_word(header, HEADER_WORDS - 1) != fnv_bytes(&header[..(HEADER_WORDS - 1) * 8]) {
        return bad_header("bad checksum");
    }
    let hash_kind = read_word(header, 6);
    if hash_kind > HASH_KIND_SERDE {
        return bad_header("unknown hash kind");
    }
    let want = BinSpec::of(spec);
    if read_word(header, 1) != want.engine
        || read_word(header, 2) != want.reps
        || read_word(header, 3) != want.seed
        || read_word(header, 4) != want.failure_rate_bits
    {
        return BinLoad::Stale;
    }
    let count = read_word(header, 5) as usize;
    let reps = spec.reps as usize;
    let rec_words = if has_energy {
        record_words(reps)
    } else {
        record_words_v1(reps)
    };
    let stride = rec_words * 8;
    let verify = if hash_kind == HASH_KIND_FAST {
        VerifyKind::Fast
    } else {
        VerifyKind::Serde
    };
    let mut entries = BatchEntries::with_capacity(key.arch, reps, count, verify, true);
    let mut payload = Vec::with_capacity(entries.stride());
    for slot in 0..count {
        let at = HEADER_WORDS * 8 + slot * stride;
        let Some(rec) = bytes.get(at..at + stride) else {
            // Torn tail: everything before it already loaded.
            *corrupt += 1;
            omptel::report_corrupt(&format!(
                "{}/{} i{} t{}: unparseable record at slot {slot} (truncated binary batch)",
                key.arch.id(),
                key.app,
                key.input_code,
                key.num_threads,
            ));
            break;
        };
        let sum_at = (rec_words - 1) * 8;
        if read_word(rec, rec_words - 1) != fnv_bytes(&rec[..sum_at]) {
            *corrupt += 1;
            omptel::report_corrupt(&format!(
                "{}/{} i{} t{}: unparseable record at slot {slot} (checksum) in binary batch",
                key.arch.id(),
                key.app,
                key.input_code,
                key.num_threads,
            ));
            continue;
        }
        let config_index = match read_word(rec, 0) {
            u64::MAX => DEFAULT_ROW_INDEX,
            idx => idx as usize,
        };
        payload.clear();
        // Head words up to the breakdown are layout-identical in both
        // generations; v1 slots then get a zeroed energy block.
        for w in 1..RECORD_HEAD_WORDS_V1 {
            payload.push(read_word(rec, w));
        }
        if has_energy {
            payload.push(1);
            for w in RECORD_HEAD_WORDS_V1..RECORD_HEAD_WORDS {
                payload.push(read_word(rec, w));
            }
        } else {
            payload.resize(payload.len() + 1 + ENERGY_FIELDS, 0);
        }
        let runs_from = if has_energy {
            RECORD_HEAD_WORDS
        } else {
            RECORD_HEAD_WORDS_V1
        };
        for w in runs_from..rec_words - 1 {
            payload.push(read_word(rec, w));
        }
        entries.push_record(config_index, &payload);
    }
    BinLoad::Loaded(entries)
}

// ---------------------------------------------------------------------
// Migration: archival JSONL → indexed binary.
// ---------------------------------------------------------------------

/// Outcome of a JSONL → binary cache migration.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct MigrationReport {
    /// Batch files converted.
    pub files: usize,
    /// Records written into binary form.
    pub records: usize,
    /// Records skipped (unparsable, or disagreeing with their file's
    /// leading spec).
    pub skipped_records: usize,
    /// Files skipped entirely (no usable records).
    pub skipped_files: usize,
}

impl MigrationReport {
    fn absorb(&mut self, other: MigrationReport) {
        self.files += other.files;
        self.records += other.records;
        self.skipped_records += other.skipped_records;
        self.skipped_files += other.skipped_files;
    }
}

/// Convert one archival JSONL batch file to the indexed binary form,
/// written atomically beside it (`.bin`). The binary file carries
/// [`HASH_KIND_SERDE`]: JSONL records store only the serde-based
/// content hash, so that is what lookups will verify against —
/// migrated and sweep-written files answer identically. The file's
/// spec (engine, seed, reps, failure rate) is taken from its first
/// parsable record; records disagreeing with it are skipped (they
/// could never all share one header).
pub fn migrate_batch_file(jsonl: &Path) -> std::io::Result<MigrationReport> {
    let mut report = MigrationReport::default();
    let text = std::fs::read_to_string(jsonl)?;
    let mut records: Vec<CacheRecord> = Vec::new();
    let mut spec_words: Option<BinSpec> = None;
    for line in text.lines() {
        let line = line.trim();
        if line.is_empty() {
            continue;
        }
        let Ok(rec) = serde_json::from_str::<CacheRecord>(line) else {
            report.skipped_records += 1;
            continue;
        };
        if rec.breakdown_bits.len() != BREAKDOWN_FIELDS
            || rec.runtimes_bits.len() != rec.reps as usize
            || !(rec.energy_bits.is_empty() || rec.energy_bits.len() == ENERGY_FIELDS)
        {
            report.skipped_records += 1;
            continue;
        }
        let words = spec_words.get_or_insert(BinSpec {
            engine: rec.engine as u64,
            reps: rec.reps as u64,
            seed: rec.seed,
            failure_rate_bits: rec.failure_rate_bits,
        });
        if rec.engine as u64 != words.engine
            || rec.reps as u64 != words.reps
            || rec.seed != words.seed
            || rec.failure_rate_bits != words.failure_rate_bits
        {
            report.skipped_records += 1;
            continue;
        }
        // Records must also agree on energy presence: one fixed record
        // stride per file.
        if let Some(first) = records.first() {
            if rec.energy_bits.len() != first.energy_bits.len() {
                report.skipped_records += 1;
                continue;
            }
        }
        records.push(rec);
    }
    let Some(spec_words) = spec_words else {
        report.skipped_files += 1;
        return Ok(report);
    };
    // Pre-energy files migrate into the pre-energy container (v1 magic):
    // the records have no energy words to write, and lookups re-price.
    let has_energy = records
        .first()
        .is_some_and(|r| r.energy_bits.len() == ENERGY_FIELDS);
    let magic = if has_energy { BIN_MAGIC } else { BIN_MAGIC_V1 };
    let reps = spec_words.reps as usize;
    let rec_words = if has_energy {
        record_words(reps)
    } else {
        record_words_v1(reps)
    };
    let mut buf = Vec::with_capacity((HEADER_WORDS + records.len() * rec_words) * 8);
    encode_bin_header(
        &mut buf,
        magic,
        &spec_words,
        records.len() as u64,
        HASH_KIND_SERDE,
    );
    for rec in &records {
        encode_bin_record(
            &mut buf,
            rec.config_index,
            rec.config_hash,
            rec.virtual_ns_bits,
            rec.regions,
            &rec.breakdown_bits,
            &rec.energy_bits,
            &rec.runtimes_bits,
        );
    }
    let bin = jsonl.with_extension("bin");
    let tmp = jsonl.with_extension("bin.tmp");
    std::fs::write(&tmp, &buf)?;
    std::fs::rename(&tmp, &bin)?;
    report.files += 1;
    report.records += records.len();
    Ok(report)
}

/// Migrate every `*.jsonl` batch under a cache root (the root itself
/// and its per-architecture subdirectories) to the binary form.
/// Idempotent: re-running rewrites the same binary files.
pub fn migrate_cache_dir(dir: &Path) -> std::io::Result<MigrationReport> {
    fn walk(dir: &Path, recurse: bool, report: &mut MigrationReport) -> std::io::Result<()> {
        let read = match std::fs::read_dir(dir) {
            Ok(r) => r,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => return Ok(()),
            Err(e) => return Err(e),
        };
        for entry in read.flatten() {
            let path = entry.path();
            if path.is_dir() {
                if recurse {
                    walk(&path, false, report)?;
                }
            } else if path.extension().is_some_and(|e| e == "jsonl") {
                report.absorb(migrate_batch_file(&path)?);
            }
        }
        Ok(())
    }
    let mut report = MigrationReport::default();
    walk(dir, true, &mut report)?;
    Ok(report)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::spec::Scope;
    use omptune_core::Arch;
    use workloads::Setting;

    fn tmp_dir(tag: &str) -> PathBuf {
        let dir =
            std::env::temp_dir().join(format!("omptune-cache-test-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        dir
    }

    fn spec() -> SweepSpec {
        SweepSpec {
            scope: Scope::Strided(700),
            reps: 3,
            seed: 21,
            failure_rate: 0.1,
            ..SweepSpec::default()
        }
    }

    fn batch(spec: &SweepSpec) -> SettingData {
        let app = workloads::app("cg").unwrap();
        let setting = Setting {
            input_code: 0,
            num_threads: 40,
        };
        crate::runner::sweep_setting(Arch::Skylake, app, setting, 0, spec)
    }

    #[test]
    fn records_round_trip_bit_exactly_including_nans() {
        let spec = spec();
        let data = batch(&spec);
        // failure_rate 0.1 ⇒ some NaN repetitions exist in the batch.
        assert!(data
            .samples
            .iter()
            .any(|s| s.runtimes.iter().any(|r| r.is_nan())));
        let cache = SampleCache::new(tmp_dir("roundtrip"));
        cache.store_batch(&data, &spec).unwrap();
        // Both forms exist; the hot binary one answers.
        assert!(cache.bin_path(&data.key).exists());
        assert!(cache.batch_path(&data.key).exists());
        let entries = cache.load_batch(&data.key, &spec);
        assert_eq!(entries.len(), data.samples.len() + 1);
        for s in &data.samples {
            let (runtimes, telemetry) = entries
                .lookup(s.config_index, &s.config)
                .expect("cached sample present");
            let got: Vec<u64> = runtimes.iter().map(|r| r.to_bits()).collect();
            let want: Vec<u64> = s.runtimes.iter().map(|r| r.to_bits()).collect();
            assert_eq!(got, want, "config {}", s.config_index);
            assert_eq!(
                telemetry.virtual_ns.to_bits(),
                s.telemetry.virtual_ns.to_bits()
            );
            assert_eq!(telemetry.regions, s.telemetry.regions);
            assert_eq!(
                telemetry.energy.total_j.to_bits(),
                s.telemetry.energy.total_j.to_bits()
            );
            assert_eq!(
                telemetry.energy.wait_j.to_bits(),
                s.telemetry.energy.wait_j.to_bits()
            );
        }
        let default_config = TuningConfig::default_for(Arch::Skylake, 40);
        let (dflt, _) = entries
            .lookup(DEFAULT_ROW_INDEX, &default_config)
            .expect("default row cached");
        assert_eq!(
            dflt.iter().map(|r| r.to_bits()).collect::<Vec<_>>(),
            data.default_runtimes
                .iter()
                .map(|r| r.to_bits())
                .collect::<Vec<_>>()
        );
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn wrong_spec_records_are_misses() {
        let spec = spec();
        let data = batch(&spec);
        let cache = SampleCache::new(tmp_dir("spec"));
        cache.store_batch(&data, &spec).unwrap();
        // Different seed ⇒ nothing answers.
        let reseeded = SweepSpec { seed: 22, ..spec };
        assert!(cache.load_batch(&data.key, &reseeded).is_empty());
        // Different rep count ⇒ nothing answers.
        let rereps = SweepSpec { reps: 4, ..spec };
        assert!(cache.load_batch(&data.key, &rereps).is_empty());
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn corrupt_binary_records_are_skipped_not_fatal() {
        let spec = spec();
        let data = batch(&spec);
        let cache = SampleCache::new(tmp_dir("corrupt-bin"));
        cache.store_batch(&data, &spec).unwrap();
        let bin = cache.bin_path(&data.key);
        let mut bytes = std::fs::read(&bin).unwrap();
        let stride = record_words(spec.reps as usize) * 8;
        // Flip a payload byte inside the first record (its checksum now
        // fails) and tear the final record (the default row) in half.
        bytes[HEADER_WORDS * 8 + 16] ^= 0xff;
        bytes.truncate(bytes.len() - stride / 2);
        std::fs::write(&bin, &bytes).unwrap();
        let entries = cache.load_batch(&data.key, &spec);
        // The two damaged records are gone; everything else survives.
        assert_eq!(entries.len(), data.samples.len() + 1 - 2);
        // Damaged rows read as misses.
        assert!(entries
            .lookup(data.samples[0].config_index, &data.samples[0].config)
            .is_none());
        let default_config = TuningConfig::default_for(Arch::Skylake, 40);
        assert!(entries.lookup(DEFAULT_ROW_INDEX, &default_config).is_none());
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn corrupt_binary_header_falls_back_to_archival_jsonl() {
        let spec = spec();
        let data = batch(&spec);
        let cache = SampleCache::new(tmp_dir("corrupt-header"));
        cache.store_batch(&data, &spec).unwrap();
        let bin = cache.bin_path(&data.key);
        let mut bytes = std::fs::read(&bin).unwrap();
        bytes[3] ^= 0xff; // break the magic
        std::fs::write(&bin, &bytes).unwrap();
        // The archival JSONL still answers in full.
        let entries = cache.load_batch(&data.key, &spec);
        assert_eq!(entries.len(), data.samples.len() + 1);
        let s = &data.samples[0];
        assert!(entries.lookup(s.config_index, &s.config).is_some());
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn corrupt_jsonl_lines_are_skipped_not_fatal() {
        let spec = spec();
        let data = batch(&spec);
        let cache = SampleCache::new(tmp_dir("corrupt-jsonl"));
        cache.store_batch(&data, &spec).unwrap();
        // Force the archival path: no binary file.
        std::fs::remove_file(cache.bin_path(&data.key)).unwrap();
        let path = cache.batch_path(&data.key);
        let text = std::fs::read_to_string(&path).unwrap();
        let mut lines: Vec<String> = text.lines().map(String::from).collect();
        let n = lines.len();
        // Poison one record, truncate another mid-line, and prepend junk.
        lines[0] = "{not json at all".into();
        let half = lines[1].len() / 2;
        lines[1].truncate(half);
        lines.insert(0, "garbage prefix line".into());
        std::fs::write(&path, lines.join("\n")).unwrap();
        let entries = cache.load_batch(&data.key, &spec);
        // The two damaged records are gone; everything else survives.
        assert_eq!(entries.len(), n - 2);
        // Damaged rows read as misses.
        assert!(entries
            .lookup(data.samples[0].config_index, &data.samples[0].config)
            .is_none());
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn hash_mismatch_never_serves_a_wrong_config() {
        let spec = spec();
        let data = batch(&spec);
        let cache = SampleCache::new(tmp_dir("hash"));
        cache.store_batch(&data, &spec).unwrap();
        let entries = cache.load_batch(&data.key, &spec);
        let s = &data.samples[0];
        let mut other = s.config;
        other.schedule = match other.schedule {
            omptune_core::OmpSchedule::Static => omptune_core::OmpSchedule::Dynamic,
            _ => omptune_core::OmpSchedule::Static,
        };
        assert!(entries.lookup(s.config_index, &other).is_none());
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn missing_file_is_an_empty_batch() {
        let cache = SampleCache::new(tmp_dir("missing"));
        let key = RunKey::new(Arch::Milan, "cg", 1, 96);
        assert!(cache.load_batch(&key, &spec()).is_empty());
        assert_eq!(cache.stats(), (0, 0));
    }

    #[test]
    fn migrated_jsonl_answers_identically_to_sweep_written_binary() {
        let spec = spec();
        let data = batch(&spec);
        let cache = SampleCache::new(tmp_dir("migrate"));
        cache.store_batch(&data, &spec).unwrap();
        // Simulate a legacy JSONL-only cache, then upgrade it.
        std::fs::remove_file(cache.bin_path(&data.key)).unwrap();
        let report = migrate_cache_dir(cache.dir()).unwrap();
        assert_eq!(report.files, 1);
        assert_eq!(report.records, data.samples.len() + 1);
        assert_eq!(report.skipped_records, 0);
        assert!(cache.bin_path(&data.key).exists());
        let entries = cache.load_batch(&data.key, &spec);
        assert_eq!(entries.len(), data.samples.len() + 1);
        for s in &data.samples {
            let (runtimes, _) = entries
                .lookup(s.config_index, &s.config)
                .expect("migrated sample answers");
            let got: Vec<u64> = runtimes.iter().map(|r| r.to_bits()).collect();
            let want: Vec<u64> = s.runtimes.iter().map(|r| r.to_bits()).collect();
            assert_eq!(got, want, "config {}", s.config_index);
        }
        // And the migrated file still rejects a wrong config.
        let s = &data.samples[0];
        let mut other = s.config;
        other.schedule = match other.schedule {
            omptune_core::OmpSchedule::Static => omptune_core::OmpSchedule::Dynamic,
            _ => omptune_core::OmpSchedule::Static,
        };
        assert!(entries.lookup(s.config_index, &other).is_none());
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    /// Strip the `energy_bits` field from every JSONL line, simulating
    /// a cache written before the energy format existed.
    fn strip_energy(path: &Path) {
        let text = std::fs::read_to_string(path).unwrap();
        let stripped: String = text
            .lines()
            .map(|line| {
                let at = line.find(",\"energy_bits\"").expect("field present");
                format!("{}}}\n", &line[..at])
            })
            .collect();
        assert!(!stripped.contains("energy_bits"));
        std::fs::write(path, stripped).unwrap();
    }

    #[test]
    fn pre_energy_caches_stay_warm_and_reprice_identically() {
        let spec = spec();
        let data = batch(&spec);
        let cache = SampleCache::new(tmp_dir("pre-energy"));
        cache.store_batch(&data, &spec).unwrap();
        // Rewind the on-disk state to the pre-energy generation: JSONL
        // without the field, no binary file.
        std::fs::remove_file(cache.bin_path(&data.key)).unwrap();
        strip_energy(&cache.batch_path(&data.key));

        let check = |entries: &BatchEntries| {
            assert_eq!(entries.len(), data.samples.len() + 1);
            for s in &data.samples {
                let (runtimes, telemetry) = entries
                    .lookup(s.config_index, &s.config)
                    .expect("legacy record answers");
                assert_eq!(
                    runtimes.iter().map(|r| r.to_bits()).collect::<Vec<_>>(),
                    s.runtimes.iter().map(|r| r.to_bits()).collect::<Vec<_>>()
                );
                // Energy was never stored; the lookup re-priced it
                // bit-identically to what the sweep computed.
                assert_eq!(
                    energy_to_bits(&telemetry.energy),
                    energy_to_bits(&s.telemetry.energy),
                    "config {}",
                    s.config_index
                );
            }
        };
        // Archival JSONL path.
        check(&cache.load_batch(&data.key, &spec));
        // Migrating the legacy JSONL writes a v1 container (no energy
        // words exist to migrate); it must answer identically too.
        migrate_cache_dir(cache.dir()).unwrap();
        let bytes = std::fs::read(cache.bin_path(&data.key)).unwrap();
        assert_eq!(read_word(&bytes, 0), BIN_MAGIC_V1);
        check(&cache.load_batch(&data.key, &spec));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    #[test]
    fn stale_tmp_files_are_reaped_on_open() {
        let dir = tmp_dir("reap");
        let arch_dir = dir.join("skylake");
        std::fs::create_dir_all(&arch_dir).unwrap();
        std::fs::write(arch_dir.join("cg-i0-t40.jsonl.tmp"), b"torn").unwrap();
        std::fs::write(arch_dir.join("cg-i0-t40.bin.tmp"), b"torn").unwrap();
        std::fs::write(arch_dir.join("cg-i0-t40.jsonl"), b"").unwrap();
        let cache = SampleCache::new(&dir);
        assert_eq!(cache.tmp_reaped(), 2);
        assert!(!arch_dir.join("cg-i0-t40.jsonl.tmp").exists());
        assert!(!arch_dir.join("cg-i0-t40.bin.tmp").exists());
        assert!(arch_dir.join("cg-i0-t40.jsonl").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
