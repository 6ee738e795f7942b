//! Persistent content-addressed sample cache: a warm re-run of a sweep
//! replays simulation results from disk instead of recomputing them.
//!
//! A sample's identity is
//! `(engine version, arch, app, setting, config fingerprint, seed)` —
//! exactly the inputs a simulated sample
//! ([`crate::runner::sample_from_sim`]) is a pure function of (the noise stream is identity-derived, so `config_index`
//! is pinned by the configuration and the setting). Every float is
//! stored as its IEEE-754 bit pattern (`f64::to_bits`) so cached samples
//! are **byte-identical** to recomputed ones — NaN failure-injected
//! repetitions included — which the determinism tests pin.
//!
//! One on-disk form: a `.bin` file per `(arch, app, setting)` batch,
//! written whole through a temporary file renamed into place. All values
//! are little-endian `u64` words (container `OMPSCB03`):
//!
//! ```text
//! header   [magic, engine, reps, seed, failure_rate_bits,
//!           count, 0, checksum]                               8 words
//! record×N [config_index, fingerprint, virtual_ns_bits, regions,
//!           breakdown_bits×7, energy_bits×6,
//!           runtimes_bits×reps, checksum]                     18+reps
//! ```
//!
//! Checksums fold the preceding words of the header/record whole, one
//! FNV-1a round per word ([`Fnv1a::mix`]). A single flipped bit anywhere
//! in a header or record changes its checksum: each round is a bijection
//! of the state.
//! Every record has the same stride, so the loader builds a
//! `config_index → slot` index in one pass with no parsing, and warm
//! lookups are O(1) word reads plus a fieldwise fingerprint check.
//!
//! The cache is re-derivable, so it keeps no second copy and reads no
//! older generation: a record whose checksum fails or that lies past a
//! torn tail is a miss; a file whose header is damaged, or that another
//! container version wrote, is an empty batch. Both are counted as
//! `SampleCacheCorrupt`, recomputed, and the batch rewritten. A sound
//! header for a different spec is a legitimately stale batch (empty, not
//! corrupt). The cache can never change a result, only the time it takes
//! to produce it.

use crate::provenance::config_fingerprint;
use crate::runner::{RunKey, SampleTelemetry, SettingData};
use crate::spec::SweepSpec;
use omptune_core::{Fnv1a, TuningConfig};
use std::collections::HashMap;
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

const BIN_MAGIC: u64 = u64::from_le_bytes(*b"OMPSCB03");
const HEADER_WORDS: usize = 8;
const BREAKDOWN_FIELDS: usize = 7;
/// total, active, memory, wait, serial, base.
const ENERGY_FIELDS: usize = 6;
/// Offset of the energy words within a slot: after the fingerprint,
/// virtual, regions and breakdown×7.
const SLOT_ENERGY_AT: usize = 3 + BREAKDOWN_FIELDS;
/// Words of a record the loader keeps, before the runtimes.
const SLOT_HEAD_WORDS: usize = SLOT_ENERGY_AT + ENERGY_FIELDS;

/// Words per on-disk record: the config index, the slot, the checksum.
fn record_words(reps: usize) -> usize {
    1 + SLOT_HEAD_WORDS + reps + 1
}

fn energy_to_bits(e: &omptel::EnergyBreakdown) -> [u64; ENERGY_FIELDS] {
    [
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

fn breakdown_to_bits(b: &omptel::Breakdown) -> [u64; BREAKDOWN_FIELDS] {
    [
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

fn push_word(buf: &mut Vec<u8>, w: u64) {
    buf.extend_from_slice(&w.to_le_bytes());
}

/// The checksum of a header's or record's payload: its words folded
/// whole.
fn checksum(payload: &[u8]) -> u64 {
    let mut h = Fnv1a::new();
    for w in words(payload) {
        h.mix(w);
    }
    h.finish()
}

/// Append the [`checksum`] of `buf[from..]` to `buf`.
fn push_checksum(buf: &mut Vec<u8>, from: usize) {
    let sum = checksum(&buf[from..]);
    push_word(buf, sum);
}

/// The little-endian words of `bytes` (a trailing partial word is
/// dropped).
fn words(bytes: &[u8]) -> impl Iterator<Item = u64> + '_ {
    bytes.chunks_exact(8).map(|c| {
        let mut w = [0u8; 8];
        w.copy_from_slice(c);
        u64::from_le_bytes(w)
    })
}

/// Split a checksummed header/record into its payload bytes and whether
/// the trailing checksum word matches them.
fn checked(bytes: &[u8]) -> (&[u8], bool) {
    let (payload, sum) = bytes.split_at(bytes.len().saturating_sub(8));
    (payload, words(sum).next() == Some(checksum(payload)))
}

/// The spec words a header carries (and a batch must match).
fn spec_words(spec: &SweepSpec) -> [u64; 4] {
    [
        ENGINE_VERSION as u64,
        spec.reps as u64,
        spec.seed,
        spec.failure_rate.to_bits(),
    ]
}

fn encode_record(
    buf: &mut Vec<u8>,
    config_index: usize,
    config: &TuningConfig,
    runtimes: &[f64],
    telemetry: &SampleTelemetry,
) {
    let start = buf.len();
    push_word(buf, config_index as u64);
    push_word(buf, config_fingerprint(config));
    push_word(buf, telemetry.virtual_ns.to_bits());
    push_word(buf, telemetry.regions);
    for w in breakdown_to_bits(&telemetry.breakdown) {
        push_word(buf, w);
    }
    for w in energy_to_bits(&telemetry.energy) {
        push_word(buf, w);
    }
    for r in runtimes {
        push_word(buf, r.to_bits());
    }
    push_checksum(buf, start);
}

/// A loaded batch: one flat word vector plus a `config_index → slot`
/// index (the fixed record stride makes a slot's offset pure
/// arithmetic). Lookups verify the configuration fingerprint, so an
/// index collision from a different space layout can never serve a
/// wrong sample.
pub struct BatchEntries {
    /// Repetitions per record.
    reps: usize,
    /// Slot-major words: `[fingerprint, virtual, regions, breakdown×7,
    /// energy×6, runtimes×reps]` per slot.
    slots: Vec<u64>,
    /// `config_index → slot` offset index.
    index: HashMap<usize, usize>,
}

impl BatchEntries {
    /// No cached entries (cold batch): every lookup misses.
    pub fn empty() -> BatchEntries {
        BatchEntries::with_capacity(0, 0)
    }

    fn with_capacity(reps: usize, records: usize) -> BatchEntries {
        BatchEntries {
            reps,
            slots: Vec::with_capacity(records * (SLOT_HEAD_WORDS + reps)),
            index: HashMap::with_capacity(records),
        }
    }

    fn stride(&self) -> usize {
        SLOT_HEAD_WORDS + self.reps
    }

    /// The cached `(runtimes, telemetry)` for `config`, if present and
    /// content-addressed to exactly this configuration.
    pub fn lookup(
        &self,
        config_index: usize,
        config: &TuningConfig,
    ) -> Option<(Vec<f64>, SampleTelemetry)> {
        let &slot = self.index.get(&config_index)?;
        let words = self
            .slots
            .get(slot * self.stride()..(slot + 1) * self.stride())?;
        if words[0] != config_fingerprint(config) {
            return None;
        }
        let runtimes = words[SLOT_HEAD_WORDS..]
            .iter()
            .map(|&b| f64::from_bits(b))
            .collect();
        let telemetry = SampleTelemetry {
            virtual_ns: f64::from_bits(words[1]),
            regions: words[2],
            breakdown: breakdown_from_bits(&words[3..SLOT_ENERGY_AT]),
            energy: energy_from_bits(&words[SLOT_ENERGY_AT..SLOT_HEAD_WORDS]),
        };
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

    /// The file holding one `(arch, app, setting)` batch.
    pub fn bin_path(&self, key: &RunKey) -> PathBuf {
        self.dir
            .join(key.arch.id())
            .join(format!("{}.bin", key.stem()))
    }

    /// Load the usable records of one batch. A missing or unreadable
    /// file, a damaged header, corrupt records, wrong-version or
    /// wrong-spec batches all yield fewer (or no) entries — damage is
    /// also counted and marked in the flight recorder as cache
    /// corruption. It degrades to recomputation, never to an error or a
    /// wrong result.
    pub fn load_batch(&self, key: &RunKey, spec: &SweepSpec) -> BatchEntries {
        let _span = omptel::span(omptel::SpanKind::CacheRead, key.num_threads as u64);
        let Ok(bytes) = std::fs::read(self.bin_path(key)) else {
            return BatchEntries::empty();
        };
        let mut corrupt = 0u64;
        let entries = decode_batch(&bytes, spec, &mut corrupt);
        if corrupt > 0 {
            omptel::add(omptel::Counter::SampleCacheCorrupt, corrupt);
        }
        entries
    }

    /// Persist one completed batch (all samples plus the default row),
    /// replacing any previous file. The write goes through a temporary
    /// file renamed into place, so a crash mid-write leaves either the
    /// old or the new content — a torn tail at worst, which the tolerant
    /// loader degrades to misses (and whose leftover `.tmp` the next
    /// open reaps).
    pub fn store_batch(&self, data: &SettingData, spec: &SweepSpec) -> std::io::Result<()> {
        let _span = omptel::span(omptel::SpanKind::CacheWrite, data.samples.len() as u64);
        std::fs::create_dir_all(self.dir.join(data.key.arch.id()))?;
        let count = data.samples.len() + 1;
        let mut buf =
            Vec::with_capacity((HEADER_WORDS + count * record_words(spec.reps as usize)) * 8);
        push_word(&mut buf, BIN_MAGIC);
        for w in spec_words(spec) {
            push_word(&mut buf, w);
        }
        push_word(&mut buf, count as u64);
        push_word(&mut buf, 0); // reserved
        push_checksum(&mut buf, 0);
        for s in &data.samples {
            encode_record(
                &mut buf,
                s.config_index,
                &s.config,
                &s.runtimes,
                &s.telemetry,
            );
        }
        encode_record(
            &mut buf,
            DEFAULT_ROW_INDEX,
            &TuningConfig::default_for(data.key.arch, data.key.num_threads),
            &data.default_runtimes,
            &data.default_telemetry,
        );
        let bin = self.bin_path(&data.key);
        let tmp = bin.with_extension("bin.tmp");
        std::fs::write(&tmp, &buf)?;
        std::fs::rename(&tmp, &bin)
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

/// Decode one batch file. Damaged records are skipped, a damaged header
/// empties the batch, and both are counted in `corrupt` and marked in
/// the flight recorder; a sound header for a different spec is an empty
/// batch and no damage.
fn decode_batch(bytes: &[u8], spec: &SweepSpec, corrupt: &mut u64) -> BatchEntries {
    let mut damaged = || {
        *corrupt += 1;
        omptel::instant(omptel::SpanKind::CacheCorrupt, 0);
    };
    let Some((header, body)) = bytes.split_at_checked(HEADER_WORDS * 8) else {
        damaged();
        return BatchEntries::empty();
    };
    let (_, sound) = checked(header);
    let header: Vec<u64> = words(header).collect();
    // Bad magic, bad checksum or a reserved word set.
    if header[0] != BIN_MAGIC || !sound || header[6] != 0 {
        damaged();
        return BatchEntries::empty();
    }
    if header[1..5] != spec_words(spec) {
        return BatchEntries::empty();
    }
    let reps = spec.reps as usize;
    let stride = record_words(reps) * 8;
    // The header's count is a claim; the bytes present bound it.
    let present = body.len() / stride;
    let count = header[5].min(present as u64) as usize;
    let mut entries = BatchEntries::with_capacity(reps, count);
    for rec in body.chunks_exact(stride).take(count) {
        let (payload, sound) = checked(rec);
        let mut payload = words(payload);
        let (true, Some(config_index)) = (sound, payload.next()) else {
            damaged();
            continue;
        };
        let slot_at = entries.slots.len() / entries.stride();
        entries.slots.extend(payload);
        // `DEFAULT_ROW_INDEX` is stored as `u64::MAX`, which `as` maps
        // back at any pointer width. Last write wins, should an index
        // ever repeat.
        entries.index.insert(config_index as usize, slot_at);
    }
    if header[5] > present as u64 {
        // Torn tail: everything before it already loaded.
        damaged();
    }
    entries
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schedule::{sweep_arch_scheduled, sweep_setting_scheduled, SweepOptions};
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
        }
    }

    const SETTING: Setting = Setting {
        input_code: 0,
        num_threads: 40,
    };

    fn batch(spec: &SweepSpec) -> SettingData {
        let app = workloads::app("cg").unwrap();
        crate::runner::sweep_setting(Arch::Skylake, app, SETTING, 0, spec)
    }

    /// The same batch through the scheduler over `cache`: what a warm
    /// sweep does with whatever the cache directory holds.
    fn batch_over(cache: &SampleCache, spec: &SweepSpec) -> SettingData {
        let app = workloads::app("cg").unwrap();
        let opts = SweepOptions::new(2).with_cache(cache);
        sweep_setting_scheduled(Arch::Skylake, app, SETTING, 0, spec, &opts).0
    }

    /// Recompute the header checksum after editing header words.
    fn reseal_header(bytes: &mut [u8]) {
        let at = (HEADER_WORDS - 1) * 8;
        let sum = checksum(&bytes[..at]);
        bytes[at..at + 8].copy_from_slice(&sum.to_le_bytes());
    }

    fn bits(xs: &[f64]) -> Vec<u64> {
        xs.iter().map(|x| x.to_bits()).collect()
    }

    /// Bit-pattern equality (NaN repetitions included).
    fn assert_same_batch(got: &SettingData, want: &SettingData, label: &str) {
        assert_eq!(got.key, want.key, "{label}");
        assert_eq!(got.samples.len(), want.samples.len(), "{label}");
        for (g, w) in got.samples.iter().zip(&want.samples) {
            assert_eq!(g.config_index, w.config_index, "{label}");
            assert_eq!(bits(&g.runtimes), bits(&w.runtimes), "{label}");
            assert_eq!(
                energy_to_bits(&g.telemetry.energy),
                energy_to_bits(&w.telemetry.energy),
                "{label}"
            );
        }
        assert_eq!(
            bits(&got.default_runtimes),
            bits(&want.default_runtimes),
            "{label}"
        );
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
        // One file per batch and nothing beside it.
        let bin = cache.bin_path(&data.key);
        let stored: Vec<PathBuf> = std::fs::read_dir(cache.dir().join("skylake"))
            .unwrap()
            .map(|e| e.unwrap().path())
            .collect();
        assert_eq!(stored, [bin]);
        let entries = cache.load_batch(&data.key, &spec);
        assert_eq!(entries.len(), data.samples.len() + 1);
        for s in &data.samples {
            let (runtimes, telemetry) = entries
                .lookup(s.config_index, &s.config)
                .expect("cached sample present");
            assert_eq!(
                bits(&runtimes),
                bits(&s.runtimes),
                "config {}",
                s.config_index
            );
            assert_eq!(
                telemetry.virtual_ns.to_bits(),
                s.telemetry.virtual_ns.to_bits()
            );
            assert_eq!(telemetry.regions, s.telemetry.regions);
            assert_eq!(
                breakdown_to_bits(&telemetry.breakdown),
                breakdown_to_bits(&s.telemetry.breakdown)
            );
            assert_eq!(
                energy_to_bits(&telemetry.energy),
                energy_to_bits(&s.telemetry.energy)
            );
        }
        let default_config = TuningConfig::default_for(Arch::Skylake, 40);
        let (dflt, _) = entries
            .lookup(DEFAULT_ROW_INDEX, &default_config)
            .expect("default row cached");
        assert_eq!(bits(&dflt), bits(&data.default_runtimes));
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
        // Stale is not damaged.
        let bytes = std::fs::read(cache.bin_path(&data.key)).unwrap();
        let mut corrupt = 0;
        decode_batch(&bytes, &reseeded, &mut corrupt);
        assert_eq!(corrupt, 0);
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
    fn header_damage_empties_the_batch_and_the_recompute_rewrites_it_sound() {
        let spec = spec();
        let data = batch(&spec);
        let cache = SampleCache::new(tmp_dir("corrupt-header"));
        cache.store_batch(&data, &spec).unwrap();
        let bin = cache.bin_path(&data.key);
        let sound = std::fs::read(&bin).unwrap();
        type Damage<'a> = Box<dyn Fn(&[u8]) -> Vec<u8> + 'a>;
        let damages: [(&str, Damage); 3] = [
            ("bad magic", Box::new(|b| flip(b, 3, 0xff))),
            ("bad checksum", Box::new(|b| flip(b, 8, 0x01))),
            // A file of the previous container generation, sound in its
            // own format: not a format this loader reads.
            (
                "previous generation",
                Box::new(|b| previous_generation(b, &data, &spec)),
            ),
        ];
        for (flaw, damage) in damages {
            let bytes = damage(&sound);
            std::fs::write(&bin, &bytes).unwrap();
            let mut corrupt = 0;
            assert!(decode_batch(&bytes, &spec, &mut corrupt).is_empty());
            assert_eq!(corrupt, 1, "{flaw}: one header, one count");
            assert!(cache.load_batch(&data.key, &spec).is_empty(), "{flaw}");
            // Nothing answered, so the sweep recomputes all of it ...
            assert_same_batch(&batch_over(&cache, &spec), &data, flaw);
            // ... and leaves the file as the first store wrote it.
            assert_eq!(std::fs::read(&bin).unwrap(), sound, "{flaw}: rewritten");
        }
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    /// Every single-bit flip of one stored record and of the header is
    /// caught by its checksum: the record misses, the header empties the
    /// batch, and either is counted corrupt once.
    #[test]
    fn every_single_bit_flip_of_a_record_or_the_header_is_caught() {
        let spec = spec();
        let data = batch(&spec);
        let cache = SampleCache::new(tmp_dir("bit-flip"));
        cache.store_batch(&data, &spec).unwrap();
        let mut bytes = std::fs::read(cache.bin_path(&data.key)).unwrap();
        let stride = record_words(spec.reps as usize) * 8;
        let victim = &data.samples[2];
        let record_at = HEADER_WORDS * 8 + 2 * stride;
        for bit in 0..stride * 8 {
            let (byte, mask) = (record_at + bit / 8, 1 << (bit % 8));
            bytes[byte] ^= mask;
            let mut corrupt = 0;
            let entries = decode_batch(&bytes, &spec, &mut corrupt);
            bytes[byte] ^= mask;
            assert_eq!(corrupt, 1, "record bit {bit}");
            assert_eq!(entries.len(), data.samples.len(), "record bit {bit}");
            let hit = entries.lookup(victim.config_index, &victim.config);
            assert!(hit.is_none(), "record bit {bit}");
        }
        for bit in 0..HEADER_WORDS * 64 {
            let (byte, mask) = (bit / 8, 1 << (bit % 8));
            bytes[byte] ^= mask;
            let mut corrupt = 0;
            let entries = decode_batch(&bytes, &spec, &mut corrupt);
            bytes[byte] ^= mask;
            assert_eq!(corrupt, 1, "header bit {bit}");
            assert!(entries.is_empty(), "header bit {bit}");
        }
        let mut corrupt = 0;
        let entries = decode_batch(&bytes, &spec, &mut corrupt);
        assert_eq!((entries.len(), corrupt), (data.samples.len() + 1, 0));
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    /// `bytes` with `mask` xored into byte `at`.
    fn flip(bytes: &[u8], at: usize, mask: u8) -> Vec<u8> {
        let mut bytes = bytes.to_vec();
        bytes[at] ^= mask;
        bytes
    }

    /// The file the previous container generation wrote for `data`:
    /// magic `OMPSCB02`, fingerprints and checksums folded byte by byte.
    fn previous_generation(current: &[u8], data: &SettingData, spec: &SweepSpec) -> Vec<u8> {
        let fingerprint = |c: &TuningConfig| {
            let mut h = Fnv1a::new();
            for field in [
                c.places as u64,
                c.proc_bind as u64,
                c.schedule as u64,
                c.library as u64,
                c.blocktime as u64,
                c.force_reduction as u64,
                c.align_alloc.0 as u64,
                c.num_threads as u64,
            ] {
                h.eat_u64(field);
            }
            h.finish()
        };
        let reseal = |bytes: &mut [u8]| {
            let at = bytes.len() - 8;
            let sum = Fnv1a::of(&bytes[..at]);
            bytes[at..].copy_from_slice(&sum.to_le_bytes());
        };
        let mut bytes = current.to_vec();
        let (header, body) = bytes.split_at_mut(HEADER_WORDS * 8);
        header[..8].copy_from_slice(b"OMPSCB02");
        reseal(header);
        let default = TuningConfig::default_for(data.key.arch, data.key.num_threads);
        let configs = data.samples.iter().map(|s| s.config).chain([default]);
        let stride = record_words(spec.reps as usize) * 8;
        for (record, config) in body.chunks_exact_mut(stride).zip(configs) {
            record[8..16].copy_from_slice(&fingerprint(&config).to_le_bytes());
            reseal(record);
        }
        bytes
    }

    /// A header may claim any count; what is loaded (and allocated) is
    /// bounded by the records the file actually holds.
    #[test]
    fn hostile_count_loads_the_records_present_and_allocates_no_more() {
        let spec = spec();
        let data = batch(&spec);
        let cache = SampleCache::new(tmp_dir("hostile"));
        cache.store_batch(&data, &spec).unwrap();
        let mut bytes = std::fs::read(cache.bin_path(&data.key)).unwrap();
        bytes[5 * 8..6 * 8].copy_from_slice(&(1u64 << 60).to_le_bytes());
        reseal_header(&mut bytes);
        let mut corrupt = 0;
        let entries = decode_batch(&bytes, &spec, &mut corrupt);
        assert_eq!(entries.len(), data.samples.len() + 1);
        assert_eq!(corrupt, 1, "the missing 2^60 - n records are one torn tail");
        assert!(entries.slots.capacity() <= bytes.len() / 8);
        // Header only: the same claim over no records at all.
        bytes.truncate(HEADER_WORDS * 8);
        let entries = decode_batch(&bytes, &spec, &mut corrupt);
        assert!(entries.is_empty());
        assert_eq!(entries.slots.capacity(), 0);
        let _ = std::fs::remove_dir_all(cache.dir());
    }

    /// A writer killed at any word boundary (or a file cut there by
    /// anything else) leaves a loadable prefix, and the sweep over it
    /// still produces the reference.
    #[test]
    fn every_truncation_point_loads_a_prefix_and_recomputes_the_rest() {
        let spec = SweepSpec {
            scope: Scope::Strided(2000),
            ..spec()
        };
        let reference = crate::runner::sweep_arch(Arch::Skylake, &spec);
        let cache = SampleCache::new(tmp_dir("killpoint"));
        let cold = sweep_arch_scheduled(
            Arch::Skylake,
            &spec,
            &SweepOptions::new(2).with_cache(&cache),
        );
        assert_eq!(cold.batches.len(), reference.len());
        let victim = &reference[0];
        let bin = cache.bin_path(&victim.key);
        let sound = std::fs::read(&bin).unwrap();
        let stride = record_words(spec.reps as usize) * 8;
        let whole_records = |len: usize| len.saturating_sub(HEADER_WORDS * 8) / stride;
        assert_eq!(whole_records(sound.len()), victim.samples.len() + 1);
        for cut in (0..=sound.len()).step_by(8) {
            std::fs::write(&bin, &sound[..cut]).unwrap();
            // Exactly the whole records before the cut: monotone in it.
            let len = cache.load_batch(&victim.key, &spec).len();
            assert_eq!(len, whole_records(cut), "cut {cut}");
            // One sweep per record (at a different word of each) and at
            // both ends; every cut was loaded above.
            if cut % (stride + 8) == 0 || cut == sound.len() {
                let warm = sweep_arch_scheduled(
                    Arch::Skylake,
                    &spec,
                    &SweepOptions::new(2).with_cache(&cache),
                );
                for (got, want) in warm.batches.iter().zip(&reference) {
                    assert_same_batch(got, want, &format!("cut {cut}"));
                }
                assert_eq!(std::fs::read(&bin).unwrap(), sound, "cut {cut}: rewritten");
            }
        }
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
    fn stale_tmp_files_are_reaped_on_open() {
        let dir = tmp_dir("reap");
        let arch_dir = dir.join("skylake");
        std::fs::create_dir_all(&arch_dir).unwrap();
        std::fs::write(arch_dir.join("cg-i0-t40.bin.tmp"), b"torn").unwrap();
        std::fs::write(dir.join("stray.tmp"), b"torn").unwrap();
        // What an older cache directory may still hold is not ours to
        // delete (and is never read).
        std::fs::write(arch_dir.join("cg-i0-t40.jsonl"), b"").unwrap();
        let cache = SampleCache::new(&dir);
        assert_eq!(cache.tmp_reaped(), 2);
        assert!(!arch_dir.join("cg-i0-t40.bin.tmp").exists());
        assert!(!dir.join("stray.tmp").exists());
        assert!(arch_dir.join("cg-i0-t40.jsonl").exists());
        let _ = std::fs::remove_dir_all(&dir);
    }
}
