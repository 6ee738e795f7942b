//! Time-series store: append-only binary ring files, one per
//! named series.
//!
//! A series file is a fixed-size circular buffer on disk with
//! flight-recorder semantics (always keep the most recent window, never
//! block or grow): a 32-byte header (`magic`, `capacity`, `head`)
//! followed by `capacity` fixed 24-byte records. `head` counts records
//! ever appended, so readers reconstruct the retained window and the
//! number of overwritten (dropped) points exactly — the same scheme as
//! [`crate::ring::ThreadRing`], persisted.
//!
//! Every point is a pre-aggregated bucket `(ts, count, sum)` rather
//! than a bare value, so a producer can record a rate or a mean over
//! many observations as one exact point (`collect` writes a per-arch
//! cache-hit rate as `count` lookups, `sum` hits). Single observations
//! are `count == 1` buckets.
//!
//! Writing is write-behind: [`RingFile::append`] queues the point in
//! memory and [`RingFile::flush`] writes the queue — each contiguous run
//! of slots in one positioned write, then `head`, once, after the
//! records. A file on disk therefore always describes a prefix of what
//! was appended: `head` never counts a record that was not written
//! before it. Producers flush at their own consistency points (`collect`
//! at the end of every architecture); dropping the handle flushes too,
//! but cannot report an error.

use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{self, Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};

/// File magic + format version.
const MAGIC: &[u8; 8] = b"OMTSDB01";
/// Header bytes: magic(8) + capacity(8) + head(8) + reserved(8).
const HEADER_BYTES: u64 = 32;
/// Record bytes: ts(8) + count(8) + sum-as-f64-bits(8).
const RECORD_BYTES: u64 = 24;
/// Default per-series ring capacity in points.
pub const DEFAULT_CAPACITY: u64 = 16_384;
/// Series file extension.
const EXT: &str = "omts";

/// Little-endian word `i` of a header or a record. Both are whole words
/// — the header a fixed array, a record a `chunks_exact(RECORD_BYTES)`
/// item — and callers name a word inside them, so the slice is in
/// bounds.
fn le_word(bytes: &[u8], i: usize) -> u64 {
    let mut word = [0; 8];
    word.copy_from_slice(&bytes[i * 8..i * 8 + 8]);
    u64::from_le_bytes(word)
}

/// One pre-aggregated observation bucket.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Point {
    /// Producer-defined timestamp: a sequence number for deterministic
    /// series, elapsed milliseconds for wall series.
    pub ts: u64,
    /// Observations folded into this bucket.
    pub count: u64,
    /// Sum of the folded observations.
    pub sum: f64,
}

impl Point {
    /// One observation as a bucket.
    pub fn single(ts: u64, value: f64) -> Point {
        Point {
            ts,
            count: 1,
            sum: value,
        }
    }

    /// Mean of the bucket (0 when empty).
    pub fn value(&self) -> f64 {
        if self.count == 0 {
            0.0
        } else {
            self.sum / self.count as f64
        }
    }

    fn encode(&self) -> [u8; RECORD_BYTES as usize] {
        let mut out = [0u8; RECORD_BYTES as usize];
        out[0..8].copy_from_slice(&self.ts.to_le_bytes());
        out[8..16].copy_from_slice(&self.count.to_le_bytes());
        out[16..24].copy_from_slice(&self.sum.to_bits().to_le_bytes());
        out
    }

    fn decode(b: &[u8]) -> Point {
        Point {
            ts: le_word(b, 0),
            count: le_word(b, 1),
            sum: f64::from_bits(le_word(b, 2)),
        }
    }
}

/// Writer handle to one series ring file.
pub struct RingFile {
    file: File,
    capacity: u64,
    /// Points ever appended, queued ones included.
    head: u64,
    /// Appended but not yet written: the points `head - queued.len()
    /// .. head`. Never longer than `capacity`, so a flush covers every
    /// slot at most once.
    queued: Vec<Point>,
}

impl RingFile {
    /// Open (or create) a ring file. An existing file keeps its own
    /// capacity; a new one is laid out with `capacity` slots.
    pub fn open(path: &Path, capacity: u64) -> io::Result<RingFile> {
        let capacity = capacity.max(1);
        let mut file = OpenOptions::new()
            .read(true)
            .write(true)
            .create(true)
            .truncate(false)
            .open(path)?;
        let end = file.seek(SeekFrom::End(0))?;
        if end == 0 {
            let mut header = [0u8; HEADER_BYTES as usize];
            header[0..8].copy_from_slice(MAGIC);
            header[8..16].copy_from_slice(&capacity.to_le_bytes());
            file.seek(SeekFrom::Start(0))?;
            file.write_all(&header)?;
            return Ok(RingFile {
                file,
                capacity,
                head: 0,
                queued: Vec::new(),
            });
        }
        let (capacity, head) = read_header(&mut file, path)?;
        Ok(RingFile {
            file,
            capacity,
            head,
            queued: Vec::new(),
        })
    }

    /// Append one point, overwriting the oldest once the ring is full.
    /// The point is queued; it reaches the file at the next
    /// [`flush`](RingFile::flush) (which a full queue triggers itself).
    pub fn append(&mut self, p: Point) -> io::Result<()> {
        if self.queued.len() as u64 == self.capacity {
            self.flush()?;
        }
        self.queued.push(p);
        self.head += 1;
        Ok(())
    }

    /// Write every queued point, then the head.
    pub fn flush(&mut self) -> io::Result<()> {
        if self.queued.is_empty() {
            return Ok(());
        }
        let first_slot = (self.head - self.queued.len() as u64) % self.capacity;
        let before_wrap = self.queued.len().min((self.capacity - first_slot) as usize);
        let records: Vec<u8> = self.queued.iter().flat_map(Point::encode).collect();
        let (run, wrapped) = records.split_at(before_wrap * RECORD_BYTES as usize);
        self.write_at(HEADER_BYTES + first_slot * RECORD_BYTES, run)?;
        if !wrapped.is_empty() {
            self.write_at(HEADER_BYTES, wrapped)?;
        }
        // Last, so the head on disk never counts an unwritten record.
        self.write_at(16, &self.head.to_le_bytes())?;
        self.queued.clear();
        Ok(())
    }

    fn write_at(&mut self, offset: u64, bytes: &[u8]) -> io::Result<()> {
        self.file.seek(SeekFrom::Start(offset))?;
        self.file.write_all(bytes)
    }

    /// Points ever appended, queued ones included.
    pub fn head(&self) -> u64 {
        self.head
    }
}

impl Drop for RingFile {
    fn drop(&mut self) {
        // Best effort: callers that need the error call `flush`.
        let _ = self.flush();
    }
}

fn read_header(file: &mut File, path: &Path) -> io::Result<(u64, u64)> {
    let bad = |what: &str| {
        io::Error::new(
            io::ErrorKind::InvalidData,
            format!("{}: {what}", path.display()),
        )
    };
    file.seek(SeekFrom::Start(0))?;
    let mut header = [0u8; HEADER_BYTES as usize];
    file.read_exact(&mut header)
        .map_err(|_| bad("truncated tsdb header"))?;
    if &header[0..8] != MAGIC {
        return Err(bad("not an OMTSDB01 ring file"));
    }
    let (capacity, head) = (le_word(&header, 1), le_word(&header, 2));
    if capacity == 0 {
        return Err(bad("zero capacity"));
    }
    Ok((capacity, head))
}

/// Read one ring file: the retained window oldest-first, plus the
/// number of points overwritten before the window. The header's
/// `capacity` and `head` are claims; what is read (and allocated) is
/// bounded by the slots the file holds, and a file that ends early
/// yields the points before the gap.
pub fn read_ring(path: &Path) -> io::Result<(Vec<Point>, u64)> {
    let mut file = File::open(path)?;
    let (capacity, head) = read_header(&mut file, path)?;
    let retained = head.min(capacity);
    let dropped = head - retained;
    let present = file.metadata()?.len().saturating_sub(HEADER_BYTES) / RECORD_BYTES;
    // The mirror of `RingFile::flush`: the run from the oldest slot to
    // the end of the ring, then the wrapped one from its start.
    let first_slot = (head - retained) % capacity;
    let before_wrap = retained.min(capacity - first_slot);
    let mut records = Vec::new();
    for (slot, want) in [(first_slot, before_wrap), (0, retained - before_wrap)] {
        let slot = slot.min(present);
        let have = want.min(present - slot);
        file.seek(SeekFrom::Start(HEADER_BYTES + slot * RECORD_BYTES))?;
        Read::by_ref(&mut file)
            .take(have * RECORD_BYTES)
            .read_to_end(&mut records)?;
        if have < want {
            break;
        }
    }
    let points = records
        .chunks_exact(RECORD_BYTES as usize)
        .map(Point::decode)
        .collect();
    Ok((points, dropped))
}

/// A directory of named series ring files.
pub struct Tsdb {
    dir: PathBuf,
    capacity: u64,
    files: HashMap<String, RingFile>,
}

/// Encode a series name (`skylake/virt/s0`) as a file stem: `/` is the
/// only separator series names use and maps to `@`, reversibly.
fn series_file_stem(series: &str) -> String {
    series.replace('/', "@")
}

fn series_name_of(stem: &str) -> String {
    stem.replace('@', "/")
}

impl Tsdb {
    /// Open (creating if needed) a series directory for writing.
    pub fn open(dir: impl Into<PathBuf>, capacity: u64) -> io::Result<Tsdb> {
        let dir = dir.into();
        std::fs::create_dir_all(&dir)?;
        Ok(Tsdb {
            dir,
            capacity,
            files: HashMap::new(),
        })
    }

    /// The series directory.
    pub fn dir(&self) -> &Path {
        &self.dir
    }

    /// Append one point to `series`, opening its ring file on first use.
    /// Like [`RingFile::append`], this queues; [`Tsdb::flush`] writes.
    pub fn append(&mut self, series: &str, p: Point) -> io::Result<()> {
        if let Some(ring) = self.files.get_mut(series) {
            return ring.append(p);
        }
        let path = self.dir.join(format!("{}.{EXT}", series_file_stem(series)));
        let ring = RingFile::open(&path, self.capacity)?;
        self.files
            .entry(series.to_string())
            .or_insert(ring)
            .append(p)
    }

    /// Write every series' queued points to its ring file.
    pub fn flush(&mut self) -> io::Result<()> {
        self.files.values_mut().try_for_each(RingFile::flush)
    }

    /// Every series stored under `dir`, sorted by name.
    pub fn series(dir: &Path) -> io::Result<Vec<String>> {
        let mut out = Vec::new();
        for entry in std::fs::read_dir(dir)? {
            let path = entry?.path();
            if path.extension().and_then(|e| e.to_str()) == Some(EXT) {
                if let Some(stem) = path.file_stem().and_then(|s| s.to_str()) {
                    out.push(series_name_of(stem));
                }
            }
        }
        out.sort();
        Ok(out)
    }

    /// Read one series from `dir`: retained points oldest-first plus
    /// the overwritten-point count.
    pub fn read(dir: &Path, series: &str) -> io::Result<(Vec<Point>, u64)> {
        read_ring(&dir.join(format!("{}.{EXT}", series_file_stem(series))))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("omptel-tsdb-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        dir
    }

    #[test]
    fn points_round_trip_bit_exact() {
        for p in [
            Point::single(0, 0.0),
            Point::single(123, -1.5e300),
            Point {
                ts: u64::MAX,
                count: 7,
                sum: f64::NAN,
            },
        ] {
            let back = Point::decode(&p.encode());
            assert_eq!(back.ts, p.ts);
            assert_eq!(back.count, p.count);
            assert_eq!(back.sum.to_bits(), p.sum.to_bits());
        }
    }

    #[test]
    fn ring_file_wraps_and_counts_drops() {
        let dir = tmp("wrap");
        let path = dir.join("s.omts");
        let mut ring = RingFile::open(&path, 8).unwrap();
        for i in 0..20u64 {
            ring.append(Point::single(i, i as f64)).unwrap();
        }
        assert_eq!(ring.head(), 20);
        ring.flush().unwrap();
        let (points, dropped) = read_ring(&path).unwrap();
        assert_eq!(dropped, 12);
        assert_eq!(points.len(), 8);
        assert_eq!(points[0].ts, 12, "oldest retained");
        assert_eq!(points[7].ts, 19, "newest retained");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn reopen_continues_where_it_left_off() {
        let dir = tmp("reopen");
        let path = dir.join("s.omts");
        {
            let mut ring = RingFile::open(&path, 64).unwrap();
            ring.append(Point::single(1, 10.0)).unwrap();
        }
        let mut ring = RingFile::open(&path, 4).unwrap();
        assert_eq!(ring.capacity, 64, "existing capacity wins");
        assert_eq!(ring.head(), 1);
        ring.append(Point::single(2, 20.0)).unwrap();
        ring.flush().unwrap();
        let (points, dropped) = read_ring(&path).unwrap();
        assert_eq!(dropped, 0);
        assert_eq!(points.len(), 2);
        assert_eq!(points[1].value(), 20.0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// Write-behind changes when bytes reach the file, never which: a
    /// ring flushed once per run of `run` points is byte-identical, at
    /// every flush, to one flushed after every point — across the wrap,
    /// for runs longer than the ring, and through a reopen.
    #[test]
    fn write_behind_is_byte_identical_to_point_by_point() {
        let dir = tmp("behind");
        for run in 1..=20u64 {
            let (batched_path, single_path) = (dir.join("batched.omts"), dir.join("single.omts"));
            for path in [&batched_path, &single_path] {
                let _ = std::fs::remove_file(path);
            }
            let mut batched = RingFile::open(&batched_path, 7).unwrap();
            let mut single = RingFile::open(&single_path, 7).unwrap();
            let mut ts = 0u64;
            for round in 0..5 {
                for _ in 0..run {
                    let p = Point {
                        ts,
                        count: ts % 3 + 1,
                        sum: (ts as f64).sqrt(),
                    };
                    batched.append(p).unwrap();
                    single.append(p).unwrap();
                    single.flush().unwrap();
                    ts += 1;
                }
                batched.flush().unwrap();
                assert_eq!(
                    std::fs::read(&batched_path).unwrap(),
                    std::fs::read(&single_path).unwrap(),
                    "run {run}, round {round}"
                );
                if round == 2 {
                    batched = RingFile::open(&batched_path, 7).unwrap();
                    assert_eq!(batched.head(), ts, "reopen continues at the flushed head");
                }
            }
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// A writer that dies between flushes (its handle is leaked, so not
    /// even `Drop` runs) leaves exactly the flushed prefix behind, with
    /// a head that matches it.
    #[test]
    fn leaked_handle_leaves_the_flushed_prefix() {
        let dir = tmp("leak");
        for flushed in [5u64, 10] {
            let path = dir.join(format!("leak{flushed}.omts"));
            let mut ring = RingFile::open(&path, 7).unwrap();
            for i in 0..flushed {
                ring.append(Point::single(i, i as f64)).unwrap();
            }
            ring.flush().unwrap();
            for i in flushed..flushed + 4 {
                ring.append(Point::single(i, i as f64)).unwrap();
            }
            std::mem::forget(ring);
            let (points, dropped) = read_ring(&path).unwrap();
            assert_eq!(
                dropped + points.len() as u64,
                flushed,
                "head is the flushed one"
            );
            let expect: Vec<Point> = (dropped..flushed)
                .map(|i| Point::single(i, i as f64))
                .collect();
            assert_eq!(points, expect);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn corrupt_header_is_rejected() {
        let dir = tmp("corrupt");
        let path = dir.join("s.omts");
        std::fs::write(&path, b"NOTMAGIC0000000000000000000000000000").unwrap();
        assert!(read_ring(&path).is_err());
        assert!(RingFile::open(&path, 8).is_err());
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `capacity` and `head` come from the file; neither may size an
    /// allocation or place a read beyond the bytes that are there.
    #[test]
    fn hostile_header_reads_the_slots_present_and_allocates_no_more() {
        let dir = tmp("hostile");
        let path = dir.join("s.omts");
        let huge = 1u64 << 60;
        let file_with = |capacity: u64, head: u64, slots: u64| {
            let mut bytes = Vec::new();
            bytes.extend_from_slice(MAGIC);
            bytes.extend_from_slice(&capacity.to_le_bytes());
            bytes.extend_from_slice(&head.to_le_bytes());
            bytes.extend_from_slice(&[0; 8]);
            for i in 0..slots {
                bytes.extend_from_slice(&Point::single(i, i as f64).encode());
            }
            std::fs::write(&path, bytes).unwrap();
        };
        let first_n = |n: u64| (0..n).map(|i| Point::single(i, i as f64)).collect();
        // (capacity, head, slots on disk) -> (points, dropped)
        let cases: [(u64, u64, u64, Vec<Point>, u64); 5] = [
            (huge, huge, 5, first_n(5), 0),
            (huge, huge, 0, vec![], 0),
            (huge, 3, 0, vec![], 0),
            // An unwrapped window that starts past the end of the file.
            (huge, huge + 7, 5, vec![], 7),
            // A wrapped 8-slot ring cut to 3: the window starts at slot
            // 2, the last one left, and the gap after it ends the read.
            (8, huge + 2, 3, vec![Point::single(2, 2.0)], huge + 2 - 8),
        ];
        for (capacity, head, slots, want, want_dropped) in cases {
            file_with(capacity, head, slots);
            let (points, dropped) = read_ring(&path).unwrap();
            assert_eq!(
                points, want,
                "capacity {capacity} head {head} slots {slots}"
            );
            assert_eq!(dropped, want_dropped);
            assert!(points.capacity() as u64 <= slots);
        }
        // A ring cut mid-record: the whole records before the cut.
        file_with(8, 4, 4);
        let len = std::fs::metadata(&path).unwrap().len();
        OpenOptions::new()
            .write(true)
            .open(&path)
            .unwrap()
            .set_len(len - 10)
            .unwrap();
        assert_eq!(read_ring(&path).unwrap(), (first_n(3), 0));
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn tsdb_directory_lists_and_reads_series() {
        let dir = tmp("dir");
        let mut db = Tsdb::open(&dir, 32).unwrap();
        for i in 0..5u64 {
            db.append("skylake/virt/s0", Point::single(i, i as f64))
                .unwrap();
            db.append("skylake/rate/steal", Point::single(i, 0.5))
                .unwrap();
        }
        db.flush().unwrap();
        let names = Tsdb::series(&dir).unwrap();
        assert_eq!(names, vec!["skylake/rate/steal", "skylake/virt/s0"]);
        let (points, dropped) = Tsdb::read(&dir, "skylake/virt/s0").unwrap();
        assert_eq!(dropped, 0);
        assert_eq!(points.len(), 5);
        assert_eq!(points[3].value(), 3.0);
        let (other, _) = Tsdb::read(&dir, "skylake/rate/steal").unwrap();
        assert_eq!(other.iter().map(|p| p.count).sum::<u64>(), 5);
        let _ = std::fs::remove_dir_all(&dir);
    }
}
