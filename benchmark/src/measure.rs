//! Host-side measurement helpers: CPU time and peak memory through
//! `getrusage`, order statistics over pass timings, FNV-1a digests, and
//! the small JSON conveniences the harness shares.

use serde::Value;
use std::io::{self, Write};
use std::path::Path;

// ---------------------------------------------------------------------------
// getrusage — declared directly so the harness needs no libc crate.

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("the benchmark reads Linux's 64-bit `struct rusage` layout");

#[repr(C)]
struct Timeval {
    tv_sec: i64,
    tv_usec: i64,
}

/// Linux `struct rusage` on 64-bit targets: two timevals, then 14 longs
/// of which `ru_maxrss` (kilobytes) is the first.
#[repr(C)]
struct Rusage {
    ru_utime: Timeval,
    ru_stime: Timeval,
    ru_maxrss: i64,
    rest: [i64; 13],
}

extern "C" {
    fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    fn wait4(pid: i32, status: *mut i32, options: i32, usage: *mut Rusage) -> i32;
    fn sync();
}

/// Flush every dirty page to disk, so one pass's writes are not still
/// being written back while the next one is timed.
pub fn sync_disks() {
    // SAFETY: sync(2) takes no arguments, touches no memory of ours and
    // cannot fail.
    unsafe { sync() }
}

/// CPU time and peak memory of one process.
#[derive(Debug, Clone, Copy)]
pub struct Usage {
    /// User + system CPU seconds.
    pub cpu_s: f64,
    /// Peak resident set, megabytes.
    pub max_rss_mb: f64,
}

impl Usage {
    fn from_raw(ru: &Rusage) -> Usage {
        let secs = |t: &Timeval| t.tv_sec as f64 + t.tv_usec as f64 * 1e-6;
        Usage {
            cpu_s: secs(&ru.ru_utime) + secs(&ru.ru_stime),
            max_rss_mb: ru.ru_maxrss as f64 / 1024.0,
        }
    }
}

/// What the harness process itself has used so far (the in-process
/// workload).
pub fn own_usage() -> Usage {
    const RUSAGE_SELF: i32 = 0;
    let mut ru = std::mem::MaybeUninit::<Rusage>::zeroed();
    // SAFETY: `ru` points to writable memory of exactly the size and
    // layout the kernel fills for `struct rusage` on 64-bit Linux (the
    // compile_error above rejects every other target), and getrusage
    // writes nothing beyond it.
    let rc = unsafe { getrusage(RUSAGE_SELF, ru.as_mut_ptr()) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) cannot fail");
    // SAFETY: zero-initialised, then filled by the kernel; every field is
    // a plain integer, for which any bit pattern is valid.
    Usage::from_raw(unsafe { &ru.assume_init() })
}

/// Wait for `child` to exit and return whether it succeeded together
/// with *its own* CPU time and peak memory. (`RUSAGE_CHILDREN` would fold
/// every earlier child in — set-up's, and the compiler's when `run.sh`
/// had to build, since the harness keeps the shell's process id.)
pub fn reap(child: std::process::Child) -> io::Result<(bool, Usage)> {
    let pid = child.id() as i32;
    let mut status = 0i32;
    let mut ru = std::mem::MaybeUninit::<Rusage>::zeroed();
    loop {
        // SAFETY: `status` and `ru` are valid for writes of the types
        // wait4 fills, `pid` is a child this process spawned and has not
        // waited for (we own the `Child`), and options 0 blocks.
        let rc = unsafe { wait4(pid, &mut status, 0, ru.as_mut_ptr()) };
        if rc == pid {
            break;
        }
        let err = io::Error::last_os_error();
        if err.kind() != io::ErrorKind::Interrupted {
            return Err(err);
        }
    }
    // The process is reaped; dropping the handle neither waits nor kills.
    drop(child);
    // SAFETY: as in `own_usage`.
    let usage = Usage::from_raw(unsafe { &ru.assume_init() });
    // Exited normally (low seven bits clear) with code 0.
    Ok((status == 0, usage))
}

// ---------------------------------------------------------------------------
// Order statistics.

/// Median of `values` (mean of the two middle values for even counts).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// First and third quartile, by the same exclusive method as Python's
/// `statistics.quantiles(values, n=4)` so the printed spread is the one
/// an outside checker computes. Needs two values; one value is its own
/// quartiles.
pub fn quartiles(values: &[f64]) -> (f64, f64) {
    assert!(!values.is_empty(), "quartiles of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n == 1 {
        return (v[0], v[0]);
    }
    let at = |k: usize| {
        // Position k*(n+1)/4 on a 1-based axis, clamped to the data.
        let j = (k * (n + 1) / 4).clamp(1, n - 1);
        let delta = (k * (n + 1)) as f64 / 4.0 - j as f64;
        v[j - 1] + (v[j] - v[j - 1]) * delta.clamp(0.0, 1.0)
    };
    (at(1), at(3))
}

/// `median [q1..q3] over n` for the human-readable report.
pub fn describe(values: &[f64], unit: &str) -> String {
    let (q1, q3) = quartiles(values);
    format!(
        "{:.4} {unit} [q1 {:.4} .. q3 {:.4}] over {} passes",
        median(values),
        q1,
        q3,
        values.len()
    )
}

// ---------------------------------------------------------------------------
// FNV-1a.

/// Streaming FNV-1a/64: also an `io::Write`, so serializers can hash
/// their output without materialising it.
#[derive(Debug, Clone, Copy)]
pub struct Fnv(pub u64);

impl Fnv {
    pub fn new() -> Fnv {
        Fnv(0xcbf29ce484222325)
    }

    pub fn bytes(&mut self, bytes: &[u8]) {
        for &b in bytes {
            self.0 ^= b as u64;
            self.0 = self.0.wrapping_mul(0x100000001b3);
        }
    }

    pub fn word(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

impl Write for Fnv {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        self.bytes(buf);
        Ok(buf.len())
    }

    fn flush(&mut self) -> io::Result<()> {
        Ok(())
    }
}

pub fn fnv_of(bytes: &[u8]) -> u64 {
    let mut h = Fnv::new();
    h.bytes(bytes);
    h.0
}

pub fn fnv_file(path: &Path) -> io::Result<u64> {
    Ok(fnv_of(&std::fs::read(path)?))
}

/// Digest of a directory's regular files: names and contents in name
/// order (the figure CSVs of one `repro-figures` run).
pub fn fnv_dir(dir: &Path) -> io::Result<u64> {
    let mut names: Vec<_> = std::fs::read_dir(dir)?
        .collect::<io::Result<Vec<_>>>()?
        .into_iter()
        .map(|e| e.path())
        .filter(|p| p.is_file())
        .collect();
    names.sort();
    let mut h = Fnv::new();
    for path in names {
        h.bytes(
            path.file_name()
                .expect("file has a name")
                .as_encoded_bytes(),
        );
        h.bytes(&std::fs::read(&path)?);
    }
    Ok(h.0)
}

/// The simulated-time fingerprint: every `virtual_ns` and runtime bit
/// pattern of a slice (default rows included), in sweep order. A change
/// meant only to speed the pipeline up must leave it identical.
pub fn virt_fnv(batches: &[sweep::SettingData]) -> u64 {
    let mut h = Fnv::new();
    for data in batches {
        h.word(data.default_telemetry.virtual_ns.to_bits());
        for t in &data.default_runtimes {
            h.word(t.to_bits());
        }
        for s in &data.samples {
            h.word(s.telemetry.virtual_ns.to_bits());
            for t in &s.runtimes {
                h.word(t.to_bits());
            }
        }
    }
    h.0
}

/// Bytes under `dir`, recursively (0 when it does not exist).
pub fn dir_bytes(dir: &Path) -> u64 {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return 0;
    };
    entries
        .flatten()
        .map(|e| match e.metadata() {
            Ok(m) if m.is_dir() => dir_bytes(&e.path()),
            Ok(m) => m.len(),
            Err(_) => 0,
        })
        .sum()
}

// ---------------------------------------------------------------------------
// JSON conveniences over the vendored `serde::Value`.

pub fn obj(entries: Vec<(&str, Value)>) -> Value {
    Value::Map(
        entries
            .into_iter()
            .map(|(k, v)| (Value::Str(k.to_string()), v))
            .collect(),
    )
}

pub fn get<'v>(v: &'v Value, key: &str) -> Option<&'v Value> {
    v.as_map()?
        .iter()
        .find(|(k, _)| k.as_str() == Some(key))
        .map(|(_, v)| v)
}

pub fn hex(v: u64) -> Value {
    Value::Str(format!("{v:016x}"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quartiles_match_python_exclusive_method() {
        // statistics.quantiles([1,2,3,4,5,6,7,8,9,10], n=4) == [2.75, 5.5, 8.25]
        let v: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quartiles(&v), (2.75, 8.25));
        assert_eq!(median(&v), 5.5);
        // statistics.quantiles([3, 1, 2], n=4) == [1.0, 2.0, 3.0]
        assert_eq!(quartiles(&[3.0, 1.0, 2.0]), (1.0, 3.0));
        // statistics.quantiles([1, 2], n=4) == [0.75, 1.5, 2.25]; the
        // harness clamps to the data instead of extrapolating.
        assert_eq!(quartiles(&[1.0, 2.0]), (1.0, 2.0));
    }

    #[test]
    fn rusage_reads_self_and_one_child() {
        let u = own_usage();
        assert!(u.max_rss_mb > 0.0);
        assert!(u.cpu_s >= 0.0);
        let ok = std::process::Command::new("true").spawn().unwrap();
        let (success, usage) = reap(ok).unwrap();
        assert!(success && usage.max_rss_mb > 0.0);
        let bad = std::process::Command::new("false").spawn().unwrap();
        assert!(!reap(bad).unwrap().0);
    }
}
