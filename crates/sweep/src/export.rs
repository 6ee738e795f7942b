//! Dataset export: the open-sourced artifacts the paper promises —
//! tabular CSV (one row per sample) and JSON (full fidelity via serde) —
//! and [`write_artifacts`], the one place that writes a collection run's
//! files to a directory.

use crate::dataset::Dataset;
use crate::provenance::{provenance_iter, write_manifest, write_provenance_jsonl, RunManifest};
use crate::runner::SettingData;
use crate::spec::SweepSpec;
use omptune_core::Variable;
use std::fs::File;
use std::io::{self, BufWriter, Write};
use std::path::Path;
use std::time::Instant;

/// CSV header for the tabular dataset; the seven value columns are the
/// variable table's names, lower-cased.
pub const CSV_HEADER: &str = "arch,app,input_size,num_threads,omp_places,omp_proc_bind,\
omp_schedule,kmp_library,kmp_blocktime,kmp_force_reduction,kmp_align_alloc,speedup";

/// `n` in decimal at the end of `row`.
fn push_uint(row: &mut Vec<u8>, mut n: u64) {
    let mut digits = [0; 20];
    let mut at = digits.len();
    loop {
        at -= 1;
        digits[at] = b'0' + (n % 10) as u8;
        n /= 10;
        if n == 0 {
            break;
        }
    }
    row.extend_from_slice(&digits[at..]);
}

/// `x` as `{}` prints it at the end of `row`. An integer below 10^15 in
/// magnitude is exact in an `f64`, and `{}` prints exactly its digits,
/// so those are written directly; anything else, `-0.0` (`-0`) included,
/// goes through `core::fmt`.
fn push_display(row: &mut Vec<u8>, x: f64) -> io::Result<()> {
    if x.fract() == 0.0 && x.abs() < 1e15 && x.to_bits() != (-0.0f64).to_bits() {
        if x < 0.0 {
            row.push(b'-');
        }
        push_uint(row, x.abs() as u64);
        Ok(())
    } else {
        write!(row, "{x}")
    }
}

/// Write the processed dataset as CSV. Each row is built in one reused
/// buffer: text and integer cells are copied in, and only a fractional
/// `input_size` and the `{:.6}` speedup go through `core::fmt`.
pub fn write_csv<W: Write>(ds: &Dataset, out: &mut W) -> io::Result<()> {
    writeln!(out, "{CSV_HEADER}")?;
    let mut row = Vec::with_capacity(128);
    for r in &ds.records {
        let c = &r.config;
        row.clear();
        for cell in [r.arch.id(), &r.app] {
            row.extend_from_slice(cell.as_bytes());
            row.push(b',');
        }
        push_display(&mut row, r.input_size)?;
        row.push(b',');
        push_uint(&mut row, c.num_threads as u64);
        row.push(b',');
        for var in Variable::ALL {
            row.extend_from_slice(c.label(var).as_bytes());
            row.push(b',');
        }
        writeln!(row, "{:.6}", r.speedup)?;
        out.write_all(&row)?;
    }
    Ok(())
}

/// Serialize raw batches (the "raw output" artifact) as JSON.
pub fn write_raw_json<W: Write>(batches: &[SettingData], out: &mut W) -> io::Result<()> {
    serde_json::to_writer(out, batches).map_err(io::Error::other)
}

/// Round-trip helper used by tests and the repro binaries.
pub fn read_raw_json(data: &[u8]) -> io::Result<Vec<SettingData>> {
    serde_json::from_slice(data).map_err(io::Error::other)
}

/// The files [`write_artifacts`] leaves in its directory, in the order
/// `collect` reports them; errors are ranked in this order too.
pub const ARTIFACT_FILES: [&str; 5] = [
    "samples.csv",
    "raw_batches.json",
    "provenance.jsonl",
    "manifest.json",
    "SUMMARY.txt",
];

// Ranks in [`ARTIFACT_FILES`].
const CSV: usize = 0;
const RAW: usize = 1;
const PROVENANCE: usize = 2;
const MANIFEST: usize = 3;
const SUMMARY: usize = 4;

/// Bytes each artifact writer may hold back from its file.
const SINK_BYTES: usize = 64 * 1024;

/// What [`write_artifacts`] wrote and what it cost.
#[derive(Debug, Clone)]
pub struct ArtifactSummary {
    /// Bytes written per file, [`ARTIFACT_FILES`] order.
    pub bytes: [u64; 5],
    /// Lines of `provenance.jsonl` (one per sample).
    pub provenance_lines: usize,
    /// Wall seconds of the dataset job: `raw_batches.json`, then
    /// `Dataset::build`, `samples.csv`, `manifest.json`, `SUMMARY.txt`.
    pub dataset_job_s: f64,
    /// Wall seconds of the provenance job: `provenance.jsonl`.
    pub provenance_job_s: f64,
    /// Wall seconds of the whole call.
    pub wall_s: f64,
    /// Threads the two jobs ran on: 2 side by side, 1 one after the other.
    pub threads: usize,
}

/// A failed artifact: which file (index into [`ARTIFACT_FILES`]) and why.
type Failed = (usize, io::Error);

/// Counts what passes through to `inner`.
struct Counted<W> {
    inner: W,
    bytes: u64,
}

impl<W: Write> Write for Counted<W> {
    fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
        let n = self.inner.write(buf)?;
        self.bytes += n as u64;
        Ok(n)
    }

    fn flush(&mut self) -> io::Result<()> {
        self.inner.flush()
    }
}

/// What an artifact writer writes into: a buffer in front of the
/// counted output.
type Sink<W> = BufWriter<Counted<W>>;

/// Run `write` over a [`SINK_BYTES`] buffer in front of `out` and flush
/// it: a failure on the last buffered bytes is this call's error, not a
/// short file found later. Returns the bytes that reached `out`.
fn write_through<W: Write>(
    out: W,
    write: impl FnOnce(&mut Sink<W>) -> io::Result<()>,
) -> io::Result<u64> {
    let mut sink = BufWriter::with_capacity(
        SINK_BYTES,
        Counted {
            inner: out,
            bytes: 0,
        },
    );
    write(&mut sink)?;
    sink.flush()?;
    Ok(sink.get_ref().bytes)
}

/// Create `dir/ARTIFACT_FILES[file]` and [`write_through`] it; an error
/// carries the file's rank and names its path.
fn write_file(
    dir: &Path,
    file: usize,
    write: impl FnOnce(&mut Sink<File>) -> io::Result<()>,
) -> Result<u64, Failed> {
    let path = dir.join(ARTIFACT_FILES[file]);
    File::create(&path)
        .and_then(|f| write_through(f, write))
        .map_err(|e| {
            (
                file,
                io::Error::new(e.kind(), format!("{}: {e}", path.display())),
            )
        })
}

/// `SUMMARY.txt`: the per-architecture Table II counts next to the data.
fn table2_summary(dataset: &Dataset) -> String {
    let mut summary = String::from("samples per architecture (paper Table II)\n");
    for (arch, apps, samples) in dataset.table2() {
        summary.push_str(&format!(
            "{}: {apps} applications, {samples} samples\n",
            arch.id()
        ));
    }
    summary
}

/// Write a finished collection run's artifacts into `out_dir` (which
/// must exist): every file of [`ARTIFACT_FILES`], from cleaned batches.
///
/// The work is two jobs that share nothing but the read-only inputs. The
/// dataset job writes `raw_batches.json`, then builds the [`Dataset`] and
/// writes `samples.csv`, `manifest.json` and `SUMMARY.txt`; the
/// provenance job writes `provenance.jsonl`. With `workers >= 2` they run
/// side by side (one scoped thread beside the caller), with `workers ==
/// 1` one after the other on the calling thread — the same closures, so
/// every file's bytes are the same at any worker count.
///
/// Each file is flushed before it counts as written. Both jobs always
/// run to their own end; if any file failed, the error of the first one
/// in [`ARTIFACT_FILES`] order is returned, naming its path. A panic in
/// either job propagates.
pub fn write_artifacts(
    out_dir: &Path,
    batches: &[SettingData],
    spec: &SweepSpec,
    manifest: &RunManifest,
    workers: usize,
) -> io::Result<ArtifactSummary> {
    let t0 = Instant::now();
    let dataset_job = || -> Result<([u64; 5], f64), Failed> {
        let t = Instant::now();
        let mut bytes = [0; 5];
        bytes[RAW] = write_file(out_dir, RAW, |out| write_raw_json(batches, out))?;
        let dataset = Dataset::build(batches);
        bytes[CSV] = write_file(out_dir, CSV, |out| write_csv(&dataset, out))?;
        bytes[MANIFEST] = write_file(out_dir, MANIFEST, |out| write_manifest(manifest, out))?;
        let summary = table2_summary(&dataset);
        bytes[SUMMARY] = write_file(out_dir, SUMMARY, |out| out.write_all(summary.as_bytes()))?;
        Ok((bytes, t.elapsed().as_secs_f64()))
    };
    let provenance_job = || -> Result<(u64, usize, f64), Failed> {
        let t = Instant::now();
        let mut lines = 0usize;
        let records = provenance_iter(batches, spec).inspect(|_| lines += 1);
        let bytes = write_file(out_dir, PROVENANCE, |out| {
            write_provenance_jsonl(records, out)
        })?;
        Ok((bytes, lines, t.elapsed().as_secs_f64()))
    };

    let threads = workers.clamp(1, 2);
    let (dataset, provenance) = if threads == 2 {
        std::thread::scope(|scope| {
            let provenance = scope.spawn(provenance_job);
            let dataset = dataset_job();
            let provenance = provenance
                .join()
                .unwrap_or_else(|panic| std::panic::resume_unwind(panic));
            (dataset, provenance)
        })
    } else {
        (dataset_job(), provenance_job())
    };
    match (dataset, provenance) {
        (Ok((mut bytes, dataset_job_s)), Ok((written, provenance_lines, provenance_job_s))) => {
            bytes[PROVENANCE] = written;
            Ok(ArtifactSummary {
                bytes,
                provenance_lines,
                dataset_job_s,
                provenance_job_s,
                wall_s: t0.elapsed().as_secs_f64(),
                threads,
            })
        }
        (Err(a), Err(b)) => Err(if a.0 < b.0 { a.1 } else { b.1 }),
        (Err((_, e)), Ok(_)) | (Ok(_), Err((_, e))) => Err(e),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::runner::{RawSample, RunKey};
    use omptune_core::analysis::AnalysisRecord;
    use omptune_core::{Arch, ConfigSpace, TuningConfig};

    fn small_dataset() -> Dataset {
        Dataset {
            records: vec![AnalysisRecord {
                arch: Arch::Milan,
                app: "cg".into(),
                input_size: 1.0,
                config: TuningConfig::default_for(Arch::Milan, 96),
                speedup: 1.25,
            }],
        }
    }

    #[test]
    fn csv_has_header_and_rows() {
        let mut ds = small_dataset();
        ds.records.push(AnalysisRecord {
            config: ConfigSpace::new(Arch::Milan, 24).get(4861).unwrap(),
            ..ds.records[0].clone()
        });
        let mut buf = Vec::new();
        write_csv(&ds, &mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let mut lines = text.lines();
        assert_eq!(lines.next().unwrap(), CSV_HEADER);
        let row = lines.next().unwrap();
        assert!(row.starts_with("milan,cg,1,96,unset,unset,static,"));
        assert!(row.ends_with("1.250000"));
        assert_eq!(row.split(',').count(), CSV_HEADER.split(',').count());
        // A non-default row as the parent of the variable table wrote it,
        // under value columns that are the table's names.
        let row = lines.next().unwrap();
        assert_eq!(
            row,
            "milan,cg,1,24,ll_caches,unset,guided,turnaround,0,atomic,128,1.250000"
        );
        let names = Variable::ALL.map(|v| v.env_name().to_lowercase());
        assert_eq!(CSV_HEADER.split(',').collect::<Vec<_>>()[4..11], names);
    }

    /// The CSV as `write_csv` wrote it with one `write!` per cell group.
    fn reference_csv(ds: &Dataset) -> Vec<u8> {
        let mut out = Vec::new();
        writeln!(out, "{CSV_HEADER}").unwrap();
        for r in &ds.records {
            let c = &r.config;
            write!(
                out,
                "{},{},{},{},",
                r.arch.id(),
                r.app,
                r.input_size,
                c.num_threads
            )
            .unwrap();
            for var in Variable::ALL {
                write!(out, "{},", c.label(var)).unwrap();
            }
            writeln!(out, "{:.6}", r.speedup).unwrap();
        }
        out
    }

    #[test]
    fn csv_rows_are_the_write_rows_on_edge_cells() {
        let base = small_dataset().records[0].clone();
        let mut records = Vec::new();
        // Every spelling of every variable, owned ones included: an
        // alignment outside the union spells itself.
        for var in Variable::ALL {
            for slot in 0..var.union_len() {
                records.push(AnalysisRecord {
                    config: var.at(base.config, slot),
                    ..base.clone()
                });
            }
        }
        for align in [3, 1 << 20, u32::MAX] {
            let mut config = base.config;
            config.align_alloc = omptune_core::KmpAlignAlloc(align);
            assert!(matches!(
                config.label(Variable::AlignAlloc),
                std::borrow::Cow::Owned(_)
            ));
            records.push(AnalysisRecord {
                config,
                ..base.clone()
            });
        }
        for num_threads in [0, 1, 9, 10, usize::MAX] {
            let mut config = base.config;
            config.num_threads = num_threads;
            records.push(AnalysisRecord {
                config,
                ..base.clone()
            });
        }
        let input_sizes = [
            -0.0,
            0.0,
            0.5,
            -0.5,
            3.0,
            -3.0,
            1e15 - 1.0,
            -(1e15 - 1.0),
            1e15,
            1e16,
            9007199254740993.0,
            1e300,
            5e-324,
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
        ];
        let speedups = [
            f64::NAN,
            f64::INFINITY,
            f64::NEG_INFINITY,
            -0.0,
            0.0,
            1.25,
            0.0000005,
            0.0000015,
            -2.5e-7,
            1e20,
        ];
        for (i, input_size) in input_sizes.into_iter().enumerate() {
            for speedup in speedups {
                records.push(AnalysisRecord {
                    app: format!("app{i}"),
                    input_size,
                    speedup,
                    ..base.clone()
                });
            }
        }
        // Integral input sizes at every magnitude either side of 10^15,
        // and random bit patterns.
        let mut state = 0x9e37_79b9_7f4a_7c15u64;
        for _ in 0..20_000 {
            state ^= state << 13;
            state ^= state >> 7;
            state ^= state << 17;
            let integral = (state >> (state % 64)) as f64;
            for input_size in [integral, -integral, f64::from_bits(state)] {
                records.push(AnalysisRecord {
                    input_size,
                    ..base.clone()
                });
            }
        }
        let ds = Dataset { records };
        let mut csv = Vec::new();
        write_csv(&ds, &mut csv).unwrap();
        let (csv, reference) = (String::from_utf8(csv).unwrap(), reference_csv(&ds));
        for (row, want) in csv
            .lines()
            .zip(String::from_utf8(reference).unwrap().lines())
        {
            assert_eq!(row, want);
        }
        assert_eq!(csv.lines().count(), ds.records.len() + 1);
    }

    #[test]
    fn raw_json_roundtrip() {
        let batches = vec![SettingData {
            key: RunKey::new(Arch::A64fx, "ep", 2, 48),
            samples: vec![RawSample {
                config_index: 17,
                config: TuningConfig::default_for(Arch::A64fx, 48),
                runtimes: vec![0.5, 0.51, 0.49],
                telemetry: crate::runner::SampleTelemetry {
                    virtual_ns: 5.0e8,
                    regions: 12,
                    breakdown: omptel::Breakdown {
                        compute_ns: 4.0e8,
                        imbalance_ns: 1.0e8,
                        ..omptel::Breakdown::default()
                    },
                    energy: omptel::EnergyBreakdown::default(),
                },
            }],
            default_runtimes: vec![0.5, 0.5, 0.5],
            default_telemetry: crate::runner::SampleTelemetry {
                virtual_ns: 5.0e8,
                regions: 12,
                breakdown: omptel::Breakdown {
                    compute_ns: 4.0e8,
                    imbalance_ns: 1.0e8,
                    ..omptel::Breakdown::default()
                },
                energy: omptel::EnergyBreakdown::default(),
            },
        }];
        let mut buf = Vec::new();
        write_raw_json(&batches, &mut buf).unwrap();
        let back = read_raw_json(&buf).unwrap();
        assert_eq!(back, batches);
    }

    /// Accepts `room` bytes, then fails like a full disk.
    struct FullDisk {
        room: usize,
    }

    impl Write for FullDisk {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if buf.len() > self.room {
                return Err(io::Error::other("no space left on device"));
            }
            self.room -= buf.len();
            Ok(buf.len())
        }

        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn a_failure_on_the_final_flush_is_an_error_not_a_short_file() {
        let ds = small_dataset();
        let mut csv = Vec::new();
        write_csv(&ds, &mut csv).unwrap();
        // The document fits the sink, so its writer never sees the
        // output fail: only the closing flush does.
        assert!(csv.len() < SINK_BYTES);
        let room = csv.len() - 1;
        let err = write_through(FullDisk { room }, |out| write_csv(&ds, out)).unwrap_err();
        assert!(err.to_string().contains("no space left"), "{err}");
        // With room for all of it, the count is what reached the output.
        let room = csv.len();
        let wrote = write_through(FullDisk { room }, |out| write_csv(&ds, out)).unwrap();
        assert_eq!(wrote, csv.len() as u64);
    }

    #[test]
    fn a_blocked_file_fails_the_call_and_leaves_the_other_job_complete() {
        let spec = SweepSpec {
            scope: crate::spec::Scope::Strided(800),
            reps: 2,
            ..SweepSpec::default()
        };
        let app = workloads::app("ep").unwrap();
        let setting = workloads::Setting {
            input_code: 0,
            num_threads: 40,
        };
        let batches = vec![crate::runner::sweep_setting(
            Arch::Skylake,
            app,
            setting,
            0,
            &spec,
        )];
        let manifest = RunManifest::new(&spec);
        let mut expected = Vec::new();
        write_provenance_jsonl(provenance_iter(&batches, &spec), &mut expected).unwrap();

        for workers in [1, 2] {
            let dir = std::env::temp_dir().join(format!(
                "omptune-export-test-{workers}-{}",
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(dir.join("raw_batches.json")).unwrap();
            let err = write_artifacts(&dir, &batches, &spec, &manifest, workers).unwrap_err();
            let path = dir.join("raw_batches.json").display().to_string();
            assert!(err.to_string().starts_with(&path), "{err}");
            // The dataset job stopped at its first file; the provenance
            // job still ran to its end.
            assert!(!dir.join("samples.csv").exists());
            assert_eq!(
                std::fs::read(dir.join("provenance.jsonl")).unwrap(),
                expected
            );
            let _ = std::fs::remove_dir_all(&dir);
        }
    }
}
