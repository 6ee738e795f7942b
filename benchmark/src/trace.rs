//! The benchmark's own span recorder.
//!
//! Spans are taken in the benchmark's files, around the calls into each
//! layer's public functions — nothing inside the program is instrumented.
//! Each span is (name, start, end, parent, pass) and lives in memory until
//! [`Tracer::write_json`] at the end of the run.
//!
//! One recorder for the process, with one shared open-span stack: the
//! traced driver runs every stage at `workers = 1`, so exactly one thread
//! is ever inside a span (the scheduler's single worker calls the batch
//! observer while the main thread is parked in `thread::scope`), and the
//! innermost open span is the parent whichever of the two threads opens
//! the next one.

use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Instant;

const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the enclosing span, `NO_PARENT` for a top-level span.
    pub parent: u32,
    /// Which stage replay the span belongs to: the ordinal of its
    /// top-level span, shared by everything under it.
    pub pass: u32,
}

impl Span {
    pub fn secs(&self) -> f64 {
        (self.end_ns - self.start_ns) as f64 * 1e-9
    }
}

struct Recorder {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<u32>,
    pass: u32,
}

static ENABLED: AtomicBool = AtomicBool::new(false);
static RECORDER: Mutex<Option<Recorder>> = Mutex::new(None);

fn recorder() -> std::sync::MutexGuard<'static, Option<Recorder>> {
    RECORDER
        .lock()
        .expect("no span guard panics while recording")
}

/// Start recording (dropping whatever an earlier recording held).
pub fn start() {
    *recorder() = Some(Recorder {
        epoch: Instant::now(),
        spans: Vec::with_capacity(1 << 18),
        open: Vec::new(),
        pass: 0,
    });
    ENABLED.store(true, Ordering::SeqCst);
}

/// Switch span recording off or back on without ending the recording:
/// the spans-off replay that prices the tracing itself.
pub fn set_enabled(on: bool) {
    ENABLED.store(on, Ordering::SeqCst);
}

/// Stop recording and hand the spans over.
pub fn finish() -> Tracer {
    ENABLED.store(false, Ordering::SeqCst);
    let r = recorder().take().expect("trace::start was called");
    assert!(r.open.is_empty(), "a span is still open at trace end");
    Tracer { spans: r.spans }
}

/// Closes its span when dropped.
#[must_use = "a span covers the guard's lifetime"]
pub struct Guard(Option<u32>);

/// Open a span; it covers the returned guard's lifetime.
pub fn span(name: &'static str) -> Guard {
    if !ENABLED.load(Ordering::Relaxed) {
        return Guard(None);
    }
    let mut guard = recorder();
    let Some(r) = guard.as_mut() else {
        return Guard(None);
    };
    let index = r.spans.len() as u32;
    let parent = r.open.last().copied().unwrap_or(NO_PARENT);
    if parent == NO_PARENT {
        r.pass += 1;
    }
    r.open.push(index);
    let pass = r.pass;
    // Clock read last, so recorder bookkeeping is outside the span.
    let start_ns = r.epoch.elapsed().as_nanos() as u64;
    r.spans.push(Span {
        name,
        start_ns,
        end_ns: start_ns,
        parent,
        pass,
    });
    Guard(Some(index))
}

impl Drop for Guard {
    fn drop(&mut self) {
        let Some(index) = self.0 else { return };
        let mut guard = recorder();
        let Some(r) = guard.as_mut() else { return };
        let end_ns = r.epoch.elapsed().as_nanos() as u64;
        r.spans[index as usize].end_ns = end_ns;
        let top = r.open.pop();
        debug_assert_eq!(top, Some(index), "spans close innermost first");
    }
}

/// Time `f` under a span.
pub fn timed<T>(name: &'static str, f: impl FnOnce() -> T) -> T {
    let _span = span(name);
    f()
}

/// A finished recording.
pub struct Tracer {
    pub spans: Vec<Span>,
}

impl Tracer {
    /// Whether `span` lies under a span called `ancestor`.
    fn has_ancestor(&self, span: &Span, ancestor: &str) -> bool {
        let mut at = span.parent;
        while at != NO_PARENT {
            let p = &self.spans[at as usize];
            if p.name == ancestor {
                return true;
            }
            at = p.parent;
        }
        false
    }

    /// The spans called `name` somewhere under a span called `under`.
    pub fn under<'t>(&'t self, under: &'t str, name: &'t str) -> impl Iterator<Item = &'t Span> {
        self.spans
            .iter()
            .filter(move |s| s.name == name && self.has_ancestor(s, under))
    }

    /// Busy time, seconds: total duration of the spans called `name`
    /// under `under`.
    pub fn busy(&self, under: &str, name: &str) -> f64 {
        self.under(under, name).map(Span::secs).sum()
    }

    /// (name, seconds) of every top-level span, in order.
    pub fn top_level(&self) -> impl Iterator<Item = (&'static str, f64)> + '_ {
        self.spans
            .iter()
            .filter(|s| s.parent == NO_PARENT)
            .map(|s| (s.name, s.secs()))
    }

    /// Total duration of the top-level spans called `name`.
    pub fn top_level_secs(&self, name: &str) -> f64 {
        self.top_level()
            .filter(|(n, _)| *n == name)
            .map(|(_, secs)| secs)
            .sum()
    }

    /// Self time of the top-level spans called `name`: their duration
    /// minus the part their direct children cover.
    pub fn top_level_self_secs(&self, name: &str) -> f64 {
        let covered: f64 = self
            .spans
            .iter()
            .filter(|s| s.parent != NO_PARENT)
            .filter(|s| {
                let parent = &self.spans[s.parent as usize];
                parent.parent == NO_PARENT && parent.name == name
            })
            .map(Span::secs)
            .sum();
        self.top_level_secs(name) - covered
    }

    /// Direct children of the spans called `stage`, busy seconds summed
    /// by name in first-appearance order — one column of the per-layer
    /// table.
    pub fn children_of(&self, stage: &str) -> Vec<(&'static str, f64)> {
        let mut out: Vec<(&'static str, f64)> = Vec::new();
        for s in &self.spans {
            if s.parent == NO_PARENT || self.spans[s.parent as usize].name != stage {
                continue;
            }
            match out.iter_mut().find(|(n, _)| *n == s.name) {
                Some((_, t)) => *t += s.secs(),
                None => out.push((s.name, s.secs())),
            }
        }
        out
    }

    /// Write every span as one JSON document:
    /// `{"spans":[{"id","name","start_ns","end_ns","parent","pass"},…]}`.
    pub fn write_json<W: Write>(&self, out: &mut W) -> io::Result<()> {
        out.write_all(b"{\"unit\":\"ns\",\"spans\":[\n")?;
        for (i, s) in self.spans.iter().enumerate() {
            let parent = match s.parent {
                NO_PARENT => "null".to_string(),
                p => p.to_string(),
            };
            writeln!(
                out,
                "{{\"id\":{i},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"parent\":{parent},\"pass\":{}}}{}",
                s.name,
                s.start_ns,
                s.end_ns,
                s.pass,
                if i + 1 < self.spans.len() { "," } else { "" }
            )?;
        }
        out.write_all(b"]}\n")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // One test: the recorder is process-global.
    #[test]
    fn spans_nest_close_and_account_self_time() {
        start();
        {
            let _a = span("stage");
            timed("layer", || {
                std::thread::sleep(std::time::Duration::from_millis(2))
            });
            timed("layer", || ());
            set_enabled(false);
            timed("layer", || ());
            set_enabled(true);
        }
        timed("other", || ());
        let t = finish();
        assert_eq!(t.spans.len(), 4);
        assert_eq!(t.under("stage", "layer").count(), 2);
        assert_eq!(t.under("other", "layer").count(), 0);
        assert_eq!((t.spans[1].pass, t.spans[3].pass), (1, 2));
        assert!(t.busy("stage", "layer") >= 0.002);
        let stage = t.spans[0].secs();
        assert!(stage >= t.busy("stage", "layer"));
        let tops: Vec<_> = t.top_level().map(|(n, _)| n).collect();
        assert_eq!(tops, ["stage", "other"]);
        assert!((t.top_level_secs("stage") - stage).abs() < 1e-12);
        let self_secs = t.top_level_self_secs("stage");
        assert!((self_secs - (stage - t.busy("stage", "layer"))).abs() < 1e-9);
        let mut json = Vec::new();
        t.write_json(&mut json).unwrap();
        let doc: serde::Value = serde_json::from_slice(&json).unwrap();
        assert_eq!(
            crate::measure::get(&doc, "spans")
                .unwrap()
                .as_seq()
                .unwrap()
                .len(),
            4
        );
    }
}
