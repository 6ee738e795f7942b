//! Dependency-free static HTML dashboard over one run registry.
//!
//! Everything is rendered by hand — markup, styles, and the SVG
//! sparklines — so the artifact opens from a `file://` URL in any
//! browser with no scripts, fonts, or network fetches. The page shows
//! the run trail, per-series virtual-time and modeled-energy
//! sparklines with change-point badges, the bench scalar trends, and
//! (when a change-point fired)
//! the blame verdict, plus links to the flame-graph artifacts
//! `ompprof` writes next to a run directory.

use crate::{Blame, History};
use sweep::series::stratum_series;
use sweep::{ArchDigest, RegistryLoad, RunCore, RunRecord, StratumSeries};

/// Sparkline geometry: small enough to tile, big enough to read.
const SPARK_W: f64 = 220.0;
const SPARK_H: f64 = 36.0;
const SPARK_PAD: f64 = 3.0;

fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            _ => out.push(c),
        }
    }
    out
}

/// Civil date from a Unix timestamp (Howard Hinnant's algorithm),
/// rendered `YYYY-MM-DD HH:MM` UTC — enough for a trail axis without
/// a time library.
fn fmt_ts(ts: u64) -> String {
    let days = (ts / 86_400) as i64;
    let secs = ts % 86_400;
    let z = days + 719_468;
    let era = z.div_euclid(146_097);
    let doe = z.rem_euclid(146_097);
    let yoe = (doe - doe / 1460 + doe / 36_524 - doe / 146_096) / 365;
    let y = yoe + era * 400;
    let doy = doe - (365 * yoe + yoe / 4 - yoe / 100);
    let mp = (5 * doy + 2) / 153;
    let d = doy - (153 * mp + 2) / 5 + 1;
    let m = if mp < 10 { mp + 3 } else { mp - 9 };
    let y = if m <= 2 { y + 1 } else { y };
    format!(
        "{:04}-{:02}-{:02} {:02}:{:02}",
        y,
        m,
        d,
        secs / 3600,
        (secs % 3600) / 60
    )
}

/// One polyline sparkline. NaN points are skipped (the line breaks);
/// a single point degrades to a dot; `marks` indexes get a
/// change-point dot.
fn sparkline(values: &[f64], marks: &[usize], class: &str) -> String {
    let finite: Vec<f64> = values.iter().copied().filter(|v| v.is_finite()).collect();
    if finite.is_empty() {
        return "<svg class=\"spark\" viewBox=\"0 0 220 36\"><text x=\"6\" y=\"22\" class=\"mut\">no data</text></svg>".to_string();
    }
    let (mut lo, mut hi) = (f64::INFINITY, f64::NEG_INFINITY);
    for &v in &finite {
        lo = lo.min(v);
        hi = hi.max(v);
    }
    if (hi - lo).abs() < 1e-30 {
        // Flat series: center the line so it doesn't hug an edge.
        lo -= 1.0;
        hi += 1.0;
    }
    let n = values.len();
    let x_at = |i: usize| {
        if n <= 1 {
            SPARK_W / 2.0
        } else {
            SPARK_PAD + (SPARK_W - 2.0 * SPARK_PAD) * i as f64 / (n - 1) as f64
        }
    };
    let y_at = |v: f64| SPARK_H - SPARK_PAD - (SPARK_H - 2.0 * SPARK_PAD) * (v - lo) / (hi - lo);
    let mut points = String::new();
    let mut dots = String::new();
    for (i, &v) in values.iter().enumerate() {
        if !v.is_finite() {
            continue;
        }
        let (x, y) = (x_at(i), y_at(v));
        points.push_str(&format!("{x:.1},{y:.1} "));
        if marks.contains(&i) {
            dots.push_str(&format!(
                "<circle cx=\"{x:.1}\" cy=\"{y:.1}\" r=\"3\" class=\"cp\"/>"
            ));
        }
    }
    let last = values
        .iter()
        .rposition(|v| v.is_finite())
        .map(|i| {
            let (x, y) = (x_at(i), y_at(values[i]));
            format!("<circle cx=\"{x:.1}\" cy=\"{y:.1}\" r=\"2\" class=\"tip\"/>")
        })
        .unwrap_or_default();
    format!(
        "<svg class=\"spark\" viewBox=\"0 0 {SPARK_W} {SPARK_H}\" preserveAspectRatio=\"none\">\
<polyline class=\"{class}\" points=\"{points}\"/>{last}{dots}</svg>"
    )
}

fn fmt_virt(ns: f64) -> String {
    if !ns.is_finite() {
        "-".to_string()
    } else if ns >= 1e9 {
        format!("{:.2}s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2}ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2}us", ns / 1e3)
    } else {
        format!("{ns:.0}ns")
    }
}

/// Per-run mean of one arch's stratum `k` ring series, of the objective
/// `strata` picks (`|a| &a.virt`, or `|a| &a.energy` for joules). A
/// record without that series yields NaN, which the sparkline renders
/// as a break in the line.
fn series_point(
    rec: &RunRecord,
    arch: &str,
    strata: fn(&ArchDigest) -> &Vec<StratumSeries>,
    k: usize,
) -> f64 {
    let RunCore::Collect(c) = &rec.core else {
        return f64::NAN;
    };
    c.arches
        .iter()
        .find(|a| a.arch == arch)
        .and_then(|a| strata(a).get(k))
        .map_or(f64::NAN, |s| crate::mean(&s.means()))
}

fn fmt_joules(j: f64) -> String {
    if !j.is_finite() {
        "-".to_string()
    } else if j >= 1.0 {
        format!("{j:.3}J")
    } else if j >= 1e-3 {
        format!("{:.3}mJ", j * 1e3)
    } else {
        format!("{:.3}uJ", j * 1e6)
    }
}

/// Render the full dashboard. `dir` is the registry path shown in the
/// header; `trail` must be the comparable-trail subset of
/// `load.records` the `history` was computed over.
pub fn dashboard_html(
    dir: &str,
    load: &RegistryLoad,
    history: &History,
    blame: Option<&Blame>,
) -> String {
    let trail: Vec<&RunRecord> = crate::comparable_trail(&load.records);
    let collect_n = load
        .records
        .iter()
        .filter(|r| matches!(r.core, RunCore::Collect(_)))
        .count();
    let bench_records: Vec<&RunRecord> = load
        .records
        .iter()
        .filter(|r| matches!(r.core, RunCore::Bench(_)))
        .collect();

    // Change-point marks by trail position: step i flags run i+1.
    let marks: Vec<usize> = history.change_points.iter().map(|&i| i + 1).collect();

    let mut html = String::with_capacity(32 * 1024);
    html.push_str(
        "<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n\
<title>ompobs — run observatory</title>\n<style>\n\
body{font:14px/1.5 -apple-system,'Segoe UI',sans-serif;margin:2em auto;max-width:1100px;\
padding:0 1em;color:#1a1f29;background:#fafbfc}\n\
h1{font-size:1.5em}h2{font-size:1.15em;margin-top:1.8em;border-bottom:1px solid #e1e4e8;\
padding-bottom:.3em}\n\
code,.mono{font-family:ui-monospace,Menlo,monospace;font-size:.92em}\n\
table{border-collapse:collapse;width:100%}\n\
th,td{text-align:left;padding:.3em .7em;border-bottom:1px solid #eceef1;white-space:nowrap}\n\
th{color:#57606a;font-weight:600}\n\
.num{text-align:right;font-variant-numeric:tabular-nums}\n\
.badge{display:inline-block;padding:.1em .6em;border-radius:1em;font-size:.85em;font-weight:600}\n\
.ok{background:#dafbe1;color:#116329}.bad{background:#ffebe9;color:#cf222e}\n\
.mut{fill:#8b949e;color:#8b949e;font-size:11px}\n\
.spark{width:220px;height:36px;background:#fff;border:1px solid #e1e4e8;border-radius:3px;\
vertical-align:middle}\n\
.spark polyline{fill:none;stroke:#0969da;stroke-width:1.5}\n\
.spark polyline.bench{stroke:#8250df}\n\
.spark polyline.energy{stroke:#bf8700}\n\
.spark .tip{fill:#0969da}.spark .cp{fill:#cf222e}\n\
.cards{display:flex;gap:1em;flex-wrap:wrap;margin:1em 0}\n\
.card{background:#fff;border:1px solid #e1e4e8;border-radius:6px;padding:.7em 1.1em;min-width:9em}\n\
.card b{display:block;font-size:1.4em}.card span{color:#57606a;font-size:.85em}\n\
pre{background:#fff;border:1px solid #e1e4e8;border-radius:6px;padding:.8em;overflow-x:auto}\n\
a{color:#0969da;text-decoration:none}a:hover{text-decoration:underline}\n\
</style>\n</head>\n<body>\n",
    );
    html.push_str("<h1>ompobs — longitudinal run observatory</h1>\n");
    html.push_str(&format!(
        "<p>registry <code>{}</code> · spec <code>{}</code> · verdict {}</p>\n",
        esc(dir),
        esc(&history.spec_fp),
        if history.change {
            "<span class=\"badge bad\">CHANGE-POINT</span>"
        } else {
            "<span class=\"badge ok\">OK</span>"
        }
    ));

    html.push_str("<div class=\"cards\">\n");
    for (value, label) in [
        (load.records.len().to_string(), "records"),
        (collect_n.to_string(), "sweep runs"),
        (bench_records.len().to_string(), "bench runs"),
        (load.corrupt_skipped.to_string(), "corrupt skipped"),
        (history.change_points.len().to_string(), "change-points"),
        (history.family.to_string(), "Holm family"),
    ] {
        html.push_str(&format!(
            "<div class=\"card\"><b>{value}</b><span>{label}</span></div>\n"
        ));
    }
    html.push_str("</div>\n");

    // --- run trail ---------------------------------------------------
    html.push_str(
        "<h2>Run trail</h2>\n<table>\n<tr><th>#</th><th>when (UTC)</th>\
<th>kind</th><th>rev</th><th>content hash</th><th class=\"num\">samples</th>\
<th class=\"num\">workers</th><th></th></tr>\n",
    );
    for rec in &load.records {
        let samples = match &rec.core {
            RunCore::Collect(c) => c.arches.iter().map(|a| a.samples).sum::<u64>(),
            RunCore::Bench(_) => 0,
        };
        let trail_pos = trail.iter().position(|t| t.seq == rec.seq);
        let badge = match trail_pos {
            Some(p) if marks.contains(&p) => "<span class=\"badge bad\">change-point</span>",
            Some(_) => "<span class=\"badge ok\">in trail</span>",
            None => "",
        };
        html.push_str(&format!(
            "<tr><td>{}</td><td>{}</td><td>{}</td><td class=\"mono\">{}</td>\
<td class=\"mono\">{:016x}</td><td class=\"num\">{}</td><td class=\"num\">{}</td><td>{}</td></tr>\n",
            rec.seq,
            fmt_ts(rec.ts_unix),
            rec.core.kind(),
            esc(&rec.git_rev[..rec.git_rev.len().min(12)]),
            rec.record_hash,
            samples,
            rec.info.workers,
            badge
        ));
    }
    html.push_str("</table>\n");

    // --- per-series sparklines --------------------------------------
    html.push_str("<h2>Virtual-time and modeled-energy series over the trail</h2>\n");
    if trail.len() < 2 {
        html.push_str("<p class=\"mut\">Fewer than two comparable runs — record more sweeps to grow the trail.</p>\n");
    } else {
        let mut arch_names: Vec<String> = Vec::new();
        for rec in &trail {
            if let RunCore::Collect(c) = &rec.core {
                for a in &c.arches {
                    if !arch_names.contains(&a.arch) {
                        arch_names.push(a.arch.clone());
                    }
                }
            }
        }
        html.push_str(
            "<table>\n<tr><th>series</th><th>trend</th><th class=\"num\">first</th>\
<th class=\"num\">last</th><th class=\"num\">delta</th></tr>\n",
        );
        for arch in &arch_names {
            // Arch headline: total attributed virtual time per run.
            let totals: Vec<f64> = trail
                .iter()
                .map(|rec| match &rec.core {
                    RunCore::Collect(c) => c
                        .arches
                        .iter()
                        .find(|a| &a.arch == arch)
                        .map(|a| a.virt_ns() as f64)
                        .unwrap_or(f64::NAN),
                    RunCore::Bench(_) => f64::NAN,
                })
                .collect();
            push_series_row(
                &mut html,
                &format!("{arch}/virt (total)"),
                &totals,
                &marks,
                "",
                fmt_virt,
            );
            for k in 0..sweep::registry::STRATA {
                let vals: Vec<f64> = trail
                    .iter()
                    .map(|r| series_point(r, arch, |a| &a.virt, k))
                    .collect();
                push_series_row(
                    &mut html,
                    &stratum_series(arch, "virt", k),
                    &vals,
                    &marks,
                    "",
                    |v| format!("{v:.4}"),
                );
            }
            // Modeled-energy headline + strata. Skipped entirely when
            // no run in the trail carries energy digests (pre-ompwatt
            // registries), so legacy dashboards are unchanged.
            let joules: Vec<f64> = trail
                .iter()
                .map(|rec| match &rec.core {
                    RunCore::Collect(c) => c
                        .arches
                        .iter()
                        .find(|a| &a.arch == arch)
                        .map(|a| a.energy_uj() as f64 / 1e6)
                        .filter(|&j| j > 0.0)
                        .unwrap_or(f64::NAN),
                    RunCore::Bench(_) => f64::NAN,
                })
                .collect();
            if joules.iter().any(|v| v.is_finite()) {
                push_series_row(
                    &mut html,
                    &format!("{arch}/energy (total)"),
                    &joules,
                    &marks,
                    "energy",
                    fmt_joules,
                );
                for k in 0..sweep::registry::STRATA {
                    let vals: Vec<f64> = trail
                        .iter()
                        .map(|r| series_point(r, arch, |a| &a.energy, k))
                        .collect();
                    push_series_row(
                        &mut html,
                        &stratum_series(arch, "energy", k),
                        &vals,
                        &marks,
                        "energy",
                        fmt_joules,
                    );
                }
            }
        }
        html.push_str("</table>\n");
    }

    // --- bench trends ------------------------------------------------
    html.push_str("<h2>Bench trends</h2>\n");
    if bench_records.is_empty() {
        html.push_str("<p class=\"mut\">No bench records yet — run <code>cargo bench</code> with <code>OMPOBS_DIR</code> pointing here.</p>\n");
    } else {
        let mut keys: Vec<(String, String)> = Vec::new();
        for rec in &bench_records {
            if let RunCore::Bench(b) = &rec.core {
                for (k, _) in &b.scalars {
                    let pair = (b.bench.clone(), k.clone());
                    if !keys.contains(&pair) {
                        keys.push(pair);
                    }
                }
            }
        }
        keys.sort();
        html.push_str(
            "<table>\n<tr><th>series</th><th>trend</th><th class=\"num\">first</th>\
<th class=\"num\">last</th><th class=\"num\">delta</th></tr>\n",
        );
        for (bench, key) in &keys {
            let vals: Vec<f64> = bench_records
                .iter()
                .filter_map(|rec| match &rec.core {
                    RunCore::Bench(b) if &b.bench == bench => Some(
                        b.scalars
                            .iter()
                            .find(|(k, _)| k == key)
                            .map(|(_, bits)| f64::from_bits(*bits))
                            .unwrap_or(f64::NAN),
                    ),
                    _ => None,
                })
                .collect();
            push_series_row(
                &mut html,
                &format!("{bench}/{key}"),
                &vals,
                &[],
                "bench",
                |v| format!("{v:.4e}"),
            );
        }
        html.push_str("</table>\n");
    }

    // --- sentinel + blame -------------------------------------------
    html.push_str("<h2>Sentinel verdict</h2>\n<pre>");
    html.push_str(&esc(&history.render()));
    html.push_str("</pre>\n");
    if let Some(b) = blame {
        html.push_str("<h2>Blame</h2>\n<pre>");
        html.push_str(&esc(&b.render()));
        html.push_str("</pre>\n");
    }

    // --- artifact links ---------------------------------------------
    let mut out_dirs: Vec<&str> = load
        .records
        .iter()
        .rev()
        .map(|r| r.info.out_dir.as_str())
        .filter(|d| !d.is_empty())
        .collect();
    out_dirs.dedup();
    if !out_dirs.is_empty() {
        html.push_str("<h2>Run artifacts</h2>\n<ul>\n");
        for d in out_dirs.iter().take(8) {
            html.push_str(&format!(
                "<li><code>{}</code> — <a href=\"{}/manifest.json\">manifest</a> · \
<a href=\"{}/flame_best.svg\">flame graph (best)</a> · \
<a href=\"{}/flame_diff.svg\">differential flame graph</a></li>\n",
                esc(d),
                esc(d),
                esc(d),
                esc(d)
            ));
        }
        html.push_str("</ul>\n<p class=\"mut\">Flame-graph links resolve when <code>ompprof flame</code> has been run over the same directories.</p>\n");
    }

    html.push_str(&format!(
        "<p class=\"mut\">generated by ompobs · schema {} · history of {} step(s)</p>\n</body>\n</html>\n",
        esc(&history.schema),
        history.steps.len()
    ));
    html
}

fn push_series_row(
    html: &mut String,
    name: &str,
    vals: &[f64],
    marks: &[usize],
    class: &str,
    fmt: impl Fn(f64) -> String,
) {
    let first = vals.iter().copied().find(|v| v.is_finite());
    let last = vals.iter().rev().copied().find(|v| v.is_finite());
    let delta = match (first, last) {
        (Some(a), Some(b)) if a != 0.0 => format!("{:+.2}%", (b - a) / a * 100.0),
        _ => "-".to_string(),
    };
    html.push_str(&format!(
        "<tr><td class=\"mono\">{}</td><td>{}</td><td class=\"num\">{}</td>\
<td class=\"num\">{}</td><td class=\"num\">{}</td></tr>\n",
        esc(name),
        sparkline(vals, marks, class),
        first.map(&fmt).unwrap_or_else(|| "-".to_string()),
        last.map(&fmt).unwrap_or_else(|| "-".to_string()),
        delta
    ));
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timestamps_render_civil_dates() {
        assert_eq!(fmt_ts(0), "1970-01-01 00:00");
        assert_eq!(fmt_ts(86_400), "1970-01-02 00:00");
        assert_eq!(fmt_ts(1_786_538_040), "2026-08-12 12:34");
    }

    #[test]
    fn sparkline_handles_degenerate_series() {
        assert!(sparkline(&[], &[], "").contains("no data"));
        assert!(sparkline(&[f64::NAN], &[], "").contains("no data"));
        let one = sparkline(&[5.0], &[], "");
        assert!(one.contains("polyline"));
        let flat = sparkline(&[2.0, 2.0, 2.0], &[], "");
        assert!(flat.contains("polyline"));
        let marked = sparkline(&[1.0, 2.0, 3.0], &[2], "");
        assert!(marked.contains("class=\"cp\""));
    }

    #[test]
    fn html_escapes_untrusted_strings() {
        assert_eq!(esc("a<b>&\"c\""), "a&lt;b&gt;&amp;&quot;c&quot;");
    }
}
