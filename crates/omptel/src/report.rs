//! "Why was this slow" explanations: turn a [`Summary`] into a ranked
//! time-sink table plus derived health indicators, the rendering behind
//! the `omptel-report` binary.

use crate::schema::{Counter, Sink};
use crate::summary::Summary;

/// A digested explanation of one configuration's time profile.
#[derive(Debug, Clone, PartialEq)]
pub struct Explanation {
    /// What the summary describes (config, app, arch — caller's label).
    pub title: String,
    /// The sink holding the most time.
    pub dominant: Sink,
    /// Fraction of all run time in the dominant sink.
    pub dominant_fraction: f64,
    /// Fraction of run time lost to barrier/imbalance waiting.
    pub imbalance_ratio: f64,
    /// Steal success rate, when the run stole at all.
    pub steal_efficiency: Option<f64>,
    /// Sinks with their time and share, descending.
    pub sinks: Vec<(Sink, u64, f64)>,
}

/// Digest a summary.
pub fn explain(title: &str, s: &Summary) -> Explanation {
    let mut sinks: Vec<(Sink, u64, f64)> = Sink::ALL
        .iter()
        .map(|&k| (k, s.sink_ns(k), s.sink_fraction(k)))
        .collect();
    sinks.sort_by_key(|&(_, ns, _)| std::cmp::Reverse(ns));
    Explanation {
        title: title.to_string(),
        dominant: s.dominant_sink(),
        dominant_fraction: s.sink_fraction(s.dominant_sink()),
        imbalance_ratio: s.imbalance_ratio(),
        steal_efficiency: s.steal_efficiency(),
        sinks,
    }
}

pub(crate) fn fmt_ns(ns: u64) -> String {
    let ns = ns as f64;
    if ns >= 1e9 {
        format!("{:.2} s", ns / 1e9)
    } else if ns >= 1e6 {
        format!("{:.2} ms", ns / 1e6)
    } else if ns >= 1e3 {
        format!("{:.2} µs", ns / 1e3)
    } else {
        format!("{ns:.0} ns")
    }
}

/// Render one explanation as an aligned text table.
pub fn render(e: &Explanation, s: &Summary) -> String {
    let mut out = String::new();
    out.push_str(&format!("== {} ==\n", e.title));
    out.push_str(&format!(
        "regions {}   run time {}\n",
        s.regions,
        fmt_ns(s.total_ns)
    ));
    out.push_str(&format!(
        "top time sink     : {} ({:.1}% of run time)\n",
        e.dominant.label(),
        100.0 * e.dominant_fraction
    ));
    out.push_str(&format!("imbalance ratio   : {:.3}\n", e.imbalance_ratio));
    match e.steal_efficiency {
        Some(eff) => out.push_str(&format!("steal efficiency  : {:.3}\n", eff)),
        None => out.push_str("steal efficiency  : n/a (no steal attempts)\n"),
    }
    out.push_str("time sinks:\n");
    for (sink, ns, frac) in &e.sinks {
        if *ns == 0 {
            continue;
        }
        out.push_str(&format!(
            "  {:<30} {:>12}  {:>5.1}%\n",
            sink.label(),
            fmt_ns(*ns),
            100.0 * frac
        ));
    }
    let interesting = [
        Counter::Regions,
        Counter::Steals,
        Counter::StealFails,
        Counter::ChunksStatic,
        Counter::ChunksDynamic,
        Counter::ChunksGuided,
        Counter::BarrierEpisodes,
        Counter::Wakeups,
        Counter::ReduceTree,
        Counter::ReduceCritical,
        Counter::ReduceAtomic,
        Counter::PlanCacheHits,
        Counter::PlanCacheMisses,
        Counter::SampleCacheHits,
        Counter::SampleCacheMisses,
        Counter::SweepSteals,
    ];
    if !s.counters.is_empty() {
        out.push_str("counters:\n");
        for c in interesting {
            let v = s.counters.get(c);
            if v > 0 {
                out.push_str(&format!("  {:<30} {v}\n", c.name()));
            }
        }
    }
    out
}

/// Render a best-vs-worst pair side by side (paper Table VI shape):
/// both explanations plus the headline contrast line. `gap` is the
/// caller's worst/best time ratio, so the headline prints the figure the
/// caller reports elsewhere rather than one re-derived from the rounded
/// summaries.
pub fn render_pair(
    gap: f64,
    best: (&Explanation, &Summary),
    worst: (&Explanation, &Summary),
) -> String {
    let mut out = String::new();
    out.push_str(&format!(
        "best-vs-worst: {gap:.2}x virtual-time gap; worst config dominated by {}\n\n",
        worst.0.dominant.label()
    ));
    out.push_str(&render(best.0, best.1));
    out.push('\n');
    out.push_str(&render(worst.0, worst.1));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::{Breakdown, CounterSnapshot};

    fn summary(compute: f64, imbalance: f64) -> Summary {
        let mut s = Summary::default();
        let bd = Breakdown {
            compute_ns: compute,
            imbalance_ns: imbalance,
            ..Breakdown::default()
        };
        s.add_aggregate(compute + imbalance, &bd, 1);
        s
    }

    #[test]
    fn explanation_names_the_dominant_sink() {
        let s = summary(100.0, 900.0);
        let e = explain("bad config", &s);
        assert_eq!(e.dominant, Sink::Imbalance);
        assert!((e.dominant_fraction - 0.9).abs() < 1e-9);
        let text = render(&e, &s);
        assert!(text.contains("barrier/imbalance wait"), "{text}");
        assert!(text.contains("bad config"), "{text}");
    }

    #[test]
    fn pair_report_headlines_the_gap() {
        let good = summary(1000.0, 0.0);
        let bad = summary(100.0, 9900.0);
        let text = render_pair(
            10.0,
            (&explain("good", &good), &good),
            (&explain("bad", &bad), &bad),
        );
        assert!(text.contains("10.00x virtual-time gap"), "{text}");
        assert!(
            text.contains("dominated by barrier/imbalance wait"),
            "{text}"
        );
    }

    #[test]
    fn steal_counters_render_when_present() {
        let mut s = summary(10.0, 0.0);
        let mut values = vec![0u64; crate::schema::Counter::COUNT];
        values[Counter::Steals as usize] = 30;
        values[Counter::StealFails as usize] = 10;
        s.add_counters(&CounterSnapshot { values });
        let e = explain("t", &s);
        assert_eq!(e.steal_efficiency, Some(0.75));
        let text = render(&e, &s);
        assert!(text.contains("steal efficiency  : 0.750"), "{text}");
        assert!(text.contains("steals"), "{text}");
    }
}
