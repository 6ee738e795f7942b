//! Differential flame graphs without dependencies: fold a
//! [`simrt::Explanation`] into a frame tree, emit Brendan-Gregg folded
//! stacks, and render self-contained SVG — including a signed diff view
//! that paints where a worst configuration's time goes relative to the
//! best one, and an energy-colored variant that keeps the time layout
//! but paints each frame by its modeled-joules delta instead.

use omptune_core::{Arch, TuningConfig};
use simrt::Explanation;

/// One frame of a flame graph: a named span whose children partition
/// (at most) its value.
#[derive(Debug, Clone, PartialEq)]
pub struct Frame {
    pub name: String,
    /// Inclusive virtual nanoseconds.
    pub value_ns: f64,
    /// Inclusive modeled energy in joules (0 when the tree was built
    /// without pricing — the plain-SVG paths ignore it).
    pub energy_j: f64,
    pub children: Vec<Frame>,
}

impl Frame {
    fn leaf(name: String, value_ns: f64, energy_j: f64) -> Frame {
        Frame {
            name,
            value_ns,
            energy_j,
            children: Vec::new(),
        }
    }
}

/// Fold an explanation into `app -> phase -> sink` frames. Phase spans
/// are each phase's whole-run cost, so the root is the run's virtual
/// time; sink leaves are each phase's closed breakdown, so every level
/// sums to its parent. Each phase is priced through the deterministic power model
/// and its joules are spread over the sink leaves proportionally to
/// their time share, so energy also sums to its parent.
pub fn explanation_tree(app: &str, arch: Arch, config: &TuningConfig, e: &Explanation) -> Frame {
    let phases: Vec<Frame> = e
        .phases
        .iter()
        .map(|p| {
            let phase_j = simrt::price_energy(arch, config, &p.sinks, p.ns, 1).total_j;
            let sinks: Vec<Frame> = omptel::Sink::ALL
                .iter()
                .map(|s| {
                    let ns = p.sinks.get(*s);
                    let j = if p.ns > 0.0 { phase_j * ns / p.ns } else { 0.0 };
                    Frame::leaf(crate::attrib::sink_key(*s).to_string(), ns, j)
                })
                .filter(|f| f.value_ns > 0.0)
                .collect();
            Frame {
                name: format!("p{} [{}]", p.index, p.kind),
                value_ns: p.ns,
                energy_j: phase_j,
                children: sinks,
            }
        })
        .collect();
    Frame {
        name: app.to_string(),
        value_ns: phases.iter().map(|p| p.value_ns).sum(),
        energy_j: phases.iter().map(|p| p.energy_j).sum(),
        children: phases,
    }
}

/// Folded-stack export: one `a;b;c value` line per frame's *self* time
/// (value minus children), integer nanoseconds, depth-first order —
/// the interchange format every flame-graph tool parses.
pub fn folded(root: &Frame) -> String {
    let mut out = String::new();
    let mut stack = Vec::new();
    fold_into(root, &mut stack, &mut out);
    out
}

fn fold_into(frame: &Frame, stack: &mut Vec<String>, out: &mut String) {
    stack.push(frame.name.clone());
    let child_sum: f64 = frame.children.iter().map(|c| c.value_ns).sum();
    let self_ns = (frame.value_ns - child_sum).max(0.0).round() as u64;
    if self_ns > 0 || frame.children.is_empty() {
        out.push_str(&stack.join(";"));
        out.push(' ');
        out.push_str(&self_ns.to_string());
        out.push('\n');
    }
    for c in &frame.children {
        fold_into(c, stack, out);
    }
    stack.pop();
}

const WIDTH: f64 = 1200.0;
const ROW: f64 = 18.0;
const PAD_TOP: f64 = 44.0;

fn depth_of(frame: &Frame) -> usize {
    1 + frame
        .children
        .iter()
        .map(depth_of)
        .max()
        .unwrap_or_default()
}

fn xml_escape(s: &str) -> String {
    s.replace('&', "&amp;")
        .replace('<', "&lt;")
        .replace('>', "&gt;")
        .replace('"', "&quot;")
}

/// Deterministic warm palette keyed by frame name.
fn flame_color(name: &str) -> String {
    let mut h: u32 = 2166136261;
    for b in name.bytes() {
        h ^= b as u32;
        h = h.wrapping_mul(16777619);
    }
    let r = 205 + (h % 50);
    let g = 60 + ((h >> 8) % 120);
    let b = (h >> 16) % 50;
    format!("rgb({r},{g},{b})")
}

/// Signed-diff palette: red for time gained (regression), blue for time
/// lost, intensity by relative magnitude.
fn diff_color(rel: f64) -> String {
    let k = rel.abs().min(1.0);
    if rel > 0.0 {
        let gb = (235.0 - 175.0 * k) as u32;
        format!("rgb(250,{gb},{gb})")
    } else if rel < 0.0 {
        let rg = (235.0 - 175.0 * k) as u32;
        format!("rgb({rg},{rg},250)")
    } else {
        "rgb(221,221,221)".to_string()
    }
}

struct SvgBuilder {
    body: String,
}

impl SvgBuilder {
    fn rect(&mut self, x: f64, y: f64, w: f64, text: &str, fill: &str, tooltip: &str) {
        if w < 0.3 {
            return;
        }
        self.body.push_str(&format!(
            "<g><title>{}</title><rect x=\"{x:.2}\" y=\"{y:.2}\" width=\"{w:.2}\" height=\"{:.2}\" fill=\"{fill}\" stroke=\"white\" stroke-width=\"0.5\"/>",
            xml_escape(tooltip),
            ROW - 1.0,
        ));
        // ~6.2 px per glyph at 11px monospace; clip to the box.
        let max_chars = (w / 6.2) as usize;
        if max_chars >= 3 {
            let label: String = text.chars().take(max_chars).collect();
            self.body.push_str(&format!(
                "<text x=\"{:.2}\" y=\"{:.2}\" font-size=\"11\" font-family=\"monospace\" fill=\"#111\">{}</text>",
                x + 3.0,
                y + ROW - 5.5,
                xml_escape(&label)
            ));
        }
        self.body.push_str("</g>\n");
    }

    fn finish(self, height: f64, title: &str, subtitle: &str) -> String {
        format!(
            "<?xml version=\"1.0\" standalone=\"no\"?>\n\
             <svg xmlns=\"http://www.w3.org/2000/svg\" width=\"{WIDTH}\" height=\"{height}\" viewBox=\"0 0 {WIDTH} {height}\">\n\
             <rect x=\"0\" y=\"0\" width=\"{WIDTH}\" height=\"{height}\" fill=\"#f8f8f8\"/>\n\
             <text x=\"{:.1}\" y=\"17\" text-anchor=\"middle\" font-size=\"14\" font-family=\"monospace\" font-weight=\"bold\">{}</text>\n\
             <text x=\"{:.1}\" y=\"34\" text-anchor=\"middle\" font-size=\"11\" font-family=\"monospace\" fill=\"#444\">{}</text>\n\
             {}</svg>\n",
            WIDTH / 2.0,
            xml_escape(title),
            WIDTH / 2.0,
            xml_escape(subtitle),
            self.body
        )
    }
}

/// Render one tree as an icicle-layout flame graph (root on top).
pub fn svg(root: &Frame, title: &str, subtitle: &str) -> String {
    let mut b = SvgBuilder {
        body: String::new(),
    };
    let total = root.value_ns.max(1.0);
    draw_plain(&mut b, root, 0.0, 0, total);
    let height = PAD_TOP + depth_of(root) as f64 * ROW + 8.0;
    b.finish(height, title, subtitle)
}

fn draw_plain(b: &mut SvgBuilder, frame: &Frame, x_ns: f64, depth: usize, total: f64) {
    let x = x_ns / total * WIDTH;
    let w = frame.value_ns / total * WIDTH;
    let y = PAD_TOP + depth as f64 * ROW;
    let tooltip = format!(
        "{} — {:.3} ms ({:.1}%)",
        frame.name,
        frame.value_ns * 1e-6,
        100.0 * frame.value_ns / total
    );
    b.rect(x, y, w, &frame.name, &flame_color(&frame.name), &tooltip);
    let mut child_x = x_ns;
    for c in &frame.children {
        draw_plain(b, c, child_x, depth + 1, total);
        child_x += c.value_ns;
    }
}

/// Render a signed diff: layout and widths follow `worst`, each frame
/// colored by how much more (red) or less (blue) time it takes than the
/// same-path frame in `best`. The picture of *where* a gap lives.
pub fn diff_svg(best: &Frame, worst: &Frame, title: &str, subtitle: &str) -> String {
    let mut b = SvgBuilder {
        body: String::new(),
    };
    let total = worst.value_ns.max(1.0);
    draw_diff(&mut b, worst, Some(best), 0.0, 0, total);
    let height = PAD_TOP + depth_of(worst) as f64 * ROW + 8.0;
    b.finish(height, title, subtitle)
}

fn draw_diff(
    b: &mut SvgBuilder,
    frame: &Frame,
    counterpart: Option<&Frame>,
    x_ns: f64,
    depth: usize,
    total: f64,
) {
    let x = x_ns / total * WIDTH;
    let w = frame.value_ns / total * WIDTH;
    let y = PAD_TOP + depth as f64 * ROW;
    let best_ns = counterpart.map(|c| c.value_ns).unwrap_or(0.0);
    let delta = frame.value_ns - best_ns;
    let rel = delta / frame.value_ns.max(best_ns).max(1.0);
    let tooltip = format!(
        "{} — worst {:.3} ms, best {:.3} ms, delta {:+.3} ms",
        frame.name,
        frame.value_ns * 1e-6,
        best_ns * 1e-6,
        delta * 1e-6
    );
    b.rect(x, y, w, &frame.name, &diff_color(rel), &tooltip);
    let mut child_x = x_ns;
    for c in &frame.children {
        let twin = counterpart.and_then(|p| p.children.iter().find(|t| t.name == c.name));
        draw_diff(b, c, twin, child_x, depth + 1, total);
        child_x += c.value_ns;
    }
}

/// Energy-colored diff: layout and widths still follow `worst`'s *time*
/// (so the picture is comparable to the time diff side by side), but
/// each frame is painted by its signed modeled-*joules* delta against
/// the same-path frame in `best`. Where the two views disagree — a
/// frame red here and blue in the time diff — is exactly where tuning
/// for time and tuning for energy pull apart.
pub fn energy_diff_svg(best: &Frame, worst: &Frame, title: &str, subtitle: &str) -> String {
    let mut b = SvgBuilder {
        body: String::new(),
    };
    let total = worst.value_ns.max(1.0);
    draw_energy_diff(&mut b, worst, Some(best), 0.0, 0, total);
    let height = PAD_TOP + depth_of(worst) as f64 * ROW + 8.0;
    b.finish(height, title, subtitle)
}

fn draw_energy_diff(
    b: &mut SvgBuilder,
    frame: &Frame,
    counterpart: Option<&Frame>,
    x_ns: f64,
    depth: usize,
    total: f64,
) {
    let x = x_ns / total * WIDTH;
    let w = frame.value_ns / total * WIDTH;
    let y = PAD_TOP + depth as f64 * ROW;
    let best_j = counterpart.map(|c| c.energy_j).unwrap_or(0.0);
    let delta_j = frame.energy_j - best_j;
    let rel = delta_j / frame.energy_j.max(best_j).max(1e-12);
    let tooltip = format!(
        "{} — worst {:.3} mJ, best {:.3} mJ, delta {:+.3} mJ (span {:.3} ms)",
        frame.name,
        frame.energy_j * 1e3,
        best_j * 1e3,
        delta_j * 1e3,
        frame.value_ns * 1e-6
    );
    b.rect(x, y, w, &frame.name, &diff_color(rel), &tooltip);
    let mut child_x = x_ns;
    for c in &frame.children {
        let twin = counterpart.and_then(|p| p.children.iter().find(|t| t.name == c.name));
        draw_energy_diff(b, c, twin, child_x, depth + 1, total);
        child_x += c.value_ns;
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omptune_core::{Arch, TuningConfig};
    use workloads::Setting;

    fn tree() -> Frame {
        let app = workloads::app("cg").unwrap();
        let setting = Setting {
            input_code: 0,
            num_threads: 96,
        };
        let model = (app.model)(Arch::Milan, setting);
        let cfg = TuningConfig::default_for(Arch::Milan, 96);
        let e = simrt::explain(Arch::Milan, &cfg, &model, 7);
        explanation_tree("cg", Arch::Milan, &cfg, &e)
    }

    #[test]
    fn tree_levels_sum_to_parents() {
        let root = tree();
        assert!(root.value_ns > 0.0);
        assert!(!root.children.is_empty());
        let phase_sum: f64 = root.children.iter().map(|c| c.value_ns).sum();
        assert!((phase_sum - root.value_ns).abs() < 1e-6 * root.value_ns);
        for phase in &root.children {
            let sink_sum: f64 = phase.children.iter().map(|c| c.value_ns).sum();
            assert!(
                (sink_sum - phase.value_ns).abs() <= 1e-6 * phase.value_ns.max(1.0),
                "{}: {} vs {}",
                phase.name,
                sink_sum,
                phase.value_ns
            );
        }
    }

    #[test]
    fn folded_output_parses_as_stack_space_value() {
        let text = folded(&tree());
        assert!(!text.is_empty());
        for line in text.lines() {
            let (stack, value) = line.rsplit_once(' ').expect("stack SP value");
            assert!(!stack.is_empty());
            assert!(stack.starts_with("cg"), "{line}");
            value.parse::<u64>().expect("integer value");
        }
        // At least one full three-level stack.
        assert!(
            text.lines().any(|l| l.matches(';').count() == 2),
            "no sink-depth stacks:\n{text}"
        );
    }

    #[test]
    fn svg_is_well_formed_and_deterministic() {
        let root = tree();
        let a = svg(&root, "cg on milan", "test render");
        let b = svg(&root, "cg on milan", "test render");
        assert_eq!(a, b);
        assert!(a.starts_with("<?xml"));
        assert!(a.trim_end().ends_with("</svg>"));
        assert_eq!(a.matches("<svg").count(), 1);
        assert!(a.contains("cg on milan"));
        // Every opened group closes.
        assert_eq!(a.matches("<g>").count(), a.matches("</g>").count());
    }

    #[test]
    fn diff_svg_marks_regressions_red() {
        let worst = tree();
        let mut best = worst.clone();
        // Make the first phase twice as fast in "best".
        best.children[0].value_ns /= 2.0;
        for c in &mut best.children[0].children {
            c.value_ns /= 2.0;
        }
        best.value_ns = best.children.iter().map(|c| c.value_ns).sum();
        let doc = diff_svg(&best, &worst, "diff", "sub");
        assert!(doc.starts_with("<?xml"));
        assert!(doc.trim_end().ends_with("</svg>"));
        assert!(doc.contains("rgb(250,"), "no red regression cells");
        assert!(doc.contains("delta +"), "no positive delta tooltip");
    }

    #[test]
    fn energy_tree_sums_and_diff_colors() {
        let root = tree();
        assert!(root.energy_j > 0.0, "priced tree must carry joules");
        let phase_sum: f64 = root.children.iter().map(|c| c.energy_j).sum();
        assert!((phase_sum - root.energy_j).abs() < 1e-9 * root.energy_j);
        for phase in &root.children {
            let sink_sum: f64 = phase.children.iter().map(|c| c.energy_j).sum();
            assert!(
                (sink_sum - phase.energy_j).abs() <= 1e-9 * phase.energy_j.max(1e-12),
                "{}: {} vs {}",
                phase.name,
                sink_sum,
                phase.energy_j
            );
        }
        // A best that uses half the energy on the first phase paints
        // that phase red in the energy diff.
        let worst = root;
        let mut best = worst.clone();
        best.children[0].energy_j /= 2.0;
        for c in &mut best.children[0].children {
            c.energy_j /= 2.0;
        }
        best.energy_j = best.children.iter().map(|c| c.energy_j).sum();
        let doc = energy_diff_svg(&best, &worst, "energy diff", "sub");
        assert!(doc.starts_with("<?xml"));
        assert!(doc.trim_end().ends_with("</svg>"));
        assert!(doc.contains("rgb(250,"), "no red energy-regression cells");
        assert!(doc.contains("delta +"), "no positive joule delta tooltip");
        assert!(doc.contains("mJ"), "tooltips must carry joule figures");
    }

    #[test]
    fn escaping_keeps_svg_valid() {
        let root = Frame {
            name: "a<b>&\"c\"".into(),
            value_ns: 100.0,
            energy_j: 0.0,
            children: vec![],
        };
        let doc = svg(&root, "t<&>", "s\"q\"");
        assert!(!doc.contains("a<b>"));
        assert!(doc.contains("a&lt;b&gt;&amp;&quot;c&quot;"));
    }
}
