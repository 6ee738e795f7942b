//! Calibration harness: prints, per (application, architecture), the
//! default runtime and per-setting max speedups over the full
//! configuration space, next to the paper's reported ranges.
//!
//! Used during development to tune the workload models and cost
//! constants; kept as a reproducible artifact (see EXPERIMENTS.md).

use omptune_core::cli::{self, EXIT_OK};
use omptune_core::{Arch, ConfigSpace, TuningConfig};
use std::process::ExitCode;
use workloads::{apps_on, settings_for};

/// Paper Table VI ranges (plus Table V per-arch rows where given).
fn paper_range(app: &str) -> (f64, f64) {
    match app {
        "alignment" => (1.022, 1.186),
        "bt" => (1.027, 1.185),
        "cg" => (1.000, 1.857),
        "ep" => (1.000, 1.090),
        "ft" => (1.010, 1.545),
        "health" => (1.282, 2.218),
        "lu" => (1.020, 1.121),
        "lulesh" => (1.004, 1.062),
        "mg" => (1.011, 2.167),
        "nqueens" => (2.342, 4.851),
        "rsbench" => (1.004, 1.213),
        "sort" => (1.174, 1.180),
        "strassen" => (1.023, 1.025),
        "su3bench" => (1.002, 2.279),
        "xsbench" => (1.001, 2.602),
        _ => (0.0, 0.0),
    }
}

fn main() -> ExitCode {
    cli::run("calibrate", "usage: calibrate", |args| {
        args.finish()?;
        calibrate();
        Ok(EXIT_OK)
    })
}

fn calibrate() {
    let mut per_app: std::collections::BTreeMap<String, Vec<f64>> = Default::default();
    for arch in Arch::ALL {
        println!("=== {} ===", arch.display_name());
        let mut arch_maxima = Vec::new();
        for app in apps_on(arch) {
            let mut setting_maxima = Vec::new();
            let mut default_secs = Vec::new();
            for setting in settings_for(app, arch) {
                let model = (app.model)(arch, setting);
                let space = ConfigSpace::new(arch, setting.num_threads);
                let default = TuningConfig::default_for(arch, setting.num_threads);
                let base = simrt::simulate(arch, &default, &model, 0).seconds();
                default_secs.push(base);
                let mut best = f64::NEG_INFINITY;
                for config in space.iter() {
                    let t = simrt::simulate(arch, &config, &model, 0).seconds();
                    let sp = base / t;
                    if sp > best {
                        best = sp;
                    }
                }
                setting_maxima.push(best);
                arch_maxima.push(best);
            }
            let lo = setting_maxima.iter().cloned().fold(f64::INFINITY, f64::min);
            let hi = setting_maxima.iter().cloned().fold(0.0f64, f64::max);
            let (plo, phi) = paper_range(app.name);
            println!(
                "{:>10}  max-speedup per setting: {:.3} - {:.3}   (paper app-range {:.3} - {:.3})  default_s={:?}",
                app.name,
                lo,
                hi,
                plo,
                phi,
                default_secs.iter().map(|s| (s * 1000.0).round() / 1000.0).collect::<Vec<_>>()
            );
            per_app
                .entry(app.name.to_string())
                .or_default()
                .extend(setting_maxima);
        }
        arch_maxima.sort_by(|a, b| a.partial_cmp(b).unwrap());
        let median = arch_maxima[arch_maxima.len() / 2];
        let max = arch_maxima.last().copied().unwrap_or(0.0);
        println!(
            "--- {} groups={} median={:.3} max={:.3} (paper medians: a64fx 1.02, milan 1.15, skylake 1.065; maxes 4.85/2.60/3.47)",
            arch.id(),
            arch_maxima.len(),
            median,
            max
        );
    }
    println!("\n=== Table VI comparison (range of per-(arch,setting) maxima) ===");
    for (app, maxima) in per_app {
        let lo = maxima.iter().cloned().fold(f64::INFINITY, f64::min);
        let hi = maxima.iter().cloned().fold(0.0f64, f64::max);
        let (plo, phi) = paper_range(&app);
        println!(
            "{:>10}  ours {:.3} - {:.3}   paper {:.3} - {:.3}",
            app, lo, hi, plo, phi
        );
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn calibrate_reads_no_argument() {
        omptune_core::cli::check_parse(|args| args.finish(), "", "--help | fast");
    }
}
