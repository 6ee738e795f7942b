//! Cost-attribution scenario: explain where a configuration's time goes
//! over the whole run, phase by phase and sink by sink, before and after
//! tuning.
//!
//! Run with: `cargo run --release --example explain -- [app] [arch]`
//! (defaults: mg on a64fx — the wake-up-dominated case)

use omptune::core::{Arch, KmpBlocktime, KmpLibrary, TuningConfig};

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let app_name = args.first().map(String::as_str).unwrap_or("mg");
    let arch = args
        .get(1)
        .and_then(|s| Arch::from_id(s))
        .unwrap_or(Arch::A64fx);
    let app = omptune::apps::app(app_name).expect("known app");
    let setting = omptune::apps::Setting {
        input_code: 0,
        num_threads: arch.cores(),
    };
    let model = (app.model)(arch, setting);

    let default = TuningConfig::default_for(arch, arch.cores());
    println!("=== {app_name} on {arch}, default configuration ===");
    println!(
        "{}",
        omptune::sim::explain(arch, &default, &model, 0).render()
    );

    let tuned = TuningConfig {
        library: KmpLibrary::Turnaround,
        blocktime: KmpBlocktime::Infinite,
        places: omptune::core::OmpPlaces::Cores,
        ..default
    };
    println!("=== {app_name} on {arch}, turnaround + bound ===");
    let e = omptune::sim::explain(arch, &tuned, &model, 0);
    println!("{}", e.render());

    let base = omptune::sim::simulate(arch, &default, &model, 0).seconds();
    println!("speedup: {:.3}x", base / e.result.seconds());
}
