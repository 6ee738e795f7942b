//! End-to-end integration: sweep → dataset → analysis → recommendations,
//! across crate boundaries. The paper's findings are the scorecard's rows
//! at the paper scope; the headline findings must also survive on the
//! small strided dataset, which holds the pipeline's own properties.

use bench_harness::repro::{ReproScope, Reproduction};
use omptune::core::paper::{self, End, Key, Verdict};
use omptune::core::{
    influence_analysis, recommend_for, worst_trends, Arch, EffectiveBind, Feature, GroupBy,
    SettingMaxima, TuningConfig,
};
use omptune::data::{Dataset, Scope, SweepSpec};
use std::sync::OnceLock;

/// One shared dataset for every test here (the sweep is the expensive
/// part); each test only reads it.
fn small_dataset() -> &'static Dataset {
    static DATASET: OnceLock<Dataset> = OnceLock::new();
    DATASET.get_or_init(|| {
        let spec = SweepSpec {
            scope: Scope::Strided(32),
            reps: 3,
            seed: 99,
            ..SweepSpec::default()
        };
        let mut batches = omptune::data::sweep_all(&spec);
        for b in &mut batches {
            omptune::data::clean(b, 3);
        }
        Dataset::build(&batches)
    })
}

#[test]
fn pipeline_produces_nonempty_dataset_for_all_archs() {
    let ds = small_dataset();
    for (arch, apps, samples) in ds.table2() {
        assert!(samples > 1000, "{arch}: only {samples} samples");
        let expected_apps = omptune::apps::apps_on(arch).len();
        assert_eq!(apps, expected_apps, "{arch} app count");
    }
}

/// The paper-sized reproduction every table is built from, at the
/// default seed: what the scorecard's rows describe.
fn paper_scope() -> &'static Reproduction {
    static REPRO: OnceLock<Reproduction> = OnceLock::new();
    REPRO.get_or_init(|| Reproduction::generate(ReproScope::Paper))
}

/// Every number and claim of the paper has one home, a row of
/// `omptune_core::paper`; none may miss (Tables II–VII, Q1/Q2/Q4, Figs.
/// 2–3: NQueens → turnaround, XSBench wins only on Milan, the median
/// order, master binding worst, the Fig. 2/3 influence ranks).
#[test]
fn the_paper_scope_scorecard_has_no_miss() {
    let card = paper_scope().fidelity();
    assert!(card.0.len() >= 60, "only {} rows", card.0.len());
    assert_eq!(card.code(), 0, "\n{card}");
}

/// The swept paper-scope slice, by bit pattern: a change to planning,
/// pricing or the scheduler may leave every table and figure alone and
/// still move a sample, and then this literal moves. The same value at
/// every worker count (the scheduler's byte-identity).
#[test]
fn the_paper_scope_slice_hashes_to_the_pinned_fingerprint() {
    let fingerprint = omptune::data::slice_fingerprint(&paper_scope().batches);
    assert_eq!(format!("{fingerprint:016x}"), "0da60ef1290f13d9");
}

/// A scorecard that cannot fail is not a gate: one row's paper value
/// ×1.1 is a miss, and the run's code is 4.
#[test]
fn a_planted_miss_flips_the_scorecard() {
    let mut rows = paper::ROWS.to_vec();
    let at = rows
        .iter()
        .position(|r| r.key == Key::App("xsbench", End::Max))
        .expect("row");
    rows[at].paper *= 1.1;
    let card = paper_scope().score(&rows);
    assert_eq!(card.0[at].verdict, Verdict::Miss, "{}", card.0[at]);
    assert_eq!(card.code(), 4);
}

#[test]
fn nqueens_turnaround_is_the_headline_win() {
    // Paper Table VII: KMP_LIBRARY=turnaround wins NQueens on *all*
    // architectures, with speedups 2.342 - 4.851.
    let ds = small_dataset();
    for arch in Arch::ALL {
        let report =
            recommend_for(&ds.records, "nqueens", arch, 32, 0.6).expect("nqueens swept everywhere");
        assert!(
            report.best_speedup > 2.0 && report.best_speedup < 5.5,
            "{arch}: best {:.3}",
            report.best_speedup
        );
        assert!(
            report
                .recommendations
                .iter()
                .any(|r| r.variable == "KMP_LIBRARY" && r.value == "turnaround"),
            "{arch}: {:?}",
            report.recommendations
        );
    }
}

#[test]
fn xsbench_binding_wins_only_on_milan() {
    // Paper Table V: XSBench improves 2.6x on Milan, ~nothing elsewhere.
    let maxima = SettingMaxima::of(&small_dataset().records);
    let max_on = |arch: Arch| {
        maxima
            .app_arch_range("xsbench", arch)
            .expect("xsbench present")
            .hi
    };
    assert!(
        max_on(Arch::Milan) > 2.0,
        "milan {:.3}",
        max_on(Arch::Milan)
    );
    assert!(
        max_on(Arch::A64fx) < 1.1,
        "a64fx {:.3}",
        max_on(Arch::A64fx)
    );
    assert!(
        max_on(Arch::Skylake) < 1.1,
        "skylake {:.3}",
        max_on(Arch::Skylake)
    );
}

#[test]
fn architecture_medians_are_ordered_like_the_paper() {
    // Paper Q1: milan (1.15) > skylake (1.065) > a64fx (1.02).
    let maxima = SettingMaxima::of(&small_dataset().records);
    let median = |arch: Arch| {
        maxima
            .arch_summary(arch)
            .expect("arch present")
            .median_improvement
    };
    let (fx, skl, mil) = (
        median(Arch::A64fx),
        median(Arch::Skylake),
        median(Arch::Milan),
    );
    assert!(mil > skl, "milan {mil:.3} vs skylake {skl:.3}");
    assert!(mil > fx, "milan {mil:.3} vs a64fx {fx:.3}");
    assert!(fx < 1.12, "a64fx median too high: {fx:.3}");
}

#[test]
fn worst_trend_is_master_binding_at_scale() {
    // Paper Q4.
    let ds = small_dataset();
    let trends = worst_trends(&ds.records, ds.records.len() / 100);
    assert!(
        trends[0].pattern.contains("master binding"),
        "top trend: {}",
        trends[0].pattern
    );
    assert!(trends[0].lift() > 3.0, "lift {:.2}", trends[0].lift());
}

#[test]
fn influence_analysis_ranks_knobs_like_figure3() {
    // Paper Fig. 3: NUM_THREADS / PROC_BIND lead; FORCE_REDUCTION and
    // ALIGN_ALLOC are nearly irrelevant at architecture grouping.
    let ds = small_dataset();
    let hm = influence_analysis(&ds.records, GroupBy::Architecture).expect("fits");
    for arch in Arch::ALL {
        let get = |f: Feature| hm.influence_of(arch.id(), f).expect("feature present");
        let leaders = get(Feature::NumThreads).max(get(Feature::ProcBind));
        assert!(
            leaders > get(Feature::ForceReduction),
            "{arch}: leaders {leaders:.3} vs force_reduction"
        );
        assert!(
            leaders > get(Feature::AlignAlloc),
            "{arch}: leaders {leaders:.3} vs align_alloc"
        );
        assert!(
            get(Feature::AlignAlloc) < 0.08,
            "{arch}: align influence too high"
        );
    }
}

#[test]
fn bots_task_apps_show_low_architecture_reliance() {
    // Paper Fig. 2 / Sec. V Q2: BOTS task applications "show very low
    // reliance on the architecture" — their tuning transfers — while
    // XSBench's optimum is Milan-specific.
    let ds = small_dataset();
    let hm = influence_analysis(&ds.records, GroupBy::Application).expect("fits");
    let arch_influence = |app: &str| {
        hm.influence_of(app, Feature::Architecture)
            .unwrap_or_else(|| panic!("{app} missing"))
    };
    assert!(
        arch_influence("nqueens") < arch_influence("xsbench"),
        "nqueens {:.3} vs xsbench {:.3}",
        arch_influence("nqueens"),
        arch_influence("xsbench")
    );
}

#[test]
fn linear_regression_fits_poorly_motivating_classification() {
    // Paper Sec. IV-D: the speedup distribution defeats OLS ("low
    // confidence scores associated with poor model fitting"), which is
    // why the analysis pivots to the classification surrogate.
    let ds = small_dataset();
    let fits = omptune::core::linear_fit_quality(&ds.records, GroupBy::Architecture).expect("fits");
    for (group, r2) in fits {
        assert!(r2 < 0.6, "{group}: OLS unexpectedly good (r2 = {r2:.3})");
    }
}

#[test]
fn default_configuration_is_rarely_far_from_optimal() {
    // Paper Sec. I: "all our benchmarks show a speedup potential compared
    // to the default configuration, albeit the default performs very well
    // across the board" — i.e. most samples are NOT faster than default.
    let ds = small_dataset();
    let faster = ds.records.iter().filter(|r| r.speedup > 1.01).count();
    let frac = faster as f64 / ds.records.len() as f64;
    assert!(frac < 0.5, "too many configs beat the default: {frac:.2}");
    assert!(frac > 0.02, "tuning potential vanished entirely: {frac:.3}");
}

#[test]
fn real_runtime_and_simulator_agree_on_the_master_bind_trend() {
    // Cross-substrate sanity: the simulator says master-binding at high
    // thread counts is catastrophic; the placement logic that the real
    // runtime exposes must show the oversubscription that causes it.
    let mut config = TuningConfig::default_for(Arch::Milan, 96);
    config.places = omptune::core::OmpPlaces::Cores;
    config.proc_bind = omptune::core::OmpProcBind::Master;
    assert_eq!(config.effective_bind(), EffectiveBind::Master);
    let placement = omptune::core::Placement::compute(Arch::Milan, &config);
    assert_eq!(placement.max_oversubscription(Arch::Milan, 96), 96.0);

    let app = omptune::apps::app("ep").expect("registered");
    let setting = omptune::apps::Setting {
        input_code: 0,
        num_threads: 96,
    };
    let model = (app.model)(Arch::Milan, setting);
    let bad = omptune::sim::simulate(Arch::Milan, &config, &model, 0).seconds();
    let good = omptune::sim::simulate(
        Arch::Milan,
        &TuningConfig::default_for(Arch::Milan, 96),
        &model,
        0,
    )
    .seconds();
    assert!(
        bad > 10.0 * good,
        "master bind must crater: {bad} vs {good}"
    );
}
