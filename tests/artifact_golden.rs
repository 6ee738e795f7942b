//! Golden digests of the `collect` artifacts and of the `config_hash`
//! join key. Every literal below was captured at the commit before
//! serialization became streaming (PR 12, 3f80042): the writers may get
//! faster, the bytes may not change.

use omptune::core::{Arch, TuningConfig};
use omptune::data::{self, Dataset, Scope, SweepOptions, SweepSpec};

fn fnv(bytes: &[u8]) -> u64 {
    bytes.iter().fold(0xcbf29ce484222325, |h, &b| {
        (h ^ b as u64).wrapping_mul(0x100000001b3)
    })
}

/// `collect tiny`'s artifacts, in memory: the same spec, cleaning and
/// writers, with the manifest's wall-clock fields (elapsed seconds, the
/// latency histogram) left at zero.
fn tiny_artifacts() -> [(&'static str, Vec<u8>); 4] {
    let spec = SweepSpec {
        scope: Scope::Strided(400),
        ..SweepSpec::default()
    };
    let mut manifest = data::RunManifest::new(&spec);
    let mut batches = Vec::new();
    for &arch in Arch::ALL.iter() {
        let outcome = data::sweep_arch_scheduled(arch, &spec, &SweepOptions::new(1));
        let mut arch_batches = outcome.batches;
        let dropped: usize = arch_batches
            .iter_mut()
            .map(|b| data::clean(b, spec.reps as usize).dropped.len())
            .sum();
        manifest.push_arch(
            arch,
            &arch_batches,
            dropped,
            0.0,
            outcome.stats,
            omptune::tel::Histogram::new(),
        );
        batches.extend(arch_batches);
    }

    let mut csv = Vec::new();
    data::export::write_csv(&Dataset::build(&batches), &mut csv).unwrap();
    let mut raw = Vec::new();
    data::export::write_raw_json(&batches, &mut raw).unwrap();
    let mut prov = Vec::new();
    data::write_provenance_jsonl(data::provenance_iter(&batches, &spec), &mut prov).unwrap();
    let mut mf = Vec::new();
    data::write_manifest(&manifest, &mut mf).unwrap();
    [
        ("samples.csv", csv),
        ("raw_batches.json", raw),
        ("provenance.jsonl", prov),
        ("manifest.json", mf),
    ]
}

#[test]
fn tiny_collect_artifacts_match_the_golden_digests() {
    let golden: [(&str, usize, u64); 4] = [
        ("samples.csv", 162278, 0x9584286d713cb238),
        ("raw_batches.json", 1670600, 0x3c18d76107f1f6cb),
        ("provenance.jsonl", 1544788, 0x17031c53888e2e7e),
        ("manifest.json", 4488, 0x80fd603cff4e6c4d),
    ];
    for ((name, bytes), (gname, glen, gfnv)) in tiny_artifacts().iter().zip(golden) {
        assert_eq!(*name, gname);
        assert_eq!(
            (bytes.len(), fnv(bytes)),
            (glen, gfnv),
            "{name} changed: length or FNV-1a differs from the golden"
        );
    }
}

#[test]
fn config_hash_matches_the_pinned_literals() {
    let default = TuningConfig::default_for(Arch::Milan, 96);
    let mut spread = default;
    spread.proc_bind = omptune::core::OmpProcBind::Spread;
    let mut aligned = TuningConfig::default_for(Arch::A64fx, 48);
    aligned.align_alloc = omptune::core::KmpAlignAlloc(4096);
    let golden: [(TuningConfig, u64); 5] = [
        (default, 0x084ab64fa1bb6e3c),
        (spread, 0xf179c521301464c8),
        (aligned, 0x2bc8b32bbc91d3a0),
        (
            TuningConfig::default_for(Arch::Skylake, 40),
            0x21e1354fb01cced5,
        ),
        (
            TuningConfig::default_for(Arch::Skylake, 1),
            0x807ef73fbdf61fa0,
        ),
    ];
    for (config, hash) in golden {
        assert_eq!(data::config_hash(&config), hash, "{config:?}");
    }
}
