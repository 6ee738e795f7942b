//! Energy pricing: turn a virtual-time breakdown into joules under the
//! per-architecture power model (`archsim::PowerDesc`).
//!
//! The model (DESIGN §15) is a **pure function** of the machine, the
//! tuning configuration, and the closed telemetry breakdown — no clocks,
//! no randomness, no global state — so every sample's joules are
//! bit-identically reproducible at any worker count, warm or cold,
//! batched or sequential. With `T` threads on a `C`-core machine and the
//! per-thread breakdown components (ns):
//!
//! - `active_j = (compute + dispatch) · T · P_active`
//! - `memory_j = memory · (T · P_memstall + P_dram)`, with `P_dram`
//!   derived from the machine's per-node bandwidth, the DRAM per-byte
//!   energy, and the occupancy `T / C`,
//! - `wait_j = (sync + imbalance + wake) · T · P_wait`, where `P_wait`
//!   follows the derived wait policy — this is where `KMP_BLOCKTIME` and
//!   `KMP_LIBRARY` acquire their second, conflicting objective: a hard
//!   spin wakes fastest but burns near-active power, a park wakes slowest
//!   but draws idle power,
//! - `serial_j = serial · ((P_active + P_boost) + (T − 1) · P_wait)` —
//!   one DVFS-boosted core computes while the team waits,
//! - `base_j = total · (P_uncore + (C − T) · P_idle)` — the package base
//!   and the unused cores draw for the whole run.
//!
//! `total_j` is the sum of the five sinks (closed, like the time
//! breakdown's `close_to_total` invariant).

use archsim::PowerDesc;
use omptune_core::{Arch, TuningConfig, WaitPolicy};

/// The power model used to simulate `arch`.
pub fn power_for(arch: Arch) -> PowerDesc {
    PowerDesc::by_name(arch.id()).expect("every simulated arch has a power preset")
}

/// Nanoseconds of spin budget before a `SpinThenSleep` worker parks.
fn blocktime_ns(config: &TuningConfig) -> f64 {
    match config.blocktime.millis() {
        Some(ms) => ms as f64 * 1e6,
        None => f64::INFINITY,
    }
}

/// Per-core draw (watts) of a waiting worker under the derived wait
/// policy. `avg_wait_ns` is the mean wait episode length (total wait
/// time over region count): a `SpinThenSleep` worker spins for the
/// lesser of the episode and its blocktime budget, then parks, so its
/// draw blends spin and idle power by the spun fraction.
fn wait_watts(power: &PowerDesc, config: &TuningConfig, avg_wait_ns: f64) -> f64 {
    let spin_w = |yielding: bool| {
        if yielding {
            power.core_yield_w
        } else {
            power.core_spin_w
        }
    };
    match config.wait_policy() {
        WaitPolicy::Passive => power.core_idle_w,
        WaitPolicy::Active { yielding } => spin_w(yielding),
        WaitPolicy::SpinThenSleep { yielding, .. } => {
            if avg_wait_ns <= 0.0 {
                return spin_w(yielding);
            }
            let spun = avg_wait_ns.min(blocktime_ns(config));
            let f = spun / avg_wait_ns;
            f * spin_w(yielding) + (1.0 - f) * power.core_idle_w
        }
    }
}

/// DRAM power (watts) while the machine streams memory: per-node
/// bandwidth × nodes × per-byte energy, scaled by occupancy. 1 GiB/s is
/// ~1.0737 bytes/ns, and 1 pJ/ns is 1 mW, hence the 1.0737e-3 factor.
fn dram_watts(machine: &archsim::MachineDesc, power: &PowerDesc, occupancy: f64) -> f64 {
    machine.mem.node_bw_gibs
        * machine.numa_nodes as f64
        * 1.0737e-3
        * power.dram_pj_per_byte
        * occupancy
}

/// Price one run's energy from its closed virtual-time breakdown.
///
/// `breakdown` must be the telemetry view whose components sum to
/// `virtual_ns` (see `SampleTelemetry`); `regions` sizes the average
/// wait episode the blocktime blend uses.
pub fn price_energy(
    arch: Arch,
    config: &TuningConfig,
    breakdown: &omptel::Breakdown,
    virtual_ns: f64,
    regions: u64,
) -> omptel::EnergyBreakdown {
    let machine = crate::exec::machine_for(arch);
    let power = power_for(arch);
    let t = config.num_threads.min(machine.cores) as f64;
    let cores = machine.cores as f64;
    let occupancy = (t / cores).clamp(0.0, 1.0);
    const J: f64 = 1e-9; // ns × W → J

    let wait_ns = breakdown.sync_ns + breakdown.imbalance_ns + breakdown.wake_ns;
    let avg_wait_ns = wait_ns / regions.max(1) as f64;
    let w_wait = wait_watts(&power, config, avg_wait_ns);

    let active_j = (breakdown.compute_ns + breakdown.dispatch_ns) * t * power.core_active_w * J;
    let memory_j = breakdown.memory_ns
        * (t * power.core_memstall_w + dram_watts(&machine, &power, occupancy))
        * J;
    let wait_j = wait_ns * t * w_wait * J;
    let serial_j = breakdown.serial_ns
        * ((power.core_active_w + power.boost_w) + (t - 1.0).max(0.0) * w_wait)
        * J;
    let base_j = virtual_ns * (power.uncore_w + (cores - t).max(0.0) * power.core_idle_w) * J;

    omptel::EnergyBreakdown {
        total_j: 0.0,
        active_j,
        memory_j,
        wait_j,
        serial_j,
        base_j,
    }
    .close()
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{AccessPattern, Imbalance, LoopPhase, Model, Phase};
    use omptune_core::{KmpBlocktime, KmpLibrary};

    fn model(serial_ns: f64, timesteps: u32) -> Model {
        Model {
            name: "e".into(),
            phases: vec![
                Phase::Loop(LoopPhase {
                    iters: 20_000,
                    cycles_per_iter: 150.0,
                    bytes_per_iter: 64.0,
                    access: AccessPattern::Streaming,
                    imbalance: Imbalance::Linear { skew: 1.2 },
                    reductions: 0,
                }),
                Phase::Serial { ns: serial_ns },
            ],
            timesteps,
            migration_sensitivity: 0.0,
        }
    }

    fn priced(config: &TuningConfig, m: &Model) -> (omptel::EnergyBreakdown, f64) {
        let _tel = crate::tel_shared();
        let sim = crate::simulate(Arch::Skylake, config, m, 5);
        let bd = sim.breakdown.to_tel().close_to_total(sim.total_ns);
        (
            price_energy(Arch::Skylake, config, &bd, sim.total_ns, sim.regions),
            sim.total_ns,
        )
    }

    #[test]
    fn energy_is_deterministic_and_closed() {
        let c = TuningConfig::default_for(Arch::Skylake, 40);
        let m = model(50_000.0, 20);
        let (a, _) = priced(&c, &m);
        let (b, _) = priced(&c, &m);
        assert_eq!(a.total_j.to_bits(), b.total_j.to_bits());
        assert_eq!(a.total_j.to_bits(), a.sink_sum().to_bits());
        assert!(a.total_j > 0.0 && a.total_j.is_finite());
        for s in omptel::EnergySink::ALL {
            assert!(a.get(s) >= 0.0, "{s:?} negative");
        }
    }

    #[test]
    fn hard_spin_burns_more_wait_energy_than_passive() {
        // Same structure, different wait policy: `turnaround` + infinite
        // blocktime spins through every wait; blocktime 0 parks. The
        // spin config must pay more wait+serial energy — the conflict
        // the disagreement map is built on.
        let m = model(200_000.0, 50);
        let mut spin = TuningConfig::default_for(Arch::Skylake, 40);
        spin.library = KmpLibrary::Turnaround;
        spin.blocktime = KmpBlocktime::Infinite;
        let mut park = TuningConfig::default_for(Arch::Skylake, 40);
        park.blocktime = KmpBlocktime::Zero;
        let (e_spin, t_spin) = priced(&spin, &m);
        let (e_park, t_park) = priced(&park, &m);
        assert!(
            e_spin.wait_j + e_spin.serial_j > 1.5 * (e_park.wait_j + e_park.serial_j),
            "spin wait {} vs park wait {}",
            e_spin.wait_j + e_spin.serial_j,
            e_park.wait_j + e_park.serial_j
        );
        // And time pulls the other way: spinning wakes faster.
        assert!(t_spin < t_park, "spin {t_spin} park {t_park}");
    }

    #[test]
    fn blocktime_blend_sits_between_spin_and_park() {
        // Fixed breakdown (wait episodes of 800 ms, well past the
        // 200 ms default blocktime) priced under three blocktimes: the
        // blended draw must sit strictly between park and pure spin.
        let bd = omptel::Breakdown {
            compute_ns: 1e8,
            sync_ns: 4e9,
            imbalance_ns: 4e9,
            ..omptel::Breakdown::default()
        };
        let mk = |bt: KmpBlocktime| {
            let mut c = TuningConfig::default_for(Arch::Skylake, 40);
            c.blocktime = bt;
            price_energy(Arch::Skylake, &c, &bd, 8.1e9, 10).wait_j
        };
        let park = mk(KmpBlocktime::Zero);
        let blend = mk(KmpBlocktime::Default200);
        let spin = mk(KmpBlocktime::Infinite);
        assert!(park < blend && blend < spin, "{park} {blend} {spin}");
    }

    #[test]
    fn fewer_threads_draw_less_active_power() {
        let m = model(0.0, 10);
        let (e8, _) = priced(&TuningConfig::default_for(Arch::Skylake, 8), &m);
        let (e40, _) = priced(&TuningConfig::default_for(Arch::Skylake, 40), &m);
        // Same total work spread over fewer cores: active energy is
        // about equal, but the idle remainder of the machine draws less
        // than active cores — total energy differs, active_j per unit
        // work does not explode.
        assert!(e8.active_j > 0.0 && e40.active_j > 0.0);
        assert!(e8.base_j / e8.total_j > e40.base_j / e40.total_j);
    }

    #[test]
    fn power_presets_exist_for_every_arch() {
        for arch in Arch::ALL {
            power_for(arch).validate().unwrap();
        }
    }
}
