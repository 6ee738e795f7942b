//! Machine descriptions for the studied CPUs (paper Table I).
//!
//! A [`MachineDesc`] captures exactly the architectural facts the tuning
//! effects depend on: core/socket/NUMA/LLC topology, clock, cache-line
//! size, memory technology (bandwidth and latency, local vs. remote), and
//! the OS-level thread wake-up latency. The three presets encode Table I
//! plus public microarchitectural figures (HBM2 vs. DDR4 bandwidths,
//! typical futex wake latencies).

use serde::{Deserialize, Serialize};

/// Memory-system parameters of one machine.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct MemoryDesc {
    /// Peak bandwidth *per NUMA node* in GiB/s.
    pub node_bw_gibs: f64,
    /// Load-to-use latency for node-local accesses, nanoseconds.
    pub local_latency_ns: f64,
    /// Latency multiplier for accesses to a remote NUMA node.
    pub remote_factor: f64,
}

/// A complete machine description.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct MachineDesc {
    /// Identifier, e.g. `"a64fx"`.
    pub name: String,
    pub cores: usize,
    pub sockets: usize,
    pub numa_nodes: usize,
    /// Number of last-level-cache groups.
    pub ll_caches: usize,
    pub clock_ghz: f64,
    /// Cache-line size in bytes.
    pub cacheline: u32,
    pub mem: MemoryDesc,
    /// Latency to wake a sleeping (parked) thread, nanoseconds. Paid when
    /// a parallel region starts after workers exhausted their blocktime.
    pub wake_latency_ns: f64,
    /// Latency to resume a spinning thread, nanoseconds.
    pub spin_wake_ns: f64,
}

impl MachineDesc {
    /// Fujitsu A64FX (Ookami): 48 cores in 4 CMGs, HBM2, 256 B lines.
    pub fn a64fx() -> MachineDesc {
        MachineDesc {
            name: "a64fx".into(),
            cores: 48,
            sockets: 1,
            numa_nodes: 4,
            ll_caches: 4,
            clock_ghz: 1.8,
            cacheline: 256,
            mem: MemoryDesc {
                // 1 TiB/s aggregate HBM2 over 4 CMGs.
                node_bw_gibs: 256.0,
                local_latency_ns: 130.0,
                remote_factor: 1.9,
            },
            wake_latency_ns: 10_500.0,
            spin_wake_ns: 220.0,
        }
    }

    /// Intel Xeon Gold 6148 (Skylake): 2 × 20 cores, 6-channel DDR4-2666.
    pub fn skylake() -> MachineDesc {
        MachineDesc {
            name: "skylake".into(),
            cores: 40,
            sockets: 2,
            numa_nodes: 2,
            ll_caches: 2,
            clock_ghz: 2.4,
            cacheline: 64,
            mem: MemoryDesc {
                // ~128 GB/s per socket (6 ch × DDR4-2666).
                node_bw_gibs: 119.0,
                local_latency_ns: 89.0,
                remote_factor: 1.7,
            },
            wake_latency_ns: 5_000.0,
            spin_wake_ns: 120.0,
        }
    }

    /// AMD EPYC 7643 (Milan): 2 × 48 cores, NPS4 → 8 NUMA nodes, 12 CCXs.
    pub fn milan() -> MachineDesc {
        MachineDesc {
            name: "milan".into(),
            cores: 96,
            sockets: 2,
            numa_nodes: 8,
            ll_caches: 12,
            clock_ghz: 2.3,
            cacheline: 64,
            mem: MemoryDesc {
                // 8-channel DDR4-3200 per socket split over 4 NPS domains.
                node_bw_gibs: 51.0,
                local_latency_ns: 96.0,
                remote_factor: 2.2,
            },
            wake_latency_ns: 3_000.0,
            spin_wake_ns: 140.0,
        }
    }

    /// Look up a preset by its dataset identifier.
    pub fn by_name(name: &str) -> Option<MachineDesc> {
        match name {
            "a64fx" => Some(MachineDesc::a64fx()),
            "skylake" => Some(MachineDesc::skylake()),
            "milan" => Some(MachineDesc::milan()),
            _ => None,
        }
    }

    /// Cores per NUMA node.
    pub fn cores_per_numa(&self) -> usize {
        self.cores / self.numa_nodes
    }

    /// Cores per LLC group.
    pub fn cores_per_llc(&self) -> usize {
        self.cores / self.ll_caches
    }

    /// Cores per socket.
    pub fn cores_per_socket(&self) -> usize {
        self.cores / self.sockets
    }

    /// Validate internal consistency (topology divides evenly, positive
    /// rates). Used by property tests and on deserialized descriptions.
    pub fn validate(&self) -> Result<(), String> {
        if self.cores == 0 {
            return Err("zero cores".into());
        }
        for (what, n) in [
            ("sockets", self.sockets),
            ("numa_nodes", self.numa_nodes),
            ("ll_caches", self.ll_caches),
        ] {
            if n == 0 {
                return Err(format!("zero {what}"));
            }
            if !self.cores.is_multiple_of(n) {
                return Err(format!("cores not divisible by {what}"));
            }
        }
        if self.clock_ghz <= 0.0 || self.mem.node_bw_gibs <= 0.0 {
            return Err("non-positive rate".into());
        }
        if self.mem.remote_factor < 1.0 {
            return Err("remote access cannot be cheaper than local".into());
        }
        if !self.cacheline.is_power_of_two() {
            return Err("cache line must be a power of two".into());
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets_match_table1() {
        let a = MachineDesc::a64fx();
        assert_eq!((a.cores, a.numa_nodes, a.cacheline), (48, 4, 256));
        assert_eq!(a.clock_ghz, 1.8);
        let s = MachineDesc::skylake();
        assert_eq!((s.cores, s.sockets, s.cacheline), (40, 2, 64));
        let m = MachineDesc::milan();
        assert_eq!((m.cores, m.numa_nodes, m.cacheline), (96, 8, 64));
    }

    #[test]
    fn presets_validate() {
        for name in ["a64fx", "skylake", "milan"] {
            MachineDesc::by_name(name).unwrap().validate().unwrap();
        }
        assert!(MachineDesc::by_name("power9").is_none());
    }

    #[test]
    fn a64fx_has_highest_per_node_bandwidth() {
        // HBM vs DDR4: the memory-bound tuning effects depend on this order.
        assert!(MachineDesc::a64fx().mem.node_bw_gibs > MachineDesc::skylake().mem.node_bw_gibs);
        assert!(MachineDesc::skylake().mem.node_bw_gibs > MachineDesc::milan().mem.node_bw_gibs);
    }

    #[test]
    fn topology_division() {
        let m = MachineDesc::milan();
        assert_eq!(m.cores_per_numa(), 12);
        assert_eq!(m.cores_per_llc(), 8);
        assert_eq!(m.cores_per_socket(), 48);
    }

    #[test]
    fn validate_rejects_bad_descriptions() {
        let mut m = MachineDesc::milan();
        m.cores = 97; // not divisible by anything
        assert!(m.validate().is_err());
        let mut m = MachineDesc::milan();
        m.mem.remote_factor = 0.5;
        assert!(m.validate().is_err());
        let mut m = MachineDesc::milan();
        m.cacheline = 96;
        assert!(m.validate().is_err());
    }
}
