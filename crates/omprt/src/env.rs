//! Runtime initialization from real process environment variables.
//!
//! This is the code path a downstream user of the library hits: set the
//! same variables the paper sweeps (`OMP_NUM_THREADS`, `OMP_SCHEDULE`,
//! `KMP_BLOCKTIME`, …) in the environment, call [`RuntimeConfig::from_env`],
//! and get back a validated [`TuningConfig`] plus a ready
//! [`crate::pool::ThreadPool`].

use crate::pool::ThreadPool;
use omptune_core::{Arch, TuningConfig, Variable};
use std::collections::BTreeMap;

/// Errors from environment parsing.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct EnvError {
    /// Variable that failed to parse.
    pub variable: String,
    /// The offending value.
    pub value: String,
}

impl std::fmt::Display for EnvError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "invalid {}={:?}", self.variable, self.value)
    }
}

impl std::error::Error for EnvError {}

/// A fully resolved runtime configuration.
#[derive(Debug, Clone, PartialEq)]
pub struct RuntimeConfig {
    pub config: TuningConfig,
    /// Architecture the alignment default was resolved against.
    pub arch: Arch,
}

/// The environment variables the runtime consults: the thread count,
/// the wait policy and the seven of the variable table.
/// `OMP_WAIT_POLICY` is accepted for completeness but — exactly as the
/// paper describes (Sec. III) — it is *derived*: `active` maps to
/// `KMP_BLOCKTIME=infinite`, `passive` to `KMP_BLOCKTIME=0`, and an
/// explicitly set `KMP_BLOCKTIME` wins.
pub fn known_variables() -> impl Iterator<Item = &'static str> {
    ["OMP_NUM_THREADS", "OMP_WAIT_POLICY"]
        .into_iter()
        .chain(Variable::ALL.map(Variable::env_name))
}

impl RuntimeConfig {
    /// Resolve a configuration from an explicit variable map (unit-testable
    /// core of [`RuntimeConfig::from_env`]). Missing keys take the libomp
    /// defaults; `default_threads` substitutes for a missing
    /// `OMP_NUM_THREADS`.
    pub fn from_map(
        vars: &BTreeMap<String, String>,
        arch: Arch,
        default_threads: usize,
    ) -> Result<RuntimeConfig, EnvError> {
        let mut map = vars.clone();
        map.entry("OMP_NUM_THREADS".into())
            .or_insert_with(|| default_threads.to_string());
        // OMP_WAIT_POLICY is translated into the blocktime it implies,
        // unless KMP_BLOCKTIME is explicitly set (the KMP_* variables are
        // the source of truth, per Sec. III).
        if let Some(policy) = map.get("OMP_WAIT_POLICY").cloned() {
            let blocktime = Variable::Blocktime.env_name();
            if !map.contains_key(blocktime) {
                let bt = match policy.as_str() {
                    "active" | "ACTIVE" => Some("infinite"),
                    "passive" | "PASSIVE" => Some("0"),
                    _ => None,
                };
                match bt {
                    Some(v) => {
                        map.insert(blocktime.into(), v.into());
                    }
                    None => {
                        return Err(EnvError {
                            variable: "OMP_WAIT_POLICY".into(),
                            value: policy,
                        })
                    }
                }
            }
            map.remove("OMP_WAIT_POLICY");
        }
        let fail = |variable: &str| EnvError {
            variable: variable.to_string(),
            value: map.get(variable).cloned().unwrap_or_default(),
        };
        let config = TuningConfig::from_env(&map, arch).map_err(fail)?;
        if config.num_threads == 0 {
            return Err(fail("OMP_NUM_THREADS"));
        }
        Ok(RuntimeConfig { config, arch })
    }

    /// Resolve from the real process environment. `arch` selects the
    /// alignment default (a real libomp probes the CPU; we take it as an
    /// argument since the study's machines are fixed).
    pub fn from_env(arch: Arch, default_threads: usize) -> Result<RuntimeConfig, EnvError> {
        let mut vars = BTreeMap::new();
        for key in known_variables() {
            if let Ok(v) = std::env::var(key) {
                vars.insert(key.to_string(), v);
            }
        }
        RuntimeConfig::from_map(&vars, arch, default_threads)
    }

    /// Build a thread pool honouring this configuration's thread count and
    /// wait policy.
    pub fn build_pool(&self) -> ThreadPool {
        ThreadPool::new(self.config.num_threads, self.config.wait_policy())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use omptune_core::{KmpBlocktime, KmpLibrary, OmpSchedule, WaitPolicy};

    fn map(pairs: &[(&str, &str)]) -> BTreeMap<String, String> {
        pairs
            .iter()
            .map(|(k, v)| (k.to_string(), v.to_string()))
            .collect()
    }

    #[test]
    fn empty_environment_gives_defaults() {
        let rc = RuntimeConfig::from_map(&map(&[]), Arch::Skylake, 8).unwrap();
        assert_eq!(rc.config, TuningConfig::default_for(Arch::Skylake, 8));
    }

    #[test]
    fn full_environment_parses() {
        let rc = RuntimeConfig::from_map(
            &map(&[
                ("OMP_NUM_THREADS", "4"),
                ("OMP_PLACES", "sockets"),
                ("OMP_PROC_BIND", "spread"),
                ("OMP_SCHEDULE", "guided"),
                ("KMP_LIBRARY", "turnaround"),
                ("KMP_BLOCKTIME", "infinite"),
                ("KMP_FORCE_REDUCTION", "tree"),
                ("KMP_ALIGN_ALLOC", "512"),
            ]),
            Arch::Milan,
            96,
        )
        .unwrap();
        assert_eq!(rc.config.num_threads, 4);
        assert_eq!(rc.config.schedule, OmpSchedule::Guided);
        assert_eq!(rc.config.library, KmpLibrary::Turnaround);
        assert_eq!(rc.config.blocktime, KmpBlocktime::Infinite);
        assert_eq!(
            rc.config.wait_policy(),
            WaitPolicy::Active { yielding: false }
        );
    }

    #[test]
    fn bad_value_reports_the_variable() {
        let err = RuntimeConfig::from_map(&map(&[("OMP_SCHEDULE", "fastest")]), Arch::Milan, 4)
            .unwrap_err();
        assert_eq!(err.variable, "OMP_SCHEDULE");
        assert_eq!(err.value, "fastest");
        assert!(err.to_string().contains("OMP_SCHEDULE"));
    }

    #[test]
    fn zero_threads_rejected() {
        let err =
            RuntimeConfig::from_map(&map(&[("OMP_NUM_THREADS", "0")]), Arch::Milan, 4).unwrap_err();
        assert_eq!(err.variable, "OMP_NUM_THREADS");
    }

    #[test]
    fn wait_policy_derives_blocktime() {
        let rc = RuntimeConfig::from_map(&map(&[("OMP_WAIT_POLICY", "active")]), Arch::Milan, 4)
            .unwrap();
        assert_eq!(rc.config.blocktime, KmpBlocktime::Infinite);
        let rc = RuntimeConfig::from_map(&map(&[("OMP_WAIT_POLICY", "passive")]), Arch::Milan, 4)
            .unwrap();
        assert_eq!(rc.config.blocktime, KmpBlocktime::Zero);
    }

    #[test]
    fn explicit_blocktime_beats_wait_policy() {
        // The KMP_* variables are the source of truth (Sec. III).
        let rc = RuntimeConfig::from_map(
            &map(&[
                ("OMP_WAIT_POLICY", "passive"),
                ("KMP_BLOCKTIME", "infinite"),
            ]),
            Arch::Skylake,
            4,
        )
        .unwrap();
        assert_eq!(rc.config.blocktime, KmpBlocktime::Infinite);
    }

    #[test]
    fn bad_wait_policy_rejected() {
        let err =
            RuntimeConfig::from_map(&map(&[("OMP_WAIT_POLICY", "aggressive")]), Arch::Milan, 4)
                .unwrap_err();
        assert_eq!(err.variable, "OMP_WAIT_POLICY");
    }

    #[test]
    fn pool_size_matches_config() {
        let rc =
            RuntimeConfig::from_map(&map(&[("OMP_NUM_THREADS", "3")]), Arch::A64fx, 8).unwrap();
        let pool = rc.build_pool();
        assert_eq!(pool.num_threads(), 3);
    }
}
