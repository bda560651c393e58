//! Shared bootstrap for daemon and one-shot runs of the same scenario.
//!
//! Byte-identical traces are the repo's determinism contract: a daemon
//! run of N epochs must produce exactly the JSONL a one-shot `sim-run`
//! of the same scenario produces. Both paths therefore build their
//! runtime through this module — same machine model, same mix, same
//! STREAM reference, same seed, same profiling-retry policy — and
//! [`Scenario::reference_trace`] *is* the one-shot path, used by the
//! determinism tests as the expected value.

use copart_core::policies::{self, PolicyKind};
use copart_core::runtime::{ConsolidationRuntime, RuntimeConfig};
use copart_core::CoPartParams;
use copart_faults::{FaultPlan, FaultyBackend, FaultySim};
use copart_rdt::{ClosId, SimBackend};
use copart_sim::{AppSpec, Machine, MachineConfig};
use copart_workloads::stream::StreamReference;
use copart_workloads::{Benchmark, MixKind, WorkloadMix};

use crate::trace::SharedRing;

/// Profiling passes every scenario boot gets before giving up: the
/// daemon, the kill/resume harness, [`Scenario::reference_trace`] and
/// the one-shot `sim-run`. Under a fault plan a vanished group or a run
/// of busy writes can abort a pass; without one the first pass always
/// succeeds, so the allowance costs a fault-free run nothing.
pub const PROFILE_ATTEMPTS: u32 = 5;

/// What consolidation the daemon should run: everything needed to build
/// the runtime deterministically.
#[derive(Debug, Clone)]
pub struct Scenario {
    /// Which Table 3 mix family to consolidate.
    pub mix: MixKind,
    /// Number of applications (1–6).
    pub n_apps: usize,
    /// The partitioning policy (must be dynamic: CAT-only, MBA-only,
    /// CoPart, or LFOC).
    pub policy: PolicyKind,
    /// Seed for the explorer's randomized θ-retries.
    pub seed: u64,
    /// Deterministic fault plan, if the run should be fault-injected.
    /// `None` runs the same decorated backend on [`FaultPlan::none`].
    pub faults: Option<FaultPlan>,
}

impl Scenario {
    /// A scenario over one of the paper's mixes.
    ///
    /// # Errors
    ///
    /// Rejects an app count outside 1–6 and non-dynamic policies (EQ
    /// and ST have no epoch loop to serve).
    ///
    /// # Examples
    ///
    /// ```
    /// use copart_core::policies::PolicyKind;
    /// use copart_serve::Scenario;
    /// use copart_workloads::MixKind;
    /// let s = Scenario::new(MixKind::HighBoth, 4, PolicyKind::CoPart, 42, None).unwrap();
    /// assert_eq!(s.n_apps, 4);
    /// assert!(Scenario::new(MixKind::HighBoth, 4, PolicyKind::Equal, 42, None).is_err());
    /// ```
    pub fn new(
        mix: MixKind,
        n_apps: usize,
        policy: PolicyKind,
        seed: u64,
        faults: Option<FaultPlan>,
    ) -> Result<Scenario, String> {
        if !(1..=6).contains(&n_apps) {
            return Err("app count must be between 1 and 6".into());
        }
        if !matches!(
            policy,
            PolicyKind::CatOnly
                | PolicyKind::MbaOnly
                | PolicyKind::CoPart
                | PolicyKind::LfocCluster
        ) {
            return Err(format!(
                "policy {} is not dynamic; serve needs cat-only, mba-only, copart, or lfoc",
                policy.label()
            ));
        }
        Ok(Scenario {
            mix,
            n_apps,
            policy,
            seed,
            faults,
        })
    }

    /// Measures the environment the scenario runs in (machine model,
    /// STREAM reference table, parameters). The STREAM table is
    /// simulated at every MBA level — deterministic but not free, so it
    /// is computed once per process and cloned (every scenario runs on
    /// the same machine model; the kill/resume harness and the recovery
    /// tests call this per incarnation).
    pub fn env(&self) -> ScenarioEnv {
        static STREAM: std::sync::OnceLock<StreamReference> = std::sync::OnceLock::new();
        let machine = MachineConfig::xeon_gold_6130();
        let mix = WorkloadMix::build(self.mix, self.n_apps, machine.n_cores);
        let stream = STREAM
            .get_or_init(|| StreamReference::compute(&machine, 4))
            .clone();
        let params = CoPartParams {
            seed: self.seed,
            ..CoPartParams::default()
        };
        ScenarioEnv {
            machine,
            stream,
            params,
            cores_per_app: mix.cores_per_app,
            policy: self.policy,
            identity: RunIdentity {
                mix: self.mix.label().to_string(),
                seed: self.seed,
                faults: self
                    .faults
                    .as_ref()
                    .map(|p| format!("{p:?}"))
                    .unwrap_or_default(),
            },
        }
    }

    /// The mix's application specs, in slot order.
    pub fn specs(&self, env: &ScenarioEnv) -> Vec<AppSpec> {
        WorkloadMix::build(self.mix, self.n_apps, env.machine.n_cores).specs()
    }

    /// Builds the scenario's runtime on the one simulated platform: the
    /// simulator behind the fault decorator, armed with the scenario's
    /// plan, or with [`FaultPlan::none`] (byte-transparent) when the
    /// scenario has none.
    ///
    /// # Errors
    ///
    /// Fails when the mix does not fit the machine or the initial
    /// partition cannot be applied through the injected faults.
    pub fn build(&self, env: &ScenarioEnv) -> Result<ConsolidationRuntime<FaultySim>, String> {
        self.build_armed(env, true)
    }

    /// [`Scenario::build`] with the decorator armed or not. Crash
    /// recovery builds disarmed, so construction consumes no
    /// fault-stream draws before the recorded positions are restored.
    pub(crate) fn build_armed(
        &self,
        env: &ScenarioEnv,
        armed: bool,
    ) -> Result<ConsolidationRuntime<FaultySim>, String> {
        let mut sim = SimBackend::new(Machine::new(env.machine.clone()));
        let named = admit_all(&mut sim, &self.specs(env))?;
        let plan = self.faults.clone().unwrap_or_else(FaultPlan::none);
        let mut backend = FaultyBackend::new(sim, plan);
        backend.set_armed(armed);
        let cfg = env.runtime_config(self.n_apps, self.policy);
        ConsolidationRuntime::new(backend, named, cfg)
            .map_err(|e| format!("initial partition apply failed: {e}"))
    }

    /// The one-shot run the daemon is compared against: build, profile,
    /// run exactly `epochs` periods, and return the trace as JSONL
    /// lines. Fault plans are honored, so the fault-injected daemon has
    /// a reference too.
    ///
    /// # Errors
    ///
    /// Propagates build, profiling, and epoch failures.
    pub fn reference_trace(&self, epochs: u64) -> Result<Vec<String>, String> {
        let env = self.env();
        let ring = SharedRing::new(epochs as usize + 256);
        let mut runtime = self.build(&env)?;
        runtime.set_recorder(Box::new(ring.clone()));
        profile_with_retries(&mut runtime, PROFILE_ATTEMPTS)?;
        for _ in 0..epochs {
            runtime.run_period().map_err(|e| format!("epoch: {e}"))?;
        }
        Ok(ring.all().iter().map(|e| e.to_json_line()).collect())
    }
}

/// Admits every spec into the backend, returning `(group, name)` pairs
/// in spec order.
fn admit_all(backend: &mut SimBackend, specs: &[AppSpec]) -> Result<Vec<(ClosId, String)>, String> {
    specs
        .iter()
        .map(|spec| {
            let name = spec.name.clone();
            backend
                .add_workload(spec.clone())
                .map(|group| (group, name))
                .map_err(|e| format!("mix does not fit the machine: {e}"))
        })
        .collect()
}

/// What makes one persisted run *this* run: the immutable facts a state
/// directory is checked against before a snapshot is restored over a
/// freshly built runtime. Deliberately excludes the app count and the
/// policy — both drift legitimately over a run's lifetime (admissions,
/// removals, live policy switches) and are restored *from* the snapshot
/// instead.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RunIdentity {
    /// Workload mix label (e.g. `"M-Both"`).
    pub mix: String,
    /// The explorer seed.
    pub seed: u64,
    /// The fault plan's debug rendering (empty = fault-free).
    pub faults: String,
}

/// The measured environment a scenario runs in, kept by the daemon for
/// later admissions and policy switches.
#[derive(Debug, Clone)]
pub struct ScenarioEnv {
    /// The simulated machine model.
    pub machine: MachineConfig,
    /// STREAM reference miss rates per MBA level (§5.3).
    pub stream: StreamReference,
    /// Controller parameters (seeded from the scenario).
    pub params: CoPartParams,
    /// Dedicated cores per consolidated application.
    pub cores_per_app: u32,
    /// The currently active policy.
    pub policy: PolicyKind,
    /// The run's immutable identity (crash-recovery guard).
    pub identity: RunIdentity,
}

impl ScenarioEnv {
    /// The runtime configuration for `policy` over `n_apps`
    /// applications.
    pub fn runtime_config(&self, n_apps: usize, policy: PolicyKind) -> RuntimeConfig {
        policies::dynamic_runtime_config(&self.machine, n_apps, &self.stream, policy, &self.params)
    }

    /// The calibrated spec for a Table 2 benchmark short name (`WN`,
    /// `SP`, ...), pinned to this scenario's per-app core count.
    ///
    /// # Errors
    ///
    /// Rejects unknown short names.
    pub fn spec_for(&self, short: &str) -> Result<AppSpec, String> {
        Benchmark::all()
            .into_iter()
            .find(|b| b.table2().short.eq_ignore_ascii_case(short))
            .map(|b| b.spec_with_cores(self.cores_per_app))
            .ok_or_else(|| format!("unknown benchmark {short:?} (use the Table 2 short names)"))
    }
}

/// Runs profiling, retrying whole passes up to `attempts` times.
/// Re-exported from the core node seam, where fleet nodes share the
/// exact same retry policy (byte-identical traces depend on it).
pub use copart_core::node::profile_with_retries;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_trace_is_reproducible() {
        let scenario = Scenario::new(MixKind::HighBoth, 2, PolicyKind::CoPart, 7, None).unwrap();
        let a = scenario.reference_trace(6).unwrap();
        let b = scenario.reference_trace(6).unwrap();
        assert!(!a.is_empty());
        assert_eq!(a, b, "same scenario, same bytes");

        // The decorator on a none plan is transparent: every dynamic
        // policy traces exactly as it does on a bare simulator.
        for policy in [
            PolicyKind::CatOnly,
            PolicyKind::MbaOnly,
            PolicyKind::CoPart,
            PolicyKind::LfocCluster,
        ] {
            let scenario = Scenario::new(MixKind::HighBoth, 2, policy, 7, None).unwrap();
            let env = scenario.env();
            let mut sim = SimBackend::new(Machine::new(env.machine.clone()));
            let named = admit_all(&mut sim, &scenario.specs(&env)).unwrap();
            let cfg = env.runtime_config(scenario.n_apps, policy);
            let mut bare = ConsolidationRuntime::new(sim, named, cfg).unwrap();
            let ring = SharedRing::new(256);
            bare.set_recorder(Box::new(ring.clone()));
            bare.profile().unwrap();
            for _ in 0..6 {
                bare.run_period().unwrap();
            }
            let want: Vec<String> = ring.all().iter().map(|e| e.to_json_line()).collect();
            assert_eq!(
                scenario.reference_trace(6).unwrap(),
                want,
                "{}: none plan is not transparent",
                policy.label()
            );
        }
    }

    #[test]
    fn snapshot_kind_follows_the_fault_plan() {
        let clean = Scenario::new(MixKind::HighBoth, 2, PolicyKind::CoPart, 7, None).unwrap();
        let env = clean.env();
        let mut runtime = clean.build(&env).unwrap();
        runtime.profile().unwrap();
        let mut doc = crate::PersistedRun::new(&clean, runtime, env).capture();
        assert!(
            doc.encode().to_string().contains(r#""kind":"sim""#),
            "a fault-free run persists the bare simulator"
        );

        let plan = FaultPlan::parse("seed=7,dropout=0.1").unwrap();
        let faulted =
            Scenario::new(MixKind::HighBoth, 2, PolicyKind::CoPart, 7, Some(plan)).unwrap();
        doc.meta.faults = faulted.env().identity.faults;
        let err = crate::restore_run(&faulted, &doc)
            .err()
            .expect("kind mismatch");
        assert!(err.contains("schema"), "{err}");
        assert!(err.contains("bare sim backend"), "{err}");
    }

    #[test]
    fn env_resolves_table2_short_names() {
        let scenario = Scenario::new(MixKind::HighBoth, 2, PolicyKind::CoPart, 7, None).unwrap();
        let env = scenario.env();
        let spec = env.spec_for("wn").unwrap();
        assert!(spec.name.to_lowercase().contains("water") || !spec.name.is_empty());
        assert!(env.spec_for("nope").is_err());
    }
}
