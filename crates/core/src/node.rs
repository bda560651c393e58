//! The node seam: one consolidated machine as a fleet-ownable unit.
//!
//! [`ConsolidationRuntime`] is deliberately CLI-shaped: callers admit
//! workloads into a backend by hand, build the runtime, and drive
//! profiling themselves. A fleet controller owning hundreds of nodes
//! needs the same lifecycle as a single operation — *launch* (admit a
//! first set of applications, apply the equal split, profile with
//! retries), *admit*/*evict* (membership churn through the backend and
//! the controller in one step), *step* (one adaptation period), and
//! *snapshot* — without re-deriving the setup choreography per call
//! site. [`NodeRuntime`] packages exactly that, and [`NodeBackend`]
//! abstracts the one capability the runtime's own [`RdtBackend`] trait
//! lacks: starting and stopping whole workloads at runtime.
//!
//! The serve daemon and `copart-fleet` both run on the simulator behind
//! the fault decorator (`copart_faults::FaultySim`, whose
//! [`NodeBackend`] impl bypasses injection); the fleet holds `N`
//! [`NodeRuntime`]s with per-node fault plans. Both paths go through the
//! same admission/eviction code, so a fleet node's trace is
//! byte-identical to a daemon's for the same membership history — the
//! invariant the migration tests pin down.

use copart_rdt::{ClosId, RdtBackend, RdtError, SimBackend};
use copart_sim::AppSpec;

use crate::runtime::{ConsolidationRuntime, PeriodRecord, RuntimeConfig, RuntimeSnapshot};

/// A backend that can start and stop whole workloads at runtime, beyond
/// the per-group RDT operations of [`RdtBackend`].
pub trait NodeBackend: RdtBackend {
    /// Starts a workload in a fresh group and returns its id.
    ///
    /// # Errors
    ///
    /// Fails when the platform cannot host another workload.
    fn admit(&mut self, spec: AppSpec) -> Result<ClosId, RdtError>;

    /// Stops a workload and releases its group.
    ///
    /// # Errors
    ///
    /// Fails on an unknown group.
    fn evict(&mut self, group: ClosId) -> Result<(), RdtError>;
}

impl NodeBackend for SimBackend {
    fn admit(&mut self, spec: AppSpec) -> Result<ClosId, RdtError> {
        self.add_workload(spec)
    }

    fn evict(&mut self, group: ClosId) -> Result<(), RdtError> {
        self.remove_workload(group)
    }
}

/// Runs profiling, retrying whole passes up to `attempts` times — under
/// fault injection a vanished group or a run of busy writes can abort a
/// pass, and callers (every serve scenario boot, fleet nodes) give it
/// several.
///
/// # Errors
///
/// Returns the last profiling error once the attempts are exhausted.
pub fn profile_with_retries<B: RdtBackend>(
    runtime: &mut ConsolidationRuntime<B>,
    attempts: u32,
) -> Result<(), String> {
    let mut last: Option<RdtError> = None;
    for _ in 0..attempts.max(1) {
        match runtime.profile() {
            Ok(()) => return Ok(()),
            Err(e) => last = Some(e),
        }
    }
    Err(format!(
        "profiling did not survive {attempts} attempts: {}",
        last.expect("at least one attempt ran")
    ))
}

/// One consolidated machine with its controller, owned as a unit: the
/// construction/stepping seam a fleet (or any other multi-node owner)
/// drives many of.
pub struct NodeRuntime<B: NodeBackend> {
    runtime: ConsolidationRuntime<B>,
    profile_attempts: u32,
}

impl<B: NodeBackend> NodeRuntime<B> {
    /// Launches a node: admits every spec into the backend (in order),
    /// builds the runtime (which applies the equal split), and profiles
    /// with up to `profile_attempts` retry passes. The attempts budget
    /// is kept for later [`NodeRuntime::admit`] re-profiling too.
    ///
    /// # Errors
    ///
    /// Fails when a workload does not fit the machine, the initial
    /// partition cannot be applied, or profiling does not survive the
    /// retry budget.
    ///
    /// # Panics
    ///
    /// Panics when `specs` is empty (a node launches with at least one
    /// application; an empty node has no runtime to own).
    pub fn launch(
        mut backend: B,
        specs: &[AppSpec],
        cfg: RuntimeConfig,
        profile_attempts: u32,
    ) -> Result<NodeRuntime<B>, String> {
        assert!(!specs.is_empty(), "a node launches with at least one app");
        let mut groups = Vec::with_capacity(specs.len());
        for spec in specs {
            let name = spec.name.clone();
            let group = backend
                .admit(spec.clone())
                .map_err(|e| format!("admission failed: {e}"))?;
            groups.push((group, name));
        }
        let runtime = ConsolidationRuntime::new(backend, groups, cfg)
            .map_err(|e| format!("initial partition apply failed: {e}"))?;
        let mut node = NodeRuntime {
            runtime,
            profile_attempts,
        };
        profile_with_retries(&mut node.runtime, profile_attempts)?;
        Ok(node)
    }

    /// Admits one more application: backend admission, then the §5.4.3
    /// launch path (equal split + whole-node re-profiling), with the
    /// node's retry budget on the profiling pass.
    ///
    /// # Errors
    ///
    /// Fails when the workload does not fit or re-profiling does not
    /// survive the retry budget; on a failed admission the workload is
    /// evicted again so the backend is left as found.
    pub fn admit(&mut self, spec: AppSpec, name: String) -> Result<ClosId, String> {
        let group = self
            .runtime
            .backend_mut()
            .admit(spec)
            .map_err(|e| format!("admission failed: {e}"))?;
        let mut result = self
            .runtime
            .add_app(group, name)
            .map_err(|e| format!("admission re-profiling failed: {e}"));
        // add_app runs a single profiling pass; under fault injection a
        // transient abort deserves the same retry allowance a launch gets.
        let mut budget = self.profile_attempts.max(1) - 1;
        while result.is_err() && budget > 0 {
            result = profile_with_retries(&mut self.runtime, 1);
            budget -= 1;
        }
        if let Err(e) = result {
            let _ = self.runtime.remove_app(group);
            let _ = self.runtime.backend_mut().evict(group);
            return Err(e);
        }
        Ok(group)
    }

    /// Evicts an application: controller removal (hand back resources,
    /// re-explore) then backend teardown. Evicting the last application
    /// leaves an empty-but-valid node; owners typically drop it.
    ///
    /// # Errors
    ///
    /// Fails on an unknown group or when the shrunken state cannot be
    /// applied.
    pub fn evict(&mut self, group: ClosId) -> Result<(), RdtError> {
        self.runtime.remove_app(group)?;
        self.runtime.backend_mut().evict(group)
    }

    /// Runs one adaptation period into a caller-held record (the
    /// allocation-free stepping path).
    ///
    /// # Errors
    ///
    /// Fails only when the platform cannot advance.
    pub fn step_into(&mut self, record: &mut PeriodRecord) -> Result<(), RdtError> {
        self.runtime.run_period_into(record)
    }

    /// Number of applications under management.
    pub fn n_apps(&self) -> usize {
        self.runtime.apps().len()
    }

    /// Whether the node manages no applications (post-eviction).
    pub fn is_empty(&self) -> bool {
        self.runtime.apps().is_empty()
    }

    /// The profiling retry budget this node was launched with.
    pub fn profile_attempts(&self) -> u32 {
        self.profile_attempts
    }

    /// Captures the controller's complete state (see
    /// [`ConsolidationRuntime::snapshot`]).
    pub fn snapshot(&self) -> RuntimeSnapshot {
        self.runtime.snapshot()
    }

    /// The underlying runtime (trace recorder, metrics, backend access).
    pub fn runtime(&self) -> &ConsolidationRuntime<B> {
        &self.runtime
    }

    /// Mutable access to the underlying runtime.
    pub fn runtime_mut(&mut self) -> &mut ConsolidationRuntime<B> {
        &mut self.runtime
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::state::WaysBudget;
    use crate::CoPartParams;
    use copart_sim::{Machine, MachineConfig};
    use copart_workloads::stream::StreamReference;
    use copart_workloads::Benchmark;

    fn node_config(machine: &MachineConfig) -> RuntimeConfig {
        RuntimeConfig {
            params: CoPartParams::default(),
            manage_llc: true,
            manage_mba: true,
            budget: WaysBudget::full_machine(machine.llc_ways),
            stream: StreamReference::compute(machine, 4),
            resilience: Default::default(),
            planner: Default::default(),
        }
    }

    #[test]
    fn launch_admit_evict_lifecycle() {
        let machine = MachineConfig::xeon_gold_6130();
        let backend = SimBackend::new(Machine::new(machine.clone()));
        let specs = [Benchmark::WaterNsquared.spec(), Benchmark::Swaptions.spec()];
        let mut node = NodeRuntime::launch(backend, &specs, node_config(&machine), 1).unwrap();
        assert_eq!(node.n_apps(), 2);
        for app in node.runtime().apps() {
            assert!(app.ips_full > 0.0, "launch must profile");
        }

        let g = node.admit(Benchmark::Ep.spec(), "ep-late".into()).unwrap();
        assert_eq!(node.n_apps(), 3);
        let mut record = PeriodRecord {
            time_ns: 0,
            phase: crate::runtime::Phase::Exploring,
            state: Default::default(),
            apps: Vec::new(),
            unfairness: 0.0,
        };
        node.step_into(&mut record).unwrap();
        assert_eq!(record.apps.len(), 3);

        node.evict(g).unwrap();
        assert_eq!(node.n_apps(), 2);
        node.step_into(&mut record).unwrap();
        assert_eq!(record.apps.len(), 2);
    }

    #[test]
    fn evicting_everyone_leaves_an_empty_node() {
        let machine = MachineConfig::xeon_gold_6130();
        let backend = SimBackend::new(Machine::new(machine.clone()));
        let specs = [Benchmark::Swaptions.spec()];
        let mut node = NodeRuntime::launch(backend, &specs, node_config(&machine), 1).unwrap();
        let g = node.runtime().apps()[0].group;
        node.evict(g).unwrap();
        assert!(node.is_empty());
    }

    #[test]
    fn node_lifecycle_trace_matches_hand_rolled_setup() {
        // The seam must be a pure refactor of the manual choreography:
        // same admissions, same profiling, same stepping ⇒ byte-identical
        // period records.
        let machine = MachineConfig::xeon_gold_6130();
        let cfg = node_config(&machine);
        let specs = [Benchmark::WaterNsquared.spec(), Benchmark::Ep.spec()];

        let backend = SimBackend::new(Machine::new(machine.clone()));
        let mut node = NodeRuntime::launch(backend, &specs, cfg.clone(), 1).unwrap();

        let mut backend = SimBackend::new(Machine::new(machine.clone()));
        let mut groups = Vec::new();
        for spec in &specs {
            let name = spec.name.clone();
            groups.push((backend.add_workload(spec.clone()).unwrap(), name));
        }
        let mut manual = ConsolidationRuntime::new(backend, groups, cfg).unwrap();
        manual.profile().unwrap();

        for _ in 0..8 {
            let a = node.runtime_mut().run_period().unwrap();
            let b = manual.run_period().unwrap();
            assert_eq!(a, b, "NodeRuntime diverged from the manual setup");
        }
    }
}
