//! Multi-node fleet layer for the CoPart reproduction.
//!
//! The paper's controller manages one 16-core server. This crate
//! consolidates *fleets*: `N` per-node [`copart_core::NodeRuntime`]s
//! over `N` simulated machines, coordinated by one deterministic
//! controller (ROADMAP north-star item 1):
//!
//! * [`placement`] — the admission engine: bin-packing by predicted
//!   §3.3 sensitivity class plus node occupancy, with a pure decision
//!   kernel the `fleet-placement-deterministic` oracle replays;
//! * [`controller`] — the epoch loop: serial decisions (departures,
//!   rebalancing, placement) then a parallel node phase over the
//!   `copart-parallel` pool, byte-identical at any `--jobs` setting;
//! * [`migration`] — the rebalancer's wire format: one tenant's
//!   controller state, bit-exact through the PR-8 snapshot codec;
//! * [`trace`] — the JSONL fleet trace and the structural checker
//!   behind `copart trace-check --fleet`.
//!
//! Fleet-wide metric aggregation lives in
//! [`copart_telemetry::FleetAggregator`]; the zipf-skewed tenant churn
//! tape in [`copart_workloads::fleet`].

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod controller;
pub mod migration;
pub mod placement;
pub mod trace;

pub use controller::{run_fleet, FleetConfig, FleetOutcome, RebalanceConfig};
pub use migration::MigrationTicket;
pub use placement::{placement_log, Demand, Occupancy, PlacementEngine};
pub use trace::{check_fleet_trace, FleetEvent, FleetTraceStats};
