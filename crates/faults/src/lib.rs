//! Deterministic fault injection for [`copart_rdt::RdtBackend`]s.
//!
//! Real commodity servers do not fail cleanly: PMC multiplexing drops a
//! counter read now and then, a schemata write races another tenant and
//! comes back `EBUSY`, a CLOS group vanishes mid-operation when a
//! container exits, and the clock a control loop sleeps on occasionally
//! stalls. LFOC+ and CBP both observe that OS-level partitioning
//! policies must tolerate exactly this kind of monitoring noise; the
//! consolidation runtime in `copart-core` is hardened against it, and
//! this crate provides the machinery that *proves* it:
//!
//! * [`FaultPlan`] — which faults to inject, per backend operation
//!   ("site"), each driven by a [`FaultTrigger`] (never / every n-th
//!   call / probability / explicit call schedule);
//! * [`FaultyBackend`] — a decorator over any [`copart_rdt::RdtBackend`] that
//!   consults the plan on every call and injects the configured failure;
//!   [`FaultySim`] is the decorated simulator every scenario runs on;
//! * [`InjectionStats`] — ground truth of what was actually injected,
//!   so tests can assert `rollbacks == failed applies` style invariants.
//!
//! # Determinism
//!
//! Every site draws from its **own** `copart-rng` stream, seeded from
//! `(plan.seed, site index)` via SplitMix64 — never from a generator
//! shared across sites or across backends. A backend's fault sequence
//! therefore depends only on the plan and on that backend's own call
//! sequence, so sweeps that run one consolidation per task are
//! byte-reproducible at any `--jobs` setting (the same contract the
//! `copart-parallel` engine enforces for randomized tasks).
//!
//! ```
//! use copart_faults::{FaultPlan, FaultTrigger};
//!
//! // 10 % transient schemata write failures + 5 % counter dropouts.
//! let plan = FaultPlan::parse("seed=7,write=0.1,dropout=0.05").unwrap();
//! assert_eq!(plan.seed, 7);
//! assert_eq!(plan.write_cbm, FaultTrigger::Prob { p: 0.1 });
//! assert_eq!(plan.counter_dropout, FaultTrigger::Prob { p: 0.05 });
//! // The default plan injects nothing at all.
//! assert!(FaultPlan::none().is_none());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod plan;
mod scope;

pub use backend::{FaultStateSnapshot, FaultyBackend, FaultySim, InjectionStats, SiteSnapshot};
pub use plan::{FaultPlan, FaultPlanError, FaultTrigger};
pub use scope::{NodeScope, ScopedFaultPlan};
