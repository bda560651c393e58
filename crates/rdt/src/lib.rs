//! Intel Resource Director Technology (RDT) abstraction for CoPart.
//!
//! CoPart's controller actuates two hardware mechanisms — Cache Allocation
//! Technology (CAT) way masks and Memory Bandwidth Allocation (MBA) levels
//! — and samples three per-application counters. This crate defines the
//! [`RdtBackend`] trait capturing exactly that surface, plus two
//! implementations:
//!
//! * [`SimBackend`] — drives the `copart-sim` machine; this is what the
//!   evaluation harness uses, and it advances *virtual* time, so 50-second
//!   consolidation runs finish in milliseconds;
//! * [`ResctrlBackend`] — reads and writes a Linux `resctrl` filesystem
//!   tree (`/sys/fs/resctrl` on an RDT-capable machine, or any directory
//!   with the same layout, which is how the tests exercise it). Control —
//!   group creation, schemata programming, task assignment — is fully
//!   implemented; instruction counters are provided by a pluggable
//!   [`CounterSource`], since on real hardware they come from
//!   `perf_event`/PAPI rather than resctrl itself (§3.2 of the paper).
//!
//! The controller in `copart-core` is written purely against
//! [`RdtBackend`], so porting it to real hardware is a backend swap.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod backend;
mod error;
pub mod resctrl;
mod sim_backend;

pub use backend::{RdtBackend, RdtCapabilities};
pub use error::RdtError;
pub use resctrl::{CounterSource, FileCounterSource, ResctrlBackend};
pub use sim_backend::SimBackend;

// Re-export the fundamental resource-control types so dependents don't
// need a direct `copart-sim` dependency for them.
pub use copart_sim::{CbmMask, ClosId, MaskError, MbaLevel, ResourceKind};
