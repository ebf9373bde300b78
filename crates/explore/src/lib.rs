//! Crash-safe design-space exploration for the tecopt cooling optimizer.
//!
//! The co-design sweep the paper's argument ultimately calls for varies
//! the device itself — superlattice film thickness, die-attach contact
//! quality, device count and placement — and asks, for every design, what
//! the optimal shared supply current buys on the peak-temperature /
//! TEC-power plane. At that scale the hard problems are robustness
//! problems, and this crate is organized around them:
//!
//! - [`space`] — the [`DesignSpace`] grid with deterministic FNV-derived
//!   candidate ids, stable across processes and crash/resume cycles;
//! - [`ledger`] — the durable append-only work [`Ledger`]: atomic header,
//!   torn-tail-tolerant records, lease/complete trail; a kill at any
//!   instant loses at most the in-flight attempt and duplicates nothing;
//! - [`quarantine`] — typed blacklisting of pathological candidates
//!   (panic, non-finite result, envelope trip) under a retry budget, so
//!   one poisoned design never aborts a sweep;
//! - [`pareto`] — the NaN-refusing, order- and partition-invariant Pareto
//!   front: bit-identical regardless of worker count or completion order;
//! - [`engine`] — the [`Explorer`] tying them together under a
//!   [`tecopt::RunContext`] (cancellation, deadlines, probe budgets,
//!   checkpoint path = ledger path).
//!
//! ```no_run
//! use tecopt::{CoolingSystem, RunContext};
//! use tecopt_explore::{DesignSpace, Explorer, ExploreSettings, Placement};
//! use tecopt_units::Celsius;
//!
//! # fn demo(system: &CoolingSystem) -> Result<(), tecopt::OptError> {
//! let space = DesignSpace::new(
//!     vec![0.5, 1.0, 2.0],          // film thickness scales
//!     vec![0.5, 1.0],               // contact conductance scales
//!     vec![Placement::Greedy],      // let GreedyDeploy place devices
//!     Celsius(85.0),
//! )?;
//! let explorer = Explorer::new(system, space, ExploreSettings::default());
//! let ctx = RunContext::unbounded().checkpoint("sweep.ledger");
//! let report = explorer.explore(&ctx)?; // kill and rerun freely
//! for p in &report.front {
//!     println!("{:016x}: {:.2} °C at {:.3} W", p.id(), p.peak().value(), p.tec_power().value());
//! }
//! # Ok(())
//! # }
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]
#![warn(clippy::unwrap_used)]
#![warn(clippy::expect_used)]

pub mod engine;
pub mod ledger;
pub mod pareto;
pub mod quarantine;
pub mod space;

pub use engine::{CandidateEval, CandidateFailure, ExploreReport, ExploreSettings, Explorer};
pub use ledger::{EvalRecord, Ledger, LedgerState, LEDGER_KIND};
pub use pareto::{merge_fronts, pareto_front, ParetoPoint};
pub use quarantine::{retryable, PartialPrefix, QuarantineReason, QuarantineRecord};
pub use space::{candidate_id, Candidate, DesignSpace, Placement};
