//! # crew-exec
//!
//! Shared execution semantics for every CREW control architecture: step
//! programs and their registry, deterministic failure/perturbation
//! injection, per-instance execution history, the step executor, and the
//! opportunistic compensation and re-execution (OCR) decision procedure of
//! the paper's Figure 5.
//!
//! The centralized engine, the parallel engines and the distributed agents
//! all build on this crate — and embed its per-instance navigator
//! ([`InstanceNav`]), which makes every enactment decision once, its
//! [`StepExecutor`], which runs every step program under the failure plan
//! once, and its coordination managers ([`MutexQueue`], [`RoArbiter`]) and guard
//! ([`Gate`]), which make every coordination decision and wait once, and
//! whose failure-handling decisions ([`recovery`]: rollback, abort, input
//! change, branch unwind, OCR revisit) are made once as well — so
//! navigation, recovery and coordination
//! behave identically across architectures and the performance comparison
//! of §6 measures the architectures, not divergent semantics.

#![warn(missing_docs)]

pub mod coord;
pub mod deploy;
pub mod executor;
pub mod failure;
pub mod hash;
pub mod history;
pub mod nav;
pub mod ocr;
pub mod program;
pub mod recovery;
pub mod weight;

pub use coord::{
    ro_canonical, ro_side, ro_steps, Gate, MutexQueue, Obligation, Request, RoArbiter, RoLeader,
    Verdict, Wake,
};
pub use crew_model::StepState;
pub use deploy::{Deployment, RelOrderLinks, NAV_LOAD};
pub use executor::{ExecError, StepExecutor, StepOutcome};
pub use failure::FailurePlan;
pub use history::{InstanceHistory, StepRecord};
pub use nav::{
    declared_outputs, designated_agent, nested_instance_serial, voids, FailureVerdict, InstanceNav,
    DEFAULT_MAX_ROLLBACKS,
};
pub use ocr::{decide as ocr_decide, OcrDecision, INCREMENTAL_FRACTION};
pub use program::{FnProgram, Program, ProgramCtx, ProgramRegistry, StepFailure};
pub use recovery::{Abort, Refire, Revisit, Rollback, Vantage};
pub use weight::Weight;
