//! # crew-model
//!
//! Static workflow definitions for CREW, a reproduction of Kamath &
//! Ramamritham's work on failure handling and coordinated execution of
//! concurrent workflows (ICDE 1998 / CMPSCI TR 98-28).
//!
//! This crate holds everything a workflow *designer* produces and every
//! run-time architecture consumes:
//!
//! - strongly-typed [`ids`] for schemas, instances, steps, agents and
//!   engines;
//! - [data items and values](value) that flow between steps, and the
//!   [sorted-`Vec` tables](vecmap) every per-instance table is stored in;
//! - the [condition expression language](expr) used on arcs, in rule guards
//!   and in OCR policies;
//! - [step definitions](step) including compensation programs and OCR
//!   re-execution policies;
//! - the [schema graph](schema) with sequential, parallel (AND),
//!   if-then-else (XOR), join, loop and nested-workflow structures, plus
//!   validation and the derived sets the protocols need;
//! - [recovery annotations](recovery): compensation dependent sets and
//!   rollback specifications;
//! - [coordinated-execution requirements](coord) across workflows: mutual
//!   exclusion, relative ordering, rollback dependencies.
//!
//! The crate is dependency-free and purely descriptive: no execution logic
//! lives here.

#![warn(missing_docs)]

pub mod coord;
pub mod expr;
pub mod ids;
pub mod policy;
pub mod recovery;
pub mod schema;
pub mod step;
pub mod value;
pub mod vecmap;

pub use coord::{CoordinationSpec, MutualExclusion, RelativeOrder, RollbackDependency, SchemaStep};
pub use expr::{ArithOp, CmpOp, EvalError, Expr};
pub use ids::{AgentId, EngineId, InstanceId, SchemaId, StepId, StepRef};
pub use policy::{RetryPolicy, StepPolicy, RUN_HORIZON_TICKS};
pub use recovery::{CompensationSet, RollbackSpec};
pub use schema::{
    validate_coordination, ControlArc, JoinKind, SchemaBuilder, SchemaError, SplitKind,
    WorkflowSchema, NESTED_PROGRAM,
};
pub use step::{CompensationKind, InputBinding, ReexecPolicy, StepDef, StepKind};
pub use value::{DataEnv, ItemKey, ItemScope, Value};
pub use vecmap::{VecMap, VecSet};
