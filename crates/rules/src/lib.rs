//! # crew-rules
//!
//! The rule-based enactment core of CREW: events, event-condition-action
//! rules, per-instance rule sets with the dynamic primitives `AddRule()` and
//! `AddEvent()` (paper §3, Figure 4; `AddPrecondition()` is realized once,
//! when `crew_exec::Gate::wire` installs an instance's coordination
//! guards), and the compiler that turns a
//! validated workflow schema into its navigation rule template (§4.2).
//!
//! The rule engine is deliberately host-agnostic: it knows nothing about
//! agents, engines or messages. Hosts post events, call
//! [`RuleSet::fire_ready`] and start the step each returned [`Action`]
//! names; a sweep checks only the rules that what was posted since can
//! have made ready ([`ruleset`] says which, and why that fires the same
//! rules as checking all of them). The centralized engine holds one
//! complete `RuleSet` per instance;
//! a distributed agent holds, per instance, the slice of the template for
//! the steps it is responsible for.

#![warn(missing_docs)]

pub mod compile;
pub mod event;
pub mod rule;
pub mod ruleset;

pub use compile::{compile_schema, TemplateRule};
pub use event::{EventKind, EventState};
pub use rule::{Action, Rule};
pub use ruleset::{Firing, RuleSet};
