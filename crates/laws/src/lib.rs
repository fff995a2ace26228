//! # crew-laws
//!
//! The LAWS workflow specification language. The paper's enactment
//! pipeline starts from LAWS: "a workflow specification language ...
//! \[that\] allows the specification of failure handling and coordinated
//! execution requirements. Requirements expressed in LAWS are converted
//! into rules" (§1, §3). The original grammar is unpublished, so this
//! crate defines a small declarative DSL covering everything the paper
//! attributes to LAWS and compiles it to `crew-model` schemas +
//! coordination specs (which then compile to rules via `crew-rules`).
//!
//! ## Example
//!
//! ```
//! let spec = crew_laws::parse_and_compile(r#"
//!     workflow Greeter (id 1) {
//!         inputs 1;
//!         step Hello { program "passthrough"; reads WF.I1; }
//!         step World { program "sum"; reads Hello.O1; }
//!         flow Hello -> World;
//!     }
//! "#).unwrap();
//! assert_eq!(spec.schemas.len(), 1);
//! assert_eq!(spec.schemas[0].step_count(), 2);
//! ```
//!
//! ## Surface
//!
//! - `workflow Name (id N) { ... }` — steps, control flow
//!   (`flow`/`parallel`/`choice`/`loop`), `compensation set { ... }`,
//!   `on failure of S rollback to T [retry N]`.
//! - `step Name { program "p"; compensate "u" [partial]; kind query;
//!   reads WF.I1, Other.O2; outputs N; cost N; agents 0, 1;
//!   reexecute always|never|when inputs_changed|when <expr>; }` or
//!   `calls workflow Child;` for nested workflows. Steps may carry a
//!   failure-policy block, `policy { retry(N); }`: `retry(N)`
//!   re-dispatches a failed step in place up to `N` times before the
//!   rollback protocol takes over. Nothing else parses there — a policy
//!   keyword without a run-time behind it is a [`ParseError`] naming the
//!   keyword.
//! - `coordination { mutex "res" { WF.Step, ... }; order "conflict"
//!   (A.X before B.Y), ...; rollback A.X forces B to Y; }`.

#![warn(missing_docs)]

pub mod ast;
pub mod compile;
pub mod parser;
pub mod token;

pub use compile::{compile, CompileError, CompiledSpec};
pub use parser::{parse, ParseError};

/// One-step convenience: parse then compile.
pub fn parse_and_compile(source: &str) -> Result<CompiledSpec, LawsError> {
    let spec = parse(source).map_err(LawsError::Parse)?;
    compile(&spec).map_err(LawsError::Compile)
}

/// [`parse_and_compile`] plus the `crew-lint` analyzer: fails with
/// [`LawsError::Lint`] when the spec carries Error-level findings
/// (compensation unsoundness, coordination deadlock, loops that never
/// exit, XOR splits that stall). Warn-level diagnostics are kept on the
/// returned spec's lint report but do not fail compilation.
pub fn parse_and_compile_strict(source: &str) -> Result<CompiledSpec, LawsError> {
    let spec = parse_and_compile(source)?;
    let diags = spec.lint();
    if crew_lint::is_clean(&diags) {
        Ok(spec)
    } else {
        Err(LawsError::Lint(diags))
    }
}

/// Either phase's error.
#[derive(Debug, Clone, PartialEq)]
pub enum LawsError {
    /// Lexing/parsing failed.
    Parse(ParseError),
    /// Name resolution / structural validation failed.
    Compile(CompileError),
    /// Strict mode: the spec compiled but the analyzer found Error-level
    /// problems. All diagnostics (including Warns) are carried along.
    Lint(Vec<crew_lint::Diagnostic>),
}

impl std::fmt::Display for LawsError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LawsError::Parse(e) => write!(f, "{e}"),
            LawsError::Compile(e) => write!(f, "{e}"),
            LawsError::Lint(diags) => {
                let n = crew_lint::errors(diags).count();
                write!(f, "spec failed lint with {n} error(s):")?;
                for d in diags {
                    write!(f, "\n  {d}")?;
                }
                Ok(())
            }
        }
    }
}

impl std::error::Error for LawsError {}
