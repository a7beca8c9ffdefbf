//! # path-invariants — reproduction of "Path Invariants" (PLDI 2007)
//!
//! This crate is the user-facing facade of the workspace: it re-exports the
//! program representation (`pathinv-ir`), the decision procedures
//! (`pathinv-smt`), the invariant synthesis (`pathinv-invgen`), and the CEGAR
//! engine with path-invariant refinement (`pathinv-core`).  Every conclusive
//! verdict carries a [`Certificate`] that the independent `pathinv-check`
//! crate can audit without trusting the engines (DESIGN.md §13).
//!
//! ```
//! use path_invariants::{parse_program, Verifier};
//!
//! let program = parse_program(
//!     "proc lockstep(n: int) {
//!          var i: int; var a: int; var b: int;
//!          assume(n >= 0);
//!          i = 0; a = 0; b = 0;
//!          while (i < n) { a = a + 1; b = b + 1; i = i + 1; }
//!          assert(a == b);
//!      }",
//! )?;
//! let result = Verifier::path_invariants().verify(&program)?;
//! assert!(result.verdict.is_safe());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub use pathinv_core::{
    path_program, BmcConfig, BmcEngine, CegarConfig, CertVerdict, Certificate, CoreError,
    CoreResult, EngineSpec, PathInvariantRefiner, PathPredicateRefiner, PathProgram, PdrConfig,
    PdrEngine, PredicateMap, Refiner, RefinerKind, Verdict, VerificationEngine, VerificationResult,
    Verifier,
};
pub use pathinv_invgen::{
    interval_analyze, GeneratedInvariants, InvariantMap, InvgenError, PathInvariantGenerator,
    TemplateMap,
};
pub use pathinv_ir::{
    corpus, parse_program, Action, Formula, IrError, Loc, Path, Program, ProgramBuilder, RelOp,
    Symbol, Term, VarDecl,
};
pub use pathinv_smt::{SatResult, SmtError, Solver};
