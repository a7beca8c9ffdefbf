//! # pathinv-check — independent certificate validation
//!
//! Every `Safe`/`Unsafe` verdict the engines emit ships a [`Certificate`];
//! this crate audits those certificates *without re-running verification*
//! and without sharing any code with the engines: it depends only on the
//! program representation (`pathinv-ir`) and the deliberately-separate
//! Fourier–Motzkin elimination path of `pathinv-smt` — not on
//! `pathinv-core`, not on the simplex/DPLL solver the engines use for their
//! own reasoning, and not on the invariant synthesizer.
//!
//! The trust argument (DESIGN.md §13): to believe a checked verdict you
//! need to trust (a) the CFG semantics in `pathinv-ir` — which both sides
//! necessarily share, since it *defines* the program being talked about —
//! (b) Fourier–Motzkin elimination over exact rationals plus integer
//! coefficient normalization, a ~200-line algorithm, and (c) this crate's
//! ~1.1k lines of glue (comments and tests excluded).  The glue includes
//! one shortcut, single-premise entailment ([`Premises`]): it answers a
//! query `P ∧ ¬c` without elimination only when one premise row and `¬c`,
//! integer-normalized, contradict each other directly, which is a
//! contradiction Fourier–Motzkin would derive from the same literals.
//! A bug anywhere in the engines' abstraction,
//! refinement, frames, interpolation, simplex, or caching layers is caught
//! by the audit; only a *matching* bug in the two independent decision
//! paths could let a wrong verdict through.
//!
//! What is checked:
//!
//! * [`Certificate::Inductive`] — initiation, per-CFG-edge consecution, and
//!   error exclusion, each discharged by Fourier–Motzkin refutation
//!   ([`invariant`]).
//! * [`Certificate::BoundedUnroll`] — the checker's own depth-first
//!   unrolling re-establishes that the certified depth exhausts the program
//!   and every error path is refutable ([`bounded`]).
//! * [`Certificate::Trace`] — the concrete counterexample replays on the
//!   `pathinv_ir::eval` interpreter into the error location ([`trace`]).
//!
//! The answer is a typed [`CertVerdict`]: `Valid`, `Invalid` with the
//! failing obligation, or `Unsupported` when a resource budget ran out —
//! never a silent pass.
//!
//! ## Example
//!
//! ```
//! use pathinv_check::{check_certificate, BoundedCert, Certificate, CheckLimits};
//! use pathinv_ir::parse_program;
//!
//! let program = parse_program(
//!     "proc ok(x: int) { assume(x > 0); assert(x >= 1); }",
//! )?;
//! // A bounded-unroll certificate for a loop-free program: depth 4
//! // exhausts it and the single error path is refutable.
//! let cert = Certificate::BoundedUnroll(BoundedCert { depth: 4 });
//! let verdict = check_certificate(&program, &cert, &CheckLimits::default());
//! assert!(verdict.is_valid());
//! # Ok::<(), pathinv_ir::IrError>(())
//! ```

#![warn(missing_docs)]

pub mod bounded;
pub mod certificate;
pub mod invariant;
pub mod refute;
pub mod trace;

pub use bounded::check_bounded;
pub use certificate::{BoundedCert, CertVerdict, Certificate, InvariantCert, TraceCert};
pub use invariant::check_inductive;
pub use refute::{CheckLimits, Premises, Refutation, Refuter};
pub use trace::{check_trace, decode_model};

use pathinv_ir::Program;

/// Validates a certificate against the program it certifies.
pub fn check_certificate(
    program: &Program,
    cert: &Certificate,
    limits: &CheckLimits,
) -> CertVerdict {
    match cert {
        Certificate::Inductive(c) => check_inductive(program, c, limits),
        Certificate::BoundedUnroll(c) => check_bounded(program, c, limits),
        Certificate::Trace(c) => check_trace(program, c),
    }
}
