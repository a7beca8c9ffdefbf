//! # pathinv-core — the Path Invariants algorithm
//!
//! This crate contains the paper's primary contribution:
//!
//! * [`pathprog`] — construction of *path programs* from spurious
//!   counterexample paths (§3): the smallest syntactic sub-program containing
//!   the path, with hatted loop copies so that all loop unwindings are
//!   represented.
//! * [`predabs`] — cartesian predicate abstraction with location-local
//!   predicates, the abstraction the CEGAR loop refines (§4.1).
//! * [`refine`] — the two refiners: the BLAST-style finite-path baseline and
//!   the path-invariant refiner that synthesises invariants for the path
//!   program and tracks their atoms.
//! * [`cegar`] — the CEGAR driver (abstract reachability tree,
//!   counterexample feasibility, refinement) with a pluggable refiner.
//!
//! Around the paper's algorithm the crate grew an engine portfolio behind
//! one interface:
//!
//! * [`engine`] — the [`VerificationEngine`] trait every algorithm
//!   implements, with its soundness contract (DESIGN.md §8).
//! * [`bmc`] — a bounded model checker: depth-first loop unrolling over the
//!   SSA-encoded CFG with incremental solver push/pop.
//! * [`pdr`] — PDR-lite: property-directed reachability over frames of
//!   predicate clauses, generalized by literal dropping and Farkas
//!   interpolants.
//! * [`job`] — the fault-isolated job abstraction every harness shares:
//!   panic containment, wall-clock deadlines, fault-injection engine shims,
//!   the one engine vocabulary ([`EngineSpec::named`]), the one
//!   certificate audit ([`audit`]), and the stable job fingerprint keying
//!   the persistent verdict cache.
//!
//! ## Quick start
//!
//! ```
//! use pathinv_core::Verifier;
//! use pathinv_ir::parse_program;
//!
//! let program = parse_program(
//!     "proc double(n: int) {
//!          var i: int; var j: int;
//!          assume(n >= 0);
//!          i = 0; j = 0;
//!          while (i < n) { j = j + 2; i = i + 1; }
//!          assert(j == 2 * n);
//!      }",
//! )?;
//! let result = Verifier::path_invariants().verify(&program)?;
//! assert!(result.verdict.is_safe());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

#![warn(missing_docs)]

pub mod bmc;
pub mod cegar;
pub mod engine;
pub mod error;
pub mod job;
pub mod pathprog;
pub mod pdr;
pub mod predabs;
pub mod refine;

pub use bmc::{BmcConfig, BmcEngine};
pub use cegar::{CegarConfig, RefinerKind, Verdict, VerificationResult, Verifier, VerifierStats};
pub use engine::{verdict_name, VerificationEngine};
pub use error::{CoreError, CoreResult};
pub use job::{
    audit, is_conclusive, job_fingerprint, program_structure_id, refiner_name, run_job, Audit,
    EngineSpec, JobOutcome, JobSpec, DEFAULT_BASELINE_REFINEMENTS, NO_REFINER,
};
pub use pathprog::{path_program, PathProgram};
pub use pdr::{PdrConfig, PdrEngine};
pub use predabs::{AbstractPost, AbstractState, PostStats, PredicateMap};
pub use refine::{NewPredicates, PathInvariantRefiner, PathPredicateRefiner, Refiner};

// Part of the `VerificationEngine::verify_with_cancel` signature, re-exported
// so harnesses need not depend on `pathinv-smt` just to build a token.
pub use pathinv_smt::CancellationToken;
// Certificate types appear in `VerificationResult`; re-exported so engine
// consumers need not name the checker crate just to inspect a result.
pub use pathinv_check::{CertVerdict, Certificate};
