//! # pathinv-invgen — invariant synthesis for path programs
//!
//! This crate implements the invariant-generation half of the Path Invariants
//! paper (§4.2): constraint-based synthesis of template invariants for the
//! combined theory of linear arithmetic and arrays, plus an abstract
//! interpretation alternative.
//!
//! * [`template`] — parametric templates: scalar rows and the universally
//!   quantified array row `∀k: p1(X) ≤ k ≤ p2(X) → a[k] ⋈ p3(X)`.
//! * [`relation`] — cut points and basic-path relations in constraint form.
//! * [`synth`] — the Farkas encoding of initiation / consecution / safety and
//!   the bilinear search that instantiates template parameters, organised as
//!   a conflict-driven best-first frontier.
//! * [`mod@presolve`] — Gaussian elimination of equalities, row
//!   dedup/subsumption, and trivial-conflict detection applied to every
//!   Farkas system before it reaches the simplex.
//! * [`stats`] — thread-local synthesis counters (systems solved, branches
//!   explored/pruned, cores learned, memo hits) for the experiment harness.
//! * [`heuristics`] — the §5 driver: propose a template, refine it on failure
//!   (equality → equality + inequality), quantified templates for array
//!   programs.
//! * [`intervals`] — interval abstract interpretation with widening, the
//!   "abstract interpretation instantiation" mentioned in the paper, used as
//!   an ablation baseline.
//! * [`invmap`] — invariant maps and an independent semantic check of
//!   initiation / inductiveness / safety using the combined solver.
//!
//! ```
//! use pathinv_invgen::PathInvariantGenerator;
//! use pathinv_ir::corpus;
//!
//! // Synthesise the FORWARD invariant (a + b = 3i ∧ ...) as in §5.
//! let program = corpus::forward();
//! let generated = PathInvariantGenerator::new().generate(&program)?;
//! assert!(!generated.cutpoint_invariants.is_empty());
//! # Ok::<(), pathinv_invgen::InvgenError>(())
//! ```

#![warn(missing_docs)]

pub mod error;
pub mod heuristics;
pub mod intervals;
pub mod invmap;
pub mod presolve;
pub mod relation;
pub mod stats;
pub mod synth;
pub mod template;

pub use error::{InvgenError, InvgenResult};
pub use heuristics::{GeneratedInvariants, PathInvariantGenerator, TemplateAttempt};
pub use intervals::{analyze as interval_analyze, Interval, IntervalAnalysis};
pub use invmap::InvariantMap;
pub use presolve::{complete_witness, presolve, presolve_tagged, PresolvedSystem};
pub use relation::{basic_paths, cutset, BasicPath};
pub use stats::{snapshot as synth_stats_snapshot, SynthCounters};
pub use synth::{synthesize, SynthStats, Synthesis};
pub use template::{ParamId, ParamLin, ParamValuation, RowOp, Template, TemplateMap};
