//! # pathinv-smt — decision-procedure substrate
//!
//! This crate implements, from scratch, every solver the Path Invariants
//! algorithms need:
//!
//! * exact rational arithmetic ([`Rat`], [`DeltaRat`]),
//! * linear expressions and constraints ([`LinExpr`], [`LinConstraint`]),
//! * a general simplex for linear rational arithmetic with Farkas
//!   infeasibility certificates ([`simplex`]),
//! * Fourier–Motzkin elimination ([`fourier_motzkin`]),
//! * congruence closure for uninterpreted functions ([`congruence`]),
//! * a combined quantifier-free solver for linear arithmetic + arrays +
//!   uninterpreted functions ([`solver`]), used for counterexample
//!   feasibility checks and predicate-abstraction entailment queries,
//! * Craig interpolation for linear rational arithmetic ([`interpolate`]),
//!   used by the baseline (BLAST-style) refiner,
//! * an incremental solving layer ([`context`]): a [`SolverContext`] with a
//!   scoped assumption stack (push/pop), a live simplex tableau of that
//!   stack on which linear queries are decided warm, and a keyed cache of
//!   boolean query results, which every engine reuses across its
//!   abstract-post, feasibility, and unrolling queries,
//! * thread-local call counters ([`stats`]) so harnesses can report solver
//!   work per verification task,
//! * cooperative cancellation ([`cancel`]): a [`CancellationToken`] the
//!   racing portfolio sets and the solvers' budget-poll sites observe, so a
//!   losing engine stops within one poll interval of the winner's verdict,
//! * wall-clock deadlines ([`deadline`]): a process-wide watchdog thread
//!   that cancels a registered token once its deadline passes, which is how
//!   the verification service and the `--timeout-ms` harness modes turn
//!   overdue jobs into honest `cancelled` verdicts.
//!
//! The paper's implementation delegated this layer to SICStus CLP(Q); see
//! DESIGN.md §4 for the substitution argument.
//!
//! ## Quick example
//!
//! ```
//! use pathinv_ir::{Formula, Term};
//! use pathinv_smt::Solver;
//!
//! let solver = Solver::new();
//! let x = Term::var("x");
//! let f = Formula::and(vec![
//!     Formula::gt(x.clone(), Term::int(0)),
//!     Formula::lt(x, Term::int(1)),
//! ]);
//! // No integer lies strictly between 0 and 1.
//! assert!(!solver.is_sat(&f)?);
//! # Ok::<(), pathinv_smt::SmtError>(())
//! ```

#![warn(missing_docs)]

pub mod cancel;
pub mod congruence;
pub mod context;
pub mod deadline;
pub mod error;
pub mod fourier_motzkin;
pub mod interpolate;
pub mod linexpr;
pub mod rat;
pub mod simplex;
pub mod solver;
pub mod stats;

pub use cancel::{check_ambient, AmbientGuard, CancellationToken};
pub use congruence::CongruenceClosure;
pub use context::{ContextStats, SolverContext};
pub use deadline::{enforce_deadline, DeadlineGuard};
pub use error::{SmtError, SmtResult};
pub use interpolate::{interpolant_from_certificate, sequence_interpolants, SequenceInterpolator};
pub use linexpr::{ConstrOp, LinConstraint, LinExpr};
pub use rat::{checked_lcm, gcd, DeltaRat, Rat};
pub use simplex::{solve as lra_solve, FarkasCertificate, IncrementalSimplex, LpResult};
pub use solver::{IntSatResult, Model, SatResult, Solver};
pub use stats::{snapshot as stats_snapshot, SmtStats};
