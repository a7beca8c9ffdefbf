//! The engine abstraction: one interface over every verification algorithm.
//!
//! The workspace grew from a single CEGAR driver into a portfolio of
//! complementary algorithms — CEGAR with path-invariant refinement
//! ([`Verifier`]), bounded model checking ([`BmcEngine`](crate::BmcEngine)),
//! and property-directed reachability ([`PdrEngine`](crate::PdrEngine)).
//! [`VerificationEngine`] is the contract
//! they all satisfy, so that harnesses (the batch CLI, the differential
//! corpus checker, the benchmarks) can treat engines uniformly.
//!
//! # Soundness obligations
//!
//! Every implementation must uphold the verdict contract (DESIGN.md §8):
//!
//! * [`Verdict::Safe`] may only be returned when the engine holds a *proof*
//!   that the error location is unreachable — a safe inductive invariant
//!   (CEGAR, PDR) or an exhaustive exploration of every program path (BMC
//!   with no path truncated at the depth bound).
//! * [`Verdict::Unsafe`] may only be returned together with a concrete
//!   counterexample [`Path`](pathinv_ir::Path) whose SSA path formula is
//!   satisfiable.  Abstract or generalized traces must be re-validated
//!   against the concrete semantics before the verdict is emitted.
//! * [`Verdict::Unknown`] is the honest answer everywhere else (resource
//!   bounds, incomplete search, unsupported fragments).  Engines must *never*
//!   turn a resource limit into `Safe`/`Unsafe`, and must convert resource
//!   exhaustion errors into `Unknown` rather than failing the run
//!   (see [`CoreError::is_resource_exhaustion`](crate::CoreError)).
//! * [`Verdict::Cancelled`] may only be returned when the run's
//!   [`CancellationToken`] was set, and a cancelled run must *never* report
//!   anything else in place of the verdict it was denied — cancellation is
//!   an honest "I was told to stop", not an `Unknown` with a made-up reason.
//!
//! Under this contract two engines can disagree only by one proving and the
//! other giving up — a `Safe` verdict from one engine and an `Unsafe` verdict
//! from another on the same program is always a bug in one of them, which is
//! exactly what the differential corpus harness in `pathinv-cli` checks.
//!
//! # Cancellation
//!
//! [`VerificationEngine::verify_with_cancel`] takes a shared
//! [`CancellationToken`]; setting it asks the engine to stop *cooperatively*.
//! The contract (DESIGN.md §12):
//!
//! * **Poll granularity.**  Engines poll the token at their existing
//!   budget-check sites — one ART expansion (CEGAR), one transition
//!   unrolling (BMC), one proof obligation (PDR), one beam candidate
//!   (invariant synthesis), one solver case split (the substrate) — so a
//!   cancelled engine returns within one such step, not at the end of the
//!   phase.
//! * **Verdict honesty.**  A run that observes its token set returns
//!   [`Verdict::Cancelled`]; a run that completes *before* observing the
//!   token returns its real verdict.  Both are correct — the racing harness
//!   treats `Cancelled` exactly like "no opinion".
//! * **Statistics.**  A cancelled result still carries the deterministic
//!   counters of the work actually performed (they are a prefix of the full
//!   run's counters, useful for attributing race cost).
//! * **Default.**  [`VerificationEngine::verify`] is `verify_with_cancel`
//!   with a fresh, never-cancelled token — single-engine callers never see
//!   `Cancelled`.
//!
//! ```
//! use pathinv_core::{EngineSpec, Verdict, VerificationEngine};
//! use pathinv_ir::parse_program;
//! use pathinv_smt::CancellationToken;
//!
//! let program = parse_program(
//!     "proc bug(x: int) { x = 1; assert(x == 2); }",
//! )?;
//! let engine = EngineSpec::named("cegar", None)?.build();
//!
//! // A pre-cancelled token stops the run at its first poll: the result is
//! // the honest `Cancelled`, never a wrong (or wrongly-reasoned) verdict.
//! let token = CancellationToken::new();
//! token.cancel();
//! let result = engine.verify_with_cancel(&program, &token)?;
//! assert!(matches!(result.verdict, Verdict::Cancelled));
//!
//! // An un-cancelled token changes nothing about the verdict.
//! let token = CancellationToken::new();
//! let result = engine.verify_with_cancel(&program, &token)?;
//! assert!(result.verdict.is_unsafe());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```
//!
//! # Statistics
//!
//! Engines report their work through
//! [`VerificationResult::stats`]: the substrate counters (solver calls,
//! simplex calls, interpolants) are filled from the thread-local snapshots,
//! and the engine-specific counters
//! ([`engine_depth`](crate::VerifierStats::engine_depth),
//! [`engine_nodes`](crate::VerifierStats::engine_nodes),
//! [`engine_lemmas`](crate::VerifierStats::engine_lemmas)) describe each
//! algorithm's own exploration.  All counters must be deterministic functions
//! of the program and the engine configuration.
//!
//! # Example
//!
//! ```
//! use pathinv_core::{EngineSpec, VerificationEngine};
//! use pathinv_ir::parse_program;
//!
//! let program = parse_program(
//!     "proc bug(x: int) { x = 1; assert(x == 2); }",
//! )?;
//! // Every engine finds this straight-line bug.
//! for name in ["cegar", "bmc", "pdr"] {
//!     let engine = EngineSpec::named(name, None)?.build();
//!     let result = engine.verify(&program)?;
//!     assert!(result.verdict.is_unsafe(), "{name}: {:?}", result.verdict);
//! }
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::cegar::{Verdict, VerificationResult, Verifier};
use crate::error::CoreResult;
use pathinv_ir::Program;
use pathinv_smt::CancellationToken;

/// A verification algorithm: anything that can decide (or give up on) the
/// reachability of a program's error location.
///
/// See the [module documentation](self) for the soundness obligations every
/// implementation must uphold and the cancellation contract.
pub trait VerificationEngine {
    /// The short engine name used in reports, goldens, and CLI flags
    /// (`"cegar"`, `"bmc"`, `"pdr"`).
    fn name(&self) -> &'static str;

    /// Runs the engine on `program` with a fresh, never-cancelled token —
    /// the entry point for single-engine callers, which never see
    /// [`Verdict::Cancelled`].
    ///
    /// # Errors
    ///
    /// Propagates malformed-input and internal solver errors.  Resource
    /// exhaustion must be reported as [`Verdict::Unknown`], not as an error.
    fn verify(&self, program: &Program) -> CoreResult<VerificationResult> {
        self.verify_with_cancel(program, &CancellationToken::new())
    }

    /// Runs the engine on `program`, polling `token` at the engine's
    /// budget-check sites; see the
    /// [cancellation contract](self#cancellation).
    ///
    /// # Errors
    ///
    /// As [`VerificationEngine::verify`]; a cancellation must be reported as
    /// [`Verdict::Cancelled`], not as an error.
    fn verify_with_cancel(
        &self,
        program: &Program,
        token: &CancellationToken,
    ) -> CoreResult<VerificationResult>;
}

impl VerificationEngine for Verifier {
    fn name(&self) -> &'static str {
        "cegar"
    }

    fn verify_with_cancel(
        &self,
        program: &Program,
        token: &CancellationToken,
    ) -> CoreResult<VerificationResult> {
        Verifier::verify_with_cancel(self, program, token)
    }
}

/// Renders a verdict the way reports and the differential harness spell it:
/// `"safe"`, `"unsafe"`, `"unknown"`, or `"cancelled"`.
pub fn verdict_name(verdict: &Verdict) -> &'static str {
    match verdict {
        Verdict::Safe => "safe",
        Verdict::Unsafe { .. } => "unsafe",
        Verdict::Unknown { .. } => "unknown",
        Verdict::Cancelled => "cancelled",
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::job::EngineSpec;
    use crate::{BmcEngine, PdrEngine};
    use pathinv_ir::parse_program;

    #[test]
    fn engine_named_resolves_all_report_names() {
        for name in ["cegar", "bmc", "pdr"] {
            let spec = EngineSpec::named(name, None).expect("known engine");
            assert_eq!(spec.engine_name(), name);
            assert_eq!(spec.build().name(), name);
        }
        assert!(EngineSpec::named("portfolio", None).is_err(), "portfolio is a harness");
    }

    #[test]
    fn every_engine_settles_a_straight_line_program() {
        let safe = parse_program("proc ok(x: int) { x = 1; assert(x == 1); }").unwrap();
        let buggy = parse_program("proc bug(x: int) { x = 1; assert(x == 2); }").unwrap();
        for name in ["cegar", "bmc", "pdr"] {
            let engine = EngineSpec::named(name, None).unwrap().build();
            assert!(engine.verify(&safe).unwrap().verdict.is_safe(), "{name} on safe");
            assert!(engine.verify(&buggy).unwrap().verdict.is_unsafe(), "{name} on buggy");
        }
    }

    #[test]
    fn verdict_names_match_report_spelling() {
        assert_eq!(verdict_name(&Verdict::Safe), "safe");
        assert_eq!(verdict_name(&Verdict::Unknown { reason: "x".into() }), "unknown");
        assert_eq!(verdict_name(&Verdict::Cancelled), "cancelled");
    }

    #[test]
    fn every_engine_honors_a_pre_cancelled_token() {
        // Responsiveness at the first poll: the engine must return the
        // honest `Cancelled` — never a verdict it did not earn — and the
        // counters must reflect that no real exploration happened.
        let p = parse_program("proc bug(x: int) { x = 1; assert(x == 2); }").unwrap();
        let engines: Vec<Box<dyn VerificationEngine>> = vec![
            Box::new(Verifier::path_invariants()),
            Box::new(Verifier::path_predicates(8)),
            Box::new(BmcEngine::default()),
            Box::new(PdrEngine::default()),
        ];
        for engine in engines {
            let token = CancellationToken::new();
            token.cancel();
            let result = engine.verify_with_cancel(&p, &token).unwrap();
            assert!(
                matches!(result.verdict, Verdict::Cancelled),
                "{}: expected cancelled, got {:?}",
                engine.name(),
                result.verdict
            );
            assert_eq!(result.refinements, 0, "{}: cancelled before any work", engine.name());
        }
    }

    #[test]
    fn mid_run_cancellation_stops_every_engine() {
        // The racing scenario: another thread sets the token while the
        // engine is inside its main loop.  The engine must return — either
        // with `Cancelled` (it observed the token) or with the verdict it
        // had already earned (it finished first).  Both are honest; a hang
        // or a fabricated verdict is the bug this test guards against.
        let p = pathinv_ir::corpus::partition();
        for name in ["cegar", "bmc", "pdr"] {
            let engine = EngineSpec::named(name, None).unwrap().build();
            let full = engine.verify(&p).unwrap();
            let token = CancellationToken::new();
            let canceller = {
                let token = token.clone();
                std::thread::spawn(move || {
                    std::thread::sleep(std::time::Duration::from_millis(2));
                    token.cancel();
                })
            };
            let result = engine.verify_with_cancel(&p, &token).unwrap();
            canceller.join().unwrap();
            assert!(
                matches!(result.verdict, Verdict::Cancelled)
                    || verdict_name(&result.verdict) == verdict_name(&full.verdict),
                "{name}: a cancelled run must return `Cancelled` or the verdict it earned \
                 ({:?}), got {:?}",
                full.verdict,
                result.verdict
            );
        }
    }
}
