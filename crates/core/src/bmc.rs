//! Bounded model checking by loop unrolling over the control-flow graph.
//!
//! The engine enumerates program paths depth-first up to a configurable
//! depth, building the SSA path formula *incrementally*: every transition
//! taken pushes one assumption frame onto a
//! [`SolverContext`] and checks satisfiability of the stack, so an
//! infeasible prefix prunes its whole subtree and backtracking is a single
//! [`pop`](SolverContext::pop).  The context carries a live simplex
//! tableau of the stack, one level per frame, so a step in linear
//! arithmetic is one warm re-check of the prefix's tableau, not a rebuild
//! of the path formula; a stack holding array atoms goes to the combined
//! solver unless its linear part is already infeasible.  This is the
//! classic unrolling view of BMC specialised to CFGs: a path reaching the
//! error location with a satisfiable stack *is* a concrete counterexample
//! (the stack is exactly the path formula of §2.1), and if the exploration
//! exhausts every path without truncating any at the depth bound, the
//! program has finitely many paths and the error location is unreachable —
//! a proof.
//!
//! BMC complements the CEGAR engine: it needs no abstraction and no
//! refinement, finds shallow bugs quickly, and proves programs whose loops
//! are concretely bounded; but on an unbounded loop it can only answer
//! [`Verdict::Unknown`] at its depth bound, which is why the differential
//! harness treats a bounded `Unknown` as "no opinion", never as a
//! disagreement.
//!
//! # Example
//!
//! ```
//! use pathinv_core::{BmcEngine, VerificationEngine};
//! use pathinv_ir::parse_program;
//!
//! // A concretely bounded loop: BMC both falsifies the bug and *proves*
//! // the fixed version, because every path is shorter than the bound.
//! let buggy = parse_program(
//!     "proc b(a: int[]) {
//!          var i: int;
//!          for (i = 0; i < 2; i++) { a[i] = 7; }
//!          assert(a[0] == 0);
//!      }",
//! )?;
//! let result = BmcEngine::default().verify(&buggy)?;
//! assert!(result.verdict.is_unsafe());
//! # Ok::<(), Box<dyn std::error::Error>>(())
//! ```

use crate::cegar::{Verdict, VerificationResult, VerifierStats, CEX_INTEGRALITY_NODES};
use crate::engine::VerificationEngine;
use crate::error::{CoreError, CoreResult};
use crate::predabs::PredicateMap;
use pathinv_check::{decode_model, BoundedCert, Certificate};
use pathinv_ir::ssa::{encode_action, VersionMap};
use pathinv_ir::{ssa, Formula, Loc, Path, Program, TransId};
use pathinv_smt::{stats_snapshot, CancellationToken, IntSatResult, Solver, SolverContext};

/// Configuration of the bounded model checker.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct BmcConfig {
    /// Maximum number of transitions along any explored path.  Paths cut off
    /// at this bound make the exploration incomplete, so a run that finds no
    /// counterexample but truncated at least one path reports
    /// [`Verdict::Unknown`] instead of `Safe`.
    pub max_depth: usize,
    /// Budget of feasibility checks (one per explored transition with a
    /// non-trivial constraint).  Exhausting it is resource exhaustion and
    /// yields [`Verdict::Unknown`]; it bounds the exponential worst case of
    /// programs with branching loop bodies.
    pub max_checks: u64,
}

impl Default for BmcConfig {
    fn default() -> Self {
        BmcConfig { max_depth: 26, max_checks: 1200 }
    }
}

impl BmcConfig {
    /// A configuration with the given depth bound and the default check
    /// budget.
    pub fn with_depth(max_depth: usize) -> BmcConfig {
        BmcConfig { max_depth, ..BmcConfig::default() }
    }
}

/// The bounded-model-checking engine.  See the [module docs](self).
#[derive(Clone, Copy, Debug, Default)]
pub struct BmcEngine {
    config: BmcConfig,
}

impl BmcEngine {
    /// Creates a bounded model checker with the given configuration.
    pub fn new(config: BmcConfig) -> BmcEngine {
        BmcEngine { config }
    }

    /// The engine's configuration.
    pub fn config(&self) -> &BmcConfig {
        &self.config
    }
}

/// One frame of the depth-first exploration: a location, the SSA versions in
/// effect there, and the index of the next outgoing transition to try.
struct SearchFrame {
    loc: Loc,
    versions: VersionMap,
    next_out: usize,
}

/// Why the search loop stopped.
enum SearchOutcome {
    /// Every path was explored (none truncated): the program is safe.
    Exhausted,
    /// Exploration was cut off at the depth bound on at least one path.
    Truncated,
    /// A feasible error path was found, with its decoded trace certificate.
    Counterexample(Path, Certificate),
}

impl VerificationEngine for BmcEngine {
    fn name(&self) -> &'static str {
        "bmc"
    }

    fn verify_with_cancel(
        &self,
        program: &Program,
        token: &CancellationToken,
    ) -> CoreResult<VerificationResult> {
        let _ambient = token.install();
        let smt_start = stats_snapshot();
        let mut search = Search::new(program, self.config);
        let (verdict, certificate) = match search.run(token) {
            Ok(SearchOutcome::Counterexample(path, cert)) => (Verdict::Unsafe { path }, Some(cert)),
            // An exhausted exploration is certified by its depth bound: the
            // checker re-unrolls to that depth and re-refutes every error
            // path and every truncation point.
            Ok(SearchOutcome::Exhausted) => (
                Verdict::Safe,
                Some(Certificate::BoundedUnroll(BoundedCert { depth: self.config.max_depth })),
            ),
            Ok(SearchOutcome::Truncated) => (
                Verdict::Unknown {
                    reason: format!(
                        "bounded exploration to depth {} found no counterexample but truncated \
                         at least one path",
                        self.config.max_depth
                    ),
                },
                None,
            ),
            Err(e) => {
                if e.is_cancellation() {
                    (Verdict::Cancelled, None)
                } else if e.is_resource_exhaustion() {
                    (Verdict::Unknown { reason: e.to_string() }, None)
                } else {
                    return Err(e);
                }
            }
        };
        let delta = stats_snapshot().since(&smt_start);
        let ctx_stats = search.ctx.stats();
        let stats = VerifierStats {
            solver_calls: delta.sat_checks,
            simplex_calls: delta.simplex_calls,
            simplex_warm_checks: delta.simplex_warm_checks,
            interpolant_calls: delta.interpolant_calls,
            smt_queries: ctx_stats.queries,
            query_cache_hits: ctx_stats.cache_hits,
            engine_depth: search.deepest as u64,
            engine_nodes: search.expansions,
            ..VerifierStats::default()
        };
        Ok(VerificationResult {
            verdict,
            refinements: 0,
            predicates: 0,
            art_nodes: 0,
            predicate_map: PredicateMap::new(),
            certificate,
            stats,
        })
    }
}

/// The depth-first search state.  Splitting it out of the trait method keeps
/// the counters accessible after an early `?` return.
struct Search<'p> {
    program: &'p Program,
    config: BmcConfig,
    /// The incremental context holding the SSA constraints of the current
    /// path prefix, one assumption frame per transition; its live tableau
    /// follows the frames, so a feasibility check re-checks warm instead of
    /// rebuilding the path formula.  BMC stacks are never revisited, so the
    /// keyed cache would only burn memory — the uncached context is used on
    /// purpose.
    ctx: SolverContext,
    /// Transition ids of the current path prefix (parallel to the non-root
    /// search frames).
    steps: Vec<TransId>,
    deepest: usize,
    expansions: u64,
    checks: u64,
    truncated: bool,
}

impl<'p> Search<'p> {
    fn new(program: &'p Program, config: BmcConfig) -> Search<'p> {
        Search {
            program,
            config,
            ctx: SolverContext::uncached(),
            steps: Vec::new(),
            deepest: 0,
            expansions: 0,
            checks: 0,
            truncated: false,
        }
    }

    fn run(&mut self, token: &CancellationToken) -> CoreResult<SearchOutcome> {
        let program = self.program;
        // Syntactically unreachable error locations need no search at all.
        if !program.reachable_locs().contains(&program.error()) {
            return Ok(SearchOutcome::Exhausted);
        }
        if program.entry() == program.error() {
            // Degenerate: every initial state is an error state, but a
            // counterexample `Path` needs at least one transition.
            return Err(CoreError::Limit {
                message: "the entry location is the error location".to_string(),
            });
        }
        let mut initial_versions = VersionMap::new();
        for d in program.vars() {
            initial_versions.insert(d.sym, 0);
        }
        let mut frames =
            vec![SearchFrame { loc: program.entry(), versions: initial_versions, next_out: 0 }];
        while let Some((loc, next_out)) = frames.last().map(|f| (f.loc, f.next_out)) {
            // Same granularity as the check-budget accounting below: one
            // poll per transition unrolling.
            token.check().map_err(CoreError::from)?;
            // A frame at the depth bound with outgoing transitions cannot be
            // expanded: the exploration is no longer exhaustive.
            if self.steps.len() >= self.config.max_depth && !program.outgoing(loc).is_empty() {
                self.truncated = true;
                Self::backtrack(&mut frames, &mut self.steps, &mut self.ctx);
                continue;
            }
            let Some(&tid) = program.outgoing(loc).get(next_out) else {
                Self::backtrack(&mut frames, &mut self.steps, &mut self.ctx);
                continue;
            };
            let top = frames.last_mut().expect("frame checked above");
            top.next_out += 1;
            let t = program.transition(tid);
            let mut versions = top.versions.clone();
            let constraint = encode_action(&t.action, &mut versions);
            self.expansions += 1;
            self.ctx.push();
            let trivial = matches!(constraint, Formula::True);
            self.ctx.assume(constraint);
            // A trivial constraint leaves the stack equisatisfiable, and the
            // search only ever stands on satisfiable prefixes — skip the
            // solver for those steps.
            let feasible = if trivial {
                true
            } else {
                self.checks += 1;
                if self.checks > self.config.max_checks {
                    return Err(CoreError::Limit {
                        message: format!(
                            "bounded model checking exceeded {} feasibility checks",
                            self.config.max_checks
                        ),
                    });
                }
                self.ctx.is_sat().map_err(CoreError::from)?
            };
            if !feasible {
                self.ctx.pop();
                continue;
            }
            if t.to == program.error() {
                let mut steps = self.steps.clone();
                steps.push(tid);
                self.deepest = self.deepest.max(steps.len());
                let path = Path::new(program, steps).map_err(CoreError::from)?;
                // The stack is only rationally satisfiable — a relaxation
                // for this integer-valued language.  Certify the path over
                // the integers before reporting it; an integrally
                // infeasible error edge is pruned like any other infeasible
                // step, and an undecided one degrades the exploration to
                // inexhaustive (unknown, never a wrong verdict).
                let pf = ssa::path_formula(program, &path);
                match Solver::new()
                    .check_integral(&pf.conjunction(), CEX_INTEGRALITY_NODES)
                    .map_err(CoreError::from)?
                {
                    IntSatResult::Sat(model) => {
                        // Decode through the shared decoder — the same SSA
                        // conventions as every other engine's trace.
                        let cert = Certificate::Trace(decode_model(program, &path, &pf, &model));
                        return Ok(SearchOutcome::Counterexample(path, cert));
                    }
                    IntSatResult::Unsat => {
                        self.ctx.pop();
                        continue;
                    }
                    IntSatResult::Unknown => {
                        self.truncated = true;
                        self.ctx.pop();
                        continue;
                    }
                }
            }
            self.steps.push(tid);
            self.deepest = self.deepest.max(self.steps.len());
            frames.push(SearchFrame { loc: t.to, versions, next_out: 0 });
        }
        Ok(if self.truncated { SearchOutcome::Truncated } else { SearchOutcome::Exhausted })
    }

    /// Pops the deepest search frame and, for non-root frames, the matching
    /// context frame and path step.
    fn backtrack(frames: &mut Vec<SearchFrame>, steps: &mut Vec<TransId>, ctx: &mut SolverContext) {
        frames.pop();
        if !frames.is_empty() {
            ctx.pop();
            steps.pop();
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathinv_ir::{corpus, parse_program};

    #[test]
    fn straight_line_verdicts_are_definitive() {
        let safe = parse_program("proc ok(x: int) { x = 1; assert(x == 1); }").unwrap();
        let result = BmcEngine::default().verify(&safe).unwrap();
        assert!(result.verdict.is_safe(), "{:?}", result.verdict);
        let buggy = parse_program("proc bug(x: int) { x = 1; assert(x == 2); }").unwrap();
        let result = BmcEngine::default().verify(&buggy).unwrap();
        assert!(result.verdict.is_unsafe(), "{:?}", result.verdict);
    }

    #[test]
    fn bounded_loop_bug_yields_a_concrete_counterexample() {
        let p = parse_program(
            "proc b(a: int[]) {
                var i: int;
                for (i = 0; i < 2; i++) { a[i] = 7; }
                assert(a[0] == 0);
            }",
        )
        .unwrap();
        let result = BmcEngine::default().verify(&p).unwrap();
        let Verdict::Unsafe { path } = &result.verdict else {
            panic!("expected a counterexample: {:?}", result.verdict);
        };
        assert!(path.is_error_path(&p));
        assert!(result.stats.engine_nodes > 0);
    }

    #[test]
    fn concretely_bounded_safe_loop_is_proved() {
        let p = parse_program(
            "proc ok(a: int[]) {
                var i: int;
                for (i = 0; i < 2; i++) { a[i] = 7; }
                assert(a[0] == 7);
            }",
        )
        .unwrap();
        let result = BmcEngine::default().verify(&p).unwrap();
        assert!(result.verdict.is_safe(), "{:?}", result.verdict);
    }

    #[test]
    fn unbounded_safe_loop_is_unknown_at_the_bound() {
        let p = corpus::forward();
        let result = BmcEngine::new(BmcConfig { max_depth: 8, max_checks: 400 }).verify(&p);
        let result = result.unwrap();
        match &result.verdict {
            Verdict::Unknown { reason } => {
                assert!(
                    reason.contains("depth") || reason.contains("checks"),
                    "unexpected reason: {reason}"
                );
            }
            other => panic!("FORWARD must not be settled by bounded unrolling: {other:?}"),
        }
        assert!(result.stats.engine_depth > 0);
    }

    #[test]
    fn check_budget_exhaustion_is_unknown_not_an_error() {
        let p = corpus::forward();
        let result = BmcEngine::new(BmcConfig { max_depth: 26, max_checks: 5 }).verify(&p).unwrap();
        match &result.verdict {
            Verdict::Unknown { reason } => assert!(reason.contains("feasibility checks")),
            other => panic!("a tiny budget must give up: {other:?}"),
        }
    }

    #[test]
    fn figure4_bug_is_found() {
        let p = corpus::figure4_program();
        let result = BmcEngine::default().verify(&p).unwrap();
        assert!(result.verdict.is_unsafe(), "{:?}", result.verdict);
    }

    /// Ratchet on cold simplex builds.  The array programs' unrolled
    /// read-over-write chains once cold-solved every leaf of their
    /// case-split trees; the arithmetic programs once cold-solved every
    /// feasibility check of the unrolling, before the context's live
    /// tableau decided them warm.  Each stays `unknown` for its reason and
    /// within its ceiling; the array programs end at the depth bound
    /// instead of on the solver's case-split budget.
    #[test]
    fn unrollings_stay_within_their_cold_build_ceilings() {
        let suite = |name: &str| {
            corpus::suite_programs()
                .into_iter()
                .find(|(entry, _)| entry.name == name)
                .unwrap_or_else(|| panic!("suite program {name}"))
                .1
        };
        let truncated = "truncated";
        let cases = [
            ("INITCHECK", corpus::initcheck(), 748, truncated),
            ("PARTITION", corpus::partition(), 1_278, truncated),
            ("suite/init_check", suite("init_check"), 710, truncated),
            ("suite/init_const", suite("init_const"), 709, truncated),
            ("FORWARD", corpus::forward(), 133, "feasibility checks"),
            ("suite/forward", suite("forward"), 25, truncated),
        ];
        for (name, program, max_cold, expected) in cases {
            let result = BmcEngine::default().verify(&program).unwrap();
            let Verdict::Unknown { reason } = &result.verdict else {
                panic!("{name}: expected unknown, got {:?}", result.verdict);
            };
            assert!(reason.contains(expected), "{name}: {reason}");
            assert!(
                result.stats.simplex_calls <= max_cold,
                "{name}: {} cold simplex builds, ceiling {max_cold}",
                result.stats.simplex_calls
            );
        }
    }

    #[test]
    fn syntactically_unreachable_error_is_safe_without_search() {
        let p = parse_program("proc ok(x: int) { x = 1; }").unwrap();
        let result = BmcEngine::default().verify(&p).unwrap();
        assert!(result.verdict.is_safe());
        assert_eq!(result.stats.engine_nodes, 0);
    }
}
