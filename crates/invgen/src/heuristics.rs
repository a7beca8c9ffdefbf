//! Template-proposal heuristics and the refinement loop of §5.
//!
//! The paper chooses templates "following a simple heuristic that obtains a
//! template by replacing the coefficients of the target assertion by
//! parameters", and refines a failed template "by conjoining an inequality".
//! This module reproduces that driver:
//!
//! * programs whose error guards read an array get a quantified array row at
//!   every cut point (the tractable form of §4.2), with the relation taken
//!   from the violated assertion;
//! * purely scalar programs first get a single parametric *equality* row; if
//!   synthesis fails, an inequality row is conjoined and synthesis is rerun
//!   (this is exactly the FORWARD experiment: the equality template fails,
//!   the refined template succeeds).

use crate::error::{InvgenError, InvgenResult};
use crate::relation::{basic_paths, cutset};
use crate::synth::{synthesize, SynthStats};
use crate::template::{RowOp, TemplateMap};
use pathinv_ir::{Formula, Loc, Program, RelOp, Symbol, Term};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// Record of one template attempt (used by the experiment harness to
/// reproduce the "40 ms failure, 130 ms success" measurement of §5).
#[derive(Clone, Debug)]
pub struct TemplateAttempt {
    /// Human-readable description of the template shape.
    pub description: String,
    /// Whether synthesis succeeded.
    pub succeeded: bool,
    /// Wall-clock time spent on this attempt.
    pub duration: Duration,
    /// Search statistics of the attempt.
    pub stats: Option<SynthStats>,
}

/// The result of running the heuristic generator on a (path) program.
#[derive(Clone, Debug)]
pub struct GeneratedInvariants {
    /// The invariant found at each cut point.
    pub cutpoint_invariants: BTreeMap<Loc, Formula>,
    /// The sequence of template attempts (failed attempts first).
    pub attempts: Vec<TemplateAttempt>,
}

/// Heuristic path-invariant generator: proposes templates, calls the
/// constraint-based synthesiser, and refines the template on failure.
#[derive(Clone, Debug, Default)]
pub struct PathInvariantGenerator;

impl PathInvariantGenerator {
    /// Creates a generator with the default search configuration.
    pub fn new() -> PathInvariantGenerator {
        PathInvariantGenerator
    }

    /// Generates invariants at the cut points of `program`.
    ///
    /// # Errors
    ///
    /// Returns [`InvgenError::NoInvariant`] if every proposed template fails;
    /// the attempts performed so far are described in the error message.
    pub fn generate(&self, program: &Program) -> InvgenResult<GeneratedInvariants> {
        let cuts = cutset(program);
        if cuts.is_empty() {
            // Loop-free program: there is nothing to synthesise; the CEGAR
            // engine falls back to plain path refutation.
            return Ok(GeneratedInvariants {
                cutpoint_invariants: BTreeMap::new(),
                attempts: Vec::new(),
            });
        }
        let scalars: Vec<Symbol> = program.int_vars();
        let array_goal = error_array_goal(program)?;
        let mut attempts = Vec::new();

        let proposals: Vec<(String, TemplateMap)> = match &array_goal {
            Some((array, op)) => {
                let mut plain = TemplateMap::new();
                let mut supported = TemplateMap::new();
                for &l in &cuts {
                    plain.add_array_row(l, *array, &scalars, *op)?;
                    supported.add_array_row(l, *array, &scalars, *op)?;
                    supported.add_scalar_row(l, &scalars, RowOp::Le)?;
                    supported.add_scalar_row(l, &scalars, RowOp::Le)?;
                }
                vec![
                    (format!("quantified template over `{array}`"), plain),
                    (
                        format!("quantified template over `{array}` with scalar support rows"),
                        supported,
                    ),
                ]
            }
            None => {
                let mut eq_only = TemplateMap::new();
                let mut eq_ineq = TemplateMap::new();
                let mut eq_two_ineq = TemplateMap::new();
                for &l in &cuts {
                    eq_only.add_scalar_row(l, &scalars, RowOp::Eq)?;
                    eq_ineq.add_scalar_row(l, &scalars, RowOp::Eq)?;
                    eq_ineq.add_scalar_row(l, &scalars, RowOp::Le)?;
                    eq_two_ineq.add_scalar_row(l, &scalars, RowOp::Eq)?;
                    eq_two_ineq.add_scalar_row(l, &scalars, RowOp::Le)?;
                    eq_two_ineq.add_scalar_row(l, &scalars, RowOp::Le)?;
                }
                vec![
                    ("equality template".to_string(), eq_only),
                    ("equality template with one inequality".to_string(), eq_ineq),
                    ("equality template with two inequalities".to_string(), eq_two_ineq),
                ]
            }
        };

        for (description, templates) in proposals {
            let start = Instant::now();
            match synthesize(program, &templates) {
                Ok(result) => {
                    attempts.push(TemplateAttempt {
                        description,
                        succeeded: true,
                        duration: start.elapsed(),
                        stats: Some(result.stats.clone()),
                    });
                    return Ok(GeneratedInvariants {
                        cutpoint_invariants: result.invariants,
                        attempts,
                    });
                }
                Err(InvgenError::NoInvariant { .. }) => {
                    attempts.push(TemplateAttempt {
                        description,
                        succeeded: false,
                        duration: start.elapsed(),
                        stats: None,
                    });
                }
                Err(other) => return Err(other),
            }
        }
        let tried: Vec<String> = attempts.iter().map(|a| a.description.clone()).collect();
        Err(InvgenError::no_invariant(format!(
            "no template in the refinement sequence succeeded (tried: {})",
            tried.join(", ")
        )))
    }
}

/// Determines whether proving the program requires reasoning about an array:
/// if a basic path into the error location reads an array, returns that array
/// together with the relation the invariant must establish for its cells
/// (the negation of the violated guard).
fn error_array_goal(program: &Program) -> InvgenResult<Option<(Symbol, RelOp)>> {
    for bp in basic_paths(program)? {
        if bp.to != program.error() {
            continue;
        }
        for case in &bp.cases {
            if let Some(read) = case.reads.first() {
                // Find the guard atom mentioning the read on the error
                // transitions to recover the asserted relation.
                for &tid in &bp.trans {
                    let t = program.transition(tid);
                    if let pathinv_ir::Action::Assume(g) = &t.action {
                        for atom in g.atoms() {
                            let op = array_atom_relation(&atom, read.array);
                            if let Some(op) = op {
                                return Ok(Some((read.array, op.negate())));
                            }
                        }
                    }
                }
                // Fall back to equality if the guard shape is unusual.
                return Ok(Some((read.array, RelOp::Eq)));
            }
        }
    }
    Ok(None)
}

/// If the atom constrains a read from `array` on one side, returns the
/// relation with the read on the left-hand side.
fn array_atom_relation(atom: &pathinv_ir::Atom, array: Symbol) -> Option<RelOp> {
    let reads_array = |t: &Term| {
        let mut found = false;
        t.for_each(&mut |s| {
            if let Term::Select(arr, _) = s {
                if matches!(arr.as_ref(), Term::Var(v) if v.sym == array) {
                    found = true;
                }
            }
        });
        found
    };
    if reads_array(&atom.lhs) {
        Some(atom.op)
    } else if reads_array(&atom.rhs) {
        Some(atom.op.flip())
    } else {
        None
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathinv_ir::corpus;

    #[test]
    fn forward_needs_the_refined_template() {
        let p = corpus::forward();
        let generated = PathInvariantGenerator::new().generate(&p).unwrap();
        assert_eq!(generated.attempts.len(), 2, "equality template must fail first");
        assert!(!generated.attempts[0].succeeded);
        assert!(generated.attempts[1].succeeded);
        assert!(!generated.cutpoint_invariants.is_empty());
    }

    #[test]
    fn initcheck_uses_a_quantified_template_without_refinement() {
        let p = corpus::initcheck();
        let generated = PathInvariantGenerator::new().generate(&p).unwrap();
        assert_eq!(generated.attempts.len(), 1, "no template refinement required (§5)");
        assert!(generated.attempts[0].succeeded);
        assert!(generated.cutpoint_invariants.values().all(|f| f.has_quantifier()));
    }

    #[test]
    fn error_goal_detection() {
        let p = corpus::initcheck();
        let goal = error_array_goal(&p).unwrap();
        assert_eq!(goal, Some((Symbol::intern("a"), RelOp::Eq)));
        let p = corpus::forward();
        assert_eq!(error_array_goal(&p).unwrap(), None);
    }

    #[test]
    fn loop_free_program_yields_no_obligations() {
        let p =
            pathinv_ir::parse_program("proc straight(x: int) { x = 1; assert(x == 1); }").unwrap();
        let generated = PathInvariantGenerator::new().generate(&p).unwrap();
        assert!(generated.cutpoint_invariants.is_empty());
        assert!(generated.attempts.is_empty());
    }

    #[test]
    fn buggy_program_reports_failure() {
        let p = corpus::buggy_initcheck();
        let err = PathInvariantGenerator::new().generate(&p).unwrap_err();
        assert!(matches!(err, InvgenError::NoInvariant { .. }));
    }
}
