//! Abstraction refinement: the baseline finite-path refiner and the paper's
//! path-invariant refiner.
//!
//! Both refiners receive a spurious error path and return new predicates per
//! program location.  The baseline ([`PathPredicateRefiner`]) follows the
//! SLAM/BLAST recipe criticised in §2.1: it extracts predicates from the
//! infeasible path formula (Craig interpolants plus the atomic facts of the
//! path), which removes the *current* counterexample only, and therefore
//! keeps unrolling loops.  The paper's refiner ([`PathInvariantRefiner`])
//! builds the path program, synthesises path invariants for it, and returns
//! their atoms — eliminating every counterexample that stays within the path
//! program at once (Theorem 1).

use crate::error::{CoreError, CoreResult};
use crate::pathprog::path_program;
use pathinv_invgen::{
    GeneratedInvariants, InvgenError, InvgenResult, PathInvariantGenerator, TemplateAttempt,
};
use pathinv_ir::{
    ssa, Action, Formula, FormulaId, Loc, Path, Program, SeqId, Symbol, Term, TermId,
};
use pathinv_smt::{LinConstraint, SequenceInterpolator, SmtError};
use std::cell::RefCell;
use std::collections::{BTreeMap, HashMap};

/// New predicates produced by a refinement step, keyed by program location.
pub type NewPredicates = BTreeMap<Loc, Vec<Formula>>;

/// The outcome of one refinement step.
#[derive(Clone, Debug, Default)]
pub struct Refinement {
    /// The new predicates, keyed by program location.
    pub predicates: NewPredicates,
    /// `true` when the refiner's *primary* strategy failed and the
    /// predicates came from a fallback.  The path-invariant refiner sets
    /// this when invariant synthesis found no invariant map and finite-path
    /// refutation was used instead — the signal the CEGAR driver uses to
    /// detect that refinement has degenerated into the divergent baseline
    /// behaviour (see [`CegarConfig::max_fallback_refinements`](crate::CegarConfig)).
    pub fell_back: bool,
}

impl Refinement {
    /// A primary-strategy refinement producing `predicates`.
    pub fn primary(predicates: NewPredicates) -> Refinement {
        Refinement { predicates, fell_back: false }
    }

    /// A fallback refinement producing `predicates`.
    pub fn fallback(predicates: NewPredicates) -> Refinement {
        Refinement { predicates, fell_back: true }
    }
}

/// A refinement strategy.
pub trait Refiner {
    /// A short name used in reports and benchmarks.
    fn name(&self) -> &'static str;

    /// Produces new predicates that eliminate the spurious error path
    /// `path`.
    ///
    /// # Errors
    ///
    /// Propagates solver errors; refiners must not be called on feasible
    /// paths.
    fn refine(&self, program: &Program, path: &Path) -> CoreResult<Refinement>;
}

/// The baseline refiner: predicates from the infeasible path formula
/// (interpolants + path atoms), as in interpolation-based CEGAR tools.
#[derive(Clone, Debug, Default)]
pub struct PathPredicateRefiner;

impl PathPredicateRefiner {
    /// Creates the baseline refiner.
    pub fn new() -> PathPredicateRefiner {
        PathPredicateRefiner
    }
}

impl Refiner for PathPredicateRefiner {
    fn name(&self) -> &'static str {
        "path-predicates"
    }

    fn refine(&self, program: &Program, path: &Path) -> CoreResult<Refinement> {
        Ok(Refinement::primary(self.path_predicates(program, path)?))
    }
}

impl PathPredicateRefiner {
    /// The finite-path predicate computation (interpolants + path atoms),
    /// shared with the path-invariant refiner's fallback.
    fn path_predicates(&self, program: &Program, path: &Path) -> CoreResult<NewPredicates> {
        let pf = ssa::path_formula(program, path);
        let locs = path.locations(program);
        let mut out: NewPredicates = BTreeMap::new();
        let mut push = |l: Loc, f: Formula| {
            if matches!(f, Formula::True | Formula::False) {
                return;
            }
            out.entry(l).or_default().push(f);
        };

        // 1. Craig interpolants over the arithmetic fragment of the path
        //    formula (array facts are dropped here; the baseline is exactly
        //    as array-blind as the paper describes).  Disequality atoms are
        //    split into their two strict cases; interpolants are computed for
        //    every unsatisfiable combination of cases and their atoms merged.
        //    Every combination shares the whole group skeleton, so the split
        //    family runs on one incremental tableau (a checkpointed warm
        //    re-check per combination) instead of a cold solve each.
        let mut groups: Vec<Vec<LinConstraint<_>>> = Vec::new();
        let mut ne_atoms: Vec<(usize, pathinv_ir::Atom)> = Vec::new();
        for (i, step) in pf.steps.iter().enumerate() {
            let mut group = Vec::new();
            for atom in step.atoms() {
                if atom.has_nonarithmetic() {
                    continue;
                }
                if atom.op == pathinv_ir::RelOp::Ne {
                    if ne_atoms.len() < 6 {
                        ne_atoms.push((i, atom.clone()));
                    }
                    continue;
                }
                if let Ok(c) = LinConstraint::from_atom(&atom) {
                    group.push(c.tighten_for_integers().map_err(CoreError::from)?);
                }
            }
            groups.push(group);
        }
        let mut interpolator = SequenceInterpolator::new(groups).map_err(CoreError::from)?;
        for combo in 0..(1usize << ne_atoms.len()) {
            let mut extras = Vec::with_capacity(ne_atoms.len());
            let mut ok = true;
            for (bit, (step, atom)) in ne_atoms.iter().enumerate() {
                let op = if combo & (1 << bit) == 0 {
                    pathinv_ir::RelOp::Lt
                } else {
                    pathinv_ir::RelOp::Gt
                };
                let strict = pathinv_ir::Atom::new(atom.lhs.clone(), op, atom.rhs.clone());
                match LinConstraint::from_atom(&strict) {
                    Ok(c) => {
                        extras.push((*step, c.tighten_for_integers().map_err(CoreError::from)?))
                    }
                    Err(_) => ok = false,
                }
            }
            if !ok {
                continue;
            }
            if let Some(itps) = interpolator.interpolants(&extras).map_err(CoreError::from)? {
                for (j, itp) in itps.into_iter().enumerate() {
                    let at_step = j + 1;
                    let renamed = pf.unname_at_step(at_step, &itp);
                    push(locs[at_step], renamed);
                }
            }
        }

        // 2. The atomic facts of the path formula, renamed back to program
        //    variables at the position where they were established — this is
        //    the "track the constants seen so far" behaviour that produces
        //    i = 0, i = 1, ... on loop programs (§2.1).
        for (i, step) in pf.steps.iter().enumerate() {
            for atom in step.atoms() {
                let has_store = {
                    let mut found = false;
                    for side in [&atom.lhs, &atom.rhs] {
                        side.for_each(&mut |t| {
                            if matches!(t, Term::Store(..)) {
                                found = true;
                            }
                        });
                    }
                    found
                };
                if has_store {
                    continue;
                }
                let f = Formula::Atom(atom.clone());
                let renamed = pf.unname_at_step(i + 1, &f);
                // Only keep facts that are fully expressed over program
                // variables at this position (no dangling SSA names).
                if renamed.var_refs().iter().all(|v| v.tag == pathinv_ir::Tag::Cur) {
                    push(locs[i + 1], renamed);
                }
            }
        }
        Ok(out)
    }
}

/// The paper's refiner: build the path program, synthesise path invariants,
/// and track their atoms (propagated through the loop bodies) as predicates.
///
/// Synthesis outcomes are memoized *across refinements of one verification
/// run*, keyed on the interned structure of the path program: a CEGAR run whose refinement repeatedly
/// generalises counterexamples to the same path program — e.g. successive
/// unwindings of a loop the template language cannot capture, which produce
/// the identical path program every time — pays for synthesis once and
/// replays the outcome in `O(1)` afterwards.  The memo lives in the refiner
/// instance (one per verification run), so counters stay deterministic
/// across worker counts; memo replays are counted in
/// [`pathinv_invgen::SynthCounters::memo_hits`].
#[derive(Clone, Debug, Default)]
pub struct PathInvariantRefiner {
    memo: RefCell<HashMap<SeqId, InvgenResult<GeneratedInvariants>>>,
}

/// A structural key for a path program, built from PR 4's interning tables:
/// entry/error locations, the interned variable terms, and per transition
/// the endpoint locations plus the [`FormulaId`] of its transition relation
/// (which captures assignments, guards, array writes, and havoc frame
/// conditions exactly).  Two path programs share a key if and only if they
/// are the same control-flow graph over the same relations — in which case
/// invariant synthesis is deterministic and its outcome reusable.
fn path_program_key(pp: &Program) -> SeqId {
    let mut ids: Vec<u32> = vec![pp.entry().0, pp.error().0];
    for v in pp.int_vars() {
        ids.push(TermId::intern(&Term::var(v)).raw());
    }
    ids.push(u32::MAX); // separator: vars above, transitions below
    for t in pp.transitions() {
        ids.push(t.from.0);
        ids.push(t.to.0);
        ids.push(FormulaId::intern(&t.action.to_relation(pp.vars())).raw());
    }
    SeqId::intern(&ids)
}

impl PathInvariantRefiner {
    /// Creates the path-invariant refiner with the default synthesis
    /// configuration.
    pub fn new() -> PathInvariantRefiner {
        PathInvariantRefiner::default()
    }

    /// Generates invariants for the path program, replaying a memoized
    /// outcome when the same path program was synthesised earlier in this
    /// run.
    fn generate_memoized(&self, pp: &Program) -> InvgenResult<GeneratedInvariants> {
        let key = path_program_key(pp);
        if let Some(cached) = self.memo.borrow().get(&key) {
            pathinv_invgen::stats::record_memo_hit();
            return cached.clone();
        }
        let outcome = PathInvariantGenerator::new().generate(pp);
        // A cancelled synthesis is not an outcome of the path program — a
        // later (uncancelled) run must not replay it from the memo.
        if !matches!(outcome, Err(InvgenError::Smt(SmtError::Cancelled))) {
            self.memo.borrow_mut().insert(key, outcome.clone());
        }
        outcome
    }

    /// Runs the refiner and also returns the template attempts (for the
    /// experiment harness).
    pub fn refine_with_attempts(
        &self,
        program: &Program,
        path: &Path,
    ) -> CoreResult<(Refinement, Vec<TemplateAttempt>)> {
        let pp = path_program(program, path)?;
        match self.generate_memoized(&pp.program) {
            Ok(generated) if !generated.cutpoint_invariants.is_empty() => {
                // Map the cut-point invariants back to original locations and
                // propagate candidate predicates along the path.
                let mut cut_invs: BTreeMap<Loc, Formula> = BTreeMap::new();
                for (pp_loc, inv) in &generated.cutpoint_invariants {
                    let orig = pp.original_loc(*pp_loc);
                    let cur = cut_invs.remove(&orig).unwrap_or(Formula::True);
                    cut_invs.insert(orig, Formula::and(vec![cur, inv.clone()]));
                }
                let preds = propagate_candidates(program, path, &cut_invs);
                Ok((Refinement::primary(preds), generated.attempts))
            }
            Ok(generated) => {
                // Loop-free path program: plain path refutation is complete
                // here (there is no unwinding family to diverge on), so this
                // is not a synthesis failure.
                let preds = PathPredicateRefiner::new().path_predicates(program, path)?;
                Ok((Refinement::primary(preds), generated.attempts))
            }
            Err(InvgenError::NoInvariant { .. })
            | Err(InvgenError::Unsupported { .. })
            | Err(InvgenError::Smt(SmtError::Unsupported { .. }))
            | Err(InvgenError::Smt(SmtError::Budget { .. })) => {
                // No invariant within the template language, the path program
                // is outside the supported template fragment (e.g. fractional
                // template coefficients in an array bound), or the synthesis
                // ran out of solver budget: fall back to finite-path
                // refinement, as the paper suggests combining the technique
                // with falsification methods (§6).  Marked as a fallback so
                // the CEGAR driver can detect repeated synthesis failure.
                let preds = PathPredicateRefiner::new().path_predicates(program, path)?;
                Ok((Refinement::fallback(preds), Vec::new()))
            }
            Err(other) => Err(CoreError::from(other)),
        }
    }
}

impl Refiner for PathInvariantRefiner {
    fn name(&self) -> &'static str {
        "path-invariants"
    }

    fn refine(&self, program: &Program, path: &Path) -> CoreResult<Refinement> {
        Ok(self.refine_with_attempts(program, path)?.0)
    }
}

/// Propagates the cut-point invariants along the counterexample path,
/// producing *candidate* predicates for the intermediate locations (the
/// strongest-postcondition propagation of §5, in candidate form: tracking a
/// candidate that does not actually hold is harmless, the abstraction simply
/// never asserts it).
fn propagate_candidates(
    program: &Program,
    path: &Path,
    cut_invs: &BTreeMap<Loc, Formula>,
) -> NewPredicates {
    let locs = path.locations(program);
    let mut out: NewPredicates = BTreeMap::new();
    let mut add = |l: Loc, f: &Formula| {
        if matches!(f, Formula::True | Formula::False) {
            return;
        }
        let entry = out.entry(l).or_default();
        if !entry.contains(f) {
            entry.push(f.clone());
        }
    };

    // Seed every location that carries a synthesised invariant.
    for (l, inv) in cut_invs {
        for c in inv.conjuncts() {
            add(*l, &c);
        }
    }

    // Walk the path, carrying a set of candidate formulas.
    let mut current: Vec<Formula> = Vec::new();
    for (i, t) in path.transitions(program).iter().enumerate() {
        if let Some(inv) = cut_invs.get(&locs[i]) {
            for c in inv.conjuncts() {
                if !current.contains(&c) {
                    current.push(c);
                }
            }
        }
        current = current.iter().flat_map(|f| transform_candidate(f, &t.action)).collect();
        match &t.action {
            Action::Assume(g) => {
                for c in g.conjuncts() {
                    current.push(c);
                }
            }
            Action::ArrayAssign { array, index, value } => {
                current.push(Formula::eq(Term::var(*array).select(index.clone()), value.clone()));
            }
            Action::Assign(asgs) => {
                let assigned: Vec<Symbol> = asgs.iter().map(|(x, _)| *x).collect();
                for (x, e) in asgs {
                    if e.var_names().iter().all(|v| !assigned.contains(v)) {
                        current.push(Formula::eq(Term::var(*x), e.clone()));
                    }
                }
            }
            _ => {}
        }
        current.dedup();
        for f in &current {
            add(locs[i + 1], f);
        }
    }
    out
}

/// Pushes one candidate formula through an action, optimistically.
fn transform_candidate(f: &Formula, action: &Action) -> Vec<Formula> {
    match action {
        Action::Skip | Action::Assume(_) | Action::ArrayAssign { .. } => vec![f.clone()],
        Action::Havoc(xs) => {
            if f.var_names().iter().any(|v| xs.contains(v)) {
                vec![]
            } else {
                vec![f.clone()]
            }
        }
        Action::Assign(asgs) => {
            if f.has_quantifier() {
                // Quantified candidates are carried unchanged; the abstract
                // post decides whether they still hold.
                return vec![f.clone()];
            }
            let mentions_assigned = asgs.iter().any(|(x, _)| f.var_names().contains(x));
            if !mentions_assigned {
                return vec![f.clone()];
            }
            // Invertible updates x := x ± c are substituted exactly; anything
            // else drops the candidate (a stronger candidate would be
            // unsound to guess and a weaker one rarely helps).
            let mut result = f.clone();
            for (x, e) in asgs {
                if !result.var_names().contains(x) {
                    continue;
                }
                let inverse = match e {
                    Term::Add(a, b) => match (a.as_ref(), b.as_ref()) {
                        (Term::Var(v), Term::Const(c)) if v.sym == *x => {
                            Some(Term::var(*x).sub(Term::int(*c)))
                        }
                        (Term::Const(c), Term::Var(v)) if v.sym == *x => {
                            Some(Term::var(*x).sub(Term::int(*c)))
                        }
                        _ => None,
                    },
                    Term::Sub(a, b) => match (a.as_ref(), b.as_ref()) {
                        (Term::Var(v), Term::Const(c)) if v.sym == *x => {
                            Some(Term::var(*x).add(Term::int(*c)))
                        }
                        _ => None,
                    },
                    _ => None,
                };
                match inverse {
                    Some(inv) => {
                        result = result.subst_var(pathinv_ir::VarRef::cur(*x), &inv);
                    }
                    None => return vec![],
                }
            }
            vec![result]
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathinv_ir::corpus;

    #[test]
    fn baseline_refiner_produces_constant_tracking_predicates() {
        let p = corpus::forward();
        let path = Path::new(&p, corpus::forward_counterexample(&p)).unwrap();
        let preds = PathPredicateRefiner::new().refine(&p, &path).unwrap().predicates;
        let all: Vec<String> = preds.values().flatten().map(|f| f.to_string()).collect();
        // The first-iteration constants show up, as in §2.1.
        assert!(all.iter().any(|s| s.contains("i = 0")), "{all:?}");
        assert!(all.iter().any(|s| s.contains("a = 0") || s.contains("b = 0")), "{all:?}");
        assert!(!preds.is_empty());
    }

    #[test]
    fn path_invariant_refiner_produces_loop_invariant_predicates() {
        let p = corpus::forward();
        let path = Path::new(&p, corpus::forward_counterexample(&p)).unwrap();
        let refiner = PathInvariantRefiner::new();
        let (refinement, attempts) = refiner.refine_with_attempts(&p, &path).unwrap();
        assert!(!refinement.fell_back, "FORWARD synthesis must succeed");
        let preds = refinement.predicates;
        assert!(!attempts.is_empty(), "the template attempts must be reported");
        let l1 = corpus::find_loc(&p, "L1");
        let at_l1: Vec<String> = preds[&l1].iter().map(|f| f.to_string()).collect();
        // The relational loop invariant (not expressible by finite-path
        // predicates) is among the new predicates.
        assert!(
            at_l1.iter().any(|s| s.contains('a') && s.contains('b') && s.contains('i')),
            "expected a relational predicate at L1, got {at_l1:?}"
        );
        // Intermediate loop locations receive propagated candidates.
        let l4 = corpus::find_loc(&p, "L4");
        assert!(preds.contains_key(&l4), "propagation must reach L4");
    }

    #[test]
    fn repeated_syntheses_of_the_same_path_program_hit_the_memo() {
        let p = corpus::forward();
        let path = Path::new(&p, corpus::forward_counterexample(&p)).unwrap();
        let refiner = PathInvariantRefiner::new();
        let before = pathinv_invgen::synth_stats_snapshot();
        let first = refiner.refine(&p, &path).unwrap();
        let after_first = pathinv_invgen::synth_stats_snapshot().since(&before);
        assert_eq!(after_first.memo_hits, 0, "first synthesis cannot hit the memo");
        assert!(after_first.systems_solved > 0, "first synthesis must solve systems");
        let second = refiner.refine(&p, &path).unwrap();
        let after_second = pathinv_invgen::synth_stats_snapshot().since(&before);
        assert_eq!(after_second.memo_hits, 1, "identical path program must replay");
        assert_eq!(
            after_second.systems_solved, after_first.systems_solved,
            "the replay must not re-run the search"
        );
        assert_eq!(first.predicates, second.predicates, "replayed outcome must be identical");
        // A fresh refiner has a fresh memo (per-run determinism).
        let fresh = PathInvariantRefiner::new();
        fresh.refine(&p, &path).unwrap();
        let after_fresh = pathinv_invgen::synth_stats_snapshot().since(&before);
        assert_eq!(after_fresh.memo_hits, 1, "a new run must not see the old memo");
    }

    #[test]
    fn path_program_keys_distinguish_different_programs() {
        let forward = corpus::forward();
        let fw_path = Path::new(&forward, corpus::forward_counterexample(&forward)).unwrap();
        let init = corpus::initcheck();
        let ic_path = Path::new(&init, corpus::initcheck_counterexample(&init)).unwrap();
        let pp1 = path_program(&forward, &fw_path).unwrap();
        let pp2 = path_program(&init, &ic_path).unwrap();
        assert_ne!(path_program_key(&pp1.program), path_program_key(&pp2.program));
        // Rebuilding the same path program yields the same key.
        let pp1b = path_program(&forward, &fw_path).unwrap();
        assert_eq!(path_program_key(&pp1.program), path_program_key(&pp1b.program));
    }

    #[test]
    fn candidate_transformation_is_exact_for_invertible_updates() {
        let f = Formula::eq(Term::var("a").add(Term::var("b")), Term::int(3).mul(Term::var("i")));
        let action = Action::Assign(vec![
            (Symbol::intern("a"), Term::var("a").add(Term::int(1))),
            (Symbol::intern("b"), Term::var("b").add(Term::int(2))),
        ]);
        let out = transform_candidate(&f, &action);
        assert_eq!(out.len(), 1);
        let s = out[0].to_string();
        assert!(s.contains("a - 1") || s.contains("(a - 1)"), "{s}");
    }

    #[test]
    fn candidate_transformation_drops_non_invertible_updates() {
        let f = Formula::eq(Term::var("x"), Term::int(0));
        let action = Action::assign("x", Term::var("y"));
        assert!(transform_candidate(&f, &action).is_empty());
        // But candidates not mentioning the assigned variable survive.
        let g = Formula::eq(Term::var("z"), Term::int(0));
        assert_eq!(transform_candidate(&g, &action).len(), 1);
    }

    #[test]
    fn quantified_candidates_are_carried_unchanged() {
        let k = Symbol::intern("k");
        let q = Formula::forall(
            vec![k],
            Formula::le(Term::int(0), Term::Bound(k))
                .implies(Formula::eq(Term::var("a").select(Term::Bound(k)), Term::int(0))),
        );
        let action = Action::assign("i", Term::var("i").add(Term::int(1)));
        assert_eq!(transform_candidate(&q, &action), vec![q]);
    }
}
