//! An incremental solving context over the combined solver.
//!
//! The engines issue thousands of closely related queries: the same
//! abstract state conjoined with the same transition relation, asked about
//! one predicate after another; the same unrolled path prefix, extended by
//! one transition per BMC step.  A [`SolverContext`] makes that shape cheap
//! in three ways:
//!
//! * **scoped assumptions** — callers [`push`](SolverContext::push) a frame,
//!   [`assume`](SolverContext::assume) the facts that stay fixed across a
//!   group of queries (the abstract state, the transition relation), issue
//!   the queries, and [`pop`](SolverContext::pop) the frame.
//! * **a live tableau** — the context owns one linear relaxation of its
//!   assumption stack on an [`IncrementalSimplex`](crate::IncrementalSimplex)
//!   (the `Relaxation` the solver's case-split trees also prune on), one
//!   tableau level per assumption.  A query first syncs the stack onto it
//!   (pushing the levels of new assumptions, truncating popped ones) and
//!   pushes the query's own atoms.  An infeasible relaxation answers unsat
//!   outright.  When the stack and the query are conjunctions of linear
//!   integer atoms, the tableau decides them exactly: disequalities split
//!   into `<`/`>` on it and are pruned warm, each branch charged to the
//!   solver's case-split budget.  Anything else — disjunctions,
//!   quantifiers, array reads, applications — falls back to the stateless
//!   [`Solver`] on the [`antecedent`](SolverContext::antecedent).  Atoms
//!   with reads or applications never reach the tableau, so the warm path
//!   draws no fresh symbols.  The relaxation only ever refutes what the
//!   solver would refute, so the warm path changes no answer; at most it
//!   answers a query whose cold solve would have failed (out of budget, or
//!   on a conjunct outside the solver's fragment).
//! * **a keyed query cache** in front of both — every boolean query
//!   (satisfiability of the stack, entailment of a consequent) is memoized
//!   under a key derived from the assumption stack and the query formula.
//!   Answers are deterministic, so replaying a cached answer is
//!   observationally identical to re-solving.  Queries that *error*
//!   (case-split budget, unsupported fragment) are never cached.
//!
//! Cache keys are hash-consed ids: every assumed formula is interned
//! ([`FormulaId`]), the assumption *stack* is identified by a cons-chain of
//! interned pairs ([`SeqId`]) updated in `O(1)` per
//! [`assume`](SolverContext::assume), and a query key is the `Copy` triple
//! `(stack id, query kind, query id)`.  Hash consing is injective on
//! formula structure, so a hit is always sound.  The cache outlives pops on
//! purpose: a re-pushed assumption set rebuilds the same cons-chain id and
//! hits the entries it populated earlier, which is exactly the reuse
//! pattern of re-running abstract reachability after a refinement step.

use crate::error::SmtResult;
use crate::linexpr::LinExpr;
use crate::solver::{spend_branch, Relaxation, Solver};
use pathinv_ir::{Atom, Formula, FormulaId, RelOp, SeqId};
use std::cell::{Cell, RefCell};
use std::collections::HashMap;

/// Usage counters of one [`SolverContext`].
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ContextStats {
    /// Boolean queries answered (satisfiability + entailment).
    pub queries: u64,
    /// Queries answered from the cache without touching the solver.
    pub cache_hits: u64,
    /// Entries currently stored in the cache.
    pub cache_entries: u64,
}

/// An incremental context: a scoped assumption stack with a live linear
/// relaxation, a keyed cache of boolean query results, and the combined
/// [`Solver`] as the fallback for queries outside linear arithmetic.
#[derive(Debug)]
pub struct SolverContext {
    solver: Solver,
    /// The assumption stack, flattened; `frames` records the stack heights
    /// at which [`push`](SolverContext::push) was called.
    assumptions: Vec<Formula>,
    /// `stack_ids[k]` is the hash-consed identity of the first `k + 1`
    /// assumptions (a cons-chain: each entry interns `(previous, formula)`),
    /// maintained in lock-step with `assumptions`.
    stack_ids: Vec<SeqId>,
    frames: Vec<usize>,
    caching: bool,
    cache: RefCell<HashMap<QueryKey, bool>>,
    warm: RefCell<WarmStack>,
    queries: Cell<u64>,
    hits: Cell<u64>,
}

/// The kind of a cached boolean query.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
enum QueryKind {
    /// Satisfiability of the stack (possibly conjoined with an extra
    /// formula).
    Sat,
    /// Entailment of a consequent by the stack.
    Entails,
}

/// A cache key: the hash-consed stack identity, the query kind, and the
/// hash-consed query formula.  `Copy`, 12 bytes, `O(1)` to hash and compare.
type QueryKey = (u32, QueryKind, u32);

/// The live relaxation of the assumption stack: relaxation level `k` holds
/// the read-free linear atoms of assumption `k`, and `diseqs[k]` its
/// disequalities, or `None` when assumption `k` is not a conjunction of
/// linear integer atoms (the stack can then only be refuted warm, never
/// decided).
#[derive(Debug, Default)]
struct WarmStack {
    relaxation: Relaxation,
    diseqs: Vec<Option<Vec<Atom>>>,
    /// How many of the synced levels still mirror the assumption stack;
    /// [`pop`](SolverContext::pop) lowers it, the next query truncates.
    valid: usize,
}

impl Default for SolverContext {
    fn default() -> Self {
        SolverContext::new()
    }
}

impl SolverContext {
    /// Creates a caching context over a default [`Solver`].
    pub fn new() -> SolverContext {
        SolverContext::with_solver(Solver::new(), true)
    }

    /// Creates a context with caching disabled: every query is solved, warm
    /// or cold.  Used to measure the uncached baseline; answers are
    /// identical to the caching context's.
    pub fn uncached() -> SolverContext {
        SolverContext::with_solver(Solver::new(), false)
    }

    /// Creates a context over an explicit solver (e.g. with a custom
    /// case-split budget).
    pub fn with_solver(solver: Solver, caching: bool) -> SolverContext {
        SolverContext {
            solver,
            assumptions: Vec::new(),
            stack_ids: Vec::new(),
            frames: Vec::new(),
            caching,
            cache: RefCell::new(HashMap::new()),
            warm: RefCell::new(WarmStack::default()),
            queries: Cell::new(0),
            hits: Cell::new(0),
        }
    }

    /// Opens a new assumption frame.
    pub fn push(&mut self) {
        self.frames.push(self.assumptions.len());
    }

    /// Discards every assumption made since the matching
    /// [`push`](SolverContext::push).  Returns `false` (and does nothing)
    /// if no frame is open.
    pub fn pop(&mut self) -> bool {
        match self.frames.pop() {
            Some(height) => {
                self.assumptions.truncate(height);
                self.stack_ids.truncate(height);
                let warm = self.warm.get_mut();
                warm.valid = warm.valid.min(height);
                true
            }
            None => false,
        }
    }

    /// Adds an assumption to the current frame.  Trivially true assumptions
    /// are dropped.  The stack's hash-consed identity is only maintained
    /// when caching is on — the uncached baseline never reads a cache key,
    /// so it must not pay for (or contend on) interning either.  The
    /// relaxation picks the assumption up at the next query.
    pub fn assume(&mut self, f: Formula) {
        if !matches!(f, Formula::True) {
            if self.caching {
                let fid = FormulaId::intern(&f);
                let prev = self.stack_ids.last().copied().unwrap_or_else(SeqId::empty);
                self.stack_ids.push(SeqId::cons(prev, fid.raw()));
            }
            self.assumptions.push(f);
        }
    }

    /// Number of open frames.
    pub fn depth(&self) -> usize {
        self.frames.len()
    }

    /// Number of live assumptions across all frames.
    pub fn num_assumptions(&self) -> usize {
        self.assumptions.len()
    }

    /// The conjunction of the live assumption stack.
    pub fn antecedent(&self) -> Formula {
        Formula::and(self.assumptions.clone())
    }

    /// Decides satisfiability of the assumption stack.
    ///
    /// # Errors
    ///
    /// Propagates solver errors (unsupported fragment, case-split budget,
    /// arithmetic overflow).
    pub fn is_sat(&self) -> SmtResult<bool> {
        // The key already identifies the full assumption stack, so the
        // query part is trivially `true`; the conjunction is only built on
        // a cold solve.
        self.cached(QueryKind::Sat, &Formula::True, || {
            self.sat_with(&Formula::True, || self.solver.is_sat(&self.antecedent()))
        })
    }

    /// Decides satisfiability of the assumption stack conjoined with
    /// `extra`, without mutating the stack.
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    pub fn is_sat_with(&self, extra: &Formula) -> SmtResult<bool> {
        self.cached(QueryKind::Sat, extra, || {
            self.sat_with(extra, || {
                self.solver.is_sat(&Formula::and(vec![self.antecedent(), extra.clone()]))
            })
        })
    }

    /// Returns `true` if the assumption stack entails `consequent`.  An
    /// atomic consequent is decided as the unsatisfiability of the stack
    /// with its negation, on the live tableau where possible; any other
    /// consequent goes to the stateless solver.
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    pub fn entails(&self, consequent: &Formula) -> SmtResult<bool> {
        self.cached(QueryKind::Entails, consequent, || {
            let cold = || self.solver.entails(&self.antecedent(), consequent);
            if is_literal(consequent) {
                Ok(!self.sat_with(&consequent.clone().not(), || cold().map(|e| !e))?)
            } else {
                cold()
            }
        })
    }

    /// Usage counters of this context.
    pub fn stats(&self) -> ContextStats {
        ContextStats {
            queries: self.queries.get(),
            cache_hits: self.hits.get(),
            cache_entries: self.cache.borrow().len() as u64,
        }
    }

    /// Decides the stack conjoined with `extra` on the live tableau, or with
    /// `cold` when the tableau cannot.  An error on the warm path discards
    /// the relaxation (the next query rebuilds it) and is returned.
    fn sat_with(&self, extra: &Formula, cold: impl FnOnce() -> SmtResult<bool>) -> SmtResult<bool> {
        let decided =
            self.warm.borrow_mut().decide(&self.assumptions, extra, self.solver.max_branches);
        match decided {
            Ok(Some(answer)) => Ok(answer),
            Ok(None) => cold(),
            Err(e) => {
                *self.warm.borrow_mut() = WarmStack::default();
                Err(e)
            }
        }
    }

    /// Answers a boolean query through the cache.  The key couples the query
    /// kind and the interned query formula with the hash-consed identity of
    /// the full assumption stack, so an answer is only ever replayed for an
    /// identical (stack, query) pair.  Errors are propagated and never
    /// cached.
    fn cached(
        &self,
        kind: QueryKind,
        query: &Formula,
        solve: impl FnOnce() -> SmtResult<bool>,
    ) -> SmtResult<bool> {
        self.queries.set(self.queries.get() + 1);
        if !self.caching {
            return solve();
        }
        let stack = self.stack_ids.last().copied().unwrap_or_else(SeqId::empty);
        let key: QueryKey = (stack.raw(), kind, FormulaId::intern(query).raw());
        if let Some(&answer) = self.cache.borrow().get(&key) {
            self.hits.set(self.hits.get() + 1);
            return Ok(answer);
        }
        let answer = solve()?;
        self.cache.borrow_mut().insert(key, answer);
        Ok(answer)
    }
}

impl WarmStack {
    /// Syncs the relaxation with `assumptions`, then decides their
    /// conjunction with `extra`: `Some(false)` if the relaxation is
    /// infeasible, `Some(answer)` if everything is linear, `None` if the
    /// query needs the cold solver.
    fn decide(
        &mut self,
        assumptions: &[Formula],
        extra: &Formula,
        max_branches: usize,
    ) -> SmtResult<Option<bool>> {
        if self.diseqs.len() > self.valid {
            self.relaxation.truncate(self.valid)?;
            self.diseqs.truncate(self.valid);
        }
        for f in &assumptions[self.valid..] {
            let diseqs = self.push_level(f)?;
            self.diseqs.push(diseqs);
        }
        self.valid = assumptions.len();

        let depth = self.relaxation.depth();
        let query = self.push_level(extra)?;
        let stack = self.diseqs.iter().try_fold(Vec::new(), |mut all, level| {
            all.extend(level.as_ref()?);
            Some(all)
        });
        let decided = if !self.relaxation.is_feasible()? {
            Some(false)
        } else if let (Some(mut diseqs), Some(query)) = (stack, &query) {
            diseqs.extend(query);
            Some(split(&mut self.relaxation, &diseqs, &Cell::new(max_branches))?)
        } else {
            None
        };
        self.relaxation.truncate(depth)?;
        Ok(decided)
    }

    /// Pushes one relaxation level with the read-free atoms of `f`'s
    /// top-level conjunction.  Returns the level's disequalities, or `None`
    /// if `f` is not a conjunction of linear integer atoms.
    fn push_level(&mut self, f: &Formula) -> SmtResult<Option<Vec<Atom>>> {
        let mut atoms = Vec::new();
        let literals = conjuncts(f, &mut atoms);
        let linear = literals
            && atoms.iter().all(|a| {
                !a.has_nonarithmetic()
                    && LinExpr::from_term(&a.lhs).is_ok()
                    && LinExpr::from_term(&a.rhs).is_ok()
            });
        atoms.retain(|a| !a.has_nonarithmetic());
        self.relaxation.push_level(&atoms)?;
        Ok(linear.then(|| atoms.into_iter().filter(|a| a.op == RelOp::Ne).collect()))
    }
}

/// Collects the literals of `f`'s top-level conjunction into `atoms`,
/// negated atoms in negation normal form.  Returns `false` if some conjunct
/// is not a literal (the literals of the others are still collected).
fn conjuncts(f: &Formula, atoms: &mut Vec<Atom>) -> bool {
    match f {
        Formula::True => true,
        Formula::And(parts) => parts.iter().filter(|p| !conjuncts(p, atoms)).count() == 0,
        literal if is_literal(literal) => {
            let Formula::Atom(a) = literal.nnf() else { unreachable!("a literal") };
            atoms.push(a);
            true
        }
        _ => false,
    }
}

/// Returns `true` for an atom or a negated atom.
fn is_literal(f: &Formula) -> bool {
    match f {
        Formula::Atom(_) => true,
        Formula::Not(inner) => matches!(**inner, Formula::Atom(_)),
        _ => false,
    }
}

/// Decides the relaxation's constraints with `diseqs` by splitting each
/// disequality into `<`/`>` on the tableau, pruning every infeasible branch
/// warm.  Every node spends one case-split branch from `budget`, like a node
/// of the solver's own split tree.
fn split(relaxation: &mut Relaxation, diseqs: &[&Atom], budget: &Cell<usize>) -> SmtResult<bool> {
    spend_branch(budget, "in the solver context")?;
    let Some((a, rest)) = diseqs.split_first() else {
        return Ok(true);
    };
    let depth = relaxation.depth();
    for op in [RelOp::Lt, RelOp::Gt] {
        relaxation.push_level(&[Atom::new(a.lhs.clone(), op, a.rhs.clone())])?;
        let sat = relaxation.is_feasible()? && split(relaxation, rest, budget)?;
        relaxation.truncate(depth)?;
        if sat {
            return Ok(true);
        }
    }
    Ok(false)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathinv_ir::Term;

    fn lt(x: &str, k: i128) -> Formula {
        Formula::lt(Term::var(x), Term::int(k))
    }

    fn ge(x: &str, k: i128) -> Formula {
        Formula::ge(Term::var(x), Term::int(k))
    }

    #[test]
    fn push_pop_scopes_assumptions() {
        let mut ctx = SolverContext::new();
        ctx.assume(ge("x", 0));
        assert!(ctx.is_sat().unwrap());
        ctx.push();
        ctx.assume(lt("x", 0));
        assert!(!ctx.is_sat().unwrap());
        assert!(ctx.pop());
        assert!(ctx.is_sat().unwrap());
        assert_eq!(ctx.num_assumptions(), 1);
        assert!(!ctx.pop(), "no frame left to pop");
    }

    #[test]
    fn identical_queries_hit_the_cache() {
        let mut ctx = SolverContext::new();
        ctx.assume(ge("x", 1));
        assert!(ctx.entails(&ge("x", 0)).unwrap());
        assert!(ctx.entails(&ge("x", 0)).unwrap());
        let stats = ctx.stats();
        assert_eq!(stats.queries, 2);
        assert_eq!(stats.cache_hits, 1);
        assert_eq!(stats.cache_entries, 1);
    }

    #[test]
    fn cache_survives_pop_and_repush() {
        let mut ctx = SolverContext::new();
        for round in 0..2 {
            ctx.push();
            ctx.assume(ge("x", 5));
            assert!(ctx.entails(&ge("x", 3)).unwrap());
            assert!(ctx.pop());
            if round == 1 {
                assert_eq!(ctx.stats().cache_hits, 1, "second round must reuse the first");
            }
        }
    }

    #[test]
    fn different_stacks_do_not_share_answers() {
        let mut ctx = SolverContext::new();
        ctx.push();
        ctx.assume(ge("x", 5));
        assert!(ctx.entails(&ge("x", 3)).unwrap());
        ctx.pop();
        ctx.push();
        ctx.assume(ge("x", 2));
        assert!(!ctx.entails(&ge("x", 3)).unwrap());
        ctx.pop();
        assert_eq!(ctx.stats().cache_hits, 0);
        assert_eq!(ctx.stats().cache_entries, 2);
    }

    #[test]
    fn uncached_context_answers_identically_without_hits() {
        let mut cached = SolverContext::new();
        let mut plain = SolverContext::uncached();
        for ctx in [&mut cached, &mut plain] {
            ctx.assume(ge("x", 0));
            ctx.assume(lt("x", 10));
            for _ in 0..2 {
                assert!(ctx.is_sat().unwrap());
                assert!(ctx.entails(&lt("x", 11)).unwrap());
                assert!(!ctx.entails(&lt("x", 5)).unwrap());
            }
        }
        assert_eq!(cached.stats().queries, plain.stats().queries);
        assert_eq!(cached.stats().cache_hits, 3);
        assert_eq!(plain.stats().cache_hits, 0);
        assert_eq!(plain.stats().cache_entries, 0);
    }

    #[test]
    fn is_sat_with_does_not_mutate_the_stack() {
        let mut ctx = SolverContext::new();
        ctx.assume(ge("x", 0));
        assert!(!ctx.is_sat_with(&lt("x", 0)).unwrap());
        assert_eq!(ctx.num_assumptions(), 1);
        assert!(ctx.is_sat().unwrap());
    }
}
