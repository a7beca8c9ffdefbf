//! An incremental solving context over the combined solver.
//!
//! The CEGAR engine issues thousands of closely related queries: the same
//! abstract state conjoined with the same transition relation, asked about
//! one predicate after another, re-asked on every abstract-reachability
//! phase as the predicate map grows.  A [`SolverContext`] makes that shape
//! cheap in two ways:
//!
//! * **scoped assumptions** — callers [`push`](SolverContext::push) a frame,
//!   [`assume`](SolverContext::assume) the facts that stay fixed across a
//!   group of queries (the abstract state, the transition relation), issue
//!   the queries, and [`pop`](SolverContext::pop) the frame.  The context
//!   assembles the antecedent once per query from the live stack instead of
//!   forcing every call site to rebuild conjunctions by hand.
//! * **a keyed query cache** — every boolean query (satisfiability of the
//!   stack, entailment of a consequent) is memoized under a key derived from
//!   the assumption stack and the query formula.  The underlying
//!   [`Solver`] is deterministic, so replaying a cached answer is
//!   observationally identical to re-solving — it just skips the case
//!   splitting.  Queries that *error* (case-split budget, unsupported
//!   fragment) are never cached, so error behaviour is also unchanged.
//!
//! Cache keys are hash-consed ids: every assumed formula is interned
//! ([`FormulaId`]), the assumption *stack* is identified by a cons-chain of
//! interned pairs ([`SeqId`]) updated in `O(1)` per
//! [`assume`](SolverContext::assume), and a query key is the `Copy` triple
//! `(stack id, query kind, query id)`.  Hash consing is injective on
//! formula structure — structurally distinct stacks or queries get distinct
//! ids — so a hit is always sound, exactly like the pretty-printed string
//! keys this replaced, but without allocating or comparing a rendering of
//! the whole stack on every query.  The cache outlives pops on purpose: a
//! re-pushed assumption set rebuilds the same cons-chain id and hits the
//! entries it populated earlier, which is exactly the reuse pattern of
//! re-running abstract reachability after a refinement step.

use crate::error::SmtResult;
use crate::solver::Solver;
use pathinv_ir::{Formula, FormulaId, SeqId};
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

/// An incremental context: a scoped assumption stack plus a keyed cache of
/// boolean query results, on top of the (stateless, deterministic)
/// combined [`Solver`].
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

    /// Creates a context with caching disabled: every query goes to the
    /// solver.  Used to measure the uncached baseline; answers are identical
    /// to the caching context's.
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
                true
            }
            None => false,
        }
    }

    /// Adds an assumption to the current frame.  Trivially true assumptions
    /// are dropped.  The stack's hash-consed identity is only maintained
    /// when caching is on — the uncached baseline never reads a cache key,
    /// so it must not pay for (or contend on) interning either.
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
    /// Propagates solver errors (unsupported fragment, case-split budget).
    pub fn is_sat(&self) -> SmtResult<bool> {
        // The key already identifies the full assumption stack, so the
        // query part is trivially `true`; the conjunction is only built on
        // a cache miss.
        self.cached(QueryKind::Sat, &Formula::True, |s| s.is_sat(&self.antecedent()))
    }

    /// Decides satisfiability of the assumption stack conjoined with
    /// `extra`, without mutating the stack.
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    pub fn is_sat_with(&self, extra: &Formula) -> SmtResult<bool> {
        self.cached(QueryKind::Sat, extra, |s| {
            s.is_sat(&Formula::and(vec![self.antecedent(), extra.clone()]))
        })
    }

    /// Returns `true` if the assumption stack entails `consequent`.
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    pub fn entails(&self, consequent: &Formula) -> SmtResult<bool> {
        self.cached(QueryKind::Entails, consequent, |s| s.entails(&self.antecedent(), consequent))
    }

    /// Usage counters of this context.
    pub fn stats(&self) -> ContextStats {
        ContextStats {
            queries: self.queries.get(),
            cache_hits: self.hits.get(),
            cache_entries: self.cache.borrow().len() as u64,
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
        solve: impl FnOnce(&Solver) -> SmtResult<bool>,
    ) -> SmtResult<bool> {
        self.queries.set(self.queries.get() + 1);
        if !self.caching {
            return solve(&self.solver);
        }
        let stack = self.stack_ids.last().copied().unwrap_or_else(SeqId::empty);
        let key: QueryKey = (stack.raw(), kind, FormulaId::intern(query).raw());
        if let Some(&answer) = self.cache.borrow().get(&key) {
            self.hits.set(self.hits.get() + 1);
            return Ok(answer);
        }
        let answer = solve(&self.solver)?;
        self.cache.borrow_mut().insert(key, answer);
        Ok(answer)
    }
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
