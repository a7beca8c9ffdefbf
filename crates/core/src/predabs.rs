//! Cartesian predicate abstraction with location-local predicate maps.
//!
//! The abstract domain tracks, at each control location, which of the
//! location's predicates (and their negations, for quantifier-free
//! predicates) are known to hold.  The abstract post operator asks the
//! combined solver one entailment query per candidate predicate — the
//! standard cartesian (non-relational in the predicates) approximation used
//! by BLAST-style model checkers, which is exactly the abstraction the paper
//! instantiates its refinement scheme on (§4.1).

use pathinv_ir::{Formula, Loc, Program, Transition};
use pathinv_smt::{SmtResult, SolverContext};
use std::collections::{BTreeMap, BTreeSet};

/// The predicate map Π: the predicates tracked at each location.
#[derive(Clone, Debug, Default)]
pub struct PredicateMap {
    preds: BTreeMap<Loc, Vec<Formula>>,
}

impl PredicateMap {
    /// Creates an empty predicate map (the initial abstraction that discards
    /// all data relationships).
    pub fn new() -> PredicateMap {
        PredicateMap::default()
    }

    /// The predicates tracked at `l`.
    pub fn at(&self, l: Loc) -> &[Formula] {
        self.preds.get(&l).map(Vec::as_slice).unwrap_or(&[])
    }

    /// Adds a predicate at a location.  Returns `true` if it was new.
    ///
    /// Trivial predicates (`true`, `false`) are ignored.
    pub fn add(&mut self, l: Loc, p: Formula) -> bool {
        if matches!(p, Formula::True | Formula::False) {
            return false;
        }
        let entry = self.preds.entry(l).or_default();
        if entry.contains(&p) {
            false
        } else {
            entry.push(p);
            true
        }
    }

    /// Adds every conjunct of `f` as a predicate at `l`; returns how many
    /// were new.
    pub fn add_conjuncts(&mut self, l: Loc, f: &Formula) -> usize {
        let mut added = 0;
        for c in f.conjuncts() {
            if self.add(l, c) {
                added += 1;
            }
        }
        added
    }

    /// Total number of (location, predicate) pairs.
    pub fn len(&self) -> usize {
        self.preds.values().map(Vec::len).sum()
    }

    /// Whether the map is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The locations that have at least one predicate.
    pub fn locations(&self) -> impl Iterator<Item = Loc> + '_ {
        self.preds.keys().copied()
    }
}

/// An abstract state: the set of literals (predicates or negated predicates)
/// that are known to hold at a location.
///
/// The empty set is the abstract `true` (no information).
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AbstractState {
    literals: BTreeSet<Formula>,
}

impl AbstractState {
    /// The abstract state with no information.
    pub fn top() -> AbstractState {
        AbstractState::default()
    }

    /// Creates an abstract state from a set of literals.
    pub fn from_literals(literals: impl IntoIterator<Item = Formula>) -> AbstractState {
        AbstractState { literals: literals.into_iter().collect() }
    }

    /// The literals of the state.
    pub fn literals(&self) -> impl Iterator<Item = &Formula> {
        self.literals.iter()
    }

    /// The concretisation of the state as a formula.
    pub fn to_formula(&self) -> Formula {
        Formula::and(self.literals.iter().cloned().collect())
    }

    /// Returns `true` if `self` describes a subset of the states described by
    /// `other` (i.e. `self` carries at least the literals of `other`).  This
    /// is the coverage check of the abstract reachability tree.
    pub fn subsumed_by(&self, other: &AbstractState) -> bool {
        other.literals.is_subset(&self.literals)
    }

    /// Returns `true` if the state carries exactly this literal.
    pub fn contains(&self, f: &Formula) -> bool {
        self.literals.contains(f)
    }

    /// Number of literals.
    pub fn len(&self) -> usize {
        self.literals.len()
    }

    /// Whether the state is `top`.
    pub fn is_empty(&self) -> bool {
        self.literals.is_empty()
    }
}

/// Cache-usage counters of one [`AbstractPost`] operator.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PostStats {
    /// Abstract-post computations requested.
    pub post_queries: u64,
    /// Boolean solver queries issued through the incremental context
    /// (feasibility + entailment).
    pub smt_queries: u64,
    /// Context queries answered from the keyed query cache.
    pub query_cache_hits: u64,
}

/// The abstract post operator, incremental at two levels.
///
/// The CEGAR loop re-runs abstract reachability from scratch after every
/// refinement step, so the same `(abstract state, transition)` pairs are
/// re-expanded over and over.  This operator exploits that:
///
/// * **query cache** — the underlying [`SolverContext`] memoizes each
///   individual feasibility/entailment query under its assumption stack, so
///   a re-expanded cube replays every verdict from the cache, and a cube
///   recomputed after refinement grew the predicate set only pays for the
///   queries about the *new* predicates.
/// * **frame-carried literals** — a literal already decided in the source
///   state whose variables the transition does not assign is carried to the
///   successor without a solver query.  This is exact, not an
///   approximation: the transition relation contains the frame equality
///   `x' = x` for every unassigned variable, so the carried literal's primed
///   entailment holds by construction (and the feasibility of the edge is
///   still checked first, so an infeasible guard can never be masked).
///
/// Both layers reproduce answers the deterministic solver would give,
/// so an incremental operator is observationally identical to a fresh one —
/// only cheaper.  The operator is therefore created once per verification
/// run and shared across all reachability phases (see the CEGAR driver).
#[derive(Debug)]
pub struct AbstractPost<'a> {
    program: &'a Program,
    ctx: SolverContext,
    caching: bool,
    post_queries: u64,
}

impl<'a> AbstractPost<'a> {
    /// Creates the operator for a program, with both layers enabled.
    pub fn new(program: &'a Program) -> AbstractPost<'a> {
        AbstractPost::with_caching(program, true)
    }

    /// Creates the operator with both layers switched on or off (the
    /// uncached operator re-solves every query; results are identical).
    pub fn with_caching(program: &'a Program, caching: bool) -> AbstractPost<'a> {
        let ctx = if caching { SolverContext::new() } else { SolverContext::uncached() };
        AbstractPost { program, ctx, caching, post_queries: 0 }
    }

    /// Computes the abstract successor of `state` (at `t.from`) under
    /// transition `t`, tracking the predicates `preds` at `t.to`.
    ///
    /// Returns `None` if the transition is infeasible from the abstract
    /// state (the guard contradicts the known literals).
    ///
    /// # Errors
    ///
    /// Propagates solver errors.
    pub fn post(
        &mut self,
        state: &AbstractState,
        t: &Transition,
        preds: &[Formula],
    ) -> SmtResult<Option<AbstractState>> {
        self.post_queries += 1;
        let rel = t.action.to_relation(self.program.vars());
        // Scope the antecedent (known literals + transition relation) for
        // the whole group of queries about this edge.
        self.ctx.push();
        self.ctx.assume(state.to_formula());
        self.ctx.assume(rel);
        let carry = self.caching.then(|| t.action.assigned_vars());
        let result = Self::post_under_assumptions(&self.ctx, state, preds, carry.as_ref());
        self.ctx.pop();
        result
    }

    /// The cube computation proper, against the context's assumption stack.
    /// When `assigned` is given (incremental mode), literals decided in the
    /// source state whose variables the transition leaves untouched are
    /// carried over without a query.
    fn post_under_assumptions(
        ctx: &SolverContext,
        state: &AbstractState,
        preds: &[Formula],
        assigned: Option<&BTreeSet<pathinv_ir::Symbol>>,
    ) -> SmtResult<Option<AbstractState>> {
        // Infeasible edges produce no abstract successor.
        if !ctx.is_sat()? {
            return Ok(None);
        }
        let mut literals = BTreeSet::new();
        for p in preds {
            if let Some(assigned) = assigned {
                if p.var_names().is_disjoint(assigned) {
                    // Frame-preserving edge for this predicate: a decided
                    // literal survives verbatim; an undecided one must still
                    // be queried (the guard may newly decide it).
                    if state.contains(p) {
                        literals.insert(p.clone());
                        continue;
                    }
                    if !p.has_quantifier() {
                        let negated = p.clone().not();
                        if state.contains(&negated) {
                            literals.insert(negated);
                            continue;
                        }
                    }
                }
            }
            let primed = p.primed();
            if ctx.entails(&primed)? {
                literals.insert(p.clone());
            } else if !p.has_quantifier() {
                // Track the negative literal as well when it is provable
                // (negating a quantified predicate is outside the solver's
                // fragment, so quantified predicates are only tracked
                // positively).
                let negated = p.clone().not();
                if ctx.entails(&negated.primed())? {
                    literals.insert(negated);
                }
            }
        }
        Ok(Some(AbstractState { literals }))
    }

    /// Cache-usage counters accumulated by this operator.
    pub fn stats(&self) -> PostStats {
        let c = self.ctx.stats();
        PostStats {
            post_queries: self.post_queries,
            smt_queries: c.queries,
            query_cache_hits: c.cache_hits,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathinv_ir::{corpus, Term};

    #[test]
    fn predicate_map_deduplicates() {
        let mut pm = PredicateMap::new();
        let p = Formula::le(Term::var("x"), Term::int(0));
        assert!(pm.add(Loc(1), p.clone()));
        assert!(!pm.add(Loc(1), p.clone()));
        assert!(!pm.add(Loc(1), Formula::True));
        assert_eq!(pm.len(), 1);
        assert_eq!(pm.at(Loc(1)).len(), 1);
        assert!(pm.at(Loc(2)).is_empty());
    }

    #[test]
    fn add_conjuncts_splits() {
        let mut pm = PredicateMap::new();
        let f = Formula::and(vec![
            Formula::le(Term::var("x"), Term::int(0)),
            Formula::ge(Term::var("y"), Term::int(1)),
        ]);
        assert_eq!(pm.add_conjuncts(Loc(0), &f), 2);
        assert_eq!(pm.add_conjuncts(Loc(0), &f), 0);
    }

    #[test]
    fn subsumption_is_literal_containment() {
        let p = Formula::le(Term::var("x"), Term::int(0));
        let q = Formula::ge(Term::var("y"), Term::int(1));
        let strong = AbstractState::from_literals(vec![p.clone(), q.clone()]);
        let weak = AbstractState::from_literals(vec![p.clone()]);
        assert!(strong.subsumed_by(&weak));
        assert!(!weak.subsumed_by(&strong));
        assert!(weak.subsumed_by(&AbstractState::top()));
    }

    #[test]
    fn post_tracks_predicates_across_assignment() {
        let p = corpus::forward();
        let mut post = AbstractPost::new(&p);
        // Transition L0b -> L1: i := 0; a := 0; b := 0.
        let tid = corpus::find_transition(&p, "L0b", "L1");
        let t = p.transition(tid).clone();
        let preds = vec![
            Formula::eq(Term::var("a").add(Term::var("b")), Term::int(3).mul(Term::var("i"))),
            Formula::ge(Term::var("i"), Term::int(1)),
        ];
        let next = post.post(&AbstractState::top(), &t, &preds).unwrap().unwrap();
        // After the initialisation a + b = 3i holds and i >= 1 is refuted.
        assert!(next.literals().any(|l| l == &preds[0]));
        assert!(next.literals().any(|l| l.to_string().contains("i < 1")));
    }

    #[test]
    fn post_detects_infeasible_guard() {
        let p = corpus::forward();
        let mut post = AbstractPost::new(&p);
        // Loop-entry guard [i < n] is infeasible from a state knowing i >= n.
        let tid = corpus::find_transition(&p, "L1", "L2");
        let t = p.transition(tid).clone();
        let state = AbstractState::from_literals(vec![Formula::ge(Term::var("i"), Term::var("n"))]);
        assert!(post.post(&state, &t, &[]).unwrap().is_none());
    }

    #[test]
    fn quantified_predicates_are_tracked_positively() {
        let p = corpus::initcheck();
        let mut post = AbstractPost::new(&p);
        let k = pathinv_ir::Symbol::intern("k");
        let inv = Formula::forall(
            vec![k],
            Formula::and(vec![
                Formula::le(Term::int(0), Term::Bound(k)),
                Formula::le(Term::Bound(k), Term::var("i").sub(Term::int(1))),
            ])
            .implies(Formula::eq(Term::var("a").select(Term::Bound(k)), Term::int(0))),
        );
        // Transition L2b -> L1: i := i + 1 — after writing a[i] := 0 the
        // invariant would be preserved; here we check it is at least tracked
        // when implied (the state also knows a[i] = 0).
        let tid = corpus::find_transition(&p, "L2b", "L1");
        let t = p.transition(tid).clone();
        let state = AbstractState::from_literals(vec![
            inv.clone(),
            Formula::eq(Term::var("a").select(Term::var("i")), Term::int(0)),
            Formula::ge(Term::var("i"), Term::int(0)),
        ]);
        let next = post.post(&state, &t, std::slice::from_ref(&inv)).unwrap().unwrap();
        assert!(next.literals().any(|l| l == &inv), "quantified predicate must be preserved");
    }

    #[test]
    fn repeated_posts_hit_the_query_cache_and_agree_with_fresh_results() {
        let p = corpus::forward();
        let mut cached = AbstractPost::new(&p);
        let mut fresh = AbstractPost::with_caching(&p, false);
        let tid = corpus::find_transition(&p, "L0b", "L1");
        let t = p.transition(tid).clone();
        let preds = vec![Formula::ge(Term::var("i"), Term::int(0))];
        let first = cached.post(&AbstractState::top(), &t, &preds).unwrap();
        let after_first = cached.stats();
        let smt_before = pathinv_smt::stats_snapshot();
        let second = cached.post(&AbstractState::top(), &t, &preds).unwrap();
        let smt = pathinv_smt::stats_snapshot().since(&smt_before);
        assert_eq!(first, second, "a re-expanded cube must replay the identical result");
        let stats = cached.stats();
        assert_eq!(stats.post_queries, 2);
        assert!(
            stats.query_cache_hits > after_first.query_cache_hits,
            "the repeated cube must be answered from the query cache: {stats:?}"
        );
        assert_eq!(smt.simplex_calls, 0, "a replayed cube must build no tableau: {smt:?}");
        assert_eq!(smt.simplex_warm_checks, 0, "a replayed cube must re-check nothing: {smt:?}");
        // The uncached operator answers identically but never hits.
        let plain = fresh.post(&AbstractState::top(), &t, &preds).unwrap();
        assert_eq!(plain, first);
        fresh.post(&AbstractState::top(), &t, &preds).unwrap();
        assert!(fresh.stats().query_cache_hits == 0, "uncached context must not cache");
    }

    #[test]
    fn memo_is_invalidated_when_the_predicate_set_grows() {
        // The scenario of a refinement step: the same (state, transition)
        // pair is re-expanded after the predicate map gained a predicate.
        // The cube for the old set must NOT be replayed — the new predicate
        // has to show up in the result.
        let p = corpus::forward();
        let mut post = AbstractPost::new(&p);
        let tid = corpus::find_transition(&p, "L0b", "L1");
        let t = p.transition(tid).clone();
        let p1 = Formula::ge(Term::var("i"), Term::int(0));
        let p2 = Formula::eq(Term::var("a").add(Term::var("b")), Term::int(3).mul(Term::var("i")));
        let small =
            post.post(&AbstractState::top(), &t, std::slice::from_ref(&p1)).unwrap().unwrap();
        assert!(small.literals().any(|l| l == &p1));
        assert!(!small.literals().any(|l| l == &p2));
        let grown =
            post.post(&AbstractState::top(), &t, &[p1.clone(), p2.clone()]).unwrap().unwrap();
        assert!(
            grown.literals().any(|l| l == &p2),
            "the new predicate must be tracked after growth, not masked by a stale cube"
        );
        let stats = post.stats();
        // The entailment about p1 under the identical antecedent, however,
        // replays from the query cache instead of re-solving.
        assert!(stats.query_cache_hits >= 1, "per-predicate queries must be reused: {stats:?}");
        // And the recomputed cube still agrees with the old one on p1.
        assert!(grown.literals().any(|l| l == &p1));
    }
}
