//! Property tests for the incremental solving layer: a [`SolverContext`]
//! driven through a random sequence of push/assume/pop operations must
//! answer every satisfiability and entailment query exactly like a fresh
//! stateless [`Solver`] given the equivalent conjunction — with caching on
//! (where repeated stack states replay memoized answers) and with caching
//! off.  The stacks mix linear atoms (decided on the context's live
//! tableau) with disjunctions and array reads (which send a query to the
//! stateless solver unless the tableau refutes it), so the warm path and
//! the cold fallback interleave on one context.  This is the soundness
//! argument for both the live tableau and the query cache: a warm answer
//! and a cache hit are observationally indistinguishable from re-solving.

use pathinv_ir::{Formula, Term};
use pathinv_smt::{stats_snapshot, SmtError, Solver, SolverContext};
use proptest::prelude::*;

/// One step of a random interaction with the context.
#[derive(Clone, Debug)]
enum StackOp {
    Push,
    Pop,
    Assume(Formula),
}

/// A random linear atom `a*x + b*y + c ⋈ 0` over two variables with small
/// coefficients — small enough that conjunctions stay cheap to decide, rich
/// enough to produce both satisfiable and unsatisfiable stacks.  Every
/// relation occurs, disequalities included.
fn atom_strategy() -> impl Strategy<Value = Formula> {
    (-3i128..=3, -3i128..=3, -4i128..=4, 0u8..=4).prop_map(|(a, b, c, op)| {
        let lhs = Term::int(a)
            .mul(Term::var("x"))
            .add(Term::int(b).mul(Term::var("y")))
            .add(Term::int(c));
        let rhs = Term::int(0);
        match op {
            0 => Formula::le(lhs, rhs),
            1 => Formula::lt(lhs, rhs),
            2 => Formula::ge(lhs, rhs),
            3 => Formula::eq(lhs, rhs),
            _ => Formula::ne(lhs, rhs),
        }
    })
}

/// An atom over an array read: `a[x + k] ⋈ y + c`.
fn read_strategy() -> impl Strategy<Value = Formula> {
    (-1i128..=1, -2i128..=2, 0u8..=2).prop_map(|(k, c, op)| {
        let read = Term::var("a").select(Term::var("x").add(Term::int(k)));
        let rhs = Term::var("y").add(Term::int(c));
        match op {
            0 => Formula::eq(read, rhs),
            1 => Formula::ne(read, rhs),
            _ => Formula::le(read, rhs),
        }
    })
}

/// An assumption: mostly linear atoms (and conjunctions of them), with
/// disjunctions and array reads mixed in.
fn assumption_strategy() -> impl Strategy<Value = Formula> {
    prop_oneof![
        atom_strategy(),
        atom_strategy(),
        atom_strategy(),
        (atom_strategy(), atom_strategy()).prop_map(|(a, b)| Formula::and(vec![a, b])),
        (atom_strategy(), atom_strategy()).prop_map(|(a, b)| Formula::or(vec![a, b])),
        read_strategy(),
    ]
}

fn op_strategy() -> impl Strategy<Value = StackOp> {
    prop_oneof![
        Just(StackOp::Push),
        Just(StackOp::Pop),
        assumption_strategy().prop_map(StackOp::Assume),
        assumption_strategy().prop_map(StackOp::Assume),
    ]
}

/// A query against the current stack.
#[derive(Clone, Debug)]
enum Query {
    IsSat,
    IsSatWith(Formula),
    Entails(Formula),
}

fn query_strategy() -> impl Strategy<Value = Query> {
    prop_oneof![
        Just(Query::IsSat),
        assumption_strategy().prop_map(Query::IsSatWith),
        atom_strategy().prop_map(Query::Entails),
        atom_strategy().prop_map(|a| Query::Entails(a.not())),
        read_strategy().prop_map(Query::Entails),
    ]
}

impl Query {
    fn ask(&self, ctx: &SolverContext) -> bool {
        match self {
            Query::IsSat => ctx.is_sat(),
            Query::IsSatWith(f) => ctx.is_sat_with(f),
            Query::Entails(f) => ctx.entails(f),
        }
        .expect("context queries stay in budget")
    }

    fn ask_fresh(&self, conjunction: &Formula) -> bool {
        let fresh = Solver::new();
        match self {
            Query::IsSat => fresh.is_sat(conjunction),
            Query::IsSatWith(f) => {
                fresh.is_sat(&Formula::and(vec![conjunction.clone(), f.clone()]))
            }
            Query::Entails(f) => fresh.entails(conjunction, f),
        }
        .expect("small systems stay in budget")
    }
}

/// A shadow model of the context: the flat assumption list plus the frame
/// heights, maintained with plain `Vec` operations.
#[derive(Default)]
struct Shadow {
    assumptions: Vec<Formula>,
    frames: Vec<usize>,
}

impl Shadow {
    fn apply(&mut self, op: &StackOp) {
        match op {
            StackOp::Push => self.frames.push(self.assumptions.len()),
            StackOp::Pop => {
                if let Some(h) = self.frames.pop() {
                    self.assumptions.truncate(h);
                }
            }
            StackOp::Assume(f) => self.assumptions.push(f.clone()),
        }
    }

    fn conjunction(&self) -> Formula {
        Formula::and(self.assumptions.clone())
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// After every operation of a random stack script, the context's
    /// answer to a random query — satisfiability of the stack, of the stack
    /// with an extra formula, or entailment of a literal — equals a fresh
    /// solver's answer on the equivalent conjunction, for the cached and
    /// the uncached context alike.
    #[test]
    fn random_stack_scripts_match_fresh_solver(
        steps in proptest::collection::vec((op_strategy(), query_strategy()), 1..12),
    ) {
        let mut cached = SolverContext::new();
        let mut uncached = SolverContext::uncached();
        let mut shadow = Shadow::default();
        for (op, query) in &steps {
            for ctx in [&mut cached, &mut uncached] {
                match op {
                    StackOp::Push => ctx.push(),
                    StackOp::Pop => {
                        ctx.pop();
                    }
                    StackOp::Assume(f) => ctx.assume(f.clone()),
                }
            }
            shadow.apply(op);
            prop_assert_eq!(cached.num_assumptions(), shadow.assumptions.len());
            let conjunction = shadow.conjunction();
            let expected = Query::IsSat.ask_fresh(&conjunction);
            prop_assert_eq!(cached.is_sat().expect("context must stay in budget"), expected);
            prop_assert_eq!(uncached.is_sat().expect("context must stay in budget"), expected);
            let expected = query.ask_fresh(&conjunction);
            prop_assert_eq!(query.ask(&cached), expected);
            prop_assert_eq!(query.ask(&uncached), expected);
        }
        // Entailment of each assumed literal (and one foreign atom) must also
        // match the fresh solver on the final stack.
        let ante = shadow.conjunction();
        let mut goals: Vec<Formula> = shadow.assumptions.clone();
        goals.push(Formula::ge(Term::var("x").add(Term::var("y")), Term::int(-9)));
        for goal in goals {
            let expected = Solver::new().entails(&ante, &goal).expect("entailment stays in budget");
            prop_assert_eq!(cached.entails(&goal).expect("context entailment"), expected);
            prop_assert_eq!(uncached.entails(&goal).expect("context entailment"), expected);
        }
        let stats = cached.stats();
        prop_assert!(stats.cache_hits <= stats.queries);
    }

    /// Replaying an identical stack script against the *same* context
    /// answers every query from the id-keyed cache: the hash-consed
    /// cons-chain stack identity is reproducible, so the second pass adds
    /// no cache entries, hits on every query, and agrees with the first
    /// pass (and therefore with the fresh solver, by the test above).
    #[test]
    fn replayed_scripts_hit_the_id_keyed_cache(ops in proptest::collection::vec(op_strategy(), 1..10)) {
        let mut ctx = SolverContext::new();
        let run = |ctx: &mut SolverContext| -> Vec<bool> {
            // An outer frame brackets the whole script so the replay starts
            // from the identical (empty) stack; script pops never cross it.
            ctx.push();
            let mut answers = Vec::new();
            for op in &ops {
                match op {
                    StackOp::Push => ctx.push(),
                    StackOp::Pop => {
                        if ctx.depth() > 1 {
                            ctx.pop();
                        }
                    }
                    StackOp::Assume(f) => ctx.assume(f.clone()),
                }
                answers.push(ctx.is_sat().expect("small systems stay in budget"));
            }
            while ctx.depth() > 0 {
                ctx.pop();
            }
            answers
        };
        let first = run(&mut ctx);
        let entries_after_first = ctx.stats().cache_entries;
        let hits_before = ctx.stats().cache_hits;
        let second = run(&mut ctx);
        prop_assert_eq!(first, second);
        let stats = ctx.stats();
        prop_assert_eq!(stats.cache_entries, entries_after_first);
        prop_assert_eq!(stats.cache_hits, hits_before + ops.len() as u64);
    }

    /// Popping every frame restores the exact pre-push answers: the stack is
    /// checked before pushing, after pushing extra constraints, and after
    /// popping them again.
    #[test]
    fn pop_restores_previous_answers(
        base in proptest::collection::vec(assumption_strategy(), 0..4),
        extra in proptest::collection::vec(assumption_strategy(), 1..4),
    ) {
        let fresh = Solver::new();
        let mut ctx = SolverContext::new();
        for f in &base {
            ctx.assume(f.clone());
        }
        let before = ctx.is_sat().expect("base stack in budget");
        prop_assert_eq!(before, fresh.is_sat(&Formula::and(base.clone())).unwrap());
        ctx.push();
        for f in &extra {
            ctx.assume(f.clone());
        }
        let mut all = base.clone();
        all.extend(extra.iter().cloned());
        let inner = ctx.is_sat().expect("pushed stack in budget");
        prop_assert_eq!(inner, fresh.is_sat(&Formula::and(all)).unwrap());
        prop_assert!(ctx.pop());
        let after = ctx.is_sat().expect("post-pop stack in budget");
        prop_assert_eq!(after, before);
        // The post-pop query is a replay of the pre-push query: cache hit.
        prop_assert!(ctx.stats().cache_hits >= 1);
    }
}

/// A linear stack with a disequality is decided on the live tableau: after
/// the first query builds it, push/assume/query/pop rounds cost warm
/// re-checks only — no cold simplex build and no combined-solver call —
/// including the rounds whose answer needs the disequality split.
#[test]
fn linear_rounds_stay_warm_after_the_first_query() {
    let x = || Term::var("x");
    let mut ctx = SolverContext::uncached();
    ctx.assume(Formula::ge(x(), Term::int(5)));
    ctx.assume(Formula::ne(x(), Term::int(5)));
    assert!(ctx.is_sat().unwrap());
    let before = stats_snapshot();
    for k in 4..12 {
        ctx.push();
        ctx.assume(Formula::le(x(), Term::int(k)));
        // x in [5, k] without 5: empty for k <= 5.
        assert_eq!(ctx.is_sat().unwrap(), k > 5, "k = {k}");
        assert!(ctx.entails(&Formula::le(x(), Term::int(k + 1))).unwrap());
        assert_eq!(ctx.entails(&Formula::eq(x(), Term::int(6))).unwrap(), k <= 6, "k = {k}");
        assert!(!ctx.is_sat_with(&Formula::eq(x(), Term::int(5))).unwrap());
        assert!(ctx.pop());
    }
    let spent = stats_snapshot().since(&before);
    assert_eq!(spent.simplex_calls, 0, "{spent:?}");
    assert_eq!(spent.sat_checks, 0, "{spent:?}");
    assert!(spent.simplex_warm_checks > 0, "{spent:?}");
}

/// A stack with an array read is refuted warm when its linear part is
/// infeasible, and otherwise falls back to the stateless solver.
#[test]
fn array_reads_fall_back_cold_unless_refuted_warm() {
    let mut ctx = SolverContext::uncached();
    ctx.assume(Formula::eq(Term::var("a").select(Term::var("i")), Term::int(1)));
    ctx.assume(Formula::ge(Term::var("i"), Term::int(0)));
    let before = stats_snapshot();
    assert!(!ctx.is_sat_with(&Formula::lt(Term::var("i"), Term::int(0))).unwrap());
    assert!(ctx.entails(&Formula::gt(Term::var("i"), Term::int(-1))).unwrap());
    assert_eq!(stats_snapshot().since(&before).sat_checks, 0, "refuted on the tableau");
    assert!(ctx.is_sat().unwrap());
    assert!(!ctx
        .entails(&Formula::eq(Term::var("a").select(Term::var("i")), Term::int(2)))
        .unwrap());
    assert_eq!(stats_snapshot().since(&before).sat_checks, 2, "reads go to the solver");
}

/// A warm-path error is returned from the query that met it, never raised
/// inside `assume`, and leaves the context usable: an atom whose
/// coefficients overflow while the stack is synced makes the query fail
/// with `Overflow`, a budget of one branch makes a disequality split fail
/// with `Budget`, and once those frames are popped the next query answers.
#[test]
fn warm_path_errors_are_returned_and_recovered_from() {
    let x = || Term::var("x");
    let mut ctx = SolverContext::with_solver(Solver::with_budget(1), false);
    ctx.assume(Formula::ge(x(), Term::int(0)));
    assert!(ctx.is_sat().unwrap());
    ctx.push();
    let huge = Term::int(i128::MAX).mul(x()).add(Term::int(i128::MAX).mul(x()));
    ctx.assume(Formula::le(huge, Term::int(0)));
    assert_eq!(ctx.is_sat(), Err(SmtError::Overflow));
    assert!(ctx.pop());
    assert!(ctx.is_sat().unwrap());
    ctx.push();
    ctx.assume(Formula::ne(x(), Term::int(1)));
    assert!(matches!(ctx.is_sat(), Err(SmtError::Budget { .. })));
    assert!(ctx.pop());
    assert!(!ctx.is_sat_with(&Formula::lt(x(), Term::int(0))).unwrap());
}
