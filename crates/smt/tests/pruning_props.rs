//! Soundness property test for the case-split pruning of the combined
//! solver: random ground conjunctions over a short store chain
//! (`a1 = store(a0, ..)`, `a2 = store(a1, ..)`, alias `a3 = a2`) with reads
//! at small constant and SSA-variable indices are checked against a
//! brute-force oracle that enumerates every integer assignment in a small
//! box.  Whenever the oracle finds a model, `Solver::check` must answer
//! `Sat` — a wrongly pushed constraint or a missed pop on the pruning
//! tableau shows up as a false `Unsat`.

use pathinv_ir::{Formula as F, Term};
use pathinv_smt::{SatResult, Solver};
use proptest::prelude::*;

/// Values every variable and base-array cell ranges over in the oracle.
const BOX: [i128; 3] = [0, 1, 2];

/// An index: a constant in the box or one of the SSA variables `i#0`,
/// `i#1`.
#[derive(Clone, Copy, Debug)]
enum Ix {
    Const(i128),
    Var(u32),
}

/// An integer operand: an index-like leaf or a read of array `a#k`.
#[derive(Clone, Copy, Debug)]
enum Val {
    Leaf(Ix),
    Read(u32, Ix),
}

#[derive(Clone, Copy, Debug)]
enum Op {
    Eq,
    Ne,
    Lt,
    Le,
}

#[derive(Clone, Debug)]
struct Query {
    /// `(index, value)` written by `a#1` and `a#2`.
    stores: [(Ix, Ix); 2],
    literals: Vec<(Val, Op, Val)>,
}

/// One assignment of the box: the SSA index variables and the base
/// array's cells.
struct Assignment {
    vars: [i128; 2],
    base: [i128; 3],
}

impl Query {
    fn ix_term(ix: Ix) -> Term {
        match ix {
            Ix::Const(c) => Term::int(c),
            Ix::Var(k) => Term::ivar("i", k),
        }
    }

    fn val_term(v: Val) -> Term {
        match v {
            Val::Leaf(ix) => Query::ix_term(ix),
            Val::Read(k, ix) => Term::ivar("a", k).select(Query::ix_term(ix)),
        }
    }

    fn formula(&self) -> F {
        let mut parts = vec![F::eq(Term::ivar("a", 3), Term::ivar("a", 2))];
        for (k, &(ix, val)) in (1u32..).zip(&self.stores) {
            parts.push(F::eq(
                Term::ivar("a", k),
                Term::ivar("a", k - 1).store(Query::ix_term(ix), Query::ix_term(val)),
            ));
        }
        for &(lhs, op, rhs) in &self.literals {
            let (l, r) = (Query::val_term(lhs), Query::val_term(rhs));
            parts.push(match op {
                Op::Eq => F::eq(l, r),
                Op::Ne => F::ne(l, r),
                Op::Lt => F::lt(l, r),
                Op::Le => F::le(l, r),
            });
        }
        F::and(parts)
    }

    fn eval_ix(a: &Assignment, ix: Ix) -> i128 {
        match ix {
            Ix::Const(c) => c,
            Ix::Var(k) => a.vars[k as usize],
        }
    }

    /// The value of `a#k[j]`, walking the store chain down to the base.
    fn read(&self, a: &Assignment, k: u32, j: i128) -> i128 {
        match k.min(2) {
            0 => a.base[usize::try_from(j).expect("indices stay in the box")],
            k => {
                let (ix, val) = self.stores[k as usize - 1];
                if Query::eval_ix(a, ix) == j {
                    Query::eval_ix(a, val)
                } else {
                    self.read(a, k - 1, j)
                }
            }
        }
    }

    fn eval_val(&self, a: &Assignment, v: Val) -> i128 {
        match v {
            Val::Leaf(ix) => Query::eval_ix(a, ix),
            Val::Read(k, ix) => self.read(a, k, Query::eval_ix(a, ix)),
        }
    }

    fn holds(&self, a: &Assignment) -> bool {
        self.literals.iter().all(|&(lhs, op, rhs)| {
            let (l, r) = (self.eval_val(a, lhs), self.eval_val(a, rhs));
            match op {
                Op::Eq => l == r,
                Op::Ne => l != r,
                Op::Lt => l < r,
                Op::Le => l <= r,
            }
        })
    }

    /// Brute force over the box: some assignment satisfying every literal.
    fn oracle_model(&self) -> Option<Assignment> {
        for v0 in BOX {
            for v1 in BOX {
                for b0 in BOX {
                    for b1 in BOX {
                        for b2 in BOX {
                            let a = Assignment { vars: [v0, v1], base: [b0, b1, b2] };
                            if self.holds(&a) {
                                return Some(a);
                            }
                        }
                    }
                }
            }
        }
        None
    }
}

fn ix_strategy() -> impl Strategy<Value = Ix> {
    prop_oneof![(0i128..3).prop_map(Ix::Const), (0u32..2).prop_map(Ix::Var)]
}

fn val_strategy() -> impl Strategy<Value = Val> {
    prop_oneof![
        ix_strategy().prop_map(Val::Leaf),
        (0u32..4, ix_strategy()).prop_map(|(k, ix)| Val::Read(k, ix)),
        (0u32..4, ix_strategy()).prop_map(|(k, ix)| Val::Read(k, ix)),
    ]
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![Just(Op::Eq), Just(Op::Ne), Just(Op::Ne), Just(Op::Lt), Just(Op::Le)]
}

fn query_strategy() -> impl Strategy<Value = Query> {
    let store = || (ix_strategy(), ix_strategy());
    let literal = (val_strategy(), op_strategy(), val_strategy());
    (store(), store(), proptest::collection::vec(literal, 1..7))
        .prop_map(|(s1, s2, literals)| Query { stores: [s1, s2], literals })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(384))]

    /// Pruning never refutes a conjunction with an integer model.
    #[test]
    fn pruning_never_refutes_a_satisfiable_conjunction(query in query_strategy()) {
        let verdict = Solver::new().check(&query.formula()).expect("ground linear queries decide");
        if let Some(a) = query.oracle_model() {
            prop_assert!(
                matches!(verdict, SatResult::Sat(_)),
                "false unsat: model i = {:?}, a0 = {:?} satisfies {}",
                a.vars,
                a.base,
                query.formula()
            );
        }
    }
}
