//! Soundness property test for the refuter: random conjunctions of linear
//! atoms (`=`, `≤`, `<`, `≠`) over two or three integer variables with small
//! coefficients are checked against a brute-force oracle that enumerates
//! the box [−6, 6]³.  Whenever the oracle finds an integer model,
//! `Refuter::refute` must not answer `Refuted` — a relaxation or split that
//! drops or rewrites a literal unsoundly shows up as a false refutation.

use pathinv_check::{CheckLimits, Refutation, Refuter};
use pathinv_ir::{Formula as F, Term};
use proptest::prelude::*;

/// Values every variable ranges over in the oracle.
const BOX: std::ops::RangeInclusive<i128> = -6..=6;

#[derive(Clone, Copy, Debug)]
enum Op {
    Eq,
    Le,
    Lt,
    Ne,
}

/// `c₀·x + c₁·y + c₂·z  op  k`.
#[derive(Clone, Copy, Debug)]
struct Literal {
    coeffs: [i128; 3],
    op: Op,
    k: i128,
}

#[derive(Clone, Debug)]
struct Query {
    /// Variables in play: `x, y` or `x, y, z` (the others get coefficient 0).
    vars: usize,
    literals: Vec<Literal>,
}

const NAMES: [&str; 3] = ["x", "y", "z"];

impl Query {
    fn formula(&self) -> F {
        let parts = self.literals.iter().map(|l| {
            let mut lhs = Term::int(0);
            for (v, &c) in l.coeffs.iter().enumerate().take(self.vars) {
                lhs = lhs.add(Term::int(c).mul(Term::var(NAMES[v])));
            }
            let rhs = Term::int(l.k);
            match l.op {
                Op::Eq => F::eq(lhs, rhs),
                Op::Le => F::le(lhs, rhs),
                Op::Lt => F::lt(lhs, rhs),
                Op::Ne => F::ne(lhs, rhs),
            }
        });
        F::and(parts.collect())
    }

    fn holds(&self, point: [i128; 3]) -> bool {
        self.literals.iter().all(|l| {
            let lhs: i128 = l.coeffs.iter().zip(point).take(self.vars).map(|(c, v)| c * v).sum();
            match l.op {
                Op::Eq => lhs == l.k,
                Op::Le => lhs <= l.k,
                Op::Lt => lhs < l.k,
                Op::Ne => lhs != l.k,
            }
        })
    }

    /// Brute force over the box: some point satisfying every literal.
    fn oracle_model(&self) -> Option<[i128; 3]> {
        let zs = if self.vars == 3 { BOX } else { 0..=0 };
        for x in BOX {
            for y in BOX {
                for z in zs.clone() {
                    if self.holds([x, y, z]) {
                        return Some([x, y, z]);
                    }
                }
            }
        }
        None
    }
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![Just(Op::Eq), Just(Op::Le), Just(Op::Lt), Just(Op::Ne), Just(Op::Ne)]
}

fn literal_strategy() -> impl Strategy<Value = Literal> {
    (-2i128..=2, -2i128..=2, -2i128..=2, op_strategy(), -4i128..=4)
        .prop_map(|(a, b, c, op, k)| Literal { coeffs: [a, b, c], op, k })
}

fn query_strategy() -> impl Strategy<Value = Query> {
    (2usize..=3, proptest::collection::vec(literal_strategy(), 1..7))
        .prop_map(|(vars, literals)| Query { vars, literals })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// The refuter never refutes a conjunction with an integer model.
    #[test]
    fn refuter_never_refutes_a_satisfiable_conjunction(query in query_strategy()) {
        let verdict = Refuter::new(&CheckLimits::default()).refute(&query.formula());
        if verdict == Refutation::Refuted {
            let model = query.oracle_model();
            prop_assert!(
                model.is_none(),
                "false refutation: (x, y, z) = {:?} satisfies {}",
                model,
                query.formula()
            );
        }
    }
}
