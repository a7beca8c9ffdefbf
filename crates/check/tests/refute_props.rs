//! Soundness property test for the refuter: random conjunctions of linear
//! atoms (`=`, `≤`, `<`, `≠`) over two or three integer variables with small
//! coefficients are checked against a brute-force oracle that enumerates
//! the box [−6, 6]³.  Whenever the oracle finds an integer model,
//! `Refuter::refute` must not answer `Refuted` — a relaxation or split that
//! drops or rewrites a literal unsoundly shows up as a false refutation.
//!
//! The single-premise rule (`Premises`) answers `Refuted` for `P ∧ ¬c`
//! without a query, so it must claim only what the refuter proves: whenever
//! `Premises::entails(c)` holds, `Refuter::refute(P ∧ ¬c)` is `Refuted`.

use pathinv_check::{CheckLimits, Premises, Refutation, Refuter};
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
        F::and(self.literals.iter().map(|l| self.atom(l)).collect())
    }

    /// One literal over this query's variables.
    fn atom(&self, l: &Literal) -> F {
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

/// Premises and a conclusion for the single-premise rule: the conclusion
/// is a random literal, or one premise scaled by a positive factor,
/// optionally flipped (`e ⋈ k` becomes `−e ⋈ −k`), with its operator
/// redrawn and its constant shifted — so it is entailed by that premise in
/// some cases and not in others.
fn entailment_strategy() -> impl Strategy<Value = (Query, Literal)> {
    (query_strategy(), 0usize..8, 1i128..=3, (0u8..2, -1i128..=2), literal_strategy(), 0u8..3)
        .prop_map(|(query, pick, scale, (flip, shift), random, kind)| {
            let premise = query.literals[pick % query.literals.len()];
            let sign = if flip == 1 { -scale } else { scale };
            let conclusion = match kind {
                0 => random,
                _ => Literal {
                    coeffs: premise.coeffs.map(|c| sign * c),
                    op: if kind == 1 { premise.op } else { random.op },
                    k: sign * premise.k + shift,
                },
            };
            (query, conclusion)
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// A conclusion one premise entails is refuted by the refuter as well.
    #[test]
    fn single_premise_entailment_implies_refutation(case in entailment_strategy()) {
        let (query, conclusion) = case;
        let premises = query.formula();
        let c = query.atom(&conclusion);
        if Premises::new(&[&premises]).entails(&c) {
            let negated = F::and(vec![premises.clone(), c.clone().not()]);
            let verdict = Refuter::new(&CheckLimits::default()).refute(&negated);
            prop_assert!(verdict == Refutation::Refuted, "{} entails {}: {:?}", premises, c, verdict);
        }
    }

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

/// Asserts that `premises` entail each of `entailed` (and that the refuter
/// agrees) and none of `not_entailed`.
fn assert_entailment(premises: &F, entailed: &[F], not_entailed: &[F]) {
    let index = Premises::new(&[premises]);
    for c in entailed {
        assert!(index.entails(c), "{premises} should entail {c}");
        let negated = F::and(vec![premises.clone(), c.clone().not()]);
        assert_eq!(Refuter::new(&CheckLimits::default()).refute(&negated), Refutation::Refuted);
    }
    for c in not_entailed {
        assert!(!index.entails(c), "{premises} should not entail {c}");
    }
}

#[test]
fn equation_premises_count_both_ways() {
    let (x, y) = (Term::var("x"), Term::var("y"));
    let sum = x.clone().add(y.clone());
    let swapped = y.clone().add(x.clone());
    let double = Term::int(2).mul(x).add(Term::int(2).mul(y));
    assert_entailment(
        &F::eq(sum.clone(), Term::int(5)),
        &[
            F::le(sum.clone(), Term::int(5)),
            F::ge(sum.clone(), Term::int(5)),
            F::le(swapped.clone(), Term::int(7)),
            F::ge(sum.clone(), Term::int(4)),
            F::gt(sum.clone(), Term::int(4)),
            F::eq(swapped.clone(), Term::int(5)),
            F::eq(Term::int(5), sum.clone()),
            F::le(double, Term::int(11)),
        ],
        &[
            F::le(sum.clone(), Term::int(4)),
            F::ge(sum.clone(), Term::int(6)),
            F::eq(sum, Term::int(4)),
            F::le(Term::var("x"), Term::int(5)),
        ],
    );
    // Two opposite inequalities entail the equation between them.
    let (x, y) = (Term::var("x"), Term::var("y"));
    let both = F::and(vec![F::le(x.clone(), y.clone()), F::ge(x.clone(), y.clone())]);
    assert_entailment(&both, &[F::eq(y.clone(), x.clone())], &[F::lt(x, y)]);
}

#[test]
fn strict_premises_and_conclusions_tighten_to_le() {
    let x = Term::var("x");
    let two_x = Term::int(2).mul(x.clone());
    // x < 5 is x ≤ 4 over the integers.
    assert_entailment(
        &F::lt(x.clone(), Term::int(5)),
        &[
            F::le(x.clone(), Term::int(4)),
            F::lt(x.clone(), Term::int(5)),
            F::lt(two_x.clone(), Term::int(9)),
        ],
        &[F::le(x.clone(), Term::int(3)), F::lt(x.clone(), Term::int(4))],
    );
    // 2x < 7 is x ≤ 3.
    assert_entailment(
        &F::lt(two_x, Term::int(7)),
        &[F::le(x.clone(), Term::int(3))],
        &[F::le(x.clone(), Term::int(2))],
    );
    assert_entailment(&F::le(x.clone(), Term::int(4)), &[F::lt(x, Term::int(5))], &[]);
}

#[test]
fn disequalities_array_reads_and_nonlinear_atoms_are_never_entailed() {
    let (x, y, i) = (Term::var("x"), Term::var("y"), Term::var("i"));
    let (a, b) = (Term::var("a"), Term::var("b"));
    // Disequalities, as premise or as conclusion.
    let ne = F::ne(x.clone(), Term::int(0));
    assert_entailment(&ne, &[], std::slice::from_ref(&ne));
    assert_entailment(&F::eq(x.clone(), Term::int(0)), &[], &[F::ne(x.clone(), Term::int(1))]);
    // Array reads.
    let read = a.clone().select(i.clone());
    let read_is_zero = F::eq(read.clone(), Term::int(0));
    assert_entailment(&read_is_zero, &[], std::slice::from_ref(&read_is_zero));
    assert_entailment(
        &F::le(read.clone(), Term::int(3)),
        &[],
        &[F::le(read.clone(), Term::int(5))],
    );
    // Variables the refuter may treat as arrays: select bases, their
    // aliases, and variables defined by a store.
    let alias = F::eq(a.clone(), b.clone());
    assert_entailment(&F::and(vec![alias.clone(), read_is_zero]), &[], &[alias]);
    let stored = Term::var("c");
    let premises = F::and(vec![
        F::eq(stored.clone(), a.store(i, Term::int(0))),
        F::eq(stored.clone(), b.clone()),
    ]);
    assert_entailment(&premises, &[], &[F::eq(b, stored)]);
    // Non-linear atoms.
    let product = x.clone().mul(y);
    assert_entailment(&F::le(product.clone(), Term::int(3)), &[], &[F::le(product, Term::int(5))]);
    // Only top-level conjuncts are premises.
    let either = F::or(vec![F::le(x.clone(), Term::int(1)), F::le(x.clone(), Term::int(2))]);
    assert_entailment(&either, &[], &[F::le(x, Term::int(2))]);
}
