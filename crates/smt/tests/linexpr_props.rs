//! Property test for `LinExpr`'s sorted sparse-vector storage: random
//! sequences of `add_term`, `add`, `sub`, `scale` and `substitute` over a
//! few registers must agree, after every step, with a `BTreeMap`-backed
//! reference model kept only here — the same terms in the same order, the
//! same constant, the same `coeff` answers, the same equalities between
//! registers, and the same overflow errors.  Coefficients mix small
//! fractions with values near the `i128` limits so overflow paths run too.

use pathinv_smt::{LinExpr, Rat, SmtResult};
use proptest::prelude::*;
use std::collections::BTreeMap;

/// Variables are small integers; `KEYS` of them are in play.
const KEYS: u8 = 6;
/// Expressions live in this many registers.
const REGS: usize = 3;

/// The reference: the map-backed expression `LinExpr` used to be.
#[derive(Clone, PartialEq, Debug)]
struct Model {
    coeffs: BTreeMap<u8, Rat>,
    constant: Rat,
}

impl Default for Model {
    fn default() -> Self {
        Model { coeffs: BTreeMap::new(), constant: Rat::ZERO }
    }
}

impl Model {
    fn add_term(&mut self, x: u8, c: Rat) -> SmtResult<()> {
        let entry = self.coeffs.entry(x).or_insert(Rat::ZERO);
        *entry = entry.add(c)?;
        if entry.is_zero() {
            self.coeffs.remove(&x);
        }
        Ok(())
    }

    fn add(&self, other: &Model) -> SmtResult<Model> {
        let mut out = self.clone();
        for (&k, &c) in &other.coeffs {
            out.add_term(k, c)?;
        }
        out.constant = out.constant.add(other.constant)?;
        Ok(out)
    }

    fn sub(&self, other: &Model) -> SmtResult<Model> {
        self.add(&other.scale(Rat::MINUS_ONE)?)
    }

    fn scale(&self, k: Rat) -> SmtResult<Model> {
        if k.is_zero() {
            return Ok(Model::default());
        }
        let mut coeffs = BTreeMap::new();
        for (&x, c) in &self.coeffs {
            coeffs.insert(x, c.mul(k)?);
        }
        Ok(Model { coeffs, constant: self.constant.mul(k)? })
    }

    fn substitute(&self, f: &impl Fn(u8) -> Model) -> SmtResult<Model> {
        let mut out = Model { coeffs: BTreeMap::new(), constant: self.constant };
        for (&x, &c) in &self.coeffs {
            out = out.add(&f(x).scale(c)?)?;
        }
        Ok(out)
    }
}

#[derive(Clone, Debug)]
enum Op {
    AddTerm {
        reg: usize,
        key: u8,
        c: Rat,
    },
    Add {
        dst: usize,
        lhs: usize,
        rhs: usize,
    },
    Sub {
        dst: usize,
        lhs: usize,
        rhs: usize,
    },
    Scale {
        dst: usize,
        src: usize,
        k: Rat,
    },
    /// `dst := src[x := regs[x % REGS] ⊕ shift]`: each variable becomes a
    /// register's expression, plus `shift·x` so results stay non-trivial.
    Substitute {
        dst: usize,
        src: usize,
        shift: Rat,
    },
}

fn rat_strategy() -> impl Strategy<Value = Rat> {
    let big =
        prop_oneof![Just(i128::MAX), Just(i128::MIN), Just(1i128 << 100), Just(-(1i128 << 90))];
    let num = prop_oneof![-4i128..=4, -4i128..=4, -4i128..=4, big];
    let den = prop_oneof![1i128..=3, 1i128..=3, Just(1i128 << 70)];
    (num, den).prop_map(|(n, d)| Rat::new(n, d).unwrap_or(Rat::ONE))
}

fn op_strategy() -> impl Strategy<Value = Op> {
    let reg = || 0usize..REGS;
    prop_oneof![
        (reg(), 0u8..KEYS, rat_strategy()).prop_map(|(reg, key, c)| Op::AddTerm { reg, key, c }),
        (reg(), 0u8..KEYS, rat_strategy()).prop_map(|(reg, key, c)| Op::AddTerm { reg, key, c }),
        (reg(), reg(), reg()).prop_map(|(dst, lhs, rhs)| Op::Add { dst, lhs, rhs }),
        (reg(), reg(), reg()).prop_map(|(dst, lhs, rhs)| Op::Sub { dst, lhs, rhs }),
        (reg(), reg(), rat_strategy()).prop_map(|(dst, src, k)| Op::Scale { dst, src, k }),
        (reg(), reg(), rat_strategy()).prop_map(|(dst, src, shift)| Op::Substitute {
            dst,
            src,
            shift
        }),
    ]
}

/// Asserts that the expression and the model agree on everything
/// observable.
fn same(e: &LinExpr<u8>, m: &Model) -> Result<(), TestCaseError> {
    let terms: Vec<(u8, Rat)> = e.terms().map(|(k, c)| (*k, c)).collect();
    let want: Vec<(u8, Rat)> = m.coeffs.iter().map(|(k, c)| (*k, *c)).collect();
    prop_assert_eq!(terms, want);
    prop_assert_eq!(e.constant_part(), m.constant);
    prop_assert_eq!(e.is_constant(), m.coeffs.is_empty());
    prop_assert_eq!(e.vars(), m.coeffs.keys().copied().collect::<Vec<_>>());
    for k in 0..KEYS {
        prop_assert_eq!(e.coeff(&k), m.coeffs.get(&k).copied().unwrap_or(Rat::ZERO));
    }
    Ok(())
}

/// Stores the outcome of one step in both register files, requiring the
/// same error when either side fails.
fn store(
    exprs: &mut [LinExpr<u8>],
    models: &mut [Model],
    dst: usize,
    got: SmtResult<LinExpr<u8>>,
    want: SmtResult<Model>,
) -> Result<(), TestCaseError> {
    match (got, want) {
        (Ok(e), Ok(m)) => {
            exprs[dst] = e;
            models[dst] = m;
        }
        (Err(a), Err(b)) => prop_assert_eq!(a, b),
        (got, want) => {
            prop_assert!(false, "outcomes differ: {:?} vs {:?}", got, want)
        }
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn sparse_vector_matches_map_model(ops in proptest::collection::vec(op_strategy(), 1..24)) {
        let mut exprs: Vec<LinExpr<u8>> = vec![LinExpr::zero(); REGS];
        let mut models: Vec<Model> = vec![Model::default(); REGS];
        for op in ops {
            match op {
                Op::AddTerm { reg, key, c } => {
                    let mut e = exprs[reg].clone();
                    let mut m = models[reg].clone();
                    let (got, want) = (e.add_term(key, c).map(|()| e), m.add_term(key, c).map(|()| m));
                    store(&mut exprs, &mut models, reg, got, want)?;
                }
                Op::Add { dst, lhs, rhs } => {
                    let got = exprs[lhs].add(&exprs[rhs]);
                    let want = models[lhs].add(&models[rhs]);
                    store(&mut exprs, &mut models, dst, got, want)?;
                }
                Op::Sub { dst, lhs, rhs } => {
                    let got = exprs[lhs].sub(&exprs[rhs]);
                    let want = models[lhs].sub(&models[rhs]);
                    store(&mut exprs, &mut models, dst, got, want)?;
                }
                Op::Scale { dst, src, k } => {
                    let got = exprs[src].scale(k);
                    let want = models[src].scale(k);
                    store(&mut exprs, &mut models, dst, got, want)?;
                }
                Op::Substitute { dst, src, shift } => {
                    let (es, ms) = (exprs.clone(), models.clone());
                    let got = exprs[src].substitute(&|x: &u8| {
                        let mut e = es[usize::from(*x) % REGS].clone();
                        e.add_term(*x, shift).map(|()| e).unwrap_or_default()
                    });
                    let want = models[src].substitute(&|x: u8| {
                        let mut m = ms[usize::from(x) % REGS].clone();
                        m.add_term(x, shift).map(|()| m).unwrap_or_default()
                    });
                    store(&mut exprs, &mut models, dst, got, want)?;
                }
            }
            for (e, m) in exprs.iter().zip(&models) {
                same(e, m)?;
            }
            for i in 0..REGS {
                for j in 0..REGS {
                    prop_assert_eq!(exprs[i] == exprs[j], models[i] == models[j]);
                }
            }
        }
    }
}
