//! Linear expressions and linear constraints.
//!
//! [`LinExpr`] is generic over the variable key type so the same machinery
//! serves both the decision procedures (variables are [`VarRef`]s) and the
//! template-based invariant generator (variables are template parameters or
//! pairs of parameter × program variable).

use crate::error::{SmtError, SmtResult};
use crate::rat::{checked_lcm, Rat};
use pathinv_ir::{Atom, RelOp, Term, VarRef};
use std::cmp::Ordering;
use std::fmt;

/// A linear expression `Σ cᵢ·xᵢ + c` with rational coefficients over
/// variables of type `K`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct LinExpr<K: Ord + Clone = VarRef> {
    /// The non-zero coefficients, strictly ascending by variable: a sorted
    /// sparse vector, so sums are one merge and a clone one allocation.
    coeffs: Vec<(K, Rat)>,
    constant: Rat,
}

impl<K: Ord + Clone> Default for LinExpr<K> {
    fn default() -> Self {
        LinExpr { coeffs: Vec::new(), constant: Rat::ZERO }
    }
}

impl<K: Ord + Clone> LinExpr<K> {
    /// The zero expression.
    pub fn zero() -> Self {
        Self::default()
    }

    /// A constant expression.
    pub fn constant(c: Rat) -> Self {
        LinExpr { coeffs: Vec::new(), constant: c }
    }

    /// The expression `1·x`.
    pub fn var(x: K) -> Self {
        LinExpr { coeffs: vec![(x, Rat::ONE)], constant: Rat::ZERO }
    }

    /// The expression `c·x`.
    pub fn scaled_var(x: K, c: Rat) -> Self {
        let coeffs = if c.is_zero() { Vec::new() } else { vec![(x, c)] };
        LinExpr { coeffs, constant: Rat::ZERO }
    }

    /// The constant part.
    pub fn constant_part(&self) -> Rat {
        self.constant
    }

    /// Where `x` is, or would be inserted, in `coeffs`.
    fn position(&self, x: &K) -> Result<usize, usize> {
        self.coeffs.binary_search_by(|(k, _)| k.cmp(x))
    }

    /// The coefficient of `x` (zero if absent).
    pub fn coeff(&self, x: &K) -> Rat {
        self.position(x).map_or(Rat::ZERO, |i| self.coeffs[i].1)
    }

    /// Iterates over the (variable, non-zero coefficient) pairs, in
    /// ascending variable order.
    pub fn terms(&self) -> impl Iterator<Item = (&K, Rat)> + '_ {
        self.coeffs.iter().map(|(k, c)| (k, *c))
    }

    /// The variables with non-zero coefficients.
    pub fn vars(&self) -> Vec<K> {
        self.coeffs.iter().map(|(k, _)| k.clone()).collect()
    }

    /// Returns `true` if the expression has no variable part.
    pub fn is_constant(&self) -> bool {
        self.coeffs.is_empty()
    }

    /// Adds `c·x` to the expression in place.
    pub fn add_term(&mut self, x: K, c: Rat) -> SmtResult<()> {
        match self.position(&x) {
            Ok(i) => {
                let sum = self.coeffs[i].1.add(c)?;
                if sum.is_zero() {
                    self.coeffs.remove(i);
                } else {
                    self.coeffs[i].1 = sum;
                }
            }
            Err(i) if !c.is_zero() => self.coeffs.insert(i, (x, c)),
            Err(_) => {}
        }
        Ok(())
    }

    /// Adds a constant in place.
    pub fn add_constant(&mut self, c: Rat) -> SmtResult<()> {
        self.constant = self.constant.add(c)?;
        Ok(())
    }

    /// The coefficients of `self + Σ f(c)·x` over the terms `c·x` of
    /// `other`, as one sorted merge that drops cancelled terms.
    fn merge(&self, other: &Self, f: impl Fn(Rat) -> SmtResult<Rat>) -> SmtResult<Vec<(K, Rat)>> {
        let (xs, ys) = (&self.coeffs, &other.coeffs);
        let mut out = Vec::with_capacity(xs.len() + ys.len());
        let (mut i, mut j) = (0, 0);
        while i < xs.len() && j < ys.len() {
            let ((kx, cx), (ky, cy)) = (&xs[i], &ys[j]);
            match kx.cmp(ky) {
                Ordering::Less => {
                    out.push((kx.clone(), *cx));
                    i += 1;
                }
                Ordering::Greater => {
                    out.push((ky.clone(), f(*cy)?));
                    j += 1;
                }
                Ordering::Equal => {
                    let sum = cx.add(f(*cy)?)?;
                    if !sum.is_zero() {
                        out.push((kx.clone(), sum));
                    }
                    i += 1;
                    j += 1;
                }
            }
        }
        out.extend_from_slice(&xs[i..]);
        for (k, c) in &ys[j..] {
            out.push((k.clone(), f(*c)?));
        }
        Ok(out)
    }

    /// Sum of two expressions.
    pub fn add(&self, other: &Self) -> SmtResult<Self> {
        let coeffs = self.merge(other, Ok)?;
        Ok(LinExpr { coeffs, constant: self.constant.add(other.constant)? })
    }

    /// Difference of two expressions.
    pub fn sub(&self, other: &Self) -> SmtResult<Self> {
        let coeffs = self.merge(other, Rat::neg)?;
        Ok(LinExpr { coeffs, constant: self.constant.add(other.constant.neg()?)? })
    }

    /// The expression scaled by `k`.
    pub fn scale(&self, k: Rat) -> SmtResult<Self> {
        if k.is_zero() {
            return Ok(Self::zero());
        }
        let coeffs = self
            .coeffs
            .iter()
            .map(|(x, c)| Ok((x.clone(), c.mul(k)?)))
            .collect::<SmtResult<_>>()?;
        Ok(LinExpr { coeffs, constant: self.constant.mul(k)? })
    }

    /// Evaluates the expression under a (total on its variables) assignment.
    pub fn eval(&self, assignment: &impl Fn(&K) -> Rat) -> SmtResult<Rat> {
        let mut acc = self.constant;
        for (x, c) in &self.coeffs {
            acc = acc.add(c.mul(assignment(x))?)?;
        }
        Ok(acc)
    }

    /// Rewrites every variable with `f`, producing a new expression (used for
    /// substituting variables by other linear expressions).
    pub fn substitute<L: Ord + Clone>(
        &self,
        f: &impl Fn(&K) -> LinExpr<L>,
    ) -> SmtResult<LinExpr<L>> {
        let mut out = LinExpr::<L>::constant(self.constant);
        for (x, c) in &self.coeffs {
            out = out.add(&f(x).scale(*c)?)?;
        }
        Ok(out)
    }
}

impl LinExpr<VarRef> {
    /// Converts an IR term into a linear expression.
    ///
    /// # Errors
    ///
    /// Returns [`SmtError::NonLinear`] if the term multiplies two
    /// non-constant subterms, and [`SmtError::SortMismatch`] if it contains
    /// array or uninterpreted-function operations (callers must abstract
    /// those away first).
    pub fn from_term(t: &Term) -> SmtResult<LinExpr<VarRef>> {
        match t {
            Term::Const(c) => Ok(LinExpr::constant(Rat::int(*c))),
            Term::Var(v) => Ok(LinExpr::var(*v)),
            Term::Bound(b) => Err(SmtError::sort_mismatch(format!(
                "bound variable `{b}` reached the linear-arithmetic layer"
            ))),
            Term::Add(a, b) => LinExpr::from_term(a)?.add(&LinExpr::from_term(b)?),
            Term::Sub(a, b) => LinExpr::from_term(a)?.sub(&LinExpr::from_term(b)?),
            Term::Neg(a) => LinExpr::from_term(a)?.scale(Rat::MINUS_ONE),
            Term::Mul(a, b) => {
                let ea = LinExpr::from_term(a)?;
                let eb = LinExpr::from_term(b)?;
                if ea.is_constant() {
                    eb.scale(ea.constant_part())
                } else if eb.is_constant() {
                    ea.scale(eb.constant_part())
                } else {
                    Err(SmtError::NonLinear { term: t.to_string() })
                }
            }
            Term::Select(..) | Term::Store(..) | Term::App(..) => Err(SmtError::sort_mismatch(
                format!("non-arithmetic term `{t}` reached the linear-arithmetic layer"),
            )),
        }
    }
}

impl LinExpr<VarRef> {
    /// Converts the expression back into an IR [`Term`], scaling by the least
    /// common multiple of the coefficient denominators so that the resulting
    /// term has integer coefficients.  Returns the scaled term together with
    /// the (positive) scale factor that was applied.
    pub fn to_scaled_term(&self) -> SmtResult<(Term, i128)> {
        let mut scale: i128 = 1;
        for d in self.terms().map(|(_, c)| c.denom()).chain([self.constant.denom()]) {
            scale = checked_lcm(scale, d).ok_or(SmtError::Overflow)?;
        }
        let mut term: Option<Term> = None;
        fn push(term: &mut Option<Term>, t: Term) {
            *term = Some(match term.take() {
                None => t,
                Some(acc) => acc.add(t),
            });
        }
        for (v, c) in self.terms() {
            let k = c.mul(Rat::int(scale))?.as_integer().ok_or(SmtError::Overflow)?;
            if k == 1 {
                push(&mut term, Term::Var(*v));
            } else {
                push(&mut term, Term::Const(k).mul(Term::Var(*v)));
            }
        }
        let k = self.constant.mul(Rat::int(scale))?.as_integer().ok_or(SmtError::Overflow)?;
        if k != 0 || term.is_none() {
            push(&mut term, Term::Const(k));
        }
        Ok((term.expect("at least one summand pushed"), scale))
    }
}

impl LinConstraint<VarRef> {
    /// Converts the constraint back into an IR [`Formula`](pathinv_ir::Formula) with integer
    /// coefficients (`expr ⋈ 0` becomes `scaled_expr ⋈ 0`).
    pub fn to_formula(&self) -> SmtResult<pathinv_ir::Formula> {
        let (term, _) = self.expr.to_scaled_term()?;
        let op = match self.op {
            ConstrOp::Le => RelOp::Le,
            ConstrOp::Lt => RelOp::Lt,
            ConstrOp::Eq => RelOp::Eq,
        };
        Ok(pathinv_ir::Formula::atom(term, op, Term::Const(0)))
    }
}

impl<K: Ord + Clone + fmt::Display> fmt::Display for LinExpr<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (x, c) in &self.coeffs {
            if first {
                write!(f, "{c}*{x}")?;
                first = false;
            } else if let Some(m) = c.abs().ok().filter(|_| c.is_negative()) {
                write!(f, " - {m}*{x}")?;
            } else {
                write!(f, " + {c}*{x}")?;
            }
        }
        if first {
            write!(f, "{}", self.constant)?;
        } else if !self.constant.is_zero() {
            // `i128::MIN` has no magnitude, so it prints as `+ -2¹²⁷`.
            if let Some(m) = self.constant.abs().ok().filter(|_| self.constant.is_negative()) {
                write!(f, " - {m}")?;
            } else {
                write!(f, " + {}", self.constant)?;
            }
        }
        Ok(())
    }
}

/// Relation of a normalised linear constraint `e ⋈ 0`.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub enum ConstrOp {
    /// `e ≤ 0`
    Le,
    /// `e < 0`
    Lt,
    /// `e = 0`
    Eq,
}

impl fmt::Display for ConstrOp {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConstrOp::Le => write!(f, "<="),
            ConstrOp::Lt => write!(f, "<"),
            ConstrOp::Eq => write!(f, "="),
        }
    }
}

/// A normalised linear constraint `expr ⋈ 0`.
#[derive(Clone, PartialEq, Eq, Hash, Debug)]
pub struct LinConstraint<K: Ord + Clone = VarRef> {
    /// The linear expression.
    pub expr: LinExpr<K>,
    /// The relation against zero.
    pub op: ConstrOp,
}

impl<K: Ord + Clone> LinConstraint<K> {
    /// Builds `expr ⋈ 0`.
    pub fn new(expr: LinExpr<K>, op: ConstrOp) -> Self {
        LinConstraint { expr, op }
    }

    /// Builds `lhs ≤ rhs`.
    pub fn le(lhs: LinExpr<K>, rhs: LinExpr<K>) -> SmtResult<Self> {
        Ok(LinConstraint { expr: lhs.sub(&rhs)?, op: ConstrOp::Le })
    }

    /// Builds `lhs = rhs`.
    pub fn eq(lhs: LinExpr<K>, rhs: LinExpr<K>) -> SmtResult<Self> {
        Ok(LinConstraint { expr: lhs.sub(&rhs)?, op: ConstrOp::Eq })
    }

    /// Evaluates the constraint under an assignment.
    pub fn holds(&self, assignment: &impl Fn(&K) -> Rat) -> SmtResult<bool> {
        let v = self.expr.eval(assignment)?;
        Ok(match self.op {
            ConstrOp::Le => !v.is_positive(),
            ConstrOp::Lt => v.is_negative(),
            ConstrOp::Eq => v.is_zero(),
        })
    }
}

impl<K: Ord + Clone> LinConstraint<K> {
    /// Strengthens a strict inequality into a non-strict one using the
    /// integrality of the program variables: if every coefficient and the
    /// constant of `e < 0` are integers, then `e < 0` is equivalent to
    /// `e + 1 ≤ 0` over the integers.
    ///
    /// This is the standard tightening used by software model checkers that
    /// reason over a rational relaxation of integer programs; without it the
    /// relaxation would miss infeasibilities such as the one in the FORWARD
    /// path formula of §2.1 (`i < n ∧ i + 1 ≥ n` forces `n = i + 1` only over
    /// the integers).  Constraints with fractional coefficients are returned
    /// unchanged.
    pub fn tighten_for_integers(&self) -> SmtResult<LinConstraint<K>> {
        if self.op != ConstrOp::Lt {
            return Ok(self.clone());
        }
        let all_integer = self.expr.terms().all(|(_, c)| c.is_integer())
            && self.expr.constant_part().is_integer();
        if !all_integer {
            return Ok(self.clone());
        }
        let mut expr = self.expr.clone();
        expr.add_constant(Rat::ONE)?;
        Ok(LinConstraint { expr, op: ConstrOp::Le })
    }
}

impl LinConstraint<VarRef> {
    /// Converts an IR atom into a normalised constraint.
    ///
    /// # Errors
    ///
    /// `!=` atoms are rejected (they require a case split and are handled by
    /// the solver layer), as are non-linear or non-arithmetic atoms.
    pub fn from_atom(a: &Atom) -> SmtResult<LinConstraint<VarRef>> {
        let lhs = LinExpr::from_term(&a.lhs)?;
        let rhs = LinExpr::from_term(&a.rhs)?;
        let (expr, op) = match a.op {
            RelOp::Le => (lhs.sub(&rhs)?, ConstrOp::Le),
            RelOp::Lt => (lhs.sub(&rhs)?, ConstrOp::Lt),
            RelOp::Ge => (rhs.sub(&lhs)?, ConstrOp::Le),
            RelOp::Gt => (rhs.sub(&lhs)?, ConstrOp::Lt),
            RelOp::Eq => (lhs.sub(&rhs)?, ConstrOp::Eq),
            RelOp::Ne => {
                return Err(SmtError::unsupported(
                    "disequality atoms must be split before reaching linear arithmetic",
                ))
            }
        };
        Ok(LinConstraint { expr, op })
    }
}

impl<K: Ord + Clone + fmt::Display> fmt::Display for LinConstraint<K> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} {} 0", self.expr, self.op)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathinv_ir::Formula;

    fn x() -> VarRef {
        VarRef::cur("x".into())
    }
    fn y() -> VarRef {
        VarRef::cur("y".into())
    }

    #[test]
    fn from_term_linear() {
        // 2*x + 3*y - 5
        let t = Term::var("x").scale(2).add(Term::var("y").scale(3)).sub(Term::int(5));
        let e = LinExpr::from_term(&t).unwrap();
        assert_eq!(e.coeff(&x()), Rat::int(2));
        assert_eq!(e.coeff(&y()), Rat::int(3));
        assert_eq!(e.constant_part(), Rat::int(-5));
    }

    #[test]
    fn from_term_constant_times_expression() {
        let t = Term::int(3).mul(Term::var("n"));
        let e = LinExpr::from_term(&t).unwrap();
        assert_eq!(e.coeff(&VarRef::cur("n".into())), Rat::int(3));
    }

    #[test]
    fn from_term_rejects_nonlinear() {
        let t = Term::var("x").mul(Term::var("y"));
        assert!(matches!(LinExpr::from_term(&t), Err(SmtError::NonLinear { .. })));
    }

    #[test]
    fn from_term_rejects_arrays() {
        let t = Term::var("a").select(Term::var("i"));
        assert!(matches!(LinExpr::from_term(&t), Err(SmtError::SortMismatch { .. })));
    }

    #[test]
    fn coefficients_cancel() {
        let t = Term::var("x").sub(Term::var("x"));
        let e = LinExpr::from_term(&t).unwrap();
        assert!(e.is_constant());
        assert!(e.constant_part().is_zero());
    }

    #[test]
    fn arithmetic_on_expressions() {
        let a = LinExpr::var(x());
        let b = LinExpr::var(y()).scale(Rat::int(2)).unwrap();
        let sum = a.add(&b).unwrap();
        assert_eq!(sum.coeff(&y()), Rat::int(2));
        let diff = sum.sub(&LinExpr::var(x())).unwrap();
        assert_eq!(diff.coeff(&x()), Rat::ZERO);
        assert_eq!(diff.vars(), vec![y()]);
    }

    #[test]
    fn substitution() {
        // x + 2y  with  x -> y + 1  gives 3y + 1
        let e = LinExpr::var(x()).add(&LinExpr::var(y()).scale(Rat::int(2)).unwrap()).unwrap();
        let s = e
            .substitute(&|k: &VarRef| {
                if *k == x() {
                    LinExpr::var(y()).add(&LinExpr::constant(Rat::ONE)).unwrap()
                } else {
                    LinExpr::var(*k)
                }
            })
            .unwrap();
        assert_eq!(s.coeff(&y()), Rat::int(3));
        assert_eq!(s.constant_part(), Rat::ONE);
    }

    #[test]
    fn evaluation() {
        let e = LinExpr::var(x()).add(&LinExpr::constant(Rat::int(4))).unwrap();
        let v = e.eval(&|_| Rat::int(2)).unwrap();
        assert_eq!(v, Rat::int(6));
    }

    #[test]
    fn atom_conversion_normalises_direction() {
        // x >= y  becomes  y - x <= 0
        let f = Formula::ge(Term::var("x"), Term::var("y"));
        let atoms = f.atoms();
        let c = LinConstraint::from_atom(&atoms[0]).unwrap();
        assert_eq!(c.op, ConstrOp::Le);
        assert_eq!(c.expr.coeff(&x()), Rat::MINUS_ONE);
        assert_eq!(c.expr.coeff(&y()), Rat::ONE);
    }

    #[test]
    fn atom_conversion_rejects_disequality() {
        let f = Formula::ne(Term::var("x"), Term::var("y"));
        assert!(LinConstraint::from_atom(&f.atoms()[0]).is_err());
    }

    #[test]
    fn constraint_holds() {
        let c = LinConstraint::from_atom(&Formula::le(Term::var("x"), Term::int(3)).atoms()[0])
            .unwrap();
        assert!(c.holds(&|_| Rat::int(3)).unwrap());
        assert!(!c.holds(&|_| Rat::int(4)).unwrap());
        let strict =
            LinConstraint::from_atom(&Formula::lt(Term::var("x"), Term::int(3)).atoms()[0])
                .unwrap();
        assert!(!strict.holds(&|_| Rat::int(3)).unwrap());
    }

    #[test]
    fn display_forms() {
        let e = LinExpr::var(x())
            .add(&LinExpr::scaled_var(y(), Rat::int(-2)))
            .unwrap()
            .add(&LinExpr::constant(Rat::int(7)))
            .unwrap();
        let s = e.to_string();
        assert!(s.contains("1*x"));
        assert!(s.contains("- 2*y"));
        assert!(s.contains("+ 7"));
        assert_eq!(LinExpr::<VarRef>::constant(Rat::int(3)).to_string(), "3");
    }

    #[test]
    fn display_of_i128_min_adds_the_negative_value() {
        let mut e: LinExpr<String> = LinExpr::constant(Rat::int(i128::MIN));
        e.add_term("p".to_string(), Rat::ONE).unwrap();
        e.add_term("q".to_string(), Rat::int(i128::MIN)).unwrap();
        let min = i128::MIN;
        assert_eq!(e.to_string(), format!("1*p + {min}*q + {min}"));
    }

    #[test]
    fn generic_key_type() {
        // The expression machinery works over any ordered key, e.g. strings
        // naming template parameters.
        let mut e: LinExpr<String> = LinExpr::zero();
        e.add_term("p1".to_string(), Rat::int(2)).unwrap();
        e.add_term("p2".to_string(), Rat::int(-1)).unwrap();
        assert_eq!(e.vars().len(), 2);
    }
}
