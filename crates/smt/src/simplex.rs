//! A general simplex solver for conjunctions of linear constraints over the
//! rationals, in the style of Dutertre and de Moura (SAT 2006).
//!
//! The solver decides feasibility of a set of [`LinConstraint`]s, returning
//! either a satisfying rational assignment or a *Farkas certificate*: a
//! non-negative combination of the constraints (equalities may take either
//! sign) that sums to a contradiction.  The certificate is the workhorse of
//! two other components: LRA interpolation ([`crate::interpolate`]) and the
//! encoding of invariant-template constraints ([Colón et al. 2003], used in
//! `pathinv-invgen`).
//!
//! Strict inequalities are handled symbolically with an infinitesimal `δ`
//! ([`DeltaRat`]), so the solver is exact.

use crate::error::{SmtError, SmtResult};
use crate::linexpr::{ConstrOp, LinConstraint, LinExpr};
use crate::rat::{gcd, DeltaRat, Rat};
use std::collections::BTreeMap;
use std::fmt::Debug;
use std::rc::Rc;

/// Outcome of a linear-programming feasibility query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum LpResult<K: Ord + Clone> {
    /// The constraints are satisfiable; a witness assignment is returned
    /// (variables not mentioned in any constraint are absent and may take any
    /// value).
    Sat(BTreeMap<K, Rat>),
    /// The constraints are unsatisfiable; a Farkas certificate is returned.
    Unsat(FarkasCertificate),
}

impl<K: Ord + Clone> LpResult<K> {
    /// Returns `true` for the satisfiable outcome.
    pub fn is_sat(&self) -> bool {
        matches!(self, LpResult::Sat(_))
    }
}

/// A Farkas certificate of infeasibility: one multiplier per input
/// constraint such that the weighted sum of the constraint expressions has a
/// zero variable part and a contradictory constant part.
///
/// Multipliers of `≤`/`<` constraints are non-negative; multipliers of `=`
/// constraints may have either sign.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct FarkasCertificate {
    /// One multiplier per input constraint, in input order.
    pub multipliers: Vec<Rat>,
}

impl FarkasCertificate {
    /// Checks that the certificate indeed proves infeasibility of the given
    /// constraints.
    ///
    /// The combination `Σ λ_k · e_k` must have a zero variable part, the
    /// multipliers of inequality constraints must be non-negative, and the
    /// resulting constant must be positive — or non-negative with a strict
    /// constraint carrying a positive multiplier.
    pub fn verify<K: Ord + Clone>(&self, constraints: &[LinConstraint<K>]) -> SmtResult<bool> {
        if self.multipliers.len() != constraints.len() {
            return Ok(false);
        }
        let mut sum: LinExpr<K> = LinExpr::zero();
        let mut strict_used = false;
        let mut any_nonzero = false;
        for (lambda, c) in self.multipliers.iter().zip(constraints) {
            if lambda.is_zero() {
                continue;
            }
            any_nonzero = true;
            match c.op {
                ConstrOp::Le => {
                    if lambda.is_negative() {
                        return Ok(false);
                    }
                }
                ConstrOp::Lt => {
                    if lambda.is_negative() {
                        return Ok(false);
                    }
                    strict_used = true;
                }
                ConstrOp::Eq => {}
            }
            sum = sum.add(&c.expr.scale(*lambda)?)?;
        }
        if !any_nonzero || !sum.is_constant() {
            return Ok(false);
        }
        let k = sum.constant_part();
        Ok(k.is_positive() || (!k.is_negative() && strict_used))
    }
}

/// Decides feasibility of a conjunction of linear constraints, building a
/// fresh tableau (a *cold* solve; counted in
/// [`SmtStats::simplex_calls`](crate::SmtStats)).
///
/// Incremental callers that extend an already-checked system should keep an
/// [`IncrementalSimplex`] instead: its warm re-checks start from the
/// feasible assignment of the shared constraint prefix rather than
/// rebuilding the tableau from scratch.
///
/// # Errors
///
/// Propagates arithmetic overflow errors from the exact rational arithmetic.
pub fn solve<K: Ord + Clone + Debug>(constraints: &[LinConstraint<K>]) -> SmtResult<LpResult<K>> {
    crate::stats::record_simplex_call();
    let mut tab = IncrementalSimplex::new();
    // Register every problem variable before the first constraint so the
    // column order (problem variables first, then slacks) — and therefore
    // the pivot sequence and the extracted model — matches a batch-built
    // tableau exactly.
    for c in constraints {
        for v in c.expr.vars() {
            tab.ensure_column(&v);
        }
    }
    for c in constraints {
        tab.push_constraint(c)?;
    }
    if tab.check_inner()? {
        Ok(LpResult::Sat(tab.model()?))
    } else {
        Ok(LpResult::Unsat(tab.take_certificate()))
    }
}

/// One active constraint of an [`IncrementalSimplex`]: its expression
/// (shared, so cloning a tableau never deep-copies it), its operator, and
/// the tableau column of its slack variable.
#[derive(Clone, Debug)]
struct ActiveConstraint<K: Ord + Clone> {
    expr: Rc<LinExpr<K>>,
    op: ConstrOp,
    slack: usize,
}

/// A fraction-free sparse tableau row `Σ (n / den) · x_col`: integer
/// numerators `(column, n)` in strictly ascending column order, non-zero
/// only, over one positive denominator, with the gcd of every numerator
/// and the denominator equal to 1.  Each rational row has exactly one such
/// form, so the rows of two tableaux agree exactly when their rational
/// coefficients do.
#[derive(Clone, Debug, PartialEq, Eq)]
struct Row {
    den: i128,
    entries: Vec<(usize, i128)>,
}

impl Row {
    /// The row `1 · x_col` of a non-basic column.
    fn unit(col: usize) -> Row {
        Row { den: 1, entries: vec![(col, 1)] }
    }

    /// The numerator of column `col` (zero when absent).
    fn num_at(&self, col: usize) -> i128 {
        self.entries.binary_search_by_key(&col, |&(k, _)| k).map_or(0, |i| self.entries[i].1)
    }

    /// The coefficient whose numerator is `num`, as a `Rat`.
    fn coeff(&self, num: i128) -> SmtResult<Rat> {
        Rat::new(num, self.den)
    }

    /// `self + c · other`.  For `self = A/D`, `c = p/q` and `other = B/E`,
    /// the term `p·B/(q·E)` first cancels `gcd(p, E)`, which leaves
    /// `p'·B/(q·E')`; then both sides go over the least common multiple of
    /// `D` and `q·E'`.
    fn add_scaled(&self, c: Rat, other: &Row) -> SmtResult<Row> {
        let g = gcd(c.numer().unsigned_abs(), other.den.unsigned_abs()) as i128;
        let (p, q) = (c.numer() / g, c.denom());
        let qe = q.checked_mul(other.den / g).ok_or(SmtError::Overflow)?;
        let h = gcd(self.den.unsigned_abs(), qe.unsigned_abs()) as i128;
        let fb = p.checked_mul(self.den / h).ok_or(SmtError::Overflow)?;
        let den = self.den.checked_mul(qe / h).ok_or(SmtError::Overflow)?;
        merge(&self.entries, usize::MAX, qe / h, &other.entries, fb, den)
    }

    /// `self` with its entry at index `i` (column `j`, numerator `m`)
    /// replaced by `m / den · row_j`, where `row_j` expresses `x_j`:
    /// `(r_k·Q + m·P_k) / (den·Q)`, with `gcd(m, Q)` cancelled first.
    fn substitute(&self, i: usize, row_j: &Row) -> SmtResult<Row> {
        let (j, m) = self.entries[i];
        let g = gcd(m.unsigned_abs(), row_j.den.unsigned_abs()) as i128;
        let fa = row_j.den / g;
        let den = self.den.checked_mul(fa).ok_or(SmtError::Overflow)?;
        merge(&self.entries, j, fa, &row_j.entries, m / g, den)
    }
}

/// The row `(fa·a + fb·b) / den` by a sorted merge that drops exact zeros
/// and column `skip` of `a` (`usize::MAX` skips none), then divides out
/// the gcd of the numerators and `den` (positive); the gcd pass stops as
/// soon as it reaches 1.
fn merge(
    a: &[(usize, i128)],
    skip: usize,
    fa: i128,
    b: &[(usize, i128)],
    fb: i128,
    mut den: i128,
) -> SmtResult<Row> {
    let scale = |n: i128, f: i128| n.checked_mul(f).ok_or(SmtError::Overflow);
    let mut entries = Vec::with_capacity(a.len() + b.len());
    let mut rest = a.iter().copied().filter(|&(l, _)| l != skip).peekable();
    for &(k, nb) in b {
        while let Some((l, na)) = rest.next_if(|&(l, _)| l < k) {
            entries.push((l, scale(na, fa)?));
        }
        let term = scale(nb, fb)?;
        let sum = match rest.next_if(|&(l, _)| l == k) {
            Some((_, na)) => scale(na, fa)?.checked_add(term).ok_or(SmtError::Overflow)?,
            None => term,
        };
        if sum != 0 {
            entries.push((k, sum));
        }
    }
    for (l, na) in rest {
        entries.push((l, scale(na, fa)?));
    }
    let mut g = den.unsigned_abs();
    for &(_, n) in &entries {
        if g == 1 {
            break;
        }
        g = gcd(g, n.unsigned_abs());
    }
    if g > 1 {
        // `g` divides `den`, so it fits.
        let g = g as i128;
        entries.iter_mut().for_each(|e| e.1 /= g);
        den /= g;
    }
    Ok(Row { den, entries })
}

/// An incremental simplex solver with constraint push/pop and warm-started
/// re-checks.
///
/// The tableau — column layout, basis, and the current assignment — is kept
/// across [`push_constraint`](IncrementalSimplex::push_constraint) /
/// [`pop_to`](IncrementalSimplex::pop_to) boundaries, so a
/// [`check`](IncrementalSimplex::check) after extending an already-feasible
/// system starts from the feasible assignment of the shared constraint
/// prefix and typically needs a handful of pivots, instead of rebuilding
/// and re-solving the whole tableau as the cold [`solve`] entry point does.
/// Warm re-checks are counted in
/// [`SmtStats::simplex_warm_checks`](crate::SmtStats), separately from the
/// cold tableau constructions in
/// [`SmtStats::simplex_calls`](crate::SmtStats).
///
/// Rows are sparse and fraction-free (integer numerators over one row
/// denominator), and every row, the variable index and every constraint
/// expression sit behind an `Rc`.  Cloning a tableau (the synthesis beam
/// clones one per candidate extension) therefore copies only the
/// per-column bound and value vectors and bumps reference counts; a pivot
/// rebuilds just the rows that mention its entering column.  The
/// representation changes no result: each row is the unique fraction-free
/// form of the same rational row, so Bland's rule reads the same signs and
/// picks the same pivots, and basic values, certificates and models are
/// computed from the same `Rat` coefficients.
///
/// Answers are identical to a cold solve of the active constraint set: the
/// arithmetic is exact, so only the number of pivots — never the verdict —
/// depends on the starting assignment.  (Witness models may differ between
/// warm and cold runs; both are exact witnesses.)  Farkas certificates are
/// available after a failed check via
/// [`take_certificate`](IncrementalSimplex::take_certificate).
#[derive(Clone, Debug)]
pub struct IncrementalSimplex<K: Ord + Clone> {
    /// Column of each problem variable (shared until a clone adds one).
    index: Rc<BTreeMap<K, usize>>,
    /// Problem-variable key of each column (`None` for slack columns).
    keys: Vec<Option<K>>,
    /// Active constraints, in push order.
    constraints: Vec<ActiveConstraint<K>>,
    /// Lower and upper bounds of every tableau column.
    lower: Vec<Option<DeltaRat>>,
    upper: Vec<Option<DeltaRat>>,
    /// Current assignment.
    beta: Vec<DeltaRat>,
    /// The row of each basic column over the non-basic columns (`None` for
    /// a non-basic column), so adding a column or cloning the tableau never
    /// touches a coefficient.
    rows: Vec<Option<Rc<Row>>>,
    /// Farkas certificate of the most recent failed check.
    conflict: Option<FarkasCertificate>,
}

impl<K: Ord + Clone + Debug> Default for IncrementalSimplex<K> {
    fn default() -> Self {
        IncrementalSimplex::new()
    }
}

impl<K: Ord + Clone + Debug> IncrementalSimplex<K> {
    /// Creates an empty (trivially satisfiable) system.
    pub fn new() -> IncrementalSimplex<K> {
        IncrementalSimplex {
            index: Rc::default(),
            keys: Vec::new(),
            constraints: Vec::new(),
            lower: Vec::new(),
            upper: Vec::new(),
            beta: Vec::new(),
            rows: Vec::new(),
            conflict: None,
        }
    }

    /// Number of active constraints — the token
    /// [`pop_to`](IncrementalSimplex::pop_to) restores to.
    pub fn checkpoint(&self) -> usize {
        self.constraints.len()
    }

    fn total(&self) -> usize {
        self.keys.len()
    }

    /// Appends a fresh column; returns its index.
    fn add_column(&mut self, key: Option<K>) -> usize {
        let col = self.keys.len();
        self.keys.push(key);
        self.lower.push(None);
        self.upper.push(None);
        self.beta.push(DeltaRat::ZERO);
        self.rows.push(None);
        col
    }

    /// Registers a problem variable, assigning it a column if new.
    fn ensure_column(&mut self, v: &K) -> usize {
        if let Some(&col) = self.index.get(v) {
            return col;
        }
        let col = self.add_column(Some(v.clone()));
        Rc::make_mut(&mut self.index).insert(v.clone(), col);
        col
    }

    /// Adds a constraint to the system.  The new slack row is expressed over
    /// the current non-basic columns (basic variables are substituted by
    /// their rows), so the tableau invariant — and the feasible assignment
    /// of the existing prefix — survives the push.
    ///
    /// # Errors
    ///
    /// Propagates arithmetic overflow.
    pub fn push_constraint(&mut self, c: &LinConstraint<K>) -> SmtResult<()> {
        self.push_shared(Rc::new(c.expr.clone()), c.op)
    }

    /// [`push_constraint`](IncrementalSimplex::push_constraint) of an
    /// already-shared expression.
    fn push_shared(&mut self, expr: Rc<LinExpr<K>>, op: ConstrOp) -> SmtResult<()> {
        for v in expr.vars() {
            self.ensure_column(&v);
        }
        let slack = self.add_column(None);
        let mut row = Row { den: 1, entries: Vec::new() };
        for (v, coeff) in expr.terms() {
            // A basic variable is replaced by its row, a non-basic one is
            // its own unit row.
            let col = self.index[v];
            row = match &self.rows[col] {
                Some(basic) => row.add_scaled(coeff, basic)?,
                None => row.add_scaled(coeff, &Row::unit(col))?,
            };
        }
        let mut value = DeltaRat::ZERO;
        for &(k, n) in &row.entries {
            value = value.add(self.beta[k].scale(row.coeff(n)?)?)?;
        }
        self.beta[slack] = value;
        self.rows[slack] = Some(Rc::new(row));
        let bound = expr.constant_part().neg()?;
        match op {
            ConstrOp::Le => self.upper[slack] = Some(DeltaRat::real(bound)),
            ConstrOp::Lt => self.upper[slack] = Some(DeltaRat::just_below(bound)),
            ConstrOp::Eq => {
                self.upper[slack] = Some(DeltaRat::real(bound));
                self.lower[slack] = Some(DeltaRat::real(bound));
            }
        }
        self.constraints.push(ActiveConstraint { expr, op, slack });
        Ok(())
    }

    /// Removes every constraint pushed after `checkpoint`; the shared
    /// prefix keeps its tableau and assignment.  Popped slack columns are
    /// reclaimed when they sit at the end of the column range (the common
    /// LIFO push/pop discipline), so a long case-split search does not
    /// widen the tableau monotonically; a popped slack buried under
    /// still-active columns merely goes dead (absent from every row, no
    /// bounds) until the columns above it are reclaimed too.  Rows never
    /// store dead columns, so reclaiming one only shortens the per-column
    /// vectors.
    ///
    /// # Errors
    ///
    /// Propagates arithmetic overflow from basis restoration pivots.
    pub fn pop_to(&mut self, checkpoint: usize) -> SmtResult<()> {
        while self.constraints.len() > checkpoint {
            let dropped = self.constraints.pop().expect("len checked");
            let s = dropped.slack;
            self.lower[s] = None;
            self.upper[s] = None;
            if self.rows[s].is_none() {
                // The slack was pivoted into the non-basic set; bring it
                // back to the basis so the remaining rows stop referencing
                // it, then discard its row.  (Once absent everywhere and
                // unbounded, a dead column can never re-enter the basis:
                // pivot targets need a non-zero row coefficient.)
                let referencing =
                    self.rows.iter().position(|row| row.as_ref().is_some_and(|r| r.num_at(s) != 0));
                if let Some(b) = referencing {
                    self.pivot(b, s, None)?;
                }
            }
            self.rows[s] = None;
            self.conflict = None;
        }
        self.reclaim_trailing_dead_columns();
        Ok(())
    }

    /// Truncates every trailing column that is a dead slack: not a problem
    /// variable, not the slack of an active constraint, not basic, and
    /// (invariantly, after `pop_to`'s basis restoration) absent from every
    /// row.
    fn reclaim_trailing_dead_columns(&mut self) {
        while let Some(last) = self.total().checked_sub(1) {
            let is_dead_slack = self.keys[last].is_none()
                && self.rows[last].is_none()
                && self.lower[last].is_none()
                && self.upper[last].is_none()
                && self.constraints.iter().all(|c| c.slack != last)
                && self.rows.iter().flatten().all(|row| row.num_at(last) == 0);
            if !is_dead_slack {
                break;
            }
            self.keys.pop();
            self.lower.pop();
            self.upper.pop();
            self.beta.pop();
            self.rows.pop();
        }
    }

    /// Decides feasibility of the active constraints, warm-starting from
    /// the current assignment.  On `false`, a Farkas certificate over the
    /// active constraints is available via
    /// [`take_certificate`](IncrementalSimplex::take_certificate).
    ///
    /// # Errors
    ///
    /// Propagates arithmetic overflow.
    pub fn check(&mut self) -> SmtResult<bool> {
        crate::stats::record_simplex_warm_check();
        self.check_inner()
    }

    /// Decides feasibility counting the check as a *cold* solve — used by
    /// in-crate callers for the first check after building a tableau, which
    /// is exactly the work [`solve`] would have done.
    pub(crate) fn check_fresh(&mut self) -> SmtResult<bool> {
        crate::stats::record_simplex_call();
        self.check_inner()
    }

    /// The Bland-rule main loop (no stats recording; shared by warm checks
    /// and the cold [`solve`] entry point).
    fn check_inner(&mut self) -> SmtResult<bool> {
        self.conflict = None;
        loop {
            // Find the smallest-index basic variable violating a bound
            // (Bland's rule guarantees termination).  Every comparison is
            // checked, so an overflowing one is an error, not a panic.
            let mut violated = None;
            for b in (0..self.total()).filter(|&b| self.rows[b].is_some()) {
                let v = self.beta[b];
                if self.lower[b].map_or(Ok(false), |l| lt(v, l))? {
                    violated = Some((b, true));
                    break;
                }
                if self.upper[b].map_or(Ok(false), |u| lt(u, v))? {
                    violated = Some((b, false));
                    break;
                }
            }
            let Some((b, lower_violation)) = violated else {
                return Ok(true);
            };
            let target = if lower_violation { self.lower[b] } else { self.upper[b] };
            // Bland's rule: the smallest non-basic column that can move x_b
            // toward its violated bound.  Moving up needs a positive
            // coefficient on a column below its upper bound or a negative
            // one on a column above its lower bound; moving down the
            // reverse.  The denominator is positive, so a coefficient's
            // sign is its numerator's.
            let row = self.rows[b].as_ref().expect("violated column is basic");
            let mut pivot = None;
            for &(j, n) in &row.entries {
                let movable = if (n > 0) == lower_violation {
                    self.upper[j].map_or(Ok(true), |u| lt(self.beta[j], u))?
                } else {
                    self.lower[j].map_or(Ok(true), |l| lt(l, self.beta[j]))?
                };
                if movable {
                    pivot = Some(j);
                    break;
                }
            }
            match pivot {
                Some(j) => {
                    self.pivot_and_update(b, j, target.expect("bound checked"))?;
                }
                None => {
                    self.conflict = Some(self.build_conflict(b, row, lower_violation)?);
                    return Ok(false);
                }
            }
        }
    }

    /// The Farkas certificate of the most recent failed check, if any.
    pub fn take_certificate(&mut self) -> FarkasCertificate {
        self.conflict.take().expect("take_certificate requires a failed check")
    }

    /// The support of the most recent conflict: indices (in push order) of
    /// the active constraints carrying a non-zero Farkas multiplier.  This
    /// is an *irreducible* infeasible subsystem (IIS): dropping any one of
    /// its rows leaves a satisfiable system.
    ///
    /// The certificate is read off one conflict row `x_b = Σ a_bj·x_j`,
    /// and that row ranges over non-basic slack columns only: a non-basic
    /// problem-variable column is unbounded, so it would have been an
    /// eligible pivot.  Non-basic columns are the tableau's free
    /// coordinates, so the slack forms of `J` are linearly independent, and
    /// the support is `{b} ∪ J` (every `a_bj` is non-zero).  Without `b`,
    /// the rows of `J` are independent single-column bounds; without some
    /// `j ∈ J`, `x_b` still moves freely through `x_j`.  Either way any
    /// bounds on the remaining rows are satisfiable.
    ///
    /// Valid after a failed [`check`](IncrementalSimplex::check) until the
    /// certificate is taken or the system changes.
    pub fn conflict_core(&self) -> Option<Vec<usize>> {
        let cert = self.conflict.as_ref()?;
        Some(
            cert.multipliers
                .iter()
                .enumerate()
                .filter(|(_, m)| !m.is_zero())
                .map(|(i, _)| i)
                .collect(),
        )
    }

    /// The active constraints, in push order (the index space of
    /// [`conflict_core`](IncrementalSimplex::conflict_core)).
    pub fn active_constraints(&self) -> Vec<LinConstraint<K>> {
        self.constraints.iter().map(|c| LinConstraint::new((*c.expr).clone(), c.op)).collect()
    }

    /// Builds the Farkas certificate for a conflict on basic variable `b`
    /// whose row is `row`; `lower_violation` says which bound was violated.
    fn build_conflict(
        &self,
        b: usize,
        row: &Row,
        lower_violation: bool,
    ) -> SmtResult<FarkasCertificate> {
        let mut constraint_of_slack: Vec<Option<usize>> = vec![None; self.total()];
        for (i, c) in self.constraints.iter().enumerate() {
            constraint_of_slack[c.slack] = Some(i);
        }
        let constraint_of = |col: usize| -> SmtResult<usize> {
            constraint_of_slack[col].ok_or_else(|| {
                SmtError::unsupported("internal error: conflict row mentions an unbounded column")
            })
        };
        let mut mult = vec![Rat::ZERO; self.constraints.len()];
        let cb = constraint_of(b)?;
        if lower_violation {
            // -1 · e_b  +  Σ_j a_bj · e_j
            mult[cb] = mult[cb].sub(Rat::ONE)?;
            for &(j, n) in &row.entries {
                let cj = constraint_of(j)?;
                mult[cj] = mult[cj].add(row.coeff(n)?)?;
            }
        } else {
            // +1 · e_b  -  Σ_j a_bj · e_j
            mult[cb] = mult[cb].add(Rat::ONE)?;
            for &(j, n) in &row.entries {
                let cj = constraint_of(j)?;
                mult[cj] = mult[cj].sub(row.coeff(n)?)?;
            }
        }
        let cert = FarkasCertificate { multipliers: mult };
        debug_assert!(
            cert.verify(&self.active_constraints())?,
            "produced an invalid Farkas certificate"
        );
        Ok(cert)
    }

    fn pivot_and_update(&mut self, b: usize, j: usize, target: DeltaRat) -> SmtResult<()> {
        let row_b = self.rows[b].as_ref().expect("pivot row must be basic");
        let a_bj = row_b.coeff(row_b.num_at(j))?;
        let theta = target.sub(self.beta[b])?.scale(a_bj.recip()?)?;
        self.beta[b] = target;
        self.beta[j] = self.beta[j].add(theta)?;
        self.pivot(b, j, Some(theta))
    }

    /// Exchanges basic `b` for non-basic `j`.  With `theta`, the same pass
    /// that substitutes `x_j` into a row also moves that row's basic value
    /// by `theta · a_kj` (the rest of the update is `pivot_and_update`'s).
    fn pivot(&mut self, b: usize, j: usize, theta: Option<DeltaRat>) -> SmtResult<()> {
        let row_b = self.rows[b].take().expect("pivot row must be basic");
        // x_j = (den·x_b − Σ_{k≠j} n_k·x_k) / n_j, written over |n_j|: the
        // numbers are row b's up to sign, so their gcd stays 1.
        let n_j = row_b.num_at(j);
        let den = i128::try_from(n_j.unsigned_abs()).map_err(|_| SmtError::Overflow)?;
        let flip =
            |n: i128| if n_j > 0 { n.checked_neg().ok_or(SmtError::Overflow) } else { Ok(n) };
        let mut entries = Vec::with_capacity(row_b.entries.len());
        for &(k, n) in &row_b.entries {
            if k != j {
                entries.push((k, flip(n)?));
            }
        }
        let at = entries.partition_point(|&(k, _)| k < b);
        entries.insert(at, (b, flip(-row_b.den)?));
        let row_j = Rc::new(Row { den, entries });
        // Substitute x_j in every other row that mentions it.
        for (k, slot) in self.rows.iter_mut().enumerate() {
            let Some(row) = slot else { continue };
            let Ok(i) = row.entries.binary_search_by_key(&j, |&(l, _)| l) else { continue };
            if let Some(theta) = theta {
                self.beta[k] = self.beta[k].add(theta.scale(row.coeff(row.entries[i].1)?)?)?;
            }
            *slot = Some(Rc::new(row.substitute(i, &row_j)?));
        }
        self.rows[j] = Some(row_j);
        Ok(())
    }

    /// The current witness assignment of the problem variables (valid after
    /// a successful check): the delta-rational assignment instantiated with
    /// a concrete positive δ small enough that every active constraint
    /// still holds.
    ///
    /// # Errors
    ///
    /// Propagates arithmetic overflow from the δ instantiation.
    pub fn model(&self) -> SmtResult<BTreeMap<K, Rat>> {
        // Each constraint evaluates to A + B·δ; it imposes an upper limit on δ
        // only when A < 0 and B > 0 (for ≤ / <) — see rat.rs for semantics.
        let mut delta = Rat::ONE;
        for c in &self.constraints {
            let mut a = c.expr.constant_part();
            let mut bcoef = Rat::ZERO;
            for (v, coeff) in c.expr.terms() {
                let idx = self.index[v];
                a = a.add(coeff.mul(self.beta[idx].real)?)?;
                bcoef = bcoef.add(coeff.mul(self.beta[idx].delta)?)?;
            }
            match c.op {
                ConstrOp::Le | ConstrOp::Lt => {
                    if a.is_negative() && bcoef.is_positive() {
                        // Need A + B·δ ≤ 0, i.e. δ ≤ -A/B; halve for strictness.
                        let limit = a.neg()?.div(bcoef)?.div(Rat::int(2))?;
                        if limit.compare(delta)?.is_lt() {
                            delta = limit;
                        }
                    }
                }
                ConstrOp::Eq => {}
            }
        }
        let mut model = BTreeMap::new();
        for (k, &col) in self.index.iter() {
            let value = self.beta[col].real.add(self.beta[col].delta.mul(delta)?)?;
            model.insert(k.clone(), value);
        }
        Ok(model)
    }
}

/// `a < b`, decided exactly.
fn lt(a: DeltaRat, b: DeltaRat) -> SmtResult<bool> {
    Ok(a.compare(b)?.is_lt())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathinv_ir::{Formula, Term, VarRef};
    use proptest::prelude::*;

    fn c(f: Formula) -> LinConstraint<VarRef> {
        LinConstraint::from_atom(&f.atoms()[0]).unwrap()
    }

    fn check_model(constraints: &[LinConstraint<VarRef>], model: &BTreeMap<VarRef, Rat>) {
        for cst in constraints {
            let holds =
                cst.holds(&|v: &VarRef| model.get(v).copied().unwrap_or(Rat::ZERO)).unwrap();
            assert!(holds, "model {model:?} violates {cst}");
        }
    }

    #[test]
    fn overflowing_bound_comparison_reports_overflow() {
        // Both bounds fit, but comparing x's value (the first bound) with
        // the second cross-multiplies past i128: an error, never a panic.
        let rat = |n: i128, d: i128| Rat::new(n, d).unwrap();
        let mut lower = LinExpr::scaled_var("x", Rat::MINUS_ONE);
        lower.add_constant(rat((1 << 100) + 7, (1 << 70) + 1)).unwrap();
        let mut upper = LinExpr::var("x");
        upper.add_constant(rat(-(1 << 100) - 11, (1 << 70) + 3)).unwrap();
        let mut simplex = IncrementalSimplex::new();
        simplex.push_constraint(&LinConstraint::new(lower, ConstrOp::Le)).unwrap();
        simplex.push_constraint(&LinConstraint::new(upper, ConstrOp::Le)).unwrap();
        assert_eq!(simplex.check(), Err(SmtError::Overflow));
    }

    #[test]
    fn satisfiable_system_produces_valid_model() {
        let x = Term::var("x");
        let y = Term::var("y");
        let cs = vec![
            c(Formula::le(x.clone(), Term::int(10))),
            c(Formula::ge(x.clone(), Term::int(3))),
            c(Formula::eq(y.clone(), x.clone().add(Term::int(2)))),
            c(Formula::lt(y.clone(), Term::int(13))),
        ];
        match solve(&cs).unwrap() {
            LpResult::Sat(m) => check_model(&cs, &m),
            LpResult::Unsat(_) => panic!("system is satisfiable"),
        }
    }

    #[test]
    fn infeasible_system_produces_valid_certificate() {
        let x = Term::var("x");
        let cs =
            vec![c(Formula::ge(x.clone(), Term::int(5))), c(Formula::le(x.clone(), Term::int(4)))];
        match solve(&cs).unwrap() {
            LpResult::Unsat(cert) => assert!(cert.verify(&cs).unwrap()),
            LpResult::Sat(m) => panic!("system is infeasible, got model {m:?}"),
        }
    }

    #[test]
    fn strict_inequalities_are_exact() {
        let x = Term::var("x");
        // x < 5 && x > 4 is satisfiable over the rationals.
        let cs =
            vec![c(Formula::lt(x.clone(), Term::int(5))), c(Formula::gt(x.clone(), Term::int(4)))];
        match solve(&cs).unwrap() {
            LpResult::Sat(m) => check_model(&cs, &m),
            LpResult::Unsat(_) => panic!("satisfiable over the rationals"),
        }
        // x < 5 && x >= 5 is not.
        let cs = vec![c(Formula::lt(x.clone(), Term::int(5))), c(Formula::ge(x, Term::int(5)))];
        match solve(&cs).unwrap() {
            LpResult::Unsat(cert) => assert!(cert.verify(&cs).unwrap()),
            LpResult::Sat(_) => panic!("infeasible"),
        }
    }

    #[test]
    fn equality_chain_propagates() {
        let x = Term::var("x");
        let y = Term::var("y");
        let z = Term::var("z");
        let cs = vec![
            c(Formula::eq(x.clone(), y.clone().add(Term::int(1)))),
            c(Formula::eq(y.clone(), z.clone().add(Term::int(1)))),
            c(Formula::eq(z.clone(), Term::int(0))),
            c(Formula::le(x.clone(), Term::int(1))),
        ];
        match solve(&cs).unwrap() {
            LpResult::Unsat(cert) => assert!(cert.verify(&cs).unwrap()),
            LpResult::Sat(m) => panic!("x must be 2, contradiction expected, got {m:?}"),
        }
    }

    #[test]
    fn forward_path_formula_is_infeasible() {
        // The path formula of Figure 1(b):
        // n0 >= 0, i1 = 0, a1 = 0, b1 = 0, i1 < n0, a2 = a1+1, b2 = b1+2,
        // i2 = i1+1, i2 >= n0, a2 + b2 != 3n0 (here: the > case).
        //
        // Infeasibility relies on the integrality of the variables, so every
        // strict constraint is tightened (`e < 0` to `e + 1 <= 0`) exactly as
        // the full solver does; see LinConstraint::tighten_for_integers.
        let n0 = Term::ivar("n", 0);
        let i1 = Term::ivar("i", 1);
        let i2 = Term::ivar("i", 2);
        let a1 = Term::ivar("a", 1);
        let a2 = Term::ivar("a", 2);
        let b1 = Term::ivar("b", 1);
        let b2 = Term::ivar("b", 2);
        let t = |f: Formula| c(f).tighten_for_integers().unwrap();
        let cs = vec![
            t(Formula::ge(n0.clone(), Term::int(0))),
            t(Formula::eq(i1.clone(), Term::int(0))),
            t(Formula::eq(a1.clone(), Term::int(0))),
            t(Formula::eq(b1.clone(), Term::int(0))),
            t(Formula::lt(i1.clone(), n0.clone())),
            t(Formula::eq(a2.clone(), a1.clone().add(Term::int(1)))),
            t(Formula::eq(b2.clone(), b1.clone().add(Term::int(2)))),
            t(Formula::eq(i2.clone(), i1.clone().add(Term::int(1)))),
            t(Formula::ge(i2.clone(), n0.clone())),
        ];
        let sum = a2.clone().add(b2.clone());
        let gt_case = t(Formula::gt(sum.clone(), Term::int(3).mul(n0.clone())));
        let lt_case = t(Formula::lt(sum, Term::int(3).mul(n0)));
        for case in [gt_case, lt_case] {
            let mut cs_case = cs.clone();
            cs_case.push(case);
            match solve(&cs_case).unwrap() {
                LpResult::Unsat(cert) => assert!(cert.verify(&cs_case).unwrap()),
                LpResult::Sat(m) => panic!("Figure 1(b) path formula must be infeasible: {m:?}"),
            }
        }
        // Sanity: without the assertion the prefix is satisfiable.
        match solve(&cs).unwrap() {
            LpResult::Sat(m) => check_model(&cs, &m),
            LpResult::Unsat(_) => panic!("prefix must be satisfiable"),
        }
    }

    #[test]
    fn unconstrained_variables_get_some_value() {
        let x = Term::var("x");
        let cs = vec![c(Formula::le(x.clone(), x.clone().add(Term::int(1))))];
        match solve(&cs).unwrap() {
            LpResult::Sat(m) => check_model(&cs, &m),
            LpResult::Unsat(_) => panic!("trivially satisfiable"),
        }
    }

    #[test]
    fn empty_system_is_sat() {
        let cs: Vec<LinConstraint<VarRef>> = vec![];
        assert!(solve(&cs).unwrap().is_sat());
    }

    #[test]
    fn contradictory_equalities_detected() {
        let x = Term::var("x");
        let cs = vec![c(Formula::eq(x.clone(), Term::int(1))), c(Formula::eq(x, Term::int(2)))];
        match solve(&cs).unwrap() {
            LpResult::Unsat(cert) => assert!(cert.verify(&cs).unwrap()),
            LpResult::Sat(_) => panic!("infeasible"),
        }
    }

    #[test]
    fn larger_chain_is_handled() {
        // x0 <= x1 <= ... <= x10, x10 <= x0 - 1 : infeasible.
        let mut cs = Vec::new();
        for i in 0..10 {
            cs.push(c(Formula::le(Term::ivar("x", i), Term::ivar("x", i + 1))));
        }
        cs.push(c(Formula::le(Term::ivar("x", 10), Term::ivar("x", 0).sub(Term::int(1)))));
        match solve(&cs).unwrap() {
            LpResult::Unsat(cert) => assert!(cert.verify(&cs).unwrap()),
            LpResult::Sat(_) => panic!("cycle with a strict drop must be infeasible"),
        }
        // Dropping the last constraint makes it satisfiable.
        cs.pop();
        assert!(solve(&cs).unwrap().is_sat());
    }

    #[test]
    fn conflict_core_is_minimal() {
        // x >= 5, x <= 4, y <= 0 (irrelevant), x <= 3 (redundant with x <= 4
        // for the conflict): the IIS must be exactly two rows that are
        // jointly infeasible, and dropping either must make it satisfiable.
        let x = Term::var("x");
        let y = Term::var("y");
        let cs = vec![
            c(Formula::ge(x.clone(), Term::int(5))),
            c(Formula::le(x.clone(), Term::int(4))),
            c(Formula::le(y, Term::int(0))),
            c(Formula::le(x, Term::int(3))),
        ];
        let mut tab = IncrementalSimplex::new();
        for cst in &cs {
            tab.push_constraint(cst).unwrap();
        }
        assert!(!tab.check().unwrap());
        let core = tab.conflict_core().unwrap();
        assert!(core.contains(&0), "the lower bound is in every conflict: {core:?}");
        assert_eq!(core.len(), 2, "{core:?}");
        // The core subsystem is infeasible; dropping any row makes it sat.
        let sub: Vec<_> = core.iter().map(|&i| cs[i].clone()).collect();
        assert!(!solve(&sub).unwrap().is_sat());
        for drop in 0..sub.len() {
            let mut reduced = sub.clone();
            reduced.remove(drop);
            assert!(solve(&reduced).unwrap().is_sat(), "core must be irreducible");
        }
    }

    #[test]
    fn conflict_core_requires_a_failed_check() {
        let mut tab: IncrementalSimplex<VarRef> = IncrementalSimplex::new();
        assert!(tab.conflict_core().is_none());
        tab.push_constraint(&c(Formula::le(Term::var("x"), Term::int(1)))).unwrap();
        assert!(tab.check().unwrap());
        assert!(tab.conflict_core().is_none());
    }

    #[test]
    fn certificate_rejects_tampering() {
        let x = Term::var("x");
        let cs = vec![c(Formula::ge(x.clone(), Term::int(5))), c(Formula::le(x, Term::int(4)))];
        let LpResult::Unsat(mut cert) = solve(&cs).unwrap() else {
            panic!("infeasible");
        };
        assert!(cert.verify(&cs).unwrap());
        cert.multipliers[0] = Rat::ZERO;
        assert!(!cert.verify(&cs).unwrap());
    }

    /// Asserts the tableau invariants: every row is strictly ascending,
    /// free of zero numerators and of basic columns, over a positive
    /// denominator that shares no factor with all its numerators; every
    /// basic value is its row applied to the non-basic values; and, when
    /// `feasible` (after a successful check), every column is within its
    /// bounds.
    fn assert_tableau_invariants<K: Ord + Clone + Debug>(
        tab: &IncrementalSimplex<K>,
        feasible: bool,
    ) {
        assert_eq!(tab.rows.len(), tab.total());
        for (b, row) in tab.rows.iter().enumerate() {
            let Some(row) = row else { continue };
            let entries = &row.entries;
            assert!(entries.windows(2).all(|w| w[0].0 < w[1].0), "row {b} not ascending: {row:?}");
            assert!(entries.iter().all(|&(k, n)| n != 0 && tab.rows[k].is_none()));
            assert!(row.den > 0, "row {b} has a non-positive denominator: {row:?}");
            let g =
                entries.iter().fold(row.den.unsigned_abs(), |g, &(_, n)| gcd(g, n.unsigned_abs()));
            assert_eq!(g, 1, "row {b} is not in lowest terms: {row:?}");
            let value = entries.iter().try_fold(DeltaRat::ZERO, |value, &(k, n)| {
                value.add(tab.beta[k].scale(row.coeff(n)?)?)
            });
            // Summing in row order can overflow where the pivots' updates
            // did not; the comparison needs a sum that fits.
            if let Ok(value) = value {
                assert_eq!(value, tab.beta[b], "basic column {b} drifted from its row");
            }
        }
        if feasible {
            for (col, v) in tab.beta.iter().enumerate() {
                assert!(tab.lower[col].is_none_or(|l| l <= *v), "column {col} below its bound");
                assert!(tab.upper[col].is_none_or(|u| *v <= u), "column {col} above its bound");
            }
        }
    }

    /// One step of a random incremental session.
    #[derive(Clone, Debug)]
    enum Op {
        Push(LinConstraint<u32>),
        Check,
        /// Pops to this checkpoint, clamped to the current one.
        PopTo(usize),
    }

    /// A random constraint over at most five variables whose coefficients
    /// and constant come from `coeff`.
    fn constraint_over<S: Strategy<Value = Rat> + 'static>(
        coeff: impl Fn() -> S,
    ) -> impl Strategy<Value = LinConstraint<u32>> {
        let op = prop_oneof![Just(ConstrOp::Le), Just(ConstrOp::Lt), Just(ConstrOp::Eq)];
        (proptest::collection::vec(coeff(), 1..=5), coeff(), op).prop_map(|(coeffs, k, op)| {
            let mut e = LinExpr::constant(k);
            for (v, a) in coeffs.into_iter().enumerate() {
                e.add_term(v as u32, a).unwrap();
            }
            LinConstraint::new(e, op)
        })
    }

    /// Coefficients in −3..3.
    fn small_int() -> impl Strategy<Value = Rat> {
        (-3i128..=3).prop_map(Rat::int)
    }

    /// Mostly small integers, but also fractions and large multiples of
    /// shared factors, so rows get non-unit denominators and substitutions
    /// leave common factors for the row normalization to divide out.
    fn mixed_coeff() -> impl Strategy<Value = Rat> {
        prop_oneof![
            small_int(),
            small_int(),
            (-3i128..=3, 1i128..=6).prop_map(|(n, d)| Rat::new(n, d).unwrap()),
            (-3i128..=3, 0usize..5)
                .prop_map(|(n, i)| Rat::int(n * [6, 10, 15, 1 << 20, 3 << 12][i])),
        ]
    }

    fn op_strategy<S: Strategy<Value = LinConstraint<u32>> + 'static>(
        constraint: impl Fn() -> S,
    ) -> impl Strategy<Value = Op> {
        prop_oneof![
            constraint().prop_map(Op::Push),
            constraint().prop_map(Op::Push),
            Just(Op::Check),
            (0usize..30).prop_map(Op::PopTo),
        ]
    }

    /// A tableau row with one `Rat` per entry.
    type RatRow = Vec<(usize, Rat)>;

    /// `row + c · other` on `Rat` rows, by a sorted merge that drops zeros.
    fn rat_add_scaled(row: &[(usize, Rat)], c: Rat, other: &[(usize, Rat)]) -> SmtResult<RatRow> {
        let mut out = Vec::with_capacity(row.len() + other.len());
        let mut rest = row.iter().copied().peekable();
        for &(k, b) in other {
            while let Some(entry) = rest.next_if(|&(l, _)| l < k) {
                out.push(entry);
            }
            let term = c.mul(b)?;
            let sum = match rest.next_if(|&(l, _)| l == k) {
                Some((_, a)) => a.add(term)?,
                None => term,
            };
            if !sum.is_zero() {
                out.push((k, sum));
            }
        }
        out.extend(rest);
        Ok(out)
    }

    /// The tableau that fraction-free rows replaced: one normalised `Rat`
    /// per row entry and the rows in a `BTreeMap` keyed by basic column,
    /// with the same column layout, Bland's rule and pop discipline.  It is
    /// the oracle that `IncrementalSimplex` pivots exactly as it did.
    #[derive(Default)]
    struct RatTableau {
        index: BTreeMap<u32, usize>,
        is_var: Vec<bool>,
        constraints: Vec<(LinConstraint<u32>, usize)>,
        lower: Vec<Option<DeltaRat>>,
        upper: Vec<Option<DeltaRat>>,
        beta: Vec<DeltaRat>,
        rows: BTreeMap<usize, RatRow>,
        conflict: Option<FarkasCertificate>,
    }

    impl RatTableau {
        fn add_column(&mut self, is_var: bool) -> usize {
            self.is_var.push(is_var);
            self.lower.push(None);
            self.upper.push(None);
            self.beta.push(DeltaRat::ZERO);
            self.is_var.len() - 1
        }

        fn push(&mut self, c: &LinConstraint<u32>) -> SmtResult<()> {
            for v in c.expr.vars() {
                if !self.index.contains_key(&v) {
                    let col = self.add_column(true);
                    self.index.insert(v, col);
                }
            }
            let slack = self.add_column(false);
            let mut row = Vec::new();
            for (v, coeff) in c.expr.terms() {
                let col = self.index[v];
                let unit = [(col, Rat::ONE)];
                let other = self.rows.get(&col).map_or(&unit[..], Vec::as_slice);
                row = rat_add_scaled(&row, coeff, other)?;
            }
            let mut value = DeltaRat::ZERO;
            for &(k, a) in &row {
                value = value.add(self.beta[k].scale(a)?)?;
            }
            self.beta[slack] = value;
            self.rows.insert(slack, row);
            let bound = c.expr.constant_part().neg()?;
            self.upper[slack] = Some(match c.op {
                ConstrOp::Lt => DeltaRat::just_below(bound),
                ConstrOp::Le | ConstrOp::Eq => DeltaRat::real(bound),
            });
            if c.op == ConstrOp::Eq {
                self.lower[slack] = Some(DeltaRat::real(bound));
            }
            self.constraints.push((c.clone(), slack));
            Ok(())
        }

        fn pop_to(&mut self, checkpoint: usize) -> SmtResult<()> {
            while self.constraints.len() > checkpoint {
                let (_, s) = self.constraints.pop().expect("len checked");
                self.lower[s] = None;
                self.upper[s] = None;
                if !self.rows.contains_key(&s) {
                    let referencing = self
                        .rows
                        .iter()
                        .find(|(_, row)| row.iter().any(|&(k, _)| k == s))
                        .map(|(&b, _)| b);
                    if let Some(b) = referencing {
                        self.pivot(b, s)?;
                    }
                }
                self.rows.remove(&s);
                self.conflict = None;
            }
            while let Some(last) = self.is_var.len().checked_sub(1) {
                let is_dead_slack = !self.is_var[last]
                    && !self.rows.contains_key(&last)
                    && self.lower[last].is_none()
                    && self.upper[last].is_none()
                    && self.constraints.iter().all(|&(_, s)| s != last)
                    && self.rows.values().all(|row| row.iter().all(|&(k, _)| k != last));
                if !is_dead_slack {
                    break;
                }
                self.is_var.pop();
                self.lower.pop();
                self.upper.pop();
                self.beta.pop();
            }
            Ok(())
        }

        fn check(&mut self) -> SmtResult<bool> {
            self.conflict = None;
            loop {
                let violated = self.rows.keys().copied().find(|&b| {
                    let v = self.beta[b];
                    self.lower[b].is_some_and(|l| v < l) || self.upper[b].is_some_and(|u| v > u)
                });
                let Some(b) = violated else {
                    return Ok(true);
                };
                let lower_violation = self.lower[b].is_some_and(|l| self.beta[b] < l);
                let target = if lower_violation { self.lower[b] } else { self.upper[b] };
                let row = &self.rows[&b];
                let pivot = row.iter().find(|&&(j, a)| {
                    if a.is_positive() == lower_violation {
                        self.upper[j].is_none_or(|u| self.beta[j] < u)
                    } else {
                        self.lower[j].is_none_or(|l| self.beta[j] > l)
                    }
                });
                let Some(&(j, a_bj)) = pivot else {
                    // The certificate of `build_conflict`: ∓1 on row b's
                    // constraint, ±a_bj on each of its columns'.
                    let sign = if lower_violation { Rat::ONE } else { Rat::MINUS_ONE };
                    let slot = |col: usize| self.constraints.iter().position(|&(_, s)| s == col);
                    let mut mult = vec![Rat::ZERO; self.constraints.len()];
                    mult[slot(b).expect("bounded")] = sign.neg()?;
                    for &(j, a) in row {
                        let cj = slot(j).expect("conflict row columns are slacks");
                        mult[cj] = mult[cj].add(sign.mul(a)?)?;
                    }
                    self.conflict = Some(FarkasCertificate { multipliers: mult });
                    return Ok(false);
                };
                let target = target.expect("bound checked");
                let theta = target.sub(self.beta[b])?.scale(a_bj.recip()?)?;
                self.beta[b] = target;
                self.beta[j] = self.beta[j].add(theta)?;
                for (&k, row) in &self.rows {
                    let a_kj = row.iter().find(|&&(l, _)| l == j).map_or(Rat::ZERO, |&(_, a)| a);
                    if k != b && !a_kj.is_zero() {
                        self.beta[k] = self.beta[k].add(theta.scale(a_kj)?)?;
                    }
                }
                self.pivot(b, j)?;
            }
        }

        fn pivot(&mut self, b: usize, j: usize) -> SmtResult<()> {
            let row_b = self.rows.remove(&b).expect("pivot row must be basic");
            let a_bj = row_b.iter().find(|&&(k, _)| k == j).expect("pivot column").1;
            let a_inv = a_bj.recip()?;
            let mut row_j: RatRow = Vec::with_capacity(row_b.len());
            for &(k, coeff) in &row_b {
                if k != j {
                    row_j.push((k, coeff.neg()?.mul(a_inv)?));
                }
            }
            row_j.insert(row_j.partition_point(|&(k, _)| k < b), (b, a_inv));
            for row in self.rows.values_mut() {
                if let Ok(i) = row.binary_search_by_key(&j, |&(k, _)| k) {
                    let c = row.remove(i).1;
                    *row = rat_add_scaled(row, c, &row_j)?;
                }
            }
            self.rows.insert(j, row_j);
            Ok(())
        }

        /// `IncrementalSimplex::model`'s δ instantiation, on this tableau.
        fn model(&self) -> SmtResult<BTreeMap<u32, Rat>> {
            let mut delta = Rat::ONE;
            for (c, _) in &self.constraints {
                let (mut a, mut bcoef) = (c.expr.constant_part(), Rat::ZERO);
                for (v, coeff) in c.expr.terms() {
                    let value = self.beta[self.index[v]];
                    a = a.add(coeff.mul(value.real)?)?;
                    bcoef = bcoef.add(coeff.mul(value.delta)?)?;
                }
                if c.op != ConstrOp::Eq && a.is_negative() && bcoef.is_positive() {
                    delta = delta.min(a.neg()?.div(bcoef)?.div(Rat::int(2))?);
                }
            }
            (self.index.iter())
                .map(|(&k, &col)| {
                    let value = self.beta[col];
                    Ok((k, value.real.add(value.delta.mul(delta)?)?))
                })
                .collect()
        }
    }

    /// Asserts that the two tableaux hold the same basis, the same rational
    /// rows, the same assignment and the same bounds.
    fn assert_same_tableau(tab: &IncrementalSimplex<u32>, oracle: &RatTableau) {
        let rows: BTreeMap<usize, RatRow> = (tab.rows.iter().enumerate())
            .filter_map(|(b, row)| {
                let row = row.as_ref()?;
                Some((b, row.entries.iter().map(|&(k, n)| (k, row.coeff(n).unwrap())).collect()))
            })
            .collect();
        assert_eq!(rows, oracle.rows, "the rows differ");
        assert_eq!(tab.beta, oracle.beta, "the assignments differ");
        assert_eq!((&tab.lower, &tab.upper), (&oracle.lower, &oracle.upper), "the bounds differ");
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(256))]

        /// Random push/check/pop sessions keep the sparse tableau
        /// well-formed after every operation, and every warm check agrees
        /// with a cold solve of the active constraints: a `Sat` model
        /// satisfies every active row, an `Unsat` certificate verifies.
        #[test]
        fn tableau_invariants_survive_push_check_pop(
            ops in proptest::collection::vec(op_strategy(|| constraint_over(small_int)), 0..=30)
        ) {
            let mut tab: IncrementalSimplex<u32> = IncrementalSimplex::new();
            for op in ops {
                let mut feasible = false;
                match op {
                    Op::Push(c) => tab.push_constraint(&c).unwrap(),
                    Op::PopTo(n) => tab.pop_to(n.min(tab.checkpoint())).unwrap(),
                    Op::Check => {
                        let active = tab.active_constraints();
                        feasible = tab.check().unwrap();
                        prop_assert_eq!(feasible, solve(&active).unwrap().is_sat());
                        if feasible {
                            let model = tab.model().unwrap();
                            let value = |v: &u32| model.get(v).copied().unwrap_or(Rat::ZERO);
                            for c in &active {
                                prop_assert!(c.holds(&value).unwrap(), "model violates {:?}", c);
                            }
                        } else {
                            prop_assert!(tab.take_certificate().verify(&active).unwrap());
                        }
                    }
                }
                assert_tableau_invariants(&tab, feasible);
            }
        }

        /// The same random sessions, with fractional and large
        /// coefficients, on the fraction-free tableau and on the `Rat`-row
        /// oracle: after every step both hold the same basis, rows,
        /// assignment and bounds, so every check gives the same verdict,
        /// model, certificate and conflict core.  Integer rows may
        /// overflow where `Rat` rows do not (or the reverse); such a
        /// session stops at its first overflow, which must be reported as
        /// `SmtError::Overflow`.
        #[test]
        fn fraction_free_rows_pivot_like_rat_rows(
            ops in proptest::collection::vec(op_strategy(|| constraint_over(mixed_coeff)), 0..=30)
        ) {
            let mut tab: IncrementalSimplex<u32> = IncrementalSimplex::new();
            let mut oracle = RatTableau::default();
            for op in ops {
                let (got, want) = match op {
                    Op::Push(c) => {
                        (tab.push_constraint(&c).map(|()| None), oracle.push(&c).map(|()| None))
                    }
                    Op::PopTo(n) => {
                        let n = n.min(tab.checkpoint());
                        (tab.pop_to(n).map(|()| None), oracle.pop_to(n).map(|()| None))
                    }
                    Op::Check => (tab.check().map(Some), oracle.check().map(Some)),
                };
                let (got, want) = match (got, want) {
                    (Ok(got), Ok(want)) => (got, want),
                    (got, want) => {
                        for e in [got.err(), want.err()].into_iter().flatten() {
                            prop_assert_eq!(e, SmtError::Overflow);
                        }
                        break;
                    }
                };
                prop_assert_eq!(got, want);
                assert_same_tableau(&tab, &oracle);
                assert_tableau_invariants(&tab, got == Some(true));
                if got == Some(true) {
                    prop_assert_eq!(tab.model(), oracle.model());
                } else if got == Some(false) {
                    let want = oracle.conflict.as_ref().expect("failed check");
                    let support: Vec<usize> = (want.multipliers.iter().enumerate())
                        .filter(|(_, m)| !m.is_zero())
                        .map(|(i, _)| i)
                        .collect();
                    prop_assert_eq!(tab.conflict_core(), Some(support));
                    prop_assert_eq!(&tab.take_certificate(), want);
                }
            }
        }
    }
}
