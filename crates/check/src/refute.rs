//! A refutation engine built on Fourier–Motzkin elimination.
//!
//! Everything the certificate checker decides reduces to one question: *is
//! this formula unsatisfiable over the integers?*  Initiation is refutation
//! of the negated entry invariant, consecution is refutation of
//! `Inv ∧ τ ∧ ¬Inv'`, error exclusion is refutation of the error invariant,
//! and the bounded-unroll check refutes path prefixes.  This module answers
//! that question with a deliberately small pipeline that shares nothing with
//! the engines' solver ([`pathinv_smt::Solver`]): a literal tableau whose
//! only arithmetic oracle is [`pathinv_smt::fourier_motzkin::eliminate`]
//! plus integer coefficient normalization.
//!
//! The pipeline is *sound for refutation*: every transformation either
//! preserves satisfiability or weakens the formula (adds models), so
//! [`Refutation::Refuted`] always means the original formula is genuinely
//! unsatisfiable over the integers.  The converse does not hold —
//! [`Refutation::NotRefuted`] means "this checker could not close the
//! branch", which is exactly the honesty a certificate audit needs.
//!
//! Transformations used, each annotated with its soundness argument:
//!
//! * **Negation + skolemization** (`negated_nnf`): negation is pushed to
//!   the atoms; a *negated* universal quantifier becomes an existential,
//!   whose bound variables are replaced by constants new to the query
//!   (equisatisfiable).
//! * **Tableau branching**: disjunctions branch; a formula is refuted only
//!   when *every* branch is refuted (equivalence).
//! * **Quantifier instantiation**: a positive `∀k. φ` contributes the ground
//!   instances `φ[k := t]` for index terms `t` occurring in the branch and
//!   is then dropped.  Instances are implied by the quantifier and dropping
//!   it weakens the branch (both sound for refutation).
//! * **Array reduction**: SSA store equations `a' = a{i := v}` are
//!   substituted (equivalence), `a{i := v}[j]` is split into the `i = j` and
//!   `i ≠ j` cases (equivalence), and any remaining `Select`/`App` term is
//!   abstracted by an integer variable new to the leaf, identical terms
//!   sharing the variable (weakening).
//! * **Disequality split**: `s ≠ t` on integer terms becomes the `s < t` /
//!   `s > t` branches (equivalence over a totally ordered domain) — tried
//!   only after Fourier–Motzkin fails to refute the node's relaxation
//!   without its disequalities (a weakening), so a node that closes without
//!   them never pays the `2ᵈ` leaves of its `d` disequalities.
//! * **Integer normalization**: strict inequalities with integer
//!   coefficients are tightened (`e < 0` to `e + 1 ≤ 0`), coefficients are
//!   divided by their gcd with the constant floored, and an equation whose
//!   coefficient gcd does not divide its constant is unsatisfiable — the
//!   classic gcd test (all preserve exactly the integer solutions).
//! * **Fourier–Motzkin elimination**: variables are eliminated one by one;
//!   elimination is exact over the rationals, so a ground contradiction
//!   refutes the branch a fortiori over the integers.
//! * **Single-premise entailment** ([`Premises`]): a query `P ∧ ¬c` is
//!   answered `Refuted` without running the pipeline when one linear atom
//!   of the conjunction `P`, integer-normalized to `e + m ≤ 0`, has the
//!   same variable part as `c` normalized to `e + k ≤ 0` and `m ≥ k` (an
//!   equation counts as both of its inequalities, and an equation `c` needs
//!   both of its inequalities entailed).  Sound because the two normalized
//!   rows, `e ≤ −m` and the tightened `¬c`, `e ≥ 1 − k`, are contradictory
//!   over the rationals, so Fourier–Motzkin on any literal set holding both
//!   derives a ground contradiction: the rule skips only work that would
//!   refute the query.  Disequalities, non-linear atoms, array reads and
//!   atoms over variables the pipeline may treat as arrays are never
//!   entailed.

use pathinv_ir::formula::{Atom, RelOp};
use pathinv_ir::{Formula, Symbol, Term, VarRef};
use pathinv_smt::fourier_motzkin::eliminate;
use pathinv_smt::{checked_lcm, gcd, ConstrOp, LinConstraint, LinExpr, Rat, SmtResult};
use std::collections::{BTreeMap, BTreeSet};

/// The three-valued outcome of a refutation attempt.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Refutation {
    /// The formula is unsatisfiable over the integers (a proof, not a
    /// heuristic: every pipeline step is sound for refutation).
    Refuted,
    /// The checker closed no contradiction on at least one branch; nothing
    /// is claimed about satisfiability.
    NotRefuted,
    /// A resource budget ran out before the search finished.
    Budget,
}

/// Resource budgets for one certificate check (shared across all the
/// refutation queries the check issues).
#[derive(Clone, Debug)]
pub struct CheckLimits {
    /// Fourier–Motzkin variable eliminations across the whole check.
    pub max_eliminations: usize,
    /// Case splits (disjunction branches, store and disequality splits).
    pub max_splits: usize,
    /// Constraints a single branch may accumulate during elimination.
    pub max_constraints: usize,
    /// Ground instances generated per quantifier per instantiation round.
    pub max_instances: usize,
    /// Instantiation rounds per branch (new selects can appear once).
    pub instantiation_rounds: u32,
    /// CFG nodes the bounded-unroll check may expand.
    pub max_unroll_nodes: usize,
}

impl Default for CheckLimits {
    fn default() -> Self {
        CheckLimits {
            max_eliminations: 2_000_000,
            max_splits: 500_000,
            max_constraints: 4_000,
            max_instances: 64,
            instantiation_rounds: 2,
            max_unroll_nodes: 200_000,
        }
    }
}

/// A refutation engine carrying its remaining budgets, reused across the
/// queries of one certificate check.
pub struct Refuter {
    limits: CheckLimits,
    eliminations_left: usize,
    splits_left: usize,
    skolems: Reserved,
    abstractions: Reserved,
}

/// Reserved names `{prefix}!k` for skolem constants and abstraction
/// variables, interned on first use and renumbered from 0 in every query or
/// leaf: `!` cannot occur in a parsed identifier, so they never clash with
/// program variables, and an audit adds a bounded set of names to the
/// never-freeing symbol interner instead of one per leaf.
struct Reserved {
    prefix: &'static str,
    names: Vec<Symbol>,
}

impl Reserved {
    fn name(&mut self, k: usize) -> Symbol {
        while self.names.len() <= k {
            self.names.push(Symbol::intern(&format!("{}!{}", self.prefix, self.names.len())));
        }
        self.names[k]
    }
}

/// A Fourier–Motzkin variable keyed by elimination rank: program variables
/// (0) go first, then skolem constants (1), then abstraction variables (2),
/// whenever the reserved names were interned.
type FmVar = (u8, VarRef);

/// One tableau branch: accumulated ground literals plus positive universal
/// quantifiers awaiting instantiation.
#[derive(Clone)]
struct Branch {
    lits: Vec<Atom>,
    quants: Vec<(Vec<Symbol>, Formula)>,
    rounds_left: u32,
}

/// Select-congruence pairs already case-split on the current ground path
/// (canonically ordered), so each pair is split at most once.
type AckedPairs = BTreeSet<(Term, Term)>;

impl Refuter {
    /// A refuter with the given budgets.
    pub fn new(limits: &CheckLimits) -> Refuter {
        Refuter {
            limits: limits.clone(),
            eliminations_left: limits.max_eliminations,
            splits_left: limits.max_splits,
            skolems: Reserved { prefix: "chk_sk", names: Vec::new() },
            abstractions: Reserved { prefix: "chk_abs", names: Vec::new() },
        }
    }

    /// Attempts to prove `f` unsatisfiable over the integers.
    pub fn refute(&mut self, f: &Formula) -> Refutation {
        let mut next = 0;
        let g = negated_nnf(f, false, &mut || {
            next += 1;
            self.skolems.name(next - 1)
        });
        let branch = Branch {
            lits: Vec::new(),
            quants: Vec::new(),
            rounds_left: self.limits.instantiation_rounds,
        };
        self.refute_branch(vec![g], branch)
    }

    /// Attempts to prove the entailment `antecedent ⊨ consequent` by
    /// refuting `antecedent ∧ ¬consequent`.
    pub fn entails(&mut self, antecedent: &Formula, consequent: &Formula) -> Refutation {
        self.refute(&Formula::and(vec![antecedent.clone(), consequent.clone().not()]))
    }

    /// Processes `pending` formulas into the branch, branching on
    /// disjunctions; returns `Refuted` only when every branch closes.
    fn refute_branch(&mut self, mut pending: Vec<Formula>, mut branch: Branch) -> Refutation {
        loop {
            let Some(f) = pending.pop() else {
                // No boolean structure left: instantiate quantifiers (which
                // re-enqueues their ground instances) or decide the leaf.
                if !branch.quants.is_empty() && branch.rounds_left > 0 {
                    branch.rounds_left -= 1;
                    let instances = self.instances(&branch);
                    if instances.is_empty() {
                        // No candidate index terms: drop the quantifiers
                        // (weakening — sound for refutation).
                        branch.quants.clear();
                    } else {
                        if branch.rounds_left == 0 {
                            branch.quants.clear();
                        }
                        pending.extend(instances);
                    }
                    continue;
                }
                return self.ground_refute(branch.lits.clone(), AckedPairs::new());
            };
            match f {
                Formula::True => {}
                Formula::False => return Refutation::Refuted,
                Formula::Atom(a) => branch.lits.push(a),
                Formula::And(parts) => pending.extend(parts),
                Formula::Or(parts) => {
                    // Prune: if the literals gathered so far are already
                    // contradictory, the whole subtree is closed.
                    if branch.lits.len() > 1
                        && self.ground_refute(branch.lits.clone(), AckedPairs::new())
                            == Refutation::Refuted
                    {
                        return Refutation::Refuted;
                    }
                    for part in parts {
                        if self.splits_left == 0 {
                            return Refutation::Budget;
                        }
                        self.splits_left -= 1;
                        let mut sub = pending.clone();
                        sub.push(part);
                        match self.refute_branch(sub, branch.clone()) {
                            Refutation::Refuted => {}
                            other => return other,
                        }
                    }
                    return Refutation::Refuted;
                }
                Formula::Forall(vs, body) => branch.quants.push((vs, *body)),
                // `negated_nnf` eliminates `Not` and `Implies`; if one slips
                // through (it cannot, structurally), dropping it only weakens
                // the branch, which is sound for refutation.
                Formula::Not(_) | Formula::Implies(..) => {}
            }
        }
    }

    /// Ground instances of the branch's quantifiers at the index terms
    /// occurring in its literals.
    fn instances(&self, branch: &Branch) -> Vec<Formula> {
        let mut candidates: BTreeSet<Term> = BTreeSet::new();
        for a in &branch.lits {
            for t in [&a.lhs, &a.rhs] {
                t.for_each(&mut |sub| match sub {
                    Term::Select(_, i) | Term::Store(_, i, _) if i.bound_vars().is_empty() => {
                        candidates.insert((**i).clone());
                    }
                    _ => {}
                });
            }
        }
        if candidates.is_empty() {
            return Vec::new();
        }
        let cands: Vec<Term> = candidates.into_iter().collect();
        let mut out = Vec::new();
        for (vs, body) in &branch.quants {
            // Cartesian product of candidates over the bound variables,
            // capped at `max_instances` per quantifier.
            let mut tuples: Vec<Vec<&Term>> = vec![Vec::new()];
            for _ in vs {
                let mut next = Vec::new();
                for tuple in &tuples {
                    for c in &cands {
                        let mut t = tuple.clone();
                        t.push(c);
                        next.push(t);
                    }
                }
                tuples = next;
                if tuples.len() > self.limits.max_instances {
                    tuples.truncate(self.limits.max_instances);
                }
            }
            for tuple in tuples {
                let mut inst = body.clone();
                for (v, t) in vs.iter().zip(tuple) {
                    inst = inst.map_terms(&|tm| tm.subst_bound(*v, t));
                }
                out.push(inst);
            }
        }
        out
    }

    /// Decides a pure literal conjunction: array reduction, disequality
    /// splits, select-congruence splits, then integer-normalized
    /// Fourier–Motzkin elimination.  `acked` carries the congruence pairs
    /// already split on this path so each pair branches at most once.
    fn ground_refute(&mut self, lits: Vec<Atom>, acked: AckedPairs) -> Refutation {
        let lits = substitute_array_defs(lits);

        // Select-over-store: split `a{i := v}[j]` into `i = j` (the read
        // yields `v`) and `i ≠ j` (the read falls through to `a[j]`).
        if let Some((target, arr, idx, val, j)) = find_select_over_store(&lits) {
            if self.splits_left < 2 {
                return Refutation::Budget;
            }
            self.splits_left -= 2;
            let mut hit: Vec<Atom> = lits.iter().map(|a| rewrite_atom(a, &target, &val)).collect();
            hit.push(Atom::new((*idx).clone(), RelOp::Eq, (*j).clone()));
            match self.ground_refute(hit, acked.clone()) {
                Refutation::Refuted => {}
                other => return other,
            }
            let through = Term::Select(arr, j.clone());
            let mut miss: Vec<Atom> =
                lits.iter().map(|a| rewrite_atom(a, &target, &through)).collect();
            miss.push(Atom::new((*idx).clone(), RelOp::Ne, (*j).clone()));
            return self.ground_refute(miss, acked);
        }

        // Integer disequality: split into the strict halves, unless the
        // relaxation without the disequalities already closes the node.
        if let Some(pos) = lits.iter().position(|a| a.op == RelOp::Ne && is_integer_atom(a, &lits))
        {
            if let Some(settled) = self.fm_settles(&lits) {
                return settled;
            }
            if self.splits_left < 2 {
                return Refutation::Budget;
            }
            self.splits_left -= 2;
            let mut lt = lits.clone();
            lt[pos] = Atom::new(lits[pos].lhs.clone(), RelOp::Lt, lits[pos].rhs.clone());
            match self.ground_refute(lt, acked.clone()) {
                Refutation::Refuted => {}
                other => return other,
            }
            let mut gt = lits;
            gt[pos] = Atom::new(gt[pos].lhs.clone(), RelOp::Gt, gt[pos].rhs.clone());
            return self.ground_refute(gt, acked);
        }

        if let Some(settled) = self.fm_settles(&lits) {
            return settled;
        }

        // Select congruence (Ackermann split): two reads of the same array
        // at syntactically different indices are related by
        // `i < j ∨ i > j ∨ (i = j ∧ a[i] = a[j])` — without this, the
        // abstraction in `fm_refute` treats `a[i]` and `a[j]` as unrelated
        // even on paths that force `i = j` arithmetically.  Tried only
        // after the plain leaf fails, so refutable branches never pay the
        // three-way blowup; `acked` caps each pair at one split per path.
        let Some((s, t)) = find_unsplit_select_pair(&lits, &acked) else {
            return Refutation::NotRefuted;
        };
        if self.splits_left < 3 {
            return Refutation::Budget;
        }
        self.splits_left -= 3;
        let (i, j) = match (&s, &t) {
            (Term::Select(_, i), Term::Select(_, j)) => ((**i).clone(), (**j).clone()),
            _ => unreachable!("pair finder only returns selects"),
        };
        let mut next_acked = acked;
        next_acked.insert((s.clone(), t.clone()));
        for op in [RelOp::Lt, RelOp::Gt] {
            let mut apart = lits.clone();
            apart.push(Atom::new(i.clone(), op, j.clone()));
            match self.ground_refute(apart, next_acked.clone()) {
                Refutation::Refuted => {}
                other => return other,
            }
        }
        // Equal indices: the reads coincide — record both the index and the
        // value equality (the latter links the two abstraction variables in
        // `fm_refute`).  Only existing subterms are reused, so the select
        // population never grows and `acked` makes the recursion finite.
        let mut same = lits;
        same.push(Atom::new(i, RelOp::Eq, j));
        same.push(Atom::new(s, RelOp::Eq, t));
        self.ground_refute(same, next_acked)
    }

    /// Runs [`Self::fm_refute`]; `Some` when that settles the node (refuted
    /// or out of budget).  Arithmetic overflow while normalizing settles
    /// nothing: never claim a refutation we did not complete.
    fn fm_settles(&mut self, lits: &[Atom]) -> Option<Refutation> {
        match self.fm_refute(lits) {
            Ok(settled @ (Refutation::Refuted | Refutation::Budget)) => Some(settled),
            Ok(Refutation::NotRefuted) | Err(_) => None,
        }
    }

    /// The arithmetic leaf: abstract residual array/function terms, convert
    /// to linear constraints, and run integer-normalized Fourier–Motzkin
    /// elimination to a ground contradiction.
    ///
    /// Rows are integer-normalized on entry and after each elimination.
    /// After a Gaussian pivot only the rows it rewrote are: the others are
    /// already the output of [`normalize_integer`], which is idempotent.
    fn fm_refute(&mut self, lits: &[Atom]) -> SmtResult<Refutation> {
        let mut abstraction: BTreeMap<Term, VarRef> = BTreeMap::new();
        let mut cs: Vec<LinConstraint<FmVar>> = Vec::new();
        for a in lits {
            let lhs = abstract_nonarith(&a.lhs, &mut abstraction, &mut self.abstractions);
            let rhs = abstract_nonarith(&a.rhs, &mut abstraction, &mut self.abstractions);
            // Unconvertible atoms (disequalities, nonlinear products) are
            // dropped: weakening, sound for refutation.
            if let Ok(c) = LinConstraint::from_atom(&Atom::new(lhs, a.op, rhs)) {
                let rank = |v: &VarRef| {
                    u8::from(self.skolems.names.contains(&v.sym))
                        + 2 * u8::from(self.abstractions.names.contains(&v.sym))
                };
                let mut expr = LinExpr::constant(c.expr.constant_part());
                for (v, r) in c.expr.terms() {
                    expr.add_term((rank(v), *v), r)?;
                }
                cs.push(LinConstraint::new(expr, c.op));
            }
        }
        let all = 0..cs.len();
        if normalize_rows(&mut cs, all)? {
            return Ok(Refutation::Refuted);
        }
        loop {
            // Gaussian pivot before Fourier–Motzkin: an equation with a ±1
            // coefficient on some variable defines that variable as an
            // integer-coefficient combination of the rest, so substituting
            // it everywhere preserves the *integer* solutions exactly.
            // Rational FM elimination below does not — it forgets that the
            // eliminated variable was an integer, which is precisely what
            // the gcd test needs (e.g. `a + b = 2k + 1` under `a = n,
            // b = n` only contradicts over ℤ, and FM would happily take
            // `k = n - 1/2`).
            let pivot = cs.iter().enumerate().find_map(|(idx, c)| {
                if c.op != ConstrOp::Eq {
                    return None;
                }
                c.expr
                    .terms()
                    .find(|(_, r)| r.denom() == 1 && r.numer().abs() == 1)
                    .map(|(v, r)| (idx, *v, r))
            });
            if let Some((idx, v, a)) = pivot {
                if self.eliminations_left == 0 {
                    return Ok(Refutation::Budget);
                }
                self.eliminations_left -= 1;
                let eq = cs.swap_remove(idx);
                let mut rewritten = Vec::new();
                for (i, c) in cs.iter_mut().enumerate() {
                    let cv = c.expr.coeff(&v);
                    if !cv.is_zero() {
                        // `a ∈ {−1, 1}`, so `1/a = a`: subtracting
                        // `(cv·a)·eq` zeroes `v` without leaving ℤ.
                        c.expr = c.expr.sub(&eq.expr.scale(cv.mul(a)?)?)?;
                        rewritten.push(i);
                    }
                }
                if normalize_rows(&mut cs, rewritten)? {
                    return Ok(Refutation::Refuted);
                }
                continue;
            }
            let Some(var) = cs.iter().flat_map(|c| c.expr.vars()).min() else {
                // Every constraint was ground and satisfied.
                return Ok(Refutation::NotRefuted);
            };
            if self.eliminations_left == 0 {
                return Ok(Refutation::Budget);
            }
            self.eliminations_left -= 1;
            cs = match eliminate(&cs, &[var]) {
                Ok(cs) => cs,
                Err(_) => return Ok(Refutation::NotRefuted),
            };
            if cs.len() > self.limits.max_constraints {
                return Ok(Refutation::NotRefuted);
            }
            let all = 0..cs.len();
            if normalize_rows(&mut cs, all)? {
                return Ok(Refutation::Refuted);
            }
        }
    }
}

/// Integer-normalizes the rows of `cs` at the ascending indices `rows`, then
/// drops the ground rows; `true` when that refutes the conjunction.  A row
/// without integer solutions refutes at once, a false ground row only after
/// every later row normalized without overflow (an overflow settles
/// nothing).
fn normalize_rows<K: Ord + Clone>(
    cs: &mut Vec<LinConstraint<K>>,
    rows: impl IntoIterator<Item = usize>,
) -> SmtResult<bool> {
    let mut ground_false = false;
    for i in rows {
        match normalize_integer(&cs[i])? {
            Normalized::Unsat => return Ok(true),
            Normalized::Constraint(c) => {
                // Ground-true rows carry no information.
                ground_false |= c.expr.is_constant() && !c.holds(&|_| Rat::ZERO)?;
                cs[i] = c;
            }
        }
    }
    cs.retain(|c| !c.expr.is_constant());
    Ok(ground_false)
}

/// The variable part of a linear row: its non-zero coefficients, by
/// variable.
type VarPart = Vec<(VarRef, Rat)>;

/// The linear premises `P` of a family of queries `P ∧ ¬c`, indexed once so
/// that a conclusion `c` one premise already entails is answered without a
/// query (the single-premise rule of the module docs).
///
/// Only top-level conjuncts that are linear atoms over integer variables are
/// indexed; ignoring the rest can only make [`Premises::entails`] answer
/// `false` more often.
pub struct Premises {
    /// Per integer-normalized variable part `e`, the largest constant `m` of
    /// a premise row `e + m ≤ 0`.  An equation `e + m = 0` counts both ways,
    /// as `e + m ≤ 0` and as `−e − m ≤ 0`.
    bounds: BTreeMap<VarPart, Rat>,
    /// Variables the pipeline may treat as arrays: the bases of selects and
    /// stores anywhere in the premises, and the variables an equation
    /// defines by a store or aliases to one of them.  Atoms over them are
    /// neither indexed nor entailed.
    arrays: BTreeSet<VarRef>,
}

impl Premises {
    /// Indexes the conjunction of `premises`.
    pub fn new(premises: &[&Formula]) -> Premises {
        let mut arrays = BTreeSet::new();
        let mut aliases: Vec<(VarRef, VarRef)> = Vec::new();
        for p in premises {
            p.for_each_atom(&mut |a| {
                for t in [&a.lhs, &a.rhs] {
                    t.for_each(&mut |sub| {
                        if let Term::Select(base, _) | Term::Store(base, _, _) = sub {
                            if let Term::Var(v) = **base {
                                arrays.insert(v);
                            }
                        }
                    });
                }
                if a.op == RelOp::Eq {
                    match (&a.lhs, &a.rhs) {
                        (Term::Var(v), Term::Store(..)) | (Term::Store(..), Term::Var(v)) => {
                            arrays.insert(*v);
                        }
                        (Term::Var(v), Term::Var(w)) => aliases.push((*v, *w)),
                        _ => {}
                    }
                }
            });
        }
        // Aliases `v = w` of array variables, to a fixpoint.
        let mut grown = true;
        while grown {
            grown = false;
            for (v, w) in &aliases {
                if arrays.contains(v) != arrays.contains(w) {
                    arrays.extend([*v, *w]);
                    grown = true;
                }
            }
        }

        let mut premises_index = Premises { bounds: BTreeMap::new(), arrays };
        for p in premises {
            for conjunct in p.conjuncts() {
                let Formula::Atom(a) = conjunct else { continue };
                let Some((key, m, op)) = premises_index.row(&a) else { continue };
                if op == ConstrOp::Eq {
                    if let Some((neg_key, neg_m)) = negated(&key, m) {
                        premises_index.tighten(neg_key, neg_m);
                    }
                }
                premises_index.tighten(key, m);
            }
        }
        premises_index
    }

    /// Whether one premise entails `c`, so that `P ∧ ¬c` is refuted.
    pub fn entails(&self, c: &Formula) -> bool {
        let Formula::Atom(a) = c else { return false };
        let Some((key, k, op)) = self.row(a) else { return false };
        let implied = |key: &VarPart, k: Rat| self.bounds.get(key).is_some_and(|m| *m >= k);
        match op {
            ConstrOp::Le => implied(&key, k),
            ConstrOp::Eq => {
                implied(&key, k) && negated(&key, k).is_some_and(|(key, k)| implied(&key, k))
            }
            ConstrOp::Lt => false,
        }
    }

    /// The atom as an integer-normalized row `e + k ⋈ 0`, split into its
    /// variable part and constant, when it is a linear `≤`/`=` row with
    /// integer coefficients over variables that are not arrays.
    fn row(&self, a: &Atom) -> Option<(VarPart, Rat, ConstrOp)> {
        if a.op == RelOp::Ne {
            return None;
        }
        let c = LinConstraint::from_atom(a).ok()?;
        if c.expr.terms().any(|(v, _)| self.arrays.contains(v)) {
            return None;
        }
        let Normalized::Constraint(n) = normalize_integer(&c).ok()? else { return None };
        let integral =
            n.expr.terms().all(|(_, r)| r.is_integer()) && n.expr.constant_part().is_integer();
        if n.expr.is_constant() || n.op == ConstrOp::Lt || !integral {
            return None;
        }
        Some((n.expr.terms().map(|(v, r)| (*v, r)).collect(), n.expr.constant_part(), n.op))
    }

    /// Records the premise row `key + m ≤ 0`, keeping the tightest constant.
    fn tighten(&mut self, key: VarPart, m: Rat) {
        let best = self.bounds.entry(key).or_insert(m);
        if m > *best {
            *best = m;
        }
    }
}

/// The row `−e − k`, split the same way; `None` on overflow.
fn negated(key: &[(VarRef, Rat)], k: Rat) -> Option<(VarPart, Rat)> {
    let key = key.iter().map(|(v, r)| Some((*v, r.neg().ok()?))).collect::<Option<Vec<_>>>()?;
    Some((key, k.neg().ok()?))
}

/// Negation normal form with skolemization: negation is pushed to the atoms
/// and a negated `∀` becomes constants new to the query (drawn from
/// `skolem`) for its bound variables.  This is the checker's replacement for
/// [`Formula::nnf`], which refuses negated quantifiers.
fn negated_nnf(f: &Formula, neg: bool, skolem: &mut impl FnMut() -> Symbol) -> Formula {
    match f {
        Formula::True => {
            if neg {
                Formula::False
            } else {
                Formula::True
            }
        }
        Formula::False => {
            if neg {
                Formula::True
            } else {
                Formula::False
            }
        }
        Formula::Atom(a) => Formula::Atom(if neg { a.negated() } else { a.clone() }),
        Formula::Not(inner) => negated_nnf(inner, !neg, skolem),
        Formula::And(parts) => {
            let mapped: Vec<_> = parts.iter().map(|p| negated_nnf(p, neg, skolem)).collect();
            if neg {
                Formula::or(mapped)
            } else {
                Formula::and(mapped)
            }
        }
        Formula::Or(parts) => {
            let mapped: Vec<_> = parts.iter().map(|p| negated_nnf(p, neg, skolem)).collect();
            if neg {
                Formula::and(mapped)
            } else {
                Formula::or(mapped)
            }
        }
        Formula::Implies(a, b) => {
            if neg {
                Formula::and(vec![negated_nnf(a, false, skolem), negated_nnf(b, true, skolem)])
            } else {
                Formula::or(vec![negated_nnf(a, true, skolem), negated_nnf(b, false, skolem)])
            }
        }
        Formula::Forall(vs, body) => {
            if neg {
                // ¬∀k.φ ≡ ∃k.¬φ: replace each bound variable by a constant
                // new to the query (equisatisfiable skolemization).
                let mut g = (**body).clone();
                for v in vs {
                    let sk = skolem();
                    g = g.map_terms(&|t| t.subst_bound(*v, &Term::Var(VarRef::cur(sk))));
                }
                negated_nnf(&g, true, skolem)
            } else {
                Formula::Forall(vs.clone(), Box::new(negated_nnf(body, false, skolem)))
            }
        }
    }
}

/// Substitutes SSA array definitions `a = a₀{i := v}` (and array aliases
/// `a = b`) into the remaining literals, dropping the defining equation.
fn substitute_array_defs(mut lits: Vec<Atom>) -> Vec<Atom> {
    for _ in 0..lits.len() {
        let Some(pos) = lits.iter().position(|a| array_def(a, &lits).is_some()) else {
            return lits;
        };
        let (var, def) = array_def(&lits[pos], &lits).expect("position matched");
        let var_term = Term::Var(var);
        lits.remove(pos);
        lits = lits.iter().map(|a| rewrite_atom(a, &var_term, &def)).collect();
    }
    lits
}

/// Recognizes `v = Store(...)` / `Store(...) = v` / `v = w` (array alias)
/// literals usable as substitutions: returns the defined variable and its
/// definition when the definition does not mention the variable.
fn array_def(a: &Atom, lits: &[Atom]) -> Option<(VarRef, Term)> {
    if a.op != RelOp::Eq {
        return None;
    }
    for (side, other) in [(&a.lhs, &a.rhs), (&a.rhs, &a.lhs)] {
        if let Term::Var(v) = side {
            let arrayish = matches!(other, Term::Store(..))
                || matches!(other, Term::Var(w) if is_select_base(*w, lits) || is_select_base(*v, lits));
            if arrayish && !other.var_refs().contains(v) {
                return Some((*v, other.clone()));
            }
        }
    }
    None
}

/// True when the variable occurs as the array argument of a `Select` or
/// `Store` somewhere in the literals.
fn is_select_base(v: VarRef, lits: &[Atom]) -> bool {
    let mut found = false;
    for a in lits {
        for t in [&a.lhs, &a.rhs] {
            t.for_each(&mut |sub| match sub {
                Term::Select(base, _) | Term::Store(base, _, _) => {
                    if matches!(**base, Term::Var(w) if w == v) {
                        found = true;
                    }
                }
                _ => {}
            });
        }
    }
    found
}

/// Finds a pair of distinct `Select` terms over the same (syntactically
/// equal) array base whose congruence has not been split yet on this path.
/// The pair is returned in canonical (ordered) form so it matches the
/// `acked` bookkeeping.
fn find_unsplit_select_pair(lits: &[Atom], acked: &AckedPairs) -> Option<(Term, Term)> {
    let mut selects: BTreeSet<Term> = BTreeSet::new();
    for a in lits {
        for t in [&a.lhs, &a.rhs] {
            t.for_each(&mut |sub| {
                if let Term::Select(_, idx) = sub {
                    if idx.bound_vars().is_empty() {
                        selects.insert(sub.clone());
                    }
                }
            });
        }
    }
    let selects: Vec<Term> = selects.into_iter().collect();
    for (pos, s) in selects.iter().enumerate() {
        for t in &selects[pos + 1..] {
            let (Term::Select(sb, _), Term::Select(tb, _)) = (s, t) else { continue };
            if sb == tb && !acked.contains(&(s.clone(), t.clone())) {
                return Some((s.clone(), t.clone()));
            }
        }
    }
    None
}

/// Finds the first `Select(Store(a, i, v), j)` subterm in the literals.
#[allow(clippy::type_complexity)]
fn find_select_over_store(
    lits: &[Atom],
) -> Option<(Term, Box<Term>, Box<Term>, Box<Term>, Box<Term>)> {
    let mut found = None;
    for a in lits {
        for t in [&a.lhs, &a.rhs] {
            t.for_each(&mut |sub| {
                if found.is_some() {
                    return;
                }
                if let Term::Select(base, j) = sub {
                    if let Term::Store(arr, idx, val) = &**base {
                        found =
                            Some((sub.clone(), arr.clone(), idx.clone(), val.clone(), j.clone()));
                    }
                }
            });
        }
    }
    found
}

/// Replaces every occurrence of the subterm `from` by `to` in both sides.
fn rewrite_atom(a: &Atom, from: &Term, to: &Term) -> Atom {
    Atom::new(rewrite_term(&a.lhs, from, to), a.op, rewrite_term(&a.rhs, from, to))
}

fn rewrite_term(t: &Term, from: &Term, to: &Term) -> Term {
    if t == from {
        return to.clone();
    }
    match t {
        Term::Const(_) | Term::Var(_) | Term::Bound(_) => t.clone(),
        Term::Add(a, b) => {
            Term::Add(Box::new(rewrite_term(a, from, to)), Box::new(rewrite_term(b, from, to)))
        }
        Term::Sub(a, b) => {
            Term::Sub(Box::new(rewrite_term(a, from, to)), Box::new(rewrite_term(b, from, to)))
        }
        Term::Neg(a) => Term::Neg(Box::new(rewrite_term(a, from, to))),
        Term::Mul(a, b) => {
            Term::Mul(Box::new(rewrite_term(a, from, to)), Box::new(rewrite_term(b, from, to)))
        }
        Term::Select(a, b) => {
            Term::Select(Box::new(rewrite_term(a, from, to)), Box::new(rewrite_term(b, from, to)))
        }
        Term::Store(a, b, c) => Term::Store(
            Box::new(rewrite_term(a, from, to)),
            Box::new(rewrite_term(b, from, to)),
            Box::new(rewrite_term(c, from, to)),
        ),
        Term::App(f, args) => {
            Term::App(*f, args.iter().map(|x| rewrite_term(x, from, to)).collect())
        }
    }
}

/// True when neither side of the atom denotes an array (a `Store`, or a
/// variable used as a select base elsewhere), so a disequality may be split
/// into the ordered halves.
fn is_integer_atom(a: &Atom, lits: &[Atom]) -> bool {
    for t in [&a.lhs, &a.rhs] {
        match t {
            Term::Store(..) => return false,
            Term::Var(v) if is_select_base(*v, lits) => return false,
            _ => {}
        }
    }
    true
}

/// Replaces each maximal `Select`/`Store`/`App` subterm by an integer
/// variable new to the leaf (the `k`-th distinct subterm by `names.name(k)`),
/// identical subterms sharing the variable (a refutation-sound weakening: the
/// abstraction has at least the models of the original).
fn abstract_nonarith(t: &Term, map: &mut BTreeMap<Term, VarRef>, names: &mut Reserved) -> Term {
    if let Term::Select(..) | Term::Store(..) | Term::App(..) = t {
        let next = map.len();
        return Term::Var(*map.entry(t.clone()).or_insert_with(|| VarRef::cur(names.name(next))));
    }
    let mut sub = |x: &Term| Box::new(abstract_nonarith(x, map, names));
    match t {
        Term::Add(a, b) => Term::Add(sub(a), sub(b)),
        Term::Sub(a, b) => Term::Sub(sub(a), sub(b)),
        Term::Neg(a) => Term::Neg(sub(a)),
        Term::Mul(a, b) => Term::Mul(sub(a), sub(b)),
        // Constants and variables (the non-arithmetic terms returned above).
        _ => t.clone(),
    }
}

enum Normalized<K: Ord + Clone> {
    /// The constraint has no integer solution (gcd test).
    Unsat,
    Constraint(LinConstraint<K>),
}

/// Scales a constraint to integer coefficients, tightens strict
/// inequalities, divides by the coefficient gcd with a floored constant, and
/// applies the gcd test to equations.  Preserves exactly the integer
/// solutions.
fn normalize_integer<K: Ord + Clone>(c: &LinConstraint<K>) -> SmtResult<Normalized<K>> {
    // Scale to integer coefficients.
    let mut scale: i128 = 1;
    let mut denoms: Vec<i128> = c.expr.terms().map(|(_, r)| r.denom()).collect();
    denoms.push(c.expr.constant_part().denom());
    for d in denoms {
        scale = checked_lcm(scale, d).unwrap_or(0);
        if scale == 0 {
            // Overflow: leave the constraint as-is (still rationally exact).
            return Ok(Normalized::Constraint(c.clone()));
        }
    }
    let scaled = LinConstraint::new(c.expr.scale(Rat::int(scale))?, c.op);
    // `e < 0` with integer coefficients means `e + 1 <= 0`.
    let tightened = scaled.tighten_for_integers()?;

    let coeffs: Vec<i128> = tightened.expr.terms().map(|(_, r)| r.numer()).collect();
    if coeffs.is_empty() {
        return Ok(Normalized::Constraint(tightened));
    }
    let mut g: u128 = 0;
    for a in &coeffs {
        g = gcd(g, a.unsigned_abs());
    }
    // A gcd of `2¹²⁷` (every coefficient `i128::MIN`) does not fit `i128`;
    // the constraint is then left as-is, which is still exact.
    let g = match i128::try_from(g) {
        Ok(g) if g > 1 => g,
        _ => return Ok(Normalized::Constraint(tightened)),
    };
    let konst = tightened.expr.constant_part().numer();
    match tightened.op {
        ConstrOp::Eq => {
            if konst % g != 0 {
                return Ok(Normalized::Unsat);
            }
            Ok(Normalized::Constraint(LinConstraint::new(
                tightened.expr.scale(Rat::new(1, g)?)?,
                ConstrOp::Eq,
            )))
        }
        ConstrOp::Le => {
            // Σaᵢxᵢ + c ≤ 0  ⇔  Σ(aᵢ/g)xᵢ ≤ ⌊-c/g⌋  over the integers.
            let mut e = LinExpr::zero();
            for (v, r) in tightened.expr.terms() {
                e.add_term(v.clone(), Rat::int(r.numer() / g))?;
            }
            e.add_constant(Rat::int(-((-konst).div_euclid(g))))?;
            Ok(Normalized::Constraint(LinConstraint::new(e, ConstrOp::Le)))
        }
        // Strict with integer coefficients was already tightened to Le;
        // a strict constraint can only remain on the overflow path.
        ConstrOp::Lt => Ok(Normalized::Constraint(tightened)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathinv_ir::Term;
    use proptest::prelude::*;

    fn refuter() -> Refuter {
        Refuter::new(&CheckLimits::default())
    }

    fn x() -> Term {
        Term::var("x")
    }

    #[test]
    fn refutes_plain_contradiction() {
        let f = Formula::and(vec![Formula::gt(x(), Term::int(3)), Formula::lt(x(), Term::int(2))]);
        assert_eq!(refuter().refute(&f), Refutation::Refuted);
    }

    #[test]
    fn does_not_refute_satisfiable() {
        let f = Formula::and(vec![Formula::gt(x(), Term::int(0)), Formula::lt(x(), Term::int(5))]);
        assert_eq!(refuter().refute(&f), Refutation::NotRefuted);
    }

    #[test]
    fn gcd_test_catches_parity_contradiction() {
        // x + x = 1 has a rational solution but no integer one.
        let f = Formula::eq(x().add(x()), Term::int(1));
        assert_eq!(refuter().refute(&f), Refutation::Refuted);
    }

    #[test]
    fn gaussian_pivot_preserves_parity_through_equalities() {
        // a = n ∧ b = n ∧ a + b = 2k + 1 ∧ 0 ≤ n ≤ 1 ∧ 0 ≤ k ≤ 1: a + b is
        // even, 2k + 1 is odd — integrally empty, but rationally satisfiable
        // (k = n − 1/2), so eliminating k by FM first would miss it.  The
        // unit-coefficient pivots on a and b must surface `2k + 1 = 2n` for
        // the gcd test before any rational elimination runs.
        let (n, k, a, b) = (Term::var("n"), Term::var("k"), Term::var("a"), Term::var("b"));
        let f = Formula::and(vec![
            Formula::eq(a.clone(), n.clone()),
            Formula::eq(b.clone(), n.clone()),
            Formula::eq(a.add(b), Term::int(2).mul(k.clone()).add(Term::int(1))),
            Formula::ge(n.clone(), Term::int(0)),
            Formula::le(n, Term::int(1)),
            Formula::ge(k.clone(), Term::int(0)),
            Formula::le(k, Term::int(1)),
        ]);
        assert_eq!(refuter().refute(&f), Refutation::Refuted);
    }

    #[test]
    fn strict_bounds_tighten_to_integer_emptiness() {
        // 0 < x < 1 is rationally satisfiable, integrally empty.
        let f = Formula::and(vec![Formula::gt(x(), Term::int(0)), Formula::lt(x(), Term::int(1))]);
        assert_eq!(refuter().refute(&f), Refutation::Refuted);
    }

    #[test]
    fn branches_must_all_close() {
        let cases =
            Formula::or(vec![Formula::lt(x(), Term::int(0)), Formula::gt(x(), Term::int(0))]);
        let zero = Formula::eq(x(), Term::int(0));
        assert_eq!(refuter().refute(&Formula::and(vec![cases.clone(), zero])), Refutation::Refuted);
        assert_eq!(refuter().refute(&cases), Refutation::NotRefuted);
    }

    #[test]
    fn disequality_splits() {
        let f = Formula::and(vec![
            Formula::ne(x(), Term::int(0)),
            Formula::ge(x(), Term::int(0)),
            Formula::le(x(), Term::int(0)),
        ]);
        assert_eq!(refuter().refute(&f), Refutation::Refuted);
    }

    #[test]
    fn select_over_store_resolves() {
        // a' = a{i := 0} ∧ a'[i] ≠ 0 is unsatisfiable.
        let a = Term::var("a");
        let a1 = Term::ivar("a", 1);
        let i = Term::var("i");
        let f = Formula::and(vec![
            Formula::eq(a1.clone(), a.store(i.clone(), Term::int(0))),
            Formula::ne(a1.select(i), Term::int(0)),
        ]);
        assert_eq!(refuter().refute(&f), Refutation::Refuted);
    }

    #[test]
    fn negated_forall_skolemizes_and_instantiation_closes() {
        // ∀k. 0 ≤ k → a[k] = 0, together with ¬(∀k. 0 ≤ k → a[k] = 0),
        // is refuted: the skolem witness instantiates the positive quantifier.
        let k = Symbol::intern("k");
        let body = Formula::le(Term::int(0), Term::Bound(k))
            .implies(Formula::eq(Term::var("a").select(Term::Bound(k)), Term::int(0)));
        let all = Formula::forall(vec![k], body);
        let f = Formula::and(vec![all.clone(), all.not()]);
        assert_eq!(refuter().refute(&f), Refutation::Refuted);
    }

    #[test]
    fn entailment_helper() {
        let a = Formula::ge(x(), Term::int(2));
        let b = Formula::ge(x(), Term::int(1));
        assert_eq!(refuter().entails(&a, &b), Refutation::Refuted);
        assert_eq!(refuter().entails(&b, &a), Refutation::NotRefuted);
    }

    #[test]
    fn select_congruence_links_reads_at_provably_equal_indices() {
        // a[i] = 0 ∧ j = i + 1 ∧ a[j - 1] ≠ 0 needs the Ackermann split:
        // the reads are syntactically different but the indices coincide.
        let a = Term::var("a");
        let i = Term::var("i");
        let j = Term::var("j");
        let f = Formula::and(vec![
            Formula::eq(a.clone().select(i.clone()), Term::int(0)),
            Formula::eq(j.clone(), i.clone().add(Term::int(1))),
            Formula::ne(a.clone().select(j.sub(Term::int(1))), Term::int(0)),
        ]);
        assert_eq!(refuter().refute(&f), Refutation::Refuted);
        // Without the arithmetic link the reads may genuinely differ.
        let free = Formula::and(vec![
            Formula::eq(a.clone().select(i), Term::int(0)),
            Formula::ne(a.select(Term::var("k")), Term::int(0)),
        ]);
        assert_eq!(refuter().refute(&free), Refutation::NotRefuted);
    }

    #[test]
    fn abstraction_is_consistent_per_term() {
        // f(x) = 1 ∧ f(x) = 2 refutes because both reads abstract to the
        // same fresh variable.
        let fx = Term::app("f", vec![x()]);
        let f = Formula::and(vec![
            Formula::eq(fx.clone(), Term::int(1)),
            Formula::eq(fx, Term::int(2)),
        ]);
        assert_eq!(refuter().refute(&f), Refutation::Refuted);
    }

    /// The leaf as it was before rows were normalized incrementally: every
    /// round re-normalizes every row.  Kept as the oracle for
    /// [`Refuter::fm_refute`].
    fn renormalize_every_round(r: &mut Refuter, lits: &[Atom]) -> SmtResult<Refutation> {
        let mut abstraction: BTreeMap<Term, VarRef> = BTreeMap::new();
        let mut cs: Vec<LinConstraint<FmVar>> = Vec::new();
        for a in lits {
            let lhs = abstract_nonarith(&a.lhs, &mut abstraction, &mut r.abstractions);
            let rhs = abstract_nonarith(&a.rhs, &mut abstraction, &mut r.abstractions);
            if let Ok(c) = LinConstraint::from_atom(&Atom::new(lhs, a.op, rhs)) {
                let rank = |v: &VarRef| {
                    u8::from(r.skolems.names.contains(&v.sym))
                        + 2 * u8::from(r.abstractions.names.contains(&v.sym))
                };
                cs.push(LinConstraint::new(
                    c.expr.substitute(&|v| LinExpr::var((rank(v), *v)))?,
                    c.op,
                ));
            }
        }
        loop {
            let mut ground_false = false;
            let mut normalized = Vec::with_capacity(cs.len());
            for c in &cs {
                match normalize_integer(c)? {
                    Normalized::Unsat => return Ok(Refutation::Refuted),
                    Normalized::Constraint(c) => {
                        if c.expr.is_constant() {
                            if !c.holds(&|_| Rat::int(0))? {
                                ground_false = true;
                            }
                        } else {
                            normalized.push(c);
                        }
                    }
                }
            }
            if ground_false {
                return Ok(Refutation::Refuted);
            }
            cs = normalized;
            let pivot = cs.iter().enumerate().find_map(|(idx, c)| {
                if c.op != ConstrOp::Eq {
                    return None;
                }
                c.expr
                    .terms()
                    .find(|(_, r)| r.denom() == 1 && r.numer().abs() == 1)
                    .map(|(v, r)| (idx, *v, r))
            });
            if let Some((idx, v, a)) = pivot {
                if r.eliminations_left == 0 {
                    return Ok(Refutation::Budget);
                }
                r.eliminations_left -= 1;
                let eq = cs.swap_remove(idx);
                let mut substituted = Vec::with_capacity(cs.len());
                for c in cs {
                    let cv = c.expr.coeff(&v);
                    if cv.is_zero() {
                        substituted.push(c);
                    } else {
                        let factor = cv.mul(a)?;
                        substituted
                            .push(LinConstraint::new(c.expr.sub(&eq.expr.scale(factor)?)?, c.op));
                    }
                }
                cs = substituted;
                continue;
            }
            let Some(var) = cs.iter().flat_map(|c| c.expr.vars()).min() else {
                return Ok(Refutation::NotRefuted);
            };
            if r.eliminations_left == 0 {
                return Ok(Refutation::Budget);
            }
            r.eliminations_left -= 1;
            cs = match eliminate(&cs, &[var]) {
                Ok(cs) => cs,
                Err(_) => return Ok(Refutation::NotRefuted),
            };
            if cs.len() > r.limits.max_constraints {
                return Ok(Refutation::NotRefuted);
            }
        }
    }

    /// A random literal `Σ cᵢ·tᵢ + k ⋈ 0` over `x, y, z` and the reads
    /// `a[x]`, `a[y + 1]` (abstracted by the leaf).
    fn leaf_literal() -> impl Strategy<Value = Atom> {
        let op = prop_oneof![
            Just(RelOp::Eq),
            Just(RelOp::Eq),
            Just(RelOp::Le),
            Just(RelOp::Lt),
            Just(RelOp::Ge),
            Just(RelOp::Ne),
        ];
        let coeff = || prop_oneof![-3i128..=3, -1i128..=1, Just(0i128)];
        (coeff(), coeff(), coeff(), coeff(), coeff(), -6i128..=6, op).prop_map(
            |(cx, cy, cz, ca, cb, k, op)| {
                let a = Term::var("a");
                let summands = [
                    Term::var("x"),
                    Term::var("y"),
                    Term::var("z"),
                    a.clone().select(Term::var("x")),
                    a.select(Term::var("y").add(Term::int(1))),
                ];
                let mut lhs = Term::int(k);
                for (c, t) in [cx, cy, cz, ca, cb].into_iter().zip(summands) {
                    if c != 0 {
                        lhs = lhs.add(Term::int(c).mul(t));
                    }
                }
                Atom::new(lhs, op, Term::int(0))
            },
        )
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The leaf that re-normalizes only rewritten rows answers as the
        /// renormalize-every-round leaf does, with the same eliminations,
        /// also when the elimination or constraint budget runs out.
        #[test]
        fn leaf_matches_renormalize_every_round(
            lits in proptest::collection::vec(leaf_literal(), 1..9),
            max_eliminations in prop_oneof![0usize..4, Just(2_000_000usize)],
            max_constraints in prop_oneof![Just(6usize), Just(4_000usize)],
        ) {
            let limits = CheckLimits { max_eliminations, max_constraints, ..CheckLimits::default() };
            let (mut leaf, mut oracle) = (Refuter::new(&limits), Refuter::new(&limits));
            let got = leaf.fm_refute(&lits);
            let want = renormalize_every_round(&mut oracle, &lits);
            prop_assert_eq!(got, want);
            prop_assert_eq!(leaf.eliminations_left, oracle.eliminations_left);
        }
    }
}
