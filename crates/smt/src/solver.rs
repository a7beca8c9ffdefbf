//! The combined quantifier-free solver for linear integer arithmetic,
//! arrays, and uninterpreted functions.
//!
//! This is the decision procedure behind the two queries the CEGAR engine
//! needs (§4.1 of the paper):
//!
//! * **feasibility of path formulas** — is the SSA encoding of a
//!   counterexample satisfiable? (If so the bug is real.)
//! * **entailment for predicate abstraction** — does the current abstract
//!   state, conjoined with a transition relation, imply a predicate in the
//!   post-state?
//!
//! The pipeline mirrors the hierarchic reduction described in §4.2 of the
//! paper: universally quantified antecedents are instantiated at the array
//! indices occurring in the query, array writes are eliminated by
//! read-over-write case analysis, the remaining array reads are treated as
//! applications of uninterpreted functions (with functionality enforced
//! lazily), and the resulting conjunctions of linear constraints are decided
//! by the simplex solver with integer tightening of strict inequalities.
//!
//! The boolean structure is decided by a DPLL-style search over the NNF
//! skeleton (`CubeSearch`): decided atoms form a *cube prefix*,
//! disjunctions are unit-resolved against it, and the prefix is checked
//! for theory consistency (memoized under its hash-consed atom-set id)
//! before every case split, so an inconsistent prefix prunes its whole
//! subtree of cubes.  Each theory check is a case-split tree over
//! disequalities and reads over writes (`SplitTree`) whose branches are
//! pruned on one warm tableau holding the tree's linear relaxation.

use crate::congruence::CongruenceClosure;
use crate::error::{SmtError, SmtResult};
use crate::linexpr::{LinConstraint, LinExpr};
use crate::rat::Rat;
use crate::simplex::IncrementalSimplex;
use pathinv_ir::{Atom, Formula, FormulaId, RelOp, SeqId, Symbol, Term, VarRef};
use std::cell::Cell;
use std::collections::{BTreeMap, BTreeSet, HashMap, HashSet, VecDeque};
use std::fmt;

/// A model: rational values for the integer-sorted variables of the query.
///
/// Values are produced by the rational relaxation; they are exact witnesses
/// for the relaxation and, on the benchmark corpus, integral witnesses for
/// the original formula whenever one exists.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Model {
    /// Variable assignment.
    pub values: BTreeMap<VarRef, Rat>,
}

impl Model {
    /// Looks up the value of a variable, if constrained.
    pub fn value(&self, v: VarRef) -> Option<Rat> {
        self.values.get(&v).copied()
    }
}

impl fmt::Display for Model {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let mut first = true;
        for (v, r) in &self.values {
            if !first {
                write!(f, ", ")?;
            }
            write!(f, "{v} = {r}")?;
            first = false;
        }
        Ok(())
    }
}

/// Outcome of a satisfiability query.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum SatResult {
    /// The formula is satisfiable; a model for its variables is attached.
    Sat(Model),
    /// The formula is unsatisfiable.
    Unsat,
}

impl SatResult {
    /// Returns `true` if satisfiable.
    pub fn is_sat(&self) -> bool {
        matches!(self, SatResult::Sat(_))
    }
}

/// Outcome of an integral satisfiability query ([`Solver::check_integral`]).
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum IntSatResult {
    /// Satisfiable over the integers; the attached model is fully integral.
    Sat(Model),
    /// Unsatisfiable over the integers.
    Unsat,
    /// The branch-and-bound node budget ran out before a conclusion; callers
    /// must treat this conservatively (never as a verdict).
    Unknown,
}

/// The combined solver.  Construct once and reuse; the solver itself is
/// stateless apart from a branch budget.
#[derive(Clone, Debug)]
pub struct Solver {
    pub(crate) max_branches: usize,
}

impl Default for Solver {
    fn default() -> Self {
        Solver::new()
    }
}

/// A recorded "read instance": an array read or uninterpreted function
/// application that has been abstracted by a fresh integer variable.
#[derive(Clone, Debug)]
struct Instance {
    /// Identity of the function: the array term rendered to a string, or the
    /// uninterpreted function symbol.
    fun: String,
    /// Argument terms (select-free after abstraction).
    args: Vec<Term>,
    /// The fresh variable standing for the result.
    result: VarRef,
}

impl Solver {
    /// Creates a solver with the default case-split budget.
    pub fn new() -> Solver {
        Solver { max_branches: 20_000 }
    }

    /// Creates a solver with an explicit case-split budget (number of
    /// explored branches before [`SmtError::Budget`] is reported).
    pub fn with_budget(max_branches: usize) -> Solver {
        Solver { max_branches }
    }

    /// Decides satisfiability of a quantifier-free formula (universal
    /// quantifiers are allowed in *positive* positions and are instantiated
    /// at the array indices occurring in the query).
    ///
    /// # Errors
    ///
    /// Returns [`SmtError::Unsupported`] for negated quantifiers or
    /// non-linear arithmetic, and [`SmtError::Budget`] if the case-split
    /// budget is exhausted.
    pub fn check(&self, f: &Formula) -> SmtResult<SatResult> {
        crate::stats::record_sat_check();
        check_no_negated_quantifier(f, true)?;
        let budget = Cell::new(self.max_branches);
        let original_vars: BTreeSet<VarRef> = f.var_refs();
        let mut search = CubeSearch::default();
        let mut pending = VecDeque::new();
        pending.push_back(f.nnf());
        match search.dpll(self, pending, Vec::new(), Vec::new(), false, &budget)? {
            Some(model) => {
                let values =
                    model.values.into_iter().filter(|(v, _)| original_vars.contains(v)).collect();
                Ok(SatResult::Sat(Model { values }))
            }
            None => Ok(SatResult::Unsat),
        }
    }

    /// Decides satisfiability *over the integers* by branch-and-bound on top
    /// of the rational relaxation.
    ///
    /// [`Solver::check`] decides the rational relaxation: only strict
    /// inequalities are tightened for integrality, so an equality like
    /// `x + x = 1` is rationally satisfiable (`x = 1/2`) with no integer
    /// solution.  Rational-UNSAT still implies integer-UNSAT, so `Safe`
    /// proofs built on `check` are sound — but *satisfiability* claims (and
    /// the counterexamples they justify) are not.  This method closes that
    /// gap: whenever the relaxation produces a fractional value for a
    /// variable `v` with value `r`, it branches on `v <= floor(r)` versus
    /// `v >= floor(r) + 1` (both of which exclude `r`) and recurses, up to
    /// `max_nodes` branch nodes.
    ///
    /// Returns [`IntSatResult::Sat`] only with a fully integral model,
    /// [`IntSatResult::Unsat`] when every branch is (rationally, hence
    /// integrally) unsatisfiable, and [`IntSatResult::Unknown`] when the
    /// node budget runs out — callers must treat `Unknown` conservatively
    /// and never turn it into a verdict.
    ///
    /// Branching only ever targets integer-sorted variables: array variables
    /// never receive values from the linear core (reads are abstracted by
    /// fresh integer instances), so every valued variable is arithmetic.
    ///
    /// # Errors
    ///
    /// As [`Solver::check`].
    pub fn check_integral(&self, f: &Formula, max_nodes: usize) -> SmtResult<IntSatResult> {
        let mut nodes = max_nodes;
        self.branch_and_bound(f, &mut nodes)
    }

    fn branch_and_bound(&self, f: &Formula, nodes: &mut usize) -> SmtResult<IntSatResult> {
        let model = match self.check(f)? {
            SatResult::Unsat => return Ok(IntSatResult::Unsat),
            SatResult::Sat(model) => model,
        };
        let Some((&v, &r)) = model.values.iter().find(|(_, r)| !r.is_integer()) else {
            return Ok(IntSatResult::Sat(model));
        };
        if *nodes == 0 {
            return Ok(IntSatResult::Unknown);
        }
        *nodes -= 1;
        let lo = r.floor();
        let below = Formula::and(vec![f.clone(), Formula::le(Term::Var(v), Term::int(lo))]);
        let above = Formula::and(vec![f.clone(), Formula::ge(Term::Var(v), Term::int(lo + 1))]);
        let mut exhausted = false;
        for branch in [below, above] {
            match self.branch_and_bound(&branch, nodes)? {
                IntSatResult::Sat(m) => return Ok(IntSatResult::Sat(m)),
                IntSatResult::Unsat => {}
                IntSatResult::Unknown => exhausted = true,
            }
        }
        Ok(if exhausted { IntSatResult::Unknown } else { IntSatResult::Unsat })
    }

    /// Returns `true` if the formula is satisfiable.
    pub fn is_sat(&self, f: &Formula) -> SmtResult<bool> {
        Ok(self.check(f)?.is_sat())
    }

    /// Returns `true` if `antecedent` entails `consequent`.
    ///
    /// Universally quantified consequents are proved by skolemising the bound
    /// variables; conjunctions are split.
    pub fn entails(&self, antecedent: &Formula, consequent: &Formula) -> SmtResult<bool> {
        match consequent {
            Formula::True => Ok(true),
            Formula::And(parts) => {
                for p in parts {
                    if !self.entails(antecedent, p)? {
                        return Ok(false);
                    }
                }
                Ok(true)
            }
            Formula::Forall(vars, body) => {
                // Skolemise: a universal consequent holds iff the body holds
                // for fresh constants.
                let mut skolemised = (**body).clone();
                for v in vars {
                    let fresh = Symbol::fresh(&format!("sk_{v}"));
                    skolemised = skolemised.map_terms(&|t| t.subst_bound(*v, &Term::var(fresh)));
                }
                self.entails(antecedent, &skolemised)
            }
            Formula::Implies(a, b) => {
                self.entails(&Formula::and(vec![antecedent.clone(), (**a).clone()]), b)
            }
            other => {
                let query = Formula::and(vec![antecedent.clone(), other.clone().not()]);
                Ok(!self.is_sat(&query)?)
            }
        }
    }

    /// Returns `true` if the formula is valid (entailed by `true`).
    pub fn is_valid(&self, f: &Formula) -> SmtResult<bool> {
        self.entails(&Formula::True, f)
    }

    /// Decides a conjunction of ground atoms by recursive case splitting
    /// (see [`SplitTree`]).
    fn solve_atoms(&self, atoms: Vec<Atom>, budget: &Cell<usize>) -> SmtResult<Option<Model>> {
        SplitTree { solver: self, budget, relaxation: None }.node(atoms, None)
    }

    /// Base-case theory combination: congruence pre-filter, abstraction of
    /// reads/applications by fresh variables, simplex with lazy functionality
    /// enforcement.
    fn solve_base(&self, atoms: &[Atom], budget: &Cell<usize>) -> SmtResult<Option<Model>> {
        // Congruence pre-filter on the equality atoms.
        let mut cc = CongruenceClosure::new();
        for a in atoms {
            if a.op == RelOp::Eq {
                cc.assert_eq(&a.lhs, &a.rhs);
            }
        }
        if !cc.is_consistent() {
            return Ok(None);
        }

        // Abstract array reads and uninterpreted applications.
        let mut instances: Vec<Instance> = Vec::new();
        let mut abstracted: Vec<Atom> = Vec::new();
        for a in atoms {
            let lhs = abstract_term(&a.lhs, &mut instances);
            let rhs = abstract_term(&a.rhs, &mut instances);
            abstracted.push(Atom::new(lhs, a.op, rhs));
        }

        // Convert to linear constraints (dropping pure array equalities that
        // carry no read — they cannot influence the integer variables).
        let mut constraints: Vec<LinConstraint<VarRef>> = Vec::new();
        for a in &abstracted {
            match LinConstraint::from_atom(a) {
                Ok(c) => constraints.push(c.tighten_for_integers()?),
                Err(SmtError::SortMismatch { .. }) if is_pure_array_atom(a) => {}
                Err(e) => return Err(e),
            }
        }
        // One tableau for the whole functionality search: the base
        // constraints are its shared prefix, and every branch of the lazy
        // functionality enforcement pushes its extra constraints, re-checks
        // warm from the prefix's feasible assignment, and pops — instead of
        // rebuilding (and cold-resolving) the tableau per branch.
        let mut tab: IncrementalSimplex<VarRef> = IncrementalSimplex::new();
        for c in &constraints {
            tab.push_constraint(c)?;
        }
        self.solve_with_functionality(&mut tab, &instances, budget, true)
    }

    fn solve_with_functionality(
        &self,
        tab: &mut IncrementalSimplex<VarRef>,
        instances: &[Instance],
        budget: &Cell<usize>,
        fresh: bool,
    ) -> SmtResult<Option<Model>> {
        spend_branch(budget, "while enforcing functionality")?;
        let sat = if fresh { tab.check_fresh()? } else { tab.check()? };
        if !sat {
            return Ok(None);
        }
        let model = tab.model()?;
        let lookup = |v: &VarRef| model.get(v).copied().unwrap_or(Rat::ZERO);
        // Find a violated functionality axiom.
        for i in 0..instances.len() {
            for j in i + 1..instances.len() {
                let (a, b) = (&instances[i], &instances[j]);
                if a.fun != b.fun || a.args.len() != b.args.len() {
                    continue;
                }
                let args_equal = a
                    .args
                    .iter()
                    .zip(b.args.iter())
                    .map(|(x, y)| {
                        Ok::<bool, SmtError>(
                            LinExpr::from_term(x)?.eval(&lookup)?
                                == LinExpr::from_term(y)?.eval(&lookup)?,
                        )
                    })
                    .collect::<SmtResult<Vec<bool>>>()?
                    .into_iter()
                    .all(|b| b);
                if !args_equal {
                    continue;
                }
                if lookup(&a.result) == lookup(&b.result) {
                    continue;
                }
                // Violation: f(args) must be equal when the arguments are.
                // Case A: force the arguments and results equal.
                {
                    let cp = tab.checkpoint();
                    for (x, y) in a.args.iter().zip(b.args.iter()) {
                        tab.push_constraint(&LinConstraint::eq(
                            LinExpr::from_term(x)?,
                            LinExpr::from_term(y)?,
                        )?)?;
                    }
                    tab.push_constraint(&LinConstraint::eq(
                        LinExpr::var(a.result),
                        LinExpr::var(b.result),
                    )?)?;
                    let found = self.solve_with_functionality(tab, instances, budget, false)?;
                    tab.pop_to(cp)?;
                    if let Some(m) = found {
                        return Ok(Some(m));
                    }
                }
                // Case B: some argument differs (strictly, in either
                // direction).
                for (x, y) in a.args.iter().zip(b.args.iter()) {
                    let ex = LinExpr::from_term(x)?;
                    let ey = LinExpr::from_term(y)?;
                    for flip in [false, true] {
                        let diff = if flip { ey.sub(&ex)? } else { ex.sub(&ey)? };
                        let cp = tab.checkpoint();
                        tab.push_constraint(
                            &LinConstraint::new(diff, crate::linexpr::ConstrOp::Lt)
                                .tighten_for_integers()?,
                        )?;
                        let found = self.solve_with_functionality(tab, instances, budget, false)?;
                        tab.pop_to(cp)?;
                        if let Some(m) = found {
                            return Ok(Some(m));
                        }
                    }
                }
                return Ok(None);
            }
        }
        Ok(Some(Model { values: model }))
    }
}

/// One case-split tree of [`Solver::solve_atoms`]: disequalities split
/// into `<`/`>`, reads over writes into hit/miss, every leaf decided cold
/// by [`Solver::solve_base`].  The tree's [`Relaxation`] is built lazily,
/// at the first node with two or more pending disequalities or after the
/// first failed hit branch (on an unrolled store chain every miss adds one
/// disequality, split at once); from then on every branch is warm-checked
/// on it before the search descends, and an infeasible branch is pruned
/// with its subtree.  Pruned subtrees hold no satisfiable leaf, so the
/// first satisfiable leaf, and its model, is the unpruned search's.
struct SplitTree<'s> {
    solver: &'s Solver,
    budget: &'s Cell<usize>,
    relaxation: Option<Relaxation>,
}

/// Spends one case-split branch, polling cancellation first.
pub(crate) fn spend_branch(budget: &Cell<usize>, place: &str) -> SmtResult<()> {
    crate::cancel::check_ambient()?;
    let left = budget.get().checked_sub(1).ok_or_else(|| SmtError::Budget {
        message: format!("case-split budget exhausted {place}"),
    })?;
    budget.set(left);
    Ok(())
}

/// A split-tree node's atoms and its ancestors', from which a relaxation
/// built mid-tree replays the path from the root.
struct PathNode<'a> {
    atoms: &'a [Atom],
    parent: Option<&'a PathNode<'a>>,
    depth: usize,
}

impl SplitTree<'_> {
    fn node(&mut self, atoms: Vec<Atom>, parent: Option<&PathNode>) -> SmtResult<Option<Model>> {
        spend_branch(self.budget, "in the combined solver")?;
        let depth = parent.map_or(0, |p| p.depth + 1);

        // 1. Split the first disequality.
        if let Some(pos) = atoms.iter().position(|a| a.op == RelOp::Ne) {
            let here = PathNode { atoms: &atoms, parent, depth };
            if self.relaxation.is_none()
                && atoms.iter().filter(|a| a.op == RelOp::Ne).count() >= 2
                && !self.relaxation.insert(Relaxation::build(&here)?).is_feasible()?
            {
                return Ok(None);
            }
            let a = &atoms[pos];
            for op in [RelOp::Lt, RelOp::Gt] {
                let mut branch = atoms.clone();
                branch[pos] = Atom::new(a.lhs.clone(), op, a.rhs.clone());
                if let Some(m) = self.branch(branch, &here)? {
                    return Ok(Some(m));
                }
            }
            return Ok(None);
        }

        // 2. Resolve array aliases and collect store definitions.
        let (atoms, defs) = normalise_arrays(atoms)?;

        // 3. Split a read over a written array: it hits the written cell
        //    or misses it and reads the base array.
        if let Some((target, base, written_idx, val)) = find_read_over_write(&atoms, &defs) {
            let here = PathNode { atoms: &atoms, parent, depth };
            let Term::Select(_, read_idx) = &target else {
                unreachable!("target is always a select")
            };
            let case = |replacement: &Term, op: RelOp| -> Vec<Atom> {
                atoms
                    .iter()
                    .map(|a| a.map_terms(&|t| replace_subterm(t, &target, replacement)))
                    .chain([Atom::new((**read_idx).clone(), op, written_idx.clone())])
                    .chain(defs_as_atoms(&defs))
                    .collect()
            };
            if let Some(m) = self.branch(case(&val, RelOp::Eq), &here)? {
                return Ok(Some(m));
            }
            if self.relaxation.is_none() {
                self.relaxation = Some(Relaxation::build(&here)?);
            }
            return self.branch(case(&base.select((**read_idx).clone()), RelOp::Ne), &here);
        }

        // 4. Base case: no disequalities, no reads over writes.
        self.solver.solve_base(&atoms, self.budget)
    }

    /// Searches one child of `parent`, pruning it first if a live
    /// relaxation refutes it.
    fn branch(&mut self, atoms: Vec<Atom>, parent: &PathNode) -> SmtResult<Option<Model>> {
        let depth = parent.depth + 1;
        if let Some(relaxation) = &mut self.relaxation {
            relaxation.push_level(&atoms)?;
            if !relaxation.is_feasible()? {
                relaxation.truncate(depth)?;
                return Ok(None);
            }
        }
        let found = self.node(atoms, Some(parent))?;
        // Also drops levels of a relaxation built inside the child's subtree.
        if let Some(relaxation) = &mut self.relaxation {
            relaxation.truncate(depth)?;
        }
        Ok(found)
    }
}

/// The linear relaxation of one root-to-node path of a [`SplitTree`] (or of
/// a [`SolverContext`](crate::SolverContext)'s assumption stack, whose
/// read atoms never reach it), on a live tableau: disequalities dropped, reads and applications abstracted
/// by variables shared across the tree (identical reads share one), atoms
/// outside the linear fragment skipped, so the leaves stay the sole source
/// of `NonLinear` errors.  Each step only removes information, and each
/// branch refines its parent (a rewritten read equals its replacement
/// under the branch's index constraint), so an infeasible relaxation
/// refutes the node's whole subtree.
///
/// `levels[d]` is the checkpoint before depth `d`'s atoms, and
/// `on_tableau` maps each pushed atom to its depth, so no atom is pushed
/// twice on one path.
#[derive(Debug, Default)]
pub(crate) struct Relaxation {
    tab: IncrementalSimplex<VarRef>,
    instances: Vec<Instance>,
    on_tableau: HashMap<Atom, usize>,
    levels: Vec<usize>,
    /// Whether the tableau was checked since it was built; the first check
    /// is a cold solve.
    checked: bool,
}

impl Relaxation {
    /// Builds the relaxation of the path from the root to `node`.
    fn build(node: &PathNode) -> SmtResult<Relaxation> {
        let path: Vec<&[Atom]> =
            std::iter::successors(Some(node), |n| n.parent).map(|n| n.atoms).collect();
        let mut relaxation = Relaxation::default();
        for atoms in path.into_iter().rev() {
            relaxation.push_level(atoms)?;
        }
        Ok(relaxation)
    }

    /// Number of open path levels.
    pub(crate) fn depth(&self) -> usize {
        self.levels.len()
    }

    /// Opens the next path level with the atoms not yet on the tableau.
    pub(crate) fn push_level(&mut self, atoms: &[Atom]) -> SmtResult<()> {
        let depth = self.levels.len();
        self.levels.push(self.tab.checkpoint());
        for a in atoms {
            if a.op == RelOp::Ne || self.on_tableau.contains_key(a) {
                continue;
            }
            let lhs = abstract_term(&a.lhs, &mut self.instances);
            let rhs = abstract_term(&a.rhs, &mut self.instances);
            match LinConstraint::from_atom(&Atom::new(lhs, a.op, rhs)) {
                Ok(c) => self.tab.push_constraint(&c.tighten_for_integers()?)?,
                Err(SmtError::SortMismatch { .. } | SmtError::NonLinear { .. }) => {}
                Err(e) => return Err(e),
            }
            self.on_tableau.insert(a.clone(), depth);
        }
        Ok(())
    }

    /// Drops the path levels at `depth` and below.
    pub(crate) fn truncate(&mut self, depth: usize) -> SmtResult<()> {
        if let Some(&checkpoint) = self.levels.get(depth) {
            self.levels.truncate(depth);
            self.on_tableau.retain(|_, d| *d < depth);
            self.tab.pop_to(checkpoint)?;
        }
        Ok(())
    }

    pub(crate) fn is_feasible(&mut self) -> SmtResult<bool> {
        if std::mem::replace(&mut self.checked, true) {
            self.tab.check()
        } else {
            self.tab.check_fresh()
        }
    }
}

/// DPLL-style search over the boolean skeleton of one query.
///
/// The state of one search node is the *cube prefix* (the atoms decided so
/// far), the not-yet-branched disjunctions, and the universals collected on
/// this branch.  The search alternates unit propagation (flattening
/// conjunctions, resolving disjuncts against decided atoms, promoting unit
/// disjunctions) with case splits on the smallest remaining disjunction.
/// Before every split the prefix is checked for theory consistency; an
/// inconsistent prefix prunes the whole subtree — the conflict-driven
/// replacement for enumerating (and separately refuting) every DNF cube
/// that extends it.
///
/// Theory verdicts are memoized under the hash-consed id of the canonical
/// (sorted, deduplicated) decided-atom set, so sibling branches that decide
/// the same atoms in a different order, and the final check of a cube whose
/// prefix was already checked, replay the verdict without touching the
/// simplex.  The memo lives for one [`Solver::check`] call; cross-query
/// reuse is the [`SolverContext`](crate::SolverContext) cache's job.
#[derive(Default)]
struct CubeSearch {
    /// Canonical decided-atom set id → satisfiability (with witness).
    verdicts: HashMap<SeqId, Option<Model>>,
}

impl CubeSearch {
    /// Searches for a theory-consistent cube of the pending formulas.
    ///
    /// `decided` is the inherited cube prefix, `universals` the quantified
    /// conjuncts collected so far, and `instantiated` marks the inner layer
    /// (after universal instantiation), where further quantifiers are
    /// outside the supported fragment.
    fn dpll(
        &mut self,
        solver: &Solver,
        mut pending: VecDeque<Formula>,
        mut decided: Vec<Atom>,
        mut universals: Vec<(Vec<Symbol>, Formula)>,
        instantiated: bool,
        budget: &Cell<usize>,
    ) -> SmtResult<Option<Model>> {
        let mut disjunctions: Vec<Vec<Formula>> = Vec::new();
        // Unit propagation to fixpoint.
        loop {
            while let Some(f) = pending.pop_front() {
                match f {
                    Formula::True => {}
                    Formula::False => return Ok(None),
                    Formula::Atom(a) => decided.push(a),
                    Formula::And(parts) => {
                        for (i, p) in parts.into_iter().enumerate() {
                            pending.insert(i, p);
                        }
                    }
                    Formula::Or(parts) => disjunctions.push(parts),
                    Formula::Forall(vars, body) => {
                        if instantiated {
                            return Err(SmtError::unsupported(format!(
                                "nested quantifier after instantiation: forall {vars:?}. {body}"
                            )));
                        }
                        universals.push((vars, *body));
                    }
                    other => {
                        return Err(SmtError::unsupported(format!(
                            "unexpected connective shape after NNF: {other}"
                        )))
                    }
                }
            }
            // Resolve every disjunction against the decided atoms:
            // syntactically satisfied disjunctions are dropped, refuted
            // disjuncts removed, unit disjunctions promoted to the prefix.
            let decided_set: HashSet<&Atom> = decided.iter().collect();
            let mut promoted = false;
            let mut kept: Vec<Vec<Formula>> = Vec::new();
            'ors: for parts in disjunctions.drain(..) {
                let mut remaining: Vec<Formula> = Vec::with_capacity(parts.len());
                for p in parts {
                    match &p {
                        Formula::True => continue 'ors,
                        Formula::False => {}
                        Formula::Atom(a) => {
                            if decided_set.contains(a) {
                                continue 'ors;
                            }
                            if !decided_set.contains(&a.negated()) {
                                remaining.push(p);
                            }
                        }
                        _ => remaining.push(p),
                    }
                }
                match remaining.len() {
                    0 => return Ok(None), // every disjunct refuted
                    1 => {
                        pending.push_back(remaining.pop().expect("len checked"));
                        promoted = true;
                    }
                    _ => kept.push(remaining),
                }
            }
            disjunctions = kept;
            if !promoted && pending.is_empty() {
                break;
            }
        }
        // Case split on the smallest remaining disjunction — after pruning
        // the branch if the prefix is already theory-inconsistent.
        if !disjunctions.is_empty() {
            if self.theory_check(solver, &decided, budget)?.is_none() {
                return Ok(None);
            }
            let pick = disjunctions
                .iter()
                .enumerate()
                .min_by_key(|(i, d)| (d.len(), *i))
                .map(|(i, _)| i)
                .expect("nonempty");
            let branches = disjunctions.remove(pick);
            let rest: Vec<Formula> = disjunctions.into_iter().map(Formula::Or).collect();
            for branch in branches {
                let mut pending = VecDeque::with_capacity(rest.len() + 1);
                pending.push_back(branch);
                pending.extend(rest.iter().cloned());
                if let Some(m) = self.dpll(
                    solver,
                    pending,
                    decided.clone(),
                    universals.clone(),
                    instantiated,
                    budget,
                )? {
                    return Ok(Some(m));
                }
            }
            return Ok(None);
        }
        // Complete cube.  Instantiate the universals at every array-index
        // term of the ground atoms (the hierarchic reduction of §4.2) and
        // search the instantiated layer; with no candidate index a universal
        // constrains no read in this query and dropping it is sound for
        // unsatisfiability detection (it only weakens the antecedent).
        if !universals.is_empty() {
            let candidates = index_candidates(&decided);
            if !candidates.is_empty() {
                let mut inst_pending = VecDeque::new();
                for (vars, body) in &universals {
                    for combo in cartesian(&candidates, vars.len()) {
                        let mut inst = body.clone();
                        for (v, t) in vars.iter().zip(combo.iter()) {
                            inst = inst.map_terms(&|term| term.subst_bound(*v, t));
                        }
                        inst_pending.push_back(inst.nnf());
                    }
                }
                return self.dpll(solver, inst_pending, decided, Vec::new(), true, budget);
            }
        }
        self.theory_check(solver, &decided, budget)
    }

    /// Decides the conjunction of `decided` in the theory, memoized under
    /// the canonical hash-consed id of the atom set.
    fn theory_check(
        &mut self,
        solver: &Solver,
        decided: &[Atom],
        budget: &Cell<usize>,
    ) -> SmtResult<Option<Model>> {
        let mut ids: Vec<u32> =
            decided.iter().map(|a| FormulaId::intern(&Formula::Atom(a.clone())).raw()).collect();
        ids.sort_unstable();
        ids.dedup();
        let key = SeqId::intern(&ids);
        if let Some(cached) = self.verdicts.get(&key) {
            return Ok(cached.clone());
        }
        let result = solver.solve_atoms(decided.to_vec(), budget)?;
        self.verdicts.insert(key, result.clone());
        Ok(result)
    }
}

/// Rejects formulas with universal quantifiers in negative positions; the
/// library never produces them.
fn check_no_negated_quantifier(f: &Formula, positive: bool) -> SmtResult<()> {
    match f {
        Formula::True | Formula::False | Formula::Atom(_) => Ok(()),
        Formula::Not(inner) => check_no_negated_quantifier(inner, !positive),
        Formula::And(parts) | Formula::Or(parts) => {
            for p in parts {
                check_no_negated_quantifier(p, positive)?;
            }
            Ok(())
        }
        Formula::Implies(a, b) => {
            check_no_negated_quantifier(a, !positive)?;
            check_no_negated_quantifier(b, positive)
        }
        Formula::Forall(_, body) => {
            if !positive {
                return Err(SmtError::unsupported("universal quantifier in a negative position"));
            }
            check_no_negated_quantifier(body, positive)
        }
    }
}

/// Collects candidate instantiation terms: every index of an array read in
/// the ground atoms.
fn index_candidates(atoms: &[Atom]) -> Vec<Term> {
    let mut out: Vec<Term> = Vec::new();
    let mut push = |t: &Term| {
        if !out.contains(t) {
            out.push(t.clone());
        }
    };
    for a in atoms {
        for side in [&a.lhs, &a.rhs] {
            side.for_each(&mut |t| {
                if let Term::Select(_, idx) = t {
                    push(idx);
                }
                if let Term::Store(_, idx, _) = t {
                    push(idx);
                }
            });
        }
    }
    out
}

/// All tuples of length `n` over `items`.
fn cartesian(items: &[Term], n: usize) -> Vec<Vec<Term>> {
    if n == 0 {
        return vec![vec![]];
    }
    let mut out = Vec::new();
    for prefix in cartesian(items, n - 1) {
        for item in items {
            let mut v = prefix.clone();
            v.push(item.clone());
            out.push(v);
        }
    }
    out
}

/// A store definition `array_var = store(base, idx, val)`.
#[derive(Clone, Debug)]
struct StoreDef {
    var: VarRef,
    base: Term,
    idx: Term,
    val: Term,
}

fn defs_as_atoms(defs: &[StoreDef]) -> Vec<Atom> {
    defs.iter()
        .map(|d| {
            Atom::new(
                Term::Var(d.var),
                RelOp::Eq,
                d.base.clone().store(d.idx.clone(), d.val.clone()),
            )
        })
        .collect()
}

/// Separates store definitions from the remaining atoms and applies array
/// alias equalities (`a' = a`) by substitution.
fn normalise_arrays(atoms: Vec<Atom>) -> SmtResult<(Vec<Atom>, Vec<StoreDef>)> {
    // Determine which variables are array-like: they appear as the array
    // operand of a select/store or are equated to a store.
    let mut array_vars: BTreeSet<VarRef> = BTreeSet::new();
    let mut changed = true;
    while changed {
        changed = false;
        for a in &atoms {
            for side in [&a.lhs, &a.rhs] {
                side.for_each(&mut |t| match t {
                    Term::Select(arr, _) | Term::Store(arr, _, _) => {
                        if let Term::Var(v) = arr.as_ref() {
                            if array_vars.insert(*v) {
                                changed = true;
                            }
                        }
                    }
                    _ => {}
                });
            }
            // Alias propagation through equalities with a known array var.
            if a.op == RelOp::Eq {
                if let (Term::Var(x), Term::Var(y)) = (&a.lhs, &a.rhs) {
                    if array_vars.contains(x) && array_vars.insert(*y) {
                        changed = true;
                    }
                    if array_vars.contains(y) && array_vars.insert(*x) {
                        changed = true;
                    }
                }
                if matches!(a.rhs, Term::Store(..)) {
                    if let Term::Var(v) = &a.lhs {
                        if array_vars.insert(*v) {
                            changed = true;
                        }
                    }
                }
                if matches!(a.lhs, Term::Store(..)) {
                    if let Term::Var(v) = &a.rhs {
                        if array_vars.insert(*v) {
                            changed = true;
                        }
                    }
                }
            }
        }
    }

    let mut work = atoms;
    let mut defs: Vec<StoreDef> = Vec::new();
    loop {
        // Apply one alias equality between array variables.
        let alias = work.iter().position(|a| {
            a.op == RelOp::Eq
                && matches!((&a.lhs, &a.rhs), (Term::Var(x), Term::Var(y))
                    if array_vars.contains(x) && array_vars.contains(y) && x != y)
        });
        if let Some(pos) = alias {
            let atom = work.remove(pos);
            let (from, to) = match (&atom.lhs, &atom.rhs) {
                (Term::Var(x), Term::Var(y)) => (*x, Term::Var(*y)),
                _ => unreachable!("alias position checked"),
            };
            work = work.into_iter().map(|a| a.map_terms(&|t| t.subst_var(from, &to))).collect();
            defs = defs
                .into_iter()
                .map(|d| StoreDef {
                    var: d.var,
                    base: d.base.subst_var(from, &to),
                    idx: d.idx.subst_var(from, &to),
                    val: d.val.subst_var(from, &to),
                })
                .collect();
            continue;
        }
        // Extract one store definition.
        let def_pos = work.iter().position(|a| {
            a.op == RelOp::Eq
                && (matches!((&a.lhs, &a.rhs), (Term::Var(_), Term::Store(..)))
                    || matches!((&a.lhs, &a.rhs), (Term::Store(..), Term::Var(_))))
        });
        if let Some(pos) = def_pos {
            let atom = work.remove(pos);
            let (var, store) = match (&atom.lhs, &atom.rhs) {
                (Term::Var(v), s @ Term::Store(..)) => (*v, s.clone()),
                (s @ Term::Store(..), Term::Var(v)) => (*v, s.clone()),
                _ => unreachable!("definition position checked"),
            };
            let Term::Store(base, idx, val) = store else { unreachable!() };
            defs.push(StoreDef { var, base: *base, idx: *idx, val: *val });
            continue;
        }
        break;
    }
    Ok((work, defs))
}

/// Finds a `select` whose array operand is (or is defined as) a store,
/// returning `(the select term, base array, written index, written value)`.
fn find_read_over_write(atoms: &[Atom], defs: &[StoreDef]) -> Option<(Term, Term, Term, Term)> {
    let mut found: Option<(Term, Term, Term, Term)> = None;
    for a in atoms {
        for side in [&a.lhs, &a.rhs] {
            side.for_each(&mut |t| {
                if found.is_some() {
                    return;
                }
                if let Term::Select(arr, _idx) = t {
                    match arr.as_ref() {
                        Term::Store(base, widx, wval) => {
                            found = Some((
                                t.clone(),
                                (**base).clone(),
                                (**widx).clone(),
                                (**wval).clone(),
                            ));
                        }
                        Term::Var(v) => {
                            if let Some(d) = defs.iter().find(|d| d.var == *v) {
                                found =
                                    Some((t.clone(), d.base.clone(), d.idx.clone(), d.val.clone()));
                            }
                        }
                        _ => {}
                    }
                }
            });
        }
        if found.is_some() {
            break;
        }
    }
    found
}

/// Replaces every occurrence of `target` (an exact subterm) by `replacement`.
fn replace_subterm(t: &Term, target: &Term, replacement: &Term) -> Term {
    if t == target {
        return replacement.clone();
    }
    match t {
        Term::Const(_) | Term::Var(_) | Term::Bound(_) => t.clone(),
        Term::Add(a, b) => Term::Add(
            Box::new(replace_subterm(a, target, replacement)),
            Box::new(replace_subterm(b, target, replacement)),
        ),
        Term::Sub(a, b) => Term::Sub(
            Box::new(replace_subterm(a, target, replacement)),
            Box::new(replace_subterm(b, target, replacement)),
        ),
        Term::Neg(a) => Term::Neg(Box::new(replace_subterm(a, target, replacement))),
        Term::Mul(a, b) => Term::Mul(
            Box::new(replace_subterm(a, target, replacement)),
            Box::new(replace_subterm(b, target, replacement)),
        ),
        Term::Select(a, b) => Term::Select(
            Box::new(replace_subterm(a, target, replacement)),
            Box::new(replace_subterm(b, target, replacement)),
        ),
        Term::Store(a, b, c) => Term::Store(
            Box::new(replace_subterm(a, target, replacement)),
            Box::new(replace_subterm(b, target, replacement)),
            Box::new(replace_subterm(c, target, replacement)),
        ),
        Term::App(f, args) => {
            Term::App(*f, args.iter().map(|a| replace_subterm(a, target, replacement)).collect())
        }
    }
}

/// Replaces array reads and uninterpreted applications by fresh variables,
/// bottom-up, recording the instances for functionality enforcement.
fn abstract_term(t: &Term, instances: &mut Vec<Instance>) -> Term {
    match t {
        Term::Const(_) | Term::Var(_) | Term::Bound(_) => t.clone(),
        Term::Add(a, b) => {
            Term::Add(Box::new(abstract_term(a, instances)), Box::new(abstract_term(b, instances)))
        }
        Term::Sub(a, b) => {
            Term::Sub(Box::new(abstract_term(a, instances)), Box::new(abstract_term(b, instances)))
        }
        Term::Neg(a) => Term::Neg(Box::new(abstract_term(a, instances))),
        Term::Mul(a, b) => {
            Term::Mul(Box::new(abstract_term(a, instances)), Box::new(abstract_term(b, instances)))
        }
        Term::Select(arr, idx) => {
            let idx = abstract_term(idx, instances);
            let fun = format!("read:{arr}");
            instance_var(fun, vec![idx], instances)
        }
        Term::App(f, args) => {
            let args: Vec<Term> = args.iter().map(|a| abstract_term(a, instances)).collect();
            let fun = format!("app:{f}");
            instance_var(fun, args, instances)
        }
        Term::Store(a, b, c) => Term::Store(
            Box::new(abstract_term(a, instances)),
            Box::new(abstract_term(b, instances)),
            Box::new(abstract_term(c, instances)),
        ),
    }
}

fn instance_var(fun: String, args: Vec<Term>, instances: &mut Vec<Instance>) -> Term {
    if let Some(existing) = instances.iter().find(|i| i.fun == fun && i.args == args) {
        return Term::Var(existing.result);
    }
    let fresh = VarRef::cur(Symbol::fresh("rd"));
    instances.push(Instance { fun, args, result: fresh });
    Term::Var(fresh)
}

/// Returns `true` if an atom relates two array-sorted terms without reading
/// from them (after abstraction such atoms carry no arithmetic content).
fn is_pure_array_atom(a: &Atom) -> bool {
    fn arrayish(t: &Term) -> bool {
        matches!(t, Term::Var(_) | Term::Store(..))
    }
    a.op == RelOp::Eq && arrayish(&a.lhs) && arrayish(&a.rhs)
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathinv_ir::Formula as F;

    fn solver() -> Solver {
        Solver::new()
    }

    #[test]
    fn pure_arithmetic_sat_and_unsat() {
        let s = solver();
        let x = Term::var("x");
        let sat = F::and(vec![F::ge(x.clone(), Term::int(0)), F::le(x.clone(), Term::int(5))]);
        assert!(s.is_sat(&sat).unwrap());
        let unsat = F::and(vec![F::gt(x.clone(), Term::int(5)), F::lt(x, Term::int(5))]);
        assert!(!s.is_sat(&unsat).unwrap());
    }

    #[test]
    fn integer_tightening_applies() {
        let s = solver();
        // 0 < x < 1 has no integer solution (but has rational ones).
        let x = Term::var("x");
        let f = F::and(vec![F::gt(x.clone(), Term::int(0)), F::lt(x, Term::int(1))]);
        assert!(!s.is_sat(&f).unwrap());
    }

    #[test]
    fn disjunction_and_negation() {
        let s = solver();
        let x = Term::var("x");
        let f = F::or(vec![F::lt(x.clone(), Term::int(0)), F::gt(x.clone(), Term::int(10))]);
        assert!(s.is_sat(&f).unwrap());
        let g = F::and(vec![f, F::ge(x.clone(), Term::int(0)), F::le(x, Term::int(10))]);
        assert!(!s.is_sat(&g).unwrap());
    }

    #[test]
    fn disequality_split() {
        let s = solver();
        let x = Term::var("x");
        let f = F::and(vec![
            F::ne(x.clone(), Term::int(3)),
            F::ge(x.clone(), Term::int(3)),
            F::le(x.clone(), Term::int(3)),
        ]);
        assert!(!s.is_sat(&f).unwrap());
        let g = F::and(vec![F::ne(x.clone(), Term::int(3)), F::ge(x, Term::int(3))]);
        assert!(s.is_sat(&g).unwrap());
    }

    #[test]
    fn read_over_write_same_index() {
        let s = solver();
        // a' = store(a, i, 0) && a'[i] != 0  is unsat.
        let a = Term::var("a");
        let ap = Term::pvar("a");
        let i = Term::var("i");
        let f = F::and(vec![
            F::eq(ap.clone(), a.clone().store(i.clone(), Term::int(0))),
            F::ne(ap.select(i), Term::int(0)),
        ]);
        assert!(!s.is_sat(&f).unwrap());
    }

    #[test]
    fn read_over_write_different_index() {
        let s = solver();
        // a' = store(a, i, 0) && j != i && a'[j] != a[j]  is unsat.
        let a = Term::var("a");
        let ap = Term::pvar("a");
        let i = Term::var("i");
        let j = Term::var("j");
        let f = F::and(vec![
            F::eq(ap.clone(), a.clone().store(i.clone(), Term::int(0))),
            F::ne(j.clone(), i.clone()),
            F::ne(ap.select(j.clone()), a.select(j)),
        ]);
        assert!(!s.is_sat(&f).unwrap());
        // Without the j != i assumption it is satisfiable (j may alias i).
        let a = Term::var("a");
        let ap = Term::pvar("a");
        let g = F::and(vec![
            F::eq(ap.clone(), a.clone().store(i.clone(), Term::int(0))),
            F::ne(ap.select(Term::var("j")), a.select(Term::var("j"))),
        ]);
        assert!(s.is_sat(&g).unwrap());
    }

    #[test]
    fn functionality_of_reads() {
        let s = solver();
        // i = j && a[i] != a[j] is unsat.
        let a = Term::var("a");
        let f = F::and(vec![
            F::eq(Term::var("i"), Term::var("j")),
            F::ne(a.clone().select(Term::var("i")), a.clone().select(Term::var("j"))),
        ]);
        assert!(!s.is_sat(&f).unwrap());
        // Different indices may hold different values.
        let g = F::ne(a.clone().select(Term::var("i")), a.select(Term::var("j")));
        assert!(s.is_sat(&g).unwrap());
    }

    #[test]
    fn uninterpreted_function_congruence() {
        let s = solver();
        let f = F::and(vec![
            F::eq(Term::var("x"), Term::var("y")),
            F::ne(Term::app("f", vec![Term::var("x")]), Term::app("f", vec![Term::var("y")])),
        ]);
        assert!(!s.is_sat(&f).unwrap());
    }

    #[test]
    fn frame_condition_aliasing() {
        let s = solver();
        // a' = a && a[i] = 1 && a'[i] = 0 is unsat (the alias must be applied).
        let f = F::and(vec![
            F::eq(Term::pvar("a"), Term::var("a")),
            F::eq(Term::var("a").select(Term::var("i")), Term::int(1)),
            F::eq(Term::pvar("a").select(Term::var("i")), Term::int(0)),
        ]);
        assert!(!s.is_sat(&f).unwrap());
    }

    #[test]
    fn initcheck_counterexample_path_formula_is_infeasible() {
        // SSA encoding of the Figure 2(b) counterexample (one iteration of
        // each loop): the first loop writes a[0] := 0, the second loop reads
        // a[0] and the error transition claims a[0] != 0.
        let s = solver();
        let f = F::and(vec![
            F::eq(Term::ivar("i", 1), Term::int(0)),
            F::lt(Term::ivar("i", 1), Term::ivar("n", 0)),
            F::eq(Term::ivar("a", 1), Term::ivar("a", 0).store(Term::ivar("i", 1), Term::int(0))),
            F::eq(Term::ivar("i", 2), Term::ivar("i", 1).add(Term::int(1))),
            F::ge(Term::ivar("i", 2), Term::ivar("n", 0)),
            F::eq(Term::ivar("i", 3), Term::int(0)),
            F::lt(Term::ivar("i", 3), Term::ivar("n", 0)),
            F::ne(Term::ivar("a", 1).select(Term::ivar("i", 3)), Term::int(0)),
        ]);
        assert!(!s.is_sat(&f).unwrap(), "Figure 2(b) counterexample must be spurious");
    }

    #[test]
    fn universally_quantified_antecedent_is_instantiated() {
        let s = solver();
        let k = Symbol::intern("k");
        // forall k: 0 <= k && k <= n-1 -> a[k] = 0,  0 <= j <= n-1,  a[j] != 0
        // must be unsatisfiable.
        let inv = F::forall(
            vec![k],
            F::and(vec![
                F::le(Term::int(0), Term::Bound(k)),
                F::le(Term::Bound(k), Term::var("n").sub(Term::int(1))),
            ])
            .implies(F::eq(Term::var("a").select(Term::Bound(k)), Term::int(0))),
        );
        let f = F::and(vec![
            inv.clone(),
            F::ge(Term::var("j"), Term::int(0)),
            F::le(Term::var("j"), Term::var("n").sub(Term::int(1))),
            F::ne(Term::var("a").select(Term::var("j")), Term::int(0)),
        ]);
        assert!(!s.is_sat(&f).unwrap());
        // Outside the initialised range the read is unconstrained.
        let g = F::and(vec![
            inv,
            F::gt(Term::var("j"), Term::var("n")),
            F::ne(Term::var("a").select(Term::var("j")), Term::int(0)),
        ]);
        assert!(s.is_sat(&g).unwrap());
    }

    #[test]
    fn entailment_with_quantified_consequent() {
        let s = solver();
        let k = Symbol::intern("k");
        // a[k] = 0 for 0 <= k < i  and  i <= 0  entails  a[k] = 0 for 0 <= k < i
        // trivially; more interestingly, 0 <= k < 0 is empty so anything holds.
        let empty_range = F::and(vec![F::eq(Term::var("i"), Term::int(0))]);
        let goal = F::forall(
            vec![k],
            F::and(vec![
                F::le(Term::int(0), Term::Bound(k)),
                F::lt(Term::Bound(k), Term::var("i")),
            ])
            .implies(F::eq(Term::var("a").select(Term::Bound(k)), Term::int(7))),
        );
        assert!(s.entails(&empty_range, &goal).unwrap());
        // With i = 1 the range contains k = 0, and nothing constrains a[0].
        let nonempty = F::eq(Term::var("i"), Term::int(1));
        assert!(!s.entails(&nonempty, &goal).unwrap());
    }

    #[test]
    fn entailment_of_conjunction_splits() {
        let s = solver();
        let x = Term::var("x");
        let ante = F::eq(x.clone(), Term::int(5));
        let cons = F::and(vec![F::ge(x.clone(), Term::int(0)), F::le(x, Term::int(10))]);
        assert!(s.entails(&ante, &cons).unwrap());
    }

    #[test]
    fn model_is_returned_for_original_variables_only() {
        let s = solver();
        let f = F::and(vec![
            F::eq(Term::var("x"), Term::int(2)),
            F::eq(Term::var("a").select(Term::var("x")), Term::int(9)),
        ]);
        match s.check(&f).unwrap() {
            SatResult::Sat(m) => {
                assert_eq!(m.value(VarRef::cur(Symbol::intern("x"))), Some(Rat::int(2)));
                assert!(m.values.keys().all(|v| !v.sym.as_str().contains('!')));
            }
            SatResult::Unsat => panic!("satisfiable"),
        }
    }

    #[test]
    fn relaxation_skips_nonlinear_atoms_instead_of_erroring() {
        // The strict path refutes this cube through the congruence
        // pre-filter / the equality contradiction without ever converting
        // the non-linear atom; the relaxation (built at the node with two
        // disequalities) must not turn that into a NonLinear error.
        let s = solver();
        let f = F::and(vec![
            F::eq(Term::var("x"), Term::int(1)),
            F::eq(Term::var("x"), Term::int(2)),
            F::le(Term::var("y").mul(Term::var("z")), Term::int(5)),
            F::ne(Term::var("u"), Term::var("v")),
            F::ne(Term::var("w"), Term::var("t")),
        ]);
        assert!(!s.is_sat(&f).unwrap(), "decidably unsat despite the non-linear atom");
    }

    #[test]
    fn budget_is_enforced() {
        let s = Solver::with_budget(1);
        // Needs more than one branch because of the disequalities.
        let f = F::and(vec![
            F::ne(Term::var("x"), Term::int(0)),
            F::ne(Term::var("y"), Term::int(0)),
            F::ne(Term::var("z"), Term::int(0)),
        ]);
        match s.check(&f) {
            Err(SmtError::Budget { .. }) => {}
            other => panic!("expected budget exhaustion, got {other:?}"),
        }
    }

    #[test]
    fn negated_quantifier_is_rejected() {
        let s = solver();
        let k = Symbol::intern("k");
        let f = Formula::Not(Box::new(F::forall(
            vec![k],
            F::eq(Term::var("a").select(Term::Bound(k)), Term::int(0)),
        )));
        assert!(matches!(s.check(&f), Err(SmtError::Unsupported { .. })));
    }

    #[test]
    fn store_chain_through_ssa_versions() {
        let s = solver();
        // a1 = store(a0, 0, 1); a2 = store(a1, 1, 2); a2[0] = 1 && a2[1] = 2 sat;
        // asserting a2[0] = 5 is unsat.
        let base = F::and(vec![
            F::eq(Term::ivar("a", 1), Term::ivar("a", 0).store(Term::int(0), Term::int(1))),
            F::eq(Term::ivar("a", 2), Term::ivar("a", 1).store(Term::int(1), Term::int(2))),
        ]);
        let good = F::and(vec![
            base.clone(),
            F::eq(Term::ivar("a", 2).select(Term::int(0)), Term::int(1)),
            F::eq(Term::ivar("a", 2).select(Term::int(1)), Term::int(2)),
        ]);
        assert!(s.is_sat(&good).unwrap());
        let bad = F::and(vec![base, F::eq(Term::ivar("a", 2).select(Term::int(0)), Term::int(5))]);
        assert!(!s.is_sat(&bad).unwrap());
    }

    #[test]
    fn integral_check_refutes_fractional_only_models() {
        let s = solver();
        // x + x = 1 is rationally satisfiable (x = 1/2) but has no integer
        // solution; the plain check must say sat and the integral check unsat.
        let f = F::eq(Term::var("x").add(Term::var("x")), Term::int(1));
        assert!(s.is_sat(&f).unwrap());
        assert_eq!(s.check_integral(&f, 64).unwrap(), IntSatResult::Unsat);
    }

    #[test]
    fn integral_check_finds_integer_models() {
        let s = solver();
        // 2x + 3y = 7 with 0 <= x, y <= 5 has integer solutions (x=2, y=1).
        let f = F::and(vec![
            F::eq(
                Term::int(2).mul(Term::var("x")).add(Term::int(3).mul(Term::var("y"))),
                Term::int(7),
            ),
            F::ge(Term::var("x"), Term::int(0)),
            F::ge(Term::var("y"), Term::int(0)),
            F::le(Term::var("x"), Term::int(5)),
            F::le(Term::var("y"), Term::int(5)),
        ]);
        let IntSatResult::Sat(m) = s.check_integral(&f, 64).unwrap() else {
            panic!("expected an integral model");
        };
        for r in m.values.values() {
            assert!(r.is_integer(), "model must be integral, got {m}");
        }
        let x = m.value(VarRef::cur(Symbol::intern("x"))).unwrap().as_integer().unwrap();
        let y = m.value(VarRef::cur(Symbol::intern("y"))).unwrap().as_integer().unwrap();
        assert_eq!(2 * x + 3 * y, 7);
    }

    #[test]
    fn integral_check_reports_unknown_on_exhausted_budget() {
        let s = solver();
        let f = F::eq(Term::var("x").add(Term::var("x")), Term::int(1));
        assert_eq!(s.check_integral(&f, 0).unwrap(), IntSatResult::Unknown);
    }
}
