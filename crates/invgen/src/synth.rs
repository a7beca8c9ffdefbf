//! Constraint-based synthesis of template invariants (§4.2 of the paper).
//!
//! The synthesiser turns the initiation / consecution / safety conditions of
//! an invariant map into a system of constraints over the template
//! parameters, using Farkas' lemma: an implication between linear constraints
//! is valid iff the consequent is a non-negative combination of the
//! antecedent rows (plus a non-negative constant slack), or the antecedent is
//! itself contradictory.
//!
//! Because antecedent rows that come from the templates have *unknown*
//! coefficients, their Farkas multipliers make the system bilinear.  The
//! paper solved the resulting constraints with SICStus CLP(Q); here the
//! bilinearity is resolved by enumerating the multipliers of template rows
//! over a small candidate set (they are small integers in every published
//! example) while the multipliers of concrete rows and the template
//! parameters themselves stay as exact-rational LP unknowns.
//!
//! The enumeration is organised as a *conflict-driven, presolved, best-first*
//! frontier search over the conditions (DESIGN.md §10):
//!
//! * every candidate row batch is [presolved](mod@crate::presolve) before it
//!   touches a tableau — concrete-row multipliers are Gaussian-eliminated
//!   out of each implication's compiled encoding once, parameter
//!   equalities are eliminated out of the accumulated system per branch,
//!   duplicate and dominated rows are dropped, and contradictions detected
//!   by constant folding never reach the simplex at all;
//! * infeasible extensions yield a *minimal Farkas conflict*: the support of
//!   the certificate read off the conflict row
//!   ([`IncrementalSimplex::conflict_core`]) is already irreducible, and it
//!   is mapped back to the multiplier decisions that produced its rows;
//!   every later branch of the same implication whose decision set contains
//!   a learned conflict core is skipped without solver work.  Cores are
//!   dropped once their implication is done: each one holds the decision
//!   of the implication that learned it, so no later frontier entry can
//!   contain a whole one;
//! * candidate extensions are processed best-first — fewest non-zero
//!   multipliers first, under a documented deterministic total order
//!   (`multiplier_choices`) — so the surviving frontier holds the least
//!   surprising Farkas proofs regardless of how many branches were pruned;
//!   options are encoded one score tier at a time, and only while the next
//!   frontier is still short, so the tiers a full frontier never reaches are
//!   never encoded.
//!
//! Universally quantified array rows are reduced to scalar implications
//! exactly as in §4.2: a fresh index `k*`, a case split on whether the read
//! hits the written cell, the range side condition (6), and the value
//! condition (8) with array reads replaced by fresh variables.

use crate::error::{InvgenError, InvgenResult};
use crate::presolve::{complete_witness, presolve_tagged, union_deps, Deps};
use crate::relation::{basic_paths, BasicPath, RelationCase};
use crate::stats;
use crate::template::{ParamId, ParamLin, ParamValuation, RowOp, Template, TemplateMap};
use pathinv_ir::{Formula, Loc, Program, RelOp, Symbol, VarRef};
use pathinv_smt::{ConstrOp, IncrementalSimplex, LinConstraint, LinExpr, Rat};
use std::collections::{BTreeMap, BTreeSet, HashSet};
use std::rc::Rc;

/// Unknowns of the generated linear constraint system.
#[derive(Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Debug)]
pub enum Unknown {
    /// A template parameter.
    Param(ParamId),
    /// The Farkas multiplier of concrete antecedent row `row` of implication
    /// `implication`.
    Mu {
        /// Index of the implication.
        implication: u32,
        /// Index of the concrete row within the implication.
        row: u32,
    },
}

impl std::fmt::Display for Unknown {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Unknown::Param(p) => write!(f, "{p}"),
            Unknown::Mu { implication, row } => write!(f, "mu{implication}_{row}"),
        }
    }
}

/// A parametric antecedent row of an implication.
#[derive(Clone, Debug)]
pub struct ParamRow {
    /// The parametric expression (`expr ⋈ 0`).
    pub expr: ParamLin,
    /// The relation.
    pub op: RowOp,
}

/// What an implication must establish.
#[derive(Clone, Debug)]
pub enum Consequent {
    /// Prove `expr ≤ 0` (equality consequents are split into two such
    /// implications before reaching this type).
    Row(ParamLin),
    /// Prove that the antecedent is contradictory.
    False,
}

/// One verification condition in implication form.
#[derive(Clone, Debug)]
pub struct Implication {
    /// Concrete antecedent rows (ops `≤`/`=`; strict rows are pre-tightened).
    pub concrete: Vec<LinConstraint<VarRef>>,
    /// Parametric antecedent rows (template rows and template-derived range
    /// rows).
    pub parametric: Vec<ParamRow>,
    /// The consequent.
    pub consequent: Consequent,
    /// Human-readable description, used in error messages and statistics.
    pub label: String,
}

/// Candidate Farkas multipliers for parametric inequality rows.
const INEQ_MULTIPLIERS: [Rat; 3] = [Rat::ZERO, Rat::ONE, Rat::int(2)];

/// Candidate Farkas multipliers for parametric equality rows.
const EQ_MULTIPLIERS: [Rat; 3] = [Rat::MINUS_ONE, Rat::ZERO, Rat::ONE];

/// Maximum number of partial solutions kept after each condition.  A
/// 24-wide beam is what the INITCHECK-family path programs need to keep the
/// generalising branch alive past the loop-exit range conditions.
const MAX_FRONTIER: usize = 24;

/// Maximum number of feasible extensions kept per partial solution and
/// condition.
const MAX_OPTIONS_PER_STEP: usize = 6;

/// Statistics of a synthesis run.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct SynthStats {
    /// Number of verification conditions (implications) generated.
    pub implications: usize,
    /// Number of LP feasibility checks performed (witness-satisfied and
    /// conflict-pruned extensions cost none).
    pub lp_calls: usize,
    /// Number of multiplier choices explored.
    pub choices_explored: usize,
    /// Branches skipped without solver work: covered by a learned conflict
    /// core, or refuted by presolve constant folding alone.
    pub branches_pruned: usize,
    /// Minimal Farkas conflict cores learned from infeasible extensions.
    pub cores_learned: usize,
}

/// One partial solution of the frontier search: the multiplier decisions
/// taken so far, the live incremental tableau over the accumulated
/// (presolved) system, the witness model of its last real feasibility check
/// (empty before the first; unknowns absent from the witness read as zero),
/// and the presolve bookkeeping — eliminated definitions for witness
/// completion, the per-pushed-row decision dependencies for conflict-core
/// mapping, and the row/variable sets already in the tableau for cross-batch
/// dedup and elimination safety.
///
/// Every candidate that reaches the tableau checks on a clone of its
/// parent's tableau, and only a kept child copies the rest of the entry.
/// Pushed rows are shared, not copied: the tableau's constraint
/// expressions, `row_deps` and `seen_rows` hold `Rc`s, and the tableau's
/// rows are sparse.  The tableau clone copies the non-zero coefficients and
/// the per-column vectors and bumps one reference count per pushed row; a
/// kept child's copy bumps two more and copies the other bookkeeping.
#[derive(Debug, Default)]
struct FrontierEntry {
    /// Option index chosen per implication, in implication order.
    decisions: Vec<u32>,
    tableau: IncrementalSimplex<Unknown>,
    witness: BTreeMap<Unknown, Rat>,
    /// Eliminated definitions `x := e` in elimination order (branch-level
    /// parameter eliminations; per-option multiplier eliminations never
    /// resurface and are not recorded).
    subst: Vec<(Unknown, LinExpr<Unknown>, Deps)>,
    /// Decision dependencies of each pushed tableau row, in push order.
    row_deps: Vec<Rc<Deps>>,
    /// Rows already pushed (cross-batch duplicates are skipped).
    seen_rows: HashSet<Rc<LinConstraint<Unknown>>>,
    /// Unknowns already appearing in pushed rows (they must never be
    /// eliminated: the pushed rows would keep referencing them).
    seen_vars: BTreeSet<Unknown>,
}

/// A learned conflict core, less the current implication's own decision:
/// the `(implication position, option index)` parent decisions that are
/// jointly infeasible with the option of the bucket holding the core.  A
/// candidate with that option whose parent takes every pair is skipped
/// without solver work.
type ConflictCore = Vec<(u32, u32)>;

/// The conflict cores learned while advancing across one implication,
/// bucketed by option index.  Every core learned at position `pos` holds
/// `(pos, opt)` — a frontier entry's system is feasible, so a conflict
/// needs a row of the candidate's batch, and every batch row depends on
/// `pos` — so the pair is implied by the bucket and not stored, and no
/// later implication's frontier entry can hold a complete core.
type LearnedCores = Vec<Vec<ConflictCore>>;

/// Result of a successful synthesis.
#[derive(Clone, Debug)]
pub struct Synthesis {
    /// The invariant formula at each templated cut point.
    pub invariants: BTreeMap<Loc, Formula>,
    /// The parameter valuation found.
    pub valuation: ParamValuation,
    /// Search statistics.
    pub stats: SynthStats,
}

/// Synthesises an invariant map for `program` within the given template map.
///
/// # Errors
///
/// Returns [`InvgenError::NoInvariant`] if no parameter valuation satisfies
/// all conditions within the multiplier bounds, and
/// [`InvgenError::Unsupported`] for programs outside the supported fragment
/// (e.g. two writes to a template array on one basic path).
pub fn synthesize(program: &Program, templates: &TemplateMap) -> InvgenResult<Synthesis> {
    let implications = verification_conditions(program, templates)?;
    let mut stats = SynthStats { implications: implications.len(), ..Default::default() };

    // Each frontier entry carries a live incremental tableau over its
    // accumulated (presolved) system and the witness of its last real
    // feasibility check.  Extensions are processed best-first (fewest
    // non-zero multipliers, then the documented deterministic order) and
    // pass through three filters before any simplex work:
    //
    // 1. *conflict cores* — a branch whose decision set contains a learned
    //    core is infeasible by an already-extracted minimal Farkas
    //    conflict;
    // 2. *presolve* — the option rows, rewritten through the branch's
    //    eliminated definitions, are reduced (equality elimination,
    //    dedup/subsumption against the batch and the tableau,
    //    constant-folding refutation);
    // 3. *witness replay* — a parent witness that already satisfies the
    //    reduced rows proves the extension feasible outright (eliminated
    //    unknowns extend the witness by their definitions, so reduced-row
    //    satisfaction is equivalent to raw-row satisfaction).
    //
    // Only extensions surviving all three reach the warm incremental
    // re-check, and an infeasible re-check pays for itself by learning the
    // conflict core that prunes the rest of its subtree.
    let mut frontier: Vec<FrontierEntry> = vec![FrontierEntry::default()];
    for (idx, imp) in implications.iter().enumerate() {
        let pos = idx as u32;
        let mut tiers = OptionTiers::new(imp, pos)?;
        let next = advance_frontier(&frontier, &mut tiers, pos, &mut stats)?;
        if next.is_empty() {
            return Err(InvgenError::no_invariant(format!(
                "condition `{}` has no solution within the multiplier bounds",
                imp.label
            )));
        }
        frontier = next;
    }

    // Extract a model from the surviving partial solutions.  Every entry is
    // feasible and carries a witness of its reduced system; completing it
    // through the eliminated definitions yields a witness of the full
    // accumulated Farkas system — normally no further solving is needed.  A
    // witness may still instantiate an array-bound expression with a
    // fractional coefficient (the LP works over the rationals); the first
    // such entry retries once with a cold solve of its full system (a fresh
    // Bland-rule model often lands on integral vertices the warm witness
    // missed).  Later entries skip the retry: their systems differ from the
    // first by a few multiplier choices, so a fresh model is fractional for
    // the same reason, and one cold call per synthesis keeps the
    // refine-phase cold-simplex budget flat.
    let mut last_error: Option<InvgenError> = None;
    let mut retried = false;
    let growth_params = templates.array_bound_growth_params();
    for mut entry in frontier {
        strengthen_array_bounds(&mut entry, &growth_params, &mut stats)?;
        let mut completed = entry.witness.clone();
        complete_witness(&mut completed, &entry.subst)?;
        match instantiate_from(templates, completed) {
            Ok(result) => {
                return Ok(Synthesis { invariants: result.0, valuation: result.1, stats })
            }
            Err(e) => last_error = Some(e),
        }
        if retried {
            continue;
        }
        retried = true;
        // Cold retry on the reconstructed full system: the pushed rows plus
        // the eliminated definitions as equality rows.
        let mut system = entry.tableau.active_constraints();
        for (x, def, _) in &entry.subst {
            let expr = LinExpr::var(*x).sub(def)?;
            system.push(LinConstraint::new(expr, ConstrOp::Eq));
        }
        if let pathinv_smt::LpResult::Sat(model) = pathinv_smt::lra_solve(&system)? {
            match instantiate_from(templates, model) {
                Ok(result) => {
                    return Ok(Synthesis { invariants: result.0, valuation: result.1, stats })
                }
                Err(e) => last_error = Some(e),
            }
        }
    }
    Err(match last_error {
        // Every surviving entry instantiated fractionally: within these
        // multiplier bounds there is no template-expressible invariant
        // (the rational relaxation admits solutions the integer-indexed
        // array quantifier cannot express).
        Some(e) => InvgenError::no_invariant(format!(
            "no surviving frontier entry instantiates to a template invariant ({e})"
        )),
        None => InvgenError::no_invariant("every surviving frontier entry became infeasible"),
    })
}

/// The implications of every basic path, in search order: safety
/// conditions first, because they prune the parameter space fastest.
fn verification_conditions(
    program: &Program,
    templates: &TemplateMap,
) -> InvgenResult<Vec<Implication>> {
    let mut implications = Vec::new();
    for bp in &basic_paths(program)? {
        implications.extend(conditions_for_basic_path(program, templates, bp)?);
    }
    implications.sort_by_key(|imp| match imp.consequent {
        Consequent::False => 0,
        Consequent::Row(_) => 1,
    });
    Ok(implications)
}

/// Outcome of evaluating one `(parent, option)` candidate against the
/// cores learned so far; [`advance_frontier`] folds it into the next
/// frontier and the counters.
enum CandidateOutcome {
    /// Skipped by a learned conflict core (filter 1): the branch repeats an
    /// already-extracted minimal Farkas conflict.
    CoveredByCore,
    /// Refuted by presolve constant folding (filter 2); carries the
    /// decision dependencies of the contradiction for core learning.
    PresolveConflict(Deps),
    /// Feasible: the extended entry, and whether a real LP check ran
    /// (`false` when the parent witness replayed, filter 3).
    Feasible(Box<FrontierEntry>, bool),
    /// Infeasible under the warm re-check; carries the minimal-conflict
    /// decision dependencies.
    Infeasible(Deps),
}

/// Runs one candidate through the three filters and (when they pass) the
/// warm feasibility re-check.  Reads only `acc`, `option`, and `learned`;
/// the caller merges the outcome.
fn evaluate_candidate(
    acc: &FrontierEntry,
    option: &[LinConstraint<Unknown>],
    pos: u32,
    opt_idx: u32,
    learned: &LearnedCores,
) -> InvgenResult<CandidateOutcome> {
    // Filter 1: the conflict cores learned for this option.
    let covered =
        |core: &ConflictCore| core.iter().all(|&(p, o)| acc.decisions.get(p as usize) == Some(&o));
    if learned.get(opt_idx as usize).is_some_and(|cores| cores.iter().any(covered)) {
        return Ok(CandidateOutcome::CoveredByCore);
    }

    // Rewrite the option rows through the branch's eliminated
    // definitions (in creation order; later definitions never
    // mention earlier-eliminated unknowns).
    let mut rows: Vec<(LinConstraint<Unknown>, Deps)> =
        option.iter().map(|c| (c.clone(), vec![pos])).collect();
    for (x, def, def_deps) in &acc.subst {
        for (c, deps) in &mut rows {
            let b = c.expr.coeff(x);
            if b.is_zero() {
                continue;
            }
            c.expr = c
                .expr
                .add(&LinExpr::scaled_var(*x, b.neg().map_err(InvgenError::from)?))?
                .add(&def.scale(b)?)?;
            *deps = union_deps(deps, def_deps);
        }
    }

    // Filter 2: presolve the batch (eliminating only unknowns the
    // tableau has never seen — eliminating a live column would
    // weaken the pushed rows).
    let presolved = presolve_tagged(rows, &|u| !acc.seen_vars.contains(u))?;
    if let Some(conflict_deps) = presolved.conflict {
        // Refuted by constant folding alone, without touching a tableau.
        return Ok(CandidateOutcome::PresolveConflict(conflict_deps));
    }
    let mut rows = presolved.rows;
    let new_elims = presolved.eliminated;
    // Cross-batch dedup: rows already in the tableau are already enforced.
    rows.retain(|(c, _)| !acc.seen_rows.contains(c));

    // Filter 3: witness replay on the reduced rows.
    let witness_holds = {
        let lookup = |u: &Unknown| acc.witness.get(u).copied().unwrap_or(Rat::ZERO);
        let mut all = true;
        for (c, _) in &rows {
            if !c.holds(&lookup)? {
                all = false;
                break;
            }
        }
        all
    };

    // Only the tableau is cloned before the check; the rest of the entry is
    // copied for a kept child alone.
    let mut tableau = acc.tableau.clone();
    for (c, _) in &rows {
        tableau.push_constraint(c)?;
    }
    let witness = if witness_holds {
        acc.witness.clone()
    } else {
        // Recorded before the check, so an aborted run's thread-local
        // counters still include the attempt.
        stats::record_system_solved();
        if !tableau.check()? {
            // The certificate's support is already an irreducible
            // infeasible subsystem (it is read off one conflict row over
            // independent slack columns); map its rows (in push order: the
            // parent's, then this option's) back to the decisions that
            // produced them.
            let pushed = acc.row_deps.len();
            let mut core_deps: Deps = Vec::new();
            for i in tableau.conflict_core().expect("the check just failed") {
                let deps = if i < pushed { &acc.row_deps[i] } else { &rows[i - pushed].1 };
                core_deps = union_deps(&core_deps, deps);
            }
            return Ok(CandidateOutcome::Infeasible(core_deps));
        }
        tableau.model()?
    };
    let mut child = FrontierEntry {
        decisions: acc.decisions.clone(),
        tableau,
        witness,
        subst: acc.subst.clone(),
        row_deps: acc.row_deps.clone(),
        seen_rows: acc.seen_rows.clone(),
        seen_vars: acc.seen_vars.clone(),
    };
    child.decisions.push(opt_idx);
    child.subst.extend(new_elims);
    for (c, deps) in rows {
        child.row_deps.push(Rc::new(deps));
        child.seen_vars.extend(c.expr.vars());
        child.seen_rows.insert(Rc::new(c));
    }
    Ok(CandidateOutcome::Feasible(Box::new(child), !witness_holds))
}

/// Advances the frontier across one implication.  The conflict cores it
/// learns live only as long as the advance: none of them can cover a
/// candidate of a later implication ([`LearnedCores`]).
///
/// Candidates are consumed best-first by `(score, parent, option)`, so a
/// score tier's candidates all precede the next tier's, and the advance
/// stops once the next frontier holds [`MAX_FRONTIER`] entries.  The options
/// are therefore encoded one tier at a time, and a tier is encoded only
/// while the next frontier is still short: the tiers after the stopping
/// point are never encoded at all.  Option indices, candidate order, and
/// stopping point are exactly those of encoding every tier up front.
fn advance_frontier(
    frontier: &[FrontierEntry],
    tiers: &mut OptionTiers,
    pos: u32,
    stats: &mut SynthStats,
) -> InvgenResult<Vec<FrontierEntry>> {
    let mut next = Vec::new();
    let mut kept_per_parent = vec![0usize; frontier.len()];
    let mut learned = LearnedCores::new();
    while next.len() < MAX_FRONTIER {
        let Some(tier) = tiers.encode_next()? else {
            break;
        };
        // Within a tier: parent order, then option order.
        let candidates = frontier
            .iter()
            .enumerate()
            .flat_map(|(parent, acc)| tier.clone().map(move |opt| (parent, acc, opt)));
        for (parent, acc, opt_idx) in candidates {
            if next.len() >= MAX_FRONTIER {
                break;
            }
            if kept_per_parent[parent] >= MAX_OPTIONS_PER_STEP {
                continue;
            }
            // One cancellation poll per beam candidate — the poll
            // granularity the racing harness's contract promises for
            // synthesis.
            pathinv_smt::check_ambient().map_err(InvgenError::from)?;
            stats.choices_explored += 1;
            stats::record_branch_explored();
            let opt = opt_idx as u32;
            match evaluate_candidate(acc, &tiers.options[opt_idx], pos, opt, &learned)? {
                CandidateOutcome::CoveredByCore => {
                    stats.branches_pruned += 1;
                    stats::record_branch_pruned();
                }
                CandidateOutcome::PresolveConflict(deps) => {
                    stats.branches_pruned += 1;
                    stats::record_branch_pruned();
                    learn_core(&mut learned, stats, &deps, &acc.decisions, pos, opt);
                }
                CandidateOutcome::Feasible(child, used_lp) => {
                    if used_lp {
                        stats.lp_calls += 1;
                    }
                    next.push(*child);
                    kept_per_parent[parent] += 1;
                }
                CandidateOutcome::Infeasible(deps) => {
                    stats.lp_calls += 1;
                    learn_core(&mut learned, stats, &deps, &acc.decisions, pos, opt);
                }
            }
        }
    }
    Ok(next)
}

/// Biases a surviving entry's witness toward *growing* array ranges: for
/// each upper-bound coefficient parameter of a quantified template row, the
/// constraint `p ≥ 1` is tentatively pushed (rewritten through the branch's
/// eliminated definitions) and kept when the system stays feasible — a
/// checkpointed warm re-check per parameter, no cold solving.
///
/// Every witness of the strengthened system is still a witness of the
/// original, so soundness is untouched; the bias only selects, among the
/// valid invariant maps, one whose quantified range tracks a program
/// variable (the §5 shape `0 ≤ k ≤ i-1`) over a degenerate constant range
/// that would force another round of loop unrolling downstream.
fn strengthen_array_bounds(
    entry: &mut FrontierEntry,
    growth_params: &[ParamId],
    stats: &mut SynthStats,
) -> InvgenResult<()> {
    for p in growth_params {
        let u = Unknown::Param(*p);
        // Rewrite the parameter through the branch's eliminated
        // definitions (in creation order, as everywhere else).
        let mut expr = LinExpr::var(u);
        for (x, def, _) in &entry.subst {
            let b = expr.coeff(x);
            if b.is_zero() {
                continue;
            }
            expr = expr
                .add(&LinExpr::scaled_var(*x, b.neg().map_err(InvgenError::from)?))?
                .add(&def.scale(b)?)?;
        }
        // p ≥ 1, normalised as 1 - p ≤ 0.
        let row = LinExpr::constant(Rat::ONE).sub(&expr)?;
        let checkpoint = entry.tableau.checkpoint();
        entry.tableau.push_constraint(&LinConstraint::new(row, ConstrOp::Le))?;
        stats.lp_calls += 1;
        stats::record_system_solved();
        if entry.tableau.check()? {
            entry.witness = entry.tableau.model()?;
        } else {
            entry.tableau.pop_to(checkpoint)?;
        }
    }
    Ok(())
}

/// Filters a witness down to the template parameters and instantiates the
/// template map under it.
fn instantiate_from(
    templates: &TemplateMap,
    witness: BTreeMap<Unknown, Rat>,
) -> InvgenResult<(BTreeMap<Loc, Formula>, ParamValuation)> {
    let valuation = witness
        .into_iter()
        .filter_map(|(u, r)| match u {
            Unknown::Param(p) => Some((p, r)),
            Unknown::Mu { .. } => None,
        })
        .collect::<ParamValuation>();
    let invariants = templates.instantiate(&valuation)?;
    Ok((invariants, valuation))
}

/// Records a conflict core (decision positions → the options chosen there)
/// in the bucket of option `opt`, deduplicating against the cores already
/// learned there.
fn learn_core(
    learned: &mut LearnedCores,
    stats: &mut SynthStats,
    core_deps: &Deps,
    decisions: &[u32],
    pos: u32,
    opt: u32,
) {
    debug_assert!(
        core_deps.contains(&pos) && core_deps.iter().all(|&p| p <= pos),
        "a core learned at position {pos} must hold ({pos}, {opt}) and earlier pairs only: \
         {core_deps:?}"
    );
    let core: ConflictCore =
        core_deps.iter().filter(|&&p| p != pos).map(|&p| (p, decisions[p as usize])).collect();
    let opt = opt as usize;
    if learned.len() <= opt {
        learned.resize_with(opt + 1, Vec::new);
    }
    if !learned[opt].contains(&core) {
        learned[opt].push(core);
        stats.cores_learned += 1;
        stats::record_core_learned();
    }
}

/// The Farkas option encodings (variant × multiplier choice) of one
/// implication, encoded lazily one score tier at a time.  An option is the
/// row set one branch pushes to extend by it; its index in `options` is the
/// decision recorded for it.
///
/// A choice's *score* is its non-zero multiplier count, the best-first key
/// of the frontier search.  [`multiplier_choices`] sorts the choices by
/// score, so a tier is a contiguous run of choices, and encoding the tiers
/// in turn with one `seen` set appends exactly the options, at exactly the
/// indices, that encoding every choice at once would.
///
/// Each variant is [compiled](compile_variant) once, and its concrete-row
/// multipliers are Gaussian-eliminated once, on the compiled rows ([`eliminate_multipliers`]): those multipliers occur
/// nowhere else in the accumulated system, so the elimination is
/// context-free and shared by every branch that considers the option.  A
/// multiplier choice then costs one sparse combination per row plus
/// presolve's fold.  Options whose reduced system is already
/// contradictory, and options whose reduced rows duplicate an earlier
/// option's, are dropped outright.
struct OptionTiers {
    index: u32,
    /// The implication's variants (prove the consequent, prove the
    /// antecedent contradictory), compiled.
    variants: Vec<Vec<CompiledRow>>,
    /// The choices not yet encoded, in [`multiplier_choices`] order.
    choices: std::iter::Peekable<std::vec::IntoIter<Vec<Rat>>>,
    /// Reduced row sets encoded so far (later duplicates are dropped).
    seen: HashSet<Vec<LinConstraint<Unknown>>>,
    /// The options encoded so far, by option index.
    options: Vec<Vec<LinConstraint<Unknown>>>,
}

impl OptionTiers {
    fn new(imp: &Implication, index: u32) -> InvgenResult<OptionTiers> {
        let goals = match &imp.consequent {
            Consequent::Row(expr) => vec![Some(expr), None],
            Consequent::False => vec![None],
        };
        let mut variants = Vec::with_capacity(goals.len());
        for goal in goals {
            let mut rows = compile_variant(imp, index, goal)?;
            eliminate_multipliers(&mut rows)?;
            variants.push(rows);
        }
        Ok(OptionTiers {
            index,
            variants,
            choices: multiplier_choices(&imp.parametric).into_iter().peekable(),
            seen: HashSet::new(),
            options: Vec::new(),
        })
    }

    /// Encodes the next score tier; returns the indices of the options it
    /// added (possibly none), or `None` once every tier is encoded.
    fn encode_next(&mut self) -> InvgenResult<Option<std::ops::Range<usize>>> {
        let score = |lambda: &Vec<Rat>| lambda.iter().filter(|c| !c.is_zero()).count();
        let Some(tier) = self.choices.peek().map(score) else {
            return Ok(None);
        };
        let start = self.options.len();
        while let Some(lambda) = self.choices.next_if(|l| score(l) == tier) {
            self.encode(&lambda)?;
        }
        Ok(Some(start..self.options.len()))
    }

    /// Encodes the variants of one multiplier choice.
    fn encode(&mut self, lambda: &[Rat]) -> InvgenResult<()> {
        for variant in &self.variants {
            let rows = variant
                .iter()
                .map(|row| row.instantiate(lambda))
                .collect::<InvgenResult<Vec<_>>>()?;
            let tagged = rows.into_iter().map(|c| (c, vec![self.index])).collect();
            // The multipliers are already eliminated: only the fold is left.
            let presolved = presolve_tagged(tagged, &|_| false)?;
            if presolved.conflict.is_some() {
                // Self-contradictory under this multiplier choice: the
                // option can never extend any branch.
                continue;
            }
            let rows: Vec<_> = presolved.rows.into_iter().map(|(c, _)| c).collect();
            // Distinct multiplier choices frequently reduce to the same row
            // set; later (higher-score) duplicates add nothing.
            if self.seen.insert(rows.clone()) {
                self.options.push(rows);
            }
        }
        Ok(())
    }
}

/// Enumerates candidate multiplier vectors for the parametric rows, in the
/// documented total order, with symmetric and dominated choices pruned.
///
/// **Order** (fully deterministic, independent of platform and worker
/// count): ascending by the number of non-zero multipliers, ties broken
/// lexicographically by each row's *candidate index* (its position in
/// [`INEQ_MULTIPLIERS`]/[`EQ_MULTIPLIERS`]), rows compared left to right.
/// Best-first traversal of the frontier relies on this order being total,
/// and [`OptionTiers`] on the non-zero count being its primary key.
///
/// **Pruning** (choices removed without losing any satisfiable encoding):
///
/// * *symmetric rows* — when rows `i < j` are identical (same parametric
///   expression and operator), swapping their multipliers produces the
///   same encoded system; only choices with candidate index non-decreasing
///   across each identical-row group are kept;
/// * *dominated (zero) rows* — a row whose expression is identically zero
///   contributes `λ·0` for any `λ`; it is pinned to its first candidate.
fn multiplier_choices(rows: &[ParamRow]) -> Vec<Vec<Rat>> {
    // First identical row (the group leader) per row, if any.
    let leader: Vec<Option<usize>> = rows
        .iter()
        .enumerate()
        .map(|(j, r)| rows[..j].iter().position(|r2| r2.op == r.op && r2.expr == r.expr))
        .collect();
    let is_zero = |e: &ParamLin| {
        e.constant.is_constant()
            && e.constant.constant_part().is_zero()
            && e.coeffs.values().all(|c| c.is_constant() && c.constant_part().is_zero())
    };
    // Enumerate candidate-index vectors.
    let mut choices: Vec<Vec<usize>> = vec![Vec::new()];
    for (j, row) in rows.iter().enumerate() {
        let candidates = match row.op {
            RowOp::Le => &INEQ_MULTIPLIERS,
            RowOp::Eq => &EQ_MULTIPLIERS,
        };
        let mut next = Vec::with_capacity(choices.len() * candidates.len());
        for prefix in &choices {
            let range = if is_zero(&row.expr) {
                // Pin to a zero candidate when one exists (any multiplier
                // of a zero row encodes identically), else the first.
                let pin = candidates.iter().position(|c| c.is_zero()).unwrap_or(0);
                pin..(pin + 1).min(candidates.len())
            } else {
                let min = leader[j].map(|i| prefix[i]).unwrap_or(0);
                min..candidates.len()
            };
            for c in range {
                let mut v = prefix.clone();
                v.push(c);
                next.push(v);
            }
        }
        choices = next;
    }
    let value = |j: usize, c: usize| match rows[j].op {
        RowOp::Le => INEQ_MULTIPLIERS[c],
        RowOp::Eq => EQ_MULTIPLIERS[c],
    };
    choices.sort_by_key(|v| {
        let nonzeros = v.iter().enumerate().filter(|&(j, &c)| !value(j, c).is_zero()).count();
        (nonzeros, v.clone())
    });
    choices.into_iter().map(|v| v.iter().enumerate().map(|(j, &c)| value(j, c)).collect()).collect()
}

/// One row of a compiled implication variant, `base + Σᵢ λᵢ·terms[i] ⋈ 0`
/// for the multipliers `λ` of the parametric rows.  `terms` lists the
/// parametric rows that contribute here, in ascending row order; they
/// mention template parameters and constants only, never a `Mu`.
#[derive(Clone, Debug)]
struct CompiledRow {
    base: LinExpr<Unknown>,
    terms: Vec<(usize, LinExpr<Unknown>)>,
    op: ConstrOp,
}

impl CompiledRow {
    /// The row under the multiplier choice `lambda`.
    fn instantiate(&self, lambda: &[Rat]) -> InvgenResult<LinConstraint<Unknown>> {
        let mut expr = self.base.clone();
        for (i, term) in &self.terms {
            let l = lambda[*i];
            if l.is_zero() {
                continue;
            }
            for (u, c) in term.terms() {
                expr.add_term(*u, c.mul(l)?)?;
            }
            expr.add_constant(term.constant_part().mul(l)?)?;
        }
        Ok(LinConstraint::new(expr, self.op))
    }
}

/// Compiles one implication variant for every multiplier choice at once.
///
/// `goal = Some(e)` proves `e ≤ 0`; `goal = None` proves the antecedent
/// contradictory.  Instantiated under a choice `λ`, the rows are the Farkas
/// system of that choice: per program variable, the coefficient-matching
/// equation; then the constant-part inequality; then the sign rows of the
/// concrete inequality multipliers.
fn compile_variant(
    imp: &Implication,
    index: u32,
    goal: Option<&ParamLin>,
) -> InvgenResult<Vec<CompiledRow>> {
    // Every program variable that occurs anywhere, in first-occurrence order.
    let mut vars: Vec<VarRef> = Vec::new();
    let occurring = imp
        .concrete
        .iter()
        .flat_map(|c| c.expr.vars())
        .chain(imp.parametric.iter().flat_map(|r| r.expr.vars()))
        .chain(goal.map(ParamLin::vars).unwrap_or_default());
    for v in occurring {
        if !vars.contains(&v) {
            vars.push(v);
        }
    }

    let params = |e: &LinExpr<ParamId>| -> InvgenResult<LinExpr<Unknown>> {
        Ok(e.substitute(&|p: &ParamId| LinExpr::var(Unknown::Param(*p)))?)
    };
    let mu = |j: usize| Unknown::Mu { implication: index, row: j as u32 };

    // goal - Σ λᵢ·paramᵢ - Σ μⱼ·concreteⱼ must be a non-positive constant
    // (matching), or, for the contradiction variant, Σ λᵢ·paramᵢ +
    // Σ μⱼ·concreteⱼ must be a constant ≥ 1.
    let sign = if goal.is_some() { Rat::MINUS_ONE } else { Rat::ONE };
    let row_at = |v: Option<VarRef>, op: ConstrOp| -> InvgenResult<CompiledRow> {
        let part = |e: &ParamLin| match v {
            Some(var) => e.coeffs.get(&var).cloned().unwrap_or_else(LinExpr::zero),
            None => e.constant.clone(),
        };
        let mut base = match goal {
            Some(g) => params(&part(g))?,
            None => LinExpr::zero(),
        };
        for (j, row) in imp.concrete.iter().enumerate() {
            let coeff = match v {
                Some(var) => row.expr.coeff(&var),
                None => row.expr.constant_part(),
            };
            base.add_term(mu(j), coeff.mul(sign)?)?;
        }
        let mut terms = Vec::new();
        for (i, row) in imp.parametric.iter().enumerate() {
            let term = params(&part(&row.expr))?.scale(sign)?;
            if !term.is_constant() || !term.constant_part().is_zero() {
                terms.push((i, term));
            }
        }
        Ok(CompiledRow { base, terms, op })
    };

    let mut rows = Vec::with_capacity(vars.len() + 1 + imp.concrete.len());
    for v in &vars {
        rows.push(row_at(Some(*v), ConstrOp::Eq)?);
    }
    let mut constant = row_at(None, ConstrOp::Le)?;
    if goal.is_none() {
        // constant ≥ 1, i.e. 1 - constant ≤ 0.
        constant.base = LinExpr::constant(Rat::ONE).sub(&constant.base)?;
        for (_, term) in &mut constant.terms {
            *term = term.scale(Rat::MINUS_ONE)?;
        }
    }
    rows.push(constant);

    // Sign constraints: multipliers of concrete inequality rows are
    // non-negative (equality rows are unrestricted).  Multipliers of
    // parametric rows are chosen from sign-respecting candidate sets.
    for (j, row) in imp.concrete.iter().enumerate() {
        if row.op != ConstrOp::Eq {
            let base = LinExpr::scaled_var(mu(j), Rat::MINUS_ONE);
            rows.push(CompiledRow { base, terms: Vec::new(), op: ConstrOp::Le });
        }
    }
    Ok(rows)
}

/// Runs presolve's phase 1 — Gaussian elimination of the `Mu` multipliers —
/// on compiled rows, taking exactly the pivots [`presolve_tagged`] takes on
/// every instantiation of them (the first equality that mentions a `Mu`,
/// and its least `Mu`).
///
/// The pivots depend only on the rows' `Mu` coefficients, which sit in
/// `base` alone and which no multiplier choice touches, so one elimination
/// serves every choice: the pivot row's definition splits into a base part
/// and one part per parametric row, and each substitution scales them by
/// the same `Mu` coefficient of the `base` it rewrites.
fn eliminate_multipliers(rows: &mut Vec<CompiledRow>) -> InvgenResult<()> {
    loop {
        let pivot = rows.iter().enumerate().filter(|(_, row)| row.op == ConstrOp::Eq).find_map(
            |(i, row)| {
                let mut mus = row.base.terms().map(|(u, _)| *u);
                mus.find(|u| matches!(u, Unknown::Mu { .. })).map(|x| (i, x))
            },
        );
        let Some((i, x)) = pivot else {
            return Ok(());
        };
        let row = rows.remove(i);
        let a = row.base.coeff(&x);
        // x := -(row - a·x) / a
        let inv = a.recip()?.neg()?;
        let def = row.base.add(&LinExpr::scaled_var(x, a.neg()?))?.scale(inv)?;
        let def_terms = row
            .terms
            .iter()
            .map(|(j, term)| Ok((*j, term.scale(inv)?)))
            .collect::<InvgenResult<Vec<_>>>()?;
        for other in rows.iter_mut() {
            let b = other.base.coeff(&x);
            if b.is_zero() {
                continue;
            }
            other.base = other.base.add(&LinExpr::scaled_var(x, b.neg()?))?.add(&def.scale(b)?)?;
            for (j, term) in &def_terms {
                let term = term.scale(b)?;
                match other.terms.binary_search_by_key(j, |(k, _)| *k) {
                    Ok(at) => other.terms[at].1 = other.terms[at].1.add(&term)?,
                    Err(at) => other.terms.insert(at, (*j, term)),
                }
            }
        }
    }
}

/// Generates the verification conditions contributed by one basic path.
pub fn conditions_for_basic_path(
    program: &Program,
    templates: &TemplateMap,
    bp: &BasicPath,
) -> InvgenResult<Vec<Implication>> {
    let source = templates.templates.get(&bp.from);
    let target = templates.templates.get(&bp.to);
    let mut out = Vec::new();
    let path_label = format!("{} -> {}", program.loc_label(bp.from), program.loc_label(bp.to));
    for (case_idx, case) in bp.cases.iter().enumerate() {
        let label = |what: &str| format!("{path_label} [case {case_idx}] {what}");
        let retag_pre = |e: &ParamLin| e.retag_vars(&|v| bp.pre.get(&v.sym).copied().unwrap_or(v));
        let retag_post =
            |e: &ParamLin| e.retag_vars(&|v| bp.post.get(&v.sym).copied().unwrap_or(v));

        // Antecedent parametric rows from the source template (scalar only;
        // the source array row is brought in where needed below).
        let mut source_rows: Vec<ParamRow> = Vec::new();
        if let Some(src) = source {
            for row in &src.scalar_rows {
                source_rows.push(ParamRow { expr: retag_pre(&row.expr), op: row.op });
            }
        }

        if bp.to == program.error() {
            out.extend(safety_conditions(case, source, &source_rows, &retag_pre, &label)?);
            continue;
        }

        let Some(tgt) = target else { continue };

        // Scalar consequent rows.
        for (row_idx, row) in tgt.scalar_rows.iter().enumerate() {
            let expr = retag_post(&row.expr);
            let directions: Vec<ParamLin> = match row.op {
                RowOp::Le => vec![expr.clone()],
                RowOp::Eq => vec![expr.clone(), expr.scale(Rat::MINUS_ONE)?],
            };
            for (d, dir) in directions.into_iter().enumerate() {
                out.push(Implication {
                    concrete: case.scalar.clone(),
                    parametric: source_rows.clone(),
                    consequent: Consequent::Row(dir),
                    label: label(&format!("scalar row {row_idx} dir {d}")),
                });
            }
        }

        // Quantified array consequent row.
        if let Some(arr) = &tgt.array_row {
            out.extend(array_conditions(
                case,
                source,
                &source_rows,
                arr,
                &retag_pre,
                &retag_post,
                &label,
            )?);
        }
    }
    Ok(out)
}

/// Safety conditions: the antecedent (source invariant ∧ path relation) must
/// be contradictory.  A quantified source row is instantiated at every read
/// index of its array, splitting on whether the index lies in the quantified
/// range.
fn safety_conditions(
    case: &RelationCase,
    source: Option<&Template>,
    source_rows: &[ParamRow],
    retag_pre: &impl Fn(&ParamLin) -> ParamLin,
    label: &impl Fn(&str) -> String,
) -> InvgenResult<Vec<Implication>> {
    let mut out = Vec::new();
    let arr = source.and_then(|s| s.array_row.as_ref());
    let reads = arr.map(|a| case.reads_from(a.array)).unwrap_or_default();
    if arr.is_none() || reads.is_empty() {
        out.push(Implication {
            concrete: case.scalar.clone(),
            parametric: source_rows.to_vec(),
            consequent: Consequent::False,
            label: label("safety"),
        });
        return Ok(out);
    }
    let arr = arr.expect("checked above");
    let lower = retag_pre(&arr.lower);
    let upper = retag_pre(&arr.upper);
    let rhs = retag_pre(&arr.rhs);
    // Instantiate at the first read (further reads of the same array at the
    // same index share the result variable; distinct-index reads in an error
    // guard do not occur in the supported fragment).
    let read = reads[0];
    let idx = ParamLin::concrete(&read.index);
    let cell = ParamLin::concrete(&LinExpr::var(read.result));

    // Case (a): the read index is inside the quantified range, so the cell
    // fact is available.
    {
        let mut parametric = source_rows.to_vec();
        parametric.push(ParamRow { expr: lower.sub(&idx)?, op: RowOp::Le });
        parametric.push(ParamRow { expr: idx.sub(&upper)?, op: RowOp::Le });
        parametric.extend(cell_fact_rows(&cell, &rhs, arr.op)?);
        out.push(Implication {
            concrete: case.scalar.clone(),
            parametric,
            consequent: Consequent::False,
            label: label("safety (read in range)"),
        });
    }
    // Case (b): the read index is below the range.
    {
        let mut parametric = source_rows.to_vec();
        // idx < lower  ≡  idx - lower + 1 ≤ 0 (integers).
        let row = idx.sub(&lower)?.add(&ParamLin::concrete(&LinExpr::constant(Rat::ONE)))?;
        parametric.push(ParamRow { expr: row, op: RowOp::Le });
        out.push(Implication {
            concrete: case.scalar.clone(),
            parametric,
            consequent: Consequent::False,
            label: label("safety (read below range)"),
        });
    }
    // Case (c): the read index is above the range.
    {
        let mut parametric = source_rows.to_vec();
        let row = upper.sub(&idx)?.add(&ParamLin::concrete(&LinExpr::constant(Rat::ONE)))?;
        parametric.push(ParamRow { expr: row, op: RowOp::Le });
        out.push(Implication {
            concrete: case.scalar.clone(),
            parametric,
            consequent: Consequent::False,
            label: label("safety (read above range)"),
        });
    }
    Ok(out)
}

/// Rows expressing `cell ⋈ rhs` for use in an antecedent.
fn cell_fact_rows(cell: &ParamLin, rhs: &ParamLin, op: RelOp) -> InvgenResult<Vec<ParamRow>> {
    Ok(match op {
        RelOp::Eq => vec![ParamRow { expr: cell.sub(rhs)?, op: RowOp::Eq }],
        RelOp::Ge => vec![ParamRow { expr: rhs.sub(cell)?, op: RowOp::Le }],
        RelOp::Le => vec![ParamRow { expr: cell.sub(rhs)?, op: RowOp::Le }],
        RelOp::Gt => vec![ParamRow {
            expr: rhs.sub(cell)?.add(&ParamLin::concrete(&LinExpr::constant(Rat::ONE)))?,
            op: RowOp::Le,
        }],
        RelOp::Lt => vec![ParamRow {
            expr: cell.sub(rhs)?.add(&ParamLin::concrete(&LinExpr::constant(Rat::ONE)))?,
            op: RowOp::Le,
        }],
        RelOp::Ne => {
            return Err(InvgenError::unsupported(
                "disequality is not a supported array-row relation",
            ))
        }
    })
}

/// The consequent direction rows for `lhs ⋈ rhs` (each entry proves one `≤`).
fn consequent_directions(lhs: &ParamLin, rhs: &ParamLin, op: RelOp) -> InvgenResult<Vec<ParamLin>> {
    Ok(match op {
        RelOp::Eq => vec![lhs.sub(rhs)?, rhs.sub(lhs)?],
        RelOp::Ge => vec![rhs.sub(lhs)?],
        RelOp::Le => vec![lhs.sub(rhs)?],
        RelOp::Gt => {
            vec![rhs.sub(lhs)?.add(&ParamLin::concrete(&LinExpr::constant(Rat::ONE)))?]
        }
        RelOp::Lt => {
            vec![lhs.sub(rhs)?.add(&ParamLin::concrete(&LinExpr::constant(Rat::ONE)))?]
        }
        RelOp::Ne => {
            return Err(InvgenError::unsupported(
                "disequality is not a supported array-row relation",
            ))
        }
    })
}

/// The §4.2 reduction for a quantified consequent row.
#[allow(clippy::too_many_arguments)]
fn array_conditions(
    case: &RelationCase,
    source: Option<&Template>,
    source_rows: &[ParamRow],
    target_row: &crate::template::ArrayRow,
    retag_pre: &impl Fn(&ParamLin) -> ParamLin,
    retag_post: &impl Fn(&ParamLin) -> ParamLin,
    label: &impl Fn(&str) -> String,
) -> InvgenResult<Vec<Implication>> {
    let mut out = Vec::new();
    let writes = case.writes_to(target_row.array);
    if writes.len() > 1 {
        return Err(InvgenError::unsupported(format!(
            "more than one write to array `{}` on a single basic path",
            target_row.array
        )));
    }
    let source_arr =
        source.and_then(|s| s.array_row.as_ref()).filter(|a| a.array == target_row.array);

    // Fresh index variable k* and (if needed) a fresh variable for the
    // pre-state cell a[k*].
    let kstar = ParamLin::concrete(&LinExpr::var(VarRef::cur(Symbol::fresh("kstar"))));
    let cell_pre = ParamLin::concrete(&LinExpr::var(VarRef::cur(Symbol::fresh("cell"))));

    // Range rows of the consequent, over the post-state.
    let lower_post = retag_post(&target_row.lower);
    let upper_post = retag_post(&target_row.upper);
    let rhs_post = retag_post(&target_row.rhs);
    let range_rows = vec![
        ParamRow { expr: lower_post.sub(&kstar)?, op: RowOp::Le },
        ParamRow { expr: kstar.sub(&upper_post)?, op: RowOp::Le },
    ];

    let one = ParamLin::concrete(&LinExpr::constant(Rat::ONE));

    if let Some(w) = writes.first() {
        let widx = ParamLin::concrete(&w.index);
        let wval = ParamLin::concrete(&w.value);
        // (A) The read position k* hits the written cell: the written value
        // must satisfy the consequent relation.
        {
            let mut concrete = case.scalar.clone();
            // k* = w.index.
            concrete.push(LinConstraint::new(
                kstar.sub(&widx)?.eval(&ParamValuation::new())?,
                ConstrOp::Eq,
            ));
            let mut parametric = source_rows.to_vec();
            parametric.extend(range_rows.iter().cloned());
            for dir in consequent_directions(&wval, &rhs_post, target_row.op)? {
                out.push(Implication {
                    concrete: concrete.clone(),
                    parametric: parametric.clone(),
                    consequent: Consequent::Row(dir),
                    label: label("array row, written cell"),
                });
            }
        }
        // (B) The read position misses the written cell: split k* < idx and
        // k* > idx, and rely on the source invariant for the old value.
        for (dir_label, miss_row) in [
            ("k* below write", kstar.sub(&widx)?.add(&one)?),
            ("k* above write", widx.sub(&kstar)?.add(&one)?),
        ] {
            let miss = ParamRow { expr: miss_row, op: RowOp::Le };
            out.extend(preserved_cell_conditions(
                case,
                source_arr,
                source_rows,
                &range_rows,
                &kstar,
                &cell_pre,
                &rhs_post,
                target_row.op,
                Some(miss),
                retag_pre,
                &|what| label(&format!("array row, {dir_label}, {what}")),
            )?);
        }
    } else {
        // No write: the array is unchanged along the path.
        out.extend(preserved_cell_conditions(
            case,
            source_arr,
            source_rows,
            &range_rows,
            &kstar,
            &cell_pre,
            &rhs_post,
            target_row.op,
            None,
            retag_pre,
            &|what| label(&format!("array row, no write, {what}")),
        )?);
    }
    Ok(out)
}

/// Conditions for a cell whose value is preserved along the path: the range
/// side condition (6) and the value condition (8) of the paper.
#[allow(clippy::too_many_arguments)]
fn preserved_cell_conditions(
    case: &RelationCase,
    source_arr: Option<&crate::template::ArrayRow>,
    source_rows: &[ParamRow],
    range_rows: &[ParamRow],
    kstar: &ParamLin,
    cell_pre: &ParamLin,
    rhs_post: &ParamLin,
    op: RelOp,
    miss: Option<ParamRow>,
    retag_pre: &impl Fn(&ParamLin) -> ParamLin,
    label: &impl Fn(&str) -> String,
) -> InvgenResult<Vec<Implication>> {
    let mut out = Vec::new();
    let mut base_parametric = source_rows.to_vec();
    base_parametric.extend(range_rows.iter().cloned());
    if let Some(m) = &miss {
        base_parametric.push(m.clone());
    }

    match source_arr {
        None => {
            // Without a source fact about the cell the only way to prove the
            // consequent is to show the antecedent contradictory (e.g. the
            // target range is empty on this path).
            out.push(Implication {
                concrete: case.scalar.clone(),
                parametric: base_parametric,
                consequent: Consequent::False,
                label: label("range must be empty"),
            });
        }
        Some(src) => {
            let lower_pre = retag_pre(&src.lower);
            let upper_pre = retag_pre(&src.upper);
            let rhs_pre = retag_pre(&src.rhs);
            // (6): the preserved index must fall into the source range.
            for (what, dir) in [
                ("range condition, lower", lower_pre.sub(kstar)?),
                ("range condition, upper", kstar.sub(&upper_pre)?),
            ] {
                out.push(Implication {
                    concrete: case.scalar.clone(),
                    parametric: base_parametric.clone(),
                    consequent: Consequent::Row(dir),
                    label: label(what),
                });
            }
            // (8): assuming the source cell fact, the target cell fact holds.
            let mut parametric = base_parametric.clone();
            parametric.extend(cell_fact_rows(cell_pre, &rhs_pre, src.op)?);
            for dir in consequent_directions(cell_pre, rhs_post, op)? {
                out.push(Implication {
                    concrete: case.scalar.clone(),
                    parametric: parametric.clone(),
                    consequent: Consequent::Row(dir),
                    label: label("value condition"),
                });
            }
        }
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::template::TemplateMap;
    use pathinv_ir::corpus;

    #[test]
    fn forward_equality_plus_inequality_template_is_instantiated() {
        let p = corpus::forward();
        let l1 = corpus::find_loc(&p, "L1");
        let mut templates = TemplateMap::new();
        let vars =
            [Symbol::intern("i"), Symbol::intern("n"), Symbol::intern("a"), Symbol::intern("b")];
        templates.add_scalar_row(l1, &vars, RowOp::Eq).unwrap();
        templates.add_scalar_row(l1, &vars, RowOp::Le).unwrap();
        let result = synthesize(&p, &templates).unwrap();
        let inv = &result.invariants[&l1];
        // The synthesised invariant must be strong enough to prove the
        // assertion: together with i >= n it must force a + b = 3n.  We check
        // the key relationship a + b = 3i is implied.
        let solver = pathinv_smt::Solver::new();
        let claim = Formula::eq(
            pathinv_ir::Term::var("a").add(pathinv_ir::Term::var("b")),
            pathinv_ir::Term::int(3).mul(pathinv_ir::Term::var("i")),
        );
        assert!(solver.entails(inv, &claim).unwrap(), "invariant {inv} must imply a + b = 3i");
        assert!(result.stats.lp_calls > 0);
    }

    #[test]
    fn forward_equality_only_template_fails() {
        let p = corpus::forward();
        let l1 = corpus::find_loc(&p, "L1");
        let mut templates = TemplateMap::new();
        let vars =
            [Symbol::intern("i"), Symbol::intern("n"), Symbol::intern("a"), Symbol::intern("b")];
        templates.add_scalar_row(l1, &vars, RowOp::Eq).unwrap();
        let err = synthesize(&p, &templates).unwrap_err();
        assert!(matches!(err, InvgenError::NoInvariant { .. }));
    }

    #[test]
    fn initcheck_array_template_is_instantiated() {
        let p = corpus::initcheck();
        let l1 = corpus::find_loc(&p, "L1");
        let l3 = corpus::find_loc(&p, "L3");
        let mut templates = TemplateMap::new();
        let scalars = [Symbol::intern("i"), Symbol::intern("n")];
        let a = Symbol::intern("a");
        templates.add_array_row(l1, a, &scalars, RelOp::Eq).unwrap();
        templates.add_array_row(l3, a, &scalars, RelOp::Eq).unwrap();
        let result = synthesize(&p, &templates).unwrap();
        let inv1 = &result.invariants[&l1];
        let inv3 = &result.invariants[&l3];
        assert!(inv1.has_quantifier(), "expected a quantified invariant at L1, got {inv1}");
        assert!(inv3.has_quantifier(), "expected a quantified invariant at L3, got {inv3}");
        // The invariant at the check-loop head must justify the assertion:
        // together with i < n and 0 <= i it must imply a[i] = 0.
        let solver = pathinv_smt::Solver::new();
        let ante = Formula::and(vec![
            inv3.clone(),
            Formula::lt(pathinv_ir::Term::var("i"), pathinv_ir::Term::var("n")),
            Formula::ge(pathinv_ir::Term::var("i"), pathinv_ir::Term::int(0)),
        ]);
        let claim = Formula::eq(
            pathinv_ir::Term::var("a").select(pathinv_ir::Term::var("i")),
            pathinv_ir::Term::int(0),
        );
        assert!(
            solver.entails(&ante, &claim).unwrap(),
            "invariant {inv3} must prove the assertion"
        );
    }

    #[test]
    fn buggy_program_has_no_safe_invariant() {
        let p = corpus::buggy_initcheck();
        let l1 = corpus::find_loc(&p, "L1");
        let mut templates = TemplateMap::new();
        let scalars = [Symbol::intern("i")];
        templates.add_array_row(l1, Symbol::intern("a"), &scalars, RelOp::Eq).unwrap();
        let err = synthesize(&p, &templates);
        assert!(err.is_err(), "the buggy INITCHECK variant must not admit a safe invariant map");
    }

    fn param_row(p: u32, op: RowOp) -> ParamRow {
        let mut expr = ParamLin::zero();
        expr.add_param_coeff(VarRef::cur(Symbol::intern("x")), crate::template::ParamId(p))
            .unwrap();
        ParamRow { expr, op }
    }

    #[test]
    fn multiplier_choices_follow_the_documented_total_order() {
        // Distinct rows, no pruning: the order is (non-zero count
        // ascending, then lexicographic by candidate index).  For one Le
        // row (candidates 0, 1, 2) and one Eq row (candidates -1, 0, 1):
        let rows = vec![param_row(0, RowOp::Le), param_row(1, RowOp::Eq)];
        let choices = multiplier_choices(&rows);
        assert_eq!(choices.len(), 9);
        // All-zero first, then one non-zero in index order, then two.
        assert_eq!(choices[0], vec![Rat::ZERO, Rat::ZERO]);
        let nonzeros = |v: &Vec<Rat>| v.iter().filter(|c| !c.is_zero()).count();
        for pair in choices.windows(2) {
            assert!(
                nonzeros(&pair[0]) <= nonzeros(&pair[1]),
                "non-zero counts must be non-decreasing: {choices:?}"
            );
        }
        // The full order is reproducible run to run (total order, no
        // platform dependence): spot-check the head.
        assert_eq!(choices[1], vec![Rat::ZERO, Rat::MINUS_ONE]);
        assert_eq!(choices[2], vec![Rat::ZERO, Rat::ONE]);
        assert_eq!(choices[3], vec![Rat::ONE, Rat::ZERO]);
    }

    #[test]
    fn identical_rows_are_symmetry_pruned() {
        // Two identical Le rows: only index-non-decreasing choices survive
        // (6 of the raw 9), and the encoded systems lose nothing — every
        // pruned choice is a permutation of a kept one.
        let rows = vec![param_row(0, RowOp::Le), param_row(0, RowOp::Le)];
        let choices = multiplier_choices(&rows);
        assert_eq!(choices.len(), 6, "{choices:?}");
        let idx_of = |r: &Rat| INEQ_MULTIPLIERS.iter().position(|c| c == r).unwrap();
        for v in &choices {
            assert!(idx_of(&v[0]) <= idx_of(&v[1]), "not canonical: {v:?}");
        }
    }

    #[test]
    fn zero_rows_are_pinned() {
        let rows = vec![
            ParamRow { expr: ParamLin::zero(), op: RowOp::Le },
            ParamRow { expr: ParamLin::zero(), op: RowOp::Eq },
        ];
        let choices = multiplier_choices(&rows);
        assert_eq!(choices, vec![vec![Rat::ZERO, Rat::ZERO]]);
    }

    #[test]
    fn conflict_driven_search_prunes_branches_on_failing_systems() {
        // The buggy INITCHECK variant exercises the unsat path heavily:
        // the search must learn conflict cores and prune branches with them.
        let p = corpus::buggy_initcheck();
        let l1 = corpus::find_loc(&p, "L1");
        let mut templates = TemplateMap::new();
        templates
            .add_array_row(l1, Symbol::intern("a"), &[Symbol::intern("i")], RelOp::Eq)
            .unwrap();
        let before = crate::stats::snapshot();
        let err = synthesize(&p, &templates).unwrap_err();
        assert!(matches!(err, InvgenError::NoInvariant { .. }));
        let driven = crate::stats::snapshot().since(&before);
        assert!(driven.cores_learned > 0, "{driven:?}");
        assert!(driven.branches_pruned > 0, "{driven:?}");
    }

    /// FORWARD, INITCHECK, and BUGGY_INITCHECK with the templates the
    /// tests above use.
    fn pinned_cases() -> Vec<(&'static str, Program, TemplateMap)> {
        let forward = corpus::forward();
        let mut forward_templates = TemplateMap::new();
        let vars =
            [Symbol::intern("i"), Symbol::intern("n"), Symbol::intern("a"), Symbol::intern("b")];
        let l1 = corpus::find_loc(&forward, "L1");
        forward_templates.add_scalar_row(l1, &vars, RowOp::Eq).unwrap();
        forward_templates.add_scalar_row(l1, &vars, RowOp::Le).unwrap();

        let initcheck = corpus::initcheck();
        let mut initcheck_templates = TemplateMap::new();
        let scalars = [Symbol::intern("i"), Symbol::intern("n")];
        for label in ["L1", "L3"] {
            let loc = corpus::find_loc(&initcheck, label);
            initcheck_templates
                .add_array_row(loc, Symbol::intern("a"), &scalars, RelOp::Eq)
                .unwrap();
        }

        let buggy = corpus::buggy_initcheck();
        let mut buggy_templates = TemplateMap::new();
        let l1 = corpus::find_loc(&buggy, "L1");
        buggy_templates
            .add_array_row(l1, Symbol::intern("a"), &[Symbol::intern("i")], RelOp::Eq)
            .unwrap();

        vec![
            ("FORWARD", forward, forward_templates),
            ("INITCHECK", initcheck, initcheck_templates),
            ("BUGGY_INITCHECK", buggy, buggy_templates),
        ]
    }

    /// The encoder the compiled one replaced, kept as the reference it must
    /// reproduce: one implication under one fixed multiplier choice, encoded
    /// from scratch.
    ///
    /// `goal = Some(e)` proves `e ≤ 0`; `goal = None` proves the antecedent
    /// contradictory.
    fn encode_implication(
        imp: &Implication,
        index: u32,
        lambda: &[Rat],
        goal: Option<&ParamLin>,
    ) -> InvgenResult<Vec<LinConstraint<Unknown>>> {
        // Collect every program variable that occurs anywhere.
        let mut vars: Vec<VarRef> = Vec::new();
        let mut add_vars = |vs: Vec<VarRef>| {
            for v in vs {
                if !vars.contains(&v) {
                    vars.push(v);
                }
            }
        };
        for c in &imp.concrete {
            add_vars(c.expr.vars());
        }
        for r in &imp.parametric {
            add_vars(r.expr.vars());
        }
        if let Some(g) = goal {
            add_vars(g.vars());
        }

        let param_to_unknown = |e: &LinExpr<ParamId>| -> InvgenResult<LinExpr<Unknown>> {
            Ok(e.substitute(&|p: &ParamId| LinExpr::var(Unknown::Param(*p)))?)
        };

        let mut constraints: Vec<LinConstraint<Unknown>> = Vec::new();

        // Per-variable coefficient equations and the constant-part inequality.
        // goal_expr - Σ λ_i·param_i - Σ μ_j·concrete_j  must be a non-positive
        // constant (matching) — or, for the contradiction variant,
        // Σ λ_i·param_i + Σ μ_j·concrete_j must be a constant ≥ 1.
        let sign = if goal.is_some() { Rat::MINUS_ONE } else { Rat::ONE };

        let coeff_of = |v: Option<VarRef>| -> InvgenResult<LinExpr<Unknown>> {
            let mut acc: LinExpr<Unknown> = LinExpr::zero();
            if let Some(g) = goal {
                let contribution = match v {
                    Some(var) => g.coeffs.get(&var).cloned().unwrap_or_else(LinExpr::zero),
                    None => g.constant.clone(),
                };
                acc = acc.add(&param_to_unknown(&contribution)?)?;
            }
            for (i, row) in imp.parametric.iter().enumerate() {
                let contribution = match v {
                    Some(var) => row.expr.coeffs.get(&var).cloned().unwrap_or_else(LinExpr::zero),
                    None => row.expr.constant.clone(),
                };
                let scaled = param_to_unknown(&contribution)?.scale(lambda[i].mul(sign)?)?;
                acc = acc.add(&scaled)?;
            }
            for (j, row) in imp.concrete.iter().enumerate() {
                let coeff = match v {
                    Some(var) => row.expr.coeff(&var),
                    None => row.expr.constant_part(),
                };
                if coeff.is_zero() {
                    continue;
                }
                let mu = Unknown::Mu { implication: index, row: j as u32 };
                acc = acc.add(&LinExpr::scaled_var(mu, coeff.mul(sign)?))?;
            }
            Ok(acc)
        };

        for v in &vars {
            let e = coeff_of(Some(*v))?;
            constraints.push(LinConstraint::new(e, ConstrOp::Eq));
        }
        let constant = coeff_of(None)?;
        if goal.is_some() {
            // constant ≤ 0.
            constraints.push(LinConstraint::new(constant, ConstrOp::Le));
        } else {
            // constant ≥ 1, i.e. 1 - constant ≤ 0.
            let one_minus = LinExpr::constant(Rat::ONE).sub(&constant)?;
            constraints.push(LinConstraint::new(one_minus, ConstrOp::Le));
        }

        // Sign constraints: multipliers of concrete inequality rows are
        // non-negative (equality rows are unrestricted).  Multipliers of
        // parametric rows were chosen from sign-respecting candidate sets.
        for (j, row) in imp.concrete.iter().enumerate() {
            if row.op != ConstrOp::Eq {
                let mu = Unknown::Mu { implication: index, row: j as u32 };
                constraints.push(LinConstraint::new(
                    LinExpr::scaled_var(mu, Rat::MINUS_ONE),
                    ConstrOp::Le,
                ));
            }
        }
        Ok(constraints)
    }

    /// Every option the reference encoder yields for `imp`: each multiplier
    /// choice's variants, presolved from scratch (multiplier elimination
    /// included) and deduplicated in choice order.
    fn reference_options(imp: &Implication, index: u32) -> Vec<Vec<LinConstraint<Unknown>>> {
        let mut seen = HashSet::new();
        let mut options = Vec::new();
        for lambda in multiplier_choices(&imp.parametric) {
            let goals = match &imp.consequent {
                Consequent::Row(expr) => vec![Some(expr), None],
                Consequent::False => vec![None],
            };
            for goal in goals {
                let rows = encode_implication(imp, index, &lambda, goal).unwrap();
                let tagged = rows.into_iter().map(|c| (c, vec![index])).collect();
                let presolved =
                    presolve_tagged(tagged, &|u| matches!(u, Unknown::Mu { .. })).unwrap();
                if presolved.conflict.is_some() {
                    continue;
                }
                let rows: Vec<_> = presolved.rows.into_iter().map(|(c, _)| c).collect();
                if seen.insert(rows.clone()) {
                    options.push(rows);
                }
            }
        }
        options
    }

    /// Asserts that `OptionTiers`, run through every tier, yields exactly the
    /// reference options (same rows, same row order, same option indices).
    fn assert_encoders_agree(imp: &Implication, index: u32) {
        let mut tiers = OptionTiers::new(imp, index).unwrap();
        while tiers.encode_next().unwrap().is_some() {}
        assert_eq!(tiers.options, reference_options(imp, index), "{}", imp.label);
    }

    #[test]
    fn compiled_encodings_equal_the_reference_encoder() {
        for (name, program, templates) in pinned_cases() {
            let implications = verification_conditions(&program, &templates).unwrap();
            assert!(!implications.is_empty(), "{name}");
            for (idx, imp) in implications.iter().enumerate() {
                assert_encoders_agree(imp, idx as u32);
            }
        }
    }

    /// `c₀·x + c₁·y + c₂·z + k`, each coefficient and `k` an integer plus,
    /// when its parameter index is not negative, one of three template
    /// parameters.
    fn random_param_lin(parts: [(i32, i128); 4]) -> ParamLin {
        let affine = |(param, k): (i32, i128)| {
            let mut e = LinExpr::constant(Rat::int(k));
            if param >= 0 {
                e.add_term(crate::template::ParamId(param as u32), Rat::ONE).unwrap();
            }
            e
        };
        let mut lin = ParamLin { coeffs: BTreeMap::new(), constant: affine(parts[3]) };
        for (v, part) in ["x", "y", "z"].iter().zip(parts) {
            let e = affine(part);
            if !e.is_constant() || !e.constant_part().is_zero() {
                lin.coeffs.insert(VarRef::cur(Symbol::intern(v)), e);
            }
        }
        lin
    }

    fn param_lin_strategy() -> impl proptest::strategy::Strategy<Value = ParamLin> {
        use proptest::strategy::Strategy;
        let part = || (-2i32..3, -2i128..=2);
        (part(), part(), part(), part()).prop_map(|(a, b, c, k)| random_param_lin([a, b, c, k]))
    }

    proptest::proptest! {
        #![proptest_config(proptest::prelude::ProptestConfig::with_cases(96))]

        /// Random implications over three variables and three parameters —
        /// concrete `≤`/`=` rows, parametric `≤`/`=` rows, a row or `false`
        /// consequent — encode identically both ways.
        #[test]
        fn compiled_encodings_equal_the_reference_on_random_implications(
            concrete in proptest::collection::vec(
                ((-2i128..=2, -2i128..=2, -2i128..=2), -3i128..=3, 0u8..2),
                0..4,
            ),
            parametric in proptest::collection::vec((param_lin_strategy(), 0u8..2), 0..4),
            goal in proptest::collection::vec(param_lin_strategy(), 0..2),
        ) {
            let var = |v: &str| VarRef::cur(Symbol::intern(v));
            let concrete = concrete
                .iter()
                .map(|&((a, b, c), k, eq)| {
                    let mut e = LinExpr::constant(Rat::int(k));
                    for (v, coeff) in [("x", a), ("y", b), ("z", c)] {
                        e.add_term(var(v), Rat::int(coeff)).unwrap();
                    }
                    LinConstraint::new(e, if eq == 1 { ConstrOp::Eq } else { ConstrOp::Le })
                })
                .collect();
            let parametric = parametric
                .iter()
                .map(|(expr, eq)| ParamRow {
                    expr: expr.clone(),
                    op: if *eq == 1 { RowOp::Eq } else { RowOp::Le },
                })
                .collect();
            let consequent = match goal.first() {
                Some(expr) => Consequent::Row(expr.clone()),
                None => Consequent::False,
            };
            let imp = Implication { concrete, parametric, consequent, label: "random".into() };
            assert_encoders_agree(&imp, 3);
        }
    }

    #[test]
    fn synthesis_results_and_work_are_pinned() {
        // Encoding options one score tier at a time, taking cores straight
        // off the conflict row, and dropping each implication's cores when
        // it is done skip only work whose result was never read: the
        // counters, implications, and valuation are those of encoding every
        // option up front and deletion-filtering every core against one
        // ever-growing core list.  Every LP-checked candidate costs exactly
        // one warm check, so warm checks equal systems solved.
        // (Invariants are compared structurally: their rendering follows
        // the symbol interning order, which other tests share.)
        type Pin = (&'static str, [u64; 4], (u64, u64), Option<(usize, &'static [i128])>);
        let pins: [Pin; 3] = [
            // (program, [systems solved, branches explored, branches
            // pruned, cores learned], (cold, warm) simplex checks,
            // (implications, valuation) or `None` for no invariant)
            (
                "FORWARD",
                [471, 700, 170, 426],
                (0, 471),
                Some((11, &[-3, 0, 1, 1, 0, 0, -3, 1, 1, 0])),
            ),
            (
                "INITCHECK",
                [151, 710, 106, 44],
                (0, 151),
                Some((25, &[0, 0, 0, 1, 0, -1, 0, 0, 0, 1, 0, 0, 0, 1, -1, 0, 0, 0])),
            ),
            ("BUGGY_INITCHECK", [169, 583, 153, 62], (1, 169), None),
        ];
        for ((name, program, templates), (pinned, counters, work, solution)) in
            pinned_cases().into_iter().zip(pins)
        {
            assert_eq!(name, pinned);
            let smt_before = pathinv_smt::stats_snapshot();
            let synth_before = crate::stats::snapshot();
            let result = synthesize(&program, &templates);
            let smt = pathinv_smt::stats_snapshot().since(&smt_before);
            let c = crate::stats::snapshot().since(&synth_before);
            let live = [c.systems_solved, c.branches_explored, c.branches_pruned, c.cores_learned];
            assert_eq!(live, counters, "{name}");
            assert_eq!((smt.simplex_calls, smt.simplex_warm_checks), work, "{name}");
            match (result, solution) {
                (Ok(s), Some((implications, values))) => {
                    let [lp_calls, choices_explored, branches_pruned, cores_learned] =
                        counters.map(|n| n as usize);
                    let stats = SynthStats {
                        implications,
                        lp_calls,
                        choices_explored,
                        branches_pruned,
                        cores_learned,
                    };
                    assert_eq!(s.stats, stats, "{name}");
                    let valuation: ParamValuation = values
                        .iter()
                        .enumerate()
                        .map(|(p, &v)| (crate::template::ParamId(p as u32), Rat::int(v)))
                        .collect();
                    assert_eq!(s.valuation, valuation, "{name}");
                    assert_eq!(s.invariants, templates.instantiate(&valuation).unwrap(), "{name}");
                }
                (Err(e), None) => {
                    assert!(e.to_string().contains("fractional template coefficients"), "{e}")
                }
                (result, _) => panic!("{name}: unexpected outcome {:?}", result.map(|s| s.stats)),
            }
        }
    }

    #[test]
    fn a_full_frontier_leaves_score_tiers_unencoded() {
        // The advance stops once the next frontier fills; the tiers after
        // that point must never have been encoded.
        let (_, program, templates) = pinned_cases().swap_remove(0);
        let mut frontier = vec![FrontierEntry::default()];
        let mut stats = SynthStats::default();
        let mut cut_short = 0;
        for (idx, imp) in verification_conditions(&program, &templates).unwrap().iter().enumerate()
        {
            let pos = idx as u32;
            let mut tiers = OptionTiers::new(imp, pos).unwrap();
            frontier = advance_frontier(&frontier, &mut tiers, pos, &mut stats).unwrap();
            assert!(!frontier.is_empty(), "{}", imp.label);
            if tiers.encode_next().unwrap().is_some() {
                cut_short += 1;
            }
        }
        assert!(cut_short > 0, "every implication encoded all of its tiers");
    }

    #[test]
    fn synthesis_polls_the_ambient_cancellation_token() {
        // The beam polls `check_ambient` per candidate, so a pre-cancelled
        // ambient token stops the search before it completes.
        let p = corpus::forward();
        let l1 = corpus::find_loc(&p, "L1");
        let vars =
            [Symbol::intern("i"), Symbol::intern("n"), Symbol::intern("a"), Symbol::intern("b")];
        let mut templates = TemplateMap::new();
        templates.add_scalar_row(l1, &vars, RowOp::Eq).unwrap();
        templates.add_scalar_row(l1, &vars, RowOp::Le).unwrap();
        let token = pathinv_smt::CancellationToken::new();
        token.cancel();
        let _ambient = token.install();
        let err = synthesize(&p, &templates).unwrap_err();
        assert!(
            matches!(err, InvgenError::Smt(pathinv_smt::SmtError::Cancelled)),
            "expected cancellation, got {err:?}"
        );
    }
}
