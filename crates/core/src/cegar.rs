//! The CEGAR driver: abstract reachability, counterexample analysis, and
//! refinement (§4.1 of the paper).
//!
//! The three phases are iterated until a proof or a bug is found (or a
//! resource limit is hit — the problem is undecidable):
//!
//! 1. **Abstract reachability** builds an abstract reachability tree (ART)
//!    whose nodes are pairs of a location and an abstract state over the
//!    currently tracked predicates.  If the error location is never reached,
//!    the program is safe.
//! 2. **Counterexample analysis** converts the abstract error path into its
//!    SSA path formula and checks feasibility with the combined solver.  A
//!    feasible path is a real bug.
//! 3. **Refinement** asks the configured [`Refiner`] for new predicates.  The
//!    baseline refiner removes one path at a time; the path-invariant refiner
//!    removes the whole family of unwindings at once.

use crate::error::{CoreError, CoreResult};
use crate::predabs::{AbstractPost, AbstractState, PostStats, PredicateMap};
use crate::refine::{PathInvariantRefiner, PathPredicateRefiner, Refiner};
use pathinv_check::{decode_model, Certificate, InvariantCert};
use pathinv_invgen::{synth_stats_snapshot, SynthCounters};
use pathinv_ir::{ssa, Formula, Loc, Path, Program, TransId};
use pathinv_smt::{
    stats_snapshot, CancellationToken, ContextStats, IntSatResult, SmtStats, Solver, SolverContext,
};
use std::collections::{BTreeMap, VecDeque};
use std::time::Instant;

/// Branch-and-bound node budget for certifying a rationally feasible
/// counterexample path as satisfiable *over the integers* before reporting
/// it.  Error paths are conjunctions of simple bounds and equalities, so the
/// search almost always settles within a handful of nodes; the budget only
/// guards against pathological inputs, where exhaustion degrades the verdict
/// to unknown.
pub const CEX_INTEGRALITY_NODES: usize = 10_000;

/// Which refinement strategy the engine uses.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RefinerKind {
    /// Finite-path predicates (interpolants + path atoms) — the baseline the
    /// paper compares against.
    PathPredicates,
    /// Path-program invariants — the paper's contribution.
    PathInvariants,
}

/// Configuration of the CEGAR engine.
#[derive(Clone, Debug)]
pub struct CegarConfig {
    /// The refinement strategy.
    pub refiner: RefinerKind,
    /// Maximum number of refinement iterations before giving up.
    pub max_refinements: usize,
    /// Maximum number of *consecutive fallback* refinements (the
    /// path-invariant refiner degenerating to finite-path refutation
    /// because synthesis found no invariant map) before giving up.  Repeated
    /// synthesis failure means the counterexample family cannot be
    /// eliminated within the template language, so continuing reproduces
    /// exactly the divergent unrolling the paper criticises (§2.1) at
    /// quadratically growing cost; the paper's remedy is a falsification
    /// engine (§6), available here as the BMC portfolio member.
    pub max_fallback_refinements: usize,
    /// Maximum number of ART nodes per reachability phase.
    pub max_art_nodes: usize,
    /// Whether the abstract post's incremental layers are on (the default):
    /// the solver-query cache and the frame-carried literals.  Both replay
    /// answers of the deterministic solver, so verdicts, refinement counts,
    /// and ART sizes are identical either way; switching them off is the
    /// reference configuration of the cache-parity checks.
    pub caching: bool,
}

impl Default for CegarConfig {
    fn default() -> Self {
        CegarConfig {
            refiner: RefinerKind::PathInvariants,
            max_refinements: 40,
            max_fallback_refinements: 6,
            max_art_nodes: 20_000,
            caching: true,
        }
    }
}

impl CegarConfig {
    /// The default configuration for the paper's algorithm.
    pub fn path_invariants() -> CegarConfig {
        CegarConfig { refiner: RefinerKind::PathInvariants, ..CegarConfig::default() }
    }

    /// The baseline configuration, typically with a modest refinement bound
    /// since it is expected to diverge on the interesting programs.
    pub fn path_predicates(max_refinements: usize) -> CegarConfig {
        CegarConfig {
            refiner: RefinerKind::PathPredicates,
            max_refinements,
            ..CegarConfig::default()
        }
    }
}

/// The verdict of a verification run.
#[derive(Clone, Debug)]
pub enum Verdict {
    /// The error location is unreachable; the final predicate map constitutes
    /// the proof.
    Safe,
    /// A feasible error path was found.
    Unsafe {
        /// The feasible counterexample.
        path: Path,
    },
    /// The engine gave up (refinement bound, no progress, or ART size bound).
    Unknown {
        /// Why the engine stopped.
        reason: String,
    },
    /// The run was stopped cooperatively by its
    /// [`CancellationToken`] — the racing
    /// harness already had a conclusive verdict from another engine.  This
    /// is deliberately distinct from [`Verdict::Unknown`]: the engine did
    /// not give up, it was told to stop, and no resource-exhaustion reason
    /// would be honest.
    Cancelled,
}

impl Verdict {
    /// Returns `true` for [`Verdict::Safe`].
    pub fn is_safe(&self) -> bool {
        matches!(self, Verdict::Safe)
    }

    /// Returns `true` for [`Verdict::Unsafe`].
    pub fn is_unsafe(&self) -> bool {
        matches!(self, Verdict::Unsafe { .. })
    }

    /// Returns `true` for the conclusive verdicts ([`Verdict::Safe`] and
    /// [`Verdict::Unsafe`]) — the ones that settle a race.
    pub fn is_conclusive(&self) -> bool {
        self.is_safe() || self.is_unsafe()
    }
}

/// Solver-work and phase-timing statistics of one verification run.
///
/// The counters are deterministic: they depend only on the program, the
/// configuration, and the (deterministic) solver — not on the machine, the
/// wall clock, or how many worker threads a batch uses.  The `*_ms` fields
/// are wall-clock and are excluded from golden comparisons.
#[derive(Clone, Copy, Debug, Default, PartialEq)]
pub struct VerifierStats {
    /// Cold top-level combined-solver invocations
    /// (`pathinv_smt::Solver::check`) across the whole run, including those
    /// made inside the refiners and invariant synthesis.  Context queries
    /// decided on the context's live tableau are not counted: they show up
    /// as warm simplex checks instead.
    pub solver_calls: u64,
    /// Cold simplex solves (tableau constructions) across the whole run.
    pub simplex_calls: u64,
    /// Warm-started incremental simplex re-checks across the whole run
    /// (tableau reuse over a shared constraint prefix; see
    /// `pathinv_smt::IncrementalSimplex`).
    pub simplex_warm_checks: u64,
    /// Sequence-interpolant computations (the baseline refiner's engine).
    pub interpolant_calls: u64,
    /// Boolean queries issued through the incremental contexts.
    pub smt_queries: u64,
    /// Context queries answered from the keyed query cache.
    pub query_cache_hits: u64,
    /// Abstract-post cube computations requested.
    pub post_queries: u64,
    /// Always `0`: the post-result memo this counted was removed, because
    /// the query cache answers every cube it answered.  Kept only so that
    /// existing readers of the field still build.
    pub post_cache_hits: u64,
    /// Solver calls spent in abstract reachability.
    pub reach_solver_calls: u64,
    /// Solver calls spent checking counterexample feasibility.
    pub cex_solver_calls: u64,
    /// Solver calls spent in refinement (interpolation, invariant
    /// synthesis).
    pub refine_solver_calls: u64,
    /// Simplex calls spent in abstract reachability.
    pub reach_simplex_calls: u64,
    /// Simplex calls spent checking counterexample feasibility.
    pub cex_simplex_calls: u64,
    /// Simplex calls spent in refinement (interpolation, invariant
    /// synthesis — where the Farkas systems of template search live).
    pub refine_simplex_calls: u64,
    /// Deepest exploration level the engine reached: the longest unrolled
    /// path for [`BmcEngine`](crate::BmcEngine), the highest frame index for
    /// [`PdrEngine`](crate::PdrEngine); `0` for CEGAR, whose progress notion
    /// (refinement iterations) is reported separately.
    pub engine_depth: u64,
    /// Engine-specific work units: transition expansions for BMC, proof
    /// obligations processed for PDR-lite; `0` for CEGAR, whose ART size is
    /// reported separately.
    pub engine_nodes: u64,
    /// Frame lemmas learned by PDR-lite; `0` for the other engines.
    pub engine_lemmas: u64,
    /// LP feasibility systems solved by the invariant-synthesis frontier
    /// search (witness-replayed and conflict-pruned extensions solve none);
    /// `0` for engines without synthesis.
    pub synth_systems_solved: u64,
    /// Frontier branches (partial solution × multiplier choice) the
    /// synthesis search considered, including pruned ones.
    pub synth_branches_explored: u64,
    /// Synthesis branches skipped without solver work (covered by a learned
    /// conflict core, or refuted by presolve constant folding).
    pub synth_branches_pruned: u64,
    /// Minimal Farkas conflict cores learned from infeasible synthesis
    /// extensions.
    pub synth_cores_learned: u64,
    /// Syntheses replayed from the cross-refinement path-program memo.
    pub synth_memo_hits: u64,
    /// Wall-clock spent in abstract reachability, in milliseconds.
    pub reach_ms: f64,
    /// Wall-clock spent checking counterexample feasibility, in
    /// milliseconds.
    pub cex_ms: f64,
    /// Wall-clock spent in refinement, in milliseconds.
    pub refine_ms: f64,
}

impl VerifierStats {
    /// Query-cache hit rate in `[0, 1]` (`0` when no query was issued).
    pub fn query_hit_rate(&self) -> f64 {
        if self.smt_queries == 0 {
            0.0
        } else {
            self.query_cache_hits as f64 / self.smt_queries as f64
        }
    }
}

/// The outcome of a verification run, with statistics.
#[derive(Clone, Debug)]
pub struct VerificationResult {
    /// The verdict.
    pub verdict: Verdict,
    /// Number of refinement iterations performed.
    pub refinements: usize,
    /// Number of predicates tracked at the end.
    pub predicates: usize,
    /// Total number of ART nodes constructed across all iterations.
    pub art_nodes: usize,
    /// The final predicate map.
    pub predicate_map: PredicateMap,
    /// The auditable proof artifact backing a conclusive verdict: an
    /// inductive invariant map or bounded-unroll claim for [`Verdict::Safe`],
    /// a concrete replayable trace for [`Verdict::Unsafe`] — validated
    /// independently by the `pathinv-check` crate.  Always `None` for
    /// [`Verdict::Unknown`] and [`Verdict::Cancelled`]: inconclusive
    /// verdicts claim nothing, so there is nothing to certify.
    pub certificate: Option<Certificate>,
    /// Solver-call, cache, and phase-timing statistics.
    pub stats: VerifierStats,
}

/// The CEGAR verification engine.
#[derive(Clone, Debug, Default)]
pub struct Verifier {
    config: CegarConfig,
}

impl Verifier {
    /// Creates a verifier with the given configuration.
    pub fn new(config: CegarConfig) -> Verifier {
        Verifier { config }
    }

    /// Creates a verifier running the paper's algorithm with defaults.
    pub fn path_invariants() -> Verifier {
        Verifier::new(CegarConfig::path_invariants())
    }

    /// Creates a baseline verifier with the given refinement bound.
    pub fn path_predicates(max_refinements: usize) -> Verifier {
        Verifier::new(CegarConfig::path_predicates(max_refinements))
    }

    /// Runs CEGAR on `program`.
    ///
    /// # Errors
    ///
    /// Propagates solver and invariant-generation errors; resource exhaustion
    /// is reported through [`Verdict::Unknown`], not as an error.
    pub fn verify(&self, program: &Program) -> CoreResult<VerificationResult> {
        self.verify_with_cancel(program, &CancellationToken::new())
    }

    /// Runs CEGAR on `program`, polling `token` at every ART expansion and
    /// every solver budget check; a cancellation yields
    /// [`Verdict::Cancelled`] with the statistics accumulated so far.
    ///
    /// # Errors
    ///
    /// Propagates solver and invariant-generation errors; resource exhaustion
    /// and cancellation are reported through the verdict, not as errors.
    pub fn verify_with_cancel(
        &self,
        program: &Program,
        token: &CancellationToken,
    ) -> CoreResult<VerificationResult> {
        // The solver substrate's budget checks poll the ambient token, so a
        // cancellation surfaces as `SmtError::Cancelled` from whichever
        // phase is running when the flag is set.
        let _ambient = token.install();
        let mut predicates = PredicateMap::new();
        let mut total_nodes = 0usize;
        let mut stats = VerifierStats::default();
        let smt_start = stats_snapshot();
        let synth_start = synth_stats_snapshot();
        // One memoized abstract-post operator and one feasibility context
        // for the whole CEGAR loop: reachability phases after a refinement
        // step replay the unchanged parts of the previous ART from the
        // caches instead of re-solving them.
        let mut post = AbstractPost::with_caching(program, self.config.caching);
        let cex_ctx =
            if self.config.caching { SolverContext::new() } else { SolverContext::uncached() };
        let refiner: Box<dyn Refiner> = match self.config.refiner {
            RefinerKind::PathPredicates => Box::new(PathPredicateRefiner::new()),
            RefinerKind::PathInvariants => Box::new(PathInvariantRefiner::new()),
        };

        // Resource exhaustion (ART size, solver case-split budget) is an
        // honest "unknown", not an engine failure; see `CoreError::
        // is_resource_exhaustion`.  The reason names the engine phase that
        // consumed the budget — a refinement-phase exhaustion would
        // otherwise read like a reachability failure.
        macro_rules! check_budget {
            ($result:expr, $refinement:expr, $phase:expr) => {
                match $result {
                    Ok(value) => value,
                    Err(e) => {
                        let e = CoreError::from(e);
                        if e.is_cancellation() {
                            return Ok(VerificationResult {
                                verdict: Verdict::Cancelled,
                                refinements: $refinement,
                                predicates: predicates.len(),
                                art_nodes: total_nodes,
                                predicate_map: predicates,
                                certificate: None,
                                stats: finalize_stats(
                                    stats,
                                    &smt_start,
                                    &synth_start,
                                    post.stats(),
                                    cex_ctx.stats(),
                                ),
                            });
                        }
                        if e.is_resource_exhaustion() {
                            return Ok(VerificationResult {
                                verdict: Verdict::Unknown {
                                    reason: format!("{} phase: {e}", $phase),
                                },
                                refinements: $refinement,
                                predicates: predicates.len(),
                                art_nodes: total_nodes,
                                predicate_map: predicates,
                                certificate: None,
                                stats: finalize_stats(
                                    stats,
                                    &smt_start,
                                    &synth_start,
                                    post.stats(),
                                    cex_ctx.stats(),
                                ),
                            });
                        }
                        return Err(e);
                    }
                }
            };
        }

        let mut consecutive_fallbacks = 0usize;
        for refinement in 0..=self.config.max_refinements {
            let phase = Instant::now();
            let snap = stats_snapshot();
            let reach = self.abstract_reachability(
                program,
                &predicates,
                &mut post,
                &mut total_nodes,
                token,
            );
            stats.reach_ms += ms_since(phase);
            let delta = stats_snapshot().since(&snap);
            stats.reach_solver_calls += delta.sat_checks;
            stats.reach_simplex_calls += delta.simplex_calls;
            let path = match check_budget!(reach, refinement, "abstract reachability (reach)") {
                Reach::Proof(cert) => {
                    return Ok(VerificationResult {
                        verdict: Verdict::Safe,
                        refinements: refinement,
                        predicates: predicates.len(),
                        art_nodes: total_nodes,
                        predicate_map: predicates,
                        certificate: Some(Certificate::Inductive(cert)),
                        stats: finalize_stats(
                            stats,
                            &smt_start,
                            &synth_start,
                            post.stats(),
                            cex_ctx.stats(),
                        ),
                    });
                }
                Reach::Counterexample(path) => path,
            };
            // Counterexample analysis: feasibility of the path formula.
            // Rational satisfiability is only a relaxation for this
            // integer-valued language (non-strict bounds admit fractional
            // models the program cannot reach), so a rationally feasible
            // path is certified with a branch-and-bound integrality check
            // before it is reported as a bug.
            let pf = ssa::path_formula(program, &path);
            let phase = Instant::now();
            let snap = stats_snapshot();
            let feasibility = match cex_ctx.is_sat_with(&pf.conjunction()) {
                Ok(true) => {
                    Solver::new().check_integral(&pf.conjunction(), CEX_INTEGRALITY_NODES).map(Some)
                }
                Ok(false) => Ok(None),
                Err(e) => Err(e),
            };
            stats.cex_ms += ms_since(phase);
            let delta = stats_snapshot().since(&snap);
            stats.cex_solver_calls += delta.sat_checks;
            stats.cex_simplex_calls += delta.simplex_calls;
            let certified =
                check_budget!(feasibility, refinement, "counterexample feasibility (cex)");
            // An integrally infeasible (or undecided) rational model cannot
            // be refined away either: the refiners' interpolation arguments
            // are rational, and a rationally satisfiable path formula has no
            // rational refutation to interpolate.  The honest verdict is
            // unknown, never unsafe.
            let unknown_reason = match certified {
                None => None,
                Some(IntSatResult::Sat(model)) => {
                    // The integral model decodes into a replayable trace
                    // certificate through the one shared decoder (so the
                    // SSA conventions cannot drift per engine).
                    let cert = Certificate::Trace(decode_model(program, &path, &pf, &model));
                    return Ok(VerificationResult {
                        verdict: Verdict::Unsafe { path },
                        refinements: refinement,
                        predicates: predicates.len(),
                        art_nodes: total_nodes,
                        predicate_map: predicates,
                        certificate: Some(cert),
                        stats: finalize_stats(
                            stats,
                            &smt_start,
                            &synth_start,
                            post.stats(),
                            cex_ctx.stats(),
                        ),
                    });
                }
                Some(IntSatResult::Unsat) => Some(
                    "counterexample path is feasible over the rationals but has no \
                     integral model; rational interpolation cannot refine it away"
                        .to_string(),
                ),
                Some(IntSatResult::Unknown) => Some(format!(
                    "counterexample integrality check exhausted its \
                     {CEX_INTEGRALITY_NODES}-node branch-and-bound budget"
                )),
            };
            if let Some(reason) = unknown_reason {
                return Ok(VerificationResult {
                    verdict: Verdict::Unknown { reason },
                    refinements: refinement,
                    predicates: predicates.len(),
                    art_nodes: total_nodes,
                    predicate_map: predicates,
                    certificate: None,
                    stats: finalize_stats(
                        stats,
                        &smt_start,
                        &synth_start,
                        post.stats(),
                        cex_ctx.stats(),
                    ),
                });
            }
            if refinement == self.config.max_refinements {
                break;
            }
            // Refinement.
            let phase = Instant::now();
            let snap = stats_snapshot();
            let refined = refiner.refine(program, &path);
            stats.refine_ms += ms_since(phase);
            let delta = stats_snapshot().since(&snap);
            stats.refine_solver_calls += delta.sat_checks;
            stats.refine_simplex_calls += delta.simplex_calls;
            let refined = check_budget!(refined, refinement, "refinement (refine)");
            if refined.fell_back {
                consecutive_fallbacks += 1;
            } else {
                consecutive_fallbacks = 0;
            }
            let mut added = 0;
            for (l, preds) in refined.predicates {
                for p in preds {
                    if predicates.add(l, p) {
                        added += 1;
                    }
                }
            }
            if added == 0 {
                return Ok(VerificationResult {
                    verdict: Verdict::Unknown {
                        reason: format!(
                            "refinement with {} made no progress on a spurious counterexample",
                            refiner.name()
                        ),
                    },
                    refinements: refinement + 1,
                    predicates: predicates.len(),
                    art_nodes: total_nodes,
                    predicate_map: predicates,
                    certificate: None,
                    stats: finalize_stats(
                        stats,
                        &smt_start,
                        &synth_start,
                        post.stats(),
                        cex_ctx.stats(),
                    ),
                });
            }
            if self.config.max_fallback_refinements != 0
                && consecutive_fallbacks >= self.config.max_fallback_refinements
            {
                return Ok(VerificationResult {
                    verdict: Verdict::Unknown {
                        reason: format!(
                            "invariant synthesis failed on {consecutive_fallbacks} consecutive \
                             refinements; the counterexample family has no invariant within the \
                             template language, so further refinement would only unroll the loop \
                             (combine with a falsification engine, §6)"
                        ),
                    },
                    refinements: refinement + 1,
                    predicates: predicates.len(),
                    art_nodes: total_nodes,
                    predicate_map: predicates,
                    certificate: None,
                    stats: finalize_stats(
                        stats,
                        &smt_start,
                        &synth_start,
                        post.stats(),
                        cex_ctx.stats(),
                    ),
                });
            }
        }
        Ok(VerificationResult {
            verdict: Verdict::Unknown {
                reason: format!(
                    "refinement bound of {} iterations exhausted ({} keeps unrolling loops)",
                    self.config.max_refinements,
                    refiner.name()
                ),
            },
            refinements: self.config.max_refinements,
            predicates: predicates.len(),
            art_nodes: total_nodes,
            predicate_map: predicates,
            certificate: None,
            stats: finalize_stats(stats, &smt_start, &synth_start, post.stats(), cex_ctx.stats()),
        })
    }

    /// One abstract reachability phase.  Returns the abstract counterexample
    /// path, or — when the error location is unreachable — the safety proof
    /// read off the final ART: at each location, the disjunction of the
    /// abstract states reached there.  The disjunction is inductive by
    /// construction (every abstract post lands in, or is covered by, some
    /// node), which is exactly what the independent certificate checker
    /// re-establishes.  `total_nodes` is incremented for every ART node
    /// constructed, *as* it is constructed, so the statistic stays accurate
    /// even when the phase aborts on the node limit or a solver error.
    fn abstract_reachability(
        &self,
        program: &Program,
        predicates: &PredicateMap,
        post: &mut AbstractPost<'_>,
        total_nodes: &mut usize,
        token: &CancellationToken,
    ) -> CoreResult<Reach> {
        let mut nodes: Vec<ArtNode> = Vec::new();
        let mut worklist: VecDeque<usize> = VecDeque::new();
        nodes.push(ArtNode { loc: program.entry(), state: AbstractState::top(), parent: None });
        *total_nodes += 1;
        worklist.push_back(0);
        while let Some(id) = worklist.pop_front() {
            // Same granularity as the node-limit check below: cancellation
            // is noticed within one ART expansion even when every post
            // query hits the query cache and no solver budget check runs.
            token.check().map_err(CoreError::from)?;
            if nodes.len() > self.config.max_art_nodes {
                return Err(CoreError::Limit {
                    message: format!(
                        "abstract reachability exceeded {} nodes",
                        self.config.max_art_nodes
                    ),
                });
            }
            let loc = nodes[id].loc;
            let state = nodes[id].state.clone();
            for &tid in program.outgoing(loc) {
                let t = program.transition(tid);
                let Some(next) =
                    post.post(&state, t, predicates.at(t.to)).map_err(CoreError::from)?
                else {
                    continue;
                };
                let child = ArtNode { loc: t.to, state: next, parent: Some((id, tid)) };
                if child.loc == program.error() {
                    // Reconstruct the abstract counterexample path.
                    let mut steps = vec![tid];
                    let mut cur = id;
                    while let Some((p, ptid)) = nodes[cur].parent {
                        steps.push(ptid);
                        cur = p;
                    }
                    steps.reverse();
                    let path = Path::new(program, steps).map_err(CoreError::from)?;
                    *total_nodes += 1; // the error node itself
                    return Ok(Reach::Counterexample(path));
                }
                // Coverage check: the new node is covered if an existing node
                // at the same location is at least as weak.
                let covered =
                    nodes.iter().any(|n| n.loc == child.loc && child.state.subsumed_by(&n.state));
                if covered {
                    continue;
                }
                nodes.push(child);
                *total_nodes += 1;
                worklist.push_back(nodes.len() - 1);
            }
        }
        // The worklist drained without touching the error location: the
        // per-location disjunction of ART states is a safe inductive
        // invariant map.  Locations with no node (the error location among
        // them) are unreachable and get `false`; the entry's top node
        // renders it `true`.  Pure formula assembly — no solver calls.
        let mut invariants: BTreeMap<Loc, Formula> = BTreeMap::new();
        for loc in program.locs() {
            let disjuncts: Vec<Formula> =
                nodes.iter().filter(|n| n.loc == loc).map(|n| n.state.to_formula()).collect();
            invariants.insert(loc, Formula::or(disjuncts));
        }
        Ok(Reach::Proof(InvariantCert { invariants }))
    }
}

/// The outcome of one abstract reachability phase.
enum Reach {
    /// An abstract path into the error location, to be analysed.
    Counterexample(Path),
    /// The error location is unreachable; the ART read off as a
    /// per-location invariant map is the proof.
    Proof(InvariantCert),
}

struct ArtNode {
    loc: Loc,
    state: AbstractState,
    parent: Option<(usize, TransId)>,
}

/// Converts an elapsed [`Instant`] into milliseconds.
fn ms_since(start: Instant) -> f64 {
    start.elapsed().as_secs_f64() * 1e3
}

/// Fills the run-total counters of `stats` from the substrate snapshot delta
/// and the cache counters of the post operator and feasibility context.
fn finalize_stats(
    mut stats: VerifierStats,
    smt_start: &SmtStats,
    synth_start: &SynthCounters,
    post: PostStats,
    cex: ContextStats,
) -> VerifierStats {
    let delta = stats_snapshot().since(smt_start);
    let synth = synth_stats_snapshot().since(synth_start);
    stats.synth_systems_solved = synth.systems_solved;
    stats.synth_branches_explored = synth.branches_explored;
    stats.synth_branches_pruned = synth.branches_pruned;
    stats.synth_cores_learned = synth.cores_learned;
    stats.synth_memo_hits = synth.memo_hits;
    stats.solver_calls = delta.sat_checks;
    stats.simplex_calls = delta.simplex_calls;
    stats.simplex_warm_checks = delta.simplex_warm_checks;
    stats.interpolant_calls = delta.interpolant_calls;
    stats.smt_queries = post.smt_queries + cex.queries;
    stats.query_cache_hits = post.query_cache_hits + cex.cache_hits;
    stats.post_queries = post.post_queries;
    stats
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathinv_ir::{corpus, parse_program};

    #[test]
    fn forward_is_proved_with_path_invariants() {
        let p = corpus::forward();
        let result = Verifier::path_invariants().verify(&p).unwrap();
        assert!(result.verdict.is_safe(), "FORWARD must be proved: {:?}", result.verdict);
        // A couple of refinements handle the loop-free spurious paths; a
        // single path-invariant refinement then removes every loop unwinding.
        assert!(result.refinements <= 4, "too many refinements: {}", result.refinements);
        assert!(result.predicates > 0);
    }

    #[test]
    fn forward_baseline_diverges() {
        let p = corpus::forward();
        let result = Verifier::path_predicates(4).verify(&p).unwrap();
        match result.verdict {
            Verdict::Unknown { .. } => {}
            other => panic!("the baseline must not settle FORWARD within 4 refinements: {other:?}"),
        }
        assert_eq!(result.refinements, 4);
    }

    #[test]
    fn straight_line_bug_is_found_by_both() {
        let p = parse_program("proc bug(x: int) { x = 1; assert(x == 2); }").unwrap();
        for verifier in [Verifier::path_invariants(), Verifier::path_predicates(3)] {
            let result = verifier.verify(&p).unwrap();
            assert!(result.verdict.is_unsafe(), "{:?}", result.verdict);
        }
    }

    #[test]
    fn straight_line_safe_program_needs_no_refinement_loops() {
        let p = parse_program("proc ok(x: int) { x = 1; assert(x == 1); }").unwrap();
        let result = Verifier::path_invariants().verify(&p).unwrap();
        assert!(result.verdict.is_safe());
    }

    #[test]
    fn simple_counter_is_proved() {
        let p = parse_program(
            "proc count(n: int) {
                var i: int; var s: int;
                assume(n >= 0);
                i = 0; s = 0;
                while (i < n) { s = s + 1; i = i + 1; }
                assert(s == n);
            }",
        )
        .unwrap();
        let result = Verifier::path_invariants().verify(&p).unwrap();
        assert!(result.verdict.is_safe(), "{:?}", result.verdict);
    }

    #[test]
    fn caching_changes_solver_calls_but_nothing_observable() {
        let p = corpus::forward();
        let cached = Verifier::path_invariants().verify(&p).unwrap();
        let uncached = Verifier::new(CegarConfig { caching: false, ..CegarConfig::default() })
            .verify(&p)
            .unwrap();
        // The caches replay deterministic answers, so every observable
        // outcome is identical...
        assert_eq!(cached.verdict.is_safe(), uncached.verdict.is_safe());
        assert_eq!(cached.refinements, uncached.refinements);
        assert_eq!(cached.predicates, uncached.predicates);
        assert_eq!(cached.art_nodes, uncached.art_nodes);
        // ...but the cached run answers a share of its queries from memory.
        assert_eq!(uncached.stats.query_cache_hits, 0);
        assert!(cached.stats.query_cache_hits > 0, "{:?}", cached.stats);
        // FORWARD is linear, so both runs decide their queries on the
        // contexts' live tableaux: the saving shows in simplex checks.
        let checks = |r: &VerificationResult| r.stats.simplex_calls + r.stats.simplex_warm_checks;
        assert!(
            checks(&cached) < checks(&uncached),
            "caching must save simplex checks: {} vs {}",
            checks(&cached),
            checks(&uncached)
        );
        // Phase counters decompose the total (up to calls outside the three
        // phases, of which there are none).
        for r in [&cached, &uncached] {
            assert_eq!(
                r.stats.reach_solver_calls + r.stats.cex_solver_calls + r.stats.refine_solver_calls,
                r.stats.solver_calls,
                "{:?}",
                r.stats
            );
        }
    }

    #[test]
    fn resource_exhaustion_names_the_consuming_phase() {
        // An ART limit of 1 node exhausts during abstract reachability; the
        // Unknown reason must say so instead of reading like a generic
        // solver failure.
        let p = corpus::forward();
        let config = CegarConfig { max_art_nodes: 1, ..CegarConfig::default() };
        let result = Verifier::new(config).verify(&p).unwrap();
        match result.verdict {
            Verdict::Unknown { ref reason } => {
                assert!(
                    reason.contains("abstract reachability (reach) phase"),
                    "reason must name the phase: {reason}"
                );
            }
            other => panic!("expected Unknown, got {other:?}"),
        }
    }

    #[test]
    fn consecutive_synthesis_fallbacks_stop_the_run() {
        // A buggy array loop: synthesis finds no invariant (there is none),
        // so every refinement falls back to finite-path predicates.  With a
        // fallback bound of 1 the engine stops after the first consecutive
        // fallback instead of unrolling towards the counterexample.
        let p = parse_program(
            "proc buggy(a: int[]) {
                var i: int;
                for (i = 0; i < 3; i++) { a[i] = 1; }
                assert(a[0] == 0);
            }",
        )
        .unwrap();
        let config = CegarConfig { max_fallback_refinements: 1, ..CegarConfig::default() };
        let result = Verifier::new(config).verify(&p).unwrap();
        match result.verdict {
            Verdict::Unknown { ref reason } => {
                assert!(
                    reason.contains("invariant synthesis failed on 1 consecutive"),
                    "reason must name the fallback cutoff: {reason}"
                );
            }
            other => panic!("expected Unknown under the fallback bound, got {other:?}"),
        }
        // With the default bound the same program is falsified (the cutoff
        // only fires on *consecutive* fallbacks beyond the bound).
        let result = Verifier::path_invariants().verify(&p).unwrap();
        assert!(result.verdict.is_unsafe(), "{:?}", result.verdict);
    }

    #[test]
    fn buggy_loop_program_is_falsified() {
        // The §6 discussion: a buggy initialisation; the bound is kept small
        // so that the concrete counterexample is short.
        let p = parse_program(
            "proc buggy(a: int[]) {
                var i: int;
                for (i = 0; i < 3; i++) { a[i] = 1; }
                assert(a[0] == 0);
            }",
        )
        .unwrap();
        let result = Verifier::path_invariants().verify(&p).unwrap();
        assert!(result.verdict.is_unsafe(), "{:?}", result.verdict);
    }
}
