//! # pathinv-report — the one report schema every harness emits
//!
//! Four harnesses produce verification reports — the batch runner, the
//! racing portfolio, the differential fuzzer, and the verification service —
//! and they must all spell them identically: one verdict vocabulary, one
//! per-task record layout, one schema version.  This crate is that single
//! source of truth, extracted from `pathinv-cli` so the service daemon (and
//! any future harness) can emit the format without linking the whole CLI:
//!
//! * [`json`] — the dependency-free JSON value type with a pretty printer
//!   (reports, goldens), a compact single-line serializer (the service's
//!   wire protocol, the verdict-cache journal), and a parser.
//! * [`TaskReport`] — the outcome of one (program, engine) job with its
//!   full and golden JSON projections.
//! * [`SCHEMA_VERSION`] — stamped into every report; bumped on breaking
//!   layout changes so golden snapshots are regenerated deliberately.
//! * [`engine_rank`] — the deterministic engine column ordering.

#![warn(missing_docs)]

pub mod json;

use json::Json;
use pathinv_core::{EngineSpec, JobOutcome, VerifierStats};

// One refiner-column vocabulary across harnesses: defined next to the
// engines in `pathinv-core`, re-exported here so report consumers need not
// know which crate owns it.
pub use pathinv_core::{refiner_name, NO_REFINER};

/// Schema version stamped into every report, bumped on breaking changes to
/// the report layout.  Version 2 added the solver-call and cache counters;
/// version 3 added the engine dimension (the `engine` field, the
/// `engine_depth`/`engine_nodes`/`engine_lemmas` counters, and the
/// differential section of portfolio reports); version 4 split the simplex
/// accounting into cold solves (`simplex_calls`) and warm incremental
/// re-checks (`simplex_warm_checks`), added per-phase simplex counters, and
/// pinned `simplex_calls`/`interpolant_calls` in the golden projections;
/// version 5 added the invariant-synthesis counters
/// (`synth_systems_solved`, `synth_branches_explored`,
/// `synth_branches_pruned`, `synth_cores_learned`, `synth_memo_hits`) and
/// pinned them in the golden projections; version 6 added the racing
/// harness (`--race`): `cancelled` joined the verdict vocabulary, and race
/// reports (per-program winner plus per-lane time-to-first-verdict) appear
/// in `--race --json` output and in the `race` section of trajectory
/// points — never in golden projections, whose fields are unchanged;
/// version 7 added checkable certificates: every conclusive verdict reports
/// its certificate's kind, size, and canonical digest (`cert_kind`,
/// `cert_size`, `cert_digest` — the digest is pinned by golden
/// projections), and `--certify` audits each certificate through the
/// independent `pathinv-check` crate, adding `cert_verdict`,
/// `cert_reason`, and `cert_check_ms`; version 8 moved the schema into the
/// `pathinv-report` crate shared by batch, race, fuzz, and the new
/// verification service (`pathinv-cli serve`), whose result lines carry
/// task records in this same layout plus service envelope fields
/// (`id`, `status`, `cached`) — and `--timeout-ms` made `cancelled`
/// reachable in plain batch reports (an expired deadline), not only races;
/// version 9 added the service supervision layer: `quarantined` joined the
/// service status vocabulary (a per-engine circuit breaker fast-failing
/// while open), `{"op":"stats"}` grew `cache`/`jobs`/`breakers` sections,
/// and the fault-injection engines `abort-shim`, `memhog-shim`, and
/// `flaky-shim` joined the engine vocabulary for chaos testing — batch and
/// golden task layouts are unchanged.  Within version 9, `solver_calls`
/// narrowed to cold combined-solver checks once the solver context decided
/// linear queries on its live tableau (those count as
/// `simplex_warm_checks`); the layout is unchanged.  Version 10 removed
/// the abstract-post memo: `post_cache_hits` left the batch and golden task
/// layouts, and the cubes it answered now count as `query_cache_hits`.
pub const SCHEMA_VERSION: i64 = 10;

/// The deterministic ordering of engine columns in reports and in the
/// differential combination: CEGAR first (path invariants before the
/// baseline), then BMC, then PDR-lite; fault-injection shims and anything
/// unknown sort last.
pub fn engine_rank(engine: &str, refiner: &str) -> usize {
    match (engine, refiner) {
        ("cegar", "path-invariants") => 0,
        ("cegar", _) => 1,
        ("bmc", _) => 2,
        ("pdr", _) => 3,
        _ => 4,
    }
}

/// The outcome of one job: a named program verified with one engine.
#[derive(Clone, Debug, PartialEq)]
pub struct TaskReport {
    /// Report name of the program.
    pub program_name: String,
    /// `"cegar"`, `"bmc"`, `"pdr"`, or a fault-injection shim name.
    pub engine: String,
    /// `"path-invariants"`, `"path-predicates"`, or [`NO_REFINER`] for
    /// engines without a refiner dimension.
    pub refiner: String,
    /// `"safe"`, `"unsafe"`, `"unknown"`, `"cancelled"`, or `"error"`.
    pub verdict: String,
    /// Free-form elaboration: counterexample length, give-up reason, the
    /// deadline that expired, or the error message.  Not compared by the
    /// regression test.
    pub detail: String,
    /// Refinement iterations performed (CEGAR only; 0 otherwise).
    pub refinements: usize,
    /// Predicates tracked at the end (CEGAR) or invariant lemmas of a PDR
    /// proof; 0 for errored tasks.
    pub predicates: usize,
    /// Total ART nodes constructed (CEGAR only; 0 otherwise).
    pub art_nodes: usize,
    /// Wall-clock time for this task, in milliseconds.
    pub wall_ms: f64,
    /// Certificate kind (`"inductive"`, `"bounded-unroll"`, `"trace"`), or
    /// empty when the verdict is inconclusive and carries no certificate.
    pub cert_kind: String,
    /// Certificate size measure (atoms / depth / trace length); 0 when no
    /// certificate.
    pub cert_size: usize,
    /// Stable digest of the certificate's canonical rendering (16 hex
    /// digits), pinned by golden projections; empty when no certificate.
    pub cert_digest: String,
    /// Audit verdict under `--certify`: `"valid"`, `"invalid"`,
    /// `"unsupported"`, or `"vacuous"` (no certificate because the verdict
    /// claims nothing).  Empty when the audit was not requested.
    pub cert_verdict: String,
    /// The failing obligation or budget of a non-valid audit; empty
    /// otherwise.
    pub cert_reason: String,
    /// Wall-clock the independent checker spent on this certificate, in
    /// milliseconds (0 when the audit was not requested).
    pub cert_check_ms: f64,
    /// Solver-call, cache, and engine-exploration statistics (all-zero for
    /// errored tasks).
    pub stats: VerifierStats,
}

impl TaskReport {
    /// Builds the report record from a [`JobOutcome`] — the shared path by
    /// which every harness turns an engine run into report rows.  The
    /// certificate audit fields are left empty; harnesses that audit
    /// (`--certify`) fill `cert_verdict`/`cert_reason`/`cert_check_ms`
    /// afterwards.
    pub fn from_outcome(program_name: String, engine: &EngineSpec, outcome: &JobOutcome) -> Self {
        let (cert_kind, cert_size, cert_digest) = match &outcome.certificate {
            Some(cert) => (cert.kind().to_string(), cert.size(), cert.digest()),
            None => (String::new(), 0, String::new()),
        };
        TaskReport {
            program_name,
            engine: engine.engine_name().to_string(),
            refiner: engine.refiner_name().to_string(),
            verdict: outcome.verdict.clone(),
            detail: outcome.detail.clone(),
            refinements: outcome.refinements,
            predicates: outcome.predicates,
            art_nodes: outcome.art_nodes,
            wall_ms: outcome.wall_ms,
            cert_kind,
            cert_size,
            cert_digest,
            cert_verdict: String::new(),
            cert_reason: String::new(),
            cert_check_ms: 0.0,
            stats: outcome.stats,
        }
    }

    /// The column label combining engine and refiner (`"cegar/path-
    /// invariants"`, `"bmc"`, ...), used by the differential harness and the
    /// summary table.
    pub fn engine_label(&self) -> String {
        if self.refiner == NO_REFINER {
            self.engine.clone()
        } else {
            format!("{}/{}", self.engine, self.refiner)
        }
    }

    /// The full JSON rendering of this task.
    pub fn to_json(&self) -> Json {
        let s = &self.stats;
        Json::object(vec![
            ("program", Json::Str(self.program_name.clone())),
            ("engine", Json::Str(self.engine.clone())),
            ("refiner", Json::Str(self.refiner.clone())),
            ("verdict", Json::Str(self.verdict.clone())),
            ("detail", Json::Str(self.detail.clone())),
            ("refinements", Json::Int(self.refinements as i64)),
            ("predicates", Json::Int(self.predicates as i64)),
            ("art_nodes", Json::Int(self.art_nodes as i64)),
            ("wall_ms", Json::Float(round3(self.wall_ms))),
            ("solver_calls", Json::Int(s.solver_calls as i64)),
            ("simplex_calls", Json::Int(s.simplex_calls as i64)),
            ("simplex_warm_checks", Json::Int(s.simplex_warm_checks as i64)),
            ("interpolant_calls", Json::Int(s.interpolant_calls as i64)),
            ("smt_queries", Json::Int(s.smt_queries as i64)),
            ("query_cache_hits", Json::Int(s.query_cache_hits as i64)),
            ("post_queries", Json::Int(s.post_queries as i64)),
            ("query_hit_rate", Json::Float(round3(s.query_hit_rate()))),
            ("engine_depth", Json::Int(s.engine_depth as i64)),
            ("engine_nodes", Json::Int(s.engine_nodes as i64)),
            ("engine_lemmas", Json::Int(s.engine_lemmas as i64)),
            ("cert_kind", Json::Str(self.cert_kind.clone())),
            ("cert_size", Json::Int(self.cert_size as i64)),
            ("cert_digest", Json::Str(self.cert_digest.clone())),
            ("cert_verdict", Json::Str(self.cert_verdict.clone())),
            ("cert_reason", Json::Str(self.cert_reason.clone())),
            ("cert_check_ms", Json::Float(round3(self.cert_check_ms))),
            ("synth_systems_solved", Json::Int(s.synth_systems_solved as i64)),
            ("synth_branches_explored", Json::Int(s.synth_branches_explored as i64)),
            ("synth_branches_pruned", Json::Int(s.synth_branches_pruned as i64)),
            ("synth_cores_learned", Json::Int(s.synth_cores_learned as i64)),
            ("synth_memo_hits", Json::Int(s.synth_memo_hits as i64)),
            (
                "phases",
                Json::object(vec![
                    ("reach_solver_calls", Json::Int(s.reach_solver_calls as i64)),
                    ("cex_solver_calls", Json::Int(s.cex_solver_calls as i64)),
                    ("refine_solver_calls", Json::Int(s.refine_solver_calls as i64)),
                    ("reach_simplex_calls", Json::Int(s.reach_simplex_calls as i64)),
                    ("cex_simplex_calls", Json::Int(s.cex_simplex_calls as i64)),
                    ("refine_simplex_calls", Json::Int(s.refine_simplex_calls as i64)),
                    ("reach_ms", Json::Float(round3(s.reach_ms))),
                    ("cex_ms", Json::Float(round3(s.cex_ms))),
                    ("refine_ms", Json::Float(round3(s.refine_ms))),
                ]),
            ),
        ])
    }

    /// The golden (regression-compared) JSON rendering: only fields that are
    /// deterministic across runs, machines, and worker counts.
    pub fn to_golden_task_json(&self) -> Json {
        Json::object(vec![
            ("program", Json::Str(self.program_name.clone())),
            ("engine", Json::Str(self.engine.clone())),
            ("refiner", Json::Str(self.refiner.clone())),
            ("verdict", Json::Str(self.verdict.clone())),
            ("refinements", Json::Int(self.refinements as i64)),
            ("predicates", Json::Int(self.predicates as i64)),
            ("art_nodes", Json::Int(self.art_nodes as i64)),
            ("solver_calls", Json::Int(self.stats.solver_calls as i64)),
            ("simplex_calls", Json::Int(self.stats.simplex_calls as i64)),
            ("simplex_warm_checks", Json::Int(self.stats.simplex_warm_checks as i64)),
            ("interpolant_calls", Json::Int(self.stats.interpolant_calls as i64)),
            ("query_cache_hits", Json::Int(self.stats.query_cache_hits as i64)),
            ("engine_depth", Json::Int(self.stats.engine_depth as i64)),
            ("engine_nodes", Json::Int(self.stats.engine_nodes as i64)),
            ("engine_lemmas", Json::Int(self.stats.engine_lemmas as i64)),
            ("cert_kind", Json::Str(self.cert_kind.clone())),
            ("cert_size", Json::Int(self.cert_size as i64)),
            ("cert_digest", Json::Str(self.cert_digest.clone())),
            ("refine_simplex_calls", Json::Int(self.stats.refine_simplex_calls as i64)),
            ("synth_systems_solved", Json::Int(self.stats.synth_systems_solved as i64)),
            ("synth_branches_explored", Json::Int(self.stats.synth_branches_explored as i64)),
            ("synth_branches_pruned", Json::Int(self.stats.synth_branches_pruned as i64)),
            ("synth_cores_learned", Json::Int(self.stats.synth_cores_learned as i64)),
            ("synth_memo_hits", Json::Int(self.stats.synth_memo_hits as i64)),
        ])
    }
}

/// Rounds to three decimal places, the precision every report emits
/// wall-clock and rate fields at.
pub fn round3(x: f64) -> f64 {
    (x * 1e3).round() / 1e3
}

/// Renders milliseconds for humans: seconds above one second.
pub fn format_ms(ms: f64) -> String {
    if ms >= 1000.0 {
        format!("{:.2} s", ms / 1000.0)
    } else {
        format!("{ms:.1} ms")
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathinv_core::{run_job, CancellationToken, CegarConfig, JobSpec};
    use pathinv_ir::parse_program;

    #[test]
    fn engine_rank_orders_cegar_first_and_shims_last() {
        assert!(engine_rank("cegar", "path-invariants") < engine_rank("cegar", "path-predicates"));
        assert!(engine_rank("cegar", "path-predicates") < engine_rank("bmc", NO_REFINER));
        assert!(engine_rank("bmc", NO_REFINER) < engine_rank("pdr", NO_REFINER));
        assert_eq!(engine_rank("panic-shim", NO_REFINER), 4);
    }

    #[test]
    fn from_outcome_projects_the_job_and_leaves_audit_empty() {
        let program = parse_program("proc ok(x: int) { x = 1; assert(x == 1); }").unwrap();
        let engine = EngineSpec::Cegar(CegarConfig::path_invariants());
        let outcome = run_job(&JobSpec::new(engine.clone()), &program, &CancellationToken::new());
        let report = TaskReport::from_outcome("demo".to_string(), &engine, &outcome);
        assert_eq!(report.verdict, "safe");
        assert_eq!(report.engine_label(), "cegar/path-invariants");
        assert_eq!(report.cert_kind, "inductive");
        assert_eq!(report.cert_digest.len(), 16);
        assert!(report.cert_verdict.is_empty(), "audit fields are filled by the harness");
        let golden = report.to_golden_task_json();
        assert_eq!(golden.get("verdict").and_then(Json::as_str), Some("safe"));
        assert!(golden.get("wall_ms").is_none(), "goldens carry no wall-clock");
    }
}
