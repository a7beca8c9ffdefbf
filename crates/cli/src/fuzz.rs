//! Differential fuzzing harness: the `pathinv-cli fuzz` subcommand.
//!
//! Drives the seeded scenario generator
//! ([`pathinv_bench::generator`]) at scale and cross-checks every generated
//! program three ways:
//!
//! 1. **engine vs engine** — all four portfolio engines run on every
//!    program; a safe-vs-unsafe split is a hard failure;
//! 2. **verifier vs concrete interpreter** — engine verdicts are compared
//!    against the generator's oracle-certified expectation, and every
//!    engine counterexample is validated end-to-end: its path formula must
//!    be satisfiable *over the integers*, and the integral model must
//!    replay concretely into the error location under
//!    [`pathinv_ir::exec::replay`];
//! 3. **cached vs uncached** — a sample of programs re-runs the CEGAR
//!    engine with the abstract post's incremental layers (the query cache
//!    and the frame carry) disabled and compares observable outcomes.
//!    Both sides decide their queries on the same live tableau of the
//!    solver context, so this checks those layers, not the warm path;
//!    the warm path is held to the stateless solver by the context's
//!    property tests (`crates/smt/tests/context.rs`).
//!
//! Every disagreement is a [`Finding`].  Findings are shrunk with the
//! vendored proptest greedy minimizer: the scenario is shrunk while the
//! same finding kind still reproduces, and the minimized `.pinv` source is
//! written out as a reproducer.  The whole run is a pure function of
//! `(seed, count)` — worker threads only parallelize independent checks,
//! results are re-sorted by draw index, and the JSON report carries no
//! wall-clock times — so a campaign is byte-identical across `--jobs`
//! values, machines, and reruns.

use crate::cache::fnv64;
use crate::differential::DifferentialReport;
use crate::json::Json;
use crate::{make_tasks, BatchTask, EngineChoice, RefinerChoice, TaskReport};
use pathinv_bench::generator::{
    generate_campaign, realize, Expected, GeneratedProgram, Realized, Scenario,
};
use pathinv_check::{decode_model, Certificate};
use pathinv_core::{audit, is_conclusive, run_job, Audit, CancellationToken, JobOutcome};
use pathinv_ir::exec::replay;
use pathinv_ir::{path_formula, Path};
use pathinv_smt::{IntSatResult, Solver};
use proptest::shrink::minimize;
use std::collections::VecDeque;
use std::sync::Mutex;

/// Node budget for the branch-and-bound integrality check run on every
/// engine counterexample.  Generated programs have short error paths over
/// few variables, so this is generous.
const INTEGRALITY_NODES: usize = 4096;

/// Candidate scenarios the shrinker tests per finding.
const SHRINK_BUDGET: usize = 48;

/// Options for one fuzzing campaign.
#[derive(Clone, Debug)]
pub struct FuzzOptions {
    /// RNG seed; the campaign is a pure function of `(seed, count)`.
    pub seed: u64,
    /// Number of certified programs to generate and check.
    pub count: usize,
    /// Worker threads for the per-program checks (never affects output).
    pub jobs: usize,
    /// How many programs (from the front of the draw order) also get the
    /// cached-vs-uncached parity check.
    pub cache_sample: usize,
    /// Audit every engine certificate with the independent checker: a
    /// conclusive verdict without a valid certificate becomes a finding.
    pub certify: bool,
    /// Per-engine-run wall-clock deadline (`--timeout-ms`), enforced by the
    /// watchdog through each run's [`CancellationToken`].  A run that
    /// exceeds it returns the honest `cancelled` — a no-opinion outcome that
    /// can never produce (or mask) a finding.
    pub timeout_ms: Option<u64>,
}

impl Default for FuzzOptions {
    fn default() -> Self {
        FuzzOptions {
            seed: 0,
            count: 200,
            jobs: 1,
            cache_sample: 10,
            certify: false,
            timeout_ms: None,
        }
    }
}

/// The classified disagreement kinds, in report order.
#[derive(Clone, Copy, Debug, PartialEq, Eq, PartialOrd, Ord)]
pub enum FindingKind {
    /// The generator contradicted itself (unparseable output or a
    /// constructed-safe scenario that is concretely unsafe).
    GeneratorDefect,
    /// An engine returned `Err` or panicked on a generated-valid program.
    EngineError,
    /// Two engines returned opposite definite verdicts (safe vs unsafe).
    EngineDisagreement,
    /// An engine reported unsafe on an oracle-certified safe program.
    ExpectedSafeViolated,
    /// An engine reported safe on a program with a replayable error trace.
    ExpectedUnsafeViolated,
    /// An engine counterexample whose path formula has no integral model.
    CexIntegrallyInfeasible,
    /// The integrality check on a counterexample ran out of budget.
    CexIntegralityUnknown,
    /// An integral counterexample model that does not replay concretely
    /// into the error location.
    CexReplayDiverged,
    /// A generator-constructed witness failed to replay (oracle defect).
    WitnessReplayFailed,
    /// Cached and uncached CEGAR runs disagree on the verdict.
    CacheParity,
    /// A conclusive verdict without a certificate (`--certify` only).
    CertificateMissing,
    /// A certificate the independent checker rejected, or one attached to
    /// an inconclusive verdict (`--certify` only).
    CertificateRejected,
}

impl FindingKind {
    /// The kebab-case report label.
    pub fn label(self) -> &'static str {
        match self {
            FindingKind::GeneratorDefect => "generator-defect",
            FindingKind::EngineError => "engine-error",
            FindingKind::EngineDisagreement => "engine-disagreement",
            FindingKind::ExpectedSafeViolated => "expected-safe-violated",
            FindingKind::ExpectedUnsafeViolated => "expected-unsafe-violated",
            FindingKind::CexIntegrallyInfeasible => "cex-integrally-infeasible",
            FindingKind::CexIntegralityUnknown => "cex-integrality-unknown",
            FindingKind::CexReplayDiverged => "cex-replay-diverged",
            FindingKind::WitnessReplayFailed => "witness-replay-failed",
            FindingKind::CacheParity => "cache-parity",
            FindingKind::CertificateMissing => "certificate-missing",
            FindingKind::CertificateRejected => "certificate-rejected",
        }
    }
}

/// One cross-check disagreement.
#[derive(Clone, Debug)]
pub struct Finding {
    /// Draw index of the program the finding was first observed on.
    pub index: usize,
    /// The disagreement class.
    pub kind: FindingKind,
    /// Name of the (possibly shrunk) program exhibiting the finding.
    pub program: String,
    /// Generator family label, or `"-"` for findings without a scenario.
    pub family: String,
    /// The engine label involved, or `"-"`.
    pub engine: String,
    /// Human-readable elaboration.
    pub detail: String,
    /// The scenario behind the program, when the finding is shrinkable.
    pub scenario: Option<Scenario>,
    /// `.pinv` source of the exhibiting program (shrunk when `shrunk`).
    pub source: String,
    /// Whether greedy shrinking ran to a fixed point on this finding.
    pub shrunk: bool,
}

/// The full campaign report.
#[derive(Clone, Debug)]
pub struct FuzzReport {
    /// The seed the campaign ran under.
    pub seed: u64,
    /// The requested program count.
    pub count: usize,
    /// Programs actually generated and checked.
    pub generated: usize,
    /// Oracle-certified safe programs among them.
    pub expected_safe: usize,
    /// Oracle-certified unsafe programs among them.
    pub expected_unsafe: usize,
    /// Scenarios skipped because the concrete oracle ran out of budget.
    pub discarded: usize,
    /// Engine runs performed (4 per program, plus cache-parity reruns).
    pub engine_runs: usize,
    /// Engine counterexamples validated through the integral replay chain.
    pub cexes_validated: usize,
    /// Programs that also ran the cached-vs-uncached parity check.
    pub cache_checked: usize,
    /// Engine certificates audited by the independent checker (`--certify`
    /// runs only; one audit per engine verdict, conclusive or not).
    pub certs_audited: usize,
    /// FNV-1a 64 over every portfolio run's (program draw index, engine
    /// label, verdict, audit verdict), in program order, so two reports
    /// with equal counts but different per-run outcomes still differ.
    pub outcomes_digest: u64,
    /// All disagreements, shrunk where possible, in deterministic order.
    pub findings: Vec<Finding>,
}

/// Runs one engine on `program` through the shared job path.  Without a
/// deadline no engine may return `cancelled`, so that outcome is rewritten
/// to an engine error: it can never masquerade as the no-opinion verdict.
fn run_engine(task: &BatchTask) -> JobOutcome {
    let mut outcome = run_job(&task.job_spec(), &task.program, &CancellationToken::new());
    if outcome.verdict == "cancelled" && task.timeout_ms.is_none() {
        outcome.verdict = "error".to_string();
        outcome.detail = "cancelled without a token".to_string();
    }
    outcome
}

/// Validates one engine counterexample end-to-end: integral satisfiability
/// of the path formula, then concrete replay of the integral model.
fn validate_cex(p: &GeneratedProgram, label: &str, path: &Path, findings: &mut Vec<Finding>) {
    let pf = path_formula(&p.program, path);
    let solver = Solver::new();
    let model = match solver.check_integral(&pf.conjunction(), INTEGRALITY_NODES) {
        Ok(IntSatResult::Sat(model)) => model,
        Ok(IntSatResult::Unsat) => {
            findings.push(p.finding(
                FindingKind::CexIntegrallyInfeasible,
                label,
                format!(
                    "{label} reported a {}-step counterexample whose path formula has no \
                     integral model (rational-only feasibility)",
                    path.len()
                ),
            ));
            return;
        }
        Ok(IntSatResult::Unknown) => {
            findings.push(p.finding(
                FindingKind::CexIntegralityUnknown,
                label,
                format!(
                    "integrality check on the {}-step counterexample of {label} exhausted \
                     its {INTEGRALITY_NODES}-node budget",
                    path.len()
                ),
            ));
            return;
        }
        Err(e) => {
            findings.push(p.finding(
                FindingKind::CexIntegralityUnknown,
                label,
                format!("integrality check on the counterexample of {label} failed: {e}"),
            ));
            return;
        }
    };
    // Decode the model through the same SSA convention every engine's trace
    // certificate uses (inputs at version 0, havoc results at the version
    // each havoc transition bumps its variable to) — one decoder, shared
    // with `pathinv_check`, so fuzzing exercises the exact artifact the
    // certificate checker replays.
    let trace = decode_model(&p.program, path, &pf, &model);
    let outcome = replay(&p.program, &trace.steps, &trace.inputs, &trace.havocs);
    if !outcome.reaches_error() {
        findings.push(p.finding(
            FindingKind::CexReplayDiverged,
            label,
            format!(
                "the integral model of the {}-step counterexample of {label} does not \
                 replay concretely: {outcome:?}",
                path.len()
            ),
        ));
    }
}

/// Builds a [`Finding`] anchored to a generated program.
trait ProgramFinding {
    fn finding(&self, kind: FindingKind, engine: &str, detail: String) -> Finding;
}

impl ProgramFinding for GeneratedProgram {
    fn finding(&self, kind: FindingKind, engine: &str, detail: String) -> Finding {
        Finding {
            index: self.index,
            kind,
            program: self.name.clone(),
            family: self.scenario.family.label().to_string(),
            engine: engine.to_string(),
            detail,
            scenario: Some(self.scenario.clone()),
            source: self.source.clone(),
            shrunk: false,
        }
    }
}

/// Statistics from checking one program.
#[derive(Default)]
struct CheckCounts {
    engine_runs: usize,
    cexes_validated: usize,
    cache_checked: usize,
    certs_audited: usize,
    /// One line per portfolio run: draw index, engine label, verdict,
    /// audit verdict (`-` without `--certify`).
    outcomes: String,
}

/// Renders [`pathinv_core::audit`] in the fuzz report's vocabulary
/// (`--certify` only): `none` without a certificate, `mismatch` for a
/// certificate the verdict cannot carry, else the checker's verdict.  A
/// conclusive verdict without a certificate, a mismatch, and a certificate
/// the checker does not validate are findings.
fn audit_run(
    p: &GeneratedProgram,
    label: &str,
    o: &JobOutcome,
    findings: &mut Vec<Finding>,
) -> &'static str {
    let verdict = &o.verdict;
    match audit(&p.program, o) {
        Audit::NoCertificate => {
            if is_conclusive(verdict) {
                findings.push(p.finding(
                    FindingKind::CertificateMissing,
                    label,
                    format!("{label} concluded {verdict} without emitting a certificate"),
                ));
            }
            "none"
        }
        Audit::Mismatch { kind } => {
            findings.push(p.finding(
                FindingKind::CertificateRejected,
                label,
                format!("{label} attached a {kind} certificate to a {verdict} verdict"),
            ));
            "mismatch"
        }
        Audit::Checked(v, _) => {
            if !v.is_valid() {
                findings.push(p.finding(
                    FindingKind::CertificateRejected,
                    label,
                    format!(
                        "the independent checker rejected the certificate of {label} ({}): {}",
                        v.name(),
                        v.reason().unwrap_or_default()
                    ),
                ));
            }
            v.name()
        }
    }
}

/// Runs the full three-way cross-check on one generated program.
fn check_program(
    p: &GeneratedProgram,
    check_cache: bool,
    certify: bool,
    timeout_ms: Option<u64>,
) -> (Vec<Finding>, CheckCounts) {
    let mut findings = Vec::new();
    let mut counts = CheckCounts::default();

    // A constructed witness that does not replay is an oracle defect worth
    // reporting before any engine runs.
    if let Expected::Unsafe(w) = &p.expected {
        let outcome = replay(&p.program, &w.steps, &w.inputs, &w.havocs);
        if !outcome.reaches_error() {
            findings.push(p.finding(
                FindingKind::WitnessReplayFailed,
                "-",
                format!("the generator's construction witness does not replay: {outcome:?}"),
            ));
        }
    }

    let program = vec![(p.name.clone(), p.program.clone())];
    let mut lanes = make_tasks(program, EngineChoice::Portfolio, RefinerChoice::Both, None);
    let runs: Vec<(TaskReport, JobOutcome)> = lanes
        .iter_mut()
        .map(|lane| {
            counts.engine_runs += 1;
            lane.timeout_ms = timeout_ms;
            let outcome = run_engine(lane);
            (TaskReport::from_outcome(p.name.clone(), &lane.engine, &outcome), outcome)
        })
        .collect();
    let verdicts: Vec<(String, &JobOutcome)> =
        runs.iter().map(|(report, o)| (report.engine_label(), o)).collect();

    for (label, o) in &verdicts {
        let audit = if certify {
            counts.certs_audited += 1;
            audit_run(p, label, o, &mut findings)
        } else {
            "-"
        };
        counts.outcomes.push_str(&format!("{} {label} {} {audit}\n", p.index, o.verdict));
    }

    for (label, o) in &verdicts {
        match o.verdict.as_str() {
            "error" => {
                findings.push(p.finding(
                    FindingKind::EngineError,
                    label,
                    format!("engine failed on a generated-valid program: {}", o.detail),
                ));
            }
            "unsafe" => {
                // Every engine attaches its counterexample as a trace
                // certificate; its steps are the path the verdict claims.
                let Some(Certificate::Trace(trace)) = &o.certificate else {
                    findings.push(p.finding(
                        FindingKind::EngineError,
                        label,
                        format!("{label} reported unsafe without a counterexample trace"),
                    ));
                    continue;
                };
                let path = Path::new_unchecked(trace.steps.clone());
                counts.cexes_validated += 1;
                validate_cex(p, label, &path, &mut findings);
                if p.expected == Expected::Safe {
                    findings.push(p.finding(
                        FindingKind::ExpectedSafeViolated,
                        label,
                        format!(
                            "{label} reported unsafe on an oracle-certified safe program \
                             ({}-step counterexample claimed)",
                            path.len()
                        ),
                    ));
                }
            }
            "safe" => {
                if let Expected::Unsafe(w) = &p.expected {
                    findings.push(p.finding(
                        FindingKind::ExpectedUnsafeViolated,
                        label,
                        format!(
                            "{label} reported safe but a concrete witness of {} steps \
                             replays into the error location",
                            w.steps.len()
                        ),
                    ));
                }
            }
            _ => {}
        }
    }

    // Engine-vs-engine: the differential harness's conflict rule.
    let diff = DifferentialReport::from_tasks(runs.iter().map(|(report, _)| report));
    if let Some((safe, unsafe_)) = diff.programs[0].conflict() {
        let (sl, ul) = (safe.label(), unsafe_.label());
        findings.push(p.finding(
            FindingKind::EngineDisagreement,
            &format!("{sl} vs {ul}"),
            format!("{sl} proved the program safe while {ul} reported unsafe"),
        ));
    }

    if check_cache {
        counts.cache_checked = 1;
        counts.engine_runs += 1;
        let cached = &verdicts[0].1.verdict;
        let uncached = &mut lanes[0];
        uncached.disable_cegar_caching();
        let uncached = run_engine(uncached).verdict;
        // A deadline firing on one side but not the other says nothing about
        // cache parity — cancelled is no-opinion on both sides.
        let either_cancelled = cached == "cancelled" || uncached == "cancelled";
        if !either_cancelled && *cached != uncached {
            findings.push(p.finding(
                FindingKind::CacheParity,
                "cegar/path-invariants",
                format!("cached and uncached runs disagree: {cached} vs {uncached}"),
            ));
        }
    }

    (findings, counts)
}

/// Whether realizing `scenario` still reproduces a finding of `kind`.
fn still_fails(scenario: &Scenario, index: usize, kind: FindingKind, check_cache: bool) -> bool {
    match realize(scenario, index) {
        Realized::Kept(p) => {
            // Shrinking replays without a deadline: cancellation is timing-
            // dependent and never itself a finding, so reproduction must not
            // hinge on whether the watchdog happens to fire.
            let (findings, _) = check_program(&p, check_cache, certify_for(kind), None);
            findings.iter().any(|f| f.kind == kind)
        }
        Realized::Defect(_) => kind == FindingKind::GeneratorDefect,
        Realized::Discarded(_) => false,
    }
}

/// Whether reproducing a finding of `kind` requires the certificate audit.
fn certify_for(kind: FindingKind) -> bool {
    matches!(kind, FindingKind::CertificateMissing | FindingKind::CertificateRejected)
}

/// Shrinks each distinct `(kind, family, engine)` finding to a minimal
/// scenario; duplicates of an already-shrunk group are dropped.
fn shrink_findings(findings: Vec<Finding>) -> Vec<Finding> {
    let mut out: Vec<Finding> = Vec::new();
    let mut seen: Vec<(FindingKind, String, String)> = Vec::new();
    for finding in findings {
        let group = (finding.kind, finding.family.clone(), finding.engine.clone());
        if seen.contains(&group) {
            continue;
        }
        seen.push(group);
        let Some(scenario) = finding.scenario.clone() else {
            out.push(finding);
            continue;
        };
        let index = finding.index;
        let kind = finding.kind;
        let check_cache = kind == FindingKind::CacheParity;
        let (min, stats) =
            minimize(scenario, |s| still_fails(s, index, kind, check_cache), SHRINK_BUDGET);
        let mut shrunk = finding;
        shrunk.shrunk = !stats.budget_exhausted;
        if let Realized::Kept(p) = realize(&min, index) {
            let (replayed, _) = check_program(&p, check_cache, certify_for(kind), None);
            let engine = shrunk.engine.clone();
            if let Some(f) = replayed
                .iter()
                .find(|f| f.kind == kind && f.engine == engine)
                .or_else(|| replayed.iter().find(|f| f.kind == kind))
            {
                shrunk = Finding { index, shrunk: shrunk.shrunk, ..f.clone() };
            }
        }
        shrunk.scenario = Some(min);
        out.push(shrunk);
    }
    out
}

/// Runs a full campaign: generate, cross-check in parallel, shrink.
///
/// Deterministic in `(seed, count, cache_sample)`: `jobs`
/// only changes scheduling, never the report.
pub fn run_fuzz(opts: &FuzzOptions) -> FuzzReport {
    let campaign = generate_campaign(opts.seed, opts.count);
    let mut findings: Vec<Finding> = campaign
        .defects
        .iter()
        .map(|detail| Finding {
            index: 0,
            kind: FindingKind::GeneratorDefect,
            program: "-".to_string(),
            family: "-".to_string(),
            engine: "-".to_string(),
            detail: detail.clone(),
            scenario: None,
            source: String::new(),
            shrunk: false,
        })
        .collect();

    let expected_safe = campaign.programs.iter().filter(|p| p.expected == Expected::Safe).count();
    let mut report = FuzzReport {
        seed: opts.seed,
        count: opts.count,
        generated: campaign.programs.len(),
        expected_safe,
        expected_unsafe: campaign.programs.len() - expected_safe,
        discarded: campaign.discarded.len(),
        engine_runs: 0,
        cexes_validated: 0,
        cache_checked: 0,
        certs_audited: 0,
        outcomes_digest: 0,
        findings: Vec::new(),
    };

    let cache_cutoff = opts.cache_sample.min(campaign.programs.len());
    let queue: Mutex<VecDeque<(usize, &GeneratedProgram)>> =
        Mutex::new(campaign.programs.iter().enumerate().collect());
    let results: Mutex<Vec<(usize, Vec<Finding>, CheckCounts)>> = Mutex::new(Vec::new());
    let jobs = opts.jobs.max(1).min(campaign.programs.len().max(1));
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let Some((pos, p)) = queue.lock().expect("fuzz queue poisoned").pop_front() else {
                    break;
                };
                let (found, counts) =
                    check_program(p, pos < cache_cutoff, opts.certify, opts.timeout_ms);
                results.lock().expect("fuzz sink poisoned").push((pos, found, counts));
            });
        }
    });
    let mut results = results.into_inner().expect("fuzz sink poisoned");
    results.sort_by_key(|(pos, _, _)| *pos);
    let mut outcomes = String::new();
    for (_, found, counts) in results {
        findings.extend(found);
        report.engine_runs += counts.engine_runs;
        report.cexes_validated += counts.cexes_validated;
        report.cache_checked += counts.cache_checked;
        report.certs_audited += counts.certs_audited;
        outcomes.push_str(&counts.outcomes);
    }
    report.outcomes_digest = fnv64(outcomes.as_bytes());
    findings.sort_by(|a, b| {
        (a.index, a.kind, a.engine.as_str()).cmp(&(b.index, b.kind, b.engine.as_str()))
    });
    report.findings = shrink_findings(findings);
    report
}

impl Finding {
    /// The JSON rendering of one finding (no wall times, fully
    /// deterministic).
    pub fn to_json(&self) -> Json {
        Json::object(vec![
            ("kind", Json::Str(self.kind.label().to_string())),
            ("program", Json::Str(self.program.clone())),
            ("family", Json::Str(self.family.clone())),
            ("engine", Json::Str(self.engine.clone())),
            ("detail", Json::Str(self.detail.clone())),
            ("shrunk", Json::Bool(self.shrunk)),
            ("source", Json::Str(self.source.clone())),
        ])
    }

    /// A stable file name for the reproducer of this finding.
    pub fn reproducer_name(&self) -> String {
        let engine: String =
            self.engine.chars().map(|c| if c.is_ascii_alphanumeric() { c } else { '_' }).collect();
        format!("{}_{}_{engine}.pinv", self.kind.label().replace('-', "_"), self.family)
    }
}

impl FuzzReport {
    /// The deterministic JSON rendering of the whole campaign.
    pub fn to_json(&self) -> Json {
        Json::object(vec![
            ("schema_version", Json::Int(crate::SCHEMA_VERSION)),
            ("seed", Json::Int(self.seed as i64)),
            ("count", Json::Int(self.count as i64)),
            ("generated", Json::Int(self.generated as i64)),
            ("expected_safe", Json::Int(self.expected_safe as i64)),
            ("expected_unsafe", Json::Int(self.expected_unsafe as i64)),
            ("discarded", Json::Int(self.discarded as i64)),
            ("engine_runs", Json::Int(self.engine_runs as i64)),
            ("cexes_validated", Json::Int(self.cexes_validated as i64)),
            ("cache_checked", Json::Int(self.cache_checked as i64)),
            ("certs_audited", Json::Int(self.certs_audited as i64)),
            ("outcomes_digest", Json::Str(format!("{:016x}", self.outcomes_digest))),
            ("findings", Json::Array(self.findings.iter().map(Finding::to_json).collect())),
        ])
    }

    /// A short human-readable summary.
    pub fn render_summary(&self) -> String {
        let mut out = format!(
            "fuzz: seed {} generated {} programs ({} safe, {} unsafe, {} discarded); \
             {} engine runs, {} counterexamples validated, {} cache-parity checks, \
             {} certificates audited\n",
            self.seed,
            self.generated,
            self.expected_safe,
            self.expected_unsafe,
            self.discarded,
            self.engine_runs,
            self.cexes_validated,
            self.cache_checked,
            self.certs_audited,
        );
        if self.findings.is_empty() {
            out.push_str("fuzz: no disagreements\n");
        } else {
            out.push_str(&format!("fuzz: {} finding(s):\n", self.findings.len()));
            for f in &self.findings {
                out.push_str(&format!(
                    "  [{}] {} ({}, {}): {}\n",
                    f.kind.label(),
                    f.program,
                    f.family,
                    f.engine,
                    f.detail
                ));
            }
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn finding_kinds_have_distinct_labels() {
        let kinds = [
            FindingKind::GeneratorDefect,
            FindingKind::EngineError,
            FindingKind::EngineDisagreement,
            FindingKind::ExpectedSafeViolated,
            FindingKind::ExpectedUnsafeViolated,
            FindingKind::CexIntegrallyInfeasible,
            FindingKind::CexIntegralityUnknown,
            FindingKind::CexReplayDiverged,
            FindingKind::WitnessReplayFailed,
            FindingKind::CacheParity,
            FindingKind::CertificateMissing,
            FindingKind::CertificateRejected,
        ];
        let mut labels: Vec<&str> = kinds.iter().map(|k| k.label()).collect();
        labels.sort_unstable();
        labels.dedup();
        assert_eq!(labels.len(), kinds.len());
    }

    #[test]
    fn small_campaign_is_deterministic_across_jobs() {
        let base = FuzzOptions { seed: 11, count: 8, cache_sample: 2, ..FuzzOptions::default() };
        let a = run_fuzz(&FuzzOptions { jobs: 1, ..base.clone() });
        let b = run_fuzz(&FuzzOptions { jobs: 3, ..base });
        assert_eq!(a.to_json().pretty(), b.to_json().pretty());
    }

    #[test]
    fn certified_campaign_audits_every_engine_verdict() {
        let opts = FuzzOptions {
            seed: 7,
            count: 6,
            cache_sample: 0,
            certify: true,
            ..FuzzOptions::default()
        };
        let report = run_fuzz(&opts);
        // One audit per portfolio engine per generated program.
        assert_eq!(report.certs_audited, report.generated * 4);
        assert_ne!(report.outcomes_digest, fnv64(b""), "every run's outcome is hashed");
        let cert_findings: Vec<&Finding> =
            report.findings.iter().filter(|f| certify_for(f.kind)).collect();
        assert!(cert_findings.is_empty(), "{cert_findings:?}");
    }
}
