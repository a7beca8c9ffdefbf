//! # pathinv-cli — batch corpus verification harness
//!
//! Library half of the `pathinv-cli` binary: it assembles the benchmark
//! task list (every program in [`pathinv_ir::corpus`] plus any `.pinv`
//! source files), runs each (program, engine) pair across a pool of worker
//! threads, and renders the results as a JSON report and a human-readable
//! summary table.
//!
//! Three verification engines are available behind the
//! [`VerificationEngine`](pathinv_core::VerificationEngine) abstraction —
//! CEGAR (with either refiner), bounded model checking, and PDR-lite — and
//! the [`EngineChoice::Portfolio`] selection runs all of them per program,
//! feeding the [`differential`] harness that hard-fails on any cross-engine
//! verdict disagreement.
//!
//! The JSON report doubles as the substrate for golden-result regression
//! testing: `tests/corpus_regression.rs` (in the workspace root package)
//! re-runs the full portfolio over the corpus and diffs the deterministic
//! fields — verdict, refinement count, solver calls, cache hits, and the
//! per-engine exploration counters per task — against the committed
//! `tests/golden/corpus.json`, so a PR that flips a verdict, blows up
//! refinement counts, or regresses solver-call discipline fails tier-1
//! immediately.  The same test re-runs the CEGAR tasks with the caches off
//! and races the corpus, holding both to the golden rows and the portfolio.
//! The only way to regenerate that snapshot is the batch path itself:
//! `pathinv-cli --all --engine portfolio --certify --golden
//! tests/golden/corpus.json`, which writes it only when the run passes.
//!
//! Every conclusive verdict additionally carries a certificate (an
//! inductive invariant map, a bounded-unroll claim, or a concrete trace)
//! whose kind, size, and canonical digest are reported — and pinned by the
//! golden snapshot.  Under `--certify` the independent `pathinv-check`
//! crate audits each certificate and the report gains the audit verdict and
//! check time per task.

#![warn(missing_docs)]

pub mod cache;
pub mod differential;
pub mod fuzz;
pub mod isolate;
pub mod race;
pub mod serve;
pub mod smoke;

use pathinv_core::{is_conclusive, Audit, JobOutcome, RefinerKind, VerifierStats};
use pathinv_ir::{corpus, parse_program, Program};
use std::collections::VecDeque;
use std::sync::Mutex;
use std::time::Instant;

// The report schema lives in `pathinv-report` (shared with the service
// daemon); the engine/job abstraction lives in `pathinv-core` (shared with
// every harness).  Both are re-exported under their historical `pathinv-cli`
// paths so downstream callers and tests are unaffected by the extraction.
pub use pathinv_core::{refiner_name, EngineSpec as TaskEngine, NO_REFINER};
pub use pathinv_report::{engine_rank, json, TaskReport, SCHEMA_VERSION};

use json::Json;

/// One unit of work: a named program verified with one engine.
pub struct BatchTask {
    /// Report name of the program (corpus name or file path).
    pub program_name: String,
    /// The engine (and configuration) to run.
    pub engine: TaskEngine,
    /// The program itself.
    pub program: Program,
    /// Whether to audit the emitted certificate with the independent
    /// checker after the run (`--certify`).  Certificate kind, size, and
    /// digest are reported either way; only the audit itself is gated,
    /// since it costs extra wall-clock.
    pub certify: bool,
    /// Per-task wall-clock deadline in milliseconds (`--timeout-ms`),
    /// enforced through the watchdog + the
    /// [`CancellationToken`](pathinv_core::CancellationToken) path the
    /// service uses; an expired
    /// task reports the honest `"cancelled"` verdict.
    pub timeout_ms: Option<u64>,
}

impl BatchTask {
    /// Switches off the abstract post's incremental layers (the query cache
    /// and the frame-carried literals) on CEGAR tasks: the reference
    /// configuration of the corpus regression's cache-parity run.  A no-op
    /// for BMC, whose context is uncached by design, and for PDR, whose
    /// query cache is integral to obligation retries.
    pub fn disable_cegar_caching(&mut self) {
        if let TaskEngine::Cegar(config) = &mut self.engine {
            config.caching = false;
        }
    }

    /// The [`pathinv_core::JobSpec`] this task executes (engine plus
    /// deadline) — the same spec shape the service daemon runs.
    pub fn job_spec(&self) -> pathinv_core::JobSpec {
        pathinv_core::JobSpec::with_timeout_ms(self.engine.clone(), self.timeout_ms)
    }
}

/// The outcome of a whole batch run.
#[derive(Clone, Debug)]
pub struct BatchReport {
    /// Worker threads used.
    pub jobs: usize,
    /// Per-task results, sorted by (program name, engine, refiner) so the
    /// report is stable regardless of scheduling order.
    pub tasks: Vec<TaskReport>,
    /// End-to-end wall clock for the whole batch, in milliseconds.
    pub wall_ms_total: f64,
}

/// The committed sample program `programs/array_reset_bug.pinv`, embedded so
/// that the corpus (and therefore the golden regression) always exercises
/// it.
pub const ARRAY_RESET_BUG_SRC: &str = include_str!("../../../programs/array_reset_bug.pinv");

/// Minimized fuzzer reproducer for the rational-relaxation bug
/// (`programs/rational_cex_parity.pinv`): integer-safe, but its error path is
/// rationally satisfiable at a half-integral input.
pub const RATIONAL_CEX_PARITY_SRC: &str =
    include_str!("../../../programs/rational_cex_parity.pinv");

/// Loop-free distillation of the same bug
/// (`programs/half_integer_bug.pinv`): `assert(x + x != 1)` only fails at
/// x = 1/2, so every engine must prove it safe or say unknown.
pub const HALF_INTEGER_BUG_SRC: &str = include_str!("../../../programs/half_integer_bug.pinv");

/// Returns every named program in [`pathinv_ir::corpus`] — the paper's
/// hand-built figures plus the parsed suite entries (prefixed `suite/`) —
/// and the committed `.pinv` samples (prefixed `pinv/`).
pub fn corpus_programs() -> Vec<(String, Program)> {
    let mut programs: Vec<(String, Program)> = vec![
        ("FORWARD".to_string(), corpus::forward()),
        ("INITCHECK".to_string(), corpus::initcheck()),
        ("PARTITION".to_string(), corpus::partition()),
        ("BUGGY_INITCHECK".to_string(), corpus::buggy_initcheck()),
        ("FIGURE4".to_string(), corpus::figure4_program()),
    ];
    for (entry, program) in corpus::suite_programs() {
        programs.push((format!("suite/{}", entry.name), program));
    }
    for (name, src) in [
        ("array_reset_bug", ARRAY_RESET_BUG_SRC),
        ("rational_cex_parity", RATIONAL_CEX_PARITY_SRC),
        ("half_integer_bug", HALF_INTEGER_BUG_SRC),
    ] {
        programs.push((
            format!("pinv/{name}"),
            parse_program(src).unwrap_or_else(|e| {
                panic!("committed sample programs/{name}.pinv must parse: {e}")
            }),
        ));
    }
    programs
}

/// Returns a 16-program *source-level* corpus for harnesses that ship
/// program text over a wire instead of in-process [`Program`] values — the
/// serve protocol and its smoke harness.  Three of the paper's figures have
/// committed front-end sources, the suite and `.pinv` samples are already
/// textual, and two tiny demo programs (one safe, one unsafe) round the set
/// out so both cold-cache verdict kinds appear even in quick runs.
pub fn corpus_sources() -> Vec<(String, String)> {
    let mut sources: Vec<(String, String)> = vec![
        ("FORWARD".to_string(), corpus::forward_src().to_string()),
        ("INITCHECK".to_string(), corpus::initcheck_src().to_string()),
        ("PARTITION".to_string(), corpus::partition_src().to_string()),
    ];
    for entry in corpus::suite() {
        sources.push((format!("suite/{}", entry.name), entry.src.to_string()));
    }
    for (name, src) in [
        ("array_reset_bug", ARRAY_RESET_BUG_SRC),
        ("rational_cex_parity", RATIONAL_CEX_PARITY_SRC),
        ("half_integer_bug", HALF_INTEGER_BUG_SRC),
    ] {
        sources.push((format!("pinv/{name}"), src.to_string()));
    }
    sources.push((
        "demo/assign_safe".to_string(),
        "proc assign_safe(x: int) { x = 3; assert(x == 3); }".to_string(),
    ));
    sources.push((
        "demo/assign_bug".to_string(),
        "proc assign_bug(x: int) { x = 3; assert(x == 4); }".to_string(),
    ));
    sources
}

/// Parses one `.pinv` source file into a named program.
///
/// # Errors
///
/// Returns a human-readable message when the file cannot be read or parsed.
pub fn load_pinv_file(path: &str) -> Result<(String, Program), String> {
    let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let program = parse_program(&src).map_err(|e| format!("{path}: parse error: {e}"))?;
    Ok((path.to_string(), program))
}

/// Which refiners the CEGAR tasks of a batch run exercise.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum RefinerChoice {
    /// Only the paper's path-invariant refiner.
    PathInvariants,
    /// Only the finite-path baseline.
    PathPredicates,
    /// Both, as separate tasks per program.
    Both,
}

impl RefinerChoice {
    /// The refiner kinds this choice expands to.
    pub fn kinds(self) -> Vec<RefinerKind> {
        match self {
            RefinerChoice::PathInvariants => vec![RefinerKind::PathInvariants],
            RefinerChoice::PathPredicates => vec![RefinerKind::PathPredicates],
            RefinerChoice::Both => {
                vec![RefinerKind::PathInvariants, RefinerKind::PathPredicates]
            }
        }
    }
}

/// Which engines a batch run exercises.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EngineChoice {
    /// Only the CEGAR driver (refiners per [`RefinerChoice`]).
    Cegar,
    /// Only the bounded model checker.
    Bmc,
    /// Only the PDR-lite frame engine.
    Pdr,
    /// Every engine, as separate tasks per program; enables the
    /// [`differential`] cross-checking section of the report.
    Portfolio,
}

impl EngineChoice {
    /// Whether this choice runs more than one engine (and therefore feeds
    /// the differential harness).
    pub fn is_portfolio(self) -> bool {
        self == EngineChoice::Portfolio
    }
}

/// Expands named programs into per-engine [`BatchTask`]s.
///
/// Every engine runs its [`TaskEngine::named`] default configuration; CEGAR
/// tasks are expanded per `refiners`, and `max_refinements`, when set,
/// overrides their refinement bound.
pub fn make_tasks(
    programs: Vec<(String, Program)>,
    engines: EngineChoice,
    refiners: RefinerChoice,
    max_refinements: Option<usize>,
) -> Vec<BatchTask> {
    let mut names: Vec<(&str, Option<&str>)> = Vec::new();
    if matches!(engines, EngineChoice::Cegar | EngineChoice::Portfolio) {
        names.extend(refiners.kinds().into_iter().map(|kind| ("cegar", Some(refiner_name(kind)))));
    }
    if matches!(engines, EngineChoice::Bmc | EngineChoice::Portfolio) {
        names.push(("bmc", None));
    }
    if matches!(engines, EngineChoice::Pdr | EngineChoice::Portfolio) {
        names.push(("pdr", None));
    }
    let task_engines: Vec<TaskEngine> = names
        .into_iter()
        .map(|(engine, refiner)| {
            let mut spec = TaskEngine::named(engine, refiner).expect("a built-in engine name");
            if let (TaskEngine::Cegar(config), Some(bound)) = (&mut spec, max_refinements) {
                config.max_refinements = bound;
            }
            spec
        })
        .collect();
    let mut tasks = Vec::new();
    for (name, program) in programs {
        for engine in &task_engines {
            tasks.push(BatchTask {
                program_name: name.clone(),
                engine: engine.clone(),
                program: program.clone(),
                certify: false,
                timeout_ms: None,
            });
        }
    }
    tasks
}

fn run_task(task: &BatchTask) -> TaskReport {
    run_task_with_cancel(task, &pathinv_core::CancellationToken::new())
}

/// Runs one task under `token`, reporting a cancelled run honestly as the
/// `"cancelled"` verdict (the racing harness cancels losing lanes, the
/// deadline watchdog cancels `--timeout-ms` overruns; a default batch run
/// passes a fresh token and sets no deadline, so it never sees either).
///
/// Execution — panic isolation, deadline enforcement, verdict mapping — is
/// [`pathinv_core::run_job`], the same path the service daemon uses; this
/// wrapper only adds the certificate audit and the report projection.
pub(crate) fn run_task_with_cancel(
    task: &BatchTask,
    token: &pathinv_core::CancellationToken,
) -> TaskReport {
    let outcome = pathinv_core::run_job(&task.job_spec(), &task.program, token);
    let mut report = TaskReport::from_outcome(task.program_name.clone(), &task.engine, &outcome);
    if task.certify {
        record_audit(&mut report, &task.program, &outcome);
    }
    report
}

/// Fills a report's audit fields from [`pathinv_core::audit`], in the batch
/// and race vocabulary: no certificate is `vacuous` on an inconclusive
/// verdict and `missing` on a conclusive one, a certificate the verdict
/// cannot carry is `invalid` without running the checker, and otherwise the
/// checker's verdict, reason, and time are recorded.
fn record_audit(report: &mut TaskReport, program: &Program, outcome: &JobOutcome) {
    let verdict = &outcome.verdict;
    let (cert_verdict, reason, check_ms) = match pathinv_core::audit(program, outcome) {
        Audit::NoCertificate if is_conclusive(verdict) => {
            ("missing", "conclusive verdict without a certificate".to_string(), 0.0)
        }
        Audit::NoCertificate => ("vacuous", String::new(), 0.0),
        Audit::Mismatch { kind } => {
            ("invalid", format!("a {kind} certificate cannot back a {verdict} verdict"), 0.0)
        }
        Audit::Checked(v, ms) => (v.name(), v.reason().unwrap_or_default().to_string(), ms),
    };
    report.cert_verdict = cert_verdict.to_string();
    report.cert_reason = reason;
    report.cert_check_ms = check_ms;
}

/// Every reason a batch or race run fails, one line each: a safe-vs-unsafe
/// conflict between engines on one program (the
/// [`differential`] rule), an errored task, and a failed certificate audit
/// ([`audit_failures`]).  The CLI exits 1 when the list is non-empty.
pub fn failures<'a>(tasks: impl IntoIterator<Item = &'a TaskReport> + Clone) -> Vec<String> {
    let diff = differential::DifferentialReport::from_tasks(tasks.clone());
    let disagreements =
        diff.disagreements().into_iter().map(|d| format!("verdict disagreement: {d}"));
    disagreements.chain(diff.errors()).chain(audit_failures(tasks)).collect()
}

/// The audited tasks whose certificate audit failed — `invalid`, `missing`,
/// or `unsupported` — rendered one per line.  Tasks run without `--certify`
/// carry no audit verdict and never appear.
pub fn audit_failures<'a>(tasks: impl IntoIterator<Item = &'a TaskReport>) -> Vec<String> {
    tasks
        .into_iter()
        .filter(|t| matches!(t.cert_verdict.as_str(), "invalid" | "missing" | "unsupported"))
        .map(|t| {
            format!(
                "{}: {} verdict {} has certificate audit {}: {}",
                t.program_name,
                t.engine_label(),
                t.verdict,
                t.cert_verdict,
                t.cert_reason
            )
        })
        .collect()
}

/// Runs every task across `jobs` worker threads and collects a report.
///
/// Tasks are pulled from a shared queue, so long-running programs do not
/// serialize the rest of the batch behind them. Results are re-sorted by
/// (program, engine rank, refiner) to keep the report independent of
/// scheduling.
pub fn run_batch(tasks: Vec<BatchTask>, jobs: usize) -> BatchReport {
    let jobs = jobs.max(1).min(tasks.len().max(1));
    let start = Instant::now();
    let queue: Mutex<VecDeque<BatchTask>> = Mutex::new(tasks.into());
    let results: Mutex<Vec<TaskReport>> = Mutex::new(Vec::new());
    std::thread::scope(|scope| {
        for _ in 0..jobs {
            scope.spawn(|| loop {
                let Some(task) = queue.lock().expect("task queue poisoned").pop_front() else {
                    break;
                };
                let report = run_task(&task);
                results.lock().expect("result sink poisoned").push(report);
            });
        }
    });
    let mut tasks = results.into_inner().expect("result sink poisoned");
    tasks.sort_by(|a, b| {
        (a.program_name.as_str(), engine_rank(&a.engine, &a.refiner), a.refiner.as_str()).cmp(&(
            b.program_name.as_str(),
            engine_rank(&b.engine, &b.refiner),
            b.refiner.as_str(),
        ))
    });
    BatchReport { jobs, tasks, wall_ms_total: start.elapsed().as_secs_f64() * 1e3 }
}

use pathinv_report::{format_ms, round3};

fn count_verdicts(tasks: &[TaskReport], verdict: &str) -> i64 {
    tasks.iter().filter(|t| t.verdict == verdict).count() as i64
}

fn count_cert_verdicts(tasks: &[TaskReport], cert_verdict: &str) -> i64 {
    tasks.iter().filter(|t| t.cert_verdict == cert_verdict).count() as i64
}

impl BatchReport {
    /// The full JSON rendering of this report.  Portfolio runs append the
    /// differential section separately (see
    /// [`differential::DifferentialReport::to_json`]).
    pub fn to_json(&self) -> Json {
        Json::object(vec![
            ("schema_version", Json::Int(SCHEMA_VERSION)),
            ("jobs", Json::Int(self.jobs as i64)),
            ("tasks", Json::Array(self.tasks.iter().map(TaskReport::to_json).collect())),
            (
                "summary",
                Json::object(vec![
                    ("total", Json::Int(self.tasks.len() as i64)),
                    ("safe", Json::Int(count_verdicts(&self.tasks, "safe"))),
                    ("unsafe", Json::Int(count_verdicts(&self.tasks, "unsafe"))),
                    ("unknown", Json::Int(count_verdicts(&self.tasks, "unknown"))),
                    ("error", Json::Int(count_verdicts(&self.tasks, "error"))),
                    ("wall_ms_total", Json::Float(round3(self.wall_ms_total))),
                    // Certificate audit tallies; all zero unless `--certify`
                    // populated the per-task cert_verdict fields.
                    (
                        "certificates",
                        Json::object(vec![
                            ("valid", Json::Int(count_cert_verdicts(&self.tasks, "valid"))),
                            ("invalid", Json::Int(count_cert_verdicts(&self.tasks, "invalid"))),
                            (
                                "unsupported",
                                Json::Int(count_cert_verdicts(&self.tasks, "unsupported")),
                            ),
                            ("vacuous", Json::Int(count_cert_verdicts(&self.tasks, "vacuous"))),
                            ("missing", Json::Int(count_cert_verdicts(&self.tasks, "missing"))),
                        ]),
                    ),
                ]),
            ),
        ])
    }

    /// The golden snapshot rendering: only the fields that are deterministic
    /// across runs and machines (no wall-clock times, no free-form details).
    pub fn to_golden_json(&self) -> Json {
        Json::object(vec![
            ("schema_version", Json::Int(SCHEMA_VERSION)),
            (
                "tasks",
                Json::Array(self.tasks.iter().map(TaskReport::to_golden_task_json).collect()),
            ),
        ])
    }

    /// Sum of a per-task counter over the whole batch.
    pub fn total(&self, field: impl Fn(&VerifierStats) -> u64) -> u64 {
        self.tasks.iter().map(|t| field(&t.stats)).sum()
    }

    /// A human-readable fixed-width summary table.
    pub fn render_table(&self) -> String {
        let name_width = self
            .tasks
            .iter()
            .map(|t| t.program_name.len())
            .chain(std::iter::once("program".len()))
            .max()
            .unwrap_or(8);
        let engine_width = self
            .tasks
            .iter()
            .map(|t| t.engine_label().len())
            .chain(std::iter::once("engine".len()))
            .max()
            .unwrap_or(6);
        let rule = name_width + engine_width + 69;
        let mut out = String::new();
        out.push_str(&format!(
            "{:<name_width$}  {:<engine_width$}  {:<8}  {:>7}  {:>6}  {:>9}  {:>8}  {:>5}  {:>10}\n",
            "program", "engine", "verdict", "refines", "preds", "ART nodes", "solver", "hit%", "wall",
        ));
        out.push_str(&format!("{}\n", "-".repeat(rule)));
        for t in &self.tasks {
            out.push_str(&format!(
                "{:<name_width$}  {:<engine_width$}  {:<8}  {:>7}  {:>6}  {:>9}  {:>8}  {:>5.1}  {:>10}\n",
                t.program_name,
                t.engine_label(),
                t.verdict,
                t.refinements,
                t.predicates,
                t.art_nodes,
                t.stats.solver_calls,
                t.stats.query_hit_rate() * 100.0,
                format_ms(t.wall_ms),
            ));
        }
        out.push_str(&format!("{}\n", "-".repeat(rule)));
        out.push_str(&format!(
            "{} tasks on {} workers in {}: {} safe, {} unsafe, {} unknown, {} errors; \
             {} solver calls, {} cache hits\n",
            self.tasks.len(),
            self.jobs,
            format_ms(self.wall_ms_total),
            count_verdicts(&self.tasks, "safe"),
            count_verdicts(&self.tasks, "unsafe"),
            count_verdicts(&self.tasks, "unknown"),
            count_verdicts(&self.tasks, "error"),
            self.total(|s| s.solver_calls),
            self.total(|s| s.query_cache_hits),
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn corpus_has_the_paper_programs_and_the_suite() {
        let names: Vec<String> = corpus_programs().into_iter().map(|(n, _)| n).collect();
        for expected in ["FORWARD", "INITCHECK", "PARTITION", "BUGGY_INITCHECK", "FIGURE4"] {
            assert!(names.contains(&expected.to_string()), "missing {expected}");
        }
        assert!(names.iter().filter(|n| n.starts_with("suite/")).count() >= 8);
        for sample in ["array_reset_bug", "rational_cex_parity", "half_integer_bug"] {
            assert!(
                names.contains(&format!("pinv/{sample}")),
                "the committed sample program {sample} must be part of the corpus"
            );
        }
    }

    #[test]
    fn embedded_samples_match_the_committed_files() {
        // `include_str!` guarantees this at compile time; the assertions
        // document the invariant for readers.
        assert!(ARRAY_RESET_BUG_SRC.contains("proc array_reset_bug"));
        assert!(RATIONAL_CEX_PARITY_SRC.contains("proc rational_cex_parity"));
        assert!(HALF_INTEGER_BUG_SRC.contains("proc half_integer_bug"));
    }

    #[test]
    fn make_tasks_expands_cegar_refiners() {
        let programs = vec![("FIGURE4".to_string(), corpus::figure4_program())];
        let tasks = make_tasks(programs, EngineChoice::Cegar, RefinerChoice::Both, None);
        assert_eq!(tasks.len(), 2);
        let TaskEngine::Cegar(c0) = &tasks[0].engine else { panic!("cegar expected") };
        let TaskEngine::Cegar(c1) = &tasks[1].engine else { panic!("cegar expected") };
        assert_eq!(c0.max_refinements, 40);
        assert_eq!(c1.max_refinements, pathinv_core::DEFAULT_BASELINE_REFINEMENTS);
    }

    #[test]
    fn make_tasks_portfolio_runs_every_engine() {
        let programs = vec![("FIGURE4".to_string(), corpus::figure4_program())];
        let tasks = make_tasks(programs, EngineChoice::Portfolio, RefinerChoice::Both, None);
        let labels: Vec<&str> = tasks.iter().map(|t| t.engine.engine_name()).collect();
        assert_eq!(labels, ["cegar", "cegar", "bmc", "pdr"]);
    }

    #[test]
    fn run_batch_is_order_independent_and_counts_match() {
        let programs = vec![
            ("FIGURE4".to_string(), corpus::figure4_program()),
            (
                "suite/lockstep".to_string(),
                parse_program(corpus::suite().iter().find(|e| e.name == "lockstep").unwrap().src)
                    .unwrap(),
            ),
        ];
        let report =
            run_batch(make_tasks(programs, EngineChoice::Cegar, RefinerChoice::Both, None), 4);
        assert_eq!(report.tasks.len(), 4);
        let names: Vec<&str> = report.tasks.iter().map(|t| t.program_name.as_str()).collect();
        let mut sorted = names.clone();
        sorted.sort();
        assert_eq!(names, sorted, "report must be sorted by program name");
        let json = report.to_json();
        assert_eq!(json.get("schema_version").and_then(Json::as_int), Some(SCHEMA_VERSION));
        assert_eq!(json.get("tasks").and_then(Json::as_array).map(<[Json]>::len), Some(4));
    }

    #[test]
    fn figure4_is_unsafe_under_every_engine() {
        let programs = vec![("FIGURE4".to_string(), corpus::figure4_program())];
        let report =
            run_batch(make_tasks(programs, EngineChoice::Portfolio, RefinerChoice::Both, None), 2);
        assert_eq!(report.tasks.len(), 4);
        for t in &report.tasks {
            assert_eq!(t.verdict, "unsafe", "{}: {}", t.engine_label(), t.detail);
        }
    }

    #[test]
    fn a_certificate_on_an_unknown_verdict_fails_the_audit() {
        // An inconclusive verdict claims nothing, so a trace certificate
        // riding on it is `invalid` without a checker run (the trace itself
        // would check), and it fails a batch run and a race alike.
        let program = parse_program("proc bug(x: int) { x = 1; assert(x == 2); }").unwrap();
        let engine = TaskEngine::named("bmc", None).unwrap();
        let spec = pathinv_core::JobSpec::new(engine.clone());
        let outcome =
            pathinv_core::run_job(&spec, &program, &pathinv_core::CancellationToken::new());
        assert_eq!(outcome.verdict, "unsafe");
        let unknown = JobOutcome { verdict: "unknown".to_string(), ..outcome };
        let mut report = TaskReport::from_outcome("bug".to_string(), &engine, &unknown);
        record_audit(&mut report, &program, &unknown);
        assert_eq!(report.cert_verdict, "invalid", "{}", report.cert_reason);
        assert_eq!(report.cert_check_ms, 0.0, "the checker never ran");
        assert_eq!(failures([&report]).len(), 1);
        let race = race::RaceReport {
            jobs: 1,
            wall_ms_total: 0.0,
            programs: vec![race::RaceProgram {
                program: "bug".to_string(),
                winner: "-".to_string(),
                verdict: "unknown".to_string(),
                wall_ms: 0.0,
                lanes: vec![report],
            }],
        };
        assert_eq!(race.certificate_failures().len(), 1);
    }

    #[test]
    fn engine_rank_orders_cegar_first() {
        assert!(engine_rank("cegar", "path-invariants") < engine_rank("cegar", "path-predicates"));
        assert!(engine_rank("cegar", "path-predicates") < engine_rank("bmc", NO_REFINER));
        assert!(engine_rank("bmc", NO_REFINER) < engine_rank("pdr", NO_REFINER));
    }
}
