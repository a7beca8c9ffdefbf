//! Engine jobs: the fault-isolated unit of work every harness shares.
//!
//! The batch runner, the racing portfolio, the differential fuzzer, and the
//! verification service all execute the same thing — *one engine on one
//! program* — and they all need the same robustness guarantees around it:
//!
//! * **Panic isolation.**  An engine that panics must report an `"error"`
//!   outcome, never kill the worker thread (a dead worker silently shrinks
//!   the pool; in the service it would kill the daemon).  [`run_job`] wraps
//!   the engine call in [`std::panic::catch_unwind`].
//! * **Deadlines.**  A job with a [`JobSpec::timeout`] registers its token
//!   with the process-wide watchdog
//!   ([`pathinv_smt::enforce_deadline`]); an overdue run yields the honest
//!   `"cancelled"` verdict with [`JobOutcome::deadline_expired`] set, so
//!   harnesses can tell "overdue" apart from "lost the race".
//! * **Verdict honesty.**  The outcome verdict is the report spelling
//!   (`"safe"`, `"unsafe"`, `"unknown"`, `"cancelled"`, `"error"`), mapped
//!   exactly as the soundness contract demands (DESIGN.md §8) — resource
//!   exhaustion and panics never masquerade as conclusive verdicts.
//!
//! [`EngineSpec`] names the engine (plus configuration) a job runs.  Beyond
//! the three real engines it provides five *fault-injection shims* —
//! [`EngineSpec::PanicShim`], [`EngineSpec::SpinShim`],
//! [`EngineSpec::AbortShim`], [`EngineSpec::MemHogShim`], and
//! [`EngineSpec::FlakyShim`] — deliberately hostile engines the robustness
//! test suites (and the service's `serve-smoke` CI job) use
//! to prove that panic isolation, process isolation, deadline enforcement,
//! and circuit breaking work in the real binary, not just in unit tests.
//!
//! [`EngineSpec::named`] is the one engine vocabulary: the batch task
//! expansion, the service protocol, and the process-isolation child all
//! resolve `"cegar"`/`"bmc"`/`"pdr"` (and the shims) through it.  [`audit`]
//! is the one certificate audit: batch, race, and the fuzzer each render
//! its [`Audit`] in their own report vocabulary, but none decides on its
//! own whether a certificate may back a verdict.
//!
//! [`job_fingerprint`] is the persistent-cache key: a stable digest of the
//! interned program structure and the engine configuration.  In-process the
//! structure is identified by PR 4's interning tables (the CFG locations,
//! the [`FormulaId`] of every transition relation); because raw intern ids
//! depend on interning order and are *not* stable across process restarts,
//! the on-disk key is an FNV-1a digest of the canonical rendering of that
//! same structure, which is stable across runs, machines, and interning
//! orders.

use crate::bmc::{BmcConfig, BmcEngine};
use crate::cegar::{
    CegarConfig, RefinerKind, Verdict, VerificationResult, Verifier, VerifierStats,
};
use crate::engine::VerificationEngine;
use crate::error::CoreResult;
use crate::pdr::{PdrConfig, PdrEngine};
use crate::predabs::PredicateMap;
use pathinv_check::{check_certificate, CertVerdict, Certificate, CheckLimits};
use pathinv_ir::{FormulaId, Program, SeqId, Term, TermId};
use pathinv_smt::{enforce_deadline, CancellationToken};
use std::fmt::Write as _;
use std::time::{Duration, Instant};

/// The refiner column value for engines that have no refiner dimension
/// (everything except CEGAR).
pub const NO_REFINER: &str = "-";

/// Default refinement bound for the finite-path baseline, which is expected
/// to diverge on the interesting programs; a modest bound keeps batch runs
/// fast while still distinguishing "settled quickly" from "gave up".
pub const DEFAULT_BASELINE_REFINEMENTS: usize = 6;

/// Renders a [`RefinerKind`] the way reports spell it.
pub fn refiner_name(kind: RefinerKind) -> &'static str {
    match kind {
        RefinerKind::PathInvariants => "path-invariants",
        RefinerKind::PathPredicates => "path-predicates",
    }
}

/// The engine (with configuration) one job runs.
///
/// The three real engines carry their configurations; the shims are fault
/// injectors for the robustness suites (a panicking engine, a divergent
/// engine that only a cancellation stops, an aborting engine, a memory hog,
/// and a deterministically flaky engine), available in the real binary so
/// integration tests can drive them through the service protocol.
#[derive(Clone, Debug)]
pub enum EngineSpec {
    /// The CEGAR driver with the configured refiner.
    Cegar(CegarConfig),
    /// The bounded model checker.
    Bmc(BmcConfig),
    /// The PDR-lite frame engine.
    Pdr(PdrConfig),
    /// Fault-injection shim: panics as soon as it is asked to verify
    /// anything.  Proves panic isolation end to end.
    PanicShim,
    /// Fault-injection shim: spins until its token is cancelled (the
    /// divergence the paper's lazy refinement can exhibit, distilled).
    /// Proves deadline enforcement and shutdown draining end to end.
    SpinShim,
    /// Fault-injection shim: calls [`std::process::abort`] — a hard fault
    /// `catch_unwind` can never absorb.  Only survivable under process
    /// isolation (`serve --isolate process`), which is exactly what it
    /// exists to prove.  **Running it in-thread kills the host process.**
    AbortShim,
    /// Fault-injection shim: allocates (and touches) a bounded amount of
    /// memory, then diverges until cancelled — the OOM-shaped failure mode,
    /// distilled to something CI can afford.  Under a deadline it is
    /// cancelled in-thread; under process isolation the child is killed.
    MemHogShim,
    /// Fault-injection shim with *deterministic, program-selected* faults:
    /// panics iff the program declares two or more variables, reports
    /// `unknown` otherwise.  Stateless, so tests can drive one engine name
    /// through the full circuit-breaker cycle (fault it open with a
    /// multi-variable program, close it again with a single-variable probe)
    /// without any cross-test shared state.
    FlakyShim,
}

impl EngineSpec {
    /// Resolves an engine name (and, for CEGAR, a refiner name; `None`
    /// means path invariants) to its default configuration — the
    /// configuration batch mode, the service protocol, and the fuzzer run.
    /// Other engines ignore the refiner.
    ///
    /// # Errors
    ///
    /// Names the unknown engine or refiner.
    pub fn named(engine: &str, refiner: Option<&str>) -> Result<EngineSpec, String> {
        Ok(match (engine, refiner) {
            ("cegar", None | Some("path-invariants")) => {
                EngineSpec::Cegar(CegarConfig::path_invariants())
            }
            ("cegar", Some("path-predicates")) => {
                EngineSpec::Cegar(CegarConfig::path_predicates(DEFAULT_BASELINE_REFINEMENTS))
            }
            ("cegar", Some(other)) => return Err(format!("unknown refiner `{other}`")),
            ("bmc", _) => EngineSpec::Bmc(BmcConfig::default()),
            ("pdr", _) => EngineSpec::Pdr(PdrConfig::default()),
            ("panic-shim", _) => EngineSpec::PanicShim,
            ("spin-shim", _) => EngineSpec::SpinShim,
            ("abort-shim", _) => EngineSpec::AbortShim,
            ("memhog-shim", _) => EngineSpec::MemHogShim,
            ("flaky-shim", _) => EngineSpec::FlakyShim,
            (other, _) => return Err(format!("unknown engine `{other}`")),
        })
    }

    /// The engine's report name (`"cegar"`, `"bmc"`, `"pdr"`,
    /// `"panic-shim"`, `"spin-shim"`, `"abort-shim"`, `"memhog-shim"`,
    /// `"flaky-shim"`).
    pub fn engine_name(&self) -> &'static str {
        match self {
            EngineSpec::Cegar(_) => "cegar",
            EngineSpec::Bmc(_) => "bmc",
            EngineSpec::Pdr(_) => "pdr",
            EngineSpec::PanicShim => "panic-shim",
            EngineSpec::SpinShim => "spin-shim",
            EngineSpec::AbortShim => "abort-shim",
            EngineSpec::MemHogShim => "memhog-shim",
            EngineSpec::FlakyShim => "flaky-shim",
        }
    }

    /// The refiner column for reports: the CEGAR refiner name, or
    /// [`NO_REFINER`] for engines without a refiner dimension.
    pub fn refiner_name(&self) -> &'static str {
        match self {
            EngineSpec::Cegar(config) => refiner_name(config.refiner),
            _ => NO_REFINER,
        }
    }

    /// Builds the runnable engine.
    pub fn build(&self) -> Box<dyn VerificationEngine> {
        match self {
            EngineSpec::Cegar(config) => Box::new(Verifier::new(config.clone())),
            EngineSpec::Bmc(config) => Box::new(BmcEngine::new(*config)),
            EngineSpec::Pdr(config) => Box::new(PdrEngine::new(*config)),
            EngineSpec::PanicShim => Box::new(PanicEngine),
            EngineSpec::SpinShim => Box::new(SpinEngine),
            EngineSpec::AbortShim => Box::new(AbortEngine),
            EngineSpec::MemHogShim => Box::new(MemHogEngine),
            EngineSpec::FlakyShim => Box::new(FlakyEngine),
        }
    }

    /// Whether this spec is a fault-injection shim rather than a real
    /// engine.  Shim outcomes are timing- or fault-dependent, so they are
    /// never admitted to the verdict cache.
    pub fn is_shim(&self) -> bool {
        matches!(
            self,
            EngineSpec::PanicShim
                | EngineSpec::SpinShim
                | EngineSpec::AbortShim
                | EngineSpec::MemHogShim
                | EngineSpec::FlakyShim
        )
    }

    /// The configuration fingerprint line folded into [`job_fingerprint`]:
    /// every field that can change a verdict or a deterministic counter.
    /// Deliberately excluded: `caching` (caching replays the deterministic
    /// solver's answers), documented verdict-invariant on [`CegarConfig`].
    fn config_fingerprint(&self) -> String {
        match self {
            EngineSpec::Cegar(c) => format!(
                "refiner={} max_refinements={} max_fallback_refinements={} max_art_nodes={}",
                refiner_name(c.refiner),
                c.max_refinements,
                c.max_fallback_refinements,
                c.max_art_nodes
            ),
            EngineSpec::Bmc(c) => {
                format!("max_depth={} max_checks={}", c.max_depth, c.max_checks)
            }
            EngineSpec::Pdr(c) => format!(
                "max_frames={} max_obligations={} max_queries={}",
                c.max_frames, c.max_obligations, c.max_queries
            ),
            EngineSpec::PanicShim
            | EngineSpec::SpinShim
            | EngineSpec::AbortShim
            | EngineSpec::MemHogShim
            | EngineSpec::FlakyShim => "shim".to_string(),
        }
    }
}

/// A fault-injection engine that panics immediately (see
/// [`EngineSpec::PanicShim`]).
struct PanicEngine;

impl VerificationEngine for PanicEngine {
    fn name(&self) -> &'static str {
        "panic-shim"
    }

    fn verify_with_cancel(
        &self,
        _program: &Program,
        _token: &CancellationToken,
    ) -> CoreResult<VerificationResult> {
        panic!("injected panic (panic-shim engine)");
    }
}

/// A fault-injection engine that diverges until cancelled (see
/// [`EngineSpec::SpinShim`]).
struct SpinEngine;

impl VerificationEngine for SpinEngine {
    fn name(&self) -> &'static str {
        "spin-shim"
    }

    fn verify_with_cancel(
        &self,
        _program: &Program,
        token: &CancellationToken,
    ) -> CoreResult<VerificationResult> {
        // Poll the token the way real engines do at budget sites; the sleep
        // keeps the shim from burning a core while it "diverges".
        while !token.is_cancelled() {
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(VerificationResult {
            verdict: Verdict::Cancelled,
            refinements: 0,
            predicates: 0,
            art_nodes: 0,
            predicate_map: PredicateMap::default(),
            certificate: None,
            stats: VerifierStats::default(),
        })
    }
}

/// A fault-injection engine that aborts the whole process (see
/// [`EngineSpec::AbortShim`]).
struct AbortEngine;

impl VerificationEngine for AbortEngine {
    fn name(&self) -> &'static str {
        "abort-shim"
    }

    fn verify_with_cancel(
        &self,
        _program: &Program,
        _token: &CancellationToken,
    ) -> CoreResult<VerificationResult> {
        std::process::abort();
    }
}

/// Per-chunk allocation size of the memory-hog shim.
const MEMHOG_CHUNK_BYTES: usize = 4 << 20;
/// Total allocation cap of the memory-hog shim: large enough to be an
/// honest memory fault under a container limit, small enough for CI.
const MEMHOG_CAP_BYTES: usize = 64 << 20;

/// A fault-injection engine that hogs memory then diverges (see
/// [`EngineSpec::MemHogShim`]).
struct MemHogEngine;

impl VerificationEngine for MemHogEngine {
    fn name(&self) -> &'static str {
        "memhog-shim"
    }

    fn verify_with_cancel(
        &self,
        _program: &Program,
        token: &CancellationToken,
    ) -> CoreResult<VerificationResult> {
        let mut hog: Vec<Vec<u8>> = Vec::new();
        while hog.len() * MEMHOG_CHUNK_BYTES < MEMHOG_CAP_BYTES && !token.is_cancelled() {
            let mut chunk = vec![0u8; MEMHOG_CHUNK_BYTES];
            // Touch every page so the allocation is resident, not lazy.
            for i in (0..chunk.len()).step_by(4096) {
                chunk[i] = 1;
            }
            hog.push(chunk);
        }
        while !token.is_cancelled() {
            std::thread::sleep(Duration::from_millis(1));
        }
        drop(hog);
        Ok(VerificationResult {
            verdict: Verdict::Cancelled,
            refinements: 0,
            predicates: 0,
            art_nodes: 0,
            predicate_map: PredicateMap::default(),
            certificate: None,
            stats: VerifierStats::default(),
        })
    }
}

/// A deterministically flaky fault-injection engine (see
/// [`EngineSpec::FlakyShim`]).
struct FlakyEngine;

impl VerificationEngine for FlakyEngine {
    fn name(&self) -> &'static str {
        "flaky-shim"
    }

    fn verify_with_cancel(
        &self,
        program: &Program,
        _token: &CancellationToken,
    ) -> CoreResult<VerificationResult> {
        if program.vars().len() >= 2 {
            panic!("injected flaky fault (flaky-shim engine, multi-variable program)");
        }
        Ok(VerificationResult {
            verdict: Verdict::Unknown { reason: "flaky-shim verifies nothing".to_string() },
            refinements: 0,
            predicates: 0,
            art_nodes: 0,
            predicate_map: PredicateMap::default(),
            certificate: None,
            stats: VerifierStats::default(),
        })
    }
}

/// One unit of work: an engine (with configuration) and an optional
/// wall-clock deadline.  The program is passed separately to [`run_job`] so
/// a spec can be reused across programs (the batch expansion) and so the
/// service can fingerprint the pair without cloning the program into the
/// spec.
#[derive(Clone, Debug)]
pub struct JobSpec {
    /// The engine to run.
    pub engine: EngineSpec,
    /// Wall-clock deadline for the run, enforced through the process-wide
    /// watchdog; `None` runs to completion.
    pub timeout: Option<Duration>,
}

impl JobSpec {
    /// A job with no deadline.
    pub fn new(engine: EngineSpec) -> JobSpec {
        JobSpec { engine, timeout: None }
    }

    /// A job bounded by `timeout_ms` milliseconds of wall-clock
    /// (`0`/`None`-free constructor for the `--timeout-ms` flag).
    pub fn with_timeout_ms(engine: EngineSpec, timeout_ms: Option<u64>) -> JobSpec {
        JobSpec { engine, timeout: timeout_ms.map(Duration::from_millis) }
    }
}

/// The outcome of one job, with the verdict already mapped to its report
/// spelling and faults already absorbed.
#[derive(Clone, Debug)]
pub struct JobOutcome {
    /// `"safe"`, `"unsafe"`, `"unknown"`, `"cancelled"`, or `"error"`.
    pub verdict: String,
    /// Free-form elaboration: counterexample length, give-up reason, the
    /// deadline that expired, or the panic/error message.
    pub detail: String,
    /// Refinement iterations performed (CEGAR only; 0 otherwise).
    pub refinements: usize,
    /// Predicates tracked at the end (CEGAR) or invariant lemmas of a PDR
    /// proof; 0 for errored jobs.
    pub predicates: usize,
    /// Total ART nodes constructed (CEGAR only; 0 otherwise).
    pub art_nodes: usize,
    /// The proof artifact backing a conclusive verdict, if any.
    pub certificate: Option<Certificate>,
    /// Solver-call, cache, and engine-exploration statistics (all-zero for
    /// errored jobs).
    pub stats: VerifierStats,
    /// Whether a `"cancelled"` verdict was caused by this job's own
    /// deadline (as opposed to an external canceller — a racing winner or a
    /// shutdown drain sharing the token).
    pub deadline_expired: bool,
    /// Wall-clock for the run, in milliseconds.
    pub wall_ms: f64,
}

impl JobOutcome {
    /// Whether this outcome is a deterministic function of (program,
    /// engine config) — and therefore admissible to the verdict cache.
    /// `cancelled` and `error` outcomes are timing- or fault-dependent and
    /// must never be cached.
    pub fn is_cacheable(&self) -> bool {
        matches!(self.verdict.as_str(), "safe" | "unsafe" | "unknown")
    }
}

/// Runs one job on `program` under `token`, absorbing panics and enforcing
/// the spec's deadline.
///
/// This is *the* execution path every harness shares: the batch runner and
/// the racing portfolio call it per task, the fuzzer calls it per engine,
/// and the service calls it per accepted job.  The guarantees:
///
/// * a panic inside the engine yields `verdict == "error"` with the panic
///   message in `detail` — the calling thread survives;
/// * an engine error ([`CoreResult::Err`]) yields `"error"` likewise;
/// * a deadline expiry yields `"cancelled"` with
///   [`JobOutcome::deadline_expired`] set and the deadline named in
///   `detail`;
/// * an external cancellation (racing winner, shutdown drain) yields
///   `"cancelled"` with `deadline_expired == false`.
pub fn run_job(spec: &JobSpec, program: &Program, token: &CancellationToken) -> JobOutcome {
    let engine = spec.engine.build();
    // Hold the guard across the run: dropping it deregisters the deadline.
    let guard = spec.timeout.map(|t| enforce_deadline(token, t));
    let start = Instant::now();
    let outcome = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        engine.verify_with_cancel(program, token)
    }));
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    let deadline_expired = guard.as_ref().is_some_and(|g| g.expired());
    drop(guard);
    let (verdict, detail, refinements, predicates, art_nodes, certificate, stats) = match outcome {
        Ok(Ok(result)) => {
            let (verdict, detail) = match &result.verdict {
                Verdict::Safe => ("safe".to_string(), String::new()),
                Verdict::Unsafe { path } => {
                    ("unsafe".to_string(), format!("counterexample of {} steps", path.len()))
                }
                Verdict::Unknown { reason } => ("unknown".to_string(), reason.clone()),
                Verdict::Cancelled => {
                    let detail = match (deadline_expired, spec.timeout) {
                        (true, Some(t)) => format!("deadline of {} ms exceeded", t.as_millis()),
                        _ => "cancelled by the harness".to_string(),
                    };
                    ("cancelled".to_string(), detail)
                }
            };
            (
                verdict,
                detail,
                result.refinements,
                result.predicates,
                result.art_nodes,
                result.certificate,
                result.stats,
            )
        }
        Ok(Err(e)) => ("error".to_string(), e.to_string(), 0, 0, 0, None, VerifierStats::default()),
        Err(panic) => {
            let msg = panic
                .downcast_ref::<String>()
                .map(String::as_str)
                .or_else(|| panic.downcast_ref::<&str>().copied())
                .unwrap_or("panic");
            (
                "error".to_string(),
                format!("panicked: {msg}"),
                0,
                0,
                0,
                None,
                VerifierStats::default(),
            )
        }
    };
    JobOutcome {
        verdict,
        detail,
        refinements,
        predicates,
        art_nodes,
        certificate,
        stats,
        deadline_expired,
        wall_ms,
    }
}

/// Whether a report verdict is conclusive (`safe` or `unsafe`): the only
/// verdicts that claim anything, need a certificate, or can conflict.
pub fn is_conclusive(verdict: &str) -> bool {
    matches!(verdict, "safe" | "unsafe")
}

/// The result of auditing one job's certificate against its verdict.
#[derive(Clone, Debug)]
pub enum Audit {
    /// The job emitted no certificate: a vacuous pass on an inconclusive
    /// verdict, a missing proof on a conclusive one.
    NoCertificate,
    /// A certificate the verdict cannot carry: one whose polarity
    /// contradicts a conclusive verdict, or any certificate on an
    /// inconclusive verdict (which claims nothing).  The checker does not
    /// run; `kind` is the certificate's kind.
    Mismatch {
        /// [`Certificate::kind`] of the offending certificate.
        kind: &'static str,
    },
    /// The independent checker's verdict and the wall-clock it spent, in
    /// milliseconds.
    Checked(CertVerdict, f64),
}

/// Audits a job's certificate with the independent checker — the one audit
/// rule every harness applies (see [`Audit`] for its three outcomes).
pub fn audit(program: &Program, outcome: &JobOutcome) -> Audit {
    let Some(cert) = &outcome.certificate else {
        return Audit::NoCertificate;
    };
    if !is_conclusive(&outcome.verdict) || cert.claims_safety() != (outcome.verdict == "safe") {
        return Audit::Mismatch { kind: cert.kind() };
    }
    let start = Instant::now();
    let verdict = check_certificate(program, cert, &CheckLimits::default());
    Audit::Checked(verdict, start.elapsed().as_secs_f64() * 1e3)
}

/// The *in-process* structural identity of a program: PR 4's interned
/// sequence over entry/error locations, the variable terms, and per
/// transition the endpoint locations plus the [`FormulaId`] of its
/// transition relation.  Two programs share this id iff they are the same
/// CFG over the same relations — `O(1)` to compare, but **not stable across
/// process restarts** (raw intern ids depend on interning order), which is
/// why the persistent cache keys on [`job_fingerprint`] instead.
pub fn program_structure_id(program: &Program) -> SeqId {
    let mut ids: Vec<u32> = vec![program.entry().0, program.error().0];
    for v in program.int_vars() {
        ids.push(TermId::intern(&Term::var(v)).raw());
    }
    ids.push(u32::MAX); // separator: vars above, transitions below
    for t in program.transitions() {
        ids.push(t.from.0);
        ids.push(t.to.0);
        ids.push(FormulaId::intern(&t.action.to_relation(program.vars())).raw());
    }
    SeqId::intern(&ids)
}

/// Version salt of the fingerprint's canonical rendering: bump whenever the
/// rendering (or anything verdict-relevant upstream of it — relation
/// construction, engine semantics) changes incompatibly, so stale persisted
/// verdicts can never be returned for a new engine generation.
const FINGERPRINT_SCHEMA: &str = "pathinv-job-fingerprint v1";

/// The persistent-cache key for (program, engine): a 16-hex-digit FNV-1a
/// digest of the canonical rendering of the interned program structure
/// (entry/error locations, variable declarations, and every transition's
/// relation formula) plus the engine's configuration fingerprint.
///
/// Properties the cache relies on:
///
/// * **Stable across restarts** — the rendering uses location indices,
///   declaration order, and formula pretty-printing, never raw intern ids.
/// * **Name-independent** — the *program name* is deliberately excluded:
///   resubmitting the same source under a different job name must hit.
/// * **Config-sensitive** — any change to a verdict-relevant engine knob
///   (bounds, refiner) changes the key; the verdict-invariant `caching`
///   knob does not (see `EngineSpec::config_fingerprint`).
pub fn job_fingerprint(program: &Program, engine: &EngineSpec) -> String {
    let mut canon = String::new();
    let _ = writeln!(canon, "{FINGERPRINT_SCHEMA}");
    let _ = writeln!(canon, "engine {} {}", engine.engine_name(), engine.config_fingerprint());
    let _ = writeln!(
        canon,
        "cfg entry={} error={} locs={}",
        program.entry().0,
        program.error().0,
        program.num_locs()
    );
    for v in program.vars() {
        let _ = writeln!(canon, "var {}:{}", v.sym, v.sort);
    }
    for t in program.transitions() {
        let _ = writeln!(
            canon,
            "trans {} {} {}",
            t.from.0,
            t.to.0,
            t.action.to_relation(program.vars())
        );
    }
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for byte in canon.bytes() {
        h ^= u64::from(byte);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    format!("{h:016x}")
}

#[cfg(test)]
mod tests {
    use super::*;
    use pathinv_ir::parse_program;

    const BUG: &str = "proc bug(x: int) { x = 1; assert(x == 2); }";

    #[test]
    fn run_job_settles_a_straight_line_bug_on_every_real_engine() {
        let program = parse_program(BUG).unwrap();
        for engine in [
            EngineSpec::Cegar(CegarConfig::path_invariants()),
            EngineSpec::Bmc(BmcConfig::default()),
            EngineSpec::Pdr(PdrConfig::default()),
        ] {
            let outcome = run_job(&JobSpec::new(engine), &program, &CancellationToken::new());
            assert_eq!(outcome.verdict, "unsafe");
            assert!(!outcome.deadline_expired);
            assert!(outcome.is_cacheable());
        }
    }

    #[test]
    fn panic_shim_reports_error_and_the_thread_survives() {
        let program = parse_program(BUG).unwrap();
        let outcome =
            run_job(&JobSpec::new(EngineSpec::PanicShim), &program, &CancellationToken::new());
        assert_eq!(outcome.verdict, "error");
        assert!(outcome.detail.contains("panicked"), "detail: {}", outcome.detail);
        assert!(outcome.detail.contains("injected panic"), "detail: {}", outcome.detail);
        assert!(!outcome.is_cacheable(), "faults must never be cached");
    }

    #[test]
    fn spin_shim_deadline_yields_honest_cancelled() {
        let program = parse_program(BUG).unwrap();
        let spec = JobSpec::with_timeout_ms(EngineSpec::SpinShim, Some(30));
        let start = Instant::now();
        let outcome = run_job(&spec, &program, &CancellationToken::new());
        assert_eq!(outcome.verdict, "cancelled");
        assert!(outcome.deadline_expired, "the watchdog fired this cancellation");
        assert!(outcome.detail.contains("deadline of 30 ms"), "detail: {}", outcome.detail);
        assert!(!outcome.is_cacheable(), "timing-dependent verdicts must never be cached");
        // "within 2× deadline" plus scheduler slack; generous CI envelope.
        assert!(start.elapsed() < Duration::from_secs(10));
    }

    #[test]
    fn memhog_shim_deadline_yields_honest_cancelled() {
        let program = parse_program(BUG).unwrap();
        let spec = JobSpec::with_timeout_ms(EngineSpec::MemHogShim, Some(50));
        let outcome = run_job(&spec, &program, &CancellationToken::new());
        assert_eq!(outcome.verdict, "cancelled");
        assert!(outcome.deadline_expired, "the watchdog fired this cancellation");
        assert!(!outcome.is_cacheable());
    }

    #[test]
    fn flaky_shim_faults_are_selected_by_the_program() {
        let one_var = parse_program(BUG).unwrap();
        let two_var = parse_program("proc f(x: int, y: int) { x = 1; assert(x == 1); }").unwrap();
        let ok = run_job(&JobSpec::new(EngineSpec::FlakyShim), &one_var, &CancellationToken::new());
        assert_eq!(ok.verdict, "unknown");
        assert!(EngineSpec::FlakyShim.is_shim(), "serve must exclude flaky verdicts from caching");
        let fault =
            run_job(&JobSpec::new(EngineSpec::FlakyShim), &two_var, &CancellationToken::new());
        assert_eq!(fault.verdict, "error");
        assert!(fault.detail.contains("flaky fault"), "detail: {}", fault.detail);
    }

    #[test]
    fn external_cancellation_is_not_attributed_to_the_deadline() {
        let program = parse_program(BUG).unwrap();
        let token = CancellationToken::new();
        token.cancel();
        let spec = JobSpec::with_timeout_ms(
            EngineSpec::Cegar(CegarConfig::path_invariants()),
            Some(3_600_000),
        );
        let outcome = run_job(&spec, &program, &token);
        assert_eq!(outcome.verdict, "cancelled");
        assert!(!outcome.deadline_expired, "the hour-long deadline did not fire");
        assert_eq!(outcome.detail, "cancelled by the harness");
    }

    #[test]
    fn audit_checks_only_certificates_the_verdict_can_carry() {
        let program = parse_program(BUG).unwrap();
        let spec = JobSpec::new(EngineSpec::Bmc(BmcConfig::default()));
        let unsafe_run = run_job(&spec, &program, &CancellationToken::new());
        assert!(matches!(audit(&program, &unsafe_run), Audit::Checked(CertVerdict::Valid, _)));
        // The same trace cannot back a safe verdict, nor an inconclusive one
        // that claims nothing: the checker never sees either.
        for verdict in ["safe", "unknown", "cancelled", "error"] {
            let outcome = JobOutcome { verdict: verdict.to_string(), ..unsafe_run.clone() };
            assert!(
                matches!(audit(&program, &outcome), Audit::Mismatch { kind: "trace" }),
                "{verdict}"
            );
        }
        let bare = JobOutcome { certificate: None, ..unsafe_run };
        assert!(matches!(audit(&program, &bare), Audit::NoCertificate));
    }

    #[test]
    fn fingerprint_is_stable_across_reparses_and_ignores_the_name() {
        let a = parse_program(BUG).unwrap();
        let b = parse_program(BUG).unwrap();
        let renamed = parse_program("proc other(x: int) { x = 1; assert(x == 2); }").unwrap();
        let engine = EngineSpec::Cegar(CegarConfig::path_invariants());
        assert_eq!(job_fingerprint(&a, &engine), job_fingerprint(&b, &engine));
        assert_eq!(
            job_fingerprint(&a, &engine),
            job_fingerprint(&renamed, &engine),
            "the program name must not enter the cache key"
        );
        assert_eq!(job_fingerprint(&a, &engine).len(), 16);
    }

    #[test]
    fn fingerprint_distinguishes_programs_engines_and_configs() {
        let a = parse_program(BUG).unwrap();
        let safe = parse_program("proc bug(x: int) { x = 1; assert(x == 1); }").unwrap();
        let cegar = EngineSpec::Cegar(CegarConfig::path_invariants());
        let bmc = EngineSpec::Bmc(BmcConfig::default());
        let shallow = BmcConfig { max_depth: 3, ..BmcConfig::default() };
        assert_ne!(job_fingerprint(&a, &cegar), job_fingerprint(&safe, &cegar));
        assert_ne!(job_fingerprint(&a, &cegar), job_fingerprint(&a, &bmc));
        assert_ne!(
            job_fingerprint(&a, &bmc),
            job_fingerprint(&a, &EngineSpec::Bmc(shallow)),
            "verdict-relevant config knobs must enter the key"
        );
    }

    #[test]
    fn fingerprint_ignores_verdict_invariant_knobs() {
        let a = parse_program(BUG).unwrap();
        let base = CegarConfig::path_invariants();
        let mut tuned = base.clone();
        tuned.caching = false;
        assert_eq!(
            job_fingerprint(&a, &EngineSpec::Cegar(base)),
            job_fingerprint(&a, &EngineSpec::Cegar(tuned)),
            "caching is documented verdict-invariant"
        );
    }

    #[test]
    fn structure_id_matches_iff_structures_match() {
        let a = parse_program(BUG).unwrap();
        let b = parse_program("proc other(x: int) { x = 1; assert(x == 2); }").unwrap();
        let c = parse_program("proc bug(x: int) { x = 2; assert(x == 2); }").unwrap();
        assert_eq!(program_structure_id(&a), program_structure_id(&b));
        assert_ne!(program_structure_id(&a), program_structure_id(&c));
    }
}
