//! Batch verification driver for the Path Invariants reproduction.
//!
//! Runs corpus programs and/or `.pinv` source files through the configured
//! verification engines (CEGAR with either refiner, bounded model checking,
//! PDR-lite, or the whole portfolio) in parallel, printing a summary table
//! and optionally writing a JSON report (or a golden snapshot for the
//! regression test).  Portfolio runs cross-check verdicts between engines
//! and fail on any disagreement.

use pathinv_cli::differential::DifferentialReport;
use pathinv_cli::json::Json;
use pathinv_cli::{
    corpus_programs, load_pinv_file, make_tasks, run_batch, EngineChoice, RefinerChoice,
};
use pathinv_ir::Program;
use std::process::ExitCode;
use std::str::FromStr;

const USAGE: &str = "\
pathinv-cli — batch verification over the Path Invariants corpus

USAGE:
    pathinv-cli [OPTIONS] [FILE.pinv ...]
    pathinv-cli fuzz [FUZZ OPTIONS]
    pathinv-cli serve [SERVE OPTIONS]
    pathinv-cli serve-smoke [SMOKE OPTIONS]

ARGS:
    FILE.pinv ...          front-end source files to verify alongside/instead
                           of the corpus

SUBCOMMANDS:
    fuzz                   generate a seeded differential-fuzzing campaign and
                           cross-check every program three ways (engine vs
                           engine, verifier vs concrete interpreter, cached vs
                           uncached); exits 1 on any disagreement
    serve                  run the verification service daemon: line-delimited
                           JSON jobs on a Unix socket (or stdin), fault-isolated
                           workers, per-job deadlines, a crash-safe persistent
                           verdict cache, and graceful SIGTERM/shutdown drain
                           (see DESIGN.md section 14 for the protocol)
    serve-smoke            spawn real serve daemons and check the service
                           contracts from outside in two phases, every corpus
                           verdict against a fresh-process reference: a thread
                           phase (cold deck with a panicking job and a
                           malformed line, an all-cached warm pass, SIGTERM
                           drain, all-cached restart over the journal) and a
                           chaos phase (--isolate process --chaos: hostile
                           deck, breaker wave, stats, protocol shutdown,
                           chaos-free restart); exits 1 on any dropped or
                           duplicated answer or other contract violation

SERVE OPTIONS:
    --socket <PATH>        listen on a Unix socket instead of stdin/stdout
    --cache <PATH>         persist the verdict cache journal at PATH (default:
                           in-memory only)
    --workers <N>          worker threads executing jobs (default: 2)
    --queue <N>            admission-queue capacity; beyond it submissions are
                           rejected with status \"overloaded\" (default: 64)
    --timeout-ms <N>       default per-job deadline for jobs that do not carry
                           their own timeout_ms
    --isolate <MODE>       thread (default) runs jobs on worker threads with
                           catch_unwind isolation; process re-execs each job
                           as a child of this binary, hard-killed on deadline,
                           so aborts/stack overflow/OOM become error tasks
                           instead of daemon death
    --retries <N>          re-run a faulted job up to N times with bounded
                           exponential backoff + jitter before reporting the
                           error (default: 1)
    --retry-backoff-ms <N> base backoff delay between retries (default: 50)
    --breaker-threshold <N> consecutive faults that trip an engine's circuit
                           breaker; while open, submissions for that engine
                           fast-fail with status \"quarantined\"; 0 disables
                           (default: 5)
    --breaker-cooldown-ms <N> how long a tripped breaker stays open before a
                           half-open probe is admitted (default: 10000)
    --cache-compact-bytes <N> journal size that triggers a crash-safe
                           compaction rewrite (default: 1048576)
    --chaos seed=<N>       seeded fault injection for chaos testing: random
                           worker exits plus failed/torn/slow cache writes,
                           all derived from the seed

SMOKE OPTIONS:
    --seed <N>             seed for the decks and the chaos daemon's fault
                           schedule (default: 42); a failing run replays
                           exactly under the same seed
    --json <PATH>          write both phases' numbers (`-` = stdout)

FUZZ OPTIONS:
    --seed <N>             campaign seed (default: 0)
    --count <N>            certified programs to generate (default: 200)
    --jobs <N>             worker threads (default: available parallelism);
                           never affects the report, only wall-clock
    --json <PATH>          write the deterministic JSON report (`-` = stdout)
    --reproducers <DIR>    write each shrunk finding as a .pinv reproducer
    --cache-sample <N>     programs also checked cached-vs-uncached (default: 10)
    --timeout-ms <N>       per-engine-run deadline; an expired run reports the
                           no-opinion `cancelled` and is never a finding
    --certify              audit every engine certificate with the independent
                           checker; a conclusive verdict without a valid
                           certificate, or an inconclusive one with any
                           certificate, is a finding
    --quiet                suppress the campaign summary

OPTIONS:
    --all                  verify every program in pathinv_ir::corpus
    --engine <WHICH>       cegar | bmc | pdr | portfolio (default: cegar);
                           portfolio runs every engine per program across the
                           worker pool and reports the combined verdict
    --race                 race the four portfolio lanes per program instead
                           of running them all to completion: the first
                           conclusive verdict cancels the other lanes
                           cooperatively; reports the winner and every
                           lane's time-to-first-verdict
    --refiner <WHICH>      path-invariants | path-predicates | both
                           (default: both; applies to cegar tasks)
    --max-refinements <N>  override the refinement bound for cegar tasks
    --jobs <N>             worker threads (default: available parallelism)
    --timeout-ms <N>       per-task wall-clock deadline, enforced by the
                           watchdog through each task's cancellation token;
                           an expired task reports the honest `cancelled`
                           verdict instead of running forever
    --certify              audit every verdict's certificate with the
                           independent pathinv-check crate: conclusive
                           verdicts must carry a certificate the checker
                           validates, inconclusive ones must carry none
                           (and then pass vacuously); exits 1 on any
                           rejected, missing, or misplaced certificate
    --json <PATH>          write the full JSON report to PATH (`-` = stdout)
    --golden <PATH>        write the deterministic golden snapshot to PATH,
                           only if the run passes (exit status 0); from the
                           repository root, `--all --engine portfolio
                           --certify --golden tests/golden/corpus.json`
                           regenerates the committed golden
    --quiet                suppress the summary table
    --help                 show this help

EXIT STATUS:
    0  all tasks completed (verdicts may be safe/unsafe/unknown)
    1  at least one task errored, an input file failed to load, two
       engines (or race lanes) reached safe and unsafe on one program, or
       a --certify audit failed
    2  usage error
";

struct Options {
    all: bool,
    files: Vec<String>,
    engines: EngineChoice,
    choice: RefinerChoice,
    max_refinements: Option<usize>,
    race: bool,
    certify: bool,
    timeout_ms: Option<u64>,
    jobs: usize,
    json_path: Option<String>,
    golden_path: Option<String>,
    quiet: bool,
}

fn default_jobs() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// A command line, consumed argument by argument.
struct Args<'a>(std::slice::Iter<'a, String>);

impl<'a> Args<'a> {
    fn next_arg(&mut self) -> Option<&'a str> {
        self.0.next().map(String::as_str)
    }

    /// The value following `flag`.
    fn value(&mut self, flag: &str) -> Result<String, String> {
        self.0.next().cloned().ok_or_else(|| format!("{flag} requires a value"))
    }

    /// The value following `flag`, parsed.
    fn parse<T: FromStr>(&mut self, flag: &str) -> Result<T, String> {
        let v = self.value(flag)?;
        v.parse().map_err(|_| format!("bad {flag} `{v}`"))
    }

    /// The value following `flag`, parsed as a count of at least 1.
    fn positive<T: FromStr + PartialEq + From<u8>>(&mut self, flag: &str) -> Result<T, String> {
        let n = self.parse(flag)?;
        if n == T::from(0) {
            return Err(format!("{flag} must be at least 1"));
        }
        Ok(n)
    }
}

/// Reports a usage error: the message, then the usage text; exit status 2.
fn usage_error(msg: &str) -> ExitCode {
    eprintln!("error: {msg}\n\n{USAGE}");
    ExitCode::from(2)
}

/// Writes `text` to `path` (`-` = stdout); on failure reports the error
/// and returns `false`.
fn write_output(path: &str, text: &str) -> bool {
    if path == "-" {
        print!("{text}");
    } else if let Err(e) = std::fs::write(path, text) {
        eprintln!("error: cannot write {path}: {e}");
        return false;
    }
    true
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        all: false,
        files: Vec::new(),
        engines: EngineChoice::Cegar,
        choice: RefinerChoice::Both,
        max_refinements: None,
        race: false,
        certify: false,
        timeout_ms: None,
        jobs: default_jobs(),
        json_path: None,
        golden_path: None,
        quiet: false,
    };
    let mut engine_set = false;
    let mut refiner_set = false;
    let mut args = Args(args.iter());
    while let Some(arg) = args.next_arg() {
        match arg {
            "--all" => opts.all = true,
            "--quiet" => opts.quiet = true,
            "--engine" => {
                opts.engines = match args.value(arg)?.as_str() {
                    "cegar" => EngineChoice::Cegar,
                    "bmc" => EngineChoice::Bmc,
                    "pdr" => EngineChoice::Pdr,
                    "portfolio" => EngineChoice::Portfolio,
                    other => return Err(format!("unknown engine `{other}`")),
                };
                engine_set = true;
            }
            "--refiner" => {
                opts.choice = match args.value(arg)?.as_str() {
                    "path-invariants" => RefinerChoice::PathInvariants,
                    "path-predicates" => RefinerChoice::PathPredicates,
                    "both" => RefinerChoice::Both,
                    other => return Err(format!("unknown refiner `{other}`")),
                };
                refiner_set = true;
            }
            "--max-refinements" => opts.max_refinements = Some(args.parse(arg)?),
            "--race" => opts.race = true,
            "--certify" => opts.certify = true,
            "--timeout-ms" => opts.timeout_ms = Some(args.positive(arg)?),
            "--jobs" => opts.jobs = args.positive(arg)?,
            "--json" => opts.json_path = Some(args.value(arg)?),
            "--golden" => opts.golden_path = Some(args.value(arg)?),
            "--help" | "-h" => return Err(String::new()),
            other if other.starts_with('-') => {
                return Err(format!("unknown option `{other}`"));
            }
            file => opts.files.push(file.to_string()),
        }
    }
    if matches!(opts.engines, EngineChoice::Bmc | EngineChoice::Pdr) {
        // Refiner-related flags would be silently meaningless without CEGAR
        // tasks; reject them instead of ignoring them.
        if opts.max_refinements.is_some() {
            return Err("--max-refinements only applies to cegar tasks".to_string());
        }
        if refiner_set {
            return Err("--refiner only applies to cegar tasks".to_string());
        }
    }
    if opts.race {
        // A race always runs the whole default-configured portfolio; flags
        // that would reshape the lanes are rejected, not silently ignored.
        let conflicting = engine_set
            || refiner_set
            || opts.max_refinements.is_some()
            || opts.golden_path.is_some();
        if conflicting {
            return Err("--race runs the default engine portfolio per program; it only combines \
                        with --all, .pinv files, --jobs, --json, --certify, --timeout-ms, and \
                        --quiet"
                .to_string());
        }
    }
    if !opts.all && opts.files.is_empty() {
        return Err("nothing to do: pass --all and/or .pinv files".to_string());
    }
    Ok(opts)
}

/// A finished batch or race run, as the one report-and-exit path of
/// [`main`] consumes it.
struct Run {
    /// The human-readable summary (`--quiet` suppresses it).
    table: String,
    /// The full JSON report (`--json`).
    doc: Json,
    /// Every reason the run fails ([`pathinv_cli::failures`]).
    failures: Vec<String>,
    /// The golden snapshot (`--golden`); batch runs only.
    golden: Option<Json>,
}

/// Races the portfolio lanes per program (`--race`).
fn race_run(programs: Vec<(String, Program)>, opts: &Options) -> Run {
    let report = pathinv_cli::race::run_race(programs, opts.jobs, opts.certify, opts.timeout_ms);
    Run {
        table: report.render_table(),
        doc: report.to_json(),
        failures: pathinv_cli::failures(report.lanes()),
        golden: None,
    }
}

/// Runs every (program, engine) task to completion; a portfolio run adds
/// the differential section, a `--certify` run the audit tally.
fn batch_run(programs: Vec<(String, Program)>, opts: &Options) -> Run {
    let mut tasks = make_tasks(programs, opts.engines, opts.choice, opts.max_refinements);
    for t in &mut tasks {
        t.certify = opts.certify;
        t.timeout_ms = opts.timeout_ms;
    }
    let report = run_batch(tasks, opts.jobs);
    let mut table = report.render_table();
    let mut doc = report.to_json();
    if opts.engines.is_portfolio() {
        let diff = DifferentialReport::from_batch(&report);
        table.push_str(&diff.render_summary());
        if let Json::Object(fields) = &mut doc {
            fields.push(("differential".to_string(), diff.to_json()));
        }
    }
    if opts.certify {
        let count = |v: &str| report.tasks.iter().filter(|t| t.cert_verdict == v).count();
        let check_ms: f64 = report.tasks.iter().map(|t| t.cert_check_ms).sum();
        table.push_str(&format!(
            "certificates: {} validated, {} vacuous, {} failed, checker time {check_ms:.1} ms\n",
            count("valid"),
            count("vacuous"),
            pathinv_cli::audit_failures(&report.tasks).len(),
        ));
    }
    Run {
        table,
        doc,
        failures: pathinv_cli::failures(&report.tasks),
        golden: Some(report.to_golden_json()),
    }
}

/// The `fuzz` subcommand: seeded generation plus three-way differential
/// cross-checking; exits 1 on any finding.
fn fuzz_main(args: &[String]) -> ExitCode {
    let mut opts = pathinv_cli::fuzz::FuzzOptions { jobs: default_jobs(), ..Default::default() };
    let mut json_path: Option<String> = None;
    let mut reproducer_dir: Option<String> = None;
    let mut quiet = false;
    let mut args = Args(args.iter());
    let mut parse = || -> Result<(), String> {
        while let Some(arg) = args.next_arg() {
            match arg {
                "--seed" => opts.seed = args.parse(arg)?,
                "--count" => opts.count = args.parse(arg)?,
                "--jobs" => opts.jobs = args.positive(arg)?,
                "--cache-sample" => opts.cache_sample = args.parse(arg)?,
                "--timeout-ms" => opts.timeout_ms = Some(args.positive(arg)?),
                "--json" => json_path = Some(args.value(arg)?),
                "--reproducers" => reproducer_dir = Some(args.value(arg)?),
                "--certify" => opts.certify = true,
                "--quiet" => quiet = true,
                other => return Err(format!("unknown fuzz option `{other}`")),
            }
        }
        Ok(())
    };
    if let Err(msg) = parse() {
        return usage_error(&msg);
    }
    let report = pathinv_cli::fuzz::run_fuzz(&opts);
    if !quiet {
        print!("{}", report.render_summary());
    }
    if let Some(path) = &json_path {
        if !write_output(path, &report.to_json().pretty()) {
            return ExitCode::FAILURE;
        }
    }
    if let Some(dir) = &reproducer_dir {
        if !report.findings.is_empty() {
            if let Err(e) = std::fs::create_dir_all(dir) {
                eprintln!("error: cannot create {dir}: {e}");
                return ExitCode::FAILURE;
            }
            for f in &report.findings {
                if f.source.is_empty() {
                    continue;
                }
                let path = format!("{dir}/{}", f.reproducer_name());
                if let Err(e) = std::fs::write(&path, &f.source) {
                    eprintln!("error: cannot write {path}: {e}");
                    return ExitCode::FAILURE;
                }
                eprintln!("reproducer written: {path}");
            }
        }
    }
    if report.findings.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The `serve` subcommand: parse the daemon flags and run until drained.
fn serve_main(args: &[String]) -> ExitCode {
    let mut config = pathinv_cli::serve::ServeConfig::default();
    let mut args = Args(args.iter());
    let mut parse = || -> Result<(), String> {
        while let Some(arg) = args.next_arg() {
            match arg {
                "--socket" => config.socket = Some(args.value(arg)?.into()),
                "--cache" => config.cache_path = Some(args.value(arg)?.into()),
                "--workers" => config.workers = args.positive(arg)?,
                "--queue" => config.queue_capacity = args.positive(arg)?,
                "--timeout-ms" => config.default_timeout_ms = Some(args.positive(arg)?),
                "--isolate" => {
                    config.isolation = match args.value(arg)?.as_str() {
                        "thread" => pathinv_cli::serve::IsolationMode::Thread,
                        "process" => pathinv_cli::serve::IsolationMode::Process,
                        other => return Err(format!("unknown --isolate mode `{other}`")),
                    };
                }
                "--retries" => config.max_retries = args.parse(arg)?,
                "--retry-backoff-ms" => config.retry_backoff_ms = args.positive(arg)?,
                "--breaker-threshold" => config.breaker_threshold = args.parse(arg)?,
                "--breaker-cooldown-ms" => config.breaker_cooldown_ms = args.positive(arg)?,
                "--cache-compact-bytes" => config.cache_compact_bytes = Some(args.positive(arg)?),
                "--chaos" => {
                    let v = args.value(arg)?;
                    let seed = v
                        .strip_prefix("seed=")
                        .and_then(|s| s.parse().ok())
                        .ok_or_else(|| format!("bad --chaos `{v}` (expected seed=<N>)"))?;
                    config.chaos = Some(pathinv_cli::serve::ChaosConfig::from_seed(seed));
                }
                other => return Err(format!("unknown serve option `{other}`")),
            }
        }
        Ok(())
    };
    if let Err(msg) = parse() {
        return usage_error(&msg);
    }
    match pathinv_cli::serve::run_serve(&config) {
        Ok(0) => ExitCode::SUCCESS,
        Ok(_) => ExitCode::FAILURE,
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// The `serve-smoke` subcommand: the two-phase daemon harness.
fn serve_smoke_main(args: &[String]) -> ExitCode {
    let (mut seed, mut json_path) = (42, None);
    let mut args = Args(args.iter());
    let mut parse = || -> Result<(), String> {
        while let Some(arg) = args.next_arg() {
            match arg {
                "--seed" => seed = args.parse(arg)?,
                "--json" => json_path = Some(args.value(arg)?),
                other => return Err(format!("unknown serve-smoke option `{other}`")),
            }
        }
        Ok(())
    };
    if let Err(msg) = parse() {
        return usage_error(&msg);
    }
    let report = match pathinv_cli::smoke::run_serve_smoke(seed) {
        Ok(report) => report,
        Err(msg) => {
            eprintln!("error: serve-smoke failed: {msg}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = &json_path {
        if !write_output(path, &report.to_json().pretty()) {
            return ExitCode::FAILURE;
        }
    }
    eprintln!(
        "serve-smoke: all contracts held (chaos phase {}/{} answered, availability {:.4})",
        report.chaos.answered,
        report.chaos.submitted,
        report.chaos.availability()
    );
    ExitCode::SUCCESS
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    if args.first().map(String::as_str) == Some("run-one-job") {
        // The hidden process-isolation entrypoint: one job over pipes.
        // Dispatched before anything else so a supervised child can never
        // fall into the interactive argument parser.
        return ExitCode::from(pathinv_cli::isolate::run_one_job_main() as u8);
    }
    match args.first().map(String::as_str) {
        Some("fuzz") => return fuzz_main(&args[1..]),
        Some("serve") => return serve_main(&args[1..]),
        Some("serve-smoke") => return serve_smoke_main(&args[1..]),
        _ => {}
    }
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(msg) => {
            if msg.is_empty() {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            return usage_error(&msg);
        }
    };

    let mut programs = Vec::new();
    let mut load_failures = 0usize;
    if opts.all {
        programs.extend(corpus_programs());
    }
    for file in &opts.files {
        match load_pinv_file(file) {
            Ok(named) => programs.push(named),
            Err(msg) => {
                eprintln!("error: {msg}");
                load_failures += 1;
            }
        }
    }
    if programs.is_empty() {
        eprintln!("error: no programs to verify");
        return ExitCode::FAILURE;
    }

    let run = if opts.race { race_run(programs, &opts) } else { batch_run(programs, &opts) };
    if !opts.quiet {
        print!("{}", run.table);
    }
    if let Some(path) = &opts.json_path {
        if !write_output(path, &run.doc.pretty()) {
            return ExitCode::FAILURE;
        }
    }
    for f in &run.failures {
        eprintln!("error: {f}");
    }
    let passed = run.failures.is_empty() && load_failures == 0;
    if let (Some(path), Some(golden)) = (&opts.golden_path, &run.golden) {
        // A golden pins whatever the run produced, so a failing run must
        // not overwrite the committed one.
        if passed {
            if !write_output(path, &golden.pretty()) {
                return ExitCode::FAILURE;
            }
        } else {
            eprintln!("error: the run failed; golden snapshot not written to {path}");
        }
    }
    if passed {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
