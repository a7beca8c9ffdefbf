//! Batch verification driver for the Path Invariants reproduction.
//!
//! Runs corpus programs and/or `.pinv` source files through the configured
//! verification engines (CEGAR with either refiner, bounded model checking,
//! PDR-lite, or the whole portfolio) in parallel, printing a summary table
//! and optionally writing a JSON report (or a golden snapshot for the
//! regression test).  Portfolio runs cross-check verdicts between engines
//! and fail on any disagreement.

use pathinv_cli::differential::DifferentialReport;
use pathinv_cli::trajectory::trajectory_from_cached;
use pathinv_cli::{
    corpus_programs, load_pinv_file, make_tasks, run_batch, EngineChoice, RefinerChoice,
};
use std::process::ExitCode;

const USAGE: &str = "\
pathinv-cli — batch verification over the Path Invariants corpus

USAGE:
    pathinv-cli [OPTIONS] [FILE.pinv ...]
    pathinv-cli trajectory --history [DIR]
    pathinv-cli fuzz [FUZZ OPTIONS]
    pathinv-cli serve [SERVE OPTIONS]
    pathinv-cli serve-smoke [SMOKE OPTIONS]

ARGS:
    FILE.pinv ...          front-end source files to verify alongside/instead
                           of the corpus

SUBCOMMANDS:
    trajectory --history   aggregate every committed BENCH_*.json trajectory
                           point (in DIR, default the current directory) into
                           one per-PR summary table
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
    --drain-grace-ms <N>   how long a shutdown drain waits for in-flight jobs
                           before cancelling them (default: 5000)
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
    --shrink-budget <N>    candidate scenarios tested per finding (default: 48)
    --timeout-ms <N>       per-engine-run deadline; an expired run reports the
                           no-opinion `cancelled` and is never a finding
    --certify              audit every engine certificate with the independent
                           checker; a conclusive verdict without a valid
                           certificate is a finding
    --quiet                suppress the campaign summary

OPTIONS:
    --all                  verify every program in pathinv_ir::corpus
    --engine <WHICH>       cegar | bmc | pdr | portfolio (default: cegar);
                           portfolio runs every engine per program across the
                           worker pool, reports the combined verdict, and
                           exits 1 on any cross-engine verdict disagreement
    --race                 race the four portfolio lanes per program instead
                           of running them all to completion: the first
                           conclusive verdict cancels the other lanes
                           cooperatively; reports the winner and every
                           lane's time-to-first-verdict, and exits 1 if two
                           conclusive lanes ever disagree
    --refiner <WHICH>      path-invariants | path-predicates | both
                           (default: both; applies to cegar tasks)
    --max-refinements <N>  override the refinement bound for cegar tasks
    --beam-workers <N>     worker threads for the invariant-synthesis beam
                           on cegar tasks (default: 1); results are
                           byte-identical at any count, only wall-clock
                           changes
    --jobs <N>             worker threads (default: available parallelism)
    --timeout-ms <N>       per-task wall-clock deadline, enforced by the
                           watchdog through each task's cancellation token;
                           an expired task reports the honest `cancelled`
                           verdict instead of running forever
    --certify              audit every verdict's certificate with the
                           independent pathinv-check crate: conclusive
                           verdicts must carry a certificate the checker
                           validates (inconclusive ones pass vacuously);
                           exits 1 on any rejected or missing certificate
    --json <PATH>          write the full JSON report to PATH (`-` = stdout)
    --golden <PATH>        write the deterministic golden snapshot to PATH
    --no-cache             disable the incremental solver caches on cegar
                           tasks (same verdicts, more solver calls)
    --bless                regenerate every committed golden snapshot
                           (tests/golden/corpus.json, tests/golden/bench.json)
                           and the BENCH_pr10.json trajectory point (including
                           its race, serve, supervision, and certificate-audit
                           sections); run from the repository root
    --quiet                suppress the summary table
    --help                 show this help

EXIT STATUS:
    0  all tasks completed (verdicts may be safe/unsafe/unknown)
    1  at least one task errored, an input file failed to load, a
       portfolio/race run found a cross-engine verdict disagreement, or a
       --certify audit rejected a certificate
    2  usage error
";

struct Options {
    all: bool,
    files: Vec<String>,
    engines: EngineChoice,
    choice: RefinerChoice,
    max_refinements: Option<usize>,
    beam_workers: Option<usize>,
    race: bool,
    certify: bool,
    timeout_ms: Option<u64>,
    jobs: usize,
    json_path: Option<String>,
    golden_path: Option<String>,
    no_cache: bool,
    bless: bool,
    quiet: bool,
}

fn default_jobs() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

fn parse_args(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        all: false,
        files: Vec::new(),
        engines: EngineChoice::Cegar,
        choice: RefinerChoice::Both,
        max_refinements: None,
        beam_workers: None,
        race: false,
        certify: false,
        timeout_ms: None,
        jobs: default_jobs(),
        json_path: None,
        golden_path: None,
        no_cache: false,
        bless: false,
        quiet: false,
    };
    let mut engine_set = false;
    let mut refiner_set = false;
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let mut value_for =
            |flag: &str| it.next().cloned().ok_or_else(|| format!("{flag} requires a value"));
        match arg.as_str() {
            "--all" => opts.all = true,
            "--quiet" => opts.quiet = true,
            "--engine" => {
                opts.engines = match value_for("--engine")?.as_str() {
                    "cegar" => EngineChoice::Cegar,
                    "bmc" => EngineChoice::Bmc,
                    "pdr" => EngineChoice::Pdr,
                    "portfolio" => EngineChoice::Portfolio,
                    other => return Err(format!("unknown engine `{other}`")),
                };
                engine_set = true;
            }
            "--refiner" => {
                opts.choice = match value_for("--refiner")?.as_str() {
                    "path-invariants" => RefinerChoice::PathInvariants,
                    "path-predicates" => RefinerChoice::PathPredicates,
                    "both" => RefinerChoice::Both,
                    other => return Err(format!("unknown refiner `{other}`")),
                };
                refiner_set = true;
            }
            "--max-refinements" => {
                let v = value_for("--max-refinements")?;
                opts.max_refinements =
                    Some(v.parse().map_err(|_| format!("bad --max-refinements `{v}`"))?);
            }
            "--beam-workers" => {
                let v = value_for("--beam-workers")?;
                let n: usize = v.parse().map_err(|_| format!("bad --beam-workers `{v}`"))?;
                if n == 0 {
                    return Err("--beam-workers must be at least 1".to_string());
                }
                opts.beam_workers = Some(n);
            }
            "--race" => opts.race = true,
            "--certify" => opts.certify = true,
            "--timeout-ms" => {
                let v = value_for("--timeout-ms")?;
                let ms: u64 = v.parse().map_err(|_| format!("bad --timeout-ms `{v}`"))?;
                if ms == 0 {
                    return Err("--timeout-ms must be at least 1".to_string());
                }
                opts.timeout_ms = Some(ms);
            }
            "--jobs" => {
                let v = value_for("--jobs")?;
                let n: usize = v.parse().map_err(|_| format!("bad --jobs `{v}`"))?;
                if n == 0 {
                    return Err("--jobs must be at least 1".to_string());
                }
                opts.jobs = n;
            }
            "--json" => opts.json_path = Some(value_for("--json")?),
            "--golden" => opts.golden_path = Some(value_for("--golden")?),
            "--no-cache" => opts.no_cache = true,
            "--bless" => opts.bless = true,
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
        if opts.beam_workers.is_some() {
            return Err("--beam-workers only applies to cegar tasks".to_string());
        }
    }
    if opts.race {
        // A race always runs the whole default-configured portfolio; flags
        // that would reshape the lanes are rejected, not silently ignored.
        let conflicting = engine_set
            || refiner_set
            || opts.max_refinements.is_some()
            || opts.beam_workers.is_some()
            || opts.no_cache
            || opts.golden_path.is_some()
            || opts.bless;
        if conflicting {
            return Err("--race runs the default engine portfolio per program; it only combines \
                        with --all, .pinv files, --jobs, --json, --certify, --timeout-ms, and \
                        --quiet"
                .to_string());
        }
    }
    if !opts.all && opts.files.is_empty() && !opts.bless {
        return Err("nothing to do: pass --all, --bless, and/or .pinv files".to_string());
    }
    if opts.bless {
        let conflicting = opts.all
            || !opts.files.is_empty()
            || opts.no_cache
            || opts.timeout_ms.is_some()
            || opts.max_refinements.is_some()
            || opts.choice != RefinerChoice::Both
            || engine_set
            || opts.json_path.is_some()
            || opts.golden_path.is_some();
        if conflicting {
            return Err("--bless runs the full corpus under a fixed configuration (the whole \
                        engine portfolio, plus the cached + uncached cegar trajectory); it only \
                        combines with --jobs and --quiet"
                .to_string());
        }
    }
    Ok(opts)
}

/// Regenerates every committed golden snapshot and the trajectory point.
/// Paths are relative to the current directory, which must be the
/// repository root.
fn bless(jobs: usize) -> ExitCode {
    const CORPUS_GOLDEN: &str = "tests/golden/corpus.json";
    const BENCH_GOLDEN: &str = "tests/golden/bench.json";
    const BENCH_POINT: &str = "BENCH_pr10.json";
    if !std::path::Path::new("tests/golden").is_dir() {
        eprintln!("error: tests/golden/ not found; run --bless from the repository root");
        return ExitCode::FAILURE;
    }
    eprintln!("blessing: verifying the corpus with the whole engine portfolio (certified)...");
    let mut portfolio_tasks =
        make_tasks(corpus_programs(), EngineChoice::Portfolio, RefinerChoice::Both, None);
    for t in &mut portfolio_tasks {
        t.certify = true;
    }
    let portfolio = run_batch(portfolio_tasks, jobs);
    let portfolio_errors = portfolio.tasks.iter().filter(|t| t.verdict == "error").count();
    if portfolio_errors > 0 {
        eprintln!("error: {portfolio_errors} task(s) errored; refusing to bless broken goldens");
        return ExitCode::FAILURE;
    }
    // Blessing pins certificate digests into the goldens; every conclusive
    // verdict must carry a certificate the independent checker accepts.
    let cert_failures: Vec<String> = portfolio
        .tasks
        .iter()
        .filter(|t| matches!(t.cert_verdict.as_str(), "invalid" | "missing" | "unsupported"))
        .map(|t| {
            format!(
                "{}/{}: {} verdict has certificate audit {}: {}",
                t.program_name, t.engine, t.verdict, t.cert_verdict, t.cert_reason
            )
        })
        .collect();
    if !cert_failures.is_empty() {
        eprintln!(
            "error: certificate audit failed; refusing to bless:\n  {}",
            cert_failures.join("\n  ")
        );
        return ExitCode::FAILURE;
    }
    let diff = DifferentialReport::from_batch(&portfolio);
    let disagreements = diff.disagreements();
    if !disagreements.is_empty() {
        eprintln!(
            "error: cross-engine verdict disagreements; refusing to bless:\n  {}",
            disagreements.join("\n  ")
        );
        return ExitCode::FAILURE;
    }
    eprint!("{}", diff.render_summary());
    // The portfolio already contains the cached CEGAR corpus run; reuse its
    // cegar subset as the trajectory's cached side (the counters are
    // deterministic, so this is identical to a fresh run) and only the
    // uncached baseline is verified again.  The subset's wall clock is the
    // serial-equivalent sum of its task times.
    let cegar_tasks: Vec<_> =
        portfolio.tasks.iter().filter(|t| t.engine == "cegar").cloned().collect();
    let cached = pathinv_cli::BatchReport {
        jobs: portfolio.jobs,
        wall_ms_total: cegar_tasks.iter().map(|t| t.wall_ms).sum(),
        tasks: cegar_tasks,
    };
    eprintln!("blessing: verifying the corpus again (uncached cegar baseline)...");
    let mut trajectory = trajectory_from_cached(cached, jobs);
    eprintln!("blessing: racing the portfolio over the corpus (4 lanes per program)...");
    let race = pathinv_cli::race::run_race(corpus_programs(), jobs.min(4), false, None);
    let race_mismatches = race.mismatches();
    if !race_mismatches.is_empty() {
        eprintln!(
            "error: racing lanes disagree; refusing to bless:\n  {}",
            race_mismatches.join("\n  ")
        );
        return ExitCode::FAILURE;
    }
    let race_vs_portfolio = race.mismatches_against_portfolio(&diff);
    if !race_vs_portfolio.is_empty() {
        eprintln!(
            "error: racing verdicts contradict the portfolio; refusing to bless:\n  {}",
            race_vs_portfolio.join("\n  ")
        );
        return ExitCode::FAILURE;
    }
    trajectory.race = Some(race);
    eprintln!("blessing: daemon harness (thread-phase cold/warm timings, chaos availability)...");
    let smoke = match pathinv_cli::smoke::run_serve_smoke(42, false) {
        Ok(smoke) => smoke,
        Err(msg) => {
            eprintln!("error: serve-smoke harness failed; refusing to bless: {msg}");
            return ExitCode::FAILURE;
        }
    };
    trajectory.serve = Some(pathinv_cli::trajectory::ServeBench {
        programs: smoke.programs,
        cold_ms: smoke.cold_ms,
        warm_ms: smoke.warm_restart_ms,
    });
    eprintln!("blessing: supervision pass (process-isolation overhead)...");
    let mut supervision = pathinv_cli::serve::bench_supervision(jobs.min(4));
    supervision.chaos_submitted = smoke.chaos.submitted;
    supervision.chaos_answered = smoke.chaos.answered;
    supervision.chaos_quarantined = smoke.chaos.quarantined;
    supervision.availability = smoke.chaos.availability();
    trajectory.supervision = Some(supervision);
    let errors = trajectory
        .cached
        .tasks
        .iter()
        .chain(trajectory.uncached.tasks.iter())
        .filter(|t| t.verdict == "error")
        .count();
    if errors > 0 {
        eprintln!("error: {errors} task(s) errored; refusing to bless broken goldens");
        return ExitCode::FAILURE;
    }
    let parity = trajectory.parity_failures();
    if !parity.is_empty() {
        eprintln!(
            "error: cached and uncached runs disagree on observable outcomes:\n  {}",
            parity.join("\n  ")
        );
        return ExitCode::FAILURE;
    }
    let writes = [
        (CORPUS_GOLDEN, portfolio.to_golden_json().pretty()),
        (BENCH_GOLDEN, trajectory.to_golden_json().pretty()),
        (BENCH_POINT, trajectory.to_json().pretty()),
    ];
    for (path, text) in writes {
        if let Err(e) = std::fs::write(path, text) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
        eprintln!("blessed {path}");
    }
    eprintln!(
        "solver calls: {} cached vs {} uncached ({:.1}% saved)",
        trajectory.totals.solver_calls,
        trajectory.baseline.solver_calls,
        trajectory.solver_call_reduction() * 100.0
    );
    let valid = trajectory.cached.tasks.iter().filter(|t| t.cert_verdict == "valid").count();
    let vacuous = trajectory.cached.tasks.iter().filter(|t| t.cert_verdict == "vacuous").count();
    let check_ms: f64 = trajectory.cached.tasks.iter().map(|t| t.cert_check_ms).sum();
    eprintln!(
        "certificates (cegar subset): {valid} validated, {vacuous} vacuous, \
         checker time {check_ms:.1} ms"
    );
    ExitCode::SUCCESS
}

/// The `--race` path: race the portfolio lanes per program, print the race
/// table, and hard-fail on any conclusive-lane disagreement or lane error.
fn race_main(
    programs: Vec<(String, pathinv_ir::Program)>,
    opts: &Options,
    load_failures: usize,
) -> ExitCode {
    let report = pathinv_cli::race::run_race(programs, opts.jobs, opts.certify, opts.timeout_ms);
    if !opts.quiet {
        print!("{}", report.render_table());
    }
    if let Some(path) = &opts.json_path {
        let text = report.to_json().pretty();
        if path == "-" {
            print!("{text}");
        } else if let Err(e) = std::fs::write(path, text) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    let mismatches = report.mismatches();
    for m in &mismatches {
        eprintln!("error: race verdict mismatch: {m}");
    }
    let errors = report.errors();
    for e in &errors {
        eprintln!("error: {e}");
    }
    let cert_failures = if opts.certify { report.certificate_failures() } else { Vec::new() };
    for c in &cert_failures {
        eprintln!("error: {c}");
    }
    if mismatches.is_empty() && errors.is_empty() && cert_failures.is_empty() && load_failures == 0
    {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The `trajectory --history` subcommand: render every committed
/// `BENCH_*.json` point in the given directory as one table.
fn trajectory_history(args: &[String]) -> ExitCode {
    let mut dir: Option<String> = None;
    let mut history = false;
    for arg in args {
        match arg.as_str() {
            "--history" => history = true,
            other if other.starts_with('-') => {
                eprintln!("error: unknown trajectory option `{other}`\n\n{USAGE}");
                return ExitCode::from(2);
            }
            path => {
                if dir.replace(path.to_string()).is_some() {
                    eprintln!("error: trajectory takes at most one directory\n\n{USAGE}");
                    return ExitCode::from(2);
                }
            }
        }
    }
    if !history {
        eprintln!("error: the trajectory subcommand requires --history\n\n{USAGE}");
        return ExitCode::from(2);
    }
    let dir = std::path::PathBuf::from(dir.unwrap_or_else(|| ".".to_string()));
    match pathinv_cli::trajectory::collect_history(&dir) {
        Ok(points) if points.is_empty() => {
            eprintln!("error: no BENCH_*.json trajectory points found in {}", dir.display());
            ExitCode::FAILURE
        }
        Ok(points) => {
            print!("{}", pathinv_cli::trajectory::render_history(&points));
            ExitCode::SUCCESS
        }
        Err(msg) => {
            eprintln!("error: {msg}");
            ExitCode::FAILURE
        }
    }
}

/// The `fuzz` subcommand: seeded generation plus three-way differential
/// cross-checking; exits 1 on any finding.
fn fuzz_main(args: &[String]) -> ExitCode {
    let mut opts = pathinv_cli::fuzz::FuzzOptions { jobs: default_jobs(), ..Default::default() };
    let mut json_path: Option<String> = None;
    let mut reproducer_dir: Option<String> = None;
    let mut quiet = false;
    let mut it = args.iter();
    let mut parse = || -> Result<(), String> {
        while let Some(arg) = it.next() {
            let mut value_for =
                |flag: &str| it.next().cloned().ok_or_else(|| format!("{flag} requires a value"));
            match arg.as_str() {
                "--seed" => {
                    let v = value_for("--seed")?;
                    opts.seed = v.parse().map_err(|_| format!("bad --seed `{v}`"))?;
                }
                "--count" => {
                    let v = value_for("--count")?;
                    opts.count = v.parse().map_err(|_| format!("bad --count `{v}`"))?;
                }
                "--jobs" => {
                    let v = value_for("--jobs")?;
                    let n: usize = v.parse().map_err(|_| format!("bad --jobs `{v}`"))?;
                    if n == 0 {
                        return Err("--jobs must be at least 1".to_string());
                    }
                    opts.jobs = n;
                }
                "--cache-sample" => {
                    let v = value_for("--cache-sample")?;
                    opts.cache_sample =
                        v.parse().map_err(|_| format!("bad --cache-sample `{v}`"))?;
                }
                "--shrink-budget" => {
                    let v = value_for("--shrink-budget")?;
                    opts.shrink_budget =
                        v.parse().map_err(|_| format!("bad --shrink-budget `{v}`"))?;
                }
                "--timeout-ms" => {
                    let v = value_for("--timeout-ms")?;
                    let ms: u64 = v.parse().map_err(|_| format!("bad --timeout-ms `{v}`"))?;
                    if ms == 0 {
                        return Err("--timeout-ms must be at least 1".to_string());
                    }
                    opts.timeout_ms = Some(ms);
                }
                "--json" => json_path = Some(value_for("--json")?),
                "--reproducers" => reproducer_dir = Some(value_for("--reproducers")?),
                "--certify" => opts.certify = true,
                "--quiet" => quiet = true,
                other => return Err(format!("unknown fuzz option `{other}`")),
            }
        }
        Ok(())
    };
    if let Err(msg) = parse() {
        eprintln!("error: {msg}\n\n{USAGE}");
        return ExitCode::from(2);
    }
    let report = pathinv_cli::fuzz::run_fuzz(&opts);
    if !quiet {
        print!("{}", report.render_summary());
    }
    if let Some(path) = &json_path {
        let text = report.to_json().pretty();
        if path == "-" {
            print!("{text}");
        } else if let Err(e) = std::fs::write(path, text) {
            eprintln!("error: cannot write {path}: {e}");
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
    let mut it = args.iter();
    let mut parse = || -> Result<(), String> {
        while let Some(arg) = it.next() {
            let mut value_for =
                |flag: &str| it.next().cloned().ok_or_else(|| format!("{flag} requires a value"));
            match arg.as_str() {
                "--socket" => config.socket = Some(value_for("--socket")?.into()),
                "--cache" => config.cache_path = Some(value_for("--cache")?.into()),
                "--workers" => {
                    let v = value_for("--workers")?;
                    let n: usize = v.parse().map_err(|_| format!("bad --workers `{v}`"))?;
                    if n == 0 {
                        return Err("--workers must be at least 1".to_string());
                    }
                    config.workers = n;
                }
                "--queue" => {
                    let v = value_for("--queue")?;
                    let n: usize = v.parse().map_err(|_| format!("bad --queue `{v}`"))?;
                    if n == 0 {
                        return Err("--queue must be at least 1".to_string());
                    }
                    config.queue_capacity = n;
                }
                "--timeout-ms" => {
                    let v = value_for("--timeout-ms")?;
                    let ms: u64 = v.parse().map_err(|_| format!("bad --timeout-ms `{v}`"))?;
                    if ms == 0 {
                        return Err("--timeout-ms must be at least 1".to_string());
                    }
                    config.default_timeout_ms = Some(ms);
                }
                "--drain-grace-ms" => {
                    let v = value_for("--drain-grace-ms")?;
                    config.drain_grace_ms =
                        v.parse().map_err(|_| format!("bad --drain-grace-ms `{v}`"))?;
                }
                "--isolate" => {
                    config.isolation = match value_for("--isolate")?.as_str() {
                        "thread" => pathinv_cli::serve::IsolationMode::Thread,
                        "process" => pathinv_cli::serve::IsolationMode::Process,
                        other => return Err(format!("unknown --isolate mode `{other}`")),
                    };
                }
                "--retries" => {
                    let v = value_for("--retries")?;
                    config.max_retries = v.parse().map_err(|_| format!("bad --retries `{v}`"))?;
                }
                "--retry-backoff-ms" => {
                    let v = value_for("--retry-backoff-ms")?;
                    let ms: u64 = v.parse().map_err(|_| format!("bad --retry-backoff-ms `{v}`"))?;
                    if ms == 0 {
                        return Err("--retry-backoff-ms must be at least 1".to_string());
                    }
                    config.retry_backoff_ms = ms;
                }
                "--breaker-threshold" => {
                    let v = value_for("--breaker-threshold")?;
                    config.breaker_threshold =
                        v.parse().map_err(|_| format!("bad --breaker-threshold `{v}`"))?;
                }
                "--breaker-cooldown-ms" => {
                    let v = value_for("--breaker-cooldown-ms")?;
                    let ms: u64 =
                        v.parse().map_err(|_| format!("bad --breaker-cooldown-ms `{v}`"))?;
                    if ms == 0 {
                        return Err("--breaker-cooldown-ms must be at least 1".to_string());
                    }
                    config.breaker_cooldown_ms = ms;
                }
                "--cache-compact-bytes" => {
                    let v = value_for("--cache-compact-bytes")?;
                    let bytes: u64 =
                        v.parse().map_err(|_| format!("bad --cache-compact-bytes `{v}`"))?;
                    if bytes == 0 {
                        return Err("--cache-compact-bytes must be at least 1".to_string());
                    }
                    config.cache_compact_bytes = Some(bytes);
                }
                "--chaos" => {
                    let v = value_for("--chaos")?;
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
        eprintln!("error: {msg}\n\n{USAGE}");
        return ExitCode::from(2);
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
    let mut it = args.iter();
    let mut parse = || -> Result<(), String> {
        while let Some(arg) = it.next() {
            let mut value_for =
                |flag: &str| it.next().cloned().ok_or_else(|| format!("{flag} requires a value"));
            match arg.as_str() {
                "--seed" => {
                    let v = value_for("--seed")?;
                    seed = v.parse().map_err(|_| format!("bad --seed `{v}`"))?;
                }
                "--json" => json_path = Some(value_for("--json")?),
                other => return Err(format!("unknown serve-smoke option `{other}`")),
            }
        }
        Ok(())
    };
    if let Err(msg) = parse() {
        eprintln!("error: {msg}\n\n{USAGE}");
        return ExitCode::from(2);
    }
    let report = match pathinv_cli::smoke::run_serve_smoke(seed, true) {
        Ok(report) => report,
        Err(msg) => {
            eprintln!("error: serve-smoke failed: {msg}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(path) = json_path {
        let text = report.to_json().pretty();
        if path == "-" {
            print!("{text}");
        } else if let Err(e) = std::fs::write(&path, text) {
            eprintln!("error: cannot write {path}: {e}");
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
    if args.first().map(String::as_str) == Some("trajectory") {
        return trajectory_history(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("fuzz") {
        return fuzz_main(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("serve") {
        return serve_main(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("serve-smoke") {
        return serve_smoke_main(&args[1..]);
    }
    let opts = match parse_args(&args) {
        Ok(opts) => opts,
        Err(msg) => {
            if msg.is_empty() {
                print!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            eprintln!("error: {msg}\n\n{USAGE}");
            return ExitCode::from(2);
        }
    };

    if opts.bless {
        return bless(opts.jobs);
    }

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

    if opts.race {
        return race_main(programs, &opts, load_failures);
    }

    let mut tasks = make_tasks(programs, opts.engines, opts.choice, opts.max_refinements);
    if opts.certify {
        for t in &mut tasks {
            t.certify = true;
        }
    }
    if opts.timeout_ms.is_some() {
        for t in &mut tasks {
            t.timeout_ms = opts.timeout_ms;
        }
    }
    if opts.no_cache {
        for t in &mut tasks {
            t.disable_cegar_caching();
        }
    }
    if let Some(workers) = opts.beam_workers {
        for t in &mut tasks {
            t.set_beam_workers(workers);
        }
    }
    let report = run_batch(tasks, opts.jobs);
    let differential = opts.engines.is_portfolio().then(|| DifferentialReport::from_batch(&report));

    if !opts.quiet {
        print!("{}", report.render_table());
        if let Some(diff) = &differential {
            print!("{}", diff.render_summary());
        }
    }
    if let Some(path) = &opts.json_path {
        let mut doc = report.to_json();
        if let (Some(diff), pathinv_cli::json::Json::Object(fields)) = (&differential, &mut doc) {
            fields.push(("differential".to_string(), diff.to_json()));
        }
        let text = doc.pretty();
        if path == "-" {
            print!("{text}");
        } else if let Err(e) = std::fs::write(path, text) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }
    if let Some(path) = &opts.golden_path {
        let text = report.to_golden_json().pretty();
        if path == "-" {
            print!("{text}");
        } else if let Err(e) = std::fs::write(path, text) {
            eprintln!("error: cannot write {path}: {e}");
            return ExitCode::FAILURE;
        }
    }

    let errors = report.tasks.iter().filter(|t| t.verdict == "error").count();
    let disagreements = differential.as_ref().map(|d| d.disagreements().len()).unwrap_or(0);
    if disagreements > 0 {
        eprintln!("error: {disagreements} cross-engine verdict disagreement(s)");
    }
    let mut cert_failures = 0usize;
    if opts.certify {
        for t in &report.tasks {
            if matches!(t.cert_verdict.as_str(), "invalid" | "missing" | "unsupported") {
                eprintln!(
                    "error: {}/{}: {} verdict has certificate audit {}: {}",
                    t.program_name, t.engine, t.verdict, t.cert_verdict, t.cert_reason
                );
                cert_failures += 1;
            }
        }
        if !opts.quiet {
            let valid = report.tasks.iter().filter(|t| t.cert_verdict == "valid").count();
            let vacuous = report.tasks.iter().filter(|t| t.cert_verdict == "vacuous").count();
            let check_ms: f64 = report.tasks.iter().map(|t| t.cert_check_ms).sum();
            println!(
                "certificates: {valid} validated, {vacuous} vacuous, {cert_failures} failed, \
                 checker time {check_ms:.1} ms"
            );
        }
    }
    if errors > 0 || load_failures > 0 || disagreements > 0 || cert_failures > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
