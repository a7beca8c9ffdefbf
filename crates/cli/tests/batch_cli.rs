//! Integration tests for the batch harness: `.pinv` file loading and
//! end-to-end verification of the committed sample programs across worker
//! threads.

use pathinv_cli::{load_pinv_file, make_tasks, run_batch, EngineChoice, RefinerChoice};
use std::process::Command;

fn program_path(name: &str) -> String {
    format!("{}/../../programs/{name}", env!("CARGO_MANIFEST_DIR"))
}

/// Runs the real `pathinv-cli` binary and returns its exit code.
fn run_cli(args: &[&str]) -> i32 {
    Command::new(env!("CARGO_BIN_EXE_pathinv-cli"))
        .args(args)
        .output()
        .expect("pathinv-cli binary must run")
        .status
        .code()
        .expect("pathinv-cli must exit normally")
}

fn temp_pinv(name: &str, src: &str) -> String {
    let dir = std::env::temp_dir().join("pathinv-cli-exit-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(name);
    std::fs::write(&path, src).unwrap();
    path.to_str().unwrap().to_string()
}

/// Exit-code contract: a task that *errors* (here: nonlinear arithmetic the
/// solver rejects) must fail the run, even though the harness completes and
/// reports it.
#[test]
fn errored_tasks_exit_nonzero() {
    let bad = temp_pinv("nonlinear.pinv", "proc nl(x: int) { assert(x * x >= 0); }");
    assert_eq!(run_cli(&["--quiet", &bad]), 1, "an errored task must exit 1");
}

/// Non-`safe` verdicts are results, not failures: an unsafe program exits 0.
#[test]
fn unsafe_verdicts_exit_zero() {
    let buggy = temp_pinv("buggy.pinv", "proc b(x: int) { x = 1; assert(x == 2); }");
    assert_eq!(run_cli(&["--quiet", &buggy]), 0, "a falsified program is a completed task");
}

/// A file that cannot be loaded fails the run even when every loadable task
/// succeeds.
#[test]
fn load_failures_exit_nonzero() {
    let ok = temp_pinv("fine.pinv", "proc ok(x: int) { x = 1; assert(x == 1); }");
    assert_eq!(run_cli(&["--quiet", &ok, "/nonexistent/nope.pinv"]), 1);
}

/// A fresh path for a golden snapshot the test expects the CLI to write (or
/// to refuse to write).
fn temp_golden(name: &str) -> std::path::PathBuf {
    let dir = std::env::temp_dir().join("pathinv-cli-exit-tests");
    std::fs::create_dir_all(&dir).unwrap();
    let path = dir.join(format!("{}-{name}", std::process::id()));
    let _ = std::fs::remove_file(&path);
    path
}

/// `--golden` writes its snapshot only when the run passes: a file that
/// fails to load fails the run, and no snapshot appears.
#[test]
fn failing_runs_write_no_golden() {
    let ok = temp_pinv("golden_ok.pinv", "proc ok(x: int) { x = 1; assert(x == 1); }");
    let golden = temp_golden("refused.json");
    let golden_arg = golden.to_str().unwrap();
    assert_eq!(run_cli(&["--quiet", "--golden", golden_arg, &ok, "/nonexistent/nope.pinv"]), 1);
    assert!(!golden.exists(), "a failing run must not write {golden_arg}");
}

/// The one regeneration command reproduces the committed corpus golden
/// byte for byte.
#[test]
fn passing_portfolio_run_writes_the_committed_golden() {
    let golden = temp_golden("corpus.json");
    let golden_arg = golden.to_str().unwrap();
    let args = ["--quiet", "--all", "--engine", "portfolio", "--certify", "--golden", golden_arg];
    assert_eq!(run_cli(&args), 0);
    let written = std::fs::read_to_string(&golden).expect("a passing run writes the golden");
    std::fs::remove_file(&golden).ok();
    let committed = include_str!("../../../tests/golden/corpus.json");
    assert!(
        written == committed,
        "`pathinv-cli {}` differs from tests/golden/corpus.json",
        args.join(" ")
    );
}

/// Usage errors are distinguished from task failures.
#[test]
fn usage_errors_exit_two() {
    assert_eq!(run_cli(&["--refiner", "bogus"]), 2);
    assert_eq!(run_cli(&["--engine", "bogus"]), 2);
    assert_eq!(run_cli(&["--engine", "bmc", "--max-refinements", "3", "x.pinv"]), 2);
    assert_eq!(run_cli(&["--engine", "pdr", "--refiner", "both", "x.pinv"]), 2);
    assert_eq!(run_cli(&[]), 2, "no inputs is a usage error");
    assert_eq!(run_cli(&["--bless"]), 2, "--golden is the only regeneration path");
    assert_eq!(run_cli(&["--all", "--beam-workers", "2"]), 2, "the synthesis beam is sequential");
    assert_eq!(run_cli(&["--all", "--no-cache"]), 2, "caching is not a command-line option");
}

/// The portfolio cross-checks engines end-to-end through the real binary:
/// agreeing engines exit 0 even when some report `unknown`.
#[test]
fn portfolio_agreement_exits_zero() {
    let safe = temp_pinv("pf_safe.pinv", "proc ok(x: int) { x = 1; assert(x == 1); }");
    let buggy = temp_pinv("pf_bug.pinv", "proc b(x: int) { x = 1; assert(x == 2); }");
    assert_eq!(run_cli(&["--quiet", "--engine", "portfolio", &safe, &buggy]), 0);
}

/// A single non-CEGAR engine is selectable on its own; a bounded `unknown`
/// is a completed task, not a failure.
#[test]
fn single_engine_selection_runs_bmc_alone() {
    let loopy = temp_pinv(
        "pf_loop.pinv",
        "proc l(n: int) {
            var i: int;
            assume(n >= 0);
            i = 0;
            while (i < n) { i = i + 1; }
            assert(i >= n);
        }",
    );
    assert_eq!(run_cli(&["--quiet", "--engine", "bmc", &loopy]), 0);
}

#[test]
fn missing_and_malformed_files_are_reported_not_panicked() {
    let err = load_pinv_file("/nonexistent/nope.pinv").unwrap_err();
    assert!(err.contains("nope.pinv"), "{err}");

    let dir = std::env::temp_dir().join("pathinv-cli-test");
    std::fs::create_dir_all(&dir).unwrap();
    let bad = dir.join("bad.pinv");
    std::fs::write(&bad, "proc broken( { oops").unwrap();
    let err = load_pinv_file(bad.to_str().unwrap()).unwrap_err();
    assert!(err.contains("parse error"), "{err}");
}

#[test]
fn committed_sample_programs_verify_as_documented() {
    let programs = vec![
        load_pinv_file(&program_path("lockstep.pinv")).unwrap(),
        load_pinv_file(&program_path("array_reset_bug.pinv")).unwrap(),
    ];
    let report = run_batch(make_tasks(programs, EngineChoice::Cegar, RefinerChoice::Both, None), 4);
    assert_eq!(report.tasks.len(), 4);
    for t in &report.tasks {
        if t.program_name.ends_with("lockstep.pinv") {
            assert_eq!(t.verdict, "safe", "{}/{}: {}", t.program_name, t.refiner, t.detail);
        } else {
            assert_eq!(t.verdict, "unsafe", "{}/{}: {}", t.program_name, t.refiner, t.detail);
        }
    }
}

#[test]
fn triple_sum_needs_the_relational_path_invariant() {
    let programs = vec![load_pinv_file(&program_path("triple_sum.pinv")).unwrap()];
    let report = run_batch(
        make_tasks(programs, EngineChoice::Cegar, RefinerChoice::PathInvariants, None),
        1,
    );
    assert_eq!(report.tasks.len(), 1);
    assert_eq!(
        report.tasks[0].verdict, "safe",
        "triple_sum must be proved by path invariants: {}",
        report.tasks[0].detail
    );
    // The proof is found in a handful of refinements, not by unrolling.
    assert!(report.tasks[0].refinements <= 10, "{}", report.tasks[0].refinements);
}
