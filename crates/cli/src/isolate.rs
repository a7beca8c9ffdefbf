//! Process isolation for service jobs: the `run-one-job` re-exec protocol.
//!
//! Thread-level fault isolation (`catch_unwind` in [`pathinv_core::run_job`])
//! absorbs panics, but an abort, a stack overflow, or the OOM killer takes
//! the whole daemon down with the job.  Under `serve --isolate process`
//! each job instead runs in a re-exec'd child of the `pathinv-cli` binary:
//!
//! * The worker spawns `current_exe() run-one-job` with piped
//!   stdin/stdout and writes **one** request line — the job's source text,
//!   engine, refiner, and report name as compact JSON.
//! * The child (the hidden [`run_one_job_main`] entrypoint, dispatched in
//!   `main` before normal argument parsing) parses the program, runs the
//!   job to completion with *no* deadline of its own, and answers one line:
//!   `{"task": <task record>, "verdict": ..., "cacheable": ...}`.
//! * The parent polls child exit against the job's [`CancellationToken`]
//!   (which the admission-time watchdog cancels on deadline and the drain
//!   cancels on shutdown) and **hard-kills** the child the moment the token
//!   fires — a hung or hogging child cannot outlive its deadline.
//! * A child that dies any other way (SIGABRT, SIGSEGV, SIGKILL from the
//!   OOM killer, a garbled reply) is reported as a [`ChildRun::Crashed`]
//!   fault, which the supervisor turns into an `"error"` task — the daemon
//!   keeps serving.
//!
//! The certificate carried by a conclusive verdict never crosses the pipe
//! as a structured object; the task record already embeds its kind, size,
//! and digest, which is all the protocol (and the verdict cache) persists.

use crate::json::{self, Json};
use pathinv_core::{run_job, CancellationToken, EngineSpec, JobSpec};
use pathinv_ir::parse_program;
use pathinv_report::TaskReport;
use std::io::{Read, Write};
use std::process::{Command, Stdio};
use std::time::Duration;

/// How one process-isolated job ended, from the parent's point of view.
pub enum ChildRun {
    /// The child ran the job and answered; the task record is its verbatim
    /// report.
    Done {
        /// The task record produced in the child.
        task: Json,
        /// The child's verdict (`"safe"`, …, `"error"`).
        verdict: String,
        /// Whether the child judged the outcome cache-admissible.
        cacheable: bool,
    },
    /// The parent killed the child because the job's token fired (deadline
    /// or shutdown drain); the supervisor reports an honest `cancelled`.
    Killed,
    /// The child died on its own — signal, nonzero exit, or an unparseable
    /// reply.  A fault: the supervisor reports an `error` task and feeds
    /// the circuit breaker.
    Crashed {
        /// Human-readable cause for the task's `detail` field.
        detail: String,
    },
}

/// Runs one job in a re-exec'd child, hard-killing it if `token` fires.
pub fn run_job_in_child(
    name: &str,
    source: &str,
    engine: &EngineSpec,
    token: &CancellationToken,
) -> ChildRun {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => return ChildRun::Crashed { detail: format!("cannot locate own binary: {e}") },
    };
    let mut child = match Command::new(exe)
        .arg("run-one-job")
        .stdin(Stdio::piped())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
    {
        Ok(child) => child,
        Err(e) => return ChildRun::Crashed { detail: format!("cannot spawn job process: {e}") },
    };
    let request = Json::object(vec![
        ("program", Json::Str(source.to_string())),
        ("engine", Json::Str(engine.engine_name().to_string())),
        ("refiner", Json::Str(engine.refiner_name().to_string())),
        ("name", Json::Str(name.to_string())),
    ]);
    if let Some(mut stdin) = child.stdin.take() {
        // A child that aborts before reading closes the pipe; the write
        // error is subsumed by the exit-status handling below.
        let _ = writeln!(stdin, "{}", request.compact());
    }
    // Drain stdout on a side thread so a long reply can never deadlock
    // against a full pipe while the parent only polls for exit.
    let stdout = child.stdout.take();
    let reader = std::thread::spawn(move || {
        let mut text = String::new();
        if let Some(mut stdout) = stdout {
            let _ = stdout.read_to_string(&mut text);
        }
        text
    });
    loop {
        match child.try_wait() {
            Ok(Some(status)) => {
                let text = reader.join().unwrap_or_default();
                if status.success() {
                    return parse_child_reply(&text);
                }
                use std::os::unix::process::ExitStatusExt;
                let detail = match status.signal() {
                    Some(sig) => format!("engine process died on signal {sig}"),
                    None => {
                        format!("engine process exited with status {}", status.code().unwrap_or(-1))
                    }
                };
                return ChildRun::Crashed { detail };
            }
            Ok(None) => {
                if token.is_cancelled() {
                    let _ = child.kill();
                    let _ = child.wait();
                    let _ = reader.join();
                    return ChildRun::Killed;
                }
                std::thread::sleep(Duration::from_millis(2));
            }
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                let _ = reader.join();
                return ChildRun::Crashed { detail: format!("cannot wait for job process: {e}") };
            }
        }
    }
}

/// Decodes the child's single reply line; anything short of a well-formed
/// task record counts as a crash.
fn parse_child_reply(text: &str) -> ChildRun {
    let Some(reply) = text.lines().next().and_then(|l| json::parse(l).ok()) else {
        return ChildRun::Crashed {
            detail: "engine process exited without a parseable result".to_string(),
        };
    };
    let (Some(task), Some(verdict)) =
        (reply.get("task").cloned(), reply.get("verdict").and_then(Json::as_str))
    else {
        return ChildRun::Crashed {
            detail: "engine process reply is missing task/verdict".to_string(),
        };
    };
    ChildRun::Done {
        task,
        verdict: verdict.to_string(),
        cacheable: reply.get("cacheable") == Some(&Json::Bool(true)),
    }
}

/// The hidden `run-one-job` entrypoint: reads one request line from stdin,
/// runs the job to completion, answers one reply line on stdout.  Returns
/// the process exit code — `0` for any job that *ran* (including `error`
/// verdicts), `2` for a malformed request.  Fault-injection shims may of
/// course never return at all; that is the point of the re-exec.
pub fn run_one_job_main() -> i32 {
    let mut line = String::new();
    if std::io::stdin().read_line(&mut line).is_err() {
        eprintln!("run-one-job: cannot read the request line");
        return 2;
    }
    let request = match json::parse(line.trim()) {
        Ok(v) => v,
        Err(e) => {
            eprintln!("run-one-job: malformed request: {e}");
            return 2;
        }
    };
    let Some(source) = request.get("program").and_then(Json::as_str) else {
        eprintln!("run-one-job: missing `program`");
        return 2;
    };
    let program = match parse_program(source) {
        Ok(p) => p,
        Err(e) => {
            eprintln!("run-one-job: program parse error: {e}");
            return 2;
        }
    };
    let engine_name = request.get("engine").and_then(Json::as_str).unwrap_or("cegar");
    let refiner =
        request.get("refiner").and_then(Json::as_str).filter(|r| *r != pathinv_core::NO_REFINER);
    let engine = match EngineSpec::named(engine_name, refiner) {
        Ok(engine) => engine,
        Err(e) => {
            eprintln!("run-one-job: {e}");
            return 2;
        }
    };
    let name = request.get("name").and_then(Json::as_str).unwrap_or("job").to_string();
    // No deadline in the child: the parent enforces deadlines by kill, so
    // an expired job can never linger here unnoticed.
    let outcome = run_job(&JobSpec::new(engine.clone()), &program, &CancellationToken::new());
    let task = TaskReport::from_outcome(name, &engine, &outcome).to_json();
    let reply = Json::object(vec![
        ("task", task),
        ("verdict", Json::Str(outcome.verdict.clone())),
        ("cacheable", Json::Bool(outcome.is_cacheable())),
    ]);
    let mut stdout = std::io::stdout();
    if writeln!(stdout, "{}", reply.compact()).and_then(|()| stdout.flush()).is_err() {
        return 2;
    }
    0
}
