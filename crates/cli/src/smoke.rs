//! `pathinv-cli serve-smoke` — the end-to-end daemon harness.
//!
//! Spawns the *real* `pathinv-cli serve` binary on a Unix socket and checks
//! the service contracts from the outside, in two daemon phases.  Every
//! corpus job either phase sees answered `done` must match one independent
//! reference: the verdict and certificate digest of each program of the
//! source corpus ([`crate::corpus_sources`]), computed in a fresh
//! `run-one-job` child process before any daemon (or any chaos) exists.
//!
//! **Thread phase** (the default in-thread isolation):
//!
//! 1. A cold deck — the corpus plus a panicking (`panic-shim`) job and a
//!    malformed line — where every corpus job must run uncached, the panic
//!    must come back as an `error` task, and the malformed line as one
//!    protocol error.
//! 2. A warm pass on a new connection that must come entirely from the
//!    persistent cache.
//! 3. A SIGTERM drain that must exit 0.
//! 4. A fresh daemon over the surviving journal whose pass must come
//!    entirely from the cache.
//!
//! **Chaos phase** (`--isolate process --chaos seed=N`, a fresh journal):
//!
//! 1. The hostile deck — the corpus plus aborting, panicking,
//!    memory-hogging, spinning, and flaky engines and two malformed lines —
//!    after which the daemon must still be alive.
//! 2. A sequential wave of aborting jobs that must trip the abort-shim
//!    circuit breaker into `quarantined` fast-fails.
//! 3. A `stats` request that must report `workers_respawned`.
//! 4. A protocol `shutdown` that must be acknowledged and exit 0.
//! 5. A chaos-free daemon over the (possibly torn) journal whose corpus
//!    pass must still match the reference.
//!
//! Every pass goes through one collector, which requires each carried id to
//! be answered exactly once: a repeated, unknown, or missing id fails the
//! run, and so does an id-less line that is not a protocol error.  Chaos may
//! cost availability, never correctness.  Every random choice — both decks'
//! shuffles, the hostile probes, the daemon's fault schedule — derives from
//! the one seed, so a failing run replays exactly.  Each phase has a
//! deadline that bounds every read, so a daemon that stops answering fails
//! the run instead of hanging it.
//!
//! The [`Daemon`] spawner and protocol [`Client`] are shared with the
//! `serve_cli` integration tests.

use crate::isolate::{run_job_in_child, ChildRun};
use crate::json::{self, Json};
use crate::SCHEMA_VERSION;
use pathinv_core::CancellationToken;
use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader, ErrorKind, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long one daemon phase may take before the harness gives up.
const PHASE_BUDGET: Duration = Duration::from_secs(240);

/// A fresh path in the temp directory, unique per process and call.
pub fn temp_path(tag: &str) -> PathBuf {
    static COUNTER: std::sync::atomic::AtomicU64 = std::sync::atomic::AtomicU64::new(0);
    let n = COUNTER.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
    std::env::temp_dir().join(format!("pathinv-smoke-{}-{n}-{tag}", std::process::id()))
}

/// A spawned `serve` daemon; dropping it kills the process, so a failing
/// run never leaks daemons.
pub struct Daemon {
    /// The daemon process.
    pub child: Child,
}

impl Drop for Daemon {
    fn drop(&mut self) {
        let _ = self.child.kill();
        let _ = self.child.wait();
    }
}

impl Daemon {
    /// Spawns `exe serve --socket <socket> <args>` and waits for the socket
    /// to appear.  The daemon's stderr is shown only when `verbose`.
    ///
    /// # Errors
    ///
    /// When the process cannot start or creates no socket within 30 s.
    pub fn spawn(
        exe: &Path,
        socket: &Path,
        args: &[&str],
        verbose: bool,
    ) -> Result<Daemon, String> {
        let child = Command::new(exe)
            .args(["serve", "--socket"])
            .arg(socket)
            .args(args)
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(if verbose { Stdio::inherit() } else { Stdio::null() })
            .spawn()
            .map_err(|e| format!("cannot spawn daemon: {e}"))?;
        let daemon = Daemon { child };
        let start = Instant::now();
        while !socket.exists() {
            if start.elapsed() > Duration::from_secs(30) {
                return Err("daemon did not create its socket within 30 s".to_string());
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        Ok(daemon)
    }

    /// Waits for the daemon to exit on its own after `what` and requires
    /// exit code 0.
    fn expect_clean_exit(&mut self, what: &str) -> Result<(), String> {
        let start = Instant::now();
        loop {
            if let Some(status) =
                self.child.try_wait().map_err(|e| format!("daemon wait failed: {e}"))?
            {
                if status.code() != Some(0) {
                    return Err(format!("{what} must exit 0, got {status:?}"));
                }
                return Ok(());
            }
            if start.elapsed() > Duration::from_secs(60) {
                return Err(format!("daemon did not exit after {what}"));
            }
            std::thread::sleep(Duration::from_millis(10));
        }
    }
}

/// One protocol connection whose reads fail once its deadline passes.
pub struct Client {
    /// The write half of the connection.
    pub writer: UnixStream,
    reader: BufReader<UnixStream>,
    deadline: Instant,
}

impl Client {
    /// Connects to the daemon at `socket`; every later [`Client::recv`]
    /// fails once `deadline` has passed.
    pub fn connect(socket: &Path, deadline: Instant) -> Result<Client, String> {
        let stream = UnixStream::connect(socket)
            .map_err(|e| format!("cannot connect to {}: {e}", socket.display()))?;
        let reader =
            BufReader::new(stream.try_clone().map_err(|e| format!("cannot clone stream: {e}"))?);
        Ok(Client { writer: stream, reader, deadline })
    }

    /// Sends one request line.
    pub fn send(&mut self, line: &str) -> Result<(), String> {
        writeln!(self.writer, "{line}").map_err(|e| format!("send failed: {e}"))
    }

    /// Receives one response line; EOF, an unparseable line, and the
    /// deadline passing are errors.
    pub fn recv(&mut self) -> Result<Json, String> {
        let left = self.deadline.saturating_duration_since(Instant::now());
        if left.is_zero() {
            return Err("deadline passed while waiting for the daemon".to_string());
        }
        self.reader
            .get_ref()
            .set_read_timeout(Some(left))
            .map_err(|e| format!("cannot set read timeout: {e}"))?;
        let mut line = String::new();
        match self.reader.read_line(&mut line) {
            Ok(0) => Err("daemon closed the connection".to_string()),
            Ok(_) => json::parse(line.trim()).map_err(|e| format!("bad response `{line}`: {e}")),
            Err(e) if matches!(e.kind(), ErrorKind::WouldBlock | ErrorKind::TimedOut) => {
                Err("deadline passed while waiting for the daemon".to_string())
            }
            Err(e) => Err(format!("recv failed: {e}")),
        }
    }

    /// Receives until the connection ends (EOF, an error, or the deadline).
    pub fn recv_until_eof(&mut self) -> Vec<Json> {
        std::iter::from_fn(|| self.recv().ok()).collect()
    }
}

/// A compact `verify` request line; `extra` adds fields such as `engine`.
pub fn verify_request(id: i64, name: &str, source: &str, extra: &[(&str, Json)]) -> String {
    let mut fields = vec![
        ("op", Json::Str("verify".to_string())),
        ("id", Json::Int(id)),
        ("name", Json::Str(name.to_string())),
        ("program", Json::Str(source.to_string())),
    ];
    fields.extend(extra.iter().cloned());
    Json::object(fields).compact()
}

/// A string field of a response's task record (`""` when absent).
pub fn task_field<'j>(response: &'j Json, key: &str) -> &'j str {
    response.get("task").and_then(|t| t.get(key)).and_then(Json::as_str).unwrap_or_default()
}

/// Verdict and certificate digest per program name.
type Reference = BTreeMap<String, (String, String)>;

/// The reference: verdict and certificate digest per corpus program under
/// the daemon's default engine, each computed in a fresh `run-one-job`
/// child — the exact path a `--isolate process` daemon worker takes —
/// before any daemon (or any chaos) exists.  A fresh process per job keeps
/// the reference independent of whatever incremental-cache state the
/// *calling* process has accumulated: a warm cache can steer CEGAR to a
/// different (equally valid) invariant with a different certificate digest.
fn reference_verdicts(corpus: &[(String, String)]) -> Result<Reference, String> {
    let engine = pathinv_core::EngineSpec::named("cegar", None)?;
    let token = CancellationToken::new();
    let mut reference = BTreeMap::new();
    for (name, source) in corpus {
        match run_job_in_child(name, source, &engine, &token) {
            ChildRun::Done { task, verdict, .. } => {
                let digest =
                    task.get("cert_digest").and_then(Json::as_str).unwrap_or_default().to_string();
                reference.insert(name.clone(), (verdict, digest));
            }
            ChildRun::Killed => return Err(format!("reference run of {name} was killed")),
            ChildRun::Crashed { detail } => {
                return Err(format!("reference run of {name} crashed: {detail}"));
            }
        }
    }
    Ok(reference)
}

/// A deterministic splitmix-fed LCG; all harness randomness flows from it.
struct Rng(u64);

impl Rng {
    fn new(seed: u64) -> Rng {
        Rng(seed.wrapping_mul(0x9e37_79b9_7f4a_7c15).wrapping_add(1))
    }

    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        self.0 >> 16
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n.max(1)
    }
}

/// Which daemon a deck is built for.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Phase {
    /// In-thread isolation: only faults `catch_unwind` can absorb.
    Thread,
    /// Process isolation under `--chaos`: aborts, hogs, and spinners too.
    Chaos,
}

/// One line of a workload deck.
#[derive(Clone, Debug, PartialEq, Eq)]
enum Probe {
    /// An honest corpus job: `(id, program name, source)`.
    Corpus(i64, String, String),
    /// A hostile job: `(id, engine, source, timeout_ms)`.
    Hostile(i64, &'static str, String, Option<u64>),
    /// A malformed protocol line (no id, must yield one protocol error).
    Malformed(&'static str),
}

impl Probe {
    fn id(&self) -> Option<i64> {
        match self {
            Probe::Corpus(id, ..) | Probe::Hostile(id, ..) => Some(*id),
            Probe::Malformed(_) => None,
        }
    }

    fn line(&self) -> String {
        match self {
            Probe::Corpus(id, name, source) => verify_request(*id, name, source, &[]),
            Probe::Hostile(id, engine, source, timeout_ms) => {
                let mut extra = vec![("engine", Json::Str(engine.to_string()))];
                extra.extend(timeout_ms.map(|ms| ("timeout_ms", Json::Int(ms as i64))));
                verify_request(*id, &format!("probe-{id}"), source, &extra)
            }
            Probe::Malformed(line) => line.to_string(),
        }
    }
}

/// Every corpus program once, with ids `0..n`.
fn corpus_deck(corpus: &[(String, String)]) -> Vec<Probe> {
    (0..)
        .zip(corpus)
        .map(|(id, (name, source))| Probe::Corpus(id, name.clone(), source.clone()))
        .collect()
}

/// The seed-shuffled cold deck of a phase: the corpus plus the phase's
/// hostile probes and malformed lines.  The thread phase gets only probes
/// an in-thread daemon survives — an `abort-shim` would kill it.
fn build_deck(corpus: &[(String, String)], seed: u64, phase: Phase) -> Vec<Probe> {
    // A two-variable program makes `flaky-shim` fault deterministically.
    const TWO_VAR: &str = "proc f(x: int, y: int) { x = 1; assert(x == 1); }";
    let mut rng = Rng::new(seed);
    let mut deck = corpus_deck(corpus);
    let sample = &corpus[0].1;
    match phase {
        Phase::Thread => {
            deck.push(Probe::Hostile(deck.len() as i64, "panic-shim", sample.clone(), None));
            deck.push(Probe::Malformed("this is not json {"));
        }
        Phase::Chaos => {
            for _ in 0..12 {
                let id = deck.len() as i64;
                deck.push(match rng.below(5) {
                    0 => Probe::Hostile(id, "abort-shim", sample.clone(), None),
                    1 => Probe::Hostile(id, "panic-shim", sample.clone(), None),
                    2 => Probe::Hostile(id, "memhog-shim", sample.clone(), Some(400)),
                    3 => Probe::Hostile(id, "spin-shim", sample.clone(), Some(250)),
                    _ => Probe::Hostile(id, "flaky-shim", TWO_VAR.to_string(), None),
                });
            }
            deck.push(Probe::Malformed("this is not json {"));
            deck.push(Probe::Malformed("{\"op\":\"verify\",\"id\":null}"));
        }
    }
    // Fisher–Yates off the same seed stream.
    for i in (1..deck.len()).rev() {
        deck.swap(i, rng.below(i as u64 + 1) as usize);
    }
    deck
}

/// The exactly-once bookkeeping of one pass: the ids still owed an answer,
/// the answers so far, and the protocol errors the malformed lines are owed.
struct Collector {
    pending: BTreeSet<i64>,
    answers: BTreeMap<i64, Json>,
    errors_owed: usize,
}

impl Collector {
    fn new(deck: &[Probe]) -> Collector {
        Collector {
            pending: deck.iter().filter_map(Probe::id).collect(),
            answers: BTreeMap::new(),
            errors_owed: deck.iter().filter(|p| p.id().is_none()).count(),
        }
    }

    fn complete(&self) -> bool {
        self.pending.is_empty() && self.errors_owed == 0
    }

    /// Accounts one response.  A repeated or unknown id, a surplus protocol
    /// error, and an id-less line that is not a protocol error are errors.
    fn feed(&mut self, response: Json) -> Result<(), String> {
        match response.get("id").and_then(Json::as_int) {
            Some(id) if self.pending.remove(&id) => {
                self.answers.insert(id, response);
                Ok(())
            }
            Some(id) if self.answers.contains_key(&id) => {
                Err(format!("id {id} answered more than once: {response:?}"))
            }
            Some(id) => Err(format!("answer for id {id}, which was never submitted")),
            None if self.errors_owed > 0
                && response.get("status").and_then(Json::as_str) == Some("error") =>
            {
                self.errors_owed -= 1;
                Ok(())
            }
            None => Err(format!("unexpected id-less response: {response:?}")),
        }
    }

    /// The answers by id; a missing answer or protocol error is an error.
    fn finish(self) -> Result<BTreeMap<i64, Json>, String> {
        if let Some(id) = self.pending.first() {
            return Err(format!("id {id} was never answered ({} missing)", self.pending.len()));
        }
        if self.errors_owed > 0 {
            return Err(format!("{} malformed line(s) got no protocol error", self.errors_owed));
        }
        Ok(self.answers)
    }
}

/// Sends a deck and collects its answers exactly once; returns them by id
/// with the wall-clock until the last one.  A `ping` then fences the
/// stream: any line before its `pong` is surplus, so a duplicate written
/// after the last expected answer still fails the pass.
fn run_deck(client: &mut Client, deck: &[Probe]) -> Result<(BTreeMap<i64, Json>, f64), String> {
    let start = Instant::now();
    for probe in deck {
        client.send(&probe.line())?;
    }
    let mut collector = Collector::new(deck);
    while !collector.complete() {
        let response = client
            .recv()
            .map_err(|e| format!("{e}; {} id(s) still unanswered", collector.pending.len()))?;
        collector.feed(response)?;
    }
    let wall_ms = start.elapsed().as_secs_f64() * 1e3;
    client.send("{\"op\":\"ping\"}")?;
    loop {
        let response = client.recv()?;
        if response.get("status").and_then(Json::as_str) == Some("pong") {
            break;
        }
        collector.feed(response)?;
    }
    Ok((collector.finish()?, wall_ms))
}

/// Answer counts of the chaos phase.
#[derive(Clone, Copy, Debug, Default)]
pub struct Tally {
    /// Verify submissions carrying an id.
    pub submitted: u64,
    /// Submissions answered `done`, `overloaded`, or `quarantined`.
    pub answered: u64,
    /// Submissions fast-failed by an open circuit breaker.
    pub quarantined: u64,
    /// Submissions rejected by admission control.
    pub overloaded: u64,
    /// Answered jobs whose task verdict was `error` (absorbed faults).
    pub faulted: u64,
}

impl Tally {
    /// `answered / submitted`, in `[0, 1]`.
    pub fn availability(&self) -> f64 {
        if self.submitted == 0 {
            return 0.0;
        }
        self.answered as f64 / self.submitted as f64
    }

    fn absorb(&mut self, other: Tally) {
        self.submitted += other.submitted;
        self.answered += other.answered;
        self.quarantined += other.quarantined;
        self.overloaded += other.overloaded;
        self.faulted += other.faulted;
    }
}

/// Checks a collected deck: every status must be `done` (or, when
/// `fast_fail_ok`, `quarantined`/`overloaded`), every corpus verdict and
/// digest must match the reference, and every corpus answer must have the
/// cache disposition `cached` (when given).
fn check_answers(
    deck: &[Probe],
    answers: &BTreeMap<i64, Json>,
    reference: &Reference,
    cached: Option<bool>,
    fast_fail_ok: bool,
) -> Result<Tally, String> {
    let mut tally = Tally::default();
    for probe in deck {
        let Some(id) = probe.id() else { continue };
        let response = &answers[&id];
        tally.submitted += 1;
        match response.get("status").and_then(Json::as_str).unwrap_or("?") {
            "done" => tally.answered += 1,
            "quarantined" if fast_fail_ok => {
                tally.answered += 1;
                tally.quarantined += 1;
                continue;
            }
            "overloaded" if fast_fail_ok => {
                tally.answered += 1;
                tally.overloaded += 1;
                continue;
            }
            other => return Err(format!("id {id}: unexpected status `{other}`: {response:?}")),
        }
        let verdict = task_field(response, "verdict");
        if verdict == "error" {
            tally.faulted += 1;
        }
        let Probe::Corpus(_, name, _) = probe else { continue };
        let (ref_verdict, ref_digest) =
            reference.get(name).ok_or_else(|| format!("no reference for {name}"))?;
        let digest = task_field(response, "cert_digest");
        if verdict != ref_verdict || digest != ref_digest {
            return Err(format!(
                "WRONG VERDICT: {name} answered {verdict}/{digest}, reference \
                 {ref_verdict}/{ref_digest}"
            ));
        }
        let was_cached = response.get("cached") == Some(&Json::Bool(true));
        if cached.is_some_and(|want| want != was_cached) {
            return Err(format!("{name} came back cached={was_cached}, expected {cached:?}"));
        }
    }
    Ok(tally)
}

/// What one harness run measured: the thread phase's pass timings and the
/// chaos phase's answer counts.
#[derive(Clone, Debug)]
pub struct SmokeReport {
    /// The scenario seed.
    pub seed: u64,
    /// Corpus programs per pass.
    pub programs: usize,
    /// Wall-clock of the thread phase's cold deck.
    pub cold_ms: f64,
    /// Wall-clock of the warm pass on the same daemon.
    pub warm_ms: f64,
    /// Wall-clock of the pass of a fresh daemon over the recovered journal.
    pub warm_restart_ms: f64,
    /// Chaos-phase answer counts (hostile deck plus breaker wave).
    pub chaos: Tally,
    /// Crashed workers the chaos daemon respawned, from its `stats`.
    pub workers_respawned: i64,
}

impl SmokeReport {
    /// The `--json` artifact.
    pub fn to_json(&self) -> Json {
        let round1 = |x: f64| Json::Float((x * 10.0).round() / 10.0);
        let int = |n: u64| Json::Int(n as i64);
        Json::object(vec![
            ("schema_version", Json::Int(SCHEMA_VERSION)),
            ("mode", Json::Str("serve-smoke".to_string())),
            ("seed", int(self.seed)),
            ("programs", Json::Int(self.programs as i64)),
            ("cold_ms", round1(self.cold_ms)),
            ("warm_ms", round1(self.warm_ms)),
            ("warm_restart_ms", round1(self.warm_restart_ms)),
            ("submitted", int(self.chaos.submitted)),
            ("answered", int(self.chaos.answered)),
            ("quarantined", int(self.chaos.quarantined)),
            ("overloaded", int(self.chaos.overloaded)),
            ("faults_absorbed", int(self.chaos.faulted)),
            ("workers_respawned", Json::Int(self.workers_respawned)),
            ("availability", Json::Float((self.chaos.availability() * 1e4).round() / 1e4)),
        ])
    }
}

/// One harness run's fixed inputs.
struct Harness {
    exe: PathBuf,
    corpus: Vec<(String, String)>,
    reference: Reference,
    seed: u64,
}

impl Harness {
    fn say(&self, msg: &str) {
        eprintln!("serve-smoke: {msg}");
    }

    fn spawn(&self, socket: &Path, args: &[&str]) -> Result<Daemon, String> {
        Daemon::spawn(&self.exe, socket, args, true)
    }

    /// A corpus-only pass on a new connection, checked against `reference`;
    /// returns its wall-clock.
    fn corpus_pass(
        &self,
        socket: &Path,
        deadline: Instant,
        reference: &Reference,
        cached: Option<bool>,
    ) -> Result<f64, String> {
        let deck = corpus_deck(&self.corpus);
        let (answers, wall_ms) = run_deck(&mut Client::connect(socket, deadline)?, &deck)?;
        check_answers(&deck, &answers, reference, cached, false)?;
        Ok(wall_ms)
    }

    /// The thread phase; returns the cold, warm, and restart wall-clocks.
    fn thread_phase(&self) -> Result<(f64, f64, f64), String> {
        let deadline = Instant::now() + PHASE_BUDGET;
        let socket = temp_path("thread.sock");
        let journal = temp_path("thread.journal");
        let journal_arg = journal.display().to_string();
        let mut daemon = self.spawn(&socket, &["--cache", &journal_arg])?;

        let deck = build_deck(&self.corpus, self.seed, Phase::Thread);
        let (answers, cold_ms) = run_deck(&mut Client::connect(&socket, deadline)?, &deck)?;
        // In-thread jobs share the daemon's symbol interner, and a CEGAR
        // certificate (never its verdict) can depend on the order earlier
        // jobs interned their names in.  So the cold deck is held to the
        // reference verdicts, and the cached passes to the cold digests.
        let mut reference = self.reference.clone();
        for probe in &deck {
            if let Probe::Corpus(id, name, _) = probe {
                let digest = task_field(&answers[id], "cert_digest").to_string();
                reference.entry(name.clone()).and_modify(|entry| entry.1 = digest);
            }
        }
        check_answers(&deck, &answers, &reference, Some(false), false)?;
        for probe in &deck {
            let Probe::Hostile(id, ..) = probe else { continue };
            let (verdict, detail) =
                (task_field(&answers[id], "verdict"), task_field(&answers[id], "detail"));
            if verdict != "error" || !detail.contains("panicked") {
                return Err(format!(
                    "panic-shim job must yield an errored task, got {verdict}: {detail}"
                ));
            }
        }
        self.say(&format!("cold deck done in {cold_ms:.0} ms; panic + malformed probes absorbed"));

        let warm_ms = self.corpus_pass(&socket, deadline, &reference, Some(true))?;
        self.say(&format!("warm pass done in {warm_ms:.0} ms, all from the cache"));

        let pid = daemon.child.id().to_string();
        let status = Command::new("kill")
            .args(["-TERM", &pid])
            .status()
            .map_err(|e| format!("cannot send SIGTERM: {e}"))?;
        if !status.success() {
            return Err("kill -TERM failed".to_string());
        }
        daemon.expect_clean_exit("the SIGTERM drain")?;
        self.say("SIGTERM drain: exit 0");

        let socket = temp_path("thread-restart.sock");
        let _daemon = self.spawn(&socket, &["--cache", &journal_arg])?;
        let restart_ms = self.corpus_pass(&socket, deadline, &reference, Some(true))?;
        self.say(&format!("restart pass done in {restart_ms:.0} ms from the recovered journal"));
        std::fs::remove_file(&journal).ok();
        Ok((cold_ms, warm_ms, restart_ms))
    }

    /// The chaos phase; returns its answer counts and respawned workers.
    fn chaos_phase(&self) -> Result<(Tally, i64), String> {
        let deadline = Instant::now() + PHASE_BUDGET;
        let socket = temp_path("chaos.sock");
        let journal = temp_path("chaos.journal");
        let journal_arg = journal.display().to_string();
        let chaos = format!(
            "--isolate process --chaos seed={} --retries 1 --retry-backoff-ms 20 \
             --breaker-threshold 3 --breaker-cooldown-ms 400",
            self.seed
        );
        let mut args = vec!["--cache", &journal_arg];
        args.extend(chaos.split_whitespace());
        let mut daemon = self.spawn(&socket, &args)?;

        let deck = build_deck(&self.corpus, self.seed, Phase::Chaos);
        let mut client = Client::connect(&socket, deadline)?;
        let (answers, _) = run_deck(&mut client, &deck)?;
        if let Some(status) = daemon.child.try_wait().map_err(|e| format!("daemon wait: {e}"))? {
            return Err(format!("the daemon died under chaos: {status:?}"));
        }
        let mut tally = check_answers(&deck, &answers, &self.reference, None, true)?;
        self.say(&format!(
            "hostile deck: all {} jobs answered exactly once ({} quarantined, {} overloaded, \
             {} faults absorbed); verdicts match the reference",
            tally.answered, tally.quarantined, tally.overloaded, tally.faulted
        ));

        // The batched deck is admitted before any breaker can trip, so drive
        // abort-shim *sequentially* until its circuit opens — a
        // `quarantined` fast-fail must arrive within a bounded number of
        // consecutive faults, whatever breaker state the deck left behind.
        let mut wave_quarantined = 0;
        for id in 1_000..1_008 {
            let wave = [Probe::Hostile(id, "abort-shim", self.corpus[0].1.clone(), None)];
            let (answers, _) = run_deck(&mut client, &wave)?;
            let step = check_answers(&wave, &answers, &self.reference, None, true)?;
            if step.overloaded > 0 {
                return Err(format!("breaker wave: job {id} was rejected as overloaded"));
            }
            tally.absorb(step);
            wave_quarantined += step.quarantined;
            if wave_quarantined >= 2 {
                break;
            }
        }
        if wave_quarantined == 0 {
            return Err("the abort-shim breaker never quarantined under sequential faults".into());
        }
        self.say(&format!("breaker wave: abort-shim quarantined ({wave_quarantined} fast-fails)"));

        client.send("{\"op\":\"stats\",\"id\":999999}")?;
        let stats = client.recv()?;
        if stats.get("status").and_then(Json::as_str) != Some("stats") {
            return Err(format!("expected a stats response, got {stats:?}"));
        }
        let respawned = stats
            .get("workers_respawned")
            .and_then(Json::as_int)
            .ok_or("stats response is missing workers_respawned")?;
        self.say(&format!("daemon stats: {respawned} workers respawned under chaos"));

        client.send("{\"op\":\"shutdown\"}")?;
        let ack = client.recv()?;
        if ack.get("status").and_then(Json::as_str) != Some("shutdown") {
            return Err(format!("expected a shutdown acknowledgement, got {ack:?}"));
        }
        drop(client);
        daemon.expect_clean_exit("the protocol shutdown")?;
        self.say("protocol shutdown: acknowledged, exit 0");

        let socket = temp_path("chaos-restart.sock");
        let _daemon = self.spawn(&socket, &["--cache", &journal_arg])?;
        self.corpus_pass(&socket, deadline, &self.reference, None)?;
        self.say("chaos-free restart over the surviving journal: all verdicts match");
        std::fs::remove_file(&journal).ok();
        Ok((tally, respawned))
    }
}

/// Runs both daemon phases of the harness with the scenario `seed`,
/// printing per-phase progress and the daemons' stderr.  Only
/// meaningful from inside the real `pathinv-cli` binary, which it re-execs
/// as the daemon and as the reference's `run-one-job` children.
///
/// # Errors
///
/// Returns a human-readable message on the first contract violation (a
/// dead or hung daemon, a dropped or duplicated answer, a wrong verdict, a
/// missed cache, an unclean drain); the caller exits 1.
pub fn run_serve_smoke(seed: u64) -> Result<SmokeReport, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own binary: {e}"))?;
    let corpus = crate::corpus_sources();
    let reference = reference_verdicts(&corpus)?;
    let harness = Harness { exe, corpus, reference, seed };
    harness.say(&format!("reference computed for {} programs; seed {seed}", harness.corpus.len()));
    let (cold_ms, warm_ms, warm_restart_ms) = harness.thread_phase()?;
    let (chaos, workers_respawned) = harness.chaos_phase()?;
    Ok(SmokeReport {
        seed,
        programs: harness.corpus.len(),
        cold_ms,
        warm_ms,
        warm_restart_ms,
        chaos,
        workers_respawned,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn response(id: i64) -> Json {
        Json::object(vec![("id", Json::Int(id)), ("status", Json::Str("done".to_string()))])
    }

    #[test]
    fn recv_fails_at_the_deadline_when_the_daemon_never_answers() {
        let socket = temp_path("silent.sock");
        let _listener = std::os::unix::net::UnixListener::bind(&socket).unwrap();
        let start = Instant::now();
        let mut client = Client::connect(&socket, start + Duration::from_millis(200)).unwrap();
        assert!(client.recv().is_err());
        assert!(start.elapsed() < Duration::from_secs(5), "recv took {:?}", start.elapsed());
        std::fs::remove_file(&socket).ok();
    }

    #[test]
    fn collector_rejects_a_duplicated_and_a_missing_id() {
        let deck = corpus_deck(&[("a".into(), "src".into()), ("b".into(), "src".into())]);
        let mut duplicated = Collector::new(&deck);
        duplicated.feed(response(0)).unwrap();
        assert!(duplicated.feed(response(0)).is_err());

        let mut missing = Collector::new(&deck);
        missing.feed(response(1)).unwrap();
        assert!(!missing.complete());
        assert!(missing.finish().is_err());

        let mut unknown = Collector::new(&deck);
        assert!(unknown.feed(response(7)).is_err());
        assert!(unknown.feed(Json::object(vec![("status", Json::Str("done".into()))])).is_err());
    }

    #[test]
    fn decks_are_seed_determined_and_the_thread_deck_is_gentle() {
        let corpus = crate::corpus_sources();
        for phase in [Phase::Thread, Phase::Chaos] {
            assert_eq!(build_deck(&corpus, 42, phase), build_deck(&corpus, 42, phase));
        }
        assert_ne!(build_deck(&corpus, 42, Phase::Chaos), build_deck(&corpus, 43, Phase::Chaos));
        let thread = build_deck(&corpus, 42, Phase::Thread);
        assert_eq!(thread.len(), corpus.len() + 2);
        for probe in &thread {
            match probe {
                Probe::Corpus(..) | Probe::Malformed(_) => {}
                Probe::Hostile(_, engine, ..) => assert_eq!(*engine, "panic-shim"),
            }
        }
        assert_eq!(thread.iter().filter(|p| matches!(p, Probe::Malformed(_))).count(), 1);
        let chaos = build_deck(&corpus, 42, Phase::Chaos);
        assert!(chaos.iter().any(|p| matches!(p, Probe::Hostile(_, "abort-shim", ..))));
    }
}
