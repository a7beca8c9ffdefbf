//! `pathinv-cli serve` — the verification service daemon.
//!
//! A long-running process accepting line-delimited JSON jobs on a Unix
//! socket (`--socket PATH`) or on stdin, scheduling them on a worker pool,
//! and streaming one result line per job.  Robustness is the design driver
//! (DESIGN.md §14): every job is treated as hostile.
//!
//! * **Fault isolation.**  Jobs execute through [`pathinv_core::run_job`],
//!   so a panicking engine yields an `"error"` task — never a dead worker,
//!   never a dead daemon.
//! * **Deadlines.**  Each job's [`CancellationToken`] is registered with
//!   the watchdog *at admission* (queue wait counts), so an overdue job —
//!   including the deliberately divergent `spin-shim` — comes back as an
//!   honest `cancelled` verdict.
//! * **Bounded admission.**  The queue holds at most `--queue` jobs;
//!   beyond that, submissions are rejected immediately with
//!   `status: "overloaded"` instead of growing memory without bound.
//! * **Graceful shutdown.**  SIGTERM or `{"op":"shutdown"}` stops
//!   admission, lets in-flight jobs finish within `--drain-grace-ms`,
//!   cancels whatever is still queued or running after the grace, flushes
//!   the verdict cache, and exits 0.
//! * **Persistent memoization.**  Deterministic verdicts are cached in the
//!   crash-safe journal of [`crate::cache`], keyed on
//!   [`pathinv_core::job_fingerprint`]; a warm resubmission is served in
//!   `O(1)` with `cached: true`, across daemon restarts.
//! * **Supervision** (DESIGN.md §15).  `--isolate process` re-execs each
//!   job in a child of this binary ([`crate::isolate`]), so aborts, stack
//!   overflows, and OOM kills become `error` tasks instead of daemon death.
//!   A supervisor thread respawns crashed workers and re-enqueues
//!   transiently-failed jobs with bounded exponential backoff plus
//!   deterministic jitter.  A per-engine circuit breaker (keyed on
//!   [`EngineSpec::engine_name`]) trips open after `--breaker-threshold`
//!   consecutive faults, fast-fails submissions with
//!   `status: "quarantined"` while open, and half-opens after
//!   `--breaker-cooldown-ms` to admit a single probe.
//! * **Chaos mode.**  `--chaos seed=N` arms seeded fault injection — torn,
//!   failed, and slow cache writes plus random worker exits — so the chaos
//!   phase of the `serve-smoke` harness ([`crate::smoke`]) can prove the
//!   daemon survives a hostile environment without dying or serving a wrong
//!   verdict.
//!
//! # Protocol
//!
//! One compact JSON value per `\n`-terminated line, both directions.
//! Requests:
//!
//! ```text
//! {"op":"verify","id":1,"program":"proc p(x: int) { ... }",
//!  "engine":"cegar","refiner":"path-invariants","timeout_ms":5000,
//!  "name":"demo"}
//! {"op":"ping"}        {"op":"stats"}        {"op":"shutdown"}
//! ```
//!
//! Responses carry `status`: `"done"` (with the task record under `task`
//! and the cache disposition under `cached`), `"overloaded"`,
//! `"shutting-down"`, `"error"` (with `error`), `"pong"`, `"stats"`, or the
//! final `"shutdown"` acknowledgement.  A malformed line produces one
//! `status: "error"` response and the stream continues — a client bug
//! cannot take the service down.

use crate::cache::{CacheChaos, VerdictCache};
use crate::isolate::{run_job_in_child, ChildRun};
use crate::json::{self, Json};
use pathinv_core::{
    job_fingerprint, run_job, CancellationToken, CegarConfig, EngineSpec, JobOutcome, JobSpec,
    VerifierStats,
};
use pathinv_ir::{parse_program, Program};
use pathinv_report::{round3, TaskReport, SCHEMA_VERSION};
use pathinv_smt::{enforce_deadline, DeadlineGuard};
use std::collections::{HashMap, VecDeque};
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::{UnixListener, UnixStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Where a job executes: on the worker thread itself, or in a re-exec'd
/// child process the worker supervises (see [`crate::isolate`]).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IsolationMode {
    /// In-thread execution behind `catch_unwind`: cheap, absorbs panics,
    /// but an abort or OOM kills the daemon.
    Thread,
    /// One child process per job, hard-killed on deadline: aborts, stack
    /// overflows, and OOM kills become `error` tasks.
    Process,
}

impl IsolationMode {
    /// The flag spelling (`"thread"` / `"process"`).
    pub fn name(self) -> &'static str {
        match self {
            IsolationMode::Thread => "thread",
            IsolationMode::Process => "process",
        }
    }
}

/// Seeded chaos injection for one `serve` run (`--chaos seed=N`): worker
/// exits plus the cache-write faults of [`CacheChaos`].
#[derive(Clone, Debug)]
pub struct ChaosConfig {
    /// Seed for every chaos decision stream; a run is reproducible from it.
    pub seed: u64,
    /// Per-mille probability that a worker thread exits after completing a
    /// job (the supervisor must respawn it).
    pub worker_exit_per_mille: u16,
}

impl ChaosConfig {
    /// The default chaos mix behind `--chaos seed=N`.
    pub fn from_seed(seed: u64) -> ChaosConfig {
        ChaosConfig { seed, worker_exit_per_mille: 60 }
    }
}

/// Configuration of one `serve` run (defaults match the CLI flags).
#[derive(Clone, Debug)]
pub struct ServeConfig {
    /// Unix socket path to listen on; `None` serves stdin/stdout.
    pub socket: Option<PathBuf>,
    /// Verdict-cache journal path; `None` keeps the cache in memory only.
    pub cache_path: Option<PathBuf>,
    /// Worker threads executing jobs.
    pub workers: usize,
    /// Admission-queue capacity; submissions beyond it are rejected with
    /// `status: "overloaded"`.
    pub queue_capacity: usize,
    /// Deadline applied to jobs that do not carry their own `timeout_ms`.
    pub default_timeout_ms: Option<u64>,
    /// How long a shutdown drain waits for in-flight jobs before cancelling
    /// them.
    pub drain_grace_ms: u64,
    /// Job execution isolation (`--isolate thread|process`).
    pub isolation: IsolationMode,
    /// Retries for faulted (`error`) jobs before the fault is reported
    /// (`--retries`); `0` reports the first fault.
    pub max_retries: u32,
    /// Base delay of the exponential retry backoff (`--retry-backoff-ms`).
    pub retry_backoff_ms: u64,
    /// Consecutive faults that trip an engine's circuit breaker open
    /// (`--breaker-threshold`); `0` disables the breaker.
    pub breaker_threshold: u32,
    /// How long a tripped breaker stays open before half-opening for a
    /// probe (`--breaker-cooldown-ms`).
    pub breaker_cooldown_ms: u64,
    /// Verdict-journal size threshold for automatic compaction
    /// (`--cache-compact-bytes`); `None` keeps the library default.
    pub cache_compact_bytes: Option<u64>,
    /// Seeded fault injection (`--chaos seed=N`); `None` runs clean.
    pub chaos: Option<ChaosConfig>,
}

impl Default for ServeConfig {
    fn default() -> ServeConfig {
        ServeConfig {
            socket: None,
            cache_path: None,
            workers: 2,
            queue_capacity: 64,
            default_timeout_ms: None,
            drain_grace_ms: 5_000,
            isolation: IsolationMode::Thread,
            max_retries: 1,
            retry_backoff_ms: 50,
            breaker_threshold: 5,
            breaker_cooldown_ms: 10_000,
            cache_compact_bytes: None,
            chaos: None,
        }
    }
}

/// SIGTERM latch: the handler only stores a flag (async-signal-safe); the
/// accept/input loops poll it.
static SIGTERM: AtomicBool = AtomicBool::new(false);

extern "C" fn on_sigterm(_signum: i32) {
    SIGTERM.store(true, Ordering::SeqCst);
}

/// Installs the SIGTERM handler (via the libc already linked into every
/// Rust binary on this platform; no crate dependency).
fn install_sigterm_handler() {
    extern "C" {
        fn signal(signum: i32, handler: usize) -> usize;
    }
    const SIGTERM_NUM: i32 = 15;
    unsafe {
        signal(SIGTERM_NUM, on_sigterm as *const () as usize);
    }
}

/// A sink result lines are written to: connections share one writer between
/// the reader thread (immediate responses) and the workers (job results).
pub type SharedWriter = Arc<Mutex<Box<dyn Write + Send>>>;

/// Writes one response line; errors (client hung up) are reported to stderr
/// and otherwise ignored — a dead client must not kill the daemon.
fn write_line(out: &SharedWriter, value: &Json) {
    let mut w = out.lock().expect("writer lock poisoned");
    if let Err(e) = writeln!(w, "{}", value.compact()).and_then(|()| w.flush()) {
        eprintln!("serve: dropping response for a disconnected client: {e}");
    }
}

/// One admitted job waiting for (or holding) a worker.
struct Job {
    /// Echoed request id (any JSON value; `Null` when absent).
    id: Json,
    /// Report name for the task record.
    name: String,
    program: Program,
    /// Source text of the program; the process-isolation child re-parses
    /// it on its side of the pipe.
    source: String,
    engine: EngineSpec,
    /// The deadline this job was admitted under, for the detail message.
    timeout_ms: Option<u64>,
    /// Cache key (computed at admission, where the program is in hand).
    fingerprint: String,
    /// Admission sequence number; identifies the job in the active set.
    seq: u64,
    /// Faulted attempts so far; bounded by `max_retries`.
    attempt: u32,
    token: CancellationToken,
    /// Watchdog registration; held so the deadline spans queue wait plus
    /// execution (and retries), and dropped (deregistered) when the job
    /// completes.
    guard: Option<DeadlineGuard>,
    out: SharedWriter,
}

/// Circuit-breaker state for one engine name (DESIGN.md §15): `Closed`
/// admits, `Open` fast-fails until the cooldown instant, `HalfOpen` admits
/// exactly one probe whose outcome closes or re-opens the breaker.
enum BreakerState {
    Closed,
    Open(Instant),
    HalfOpen,
}

impl BreakerState {
    fn name(&self) -> &'static str {
        match self {
            BreakerState::Closed => "closed",
            BreakerState::Open(_) => "open",
            BreakerState::HalfOpen => "half-open",
        }
    }
}

/// One engine's circuit breaker.
struct Breaker {
    state: BreakerState,
    consecutive_faults: u32,
    trips: u64,
}

impl Default for Breaker {
    fn default() -> Breaker {
        Breaker { state: BreakerState::Closed, consecutive_faults: 0, trips: 0 }
    }
}

/// Per-status / per-verdict response tallies for `{"op":"stats"}`.
#[derive(Default)]
struct ResponseCounts {
    statuses: HashMap<String, u64>,
    verdicts: HashMap<String, u64>,
}

/// The worker-exit half of chaos mode: a seeded LCG rolled after every
/// completed job.
struct ChaosRng {
    state: Mutex<u64>,
    worker_exit_per_mille: u16,
}

impl ChaosRng {
    fn roll_worker_exit(&self) -> bool {
        let mut state = self.state.lock().expect("chaos rng poisoned");
        *state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        (((*state >> 33) % 1000) as u16) < self.worker_exit_per_mille
    }
}

/// Shared daemon state.
struct Service {
    queue: Mutex<VecDeque<Job>>,
    queue_cv: Condvar,
    capacity: usize,
    /// Set once: admission stops, workers exit when the queue is empty.
    shutdown: AtomicBool,
    cache: Mutex<VerdictCache>,
    /// Jobs currently executing (admission seq → token), so a drain can
    /// cancel stragglers.
    active: Mutex<Vec<(u64, CancellationToken)>>,
    /// Faulted jobs parked for a backoff delay; the supervisor re-enqueues
    /// them when due.
    delayed: Mutex<Vec<(Instant, Job)>>,
    /// Worker pool handles; the supervisor replaces finished slots, the
    /// drain joins whatever is left.
    worker_threads: Mutex<Vec<std::thread::JoinHandle<()>>>,
    /// Supervisor thread handle, joined first during the drain.
    supervisor: Mutex<Option<std::thread::JoinHandle<()>>>,
    /// Per-engine circuit breakers, keyed on [`EngineSpec::engine_name`].
    breakers: Mutex<HashMap<String, Breaker>>,
    counts: Mutex<ResponseCounts>,
    isolation: IsolationMode,
    max_retries: u32,
    retry_backoff_ms: u64,
    breaker_threshold: u32,
    breaker_cooldown: Duration,
    chaos: Option<ChaosRng>,
    workers: usize,
    workers_respawned: AtomicU64,
    jobs_submitted: AtomicU64,
    jobs_completed: AtomicU64,
    jobs_retried: AtomicU64,
    seq: AtomicU64,
}

impl Service {
    /// Tallies one response line for the stats op.
    fn note_response(&self, status: &str, verdict: Option<&str>) {
        let mut counts = self.counts.lock().expect("counts poisoned");
        *counts.statuses.entry(status.to_string()).or_insert(0) += 1;
        if let Some(verdict) = verdict {
            *counts.verdicts.entry(verdict.to_string()).or_insert(0) += 1;
        }
    }

    /// Feeds one attempt outcome to the engine's breaker: faults accumulate
    /// (or re-open a half-open breaker), conclusive outcomes reset it.
    fn record_engine_outcome(&self, engine: &str, fault: bool) {
        if self.breaker_threshold == 0 {
            return;
        }
        let mut breakers = self.breakers.lock().expect("breakers poisoned");
        let breaker = breakers.entry(engine.to_string()).or_default();
        if fault {
            breaker.consecutive_faults += 1;
            if matches!(breaker.state, BreakerState::HalfOpen)
                || breaker.consecutive_faults >= self.breaker_threshold
            {
                breaker.state = BreakerState::Open(Instant::now() + self.breaker_cooldown);
                breaker.consecutive_faults = 0;
                breaker.trips += 1;
            }
        } else {
            breaker.consecutive_faults = 0;
            breaker.state = BreakerState::Closed;
        }
    }
}

/// Whether the connection should keep reading after a request.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Flow {
    /// Keep serving this connection.
    Continue,
    /// A shutdown was requested on this connection.
    Shutdown,
}

/// A running service: shared state plus the worker pool.  `run_serve` wraps
/// it in the socket/stdin front ends; unit and integration tests drive it
/// directly.
pub struct ServiceHandle {
    service: Arc<Service>,
    default_timeout_ms: Option<u64>,
    drain_grace: Duration,
}

impl ServiceHandle {
    /// Opens the cache and starts the worker pool plus the supervisor.
    pub fn start(config: &ServeConfig) -> ServiceHandle {
        let mut cache = match &config.cache_path {
            Some(path) => VerdictCache::open(path),
            None => VerdictCache::in_memory(),
        };
        for warning in &cache.warnings {
            eprintln!("serve: {warning}");
        }
        if let Some(bytes) = config.cache_compact_bytes {
            cache.set_compact_threshold(bytes);
        }
        if let Some(chaos) = &config.chaos {
            cache.set_chaos(CacheChaos::from_seed(chaos.seed));
        }
        let service = Arc::new(Service {
            queue: Mutex::new(VecDeque::new()),
            queue_cv: Condvar::new(),
            capacity: config.queue_capacity.max(1),
            shutdown: AtomicBool::new(false),
            cache: Mutex::new(cache),
            active: Mutex::new(Vec::new()),
            delayed: Mutex::new(Vec::new()),
            worker_threads: Mutex::new(Vec::new()),
            supervisor: Mutex::new(None),
            breakers: Mutex::new(HashMap::new()),
            counts: Mutex::new(ResponseCounts::default()),
            isolation: config.isolation,
            max_retries: config.max_retries,
            retry_backoff_ms: config.retry_backoff_ms.max(1),
            breaker_threshold: config.breaker_threshold,
            breaker_cooldown: Duration::from_millis(config.breaker_cooldown_ms.max(1)),
            chaos: config.chaos.as_ref().map(|c| ChaosRng {
                // Offset the seed so the worker-exit stream differs from
                // the cache-fault stream derived from the same seed.
                state: Mutex::new(c.seed ^ 0x5bd1_e995_7b93_d3b3),
                worker_exit_per_mille: c.worker_exit_per_mille,
            }),
            workers: config.workers.max(1),
            workers_respawned: AtomicU64::new(0),
            jobs_submitted: AtomicU64::new(0),
            jobs_completed: AtomicU64::new(0),
            jobs_retried: AtomicU64::new(0),
            seq: AtomicU64::new(0),
        });
        {
            let mut workers = service.worker_threads.lock().expect("workers poisoned");
            for i in 0..service.workers {
                workers.push(spawn_worker(&service, format!("pathinv-serve-worker-{i}")));
            }
        }
        let supervisor = {
            let service = Arc::clone(&service);
            std::thread::Builder::new()
                .name("pathinv-serve-supervisor".to_string())
                .spawn(move || supervisor_loop(&service))
                .expect("spawning the service supervisor")
        };
        *service.supervisor.lock().expect("supervisor slot poisoned") = Some(supervisor);
        ServiceHandle {
            service,
            default_timeout_ms: config.default_timeout_ms,
            drain_grace: Duration::from_millis(config.drain_grace_ms),
        }
    }

    /// Handles one protocol line, writing any immediate response to `out`
    /// (job results arrive later from the worker pool).
    pub fn handle_line(&self, line: &str, out: &SharedWriter) -> Flow {
        let line = line.trim();
        if line.is_empty() {
            return Flow::Continue;
        }
        let request = match json::parse(line) {
            Ok(v) => v,
            Err(e) => {
                write_line(out, &error_response(&Json::Null, &format!("malformed line: {e}")));
                return Flow::Continue;
            }
        };
        let id = request.get("id").cloned().unwrap_or(Json::Null);
        match request.get("op").and_then(Json::as_str) {
            Some("ping") => {
                write_line(
                    out,
                    &Json::object(vec![("id", id), ("status", Json::Str("pong".to_string()))]),
                );
                Flow::Continue
            }
            Some("stats") => {
                write_line(out, &self.stats_response(&id));
                Flow::Continue
            }
            Some("shutdown") => Flow::Shutdown,
            Some("verify") => {
                self.submit(&request, id, out);
                Flow::Continue
            }
            Some(op) => {
                write_line(out, &error_response(&id, &format!("unknown op `{op}`")));
                Flow::Continue
            }
            None => {
                write_line(out, &error_response(&id, "missing `op` field"));
                Flow::Continue
            }
        }
    }

    /// Admits (or rejects) one verify request.
    fn submit(&self, request: &Json, id: Json, out: &SharedWriter) {
        let service = &self.service;
        if service.shutdown.load(Ordering::SeqCst) {
            write_line(out, &status_response(&id, "shutting-down"));
            service.note_response("shutting-down", None);
            return;
        }
        let (name, source, program, engine, timeout_ms) =
            match parse_verify_request(request, self.default_timeout_ms) {
                Ok(parts) => parts,
                Err(msg) => {
                    write_line(out, &error_response(&id, &msg));
                    service.note_response("error", None);
                    return;
                }
            };
        let seq = service.seq.fetch_add(1, Ordering::Relaxed);
        let name = name.unwrap_or_else(|| format!("job-{seq}"));
        let fingerprint = job_fingerprint(&program, &engine);
        // Warm path: a cached deterministic verdict is replayed without
        // touching the queue, the workers, the breaker, or any solver.
        if !engine.is_shim() {
            let cached = service.cache.lock().expect("cache lock poisoned").lookup(&fingerprint);
            if let Some(task) = cached {
                let task = restamp_task(task, &name);
                let verdict = task.get("verdict").and_then(Json::as_str).map(str::to_string);
                write_line(out, &result_response(&id, true, &fingerprint, task));
                service.note_response("done", verdict.as_deref());
                service.jobs_submitted.fetch_add(1, Ordering::Relaxed);
                service.jobs_completed.fetch_add(1, Ordering::Relaxed);
                return;
            }
        }
        // Breaker gate: while an engine is quarantined, fast-fail instead
        // of burning a worker on a fault that just keeps happening.
        if service.breaker_threshold > 0 {
            let mut breakers = service.breakers.lock().expect("breakers poisoned");
            let breaker = breakers.entry(engine.engine_name().to_string()).or_default();
            let now = Instant::now();
            let quarantined = match breaker.state {
                BreakerState::Closed => None,
                BreakerState::HalfOpen => Some(service.breaker_cooldown),
                BreakerState::Open(until) if now < until => Some(until - now),
                BreakerState::Open(_) => {
                    // Cooldown elapsed: this submission is the probe.
                    breaker.state = BreakerState::HalfOpen;
                    None
                }
            };
            drop(breakers);
            if let Some(retry_after) = quarantined {
                write_line(
                    out,
                    &quarantined_response(&id, engine.engine_name(), retry_after.as_millis()),
                );
                service.note_response("quarantined", None);
                return;
            }
        }
        let token = CancellationToken::new();
        let guard = timeout_ms.map(|ms| enforce_deadline(&token, Duration::from_millis(ms)));
        let job = Job {
            id,
            name,
            program,
            source,
            engine,
            timeout_ms,
            fingerprint,
            seq,
            attempt: 0,
            token,
            guard,
            out: Arc::clone(out),
        };
        let mut queue = service.queue.lock().expect("job queue poisoned");
        if queue.len() >= service.capacity {
            drop(queue);
            write_line(&job.out, &status_response(&job.id, "overloaded"));
            service.note_response("overloaded", None);
            return;
        }
        queue.push_back(job);
        drop(queue);
        service.jobs_submitted.fetch_add(1, Ordering::Relaxed);
        service.queue_cv.notify_one();
    }

    fn stats_response(&self, id: &Json) -> Json {
        let service = &self.service;
        let queue_depth = service.queue.lock().expect("job queue poisoned").len();
        let delayed = service.delayed.lock().expect("delayed set poisoned").len();
        let active = service.active.lock().expect("active set poisoned").len();
        let cache = service.cache.lock().expect("cache lock poisoned");
        let cache_stats = Json::object(vec![
            ("entries", Json::Int(cache.len() as i64)),
            ("journal_bytes", Json::Int(cache.journal_bytes() as i64)),
            ("compactions", Json::Int(cache.compactions as i64)),
            ("degraded", Json::Bool(cache.is_degraded())),
        ]);
        let sorted_counts = |map: &HashMap<String, u64>| {
            let mut pairs: Vec<(String, Json)> =
                map.iter().map(|(k, v)| (k.clone(), Json::Int(*v as i64))).collect();
            pairs.sort_by(|a, b| a.0.cmp(&b.0));
            Json::Object(pairs)
        };
        let (statuses, verdicts) = {
            let counts = service.counts.lock().expect("counts poisoned");
            (sorted_counts(&counts.statuses), sorted_counts(&counts.verdicts))
        };
        let jobs = Json::object(vec![
            ("submitted", Json::Int(service.jobs_submitted.load(Ordering::Relaxed) as i64)),
            ("completed", Json::Int(service.jobs_completed.load(Ordering::Relaxed) as i64)),
            ("retried", Json::Int(service.jobs_retried.load(Ordering::Relaxed) as i64)),
            ("statuses", statuses),
            ("verdicts", verdicts),
        ]);
        let breakers = {
            let breakers = service.breakers.lock().expect("breakers poisoned");
            let mut pairs: Vec<(String, Json)> = breakers
                .iter()
                .map(|(name, b)| {
                    (
                        name.clone(),
                        Json::object(vec![
                            ("state", Json::Str(b.state.name().to_string())),
                            ("consecutive_faults", Json::Int(b.consecutive_faults as i64)),
                            ("trips", Json::Int(b.trips as i64)),
                        ]),
                    )
                })
                .collect();
            pairs.sort_by(|a, b| a.0.cmp(&b.0));
            Json::Object(pairs)
        };
        Json::object(vec![
            ("id", id.clone()),
            ("status", Json::Str("stats".to_string())),
            ("schema_version", Json::Int(SCHEMA_VERSION)),
            ("workers", Json::Int(service.workers as i64)),
            (
                "workers_respawned",
                Json::Int(service.workers_respawned.load(Ordering::Relaxed) as i64),
            ),
            ("isolation", Json::Str(service.isolation.name().to_string())),
            ("queue_depth", Json::Int(queue_depth as i64)),
            ("delayed", Json::Int(delayed as i64)),
            ("active", Json::Int(active as i64)),
            ("cache_size", Json::Int(cache.len() as i64)),
            ("cache_hits", Json::Int(cache.hits as i64)),
            ("cache_misses", Json::Int(cache.misses as i64)),
            ("cache", cache_stats),
            ("jobs_submitted", Json::Int(service.jobs_submitted.load(Ordering::Relaxed) as i64)),
            ("jobs_completed", Json::Int(service.jobs_completed.load(Ordering::Relaxed) as i64)),
            ("jobs", jobs),
            ("breakers", breakers),
        ])
    }

    /// Jobs completed so far (for the shutdown acknowledgement).
    pub fn jobs_completed(&self) -> u64 {
        self.service.jobs_completed.load(Ordering::Relaxed)
    }

    /// Drains the service: stops admission, joins the supervisor, reports
    /// still-queued and backoff-parked jobs as `cancelled`, waits up to the
    /// grace period for in-flight jobs, cancels the stragglers, joins the
    /// workers, and flushes the cache journal.  Returns the total number of
    /// jobs completed.  Idempotent: a second call finds no queue, no active
    /// jobs, and no workers left to join.
    pub fn drain(&self) -> u64 {
        let service = &self.service;
        service.shutdown.store(true, Ordering::SeqCst);
        service.queue_cv.notify_all();
        // The supervisor goes first so nothing re-enqueues or respawns
        // behind the drain's back.
        if let Some(supervisor) =
            service.supervisor.lock().expect("supervisor slot poisoned").take()
        {
            let _ = supervisor.join();
        }
        // Queued-but-not-started jobs (including retries parked for
        // backoff) are cancelled, not silently dropped: every admitted job
        // gets exactly one result line.
        drain_pending(service);
        // Give in-flight jobs the grace period, then cancel them too; the
        // workers report each with an honest `cancelled` line.
        let deadline = Instant::now() + self.drain_grace;
        while Instant::now() < deadline {
            if service.active.lock().expect("active set poisoned").is_empty() {
                break;
            }
            std::thread::sleep(Duration::from_millis(10));
        }
        for (_, token) in service.active.lock().expect("active set poisoned").iter() {
            token.cancel();
        }
        let workers =
            std::mem::take(&mut *service.worker_threads.lock().expect("workers poisoned"));
        for worker in workers {
            let _ = worker.join();
        }
        // A worker may have parked one last retry between the first sweep
        // and its own shutdown check; sweep again now that all are joined.
        drain_pending(service);
        service.cache.lock().expect("cache lock poisoned").sync();
        service.jobs_completed.load(Ordering::Relaxed)
    }
}

/// Cancels and reports every job sitting in the queue or the backoff pen.
fn drain_pending(service: &Service) {
    let queued: Vec<Job> = {
        let mut queue = service.queue.lock().expect("job queue poisoned");
        queue.drain(..).collect()
    };
    let delayed: Vec<Job> = {
        let mut delayed = service.delayed.lock().expect("delayed set poisoned");
        delayed.drain(..).map(|(_, job)| job).collect()
    };
    for job in queued.into_iter().chain(delayed) {
        job.token.cancel();
        let outcome = cancelled_outcome("cancelled by shutdown");
        let task = TaskReport::from_outcome(job.name.clone(), &job.engine, &outcome).to_json();
        write_line(&job.out, &result_response(&job.id, false, &job.fingerprint, task));
        service.note_response("done", Some("cancelled"));
        service.jobs_completed.fetch_add(1, Ordering::Relaxed);
    }
}

/// Spawns one worker thread over the shared service state.
fn spawn_worker(service: &Arc<Service>, label: String) -> std::thread::JoinHandle<()> {
    let service = Arc::clone(service);
    std::thread::Builder::new()
        .name(label)
        .spawn(move || worker_loop(&service))
        .expect("spawning a service worker")
}

/// The supervisor body (DESIGN.md §15): re-enqueues backoff-parked retries
/// when due and respawns workers that exited outside a drain — whether a
/// real crash or an injected chaos exit.  Exits as soon as the shutdown
/// flag is up; the drain joins it before sweeping the queues.
fn supervisor_loop(service: &Arc<Service>) {
    let mut respawns = 0u64;
    while !service.shutdown.load(Ordering::SeqCst) {
        // Move due retries back onto the queue.  Capacity is not
        // re-checked: these jobs were admitted once already.
        let now = Instant::now();
        let due: Vec<Job> = {
            let mut delayed = service.delayed.lock().expect("delayed set poisoned");
            let mut due = Vec::new();
            let mut i = 0;
            while i < delayed.len() {
                if delayed[i].0 <= now {
                    due.push(delayed.remove(i).1);
                } else {
                    i += 1;
                }
            }
            due
        };
        if !due.is_empty() {
            let mut queue = service.queue.lock().expect("job queue poisoned");
            for job in due {
                queue.push_back(job);
            }
            drop(queue);
            service.queue_cv.notify_all();
        }
        // Respawn dead workers in place.
        {
            let mut workers = service.worker_threads.lock().expect("workers poisoned");
            for slot in workers.iter_mut() {
                if slot.is_finished() && !service.shutdown.load(Ordering::SeqCst) {
                    respawns += 1;
                    let fresh = spawn_worker(service, format!("pathinv-serve-worker-r{respawns}"));
                    let old = std::mem::replace(slot, fresh);
                    let _ = old.join();
                    service.workers_respawned.fetch_add(1, Ordering::Relaxed);
                    eprintln!("serve: worker exited unexpectedly; respawned");
                }
            }
        }
        std::thread::sleep(Duration::from_millis(10));
    }
}

/// What one execution attempt produced, isolation-mode independent.
struct ExecOutcome {
    task: Json,
    verdict: String,
    cacheable: bool,
}

/// Rewrites cancellation details against the job's admission-time deadline:
/// an expired guard means "deadline exceeded", anything else cancelled from
/// outside means the shutdown drain.
fn apply_deadline_restamp(job: &Job, outcome: &mut JobOutcome) {
    if job.guard.as_ref().is_some_and(|g| g.expired()) {
        outcome.deadline_expired = true;
        if outcome.verdict == "cancelled" {
            outcome.detail =
                format!("deadline of {} ms exceeded", job.timeout_ms.unwrap_or_default());
        }
    } else if outcome.verdict == "cancelled" {
        outcome.detail = "cancelled by shutdown".to_string();
    }
}

/// Runs one attempt in the configured isolation mode.
fn execute_attempt(service: &Service, job: &Job) -> ExecOutcome {
    match service.isolation {
        IsolationMode::Thread => {
            // The deadline guard was registered at admission and travels
            // with the job, so run_job gets a spec without its own timeout.
            let mut outcome = run_job(&JobSpec::new(job.engine.clone()), &job.program, &job.token);
            apply_deadline_restamp(job, &mut outcome);
            let task = TaskReport::from_outcome(job.name.clone(), &job.engine, &outcome).to_json();
            ExecOutcome {
                task,
                verdict: outcome.verdict.clone(),
                cacheable: outcome.is_cacheable(),
            }
        }
        IsolationMode::Process => {
            match run_job_in_child(&job.name, &job.source, &job.engine, &job.token) {
                ChildRun::Done { task, verdict, cacheable } => {
                    ExecOutcome { task, verdict, cacheable }
                }
                ChildRun::Killed => {
                    let mut outcome = cancelled_outcome("cancelled by shutdown");
                    apply_deadline_restamp(job, &mut outcome);
                    let task =
                        TaskReport::from_outcome(job.name.clone(), &job.engine, &outcome).to_json();
                    ExecOutcome { task, verdict: "cancelled".to_string(), cacheable: false }
                }
                ChildRun::Crashed { detail } => {
                    let outcome = error_outcome(&detail);
                    let task =
                        TaskReport::from_outcome(job.name.clone(), &job.engine, &outcome).to_json();
                    ExecOutcome { task, verdict: "error".to_string(), cacheable: false }
                }
            }
        }
    }
}

/// Deterministic backoff for retry `attempt` of the job with admission
/// sequence `seq`: exponential in the attempt, jittered by a hash of the
/// sequence number (no clocks, no OS randomness — a chaos run replays
/// byte-identically from its seed).
fn retry_delay(base_ms: u64, attempt: u32, seq: u64) -> Duration {
    let backoff = base_ms.saturating_mul(1 << attempt.saturating_sub(1).min(6));
    let jitter = seq.wrapping_mul(0x9e37_79b9) % (base_ms / 2 + 1);
    Duration::from_millis(backoff + jitter)
}

/// The worker body: pop a job, run it fault-isolated in the configured
/// isolation mode, feed the breaker, retry transient faults with backoff,
/// report one line, memoize deterministic verdicts.
fn worker_loop(service: &Arc<Service>) {
    loop {
        let job = {
            let mut queue = service.queue.lock().expect("job queue poisoned");
            loop {
                if let Some(job) = queue.pop_front() {
                    break Some(job);
                }
                if service.shutdown.load(Ordering::SeqCst) {
                    break None;
                }
                queue = service
                    .queue_cv
                    .wait_timeout(queue, Duration::from_millis(50))
                    .expect("job queue poisoned")
                    .0;
            }
        };
        let Some(mut job) = job else { return };
        service.active.lock().expect("active set poisoned").push((job.seq, job.token.clone()));
        let exec = execute_attempt(service, &job);
        service.active.lock().expect("active set poisoned").retain(|(seq, _)| *seq != job.seq);
        let fault = exec.verdict == "error";
        if fault {
            service.record_engine_outcome(job.engine.engine_name(), true);
        } else if exec.verdict != "cancelled" {
            service.record_engine_outcome(job.engine.engine_name(), false);
        }
        // Transient-fault retry: park the job for a backoff delay instead
        // of answering; the supervisor re-enqueues it.  The deadline guard
        // stays armed across attempts — retries never extend a deadline.
        if fault
            && job.attempt < service.max_retries
            && !job.token.is_cancelled()
            && !service.shutdown.load(Ordering::SeqCst)
        {
            job.attempt += 1;
            let delay = retry_delay(service.retry_backoff_ms, job.attempt, job.seq);
            service.jobs_retried.fetch_add(1, Ordering::Relaxed);
            service
                .delayed
                .lock()
                .expect("delayed set poisoned")
                .push((Instant::now() + delay, job));
            continue;
        }
        drop(job.guard.take());
        if exec.cacheable && !job.engine.is_shim() {
            service
                .cache
                .lock()
                .expect("cache lock poisoned")
                .insert(&job.fingerprint, exec.task.clone());
        }
        write_line(&job.out, &result_response(&job.id, false, &job.fingerprint, exec.task));
        service.note_response("done", Some(&exec.verdict));
        service.jobs_completed.fetch_add(1, Ordering::Relaxed);
        // Chaos: simulate a worker crash after a completed job; the
        // supervisor must respawn this thread without losing anything.
        if let Some(chaos) = &service.chaos {
            if chaos.roll_worker_exit() {
                return;
            }
        }
    }
}

/// A synthetic `cancelled` outcome for jobs that never reached a worker.
fn cancelled_outcome(detail: &str) -> JobOutcome {
    JobOutcome {
        verdict: "cancelled".to_string(),
        detail: detail.to_string(),
        refinements: 0,
        predicates: 0,
        art_nodes: 0,
        certificate: None,
        stats: VerifierStats::default(),
        deadline_expired: false,
        wall_ms: 0.0,
    }
}

/// A synthetic `error` outcome for jobs whose isolated process died.
fn error_outcome(detail: &str) -> JobOutcome {
    JobOutcome { verdict: "error".to_string(), ..cancelled_outcome(detail) }
}

/// Parses the verify-specific fields of a request.
#[allow(clippy::type_complexity)]
fn parse_verify_request(
    request: &Json,
    default_timeout_ms: Option<u64>,
) -> Result<(Option<String>, String, Program, EngineSpec, Option<u64>), String> {
    let source = request
        .get("program")
        .and_then(Json::as_str)
        .ok_or("missing `program` field (the program source text)")?;
    let program = parse_program(source).map_err(|e| format!("program parse error: {e}"))?;
    let engine_name = request.get("engine").and_then(Json::as_str).unwrap_or("cegar");
    let refiner = request.get("refiner").and_then(Json::as_str);
    let engine = engine_spec_named(engine_name, refiner)?;
    let timeout_ms = match request.get("timeout_ms") {
        Some(Json::Int(ms)) if *ms > 0 => Some(*ms as u64),
        Some(Json::Int(_)) => return Err("`timeout_ms` must be positive".to_string()),
        Some(_) => return Err("`timeout_ms` must be an integer".to_string()),
        None => default_timeout_ms,
    };
    let name = request.get("name").and_then(Json::as_str).map(str::to_string);
    Ok((name, source.to_string(), program, engine, timeout_ms))
}

/// Resolves the protocol's engine/refiner naming to an [`EngineSpec`] with
/// default configurations (the same ones batch mode runs).
pub fn engine_spec_named(engine: &str, refiner: Option<&str>) -> Result<EngineSpec, String> {
    match (engine, refiner) {
        ("cegar", None | Some("path-invariants")) => {
            Ok(EngineSpec::Cegar(CegarConfig::path_invariants()))
        }
        ("cegar", Some("path-predicates")) => {
            Ok(EngineSpec::Cegar(CegarConfig::path_predicates(crate::DEFAULT_BASELINE_REFINEMENTS)))
        }
        ("cegar", Some(other)) => Err(format!("unknown refiner `{other}`")),
        ("bmc", _) => Ok(EngineSpec::Bmc(Default::default())),
        ("pdr", _) => Ok(EngineSpec::Pdr(Default::default())),
        ("panic-shim", _) => Ok(EngineSpec::PanicShim),
        ("spin-shim", _) => Ok(EngineSpec::SpinShim),
        ("abort-shim", _) => Ok(EngineSpec::AbortShim),
        ("memhog-shim", _) => Ok(EngineSpec::MemHogShim),
        ("flaky-shim", _) => Ok(EngineSpec::FlakyShim),
        (other, _) => Err(format!("unknown engine `{other}`")),
    }
}

/// The fast-fail response for submissions against a quarantined engine.
fn quarantined_response(id: &Json, engine: &str, retry_after_ms: u128) -> Json {
    Json::object(vec![
        ("id", id.clone()),
        ("status", Json::Str("quarantined".to_string())),
        ("engine", Json::Str(engine.to_string())),
        ("retry_after_ms", Json::Int(retry_after_ms as i64)),
    ])
}

fn error_response(id: &Json, message: &str) -> Json {
    Json::object(vec![
        ("id", id.clone()),
        ("status", Json::Str("error".to_string())),
        ("error", Json::Str(message.to_string())),
    ])
}

fn status_response(id: &Json, status: &str) -> Json {
    Json::object(vec![("id", id.clone()), ("status", Json::Str(status.to_string()))])
}

fn result_response(id: &Json, cached: bool, fingerprint: &str, task: Json) -> Json {
    Json::object(vec![
        ("id", id.clone()),
        ("status", Json::Str("done".to_string())),
        ("cached", Json::Bool(cached)),
        ("fingerprint", Json::Str(fingerprint.to_string())),
        ("schema_version", Json::Int(SCHEMA_VERSION)),
        ("task", task),
    ])
}

/// Re-stamps a cached task record for replay: the submission's program name
/// (the cache key deliberately ignores names) and a zero wall-clock (the
/// replay did no engine work; the original run's time would be a lie).
fn restamp_task(task: Json, name: &str) -> Json {
    match task {
        Json::Object(pairs) => Json::Object(
            pairs
                .into_iter()
                .map(|(k, v)| match k.as_str() {
                    "program" => (k, Json::Str(name.to_string())),
                    "wall_ms" => (k, Json::Float(round3(0.0))),
                    _ => (k, v),
                })
                .collect(),
        ),
        other => other,
    }
}

/// Runs the daemon per `config`; returns the process exit code.
///
/// # Errors
///
/// Only setup failures (socket bind) error out; per-job and per-connection
/// failures are absorbed by design.
pub fn run_serve(config: &ServeConfig) -> Result<i32, String> {
    install_sigterm_handler();
    let handle = ServiceHandle::start(config);
    match &config.socket {
        Some(path) => serve_socket(config, path.clone(), handle),
        None => Ok(serve_stdin(handle)),
    }
}

/// Socket front end: nonblocking accept loop polling the shutdown latches,
/// one reader thread per connection.
fn serve_socket(config: &ServeConfig, path: PathBuf, handle: ServiceHandle) -> Result<i32, String> {
    // A stale socket file from a crashed daemon would fail the bind.
    if path.exists() {
        std::fs::remove_file(&path)
            .map_err(|e| format!("cannot remove stale socket {}: {e}", path.display()))?;
    }
    let listener = UnixListener::bind(&path)
        .map_err(|e| format!("cannot bind socket {}: {e}", path.display()))?;
    listener.set_nonblocking(true).map_err(|e| format!("cannot set nonblocking: {e}"))?;
    eprintln!(
        "serve: listening on {} (workers={}, queue={}, cache={})",
        path.display(),
        config.workers,
        config.queue_capacity,
        config.cache_path.as_ref().map_or("memory".to_string(), |p| p.display().to_string()),
    );
    // `handle_line` returns Shutdown on the reader thread; this latch (plus
    // the writer to acknowledge on) carries it back to the accept loop.
    let shutdown_requested: Arc<Mutex<Option<SharedWriter>>> = Arc::new(Mutex::new(None));
    let handle = Arc::new(handle);
    loop {
        if SIGTERM.load(Ordering::SeqCst) {
            eprintln!("serve: SIGTERM, draining");
            break;
        }
        if shutdown_requested.lock().expect("latch poisoned").is_some() {
            break;
        }
        match listener.accept() {
            Ok((stream, _addr)) => {
                let handle = Arc::clone(&handle);
                let latch = Arc::clone(&shutdown_requested);
                std::thread::spawn(move || handle_connection(&handle, stream, &latch));
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                std::thread::sleep(Duration::from_millis(25));
            }
            Err(e) => {
                eprintln!("serve: accept error: {e}");
                std::thread::sleep(Duration::from_millis(25));
            }
        }
    }
    let ack = shutdown_requested.lock().expect("latch poisoned").take();
    drop(listener);
    std::fs::remove_file(&path).ok();
    let completed = handle.drain();
    if let Some(ack) = ack {
        write_line(
            &ack,
            &Json::object(vec![
                ("status", Json::Str("shutdown".to_string())),
                ("jobs_completed", Json::Int(completed as i64)),
            ]),
        );
    }
    eprintln!("serve: drained, {completed} job(s) completed");
    Ok(0)
}

/// One connection: read lines, dispatch, until EOF or shutdown.
fn handle_connection(
    handle: &Arc<ServiceHandle>,
    stream: UnixStream,
    shutdown_latch: &Arc<Mutex<Option<SharedWriter>>>,
) {
    let Ok(write_half) = stream.try_clone() else {
        return;
    };
    let out: SharedWriter = Arc::new(Mutex::new(Box::new(write_half)));
    let reader = BufReader::new(stream);
    for line in reader.lines() {
        let Ok(line) = line else { break };
        if handle.handle_line(&line, &out) == Flow::Shutdown {
            *shutdown_latch.lock().expect("latch poisoned") = Some(Arc::clone(&out));
            break;
        }
    }
}

/// Stdin front end: a reader thread feeds lines over a channel so the main
/// loop can keep polling the SIGTERM latch (glibc restarts the blocking
/// read, so the flag alone would never be observed mid-read).
fn serve_stdin(handle: ServiceHandle) -> i32 {
    let (tx, rx) = std::sync::mpsc::channel::<String>();
    std::thread::spawn(move || {
        let stdin = std::io::stdin();
        for line in stdin.lock().lines() {
            let Ok(line) = line else { break };
            if tx.send(line).is_err() {
                break;
            }
        }
    });
    let out: SharedWriter = Arc::new(Mutex::new(Box::new(std::io::stdout())));
    let mut acked = false;
    loop {
        if SIGTERM.load(Ordering::SeqCst) {
            eprintln!("serve: SIGTERM, draining");
            break;
        }
        match rx.recv_timeout(Duration::from_millis(25)) {
            Ok(line) => {
                if handle.handle_line(&line, &out) == Flow::Shutdown {
                    acked = true;
                    break;
                }
            }
            Err(std::sync::mpsc::RecvTimeoutError::Timeout) => {}
            Err(std::sync::mpsc::RecvTimeoutError::Disconnected) => break, // EOF drains
        }
    }
    let completed = handle.drain();
    if acked {
        write_line(
            &out,
            &Json::object(vec![
                ("status", Json::Str("shutdown".to_string())),
                ("jobs_completed", Json::Int(completed as i64)),
            ]),
        );
    }
    eprintln!("serve: drained, {completed} job(s) completed");
    0
}

/// Measures the cost of process isolation for `--bless`: one cold pass of
/// the source corpus per isolation mode, each against a fresh in-memory
/// cache (so neither pass gets warm hits).  Only meaningful from inside
/// the real `pathinv-cli` binary — the process pass re-execs
/// `current_exe() run-one-job`.  The chaos-availability numbers of the
/// returned [`crate::trajectory::SupervisionBench`] are left zeroed; the
/// caller fills them from the chaos phase of a [`crate::smoke`] run.
pub fn bench_supervision(workers: usize) -> crate::trajectory::SupervisionBench {
    let corpus = crate::corpus_sources();
    let pass = |isolation: IsolationMode| -> f64 {
        let config = ServeConfig {
            workers,
            queue_capacity: corpus.len().max(16),
            drain_grace_ms: 120_000,
            isolation,
            ..ServeConfig::default()
        };
        let handle = ServiceHandle::start(&config);
        let buf = Arc::new(Mutex::new(Vec::new()));
        let out: SharedWriter = Arc::new(Mutex::new(Box::new(BufWriterShim(Arc::clone(&buf)))));
        let start = Instant::now();
        for (i, (name, src)) in corpus.iter().enumerate() {
            let line = Json::object(vec![
                ("op", Json::Str("verify".to_string())),
                ("id", Json::Int(i as i64 + 1)),
                ("name", Json::Str(name.clone())),
                ("program", Json::Str(src.clone())),
            ])
            .compact();
            handle.handle_line(&line, &out);
        }
        loop {
            let text = String::from_utf8(buf.lock().expect("bench buffer poisoned").clone())
                .expect("responses are UTF-8");
            if text.lines().count() >= corpus.len() {
                break;
            }
            assert!(
                start.elapsed() < Duration::from_secs(600),
                "supervision bench ({}) timed out",
                isolation.name()
            );
            std::thread::sleep(Duration::from_millis(10));
        }
        let wall_ms = start.elapsed().as_secs_f64() * 1e3;
        handle.drain();
        wall_ms
    };
    let in_thread_ms = pass(IsolationMode::Thread);
    let process_ms = pass(IsolationMode::Process);
    crate::trajectory::SupervisionBench {
        programs: corpus.len(),
        in_thread_ms,
        process_ms,
        chaos_submitted: 0,
        chaos_answered: 0,
        chaos_quarantined: 0,
        availability: 0.0,
    }
}

/// A `Write` sink into a shared buffer for in-process benches.
struct BufWriterShim(Arc<Mutex<Vec<u8>>>);

impl Write for BufWriterShim {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.0.lock().expect("bench buffer poisoned").extend_from_slice(buf);
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A writer unit tests can inspect: every response line lands in the
    /// shared buffer.
    #[derive(Clone)]
    struct Sink(Arc<Mutex<Vec<u8>>>);

    impl Write for Sink {
        fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
            self.0.lock().unwrap().extend_from_slice(buf);
            Ok(buf.len())
        }
        fn flush(&mut self) -> std::io::Result<()> {
            Ok(())
        }
    }

    fn sink() -> (SharedWriter, Arc<Mutex<Vec<u8>>>) {
        let buf = Arc::new(Mutex::new(Vec::new()));
        let writer: SharedWriter = Arc::new(Mutex::new(Box::new(Sink(Arc::clone(&buf)))));
        (writer, buf)
    }

    fn lines(buf: &Arc<Mutex<Vec<u8>>>) -> Vec<Json> {
        let text = String::from_utf8(buf.lock().unwrap().clone()).unwrap();
        text.lines().map(|l| json::parse(l).expect(l)).collect()
    }

    /// Polls until `buf` holds `n` lines (workers respond asynchronously).
    fn wait_for_lines(buf: &Arc<Mutex<Vec<u8>>>, n: usize) -> Vec<Json> {
        let start = Instant::now();
        loop {
            let got = lines(buf);
            if got.len() >= n {
                return got;
            }
            assert!(start.elapsed() < Duration::from_secs(60), "only {} lines", got.len());
            std::thread::sleep(Duration::from_millis(5));
        }
    }

    fn verify_line(id: i64, program: &str, extra: &str) -> String {
        format!(
            "{{\"op\":\"verify\",\"id\":{id},\"program\":{},{extra}\"name\":\"t{id}\"}}",
            Json::Str(program.to_string()).compact()
        )
    }

    const BUG: &str = "proc bug(x: int) { x = 1; assert(x == 2); }";

    #[test]
    fn malformed_lines_error_and_the_stream_continues() {
        let handle = ServiceHandle::start(&ServeConfig::default());
        let (out, buf) = sink();
        assert_eq!(handle.handle_line("{not json", &out), Flow::Continue);
        assert_eq!(handle.handle_line("{\"op\":\"frobnicate\"}", &out), Flow::Continue);
        assert_eq!(handle.handle_line("{\"id\":7}", &out), Flow::Continue);
        assert_eq!(handle.handle_line("{\"op\":\"verify\",\"id\":8}", &out), Flow::Continue);
        assert_eq!(
            handle.handle_line("{\"op\":\"verify\",\"id\":9,\"program\":\"proc x| {\"}", &out),
            Flow::Continue
        );
        assert_eq!(handle.handle_line("{\"op\":\"ping\",\"id\":10}", &out), Flow::Continue);
        let got = wait_for_lines(&buf, 6);
        for response in &got[..5] {
            assert_eq!(response.get("status").and_then(Json::as_str), Some("error"));
        }
        assert_eq!(got[5].get("status").and_then(Json::as_str), Some("pong"));
        assert_eq!(got[5].get("id").and_then(Json::as_int), Some(10));
        handle.drain();
    }

    #[test]
    fn verify_runs_and_caches_deterministic_verdicts() {
        let handle = ServiceHandle::start(&ServeConfig::default());
        let (out, buf) = sink();
        handle.handle_line(&verify_line(1, BUG, ""), &out);
        let first = &wait_for_lines(&buf, 1)[0];
        assert_eq!(first.get("status").and_then(Json::as_str), Some("done"));
        assert_eq!(first.get("cached"), Some(&Json::Bool(false)));
        let task = first.get("task").unwrap();
        assert_eq!(task.get("verdict").and_then(Json::as_str), Some("unsafe"));
        assert_eq!(task.get("program").and_then(Json::as_str), Some("t1"));
        // Resubmission under a *different name* replays from the cache.
        handle.handle_line(&verify_line(2, BUG, ""), &out);
        let second = &wait_for_lines(&buf, 2)[1];
        assert_eq!(second.get("cached"), Some(&Json::Bool(true)));
        let replay = second.get("task").unwrap();
        assert_eq!(replay.get("verdict").and_then(Json::as_str), Some("unsafe"));
        assert_eq!(replay.get("program").and_then(Json::as_str), Some("t2"));
        assert_eq!(
            replay.get("cert_digest"),
            task.get("cert_digest"),
            "replayed verdicts must be byte-identical up to the re-stamped name"
        );
        assert_eq!(first.get("fingerprint"), second.get("fingerprint"));
        handle.drain();
    }

    #[test]
    fn panic_shim_errors_and_the_daemon_keeps_serving() {
        let handle = ServiceHandle::start(&ServeConfig::default());
        let (out, buf) = sink();
        handle.handle_line(&verify_line(1, BUG, "\"engine\":\"panic-shim\","), &out);
        handle.handle_line(&verify_line(2, BUG, "\"engine\":\"bmc\","), &out);
        let got = wait_for_lines(&buf, 2);
        let by_id =
            |id: i64| got.iter().find(|r| r.get("id").and_then(Json::as_int) == Some(id)).unwrap();
        let panicked = by_id(1).get("task").unwrap();
        assert_eq!(panicked.get("verdict").and_then(Json::as_str), Some("error"));
        assert!(panicked.get("detail").and_then(Json::as_str).unwrap().contains("panicked"));
        let next = by_id(2).get("task").unwrap();
        assert_eq!(next.get("verdict").and_then(Json::as_str), Some("unsafe"));
        handle.drain();
    }

    #[test]
    fn spin_shim_deadline_cancels_within_twice_the_deadline() {
        let handle = ServiceHandle::start(&ServeConfig::default());
        let (out, buf) = sink();
        let start = Instant::now();
        handle.handle_line(
            &verify_line(1, BUG, "\"engine\":\"spin-shim\",\"timeout_ms\":200,"),
            &out,
        );
        let got = wait_for_lines(&buf, 1);
        // Cooperative cancellation latency: watchdog wakeup + one poll; the
        // acceptance envelope is 2× the deadline.
        assert!(start.elapsed() < Duration::from_millis(400), "{:?}", start.elapsed());
        let task = got[0].get("task").unwrap();
        assert_eq!(task.get("verdict").and_then(Json::as_str), Some("cancelled"));
        assert!(task.get("detail").and_then(Json::as_str).unwrap().contains("deadline of 200 ms"));
        handle.drain();
    }

    #[test]
    fn overload_rejects_beyond_queue_capacity() {
        let config = ServeConfig { workers: 1, queue_capacity: 1, ..ServeConfig::default() };
        let handle = ServiceHandle::start(&config);
        let (out, buf) = sink();
        // One spinning job occupies the worker; the next fills the queue;
        // the third must be rejected, not buffered.
        handle.handle_line(
            &verify_line(1, BUG, "\"engine\":\"spin-shim\",\"timeout_ms\":2000,"),
            &out,
        );
        // Wait until the spin job is actually *active* so the queue is free.
        let start = Instant::now();
        while handle.service.active.lock().unwrap().is_empty() {
            assert!(start.elapsed() < Duration::from_secs(10));
            std::thread::sleep(Duration::from_millis(2));
        }
        handle.handle_line(
            &verify_line(2, BUG, "\"engine\":\"spin-shim\",\"timeout_ms\":2000,"),
            &out,
        );
        handle.handle_line(&verify_line(3, BUG, ""), &out);
        let got = wait_for_lines(&buf, 1);
        let overloaded = got
            .iter()
            .find(|r| r.get("status").and_then(Json::as_str) == Some("overloaded"))
            .expect("the third submission is rejected immediately");
        assert_eq!(overloaded.get("id").and_then(Json::as_int), Some(3));
        handle.drain();
    }

    #[test]
    fn drain_reports_queued_jobs_cancelled_and_joins_workers() {
        let config = ServeConfig { workers: 1, queue_capacity: 8, ..ServeConfig::default() };
        let mut config = config;
        config.drain_grace_ms = 100;
        let handle = ServiceHandle::start(&config);
        let (out, buf) = sink();
        // An in-flight divergent job plus two queued ones.
        for id in 1..=3 {
            handle.handle_line(&verify_line(id, BUG, "\"engine\":\"spin-shim\","), &out);
        }
        let start = Instant::now();
        while handle.service.active.lock().unwrap().is_empty() {
            assert!(start.elapsed() < Duration::from_secs(10));
            std::thread::sleep(Duration::from_millis(2));
        }
        let completed = handle.drain();
        assert_eq!(completed, 3, "every admitted job gets exactly one result line");
        let got = wait_for_lines(&buf, 3);
        for response in &got {
            let task = response.get("task").unwrap();
            assert_eq!(task.get("verdict").and_then(Json::as_str), Some("cancelled"));
        }
    }

    #[test]
    fn cache_persists_across_service_restarts() {
        let path = std::env::temp_dir()
            .join(format!("pathinv-serve-test-{}-restart.journal", std::process::id()));
        std::fs::remove_file(&path).ok();
        let config = ServeConfig { cache_path: Some(path.clone()), ..ServeConfig::default() };
        let handle = ServiceHandle::start(&config);
        let (out, buf) = sink();
        handle.handle_line(&verify_line(1, BUG, ""), &out);
        wait_for_lines(&buf, 1);
        handle.drain();
        // A fresh service over the same journal serves the verdict warm.
        let handle = ServiceHandle::start(&config);
        let (out, buf) = sink();
        handle.handle_line(&verify_line(2, BUG, ""), &out);
        let got = wait_for_lines(&buf, 1);
        assert_eq!(got[0].get("cached"), Some(&Json::Bool(true)));
        assert_eq!(
            got[0].get("task").unwrap().get("verdict").and_then(Json::as_str),
            Some("unsafe")
        );
        handle.drain();
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn engine_spec_named_covers_the_protocol_vocabulary() {
        assert!(engine_spec_named("cegar", None).is_ok());
        assert!(engine_spec_named("cegar", Some("path-predicates")).is_ok());
        assert!(engine_spec_named("cegar", Some("mystery")).is_err());
        assert!(engine_spec_named("bmc", None).is_ok());
        assert!(engine_spec_named("pdr", None).is_ok());
        assert!(engine_spec_named("panic-shim", None).is_ok());
        assert!(engine_spec_named("spin-shim", None).is_ok());
        assert!(engine_spec_named("abort-shim", None).is_ok());
        assert!(engine_spec_named("memhog-shim", None).is_ok());
        assert!(engine_spec_named("flaky-shim", None).is_ok());
        assert!(engine_spec_named("z3", None).is_err());
    }

    /// `flaky-shim` faults on multi-variable programs and succeeds on
    /// single-variable ones, so one engine name can be driven through the
    /// whole breaker cycle.
    const TWO_VAR: &str = "proc f(x: int, y: int) { x = 1; assert(x == 1); }";
    const ONE_VAR: &str = "proc f(x: int) { x = 1; assert(x == 1); }";

    fn status_of(response: &Json) -> &str {
        response.get("status").and_then(Json::as_str).unwrap_or("?")
    }

    #[test]
    fn breaker_trips_quarantines_half_opens_and_recovers() {
        let config = ServeConfig {
            workers: 1,
            max_retries: 0,
            breaker_threshold: 2,
            breaker_cooldown_ms: 150,
            ..ServeConfig::default()
        };
        let handle = ServiceHandle::start(&config);
        let (out, buf) = sink();
        // Two consecutive faults trip the flaky-shim breaker open.
        handle.handle_line(&verify_line(1, TWO_VAR, "\"engine\":\"flaky-shim\","), &out);
        handle.handle_line(&verify_line(2, TWO_VAR, "\"engine\":\"flaky-shim\","), &out);
        let got = wait_for_lines(&buf, 2);
        for r in &got {
            assert_eq!(status_of(r), "done");
            assert_eq!(r.get("task").unwrap().get("verdict").and_then(Json::as_str), Some("error"));
        }
        // While open: fast-fail with `quarantined`, naming the engine.
        handle.handle_line(&verify_line(3, ONE_VAR, "\"engine\":\"flaky-shim\","), &out);
        let got = wait_for_lines(&buf, 3);
        assert_eq!(status_of(&got[2]), "quarantined");
        assert_eq!(got[2].get("engine").and_then(Json::as_str), Some("flaky-shim"));
        assert!(got[2].get("retry_after_ms").and_then(Json::as_int).is_some());
        // Other engines are unaffected by flaky-shim's quarantine.
        handle.handle_line(&verify_line(4, BUG, "\"engine\":\"bmc\","), &out);
        let got = wait_for_lines(&buf, 4);
        let bmc = got.iter().find(|r| r.get("id").and_then(Json::as_int) == Some(4)).unwrap();
        assert_eq!(status_of(bmc), "done");
        // After the cooldown, a half-open probe is admitted; its success
        // closes the breaker for good.
        std::thread::sleep(Duration::from_millis(200));
        handle.handle_line(&verify_line(5, ONE_VAR, "\"engine\":\"flaky-shim\","), &out);
        let got = wait_for_lines(&buf, 5);
        let probe = got.iter().find(|r| r.get("id").and_then(Json::as_int) == Some(5)).unwrap();
        assert_eq!(status_of(probe), "done", "the probe must be admitted: {probe:?}");
        assert_eq!(
            probe.get("task").unwrap().get("verdict").and_then(Json::as_str),
            Some("unknown")
        );
        // Closed again: the next flaky submission is admitted (and faults).
        handle.handle_line(&verify_line(6, TWO_VAR, "\"engine\":\"flaky-shim\","), &out);
        let got = wait_for_lines(&buf, 6);
        let after = got.iter().find(|r| r.get("id").and_then(Json::as_int) == Some(6)).unwrap();
        assert_eq!(status_of(after), "done", "a closed breaker admits: {after:?}");
        handle.drain();
    }

    #[test]
    fn faulted_jobs_retry_with_backoff_before_reporting() {
        let config = ServeConfig {
            workers: 1,
            max_retries: 2,
            retry_backoff_ms: 10,
            breaker_threshold: 0,
            ..ServeConfig::default()
        };
        let handle = ServiceHandle::start(&config);
        let (out, buf) = sink();
        handle.handle_line(&verify_line(1, BUG, "\"engine\":\"panic-shim\","), &out);
        let got = wait_for_lines(&buf, 1);
        assert_eq!(got.len(), 1, "retries must not duplicate the response");
        assert_eq!(
            got[0].get("task").unwrap().get("verdict").and_then(Json::as_str),
            Some("error"),
            "a deterministic fault still reports after the retry budget"
        );
        assert_eq!(handle.service.jobs_retried.load(Ordering::Relaxed), 2);
        handle.drain();
    }

    #[test]
    fn chaos_worker_exits_are_respawned_without_losing_jobs() {
        let config = ServeConfig {
            workers: 1,
            chaos: Some(ChaosConfig { seed: 7, worker_exit_per_mille: 1000 }),
            ..ServeConfig::default()
        };
        let handle = ServiceHandle::start(&config);
        let (out, buf) = sink();
        for id in 1..=5 {
            handle.handle_line(&verify_line(id, BUG, "\"engine\":\"bmc\","), &out);
        }
        let got = wait_for_lines(&buf, 5);
        // Ids 2..=5 are warm cache hits (same fingerprint), so only the
        // first reply proves a worker survived — submit distinct engines
        // to force real runs through the dying workers.
        handle.handle_line(&verify_line(6, BUG, "\"engine\":\"pdr\","), &out);
        handle.handle_line(&verify_line(7, ONE_VAR, "\"engine\":\"bmc\","), &out);
        let got2 = wait_for_lines(&buf, 7);
        for r in got.iter().chain(got2[5..].iter()) {
            assert_eq!(status_of(r), "done", "{r:?}");
        }
        assert!(
            handle.service.workers_respawned.load(Ordering::Relaxed) >= 1,
            "every completed job kills the worker at per-mille 1000; the supervisor must respawn"
        );
        handle.drain();
    }

    #[test]
    fn stats_report_supervision_state() {
        let config = ServeConfig {
            workers: 1,
            max_retries: 0,
            breaker_threshold: 1,
            breaker_cooldown_ms: 60_000,
            ..ServeConfig::default()
        };
        let handle = ServiceHandle::start(&config);
        let (out, buf) = sink();
        handle.handle_line(&verify_line(1, BUG, ""), &out);
        handle.handle_line(&verify_line(2, BUG, "\"engine\":\"panic-shim\","), &out);
        wait_for_lines(&buf, 2);
        handle.handle_line("{\"op\":\"stats\",\"id\":99}", &out);
        let got = wait_for_lines(&buf, 3);
        let stats = got.iter().find(|r| status_of(r) == "stats").unwrap();
        assert_eq!(stats.get("isolation").and_then(Json::as_str), Some("thread"));
        assert!(stats.get("queue_depth").and_then(Json::as_int).is_some());
        assert!(stats.get("delayed").and_then(Json::as_int).is_some());
        let cache = stats.get("cache").unwrap();
        assert_eq!(cache.get("entries").and_then(Json::as_int), Some(1));
        assert!(cache.get("journal_bytes").and_then(Json::as_int).is_some());
        assert_eq!(cache.get("degraded"), Some(&Json::Bool(false)));
        let jobs = stats.get("jobs").unwrap();
        assert_eq!(jobs.get("submitted").and_then(Json::as_int), Some(2));
        let verdicts = jobs.get("verdicts").unwrap();
        assert_eq!(verdicts.get("unsafe").and_then(Json::as_int), Some(1));
        assert_eq!(verdicts.get("error").and_then(Json::as_int), Some(1));
        let statuses = jobs.get("statuses").unwrap();
        assert_eq!(statuses.get("done").and_then(Json::as_int), Some(2));
        let breakers = stats.get("breakers").unwrap();
        let panic_breaker = breakers.get("panic-shim").expect("panic-shim breaker is tracked");
        assert_eq!(panic_breaker.get("state").and_then(Json::as_str), Some("open"));
        assert_eq!(panic_breaker.get("trips").and_then(Json::as_int), Some(1));
        let cegar_breaker = breakers.get("cegar").expect("cegar breaker is tracked");
        assert_eq!(cegar_breaker.get("state").and_then(Json::as_str), Some("closed"));
        handle.drain();
    }
}
