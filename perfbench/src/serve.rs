//! The `serve-mixed` workload: the release `pathinv-cli serve` daemon on a
//! Unix socket with a fresh cache journal, driven by one client connection.
//!
//! The run has two phases.  The *open-loop* phase sends
//! Poisson arrivals for two thirds of `--seconds`: about 30% of requests
//! are first submissions of new generated programs (cache misses: a
//! cegar/path-invariants run plus a journal append); the rest resubmit an
//! earlier program under a new name (cache hits: parse, fingerprint,
//! journal lookup).  Latency is timed from each request's due time, so a
//! stalled daemon delays every later request too.  A `stats` probe every
//! 250 ms samples the daemon's queue depth and journal size.  The open-loop
//! phase gives the latencies and `slo_frac`; its wall time and throughput
//! are set by the schedule, not by the daemon.
//!
//! The *burst* phase then starts a fresh daemon for each of [`BURSTS`]
//! bursts, sends it a burst of new programs all at once, and times the
//! burst from its first send to its last answer.  The burst programs are
//! one fixed draw ([`BURST_SEED`]), the same in every run.  These
//! drain times are the daemon's own (every request a cache miss: parse,
//! fingerprint, engine run, journal append), and give the workload's
//! `wall_s` and `throughput_per_s`.

use crate::inputs::plans;
use crate::util::{self, frac, median, ms, quantile, Rng, Speed};
use crate::{Report, Span, WorkloadArgs};
use pathinv_bench::generator::{Expected, GeneratedProgram};
use pathinv_cli::json::{self, Json};
use pathinv_ir::parse_program;
use std::io::{BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Arrival rate of the open-loop phase, about half the daemon's saturation
/// rate.  Measured once by sweeping the rate of this workload (seed 1,
/// 20 s) on a 2-CPU x86-64 host: at 28/s the queue stayed under 7 jobs and
/// misses waited 0.8 ms (p50); at 40/s the queue reached 24 and misses
/// waited 1.45 s, so the daemon saturates near 36/s.
const RATE_PER_S: f64 = 18.0;
/// Share of `--seconds` the open-loop phase lasts; the bursts follow.
const OPEN_LOOP_SHARE: f64 = 2.0 / 3.0;
/// Share of requests that submit a new program.
const NEW_FRAC: f64 = 0.3;
/// A resubmission targets a program first sent at least this long before,
/// so its verdict is normally in the cache already.
const HIT_LAG_S: f64 = 3.0;
/// Programs submitted (concurrently) after set-up to warm the cache, so the
/// first resubmissions have targets.
const WARM_PROGRAMS: usize = 6;
/// Bursts in the burst phase; `wall_s` is their mean drain time.
const BURSTS: usize = 6;
/// Programs per family in each burst (the same slots of the input plan in
/// every burst, so every burst asks for the same kind of work).
const BURST_PER_FAMILY: usize = 2;
/// The generator seed of the burst programs.  The bursts are the same in
/// every run, so `wall_s` measures the same work whatever `--seed` is (with
/// a seeded draw of their 72 programs, the mean drain moved by a fifth
/// between seeds); the seed drives the open-loop phase.
const BURST_SEED: u64 = 0xb0b5;
/// The workload's latency limit, for `slo_frac`.
const LATENCY_LIMIT_MS: f64 = 2_000.0;
/// Per-request engine deadline.
const DEADLINE_MS: i64 = 20_000;
/// The run is invalid when the generator sent its p99 request later than
/// this after its due time.
const MAX_SEND_LAG_MS: f64 = 50.0;
/// Interval between `stats` probes.
const STATS_EVERY: Duration = Duration::from_millis(250);
/// The longest wait for the answers of a phase or a burst.
const ANSWER_WAIT: Duration = Duration::from_secs(60);
const DAEMON_WORKERS: &str = "2";

/// One generated program with its oracle answer.
struct Prog {
    name: String,
    source: String,
    safe: bool,
}

/// One verify request.
struct Req {
    phase: Phase,
    prog: usize,
    /// A first submission of the program (a resubmission otherwise).
    new: bool,
}

/// When a request is due.
#[derive(Clone, Copy)]
enum Phase {
    /// In the open-loop phase, this long after the phase starts.
    Open(Duration),
    /// When burst `b` starts.
    Burst(usize),
}

/// The open-loop schedule: Poisson arrivals, each a new program with
/// probability [`NEW_FRAC`], otherwise a resubmission of the least
/// resubmitted program whose first submission was due at least
/// [`HIT_LAG_S`] earlier (the warm set counts as sent at time zero minus
/// the lag).  A pure function of the seed.
fn schedule(seed: u64, seconds: f64, programs: usize) -> Vec<Req> {
    let mut rng = Rng::new(seed ^ 0x5e7e);
    let mut first_due: Vec<f64> = vec![-HIT_LAG_S; WARM_PROGRAMS.min(programs)];
    let mut resubmitted: Vec<u32> = vec![0; first_due.len()];
    let mut reqs = Vec::new();
    let mut t = 0.0;
    loop {
        t += -(1.0 - rng.unit()).ln() / RATE_PER_S;
        if t >= seconds {
            return reqs;
        }
        let eligible = first_due.iter().take_while(|&&d| d <= t - HIT_LAG_S).count();
        let want_new = rng.unit() < NEW_FRAC;
        let (prog, new) = if (want_new || eligible == 0) && first_due.len() < programs {
            first_due.push(t);
            resubmitted.push(0);
            (first_due.len() - 1, true)
        } else {
            // The least resubmitted eligible program (ties drawn at random),
            // so the hits cover the programs evenly.
            let fewest = resubmitted[..eligible].iter().min().copied().unwrap_or(0);
            let ties: Vec<usize> = (0..eligible).filter(|&p| resubmitted[p] == fewest).collect();
            let prog = ties[rng.below(ties.len())];
            resubmitted[prog] += 1;
            (prog, false)
        };
        reqs.push(Req { phase: Phase::Open(Duration::from_secs_f64(t)), prog, new });
    }
}

/// The bursts: burst `b` submits the programs `first + b * per_burst ..`,
/// `per_burst` of them, in plan order.
fn bursts(first: usize, per_burst: usize) -> Vec<Req> {
    (0..BURSTS * per_burst)
        .map(|k| Req { phase: Phase::Burst(k / per_burst), prog: first + k, new: true })
        .collect()
}

/// The daemon child and a connection to it; killed and reaped on drop if
/// still running, and its socket and journal removed.
struct Daemon {
    child: Child,
    stream: UnixStream,
    socket: PathBuf,
    journal: PathBuf,
}

impl Daemon {
    /// Starts a daemon with an empty journal and connects to it.
    fn spawn(cli: &Path, dir: &Path, tag: &str) -> Result<Daemon, String> {
        let socket = dir.join(format!("serve-{}-{tag}.sock", std::process::id()));
        let journal = dir.join(format!("serve-{}-{tag}.journal", std::process::id()));
        let _ = std::fs::remove_file(&journal);
        let log = std::fs::File::create(dir.join("serve.log"))
            .map_err(|e| format!("cannot create the daemon log: {e}"))?;
        let mut child = Command::new(cli)
            .arg("serve")
            .arg("--socket")
            .arg(&socket)
            .arg("--cache")
            .arg(&journal)
            .args(["--workers", DAEMON_WORKERS])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(log)
            .spawn()
            .map_err(|e| format!("cannot start {}: {e}", cli.display()))?;
        match connect(&socket, &mut child) {
            Ok(stream) => Ok(Daemon { child, stream, socket, journal }),
            Err(e) => {
                let _ = child.kill();
                let _ = child.wait();
                let _ = std::fs::remove_file(&socket);
                let _ = std::fs::remove_file(&journal);
                Err(e)
            }
        }
    }

    /// Asks the daemon to shut down and waits for it to exit; kills it if
    /// the drain takes longer than 30 s.
    fn shutdown(&mut self) -> Result<(), String> {
        send(&mut self.stream, &Json::object(vec![("op", Json::Str("shutdown".into()))]))?;
        let start = Instant::now();
        loop {
            match self.child.try_wait() {
                Ok(Some(status)) if status.success() => return Ok(()),
                Ok(Some(status)) => return Err(format!("the daemon exited with {status}")),
                Ok(None) if start.elapsed() < Duration::from_secs(30) => {
                    std::thread::sleep(Duration::from_millis(10));
                }
                _ => {
                    let _ = self.child.kill();
                    let _ = self.child.wait();
                    return Err("the daemon did not drain within 30 s".to_string());
                }
            }
        }
    }
}

impl Drop for Daemon {
    fn drop(&mut self) {
        if let Ok(None) = self.child.try_wait() {
            let _ = self.child.kill();
            let _ = self.child.wait();
        }
        let _ = std::fs::remove_file(&self.socket);
        let _ = std::fs::remove_file(&self.journal);
    }
}

/// Connects to a starting daemon's socket once it answers a ping.
fn connect(socket: &Path, child: &mut Child) -> Result<UnixStream, String> {
    let start = Instant::now();
    loop {
        if let Ok(mut stream) = UnixStream::connect(socket) {
            send(&mut stream, &Json::object(vec![("op", Json::Str("ping".into()))]))?;
            let mut line = String::new();
            BufReader::new(&stream).read_line(&mut line).map_err(|e| e.to_string())?;
            if line.contains("pong") {
                return Ok(stream);
            }
        }
        if let Ok(Some(status)) = child.try_wait() {
            return Err(format!("the daemon exited during start-up ({status})"));
        }
        if start.elapsed() > Duration::from_secs(20) {
            return Err("the daemon did not answer a ping within 20 s".to_string());
        }
        std::thread::sleep(Duration::from_millis(1));
    }
}

fn send(stream: &mut UnixStream, value: &Json) -> Result<(), String> {
    let mut line = value.compact();
    line.push('\n');
    stream.write_all(line.as_bytes()).map_err(|e| format!("socket write failed: {e}"))
}

fn verify_request(id: usize, name: &str, prog: &Prog) -> Json {
    Json::object(vec![
        ("op", Json::Str("verify".into())),
        ("id", Json::Int(id as i64)),
        ("program", Json::Str(prog.source.clone())),
        ("engine", Json::Str("cegar".into())),
        ("refiner", Json::Str("path-invariants".into())),
        ("timeout_ms", Json::Int(DEADLINE_MS)),
        ("name", Json::Str(name.to_string())),
    ])
}

fn num(value: Option<&Json>) -> f64 {
    match value {
        Some(Json::Int(i)) => *i as f64,
        Some(Json::Float(x)) => *x,
        _ => 0.0,
    }
}

/// Responses as the reader thread received them.
#[derive(Default)]
struct Inbox {
    lines: Vec<(Instant, Json)>,
    malformed: usize,
}

/// Reads response lines until the daemon closes the connection.
fn read_responses(stream: UnixStream, inbox: &Mutex<Inbox>, answered: &AtomicUsize) {
    for line in BufReader::new(stream).lines() {
        let Ok(line) = line else { break };
        let at = Instant::now();
        let mut inbox = inbox.lock().expect("the response reader panicked");
        match json::parse(&line) {
            Ok(v) => {
                // Stats probes carry negative ids; verify requests do not.
                if matches!(v.get("id"), Some(Json::Int(id)) if *id >= 0) {
                    answered.fetch_add(1, Ordering::SeqCst);
                }
                inbox.lines.push((at, v));
            }
            Err(_) => inbox.malformed += 1,
        }
    }
}

/// Waits (at most [`ANSWER_WAIT`]) until `n` verify requests are answered.
fn await_answers(answered: &AtomicUsize, n: usize) {
    let give_up = Instant::now() + ANSWER_WAIT;
    while answered.load(Ordering::SeqCst) < n && Instant::now() < give_up {
        std::thread::sleep(Duration::from_millis(1));
    }
}

/// One set-up: generate the programs, parse them, and start the daemon of
/// the open-loop phase.
struct Setup {
    /// The open-loop programs (the warm set first), then each burst's.
    progs: Vec<Prog>,
    daemon: Daemon,
    generate_ms: f64,
    parse_ms: f64,
    digest: u64,
}

fn setup(args: &WorkloadArgs, open_per_family: usize, rep: usize) -> Result<Setup, String> {
    let start = Instant::now();
    let (open, _) = plans(args.seed, open_per_family, 1)?;
    let (bursts, _) = plans(BURST_SEED, BURST_PER_FAMILY, BURSTS)?;
    let generate_ms = ms(start.elapsed());
    let start = Instant::now();
    let mut digest = util::FNV_START;
    let mut progs = Vec::new();
    for p in open.into_iter().chain(bursts).flatten() {
        let GeneratedProgram { name, source, expected, .. } = p;
        parse_program(&source).map_err(|e| format!("{name} does not parse: {e}"))?;
        digest = util::fnv1a(digest, source.as_bytes());
        progs.push(Prog { safe: expected == Expected::Safe, name, source });
    }
    let parse_ms = ms(start.elapsed());
    let daemon = Daemon::spawn(&args.cli, &args.out_dir, &format!("setup{rep}"))?;
    Ok(Setup { progs, daemon, generate_ms, parse_ms, digest })
}

/// Warms the cache: submits the first [`WARM_PROGRAMS`] programs at once
/// and waits for their answers.  Returns any failed check.
fn warm_up(s: &mut Setup) -> Result<Vec<String>, String> {
    let warm = WARM_PROGRAMS.min(s.progs.len());
    for (i, prog) in s.progs.iter().take(warm).enumerate() {
        send(&mut s.daemon.stream, &verify_request(i, &prog.name, prog))?;
    }
    let mut reader = BufReader::new(s.daemon.stream.try_clone().map_err(|e| e.to_string())?);
    let mut failures = Vec::new();
    for _ in 0..warm {
        let mut line = String::new();
        reader.read_line(&mut line).map_err(|e| format!("warm-up read failed: {e}"))?;
        let v = json::parse(&line).map_err(|e| format!("malformed warm-up reply: {e}"))?;
        let i = num(v.get("id")) as usize;
        if let Some(problem) = check_reply(&v, s.progs.get(i)) {
            failures.push(format!("warm-up {problem}"));
        }
    }
    Ok(failures)
}

/// Checks one verify reply against the program's oracle answer.
fn check_reply(v: &Json, prog: Option<&Prog>) -> Option<String> {
    let prog = prog?;
    let status = v.get("status").and_then(Json::as_str).unwrap_or("?");
    if status != "done" {
        return Some(format!("{}: status {status}", prog.name));
    }
    let verdict =
        v.get("task").and_then(|t| t.get("verdict")).and_then(Json::as_str).unwrap_or("?");
    match verdict {
        "unknown" => None,
        "safe" | "unsafe" if (verdict == "safe") == prog.safe => None,
        "safe" | "unsafe" => Some(format!("{}: {verdict} contradicts the oracle", prog.name)),
        other => Some(format!("{}: verdict {other}", prog.name)),
    }
}

/// One burst as driven: when its first request went out, and the probe
/// times just before and after it.
struct Burst {
    start: Instant,
    probes_ms: [f64; 2],
}

/// Drives one burst on a fresh daemon: sends the requests `first..` for
/// `progs` all at once, then reads their answers into `inbox`.  Every
/// request is sent by the time the first answer is read.
fn drive_burst(
    args: &WorkloadArgs,
    b: usize,
    progs: &[&Prog],
    first: usize,
    sent: &mut Vec<Instant>,
    inbox: &mut Inbox,
) -> Result<Burst, String> {
    let mut daemon = Daemon::spawn(&args.cli, &args.out_dir, &format!("burst{b}"))?;
    let stream = daemon.stream.try_clone().map_err(|e| e.to_string())?;
    stream.set_read_timeout(Some(ANSWER_WAIT)).map_err(|e| e.to_string())?;
    let mut reader = BufReader::new(stream);
    let before_ms = util::host_probe_ms();
    let start = Instant::now();
    for (k, prog) in progs.iter().enumerate() {
        send(&mut daemon.stream, &verify_request(WARM_PROGRAMS + first + k, &prog.name, prog))?;
        sent.push(Instant::now());
    }
    for _ in progs {
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) => return Err(format!("burst {b}: the daemon closed the connection")),
            Ok(_) => {}
            Err(e) => return Err(format!("burst {b}: no answer: {e}")),
        }
        let at = Instant::now();
        match json::parse(&line) {
            Ok(v) => inbox.lines.push((at, v)),
            Err(_) => inbox.malformed += 1,
        }
    }
    let after_ms = util::host_probe_ms();
    daemon.shutdown()?;
    Ok(Burst { start, probes_ms: [before_ms, after_ms] })
}

/// Runs the workload and fills `report`.
pub fn run(args: &WorkloadArgs, report: &mut Report) -> Result<(), String> {
    let open_seconds = args.seconds as f64 * OPEN_LOOP_SHARE;
    // Enough programs for the expected first submissions, with margin.
    let open_programs =
        WARM_PROGRAMS + (RATE_PER_S * open_seconds * NEW_FRAC * 1.5).ceil() as usize + 8;
    let open_per_family = open_programs.div_ceil(6);
    let per_burst = BURST_PER_FAMILY * 6;

    // Set-up (generation, parsing, daemon start) is timed; warming the
    // cache is not.
    let (setup_s, setup_speed, mut s) = util::repeat_setup(
        |rep| setup(args, open_per_family, rep),
        |mut earlier| earlier.daemon.shutdown(),
    )?;
    let mut failures = warm_up(&mut s)?;
    report.meta("input_digest", format!("{:016x}", s.digest));
    report.meta("rate_per_s", RATE_PER_S.to_string());

    let open = s.progs.len() - BURSTS * per_burst;
    let mut reqs = schedule(args.seed, open_seconds, open);
    let n_open = reqs.len();
    reqs.extend(bursts(open, per_burst));
    let n = reqs.len();
    let inbox = Mutex::new(Inbox::default());
    let answered = AtomicUsize::new(0);
    let reader = s.daemon.stream.try_clone().map_err(|e| e.to_string())?;
    let mut sent: Vec<Instant> = Vec::with_capacity(n);
    let mut lag_ms = Vec::with_capacity(n_open);
    let mut daemon_rss = 0.0;
    let start = Instant::now();
    std::thread::scope(|scope| -> Result<(), String> {
        let (inbox, answered) = (&inbox, &answered);
        let reader_thread = scope.spawn(move || read_responses(reader, inbox, answered));
        let drive = (|| -> Result<(), String> {
            let mut next_stats = Duration::ZERO;
            let mut stats_id = 0i64;
            for (i, req) in reqs[..n_open].iter().enumerate() {
                let Phase::Open(due) = req.phase else { unreachable!("an open-loop request") };
                while next_stats <= due {
                    sleep_until(start + next_stats);
                    stats_id -= 1;
                    send(&mut s.daemon.stream, &stats_probe(stats_id))?;
                    next_stats += STATS_EVERY;
                }
                sleep_until(start + due);
                let prog = &s.progs[req.prog];
                let name = if req.new { prog.name.clone() } else { format!("{}-r{i}", prog.name) };
                let at = Instant::now();
                send(&mut s.daemon.stream, &verify_request(WARM_PROGRAMS + i, &name, prog))?;
                sent.push(at);
                lag_ms.push(ms(at - (start + due)));
            }
            // Wait (bounded) for every answer, then take a last sample.
            await_answers(answered, n_open);
            send(&mut s.daemon.stream, &stats_probe(stats_id - 1))?;
            std::thread::sleep(Duration::from_millis(50));
            daemon_rss = util::peak_rss_mb(Some(s.daemon.child.id()));
            Ok(())
        })();
        let down = s.daemon.shutdown();
        let _ = s.daemon.stream.shutdown(std::net::Shutdown::Both);
        reader_thread.join().map_err(|_| "the response reader panicked".to_string())?;
        drive.and(down)
    })?;
    let mut inbox = inbox.into_inner().expect("the response reader panicked");
    let mut driven: Vec<Burst> = Vec::new();
    for b in 0..BURSTS {
        let first = n_open + b * per_burst;
        let progs: Vec<&Prog> =
            reqs[first..first + per_burst].iter().map(|r| &s.progs[r.prog]).collect();
        driven.push(drive_burst(args, b, &progs, first, &mut sent, &mut inbox)?);
    }
    let probes: Vec<String> = std::iter::once(median(&setup_speed.probes_ms))
        .chain(driven.iter().flat_map(|b| b.probes_ms))
        .map(|p| format!("{p:.3}"))
        .collect();
    report.meta("host_probe_ms", probes.join(" "));

    // File the replies: verify answers by id, stats samples in order.
    let mut answers: Vec<Vec<(Instant, Json)>> = vec![Vec::new(); n];
    let mut queue_depth_max = 0.0f64;
    let mut journal_bytes = 0.0;
    if inbox.malformed > 0 {
        failures.push(format!("{} malformed reply lines", inbox.malformed));
    }
    for (at, v) in inbox.lines {
        match v.get("status").and_then(Json::as_str) {
            Some("stats") => {
                queue_depth_max = queue_depth_max.max(num(v.get("queue_depth")));
                journal_bytes = num(v.get("cache").and_then(|c| c.get("journal_bytes")));
            }
            Some("shutdown") => {}
            _ => match (num(v.get("id")) as usize).checked_sub(WARM_PROGRAMS) {
                Some(i) if i < n => answers[i].push((at, v)),
                _ => failures.push(format!("unexpected reply {}", v.compact())),
            },
        }
    }

    // Correctness of every request; latencies of the open-loop phase; the
    // drain time of each burst.
    let mut latency = Vec::new();
    let (mut hit_lat, mut miss_lat, mut queue_wait, mut run_ms) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let (mut decided, mut within, mut overloaded, mut hits) = (0, 0, 0, 0);
    let mut burst_end: Vec<Instant> = driven.iter().map(|b| b.start).collect();
    let mut layer = LayerSums::default();
    let mut spans = Vec::new();
    let mut roots_us = 0.0;
    for (i, (req, replies)) in reqs.iter().zip(&answers).enumerate() {
        let prog = &s.progs[req.prog];
        let [(at, v)] = replies.as_slice() else {
            failures.push(format!("request {i} ({}) answered {} times", prog.name, replies.len()));
            continue;
        };
        let due = match req.phase {
            Phase::Open(due) => start + due,
            Phase::Burst(b) => {
                burst_end[b] = burst_end[b].max(*at);
                driven[b].start
            }
        };
        if v.get("status").and_then(Json::as_str) == Some("overloaded") {
            overloaded += 1;
        }
        if let Some(problem) = check_reply(v, Some(prog)) {
            failures.push(problem);
            continue;
        }
        let Some(task) = v.get("task") else {
            failures.push(format!("request {i} ({}): a reply without a task", prog.name));
            continue;
        };
        if matches!(task.get("verdict").and_then(Json::as_str), Some("safe" | "unsafe")) {
            decided += 1;
        }
        let cached = v.get("cached") == Some(&Json::Bool(true));
        let l = ms(*at - due);
        if !cached {
            layer.add_run(task);
        }
        layer.add_audit(task);
        if let Phase::Open(_) = req.phase {
            hits += i32::from(cached);
            latency.push(l);
            if l <= LATENCY_LIMIT_MS {
                within += 1;
            }
            if cached {
                hit_lat.push(l);
            } else {
                let wall = num(task.get("wall_ms"));
                miss_lat.push(l);
                run_ms.push(wall);
                queue_wait.push(l - wall);
            }
        }
        if args.trace {
            let tag = if cached { "hit" } else { "miss" };
            let phase = match req.phase {
                Phase::Open(_) => "open loop".to_string(),
                Phase::Burst(b) => format!("burst {b}"),
            };
            let label = format!("request {} {} ({phase}, {tag})", WARM_PROGRAMS + i, prog.name);
            roots_us += ms(*at - due) * 1e3;
            let root = Span::push(&mut spans, None, "bench.request", label, due, *at, start);
            Span::push(&mut spans, Some(root), "cli.serve", tag.into(), sent[i], *at, start);
        }
    }
    let attempted = n + WARM_PROGRAMS.min(s.progs.len());
    report.attempted = attempted as u64;
    report.failed = failures.len() as u64;
    for f in failures.iter().take(20) {
        report.notes.push(format!("FAILED {f}"));
    }
    let lag_p99 = quantile(&lag_ms, 0.99);
    if lag_p99 > MAX_SEND_LAG_MS {
        report.invalid(format!(
            "the generator fell behind its schedule (p99 send lag {lag_p99:.1} ms > \
             {MAX_SEND_LAG_MS} ms); its latencies are not valid"
        ));
    }

    // Set-up and the bursts are CPU-bound and scaled to the reference host
    // speed.  The open-loop latencies are not: the median (a cache hit) is
    // set by thread wake-ups and socket round trips, which did not speed up
    // when the host did.
    let raw_walls: Vec<f64> =
        driven.iter().zip(&burst_end).map(|(b, end)| (*end - b.start).as_secs_f64()).collect();
    // One median over the burst phase, not a scale per burst: a probe now
    // and then reads slow by half, which would distort its burst.
    let probes_ms = driven.iter().flat_map(|b| b.probes_ms).collect();
    let scale = Speed { probes_ms }.scale();
    let walls: Vec<f64> = raw_walls.iter().map(|wall| wall * scale).collect();
    let burst_requests = (n - n_open) as f64;
    let tail = util::tail(&latency);
    report.put("setup_s", median(&setup_s) * setup_speed.scale(), "s");
    report.put("wall_s", walls.iter().sum::<f64>() / walls.len() as f64, "s");
    report.put("throughput_per_s", frac(burst_requests, walls.iter().sum()), "1/s");
    report.put("latency_p50_ms", median(&latency), "ms");
    report.put("latency_tail_ms", tail.value, "ms");
    report.put("decided_frac", frac(f64::from(decided), n as f64), "ratio");
    report.put("failed_frac", frac(report.failed as f64, attempted as f64), "ratio");
    report.put("slo_frac", frac(f64::from(within), n_open as f64), "ratio");
    report.put("peak_rss_mb", daemon_rss, "MB");
    let shown: Vec<String> = raw_walls.iter().map(|w| format!("{w:.3}")).collect();
    report.notes.push(format!(
        "raw times at the measured host speed: setup_s {:.6}, burst drains s: {}",
        median(&setup_s),
        shown.join(" ")
    ));
    report.notes.push(format!(
        "open loop: {n_open} requests at {RATE_PER_S}/s ({} new); bursts: {BURSTS} x \
         {per_burst} new programs, each on a fresh daemon; {hits} open-loop answers were cache \
         hits; latency_tail_ms is p{:.2} of {} samples; latency limit {LATENCY_LIMIT_MS} ms",
        reqs[..n_open].iter().filter(|r| r.new).count(),
        tail.percentile,
        tail.samples
    ));

    if args.trace {
        report.put("cli.serve.hit_frac", frac(f64::from(hits), latency.len() as f64), "ratio");
        report.put("cli.serve.hit_latency_p50_ms", median(&hit_lat), "ms");
        report.put("cli.serve.miss_latency_p50_ms", median(&miss_lat), "ms");
        report.put("cli.serve.queue_wait_p50_ms", median(&queue_wait), "ms");
        report.put("cli.serve.run_ms", median(&run_ms), "ms");
        report.put("cli.serve.overloaded", f64::from(overloaded), "count");
        report.put("cli.serve.queue_depth_max", queue_depth_max, "count");
        report.put("cli.cache.journal_bytes", journal_bytes, "bytes");
        report.put("ir.parse_ms", s.parse_ms, "ms");
        report.put("ir.programs", s.progs.len() as f64, "count");
        report.put("bench.generate_ms", s.generate_ms, "ms");
        report.put("bench.send_lag_p99_ms", lag_p99, "ms");
        // The spans are built after the run from timestamps the untraced
        // run takes anyway, so tracing adds no work here.
        report.put("bench.trace_overhead_frac", 0.0, "ratio");
        // The requests' time from their due time, against the daemon's
        // part of it from the send.
        let span_refs: Vec<&Span> = spans.iter().collect();
        report.put("bench.span_coverage", crate::span_coverage(&span_refs, roots_us), "ratio");
        layer.report(report);
        report.spans = spans;
    }
    Ok(())
}

fn sleep_until(t: Instant) {
    let now = Instant::now();
    if t > now {
        std::thread::sleep(t - now);
    }
}

fn stats_probe(id: i64) -> Json {
    Json::object(vec![("op", Json::Str("stats".into())), ("id", Json::Int(id))])
}

/// Engine counters the daemon reports in each cache-miss reply, and the
/// audit fields of every reply (empty unless the daemon audits).
#[derive(Default)]
struct LayerSums {
    sums: std::collections::BTreeMap<&'static str, f64>,
}

impl LayerSums {
    fn bump(&mut self, key: &'static str, value: f64) {
        *self.sums.entry(key).or_default() += value;
    }

    fn add_run(&mut self, task: &Json) {
        let phase = |field| task.get("phases").and_then(|p| p.get(field));
        let decided = matches!(task.get("verdict").and_then(Json::as_str), Some("safe" | "unsafe"));
        let fields = [
            ("smt.sat_checks", task.get("solver_calls")),
            ("smt.simplex_cold", task.get("simplex_calls")),
            ("smt.simplex_warm", task.get("simplex_warm_checks")),
            ("smt.interpolants", task.get("interpolant_calls")),
            ("smt_queries", task.get("smt_queries")),
            ("query_cache_hits", task.get("query_cache_hits")),
            ("post_queries", task.get("post_queries")),
            ("post_cache_hits", task.get("post_cache_hits")),
            ("invgen.systems_solved", task.get("synth_systems_solved")),
            ("invgen.branches_explored", task.get("synth_branches_explored")),
            ("invgen.branches_pruned", task.get("synth_branches_pruned")),
            ("invgen.cores_learned", task.get("synth_cores_learned")),
            ("invgen.memo_hits", task.get("synth_memo_hits")),
            ("core.cegar.refinements", task.get("refinements")),
            ("core.cegar.art_nodes", task.get("art_nodes")),
            ("core.cegar_pi.busy_ms", task.get("wall_ms")),
            ("core.cegar.refine_ms", phase("refine_ms")),
            ("core.cegar.reach_ms", phase("reach_ms")),
            ("core.cegar.cex_ms", phase("cex_ms")),
        ];
        for (k, v) in fields {
            self.bump(k, num(v));
        }
        self.bump("core.cegar_pi.jobs", 1.0);
        self.bump("decided", f64::from(u8::from(decided)));
    }

    /// Counts an audit when the reply carries one.
    fn add_audit(&mut self, task: &Json) {
        let verdict = task.get("cert_verdict").and_then(Json::as_str).unwrap_or("");
        if verdict.is_empty() {
            return;
        }
        let check_ms = num(task.get("cert_check_ms"));
        self.bump("check.audits", 1.0);
        self.bump("check.busy_ms", check_ms);
        self.bump("valid", f64::from(u8::from(verdict == "valid")));
        let max = self.sums.entry("check.max_ms").or_default();
        *max = max.max(check_ms);
    }

    fn report(&self, report: &mut Report) {
        let get = |k: &str| self.sums.get(k).copied().unwrap_or(0.0);
        for (k, v) in &self.sums {
            if k.contains('.') {
                report.put(k, *v, crate::unit_of(k));
            }
        }
        report.put(
            "smt.warm_frac",
            frac(get("smt.simplex_warm"), get("smt.simplex_warm") + get("smt.simplex_cold")),
            "ratio",
        );
        report.put(
            "smt.query_cache_hit_frac",
            frac(get("query_cache_hits"), get("smt_queries")),
            "ratio",
        );
        report.put(
            "core.cegar.post_hit_frac",
            frac(get("post_cache_hits"), get("post_queries")),
            "ratio",
        );
        report.put(
            "invgen.prune_frac",
            frac(get("invgen.branches_pruned"), get("invgen.branches_explored")),
            "ratio",
        );
        report.put(
            "core.cegar_pi.decided_frac",
            frac(get("decided"), get("core.cegar_pi.jobs")),
            "ratio",
        );
        report.put("check.audits", get("check.audits"), "count");
        report.put("check.valid_frac", frac(get("valid"), get("check.audits")), "ratio");
    }
}
