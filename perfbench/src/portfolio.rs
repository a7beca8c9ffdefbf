//! The two batch workloads: every (program, lane) task of a portfolio run
//! through `pathinv_core::run_job`, each conclusive verdict audited with
//! `pathinv_check::check_certificate`, on a closed loop of bench workers.
//!
//! A run is a sequence of *passes*.  One pass runs every task once, in an
//! order drawn from the seed (the first pass in task order), with the
//! workers pulling from a shared queue;
//! the next pass starts when the last verdict of the previous one is in.
//! Untraced passes give the end-to-end metrics.  With `--trace 1` the run
//! alternates traced and untraced passes (one traced pass with a single
//! worker), and the traced passes give the per-layer metrics.

use crate::inputs::plans;
use crate::util::{self, frac, median, ms, Rng, Speed};
use crate::{Report, Span, WorkloadArgs};
use pathinv_bench::generator::Expected;
use pathinv_check::{check_certificate, CertVerdict, CheckLimits};
use pathinv_cli::{corpus_programs, make_tasks, EngineChoice, RefinerChoice};
use pathinv_core::{job_fingerprint, run_job, CancellationToken, JobOutcome, JobSpec};
use pathinv_invgen::{synth_stats_snapshot, SynthCounters};
use pathinv_ir::{corpus, parse_program, Program};
use pathinv_smt::{stats_snapshot, SmtStats};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Bench workers: the host's two CPUs.
const WORKERS: usize = 2;
/// Per-task deadline.  No task of either workload comes near it; a task
/// that does is reported as a failure, not silently cut short.
const DEADLINE_MS: u64 = 20_000;
/// Generated programs per family (each runs on all four lanes).
const GENERATED_PER_FAMILY: usize = 7;

/// Known answers for the corpus programs that are not suite entries (the
/// suite carries its own `safe` flags), taken from the paper and from the
/// comments of the committed `programs/*.pinv` sources.
const CORPUS_ANSWERS: [(&str, bool); 8] = [
    // Figure 1: a + b = 3n after the loop.
    ("FORWARD", true),
    // Figure 2: the loop zeroes a[0..n) before the check.
    ("INITCHECK", true),
    // Figure 3: ge/lt hold exactly the non-negative/negative elements.
    ("PARTITION", true),
    // §6: the loop writes 1 into every cell, then asserts a[0] == 0.
    ("BUGGY_INITCHECK", false),
    // Figure 4: the edge ρ4 into the error location is unguarded.
    ("FIGURE4", false),
    // Writes 7 into a[0] and a[1], then asserts a[0] == 0.
    ("pinv/array_reset_bug", false),
    // Safe over the integers; only a rational relaxation reaches the error.
    ("pinv/rational_cex_parity", true),
    ("pinv/half_integer_bug", true),
];

/// The four portfolio lanes, in report order.
pub const LANES: [&str; 4] = ["cegar_pi", "cegar_pp", "bmc", "pdr"];

/// One (program, lane) task with its verifier-independent answer.
struct Task {
    name: String,
    lane: usize,
    spec: JobSpec,
    program: Program,
    safe: bool,
}

fn lane_of(spec: &JobSpec) -> usize {
    match (spec.engine.engine_name(), spec.engine.refiner_name()) {
        ("cegar", "path-invariants") => 0,
        ("cegar", _) => 1,
        ("bmc", _) => 2,
        _ => 3,
    }
}

/// Expands named programs with known answers into the four-lane portfolio,
/// with the batch runner's own engine configurations.
fn portfolio(programs: Vec<(String, Program, bool)>) -> Vec<Task> {
    let answers: BTreeMap<String, bool> =
        programs.iter().map(|(n, _, safe)| (n.clone(), *safe)).collect();
    let named = programs.into_iter().map(|(n, p, _)| (n, p)).collect();
    make_tasks(named, EngineChoice::Portfolio, RefinerChoice::Both, None)
        .into_iter()
        .map(|t| {
            let spec = JobSpec::with_timeout_ms(t.engine, Some(DEADLINE_MS));
            Task {
                safe: answers[&t.program_name],
                lane: lane_of(&spec),
                name: t.program_name,
                spec,
                program: t.program,
            }
        })
        .collect()
}

/// What one set-up produced: the tasks plus its layer timings.
struct Setup {
    tasks: Vec<Task>,
    generate_ms: f64,
    parse_ms: f64,
    programs: usize,
    digest: u64,
    notes: Vec<String>,
}

fn corpus_setup() -> Result<Setup, String> {
    let start = Instant::now();
    let programs = corpus_programs();
    let parse_ms = ms(start.elapsed());
    let suite: BTreeMap<String, bool> =
        corpus::suite().into_iter().map(|e| (format!("suite/{}", e.name), e.safe)).collect();
    let mut known = Vec::new();
    for (name, program) in programs {
        let safe = suite
            .get(&name)
            .copied()
            .or_else(|| CORPUS_ANSWERS.iter().find(|(n, _)| *n == name).map(|(_, s)| *s))
            .ok_or_else(|| format!("corpus program {name} has no known answer"))?;
        known.push((name, program, safe));
    }
    let programs = known.len();
    let tasks = portfolio(known);
    let digest = tasks.iter().fold(util::FNV_START, |h, t| {
        let h = util::fnv1a(h, t.name.as_bytes());
        util::fnv1a(h, job_fingerprint(&t.program, &t.spec.engine).as_bytes())
    });
    Ok(Setup { tasks, generate_ms: 0.0, parse_ms, programs, digest, notes: Vec::new() })
}

fn generated_setup(seed: u64) -> Result<Setup, String> {
    let start = Instant::now();
    let (programs, draw) = plans(seed, GENERATED_PER_FAMILY, 1)?;
    let generate_ms = ms(start.elapsed());
    let start = Instant::now();
    let mut known = Vec::new();
    let mut digest = util::FNV_START;
    for p in programs.into_iter().flatten() {
        let program =
            parse_program(&p.source).map_err(|e| format!("{} does not parse: {e}", p.name))?;
        digest = util::fnv1a(digest, p.source.as_bytes());
        known.push((p.name, program, p.expected == Expected::Safe));
    }
    let parse_ms = ms(start.elapsed());
    let unsafe_count = known.iter().filter(|k| !k.2).count();
    let notes = vec![format!(
        "inputs: {} programs ({unsafe_count} oracle-certified unsafe) from a campaign draw of {draw}",
        known.len()
    )];
    let programs = known.len();
    Ok(Setup { tasks: portfolio(known), generate_ms, parse_ms, programs, digest, notes })
}

/// Solver and synthesis counters read on the worker thread.
#[derive(Clone, Copy, Default)]
struct Snap {
    smt: SmtStats,
    synth: SynthCounters,
}

impl Snap {
    fn now() -> Snap {
        Snap { smt: stats_snapshot(), synth: synth_stats_snapshot() }
    }

    fn since(&self, earlier: &Snap) -> Snap {
        Snap { smt: self.smt.since(&earlier.smt), synth: self.synth.since(&earlier.synth) }
    }
}

/// Everything measured about one task execution.
struct TaskRun {
    task: usize,
    wait_ms: f64,
    latency_ms: f64,
    run_ms: f64,
    check_ms: Option<f64>,
    audit_valid: bool,
    outcome: JobOutcome,
    failure: Option<String>,
    /// Counters around `run_job` and around the audit (traced passes only).
    core: Snap,
    check: Snap,
}

impl TaskRun {
    fn decided(&self) -> bool {
        matches!(self.outcome.verdict.as_str(), "safe" | "unsafe")
    }

    /// The exact counts that must repeat on every pass and worker count.
    fn signature(&self) -> Vec<u64> {
        let (c, k, s) = (&self.core, &self.check, &self.outcome.stats);
        let smt = |x: &SmtStats| {
            [x.sat_checks, x.simplex_calls, x.simplex_warm_checks, x.interpolant_calls]
        };
        let y = &c.synth;
        let mut sig = vec![
            y.systems_solved,
            y.branches_explored,
            y.branches_pruned,
            y.cores_learned,
            y.memo_hits,
            s.smt_queries,
            s.query_cache_hits,
            s.post_queries,
            s.post_cache_hits,
            s.engine_depth,
            s.engine_nodes,
            s.engine_lemmas,
            self.outcome.refinements as u64,
            self.outcome.predicates as u64,
            self.outcome.art_nodes as u64,
            u64::from(self.decided()),
        ];
        sig.extend(smt(&c.smt));
        sig.extend(smt(&k.smt));
        sig
    }
}

/// Audits a conclusive verdict: the certificate must exist, claim the same
/// polarity, and pass the independent checker.
fn audit(program: &Program, outcome: &JobOutcome) -> Result<(), String> {
    let Some(cert) = &outcome.certificate else {
        return Err("conclusive verdict without a certificate".to_string());
    };
    if cert.claims_safety() != (outcome.verdict == "safe") {
        return Err(format!("{} certificate for a {} verdict", cert.kind(), outcome.verdict));
    }
    match check_certificate(program, cert, &CheckLimits::default()) {
        CertVerdict::Valid => Ok(()),
        other => Err(format!("audit {}: {}", other.name(), other.reason().unwrap_or_default())),
    }
}

fn run_task(
    tasks: &[Task],
    index: usize,
    pass_start: Instant,
    epoch: Instant,
    traced: bool,
    spans: &mut Vec<Span>,
) -> TaskRun {
    let task = &tasks[index];
    let begin = Instant::now();
    let s0 = if traced { Snap::now() } else { Snap::default() };
    let job_start = Instant::now();
    let outcome = run_job(&task.spec, &task.program, &CancellationToken::new());
    let job_end = Instant::now();
    let s1 = if traced { Snap::now() } else { Snap::default() };
    let decided = matches!(outcome.verdict.as_str(), "safe" | "unsafe");
    let check_start = Instant::now();
    let verdict = if decided { Some(audit(&task.program, &outcome)) } else { None };
    let check_end = Instant::now();
    let s2 = if traced { Snap::now() } else { Snap::default() };
    let end = Instant::now();
    let failure = match (outcome.verdict.as_str(), &verdict) {
        ("error", _) => Some(format!("error: {}", outcome.detail)),
        ("cancelled", _) => Some(format!("missed the deadline: {}", outcome.detail)),
        (v, _) if decided && (v == "safe") != task.safe => Some(format!(
            "contradicts the known answer ({})",
            if task.safe { "safe" } else { "unsafe" }
        )),
        (_, Some(Err(e))) => Some(e.clone()),
        _ => None,
    };
    if traced {
        let lane = LANES[task.lane];
        let label = format!("{} [{lane}]", task.name);
        let root = Span::push(spans, None, "bench.task", label, begin, end, epoch);
        Span::push(spans, Some(root), "core.run_job", lane.into(), job_start, job_end, epoch);
        if decided {
            let name = "check.check_certificate";
            Span::push(spans, Some(root), name, lane.into(), check_start, check_end, epoch);
        }
    }
    TaskRun {
        task: index,
        wait_ms: ms(begin - pass_start),
        latency_ms: ms(end - begin),
        run_ms: ms(job_end - job_start),
        check_ms: decided.then(|| ms(check_end - check_start)),
        audit_valid: matches!(verdict, Some(Ok(()))),
        outcome,
        failure,
        core: s1.since(&s0),
        check: s2.since(&s1),
    }
}

/// One pass over every task.
struct Pass {
    traced: bool,
    workers: usize,
    wall_ms: f64,
    /// Each worker's time from its start to its exit, summed: the time the
    /// task spans of the pass should account for.
    worker_ms: f64,
    runs: Vec<TaskRun>,
    spans: Vec<Span>,
}

fn run_pass(tasks: &[Task], order: &[usize], workers: usize, traced: bool, epoch: Instant) -> Pass {
    let next = AtomicUsize::new(0);
    let sink: Mutex<(Vec<TaskRun>, Vec<Span>, f64)> = Mutex::new((Vec::new(), Vec::new(), 0.0));
    let start = Instant::now();
    std::thread::scope(|scope| {
        for _ in 0..workers {
            scope.spawn(|| {
                let worker_start = Instant::now();
                let (mut runs, mut spans) = (Vec::new(), Vec::new());
                loop {
                    let i = next.fetch_add(1, Ordering::Relaxed);
                    let Some(&index) = order.get(i) else { break };
                    runs.push(run_task(tasks, index, start, epoch, traced, &mut spans));
                }
                let worker_ms = ms(worker_start.elapsed());
                let mut sink = sink.lock().expect("a bench worker panicked");
                // Span ids are per worker; rebase them onto the shared list.
                let base = sink.1.len() as u32;
                sink.1.extend(spans.into_iter().map(|s| s.rebased(base)));
                sink.0.extend(runs);
                sink.2 += worker_ms;
            });
        }
    });
    let wall_ms = ms(start.elapsed());
    let (runs, spans, worker_ms) = sink.into_inner().expect("a bench worker panicked");
    Pass { traced, workers, wall_ms, worker_ms, runs, spans }
}

/// Runs a batch workload and fills `report`.
pub fn run(args: &WorkloadArgs, generated: bool, report: &mut Report) -> Result<(), String> {
    // Set-up: build the inputs several times; `setup_s` is the median.
    let mut digest = None;
    let (setup_s, setup_speed, setup) = util::repeat_setup(
        |_| {
            let next = if generated { generated_setup(args.seed)? } else { corpus_setup()? };
            if digest.is_some_and(|d| d != next.digest) {
                return Err("set-up is not deterministic: input digests differ".to_string());
            }
            digest = Some(next.digest);
            Ok(next)
        },
        |_| Ok(()),
    )?;
    let mut probes = vec![util::host_probe_ms()];
    report.meta("input_digest", format!("{:016x}", setup.digest));
    report.meta("tasks", setup.tasks.len().to_string());
    report.notes.extend(setup.notes.iter().cloned());
    let tasks = &setup.tasks;

    let epoch = Instant::now();
    let budget = Duration::from_secs(args.seconds);
    let mut rng = Rng::new(args.seed);
    let mut passes: Vec<Pass> = Vec::new();
    let mut first_pass_rss_mb = 0.0;
    loop {
        // Traced runs cycle traced / untraced / single-worker traced /
        // untraced passes; untraced runs use only untraced passes.
        let (traced, workers) = match (args.trace, passes.len() % 4) {
            (false, _) | (true, 1 | 3) => (false, WORKERS),
            (true, 0) => (true, WORKERS),
            (true, _) => (true, 1),
        };
        let typical = median(
            &passes.iter().filter(|p| p.workers == WORKERS).map(|p| p.wall_ms).collect::<Vec<_>>(),
        );
        let estimate = Duration::from_secs_f64(typical * (WORKERS / workers) as f64 / 1e3);
        // A traced run needs one pass of each kind before it may stop.
        let minimum = if args.trace { 3 } else { 1 };
        if passes.len() >= minimum && epoch.elapsed() + estimate > budget {
            break;
        }
        // The first pass runs in task order, so the peak RSS read after it
        // does not depend on which tasks a permutation happens to pair up.
        let mut order: Vec<usize> = (0..tasks.len()).collect();
        if !passes.is_empty() {
            rng.shuffle(&mut order);
        }
        passes.push(run_pass(tasks, &order, workers, traced, epoch));
        probes.push(util::host_probe_ms());
        if passes.len() == 1 {
            // A user's batch run is one pass per process; later passes
            // would add the growth of the process-wide intern tables.
            first_pass_rss_mb = util::peak_rss_mb(None);
        }
    }

    // Correctness: every task of every pass.
    let all: Vec<&TaskRun> = passes.iter().flat_map(|p| &p.runs).collect();
    let failures: Vec<String> = all
        .iter()
        .filter_map(|r| {
            let t = &tasks[r.task];
            r.failure.as_ref().map(|f| format!("{} [{}]: {f}", t.name, LANES[t.lane]))
        })
        .collect();
    report.attempted = all.len() as u64;
    report.failed = failures.len() as u64;
    for f in failures.iter().take(20) {
        report.notes.push(format!("FAILED {f}"));
    }

    // The passes run at the host speed the probes between them measured.
    // One median over the run, not a scale per pass: a probe now and then
    // reads slow by half, which would distort its pass.
    let scale = Speed { probes_ms: probes.clone() }.scale();
    let setup_probe = median(&setup_speed.probes_ms);
    let probes_ms: Vec<String> =
        std::iter::once(&setup_probe).chain(&probes).map(|p| format!("{p:.3}")).collect();
    report.meta("host_probe_ms", probes_ms.join(" "));
    let untraced: Vec<&Pass> = passes.iter().filter(|p| !p.traced).collect();
    end_to_end(&untraced, tasks, median(&setup_s), setup_speed.scale(), scale, report);
    report.put("peak_rss_mb", first_pass_rss_mb, "MB");
    if args.trace {
        let traced: Vec<&Pass> = passes.iter().filter(|p| p.traced).collect();
        per_layer(&traced, &untraced, tasks, &setup, report);
        report.spans = passes.into_iter().flat_map(|p| p.spans).collect();
    }
    Ok(())
}

/// The end-to-end metrics; times are scaled to the reference host speed
/// (`setup_scale` for set-up, `scale` for the passes), and the raw figures
/// go into a note.
fn end_to_end(
    passes: &[&Pass],
    tasks: &[Task],
    setup_s: f64,
    setup_scale: f64,
    scale: f64,
    report: &mut Report,
) {
    let runs: Vec<&TaskRun> = passes.iter().flat_map(|p| &p.runs).collect();
    let latencies: Vec<f64> = runs.iter().map(|r| r.latency_ms * scale).collect();
    let walls: Vec<f64> = passes.iter().map(|p| p.wall_ms * scale).collect();
    let raw_walls: Vec<f64> = passes.iter().map(|p| p.wall_ms).collect();
    let raw_latencies: Vec<f64> = runs.iter().map(|r| r.latency_ms).collect();
    let n = runs.len() as f64;
    let tail = util::tail(&latencies);
    report.put("setup_s", setup_s * setup_scale, "s");
    // The mean pass, not the median: which long task a pass happens to
    // start last moves its wall by a tenth, and the mean of a few passes
    // averages that out better.
    report.put("wall_s", walls.iter().sum::<f64>() / walls.len() as f64 / 1e3, "s");
    report.put("throughput_per_s", frac(n, walls.iter().sum::<f64>() / 1e3), "1/s");
    report.put("latency_p50_ms", median(&latencies), "ms");
    report.put("latency_tail_ms", tail.value, "ms");
    report.notes.push(format!(
        "raw times at the measured host speed: setup_s {setup_s:.6}, wall_s {:.4}, \
         throughput_per_s {:.3}, latency_p50_ms {:.4}, latency_tail_ms {:.2}",
        raw_walls.iter().sum::<f64>() / raw_walls.len() as f64 / 1e3,
        frac(n, raw_walls.iter().sum::<f64>() / 1e3),
        median(&raw_latencies),
        util::tail(&raw_latencies).value
    ));
    report.put(
        "decided_frac",
        frac(runs.iter().filter(|r| r.decided()).count() as f64, n),
        "ratio",
    );
    report.put(
        "failed_frac",
        frac(runs.iter().filter(|r| r.failure.is_some()).count() as f64, n),
        "ratio",
    );
    let walls_s: Vec<String> = raw_walls.iter().map(|w| format!("{:.3}", w / 1e3)).collect();
    report.notes.push(format!(
        "{} untraced passes of {} tasks on {WORKERS} workers (raw wall s: {}); latency_tail_ms \
         is p{:.2} of {} samples",
        passes.len(),
        tasks.len(),
        walls_s.join(" "),
        tail.percentile,
        tail.samples
    ));
}

/// Per-layer figures of one traced pass.
fn pass_layers(pass: &Pass, tasks: &[Task]) -> BTreeMap<String, f64> {
    let mut m: BTreeMap<String, f64> = BTreeMap::new();
    let mut add = |k: &str, v: f64| *m.entry(k.to_string()).or_default() += v;
    let (mut queries, mut query_hits, mut posts, mut post_hits) = (0, 0, 0, 0);
    let (mut decided, mut valid, mut check_max) = ([0.0; 4], 0.0, 0.0f64);
    for r in &pass.runs {
        let lane = LANES[tasks[r.task].lane];
        let (c, s) = (&r.core, &r.outcome.stats);
        for x in [&c.smt, &r.check.smt] {
            add("smt.sat_checks", x.sat_checks as f64);
            add("smt.simplex_cold", x.simplex_calls as f64);
            add("smt.simplex_warm", x.simplex_warm_checks as f64);
            add("smt.interpolants", x.interpolant_calls as f64);
        }
        queries += s.smt_queries;
        query_hits += s.query_cache_hits;
        match lane {
            "bmc" => {
                add("smt.bmc.simplex_cold", c.smt.simplex_calls as f64);
                add("core.bmc.nodes", s.engine_nodes as f64);
            }
            "pdr" => add("core.pdr.lemmas", s.engine_lemmas as f64),
            _ => {
                posts += s.post_queries;
                post_hits += s.post_cache_hits;
                add("core.cegar.refine_ms", s.refine_ms);
                add("core.cegar.reach_ms", s.reach_ms);
                add("core.cegar.cex_ms", s.cex_ms);
                add("core.cegar.refinements", r.outcome.refinements as f64);
                add("core.cegar.art_nodes", r.outcome.art_nodes as f64);
            }
        }
        add("invgen.systems_solved", c.synth.systems_solved as f64);
        add("invgen.branches_explored", c.synth.branches_explored as f64);
        add("invgen.branches_pruned", c.synth.branches_pruned as f64);
        add("invgen.cores_learned", c.synth.cores_learned as f64);
        add("invgen.memo_hits", c.synth.memo_hits as f64);
        add(&format!("core.{lane}.jobs"), 1.0);
        add(&format!("core.{lane}.busy_ms"), r.run_ms);
        add("core.wait_ms", r.wait_ms / pass.runs.len() as f64);
        decided[tasks[r.task].lane] += f64::from(u8::from(r.decided()));
        if let Some(check_ms) = r.check_ms {
            add("check.audits", 1.0);
            add("check.busy_ms", check_ms);
            valid += f64::from(u8::from(r.audit_valid));
            check_max = check_max.max(check_ms);
        }
    }
    let get = |k: &str| m.get(k).copied().unwrap_or(0.0);
    let mut derived = vec![
        ("smt.warm_frac".to_string(), {
            let warm = get("smt.simplex_warm");
            frac(warm, warm + get("smt.simplex_cold"))
        }),
        ("smt.query_cache_hit_frac".to_string(), frac(query_hits as f64, queries as f64)),
        ("core.cegar.post_hit_frac".to_string(), frac(post_hits as f64, posts as f64)),
        (
            "invgen.prune_frac".to_string(),
            frac(get("invgen.branches_pruned"), get("invgen.branches_explored")),
        ),
        ("check.valid_frac".to_string(), frac(valid, get("check.audits"))),
        ("check.max_ms".to_string(), check_max),
    ];
    for (i, lane) in LANES.iter().enumerate() {
        let jobs = get(&format!("core.{lane}.jobs"));
        derived.push((format!("core.{lane}.decided_frac"), frac(decided[i], jobs)));
    }
    m.extend(derived);
    m
}

fn per_layer(
    traced: &[&Pass],
    untraced: &[&Pass],
    tasks: &[Task],
    setup: &Setup,
    report: &mut Report,
) {
    // Counter determinism: every traced pass, at either worker count, must
    // repeat the first pass's exact counts task by task.
    let mut first: BTreeMap<usize, Vec<u64>> = BTreeMap::new();
    let mut drift = 0usize;
    for pass in traced {
        for r in &pass.runs {
            let sig = r.signature();
            match first.get(&r.task) {
                None => {
                    first.insert(r.task, sig);
                }
                Some(prev) if *prev != sig => {
                    drift += 1;
                    let t = &tasks[r.task];
                    report.notes.push(format!(
                        "COUNTER DRIFT {} [{}] on a {}-worker pass: {prev:?} vs {sig:?}",
                        t.name, LANES[t.lane], pass.workers
                    ));
                }
                Some(_) => {}
            }
        }
    }
    let worker_counts: Vec<usize> = traced.iter().map(|p| p.workers).collect();
    report.notes.push(format!(
        "counter determinism: {} traced passes (workers {worker_counts:?}), {drift} drifting task counts",
        traced.len()
    ));

    // Layer figures: the median over traced passes (counts repeat exactly,
    // so their median is the count of any one pass).
    let layers: Vec<BTreeMap<String, f64>> = traced.iter().map(|p| pass_layers(p, tasks)).collect();
    for key in layers[0].keys() {
        let values: Vec<f64> = layers.iter().map(|m| m.get(key).copied().unwrap_or(0.0)).collect();
        report.put(key, median(&values), crate::unit_of(key));
    }

    // Span-tree accounting: the layer spans against the workers' own time,
    // which also holds the counter snapshots and the queue.
    let spans: Vec<&Span> = traced.iter().flat_map(|p| &p.spans).collect();
    let worker_us = traced.iter().map(|p| p.worker_ms * 1e3).sum();
    report.put("bench.span_coverage", crate::span_coverage(&spans, worker_us), "ratio");

    // Tracing overhead: traced versus untraced busy time of 2-worker passes.
    let busy = |p: &&Pass| p.runs.iter().map(|r| r.latency_ms).sum::<f64>();
    let traced2: Vec<f64> = traced.iter().filter(|p| p.workers == WORKERS).map(busy).collect();
    let plain: Vec<f64> = untraced.iter().map(busy).collect();
    report.put("bench.trace_overhead_frac", frac(median(&traced2), median(&plain)) - 1.0, "ratio");
    report.put("bench.counter_drift", drift as f64, "count");
    report.put("bench.generate_ms", setup.generate_ms, "ms");
    report.put("ir.parse_ms", setup.parse_ms, "ms");
    report.put("ir.programs", setup.programs as f64, "count");
}
