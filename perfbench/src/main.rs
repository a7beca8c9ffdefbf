//! `perfbench` — the repository benchmark.
//!
//! ```text
//! perfbench --workload <corpus-portfolio|generated-portfolio|serve-mixed>
//!           --seed <n> --seconds <s> --trace <0|1>
//!           --cli <pathinv-cli binary> --out-dir <dir>
//! ```
//!
//! Every number is measured from outside the program: the benchmark times
//! its own calls into each crate's public functions
//! (`pathinv_cli::corpus_programs`,
//! `pathinv_bench::generator::generate_campaign`, `pathinv_core::run_job`,
//! `pathinv_check::check_certificate`) and drives the `pathinv-cli serve`
//! daemon over its Unix socket.  Counters come from
//! `pathinv_smt::stats_snapshot`, `pathinv_invgen::synth_stats_snapshot`,
//! and the `VerifierStats` each job returns.  Every verdict is checked
//! against an answer that does not come from a verifier.
//!
//! CPU-bound times (set-up, the walls and throughputs, and the portfolio
//! task latencies) are reported at a reference host speed: a fixed probe
//! workload owned by the benchmark is timed between the stretches of work
//! (for set-up, also within), and the raw time is scaled by the probe's
//! reference time over its median measured time (`util::Speed`).  A shared
//! 2-CPU x86-64 VM was seen to change single-thread speed by 2x within half
//! an hour; unscaled, that swamps any code change.  The raw times are
//! printed in the notes.
//!
//! The report goes to standard output: notes and a metric table for people,
//! then one JSON line with `correct`, `attempted`, `failed`, `metrics`
//! (every metric this run measured) and `meta`.  `run.py` builds the
//! binaries, runs this, and narrows that line to the metrics named in
//! `BENCHMARK.json`.

mod inputs;
mod portfolio;
mod serve;
mod util;

use pathinv_cli::json::Json;
use std::io::Write;
use std::path::PathBuf;
use std::time::Instant;

/// Every per-layer metric; a workload that never reaches a layer reports
/// it as zero.  The comments say which end-to-end metric each group should
/// move, and on which workload.  Counts (`smt.*`, `invgen.*`, `core.*`
/// counts) repeat exactly across runs and worker counts on the portfolio
/// workloads; times are informational.
const PER_LAYER: [&str; 53] = [
    // Solver layer, with BMC's share of it: wall_s, throughput_per_s and
    // decided_frac on corpus-portfolio; no change on the other two.
    "smt.simplex_cold",
    "smt.bmc.simplex_cold",
    "smt.simplex_warm",
    "smt.warm_frac",
    "smt.sat_checks",
    "smt.interpolants",
    "smt.query_cache_hit_frac",
    // Synthesis and the CEGAR loop: wall_s on generated-portfolio, wall_s
    // and the miss latencies on serve-mixed; less on corpus-portfolio.
    "invgen.systems_solved",
    "invgen.branches_explored",
    "invgen.branches_pruned",
    "invgen.prune_frac",
    "invgen.cores_learned",
    "invgen.memo_hits",
    "core.cegar.refine_ms",
    "core.cegar.reach_ms",
    "core.cegar.cex_ms",
    "core.cegar.refinements",
    "core.cegar.art_nodes",
    "core.cegar.post_hit_frac",
    // Per-lane attribution of wall_s and decided_frac (both portfolios);
    // wait_ms is the time a task waited for a bench worker.
    "core.cegar_pi.jobs",
    "core.cegar_pi.busy_ms",
    "core.cegar_pi.decided_frac",
    "core.cegar_pp.jobs",
    "core.cegar_pp.busy_ms",
    "core.cegar_pp.decided_frac",
    "core.bmc.jobs",
    "core.bmc.busy_ms",
    "core.bmc.decided_frac",
    "core.pdr.jobs",
    "core.pdr.busy_ms",
    "core.pdr.decided_frac",
    "core.bmc.nodes",
    "core.pdr.lemmas",
    "core.wait_ms",
    // Certificate audits: wall_s on both portfolios.  On serve-mixed they
    // are read from each reply's audit fields, and the daemon runs none.
    "check.audits",
    "check.busy_ms",
    "check.max_ms",
    "check.valid_frac",
    // The daemon, its cache, and the front end: latency_p50_ms on
    // serve-mixed, where hits set the median; zero on the batch workloads.
    "cli.serve.hit_frac",
    "cli.serve.hit_latency_p50_ms",
    "cli.serve.miss_latency_p50_ms",
    "cli.serve.queue_wait_p50_ms",
    "cli.serve.run_ms",
    "cli.serve.overloaded",
    "cli.serve.queue_depth_max",
    "cli.cache.journal_bytes",
    "ir.parse_ms",
    "ir.programs",
    // Set-up (generate_ms and ir.parse_ms move setup_s) and harness health.
    "bench.generate_ms",
    "bench.send_lag_p99_ms",
    "bench.trace_overhead_frac",
    "bench.span_coverage",
    "bench.counter_drift",
];

/// The unit a per-layer metric is reported in, from its name.
pub fn unit_of(name: &str) -> &'static str {
    if name.ends_with("_ms") {
        "ms"
    } else if name.ends_with("_frac") || name.ends_with("coverage") {
        "ratio"
    } else if name.ends_with("_bytes") {
        "bytes"
    } else {
        "count"
    }
}

/// The parsed command line.
pub struct WorkloadArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub cli: PathBuf,
    pub out_dir: PathBuf,
}

fn parse_args() -> Result<WorkloadArgs, String> {
    let mut args = std::env::args().skip(1);
    let (mut workload, mut seed, mut seconds, mut trace, mut cli, mut out_dir) =
        (None, None, None, None, None, None);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} `{value}`: {e}");
        match flag.as_str() {
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--trace" => trace = Some(value == "1"),
            "--cli" => cli = Some(PathBuf::from(value)),
            "--out-dir" => out_dir = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(WorkloadArgs {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.unwrap_or(false),
        cli: cli.ok_or("--cli is required")?,
        out_dir: out_dir.ok_or("--out-dir is required")?,
    })
}

/// A timed interval recorded by the benchmark around one call into a layer.
/// Spans of one task or request share the root's id as `root`; the root's
/// tag names the task or request.
pub struct Span {
    id: u32,
    parent: Option<u32>,
    root: u32,
    name: &'static str,
    tag: String,
    start_us: f64,
    end_us: f64,
}

impl Span {
    /// Appends a span to `spans` and returns its id.
    pub fn push(
        spans: &mut Vec<Span>,
        parent: Option<u32>,
        name: &'static str,
        tag: String,
        start: Instant,
        end: Instant,
        epoch: Instant,
    ) -> u32 {
        let id = spans.len() as u32;
        let root = parent.map_or(id, |p| spans[p as usize].root);
        let us = |t: Instant| t.saturating_duration_since(epoch).as_secs_f64() * 1e6;
        spans.push(Span { id, parent, root, name, tag, start_us: us(start), end_us: us(end) });
        id
    }

    /// The span with every id shifted by `base` (merging per-thread lists).
    pub fn rebased(self, base: u32) -> Span {
        Span {
            id: self.id + base,
            parent: self.parent.map(|p| p + base),
            root: self.root + base,
            ..self
        }
    }

    fn duration_us(&self) -> f64 {
        self.end_us - self.start_us
    }

    fn to_json(&self) -> Json {
        Json::object(vec![
            ("id", Json::Int(i64::from(self.id))),
            ("parent", self.parent.map_or(Json::Null, |p| Json::Int(i64::from(p)))),
            ("root", Json::Int(i64::from(self.root))),
            ("name", Json::Str(self.name.to_string())),
            ("tag", Json::Str(self.tag.clone())),
            ("start_us", Json::Float(self.start_us)),
            ("end_us", Json::Float(self.end_us)),
        ])
    }
}

/// The share of `wall_us`, a time measured apart from the spans, that the
/// layer (child) spans account for (`1` means the layers explain all of it).
pub fn span_coverage(spans: &[&Span], wall_us: f64) -> f64 {
    let children: f64 = spans.iter().filter(|s| s.parent.is_some()).map(|s| s.duration_us()).sum();
    util::frac(children, wall_us)
}

/// One run's results.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    invalid: Vec<String>,
    metrics: Vec<(String, f64, &'static str)>,
    pub notes: Vec<String>,
    meta: Vec<(String, String)>,
    pub spans: Vec<Span>,
}

impl Report {
    /// Records a metric (a non-finite value is recorded as zero).
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        let value = if value.is_finite() { value } else { 0.0 };
        match self.metrics.iter_mut().find(|m| m.0 == name) {
            Some(m) => m.1 = value,
            None => self.metrics.push((name.to_string(), value, unit)),
        }
    }

    /// Records a run-metadata field.
    pub fn meta(&mut self, key: &str, value: String) {
        self.meta.push((key.to_string(), value));
    }

    /// Marks the run invalid: its figures must not be used.
    pub fn invalid(&mut self, why: String) {
        self.invalid.push(why);
    }

    fn correct(&self) -> bool {
        self.failed == 0 && self.invalid.is_empty() && self.attempted > 0
    }
}

fn main() {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let mut report = Report::default();
    report.meta("workload", args.workload.clone());
    report.meta("seed", args.seed.to_string());
    report.meta("seconds", args.seconds.to_string());
    report.meta(
        "nproc",
        std::thread::available_parallelism().map_or(0, std::num::NonZero::get).to_string(),
    );
    let outcome = match args.workload.as_str() {
        "corpus-portfolio" => portfolio::run(&args, false, &mut report),
        "generated-portfolio" => portfolio::run(&args, true, &mut report),
        "serve-mixed" => serve::run(&args, &mut report),
        other => Err(format!("unknown workload `{other}`")),
    };
    if let Err(e) = outcome {
        eprintln!("perfbench: {e}");
        std::process::exit(1);
    }
    if args.trace {
        for name in PER_LAYER {
            if !report.metrics.iter().any(|m| m.0 == name) {
                report.put(name, 0.0, unit_of(name));
            }
        }
        if let Err(e) = write_spans(&args, &report.spans) {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
    print_report(&report);
}

fn write_spans(args: &WorkloadArgs, spans: &[Span]) -> Result<(), String> {
    let path = args.out_dir.join(format!("spans-{}-{}.jsonl", args.workload, args.seed));
    let mut out = String::new();
    for span in spans {
        out.push_str(&span.to_json().compact());
        out.push('\n');
    }
    std::fs::write(&path, out).map_err(|e| format!("cannot write {}: {e}", path.display()))
}

fn print_report(report: &Report) {
    let mut out = String::new();
    for note in &report.notes {
        out.push_str(&format!("# {note}\n"));
    }
    for why in &report.invalid {
        out.push_str(&format!("# INVALID RUN: {why}\n"));
    }
    for (name, value, unit) in &report.metrics {
        out.push_str(&format!("{name:<34} {value:>14.4} {unit}\n"));
    }
    let metrics = report
        .metrics
        .iter()
        .map(|(name, value, unit)| {
            let m = Json::object(vec![
                ("value", Json::Float(*value)),
                ("unit", Json::Str(unit.to_string())),
            ]);
            (name.clone(), m)
        })
        .collect();
    let meta = report.meta.iter().map(|(k, v)| (k.clone(), Json::Str(v.clone()))).collect();
    let line = Json::object(vec![
        ("correct", Json::Bool(report.correct())),
        ("attempted", Json::Int(report.attempted as i64)),
        ("failed", Json::Int(report.failed as i64)),
        ("metrics", Json::Object(metrics)),
        ("meta", Json::Object(meta)),
    ]);
    out.push_str(&line.compact());
    out.push('\n');
    let _ = std::io::stdout().write_all(out.as_bytes());
}
