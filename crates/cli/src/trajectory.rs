//! The benchmark-trajectory report: one deterministic measurement point of
//! the corpus-wide solver workload, emitted as `BENCH_pr10.json`
//! (`BENCH_pr9.json` is the committed previous point the bench-smoke CI job
//! diffs against for per-task counter regressions), plus the [`render_history`]
//! aggregation that renders every committed `BENCH_*.json` as one per-PR
//! table (`pathinv-cli trajectory --history`).
//!
//! A trajectory run verifies the full corpus under both refiners twice —
//! once with the incremental caches on (the shipping configuration) and once
//! with them off (the uncached baseline) — and reports, per task and in
//! total: verdict, refinement count, solver calls, cache hits, hit rates,
//! and wall-clock.  Verdicts and refinement counts are identical between the
//! two runs by construction (the caches replay deterministic answers); the
//! solver-call delta *is* the measured effect of the incremental layer.
//!
//! Everything except wall-clock is deterministic across runs, machines, and
//! worker counts, so the deterministic projection
//! ([`TrajectoryReport::to_golden_json`]) is committed as
//! `tests/golden/bench.json` and CI fails when the schema or any
//! deterministic field drifts ([`TrajectoryReport::check_against_golden`]).

use crate::json::Json;
use crate::{
    corpus_programs, make_tasks, BatchReport, EngineChoice, RefinerChoice, SCHEMA_VERSION,
};

/// Schema version of the trajectory report, bumped on breaking layout
/// changes.  Distinct from the batch-report schema version, though both are
/// stamped into the emitted JSON.  Version 2 added the cold/warm simplex
/// totals; version 3 added the refine-phase cold-simplex total and the
/// invariant-synthesis counters (systems solved, branches
/// explored/pruned, cores learned, memo hits); version 4 marks the point
/// where counterexamples are certified integral before a task concludes
/// `unsafe`, so concluded-`unsafe` tasks carry the certification's solver
/// calls — counters that pre-v4 points did not account for (the
/// `--compare-previous` gate exempts exactly those tasks across the v4
/// boundary); version 5 added the optional `race` section (per-program
/// winner and per-lane time-to-first-verdict from a racing portfolio run)
/// to the emitted point — timing data only, absent from the golden
/// projection, whose deterministic fields are unchanged; version 6 added
/// the certificate fields to every task (kind, size, digest, and — when the
/// run audited — the checker verdict and check time) plus the
/// `certificates` totals section of the emitted point, reporting how many
/// certificates the independent `pathinv-check` crate validated and how
/// long the audits took; version 7 added the optional `serve` section
/// (cold vs warm daemon throughput over the source corpus with the
/// persistent verdict cache reopened between passes) to the emitted point
/// — timing data only, absent from the golden projection; version 8 added
/// the optional `supervision` section (process-isolation overhead vs
/// in-thread jobs, plus the seeded chaos pass's availability) to the
/// emitted point — timing data only, absent from the golden projection.
pub const BENCH_SCHEMA_VERSION: i64 = 8;

/// Totals of the counters that matter for the trajectory.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TrajectoryTotals {
    /// Combined-solver invocations summed over all tasks.
    pub solver_calls: u64,
    /// Cold simplex solves (tableau constructions) summed over all tasks.
    pub simplex_calls: u64,
    /// Warm incremental simplex re-checks summed over all tasks.
    pub simplex_warm_checks: u64,
    /// Boolean queries through the incremental contexts.
    pub smt_queries: u64,
    /// Context queries answered from the keyed cache.
    pub query_cache_hits: u64,
    /// Abstract-post cube requests.
    pub post_queries: u64,
    /// Cube requests answered from the post memo.
    pub post_cache_hits: u64,
    /// Cold simplex solves attributed to the refinement phase (where the
    /// Farkas systems of invariant synthesis live) — the counter the PR 5
    /// acceptance gate tracks.
    pub refine_simplex_calls: u64,
    /// LP systems solved by the synthesis frontier search.
    pub synth_systems_solved: u64,
    /// Frontier branches explored by the synthesis search.
    pub synth_branches_explored: u64,
    /// Branches pruned by conflict cores and presolve refutation.
    pub synth_branches_pruned: u64,
    /// Minimal Farkas conflict cores learned.
    pub synth_cores_learned: u64,
    /// Syntheses replayed from the cross-refinement memo.
    pub synth_memo_hits: u64,
}

impl TrajectoryTotals {
    fn from_batch(report: &BatchReport) -> TrajectoryTotals {
        TrajectoryTotals {
            solver_calls: report.total(|s| s.solver_calls),
            simplex_calls: report.total(|s| s.simplex_calls),
            simplex_warm_checks: report.total(|s| s.simplex_warm_checks),
            smt_queries: report.total(|s| s.smt_queries),
            query_cache_hits: report.total(|s| s.query_cache_hits),
            post_queries: report.total(|s| s.post_queries),
            post_cache_hits: report.total(|s| s.post_cache_hits),
            refine_simplex_calls: report.total(|s| s.refine_simplex_calls),
            synth_systems_solved: report.total(|s| s.synth_systems_solved),
            synth_branches_explored: report.total(|s| s.synth_branches_explored),
            synth_branches_pruned: report.total(|s| s.synth_branches_pruned),
            synth_cores_learned: report.total(|s| s.synth_cores_learned),
            synth_memo_hits: report.total(|s| s.synth_memo_hits),
        }
    }
}

/// The outcome of one trajectory run: the cached corpus batch, the uncached
/// baseline batch, and their totals.
#[derive(Clone, Debug)]
pub struct TrajectoryReport {
    /// The corpus run with the incremental caches on.
    pub cached: BatchReport,
    /// The corpus run with the caches off (same verdicts, more solver
    /// calls).
    pub uncached: BatchReport,
    /// Totals of the cached run.
    pub totals: TrajectoryTotals,
    /// Totals of the uncached baseline.
    pub baseline: TrajectoryTotals,
    /// An optional racing-portfolio run over the same corpus, rendered as
    /// the `race` section of the emitted point (never of the golden
    /// projection — race timings are machine-dependent by nature).
    pub race: Option<crate::race::RaceReport>,
    /// An optional daemon warm-vs-cold benchmark, rendered as the `serve`
    /// section of the emitted point (never of the golden projection —
    /// daemon timings are machine-dependent by nature).
    pub serve: Option<ServeBench>,
    /// An optional supervision benchmark — process-isolation overhead and
    /// chaos-pass availability — rendered as the `supervision` section of
    /// the emitted point (never of the golden projection — timings and
    /// fault schedules are machine-dependent by nature).
    pub supervision: Option<SupervisionBench>,
}

/// Cold-vs-warm daemon throughput over the source corpus, taken from the
/// thread phase of a passing `serve-smoke` run ([`crate::smoke`]): the cold
/// deck into an empty journal, and the pass of a fresh daemon over the
/// recovered journal, so the warm number exercises the crash-safe recovery
/// path, not a live in-memory map.  A passing run requires every warm
/// answer from the cache and every verdict and certificate digest equal to
/// the fresh-process reference, so the section reports both as held.
#[derive(Clone, Debug)]
pub struct ServeBench {
    /// Programs submitted in each pass.
    pub programs: usize,
    /// Wall-clock of the cold deck (empty cache, every job verified).
    pub cold_ms: f64,
    /// Wall-clock of the restart pass (recovered cache, every job a hit).
    pub warm_ms: f64,
}

impl ServeBench {
    /// The `serve` section of the emitted bench point.
    pub fn to_json(&self) -> Json {
        Json::object(vec![
            ("programs", Json::Int(self.programs as i64)),
            ("cold_ms", Json::Float((self.cold_ms * 10.0).round() / 10.0)),
            ("warm_ms", Json::Float((self.warm_ms * 10.0).round() / 10.0)),
            ("warm_hits", Json::Int(self.programs as i64)),
            ("parity_ok", Json::Bool(true)),
        ])
    }
}

/// Supervision costs and payoffs: the per-job overhead of `--isolate
/// process` (each job re-exec'd as a child) against in-thread execution
/// over the same corpus, and the availability the `serve-smoke` chaos phase
/// observed (jobs answered / jobs submitted) with faults injected.
#[derive(Clone, Debug)]
pub struct SupervisionBench {
    /// Programs verified in each isolation pass.
    pub programs: usize,
    /// Wall-clock of the in-thread pass (cold cache).
    pub in_thread_ms: f64,
    /// Wall-clock of the process-isolated pass (cold cache).
    pub process_ms: f64,
    /// Jobs the chaos pass submitted.
    pub chaos_submitted: u64,
    /// Jobs the chaos pass saw answered (`done`, `overloaded`, or
    /// `quarantined` — every submission that got exactly one reply).
    pub chaos_answered: u64,
    /// Chaos submissions fast-failed by an open circuit breaker.
    pub chaos_quarantined: u64,
    /// `chaos_answered / chaos_submitted`, in `[0, 1]`.
    pub availability: f64,
}

impl SupervisionBench {
    /// The `supervision` section of the emitted bench point.
    pub fn to_json(&self) -> Json {
        Json::object(vec![
            ("programs", Json::Int(self.programs as i64)),
            ("in_thread_ms", Json::Float((self.in_thread_ms * 10.0).round() / 10.0)),
            ("process_ms", Json::Float((self.process_ms * 10.0).round() / 10.0)),
            ("chaos_submitted", Json::Int(self.chaos_submitted as i64)),
            ("chaos_answered", Json::Int(self.chaos_answered as i64)),
            ("chaos_quarantined", Json::Int(self.chaos_quarantined as i64)),
            ("availability", Json::Float(round4(self.availability))),
        ])
    }
}

/// Runs the full corpus under both refiners, cached and uncached, across
/// `jobs` worker threads.
pub fn run_trajectory(jobs: usize) -> TrajectoryReport {
    let cached = crate::run_batch(
        make_tasks(corpus_programs(), EngineChoice::Cegar, RefinerChoice::Both, None),
        jobs,
    );
    trajectory_from_cached(cached, jobs)
}

/// Builds the trajectory from an already-computed cached CEGAR corpus batch
/// — e.g. the CEGAR subset of a portfolio run, so `--bless` does not verify
/// the corpus a third time — re-running only the uncached baseline.
/// `cached` must hold exactly the corpus CEGAR tasks with caching on; the
/// counters are deterministic, so a reused batch is identical to a fresh
/// one.
pub fn trajectory_from_cached(cached: BatchReport, jobs: usize) -> TrajectoryReport {
    let mut baseline_tasks =
        make_tasks(corpus_programs(), EngineChoice::Cegar, RefinerChoice::Both, None);
    for t in &mut baseline_tasks {
        t.disable_cegar_caching();
    }
    let uncached = crate::run_batch(baseline_tasks, jobs);
    let totals = TrajectoryTotals::from_batch(&cached);
    let baseline = TrajectoryTotals::from_batch(&uncached);
    TrajectoryReport {
        cached,
        uncached,
        totals,
        baseline,
        race: None,
        serve: None,
        supervision: None,
    }
}

fn round4(x: f64) -> f64 {
    (x * 1e4).round() / 1e4
}

fn rate(hits: u64, total: u64) -> f64 {
    if total == 0 {
        0.0
    } else {
        round4(hits as f64 / total as f64)
    }
}

impl TrajectoryReport {
    /// Checks that the cached and uncached runs agree on every observable
    /// outcome (verdict, refinements, predicates, ART nodes) — the
    /// incremental layer must only change *how much solver work* a run
    /// does, never what it concludes.  Returns the disagreements.
    pub fn parity_failures(&self) -> Vec<String> {
        let mut failures = Vec::new();
        if self.cached.tasks.len() != self.uncached.tasks.len() {
            failures.push(format!(
                "task counts differ: {} cached vs {} uncached",
                self.cached.tasks.len(),
                self.uncached.tasks.len()
            ));
            return failures;
        }
        for (c, u) in self.cached.tasks.iter().zip(self.uncached.tasks.iter()) {
            let key = format!("{}/{}", c.program_name, c.refiner);
            if (c.program_name.as_str(), c.refiner.as_str())
                != (u.program_name.as_str(), u.refiner.as_str())
            {
                failures.push(format!("task order differs at {key}"));
                continue;
            }
            for (what, cv, uv) in [
                ("verdict", c.verdict.clone(), u.verdict.clone()),
                ("refinements", c.refinements.to_string(), u.refinements.to_string()),
                ("predicates", c.predicates.to_string(), u.predicates.to_string()),
                ("art_nodes", c.art_nodes.to_string(), u.art_nodes.to_string()),
            ] {
                if cv != uv {
                    failures.push(format!("{key}: {what} is {cv} cached but {uv} uncached"));
                }
            }
        }
        failures
    }

    /// Fraction of baseline solver calls eliminated by the caches, in
    /// `[0, 1]`.
    pub fn solver_call_reduction(&self) -> f64 {
        if self.baseline.solver_calls == 0 {
            return 0.0;
        }
        let saved = self.baseline.solver_calls.saturating_sub(self.totals.solver_calls);
        saved as f64 / self.baseline.solver_calls as f64
    }

    /// The full JSON rendering (the contents of `BENCH_pr10.json`): the
    /// deterministic fields plus wall-clock, and — when a racing run was
    /// attached — the `race` section with the per-program winner and every
    /// lane's time-to-first-verdict.
    pub fn to_json(&self) -> Json {
        let mut fields = vec![
            ("bench_schema_version", Json::Int(BENCH_SCHEMA_VERSION)),
            ("schema_version", Json::Int(SCHEMA_VERSION)),
            ("suite", Json::Str("corpus".to_string())),
            ("jobs", Json::Int(self.cached.jobs as i64)),
            ("tasks", Json::Array(self.cached.tasks.iter().map(|t| t.to_json()).collect())),
        ];
        fields.push(("totals", self.totals_json(&self.totals, self.cached.wall_ms_total)));
        fields.push((
            "uncached_baseline",
            self.totals_json(&self.baseline, self.uncached.wall_ms_total),
        ));
        fields.push(("certificates", self.certificates_json()));
        fields.push((
            "reduction",
            Json::object(vec![
                (
                    "solver_calls_saved",
                    Json::Int(
                        self.baseline.solver_calls.saturating_sub(self.totals.solver_calls) as i64
                    ),
                ),
                ("solver_calls_fraction", Json::Float(round4(self.solver_call_reduction()))),
            ]),
        ));
        if let Some(race) = &self.race {
            fields.push(("race", race.to_json()));
        }
        if let Some(serve) = &self.serve {
            fields.push(("serve", serve.to_json()));
        }
        if let Some(supervision) = &self.supervision {
            fields.push(("supervision", supervision.to_json()));
        }
        Json::object(fields)
    }

    /// Certificate metrics over the cached tasks: audit tallies (all zero
    /// when the run did not audit, e.g. outside `--bless`), total
    /// certificate size, and total checker time.
    fn certificates_json(&self) -> Json {
        let tasks = &self.cached.tasks;
        let count =
            |v: &str| Json::Int(tasks.iter().filter(|t| t.cert_verdict == v).count() as i64);
        let emitted = tasks.iter().filter(|t| !t.cert_kind.is_empty()).count();
        let size_total: usize = tasks.iter().map(|t| t.cert_size).sum();
        let check_ms_total: f64 = tasks.iter().map(|t| t.cert_check_ms).sum();
        Json::object(vec![
            ("emitted", Json::Int(emitted as i64)),
            ("valid", count("valid")),
            ("invalid", count("invalid")),
            ("unsupported", count("unsupported")),
            ("vacuous", count("vacuous")),
            ("missing", count("missing")),
            ("size_total", Json::Int(size_total as i64)),
            ("check_ms_total", Json::Float((check_ms_total * 1e3).round() / 1e3)),
        ])
    }

    fn totals_json(&self, t: &TrajectoryTotals, wall_ms: f64) -> Json {
        Json::object(vec![
            ("solver_calls", Json::Int(t.solver_calls as i64)),
            ("simplex_calls", Json::Int(t.simplex_calls as i64)),
            ("simplex_warm_checks", Json::Int(t.simplex_warm_checks as i64)),
            ("smt_queries", Json::Int(t.smt_queries as i64)),
            ("query_cache_hits", Json::Int(t.query_cache_hits as i64)),
            ("post_queries", Json::Int(t.post_queries as i64)),
            ("post_cache_hits", Json::Int(t.post_cache_hits as i64)),
            ("refine_simplex_calls", Json::Int(t.refine_simplex_calls as i64)),
            ("synth_systems_solved", Json::Int(t.synth_systems_solved as i64)),
            ("synth_branches_explored", Json::Int(t.synth_branches_explored as i64)),
            ("synth_branches_pruned", Json::Int(t.synth_branches_pruned as i64)),
            ("synth_cores_learned", Json::Int(t.synth_cores_learned as i64)),
            ("synth_memo_hits", Json::Int(t.synth_memo_hits as i64)),
            ("query_hit_rate", Json::Float(rate(t.query_cache_hits, t.smt_queries))),
            ("post_hit_rate", Json::Float(rate(t.post_cache_hits, t.post_queries))),
            ("wall_ms", Json::Float((wall_ms * 1e3).round() / 1e3)),
        ])
    }

    /// The deterministic projection committed as `tests/golden/bench.json`:
    /// per-task verdict/refinement/counter fields and the counter totals,
    /// with every wall-clock field dropped.
    pub fn to_golden_json(&self) -> Json {
        let totals_golden = |t: &TrajectoryTotals| {
            Json::object(vec![
                ("solver_calls", Json::Int(t.solver_calls as i64)),
                ("simplex_calls", Json::Int(t.simplex_calls as i64)),
                ("simplex_warm_checks", Json::Int(t.simplex_warm_checks as i64)),
                ("smt_queries", Json::Int(t.smt_queries as i64)),
                ("query_cache_hits", Json::Int(t.query_cache_hits as i64)),
                ("post_queries", Json::Int(t.post_queries as i64)),
                ("post_cache_hits", Json::Int(t.post_cache_hits as i64)),
                ("refine_simplex_calls", Json::Int(t.refine_simplex_calls as i64)),
                ("synth_systems_solved", Json::Int(t.synth_systems_solved as i64)),
                ("synth_branches_explored", Json::Int(t.synth_branches_explored as i64)),
                ("synth_branches_pruned", Json::Int(t.synth_branches_pruned as i64)),
                ("synth_cores_learned", Json::Int(t.synth_cores_learned as i64)),
                ("synth_memo_hits", Json::Int(t.synth_memo_hits as i64)),
            ])
        };
        Json::object(vec![
            ("bench_schema_version", Json::Int(BENCH_SCHEMA_VERSION)),
            ("schema_version", Json::Int(SCHEMA_VERSION)),
            (
                "tasks",
                Json::Array(self.cached.tasks.iter().map(|t| t.to_golden_task_json()).collect()),
            ),
            ("totals", totals_golden(&self.totals)),
            ("uncached_baseline", totals_golden(&self.baseline)),
        ])
    }

    /// Diffs this run's deterministic projection against a committed golden
    /// document.  Returns the list of discrepancies (empty = no drift).
    /// Schema-version mismatches, missing fields, and malformed documents
    /// are reported as discrepancies, not panics, so CI gets a readable
    /// failure.
    pub fn check_against_golden(&self, golden: &Json) -> Vec<String> {
        let mut failures = Vec::new();
        let live = self.to_golden_json();
        for version_field in ["bench_schema_version", "schema_version"] {
            let got = golden.get(version_field).and_then(Json::as_int);
            let want = live.get(version_field).and_then(Json::as_int);
            if got != want {
                failures.push(format!(
                    "{version_field}: golden {got:?}, live {want:?} — regenerate the golden \
                     (pathinv-cli --bless)"
                ));
            }
        }
        for section in ["totals", "uncached_baseline"] {
            compare_objects(section, golden.get(section), live.get(section), &mut failures);
        }
        let golden_tasks = golden.get("tasks").and_then(Json::as_array).unwrap_or(&[]);
        let live_tasks = live.get("tasks").and_then(Json::as_array).unwrap_or(&[]);
        let key = |t: &Json| {
            (
                t.get("program").and_then(Json::as_str).unwrap_or("?").to_string(),
                t.get("refiner").and_then(Json::as_str).unwrap_or("?").to_string(),
            )
        };
        for lt in live_tasks {
            let k = key(lt);
            match golden_tasks.iter().find(|gt| key(gt) == k) {
                None => failures.push(format!("{k:?}: produced but missing from bench golden")),
                Some(gt) => compare_objects(&format!("{k:?}"), Some(gt), Some(lt), &mut failures),
            }
        }
        for gt in golden_tasks {
            let k = key(gt);
            if !live_tasks.iter().any(|lt| key(lt) == k) {
                failures.push(format!("{k:?}: in bench golden but not produced"));
            }
        }
        failures
    }
}

/// Collects every committed `BENCH_*.json` trajectory point in `dir`,
/// sorted by the embedded PR number (then name), each parsed as JSON.
///
/// # Errors
///
/// Returns a readable message when the directory cannot be read or a point
/// is malformed JSON; an *absent* field inside a point is not an error (the
/// history table renders older schemas with `-` placeholders).
pub fn collect_history(dir: &std::path::Path) -> Result<Vec<(String, Json)>, String> {
    let mut names: Vec<String> = Vec::new();
    let entries = std::fs::read_dir(dir).map_err(|e| format!("cannot read {dir:?}: {e}"))?;
    for entry in entries {
        let entry = entry.map_err(|e| format!("cannot read {dir:?}: {e}"))?;
        let name = entry.file_name().to_string_lossy().into_owned();
        if name.starts_with("BENCH_") && name.ends_with(".json") {
            names.push(name);
        }
    }
    // Natural order: by the numeric suffix of `BENCH_prN.json` when present
    // (so `pr10` sorts after `pr9`), then lexicographically.
    let pr_number = |name: &str| -> i64 {
        name.trim_start_matches("BENCH_pr")
            .trim_end_matches(".json")
            .parse::<i64>()
            .unwrap_or(i64::MAX)
    };
    names.sort_by_key(|n| (pr_number(n), n.clone()));
    let mut points = Vec::new();
    for name in names {
        let path = dir.join(&name);
        let text =
            std::fs::read_to_string(&path).map_err(|e| format!("cannot read {path:?}: {e}"))?;
        let doc =
            crate::json::parse(&text).map_err(|e| format!("{name} is not valid JSON: {e}"))?;
        points.push((name, doc));
    }
    Ok(points)
}

/// Renders the trajectory history — one row per committed `BENCH_*.json`
/// point — as a fixed-width table: verdict counts over the cached CEGAR
/// tasks, the headline counter totals, and wall-clock.  Fields a point's
/// schema predates render as `-`, so the whole perf trajectory is readable
/// without parsing any JSON.
pub fn render_history(points: &[(String, Json)]) -> String {
    let int_total = |doc: &Json, field: &str| -> Option<i64> {
        doc.get("totals").and_then(|t| t.get(field)).and_then(Json::as_int)
    };
    let opt = |v: Option<i64>| v.map(|x| x.to_string()).unwrap_or_else(|| "-".to_string());
    let mut out = String::new();
    out.push_str(&format!(
        "{:<16}  {:>5}  {:>4}  {:>6}  {:>7}  {:>7}  {:>8}  {:>11}  {:>10}  {:>9}  {:>8}\n",
        "point",
        "tasks",
        "safe",
        "unsafe",
        "unknown",
        "solver",
        "simplex",
        "warm checks",
        "refine cold",
        "memo hits",
        "wall",
    ));
    out.push_str(&format!("{}\n", "-".repeat(114)));
    for (name, doc) in points {
        let tasks = doc.get("tasks").and_then(Json::as_array).unwrap_or(&[]);
        let verdicts = |which: &str| {
            tasks.iter().filter(|t| t.get("verdict").and_then(Json::as_str) == Some(which)).count()
        };
        let wall = doc
            .get("totals")
            .and_then(|t| t.get("wall_ms"))
            .and_then(|v| match v {
                Json::Float(x) => Some(*x),
                Json::Int(i) => Some(*i as f64),
                _ => None,
            })
            .map(|ms| format!("{:.2} s", ms / 1000.0))
            .unwrap_or_else(|| "-".to_string());
        out.push_str(&format!(
            "{:<16}  {:>5}  {:>4}  {:>6}  {:>7}  {:>7}  {:>8}  {:>11}  {:>10}  {:>9}  {:>8}\n",
            name.trim_end_matches(".json"),
            tasks.len(),
            verdicts("safe"),
            verdicts("unsafe"),
            verdicts("unknown"),
            opt(int_total(doc, "solver_calls")),
            opt(int_total(doc, "simplex_calls")),
            opt(int_total(doc, "simplex_warm_checks")),
            opt(int_total(doc, "refine_simplex_calls")),
            opt(int_total(doc, "synth_memo_hits")),
            wall,
        ));
    }
    out
}

/// Compares two JSON objects field by field (both directions), recording
/// mismatches under `label`.
fn compare_objects(label: &str, golden: Option<&Json>, live: Option<&Json>, out: &mut Vec<String>) {
    let (Some(Json::Object(g)), Some(Json::Object(l))) = (golden, live) else {
        if golden != live {
            out.push(format!("{label}: golden {golden:?}, live {live:?}"));
        }
        return;
    };
    for (k, lv) in l {
        match g.iter().find(|(gk, _)| gk == k) {
            None => out.push(format!("{label}.{k}: missing from golden")),
            Some((_, gv)) if gv != lv => {
                out.push(format!("{label}.{k}: golden {gv:?}, live {lv:?}"))
            }
            Some(_) => {}
        }
    }
    for (k, _) in g {
        if !l.iter().any(|(lk, _)| lk == k) {
            out.push(format!("{label}.{k}: in golden but not produced"));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json;

    /// A miniature trajectory (two programs) exercises the full report
    /// shape without paying for the corpus twice.
    fn mini_trajectory() -> TrajectoryReport {
        let slice = || {
            corpus_programs()
                .into_iter()
                .filter(|(name, _)| name == "FIGURE4" || name == "FORWARD")
                .collect::<Vec<_>>()
        };
        let cached = crate::run_batch(
            make_tasks(slice(), EngineChoice::Cegar, RefinerChoice::Both, None),
            2,
        );
        let mut tasks = make_tasks(slice(), EngineChoice::Cegar, RefinerChoice::Both, None);
        for t in &mut tasks {
            t.disable_cegar_caching();
        }
        let uncached = crate::run_batch(tasks, 2);
        let totals = TrajectoryTotals::from_batch(&cached);
        let baseline = TrajectoryTotals::from_batch(&uncached);
        TrajectoryReport {
            cached,
            uncached,
            totals,
            baseline,
            race: None,
            serve: None,
            supervision: None,
        }
    }

    #[test]
    fn report_shape_and_self_check() {
        let report = mini_trajectory();
        // Verdicts agree between cached and uncached runs.
        for (c, u) in report.cached.tasks.iter().zip(report.uncached.tasks.iter()) {
            assert_eq!(c.program_name, u.program_name);
            assert_eq!(c.verdict, u.verdict);
            assert_eq!(c.refinements, u.refinements);
        }
        // The uncached baseline never hits a cache.
        assert_eq!(report.baseline.query_cache_hits, 0);
        assert_eq!(report.baseline.post_cache_hits, 0);
        // The emitted JSON parses and carries both schema stamps.
        let doc = json::parse(&report.to_json().pretty()).expect("bench JSON must parse");
        assert_eq!(
            doc.get("bench_schema_version").and_then(Json::as_int),
            Some(BENCH_SCHEMA_VERSION)
        );
        assert_eq!(doc.get("schema_version").and_then(Json::as_int), Some(SCHEMA_VERSION));
        assert!(doc.get("uncached_baseline").is_some());
        // A run checked against its own golden projection reports no drift.
        let golden = json::parse(&report.to_golden_json().pretty()).unwrap();
        assert_eq!(report.check_against_golden(&golden), Vec::<String>::new());
    }

    #[test]
    fn race_section_is_emitted_but_never_golden() {
        let mut report = mini_trajectory();
        assert!(report.to_json().get("race").is_none(), "no race attached, no section");
        let slice: Vec<_> =
            corpus_programs().into_iter().filter(|(name, _)| name == "FIGURE4").collect();
        report.race = Some(crate::race::run_race(slice, 4, false, None));
        let doc = json::parse(&report.to_json().pretty()).unwrap();
        let race = doc.get("race").expect("attached race must be emitted");
        assert_eq!(race.get("mode").and_then(Json::as_str), Some("race"));
        // The golden projection stays deterministic: no race timings.
        assert!(report.to_golden_json().get("race").is_none());
        // The attached section does not disturb the golden comparison.
        let golden = json::parse(&report.to_golden_json().pretty()).unwrap();
        assert_eq!(report.check_against_golden(&golden), Vec::<String>::new());
    }

    #[test]
    fn history_table_orders_points_and_tolerates_old_schemas() {
        let dir =
            std::env::temp_dir().join(format!("pathinv-trajectory-history-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        // An old-schema point (no simplex/synth totals) and two newer ones,
        // written out of order; pr10 must sort after pr9.
        std::fs::write(
            dir.join("BENCH_pr10.json"),
            r#"{"tasks": [{"verdict": "safe"}],
                "totals": {"solver_calls": 10, "simplex_calls": 20,
                           "simplex_warm_checks": 30, "refine_simplex_calls": 5,
                           "synth_memo_hits": 2, "wall_ms": 1500.0}}"#,
        )
        .unwrap();
        std::fs::write(
            dir.join("BENCH_pr2.json"),
            r#"{"tasks": [{"verdict": "unknown"}, {"verdict": "unsafe"}],
                "totals": {"solver_calls": 99, "wall_ms": 2000.0}}"#,
        )
        .unwrap();
        std::fs::write(
            dir.join("BENCH_pr9.json"),
            r#"{"tasks": [], "totals": {"solver_calls": 50, "wall_ms": 100.0}}"#,
        )
        .unwrap();
        std::fs::write(dir.join("not-a-point.json"), "{}").unwrap();
        let points = collect_history(&dir).unwrap();
        let names: Vec<&str> = points.iter().map(|(n, _)| n.as_str()).collect();
        assert_eq!(names, ["BENCH_pr2.json", "BENCH_pr9.json", "BENCH_pr10.json"]);
        let table = render_history(&points);
        let lines: Vec<&str> = table.lines().collect();
        assert!(lines[2].starts_with("BENCH_pr2"), "{table}");
        assert!(lines[4].starts_with("BENCH_pr10"), "{table}");
        // Old schemas render missing counters as placeholders, not zeros.
        assert!(lines[2].contains('-'), "{table}");
        assert!(lines[4].contains("1.50 s"), "{table}");
        std::fs::remove_dir_all(&dir).unwrap();
    }

    #[test]
    fn drift_is_detected_field_by_field() {
        let report = mini_trajectory();
        let mut golden = report.to_golden_json();
        // Corrupt one deterministic counter.
        if let Json::Object(fields) = &mut golden {
            for (k, v) in fields.iter_mut() {
                if k == "totals" {
                    if let Json::Object(tf) = v {
                        for (tk, tv) in tf.iter_mut() {
                            if tk == "solver_calls" {
                                *tv = Json::Int(1);
                            }
                        }
                    }
                }
            }
        }
        let failures = report.check_against_golden(&golden);
        assert!(
            failures.iter().any(|f| f.contains("totals.solver_calls")),
            "corrupted counter must be reported: {failures:?}"
        );
        // A schema bump is reported too.
        let stale = json::parse("{\"bench_schema_version\": 0, \"tasks\": []}").unwrap();
        let failures = report.check_against_golden(&stale);
        assert!(failures.iter().any(|f| f.contains("bench_schema_version")), "{failures:?}");
    }
}
