//! The racing portfolio harness (`--race`).
//!
//! A portfolio run executes every engine to completion and cross-checks the
//! verdicts; a *race* runs the same four lanes — CEGAR with each refiner,
//! BMC, and PDR-lite — but stops paying for losers: the first lane to reach
//! a conclusive (`safe`/`unsafe`) verdict cancels the other lanes'
//! [`CancellationToken`]s, and the cancelled engines return the honest
//! `cancelled` verdict within one poll step (the cooperative-cancellation
//! contract of DESIGN.md §12).  The program's wall-clock cost is the
//! *winner's* time instead of the sum of all four.
//!
//! Race reports are inherently timing-dependent — which lane wins, and how
//! far a loser gets before it observes its token, varies run to run — so
//! they are never part of a golden projection.  What *is* checked, hard:
//!
//! * every conclusive lane in a race must agree with every other
//!   ([`RaceReport::mismatches`]) and, under `certify`, pass the batch
//!   audit ([`RaceReport::certificate_failures`]); the CLI exits 1
//!   otherwise, and the `race-smoke` CI job runs exactly that over the
//!   corpus with `--certify`, and
//! * racing verdicts must match the non-racing portfolio's combined
//!   verdicts ([`RaceReport::mismatches_against_portfolio`]; the corpus
//!   regression test, `tests/corpus_regression.rs`, races the whole corpus
//!   against its portfolio run) — `cancelled`, like `unknown`, is "no
//!   opinion" and can never contradict anything.
//!
//! Ties are broken deterministically by engine priority: when two lanes
//! conclude in the same instant, the winner is the one with the lower
//! [`engine_rank`] (CEGAR/path-invariants first, PDR-lite last).

use crate::differential::DifferentialReport;
use crate::json::Json;
use crate::{
    engine_rank, make_tasks, run_task_with_cancel, EngineChoice, RefinerChoice, TaskReport,
    SCHEMA_VERSION,
};
use pathinv_core::{is_conclusive, CancellationToken};
use pathinv_ir::Program;
use pathinv_report::round3;
use std::sync::mpsc;
use std::sync::Mutex;
use std::time::Instant;

/// The outcome of racing the four portfolio lanes on one program.
#[derive(Clone, Debug)]
pub struct RaceProgram {
    /// Report name of the program.
    pub program: String,
    /// Engine label of the winning lane (`"cegar/path-invariants"`, ...),
    /// or `"-"` when no lane concluded.
    pub winner: String,
    /// The race verdict: the winner's verdict, or `"unknown"` when no lane
    /// concluded (`"error"` if a lane errored and none concluded).
    pub verdict: String,
    /// Wall-clock from race start to the first conclusive verdict (or to
    /// the last lane finishing when none concluded), in milliseconds.
    pub wall_ms: f64,
    /// Every lane's result, in deterministic engine order.  Each lane's
    /// `wall_ms` is its time-to-first-verdict: how long after race start it
    /// returned, whether with a real verdict or with `cancelled`.
    pub lanes: Vec<TaskReport>,
}

/// The outcome of racing the portfolio over a whole program set.
#[derive(Clone, Debug)]
pub struct RaceReport {
    /// Worker threads racing each program's lanes.
    pub jobs: usize,
    /// Per-program races, in input order.
    pub programs: Vec<RaceProgram>,
    /// End-to-end wall clock for the whole run, in milliseconds.
    pub wall_ms_total: f64,
}

/// Races the four portfolio lanes over every program, one program at a time,
/// with up to `jobs` lanes running concurrently.
///
/// Lanes are queued in engine-priority order; the first conclusive verdict
/// cancels every other lane's token, so with `jobs < 4` a not-yet-started
/// lane begins pre-cancelled and returns immediately.
///
/// With `certify`, every lane's certificate is audited by the independent
/// checker after the race: conclusive lanes must carry a valid certificate,
/// cancelled and unknown lanes pass vacuously
/// ([`RaceReport::certificate_failures`]; the CLI exits 1 on any entry).
///
/// With `timeout_ms` (`--timeout-ms`), every lane additionally runs under a
/// watchdog deadline on its own token: a lane that neither wins nor gets
/// cancelled by a winner is still reined in, returning the honest
/// `cancelled` — no-opinion, so it can never create or mask a mismatch.
pub fn run_race(
    programs: Vec<(String, Program)>,
    jobs: usize,
    certify: bool,
    timeout_ms: Option<u64>,
) -> RaceReport {
    let jobs = jobs.max(1);
    let start = Instant::now();
    let mut results = Vec::with_capacity(programs.len());
    for (name, program) in programs {
        results.push(race_one(name, program, jobs, certify, timeout_ms));
    }
    RaceReport { jobs, programs: results, wall_ms_total: start.elapsed().as_secs_f64() * 1e3 }
}

fn race_one(
    name: String,
    program: Program,
    jobs: usize,
    certify: bool,
    timeout_ms: Option<u64>,
) -> RaceProgram {
    let mut tasks = make_tasks(
        vec![(name.clone(), program)],
        EngineChoice::Portfolio,
        RefinerChoice::Both,
        None,
    );
    for t in &mut tasks {
        t.certify = certify;
        t.timeout_ms = timeout_ms;
    }
    let tokens: Vec<CancellationToken> =
        (0..tasks.len()).map(|_| CancellationToken::new()).collect();
    let start = Instant::now();
    let (tx, rx) = mpsc::channel::<(usize, TaskReport)>();
    let queue: Mutex<Vec<usize>> = Mutex::new((0..tasks.len()).rev().collect());
    let mut lanes: Vec<Option<TaskReport>> = vec![None; tasks.len()];
    let mut decision_ms: Option<f64> = None;
    std::thread::scope(|scope| {
        for _ in 0..jobs.min(tasks.len()) {
            let tx = tx.clone();
            let tasks = &tasks;
            let tokens = &tokens;
            let queue = &queue;
            scope.spawn(move || loop {
                let Some(i) = queue.lock().expect("lane queue poisoned").pop() else {
                    break;
                };
                let mut report = run_task_with_cancel(&tasks[i], &tokens[i]);
                // A lane's wall clock is its time-to-first-verdict: from
                // *race* start, so queueing delay at jobs < 4 is included.
                report.wall_ms = start.elapsed().as_secs_f64() * 1e3;
                let _ = tx.send((i, report));
            });
        }
        drop(tx);
        // The coordinator: collect lane results in arrival order, and on
        // the first conclusive verdict cancel every other lane.
        while let Ok((i, report)) = rx.recv() {
            if is_conclusive(&report.verdict) && decision_ms.is_none() {
                decision_ms = Some(report.wall_ms);
                for (j, token) in tokens.iter().enumerate() {
                    if j != i {
                        token.cancel();
                    }
                }
            }
            lanes[i] = Some(report);
        }
    });
    let lanes: Vec<TaskReport> = lanes.into_iter().map(|l| l.expect("lane lost")).collect();
    // Winner: earliest conclusive lane, ties broken by engine priority.
    let winner = lanes.iter().filter(|l| is_conclusive(&l.verdict)).min_by(|a, b| {
        (a.wall_ms, engine_rank(&a.engine, &a.refiner))
            .partial_cmp(&(b.wall_ms, engine_rank(&b.engine, &b.refiner)))
            .expect("lane times are finite")
    });
    let (winner_label, verdict, wall_ms) = match winner {
        Some(w) => (w.engine_label(), w.verdict.clone(), decision_ms.unwrap_or(w.wall_ms)),
        None => {
            let errored = lanes.iter().any(|l| l.verdict == "error");
            let last = lanes.iter().map(|l| l.wall_ms).fold(0.0, f64::max);
            ("-".to_string(), if errored { "error" } else { "unknown" }.to_string(), last)
        }
    };
    RaceProgram { program: name, winner: winner_label, verdict, wall_ms, lanes }
}

impl RaceReport {
    /// Every lane of every race, in program and engine order.
    pub fn lanes(&self) -> impl Iterator<Item = &TaskReport> + Clone {
        self.programs.iter().flat_map(|p| &p.lanes)
    }

    /// Conclusive lanes that contradict each other within one race (empty =
    /// every race is internally consistent), by the differential harness's
    /// [conflict rule](crate::differential::ProgramDiff::conflict).  The
    /// soundness contract makes any entry here a bug in an engine; the CLI
    /// hard-fails on it.
    pub fn mismatches(&self) -> Vec<String> {
        DifferentialReport::from_tasks(self.lanes()).disagreements()
    }

    /// Race verdicts that contradict a (non-racing) portfolio run's combined
    /// verdicts on the same programs.  `cancelled` and `unknown` are "no
    /// opinion" on both sides: a race that decided a program the portfolio
    /// left unknown (or vice versa) is *not* a mismatch — only `safe` vs
    /// `unsafe` is.
    pub fn mismatches_against_portfolio(&self, portfolio: &DifferentialReport) -> Vec<String> {
        let mut out = Vec::new();
        for p in &self.programs {
            if !is_conclusive(&p.verdict) {
                continue;
            }
            let Some(diff) = portfolio.programs.iter().find(|d| d.program == p.program) else {
                continue;
            };
            let combined = diff.combined.as_str();
            if is_conclusive(combined) && combined != p.verdict {
                out.push(format!(
                    "{}: race says {} ({}), portfolio says {}",
                    p.program, p.verdict, p.winner, combined
                ));
            }
        }
        out
    }

    /// Certificate audits that failed, rendered per lane
    /// ([`crate::audit_failures`]).  Only populated when the race ran with
    /// `certify`; vacuous passes — cancelled/unknown lanes with nothing to
    /// certify — never appear here.
    pub fn certificate_failures(&self) -> Vec<String> {
        crate::audit_failures(self.lanes())
    }

    /// Lanes that errored, rendered per program.
    pub fn errors(&self) -> Vec<String> {
        DifferentialReport::from_tasks(self.lanes()).errors()
    }

    /// The full JSON rendering of a race run.  Per program: the winner, the
    /// race verdict, the time to decision, and every lane's verdict with its
    /// time-to-first-verdict.  Never used as a golden projection.
    pub fn to_json(&self) -> Json {
        let decided = self.programs.iter().filter(|p| is_conclusive(&p.verdict)).count();
        Json::object(vec![
            ("schema_version", Json::Int(SCHEMA_VERSION)),
            ("mode", Json::Str("race".to_string())),
            ("jobs", Json::Int(self.jobs as i64)),
            (
                "programs",
                Json::Array(
                    self.programs
                        .iter()
                        .map(|p| {
                            Json::object(vec![
                                ("program", Json::Str(p.program.clone())),
                                ("winner", Json::Str(p.winner.clone())),
                                ("verdict", Json::Str(p.verdict.clone())),
                                ("wall_ms", Json::Float(round3(p.wall_ms))),
                                (
                                    "lanes",
                                    Json::Array(
                                        p.lanes
                                            .iter()
                                            .map(|l| {
                                                Json::object(vec![
                                                    ("engine", Json::Str(l.engine.clone())),
                                                    ("refiner", Json::Str(l.refiner.clone())),
                                                    ("verdict", Json::Str(l.verdict.clone())),
                                                    ("detail", Json::Str(l.detail.clone())),
                                                    (
                                                        "time_to_first_verdict_ms",
                                                        Json::Float(round3(l.wall_ms)),
                                                    ),
                                                    ("cert_kind", Json::Str(l.cert_kind.clone())),
                                                    (
                                                        "cert_digest",
                                                        Json::Str(l.cert_digest.clone()),
                                                    ),
                                                    (
                                                        "cert_verdict",
                                                        Json::Str(l.cert_verdict.clone()),
                                                    ),
                                                    (
                                                        "cert_reason",
                                                        Json::Str(l.cert_reason.clone()),
                                                    ),
                                                    (
                                                        "cert_check_ms",
                                                        Json::Float(round3(l.cert_check_ms)),
                                                    ),
                                                ])
                                            })
                                            .collect(),
                                    ),
                                ),
                            ])
                        })
                        .collect(),
                ),
            ),
            (
                "summary",
                Json::object(vec![
                    ("programs", Json::Int(self.programs.len() as i64)),
                    ("decided", Json::Int(decided as i64)),
                    ("mismatches", Json::Int(self.mismatches().len() as i64)),
                    ("lane_errors", Json::Int(self.errors().len() as i64)),
                    ("cert_failures", Json::Int(self.certificate_failures().len() as i64)),
                    ("wall_ms_total", Json::Float(round3(self.wall_ms_total))),
                ]),
            ),
        ])
    }

    /// A human-readable fixed-width summary table of the race.
    pub fn render_table(&self) -> String {
        let name_width = self
            .programs
            .iter()
            .map(|p| p.program.len())
            .chain(std::iter::once("program".len()))
            .max()
            .unwrap_or(8);
        let winner_width = self
            .programs
            .iter()
            .map(|p| p.winner.len())
            .chain(std::iter::once("winner".len()))
            .max()
            .unwrap_or(6);
        let mut out = String::new();
        out.push_str(&format!(
            "{:<name_width$}  {:<winner_width$}  {:<8}  {:>10}  lanes (verdict@ms)\n",
            "program", "winner", "verdict", "decision",
        ));
        let rule = name_width + winner_width + 52;
        out.push_str(&format!("{}\n", "-".repeat(rule)));
        for p in &self.programs {
            let lanes = p
                .lanes
                .iter()
                .map(|l| format!("{}={}@{:.0}", l.engine_label(), l.verdict, l.wall_ms))
                .collect::<Vec<_>>()
                .join(" ");
            out.push_str(&format!(
                "{:<name_width$}  {:<winner_width$}  {:<8}  {:>8.1}ms  {}\n",
                p.program, p.winner, p.verdict, p.wall_ms, lanes,
            ));
        }
        out.push_str(&format!("{}\n", "-".repeat(rule)));
        let decided = self.programs.iter().filter(|p| is_conclusive(&p.verdict)).count();
        out.push_str(&format!(
            "{} programs raced on {} workers in {:.1} ms: {} decided, {} mismatches, {} lane errors\n",
            self.programs.len(),
            self.jobs,
            self.wall_ms_total,
            decided,
            self.mismatches().len(),
            self.errors().len(),
        ));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::corpus_programs;
    use crate::run_batch;

    fn slice(names: &[&str]) -> Vec<(String, Program)> {
        corpus_programs().into_iter().filter(|(n, _)| names.contains(&n.as_str())).collect()
    }

    #[test]
    fn race_decides_figure4_and_cancels_losers() {
        let report = run_race(slice(&["FIGURE4"]), 4, false, None);
        let p = &report.programs[0];
        assert_eq!(p.verdict, "unsafe", "{p:?}");
        assert_ne!(p.winner, "-");
        assert_eq!(p.lanes.len(), 4);
        // Every lane either reached a real verdict or reports the honest
        // `cancelled` — never an `unknown` it did not earn.
        for l in &p.lanes {
            assert!(
                ["safe", "unsafe", "unknown", "cancelled"].contains(&l.verdict.as_str()),
                "{}: {}",
                l.engine_label(),
                l.verdict
            );
        }
        assert!(report.mismatches().is_empty());
        assert!(report.errors().is_empty());
    }

    #[test]
    fn race_with_one_worker_still_completes() {
        // With jobs = 1 the lanes run serially; a conclusive early lane
        // pre-cancels the queued ones, which then return immediately.
        let report = run_race(slice(&["FIGURE4"]), 1, false, None);
        let p = &report.programs[0];
        assert_eq!(p.verdict, "unsafe");
        assert!(report.mismatches().is_empty());
    }

    #[test]
    fn certified_race_audits_every_lane() {
        let report = run_race(slice(&["FIGURE4"]), 4, true, None);
        assert_eq!(report.certificate_failures(), Vec::<String>::new());
        for l in &report.programs[0].lanes {
            match l.verdict.as_str() {
                // Conclusive lanes carry a checker-validated certificate.
                "safe" | "unsafe" => assert_eq!(l.cert_verdict, "valid", "{}", l.engine_label()),
                // Cancelled/unknown lanes claim nothing: vacuous pass.
                _ => assert_eq!(l.cert_verdict, "vacuous", "{}", l.engine_label()),
            }
        }
    }

    #[test]
    fn race_agrees_with_the_portfolio_on_the_corpus_slice() {
        // The race-vs-portfolio differential on a representative slice
        // (safe, unsafe, and unknown-heavy programs); the full-corpus
        // agreement runs in `tests/corpus_regression.rs`, and the
        // race-smoke CI job checks lane-vs-lane agreement on the corpus.
        let names = ["FORWARD", "FIGURE4", "BUGGY_INITCHECK", "pinv/half_integer_bug"];
        let race = run_race(slice(&names), 4, false, None);
        let portfolio = run_batch(
            make_tasks(slice(&names), EngineChoice::Portfolio, RefinerChoice::Both, None),
            4,
        );
        let diff = DifferentialReport::from_batch(&portfolio);
        assert_eq!(race.mismatches(), Vec::<String>::new());
        assert_eq!(race.mismatches_against_portfolio(&diff), Vec::<String>::new());
    }

    #[test]
    fn race_json_carries_winner_and_lane_times() {
        let report = run_race(slice(&["FIGURE4"]), 4, false, None);
        let doc = crate::json::parse(&report.to_json().pretty()).unwrap();
        assert_eq!(doc.get("mode").and_then(Json::as_str), Some("race"));
        assert_eq!(doc.get("schema_version").and_then(Json::as_int), Some(SCHEMA_VERSION));
        let programs = doc.get("programs").and_then(Json::as_array).unwrap();
        let lanes = programs[0].get("lanes").and_then(Json::as_array).unwrap();
        assert_eq!(lanes.len(), 4);
        for lane in lanes {
            assert!(lane.get("time_to_first_verdict_ms").is_some());
        }
    }

    #[test]
    fn mismatch_detection_pairs_contradictory_lanes() {
        // Hand-assemble an (impossible under the soundness contract) race
        // where two lanes contradict each other.
        let lane = |engine: &str, refiner: &str, verdict: &str| TaskReport {
            program_name: "P".to_string(),
            engine: engine.to_string(),
            refiner: refiner.to_string(),
            verdict: verdict.to_string(),
            detail: String::new(),
            refinements: 0,
            predicates: 0,
            art_nodes: 0,
            wall_ms: 1.0,
            cert_kind: String::new(),
            cert_size: 0,
            cert_digest: String::new(),
            cert_verdict: String::new(),
            cert_reason: String::new(),
            cert_check_ms: 0.0,
            stats: Default::default(),
        };
        let report = RaceReport {
            jobs: 4,
            wall_ms_total: 1.0,
            programs: vec![RaceProgram {
                program: "P".to_string(),
                winner: "bmc".to_string(),
                verdict: "unsafe".to_string(),
                wall_ms: 1.0,
                lanes: vec![
                    lane("cegar", "path-invariants", "safe"),
                    lane("bmc", crate::NO_REFINER, "unsafe"),
                ],
            }],
        };
        let ms = report.mismatches();
        assert_eq!(ms.len(), 1);
        assert!(ms[0].contains("cegar/path-invariants says safe"), "{ms:?}");
        assert!(ms[0].contains("bmc says unsafe"), "{ms:?}");
    }
}
