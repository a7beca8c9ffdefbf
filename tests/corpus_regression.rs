//! Golden-result regression test over the verification corpus.
//!
//! Re-runs every corpus program through the whole engine portfolio — CEGAR
//! with both refiners, bounded model checking, and PDR-lite — in parallel,
//! through the same harness the `pathinv-cli` binary uses, and diffs the
//! deterministic outcome fields — verdict, refinement count, solver calls,
//! cold simplex builds, cache hits, and the per-engine exploration
//! counters per (program, engine, refiner) task — against the committed
//! snapshot in
//! `tests/golden/corpus.json`.  Any PR that flips a verdict, changes how
//! many refinements a proof needs, or regresses the solver-call discipline
//! fails here immediately.  The same run feeds the differential check: no
//! two engines may reach contradictory conclusions on any corpus program.
//!
//! To regenerate the snapshot (and the benchmark goldens) after an
//! *intentional* change:
//!
//! ```text
//! cargo run --release -p pathinv-cli -- --bless
//! ```

use pathinv_cli::differential::DifferentialReport;
use pathinv_cli::json::{self, Json};
use pathinv_cli::{corpus_programs, make_tasks, run_batch, EngineChoice, RefinerChoice};
use std::collections::BTreeMap;

/// The deterministic fields of one task outcome.  The certificate triple
/// (kind, size, digest) pins the exact proof artifact every engine emits:
/// an engine that silently changes — or stops producing — its certificate
/// for any corpus task fails here even if the verdict is unchanged.
#[derive(Debug, PartialEq, Eq)]
struct Outcome {
    verdict: String,
    refinements: i64,
    solver_calls: i64,
    simplex_calls: i64,
    query_cache_hits: i64,
    post_cache_hits: i64,
    engine_depth: i64,
    engine_nodes: i64,
    engine_lemmas: i64,
    cert_kind: String,
    cert_size: i64,
    cert_digest: String,
}

type OutcomeMap = BTreeMap<(String, String, String), Outcome>;

fn outcomes_from_golden_json(doc: &Json) -> OutcomeMap {
    let tasks = doc
        .get("tasks")
        .and_then(Json::as_array)
        .expect("golden snapshot must have a `tasks` array");
    let mut map = OutcomeMap::new();
    for task in tasks {
        let field = |name: &str| {
            task.get(name)
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("golden task missing string field `{name}`"))
                .to_string()
        };
        let int_field = |name: &str| {
            task.get(name)
                .and_then(Json::as_int)
                .unwrap_or_else(|| panic!("golden task missing int field `{name}`"))
        };
        let key = (field("program"), field("engine"), field("refiner"));
        let outcome = Outcome {
            verdict: field("verdict"),
            refinements: int_field("refinements"),
            solver_calls: int_field("solver_calls"),
            simplex_calls: int_field("simplex_calls"),
            query_cache_hits: int_field("query_cache_hits"),
            post_cache_hits: int_field("post_cache_hits"),
            engine_depth: int_field("engine_depth"),
            engine_nodes: int_field("engine_nodes"),
            engine_lemmas: int_field("engine_lemmas"),
            cert_kind: field("cert_kind"),
            cert_size: int_field("cert_size"),
            cert_digest: field("cert_digest"),
        };
        assert!(map.insert(key.clone(), outcome).is_none(), "duplicate golden task {key:?}");
    }
    map
}

fn jobs() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

#[test]
fn corpus_verdicts_and_refinement_counts_match_golden_snapshot() {
    let golden_text = include_str!("golden/corpus.json");
    let golden_doc = json::parse(golden_text).expect("golden snapshot must be valid JSON");
    assert_eq!(
        golden_doc.get("schema_version").and_then(Json::as_int),
        Some(pathinv_cli::SCHEMA_VERSION),
        "golden snapshot schema version mismatch; regenerate it"
    );
    let golden = outcomes_from_golden_json(&golden_doc);

    let report = run_batch(
        make_tasks(corpus_programs(), EngineChoice::Portfolio, RefinerChoice::Both, None),
        jobs(),
    );

    // The emitted JSON must itself be valid and loadable (the report is the
    // substrate other tooling consumes).
    let live_doc = json::parse(&report.to_golden_json().pretty())
        .expect("live golden JSON must round-trip through the parser");
    let live = outcomes_from_golden_json(&live_doc);

    let mut failures: Vec<String> = Vec::new();
    for (key, golden_outcome) in &golden {
        match live.get(key) {
            None => failures.push(format!("{key:?}: in golden snapshot but not produced")),
            Some(live_outcome) if live_outcome != golden_outcome => {
                failures.push(format!("{key:?}: golden {golden_outcome:?}, live {live_outcome:?}"))
            }
            Some(_) => {}
        }
    }
    for key in live.keys() {
        if !golden.contains_key(key) {
            failures.push(format!("{key:?}: produced but missing from golden snapshot"));
        }
    }
    assert!(
        failures.is_empty(),
        "corpus results drifted from tests/golden/corpus.json:\n  {}\n\n\
         If the change is intentional, regenerate the snapshots with\n  \
         cargo run --release -p pathinv-cli -- --bless",
        failures.join("\n  ")
    );

    // No corpus program may crash the harness.
    for t in &report.tasks {
        assert_ne!(t.verdict, "error", "{}/{}: {}", t.program_name, t.engine_label(), t.detail);
    }

    // The differential oracle: no two engines may reach contradictory
    // conclusions on any corpus program.
    let diff = DifferentialReport::from_batch(&report);
    assert_eq!(
        diff.disagreements(),
        Vec::<String>::new(),
        "cross-engine verdict disagreement on the corpus"
    );
}

#[test]
fn full_report_json_is_valid_and_consistent_with_summary() {
    // A small deterministic slice is enough to validate the report shape;
    // the full corpus is covered by the snapshot test above.
    let programs: Vec<_> = corpus_programs()
        .into_iter()
        .filter(|(name, _)| name == "FIGURE4" || name == "suite/init_backward_bug")
        .collect();
    assert_eq!(programs.len(), 2);
    let report = run_batch(make_tasks(programs, EngineChoice::Cegar, RefinerChoice::Both, None), 2);
    let doc = json::parse(&report.to_json().pretty()).expect("report JSON must parse");

    let tasks = doc.get("tasks").and_then(Json::as_array).unwrap();
    assert_eq!(tasks.len(), 4);
    let summary = doc.get("summary").expect("report must have a summary");
    assert_eq!(summary.get("total").and_then(Json::as_int), Some(4));
    let count = |verdict: &str| {
        tasks.iter().filter(|t| t.get("verdict").and_then(Json::as_str) == Some(verdict)).count()
            as i64
    };
    for verdict in ["safe", "unsafe", "unknown", "error"] {
        assert_eq!(
            summary.get(verdict).and_then(Json::as_int),
            Some(count(verdict)),
            "summary count for `{verdict}` disagrees with the task list"
        );
    }
    // Both programs here are genuinely unsafe and cheap to falsify.
    assert_eq!(count("unsafe"), 4);
}
