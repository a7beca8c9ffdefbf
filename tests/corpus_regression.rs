//! Golden-result regression test over the verification corpus.
//!
//! Re-runs every corpus program through the whole engine portfolio — CEGAR
//! with both refiners, bounded model checking, and PDR-lite — in parallel,
//! through the same harness the `pathinv-cli` binary uses, and diffs every
//! field of each (program, engine, refiner) task — verdict, refinement
//! count, predicates, ART nodes, solver calls, cold and warm simplex work,
//! interpolants, cache hits, the per-engine exploration counters, the
//! synthesis counters, and the certificate triple — against the committed
//! snapshot in `tests/golden/corpus.json`.  Any PR that flips a verdict,
//! changes how many refinements a proof needs, or moves a work counter
//! fails here immediately, in debug and release builds alike: the counters
//! do not depend on the build profile.  The same run feeds the
//! differential check: no two engines may reach contradictory conclusions
//! on any corpus program.  Two more runs are held to that portfolio run:
//! the CEGAR tasks with the incremental caches off must reach the golden
//! rows' observable outcomes with no cache hit, and a race of the corpus
//! must never contradict the portfolio's combined verdicts.
//!
//! To regenerate the snapshot after an *intentional* change, from the
//! repository root (the CLI writes it only when the run passes: no task
//! error, no cross-engine disagreement, no failed certificate audit):
//!
//! ```text
//! cargo run --release -p pathinv-cli -- --all --engine portfolio --certify \
//!     --golden tests/golden/corpus.json
//! ```

use pathinv_cli::differential::DifferentialReport;
use pathinv_cli::json::{self, Json};
use pathinv_cli::race::run_race;
use pathinv_cli::{corpus_programs, make_tasks, run_batch, EngineChoice, RefinerChoice};
use std::collections::BTreeMap;

/// Every golden task object, keyed by (program, engine, refiner).  The
/// certificate triple (kind, size, digest) among the fields pins the exact
/// proof artifact every engine emits: an engine that silently changes — or
/// stops producing — its certificate for any corpus task fails here even if
/// the verdict is unchanged.
type OutcomeMap = BTreeMap<(String, String, String), Json>;

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
        let key = (field("program"), field("engine"), field("refiner"));
        assert!(map.insert(key.clone(), task.clone()).is_none(), "duplicate golden task {key:?}");
    }
    map
}

/// The fields on which two task objects differ, as `name: golden -> live`.
fn field_diffs(golden: &Json, live: &Json) -> Vec<String> {
    let (Json::Object(golden_fields), Json::Object(live_fields)) = (golden, live) else {
        return vec![format!("golden {golden:?}, live {live:?}")];
    };
    let names: std::collections::BTreeSet<&String> =
        golden_fields.iter().chain(live_fields).map(|(name, _)| name).collect();
    names
        .into_iter()
        .filter_map(|name| {
            let (g, l) = (golden.get(name), live.get(name));
            (g != l).then(|| format!("{name}: {} -> {}", show(g), show(l)))
        })
        .collect()
}

fn show(value: Option<&Json>) -> String {
    value.map_or_else(|| "absent".to_string(), Json::compact)
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
            Some(live_outcome) if live_outcome != golden_outcome => failures
                .push(format!("{key:?}: {}", field_diffs(golden_outcome, live_outcome).join(", "))),
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
         If the change is intentional, regenerate the snapshot with\n  \
         cargo run --release -p pathinv-cli -- --all --engine portfolio --certify \
         --golden tests/golden/corpus.json",
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

    // Cached/uncached parity: the abstract post's incremental layers (the
    // query cache and the frame carry) may change how much solver work a
    // CEGAR task does, never what it concludes or proves.
    let mut uncached_tasks =
        make_tasks(corpus_programs(), EngineChoice::Cegar, RefinerChoice::Both, None);
    for t in &mut uncached_tasks {
        t.disable_cegar_caching();
    }
    let uncached = outcomes_from_golden_json(&run_batch(uncached_tasks, jobs()).to_golden_json());
    assert_eq!(uncached.len(), 32, "the corpus has 32 CEGAR tasks");
    let mut parity: Vec<String> = Vec::new();
    for (key, row) in &uncached {
        let golden_row = &golden[key];
        let observable = ["verdict", "refinements", "predicates", "art_nodes"];
        for field in observable.into_iter().chain(["cert_kind", "cert_size", "cert_digest"]) {
            if row.get(field) != golden_row.get(field) {
                parity.push(format!(
                    "{key:?}: {field} {} uncached, {} in the golden",
                    show(row.get(field)),
                    show(golden_row.get(field))
                ));
            }
        }
        let hits = row.get("query_cache_hits");
        if hits.and_then(Json::as_int) != Some(0) {
            parity.push(format!("{key:?}: query_cache_hits is {} uncached", show(hits)));
        }
    }
    assert_eq!(parity, Vec::<String>::new(), "uncached CEGAR runs diverge from the golden");

    // The racing portfolio: lanes agree with each other, none errors, and
    // no race verdict contradicts the portfolio's combined verdict.
    let race = run_race(corpus_programs(), jobs(), false, None);
    let race_failures: Vec<String> = race
        .mismatches()
        .into_iter()
        .chain(race.errors())
        .chain(race.mismatches_against_portfolio(&diff))
        .collect();
    assert_eq!(race_failures, Vec::<String>::new(), "the corpus race contradicts the portfolio");
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
