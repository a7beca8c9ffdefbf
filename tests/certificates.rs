//! Corpus-wide certificate audit: every conclusive verdict any engine
//! reaches on the 16-program corpus must come with a certificate that the
//! independent `pathinv-check` crate validates, and every inconclusive
//! verdict must come with none (`--certify` treats those as vacuously
//! passing).  This is the end-to-end trust chain of DESIGN.md §13: the
//! engines are complex and optimized, the checker is small and slow, and a
//! verdict only counts when the small program agrees with the big one.
//!
//! The per-engine emission contract on the canonical paper programs lives
//! in `crates/core/tests/certificate_emission.rs`; certificate *digests*
//! per corpus task are pinned by `tests/corpus_regression.rs` against
//! `tests/golden/corpus.json`.

use path_invariants::{BmcEngine, PdrEngine, Verdict, VerificationEngine, Verifier};
use pathinv_check::{check_certificate, Certificate, CheckLimits};
use pathinv_cli::{corpus_programs, make_tasks, run_batch, EngineChoice, RefinerChoice};
use pathinv_ir::exec::replay;

fn jobs() -> usize {
    std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1)
}

/// The acceptance gate of the certificate subsystem: the whole corpus,
/// through the whole portfolio, with `--certify` semantics.  Conclusive
/// tasks must audit `valid` with a non-empty digest; inconclusive tasks
/// must audit `vacuous` with no certificate at all.
#[test]
fn every_conclusive_corpus_verdict_carries_a_checker_validated_certificate() {
    let mut tasks =
        make_tasks(corpus_programs(), EngineChoice::Portfolio, RefinerChoice::Both, None);
    for t in &mut tasks {
        t.certify = true;
    }
    let report = run_batch(tasks, jobs());
    let mut failures = Vec::new();
    for t in &report.tasks {
        let label = format!("{}/{}", t.program_name, t.engine_label());
        match t.verdict.as_str() {
            "safe" | "unsafe" => {
                if t.cert_verdict != "valid" {
                    failures.push(format!(
                        "{label}: {} verdict audited {} ({})",
                        t.verdict, t.cert_verdict, t.cert_reason
                    ));
                }
                if t.cert_kind.is_empty() || t.cert_digest.is_empty() || t.cert_size == 0 {
                    failures.push(format!(
                        "{label}: conclusive verdict with an empty certificate record \
                         (kind `{}`, digest `{}`, size {})",
                        t.cert_kind, t.cert_digest, t.cert_size
                    ));
                }
                // Polarity is part of the kind: traces refute, the rest prove.
                let claims_safety = t.cert_kind != "trace";
                if claims_safety != (t.verdict == "safe") {
                    failures.push(format!(
                        "{label}: {} certificate attached to a {} verdict",
                        t.cert_kind, t.verdict
                    ));
                }
            }
            "unknown" | "cancelled" => {
                if t.cert_verdict != "vacuous" || !t.cert_kind.is_empty() {
                    failures.push(format!(
                        "{label}: inconclusive verdict audited {} with certificate kind `{}`",
                        t.cert_verdict, t.cert_kind
                    ));
                }
            }
            other => failures.push(format!("{label}: unexpected verdict `{other}`")),
        }
    }
    assert!(failures.is_empty(), "certificate audit failures:\n  {}", failures.join("\n  "));
}

/// Inconclusive runs are vacuous passes under `--certify`: a bounded BMC
/// that gives up at its depth claims nothing and is audited as such, not
/// penalized.
#[test]
fn certify_treats_unknown_verdicts_as_vacuously_passing() {
    let programs: Vec<_> =
        corpus_programs().into_iter().filter(|(name, _)| name == "FORWARD").collect();
    let mut tasks = make_tasks(programs, EngineChoice::Bmc, RefinerChoice::Both, None);
    for t in &mut tasks {
        t.certify = true;
    }
    let report = run_batch(tasks, 1);
    assert_eq!(report.tasks.len(), 1);
    let t = &report.tasks[0];
    assert_eq!(t.verdict, "unknown", "{}", t.detail);
    assert_eq!(t.cert_verdict, "vacuous");
    assert!(t.cert_kind.is_empty() && t.cert_digest.is_empty());
    assert_eq!(t.cert_check_ms, 0.0, "nothing to check, nothing to time");
}

/// Cross-engine trace-format contract: every engine that concludes `unsafe`
/// on the same program emits a trace certificate under the same SSA
/// decoding convention (inputs at version 0, havoc results at the bumped
/// version — the `eval_ssa_parity` contract), so one replay-based checker
/// audits all of them interchangeably.
#[test]
fn all_engines_emit_replayable_trace_certificates_in_the_same_format() {
    let program = pathinv_ir::corpus::figure4_program();
    let engines: Vec<(&str, Box<dyn VerificationEngine>)> = vec![
        ("cegar/path-invariants", Box::new(Verifier::path_invariants())),
        ("bmc", Box::new(BmcEngine::default())),
        ("pdr", Box::new(PdrEngine::default())),
    ];
    for (label, engine) in engines {
        let result = engine.verify(&program).unwrap();
        assert!(matches!(result.verdict, Verdict::Unsafe { .. }), "{label}: {:?}", result.verdict);
        let cert = result.certificate.expect(label);
        let Certificate::Trace(trace) = &cert else {
            panic!("{label}: unsafe verdict must carry a trace certificate, got {}", cert.kind());
        };
        // The checker validates it...
        let v = check_certificate(&program, &cert, &CheckLimits::default());
        assert!(v.is_valid(), "{label}: {:?}", v.reason());
        // ...and so does a direct concrete replay of the decoded fields,
        // independent of the checker's own plumbing.
        let outcome = replay(&program, &trace.steps, &trace.inputs, &trace.havocs);
        assert!(outcome.reaches_error(), "{label}: decoded trace diverged: {outcome:?}");
        assert!(!trace.steps.is_empty(), "{label}: empty step sequence");
    }
}

/// Split-budget ratchet on the checker's two most split-hungry corpus
/// audits.  FORWARD's invariant disjuncts carry five disequalities each;
/// splitting a disequality only when the relaxation fails, and refuting
/// each consecution conjunct once, gets both audits through 548 and 651
/// splits, while eager splits with whole-disjunct queries need 15,441 and
/// 13,845 — the budget of 1,500 separates the two.
#[test]
fn forward_certificates_validate_within_a_small_split_budget() {
    let limits = CheckLimits { max_splits: 1_500, ..Default::default() };
    let programs: Vec<_> = corpus_programs()
        .into_iter()
        .filter(|(name, _)| name == "FORWARD" || name == "suite/forward")
        .collect();
    assert_eq!(programs.len(), 2);
    for (name, program) in programs {
        let result = Verifier::path_invariants().verify(&program).unwrap();
        assert!(matches!(result.verdict, Verdict::Safe), "{name}: {:?}", result.verdict);
        let cert = result.certificate.expect("a safe verdict carries a certificate");
        let v = check_certificate(&program, &cert, &limits);
        assert!(v.is_valid(), "{name}: {:?}", v.reason());
    }
}
