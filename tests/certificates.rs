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
use pathinv_bench::generator::{generate_campaign, Family};
use pathinv_check::{check_certificate, CertVerdict, Certificate, CheckLimits};
use pathinv_cli::{corpus_programs, make_tasks, run_batch, EngineChoice, RefinerChoice};
use pathinv_core::{run_job, CancellationToken, EngineSpec};
use pathinv_ir::exec::replay;
use pathinv_ir::{parse_program, Formula, Program};

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

/// `fz135_nested` of the generated campaign with seed 1: nested counting
/// loops, whose CEGAR certificate holds many disjuncts per location.
const NESTED_SRC: &str = "proc fz135_nested(n: int, m: int) {
    assume(n >= 0);
    assume(n <= 4);
    assume(m >= 0);
    assume(m <= 3);
    var i: int;
    var j: int;
    var c: int;
    c = 0;
    j = 0;
    i = 0;
    while (i < n) {
        j = 0;
        while (j < m) {
            c = c + 1;
            j = j + 1;
        }
        assert(j == m);
        i = i + 1;
    }
    assert(i == n);
}";

/// `fz37_partition` of the same campaign: a loop that grows one of two
/// counters per iteration.
const PARTITION_SRC: &str = "proc fz37_partition() {
    var n: int;
    havoc n;
    assume(n >= 0);
    assume(n <= 2);
    var i: int;
    var lo: int;
    var hi: int;
    i = 0;
    lo = 0;
    hi = 0;
    while (i < n) {
        if (*) {
            lo = lo + 2;
        } else {
            hi = hi + 2;
        }
        i = i + 1;
    }
    assert(lo + hi == 2 * i);
}";

/// Work ratchet on the checker's consecution, counted in budget units
/// rather than milliseconds.  A target conjunct the source or `τ` states
/// verbatim is refuted without a query, and the target disjunct with the
/// fewest other conjuncts is tried first.  Without the two rules these
/// audits need (smallest budgets, by bisection) 5,250 splits and 14,491
/// eliminations (INITCHECK), 5,583 and 15,416 (suite/init_check), 444 and
/// 1,834 (FORWARD), 523 and 1,999 (suite/forward), 2,404 and 10,145
/// (`fz135_nested`), 1,630 and 6,185 (`fz37_partition`); with them 1,253
/// and 3,383, the same, 72 and 496, 93 and 544, 74 and 954, 226 and 1,104.
/// The budgets below leave about twice that headroom, since elimination
/// counts move a little with the symbol interning order of the process.
#[test]
fn consecution_audits_fit_budgets_that_need_the_covering_disjunct_first() {
    let mut programs: Vec<(String, Program)> = corpus_programs()
        .into_iter()
        .filter(|(name, _)| {
            ["INITCHECK", "suite/init_check", "FORWARD", "suite/forward"].contains(&name.as_str())
        })
        .collect();
    assert_eq!(programs.len(), 4);
    for src in [NESTED_SRC, PARTITION_SRC] {
        let program = parse_program(src).unwrap();
        programs.push((program.name().to_string(), program));
    }
    let mut failures = Vec::new();
    for (name, program) in programs {
        let (max_splits, max_eliminations) = match name.as_str() {
            "INITCHECK" | "suite/init_check" => (2_500, 7_000),
            "fz135_nested" => (300, 2_500),
            "fz37_partition" => (500, 2_500),
            "FORWARD" | "suite/forward" => (200, 1_100),
            other => unreachable!("{other}"),
        };
        let limits = CheckLimits { max_splits, max_eliminations, ..Default::default() };
        let result = Verifier::path_invariants().verify(&program).unwrap();
        assert!(matches!(result.verdict, Verdict::Safe), "{name}: {:?}", result.verdict);
        let cert = result.certificate.expect("a safe verdict carries a certificate");
        assert!(matches!(cert, Certificate::Inductive(_)), "{name}: {}", cert.kind());
        let v = check_certificate(&program, &cert, &limits);
        if v != CertVerdict::Valid {
            failures.push(format!(
                "{name} within {max_splits} splits, {max_eliminations} eliminations: {v:?}"
            ));
        }
    }
    assert!(failures.is_empty(), "audits over budget:\n  {}", failures.join("\n  "));
}

/// The certificate with every disjunctive invariant's disjuncts permuted.
fn permuted(cert: &Certificate, permute: impl Fn(&mut Vec<Formula>)) -> Certificate {
    let Certificate::Inductive(c) = cert else { unreachable!("only inductive certificates") };
    let mut c = c.clone();
    for inv in c.invariants.values_mut() {
        if let Formula::Or(parts) = inv {
            permute(parts);
        }
    }
    Certificate::Inductive(c)
}

/// Disjunct order is not part of a proof: the checker reorders the
/// disjuncts (fewest conjuncts the source does not state first), and any
/// covering disjunct refutes the source, so reversing or rotating the
/// disjuncts of every location leaves each inductive certificate valid.
/// Covers every inductive certificate of the corpus portfolio and of the
/// nested and partition programs of the generated campaign with seed 1.
#[test]
fn permuting_invariant_disjuncts_keeps_inductive_certificates_valid() {
    let mut certified: Vec<(String, Program, Certificate)> = Vec::new();
    for t in make_tasks(corpus_programs(), EngineChoice::Portfolio, RefinerChoice::Both, None) {
        if matches!(t.engine, EngineSpec::Bmc(_)) {
            continue; // bounded-unroll certificates carry no invariants
        }
        let outcome = run_job(&t.job_spec(), &t.program, &CancellationToken::new());
        if let Some(cert @ Certificate::Inductive(_)) = outcome.certificate {
            let label = format!(
                "{}/{}/{}",
                t.program_name,
                t.engine.engine_name(),
                t.engine.refiner_name()
            );
            certified.push((label, t.program, cert));
        }
    }
    let corpus_certificates = certified.len();
    assert!(corpus_certificates >= 10, "only {corpus_certificates} corpus certificates");
    for g in generate_campaign(1, 200).programs {
        if !matches!(g.scenario.family, Family::Nested | Family::Partition) {
            continue;
        }
        let result = Verifier::path_invariants().verify(&g.program).unwrap();
        if let Some(cert @ Certificate::Inductive(_)) = result.certificate {
            certified.push((g.name, g.program, cert));
        }
    }
    assert!(certified.len() >= corpus_certificates + 40, "{} certificates", certified.len());
    let limits = CheckLimits::default();
    for (label, program, cert) in &certified {
        let reversed = permuted(cert, |parts| parts.reverse());
        let rotated = permuted(cert, |parts| parts.rotate_left(1));
        for (how, c) in [("reversed", reversed), ("rotated", rotated)] {
            assert_eq!(
                check_certificate(program, &c, &limits),
                CertVerdict::Valid,
                "{label} {how}"
            );
        }
    }
}
