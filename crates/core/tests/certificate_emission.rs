//! Engine-level certificate emission contract:
//!
//! * every conclusive verdict (`Safe`/`Unsafe`) carries a certificate of the
//!   matching polarity, and the independent `pathinv-check` crate validates
//!   it;
//! * every inconclusive verdict (`Unknown`/`Cancelled`) carries none — an
//!   engine that claims nothing has nothing to certify.
//!
//! The full 16-program corpus sweep lives in the workspace-root test
//! `tests/certificates.rs`; this file pins the contract per engine on the
//! canonical paper programs, where a failure is easiest to localize.

use pathinv_check::{check_certificate, CheckLimits};
use pathinv_core::{
    BmcConfig, BmcEngine, CancellationToken, PdrEngine, Verdict, VerificationEngine, Verifier,
};
use pathinv_ir::{corpus, parse_program, Program};

/// Asserts the emission contract on one engine result and, for conclusive
/// verdicts, validates the certificate independently.
fn assert_contract(program: &Program, result: &pathinv_core::VerificationResult, label: &str) {
    match &result.verdict {
        Verdict::Safe => {
            let cert = result
                .certificate
                .as_ref()
                .unwrap_or_else(|| panic!("{label}: Safe verdict must carry a certificate"));
            assert!(cert.claims_safety(), "{label}: Safe verdict carries a trace certificate");
            let v = check_certificate(program, cert, &CheckLimits::default());
            assert!(v.is_valid(), "{label}: certificate rejected: {:?}", v.reason());
        }
        Verdict::Unsafe { .. } => {
            let cert = result
                .certificate
                .as_ref()
                .unwrap_or_else(|| panic!("{label}: Unsafe verdict must carry a certificate"));
            assert!(!cert.claims_safety(), "{label}: Unsafe verdict carries a safety certificate");
            let v = check_certificate(program, cert, &CheckLimits::default());
            assert!(v.is_valid(), "{label}: certificate rejected: {:?}", v.reason());
        }
        Verdict::Unknown { .. } | Verdict::Cancelled => {
            assert!(
                result.certificate.is_none(),
                "{label}: inconclusive verdict must not carry a certificate"
            );
        }
    }
}

#[test]
fn cegar_safe_proof_is_certified() {
    let p = corpus::forward();
    let result = Verifier::path_invariants().verify(&p).unwrap();
    assert!(result.verdict.is_safe(), "{:?}", result.verdict);
    assert_contract(&p, &result, "cegar/FORWARD");
}

#[test]
fn cegar_counterexample_is_certified() {
    let p = corpus::figure4_program();
    let result = Verifier::path_invariants().verify(&p).unwrap();
    assert!(result.verdict.is_unsafe(), "{:?}", result.verdict);
    assert_contract(&p, &result, "cegar/FIGURE4");
}

#[test]
fn cegar_unknown_emits_no_certificate() {
    let p = corpus::forward();
    let result = Verifier::path_predicates(4).verify(&p).unwrap();
    assert!(matches!(result.verdict, Verdict::Unknown { .. }), "{:?}", result.verdict);
    assert_contract(&p, &result, "cegar-pp/FORWARD");
}

#[test]
fn cancelled_runs_emit_no_certificate() {
    let p = corpus::forward();
    let token = CancellationToken::new();
    token.cancel();
    for name in ["cegar", "bmc"] {
        let engine = pathinv_core::EngineSpec::named(name, None).unwrap().build();
        let result = engine.verify_with_cancel(&p, &token).unwrap();
        assert!(
            matches!(result.verdict, Verdict::Cancelled),
            "{}: {:?}",
            engine.name(),
            result.verdict
        );
        assert_contract(&p, &result, engine.name());
    }
}

#[test]
fn bmc_bounded_proof_is_certified() {
    let p = parse_program(
        "proc ok(a: int[]) {
            var i: int;
            for (i = 0; i < 2; i++) { a[i] = 7; }
            assert(a[0] == 7);
        }",
    )
    .unwrap();
    let result = BmcEngine::default().verify(&p).unwrap();
    assert!(result.verdict.is_safe(), "{:?}", result.verdict);
    assert_contract(&p, &result, "bmc/bounded-loop");
}

#[test]
fn bmc_unreachable_error_proof_is_certified_without_search() {
    let p = parse_program("proc ok(x: int) { x = 1; }").unwrap();
    let result = BmcEngine::default().verify(&p).unwrap();
    assert!(result.verdict.is_safe(), "{:?}", result.verdict);
    assert_contract(&p, &result, "bmc/no-assert");
}

#[test]
fn bmc_counterexample_is_certified() {
    let p = corpus::figure4_program();
    let result = BmcEngine::default().verify(&p).unwrap();
    assert!(result.verdict.is_unsafe(), "{:?}", result.verdict);
    assert_contract(&p, &result, "bmc/FIGURE4");
}

#[test]
fn bmc_unknown_at_depth_emits_no_certificate() {
    let p = corpus::forward();
    let result = BmcEngine::new(BmcConfig { max_depth: 8, max_checks: 400 }).verify(&p).unwrap();
    assert!(matches!(result.verdict, Verdict::Unknown { .. }), "{:?}", result.verdict);
    assert_contract(&p, &result, "bmc/FORWARD");
}

#[test]
fn pdr_safe_frame_is_certified() {
    let p = parse_program("proc ok(x: int) { x = 1; assert(x == 1); }").unwrap();
    let result = PdrEngine::default().verify(&p).unwrap();
    assert!(result.verdict.is_safe(), "{:?}", result.verdict);
    assert_contract(&p, &result, "pdr/straight-line");
}

#[test]
fn pdr_counterexample_is_certified() {
    let p = parse_program(
        "proc bug(n: int) {
            var i: int; var s: int;
            assume(n > 0);
            i = 0; s = 1;
            while (i < n) { s = s + 1; i = i + 1; }
            assert(s == n);
        }",
    )
    .unwrap();
    let result = PdrEngine::default().verify(&p).unwrap();
    assert!(result.verdict.is_unsafe(), "{:?}", result.verdict);
    assert_contract(&p, &result, "pdr/loop-bug");
}

#[test]
fn pdr_unreachable_error_proof_is_certified() {
    let p = parse_program("proc ok(x: int) { x = 1; }").unwrap();
    let result = PdrEngine::default().verify(&p).unwrap();
    assert!(result.verdict.is_safe(), "{:?}", result.verdict);
    assert_contract(&p, &result, "pdr/no-assert");
}
