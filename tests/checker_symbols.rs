//! The checker's symbol footprint: skolem constants and abstraction
//! variables come from a reserved per-query pool, so auditing a
//! certificate interns a bounded set of names and never calls
//! `Symbol::fresh` (the interner never frees, so a fresh symbol per
//! Fourier–Motzkin leaf would grow without bound in a long-running
//! process).  This binary holds a single test so that no other thread
//! draws fresh symbols while it counts them.

use path_invariants::Verifier;
use pathinv_check::{check_certificate, CheckLimits};
use pathinv_cli::corpus_programs;
use pathinv_ir::Symbol;

/// The counter `n` of a freshly drawn `probe!n`: `Symbol::fresh` numbers
/// every draw from one process-wide counter.
fn fresh_counter() -> u64 {
    let probe = Symbol::fresh("probe");
    probe.as_str().rsplit('!').next().and_then(|n| n.parse().ok()).expect("fresh names end in !n")
}

#[test]
fn repeated_audits_create_no_fresh_symbols() {
    let (_, program) = corpus_programs()
        .into_iter()
        .find(|(name, _)| name == "INITCHECK")
        .expect("INITCHECK is a corpus program");
    let result = Verifier::path_invariants().verify(&program).expect("INITCHECK verifies");
    let cert = result.certificate.expect("a safe verdict carries a certificate");
    // INITCHECK's audit abstracts array reads in every leaf and skolemizes
    // its negated quantified invariants, so it exercises both pools.
    for audit in ["first", "second"] {
        let before = fresh_counter();
        let verdict = check_certificate(&program, &cert, &CheckLimits::default());
        assert!(verdict.is_valid(), "{audit} audit: {:?}", verdict.reason());
        let drawn = fresh_counter() - before - 1;
        assert_eq!(drawn, 0, "{audit} audit drew {drawn} fresh symbols");
    }
}
