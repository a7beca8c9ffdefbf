//! Mutation tests on certificates: a checker is only worth its trust if it
//! *rejects* corrupted proofs, so every mutation class the certificate
//! format admits is exercised here against `pathinv-check`:
//!
//! * invariant maps — weakened entry, unblocked error location, a dropped
//!   conjunct (also one still stated verbatim elsewhere), an invariant
//!   attached to the wrong location, and a non-covering decoy disjunct that
//!   consecution tries first;
//! * traces — perturbed input values (property-tested across deltas),
//!   perturbed havoc results, truncated and emptied step sequences,
//!   non-contiguous steps.
//!
//! The valid baselines are engine-produced (or hand-built and first checked
//! `Valid`), so each test demonstrates the checker separating a real proof
//! from its corruption, not just rejecting garbage.

use pathinv_check::{check_certificate, Certificate, CheckLimits, InvariantCert, TraceCert};
use pathinv_core::{BmcEngine, Verdict, VerificationEngine, Verifier};
use pathinv_ir::{parse_program, Action, Formula, Loc, Program, Term};
use proptest::prelude::*;
use std::collections::BTreeMap;

fn checked(program: &Program, cert: &Certificate) -> bool {
    check_certificate(program, cert, &CheckLimits::default()).is_valid()
}

/// `x = 1; y = 1; assert(x + y == 2)` — safe, with a hand-buildable
/// invariant map whose every conjunct is load-bearing.
fn straight_line() -> Program {
    parse_program(
        "proc s(x: int, y: int) {
             x = 1;
             y = 1;
             assert(x + y == 2);
         }",
    )
    .unwrap()
}

/// The hand-built inductive map for [`straight_line`]: `true` at entry,
/// `x == 1` after the first assignment, `x == 1 && y == 1` everywhere past
/// the second, `false` at the error location.  Returns the certificate and
/// the two interesting locations (after `x = 1`, after `y = 1`).
fn straight_line_cert(p: &Program) -> (InvariantCert, Loc, Loc) {
    let assigned = |t: &pathinv_ir::Transition, name: &str| matches!(&t.action, Action::Assign(xs) if xs.iter().any(|(s, _)| s.as_str() == name));
    let mut after_x = None;
    let mut after_y = None;
    for loc in p.locs() {
        for &tid in p.outgoing(loc) {
            let t = p.transition(tid);
            if assigned(t, "x") {
                after_x = Some(t.to);
            }
            if assigned(t, "y") {
                after_y = Some(t.to);
            }
        }
    }
    let (after_x, after_y) = (after_x.unwrap(), after_y.unwrap());
    let x1 = Formula::eq(Term::var("x"), Term::int(1));
    let y1 = Formula::eq(Term::var("y"), Term::int(1));
    let both = Formula::and(vec![x1.clone(), y1]);
    let mut invariants: BTreeMap<Loc, Formula> = BTreeMap::new();
    for loc in p.locs() {
        invariants.insert(
            loc,
            if loc == p.entry() {
                Formula::True
            } else if loc == p.error() {
                Formula::False
            } else if loc == after_x {
                x1.clone()
            } else {
                both.clone()
            },
        );
    }
    (InvariantCert { invariants }, after_x, after_y)
}

#[test]
fn the_unmutated_hand_built_map_is_valid() {
    let p = straight_line();
    let (cert, _, _) = straight_line_cert(&p);
    assert!(checked(&p, &Certificate::Inductive(cert)));
}

#[test]
fn weakening_the_entry_to_false_breaks_initiation() {
    let p = straight_line();
    let (mut cert, _, _) = straight_line_cert(&p);
    cert.invariants.insert(p.entry(), Formula::False);
    assert!(!checked(&p, &Certificate::Inductive(cert)));
}

#[test]
fn unblocking_the_error_location_breaks_error_exclusion() {
    let p = straight_line();
    let (mut cert, _, _) = straight_line_cert(&p);
    cert.invariants.insert(p.error(), Formula::True);
    assert!(!checked(&p, &Certificate::Inductive(cert)));
}

/// Dropping either conjunct of `x == 1 && y == 1` leaves the assert edge
/// unrefuted: the checker must notice the proof no longer closes.
#[test]
fn dropping_any_conjunct_of_the_assert_invariant_is_rejected() {
    let p = straight_line();
    for keep in ["x", "y"] {
        let (mut cert, _, after_y) = straight_line_cert(&p);
        let single = Formula::eq(Term::var(keep), Term::int(1));
        // Weaken every location that held the full conjunction.
        for loc in p.locs() {
            if cert.invariants[&loc] == cert.invariants[&after_y] && loc != after_y {
                cert.invariants.insert(loc, single.clone());
            }
        }
        cert.invariants.insert(after_y, single.clone());
        assert!(
            !checked(&p, &Certificate::Inductive(cert)),
            "dropped conjunct (kept only {keep} == 1) must be rejected"
        );
    }
}

/// [`straight_line_cert`] with the invariant after `y = 1` replaced by the
/// disjunction of `disjuncts`, in this order.
fn with_disjuncts_after_y(p: &Program, disjuncts: Vec<Formula>) -> Certificate {
    let (mut cert, _, after_y) = straight_line_cert(p);
    cert.invariants.insert(after_y, Formula::Or(disjuncts));
    Certificate::Inductive(cert)
}

fn conj(parts: &[Formula]) -> Formula {
    Formula::and(parts.to_vec())
}

/// Consecution tries first the target disjunct with the fewest conjuncts
/// that the source and `τ` do not state verbatim.  A decoy with *no* such
/// conjunct cannot exist without covering (each of its conjuncts is then
/// refuted verbatim), so the decoy here has at most two, against the
/// covering disjunct's four: it is empty (`x == 1 && x >= 5`), sorted
/// first although listed last, and does not cover the post of `y = 1`.
/// The audit must move on to the covering disjunct and stay valid.
#[test]
fn a_non_covering_decoy_sorted_first_does_not_change_the_verdict() {
    let p = straight_line();
    let (x, y) = (Term::var("x"), Term::var("y"));
    let one = || Term::int(1);
    let decoy = conj(&[
        Formula::eq(x.clone(), one()),
        Formula::eq(y.clone(), one()),
        Formula::ge(x.clone(), Term::int(5)),
    ]);
    let covering = conj(&[
        Formula::ge(x.clone(), one()),
        Formula::le(x, one()),
        Formula::ge(y.clone(), one()),
        Formula::le(y, one()),
    ]);
    assert!(checked(&p, &with_disjuncts_after_y(&p, vec![covering.clone(), decoy.clone()])));
    assert!(checked(&p, &with_disjuncts_after_y(&p, vec![decoy.clone(), covering])));
    // The decoy alone does not cover the post of `y = 1`.
    assert!(!checked(&p, &with_disjuncts_after_y(&p, vec![decoy])));
}

/// A conjunct dropped from a target disjunct is not restored by copies of
/// it elsewhere: `x == 1` stays verbatim in the source invariant (after
/// `x = 1`) and in a sibling disjunct, yet without it the first disjunct
/// reaches the error location, and the certificate is rejected.
#[test]
fn a_dropped_conjunct_carried_verbatim_elsewhere_is_still_rejected() {
    let p = straight_line();
    let (x, y) = (Term::var("x"), Term::var("y"));
    let x1 = Formula::eq(x.clone(), Term::int(1));
    let y1 = Formula::eq(y, Term::int(1));
    let sibling = conj(&[x1.clone(), y1.clone(), Formula::ge(x, Term::int(5))]);
    let intact = with_disjuncts_after_y(&p, vec![conj(&[x1, y1.clone()]), sibling.clone()]);
    assert!(checked(&p, &intact));
    let dropped = with_disjuncts_after_y(&p, vec![y1, sibling]);
    assert!(!checked(&p, &dropped), "dropping `x == 1` must be rejected");
}

/// Attaching a correct fact to the wrong location: claiming `x == 1 && y ==
/// 1` already after `x = 1` asserts knowledge the program has not
/// established, and consecution from the entry must fail.
#[test]
fn relocating_an_invariant_to_the_wrong_location_is_rejected() {
    let p = straight_line();
    let (mut cert, after_x, after_y) = straight_line_cert(&p);
    let swapped = cert.invariants[&after_y].clone();
    cert.invariants.insert(after_x, swapped);
    assert!(!checked(&p, &Certificate::Inductive(cert)));
}

/// An engine-produced inductive certificate (CEGAR on FORWARD) submits to
/// the same mutations: the tests above prove the checker rejects corrupted
/// *hand-built* maps, this one proves the real artifacts are just as
/// falsifiable.
#[test]
fn engine_produced_certificates_are_falsifiable_too() {
    let p = pathinv_ir::corpus::forward();
    let result = Verifier::path_invariants().verify(&p).unwrap();
    assert!(result.verdict.is_safe());
    let Some(Certificate::Inductive(cert)) = result.certificate else {
        panic!("expected an inductive certificate");
    };
    assert!(checked(&p, &Certificate::Inductive(cert.clone())));
    let mut unblocked = cert.clone();
    unblocked.invariants.insert(p.error(), Formula::True);
    assert!(!checked(&p, &Certificate::Inductive(unblocked)));
    let mut weakened = cert;
    weakened.invariants.insert(p.entry(), Formula::False);
    assert!(!checked(&p, &Certificate::Inductive(weakened)));
}

/// `assume(n == 3); assert(n != 3)` — unsafe, and the *only* input that
/// drives the trace into the error location is `n == 3`, so any input
/// perturbation must be rejected.
fn pinned_input_program() -> Program {
    parse_program(
        "proc bug(n: int) {
             assume(n == 3);
             assert(n != 3);
         }",
    )
    .unwrap()
}

fn bmc_trace(p: &Program) -> TraceCert {
    let result = BmcEngine::default().verify(p).unwrap();
    assert!(matches!(result.verdict, Verdict::Unsafe { .. }), "{:?}", result.verdict);
    match result.certificate {
        Some(Certificate::Trace(t)) => t,
        other => panic!("expected a trace certificate, got {other:?}"),
    }
}

#[test]
fn the_unmutated_trace_is_valid() {
    let p = pinned_input_program();
    let t = bmc_trace(&p);
    assert!(checked(&p, &Certificate::Trace(t)));
}

#[test]
fn truncated_and_emptied_traces_are_rejected() {
    let p = pinned_input_program();
    let mut truncated = bmc_trace(&p);
    truncated.steps.pop();
    assert!(!checked(&p, &Certificate::Trace(truncated)), "trace no longer ends at the error");
    let mut emptied = bmc_trace(&p);
    emptied.steps.clear();
    assert!(!checked(&p, &Certificate::Trace(emptied)), "empty trace proves nothing");
}

#[test]
fn non_contiguous_steps_are_rejected() {
    let p = pinned_input_program();
    let mut garbled = bmc_trace(&p);
    // Duplicate the first step: the sequence no longer forms a connected
    // path through the CFG.
    let first = garbled.steps[0];
    garbled.steps.insert(0, first);
    assert!(!checked(&p, &Certificate::Trace(garbled)));
}

/// Havoc results are part of the certificate: perturbing the recorded
/// nondeterministic choice replays into the `assume` and diverges.
#[test]
fn perturbed_havoc_values_are_rejected() {
    let p = parse_program(
        "proc h(u: int) {
             var x: int;
             havoc x;
             assume(x == 5);
             assert(x != 5);
         }",
    )
    .unwrap();
    let baseline = bmc_trace(&p);
    assert!(!baseline.havocs.is_empty(), "the havoc must record a choice");
    assert!(checked(&p, &Certificate::Trace(baseline.clone())));
    let mut perturbed = baseline.clone();
    perturbed.havocs[0] += 1;
    assert!(!checked(&p, &Certificate::Trace(perturbed)));
    let mut starved = baseline;
    starved.havocs.clear();
    assert!(!checked(&p, &Certificate::Trace(starved)), "missing havoc values cannot replay");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(32))]

    /// Any nonzero perturbation of the pinned input makes the recorded
    /// trace diverge at the `assume`, and the checker rejects it.
    #[test]
    fn perturbed_input_values_are_rejected(magnitude in 1i128..=64) {
        let p = pinned_input_program();
        for delta in [magnitude, -magnitude] {
            let mut t = bmc_trace(&p);
            let (&sym, &v) = t.inputs.iter().next().expect("trace must record inputs");
            t.inputs.insert(sym, v + delta);
            prop_assert!(!checked(&p, &Certificate::Trace(t)), "delta {delta}");
        }
    }
}
