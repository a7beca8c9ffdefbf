//! Integration tests spanning all crates: the paper's three motivating
//! examples, the §3 worked example, and the falsification discussion of §6,
//! exercised through the public facade API.

use path_invariants::{
    corpus, parse_program, path_program, Path, PathInvariantGenerator, PathInvariantRefiner,
    Solver, Verdict, Verifier,
};

/// FORWARD (§2.1): the paper's algorithm proves it; the finite-path baseline
/// keeps unrolling the loop and does not converge within a generous bound.
#[test]
fn forward_path_invariants_prove_baseline_diverges() {
    let program = corpus::forward();
    let proved = Verifier::path_invariants().verify(&program).unwrap();
    assert!(proved.verdict.is_safe(), "{:?}", proved.verdict);

    let diverged = Verifier::path_predicates(4).verify(&program).unwrap();
    assert!(
        matches!(diverged.verdict, Verdict::Unknown { .. }),
        "the baseline must not settle FORWARD within 4 refinements: {:?}",
        diverged.verdict
    );
}

/// INITCHECK (§2.2): universally quantified invariants justify the assertion.
///
/// The quantified synthesis is exercised on the INITCHECK program itself (its
/// two loops are exactly the loops of the Figure 2(c) path program) *and* on
/// the path program built from the Figure 2(b) counterexample — whose main
/// chain additionally contains one unrolled iteration of each loop.  The
/// latter was a known limitation of the 12-wide enumerative frontier (the
/// generalising branch fell off the beam at the loop-exit range conditions
/// and the refiner fell back to finite-path predicates); the conflict-driven
/// 24-wide search of PR 5 synthesises it, which is what makes full CEGAR
/// prove INITCHECK safe.
#[test]
fn initcheck_quantified_path_invariants() {
    let program = corpus::initcheck();
    let cex = Path::new(&program, corpus::initcheck_counterexample(&program)).unwrap();

    // The counterexample is spurious.
    let solver = Solver::new();
    let pf = pathinv_ir::path_formula(&program, &cex);
    assert!(!solver.is_sat(&pf.conjunction()).unwrap());

    // The path program has the two loops of Figure 2(c).
    let pp = path_program(&program, &cex).unwrap();
    assert_eq!(pp.hatted_blocks.len(), 2);

    // Quantified invariant synthesis for the two-loop array program, with
    // ranges that grow with the loop variable (the §5 shape) rather than
    // degenerate constant ranges.
    let generated = PathInvariantGenerator::new().generate(&program).unwrap();
    assert!(
        generated.cutpoint_invariants.values().all(|f| f.has_quantifier()),
        "expected quantified invariants, got {:?}",
        generated.cutpoint_invariants
    );

    // The path-program synthesis succeeds too: refinement is primary (no
    // finite-path fallback) and tracks quantified predicates.
    let refiner = PathInvariantRefiner::new();
    let refinement = path_invariants::Refiner::refine(&refiner, &program, &cex).unwrap();
    assert_eq!(refinement.fallback, None, "the Figure 2(b) path program must synthesise");
    assert!(
        refinement.predicates.values().flatten().any(pathinv_ir::Formula::has_quantifier),
        "refinement must track a quantified predicate"
    );

    // And the end-to-end consequence: full CEGAR proves INITCHECK.
    let result = path_invariants::Verifier::path_invariants().verify(&program).unwrap();
    assert!(result.verdict.is_safe(), "INITCHECK must be proved safe: {:?}", result.verdict);
}

/// PARTITION (§2.3): the two branch-specific path programs produce the two
/// conjuncts of the global invariant, one at a time.
#[test]
fn partition_lazy_disjunctive_reasoning() {
    let program = corpus::partition();
    let t = |from: &str, to: &str| corpus::find_transition(&program, from, to);
    let cex_ge = Path::new(
        &program,
        vec![
            t("L1", "L2"),
            t("L2", "L3"),
            t("L3", "L4"),
            t("L4", "L4b"),
            t("L4b", "L2b"),
            t("L2b", "L2"),
            t("L2", "L6pre"),
            t("L6pre", "L6"),
            t("L6", "L6a"),
            t("L6a", "ERR"),
        ],
    )
    .unwrap();
    let pp = path_program(&program, &cex_ge).unwrap();
    // The path program only contains the then-branch of the partition loop.
    assert!(
        !pp.program.transitions().iter().any(|t| t.action.to_string().contains("lt[")),
        "the then-branch path program must not write `lt`"
    );
    match PathInvariantGenerator::new().generate(&pp.program) {
        Ok(generated) => {
            let rendered: Vec<String> =
                generated.cutpoint_invariants.values().map(|f| f.to_string()).collect();
            assert!(
                rendered.iter().any(|s| s.contains("ge[k]")),
                "the then-branch path program must yield an invariant about `ge`: {rendered:?}"
            );
        }
        // Known limitation of the bounded multiplier search / rational LP on
        // this path program (see EXPERIMENTS.md): the engine falls back to
        // finite-path refinement in that case rather than failing.
        Err(e) => {
            let msg = e.to_string();
            assert!(
                msg.contains("no invariant") || msg.contains("fractional"),
                "unexpected error: {msg}"
            );
        }
    }
}

/// Figure 4 / §3: the path-program construction introduces the two nested
/// blocks at the positions the paper describes.
#[test]
fn figure4_worked_example_structure() {
    let program = corpus::figure4_program();
    let path = Path::new(&program, corpus::figure4_path(&program)).unwrap();
    let pp = path_program(&program, &path).unwrap();
    let positions: Vec<usize> = pp.hatted_blocks.iter().map(|(i, _)| *i).collect();
    assert_eq!(positions, vec![3, 6]);
    assert_eq!(pp.program.transitions().len(), 13);
}

/// §6: the buggy INITCHECK variant is falsified (with a small loop bound so
/// the concrete counterexample stays short).
#[test]
fn buggy_initcheck_is_falsified() {
    let program = parse_program(
        "proc buggy_init(a: int[]) {
            var i: int;
            for (i = 0; i < 2; i++) { a[i] = 1; }
            assert(a[0] == 0);
        }",
    )
    .unwrap();
    let result = Verifier::path_invariants().verify(&program).unwrap();
    assert!(result.verdict.is_unsafe(), "{:?}", result.verdict);
}

/// The scalar members of the benchmark suite are proved by the paper's
/// algorithm.
#[test]
fn scalar_suite_members_are_proved() {
    for (entry, program) in corpus::suite_programs() {
        if entry.needs_quantifiers || !entry.safe {
            continue;
        }
        let result = Verifier::path_invariants().verify(&program).unwrap();
        assert!(
            result.verdict.is_safe(),
            "suite program {} must be proved, got {:?}",
            entry.name,
            result.verdict
        );
    }
}

/// The buggy members of the suite are reported as genuine bugs, not proofs.
#[test]
fn buggy_suite_members_are_not_proved() {
    for (entry, program) in corpus::suite_programs() {
        if entry.safe {
            continue;
        }
        // A modest refinement bound keeps the unsafe cases cheap; the
        // verdict must never be Safe.
        let verifier = Verifier::new(path_invariants::CegarConfig {
            refiner: path_invariants::RefinerKind::PathInvariants,
            max_refinements: 6,
            ..path_invariants::CegarConfig::default()
        });
        let result = verifier.verify(&program).unwrap();
        assert!(!result.verdict.is_safe(), "{}: {:?}", entry.name, result.verdict);
    }
}
