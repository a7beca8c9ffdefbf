//! Property test for conflict cores: after every failed check of a random
//! incremental session, `IncrementalSimplex::conflict_core` must already be
//! an irreducible infeasible subsystem (IIS, a minimal Farkas conflict).
//! The named rows must be infeasible, dropping *any* single one of them
//! must make the remainder satisfiable, and the core must equal the one the
//! textbook deletion filter returns when it re-solves `kept ∪ support[i+1..]`
//! from scratch for each support row `i` — so the filter has nothing left
//! to drop.
//!
//! Sessions interleave random pushes, `pop_to`s and checks before the final
//! batch of rows is pushed and checked, so cores are also read off tableaux
//! whose basis was pivoted by earlier checks and restored by pops.

use pathinv_ir::{Symbol, VarRef};
use pathinv_smt::{lra_solve, ConstrOp, IncrementalSimplex, LinConstraint, LinExpr, Rat};
use proptest::prelude::*;

const VARS: [&str; 3] = ["x", "y", "z"];

fn vref(name: &str) -> VarRef {
    VarRef::cur(Symbol::intern(name))
}

/// A random normalized constraint `c1*x + c2*y + c3*z + d ⋈ 0`, biased
/// toward small coefficients so infeasible combinations are common.
fn constraint_strategy() -> impl Strategy<Value = LinConstraint<VarRef>> {
    let coeff = -2i128..=2;
    let op = prop_oneof![Just(ConstrOp::Le), Just(ConstrOp::Lt), Just(ConstrOp::Eq)];
    (coeff.clone(), coeff.clone(), coeff, -4i128..=4, op).prop_map(|(a, b, c, d, op)| {
        let mut e = LinExpr::constant(Rat::int(d));
        for (name, k) in VARS.iter().zip([a, b, c]) {
            e.add_term(vref(name), Rat::int(k)).expect("small coefficients cannot overflow");
        }
        LinConstraint::new(e, op)
    })
}

/// One step of the random session run before the final batch.
#[derive(Clone, Debug)]
enum Op {
    Push(LinConstraint<VarRef>),
    Check,
    /// Pops to this checkpoint, clamped to the current one.
    PopTo(usize),
}

fn op_strategy() -> impl Strategy<Value = Op> {
    prop_oneof![
        constraint_strategy().prop_map(Op::Push),
        Just(Op::Check),
        (0usize..8).prop_map(Op::PopTo),
    ]
}

/// The reference deletion filter: scans the certificate support in
/// ascending order and drops a row when the kept rows plus the rows after it
/// are still infeasible, each probe a fresh solve.
fn reference_deletion_filter(
    constraints: &[LinConstraint<VarRef>],
    support: &[usize],
) -> Vec<usize> {
    let mut kept: Vec<usize> = Vec::new();
    for (i, &candidate) in support.iter().enumerate() {
        let probe: Vec<LinConstraint<VarRef>> =
            kept.iter().chain(&support[i + 1..]).map(|&j| constraints[j].clone()).collect();
        if lra_solve(&probe).expect("small systems cannot overflow").is_sat() {
            kept.push(candidate);
        }
    }
    kept
}

/// Checks the tableau and, when the check fails, that its conflict core is
/// an IIS of the active constraints.
fn check_and_audit_core(tab: &mut IncrementalSimplex<VarRef>) -> Result<(), TestCaseError> {
    let active = tab.active_constraints();
    if tab.check().expect("small systems cannot overflow") {
        prop_assert!(tab.conflict_core().is_none());
        return Ok(());
    }
    let core = tab.conflict_core().expect("failed check pending");
    prop_assert!(!core.is_empty());
    prop_assert_eq!(&core, &reference_deletion_filter(&active, &core));
    let sub: Vec<LinConstraint<VarRef>> = core.iter().map(|&i| active[i].clone()).collect();
    prop_assert!(
        !lra_solve(&sub).expect("small systems cannot overflow").is_sat(),
        "the core must be infeasible: {core:?} of {active:?}"
    );
    for drop in 0..sub.len() {
        let mut reduced = sub.clone();
        reduced.remove(drop);
        prop_assert!(
            lra_solve(&reduced).expect("small systems cannot overflow").is_sat(),
            "dropping row {drop} of the core must make it satisfiable: {core:?} of {active:?}"
        );
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// Every failed check's conflict core is infeasible, irreducible, and
    /// exactly the reference deletion filter's core (satisfiable checks
    /// have no core to audit).
    #[test]
    fn iis_is_infeasible_and_irreducible(
        session in proptest::collection::vec(op_strategy(), 0..10),
        constraints in proptest::collection::vec(constraint_strategy(), 2..12)
    ) {
        let mut tab = IncrementalSimplex::new();
        for op in session {
            match op {
                Op::Push(c) => tab.push_constraint(&c).expect("small systems cannot overflow"),
                Op::Check => check_and_audit_core(&mut tab)?,
                Op::PopTo(n) => {
                    tab.pop_to(n.min(tab.checkpoint())).expect("small systems cannot overflow");
                }
            }
        }
        for c in &constraints {
            tab.push_constraint(c).expect("small systems cannot overflow");
        }
        check_and_audit_core(&mut tab)?;
    }
}
