//! Property test for irreducible-infeasible-subsystem (IIS) extraction:
//! on every random infeasible system, the subsystem named by
//! `IncrementalSimplex::minimal_infeasible_subsystem` must itself be
//! infeasible, and dropping *any* single row of it must make the remainder
//! satisfiable (irreducibility — the defining property of a minimal Farkas
//! conflict).  It must also be exactly the core of the textbook deletion
//! filter that re-solves `kept ∪ support[i+1..]` from scratch for each
//! support row `i`, at a cost of one warm check per support row.

use pathinv_ir::{Symbol, VarRef};
use pathinv_smt::{
    lra_solve, stats_snapshot, ConstrOp, IncrementalSimplex, LinConstraint, LinExpr, Rat,
};
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

proptest! {
    #![proptest_config(ProptestConfig::with_cases(192))]

    /// IIS extraction returns an infeasible, irreducible subsystem of every
    /// infeasible input system (satisfiable inputs are skipped — there is
    /// no conflict to extract): the reference filter's core, found with one
    /// warm check per support row and no cold build.
    #[test]
    fn iis_is_infeasible_and_irreducible(
        constraints in proptest::collection::vec(constraint_strategy(), 2..12)
    ) {
        let mut tab = IncrementalSimplex::new();
        for c in &constraints {
            tab.push_constraint(c).expect("small systems cannot overflow");
        }
        if tab.check().expect("small systems cannot overflow") {
            // Satisfiable: nothing to extract.
            prop_assert!(tab.conflict_core().is_none());
            return Ok(());
        }
        let support = tab.conflict_core().expect("failed check pending");
        let before = stats_snapshot();
        let core = tab.minimal_infeasible_subsystem().expect("failed check pending");
        let work = stats_snapshot().since(&before);
        prop_assert!(!core.is_empty());
        prop_assert_eq!(&core, &reference_deletion_filter(&constraints, &support));
        prop_assert_eq!(work.simplex_warm_checks, support.len() as u64);
        prop_assert_eq!(work.simplex_calls, 0);
        let sub: Vec<LinConstraint<VarRef>> =
            core.iter().map(|&i| constraints[i].clone()).collect();
        prop_assert!(
            !lra_solve(&sub).expect("small systems cannot overflow").is_sat(),
            "IIS must be infeasible: {core:?} of {constraints:?}"
        );
        for drop in 0..sub.len() {
            let mut reduced = sub.clone();
            reduced.remove(drop);
            prop_assert!(
                lra_solve(&reduced).expect("small systems cannot overflow").is_sat(),
                "dropping row {drop} of the IIS must make it satisfiable: \
                 {core:?} of {constraints:?}"
            );
        }
    }
}
