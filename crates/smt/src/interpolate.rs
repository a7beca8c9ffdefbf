//! Craig interpolation for linear rational arithmetic, derived from Farkas
//! certificates.
//!
//! This is the predicate-discovery engine of the *baseline* refiner (the
//! SLAM/BLAST-style scheme the paper argues against in §2.1): from an
//! infeasible path formula it produces one interpolant per path position,
//! whose atoms are added as predicates.  On programs whose proof needs a loop
//! invariant the baseline keeps producing predicates like `i = 0`, `i = 1`,
//! `i = 2`, ... — exactly the divergence the experiments reproduce.
//!
//! The construction is standard: if `A ∧ B` is infeasible with Farkas
//! multipliers `λ`, then `Σ_{c ∈ A} λ_c·c` (as a `≤`/`<` fact) is an
//! interpolant for `(A, B)`.  Sequence interpolants for a partition
//! `G_1, ..., G_n` are obtained by cutting the same certificate at every
//! position, which makes them inductive by construction.

use crate::error::{SmtError, SmtResult};
use crate::linexpr::{ConstrOp, LinConstraint, LinExpr};
use crate::rat::Rat;
use crate::simplex::{solve, FarkasCertificate, IncrementalSimplex, LpResult};
use pathinv_ir::{Formula, VarRef};

/// Computes the interpolant for the partition of `constraints` into the
/// prefix `constraints[..cut]` (the `A` part) and the suffix (the `B` part),
/// given a Farkas certificate for the whole system.
///
/// The result is implied by the prefix, inconsistent with the suffix, and —
/// by construction of the Farkas combination — only mentions variables
/// common to both parts (or a constant truth value).
pub fn interpolant_from_certificate(
    constraints: &[LinConstraint<VarRef>],
    certificate: &FarkasCertificate,
    cut: usize,
) -> SmtResult<Formula> {
    let mut combo: LinExpr<VarRef> = LinExpr::zero();
    let mut strict = false;
    let mut any = false;
    for (k, c) in constraints.iter().enumerate().take(cut) {
        let lambda = certificate.multipliers.get(k).copied().unwrap_or(Rat::ZERO);
        if lambda.is_zero() {
            continue;
        }
        any = true;
        if c.op == ConstrOp::Lt && lambda.is_positive() {
            strict = true;
        }
        combo = combo.add(&c.expr.scale(lambda)?)?;
    }
    if !any {
        return Ok(Formula::True);
    }
    if combo.is_constant() {
        // The prefix alone is contradictory (constant > 0) or contributes
        // nothing (constant <= 0 is a tautological fact).
        let k = combo.constant_part();
        if k.is_positive() || (strict && !k.is_negative()) {
            return Ok(Formula::False);
        }
        return Ok(Formula::True);
    }
    let op = if strict { ConstrOp::Lt } else { ConstrOp::Le };
    LinConstraint::new(combo, op).to_formula()
}

/// Computes sequence interpolants for the groups `groups[0], ..., groups[n-1]`
/// of constraints (one group per path position).
///
/// Returns `None` if the conjunction of all groups is satisfiable.  Otherwise
/// returns `n - 1` formulas `I_1, ..., I_{n-1}` such that `I_k` is implied by
/// `groups[..k]`, is inconsistent with `groups[k..]`, and
/// `I_k ∧ groups[k] ⊨ I_{k+1}`.
pub fn sequence_interpolants(
    groups: &[Vec<LinConstraint<VarRef>>],
) -> SmtResult<Option<Vec<Formula>>> {
    crate::stats::record_interpolant_call();
    let flat: Vec<LinConstraint<VarRef>> = groups.iter().flatten().cloned().collect();
    let certificate = match solve(&flat)? {
        LpResult::Sat(_) => return Ok(None),
        LpResult::Unsat(c) => c,
    };
    let mut out = Vec::new();
    let mut cut = 0;
    for g in groups.iter().take(groups.len().saturating_sub(1)) {
        cut += g.len();
        out.push(interpolant_from_certificate(&flat, &certificate, cut)?);
    }
    Ok(Some(out))
}

/// Incremental sequence interpolation over a fixed group skeleton.
///
/// The baseline refiner splits every disequality atom of a path formula
/// into its two strict cases and interpolates each unsatisfiable
/// combination — `2^k` queries that share the entire group skeleton and
/// differ only in `k` extra strict rows.  [`sequence_interpolants`] would
/// rebuild and cold-solve the full system per combination; this type pushes
/// the skeleton into an [`IncrementalSimplex`] once and answers every
/// combination with a checkpointed push / warm re-check / pop cycle, so a
/// whole split family costs *zero* cold simplex solves.
///
/// Interpolants are derived from the warm check's Farkas certificate with
/// the extra rows re-ordered into their home groups, exactly as if the
/// combined system had been interpolated flat.
pub struct SequenceInterpolator {
    tableau: IncrementalSimplex<VarRef>,
    groups: Vec<Vec<LinConstraint<VarRef>>>,
}

impl SequenceInterpolator {
    /// Builds the interpolator by pushing the group skeleton (no
    /// feasibility check happens yet).
    ///
    /// # Errors
    ///
    /// Propagates arithmetic overflow.
    pub fn new(groups: Vec<Vec<LinConstraint<VarRef>>>) -> SmtResult<SequenceInterpolator> {
        let mut tableau = IncrementalSimplex::new();
        for c in groups.iter().flatten() {
            tableau.push_constraint(c)?;
        }
        Ok(SequenceInterpolator { tableau, groups })
    }

    /// Sequence interpolants for the skeleton with each `(group, row)` extra
    /// appended to its group, or `None` when the combined system is
    /// satisfiable.  Counted as one interpolant computation; the
    /// feasibility decision is a warm incremental re-check.
    ///
    /// # Errors
    ///
    /// Returns an error for an out-of-range group index; propagates
    /// arithmetic overflow.
    pub fn interpolants(
        &mut self,
        extras: &[(usize, LinConstraint<VarRef>)],
    ) -> SmtResult<Option<Vec<Formula>>> {
        crate::stats::record_interpolant_call();
        if let Some((g, _)) = extras.iter().find(|(g, _)| *g >= self.groups.len()) {
            return Err(SmtError::unsupported(format!(
                "extra interpolation row targets group {g} of {}",
                self.groups.len()
            )));
        }
        let checkpoint = self.tableau.checkpoint();
        for (_, c) in extras {
            self.tableau.push_constraint(c)?;
        }
        if self.tableau.check()? {
            self.tableau.pop_to(checkpoint)?;
            return Ok(None);
        }
        let certificate = self.tableau.take_certificate();
        self.tableau.pop_to(checkpoint)?;

        // Re-order into the virtual flat system: group 0's skeleton rows,
        // then group 0's extras (in `extras` order), then group 1, ...  The
        // push order was skeleton-flat followed by all extras, so permute
        // the certificate multipliers accordingly.
        let base_len: usize = self.groups.iter().map(Vec::len).sum();
        let mut flat: Vec<LinConstraint<VarRef>> = Vec::with_capacity(base_len + extras.len());
        let mut multipliers: Vec<Rat> = Vec::with_capacity(base_len + extras.len());
        let mut cuts: Vec<usize> = Vec::new();
        let mut base_pos = 0;
        for (g, group) in self.groups.iter().enumerate() {
            for c in group {
                flat.push(c.clone());
                multipliers.push(certificate.multipliers[base_pos]);
                base_pos += 1;
            }
            for (e, (eg, c)) in extras.iter().enumerate() {
                if *eg == g {
                    flat.push(c.clone());
                    multipliers.push(certificate.multipliers[base_len + e]);
                }
            }
            cuts.push(flat.len());
        }
        let virtual_cert = FarkasCertificate { multipliers };
        debug_assert!(
            virtual_cert.verify(&flat)?,
            "re-ordered interpolation certificate must stay valid"
        );
        let mut out = Vec::new();
        for &cut in cuts.iter().take(cuts.len().saturating_sub(1)) {
            out.push(interpolant_from_certificate(&flat, &virtual_cert, cut)?);
        }
        Ok(Some(out))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::simplex;
    use pathinv_ir::{Formula as F, Term};

    fn c(f: F) -> LinConstraint<VarRef> {
        LinConstraint::from_atom(&f.atoms()[0]).unwrap().tighten_for_integers().unwrap()
    }

    /// Whether `a` entails the single constraint `goal` over the rationals:
    /// `a ∧ ¬goal` is infeasible for every disjunct of the negation.
    fn lra_entails(a: &[LinConstraint<VarRef>], goal: &LinConstraint<VarRef>) -> bool {
        let neg = goal.expr.scale(Rat::MINUS_ONE).unwrap();
        let negations = match goal.op {
            ConstrOp::Le => vec![LinConstraint::new(neg, ConstrOp::Lt)],
            ConstrOp::Lt => vec![LinConstraint::new(neg, ConstrOp::Le)],
            ConstrOp::Eq => vec![
                LinConstraint::new(goal.expr.clone(), ConstrOp::Lt),
                LinConstraint::new(neg, ConstrOp::Lt),
            ],
        };
        negations.into_iter().all(|n| {
            let mut cs = a.to_vec();
            cs.push(n);
            !simplex::solve(&cs).unwrap().is_sat()
        })
    }

    /// Checks the defining properties of an interpolant for (A, B).
    fn check_interpolant(a: &[LinConstraint<VarRef>], b: &[LinConstraint<VarRef>], itp: &F) {
        match itp {
            F::True => {
                // B alone must be unsatisfiable.
                assert!(!simplex::solve(b).unwrap().is_sat(), "True interpolant needs unsat B");
            }
            F::False => {
                assert!(!simplex::solve(a).unwrap().is_sat(), "False interpolant needs unsat A");
            }
            other => {
                let ic = c(other.clone());
                // A implies the interpolant.
                assert!(lra_entails(a, &ic), "A must imply the interpolant {other}");
                // Interpolant together with B is unsatisfiable.
                let mut bs = b.to_vec();
                bs.push(ic);
                assert!(
                    !simplex::solve(&bs).unwrap().is_sat(),
                    "interpolant {other} must refute B"
                );
            }
        }
    }

    #[test]
    fn simple_two_part_interpolant() {
        // A: x <= y, y <= 3    B: x >= 5
        let a =
            vec![c(F::le(Term::var("x"), Term::var("y"))), c(F::le(Term::var("y"), Term::int(3)))];
        let b = vec![c(F::ge(Term::var("x"), Term::int(5)))];
        let groups = vec![a.clone(), b.clone()];
        let itps = sequence_interpolants(&groups).unwrap().unwrap();
        assert_eq!(itps.len(), 1);
        check_interpolant(&a, &b, &itps[0]);
        // It should mention only the shared variable x.
        assert!(itps[0].var_names().iter().all(|v| v.as_str() == "x"));
    }

    #[test]
    fn satisfiable_system_gives_none() {
        let groups = vec![
            vec![c(F::le(Term::var("x"), Term::int(3)))],
            vec![c(F::ge(Term::var("x"), Term::int(0)))],
        ];
        assert!(sequence_interpolants(&groups).unwrap().is_none());
    }

    #[test]
    fn sequence_interpolants_are_inductive() {
        // Counter path: i0 = 0; i1 = i0 + 1; i2 = i1 + 1; i2 < 1 — infeasible.
        let groups = vec![
            vec![c(F::eq(Term::ivar("i", 0), Term::int(0)))],
            vec![c(F::eq(Term::ivar("i", 1), Term::ivar("i", 0).add(Term::int(1))))],
            vec![c(F::eq(Term::ivar("i", 2), Term::ivar("i", 1).add(Term::int(1))))],
            vec![c(F::lt(Term::ivar("i", 2), Term::int(1)))],
        ];
        let itps = sequence_interpolants(&groups).unwrap().unwrap();
        assert_eq!(itps.len(), 3);
        for (k, itp) in itps.iter().enumerate() {
            let a: Vec<_> = groups[..=k].iter().flatten().cloned().collect();
            let b: Vec<_> = groups[k + 1..].iter().flatten().cloned().collect();
            check_interpolant(&a, &b, itp);
        }
    }

    #[test]
    fn incremental_interpolator_matches_flat_interpolation_semantics() {
        // The counter path with the final bound supplied as a per-query
        // extra strict row, both directions (the disequality-split shape).
        let groups = vec![
            vec![c(F::eq(Term::ivar("i", 0), Term::int(0)))],
            vec![c(F::eq(Term::ivar("i", 1), Term::ivar("i", 0).add(Term::int(1))))],
            vec![c(F::eq(Term::ivar("i", 2), Term::ivar("i", 1).add(Term::int(1))))],
            vec![],
        ];
        let cold_before = crate::stats::snapshot();
        let mut itp = SequenceInterpolator::new(groups.clone()).unwrap();
        // i2 < 1 in group 3: infeasible; interpolants must satisfy the
        // defining properties at every cut.
        let low = (3usize, c(F::lt(Term::ivar("i", 2), Term::int(1))));
        let out = itp.interpolants(std::slice::from_ref(&low)).unwrap().unwrap();
        // i2 > 1 in group 3: satisfiable; and the tableau survives for the
        // next query (the pop restored the skeleton).
        let high = (3usize, c(F::gt(Term::ivar("i", 2), Term::int(1))));
        assert!(itp.interpolants(&[high]).unwrap().is_none());
        let again = itp.interpolants(std::slice::from_ref(&low)).unwrap().unwrap();
        assert_eq!(again.len(), 3);
        // The whole family cost zero cold simplex solves.
        let delta = crate::stats::snapshot().since(&cold_before);
        assert_eq!(delta.simplex_calls, 0, "incremental interpolation must not cold-solve");
        assert!(delta.simplex_warm_checks >= 3);
        assert_eq!(delta.interpolant_calls, 3);
        assert_eq!(out.len(), 3);
        for (k, f) in out.iter().enumerate() {
            let mut a: Vec<_> = groups[..=k].iter().flatten().cloned().collect();
            let mut b: Vec<_> = groups[k + 1..].iter().flatten().cloned().collect();
            if low.0 <= k {
                a.push(low.1.clone());
            } else {
                b.push(low.1.clone());
            }
            check_interpolant(&a, &b, f);
        }
    }

    #[test]
    fn incremental_interpolator_rejects_bad_group_index() {
        let groups = vec![vec![c(F::le(Term::var("x"), Term::int(3)))]];
        let mut itp = SequenceInterpolator::new(groups).unwrap();
        let extra = (4usize, c(F::ge(Term::var("x"), Term::int(5))));
        assert!(itp.interpolants(&[extra]).is_err());
    }

    #[test]
    fn interpolant_can_be_constant_false() {
        // A is already contradictory.
        let groups = vec![
            vec![c(F::le(Term::var("x"), Term::int(0))), c(F::ge(Term::var("x"), Term::int(1)))],
            vec![c(F::ge(Term::var("y"), Term::int(0)))],
        ];
        let itps = sequence_interpolants(&groups).unwrap().unwrap();
        assert_eq!(itps[0], F::False);
    }

    #[test]
    fn interpolant_can_be_constant_true() {
        // All the contradiction lives in B.
        let groups = vec![
            vec![c(F::ge(Term::var("y"), Term::int(0)))],
            vec![c(F::le(Term::var("x"), Term::int(0))), c(F::ge(Term::var("x"), Term::int(1)))],
        ];
        let itps = sequence_interpolants(&groups).unwrap().unwrap();
        check_interpolant(&groups[0], &groups[1], &itps[0]);
    }
}
