//! Validation of inductive invariant certificates.
//!
//! An [`InvariantCert`] proves safety when three obligations hold, each
//! discharged here by Fourier–Motzkin refutation ([`crate::refute`]):
//!
//! 1. **Initiation** — the entry invariant covers every initial state.
//!    Initial states are unconstrained (the engines quantify over all
//!    initial values), so the entry invariant must be *valid*: its negation
//!    is refuted.
//! 2. **Consecution** — for every CFG transition `ℓ --τ--> ℓ'`, the formula
//!    `Inv(ℓ) ∧ enc(τ) ∧ ¬Inv(ℓ')'` is refuted, where `enc` is the same SSA
//!    encoding ([`pathinv_ir::ssa::encode_action`]) that defines the
//!    concrete transition semantics.
//! 3. **Error exclusion** — the invariant at the error location is refuted.
//!
//! Together these give the standard inductive-safety argument: the invariant
//! holds initially, is preserved by every step, and rules out the error
//! location — so no execution reaches it.

use crate::certificate::{CertVerdict, InvariantCert};
use crate::refute::{CheckLimits, Premises, Refutation, Refuter};
use pathinv_ir::ssa::{encode_action, rename_to_versions, VersionMap};
use pathinv_ir::{Formula, Program};
use std::collections::BTreeMap;

/// Checks the three inductive-invariant obligations for `cert` on
/// `program`.
pub fn check_inductive(
    program: &Program,
    cert: &InvariantCert,
    limits: &CheckLimits,
) -> CertVerdict {
    for loc in program.locs() {
        if !cert.invariants.contains_key(&loc) {
            return CertVerdict::Invalid {
                reason: format!("invariant map does not cover location {}", program.loc_label(loc)),
            };
        }
    }
    let mut refuter = Refuter::new(limits);

    // Initiation: the entry invariant must hold in every (unconstrained)
    // initial state, i.e. its negation must be unsatisfiable.
    let entry_inv = &cert.invariants[&program.entry()];
    match refuter.refute(&entry_inv.clone().not()) {
        Refutation::Refuted => {}
        Refutation::NotRefuted => {
            return CertVerdict::Invalid {
                reason: format!(
                    "initiation: entry invariant at {} is not valid",
                    program.loc_label(program.entry())
                ),
            }
        }
        Refutation::Budget => return budget("initiation"),
    }

    // Error exclusion: the error invariant admits no state.
    let error_inv = &cert.invariants[&program.error()];
    match refuter.refute(error_inv) {
        Refutation::Refuted => {}
        Refutation::NotRefuted => {
            return CertVerdict::Invalid {
                reason: format!(
                    "error exclusion: invariant at {} is satisfiable",
                    program.loc_label(program.error())
                ),
            }
        }
        Refutation::Budget => return budget("error exclusion"),
    }

    // Consecution, one obligation per CFG transition.
    for (idx, t) in program.transitions().iter().enumerate() {
        let from_inv = &cert.invariants[&t.from];
        if *from_inv == Formula::False {
            // An unreachable source discharges the edge trivially.
            continue;
        }
        let mut versions: VersionMap = program.vars().iter().map(|d| (d.sym, 0)).collect();
        let pre = rename_to_versions(from_inv, &versions);
        let tau = encode_action(&t.action, &mut versions);
        let post = rename_to_versions(&cert.invariants[&t.to], &versions);

        match consecution(&mut refuter, &pre, &tau, &post) {
            Refutation::Refuted => {}
            Refutation::NotRefuted => {
                return CertVerdict::Invalid {
                    reason: format!(
                        "consecution fails on transition {idx} ({} -> {})",
                        program.loc_label(t.from),
                        program.loc_label(t.to)
                    ),
                }
            }
            Refutation::Budget => return budget("consecution"),
        }
    }
    CertVerdict::Valid
}

/// Refutes `pre ∧ tau ∧ ¬post`.
///
/// Both sides may be disjunctions (CEGAR emits one disjunct per abstract
/// reachability node).  `pre ∧ tau ∧ ¬post` is unsatisfiable iff it is for
/// every *source* disjunct separately, so the query is split there first —
/// each split is strictly easier and the split is refutation-preserving.
fn consecution(refuter: &mut Refuter, pre: &Formula, tau: &Formula, post: &Formula) -> Refutation {
    let sources: &[Formula] = match pre {
        Formula::Or(parts) => parts,
        single => std::slice::from_ref(single),
    };
    for source in sources {
        match consecution_from(refuter, source, tau, post) {
            Refutation::Refuted => {}
            other => return other,
        }
    }
    Refutation::Refuted
}

/// Refutes `source ∧ tau ∧ ¬post` for one (conjunctive) source disjunct.
///
/// When the target invariant is a disjunction, the abstract post of a source
/// state is covered by a *single* target disjunct (the ART's coverage
/// structure), so coverage is first tried disjunct by disjunct, in order.  A
/// disjunct `c₁ ∧ … ∧ cₖ` covers the source iff every `source ∧ tau ∧ ¬cᵢ`
/// is refuted (exact: the negated conjunction is the disjunction of the
/// negated conjuncts), and the disjuncts share most of their conjuncts, so
/// each distinct conjunct is refuted at most once per source and transition.
/// Only a source that no single disjunct covers falls back to the general
/// (branching) refutation.
///
/// A target conjunct that one conjunct of `source ∧ tau` already entails
/// ([`Premises`]) is refuted without a query, and so is a conjunctive
/// target all of whose conjuncts are.
fn consecution_from(
    refuter: &mut Refuter,
    source: &Formula,
    tau: &Formula,
    post: &Formula,
) -> Refutation {
    let premises = Premises::new(&[source, tau]);
    if let Formula::Or(parts) = post {
        let mut known: BTreeMap<Formula, Refutation> = BTreeMap::new();
        for part in parts {
            let mut verdict = Refutation::Refuted;
            for c in part.conjuncts() {
                let negated = c.clone().not();
                verdict = *known.entry(c).or_insert_with_key(|c| {
                    if premises.entails(c) {
                        return Refutation::Refuted;
                    }
                    refuter.refute(&Formula::and(vec![source.clone(), tau.clone(), negated]))
                });
                if verdict != Refutation::Refuted {
                    break;
                }
            }
            if verdict != Refutation::NotRefuted {
                return verdict;
            }
        }
    } else if post.conjuncts().iter().all(|c| premises.entails(c)) {
        return Refutation::Refuted;
    }
    let query = Formula::and(vec![source.clone(), tau.clone(), post.clone().not()]);
    refuter.refute(&query)
}

fn budget(stage: &str) -> CertVerdict {
    CertVerdict::Unsupported { reason: format!("{stage}: refutation budget exhausted") }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::certificate::CertVerdict;
    use pathinv_ir::{parse_program, Loc, Term};

    /// `proc count(n) { i = 0; while (i < n) i = i + 1; assert(i >= n) }`
    /// with the textbook invariant `i <= n` at the loop head... the parsed
    /// CFG locations are discovered by probing, so tests use a hand-built
    /// map over `program.locs()`.
    fn counter() -> Program {
        parse_program(
            "proc ok(n: int) {
                 var i: int;
                 assume(n >= 0);
                 i = 0;
                 while (i < n) { i = i + 1; }
                 assert(i <= n);
             }",
        )
        .unwrap()
    }

    /// The trivial-but-honest invariant map: `true` everywhere except
    /// `false` at the error location is NOT inductive for `counter` (the
    /// assert edge is reachable from `true`), so the checker must reject it.
    #[test]
    fn rejects_trivial_map_that_ignores_the_guard() {
        let p = counter();
        let mut invariants = BTreeMap::new();
        for loc in p.locs() {
            invariants.insert(loc, if loc == p.error() { Formula::False } else { Formula::True });
        }
        let v = check_inductive(&p, &InvariantCert { invariants }, &CheckLimits::default());
        assert!(matches!(v, CertVerdict::Invalid { .. }), "got {v:?}");
    }

    #[test]
    fn rejects_incomplete_map() {
        let p = counter();
        let invariants = BTreeMap::new();
        let v = check_inductive(&p, &InvariantCert { invariants }, &CheckLimits::default());
        assert!(matches!(v, CertVerdict::Invalid { reason } if reason.contains("cover")));
    }

    #[test]
    fn accepts_a_genuinely_inductive_map_on_a_straight_line_program() {
        // entry --[x := 1]--> l1 --[x != 1]--> error
        let p = parse_program("proc s(x: int) { x = 1; assert(x == 1); }").unwrap();
        // Reconstruct the invariant by hand: entry `true`; after the
        // assignment `x = 1`; error `false`.  Locations in parsed programs
        // are entry=0 and error=last is not guaranteed, so derive from the
        // CFG: the target of the assignment transition gets `x = 1`.
        let mut invariants: BTreeMap<Loc, Formula> = BTreeMap::new();
        for loc in p.locs() {
            invariants.insert(loc, Formula::False);
        }
        invariants.insert(p.entry(), Formula::True);
        // Propagate: any location reachable from entry through the
        // assignment holds x = 1 (this test's program has a linear CFG).
        let x_is_1 = Formula::eq(Term::var("x"), Term::int(1));
        let mut frontier = vec![p.entry()];
        while let Some(l) = frontier.pop() {
            for &tid in p.outgoing(l) {
                let t = p.transition(tid);
                if t.to != p.error() && invariants[&t.to] == Formula::False {
                    invariants.insert(t.to, x_is_1.clone());
                    frontier.push(t.to);
                }
            }
        }
        let v = check_inductive(&p, &InvariantCert { invariants }, &CheckLimits::default());
        assert_eq!(v, CertVerdict::Valid);
    }
}
