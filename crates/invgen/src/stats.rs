//! Thread-local synthesis counters, mirroring `pathinv_smt::stats`.
//!
//! The conflict-driven frontier search ([`synth`](crate::synth)) and the
//! cross-refinement synthesis memo (in `pathinv-core`) do work that the
//! solver-call counters cannot see: branches skipped because a learned
//! conflict core covers them never reach the simplex at all, and memoized
//! syntheses never run the search.  These counters make that invisible work
//! measurable, deterministically: they depend only on the task and the
//! configuration, never on the machine or the worker count (the batch
//! harness pins each task to one worker thread and measures with
//! [`snapshot`] deltas, exactly as it does for the solver counters).

use std::cell::Cell;

/// A snapshot of the synthesis counters for the current thread.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SynthCounters {
    /// LP feasibility systems actually handed to the simplex by the
    /// frontier search (witness-satisfied and conflict-pruned extensions
    /// are *not* counted — they cost no solving).
    pub systems_solved: u64,
    /// Frontier branches (partial-solution × multiplier-choice extensions)
    /// considered by the search, including pruned ones.
    pub branches_explored: u64,
    /// Branches skipped without any solver work: a learned conflict core
    /// covered the decision set, or presolve refuted the extension on
    /// constant/contradictory rows alone.
    pub branches_pruned: u64,
    /// Conflict cores learned from infeasible extensions: the support of
    /// each failed check's Farkas certificate (already irreducible) plus
    /// presolve-detected contradictions.  Duplicates are counted once; a
    /// core only prunes candidates of the implication that learned it and
    /// is dropped when that implication is done.
    pub cores_learned: u64,
    /// Syntheses answered from the cross-refinement memo without running
    /// the search (recorded by the path-invariant refiner in
    /// `pathinv-core`).
    pub memo_hits: u64,
}

impl SynthCounters {
    /// The counter deltas accumulated since `earlier` (a snapshot taken
    /// earlier on the *same thread*).
    #[must_use]
    pub fn since(&self, earlier: &SynthCounters) -> SynthCounters {
        SynthCounters {
            systems_solved: self.systems_solved - earlier.systems_solved,
            branches_explored: self.branches_explored - earlier.branches_explored,
            branches_pruned: self.branches_pruned - earlier.branches_pruned,
            cores_learned: self.cores_learned - earlier.cores_learned,
            memo_hits: self.memo_hits - earlier.memo_hits,
        }
    }
}

thread_local! {
    static COUNTERS: Cell<SynthCounters> = const {
        Cell::new(SynthCounters {
            systems_solved: 0,
            branches_explored: 0,
            branches_pruned: 0,
            cores_learned: 0,
            memo_hits: 0,
        })
    };
}

/// Returns the current thread's cumulative synthesis counters.
pub fn snapshot() -> SynthCounters {
    COUNTERS.with(Cell::get)
}

fn bump(f: impl FnOnce(&mut SynthCounters)) {
    COUNTERS.with(|s| {
        let mut v = s.get();
        f(&mut v);
        s.set(v);
    });
}

pub(crate) fn record_system_solved() {
    bump(|s| s.systems_solved += 1);
}

pub(crate) fn record_branch_explored() {
    bump(|s| s.branches_explored += 1);
}

pub(crate) fn record_branch_pruned() {
    bump(|s| s.branches_pruned += 1);
}

pub(crate) fn record_core_learned() {
    bump(|s| s.cores_learned += 1);
}

/// Records a synthesis answered from the cross-refinement memo.  Public
/// because the memo lives in `pathinv-core` (it is keyed on interned path
/// programs, which only the refiner sees).
pub fn record_memo_hit() {
    bump(|s| s.memo_hits += 1);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deltas_are_componentwise() {
        let before = snapshot();
        record_system_solved();
        record_branch_explored();
        record_branch_explored();
        record_branch_pruned();
        record_core_learned();
        record_memo_hit();
        let delta = snapshot().since(&before);
        assert_eq!(
            delta,
            SynthCounters {
                systems_solved: 1,
                branches_explored: 2,
                branches_pruned: 1,
                cores_learned: 1,
                memo_hits: 1,
            }
        );
    }
}
