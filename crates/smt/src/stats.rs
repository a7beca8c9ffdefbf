//! Thread-local decision-procedure call counters.
//!
//! The CEGAR driver and the experiment harness need to know how much solver
//! work a verification run performed — the paper's whole argument is about
//! keeping expensive reasoning local, and "how many solver calls" is the
//! hardware-independent measure of that.  Threading a counter object through
//! every call site (the combined solver, the simplex, interpolation, and the
//! invariant-synthesis code that uses all three) would pollute every
//! signature in the workspace, so the substrate keeps the tallies in
//! thread-local storage instead: each counter is bumped at the entry point of
//! the corresponding procedure, and callers measure a region of work by
//! taking a [`snapshot`] before and after and subtracting
//! ([`SmtStats::since`]).
//!
//! The batch harness runs each verification task entirely on one worker
//! thread, so snapshot deltas attribute calls to tasks exactly, regardless of
//! how many workers the batch uses — which keeps the reported counts
//! deterministic across `--jobs` settings.

use std::cell::Cell;

/// A snapshot of the substrate call counters for the current thread.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct SmtStats {
    /// Top-level [`Solver::check`](crate::Solver::check) invocations
    /// (each decides one formula cold; entailment queries bottom out here).
    /// A [`SolverContext`](crate::SolverContext) query decided on the
    /// context's live tableau makes no such call.
    pub sat_checks: u64,
    /// Cold simplex solves ([`lra_solve`](crate::lra_solve)): tableau
    /// constructions followed by a full feasibility run.  This is the
    /// innermost "real work" unit shared by satisfiability, entailment,
    /// interpolation, and invariant synthesis.  Warm re-checks of an
    /// [`IncrementalSimplex`](crate::IncrementalSimplex) are counted in
    /// [`simplex_warm_checks`](SmtStats::simplex_warm_checks) instead: they
    /// reuse the tableau of the shared constraint prefix and typically cost
    /// a handful of pivots, not a rebuild.
    pub simplex_calls: u64,
    /// Warm-started incremental simplex re-checks
    /// ([`IncrementalSimplex::check`](crate::IncrementalSimplex::check)).
    pub simplex_warm_checks: u64,
    /// Sequence-interpolant computations
    /// ([`sequence_interpolants`](crate::sequence_interpolants)).
    pub interpolant_calls: u64,
}

impl SmtStats {
    /// The counter deltas accumulated since `earlier` (which must be a
    /// snapshot taken earlier on the *same thread*).
    #[must_use]
    pub fn since(&self, earlier: &SmtStats) -> SmtStats {
        SmtStats {
            sat_checks: self.sat_checks - earlier.sat_checks,
            simplex_calls: self.simplex_calls - earlier.simplex_calls,
            simplex_warm_checks: self.simplex_warm_checks - earlier.simplex_warm_checks,
            interpolant_calls: self.interpolant_calls - earlier.interpolant_calls,
        }
    }
}

thread_local! {
    static STATS: Cell<SmtStats> = const { Cell::new(SmtStats {
        sat_checks: 0,
        simplex_calls: 0,
        simplex_warm_checks: 0,
        interpolant_calls: 0,
    }) };
}

/// Returns the current thread's cumulative counters.
pub fn snapshot() -> SmtStats {
    STATS.with(Cell::get)
}

fn bump(f: impl FnOnce(&mut SmtStats)) {
    STATS.with(|s| {
        let mut v = s.get();
        f(&mut v);
        s.set(v);
    });
}

pub(crate) fn record_sat_check() {
    bump(|s| s.sat_checks += 1);
}

pub(crate) fn record_simplex_call() {
    bump(|s| s.simplex_calls += 1);
}

pub(crate) fn record_simplex_warm_check() {
    bump(|s| s.simplex_warm_checks += 1);
}

pub(crate) fn record_interpolant_call() {
    bump(|s| s.interpolant_calls += 1);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deltas_and_sums_are_componentwise() {
        let before = snapshot();
        record_sat_check();
        record_simplex_call();
        record_simplex_call();
        record_simplex_warm_check();
        record_interpolant_call();
        let delta = snapshot().since(&before);
        assert_eq!(
            delta,
            SmtStats {
                sat_checks: 1,
                simplex_calls: 2,
                simplex_warm_checks: 1,
                interpolant_calls: 1
            }
        );
    }
}
