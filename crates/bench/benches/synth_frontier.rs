//! Micro-benchmarks of the invariant-synthesis pipeline: presolved vs raw
//! Farkas systems, and the conflict-driven frontier search on both a
//! succeeding synthesis (FORWARD) and a failing one (the buggy INITCHECK
//! variant, where conflict cores prune hardest).

use criterion::{black_box, criterion_group, criterion_main, Criterion};
use pathinv_invgen::presolve::presolve;
use pathinv_invgen::{synthesize, RowOp, TemplateMap};
use pathinv_ir::{corpus, RelOp, Symbol};
use pathinv_smt::{lra_solve, ConstrOp, LinConstraint, LinExpr, Rat};

/// A Farkas-shaped system: a chain of defining equalities (the coefficient
/// matching equations presolve eliminates) plus redundant and duplicated
/// bound rows (the dedup/subsumption fodder).
fn farkas_like_system(n: usize) -> Vec<LinConstraint<u32>> {
    let mut rows = Vec::new();
    for i in 0..n {
        // x_{i+1} = x_i + 1 (an eliminable defining equality).
        let mut e = LinExpr::constant(Rat::MINUS_ONE);
        e.add_term(i as u32 + 1, Rat::ONE).unwrap();
        e.add_term(i as u32, Rat::MINUS_ONE).unwrap();
        rows.push(LinConstraint::new(e, ConstrOp::Eq));
        // Redundant upper bounds on x_0, duplicated at several strengths.
        let mut b = LinExpr::constant(Rat::int(-(2 * n as i128) + (i % 3) as i128));
        b.add_term(0, Rat::ONE).unwrap();
        rows.push(LinConstraint::new(b, ConstrOp::Le));
    }
    // One binding constraint so the system is not trivially reducible away.
    let mut e = LinExpr::constant(Rat::int(-(n as i128)));
    e.add_term(n as u32, Rat::ONE).unwrap();
    rows.push(LinConstraint::new(e, ConstrOp::Le));
    rows
}

fn forward_templates(program: &pathinv_ir::Program) -> TemplateMap {
    let l1 = corpus::find_loc(program, "L1");
    let mut templates = TemplateMap::new();
    let vars = [Symbol::intern("i"), Symbol::intern("n"), Symbol::intern("a"), Symbol::intern("b")];
    templates.add_scalar_row(l1, &vars, RowOp::Eq).unwrap();
    templates.add_scalar_row(l1, &vars, RowOp::Le).unwrap();
    templates
}

fn buggy_templates(program: &pathinv_ir::Program) -> TemplateMap {
    let l1 = corpus::find_loc(program, "L1");
    let mut templates = TemplateMap::new();
    templates.add_array_row(l1, Symbol::intern("a"), &[Symbol::intern("i")], RelOp::Eq).unwrap();
    templates
}

fn bench_synth_frontier(c: &mut Criterion) {
    let mut group = c.benchmark_group("synth_frontier");
    group.sample_size(10);

    // Presolved vs raw system: the same Farkas-shaped system solved cold
    // as-is, vs presolved (equality elimination + dedup) and then solved.
    let system = farkas_like_system(24);
    group.bench_function("system/raw_cold_solve", |b| {
        b.iter(|| {
            assert!(lra_solve(black_box(&system)).unwrap().is_sat());
        });
    });
    group.bench_function("system/presolve_then_solve", |b| {
        b.iter(|| {
            let p = presolve(black_box(&system)).unwrap();
            assert!(p.conflict.is_none());
            let rows: Vec<_> = p.rows.into_iter().map(|(c, _)| c).collect();
            assert!(lra_solve(&rows).unwrap().is_sat());
        });
    });

    // A succeeding synthesis.
    let forward = corpus::forward();
    group.bench_function("forward/conflict_driven_presolved", |b| {
        b.iter(|| {
            let templates = forward_templates(&forward);
            black_box(synthesize(&forward, &templates)).unwrap();
        });
    });

    // A failing synthesis (the case the BUGGY_INITCHECK refinement loop
    // hits repeatedly).
    let buggy = corpus::buggy_initcheck();
    group.bench_function("buggy_initcheck/conflict_driven_presolved", |b| {
        b.iter(|| {
            let templates = buggy_templates(&buggy);
            assert!(black_box(synthesize(&buggy, &templates)).is_err());
        });
    });

    group.finish();
}

criterion_group!(benches, bench_synth_frontier);
criterion_main!(benches);
