//! The ablation called out in DESIGN.md §5: the interval abstract
//! interpretation on the scalar FORWARD example, the cheap alternative to
//! the constraint-based templates timed in `invgen_templates`.

use criterion::{criterion_group, criterion_main, Criterion};
use pathinv_invgen::interval_analyze;
use pathinv_ir::corpus;

fn bench_ablation(c: &mut Criterion) {
    let mut group = c.benchmark_group("invgen_ablation");
    group.sample_size(10);

    // Abstract-interpretation alternative (cheap, but cannot prove FORWARD).
    group.bench_function("interval_analysis_forward", |b| {
        let program = corpus::forward();
        b.iter(|| {
            let analysis = interval_analyze(&program, 2);
            assert!(!analysis.proves_safety(&program));
        });
    });
    group.finish();
}

criterion_group!(benches, bench_ablation);
criterion_main!(benches);
