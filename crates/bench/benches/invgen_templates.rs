//! §5 template instantiation on FORWARD: the failing equality template and
//! the succeeding equality + inequality template (paper: 40 ms vs 130 ms).

use criterion::{criterion_group, criterion_main, Criterion};
use pathinv_invgen::{synthesize, RowOp, TemplateMap};
use pathinv_ir::{corpus, Symbol};

fn bench_templates(c: &mut Criterion) {
    let program = corpus::forward();
    let l1 = corpus::find_loc(&program, "L1");
    let vars = [Symbol::intern("i"), Symbol::intern("n"), Symbol::intern("a"), Symbol::intern("b")];
    let mut group = c.benchmark_group("invgen_forward_templates");
    group.sample_size(10);

    group.bench_function("equality_template_fails", |b| {
        b.iter(|| {
            let mut t = TemplateMap::new();
            t.add_scalar_row(l1, &vars, RowOp::Eq).unwrap();
            assert!(synthesize(&program, &t).is_err());
        });
    });
    group.bench_function("equality_plus_inequality_succeeds", |b| {
        b.iter(|| {
            let mut t = TemplateMap::new();
            t.add_scalar_row(l1, &vars, RowOp::Eq).unwrap();
            t.add_scalar_row(l1, &vars, RowOp::Le).unwrap();
            assert!(synthesize(&program, &t).is_ok());
        });
    });
    group.finish();
}

criterion_group!(benches, bench_templates);
criterion_main!(benches);
