//! Criterion bench for the sparse substrate: LU factorization/solve and
//! SpMV on power-grid matrices, with and without fill-reducing orderings.

use opm_bench::criterion::{criterion_group, criterion_main, Criterion};
use opm_circuits::grid::PowerGridSpec;
use opm_circuits::mna::assemble_mna;
use opm_sparse::ordering::{amd, rcm};
use opm_sparse::SparseLu;
use std::hint::black_box;

fn bench(c: &mut Criterion) {
    let spec = PowerGridSpec {
        layers: 2,
        rows: 16,
        cols: 16,
        num_loads: 8,
        ..Default::default()
    };
    let model = assemble_mna(&spec.build(), &[]).unwrap();
    let n = model.system.order();
    // OPM pencil at h = 10 ps.
    let pencil = model
        .system
        .e()
        .lin_comb(2.0 / 10e-12, -1.0, model.system.a());
    let csc = pencil.to_csc();
    let x: Vec<f64> = (0..n).map(|i| (i as f64 * 0.1).sin()).collect();

    let mut g = c.benchmark_group("sparse");
    g.bench_function("spmv", |b| {
        b.iter(|| black_box(pencil.mul_vec(black_box(&x))))
    });
    g.bench_function("lu_natural", |b| {
        b.iter(|| black_box(SparseLu::factor(&csc, None).unwrap()))
    });
    let order_rcm = rcm(&pencil);
    g.bench_function("lu_rcm", |b| {
        b.iter(|| black_box(SparseLu::factor(&csc, Some(&order_rcm)).unwrap()))
    });
    let order_amd = amd(&pencil);
    g.bench_function("lu_amd", |b| {
        b.iter(|| black_box(SparseLu::factor(&csc, Some(&order_amd)).unwrap()))
    });
    let lu = SparseLu::factor(&csc, Some(&order_rcm)).unwrap();
    g.bench_function("lu_solve", |b| {
        b.iter(|| black_box(lu.solve(black_box(&x))))
    });
    g.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default().sample_size(20);
    targets = bench
}
criterion_main!(benches);
