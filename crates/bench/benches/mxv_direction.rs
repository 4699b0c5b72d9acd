//! Experiment F3: push vs pull `mxv` across frontier densities (the
//! GraphBLAST direction-optimization crossover of §II.E / Fig. 3).

use criterion::{BenchmarkId, Criterion};
use graphblas::prelude::*;
use graphblas::semiring::LOR_LAND;
use lagraph_bench::{criterion_config, frontier, profile_once, rmat_structure_dual};

fn bench(c: &mut Criterion) {
    let a = rmat_structure_dual(11, 16, 42);
    let n = a.nrows();
    let mut group = c.benchmark_group("mxv_direction");
    // Distinct frontier sizes from very sparse to half-dense (n = 2048).
    for k in [4usize, 64, 512, n / 2] {
        let q = frontier(n, k);
        for (name, dir) in
            [("push", Direction::Push), ("pull", Direction::Pull), ("auto", Direction::Auto)]
        {
            let product = || {
                let mut w = Vector::<bool>::new(n).expect("w");
                mxv(&mut w, None, NOACC, &LOR_LAND, &a, &q, &Descriptor::new().direction(dir))
                    .expect("mxv");
                w.nvals()
            };
            group.bench_function(BenchmarkId::new(name, k), |bencher| bencher.iter(product));
            // One traced run: the kernel that actually ran and its span
            // profile (the auto row shows where the cost model lands at
            // this frontier density, plus any mxv.mispredict instants).
            profile_once(&format!("mxv/{name}/{k}"), product);
        }
    }

    // The BFS-shaped masked rows: frontier expansion under a complemented
    // structural "visited" mask, where the masked scatter kernel filters
    // in-kernel instead of deferring everything to the write rule.
    let visited = frontier(n, n / 4);
    for k in [4usize, 64, 512, n / 2] {
        let q = frontier(n, k);
        for (name, dir) in
            [("push", Direction::Push), ("pull", Direction::Pull), ("auto", Direction::Auto)]
        {
            let product = || {
                let mut w = Vector::<bool>::new(n).expect("w");
                mxv(
                    &mut w,
                    Some(&visited),
                    NOACC,
                    &LOR_LAND,
                    &a,
                    &q,
                    &Descriptor::new().direction(dir).complement().structural().replace(),
                )
                .expect("mxv");
                w.nvals()
            };
            group.bench_function(BenchmarkId::new(format!("masked_{name}"), k), |bencher| {
                bencher.iter(product)
            });
            profile_once(&format!("mxv/masked_{name}/{k}"), product);
        }
    }
    group.finish();
}

fn main() {
    let mut c = criterion_config();
    bench(&mut c);
    c.final_summary();
}
