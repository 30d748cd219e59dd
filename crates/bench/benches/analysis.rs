//! Analysis benchmarks: 200 m grid aggregation (Table 5 / Fig. 6), the
//! REML mixed model (Figs. 7–9), O-D funnel evaluation (Table 3) and
//! Table 4 computation.

use criterion::{criterion_group, criterion_main, Criterion};
use taxitrace_bench::bench_study;
use taxitrace_core::{mixed_model, Table4};
use taxitrace_od::OdAnalyzer;

fn analysis_benches(c: &mut Criterion) {
    let output = bench_study(33, 0.1);

    let mut group = c.benchmark_group("analysis");
    group.sample_size(20);

    group.bench_function("grid_aggregation", |b| {
        b.iter(|| output.grid_stats(None).cells.len())
    });

    group.bench_function("table5", |b| {
        let grid = output.grid_stats(None);
        b.iter(|| grid.table5())
    });

    group.bench_function("table4", |b| b.iter(|| Table4::compute(&output)));

    group.bench_function("mixed_model_reml", |b| {
        b.iter(|| mixed_model(&output).expect("fits"))
    });

    group.bench_function("od_funnel", |b| {
        let analyzer = OdAnalyzer::from_city(&output.city);
        let (transitions, crossed) = analyzer.scan(&output.segments);
        b.iter(|| analyzer.funnel(&output.segments, &crossed, &transitions))
    });

    group.finish();
}

criterion_group!(benches, analysis_benches);
criterion_main!(benches);
