//! End-to-end pipeline benchmarks: fleet simulation and the full study
//! (simulate → store → clean → select → match → fuse) at reduced volume.

use criterion::{criterion_group, criterion_main, Criterion};
use taxitrace_bench::bench_city;
use taxitrace_core::{Study, StudyConfig};
use taxitrace_traces::{simulate_fleet, FleetConfig};
use taxitrace_weather::WeatherModel;

fn pipeline_benches(c: &mut Criterion) {
    let mut group = c.benchmark_group("pipeline");
    group.sample_size(10);

    group.bench_function("city_generation", |b| b.iter(bench_city));

    group.bench_function("fleet_simulation_1pct", |b| {
        let city = bench_city();
        let weather = WeatherModel::new(5);
        let cfg = FleetConfig { scale: 0.01, ..FleetConfig::default() };
        b.iter(|| simulate_fleet(&city, &weather, &cfg).total_points())
    });

    // A/B of the sharded (taxi, day) simulation across worker counts. The
    // RNG streams are derived per shard, so the output is identical at any
    // thread count; only the wall clock should move. On a single-core host
    // the multi-worker arm measures oversubscription overhead, not speedup.
    // `repro fingerprint` at `--threads 1` and `--threads 4` checks the
    // output invariance this arm assumes.
    {
        let city = bench_city();
        let weather = WeatherModel::new(5);
        let cfg = FleetConfig { scale: 0.02, ..FleetConfig::default() };
        let machine = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
        for workers in [1, machine.max(2)] {
            group.bench_function(&format!("fleet_simulation_2pct_threads_{workers}"), |b| {
                taxitrace_exec::set_max_workers(workers);
                b.iter(|| simulate_fleet(&city, &weather, &cfg).total_points())
            });
        }
        taxitrace_exec::set_max_workers(0);
    }

    group.bench_function("full_study_2pct", |b| {
        b.iter(|| {
            let out = Study::new(StudyConfig::scaled(5, 0.02)).run().expect("study runs");
            (out.segments.len(), out.transitions.len())
        })
    });

    group.finish();
}

criterion_group!(benches, pipeline_benches);
criterion_main!(benches);
