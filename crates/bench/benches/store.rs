//! Trip-store benchmarks: ingest into the id-keyed store, and the
//! container codec A/B — the buffered walk of a store file versus the same
//! walk over its image in memory.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use taxitrace_bench::{bench_city, bench_fleet};
use taxitrace_store::codec::{load, load_bytes, save_sessions_tagged};
use taxitrace_store::{LoadOptions, TripStore};

fn store_benches(c: &mut Criterion) {
    let city = bench_city();
    let fleet = bench_fleet(&city, 44, 0.03);
    let sessions = fleet.sessions;
    let n_points: u64 = sessions.iter().map(|s| s.points.len() as u64).sum();

    let mut group = c.benchmark_group("store");
    group.throughput(criterion::Throughput::Elements(n_points));
    group.bench_function("bulk_insert", |b| {
        b.iter_batched(
            || sessions.clone(),
            |s| {
                let mut st = TripStore::new();
                st.insert_all(s).expect("unique ids");
                st.len()
            },
            BatchSize::LargeInput,
        )
    });
    group.finish();

    // Container codec A/B: the same store read by the buffered walk of
    // the file (what every load takes) and by the same walk over the
    // image already in memory.
    let dir = std::env::temp_dir().join(format!("taxitrace-bench-codec-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create bench dir");
    let path = dir.join("fleet.ttrs");
    save_sessions_tagged(&path, &sessions, 7).expect("write store");
    let raw = std::fs::read(&path).expect("read store");

    let mut codec = c.benchmark_group("codec_ab");
    codec.throughput(criterion::Throughput::Bytes(raw.len() as u64));
    codec.bench_function("load_path", |b| {
        b.iter(|| {
            let out = load(&path, &LoadOptions::strict()).expect("clean store");
            assert!(out.indexed, "a clean store must verify its index");
            out.sessions.len()
        })
    });
    codec.bench_function("load_bytes", |b| {
        b.iter(|| load_bytes(&raw, &LoadOptions::strict()).expect("clean image").sessions.len())
    });
    codec.finish();

    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, store_benches);
criterion_main!(benches);
