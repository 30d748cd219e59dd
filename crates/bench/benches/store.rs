//! Trip-store benchmarks: ingest into the id-keyed store, and the
//! container codec A/B — sequential salvage scan versus offset-index seek
//! reads over the same image.

use criterion::{criterion_group, criterion_main, BatchSize, Criterion};
use taxitrace_bench::{bench_city, bench_fleet};
use taxitrace_store::codec::{load_bytes, salvage_bytes, save_sessions_tagged};
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

    // Container codec A/B: the same image loaded by the sequential CRC
    // scan (the salvage path) and by the offset index (seek + in-place
    // payload decode, the path every clean load takes).
    let dir = std::env::temp_dir().join(format!("taxitrace-bench-codec-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create bench dir");
    let path = dir.join("fleet.ttrs");
    save_sessions_tagged(&path, &sessions, 7).expect("write store");
    let raw = std::fs::read(&path).expect("read store");

    let mut codec = c.benchmark_group("codec_ab");
    codec.throughput(criterion::Throughput::Bytes(raw.len() as u64));
    codec.bench_function("full_load_scan", |b| b.iter(|| salvage_bytes(&raw).sessions.len()));
    codec.bench_function("full_load_indexed", |b| {
        b.iter(|| {
            let out = load_bytes(&raw, &LoadOptions::strict()).expect("clean image");
            assert!(out.indexed, "a clean image must take the indexed path");
            out.sessions.len()
        })
    });
    codec.finish();

    let _ = std::fs::remove_dir_all(&dir);
}

criterion_group!(benches, store_benches);
criterion_main!(benches);
