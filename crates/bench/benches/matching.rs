//! Map-matching benchmarks: the paper's incremental matcher versus the
//! nearest-element and HMM baselines, plus candidate-index construction.

use criterion::{criterion_group, criterion_main, Criterion};
use taxitrace_bench::{bench_city, bench_fleet};
use taxitrace_matching::{CandidateIndex, MatchConfig, MatchScratch};

fn matching_benches(c: &mut Criterion) {
    let city = bench_city();
    let fleet = bench_fleet(&city, 22, 0.02);
    let index = CandidateIndex::new(&city.graph, &city.elements);
    let config = MatchConfig::default();
    let session = fleet
        .sessions
        .iter()
        .max_by_key(|s| s.points.len())
        .expect("fleet has sessions");
    let points = session.points_in_true_order();

    let mut group = c.benchmark_group("matching");
    group.throughput(criterion::Throughput::Elements(points.len() as u64));

    group.bench_function("index_build", |b| {
        b.iter(|| CandidateIndex::new(&city.graph, &city.elements))
    });
    group.bench_function("incremental", |b| {
        b.iter(|| {
            taxitrace_matching::incremental::match_trace(&city.graph, &index, &points, &config)
        })
    });
    group.bench_function("incremental_no_lookahead", |b| {
        let greedy = MatchConfig { lookahead: 0, ..config };
        b.iter(|| {
            taxitrace_matching::incremental::match_trace(&city.graph, &index, &points, &greedy)
        })
    });
    group.bench_function("nearest", |b| {
        b.iter(|| taxitrace_matching::nearest::match_trace(&city.graph, &index, &points, &config))
    });
    group.bench_function("hmm_viterbi", |b| {
        b.iter(|| taxitrace_matching::hmm::match_trace(&city.graph, &index, &points, &config))
    });

    // Gap fill is exercised by sparse traces (dense ones rarely leave
    // adjacent edges): keep every 4th point so most transitions need a
    // routed fill, then compare the blind Dijkstra reference against
    // goal-directed A* over one reused scratch.
    let sparse: Vec<_> = points.iter().step_by(4).cloned().collect();
    group.bench_function("sparse_gap_fill_blind", |b| {
        b.iter(|| {
            taxitrace_matching::incremental::match_trace_reference(
                &city.graph,
                &index,
                &sparse,
                &config,
            )
        })
    });
    group.bench_function("sparse_gap_fill_astar", |b| {
        let mut scratch = MatchScratch::new();
        b.iter(|| {
            taxitrace_matching::incremental::match_trace_with(
                &mut scratch,
                &city.graph,
                &index,
                &sparse,
                &config,
            )
        })
    });

    group.finish();
}

criterion_group!(benches, matching_benches);
criterion_main!(benches);
