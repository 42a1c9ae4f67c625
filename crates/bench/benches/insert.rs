//! Insert throughput across storage representations and workloads:
//! tuple-store vs append-only, with and without index maintenance.

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use tempora::prelude::*;
use tempora::workload;

fn bench_insert(c: &mut Criterion) {
    let mut group = c.benchmark_group("insert_10k");
    group.sample_size(20);
    let n = 10_000usize;

    // General relation, tuple store + point index.
    let general = workload::general(n, TimeDelta::from_hours(2), 3);
    group.bench_function(BenchmarkId::from_parameter("general_tuple_point_index"), |b| {
        b.iter(|| {
            black_box(tempora::load_event_workload(&general).expect("conforms").relation().len())
        });
    });

    // Bounded relation: tuple store + the point runs its tt-window
    // probes.
    let bounded = workload::accounting(n, TimeDelta::from_hours(2), 3);
    group.bench_function(BenchmarkId::from_parameter("bounded_tuple_point_index"), |b| {
        b.iter(|| {
            black_box(tempora::load_event_workload(&bounded).expect("conforms").relation().len())
        });
    });

    // Degenerate relation: append-only store, no index.
    let schema = RelationSchema::builder("degenerate", Stamping::Event)
        .event_spec(EventSpec::Degenerate)
        .build()
        .expect("consistent");
    group.bench_function(BenchmarkId::from_parameter("degenerate_append_only"), |b| {
        b.iter(|| {
            let clock = Arc::new(ManualClock::new(Timestamp::EPOCH));
            let mut rel = IndexedRelation::new(Arc::clone(&schema), clock.clone());
            for i in 0..n {
                let t = Timestamp::from_secs(i64::try_from(i).expect("small") + 1);
                clock.set(t);
                rel.insert(ObjectId::new(1), t, Vec::new()).expect("degenerate");
            }
            black_box(rel.relation().len())
        });
    });

    // Interval relation: tuple store + per-chunk interval runs.
    let assignments = workload::assignments(20, u32::try_from(n / 20).expect("small"), 3);
    group.bench_function(BenchmarkId::from_parameter("interval_tree"), |b| {
        b.iter(|| {
            black_box(
                tempora::load_interval_workload(&assignments)
                    .expect("conforms")
                    .relation()
                    .len(),
            )
        });
    });
    group.finish();
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_secs(1))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_insert
}
criterion_main!(benches);
