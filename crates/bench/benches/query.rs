//! The headline experiment: valid-timeslice latency under each
//! specialization-unlocked strategy versus the general full scan, at
//! several relation sizes (§1/§4's promised query-processing payoff made
//! measurable).
//!
//! Series reported per size n:
//!   * `full-scan`      — the general baseline (no specialization used);
//!   * `point-probe`    — general relation with per-chunk point runs;
//!   * `tt-window`      — strongly bounded relation, probing the point
//!     runs of the band's transaction-time window only;
//!   * `append-order`   — globally sequential relation, no index at all;
//!   * `rollback`       — transaction-prefix scan (always available).

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};

use tempora::prelude::*;
use tempora::workload;

struct Setup {
    label: &'static str,
    relation: IndexedRelation,
    probe: Timestamp,
}

/// Builds relations of `n` elements for each strategy, plus a probe that
/// hits a known element.
fn setups(n: usize) -> Vec<Setup> {
    let mut out = Vec::new();

    // General relation → point index.
    let general = workload::general(n, TimeDelta::from_hours(12), 17);
    let probe = general.events[n / 2].vt;
    out.push(Setup {
        label: "point-probe",
        relation: tempora::load_event_workload(&general).expect("conforms"),
        probe,
    });

    // Strongly bounded relation → tt-window proxy.
    let bounded = workload::accounting(n, TimeDelta::from_hours(2), 17);
    let probe = bounded.events[n / 2].vt;
    out.push(Setup {
        label: "tt-window",
        relation: tempora::load_event_workload(&bounded).expect("conforms"),
        probe,
    });

    // Sequential (per relation) → append-order search. The monitoring
    // generator with delays shorter than the sampling period is
    // sequential per relation when a single sensor is used.
    let sequential = workload::monitoring(
        1,
        n,
        TimeDelta::from_secs(60),
        TimeDelta::from_secs(10),
        TimeDelta::from_secs(50),
        17,
    );
    // Re-declare with the sequential ordering to unlock the append store.
    let schema = RelationSchema::builder("sequential", Stamping::Event)
        .event_spec(EventSpec::Retroactive)
        .ordering(OrderingSpec::GloballySequential, Basis::PerRelation)
        .build()
        .expect("consistent");
    let seq_workload = tempora::workload::EventWorkload {
        schema,
        events: sequential.events,
    };
    let probe = seq_workload.events[n / 2].vt;
    out.push(Setup {
        label: "append-order",
        relation: tempora::load_event_workload(&seq_workload).expect("conforms"),
        probe,
    });

    out
}

fn bench_timeslice(c: &mut Criterion) {
    let mut group = c.benchmark_group("timeslice");
    group.sample_size(30);
    for n in [10_000usize, 100_000] {
        let all = setups(n);
        for setup in &all {
            group.bench_function(BenchmarkId::new(setup.label, n), |b| {
                b.iter(|| {
                    black_box(setup.relation.execute(Query::Timeslice { vt: setup.probe }))
                        .stats
                        .returned
                });
            });
        }
        // The general baseline: full scan on the bounded data (same data
        // as tt-window, strategy forced).
        let bounded = &all[1];
        group.bench_function(BenchmarkId::new("full-scan", n), |b| {
            b.iter(|| {
                black_box(bounded.relation.execute_plan(
                    Query::Timeslice { vt: bounded.probe },
                    Plan::FullScan,
                ))
                .stats
                .returned
            });
        });
        // Rollback (tt-prefix) for scale context.
        group.bench_function(BenchmarkId::new("rollback", n), |b| {
            let tt = bounded.relation.relation().iter().nth(n / 2).expect("exists").tt_begin;
            b.iter(|| {
                black_box(bounded.relation.execute(Query::Rollback { tt })).stats.returned
            });
        });
    }
    group.finish();
}

fn bench_examined_counts(c: &mut Criterion) {
    // Not a timing bench: prints the examined-vs-returned table once so
    // bench logs carry the asymptotic story alongside wall-clock numbers.
    let n = 100_000;
    println!("\n=== examined-elements table (n = {n}) ===");
    for setup in setups(n) {
        let r = setup.relation.execute(Query::Timeslice { vt: setup.probe });
        println!(
            "  {:<13} {:>9} examined, {:>3} returned ({})",
            setup.label, r.stats.examined, r.stats.returned, r.stats.strategy
        );
        let full = setup
            .relation
            .execute_plan(Query::Timeslice { vt: setup.probe }, Plan::FullScan);
        assert_eq!(full.stats.returned, r.stats.returned, "strategies must agree");
    }
    println!("  {:<13} {:>9} examined (baseline)", "full-scan", n);
    // Keep criterion happy with a trivial measurement.
    c.bench_function("examined_table_emitted", |b| b.iter(|| black_box(1)));
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_secs(1))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_timeslice, bench_examined_counts
}
criterion_main!(benches);
