//! The band sweep: how the band-driven tt-window scan compares with a
//! plain point probe as the declared band widens.
//!
//! Both probe the same valid-time runs; the tt-window scan searches only
//! the runs over the transaction-time window the band implies, while a
//! point probe searches the runs over the whole visible prefix. Either
//! way that is O(log chunks) runs (the Fenwick spans), so the band decides
//! less than it did with one run per chunk. The bench times both
//! strategies and prints examined elements and runs searched per query
//! side by side at each band.

use std::sync::Arc;

use criterion::{black_box, criterion_group, criterion_main, BenchmarkId, Criterion};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use tempora::prelude::*;

const N: usize = 20_000;
const QUERIES: usize = 200;
/// Transaction times step 100 s apart, so the relation spans ~2 000 000 s.
const TT_STEP: i64 = 100;

/// Builds a workload with offsets uniform in ±`half_band` seconds, and the
/// matching strongly bounded schema (or general when `declare` is false).
fn build(half_band: i64, declare: bool, seed: u64) -> (IndexedRelation, Vec<Timestamp>) {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut builder = RelationSchema::builder("sweep", Stamping::Event);
    if declare {
        builder = builder.event_spec(EventSpec::StronglyBounded {
            past: Bound::secs(half_band),
            future: Bound::secs(half_band),
        });
    }
    let schema = builder.build().expect("consistent");
    let clock = Arc::new(ManualClock::new(Timestamp::EPOCH));
    let mut rel = IndexedRelation::new(schema, clock.clone());
    let mut probes = Vec::with_capacity(QUERIES);
    for i in 0..N {
        let tt = Timestamp::from_secs(i64::try_from(i).expect("small") * TT_STEP + TT_STEP);
        clock.set(tt);
        let vt = tt + TimeDelta::from_secs(rng.gen_range(-half_band..=half_band));
        rel.insert(ObjectId::new(1), vt, vec![]).expect("within band");
        if i % (N / QUERIES) == 0 {
            probes.push(vt);
        }
    }
    (rel, probes)
}

/// Mean elements examined and runs searched per timeslice probe.
fn per_query(rel: &IndexedRelation, probes: &[Timestamp]) -> (f64, f64) {
    let (examined, runs) = probes.iter().fold((0, 0), |(examined, runs), &vt| {
        let stats = rel.execute(Query::Timeslice { vt }).stats;
        (examined + stats.examined, runs + stats.runs)
    });
    let n = probes.len() as f64;
    (examined as f64 / n, runs as f64 / n)
}

fn bench_crossover(c: &mut Criterion) {
    let mut group = c.benchmark_group("crossover_query_only");
    group.sample_size(15);
    // Sweep the half-band from 1 minute to ~6 days (window fraction from
    // ~0.00006 to ~0.5 of the 2M-second span).
    for half_band in [60_i64, 3_600, 86_400, 500_000] {
        for (label, declare) in [("tt-window", true), ("point-index", false)] {
            let (rel, probes) = build(half_band, declare, 7);
            group.bench_function(BenchmarkId::new(label, half_band), |b| {
                b.iter(|| {
                    let mut total = 0usize;
                    for &vt in &probes {
                        total += rel.execute(Query::Timeslice { vt }).stats.returned;
                    }
                    black_box(total)
                });
            });
        }
    }
    group.finish();

    // Examined-elements and runs-searched sweep, printed once for the
    // record.
    println!("\n=== band sweep (n = {N}, tt span = {} s), per query ===", N as i64 * TT_STEP);
    println!(
        "{:>10} {:>19} {:>15} {:>21} {:>17}",
        "half-band", "tt-window examined", "tt-window runs", "point-probe examined", "point-probe runs"
    );
    for half_band in [60_i64, 3_600, 86_400, 500_000, 2_000_000] {
        let (bounded, probes) = build(half_band, true, 7);
        let (general, _) = build(half_band, false, 7);
        let (window_examined, window_runs) = per_query(&bounded, &probes);
        let (point_examined, point_runs) = per_query(&general, &probes);
        println!(
            "{half_band:>9}s {window_examined:>19.1} {window_runs:>15.1} {point_examined:>21.1} {point_runs:>17.1}"
        );
    }
    c.bench_function("crossover_table_emitted", |b| b.iter(|| black_box(1)));
}

criterion_group! {
    name = benches;
    config = Criterion::default()
        .warm_up_time(std::time::Duration::from_secs(1))
        .measurement_time(std::time::Duration::from_secs(2));
    targets = bench_crossover
}
criterion_main!(benches);
