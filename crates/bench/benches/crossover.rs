//! The band sweep: how the band-driven tt-window scan compares with a
//! plain point probe as the declared band widens.
//!
//! Both probe the same per-chunk point runs; the tt-window scan visits
//! only the chunks of the transaction-time window the band implies, a
//! subset of the chunks a point probe visits. So the tt-proxy never loses,
//! and a wide band only shrinks its lead. The bench times both strategies
//! and prints examined elements per query side by side at each band.

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

/// Mean elements examined per timeslice probe.
fn examined_per_query(rel: &IndexedRelation, probes: &[Timestamp]) -> f64 {
    let examined: usize = probes
        .iter()
        .map(|&vt| rel.execute(Query::Timeslice { vt }).stats.examined)
        .sum();
    examined as f64 / probes.len() as f64
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

    // Examined-elements sweep, printed once for the record.
    println!("\n=== band sweep (n = {N}, tt span = {} s) ===", N as i64 * TT_STEP);
    println!("{:>10} {:>20} {:>22}", "half-band", "tt-window examined", "point-probe examined");
    for half_band in [60_i64, 3_600, 86_400, 500_000, 2_000_000] {
        let (bounded, probes) = build(half_band, true, 7);
        let (general, _) = build(half_band, false, 7);
        println!(
            "{:>9}s {:>20.1} {:>22.1}",
            half_band,
            examined_per_query(&bounded, &probes),
            examined_per_query(&general, &probes),
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
