//! Pinned index plans against brute force, across chunk seals.
//!
//! Storage chunks carry per-chunk key runs (an object run everywhere, a
//! point or interval run where the selector picks a dedicated index), and
//! a pinned read probes them instead of scanning. This suite builds one
//! relation per index choice — general event (point runs), general
//! interval (interval runs), `STRONGLY BOUNDED` (tt-proxy) and
//! non-decreasing (append order) — each past two sealed chunks with a
//! partial tail. It interleaves inserts, deletes and modifies with
//! captures at random pins, deletes into sealed chunks that held snapshots
//! still share (copy-on-write), and vacuums, then checks every `Query`
//! form on every held snapshot:
//!
//! * the pinned answer equals a brute-force filter of `iter_pinned()`, as
//!   a sequence in position order;
//! * at the newest pin, the live answer equals the pinned answer;
//! * a run-backed plan examines at most the answer, the non-current
//!   elements in its key range, and one unindexed tail chunk.

use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use std::sync::Arc;

use tempora::prelude::*;
use tempora::query::SnapshotRelation;
use tempora::storage::vacuum::VacuumPolicy;
use tempora::storage::CHUNK_CAP;

const PRELOAD: i64 = 3_000;
const OPS: usize = 240;
const VT_SPAN: i64 = 2_000;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Kind {
    Event,
    Interval,
    Bounded,
    Ordered,
}

impl Kind {
    const ALL: [Kind; 4] = [Kind::Event, Kind::Interval, Kind::Bounded, Kind::Ordered];

    fn schema(self) -> Arc<RelationSchema> {
        let builder = match self {
            Kind::Event => RelationSchema::builder("ev", Stamping::Event),
            Kind::Interval => RelationSchema::builder("iv", Stamping::Interval),
            Kind::Bounded => RelationSchema::builder("bd", Stamping::Event).event_spec(
                EventSpec::StronglyBounded {
                    past: Bound::secs(30),
                    future: Bound::secs(30),
                },
            ),
            Kind::Ordered => RelationSchema::builder("od", Stamping::Event)
                .ordering(OrderingSpec::GloballyNonDecreasing, Basis::PerRelation),
        };
        builder.build().expect("satisfiable schema")
    }

    /// The strategy a valid timeslice must plan to on this schema.
    fn timeslice_strategy(self) -> &'static str {
        match self {
            Kind::Event => "point-probe",
            Kind::Interval => "interval-probe",
            Kind::Bounded => "tt-window-scan",
            Kind::Ordered => "append-order-search",
        }
    }
}

fn secs(s: i64) -> Timestamp {
    Timestamp::from_secs(s)
}

/// Drives one relation: a transaction tick per write, and valid times
/// that satisfy its schema.
struct Driver {
    kind: Kind,
    rel: IndexedRelation,
    clock: Arc<ManualClock>,
    tick: i64,
    /// The last valid time of the ordered relation (non-decreasing).
    ordered_vt: i64,
    rng: StdRng,
}

impl Driver {
    fn new(kind: Kind, seed: u64) -> Self {
        let clock = Arc::new(ManualClock::new(secs(0)));
        let rel = IndexedRelation::new(kind.schema(), clock.clone());
        Driver {
            kind,
            rel,
            clock,
            tick: 0,
            ordered_vt: 0,
            rng: StdRng::seed_from_u64(seed),
        }
    }

    /// Advances the transaction clock to a fresh tick.
    fn advance(&mut self) -> i64 {
        self.tick += 1;
        self.clock.set(secs(self.tick));
        self.tick
    }

    /// A valid time admissible at transaction tick `tt`.
    fn valid_at(&mut self, tt: i64) -> ValidTime {
        match self.kind {
            Kind::Event => ValidTime::Event(secs(self.rng.gen_range(0..VT_SPAN))),
            Kind::Interval => {
                let begin = self.rng.gen_range(0..VT_SPAN);
                let len = self.rng.gen_range(1..60);
                ValidTime::Interval(Interval::new(secs(begin), secs(begin + len)).unwrap())
            }
            Kind::Bounded => ValidTime::Event(secs(tt + self.rng.gen_range(-30..=30))),
            Kind::Ordered => {
                self.ordered_vt += self.rng.gen_range(0..3);
                ValidTime::Event(secs(self.ordered_vt))
            }
        }
    }

    fn insert(&mut self) {
        let tt = self.advance();
        let valid = self.valid_at(tt);
        let object = ObjectId::new(self.rng.gen_range(0..40));
        self.rel.insert(object, valid, vec![]).expect("admissible insert");
    }

    /// A current element, drawn from the first `within` positions.
    fn pick_current(&mut self, within: usize) -> Option<ElementId> {
        let current: Vec<ElementId> = self
            .rel
            .relation()
            .iter()
            .take(within)
            .filter(|e| e.is_current())
            .map(|e| e.id)
            .collect();
        (!current.is_empty()).then(|| current[self.rng.gen_range(0..current.len())])
    }

    fn delete(&mut self, within: usize) {
        if let Some(id) = self.pick_current(within) {
            self.advance();
            self.rel.delete(id).expect("delete a current element");
        }
    }

    fn modify(&mut self) {
        if let Some(id) = self.pick_current(usize::MAX) {
            let tt = self.advance();
            let valid = self.valid_at(tt);
            self.rel.modify(id, valid, vec![]).expect("admissible modify");
        }
    }

    /// A snapshot of the store pinned at a random tick up to now (now
    /// itself a third of the time).
    fn capture(&mut self) -> Held {
        let pin = if self.rng.gen_range(0..3) == 0 {
            self.tick
        } else {
            self.rng.gen_range(0..=self.tick)
        };
        let snap = SnapshotRelation::new(
            Arc::clone(self.rel.relation().schema()),
            self.rel.relation().snapshot_elements(),
            secs(pin),
        );
        let pinned = snap.iter_pinned().collect();
        Held { snap, pinned }
    }

    /// Probes for every query form, aimed near stored data.
    fn queries(&mut self) -> Vec<Query> {
        let mut vts: Vec<i64> = (0..3)
            .map(|_| match self.kind {
                Kind::Event | Kind::Interval => self.rng.gen_range(-5..VT_SPAN + 60),
                Kind::Bounded => self.rng.gen_range(-40..=self.tick + 40),
                Kind::Ordered => self.rng.gen_range(-5..=self.ordered_vt + 5),
            })
            .collect();
        // A stored valid time, so point probes hit.
        let n = self.rel.relation().len();
        if let Some(e) = self.rel.relation().iter().nth(self.rng.gen_range(0..n)) {
            vts.push(e.valid.begin().micros() / 1_000_000);
        }
        let mut queries = vec![Query::Current];
        for &vt in &vts {
            let tt = self.rng.gen_range(0..=self.tick + 5);
            let width = self.rng.gen_range(1..40);
            queries.extend([
                Query::Rollback { tt: secs(tt) },
                Query::Timeslice { vt: secs(vt) },
                Query::TimesliceRange {
                    from: secs(vt),
                    to: secs(vt + width),
                },
                Query::Bitemporal {
                    tt: secs(tt),
                    vt: secs(vt),
                },
                Query::ObjectHistory {
                    object: ObjectId::new(self.rng.gen_range(0..42)),
                },
            ]);
        }
        queries
    }
}

/// A held snapshot and its pinned image as read at capture time.
struct Held {
    snap: SnapshotRelation,
    pinned: Vec<Element>,
}

/// Whether a valid time meets `[from, to)`: an event inside it, or an
/// interval overlapping it.
fn meets(valid: ValidTime, from: Timestamp, to: Timestamp) -> bool {
    match valid {
        ValidTime::Event(t) => from <= t && t < to,
        ValidTime::Interval(iv) => iv.begin() < to && iv.end() > from,
    }
}

/// Whether the key a run-backed plan probes for `query` selects `e`.
fn in_key_range(query: Query, e: &Element) -> bool {
    match query {
        Query::Timeslice { vt } => e.valid.covers(vt),
        Query::TimesliceRange { from, to } => meets(e.valid, from, to),
        Query::ObjectHistory { object } => e.object == object,
        Query::Bitemporal { vt, .. } => e.valid.covers(vt),
        Query::Current | Query::Rollback { .. } => false,
    }
}

/// The query's meaning over a pinned image (deletions after the pin
/// already clamped away), by brute force.
fn matches(query: Query, e: &Element) -> bool {
    match query {
        Query::Current => e.is_current(),
        Query::Rollback { tt } => e.existed_at(tt),
        Query::Timeslice { .. } | Query::TimesliceRange { .. } => {
            e.is_current() && in_key_range(query, e)
        }
        Query::ObjectHistory { .. } => in_key_range(query, e),
        Query::Bitemporal { tt, vt } => e.existed_at(tt) && e.valid.covers(vt),
    }
}

fn check(kind: Kind, held: &Held, queries: &[Query]) -> Result<(), TestCaseError> {
    let now: Vec<Element> = held.snap.iter_pinned().collect();
    prop_assert_eq!(&now, &held.pinned, "{:?}: the pinned image changed under later writes", kind);
    for &q in queries {
        let got = held.snap.execute(q);
        let expected: Vec<Element> = held.pinned.iter().filter(|e| matches(q, e)).cloned().collect();
        prop_assert_eq!(&got.elements, &expected, "{:?} {} at pin {}", kind, q, held.snap.pin());
        prop_assert_eq!(got.stats.returned, expected.len());
        if let Query::Timeslice { .. } = q {
            prop_assert_eq!(got.stats.strategy, kind.timeslice_strategy());
        }
        if matches!(got.stats.strategy, "point-probe" | "interval-probe" | "object-scan") {
            // Selected by the key, yet deleted or replaced at the pin (or
            // not yet stored at an as-of instant).
            let filtered = held
                .pinned
                .iter()
                .filter(|e| in_key_range(q, e) && !matches(q, e))
                .count();
            let bound = got.stats.returned + filtered + CHUNK_CAP;
            prop_assert!(
                got.stats.examined <= bound,
                "{:?} {}: {} examined {} > bound {}",
                kind,
                q,
                got.stats.strategy,
                got.stats.examined,
                bound
            );
        }
    }
    Ok(())
}

fn run(kind: Kind, seed: u64) -> Result<(), TestCaseError> {
    let mut d = Driver::new(kind, seed);
    for _ in 0..PRELOAD {
        d.insert();
    }
    let mut held: Vec<Held> = Vec::new();
    for op in 0..OPS {
        if op == OPS / 2 {
            // Vacuum every deleted element; reads after it see the
            // rebuilt chunks and runs.
            let now = d.clock.now();
            d.rel.vacuum(VacuumPolicy::RollbackWindow { window: TimeDelta::from_secs(0) }, now);
        }
        match d.rng.gen_range(0..10) {
            0..=3 => d.insert(),
            4 | 5 => d.delete(usize::MAX),
            6 | 7 => d.modify(),
            _ => {
                let snap = d.capture();
                let queries = d.queries();
                check(kind, &snap, &queries)?;
                if snap.snap.pin() == d.clock.now() {
                    for &q in &queries {
                        let live = d.rel.execute(q);
                        prop_assert_eq!(&live.elements, &snap.snap.execute(q).elements, "{:?} live {}", kind, q);
                    }
                }
                held.push(snap);
                // Delete into the first sealed chunk, which the snapshot
                // just captured shares: the store copies it on write.
                d.delete(CHUNK_CAP);
            }
        }
    }
    prop_assert!(d.rel.relation().len() > 2 * CHUNK_CAP, "two sealed chunks and a tail");
    for h in &held {
        let queries = d.queries();
        check(kind, h, &queries)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(4))]

    #[test]
    fn pinned_index_plans_match_brute_force(seed in any::<u64>()) {
        for kind in Kind::ALL {
            run(kind, seed)?;
        }
    }
}
