//! Lock-free snapshot query execution.
//!
//! Transaction time is append-only (§2), so the state of a relation at
//! tick `t` is a *prefix* of its element sequence — an observation the
//! storage layer turns into cheap immutable views
//! ([`tempora_storage::TemporalRelation::snapshot_elements`]). A
//! [`SnapshotRelation`] couples such a view with a pin tick and answers
//! every [`Query`] form against the image the relation had at the pin:
//! elements stored after the pin are invisible, and deletions stamped
//! after the pin are undone (their `tt_end` is clamped back to "current").
//!
//! Queries reuse the specialization-driven planner
//! ([`crate::plan_query_annotated`]) and the live executor's plan loop and
//! predicate: a live read is the same loop pinned at the newest state
//! (snapshot reducibility), so the two cannot drift apart. Point probes,
//! interval stabs, tt-window scans and object scans probe the key runs
//! the view's chunks share with the live store — built once when a chunk
//! seals, never touched by a delete — and filter the open tail by the
//! probe's key; a tt-window scan first binary searches its window's
//! chunks in the base order. Tt-prefix and append-order searches need
//! only the base order, which the view preserves, in either store mode.
//! The executor takes no locks and touches no shared mutable state: a
//! server thread can run it while ingest batches apply and WAL appends
//! proceed.

use std::sync::Arc;

use tempora_time::Timestamp;

use tempora_core::{Element, RelationSchema};
use tempora_storage::ElementChunks;

use crate::exec::{QueryResult, View};
use crate::optimizer::plan_query_annotated;
use crate::plan::Query;

/// An immutable view of one relation pinned at a transaction tick.
///
/// Cheap to clone (chunk pointers plus a schema `Arc`); safe to send to
/// another thread and query long after the live relation has moved on.
#[derive(Debug, Clone)]
pub struct SnapshotRelation {
    schema: Arc<RelationSchema>,
    elements: ElementChunks,
    pin: Timestamp,
    /// Number of leading elements with `tt_b ≤ pin` — the visible prefix.
    visible: usize,
}

impl SnapshotRelation {
    /// Pins a chunk view at `pin`: elements stored after the pin are
    /// outside the visible prefix and never consulted.
    #[must_use]
    pub fn new(schema: Arc<RelationSchema>, elements: ElementChunks, pin: Timestamp) -> Self {
        let visible = elements.partition_point(|e| e.tt_begin <= pin);
        SnapshotRelation {
            schema,
            elements,
            pin,
            visible,
        }
    }

    /// The relation's schema.
    #[must_use]
    pub fn schema(&self) -> &Arc<RelationSchema> {
        &self.schema
    }

    /// The transaction tick the view is pinned at.
    #[must_use]
    pub fn pin(&self) -> Timestamp {
        self.pin
    }

    /// Number of elements visible at the pin (stored at or before it).
    #[must_use]
    pub fn len(&self) -> usize {
        self.visible
    }

    /// Whether nothing was stored at or before the pin.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.visible == 0
    }

    /// Every element visible at the pin, in transaction-time order, as
    /// the pinned image saw it: deletions stamped after the pin are
    /// clamped back to current. This is the raw material of
    /// snapshot dumps and differential oracles.
    pub fn iter_pinned(&self) -> impl Iterator<Item = Element> + '_ {
        let pin = self.pin;
        self.elements
            .range(0..self.visible)
            .map(move |e| clamp_to_pin(e, pin))
    }

    /// Plans and executes a query against the pinned image. Semantically
    /// identical to running the same query on the live relation at the
    /// moment of the pin; "current" means *current as of the pin*.
    #[must_use]
    pub fn execute(&self, query: Query) -> QueryResult {
        let annotated = plan_query_annotated(&self.schema, query);
        let view = View {
            schema: &self.schema,
            elements: &self.elements,
            pin: self.pin,
            visible: self.visible,
        };
        view.run(query, annotated.plan, annotated.residual)
    }
}

/// An element as the pinned image stored it: a deletion stamped after the
/// pin had not happened yet, so the clamped element is current.
pub(crate) fn clamp_to_pin(e: &Element, pin: Timestamp) -> Element {
    let mut clamped = e.clone();
    if clamped.tt_end.is_some_and(|d| d > pin) {
        clamped.tt_end = None;
    }
    clamped
}

/// The logical predicate a query asks of each element, evaluated against
/// the image at `pin` (the residual filter every plan applies so answers
/// stay exact whatever the strategy): currency means "current as of the
/// pin", and rollback/as-of instants after the pin see exactly the pin
/// state. At [`Timestamp::MAX`] this is the live predicate.
pub(crate) fn pinned_predicate(query: Query, pin: Timestamp) -> impl Fn(&Element) -> bool {
    move |e| match query {
        Query::Current => e.existed_at(pin),
        Query::Rollback { tt } => e.existed_at(tt.min(pin)),
        Query::Timeslice { vt } => e.existed_at(pin) && e.valid.covers(vt),
        Query::TimesliceRange { from, to } => {
            e.existed_at(pin)
                && e.valid.begin() < to
                && (e.valid.end() > from || e.valid.begin() >= from)
        }
        Query::ObjectHistory { object } => e.object == object,
        Query::Bitemporal { tt, vt } => e.existed_at(tt.min(pin)) && e.valid.covers(vt),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::exec::IndexedRelation;
    use tempora_core::{ElementId, ObjectId, Stamping};
    use tempora_time::{ManualClock, Timestamp, TransactionClock};

    fn ts(s: i64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    fn snapshot_of(rel: &IndexedRelation, pin: Timestamp) -> SnapshotRelation {
        SnapshotRelation::new(
            Arc::clone(rel.relation().schema()),
            rel.relation().snapshot_elements(),
            pin,
        )
    }

    fn sorted_ids(elements: &[Element]) -> Vec<ElementId> {
        let mut v: Vec<ElementId> = elements.iter().map(|e| e.id).collect();
        v.sort();
        v
    }

    #[test]
    fn snapshot_answers_match_live_answers_at_the_pin() {
        use tempora_core::spec::interevent::OrderingSpec;
        use tempora_core::Basis;
        // Both store modes: the general store (point runs) and the
        // ordered one (append-order search). Valid times satisfy each
        // schema.
        let general = RelationSchema::builder("r", Stamping::Event)
            .build()
            .unwrap();
        let sequential = RelationSchema::builder("s", Stamping::Event)
            .ordering(OrderingSpec::GloballySequential, Basis::PerRelation)
            .build()
            .unwrap();
        let general_vt: fn(i64) -> i64 = |i| i * 7;
        let sequential_vt: fn(i64) -> i64 = |i| i * 10 + 10;
        for (schema, vt_of) in [(general, general_vt), (sequential, sequential_vt)] {
            let ordered = schema.is_vt_ordered();
            let clock = Arc::new(ManualClock::new(ts(0)));
            let mut rel = IndexedRelation::new(schema, clock.clone());
            let mut ids = Vec::new();
            for i in 0..200_i64 {
                clock.set(ts(i * 10 + 10));
                ids.push(
                    rel.insert(ObjectId::new(1 + (i as u64 % 5)), ts(vt_of(i)), vec![])
                        .unwrap(),
                );
            }
            clock.set(ts(5_000));
            rel.delete(ids[3]).unwrap();
            let pin = clock.now();
            let snap = snapshot_of(&rel, pin);
            let queries = [
                Query::Current,
                Query::Rollback { tt: ts(500) },
                Query::Rollback { tt: ts(9_999) },
                Query::Timeslice { vt: ts(7 * 50) },
                Query::TimesliceRange {
                    from: ts(100),
                    to: ts(400),
                },
                Query::ObjectHistory {
                    object: ObjectId::new(2),
                },
                Query::Bitemporal {
                    tt: ts(1_000),
                    vt: ts(7 * 50),
                },
            ];
            // The live executor's answers while the pin is still the
            // newest state.
            let live: Vec<Vec<ElementId>> = queries
                .iter()
                .map(|q| sorted_ids(&rel.execute(*q).elements))
                .collect();

            // Mutate the live relation *after* the pin.
            clock.set(ts(6_000));
            rel.delete(ids[7]).unwrap();
            clock.set(ts(6_010));
            rel.insert(ObjectId::new(1), ts(9_999), vec![]).unwrap();

            // Live answers at the pin are rollbacks; snapshot answers are
            // the same sets even though "current" differs live.
            for (q, live) in queries.into_iter().zip(live) {
                let from_snap = snap.execute(q);
                // The live oracle: replay the same predicate against the
                // pinned prefix by hand.
                let expected: Vec<ElementId> = rel
                    .relation()
                    .iter()
                    .filter(|e| e.tt_begin <= pin)
                    .map(|e| {
                        let mut c = (*e).clone();
                        if c.tt_end.is_some_and(|d| d > pin) {
                            c.tt_end = None;
                        }
                        c
                    })
                    .filter(|e| pinned_predicate(q, pin)(e))
                    .map(|e| e.id)
                    .collect();
                let mut expected = expected;
                expected.sort();
                assert_eq!(
                    sorted_ids(&from_snap.elements),
                    expected,
                    "query {q}, ordered {ordered}"
                );
                assert_eq!(
                    sorted_ids(&from_snap.elements),
                    live,
                    "query {q}, ordered {ordered}"
                );
            }
            // Post-pin writes are invisible.
            assert!(snap
                .execute(Query::Current)
                .elements
                .iter()
                .all(|e| e.valid.begin() != ts(9_999)));
            // The element deleted after the pin reads as current in the view.
            let cur = snap.execute(Query::Current);
            assert!(cur
                .elements
                .iter()
                .any(|e| e.id == ids[7] && e.is_current()));
        }
    }

    #[test]
    fn ordered_plans_keep_their_binary_searches() {
        use tempora_core::spec::interevent::OrderingSpec;
        use tempora_core::Basis;
        let schema = RelationSchema::builder("s", Stamping::Event)
            .ordering(OrderingSpec::GloballySequential, Basis::PerRelation)
            .build()
            .unwrap();
        let clock = Arc::new(ManualClock::new(ts(0)));
        let mut rel = IndexedRelation::new(schema, clock.clone());
        for i in 0..500_i64 {
            clock.set(ts(i * 10 + 5));
            rel.insert(ObjectId::new(1), ts(i * 10), vec![]).unwrap();
        }
        let snap = snapshot_of(&rel, clock.now());
        let result = snap.execute(Query::TimesliceRange { from: ts(1_000), to: ts(1_100) });
        assert_eq!(result.stats.strategy, "append-order-search");
        assert_eq!(result.stats.returned, 10);
        assert!(
            result.stats.examined <= 11,
            "binary search must survive the snapshot, examined {}",
            result.stats.examined
        );
    }

    #[test]
    fn index_probes_keep_their_plan_when_pinned() {
        let schema = RelationSchema::builder("r", Stamping::Event).build().unwrap();
        let clock = Arc::new(ManualClock::new(ts(0)));
        let mut rel = IndexedRelation::new(schema, clock.clone());
        for i in 0..100_i64 {
            clock.set(ts(i + 1));
            rel.insert(ObjectId::new(1), ts(i * 1_000), vec![]).unwrap();
        }
        let snap = snapshot_of(&rel, clock.now());
        let live = rel.execute(Query::Timeslice { vt: ts(50_000) });
        assert_eq!(live.stats.strategy, "point-probe");
        let snapped = snap.execute(Query::Timeslice { vt: ts(50_000) });
        assert_eq!(snapped.stats.strategy, "point-probe");
        assert_eq!(sorted_ids(&snapped.elements), sorted_ids(&live.elements));
    }

    #[test]
    fn pinned_probe_advances_the_operator_counters_by_its_stats() {
        let schema = RelationSchema::builder("r", Stamping::Event).build().unwrap();
        let clock = Arc::new(ManualClock::new(ts(0)));
        let mut rel = IndexedRelation::new(schema, clock.clone());
        for i in 0..3_000_i64 {
            clock.set(ts(i + 1));
            rel.insert(ObjectId::new(1), ts(i % 700), vec![]).unwrap();
        }
        let snap = snapshot_of(&rel, clock.now());
        let q = Query::Timeslice { vt: ts(350) };
        let counters = || {
            let m = tempora_obs::snapshot();
            (
                m.counter_labelled("tempora_query_examined_total", "point-probe").unwrap_or(0),
                m.counter_labelled("tempora_query_returned_total", "point-probe").unwrap_or(0),
            )
        };
        // Other tests in this binary run point probes concurrently; a
        // quiet attempt must match exactly.
        let exact = (0..200).any(|_| {
            let before = counters();
            let stats = snap.execute(q).stats;
            let after = counters();
            assert_eq!((stats.strategy, stats.returned), ("point-probe", 4));
            (after.0 - before.0, after.1 - before.1) == (stats.examined as u64, stats.returned as u64)
        });
        assert!(exact, "counters never advanced by exactly the probe's stats");
    }

    #[test]
    fn pin_in_the_past_replays_history() {
        let schema = RelationSchema::builder("r", Stamping::Event).build().unwrap();
        let clock = Arc::new(ManualClock::new(ts(0)));
        let mut rel = IndexedRelation::new(schema, clock.clone());
        clock.set(ts(10));
        let a = rel.insert(ObjectId::new(1), ts(5), vec![]).unwrap();
        clock.set(ts(20));
        rel.insert(ObjectId::new(2), ts(6), vec![]).unwrap();
        clock.set(ts(30));
        rel.delete(a).unwrap();

        // Pinned between the writes: only the first element, still alive.
        let mid = snapshot_of(&rel, ts(15));
        assert_eq!(mid.len(), 1);
        let cur = mid.execute(Query::Current);
        assert_eq!(cur.stats.returned, 1);
        assert_eq!(cur.elements[0].id, a);
        assert!(cur.elements[0].is_current(), "pre-pin image: not yet deleted");

        // Pinned after the delete: the deletion shows.
        let end = snapshot_of(&rel, ts(30));
        assert_eq!(end.execute(Query::Current).stats.returned, 1);
        assert_eq!(end.len(), 2);
        let pinned: Vec<Element> = end.iter_pinned().collect();
        assert_eq!(pinned.len(), 2);
        assert_eq!(pinned[0].tt_end, Some(ts(30)));
    }
}
