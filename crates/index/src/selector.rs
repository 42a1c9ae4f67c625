//! Index-strategy selection from declared specializations.
//!
//! The decision procedure behind §1's promise that specialization
//! semantics "may be used for selecting appropriate storage structures
//! [and] indexing techniques":
//!
//! 1. a **degenerate** or relation-wide **ordered** relation needs no
//!    valid-time index at all — the base order serves both dimensions;
//! 2. a relation whose insertion-referenced specializations yield a
//!    two-sidedly bounded offset band gets the **tt-proxy** strategy
//!    (valid-time predicates become transaction-time ranges, whose
//!    chunks are probed through the valid-time run the stamping calls
//!    for — a window probe visits a subset of the chunks a plain run
//!    probe visits, so the proxy never loses to it);
//! 3. otherwise a dedicated valid-time index is required: a sorted point
//!    run for event relations, a begin-sorted interval run for interval
//!    relations, kept per storage chunk (see
//!    [`ChunkRuns`](crate::ChunkRuns)).

use tempora_core::region::OffsetBand;
use tempora_core::{RelationSchema, Stamping};

/// The selected valid-time access strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum IndexChoice {
    /// The base (append) order serves valid-time queries directly — no
    /// auxiliary structure.
    AppendOrder,
    /// Translate a valid-time probe through the offset band into a
    /// transaction-time window, and probe the window's chunks through
    /// the valid-time run the stamping calls for.
    TtProxy(
        /// The conservative insertion band (both sides finite).
        OffsetBand,
    ),
    /// Keep a sorted run of event valid times per storage chunk.
    PointIndex,
    /// Keep a begin-sorted run of valid intervals, with their longest
    /// length, per storage chunk.
    IntervalTree,
}

/// Selects the valid-time access strategy for a schema.
#[must_use]
pub fn select_index(schema: &RelationSchema) -> IndexChoice {
    if schema.is_degenerate() || schema.is_vt_ordered() {
        return IndexChoice::AppendOrder;
    }
    let band = schema.insertion_band();
    if band.lo.is_some() && band.hi.is_some() {
        return IndexChoice::TtProxy(band);
    }
    match schema.stamping() {
        Stamping::Event => IndexChoice::PointIndex,
        Stamping::Interval => IndexChoice::IntervalTree,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempora_core::spec::bound::Bound;
    use tempora_core::spec::event::EventSpec;
    use tempora_core::spec::interevent::OrderingSpec;
    use tempora_core::spec::interval::{Endpoint, IntervalEndpointSpec};
    use tempora_core::Basis;

    #[test]
    fn degenerate_gets_append_order() {
        let schema = RelationSchema::builder("r", Stamping::Event)
            .event_spec(EventSpec::Degenerate)
            .build()
            .unwrap();
        assert_eq!(select_index(&schema), IndexChoice::AppendOrder);
    }

    #[test]
    fn sequential_gets_append_order() {
        let schema = RelationSchema::builder("r", Stamping::Event)
            .ordering(OrderingSpec::GloballySequential, Basis::PerRelation)
            .build()
            .unwrap();
        assert_eq!(select_index(&schema), IndexChoice::AppendOrder);
    }

    #[test]
    fn bounded_gets_tt_proxy() {
        let schema = RelationSchema::builder("r", Stamping::Event)
            .event_spec(EventSpec::StronglyBounded {
                past: Bound::secs(60),
                future: Bound::secs(30),
            })
            .build()
            .unwrap();
        match select_index(&schema) {
            IndexChoice::TtProxy(band) => {
                assert_eq!(band.lo, Some(-60_000_000));
                assert_eq!(band.hi, Some(30_000_000));
            }
            other => panic!("expected tt proxy, got {other:?}"),
        }
    }

    #[test]
    fn one_sided_bound_falls_back_to_point_index() {
        // Retroactive bounds only one side: no finite window.
        let schema = RelationSchema::builder("r", Stamping::Event)
            .event_spec(EventSpec::Retroactive)
            .build()
            .unwrap();
        assert_eq!(select_index(&schema), IndexChoice::PointIndex);
    }

    #[test]
    fn general_event_gets_point_index() {
        let schema = RelationSchema::builder("r", Stamping::Event).build().unwrap();
        assert_eq!(select_index(&schema), IndexChoice::PointIndex);
    }

    #[test]
    fn general_interval_gets_interval_tree() {
        let schema = RelationSchema::builder("r", Stamping::Interval)
            .build()
            .unwrap();
        assert_eq!(select_index(&schema), IndexChoice::IntervalTree);
    }

    #[test]
    fn bounded_interval_begin_gets_tt_proxy() {
        let schema = RelationSchema::builder("r", Stamping::Interval)
            .endpoint_spec(IntervalEndpointSpec::new(
                Endpoint::Begin,
                EventSpec::StronglyBounded {
                    past: Bound::secs(10),
                    future: Bound::secs(10),
                },
            ))
            .build()
            .unwrap();
        assert!(matches!(select_index(&schema), IndexChoice::TtProxy(_)));
    }

    #[test]
    fn per_object_ordering_does_not_unlock_append_order() {
        let schema = RelationSchema::builder("r", Stamping::Event)
            .ordering(OrderingSpec::GloballyNonDecreasing, Basis::PerObject)
            .build()
            .unwrap();
        assert_eq!(select_index(&schema), IndexChoice::PointIndex);
    }
}
