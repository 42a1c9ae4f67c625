//! The specialization-driven planner.
//!
//! Rules, in priority order, for valid-time (historical) queries:
//!
//! 1. **Ordered relations** (degenerate / sequential / relation-wide
//!    non-decreasing): the append order *is* valid-time order — binary
//!    search it ([`Plan::AppendOrderSearch`]). For interval-stamped ordered
//!    relations the search range's lower edge is widened by the maximum
//!    interval duration when a declared interval regularity bounds it.
//! 2. **Bounded relations** (two-sided offset band): convert the valid-time
//!    predicate into a transaction-time window and probe only that
//!    window's chunks through their valid-time runs, plus the residual
//!    filter ([`Plan::TtWindowScan`]). The window's chunks are a subset
//!    of those rule 3 probes, so the proxy never loses to it.
//! 3. Otherwise probe each storage chunk's valid-time run
//!    ([`Plan::PointProbe`] / [`Plan::IntervalProbe`]). Runs keep every
//!    element ever stored — a deletion is a `tt_d` filter at the reader's
//!    pin — so one plan serves live, pinned and as-of reads.
//!
//! Rollback queries always use the transaction-prefix scan — the base
//! order is transaction-time order for every representation (§2). Current
//! queries scan the live set; object histories probe each chunk's object
//! run (the per-surrogate partition).

use tempora_time::{TimeDelta, Timestamp};

use tempora_analyze::predicate;
use tempora_core::{RelationSchema, Stamping};
use tempora_index::{select_index, IndexChoice};

use crate::plan::{AnnotatedPlan, Plan, Query, Residual};

/// Plans a query against a schema, consulting the static analyzer's
/// predicate prover first.
///
/// An always-false predicate (a valid time outside the declared periodic
/// pattern, a bitemporal probe outside the admissible offset band, an
/// inverted event window) short-circuits to [`Plan::EmptyScan`]; an
/// always-true valid-time residual (an ordered event search whose slice
/// *is* the predicate) is demoted to a currency-only check. Both carry
/// their proof for `.explain`.
#[must_use]
pub fn plan_query_annotated(schema: &RelationSchema, query: Query) -> AnnotatedPlan {
    let refutation = match query {
        Query::Timeslice { vt } => predicate::refute_timeslice(schema, vt),
        Query::TimesliceRange { from, to } => predicate::refute_range(schema, from, to),
        Query::Bitemporal { tt, vt } => predicate::refute_bitemporal(schema, tt, vt),
        Query::Current | Query::Rollback { .. } | Query::ObjectHistory { .. } => None,
    };
    if let Some(proof) = refutation {
        planner_decision("empty-scan").inc();
        return AnnotatedPlan::empty(proof);
    }
    let plan = plan_query(schema, query);
    // Always-true residual: an append-order search over an event-stamped
    // relation yields exactly the elements with begin ∈ [from, to), and an
    // event's valid time *is* its begin — when the search window equals
    // the query window the valid-time predicate is proven true for every
    // yielded element, leaving only the currency check. (Bitemporal
    // queries keep the full residual: the as-of check is independent.)
    let window = match query {
        Query::Timeslice { vt } => Some((vt, vt.saturating_add(TimeDelta::RESOLUTION))),
        Query::TimesliceRange { from, to } => Some((from, to)),
        _ => None,
    };
    if let (Some((qf, qt)), Plan::AppendOrderSearch { from, to }) = (window, plan) {
        if schema.stamping() == Stamping::Event && from == qf && to == qt {
            planner_decision("currency-only").inc();
            return AnnotatedPlan {
                plan,
                residual: Residual::CurrencyOnly,
                proof: Some(format!(
                    "append-order slice [{qf}, {qt}) equals the valid-time predicate \
                     for event stamps; residual reduced to the currency check"
                )),
            };
        }
    }
    planner_decision("full-residual").inc();
    AnnotatedPlan::plain(plan)
}

/// Cached handles for the three planner-decision counters
/// (`tempora_planner_decisions_total{decision=…}`).
fn planner_decision(decision: &'static str) -> &'static std::sync::Arc<tempora_obs::Counter> {
    use std::sync::{Arc, OnceLock};
    static EMPTY: OnceLock<Arc<tempora_obs::Counter>> = OnceLock::new();
    static CURRENCY: OnceLock<Arc<tempora_obs::Counter>> = OnceLock::new();
    static FULL: OnceLock<Arc<tempora_obs::Counter>> = OnceLock::new();
    let slot = match decision {
        "empty-scan" => &EMPTY,
        "currency-only" => &CURRENCY,
        _ => &FULL,
    };
    slot.get_or_init(|| {
        tempora_obs::counter_with("tempora_planner_decisions_total", "decision", decision)
    })
}

/// Plans a query against a schema (the access-path choice alone; see
/// [`plan_query_annotated`] for the prover-aware entry point — this
/// function never returns [`Plan::EmptyScan`]).
#[must_use]
pub fn plan_query(schema: &RelationSchema, query: Query) -> Plan {
    match query {
        Query::Current => Plan::FullScan,
        Query::Rollback { tt } => Plan::TtPrefixScan { tt },
        Query::ObjectHistory { object } => Plan::ObjectScan { object },
        Query::Timeslice { vt } => plan_timeslice(schema, vt, vt.saturating_add(TimeDelta::RESOLUTION)),
        Query::TimesliceRange { from, to } => plan_timeslice(schema, from, to),
        Query::Bitemporal { tt, vt } => {
            // Every valid-time access path answers as-of queries: the runs
            // outlive deletions, the band-driven window is additionally
            // clipped at `tt`, and the residual applies the as-of check.
            // Without one, the rollback prefix scan beats a full scan.
            match plan_timeslice(schema, vt, vt.saturating_add(TimeDelta::RESOLUTION)) {
                Plan::FullScan => Plan::TtPrefixScan { tt },
                p => p,
            }
        }
    }
}

/// Plans a valid-time probe over `[from, to)`.
fn plan_timeslice(schema: &RelationSchema, from: Timestamp, to: Timestamp) -> Plan {
    // Interval-stamped relations cover instants earlier than their begin
    // probe point; widen the search floor by the longest possible interval
    // when the schema bounds durations, otherwise ordered search is only
    // availableon the begin endpoint for event relations.
    let probe_floor = match schema.stamping() {
        Stamping::Event => Some(from),
        Stamping::Interval => max_interval_duration(schema).map(|d| from.saturating_sub(d)),
    };
    match select_index(schema) {
        IndexChoice::AppendOrder => {
            if let Some(floor) = probe_floor {
                Plan::AppendOrderSearch { from: floor, to }
            } else {
                Plan::FullScan
            }
        }
        IndexChoice::TtProxy(band) => Plan::TtWindowScan { band, from, to },
        IndexChoice::PointIndex => Plan::PointProbe { from, to },
        IndexChoice::IntervalTree => Plan::IntervalProbe { from, to },
    }
}

/// The longest valid-interval duration the schema's declared interval
/// regularities permit: the unit of a *strict* interval regularity (all
/// intervals exactly that long). Non-strict regularity bounds only the
/// divisor, not the length, so it yields nothing.
pub(crate) fn max_interval_duration(schema: &RelationSchema) -> Option<TimeDelta> {
    schema
        .interval_regularities()
        .iter()
        .filter(|r| {
            r.strict
                && matches!(
                    r.dimension,
                    tempora_core::spec::interval::IntervalRegularDimension::ValidTime
                        | tempora_core::spec::interval::IntervalRegularDimension::Temporal
                )
        })
        .map(|r| r.unit)
        .min()
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempora_core::spec::bound::Bound;
    use tempora_core::spec::event::EventSpec;
    use tempora_core::spec::interevent::OrderingSpec;
    use tempora_core::spec::interinterval::SuccessionSpec;
    use tempora_core::spec::interval::{IntervalRegularDimension, IntervalRegularitySpec};
    use tempora_core::Basis;

    fn ts(s: i64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    #[test]
    fn rollback_is_prefix_scan_everywhere() {
        for schema in [
            RelationSchema::builder("a", Stamping::Event).build().unwrap(),
            RelationSchema::builder("b", Stamping::Event)
                .event_spec(EventSpec::Degenerate)
                .build()
                .unwrap(),
        ] {
            assert!(matches!(
                plan_query(&schema, Query::Rollback { tt: ts(5) }),
                Plan::TtPrefixScan { .. }
            ));
        }
    }

    #[test]
    fn degenerate_timeslice_uses_append_order() {
        let schema = RelationSchema::builder("r", Stamping::Event)
            .event_spec(EventSpec::Degenerate)
            .build()
            .unwrap();
        let plan = plan_query(&schema, Query::Timeslice { vt: ts(100) });
        assert!(matches!(plan, Plan::AppendOrderSearch { .. }), "{plan}");
    }

    #[test]
    fn bounded_timeslice_uses_tt_window() {
        let schema = RelationSchema::builder("r", Stamping::Event)
            .event_spec(EventSpec::StronglyBounded {
                past: Bound::secs(60),
                future: Bound::secs(30),
            })
            .build()
            .unwrap();
        match plan_query(&schema, Query::Timeslice { vt: ts(100) }) {
            Plan::TtWindowScan { band, .. } => {
                assert_eq!(band.lo, Some(-60_000_000));
            }
            other => panic!("expected tt window scan, got {other}"),
        }
    }

    #[test]
    fn general_event_timeslice_uses_point_probe() {
        let schema = RelationSchema::builder("r", Stamping::Event).build().unwrap();
        assert!(matches!(
            plan_query(&schema, Query::Timeslice { vt: ts(1) }),
            Plan::PointProbe { .. }
        ));
    }

    #[test]
    fn general_interval_timeslice_uses_interval_probe() {
        let schema = RelationSchema::builder("r", Stamping::Interval)
            .build()
            .unwrap();
        assert!(matches!(
            plan_query(&schema, Query::TimesliceRange { from: ts(0), to: ts(10) }),
            Plan::IntervalProbe { .. }
        ));
    }

    #[test]
    fn ordered_interval_relation_widens_by_strict_duration() {
        // Weekly contiguous assignments: ordered arrival + strict 7-day
        // durations ⇒ append-order search with a 7-day widened floor.
        let schema = RelationSchema::builder("weeks", Stamping::Interval)
            .succession(SuccessionSpec::GloballyNonDecreasing, Basis::PerRelation)
            .interval_regularity(
                IntervalRegularitySpec::new(
                    IntervalRegularDimension::ValidTime,
                    TimeDelta::from_days(7),
                )
                .strict(),
            )
            .build()
            .unwrap();
        match plan_query(&schema, Query::Timeslice { vt: ts(1_000_000) }) {
            Plan::AppendOrderSearch { from, .. } => {
                assert_eq!(from, ts(1_000_000) - TimeDelta::from_days(7));
            }
            other => panic!("expected append-order search, got {other}"),
        }
    }

    #[test]
    fn ordered_interval_without_duration_bound_falls_back() {
        // Ordered arrival but unbounded interval lengths: an old interval
        // may still cover the probe, so no sound search floor exists.
        let schema = RelationSchema::builder("r", Stamping::Interval)
            .succession(SuccessionSpec::GloballyNonDecreasing, Basis::PerRelation)
            .build()
            .unwrap();
        assert!(matches!(
            plan_query(&schema, Query::Timeslice { vt: ts(100) }),
            Plan::FullScan
        ));
    }

    #[test]
    fn sequential_event_relation_searchable() {
        let schema = RelationSchema::builder("r", Stamping::Event)
            .ordering(OrderingSpec::GloballySequential, Basis::PerRelation)
            .build()
            .unwrap();
        assert!(matches!(
            plan_query(&schema, Query::TimesliceRange { from: ts(0), to: ts(10) }),
            Plan::AppendOrderSearch { .. }
        ));
    }

    #[test]
    fn refuted_bitemporal_probe_plans_empty_scan() {
        let schema = RelationSchema::builder("r", Stamping::Event)
            .event_spec(EventSpec::PredictivelyBounded {
                bound: Bound::secs(30),
            })
            .build()
            .unwrap();
        // vt runs 100 s ahead of tt but the band caps the lead at 30 s.
        let ap = plan_query_annotated(&schema, Query::Bitemporal { tt: ts(0), vt: ts(100) });
        assert_eq!(ap.plan, Plan::EmptyScan);
        assert!(ap.proof.is_some());
        // An admissible probe plans normally.
        let ok = plan_query_annotated(&schema, Query::Bitemporal { tt: ts(0), vt: ts(10) });
        assert_ne!(ok.plan, Plan::EmptyScan);
    }

    #[test]
    fn inverted_event_window_plans_empty_scan() {
        let schema = RelationSchema::builder("r", Stamping::Event).build().unwrap();
        let ap = plan_query_annotated(
            &schema,
            Query::TimesliceRange { from: ts(10), to: ts(5) },
        );
        assert_eq!(ap.plan, Plan::EmptyScan);
        // Interval stamps can straddle an inverted residual window.
        let iv = RelationSchema::builder("i", Stamping::Interval).build().unwrap();
        let ap = plan_query_annotated(&iv, Query::TimesliceRange { from: ts(10), to: ts(5) });
        assert_ne!(ap.plan, Plan::EmptyScan);
    }

    #[test]
    fn ordered_event_search_drops_vt_residual() {
        let schema = RelationSchema::builder("r", Stamping::Event)
            .ordering(OrderingSpec::GloballySequential, Basis::PerRelation)
            .build()
            .unwrap();
        let ap = plan_query_annotated(
            &schema,
            Query::TimesliceRange { from: ts(0), to: ts(10) },
        );
        assert!(matches!(ap.plan, Plan::AppendOrderSearch { .. }));
        assert_eq!(ap.residual, crate::plan::Residual::CurrencyOnly);
        assert!(ap.proof.is_some());
        // Bitemporal queries keep the full residual (the as-of check).
        let bi = plan_query_annotated(&schema, Query::Bitemporal { tt: ts(5), vt: ts(3) });
        assert_eq!(bi.residual, crate::plan::Residual::Full);
        // Interval-stamped ordered relations keep the full residual too:
        // the widened slice over-approximates the window.
        let weeks = RelationSchema::builder("weeks", Stamping::Interval)
            .succession(SuccessionSpec::GloballyNonDecreasing, Basis::PerRelation)
            .interval_regularity(
                IntervalRegularitySpec::new(
                    IntervalRegularDimension::ValidTime,
                    TimeDelta::from_days(7),
                )
                .strict(),
            )
            .build()
            .unwrap();
        let wp = plan_query_annotated(&weeks, Query::Timeslice { vt: ts(1_000_000) });
        assert!(matches!(wp.plan, Plan::AppendOrderSearch { .. }));
        assert_eq!(wp.residual, crate::plan::Residual::Full);
    }

    #[test]
    fn object_history_plans_partition_walk() {
        let schema = RelationSchema::builder("r", Stamping::Event).build().unwrap();
        let object = tempora_core::ObjectId::new(7);
        assert_eq!(
            plan_query(&schema, Query::ObjectHistory { object }),
            Plan::ObjectScan { object }
        );
    }
}
