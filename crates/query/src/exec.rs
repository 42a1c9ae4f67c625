//! The executor: an indexed relation and plan evaluation with statistics.

use std::fmt;
use std::sync::{Arc, OnceLock};

use tempora_time::{TimeDelta, Timestamp, TransactionClock};

use tempora_core::{
    AttrName, CoreError, Element, ElementId, ObjectId, RelationSchema, Stamping, ValidTime, Value,
};
use tempora_index::{select_index, IndexChoice, RunProbe};
use tempora_obs::{Counter, Histogram};
use tempora_storage::{BatchRecord, BatchReport, ElementChunks, Enforcement, TemporalRelation};

use crate::optimizer::plan_query_annotated;
use crate::plan::{AnnotatedPlan, Plan, Query, Residual};
use crate::snapshot::{clamp_to_pin, pinned_predicate};

/// Execution statistics: the asymptotic story benches report alongside
/// wall-clock time.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExecStats {
    /// Elements the plan touched (scanned or probed).
    pub examined: usize,
    /// Elements returned.
    pub returned: usize,
    /// Sorted key runs binary searched: a chunk's own run or a span over
    /// several chunks. Zero for plans that read positions in order.
    pub runs: usize,
    /// The physical strategy used.
    pub strategy: &'static str,
}

impl fmt::Display for ExecStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{}: examined {} returned {}",
            self.strategy, self.examined, self.returned
        )
    }
}

/// A query answer: matching elements plus execution statistics.
#[derive(Debug, Clone)]
pub struct QueryResult {
    /// The matching elements (cloned out of the store).
    pub elements: Vec<Element>,
    /// How the answer was computed.
    pub stats: ExecStats,
}

/// A temporal relation and its plan-driven executor.
///
/// The index strategy comes from [`tempora_index::select_index`]: the
/// storage chunks keep a valid-time key run unless the relation is
/// ordered, where the append order needs no auxiliary structure at all —
/// that absence is the storage payoff the paper promises. A bounded
/// relation's offset band narrows a probe to its transaction-time
/// window's chunks.
pub struct IndexedRelation {
    relation: TemporalRelation,
    choice: IndexChoice,
}

impl IndexedRelation {
    /// Creates an indexed relation (enforcing constraints).
    #[must_use]
    pub fn new(schema: Arc<RelationSchema>, clock: Arc<dyn TransactionClock>) -> Self {
        let choice = select_index(&schema);
        IndexedRelation {
            relation: TemporalRelation::new(schema, clock),
            choice,
        }
    }

    /// Sets the enforcement mode (builder style).
    #[must_use]
    pub fn with_enforcement(mut self, mode: Enforcement) -> Self {
        self.relation = self.relation.with_enforcement(mode);
        self
    }

    /// Sets the ingest shard count used by [`Self::apply_batch`] (builder
    /// style; see [`TemporalRelation::set_ingest_shards`]).
    #[must_use]
    pub fn with_ingest_shards(mut self, shards: usize) -> Self {
        self.relation = self.relation.with_ingest_shards(shards);
        self
    }

    /// Sets the ingest shard count used by [`Self::apply_batch`].
    pub fn set_ingest_shards(&mut self, shards: usize) {
        self.relation.set_ingest_shards(shards);
    }

    /// The underlying relation.
    #[must_use]
    pub fn relation(&self) -> &TemporalRelation {
        &self.relation
    }

    /// The selected index strategy.
    #[must_use]
    pub fn index_choice(&self) -> IndexChoice {
        self.choice
    }

    /// Inserts a fact (see [`TemporalRelation::insert`]).
    ///
    /// # Errors
    ///
    /// Propagates constraint violations.
    pub fn insert(
        &mut self,
        object: ObjectId,
        valid: impl Into<ValidTime>,
        attrs: Vec<(AttrName, Value)>,
    ) -> Result<ElementId, CoreError> {
        self.relation.insert(object, valid, attrs)
    }

    /// Applies an insertion batch (see [`TemporalRelation::apply_batch`],
    /// including the sharded-parallel checking it performs when the schema
    /// permits).
    pub fn apply_batch(&mut self, records: Vec<BatchRecord>) -> BatchReport {
        self.relation.apply_batch(records)
    }

    /// Logically deletes an element. Its index keys stay: readers filter
    /// it by `tt_d` at their pin.
    ///
    /// # Errors
    ///
    /// Propagates [`TemporalRelation::delete`] errors.
    pub fn delete(&mut self, id: ElementId) -> Result<Timestamp, CoreError> {
        self.relation.delete(id)
    }

    /// Modifies an element (see [`TemporalRelation::modify`]).
    ///
    /// # Errors
    ///
    /// Propagates constraint violations; the relation is unchanged on
    /// failure.
    pub fn modify(
        &mut self,
        id: ElementId,
        valid: impl Into<ValidTime>,
        attrs: Vec<(AttrName, Value)>,
    ) -> Result<ElementId, CoreError> {
        self.relation.modify(id, valid, attrs)
    }

    /// Runs a vacuum pass with the given policy (see
    /// [`tempora_storage::vacuum`]). Only logically deleted elements are
    /// reclaimed; the store rebuilds its chunks and their key runs around
    /// them. Returns the number of elements reclaimed.
    pub fn vacuum(
        &mut self,
        policy: tempora_storage::vacuum::VacuumPolicy,
        now: Timestamp,
    ) -> usize {
        tempora_storage::vacuum::vacuum(&mut self.relation, policy, now)
    }

    /// Plans and executes a query, applying the static analyzer's
    /// predicate proofs: provably empty queries short-circuit without
    /// touching the store, and proven-true valid-time residuals are
    /// dropped.
    #[must_use]
    pub fn execute(&self, query: Query) -> QueryResult {
        let annotated = plan_query_annotated(self.relation.schema(), query);
        self.run(query, annotated.plan, annotated.residual)
    }

    /// Current elements whose valid time covers `vt` (the valid-timeslice
    /// read), routed through the planner — and therefore through the
    /// chunks' point or interval runs when the schema selected one —
    /// rather than [`TemporalRelation::timeslice`]'s storage-level path,
    /// which does not probe the runs and scans interval-stamped
    /// relations.
    #[must_use]
    pub fn timeslice(&self, vt: Timestamp) -> QueryResult {
        self.execute(Query::Timeslice { vt })
    }

    /// Explains how [`Self::execute`] would answer a query: the chosen
    /// plan, the residual predicate strength, and the analyzer's proof
    /// when one rewrote the plan.
    #[must_use]
    pub fn explain(&self, query: Query) -> AnnotatedPlan {
        plan_query_annotated(self.relation.schema(), query)
    }

    /// Executes a query with an explicitly chosen plan and the full
    /// residual predicate (benches use this to compare strategies on the
    /// same data; it also serves as the unoptimized oracle the
    /// differential tests compare [`Self::execute`] against).
    #[must_use]
    pub fn execute_plan(&self, query: Query, plan: Plan) -> QueryResult {
        self.run(query, plan, Residual::Full)
    }

    fn run(&self, query: Query, plan: Plan, residual: Residual) -> QueryResult {
        let elements = self.relation.elements();
        let view = View {
            schema: self.relation.schema(),
            elements,
            pin: Timestamp::MAX,
            visible: elements.len(),
        };
        view.run(query, plan, residual)
    }
}

impl fmt::Debug for IndexedRelation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("IndexedRelation")
            .field("relation", &self.relation)
            .field("choice", &self.choice)
            .finish()
    }
}

/// The transaction-time window `[lo, hi]` a [`Plan::TtWindowScan`] probes:
/// the valid-time probe translated through the declared offset band, with
/// the interval-duration floor for interval stamps and the as-of clip for
/// bitemporal queries.
fn tt_window_edges(
    schema: &RelationSchema,
    query: Query,
    band: tempora_core::region::OffsetBand,
    from: Timestamp,
    to: Timestamp,
) -> (Timestamp, Timestamp) {
    let probe_floor = match schema.stamping() {
        Stamping::Event => Some(from),
        // Interval begins may precede the probe by up to the interval's
        // duration; the optimizer only emits this plan when durations are
        // bounded, but stay sound by falling back to an unbounded floor
        // otherwise.
        Stamping::Interval => {
            crate::optimizer::max_interval_duration(schema).map(|d| from.saturating_sub(d))
        }
    };
    let last_vt = to.saturating_sub(TimeDelta::RESOLUTION);
    let lo_edge = match (probe_floor, band.hi) {
        (Some(floor), Some(hi)) => floor.saturating_sub(TimeDelta::from_micros(hi)),
        _ => Timestamp::MIN,
    };
    let mut hi_edge = match band.lo {
        Some(lo) => last_vt.saturating_sub(TimeDelta::from_micros(lo)),
        None => Timestamp::MAX,
    };
    // As-of queries never see elements stored after `tt`.
    if let Query::Bitemporal { tt, .. } = query {
        hi_edge = hi_edge.min(tt);
    }
    (lo_edge, hi_edge)
}

/// The tt-ordered element view a plan runs over, pinned at a transaction
/// tick: the live relation's store read in place at [`Timestamp::MAX`]
/// (under which `existed_at` is `is_current` for every stored element), or
/// a snapshot's chunks at its pin. Live and pinned reads share this one
/// plan loop, one predicate and the chunks' key runs.
pub(crate) struct View<'a> {
    pub(crate) schema: &'a RelationSchema,
    pub(crate) elements: &'a ElementChunks,
    pub(crate) pin: Timestamp,
    /// Number of leading elements with `tt_b ≤ pin` — the visible prefix.
    pub(crate) visible: usize,
}

impl View<'_> {
    /// Executes `plan` for `query`. Index probes, tt-window scans and
    /// object scans probe the key runs over their position range — the
    /// visible prefix, or the band's transaction-time window — through
    /// [`ElementChunks::probe`]: valid-time spans where the range holds
    /// them, a chunk's own run elsewhere, and the probe's key filter on a
    /// chunk without the run (the open tail). Every other plan is one run
    /// of positions in the tt-ordered view.
    pub(crate) fn run(&self, query: Query, plan: Plan, residual: Residual) -> QueryResult {
        let strategy = plan.strategy_name();
        let span = if self.pin == Timestamp::MAX {
            "query-execute"
        } else {
            "snapshot-query-execute"
        };
        let _span = tempora_obs::span_with(span, strategy);
        let sw = tempora_obs::Stopwatch::start();
        let pin = self.pin;
        // The residual a plan leaves: the query's own predicate, or just
        // currency for a proven valid-time slice. An object scan's filter
        // is its object alone (deleted elements stay in a life-line).
        // Called through a trait object: with the predicate's match inlined
        // into the scan, the 100 000-row pinned scan of `scan_probe`
        // measured 7–15 % slower (2-vCPU x86-64 Xeon).
        let keep: &dyn Fn(&Element) -> bool = &pinned_predicate(
            match (plan, residual) {
                (Plan::ObjectScan { object }, _) => Query::ObjectHistory { object },
                (_, Residual::Full) => query,
                (_, Residual::CurrencyOnly) => Query::Current,
            },
            pin,
        );
        let mut examined = 0usize;
        let mut runs = 0usize;
        let mut elements: Vec<Element> = Vec::new();
        let mut take = |e: &Element| {
            examined += 1;
            if keep(e) {
                elements.push(clamp_to_pin(e, pin));
            }
        };
        let prefix = |tt: Timestamp| self.elements.partition_point(|e| e.tt_begin <= tt);
        let ordered = self.schema.is_degenerate() || self.schema.is_vt_ordered();

        let mut by_runs = |range, probe| {
            runs += self.elements.probe(range, probe, &mut take);
            0..0
        };
        let scan = match plan {
            Plan::PointProbe { from, to } | Plan::IntervalProbe { from, to } => {
                by_runs(0..self.visible, RunProbe::Valid { from, to })
            }
            Plan::ObjectScan { object } => by_runs(0..self.visible, RunProbe::Object(object)),
            Plan::TtWindowScan { band, from, to } => {
                let (lo_edge, hi_edge) = tt_window_edges(self.schema, query, band, from, to);
                // Elements stored after the pin are invisible regardless
                // of the window.
                let lo = self.elements.partition_point(|e| e.tt_begin < lo_edge);
                by_runs(lo..prefix(hi_edge.min(pin)), RunProbe::Valid { from, to })
            }
            Plan::AppendOrderSearch { from, to } if ordered => {
                // The base order is also valid-time order; binary search
                // the run, clipped to the visible prefix.
                let lo = self.elements.partition_point(|e| e.valid.begin() < from);
                let hi = self.elements.partition_point(|e| e.valid.begin() < to);
                lo.min(self.visible)..hi.min(self.visible)
            }
            Plan::FullScan | Plan::AppendOrderSearch { .. } => 0..self.visible,
            Plan::TtPrefixScan { tt } => 0..prefix(tt.min(pin)),
            Plan::EmptyScan => 0..0,
        };
        self.elements.range(scan).for_each(take);
        let returned = elements.len();
        let metrics = OperatorMetrics::of(plan);
        sw.record(&metrics.exec);
        metrics.examined.add(examined as u64);
        metrics.returned.add(returned as u64);
        metrics.runs.add(runs as u64);
        QueryResult {
            elements,
            stats: ExecStats {
                examined,
                returned,
                runs,
                strategy,
            },
        }
    }
}

/// One operator's metrics, labelled `operator` = the plan's strategy name:
/// `tempora_query_exec_seconds`, `tempora_query_examined_total`,
/// `tempora_query_returned_total` and `tempora_query_runs_searched_total`.
/// Resolved once per strategy, so a query takes no registry lock.
struct OperatorMetrics {
    exec: Arc<Histogram>,
    examined: Arc<Counter>,
    returned: Arc<Counter>,
    runs: Arc<Counter>,
}

impl OperatorMetrics {
    fn of(plan: Plan) -> &'static OperatorMetrics {
        static SLOTS: [OnceLock<OperatorMetrics>; 8] = [const { OnceLock::new() }; 8];
        let slot = match plan {
            Plan::FullScan => 0,
            Plan::TtPrefixScan { .. } => 1,
            Plan::AppendOrderSearch { .. } => 2,
            Plan::TtWindowScan { .. } => 3,
            Plan::PointProbe { .. } => 4,
            Plan::IntervalProbe { .. } => 5,
            Plan::ObjectScan { .. } => 6,
            Plan::EmptyScan => 7,
        };
        SLOTS[slot].get_or_init(|| {
            let operator = plan.strategy_name();
            OperatorMetrics {
                exec: tempora_obs::histogram_with("tempora_query_exec_seconds", "operator", operator),
                examined: tempora_obs::counter_with("tempora_query_examined_total", "operator", operator),
                returned: tempora_obs::counter_with("tempora_query_returned_total", "operator", operator),
                runs: tempora_obs::counter_with("tempora_query_runs_searched_total", "operator", operator),
            }
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempora_core::spec::bound::Bound;
    use tempora_core::spec::event::EventSpec;
    use tempora_core::spec::interevent::OrderingSpec;
    use tempora_core::Basis;
    use tempora_time::ManualClock;

    fn ts(s: i64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    fn clock_at(s: i64) -> Arc<ManualClock> {
        Arc::new(ManualClock::new(ts(s)))
    }

    /// Loads `n` elements with offsets cycling in [−30, +30] s.
    fn load_bounded(n: i64) -> (IndexedRelation, Arc<ManualClock>) {
        let schema = RelationSchema::builder("r", Stamping::Event)
            .event_spec(EventSpec::StronglyBounded {
                past: Bound::secs(30),
                future: Bound::secs(30),
            })
            .build()
            .unwrap();
        let clock = clock_at(0);
        let mut rel = IndexedRelation::new(schema, clock.clone());
        for i in 0..n {
            clock.set(ts(i * 100));
            let vt = ts(i * 100 + (i % 7) * 10 - 30);
            rel.insert(ObjectId::new(1), vt, vec![]).unwrap();
        }
        (rel, clock)
    }

    #[test]
    fn tt_window_scan_examines_fraction() {
        let (rel, _) = load_bounded(1_000);
        assert!(matches!(rel.index_choice(), IndexChoice::TtProxy(_)));
        let probe = ts(500 * 100 + 10 - 30); // element 500's vt (500 % 7 = 3? compute below)
        // Probe element 500's actual vt.
        let vt = ts(500 * 100 + (500 % 7) * 10 - 30);
        let _ = probe;
        let result = rel.execute(Query::Timeslice { vt });
        assert_eq!(result.stats.strategy, "tt-window-scan");
        assert_eq!(result.stats.returned, 1);
        assert!(
            result.stats.examined <= 3,
            "window should touch ≤3 of 1000 elements, touched {}",
            result.stats.examined
        );
        // Exactness versus the full scan.
        let full = rel.execute_plan(Query::Timeslice { vt }, Plan::FullScan);
        assert_eq!(full.stats.examined, 1_000);
        assert_eq!(
            sorted_ids(&result.elements),
            sorted_ids(&full.elements)
        );
    }

    fn sorted_ids(elements: &[Element]) -> Vec<ElementId> {
        let mut v: Vec<ElementId> = elements.iter().map(|e| e.id).collect();
        v.sort();
        v
    }

    #[test]
    fn point_index_used_for_general_relation() {
        let schema = RelationSchema::builder("r", Stamping::Event).build().unwrap();
        let clock = clock_at(0);
        let mut rel = IndexedRelation::new(schema, clock.clone());
        for i in 0..100_i64 {
            clock.set(ts(i + 1));
            rel.insert(ObjectId::new(1), ts(i * 1_000), vec![]).unwrap();
        }
        let result = rel.execute(Query::Timeslice { vt: ts(50_000) });
        assert_eq!(result.stats.strategy, "point-probe");
        assert_eq!(result.stats.returned, 1);
        assert_eq!(result.stats.examined, 1);
    }

    #[test]
    fn append_order_search_for_sequential() {
        let schema = RelationSchema::builder("r", Stamping::Event)
            .ordering(OrderingSpec::GloballySequential, Basis::PerRelation)
            .build()
            .unwrap();
        let clock = clock_at(0);
        let mut rel = IndexedRelation::new(schema, clock.clone());
        for i in 0..500_i64 {
            clock.set(ts(i * 10 + 5));
            rel.insert(ObjectId::new(1), ts(i * 10), vec![]).unwrap();
        }
        assert_eq!(rel.index_choice(), IndexChoice::AppendOrder);
        let result = rel.execute(Query::TimesliceRange {
            from: ts(1_000),
            to: ts(1_100),
        });
        assert_eq!(result.stats.strategy, "append-order-search");
        assert_eq!(result.stats.returned, 10);
        assert!(result.stats.examined <= 11);
    }

    #[test]
    fn rollback_prefix_scan() {
        let (rel, _) = load_bounded(100);
        let result = rel.execute(Query::Rollback { tt: ts(50 * 100) });
        assert_eq!(result.stats.strategy, "tt-prefix-scan");
        assert_eq!(result.stats.returned, 51); // elements 0..=50
    }

    #[test]
    fn deleted_elements_leave_index() {
        let schema = RelationSchema::builder("r", Stamping::Event).build().unwrap();
        let clock = clock_at(0);
        let mut rel = IndexedRelation::new(schema, clock.clone());
        clock.set(ts(10));
        let id = rel.insert(ObjectId::new(1), ts(5), vec![]).unwrap();
        clock.set(ts(20));
        rel.delete(id).unwrap();
        let result = rel.execute(Query::Timeslice { vt: ts(5) });
        assert_eq!(result.stats.returned, 0);
        // The run entry outlives the delete; the `tt_d` filter rejects it.
        assert_eq!(result.stats.examined, 1);
        // Rollback still sees it.
        let rb = rel.execute(Query::Rollback { tt: ts(15) });
        assert_eq!(rb.stats.returned, 1);
    }

    #[test]
    fn modify_moves_index_entry() {
        let schema = RelationSchema::builder("r", Stamping::Event).build().unwrap();
        let clock = clock_at(0);
        let mut rel = IndexedRelation::new(schema, clock.clone());
        clock.set(ts(10));
        let id = rel.insert(ObjectId::new(1), ts(5), vec![]).unwrap();
        clock.set(ts(20));
        rel.modify(id, ts(500), vec![]).unwrap();
        assert_eq!(rel.execute(Query::Timeslice { vt: ts(5) }).stats.returned, 0);
        assert_eq!(rel.execute(Query::Timeslice { vt: ts(500) }).stats.returned, 1);
    }

    #[test]
    fn interval_relation_stabbing() {
        let schema = RelationSchema::builder("r", Stamping::Interval)
            .build()
            .unwrap();
        let clock = clock_at(0);
        let mut rel = IndexedRelation::new(schema, clock.clone());
        for i in 0..100_i64 {
            clock.set(ts(i + 1));
            let iv = tempora_time::Interval::new(ts(i * 10), ts(i * 10 + 25)).unwrap();
            rel.insert(ObjectId::new(1), iv, vec![]).unwrap();
        }
        let result = rel.execute(Query::Timeslice { vt: ts(500) });
        assert_eq!(result.stats.strategy, "interval-probe");
        // Intervals [480,505), [490,515), [500,525) cover 500.
        assert_eq!(result.stats.returned, 3);
        let full = rel.execute_plan(Query::Timeslice { vt: ts(500) }, Plan::FullScan);
        assert_eq!(sorted_ids(&result.elements), sorted_ids(&full.elements));
    }

    #[test]
    fn timeslice_routes_through_interval_index_not_a_scan() {
        // Regression test for the unindexed-timeslice bug: with interval
        // runs kept on the relation's chunks, the timeslice read
        // must probe it instead of scanning every element — and must
        // still agree with the exhaustive storage-level scan oracle.
        let schema = RelationSchema::builder("r", Stamping::Interval)
            .build()
            .unwrap();
        let clock = clock_at(0);
        let mut rel = IndexedRelation::new(schema, clock.clone());
        let n = 2_000_i64;
        for i in 0..n {
            clock.set(ts(i + 1));
            let iv = tempora_time::Interval::new(ts(i * 10), ts(i * 10 + 25)).unwrap();
            rel.insert(ObjectId::new(1), iv, vec![]).unwrap();
        }
        assert_eq!(rel.index_choice(), IndexChoice::IntervalTree);
        let probe = ts(10_000);
        let result = rel.timeslice(probe);
        assert_eq!(result.stats.strategy, "interval-probe");
        assert!(
            result.stats.examined <= 8,
            "indexed timeslice examined {} of {n} elements — it is scanning",
            result.stats.examined
        );
        // Exactness against the storage scan oracle.
        let oracle: Vec<ElementId> = {
            let mut v: Vec<ElementId> = rel
                .relation()
                .timeslice_scan(probe)
                .iter()
                .map(|e| e.id)
                .collect();
            v.sort();
            v
        };
        assert_eq!(sorted_ids(&result.elements), oracle);
    }

    #[test]
    fn object_history_includes_deleted() {
        let schema = RelationSchema::builder("r", Stamping::Event).build().unwrap();
        let clock = clock_at(0);
        let mut rel = IndexedRelation::new(schema, clock.clone());
        clock.set(ts(10));
        let a = rel.insert(ObjectId::new(1), ts(5), vec![]).unwrap();
        clock.set(ts(20));
        rel.insert(ObjectId::new(2), ts(6), vec![]).unwrap();
        clock.set(ts(30));
        rel.modify(a, ts(7), vec![]).unwrap();
        let result = rel.execute(Query::ObjectHistory {
            object: ObjectId::new(1),
        });
        assert_eq!(result.stats.strategy, "object-scan");
        assert_eq!(result.stats.returned, 2); // original + modified version
    }

    #[test]
    fn vacuum_through_indexed_relation() {
        use tempora_storage::vacuum::VacuumPolicy;
        let schema = RelationSchema::builder("r", Stamping::Event).build().unwrap();
        let clock = clock_at(0);
        let mut rel = IndexedRelation::new(schema, clock.clone());
        let mut ids = Vec::new();
        for i in 1..=10_i64 {
            clock.set(ts(i * 10));
            ids.push(rel.insert(ObjectId::new(1), ts(i), vec![]).unwrap());
        }
        for id in &ids[..5] {
            clock.advance(TimeDelta::from_secs(1));
            rel.delete(*id).unwrap();
        }
        let reclaimed = rel.vacuum(
            VacuumPolicy::ValidHorizon { horizon: ts(100) },
            clock.now(),
        );
        assert_eq!(reclaimed, 5);
        // Queries over current data are unaffected.
        assert_eq!(rel.execute(Query::Current).stats.returned, 5);
        assert_eq!(rel.execute(Query::Timeslice { vt: ts(7) }).stats.returned, 1);
    }

    #[test]
    fn bitemporal_point_query() {
        let schema = RelationSchema::builder("r", Stamping::Event).build().unwrap();
        let clock = clock_at(0);
        let mut rel = IndexedRelation::new(schema, clock.clone());
        clock.set(ts(10));
        let a = rel.insert(ObjectId::new(1), ts(100), vec![]).unwrap();
        clock.set(ts(20));
        rel.modify(a, ts(100), vec![(AttrName::new("v"), Value::Int(2))])
            .unwrap();
        // As believed at tt 15, vt 100 was covered by the original element.
        let before = rel.execute(Query::Bitemporal { tt: ts(15), vt: ts(100) });
        assert_eq!(before.stats.returned, 1);
        assert_eq!(before.elements[0].id, a);
        // As believed at tt 25, the corrected element holds.
        let after = rel.execute(Query::Bitemporal { tt: ts(25), vt: ts(100) });
        assert_eq!(after.stats.returned, 1);
        assert_ne!(after.elements[0].id, a);
        // Before anything was stored: empty.
        let none = rel.execute(Query::Bitemporal { tt: ts(5), vt: ts(100) });
        assert_eq!(none.stats.returned, 0);
    }

    #[test]
    fn bitemporal_uses_clipped_tt_window_when_bounded() {
        let (rel, _) = load_bounded(1_000);
        let e = rel.relation().iter().nth(500).unwrap();
        let (vt, tt) = (e.valid.begin(), e.tt_begin);
        let r = rel.execute(Query::Bitemporal { tt, vt });
        assert_eq!(r.stats.strategy, "tt-window-scan");
        assert!(r.stats.returned >= 1);
        assert!(r.stats.examined <= 3, "examined {}", r.stats.examined);
        // Equivalence with the sound prefix scan.
        let slow = rel.execute_plan(Query::Bitemporal { tt, vt }, Plan::TtPrefixScan { tt });
        assert_eq!(sorted_ids(&r.elements), sorted_ids(&slow.elements));
        // Clipping: as of *before* the element was stored, it is invisible
        // even though the window would otherwise cover it.
        let earlier = rel.execute(Query::Bitemporal {
            tt: tt - TimeDelta::RESOLUTION,
            vt,
        });
        assert!(!earlier.elements.iter().any(|x| x.id == e.id));
    }

    #[test]
    fn refuted_query_short_circuits_without_touching_the_store() {
        let schema = RelationSchema::builder("r", Stamping::Event)
            .event_spec(EventSpec::PredictivelyBounded {
                bound: Bound::secs(30),
            })
            .build()
            .unwrap();
        let clock = clock_at(0);
        let mut rel = IndexedRelation::new(schema, clock.clone());
        for i in 0..200_i64 {
            clock.set(ts(i * 10));
            rel.insert(ObjectId::new(1), ts(i * 10 + 20), vec![]).unwrap();
        }
        // vt 1000 s beyond tt: outside the +30 s band.
        let q = Query::Bitemporal { tt: ts(100), vt: ts(1_100) };
        let fast = rel.execute(q);
        assert_eq!(fast.stats.strategy, "empty-scan");
        assert_eq!(fast.stats.examined, 0, "proof means zero elements touched");
        // The oracle agrees the answer is empty.
        let slow = rel.execute_plan(q, Plan::FullScan);
        assert_eq!(slow.stats.returned, 0);
        assert_eq!(slow.stats.examined, 200);
        // The explanation carries the proof.
        let explain = rel.explain(q);
        assert_eq!(explain.plan, Plan::EmptyScan);
        assert!(explain.proof.as_deref().unwrap().contains("vt − tt"));
    }

    #[test]
    fn dropped_vt_residual_matches_full_predicate() {
        let schema = RelationSchema::builder("r", Stamping::Event)
            .ordering(OrderingSpec::GloballySequential, Basis::PerRelation)
            .build()
            .unwrap();
        let clock = clock_at(0);
        let mut rel = IndexedRelation::new(schema, clock.clone());
        let mut ids = Vec::new();
        for i in 0..300_i64 {
            clock.set(ts(i * 10 + 5));
            ids.push(rel.insert(ObjectId::new(1), ts(i * 10), vec![]).unwrap());
        }
        // Delete a few inside the probe window: the currency check must
        // still filter them even with the valid-time residual dropped.
        clock.set(ts(10_000));
        rel.delete(ids[105]).unwrap();
        rel.delete(ids[107]).unwrap();
        let q = Query::TimesliceRange { from: ts(1_000), to: ts(1_200) };
        let fast = rel.execute(q);
        assert_eq!(fast.stats.strategy, "append-order-search");
        let slow = rel.execute_plan(q, Plan::FullScan);
        assert_eq!(sorted_ids(&fast.elements), sorted_ids(&slow.elements));
        assert_eq!(fast.stats.returned, 18); // 20 in window minus 2 deleted
        let point = rel.execute(Query::Timeslice { vt: ts(1_050) });
        assert_eq!(
            sorted_ids(&point.elements),
            sorted_ids(&rel.execute_plan(Query::Timeslice { vt: ts(1_050) }, Plan::FullScan).elements)
        );
    }

    #[test]
    fn every_strategy_agrees_with_full_scan() {
        // The exactness property: whatever the plan, answers equal the
        // full-scan answer.
        let (rel, _) = load_bounded(300);
        for probe in [0, 1_000, 14_980, 29_950] {
            let q = Query::Timeslice { vt: ts(probe) };
            let fast = rel.execute(q);
            let slow = rel.execute_plan(q, Plan::FullScan);
            assert_eq!(
                sorted_ids(&fast.elements),
                sorted_ids(&slow.elements),
                "probe {probe}"
            );
        }
        for (from, to) in [(0, 5_000), (10_000, 10_100), (29_000, 40_000)] {
            let q = Query::TimesliceRange {
                from: ts(from),
                to: ts(to),
            };
            let fast = rel.execute(q);
            let slow = rel.execute_plan(q, Plan::FullScan);
            assert_eq!(
                sorted_ids(&fast.elements),
                sorted_ids(&slow.elements),
                "range {from}..{to}"
            );
        }
    }
}
