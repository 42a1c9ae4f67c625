//! Tuple-time-stamped storage: elements carry `[tt_b, tt_d)` directly.
//!
//! The representation §2 attributes to TQuel \[Sno87\]: "a collection of
//! tuples with an event or interval valid time-stamp and an interval
//! transaction time-stamp". Elements are kept in `tt_b` order (the order
//! the transaction clock produces), so rollback reads are range scans and
//! current reads go through a live-set index.
//!
//! The same store has an ordered mode for degenerate and sequential
//! relations. §3.1: "At the implementation level, a degenerate temporal
//! relation can be advantageously treated as a rollback relation due to
//! the fact that relations are append-only and elements are entered in
//! time-stamp order." §3.2 extends the idea to globally sequential
//! relations, where "valid time can be approximated with transaction
//! time, yielding an append-only relation that can support historical (as
//! well as transaction time) queries." For those relations arrival order
//! is *also* valid-time order; the ordered mode enforces that on insert,
//! so valid-timeslice reads become binary searches
//! ([`TupleStore::slice_by_vt_begin`]) with no extra index.
//!
//! Per-object partitions and any valid-time index are the key
//! runs each storage chunk keeps (see [`crate::chunks`]).

use std::collections::HashMap;

use tempora_time::Timestamp;

use tempora_core::{CoreError, Element, ElementId};
use tempora_index::IndexChoice;

use crate::chunks::{ChunkedElements, ElementChunks};

/// Tuple-time-stamped element storage.
///
/// Invariants (checked on insert, maintained by construction): elements
/// are stored in strictly increasing `tt_b` order — and, in the ordered
/// mode, non-decreasing valid begin order; each element surrogate appears
/// exactly once; a logically deleted element has `tt_d > tt_b`.
#[derive(Debug, Default)]
pub struct TupleStore {
    /// All elements ever stored, in `tt_b` order (append-only; deletion is
    /// logical — it sets `tt_end`). Write-once chunks, with their key
    /// runs, so snapshots share storage with the live store (see
    /// [`crate::chunks`]).
    elements: ChunkedElements,
    /// Element surrogate → position in `elements`, so point lookups and
    /// logical deletion stay O(1) instead of scanning.
    by_id: HashMap<ElementId, usize>,
    /// Whether arrival order is also valid-begin order (the ordered mode).
    vt_ordered: bool,
    /// The newest deletion stamp ever applied (see [`Self::newest_stamp`]).
    last_delete: Option<Timestamp>,
    /// Elements examined while locating delete targets (cumulative).
    /// With the `by_id` map each delete examines exactly one element; a
    /// regression to scanning shows up here as O(position) growth.
    locate_probes: u64,
}

impl TupleStore {
    /// An empty store keeping the object run alone.
    #[must_use]
    pub fn new() -> Self {
        TupleStore::default()
    }

    /// An empty store for a relation whose valid-time access is `choice`
    /// (from [`tempora_index::select_index`]): its chunks keep the runs
    /// the choice asks for, and [`IndexChoice::AppendOrder`] selects the
    /// ordered mode.
    #[must_use]
    pub fn for_index(choice: IndexChoice) -> Self {
        TupleStore {
            elements: ChunkedElements::with_index(choice),
            vt_ordered: choice == IndexChoice::AppendOrder,
            ..TupleStore::default()
        }
    }

    /// An empty store in the ordered mode: valid begins must be
    /// non-decreasing in arrival order. Only sound for relations whose
    /// schema guarantees it (degenerate, sequential, or globally
    /// non-decreasing relations).
    #[must_use]
    pub fn new_vt_ordered() -> Self {
        TupleStore::for_index(IndexChoice::AppendOrder)
    }

    /// Whether the store is in the ordered mode.
    #[must_use]
    pub fn is_vt_ordered(&self) -> bool {
        self.vt_ordered
    }

    /// Number of elements ever stored (including logically deleted ones).
    #[must_use]
    pub fn len(&self) -> usize {
        self.elements.len()
    }

    /// Whether the store has never been written.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.elements.is_empty()
    }

    /// Appends a new current element.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::ElementMismatch`] if the element surrogate is
    /// already present, `tt_b` does not exceed the last stored `tt_b`
    /// (transaction times are unique and monotone, §2), the element is
    /// already deleted, or — in the ordered mode — its valid begin
    /// regresses below the last stored one (the schema promised an ordered
    /// relation; a violation here means the constraint engine was
    /// bypassed).
    pub fn insert(&mut self, element: Element) -> Result<(), CoreError> {
        self.check_insert(&element)?;
        self.by_id.insert(element.id, self.elements.len());
        self.elements.push(element);
        Ok(())
    }

    /// Every check [`Self::insert`] makes, without storing anything.
    fn check_insert(&self, element: &Element) -> Result<(), CoreError> {
        let mismatch = |reason: String| {
            Err(CoreError::ElementMismatch {
                element: element.id,
                reason,
            })
        };
        if self.by_id.contains_key(&element.id) {
            return mismatch("element surrogate already stored".to_string());
        }
        if let Some(last) = self.elements.last() {
            if element.tt_begin <= last.tt_begin {
                return mismatch(format!(
                    "tt_b {} not after last stored tt_b {}",
                    element.tt_begin, last.tt_begin
                ));
            }
            if self.vt_ordered && element.valid.begin() < last.valid.begin() {
                return mismatch(format!(
                    "vt begin {} regresses below {} — the ordered store requires an ordered relation",
                    element.valid.begin(),
                    last.valid.begin()
                ));
            }
        }
        if element.tt_end.is_some() {
            return mismatch("newly inserted elements must be current (tt_d unset)".to_string());
        }
        Ok(())
    }

    /// Logically deletes an element at transaction time `tt_d`.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::NoSuchElement`] if the surrogate is unknown or
    /// already deleted, [`CoreError::ElementMismatch`] if `tt_d ≤ tt_b`.
    pub fn delete(&mut self, id: ElementId, tt_d: Timestamp) -> Result<(), CoreError> {
        let idx = *self
            .by_id
            .get(&id)
            .ok_or(CoreError::NoSuchElement { element: id })?;
        self.locate_probes += 1;
        let element = self
            .elements
            .get_mut(idx)
            .ok_or(CoreError::NoSuchElement { element: id })?;
        if element.tt_end.is_some() {
            return Err(CoreError::NoSuchElement { element: id });
        }
        if tt_d <= element.tt_begin {
            return Err(CoreError::ElementMismatch {
                element: id,
                reason: format!("tt_d {tt_d} must exceed tt_b {}", element.tt_begin),
            });
        }
        element.tt_end = Some(tt_d);
        self.last_delete = self.last_delete.max(Some(tt_d));
        Ok(())
    }

    /// Logically deletes `id` at the replacement's `tt_b` and stores the
    /// replacement — §2's modification. Both halves are validated before
    /// either is applied, so on error the store is unchanged.
    ///
    /// # Errors
    ///
    /// As for [`Self::insert`] and [`Self::delete`].
    pub fn replace(&mut self, id: ElementId, element: Element) -> Result<(), CoreError> {
        self.check_insert(&element)?;
        self.delete(id, element.tt_begin)?;
        self.insert(element)
    }

    /// The element with the given surrogate, if ever stored.
    #[must_use]
    pub fn get(&self, id: ElementId) -> Option<&Element> {
        self.by_id.get(&id).and_then(|&i| self.elements.get(i))
    }

    /// All elements in `tt_b` order (including logically deleted ones).
    pub fn iter(&self) -> impl Iterator<Item = &Element> {
        self.elements.iter()
    }

    /// Elements current *now* (not logically deleted).
    pub fn iter_current(&self) -> impl Iterator<Item = &Element> {
        self.elements.iter().filter(|e| e.is_current())
    }

    /// Elements of the historical state at transaction time `tt` — the
    /// rollback read (§1's third query class): every element with
    /// `tt ∈ [tt_b, tt_d)`.
    pub fn iter_at(&self, tt: Timestamp) -> impl Iterator<Item = &Element> + '_ {
        // Elements are tt_b-ordered: binary search the insertion horizon,
        // then filter deletions.
        let end = self.elements.partition_point(|e| e.tt_begin <= tt);
        self.elements.range(0..end).filter(move |e| e.existed_at(tt))
    }

    /// Elements with `tt_b` in the inclusive window `[lo, hi]` — a binary-
    /// searched contiguous run of the transaction-time order, the probe the
    /// tt-proxy strategy issues.
    pub fn tt_range(&self, lo: Timestamp, hi: Timestamp) -> impl Iterator<Item = &Element> + '_ {
        let start = self.elements.partition_point(|e| e.tt_begin < lo);
        let end = self.elements.partition_point(|e| e.tt_begin <= hi);
        self.elements.range(start..end)
    }

    /// Elements whose valid begin lies in `[from, to)` — a contiguous run
    /// found by binary search, the payoff of the ordered mode.
    ///
    /// # Panics
    ///
    /// Panics unless the store is in the ordered mode: without the
    /// ordering invariant the binary search is unsound.
    pub fn slice_by_vt_begin(
        &self,
        from: Timestamp,
        to: Timestamp,
    ) -> impl Iterator<Item = &Element> + '_ {
        assert!(self.vt_ordered, "valid-begin search on an unordered store");
        let lo = self.elements.partition_point(|e| e.valid.begin() < from);
        let hi = self.elements.partition_point(|e| e.valid.begin() < to);
        self.elements.range(lo..hi)
    }

    /// The positional view of every element ever stored, borrowed in
    /// place — what a live read scans.
    #[must_use]
    pub fn elements(&self) -> &ElementChunks {
        &self.elements
    }

    /// An immutable chunk view of the store's current contents (see
    /// [`ChunkedElements::snapshot`]): the chunk list shared by pointer,
    /// nothing copied.
    #[must_use]
    pub fn snapshot(&self) -> ElementChunks {
        self.elements.snapshot()
    }

    /// The newest transaction stamp any write has left here — an
    /// insertion's `tt_b` or a deletion's `tt_d` — or `None` if the store
    /// was never written. Reclaiming keeps it: a reclaimed element was
    /// stamped no later than its deletion.
    #[must_use]
    pub fn newest_stamp(&self) -> Option<Timestamp> {
        self.elements.last().map(|e| e.tt_begin).max(self.last_delete)
    }

    /// Number of elements current now.
    #[must_use]
    pub fn current_len(&self) -> usize {
        self.iter_current().count()
    }

    /// Cumulative count of elements examined while locating delete
    /// targets. With the id→position map each delete examines exactly
    /// one element, so this advances by one per attempted delete of a
    /// known surrogate — the observable the delete-path complexity
    /// regression test pins down.
    #[must_use]
    pub fn locate_probes(&self) -> u64 {
        self.locate_probes
    }

    /// Physically removes elements selected by the predicate. Only
    /// logically deleted elements may be reclaimed — vacuuming must never
    /// drop current facts. Returns the number reclaimed.
    ///
    /// This is the hook the specialization-aware vacuum (see
    /// [`crate::vacuum`]) uses; calling it directly with an arbitrary
    /// predicate is allowed but forfeits rollback fidelity for the
    /// reclaimed range, so the caller decides the retention policy.
    pub fn reclaim(&mut self, mut keep: impl FnMut(&Element) -> bool) -> usize {
        let before = self.elements.len();
        self.elements.retain(|e| e.is_current() || keep(e));
        if self.elements.len() != before {
            self.by_id = self.elements.iter().enumerate().map(|(i, e)| (e.id, i)).collect();
        }
        before - self.elements.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempora_core::{ObjectId, ValidTime};
    use tempora_index::RunProbe;

    fn ts(s: i64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    fn el(id: u64, obj: u64, vt: i64, tt: i64) -> Element {
        Element::new(
            ElementId::new(id),
            ObjectId::new(obj),
            ValidTime::Event(ts(vt)),
            ts(tt),
        )
    }

    #[test]
    fn insert_get_iterate() {
        let mut store = TupleStore::new();
        store.insert(el(1, 1, 5, 10)).unwrap();
        store.insert(el(2, 2, 6, 11)).unwrap();
        assert_eq!(store.len(), 2);
        assert!(!store.is_empty());
        assert_eq!(store.get(ElementId::new(1)).unwrap().tt_begin, ts(10));
        assert_eq!(store.iter().count(), 2);
        assert_eq!(store.current_len(), 2);
    }

    #[test]
    fn duplicate_and_out_of_order_rejected() {
        let mut store = TupleStore::new();
        store.insert(el(1, 1, 5, 10)).unwrap();
        assert!(store.insert(el(1, 1, 6, 11)).is_err());
        assert!(store.insert(el(2, 1, 6, 10)).is_err()); // tt not increasing
        assert!(store.insert(el(3, 1, 6, 9)).is_err());
    }

    #[test]
    fn precompleted_element_rejected() {
        let mut store = TupleStore::new();
        let mut e = el(1, 1, 5, 10);
        e.tt_end = Some(ts(20));
        assert!(store.insert(e).is_err());
    }

    #[test]
    fn logical_delete() {
        let mut store = TupleStore::new();
        store.insert(el(1, 1, 5, 10)).unwrap();
        store.delete(ElementId::new(1), ts(20)).unwrap();
        assert_eq!(store.current_len(), 0);
        assert_eq!(store.len(), 1); // still present for rollback
        // Double delete and unknown ids fail.
        assert!(store.delete(ElementId::new(1), ts(30)).is_err());
        assert!(store.delete(ElementId::new(9), ts(30)).is_err());
    }

    #[test]
    fn delete_before_insert_rejected() {
        let mut store = TupleStore::new();
        store.insert(el(1, 1, 5, 10)).unwrap();
        assert!(store.delete(ElementId::new(1), ts(10)).is_err());
        assert!(store.delete(ElementId::new(1), ts(5)).is_err());
    }

    #[test]
    fn rollback_read() {
        let mut store = TupleStore::new();
        store.insert(el(1, 1, 5, 10)).unwrap();
        store.insert(el(2, 1, 6, 20)).unwrap();
        store.delete(ElementId::new(1), ts(30)).unwrap();
        store.insert(el(3, 1, 7, 40)).unwrap();

        let at = |tt: i64| -> Vec<u64> {
            let mut v: Vec<u64> = store.iter_at(ts(tt)).map(|e| e.id.raw()).collect();
            v.sort_unstable();
            v
        };
        assert_eq!(at(5), Vec::<u64>::new());
        assert_eq!(at(10), vec![1]);
        assert_eq!(at(25), vec![1, 2]);
        assert_eq!(at(30), vec![2]); // deletion effective at tt 30
        assert_eq!(at(45), vec![2, 3]);
    }

    /// Every element ever stored for one object, in insertion order, as
    /// the object scan probes it: each chunk's object run selects exactly
    /// the object's elements, deleted ones included.
    fn object_history(store: &TupleStore, obj: u64) -> Vec<&Element> {
        let mut history = Vec::new();
        let probe = RunProbe::Object(ObjectId::new(obj));
        store.elements().probe(0..store.len(), probe, |e| history.push(e));
        history
    }

    fn ids<'a>(elements: impl IntoIterator<Item = &'a Element>) -> Vec<u64> {
        elements.into_iter().map(|e| e.id.raw()).collect()
    }

    #[test]
    fn per_object_partition() {
        let mut store = TupleStore::new();
        store.insert(el(1, 1, 5, 10)).unwrap();
        store.insert(el(2, 2, 6, 11)).unwrap();
        store.insert(el(3, 1, 7, 12)).unwrap();
        assert_eq!(ids(object_history(&store, 1)), vec![1, 3]);
        store.delete(ElementId::new(1), ts(20)).unwrap();
        let history = object_history(&store, 1);
        assert_eq!(ids(history.iter().copied()), vec![1, 3]);
        assert_eq!(ids(history.into_iter().filter(|e| e.is_current())), vec![3]);
    }

    #[test]
    fn reclaim_keeps_current() {
        let mut store = TupleStore::new();
        store.insert(el(1, 1, 5, 10)).unwrap();
        store.insert(el(2, 1, 6, 20)).unwrap();
        store.delete(ElementId::new(1), ts(30)).unwrap();
        // Try to reclaim everything: only the deleted element goes.
        let n = store.reclaim(|_| false);
        assert_eq!(n, 1);
        assert_eq!(store.len(), 1);
        assert!(store.get(ElementId::new(1)).is_none());
        assert!(store.get(ElementId::new(2)).is_some());
    }

    #[test]
    fn object_history_survives_reclaim() {
        let mut store = TupleStore::new();
        for i in 0..12 {
            store.insert(el(i, i % 3, 5, 10 + i as i64)).unwrap();
        }
        for i in [0, 4, 5] {
            store.delete(ElementId::new(i), ts(100)).unwrap();
        }
        let history = |store: &TupleStore, obj: u64| ids(object_history(store, obj));
        assert_eq!(history(&store, 1), vec![1, 4, 7, 10]);
        // Reclaim element 4 only: the partitions are rebuilt around it.
        assert_eq!(store.reclaim(|e| e.id.raw() != 4), 1);
        for obj in 0..3 {
            let scanned: Vec<u64> = store
                .iter()
                .filter(|e| e.object == ObjectId::new(obj))
                .map(|e| e.id.raw())
                .collect();
            assert_eq!(history(&store, obj), scanned, "object {obj}");
        }
        assert_eq!(history(&store, 1), vec![1, 7, 10]);
        assert!(history(&store, 9).is_empty());
    }

    /// The ordered mode (degenerate / sequential / non-decreasing
    /// relations).
    mod ordered {
        use super::*;
        use tempora_core::{ObjectId, ValidTime};

        fn ts(s: i64) -> Timestamp {
            Timestamp::from_secs(s)
        }

        fn el(id: u64, vt: i64, tt: i64) -> Element {
            Element::new(
                ElementId::new(id),
                ObjectId::new(1),
                ValidTime::Event(ts(vt)),
                ts(tt),
            )
        }

        #[test]
        fn append_enforces_both_orders() {
            let mut log = TupleStore::new_vt_ordered();
            log.insert(el(1, 10, 10)).unwrap();
            log.insert(el(2, 10, 11)).unwrap(); // equal vt allowed
            log.insert(el(3, 12, 12)).unwrap();
            assert!(log.insert(el(4, 11, 13)).is_err()); // vt regression
            assert!(log.insert(el(5, 20, 12)).is_err()); // tt regression
            assert!(log.insert(el(3, 20, 13)).is_err()); // duplicate surrogate
            assert_eq!(log.len(), 3);
        }

        #[test]
        fn vt_slice_binary_search() {
            let mut log = TupleStore::new_vt_ordered();
            for i in 0..100_i64 {
                log.insert(el(u64::try_from(i).unwrap(), i * 10, i * 10 + 1)).unwrap();
            }
            let run: Vec<&Element> = log.slice_by_vt_begin(ts(200), ts(300)).collect();
            assert_eq!(run.len(), 10);
            assert_eq!(run[0].valid.begin(), ts(200));
            assert_eq!(run[9].valid.begin(), ts(290));
            assert_eq!(log.slice_by_vt_begin(ts(5_000), ts(6_000)).count(), 0);
        }

        #[test]
        fn rollback_prefix() {
            let mut log = TupleStore::new_vt_ordered();
            log.insert(el(1, 10, 10)).unwrap();
            log.insert(el(2, 20, 20)).unwrap();
            log.delete(ElementId::new(1), ts(25)).unwrap();
            assert_eq!(log.iter_at(ts(15)).count(), 1);
            assert_eq!(log.iter_at(ts(20)).count(), 2);
            assert_eq!(log.iter_at(ts(25)).count(), 1);
            assert_eq!(log.iter_at(ts(5)).count(), 0);
        }

        #[test]
        fn delete_errors() {
            let mut log = TupleStore::new_vt_ordered();
            log.insert(el(1, 10, 10)).unwrap();
            assert!(log.delete(ElementId::new(2), ts(20)).is_err());
            assert!(log.delete(ElementId::new(1), ts(10)).is_err());
            log.delete(ElementId::new(1), ts(20)).unwrap();
            assert!(log.delete(ElementId::new(1), ts(30)).is_err());
        }

        #[test]
        fn get_by_id() {
            let mut log = TupleStore::new_vt_ordered();
            log.insert(el(7, 10, 10)).unwrap();
            assert!(log.get(ElementId::new(7)).is_some());
            assert!(log.get(ElementId::new(8)).is_none());
        }

        #[test]
        fn delete_locates_in_constant_probes() {
            // Regression test for the delete-path complexity fix: locating
            // the delete target must not scan the log. Deleting the *last*
            // element of a large log examines one element, not `len`.
            let n = 4_096_i64;
            let mut log = TupleStore::new_vt_ordered();
            for i in 0..n {
                log.insert(el(u64::try_from(i).unwrap(), i, i + 1)).unwrap();
            }
            let before = log.locate_probes();
            log.delete(ElementId::new(u64::try_from(n - 1).unwrap()), ts(n + 10)).unwrap();
            let probes = log.locate_probes() - before;
            assert!(
                probes <= 2,
                "deleting the last of {n} elements examined {probes} elements — \
                 the id→position map is not being used"
            );
            // And the deletion itself is equivalent to what a scan would do.
            assert!(log.get(ElementId::new(u64::try_from(n - 1).unwrap())).unwrap().tt_end.is_some());
        }

        #[test]
        fn snapshot_isolated_from_deletes() {
            let mut log = TupleStore::new_vt_ordered();
            for i in 0..2_000_i64 {
                log.insert(el(u64::try_from(i).unwrap(), i, i + 1)).unwrap();
            }
            let snap = log.snapshot();
            log.delete(ElementId::new(5), ts(5_000)).unwrap();
            // The live log sees the delete; the snapshot does not.
            assert!(log.get(ElementId::new(5)).unwrap().tt_end.is_some());
            assert_eq!(snap.get(5).unwrap().tt_end, None);
            assert_eq!(snap.len(), 2_000);
        }
    }
}
