//! Chunked copy-on-write element storage: the snapshot enabler.
//!
//! Transaction time is append-only (§2: elements are entered in
//! time-stamp order and never physically removed by updates), so a reader
//! pinned at tick `t` sees an immutable prefix of the element sequence.
//! [`ChunkedElements`] makes that prefix *cheap to hand out*: elements
//! live in fixed-capacity chunks behind [`Arc`]s, and
//! [`ChunkedElements::snapshot`] clones the chunk pointers — not the
//! elements — plus a bounded copy of the open tail chunk. Logical
//! deletion (the only in-place mutation the model permits) goes through
//! [`Arc::make_mut`], so a writer touching a chunk some snapshot still
//! holds pays one chunk-sized copy and never disturbs the reader.
//!
//! Next to its elements each chunk keeps the key runs of
//! [`tempora_index::ChunkRuns`] — an object run, plus a valid-time run
//! where the relation's index choice asks for one. The open tail appends
//! keys unsorted; they are sorted once when the chunk seals, and never
//! touched by a delete, so a copy-on-write copy shares them.
//!
//! The result, [`ElementChunks`], is an immutable view that outlives any
//! lock: snapshot queries execute against it without blocking ingest, and
//! ingest never blocks them. The live store dereferences to the same view
//! type, so live and pinned reads share one set of positional reads and
//! one probe ([`ElementChunks::probe`]).

use std::ops::{Deref, Range};
use std::sync::Arc;

use tempora_core::Element;
use tempora_index::{ChunkRuns, RunProbe};

/// Elements per sealed chunk. Every sealed chunk holds exactly this many
/// elements, so position ↔ (chunk, offset) is pure index math; only the
/// open tail chunk is shorter. 1024 elements keeps the copy-on-write
/// worst case (one chunk clone per snapshot-shared delete) small while
/// amortizing the per-chunk `Arc` overhead.
pub const CHUNK_CAP: usize = 1024;

/// One chunk: its elements and the key runs over them.
#[derive(Debug, Clone)]
struct Chunk {
    elements: Vec<Element>,
    /// Key runs over `elements`, shared by a copy-on-write copy. A
    /// snapshot's copy of the open tail has none: capture copies no run.
    runs: Option<Arc<ChunkRuns>>,
}

/// Append-mostly element storage in copy-on-write chunks.
///
/// Maintains the same ordering contract as a plain `Vec<Element>` held in
/// `tt_b` order; all binary searches work on global positions. Reads go
/// through the [`ElementChunks`] view it dereferences to.
#[derive(Debug, Default, Clone)]
pub struct ChunkedElements {
    view: ElementChunks,
    /// The empty runs every new chunk starts from.
    runs: ChunkRuns,
}

impl ChunkedElements {
    /// Empty storage keeping the object run alone.
    #[must_use]
    pub fn new() -> Self {
        ChunkedElements::default()
    }

    /// Empty storage whose chunks keep runs of the kinds in `runs` (see
    /// [`ChunkRuns::new`]).
    #[must_use]
    pub fn with_runs(runs: ChunkRuns) -> Self {
        ChunkedElements {
            view: ElementChunks::default(),
            runs,
        }
    }

    /// Appends an element, opening a new tail chunk when the current one
    /// is full, and seals the tail's runs when it fills.
    pub fn push(&mut self, element: Element) {
        let view = &mut self.view;
        if view.chunks.last().is_none_or(|t| t.elements.len() == CHUNK_CAP) {
            view.chunks.push(Arc::new(Chunk {
                elements: Vec::with_capacity(CHUNK_CAP),
                runs: Some(Arc::new(self.runs.clone())),
            }));
        }
        let tail = Arc::make_mut(view.chunks.last_mut().expect("a tail chunk"));
        let runs = Arc::make_mut(tail.runs.as_mut().expect("the live tail keeps its runs"));
        runs.push(&element);
        tail.elements.push(element);
        if tail.elements.len() == CHUNK_CAP {
            runs.seal();
        }
        view.len += 1;
    }

    /// Mutable access at global position `index`. If the chunk is shared
    /// with a snapshot this copies that one chunk's elements first
    /// (copy-on-write) and shares its runs; the snapshot keeps the
    /// original.
    pub fn get_mut(&mut self, index: usize) -> Option<&mut Element> {
        if index >= self.view.len {
            return None;
        }
        Arc::make_mut(&mut self.view.chunks[index / CHUNK_CAP])
            .elements
            .get_mut(index % CHUNK_CAP)
    }

    /// An immutable view of the current contents: sealed chunks are
    /// shared by pointer, a partly filled tail's elements are copied
    /// (bounded by [`CHUNK_CAP`]) without its runs, so later appends never
    /// copy on write. Cost is O(chunks + tail), independent of element
    /// count in the sealed region.
    #[must_use]
    pub fn snapshot(&self) -> ElementChunks {
        let mut view = self.view.clone();
        if let Some(tail) = view.chunks.last_mut().filter(|t| t.elements.len() < CHUNK_CAP) {
            *tail = Arc::new(Chunk {
                elements: tail.elements.clone(),
                runs: None,
            });
        }
        view
    }

    /// Keeps only the elements `keep` selects, rebuilding chunks and runs
    /// when any is dropped.
    pub fn retain(&mut self, mut keep: impl FnMut(&Element) -> bool) {
        let kept: Vec<Element> = self.iter().filter(|e| keep(e)).cloned().collect();
        if kept.len() != self.len() {
            let mut rebuilt = ChunkedElements::with_runs(self.runs.clone());
            kept.into_iter().for_each(|e| rebuilt.push(e));
            *self = rebuilt;
        }
    }

    /// Builds from a plain ordered vector.
    #[must_use]
    pub fn from_vec(elements: Vec<Element>) -> Self {
        let mut built = ChunkedElements::new();
        for e in elements {
            built.push(e);
        }
        built
    }
}

impl Deref for ChunkedElements {
    type Target = ElementChunks;

    fn deref(&self) -> &ElementChunks {
        &self.view
    }
}

/// An immutable, cheaply cloneable view over element chunks — what a
/// pinned snapshot reads, and what the live store dereferences to. All
/// chunks except the last hold exactly [`CHUNK_CAP`] elements, so
/// positional access stays O(1).
#[derive(Debug, Default, Clone)]
pub struct ElementChunks {
    /// Sealed chunks (shared with any live snapshots) followed by the open
    /// tail, which is never empty.
    chunks: Vec<Arc<Chunk>>,
    len: usize,
}

impl ElementChunks {
    /// Total number of elements.
    #[must_use]
    pub fn len(&self) -> usize {
        self.len
    }

    /// Whether no element was ever stored.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// The element at global position `index`.
    #[must_use]
    pub fn get(&self, index: usize) -> Option<&Element> {
        if index >= self.len {
            return None;
        }
        Some(&self.chunks[index / CHUNK_CAP].elements[index % CHUNK_CAP])
    }

    /// The most recently appended element.
    #[must_use]
    pub fn last(&self) -> Option<&Element> {
        self.chunks.last().and_then(|c| c.elements.last())
    }

    /// All elements in append order.
    pub fn iter(&self) -> impl Iterator<Item = &Element> + '_ {
        self.chunks.iter().flat_map(|c| c.elements.iter())
    }

    /// Elements in the global position range, walked one chunk slice at a
    /// time (skipping to `range.start` is index math, not iteration).
    pub fn range(&self, range: Range<usize>) -> impl Iterator<Item = &Element> + '_ {
        let end = range.end.min(self.len);
        let start = range.start.min(end);
        let first = start / CHUNK_CAP;
        self.chunks[first..end.div_ceil(CHUNK_CAP)]
            .iter()
            .enumerate()
            .flat_map(move |(k, chunk)| {
                let base = (first + k) * CHUNK_CAP;
                chunk.elements[start.saturating_sub(base)..(end - base).min(chunk.elements.len())]
                    .iter()
            })
    }

    /// Visits, in position order, every element among the first `visible`
    /// positions that `probe` may match. A chunk with a run for the probe
    /// is probed; any other chunk — a snapshot's copy of the open tail, or
    /// a relation that keeps no such run — is scanned whole, so `visit`
    /// sees a superset of the matches and must apply the predicate.
    pub fn probe<'a>(&'a self, visible: usize, probe: RunProbe, mut visit: impl FnMut(&'a Element)) {
        let visible = visible.min(self.len);
        let mut hits = Vec::new();
        for (k, chunk) in self.chunks[..visible.div_ceil(CHUNK_CAP)].iter().enumerate() {
            let elements = &chunk.elements[..(visible - k * CHUNK_CAP).min(chunk.elements.len())];
            hits.clear();
            if chunk.runs.as_ref().is_some_and(|r| r.probe(probe, &mut hits)) {
                hits.iter()
                    .take_while(|&&o| o < elements.len())
                    .for_each(|&o| visit(&elements[o]));
            } else {
                elements.iter().for_each(&mut visit);
            }
        }
    }

    /// The first position for which `pred` is false, assuming the
    /// elements are partitioned (all `true` before all `false`) — the
    /// chunked analogue of [`slice::partition_point`].
    #[must_use]
    pub fn partition_point(&self, pred: impl Fn(&Element) -> bool) -> usize {
        let (mut lo, mut hi) = (0usize, self.len);
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            if pred(self.get(mid).expect("mid in bounds")) {
                lo = mid + 1;
            } else {
                hi = mid;
            }
        }
        lo
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempora_core::{ElementId, ObjectId, ValidTime};
    use tempora_time::Timestamp;

    fn el(id: u64, tt: i64) -> Element {
        Element::new(
            ElementId::new(id),
            ObjectId::new(1),
            ValidTime::Event(Timestamp::from_secs(tt)),
            Timestamp::from_secs(tt),
        )
    }

    #[test]
    fn push_get_across_chunk_boundaries() {
        let n = CHUNK_CAP * 2 + 37;
        let mut c = ChunkedElements::new();
        for i in 0..n {
            c.push(el(i as u64, i as i64));
        }
        assert_eq!(c.len(), n);
        for i in [0, 1, CHUNK_CAP - 1, CHUNK_CAP, 2 * CHUNK_CAP, n - 1] {
            assert_eq!(c.get(i).unwrap().id, ElementId::new(i as u64));
        }
        assert!(c.get(n).is_none());
        assert_eq!(c.last().unwrap().id, ElementId::new((n - 1) as u64));
        assert_eq!(c.iter().count(), n);
        let mid: Vec<u64> = c
            .range(CHUNK_CAP - 2..CHUNK_CAP + 2)
            .map(|e| e.id.raw())
            .collect();
        assert_eq!(mid, vec![1022, 1023, 1024, 1025]);
    }

    #[test]
    fn partition_point_matches_vec() {
        let mut c = ChunkedElements::new();
        let mut v = Vec::new();
        for i in 0..(CHUNK_CAP + 100) {
            c.push(el(i as u64, i as i64));
            v.push(el(i as u64, i as i64));
        }
        for probe in [0_i64, 1, 512, 1024, 1100, 9999] {
            let t = Timestamp::from_secs(probe);
            assert_eq!(
                c.partition_point(|e| e.tt_begin <= t),
                v.partition_point(|e| e.tt_begin <= t),
                "probe {probe}"
            );
        }
    }

    #[test]
    fn snapshot_is_isolated_from_later_writes() {
        let mut c = ChunkedElements::new();
        for i in 0..(CHUNK_CAP + 10) {
            c.push(el(i as u64, i as i64));
        }
        let snap = c.snapshot();
        assert_eq!(snap.len(), CHUNK_CAP + 10);

        // Appends after the snapshot are invisible to it.
        c.push(el(9_000, 9_000));
        assert_eq!(snap.len(), CHUNK_CAP + 10);
        assert!(snap.iter().all(|e| e.id.raw() != 9_000));

        // In-place mutation of a sealed chunk copies on write: the
        // snapshot keeps the original element.
        c.get_mut(5).unwrap().tt_end = Some(Timestamp::from_secs(99));
        assert_eq!(snap.get(5).unwrap().tt_end, None);
        assert!(c.get(5).unwrap().tt_end.is_some());

        // Mutation in the (copied) tail region likewise.
        c.get_mut(CHUNK_CAP + 3).unwrap().tt_end = Some(Timestamp::from_secs(99));
        assert_eq!(snap.get(CHUNK_CAP + 3).unwrap().tt_end, None);
    }

    #[test]
    fn snapshot_range_and_partition_point() {
        let mut c = ChunkedElements::new();
        for i in 0..(2 * CHUNK_CAP + 5) {
            c.push(el(i as u64, i as i64));
        }
        let snap = c.snapshot();
        let t = Timestamp::from_secs(1500);
        let cut = snap.partition_point(|e| e.tt_begin <= t);
        assert_eq!(cut, 1501);
        let ids: Vec<u64> = snap.range(cut - 2..cut).map(|e| e.id.raw()).collect();
        assert_eq!(ids, vec![1499, 1500]);
        assert_eq!(snap.range(0..snap.len()).count(), snap.len());
    }

    #[test]
    fn from_vec_round_trips() {
        let v: Vec<Element> = (0..(CHUNK_CAP + 3)).map(|i| el(i as u64, i as i64)).collect();
        let c = ChunkedElements::from_vec(v.clone());
        assert_eq!(c.len(), v.len());
        assert!(c.iter().zip(v.iter()).all(|(a, b)| a.id == b.id));
    }
}
