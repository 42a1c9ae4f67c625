//! Chunked write-once element storage: the snapshot enabler.
//!
//! Transaction time is append-only (§2: elements are entered in
//! time-stamp order and never physically removed by updates), so a reader
//! pinned at tick `t` sees an immutable prefix of the element sequence.
//! [`ChunkedElements`] makes that prefix *free to hand out*: elements
//! live in fixed-capacity chunks of write-once slots, the chunk list sits
//! behind one [`Arc`], and [`ChunkedElements::snapshot`] clones that one
//! pointer plus the length. The writer fills the open tail's slots
//! through a shared reference, so an append never copies, and a reader
//! reads only below the length it captured. Logical deletion (the only
//! in-place mutation the model permits) goes through [`Arc::make_mut`],
//! so a writer touching a chunk an in-flight reader still holds pays one
//! chunk-sized copy and never disturbs the reader.
//!
//! When a chunk seals, the key runs of [`tempora_index::ChunkRuns`] — an
//! object run, plus a valid-time run where the relation's index choice
//! asks for one — are built once from its elements and stored write-once
//! on it. Sealed chunk `i` (1-based) with a point run and `lowbit(i) > 1`
//! also stores a span: one point run over chunks `(i − lowbit(i), i]`, at
//! most [`MAX_SPAN_CHUNKS`] wide, merged from the runs of the chunks
//! before it (a Fenwick layout). Spans are write-once too, so a capture
//! still clones only the chunk list's [`Arc`]. Runs are never touched by
//! a delete, so a copy-on-write copy shares them. The open tail keeps no
//! run: a probe filters it by key.
//!
//! The result, [`ElementChunks`], is an immutable view that outlives any
//! lock: snapshot queries execute against it without blocking ingest, and
//! ingest never blocks them. The live store dereferences to the same view
//! type, so live and pinned reads share one set of positional reads and
//! one probe ([`ElementChunks::probe`]). A point probe searches the spans
//! that tile its range, so it costs O((log chunks + chunks / 64) · log
//! [`CHUNK_CAP`] + tail + answer) rather than one search per chunk;
//! interval and object probes still search one run per chunk.

use std::ops::{Deref, Range};
use std::sync::{Arc, OnceLock};

use tempora_core::Element;
use tempora_index::{ChunkRuns, IndexChoice, RunProbe, ValidRun, MAX_SPAN_CHUNKS};

/// Elements per sealed chunk. Every sealed chunk holds exactly this many
/// elements, so position ↔ (chunk, offset) is pure index math; only the
/// open tail chunk is shorter. 1024 elements keeps the copy-on-write
/// worst case (one chunk clone per delete into a chunk a reader holds)
/// small while amortizing the per-chunk `Arc` overhead.
pub const CHUNK_CAP: usize = 1024;

/// One chunk: [`CHUNK_CAP`] write-once slots, filled in order, and the
/// key runs over them, set once when the last slot fills.
#[derive(Debug, Clone)]
struct Chunk {
    slots: Box<[OnceLock<Element>]>,
    runs: OnceLock<Arc<ChunkRuns>>,
}

/// The element in a slot below a view's length.
fn filled(slot: &OnceLock<Element>) -> &Element {
    slot.get().expect("slots below a view's length are filled")
}

/// Append-mostly element storage in write-once chunks.
///
/// Maintains the same ordering contract as a plain `Vec<Element>` held in
/// `tt_b` order; all binary searches work on global positions. Reads go
/// through the [`ElementChunks`] view it dereferences to. Not `Clone`:
/// the slots past the length belong to this one writer.
#[derive(Debug)]
pub struct ChunkedElements {
    view: ElementChunks,
    /// Which key runs a chunk gets when it seals.
    choice: IndexChoice,
}

impl Default for ChunkedElements {
    fn default() -> Self {
        ChunkedElements::with_index(IndexChoice::AppendOrder)
    }
}

impl ChunkedElements {
    /// Empty storage keeping the object run alone.
    #[must_use]
    pub fn new() -> Self {
        ChunkedElements::default()
    }

    /// Empty storage whose sealed chunks keep the runs `choice` asks for
    /// (see [`ChunkRuns::build`]).
    #[must_use]
    pub fn with_index(choice: IndexChoice) -> Self {
        ChunkedElements {
            view: ElementChunks::default(),
            choice,
        }
    }

    /// Appends an element into the open tail's next slot, opening a new
    /// tail when the current one is full, and builds the tail's runs when
    /// it fills.
    ///
    /// # Panics
    ///
    /// Panics if the slot was already written: a broken invariant, since
    /// only this store writes past its length.
    pub fn push(&mut self, element: Element) {
        let offset = self.view.len % CHUNK_CAP;
        if offset == 0 {
            let slots = (0..CHUNK_CAP).map(|_| OnceLock::new()).collect();
            let runs = OnceLock::new();
            Arc::make_mut(&mut self.view.chunks).push(Arc::new(Chunk { slots, runs }));
        }
        let tail = self.view.chunks.last().expect("a tail chunk");
        assert!(
            tail.slots[offset].set(element).is_ok(),
            "slot {offset} of the open tail written twice"
        );
        self.view.len += 1;
        if offset + 1 == CHUNK_CAP {
            let i = self.view.chunks.len();
            let runs = ChunkRuns::build(self.choice, tail.slots.iter().map(filled))
                .with_span(i, |j| self.view.widest(j));
            assert!(tail.runs.set(Arc::new(runs)).is_ok(), "chunk sealed twice");
        }
    }

    /// Mutable access at global position `index`. If the chunk is shared
    /// with a reader this copies that one chunk's elements first
    /// (copy-on-write) and shares its runs; the reader keeps the
    /// original.
    pub fn get_mut(&mut self, index: usize) -> Option<&mut Element> {
        if index >= self.view.len {
            return None;
        }
        let chunks = Arc::make_mut(&mut self.view.chunks);
        Arc::make_mut(&mut chunks[index / CHUNK_CAP]).slots[index % CHUNK_CAP].get_mut()
    }

    /// An immutable view of the current contents: one clone of the chunk
    /// list's [`Arc`] plus the length, whatever the tail's fill. Later
    /// appends write only slots past the view's length.
    #[must_use]
    pub fn snapshot(&self) -> ElementChunks {
        self.view.clone()
    }

    /// Keeps only the elements `keep` selects, rebuilding chunks and runs
    /// when any is dropped.
    pub fn retain(&mut self, mut keep: impl FnMut(&Element) -> bool) {
        let kept: Vec<Element> = self.iter().filter(|e| keep(e)).cloned().collect();
        if kept.len() != self.len() {
            let mut rebuilt = ChunkedElements::with_index(self.choice);
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
    /// Sealed chunks (shared with any in-flight readers) followed by the
    /// open tail, which holds at least one element.
    chunks: Arc<Vec<Arc<Chunk>>>,
    /// The filled prefix this view reads; slots past it are not its own.
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
        let chunk = &self.chunks[index / CHUNK_CAP];
        Some(filled(&chunk.slots[index % CHUNK_CAP]))
    }

    /// The most recently appended element.
    #[must_use]
    pub fn last(&self) -> Option<&Element> {
        self.get(self.len.checked_sub(1)?)
    }

    /// All elements in append order.
    pub fn iter(&self) -> impl Iterator<Item = &Element> + '_ {
        self.range(0..self.len)
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
                // `filter_map`, not `filled`'s panic: every slot below the
                // length is filled (`push` writes a slot before it counts
                // it), so nothing is dropped, and with the panic branch a
                // 7 200-element window scan measured about 30 % slower
                // (2-vCPU x86-64 Xeon). The open-tail filter in
                // `probe_chunk` does the same.
                chunk.slots[start.saturating_sub(base)..(end - base).min(CHUNK_CAP)]
                    .iter()
                    .filter_map(OnceLock::get)
            })
    }

    /// Visits, in position order, every element in the global position
    /// `range` whose key `probe` selects, and returns how many sorted runs
    /// it searched.
    ///
    /// The walk covers the whole chunks below the range's end with the
    /// spans that tile them, widest first: one per [`MAX_SPAN_CHUNKS`]
    /// chunks, then one per set bit of the remainder. It starts at the
    /// last multiple of [`MAX_SPAN_CHUNKS`] chunks at or below the range's
    /// first chunk, skips the spans that end at or before that chunk, and
    /// probes the rest; the first it probes may start below the range,
    /// so its hits are clipped. Where a span cannot answer — an object or
    /// interval probe, or a chunk under it without a point run — it probes
    /// the span's chunks one by one instead. Past the whole chunks, a
    /// sealed chunk with a run for the probe is probed and its hits
    /// clipped to the range, and any other chunk — the open tail, or a
    /// relation that keeps no such run — is filtered by key within the
    /// range. So a point probe searches at most ⌊log₂ chunks⌋ + 2 runs
    /// below 128 chunks and one more per further 64, for a cost of
    /// O((log chunks + chunks / 64) · log [`CHUNK_CAP`] + tail + answer).
    /// `visit` still applies the query's predicate at its pin.
    pub fn probe<'a>(&'a self, range: Range<usize>, probe: RunProbe, mut visit: impl FnMut(&'a Element)) -> usize {
        let end = range.end.min(self.len);
        let start = range.start.min(end);
        let (first, whole) = (start / CHUNK_CAP, end / CHUNK_CAP);
        let mut hits = Vec::new();
        let mut runs = 0;
        // `p` is the chunk count the spans so far have covered: a multiple
        // of the widest span, then the high bits of the rest of `whole`,
        // so the span ending at chunk `p + width` (1-based) is exactly
        // `width` chunks wide.
        let mut p = first - first % MAX_SPAN_CHUNKS;
        while p < whole {
            let width = (1 << (whole - p).ilog2()).min(MAX_SPAN_CHUNKS);
            if p + width > first {
                hits.clear();
                match self.widest(p + width) {
                    Some(span) if span.probe(probe, &mut hits) => {
                        runs += 1;
                        let base = p * CHUNK_CAP;
                        hits[hits.partition_point(|&o| base + o < start)..]
                            .iter()
                            .for_each(|&o| visit(self.at(base + o)));
                    }
                    _ => {
                        for c in p.max(first)..p + width {
                            runs += self.probe_chunk(c, start..end, probe, &mut hits, &mut visit);
                        }
                    }
                }
            }
            p += width;
        }
        for c in whole..end.div_ceil(CHUNK_CAP) {
            runs += self.probe_chunk(c, start..end, probe, &mut hits, &mut visit);
        }
        runs
    }

    /// Visits the elements of chunk `c` inside `range` that `probe`
    /// selects, through the chunk's run when it keeps one for the probe
    /// (returning 1, the run searched) or by key otherwise (returning 0).
    fn probe_chunk<'a>(
        &'a self,
        c: usize,
        range: Range<usize>,
        probe: RunProbe,
        hits: &mut Vec<usize>,
        visit: &mut impl FnMut(&'a Element),
    ) -> usize {
        let chunk = &self.chunks[c];
        let base = c * CHUNK_CAP;
        let (lo, hi) = (range.start.saturating_sub(base), (range.end - base).min(CHUNK_CAP));
        hits.clear();
        if chunk.runs.get().is_some_and(|r| r.probe(probe, hits)) {
            // Hits ascend: skip those before the range (none when it
            // starts at the chunk), then stop at its end.
            hits[hits.partition_point(|&o| o < lo)..]
                .iter()
                .take_while(|&&o| o < hi)
                .for_each(|&o| visit(filled(&chunk.slots[o])));
            1
        } else {
            chunk.slots[lo..hi]
                .iter()
                .filter_map(OnceLock::get)
                .filter(|e| probe.selects(e))
                .for_each(visit);
            0
        }
    }

    /// The widest valid-time run sealed chunk `i` (1-based) keeps (see
    /// [`ChunkRuns::widest`]). `None` when the chunk is not sealed or
    /// keeps no such run.
    fn widest(&self, i: usize) -> Option<&ValidRun> {
        self.chunks[i - 1].runs.get()?.widest(i)
    }

    /// The element at a global position below the length.
    fn at(&self, index: usize) -> &Element {
        filled(&self.chunks[index / CHUNK_CAP].slots[index % CHUNK_CAP])
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

    /// Element `i`: object `i % 7`, event valid time `i * 31 % 500`.
    fn keyed(i: usize) -> Element {
        Element::new(
            ElementId::new(i as u64),
            ObjectId::new(i as u64 % 7),
            ValidTime::Event(Timestamp::from_secs((i * 31 % 500) as i64)),
            Timestamp::from_secs(i as i64),
        )
    }

    fn keyed_probes() -> Vec<RunProbe> {
        let valid = |from: i64, to: i64| RunProbe::Valid {
            from: Timestamp::from_secs(from),
            to: Timestamp::from_secs(to),
        };
        // Every object, so each element is some probe's hit, and one
        // object never stored.
        let mut probes: Vec<RunProbe> = (0..=7)
            .map(|o| RunProbe::Object(ObjectId::new(o)))
            .collect();
        probes.extend([valid(0, 1), valid(93, 94), valid(100, 160), valid(499, 600)]);
        probes
    }

    /// Whether `e`, a [`keyed`] element, meets the probe, by brute force.
    fn meets(p: RunProbe, e: &Element) -> bool {
        match (p, e.valid) {
            (RunProbe::Object(o), _) => e.object == o,
            (RunProbe::Valid { from, to }, ValidTime::Event(t)) => from <= t && t < to,
            (RunProbe::Valid { .. }, ValidTime::Interval(_)) => unreachable!(),
        }
    }

    /// Every probe's answer over `view` as element ids, checked against a
    /// brute-force filter of `view.iter()`.
    fn probe_ids(view: &ElementChunks) -> Vec<Vec<u64>> {
        keyed_probes()
            .into_iter()
            .map(|p| {
                let mut got = Vec::new();
                view.probe(0..view.len(), p, |e| got.push(e.id.raw()));
                let brute: Vec<u64> = view
                    .iter()
                    .filter(|e| meets(p, e))
                    .map(|e| e.id.raw())
                    .collect();
                assert_eq!(got, brute, "{p:?} over {} elements", view.len());
                got
            })
            .collect()
    }

    #[test]
    #[allow(clippy::reversed_empty_ranges)] // an inverted range is an input
    fn probe_over_position_ranges_matches_filtered_range() {
        let n = 3 * CHUNK_CAP + 100;
        let mut c = ChunkedElements::with_index(IndexChoice::PointIndex);
        (0..n).for_each(|i| c.push(keyed(i)));
        let (cap, tail) = (CHUNK_CAP, 3 * CHUNK_CAP);
        let ranges = [
            // Whole chunks, and starts and ends mid-chunk.
            0..cap,
            0..n,
            5..cap - 5,
            cap - 3..2 * cap + 7,
            cap + 500..2 * cap,
            // Into, across and within the open tail, and past the end.
            2 * cap + 1000..tail + 50,
            tail - 1..n,
            tail + 10..tail + 60,
            tail + 90..n + 500,
            // Empty, at a seal, mid-chunk, inverted and past the end.
            cap..cap,
            700..700,
            tail + 40..tail + 40,
            900..100,
            n + 5..n + 9,
        ];
        for range in ranges {
            for p in keyed_probes() {
                let mut got = Vec::new();
                c.probe(range.clone(), p, |e| got.push(e.id.raw()));
                let brute: Vec<u64> = c
                    .range(range.clone())
                    .filter(|e| meets(p, e))
                    .map(|e| e.id.raw())
                    .collect();
                assert_eq!(got, brute, "{p:?} over {range:?}");
            }
        }
    }

    #[test]
    fn capture_copies_nothing_and_ignores_later_pushes() {
        let mut c = ChunkedElements::with_index(IndexChoice::PointIndex);
        for i in 0..(CHUNK_CAP + 10) {
            c.push(keyed(i));
        }
        let snap = c.snapshot();
        assert!(Arc::ptr_eq(&snap.chunks, &c.view.chunks), "one chunk list");
        assert!(
            Arc::ptr_eq(snap.chunks.last().unwrap(), c.view.chunks.last().unwrap()),
            "one open tail"
        );
        let ids: Vec<u64> = snap.iter().map(|e| e.id.raw()).collect();
        let probed = probe_ids(&snap);

        // Fill the shared tail up to its seal, then open another chunk.
        for i in (CHUNK_CAP + 10)..(2 * CHUNK_CAP + 5) {
            c.push(keyed(i));
        }
        assert!(c.view.chunks[1].runs.get().is_some(), "sealed");
        assert!(Arc::ptr_eq(&snap.chunks[1], &c.view.chunks[1]), "in place");
        assert_eq!(snap.len(), CHUNK_CAP + 10);
        assert_eq!(snap.iter().map(|e| e.id.raw()).collect::<Vec<_>>(), ids);
        assert_eq!(probe_ids(&snap), probed);
        probe_ids(&c);
    }

    #[test]
    fn captures_racing_a_writer_see_exactly_their_prefix() {
        use std::sync::{mpsc, RwLock};
        let n = 3 * CHUNK_CAP + 17;
        let store = RwLock::new(ChunkedElements::with_index(IndexChoice::PointIndex));
        // Where the reader captures while the writer waits: empty, around
        // each seal, and at the end. From each stop the writer pushes on
        // to the next — filling and sealing the captured tail — while the
        // reader checks that capture and keeps taking new ones.
        let stops = [
            0,
            1,
            CHUNK_CAP - 1,
            CHUNK_CAP,
            CHUNK_CAP + 1,
            2 * CHUNK_CAP - 2,
            3 * CHUNK_CAP,
            n,
        ];
        let check = |snap: &ElementChunks| {
            let ids: Vec<u64> = snap.iter().map(|e| e.id.raw()).collect();
            assert_eq!(ids, (0..snap.len() as u64).collect::<Vec<_>>());
            probe_ids(snap);
        };
        let (go, orders) = mpsc::channel::<usize>();
        let (done, acks) = mpsc::channel::<()>();
        std::thread::scope(|s| {
            let store = &store;
            s.spawn(move || {
                let mut pushed = 0;
                for upto in orders {
                    for i in pushed..upto {
                        store.write().expect("no writer panicked").push(keyed(i));
                    }
                    pushed = upto;
                    done.send(()).expect("the reader waits");
                }
            });
            for pair in stops.windows(2) {
                let snap = store.read().expect("no writer panicked").snapshot();
                assert_eq!(snap.len(), pair[0]);
                go.send(pair[1]).expect("the writer waits");
                check(&snap);
                loop {
                    // Checked outside the lock, while the writer runs.
                    let racing = store.read().expect("no writer panicked").snapshot();
                    check(&racing);
                    if racing.len() == pair[1] {
                        break;
                    }
                }
                acks.recv().expect("the writer reached the stop");
                check(&snap);
            }
            drop(go);
        });
    }

    /// Probes `range` of `view` with `p`, checks the answer against a
    /// brute-force filter of `view.range(range)`, and returns the runs
    /// searched.
    fn probe_checked(view: &ElementChunks, range: Range<usize>, p: RunProbe) -> usize {
        let mut got = Vec::new();
        let runs = view.probe(range.clone(), p, |e| got.push(e.id.raw()));
        let brute: Vec<u64> = view
            .range(range.clone())
            .filter(|e| meets(p, e))
            .map(|e| e.id.raw())
            .collect();
        assert_eq!(got, brute, "{p:?} over {range:?} of {}", view.len());
        runs
    }

    #[test]
    #[allow(clippy::reversed_empty_ranges)] // an inverted range is an input
    fn span_walk_matches_filtered_range_over_many_chunks() {
        let (cap, sealed) = (CHUNK_CAP, 97);
        let n = sealed * cap + 300;
        let mut c = ChunkedElements::with_index(IndexChoice::PointIndex);
        (0..n).for_each(|i| c.push(keyed(i)));
        let tail = sealed * cap;
        let ranges = [
            // Aligned to span edges, and straddling them by one.
            0..64 * cap,
            64 * cap..96 * cap,
            0..64 * cap - 1,
            0..64 * cap + 1,
            64 * cap - 1..96 * cap + 1,
            64 * cap + 1..96 * cap - 1,
            32 * cap..tail,
            // Starting in the middle of a span, and of a chunk.
            5 * cap..80 * cap,
            37 * cap + 17..70 * cap + 5,
            3..tail - 3,
            // Across into the open tail, and only in it.
            cap..n,
            90 * cap + 11..tail + 100,
            tail + 10..tail + 200,
            tail..n + 50,
            // Empty: at a seal, mid-chunk, at the end, inverted.
            64 * cap..64 * cap,
            50..50,
            n..n,
            80 * cap..8 * cap,
        ];
        // Object probes keep one run per chunk; valid-time probes search
        // one span per set bit of the whole chunks, plus the partial end.
        let bound = sealed.ilog2() as usize + 2;
        for range in ranges {
            for p in keyed_probes() {
                let runs = probe_checked(&c, range.clone(), p);
                if matches!(p, RunProbe::Valid { .. }) {
                    assert!(runs <= bound, "{p:?} over {range:?}: {runs} runs");
                }
            }
        }
        // A full visible prefix searches one run per set bit of the
        // sealed count (97 = 64 + 32 + 1), then filters the tail.
        let at = RunProbe::Valid {
            from: Timestamp::from_secs(93),
            to: Timestamp::from_secs(94),
        };
        let full = probe_checked(&c, 0..n, at);
        assert!(full <= sealed.count_ones() as usize, "{full} runs over {sealed} chunks");
        // Every prefix length, at chunk granularity.
        for k in 0..=sealed {
            let runs = probe_checked(&c, 0..k * cap, at);
            assert!(runs <= k.count_ones() as usize, "{runs} runs over {k} chunks");
        }
    }

    #[test]
    fn capped_spans_tile_long_prefixes() {
        // 200 sealed chunks: chunk 128 spans 64 chunks, not 128, so a
        // prefix past 128 chunks searches one run per 64 chunks and one per
        // set bit of the rest.
        let (cap, sealed) = (CHUNK_CAP, 200);
        let n = sealed * cap + 40;
        let mut c = ChunkedElements::with_index(IndexChoice::PointIndex);
        (0..n).for_each(|i| c.push(keyed(i)));
        let at = RunProbe::Valid {
            from: Timestamp::from_secs(93),
            to: Timestamp::from_secs(94),
        };
        for k in [1, 63, 64, 65, 127, 128, 129, 150, 191, 192, 193, 199, 200] {
            let runs = probe_checked(&c, 0..k * cap, at);
            let tiles = k / MAX_SPAN_CHUNKS + (k % MAX_SPAN_CHUNKS).count_ones() as usize;
            assert_eq!(runs, tiles, "{runs} runs over {k} chunks");
        }
        // A range starting past the first 64-chunk spans, and straddling
        // a span edge.
        for range in [130 * cap + 7..n, 127 * cap + 1..193 * cap - 1, 190 * cap..200 * cap] {
            for p in keyed_probes() {
                let runs = probe_checked(&c, range.clone(), p);
                if matches!(p, RunProbe::Valid { .. }) {
                    assert!(runs <= 8, "{p:?} over {range:?}: {runs} runs");
                }
            }
        }
    }

    #[test]
    fn an_open_ended_interval_widens_only_its_own_chunk() {
        // 70 sealed chunks of one-second intervals and a partial tail; the
        // third element reaches the end of time. Interval runs keep no
        // span, so every stab searches each sealed chunk's own run, and
        // only chunk 0's run has that interval's length.
        let (cap, sealed) = (CHUNK_CAP, 70);
        let n = sealed * cap + 300;
        let element = |i: usize| {
            let begin = Timestamp::from_secs(i as i64);
            let end = if i == 2 { Timestamp::MAX } else { Timestamp::from_secs(i as i64 + 1) };
            Element::new(
                ElementId::new(i as u64),
                ObjectId::new(i as u64 % 7),
                ValidTime::Interval(tempora_time::Interval::new(begin, end).unwrap()),
                Timestamp::from_secs(i as i64),
            )
        };
        let mut c = ChunkedElements::with_index(IndexChoice::IntervalTree);
        (0..n).for_each(|i| c.push(element(i)));
        // Odd chunks span themselves alone: their widest run is their own.
        for i in 1..=sealed {
            assert_eq!(c.widest(i).is_some(), i % 2 == 1, "chunk {i}");
        }
        for t in [0, 2, 3, cap, 64 * cap + 5, n - 1, n + 10] {
            let stab = RunProbe::Valid {
                from: Timestamp::from_secs(t as i64),
                to: Timestamp::from_secs(t as i64 + 1),
            };
            for range in [0..n, 64 * cap..n, 3..5 * cap + 1] {
                let mut got = Vec::new();
                let runs = c.probe(range.clone(), stab, |e| got.push(e.id.raw()));
                let brute: Vec<u64> = c
                    .range(range.clone())
                    .filter(|e| stab.selects(e))
                    .map(|e| e.id.raw())
                    .collect();
                assert_eq!(got, brute, "stab at {t} over {range:?}");
                let chunks = range.start / cap..range.end.min(sealed * cap).div_ceil(cap);
                assert_eq!(runs, chunks.len(), "stab at {t} over {range:?}");
            }
        }
    }

    #[test]
    fn captures_racing_span_seals_probe_exactly_their_prefix() {
        use std::sync::atomic::{AtomicBool, Ordering};
        use std::sync::RwLock;
        // Past chunk 8, so the writer seals spans of width 2, 4 and 8
        // while readers probe captures that share those chunks.
        let n = 9 * CHUNK_CAP + 33;
        let store = RwLock::new(ChunkedElements::with_index(IndexChoice::PointIndex));
        let done = AtomicBool::new(false);
        let check = |snap: &ElementChunks| {
            let len = snap.len();
            for p in keyed_probes() {
                probe_checked(snap, 0..len, p);
                probe_checked(snap, len / 3..len, p);
            }
        };
        std::thread::scope(|s| {
            for _ in 0..2 {
                s.spawn(|| loop {
                    let finished = done.load(Ordering::Acquire);
                    let snap = store.read().expect("no writer panicked").snapshot();
                    check(&snap);
                    if finished {
                        assert_eq!(snap.len(), n);
                        break;
                    }
                });
            }
            for i in 0..n {
                store.write().expect("no reader panicked").push(keyed(i));
                if i % 97 == 0 {
                    std::thread::yield_now();
                }
            }
            done.store(true, Ordering::Release);
        });
    }

    #[test]
    fn from_vec_round_trips() {
        let v: Vec<Element> = (0..(CHUNK_CAP + 3)).map(|i| el(i as u64, i as i64)).collect();
        let c = ChunkedElements::from_vec(v.clone());
        assert_eq!(c.len(), v.len());
        assert!(c.iter().zip(v.iter()).all(|(a, b)| a.id == b.id));
    }
}
