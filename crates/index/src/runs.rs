//! Per-chunk key runs and the spans that merge them: the object and
//! valid-time indexes of storage chunks.
//!
//! Storage keeps elements in fixed-size chunks in transaction-time order.
//! When a chunk seals, it gets small sorted runs of keys built from its
//! elements, each key tagged with its element's offset in the chunk:
//!
//! * an **object run** for every relation — the per-surrogate partitions
//!   of §2, so an object's life-line is a probe per chunk;
//! * a **valid-time run** wherever [`select_index`](crate::select_index)
//!   does not pick the append order: event times for
//!   [`IndexChoice::PointIndex`], and for [`IndexChoice::IntervalTree`]
//!   intervals sorted by begin with the chunk's longest length (a probe
//!   searches past the begins too early to reach it and filters at most
//!   one run of keys). An [`IndexChoice::TtProxy`] relation keeps the
//!   run its stamping calls for: its offset band picks the chunks a
//!   valid-time probe visits, and the runs over them find the rows.
//!
//! Sealed chunk `i` (1-based) with a point run also gets a **span run**
//! when `span_width(i)`, the lowest set bit of `i` capped at
//! [`MAX_SPAN_CHUNKS`], is above 1: one point run over chunks `(i −
//! span_width(i), i]`, the layout of a Fenwick tree (Fenwick 1994).
//! [`ChunkRuns::with_span`] builds it by merging the sorted runs that
//! tile those chunks, with offsets counted from the span's first element.
//! So `k` sealed chunks are covered by `⌊k / 64⌋ + popcount(k mod 64)`
//! runs — `popcount(k)` below 128 chunks — and a point probe over a
//! position range searches that many runs, plus one, of O(log chunk
//! size) steps each instead of one run per chunk. Interval runs and
//! object runs get no spans: an interval span would take the longest
//! length of all its chunks, so one long interval would turn every stab
//! of the span into a scan of its begins.
//!
//! The open chunk keeps no run: a reader filters its elements by the
//! probe's key ([`RunProbe::selects`]), the same test a run answers. A
//! run is never touched by a logical deletion — a deletion is a `tt_d`
//! filter at the reader's pin — so one run serves every pin, and a
//! copy-on-write copy of the chunk shares it.

use tempora_core::{Element, ObjectId, ValidTime};
use tempora_time::Timestamp;

use crate::IndexChoice;

/// What a probe asks of a chunk's runs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RunProbe {
    /// Every element of one object.
    Object(ObjectId),
    /// Every element whose valid time meets `[from, to)`: an event inside
    /// it, or an interval overlapping it (`begin < to && end > from`).
    Valid {
        /// Inclusive lower bound.
        from: Timestamp,
        /// Exclusive upper bound.
        to: Timestamp,
    },
}

impl RunProbe {
    /// Whether the probe selects `element`'s key: exactly the elements a
    /// run returns, tested one element at a time.
    #[must_use]
    pub fn selects(self, element: &Element) -> bool {
        match self {
            RunProbe::Object(object) => element.object == object,
            RunProbe::Valid { from, to } => match element.valid {
                ValidTime::Event(t) => from <= t && t < to,
                ValidTime::Interval(iv) => iv.begin() < to && iv.end() > from,
            },
        }
    }
}

/// The sorted key runs of one sealed chunk, and its span run when it has
/// one.
#[derive(Debug)]
pub struct ChunkRuns {
    objects: KeyRun<u64>,
    /// `None` when valid-time reads need no run (ordered relations), or a
    /// point run met an interval stamp it cannot key.
    valid: Option<ValidRun>,
    /// The point run over the chunk's span, when [`Self::with_span`] could
    /// merge one.
    span: Option<ValidRun>,
}

/// The most chunks one span covers. Sealing a chunk merges at most this
/// many chunks' keys, so a seal's cost does not grow with the relation
/// (uncapped, the seal of chunk 512 merged 512 chunks' keys in 22 ms on a
/// 2-vCPU x86-64 Xeon), and span keys stay at most 3.5 times the point-run
/// keys. The price is one more run per further 64 chunks in a probe.
pub const MAX_SPAN_CHUNKS: usize = 64;

/// How many chunks sealed chunk `i` (1-based) spans, ending at itself:
/// the lowest set bit of `i`, at most [`MAX_SPAN_CHUNKS`].
fn span_width(i: usize) -> usize {
    (i & i.wrapping_neg()).min(MAX_SPAN_CHUNKS)
}

impl ChunkRuns {
    /// Builds the runs `choice` asks for over a sealed chunk's `elements`;
    /// a key's offset is its element's position in the iteration.
    #[must_use]
    pub fn build<'a>(choice: IndexChoice, elements: impl IntoIterator<Item = &'a Element>) -> Self {
        let mut elements = elements.into_iter().peekable();
        // A tt-proxy relation keys the run its stamping calls for; all of
        // a relation's stamps are of one kind, so the first shows which
        // (an interval run keys either kind).
        let choice = match (choice, elements.peek().map(|e| e.valid)) {
            (IndexChoice::TtProxy(_), Some(ValidTime::Event(_))) => IndexChoice::PointIndex,
            (IndexChoice::TtProxy(_), _) => IndexChoice::IntervalTree,
            (choice, _) => choice,
        };
        let mut objects = Vec::new();
        let mut points = Vec::new();
        let mut intervals = Vec::new();
        let mut keys_points = choice == IndexChoice::PointIndex;
        for (offset, element) in elements.enumerate() {
            let offset = u32::try_from(offset).expect("chunk offsets fit u32");
            objects.push((element.object.raw(), offset));
            match (choice, element.valid) {
                (IndexChoice::PointIndex, ValidTime::Event(t)) => points.push((t.micros(), offset)),
                // A point run cannot key an interval stamp: the chunk gives
                // the run up, and valid-time probes filter it by key.
                (IndexChoice::PointIndex, ValidTime::Interval(_)) => keys_points = false,
                (IndexChoice::IntervalTree, ValidTime::Event(t)) => {
                    intervals.push((t.micros(), t.micros() + 1, offset));
                }
                (IndexChoice::IntervalTree, ValidTime::Interval(iv)) => {
                    intervals.push((iv.begin().micros(), iv.end().micros(), offset));
                }
                _ => {}
            }
        }
        let valid = match choice {
            IndexChoice::PointIndex if keys_points => Some(ValidRun(ValidKeys::Point(KeyRun::sorted(points)))),
            IndexChoice::IntervalTree => Some(ValidRun(ValidKeys::Interval(IntervalRun::sorted(intervals)))),
            _ => None,
        };
        ChunkRuns {
            objects: KeyRun::sorted(objects),
            valid,
            span: None,
        }
    }

    /// Adds the span run of this chunk as sealed chunk `i` (1-based): one
    /// point run over chunks `(i − span_width(i), i]`, with offsets counted
    /// from the span's first element. The widest runs of the chunks before
    /// `i` — [`Self::widest`] of each, which `widest` returns by chunk
    /// number — tile the rest of the span, each at most half as wide as
    /// the one before it. They are
    /// already sorted, so the span merges them right to left: a key is
    /// copied once per doubling of the run it sits in, which is linear.
    /// The chunk stays without a span when it spans itself alone, or when
    /// it or any chunk under the span keeps no point run for it.
    #[must_use]
    pub fn with_span<'a>(self, i: usize, widest: impl Fn(usize) -> Option<&'a ValidRun>) -> Self {
        let mut span = None;
        let mut j = i - 1;
        while j > i - span_width(i) {
            let right = span.as_ref().or(self.valid.as_ref());
            let Some(merged) = widest(j).zip(right).and_then(|(left, right)| left.followed_by(right)) else {
                return self;
            };
            span = Some(merged);
            j -= span_width(j);
        }
        ChunkRuns { span, ..self }
    }

    /// The widest valid-time run of this chunk as sealed chunk `i`
    /// (1-based): its span when `span_width(i) > 1`, else its own run.
    /// `None` when it keeps no such run.
    #[must_use]
    pub fn widest(&self, i: usize) -> Option<&ValidRun> {
        if span_width(i) > 1 {
            self.span.as_ref()
        } else {
            self.valid.as_ref()
        }
    }

    /// Appends to `hits` the offsets, ascending, of exactly the elements
    /// the probe selects; the reader still filters them at its pin.
    /// Returns `false`, adding nothing, when the chunk keeps no run for
    /// the probe.
    pub fn probe(&self, probe: RunProbe, hits: &mut Vec<usize>) -> bool {
        match (probe, &self.valid) {
            (RunProbe::Object(object), _) => {
                // One key's offsets are already in position order.
                self.objects.find(object.raw(), object.raw(), hits);
                true
            }
            (RunProbe::Valid { .. }, Some(run)) => run.probe(probe, hits),
            (RunProbe::Valid { .. }, None) => false,
        }
    }
}

/// A sorted valid-time run over one chunk, or a point run over the
/// consecutive chunks of a span, keyed once per element; an offset counts
/// from the first element the run covers.
#[derive(Debug)]
pub struct ValidRun(ValidKeys);

#[derive(Debug)]
enum ValidKeys {
    /// Event valid times.
    Point(KeyRun<i64>),
    /// Valid intervals (events as their one-tick span).
    Interval(IntervalRun),
}

impl ValidRun {
    /// Appends to `hits` the offsets, ascending, of exactly the elements
    /// whose valid time meets a [`RunProbe::Valid`]. Returns `false`,
    /// adding nothing, for an object probe, which a valid-time run cannot
    /// answer.
    pub fn probe(&self, probe: RunProbe, hits: &mut Vec<usize>) -> bool {
        let RunProbe::Valid { from, to } = probe else {
            return false;
        };
        let start = hits.len();
        match &self.0 {
            ValidKeys::Point(run) => run.find(from.micros(), to.micros() - 1, hits),
            ValidKeys::Interval(run) => run.overlapping(from.micros(), to.micros(), hits),
        }
        hits[start..].sort_unstable();
        true
    }

    /// The point run over this run's elements followed by `right`'s, by
    /// one linear merge; `None` unless both are point runs.
    fn followed_by(&self, right: &ValidRun) -> Option<ValidRun> {
        let (ValidKeys::Point(left), ValidKeys::Point(right)) = (&self.0, &right.0) else {
            return None;
        };
        let shift = u32::try_from(left.0.len()).expect("span offsets fit u32");
        let right = right.0.iter().map(|&(k, o)| (k, o + shift));
        Some(ValidRun(ValidKeys::Point(KeyRun(merge(&left.0, right)))))
    }
}

/// Merges two sorted sequences into one sorted vector.
fn merge<T: Ord + Copy>(left: &[T], right: impl ExactSizeIterator<Item = T>) -> Vec<T> {
    let mut out = Vec::with_capacity(left.len() + right.len());
    let mut right = right.peekable();
    for &l in left {
        while let Some(r) = right.next_if(|&r| r < l) {
            out.push(r);
        }
        out.push(l);
    }
    out.extend(right);
    out
}

/// Keys tagged with their element's offset, sorted by `(key, offset)`.
#[derive(Debug)]
struct KeyRun<K>(Vec<(K, u32)>);

impl<K: Ord + Copy> KeyRun<K> {
    fn sorted(mut keys: Vec<(K, u32)>) -> Self {
        keys.sort_unstable();
        KeyRun(keys)
    }

    /// Offsets of the keys in `lo..=hi`.
    fn find(&self, lo: K, hi: K, hits: &mut Vec<usize>) {
        let start = self.0.partition_point(|&(k, _)| k < lo);
        // Most chunks hold no match: skip the second search.
        if self.0.get(start).is_some_and(|&(k, _)| k <= hi) {
            let len = self.0[start..].partition_point(|&(k, _)| k <= hi);
            hits.extend(self.0[start..start + len].iter().map(|&(_, o)| o as usize));
        }
    }
}

/// Half-open intervals `[begin, end)` in microseconds, tagged with their
/// offset, sorted by begin, with the longest length among them: no
/// interval that begins at or before `from − max_len` can reach past
/// `from`, so an overlap probe binary searches past those begins and
/// filters the rest, up to the first begin at or after `to`.
#[derive(Debug)]
struct IntervalRun {
    entries: Vec<(i64, i64, u32)>,
    max_len: i64,
}

impl IntervalRun {
    fn sorted(mut entries: Vec<(i64, i64, u32)>) -> Self {
        entries.sort_unstable();
        let max_len = entries
            .iter()
            .map(|&(b, e, _)| e.saturating_sub(b))
            .max()
            .unwrap_or(0);
        IntervalRun { entries, max_len }
    }

    /// Offsets of the intervals with `begin < to && end > from`.
    fn overlapping(&self, from: i64, to: i64, hits: &mut Vec<usize>) {
        let start = from
            .checked_sub(self.max_len)
            .map_or(0, |floor| self.entries.partition_point(|e| e.0 <= floor));
        let candidates = self.entries[start..].iter().take_while(|e| e.0 < to);
        let overlapping = candidates.filter(|&&(b, e, _)| b < to && e > from);
        hits.extend(overlapping.map(|e| e.2 as usize));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
    use tempora_core::region::OffsetBand;
    use tempora_core::ElementId;
    use tempora_time::Interval;

    fn event(offset: usize, object: u64, t: i64) -> Element {
        Element::new(
            ElementId::new(offset as u64),
            ObjectId::new(object),
            ValidTime::Event(Timestamp::from_micros(t)),
            Timestamp::from_micros(offset as i64),
        )
    }

    fn interval(offset: usize, b: i64, e: i64) -> Element {
        let iv = Interval::new(Timestamp::from_micros(b), Timestamp::from_micros(e)).unwrap();
        Element::new(
            ElementId::new(offset as u64),
            ObjectId::new(offset as u64 % 7),
            ValidTime::Interval(iv),
            Timestamp::from_micros(offset as i64),
        )
    }

    fn probe(runs: &ChunkRuns, p: RunProbe) -> Vec<usize> {
        let mut hits = Vec::new();
        assert!(runs.probe(p, &mut hits), "{p:?} has a run");
        hits
    }

    fn valid(from: i64, to: i64) -> RunProbe {
        RunProbe::Valid {
            from: Timestamp::from_micros(from),
            to: Timestamp::from_micros(to),
        }
    }

    /// Offsets whose element meets the probe, by brute force.
    fn brute(elements: &[Element], p: RunProbe) -> Vec<usize> {
        let meets = |e: &Element| match p {
            RunProbe::Object(o) => e.object == o,
            RunProbe::Valid { from, to } => match e.valid {
                ValidTime::Event(t) => from <= t && t < to,
                ValidTime::Interval(iv) => iv.begin() < to && iv.end() > from,
            },
        };
        (0..elements.len()).filter(|&i| meets(&elements[i])).collect()
    }

    /// Checks every probe against brute force on `elements` both open
    /// (the key filter a reader applies to the open tail) and sealed (the
    /// runs built over them).
    fn check_open_and_sealed(choice: IndexChoice, elements: &[Element], probes: &[RunProbe]) {
        let runs = ChunkRuns::build(choice, elements);
        for &p in probes {
            let open: Vec<usize> = (0..elements.len())
                .filter(|&i| p.selects(&elements[i]))
                .collect();
            assert_eq!(open, brute(elements, p), "{p:?}, open");
            assert_eq!(probe(&runs, p), brute(elements, p), "{p:?}, sealed");
        }
    }

    #[test]
    fn point_range_matches_brute_force() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(7);
        let elements: Vec<Element> = (0..1024)
            .map(|i| event(i, rng.gen_range(0..50), rng.gen_range(-200..200)))
            .collect();
        let mut probes: Vec<RunProbe> = (-210..210).map(|t| valid(t, t + 1)).collect();
        for _ in 0..200 {
            let from = rng.gen_range(-250..250);
            probes.push(valid(from, from + rng.gen_range(-5..60)));
        }
        probes.extend((0..55).map(|o| RunProbe::Object(ObjectId::new(o))));
        check_open_and_sealed(IndexChoice::PointIndex, &elements, &probes);
        check_open_and_sealed(IndexChoice::TtProxy(OffsetBand::ZERO), &elements, &probes);
    }

    #[test]
    fn interval_stab_and_overlap_match_brute_force() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(11);
        // Every small size, then sizes around powers of two; a few
        // intervals much longer than the rest, so the longest length
        // decides where a probe starts.
        for n in (0..=70).chain([100, 255, 256, 257, 511, 512, 1000, 1023, 1024]) {
            let elements: Vec<Element> = (0..n)
                .map(|i| {
                    let b = rng.gen_range(-500..500);
                    let len = if i % 4 == 0 { rng.gen_range(1..1_500) } else { rng.gen_range(1..20) };
                    interval(i, b, b + len)
                })
                .collect();
            let mut probes: Vec<RunProbe> = (-520..2_020).step_by(3).map(|t| valid(t, t + 1)).collect();
            for _ in 0..100 {
                let from = rng.gen_range(-600..600);
                // Inverted windows included: the overlap test is one formula.
                probes.push(valid(from, from + rng.gen_range(-20..200)));
            }
            check_open_and_sealed(IndexChoice::IntervalTree, &elements, &probes);
            check_open_and_sealed(IndexChoice::TtProxy(OffsetBand::ZERO), &elements, &probes);
        }
    }

    #[test]
    fn interval_run_keys_events_as_one_tick() {
        let elements = vec![event(0, 1, 10), interval(1, 5, 15), event(2, 1, 15)];
        let probes = [valid(10, 11), valid(15, 16), valid(0, 10), valid(11, 15)];
        check_open_and_sealed(IndexChoice::IntervalTree, &elements, &probes);
    }

    #[test]
    fn runs_follow_the_index_choice() {
        let e = event(0, 3, 42);
        for choice in [
            IndexChoice::AppendOrder,
            IndexChoice::PointIndex,
            IndexChoice::IntervalTree,
            IndexChoice::TtProxy(OffsetBand::ZERO),
        ] {
            let runs = ChunkRuns::build(choice, [&e]);
            let mut hits = Vec::new();
            assert!(runs.probe(RunProbe::Object(ObjectId::new(3)), &mut hits));
            assert_eq!(hits, vec![0]);
            let has_valid = runs.probe(valid(42, 43), &mut Vec::new());
            assert_eq!(has_valid, choice != IndexChoice::AppendOrder, "{choice:?}");
        }
        // A point run cannot key an interval: valid-time probes fall back
        // to the key filter, object probes still answer.
        let runs = ChunkRuns::build(IndexChoice::PointIndex, [&interval(0, 1, 5)]);
        assert!(!runs.probe(valid(1, 2), &mut Vec::new()));
        assert_eq!(probe(&runs, RunProbe::Object(ObjectId::new(0))), vec![0]);
    }

    /// Seals `chunks` in order as a store does, each with its span, and
    /// checks every probe of each span against brute force over the
    /// chunks it covers. Returns the sealed runs.
    fn check_span(choice: IndexChoice, chunks: &[Vec<Element>], probes: &[RunProbe]) -> Vec<ChunkRuns> {
        let mut built: Vec<ChunkRuns> = Vec::new();
        for (k, chunk) in chunks.iter().enumerate() {
            let i = k + 1;
            let runs = ChunkRuns::build(choice, chunk).with_span(i, |j| built[j - 1].widest(j));
            built.push(runs);
            let Some(span) = built[k].span.as_ref() else {
                continue;
            };
            let covered: Vec<Element> = chunks[i - span_width(i)..i].concat();
            for &p in probes {
                let mut hits = Vec::new();
                assert!(span.probe(p, &mut hits), "{p:?}");
                assert_eq!(hits, brute(&covered, p), "{p:?}, span of chunk {i}");
            }
            assert!(!span.probe(RunProbe::Object(ObjectId::new(1)), &mut Vec::new()));
        }
        built
    }

    #[test]
    fn point_spans_merge_to_the_runs_of_their_chunks() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(13);
        // Eight chunks of uneven sizes, so offsets shift by each left run's
        // length; duplicate keys across chunks, so ties keep position order.
        let sizes = [5, 1, 9, 3, 64, 7, 2, 30];
        let points: Vec<Vec<Element>> = sizes
            .iter()
            .map(|&n| (0..n).map(|i| event(i, 1, rng.gen_range(-40..40))).collect())
            .collect();
        let mut probes: Vec<RunProbe> = (-45..45).map(|t| valid(t, t + 1)).collect();
        probes.extend([valid(-100, 100), valid(0, 10), valid(20, 5)]);
        let built = check_span(IndexChoice::PointIndex, &points, &probes);
        for (k, runs) in built.iter().enumerate() {
            assert_eq!(runs.span.is_some(), span_width(k + 1) > 1, "chunk {}", k + 1);
        }
    }

    #[test]
    fn spans_stop_at_max_span_chunks() {
        let mut rng = rand::rngs::StdRng::seed_from_u64(17);
        // Past chunk 128, whose lowest bit is twice the cap, and chunk 192.
        let points: Vec<Vec<Element>> = (0..200)
            .map(|_| {
                let n = rng.gen_range(1..4);
                (0..n).map(|i| event(i, 1, rng.gen_range(-30..30))).collect()
            })
            .collect();
        let probes = [valid(-5, -4), valid(0, 1), valid(-30, 30), valid(10, 20)];
        let built = check_span(IndexChoice::PointIndex, &points, &probes);
        for i in [64, 128, 192] {
            assert_eq!(span_width(i), MAX_SPAN_CHUNKS, "chunk {i}");
            assert!(built[i - 1].span.is_some(), "chunk {i}");
        }
    }

    #[test]
    fn interval_runs_get_no_span() {
        // One interval reaching the end of time: a span over its chunk
        // would give every stab of the span that interval's length.
        let chunks: Vec<Vec<Element>> = (0..8)
            .map(|k| {
                (0..4)
                    .map(|i| match (k, i) {
                        (2, 0) => interval(i, 0, Timestamp::MAX.micros()),
                        _ => interval(i, k * 10 + i as i64, k * 10 + i as i64 + 3),
                    })
                    .collect()
            })
            .collect();
        let probes: Vec<RunProbe> = (-5..90).map(|t| valid(t, t + 1)).collect();
        for choice in [IndexChoice::IntervalTree, IndexChoice::TtProxy(OffsetBand::ZERO)] {
            let built = check_span(choice, &chunks, &probes);
            for (k, runs) in built.iter().enumerate() {
                let i = k + 1;
                assert!(runs.span.is_none(), "{choice:?}: chunk {i} keeps a span");
                assert_eq!(runs.widest(i).is_some(), span_width(i) == 1, "{choice:?}: chunk {i}");
            }
        }
    }

    #[test]
    fn a_span_needs_a_point_run_in_every_chunk() {
        let points = ChunkRuns::build(IndexChoice::PointIndex, [&event(0, 1, 5)]);
        let intervals = ChunkRuns::build(IndexChoice::IntervalTree, [&event(0, 1, 5)]);
        let unkeyed = ChunkRuns::build(IndexChoice::PointIndex, [&interval(0, 1, 5)]);
        let ordered = ChunkRuns::build(IndexChoice::AppendOrder, [&event(0, 1, 5)]);
        // Chunk 2 spans chunks 1 and 2.
        let span = |last: IndexChoice, earlier: &ChunkRuns| {
            ChunkRuns::build(last, [&event(0, 1, 6)])
                .with_span(2, |j| earlier.widest(j))
                .widest(2)
                .is_some()
        };
        assert!(span(IndexChoice::PointIndex, &points));
        assert!(!span(IndexChoice::IntervalTree, &points), "kinds differ");
        assert!(!span(IndexChoice::PointIndex, &intervals), "kinds differ");
        assert!(!span(IndexChoice::IntervalTree, &intervals), "interval runs");
        assert!(!span(IndexChoice::PointIndex, &unkeyed), "no run to merge");
        assert!(!span(IndexChoice::PointIndex, &ordered), "no run to merge");
        assert!(!span(IndexChoice::AppendOrder, &points), "the chunk keeps none");
        let alone = ChunkRuns::build(IndexChoice::PointIndex, [&event(0, 1, 6)]).with_span(3, |_| unreachable!());
        assert!(alone.span.is_none(), "chunk 3 spans itself alone");
        assert!(alone.widest(3).is_some(), "its own run is its widest");
    }

    #[test]
    fn extreme_coordinates() {
        let elements = vec![
            interval(0, Timestamp::MIN.micros(), Timestamp::MAX.micros()),
            event(1, 1, Timestamp::MIN.micros()),
        ];
        let probes = [
            valid(0, 1),
            valid(Timestamp::MIN.micros(), Timestamp::MIN.micros() + 1),
            valid(Timestamp::MAX.micros() - 1, Timestamp::MAX.micros()),
        ];
        check_open_and_sealed(IndexChoice::IntervalTree, &elements, &probes);
    }
}
