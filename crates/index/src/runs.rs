//! Per-chunk key runs: the object and valid-time indexes of one storage
//! chunk.
//!
//! Storage keeps elements in fixed-size chunks in transaction-time order.
//! Next to its elements each chunk keeps small runs of keys, each key
//! tagged with its element's offset in the chunk:
//!
//! * an **object run** for every relation — the per-surrogate partitions
//!   of §2, so an object's life-line is a probe per chunk;
//! * a **valid-time run** only where [`select_index`](crate::select_index)
//!   picks a dedicated index: event times for [`IndexChoice::PointIndex`],
//!   and for [`IndexChoice::IntervalTree`] intervals sorted by begin with
//!   the chunk's longest length (a probe searches past the begins too
//!   early to reach it and filters at most one chunk of keys).
//!
//! While a chunk is open its keys are appended unsorted and a probe
//! filters them linearly; when the chunk seals they are sorted once. A run
//! is never touched by a logical deletion — a deletion is a `tt_d` filter
//! at the reader's pin — so one run serves every pin, and a copy-on-write
//! copy of the chunk shares it.

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

/// The key runs of one chunk. The default keeps the object run alone.
#[derive(Debug, Clone, Default)]
pub struct ChunkRuns {
    objects: KeyRun<u64>,
    valid: ValidRun,
    /// Whether the keys are sorted (the chunk is full) or still in
    /// arrival order.
    sealed: bool,
}

#[derive(Debug, Clone, Default)]
enum ValidRun {
    /// Valid-time reads need no run (ordered and tt-proxy relations).
    #[default]
    None,
    /// Event valid times.
    Point(KeyRun<i64>),
    /// Valid intervals (events as their one-tick span).
    Interval(IntervalRun),
}

impl ChunkRuns {
    /// Empty runs for a relation whose valid-time access is `choice`.
    #[must_use]
    pub fn new(choice: IndexChoice) -> Self {
        let valid = match choice {
            IndexChoice::PointIndex => ValidRun::Point(KeyRun::default()),
            IndexChoice::IntervalTree => ValidRun::Interval(IntervalRun::default()),
            IndexChoice::AppendOrder | IndexChoice::TtProxy(_) => ValidRun::None,
        };
        ChunkRuns {
            valid,
            ..ChunkRuns::default()
        }
    }

    /// Keys the element at the next offset.
    ///
    /// # Panics
    ///
    /// Panics if the runs are already sealed.
    pub fn push(&mut self, element: &Element) {
        assert!(!self.sealed, "key pushed into a sealed run");
        self.objects.push(element.object.raw());
        match (&mut self.valid, element.valid) {
            (ValidRun::Point(run), ValidTime::Event(t)) => run.push(t.micros()),
            (ValidRun::Interval(run), ValidTime::Event(t)) => run.push(t.micros(), t.micros() + 1),
            (ValidRun::Interval(run), ValidTime::Interval(iv)) => {
                run.push(iv.begin().micros(), iv.end().micros());
            }
            // A point run cannot key an interval stamp: the chunk gives the
            // run up, and valid-time probes scan it.
            (ValidRun::Point(_), ValidTime::Interval(_)) => self.valid = ValidRun::None,
            (ValidRun::None, _) => {}
        }
    }

    /// Sorts the keys once the chunk is full; later probes binary search.
    pub fn seal(&mut self) {
        self.objects.seal();
        match &mut self.valid {
            ValidRun::Point(run) => run.seal(),
            ValidRun::Interval(run) => run.seal(),
            ValidRun::None => {}
        }
        self.sealed = true;
    }

    /// Appends to `hits` the offsets, ascending, of exactly the elements
    /// whose key the probe selects; the reader still filters them at its
    /// pin. Returns `false`, adding nothing, when the chunk keeps no run
    /// for the probe.
    pub fn probe(&self, probe: RunProbe, hits: &mut Vec<usize>) -> bool {
        let start = hits.len();
        match (probe, &self.valid) {
            (RunProbe::Object(object), _) => {
                self.objects.find(self.sealed, object.raw(), object.raw(), hits);
            }
            (RunProbe::Valid { from, to }, ValidRun::Point(run)) => {
                run.find(self.sealed, from.micros(), to.micros() - 1, hits);
            }
            (RunProbe::Valid { from, to }, ValidRun::Interval(run)) => {
                run.overlapping(self.sealed, from.micros(), to.micros(), hits);
            }
            (RunProbe::Valid { .. }, ValidRun::None) => return false,
        }
        if self.sealed {
            hits[start..].sort_unstable();
        }
        true
    }
}

/// Keys tagged with their element's offset, sorted by `(key, offset)`
/// once sealed.
#[derive(Debug, Clone, Default)]
struct KeyRun<K>(Vec<(K, u32)>);

impl<K: Ord + Copy> KeyRun<K> {
    fn push(&mut self, key: K) {
        let offset = u32::try_from(self.0.len()).expect("chunk offsets fit u32");
        self.0.push((key, offset));
    }

    fn seal(&mut self) {
        self.0.sort_unstable();
    }

    /// Offsets of the keys in `lo..=hi`.
    fn find(&self, sealed: bool, lo: K, hi: K, hits: &mut Vec<usize>) {
        if sealed {
            let start = self.0.partition_point(|&(k, _)| k < lo);
            // Most chunks hold no match: skip the second search.
            if self.0.get(start).is_some_and(|&(k, _)| k <= hi) {
                let len = self.0[start..].partition_point(|&(k, _)| k <= hi);
                hits.extend(self.0[start..start + len].iter().map(|&(_, o)| o as usize));
            }
        } else {
            let matching = self.0.iter().filter(|&&(k, _)| lo <= k && k <= hi);
            hits.extend(matching.map(|&(_, o)| o as usize));
        }
    }
}

/// Half-open intervals `[begin, end)` in microseconds, tagged with their
/// offset. Sealed, they are sorted by begin and keep the longest length
/// among them: no interval that begins at or before `from − max_len` can
/// reach past `from`, so an overlap probe binary searches past those
/// begins and filters the rest, up to the first begin at or after `to`.
#[derive(Debug, Clone, Default)]
struct IntervalRun {
    entries: Vec<(i64, i64, u32)>,
    max_len: i64,
}

impl IntervalRun {
    fn push(&mut self, begin: i64, end: i64) {
        let offset = u32::try_from(self.entries.len()).expect("chunk offsets fit u32");
        self.entries.push((begin, end, offset));
        self.max_len = self.max_len.max(end.saturating_sub(begin));
    }

    fn seal(&mut self) {
        self.entries.sort_unstable();
    }

    /// Offsets of the intervals with `begin < to && end > from`.
    fn overlapping(&self, sealed: bool, from: i64, to: i64, hits: &mut Vec<usize>) {
        let meets = |&&(b, e, _): &&(i64, i64, u32)| b < to && e > from;
        if !sealed {
            hits.extend(self.entries.iter().filter(meets).map(|e| e.2 as usize));
            return;
        }
        let start = from
            .checked_sub(self.max_len)
            .map_or(0, |floor| self.entries.partition_point(|e| e.0 <= floor));
        let candidates = self.entries[start..].iter().take_while(|e| e.0 < to);
        hits.extend(candidates.filter(meets).map(|e| e.2 as usize));
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rand::{Rng, SeedableRng};
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

    /// Builds runs over `elements`, checking every probe against brute
    /// force both open (unsorted) and sealed.
    fn check_open_and_sealed(choice: IndexChoice, elements: &[Element], probes: &[RunProbe]) {
        let mut runs = ChunkRuns::new(choice);
        for e in elements {
            runs.push(e);
        }
        for sealed in [false, true] {
            if sealed {
                runs.seal();
            }
            for &p in probes {
                assert_eq!(probe(&runs, p), brute(elements, p), "{p:?}, sealed {sealed}");
            }
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
        for choice in [IndexChoice::AppendOrder, IndexChoice::PointIndex, IndexChoice::IntervalTree] {
            let mut runs = ChunkRuns::new(choice);
            runs.push(&e);
            let mut hits = Vec::new();
            assert!(runs.probe(RunProbe::Object(ObjectId::new(3)), &mut hits));
            assert_eq!(hits, vec![0]);
            let has_valid = runs.probe(valid(42, 43), &mut Vec::new());
            assert_eq!(has_valid, choice != IndexChoice::AppendOrder, "{choice:?}");
        }
        // A point run cannot key an interval: valid-time probes fall back
        // to a scan, object probes still answer.
        let mut runs = ChunkRuns::new(IndexChoice::PointIndex);
        runs.push(&interval(0, 1, 5));
        assert!(!runs.probe(valid(1, 2), &mut Vec::new()));
        assert_eq!(probe(&runs, RunProbe::Object(ObjectId::new(0))), vec![0]);
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
