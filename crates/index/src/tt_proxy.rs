//! The transaction-time proxy: answering valid-time predicates through the
//! transaction-time order.
//!
//! This is the concrete query-processing payoff the paper promises (§1,
//! §4): if a relation's declared specializations bound the offset
//! `vt − tt` to a band `[lo, hi]`, then an element valid at `vt` must have
//! been stored with
//!
//! ```text
//!     tt ∈ [vt − hi, vt − lo]
//! ```
//!
//! Transaction times are always monotone (elements are stored in `tt`
//! order, §2), so that range is a binary search over the base relation.
//! It picks the storage chunks a probe visits, and each chunk's
//! valid-time run finds the rows (see [`ChunkRuns`](crate::ChunkRuns));
//! the residual valid-time filter keeps the answer exact.
//!
//! The degenerate relation is the limiting case (`lo = hi = 0`): a
//! valid-time query *is* a transaction-time query ("a degenerate temporal
//! relation can be advantageously treated as a rollback relation", §3.1).

use tempora_time::{TimeDelta, Timestamp};

use tempora_core::region::OffsetBand;

/// The transaction-time window that must contain every element whose valid
/// time equals `vt`, under offset band `band`. Returns `None` when the
/// band is unbounded on the relevant side (the proxy is then useless — a
/// full scan is required).
///
/// The returned window is inclusive on both ends: `[tt_lo, tt_hi]`.
#[must_use]
pub fn tt_window_for_vt(band: OffsetBand, vt: Timestamp) -> Option<(Timestamp, Timestamp)> {
    let lo = band.lo?;
    let hi = band.hi?;
    // vt − tt ∈ [lo, hi]  ⟺  tt ∈ [vt − hi, vt − lo].
    let tt_lo = vt.saturating_sub(TimeDelta::from_micros(hi));
    let tt_hi = vt.saturating_sub(TimeDelta::from_micros(lo));
    Some((tt_lo, tt_hi))
}

/// The transaction-time window for a valid-time *range* `[vt_from, vt_to)`:
/// the union of the per-point windows.
#[must_use]
pub fn tt_window_for_vt_range(
    band: OffsetBand,
    vt_from: Timestamp,
    vt_to: Timestamp,
) -> Option<(Timestamp, Timestamp)> {
    if vt_from >= vt_to {
        return None;
    }
    let (lo_from, _) = tt_window_for_vt(band, vt_from)?;
    // The range is half-open; its supremum point is vt_to − 1µs.
    let last = vt_to.saturating_sub(TimeDelta::RESOLUTION);
    let (_, hi_to) = tt_window_for_vt(band, last)?;
    Some((lo_from, hi_to))
}

/// One-sided windows, for one-sided bands: the latest transaction time an
/// element valid at `vt` can have (needs a lower offset bound — e.g. a
/// *retroactively bounded* relation caps how late a fact arrives).
#[must_use]
pub fn tt_upper_for_vt(band: OffsetBand, vt: Timestamp) -> Option<Timestamp> {
    band.lo
        .map(|lo| vt.saturating_sub(TimeDelta::from_micros(lo)))
}

/// The earliest transaction time an element valid at `vt` can have (needs
/// an upper offset bound — e.g. a *predictively bounded* relation caps how
/// early a fact is stored).
#[must_use]
pub fn tt_lower_for_vt(band: OffsetBand, vt: Timestamp) -> Option<Timestamp> {
    band.hi
        .map(|hi| vt.saturating_sub(TimeDelta::from_micros(hi)))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ts(s: i64) -> Timestamp {
        Timestamp::from_secs(s)
    }

    fn band_secs(lo: i64, hi: i64) -> OffsetBand {
        OffsetBand::new(Some(lo * 1_000_000), Some(hi * 1_000_000))
    }

    #[test]
    fn degenerate_band_collapses_to_point() {
        let (lo, hi) = tt_window_for_vt(OffsetBand::ZERO, ts(100)).unwrap();
        assert_eq!(lo, ts(100));
        assert_eq!(hi, ts(100));
    }

    #[test]
    fn retroactive_window() {
        // vt − tt ∈ [−60, −30]: facts stored 30–60 s after they are valid.
        let band = band_secs(-60, -30);
        let (lo, hi) = tt_window_for_vt(band, ts(100)).unwrap();
        assert_eq!(lo, ts(130));
        assert_eq!(hi, ts(160));
    }

    #[test]
    fn predictive_window() {
        // vt − tt ∈ [30, 60]: facts stored 30–60 s before they are valid.
        let band = band_secs(30, 60);
        let (lo, hi) = tt_window_for_vt(band, ts(100)).unwrap();
        assert_eq!(lo, ts(40));
        assert_eq!(hi, ts(70));
    }

    #[test]
    fn window_soundness() {
        // Every (vt, tt) pair inside the band has tt inside the window.
        let band = band_secs(-10, 5);
        let vt = ts(1_000);
        let (lo, hi) = tt_window_for_vt(band, vt).unwrap();
        for tt_s in 900..1_100 {
            let tt = ts(tt_s);
            if band.contains(vt, tt) {
                assert!(lo <= tt && tt <= hi, "tt {tt_s} escaped the window");
            }
        }
    }

    #[test]
    fn unbounded_sides_give_no_window() {
        assert!(tt_window_for_vt(OffsetBand::FULL, ts(0)).is_none());
        assert!(tt_window_for_vt(OffsetBand::at_most(0), ts(0)).is_none());
        assert_eq!(
            tt_upper_for_vt(OffsetBand::at_least(0), ts(100)),
            Some(ts(100))
        );
        assert_eq!(
            tt_lower_for_vt(OffsetBand::at_most(0), ts(100)),
            Some(ts(100))
        );
        assert_eq!(tt_upper_for_vt(OffsetBand::at_most(0), ts(100)), None);
    }

    #[test]
    fn range_window_unions_point_windows() {
        let band = band_secs(-10, 10);
        let (lo, hi) = tt_window_for_vt_range(band, ts(100), ts(200)).unwrap();
        // First point 100: window [90, 110]; last point just under 200:
        // window [~190, ~210].
        assert_eq!(lo, ts(90));
        assert!(hi >= ts(209) && hi <= ts(210));
        assert!(tt_window_for_vt_range(band, ts(200), ts(200)).is_none());
    }
}
