//! Query forms and physical plans.

use std::fmt;

use tempora_time::Timestamp;

use tempora_core::region::OffsetBand;
use tempora_core::ObjectId;

/// A query against a temporal relation (§1's taxonomy of query classes).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Query {
    /// The current state — what a conventional DBMS answers.
    Current,
    /// The historical state as stored at transaction time `tt` (*rollback
    /// query*).
    Rollback {
        /// The transaction time to roll back to.
        tt: Timestamp,
    },
    /// Current elements whose valid time covers `vt` (*historical query* /
    /// valid timeslice).
    Timeslice {
        /// The valid-time instant probed.
        vt: Timestamp,
    },
    /// Current elements whose valid time intersects `[from, to)`.
    TimesliceRange {
        /// Inclusive valid-time lower bound.
        from: Timestamp,
        /// Exclusive valid-time upper bound.
        to: Timestamp,
    },
    /// All elements (current and deleted) of one object's life-line.
    ObjectHistory {
        /// The object surrogate.
        object: ObjectId,
    },
    /// The full bitemporal point query: elements that were *stored* as of
    /// transaction time `tt` and are *valid* at `vt` — "what did the
    /// database believe at `tt` about the state of reality at `vt`?"
    /// Combines §1's rollback and historical classes.
    Bitemporal {
        /// The belief instant (transaction time).
        tt: Timestamp,
        /// The reality instant (valid time).
        vt: Timestamp,
    },
}

impl fmt::Display for Query {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Query::Current => f.write_str("CURRENT"),
            Query::Rollback { tt } => write!(f, "ROLLBACK AS OF {tt}"),
            Query::Timeslice { vt } => write!(f, "TIMESLICE AT {vt}"),
            Query::TimesliceRange { from, to } => write!(f, "TIMESLICE IN [{from}, {to})"),
            Query::ObjectHistory { object } => write!(f, "HISTORY OF {object}"),
            Query::Bitemporal { tt, vt } => write!(f, "TIMESLICE AT {vt} AS OF {tt}"),
        }
    }
}

/// A physical execution strategy.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Plan {
    /// Scan every element, applying the query predicate.
    FullScan,
    /// Scan only the transaction-time prefix `tt_b ≤ tt` (binary search on
    /// the base order), filtering deletions — the rollback strategy.
    TtPrefixScan {
        /// The rollback instant.
        tt: Timestamp,
    },
    /// Binary search the append-only order by valid time — available when
    /// the schema guarantees valid-time-ordered arrival (degenerate /
    /// sequential / non-decreasing relations).
    AppendOrderSearch {
        /// Inclusive valid-time lower bound of the probe.
        from: Timestamp,
        /// Exclusive valid-time upper bound of the probe.
        to: Timestamp,
    },
    /// Binary search the transaction-time window the offset band implies
    /// for the probe, then probe the valid-time runs of that window's
    /// chunks — filtering the open tail by key — and apply the residual
    /// predicate (the tt-proxy strategy).
    TtWindowScan {
        /// The declared conservative offset band.
        band: OffsetBand,
        /// Inclusive valid-time lower bound of the probe.
        from: Timestamp,
        /// Exclusive valid-time upper bound of the probe.
        to: Timestamp,
    },
    /// Probe each chunk's sorted run of event valid times.
    PointProbe {
        /// Inclusive valid-time lower bound.
        from: Timestamp,
        /// Exclusive valid-time upper bound.
        to: Timestamp,
    },
    /// Stab / overlap-query each chunk's interval run.
    IntervalProbe {
        /// Inclusive valid-time lower bound.
        from: Timestamp,
        /// Exclusive valid-time upper bound.
        to: Timestamp,
    },
    /// Walk one object's partition through each chunk's object run.
    ObjectScan {
        /// The object surrogate.
        object: ObjectId,
    },
    /// Touch nothing: the analyzer proved the predicate always-false
    /// against the declared specializations, so the result is empty.
    EmptyScan,
}

impl Plan {
    /// A short name for stats and bench reporting.
    #[must_use]
    pub const fn strategy_name(self) -> &'static str {
        match self {
            Plan::FullScan => "full-scan",
            Plan::TtPrefixScan { .. } => "tt-prefix-scan",
            Plan::AppendOrderSearch { .. } => "append-order-search",
            Plan::TtWindowScan { .. } => "tt-window-scan",
            Plan::PointProbe { .. } => "point-probe",
            Plan::IntervalProbe { .. } => "interval-probe",
            Plan::ObjectScan { .. } => "object-scan",
            Plan::EmptyScan => "empty-scan",
        }
    }
}

impl fmt::Display for Plan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Plan::FullScan => f.write_str("full-scan"),
            Plan::TtPrefixScan { tt } => write!(f, "tt-prefix-scan(≤ {tt})"),
            Plan::AppendOrderSearch { from, to } => {
                write!(f, "append-order-search([{from}, {to}))")
            }
            Plan::TtWindowScan { band, from, to } => {
                write!(f, "tt-window-scan({band}, [{from}, {to}))")
            }
            Plan::PointProbe { from, to } => write!(f, "point-probe([{from}, {to}))"),
            Plan::IntervalProbe { from, to } => write!(f, "interval-probe([{from}, {to}))"),
            Plan::ObjectScan { object } => write!(f, "object-scan({object})"),
            Plan::EmptyScan => f.write_str("empty-scan"),
        }
    }
}

/// How much of the query predicate must still be evaluated per element
/// after the chosen access path.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Residual {
    /// Apply the full query predicate to every fetched element.
    Full,
    /// The analyzer proved the valid-time part of the predicate always
    /// true for every element the access path yields; only the currency
    /// check (is the element undeleted?) remains.
    CurrencyOnly,
}

impl fmt::Display for Residual {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            Residual::Full => "full predicate",
            Residual::CurrencyOnly => "currency check only",
        })
    }
}

/// A physical plan plus what the static analyzer proved about it: the
/// residual predicate strength, and — when the plan was rewritten on the
/// strength of a proof (an always-false predicate short-circuited to
/// [`Plan::EmptyScan`], or an always-true residual dropped) — the proof
/// itself, rendered for `.explain`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AnnotatedPlan {
    /// The physical strategy.
    pub plan: Plan,
    /// How much of the predicate still runs per element.
    pub residual: Residual,
    /// The analyzer's justification, when a proof changed the plan.
    pub proof: Option<String>,
}

impl AnnotatedPlan {
    /// An unannotated plan: full residual, no proof.
    #[must_use]
    pub fn plain(plan: Plan) -> Self {
        AnnotatedPlan {
            plan,
            residual: Residual::Full,
            proof: None,
        }
    }

    /// The provably-empty plan, carrying its proof.
    #[must_use]
    pub fn empty(proof: String) -> Self {
        AnnotatedPlan {
            plan: Plan::EmptyScan,
            residual: Residual::CurrencyOnly,
            proof: Some(proof),
        }
    }
}

impl fmt::Display for AnnotatedPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{} [{}]", self.plan, self.residual)?;
        if let Some(proof) = &self.proof {
            write!(f, "\n  proof: {proof}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_forms() {
        let q = Query::Timeslice {
            vt: Timestamp::from_secs(5),
        };
        assert!(q.to_string().contains("TIMESLICE"));
        assert!(Query::Current.to_string().contains("CURRENT"));
        let p = Plan::FullScan;
        assert_eq!(p.to_string(), "full-scan");
        assert_eq!(p.strategy_name(), "full-scan");
        let w = Plan::TtWindowScan {
            band: OffsetBand::ZERO,
            from: Timestamp::EPOCH,
            to: Timestamp::from_secs(1),
        };
        assert!(w.to_string().contains("tt-window-scan"));
    }
}
