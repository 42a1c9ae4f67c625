//! Human-readable taxonomy reports.
//!
//! The reporting layer a designer reads: where a schema's declared
//! specializations sit in the paper's hierarchies (Figures 2–5), which
//! properties they inherit ("a relation type inherits all the properties
//! of its predecessor relation types", §3.1), and which storage/index/query
//! strategies they unlock.

use std::fmt::Write as _;

use tempora_core::lattice::{event_lattice, render_hasse};
use tempora_core::spec::event::EventSpecKind;
use tempora_core::{RelationSchema, TtReference};
use tempora_index::{select_index, IndexChoice};

/// Renders a full design report for a schema.
#[must_use]
pub fn schema_report(schema: &RelationSchema) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{schema}");

    let lattice = event_lattice();
    for (spec, tt_ref) in schema.event_specs() {
        let kind = spec.kind();
        let mut ancestors: Vec<String> = lattice
            .ancestors(kind)
            .into_iter()
            .filter(|k| *k != EventSpecKind::General)
            .map(|k| k.name().to_string())
            .collect();
        ancestors.sort();
        if !ancestors.is_empty() {
            let _ = writeln!(
                out,
                "  ⇒ {} ({}) inherits: {}",
                kind.name(),
                match tt_ref {
                    TtReference::Insertion => "on insertion",
                    TtReference::Deletion => "on deletion",
                },
                ancestors.join(", ")
            );
        }
    }

    let band = schema.insertion_band();
    let _ = writeln!(out, "  insertion offset band: {band}");

    let _ = writeln!(
        out,
        "  storage: {}",
        if schema.is_degenerate() || schema.is_vt_ordered() {
            "append-only (ordered arrival; rollback-relation treatment per §3.1/§3.2)"
        } else {
            "tuple time-stamped"
        }
    );
    let _ = writeln!(
        out,
        "  valid-time access: {}",
        match select_index(schema) {
            IndexChoice::AppendOrder => "binary search on the base order (no index)".to_string(),
            IndexChoice::TtProxy(b) =>
                format!("tt-proxy window probe via {b} over the window's per-chunk runs"),
            IndexChoice::PointIndex => "sorted point run per storage chunk".to_string(),
            IndexChoice::IntervalTree => "begin-sorted interval run per storage chunk".to_string(),
        }
    );

    let analysis = tempora_analyze::analyze_schema(schema);
    if analysis.is_clean() {
        let _ = writeln!(out, "  static analysis: clean");
    } else {
        let _ = writeln!(out, "  static analysis:");
        for d in &analysis.diagnostics {
            for line in d.to_string().lines() {
                let _ = writeln!(out, "    {line}");
            }
        }
    }
    out
}

/// Renders the full event taxonomy (Figure 2) as an indented hierarchy —
/// the designer's menu of isolated-event specializations.
#[must_use]
pub fn taxonomy_overview() -> String {
    let mut out = String::from("Isolated-event specializations (Figure 2, derived):\n");
    out.push_str(&render_hasse(&event_lattice()));
    out
}

/// Renders all four hierarchies (Figures 2–5) — the complete designer's
/// menu.
#[must_use]
pub fn full_taxonomy() -> String {
    use tempora_core::lattice::{interinterval_lattice, ordering_lattice, regularity_lattice};
    let mut out = taxonomy_overview();
    out.push_str("\nInter-event orderings (Figure 3):\n");
    out.push_str(&render_hasse(&ordering_lattice()));
    out.push_str("\nInter-event regularity (Figure 4):\n");
    out.push_str(&render_hasse(&regularity_lattice()));
    out.push_str("\nInter-interval structure (Figure 5, full node set):\n");
    out.push_str(&render_hasse(&interinterval_lattice()));
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use tempora_core::spec::bound::Bound;
    use tempora_core::spec::event::EventSpec;
    use tempora_core::Stamping;

    #[test]
    fn report_mentions_inheritance_and_strategy() {
        let schema = RelationSchema::builder("r", Stamping::Event)
            .event_spec(EventSpec::StronglyBounded {
                past: Bound::secs(60),
                future: Bound::secs(60),
            })
            .build()
            .unwrap();
        let report = schema_report(&schema);
        assert!(report.contains("strongly bounded"));
        assert!(report.contains("inherits"));
        assert!(report.contains("retroactively bounded"));
        assert!(report.contains("tt-proxy"));
        assert!(report.contains("static analysis: clean"));
    }

    #[test]
    fn report_includes_analyzer_findings() {
        let schema = RelationSchema::builder("r", Stamping::Event)
            .event_spec(EventSpec::DelayedRetroactive {
                delay: Bound::secs(30),
            })
            .event_spec(EventSpec::Retroactive)
            .build()
            .unwrap();
        let report = schema_report(&schema);
        assert!(report.contains("TS005"), "{report}");
    }

    #[test]
    fn degenerate_report_recommends_append_only() {
        let schema = RelationSchema::builder("r", Stamping::Event)
            .event_spec(EventSpec::Degenerate)
            .build()
            .unwrap();
        let report = schema_report(&schema);
        assert!(report.contains("append-only"));
        assert!(report.contains("binary search"));
    }

    #[test]
    fn overview_lists_all_kinds() {
        let overview = taxonomy_overview();
        for kind in EventSpecKind::ALL {
            assert!(overview.contains(kind.name()), "missing {kind}");
        }
    }

    #[test]
    fn full_taxonomy_covers_all_figures() {
        let all = full_taxonomy();
        for needle in [
            "degenerate",                      // Fig 2
            "globally sequential",             // Fig 3
            "strict temporal event regular",   // Fig 4
            "globally contiguous (st-meets)",  // Fig 5
            "sti-before",
        ] {
            assert!(all.contains(needle), "missing {needle}");
        }
    }
}
