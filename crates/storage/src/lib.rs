//! # tempora-storage — the bitemporal storage substrate
//!
//! §2 of the paper models a temporal relation as "a sequence of historical
//! states indexed by transaction time", and §2's closing paragraph lists
//! several physical representations the conceptual model admits. This crate
//! implements that substrate:
//!
//! * [`TupleStore`] — tuple time-stamping with an interval transaction
//!   stamp per element (the \[Sno87\]-style representation): a current
//!   store plus history, with logical deletion. Its ordered mode is the
//!   append-only representation that §3.1/§3.2 promise for *degenerate*
//!   and *sequential* relations ("relations are append-only and elements
//!   are entered in time-stamp order"): arrival order is also valid-time
//!   order, so valid-time reads are binary searches;
//! * [`Backlog`] — "a backlog relation of insertion, modification, and
//!   deletion operations (tuples) with single transaction time-stamps"
//!   (\[JMRS90\]); any historical state can be replayed from it;
//! * [`StateCache`] — differential state materialization over the backlog
//!   (\[JMRS90\]'s caching technique);
//! * [`AttributeStore`] — attribute-value time-stamping over finite unions
//!   of intervals, §2's last listed representation (\[Gad88\]'s temporal
//!   elements), with the homogeneity invariant;
//! * [`TemporalRelation`] — the façade that couples a schema, the
//!   constraint engine, a transaction clock, and the store in the mode the
//!   schema selects: insert / logical delete / modify (= delete + insert,
//!   §2), rollback and valid-timeslice reads, and specialization-aware
//!   vacuuming;
//! * [`ingest`] — batched, sharded ingest: update batches are partitioned
//!   by object surrogate and constraint-checked in parallel when the
//!   declared specializations are partition-local (§3.2's per-surrogate
//!   basis), via [`TemporalRelation::apply_batch`];
//! * [`chunks`] — the chunked write-once element storage the store sits
//!   on, each sealed chunk with the key runs built when it sealed (object,
//!   and the valid-time run the schema's index choice asks for, plus a
//!   Fenwick span of valid-time runs over the chunks before it): because
//!   transaction time is append-only, a reader pinned at tick `t` sees an
//!   immutable prefix, and [`TemporalRelation::snapshot_elements`] hands
//!   that prefix out as an [`ElementChunks`] view — one pointer plus a
//!   length — that never blocks (or is blocked by) writers.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod attribute_store;
mod backlog;
mod cache;
pub mod chunks;
pub mod ingest;
mod metrics;
mod relation;
mod tuple_store;
pub mod vacuum;

pub use attribute_store::{AttributeHistory, AttributeStore};
pub use backlog::{Backlog, BacklogKind, BacklogOp};
pub use cache::StateCache;
pub use chunks::{ChunkedElements, ElementChunks, CHUNK_CAP};
pub use ingest::{BatchRecord, BatchReport};
pub use relation::{Enforcement, RelationStats, TemporalRelation};
pub use tuple_store::TupleStore;
