//! # tempora-index — the index substrate
//!
//! §1 of the paper motivates capturing specialization semantics so a DBMS
//! can select "appropriate storage structures, indexing techniques, and
//! query processing strategies". This crate supplies the indexing
//! techniques:
//!
//! * [`ChunkRuns`] — the per-chunk key runs storage keeps next to its
//!   elements: an object run for every relation, and unless the append
//!   order already serves valid time, a sorted point run (event
//!   relations) or a begin-sorted interval run with the chunk's longest
//!   length (interval relations). Runs are built once when a chunk seals
//!   and never touched by a delete, so one index serves every pinned read;
//! * [`ValidRun`] spans — sealed chunk `i` (1-based) of an event relation
//!   also keeps a point run merged over chunks `(i − lowbit(i), i]`, at
//!   most [`MAX_SPAN_CHUNKS`] wide, a Fenwick layout, so
//!   a point probe over `k` sealed chunks searches `popcount(k)` runs
//!   below 128 chunks and one more per further 64, not one per chunk.
//!   Interval runs keep no span, so one long interval widens the search
//!   of its own chunk only;
//! * [`tt_proxy`] — *the specialization payoff*: when a relation's declared
//!   offset band bounds `vt − tt`, a valid-time predicate converts into a
//!   transaction-time range on the (always-ordered) `tt` dimension, so a
//!   probe visits only the chunks of that window and asks the valid-time
//!   runs over them for its rows;
//! * [`IndexChoice`]/[`select_index`] — the selector that picks a strategy
//!   from a schema's declared specializations.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod runs;
mod selector;
pub mod tt_proxy;

pub use runs::{ChunkRuns, RunProbe, ValidRun, MAX_SPAN_CHUNKS};
pub use selector::{select_index, IndexChoice};
