//! Cycle-space fuzzing (paper §II-A, generalised): instead of nine
//! hand-written families over a fixed grid, generate litmus tests from
//! *arbitrary* cycles of candidate relaxations — exhaustively up to a
//! budget, randomly (seeded) beyond it — canonically deduplicated so the
//! campaign never simulates an isomorphic test twice, and shrink every
//! positive difference to a 1-minimal witness.
//!
//! The subsystem in one picture:
//!
//! ```text
//!  enumerate (budgeted, exhaustive) ─┐
//!                                    ├─ canonical dedup ── FuzzSource ──► campaign (TestSource)
//!  sample (seeded, deep shapes) ─────┘                          │
//!                                                 positive difference
//!                                                               ▼
//!                                                  minimize (1-minimal witness)
//! ```
//!
//! * [`ShapedCycle`] — the unit of generation: edges × event directions ×
//!   access kinds, with rotation-invariant validity rules (see
//!   `shape`'s module docs for the exact rules).
//! * [`enumerate_shapes`]/[`corpus`] — exhaustive enumeration under a
//!   communication-edge budget with canonical (rotation-class) dedup.
//! * [`Sampler`] — byte-deterministic seeded sampling of deeper shapes.
//! * [`FuzzSource`] — the two-phase stream, an `Iterator<Item =
//!   LitmusTest>` and therefore a `telechat::TestSource`.
//! * [`minimize()`] — delta debugging over the drop/weaken/merge lattice
//!   (documented in `minimize`'s module docs) until 1-minimal.
//!
//! The `telechat-fuzz` binary exposes `generate`, `campaign` and
//! `minimize` subcommands over the same machinery.

pub mod enumerate;
pub mod minimize;
pub mod sample;
pub mod shape;
pub mod source;

pub use enumerate::{corpus, enumerate_shapes, Alphabet, GenConfig};
pub use minimize::{
    minimize, minimize_cached, minimize_positive, minimize_positive_cached, minimize_worklist,
    reductions, MinimizeCache, Minimized,
};
pub use sample::{SampleConfig, Sampler};
pub use shape::{ShapedCycle, DEFAULT_KIND};
pub use source::{fnv1a64, FuzzConfig, FuzzSource};
