//! A herd-style axiomatic simulator for litmus tests.
//!
//! Given a [`telechat_litmus::LitmusTest`] and a [`ConsistencyModel`], the
//! [`simulate`] function enumerates every candidate execution — per-thread
//! traces × reads-from assignments × coherence orders — filters them through
//! the model and collects the outcomes of the allowed executions (paper
//! §II-A, Def. II.1/II.2).
//!
//! # Engine architecture
//!
//! [`simulate`] runs the **incremental enumeration engine** (module
//! [`enumerate`]): per trace combination it builds the event graph and
//! dependency relations once, then walks reads-from assignments and
//! lazily-generated coherence orders as a staged DFS, consulting the
//! model's [`ConsistencyModel::check_partial`] fast-reject hook to prune
//! entire subtrees before they are materialised. Trace combinations run
//! one after another on the calling thread. The naive generate-then-filter
//! enumerator is retained in [`reference`](mod@reference) as the differential-testing
//! oracle ([`simulate_reference`]).
//!
//! # Example
//!
//! ```
//! use telechat_exec::{simulate, SeqCstRef, SimConfig};
//! use telechat_litmus::parse_c11;
//!
//! let test = parse_c11(r#"
//! C11 "SB"
//! { x = 0; y = 0; }
//! P0 (atomic_int* x, atomic_int* y) {
//!   atomic_store_explicit(x, 1, memory_order_relaxed);
//!   int r0 = atomic_load_explicit(y, memory_order_relaxed);
//! }
//! P1 (atomic_int* x, atomic_int* y) {
//!   atomic_store_explicit(y, 1, memory_order_relaxed);
//!   int r0 = atomic_load_explicit(x, memory_order_relaxed);
//! }
//! exists (P0:r0=0 /\ P1:r0=0)
//! "#)?;
//! let result = simulate(&test, &SeqCstRef, &SimConfig::default())?;
//! assert!(!test.condition.holds(&result.outcomes)); // SC forbids SB
//! # Ok::<(), telechat_common::Error>(())
//! ```

/// Revision counter of the simulation engine's *observable semantics*.
///
/// The persistent campaign store (`telechat::persist`) stamps this into
/// every log file it writes: a store recorded under a different revision is
/// discarded wholesale on open, so an engine change can never replay stale
/// simulation results as fresh ones. Bump it whenever a change could alter
/// any simulation outcome, accounting field or error — candidate counting,
/// outcome collection, model evaluation order — and leave it alone for
/// pure-performance work that is pinned byte-identical.
pub const ENGINE_REVISION: u64 = 5;

pub mod config;
pub mod enumerate;
pub mod event;
pub mod incr;
pub mod kernels;
pub mod model;
pub mod reference;
pub mod rel;
pub mod trace;

pub use config::{PruneSites, SimConfig, SimResult};
pub use enumerate::simulate;
pub use event::{Event, EventKind, Execution, INIT_THREAD};
pub use incr::IncrementalOrder;
pub use model::{
    AllowAll, CoherenceOnly, ComboChecker, ConsistencyModel, PartialVerdict, SeqCstRef, Verdict,
};
pub use reference::simulate_reference;
pub use rel::{EventSet, Relation};
pub use trace::{interpret_thread, value_pools, InterpBudget, Trace, TraceEvent, ValuePools};
