//! Shared fixtures and helpers for the experiment regenerators.
//!
//! Each binary under `src/bin/` regenerates one table or figure of the
//! paper (see DESIGN.md §5 for the index); the Criterion benches under
//! `benches/` measure the timing claims. This library holds the litmus
//! sources the paper's figures use and small formatting utilities.

use telechat_common::Arch;
use telechat_compiler::{Compiler, CompilerId, OptLevel, Target};

/// Paper Fig. 1: message passing with a discarded atomic exchange — the
/// bug-\[38\] shape ("Atomic Exchange Allows Reordering past Acquire Fence").
pub const FIG1_MP_EXCHANGE: &str = r#"
C11 "MP+exchange"
{ x = 0; y = 0; }
P0 (atomic_int* y, atomic_int* x) {
  atomic_store_explicit(x, 1, memory_order_relaxed);
  atomic_thread_fence(memory_order_release);
  atomic_store_explicit(y, 1, memory_order_relaxed);
}
P1 (atomic_int* y, atomic_int* x) {
  atomic_exchange_explicit(y, 2, memory_order_release);
  atomic_thread_fence(memory_order_acquire);
  int r0 = atomic_load_explicit(x, memory_order_relaxed);
}
exists (P1:r0=0 /\ y=2)
"#;

/// Paper Fig. 7: load buffering with relaxed fences — forbidden by RC11,
/// allowed once compiled for Armv8/Armv7/POWER/RISC-V.
pub const FIG7_LB_FENCES: &str = r#"
C11 "LB+fences"
{ x = 0; y = 0; }
P0 (atomic_int* y, atomic_int* x) {
  int r0 = atomic_load_explicit(x, memory_order_relaxed);
  atomic_thread_fence(memory_order_relaxed);
  atomic_store_explicit(y, 1, memory_order_relaxed);
}
P1 (atomic_int* y, atomic_int* x) {
  int r0 = atomic_load_explicit(y, memory_order_relaxed);
  atomic_thread_fence(memory_order_relaxed);
  atomic_store_explicit(x, 1, memory_order_relaxed);
}
exists (P0:r0=1 /\ P1:r0=1)
"#;

/// Paper Fig. 9 (left): load buffering over plain accesses with unused
/// locals — the local-variable-problem demonstrator.
pub const FIG9_LB_PLAIN: &str = r#"
C11 "LB-plain"
{ int x = 0; int y = 0; }
P0 (int* y, int* x) {
  int r0 = *x;
  *y = 1;
}
P1 (int* y, int* x) {
  int r0 = *y;
  *x = 1;
}
exists (P0:r0=1 /\ P1:r0=1)
"#;

/// Paper Fig. 10: message passing through an atomic fetch-add whose result
/// is unused — the STADD / dead-register-definitions double bug.
pub const FIG10_MP_FETCH_ADD: &str = r#"
C11 "MP+fetch_add"
{ x = 0; y = 0; }
P0 (atomic_int* y, atomic_int* x) {
  atomic_store_explicit(x, 1, memory_order_relaxed);
  atomic_thread_fence(memory_order_release);
  atomic_store_explicit(y, 1, memory_order_relaxed);
}
P1 (atomic_int* y, atomic_int* x) {
  int r1 = atomic_fetch_add_explicit(y, 1, memory_order_relaxed);
  atomic_thread_fence(memory_order_acquire);
  int r0 = atomic_load_explicit(x, memory_order_relaxed);
}
exists (P1:r0=0 /\ y=2)
"#;

/// Paper Fig. 11: the three-thread load-buffering chain whose unoptimised
/// compiled form does not terminate under simulation.
pub const FIG11_LB3: &str = r#"
C11 "LB3"
{ x = 0; y = 0; z = 0; }
P0 (atomic_int* y, atomic_int* x) {
  int r0 = atomic_load_explicit(x, memory_order_relaxed);
  atomic_thread_fence(memory_order_relaxed);
  atomic_store_explicit(y, 1, memory_order_relaxed);
}
P1 (atomic_int* z, atomic_int* y) {
  int r0 = atomic_load_explicit(y, memory_order_relaxed);
  atomic_thread_fence(memory_order_relaxed);
  atomic_store_explicit(z, 1, memory_order_relaxed);
}
P2 (atomic_int* z, atomic_int* x) {
  int r0 = atomic_load_explicit(z, memory_order_relaxed);
  atomic_thread_fence(memory_order_relaxed);
  atomic_store_explicit(x, 1, memory_order_relaxed);
}
exists (P0:r0=1 /\ P1:r0=1 /\ P2:r0=1)
"#;

/// Store buffering with seq-cst fences (the Armv7 model-bug probe).
pub const SB_SC_FENCES: &str = r#"
C11 "SB+sc-fences"
{ x = 0; y = 0; }
P0 (atomic_int* y, atomic_int* x) {
  atomic_store_explicit(x, 1, memory_order_relaxed);
  atomic_thread_fence(memory_order_seq_cst);
  int r0 = atomic_load_explicit(y, memory_order_relaxed);
}
P1 (atomic_int* y, atomic_int* x) {
  atomic_store_explicit(y, 1, memory_order_relaxed);
  atomic_thread_fence(memory_order_seq_cst);
  int r0 = atomic_load_explicit(x, memory_order_relaxed);
}
exists (P0:r0=0 /\ P1:r0=0)
"#;

/// The artefact's headline profile: `clang-11 -O3` for AArch64.
pub fn llvm11_o3_aarch64() -> Compiler {
    Compiler::new(
        CompilerId::llvm(11),
        OptLevel::O3,
        Target::new(Arch::AArch64),
    )
}

/// Prints an experiment banner.
pub fn banner(id: &str, title: &str) {
    println!("================================================================");
    println!("{id} — {title}");
    println!("================================================================");
}

/// Prints a paper-vs-measured line.
pub fn expect(label: &str, paper: &str, measured: impl std::fmt::Display) {
    println!("  {label:<46} paper: {paper:<22} measured: {measured}");
}
