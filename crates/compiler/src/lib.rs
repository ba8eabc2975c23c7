//! A simulated C11 compiler family: LLVM- and GCC-flavoured code
//! generation for six architectures, with versioned bug knobs.
//!
//! The real Téléchat drives actual `clang`/`gcc` binaries; this crate is
//! the offline substitute (see DESIGN.md §2). It reproduces exactly what
//! the paper's experiments observe of a compiler — the assembly it emits
//! for concurrent C11 litmus tests — including the historical
//! miscompilations the paper reports:
//!
//! * Fig. 10 / [54]: `STADD` selection and dead-register zeroing of LSE
//!   atomics;
//! * Fig. 1 / [38]: `SWP`-destination zeroing (atomic exchange reordering
//!   past an acquire fence);
//! * [37]: 128-bit seq-cst `LDP` without barriers;
//! * [39]: wrong-endian 128-bit store pairs;
//! * [36]: `const` atomic loads implemented with store-back loops.
//!
//! # Example
//!
//! ```
//! use telechat_compiler::{Compiler, CompilerId, OptLevel, Target};
//! use telechat_litmus::parse_c11;
//!
//! let test = parse_c11(r#"
//! C11 "store"
//! { x = 0; }
//! P0 (atomic_int* x) { atomic_store_explicit(x, 1, memory_order_release); }
//! exists (x=1)
//! "#)?;
//! let cc = Compiler::new(CompilerId::llvm(17), OptLevel::O2, Target::armv81_lse());
//! let out = cc.compile(&test)?;
//! assert_eq!(out.object.functions.len(), 1);
//! # Ok::<(), telechat_common::Error>(())
//! ```

pub mod backend;
pub mod compile;
pub mod passes;
pub mod target;
pub mod version;

pub use compile::{Codegen, CompileOutput, Compiler};
pub use target::{ArchExt, Target};
pub use version::{BugId, BugSet, CompilerFamily, CompilerId, OptLevel};
