//! The mini-Cat memory-model DSL and the bundled model library.
//!
//! Memory models are *data*, exactly as in the paper ("parameterised over
//! source and architecture memory models"): a model is a `.cat` program —
//! relation definitions plus `acyclic`/`irreflexive`/`empty` checks —
//! evaluated over each candidate execution the `telechat-exec` enumerator
//! produces.
//!
//! Bundled models: `rc11`, `rc11-lb`, `sc`, `aarch64`, `armv7`,
//! `armv7-buggy`, `x86tso`, `riscv`, `ppc`, `mips`, plus the `hw-inorder`
//! hardware strength profile.
//!
//! # The staged engine: monotone fragment + per-edge incremental checking
//!
//! Loading a model compiles it to a staged execution plan
//! ([`staged::StagedPlan`]) driven by a monotonicity analysis
//! ([`monotone`]): along a DFS branch of the enumeration engine the base
//! relations `rf`/`co`/`fr` only *grow*, so every expression is
//! classified as **constant** (independent of them — cached once per
//! trace combination, including hoisted constant subexpressions of
//! dynamic definitions), **monotone** (built from union, intersection,
//! composition, closures, inverse, `[S]`, `domain`/`range`, `cross`, and
//! difference with a constant subtrahend — these grow pointwise), or
//! **non-monotone** (difference with a growing subtrahend — left to leaf
//! evaluation, as are negated checks and all flags).
//!
//! Non-negated monotone checks become per-edge incremental constraints:
//! `acyclic` (after the rewrites `acyclic e+ ≡ irreflexive e+ ≡
//! acyclic e`, resolved through `let`-bound names) is backed by a
//! [`telechat_exec::IncrementalOrder`] fed with the constraint value's
//! edge delta per pushed rf/co edge; `irreflexive` tracks the value's
//! diagonal and `empty` its edge count. A violated constraint stays
//! violated in every completion, so combo sessions prune whole subtrees
//! mid-DFS — interpreted models prune exactly like the hand-written
//! built-ins, with zero full graph traversals per simulation and O(1)
//! leaf verdicts (see `staged` for the details and ROADMAP for measured
//! numbers).
//!
//! # Example
//!
//! ```
//! use telechat_cat::CatModel;
//! use telechat_exec::{simulate, SimConfig};
//! use telechat_litmus::parse_c11;
//!
//! let lb = parse_c11(r#"
//! C11 "LB"
//! { x = 0; y = 0; }
//! P0 (atomic_int* x, atomic_int* y) {
//!   int r0 = atomic_load_explicit(x, memory_order_relaxed);
//!   atomic_store_explicit(y, 1, memory_order_relaxed);
//! }
//! P1 (atomic_int* x, atomic_int* y) {
//!   int r0 = atomic_load_explicit(y, memory_order_relaxed);
//!   atomic_store_explicit(x, 1, memory_order_relaxed);
//! }
//! exists (P0:r0=1 /\ P1:r0=1)
//! "#)?;
//! let rc11 = CatModel::bundled("rc11")?;
//! let r = simulate(&lb, &rc11, &SimConfig::default())?;
//! assert!(!lb.condition.holds(&r.outcomes)); // RC11 forbids LB
//! # Ok::<(), telechat_common::Error>(())
//! ```

pub mod ast;
pub mod eval;
pub mod monotone;
pub mod parse;
pub mod registry;
mod sc_per_location;
pub mod staged;

pub use ast::{CatExpr, CatProgram, CatStmt, CheckKind};
pub use eval::{eval_expr, run_program, CatValue, Env};
pub use monotone::{expr_dep, Dep, DepMap};
pub use parse::parse_cat;
pub use registry::{
    bundled_fingerprint, model_names, CatModel, ModelIntersection, ModelRegistry, BUNDLED,
};
pub use staged::{StagedPlan, StagedState};

#[cfg(test)]
mod model_behaviour_tests {
    //! The semantic contract of the bundled models, exercised through the
    //! full parse→enumerate→evaluate pipeline on the classic litmus shapes.

    use crate::CatModel;
    use telechat_exec::{
        simulate, simulate_reference, ComboChecker, ConsistencyModel, Execution, PartialVerdict,
        SimConfig, SimResult, Verdict,
    };
    use telechat_litmus::{parse_c11, LitmusTest};

    fn run(src: &str, model: &str) -> (LitmusTest, SimResult) {
        let test = parse_c11(src).unwrap();
        let m = CatModel::bundled(model).unwrap();
        let r = simulate(&test, &m, &SimConfig::default()).unwrap();
        (test, r)
    }

    /// `exists` clause observable under the model?
    fn observable(src: &str, model: &str) -> bool {
        let (test, r) = run(src, model);
        test.condition.holds(&r.outcomes)
    }

    const LB_RLX: &str = r#"
C11 "LB"
{ x = 0; y = 0; }
P0 (atomic_int* x, atomic_int* y) {
  int r0 = atomic_load_explicit(x, memory_order_relaxed);
  atomic_store_explicit(y, 1, memory_order_relaxed);
}
P1 (atomic_int* x, atomic_int* y) {
  int r0 = atomic_load_explicit(y, memory_order_relaxed);
  atomic_store_explicit(x, 1, memory_order_relaxed);
}
exists (P0:r0=1 /\ P1:r0=1)
"#;

    #[test]
    fn rc11_forbids_lb_but_rc11lb_allows_it() {
        assert!(!observable(LB_RLX, "rc11"), "RC11 forbids load buffering");
        assert!(
            observable(LB_RLX, "rc11-lb"),
            "rc11+lb permits load buffering"
        );
        assert!(!observable(LB_RLX, "sc"));
    }

    const SB_RLX: &str = r#"
C11 "SB"
{ x = 0; y = 0; }
P0 (atomic_int* x, atomic_int* y) {
  atomic_store_explicit(x, 1, memory_order_relaxed);
  int r0 = atomic_load_explicit(y, memory_order_relaxed);
}
P1 (atomic_int* x, atomic_int* y) {
  atomic_store_explicit(y, 1, memory_order_relaxed);
  int r0 = atomic_load_explicit(x, memory_order_relaxed);
}
exists (P0:r0=0 /\ P1:r0=0)
"#;

    #[test]
    fn rc11_allows_relaxed_sb() {
        assert!(observable(SB_RLX, "rc11"));
        assert!(!observable(SB_RLX, "sc"));
    }

    const MP_REL_ACQ: &str = r#"
C11 "MP+rel+acq"
{ x = 0; y = 0; }
P0 (atomic_int* x, atomic_int* y) {
  atomic_store_explicit(x, 1, memory_order_relaxed);
  atomic_store_explicit(y, 1, memory_order_release);
}
P1 (atomic_int* x, atomic_int* y) {
  int r0 = atomic_load_explicit(y, memory_order_acquire);
  int r1 = atomic_load_explicit(x, memory_order_relaxed);
}
exists (P1:r0=1 /\ P1:r1=0)
"#;

    #[test]
    fn rc11_release_acquire_mp() {
        assert!(!observable(MP_REL_ACQ, "rc11"), "rel/acq forbids MP");
        // Drop the synchronisation: relaxed MP is observable.
        let weak = MP_REL_ACQ
            .replace("memory_order_release", "memory_order_relaxed")
            .replace("memory_order_acquire", "memory_order_relaxed");
        assert!(observable(&weak, "rc11"));
    }

    const MP_FENCES: &str = r#"
C11 "MP+fences"
{ x = 0; y = 0; }
P0 (atomic_int* x, atomic_int* y) {
  atomic_store_explicit(x, 1, memory_order_relaxed);
  atomic_thread_fence(memory_order_release);
  atomic_store_explicit(y, 1, memory_order_relaxed);
}
P1 (atomic_int* x, atomic_int* y) {
  int r0 = atomic_load_explicit(y, memory_order_relaxed);
  atomic_thread_fence(memory_order_acquire);
  int r1 = atomic_load_explicit(x, memory_order_relaxed);
}
exists (P1:r0=1 /\ P1:r1=0)
"#;

    #[test]
    fn rc11_fence_synchronisation() {
        assert!(!observable(MP_FENCES, "rc11"), "fence-based sw forbids MP");
    }

    const SB_SC: &str = r#"
C11 "SB+sc"
{ x = 0; y = 0; }
P0 (atomic_int* x, atomic_int* y) {
  atomic_store_explicit(x, 1, memory_order_seq_cst);
  int r0 = atomic_load_explicit(y, memory_order_seq_cst);
}
P1 (atomic_int* x, atomic_int* y) {
  atomic_store_explicit(y, 1, memory_order_seq_cst);
  int r0 = atomic_load_explicit(x, memory_order_seq_cst);
}
exists (P0:r0=0 /\ P1:r0=0)
"#;

    #[test]
    fn rc11_sc_accesses_forbid_sb() {
        assert!(!observable(SB_SC, "rc11"), "SC atomics forbid SB");
    }

    const SB_SC_FENCES: &str = r#"
C11 "SB+sc-fences"
{ x = 0; y = 0; }
P0 (atomic_int* x, atomic_int* y) {
  atomic_store_explicit(x, 1, memory_order_relaxed);
  atomic_thread_fence(memory_order_seq_cst);
  int r0 = atomic_load_explicit(y, memory_order_relaxed);
}
P1 (atomic_int* x, atomic_int* y) {
  atomic_store_explicit(y, 1, memory_order_relaxed);
  atomic_thread_fence(memory_order_seq_cst);
  int r0 = atomic_load_explicit(x, memory_order_relaxed);
}
exists (P0:r0=0 /\ P1:r0=0)
"#;

    #[test]
    fn rc11_sc_fences_forbid_sb() {
        assert!(!observable(SB_SC_FENCES, "rc11"), "SC fences forbid SB");
    }

    /// Three combos that differ only in the value P2 reads: one skeleton.
    const ONE_SKELETON: &str = r#"
C11 "ONE-SKELETON"
{ x = 0; }
P0 (atomic_int* x) {
  atomic_store_explicit(x, 1, memory_order_relaxed);
}
P1 (atomic_int* x) {
  atomic_store_explicit(x, 2, memory_order_relaxed);
}
P2 (atomic_int* x) {
  int r0 = atomic_load_explicit(x, memory_order_relaxed);
}
exists (P2:r0=2)
"#;

    /// Twelve combos over two skeletons, each one contiguous run of
    /// combos, the one without P2's store first; two combos are
    /// unjustifiable (the same test in `telechat_exec::enumerate`'s tests
    /// counts both from built graphs).
    const TWO_SKELETONS: &str = r#"
C11 "TWO-SKELETONS"
{ x = 0; y = 0; }
P0 (atomic_int* x, atomic_int* y) {
  atomic_store_explicit(x, 1, memory_order_relaxed);
  atomic_store_explicit(y, 1, memory_order_release);
}
P1 (atomic_int* x, atomic_int* y) {
  int r0 = atomic_load_explicit(y, memory_order_acquire);
  int r1 = atomic_load_explicit(x, memory_order_relaxed);
}
P2 (atomic_int* x, atomic_int* y) {
  int r0 = atomic_load_explicit(x, memory_order_relaxed);
  if (r0 == 1) {
    atomic_store_explicit(y, 2, memory_order_relaxed);
  }
}
exists (P1:r0=1 /\ P1:r1=0)
"#;

    /// Counts the sessions a simulation opens.
    struct CountSessions<'m> {
        inner: &'m CatModel,
        opened: std::sync::atomic::AtomicUsize,
    }

    impl ConsistencyModel for CountSessions<'_> {
        fn name(&self) -> &str {
            self.inner.model_name()
        }

        fn check(&self, execution: &Execution) -> Verdict {
            ConsistencyModel::check(self.inner, execution)
        }

        fn check_partial(&self, partial: &Execution) -> PartialVerdict {
            self.inner.check_partial(partial)
        }

        fn combo_checker<'a>(&'a self, skeleton: &Execution) -> Box<dyn ComboChecker + 'a> {
            self.opened.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.inner.combo_checker(skeleton)
        }
    }

    #[test]
    fn staged_sessions_are_reused_across_same_skeleton_combos() {
        // A staged session popped back to its baseline serves the next
        // combo of its skeleton: one session per skeleton, and results
        // equal to the reference engine.
        for model in ["aarch64", "rc11"] {
            let m = CatModel::bundled(model).unwrap();
            for (src, skeletons) in [(ONE_SKELETON, 1), (TWO_SKELETONS, 2)] {
                let test = parse_c11(src).unwrap();
                let cfg = SimConfig::default().keeping_executions();
                let counting = CountSessions {
                    inner: &m,
                    opened: Default::default(),
                };
                let base = simulate(&test, &counting, &cfg).unwrap();
                let tag = format!("{} under {model}", test.name);
                assert_eq!(counting.opened.into_inner(), skeletons, "{tag}: sessions");
                assert!(base.pushes > 0 && base.frontier_evals > 0, "{tag}");
                let old = simulate_reference(&test, &m, &cfg).unwrap();
                assert_eq!(base.outcomes, old.outcomes, "{tag}");
                assert_eq!(base.candidates, old.candidates, "{tag}");
                assert_eq!(base.allowed, old.allowed, "{tag}");
                assert_eq!(base.flags, old.flags, "{tag}");
                assert_eq!(base.crashed, old.crashed, "{tag}");
            }
        }
    }

    #[test]
    fn rc11_flags_races_on_plain_accesses() {
        let racy = r#"
C11 "race"
{ int x = 0; }
P0 (int* x) { *x = 1; }
P1 (int* x) { int r0 = *x; }
exists (P1:r0=1)
"#;
        let (_, r) = run(racy, "rc11");
        assert!(r.has_flag("race"), "unordered plain accesses race");

        let atomic = r#"
C11 "norace"
{ x = 0; }
P0 (atomic_int* x) { atomic_store_explicit(x, 1, memory_order_relaxed); }
P1 (atomic_int* x) { int r0 = atomic_load_explicit(x, memory_order_relaxed); }
exists (P1:r0=1)
"#;
        let (_, r) = run(atomic, "rc11");
        assert!(!r.has_flag("race"), "atomics never race");
    }
}
