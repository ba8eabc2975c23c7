//! # Téléchat — compiler testing with relaxed memory models
//!
//! A from-scratch Rust reproduction of the CGO 2024 paper's primary
//! contribution: an automatic compiler-testing technique for concurrent
//! C/C++ that compares the outcomes of a compiled litmus test under its
//! *architecture* memory model against the outcomes of the source test
//! under its *source* model:
//!
//! ```text
//! outcomes(herd(comp(S), M_C)) ⊆ outcomes(herd(S, M_S))      (test_tv)
//! ```
//!
//! The pipeline (paper Figs. 5/6):
//!
//! 1. generate a C11 litmus test (`telechat-diy`),
//! 2. [`l2c`] — prepare for compilation (+ local-variable augmentation),
//! 3. `c2s` — compile with a simulated LLVM/GCC (`telechat-compiler`) and
//!    link into a mini object file (`telechat-objfile`),
//! 4. [`s2l`] — symbolise the disassembly and apply the litmus
//!    optimisation,
//! 5. simulate both sides (`telechat-exec` + `telechat-cat`) and
//!    [`mcompare()`] the outcome sets modulo the state [`mapping`].
//!
//! The [`Telechat`] type packages the whole thing; [`campaign`] scales it
//! to Table IV-style sweeps.
//!
//! # Example
//!
//! ```
//! use telechat::{Telechat, TestVerdict};
//! use telechat_compiler::{Compiler, CompilerId, OptLevel, Target};
//! use telechat_litmus::parse_c11;
//!
//! // The Fig. 7 load-buffering test: forbidden by RC11, allowed by Armv8.
//! let test = parse_c11(r#"
//! C11 "LB+fences"
//! { x = 0; y = 0; }
//! P0 (atomic_int* x, atomic_int* y) {
//!   int r0 = atomic_load_explicit(x, memory_order_relaxed);
//!   atomic_thread_fence(memory_order_relaxed);
//!   atomic_store_explicit(y, 1, memory_order_relaxed);
//! }
//! P1 (atomic_int* x, atomic_int* y) {
//!   int r0 = atomic_load_explicit(y, memory_order_relaxed);
//!   atomic_thread_fence(memory_order_relaxed);
//!   atomic_store_explicit(x, 1, memory_order_relaxed);
//! }
//! exists (P0:r0=1 /\ P1:r0=1)
//! "#)?;
//! let tool = Telechat::new("rc11")?;
//! let cc = Compiler::new(CompilerId::llvm(11), OptLevel::O3,
//!                        Target::new(telechat_common::Arch::AArch64));
//! let report = tool.run(&test, &cc)?;
//! assert_eq!(report.verdict, TestVerdict::PositiveDifference);
//! # Ok::<(), telechat_common::Error>(())
//! ```

pub mod cache;
pub mod campaign;
pub mod fault;
pub mod journal;
pub mod l2c;
pub mod mapping;
pub mod mcompare;
pub mod persist;
pub mod pipeline;
pub mod s2l;

pub use cache::{CacheStats, SimCache, SourceLeg};
pub use campaign::{
    run_campaign, run_campaign_source, CampaignCell, CampaignResult, CampaignSpec, TestSource,
};
pub use journal::{
    campaign_fingerprint, merge_journals, CampaignJournal, ItemKey, ItemOutcome, ItemRecord,
    JournalStats, ShardSpec,
};
pub use l2c::{prepare, PreparedSource};
pub use mapping::StateMapping;
pub use mcompare::{mcompare, mcompare_shared, Comparison, SourceObservables};
pub use persist::{PersistStore, StoreStats};
pub use pipeline::{NamedAsm, PipelineConfig, Telechat, TestReport, TestScope, TestVerdict};
pub use s2l::{object_to_asm_test, object_to_litmus, S2lOptions};
pub use telechat_obs as obs;

/// One-stop imports for examples and binaries.
pub mod prelude {
    pub use crate::{
        mcompare, prepare, run_campaign, run_campaign_source, CacheStats, CampaignJournal,
        CampaignResult, CampaignSpec, PersistStore, PipelineConfig, ShardSpec,
        SimCache, StateMapping, Telechat, TestReport, TestSource, TestVerdict,
    };
    pub use telechat_cat::CatModel;
    pub use telechat_compiler::{Compiler, CompilerFamily, CompilerId, OptLevel, Target};
    pub use telechat_exec::{simulate, SimConfig};
    pub use telechat_litmus::{parse_c11, LitmusTest, TestBuilder};
}

#[cfg(test)]
mod pipeline_tests {
    use crate::pipeline::{PipelineConfig, Telechat, TestVerdict};
    use telechat_common::Arch;
    use telechat_compiler::{Compiler, CompilerId, OptLevel, Target};
    use telechat_litmus::parse_c11;

    const LB_FENCES: &str = r#"
C11 "LB+fences"
{ x = 0; y = 0; }
P0 (atomic_int* x, atomic_int* y) {
  int r0 = atomic_load_explicit(x, memory_order_relaxed);
  atomic_thread_fence(memory_order_relaxed);
  atomic_store_explicit(y, 1, memory_order_relaxed);
}
P1 (atomic_int* x, atomic_int* y) {
  int r0 = atomic_load_explicit(y, memory_order_relaxed);
  atomic_thread_fence(memory_order_relaxed);
  atomic_store_explicit(x, 1, memory_order_relaxed);
}
exists (P0:r0=1 /\ P1:r0=1)
"#;

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

    fn clang(opt: OptLevel, arch: Arch) -> Compiler {
        Compiler::new(CompilerId::llvm(11), opt, Target::new(arch))
    }

    #[test]
    fn fig7_lb_is_a_positive_difference_on_aarch64() {
        let tool = Telechat::new("rc11").unwrap();
        let test = parse_c11(LB_FENCES).unwrap();
        let report = tool
            .run(&test, &clang(OptLevel::O3, Arch::AArch64))
            .unwrap();
        assert_eq!(
            report.verdict,
            TestVerdict::PositiveDifference,
            "src={} tgt={}",
            report.source_outcomes,
            report.target_outcomes
        );
        // The extra outcome is exactly the both-ones witness of Fig. 8.
        assert_eq!(report.positive.len(), 1, "{}", report.positive);
    }

    #[test]
    fn fig7_lb_disappears_under_rc11_lb() {
        // Paper claim 4: all positive differences vanish when load-to-store
        // reordering is permitted (rc11+lb model).
        let tool = Telechat::new("rc11-lb").unwrap();
        let test = parse_c11(LB_FENCES).unwrap();
        let report = tool
            .run(&test, &clang(OptLevel::O3, Arch::AArch64))
            .unwrap();
        assert_ne!(report.verdict, TestVerdict::PositiveDifference);
    }

    #[test]
    fn lb_not_observable_on_x86_or_mips() {
        let tool = Telechat::new("rc11").unwrap();
        let test = parse_c11(LB_FENCES).unwrap();
        for arch in [Arch::X86_64, Arch::Mips] {
            let report = tool.run(&test, &clang(OptLevel::O3, arch)).unwrap();
            assert_ne!(
                report.verdict,
                TestVerdict::PositiveDifference,
                "{arch} forbids LB architecturally"
            );
        }
    }

    #[test]
    fn lb_observable_on_the_weak_architectures() {
        let tool = Telechat::new("rc11").unwrap();
        let test = parse_c11(LB_FENCES).unwrap();
        for arch in [Arch::Armv7, Arch::RiscV, Arch::Ppc] {
            let report = tool.run(&test, &clang(OptLevel::O3, arch)).unwrap();
            assert_eq!(
                report.verdict,
                TestVerdict::PositiveDifference,
                "{arch}: src={} tgt={}",
                report.source_outcomes,
                report.target_outcomes
            );
        }
    }

    #[test]
    fn correct_compilation_of_mp_passes_everywhere() {
        let tool = Telechat::new("rc11").unwrap();
        let test = parse_c11(MP_REL_ACQ).unwrap();
        for arch in Arch::TARGETS {
            let cc = Compiler::new(CompilerId::llvm(17), OptLevel::O2, Target::new(arch));
            let report = tool.run(&test, &cc).unwrap();
            assert!(
                matches!(
                    report.verdict,
                    TestVerdict::Pass | TestVerdict::NegativeDifference
                ),
                "{arch}: {:?} +ve={}",
                report.verdict,
                report.positive
            );
        }
    }

    #[test]
    fn unaugmented_locals_lose_the_witness() {
        // Fig. 9: without augmentation, -O2 deletes the unused loads and
        // the weak outcome cannot be observed any more.
        let config = PipelineConfig {
            augment: false,
            ..PipelineConfig::default()
        };
        let tool = Telechat::with_config("rc11", config).unwrap();
        let test = parse_c11(LB_FENCES).unwrap();
        let report = tool
            .run(&test, &clang(OptLevel::O2, Arch::AArch64))
            .unwrap();
        assert_ne!(
            report.verdict,
            TestVerdict::PositiveDifference,
            "deleted locals mask the bug: tgt={}",
            report.target_outcomes
        );
        // With augmentation the same compilation shows the difference.
        let tool = Telechat::new("rc11").unwrap();
        let report = tool
            .run(&test, &clang(OptLevel::O2, Arch::AArch64))
            .unwrap();
        assert_eq!(report.verdict, TestVerdict::PositiveDifference);
    }
}
