//! The C4 baseline (Windsor et al. \[49\], \[76\], \[77\]): hardware-backed
//! metamorphic compiler testing.
//!
//! C4's test relation (paper §II-C):
//!
//! ```text
//! outcomes(litmus(comp(S), hardware)) ⊆ outcomes(herd(S, RC11))   (test_C4)
//! ```
//!
//! The crucial difference from Téléchat (paper Table II): the *compiled*
//! side runs on hardware, not under the architecture model. Hardware may
//! implement a restricted variant of the architecture and needs stress to
//! show weak outcomes — so C4 can miss behaviours Téléchat reports
//! deterministically (the Fig. 7/8 comparison).

use telechat::{PipelineConfig, Telechat};
use telechat_common::{OutcomeSet, Result};
use telechat_compiler::Compiler;
use telechat_hardware::{Chip, Histogram, LitmusRunner};
use telechat_litmus::LitmusTest;

/// C4 configuration: which silicon, how many runs, how much stress.
#[derive(Debug, Clone)]
pub struct C4Config {
    /// The chip the compiled tests run on.
    pub chip: Chip,
    /// Hardware runs per test (the paper: behaviours may need "thousands
    /// of runs").
    pub runs: u64,
    /// Stress level 0–100 (Windsor et al. "stress-test" the hardware).
    pub stress: u32,
    /// RNG seed (per-machine variation).
    pub seed: u64,
}

impl Default for C4Config {
    fn default() -> Self {
        C4Config {
            chip: telechat_hardware::RASPBERRY_PI_4,
            runs: 10_000,
            stress: 100,
            seed: 0xC4,
        }
    }
}

/// One C4 check result.
#[derive(Debug, Clone)]
pub struct C4Report {
    /// Source-model (RC11) outcomes.
    pub source_outcomes: OutcomeSet,
    /// Hardware-observed outcomes (renamed into source observables).
    pub observed_outcomes: OutcomeSet,
    /// Observed outcomes outside the source set: C4's bug signal.
    pub violations: OutcomeSet,
    /// The raw hardware histogram.
    pub histogram: Histogram,
    /// Architecture-model outcomes C4's hardware *never produced* —
    /// behaviours C4 cannot witness on this silicon (Téléchat's edge).
    pub unobserved_model_outcomes: OutcomeSet,
}

impl C4Report {
    /// Did C4 flag a bug?
    pub fn bug_found(&self) -> bool {
        !self.violations.is_empty()
    }
}

/// The C4 tool.
#[derive(Debug)]
pub struct C4 {
    tool: Telechat,
    config: C4Config,
}

impl C4 {
    /// A C4 instance over RC11 (its fixed source model, per the paper).
    ///
    /// # Errors
    ///
    /// Fails if the RC11 model cannot load.
    pub fn new(config: C4Config) -> Result<C4> {
        Ok(C4 {
            tool: Telechat::with_config("rc11", PipelineConfig::default())?,
            config,
        })
    }

    /// Runs `test_C4` for one test and compiler.
    ///
    /// # Errors
    ///
    /// Propagates compilation, extraction, simulation and hardware-run
    /// failures.
    pub fn check(&self, test: &LitmusTest, compiler: &Compiler) -> Result<C4Report> {
        // Shared front half with Téléchat: prepare, compile, extract.
        let (_prepared, _compiled, mapping, _asm, target_litmus) =
            self.tool.extract(test, compiler)?;

        // Source side: herd(S, RC11) — same as Téléchat.
        let source = self.tool.simulate_source(test)?;

        // Compiled side: hardware, not a model.
        let mut runner = LitmusRunner::new(self.config.chip, self.config.seed);
        let histogram = runner.run(&target_litmus, self.config.runs, self.config.stress)?;
        let observed = mapping.rename_target_outcomes(&histogram.observed());

        // What the architecture model would have shown (for the comparison
        // experiments; not part of C4 proper). The model comes from the
        // process-wide registry: parsed and staged once, shared with the
        // Téléchat pipelines.
        let arch_model = telechat_cat::ModelRegistry::global().for_arch(target_litmus.arch)?;
        let model_outcomes = telechat_exec::simulate(
            &target_litmus,
            &*arch_model,
            &telechat_exec::SimConfig::default(),
        )?;
        let model_renamed = mapping.rename_target_outcomes(&model_outcomes.outcomes);

        let cmp = telechat::mcompare(&source.outcomes, &observed, &mapping);
        let unobserved_model_outcomes = model_renamed.difference(&observed);
        Ok(C4Report {
            violations: cmp.positive.clone(),
            source_outcomes: (*cmp.source).clone(),
            observed_outcomes: observed,
            histogram,
            unobserved_model_outcomes,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use telechat::TestVerdict;
    use telechat_common::Arch;
    use telechat_compiler::{CompilerId, OptLevel, Target};
    use telechat_hardware::{APPLE_A9, RASPBERRY_PI_4};
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

    fn clang_o3() -> Compiler {
        Compiler::new(
            CompilerId::llvm(11),
            OptLevel::O3,
            Target::new(Arch::AArch64),
        )
    }

    #[test]
    fn c4_on_raspberry_pi_misses_what_telechat_finds() {
        // The paper's §IV-A comparison in one test.
        let test = parse_c11(LB_FENCES).unwrap();

        // C4 on the Pi: the LB outcome never shows on this silicon.
        let c4 = C4::new(C4Config {
            chip: RASPBERRY_PI_4,
            ..C4Config::default()
        })
        .unwrap();
        let report = c4.check(&test, &clang_o3()).unwrap();
        assert!(!report.bug_found(), "C4 misses LB on the Pi");
        assert!(
            !report.unobserved_model_outcomes.is_empty(),
            "the model allows outcomes the Pi never produced"
        );

        // Téléchat on the same inputs and models: found every time.
        let tool = Telechat::new("rc11").unwrap();
        let tv = tool.run(&test, &clang_o3()).unwrap();
        assert_eq!(tv.verdict, TestVerdict::PositiveDifference);
    }

    #[test]
    fn c4_on_a9_can_find_the_same_bug() {
        let test = parse_c11(LB_FENCES).unwrap();
        let c4 = C4::new(C4Config {
            chip: APPLE_A9,
            runs: 20_000,
            stress: 100,
            seed: 0xC4,
        })
        .unwrap();
        let report = c4.check(&test, &clang_o3()).unwrap();
        assert!(
            report.bug_found(),
            "stressed A9 exhibits LB: {:?}",
            report.observed_outcomes
        );
    }

    #[test]
    fn c4_is_nondeterministic_across_machines_telechat_is_not() {
        let test = parse_c11(LB_FENCES).unwrap();
        let run = |chip| {
            C4::new(C4Config {
                chip,
                runs: 10_000,
                stress: 100,
                seed: 7,
            })
            .unwrap()
            .check(&test, &clang_o3())
            .unwrap()
            .bug_found()
        };
        // Same tool, same test — different verdicts on different machines.
        assert_ne!(run(RASPBERRY_PI_4), run(APPLE_A9));

        // Téléchat: identical verdict on repeated runs (determinism row of
        // Table II).
        let tool = Telechat::new("rc11").unwrap();
        let a = tool.run(&test, &clang_o3()).unwrap().verdict;
        let b = tool.run(&test, &clang_o3()).unwrap().verdict;
        assert_eq!(a, b);
    }
}
