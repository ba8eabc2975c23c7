//! Differential pin for the enumerator's candidate-space pre-check: on
//! every trace combo of the diy `c11` suite and of compiled, extracted
//! tests of the deep fuzz stream, the space counted from the chosen traces
//! equals the one read off the combo's built graph — the product of its
//! reads' rf candidates and of `m_l!` per location, 0 when some read has
//! no candidate writer. On the same tests, pins graph reuse: a combo that
//! re-values the previous combo's graph sees exactly what a fresh build of
//! the combo gives.

use telechat_compiler::{Compiler, CompilerId, OptLevel, Target};
use telechat_repro::common::Arch;
use telechat_repro::core::Telechat;
use telechat_repro::diy::Config;
use telechat_repro::exec::enumerate::{precheck_agreement, revalue_agreement};
use telechat_repro::exec::SimConfig;
use telechat_repro::fuzz::{FuzzConfig, FuzzSource, GenConfig, SampleConfig};
use telechat_repro::litmus::LitmusTest;

/// Checks every combo of `test`; returns (combos, combos of space 0,
/// combos of space above 1, combos that re-valued a graph).
fn agree(test: &LitmusTest, config: &SimConfig) -> (usize, usize, usize, usize) {
    let pairs = precheck_agreement(test, config).expect("interpretation");
    for (i, (counted, built)) in pairs.iter().enumerate() {
        assert_eq!(counted, built, "{} combo {i}: counted vs built space", test.name);
    }
    let empty = pairs.iter().filter(|&&(s, _)| s == 0).count();
    let wide = pairs.iter().filter(|&&(s, _)| s > 1).count();
    let revalued = revalue_agreement(test, config).expect("interpretation");
    for (i, (_, difference)) in revalued.iter().enumerate() {
        assert_eq!(*difference, None, "{} justified combo {i}: re-valued graph", test.name);
    }
    let reused = revalued.iter().filter(|&&(r, _)| r).count();
    (pairs.len(), empty, wide, reused)
}

#[test]
fn precheck_agrees_on_the_diy_c11_suite() {
    let config = SimConfig::fast();
    let (mut combos, mut empty, mut wide, mut reused) = (0, 0, 0, 0);
    for test in Config::c11().generate() {
        let (c, e, w, r) = agree(&test, &config);
        combos += c;
        empty += e;
        wide += w;
        reused += r;
    }
    // Unjustifiable combos, combos of several candidates and combos that
    // re-value a graph all occur, so the agreement is not vacuous.
    assert!(empty > 0 && wide > 0, "{empty} empty, {wide} wide of {combos}");
    assert!(reused > 0, "no combo of {combos} re-valued a graph");
}

#[test]
fn precheck_agrees_on_compiled_deep_fuzz_tests() {
    // The first 20 tests of the deep-sample stream (up to five threads),
    // compiled at -O2 by the two compilers and three targets of the
    // deep-fuzz campaign, then extracted back to litmus tests.
    let stream = FuzzSource::new(&FuzzConfig {
        exhaustive: GenConfig::corpus(1),
        sample: SampleConfig::default(),
        seed: 7,
        max_tests: 20,
    });
    let pipeline = Telechat::new("rc11").expect("rc11 stages");
    let config = SimConfig::fast();
    let compilers: Vec<Compiler> = [CompilerId::llvm(17), CompilerId::gcc(10)]
        .into_iter()
        .flat_map(|id| {
            [Arch::AArch64, Arch::Armv7, Arch::X86_64]
                .map(|arch| Compiler::new(id, OptLevel::O2, Target::new(arch)))
        })
        .collect();
    let (mut tests, mut combos, mut empty, mut wide, mut reused) = (0, 0, 0, 0, 0);
    for test in stream {
        for compiler in &compilers {
            // Tests the compiler rejects have nothing to simulate.
            let Ok((.., extracted)) = pipeline.extract(&test, compiler) else {
                continue;
            };
            let (c, e, w, r) = agree(&extracted, &config);
            tests += 1;
            combos += c;
            empty += e;
            wide += w;
            reused += r;
        }
    }
    assert!(tests > 100, "only {tests} compiled tests");
    assert!(empty > 0 && wide > 0, "{empty} empty, {wide} wide of {combos}");
    assert!(reused > 0, "no combo of {combos} re-valued a graph");
}
