//! Per-test compile, extraction and comparison memo pins: running a
//! test's profiles through one shared [`TestScope`] gives, for every
//! profile, the report a fresh [`Telechat::run`] gives, also when
//! pipelines with different settings, or a cached and an uncached one,
//! share the scope; the scope compiles each distinct [`Codegen`], extracts
//! each distinct compiled `(object, reg_map)` and compares each distinct
//! (extraction, target model) exactly once, in a campaign at every thread
//! count too; and target-leg faults still see each item's own profile
//! name.
//!
//! Every test here takes [`SERIAL`]: one arms a process-global fault and
//! one opens the process-global metrics window.

use std::collections::HashSet;
use std::sync::Mutex;

use telechat_compiler::{Codegen, Compiler, CompilerId, OptLevel, Target};
use telechat_repro::common::Arch;
use telechat_repro::core::fault::{self, EngineFault, FaultAction, FaultLeg};
use telechat_repro::core::{
    prepare, run_campaign, CampaignSpec, PipelineConfig, SimCache, Telechat, TestReport, TestScope,
};
use telechat_repro::diy::Config;
use telechat_repro::litmus::LitmusTest;
use telechat_repro::objfile::ObjectFile;

static SERIAL: Mutex<()> = Mutex::new(());

struct Disarm;

impl Drop for Disarm {
    fn drop(&mut self) {
        fault::disarm_all();
    }
}

/// Four diy tests spread over the `c11` sweep.
fn tests() -> Vec<LitmusTest> {
    let all = Config::c11().generate();
    all.iter().step_by(all.len() / 4).take(4).cloned().collect()
}

/// The Table IV profiles.
fn profiles() -> Vec<Compiler> {
    CampaignSpec::table_iv("rc11").profiles()
}

/// The Table IV profiles, plus `-O1`/`-O2` on the LSE, RCpc, LSE2 and
/// non-PIC targets the campaign does not sweep, and with `o0` also `-O0`
/// on every target.
fn extended_profiles(o0: bool) -> Vec<Compiler> {
    let mut profiles = profiles();
    let targets: Vec<Target> = [
        Target::armv81_lse(),
        Target::armv83_rcpc(),
        Target::armv84_lse2(),
        Target::new(Arch::AArch64).without_pic(),
        Target::new(Arch::Armv7).without_pic(),
    ]
    .into_iter()
    .chain(Arch::TARGETS.iter().map(|&arch| Target::new(arch)))
    .collect();
    let mut opts = vec![OptLevel::O1, OptLevel::O2];
    if o0 {
        opts.push(OptLevel::O0);
    }
    for target in targets {
        for id in [CompilerId::llvm(11), CompilerId::gcc(10)] {
            for &opt in &opts {
                let compiler = Compiler::new(id, opt, target);
                if !profiles.contains(&compiler) {
                    profiles.push(compiler);
                }
            }
        }
    }
    profiles
}

/// The distinct `Codegen`s `test` compiles under across `profiles`.
fn distinct_codegens(test: &LitmusTest, profiles: &[Compiler]) -> usize {
    let prepared = prepare(test, PipelineConfig::default().augment);
    let codegens: HashSet<Codegen> = profiles
        .iter()
        .filter_map(|c| c.check(&prepared.test).ok())
        .collect();
    codegens.len()
}

/// The distinct `(object, reg_map)` pairs `test` compiles to across
/// `profiles`, and the distinct (pair, target model) triples, counted
/// without the pipeline.
fn distinct_pairs(test: &LitmusTest, profiles: &[Compiler]) -> (usize, usize) {
    let prepared = prepare(test, PipelineConfig::default().augment);
    let mut pairs: Vec<(ObjectFile, Vec<_>)> = Vec::new();
    let mut compared: Vec<(usize, &str)> = Vec::new();
    for compiler in profiles {
        if let Ok(out) = compiler.compile(&prepared.test) {
            let key = (out.object, out.reg_map);
            let pair = pairs.iter().position(|p| *p == key).unwrap_or_else(|| {
                pairs.push(key);
                pairs.len() - 1
            });
            let triple = (pair, compiler.target.arch.default_model());
            if !compared.contains(&triple) {
                compared.push(triple);
            }
        }
    }
    (pairs.len(), compared.len())
}

/// Two profiles that compile `test` to the same object and register map,
/// so that the second one is a memo hit.
fn sharing_profiles(test: &LitmusTest, profiles: &[Compiler]) -> (usize, usize) {
    let prepared = prepare(test, PipelineConfig::default().augment);
    let compiled: Vec<_> = profiles
        .iter()
        .map(|c| c.compile(&prepared.test).ok())
        .collect();
    (0..profiles.len())
        .flat_map(|i| (i + 1..profiles.len()).map(move |j| (i, j)))
        .find(|&(i, j)| match (&compiled[i], &compiled[j]) {
            (Some(a), Some(b)) => a.object == b.object && a.reg_map == b.reg_map,
            _ => false,
        })
        .expect("some profiles share compiled code")
}

/// Every field of a report but the two wall-clock times.
fn assert_same_report(memo: &TestReport, fresh: &TestReport) {
    assert_eq!(memo.test_name, fresh.test_name);
    assert_eq!(memo.profile, fresh.profile);
    assert_eq!(memo.verdict, fresh.verdict, "{}", memo.profile);
    assert_eq!(memo.source_outcomes, fresh.source_outcomes);
    assert_eq!(
        memo.target_outcomes, fresh.target_outcomes,
        "{}",
        memo.profile
    );
    assert_eq!(memo.positive, fresh.positive);
    assert_eq!(memo.negative, fresh.negative);
    assert_eq!(memo.asm_test, fresh.asm_test, "{}", memo.profile);
}

#[test]
fn memoised_reports_equal_fresh_runs_field_for_field() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let fresh_tool = Telechat::new("rc11").unwrap();
    let tests = tests();
    // -O0 spills every value to a stack slot, which makes its target legs
    // up to a hundred times heavier; one test with small ones covers it.
    let o0_test = "R+fen[REL]+RLX";
    assert!(tests.iter().any(|t| t.name == o0_test));
    for test in tests {
        let profiles = extended_profiles(test.name == o0_test);
        // One scope for all profiles, with and without the cache.
        for cached in [false, true] {
            let mut tool = Telechat::new("rc11").unwrap();
            if cached {
                tool = tool.with_cache(SimCache::shared());
            }
            let scope = TestScope::new(test.clone());
            for compiler in &profiles {
                let memo = tool.run_in(&scope, compiler);
                let fresh = fresh_tool.run(&test, compiler);
                match (memo, fresh) {
                    (Ok(memo), Ok(fresh)) => {
                        assert_eq!(
                            memo.asm_test.name,
                            format!("{}.{}", compiler.profile_name(), test.name),
                            "a memo hit carries its own profile's name"
                        );
                        assert_same_report(&memo, &fresh);
                    }
                    (Err(memo), Err(fresh)) => assert_eq!(memo, fresh),
                    (memo, fresh) => panic!(
                        "{} {}: memoised {memo:?} vs fresh {fresh:?}",
                        test.name,
                        compiler.profile_name()
                    ),
                }
            }
        }
    }
}

#[test]
fn scope_shared_across_pipeline_settings_gives_fresh_reports() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let profiles = profiles();
    for test in tests() {
        let scope = TestScope::new(test.clone());
        for (augment, optimise) in [(true, true), (true, false), (false, true)] {
            let config = PipelineConfig {
                augment,
                optimise,
                ..PipelineConfig::default()
            };
            let tool = Telechat::with_config("rc11", config).unwrap();
            let fresh_tool = tool.clone().with_cache(SimCache::shared());
            for compiler in &profiles {
                let memo = tool.run_in(&scope, compiler);
                let fresh = fresh_tool.run(&test, compiler);
                match (memo, fresh) {
                    (Ok(memo), Ok(fresh)) => assert_same_report(&memo, &fresh),
                    (Err(memo), Err(fresh)) => assert_eq!(memo, fresh),
                    (memo, fresh) => panic!(
                        "{} {} augment={augment} optimise={optimise}: \
                         shared scope {memo:?} vs fresh {fresh:?}",
                        test.name,
                        compiler.profile_name()
                    ),
                }
            }
        }
    }
}

#[test]
fn each_distinct_compiled_pair_is_extracted_once() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let tool = Telechat::new("rc11").unwrap();
    let profiles = profiles();
    let tests = tests();
    let (mut expected, mut expected_compiles, mut expected_compares) = (0u64, 0u64, 0u64);
    for test in &tests {
        let scope = TestScope::new(test.clone());
        for compiler in &profiles {
            let _ = tool.run_in(&scope, compiler);
        }
        let codegens = distinct_codegens(test, &profiles);
        assert_eq!(scope.compiles(), codegens, "{}", test.name);
        expected_compiles += codegens as u64;
        let (distinct, compared) = distinct_pairs(test, &profiles);
        assert_eq!(scope.extractions(), distinct, "{}", test.name);
        assert_eq!(scope.comparisons(), compared, "{}", test.name);
        expected_compares += compared as u64;
        assert!(
            distinct < profiles.len(),
            "{}: profiles share compiled code, so the memo saves work",
            test.name
        );
        expected += distinct as u64;
    }

    // A campaign shares one scope between a test's items: the counters are
    // the same sums at every worker count, with the cache on or off.
    for (threads, cache) in [1, 2, 4].into_iter().flat_map(|t| [(t, true), (t, false)]) {
        let spec = CampaignSpec {
            threads,
            cache,
            metrics: true,
            ..CampaignSpec::table_iv("rc11")
        };
        let result = run_campaign(&tests, &spec, &PipelineConfig::default()).unwrap();
        let report = result.obs.as_ref().unwrap();
        assert_eq!(
            report.counter("compiler.compiles"),
            Some(expected_compiles),
            "threads={threads} cache={cache}"
        );
        assert_eq!(
            report.counter("s2l.extractions"),
            Some(expected),
            "threads={threads} cache={cache}"
        );
        assert_eq!(
            report.counter("mcompare.compares"),
            Some(expected_compares),
            "threads={threads} cache={cache}"
        );
    }
}

#[test]
fn target_faults_fire_with_the_items_own_profile_name() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let _disarm = Disarm;
    let profiles = profiles();
    let test = tests().remove(0);
    let (first, second) = sharing_profiles(&test, &profiles);
    let derived = format!("{}.{}", profiles[second].profile_name(), test.name);

    // Uncached, and with a cache that has not simulated the target yet:
    // both compute the second profile's target leg.
    for cached in [false, true] {
        let scope = TestScope::new(test.clone());
        let lead = Telechat::new("rc11").unwrap();
        lead.run_in(&scope, &profiles[first]).unwrap();
        let mut tool = Telechat::new("rc11").unwrap();
        if cached {
            tool = tool.with_cache(SimCache::shared());
        }
        fault::arm(EngineFault {
            leg: FaultLeg::Target,
            test_contains: derived.clone(),
            action: FaultAction::Panic,
            fires: 1,
        });
        let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
            tool.run_in(&scope, &profiles[second])
        }))
        .expect_err("the fault fires on the memo hit");
        let message = panic.downcast_ref::<String>().cloned().unwrap_or_default();
        assert!(message.contains(&derived), "cached={cached}: {message}");
        assert_eq!(scope.extractions(), 1, "the second profile hit the memo");
        fault::disarm_all();
    }
}

#[test]
fn cached_and_uncached_pipelines_share_a_scope_without_crosstalk() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    let _disarm = Disarm;
    let profiles = profiles();
    let fresh_tool = Telechat::new("rc11").unwrap();
    for test in tests().into_iter().take(2) {
        let (_, second) = sharing_profiles(&test, &profiles);
        let derived = format!("{}.{}", profiles[second].profile_name(), test.name);
        let cache = SimCache::shared();
        let cached = Telechat::new("rc11").unwrap().with_cache(cache.clone());
        let uncached = Telechat::new("rc11").unwrap();
        let scope = TestScope::new(test.clone());
        for (i, compiler) in profiles.iter().enumerate() {
            let fresh = fresh_tool.run(&test, compiler);
            // Alternate which pipeline meets the profile first.
            let order = if i % 2 == 0 {
                [&cached, &uncached]
            } else {
                [&uncached, &cached]
            };
            for tool in order {
                if i == second && tool.cache().is_none() {
                    // The uncached pipeline compared this extraction at an
                    // earlier profile: the fault fires on its memo hit.
                    fault::arm(EngineFault {
                        leg: FaultLeg::Target,
                        test_contains: derived.clone(),
                        action: FaultAction::Panic,
                        fires: 1,
                    });
                    let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        tool.run_in(&scope, compiler)
                    }))
                    .expect_err("the fault fires on the uncached memo hit");
                    let message = panic.downcast_ref::<String>().cloned().unwrap_or_default();
                    assert!(message.contains(&derived), "{message}");
                    fault::disarm_all();
                }
                match (tool.run_in(&scope, compiler), &fresh) {
                    (Ok(memo), Ok(fresh)) => assert_same_report(&memo, fresh),
                    (Err(memo), Err(fresh)) => assert_eq!(&memo, fresh),
                    (memo, fresh) => panic!(
                        "{} {} cached={}: shared scope {memo:?} vs fresh {fresh:?}",
                        test.name,
                        compiler.profile_name(),
                        tool.cache().is_some()
                    ),
                }
            }
        }

        // The uncached pipeline's memo entries never stand in for the
        // cached pipeline's cache traffic.
        let alone = SimCache::shared();
        let alone_tool = Telechat::new("rc11").unwrap().with_cache(alone.clone());
        let alone_scope = TestScope::new(test.clone());
        for compiler in &profiles {
            let _ = alone_tool.run_in(&alone_scope, compiler);
        }
        assert_eq!(cache.stats(), alone.stats(), "{}", test.name);
    }
}
