//! Differential pin for the compile memo's key: any two compilers that
//! select the same [`Codegen`] compile every test to the same object and
//! register map, or fail with the same error. The sweep covers every
//! compiler release the bug table distinguishes, every optimisation level,
//! and the plain, LSE, RCpc, LSE2 and non-PIC targets, over the whole diy
//! `c11` suite as the pipeline prepares it.

use std::collections::HashMap;

use telechat_compiler::{Codegen, Compiler, CompilerId, OptLevel, Target};
use telechat_repro::common::{Arch, Reg, Result, ThreadId};
use telechat_repro::core::{prepare, PipelineConfig};
use telechat_repro::diy::Config;
use telechat_repro::litmus::LitmusTest;
use telechat_repro::objfile::ObjectFile;

fn compilers() -> Vec<Compiler> {
    let ids = (9..=17)
        .map(CompilerId::llvm)
        .chain((9..=13).map(CompilerId::gcc));
    let opts = [
        OptLevel::O0,
        OptLevel::O1,
        OptLevel::O2,
        OptLevel::O3,
        OptLevel::Ofast,
        OptLevel::Og,
    ];
    let targets: Vec<Target> = Arch::TARGETS
        .iter()
        .map(|&arch| Target::new(arch))
        .chain([
            Target::armv81_lse(),
            Target::armv83_rcpc(),
            Target::armv84_lse2(),
        ])
        .flat_map(|t| [t, t.without_pic()])
        .collect();
    let mut compilers = Vec::new();
    for id in ids {
        for opt in opts {
            for &target in &targets {
                compilers.push(Compiler::new(id, opt, target));
            }
        }
    }
    compilers
}

type Output = Result<(ObjectFile, Vec<(ThreadId, Reg, Reg)>)>;

/// Checks one test against every compiler; returns how many compilers
/// shared an earlier compiler's codegen, and how many codegens there were.
fn check_test(test: &LitmusTest, compilers: &[Compiler]) -> (usize, usize) {
    let prepared = prepare(test, PipelineConfig::default().augment);
    let mut first: HashMap<Codegen, (String, Output)> = HashMap::new();
    let mut shared = 0;
    for compiler in compilers {
        // clang -Og is rejected by name, before code generation.
        let Ok(codegen) = compiler.check(&prepared.test) else {
            continue;
        };
        let out = compiler
            .compile(&prepared.test)
            .map(|out| (out.object, out.reg_map));
        match first.get(&codegen) {
            Some((profile, expected)) => {
                assert_eq!(
                    &out,
                    expected,
                    "{}: {} and {profile} share {codegen:?}",
                    test.name,
                    compiler.profile_name()
                );
                shared += 1;
            }
            None => {
                first.insert(codegen, (compiler.profile_name(), out));
            }
        }
    }
    (shared, first.len())
}

#[test]
fn compilers_sharing_a_codegen_compile_identically() {
    let compilers = compilers();
    let tests = Config::c11().generate();
    // About 450k compiles: split the suite over the available cores.
    let workers = std::thread::available_parallelism().map_or(2, |n| n.get().min(4));
    let (shared, keys) = std::thread::scope(|s| {
        let handles: Vec<_> = tests
            .chunks(tests.len().div_ceil(workers))
            .map(|chunk| {
                let compilers = &compilers;
                s.spawn(move || {
                    chunk
                        .iter()
                        .map(|test| check_test(test, compilers))
                        .fold((0, 0), |(a, b), (c, d)| (a + c, b + d))
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().unwrap())
            .fold((0, 0), |(a, b), (c, d)| (a + c, b + d))
    });
    assert!(
        shared > keys,
        "most compilers share a codegen: {shared} vs {keys}"
    );
}
