//! Property-based soundness tests: the engine-equivalence properties of
//! the incremental enumeration engine, and the paper's eq. 1 over
//! generated suites.
//!
//! The build environment vendors no registry crates, so instead of
//! `proptest` these properties run deterministically over fixed corpora —
//! every case is enumerated, so coverage is exact rather than sampled.
//!
//! # Engine equivalence
//!
//! The staged, pruned engine (`telechat_exec::simulate`) must be
//! observationally identical to the retained naive reference enumerator
//! (`telechat_exec::simulate_reference`): identical `outcomes`,
//! `candidates`, `allowed` and `flags` — byte-identical results.

use telechat_repro::diy::{AccessKind, Config, Edge, Family};
use telechat_repro::cat::ModelIntersection;
use telechat_repro::exec::{
    simulate, simulate_reference, AllowAll, CoherenceOnly, ConsistencyModel, SeqCstRef, SimConfig,
};
use telechat_repro::fuzz::{FuzzConfig, FuzzSource, GenConfig, SampleConfig};
use telechat_repro::litmus::LitmusTest;
use telechat_repro::prelude::*;

/// The classic litmus corpus the differential property runs over:
/// store buffering, message passing, load buffering, and independent
/// reads of independent writes.
const CORPUS: &[(&str, &str)] = &[
    (
        "SB",
        r#"
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
"#,
    ),
    (
        "MP",
        r#"
C11 "MP"
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
"#,
    ),
    (
        "LB",
        r#"
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
"#,
    ),
    (
        "IRIW",
        r#"
C11 "IRIW"
{ x = 0; y = 0; }
P0 (atomic_int* x) {
  atomic_store_explicit(x, 1, memory_order_relaxed);
}
P1 (atomic_int* y) {
  atomic_store_explicit(y, 1, memory_order_relaxed);
}
P2 (atomic_int* x, atomic_int* y) {
  int r0 = atomic_load_explicit(x, memory_order_relaxed);
  int r1 = atomic_load_explicit(y, memory_order_relaxed);
}
P3 (atomic_int* x, atomic_int* y) {
  int r0 = atomic_load_explicit(y, memory_order_relaxed);
  int r1 = atomic_load_explicit(x, memory_order_relaxed);
}
exists (P2:r0=1 /\ P2:r1=0 /\ P3:r0=1 /\ P3:r1=0)
"#,
    ),
];

/// Same-location shapes: each one puts a pair of accesses to one location
/// in program order, so SC per location (`acyclic po-loc | com`) rules
/// out coherence orders of its candidates. One shape per pattern —
/// write-write, read-write, write-read, read-read — and a two-location mix
/// whose RMWs make every access pattern meet at once.
const SC_PER_LOCATION_CORPUS: &[(&str, &str)] = &[
    (
        "CoWW",
        r#"
C11 "CoWW"
{ x = 0; }
P0 (atomic_int* x) {
  atomic_store_explicit(x, 1, memory_order_relaxed);
  atomic_store_explicit(x, 2, memory_order_relaxed);
}
P1 (atomic_int* x) {
  atomic_store_explicit(x, 3, memory_order_relaxed);
  atomic_store_explicit(x, 4, memory_order_relaxed);
}
exists ([x]=1)
"#,
    ),
    (
        "CoRW",
        r#"
C11 "CoRW"
{ x = 0; }
P0 (atomic_int* x) {
  int r0 = atomic_load_explicit(x, memory_order_relaxed);
  atomic_store_explicit(x, 1, memory_order_relaxed);
}
P1 (atomic_int* x) {
  atomic_store_explicit(x, 2, memory_order_relaxed);
  int r0 = atomic_load_explicit(x, memory_order_relaxed);
}
exists (P0:r0=2 /\ [x]=2)
"#,
    ),
    (
        "CoWR",
        r#"
C11 "CoWR"
{ x = 0; }
P0 (atomic_int* x) {
  atomic_store_explicit(x, 1, memory_order_relaxed);
  int r0 = atomic_load_explicit(x, memory_order_relaxed);
}
P1 (atomic_int* x) {
  atomic_store_explicit(x, 2, memory_order_relaxed);
  int r0 = atomic_load_explicit(x, memory_order_relaxed);
}
exists (P0:r0=2 /\ P1:r0=1)
"#,
    ),
    (
        "CoRR",
        r#"
C11 "CoRR"
{ x = 0; }
P0 (atomic_int* x) {
  atomic_store_explicit(x, 1, memory_order_relaxed);
}
P1 (atomic_int* x) {
  atomic_store_explicit(x, 2, memory_order_relaxed);
}
P2 (atomic_int* x) {
  int r0 = atomic_load_explicit(x, memory_order_relaxed);
  int r1 = atomic_load_explicit(x, memory_order_relaxed);
}
P3 (atomic_int* x) {
  int r0 = atomic_load_explicit(x, memory_order_relaxed);
  int r1 = atomic_load_explicit(x, memory_order_relaxed);
}
exists (P2:r0=1 /\ P2:r1=2 /\ P3:r0=2 /\ P3:r1=1)
"#,
    ),
    (
        "RMW+2loc",
        r#"
C11 "RMW+2loc"
{ x = 0; y = 0; }
P0 (atomic_int* x, atomic_int* y) {
  int r0 = atomic_fetch_add_explicit(x, 1, memory_order_relaxed);
  atomic_store_explicit(y, 1, memory_order_release);
  int r1 = atomic_load_explicit(x, memory_order_relaxed);
}
P1 (atomic_int* x, atomic_int* y) {
  int r0 = atomic_exchange_explicit(y, 2, memory_order_acq_rel);
  atomic_store_explicit(x, 3, memory_order_relaxed);
  int r1 = atomic_load_explicit(y, memory_order_relaxed);
}
P2 (atomic_int* x) {
  int r0 = atomic_fetch_add_explicit(x, 1, memory_order_relaxed);
}
exists (P0:r0=0 /\ P1:r0=1 /\ [x]=4)
"#,
    ),
];

/// Interpreted models of the differential matrix (SB/MP/LB/IRIW ×
/// {rc11, aarch64, x86tso, sc}).
const CORPUS_CAT_MODELS: &[&str] = &["rc11", "aarch64", "x86tso", "sc"];

fn corpus_models() -> Vec<Box<dyn ConsistencyModel>> {
    let mut models: Vec<Box<dyn ConsistencyModel>> =
        vec![Box::new(SeqCstRef), Box::new(CoherenceOnly)];
    for name in CORPUS_CAT_MODELS {
        // Staged (incremental per-edge) and leaf-only sessions must both
        // match the oracle — and therefore each other.
        models.push(Box::new(CatModel::bundled(name).unwrap()));
        models.push(Box::new(CatModel::bundled(name).unwrap().without_staging()));
    }
    models
}

/// The new engine is byte-identical to the naive reference enumerator: same outcome set, same candidate accounting
/// (pruned subtrees are counted, not skipped), same allowed count, same
/// flags, same crash bit.
#[test]
fn new_engine_matches_reference_single_threaded() {
    for (name, src) in CORPUS {
        let test = parse_c11(src).unwrap();
        for model in corpus_models() {
            let cfg = SimConfig::default();
            let new = simulate(&test, model.as_ref(), &cfg).unwrap();
            let old = simulate_reference(&test, model.as_ref(), &cfg).unwrap();
            assert_eq!(
                new.outcomes,
                old.outcomes,
                "{name} under {}: outcome sets diverge",
                model.name()
            );
            assert_eq!(new.candidates, old.candidates, "{name}/{}", model.name());
            assert_eq!(new.allowed, old.allowed, "{name}/{}", model.name());
            assert_eq!(new.flags, old.flags, "{name}/{}", model.name());
            assert_eq!(new.crashed, old.crashed, "{name}/{}", model.name());
        }
    }
}

/// Every model the same-location corpus runs under: the built-in models,
/// every bundled model staged and leaf-only, the `hw-inorder` strength
/// profile alone (which alone does not order same-location accesses) and
/// intersected with `aarch64` in both orders.
fn sc_per_location_models() -> Vec<Box<dyn ConsistencyModel>> {
    let mut models: Vec<Box<dyn ConsistencyModel>> =
        vec![Box::new(SeqCstRef), Box::new(CoherenceOnly), Box::new(AllowAll)];
    for name in telechat_repro::cat::model_names() {
        models.push(Box::new(CatModel::bundled(name).unwrap()));
        models.push(Box::new(CatModel::bundled(name).unwrap().without_staging()));
    }
    for parts in [["hw-inorder", "aarch64"], ["aarch64", "hw-inorder"]] {
        models.push(Box::new(ModelIntersection::new(
            parts.map(|p| CatModel::bundled(p).unwrap()).to_vec(),
        )));
    }
    models
}

/// Asserts that the engine and the reference enumerator give `test` the
/// same result under `model` and `cfg`: both run out of candidates, or
/// both finish with the same outcomes, candidate and allowed counts, flags
/// and crash bit. Returns whether they finished.
fn assert_engines_agree(test: &LitmusTest, model: &dyn ConsistencyModel, cfg: &SimConfig) -> bool {
    let what = format!("{} under {}", test.name, model.name());
    match (simulate(test, model, cfg), simulate_reference(test, model, cfg)) {
        (Ok(new), Ok(old)) => {
            assert_eq!(new.outcomes, old.outcomes, "{what}: outcome sets diverge");
            assert_eq!(new.candidates, old.candidates, "{what}: candidates");
            assert_eq!(new.allowed, old.allowed, "{what}: allowed");
            assert_eq!(new.flags, old.flags, "{what}: flags");
            assert_eq!(new.crashed, old.crashed, "{what}: crash bit");
            true
        }
        (Err(Error::Budget { .. }), Err(Error::Budget { .. })) => false,
        (new, old) => panic!(
            "{what}: engine {:?}, reference {:?}",
            new.map(|r| r.candidates),
            old.map(|r| r.candidates)
        ),
    }
}

/// Engine equivalence on shapes where SC per location rules out
/// coherence orders, under every model: the ones that forbid such
/// candidates (every bundled source and architecture model, `SeqCstRef`,
/// `CoherenceOnly`) and the ones that do not (`AllowAll`, `hw-inorder`).
#[test]
fn engine_matches_reference_on_same_location_shapes() {
    let cfg = SimConfig::default();
    for (_, src) in SC_PER_LOCATION_CORPUS {
        let test = parse_c11(src).unwrap();
        for model in sc_per_location_models() {
            assert!(assert_engines_agree(&test, model.as_ref(), &cfg));
        }
    }
}

/// Engine equivalence on compiled, extracted tests of the deep fuzz
/// stream (seed 7, as `fuzz_deep` runs it): the first 20 that compile,
/// each at -O2 for one of the campaign's three targets in turn and
/// simulated under that target's model. Compiled code puts many
/// same-location accesses in program order. The candidate cap keeps the
/// reference enumerator quick: all 20 finish under it (a test over it
/// would have to exhaust in both engines).
#[test]
fn engine_matches_reference_on_compiled_deep_fuzz_tests() {
    let stream = FuzzSource::new(&FuzzConfig {
        exhaustive: GenConfig::corpus(1),
        sample: SampleConfig::default(),
        seed: 7,
        max_tests: 100,
    });
    let pipeline = Telechat::new("rc11").unwrap();
    let targets = [Arch::AArch64, Arch::Armv7, Arch::X86_64];
    let cfg = SimConfig {
        max_candidates: 3_000,
        ..SimConfig::fast()
    };
    let (mut compiled, mut finished) = (0, 0);
    for (i, test) in stream.enumerate() {
        let arch = targets[i % targets.len()];
        let compiler = Compiler::new(CompilerId::llvm(17), OptLevel::O2, Target::new(arch));
        let Ok((.., extracted)) = pipeline.extract(&test, &compiler) else {
            continue;
        };
        let model = CatModel::for_arch(arch).unwrap();
        if assert_engines_agree(&extracted, &model, &cfg) {
            finished += 1;
        }
        compiled += 1;
        if compiled == 20 {
            break;
        }
    }
    assert_eq!(compiled, 20, "the stream has 20 compilable tests");
    assert_eq!(finished, 20, "every test finishes under the cap");
}

/// Engine equivalence over the *generated* C11 suite as well — wider
/// shapes (RMWs, fences, dependencies) than the classic corpus.
#[test]
fn new_engine_matches_reference_on_generated_suite() {
    let suite = Config::examples().generate();
    let rc11 = CatModel::bundled("rc11").unwrap();
    for test in &suite {
        let cfg = SimConfig::default();
        let new = simulate(test, &rc11, &cfg).unwrap();
        let old = simulate_reference(test, &rc11, &cfg).unwrap();
        assert_eq!(new.outcomes, old.outcomes, "{}", test.name);
        assert_eq!(new.candidates, old.candidates, "{}", test.name);
        assert_eq!(new.allowed, old.allowed, "{}", test.name);
    }
}

/// Exhaustion is decided alike: on every diy `c11` test and for budgets
/// around the suite's candidate counts, the engine (which counts each
/// combo's space before its DFS) runs out of candidates exactly when the
/// reference enumerator, which counts one candidate at a time, does.
#[test]
fn engine_and_reference_agree_on_budget_exhaustion() {
    let suite = Config::c11().generate();
    let (mut exhausted, mut finished) = (0, 0);
    for max_candidates in [8, 64, 512] {
        let cfg = SimConfig {
            max_candidates,
            ..SimConfig::default()
        };
        for test in &suite {
            let new = simulate(test, &SeqCstRef, &cfg).map(|r| r.candidates);
            let old = simulate_reference(test, &SeqCstRef, &cfg).map(|r| r.candidates);
            match (&new, &old) {
                (Err(Error::Budget { .. }), Err(Error::Budget { .. })) => exhausted += 1,
                (Ok(n), Ok(o)) if n == o => finished += 1,
                _ => panic!(
                    "{} at {max_candidates}: engine {new:?}, reference {old:?}",
                    test.name
                ),
            }
        }
    }
    // Both verdicts occur at these budgets.
    assert!(exhausted > 0 && finished > 0, "{exhausted} exhausted, {finished} finished");
}

/// eq. 1: fixed compilers never add behaviours (modulo racy sources,
/// which are undefined).
///
/// The source oracle is `rc11-lb`: ISO C/C++ permits load-to-store
/// reordering, so under plain RC11 even *correct* compilers show the
/// LB-family positives ("these positive differences are not bugs in
/// today's compilers", paper §IV-D). With LB admitted at the source,
/// any remaining positive difference is a genuine miscompilation.
#[test]
fn fixed_compilers_are_observationally_sound() {
    let suite = Config::c11().generate();
    let tool = Telechat::new("rc11-lb").unwrap();
    let opts = [OptLevel::O1, OptLevel::O2, OptLevel::O3];
    // Every (test stride, arch, opt) triple: exact coverage of the space
    // the proptest version sampled. Pipeline errors (register-pool
    // exhaustion on the wider generated tests, unsupported constructs)
    // are counted and tolerated, as the campaign driver counts them —
    // but they must stay the rare exception.
    let mut checked = 0usize;
    let mut skipped = 0usize;
    for (i, test) in suite.iter().enumerate() {
        let arch = Arch::TARGETS[i % Arch::TARGETS.len()];
        let opt = opts[i % opts.len()];
        let cc = Compiler::new(CompilerId::llvm(17), opt, Target::new(arch));
        match tool.run(test, &cc) {
            Ok(report) => {
                checked += 1;
                assert_ne!(
                    report.verdict,
                    TestVerdict::PositiveDifference,
                    "{} on {} at {}: +ve {}",
                    test.name,
                    arch,
                    opt,
                    report.positive
                );
            }
            Err(_) => skipped += 1,
        }
    }
    assert!(
        checked > 4 * skipped,
        "too many pipeline errors: {checked} checked vs {skipped} skipped"
    );
}

/// The s2l optimisation is outcome-preserving: optimised and unoptimised
/// extractions of the same object yield the same outcome sets (the
/// soundness argument of §IV-E).
#[test]
fn litmus_optimisation_preserves_outcomes() {
    use telechat_repro::core::PipelineConfig;
    let small = Config::examples().generate();
    // -O1 keeps code small enough for the unoptimised extraction to
    // finish; the optimisation must not change what is observable.
    let cc = Compiler::new(CompilerId::llvm(17), OptLevel::O1, Target::new(Arch::AArch64));
    for test in &small {
        let run = |optimise: bool| {
            let tool = Telechat::with_config(
                "rc11",
                PipelineConfig {
                    optimise,
                    sim: SimConfig::fast(),
                    ..PipelineConfig::default()
                },
            )
            .unwrap();
            tool.run(test, &cc).map(|r| r.target_outcomes)
        };
        let optimised = run(true).unwrap();
        if let Ok(unoptimised) = run(false) {
            assert_eq!(optimised, unoptimised, "{}", test.name);
        }
        // (state-explosion on the unoptimised side is acceptable — that is
        // the very phenomenon the optimisation exists for)
    }
}

/// The staged-engine pin (ISSUE 3): a *whole simulation* under the
/// bundled interpreted `aarch64` and `rc11` models performs **zero** full
/// Kahn/toposort traversals — every monotone constraint (including the
/// `irreflexive ob`-style closure axioms, rewritten to incremental
/// acyclicity) is answered from per-edge reachability state at DFS nodes
/// and leaves alike. Extends the PR 2 pin that covered only the built-in
/// models. (The traversal counter is thread-local and `SimConfig`
/// defaults to one worker, so all enumeration work stays on this thread.)
#[test]
fn interpreted_model_simulations_run_no_full_traversals() {
    for model_name in ["aarch64", "rc11"] {
        let model = CatModel::bundled(model_name).unwrap();
        for (name, src) in CORPUS {
            let test = parse_c11(src).unwrap();
            let before = telechat_repro::exec::rel::full_traversals();
            simulate(&test, &model, &SimConfig::default()).unwrap();
            assert_eq!(
                telechat_repro::exec::rel::full_traversals(),
                before,
                "full traversal during {model_name} enumeration of {name}"
            );
        }
    }
}

/// Property test over the randomized monotone fragment: programs built
/// from random monotone relation expressions (plus occasional residual
/// checks and flags) must behave byte-identically under the staged plan
/// and the naive reference enumerator — the engine's swap-DFS drives the
/// staged state through real push/undo schedules, so this pins the
/// incremental value maintenance (frontier re-evaluation + diff + LIFO
/// undo) against from-scratch re-evaluation.
#[test]
fn randomized_monotone_programs_match_reference() {
    use telechat_repro::cat::{CatExpr, CatProgram, CatStmt, CheckKind};
    use telechat_repro::common::XorShiftRng;

    const BASES: &[&str] = &[
        "po", "rf", "co", "fr", "loc", "ext", "int", "rmw", "addr", "data", "ctrl",
    ];
    const CONSTS: &[&str] = &["po", "loc", "ext", "int"];
    const SETS: &[&str] = &["W", "R", "M", "_", "IW"];

    fn rand_expr(rng: &mut XorShiftRng, depth: usize) -> CatExpr {
        if depth == 0 {
            return CatExpr::name(BASES[rng.below(BASES.len() as u64) as usize]);
        }
        let sub = |rng: &mut XorShiftRng| Box::new(rand_expr(rng, depth - 1));
        match rng.below(10) {
            0 | 1 => CatExpr::Union(sub(rng), sub(rng)),
            2 => CatExpr::Inter(sub(rng), sub(rng)),
            3 => CatExpr::Seq(sub(rng), sub(rng)),
            4 => CatExpr::Plus(sub(rng)),
            5 => CatExpr::Opt(sub(rng)),
            6 => CatExpr::Diff(
                sub(rng),
                // Constant subtrahend: stays in the monotone fragment.
                Box::new(CatExpr::name(CONSTS[rng.below(CONSTS.len() as u64) as usize])),
            ),
            7 => CatExpr::Seq(
                Box::new(CatExpr::IdOn(Box::new(CatExpr::name(
                    SETS[rng.below(SETS.len() as u64) as usize],
                )))),
                sub(rng),
            ),
            8 => CatExpr::Inverse(sub(rng)),
            // Bias toward the growing relations so most programs exercise
            // the staged (non-constant) path.
            _ => CatExpr::Union(sub(rng), Box::new(CatExpr::name("rf"))),
        }
    }

    fn rand_program(rng: &mut XorShiftRng, case: u64) -> CatProgram {
        let mut stmts = Vec::new();
        let nchecks = 1 + rng.below(3);
        for k in 0..nchecks {
            let depth = 1 + rng.below(3) as usize;
            let body = rand_expr(rng, depth);
            let name = telechat_repro::common::Sym::new(format!("zz_prop_{case}_{k}"));
            stmts.push(CatStmt::Let {
                recursive: false,
                bindings: vec![(name, body)],
            });
            let expr = CatExpr::Name(name);
            let kind = match rng.below(3) {
                0 => CheckKind::Acyclic,
                1 => CheckKind::Irreflexive,
                _ => CheckKind::Empty,
            };
            match rng.below(5) {
                // Mostly staged monotone checks…
                0..=2 => stmts.push(CatStmt::Check {
                    kind,
                    negated: false,
                    expr,
                    name: format!("c{k}"),
                }),
                // …some negated ones (always residual, leaf-evaluated)…
                3 => stmts.push(CatStmt::Check {
                    kind: CheckKind::Empty,
                    negated: true,
                    expr: CatExpr::Union(Box::new(expr), Box::new(CatExpr::name("po"))),
                    name: format!("c{k}"),
                }),
                // …and some flags (never forbid, leaf-evaluated).
                _ => stmts.push(CatStmt::Flag {
                    kind: CheckKind::Empty,
                    negated: true,
                    expr,
                    name: format!("f{k}"),
                }),
            }
        }
        CatProgram {
            name: format!("prop{case}"),
            stmts,
        }
    }

    let mut rng = XorShiftRng::seed_from_u64(0xCA7);
    let mut staged_constraints = 0usize;
    for case in 0..30 {
        let program = rand_program(&mut rng, case);
        let model = CatModel::from_program(program);
        staged_constraints += model.plan().staged_constraints();
        for (name, src) in CORPUS[..3].iter().chain(SC_PER_LOCATION_CORPUS) {
            let test = parse_c11(src).unwrap();
            let cfg = SimConfig::default();
            let new = simulate(&test, &model, &cfg).unwrap();
            let old = simulate_reference(&test, &model, &cfg).unwrap();
            assert_eq!(new.outcomes, old.outcomes, "case {case} on {name}");
            assert_eq!(new.candidates, old.candidates, "case {case} on {name}");
            assert_eq!(new.allowed, old.allowed, "case {case} on {name}");
            assert_eq!(new.flags, old.flags, "case {case} on {name}");
        }
    }
    assert!(
        staged_constraints > 20,
        "generator must exercise the staged path (got {staged_constraints})"
    );
}

/// Generated cycles always produce SC-unreachable witnesses: under the
/// `sc` model the exists clause never holds.
#[test]
fn generated_witnesses_are_sc_unreachable() {
    let sc = CatModel::bundled("sc").unwrap();
    for fam in Family::ALL {
        for fence in [false, true] {
            let po = if fence {
                Edge::Fenced {
                    order: telechat_repro::common::Annot::SeqCst,
                }
            } else {
                Edge::Po { sameloc: false }
            };
            let Ok(test) = fam.generate(
                "t",
                po,
                AccessKind::Atomic(telechat_repro::common::Annot::Relaxed),
            ) else {
                continue;
            };
            let r = simulate(&test, &sc, &SimConfig::default()).unwrap();
            assert!(
                !test.condition.holds(&r.outcomes),
                "{}: witness must be SC-forbidden: {}",
                test.name,
                r.outcomes
            );
        }
    }
}
