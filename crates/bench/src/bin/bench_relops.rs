//! Relation-engine benchmark with machine-readable output.
//!
//! Measures the engine end-to-end on the Fig. 11 stress shape (the
//! unoptimised `-O0` extraction whose rf × co product explodes, §IV-E)
//! under the *interpreted* aarch64 model, enumerating its whole candidate
//! space ([`ENGINE_BUDGET`]), in three configurations: the staged Cat
//! engine (per-edge incremental monotone constraints), the leaf-only
//! interpreted session (the PR 2 behaviour, kept via
//! `CatModel::without_staging`), and the retained naive reference
//! enumerator — plus micro-benchmarks for the hot
//! relation operations (closure, acyclicity, union, composition,
//! incremental push/undo). Two more engine rows run the staged engine on
//! a sampled 5-thread shape under aarch64 (`deep_sample`) and on the
//! heaviest rc11 source leg of perfbench's `fuzz_deep` stream
//! (`rc11_engine`).
//!
//! Each engine row also reports its heap allocations per simulation,
//! counted by this binary's global allocator (a counter in front of the
//! system allocator). They do not vary between runs, so CI pins them in
//! `tests/golden/bench-allocs.txt`.
//!
//! Results are written to `BENCH_relops.json` in the working directory so
//! the repo's perf trajectory is tracked across PRs (`--quick` shrinks the
//! repetition and iteration counts for CI smoke runs; the JSON shape is
//! identical).
//!
//! `--compare BASELINE.json [--tolerance PCT]` turns the run into a
//! regression gate: after writing its own JSON it diffs the engine
//! wall-clock rows (`engine.staged_ms` / `leaf_only_ms` / `reference_ms`,
//! `deep_sample.staged_ms` and `rc11_engine.staged_ms`) against the
//! baseline file and exits
//! nonzero if any row is slower by more than the tolerance (default
//! 25%, sized for shared-box scheduler noise — the gate catches
//! algorithmic regressions, not single-digit-percent drift).

use std::alloc::{GlobalAlloc, Layout, System};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicU64, Ordering};
use std::time::Instant;
use telechat::persist::MemBackend;
use telechat::{prepare, run_campaign, CampaignSpec, PersistStore, PipelineConfig, Telechat};
use telechat_bench::FIG7_LB_FENCES;
use telechat_cat::CatModel;
use telechat_common::{Arch, EventId, Result, ThreadId, XorShiftRng};
use telechat_compiler::{Compiler, CompilerId, OptLevel, Target};
use telechat_exec::{
    interpret_thread, simulate, simulate_reference, value_pools, IncrementalOrder, InterpBudget,
    Relation, SimConfig,
};
use telechat_fuzz::{FuzzConfig, FuzzSource, GenConfig, SampleConfig, Sampler};
use telechat_litmus::{parse_c11, LitmusTest};

/// Counts every heap allocation and reallocation of the process, in front
/// of the system allocator, for the allocations-per-simulation rows.
struct CountingAlloc;

/// Heap allocations and reallocations so far: a statistic that publishes
/// no other data, so its increments are `Relaxed`.
static ALLOCATIONS: AtomicU64 = AtomicU64::new(0);

// SAFETY: every method forwards its arguments unchanged to the system
// allocator, so each keeps `System`'s guarantees; counting touches no
// allocated memory.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc(layout)
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.alloc_zeroed(layout)
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        ALLOCATIONS.fetch_add(1, Ordering::Relaxed);
        System.realloc(ptr, layout, new_size)
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        System.dealloc(ptr, layout);
    }
}

#[global_allocator]
static GLOBAL: CountingAlloc = CountingAlloc;

/// The heap allocations of one call of `f`, measured on a second call: the
/// first fills the thread's pools (recycled acyclicity orders), as every
/// simulation but a thread's first finds them.
fn allocations_per_call(mut f: impl FnMut()) -> u64 {
    f();
    let before = ALLOCATIONS.load(Ordering::Relaxed);
    f();
    ALLOCATIONS.load(Ordering::Relaxed) - before
}

/// The rc11 engine row's test: the heaviest rc11 source leg of perfbench's
/// `fuzz_deep` workload, test 51 (from 0) of its default stream (seed 7),
/// prepared as a campaign prepares a source. 5 threads, 2,400 justified
/// trace combos, 57,600 candidates and 76,202 pushes.
const RC11_STREAM_SEED: u64 = 7;
const RC11_STREAM_INDEX: usize = 51;

fn rc11_source_leg() -> LitmusTest {
    let cfg = FuzzConfig {
        exhaustive: GenConfig::corpus(1),
        sample: SampleConfig::default(),
        seed: RC11_STREAM_SEED,
        max_tests: 100,
    };
    let test = FuzzSource::new(&cfg)
        .nth(RC11_STREAM_INDEX)
        .expect("the fuzz_deep stream has 100 tests");
    prepare(&test, true).test
}

/// The PR 1 (BTreeSet pair-set) engine's wall-clock on this benchmark's
/// engine shape, measured on the dev container before the bitset rewrite.
/// Machine-dependent — comparable only against runs on the same hardware —
/// but kept in the JSON so the cross-PR trajectory is visible.
const PR1_BASELINE_MS: f64 = 1243.1;

/// The PR 2 engine (bitset relations + incremental built-ins, interpreted
/// models still leaf-only) on the same shape and box — the baseline the
/// staged Cat engine is measured against. The live `leaf_only_ms` row
/// re-measures the same configuration on the current box.
const PR2_BASELINE_MS: f64 = 107.0;

/// The engine rows' candidate budget. The LB+fences `-O0` shape has
/// 350,784 candidates: `simulate` sums each combo's candidate space
/// before any DFS and fails with `Error::Budget` when the sum passes the
/// budget, so a budget below the space would time only that count pass.
/// Above it, every engine enumerates the whole space.
const ENGINE_BUDGET: u64 = 400_000;

/// The PR 5 engine on the deep-sample row's shape (sampler seed 0xDDDD,
/// 65 events / 4 trace combos, staged aarch64, budget 2000, threads 1),
/// best-of-N interleaved with the PR 6 engine on the dev container
/// immediately before the committed BENCH_relops.json run. The box's
/// effective clock drifts ~10% between sessions (an earlier interleave
/// measured 2.79 vs 2.64 in a faster window), so this constant is only
/// comparable to a staged_ms measured in the same session.
const PR5_DEEP_BASELINE_MS: f64 = 3.03;

/// The deep-sample shape: the first well-formed 5-thread sampler shape
/// from this seed/config whose synthesised test exceeds 64 events (65,
/// 4 trace combos) — the multi-word regime of the row kernels. The scan
/// is deterministic (seeded sampler), so every run measures the same test.
fn deep_sample_test() -> Option<(LitmusTest, usize, u128)> {
    let cfg = SampleConfig {
        max_po_run: 9,
        max_edges: 50,
        max_locs: 24,
        ..SampleConfig::default()
    };
    let mut sampler = Sampler::new(cfg, 0xDDDD);
    let sim_cfg = SimConfig::default();
    for _ in 0..200_000 {
        let s = sampler.next_shape();
        if s.comm_count() != 5 || s.slug().contains("rmw") || s.len() < 26 {
            continue;
        }
        let Ok(test) = s.synthesise("deep_sample") else {
            continue;
        };
        if test.threads.len() != 5 {
            continue;
        }
        let mut budget = InterpBudget::new(sim_cfg.max_steps);
        let Ok(pools) = value_pools(&test, sim_cfg.unroll, sim_cfg.max_pool_iters, &mut budget)
        else {
            continue;
        };
        let mut events = test.locs.len();
        let mut combos = 1u128;
        let mut ok = true;
        for t in 0..test.threads.len() {
            match interpret_thread(
                &test,
                ThreadId(t as u8),
                &pools,
                sim_cfg.unroll,
                sim_cfg.excl_fail_paths,
                &mut budget,
            ) {
                Ok(tr) => {
                    events += tr.first().map_or(0, |x| x.events.len());
                    combos = combos.saturating_mul(tr.len().max(1) as u128);
                }
                Err(_) => {
                    ok = false;
                    break;
                }
            }
        }
        if ok && events > 64 && combos <= 256 {
            return Some((test, events, combos));
        }
    }
    None
}

/// The wall-clock rows the `--compare` regression gate diffs, as
/// (section, key) pairs into the JSON document this binary writes.
const GATE_ROWS: [(&str, &str); 5] = [
    ("engine", "staged_ms"),
    ("engine", "leaf_only_ms"),
    ("engine", "reference_ms"),
    ("deep_sample", "staged_ms"),
    ("rc11_engine", "staged_ms"),
];

/// Pulls `"key": <number>` out of the named top-level section of a bench
/// JSON document (the hand-rolled format this binary writes: section
/// headers at two-space indent, keys at four — the workspace vendors no
/// serde, and the gate only needs these flat numeric rows). Returns
/// `None` for a missing section/key or a `null` value, which the gate
/// reports as a skipped row rather than an error.
fn json_number(doc: &str, section: &str, key: &str) -> Option<f64> {
    let sec_pat = format!("\"{section}\": {{");
    let body = &doc[doc.find(&sec_pat)? + sec_pat.len()..];
    // Nested objects (the embedded campaign report) close at deeper
    // indent, so the first two-space close brace ends this section.
    let body = &body[..body.find("\n  }")?];
    let key_pat = format!("\"{key}\": ");
    let rest = &body[body.find(&key_pat)? + key_pat.len()..];
    let val: String = rest
        .chars()
        .take_while(|c| c.is_ascii_digit() || *c == '.' || *c == '-')
        .collect();
    val.parse().ok()
}

/// Interleaved pairs behind each overhead row.
const OVERHEAD_PAIRS: usize = 41;

/// An overhead row: median run times of each side and the median of the
/// per-pair ratios, as a percentage.
struct Overhead {
    base_ms: f64,
    variant_ms: f64,
    pct: f64,
}

/// Times `pairs` interleaved (baseline, variant) pairs of millisecond-
/// scale runs, alternating which side goes first, and reports the median
/// per-pair ratio. Each ratio compares two runs taken back to back, so a
/// slow window of the machine moves both sides of a pair; the median
/// discards the pairs a scheduler spike split. A best-of-N minimum per
/// side, by contrast, lets one lucky baseline run decide the row.
fn paired_overhead(
    pairs: usize,
    mut base: impl FnMut() -> f64,
    mut variant: impl FnMut() -> f64,
) -> Overhead {
    let mut base_ms = Vec::with_capacity(pairs);
    let mut variant_ms = Vec::with_capacity(pairs);
    let mut ratios = Vec::with_capacity(pairs);
    for i in 0..pairs {
        let (b, v) = if i % 2 == 0 {
            let b = base();
            (b, variant())
        } else {
            let v = variant();
            (base(), v)
        };
        base_ms.push(b);
        variant_ms.push(v);
        ratios.push(v / b);
    }
    Overhead {
        base_ms: median(&mut base_ms),
        variant_ms: median(&mut variant_ms),
        pct: (median(&mut ratios) - 1.0) * 100.0,
    }
}

/// The median of a non-empty sample (the upper one for an even count).
fn median(xs: &mut [f64]) -> f64 {
    xs.sort_by(f64::total_cmp);
    xs[xs.len() / 2]
}

fn main() -> Result<()> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let quick = argv.iter().any(|a| a == "--quick");
    let flag_value = |flag: &str| -> Option<&String> {
        argv.iter().position(|a| a == flag).and_then(|i| argv.get(i + 1))
    };
    let compare = flag_value("--compare").cloned();
    let tolerance: f64 = match flag_value("--tolerance") {
        Some(s) => s.parse().map_err(|_| {
            telechat_common::Error::Unsupported(format!("bad --tolerance `{s}`"))
        })?,
        None => 25.0,
    };
    let budget = ENGINE_BUDGET;
    let (reps, micro_iters) = if quick { (1usize, 200u32) } else { (3usize, 2_000u32) };

    println!("-- relation-engine bench (budget {budget}, {reps} rep(s)) --");

    // Fig. 11 stress shape: unoptimised -O0 extraction of the two-thread
    // LB, simulated under the aarch64 model until the budget trips.
    let tool = Telechat::with_config(
        "rc11",
        PipelineConfig {
            optimise: false,
            ..PipelineConfig::default()
        },
    )?;
    let o0 = Compiler::new(CompilerId::llvm(11), OptLevel::O0, Target::new(Arch::AArch64));
    let lb2 = parse_c11(FIG7_LB_FENCES)?;
    let (_, _, _, _, target) = tool.extract(&lb2, &o0)?;
    let aarch64 = CatModel::bundled("aarch64")?;
    let leaf_only = CatModel::bundled("aarch64")?.without_staging();
    let capped = SimConfig {
        max_candidates: budget,
        timeout: None,
        ..SimConfig::default()
    };

    let time_engine = |f: &dyn Fn()| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..reps {
            let t0 = Instant::now();
            f();
            best = best.min(t0.elapsed().as_secs_f64() * 1e3);
        }
        best
    };
    // Interpreted-model rows: the staged Cat engine against the leaf-only
    // session (the PR 2 behaviour) on the same interpreted model, and the
    // naive reference enumerator. The budget admits the shape, so each
    // row times a whole enumeration and every engine must count the same
    // candidates.
    let staged = simulate(&target, &aarch64, &capped)?;
    assert!(
        staged.pushes > 0 && staged.candidates <= budget,
        "the staged engine must run its DFS within the budget"
    );
    let whole_space = |r: Result<telechat_exec::SimResult>| {
        let r = r.expect("the budget admits the shape");
        assert_eq!(r.candidates, staged.candidates, "engines disagree on the space");
        assert_eq!(r.outcomes, staged.outcomes, "engines disagree on the outcomes");
    };
    let staged_ms = time_engine(&|| whole_space(simulate(&target, &aarch64, &capped)));
    let staged_allocs = allocations_per_call(|| whole_space(simulate(&target, &aarch64, &capped)));
    let leaf_only_ms = time_engine(&|| whole_space(simulate(&target, &leaf_only, &capped)));
    let reference_ms = time_engine(&|| whole_space(simulate_reference(&target, &aarch64, &capped)));
    println!(
        "  staged cat engine:  {staged_ms:9.1} ms  ({} candidates, {} pushes, {staged_allocs} allocations)",
        staged.candidates, staged.pushes
    );
    println!(
        "  leaf-only (PR 2):   {leaf_only_ms:9.1} ms  ({:.1}x)",
        leaf_only_ms / staged_ms
    );
    println!(
        "  reference engine:   {reference_ms:9.1} ms  ({:.1}x)",
        reference_ms / staged_ms
    );
    println!("  PR 2 baseline:      {PR2_BASELINE_MS:9.1} ms  (20k budget, dev container)");
    println!("  PR 1 baseline:      {PR1_BASELINE_MS:9.1} ms  (20k budget, dev container)");

    // Observability overhead: the same staged row with the obs layer
    // collecting (spans + counters) vs the default disabled path, as the
    // median per-pair ratio of interleaved pairs (see `paired_overhead`).
    // The CI quick-smoke gate asserts < 5%.
    let overhead = paired_overhead(
        OVERHEAD_PAIRS,
        || {
            let t0 = Instant::now();
            std::hint::black_box(simulate(&target, &aarch64, &capped).is_ok());
            t0.elapsed().as_secs_f64() * 1e3
        },
        || {
            telechat::obs::begin();
            let t0 = Instant::now();
            std::hint::black_box(simulate(&target, &aarch64, &capped).is_ok());
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            telechat::obs::finish();
            ms
        },
    );
    let (obs_off_ms, obs_on_ms, obs_overhead_pct) =
        (overhead.base_ms, overhead.variant_ms, overhead.pct);
    println!(
        "  obs instrumentation:  enabled {obs_on_ms:7.2} ms, disabled {obs_off_ms:7.2} ms  ({obs_overhead_pct:+.1}%)"
    );

    // Micro numbers on a dense-ish random graph (litmus-scale, multi-word).
    let mut rng = XorShiftRng::seed_from_u64(7);
    let n = 72u32;
    let mut graph = Relation::new();
    for i in 0..n - 1 {
        graph.insert(EventId(i), EventId(i + 1)); // a spine, so closures work
    }
    for _ in 0..3 * n {
        graph.insert(
            EventId(rng.below(u64::from(n)) as u32),
            EventId(rng.below(u64::from(n)) as u32),
        );
    }
    let other: Relation = (0..2 * n)
        .map(|_| {
            (
                EventId(rng.below(u64::from(n)) as u32),
                EventId(rng.below(u64::from(n)) as u32),
            )
        })
        .collect();

    // Best-of-3 averaged passes: a scheduler spike mid-pass inflates one
    // average, not the minimum.
    let time_micro = |f: &mut dyn FnMut()| -> f64 {
        let mut best = f64::INFINITY;
        for _ in 0..3 {
            let t0 = Instant::now();
            for _ in 0..micro_iters {
                f();
            }
            best = best.min(t0.elapsed().as_secs_f64() * 1e9 / f64::from(micro_iters));
        }
        best
    };
    let mut micro: Vec<(&str, f64)> = Vec::new();
    micro.push(("transitive_closure", time_micro(&mut || {
        std::hint::black_box(graph.transitive_closure());
    })));
    micro.push(("is_acyclic", time_micro(&mut || {
        std::hint::black_box(graph.is_acyclic());
    })));
    micro.push(("union", time_micro(&mut || {
        std::hint::black_box(graph.union(&other));
    })));
    micro.push(("seq", time_micro(&mut || {
        std::hint::black_box(graph.seq(&other));
    })));
    // Incremental push/undo of one frame of 4 edges over a seeded order —
    // the per-DFS-node cost the incremental engine pays instead of Kahn.
    let spine: Relation = (0..n - 1).map(|i| (EventId(i), EventId(i + 1))).collect();
    let mut ord = IncrementalOrder::new(n as usize, &[&spine]);
    micro.push(("incremental_push_undo_frame", time_micro(&mut || {
        ord.begin();
        ord.add_edge(EventId(0), EventId(40));
        ord.add_edge(EventId(10), EventId(50));
        ord.add_edge(EventId(20), EventId(60));
        ord.add_edge(EventId(30), EventId(70));
        std::hint::black_box(ord.is_acyclic());
        ord.undo();
    })));
    for (op, ns) in &micro {
        println!("  micro {op:28} {ns:12.0} ns/op");
    }

    // Deep-sample engine row: the >64-event 5-thread sampled shape (the
    // multi-word regime), staged aarch64, fixed budget, threads 1 — the
    // end-to-end number the kernel/scratch work moves, measured against
    // the recorded PR 5 engine on the identical test.
    let deep = deep_sample_test();
    let deep_row = deep.map(|(test, events, combos)| {
        let deep_cfg = SimConfig {
            max_candidates: 2_000,
            timeout: None,
            ..SimConfig::default()
        };
        // Single-digit-ms row on a shared box: take best-of-many to cut
        // through scheduler noise (quick mode stays cheap).
        let deep_reps = if quick { 3 } else { 12 };
        let deep_ms = {
            let mut best = f64::INFINITY;
            for _ in 0..deep_reps {
                let t0 = Instant::now();
                let r = simulate(&test, &aarch64, &deep_cfg);
                std::hint::black_box(&r.is_ok());
                best = best.min(t0.elapsed().as_secs_f64() * 1e3);
            }
            best
        };
        let deep_allocs = allocations_per_call(|| {
            std::hint::black_box(simulate(&test, &aarch64, &deep_cfg).is_ok());
        });
        println!(
            "  deep sample ({events} events, {combos} combos): {deep_ms:7.2} ms  (PR 5: {PR5_DEEP_BASELINE_MS} ms, {:.2}x, {deep_allocs} allocations)",
            PR5_DEEP_BASELINE_MS / deep_ms
        );
        (events, combos, deep_ms, deep_allocs)
    });

    // rc11 engine row: the staged source model on the heaviest source leg
    // of the `fuzz_deep` stream, whose pushes the rc11 constraints
    // (`coherence`'s pair count, `atomicity`'s triple count, `seq_cst`'s
    // `[SC] ; scb`) dominate. No timeout, so the counts never depend on
    // the box.
    let rc11 = CatModel::bundled("rc11")?;
    let rc11_test = rc11_source_leg();
    let rc11_cfg = SimConfig {
        timeout: None,
        ..SimConfig::fast()
    };
    let rc11_run = simulate(&rc11_test, &rc11, &rc11_cfg)?;
    let rc11_combos = rc11_run.combo_candidates.count();
    assert_eq!(
        (
            rc11_test.threads.len(),
            rc11_combos,
            rc11_run.candidates,
            rc11_run.pushes
        ),
        (5, 2_400, 57_600, 76_202),
        "the rc11 row runs the heaviest fuzz_deep stream-7 source leg"
    );
    let rc11_ms = {
        let mut best = f64::INFINITY;
        for _ in 0..if quick { 3 } else { 12 } {
            let t0 = Instant::now();
            std::hint::black_box(simulate(&rc11_test, &rc11, &rc11_cfg).is_ok());
            best = best.min(t0.elapsed().as_secs_f64() * 1e3);
        }
        best
    };
    let rc11_allocs = allocations_per_call(|| {
        std::hint::black_box(simulate(&rc11_test, &rc11, &rc11_cfg).is_ok());
    });
    println!(
        "  rc11 source leg (5 threads, {rc11_combos} combos): {rc11_ms:7.2} ms  ({} candidates, {} pushes, {rc11_allocs} allocations)",
        rc11_run.candidates, rc11_run.pushes
    );

    // Cycle-space generation throughput: exhaustive enumeration +
    // canonical dedup + synthesis of the fuzz corpus (the telechat-fuzz
    // subsystem's front end). Quick mode shrinks the budget.
    let comm_budget = if quick { 3 } else { 4 };
    let fuzz_cfg = telechat_fuzz::GenConfig::corpus(comm_budget);
    let fuzz_tests = telechat_fuzz::corpus(&fuzz_cfg).len();
    let fuzz_ms = time_engine(&|| {
        std::hint::black_box(telechat_fuzz::corpus(&fuzz_cfg).len());
    });
    let fuzz_rate = fuzz_tests as f64 / (fuzz_ms / 1e3);
    println!(
        "  fuzz corpus (comm<={comm_budget}):   {fuzz_ms:9.1} ms  ({fuzz_tests} canonical tests, {fuzz_rate:.0}/s)"
    );

    // Campaign-scale sharing: the 61-test 2-comm canonical corpus through
    // a many-profile spec (2 arch × 2 compilers × 5 opt levels, -Og
    // clang-unsupported), cache on vs off. The cache runs each source leg
    // once per test and collapses identical extracted code across
    // profiles; the two drivers must agree byte-for-byte on cells,
    // positives and accounting (asserted here, and pinned with CacheStats
    // invariants by tests/campaign_cache.rs). Quick mode shrinks the
    // corpus, not the profile grid — the sharing ratio is the point.
    let corpus_tests: Vec<LitmusTest> = telechat_fuzz::corpus(&telechat_fuzz::GenConfig::corpus(2))
        .into_iter()
        .map(|(_, t)| t)
        .collect();
    let campaign_tests: Vec<LitmusTest> = if quick {
        corpus_tests.iter().take(12).cloned().collect()
    } else {
        corpus_tests
    };
    let spec = CampaignSpec {
        compilers: vec![CompilerId::llvm(11), CompilerId::gcc(10)],
        opts: vec![
            OptLevel::O1,
            OptLevel::O2,
            OptLevel::O3,
            OptLevel::Ofast,
            OptLevel::Og,
        ],
        targets: vec![Target::new(Arch::AArch64), Target::new(Arch::X86_64)],
        source_model: "rc11".into(),
        threads: 1,
        cache: true,
        ..CampaignSpec::default()
    };
    let mut spec_off = spec.clone();
    spec_off.cache = false;
    let campaign_config = PipelineConfig::default();
    let time_campaign = |spec: &CampaignSpec| {
        let t0 = Instant::now();
        let result = run_campaign(&campaign_tests, spec, &campaign_config)
            .expect("campaign must run");
        (t0.elapsed().as_secs_f64() * 1e3, result)
    };
    let (cache_on_ms, on) = time_campaign(&spec);
    let (cache_off_ms, off) = time_campaign(&spec_off);
    let identical = on.cells == off.cells
        && on.positive_tests == off.positive_tests
        && on.source_tests == off.source_tests
        && on.compiled_tests == off.compiled_tests;
    assert!(identical, "cached campaign must be byte-identical to uncached");
    assert_eq!(
        on.cache.source_misses as usize, on.source_tests,
        "one source simulation per test"
    );
    let campaign_profiles = on.compiled_tests.checked_div(on.source_tests).unwrap_or(0);
    let campaign_speedup = cache_off_ms / cache_on_ms;
    println!(
        "  campaign {}t x {}p:    cache on {cache_on_ms:7.1} ms, off {cache_off_ms:7.1} ms  ({campaign_speedup:.1}x, {} sims shared)",
        on.source_tests,
        campaign_profiles,
        on.cache.deduped_simulations()
    );

    // Persistent-store tier: the same campaign cold (writing the log) and
    // warm (a fresh store over the same log — a "process restart" — so
    // every leg answers from disk). Both must stay byte-identical to the
    // uncached driver, and the warm run must actually hit the store.
    let store_log = MemBackend::new();
    let mut spec_store = spec.clone();
    spec_store.store = Some(std::sync::Arc::new(
        PersistStore::open_backend(Box::new(store_log.clone())).expect("open store"),
    ));
    let (store_cold_ms, store_cold) = time_campaign(&spec_store);
    spec_store.store = Some(std::sync::Arc::new(
        PersistStore::open_backend(Box::new(store_log)).expect("reopen store"),
    ));
    let (store_warm_ms, store_warm) = time_campaign(&spec_store);
    let store_identical = [&store_cold, &store_warm].iter().all(|r| {
        r.cells == off.cells
            && r.positive_tests == off.positive_tests
            && r.source_tests == off.source_tests
            && r.compiled_tests == off.compiled_tests
    });
    assert!(
        store_identical,
        "store-backed campaign must be byte-identical to uncached"
    );
    assert!(
        store_warm.cache.disk_hits > 0,
        "warm rerun must answer from the store"
    );
    assert_eq!(
        store_warm.cache.disk_hits,
        store_cold.cache.disk_writes,
        "warm rerun replays exactly what the cold run logged"
    );
    let store_speedup = store_cold_ms / store_warm_ms;
    println!(
        "  campaign store:       cold {store_cold_ms:7.1} ms, warm {store_warm_ms:7.1} ms  ({store_speedup:.1}x, {} disk hits)",
        store_warm.cache.disk_hits
    );

    // Work-item journal tier: the same campaign with a completion journal
    // attached — cold (journaling every item) vs resumed from a journal
    // truncated at ~50% of its records (half the items replayed, half
    // recomputed). The journal's append cost is the median per-pair
    // ratio of interleaved journaled and journal-less runs (see
    // `paired_overhead`); the CI quick gate asserts it stays under 5%.
    let journal_fp = telechat::campaign_fingerprint(0, &spec, &campaign_config);
    let mut journal_image = Vec::new();
    let mut journal_cold = None;
    let overhead = paired_overhead(
        OVERHEAD_PAIRS,
        || time_campaign(&spec).0,
        || {
            // A fresh backend per run: a reused journal would replay
            // instead of appending, and this row prices the appends.
            let mem = MemBackend::new();
            let mut spec_journal = spec.clone();
            spec_journal.journal = Some(std::sync::Arc::new(
                telechat::CampaignJournal::open_backend(
                    Box::new(mem.clone()),
                    journal_fp,
                    telechat::ShardSpec::whole(),
                )
                .expect("open journal"),
            ));
            let (ms, cold) = time_campaign(&spec_journal);
            journal_image = mem.bytes().lock().expect("journal image").clone();
            journal_cold = Some(cold);
            ms
        },
    );
    let (plain_ms, journal_ms, journal_overhead_pct) =
        (overhead.base_ms, overhead.variant_ms, overhead.pct);
    let journal_cold = journal_cold.expect("at least one journaled run");

    let bounds = telechat::CampaignJournal::record_boundaries(&journal_image);
    let cut = bounds[bounds.len() / 2];
    let resume_mem = MemBackend::new();
    {
        let bytes = resume_mem.bytes();
        *bytes.lock().expect("seed resume image") = journal_image[..cut].to_vec();
    }
    let mut spec_resume = spec.clone();
    spec_resume.journal = Some(std::sync::Arc::new(
        telechat::CampaignJournal::open_backend(
            Box::new(resume_mem),
            journal_fp,
            telechat::ShardSpec::whole(),
        )
        .expect("reopen journal"),
    ));
    let (resumed_ms, resumed) = time_campaign(&spec_resume);
    let resume_identical = [&journal_cold, &resumed].iter().all(|r| {
        r.cells == off.cells
            && r.positive_tests == off.positive_tests
            && r.source_tests == off.source_tests
            && r.compiled_tests == off.compiled_tests
    });
    assert!(
        resume_identical,
        "journaled and resumed campaigns must be byte-identical to uncached"
    );
    let resume_stats = resumed.journal.clone().expect("journal attaches stats");
    assert!(resume_stats.replayed > 0, "the 50% cut must replay items");
    let resume_speedup = journal_ms / resumed_ms;
    println!(
        "  campaign journal:     cold {journal_ms:7.1} ms ({journal_overhead_pct:+.1}% vs plain), resumed@50% {resumed_ms:7.1} ms  ({resume_speedup:.1}x, {} replayed)",
        resume_stats.replayed
    );

    // Instrumented snapshot of the same campaign: the [`ObsReport`] that
    // `--metrics` renders, embedded in the JSON so the trajectory file
    // carries per-phase wall-time and the deterministic counter totals
    // alongside the raw campaign numbers.
    let mut spec_obs = spec.clone();
    spec_obs.metrics = true;
    let (_, obs_run) = time_campaign(&spec_obs);
    let obs_report = obs_run.obs.expect("metrics: true attaches a report");

    // Hand-rolled JSON (the workspace vendors no serde).
    let mut json = String::new();
    let _ = writeln!(json, "{{");
    let _ = writeln!(json, "  \"bench\": \"relops\",");
    let _ = writeln!(json, "  \"quick\": {quick},");
    let _ = writeln!(json, "  \"engine\": {{");
    let _ = writeln!(
        json,
        "    \"shape\": \"LB+fences clang-O0 unoptimised extraction, interpreted aarch64 model, whole candidate space\","
    );
    let _ = writeln!(json, "    \"budget\": {budget},");
    let _ = writeln!(json, "    \"candidates\": {},", staged.candidates);
    let _ = writeln!(json, "    \"pushes\": {},", staged.pushes);
    let _ = writeln!(json, "    \"staged_ms\": {staged_ms:.2},");
    let _ = writeln!(json, "    \"leaf_only_ms\": {leaf_only_ms:.2},");
    let _ = writeln!(json, "    \"reference_ms\": {reference_ms:.2},");
    let _ = writeln!(json, "    \"allocs_per_sim\": {staged_allocs},");
    let _ = writeln!(
        json,
        "    \"speedup_vs_leaf_only\": {:.2},",
        leaf_only_ms / staged_ms
    );
    let _ = writeln!(
        json,
        "    \"speedup_vs_reference\": {:.2},",
        reference_ms / staged_ms
    );
    let _ = writeln!(json, "    \"pr2_baseline_ms\": {PR2_BASELINE_MS},");
    let _ = writeln!(json, "    \"pr1_baseline_ms\": {PR1_BASELINE_MS},");
    let _ = writeln!(
        json,
        "    \"baseline_note\": \"PR 1/PR 2 engines stopped at a 20k-candidate budget on the dev container, while the rows above enumerate the whole space: history, not comparable\""
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"observability\": {{");
    let _ = writeln!(
        json,
        "    \"shape\": \"staged engine row, obs layer enabled (spans + counters) vs disabled: median times and median per-pair ratio of {OVERHEAD_PAIRS} interleaved pairs\","
    );
    let _ = writeln!(json, "    \"enabled_ms\": {obs_on_ms:.2},");
    let _ = writeln!(json, "    \"disabled_ms\": {obs_off_ms:.2},");
    let _ = writeln!(json, "    \"overhead_pct\": {obs_overhead_pct:.2},");
    let _ = writeln!(
        json,
        "    \"campaign_report\": {}",
        obs_report.to_json("    ")
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"campaign\": {{");
    let _ = writeln!(
        json,
        "    \"shape\": \"2-comm canonical corpus x (aarch64, x86-64) x (clang-11, gcc-10) x (O1,O2,O3,Ofast,Og), campaign threads 1\","
    );
    let _ = writeln!(json, "    \"tests\": {},", on.source_tests);
    let _ = writeln!(json, "    \"profiles\": {campaign_profiles},");
    let _ = writeln!(json, "    \"work_items\": {},", on.compiled_tests);
    let _ = writeln!(json, "    \"cache_on_ms\": {cache_on_ms:.2},");
    let _ = writeln!(json, "    \"cache_off_ms\": {cache_off_ms:.2},");
    let _ = writeln!(json, "    \"speedup\": {campaign_speedup:.2},");
    let _ = writeln!(json, "    \"identical\": {identical},");
    let _ = writeln!(json, "    \"source_sims\": {},", on.cache.source_misses);
    let _ = writeln!(json, "    \"target_sims\": {},", on.cache.target_misses);
    let _ = writeln!(
        json,
        "    \"deduped_sims\": {}",
        on.cache.deduped_simulations()
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"campaign_store\": {{");
    let _ = writeln!(
        json,
        "    \"shape\": \"same campaign, persistent store: cold writes the log, warm reopens it (process restart)\","
    );
    let _ = writeln!(json, "    \"cold_ms\": {store_cold_ms:.2},");
    let _ = writeln!(json, "    \"warm_ms\": {store_warm_ms:.2},");
    let _ = writeln!(json, "    \"speedup_warm\": {store_speedup:.2},");
    let _ = writeln!(json, "    \"disk_writes\": {},", store_cold.cache.disk_writes);
    let _ = writeln!(json, "    \"disk_hits\": {},", store_warm.cache.disk_hits);
    let _ = writeln!(json, "    \"identical\": {store_identical}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"campaign_resume\": {{");
    let _ = writeln!(
        json,
        "    \"shape\": \"same campaign, work-item journal: cold journals every item (median of {OVERHEAD_PAIRS} pairs interleaved with journal-less runs; the overhead is the median per-pair ratio), resume replays a journal truncated at 50% of its records\","
    );
    let _ = writeln!(json, "    \"cold_ms\": {journal_ms:.2},");
    let _ = writeln!(json, "    \"plain_ms\": {plain_ms:.2},");
    let _ = writeln!(json, "    \"journal_overhead_pct\": {journal_overhead_pct:.2},");
    let _ = writeln!(json, "    \"resumed_ms\": {resumed_ms:.2},");
    let _ = writeln!(json, "    \"speedup_resumed\": {resume_speedup:.2},");
    let _ = writeln!(json, "    \"replayed\": {},", resume_stats.replayed);
    let _ = writeln!(json, "    \"work_items\": {},", resumed.compiled_tests);
    let _ = writeln!(json, "    \"identical\": {resume_identical}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"fuzz\": {{");
    let _ = writeln!(
        json,
        "    \"shape\": \"exhaustive canonical corpus: enumerate + dedup + synthesise\","
    );
    let _ = writeln!(json, "    \"comm_budget\": {comm_budget},");
    let _ = writeln!(json, "    \"canonical_tests\": {fuzz_tests},");
    let _ = writeln!(json, "    \"gen_ms\": {fuzz_ms:.2},");
    let _ = writeln!(json, "    \"tests_per_sec\": {fuzz_rate:.0}");
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"micro\": [");
    for (i, (op, ns)) in micro.iter().enumerate() {
        let comma = if i + 1 < micro.len() { "," } else { "" };
        let _ = writeln!(
            json,
            "    {{ \"op\": \"{op}\", \"nodes\": {n}, \"ns_per_op\": {ns:.1} }}{comma}"
        );
    }
    let _ = writeln!(json, "  ],");
    let _ = writeln!(json, "  \"deep_sample\": {{");
    let _ = writeln!(
        json,
        "    \"shape\": \"sampler seed 0xDDDD (5 threads, 50-edge/24-loc/9-po-run config), staged aarch64, budget 2000, threads 1\","
    );
    if let Some((events, combos, deep_ms, deep_allocs)) = deep_row {
        let _ = writeln!(json, "    \"events\": {events},");
        let _ = writeln!(json, "    \"combos\": {combos},");
        let _ = writeln!(json, "    \"staged_ms\": {deep_ms:.2},");
        let _ = writeln!(json, "    \"allocs_per_sim\": {deep_allocs},");
        let _ = writeln!(
            json,
            "    \"speedup_vs_pr5\": {:.2},",
            PR5_DEEP_BASELINE_MS / deep_ms
        );
    } else {
        let _ = writeln!(json, "    \"events\": 0,");
        let _ = writeln!(json, "    \"combos\": 0,");
        let _ = writeln!(json, "    \"staged_ms\": null,");
        let _ = writeln!(json, "    \"allocs_per_sim\": null,");
        let _ = writeln!(json, "    \"speedup_vs_pr5\": null,");
    }
    let _ = writeln!(json, "    \"pr5_baseline_ms\": {PR5_DEEP_BASELINE_MS},");
    let _ = writeln!(
        json,
        "    \"baseline_note\": \"PR 5 engine, identical test/budget, measured interleaved on the dev container in the same session as this run; box clock drifts ~10% between sessions, so cross-session/cross-machine comparisons are indicative only\""
    );
    let _ = writeln!(json, "  }},");
    let _ = writeln!(json, "  \"rc11_engine\": {{");
    let _ = writeln!(
        json,
        "    \"shape\": \"heaviest rc11 source leg of perfbench fuzz_deep (stream seed {RC11_STREAM_SEED}, test {RC11_STREAM_INDEX}), staged rc11, SimConfig::fast without timeout\","
    );
    let _ = writeln!(json, "    \"threads\": {},", rc11_test.threads.len());
    let _ = writeln!(json, "    \"combos\": {rc11_combos},");
    let _ = writeln!(json, "    \"candidates\": {},", rc11_run.candidates);
    let _ = writeln!(json, "    \"pushes\": {},", rc11_run.pushes);
    let _ = writeln!(json, "    \"staged_ms\": {rc11_ms:.2},");
    let _ = writeln!(json, "    \"allocs_per_sim\": {rc11_allocs}");
    let _ = writeln!(json, "  }}");
    let _ = writeln!(json, "}}");
    // Quick (CI smoke) runs write to a side path so they never clobber the
    // committed full-budget trajectory file.
    let path = if quick {
        "BENCH_relops.quick.json"
    } else {
        "BENCH_relops.json"
    };
    std::fs::write(path, &json)
        .map_err(|e| telechat_common::Error::Unsupported(format!("cannot write {path}: {e}")))?;
    println!("wrote {path}");

    // Regression gate: diff the engine wall-clock rows of this run against
    // a recorded baseline, fail the process if any regressed beyond the
    // tolerance. Rows absent or null on either side (e.g. a baseline from
    // a box where the deep-sample scan found nothing) are skipped, not
    // failed — the gate must never invent a regression.
    if let Some(baseline_path) = compare {
        let baseline = std::fs::read_to_string(&baseline_path).map_err(|e| {
            telechat_common::Error::Unsupported(format!("cannot read {baseline_path}: {e}"))
        })?;
        println!("-- regression gate vs {baseline_path} (tolerance {tolerance:.0}%) --");
        let mut regressed = false;
        for (section, key) in GATE_ROWS {
            let name = format!("{section}.{key}");
            let (Some(base), Some(cur)) = (
                json_number(&baseline, section, key),
                json_number(&json, section, key),
            ) else {
                println!("  {name:24} skipped (row missing or null)");
                continue;
            };
            let delta_pct = (cur / base - 1.0) * 100.0;
            let verdict = if cur > base * (1.0 + tolerance / 100.0) {
                regressed = true;
                "REGRESSED"
            } else {
                "ok"
            };
            println!(
                "  {name:24} base {base:9.2} ms  now {cur:9.2} ms  ({delta_pct:+6.1}%)  {verdict}"
            );
        }
        if regressed {
            eprintln!("FAIL: engine row(s) regressed beyond the {tolerance:.0}% tolerance");
            std::process::exit(1);
        }
        println!("gate: all rows within tolerance");
    }
    Ok(())
}
