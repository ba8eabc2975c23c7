//! Campaign-cache invariance pins: a campaign with the sharing layer on
//! ([`CampaignSpec::cache`]) is **byte-identical** — cells, positive list,
//! accounting — to the uncached driver, for every campaign thread count,
//! on fixed suites and seeded fuzz streams alike; and its [`CacheStats`]
//! prove the sharing actually happened (one source simulation per test,
//! one prepare per test, target collapses across profiles).

use telechat_repro::common::Arch;
use telechat_repro::core::{
    run_campaign, run_campaign_source, CampaignResult, CampaignSpec, PipelineConfig, SimCache,
    Telechat,
};
use telechat_repro::fuzz::{FuzzConfig, FuzzSource};
use telechat_repro::litmus::{parse_c11, LitmusTest};
use telechat_compiler::{Compiler, CompilerId, OptLevel, Target};

const SB: &str = r#"
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

fn fixed_suite() -> Vec<LitmusTest> {
    [SB, MP_REL_ACQ, LB_FENCES]
        .iter()
        .map(|s| parse_c11(s).unwrap())
        .collect()
}

fn spec(threads: usize, cache: bool) -> CampaignSpec {
    CampaignSpec {
        compilers: vec![CompilerId::llvm(11), CompilerId::gcc(10)],
        opts: vec![OptLevel::O2, OptLevel::O3],
        targets: vec![Target::new(Arch::AArch64)],
        source_model: "rc11".into(),
        threads,
        cache,
        ..CampaignSpec::default()
    }
}

/// Everything a campaign result *means* (cells, positives, accounting) —
/// the cache traffic counters are intentionally excluded: they are the one
/// field that legitimately differs between cached and uncached runs.
fn semantic_fingerprint(r: &CampaignResult) -> (String, Vec<(String, String)>, usize, usize) {
    (
        format!("{:?}", r.cells),
        r.positive_tests.clone(),
        r.source_tests,
        r.compiled_tests,
    )
}

#[test]
fn cached_campaign_is_byte_identical_on_a_fixed_suite() {
    let suite = fixed_suite();
    let config = PipelineConfig::default();
    let baseline = run_campaign(&suite, &spec(1, false), &config).unwrap();
    assert!(
        baseline.total_positive() > 0,
        "LB+fences on AArch64 must show up"
    );
    assert!(!baseline.cache.any(), "uncached run reports no traffic");
    for threads in [1, 2, 4] {
        for cache in [false, true] {
            let r = run_campaign(&suite, &spec(threads, cache), &config).unwrap();
            assert_eq!(
                semantic_fingerprint(&r),
                semantic_fingerprint(&baseline),
                "threads={threads} cache={cache}"
            );
            assert_eq!(r.cache.any(), cache, "traffic iff the cache is on");
        }
    }
}

#[test]
fn cached_campaign_is_byte_identical_on_a_seeded_fuzz_stream() {
    let config = PipelineConfig::default();
    let run = |threads: usize, cache: bool| {
        let mut source = FuzzSource::new(&FuzzConfig::smoke(11, 8));
        let r = run_campaign_source(&mut source, &spec(threads, cache), &config).unwrap();
        assert_eq!(r.source_tests, 8);
        r
    };
    let baseline = run(1, false);
    for threads in [1, 2, 4] {
        for cache in [false, true] {
            let r = run(threads, cache);
            assert_eq!(
                semantic_fingerprint(&r),
                semantic_fingerprint(&baseline),
                "threads={threads} cache={cache}"
            );
        }
    }
    // The cache counters themselves are deterministic across thread
    // counts (each distinct key computes exactly once).
    assert_eq!(run(1, true).cache, run(4, true).cache);
}

#[test]
fn cache_stats_pin_one_source_simulation_per_test() {
    let suite = fixed_suite();
    let config = PipelineConfig::default();
    let r = run_campaign(&suite, &spec(4, true), &config).unwrap();
    let s = r.cache;
    let tests = r.source_tests as u64;
    let items = r.compiled_tests as u64;
    assert_eq!(
        s.source_misses, tests,
        "a whole campaign performs exactly one source simulation per test"
    );
    // Each test's warm-up takes the miss; all `items` pipeline runs then
    // hit the shared entry.
    assert_eq!(s.source_hits, items, "every work item shares it");
    assert_eq!(s.prepare_misses, tests, "l2c::prepare runs once per test");
    assert_eq!(s.prepare_hits, items);
    assert_eq!(
        s.target_misses + s.target_hits,
        items,
        "every item consults the target leg"
    );
    assert!(
        s.target_hits > 0,
        "identical extracted code across O2/O3 collapses: {s:?}"
    );
    assert_eq!(s.deduped_simulations(), s.source_hits + s.target_hits);
}

#[test]
fn attached_cache_shares_across_pipeline_runs() {
    // The pipeline-level view of the same invariant, without the campaign
    // driver: two profiles of one test through one shared cache.
    let cache = SimCache::shared();
    let tool = Telechat::new("rc11").unwrap().with_cache(cache.clone());
    let test = parse_c11(MP_REL_ACQ).unwrap();
    let o2 = Compiler::new(CompilerId::llvm(11), OptLevel::O2, Target::new(Arch::AArch64));
    let o3 = Compiler::new(CompilerId::llvm(11), OptLevel::O3, Target::new(Arch::AArch64));

    let a = tool.run(&test, &o2).unwrap();
    let b = tool.run(&test, &o3).unwrap();
    assert!(
        std::sync::Arc::ptr_eq(&a.source_outcomes, &b.source_outcomes),
        "reports share the cached source outcome set, not deep copies"
    );
    let s = cache.stats();
    assert_eq!((s.source_misses, s.source_hits), (1, 1));
    assert_eq!((s.prepare_misses, s.prepare_hits), (1, 1));

    // An uncached tool on the same inputs agrees on every verdict field.
    let plain = Telechat::new("rc11").unwrap();
    let c = plain.run(&test, &o2).unwrap();
    assert_eq!(a.verdict, c.verdict);
    assert_eq!(a.source_outcomes, c.source_outcomes);
    assert_eq!(a.target_outcomes, c.target_outcomes);
    assert_eq!(a.positive, c.positive);
    assert_eq!(a.negative, c.negative);
}
