//! Observability invariants (PR 8): instrumentation off is semantically
//! invisible, the deterministic (`count`-class) metric totals are
//! byte-identical across campaign thread counts, and the JSONL trace of
//! a seeded campaign round-trips a schema check with a well-nested
//! single-root span tree.
//!
//! The obs registry is process-global, so every test in this binary takes
//! [`SERIAL`] first — campaigns with `metrics: true` must not overlap.

use std::collections::{HashMap, HashSet};
use std::sync::Mutex;

use telechat_repro::common::Arch;
use telechat_repro::core::{obs, persist};
use telechat_repro::core::{
    run_campaign_source, CampaignResult, CampaignSpec, PersistStore, PipelineConfig,
};
use telechat_repro::fuzz::{FuzzConfig, FuzzSource};
use telechat_compiler::{CompilerId, OptLevel, Target};

static SERIAL: Mutex<()> = Mutex::new(());

fn spec(threads: usize, metrics: bool) -> CampaignSpec {
    CampaignSpec {
        compilers: vec![CompilerId::llvm(11), CompilerId::gcc(10)],
        opts: vec![OptLevel::O2, OptLevel::O3],
        targets: vec![Target::new(Arch::AArch64)],
        source_model: "rc11".into(),
        threads,
        cache: true,
        metrics,
        ..CampaignSpec::default()
    }
}

fn run(seed: u64, count: usize, spec: &CampaignSpec) -> CampaignResult {
    let mut source = FuzzSource::new(&FuzzConfig::smoke(seed, count));
    run_campaign_source(&mut source, spec, &PipelineConfig::default()).unwrap()
}

/// Everything a campaign result *means*: cells, positives, accounting,
/// and the cache traffic (deterministic under `cache: true`).
fn fingerprint(r: &CampaignResult) -> (String, Vec<(String, String)>, usize, usize, String) {
    (
        format!("{:?}", r.cells),
        r.positive_tests.clone(),
        r.source_tests,
        r.compiled_tests,
        format!("{:?}", r.cache),
    )
}

#[test]
fn instrumentation_off_is_semantically_invisible() {
    let _guard = SERIAL.lock().unwrap();
    let off = run(7, 16, &spec(1, false));
    assert!(off.obs.is_none(), "metrics: false must not attach a report");
    // Rendering an uninstrumented, unstored campaign stays the pre-PR
    // shape: no `metrics:` block sneaks into `Display`.
    let mut plain = spec(1, false);
    plain.cache = false;
    let plain_run = run(7, 16, &plain);
    assert!(
        !format!("{plain_run}").contains("metrics:"),
        "uncached campaigns without --metrics render exactly as before"
    );

    let on = run(7, 16, &spec(1, true));
    let report = on.obs.as_ref().expect("metrics: true attaches a report");
    assert_eq!(
        fingerprint(&on),
        fingerprint(&off),
        "instrumentation must not change what the campaign computes"
    );
    assert_eq!(report.counter("campaign.tests"), Some(16));
    assert_eq!(
        report.counter("campaign.work_items"),
        Some(on.compiled_tests as u64)
    );
    assert!(report.phase_ns("campaign") > 0, "root span records wall time");
}

#[test]
fn deterministic_totals_invariant_across_thread_matrix() {
    let _guard = SERIAL.lock().unwrap();
    let mut baseline: Option<(Vec<(String, u64)>, _)> = None;
    for campaign_threads in [1, 2, 4] {
        let r = run(7, 24, &spec(campaign_threads, true));
        let counters = r.obs.as_ref().unwrap().deterministic_counters();
        // The work counters ride the same `SimResult` replay path: the
        // pushes into incremental sessions and the frontier work they cost.
        for name in ["sim.candidates", "sim.pushes", "cat.frontier_evals"] {
            assert!(
                counters.iter().any(|(n, v)| n == name && *v > 0),
                "deterministic set covers {name}: {counters:?}"
            );
        }
        match &baseline {
            None => baseline = Some((counters, fingerprint(&r))),
            Some((c0, f0)) => {
                assert_eq!(
                    &counters, c0,
                    "count-class totals must be byte-identical at \
                     campaign={campaign_threads}"
                );
                assert_eq!(&fingerprint(&r), f0);
            }
        }
    }
}

/// Everything the attribution layer reports: the `count`-class counter
/// rows (verdict/prune attribution, coverage accounting, campaign and
/// simulation totals) plus the `count`-class histograms (per-combo DFS
/// candidate sizes). Phase-latency histograms are wall-clock and hence
/// scheduling-class — deliberately outside this fingerprint.
fn obs_fingerprint(r: &CampaignResult) -> (Vec<(String, u64)>, String) {
    let report = r.obs.as_ref().expect("metrics: true attaches a report");
    (
        report.deterministic_counters(),
        format!("{:?}", report.deterministic_hists()),
    )
}

#[test]
fn attribution_and_histograms_invariant_across_configs() {
    let _guard = SERIAL.lock().unwrap();
    let base = run(7, 24, &spec(1, true));
    let fp0 = obs_fingerprint(&base);
    let (counters, hists) = &fp0;

    // The attribution and coverage families are actually populated: the
    // 24-test stream under rc11 forbids and prunes via named rules.
    for family in ["sim.prune.", "sim.rule.prune.", "coverage.edge.", "coverage.shape."] {
        assert!(
            counters.iter().any(|(n, v)| n.starts_with(family) && *v > 0),
            "missing {family}* rows in {counters:?}"
        );
    }
    assert!(
        counters.iter().any(|(n, _)| n == "coverage.source_outcome_sets"),
        "distinct source-outcome-set fingerprint count is reported"
    );
    // Extractions are counted per distinct compiled object of a test, so
    // the per-test memo shares work and the count sits in the
    // deterministic set compared across every configuration below.
    let extractions = counters
        .iter()
        .find(|(n, _)| n == "s2l.extractions")
        .map(|(_, v)| *v);
    assert!(
        matches!(extractions, Some(n) if n > 0 && n < base.compiled_tests as u64),
        "s2l.extractions {extractions:?} of {} work items",
        base.compiled_tests
    );
    assert!(
        hists.contains("sim.combo_candidates"),
        "per-combo DFS-size histogram is reported: {hists}"
    );

    // Byte-identical at other campaign thread counts.
    for campaign_threads in [2, 4] {
        assert_eq!(
            obs_fingerprint(&run(7, 24, &spec(campaign_threads, true))),
            fp0,
            "attribution drifted at campaign={campaign_threads}"
        );
    }

    // Byte-identical with the in-memory cache off (every leg recomputed).
    let mut uncached = spec(1, true);
    uncached.cache = false;
    assert_eq!(
        obs_fingerprint(&run(7, 24, &uncached)),
        fp0,
        "attribution drifted with cache off"
    );

    // Byte-identical through the persistent store: the cold run writes the
    // log, the warm reopen answers every leg from disk — the attribution
    // fields ride the persisted SimResult, so replays carry the original
    // totals.
    let log = persist::MemBackend::new();
    let mut stored = spec(1, true);
    stored.store = Some(std::sync::Arc::new(
        PersistStore::open_backend(Box::new(log.clone())).unwrap(),
    ));
    assert_eq!(
        obs_fingerprint(&run(7, 24, &stored)),
        fp0,
        "attribution drifted on the store cold run"
    );
    stored.store = Some(std::sync::Arc::new(
        PersistStore::open_backend(Box::new(log)).unwrap(),
    ));
    let warm = run(7, 24, &stored);
    assert!(warm.cache.disk_hits > 0, "warm rerun answers from the store");
    assert_eq!(
        obs_fingerprint(&warm),
        fp0,
        "attribution drifted on the store warm replay"
    );
}

#[test]
fn jsonl_trace_round_trips_and_spans_nest() {
    let _guard = SERIAL.lock().unwrap();
    let r = run(7, 64, &spec(2, true));
    let report = r.obs.as_ref().unwrap();
    let mut bytes = Vec::new();
    report.write_jsonl(&mut bytes).unwrap();
    let text = String::from_utf8(bytes).unwrap();

    let mut spans = Vec::new();
    let mut metric_lines = 0usize;
    let mut hist_lines = 0usize;
    for (i, line) in text.lines().enumerate() {
        assert!(
            line.starts_with('{') && line.ends_with('}'),
            "line {i} is not a JSON object: {line}"
        );
        if i == 0 {
            assert!(line.contains(r#""type":"meta""#), "line 0 is the meta line");
            assert!(line.contains(r#""format":1"#));
            continue;
        }
        if let Some(span) = obs::span_from_jsonl(line) {
            spans.push(span);
        } else if line.contains(r#""type":"hist""#) {
            hist_lines += 1;
        } else {
            assert!(line.contains(r#""type":"metric""#), "unknown line: {line}");
            metric_lines += 1;
        }
    }
    assert_eq!(spans.len(), report.spans().len(), "every span round-trips");
    assert_eq!(metric_lines, report.counters.len());
    assert_eq!(hist_lines, report.hists.len(), "every histogram is traced");

    // Exactly one root, named for the campaign, with the null parent id.
    let roots: Vec<_> = spans.iter().filter(|s| s.depth == 0).collect();
    assert_eq!(roots.len(), 1, "single root span");
    assert_eq!(roots[0].name, "campaign");
    assert_eq!(roots[0].parent, 0);

    // Well-nested: every non-root span's parent exists one level up, and
    // ids are unique (the stable-id scheme must not collide here).
    let mut depth_of = HashMap::new();
    for s in &spans {
        assert!(
            depth_of.insert(s.id, s.depth).is_none(),
            "duplicate span id {:016x} ({})",
            s.id,
            s.name
        );
    }
    for s in spans.iter().filter(|s| s.depth > 0) {
        assert_eq!(
            depth_of.get(&s.parent),
            Some(&(s.depth - 1)),
            "span {} ({:016x}) parent missing or at the wrong depth",
            s.name,
            s.id
        );
    }

    // The pipeline phases all show up under their documented names.
    let names: HashSet<&str> = spans.iter().map(|s| s.name).collect();
    for phase in [
        "campaign",
        "work-item",
        "prepare",
        "compile",
        "extract",
        "source-sim",
        "target-sim",
        "compare",
        "warm-up",
        "combo",
    ] {
        assert!(names.contains(phase), "missing span name {phase:?}");
    }

    // The phase table closes: a work item's direct children plus its
    // unattributed self time sum to its total.
    let children: u128 = [
        "prepare",
        "compile",
        "extract",
        "source-sim",
        "target-sim",
        "compare",
        "warm-up",
    ]
    .iter()
    .map(|p| report.phase_ns(p))
    .sum();
    assert_eq!(
        children + report.phase_ns("work-item.unattributed"),
        report.phase_ns("work-item")
    );

    // One work item per compiled test, each keyed `test:profile`.
    let items: Vec<_> = spans.iter().filter(|s| s.name == "work-item").collect();
    assert_eq!(items.len(), r.compiled_tests);
    assert!(items.iter().all(|s| s.key.contains(':')));
}
