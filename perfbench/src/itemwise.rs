//! The benchmark's own item-by-item campaign pass. It makes the same
//! public layer calls, in the same order, as one campaign worker does —
//! prepare, compile, extract, source leg, model lookup, target leg,
//! compare, journal — so its table and its cache traffic must equal the
//! campaign's, and a [`Tracer`] can time each call.

use crate::trace::Tracer;
use crate::workload::{pipeline_config, setup, Paths, Seeds, Workload};
use std::collections::BTreeSet;
use std::sync::Arc;
use std::time::Instant;
use telechat::journal::profile_fingerprint;
use telechat::{
    mcompare_shared, object_to_litmus, CacheStats, CampaignResult, ItemKey, ItemOutcome,
    ItemRecord, S2lOptions, SimCache, StateMapping,
};
use telechat_common::{Error, Result};
use telechat_compiler::Compiler;
use telechat_exec::SimResult;
use telechat_litmus::LitmusTest;

/// Why a work item ended in an error cell.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum ErrorKind {
    /// The simulated compiler failed (e.g. an `out of registers` ICE).
    Compile,
    /// Extraction (`s2l`) failed.
    Extract,
    /// A simulation leg exceeded its step or candidate budget.
    Exhausted,
    /// A simulation leg hit the wall-clock timeout: the machine was
    /// overloaded, not the program wrong.
    Timeout,
    /// Any other error.
    Other,
}

/// The decision for one work item.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Verdict {
    /// Compiled outcomes equal the source outcomes.
    Pass,
    /// Compiled outcomes are a strict subset.
    Negative,
    /// Compiled outcomes the source forbids.
    Positive,
    /// A compiled execution writes read-only memory.
    Crashed,
    /// The source races.
    Racy,
    /// An error cell.
    Error(ErrorKind),
}

impl Verdict {
    /// The verdict of an error.
    pub fn of_error(e: &Error, stage: ErrorKind) -> Verdict {
        Verdict::Error(match e {
            Error::Budget { .. } => ErrorKind::Exhausted,
            Error::Timeout { .. } | Error::Deadline { .. } => ErrorKind::Timeout,
            _ => stage,
        })
    }

    /// The verdict of two successful legs and their comparison.
    pub fn of_legs(
        source: &SimResult,
        target: &SimResult,
        positive: bool,
        negative: bool,
    ) -> Verdict {
        if source.has_flag("race") {
            Verdict::Racy
        } else if target.crashed {
            Verdict::Crashed
        } else if positive {
            Verdict::Positive
        } else if negative {
            Verdict::Negative
        } else {
            Verdict::Pass
        }
    }
}

/// One decided work item.
#[derive(Debug, Clone)]
pub struct Item {
    /// Index of the test in run order.
    pub test: usize,
    /// Index of the profile in sweep order.
    pub profile: usize,
    /// The decision.
    pub verdict: Verdict,
}

/// Deterministic work counts of one pass, taken from public return values.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Counts {
    /// `l2c::prepare` computations (cache misses).
    pub l2c_calls: u64,
    /// `Compiler::compile` calls.
    pub compiler_calls: u64,
    /// Compilations that failed.
    pub compiler_errors: u64,
    /// `object_to_litmus` calls.
    pub s2l_calls: u64,
    /// Distinct extracted target tests (by content fingerprint).
    pub s2l_distinct: u64,
    /// Source legs simulated.
    pub source_sims: u64,
    /// Target legs simulated.
    pub target_sims: u64,
    /// Candidates enumerated by simulated legs.
    pub candidates: u64,
    /// Of those, candidates pruned before a leaf.
    pub pruned: u64,
    /// Work items whose simulation exhausted its budget.
    pub exhausted_items: u64,
    /// Work items that hit the wall-clock timeout.
    pub timeout_items: u64,
    /// `mcompare_shared` calls.
    pub mcompare_calls: u64,
}

/// The outcome of one pass.
pub struct Pass {
    /// The campaign table, with cache, store and journal traffic.
    pub result: CampaignResult,
    /// Every work item, in run order.
    pub items: Vec<Item>,
    /// Deterministic counts.
    pub counts: Counts,
    /// The tests, in run order.
    pub tests: Vec<LitmusTest>,
    /// Wall seconds of the whole pass, set-up included.
    pub wall_s: f64,
}

fn leg_layer(before: &CacheStats, after: &CacheStats, source: bool) -> &'static str {
    let hits = |s: &CacheStats| if source { s.source_hits } else { s.target_hits };
    if after.disk_hits > before.disk_hits {
        "persist.get"
    } else if hits(after) > hits(before) {
        "cache"
    } else {
        "exec"
    }
}

/// Runs the workload once, item by item, on one thread: set-up, then every
/// `(test, profile)` item in campaign order, each call a span on `tracer`.
pub fn run_pass(w: Workload, seeds: Seeds, paths: &Paths, tracer: &mut Tracer) -> Result<Pass> {
    let started = Instant::now();
    let root = tracer.open();
    let setup = setup(w, seeds, paths, tracer)?;
    let config = pipeline_config();
    let spec = w.spec();
    let profiles = spec.profiles();
    let profile_fps: Vec<u64> = profiles
        .iter()
        .map(|c| profile_fingerprint(&c.profile_name()))
        .collect();
    let mut cache = SimCache::new();
    if let Some(store) = &setup.store {
        cache = cache.with_store(store.clone());
    }
    let mut counts = Counts::default();
    let mut distinct = BTreeSet::new();
    let mut items = Vec::with_capacity(setup.tests.len() * profiles.len());
    let mut result = CampaignResult::default();

    for (ti, test) in setup.tests.iter().enumerate() {
        let test_fp = setup.journal.is_some().then(|| test.fingerprint());
        result.source_tests += 1;
        result.compiled_tests += profiles.len();
        for (pi, compiler) in profiles.iter().enumerate() {
            tracer.set_item(Some((ti * profiles.len() + pi) as u32));
            let item = tracer.open();
            // The campaign's lead item warms the test's prepare and source
            // entries before its own run (source-leg-first scheduling).
            if pi == 0 && profiles.len() > 1 {
                let prepared = prepared(&cache, test, &config, &mut counts, tracer);
                let _ = source_leg(&cache, &setup, &prepared, &config, &mut counts, tracer);
            }
            let verdict = decide(
                &cache,
                &setup,
                test,
                compiler,
                &config,
                &mut counts,
                &mut distinct,
                tracer,
            );
            match verdict {
                Verdict::Error(ErrorKind::Exhausted) => counts.exhausted_items += 1,
                Verdict::Error(ErrorKind::Timeout) => counts.timeout_items += 1,
                _ => {}
            }
            let outcome = outcome_of(verdict, test, compiler);
            if let (Some(journal), Some(test_fp)) = (&setup.journal, test_fp) {
                let rec = ItemRecord {
                    key: ItemKey {
                        test: test_fp,
                        profile: profile_fps[pi],
                    },
                    arch: compiler.target.arch,
                    family: compiler.id.family,
                    opt: compiler.opt,
                    outcome: outcome.clone(),
                };
                tracer.span("journal.append", || journal.record(&rec));
            }
            apply(&mut result, compiler, outcome);
            items.push(Item {
                test: ti,
                profile: pi,
                verdict,
            });
            tracer.close(item, "item");
        }
    }
    tracer.set_item(None);
    if let Some(journal) = &setup.journal {
        tracer.span("journal.append", || {
            journal.seal(result.source_tests as u64, result.compiled_tests as u64)
        });
        result.journal = Some(journal.stats());
    }
    result.positive_tests.sort();
    result.cache = cache.stats();
    result.store = setup.store.as_ref().map(|s| s.stats());
    counts.s2l_distinct = distinct.len() as u64;
    tracer.close(root, "campaign");
    Ok(Pass {
        result,
        items,
        counts,
        tests: setup.tests,
        wall_s: started.elapsed().as_secs_f64(),
    })
}

fn prepared(
    cache: &SimCache,
    test: &LitmusTest,
    config: &telechat::PipelineConfig,
    counts: &mut Counts,
    tracer: &mut Tracer,
) -> Arc<telechat::PreparedSource> {
    let before = cache.stats();
    let open = tracer.open();
    let prepared = cache.prepared(test, config.augment);
    let computed = cache.stats().prepare_misses > before.prepare_misses;
    counts.l2c_calls += u64::from(computed);
    tracer.close(open, if computed { "l2c" } else { "cache" });
    prepared
}

fn source_leg(
    cache: &SimCache,
    setup: &crate::workload::Setup,
    prepared: &telechat::PreparedSource,
    config: &telechat::PipelineConfig,
    counts: &mut Counts,
    tracer: &mut Tracer,
) -> Result<telechat::SourceLeg> {
    let before = cache.stats();
    let open = tracer.open();
    let leg = cache.source_leg(prepared, &setup.source_model, &config.sim);
    let layer = leg_layer(&before, &cache.stats(), true);
    tracer.close(open, layer);
    if layer == "exec" {
        counts.source_sims += 1;
        if let Ok(leg) = &leg {
            counts.candidates += leg.result.candidates;
            counts.pruned += leg.result.pruned_candidates;
        }
    }
    leg
}

/// One `Telechat::run`, call by call.
#[allow(clippy::too_many_arguments)]
fn decide(
    cache: &SimCache,
    setup: &crate::workload::Setup,
    test: &LitmusTest,
    compiler: &Compiler,
    config: &telechat::PipelineConfig,
    counts: &mut Counts,
    distinct: &mut BTreeSet<u128>,
    tracer: &mut Tracer,
) -> Verdict {
    let prepared = prepared(cache, test, config, counts, tracer);
    counts.compiler_calls += 1;
    let compiled = match tracer.span("compiler", || compiler.compile(&prepared.test)) {
        Ok(c) => c,
        Err(e) => {
            counts.compiler_errors += 1;
            return Verdict::of_error(&e, ErrorKind::Compile);
        }
    };
    counts.s2l_calls += 1;
    let extracted = tracer.span("s2l", || {
        let mapping = StateMapping::build(
            prepared.observed_keys.iter().cloned(),
            &prepared.augmented,
            &compiled.reg_map,
        );
        let name = format!("{}.{}", compiled.profile, test.name);
        object_to_litmus(
            &compiled.object,
            &name,
            &test.condition,
            &test.observed,
            &mapping,
            S2lOptions {
                optimise: config.optimise,
            },
        )
        .map(|(_, litmus)| (mapping, litmus))
    });
    let (mapping, target) = match extracted {
        Ok(x) => x,
        Err(e) => return Verdict::of_error(&e, ErrorKind::Extract),
    };
    distinct.insert(target.fingerprint());
    let source = match source_leg(cache, setup, &prepared, config, counts, tracer) {
        Ok(leg) => leg,
        Err(e) => return Verdict::of_error(&e, ErrorKind::Other),
    };
    let model = match tracer.span("cat.lookup", || setup.registry.for_arch(target.arch)) {
        Ok(m) => m,
        Err(e) => return Verdict::of_error(&e, ErrorKind::Other),
    };
    let before = cache.stats();
    let open = tracer.open();
    let leg = cache.target_leg(&target, &model, &config.sim);
    let layer = leg_layer(&before, &cache.stats(), false);
    tracer.close(open, layer);
    if layer == "exec" {
        counts.target_sims += 1;
        if let Ok(r) = &leg {
            counts.candidates += r.candidates;
            counts.pruned += r.pruned_candidates;
        }
    }
    let target_result = match leg {
        Ok(r) => r,
        Err(e) => return Verdict::of_error(&e, ErrorKind::Other),
    };
    counts.mcompare_calls += 1;
    let cmp = tracer.span("mcompare", || {
        mcompare_shared(&source.observables, &target_result.outcomes, &mapping)
    });
    Verdict::of_legs(
        &source.result,
        &target_result,
        !cmp.positive.is_empty(),
        !cmp.negative.is_empty(),
    )
}

/// How a verdict bins into a campaign cell.
pub fn outcome_of(verdict: Verdict, test: &LitmusTest, compiler: &Compiler) -> ItemOutcome {
    match verdict {
        Verdict::Pass => ItemOutcome::Pass,
        Verdict::Negative => ItemOutcome::Negative,
        Verdict::Positive => ItemOutcome::Positive {
            test: test.name.clone(),
            profile: compiler.profile_name(),
        },
        Verdict::Crashed => ItemOutcome::Crashed,
        Verdict::Racy => ItemOutcome::Racy,
        Verdict::Error(_) => ItemOutcome::Error,
    }
}

fn apply(result: &mut CampaignResult, compiler: &Compiler, outcome: ItemOutcome) {
    let key = (compiler.target.arch, compiler.id.family, compiler.opt);
    let cell = result.cells.entry(key).or_default();
    match outcome {
        ItemOutcome::Pass => cell.pass += 1,
        ItemOutcome::Negative => cell.negative += 1,
        ItemOutcome::Positive { test, profile } => {
            cell.positive += 1;
            result.positive_tests.push((test, profile));
        }
        ItemOutcome::Crashed => cell.crashed += 1,
        ItemOutcome::Racy => cell.racy += 1,
        ItemOutcome::Error => cell.errors += 1,
    }
}
