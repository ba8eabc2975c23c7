//! The large-scale differential-testing campaign driver (paper §IV-D,
//! Tables III/IV): run a test suite through many compiler profiles in
//! parallel and tabulate positive/negative differences.
//!
//! Tests come from a [`TestSource`] — a streaming supplier that unifies
//! fixed suites (slices, `Vec`s), `telechat_diy::Config` sweeps (via their
//! iterators) and generative fuzz streams (`telechat-fuzz`), so a campaign
//! can consume an unbounded generator without materialising it first.

use crate::cache::{lock_unpoisoned, CacheStats, SimCache};
use crate::journal::{CampaignJournal, ItemKey, ItemOutcome, ItemRecord, JournalStats, ShardSpec};
use crate::persist::PersistStore;
use crate::pipeline::{PipelineConfig, Telechat, TestReport, TestScope, TestVerdict};
use std::collections::BTreeMap;
use std::fmt;
use std::sync::{Arc, Mutex};
use std::time::Duration;
use telechat_common::{fnv1a64, Arch, Error, Result};
use telechat_compiler::{Compiler, CompilerFamily, CompilerId, OptLevel, Target};
use telechat_litmus::LitmusTest;

/// A streaming supplier of litmus tests for a campaign.
///
/// The campaign driver pulls tests one at a time (under a lock, in a fixed
/// order), so a source's output — and therefore the whole campaign result —
/// is independent of how many worker threads consume it. Any
/// `Iterator<Item = LitmusTest>` that is `Send` is a source, which covers
/// fixed suites (`suite.iter().cloned()`), `Config::generate().into_iter()`
/// sweeps and the `telechat-fuzz` generators.
pub trait TestSource: Send {
    /// The next test, or `None` when the stream is exhausted.
    fn next_test(&mut self) -> Option<LitmusTest>;
}

impl<I> TestSource for I
where
    I: Iterator<Item = LitmusTest> + Send,
{
    fn next_test(&mut self) -> Option<LitmusTest> {
        self.next()
    }
}

/// What to sweep (paper Table III: constructs × compiler × flags × arch).
#[derive(Debug, Clone)]
pub struct CampaignSpec {
    /// Compilers under test.
    pub compilers: Vec<CompilerId>,
    /// Optimisation levels (unsupported family/level pairs are skipped,
    /// like clang `-Og` in Table IV).
    pub opts: Vec<OptLevel>,
    /// Targets.
    pub targets: Vec<Target>,
    /// Source model name (`rc11`, or `rc11-lb` for the no-LB rerun).
    pub source_model: String,
    /// Campaign worker threads. Tests are spread over these, and a worker
    /// runs every profile of the test it pulled. This is the only parallel
    /// layer: each simulation runs on the worker that asked for it.
    pub threads: usize,
    /// Enable the campaign-scale sharing layer ([`SimCache`]): the source
    /// leg of each test simulates once per campaign instead of once per
    /// profile, identical extracted code collapses to one target
    /// simulation, and `l2c::prepare` runs once per test. Results are
    /// cache-invariant — cells, positive list and accounting are
    /// byte-identical to the uncached driver (pinned by
    /// `tests/campaign_cache.rs`); [`CampaignResult::cache`] reports the
    /// traffic.
    pub cache: bool,
    /// Optional persistent store ([`crate::persist`]) attached under the
    /// sharing layer as a write-through tier: legs computed by this
    /// campaign are logged to disk, and a warm rerun (same process or not)
    /// answers them from the log instead of simulating. Implies `cache`.
    /// Store contents never change results — a store-backed campaign is
    /// byte-identical to the uncached driver, including after crashes and
    /// log corruption (recovery drops damaged records, which simply
    /// recompute).
    pub store: Option<Arc<PersistStore>>,
    /// Collect telemetry ([`telechat_obs`]): a span trace of the whole
    /// campaign plus the unified metrics registry, snapshotted into
    /// [`CampaignResult::obs`]. Off (the default) is a true no-op — one
    /// relaxed flag load per instrumentation point — and never changes
    /// results either way; the deterministic (`count`-class) metric totals
    /// are themselves byte-identical across worker counts, cache on/off
    /// and store warm/cold.
    pub metrics: bool,
    /// Optional work-item completion journal ([`crate::journal`]): every
    /// finished `(test, profile)` item is logged, completed items replay
    /// from the log on a rerun instead of recomputing, and the final
    /// result is byte-identical to an uninterrupted run — a killed
    /// campaign resumes where it died. The journal must have been opened
    /// under this campaign's fingerprint and `shard`.
    pub journal: Option<Arc<CampaignJournal>>,
    /// Run only one hash-partition of the work-item space
    /// ([`ItemKey::shard`]): shard `i/N` campaigns on N machines cover the
    /// space exactly once, and [`crate::journal::merge_journals`] folds
    /// their journals back into the unsharded result. `None` (or `0/1`)
    /// runs everything. Accounting totals (`source_tests`,
    /// `compiled_tests`) still describe the full stream — cells hold only
    /// this shard's items.
    pub shard: Option<ShardSpec>,
}

impl Default for CampaignSpec {
    /// An empty sweep with the production defaults: sharing layer on, no
    /// store/journal/shard, single worker.
    fn default() -> CampaignSpec {
        CampaignSpec {
            compilers: Vec::new(),
            opts: Vec::new(),
            targets: Vec::new(),
            source_model: "rc11".into(),
            threads: 1,
            cache: true,
            store: None,
            metrics: false,
            journal: None,
            shard: None,
        }
    }
}

impl CampaignSpec {
    /// The paper's Table IV sweep over the six architectures, with the
    /// artefact's compilers.
    pub fn table_iv(source_model: &str) -> CampaignSpec {
        CampaignSpec {
            compilers: vec![CompilerId::llvm(11), CompilerId::gcc(10)],
            opts: OptLevel::CAMPAIGN.to_vec(),
            targets: Arch::TARGETS.iter().map(|&a| Target::new(a)).collect(),
            source_model: source_model.to_string(),
            threads: std::thread::available_parallelism()
                .map(|n| n.get())
                .unwrap_or(4),
            ..CampaignSpec::default()
        }
    }

    /// The applicable compiler profiles, in sweep order (targets ×
    /// compilers × opts, unsupported family/level pairs skipped). This
    /// order defines the work-item space — the campaign driver, the
    /// campaign fingerprint and the shard partition all derive from it.
    pub fn profiles(&self) -> Vec<Compiler> {
        let mut profiles = Vec::new();
        for target in &self.targets {
            for id in &self.compilers {
                for &opt in &self.opts {
                    if opt.supported_by(id.family) {
                        profiles.push(Compiler::new(*id, opt, *target));
                    }
                }
            }
        }
        profiles
    }
}

/// One cell of the campaign table: a (target, family, level) combination.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct CampaignCell {
    /// Tests with positive differences (`+ve`).
    pub positive: usize,
    /// Tests with negative differences (`-ve`).
    pub negative: usize,
    /// Exact-match passes.
    pub pass: usize,
    /// Run-time crashes.
    pub crashed: usize,
    /// Racy sources, discounted.
    pub racy: usize,
    /// Pipeline errors (timeouts, unsupported constructs).
    pub errors: usize,
}

impl CampaignCell {
    /// Total tests binned into this cell.
    pub fn total(&self) -> usize {
        self.positive + self.negative + self.pass + self.crashed + self.racy + self.errors
    }
}

/// Aggregated campaign results.
#[derive(Debug, Clone, Default)]
pub struct CampaignResult {
    /// Cells keyed by (architecture, compiler family, optimisation level).
    pub cells: BTreeMap<(Arch, CompilerFamily, OptLevel), CampaignCell>,
    /// Number of source tests.
    pub source_tests: usize,
    /// Number of compiled tests produced (tests × applicable profiles).
    pub compiled_tests: usize,
    /// `(test name, compiler profile)` of every positive difference, sorted
    /// — the work-list a fuzzing campaign hands to the minimizer.
    pub positive_tests: Vec<(String, String)>,
    /// Sharing-layer traffic (all zero for an uncached campaign). Every
    /// counter is a pure function of the work list — independent of worker
    /// count and scheduling — because the cache computes each distinct key
    /// exactly once.
    pub cache: CacheStats,
    /// Persistent-store traffic, when a store was attached.
    pub store: Option<crate::persist::StoreStats>,
    /// Work-item journal traffic, when a journal was attached: recovered/
    /// replayed/appended item counts and the degraded-mode flags.
    pub journal: Option<JournalStats>,
    /// The telemetry snapshot, when [`CampaignSpec::metrics`] was set:
    /// counters, per-phase wall time and the normalised span trace.
    pub obs: Option<telechat_obs::ObsReport>,
}

impl CampaignResult {
    /// Sum of positive differences across all cells.
    pub fn total_positive(&self) -> usize {
        self.cells.values().map(|c| c.positive).sum()
    }

    /// Sum of negative differences across all cells.
    pub fn total_negative(&self) -> usize {
        self.cells.values().map(|c| c.negative).sum()
    }

    /// The cell for a combination, if populated.
    pub fn cell(&self, arch: Arch, family: CompilerFamily, opt: OptLevel) -> Option<&CampaignCell> {
        self.cells.get(&(arch, family, opt))
    }

    /// Every metric row of this campaign — telemetry counters and phase
    /// times (when collected), cache traffic, store traffic and derived
    /// rates — in the one shape [`telechat_obs::render_metrics`] renders.
    /// Rows tagged `count` are deterministic: byte-identical across worker
    /// counts, cache on/off and store warm/cold; `sched`/`proc`/`time`/
    /// `rate` rows are honest about depending on scheduling, process
    /// history or the clock.
    pub fn metric_rows(&self) -> Vec<telechat_obs::MetricRow> {
        use telechat_obs::MetricRow;
        let count = |name: &str, value: u64| MetricRow {
            kind: "count",
            name: name.to_string(),
            value: value.to_string(),
        };
        let rate = |name: &str, value: String| MetricRow {
            kind: "rate",
            name: name.to_string(),
            value,
        };
        let ratio = |part: u64, whole: u64| {
            if whole == 0 {
                "-".to_string()
            } else {
                format!("{:.1}%", part as f64 * 100.0 / whole as f64)
            }
        };

        let mut rows = Vec::new();
        if let Some(obs) = &self.obs {
            rows.extend(obs.rows());
            if let (Some(pruned), Some(cand)) = (
                obs.counter("sim.pruned_candidates"),
                obs.counter("sim.candidates"),
            ) {
                rows.push(rate("sim.prune_ratio", ratio(pruned, cand)));
            }
            let campaign_ns = obs.phase_ns("campaign");
            if campaign_ns > 0 {
                let per_s = self.compiled_tests as f64 / (campaign_ns as f64 / 1e9);
                rows.push(rate("campaign.tests_per_s", format!("{per_s:.1}")));
            }
        }
        if self.cache.any() {
            let c = &self.cache;
            rows.push(count("cache.prepare.hits", c.prepare_hits));
            rows.push(count("cache.prepare.misses", c.prepare_misses));
            rows.push(count("cache.source.hits", c.source_hits));
            rows.push(count("cache.source.misses", c.source_misses));
            rows.push(count("cache.target.hits", c.target_hits));
            rows.push(count("cache.target.misses", c.target_misses));
            if c.disk_hits > 0 || c.disk_writes > 0 {
                rows.push(count("cache.disk.hits", c.disk_hits));
                rows.push(count("cache.disk.writes", c.disk_writes));
            }
            rows.push(rate(
                "cache.source.hit_rate",
                ratio(c.source_hits, c.source_hits + c.source_misses),
            ));
            rows.push(rate(
                "cache.target.hit_rate",
                ratio(c.target_hits, c.target_hits + c.target_misses),
            ));
        }
        if let Some(s) = &self.store {
            rows.push(count("store.recovered", s.recovered));
            rows.push(count("store.appends", s.appends));
            rows.push(count("store.write_errors", s.write_errors));
            if s.dropped_bytes > 0 {
                rows.push(count("store.dropped_bytes", s.dropped_bytes));
            }
            if s.reset {
                rows.push(count("store.reset", 1));
            }
            if s.read_only {
                rows.push(count("store.read_only", 1));
            }
        }
        if let Some(j) = &self.journal {
            rows.push(count("journal.recovered", j.recovered));
            rows.push(count("journal.replayed", j.replayed));
            rows.push(count("journal.appends", j.appends));
            rows.push(count("journal.write_errors", j.write_errors));
            if j.dropped_bytes > 0 {
                rows.push(count("journal.dropped_bytes", j.dropped_bytes));
            }
            if j.reset {
                rows.push(count("journal.reset", 1));
            }
            if j.read_only {
                rows.push(count("journal.read_only", 1));
            }
        }
        rows
    }
}

impl fmt::Display for CampaignResult {
    /// Renders the Table IV layout: one row pair (+ve / -ve) per
    /// architecture, `clang/gcc` columns per optimisation level.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let opts = [
            OptLevel::O1,
            OptLevel::O2,
            OptLevel::O3,
            OptLevel::Ofast,
            OptLevel::Og,
        ];
        writeln!(
            f,
            "{:22} {:>13} {:>13} {:>13} {:>13} {:>13}",
            "", "-O1", "-O2", "-O3", "-Ofast", "-Og"
        )?;
        let archs: Vec<Arch> = {
            let mut seen = Vec::new();
            for (a, _, _) in self.cells.keys() {
                if !seen.contains(a) {
                    seen.push(*a);
                }
            }
            seen
        };
        for arch in archs {
            writeln!(f, "{arch} clang/gcc")?;
            for (label, pick) in [("+ve", 0usize), ("-ve", 1usize)] {
                write!(f, "  {label:20}")?;
                for opt in opts {
                    let get = |fam| {
                        self.cell(arch, fam, opt).map(|c| {
                            if pick == 0 {
                                c.positive
                            } else {
                                c.negative
                            }
                        })
                    };
                    let clang = get(CompilerFamily::Llvm)
                        .map(|v| v.to_string())
                        .unwrap_or_else(|| "-".into());
                    let gcc = get(CompilerFamily::Gcc)
                        .map(|v| v.to_string())
                        .unwrap_or_else(|| "-".into());
                    write!(f, " {:>13}", format!("{clang}/{gcc}"))?;
                }
                writeln!(f)?;
            }
        }
        writeln!(
            f,
            "total: {} source tests, {} compiled tests, {} +ve, {} -ve",
            self.source_tests,
            self.compiled_tests,
            self.total_positive(),
            self.total_negative()
        )?;
        // One renderer for every stat family (cache, store, telemetry) —
        // previously cache and store printed two ad-hoc formats.
        let rows = self.metric_rows();
        if !rows.is_empty() {
            writeln!(f, "metrics:")?;
            write!(f, "{}", telechat_obs::render_metrics(&rows))?;
        }
        Ok(())
    }
}

/// Runs the campaign over a fixed suite: every test × every applicable
/// profile, in parallel. Convenience wrapper over [`run_campaign_source`].
///
/// # Errors
///
/// Fails only on configuration errors (unknown source model); per-test
/// failures are counted in the cells' `errors`.
pub fn run_campaign(
    tests: &[LitmusTest],
    spec: &CampaignSpec,
    config: &PipelineConfig,
) -> Result<CampaignResult> {
    run_campaign_source(&mut tests.iter().cloned(), spec, config)
}

/// Runs the campaign over a streaming [`TestSource`]: every supplied test ×
/// every applicable profile, on `spec.threads` workers. A worker pulls one
/// test and runs each of its pending profiles in profile order, one
/// `(test, profile)` work item at a time, each behind its own
/// failure-isolation boundary. Tests, not items, are spread over the
/// workers, so a campaign with fewer tests than workers leaves the rest
/// idle.
///
/// The result is byte-identical for every worker count and for cache
/// on/off: tests are pulled from the source in a fixed order, cells
/// aggregate by profile key, the positive-difference list is sorted before
/// returning, and cached legs replay deterministic results (and errors).
///
/// # Errors
///
/// Fails only on configuration errors (unknown source model); per-test
/// failures are counted in the cells' `errors`.
pub fn run_campaign_source(
    source: &mut dyn TestSource,
    spec: &CampaignSpec,
    config: &PipelineConfig,
) -> Result<CampaignResult> {
    let deadline = config.sim.deadline;
    // Shard/journal sanity before any telemetry or model loading: a journal
    // opened for a different shard must never replay into this campaign.
    let shard = spec.shard.unwrap_or_else(ShardSpec::whole).checked()?;
    if let Some(journal) = &spec.journal {
        if journal.shard() != shard {
            return Err(Error::Journal(format!(
                "journal records shard {}, campaign runs shard {shard}",
                journal.shard()
            )));
        }
    }
    // Arm telemetry before anything that loads models or probes the store,
    // so the whole campaign lands inside the window.
    if spec.metrics {
        telechat_obs::begin();
    }
    let cache = (spec.cache || spec.store.is_some()).then(|| {
        let mut cache = SimCache::new();
        if let Some(store) = &spec.store {
            cache = cache.with_store(store.clone());
        }
        Arc::new(cache)
    });
    let tool = {
        let tool = match Telechat::with_config(&spec.source_model, config.clone()) {
            Ok(tool) => tool,
            Err(e) => {
                // Disarm on the configuration-error path, or the window
                // would leak into the caller's next campaign.
                if spec.metrics {
                    let _ = telechat_obs::finish();
                }
                return Err(e);
            }
        };
        match &cache {
            Some(c) => tool.with_cache(c.clone()),
            None => tool,
        }
    };

    // Applicable compiler profiles; each test runs under all of them. The
    // per-profile identity (name fingerprint = journal key half + shard
    // partition input) is computed once up front.
    let profiles = spec.profiles();
    let profile_fps: Vec<u64> = profiles
        .iter()
        .map(|c| crate::journal::profile_fingerprint(&c.profile_name()))
        .collect();

    // No applicable profile (e.g. an -Og-only sweep over clang): nothing
    // to run. Return before touching the source — draining it would spin
    // forever on an unbounded generator.
    if profiles.is_empty() {
        let mut empty = CampaignResult::default();
        if spec.metrics {
            empty.obs = Some(telechat_obs::finish());
        }
        return Ok(empty);
    }

    let result = Mutex::new(CampaignResult::default());
    // Coverage: distinct source-outcome-set fingerprints seen across the
    // campaign (the precursor to observation-equivalence dedup). A set of
    // hashes, so the final cardinality is a pure function of the work
    // list — byte-identical across thread counts, cache and store.
    let outcome_sets: Mutex<std::collections::BTreeSet<u64>> =
        Mutex::new(std::collections::BTreeSet::new());
    let source = Mutex::new(source);

    // The root span of the trace; workers re-parent themselves under it so
    // every work item nests below "campaign" whichever thread ran it.
    let root_span = telechat_obs::span("campaign");
    let root_ref = telechat_obs::current();

    std::thread::scope(|threads| {
        for _ in 0..spec.threads.max(1) {
            threads.spawn(|| {
                let _trace = telechat_obs::adopt(root_ref);
                loop {
                    // Bound before matching, so the source lock is released
                    // before the test runs.
                    let next = lock_unpoisoned(&source).next_test();
                    let Some(test) = next else {
                        return;
                    };
                    telechat_obs::add(telechat_obs::Counter::CampaignTests, 1);
                    let scope = Arc::new(TestScope::new(test));
                    // Which profiles still need computing: sharded-out items
                    // belong to another shard and are skipped; journaled
                    // items replay their recorded outcome now.
                    let tfp =
                        (spec.journal.is_some() || !shard.is_whole()).then(|| scope.fingerprint());
                    let mut pending = Vec::with_capacity(profiles.len());
                    let mut replays = Vec::new();
                    for (p, pfp) in profile_fps.iter().enumerate() {
                        if let Some(t) = tfp {
                            let key = ItemKey {
                                test: t,
                                profile: *pfp,
                            };
                            if key.shard(shard.count) != shard.index {
                                continue;
                            }
                            if let Some(rec) = spec.journal.as_ref().and_then(|j| j.replay(&key)) {
                                replays.push(rec);
                                continue;
                            }
                        }
                        pending.push(p);
                    }
                    {
                        let mut res = lock_unpoisoned(&result);
                        // Accounting totals describe the full stream even
                        // for a shard campaign.
                        res.source_tests += 1;
                        res.compiled_tests += profiles.len();
                        for rec in replays {
                            telechat_obs::add(telechat_obs::Counter::CampaignResumed, 1);
                            apply_outcome(&mut res, (rec.arch, rec.family, rec.opt), rec.outcome);
                        }
                    }
                    let test = scope.test();
                    let warm_up = cache.is_some() && pending.len() > 1;
                    let mut covered = false;
                    for (i, p) in pending.into_iter().enumerate() {
                        let compiler = &profiles[p];
                        telechat_obs::add(telechat_obs::Counter::CampaignWorkItems, 1);
                        let _span = telechat_obs::span_with(telechat_obs::WORK_ITEM, || {
                            format!("{}:{}", test.name, compiler.profile_name())
                        });
                        if warm_up && i == 0 {
                            // Simulate the source leg ahead of the first
                            // item. Its cache traffic (one more prepare and
                            // source probe per test) is part of
                            // `CacheStats`, which perfbench's item-by-item
                            // pass reproduces. A simulation error is cached
                            // and replays in the item run, so it is ignored
                            // here. Panics are contained (the gate poisons,
                            // and the item run below recomputes the leg) — a
                            // warm-up must never take down the worker.
                            let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                                let _span = telechat_obs::span("warm-up");
                                tool.simulate_source_in(&scope)
                            }));
                        }
                        let key = (compiler.target.arch, compiler.id.family, compiler.opt);
                        let outcome = run_isolated(&tool, &scope, compiler, deadline);
                        match &outcome {
                            Err(Error::Deadline { .. }) => {
                                telechat_obs::add(telechat_obs::Counter::CampaignDeadlineKills, 1);
                            }
                            Err(Error::Panicked(_)) => {
                                telechat_obs::add(telechat_obs::Counter::CampaignPanics, 1);
                            }
                            _ => {}
                        }
                        // Bin the outcome. Every error — fault or
                        // deterministic — is an error cell, but only
                        // non-fault completions are durable: fault-class
                        // failures are never journaled, so a resumed
                        // campaign recomputes them and a transient
                        // infrastructure fault heals instead of replaying.
                        let binned = match &outcome {
                            Ok(report) => match report.verdict {
                                TestVerdict::Pass => ItemOutcome::Pass,
                                TestVerdict::NegativeDifference => ItemOutcome::Negative,
                                TestVerdict::PositiveDifference => ItemOutcome::Positive {
                                    test: test.name.clone(),
                                    profile: compiler.profile_name(),
                                },
                                TestVerdict::RuntimeCrash => ItemOutcome::Crashed,
                                TestVerdict::SourceRace => ItemOutcome::Racy,
                            },
                            Err(_) => ItemOutcome::Error,
                        };
                        let durable = !outcome.as_ref().is_err_and(Error::is_fault);
                        // Every report of a test carries the same source
                        // outcome set: hash it once per test.
                        if spec.metrics && !covered {
                            if let Ok(report) = &outcome {
                                covered = true;
                                let h = fnv1a64(0, report.source_outcomes.to_string().as_bytes());
                                lock_unpoisoned(&outcome_sets).insert(h);
                            }
                        }
                        {
                            let mut res = lock_unpoisoned(&result);
                            if matches!(binned, ItemOutcome::Positive { .. }) {
                                telechat_obs::add(telechat_obs::Counter::CampaignPositives, 1);
                            }
                            apply_outcome(&mut res, key, binned.clone());
                        }
                        if durable {
                            if let Some(journal) = &spec.journal {
                                journal.record(&ItemRecord {
                                    key: ItemKey {
                                        test: scope.fingerprint(),
                                        profile: profile_fps[p],
                                    },
                                    arch: key.0,
                                    family: key.1,
                                    opt: key.2,
                                    outcome: binned,
                                });
                            }
                        }
                    }
                }
            });
        }
    });

    let mut result = result.into_inner().unwrap_or_else(|e| e.into_inner());
    result.positive_tests.sort();
    if let Some(cache) = &cache {
        result.cache = cache.stats();
    }
    result.store = spec.store.as_ref().map(|s| s.stats());
    if let Some(journal) = &spec.journal {
        // Seal with the full-stream totals: the summary is what `merge`
        // and resumed runs validate against, and sealing is idempotent so
        // a resume of a completed campaign does not grow the log.
        journal.seal(result.source_tests as u64, result.compiled_tests as u64);
        result.journal = Some(journal.stats());
    }
    // Close the root span before snapshotting, so its duration (and the
    // main thread's buffered spans) land in the report.
    drop(root_span);
    if spec.metrics {
        let seen = outcome_sets.into_inner().unwrap_or_else(|e| e.into_inner());
        telechat_obs::add_labelled("coverage.source_outcome_sets", seen.len() as u64);
        result.obs = Some(telechat_obs::finish());
    }
    Ok(result)
}

/// Folds one binned work-item outcome into a result's cells — the one
/// aggregation the live driver, the journal replay path and the shard
/// merge all share, so the three can never drift apart.
pub(crate) fn apply_outcome(
    res: &mut CampaignResult,
    key: (Arch, CompilerFamily, OptLevel),
    outcome: ItemOutcome,
) {
    let cell = res.cells.entry(key).or_default();
    match outcome {
        ItemOutcome::Pass => cell.pass += 1,
        ItemOutcome::Negative => cell.negative += 1,
        ItemOutcome::Positive { test, profile } => {
            cell.positive += 1;
            res.positive_tests.push((test, profile));
        }
        ItemOutcome::Crashed => cell.crashed += 1,
        ItemOutcome::Racy => cell.racy += 1,
        ItemOutcome::Error => cell.errors += 1,
    }
}

/// Runs one work item behind the failure-isolation boundary: a panic
/// anywhere in the pipeline is caught and becomes [`Error::Panicked`], and
/// when a wall-clock deadline is configured ([`telechat_exec::SimConfig::deadline`])
/// the item runs on a watchdog thread and is abandoned — as
/// [`Error::Deadline`] — if it overruns. Either way the rest of the
/// campaign completes; the faulted item is a typed error cell.
fn run_isolated(
    tool: &Telechat,
    scope: &Arc<TestScope>,
    compiler: &Compiler,
    deadline: Option<Duration>,
) -> Result<TestReport> {
    let Some(limit) = deadline else {
        return catch_run(tool, scope, compiler);
    };
    let (done, took) = std::sync::mpsc::channel();
    let watched = {
        let tool = tool.clone();
        let scope = scope.clone();
        let compiler = *compiler;
        // The watchdog thread re-parents under the caller's work-item
        // span, so leg spans stay nested even when the item is watched.
        let parent = telechat_obs::current();
        std::thread::spawn(move || {
            let _trace = telechat_obs::adopt(parent);
            let _ = done.send(catch_run(&tool, &scope, &compiler));
        })
    };
    match took.recv_timeout(limit) {
        Ok(outcome) => {
            let _ = watched.join();
            outcome
        }
        // Abandon the stalled thread: it holds only `Arc`s and will exit
        // harmlessly whenever (if ever) the stall clears — in particular
        // it still publishes its cache gate then, so waiters never hang.
        Err(_) => Err(Error::Deadline {
            limit_ms: u64::try_from(limit.as_millis()).unwrap_or(u64::MAX),
        }),
    }
}

/// `tool.run_in` with panics converted to [`Error::Panicked`].
fn catch_run(tool: &Telechat, scope: &TestScope, compiler: &Compiler) -> Result<TestReport> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        tool.run_in(scope, compiler)
    }))
    .unwrap_or_else(|panic| Err(Error::Panicked(panic_message(panic.as_ref()))))
}

/// Best-effort extraction of a panic payload's message.
fn panic_message(panic: &(dyn std::any::Any + Send)) -> String {
    if let Some(s) = panic.downcast_ref::<&str>() {
        (*s).to_string()
    } else if let Some(s) = panic.downcast_ref::<String>() {
        s.clone()
    } else {
        "opaque panic payload".to_string()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// Every derived `rate` row must render "-" — never NaN/inf, never a
    /// panic — when its denominator window is zero: a sub-millisecond
    /// campaign with no candidates, or a cache touched only on a layer
    /// whose hit-rate denominator stays empty.
    #[test]
    fn rate_rows_guard_zero_denominators() {
        let mut obs = telechat_obs::ObsReport::default();
        obs.push_counter(
            "sim.pruned_candidates",
            telechat_obs::Class::Deterministic,
            0,
        );
        obs.push_counter("sim.candidates", telechat_obs::Class::Deterministic, 0);
        let mut result = CampaignResult {
            obs: Some(obs),
            compiled_tests: 4,
            ..CampaignResult::default()
        };
        // Only the prepare layer was touched: `any()` renders the cache
        // block while the source/target hit-rate denominators are zero.
        result.cache.prepare_hits = 1;

        let rows = result.metric_rows();
        let rate = |name: &str| {
            rows.iter()
                .find(|r| r.kind == "rate" && r.name == name)
                .map(|r| r.value.clone())
        };
        assert_eq!(rate("sim.prune_ratio").as_deref(), Some("-"));
        assert_eq!(rate("cache.source.hit_rate").as_deref(), Some("-"));
        assert_eq!(rate("cache.target.hit_rate").as_deref(), Some("-"));
        // A zero-length campaign phase suppresses tests/s entirely rather
        // than dividing by a zero-nanosecond window.
        assert_eq!(rate("campaign.tests_per_s"), None);
        for r in &rows {
            assert!(
                !r.value.contains("NaN") && !r.value.contains("inf"),
                "{}: {}",
                r.name,
                r.value
            );
        }
    }
}
