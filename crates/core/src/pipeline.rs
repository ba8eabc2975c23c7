//! The Téléchat test environment `exec_tv` (paper Fig. 5): generate →
//! prepare → compile → extract → simulate ×2 → compare.
//!
//! # Campaign-scale sharing
//!
//! A pipeline can carry a [`SimCache`] ([`Telechat::with_cache`]): the
//! prepare stage and both simulation legs are then served content-addressed
//! — the source leg runs once per test regardless of how many compiler
//! profiles consume it, and target legs collapse whenever different
//! profiles extract identical code. Source models resolve through the
//! process-wide `telechat_cat::ModelRegistry`, so each bundled `.cat`
//! program is parsed and staged once per process rather than once per
//! `Telechat`/run.
//!
//! # Per-test compile, extraction and comparison memos
//!
//! Every run goes through a [`TestScope`]: the test plus three memos. The
//! compile memo keys on the profile's [`Codegen`] (with the pipeline's
//! `augment`/`optimise` settings), so profiles that drive the same code
//! generation compile the test once. A compile that misses goes through
//! the extraction memo, keyed by the compiled object and register map, so
//! distinct code generations that still emit the same code share one
//! extraction. The comparison memo holds an item's **target half** — the
//! target leg, `mcompare` and the verdict — per extraction, models,
//! budget and cache, so profiles that share an extraction compare once.
//! The campaign driver shares one scope between all of a test's work
//! items; [`Telechat::run`] uses a fresh one per call.

use crate::cache::{
    lock_unpoisoned, model_fingerprint, sim_config_fingerprint, SimCache, SourceLeg,
};
use crate::fault::{self, FaultLeg};
use crate::l2c::{self, PreparedSource};
use crate::mapping::StateMapping;
use crate::mcompare::{mcompare_shared, SourceObservables};
use crate::s2l::{self, S2lOptions};
use std::collections::HashMap;
use std::fmt;
use std::sync::{Arc, Mutex, OnceLock};
use std::time::Duration;
use telechat_cat::{CatModel, ModelRegistry};
use telechat_common::{Error, OutcomeSet, Reg, Result, ThreadId};
use telechat_compiler::{Codegen, CompileOutput, Compiler};
use telechat_exec::{simulate, SimConfig, SimResult};
use telechat_isa::AsmTest;
use telechat_litmus::LitmusTest;
use telechat_objfile::ObjectFile;

/// Pipeline configuration.
#[derive(Debug, Clone)]
pub struct PipelineConfig {
    /// Persist condition-observed locals into globals (the §IV-B fix).
    pub augment: bool,
    /// Run the s2l litmus optimisation (§IV-E).
    pub optimise: bool,
    /// Simulation limits for both source and target runs.
    pub sim: SimConfig,
    /// Override the architecture model (e.g. `armv7-buggy` for the model
    /// bug study). `None` selects the target's default model.
    pub target_model: Option<String>,
}

impl Default for PipelineConfig {
    fn default() -> Self {
        PipelineConfig {
            augment: true,
            optimise: true,
            sim: SimConfig::default(),
            target_model: None,
        }
    }
}

/// Per-test verdict (the paper's §II-B responses, refined).
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum TestVerdict {
    /// Compiled outcomes ⊆ source outcomes, with equality.
    Pass,
    /// Compiled outcomes ⊂ source outcomes (optimisation/architecture
    /// strengthening — not a bug).
    NegativeDifference,
    /// Compiled outcomes ⊄ source outcomes — a candidate bug!
    PositiveDifference,
    /// An allowed execution of the compiled test writes to read-only
    /// memory: run-time crash (paper bug [36]).
    RuntimeCrash,
    /// The source program has a data race — undefined behaviour, so any
    /// compiled behaviour is permitted and the test is discounted
    /// ("we ignore false positives on that basis", §IV-D).
    SourceRace,
}

/// The full report for one test × one compiler profile.
#[derive(Debug, Clone)]
pub struct TestReport {
    /// Source test name.
    pub test_name: String,
    /// Compiler profile (`clang-11-O3-AArch64`).
    pub profile: String,
    /// The verdict.
    pub verdict: TestVerdict,
    /// Source-model outcomes. `Arc`-shared with the campaign cache (and
    /// with every other profile's report of the same test) rather than
    /// deep-copied per profile.
    pub source_outcomes: Arc<OutcomeSet>,
    /// Compiled-test outcomes, renamed into source observables. Like the
    /// two difference sets below, `Arc`-shared with every other profile's
    /// report of the same test that extracted the same code.
    pub target_outcomes: Arc<OutcomeSet>,
    /// The positive differences, if any.
    pub positive: Arc<OutcomeSet>,
    /// The negative differences, if any.
    pub negative: Arc<OutcomeSet>,
    /// Wall-clock time of the source simulation (of the original
    /// computation when the result was cache-shared).
    pub source_time: Duration,
    /// Wall-clock time of the compiled-test simulation — the number the
    /// paper's Claim 5 reports in milliseconds.
    pub target_time: Duration,
    /// The extracted assembly litmus test (for logs and figures), under
    /// this report's own `"{profile}.{test}"` name.
    pub asm_test: NamedAsm,
}

/// An extracted assembly test as one work item sees it: the item's own
/// `"{profile}.{test}"` name beside the test, which is shared with every
/// profile of the same test that extracted the same code. Prints (and
/// compares) under the item's name.
#[derive(Debug, Clone)]
pub struct NamedAsm {
    /// The work item's own name.
    pub name: String,
    /// The shared test. Its own `name` is that of the profile that
    /// extracted it first.
    pub code: Arc<AsmTest>,
}

impl PartialEq for NamedAsm {
    /// Equal item names and equal tests, the shared test's own name aside.
    fn eq(&self, other: &NamedAsm) -> bool {
        let AsmTest {
            name: _,
            locs,
            reg_init,
            threads,
            condition,
            observed,
        } = &*self.code;
        let theirs = &*other.code;
        self.name == other.name
            && *locs == theirs.locs
            && *reg_init == theirs.reg_init
            && *threads == theirs.threads
            && *condition == theirs.condition
            && *observed == theirs.observed
    }
}

impl Eq for NamedAsm {}

impl fmt::Display for NamedAsm {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.code.fmt_named(&self.name, f)
    }
}

/// One test's share of the pipeline, reused by every compiler profile the
/// test runs under: the test, its content fingerprint (rendered at most
/// once), and the **compile, extraction and comparison memos**.
///
/// With the test and the pipeline's `augment`/`optimise` settings fixed,
/// compile and extraction (`StateMapping::build` +
/// [`s2l::object_to_litmus`] + the target test's fingerprint) depend only
/// on the profile's [`Codegen`], and many profiles share one. The compile
/// memo holds one slot per `(Codegen, settings)`: a hit skips compile,
/// the object comparison and extraction. A miss compiles and looks the
/// `(object, reg_map)` pair up in the extraction memo, which compares by
/// equality, because different code generations often still emit the same
/// code. Either way an item shares the assembly test under its own
/// `"{profile}.{test}"` name. Compile and extraction errors are memoised
/// too: both are deterministic.
///
/// The comparison memo holds an item's target half: the target-leg
/// result, the comparison and the verdict. Besides the extraction (by
/// identity) these read only the target and source models, the
/// simulation budget and the pipeline's [`SimCache`] (by identity, or its
/// absence), which together are the key. A hit skips the target leg,
/// `mcompare` and the verdict and shares their outcome sets. Errors are
/// memoised like cached leg errors. A hit on a cached pipeline counts the
/// one target-leg cache hit its skipped probe would have counted. An
/// uncached item fires its target-leg fault hook before the memo is
/// consulted, so a fault armed on its name fires on a hit too.
///
/// A scope belongs to one test. It is per test rather than per campaign
/// because every hit comes from the same test's profiles, while a
/// campaign-wide memo would hold every test's entries until the campaign
/// ends. Pipelines with different settings, models or caches may share
/// it: all of those are part of the keys.
#[derive(Debug)]
pub struct TestScope {
    test: LitmusTest,
    fingerprint: OnceLock<u128>,
    compiled: Mutex<HashMap<(Codegen, Settings), Arc<Slot>>>,
    extracted: Mutex<Vec<Memoised>>,
    compared: Mutex<Vec<(HalfKey, Arc<HalfSlot>)>>,
}

/// The pipeline settings compile and extraction depend on besides the
/// code generation: `augment` selects the compiled test and the state
/// mapping, `optimise` the s2l pass.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
struct Settings {
    augment: bool,
    optimise: bool,
}

/// A compile-memo slot, filled by the first item of its key.
type Slot = OnceLock<Result<Arc<Extracted>>>;

/// One extraction-memo entry: the key, and the (possibly failed)
/// extraction.
#[derive(Debug)]
struct Memoised {
    settings: Settings,
    object: ObjectFile,
    reg_map: Vec<(ThreadId, Reg, Reg)>,
    extracted: Result<Arc<Extracted>>,
}

/// One distinct extraction. `asm` and `litmus` carry the name of the
/// profile that first extracted it; each item reports `asm` under its own
/// name and fires target faults with it.
#[derive(Debug)]
struct Extracted {
    mapping: StateMapping,
    asm: Arc<AsmTest>,
    litmus: LitmusTest,
    /// The target test's content fingerprint, rendered on the first
    /// cached target leg.
    fingerprint: OnceLock<u128>,
}

impl Extracted {
    fn fingerprint(&self) -> u128 {
        *self.fingerprint.get_or_init(|| self.litmus.fingerprint())
    }
}

/// A comparison-memo key: what an item's target half reads besides the
/// extraction's content. The extraction and the cache compare by
/// identity; the key holds both, so neither address can be reused while
/// the scope lives.
#[derive(Debug)]
struct HalfKey {
    extracted: Arc<Extracted>,
    target_model: u64,
    source_model: u64,
    config: u64,
    cache: Option<Arc<SimCache>>,
}

impl HalfKey {
    fn matches(&self, other: &HalfKey) -> bool {
        Arc::ptr_eq(&self.extracted, &other.extracted)
            && self.target_model == other.target_model
            && self.source_model == other.source_model
            && self.config == other.config
            && match (&self.cache, &other.cache) {
                (Some(a), Some(b)) => Arc::ptr_eq(a, b),
                (None, None) => true,
                _ => false,
            }
    }
}

/// A comparison-memo slot, filled by the first item of its key.
type HalfSlot = OnceLock<Result<Arc<TargetHalf>>>;

/// The target half of a work item: steps 4 and 5 of Fig. 5 and the
/// verdict.
#[derive(Debug)]
struct TargetHalf {
    result: Arc<SimResult>,
    target: Arc<OutcomeSet>,
    positive: Arc<OutcomeSet>,
    negative: Arc<OutcomeSet>,
    verdict: TestVerdict,
}

impl TestScope {
    /// A fresh scope for `test`, with empty memos.
    pub fn new(test: LitmusTest) -> TestScope {
        TestScope {
            test,
            fingerprint: OnceLock::new(),
            compiled: Mutex::new(HashMap::new()),
            extracted: Mutex::new(Vec::new()),
            compared: Mutex::new(Vec::new()),
        }
    }

    /// The test this scope belongs to.
    pub fn test(&self) -> &LitmusTest {
        &self.test
    }

    /// The test's canonical content fingerprint
    /// (`LitmusTest::fingerprint`), rendered on first use.
    pub fn fingerprint(&self) -> u128 {
        *self.fingerprint.get_or_init(|| self.test.fingerprint())
    }

    /// How many distinct `(Codegen, settings)` keys have been compiled.
    pub fn compiles(&self) -> usize {
        lock_unpoisoned(&self.compiled)
            .values()
            .filter(|slot| slot.get().is_some())
            .count()
    }

    /// How many distinct `(settings, object, reg_map)` keys have been
    /// extracted.
    pub fn extractions(&self) -> usize {
        lock_unpoisoned(&self.extracted).len()
    }

    /// How many distinct target halves have been compared: one per
    /// `(extraction, target model)` pair for a single pipeline, more when
    /// pipelines with different source models, budgets or caches share
    /// the scope.
    pub fn comparisons(&self) -> usize {
        lock_unpoisoned(&self.compared)
            .iter()
            .filter(|(_, slot)| matches!(slot.get(), Some(Ok(_))))
            .count()
    }

    /// The extraction for `key`, computed by `compile_and_extract` on the
    /// first request and shared after. The slot is taken under the scope
    /// lock and filled outside it, so each key is computed exactly once
    /// however many workers share the scope, and workers on different keys
    /// do not wait for each other.
    fn compiled(
        &self,
        key: (Codegen, Settings),
        compile_and_extract: impl FnOnce() -> Result<Arc<Extracted>>,
    ) -> Result<Arc<Extracted>> {
        let slot = lock_unpoisoned(&self.compiled)
            .entry(key)
            .or_default()
            .clone();
        slot.get_or_init(compile_and_extract).clone()
    }

    /// The extraction of `compiled` under `settings`, computed by
    /// `extract` on the first request for its `(object, reg_map)` and
    /// shared after. The lock is held while extracting, so each pair is
    /// extracted exactly once however many workers share the scope.
    fn extraction(
        &self,
        settings: Settings,
        compiled: CompileOutput,
        extract: impl FnOnce(&CompileOutput) -> Result<Extracted>,
    ) -> Result<Arc<Extracted>> {
        let mut memo = lock_unpoisoned(&self.extracted);
        if let Some(m) = memo.iter().find(|m| {
            m.settings == settings && m.reg_map == compiled.reg_map && m.object == compiled.object
        }) {
            return m.extracted.clone();
        }
        let extracted = extract(&compiled).map(Arc::new);
        telechat_obs::add(telechat_obs::Counter::S2lExtractions, 1);
        memo.push(Memoised {
            settings,
            object: compiled.object,
            reg_map: compiled.reg_map,
            extracted: extracted.clone(),
        });
        extracted
    }

    /// The target half for `key`, computed by `compare` on the first
    /// request and shared after; `true` beside it when this request did
    /// not compute it. Like the compile memo, the slot is taken under the
    /// scope lock and filled outside it, so each key is computed exactly
    /// once however many workers share the scope.
    fn compared(
        &self,
        key: HalfKey,
        compare: impl FnOnce() -> Result<Arc<TargetHalf>>,
    ) -> (Result<Arc<TargetHalf>>, bool) {
        let slot = {
            let mut memo = lock_unpoisoned(&self.compared);
            match memo.iter().find(|(k, _)| k.matches(&key)) {
                Some((_, slot)) => slot.clone(),
                None => {
                    let slot = Arc::new(OnceLock::new());
                    memo.push((key, slot.clone()));
                    slot
                }
            }
        };
        let mut computed = false;
        let half = slot
            .get_or_init(|| {
                computed = true;
                compare()
            })
            .clone();
        (half, !computed)
    }
}

/// Step 2 of Fig. 5: one real compile, timed by the `compile` span and
/// counted by `compiler.compiles`.
fn compile(codegen: &Codegen, test: &LitmusTest) -> Result<CompileOutput> {
    let _span = telechat_obs::span("compile");
    telechat_obs::add(telechat_obs::Counter::CompilerCompiles, 1);
    codegen.compile(test)
}

/// The Téléchat tool: a source model plus pipeline configuration.
///
/// ```no_run
/// use telechat::{Telechat, PipelineConfig};
/// use telechat_compiler::{Compiler, CompilerId, OptLevel, Target};
/// use telechat_litmus::parse_c11;
///
/// let tool = Telechat::new("rc11")?;
/// let test = parse_c11("...")?;
/// let cc = Compiler::new(CompilerId::llvm(11), OptLevel::O3, Target::armv81_lse());
/// let report = tool.run(&test, &cc)?;
/// # Ok::<(), telechat_common::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct Telechat {
    source_model: Arc<CatModel>,
    /// The pipeline configuration (public for tweaking between runs).
    pub config: PipelineConfig,
    /// The optional campaign-scale sharing layer.
    cache: Option<Arc<SimCache>>,
}

impl Telechat {
    /// A pipeline with the named source model and default configuration.
    ///
    /// # Errors
    ///
    /// Fails if the model is not bundled.
    pub fn new(source_model: &str) -> Result<Telechat> {
        Telechat::with_config(source_model, PipelineConfig::default())
    }

    /// A pipeline with explicit configuration.
    ///
    /// # Errors
    ///
    /// Fails if the model is not bundled.
    pub fn with_config(source_model: &str, config: PipelineConfig) -> Result<Telechat> {
        Ok(Telechat {
            source_model: ModelRegistry::global().bundled(source_model)?,
            config,
            cache: None,
        })
    }

    /// Attaches a simulation cache: subsequent runs share prepare and
    /// simulation legs with every other pipeline holding the same cache.
    #[must_use]
    pub fn with_cache(mut self, cache: Arc<SimCache>) -> Telechat {
        self.cache = Some(cache);
        self
    }

    /// The attached cache, if any.
    pub fn cache(&self) -> Option<&Arc<SimCache>> {
        self.cache.as_ref()
    }

    /// The source model in use.
    pub fn source_model(&self) -> &CatModel {
        &self.source_model
    }

    /// The prepared source for the scope's test under this pipeline's
    /// augmentation setting — served from the cache (once per distinct
    /// test content) when one is attached.
    fn prepare(&self, scope: &TestScope) -> Arc<PreparedSource> {
        match &self.cache {
            Some(cache) => {
                cache.prepared_keyed(scope.test(), scope.fingerprint(), self.config.augment)
            }
            None => Arc::new(l2c::prepare(scope.test(), self.config.augment)),
        }
    }

    /// The settings the scope's memos key on.
    fn settings(&self) -> Settings {
        Settings {
            augment: self.config.augment,
            optimise: self.config.optimise,
        }
    }

    /// The source leg for an already prepared test: simulation result plus
    /// the profile-invariant comparison half.
    fn source_leg(&self, prepared: &PreparedSource) -> Result<SourceLeg> {
        match &self.cache {
            Some(cache) => cache.source_leg(prepared, &self.source_model, &self.config.sim),
            None => {
                fault::fire(FaultLeg::Source, &prepared.test.name);
                let result = simulate(&prepared.test, &*self.source_model, &self.config.sim)?;
                Ok(SourceLeg {
                    observables: SourceObservables::of(&result.outcomes),
                    result: Arc::new(result),
                })
            }
        }
    }

    /// The architecture model for a target litmus test, honouring the
    /// `target_model` override — always resolved through the process-wide
    /// model registry.
    fn target_model(&self, target: &LitmusTest) -> Result<Arc<CatModel>> {
        match &self.config.target_model {
            Some(name) => ModelRegistry::global().bundled(name),
            None => ModelRegistry::global().for_arch(target.arch),
        }
    }

    /// The target leg: the extracted test simulated under `model`. A cache
    /// fires faults with the item's own derived `name`, not the memoised
    /// one; without a cache, [`Telechat::target_half`] has fired them.
    fn target_leg(
        &self,
        extracted: &Extracted,
        name: &str,
        model: &CatModel,
    ) -> Result<Arc<SimResult>> {
        match &self.cache {
            Some(cache) => cache.target_leg_keyed(
                &extracted.litmus,
                extracted.fingerprint(),
                name,
                model,
                &self.config.sim,
            ),
            None => Ok(Arc::new(simulate(
                &extracted.litmus,
                model,
                &self.config.sim,
            )?)),
        }
    }

    /// Step 1 of Fig. 5: the scope's test, prepared.
    fn prepare_in(&self, scope: &TestScope) -> Arc<PreparedSource> {
        let _span = telechat_obs::span("prepare");
        self.prepare(scope)
    }

    /// Step 4 of Fig. 5 for one compiled object: the state mapping and the
    /// assembly and litmus forms of the extracted test, named `name`.
    fn extract_object(
        &self,
        test: &LitmusTest,
        name: &str,
        prepared: &PreparedSource,
        compiled: &CompileOutput,
    ) -> Result<Extracted> {
        let mapping = StateMapping::build(
            prepared.observed_keys.iter().cloned(),
            &prepared.augmented,
            &compiled.reg_map,
        );
        let (asm, litmus) = s2l::object_to_litmus(
            &compiled.object,
            name,
            &test.condition,
            &test.observed,
            &mapping,
            S2lOptions {
                optimise: self.config.optimise,
            },
        )?;
        Ok(Extracted {
            mapping,
            asm: Arc::new(asm),
            litmus,
            fingerprint: OnceLock::new(),
        })
    }

    /// Steps 2–4 of Fig. 5 without simulation: prepare, compile, extract.
    /// Exposed separately so benchmarks can time the stages. With a cache
    /// attached, prepare runs once per test instead of once per profile.
    ///
    /// # Errors
    ///
    /// Propagates compilation and extraction failures.
    pub fn extract(
        &self,
        test: &LitmusTest,
        compiler: &Compiler,
    ) -> Result<(
        Arc<PreparedSource>,
        CompileOutput,
        StateMapping,
        AsmTest,
        LitmusTest,
    )> {
        let prepared = self.prepare_in(&TestScope::new(test.clone()));
        let codegen = compiler.check(&prepared.test)?;
        let compiled = CompileOutput {
            profile: compiler.profile_name(),
            ..compile(&codegen, &prepared.test)?
        };
        let _span = telechat_obs::span("extract");
        let name = format!("{}.{}", compiled.profile, test.name);
        let Extracted {
            mapping,
            asm,
            litmus,
            ..
        } = self.extract_object(test, &name, &prepared, &compiled)?;
        Ok((
            prepared,
            compiled,
            mapping,
            Arc::unwrap_or_clone(asm),
            litmus,
        ))
    }

    /// Runs the whole `test_tv` check for one test and compiler.
    ///
    /// # Errors
    ///
    /// Returns simulation exhaustion ([`Error::Timeout`]/[`Error::Budget`])
    /// — the behaviour unoptimised tests exhibit — and compilation or
    /// extraction failures. Cached legs replay the original error for
    /// every profile, exactly as the uncached driver fails each one.
    pub fn run(&self, test: &LitmusTest, compiler: &Compiler) -> Result<TestReport> {
        self.run_in(&TestScope::new(test.clone()), compiler)
    }

    /// [`Telechat::run`] for the scope's test, sharing the scope's memos:
    /// a profile whose [`Codegen`] was already compiled in `scope` reuses
    /// that compile and extraction, and one whose compiled object and
    /// register map were already extracted reuses that extraction. The
    /// report is the one `run` gives.
    ///
    /// # Errors
    ///
    /// As [`Telechat::run`]; a memoised compile or extraction error
    /// replays.
    pub fn run_in(&self, scope: &TestScope, compiler: &Compiler) -> Result<TestReport> {
        let test = scope.test();
        let prepared = self.prepare_in(scope);
        let codegen = compiler.check(&prepared.test)?;
        // This item's own name; a memo hit carries the first profile's.
        let name = format!("{}.{}", compiler.profile_name(), test.name);
        let settings = self.settings();
        let extracted = scope.compiled((codegen, settings), || {
            let compiled = compile(&codegen, &prepared.test)?;
            let _span = telechat_obs::span("extract");
            scope.extraction(settings, compiled, |compiled| {
                self.extract_object(test, &name, &prepared, compiled)
            })
        })?;

        // Step 3: simulate the source under the source model (shared
        // across profiles through the cache).
        let source: SourceLeg = {
            let _span = telechat_obs::span("source-sim");
            self.source_leg(&prepared)?
        };

        // Steps 4 and 5, shared across profiles that extracted identical
        // code.
        let half = self.target_half(scope, &extracted, &name, &source)?;

        // Both legs succeeded: absorb their simulation accounting into the
        // metrics registry. Cached/stored replays carry the original run's
        // counters, so the campaign totals are a pure function of the work
        // list — invariant across thread counts, cache on/off and store
        // warm/cold.
        for leg in [source.result.as_ref(), half.result.as_ref()] {
            telechat_obs::add(telechat_obs::Counter::SimCandidates, leg.candidates);
            telechat_obs::add(telechat_obs::Counter::SimAllowed, leg.allowed);
            telechat_obs::add(telechat_obs::Counter::SimPruned, leg.pruned_candidates);
            telechat_obs::add(
                telechat_obs::Counter::SimFullTraversals,
                leg.full_traversals,
            );
            telechat_obs::add(telechat_obs::Counter::SimPushes, leg.pushes);
            telechat_obs::add(telechat_obs::Counter::CatFrontierEvals, leg.frontier_evals);
        }

        // Attribution: which rule forbade leaves, which rule/site pruned
        // subtrees, and the per-combo DFS-size distribution. Same replay
        // discipline as the counters above (the data rides `SimResult`),
        // so the labelled totals and merged histograms share the counters'
        // determinism guarantee. Gated: the label formatting is not free.
        if telechat_obs::enabled() {
            for leg in [source.result.as_ref(), half.result.as_ref()] {
                for (rule, n) in &leg.rule_leaves {
                    telechat_obs::add_labelled(&format!("sim.rule.leaf.{rule}"), *n);
                }
                for (rule, n) in &leg.rule_prunes {
                    telechat_obs::add_labelled(&format!("sim.rule.prune.{rule}"), *n);
                }
                for (site, n) in leg.prune_sites.rows() {
                    if n > 0 {
                        telechat_obs::add_labelled(&format!("sim.prune.{site}"), n);
                    }
                }
                telechat_obs::merge_hist(
                    "sim.combo_candidates",
                    telechat_obs::Class::Deterministic,
                    &leg.combo_candidates,
                );
            }
        }

        Ok(TestReport {
            test_name: test.name.clone(),
            profile: compiler.profile_name(),
            verdict: half.verdict.clone(),
            source_outcomes: source.observables.outcomes.clone(),
            target_outcomes: half.target.clone(),
            positive: half.positive.clone(),
            negative: half.negative.clone(),
            source_time: source.result.elapsed,
            target_time: half.result.elapsed,
            asm_test: NamedAsm {
                name,
                code: extracted.asm.clone(),
            },
        })
    }

    /// Steps 4 and 5 of Fig. 5 and the verdict for one work item, served
    /// by the scope's comparison memo: step 4 simulates the extracted
    /// test under the architecture model, step 5 compares its outcomes
    /// with the source's. A memo hit opens neither phase span.
    fn target_half(
        &self,
        scope: &TestScope,
        extracted: &Arc<Extracted>,
        name: &str,
        source: &SourceLeg,
    ) -> Result<Arc<TargetHalf>> {
        let target_model = self.target_model(&extracted.litmus)?;
        // Every uncached item fires, hit or miss; a cached one fires only
        // where its cache simulates.
        if self.cache.is_none() {
            fault::fire(FaultLeg::Target, name);
        }
        let key = HalfKey {
            extracted: extracted.clone(),
            target_model: model_fingerprint(&target_model),
            source_model: model_fingerprint(&self.source_model),
            config: sim_config_fingerprint(&self.config.sim),
            cache: self.cache.clone(),
        };
        let (half, hit) = scope.compared(key, || {
            let result = {
                let _span = telechat_obs::span("target-sim");
                self.target_leg(extracted, name, &target_model)?
            };
            let cmp = {
                let _span = telechat_obs::span("compare");
                telechat_obs::add(telechat_obs::Counter::McompareCompares, 1);
                mcompare_shared(&source.observables, &result.outcomes, &extracted.mapping)
            };
            let verdict = if source.result.has_flag("race") {
                TestVerdict::SourceRace
            } else if result.crashed {
                TestVerdict::RuntimeCrash
            } else if !cmp.positive.is_empty() {
                TestVerdict::PositiveDifference
            } else if !cmp.negative.is_empty() {
                TestVerdict::NegativeDifference
            } else {
                TestVerdict::Pass
            };
            Ok(Arc::new(TargetHalf {
                result,
                target: Arc::new(cmp.target),
                positive: Arc::new(cmp.positive),
                negative: Arc::new(cmp.negative),
                verdict,
            }))
        });
        if let (true, Some(cache)) = (hit, &self.cache) {
            cache.count_target_hit();
        }
        half
    }

    /// Simulates only the source side (used by baselines like C4 that
    /// share Téléchat's source leg) — through the cache when one is
    /// attached, so it also shares with [`Telechat::run`].
    ///
    /// # Errors
    ///
    /// Propagates simulation failures.
    pub fn simulate_source(&self, test: &LitmusTest) -> Result<Arc<SimResult>> {
        self.simulate_source_in(&TestScope::new(test.clone()))
    }

    /// [`Telechat::simulate_source`] for the scope's test.
    pub(crate) fn simulate_source_in(&self, scope: &TestScope) -> Result<Arc<SimResult>> {
        let prepared = self.prepare(scope);
        self.source_leg(&prepared).map(|leg| leg.result)
    }
}

/// Convenience: is an error the state-explosion signature (timeout or
/// budget exhaustion)?
pub fn is_state_explosion(e: &Error) -> bool {
    e.is_exhaustion()
}
