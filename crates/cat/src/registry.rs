//! The bundled model library and the [`CatModel`] handle.

use crate::ast::CatProgram;
use crate::eval::{run_program, run_program_with_base, EnvBase};
use crate::parse::parse_cat;
use crate::staged::{StagedPlan, StagedState};
use std::collections::HashMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex, OnceLock};
use telechat_common::{fnv1a64, Arch, Error, EventId, Result};
use telechat_exec::{ComboChecker, ConsistencyModel, Execution, PartialVerdict, Verdict};

/// `(name, source)` pairs of every bundled `.cat` file.
pub const BUNDLED: &[(&str, &str)] = &[
    ("prelude", include_str!("../models/prelude.cat")),
    ("rc11", include_str!("../models/rc11.cat")),
    ("rc11-lb", include_str!("../models/rc11-lb.cat")),
    ("sc", include_str!("../models/sc.cat")),
    ("aarch64", include_str!("../models/aarch64.cat")),
    ("armv7", include_str!("../models/armv7.cat")),
    ("armv7-buggy", include_str!("../models/armv7-buggy.cat")),
    ("x86tso", include_str!("../models/x86tso.cat")),
    ("riscv", include_str!("../models/riscv.cat")),
    ("ppc", include_str!("../models/ppc.cat")),
    ("mips", include_str!("../models/mips.cat")),
    ("hw-inorder", include_str!("../models/hw-inorder.cat")),
];

/// Names of the bundled models (excluding the prelude, which is only ever
/// included).
pub fn model_names() -> Vec<&'static str> {
    BUNDLED
        .iter()
        .map(|(n, _)| *n)
        .filter(|n| *n != "prelude")
        .collect()
}

/// A fingerprint of the entire bundled model library: every `(name,
/// source)` pair in [`BUNDLED`], in order. The persistent campaign store
/// stamps this into its file header next to the engine revision, so *any*
/// change to the shipped `.cat` files retires stores recorded before it.
pub fn bundled_fingerprint() -> u64 {
    static FP: OnceLock<u64> = OnceLock::new();
    *FP.get_or_init(|| {
        let mut h = 0u64;
        for (name, src) in BUNDLED {
            h = fnv1a64(h, name.as_bytes());
            h = fnv1a64(h, src.as_bytes());
        }
        h
    })
}

/// Resolves an include path against the bundled registry. `"prelude.cat"`
/// and `"prelude"` both work.
fn resolve_bundled(path: &str) -> Option<String> {
    let stem = path.strip_suffix(".cat").unwrap_or(path);
    BUNDLED
        .iter()
        .find(|(n, _)| *n == stem)
        .map(|(_, src)| (*src).to_string())
}

/// A compiled consistency model: a parsed Cat program plus its staged
/// execution plan ([`StagedPlan`]), usable wherever a [`ConsistencyModel`]
/// is expected. Combo sessions of a model whose plan has staged (monotone)
/// constraints opt into the enumeration engine's incremental per-edge
/// protocol and prune subtrees exactly like the built-in models.
///
/// ```
/// use telechat_cat::CatModel;
/// let rc11 = CatModel::bundled("rc11")?;
/// assert_eq!(rc11.model_name(), "rc11");
/// assert!(rc11.plan().staged_constraints() > 0);
/// # Ok::<(), telechat_common::Error>(())
/// ```
#[derive(Debug, Clone)]
pub struct CatModel {
    program: CatProgram,
    plan: StagedPlan,
    staged: bool,
    /// Content fingerprint (see [`CatModel::content_fingerprint`]); `None`
    /// for models built from an in-memory [`CatProgram`], whose source
    /// text is unknown.
    content_fp: Option<u64>,
}

impl CatModel {
    /// Loads a bundled model by name (see [`model_names`]).
    ///
    /// # Errors
    ///
    /// Unknown names and parse failures are reported as [`Error::Model`].
    pub fn bundled(name: &str) -> Result<CatModel> {
        let stem = name.strip_suffix(".cat").unwrap_or(name);
        let src = resolve_bundled(stem)
            .ok_or_else(|| Error::Model(format!("no bundled model `{name}`")))?;
        CatModel::from_source(stem, &src)
    }

    /// Parses a model from source; includes resolve against the bundled
    /// registry.
    ///
    /// # Errors
    ///
    /// Propagates parse errors.
    pub fn from_source(name: &str, src: &str) -> Result<CatModel> {
        let program = parse_cat(name, src, &|p| resolve_bundled(p))?;
        let mut model = CatModel::from_program(program);
        // The fingerprint folds the raw source *and* every bundled file:
        // includes resolve against the bundled registry, so an edit to an
        // included file (e.g. the prelude) must change the fingerprint of
        // every model that could have pulled it in.
        let mut fp = fnv1a64(0, name.as_bytes());
        fp = fnv1a64(fp, src.as_bytes());
        fp = fnv1a64(fp, &bundled_fingerprint().to_le_bytes());
        model.content_fp = Some(fp);
        Ok(model)
    }

    /// Wraps an already parsed program (compiling its staged plan).
    pub fn from_program(program: CatProgram) -> CatModel {
        let plan = StagedPlan::compile(&program);
        CatModel {
            program,
            plan,
            staged: true,
            content_fp: None,
        }
    }

    /// A stable fingerprint of the model's *content* — name, source text
    /// and every bundled file an include could have resolved to — or
    /// `None` for ad-hoc in-memory programs ([`CatModel::from_program`]),
    /// which have no source text to hash.
    ///
    /// The persistent campaign store keys cached simulation legs by this
    /// value, so editing a `.cat` file (or the prelude it includes)
    /// invalidates exactly the entries recorded under the old model;
    /// content-less models are simply never persisted.
    pub fn content_fingerprint(&self) -> Option<u64> {
        self.content_fp
    }

    /// Disables the staged engine for this model: combo sessions fall back
    /// to leaf-only evaluation (the pre-staging behaviour). Kept as the
    /// differential/benchmark baseline.
    #[must_use]
    pub fn without_staging(mut self) -> CatModel {
        self.staged = false;
        self
    }

    /// The parsed program.
    pub fn program(&self) -> &CatProgram {
        &self.program
    }

    /// The compiled staged plan.
    pub fn plan(&self) -> &StagedPlan {
        &self.plan
    }

    /// The default model for an architecture (paper Table II: "models
    /// involved — source and architecture").
    ///
    /// # Errors
    ///
    /// Propagates load failures.
    pub fn for_arch(arch: Arch) -> Result<CatModel> {
        CatModel::bundled(arch.default_model())
    }

    /// The model name.
    pub fn model_name(&self) -> &str {
        &self.program.name
    }

    /// Judges one execution.
    ///
    /// # Errors
    ///
    /// Evaluation errors (type mismatch, unknown name) are [`Error::Model`];
    /// they indicate a broken model, not a property of the execution.
    pub fn check_execution(&self, x: &Execution) -> Result<Verdict> {
        run_program(&self.program, x)
    }
}

impl ConsistencyModel for CatModel {
    fn name(&self) -> &str {
        self.model_name()
    }

    /// # Panics
    ///
    /// Panics if the model fails to evaluate — bundled models are covered by
    /// tests, so an evaluation error is a programming bug that must surface
    /// loudly rather than silently allow/forbid executions.
    fn check(&self, execution: &Execution) -> Verdict {
        self.check_execution(execution)
            .unwrap_or_else(|e| panic!("model `{}` failed to evaluate: {e}", self.model_name()))
    }

    /// Opens the staged per-combo session ([`StagedState`]) when the plan
    /// has anything to prune with: the session joins the engine's
    /// incremental per-edge protocol, monotone constraints reject entire
    /// subtrees mid-DFS, and leaf verdicts are answered from incremental
    /// state. Models whose plan cannot prune (or with staging disabled)
    /// fall back to the leaf-only session, which still caches every
    /// skeleton-constant binding once per combo.
    fn combo_checker<'a>(&'a self, skeleton: &Execution) -> Box<dyn ComboChecker + 'a> {
        let session = if self.staged && self.plan.prunes() {
            match StagedState::new(&self.plan, skeleton) {
                Ok(state) => CatSession::Staged(Box::new(state)),
                Err(e) => panic!(
                    "model `{}` failed to stage: {e}",
                    self.model_name()
                ),
            }
        } else {
            CatSession::Plain {
                base: EnvBase::from_skeleton(skeleton),
            }
        };
        Box::new(CatComboChecker {
            program: &self.program,
            name: self.model_name(),
            session,
        })
    }
}

/// The two session flavours of [`CatComboChecker`].
enum CatSession<'a> {
    /// Incremental per-edge state over the staged plan.
    Staged(Box<StagedState<'a>>),
    /// Leaf-only evaluation over cached combo-constant bindings.
    Plain { base: EnvBase },
}

/// [`CatModel`]'s per-combo checking session (see
/// [`ConsistencyModel::combo_checker`]).
struct CatComboChecker<'a> {
    program: &'a CatProgram,
    name: &'a str,
    session: CatSession<'a>,
}

impl CatComboChecker<'_> {
    fn fail(&self, e: Error) -> ! {
        panic!("model `{}` failed to evaluate: {e}", self.name)
    }
}

impl ComboChecker for CatComboChecker<'_> {
    fn check(&self, execution: &Execution) -> Verdict {
        match &self.session {
            CatSession::Staged(state) => state
                .check_leaf()
                .unwrap_or_else(|e| self.fail(e)),
            CatSession::Plain { base } => run_program_with_base(self.program, base, execution)
                .unwrap_or_else(|e| self.fail(e)),
        }
    }

    fn check_partial(&self, _partial: &Execution) -> PartialVerdict {
        match &self.session {
            CatSession::Staged(state) => state.verdict(),
            CatSession::Plain { .. } => PartialVerdict::Undecided,
        }
    }

    fn incremental(&self) -> bool {
        matches!(self.session, CatSession::Staged(_))
    }

    fn push_rf(&mut self, _partial: &Execution, w: EventId, r: EventId) -> PartialVerdict {
        match &mut self.session {
            CatSession::Staged(state) => match state.push_rf(w, r) {
                Ok(v) => v,
                Err(e) => panic!("model `{}` failed to evaluate: {e}", self.name),
            },
            CatSession::Plain { .. } => PartialVerdict::Undecided,
        }
    }

    fn pop_rf(&mut self, _partial: &Execution, w: EventId, r: EventId) {
        if let CatSession::Staged(state) = &mut self.session {
            state.pop_rf(w, r);
        }
    }

    fn push_co(&mut self, _partial: &Execution, preds: &[EventId], w: EventId) -> PartialVerdict {
        match &mut self.session {
            CatSession::Staged(state) => match state.push_co(preds, w) {
                Ok(v) => v,
                Err(e) => panic!("model `{}` failed to evaluate: {e}", self.name),
            },
            CatSession::Plain { .. } => PartialVerdict::Undecided,
        }
    }

    fn pop_co(&mut self, _partial: &Execution, preds: &[EventId], w: EventId) {
        if let CatSession::Staged(state) = &mut self.session {
            state.pop_co(preds, w);
        }
    }

    fn blame(&self) -> Option<&str> {
        match &self.session {
            CatSession::Staged(state) => state.blame(),
            // Plain sessions never answer `Forbidden` mid-DFS, so the
            // enumerator never asks them for blame.
            CatSession::Plain { .. } => None,
        }
    }

    fn frontier_evals(&self) -> u64 {
        match &self.session {
            CatSession::Staged(state) => state.frontier_evals(),
            CatSession::Plain { .. } => 0,
        }
    }
}

/// A process-wide cache of compiled models: each bundled `.cat` program is
/// parsed, monotone-classified and staged **once**, then shared as an
/// `Arc<CatModel>` by every pipeline, campaign worker and thread that asks
/// for it. `CatModel::bundled` recompiles from source on every call
/// (parse, monotone analysis, staged-plan compilation), which a campaign
/// driver would otherwise pay once per `(test, profile)` work item.
///
/// ```
/// use telechat_cat::ModelRegistry;
/// let a = ModelRegistry::global().bundled("rc11")?;
/// let b = ModelRegistry::global().bundled("rc11")?;
/// assert!(std::sync::Arc::ptr_eq(&a, &b));
/// # Ok::<(), telechat_common::Error>(())
/// ```
#[derive(Debug, Default)]
pub struct ModelRegistry {
    models: Mutex<HashMap<String, Arc<CatModel>>>,
    loads: AtomicU64,
    compiles: AtomicU64,
}

impl ModelRegistry {
    /// An empty registry (tests use private instances so the compile
    /// counters are isolated; production code shares [`ModelRegistry::global`]).
    pub fn new() -> ModelRegistry {
        ModelRegistry::default()
    }

    /// The process-wide registry.
    pub fn global() -> &'static ModelRegistry {
        static GLOBAL: OnceLock<ModelRegistry> = OnceLock::new();
        GLOBAL.get_or_init(ModelRegistry::new)
    }

    /// The bundled model `name`, compiled at most once per registry.
    ///
    /// The per-name compile runs under the registry lock, so concurrent
    /// first loads of the same model still compile exactly once.
    ///
    /// # Errors
    ///
    /// Unknown names and parse failures are reported as [`Error::Model`]
    /// (errors are not cached — they are cheap and carry no staged plan).
    pub fn bundled(&self, name: &str) -> Result<Arc<CatModel>> {
        let stem = name.strip_suffix(".cat").unwrap_or(name);
        self.loads.fetch_add(1, Ordering::Relaxed);
        telechat_obs::add(telechat_obs::Counter::RegistryLoads, 1);
        let mut models = self.models.lock().expect("model registry lock");
        if let Some(m) = models.get(stem) {
            return Ok(m.clone());
        }
        let model = Arc::new(CatModel::bundled(stem)?);
        self.compiles.fetch_add(1, Ordering::Relaxed);
        telechat_obs::add(telechat_obs::Counter::RegistryCompiles, 1);
        models.insert(stem.to_string(), model.clone());
        Ok(model)
    }

    /// The default model for an architecture, via the cache.
    ///
    /// # Errors
    ///
    /// Propagates load failures.
    pub fn for_arch(&self, arch: Arch) -> Result<Arc<CatModel>> {
        self.bundled(arch.default_model())
    }

    /// Number of lookups served.
    pub fn loads(&self) -> u64 {
        self.loads.load(Ordering::Relaxed)
    }

    /// Number of *successful* parse + monotone-classify + stage
    /// compilations — exactly one per distinct model name ever cached.
    /// Failed lookups (unknown names, parse errors) are not counted: they
    /// cache nothing and are retried on the next call.
    pub fn compiles(&self) -> u64 {
        self.compiles.load(Ordering::Relaxed)
    }
}

/// A conjunction of models: allowed iff allowed by *all* parts (used by the
/// simulated-hardware runner to intersect an architecture model with a chip
/// strength profile).
#[derive(Debug, Clone)]
pub struct ModelIntersection {
    /// Display name.
    name: String,
    parts: Vec<CatModel>,
}

impl ModelIntersection {
    /// Intersects the given models.
    pub fn new(parts: Vec<CatModel>) -> ModelIntersection {
        let name = parts
            .iter()
            .map(CatModel::model_name)
            .collect::<Vec<_>>()
            .join("+");
        ModelIntersection { name, parts }
    }
}

impl ConsistencyModel for ModelIntersection {
    fn name(&self) -> &str {
        &self.name
    }

    fn check(&self, execution: &Execution) -> Verdict {
        let mut flags = Vec::new();
        for m in &self.parts {
            match m.check(execution) {
                Verdict::Allowed { flags: f } => flags.extend(f),
                forbidden @ Verdict::Forbidden { .. } => return forbidden,
            }
        }
        Verdict::Allowed { flags }
    }

    /// Forwards partial verdicts soundly: if *any* part forbids every
    /// completion, so does the intersection.
    fn check_partial(&self, partial: &Execution) -> PartialVerdict {
        for m in &self.parts {
            if m.check_partial(partial) == PartialVerdict::Forbidden {
                return PartialVerdict::Forbidden;
            }
        }
        PartialVerdict::Undecided
    }

    /// One combo session per part, so each part's combo-constant state is
    /// shared across the combo's candidates.
    fn combo_checker<'a>(&'a self, skeleton: &Execution) -> Box<dyn ComboChecker + 'a> {
        Box::new(IntersectionChecker {
            parts: self
                .parts
                .iter()
                .map(|m| (m as &dyn ConsistencyModel).combo_checker(skeleton))
                .collect(),
        })
    }
}

/// [`ModelIntersection`]'s combo session: the conjunction of its parts'
/// sessions.
struct IntersectionChecker<'a> {
    parts: Vec<Box<dyn ComboChecker + 'a>>,
}

impl ComboChecker for IntersectionChecker<'_> {
    fn check(&self, execution: &Execution) -> Verdict {
        let mut flags = Vec::new();
        for c in &self.parts {
            match c.check(execution) {
                Verdict::Allowed { flags: f } => flags.extend(f),
                forbidden @ Verdict::Forbidden { .. } => return forbidden,
            }
        }
        Verdict::Allowed { flags }
    }

    fn check_partial(&self, partial: &Execution) -> PartialVerdict {
        for c in &self.parts {
            if c.check_partial(partial) == PartialVerdict::Forbidden {
                return PartialVerdict::Forbidden;
            }
        }
        PartialVerdict::Undecided
    }

    // The incremental edge protocol is forwarded to every part, so a part
    // whose session answers from push-fed state (the built-in models and
    // staged Cat sessions) stays in sync even when composed. Forbidden
    // from any part forbids the intersection. Every part is pushed and
    // popped once per engine push, so a part whose push answered
    // `Forbidden` sees only `blame` and its pop, as the `ComboChecker`
    // contract requires.

    fn incremental(&self) -> bool {
        self.parts.iter().any(|c| c.incremental())
    }

    fn push_rf(&mut self, partial: &Execution, w: EventId, r: EventId) -> PartialVerdict {
        let mut verdict = PartialVerdict::Undecided;
        for c in &mut self.parts {
            if c.push_rf(partial, w, r) == PartialVerdict::Forbidden {
                verdict = PartialVerdict::Forbidden;
            }
        }
        verdict
    }

    fn pop_rf(&mut self, partial: &Execution, w: EventId, r: EventId) {
        for c in &mut self.parts {
            c.pop_rf(partial, w, r);
        }
    }

    fn push_co(&mut self, partial: &Execution, preds: &[EventId], w: EventId) -> PartialVerdict {
        let mut verdict = PartialVerdict::Undecided;
        for c in &mut self.parts {
            if c.push_co(partial, preds, w) == PartialVerdict::Forbidden {
                verdict = PartialVerdict::Forbidden;
            }
        }
        verdict
    }

    fn pop_co(&mut self, partial: &Execution, preds: &[EventId], w: EventId) {
        for c in &mut self.parts {
            c.pop_co(partial, preds, w);
        }
    }

    fn blame(&self) -> Option<&str> {
        // Parts are checked in declaration order, so the first part able
        // to name a violated rule wins — mirroring `check`'s first-
        // Forbidden-part semantics.
        self.parts.iter().find_map(|c| c.blame())
    }

    fn frontier_evals(&self) -> u64 {
        self.parts.iter().map(|c| c.frontier_evals()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn all_bundled_models_parse() {
        for name in model_names() {
            CatModel::bundled(name).unwrap_or_else(|e| panic!("{name}: {e}"));
        }
    }

    #[test]
    fn unknown_model_errors() {
        assert!(CatModel::bundled("bogus").is_err());
    }

    #[test]
    fn arch_defaults_load() {
        for arch in Arch::TARGETS {
            CatModel::for_arch(arch).unwrap();
        }
        assert_eq!(CatModel::for_arch(Arch::C11).unwrap().model_name(), "rc11");
    }

    #[test]
    fn cat_suffix_accepted() {
        assert_eq!(CatModel::bundled("rc11.cat").unwrap().model_name(), "rc11");
    }

    #[test]
    fn registry_compiles_each_model_once() {
        let reg = ModelRegistry::new();
        let a = reg.bundled("rc11").unwrap();
        let b = reg.bundled("rc11").unwrap();
        let c = reg.bundled("rc11.cat").unwrap();
        assert!(Arc::ptr_eq(&a, &b), "same compiled model shared");
        assert!(Arc::ptr_eq(&a, &c), ".cat suffix resolves to the same entry");
        assert_eq!(reg.compiles(), 1, "one parse/stage per distinct model");
        assert_eq!(reg.loads(), 3);

        let d = reg.for_arch(Arch::AArch64).unwrap();
        let e = reg.for_arch(Arch::AArch64).unwrap();
        assert!(Arc::ptr_eq(&d, &e));
        assert_eq!(reg.compiles(), 2);
    }

    #[test]
    fn registry_concurrent_first_load_compiles_once() {
        let reg = Arc::new(ModelRegistry::new());
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let reg = reg.clone();
                std::thread::spawn(move || reg.bundled("aarch64").unwrap())
            })
            .collect();
        let models: Vec<_> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        for m in &models[1..] {
            assert!(Arc::ptr_eq(&models[0], m));
        }
        assert_eq!(reg.compiles(), 1);
        assert_eq!(reg.loads(), 8);
    }

    #[test]
    fn registry_errors_on_unknown_models() {
        let reg = ModelRegistry::new();
        assert!(reg.bundled("bogus").is_err());
        assert!(reg.bundled("bogus").is_err());
        assert_eq!(reg.compiles(), 0, "failed attempts cache (and count) nothing");
        assert!(reg.bundled("rc11").is_ok());
        assert_eq!(reg.compiles(), 1, "exactly one per distinct cached model");
    }

    #[test]
    fn global_registry_is_shared() {
        let a = ModelRegistry::global().bundled("sc").unwrap();
        let b = ModelRegistry::global().bundled("sc").unwrap();
        assert!(Arc::ptr_eq(&a, &b));
    }
}
