//! The campaign-scale sharing layer: a content-addressed simulation cache.
//!
//! A campaign runs `tests × profiles` pipeline work items (paper Table IV:
//! ~9,300 × ~50), but most of the expensive work in an item is *not*
//! profile-specific:
//!
//! * the **source leg** — `l2c::prepare` + `herd(S, M_S)` — depends only on
//!   the test, the source model and the simulation budget, so a naive
//!   driver re-simulates it once per profile (~50× redundant work);
//! * the **target leg** — `herd(comp(S), M_C)` — depends only on the
//!   *extracted* target test and the architecture model, and tiny litmus
//!   tests frequently compile to byte-identical code across optimisation
//!   levels (and across compilers), so even distinct profiles often share
//!   one target simulation.
//!
//! [`SimCache`] memoizes all three stages (prepare, source simulation,
//! target simulation) in sharded lock-striped maps keyed by the canonical
//! content fingerprints of `telechat_litmus::fingerprint` plus the model
//! identity and the budget-relevant [`SimConfig`] fields. Values are
//! `Arc`-shared; a per-key in-flight gate guarantees each distinct key is
//! computed **exactly once** even when many campaign workers race for it
//! (latecomers block on the gate and count as hits), which is what makes
//! [`CacheStats`] deterministic across worker counts.
//!
//! Model identity is the model *name*: the pipeline only ever loads bundled
//! models (through the process-wide `telechat_cat::ModelRegistry`), whose
//! names are unique. Callers constructing ad-hoc models that alias a
//! bundled name must not share a cache across them.
//!
//! Caching is semantically invisible: simulations are deterministic
//! functions of `(test, model, budget)` — including their errors (budget
//! exhaustion) — so a campaign with the cache on is byte-identical in
//! cells, positive list and accounting to the uncached driver (pinned by
//! `tests/campaign_cache.rs`). Only wall-clock fields (`SimResult::elapsed`)
//! reflect the original computation rather than the replay.

use crate::fault::{self, FaultLeg};
use crate::l2c::{self, PreparedSource};
use crate::mcompare::SourceObservables;
use crate::persist::{LegKind, PersistKey, PersistStore, StoredSim, StoredValue};
use std::collections::HashMap;
use std::fmt;
use std::hash::{Hash, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex, MutexGuard};
use telechat_cat::CatModel;
use telechat_common::{Error, Result};
use telechat_exec::{simulate, SimConfig, SimResult};
use telechat_litmus::{fingerprint::fnv1a64, LitmusTest};

/// Locks a mutex, tolerating poison. Every guarded region in this module
/// leaves its map or gate value-consistent (single-call inserts/removes),
/// so poison carries no information here — honouring it would let one
/// panicking worker cascade into killing every unrelated campaign worker
/// that later touches the same shard.
pub(crate) fn lock_unpoisoned<T>(m: &Mutex<T>) -> MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// Number of lock stripes per map: contention is per-shard, so campaign
/// workers touching different tests almost never serialise on a lock.
const SHARDS: usize = 16;

/// One entry slot: either the finished value, or a gate latecomers wait on
/// while the first requester computes.
enum Slot<V> {
    Ready(V),
    Pending(Arc<Gate<V>>),
}

/// What a waiter sees through the gate.
enum GateState<V> {
    /// The computation is still running.
    Waiting,
    /// The value was published.
    Done(V),
    /// The computing worker panicked: the slot was removed; waiters retry
    /// (and the panic itself resumes on the computing worker).
    Poisoned,
}

/// The in-flight gate: the computing worker publishes the value (or the
/// poison marker on panic) and wakes every waiter.
struct Gate<V> {
    state: Mutex<GateState<V>>,
    ready: Condvar,
}

/// A sharded lock-striped map with exactly-once in-flight computation.
struct Striped<K, V> {
    shards: Vec<Mutex<HashMap<K, Slot<V>>>>,
}

impl<K: Hash + Eq + Clone, V: Clone> Striped<K, V> {
    fn new() -> Striped<K, V> {
        Striped {
            shards: (0..SHARDS).map(|_| Mutex::new(HashMap::new())).collect(),
        }
    }

    fn shard(&self, key: &K) -> &Mutex<HashMap<K, Slot<V>>> {
        let mut h = std::collections::hash_map::DefaultHasher::new();
        key.hash(&mut h);
        &self.shards[(h.finish() as usize) % SHARDS]
    }

    /// Returns the cached value for `key`, computing it with `compute` on
    /// first request. The boolean is `true` on a hit (including waiting on
    /// another worker's in-flight computation — the work was shared either
    /// way). `compute` runs outside the shard lock, so unrelated keys never
    /// serialise behind a long simulation.
    ///
    /// Panic-safe: if `compute` panics, the pending slot is removed and
    /// waiters are woken to retry (one of them becomes the new computer)
    /// while the panic propagates on the computing worker — a crash stays
    /// a crash instead of becoming a deadlock.
    fn get_or_compute(&self, key: K, compute: impl FnOnce() -> V) -> (V, bool) {
        let shard = self.shard(&key);
        let mut compute = Some(compute);
        loop {
            let gate = {
                let mut map = lock_unpoisoned(shard);
                match map.get(&key) {
                    Some(Slot::Ready(v)) => return (v.clone(), true),
                    Some(Slot::Pending(gate)) => {
                        telechat_obs::add(telechat_obs::Counter::CacheGateWaits, 1);
                        gate.clone()
                    }
                    None => {
                        let gate = Arc::new(Gate {
                            state: Mutex::new(GateState::Waiting),
                            ready: Condvar::new(),
                        });
                        map.insert(key.clone(), Slot::Pending(gate.clone()));
                        drop(map);
                        let compute = compute.take().expect("compute consumed once");
                        let outcome =
                            std::panic::catch_unwind(std::panic::AssertUnwindSafe(compute));
                        let mut map = lock_unpoisoned(shard);
                        match outcome {
                            Ok(v) => {
                                map.insert(key, Slot::Ready(v.clone()));
                                drop(map);
                                *lock_unpoisoned(&gate.state) = GateState::Done(v.clone());
                                gate.ready.notify_all();
                                return (v, false);
                            }
                            Err(panic) => {
                                map.remove(&key);
                                drop(map);
                                *lock_unpoisoned(&gate.state) = GateState::Poisoned;
                                gate.ready.notify_all();
                                std::panic::resume_unwind(panic);
                            }
                        }
                    }
                }
            };
            let mut state = lock_unpoisoned(&gate.state);
            loop {
                match &*state {
                    GateState::Waiting => {
                        state = gate.ready.wait(state).unwrap_or_else(|e| e.into_inner());
                    }
                    GateState::Done(v) => return (v.clone(), true),
                    // The computer died; go around and try to become the
                    // new one (possible only if this call still owns an
                    // unconsumed `compute` — it always does, since only
                    // the computing branch consumes it).
                    GateState::Poisoned => break,
                }
            }
        }
    }
}

/// Cache key for a simulation leg: content fingerprint of the test, model
/// identity, and the budget-relevant simulation configuration.
#[derive(Clone, PartialEq, Eq, Hash)]
struct LegKey {
    test: u128,
    model: u64,
    config: u64,
}

/// Fingerprint of the [`SimConfig`] fields that can influence a simulation
/// *result*. The work-item `deadline` is deliberately excluded: it is a
/// watchdog enforced outside the simulator, and only finished runs are
/// cached. Public so other result memos (e.g. the fuzz minimizer's oracle
/// cache) can key on the same budget identity.
pub fn sim_config_fingerprint(cfg: &SimConfig) -> u64 {
    let mut h = 0u64;
    for word in [
        cfg.unroll as u64,
        cfg.max_pool_iters as u64,
        cfg.max_steps,
        cfg.max_candidates,
        cfg.timeout.map_or(u64::MAX, |t| t.as_millis() as u64),
        u64::from(cfg.excl_fail_paths),
        u64::from(cfg.keep_executions),
        cfg.max_kept as u64,
    ] {
        h = fnv1a64(h, &word.to_le_bytes());
    }
    h
}

/// A model's identity in cache keys: a fingerprint of its name.
pub(crate) fn model_fingerprint(model: &CatModel) -> u64 {
    fnv1a64(0, model.model_name().as_bytes())
}

/// The cached source leg of a test: the simulation result plus the
/// profile-invariant half of `mcompare` (the source outcomes restricted to
/// their own observables), shared by every profile's comparison.
#[derive(Debug, Clone)]
pub struct SourceLeg {
    /// The source simulation result.
    pub result: Arc<SimResult>,
    /// The restricted source outcome set + comparison keys (see
    /// [`SourceObservables`]).
    pub observables: SourceObservables,
}

/// Counters of one campaign's cache traffic. A **miss** is a computation
/// actually performed; a **hit** is a computation avoided (served from a
/// finished entry, or by waiting on another worker's in-flight one). The
/// per-key in-flight gate makes every counter a pure function of the work
/// list — independent of worker count and scheduling.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CacheStats {
    /// `l2c::prepare` calls served from cache.
    pub prepare_hits: u64,
    /// `l2c::prepare` calls computed — one per distinct (test, augment).
    pub prepare_misses: u64,
    /// Source simulations avoided.
    pub source_hits: u64,
    /// Source simulations performed — one per distinct (prepared test,
    /// source model, budget): with a fixed campaign spec, **one per test**.
    pub source_misses: u64,
    /// Target simulations avoided (identical extracted code across
    /// profiles collapses here).
    pub target_hits: u64,
    /// Target simulations performed — one per distinct (extracted test,
    /// architecture model, budget).
    pub target_misses: u64,
    /// Simulations answered by the persistent store instead of computing.
    /// Only the computing lead of a key ever probes the store, so this is
    /// as scheduling-independent as the hit/miss counters.
    pub disk_hits: u64,
    /// Computed legs offered to the persistent store (write-through).
    pub disk_writes: u64,
}

impl CacheStats {
    /// Simulations the sharing layer avoided outright.
    pub fn deduped_simulations(&self) -> u64 {
        self.source_hits + self.target_hits
    }

    /// Any traffic at all? (`false` for an uncached campaign.)
    pub fn any(&self) -> bool {
        *self != CacheStats::default()
    }
}

impl fmt::Display for CacheStats {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "source {} sims + {} hits, target {} sims + {} hits, prepare {} + {} hits; {} simulations shared",
            self.source_misses,
            self.source_hits,
            self.target_misses,
            self.target_hits,
            self.prepare_misses,
            self.prepare_hits,
            self.deduped_simulations()
        )?;
        if self.disk_hits > 0 || self.disk_writes > 0 {
            write!(
                f,
                "; disk {} hits + {} writes",
                self.disk_hits, self.disk_writes
            )?;
        }
        Ok(())
    }
}

/// The content-addressed simulation cache (see the module docs).
///
/// Shared across campaign workers as an `Arc<SimCache>`; attach one to a
/// pipeline with [`crate::Telechat::with_cache`]. One cache per campaign is
/// the intended scope — entries are never evicted.
pub struct SimCache {
    prepared: Striped<(u128, bool), Arc<PreparedSource>>,
    source: Striped<LegKey, Result<SourceLeg>>,
    target: Striped<LegKey, Result<Arc<SimResult>>>,
    /// Optional write-through persistence tier (see [`crate::persist`]):
    /// probed on every in-memory miss, written after every compute.
    store: Option<Arc<PersistStore>>,
    prepare_hits: AtomicU64,
    prepare_misses: AtomicU64,
    source_hits: AtomicU64,
    source_misses: AtomicU64,
    target_hits: AtomicU64,
    target_misses: AtomicU64,
    disk_hits: AtomicU64,
    disk_writes: AtomicU64,
}

impl Default for SimCache {
    fn default() -> Self {
        SimCache::new()
    }
}

impl fmt::Debug for SimCache {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("SimCache")
            .field("stats", &self.stats())
            .finish()
    }
}

impl SimCache {
    /// An empty cache.
    pub fn new() -> SimCache {
        SimCache {
            prepared: Striped::new(),
            source: Striped::new(),
            target: Striped::new(),
            store: None,
            prepare_hits: AtomicU64::new(0),
            prepare_misses: AtomicU64::new(0),
            source_hits: AtomicU64::new(0),
            source_misses: AtomicU64::new(0),
            target_hits: AtomicU64::new(0),
            target_misses: AtomicU64::new(0),
            disk_hits: AtomicU64::new(0),
            disk_writes: AtomicU64::new(0),
        }
    }

    /// A fresh shareable cache.
    pub fn shared() -> Arc<SimCache> {
        Arc::new(SimCache::new())
    }

    /// Attaches a persistent store as a write-through tier under the
    /// in-memory maps: a leg missing in memory is looked up on disk before
    /// being simulated, and every computed leg is written back. Legs keyed
    /// on models without a stable content fingerprint (ad-hoc
    /// `CatProgram`s) bypass the store; fault errors and kept-execution
    /// runs are never persisted.
    #[must_use]
    pub fn with_store(mut self, store: Arc<PersistStore>) -> SimCache {
        self.store = Some(store);
        self
    }

    /// A snapshot of the traffic counters.
    pub fn stats(&self) -> CacheStats {
        CacheStats {
            prepare_hits: self.prepare_hits.load(Ordering::Relaxed),
            prepare_misses: self.prepare_misses.load(Ordering::Relaxed),
            source_hits: self.source_hits.load(Ordering::Relaxed),
            source_misses: self.source_misses.load(Ordering::Relaxed),
            target_hits: self.target_hits.load(Ordering::Relaxed),
            target_misses: self.target_misses.load(Ordering::Relaxed),
            disk_hits: self.disk_hits.load(Ordering::Relaxed),
            disk_writes: self.disk_writes.load(Ordering::Relaxed),
        }
    }

    /// The persistence key for a leg, when the store tier applies: there
    /// must be a store attached and the model must carry a stable content
    /// fingerprint.
    fn store_key(
        &self,
        kind: LegKind,
        test: u128,
        model: &CatModel,
        config: u64,
    ) -> Option<(Arc<PersistStore>, PersistKey)> {
        let store = self.store.as_ref()?;
        let model = model.content_fingerprint()?;
        Some((
            store.clone(),
            PersistKey {
                kind,
                test,
                model,
                config,
            },
        ))
    }

    /// Write-through after a compute. Fault errors and kept-execution
    /// results are skipped; store-level I/O failures degrade inside
    /// [`PersistStore::put`].
    fn persist(&self, store: &PersistStore, key: PersistKey, computed: &Result<SimResult>) {
        let value: StoredValue = match computed {
            Ok(r) => match StoredSim::capture(r) {
                Some(s) => Ok(s),
                None => return,
            },
            Err(e) if e.is_fault() => return,
            Err(e) => Err(e.clone()),
        };
        self.disk_writes.fetch_add(1, Ordering::Relaxed);
        store.put(key, &value);
    }

    fn count(&self, hits: &AtomicU64, misses: &AtomicU64, hit: bool) {
        if hit {
            hits.fetch_add(1, Ordering::Relaxed);
        } else {
            misses.fetch_add(1, Ordering::Relaxed);
        }
    }

    /// `l2c::prepare(test, augment)`, once per distinct test content.
    pub fn prepared(&self, test: &LitmusTest, augment: bool) -> Arc<PreparedSource> {
        self.prepared_keyed(test, test.fingerprint(), augment)
    }

    /// [`SimCache::prepared`] with the test's content fingerprint already
    /// rendered (the pipeline's per-test scope holds it).
    pub(crate) fn prepared_keyed(
        &self,
        test: &LitmusTest,
        fingerprint: u128,
        augment: bool,
    ) -> Arc<PreparedSource> {
        let key = (fingerprint, augment);
        let (v, hit) = self
            .prepared
            .get_or_compute(key, || Arc::new(l2c::prepare(test, augment)));
        self.count(&self.prepare_hits, &self.prepare_misses, hit);
        v
    }

    /// The source leg: `herd(prepared, model)` plus the profile-invariant
    /// comparison half, once per distinct (prepared test, model, budget).
    ///
    /// # Errors
    ///
    /// Replays the original simulation error (budget/timeout exhaustion)
    /// for every requester, exactly as the uncached driver would fail each
    /// profile.
    pub fn source_leg(
        &self,
        prepared: &PreparedSource,
        model: &CatModel,
        config: &SimConfig,
    ) -> Result<SourceLeg> {
        let key = LegKey {
            test: prepared.test_fingerprint(),
            model: model_fingerprint(model),
            config: sim_config_fingerprint(config),
        };
        let (v, hit) = self.source.get_or_compute(key.clone(), || {
            let store = self.store_key(LegKind::Source, key.test, model, key.config);
            if let Some((store, pkey)) = &store {
                if let Some(stored) = store.get(pkey) {
                    self.disk_hits.fetch_add(1, Ordering::Relaxed);
                    return stored.map(|sim| {
                        let result = Arc::new(sim.into_result());
                        SourceLeg {
                            observables: SourceObservables::of(&result.outcomes),
                            result,
                        }
                    });
                }
            }
            fault::fire(FaultLeg::Source, &prepared.test.name);
            let computed = simulate(&prepared.test, model, config);
            if let Some((store, pkey)) = store {
                self.persist(&store, pkey, &computed);
            }
            computed.map(|result| {
                let result = Arc::new(result);
                SourceLeg {
                    observables: SourceObservables::of(&result.outcomes),
                    result,
                }
            })
        });
        self.count(&self.source_hits, &self.source_misses, hit);
        v
    }

    /// The target leg: `herd(extracted, model)`, once per distinct
    /// (extracted test content, model, budget) — the extracted test's
    /// profile-carrying *name* is excluded from the key, so identical code
    /// reached through different profiles shares one simulation.
    ///
    /// # Errors
    ///
    /// Replays the original simulation error for every requester.
    pub fn target_leg(
        &self,
        target: &LitmusTest,
        model: &CatModel,
        config: &SimConfig,
    ) -> Result<Arc<SimResult>> {
        self.target_leg_keyed(target, target.fingerprint(), &target.name, model, config)
    }

    /// [`SimCache::target_leg`] with the target's content fingerprint
    /// already rendered (the pipeline memoises it per distinct extraction).
    /// Faults fire with `name`, the work item's own derived name, since a
    /// memoised `target` carries the name of the profile that extracted it
    /// first.
    pub(crate) fn target_leg_keyed(
        &self,
        target: &LitmusTest,
        fingerprint: u128,
        name: &str,
        model: &CatModel,
        config: &SimConfig,
    ) -> Result<Arc<SimResult>> {
        let key = LegKey {
            test: fingerprint,
            model: model_fingerprint(model),
            config: sim_config_fingerprint(config),
        };
        let (v, hit) = self.target.get_or_compute(key.clone(), || {
            let store = self.store_key(LegKind::Target, key.test, model, key.config);
            if let Some((store, pkey)) = &store {
                if let Some(stored) = store.get(pkey) {
                    self.disk_hits.fetch_add(1, Ordering::Relaxed);
                    return stored.map(|sim| Arc::new(sim.into_result()));
                }
            }
            fault::fire(FaultLeg::Target, name);
            let computed = simulate(target, model, config);
            if let Some((store, pkey)) = store {
                self.persist(&store, pkey, &computed);
            }
            computed.map(Arc::new)
        });
        self.count(&self.target_hits, &self.target_misses, hit);
        v
    }

    /// Counts the target-leg hit of a work item whose whole target half
    /// the pipeline's per-test memo served: the [`SimCache::target_leg_keyed`]
    /// probe it skipped would have found the entry that filled the memo.
    pub(crate) fn count_target_hit(&self) {
        self.target_hits.fetch_add(1, Ordering::Relaxed);
    }
}

/// Convenience: `Error` must stay cloneable for cached error replay; this
/// is a compile-time assertion that it does.
const _: fn() = || {
    fn assert_clone<T: Clone>() {}
    assert_clone::<Error>();
    assert_clone::<Result<SourceLeg>>();
};

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::atomic::AtomicUsize;
    use telechat_cat::ModelRegistry;
    use telechat_litmus::parse_c11;

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

    #[test]
    fn striped_computes_each_key_once() {
        let map: Striped<u64, u64> = Striped::new();
        let computes = AtomicUsize::new(0);
        let compute = |k: u64| {
            computes.fetch_add(1, Ordering::SeqCst);
            k * 10
        };
        assert_eq!(map.get_or_compute(3, || compute(3)), (30, false));
        assert_eq!(map.get_or_compute(3, || compute(3)), (30, true));
        assert_eq!(map.get_or_compute(4, || compute(4)), (40, false));
        assert_eq!(computes.load(Ordering::SeqCst), 2);
    }

    #[test]
    fn striped_concurrent_requesters_share_one_compute() {
        let map: Arc<Striped<u64, u64>> = Arc::new(Striped::new());
        let computes = Arc::new(AtomicUsize::new(0));
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let map = map.clone();
                let computes = computes.clone();
                std::thread::spawn(move || {
                    map.get_or_compute(7, || {
                        computes.fetch_add(1, Ordering::SeqCst);
                        // Widen the race window so waiters really gate.
                        std::thread::sleep(std::time::Duration::from_millis(20));
                        77
                    })
                    .0
                })
            })
            .collect();
        for h in handles {
            assert_eq!(h.join().unwrap(), 77);
        }
        assert_eq!(computes.load(Ordering::SeqCst), 1);
    }

    #[test]
    fn striped_panicking_compute_poisons_and_retries() {
        let map: Arc<Striped<u64, u64>> = Arc::new(Striped::new());
        // First computer panics after a waiter has latched onto its gate.
        let computer = {
            let map = map.clone();
            std::thread::spawn(move || {
                let _ = map.get_or_compute(1, || {
                    std::thread::sleep(std::time::Duration::from_millis(30));
                    panic!("compute died");
                });
            })
        };
        std::thread::sleep(std::time::Duration::from_millis(10));
        // The waiter must not hang: it retries and becomes the computer.
        let (v, hit) = map.get_or_compute(1, || 11);
        assert_eq!(v, 11);
        assert!(!hit, "the retry recomputed");
        assert!(computer.join().is_err(), "the panic still propagated");
        // The slot now holds the retry's value.
        assert_eq!(map.get_or_compute(1, || 99), (11, true));
    }

    #[test]
    fn source_leg_runs_once_per_content() {
        let cache = SimCache::new();
        let model = ModelRegistry::global().bundled("rc11").unwrap();
        let cfg = SimConfig::default();
        let test = parse_c11(SB).unwrap();
        let prepared = cache.prepared(&test, true);
        let a = cache.source_leg(&prepared, &model, &cfg).unwrap();

        // A renamed copy of the same test shares everything.
        let mut renamed = test.clone();
        renamed.name = "SB-again".into();
        let prepared2 = cache.prepared(&renamed, true);
        let b = cache.source_leg(&prepared2, &model, &cfg).unwrap();
        assert!(Arc::ptr_eq(&a.result, &b.result));

        let s = cache.stats();
        assert_eq!(s.prepare_misses, 1);
        assert_eq!(s.prepare_hits, 1);
        assert_eq!(s.source_misses, 1);
        assert_eq!(s.source_hits, 1);
        assert_eq!(s.deduped_simulations(), 1);
        assert!(s.any());
    }

    #[test]
    fn distinct_budgets_and_models_do_not_alias() {
        let cache = SimCache::new();
        let cfg = SimConfig::default();
        let fast = SimConfig::fast();
        assert_ne!(sim_config_fingerprint(&cfg), sim_config_fingerprint(&fast));
        let watched = cfg.clone().with_deadline(std::time::Duration::from_secs(1));
        assert_eq!(
            sim_config_fingerprint(&cfg),
            sim_config_fingerprint(&watched),
            "the work-item deadline never changes results, so it must share the entry"
        );

        let rc11 = ModelRegistry::global().bundled("rc11").unwrap();
        let sc = ModelRegistry::global().bundled("sc").unwrap();
        let test = parse_c11(SB).unwrap();
        let prepared = cache.prepared(&test, true);
        let a = cache.source_leg(&prepared, &rc11, &cfg).unwrap();
        let b = cache.source_leg(&prepared, &sc, &cfg).unwrap();
        assert!(!Arc::ptr_eq(&a.result, &b.result));
        // SC forbids the SB weak outcome, rc11 allows it.
        assert_ne!(a.result.outcomes, b.result.outcomes);
        assert_eq!(cache.stats().source_misses, 2);
    }

    #[test]
    fn cached_errors_replay() {
        let cache = SimCache::new();
        let model = ModelRegistry::global().bundled("rc11").unwrap();
        let starved = SimConfig {
            max_candidates: 1,
            timeout: None,
            ..SimConfig::default()
        };
        let test = parse_c11(SB).unwrap();
        let prepared = cache.prepared(&test, true);
        let a = cache.source_leg(&prepared, &model, &starved).unwrap_err();
        let b = cache.source_leg(&prepared, &model, &starved).unwrap_err();
        assert_eq!(a, b);
        assert!(a.is_exhaustion());
        let s = cache.stats();
        assert_eq!((s.source_misses, s.source_hits), (1, 1));
    }

    #[test]
    fn stats_display_is_compact() {
        let s = CacheStats {
            source_misses: 2,
            source_hits: 8,
            target_misses: 3,
            target_hits: 7,
            prepare_misses: 2,
            prepare_hits: 8,
            disk_hits: 0,
            disk_writes: 0,
        };
        let line = s.to_string();
        assert!(line.contains("source 2 sims + 8 hits"), "{line}");
        assert!(line.contains("15 simulations shared"), "{line}");
        assert!(!line.contains("disk"), "storeless stats stay short: {line}");
        let with_disk = CacheStats {
            disk_hits: 5,
            disk_writes: 1,
            ..s
        };
        assert!(with_disk.to_string().contains("disk 5 hits + 1 writes"));
    }

    #[test]
    fn store_tier_round_trips_through_the_cache() {
        use crate::persist::{MemBackend, PersistStore};
        let mem = MemBackend::new();
        let model = ModelRegistry::global().bundled("rc11").unwrap();
        let cfg = SimConfig::default();
        let test = parse_c11(SB).unwrap();

        // Cold: computes and writes through.
        let store = Arc::new(PersistStore::open_backend(Box::new(mem.clone())).unwrap());
        let cache = SimCache::new().with_store(store);
        let prepared = cache.prepared(&test, true);
        let a = cache.source_leg(&prepared, &model, &cfg).unwrap();
        let s = cache.stats();
        assert_eq!((s.disk_hits, s.disk_writes), (0, 1));

        // Warm, fresh process: answers from disk, no new simulation state.
        let store = Arc::new(PersistStore::open_backend(Box::new(mem)).unwrap());
        let cache = SimCache::new().with_store(store);
        let prepared = cache.prepared(&test, true);
        let b = cache.source_leg(&prepared, &model, &cfg).unwrap();
        let s = cache.stats();
        assert_eq!((s.disk_hits, s.disk_writes), (1, 0));
        assert_eq!(
            s.source_misses, 1,
            "a disk hit still counts as the lead compute"
        );
        assert_eq!(a.result.outcomes, b.result.outcomes);
        assert_eq!(a.result.candidates, b.result.candidates);
        assert_eq!(a.observables, b.observables);
    }
}
