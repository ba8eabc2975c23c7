//! The incremental candidate-execution enumeration engine.
//!
//! This is the herd-equivalent core (paper §II-A): enumerate every
//! candidate execution of a litmus test — combinations of per-thread
//! traces, a reads-from assignment and a per-location coherence order —
//! filter them through a consistency model, and collect the outcomes of
//! the allowed ones. The enumeration cost is the product of per-thread
//! trace counts, rf choices per read and coherence permutations per
//! location; that product is what explodes on unoptimised compiled tests
//! (paper §IV-E / Fig. 11).
//!
//! # Architecture: staged builder with pruning
//!
//! The engine is organised as a three-stage pipeline per *combo* (one
//! choice of per-thread traces), instead of the naive
//! generate-all-then-filter loop (retained in [`crate::reference`] as the
//! differential-testing oracle):
//!
//! 1. **Combine** — `build_combined` assembles the event graph once per
//!    skeleton, not per combo: events, transitive `po` (built in one pass
//!    via [`Relation::total_order`]), and the `rmw`/`addr`/`data`/`ctrl`
//!    dependency relations. These are *fixed* for every candidate of the
//!    combo and shared immutably; only `rf`, `co` and the outcome vary.
//!    A combo whose skeleton is the previous combo's takes over that
//!    combo's graph and model session and only re-values the graph (see
//!    *Session reuse*); any other builds its graph and opens a session
//!    on it.
//! 2. **Assign rf** — reads are justified one at a time over their
//!    statically-filtered candidate writes (same location, same value, not
//!    po-later in the same thread). After each assignment the model's
//!    [`ConsistencyModel::check_partial`] fast-reject hook runs; a
//!    `Forbidden` verdict prunes the whole subtree *before* any coherence
//!    order is enumerated.
//! 3. **Assign co** — coherence orders are generated lazily, one write at
//!    a time per location (swap-based permutation DFS with undo), never
//!    materialising the `n!` permutation lists up front. The partial `co`
//!    is kept transitively closed, so `check_partial` sees exactly the
//!    prefix relations and can cut entire permutation subtrees.
//!
//! # The SC-per-location filter
//!
//! Most coherence orders of compiled tests break SC per location
//! (`acyclic po-loc | rf | co | fr`), which every bundled source and
//! architecture model forbids. For a model that names a check forbidding
//! all of them ([`ConsistencyModel::sc_per_location`]), Stage 3 skips such
//! orders before pushing them, as herd does. Once rf is complete, each
//! write `w` of a location with two or more writes (its init write
//! included) gets the set of coherence predecessors that SC per location
//! forces on it:
//!
//! * **CoWW** — a write to its location po-before `w`;
//! * **CoWR** — a write to its location po-before a read of `w`;
//! * **CoRW** — the source of a read of its location po-before `w`;
//! * **CoRR** — the source of a read of its location po-before a read of
//!   `w`.
//!
//! A forced predecessor that is the init write is free; a write forced
//! *before* the init write can never be placed. The DFS skips a pick
//! whose forced predecessors are not all in the chain yet: they would all
//! come after it. By the "Herding Cats" lemma (Alglave et al., TOPLAS
//! 2014) SC per location fails exactly when one of coWW, coRW1, coRW2,
//! coWR and coRR occurs; the rf candidates already exclude coRW1, and the
//! four rules above are the other four, so the filter drops exactly the
//! candidates that break SC per location and the outcomes do not change.
//! The skeleton's same-location po pairs are collected once per session
//! and the forced sets are derived once per complete rf assignment, as
//! bit masks over the location's writes.
//!
//! A skipped pick is charged like a refused push: its subtree lands in the
//! candidate and pruned tallies, at the co prune site of the session's
//! kind, and on the model's named rule in the prune attribution. An
//! incremental session refuses every such subtree anyway, only further
//! down, so its candidate, allowed and pruned totals, prune-site totals,
//! forbidden-leaf rules, outcomes, flags and crash bit are those of an
//! unfiltered run; only `sim.pushes`, `cat.frontier_evals` and the
//! per-rule prune attribution move. A re-check session (which consults the
//! model only above `PRUNE_THRESHOLD` completions) also prunes, instead
//! of judging, the small subtrees it would have enumerated to forbidden
//! leaves.
//!
//! Pruned subtrees are still *accounted*: the engine adds the number of
//! complete candidates a cut subtree contains to the candidate counter,
//! so a combo's DFS charges its whole rf × co space and
//! [`SimResult::candidates`] equals exhaustive enumeration's count —
//! pruning changes time, not semantics. The charge is also the combo's
//! `sim.combo_candidates` sample, and debug builds assert that it equals
//! the space the pre-check counted.
//!
//! Combos run one after another on the calling thread, in linear-index
//! order (thread 0's trace least significant) — the reference engine's
//! odometer order — and each folds its tallies into the [`SimResult`] as
//! it finishes. Parallelism lives a level up: a campaign runs many
//! simulations at once.
//!
//! # The pre-check
//!
//! Since the DFS charges exactly a combo's space, whether a simulation
//! exhausts its [`SimConfig::max_candidates`] budget is a function of the
//! traces alone, and [`simulate`] decides it before any enumeration, in
//! two passes:
//!
//! 1. **Count.** Every combo's space is counted from the chosen traces and
//!    the test's init values (`RfSupply::space`), with no graph built: per
//!    read, the candidate writers are its location's init write, the
//!    po-earlier writes of its own trace and every write of another
//!    thread, each carrying the value it reads; each location with `m`
//!    non-init writes has `m!` coherence orders. The product is exactly
//!    the built graph's Π|`Combined::rf_candidates`| × Π `m!`, pinned by
//!    [`precheck_agreement`] on the diy suite and on compiled tests. The
//!    moment the running sum passes the budget the simulation fails with
//!    [`Error::Budget`], whose `steps` is that sum; no session has been
//!    opened and no push made.
//! 2. **Enumerate.** The combos of nonzero space run their DFS, in combo
//!    order. Many combos have space 0 — some read takes a value no write
//!    of its location supplies (37% of the combos of the diy `c11` suite,
//!    41% of those of compiled deep fuzz tests) — and build no graph and
//!    open no session.
//!
//! Only the wall-clock [`SimConfig::timeout`] still depends on the
//! machine; both passes poll it per combo, and the DFS every 256 leaves.
//!
//! # Session reuse
//!
//! Every trace of every thread gets a value-erased *shape id* once per
//! simulation (`shape_ids`): two traces share an id iff they agree on
//! event kinds, locations, annotations and their rmw/addr/data/ctrl
//! pairs. Combos whose per-thread ids agree have the same skeleton up to
//! values, which is all a session may read
//! ([`ConsistencyModel::combo_checker`]). The enumerator keeps its last
//! session with the combo's shape-id vector and the skeleton's graph: the
//! one [`Execution`] the DFS extends, plus everything of the combo that
//! does not depend on values — its reads and their candidate writers per
//! location, the coherence chains and write lists, the subtree sizes, the
//! location index and whether it writes read-only memory. The next combo
//! with the same vector reuses both: it overwrites the events' values from
//! its traces (event ids are laid out thread by thread, identically for
//! one shape), filters its rf candidates by those values and reads its
//! register outcome from its traces. Any other vector builds a graph and
//! opens a new session. The DFS pops every push and undoes every edge and
//! coherence swap, so the session and the graph are back at their
//! baseline when a combo ends; debug builds check every re-valued graph
//! against a fresh build of its combo ([`revalue_agreement`] exposes the
//! same check). Sessions report their work as a running total, and each
//! combo is charged the difference.

use crate::config::{PruneSites, SimConfig, SimResult};
use crate::event::{Event, EventKind, Execution, INIT_THREAD};
use crate::model::{ComboChecker, ConsistencyModel, PartialVerdict, Verdict};
use crate::rel::Relation;
use crate::trace::{interpret_thread, value_pools, InterpBudget, Trace};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::time::Instant;
use telechat_common::{
    Annot, AnnotSet, Error, EventId, Loc, Outcome, OutcomeSet, Reg, Result, StateKey, ThreadId,
    Val,
};
use telechat_litmus::LitmusTest;

/// Interprets every thread of `test`, returning the complete traces per
/// thread (shared by the incremental and reference engines).
pub(crate) fn interpret_all_traces(
    test: &LitmusTest,
    config: &SimConfig,
) -> Result<Vec<Vec<Trace>>> {
    let mut budget = InterpBudget::new(config.max_steps);
    let pools = value_pools(test, config.unroll, config.max_pool_iters, &mut budget)?;
    let mut thread_traces: Vec<Vec<Trace>> = Vec::with_capacity(test.threads.len());
    for t in 0..test.threads.len() {
        let mut traces = interpret_thread(
            test,
            ThreadId(t as u8),
            &pools,
            config.unroll,
            config.excl_fail_paths,
            &mut budget,
        )?;
        traces.retain(|tr| tr.complete);
        traces.dedup();
        thread_traces.push(traces);
    }
    Ok(thread_traces)
}

/// Simulates `test` under `model` (the paper's `herd(P, M)`).
///
/// # Errors
///
/// * [`Error::Timeout`] / [`Error::Budget`] on state explosion — the
///   behaviour the paper reports for unoptimised compiled tests;
/// * [`Error::IllFormed`] if the test is structurally invalid.
pub fn simulate(
    test: &LitmusTest,
    model: &dyn ConsistencyModel,
    config: &SimConfig,
) -> Result<SimResult> {
    test.validate()?;
    let start = Instant::now();
    let ft_start = crate::rel::full_traversals();
    let deadline = config.timeout.map(|t| start + t);

    let thread_traces = interpret_all_traces(test, config)?;
    let shapes = shape_ids(&thread_traces);
    let supply = RfSupply::new(test, &thread_traces);

    let observed = test.observed_keys();
    let readonly = readonly_locs(test);

    let mut result = SimResult {
        outcomes: OutcomeSet::new(),
        candidates: 0,
        allowed: 0,
        flags: BTreeSet::new(),
        crashed: false,
        executions: Vec::new(),
        full_traversals: 0,
        pruned_candidates: 0,
        pushes: 0,
        frontier_evals: 0,
        rule_leaves: BTreeMap::new(),
        rule_prunes: BTreeMap::new(),
        prune_sites: PruneSites::default(),
        combo_candidates: telechat_obs::Histogram::new(),
        elapsed: start.elapsed(),
    };

    // If any thread has no complete trace there are no executions.
    if thread_traces.iter().any(Vec::is_empty) {
        result.elapsed = start.elapsed();
        return Ok(result);
    }

    // Total combos; the linear index decodes with thread 0 least
    // significant, matching the reference odometer's enumeration order.
    let counts: Vec<u64> = thread_traces.iter().map(|t| t.len() as u64).collect();
    let total128: u128 = counts.iter().map(|&c| u128::from(c)).product();
    let total: u64 = total128.min(u128::from(u64::MAX)) as u64;

    let ctx = SimCtx {
        test,
        model,
        sc_rule: model.sc_per_location(),
        config,
        observed: &observed,
        readonly: &readonly,
        deadline,
        thread_traces: &thread_traces,
        shapes: &shapes,
    };

    // Count pass: the candidate space of every combo, from its traces.
    // The DFS charges exactly a combo's space, so whether the simulation
    // exceeds its candidate budget is known here, before any graph is
    // built or session opened. Each justified combo has space ≥ 1, so at
    // most `max_candidates` of them are kept.
    let mut justified: Vec<(u64, u64)> = Vec::new();
    let mut space_total = 0u64;
    for idx in 0..total {
        // A simulation whose explosion is in *combinations* (many combos,
        // each small) must poll the deadline per combo.
        ctx.check_deadline()?;
        let space = supply.space(&decode_combo(&counts, idx));
        if space == 0 {
            continue; // some read unjustifiable
        }
        space_total = space_total.saturating_add(space);
        if space_total > config.max_candidates {
            return Err(Error::Budget { steps: space_total });
        }
        justified.push((idx, space));
    }

    // DFS pass over the justified combos, in combo order.
    let mut session: Option<Session<'_>> = None;
    for (idx, space) in justified {
        // The intra-combo deadline tick only fires every 256 leaves.
        ctx.check_deadline()?;
        let _span = telechat_obs::span_idx("combo", idx);
        run_combo(&ctx, &decode_combo(&counts, idx), space, &mut session, &mut result)?;
    }
    result.full_traversals = crate::rel::full_traversals() - ft_start;
    result.elapsed = start.elapsed();
    Ok(result)
}

/// Every trace combo of `test`, in combo order, sized twice: by the
/// pre-check [`simulate`] uses to count a combo's candidate space from its
/// traces, and by building the combo's graph and multiplying its rf
/// candidates per read by `m_l!` per location (0 when some read has none).
/// The two agree on every combo; this is the differential hook for tests
/// built outside this crate (compiled, extracted ones).
///
/// # Errors
///
/// Interpretation failures, as in [`simulate`].
pub fn precheck_agreement(test: &LitmusTest, config: &SimConfig) -> Result<Vec<(u64, u64)>> {
    let thread_traces = interpret_all_traces(test, config)?;
    let supply = RfSupply::new(test, &thread_traces);
    let counts: Vec<u64> = thread_traces.iter().map(|t| t.len() as u64).collect();
    let total = counts.iter().fold(1u64, |p, &c| p.saturating_mul(c));
    Ok((0..total)
        .map(|idx| {
            let choice = decode_combo(&counts, idx);
            let combined = build_combined(test, &chosen_traces(&thread_traces, &choice));
            let built = combined.rf_candidates().map_or(0, |rf_choices| {
                let co = combined
                    .writes_by_loc
                    .values()
                    .fold(1u64, |p, w| p.saturating_mul(fact(w.len() as u64 - 1)));
                rf_choices
                    .iter()
                    .fold(co, |p, c| p.saturating_mul(c.len() as u64))
            });
            (supply.space(&choice), built)
        })
        .collect())
}

/// Every justified combo of `test`, in combo order, valued the way
/// [`simulate`] values it: a combo whose per-thread shape ids match the
/// previous justified combo's re-values that combo's graph, any other
/// builds its own. Each entry says whether the combo re-valued a graph and
/// names the first part of its graph that differs from a fresh build of
/// the combo (`None` when all agree). This is the differential hook for
/// graph reuse on tests built outside this crate.
///
/// # Errors
///
/// Interpretation failures, as in [`simulate`].
pub fn revalue_agreement(
    test: &LitmusTest,
    config: &SimConfig,
) -> Result<Vec<(bool, Option<&'static str>)>> {
    let thread_traces = interpret_all_traces(test, config)?;
    let shapes = shape_ids(&thread_traces);
    let supply = RfSupply::new(test, &thread_traces);
    let observed = test.observed_keys();
    let readonly = readonly_locs(test);
    let counts: Vec<u64> = thread_traces.iter().map(|t| t.len() as u64).collect();
    let total = counts.iter().fold(1u64, |p, &c| p.saturating_mul(c));
    let mut last: Option<(Vec<u32>, Skeleton)> = None;
    let mut agreement = Vec::new();
    for idx in 0..total {
        let choice = decode_combo(&counts, idx);
        if supply.space(&choice) == 0 {
            continue;
        }
        let traces = chosen_traces(&thread_traces, &choice);
        let shape = combo_shape(&shapes, &choice);
        let (reused, skeleton) = match &mut last {
            Some((s, skeleton)) if *s == shape => {
                skeleton.revalue(test, &traces);
                (true, skeleton)
            }
            _ => {
                let skeleton = Skeleton::new(test, &readonly, &traces, false);
                (false, &mut last.insert((shape, skeleton)).1)
            }
        };
        agreement.push((reused, skeleton.difference(test, &traces, &observed)));
    }
    Ok(agreement)
}

/// The test's read-only (`const`) locations.
fn readonly_locs(test: &LitmusTest) -> BTreeSet<Loc> {
    test.locs
        .iter()
        .filter(|d| d.readonly)
        .map(|d| d.loc.clone())
        .collect()
}

/// Everything a combo's run needs from its simulation, by reference.
struct SimCtx<'a> {
    test: &'a LitmusTest,
    model: &'a dyn ConsistencyModel,
    /// The model's check that forbids every candidate breaking SC per
    /// location, if it names one: Stage 3 then skips such coherence orders
    /// (module docs, "The SC-per-location filter").
    sc_rule: Option<&'a str>,
    config: &'a SimConfig,
    observed: &'a BTreeSet<StateKey>,
    readonly: &'a BTreeSet<Loc>,
    deadline: Option<Instant>,
    thread_traces: &'a [Vec<Trace>],
    /// Per thread, per trace: its value-erased shape id ([`shape_ids`]).
    shapes: &'a [Vec<u32>],
}

impl SimCtx<'_> {
    /// [`Error::Timeout`] once the simulation's wall-clock deadline has
    /// passed.
    fn check_deadline(&self) -> Result<()> {
        match self.deadline {
            Some(d) if Instant::now() > d => Err(Error::Timeout {
                limit_ms: self.config.timeout.map_or(0, |t| t.as_millis() as u64),
            }),
            _ => Ok(()),
        }
    }
}

/// Decodes a linear combo index into the per-thread trace indices it
/// chooses (thread 0 least significant, matching the reference odometer's
/// order); `counts` holds each thread's trace count.
fn decode_combo(counts: &[u64], idx: u64) -> Vec<usize> {
    let mut rem = idx;
    counts
        .iter()
        .map(|&c| {
            let i = (rem % c) as usize;
            rem /= c;
            i
        })
        .collect()
}

/// The traces a combo's per-thread indices choose.
fn chosen_traces<'t>(thread_traces: &'t [Vec<Trace>], choice: &[usize]) -> Vec<&'t Trace> {
    choice
        .iter()
        .enumerate()
        .map(|(t, &i)| &thread_traces[t][i])
        .collect()
}

/// Gives every trace of every thread a value-erased shape id: two traces
/// of a thread share an id iff they agree on event kinds, locations and
/// annotations and on their rmw/addr/data/ctrl pairs — everything of the
/// combo skeleton except event values and final registers. Combos whose
/// per-thread ids agree have the same skeleton up to values, which is all
/// a model session may read ([`ConsistencyModel::combo_checker`]).
fn shape_ids(thread_traces: &[Vec<Trace>]) -> Vec<Vec<u32>> {
    type Shape<'t> = (
        Vec<(EventKind, Option<&'t Loc>, AnnotSet)>,
        [&'t [(usize, usize)]; 4],
    );
    thread_traces
        .iter()
        .map(|traces| {
            let mut ids: HashMap<Shape<'_>, u32> = HashMap::new();
            traces
                .iter()
                .map(|tr| {
                    let shape = (
                        tr.events
                            .iter()
                            .map(|e| (e.kind, e.loc.as_ref(), e.annot))
                            .collect(),
                        [
                            &tr.rmw_pairs[..],
                            &tr.addr_deps[..],
                            &tr.data_deps[..],
                            &tr.ctrl_deps[..],
                        ],
                    );
                    let next = ids.len() as u32;
                    *ids.entry(shape).or_insert(next)
                })
                .collect()
        })
        .collect()
}

/// The per-thread shape ids of the combo `choice`: combos with equal
/// vectors have the same skeleton up to values.
fn combo_shape(shapes: &[Vec<u32>], choice: &[usize]) -> Vec<u32> {
    choice
        .iter()
        .enumerate()
        .map(|(t, &i)| shapes[t][i])
        .collect()
}

/// Counts a combo's candidate space — the number of rf × co candidates
/// its DFS charges — from the chosen traces alone, without building the
/// combo's graph: exactly `run_combo`'s `rf_tail[0]`, and 0 iff some read
/// has no candidate writer (`build_combined(..).rf_candidates()` is
/// `None`). A read's candidate writers are its location's init write, the
/// po-earlier writes of its own trace and every write of another trace,
/// each carrying the value it reads; each location with `m` non-init
/// writes contributes `m!` coherence orders.
struct RfSupply {
    /// Per thread, per trace: its reads as `(own, id)` — the number of
    /// writers the init write and the trace's own po-earlier writes supply
    /// to a read of the `(location, value)` id `id`. Sorted, so the reads
    /// only other threads can justify come first and an unjustifiable
    /// combo is rejected early.
    reads: Vec<Vec<Vec<(u64, u32)>>>,
    /// Per thread, per trace: `(id, count)` of the `(location, value)` ids
    /// it writes, sorted by id.
    writes: Vec<Vec<Vec<(u32, u64)>>>,
    /// Per thread, per trace: its write count per location index (up to
    /// the last location it writes).
    loc_writes: Vec<Vec<Vec<u64>>>,
    /// Number of distinct locations the traces access.
    locs: usize,
}

impl RfSupply {
    fn new(test: &LitmusTest, thread_traces: &[Vec<Trace>]) -> RfSupply {
        // A location declared twice keeps its last init write, as in
        // `build_combined`.
        let init: HashMap<&Loc, &Val> = test.locs.iter().map(|d| (&d.loc, &d.init)).collect();
        // Per distinct (location, value): its id, whether it is the
        // location's init value, and the location's index in `locs`.
        let mut ids: HashMap<(&Loc, &Val), (u32, bool, usize)> = HashMap::new();
        let mut locs: Vec<&Loc> = Vec::new();
        let mut reads = Vec::with_capacity(thread_traces.len());
        let mut writes = Vec::with_capacity(thread_traces.len());
        let mut loc_writes = Vec::with_capacity(thread_traces.len());
        for traces in thread_traces {
            let mut t_reads = Vec::with_capacity(traces.len());
            let mut t_writes = Vec::with_capacity(traces.len());
            let mut t_loc_writes = Vec::with_capacity(traces.len());
            for tr in traces {
                let mut read: Vec<(u64, u32)> = Vec::new();
                let mut wrote: Vec<(u32, u64)> = Vec::new();
                let mut by_loc: Vec<u64> = Vec::new();
                for e in &tr.events {
                    let (Some(loc), Some(val)) = (e.loc.as_ref(), e.val.as_ref()) else {
                        continue;
                    };
                    let next = ids.len() as u32;
                    let (id, is_init, l) = *ids.entry((loc, val)).or_insert_with(|| {
                        let l = locs.iter().position(|&x| x == loc).unwrap_or_else(|| {
                            locs.push(loc);
                            locs.len() - 1
                        });
                        (next, init.get(loc) == Some(&val), l)
                    });
                    match e.kind {
                        EventKind::Read => {
                            let own = u64::from(is_init)
                                + wrote.iter().find(|&&(w, _)| w == id).map_or(0, |&(_, n)| n);
                            read.push((own, id));
                        }
                        EventKind::Write => {
                            match wrote.iter_mut().find(|(w, _)| *w == id) {
                                Some((_, n)) => *n += 1,
                                None => wrote.push((id, 1)),
                            }
                            if by_loc.len() <= l {
                                by_loc.resize(l + 1, 0);
                            }
                            by_loc[l] += 1;
                        }
                        EventKind::Fence => {}
                    }
                }
                read.sort_unstable();
                wrote.sort_unstable();
                t_reads.push(read);
                t_writes.push(wrote);
                t_loc_writes.push(by_loc);
            }
            reads.push(t_reads);
            writes.push(t_writes);
            loc_writes.push(t_loc_writes);
        }
        RfSupply {
            reads,
            writes,
            loc_writes,
            locs: locs.len(),
        }
    }

    /// The candidate space of the combo `choice` (per-thread trace
    /// indices): Π over reads of their candidate writers × Π over
    /// locations of `m_l!`, saturating like the DFS's subtree sizes; 0 iff
    /// some read has no candidate writer.
    fn space(&self, choice: &[usize]) -> u64 {
        let mut space = 1u64;
        for (t, reads) in self.reads.iter().enumerate() {
            for &(own, id) in &reads[choice[t]] {
                let writers = choice
                    .iter()
                    .enumerate()
                    .filter(|&(u, _)| u != t)
                    .fold(own, |sum, (u, &i)| {
                        let w = &self.writes[u][i];
                        sum + w.binary_search_by_key(&id, |&(wid, _)| wid).map_or(0, |k| w[k].1)
                    });
                if writers == 0 {
                    return 0;
                }
                space = space.saturating_mul(writers);
            }
        }
        (0..self.locs).fold(space, |p, l| {
            let m = choice
                .iter()
                .enumerate()
                .map(|(t, &i)| self.loc_writes[t][i].get(l).copied().unwrap_or(0))
                .sum();
            p.saturating_mul(fact(m))
        })
    }
}

/// The open model session, the shape-id vector of the skeleton it was
/// opened on, and that skeleton's graph. The DFS pops every push and
/// undoes every rf/co edge and coherence swap, so when a combo ends both
/// the session and the graph are back at their baseline and serve the next
/// combo of the same skeleton, which only re-values the graph (module
/// docs, "Session reuse").
struct Session<'a> {
    shape: Vec<u32>,
    skeleton: Skeleton,
    checker: Box<dyn ComboChecker + 'a>,
}

/// One combo skeleton's graph and the per-combo data that does not depend
/// on values, built by [`build_combined`] once per session. Only the
/// events' values change from one combo of the skeleton to the next
/// ([`Skeleton::revalue`]).
struct Skeleton {
    /// The candidate the DFS extends: the current combo's events and the
    /// fixed relations; `rf` and `co` are empty at rest.
    execution: Execution,
    /// Non-init read event ids, in id order.
    reads: Vec<EventId>,
    /// Per read, its value-independent candidate writers: the writes of
    /// its location (init write first, id order) that are not po-later in
    /// its own thread. A combo's rf candidates are those of them carrying
    /// the read's value.
    writers: Vec<Vec<EventId>>,
    /// Per location, the non-init writes; permuted in place (swap DFS).
    co_writes: Vec<Vec<EventId>>,
    /// Per location, the current coherence chain (init write first).
    chains: Vec<Vec<EventId>>,
    /// `co_tail[li]` = Π_{l ≥ li} m_l!  (`co_tail[len]` = 1): coherence
    /// subtree sizes for pruned-candidate accounting.
    co_tail: Vec<u64>,
    /// Each written location's index into the per-location vectors.
    loc_index: BTreeMap<Loc, usize>,
    /// Whether an allowed execution writes read-only memory: a property of
    /// the events' kinds and locations, not of values or rf/co.
    writes_readonly: bool,
    /// The SC-per-location filter, when the model forbids what it skips
    /// and the skeleton has a same-location po pair for it to act on.
    sc: Option<ScFilter>,
}

impl Skeleton {
    /// Builds the graph of the combo `traces`, with the SC-per-location
    /// filter if `sc_filter` (the model forbids every candidate it skips).
    fn new(
        test: &LitmusTest,
        readonly: &BTreeSet<Loc>,
        traces: &[&Trace],
        sc_filter: bool,
    ) -> Skeleton {
        let Combined {
            events,
            po,
            rmw,
            addr,
            data,
            ctrl,
            reads,
            writes_by_loc,
            init_of,
            final_regs: _,
        } = build_combined(test, traces);
        let writers = reads
            .iter()
            .map(|&r| {
                let re = &events[r.index()];
                let loc = re.loc.as_ref().expect("reads have locations");
                writes_by_loc.get(loc).map_or_else(Vec::new, |ws| {
                    ws.iter()
                        .copied()
                        .filter(|&w| {
                            // Exclude same-thread po-later-or-equal writes.
                            let we = &events[w.index()];
                            !(we.thread == re.thread && we.po_index >= re.po_index)
                        })
                        .collect()
                })
            })
            .collect();
        let co_writes: Vec<Vec<EventId>> = writes_by_loc
            .values()
            .map(|w| w[1..].to_vec()) // element 0 is init
            .collect();
        let chains = writes_by_loc.keys().map(|l| vec![init_of[l]]).collect();
        let mut co_tail = vec![1u64; co_writes.len() + 1];
        for li in (0..co_writes.len()).rev() {
            co_tail[li] = fact(co_writes[li].len() as u64).saturating_mul(co_tail[li + 1]);
        }
        let writes_readonly = !readonly.is_empty()
            && events.iter().any(|e: &Event| {
                e.kind == EventKind::Write
                    && !e.is_init()
                    && e.loc.as_ref().is_some_and(|l| readonly.contains(l))
            });
        let sc = if sc_filter {
            ScFilter::new(&events, &writes_by_loc)
        } else {
            None
        };
        Skeleton {
            execution: Execution {
                events,
                po,
                rf: Relation::new(),
                co: Relation::new(),
                rmw,
                addr,
                data,
                ctrl,
                outcome: Outcome::new(),
            },
            reads,
            writers,
            co_writes,
            chains,
            co_tail,
            loc_index: writes_by_loc.into_keys().zip(0..).collect(),
            writes_readonly,
            sc,
        }
    }

    /// Gives the events the values of the combo `traces`, which has this
    /// skeleton: event ids are laid out thread by thread after the init
    /// writes, identically for every combo of one shape.
    fn revalue(&mut self, test: &LitmusTest, traces: &[&Trace]) {
        let events = &mut self.execution.events[test.locs.len()..];
        for (e, te) in events.iter_mut().zip(traces.iter().flat_map(|t| &t.events)) {
            e.val.clone_from(&te.val);
        }
    }

    /// The rf candidates per read under the current values: same
    /// location, same value, not po-later in the same thread. Reading from
    /// one's own future breaks SC per location, which every bundled source
    /// and architecture model forbids; `hw-inorder` alone allows it, but it
    /// only ever runs intersected with an architecture model. A read of a
    /// justified combo has at least one.
    fn rf_candidates(&self) -> Vec<Vec<EventId>> {
        let events = &self.execution.events;
        self.reads
            .iter()
            .zip(&self.writers)
            .map(|(&r, ws)| {
                let val = &events[r.index()].val;
                ws.iter()
                    .copied()
                    .filter(|w| events[w.index()].val == *val)
                    .collect()
            })
            .collect()
    }

    /// The first part of this graph, as valued for the combo `traces`, that
    /// differs from a fresh [`build_combined`] of that combo — events with
    /// values, `po`, dependencies, reads, per-location writes, rf
    /// candidates or the register outcome — or `None` if they all agree.
    /// Only a graph at rest (no rf/co edges, coherence swaps undone)
    /// agrees.
    fn difference(
        &self,
        test: &LitmusTest,
        traces: &[&Trace],
        observed: &BTreeSet<StateKey>,
    ) -> Option<&'static str> {
        let fresh = build_combined(test, traces);
        let x = &self.execution;
        let writes = self
            .chains
            .iter()
            .zip(&self.co_writes)
            .map(|(chain, co)| chain.iter().chain(co).copied().collect::<Vec<_>>());
        let mut fresh_regs = Outcome::new();
        for key in observed {
            if let StateKey::Reg(t, r) = key {
                let v = fresh.final_regs.get(&(*t, r.clone()));
                fresh_regs.set(key.clone(), v.cloned().unwrap_or(Val::Int(0)));
            }
        }
        [
            ("rf/co at rest", x.rf.is_empty() && x.co.is_empty()),
            ("events", x.events == fresh.events),
            ("po", x.po == fresh.po),
            ("rmw", x.rmw == fresh.rmw),
            ("addr", x.addr == fresh.addr),
            ("data", x.data == fresh.data),
            ("ctrl", x.ctrl == fresh.ctrl),
            ("reads", self.reads == fresh.reads),
            ("locations", self.loc_index.keys().eq(fresh.writes_by_loc.keys())),
            ("writes", writes.eq(fresh.writes_by_loc.values().cloned())),
            ("rf candidates", Some(self.rf_candidates()) == fresh.rf_candidates()),
            ("register outcome", reg_outcome(observed, traces) == fresh_regs),
        ]
        .into_iter()
        .find_map(|(part, same)| (!same).then_some(part))
    }
}

/// [`ScFilter::forced`] bit no chain ever holds: the write would have to
/// precede its location's init write, so it can never be placed.
const NEVER: u64 = 1 << 63;

/// [`ScFilter::bit`] of an init write, which heads every chain.
const INIT_BIT: u8 = u8::MAX;

/// [`ScFilter::bit`] of an event that is no write of a filtered location.
const NO_BIT: u8 = u8::MAX - 1;

/// The coherence predecessors that SC per location forces on each write
/// (module docs, "The SC-per-location filter"). The filtered locations
/// are those with 1 to 63 non-init writes, so a location's writes fit a
/// `u64` mask beside [`NEVER`]; at a location with one, only a forced
/// [`NEVER`] can refuse a pick.
struct ScFilter {
    /// Per event: a non-init write's bit at its filtered location (its
    /// position in the location's writes as built), [`INIT_BIT`] for the
    /// init write of a filtered location, [`NO_BIT`] otherwise.
    bit: Vec<u8>,
    /// The po-ordered pairs of accesses to one filtered location; `(a, b)`
    /// forces the write `a` is or reads from before the write `b` is or
    /// reads from.
    pairs: Vec<(EventId, EventId)>,
    /// Per event: the predecessors forced under the current rf.
    forced: Vec<u64>,
    /// Per event: the event itself for a write, its current rf source for
    /// a read.
    src: Vec<EventId>,
    /// Per location: the bits of the writes in its chain.
    placed: Vec<u64>,
}

impl ScFilter {
    /// The filter of a skeleton, from its same-location po pairs; `None`
    /// when no filtered location has one.
    fn new(events: &[Event], writes_by_loc: &BTreeMap<Loc, Vec<EventId>>) -> Option<ScFilter> {
        let n = events.len();
        let mut bit = vec![NO_BIT; n];
        for ws in writes_by_loc.values() {
            if (2..=64).contains(&ws.len()) {
                bit[ws[0].index()] = INIT_BIT;
                for (b, w) in ws[1..].iter().enumerate() {
                    bit[w.index()] = b as u8;
                }
            }
        }
        let filtered = |e: &Event| {
            !e.is_init()
                && matches!(e.kind, EventKind::Read | EventKind::Write)
                && e.loc
                    .as_ref()
                    .and_then(|l| writes_by_loc.get(l))
                    .is_some_and(|ws| bit[ws[0].index()] == INIT_BIT)
        };
        let mut pairs = Vec::new();
        // A thread's events are contiguous and in program order.
        for (i, a) in events.iter().enumerate().filter(|&(_, a)| filtered(a)) {
            for b in events[i + 1..].iter().take_while(|b| b.thread == a.thread) {
                if b.loc == a.loc && filtered(b) {
                    pairs.push((a.id, b.id));
                }
            }
        }
        (!pairs.is_empty()).then(|| ScFilter {
            bit,
            pairs,
            forced: vec![0; n],
            src: (0..n as u32).map(EventId).collect(),
            placed: vec![0; writes_by_loc.len()],
        })
    }

    /// Derives the forced predecessors of every write from the complete rf
    /// assignment in `src`.
    fn derive(&mut self) {
        self.forced.fill(0);
        for &(a, b) in &self.pairs {
            let (p, w) = (self.src[a.index()], self.src[b.index()]);
            if p == w {
                continue;
            }
            match (self.bit[p.index()], self.bit[w.index()]) {
                (INIT_BIT, _) => {}
                (_, INIT_BIT) => self.forced[p.index()] |= NEVER,
                (pb, _) => self.forced[w.index()] |= 1 << pb,
            }
        }
    }

    /// Whether every forced predecessor of `w` is in location `li`'s chain.
    fn allows(&self, li: usize, w: EventId) -> bool {
        self.forced[w.index()] & !self.placed[li] == 0
    }

    /// Records that `w` joined (`on`) or left location `li`'s chain.
    fn place(&mut self, li: usize, w: EventId, on: bool) {
        let b = self.bit[w.index()];
        if b < 64 {
            if on {
                self.placed[li] |= 1 << b;
            } else {
                self.placed[li] &= !(1 << b);
            }
        }
    }
}

/// The register part of a combo's outcome: each observed register's final
/// value in its thread's chosen trace (0 when the trace never sets it).
fn reg_outcome(observed: &BTreeSet<StateKey>, traces: &[&Trace]) -> Outcome {
    let mut out = Outcome::new();
    for key in observed {
        if let StateKey::Reg(t, r) = key {
            let v = traces
                .get(t.index())
                .and_then(|tr| tr.final_regs.get(r))
                .cloned()
                .unwrap_or(Val::Int(0));
            out.set(key.clone(), v);
        }
    }
    out
}

/// Saturating factorial (subtree sizes; saturation only ever *over*-counts,
/// which can only trip the budget earlier, never later).
fn fact(n: u64) -> u64 {
    (2..=n).try_fold(1u64, u64::checked_mul).unwrap_or(u64::MAX)
}

/// Partial checks are only worth their cost when a real subtree hangs off
/// the node: below this many completions the engine just enumerates (the
/// leaves' full checks dominate either way, and skipping the hook keeps
/// small simulations at reference-engine speed).
const PRUNE_THRESHOLD: u64 = 8;

/// Runs the DFS of one justified combo, whose candidate space the count
/// pass found to be `space`, folding its tallies into `result`.
///
/// `session` is the previous combo's session: reused with its graph,
/// re-valued, when its shape matches this combo's, replaced otherwise. A
/// combo that finishes leaves its session there for the next one.
fn run_combo<'a>(
    ctx: &SimCtx<'a>,
    choice: &[usize],
    space: u64,
    session: &mut Option<Session<'a>>,
    result: &mut SimResult,
) -> Result<()> {
    let traces = chosen_traces(ctx.thread_traces, choice);
    let shape = combo_shape(ctx.shapes, choice);
    // The model's combo session on the skeleton: combo-constant derived
    // relations (loc/ext/int, annotation sets, …) are computed when it
    // opens and shared by every candidate below. Incremental sessions
    // additionally receive every DFS edge push/pop (see `ComboChecker`).
    // A session left at its baseline by a combo of the same value-erased
    // skeleton is reused with its graph, which only takes this combo's
    // values; any other skeleton builds its graph and opens a session.
    let session = match session {
        Some(s) if s.shape == shape => {
            s.skeleton.revalue(ctx.test, &traces);
            s
        }
        _ => {
            *session = None; // one graph at a time
            let skeleton = Skeleton::new(ctx.test, ctx.readonly, &traces, ctx.sc_rule.is_some());
            let checker = ctx.model.combo_checker(&skeleton.execution);
            session.insert(Session {
                shape,
                skeleton,
                checker,
            })
        }
    };
    debug_assert_eq!(
        session.skeleton.difference(ctx.test, &traces, ctx.observed),
        None,
        "the re-valued skeleton equals a fresh build of the combo"
    );
    let rf_choices = session.skeleton.rf_candidates();
    // rf_tail[i] = Π_{j ≥ i} |rf_choices[j]| × Π_l m_l!  (rf_tail[len] = co_tail[0])
    let mut rf_tail = vec![session.skeleton.co_tail[0]; rf_choices.len() + 1];
    for i in (0..rf_choices.len()).rev() {
        rf_tail[i] = (rf_choices[i].len() as u64).saturating_mul(rf_tail[i + 1]);
    }

    let incremental = session.checker.incremental();
    let evals_before = session.checker.frontier_evals();
    let candidates_before = result.candidates;

    let mut run = ComboRun {
        ctx,
        checker: &mut *session.checker,
        incremental,
        skel: &mut session.skeleton,
        rf_choices,
        rf_tail,
        reg_outcome: reg_outcome(ctx.observed, &traces),
        out: result,
        visits: 0,
    };
    run.assign_rf(0)?;
    let charged = run.out.candidates - candidates_before;
    debug_assert_eq!(charged, space, "the DFS charges the counted space");
    run.out.frontier_evals += run.checker.frontier_evals() - evals_before;
    // One DFS-size sample per combo.
    run.out.combo_candidates.record(charged);
    Ok(())
}

/// The per-combo DFS state: the session's one mutable skeleton, extended
/// and undone as the builder walks rf choices and coherence prefixes.
struct ComboRun<'a, 'c> {
    ctx: &'c SimCtx<'a>,
    checker: &'c mut (dyn ComboChecker + 'a),
    /// Whether `checker` opted into the per-edge incremental protocol.
    incremental: bool,
    skel: &'c mut Skeleton,
    rf_choices: Vec<Vec<EventId>>,
    rf_tail: Vec<u64>,
    reg_outcome: Outcome,
    /// The simulation's result, which this combo's tallies fold into.
    out: &'c mut SimResult,
    visits: u64,
}

impl ComboRun<'_, '_> {
    /// Accounts `n` candidates (examined or pruned) to the simulation. The
    /// count pass already checked the budget against the combo's whole
    /// space.
    fn charge(&mut self, n: u64) {
        self.out.candidates = self.out.candidates.saturating_add(n);
    }

    /// [`ComboRun::charge`] for a pruned subtree: the charge also lands in
    /// the pruned tally, so `SimResult::pruned_candidates` reports how much
    /// of the candidate space prunes covered. Always on: it feeds result
    /// accounting, not just telemetry.
    fn charge_pruned(&mut self, n: u64) {
        self.out.pruned_candidates = self.out.pruned_candidates.saturating_add(n);
        self.charge(n);
    }

    /// Attribution for a prune of `n` candidates, recorded just before the
    /// cut is charged: which site fired (the assignment layer × whether
    /// the incremental session or a periodic recheck said `Forbidden`),
    /// and — when the session can name it — the first-violated rule. A
    /// pick the SC-per-location filter skips (`sc_skip`) is blamed on the
    /// model's SC-per-location rule.
    fn attribute_prune(&mut self, n: u64, rf_site: bool, sc_skip: bool) {
        let sites = &mut self.out.prune_sites;
        match (rf_site, self.incremental) {
            (true, true) => sites.rf_incremental += n,
            (true, false) => sites.rf_recheck += n,
            (false, true) => sites.co_incremental += n,
            (false, false) => sites.co_recheck += n,
        }
        let rule = if sc_skip {
            self.ctx.sc_rule
        } else {
            self.checker.blame()
        };
        // Look the rule up by `&str` first: only a simulation's first
        // prune per rule allocates its key.
        if let Some(rule) = rule {
            match self.out.rule_prunes.get_mut(rule) {
                Some(total) => *total += n,
                None => {
                    self.out.rule_prunes.insert(rule.to_string(), n);
                }
            }
        }
    }

    /// Periodic deadline check.
    fn tick(&mut self) -> Result<()> {
        self.visits += 1;
        if self.visits.is_multiple_of(256) {
            self.ctx.check_deadline()
        } else {
            Ok(())
        }
    }

    /// Stage 2: justify read `i`, then recurse; prune on partial verdicts.
    ///
    /// Incremental sessions see *every* edge (`push_rf`/`pop_rf`) and their
    /// verdict is free, so any `Forbidden` prunes regardless of subtree
    /// size; re-check sessions are only consulted when a subtree of at
    /// least [`PRUNE_THRESHOLD`] completions hangs off the node.
    fn assign_rf(&mut self, i: usize) -> Result<()> {
        if i == self.skel.reads.len() {
            if let Some(sc) = &mut self.skel.sc {
                sc.derive();
            }
            return self.assign_co(0, 0);
        }
        let r = self.skel.reads[i];
        let subtree = self.rf_tail[i + 1];
        for ci in 0..self.rf_choices[i].len() {
            let w = self.rf_choices[i][ci];
            self.skel.execution.rf.insert(w, r);
            if let Some(sc) = &mut self.skel.sc {
                sc.src[r.index()] = w;
            }
            let verdict = if self.incremental {
                self.out.pushes += 1;
                self.checker.push_rf(&self.skel.execution, w, r)
            } else if subtree >= PRUNE_THRESHOLD {
                self.checker.check_partial(&self.skel.execution)
            } else {
                PartialVerdict::Undecided
            };
            let res = if verdict == PartialVerdict::Forbidden {
                self.attribute_prune(subtree, true, false);
                self.charge_pruned(subtree);
                Ok(())
            } else {
                self.assign_rf(i + 1)
            };
            if self.incremental {
                self.checker.pop_rf(&self.skel.execution, w, r);
            }
            self.skel.execution.rf.remove(w, r);
            res?;
        }
        Ok(())
    }

    /// Stage 3: extend location `li`'s coherence chain by one write
    /// (position `k`), lazily walking permutations with undo. A pick the
    /// SC-per-location filter refuses is charged and skipped unpushed.
    fn assign_co(&mut self, li: usize, k: usize) -> Result<()> {
        if li == self.skel.chains.len() {
            return self.leaf();
        }
        let m = self.skel.co_writes[li].len();
        if k == m {
            return self.assign_co(li + 1, 0);
        }
        for pick in k..m {
            self.skel.co_writes[li].swap(k, pick);
            let w = self.skel.co_writes[li][k];
            let subtree = fact((m - k - 1) as u64).saturating_mul(self.skel.co_tail[li + 1]);
            if self.skel.sc.as_ref().is_some_and(|sc| !sc.allows(li, w)) {
                self.attribute_prune(subtree, false, true);
                self.charge_pruned(subtree);
                self.skel.co_writes[li].swap(k, pick);
                continue;
            }
            // Extend co transitively: every chain element precedes `w`.
            for idx in 0..self.skel.chains[li].len() {
                let p = self.skel.chains[li][idx];
                self.skel.execution.co.insert(p, w);
            }
            let verdict = if self.incremental {
                self.out.pushes += 1;
                self.checker.push_co(&self.skel.execution, &self.skel.chains[li], w)
            } else {
                PartialVerdict::Undecided
            };
            self.skel.chains[li].push(w);
            if let Some(sc) = &mut self.skel.sc {
                sc.place(li, w, true);
            }
            let pruned = if self.incremental {
                verdict == PartialVerdict::Forbidden
            } else {
                subtree >= PRUNE_THRESHOLD
                    && self.checker.check_partial(&self.skel.execution) == PartialVerdict::Forbidden
            };
            let res = if pruned {
                self.attribute_prune(subtree, false, false);
                self.charge_pruned(subtree);
                Ok(())
            } else {
                self.assign_co(li, k + 1)
            };
            if let Some(sc) = &mut self.skel.sc {
                sc.place(li, w, false);
            }
            self.skel.chains[li].pop();
            if self.incremental {
                self.checker.pop_co(&self.skel.execution, &self.skel.chains[li], w);
            }
            for idx in 0..self.skel.chains[li].len() {
                let p = self.skel.chains[li][idx];
                self.skel.execution.co.remove(p, w);
            }
            self.skel.co_writes[li].swap(k, pick);
            res?;
        }
        Ok(())
    }

    /// A complete candidate: judge it and record the outcome if allowed.
    fn leaf(&mut self) -> Result<()> {
        self.charge(1);
        self.tick()?;

        // Outcome: registers (fixed) + observed locations (co-final).
        let mut outcome = self.reg_outcome.clone();
        for key in self.ctx.observed {
            if let StateKey::Loc(l) = key {
                let v = match self.skel.loc_index.get(l) {
                    Some(&li) => {
                        let w = *self.skel.chains[li].last().expect("init present");
                        self.skel.execution.events[w.index()]
                            .val
                            .clone()
                            .expect("writes have values")
                    }
                    None => self.ctx.test.init_of(l),
                };
                outcome.set(key.clone(), v);
            }
        }
        self.skel.execution.outcome = outcome;

        match self.checker.check(&self.skel.execution) {
            Verdict::Allowed { flags } => {
                self.out.allowed += 1;
                self.out.flags.extend(flags);
                if self.skel.writes_readonly {
                    self.out.crashed = true;
                }
                self.out.outcomes.insert(self.skel.execution.outcome.clone());
                if self.ctx.config.keep_executions
                    && self.out.executions.len() < self.ctx.config.max_kept
                {
                    self.out.executions.push(self.skel.execution.clone());
                }
            }
            Verdict::Forbidden { rule } => {
                // First-violated-rule attribution: a pure function of the
                // candidate (the checker walks its rules in source order).
                *self.out.rule_leaves.entry(rule).or_insert(0) += 1;
            }
        }
        Ok(())
    }
}

/// Combined event graph for one trace combination (rf/co not yet chosen).
///
/// [`simulate`] builds one per skeleton and re-values it for the other
/// combos of the skeleton ([`Skeleton`]); the reference engine and
/// [`precheck_agreement`] build one per combo. The dependency relations
/// are shared (immutably) by every rf/co candidate of the combo.
pub(crate) struct Combined {
    pub(crate) events: Vec<Event>,
    /// Program order: transitive, intra-thread, init writes excluded —
    /// built in one pass over the per-thread event chains.
    pub(crate) po: Relation,
    pub(crate) rmw: Relation,
    pub(crate) addr: Relation,
    pub(crate) data: Relation,
    pub(crate) ctrl: Relation,
    /// Non-init read event ids, in id order.
    pub(crate) reads: Vec<EventId>,
    /// Writes per location (init write first), in id order.
    pub(crate) writes_by_loc: BTreeMap<Loc, Vec<EventId>>,
    /// Init write id per location.
    pub(crate) init_of: BTreeMap<Loc, EventId>,
    /// Final register file per thread.
    pub(crate) final_regs: BTreeMap<(ThreadId, Reg), Val>,
}

impl Combined {
    /// rf candidates per read: same location, same value, not po-later in
    /// the same thread. Reading from one's own future breaks SC per
    /// location, which every bundled source and architecture model
    /// forbids; `hw-inorder` alone allows it, but it only ever runs
    /// intersected with an architecture model.
    ///
    /// Returns `None` when some read has no justifying write — the combo
    /// contributes no executions at all.
    pub(crate) fn rf_candidates(&self) -> Option<Vec<Vec<EventId>>> {
        let mut rf_choices: Vec<Vec<EventId>> = Vec::with_capacity(self.reads.len());
        let empty = Vec::new();
        for &r in &self.reads {
            let re = &self.events[r.index()];
            let loc = re.loc.as_ref().expect("reads have locations");
            let val = re.val.as_ref().expect("reads have values");
            let cands: Vec<EventId> = self
                .writes_by_loc
                .get(loc)
                .unwrap_or(&empty)
                .iter()
                .copied()
                .filter(|&w| {
                    let we = &self.events[w.index()];
                    if we.val.as_ref() != Some(val) {
                        return false;
                    }
                    // Exclude same-thread po-later-or-equal writes.
                    !(we.thread == re.thread && we.po_index >= re.po_index)
                })
                .collect();
            if cands.is_empty() {
                return None;
            }
            rf_choices.push(cands);
        }
        Some(rf_choices)
    }
}

/// Builds the combo's shared event graph: events, one-pass transitive
/// `po`, dependency relations, and the read/write indices.
pub(crate) fn build_combined(test: &LitmusTest, traces: &[&Trace]) -> Combined {
    let mut events = Vec::new();
    let mut init_of = BTreeMap::new();
    let mut writes_by_loc: BTreeMap<Loc, Vec<EventId>> = BTreeMap::new();

    for (i, d) in test.locs.iter().enumerate() {
        let id = EventId(events.len() as u32);
        events.push(Event {
            id,
            thread: INIT_THREAD,
            po_index: i,
            kind: EventKind::Write,
            loc: Some(d.loc.clone()),
            val: Some(d.init.clone()),
            annot: AnnotSet::one(Annot::Init),
        });
        init_of.insert(d.loc.clone(), id);
        writes_by_loc.insert(d.loc.clone(), vec![id]);
    }

    let mut rmw = Relation::new();
    let mut addr = Relation::new();
    let mut data = Relation::new();
    let mut ctrl = Relation::new();
    let mut reads = Vec::new();
    let mut final_regs = BTreeMap::new();
    let mut po_chains: Vec<Vec<EventId>> = Vec::with_capacity(traces.len());

    for (tindex, trace) in traces.iter().enumerate() {
        let thread = ThreadId(tindex as u8);
        let base = events.len() as u32;
        let gid = |local: usize| EventId(base + local as u32);
        let mut chain = Vec::with_capacity(trace.events.len());
        for (j, te) in trace.events.iter().enumerate() {
            let id = gid(j);
            events.push(Event {
                id,
                thread,
                po_index: j,
                kind: te.kind,
                loc: te.loc.clone(),
                val: te.val.clone(),
                annot: te.annot,
            });
            match te.kind {
                EventKind::Read => reads.push(id),
                EventKind::Write => {
                    let loc = te.loc.clone().expect("writes have locations");
                    writes_by_loc.entry(loc).or_default().push(id);
                }
                EventKind::Fence => {}
            }
            chain.push(id);
        }
        po_chains.push(chain);
        for &(r, w) in &trace.rmw_pairs {
            rmw.insert(gid(r), gid(w));
        }
        for &(a, b) in &trace.addr_deps {
            addr.insert(gid(a), gid(b));
        }
        for &(a, b) in &trace.data_deps {
            data.insert(gid(a), gid(b));
        }
        for &(a, b) in &trace.ctrl_deps {
            ctrl.insert(gid(a), gid(b));
        }
        for (r, v) in &trace.final_regs {
            final_regs.insert((thread, r.clone()), v.clone());
        }
    }

    // Transitive program order, one bulk construction for all threads.
    let po = Relation::total_order(po_chains.iter().map(Vec::as_slice));

    Combined {
        events,
        po,
        rmw,
        addr,
        data,
        ctrl,
        reads,
        writes_by_loc,
        init_of,
        final_regs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{AllowAll, CoherenceOnly, SeqCstRef};
    use crate::reference::simulate_reference;
    use telechat_litmus::parse_c11;

    fn sim(src: &str, model: &dyn ConsistencyModel) -> SimResult {
        let test = parse_c11(src).unwrap();
        simulate(&test, model, &SimConfig::default()).unwrap()
    }

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
    fn sb_has_four_outcomes_unconstrained() {
        let r = sim(SB, &AllowAll);
        // (r0,r1) in {0,1}²
        assert_eq!(r.outcomes.len(), 4);
        assert!(r.candidates >= 4);
    }

    #[test]
    fn sc_forbids_sb_weak_outcome() {
        let test = parse_c11(SB).unwrap();
        let r = simulate(&test, &SeqCstRef, &SimConfig::default()).unwrap();
        assert_eq!(r.outcomes.len(), 3, "{}", r.outcomes);
        assert!(!test.condition.holds(&r.outcomes));
        // Coherence-only allows all four.
        let r = simulate(&test, &CoherenceOnly, &SimConfig::default()).unwrap();
        assert!(test.condition.holds(&r.outcomes));
    }

    const LB: &str = r#"
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
"#;

    #[test]
    fn lb_weak_outcome_needs_weak_model() {
        let test = parse_c11(LB).unwrap();
        let sc = simulate(&test, &SeqCstRef, &SimConfig::default()).unwrap();
        assert!(!test.condition.holds(&sc.outcomes), "SC forbids LB");
        assert_eq!(sc.outcomes.len(), 3);
        let weak = simulate(&test, &CoherenceOnly, &SimConfig::default()).unwrap();
        assert!(test.condition.holds(&weak.outcomes), "coherence allows LB");
        assert_eq!(weak.outcomes.len(), 4);
    }

    #[test]
    fn coherence_corr() {
        // CoRR: two reads of the same location in one thread must not see
        // values in anti-coherence order.
        let src = r#"
C11 "CoRR"
{ x = 0; }
P0 (atomic_int* x) {
  atomic_store_explicit(x, 1, memory_order_relaxed);
}
P1 (atomic_int* x) {
  int r0 = atomic_load_explicit(x, memory_order_relaxed);
  int r1 = atomic_load_explicit(x, memory_order_relaxed);
}
exists (P1:r0=1 /\ P1:r1=0)
"#;
        let test = parse_c11(src).unwrap();
        let r = simulate(&test, &CoherenceOnly, &SimConfig::default()).unwrap();
        assert!(
            !test.condition.holds(&r.outcomes),
            "new-then-old read is anti-coherent: {}",
            r.outcomes
        );
        // But with no model at all the candidate exists.
        let r = simulate(&test, &AllowAll, &SimConfig::default()).unwrap();
        assert!(test.condition.holds(&r.outcomes));
    }

    /// Two parallel fetch_adds: every combo has one skeleton, and the
    /// values the fetch_adds write differ between combos.
    const TWO_FA: &str = r#"
C11 "2+FA"
{ x = 0; }
P0 (atomic_int* x) {
  int r0 = atomic_fetch_add_explicit(x, 1, memory_order_relaxed);
}
P1 (atomic_int* x) {
  int r0 = atomic_fetch_add_explicit(x, 1, memory_order_relaxed);
}
exists (P0:r0=0 /\ P1:r0=0)
"#;

    #[test]
    fn rmw_atomicity_enforced() {
        // Two parallel fetch_adds must not both read 0 (one must see the
        // other) — the classic increment-atomicity test.
        let test = parse_c11(TWO_FA).unwrap();
        let r = simulate(&test, &CoherenceOnly, &SimConfig::default()).unwrap();
        assert!(
            !test.condition.holds(&r.outcomes),
            "atomicity violated: {}",
            r.outcomes
        );
        // Final value must be 2 in every execution where both RMWs ran.
        let obs = simulate(
            &parse_c11(
                r#"
C11 "2+FA+final"
{ x = 0; }
P0 (atomic_int* x) {
  int r0 = atomic_fetch_add_explicit(x, 1, memory_order_relaxed);
}
P1 (atomic_int* x) {
  int r0 = atomic_fetch_add_explicit(x, 1, memory_order_relaxed);
}
forall ([x]=2)
"#,
            )
            .unwrap(),
            &CoherenceOnly,
            &SimConfig::default(),
        )
        .unwrap();
        assert_eq!(obs.outcomes.len(), 1);
    }

    #[test]
    fn observed_location_final_values() {
        let src = r#"
C11 "finals"
{ x = 0; }
P0 (atomic_int* x) {
  atomic_store_explicit(x, 1, memory_order_relaxed);
}
P1 (atomic_int* x) {
  atomic_store_explicit(x, 2, memory_order_relaxed);
}
exists (x=1 \/ x=2)
"#;
        let test = parse_c11(src).unwrap();
        let r = simulate(&test, &SeqCstRef, &SimConfig::default()).unwrap();
        // Both coherence orders are allowed: final x ∈ {1, 2}.
        assert_eq!(r.outcomes.len(), 2, "{}", r.outcomes);
        assert!(test.condition.holds(&r.outcomes));
    }

    #[test]
    fn crash_detection_on_const_write() {
        let src = r#"
C11 "const-write"
{ const c = 5; }
P0 (atomic_int* c) {
  atomic_store_explicit(c, 1, memory_order_relaxed);
}
exists (true)
"#;
        let test = parse_c11(src).unwrap();
        let r = simulate(&test, &AllowAll, &SimConfig::default()).unwrap();
        assert!(r.crashed, "store to const location must flag a crash");
    }

    #[test]
    fn budget_error_on_tiny_candidate_limit() {
        let test = parse_c11(SB).unwrap();
        let cfg = SimConfig {
            max_candidates: 2,
            ..SimConfig::default()
        };
        let err = simulate(&test, &AllowAll, &cfg).unwrap_err();
        assert!(err.is_exhaustion());
    }

    #[test]
    fn deterministic_results() {
        let test = parse_c11(SB).unwrap();
        let a = simulate(&test, &SeqCstRef, &SimConfig::default()).unwrap();
        let b = simulate(&test, &SeqCstRef, &SimConfig::default()).unwrap();
        assert_eq!(a.outcomes, b.outcomes);
        assert_eq!(a.candidates, b.candidates);
    }

    #[test]
    fn keeps_executions_when_asked() {
        let test = parse_c11(SB).unwrap();
        let cfg = SimConfig::default().keeping_executions();
        let r = simulate(&test, &SeqCstRef, &cfg).unwrap();
        assert_eq!(r.executions.len() as u64, r.allowed.min(64));
        for x in &r.executions {
            assert!(!x.rf.is_empty());
        }
    }

    #[test]
    fn matches_reference_engine_exactly() {
        // The staged/pruned engine must agree with the naive oracle on
        // outcomes, candidate accounting, allowed counts and flags.
        for model in [&AllowAll as &dyn ConsistencyModel, &SeqCstRef, &CoherenceOnly] {
            for src in [SB, LB] {
                let test = parse_c11(src).unwrap();
                let cfg = SimConfig::default();
                let new = simulate(&test, model, &cfg).unwrap();
                let old = simulate_reference(&test, model, &cfg).unwrap();
                assert_eq!(new.outcomes, old.outcomes, "{} under {}", test.name, model.name());
                assert_eq!(new.candidates, old.candidates, "{}", model.name());
                assert_eq!(new.allowed, old.allowed, "{}", model.name());
                assert_eq!(new.flags, old.flags);
                assert_eq!(new.crashed, old.crashed);
            }
        }
    }

    /// Three same-value writers to one location plus a reader: two trace
    /// combos (P3 reads 0 or 1); the second's swap-DFS has decision
    /// arities [3, 3, 2, 1] (one rf choice of 3, then co positions 3·2·1).
    const WIDE_CO: &str = r#"
C11 "WIDE-CO"
{ x = 0; }
P0 (atomic_int* x) {
  atomic_store_explicit(x, 1, memory_order_relaxed);
}
P1 (atomic_int* x) {
  atomic_store_explicit(x, 1, memory_order_relaxed);
}
P2 (atomic_int* x) {
  atomic_store_explicit(x, 1, memory_order_relaxed);
}
P3 (atomic_int* x) {
  int r0 = atomic_load_explicit(x, memory_order_relaxed);
}
exists (P3:r0=1)
"#;

    #[test]
    fn work_stealing_runs_no_full_traversals() {
        // Zero full toposort traversals on SB, LB and a single combo with
        // three coherence positions (WIDE_CO), under both built-in
        // incremental models.
        for src in [SB, LB, WIDE_CO] {
            let test = parse_c11(src).unwrap();
            for model in [&SeqCstRef as &dyn ConsistencyModel, &CoherenceOnly] {
                let r = simulate(&test, model, &SimConfig::default()).unwrap();
                assert_eq!(
                    r.full_traversals, 0,
                    "full traversal during {} enumeration of {}",
                    model.name(),
                    test.name
                );
            }
        }
    }

    #[test]
    fn po_is_transitive_with_pinned_edge_count() {
        // A thread of n events carries exactly n(n-1)/2 transitive po
        // edges; init writes carry none. Pins the one-pass construction.
        let test = parse_c11(SB).unwrap();
        let cfg = SimConfig::default();
        let traces = interpret_all_traces(&test, &cfg).unwrap();
        let combo: Vec<&Trace> = traces.iter().map(|t| &t[0]).collect();
        let combined = build_combined(&test, &combo);
        let expected: usize = combo
            .iter()
            .map(|t| t.events.len() * (t.events.len() - 1) / 2)
            .sum();
        assert_eq!(combined.po.len(), expected);
        // Transitivity: every composed edge is already present.
        let closed = combined.po.transitive_closure();
        assert_eq!(closed, combined.po);
    }

    #[test]
    fn incremental_sessions_run_no_full_traversals() {
        // The acceptance pin for the incremental acyclicity state: with the
        // built-in models' incremental combo sessions, an entire simulation
        // runs zero full Kahn/toposort traversals — partial checks AND leaf
        // checks are answered from per-edge reachability state. (The
        // counter is thread-local, and the whole simulation runs here.)
        for src in [SB, LB] {
            let test = parse_c11(src).unwrap();
            for model in [&SeqCstRef as &dyn ConsistencyModel, &CoherenceOnly] {
                let before = crate::rel::full_traversals();
                simulate(&test, model, &SimConfig::default()).unwrap();
                assert_eq!(
                    crate::rel::full_traversals(),
                    before,
                    "full traversal during {} enumeration of {}",
                    model.name(),
                    test.name
                );
            }
        }
    }

    /// Three combos that differ only in the value P2 reads: one skeleton.
    const ONE_SKELETON: &str = r#"
C11 "ONE-SKELETON"
{ x = 0; }
P0 (atomic_int* x) {
  atomic_store_explicit(x, 1, memory_order_relaxed);
}
P1 (atomic_int* x) {
  atomic_store_explicit(x, 2, memory_order_relaxed);
}
P2 (atomic_int* x) {
  int r0 = atomic_load_explicit(x, memory_order_relaxed);
}
exists (P2:r0=2)
"#;

    /// Twelve combos over two skeletons: P1's six traces differ only in
    /// the values read, P2 (the most significant thread, so each skeleton
    /// is one contiguous run of combos) stores to `y` on one branch only.
    /// The branch without the store comes first, so a session wrongly
    /// kept for the second skeleton would lack its store event. The two
    /// combos where P1 reads `y = 2` but P2 does not store it are
    /// unjustifiable.
    const TWO_SKELETONS: &str = r#"
C11 "TWO-SKELETONS"
{ x = 0; y = 0; }
P0 (atomic_int* x, atomic_int* y) {
  atomic_store_explicit(x, 1, memory_order_relaxed);
  atomic_store_explicit(y, 1, memory_order_release);
}
P1 (atomic_int* x, atomic_int* y) {
  int r0 = atomic_load_explicit(y, memory_order_acquire);
  int r1 = atomic_load_explicit(x, memory_order_relaxed);
}
P2 (atomic_int* x, atomic_int* y) {
  int r0 = atomic_load_explicit(x, memory_order_relaxed);
  if (r0 == 1) {
    atomic_store_explicit(y, 2, memory_order_relaxed);
  }
}
exists (P1:r0=1 /\ P1:r1=0)
"#;

    /// P0 reads back a value its own po-earlier store and P1's store both
    /// write: reading 1 has those two candidate writers, reading 0 only
    /// the init write.
    const OWN_WRITE: &str = r#"
C11 "OWN-WRITE"
{ x = 0; }
P0 (atomic_int* x) {
  atomic_store_explicit(x, 1, memory_order_relaxed);
  int r0 = atomic_load_explicit(x, memory_order_relaxed);
}
P1 (atomic_int* x) {
  atomic_store_explicit(x, 1, memory_order_relaxed);
}
exists (P0:r0=0)
"#;

    /// Counts the sessions a simulation opens.
    struct CountSessions<'m> {
        inner: &'m dyn ConsistencyModel,
        opened: std::sync::atomic::AtomicUsize,
    }

    impl ConsistencyModel for CountSessions<'_> {
        fn name(&self) -> &str {
            self.inner.name()
        }

        fn check(&self, execution: &Execution) -> Verdict {
            self.inner.check(execution)
        }

        fn check_partial(&self, partial: &Execution) -> PartialVerdict {
            self.inner.check_partial(partial)
        }

        fn combo_checker<'a>(&'a self, skeleton: &Execution) -> Box<dyn ComboChecker + 'a> {
            self.opened.fetch_add(1, std::sync::atomic::Ordering::Relaxed);
            self.inner.combo_checker(skeleton)
        }
    }

    /// A test's justifiable combos and the distinct value-erased skeletons
    /// among them, computed from the built graphs rather than from shape
    /// ids.
    fn justifiable_skeletons(test: &LitmusTest) -> (usize, usize) {
        let traces = interpret_all_traces(test, &SimConfig::default()).unwrap();
        let counts: Vec<u64> = traces.iter().map(|t| t.len() as u64).collect();
        let total = counts.iter().product::<u64>() as usize;
        let mut combos = 0;
        let mut skeletons = BTreeSet::new();
        for idx in 0..total as u64 {
            let choice = decode_combo(&counts, idx);
            let mut c = build_combined(test, &chosen_traces(&traces, &choice));
            if c.rf_candidates().is_some() {
                combos += 1;
                for e in &mut c.events {
                    e.val = None;
                }
                skeletons.insert(format!(
                    "{:?}",
                    (&c.events, &c.po, &c.rmw, &c.addr, &c.data, &c.ctrl)
                ));
            }
        }
        (combos, skeletons.len())
    }

    #[test]
    fn sessions_are_reused_across_same_skeleton_combos() {
        // Combos of one skeleton that differ only in read values share
        // one session: exactly one session opens per skeleton, and the
        // results equal the reference engine's.
        for src in [ONE_SKELETON, TWO_SKELETONS] {
            let test = parse_c11(src).unwrap();
            let (combos, skeletons) = justifiable_skeletons(&test);
            assert!(combos > skeletons, "{}: {combos} combos, {skeletons} skeletons", test.name);
            for model in [&SeqCstRef as &dyn ConsistencyModel, &CoherenceOnly] {
                let cfg = SimConfig::default().keeping_executions();
                let counting = CountSessions {
                    inner: model,
                    opened: Default::default(),
                };
                let base = simulate(&test, &counting, &cfg).unwrap();
                let tag = format!("{} under {}", test.name, model.name());
                assert_eq!(counting.opened.into_inner(), skeletons, "{tag}: sessions");
                assert!(base.pushes > 0, "{tag}");
                let old = simulate_reference(&test, model, &cfg).unwrap();
                assert_eq!(base.outcomes, old.outcomes, "{tag}");
                assert_eq!(base.candidates, old.candidates, "{tag}");
                assert_eq!(base.allowed, old.allowed, "{tag}");
                assert_eq!(base.flags, old.flags, "{tag}");
                assert_eq!(base.crashed, old.crashed, "{tag}");
            }
        }
    }

    #[test]
    fn revalued_skeleton_equals_a_fresh_build() {
        // A combo that reuses the previous combo's graph, re-valued, sees
        // exactly the graph, rf candidates and register outcome a fresh
        // build of the combo gives.
        for src in [WIDE_CO, TWO_SKELETONS, TWO_FA] {
            let test = parse_c11(src).unwrap();
            let agreement = revalue_agreement(&test, &SimConfig::default()).unwrap();
            for (i, (_, difference)) in agreement.iter().enumerate() {
                assert_eq!(*difference, None, "{} justified combo {i}", test.name);
            }
            let revalued = agreement.iter().filter(|&&(r, _)| r).count();
            let (_, skeletons) = justifiable_skeletons(&test);
            assert_eq!(revalued, agreement.len() - skeletons, "{}", test.name);
            assert!(revalued > 0, "{}", test.name);
        }
    }

    /// A kept execution's events, rf and co edges and outcome, independent
    /// of the relations' storage.
    fn canonical(x: &Execution) -> String {
        let rf: Vec<_> = x.rf.iter().collect();
        let co: Vec<_> = x.co.iter().collect();
        format!("{:?}", (&x.events, rf, co, &x.outcome))
    }

    #[test]
    fn kept_executions_carry_their_own_combos_values() {
        // 2+FA's combos share one skeleton and the fetch_adds write
        // different values in each, so a kept execution that took another
        // combo's values would read a value its rf writer does not write.
        let test = parse_c11(TWO_FA).unwrap();
        assert_eq!(justifiable_skeletons(&test).1, 1);
        let cfg = SimConfig::default().keeping_executions();
        for model in [&AllowAll as &dyn ConsistencyModel, &CoherenceOnly] {
            let r = simulate(&test, model, &cfg).unwrap();
            assert!(r.allowed > 1 && r.allowed <= cfg.max_kept as u64, "{}", model.name());
            assert_eq!(r.executions.len() as u64, r.allowed, "{}", model.name());
            for x in &r.executions {
                for e in x.events.iter().filter(|e| e.kind == EventKind::Read) {
                    let writers: Vec<EventId> = x
                        .rf
                        .iter()
                        .filter(|&(_, r)| r == e.id)
                        .map(|(w, _)| w)
                        .collect();
                    assert_eq!(writers.len(), 1, "{}: {e:?}", model.name());
                    assert_eq!(x.events[writers[0].index()].val, e.val, "{}", model.name());
                }
            }
            let values: BTreeSet<String> = r
                .executions
                .iter()
                .map(|x| format!("{:?}", x.events))
                .collect();
            assert!(values.len() > 1, "{}: kept executions of one combo", model.name());
            let mut kept: Vec<String> = r.executions.iter().map(canonical).collect();
            let reference = simulate_reference(&test, model, &cfg).unwrap();
            let mut expected: Vec<String> = reference.executions.iter().map(canonical).collect();
            kept.sort();
            expected.sort();
            assert_eq!(kept, expected, "{}", model.name());
        }
    }

    #[test]
    fn precheck_matches_rf_candidates() {
        // The pre-check counts exactly the built graph's candidate space,
        // 0 for the combos with a read without a candidate writer.
        for src in [SB, LB, WIDE_CO, ONE_SKELETON, TWO_SKELETONS, OWN_WRITE] {
            let test = parse_c11(src).unwrap();
            let pairs = precheck_agreement(&test, &SimConfig::default()).unwrap();
            for (i, (counted, built)) in pairs.iter().enumerate() {
                assert_eq!(counted, built, "{} combo {i}", test.name);
            }
            if test.name == "TWO-SKELETONS" {
                let rejected = pairs.iter().filter(|&&(s, _)| s == 0).count();
                assert_eq!((pairs.len(), rejected), (12, 2));
            }
            if test.name == "WIDE-CO" {
                // P3 reads 0 from init or 1 from any of three writers;
                // either way times 3! coherence orders.
                assert_eq!(pairs, [(6, 6), (18, 18)]);
            }
            if test.name == "OWN-WRITE" {
                // r0 = 0 from init, r0 = 1 from either store; 2! orders.
                assert_eq!(pairs, [(2, 2), (4, 4)]);
            }
        }
    }

    #[test]
    fn over_budget_simulation_never_reaches_the_dfs() {
        // The count pass decides the budget from the traces: an
        // over-budget simulation opens no session, and its `steps` do not
        // depend on the clock.
        for src in [WIDE_CO, TWO_SKELETONS] {
            let test = parse_c11(src).unwrap();
            let full = simulate(&test, &AllowAll, &SimConfig::default()).unwrap();
            let mut steps = BTreeSet::new();
            for timeout in [None, SimConfig::fast().timeout] {
                for _ in 0..3 {
                    let cfg = SimConfig {
                        max_candidates: full.candidates - 1,
                        timeout,
                        ..SimConfig::default()
                    };
                    let counting = CountSessions {
                        inner: &SeqCstRef,
                        opened: Default::default(),
                    };
                    match simulate(&test, &counting, &cfg) {
                        Err(Error::Budget { steps: s }) => steps.insert(s),
                        other => panic!("{}: expected a budget error, got {other:?}", test.name),
                    };
                    assert_eq!(counting.opened.into_inner(), 0, "{}: sessions", test.name);
                }
            }
            // The last justified combo crosses the budget, so `steps`
            // counts every candidate of the test.
            assert_eq!(steps, BTreeSet::from([full.candidates]), "{}", test.name);
        }
    }

    #[test]
    fn pruning_accounts_skipped_candidates() {
        // Under SeqCstRef (which prunes) the candidate count must still
        // equal the exhaustive product — pruning trades time, not
        // accounting.
        let test = parse_c11(LB).unwrap();
        let with_pruning = simulate(&test, &SeqCstRef, &SimConfig::default()).unwrap();
        let exhaustive = simulate(&test, &AllowAll, &SimConfig::default()).unwrap();
        assert_eq!(with_pruning.candidates, exhaustive.candidates);
    }

    /// A model with the sessions of `M` that names no SC-per-location
    /// rule, so the enumerator runs it unfiltered.
    struct Unfiltered<M>(M);

    impl<M: ConsistencyModel> ConsistencyModel for Unfiltered<M> {
        fn name(&self) -> &str {
            self.0.name()
        }

        fn check(&self, execution: &Execution) -> Verdict {
            self.0.check(execution)
        }

        fn combo_checker<'a>(&'a self, skeleton: &Execution) -> Box<dyn ComboChecker + 'a> {
            self.0.combo_checker(skeleton)
        }
    }

    /// Every same-location pattern at once: P0's writes (CoWW), P1's
    /// write then reads (CoWR, CoRR) and two fetch_adds (CoRW).
    const SAME_LOCATION: &str = r#"
C11 "SAME-LOCATION"
{ x = 0; }
P0 (atomic_int* x) {
  atomic_store_explicit(x, 1, memory_order_relaxed);
  atomic_store_explicit(x, 2, memory_order_relaxed);
}
P1 (atomic_int* x) {
  atomic_store_explicit(x, 3, memory_order_relaxed);
  int r0 = atomic_load_explicit(x, memory_order_relaxed);
  int r1 = atomic_load_explicit(x, memory_order_relaxed);
}
P2 (atomic_int* x) {
  int r0 = atomic_fetch_add_explicit(x, 1, memory_order_relaxed);
}
exists (P1:r0=1 /\ P1:r1=3)
"#;

    #[test]
    fn sc_per_location_filter_moves_only_pushes_and_prune_rules() {
        let test = parse_c11(SAME_LOCATION).unwrap();
        let cfg = SimConfig::default();
        let pairs: [(&dyn ConsistencyModel, &dyn ConsistencyModel); 2] = [
            (&SeqCstRef, &Unfiltered(SeqCstRef)),
            (&CoherenceOnly, &Unfiltered(CoherenceOnly)),
        ];
        for (model, unfiltered) in pairs {
            let name = model.name();
            let (f, u) = (
                simulate(&test, model, &cfg).unwrap(),
                simulate(&test, unfiltered, &cfg).unwrap(),
            );
            assert_eq!(f.outcomes, u.outcomes, "{name}");
            assert_eq!(f.candidates, u.candidates, "{name}");
            assert_eq!(f.allowed, u.allowed, "{name}");
            assert_eq!(f.pruned_candidates, u.pruned_candidates, "{name}");
            assert_eq!(f.prune_sites, u.prune_sites, "{name}");
            assert_eq!(f.rule_leaves, u.rule_leaves, "{name}");
            assert_eq!(f.flags, u.flags, "{name}");
            assert_eq!(f.crashed, u.crashed, "{name}");
            assert!(f.pushes < u.pushes, "{name}: {} vs {} pushes", f.pushes, u.pushes);
            // Every prune is still attributed, now partly to the model's
            // SC-per-location rule.
            let total = |r: &SimResult| r.rule_prunes.values().sum::<u64>();
            assert_eq!(total(&f), total(&u), "{name}");
            assert_eq!(total(&f), f.pruned_candidates, "{name}");
            assert!(f.rule_prunes[model.sc_per_location().unwrap()] > 0, "{name}");
        }
    }
}
