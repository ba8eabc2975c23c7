//! Unified tracing + metrics for the simulation and campaign engines.
//!
//! This crate is hand-rolled in-tree (the build environment vendors no
//! registry crates): a deliberately small subset of the tracing-library
//! surface, shaped around what the campaign driver, the pipeline and the
//! enumeration engine actually need.
//!
//! # Design
//!
//! The subsystem is **off by default** and a true no-op while off: every
//! entry point starts with one relaxed load of a process-wide flag (the
//! same pattern as `telechat::fault::fire`), no clock is read, no key
//! string is formatted ([`span_with`] takes the key lazily), and nothing
//! allocates. [`begin`] resets all state and arms the flag; [`finish`]
//! disarms it and returns an [`ObsReport`] snapshot.
//!
//! **Spans** form a hierarchy — campaign → work item → leg → simulate →
//! combo → DFS shard — threaded through the stack by a thread-local span
//! stack. Work crossing a thread boundary (campaign workers, enumeration
//! workers, the deadline watchdog) carries a [`SpanRef`] and re-parents
//! itself with [`adopt`]. Span ids are *stable*: `id = fnv1a64(parent,
//! name, key)`, so the id of "the source-sim leg of test X" is the same in
//! every run at every thread count; completed spans are buffered
//! thread-locally and flushed to a capped global sink. [`finish`] rebases
//! their starts to the window origin but does not sort them: it derives
//! the per-phase rows in one pass over the flush order, which no total or
//! histogram depends on. [`ObsReport::spans`] and
//! [`ObsReport::write_jsonl`] give the normalised order (depth, name, key,
//! id, start), so the JSONL trace is diffable even though the OS scheduled
//! the threads differently.
//!
//! **Counters** live in a fixed process-wide registry ([`Counter`]), each
//! tagged with a determinism [`Class`]:
//!
//! * [`Class::Deterministic`] — byte-identical across thread counts,
//!   cache on/off and store warm/cold; the set CI gates on.
//! * [`Class::Scheduling`] — honest about depending on scheduling (gate
//!   waits, deadline kills).
//! * [`Class::Process`] — process-scoped monotone state (model-registry
//!   traffic, fault firings) that earlier work in the same process can
//!   have absorbed already.
//!
//! A few hot counters that existing pin tests read *per thread* (the
//! full-traversal counter of `telechat_exec::rel`) are promoted here as
//! [`LocalMetric`]s: thread-local cells, always counted, never gated.

use std::cell::{Cell, RefCell};
use std::collections::{HashMap, HashSet};
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Mutex, OnceLock};
use std::time::Instant;
use telechat_common::fnv1a64;

// ---------------------------------------------------------------------------
// Enablement.
// ---------------------------------------------------------------------------

static ENABLED: AtomicBool = AtomicBool::new(false);

/// Whether the subsystem is recording. One relaxed load; the hot-path
/// guard of every other entry point.
#[inline]
pub fn enabled() -> bool {
    ENABLED.load(Ordering::Relaxed)
}

/// Arms recording: resets every counter and the span sink, then enables.
/// One campaign (or bench pass) per `begin`/`finish` window; concurrent
/// windows in one process interleave and belong to whoever calls
/// [`finish`] — callers that share a process (tests) serialise themselves.
pub fn begin() {
    for c in &COUNTERS {
        c.store(0, Ordering::Relaxed);
    }
    {
        let mut sink = lock(&EVENTS);
        sink.clear();
    }
    {
        let mut reg = lock(labelled());
        reg.index.clear();
        reg.slots.clear();
    }
    lock(hist_registry()).clear();
    DROPPED.store(0, Ordering::Relaxed);
    epoch(); // pin the time origin before the first span
    ENABLED.store(true, Ordering::Relaxed);
}

/// Disarms recording and snapshots everything recorded since [`begin`].
/// The calling thread's spans must all be closed (dropped) by now.
pub fn finish() -> ObsReport {
    ENABLED.store(false, Ordering::Relaxed);
    flush_thread();
    let mut spans: Vec<SpanEvent> = std::mem::take(&mut *lock(&EVENTS));
    // Start times relative to the earliest span. The flush order stays:
    // only [`ObsReport::spans`] readers pay for the stable order.
    let origin = spans.iter().map(|s| s.start_ns).min().unwrap_or(0);
    for s in &mut spans {
        s.start_ns -= origin;
    }
    let (phases, phase_hists) = tally_phases(&spans);

    let mut counters: Vec<CounterRow> = Counter::ALL
        .iter()
        .map(|&c| CounterRow {
            name: c.name().to_string(),
            class: c.class(),
            value: COUNTERS[c as usize].load(Ordering::Relaxed),
        })
        .collect();

    // Labelled attribution rows, sorted by name: the registry's interning
    // order is first-touch (scheduling-dependent), the snapshot is not.
    let mut labelled_rows: Vec<CounterRow> = lock(labelled())
        .slots
        .iter()
        .map(|(name, v)| CounterRow {
            name: name.clone(),
            class: Class::Deterministic,
            value: v.load(Ordering::Relaxed),
        })
        .collect();
    labelled_rows.sort_by(|a, b| a.name.cmp(&b.name));
    counters.extend(labelled_rows);

    // Histograms: the merged engine distributions fed through
    // [`merge_hist`]/[`record_hist`], plus per-phase latency distributions
    // derived from the spans already collected (no extra hot-path cost).
    let mut hists: Vec<HistRow> = lock(hist_registry())
        .iter()
        .map(|(name, class, h)| HistRow {
            name: name.clone(),
            class: *class,
            hist: h.clone(),
        })
        .collect();
    for row in phase_hists {
        match hists.iter_mut().find(|h| h.name == row.name) {
            Some(existing) => existing.hist.merge(&row.hist),
            None => hists.push(row),
        }
    }
    hists.sort_by(|a, b| a.name.cmp(&b.name));

    ObsReport {
        counters,
        phases,
        hists,
        spans,
        dropped_events: DROPPED.load(Ordering::Relaxed),
    }
}

/// Name of the campaign's per-item span, whose self time [`finish`]
/// reports as the `work-item.unattributed` row.
pub const WORK_ITEM: &str = "work-item";

/// Per-name span totals and `phase.*` latency histograms, from one pass
/// over `spans` in any order. Rows come out by the shallowest depth their
/// name occurs at, then by name: the order a scan of the normalised span
/// list meets them in. A `work-item.unattributed` row follows `work-item`:
/// the work items' time that none of their direct children covers, so the
/// phases below a work item always sum to its total.
fn tally_phases(spans: &[SpanEvent]) -> (Vec<PhaseRow>, Vec<HistRow>) {
    struct Tally {
        name: &'static str,
        depth: u32,
        count: u64,
        total_ns: u128,
        hist: Histogram,
    }
    let mut tallies: Vec<Tally> = Vec::new();
    // Name literal → tally index. After the first span of each literal the
    // lookup is an address comparison; the string comparison runs once per
    // literal (one name spelled in two crates may be two literals).
    let mut literals: Vec<(&'static str, usize)> = Vec::new();
    let mut work_item: Option<usize> = None;
    let mut work_item_ids: HashSet<u64> = HashSet::new();
    // Summed durations of each parent id's direct children.
    let mut child_ns: HashMap<u64, u128> = HashMap::new();
    for s in spans {
        let i = match literals.iter().find(|(n, _)| std::ptr::eq(*n, s.name)) {
            Some(&(_, i)) => i,
            None => {
                let i = match tallies.iter().position(|t| t.name == s.name) {
                    Some(i) => i,
                    None => {
                        if s.name == WORK_ITEM {
                            work_item = Some(tallies.len());
                        }
                        tallies.push(Tally {
                            name: s.name,
                            depth: s.depth,
                            count: 0,
                            total_ns: 0,
                            hist: Histogram::new(),
                        });
                        tallies.len() - 1
                    }
                };
                literals.push((s.name, i));
                i
            }
        };
        if work_item == Some(i) {
            work_item_ids.insert(s.id);
        }
        if s.depth > 0 {
            *child_ns.entry(s.parent).or_default() += u128::from(s.dur_ns);
        }
        let t = &mut tallies[i];
        t.depth = t.depth.min(s.depth);
        t.count += 1;
        t.total_ns += u128::from(s.dur_ns);
        t.hist.record(s.dur_ns);
    }
    let unattributed = work_item.map(|w| {
        let children: u128 = work_item_ids.iter().filter_map(|id| child_ns.get(id)).sum();
        PhaseRow {
            name: format!("{WORK_ITEM}.unattributed"),
            count: tallies[w].count,
            total_ns: tallies[w].total_ns.saturating_sub(children),
        }
    });
    tallies.sort_by(|a, b| (a.depth, a.name).cmp(&(b.depth, b.name)));
    let (mut phases, hists): (Vec<PhaseRow>, Vec<HistRow>) = tallies
        .into_iter()
        .map(|t| {
            let phase = PhaseRow {
                name: t.name.to_string(),
                count: t.count,
                total_ns: t.total_ns,
            };
            let hist = HistRow {
                name: format!("phase.{}", t.name),
                class: Class::Scheduling,
                hist: t.hist,
            };
            (phase, hist)
        })
        .unzip();
    if let Some(row) = unattributed {
        let at = phases
            .iter()
            .position(|p| p.name == WORK_ITEM)
            .map_or(phases.len(), |w| w + 1);
        phases.insert(at, row);
    }
    (phases, hists)
}

// ---------------------------------------------------------------------------
// Counters.
// ---------------------------------------------------------------------------

/// Determinism class of a counter (see the module docs).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Class {
    /// Byte-identical across thread counts, cache on/off, store warm/cold.
    Deterministic,
    /// Depends on scheduling or configuration knobs that never change
    /// results (thread count, cache state).
    Scheduling,
    /// Process-scoped monotone state a previous window may have absorbed.
    Process,
}

impl Class {
    /// The row tag the table renderer and the JSONL sink print.
    pub fn tag(self) -> &'static str {
        match self {
            Class::Deterministic => "count",
            Class::Scheduling => "sched",
            Class::Process => "proc",
        }
    }
}

macro_rules! counters {
    ($($variant:ident => ($name:literal, $class:ident),)*) => {
        /// The process-wide counter registry (fixed set; see module docs).
        #[derive(Debug, Clone, Copy, PartialEq, Eq)]
        #[repr(usize)]
        pub enum Counter {
            $(#[doc = $name] $variant,)*
        }

        impl Counter {
            /// Every counter, in registry (and render) order.
            pub const ALL: &'static [Counter] = &[$(Counter::$variant,)*];

            /// The dotted metric name.
            pub fn name(self) -> &'static str {
                match self { $(Counter::$variant => $name,)* }
            }

            /// The determinism class.
            pub fn class(self) -> Class {
                match self { $(Counter::$variant => Class::$class,)* }
            }
        }

        static COUNTERS: [AtomicU64; Counter::ALL.len()] =
            [const { AtomicU64::new(0) }; Counter::ALL.len()];
    };
}

counters! {
    CampaignTests => ("campaign.tests", Deterministic),
    CampaignWorkItems => ("campaign.work_items", Deterministic),
    CampaignPositives => ("campaign.positives", Deterministic),
    CampaignResumed => ("campaign.resumed", Deterministic),
    CompilerCompiles => ("compiler.compiles", Deterministic),
    S2lExtractions => ("s2l.extractions", Deterministic),
    McompareCompares => ("mcompare.compares", Deterministic),
    SimCandidates => ("sim.candidates", Deterministic),
    SimAllowed => ("sim.allowed", Deterministic),
    SimPruned => ("sim.pruned_candidates", Deterministic),
    SimFullTraversals => ("sim.full_traversals", Deterministic),
    SimPushes => ("sim.pushes", Deterministic),
    CatFrontierEvals => ("cat.frontier_evals", Deterministic),
    CacheGateWaits => ("cache.gate_waits", Scheduling),
    CatSessions => ("cat.combo_sessions", Scheduling),
    CampaignDeadlineKills => ("campaign.deadline_kills", Scheduling),
    CampaignPanics => ("campaign.panics", Scheduling),
    RegistryLoads => ("registry.loads", Process),
    RegistryCompiles => ("registry.compiles", Process),
    FaultFirings => ("fault.firings", Process),
}

/// Adds `n` to a registry counter. No-op (one relaxed load) while off.
#[inline]
pub fn add(c: Counter, n: u64) {
    if enabled() {
        COUNTERS[c as usize].fetch_add(n, Ordering::Relaxed);
    }
}

/// Current value of a registry counter (test/diagnostic use).
pub fn get(c: Counter) -> u64 {
    COUNTERS[c as usize].load(Ordering::Relaxed)
}

// ---------------------------------------------------------------------------
// Labelled counters (dynamic attribution registry).
// ---------------------------------------------------------------------------

/// The dynamic labelled-counter registry: attribution rows whose label set
/// is only known at run time (`.cat` rule names, prune sites, coverage
/// classes). Labels are interned on first use — a `HashMap` index into a
/// slot vector of `(label, AtomicU64)` — and [`begin`] clears the registry.
struct Labelled {
    index: HashMap<String, usize>,
    slots: Vec<(String, AtomicU64)>,
}

fn labelled() -> &'static Mutex<Labelled> {
    static LABELLED: OnceLock<Mutex<Labelled>> = OnceLock::new();
    LABELLED.get_or_init(|| {
        Mutex::new(Labelled {
            index: HashMap::new(),
            slots: Vec::new(),
        })
    })
}

/// Adds `n` to the labelled counter `name`, interning the label on first
/// use. No-op (one relaxed load) while off. Labelled totals are rendered
/// `count`-class: callers only feed them deterministic charges (rule
/// tallies, prune-site charge sums, coverage tallies), never scheduling
/// artefacts.
pub fn add_labelled(name: &str, n: u64) {
    if !enabled() {
        return;
    }
    let mut reg = lock(labelled());
    match reg.index.get(name).copied() {
        Some(i) => {
            reg.slots[i].1.fetch_add(n, Ordering::Relaxed);
        }
        None => {
            let i = reg.slots.len();
            reg.index.insert(name.to_string(), i);
            reg.slots.push((name.to_string(), AtomicU64::new(n)));
        }
    }
}

/// Current value of a labelled counter (test/diagnostic use); `None` for
/// labels never touched this window.
pub fn get_labelled(name: &str) -> Option<u64> {
    let reg = lock(labelled());
    let i = reg.index.get(name).copied()?;
    Some(reg.slots[i].1.load(Ordering::Relaxed))
}

// ---------------------------------------------------------------------------
// Histograms.
// ---------------------------------------------------------------------------

/// A mergeable log2-bucketed histogram. A value lands in the bucket of its
/// bit length (`0` → bucket 0, otherwise `64 - v.leading_zeros()`), so the
/// merge of per-thread histograms is an elementwise sum — commutative and
/// associative, hence byte-identical regardless of which worker recorded
/// which sample. Quantiles are answered from the cumulative bucket counts
/// (the bucket's inclusive upper bound, clamped to the observed min/max):
/// deterministic approximations, not order-dependent estimates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Histogram {
    buckets: [u64; 65],
    count: u64,
    sum: u64,
    min: u64,
    max: u64,
}

impl Default for Histogram {
    fn default() -> Histogram {
        Histogram::new()
    }
}

impl Histogram {
    /// An empty histogram.
    pub fn new() -> Histogram {
        Histogram {
            buckets: [0; 65],
            count: 0,
            sum: 0,
            min: u64::MAX,
            max: 0,
        }
    }

    fn bucket(v: u64) -> usize {
        (64 - v.leading_zeros()) as usize
    }

    /// Records one sample.
    pub fn record(&mut self, v: u64) {
        self.buckets[Histogram::bucket(v)] += 1;
        self.count += 1;
        self.sum = self.sum.saturating_add(v);
        self.min = self.min.min(v);
        self.max = self.max.max(v);
    }

    /// Folds `other` in (elementwise; merge order never shows).
    pub fn merge(&mut self, other: &Histogram) {
        for (b, o) in self.buckets.iter_mut().zip(&other.buckets) {
            *b += o;
        }
        self.count += other.count;
        self.sum = self.sum.saturating_add(other.sum);
        self.min = self.min.min(other.min);
        self.max = self.max.max(other.max);
    }

    /// Number of samples recorded.
    pub fn count(&self) -> u64 {
        self.count
    }

    /// Sum of all samples (saturating).
    pub fn sum(&self) -> u64 {
        self.sum
    }

    /// Smallest sample (0 when empty).
    pub fn min(&self) -> u64 {
        if self.count == 0 {
            0
        } else {
            self.min
        }
    }

    /// Largest sample (0 when empty).
    pub fn max(&self) -> u64 {
        self.max
    }

    /// True when no samples were recorded.
    pub fn is_empty(&self) -> bool {
        self.count == 0
    }

    /// The raw bucket counts (index = bit length), for codecs.
    pub fn buckets(&self) -> &[u64; 65] {
        &self.buckets
    }

    /// Rebuilds a histogram from its persisted parts (codec use). The
    /// caller is trusted to pass a consistent snapshot — the parts came
    /// from [`Histogram::buckets`] and the scalar accessors.
    pub fn from_parts(buckets: [u64; 65], count: u64, sum: u64, min: u64, max: u64) -> Histogram {
        Histogram {
            buckets,
            count,
            sum,
            // `min()` reads 0 for an empty histogram; restore the sentinel.
            min: if count == 0 { u64::MAX } else { min },
            max,
        }
    }

    /// Deterministic approximate quantile (`0.0 ..= 1.0`): the inclusive
    /// upper bound of the first bucket whose cumulative count reaches the
    /// rank, clamped to the observed `[min, max]`. 0 when empty.
    pub fn quantile(&self, q: f64) -> u64 {
        if self.count == 0 {
            return 0;
        }
        #[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let rank = ((q * self.count as f64).ceil() as u64).clamp(1, self.count);
        let mut seen = 0u64;
        for (i, &b) in self.buckets.iter().enumerate() {
            seen += b;
            if seen >= rank {
                let hi = match i {
                    0 => 0,
                    64 => u64::MAX,
                    _ => (1u64 << i) - 1,
                };
                return hi.clamp(self.min(), self.max);
            }
        }
        self.max
    }

    /// The one-line rendering the metrics table prints.
    pub fn summary(&self) -> String {
        if self.count == 0 {
            return "empty".into();
        }
        format!(
            "n={} min={} p50={} p90={} p99={} max={}",
            self.count,
            self.min(),
            self.quantile(0.5),
            self.quantile(0.9),
            self.quantile(0.99),
            self.max
        )
    }
}

fn hist_registry() -> &'static Mutex<Vec<(String, Class, Histogram)>> {
    static HISTS: OnceLock<Mutex<Vec<(String, Class, Histogram)>>> = OnceLock::new();
    HISTS.get_or_init(|| Mutex::new(Vec::new()))
}

/// Records one sample into the named histogram. No-op while off.
pub fn record_hist(name: &str, class: Class, v: u64) {
    if !enabled() {
        return;
    }
    let mut reg = lock(hist_registry());
    match reg.iter_mut().find(|(n, _, _)| n == name) {
        Some((_, _, h)) => h.record(v),
        None => {
            let mut h = Histogram::new();
            h.record(v);
            reg.push((name.to_string(), class, h));
        }
    }
}

/// Merges a pre-aggregated histogram (e.g. a `SimResult`'s per-combo DFS
/// sizes) into the named registry entry. No-op while off or when `h` is
/// empty.
pub fn merge_hist(name: &str, class: Class, h: &Histogram) {
    if !enabled() || h.is_empty() {
        return;
    }
    let mut reg = lock(hist_registry());
    match reg.iter_mut().find(|(n, _, _)| n == name) {
        Some((_, _, existing)) => existing.merge(h),
        None => reg.push((name.to_string(), class, h.clone())),
    }
}

// ---------------------------------------------------------------------------
// Thread-local metrics (always counted, never gated).
// ---------------------------------------------------------------------------

/// Metrics kept per thread because existing pin tests read per-thread
/// deltas (a simulation runs entirely on its caller's thread).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LocalMetric {
    /// Full-graph acyclicity/topological traversals — the counter the
    /// zero-full-traversal pins in `telechat_exec` assert stays flat.
    FullTraversals,
}

thread_local! {
    static LOCAL_FULL_TRAVERSALS: Cell<u64> = const { Cell::new(0) };
}

/// Adds to this thread's cell. Unconditional: local metrics back
/// invariants (pinned-zero accounting), not just telemetry.
#[inline]
pub fn local_add(m: LocalMetric, n: u64) {
    match m {
        LocalMetric::FullTraversals => LOCAL_FULL_TRAVERSALS.with(|c| c.set(c.get() + n)),
    }
}

/// This thread's current cell value (monotone).
pub fn local_get(m: LocalMetric) -> u64 {
    match m {
        LocalMetric::FullTraversals => LOCAL_FULL_TRAVERSALS.with(Cell::get),
    }
}

// ---------------------------------------------------------------------------
// Spans.
// ---------------------------------------------------------------------------

/// One completed span, as flushed to the sink and emitted to JSONL.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SpanEvent {
    /// Stable id: `fnv1a64(parent, name, key)` (never 0).
    pub id: u64,
    /// Parent span id, 0 at the root.
    pub parent: u64,
    /// Phase name (`campaign`, `work-item`, `source-sim`, `combo`, …).
    pub name: &'static str,
    /// Instance key (test:profile, combo index, …); empty when the parent
    /// already identifies the instance.
    pub key: String,
    /// Nesting depth (root = 0).
    pub depth: u32,
    /// Start, nanoseconds relative to the window origin.
    pub start_ns: u64,
    /// Wall-clock duration in nanoseconds.
    pub dur_ns: u64,
}

/// A handle for re-parenting work that hops threads.
#[derive(Debug, Clone, Copy)]
pub struct SpanRef {
    id: u64,
    depth: u32,
}

struct TlTrace {
    /// Open spans on this thread: (id, depth). Adopted parents count.
    stack: Vec<(u64, u32)>,
    /// Completed spans awaiting a flush.
    buf: Vec<SpanEvent>,
}

thread_local! {
    static TRACE: RefCell<TlTrace> = const {
        RefCell::new(TlTrace {
            stack: Vec::new(),
            buf: Vec::new(),
        })
    };
}

/// Completed spans flushed by all threads, capped at [`EVENT_CAP`].
static EVENTS: Mutex<Vec<SpanEvent>> = Mutex::new(Vec::new());
/// Spans dropped because the sink was full.
static DROPPED: AtomicU64 = AtomicU64::new(0);
/// Sink cap: a campaign-scale trace is thousands of spans; a runaway
/// producer degrades to counting drops instead of exhausting memory.
const EVENT_CAP: usize = 1 << 20;

fn lock<T>(m: &Mutex<T>) -> std::sync::MutexGuard<'_, T> {
    m.lock().unwrap_or_else(|e| e.into_inner())
}

/// The window's time origin (process-wide, pinned by [`begin`]).
fn epoch() -> Instant {
    static EPOCH: OnceLock<Instant> = OnceLock::new();
    *EPOCH.get_or_init(Instant::now)
}

/// The stable id of a span (exposed so tests can predict ids).
pub fn span_id(parent: u64, name: &str, key: &str) -> u64 {
    let mut h = fnv1a64(0, &parent.to_le_bytes());
    h = fnv1a64(h, name.as_bytes());
    h = fnv1a64(h, key.as_bytes());
    h.max(1) // 0 means "no parent"
}

/// An open span; records itself into the sink when dropped. The no-op
/// variant (subsystem off) is a `None` and costs nothing to drop.
pub struct Span(Option<ActiveSpan>);

struct ActiveSpan {
    id: u64,
    parent: u64,
    name: &'static str,
    key: String,
    depth: u32,
    start: Instant,
}

/// Opens a span with an empty key.
#[inline]
pub fn span(name: &'static str) -> Span {
    if !enabled() {
        return Span(None);
    }
    enter(name, String::new())
}

/// Opens a span whose key is built lazily — the closure never runs while
/// the subsystem is off, so hot paths pay no formatting.
#[inline]
pub fn span_with(name: &'static str, key: impl FnOnce() -> String) -> Span {
    if !enabled() {
        return Span(None);
    }
    enter(name, key())
}

/// Opens a span keyed by an index (combo number, task id).
#[inline]
pub fn span_idx(name: &'static str, idx: u64) -> Span {
    if !enabled() {
        return Span(None);
    }
    enter(name, idx.to_string())
}

fn enter(name: &'static str, key: String) -> Span {
    TRACE.with(|t| {
        let mut t = t.borrow_mut();
        let (parent, parent_depth) = t.stack.last().copied().map_or((0, None), |(id, d)| (id, Some(d)));
        let depth = parent_depth.map_or(0, |d| d + 1);
        let id = span_id(parent, name, &key);
        t.stack.push((id, depth));
        Span(Some(ActiveSpan {
            id,
            parent,
            name,
            key,
            depth,
            start: Instant::now(),
        }))
    })
}

impl Drop for Span {
    fn drop(&mut self) {
        let Some(a) = self.0.take() else { return };
        let dur_ns = u64::try_from(a.start.elapsed().as_nanos()).unwrap_or(u64::MAX);
        let start_ns =
            u64::try_from(a.start.duration_since(epoch()).as_nanos()).unwrap_or(u64::MAX);
        TRACE.with(|t| {
            let mut t = t.borrow_mut();
            // Spans close LIFO on one thread; tolerate (and self-heal
            // from) a leaked guard rather than corrupting the stack.
            if let Some(pos) = t.stack.iter().rposition(|&(id, _)| id == a.id) {
                t.stack.truncate(pos);
            }
            t.buf.push(SpanEvent {
                id: a.id,
                parent: a.parent,
                name: a.name,
                key: a.key,
                depth: a.depth,
                start_ns,
                dur_ns,
            });
            if t.stack.is_empty() {
                flush_buf(&mut t.buf);
            }
        });
    }
}

/// The current innermost span, for handing to a spawned thread.
pub fn current() -> Option<SpanRef> {
    if !enabled() {
        return None;
    }
    TRACE.with(|t| {
        t.borrow()
            .stack
            .last()
            .map(|&(id, depth)| SpanRef { id, depth })
    })
}

/// Guard that re-parents this thread under `parent` until dropped; spans
/// opened meanwhile nest below it. `None` (subsystem off, or no parent on
/// the spawning thread) adopts nothing.
pub struct Adopt(bool);

/// Adopts a [`SpanRef`] on the current thread (see [`Adopt`]).
pub fn adopt(parent: Option<SpanRef>) -> Adopt {
    let Some(p) = parent else { return Adopt(false) };
    if !enabled() {
        return Adopt(false);
    }
    TRACE.with(|t| t.borrow_mut().stack.push((p.id, p.depth)));
    Adopt(true)
}

impl Drop for Adopt {
    fn drop(&mut self) {
        if !self.0 {
            return;
        }
        TRACE.with(|t| {
            let mut t = t.borrow_mut();
            t.stack.pop();
            if t.stack.is_empty() {
                flush_buf(&mut t.buf);
            }
        });
    }
}

fn flush_buf(buf: &mut Vec<SpanEvent>) {
    if buf.is_empty() {
        return;
    }
    let mut sink = lock(&EVENTS);
    let room = EVENT_CAP.saturating_sub(sink.len());
    if buf.len() > room {
        DROPPED.fetch_add((buf.len() - room) as u64, Ordering::Relaxed);
        buf.truncate(room);
    }
    sink.append(buf);
}

/// Flushes the calling thread's buffered spans (called by [`finish`]; the
/// worker threads flushed when their stacks emptied).
fn flush_thread() {
    TRACE.with(|t| {
        let mut t = t.borrow_mut();
        t.stack.clear();
        flush_buf(&mut t.buf);
    });
}

// ---------------------------------------------------------------------------
// Report and sinks.
// ---------------------------------------------------------------------------

/// One counter row of a report.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CounterRow {
    /// Dotted metric name.
    pub name: String,
    /// Determinism class.
    pub class: Class,
    /// Total over the window.
    pub value: u64,
}

/// Per-phase wall-time aggregate (spans summed by name).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PhaseRow {
    /// Span name.
    pub name: String,
    /// Number of spans.
    pub count: u64,
    /// Total wall time, nanoseconds (phases overlap across threads; the
    /// sum is *work* time, not elapsed time).
    pub total_ns: u128,
}

/// One named histogram of a report, carrying its determinism class
/// ([`Class::Deterministic`] for value-domain distributions like per-combo
/// DFS sizes, [`Class::Scheduling`] for wall-clock latency distributions).
#[derive(Debug, Clone, PartialEq)]
pub struct HistRow {
    /// Dotted metric name (`sim.combo_candidates`, `phase.compile`, …).
    pub name: String,
    /// Determinism class: only bucket *counts* of `Deterministic` rows are
    /// gate-comparable across thread counts.
    pub class: Class,
    /// The merged distribution.
    pub hist: Histogram,
}

/// The programmatic snapshot [`finish`] returns: counters, per-phase time
/// and the span events. Embedded by `bench_relops` into
/// `BENCH_relops.json` and rendered by `CampaignResult`'s `--metrics`
/// table.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct ObsReport {
    /// Registry counters (every registered counter, zero or not), then the
    /// labelled attribution rows sorted by name, plus any rows absorbed
    /// afterwards ([`ObsReport::push_counter`]).
    pub counters: Vec<CounterRow>,
    /// Wall-time per span name, by the shallowest depth the name occurs
    /// at, then by name.
    pub phases: Vec<PhaseRow>,
    /// Named distributions: engine histograms merged through
    /// [`merge_hist`]/[`record_hist`] and per-phase latency histograms
    /// derived from the spans, sorted by name.
    pub hists: Vec<HistRow>,
    /// Every completed span, starts relative to the window origin, in the
    /// order threads flushed them (scheduling-dependent). Read through
    /// [`ObsReport::spans`], which normalises the order.
    spans: Vec<SpanEvent>,
    /// Spans dropped at the sink cap (0 in any sane run).
    pub dropped_events: u64,
}

impl ObsReport {
    /// Appends a counter row (used to absorb `CacheStats`/`StoreStats`
    /// totals that are collected outside the registry).
    pub fn push_counter(&mut self, name: impl Into<String>, class: Class, value: u64) {
        self.counters.push(CounterRow {
            name: name.into(),
            class,
            value,
        });
    }

    /// Every span in the normalised order `(depth, name, key, id, start)`:
    /// stable across runs and thread counts, so traces diff cleanly. Sorts
    /// on each call; [`ObsReport::span_count`] does not.
    pub fn spans(&self) -> Vec<&SpanEvent> {
        let mut spans: Vec<&SpanEvent> = self.spans.iter().collect();
        spans.sort_by(|a, b| {
            (a.depth, a.name, &a.key, a.id, a.start_ns)
                .cmp(&(b.depth, b.name, &b.key, b.id, b.start_ns))
        });
        spans
    }

    /// Number of spans recorded.
    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// The value of a counter row, if present.
    pub fn counter(&self, name: &str) -> Option<u64> {
        self.counters.iter().find(|c| c.name == name).map(|c| c.value)
    }

    /// The deterministic-class counters — the invariance-gate subset that
    /// must be byte-identical across thread counts.
    pub fn deterministic_counters(&self) -> Vec<(String, u64)> {
        self.counters
            .iter()
            .filter(|c| c.class == Class::Deterministic)
            .map(|c| (c.name.clone(), c.value))
            .collect()
    }

    /// Total nanoseconds of the named phase, 0 if absent.
    pub fn phase_ns(&self, name: &str) -> u128 {
        self.phases
            .iter()
            .find(|p| p.name == name)
            .map_or(0, |p| p.total_ns)
    }

    /// The named histogram, if present.
    pub fn hist(&self, name: &str) -> Option<&Histogram> {
        self.hists.iter().find(|h| h.name == name).map(|h| &h.hist)
    }

    /// The deterministic-class histograms — like
    /// [`ObsReport::deterministic_counters`], the subset whose full bucket
    /// contents must be byte-identical across thread counts and cache/store
    /// configurations.
    pub fn deterministic_hists(&self) -> Vec<(String, Histogram)> {
        self.hists
            .iter()
            .filter(|h| h.class == Class::Deterministic)
            .map(|h| (h.name.clone(), h.hist.clone()))
            .collect()
    }

    /// The metric rows of this report (counters first, then phase times),
    /// for [`render_metrics`].
    pub fn rows(&self) -> Vec<MetricRow> {
        let mut rows: Vec<MetricRow> = self
            .counters
            .iter()
            .map(|c| MetricRow {
                kind: c.class.tag(),
                name: c.name.clone(),
                value: c.value.to_string(),
            })
            .collect();
        for h in &self.hists {
            rows.push(MetricRow {
                kind: "hist",
                name: h.name.clone(),
                value: h.hist.summary(),
            });
        }
        for p in &self.phases {
            rows.push(MetricRow {
                kind: "time",
                name: p.name.clone(),
                value: format!("{} ×{}", fmt_ms(p.total_ns), p.count),
            });
        }
        if self.dropped_events > 0 {
            rows.push(MetricRow {
                kind: "sched",
                name: "obs.dropped_events".into(),
                value: self.dropped_events.to_string(),
            });
        }
        rows
    }

    /// Writes the machine-readable JSONL trace: one `meta` line, one line
    /// per span in the [`ObsReport::spans`] order, one line per counter.
    /// Every line is a complete JSON object (`python3 -m json.tool`
    /// validates each).
    ///
    /// # Errors
    ///
    /// Propagates I/O errors from `w`.
    pub fn write_jsonl(&self, w: &mut impl std::io::Write) -> std::io::Result<()> {
        writeln!(
            w,
            "{{\"type\":\"meta\",\"format\":1,\"spans\":{},\"counters\":{},\"dropped\":{}}}",
            self.spans.len(),
            self.counters.len(),
            self.dropped_events
        )?;
        for s in self.spans() {
            writeln!(
                w,
                "{{\"type\":\"span\",\"id\":\"{:016x}\",\"parent\":\"{:016x}\",\"name\":{},\"key\":{},\"depth\":{},\"start_us\":{},\"dur_us\":{}}}",
                s.id,
                s.parent,
                json_str(s.name),
                json_str(&s.key),
                s.depth,
                s.start_ns / 1_000,
                s.dur_ns / 1_000
            )?;
        }
        for c in &self.counters {
            writeln!(
                w,
                "{{\"type\":\"metric\",\"name\":{},\"class\":\"{}\",\"value\":{}}}",
                json_str(&c.name),
                c.class.tag(),
                c.value
            )?;
        }
        for h in &self.hists {
            writeln!(
                w,
                "{{\"type\":\"hist\",\"name\":{},\"class\":\"{}\",\"count\":{},\"sum\":{},\"min\":{},\"p50\":{},\"p90\":{},\"p99\":{},\"max\":{}}}",
                json_str(&h.name),
                h.class.tag(),
                h.hist.count(),
                h.hist.sum(),
                h.hist.min(),
                h.hist.quantile(0.5),
                h.hist.quantile(0.9),
                h.hist.quantile(0.99),
                h.hist.max()
            )?;
        }
        Ok(())
    }

    /// A compact JSON object (counters + phase times) for embedding in
    /// bench reports.
    pub fn to_json(&self, indent: &str) -> String {
        let mut out = String::new();
        let pad = format!("{indent}  ");
        out.push_str("{\n");
        let _ = writeln!(out, "{pad}\"counters\": {{");
        for (i, c) in self.counters.iter().enumerate() {
            let comma = if i + 1 == self.counters.len() { "" } else { "," };
            let _ = writeln!(out, "{pad}  {}: {}{comma}", json_str(&c.name), c.value);
        }
        let _ = writeln!(out, "{pad}}},");
        let _ = writeln!(out, "{pad}\"phases\": {{");
        for (i, p) in self.phases.iter().enumerate() {
            let comma = if i + 1 == self.phases.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "{pad}  {}: {{\"count\": {}, \"total_ms\": {:.3}}}{comma}",
                json_str(&p.name),
                p.count,
                p.total_ns as f64 / 1e6
            );
        }
        let _ = writeln!(out, "{pad}}},");
        let _ = writeln!(out, "{pad}\"hists\": {{");
        for (i, h) in self.hists.iter().enumerate() {
            let comma = if i + 1 == self.hists.len() { "" } else { "," };
            let _ = writeln!(
                out,
                "{pad}  {}: {{\"class\": \"{}\", \"count\": {}, \"min\": {}, \"p50\": {}, \"p90\": {}, \"p99\": {}, \"max\": {}}}{comma}",
                json_str(&h.name),
                h.class.tag(),
                h.hist.count(),
                h.hist.min(),
                h.hist.quantile(0.5),
                h.hist.quantile(0.9),
                h.hist.quantile(0.99),
                h.hist.max()
            );
        }
        let _ = writeln!(out, "{pad}}},");
        let _ = writeln!(out, "{pad}\"dropped_events\": {}", self.dropped_events);
        let _ = write!(out, "{indent}}}");
        out
    }
}

/// Parses one `"type":"span"` JSONL line back into a [`SpanEvent`] (the
/// schema-check half of the trace round-trip; keys are read in the order
/// [`ObsReport::write_jsonl`] writes them). `None` for non-span lines or
/// malformed input.
///
/// Fields are consumed left to right through a cursor, and string values
/// are scanned with full escape handling (`\"`, `\\`, `\n`, `\uXXXX`, …),
/// so a span key or attribution label containing quotes, backslashes or a
/// text fragment that *looks* like a later field tag can never truncate or
/// misalign the parse.
pub fn span_from_jsonl(line: &str) -> Option<SpanEvent> {
    /// Advances past `"key":"` and unescapes the string value.
    fn str_field(cur: &mut &str, key: &str) -> Option<String> {
        let tag = format!("\"{key}\":\"");
        let at = cur.find(&tag)? + tag.len();
        let rest = &cur[at..];
        let mut out = String::new();
        let mut it = rest.char_indices();
        loop {
            let (i, c) = it.next()?;
            match c {
                '"' => {
                    *cur = &rest[i + 1..];
                    return Some(out);
                }
                '\\' => match it.next()?.1 {
                    '"' => out.push('"'),
                    '\\' => out.push('\\'),
                    '/' => out.push('/'),
                    'n' => out.push('\n'),
                    'r' => out.push('\r'),
                    't' => out.push('\t'),
                    'b' => out.push('\u{8}'),
                    'f' => out.push('\u{c}'),
                    'u' => {
                        let hex: String = (&mut it).take(4).map(|(_, c)| c).collect();
                        out.push(char::from_u32(u32::from_str_radix(&hex, 16).ok()?)?);
                    }
                    _ => return None,
                },
                c => out.push(c),
            }
        }
    }
    /// Advances past `"key":` and returns the bare numeric token.
    fn num_field(cur: &mut &str, key: &str) -> Option<u64> {
        let tag = format!("\"{key}\":");
        let at = cur.find(&tag)? + tag.len();
        let rest = &cur[at..];
        let end = rest.find([',', '}'])?;
        let v = rest[..end].parse().ok()?;
        *cur = &rest[end..];
        Some(v)
    }
    let mut cur = line;
    if str_field(&mut cur, "type")? != "span" {
        return None;
    }
    Some(SpanEvent {
        id: u64::from_str_radix(&str_field(&mut cur, "id")?, 16).ok()?,
        parent: u64::from_str_radix(&str_field(&mut cur, "parent")?, 16).ok()?,
        // Leaked so the borrowed-name field round-trips; schema checks
        // parse a bounded number of lines.
        name: Box::leak(str_field(&mut cur, "name")?.into_boxed_str()),
        key: str_field(&mut cur, "key")?,
        depth: u32::try_from(num_field(&mut cur, "depth")?).ok()?,
        start_ns: num_field(&mut cur, "start_us")?.saturating_mul(1_000),
        dur_ns: num_field(&mut cur, "dur_us")?.saturating_mul(1_000),
    })
}

/// One row of the human metrics table: a kind tag (`count`/`sched`/
/// `proc`/`time`/`rate`), a dotted name and a preformatted value.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MetricRow {
    /// Row tag; deterministic rows are tagged `count`.
    pub kind: &'static str,
    /// Dotted metric name.
    pub name: String,
    /// Preformatted value.
    pub value: String,
}

/// Renders metric rows as the aligned two-space-indented table every sink
/// shares (`CampaignResult`'s `metrics:` block, `--metrics`).
pub fn render_metrics(rows: &[MetricRow]) -> String {
    let name_w = rows.iter().map(|r| r.name.len()).max().unwrap_or(0).max(24);
    let mut out = String::new();
    for r in rows {
        let _ = writeln!(out, "  {:5}  {:name_w$}  {:>14}", r.kind, r.name, r.value);
    }
    out
}

/// Milliseconds with three decimals from a nanosecond total.
fn fmt_ms(ns: u128) -> String {
    format!("{:.3}ms", ns as f64 / 1e6)
}

/// Minimal JSON string quoting (quotes, backslashes, control bytes).
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The registry and the span sink are process-global; tests serialise.
    static SERIAL: Mutex<()> = Mutex::new(());

    #[test]
    fn disabled_is_inert() {
        let _g = lock(&SERIAL);
        ENABLED.store(false, Ordering::Relaxed);
        let before = get(Counter::SimCandidates);
        add(Counter::SimCandidates, 5);
        assert_eq!(get(Counter::SimCandidates), before);
        let ran = Cell::new(false);
        let s = span_with("x", || {
            ran.set(true);
            "k".into()
        });
        drop(s);
        assert!(!ran.get(), "key closures never run while off");
        assert!(current().is_none());
    }

    #[test]
    fn counters_and_spans_round_trip_through_a_window() {
        let _g = lock(&SERIAL);
        begin();
        add(Counter::SimCandidates, 3);
        add(Counter::SimCandidates, 4);
        add(Counter::CacheGateWaits, 2);
        {
            let _root = span("campaign");
            let _leg = span_with("work-item", || "SB:clang".into());
        }
        let report = finish();
        assert_eq!(report.counter("sim.candidates"), Some(7));
        assert_eq!(report.counter("cache.gate_waits"), Some(2));
        assert_eq!(report.spans().len(), 2);
        let spans = report.spans();
        let root = spans[0];
        let item = spans[1];
        assert_eq!((root.name, root.depth, root.parent), ("campaign", 0, 0));
        assert_eq!((item.name, item.depth, item.parent), ("work-item", 1, root.id));
        assert_eq!(item.id, span_id(root.id, "work-item", "SB:clang"));
        assert!(report.phase_ns("campaign") >= report.phase_ns("work-item"));
        // Deterministic subset excludes the scheduling-class counter.
        assert!(report
            .deterministic_counters()
            .iter()
            .all(|(n, _)| n != "cache.gate_waits"));
    }

    #[test]
    fn span_ids_are_stable_across_windows_and_threads() {
        let _g = lock(&SERIAL);
        let run = || {
            begin();
            let parent = {
                let _root = span("campaign");
                let parent = current();
                std::thread::scope(|s| {
                    s.spawn(|| {
                        let _a = adopt(parent);
                        let _w = span_with("work-item", || "T:p".into());
                    });
                });
                parent.unwrap().id
            };
            (finish(), parent)
        };
        let (a, root_a) = run();
        let (b, root_b) = run();
        assert_eq!(root_a, root_b);
        let ids = |r: &ObsReport| {
            r.spans()
                .iter()
                .map(|s| (s.id, s.parent, s.depth))
                .collect::<Vec<_>>()
        };
        assert_eq!(ids(&a), ids(&b), "normalised span lists are diffable");
        // The adopted child nests under the root even though it ran on
        // another thread.
        let child = a.spans()[1];
        assert_eq!(child.parent, root_a);
        assert_eq!(child.depth, 1);
    }

    #[test]
    fn jsonl_lines_parse_back() {
        let _g = lock(&SERIAL);
        begin();
        {
            let _root = span("campaign");
            let _child = span_with("work-item", || "a\"b:c".into());
        }
        let report = finish();
        let mut buf = Vec::new();
        report.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let mut spans = Vec::new();
        for line in text.lines() {
            assert!(line.starts_with('{') && line.ends_with('}'), "{line}");
            if let Some(s) = span_from_jsonl(line) {
                spans.push(s);
            }
        }
        assert_eq!(spans.len(), report.spans().len());
        for (parsed, orig) in spans.iter().zip(report.spans()) {
            assert_eq!(parsed.id, orig.id);
            assert_eq!(parsed.parent, orig.parent);
            assert_eq!(parsed.depth, orig.depth);
            assert_eq!(parsed.name, orig.name);
            assert_eq!(parsed.key, orig.key, "escaped keys round-trip exactly");
        }
        assert!(text.contains("\"type\":\"metric\""));
    }

    #[test]
    fn hostile_span_keys_round_trip_exactly() {
        let _g = lock(&SERIAL);
        // Keys engineered to break naive parsers: embedded field tags,
        // backslashes, control characters, non-ASCII — the shapes a rule
        // label from an arbitrary `.cat` file could take.
        let keys = [
            "plain",
            "a\"b:c",
            "x\"depth\":9,\"y",
            "back\\slash\\",
            "nl\ntab\tcr\r",
            "ctrl\u{1}\u{1f}",
            "unicode-éλ∀",
            "\"}{\"",
        ];
        begin();
        {
            let _root = span("campaign");
            for k in keys {
                let _s = span_with("work-item", || k.to_string());
            }
        }
        let report = finish();
        let mut buf = Vec::new();
        report.write_jsonl(&mut buf).unwrap();
        let text = String::from_utf8(buf).unwrap();
        let parsed: Vec<SpanEvent> = text.lines().filter_map(span_from_jsonl).collect();
        assert_eq!(parsed.len(), report.spans().len());
        for (p, o) in parsed.iter().zip(report.spans()) {
            assert_eq!((p.id, p.parent, p.depth, p.name, &p.key), (o.id, o.parent, o.depth, o.name, &o.key));
            assert_eq!((p.start_ns, p.dur_ns), (o.start_ns / 1_000 * 1_000, o.dur_ns / 1_000 * 1_000));
        }
    }

    #[test]
    fn histogram_buckets_merge_commutatively() {
        let samples = [0u64, 1, 1, 2, 3, 7, 8, 200, 5_000, u64::MAX];
        let mut whole = Histogram::new();
        for s in samples {
            whole.record(s);
        }
        // Any split into shards, merged in any order, is byte-identical.
        let mut a = Histogram::new();
        let mut b = Histogram::new();
        for (i, s) in samples.iter().enumerate() {
            if i % 2 == 0 { a.record(*s) } else { b.record(*s) }
        }
        let mut ab = a.clone();
        ab.merge(&b);
        let mut ba = b.clone();
        ba.merge(&a);
        assert_eq!(ab, whole);
        assert_eq!(ba, whole);
        assert_eq!(whole.count(), samples.len() as u64);
        assert_eq!(whole.min(), 0);
        assert_eq!(whole.max(), u64::MAX);
        // Quantiles are deterministic bucket bounds within [min, max].
        assert!(whole.quantile(0.5) >= 3 && whole.quantile(0.5) <= 7);
        assert_eq!(whole.quantile(1.0), u64::MAX);
        let empty = Histogram::new();
        assert_eq!((empty.min(), empty.max(), empty.quantile(0.5)), (0, 0, 0));
        assert_eq!(empty.summary(), "empty");
        // Codec round trip through the persisted parts.
        let back = Histogram::from_parts(*whole.buckets(), whole.count(), whole.sum(), whole.min(), whole.max());
        assert_eq!(back, whole);
        let back_empty = Histogram::from_parts(*empty.buckets(), 0, 0, empty.min(), empty.max());
        assert_eq!(back_empty, empty);
    }

    #[test]
    fn labelled_counters_reset_per_window_and_sort_in_reports() {
        let _g = lock(&SERIAL);
        begin();
        add_labelled("rule.leaf.zz", 2);
        add_labelled("rule.leaf.aa", 1);
        add_labelled("rule.leaf.zz", 3);
        let mut h = Histogram::new();
        h.record(4);
        h.record(9);
        merge_hist("sim.combo_candidates", Class::Deterministic, &h);
        record_hist("sim.combo_candidates", Class::Deterministic, 1);
        let report = finish();
        assert_eq!(report.counter("rule.leaf.zz"), Some(5));
        assert_eq!(report.counter("rule.leaf.aa"), Some(1));
        let det = report.deterministic_counters();
        let aa = det.iter().position(|(n, _)| n == "rule.leaf.aa").unwrap();
        let zz = det.iter().position(|(n, _)| n == "rule.leaf.zz").unwrap();
        assert!(aa < zz, "labelled rows sort by name: {det:?}");
        let combo = report.hist("sim.combo_candidates").unwrap();
        assert_eq!((combo.count(), combo.min(), combo.max()), (3, 1, 9));
        assert_eq!(report.deterministic_hists().len(), 1);

        // The next window starts clean.
        begin();
        let fresh = finish();
        assert_eq!(fresh.counter("rule.leaf.zz"), None);
        assert!(fresh.hist("sim.combo_candidates").is_none());
    }

    #[test]
    fn labelled_adds_are_gated_off() {
        let _g = lock(&SERIAL);
        ENABLED.store(false, Ordering::Relaxed);
        add_labelled("rule.leaf.off", 7);
        record_hist("off.hist", Class::Deterministic, 1);
        assert_eq!(get_labelled("rule.leaf.off"), None);
    }

    #[test]
    fn spans_are_normalised_whatever_order_threads_flush_in() {
        use std::sync::Condvar;
        let _g = lock(&SERIAL);
        // Work-item keys share prefixes; threads 1 and 3 share a key, so
        // their work items tie on (depth, name, key, id) and differ only in
        // start. Every thread's combos tie on (depth, name, key).
        let keys = ["ab", "a", "a:b", "a"];
        // Thread `FLUSH_ORDER[r]` flushes its buffer r-th, so the sink
        // meets `beta` at depth 3 (thread 2) before depth 1 (thread 0).
        const FLUSH_ORDER: [usize; 4] = [2, 0, 3, 1];
        let turn = (Mutex::new(0usize), Condvar::new());
        begin();
        {
            let _root = span("campaign");
            let root = current();
            std::thread::scope(|scope| {
                for (t, key) in keys.into_iter().enumerate() {
                    let turn = &turn;
                    scope.spawn(move || {
                        let adopted = adopt(root);
                        {
                            let _item = span_with(WORK_ITEM, || key.to_string());
                            for c in [1, 0] {
                                let _combo = span_idx("combo", c);
                                if t == 2 {
                                    let _deep = span("beta");
                                }
                            }
                            let _alpha = span("alpha");
                        }
                        if t == 0 {
                            let _shallow = span("beta");
                        }
                        let rank = FLUSH_ORDER.iter().position(|&x| x == t).unwrap();
                        let (m, cv) = turn;
                        let mut now = cv.wait_while(lock(m), |n| *n != rank).unwrap();
                        drop(adopted); // the stack empties: flush
                        *now += 1;
                        cv.notify_all();
                    });
                }
            });
        }
        let report = finish();

        let mut expected = report.spans.clone();
        expected.sort_by_key(|s| (s.depth, s.name, s.key.clone(), s.id, s.start_ns));
        assert_ne!(
            report.spans, expected,
            "the flush order is not already sorted"
        );
        let spans: Vec<SpanEvent> = report.spans().into_iter().cloned().collect();
        assert_eq!(spans, expected);

        let jsonl = |r: &ObsReport| {
            let mut buf = Vec::new();
            r.write_jsonl(&mut buf).unwrap();
            buf
        };
        assert_eq!(jsonl(&report), jsonl(&report));

        // Time rows: shallowest depth a name occurs at, then name, with the
        // work items' self time right after them.
        let times: Vec<String> = report
            .rows()
            .into_iter()
            .filter(|r| r.kind == "time")
            .map(|r| r.name)
            .collect();
        assert_eq!(
            times,
            [
                "campaign",
                "beta",
                "work-item",
                "work-item.unattributed",
                "alpha",
                "combo"
            ]
        );
        let items: HashSet<u64> = spans
            .iter()
            .filter(|s| s.name == WORK_ITEM)
            .map(|s| s.id)
            .collect();
        let children: u128 = spans
            .iter()
            .filter(|s| items.contains(&s.parent))
            .map(|s| u128::from(s.dur_ns))
            .sum();
        assert_eq!(
            report.phase_ns("work-item.unattributed"),
            report.phase_ns(WORK_ITEM) - children
        );
    }

    #[test]
    fn finish_derives_phase_latency_histograms_from_spans() {
        let _g = lock(&SERIAL);
        begin();
        {
            let _root = span("campaign");
            let _a = span_idx("combo", 0);
        }
        {
            let _root2 = span("campaign");
        }
        let report = finish();
        let camp = report.hist("phase.campaign").unwrap();
        assert_eq!(camp.count(), 2);
        assert_eq!(report.hist("phase.combo").unwrap().count(), 1);
        // Latency distributions are wall-clock: scheduling class, never in
        // the deterministic gate set.
        assert!(report
            .deterministic_hists()
            .iter()
            .all(|(n, _)| !n.starts_with("phase.")));
        // And they render as `hist` rows.
        assert!(report
            .rows()
            .iter()
            .any(|r| r.kind == "hist" && r.name == "phase.campaign"));
    }

    #[test]
    fn local_metrics_are_per_thread_and_ungated() {
        let _g = lock(&SERIAL);
        ENABLED.store(false, Ordering::Relaxed);
        let base = local_get(LocalMetric::FullTraversals);
        local_add(LocalMetric::FullTraversals, 2);
        assert_eq!(local_get(LocalMetric::FullTraversals), base + 2);
        let other = std::thread::spawn(|| local_get(LocalMetric::FullTraversals))
            .join()
            .unwrap();
        assert_eq!(other, 0, "fresh threads start at zero");
    }

    #[test]
    fn render_is_aligned_and_tagged() {
        let rows = vec![
            MetricRow { kind: "count", name: "sim.candidates".into(), value: "7".into() },
            MetricRow { kind: "time", name: "campaign".into(), value: "1.250ms ×1".into() },
            MetricRow { kind: "rate", name: "throughput".into(), value: "3.1 tests/s".into() },
        ];
        let table = render_metrics(&rows);
        let lines: Vec<&str> = table.lines().collect();
        assert_eq!(lines.len(), 3);
        assert!(lines[0].starts_with("  count  sim.candidates"));
        assert!(lines[1].starts_with("  time   campaign"));
        let width = lines[0].chars().count();
        assert!(
            lines.iter().all(|l| l.chars().count() == width),
            "{table}"
        );
    }
}
