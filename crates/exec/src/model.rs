//! The consistency-model interface.
//!
//! The enumerator produces candidate executions; a [`ConsistencyModel`]
//! filters out the forbidden ones (paper §II-A: "a memory consistency model
//! filters out forbidden executions of a litmus test"). The real models live
//! in `telechat-cat` as mini-Cat programs; this crate only defines the
//! interface plus two built-in reference models used for testing and as the
//! strongest/weakest bounds.

use crate::event::Execution;
use crate::incr::IncrementalOrder;
use crate::rel::Relation;
use telechat_common::EventId;

/// A model's judgement of one candidate execution.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The execution is allowed; `flags` carries any `flag` checks that
    /// fired (e.g. `race` for a C11 data race, `const-write` for a store to
    /// read-only memory).
    Allowed {
        /// Names of fired flag checks.
        flags: Vec<String>,
    },
    /// The execution is forbidden by the named rule.
    Forbidden {
        /// Name of the first violated check.
        rule: String,
    },
}

impl Verdict {
    /// Allowed with no flags.
    pub fn allowed() -> Verdict {
        Verdict::Allowed { flags: Vec::new() }
    }

    /// True if allowed (flags or not).
    pub fn is_allowed(&self) -> bool {
        matches!(self, Verdict::Allowed { .. })
    }
}

/// A model's judgement of a *partial* candidate (rf/co not yet complete).
///
/// Returned by [`ConsistencyModel::check_partial`], the enumeration
/// engine's fast-reject hook.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PartialVerdict {
    /// The partial candidate may still have allowed completions; keep
    /// enumerating below it.
    Undecided,
    /// *Every* completion of this partial candidate is forbidden; the
    /// engine prunes the whole subtree.
    Forbidden,
}

/// A memory consistency model: a predicate over candidate executions.
pub trait ConsistencyModel: Send + Sync {
    /// Model name (e.g. `rc11`, `aarch64`).
    fn name(&self) -> &str;

    /// Judges one candidate execution.
    fn check(&self, execution: &Execution) -> Verdict;

    /// Fast-reject hook for the incremental enumeration engine.
    ///
    /// `partial` is a candidate under construction: `po`, `rmw`, `addr`,
    /// `data` and `ctrl` are final, but `rf` covers only a prefix of the
    /// reads and `co` only a prefix of each location's coherence chain
    /// (always transitively closed so far). `partial.outcome` is
    /// meaningless at this point.
    ///
    /// # Contract
    ///
    /// Returning [`PartialVerdict::Forbidden`] asserts that [`check`]
    /// would return [`Verdict::Forbidden`] for **every** extension of
    /// `partial` — the base relations only *grow* along a branch, so any
    /// monotone violation (a cycle in a union of growing relations, a
    /// non-empty intersection of growing relations) is safe to report.
    /// Non-monotone conditions (anything involving complement or
    /// difference of a growing relation) must return `Undecided`.
    ///
    /// The default is a no-op, so models that only implement [`check`]
    /// work unchanged — they simply forgo pruning. (The `telechat-cat`
    /// interpreted models prune through their *combo sessions* instead:
    /// their staged engine classifies the monotone fragment of the Cat
    /// program and answers partial verdicts from per-edge incremental
    /// state — see `telechat_cat::staged`.)
    ///
    /// [`check`]: ConsistencyModel::check
    fn check_partial(&self, _partial: &Execution) -> PartialVerdict {
        PartialVerdict::Undecided
    }

    /// Opens a checking session on a combo skeleton.
    ///
    /// `skeleton` is the combo's candidate with the *fixed* relations
    /// populated (events, `po`, `rmw`, `addr`, `data`, `ctrl`) and
    /// `rf`/`co` still empty. A model may precompute anything that is
    /// constant across every rf/co choice of the combo — derived
    /// relations like `loc`/`ext`/`int`, annotation sets, the event
    /// universe — and reuse it for each candidate, instead of rebuilding
    /// per candidate. The default session simply forwards to
    /// [`check`]/[`check_partial`].
    ///
    /// # Contract
    ///
    /// The session may read only the *value-erased* skeleton: the events'
    /// ids, threads, program-order positions, kinds, locations and
    /// annotations, and the fixed relations — never an event's value.
    /// The enumerator relies on this to reuse one session for every combo
    /// of the same value-erased skeleton (see [`ComboChecker`]), and it
    /// keeps one `Execution` for all of them: the one a session sees has
    /// that skeleton throughout, and only its events' values change
    /// between combos.
    ///
    /// [`check`]: ConsistencyModel::check
    /// [`check_partial`]: ConsistencyModel::check_partial
    fn combo_checker<'a>(&'a self, _skeleton: &Execution) -> Box<dyn ComboChecker + 'a> {
        Box::new(ForwardingChecker(self))
    }
}

/// A checking session over one combo skeleton (see
/// [`ConsistencyModel::combo_checker`]).
///
/// The enumeration engine funnels every full and partial candidate of a
/// trace combination through a session, so implementations can hold
/// combo-constant derived data.
///
/// # Reuse across combos
///
/// A session may be reused across combos: the engine keeps its last
/// session and hands it the next combo whose value-erased skeleton is the
/// same (combos that differ only in the values their reads and writes
/// carry). The engine keeps the skeleton's `Execution` with the session
/// and re-values its events for each combo, so every call of a session
/// sees the same events, `po` and dependency relations, with the current
/// combo's values. The DFS pops every push it makes, strictly LIFO, so a
/// session must be back at its baseline — the state it was opened in —
/// after the pops, with nothing of the finished combo left behind. A combo that
/// stops early on a budget or timeout ends the simulation, so its session
/// is never reused.
///
/// # Incremental sessions
///
/// A session that returns `true` from [`incremental`] opts into the
/// engine's *edge-delta* protocol instead of whole-candidate re-checks:
/// the engine calls [`push_rf`]/[`push_co`] for **every** edge assignment
/// of the DFS (not just when it wants a verdict) and the matching
/// [`pop_rf`]/[`pop_co`] on backtrack, strictly LIFO — all rf pushes
/// precede all co pushes along a branch, mirroring the enumeration stages.
/// The returned verdict carries the same contract as
/// [`ConsistencyModel::check_partial`]; the engine prunes the subtree the
/// moment it sees `Forbidden`. At a DFS leaf the pushed state describes
/// the *complete* candidate, and [`check`] is called with the session in
/// exactly that state — an incremental session may answer from its own
/// state in O(1) instead of re-deriving relations.
///
/// After a push answers `Forbidden`, the engine calls only [`blame`] and
/// then the matching pop: it never pushes on top of a forbidden push and
/// never checks a leaf under one. A session may therefore stop a push at
/// its first violated constraint. Until that pop, the session's values
/// past the stop are unspecified; the verdict and the blamed rule must
/// still be those a complete update would give.
///
/// [`incremental`]: ComboChecker::incremental
/// [`push_rf`]: ComboChecker::push_rf
/// [`push_co`]: ComboChecker::push_co
/// [`pop_rf`]: ComboChecker::pop_rf
/// [`pop_co`]: ComboChecker::pop_co
/// [`check`]: ComboChecker::check
/// [`blame`]: ComboChecker::blame
pub trait ComboChecker: Send {
    /// Judges one complete candidate (same contract as
    /// [`ConsistencyModel::check`]).
    fn check(&self, execution: &Execution) -> Verdict;

    /// Judges one partial candidate (same contract as
    /// [`ConsistencyModel::check_partial`]).
    fn check_partial(&self, partial: &Execution) -> PartialVerdict;

    /// True if this session maintains incremental edge state (see the
    /// trait docs). Non-incremental sessions keep the re-check protocol.
    fn incremental(&self) -> bool {
        false
    }

    /// The engine assigned `rf(w, r)`: read `r` is justified by write `w`.
    /// `partial` already contains the edge.
    fn push_rf(&mut self, _partial: &Execution, _w: EventId, _r: EventId) -> PartialVerdict {
        PartialVerdict::Undecided
    }

    /// Undoes the most recent [`push_rf`](ComboChecker::push_rf).
    fn pop_rf(&mut self, _partial: &Execution, _w: EventId, _r: EventId) {}

    /// The engine extended a location's coherence chain with write `w`:
    /// `co(p, w)` was added for every `p` in `preds` (the chain so far, in
    /// coherence order, init write first). `partial` already contains the
    /// edges.
    fn push_co(&mut self, _partial: &Execution, _preds: &[EventId], _w: EventId) -> PartialVerdict {
        PartialVerdict::Undecided
    }

    /// Undoes the most recent [`push_co`](ComboChecker::push_co).
    fn pop_co(&mut self, _partial: &Execution, _preds: &[EventId], _w: EventId) {}

    /// The first-violated rule name in the session's *current* state, for
    /// prune attribution: called by the enumerator right after a push (or
    /// recheck) answered `Forbidden`, before the edge is unwound (the only
    /// call a forbidden push allows before its pop). `None`
    /// when the session cannot name a rule (plain forwarding sessions) —
    /// the prune is still charged, just unattributed. The answer must be a
    /// pure function of the pushed-edge set, so attribution totals are
    /// deterministic.
    fn blame(&self) -> Option<&str> {
        None
    }

    /// Work units this session has spent on pushes so far, for the
    /// deterministic `cat.frontier_evals` counter: the staged Cat engine
    /// reports the frontier bindings plus staged constraints each push
    /// visited before it answered. Must be a pure function of the push
    /// sequence; a running total across every combo the session served
    /// (the engine charges each combo the difference). The default
    /// (sessions that do not report) is 0.
    fn frontier_evals(&self) -> u64 {
        0
    }
}

/// The default session: no combo-constant state, plain forwarding.
struct ForwardingChecker<'a, M: ConsistencyModel + ?Sized>(&'a M);

impl<M: ConsistencyModel + ?Sized> ComboChecker for ForwardingChecker<'_, M> {
    fn check(&self, execution: &Execution) -> Verdict {
        self.0.check(execution)
    }

    fn check_partial(&self, partial: &Execution) -> PartialVerdict {
        self.0.check_partial(partial)
    }
}

/// The weakest model: every candidate execution is allowed. Useful as an
/// upper bound and in enumerator tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct AllowAll;

impl ConsistencyModel for AllowAll {
    fn name(&self) -> &str {
        "allow-all"
    }

    fn check(&self, _execution: &Execution) -> Verdict {
        Verdict::allowed()
    }
}

/// Lamport sequential consistency: `acyclic (po | rf | co | fr)` — the
/// strongest bundled model, used as a reference bound and in tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct SeqCstRef;

impl ConsistencyModel for SeqCstRef {
    fn name(&self) -> &str {
        "sc-ref"
    }

    fn check(&self, x: &Execution) -> Verdict {
        let com = x.po.union(&x.rf).union(&x.co).union(&x.fr());
        if com.is_acyclic() {
            Verdict::allowed()
        } else {
            Verdict::Forbidden {
                rule: "sc".into(),
            }
        }
    }

    /// A cycle in `po | rf | co | fr` can only persist as the relations
    /// grow, so partial cyclicity rejects the whole subtree.
    fn check_partial(&self, x: &Execution) -> PartialVerdict {
        let fr = x.fr();
        if Relation::union_is_acyclic(&[&x.po, &x.rf, &x.co, &fr]) {
            PartialVerdict::Undecided
        } else {
            PartialVerdict::Forbidden
        }
    }

    /// Incremental session: acyclicity of `po | rf | co | fr` is tracked by
    /// an [`IncrementalOrder`] seeded with `po` and updated per DFS edge —
    /// no full traversal per node, O(1) verdicts at leaves.
    fn combo_checker<'a>(&'a self, skeleton: &Execution) -> Box<dyn ComboChecker + 'a> {
        Box::new(SeqCstSession::new(skeleton))
    }
}

/// [`SeqCstRef`]'s incremental combo session.
///
/// State: the incremental reachability order over `po ∪ rf ∪ co ∪ fr`,
/// plus an `rf⁻¹` mirror (`readers`) so a coherence push can derive its
/// `fr` delta — a new `co(p, w)` edge contributes `fr(r, w)` for exactly
/// the reads `r` justified by `p`.
struct SeqCstSession {
    order: IncrementalOrder,
    readers: Relation,
}

impl SeqCstSession {
    fn new(skeleton: &Execution) -> SeqCstSession {
        SeqCstSession {
            order: IncrementalOrder::new(skeleton.events.len(), &[&skeleton.po]),
            readers: Relation::with_nodes(skeleton.events.len()),
        }
    }

    fn verdict(&self) -> PartialVerdict {
        if self.order.is_acyclic() {
            PartialVerdict::Undecided
        } else {
            PartialVerdict::Forbidden
        }
    }
}

impl ComboChecker for SeqCstSession {
    fn check(&self, _execution: &Execution) -> Verdict {
        if self.order.is_acyclic() {
            Verdict::allowed()
        } else {
            Verdict::Forbidden { rule: "sc".into() }
        }
    }

    fn check_partial(&self, _partial: &Execution) -> PartialVerdict {
        self.verdict()
    }

    fn incremental(&self) -> bool {
        true
    }

    fn push_rf(&mut self, _partial: &Execution, w: EventId, r: EventId) -> PartialVerdict {
        self.order.begin();
        self.order.add_edge(w, r);
        self.readers.insert(w, r);
        self.verdict()
    }

    fn pop_rf(&mut self, _partial: &Execution, w: EventId, r: EventId) {
        self.readers.remove(w, r);
        self.order.undo();
    }

    fn push_co(&mut self, _partial: &Execution, preds: &[EventId], w: EventId) -> PartialVerdict {
        self.order.begin();
        for &p in preds {
            self.order.add_edge(p, w);
            for r in self.readers.successors(p) {
                if r != w {
                    self.order.add_edge(r, w); // fr(r, w) = rf⁻¹(r, p) ; co(p, w)
                }
            }
        }
        self.verdict()
    }

    fn pop_co(&mut self, _partial: &Execution, _preds: &[EventId], _w: EventId) {
        self.order.undo();
    }

    fn blame(&self) -> Option<&str> {
        (!self.order.is_acyclic()).then_some("sc")
    }
}

/// SC-per-location only (coherence): `acyclic (po-loc | rf | co | fr)` plus
/// RMW atomicity. Allows every reordering across locations — close to the
/// weakest *plausible* hardware, handy for differential bounds in tests.
#[derive(Debug, Clone, Copy, Default)]
pub struct CoherenceOnly;

impl ConsistencyModel for CoherenceOnly {
    fn name(&self) -> &str {
        "coherence"
    }

    fn check(&self, x: &Execution) -> Verdict {
        match coherence_violation(&x.po_loc(), &x.ext_rel(), x) {
            Some(rule) => Verdict::Forbidden { rule: rule.into() },
            None => Verdict::allowed(),
        }
    }

    /// Both axioms are monotone — a per-location cycle stays a cycle, a
    /// non-empty `rmw & (fre;coe)` stays non-empty — so either firing on
    /// a partial candidate rejects the subtree.
    fn check_partial(&self, x: &Execution) -> PartialVerdict {
        if coherence_violation(&x.po_loc(), &x.ext_rel(), x).is_some() {
            PartialVerdict::Forbidden
        } else {
            PartialVerdict::Undecided
        }
    }

    /// Incremental session: per-location acyclicity via an
    /// [`IncrementalOrder`] seeded with `po-loc`, atomicity via `co`/`fr`
    /// mirrors updated per edge — no re-derivation per candidate.
    fn combo_checker<'a>(&'a self, skeleton: &Execution) -> Box<dyn ComboChecker + 'a> {
        Box::new(CoherenceSession::new(skeleton))
    }
}

/// The one-shot (non-incremental) coherence test, shared by
/// [`CoherenceOnly::check`] and [`CoherenceOnly::check_partial`]:
/// `acyclic (po-loc | rf | co | fr)` plus RMW atomicity.
fn coherence_violation(po_loc: &Relation, ext: &Relation, x: &Execution) -> Option<&'static str> {
    let fr = x.fr();
    if !Relation::union_is_acyclic(&[po_loc, &x.rf, &x.co, &fr]) {
        return Some("coherence");
    }
    let fre = fr.inter(ext);
    let coe = x.co.inter(ext);
    if !x.rmw.inter(&fre.seq(&coe)).is_empty() {
        return Some("atomicity");
    }
    None
}

/// [`CoherenceOnly`]'s incremental combo session.
///
/// Alongside the reachability order (seeded with the combo-constant
/// `po-loc`), the session mirrors `rf⁻¹`, `co` and `fr` as bit-matrices so
/// the RMW-atomicity axiom `empty rmw & (fre ; coe)` is a few-word probe
/// per rmw pair instead of an intersection + composition per candidate.
struct CoherenceSession {
    order: IncrementalOrder,
    readers: Relation,
    co: Relation,
    fr: Relation,
    ext: Relation,
    rmw: Vec<(EventId, EventId)>,
}

impl CoherenceSession {
    fn new(skeleton: &Execution) -> CoherenceSession {
        let n = skeleton.events.len();
        CoherenceSession {
            order: IncrementalOrder::new(n, &[&skeleton.po_loc()]),
            readers: Relation::with_nodes(n),
            co: Relation::with_nodes(n),
            fr: Relation::with_nodes(n),
            ext: skeleton.ext_rel(),
            rmw: skeleton.rmw.iter().collect(),
        }
    }

    /// `rmw & (fre ; coe)` emptiness over the mirrors.
    fn atomicity_ok(&self) -> bool {
        for &(r, w2) in &self.rmw {
            for w1 in self.fr.successors(r) {
                if self.ext.contains(r, w1)
                    && self.co.contains(w1, w2)
                    && self.ext.contains(w1, w2)
                {
                    return false;
                }
            }
        }
        true
    }

    fn verdict(&self) -> PartialVerdict {
        if self.order.is_acyclic() && self.atomicity_ok() {
            PartialVerdict::Undecided
        } else {
            PartialVerdict::Forbidden
        }
    }
}

impl ComboChecker for CoherenceSession {
    fn check(&self, _execution: &Execution) -> Verdict {
        if !self.order.is_acyclic() {
            return Verdict::Forbidden {
                rule: "coherence".into(),
            };
        }
        if !self.atomicity_ok() {
            return Verdict::Forbidden {
                rule: "atomicity".into(),
            };
        }
        Verdict::allowed()
    }

    fn check_partial(&self, _partial: &Execution) -> PartialVerdict {
        self.verdict()
    }

    fn incremental(&self) -> bool {
        true
    }

    fn push_rf(&mut self, _partial: &Execution, w: EventId, r: EventId) -> PartialVerdict {
        self.order.begin();
        self.order.add_edge(w, r);
        self.readers.insert(w, r);
        self.verdict()
    }

    fn pop_rf(&mut self, _partial: &Execution, w: EventId, r: EventId) {
        self.readers.remove(w, r);
        self.order.undo();
    }

    fn push_co(&mut self, _partial: &Execution, preds: &[EventId], w: EventId) -> PartialVerdict {
        self.order.begin();
        for &p in preds {
            self.order.add_edge(p, w);
            self.co.insert(p, w);
            for r in self.readers.successors(p) {
                if r != w {
                    self.order.add_edge(r, w);
                    self.fr.insert(r, w);
                }
            }
        }
        self.verdict()
    }

    fn pop_co(&mut self, _partial: &Execution, preds: &[EventId], w: EventId) {
        for &p in preds {
            self.co.remove(p, w);
            for r in self.readers.successors(p) {
                if r != w {
                    self.fr.remove(r, w);
                }
            }
        }
        self.order.undo();
    }

    fn blame(&self) -> Option<&str> {
        if !self.order.is_acyclic() {
            Some("coherence")
        } else if !self.atomicity_ok() {
            Some("atomicity")
        } else {
            None
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::{Event, EventKind, INIT_THREAD};
    use crate::rel::Relation;
    use telechat_common::{AnnotSet, EventId, Loc, Outcome, ThreadId, Val};

    fn sb_violation() -> Execution {
        // SB weak outcome: both reads see 0 — a (po|rf|co|fr) cycle.
        let ev = |id: u32, thread, po_index, kind, loc: &str, val: i64| Event {
            id: EventId(id),
            thread,
            po_index,
            kind,
            loc: Some(Loc::new(loc)),
            val: Some(Val::Int(val)),
            annot: AnnotSet::EMPTY,
        };
        let events = vec![
            ev(0, INIT_THREAD, 0, EventKind::Write, "x", 0),
            ev(1, INIT_THREAD, 1, EventKind::Write, "y", 0),
            ev(2, ThreadId(0), 0, EventKind::Write, "x", 1),
            ev(3, ThreadId(0), 1, EventKind::Read, "y", 0),
            ev(4, ThreadId(1), 0, EventKind::Write, "y", 1),
            ev(5, ThreadId(1), 1, EventKind::Read, "x", 0),
        ];
        let mut po = Relation::new();
        po.insert(EventId(2), EventId(3));
        po.insert(EventId(4), EventId(5));
        let mut rf = Relation::new();
        rf.insert(EventId(1), EventId(3));
        rf.insert(EventId(0), EventId(5));
        let mut co = Relation::new();
        co.insert(EventId(0), EventId(2));
        co.insert(EventId(1), EventId(4));
        Execution {
            events,
            po,
            rf,
            co,
            rmw: Relation::new(),
            addr: Relation::new(),
            data: Relation::new(),
            ctrl: Relation::new(),
            outcome: Outcome::new(),
        }
    }

    #[test]
    fn sc_forbids_store_buffering() {
        let x = sb_violation();
        assert!(!SeqCstRef.check(&x).is_allowed());
        assert!(AllowAll.check(&x).is_allowed());
        // Coherence alone allows SB (the cycle crosses locations).
        assert!(CoherenceOnly.check(&x).is_allowed());
    }

    #[test]
    fn verdict_helpers() {
        assert!(Verdict::allowed().is_allowed());
        assert!(!Verdict::Forbidden { rule: "r".into() }.is_allowed());
    }
}
