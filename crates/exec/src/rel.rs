//! Relational algebra over events, on dense bitsets.
//!
//! Memory models are predicates over *relations on events* (paper Def. II.1).
//! This module provides the finite relation type the enumerator builds and
//! the mini-Cat evaluator computes with: union, intersection, difference,
//! composition, inverses, closures, and the acyclicity/irreflexivity checks
//! models are made of.
//!
//! # Representation
//!
//! Events in one candidate execution are dense `EventId`s, so an [`EventSet`]
//! is a vector of `u64` words (one bit per event) and a [`Relation`] is a
//! square bit-matrix: one row of words per source event, bit `b` of row `a`
//! set iff `(a, b)` is an edge. Every algebraic operation is then
//! word-parallel — union/intersection/difference are single-pass `|`/`&`
//! loops, composition OR-combines successor rows, and transitive closure is
//! a Floyd–Warshall sweep over rows — which is what makes the per-candidate
//! model evaluation in the `herd(P, M)` hot path (paper §IV-E's state
//! explosion) cheap: a litmus-scale relation is a handful of cache lines,
//! not a tree of heap nodes.
//!
//! The previous `BTreeSet`-of-pairs representation survives only as the
//! *oracle* in this module's differential property tests (`bitset_oracle`),
//! which pin every operation here to the naive pair-set semantics on
//! randomized graphs.
//!
//! # Word kernels
//!
//! The word loops themselves live in [`crate::kernels`]: every row
//! union/intersection/difference, the `seq` row OR-combines, the
//! Floyd–Warshall inner loop and the popcount/zero-test reductions call the
//! kernel functions rather than open-coding the loop. `seq` and
//! `transitive_closure` additionally skip all-zero source rows, all-zero
//! target rows, and pivots no initial edge enters, which on the sparse
//! deep-shape graphs of the fuzz sampler skips most of the O(n²·stride)
//! work outright.
//!
//! # Full-traversal accounting
//!
//! [`Relation::is_acyclic`], [`Relation::union_is_acyclic`] and
//! [`Relation::topological_order`] each count one *full traversal* in a
//! process-wide counter ([`full_traversals`]). The incremental enumeration
//! engine maintains reachability state per DFS edge (see [`crate::incr`])
//! instead of re-running these per node; a pin test asserts the counter
//! stays flat during enumeration under the built-in models.

use crate::kernels;
use std::fmt;
use telechat_common::EventId;
use telechat_obs::LocalMetric;

/// Bits per word of the bitset representation.
const WORD: usize = 64;

/// Number of words needed to hold `n` bits.
fn words_for(n: usize) -> usize {
    n.div_ceil(WORD)
}

/// The current value of this thread's full-traversal counter (monotone).
///
/// The cell itself lives in the process-wide metrics layer
/// ([`telechat_obs::LocalMetric::FullTraversals`]) — still per thread, so
/// concurrently running tests cannot perturb a pin, and still counted
/// unconditionally because pin tests assert on it with telemetry off.
pub fn full_traversals() -> u64 {
    telechat_obs::local_get(LocalMetric::FullTraversals)
}

fn count_traversal() {
    telechat_obs::local_add(LocalMetric::FullTraversals, 1);
}

/// Iterates the set bit indices of a word slice, ascending.
struct BitIter<'a> {
    words: &'a [u64],
    idx: usize,
    cur: u64,
}

impl<'a> BitIter<'a> {
    fn new(words: &'a [u64]) -> BitIter<'a> {
        BitIter {
            words,
            idx: 0,
            cur: words.first().copied().unwrap_or(0),
        }
    }
}

impl Iterator for BitIter<'_> {
    type Item = usize;

    fn next(&mut self) -> Option<usize> {
        loop {
            if self.cur != 0 {
                let b = self.cur.trailing_zeros() as usize;
                self.cur &= self.cur - 1;
                return Some(self.idx * WORD + b);
            }
            self.idx += 1;
            if self.idx >= self.words.len() {
                return None;
            }
            self.cur = self.words[self.idx];
        }
    }
}

/// A set of events: one bit per dense `EventId`.
#[derive(Debug, Clone, Default)]
pub struct EventSet {
    words: Vec<u64>,
    len: usize,
}

impl EventSet {
    /// The empty set.
    pub fn new() -> EventSet {
        EventSet::default()
    }

    /// An empty set pre-sized for events `0..n` (no reallocation while ids
    /// stay below `n`).
    pub fn with_capacity(n: usize) -> EventSet {
        EventSet {
            words: vec![0; words_for(n)],
            len: 0,
        }
    }

    fn grow_for(&mut self, idx: usize) {
        let need = words_for(idx + 1);
        if need > self.words.len() {
            self.words.resize(need.next_power_of_two(), 0);
        }
    }

    /// Inserts an event.
    pub fn insert(&mut self, e: EventId) -> bool {
        let i = e.index();
        self.grow_for(i);
        let w = &mut self.words[i / WORD];
        let mask = 1u64 << (i % WORD);
        if *w & mask == 0 {
            *w |= mask;
            self.len += 1;
            true
        } else {
            false
        }
    }

    /// Removes an event.
    pub fn remove(&mut self, e: EventId) -> bool {
        let i = e.index();
        if i / WORD >= self.words.len() {
            return false;
        }
        let w = &mut self.words[i / WORD];
        let mask = 1u64 << (i % WORD);
        if *w & mask != 0 {
            *w &= !mask;
            self.len -= 1;
            true
        } else {
            false
        }
    }

    /// Membership test.
    pub fn contains(&self, e: EventId) -> bool {
        let i = e.index();
        i / WORD < self.words.len() && self.words[i / WORD] & (1u64 << (i % WORD)) != 0
    }

    /// Number of events.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True if empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Iterates events in id order.
    pub fn iter(&self) -> impl Iterator<Item = EventId> + '_ {
        BitIter::new(&self.words).map(|i| EventId(i as u32))
    }

    /// The backing words (zero-extended semantics beyond the slice).
    fn word(&self, i: usize) -> u64 {
        self.words.get(i).copied().unwrap_or(0)
    }

    fn recount(&mut self) {
        self.len = kernels::count_ones(&self.words);
    }

    /// In-place union (`self |= other`) — no allocation beyond capacity
    /// growth; this is the variant inner loops (the Cat fixpoint) use.
    pub fn union_with(&mut self, other: &EventSet) {
        if other.words.len() > self.words.len() {
            self.words.resize(other.words.len(), 0);
        }
        kernels::or_assign(&mut self.words, &other.words);
        self.recount();
    }

    /// In-place intersection (`self &= other`).
    pub fn inter_with(&mut self, other: &EventSet) {
        kernels::and_assign(&mut self.words, &other.words);
        self.recount();
    }

    /// In-place difference (`self \= other`).
    pub fn diff_with(&mut self, other: &EventSet) {
        kernels::andnot_assign(&mut self.words, &other.words);
        self.recount();
    }

    /// Set union.
    #[must_use]
    pub fn union(&self, other: &EventSet) -> EventSet {
        let mut out = self.clone();
        out.union_with(other);
        out
    }

    /// Set intersection.
    #[must_use]
    pub fn inter(&self, other: &EventSet) -> EventSet {
        let mut out = self.clone();
        out.inter_with(other);
        out
    }

    /// Set difference.
    #[must_use]
    pub fn diff(&self, other: &EventSet) -> EventSet {
        let mut out = self.clone();
        out.diff_with(other);
        out
    }

    /// One past the highest id that could be set.
    fn bit_capacity(&self) -> usize {
        self.words.len() * WORD
    }

    /// One past the highest member (0 for the empty set).
    fn end(&self) -> usize {
        self.words
            .iter()
            .rposition(|&w| w != 0)
            .map_or(0, |i| i * WORD + WORD - self.words[i].leading_zeros() as usize)
    }

    /// The identity relation on this set (`[S]` in Cat), sized to the
    /// highest member so row loops over it skip the set's padding.
    #[must_use]
    pub fn identity(&self) -> Relation {
        let mut r = Relation::with_nodes(self.end());
        for e in self.iter() {
            r.insert(e, e);
        }
        r
    }

    /// Cartesian product `self × other` (`S * T` in Cat), sized to the
    /// highest member of either operand.
    #[must_use]
    pub fn cross(&self, other: &EventSet) -> Relation {
        let n = self.end().max(other.end());
        let mut r = Relation::with_nodes(n);
        for a in self.iter() {
            r.insert_row(a, other);
        }
        r
    }
}

impl PartialEq for EventSet {
    fn eq(&self, other: &Self) -> bool {
        if self.len != other.len {
            return false;
        }
        let n = self.words.len().max(other.words.len());
        (0..n).all(|i| self.word(i) == other.word(i))
    }
}

impl Eq for EventSet {}

impl FromIterator<EventId> for EventSet {
    fn from_iter<I: IntoIterator<Item = EventId>>(iter: I) -> Self {
        let mut s = EventSet::new();
        for e in iter {
            s.insert(e);
        }
        s
    }
}

impl fmt::Display for EventSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, e) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{e}")?;
        }
        write!(f, "}}")
    }
}

/// A binary relation over events: a square bit-matrix, one row of words per
/// source event (bit `b` of row `a` set iff the edge `(a, b)` is present).
#[derive(Debug, Clone, Default)]
pub struct Relation {
    /// Node capacity: number of allocated rows == number of column bits per
    /// row. Always a power of two ≥ 64 (or 0 for the empty relation).
    cap: usize,
    /// Words per row (`cap / 64`).
    stride: usize,
    /// One past the highest node id ever touched; bounds all row loops.
    nodes: usize,
    /// Row-major bits: row `a` occupies `bits[a*stride .. (a+1)*stride]`.
    bits: Vec<u64>,
    /// Cached edge count.
    edges: usize,
}

impl Relation {
    /// The empty relation.
    pub fn new() -> Relation {
        Relation::default()
    }

    /// An empty relation pre-sized for nodes `0..n`.
    pub fn with_nodes(n: usize) -> Relation {
        if n == 0 {
            return Relation::default();
        }
        let cap = n.next_power_of_two().max(WORD);
        Relation {
            cap,
            stride: cap / WORD,
            nodes: n,
            bits: vec![0; cap * (cap / WORD)],
            edges: 0,
        }
    }

    /// Grows capacity so node index `idx` is addressable.
    fn ensure_node(&mut self, idx: usize) {
        if idx < self.cap {
            return;
        }
        let new_cap = (idx + 1).next_power_of_two().max(WORD);
        let new_stride = new_cap / WORD;
        let mut new_bits = vec![0u64; new_cap * new_stride];
        for a in 0..self.cap {
            let src = &self.bits[a * self.stride..(a + 1) * self.stride];
            new_bits[a * new_stride..a * new_stride + self.stride].copy_from_slice(src);
        }
        self.cap = new_cap;
        self.stride = new_stride;
        self.bits = new_bits;
    }

    /// Row `a` as a word slice (empty if out of capacity).
    fn row(&self, a: usize) -> &[u64] {
        if a < self.cap {
            &self.bits[a * self.stride..(a + 1) * self.stride]
        } else {
            &[]
        }
    }

    /// Row `a` mutably; caller must have ensured capacity.
    fn row_mut(&mut self, a: usize) -> &mut [u64] {
        let s = self.stride;
        &mut self.bits[a * s..(a + 1) * s]
    }

    fn recount(&mut self) {
        self.edges = kernels::count_ones(&self.bits);
    }

    /// Inserts an edge.
    pub fn insert(&mut self, from: EventId, to: EventId) -> bool {
        let (a, b) = (from.index(), to.index());
        let m = a.max(b);
        self.ensure_node(m);
        self.nodes = self.nodes.max(m + 1);
        let w = &mut self.bits[a * self.stride + b / WORD];
        let mask = 1u64 << (b % WORD);
        if *w & mask == 0 {
            *w |= mask;
            self.edges += 1;
            true
        } else {
            false
        }
    }

    /// Removes an edge (the enumeration engine's backtracking undo).
    pub fn remove(&mut self, from: EventId, to: EventId) -> bool {
        let (a, b) = (from.index(), to.index());
        if a >= self.cap || b >= self.cap {
            return false;
        }
        let w = &mut self.bits[a * self.stride + b / WORD];
        let mask = 1u64 << (b % WORD);
        if *w & mask != 0 {
            *w &= !mask;
            self.edges -= 1;
            true
        } else {
            false
        }
    }

    /// ORs a whole event set into row `from` (bulk edge insertion) —
    /// the word-parallel builder the derived-relation constructors use.
    pub fn insert_row(&mut self, from: EventId, targets: &EventSet) {
        let a = from.index();
        let m = targets.end().saturating_sub(1).max(a);
        self.ensure_node(m);
        self.nodes = self.nodes.max(m + 1);
        let stride = self.stride;
        let n = words_for(targets.bit_capacity()).min(stride);
        self.edges += kernels::or_assign_added(
            &mut self.bits[a * stride..a * stride + n],
            &targets.words,
        );
    }

    /// The strict total order over each chain, as one relation: every pair
    /// `(c[i], c[j])` with `i < j`, for every chain `c`.
    ///
    /// Built back-to-front per chain: row `c[i]` is row `c[i+1]` plus the
    /// bit for `c[i+1]`, one word-parallel OR per element. The enumerator
    /// uses it for transitive `po` (one chain per thread) and per-location
    /// `co` prefixes.
    #[must_use]
    pub fn total_order<'a, I>(chains: I) -> Relation
    where
        I: IntoIterator<Item = &'a [EventId]>,
    {
        let chains: Vec<&[EventId]> = chains.into_iter().collect();
        let max = chains
            .iter()
            .flat_map(|c| c.iter())
            .map(|e| e.index())
            .max();
        let Some(max) = max else {
            return Relation::new();
        };
        let mut r = Relation::with_nodes(max + 1);
        let stride = r.stride;
        let mut tmp = vec![0u64; stride];
        for chain in chains {
            for i in (0..chain.len().saturating_sub(1)).rev() {
                let succ = chain[i + 1].index();
                tmp.copy_from_slice(r.row(succ));
                tmp[succ / WORD] |= 1u64 << (succ % WORD);
                r.row_mut(chain[i].index()).copy_from_slice(&tmp);
            }
        }
        r.recount();
        r
    }

    /// Edge membership.
    pub fn contains(&self, from: EventId, to: EventId) -> bool {
        let (a, b) = (from.index(), to.index());
        a < self.cap && b < self.cap && self.bits[a * self.stride + b / WORD] & (1u64 << (b % WORD)) != 0
    }

    /// Number of edges.
    pub fn len(&self) -> usize {
        self.edges
    }

    /// True if the relation has no edges (`empty r` in Cat).
    pub fn is_empty(&self) -> bool {
        self.edges == 0
    }

    /// Iterates edges in lexicographic `(from, to)` order.
    pub fn iter(&self) -> impl Iterator<Item = (EventId, EventId)> + '_ {
        (0..self.nodes).flat_map(move |a| {
            BitIter::new(self.row(a)).map(move |b| (EventId(a as u32), EventId(b as u32)))
        })
    }

    /// Iterates the successors of `from` in id order.
    pub fn successors(&self, from: EventId) -> impl Iterator<Item = EventId> + '_ {
        BitIter::new(self.row(from.index())).map(|b| EventId(b as u32))
    }

    /// In-place union (`self |= other`).
    pub fn union_with(&mut self, other: &Relation) {
        if other.edges == 0 {
            return;
        }
        self.ensure_node(other.nodes - 1);
        self.nodes = self.nodes.max(other.nodes);
        let words = words_for(other.nodes).min(self.stride);
        let mut added = 0usize;
        for a in 0..other.nodes {
            let or = other.row(a);
            let base = a * self.stride;
            added += kernels::or_assign_added(
                &mut self.bits[base..base + words],
                &or[..words.min(or.len())],
            );
        }
        self.edges += added;
    }

    /// In-place intersection (`self &= other`).
    pub fn inter_with(&mut self, other: &Relation) {
        for a in 0..self.nodes {
            let base = a * self.stride;
            let stride = self.stride;
            kernels::and_assign(&mut self.bits[base..base + stride], other.row(a));
        }
        self.recount();
    }

    /// In-place difference (`self \= other`).
    pub fn diff_with(&mut self, other: &Relation) {
        for a in 0..self.nodes {
            let base = a * self.stride;
            let stride = self.stride;
            kernels::andnot_assign(&mut self.bits[base..base + stride], other.row(a));
        }
        self.recount();
    }

    /// Union (`r | s`).
    #[must_use]
    pub fn union(&self, other: &Relation) -> Relation {
        let mut out = self.clone();
        out.union_with(other);
        out
    }

    /// Intersection (`r & s`).
    #[must_use]
    pub fn inter(&self, other: &Relation) -> Relation {
        let mut out = self.clone();
        out.inter_with(other);
        out
    }

    /// Difference (`r \ s`).
    #[must_use]
    pub fn diff(&self, other: &Relation) -> Relation {
        let mut out = self.clone();
        out.diff_with(other);
        out
    }

    /// Relational composition (`r ; s`): `{(a,c) | ∃b. r(a,b) ∧ s(b,c)}` —
    /// each output row is the OR of the successor rows of the first
    /// relation's targets.
    #[must_use]
    pub fn seq(&self, other: &Relation) -> Relation {
        let n = self.nodes.max(other.nodes);
        let mut out = Relation::with_nodes(n);
        if self.edges == 0 || other.edges == 0 {
            return out;
        }
        for a in 0..self.nodes {
            let ra = self.row(a);
            // All-zero source rows contribute nothing; skip before iterating.
            if kernels::is_zero(ra) {
                continue;
            }
            let base = a * out.stride;
            let stride = out.stride;
            for b in BitIter::new(ra) {
                let br = other.row(b);
                if kernels::is_zero(br) {
                    continue;
                }
                kernels::or_assign(&mut out.bits[base..base + stride], br);
            }
        }
        out.recount();
        out
    }

    /// Inverse (`r^-1`).
    #[must_use]
    pub fn inverse(&self) -> Relation {
        let mut out = Relation::with_nodes(self.nodes);
        for (a, b) in self.iter() {
            out.insert(b, a);
        }
        out
    }

    /// Transitive closure (`r+`): a Floyd–Warshall sweep over bit rows.
    ///
    /// Pivots with an all-zero row are skipped (nothing to propagate), and
    /// so are pivots no *initial* edge enters: a column bit can only ever be
    /// copied from a row that already had it, so a column empty in the input
    /// stays empty throughout the sweep and its pivot pass is a no-op.
    #[must_use]
    pub fn transitive_closure(&self) -> Relation {
        let mut c = self.clone();
        let n = c.nodes;
        let stride = c.stride;
        let mut incoming = vec![0u64; stride];
        for a in 0..n {
            kernels::or_assign(&mut incoming, c.row(a));
        }
        let mut tmp = vec![0u64; stride];
        for k in 0..n {
            let (kw, kb) = (k / WORD, 1u64 << (k % WORD));
            if incoming[kw] & kb == 0 {
                continue;
            }
            tmp.copy_from_slice(c.row(k));
            if kernels::is_zero(&tmp) {
                continue;
            }
            for a in 0..n {
                let base = a * stride;
                if c.bits[base + kw] & kb != 0 {
                    kernels::or_assign(&mut c.bits[base..base + stride], &tmp);
                }
            }
        }
        c.recount();
        c
    }

    /// Reflexive-transitive closure over a universe of events (`r*`).
    ///
    /// Cat's `r*` is reflexive over *all* events of the execution, so the
    /// universe must be supplied.
    #[must_use]
    pub fn reflexive_transitive_closure(&self, universe: &EventSet) -> Relation {
        let mut c = self.transitive_closure();
        for e in universe.iter() {
            c.insert(e, e);
        }
        c
    }

    /// Reflexive closure over a universe (`r?`).
    #[must_use]
    pub fn optional(&self, universe: &EventSet) -> Relation {
        let mut c = self.clone();
        for e in universe.iter() {
            c.insert(e, e);
        }
        c
    }

    /// The set of edge sources (`domain(r)`).
    pub fn domain(&self) -> EventSet {
        let mut s = EventSet::with_capacity(self.nodes);
        for a in 0..self.nodes {
            if !kernels::is_zero(self.row(a)) {
                s.insert(EventId(a as u32));
            }
        }
        s
    }

    /// The set of edge targets (`range(r)`).
    pub fn range(&self) -> EventSet {
        let mut s = EventSet::with_capacity(self.nodes);
        for a in 0..self.nodes {
            kernels::or_assign(&mut s.words, self.row(a));
        }
        s.recount();
        s
    }

    /// Restricts edge sources to `s` (`[s];r`).
    #[must_use]
    pub fn restrict_domain(&self, s: &EventSet) -> Relation {
        let mut out = self.clone();
        for a in 0..out.nodes {
            if !s.contains(EventId(a as u32)) {
                out.row_mut(a).fill(0);
            }
        }
        out.recount();
        out
    }

    /// Restricts edge targets to `s` (`r;[s]`).
    #[must_use]
    pub fn restrict_range(&self, s: &EventSet) -> Relation {
        let mut out = self.clone();
        for a in 0..out.nodes {
            let base = a * out.stride;
            let stride = out.stride;
            kernels::and_assign(&mut out.bits[base..base + stride], &s.words);
        }
        out.recount();
        out
    }

    /// The edges of `self` absent from `other`, in lexicographic order —
    /// a word-parallel row difference. The staged Cat engine diffs a
    /// re-evaluated `let rec` group against its previous value this way
    /// (the one node kind it has no delta rule for).
    pub fn edge_diff(&self, other: &Relation) -> Vec<(EventId, EventId)> {
        let mut out = Vec::new();
        self.edge_diff_into(other, &mut out);
        out
    }

    /// [`Relation::edge_diff`] into a caller-owned buffer (cleared first).
    pub fn edge_diff_into(&self, other: &Relation, out: &mut Vec<(EventId, EventId)>) {
        out.clear();
        for a in 0..self.nodes {
            let ra = self.row(a);
            if kernels::is_zero(ra) {
                continue;
            }
            let rb = other.row(a);
            for (i, &w) in ra.iter().enumerate() {
                let mut m = w & !rb.get(i).copied().unwrap_or(0);
                while m != 0 {
                    let b = i * WORD + m.trailing_zeros() as usize;
                    m &= m - 1;
                    out.push((EventId(a as u32), EventId(b as u32)));
                }
            }
        }
    }

    /// The number of common successors of `a` in `self` and `b` in
    /// `other`: `|row(a) ∩ other.row(b)|`, one word-parallel AND per word.
    pub fn common_successors(&self, a: EventId, other: &Relation, b: EventId) -> usize {
        kernels::count_and(self.row(a.index()), other.row(b.index()))
    }

    /// Iterates the predecessors of `to` in id order (a column scan).
    pub fn predecessors(&self, to: EventId) -> impl Iterator<Item = EventId> + '_ {
        (0..self.nodes)
            .filter(move |&a| self.contains(EventId(a as u32), to))
            .map(|a| EventId(a as u32))
    }

    /// `row(a) |= src.row(b)`, appending every newly set edge `(a, c)` to
    /// `out` — the semi-naive step `Δ(A;B) ⊇ ΔA;B` of the staged Cat
    /// engine, one word-parallel OR per delta edge.
    pub fn union_row_from(
        &mut self,
        a: EventId,
        src: &Relation,
        b: EventId,
        out: &mut Vec<(EventId, EventId)>,
    ) {
        let sr = src.row(b.index());
        if kernels::is_zero(sr) {
            return;
        }
        let ai = a.index();
        self.ensure_node(ai.max(src.nodes - 1));
        self.nodes = self.nodes.max(ai + 1).max(src.nodes);
        let base = ai * self.stride;
        for (i, &w) in sr.iter().enumerate().take(self.stride) {
            let new = w & !self.bits[base + i];
            if new == 0 {
                continue;
            }
            self.bits[base + i] |= new;
            self.edges += new.count_ones() as usize;
            for c in BitIter::new(&[new]) {
                out.push((a, EventId((i * WORD + c) as u32)));
            }
        }
    }

    /// Adds `u → v` to a transitively closed relation and restores
    /// closure, appending every newly set edge to `out`: each source in
    /// `{u} ∪ pred(u)` gains `{v} ∪ succ(v)` — the reach-to-source ×
    /// reach-from-target row update of [`crate::IncrementalOrder::add_edge`],
    /// applied to the closure itself. Cyclic closures are fine: a source
    /// row is tested before it is written, and the only change `row(v)`
    /// can receive is the bit `v`, which the target set already holds.
    /// An edge the closure already holds is implied (every source reaching
    /// `u` already reaches `v` and `succ(v)`): it costs one word test and
    /// changes nothing, as in `add_edge`.
    pub fn close_over_edge(&mut self, u: EventId, v: EventId, out: &mut Vec<(EventId, EventId)>) {
        if self.contains(u, v) {
            return;
        }
        let (ui, vi) = (u.index(), v.index());
        self.ensure_node(ui.max(vi));
        self.nodes = self.nodes.max(ui.max(vi) + 1);
        let stride = self.stride;
        let (uw, ub) = (ui / WORD, 1u64 << (ui % WORD));
        let (vw, vb) = (vi / WORD, 1u64 << (vi % WORD));
        for a in 0..self.nodes {
            let base = a * stride;
            if a != ui && self.bits[base + uw] & ub == 0 {
                continue;
            }
            for i in 0..stride {
                let target = self.bits[vi * stride + i] | if i == vw { vb } else { 0 };
                let new = target & !self.bits[base + i];
                if new == 0 {
                    continue;
                }
                self.bits[base + i] |= new;
                self.edges += new.count_ones() as usize;
                for c in BitIter::new(&[new]) {
                    out.push((EventId(a as u32), EventId((i * WORD + c) as u32)));
                }
            }
        }
    }

    /// True if the relation has no edge `(e, e)` (`irreflexive r` in Cat).
    pub fn is_irreflexive(&self) -> bool {
        (0..self.nodes).all(|a| self.bits[a * self.stride + a / WORD] & (1u64 << (a % WORD)) == 0)
    }

    /// The words (width `words_for(self.nodes)`) marking nodes with at least
    /// one incident edge.
    fn active_words(&self) -> Vec<u64> {
        let aw = words_for(self.nodes);
        let mut active = vec![0u64; aw];
        for a in 0..self.nodes {
            let row = self.row(a);
            if !kernels::is_zero(row) {
                active[a / WORD] |= 1u64 << (a % WORD);
                kernels::or_assign(&mut active, row);
            }
        }
        active
    }

    /// Kahn-style elimination: repeatedly drops nodes with no incoming edge
    /// from `remaining`; acyclic iff everything drops. One *full traversal*
    /// (counted) — the enumeration engine's incremental state exists so this
    /// never runs per DFS node.
    fn eliminate(rows: &dyn Fn(usize) -> u64, aw: usize, mut remaining: Vec<u64>) -> bool {
        count_traversal();
        loop {
            let mut incoming = vec![0u64; aw];
            for a in BitIter::new(&remaining) {
                for (i, inc) in incoming.iter_mut().enumerate() {
                    *inc |= rows(a * aw + i);
                }
            }
            let mut progressed = false;
            let mut empty = true;
            for i in 0..aw {
                let ready = remaining[i] & !incoming[i];
                if ready != 0 {
                    remaining[i] &= !ready;
                    progressed = true;
                }
                if remaining[i] != 0 {
                    empty = false;
                }
            }
            if empty {
                return true;
            }
            if !progressed {
                return false;
            }
        }
    }

    /// True if the *union* of `rels` is acyclic, without materialising the
    /// union as an edge set: the union's rows are OR-combined on the fly,
    /// word-parallel. Counts one full traversal.
    pub fn union_is_acyclic(rels: &[&Relation]) -> bool {
        let n = rels.iter().map(|r| r.nodes).max().unwrap_or(0);
        let aw = words_for(n);
        let mut active = vec![0u64; aw];
        for r in rels {
            kernels::or_assign(&mut active, &r.active_words());
        }
        let rows = |flat: usize| -> u64 {
            let (a, i) = (flat / aw.max(1), flat % aw.max(1));
            rels.iter()
                .map(|r| r.row(a).get(i).copied().unwrap_or(0))
                .fold(0, |acc, w| acc | w)
        };
        Relation::eliminate(&rows, aw, active)
    }

    /// True if the relation is acyclic (`acyclic r` in Cat): its transitive
    /// closure is irreflexive. Counts one full traversal.
    pub fn is_acyclic(&self) -> bool {
        let aw = words_for(self.nodes);
        let active = self.active_words();
        let rows = |flat: usize| -> u64 {
            let (a, i) = (flat / aw.max(1), flat % aw.max(1));
            self.row(a).get(i).copied().unwrap_or(0)
        };
        Relation::eliminate(&rows, aw, active)
    }

    /// A topological order of the nodes (those with at least one incident
    /// edge) if the relation is acyclic, smallest-id-first among ready
    /// nodes. Counts one full traversal.
    pub fn topological_order(&self) -> Option<Vec<EventId>> {
        count_traversal();
        let aw = words_for(self.nodes);
        let mut remaining = self.active_words();
        let total: usize = remaining.iter().map(|w| w.count_ones() as usize).sum();
        let mut order = Vec::with_capacity(total);
        for _ in 0..total {
            let mut incoming = vec![0u64; aw];
            for a in BitIter::new(&remaining) {
                kernels::or_assign(&mut incoming, self.row(a));
            }
            // Smallest ready node.
            let mut picked = None;
            for i in 0..aw {
                let ready = remaining[i] & !incoming[i];
                if ready != 0 {
                    picked = Some(i * WORD + ready.trailing_zeros() as usize);
                    break;
                }
            }
            let n = picked?;
            remaining[n / WORD] &= !(1u64 << (n % WORD));
            order.push(EventId(n as u32));
        }
        Some(order)
    }
}

impl PartialEq for Relation {
    fn eq(&self, other: &Self) -> bool {
        if self.edges != other.edges {
            return false;
        }
        let n = self.nodes.max(other.nodes);
        for a in 0..n {
            let (ra, rb) = (self.row(a), other.row(a));
            for i in 0..ra.len().max(rb.len()) {
                if ra.get(i).copied().unwrap_or(0) != rb.get(i).copied().unwrap_or(0) {
                    return false;
                }
            }
        }
        true
    }
}

impl Eq for Relation {}

impl FromIterator<(EventId, EventId)> for Relation {
    fn from_iter<I: IntoIterator<Item = (EventId, EventId)>>(iter: I) -> Self {
        let pairs: Vec<(EventId, EventId)> = iter.into_iter().collect();
        let max = pairs.iter().map(|(a, b)| a.index().max(b.index())).max();
        let mut r = match max {
            Some(m) => Relation::with_nodes(m + 1),
            None => Relation::new(),
        };
        for (a, b) in pairs {
            r.insert(a, b);
        }
        r
    }
}

impl fmt::Display for Relation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{{")?;
        for (i, (a, b)) in self.iter().enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{a}->{b}")?;
        }
        write!(f, "}}")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rel(pairs: &[(u32, u32)]) -> Relation {
        pairs
            .iter()
            .map(|&(a, b)| (EventId(a), EventId(b)))
            .collect()
    }

    fn set(ids: &[u32]) -> EventSet {
        ids.iter().map(|&i| EventId(i)).collect()
    }

    #[test]
    fn seq_composes() {
        let r = rel(&[(0, 1), (1, 2)]);
        let s = rel(&[(1, 5), (2, 6)]);
        assert_eq!(r.seq(&s), rel(&[(0, 5), (1, 6)]));
    }

    #[test]
    fn transitive_closure_chains() {
        let r = rel(&[(0, 1), (1, 2), (2, 3)]);
        let tc = r.transitive_closure();
        assert!(tc.contains(EventId(0), EventId(3)));
        assert_eq!(tc.len(), 6);
    }

    #[test]
    fn acyclicity() {
        assert!(rel(&[(0, 1), (1, 2)]).is_acyclic());
        assert!(!rel(&[(0, 1), (1, 0)]).is_acyclic());
        assert!(!rel(&[(0, 0)]).is_acyclic());
        assert!(Relation::new().is_acyclic());
    }

    #[test]
    fn irreflexivity() {
        assert!(rel(&[(0, 1)]).is_irreflexive());
        assert!(!rel(&[(0, 1), (2, 2)]).is_irreflexive());
    }

    #[test]
    fn identity_and_cross() {
        let s = set(&[1, 2]);
        assert_eq!(s.identity(), rel(&[(1, 1), (2, 2)]));
        assert_eq!(
            s.cross(&set(&[7])),
            rel(&[(1, 7), (2, 7)])
        );
        // `nodes` is one past the highest member, not the set's word
        // capacity: row loops over `[S]`/`S * T` never walk padding.
        let empty = EventSet::new();
        let wide = set(&[3, 70]);
        assert_eq!(s.identity().nodes, 3);
        assert_eq!(wide.identity().nodes, 71);
        assert_eq!(empty.identity().nodes, 0);
        assert_eq!(s.cross(&set(&[7])).nodes, 8);
        assert_eq!(set(&[7]).cross(&s).nodes, 8);
        assert_eq!(s.cross(&wide).nodes, 71);
        assert_eq!(s.cross(&empty).nodes, 3);
        assert_eq!(empty.cross(&wide).nodes, 71);
        assert_eq!(empty.cross(&empty).nodes, 0);
        // A set whose high word was emptied keeps its capacity but not
        // its size.
        let mut shrunk = wide.clone();
        shrunk.remove(EventId(70));
        assert_eq!(shrunk.identity().nodes, 4);
        assert_eq!(shrunk.identity(), rel(&[(3, 3)]));
    }

    #[test]
    fn domain_range_restrict() {
        let r = rel(&[(0, 1), (2, 3)]);
        assert_eq!(r.domain(), set(&[0, 2]));
        assert_eq!(r.range(), set(&[1, 3]));
        assert_eq!(r.restrict_domain(&set(&[0])), rel(&[(0, 1)]));
        assert_eq!(r.restrict_range(&set(&[3])), rel(&[(2, 3)]));
    }

    #[test]
    fn topological_order_respects_edges() {
        let r = rel(&[(2, 1), (1, 0)]);
        let order = r.topological_order().unwrap();
        let pos = |e: u32| order.iter().position(|&x| x == EventId(e)).unwrap();
        assert!(pos(2) < pos(1));
        assert!(pos(1) < pos(0));
        assert_eq!(rel(&[(0, 1), (1, 0)]).topological_order(), None);
    }

    #[test]
    fn optional_is_reflexive_over_universe() {
        let r = rel(&[(0, 1)]);
        let u = set(&[0, 1, 2]);
        let opt = r.optional(&u);
        assert!(opt.contains(EventId(2), EventId(2)));
        assert!(opt.contains(EventId(0), EventId(1)));
        assert_eq!(opt.len(), 4);
    }

    #[test]
    fn insert_remove_round_trip() {
        let mut r = Relation::new();
        assert!(r.insert(EventId(3), EventId(70)));
        assert!(!r.insert(EventId(3), EventId(70)));
        assert!(r.contains(EventId(3), EventId(70)));
        assert_eq!(r.len(), 1);
        assert!(r.remove(EventId(3), EventId(70)));
        assert!(!r.remove(EventId(3), EventId(70)));
        assert!(r.is_empty());
        assert_eq!(r, Relation::new());
    }

    #[test]
    fn equality_ignores_capacity() {
        let mut big = Relation::with_nodes(200);
        big.insert(EventId(0), EventId(1));
        let mut small = Relation::new();
        small.insert(EventId(0), EventId(1));
        assert_eq!(big, small);
        let mut s_big = EventSet::with_capacity(500);
        s_big.insert(EventId(2));
        let mut s_small = EventSet::new();
        s_small.insert(EventId(2));
        assert_eq!(s_big, s_small);
    }

    #[test]
    fn iter_is_sorted_lexicographically() {
        let r = rel(&[(5, 0), (0, 5), (0, 1), (3, 3)]);
        let edges: Vec<(u32, u32)> = r.iter().map(|(a, b)| (a.0, b.0)).collect();
        assert_eq!(edges, vec![(0, 1), (0, 5), (3, 3), (5, 0)]);
    }

    #[test]
    fn in_place_ops_match_allocating_ops() {
        let r = rel(&[(0, 1), (1, 2), (64, 65)]);
        let s = rel(&[(1, 2), (2, 3)]);
        let mut u = r.clone();
        u.union_with(&s);
        assert_eq!(u, r.union(&s));
        let mut i = r.clone();
        i.inter_with(&s);
        assert_eq!(i, r.inter(&s));
        let mut d = r.clone();
        d.diff_with(&s);
        assert_eq!(d, r.diff(&s));
        let a = set(&[0, 1, 64]);
        let b = set(&[1, 64, 65]);
        let mut u = a.clone();
        u.union_with(&b);
        assert_eq!(u, a.union(&b));
    }

    #[test]
    fn full_traversal_counter_increments() {
        let before = full_traversals();
        let r = rel(&[(0, 1), (1, 2)]);
        assert!(r.is_acyclic());
        assert!(Relation::union_is_acyclic(&[&r]));
        r.topological_order().unwrap();
        assert!(full_traversals() >= before + 3);
    }
}

#[cfg(test)]
mod proptests {
    //! Deterministic property tests over pseudo-random relations.
    //!
    //! The build environment vendors no registry crates, so instead of
    //! `proptest` these run each algebraic law over a fixed stream of
    //! relations generated with the workspace-shared deterministic
    //! [`XorShiftRng`]. The stream is seeded per property, so failures
    //! are reproducible by construction.

    use super::*;
    use telechat_common::XorShiftRng as Rng;

    const CASES: usize = 200;

    fn random_relation(rng: &mut Rng, max_node: u32, max_edges: u64) -> Relation {
        let edges = rng.below(max_edges + 1);
        (0..edges)
            .map(|_| {
                (
                    EventId(rng.below(u64::from(max_node)) as u32),
                    EventId(rng.below(u64::from(max_node)) as u32),
                )
            })
            .collect()
    }

    fn for_each_relation(seed: u64, mut check: impl FnMut(Relation)) {
        let mut rng = Rng::seed_from_u64(seed);
        for _ in 0..CASES {
            check(random_relation(&mut rng, 8, 20));
        }
    }

    fn for_each_triple(seed: u64, mut check: impl FnMut(Relation, Relation, Relation)) {
        let mut rng = Rng::seed_from_u64(seed);
        for _ in 0..CASES {
            let r = random_relation(&mut rng, 6, 12);
            let s = random_relation(&mut rng, 6, 12);
            let t = random_relation(&mut rng, 6, 12);
            check(r, s, t);
        }
    }

    #[test]
    fn closure_is_idempotent() {
        for_each_relation(1, |r| {
            let c1 = r.transitive_closure();
            let c2 = c1.transitive_closure();
            assert_eq!(c1, c2, "relation {r}");
        });
    }

    #[test]
    fn closure_contains_relation() {
        for_each_relation(2, |r| {
            let c = r.transitive_closure();
            assert!(r.iter().all(|(a, b)| c.contains(a, b)), "relation {r}");
        });
    }

    #[test]
    fn inverse_is_involutive() {
        for_each_relation(3, |r| {
            assert_eq!(r.inverse().inverse(), r, "relation {r}");
        });
    }

    #[test]
    fn seq_associative() {
        for_each_triple(4, |r, s, t| {
            assert_eq!(r.seq(&s).seq(&t), r.seq(&s.seq(&t)));
        });
    }

    #[test]
    fn union_distributes_over_seq() {
        for_each_triple(5, |r, s, t| {
            assert_eq!(r.union(&s).seq(&t), r.seq(&t).union(&s.seq(&t)));
        });
    }

    #[test]
    fn acyclic_iff_topological_order_exists() {
        for_each_relation(6, |r| {
            assert_eq!(r.is_acyclic(), r.topological_order().is_some(), "{r}");
        });
    }

    #[test]
    fn topological_order_sound() {
        for_each_relation(7, |r| {
            if let Some(order) = r.topological_order() {
                let pos: std::collections::BTreeMap<_, _> =
                    order.iter().enumerate().map(|(i, &e)| (e, i)).collect();
                for (a, b) in r.iter() {
                    assert!(pos[&a] < pos[&b], "edge {a}->{b} violates order of {r}");
                }
            }
        });
    }

    #[test]
    fn acyclic_relation_closure_is_irreflexive() {
        for_each_relation(8, |r| {
            assert_eq!(r.is_acyclic(), r.transitive_closure().is_irreflexive(), "{r}");
        });
    }

    #[test]
    fn inverse_of_seq_flips() {
        for_each_triple(9, |r, s, _| {
            assert_eq!(r.seq(&s).inverse(), s.inverse().seq(&r.inverse()));
        });
    }
}

#[cfg(test)]
mod bitset_oracle {
    //! Differential tests: every bitset operation against a kept
    //! `BTreeSet`-of-pairs oracle (the pre-bitset representation) on
    //! randomized small graphs. The oracle implementations below are the
    //! literal old algorithms, so any semantic drift in the word-parallel
    //! rewrites shows up as a mismatch with a reproducible seed.

    use super::*;
    use std::collections::{BTreeMap, BTreeSet};
    use telechat_common::XorShiftRng as Rng;

    /// The pair-set oracle: the old `Relation` representation.
    #[derive(Debug, Clone, PartialEq, Eq, Default)]
    struct PairRel(BTreeSet<(u32, u32)>);

    impl PairRel {
        fn from_bitset(r: &Relation) -> PairRel {
            PairRel(r.iter().map(|(a, b)| (a.0, b.0)).collect())
        }

        fn to_bitset(&self) -> Relation {
            self.0
                .iter()
                .map(|&(a, b)| (EventId(a), EventId(b)))
                .collect()
        }

        fn union(&self, o: &PairRel) -> PairRel {
            PairRel(self.0.union(&o.0).copied().collect())
        }

        fn inter(&self, o: &PairRel) -> PairRel {
            PairRel(self.0.intersection(&o.0).copied().collect())
        }

        fn diff(&self, o: &PairRel) -> PairRel {
            PairRel(self.0.difference(&o.0).copied().collect())
        }

        fn seq(&self, o: &PairRel) -> PairRel {
            let mut out = BTreeSet::new();
            for &(a, b) in &self.0 {
                for &(b2, c) in &o.0 {
                    if b == b2 {
                        out.insert((a, c));
                    }
                }
            }
            PairRel(out)
        }

        fn inverse(&self) -> PairRel {
            PairRel(self.0.iter().map(|&(a, b)| (b, a)).collect())
        }

        fn transitive_closure(&self) -> PairRel {
            let mut closure = self.clone();
            loop {
                let step = closure.seq(self);
                let merged = closure.union(&step);
                if merged.0.len() == closure.0.len() {
                    return closure;
                }
                closure = merged;
            }
        }

        fn is_irreflexive(&self) -> bool {
            self.0.iter().all(|(a, b)| a != b)
        }

        /// The old Kahn's-algorithm acyclicity check, verbatim.
        fn is_acyclic(&self) -> bool {
            let nodes: BTreeSet<u32> = self.0.iter().flat_map(|&(a, b)| [a, b]).collect();
            let mut indegree: BTreeMap<u32, usize> = nodes.iter().map(|&n| (n, 0)).collect();
            for &(_, b) in &self.0 {
                *indegree.get_mut(&b).expect("node present") += 1;
            }
            let mut queue: Vec<u32> = indegree
                .iter()
                .filter(|(_, &d)| d == 0)
                .map(|(&n, _)| n)
                .collect();
            let mut visited = 0usize;
            while let Some(n) = queue.pop() {
                visited += 1;
                for &(a, b) in &self.0 {
                    if a == n {
                        let d = indegree.get_mut(&b).expect("node present");
                        *d -= 1;
                        if *d == 0 {
                            queue.push(b);
                        }
                    }
                }
            }
            visited == nodes.len()
        }

        fn domain(&self) -> BTreeSet<u32> {
            self.0.iter().map(|&(a, _)| a).collect()
        }

        fn range(&self) -> BTreeSet<u32> {
            self.0.iter().map(|&(_, b)| b).collect()
        }
    }

    fn random_pairs(rng: &mut Rng, max_node: u32, max_edges: u64) -> PairRel {
        let edges = rng.below(max_edges + 1);
        PairRel(
            (0..edges)
                .map(|_| {
                    (
                        rng.below(u64::from(max_node)) as u32,
                        rng.below(u64::from(max_node)) as u32,
                    )
                })
                .collect(),
        )
    }

    fn set_of(ids: &BTreeSet<u32>) -> EventSet {
        ids.iter().map(|&i| EventId(i)).collect()
    }

    const CASES: usize = 300;

    /// Mixes tiny graphs with multi-word ones so the stride-growth paths
    /// are exercised, not just the one-word fast path: 64 nodes is exactly
    /// one word, 192 and 320 span strides 4 and 8 (caps 256 and 512).
    fn for_each_pair(seed: u64, mut check: impl FnMut(PairRel, PairRel)) {
        let mut rng = Rng::seed_from_u64(seed);
        for case in 0..CASES {
            let (max_node, max_edges) = match case % 6 {
                0 => (9, 24),
                1 => (64, 32),
                2 => (192, 48),
                3 => (320, 64),
                _ => (70, 24),
            };
            let r = random_pairs(&mut rng, max_node, max_edges);
            let s = random_pairs(&mut rng, max_node, max_edges);
            check(r, s);
        }
    }

    #[test]
    fn union_inter_diff_match_oracle() {
        for_each_pair(11, |r, s| {
            let (br, bs) = (r.to_bitset(), s.to_bitset());
            assert_eq!(PairRel::from_bitset(&br.union(&bs)), r.union(&s));
            assert_eq!(PairRel::from_bitset(&br.inter(&bs)), r.inter(&s));
            assert_eq!(PairRel::from_bitset(&br.diff(&bs)), r.diff(&s));
        });
    }

    #[test]
    fn seq_matches_oracle() {
        for_each_pair(12, |r, s| {
            let (br, bs) = (r.to_bitset(), s.to_bitset());
            assert_eq!(PairRel::from_bitset(&br.seq(&bs)), r.seq(&s));
        });
    }

    #[test]
    fn inverse_matches_oracle() {
        for_each_pair(13, |r, _| {
            assert_eq!(PairRel::from_bitset(&r.to_bitset().inverse()), r.inverse());
        });
    }

    #[test]
    fn closures_match_oracle() {
        for_each_pair(14, |r, _| {
            let br = r.to_bitset();
            assert_eq!(
                PairRel::from_bitset(&br.transitive_closure()),
                r.transitive_closure()
            );
            // r* = r+ ∪ id over the universe of touched nodes.
            let nodes: BTreeSet<u32> = r.domain().union(&r.range()).copied().collect();
            let universe = set_of(&nodes);
            let rstar = br.reflexive_transitive_closure(&universe);
            let mut expect = r.transitive_closure();
            for &n in &nodes {
                expect.0.insert((n, n));
            }
            assert_eq!(PairRel::from_bitset(&rstar), expect);
            // r? = r ∪ id.
            let ropt = br.optional(&universe);
            let mut expect = r.clone();
            for &n in &nodes {
                expect.0.insert((n, n));
            }
            assert_eq!(PairRel::from_bitset(&ropt), expect);
        });
    }

    #[test]
    fn acyclic_and_irreflexive_match_oracle() {
        for_each_pair(15, |r, s| {
            let (br, bs) = (r.to_bitset(), s.to_bitset());
            assert_eq!(br.is_acyclic(), r.is_acyclic(), "{br}");
            assert_eq!(br.is_irreflexive(), r.is_irreflexive(), "{br}");
            assert_eq!(
                Relation::union_is_acyclic(&[&br, &bs]),
                r.union(&s).is_acyclic(),
                "{br} ∪ {bs}"
            );
        });
    }

    #[test]
    fn edge_diff_matches_oracle() {
        for_each_pair(21, |r, s| {
            let (br, bs) = (r.to_bitset(), s.to_bitset());
            let got: Vec<(u32, u32)> = br.edge_diff(&bs).iter().map(|&(a, b)| (a.0, b.0)).collect();
            let expect: Vec<(u32, u32)> = r.diff(&s).0.into_iter().collect();
            assert_eq!(got, expect);
        });
    }

    /// The staged Cat engine's delta primitives: edge-by-edge closure
    /// maintenance reaches the oracle closure of the union, the row OR
    /// reports exactly the edges it added, and predecessors are the
    /// inverse's successors.
    #[test]
    fn delta_primitives_match_oracle() {
        for_each_pair(22, |r, s| {
            let (br, bs) = (r.to_bitset(), s.to_bitset());
            let mut closed = br.transitive_closure();
            let mut added = Vec::new();
            for (u, v) in bs.iter() {
                closed.close_over_edge(u, v, &mut added);
            }
            let expect = r.union(&s).transitive_closure();
            assert_eq!(PairRel::from_bitset(&closed), expect);
            assert_eq!(closed.len(), expect.0.len(), "edge count stays exact");
            let grown: BTreeSet<(u32, u32)> = added.iter().map(|&(a, b)| (a.0, b.0)).collect();
            assert_eq!(grown.len(), added.len(), "each new edge reported once");
            assert_eq!(grown, expect.diff(&r.transitive_closure()).0);
            // Every edge of a closed relation is implied: closing over it
            // again leaves the bits, the edge count and `out` unchanged.
            let before = closed.clone();
            let mut none = Vec::new();
            for (u, v) in before.iter() {
                closed.close_over_edge(u, v, &mut none);
            }
            assert_eq!(closed.bits, before.bits, "implied edges keep the bits");
            assert_eq!(
                closed.len(),
                before.len(),
                "implied edges keep the edge count"
            );
            assert!(none.is_empty(), "implied edges report nothing: {none:?}");

            let mut acc = br.clone();
            let mut added = Vec::new();
            for (a, b) in bs.iter() {
                acc.union_row_from(a, &br, b, &mut added);
            }
            let expect = r.union(&s.seq(&r));
            assert_eq!(PairRel::from_bitset(&acc), expect);
            assert_eq!(acc.len(), expect.0.len());
            let grown: BTreeSet<(u32, u32)> = added.iter().map(|&(a, b)| (a.0, b.0)).collect();
            assert_eq!(grown, expect.diff(&r).0);

            let inv = br.inverse();
            for b in 0..br.nodes as u32 {
                let preds: Vec<EventId> = br.predecessors(EventId(b)).collect();
                let expect: Vec<EventId> = inv.successors(EventId(b)).collect();
                assert_eq!(preds, expect);
            }
            let row = |p: &PairRel, a: u32| -> BTreeSet<u32> {
                p.0.range((a, 0)..=(a, u32::MAX)).map(|&(_, y)| y).collect()
            };
            for a in r.domain() {
                for b in s.domain() {
                    assert_eq!(
                        br.common_successors(EventId(a), &bs, EventId(b)),
                        row(&r, a).intersection(&row(&s, b)).count(),
                        "common successors of e{a} and e{b}"
                    );
                }
            }
        });
    }

    #[test]
    fn domain_range_restrict_match_oracle() {
        for_each_pair(16, |r, s| {
            let br = r.to_bitset();
            assert_eq!(br.domain(), set_of(&r.domain()));
            assert_eq!(br.range(), set_of(&r.range()));
            let filter = set_of(&s.domain());
            let expect_dom =
                PairRel(r.0.iter().filter(|(a, _)| s.domain().contains(a)).copied().collect());
            let expect_rng =
                PairRel(r.0.iter().filter(|(_, b)| s.domain().contains(b)).copied().collect());
            assert_eq!(PairRel::from_bitset(&br.restrict_domain(&filter)), expect_dom);
            assert_eq!(PairRel::from_bitset(&br.restrict_range(&filter)), expect_rng);
        });
    }

    #[test]
    fn display_and_iter_match_oracle_order() {
        for_each_pair(17, |r, _| {
            let br = r.to_bitset();
            let edges: Vec<(u32, u32)> = br.iter().map(|(a, b)| (a.0, b.0)).collect();
            let expect: Vec<(u32, u32)> = r.0.iter().copied().collect();
            assert_eq!(edges, expect, "iteration must stay sorted");
            let shown = format!("{br}");
            let expect_shown = format!(
                "{{{}}}",
                r.0.iter()
                    .map(|(a, b)| format!("e{a}->e{b}"))
                    .collect::<Vec<_>>()
                    .join(", ")
            );
            assert_eq!(shown, expect_shown);
        });
    }

    #[test]
    fn insert_remove_sequences_match_oracle() {
        let mut rng = Rng::seed_from_u64(18);
        for _ in 0..100 {
            let mut oracle = PairRel::default();
            let mut bits = Relation::new();
            for _ in 0..60 {
                let a = rng.below(70) as u32;
                let b = rng.below(70) as u32;
                if rng.below(4) == 0 {
                    assert_eq!(
                        bits.remove(EventId(a), EventId(b)),
                        oracle.0.remove(&(a, b))
                    );
                } else {
                    assert_eq!(
                        bits.insert(EventId(a), EventId(b)),
                        oracle.0.insert((a, b))
                    );
                }
                assert_eq!(bits.len(), oracle.0.len());
            }
            assert_eq!(PairRel::from_bitset(&bits), oracle);
        }
    }

    #[test]
    fn eventset_ops_match_oracle() {
        let mut rng = Rng::seed_from_u64(19);
        for _ in 0..200 {
            let a: BTreeSet<u32> = (0..rng.below(20)).map(|_| rng.below(80) as u32).collect();
            let b: BTreeSet<u32> = (0..rng.below(20)).map(|_| rng.below(80) as u32).collect();
            let (sa, sb) = (set_of(&a), set_of(&b));
            let check = |s: &EventSet, o: BTreeSet<u32>| {
                let got: BTreeSet<u32> = s.iter().map(|e| e.0).collect();
                assert_eq!(got, o);
                assert_eq!(s.len(), o.len());
            };
            check(&sa.union(&sb), a.union(&b).copied().collect());
            check(&sa.inter(&sb), a.intersection(&b).copied().collect());
            check(&sa.diff(&sb), a.difference(&b).copied().collect());
            // identity and cross against first-principles pair sets.
            let id = PairRel(a.iter().map(|&x| (x, x)).collect());
            assert_eq!(PairRel::from_bitset(&sa.identity()), id);
            let mut cross = BTreeSet::new();
            for &x in &a {
                for &y in &b {
                    cross.insert((x, y));
                }
            }
            assert_eq!(PairRel::from_bitset(&sa.cross(&sb)), PairRel(cross));
        }
    }

    #[test]
    fn total_order_matches_definition() {
        let mut rng = Rng::seed_from_u64(20);
        for _ in 0..100 {
            // Disjoint ascending chains, like per-thread po.
            let mut next = 0u32;
            let mut chains: Vec<Vec<EventId>> = Vec::new();
            for _ in 0..rng.below(4) {
                let len = rng.below(6) as usize;
                chains.push((0..len).map(|_| {
                    let id = next;
                    next += 1 + rng.below(3) as u32;
                    EventId(id)
                }).collect());
            }
            let got = Relation::total_order(chains.iter().map(Vec::as_slice));
            let mut expect = PairRel::default();
            for c in &chains {
                for i in 0..c.len() {
                    for j in (i + 1)..c.len() {
                        expect.0.insert((c[i].0, c[j].0));
                    }
                }
            }
            assert_eq!(PairRel::from_bitset(&got), expect);
        }
    }
}
