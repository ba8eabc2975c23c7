//! Incremental acyclicity over a growing edge set, with LIFO undo.
//!
//! The enumeration engine's coherence swap-DFS pushes edges (one rf edge,
//! or one coherence-chain extension plus its derived `fr` edges) and pops
//! them on backtrack. Re-running Kahn's algorithm at every DFS node costs
//! `O(V + E)` *per node*; [`IncrementalOrder`] instead maintains a full
//! reachability bit-matrix that an edge insertion updates in
//! `O(rows-touched × words-per-row)` — proportional to the part of the
//! graph the edge actually affects — and a journal so a pop restores the
//! pre-push rows exactly.
//!
//! The structure is the classic incremental transitive closure (Italiano's
//! algorithm) specialised to the DFS access pattern: deletions are only
//! ever *undos of the most recent insertions*, so no decremental machinery
//! is needed — saved rows are replayed in reverse.
//!
//! Cycle detection falls out of the closure for free: inserting `u → v`
//! closes a cycle iff `v` already reaches `u` (or `u == v`). Cycle-closing
//! edges are *counted but not applied* (their reachability update is
//! skipped); while the count is non-zero the graph is cyclic. The engine
//! prunes a subtree the moment its verdict goes `Forbidden`, so in
//! practice at most one cycle edge is ever outstanding per DFS branch.

use crate::kernels;
use crate::rel::Relation;
use telechat_common::EventId;

/// Bits per word.
const WORD: usize = 64;

fn words_for(n: usize) -> usize {
    n.div_ceil(WORD)
}

/// One DFS frame: where the journal stood when the frame opened, and how
/// many cycle edges the frame added.
#[derive(Debug, Clone, Copy)]
struct Frame {
    journal_mark: usize,
    cycles_added: u32,
}

/// Incremental reachability/acyclicity state for a fixed node universe.
#[derive(Debug, Clone)]
pub struct IncrementalOrder {
    /// Node count (fixed at construction; ids must stay below it).
    nodes: usize,
    /// Words per reachability row.
    stride: usize,
    /// `reach[a]` = set of nodes strictly reachable from `a` (row-major).
    reach: Vec<u64>,
    /// Row indices whose previous contents sit in `journal_rows`.
    journal_idx: Vec<u32>,
    /// Saved rows, `stride` words per entry, append-only until undo.
    journal_rows: Vec<u64>,
    /// Open frames (one per [`IncrementalOrder::begin`]).
    frames: Vec<Frame>,
    /// Outstanding cycle edges (base seed cycles plus un-undone pushes).
    cycles: u32,
    /// Scratch row for [`IncrementalOrder::add_edge`]'s target set, sized
    /// by `reset`, so accepting an edge allocates nothing.
    targets: Vec<u64>,
}

impl IncrementalOrder {
    /// Builds the state over `nodes` events, seeded with the union of
    /// `seeds` (the combo-constant relations, e.g. `po`). Seed edges are
    /// permanent: they sit below every frame and are never undone.
    pub fn new(nodes: usize, seeds: &[&Relation]) -> IncrementalOrder {
        let mut order = IncrementalOrder {
            nodes: 0,
            stride: 0,
            reach: Vec::new(),
            journal_idx: Vec::new(),
            journal_rows: Vec::new(),
            frames: Vec::new(),
            cycles: 0,
            targets: Vec::new(),
        };
        order.reset(nodes, seeds);
        order
    }

    /// Re-initialises the state in place for a (possibly different) node
    /// universe and seed set, reusing the word-matrix and journal
    /// allocations — the combo-rebuild path of session pools (a fresh
    /// combo of the same litmus test has the same node count, so no
    /// reallocation happens at all).
    pub fn reset(&mut self, nodes: usize, seeds: &[&Relation]) {
        let stride = words_for(nodes);
        self.nodes = nodes;
        self.stride = stride;
        self.reach.clear();
        self.reach.resize(nodes * stride, 0);
        self.journal_idx.clear();
        self.journal_rows.clear();
        self.frames.clear();
        self.cycles = 0;
        self.targets.clear();
        self.targets.resize(stride, 0);
        let mut seed = Relation::with_nodes(nodes);
        for s in seeds {
            seed.union_with(s);
        }
        let closure = seed.transitive_closure();
        for a in 0..nodes {
            let e = EventId(a as u32);
            for b in closure.successors(e) {
                self.reach[a * stride + b.index() / WORD] |= 1u64 << (b.index() % WORD);
            }
            if closure.contains(e, e) {
                self.cycles += 1;
            }
        }
    }

    /// Opens an undo frame; every subsequent [`add_edge`] belongs to it
    /// until the matching [`undo`].
    ///
    /// [`add_edge`]: IncrementalOrder::add_edge
    /// [`undo`]: IncrementalOrder::undo
    pub fn begin(&mut self) {
        self.frames.push(Frame {
            journal_mark: self.journal_idx.len(),
            cycles_added: 0,
        });
    }

    /// True iff `b` is strictly reachable from `a` via recorded edges.
    pub fn reaches(&self, a: EventId, b: EventId) -> bool {
        let (a, b) = (a.index(), b.index());
        a < self.nodes && self.reach[a * self.stride + b / WORD] & (1u64 << (b % WORD)) != 0
    }

    /// Records the edge `u → v` in the current frame.
    ///
    /// Returns `false` iff the edge closes a cycle (it is then counted but
    /// its reachability update skipped — see the module docs). Cost is one
    /// scan over the rows that can reach `u` plus one word-parallel OR per
    /// such row.
    ///
    /// # Panics
    ///
    /// Panics (debug) if no frame is open or an id is out of range.
    pub fn add_edge(&mut self, u: EventId, v: EventId) -> bool {
        debug_assert!(!self.frames.is_empty(), "add_edge outside a frame");
        let (ui, vi) = (u.index(), v.index());
        debug_assert!(ui < self.nodes && vi < self.nodes, "id out of range");
        let frame = self.frames.last_mut().expect("open frame");
        if ui == vi || self.reach[vi * self.stride + ui / WORD] & (1u64 << (ui % WORD)) != 0 {
            frame.cycles_added += 1;
            self.cycles += 1;
            return false;
        }
        // targets = reach(v) ∪ {v}: everything newly reachable through u→v.
        let stride = self.stride;
        let targets = &mut self.targets;
        targets.copy_from_slice(&self.reach[vi * stride..(vi + 1) * stride]);
        targets[vi / WORD] |= 1u64 << (vi % WORD);
        // Sources: u itself plus every a that already reaches u.
        let (uw, ub) = (ui / WORD, 1u64 << (ui % WORD));
        for a in 0..self.nodes {
            if a != ui && self.reach[a * stride + uw] & ub == 0 {
                continue;
            }
            let row = &self.reach[a * stride..(a + 1) * stride];
            if kernels::is_superset(row, targets) {
                continue; // already reaches everything new
            }
            self.journal_idx.push(a as u32);
            self.journal_rows.extend_from_slice(row);
            kernels::or_assign(&mut self.reach[a * stride..(a + 1) * stride], targets);
        }
        true
    }

    /// Closes the most recent frame, restoring the state to just before its
    /// [`begin`](IncrementalOrder::begin).
    ///
    /// # Panics
    ///
    /// Panics if no frame is open.
    pub fn undo(&mut self) {
        let frame = self.frames.pop().expect("undo without begin");
        self.cycles -= frame.cycles_added;
        let stride = self.stride;
        while self.journal_idx.len() > frame.journal_mark {
            let a = self.journal_idx.pop().expect("journal entry") as usize;
            let at = self.journal_rows.len() - stride;
            self.reach[a * stride..(a + 1) * stride].copy_from_slice(&self.journal_rows[at..]);
            self.journal_rows.truncate(at);
        }
    }

    /// True while no recorded edge (seed or pushed) closes a cycle.
    pub fn is_acyclic(&self) -> bool {
        self.cycles == 0
    }

    /// Number of open frames (diagnostics/tests).
    pub fn depth(&self) -> usize {
        self.frames.len()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use telechat_common::XorShiftRng as Rng;

    fn e(i: u32) -> EventId {
        EventId(i)
    }

    #[test]
    fn detects_cycle_and_undoes() {
        let seed: Relation = [(e(0), e(1))].into_iter().collect();
        let mut ord = IncrementalOrder::new(4, &[&seed]);
        assert!(ord.is_acyclic());
        ord.begin();
        assert!(ord.add_edge(e(1), e(2)));
        assert!(ord.is_acyclic());
        assert!(ord.reaches(e(0), e(2)));
        ord.begin();
        assert!(!ord.add_edge(e(2), e(0)), "closes 0→1→2→0");
        assert!(!ord.is_acyclic());
        ord.undo();
        assert!(ord.is_acyclic());
        ord.undo();
        assert!(!ord.reaches(e(0), e(2)));
        assert!(ord.reaches(e(0), e(1)), "seed edges survive undo");
        assert_eq!(ord.depth(), 0);
    }

    #[test]
    fn self_loop_is_a_cycle() {
        let mut ord = IncrementalOrder::new(2, &[]);
        ord.begin();
        assert!(!ord.add_edge(e(1), e(1)));
        assert!(!ord.is_acyclic());
        ord.undo();
        assert!(ord.is_acyclic());
    }

    #[test]
    fn multiple_edges_per_frame_undo_together() {
        let mut ord = IncrementalOrder::new(8, &[]);
        ord.begin();
        assert!(ord.add_edge(e(0), e(1)));
        assert!(ord.add_edge(e(1), e(2)));
        assert!(ord.add_edge(e(2), e(3)));
        assert!(ord.reaches(e(0), e(3)));
        ord.undo();
        for a in 0..8 {
            for b in 0..8 {
                assert!(!ord.reaches(e(a), e(b)), "{a}->{b} must be gone");
            }
        }
    }

    #[test]
    fn reset_reuses_state_for_new_seed() {
        let seed_a: Relation = [(e(0), e(1))].into_iter().collect();
        let mut ord = IncrementalOrder::new(4, &[&seed_a]);
        ord.begin();
        ord.add_edge(e(1), e(2));
        // Mid-frame reset: everything (frames, pushes, seed) is replaced.
        let seed_b: Relation = [(e(2), e(3)), (e(3), e(2))].into_iter().collect();
        ord.reset(4, &[&seed_b]);
        assert_eq!(ord.depth(), 0);
        assert!(!ord.is_acyclic(), "new seed carries a cycle");
        assert!(!ord.reaches(e(0), e(1)), "old seed gone");
        assert!(ord.reaches(e(2), e(3)));
        // Reset to a larger universe grows the matrix correctly.
        let wide: Relation = [(e(70), e(90))].into_iter().collect();
        ord.reset(96, &[&wide]);
        assert!(ord.is_acyclic());
        assert!(ord.reaches(e(70), e(90)));
        ord.begin();
        assert!(!ord.add_edge(e(90), e(70)));
        assert!(!ord.is_acyclic());
        ord.undo();
        assert!(ord.is_acyclic());
    }

    #[test]
    fn seeded_cycle_reported() {
        let seed: Relation = [(e(0), e(1)), (e(1), e(0))].into_iter().collect();
        let ord = IncrementalOrder::new(2, &[&seed]);
        assert!(!ord.is_acyclic());
    }

    /// Differential check against the full-traversal oracle across random
    /// push/undo schedules: after every operation the incremental verdict
    /// must equal `Relation::is_acyclic` on seed ∪ pushed edges, and after
    /// full unwind the reachability must equal the seed closure.
    #[test]
    fn random_dfs_schedules_match_full_recompute() {
        let mut rng = Rng::seed_from_u64(42);
        for case in 0..60 {
            let n = 3 + (case % 5) as usize * 16; // exercises multi-word rows
            // Acyclic seed: forward edges only.
            let mut seed = Relation::with_nodes(n);
            for _ in 0..rng.below(2 * n as u64) {
                let a = rng.below(n as u64 - 1) as u32;
                let b = a + 1 + rng.below(n as u64 - u64::from(a) - 1) as u32;
                seed.insert(e(a), e(b));
            }
            let mut ord = IncrementalOrder::new(n, &[&seed]);
            // A random DFS: stack of frames, each with 1–3 random edges.
            let mut stack: Vec<Vec<(EventId, EventId)>> = Vec::new();
            for _ in 0..40 {
                let push = stack.is_empty() || rng.below(3) > 0;
                if push {
                    let edges: Vec<(EventId, EventId)> = (0..1 + rng.below(3))
                        .map(|_| {
                            (
                                e(rng.below(n as u64) as u32),
                                e(rng.below(n as u64) as u32),
                            )
                        })
                        .collect();
                    ord.begin();
                    for &(u, v) in &edges {
                        ord.add_edge(u, v);
                    }
                    stack.push(edges);
                } else {
                    ord.undo();
                    stack.pop();
                }
                // Oracle: full materialised union + Kahn.
                let mut full = seed.clone();
                for frame in &stack {
                    for &(u, v) in frame {
                        full.insert(u, v);
                    }
                }
                assert_eq!(
                    ord.is_acyclic(),
                    full.is_acyclic(),
                    "case {case}, stack depth {}",
                    stack.len()
                );
            }
            while !stack.is_empty() {
                ord.undo();
                stack.pop();
            }
            // State must be exactly the seed closure again.
            let closure = seed.transitive_closure();
            for a in 0..n {
                for b in 0..n {
                    assert_eq!(
                        ord.reaches(e(a as u32), e(b as u32)),
                        closure.contains(e(a as u32), e(b as u32)),
                        "case {case}: residue at {a}->{b}"
                    );
                }
            }
        }
    }
}
