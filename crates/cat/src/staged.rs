//! The staged Cat engine: compile a parsed model into a per-combo
//! execution plan whose monotone constraints are checked **per pushed
//! edge**, not per candidate.
//!
//! The naive evaluator ([`crate::eval::run_program`]) re-evaluates every
//! statement for every complete candidate, and offers no partial verdicts
//! — so the enumeration engine's pruned swap-DFS degrades to leaf-only
//! checking for interpreted models. This module closes that gap in three
//! stages:
//!
//! 1. **Analysis** ([`crate::monotone`]): each `let` binding and check
//!    expression is classified as *constant* (independent of `rf`/`co`/
//!    `fr`), *monotone* (grows pointwise as they grow) or *non-monotone*.
//! 2. **Plan compilation** ([`StagedPlan::compile`]): constant bindings
//!    and checks are hoisted to per-combo evaluation (cached in the
//!    [`EnvBase`]), and so are maximal constant *subexpressions* of
//!    dynamic expressions (synthetic `__hoist_n` bindings). Non-negated
//!    monotone checks become *staged constraints* — with the rewrites
//!    `acyclic e+ ≡ acyclic e` and `irreflexive e+ ≡ acyclic e`, which is
//!    what turns the ordered-before axioms of the hardware models
//!    (`irreflexive ob` with `ob = (…)+`) into incremental acyclicity
//!    over the closure-free body. Everything else (negated or
//!    non-monotone checks, and all flags) is *residual*: evaluated only
//!    at DFS leaves, with dead dynamic bindings skipped entirely. The
//!    *frontier* (the dynamic bindings the staged constraints read) and
//!    the constraints compile into one DAG of operator nodes, and every
//!    node records its **read set**: whether it transitively reads `rf`,
//!    and whether it reads `co`/`fr`. An `acyclic` constraint whose root
//!    is a union tree compiles to the list of the tree's **operands**
//!    (`internal`'s `po_loc | com` reads `rf`, `co`, `fr` and `po_loc`):
//!    an order's verdict depends only on the set of edges it is fed, so
//!    the unions that feed only that order leave the DAG. A union keeps
//!    its node if another node reads it, it is another constraint's root,
//!    or leaf evaluation or a `let rec` group looks its name up. A
//!    non-union root is a one-operand list. A sequence that only a check
//!    reads is **counted, not built**: `irreflexive a ; b` and
//!    `irreflexive a ; b?` (rc11's `coherence`) compile to a count of the
//!    pairs `a(x, y) ∧ b(y, x)`, and `empty c & (a ; b)` with a constant
//!    `c` (every bundled `atomicity`) to a count of the triples
//!    `c(x, z) ∧ a(x, y) ∧ b(y, z)`; the sequence node (and the `b?` or the
//!    meet) leave the DAG unless a name binds them.
//! 3. **Incremental execution** ([`StagedState`]): one state per combo
//!    session, holding the current value of every node. A push changes
//!    `rf` (an rf push) or `co` and the derived `fr` (a co push), and
//!    touches only the nodes whose read set meets that change; the rest
//!    are skipped outright. A touched node computes its **edge delta**
//!    from its children's deltas by semi-naive rules — `Δ(A|B) = ΔA ∪ ΔB`,
//!    `Δ(A&B) = ΔA&B' ∪ A'&ΔB`, `Δ(A;B) = ΔA;B' ∪ A';ΔB` (one side when
//!    the other is a hoisted constant), `Δ(A\C) = ΔA\C`, inverse, `[S]`,
//!    `domain`/`range`, `cross`, and `A+`/`A*` through the
//!    reach-to-source × reach-from-target row update of
//!    [`IncrementalOrder::add_edge`] — filtered against its own value, so
//!    the delta is exact. A constant left operand of `;` is read by row
//!    of its transpose, built once per session, rather than by a column
//!    scan per `ΔB` edge. Only recursive `let` groups keep full
//!    evaluation plus diff. Every maintained node keeps its value: every
//!    value change goes into the push's undo frame, and a pop restores
//!    every node exactly. An `acyclic` constraint's
//!    [`IncrementalOrder`] (journal + LIFO undo, zero full Kahn
//!    traversals per simulation) is seeded with its operands' values
//!    when the session opens and fed the touched operands' deltas on
//!    each push; an edge it already implies costs one word test (a co
//!    push lists its covering edge first, so the rest of its edges are
//!    implied). `irreflexive` tracks the value's diagonal; `empty` reads
//!    the value's size; a count adds the pairs or triples its operands'
//!    deltas make and saves its value per push frame. The walk applies
//!    each constraint as soon as it has passed the constraint's last
//!    operand (for a count, the place its sequence held) and every
//!    earlier constraint (source order) is applied, and **stops at the
//!    first violated one**: the push answers `Forbidden`, later nodes are
//!    neither updated nor journaled, and later acyclicity orders open
//!    only an empty frame. The engine asks a forbidden push only for its
//!    blame and then pops it, so every state it builds on equals a
//!    from-scratch evaluation of the current rf/co/fr. The push's work
//!    counter (`cat.frontier_evals`) charges only what the walk visited.
//!    Leaf verdicts are O(#constraints).
//!
//! Soundness: a violated staged constraint stays violated in every
//! completion (the relations only grow and the expressions are monotone),
//! which is precisely the
//! [`telechat_exec::ComboChecker::push_rf`] contract. Completeness at
//! leaves: the maintained value equals a from-scratch evaluation, so the
//! verdict (and the first-violated rule name) is byte-identical to
//! [`crate::eval::run_program`] — pinned by the differential suites.
//!
//! [`IncrementalOrder`] instances are drawn from a thread-local pool and
//! rebuilt with [`IncrementalOrder::reset`], so per-combo session setup
//! does not reallocate the reachability word matrix.

use crate::ast::{CatExpr, CatProgram, CatStmt, CheckKind};
use crate::eval::{
    apply_binary, apply_unary, base_syms, check_holds, eval_expr, eval_let_group, shape, BinOp,
    CatValue, DynSlots, Env, EnvBase, Shape, UnOp,
};
use crate::monotone::{classify_let_group, expr_dep, Dep, DepMap};
use std::cell::RefCell;
use std::collections::{HashMap, HashSet};
use telechat_common::{Error, EventId, Result, Sym};
use telechat_exec::{EventSet, Execution, IncrementalOrder, PartialVerdict, Relation, Verdict};

/// How a staged constraint consumes its maintained value.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Mode {
    /// `acyclic e` (or `irreflexive e+` / `acyclic e+`, rewritten):
    /// delta edges feed an [`IncrementalOrder`].
    Acyclic,
    /// `irreflexive e`: count of diagonal edges in the value.
    Irreflexive,
    /// `empty e`: the value's edge (or element) count.
    Empty,
    /// `irreflexive a ; b` (`reflexive`: `irreflexive a ; b?`), operands
    /// `[a, b]`: the number of pairs `a(x, y) ∧ b(y, x)` (or `y = x`),
    /// counted from the operands' deltas. The sequence is never built.
    Pairs { reflexive: bool },
    /// `empty c & (a ; b)` with a constant `c`, operands `[c, a, b]`: the
    /// number of triples `c(x, z) ∧ a(x, y) ∧ b(y, z)`, counted from the
    /// deltas of `a` and `b`. Neither the sequence nor the meet is built.
    Triples,
}

/// Read-set bit: the value depends on `rf`.
const READS_RF: u8 = 1;
/// Read-set bit: the value depends on `co` or `fr` (a co push changes
/// both; an rf push changes neither — the engine pushes every rf edge of
/// a branch before its first co edge).
const READS_CO: u8 = 2;

/// The node ids of the three base relations (the first nodes of every
/// plan).
const RF: usize = 0;
const CO: usize = 1;
const FR: usize = 2;

/// One staged (monotone, non-negated) constraint.
#[derive(Debug, Clone)]
struct Constraint {
    mode: Mode,
    /// The maintained expression (post-rewrite, constants hoisted).
    expr: CatExpr,
    /// Rule name (`as name`), reported on violation.
    name: String,
    /// The nodes whose values make up the expression's value.
    /// `irreflexive` and `empty` read their root alone. `acyclic` reads
    /// the operands of its root's union tree, ascending (the root alone
    /// when it is no union, see [`Dag::flatten`]): their union is the
    /// value, whose order the operands seed at session open and feed with
    /// their deltas on each push. A count reads the operands its
    /// [`Mode`] lists, in that order.
    operands: Vec<usize>,
    /// The last node the walk must pass before the constraint applies:
    /// the last operand, or for a count the last node before the place
    /// its sequence node held, so a push visits the same nodes before
    /// the count as before the sequence's check.
    last: usize,
    /// `READS_RF | READS_CO` bits of the operands: which pushes can change
    /// the value.
    reads: u8,
}

impl Constraint {
    /// The node holding an `irreflexive` or `empty` constraint's value.
    fn root(&self) -> usize {
        debug_assert_eq!(self.operands.len(), 1, "`{}` reads one node", self.name);
        self.operands[0]
    }
}

/// One compiled statement of the plan, in source order.
#[derive(Debug, Clone)]
enum Step {
    /// Combo-constant `let` group (includes synthetic `__hoist_n`
    /// bindings): evaluated once per combo into the session's [`EnvBase`].
    BindConst {
        recursive: bool,
        bindings: Vec<(Sym, CatExpr)>,
    },
    /// rf/co/fr-dependent `let` group (a non-recursive `let` compiles to
    /// one step per binding). `frontier`: maintained per pushed edge
    /// (needed by a staged constraint). `leaf`: evaluated during the leaf
    /// walk (needed by a residual check or flag). Neither: dead code,
    /// never evaluated.
    BindDyn {
        recursive: bool,
        bindings: Vec<(Sym, CatExpr)>,
        frontier: bool,
        leaf: bool,
    },
    /// Constant check: decided once per combo (slot in `const_results`).
    CheckConst {
        cslot: usize,
        kind: CheckKind,
        negated: bool,
        expr: CatExpr,
        name: String,
    },
    /// Staged constraint: consult the incremental state.
    CheckStaged {
        idx: usize,
    },
    /// Non-monotone or negated check: evaluated at leaves.
    CheckResidual {
        kind: CheckKind,
        negated: bool,
        expr: CatExpr,
        name: String,
    },
    /// Flag: never forbids; constant flags are decided per combo
    /// (`cslot`), dynamic ones evaluated at leaves.
    Flag {
        cslot: Option<usize>,
        kind: CheckKind,
        negated: bool,
        expr: CatExpr,
        name: String,
    },
}

/// What a node of the frontier DAG computes.
#[derive(Debug, Clone, Copy)]
enum NodeOp {
    /// `rf`, `co` or `fr`: the push supplies the delta.
    Base,
    /// A combo-constant name, read from the session's [`EnvBase`].
    Const(Sym),
    /// A member of a recursive `let` group (index into
    /// [`StagedPlan::rec_groups`]). There is no delta rule for `let rec`:
    /// the group's `first` member re-evaluates the whole group and diffs
    /// each member's value.
    Rec { group: usize, first: bool },
    Bin(BinOp, usize, usize),
    Un(UnOp, usize),
}

/// A node of the frontier DAG. Children always have smaller ids, so node
/// order is a topological order.
#[derive(Debug, Clone)]
struct Node {
    op: NodeOp,
    /// `READS_RF | READS_CO` bits: which pushes can change the value.
    reads: u8,
    /// Frontier bindings whose value this node holds (a recursive group
    /// counts once, at its first member): the `cat.frontier_evals` charge
    /// of a push whose walk visits the node.
    binds: u32,
}

/// A frontier `let rec` group: its step and its members' nodes.
#[derive(Debug, Clone)]
struct RecGroup {
    step: usize,
    members: Vec<usize>,
}

/// A compiled model: statements with their staging classification.
///
/// Built once per [`crate::CatModel`] load; shared by every combo session.
#[derive(Debug, Clone)]
pub struct StagedPlan {
    steps: Vec<Step>,
    constraints: Vec<Constraint>,
    /// The frontier DAG: `rf`, `co`, `fr` first, then the frontier
    /// bindings and constraint expressions, children before parents.
    nodes: Vec<Node>,
    /// Symbol dense id → node holding the name's maintained value
    /// ([`DynSlots::NONE`] for names read from the base).
    index: Vec<u32>,
    rec_groups: Vec<RecGroup>,
    /// `(constraint, root)` of every `irreflexive` constraint: undoing a
    /// diagonal edge of that root lowers the constraint's self-loop count.
    irreflexive_roots: Vec<(usize, usize)>,
    /// Per node: a constant a session keeps the transpose of, because a
    /// sequence reads it on the left or a triple count reads it as `c`
    /// (both look up its predecessors of a column).
    transposed: Vec<bool>,
    /// True if some constraint is a pair or triple count.
    counts: bool,
    /// Number of per-combo constant check/flag result slots.
    const_slots: usize,
    /// True if any `CheckConst` exists (a violated one forbids the whole
    /// combo, so sessions stay incremental even without staged
    /// constraints).
    has_const_checks: bool,
    /// False if the program shadows a reserved or `let`-bound name (see
    /// [`reserved_names`]): the plan then never stages.
    stageable: bool,
}

/// Allocates names for hoisted constant subexpressions. Names are
/// deterministic per `(model name, position)`, so recompiling a model
/// reuses its symbols instead of growing the process-wide interner
/// without bound. Plans of different models may share hoist names — each
/// session binds its own values into its own `EnvBase`, so there is no
/// crosstalk.
struct HoistNames<'a> {
    model: &'a str,
    next: u32,
}

impl HoistNames<'_> {
    fn fresh(&mut self) -> Sym {
        let n = self.next;
        self.next += 1;
        Sym::new(format!("__hoist_{}_{n}", self.model))
    }
}

/// Collects every name mentioned by `e` into `out`.
fn collect_names(e: &CatExpr, out: &mut HashSet<u32>) {
    match e {
        CatExpr::Name(n) => {
            out.insert(n.id());
        }
        CatExpr::Union(a, b)
        | CatExpr::Inter(a, b)
        | CatExpr::Diff(a, b)
        | CatExpr::Seq(a, b)
        | CatExpr::Cross(a, b) => {
            collect_names(a, out);
            collect_names(b, out);
        }
        CatExpr::Opt(a)
        | CatExpr::Plus(a)
        | CatExpr::Star(a)
        | CatExpr::Inverse(a)
        | CatExpr::IdOn(a)
        | CatExpr::Domain(a)
        | CatExpr::Range(a) => collect_names(a, out),
    }
}

/// True if `e` mentions any of `forbidden` (names bound by the very group
/// being compiled, whose values do not exist at combo-setup time).
fn mentions(e: &CatExpr, forbidden: &HashSet<u32>) -> bool {
    if forbidden.is_empty() {
        return false;
    }
    let mut names = HashSet::new();
    collect_names(e, &mut names);
    !names.is_disjoint(forbidden)
}

/// Replaces maximal combo-constant subexpressions of `e` with synthetic
/// hoisted bindings (emitted as `BindConst` steps before the consuming
/// step), so per-push and per-leaf evaluation never recomputes them.
fn hoist(
    e: &CatExpr,
    ctx: &DepMap,
    forbidden: &HashSet<u32>,
    names: &mut HoistNames<'_>,
    out: &mut Vec<Step>,
) -> CatExpr {
    if expr_dep(e, ctx) == Dep::Constant && !mentions(e, forbidden) {
        if matches!(e, CatExpr::Name(_)) {
            return e.clone(); // already a slot read, nothing to cache
        }
        let sym = names.fresh();
        out.push(Step::BindConst {
            recursive: false,
            bindings: vec![(sym, e.clone())],
        });
        return CatExpr::Name(sym);
    }
    macro_rules! h {
        ($x:expr) => {
            Box::new(hoist($x, ctx, forbidden, names, out))
        };
    }
    match e {
        CatExpr::Name(_) => e.clone(),
        CatExpr::Union(a, b) => CatExpr::Union(h!(a), h!(b)),
        CatExpr::Inter(a, b) => CatExpr::Inter(h!(a), h!(b)),
        CatExpr::Diff(a, b) => CatExpr::Diff(h!(a), h!(b)),
        CatExpr::Seq(a, b) => CatExpr::Seq(h!(a), h!(b)),
        CatExpr::Cross(a, b) => CatExpr::Cross(h!(a), h!(b)),
        CatExpr::Opt(a) => CatExpr::Opt(h!(a)),
        CatExpr::Plus(a) => CatExpr::Plus(h!(a)),
        CatExpr::Star(a) => CatExpr::Star(h!(a)),
        CatExpr::Inverse(a) => CatExpr::Inverse(h!(a)),
        CatExpr::IdOn(a) => CatExpr::IdOn(h!(a)),
        CatExpr::Domain(a) => CatExpr::Domain(h!(a)),
        CatExpr::Range(a) => CatExpr::Range(h!(a)),
    }
}

/// If `expr` is (transitively) a transitive closure — a `+` node, or a
/// name whose `let` body is one — returns the closure-free body, else
/// `None`. Resolution walks `recorded` (the in-scope non-recursive `let`
/// bodies at this point of the program); stageable plans forbid name
/// shadowing, so the chain is acyclic (the depth guard is belt and
/// braces).
fn closure_body(expr: &CatExpr, recorded: &HashMap<u32, CatExpr>, depth: usize) -> Option<CatExpr> {
    if depth == 0 {
        return None;
    }
    match expr {
        CatExpr::Plus(inner) => Some(
            closure_body(inner, recorded, depth - 1).unwrap_or_else(|| (**inner).clone()),
        ),
        CatExpr::Name(s) => recorded
            .get(&s.id())
            .and_then(|body| closure_body(body, recorded, depth - 1)),
        _ => None,
    }
}

/// The staged form of a monotone check: `acyclic e+ ≡ acyclic e` and
/// `irreflexive e+ ≡ acyclic e` (an `e+` self-edge is exactly a cycle in
/// `e`), resolving `+` through `let`-bound names — this is what turns the
/// hardware models' `let ob = (…)+ … irreflexive ob` axioms into
/// incremental acyclicity over the closure-free body, with no
/// Floyd–Warshall sweep per pushed edge.
fn stage_form(kind: CheckKind, expr: &CatExpr, recorded: &HashMap<u32, CatExpr>) -> (Mode, CatExpr) {
    let body = closure_body(expr, recorded, 8);
    match (kind, body) {
        (CheckKind::Acyclic, Some(b)) => (Mode::Acyclic, b),
        (CheckKind::Acyclic, None) => (Mode::Acyclic, expr.clone()),
        (CheckKind::Irreflexive, Some(b)) => (Mode::Acyclic, b),
        (CheckKind::Irreflexive, None) => (Mode::Irreflexive, expr.clone()),
        (CheckKind::Empty, _) => (Mode::Empty, expr.clone()),
    }
}

/// Names the skeleton environment binds ([`EnvBase::from_skeleton`]) plus
/// the growing `rf`/`co`/`fr`. A `let` that shadows one of these — or any
/// other `let` — makes the plan unstageable: the staged executor
/// evaluates the whole binding frontier before the constraint
/// expressions, so an earlier constraint would observe a later rebinding
/// (and a `rf`/`co`/`fr` binding would collide with the edge mirrors).
/// Such programs (none of the bundled models) fall back to leaf-only
/// evaluation.
fn reserved_names() -> HashSet<u32> {
    let s = base_syms();
    let mut out: HashSet<u32> = [
        s.underscore,
        s.m,
        s.r,
        s.w,
        s.f,
        s.iw,
        s.emptyset,
        s.po,
        s.rmw,
        s.addr,
        s.data,
        s.ctrl,
        s.loc,
        s.ext,
        s.int,
        s.id,
        s.emptyrel,
        s.rf,
        s.co,
        s.fr,
    ]
    .iter()
    .map(|sym| sym.id())
    .collect();
    for &(_, sym) in &s.annots {
        out.insert(sym.id());
    }
    out
}

/// Builds the frontier DAG in program order.
struct Dag {
    nodes: Vec<Node>,
    index: Vec<u32>,
    /// Constant name → its `Const` node (one per name).
    consts: HashMap<u32, usize>,
}

impl Dag {
    fn new() -> Dag {
        let mut dag = Dag {
            nodes: Vec::new(),
            index: Vec::new(),
            consts: HashMap::new(),
        };
        let s = base_syms();
        for (sym, reads) in [(s.rf, READS_RF), (s.co, READS_CO), (s.fr, READS_CO)] {
            let node = dag.push(NodeOp::Base, reads);
            dag.bind(sym, node);
        }
        dag
    }

    fn push(&mut self, op: NodeOp, reads: u8) -> usize {
        self.nodes.push(Node { op, reads, binds: 0 });
        self.nodes.len() - 1
    }

    fn bind(&mut self, sym: Sym, node: usize) {
        let i = sym.index();
        if i >= self.index.len() {
            self.index.resize(i + 1, DynSlots::NONE);
        }
        self.index[i] = node as u32;
    }

    fn lookup(&self, sym: Sym) -> Option<usize> {
        match self.index.get(sym.index()) {
            Some(&n) if n != DynSlots::NONE => Some(n as usize),
            _ => None,
        }
    }

    /// The node computing `e` (names resolve to their binding's node, or
    /// to a `Const` node when the base holds them).
    fn expr(&mut self, e: &CatExpr) -> usize {
        match shape(e) {
            Shape::Name(sym) => match self.lookup(sym) {
                Some(node) => node,
                None => match self.consts.get(&sym.id()) {
                    Some(&node) => node,
                    None => {
                        let node = self.push(NodeOp::Const(sym), 0);
                        self.consts.insert(sym.id(), node);
                        node
                    }
                },
            },
            Shape::Bin(op, a, b) => {
                let (a, b) = (self.expr(a), self.expr(b));
                let reads = self.nodes[a].reads | self.nodes[b].reads;
                self.push(NodeOp::Bin(op, a, b), reads)
            }
            Shape::Un(op, a) => {
                let a = self.expr(a);
                let reads = self.nodes[a].reads;
                self.push(NodeOp::Un(op, a), reads)
            }
        }
    }

    /// Compiles each constraint's root to the nodes it reads, and removes
    /// the nodes that then feed nothing from the DAG (they are never
    /// valued, journaled or undone):
    ///
    /// - An `acyclic` root's union tree becomes the list of the tree's
    ///   operands: an order's verdict depends only on the set of edges it
    ///   is fed, so the operands feed it directly. A union joins
    ///   constraint `c`'s tree if it is `c`'s root or every node that
    ///   reads it is in the tree.
    /// - An `irreflexive a ; b` or `irreflexive a ; b?` root becomes a
    ///   count of pairs over `[a, b]`, and an `empty c & (a ; b)` root with
    ///   a constant `c` a count of triples over `[c, a, b]` (see [`Mode`]):
    ///   the sequence (and the `b?` or the meet) leave the DAG.
    ///
    /// A node stays if it is read by a node outside its tree, is the root
    /// of another constraint (or of an `irreflexive` or `empty` one that
    /// is no count), or binds a name in `named` (the names leaf evaluation
    /// and `let rec` groups look up). A sequence, its `b?` and its meet
    /// also stay if they bind any name, so the bindings each push is
    /// charged for do not change. Rewrites `modes` of the counts and returns each
    /// constraint's operands and last node in the new numbering (an
    /// `acyclic` list ascending, the root alone when it stays a node), and
    /// renumbers `rec_groups`' members.
    fn flatten(
        &mut self,
        modes: &mut [Mode],
        roots: &[usize],
        named: &HashSet<u32>,
        rec_groups: &mut [RecGroup],
    ) -> Vec<(Vec<usize>, usize)> {
        let n = self.nodes.len();
        let children = |op: NodeOp| match op {
            NodeOp::Bin(_, a, b) => vec![a, b],
            NodeOp::Un(_, a) => vec![a],
            NodeOp::Base | NodeOp::Const(_) | NodeOp::Rec { .. } => vec![],
        };
        let mut readers: Vec<Vec<usize>> = vec![Vec::new(); n];
        for (p, node) in self.nodes.iter().enumerate() {
            for c in children(node.op) {
                readers[c].push(p);
            }
        }
        let mut kept = vec![false; n];
        for (id, &node) in self.index.iter().enumerate() {
            if node != DynSlots::NONE && named.contains(&(id as u32)) {
                kept[node as usize] = true;
            }
        }
        let root_of = |m: usize| roots.iter().filter(|&&r| r == m).count();
        // True if no name binds `m` and only node `reader` reads it, or,
        // with `reader: None`, nothing but the one constraint it is the
        // root of.
        let private = |m: usize, reader: Option<usize>| {
            !kept[m]
                && self.nodes[m].binds == 0
                && match reader {
                    None => readers[m].is_empty() && root_of(m) == 1,
                    Some(p) => readers[m] == [p] && root_of(m) == 0,
                }
        };
        let is_const = |m: usize| matches!(self.nodes[m].op, NodeOp::Const(_));
        let mut dropped = vec![false; n];
        let mut counted: Vec<Option<Vec<usize>>> = vec![None; roots.len()];
        for (c, &root) in roots.iter().enumerate() {
            if !private(root, None) {
                continue;
            }
            match (modes[c], self.nodes[root].op) {
                (Mode::Irreflexive, NodeOp::Bin(BinOp::Seq, a, b)) => {
                    let (b, reflexive) = match self.nodes[b].op {
                        NodeOp::Un(UnOp::Opt, inner) if a != b && private(b, Some(root)) => {
                            dropped[b] = true;
                            (inner, true)
                        }
                        _ => (b, false),
                    };
                    modes[c] = Mode::Pairs { reflexive };
                    counted[c] = Some(vec![a, b]);
                    dropped[root] = true;
                }
                (Mode::Empty, NodeOp::Bin(BinOp::Inter, x, y)) => {
                    let (k, seq) = if is_const(x) { (x, y) } else { (y, x) };
                    if let NodeOp::Bin(BinOp::Seq, a, b) = self.nodes[seq].op {
                        if is_const(k) && private(seq, Some(root)) {
                            modes[c] = Mode::Triples;
                            counted[c] = Some(vec![k, a, b]);
                            dropped[root] = true;
                            dropped[seq] = true;
                        }
                    }
                }
                _ => {}
            }
        }
        for (&mode, &root) in modes.iter().zip(roots) {
            kept[root] |= mode != Mode::Acyclic || root_of(root) > 1 || !readers[root].is_empty();
        }
        let is_union = |m: usize| matches!(self.nodes[m].op, NodeOp::Bin(BinOp::Union, ..));
        let mut owner: Vec<Option<usize>> = vec![None; n];
        for (c, &root) in roots.iter().enumerate() {
            if !kept[root] && is_union(root) {
                owner[root] = Some(c);
            }
        }
        // Readers have larger ids: their owners are final when a node's
        // turn comes.
        for m in (0..n).rev() {
            if owner[m].is_some() || kept[m] || !is_union(m) {
                continue;
            }
            let mut tree = readers[m].iter().map(|&p| owner[p]);
            if let Some(Some(c)) = tree.next() {
                if tree.all(|o| o == Some(c)) {
                    owner[m] = Some(c);
                }
            }
        }
        let mut operands: Vec<Vec<usize>> = vec![Vec::new(); roots.len()];
        for (m, node) in self.nodes.iter().enumerate() {
            if let Some(c) = owner[m] {
                dropped[m] = true;
                operands[c].extend(children(node.op).into_iter().filter(|&ch| owner[ch] != Some(c)));
            }
        }
        // Renumber the remaining nodes, in order; `before[m]` is the last
        // remaining node with an id below `m`.
        let mut new_id = vec![usize::MAX; n];
        let mut before = vec![0; n];
        let mut nodes = Vec::with_capacity(n);
        for (m, mut node) in std::mem::take(&mut self.nodes).into_iter().enumerate() {
            before[m] = nodes.len().saturating_sub(1);
            if dropped[m] {
                continue;
            }
            node.op = match node.op {
                NodeOp::Bin(op, a, b) => NodeOp::Bin(op, new_id[a], new_id[b]),
                NodeOp::Un(op, a) => NodeOp::Un(op, new_id[a]),
                op => op,
            };
            new_id[m] = nodes.len();
            nodes.push(node);
        }
        self.nodes = nodes;
        for slot in &mut self.index {
            if *slot != DynSlots::NONE {
                let m = new_id[*slot as usize];
                *slot = if m == usize::MAX { DynSlots::NONE } else { m as u32 };
            }
        }
        for group in rec_groups {
            for member in &mut group.members {
                *member = new_id[*member];
            }
        }
        operands
            .into_iter()
            .zip(counted)
            .zip(roots)
            .map(|((ops, counted), &root)| {
                if let Some(ops) = counted {
                    return (ops.into_iter().map(|o| new_id[o]).collect(), before[root]);
                }
                let mut ops: Vec<usize> = if ops.is_empty() { vec![root] } else { ops };
                ops.sort_unstable();
                ops.dedup();
                let ops: Vec<usize> = ops.into_iter().map(|o| new_id[o]).collect();
                let last = *ops.last().expect("a constraint reads a node");
                (ops, last)
            })
            .collect()
    }
}

impl StagedPlan {
    /// Compiles a program: monotonicity analysis, constant hoisting,
    /// constraint staging, dead-binding marking and the frontier DAG with
    /// its read sets.
    pub fn compile(program: &CatProgram) -> StagedPlan {
        let mut ctx = DepMap::new();
        let mut steps = Vec::new();
        let mut constraints = Vec::new();
        let mut const_slots = 0usize;
        let mut has_const_checks = false;
        let mut stageable = true;
        let mut hoist_names = HoistNames {
            model: &program.name,
            next: 0,
        };
        let mut taken_names = reserved_names();
        // In-scope non-recursive `let` bodies, for `+`-through-name
        // resolution in `stage_form`.
        let mut recorded: HashMap<u32, CatExpr> = HashMap::new();
        let mut slot = || {
            const_slots += 1;
            const_slots - 1
        };
        for stmt in &program.stmts {
            match stmt {
                CatStmt::Let {
                    recursive,
                    bindings,
                } => {
                    // Non-recursive bindings evaluate one after another,
                    // so each compiles as its own group: frontier and leaf
                    // marking, and delta maintenance, are per binding.
                    let groups: Vec<&[(Sym, CatExpr)]> = if *recursive {
                        vec![bindings]
                    } else {
                        bindings.chunks(1).collect()
                    };
                    for bindings in groups {
                        for (sym, expr) in bindings {
                            if !taken_names.insert(sym.id()) {
                                stageable = false;
                            }
                            if !*recursive {
                                recorded.insert(sym.id(), expr.clone());
                            }
                        }
                        let dep = classify_let_group(&mut ctx, *recursive, bindings);
                        if dep == Dep::Constant {
                            steps.push(Step::BindConst {
                                recursive: *recursive,
                                bindings: bindings.to_vec(),
                            });
                        } else {
                            let forbidden: HashSet<u32> =
                                bindings.iter().map(|(s, _)| s.id()).collect();
                            let bindings = bindings
                                .iter()
                                .map(|(n, e)| (*n, hoist(e, &ctx, &forbidden, &mut hoist_names, &mut steps)))
                                .collect();
                            steps.push(Step::BindDyn {
                                recursive: *recursive,
                                bindings,
                                frontier: false,
                                leaf: false,
                            });
                        }
                    }
                }
                CatStmt::Check {
                    kind,
                    negated,
                    expr,
                    name,
                } => {
                    let dep = expr_dep(expr, &ctx);
                    if dep == Dep::Constant {
                        has_const_checks = true;
                        steps.push(Step::CheckConst {
                            cslot: slot(),
                            kind: *kind,
                            negated: *negated,
                            expr: expr.clone(),
                            name: name.clone(),
                        });
                    } else if dep == Dep::Monotone && !*negated {
                        let (mode, stripped) = stage_form(*kind, expr, &recorded);
                        let expr = hoist(&stripped, &ctx, &HashSet::new(), &mut hoist_names, &mut steps);
                        steps.push(Step::CheckStaged {
                            idx: constraints.len(),
                        });
                        constraints.push(Constraint {
                            mode,
                            expr,
                            name: name.clone(),
                            operands: Vec::new(),
                            last: RF,
                            reads: 0,
                        });
                    } else {
                        let expr = hoist(expr, &ctx, &HashSet::new(), &mut hoist_names, &mut steps);
                        steps.push(Step::CheckResidual {
                            kind: *kind,
                            negated: *negated,
                            expr,
                            name: name.clone(),
                        });
                    }
                }
                CatStmt::Flag {
                    kind,
                    negated,
                    expr,
                    name,
                } => {
                    let dep = expr_dep(expr, &ctx);
                    let (cslot, expr) = if dep == Dep::Constant {
                        (Some(slot()), expr.clone())
                    } else {
                        (None, hoist(expr, &ctx, &HashSet::new(), &mut hoist_names, &mut steps))
                    };
                    steps.push(Step::Flag {
                        cslot,
                        kind: *kind,
                        negated: *negated,
                        expr,
                        name: name.clone(),
                    });
                }
            }
        }

        // Need marking, back to front: a dynamic binding is `frontier` if a
        // staged constraint (transitively) reads it, `leaf` if a residual
        // check or dynamic flag does. Unmarked dynamic bindings are dead.
        let mut frontier_need: HashSet<u32> = HashSet::new();
        let mut leaf_need: HashSet<u32> = HashSet::new();
        for step in steps.iter_mut().rev() {
            match step {
                Step::CheckStaged { idx } => {
                    collect_names(&constraints[*idx].expr, &mut frontier_need);
                }
                Step::CheckResidual { expr, .. } | Step::Flag { cslot: None, expr, .. } => {
                    collect_names(expr, &mut leaf_need);
                }
                Step::BindDyn {
                    bindings,
                    frontier,
                    leaf,
                    ..
                } => {
                    *frontier = bindings.iter().any(|(s, _)| frontier_need.contains(&s.id()));
                    *leaf = bindings.iter().any(|(s, _)| leaf_need.contains(&s.id()));
                    if *frontier {
                        for (_, e) in bindings.iter() {
                            collect_names(e, &mut frontier_need);
                        }
                    }
                    if *leaf {
                        for (_, e) in bindings.iter() {
                            collect_names(e, &mut leaf_need);
                        }
                    }
                }
                _ => {}
            }
        }
        // The names looked up among the maintained values rather than
        // compiled into nodes: by the leaf walk (residual checks, dynamic
        // flags, leaf-only bindings) and by frontier `let rec` groups.
        let mut named: HashSet<u32> = HashSet::new();
        for step in &steps {
            match step {
                Step::CheckResidual { expr, .. } | Step::Flag { cslot: None, expr, .. } => {
                    collect_names(expr, &mut named);
                }
                Step::BindDyn {
                    recursive,
                    bindings,
                    frontier,
                    leaf,
                } if (*leaf && !*frontier) || (*recursive && *frontier) => {
                    for (_, e) in bindings {
                        collect_names(e, &mut named);
                    }
                }
                _ => {}
            }
        }

        // The frontier DAG, in program order, with the read sets and the
        // bindings each node holds.
        let mut dag = Dag::new();
        let mut rec_groups = Vec::new();
        let mut roots = vec![RF; constraints.len()];
        for (si, step) in steps.iter().enumerate() {
            match step {
                Step::BindDyn {
                    recursive: false,
                    bindings,
                    frontier: true,
                    ..
                } => {
                    for (sym, expr) in bindings {
                        let node = dag.expr(expr);
                        dag.nodes[node].binds += 1;
                        dag.bind(*sym, node);
                    }
                }
                Step::BindDyn {
                    recursive: true,
                    bindings,
                    frontier: true,
                    ..
                } => {
                    // The group reads what its bodies name outside it.
                    let own: HashSet<u32> = bindings.iter().map(|(s, _)| s.id()).collect();
                    let mut names = HashSet::new();
                    for (_, e) in bindings {
                        collect_names(e, &mut names);
                    }
                    let reads = names
                        .difference(&own)
                        .filter_map(|&id| match dag.index.get(id as usize) {
                            Some(&n) if n != DynSlots::NONE => Some(n as usize),
                            _ => None,
                        })
                        .fold(0u8, |acc, n| acc | dag.nodes[n].reads);
                    let group = rec_groups.len();
                    let members: Vec<usize> = bindings
                        .iter()
                        .enumerate()
                        .map(|(i, (sym, _))| {
                            let node = dag.push(NodeOp::Rec { group, first: i == 0 }, reads);
                            dag.bind(*sym, node);
                            node
                        })
                        .collect();
                    dag.nodes[members[0]].binds += 1;
                    rec_groups.push(RecGroup { step: si, members });
                }
                Step::CheckStaged { idx } => {
                    roots[*idx] = dag.expr(&constraints[*idx].expr);
                }
                _ => {}
            }
        }
        let mut modes: Vec<Mode> = constraints.iter().map(|c| c.mode).collect();
        let operands = dag.flatten(&mut modes, &roots, &named, &mut rec_groups);
        for ((c, (operands, last)), mode) in constraints.iter_mut().zip(operands).zip(modes) {
            c.mode = mode;
            c.reads = operands.iter().fold(0, |acc, &o| acc | dag.nodes[o].reads);
            c.operands = operands;
            c.last = last;
        }
        // The constants read through their transpose: a sequence's left
        // operand and a triple count's `c`.
        let mut transposed = vec![false; dag.nodes.len()];
        for node in &dag.nodes {
            if let NodeOp::Bin(BinOp::Seq, a, _) = node.op {
                transposed[a] |= matches!(dag.nodes[a].op, NodeOp::Const(_));
            }
        }
        for c in &constraints {
            if c.mode == Mode::Triples {
                transposed[c.operands[0]] = true;
            }
        }
        let counts = constraints
            .iter()
            .any(|c| matches!(c.mode, Mode::Pairs { .. } | Mode::Triples));
        let irreflexive_roots = constraints
            .iter()
            .enumerate()
            .filter(|(_, c)| c.mode == Mode::Irreflexive)
            .map(|(i, c)| (i, c.root()))
            .collect();
        StagedPlan {
            steps,
            constraints,
            nodes: dag.nodes,
            index: dag.index,
            rec_groups,
            irreflexive_roots,
            transposed,
            counts,
            const_slots,
            has_const_checks,
            stageable,
        }
    }

    /// Number of staged (per-edge incremental) constraints.
    pub fn staged_constraints(&self) -> usize {
        self.constraints.len()
    }

    /// True if a combo session over this plan can answer partial verdicts
    /// (and should therefore opt into the engine's incremental protocol).
    pub fn prunes(&self) -> bool {
        self.stageable && (!self.constraints.is_empty() || self.has_const_checks)
    }
}

// ---------------------------------------------------------------------------
// Per-combo incremental state.
// ---------------------------------------------------------------------------

thread_local! {
    /// Recycled [`IncrementalOrder`]s: combo sessions of one simulation
    /// have the same node count, so `reset` reuses the word matrix
    /// allocation instead of reallocating per combo.
    static ORDER_POOL: RefCell<Vec<IncrementalOrder>> = const { RefCell::new(Vec::new()) };
}

fn acquire_order(nodes: usize, seeds: &[&Relation]) -> IncrementalOrder {
    match ORDER_POOL.with(|p| p.borrow_mut().pop()) {
        Some(mut order) => {
            order.reset(nodes, seeds);
            order
        }
        None => IncrementalOrder::new(nodes, seeds),
    }
}

fn release_order(order: IncrementalOrder) {
    ORDER_POOL.with(|p| p.borrow_mut().push(order));
}

/// Per-constraint runtime state (the value itself is the root node's, or
/// for an order and a count, made up of its operands' values).
#[derive(Debug)]
enum ConState {
    /// The order tracks the acyclicity of the operands' union.
    Acyclic { order: IncrementalOrder },
    /// Diagonal edges in the root's value.
    Irreflexive { selfloops: u32 },
    /// Reads the root's size.
    Empty,
    /// The pairs or triples a [`Mode::Pairs`] or [`Mode::Triples`]
    /// constraint counts, and the count at the start of each open push
    /// (one entry per frame, like an order's `begin`).
    Count { count: u64, saved: Vec<u64> },
}

/// What the current push added to one node: edges for relation-valued
/// nodes, elements for set-valued ones.
#[derive(Debug, Default, Clone)]
struct Delta {
    edges: Vec<(EventId, EventId)>,
    elems: Vec<EventId>,
}

impl Delta {
    fn clear(&mut self) {
        self.edges.clear();
        self.elems.clear();
    }
}

/// One undo-journal entry: an edge (or, for set-valued nodes, the element
/// `a`) that a push added to (`added`) or removed from a node's value.
/// Only the fallback for recursive groups ever removes.
#[derive(Debug, Clone, Copy)]
struct Change {
    node: u32,
    added: bool,
    a: EventId,
    b: EventId,
}

/// The value of node `n`: constants live in the base, everything else in
/// `vals`.
fn node_value<'v>(plan: &StagedPlan, base: &'v EnvBase, vals: &'v [CatValue], n: usize) -> &'v CatValue {
    match plan.nodes[n].op {
        NodeOp::Const(sym) => base
            .get(sym)
            .expect("constant names are bound before the nodes that read them"),
        _ => &vals[n],
    }
}

/// The relation a count's operand holds (checked when the session opens).
fn rel_value(v: &CatValue) -> &Relation {
    match v {
        CatValue::Rel(r) => r,
        CatValue::Set(_) => unreachable!("count operands are relations"),
    }
}

/// The per-combo staged checking state (one per
/// [`CatModel`](crate::CatModel) combo session when the plan
/// [`StagedPlan::prunes`]).
pub struct StagedState<'a> {
    plan: &'a StagedPlan,
    /// Skeleton bindings + per-combo constants (`let`s and hoists).
    base: EnvBase,
    /// The current value of every plan node (`Const` nodes hold an unused
    /// placeholder: their value is in `base`). Read by leaf evaluation
    /// through [`Env::view`].
    vals: Vec<CatValue>,
    /// Per node, what a push added. A delta is valid only within the push
    /// that visited its node: the walk sets it (or clears it, when the
    /// node is skipped) before any parent reads it, and a push that stops
    /// early leaves the deltas past the stop stale.
    deltas: Vec<Delta>,
    cons: Vec<ConState>,
    /// Results of constant checks/flags, by `cslot`: "holds"/"fires".
    const_results: Vec<bool>,
    /// If some constant *check* is violated (every candidate of the combo
    /// is forbidden): the number of staged constraints before the first
    /// such check in source order. Every push stops once it has applied
    /// those.
    const_gate: Option<usize>,
    /// Every value change since the session baseline, newest last.
    journal: Vec<Change>,
    /// Journal length at each open push (one frame per push).
    frames: Vec<usize>,
    /// True while the newest frame is a push that answered `Forbidden`:
    /// its walk stopped at the first violated check, so node values,
    /// deltas and constraint states past the stop are unspecified until
    /// the pop. Only [`StagedState::blame`] and the pop may follow.
    stopped: bool,
    /// Reusable `fr` edge-delta buffer for [`StagedState::push_co`].
    fr_scratch: Vec<(EventId, EventId)>,
    /// Per node, the transpose of a constant the plan reads by column
    /// ([`StagedPlan::transposed`]); empty for every other node.
    transposes: Vec<Relation>,
    /// Scratch edge set of a count: one operand's delta, marked while the
    /// other operand's delta is counted against its old value. Empty
    /// between counts.
    mark: Relation,
    /// Frontier bindings plus staged constraints updated by pushes so far.
    frontier_evals: u64,
    nodes: usize,
}

impl<'a> StagedState<'a> {
    /// Builds the combo state: evaluates constants into the base, seeds
    /// every node from the skeleton (empty rf/co/fr).
    pub fn new(plan: &'a StagedPlan, skeleton: &Execution) -> Result<StagedState<'a>> {
        telechat_obs::add(telechat_obs::Counter::CatSessions, 1);
        let nodes = skeleton.events.len();
        let mut state = StagedState {
            plan,
            base: EnvBase::from_skeleton(skeleton),
            vals: Vec::with_capacity(plan.nodes.len()),
            deltas: vec![Delta::default(); plan.nodes.len()],
            cons: Vec::with_capacity(plan.constraints.len()),
            const_results: vec![false; plan.const_slots],
            const_gate: None,
            journal: Vec::new(),
            frames: Vec::new(),
            stopped: false,
            fr_scratch: Vec::new(),
            transposes: Vec::new(),
            mark: if plan.counts {
                Relation::with_nodes(nodes)
            } else {
                Relation::new()
            },
            frontier_evals: 0,
            nodes,
        };
        // Constants first: they read only the skeleton and earlier
        // constants, and the nodes read them.
        let no_dyn = DynSlots {
            index: &[],
            vals: &[],
        };
        let mut staged_before = 0;
        for step in &plan.steps {
            match step {
                Step::BindConst {
                    recursive,
                    bindings,
                } => {
                    let mut taken = {
                        let mut env = Env::view(&state.base, no_dyn);
                        eval_let_group(&mut env, *recursive, bindings)?;
                        env.take_slots()
                    };
                    for (sym, _) in bindings {
                        if let Some(v) = taken.get_mut(sym.index()).and_then(Option::take) {
                            state.base.bind(*sym, v);
                        }
                    }
                }
                Step::CheckConst {
                    cslot,
                    kind,
                    negated,
                    expr,
                    name,
                } => {
                    let env = Env::view(&state.base, no_dyn);
                    let v = eval_expr(expr, &env)?;
                    let holds = check_holds(*kind, *negated, &v, name)?;
                    state.const_results[*cslot] = holds;
                    if !holds && state.const_gate.is_none() {
                        state.const_gate = Some(staged_before);
                    }
                }
                Step::CheckStaged { .. } => staged_before += 1,
                Step::Flag {
                    cslot: Some(cslot),
                    kind,
                    negated,
                    expr,
                    name,
                } => {
                    let env = Env::view(&state.base, no_dyn);
                    let v = eval_expr(expr, &env)?;
                    state.const_results[*cslot] = check_holds(*kind, *negated, &v, name)?;
                }
                _ => {}
            }
        }
        // Then every node, children first.
        for (i, node) in plan.nodes.iter().enumerate() {
            let v = match node.op {
                NodeOp::Base => CatValue::Rel(Relation::with_nodes(nodes)),
                NodeOp::Const(sym) => {
                    if state.base.get(sym).is_none() {
                        return Err(Error::Model(format!("unknown identifier `{sym}`")));
                    }
                    CatValue::Set(EventSet::new())
                }
                NodeOp::Rec { group, first } => {
                    if first {
                        let values = state.eval_rec_group(group)?;
                        state.vals.extend(values);
                    }
                    continue;
                }
                NodeOp::Bin(op, a, b) => {
                    let va = node_value(plan, &state.base, &state.vals, a).clone();
                    apply_binary(op, va, node_value(plan, &state.base, &state.vals, b))?
                }
                NodeOp::Un(op, a) => apply_unary(
                    op,
                    node_value(plan, &state.base, &state.vals, a),
                    state.base.universe(),
                )?,
            };
            debug_assert_eq!(state.vals.len(), i);
            state.vals.push(v);
        }
        state.transposes = (0..plan.nodes.len())
            .map(|n| match node_value(plan, &state.base, &state.vals, n) {
                CatValue::Rel(r) if plan.transposed[n] => r.inverse(),
                _ => Relation::new(),
            })
            .collect();
        for c in &plan.constraints {
            let not_a_relation = || Error::Model(format!("{}: expected a relation, found a set", c.name));
            let con = match c.mode {
                Mode::Acyclic => {
                    let mut seeds = Vec::with_capacity(c.operands.len());
                    for &o in &c.operands {
                        match node_value(plan, &state.base, &state.vals, o) {
                            CatValue::Rel(value) => seeds.push(value),
                            CatValue::Set(_) => return Err(not_a_relation()),
                        }
                    }
                    ConState::Acyclic {
                        order: acquire_order(nodes, &seeds),
                    }
                }
                Mode::Irreflexive => match &state.vals[c.root()] {
                    CatValue::Rel(value) => ConState::Irreflexive {
                        selfloops: diagonal_len(value),
                    },
                    CatValue::Set(_) => return Err(not_a_relation()),
                },
                // `empty` is meaningful for sets too (`check_holds` accepts
                // both); cardinality stages just as well.
                Mode::Empty => ConState::Empty,
                Mode::Pairs { reflexive } => {
                    let (a, b) = (c.operands[0], c.operands[1]);
                    let va = node_value(plan, &state.base, &state.vals, a).as_rel(";")?;
                    let vb = node_value(plan, &state.base, &state.vals, b)
                        .as_rel(if reflexive { "?" } else { ";" })?;
                    let pairs = va
                        .iter()
                        .filter(|&(x, y)| (reflexive && x == y) || vb.contains(y, x));
                    ConState::Count {
                        count: pairs.count() as u64,
                        saved: Vec::new(),
                    }
                }
                Mode::Triples => {
                    let value =
                        |o: usize| node_value(plan, &state.base, &state.vals, c.operands[o]);
                    let (vc, va, vb) = (
                        value(0).as_rel("&")?,
                        value(1).as_rel(";")?,
                        value(2).as_rel(";")?,
                    );
                    let triples = va
                        .iter()
                        .map(|(x, y)| vc.common_successors(x, vb, y) as u64);
                    ConState::Count {
                        count: triples.sum(),
                        saved: Vec::new(),
                    }
                }
            };
            state.cons.push(con);
        }
        Ok(state)
    }

    /// The maintained values as an [`Env`] layer.
    fn dyn_slots(&self) -> DynSlots<'_> {
        DynSlots {
            index: &self.plan.index,
            vals: &self.vals,
        }
    }

    /// Evaluates a recursive group from scratch over the current values,
    /// returning its members' values in binding order.
    fn eval_rec_group(&self, group: usize) -> Result<Vec<CatValue>> {
        let Step::BindDyn { bindings, .. } = &self.plan.steps[self.plan.rec_groups[group].step] else {
            unreachable!("recursive groups are dynamic bindings");
        };
        let mut taken = {
            let mut env = Env::view(&self.base, self.dyn_slots());
            eval_let_group(&mut env, true, bindings)?;
            env.take_slots()
        };
        Ok(bindings
            .iter()
            .map(|(sym, _)| {
                taken
                    .get_mut(sym.index())
                    .and_then(Option::take)
                    .expect("a `let rec` binds every member")
            })
            .collect())
    }

    /// The fallback for a recursive group: full evaluation, then each
    /// member's value is diffed against its previous one. The additions
    /// are the member's delta; both additions and removals are journaled.
    fn refresh_rec_group(&mut self, group: usize) -> Result<()> {
        let values = self.eval_rec_group(group)?;
        let plan = self.plan;
        let RecGroup { step, members } = &plan.rec_groups[group];
        let Step::BindDyn { bindings, .. } = &plan.steps[*step] else {
            unreachable!("recursive groups are dynamic bindings");
        };
        for ((&n, new), (sym, _)) in members.iter().zip(values).zip(bindings) {
            let delta = &mut self.deltas[n];
            delta.clear();
            let mut removed = Vec::new();
            match (&mut self.vals[n], new) {
                (CatValue::Rel(old), CatValue::Rel(new)) => {
                    new.edge_diff_into(old, &mut delta.edges);
                    old.edge_diff_into(&new, &mut removed);
                    *old = new;
                }
                (CatValue::Set(old), CatValue::Set(new)) => {
                    delta.elems.extend(new.iter().filter(|e| !old.contains(*e)));
                    removed.extend(old.iter().filter(|e| !new.contains(*e)).map(|e| (e, e)));
                    *old = new;
                }
                _ => {
                    return Err(Error::Model(format!(
                        "`let rec` member `{sym}` changed type between candidates"
                    )))
                }
            }
            let node = n as u32;
            for &(a, b) in &removed {
                self.journal.push(Change { node, added: false, a, b });
            }
            for &(a, b) in &delta.edges {
                self.journal.push(Change { node, added: true, a, b });
            }
            for &a in &delta.elems {
                self.journal.push(Change { node, added: true, a, b: a });
            }
        }
        Ok(())
    }

    fn rel(&self, node: usize) -> &Relation {
        match &self.vals[node] {
            CatValue::Rel(r) => r,
            CatValue::Set(_) => unreachable!("rf/co/fr are relations"),
        }
    }

    /// Adds `edges` to base node `n` as the push's delta, journaled.
    fn push_base(&mut self, n: usize, edges: &[(EventId, EventId)]) {
        let CatValue::Rel(value) = &mut self.vals[n] else {
            unreachable!("rf/co/fr are relations");
        };
        let delta = &mut self.deltas[n];
        delta.clear();
        for &(a, b) in edges {
            if value.insert(a, b) {
                delta.edges.push((a, b));
                self.journal.push(Change {
                    node: n as u32,
                    added: true,
                    a,
                    b,
                });
            }
        }
    }

    /// The `fr` delta a coherence-chain extension induces: `fr(r, w)` for
    /// exactly the reads `r` justified by some predecessor (minus the
    /// identity-guard of [`Execution::fr`], which cannot trigger here as
    /// reads and writes are distinct events), the latest predecessor's
    /// reads first. Filled into `out` (cleared first) — the buffer is the
    /// session's `fr_scratch`, so the steady-state DFS pushes no
    /// allocations here.
    fn fill_fr_delta(&self, preds: &[EventId], w: EventId, out: &mut Vec<(EventId, EventId)>) {
        out.clear();
        let rf = self.rel(RF);
        for &p in preds.iter().rev() {
            for r in rf.successors(p) {
                if r != w {
                    out.push((r, w));
                }
            }
        }
    }

    /// The engine assigned `rf(w, r)`.
    pub fn push_rf(&mut self, w: EventId, r: EventId) -> Result<PartialVerdict> {
        debug_assert!(!self.stopped, "push_rf on a stopped push: pop it first");
        self.frames.push(self.journal.len());
        self.push_base(RF, &[(w, r)]);
        self.advance(READS_RF)
    }

    /// Undoes the most recent [`StagedState::push_rf`].
    pub fn pop_rf(&mut self, w: EventId, r: EventId) {
        self.undo_frame();
        debug_assert!(!self.rel(RF).contains(w, r), "pop_rf must undo its push");
    }

    /// The engine extended a coherence chain (`co(p, w)` for `p ∈ preds`).
    /// The co and fr deltas list the covering edge `co(last, w)` (and the
    /// reads of `last`) first: every later edge `co(p, w)` is then already
    /// implied through `co(p, last)` in the orders and closures it feeds,
    /// which skip it at the cost of one word test.
    pub fn push_co(&mut self, preds: &[EventId], w: EventId) -> Result<PartialVerdict> {
        debug_assert!(!self.stopped, "push_co on a stopped push: pop it first");
        self.frames.push(self.journal.len());
        let mut scratch = std::mem::take(&mut self.fr_scratch);
        scratch.clear();
        scratch.extend(preds.iter().rev().map(|&p| (p, w)));
        self.push_base(CO, &scratch);
        self.fill_fr_delta(preds, w, &mut scratch);
        self.push_base(FR, &scratch);
        self.fr_scratch = scratch;
        self.advance(READS_CO)
    }

    /// Undoes the most recent [`StagedState::push_co`].
    pub fn pop_co(&mut self, preds: &[EventId], w: EventId) {
        self.undo_frame();
        debug_assert!(
            preds.iter().all(|&p| !self.rel(CO).contains(p, w)),
            "pop_co must undo its push"
        );
    }

    /// Walks the frontier DAG in node order, propagating the push's base
    /// deltas through every node whose read set meets `touched`, and
    /// applies each staged constraint as soon as the walk has passed its
    /// operands and every earlier constraint is applied (source order). The
    /// push stops at the first violated check: later nodes are neither
    /// updated nor journaled. The constraints before the stop were fully
    /// updated and hold, and constant checks do not change within a push,
    /// so [`StagedState::blame`] names the rule a complete update would.
    /// The push's frame is already open.
    fn advance(&mut self, touched: u8) -> Result<PartialVerdict> {
        let plan = self.plan;
        let mut applied = 0;
        for (i, node) in plan.nodes.iter().enumerate() {
            if node.reads & touched == 0 {
                self.deltas[i].clear();
            } else {
                self.frontier_evals += u64::from(node.binds);
                match node.op {
                    // The push set the base deltas; constants never change.
                    NodeOp::Base | NodeOp::Const(_) => {}
                    NodeOp::Rec { group, first } => {
                        if first {
                            self.refresh_rec_group(group)?;
                        }
                    }
                    NodeOp::Bin(op, a, b) => {
                        self.delta_bin(i, op, a, b);
                        self.journal_delta(i);
                    }
                    NodeOp::Un(op, a) => {
                        self.delta_un(i, op, a);
                        self.journal_delta(i);
                    }
                }
            }
            // Apply, in source order, every constraint whose operands the
            // walk has passed; stop at the first violated one, or at a violated
            // constant check once the constraints before it are applied.
            loop {
                if self.const_gate == Some(applied) {
                    return Ok(self.stop(applied));
                }
                match plan.constraints.get(applied) {
                    Some(c) if c.last <= i => {
                        applied += 1;
                        if self.apply(applied - 1, touched) {
                            return Ok(self.stop(applied));
                        }
                    }
                    _ => break,
                }
            }
        }
        Ok(PartialVerdict::Undecided)
    }

    /// Journals the delta the walk just computed for node `i`.
    fn journal_delta(&mut self, i: usize) {
        let node = i as u32;
        let delta = &self.deltas[i];
        self.journal.extend(delta.edges.iter().map(|&(a, b)| Change {
            node,
            added: true,
            a,
            b,
        }));
        self.journal.extend(delta.elems.iter().map(|&a| Change {
            node,
            added: true,
            a,
            b: a,
        }));
    }

    /// Feeds constraint `idx`'s operand deltas into its state; true if
    /// the constraint is now violated.
    fn apply(&mut self, idx: usize, touched: u8) -> bool {
        let plan = self.plan;
        let c = &plan.constraints[idx];
        self.frontier_evals += u64::from(c.reads & touched != 0);
        let added = match c.mode {
            Mode::Pairs { reflexive } => self.pairs_added(c, reflexive),
            Mode::Triples => self.triples_added(c),
            Mode::Acyclic | Mode::Irreflexive | Mode::Empty => 0,
        };
        match &mut self.cons[idx] {
            // Untouched operands (the constants among them) add nothing.
            // An edge another operand or the seed already implies costs
            // the order one word test.
            ConState::Acyclic { order } => {
                order.begin();
                for &o in &c.operands {
                    if plan.nodes[o].reads & touched != 0 {
                        for &(a, b) in &self.deltas[o].edges {
                            order.add_edge(a, b);
                        }
                    }
                }
            }
            // An untouched root's delta was cleared by the walk.
            ConState::Irreflexive { selfloops } => {
                let delta = &self.deltas[c.root()].edges;
                *selfloops += delta.iter().filter(|(a, b)| a == b).count() as u32;
            }
            ConState::Empty => {}
            ConState::Count { count, saved } => {
                saved.push(*count);
                *count += added;
            }
        }
        self.violated(idx)
    }

    /// The pairs `a(x, y) ∧ b(y, x)` (or `y = x` when `reflexive`) this
    /// push added, from the operands' deltas (an untouched operand's
    /// delta was cleared by the walk): each new `a` edge against the new
    /// `b`, then each new `b` edge against the old `a` — the new one
    /// without the marked new edges — so no pair counts twice. A `b`
    /// self-loop adds nothing to `a ; b?`: its pair already counts through
    /// the identity.
    fn pairs_added(&mut self, c: &Constraint, reflexive: bool) -> u64 {
        let plan = self.plan;
        let (a, b) = (c.operands[0], c.operands[1]);
        let (da, db) = (&self.deltas[a].edges, &self.deltas[b].edges);
        let va = rel_value(node_value(plan, &self.base, &self.vals, a));
        let vb = rel_value(node_value(plan, &self.base, &self.vals, b));
        let mut added = da
            .iter()
            .filter(|&&(x, y)| (reflexive && x == y) || vb.contains(y, x))
            .count();
        if !db.is_empty() {
            for &(x, y) in da {
                self.mark.insert(x, y);
            }
            added += db
                .iter()
                .filter(|&&(y, x)| {
                    !(reflexive && x == y) && va.contains(x, y) && !self.mark.contains(x, y)
                })
                .count();
            for &(x, y) in da {
                self.mark.remove(x, y);
            }
        }
        added as u64
    }

    /// The triples `c(x, z) ∧ a(x, y) ∧ b(y, z)` this push added (`c` is
    /// constant), counted as [`StagedState::pairs_added`] counts pairs:
    /// a new `a` edge meets `c`'s row `x` with the new `b`'s row `y`, one
    /// word-parallel AND; a new `b` edge `(y, z)` tries the sources of
    /// `c`'s column `z`, read as a row of its transpose, against the old
    /// `a`.
    fn triples_added(&mut self, c: &Constraint) -> u64 {
        let plan = self.plan;
        let (k, a, b) = (c.operands[0], c.operands[1], c.operands[2]);
        let (da, db) = (&self.deltas[a].edges, &self.deltas[b].edges);
        let value = |n: usize| rel_value(node_value(plan, &self.base, &self.vals, n));
        let (vk, va, vb) = (value(k), value(a), value(b));
        let mut added: usize = da
            .iter()
            .map(|&(x, y)| vk.common_successors(x, vb, y))
            .sum();
        if !db.is_empty() {
            for &(x, y) in da {
                self.mark.insert(x, y);
            }
            let sources = &self.transposes[k];
            for &(y, z) in db {
                added += sources
                    .successors(z)
                    .filter(|&x| va.contains(x, y) && !self.mark.contains(x, y))
                    .count();
            }
            for &(x, y) in da {
                self.mark.remove(x, y);
            }
        }
        added as u64
    }

    /// Ends a push that answered `Forbidden` after applying its first
    /// `applied` constraints. Every later acyclicity order opens an empty
    /// frame and every later count saves its count, so the pop still
    /// undoes exactly one frame per order and count; a later
    /// `irreflexive` constraint counts the diagonal edges this push
    /// journaled on its root, which the pop un-counts.
    fn stop(&mut self, applied: usize) -> PartialVerdict {
        let mark = *self.frames.last().expect("a push frame is open");
        let changes = &self.journal[mark..];
        for (c, con) in self.plan.constraints[applied..].iter().zip(&mut self.cons[applied..]) {
            match con {
                ConState::Acyclic { order } => order.begin(),
                ConState::Irreflexive { selfloops } => {
                    let on_root = |ch: &&Change| ch.node as usize == c.root() && ch.a == ch.b;
                    for ch in changes.iter().filter(on_root) {
                        if ch.added {
                            *selfloops += 1;
                        } else {
                            *selfloops -= 1;
                        }
                    }
                }
                ConState::Empty => {}
                ConState::Count { count, saved } => saved.push(*count),
            }
        }
        self.stopped = true;
        PartialVerdict::Forbidden
    }

    /// The semi-naive delta of a binary node from its children's deltas
    /// and (already updated) values, filtered against its own value.
    fn delta_bin(&mut self, p: usize, op: BinOp, a: usize, b: usize) {
        let plan = self.plan;
        let (lower, upper) = self.vals.split_at_mut(p);
        let (lower_d, upper_d) = self.deltas.split_at_mut(p);
        let out = &mut upper_d[0];
        out.clear();
        let (da, db) = (&lower_d[a], &lower_d[b]);
        let va = node_value(plan, &self.base, lower, a);
        let vb = node_value(plan, &self.base, lower, b);
        match (op, &mut upper[0], va, vb) {
            (BinOp::Union, CatValue::Rel(r), _, _) => {
                for &(x, y) in da.edges.iter().chain(&db.edges) {
                    if r.insert(x, y) {
                        out.edges.push((x, y));
                    }
                }
            }
            (BinOp::Union, CatValue::Set(s), _, _) => {
                for &x in da.elems.iter().chain(&db.elems) {
                    if s.insert(x) {
                        out.elems.push(x);
                    }
                }
            }
            (BinOp::Inter, CatValue::Rel(r), CatValue::Rel(ra), CatValue::Rel(rb)) => {
                let left = da.edges.iter().filter(|&&(x, y)| rb.contains(x, y));
                let right = db.edges.iter().filter(|&&(x, y)| ra.contains(x, y));
                for &(x, y) in left.chain(right) {
                    if r.insert(x, y) {
                        out.edges.push((x, y));
                    }
                }
            }
            (BinOp::Inter, CatValue::Set(s), CatValue::Set(sa), CatValue::Set(sb)) => {
                let left = da.elems.iter().filter(|&&x| sb.contains(x));
                let right = db.elems.iter().filter(|&&x| sa.contains(x));
                for &x in left.chain(right) {
                    if s.insert(x) {
                        out.elems.push(x);
                    }
                }
            }
            // The subtrahend of a monotone difference is constant: only
            // the minuend grows.
            (BinOp::Diff, CatValue::Rel(r), _, CatValue::Rel(rb)) => {
                debug_assert!(db.edges.is_empty(), "dynamic subtrahend in the frontier");
                for &(x, y) in &da.edges {
                    if !rb.contains(x, y) && r.insert(x, y) {
                        out.edges.push((x, y));
                    }
                }
            }
            (BinOp::Diff, CatValue::Set(s), _, CatValue::Set(sb)) => {
                debug_assert!(db.elems.is_empty(), "dynamic subtrahend in the frontier");
                for &x in &da.elems {
                    if !sb.contains(x) && s.insert(x) {
                        out.elems.push(x);
                    }
                }
            }
            // A constant left operand adds nothing itself and is read by
            // row of its transpose, not by column scan.
            (BinOp::Seq, CatValue::Rel(r), CatValue::Rel(ra), CatValue::Rel(rb)) => {
                for &(x, y) in &da.edges {
                    r.union_row_from(x, rb, y, &mut out.edges);
                }
                let transpose = &self.transposes[a];
                for &(y, z) in &db.edges {
                    let mut add = |x: EventId| {
                        if r.insert(x, z) {
                            out.edges.push((x, z));
                        }
                    };
                    if plan.transposed[a] {
                        transpose.successors(y).for_each(&mut add);
                    } else {
                        ra.predecessors(y).for_each(&mut add);
                    }
                }
            }
            (BinOp::Cross, CatValue::Rel(r), CatValue::Set(sa), CatValue::Set(sb)) => {
                for &x in &da.elems {
                    for y in sb.iter() {
                        if r.insert(x, y) {
                            out.edges.push((x, y));
                        }
                    }
                }
                for &y in &db.elems {
                    for x in sa.iter() {
                        if r.insert(x, y) {
                            out.edges.push((x, y));
                        }
                    }
                }
            }
            _ => unreachable!("node types are fixed when the session seeds them"),
        }
    }

    /// The delta of a unary node (see [`StagedState::delta_bin`]).
    fn delta_un(&mut self, p: usize, op: UnOp, a: usize) {
        let (lower_d, upper_d) = self.deltas.split_at_mut(p);
        let out = &mut upper_d[0];
        out.clear();
        let da = &lower_d[a];
        match (op, &mut self.vals[p]) {
            // `A?`'s value already holds the identity.
            (UnOp::Opt, CatValue::Rel(r)) => {
                for &(x, y) in &da.edges {
                    if r.insert(x, y) {
                        out.edges.push((x, y));
                    }
                }
            }
            // The value is the closure (reflexive over the universe for
            // `*`): one row update per new edge of the body.
            (UnOp::Plus | UnOp::Star, CatValue::Rel(r)) => {
                for &(u, v) in &da.edges {
                    r.close_over_edge(u, v, &mut out.edges);
                }
            }
            (UnOp::Inverse, CatValue::Rel(r)) => {
                for &(x, y) in &da.edges {
                    if r.insert(y, x) {
                        out.edges.push((y, x));
                    }
                }
            }
            (UnOp::IdOn, CatValue::Rel(r)) => {
                for &x in &da.elems {
                    if r.insert(x, x) {
                        out.edges.push((x, x));
                    }
                }
            }
            (UnOp::Domain, CatValue::Set(s)) => {
                for &(x, _) in &da.edges {
                    if s.insert(x) {
                        out.elems.push(x);
                    }
                }
            }
            (UnOp::Range, CatValue::Set(s)) => {
                for &(_, y) in &da.edges {
                    if s.insert(y) {
                        out.elems.push(y);
                    }
                }
            }
            _ => unreachable!("node types are fixed when the session seeds them"),
        }
    }

    /// Restores every value, order, self-loop count and count to just
    /// before the most recent push.
    fn undo_frame(&mut self) {
        let mark = self.frames.pop().expect("pop without matching push");
        self.stopped = false;
        for con in &mut self.cons {
            match con {
                ConState::Acyclic { order } => order.undo(),
                ConState::Count { count, saved } => {
                    *count = saved.pop().expect("a count frame per push");
                }
                ConState::Irreflexive { .. } | ConState::Empty => {}
            }
        }
        while self.journal.len() > mark {
            let ch = self.journal.pop().expect("journal entry");
            let n = ch.node as usize;
            match &mut self.vals[n] {
                CatValue::Rel(r) => {
                    if ch.added {
                        r.remove(ch.a, ch.b);
                    } else {
                        r.insert(ch.a, ch.b);
                    }
                    if ch.a == ch.b {
                        for &(ci, root) in &self.plan.irreflexive_roots {
                            if let (true, ConState::Irreflexive { selfloops }) =
                                (root == n, &mut self.cons[ci])
                            {
                                if ch.added {
                                    *selfloops -= 1;
                                } else {
                                    *selfloops += 1;
                                }
                            }
                        }
                    }
                }
                CatValue::Set(s) => {
                    if ch.added {
                        s.remove(ch.a);
                    } else {
                        s.insert(ch.a);
                    }
                }
            }
        }
    }

    fn violated(&self, idx: usize) -> bool {
        match &self.cons[idx] {
            ConState::Acyclic { order } => !order.is_acyclic(),
            ConState::Irreflexive { selfloops } => *selfloops > 0,
            ConState::Count { count, .. } => *count > 0,
            ConState::Empty => match &self.vals[self.plan.constraints[idx].root()] {
                CatValue::Rel(r) => !r.is_empty(),
                CatValue::Set(s) => !s.is_empty(),
            },
        }
    }

    /// The current partial verdict, O(#constraints). Pushes answer their
    /// own verdict; this scan serves [`ComboChecker::check_partial`]
    /// callers outside the engine.
    ///
    /// [`ComboChecker::check_partial`]: telechat_exec::ComboChecker::check_partial
    pub fn verdict(&self) -> PartialVerdict {
        if self.const_gate.is_some() || (0..self.cons.len()).any(|i| self.violated(i)) {
            PartialVerdict::Forbidden
        } else {
            PartialVerdict::Undecided
        }
    }

    /// The first-violated constraint name in the current (possibly
    /// partial) state, for mid-DFS prune attribution. Walks the plan in
    /// source order — the same order [`StagedState::check_leaf`] uses — so
    /// a prune and a leaf rejection caused by the same constraint blame
    /// the same name. Only constant and staged checks can be violated
    /// mid-DFS (residual checks are leaf-only), so this answers from
    /// state with no evaluation. `None` when nothing is violated.
    pub fn blame(&self) -> Option<&str> {
        for step in &self.plan.steps {
            match step {
                Step::CheckConst { cslot, name, .. } if !self.const_results[*cslot] => {
                    return Some(name);
                }
                Step::CheckStaged { idx } if self.violated(*idx) => {
                    return Some(&self.plan.constraints[*idx].name);
                }
                _ => {}
            }
        }
        None
    }

    /// The leaf verdict: statements walked in source order — staged and
    /// constant checks answered from state, residual checks and flags
    /// evaluated — so the first-violated rule name and the flag list are
    /// byte-identical to [`crate::eval::run_program`].
    pub fn check_leaf(&self) -> Result<Verdict> {
        debug_assert!(!self.stopped, "check_leaf on a stopped push: pop it first");
        let mut flags = Vec::new();
        let mut env = Env::view(&self.base, self.dyn_slots());
        for step in &self.plan.steps {
            match step {
                Step::BindConst { .. } | Step::BindDyn { frontier: true, .. } => {}
                Step::BindDyn {
                    recursive,
                    bindings,
                    leaf: true,
                    ..
                } => eval_let_group(&mut env, *recursive, bindings)?,
                Step::BindDyn { .. } => {}
                Step::CheckConst { cslot, name, .. } => {
                    if !self.const_results[*cslot] {
                        return Ok(Verdict::Forbidden { rule: name.clone() });
                    }
                }
                Step::CheckStaged { idx } => {
                    if self.violated(*idx) {
                        return Ok(Verdict::Forbidden {
                            rule: self.plan.constraints[*idx].name.clone(),
                        });
                    }
                }
                Step::CheckResidual {
                    kind,
                    negated,
                    expr,
                    name,
                } => {
                    let v = eval_expr(expr, &env)?;
                    if !check_holds(*kind, *negated, &v, name)? {
                        return Ok(Verdict::Forbidden { rule: name.clone() });
                    }
                }
                Step::Flag {
                    cslot: Some(cslot),
                    name,
                    ..
                } => {
                    if self.const_results[*cslot] {
                        flags.push(name.clone());
                    }
                }
                Step::Flag {
                    cslot: None,
                    kind,
                    negated,
                    expr,
                    name,
                } => {
                    let v = eval_expr(expr, &env)?;
                    if check_holds(*kind, *negated, &v, name)? {
                        flags.push(name.clone());
                    }
                }
            }
        }
        Ok(Verdict::Allowed { flags })
    }

    /// Frontier bindings plus staged constraints that pushes into this
    /// session have evaluated or delta-updated (the `cat.frontier_evals`
    /// work counter).
    pub fn frontier_evals(&self) -> u64 {
        self.frontier_evals
    }

    /// The node universe size (diagnostics/tests).
    pub fn nodes(&self) -> usize {
        self.nodes
    }
}

impl Drop for StagedState<'_> {
    fn drop(&mut self) {
        for con in self.cons.drain(..) {
            if let ConState::Acyclic { order } = con {
                release_order(order);
            }
        }
    }
}

/// Diagonal edge count of a relation.
fn diagonal_len(r: &Relation) -> u32 {
    r.iter().filter(|(a, b)| a == b).count() as u32
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::eval::run_program;
    use crate::registry::CatModel;
    use telechat_exec::{simulate, AllowAll, SimConfig};
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

    /// A skeleton execution (rf/co empty) of the SB shape, plus the write
    /// and read ids needed to script a DFS by hand.
    fn sb_skeleton() -> Execution {
        let test = parse_c11(SB).unwrap();
        let r = simulate(&test, &AllowAll, &SimConfig::default().keeping_executions()).unwrap();
        let mut x = r.executions.into_iter().next().unwrap();
        x.rf = Relation::new();
        x.co = Relation::new();
        x
    }

    #[test]
    fn bundled_plan_shapes() {
        // aarch64: all three axioms stage (internal, atomicity and the
        // rewritten `irreflexive ob`), nothing residual → leaves are O(1).
        let a64 = CatModel::bundled("aarch64").unwrap();
        assert_eq!(a64.plan().staged_constraints(), 3);
        assert!(a64.plan().prunes());
        // rc11: all four checks stage; only the `race` flag is residual.
        let rc11 = CatModel::bundled("rc11").unwrap();
        assert_eq!(rc11.plan().staged_constraints(), 4);
        // x86tso: `ppo` is constant (difference of constants), the three
        // checks stage.
        let tso = CatModel::bundled("x86tso").unwrap();
        assert_eq!(tso.plan().staged_constraints(), 3);
        // Every bundled model prunes.
        for name in crate::registry::model_names() {
            let m = CatModel::bundled(name).unwrap();
            assert!(m.plan().prunes(), "{name} must have staged constraints");
        }
    }

    #[test]
    fn plus_rewrite_under_irreflexive() {
        let p = crate::parse::parse_cat(
            "t",
            "let ob = (rf | po)+\nirreflexive ob as ext\nacyclic ((rf ; po))+ as ac",
            &|_| None,
        )
        .unwrap();
        let plan = StagedPlan::compile(&p);
        // Both checks staged as acyclicity over the closure-free body.
        assert_eq!(plan.staged_constraints(), 2);
        for c in &plan.constraints {
            assert_eq!(c.mode, Mode::Acyclic);
            assert!(
                !format!("{}", c.expr).contains('+'),
                "closure must be stripped: {}",
                c.expr
            );
        }
    }

    #[test]
    fn constant_subexpressions_are_hoisted() {
        let p = crate::parse::parse_cat(
            "t",
            "let dob = (ctrl ; [W]) | (rf & int)\nacyclic dob | (po ; [F] ; po) as a",
            &|_| None,
        )
        .unwrap();
        let plan = StagedPlan::compile(&p);
        let hoists = plan
            .steps
            .iter()
            .filter(|s| match s {
                Step::BindConst { bindings, .. } => {
                    bindings.iter().any(|(n, _)| n.as_str().starts_with("__hoist_"))
                }
                _ => false,
            })
            .count();
        // `ctrl ; [W]` (inside the dynamic binding) and `po ; [F] ; po`
        // (inside the constraint) are cached per combo.
        assert!(hoists >= 2, "expected ≥ 2 hoisted constants, got {hoists}");
        // The constraint expression reads the hoisted slot, not the tree.
        assert!(format!("{}", plan.constraints[0].expr).contains("__hoist_"));
    }

    #[test]
    fn dead_dynamic_bindings_are_skipped() {
        let p = crate::parse::parse_cat(
            "t",
            "let unused = (rf ; co)+\nlet used = rf | co\nacyclic used | po as a",
            &|_| None,
        )
        .unwrap();
        let plan = StagedPlan::compile(&p);
        let flags: Vec<(bool, bool)> = plan
            .steps
            .iter()
            .filter_map(|s| match s {
                Step::BindDyn { frontier, leaf, .. } => Some((*frontier, *leaf)),
                _ => None,
            })
            .collect();
        assert_eq!(
            flags,
            vec![(false, false), (true, false)],
            "`unused` must be dead, `used` frontier-only"
        );
    }

    /// Scripted DFS: at every node of a hand-driven push/undo schedule the
    /// staged verdict and value must equal a from-scratch evaluation of
    /// the program on the materialised partial candidate.
    #[test]
    fn scripted_push_undo_matches_from_scratch_eval() {
        let skeleton = sb_skeleton();
        let n = skeleton.events.len();
        // Event ids in the SB combo: 0/1 init writes x/y, 2 = Wx1, 3 = Ry,
        // 4 = Wy1, 5 = Rx (matching the enumerate builder's layout).
        let wx0 = EventId(0);
        let wy0 = EventId(1);
        let wx1 = EventId(2);
        let ry = EventId(3);
        let wy1 = EventId(4);
        let rx = EventId(5);
        for model_name in ["aarch64", "rc11", "sc", "x86tso"] {
            let model = CatModel::bundled(model_name).unwrap();
            let mut state = StagedState::new(model.plan(), &skeleton).unwrap();
            let mut partial = skeleton.clone();
            // Forbidden ⟺ some staged constraint fails from-scratch on
            // the partial (run_program stops at the first failing check;
            // staged constraints are exactly the monotone non-negated
            // ones, which for these models is every check).
            let check = |state: &StagedState, partial: &Execution| {
                let scratch = run_program(model.program(), partial).unwrap();
                let forbidden = !scratch.is_allowed();
                assert_eq!(
                    state.verdict() == PartialVerdict::Forbidden,
                    forbidden,
                    "{model_name}: staged verdict diverges on partial {partial:?}"
                );
            };
            // rf stage: both reads read the remote new value (allowed
            // under weak models), then undo one and read init instead.
            partial.rf.insert(wy1, ry);
            state.push_rf(wy1, ry).unwrap();
            check(&state, &partial);
            partial.rf.insert(wx1, rx);
            state.push_rf(wx1, rx).unwrap();
            check(&state, &partial);
            state.pop_rf(wx1, rx);
            partial.rf.remove(wx1, rx);
            partial.rf.insert(wx0, rx);
            state.push_rf(wx0, rx).unwrap();
            check(&state, &partial);
            // co stage: x chain init→new, then y chain init→new.
            partial.co.insert(wx0, wx1);
            state.push_co(&[wx0], wx1).unwrap();
            check(&state, &partial);
            partial.co.insert(wy0, wy1);
            state.push_co(&[wy0], wy1).unwrap();
            check(&state, &partial);
            // Leaf: complete candidate — byte-identical verdict.
            assert_eq!(
                state.check_leaf().unwrap(),
                run_program(model.program(), &partial).unwrap(),
                "{model_name}: leaf verdict diverges"
            );
            // Unwind everything; the state must return to the seed.
            state.pop_co(&[wy0], wy1);
            partial.co.remove(wy0, wy1);
            state.pop_co(&[wx0], wx1);
            partial.co.remove(wx0, wx1);
            check(&state, &partial);
            state.pop_rf(wx0, rx);
            partial.rf.remove(wx0, rx);
            state.pop_rf(wy1, ry);
            partial.rf.remove(wy1, ry);
            check(&state, &partial);
            assert_eq!(state.nodes(), n);
        }
    }

    /// The read sets the plan compiles: on a co push the rf-only frontier
    /// (rc11's `rs`/`sw`/`hb` and `no_thin_air`, the prelude's `rfe`/`rfi`
    /// and aarch64's `dob`) is skipped, and on an rf push `coe` is.
    #[test]
    fn read_sets_of_bundled_plans() {
        fn binding_reads(plan: &StagedPlan, name: &str) -> u8 {
            let n = plan.index[Sym::new(name).index()];
            assert_ne!(n, DynSlots::NONE, "`{name}` must be a frontier binding");
            plan.nodes[n as usize].reads
        }
        fn constraint_reads(plan: &StagedPlan, name: &str) -> u8 {
            plan.constraints.iter().find(|c| c.name == name).unwrap().reads
        }
        let rc11 = CatModel::bundled("rc11").unwrap();
        for name in ["hb", "sw", "rs"] {
            assert_eq!(binding_reads(rc11.plan(), name), READS_RF, "rc11 {name}");
        }
        assert_eq!(binding_reads(rc11.plan(), "coe"), READS_CO, "rc11 coe");
        assert_eq!(binding_reads(rc11.plan(), "eco"), READS_RF | READS_CO);
        assert_eq!(constraint_reads(rc11.plan(), "no_thin_air"), READS_RF);
        assert_eq!(constraint_reads(rc11.plan(), "atomicity"), READS_CO);
        assert_eq!(constraint_reads(rc11.plan(), "coherence"), READS_RF | READS_CO);
        let a64 = CatModel::bundled("aarch64").unwrap();
        for name in ["rfe", "rfi"] {
            assert_eq!(binding_reads(a64.plan(), name), READS_RF, "aarch64 {name}");
        }
        assert_eq!(binding_reads(a64.plan(), "coe"), READS_CO, "aarch64 coe");
        // `dob` is flattened into `external`, which still reads both.
        assert_eq!(constraint_reads(a64.plan(), "external"), READS_RF | READS_CO);
        // Per-push work: only what reads the pushed relation, even when
        // the push runs to the end of the walk.
        let plan = rc11.plan();
        let frontier = plan
            .steps
            .iter()
            .filter(|s| matches!(s, Step::BindDyn { frontier: true, .. }))
            .count()
            + plan.constraints.len();
        let full_walk = |touched: u8| {
            let reads = |n: usize| plan.nodes[n].reads & touched != 0;
            let nodes = 0..plan.nodes.len();
            let binds: u32 = nodes.filter(|&n| reads(n)).map(|n| plan.nodes[n].binds).sum();
            binds as usize + plan.constraints.iter().filter(|c| c.reads & touched != 0).count()
        };
        assert!(full_walk(READS_RF) < frontier && full_walk(READS_CO) < frontier);
    }

    /// Renders node `n` of `plan`: the name it binds, else a hoisted
    /// constant's expression or the node's operator over its children;
    /// constants are marked `const`.
    fn render(plan: &StagedPlan, n: usize) -> String {
        let bound = plan.steps.iter().find_map(|step| match step {
            Step::BindDyn { bindings, .. } => {
                bindings.iter().find(|(sym, _)| plan.index.get(sym.index()) == Some(&(n as u32)))
            }
            _ => None,
        });
        if let Some((sym, _)) = bound {
            return sym.to_string();
        }
        match plan.nodes[n].op {
            NodeOp::Base => ["rf", "co", "fr"][n].to_string(),
            NodeOp::Const(sym) => {
                let hoisted = plan.steps.iter().find_map(|step| match step {
                    Step::BindConst { bindings, .. } => bindings.iter().find(|(s, _)| *s == sym),
                    _ => None,
                });
                match hoisted {
                    Some((_, e)) if sym.as_str().starts_with("__hoist_") => format!("const {e}"),
                    _ => format!("const {sym}"),
                }
            }
            NodeOp::Rec { .. } => unreachable!("`let rec` members bind their names"),
            NodeOp::Bin(op, a, b) => format!("{op:?}({}, {})", render(plan, a), render(plan, b)),
            NodeOp::Un(op, a) => format!("{op:?}({})", render(plan, a)),
        }
    }

    /// Constraint `name`'s operands, rendered.
    fn operands(plan: &StagedPlan, name: &str) -> Vec<String> {
        let c = plan.constraints.iter().find(|c| c.name == name).unwrap();
        c.operands.iter().map(|&o| render(plan, o)).collect()
    }

    /// Which `acyclic` constraints of the bundled models read the
    /// operands of their root's union tree, and which operands: the
    /// unions between root and operands are not nodes. rc11's `com` is
    /// read by `eco` and `scb`, so it keeps its node and only
    /// `no_thin_air` flattens.
    #[test]
    fn flattened_orders_of_bundled_plans() {
        let flattened = |model: &str| -> Vec<String> {
            let m = CatModel::bundled(model).unwrap();
            let plan = m.plan();
            let counts = |c: &Constraint| matches!(c.mode, Mode::Pairs { .. } | Mode::Triples);
            for c in &plan.constraints {
                let one = c.operands.len() == 1;
                assert!(
                    c.mode == Mode::Acyclic || counts(c) || one,
                    "{model} `{}`",
                    c.name
                );
            }
            let many = plan
                .constraints
                .iter()
                .filter(|c| c.mode == Mode::Acyclic && c.operands.len() > 1);
            many.map(|c| c.name.clone()).collect()
        };
        let internal = ["rf", "co", "fr", "const po_loc"];
        let ob = [
            "rfe",
            "coe",
            "fre",
            "const ((addr | data) | (ctrl ; [W]))",
            "Seq(const (addr | data), rfi)",
            "const aob",
        ];
        for (model, barriers) in [
            ("aarch64", &["const bob"][..]),
            ("armv7", &["const dmb"]),
            ("armv7-buggy", &["const dmb"]),
            ("ppc", &["const sync", "const lwsync", "const ctrl_isync"]),
            (
                "riscv",
                &["const fences", "const acq_po", "const po_rel", "const rel_acq"],
            ),
        ] {
            let plan = CatModel::bundled(model).unwrap().plan().clone();
            assert_eq!(flattened(model), ["internal", "external"], "{model}");
            assert_eq!(operands(&plan, "internal"), internal, "{model}");
            let external: Vec<&str> = ob.iter().chain(barriers).copied().collect();
            assert_eq!(operands(&plan, "external"), external, "{model}");
            for name in ["com", "obs", "dob"] {
                assert_eq!(plan.index[Sym::new(name).index()], DynSlots::NONE, "{model} `{name}`");
            }
        }
        for (model, axiom, ppo) in [
            ("x86tso", "tso", "const ((ppo | mfence) | implied)"),
            ("mips", "mips", "const (ppo | sync)"),
        ] {
            let plan = CatModel::bundled(model).unwrap().plan().clone();
            assert_eq!(flattened(model), ["internal", axiom], "{model}");
            assert_eq!(operands(&plan, "internal"), internal, "{model}");
            assert_eq!(operands(&plan, axiom), ["rfe", "coe", "fre", ppo], "{model}");
        }
        assert_eq!(flattened("rc11"), ["no_thin_air"]);
        let rc11 = CatModel::bundled("rc11").unwrap();
        assert_eq!(operands(rc11.plan(), "no_thin_air"), ["rf", "const po"]);
        assert_eq!(render(rc11.plan(), rc11.plan().index[Sym::new("com").index()] as usize), "com");
        assert_eq!(operands(rc11.plan(), "seq_cst").len(), 1);
        assert!(flattened("rc11-lb").is_empty());
        assert_eq!(flattened("sc"), ["sc"]);
        assert_eq!(flattened("hw-inorder"), ["inorder"]);
    }

    /// Which checks of the bundled models are counted rather than built:
    /// rc11's `coherence` (`irreflexive hb ; eco?`) counts pairs over `hb`
    /// and `eco`, dropping the sequence and `eco?`; every `atomicity`
    /// (`empty rmw & (fre ; coe)`) counts triples over `rmw`, `fre` and
    /// `coe`, dropping the sequence and the meet. The node counts before
    /// the counts (the plans of the union flattening alone) lose exactly
    /// those nodes: rc11 38 → 34.
    #[test]
    fn check_only_sequences_of_bundled_plans() {
        let atomicity = ("atomicity", Mode::Triples, &["const rmw", "fre", "coe"][..]);
        let coherence = (
            "coherence",
            Mode::Pairs { reflexive: true },
            &["hb", "eco"][..],
        );
        for (model, before, after, counted) in [
            ("rc11", 38, 34, &[coherence, atomicity][..]),
            ("rc11-lb", 38, 34, &[coherence, atomicity]),
            ("sc", 10, 8, &[atomicity]),
            ("aarch64", 18, 16, &[atomicity]),
            ("armv7", 18, 16, &[atomicity]),
            ("armv7-buggy", 18, 16, &[atomicity]),
            ("x86tso", 12, 10, &[atomicity]),
            ("riscv", 21, 19, &[atomicity]),
            ("ppc", 20, 18, &[atomicity]),
            ("mips", 12, 10, &[atomicity]),
            ("hw-inorder", 8, 8, &[]),
        ] {
            let m = CatModel::bundled(model).unwrap();
            let plan = m.plan();
            let got: Vec<(&str, Mode, Vec<String>)> = plan
                .constraints
                .iter()
                .filter(|c| matches!(c.mode, Mode::Pairs { .. } | Mode::Triples))
                .map(|c| (c.name.as_str(), c.mode, operands(plan, &c.name)))
                .collect();
            let expected: Vec<(&str, Mode, Vec<String>)> = counted
                .iter()
                .map(|&(name, mode, ops)| (name, mode, ops.iter().map(|o| o.to_string()).collect()))
                .collect();
            assert_eq!(got, expected, "{model}");
            // `a ; b?` drops the sequence and the `?`, `c & (a ; b)` the
            // sequence and the meet.
            assert_eq!(before - 2 * counted.len(), after, "{model}");
            assert_eq!(plan.nodes.len(), after, "{model}");
        }
    }

    /// A sequence that is named, read by another node or looked up at the
    /// leaves stays a node and its check reads it whole; an unnamed one
    /// under `irreflexive` or `empty c & _` is counted. Each program's
    /// sessions match from-scratch evaluation on a scripted DFS (where no
    /// residual check makes the first violation differ from the blame),
    /// and each program decides SB and RMW3 as the reference enumerator
    /// does.
    #[test]
    fn named_sequences_are_not_counted() {
        use telechat_exec::simulate_reference;
        let pairs = Mode::Pairs { reflexive: false };
        let reflexive = Mode::Pairs { reflexive: true };
        for (src, mode, expected) in [
            (
                "irreflexive (rf | co) ; fr? as p",
                reflexive,
                &["Union(rf, co)", "fr"][..],
            ),
            ("irreflexive rf ; fr as p", pairs, &["rf", "fr"]),
            ("irreflexive co ; co as p", pairs, &["co", "co"]),
            // Both operands grow on the same push, so each new pair is
            // found through both deltas and must count once.
            ("irreflexive rf ; rf^-1 as p", pairs, &["rf", "Inverse(rf)"]),
            (
                "empty id & (rf ; rf^-1) as p",
                Mode::Triples,
                &["const id", "rf", "Inverse(rf)"],
            ),
            ("let o = fr?\nirreflexive rf ; o as p", pairs, &["rf", "o"]),
            (
                "let s = rf ; fr?\nirreflexive s as p",
                Mode::Irreflexive,
                &["s"],
            ),
            (
                "let s = rf ; fr\nirreflexive s as p\nacyclic (s | po) as q",
                Mode::Irreflexive,
                &["s"],
            ),
            (
                "let s = co ; fr?\nirreflexive s as p\n~empty s as leaf",
                Mode::Irreflexive,
                &["s"],
            ),
            (
                "empty po & (rf ; fr) as p",
                Mode::Triples,
                &["const po", "rf", "fr"],
            ),
            (
                "empty (co ; rf) & (po ; po) as p",
                Mode::Triples,
                &["const (po ; po)", "co", "rf"],
            ),
            (
                "let q = rf ; fr\nempty po & q as p",
                Mode::Empty,
                &["Inter(const po, q)"],
            ),
            (
                "empty co & (co ; co) as p",
                Mode::Empty,
                &["Inter(co, Seq(co, co))"],
            ),
        ] {
            let program = crate::parse::parse_cat("t", src, &|_| None).unwrap();
            let model = CatModel::from_program(program);
            let plan = model.plan();
            let c = plan.constraints.iter().find(|c| c.name == "p").unwrap();
            assert_eq!(c.mode, mode, "{src:?}");
            assert_eq!(operands(plan, "p"), expected, "{src:?}");
            if !plan
                .steps
                .iter()
                .any(|s| matches!(s, Step::CheckResidual { .. }))
            {
                run_script_fresh(&model);
            }
            for test in [SB, RMW3] {
                let test = parse_c11(test).unwrap();
                let cfg = SimConfig::default();
                let new = simulate(&test, &model, &cfg).unwrap();
                let old = simulate_reference(&test, &model, &cfg).unwrap();
                assert_eq!(new.outcomes, old.outcomes, "{src:?} {}", test.name);
                assert_eq!(new.candidates, old.candidates, "{src:?} {}", test.name);
                assert_eq!(new.allowed, old.allowed, "{src:?} {}", test.name);
            }
        }
    }

    /// A union that leaf evaluation or a `let rec` group looks up by name,
    /// that another node reads, or that is another constraint's root keeps
    /// its node and feeds the order as one operand; the same union under
    /// `acyclic` alone is flattened. Each program decides SB and RMW3 as
    /// the reference enumerator does.
    #[test]
    fn named_unions_are_not_flattened() {
        use telechat_exec::simulate_reference;
        let acyclic = "let u = rf | co\nacyclic u | po as a\n";
        for (reader, kept) in [
            ("", false),
            ("~empty u as residual", true),
            ("flag ~empty u as flagged", true),
            ("let rec r = u | (r ; co)\nirreflexive r as rec_body", true),
            ("empty (u ; u) & id as node", true),
            ("irreflexive u as root", true),
            ("acyclic u as same_root", true),
        ] {
            let src = format!("{acyclic}{reader}");
            let program = crate::parse::parse_cat("t", &src, &|_| None).unwrap();
            let model = CatModel::from_program(program);
            let plan = model.plan();
            let u = plan.index[Sym::new("u").index()];
            assert_eq!(u != DynSlots::NONE, kept, "{src:?}: `u` keeps its node");
            let expected: &[&str] = if kept { &["u", "const po"] } else { &["rf", "co", "const po"] };
            assert_eq!(operands(plan, "a"), expected, "{src:?}");
            for test in [SB, RMW3] {
                let test = parse_c11(test).unwrap();
                let cfg = SimConfig::default();
                let new = simulate(&test, &model, &cfg).unwrap();
                let old = simulate_reference(&test, &model, &cfg).unwrap();
                assert_eq!(new.outcomes, old.outcomes, "{src:?} {}", test.name);
                assert_eq!(new.candidates, old.candidates, "{src:?} {}", test.name);
                assert_eq!(new.allowed, old.allowed, "{src:?} {}", test.name);
            }
        }
    }

    const RMW3: &str = r#"
C11 "W+RMW+SC"
{ x = 0; y = 0; }
P0 (atomic_int* x, atomic_int* y) {
  atomic_store_explicit(x, 1, memory_order_relaxed);
  atomic_store_explicit(y, 1, memory_order_release);
}
P1 (atomic_int* x, atomic_int* y) {
  int r0 = atomic_fetch_add_explicit(y, 1, memory_order_acq_rel);
  int r1 = atomic_load_explicit(x, memory_order_acquire);
}
P2 (atomic_int* x, atomic_int* y) {
  atomic_store_explicit(x, 2, memory_order_seq_cst);
  int r2 = atomic_load_explicit(y, memory_order_seq_cst);
}
exists (P1:r1=0)
"#;

    /// Asserts that every maintained value of `state` — the rf/co/fr
    /// mirrors, each frontier binding that keeps its node, each
    /// constraint's operands and the constraint states — and the verdict
    /// equal a from-scratch evaluation over the materialised partial
    /// candidate. A constraint's operands must make up its expression's
    /// value (an `acyclic` one's by their union), and while an `acyclic`
    /// value has no cycle its order must reach exactly the value's
    /// transitive closure.
    fn assert_matches_scratch(model: &CatModel, state: &StagedState, partial: &Execution, at: &str) {
        let plan = model.plan();
        let name = model.model_name();
        let env = scratch_env(plan, partial);
        assert_eq!(state.vals[RF], CatValue::Rel(partial.rf.clone()), "{name} {at}: rf");
        assert_eq!(state.vals[CO], CatValue::Rel(partial.co.clone()), "{name} {at}: co");
        assert_eq!(state.vals[FR], CatValue::Rel(partial.fr()), "{name} {at}: fr");
        for step in &plan.steps {
            if let Step::BindDyn { bindings, frontier: true, .. } = step {
                for (sym, _) in bindings {
                    // A binding flattened into an order has no node.
                    let n = plan.index[sym.index()];
                    if n == DynSlots::NONE {
                        continue;
                    }
                    assert_eq!(
                        &state.vals[n as usize],
                        env.lookup_sym(*sym).unwrap(),
                        "{name} {at}: frontier binding `{sym}`"
                    );
                }
            }
        }
        for (i, c) in plan.constraints.iter().enumerate() {
            let scratch = eval_expr(&c.expr, &env).unwrap();
            let operand = |o: usize| node_value(plan, &state.base, &state.vals, o);
            let value = match c.operands[..] {
                _ if matches!(c.mode, Mode::Pairs { .. } | Mode::Triples) => {
                    assert_count_matches_scratch(
                        c,
                        &state.cons[i],
                        &operand,
                        &env,
                        &format!("{name} {at}"),
                    );
                    scratch.clone()
                }
                [root] => operand(root).clone(),
                _ => {
                    let mut union = Relation::with_nodes(state.nodes);
                    for &o in &c.operands {
                        let CatValue::Rel(r) = operand(o) else {
                            panic!("{name} {at}: `{}` has a set operand", c.name)
                        };
                        union.union_with(r);
                    }
                    CatValue::Rel(union)
                }
            };
            assert_eq!(value, scratch, "{name} {at}: constraint `{}`", c.name);
            if let (ConState::Acyclic { order }, CatValue::Rel(r)) = (&state.cons[i], &scratch) {
                if r.is_acyclic() {
                    let closure = r.transitive_closure();
                    for a in (0..state.nodes as u32).map(EventId) {
                        for b in (0..state.nodes as u32).map(EventId) {
                            assert_eq!(
                                order.reaches(a, b),
                                closure.contains(a, b),
                                "{name} {at}: `{}` order {a:?} -> {b:?}",
                                c.name
                            );
                        }
                    }
                }
            }
            let violated = match &scratch {
                CatValue::Rel(r) => match c.mode {
                    Mode::Acyclic => !r.is_acyclic(),
                    Mode::Irreflexive | Mode::Pairs { .. } => !r.is_irreflexive(),
                    Mode::Empty | Mode::Triples => !r.is_empty(),
                },
                CatValue::Set(s) => !s.is_empty(),
            };
            assert_eq!(state.violated(i), violated, "{name} {at}: `{}` state", c.name);
        }
        let scratch = run_program(model.program(), partial).unwrap();
        assert_eq!(
            state.verdict() == PartialVerdict::Forbidden,
            !scratch.is_allowed(),
            "{name} {at}: verdict"
        );
    }

    /// Every binding of `plan` evaluated from scratch over `partial`.
    fn scratch_env<'p>(plan: &StagedPlan, partial: &'p Execution) -> Env<'p> {
        let mut env = Env::from_execution(partial);
        for step in &plan.steps {
            if let Step::BindConst {
                recursive,
                bindings,
            }
            | Step::BindDyn {
                recursive,
                bindings,
                ..
            } = step
            {
                eval_let_group(&mut env, *recursive, bindings).unwrap();
            }
        }
        env
    }

    /// Asserts that a count constraint's operands hold the from-scratch
    /// values of the subexpressions they stand for (`a ; b?` reads `a` and
    /// `b`, `c & (a ; b)` reads `c`, `a` and `b`), and that its count equals
    /// the pairs or triples counted from scratch over those values.
    fn assert_count_matches_scratch<'v>(
        c: &Constraint,
        state: &ConState,
        operand: &dyn Fn(usize) -> &'v CatValue,
        env: &Env,
        at: &str,
    ) {
        let ConState::Count { count, .. } = state else {
            panic!("{at}: `{}` counts, but its state is {state:?}", c.name)
        };
        let exprs: Vec<&CatExpr> = match (c.mode, &c.expr) {
            (Mode::Pairs { reflexive }, CatExpr::Seq(a, b)) => match (reflexive, &**b) {
                (true, CatExpr::Opt(b)) => vec![a, b],
                (false, _) => vec![a, b],
                _ => panic!("{at}: `{}` is no `a ; b?`", c.name),
            },
            (Mode::Triples, CatExpr::Inter(x, y)) => match (&**x, &**y) {
                (CatExpr::Seq(a, b), k) | (k, CatExpr::Seq(a, b)) => vec![k, a, b],
                _ => panic!("{at}: `{}` is no `c & (a ; b)`", c.name),
            },
            _ => panic!("{at}: `{}` has no count shape", c.name),
        };
        let values: Vec<Relation> = exprs
            .iter()
            .zip(&c.operands)
            .map(|(e, &o)| {
                let scratch = eval_expr(e, env).unwrap();
                assert_eq!(operand(o), &scratch, "{at}: `{}` operand `{e}`", c.name);
                scratch.as_rel("count").unwrap().clone()
            })
            .collect();
        let scratch_count = match (c.mode, &values[..]) {
            (Mode::Pairs { reflexive }, [a, b]) => a
                .iter()
                .filter(|&(x, y)| (reflexive && x == y) || b.contains(y, x))
                .count(),
            (Mode::Triples, [k, a, b]) => a
                .iter()
                .flat_map(|(x, y)| b.successors(y).map(move |z| (x, z)))
                .filter(|&(x, z)| k.contains(x, z))
                .count(),
            _ => unreachable!("operand counts match the mode"),
        };
        assert_eq!(*count, scratch_count as u64, "{at}: `{}` count", c.name);
    }

    /// Asserts that two sessions opened on the same plan and skeleton are
    /// in the same state: every node value, every constraint state (an
    /// acyclicity order's whole reachability matrix, cycle flag and open
    /// frames, a self-loop count), the constant checks, the undo journal's
    /// depth, the verdict and the blamed rule.
    fn assert_same_state(a: &StagedState, b: &StagedState, at: &str) {
        assert_eq!(a.nodes, b.nodes, "{at}: node universe");
        assert_eq!(a.vals, b.vals, "{at}: node values");
        assert_eq!(a.const_results, b.const_results, "{at}: constant checks");
        assert_eq!(a.const_gate, b.const_gate, "{at}: constant verdict");
        assert_eq!(a.stopped, b.stopped, "{at}: stopped push");
        assert_eq!(
            (a.journal.len(), a.frames.len()),
            (b.journal.len(), b.frames.len()),
            "{at}: undo journal"
        );
        assert_eq!(a.cons.len(), b.cons.len());
        for (i, (ca, cb)) in a.cons.iter().zip(&b.cons).enumerate() {
            match (ca, cb) {
                (ConState::Acyclic { order: oa }, ConState::Acyclic { order: ob }) => {
                    assert_eq!(oa.is_acyclic(), ob.is_acyclic(), "{at}: constraint {i} cycles");
                    assert_eq!(oa.depth(), ob.depth(), "{at}: constraint {i} frames");
                    for x in 0..a.nodes as u32 {
                        for y in 0..a.nodes as u32 {
                            assert_eq!(
                                oa.reaches(EventId(x), EventId(y)),
                                ob.reaches(EventId(x), EventId(y)),
                                "{at}: constraint {i} order e{x} -> e{y}"
                            );
                        }
                    }
                }
                (
                    ConState::Irreflexive { selfloops: sa },
                    ConState::Irreflexive { selfloops: sb },
                ) => assert_eq!(sa, sb, "{at}: constraint {i} self-loops"),
                (ConState::Empty, ConState::Empty) => {}
                (
                    ConState::Count {
                        count: na,
                        saved: sa,
                    },
                    ConState::Count {
                        count: nb,
                        saved: sb,
                    },
                ) => assert_eq!((na, sa.len()), (nb, sb.len()), "{at}: constraint {i} count"),
                _ => panic!("{at}: constraint {i} changed mode"),
            }
        }
        assert_eq!(a.verdict(), b.verdict(), "{at}: verdict");
        assert_eq!(a.blame(), b.blame(), "{at}: blame");
    }

    /// The RMW3 combo's skeleton (rf/co empty).
    fn rmw3_skeleton() -> Execution {
        let test = parse_c11(RMW3).unwrap();
        let r = simulate(&test, &AllowAll, &SimConfig::default().keeping_executions()).unwrap();
        let mut skeleton = r.executions.into_iter().next().unwrap();
        skeleton.rf = Relation::new();
        skeleton.co = Relation::new();
        skeleton
    }

    /// One push of a scripted DFS: read `i` reads from `w`, or location
    /// `li`'s coherence chain is extended with `w`.
    #[derive(Debug, Clone, Copy)]
    enum Push {
        Rf { i: usize, w: EventId },
        Co { li: usize, w: EventId },
    }

    /// The push a DFS position awaits, before its write is chosen: read
    /// `i`'s rf, or location `li`'s next coherence write.
    #[derive(Debug, Clone, Copy)]
    enum Slot {
        Rf(usize),
        Co(usize),
    }

    impl Slot {
        fn with(self, w: EventId) -> Push {
            match self {
                Slot::Rf(i) => Push::Rf { i, w },
                Slot::Co(li) => Push::Co { li, w },
            }
        }
    }

    /// The first check a complete update would find violated on
    /// `partial`: the program evaluated from scratch, checks in source
    /// order. Exact for models whose checks all stage or are constant
    /// (residual checks are leaf-only and never blamed mid-DFS).
    fn scratch_blame(model: &CatModel, partial: &Execution) -> Option<String> {
        assert!(
            !model.plan().steps.iter().any(|s| matches!(s, Step::CheckResidual { .. })),
            "{}: a residual check makes run_program's first violation differ from blame",
            model.model_name()
        );
        match run_program(model.program(), partial).unwrap() {
            Verdict::Forbidden { rule } => Some(rule),
            Verdict::Allowed { .. } => None,
        }
    }

    /// Drives sessions opened on one skeleton through the engine's
    /// protocol: rf pushes before co pushes, and a push that answers
    /// `Forbidden` is asked only for its blame and then popped. Every push
    /// is applied to every session in `states` and to a materialised
    /// partial candidate. A `Forbidden` push is checked on its verdict and
    /// blame against [`scratch_blame`]. With `exact`, every state the
    /// engine can reach (after each other push, and after every pop) is
    /// compared node for node: the first session with a from-scratch
    /// evaluation, every other session with the first.
    struct Script<'m, 's, 'a> {
        model: &'m CatModel,
        states: &'s mut [StagedState<'a>],
        exact: bool,
        /// The skeleton's reads, and per read its location's index.
        reads: Vec<(EventId, usize)>,
        /// Per location, its writes, init write first.
        writes: Vec<Vec<EventId>>,
        partial: Execution,
        /// Per location, the current coherence chain.
        chains: Vec<Vec<EventId>>,
        stack: Vec<Push>,
        leaves: usize,
        forbidden: usize,
    }

    impl<'m, 's, 'a> Script<'m, 's, 'a> {
        fn new(
            model: &'m CatModel,
            states: &'s mut [StagedState<'a>],
            skeleton: &Execution,
            exact: bool,
        ) -> Self {
            let mut by_loc: std::collections::BTreeMap<_, Vec<EventId>> = Default::default();
            for id in skeleton.init_writes().iter() {
                by_loc.entry(skeleton.events[id.index()].loc.clone()).or_default().push(id);
            }
            for id in skeleton.writes().iter() {
                if !skeleton.init_writes().contains(id) {
                    by_loc.entry(skeleton.events[id.index()].loc.clone()).or_default().push(id);
                }
            }
            let locs: Vec<_> = by_loc.keys().cloned().collect();
            let reads = skeleton
                .reads()
                .iter()
                .map(|r| {
                    let loc = &skeleton.events[r.index()].loc;
                    let li = locs.iter().position(|l| l == loc);
                    (r, li.expect("every read's location is written"))
                })
                .collect();
            let writes: Vec<Vec<EventId>> = by_loc.into_values().collect();
            let script = Script {
                model,
                states,
                exact,
                reads,
                chains: writes.iter().map(|ws| vec![ws[0]]).collect(),
                writes,
                partial: skeleton.clone(),
                stack: Vec::new(),
                leaves: 0,
                forbidden: 0,
            };
            script.check("seed");
            script
        }

        fn check(&self, at: &str) {
            if self.exact {
                assert_matches_scratch(self.model, &self.states[0], &self.partial, at);
                for other in &self.states[1..] {
                    assert_same_state(&self.states[0], other, at);
                }
            }
        }

        /// Pushes `p`; true if it answered `Undecided` (it stays pushed),
        /// false if it answered `Forbidden` (checked, then popped).
        fn push(&mut self, p: Push) -> bool {
            let at = format!("{p:?} after {:?}", self.stack);
            let verdicts: Vec<PartialVerdict> = match p {
                Push::Rf { i, w } => {
                    let r = self.reads[i].0;
                    self.partial.rf.insert(w, r);
                    self.states.iter_mut().map(|s| s.push_rf(w, r).unwrap()).collect()
                }
                Push::Co { li, w } => {
                    let chain = &self.chains[li];
                    for &c in chain {
                        self.partial.co.insert(c, w);
                    }
                    let verdicts =
                        self.states.iter_mut().map(|s| s.push_co(chain, w).unwrap()).collect();
                    self.chains[li].push(w);
                    verdicts
                }
            };
            let name = self.model.model_name();
            let scratch = scratch_blame(self.model, &self.partial);
            for (verdict, state) in verdicts.iter().zip(self.states.iter()) {
                assert_eq!(
                    *verdict == PartialVerdict::Forbidden,
                    scratch.is_some(),
                    "{name} {at}: verdict (scratch blames {scratch:?})"
                );
                if *verdict == PartialVerdict::Forbidden {
                    assert_eq!(state.blame(), scratch.as_deref(), "{name} {at}: blame");
                    // The walk stopped at its first violated constraint (or
                    // at a violated constant check): it and every earlier
                    // one were applied in full, so their counts are exact.
                    let plan = self.model.plan();
                    let applied = state.const_gate.unwrap_or(plan.constraints.len());
                    let cons = plan
                        .constraints
                        .iter()
                        .zip(&state.cons)
                        .enumerate()
                        .take(applied);
                    let env = scratch_env(plan, &self.partial);
                    let operand = |o: usize| node_value(plan, &state.base, &state.vals, o);
                    for (i, (c, con)) in cons {
                        if matches!(c.mode, Mode::Pairs { .. } | Mode::Triples) {
                            assert_count_matches_scratch(
                                c,
                                con,
                                &operand,
                                &env,
                                &format!("{name} {at}"),
                            );
                        }
                        if state.violated(i) {
                            break;
                        }
                    }
                }
            }
            if scratch.is_some() {
                self.forbidden += 1;
                self.undo(p, &format!("pop forbidden {at}"));
                return false;
            }
            self.stack.push(p);
            self.check(&at);
            true
        }

        fn undo(&mut self, p: Push, at: &str) {
            match p {
                Push::Rf { i, w } => {
                    let r = self.reads[i].0;
                    for state in self.states.iter_mut() {
                        state.pop_rf(w, r);
                    }
                    self.partial.rf.remove(w, r);
                }
                Push::Co { li, w } => {
                    self.chains[li].pop();
                    let chain = &self.chains[li];
                    for state in self.states.iter_mut() {
                        state.pop_co(chain, w);
                    }
                    for &c in chain {
                        self.partial.co.remove(c, w);
                    }
                }
            }
            self.check(at);
        }

        fn pop(&mut self) -> Push {
            let p = self.stack.pop().expect("a push to pop");
            self.undo(p, &format!("pop {p:?}"));
            p
        }

        /// The next push the DFS owes: the next read's rf, else the first
        /// incomplete coherence chain's next write; `None` at a leaf.
        fn next_slot(&self) -> Option<Slot> {
            let assigned = self.stack.iter().filter(|p| matches!(p, Push::Rf { .. })).count();
            if assigned < self.reads.len() {
                return Some(Slot::Rf(assigned));
            }
            let open = |&li: &usize| self.chains[li].len() < self.writes[li].len();
            (0..self.chains.len()).find(open).map(Slot::Co)
        }

        /// The candidate writes for `slot`: every write of the read's
        /// location, or the writes not yet in the chain.
        fn candidates(&self, slot: Slot) -> Vec<EventId> {
            match slot {
                Slot::Rf(i) => self.writes[self.reads[i].1].clone(),
                Slot::Co(li) => {
                    let placed = &self.chains[li];
                    self.writes[li].iter().copied().filter(|w| !placed.contains(w)).collect()
                }
            }
        }

        /// Checks the leaf verdict of every session against `run_program`.
        fn leaf(&mut self) {
            let scratch = run_program(self.model.program(), &self.partial).unwrap();
            let name = self.model.model_name();
            for state in self.states.iter() {
                assert_eq!(state.check_leaf().unwrap(), scratch, "{name}: leaf {:?}", self.stack);
            }
            self.leaves += 1;
        }

        /// Depth-first search to the first allowed leaf, trying each slot's
        /// candidates in the order `order` gives. On success the leaf stays
        /// pushed; on failure every push made here is popped.
        fn first_leaf(&mut self, order: &dyn Fn(Slot, Vec<EventId>) -> Vec<EventId>) -> bool {
            let Some(slot) = self.next_slot() else {
                self.leaf();
                return true;
            };
            for w in order(slot, self.candidates(slot)) {
                if self.push(slot.with(w)) {
                    if self.first_leaf(order) {
                        return true;
                    }
                    self.pop();
                }
            }
            false
        }

        /// A seeded walk of `steps` protocol moves: push a random
        /// candidate of the next slot, or pop, or judge a leaf and pop.
        fn random_walk(&mut self, seed: u64, steps: usize) {
            let mut rng = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
            let mut next = move || {
                rng ^= rng << 13;
                rng ^= rng >> 7;
                rng ^= rng << 17;
                rng
            };
            for _ in 0..steps {
                let roll = next();
                match self.next_slot() {
                    _ if !self.stack.is_empty() && roll % 4 == 0 => {
                        self.pop();
                    }
                    None => {
                        self.leaf();
                        self.pop();
                    }
                    Some(slot) => {
                        let candidates = self.candidates(slot);
                        let w = candidates[(roll >> 8) as usize % candidates.len()];
                        self.push(slot.with(w));
                    }
                }
            }
            while !self.stack.is_empty() {
                self.pop();
            }
        }
    }

    /// A scripted DFS over [`rmw3_skeleton`] that leaves the plain
    /// push-then-pop path: the first allowed leaf (read `i` tries its
    /// location's writes from the `i + 1`-th on, chains in write order),
    /// pop all co, pop the last rf, the first allowed leaf under a
    /// different write for that read with every chain in reverse order,
    /// then pop everything. Each step is applied to every session in
    /// `states` (all opened on the skeleton) and checked as [`Script`]
    /// describes; both leaves are compared with `run_program`. Returns
    /// the number of leaves reached and of pushes that answered
    /// `Forbidden`.
    fn run_script(model: &CatModel, states: &mut [StagedState]) -> (usize, usize) {
        let skeleton = rmw3_skeleton();
        let mut script = Script::new(model, states, &skeleton, true);
        assert_eq!(script.reads.len(), 3);
        assert!(script.writes.iter().all(|w| w.len() == 3), "{:?}", script.writes);
        let rotate = |shift: usize| {
            move |slot: Slot, mut ws: Vec<EventId>| {
                if let Slot::Rf(i) = slot {
                    let k = (i + shift) % ws.len();
                    ws.rotate_left(k);
                }
                ws
            }
        };
        let reached = script.first_leaf(&rotate(1));
        while matches!(script.stack.last(), Some(Push::Co { .. })) {
            script.pop();
        }
        if reached {
            let Push::Rf { w: old, .. } = script.pop() else {
                unreachable!("rf pushes precede co pushes")
            };
            let second = rotate(2);
            script.first_leaf(&move |slot: Slot, ws: Vec<EventId>| match slot {
                Slot::Rf(_) => second(slot, ws).into_iter().filter(|&w| w != old).collect(),
                Slot::Co(_) => ws.into_iter().rev().collect(),
            });
        }
        while !script.stack.is_empty() {
            script.pop();
        }
        (script.leaves, script.forbidden)
    }

    /// [`run_script`] on one fresh session.
    fn run_script_fresh(model: &CatModel) -> (usize, usize) {
        let skeleton = rmw3_skeleton();
        run_script(model, &mut [StagedState::new(model.plan(), &skeleton).unwrap()])
    }

    /// The hazard that read-set skipping creates: a value a pop left stale
    /// is never recomputed by later pushes that skip it. Pops must
    /// restore every maintained value, checked on the bundled models; the
    /// script reaches both of its leaves and stops some pushes early.
    #[test]
    fn scripted_push_pop_keeps_every_value_exact() {
        for model_name in ["aarch64", "rc11"] {
            let (leaves, forbidden) = run_script_fresh(&CatModel::bundled(model_name).unwrap());
            assert_eq!(leaves, 2, "{model_name}: both leaves");
            assert!(forbidden > 0, "{model_name}: no push was forbidden");
        }
    }

    /// A session the DFS has pushed into and popped out of is back at its
    /// baseline, so the enumerator reuses it for the next combo of the
    /// same skeleton: after a full push/pop script it equals a freshly
    /// opened session, and replaying the script on it matches a fresh
    /// session at every node.
    #[test]
    fn popped_session_equals_a_fresh_one() {
        let skeleton = rmw3_skeleton();
        for model_name in ["aarch64", "rc11"] {
            let model = CatModel::bundled(model_name).unwrap();
            let open = || StagedState::new(model.plan(), &skeleton).unwrap();
            let mut reused = open();
            assert_eq!(run_script(&model, std::slice::from_mut(&mut reused)).0, 2);
            assert!(reused.frontier_evals() > 0);
            assert_same_state(&open(), &reused, &format!("{model_name} after the script"));
            assert_eq!(run_script(&model, &mut [open(), reused]).0, 2);
        }
    }

    /// A push stops at its first violated check, so its blame must be the
    /// rule a complete update names: at every `Forbidden` push of seeded
    /// protocol walks over the RMW3 and diy SB/MP/LB/2+2W skeletons, the
    /// blame equals the first violated check of a from-scratch evaluation.
    #[test]
    fn stopped_push_blames_the_first_violated_rule() {
        use telechat_common::Annot;
        use telechat_diy::{AccessKind, Edge, Family};
        let po = Edge::Po { sameloc: false };
        let mut skeletons = vec![("RMW3".to_string(), rmw3_skeleton())];
        for family in [Family::Sb, Family::Mp, Family::Lb, Family::W2Plus2] {
            let kind = AccessKind::Atomic(Annot::Relaxed);
            let test = family.generate(family.tag(), po, kind).unwrap();
            let r = simulate(&test, &AllowAll, &SimConfig::default().keeping_executions()).unwrap();
            let mut skeleton = r.executions.into_iter().next().unwrap();
            skeleton.rf = Relation::new();
            skeleton.co = Relation::new();
            skeletons.push((family.tag().to_string(), skeleton));
        }
        for model_name in ["aarch64", "armv7", "x86tso", "rc11"] {
            let model = CatModel::bundled(model_name).unwrap();
            let mut forbidden = 0;
            for (name, skeleton) in &skeletons {
                let mut state = StagedState::new(model.plan(), skeleton).unwrap();
                for seed in 1..=4 {
                    let states = std::slice::from_mut(&mut state);
                    let mut script = Script::new(&model, states, skeleton, false);
                    script.random_walk(seed, 120);
                    forbidden += script.forbidden;
                }
                assert_same_state(
                    &StagedState::new(model.plan(), skeleton).unwrap(),
                    &state,
                    &format!("{model_name} {name} after the walks"),
                );
            }
            assert!(forbidden > 0, "{model_name}: no push was forbidden");
        }
    }

    /// A push that stops after the walk passed a later `irreflexive`
    /// constraint's root has journaled that root's diagonal edges without
    /// applying the constraint; the pop must still leave the self-loop
    /// count exact. Here `second`'s root (`a`, diagonal on every rf edge)
    /// precedes `first`'s, which stops every rf push.
    #[test]
    fn stop_past_a_later_irreflexive_root_pops_exactly() {
        let src = "let a = rf ; rf^-1\nempty a | rf as first\nirreflexive a as second";
        let program = crate::parse::parse_cat("t", src, &|_| None).unwrap();
        let model = CatModel::from_program(program);
        let plan = model.plan();
        assert_eq!(plan.constraints[1].mode, Mode::Irreflexive);
        assert!(plan.constraints[1].root() < plan.constraints[0].root());
        let skeleton = sb_skeleton();
        let mut state = StagedState::new(plan, &skeleton).unwrap();
        let mut script = Script::new(&model, std::slice::from_mut(&mut state), &skeleton, true);
        let (r, li) = script.reads[0];
        let w = script.writes[li][1];
        assert!(!script.push(Push::Rf { i: 0, w }), "rf({w:?}, {r:?}) must be forbidden");
        assert_eq!(script.forbidden, 1);
        drop(script);
        assert_same_state(&StagedState::new(plan, &skeleton).unwrap(), &state, "after the pop");
    }

    /// A violated constant check forbids every push, which stops once it
    /// has applied the staged constraints before that check in source
    /// order, so a violated staged constraint listed before the check
    /// still takes the blame (`before` in the last program, which every rf
    /// push violates).
    #[test]
    fn violated_constant_check_stops_every_push() {
        let skeleton = sb_skeleton();
        for src in [
            "empty co as before\nempty po as konst\nacyclic rf | po as after",
            "empty po as konst\nempty co as after",
            "empty rf as before\nempty po as konst",
        ] {
            let program = crate::parse::parse_cat("t", src, &|_| None).unwrap();
            let model = CatModel::from_program(program);
            assert!(model.plan().has_const_checks, "{src:?}");
            let mut state = StagedState::new(model.plan(), &skeleton).unwrap();
            let mut script = Script::new(&model, std::slice::from_mut(&mut state), &skeleton, true);
            let (_, li) = script.reads[0];
            let w = script.writes[li][0];
            assert!(!script.push(Push::Rf { i: 0, w }), "{src:?}");
            assert_eq!(script.forbidden, 1);
            script.random_walk(3, 40);
            drop(script);
            assert_eq!(state.blame(), Some("konst"), "{src:?}: blame at the baseline");
        }
    }

    /// The protocol guard: pushing onto a push that answered `Forbidden`
    /// before popping it is a caller bug, caught in debug builds.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "pop it first")]
    fn pushing_onto_a_stopped_push_panics() {
        let skeleton = sb_skeleton();
        let model = CatModel::bundled("sc").unwrap();
        let mut state = StagedState::new(model.plan(), &skeleton).unwrap();
        // Both reads read the initial value, then both chains put the new
        // write last: the SB cycle, forbidden under SC.
        let [wx0, wy0, wx1, ry, wy1, rx] = [0, 1, 2, 3, 4, 5].map(EventId);
        assert_eq!(state.push_rf(wy0, ry).unwrap(), PartialVerdict::Undecided);
        assert_eq!(state.push_rf(wx0, rx).unwrap(), PartialVerdict::Undecided);
        assert_eq!(state.push_co(&[wx0], wx1).unwrap(), PartialVerdict::Undecided);
        assert_eq!(state.push_co(&[wy0], wy1).unwrap(), PartialVerdict::Forbidden);
        let _ = state.push_rf(wx0, rx);
    }

    /// Every delta rule, including the ones no bundled model uses (`*`,
    /// `cross`, `domain`/`range`, `[S]` over a growing set, set-valued
    /// `&`/`|`/`\`, an `and` group) and the `let rec` fallback, against
    /// from-scratch evaluation and the reference enumerator.
    #[test]
    fn delta_rules_cover_every_operator() {
        let src = "let a = rf & loc and b = a | fr
let d = domain(rf) | range(co)
let s = [d] ; (co | rf)* ; [R]
let x = cross(domain(rf) & W, range(co) \\ IW) & loc
let rec r = rf | (r ; co)
acyclic s | po as star_seq
empty (x | b) & id as cross_sets
irreflexive r ; fr as rec_group
acyclic b | po as split_and
empty (domain(co) & range(fr)) \\ IW as set_empty";
        let p = crate::parse::parse_cat("ops", src, &|_| None).unwrap();
        let model = CatModel::from_program(p);
        assert_eq!(model.plan().staged_constraints(), 5);
        assert_eq!(model.plan().rec_groups.len(), 1);
        // `x | b` reads `b` outside `split_and`'s order, so both unions
        // keep their nodes and the relation `Union` rule runs.
        assert_eq!(operands(model.plan(), "split_and"), ["b", "const po"]);
        assert_eq!(operands(model.plan(), "star_seq"), ["s", "const po"]);
        run_script_fresh(&model);
        use telechat_exec::simulate_reference;
        for src in [SB, RMW3] {
            let test = parse_c11(src).unwrap();
            let cfg = SimConfig::default();
            let new = simulate(&test, &model, &cfg).unwrap();
            let old = simulate_reference(&test, &model, &cfg).unwrap();
            assert_eq!(new.outcomes, old.outcomes, "{}", test.name);
            assert_eq!(new.candidates, old.candidates, "{}", test.name);
            assert_eq!(new.allowed, old.allowed, "{}", test.name);
        }
    }

    /// `empty` over a *set*-valued monotone expression stages by element
    /// cardinality (regression: this used to abort session setup with a
    /// type error).
    #[test]
    fn set_valued_empty_constraint_stages() {
        use telechat_exec::simulate_reference;
        let p = crate::parse::parse_cat("t", "empty domain(rf) as no_rf", &|_| None).unwrap();
        let model = CatModel::from_program(p);
        assert_eq!(model.plan().staged_constraints(), 1);
        assert!(model.plan().prunes());
        let test = parse_c11(SB).unwrap();
        let cfg = SimConfig::default();
        let new = simulate(&test, &model, &cfg).unwrap();
        let old = simulate_reference(&test, &model, &cfg).unwrap();
        assert_eq!(new.outcomes, old.outcomes);
        assert_eq!(new.candidates, old.candidates);
        assert_eq!(new.allowed, old.allowed);
        assert_eq!(new.allowed, 0, "every SB candidate has rf edges");
    }

    /// Shadowing a reserved or `let`-bound name makes the plan fall back
    /// to leaf-only evaluation: the staged executor runs the whole
    /// binding frontier before the constraints, so rebinding would leak a
    /// later value into an earlier check.
    #[test]
    fn shadowing_disables_staging() {
        for src in [
            "let rf = rf & ext\nacyclic rf | po as a",    // rebinds a mirror
            "let x = rf\nlet x = co\nacyclic x | po as a", // rebinds a let
            "let po = rf | co\nacyclic po as a",          // rebinds a base name
        ] {
            let p = crate::parse::parse_cat("t", src, &|_| None).unwrap();
            let plan = StagedPlan::compile(&p);
            assert!(!plan.prunes(), "{src:?} must not stage");
        }
        // Fresh names keep staging on.
        let p = crate::parse::parse_cat("t", "let x = rf\nacyclic x | po as a", &|_| None).unwrap();
        assert!(StagedPlan::compile(&p).prunes());
    }

    /// The order pool round-trips: dropping a session releases its
    /// `IncrementalOrder`s for the next combo on this thread.
    #[test]
    fn order_pool_recycles_across_sessions() {
        let skeleton = sb_skeleton();
        let model = CatModel::bundled("aarch64").unwrap();
        // aarch64 stages two acyclicity constraints (`internal` and the
        // rewritten `external`); `atomicity` is emptiness and needs no
        // order.
        let acyclic = model
            .plan()
            .constraints
            .iter()
            .filter(|c| c.mode == Mode::Acyclic)
            .count();
        assert_eq!(acyclic, 2);
        {
            let state = StagedState::new(model.plan(), &skeleton).unwrap();
            drop(state);
        }
        let pooled = ORDER_POOL.with(|p| p.borrow().len());
        assert!(
            pooled >= acyclic,
            "expected ≥ {acyclic} pooled orders, got {pooled}"
        );
        // A second session drains and refills the pool.
        let state = StagedState::new(model.plan(), &skeleton).unwrap();
        let during = ORDER_POOL.with(|p| p.borrow().len());
        assert!(during < pooled || pooled == 0);
        drop(state);
        assert!(ORDER_POOL.with(|p| p.borrow().len()) >= pooled);
    }
}
