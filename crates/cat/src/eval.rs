//! Evaluation of Cat programs over candidate executions.
//!
//! Identifiers are interned ([`Sym`]) at parse time, and environments are
//! *slot tables* indexed by the dense symbol id: a name lookup on the
//! per-candidate hot path is one array read — no string hashing or
//! comparison anywhere in evaluation (ISSUE 3 satellite: interned Cat
//! identifiers).

use crate::ast::{CatExpr, CatProgram, CatStmt, CheckKind};
use std::borrow::Cow;
use std::sync::OnceLock;
use telechat_common::{Annot, Error, Result, Sym};
use telechat_exec::{EventSet, Execution, Relation, Verdict};

/// The pre-interned symbols of every name the evaluator itself binds —
/// interned once per process, so neither per-combo base construction nor
/// the per-candidate `rf`/`co`/`fr` layer ever touches the interner's
/// mutex or hashes a string.
pub(crate) struct BaseSyms {
    pub(crate) underscore: Sym,
    pub(crate) m: Sym,
    pub(crate) r: Sym,
    pub(crate) w: Sym,
    pub(crate) f: Sym,
    pub(crate) iw: Sym,
    pub(crate) emptyset: Sym,
    pub(crate) annots: Vec<(Annot, Sym)>,
    pub(crate) po: Sym,
    pub(crate) rmw: Sym,
    pub(crate) addr: Sym,
    pub(crate) data: Sym,
    pub(crate) ctrl: Sym,
    pub(crate) loc: Sym,
    pub(crate) ext: Sym,
    pub(crate) int: Sym,
    pub(crate) id: Sym,
    pub(crate) emptyrel: Sym,
    pub(crate) rf: Sym,
    pub(crate) co: Sym,
    pub(crate) fr: Sym,
}

pub(crate) fn base_syms() -> &'static BaseSyms {
    static SYMS: OnceLock<BaseSyms> = OnceLock::new();
    SYMS.get_or_init(|| BaseSyms {
        underscore: Sym::new("_"),
        m: Sym::new("M"),
        r: Sym::new("R"),
        w: Sym::new("W"),
        f: Sym::new("F"),
        iw: Sym::new("IW"),
        emptyset: Sym::new("emptyset"),
        annots: Annot::ALL
            .iter()
            .map(|&a| (a, Sym::new(a.cat_name())))
            .collect(),
        po: Sym::new("po"),
        rmw: Sym::new("rmw"),
        addr: Sym::new("addr"),
        data: Sym::new("data"),
        ctrl: Sym::new("ctrl"),
        loc: Sym::new("loc"),
        ext: Sym::new("ext"),
        int: Sym::new("int"),
        id: Sym::new("id"),
        emptyrel: Sym::new("emptyrel"),
        rf: Sym::new("rf"),
        co: Sym::new("co"),
        fr: Sym::new("fr"),
    })
}

/// A Cat value: an event set or a relation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum CatValue {
    /// An event set.
    Set(EventSet),
    /// A binary relation on events.
    Rel(Relation),
}

impl CatValue {
    pub(crate) fn type_name(&self) -> &'static str {
        match self {
            CatValue::Set(_) => "set",
            CatValue::Rel(_) => "relation",
        }
    }

    pub(crate) fn as_rel(&self, ctx: &str) -> Result<&Relation> {
        match self {
            CatValue::Rel(r) => Ok(r),
            CatValue::Set(_) => Err(Error::Model(format!(
                "{ctx}: expected a relation, found a set"
            ))),
        }
    }

    fn as_set(&self, ctx: &str) -> Result<&EventSet> {
        match self {
            CatValue::Set(s) => Ok(s),
            CatValue::Rel(_) => Err(Error::Model(format!(
                "{ctx}: expected a set, found a relation"
            ))),
        }
    }
}

/// Writes `v` into `slots[sym]`, growing the table as needed (geometric
/// growth, so a run of inserts with ascending ids stays amortised O(1)).
pub(crate) fn set_slot(slots: &mut Vec<Option<CatValue>>, sym: Sym, v: CatValue) {
    let i = sym.index();
    if i >= slots.len() {
        slots.resize_with((i + 1).next_power_of_two(), || None);
    }
    slots[i] = Some(v);
}

/// The combo-constant part of an evaluation environment.
///
/// Everything here depends only on the candidate *skeleton* — the events
/// and the fixed relations (`po`, `rmw`, `addr`, `data`, `ctrl`) — not on
/// the rf/co choice. The enumeration engine's combo sessions build one
/// `EnvBase` per trace combination and layer a thin per-candidate [`Env`]
/// (binding just `rf`, `co`, `fr`) over it, instead of recomputing
/// `loc`/`ext`/`int`, the annotation sets and the universe for every
/// single candidate — the dominant cost of naive per-candidate
/// evaluation. The staged engine ([`crate::staged`]) additionally caches
/// combo-constant `let` bindings and hoisted constant subexpressions here.
#[derive(Debug, Clone)]
pub struct EnvBase {
    slots: Vec<Option<CatValue>>,
    universe: EventSet,
}

impl EnvBase {
    /// Builds the combo-constant bindings from a skeleton execution
    /// (whose `rf`/`co` are ignored and may be empty).
    ///
    /// Bound names:
    /// * sets — `_` (all events), `M`, `R`, `W`, `F`, `IW`, `emptyset`,
    ///   and one set per [`Annot`] under its Cat name (`ACQ`, `REL`, `X`,
    ///   `DMB.ISH`, `NORET`, …);
    /// * relations — `po`, `rmw`, `addr`, `data`, `ctrl`, `loc`, `ext`,
    ///   `int`, `id`, `emptyrel`.
    pub fn from_skeleton(x: &Execution) -> EnvBase {
        let s = base_syms();
        let mut slots = Vec::new();
        let universe = x.universe();
        let mut set = |sym: Sym, v: CatValue| set_slot(&mut slots, sym, v);
        set(s.underscore, CatValue::Set(universe.clone()));
        set(s.m, CatValue::Set(x.accesses()));
        set(s.r, CatValue::Set(x.reads()));
        set(s.w, CatValue::Set(x.writes()));
        set(s.f, CatValue::Set(x.fences()));
        set(s.iw, CatValue::Set(x.init_writes()));
        set(s.emptyset, CatValue::Set(EventSet::new()));
        for &(a, sym) in &s.annots {
            set(sym, CatValue::Set(x.annot_set(a)));
        }
        set(s.po, CatValue::Rel(x.po.clone()));
        set(s.rmw, CatValue::Rel(x.rmw.clone()));
        set(s.addr, CatValue::Rel(x.addr.clone()));
        set(s.data, CatValue::Rel(x.data.clone()));
        set(s.ctrl, CatValue::Rel(x.ctrl.clone()));
        set(s.loc, CatValue::Rel(x.loc_rel()));
        set(s.ext, CatValue::Rel(x.ext_rel()));
        set(s.int, CatValue::Rel(x.int_rel()));
        set(s.id, CatValue::Rel(universe.identity()));
        set(s.emptyrel, CatValue::Rel(Relation::new()));
        EnvBase { slots, universe }
    }

    /// Binds a name (the staged engine caches combo-constant `let`
    /// bindings and hoisted subexpressions here).
    pub fn bind(&mut self, sym: Sym, v: CatValue) {
        set_slot(&mut self.slots, sym, v);
    }

    /// Looks up a name by interned symbol.
    pub fn get(&self, sym: Sym) -> Option<&CatValue> {
        self.slots.get(sym.index()).and_then(Option::as_ref)
    }

    /// The event universe of the skeleton.
    pub fn universe(&self) -> &EventSet {
        &self.universe
    }
}

/// The staged engine's maintained values as an [`Env`] layer: `index`
/// maps a symbol's dense id to the position of its value in `vals`
/// ([`DynSlots::NONE`] where the name is not maintained).
#[derive(Debug, Clone, Copy)]
pub(crate) struct DynSlots<'a> {
    pub(crate) index: &'a [u32],
    pub(crate) vals: &'a [CatValue],
}

impl<'a> DynSlots<'a> {
    /// The `index` entry of a name with no maintained value.
    pub(crate) const NONE: u32 = u32::MAX;

    fn get(self, i: usize) -> Option<&'a CatValue> {
        match self.index.get(i) {
            Some(&n) if n != Self::NONE => self.vals.get(n as usize),
            _ => None,
        }
    }
}

/// The evaluation environment: named sets/relations plus the event
/// universe, optionally layered over a shared [`EnvBase`] and the staged
/// engine's maintained values (`DynSlots`).
///
/// Lookup order: own slots → maintained values → base.
#[derive(Debug, Clone)]
pub struct Env<'a> {
    base: Option<&'a EnvBase>,
    shared: Option<DynSlots<'a>>,
    slots: Vec<Option<CatValue>>,
    universe: Cow<'a, EventSet>,
}

impl<'a> Env<'a> {
    /// Builds a self-contained environment for one execution (base plus
    /// the candidate-varying `rf`/`co`/`fr`).
    pub fn from_execution(x: &Execution) -> Env<'static> {
        let s = base_syms();
        let base = EnvBase::from_skeleton(x);
        let universe = base.universe.clone();
        let mut slots = base.slots;
        set_slot(&mut slots, s.rf, CatValue::Rel(x.rf.clone()));
        set_slot(&mut slots, s.co, CatValue::Rel(x.co.clone()));
        set_slot(&mut slots, s.fr, CatValue::Rel(x.fr()));
        Env {
            base: None,
            shared: None,
            slots,
            universe: Cow::Owned(universe),
        }
    }

    /// A thin per-candidate environment over a shared combo base: only
    /// `rf`, `co` and the derived `fr` are bound here (the universe is
    /// borrowed, not cloned — this runs once per candidate).
    pub fn over_base(base: &'a EnvBase, x: &Execution) -> Env<'a> {
        let s = base_syms();
        let mut slots = Vec::new();
        set_slot(&mut slots, s.rf, CatValue::Rel(x.rf.clone()));
        set_slot(&mut slots, s.co, CatValue::Rel(x.co.clone()));
        set_slot(&mut slots, s.fr, CatValue::Rel(x.fr()));
        Env {
            base: Some(base),
            shared: None,
            slots,
            universe: Cow::Borrowed(&base.universe),
        }
    }

    /// A read-view over a base and the staged engine's maintained values
    /// (the rf/co/fr mirrors and frontier bindings). Binding into the
    /// view writes the view's own layer; the maintained values are never
    /// mutated.
    pub(crate) fn view(base: &'a EnvBase, shared: DynSlots<'a>) -> Env<'a> {
        Env {
            base: Some(base),
            shared: Some(shared),
            slots: Vec::new(),
            universe: Cow::Borrowed(&base.universe),
        }
    }

    /// Looks up an interned name — one or two array reads.
    ///
    /// # Errors
    ///
    /// Unknown names are model errors (no silent empty-set fallback: a typo
    /// in a model must not weaken it).
    pub fn lookup_sym(&self, sym: Sym) -> Result<&CatValue> {
        let i = sym.index();
        self.slots
            .get(i)
            .and_then(Option::as_ref)
            .or_else(|| self.shared.and_then(|s| s.get(i)))
            .or_else(|| self.base.and_then(|b| b.slots.get(i)).and_then(Option::as_ref))
            .ok_or_else(|| Error::Model(format!("unknown identifier `{sym}`")))
    }

    /// Looks up a name by spelling (interns it first; test/diagnostic
    /// convenience — evaluation always goes through [`Env::lookup_sym`]).
    ///
    /// # Errors
    ///
    /// As [`Env::lookup_sym`].
    pub fn lookup(&self, name: &str) -> Result<&CatValue> {
        self.lookup_sym(Sym::new(name))
    }

    /// Binds a name (used by `let`; shadows the shared layer and the base).
    pub fn bind(&mut self, sym: Sym, value: CatValue) {
        set_slot(&mut self.slots, sym, value);
    }

    /// The event universe.
    pub fn universe(&self) -> &EventSet {
        &self.universe
    }

    /// Consumes the environment, returning its own (innermost) slot layer —
    /// the staged engine's way of moving `let`-group results it evaluated
    /// through a view back into its shared tables.
    pub(crate) fn take_slots(self) -> Vec<Option<CatValue>> {
        self.slots
    }
}

/// A binary Cat operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum BinOp {
    Union,
    Inter,
    Diff,
    Seq,
    Cross,
}

/// A unary Cat operator.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum UnOp {
    Opt,
    Plus,
    Star,
    Inverse,
    IdOn,
    Domain,
    Range,
}

/// One level of an expression: a name, or an operator over subexpressions.
pub(crate) enum Shape<'e> {
    Name(Sym),
    Bin(BinOp, &'e CatExpr, &'e CatExpr),
    Un(UnOp, &'e CatExpr),
}

/// Splits off the top operator of an expression.
pub(crate) fn shape(e: &CatExpr) -> Shape<'_> {
    match e {
        CatExpr::Name(n) => Shape::Name(*n),
        CatExpr::Union(a, b) => Shape::Bin(BinOp::Union, a, b),
        CatExpr::Inter(a, b) => Shape::Bin(BinOp::Inter, a, b),
        CatExpr::Diff(a, b) => Shape::Bin(BinOp::Diff, a, b),
        CatExpr::Seq(a, b) => Shape::Bin(BinOp::Seq, a, b),
        CatExpr::Cross(a, b) => Shape::Bin(BinOp::Cross, a, b),
        CatExpr::Opt(a) => Shape::Un(UnOp::Opt, a),
        CatExpr::Plus(a) => Shape::Un(UnOp::Plus, a),
        CatExpr::Star(a) => Shape::Un(UnOp::Star, a),
        CatExpr::Inverse(a) => Shape::Un(UnOp::Inverse, a),
        CatExpr::IdOn(a) => Shape::Un(UnOp::IdOn, a),
        CatExpr::Domain(a) => Shape::Un(UnOp::Domain, a),
        CatExpr::Range(a) => Shape::Un(UnOp::Range, a),
    }
}

/// Evaluates an expression in an environment.
///
/// # Errors
///
/// Returns [`Error::Model`] on unknown names or type mismatches.
pub fn eval_expr(e: &CatExpr, env: &Env) -> Result<CatValue> {
    match shape(e) {
        Shape::Name(n) => env.lookup_sym(n).cloned(),
        Shape::Bin(op, a, b) => apply_binary(op, eval_expr(a, env)?, &eval_expr(b, env)?),
        Shape::Un(op, a) => apply_unary(op, &eval_expr(a, env)?, env.universe()),
    }
}

/// Applies a binary operator to evaluated operands (the staged engine
/// seeds its per-node values through this too).
pub(crate) fn apply_binary(op: BinOp, va: CatValue, vb: &CatValue) -> Result<CatValue> {
    // The left operand is owned (already a fresh value), so the bitset
    // types' in-place `|=`/`&=`/`\=` variants apply directly — no third
    // allocation per `|`/`&`/`\` node, which the Cat fixpoint loop hits
    // once per binding per Kleene iteration per candidate.
    let sym = match op {
        BinOp::Seq => return Ok(CatValue::Rel(va.as_rel(";")?.seq(vb.as_rel(";")?))),
        BinOp::Cross => {
            return Ok(CatValue::Rel(
                va.as_set("cross")?.cross(vb.as_set("cross")?),
            ))
        }
        BinOp::Union => "|",
        BinOp::Inter => "&",
        BinOp::Diff => "\\",
    };
    match (va, vb) {
        (CatValue::Set(mut x), CatValue::Set(y)) => {
            match op {
                BinOp::Union => x.union_with(y),
                BinOp::Inter => x.inter_with(y),
                _ => x.diff_with(y),
            }
            Ok(CatValue::Set(x))
        }
        (CatValue::Rel(mut x), CatValue::Rel(y)) => {
            match op {
                BinOp::Union => x.union_with(y),
                BinOp::Inter => x.inter_with(y),
                _ => x.diff_with(y),
            }
            Ok(CatValue::Rel(x))
        }
        (va, vb) => Err(Error::Model(format!(
            "type mismatch for `{sym}`: {} vs {}",
            va.type_name(),
            vb.type_name()
        ))),
    }
}

/// Applies a unary operator to an evaluated operand.
pub(crate) fn apply_unary(op: UnOp, v: &CatValue, universe: &EventSet) -> Result<CatValue> {
    Ok(match op {
        UnOp::Opt => CatValue::Rel(v.as_rel("?")?.optional(universe)),
        UnOp::Plus => CatValue::Rel(v.as_rel("+")?.transitive_closure()),
        UnOp::Star => CatValue::Rel(v.as_rel("*")?.reflexive_transitive_closure(universe)),
        UnOp::Inverse => CatValue::Rel(v.as_rel("^-1")?.inverse()),
        UnOp::IdOn => CatValue::Rel(v.as_set("[_]")?.identity()),
        UnOp::Domain => CatValue::Set(v.as_rel("domain")?.domain()),
        UnOp::Range => CatValue::Set(v.as_rel("range")?.range()),
    })
}

/// Does a (possibly negated) check hold for a value?
pub(crate) fn check_holds(
    kind: CheckKind,
    negated: bool,
    v: &CatValue,
    name: &str,
) -> Result<bool> {
    let plain = match kind {
        CheckKind::Empty => match v {
            CatValue::Set(s) => s.is_empty(),
            CatValue::Rel(r) => r.is_empty(),
        },
        CheckKind::Acyclic => v.as_rel(name)?.is_acyclic(),
        CheckKind::Irreflexive => v.as_rel(name)?.is_irreflexive(),
    };
    Ok(plain != negated)
}

/// Maximum Kleene iterations for `let rec` groups before giving up.
pub(crate) const MAX_FIXPOINT_ITERS: usize = 256;

/// Evaluates one `let` group into `env` (Kleene iteration for `let rec`).
pub(crate) fn eval_let_group(
    env: &mut Env<'_>,
    recursive: bool,
    bindings: &[(Sym, CatExpr)],
) -> Result<()> {
    if !recursive {
        for (name, expr) in bindings {
            let v = eval_expr(expr, env)?;
            env.bind(*name, v);
        }
        return Ok(());
    }
    // Kleene iteration from the empty relation.
    for (name, _) in bindings {
        env.bind(*name, CatValue::Rel(Relation::new()));
    }
    let mut iters = 0;
    loop {
        let mut changed = false;
        for (name, expr) in bindings {
            let v = eval_expr(expr, env)?;
            if env.lookup_sym(*name)? != &v {
                changed = true;
                env.bind(*name, v);
            }
        }
        if !changed {
            return Ok(());
        }
        iters += 1;
        if iters > MAX_FIXPOINT_ITERS {
            return Err(Error::Model(format!(
                "`let rec` group starting with `{}` did not converge",
                bindings[0].0
            )));
        }
    }
}

/// Runs a Cat program over one execution, producing a verdict.
///
/// # Errors
///
/// Returns [`Error::Model`] on evaluation failures (unknown names, type
/// errors, diverging `let rec`).
pub fn run_program(p: &CatProgram, x: &Execution) -> Result<Verdict> {
    run_in_env(p, Env::from_execution(x))
}

/// Runs a Cat program over one candidate with the combo-constant bindings
/// supplied by a shared [`EnvBase`] — the enumeration engine's per-combo
/// fast path (see [`EnvBase`]).
///
/// # Errors
///
/// As [`run_program`].
pub fn run_program_with_base(p: &CatProgram, base: &EnvBase, x: &Execution) -> Result<Verdict> {
    run_in_env(p, Env::over_base(base, x))
}

fn run_in_env(p: &CatProgram, mut env: Env<'_>) -> Result<Verdict> {
    let mut flags = Vec::new();
    for stmt in &p.stmts {
        match stmt {
            CatStmt::Let {
                recursive,
                bindings,
            } => eval_let_group(&mut env, *recursive, bindings)?,
            CatStmt::Check {
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
            CatStmt::Flag {
                kind,
                negated,
                expr,
                name,
            } => {
                let v = eval_expr(expr, &env)?;
                // A flag *fires* when its condition holds.
                if check_holds(*kind, *negated, &v, name)? {
                    flags.push(name.clone());
                }
            }
        }
    }
    Ok(Verdict::Allowed { flags })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::parse::parse_cat;
    use telechat_exec::{simulate, AllowAll, SimConfig};
    use telechat_litmus::parse_c11;

    /// A kept execution of SB with the weak (both-zero) outcome.
    fn sb_weak_execution() -> Execution {
        let test = parse_c11(
            r#"
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
"#,
        )
        .unwrap();
        let r = simulate(&test, &AllowAll, &SimConfig::default().keeping_executions()).unwrap();
        r.executions
            .into_iter()
            .find(|x| test.condition.prop.eval(&x.outcome))
            .expect("weak execution present")
    }

    fn program(src: &str) -> CatProgram {
        parse_cat("t", src, &|_| None).unwrap()
    }

    #[test]
    fn sc_model_forbids_weak_sb() {
        let x = sb_weak_execution();
        let sc = program("acyclic po | rf | co | fr as sc");
        assert_eq!(
            run_program(&sc, &x).unwrap(),
            Verdict::Forbidden { rule: "sc".into() }
        );
    }

    #[test]
    fn tso_allows_weak_sb() {
        let x = sb_weak_execution();
        // TSO drops W→R program order.
        let tso = program(
            "let powr = [W]; po; [R]\nacyclic (po \\ powr) | (rf & ext) | (fr & ext) | (co & ext) as tso",
        );
        assert_eq!(run_program(&tso, &x).unwrap(), Verdict::allowed());
    }

    #[test]
    fn lets_and_flags() {
        let x = sb_weak_execution();
        let p = program(
            "let wr = cross(W, R) & loc\nflag ~empty wr as touched\nacyclic po as po_ok",
        );
        match run_program(&p, &x).unwrap() {
            Verdict::Allowed { flags } => assert_eq!(flags, vec!["touched".to_string()]),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn let_rec_computes_closure() {
        let x = sb_weak_execution();
        // hb defined recursively equals (po|rf)+ defined directly.
        let rec = program("let rec hb = (po | rf) | (hb ; (po | rf))\nempty hb \\ (po | rf)+ as same\nempty (po | rf)+ \\ hb as same2");
        assert_eq!(run_program(&rec, &x).unwrap(), Verdict::allowed());
    }

    #[test]
    fn unknown_name_is_error() {
        let x = sb_weak_execution();
        let p = program("acyclic nonsense as oops");
        assert!(matches!(run_program(&p, &x), Err(Error::Model(_))));
    }

    #[test]
    fn type_mismatch_is_error() {
        let x = sb_weak_execution();
        let p = program("let z = W | po\nacyclic z as oops");
        assert!(matches!(run_program(&p, &x), Err(Error::Model(_))));
    }

    #[test]
    fn base_sets_populated() {
        let x = sb_weak_execution();
        let env = Env::from_execution(&x);
        let CatValue::Set(r) = env.lookup("R").unwrap().clone() else {
            panic!("R must be a set");
        };
        assert_eq!(r.len(), 2);
        let CatValue::Set(rlx) = env.lookup("RLX").unwrap().clone() else {
            panic!("RLX must be a set");
        };
        assert_eq!(rlx.len(), 4, "all four accesses are relaxed");
        let CatValue::Set(iw) = env.lookup("IW").unwrap().clone() else {
            panic!("IW must be a set");
        };
        assert_eq!(iw.len(), 2);
    }

    #[test]
    fn negated_check() {
        let x = sb_weak_execution();
        // ~empty rf holds (rf is non-empty) → allowed.
        let p = program("~empty rf as has_rf");
        assert_eq!(run_program(&p, &x).unwrap(), Verdict::allowed());
        let p = program("empty rf as no_rf");
        assert!(matches!(
            run_program(&p, &x).unwrap(),
            Verdict::Forbidden { .. }
        ));
    }

    #[test]
    fn view_layering_shadows_in_order() {
        let x = sb_weak_execution();
        let mut base = EnvBase::from_skeleton(&x);
        let a = Sym::new("zz_layer_probe");
        base.bind(a, CatValue::Rel(Relation::new()));
        let mut index = vec![DynSlots::NONE; a.index() + 1];
        index[a.index()] = 0;
        let vals = [CatValue::Set(EventSet::new())];
        let mut env = Env::view(
            &base,
            DynSlots {
                index: &index,
                vals: &vals,
            },
        );
        // Shared layer shadows the base.
        assert!(matches!(env.lookup_sym(a).unwrap(), CatValue::Set(_)));
        // Own bindings shadow the shared layer.
        env.bind(a, CatValue::Rel(x.po.clone()));
        let CatValue::Rel(r) = env.lookup_sym(a).unwrap() else {
            panic!("local binding must win");
        };
        assert_eq!(r, &x.po);
        // Base-only names still resolve through the view.
        assert!(env.lookup("po").is_ok());
        assert!(env.lookup("zz_not_bound_anywhere").is_err());
    }
}
