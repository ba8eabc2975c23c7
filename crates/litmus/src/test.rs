//! The litmus-test container type.

use crate::cond::Condition;
use crate::ir::Instr;
use std::collections::BTreeSet;
use std::fmt;
use telechat_common::{Arch, Error, Loc, Reg, Result, StateKey, ThreadId, Val};

/// Bit-width of a shared location.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum Width {
    /// 8-bit.
    W8,
    /// 16-bit.
    W16,
    /// 32-bit.
    W32,
    /// 64-bit.
    #[default]
    W64,
    /// 128-bit (a register *pair* on every 64-bit target; values are modelled
    /// as composite integers `lo + hi·2¹⁶`).
    W128,
}

impl Width {
    /// Size in bytes, for object-file layout.
    pub fn bytes(self) -> u64 {
        match self {
            Width::W8 => 1,
            Width::W16 => 2,
            Width::W32 => 4,
            Width::W64 => 8,
            Width::W128 => 16,
        }
    }
}

impl fmt::Display for Width {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.bytes() * 8)
    }
}

/// Declaration of one shared location: name, initial value and attributes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LocDecl {
    /// The symbolic location.
    pub loc: Loc,
    /// Initial value (the fixed initial state of the test).
    pub init: Val,
    /// Bit-width.
    pub width: Width,
    /// `const`-qualified: the location lives in read-only memory, and any
    /// store to it is a runtime crash (paper bug \[36\]).
    pub readonly: bool,
    /// Declared `_Atomic` at the source level.
    pub atomic: bool,
}

impl LocDecl {
    /// A 64-bit atomic location initialised to `init`.
    pub fn atomic(loc: impl Into<Loc>, init: impl Into<Val>) -> LocDecl {
        LocDecl {
            loc: loc.into(),
            init: init.into(),
            width: Width::W64,
            readonly: false,
            atomic: true,
        }
    }

    /// A 64-bit plain (non-atomic) location initialised to `init`.
    pub fn plain(loc: impl Into<Loc>, init: impl Into<Val>) -> LocDecl {
        LocDecl {
            loc: loc.into(),
            init: init.into(),
            width: Width::W64,
            readonly: false,
            atomic: false,
        }
    }

    /// Marks the location `const` (read-only memory).
    #[must_use]
    pub fn readonly(mut self) -> LocDecl {
        self.readonly = true;
        self
    }

    /// Sets the width.
    #[must_use]
    pub fn with_width(mut self, width: Width) -> LocDecl {
        self.width = width;
        self
    }
}

/// A litmus test: fixed initial state, concurrent program, final condition.
///
/// The same container holds source (C11) tests and compiled (assembly)
/// tests; `arch` says which dialect the thread bodies were lowered from and
/// therefore which memory model should simulate them.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LitmusTest {
    /// Test name, e.g. `MP+rel+acq` or `LB004_examples_int_C_tests`.
    pub name: String,
    /// Source dialect of the thread bodies.
    pub arch: Arch,
    /// Shared-location declarations (the fixed initial state).
    pub locs: Vec<LocDecl>,
    /// Initial register values, e.g. argument registers holding addresses
    /// (`P0:X0 = &x`) in compiled tests.
    pub reg_init: Vec<(ThreadId, Reg, Val)>,
    /// One IR body per thread, indexed by [`ThreadId`].
    pub threads: Vec<Vec<Instr>>,
    /// The final-state condition.
    pub condition: Condition,
    /// Extra state keys to record in outcomes beyond those the condition
    /// mentions (used to display full final states).
    pub observed: Vec<StateKey>,
}

impl LitmusTest {
    /// All state keys outcomes of this test must record.
    pub fn observed_keys(&self) -> BTreeSet<StateKey> {
        let mut keys = self.condition.keys();
        keys.extend(self.observed.iter().cloned());
        keys
    }

    /// The declaration of `loc`, if declared.
    pub fn loc_decl(&self, loc: &Loc) -> Option<&LocDecl> {
        self.locs.iter().find(|d| &d.loc == loc)
    }

    /// Initial value of `loc` (declared init, or zero for the implicit
    /// zero-initialised locations herd assumes).
    pub fn init_of(&self, loc: &Loc) -> Val {
        self.loc_decl(loc).map(|d| d.init.clone()).unwrap_or_default()
    }

    /// Number of threads.
    pub fn thread_count(&self) -> usize {
        self.threads.len()
    }

    /// Total instruction count across all threads (a proxy for "lines of
    /// code" in the paper's scalability discussion).
    pub fn loc_count(&self) -> usize {
        self.threads.iter().map(Vec::len).sum()
    }

    /// Checks structural sanity: branch targets exist, thread ids are dense,
    /// symbolic addresses are declared, and the condition only mentions
    /// threads that exist.
    ///
    /// # Errors
    ///
    /// Returns [`Error::IllFormed`] describing the first problem found.
    pub fn validate(&self) -> Result<()> {
        if self.threads.is_empty() {
            return Err(Error::IllFormed("test has no threads".into()));
        }
        for (tid, body) in self.threads.iter().enumerate() {
            let labels: BTreeSet<&str> = body.iter().filter_map(|i| i.label()).collect();
            // Duplicate labels?
            let mut seen = BTreeSet::new();
            for i in body {
                if let Some(l) = i.label() {
                    if !seen.insert(l) {
                        return Err(Error::IllFormed(format!(
                            "P{tid}: duplicate label `{l}`"
                        )));
                    }
                }
            }
            for i in body {
                let target = match i {
                    Instr::Jump(t) => Some(t),
                    Instr::BranchIf { target, .. } => Some(target),
                    _ => None,
                };
                if let Some(t) = target {
                    if !labels.contains(t.as_str()) {
                        return Err(Error::IllFormed(format!(
                            "P{tid}: jump to undefined label `{t}`"
                        )));
                    }
                }
                if let Some(loc) = self.instr_sym_loc(i) {
                    if self.loc_decl(loc).is_none() {
                        return Err(Error::IllFormed(format!(
                            "P{tid}: access to undeclared location `{loc}`"
                        )));
                    }
                }
            }
        }
        for key in self.condition.keys() {
            match key {
                StateKey::Reg(t, _) => {
                    if t.index() >= self.threads.len() {
                        return Err(Error::IllFormed(format!(
                            "condition mentions non-existent thread {t}"
                        )));
                    }
                }
                StateKey::Loc(l) => {
                    if self.loc_decl(&l).is_none() {
                        return Err(Error::IllFormed(format!(
                            "condition mentions undeclared location `{l}`"
                        )));
                    }
                }
            }
        }
        Ok(())
    }

    fn instr_sym_loc<'a>(&self, i: &'a Instr) -> Option<&'a Loc> {
        use crate::ir::AddrExpr;
        let addr = match i {
            Instr::Load { addr, .. }
            | Instr::Store { addr, .. }
            | Instr::Rmw { addr, .. }
            | Instr::StoreExcl { addr, .. } => addr,
            _ => return None,
        };
        match addr {
            AddrExpr::Sym(l) => Some(l),
            AddrExpr::Reg(_) => None,
        }
    }
}

impl fmt::Display for LitmusTest {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} \"{}\"", self.arch, self.name)?;
        write!(f, "{{ ")?;
        for d in &self.locs {
            let ro = if d.readonly { "const " } else { "" };
            write!(f, "{ro}{} = {}; ", d.loc, d.init)?;
        }
        for (t, r, v) in &self.reg_init {
            write!(f, "{}:{r} = {v}; ", t.0)?;
        }
        writeln!(f, "}}")?;
        for (tid, body) in self.threads.iter().enumerate() {
            writeln!(f, "P{tid} {{")?;
            for i in body {
                writeln!(f, "  {i}")?;
            }
            writeln!(f, "}}")?;
        }
        write!(f, "{}", self.condition)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::cond::Prop;
    use crate::ir::{AddrExpr, Expr};
    use telechat_common::AnnotSet;

    fn minimal_test() -> LitmusTest {
        LitmusTest {
            name: "T".into(),
            arch: Arch::C11,
            locs: vec![LocDecl::atomic("x", 0i64)],
            reg_init: vec![],
            threads: vec![vec![Instr::Load {
                dst: Reg::new("r0"),
                addr: AddrExpr::sym("x"),
                annot: AnnotSet::EMPTY,
            }]],
            condition: Condition::exists(Prop::atom(StateKey::reg(ThreadId(0), "r0"), 0i64)),
            observed: vec![],
        }
    }

    #[test]
    fn validate_ok() {
        minimal_test().validate().unwrap();
    }

    #[test]
    fn validate_rejects_undeclared_location() {
        let mut t = minimal_test();
        t.threads[0].push(Instr::Store {
            addr: AddrExpr::sym("zz"),
            val: Expr::int(1),
            annot: AnnotSet::EMPTY,
        });
        let err = t.validate().unwrap_err();
        assert!(err.to_string().contains("zz"), "{err}");
    }

    #[test]
    fn validate_rejects_undefined_label() {
        let mut t = minimal_test();
        t.threads[0].push(Instr::Jump("nowhere".into()));
        assert!(t.validate().is_err());
    }

    #[test]
    fn validate_rejects_duplicate_label() {
        let mut t = minimal_test();
        t.threads[0].push(Instr::Label("l".into()));
        t.threads[0].push(Instr::Label("l".into()));
        assert!(t.validate().is_err());
    }

    #[test]
    fn validate_rejects_bad_condition_thread() {
        let mut t = minimal_test();
        t.condition = Condition::exists(Prop::atom(StateKey::reg(ThreadId(3), "r0"), 0i64));
        assert!(t.validate().is_err());
    }

    #[test]
    fn observed_keys_include_condition_and_extras() {
        let mut t = minimal_test();
        t.observed.push(StateKey::loc("x"));
        let keys = t.observed_keys();
        assert_eq!(keys.len(), 2);
    }

    #[test]
    fn init_defaults_to_zero() {
        let t = minimal_test();
        assert_eq!(t.init_of(&Loc::new("x")), Val::Int(0));
        assert_eq!(t.init_of(&Loc::new("unknown")), Val::Int(0));
    }

    #[test]
    fn width_bytes() {
        assert_eq!(Width::W8.bytes(), 1);
        assert_eq!(Width::W128.bytes(), 16);
        assert_eq!(Width::default(), Width::W64);
    }
}
