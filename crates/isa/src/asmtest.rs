//! Assembly litmus tests: typed per-architecture thread bodies plus the
//! litmus skeleton (init state, condition, observed keys).
//!
//! This is the `C` of the paper's `test_tv`: the compiled program in litmus
//! form, simulated under the architecture model. [`AsmTest::to_litmus`]
//! lowers the typed instructions to the unified IR so the one enumerator in
//! `telechat-exec` handles every architecture.

use crate::{aarch64, armv7, mips, ppc, riscv, x86};
use std::fmt;
use telechat_common::{Arch, Reg, Result, StateKey, ThreadId, Val};
use telechat_litmus::{Condition, Instr, LitmusTest, LocDecl};

/// A typed thread body for one of the six architectures.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum AsmCode {
    /// AArch64 instructions.
    A64(Vec<aarch64::A64Instr>),
    /// Armv7 instructions.
    Armv7(Vec<armv7::ArmInstr>),
    /// x86-64 instructions.
    X86(Vec<x86::X86Instr>),
    /// RISC-V instructions.
    RiscV(Vec<riscv::RvInstr>),
    /// PowerPC instructions.
    Ppc(Vec<ppc::PpcInstr>),
    /// MIPS instructions.
    Mips(Vec<mips::MipsInstr>),
}

impl AsmCode {
    /// The architecture of this code.
    pub fn arch(&self) -> Arch {
        match self {
            AsmCode::A64(_) => Arch::AArch64,
            AsmCode::Armv7(_) => Arch::Armv7,
            AsmCode::X86(_) => Arch::X86_64,
            AsmCode::RiscV(_) => Arch::RiscV,
            AsmCode::Ppc(_) => Arch::Ppc,
            AsmCode::Mips(_) => Arch::Mips,
        }
    }

    /// Number of instructions (the "lines of compiled code" of Table III).
    pub fn len(&self) -> usize {
        match self {
            AsmCode::A64(v) => v.len(),
            AsmCode::Armv7(v) => v.len(),
            AsmCode::X86(v) => v.len(),
            AsmCode::RiscV(v) => v.len(),
            AsmCode::Ppc(v) => v.len(),
            AsmCode::Mips(v) => v.len(),
        }
    }

    /// True if the body is empty.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Lowers the body to unified IR.
    ///
    /// # Errors
    ///
    /// Propagates lowering failures (unresolved addresses, unsupported
    /// instruction forms).
    pub fn lower(&self) -> Result<Vec<Instr>> {
        match self {
            AsmCode::A64(v) => aarch64::lower(v),
            AsmCode::Armv7(v) => armv7::lower(v),
            AsmCode::X86(v) => x86::lower(v),
            AsmCode::RiscV(v) => riscv::lower(v),
            AsmCode::Ppc(v) => ppc::lower(v),
            AsmCode::Mips(v) => mips::lower(v),
        }
    }

    /// The instruction texts, one per line.
    pub fn lines(&self) -> Vec<String> {
        match self {
            AsmCode::A64(v) => v.iter().map(|i| i.to_string()).collect(),
            AsmCode::Armv7(v) => v.iter().map(|i| i.to_string()).collect(),
            AsmCode::X86(v) => v.iter().map(|i| i.to_string()).collect(),
            AsmCode::RiscV(v) => v.iter().map(|i| i.to_string()).collect(),
            AsmCode::Ppc(v) => v.iter().map(|i| i.to_string()).collect(),
            AsmCode::Mips(v) => v.iter().map(|i| i.to_string()).collect(),
        }
    }
}

/// An assembly litmus test (paper Fig. 6's `C`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct AsmTest {
    /// Test name (conventionally derived from the source test and the
    /// compiler profile, e.g. `3.LB004_examples_int_C_tests`).
    pub name: String,
    /// Shared-location declarations, including any literal-pool/GOT/TOC
    /// slots the unoptimised form references.
    pub locs: Vec<LocDecl>,
    /// Initial register values — the `0:X1=x` assignments the `s2l`
    /// optimiser introduces when it removes address-materialisation code.
    pub reg_init: Vec<(ThreadId, Reg, Val)>,
    /// One typed body per thread (all the same architecture).
    pub threads: Vec<AsmCode>,
    /// Final-state condition (in terms of target registers/locations).
    pub condition: Condition,
    /// Extra observed keys.
    pub observed: Vec<StateKey>,
}

impl AsmTest {
    /// The test's architecture (from the first thread).
    ///
    /// # Panics
    ///
    /// Panics if the test has no threads (construction-site invariant).
    pub fn arch(&self) -> Arch {
        self.threads.first().expect("asm test has threads").arch()
    }

    /// Total instruction count.
    pub fn loc_count(&self) -> usize {
        self.threads.iter().map(AsmCode::len).sum()
    }

    /// The stable content fingerprint of this assembly test: the
    /// assembly-level counterpart of `LitmusTest::fingerprint` — a 128-bit
    /// hash over every semantically relevant field (architecture, location
    /// declarations with width/`const`/atomicity, register initialisation,
    /// instruction text, condition, sorted observed keys) and *not* the
    /// profile-carrying name, so extractions that emit identical code get
    /// identical fingerprints. The campaign cache itself keys target legs
    /// on the *lowered* litmus test's fingerprint (the object `simulate`
    /// consumes); this is the same identity one layer up, for asm-level
    /// dedup and logging. The skeleton/condition rendering is shared with
    /// `telechat_litmus::fingerprint` so the two layers cannot drift.
    pub fn fingerprint(&self) -> u128 {
        use std::fmt::Write as _;
        use telechat_litmus::fingerprint as fp;
        let mut s = String::new();
        fp::write_skeleton(&mut s, self.arch(), &self.locs, &self.reg_init);
        for (tid, code) in self.threads.iter().enumerate() {
            let _ = write!(s, "P{tid}{{");
            for line in code.lines() {
                let _ = write!(s, "{line};");
            }
            let _ = write!(s, "}}");
        }
        fp::write_condition(&mut s, &self.condition, &self.observed);
        fp::fingerprint128(s.as_bytes())
    }

    /// Lowers to a unified-IR litmus test simulable by `telechat-exec`.
    ///
    /// # Errors
    ///
    /// Propagates lowering failures and litmus validation errors.
    pub fn to_litmus(&self) -> Result<LitmusTest> {
        let arch = self.arch();
        let mut threads = Vec::with_capacity(self.threads.len());
        for t in &self.threads {
            threads.push(t.lower()?);
        }
        let test = LitmusTest {
            name: self.name.clone(),
            arch,
            locs: self.locs.clone(),
            reg_init: self.reg_init.clone(),
            threads,
            condition: self.condition.clone(),
            observed: self.observed.clone(),
        };
        test.validate()?;
        Ok(test)
    }
}

impl AsmTest {
    /// Renders the test as [`fmt::Display`] does, but under `name` rather
    /// than its own: a test shared by several work items prints each
    /// item's name without being copied.
    pub fn fmt_named(&self, name: &str, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "{} \"{}\"", self.arch(), name)?;
        write!(f, "{{ ")?;
        for d in &self.locs {
            let ro = if d.readonly { "const " } else { "" };
            write!(f, "{ro}{}={}; ", d.loc, d.init)?;
        }
        for (t, r, v) in &self.reg_init {
            write!(f, "{}:{}={}; ", t.0, r, v)?;
        }
        writeln!(f, "}}")?;
        for (tid, code) in self.threads.iter().enumerate() {
            writeln!(f, "P{tid}:")?;
            for line in code.lines() {
                writeln!(f, "  {line}")?;
            }
        }
        write!(f, "{}", self.condition)
    }
}

impl fmt::Display for AsmTest {
    /// Renders in the classic assembly-litmus layout.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.fmt_named(&self.name, f)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::aarch64::A64Instr;
    use telechat_common::Loc;
    use telechat_litmus::Prop;

    /// The optimised compiled LB test: registers pre-initialised with
    /// addresses (the s2l rewrite), plain LDR/STR bodies.
    fn lb_a64() -> AsmTest {
        let thread = |load_loc: &str, store_loc: &str| {
            let _ = (load_loc, store_loc);
            AsmCode::A64(vec![
                A64Instr::Ldr {
                    dst: "w0".into(),
                    base: "x1".into(),
                },
                A64Instr::MovImm {
                    dst: "w2".into(),
                    imm: 1,
                },
                A64Instr::Str {
                    src: "w2".into(),
                    base: "x3".into(),
                },
            ])
        };
        AsmTest {
            name: "LB-a64".into(),
            locs: vec![LocDecl::atomic("x", 0), LocDecl::atomic("y", 0)],
            reg_init: vec![
                (ThreadId(0), Reg::new("X1"), Val::Addr(Loc::new("x"))),
                (ThreadId(0), Reg::new("X3"), Val::Addr(Loc::new("y"))),
                (ThreadId(1), Reg::new("X1"), Val::Addr(Loc::new("y"))),
                (ThreadId(1), Reg::new("X3"), Val::Addr(Loc::new("x"))),
            ],
            threads: vec![thread("x", "y"), thread("y", "x")],
            condition: Condition::exists(
                Prop::atom(StateKey::reg(ThreadId(0), "X0"), 1i64)
                    .and(Prop::atom(StateKey::reg(ThreadId(1), "X0"), 1i64)),
            ),
            observed: vec![],
        }
    }

    #[test]
    fn lowers_and_validates() {
        let t = lb_a64();
        assert_eq!(t.arch(), Arch::AArch64);
        assert_eq!(t.loc_count(), 6);
        let litmus = t.to_litmus().unwrap();
        assert_eq!(litmus.threads.len(), 2);
        assert_eq!(litmus.arch, Arch::AArch64);
    }

    #[test]
    fn aarch64_allows_lb_after_compilation() {
        // The compiled LB test exhibits the weak outcome under the AArch64
        // model — the heart of the paper's Fig. 7/8 finding.
        use telechat_cat_for_tests::bundled;
        let litmus = lb_a64().to_litmus().unwrap();
        let r = telechat_exec::simulate(
            &litmus,
            &bundled("aarch64"),
            &telechat_exec::SimConfig::default(),
        )
        .unwrap();
        assert!(
            litmus.condition.holds(&r.outcomes),
            "AArch64 allows LB: {}",
            r.outcomes
        );
    }

    /// Tiny shim so the dev-dependency on the cat crate stays test-only.
    mod telechat_cat_for_tests {
        pub fn bundled(name: &str) -> telechat_cat::CatModel {
            telechat_cat::CatModel::bundled(name).unwrap()
        }
    }

    #[test]
    fn fingerprint_ignores_name_but_not_code() {
        let a = lb_a64();
        let mut renamed = a.clone();
        renamed.name = "clang-11-O3-AArch64.LB".into();
        assert_eq!(a.fingerprint(), renamed.fingerprint());

        let mut changed = a.clone();
        match &mut changed.threads[0] {
            AsmCode::A64(v) => v.pop(),
            _ => unreachable!(),
        };
        assert_ne!(a.fingerprint(), changed.fingerprint());
    }

    #[test]
    fn display_renders_litmus_layout() {
        let text = lb_a64().to_string();
        assert!(text.contains("AArch64 \"LB-a64\""));
        assert!(text.contains("0:X1=&x"));
        assert!(text.contains("ldr w0, [x1]"));
        assert!(text.contains("exists"));
    }
}
