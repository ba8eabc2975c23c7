//! The compiler driver: front end → middle-end passes → instruction
//! selection → object emission (the `comp` of the paper's `comp(S)`).
//!
//! A [`Compiler`] profile names a compiler, level and target; code
//! generation itself is a function of the [`Codegen`] the profile selects.
//! Many profiles select the same one (`-O2`/`-O3`/`-Ofast` run the same
//! passes, and off AArch64 the compiler version changes nothing), so a
//! caller that compiles one test under many profiles can compile it once
//! per distinct [`Codegen`].

use crate::backend::{self, emit_thread, Emitter};
use crate::passes;
use crate::target::Target;
use crate::version::{BugId, BugSet, CompilerId, OptLevel};
use telechat_common::{Arch, Error, Reg, Result, ThreadId};
use telechat_isa::AsmCode;
use telechat_litmus::{Instr, LitmusTest};
use telechat_objfile::ObjectFile;

/// A compiler under test: identity, optimisation level and target.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Compiler {
    /// Compiler identity (family and version — selects the bug knobs).
    pub id: CompilerId,
    /// Optimisation level.
    pub opt: OptLevel,
    /// Compilation target.
    pub target: Target,
}

/// Everything that reaches the compiled object and register map, as
/// [`Compiler::codegen`] selects it: the target, the `-O0` frame slot,
/// dead-local elimination, the Armv7 dependency pass and the AArch64 bug
/// set. Two profiles with equal `Codegen`s compile every test to the same
/// output, since [`Codegen::compile`] reads nothing else.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Codegen {
    target: Target,
    /// `-O0`: every value is spilled to a per-thread stack frame slot.
    frame_slot: bool,
    dead_local_elim: bool,
    /// [`CtrlDeps::Keep`] off Armv7.
    ctrl_deps: CtrlDeps,
    /// The bugs the AArch64 back end consults; empty on other targets.
    bugs: BugSet,
}

/// What the middle end does to a same-store branch diamond.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
enum CtrlDeps {
    /// Leave the control dependency alone.
    Keep,
    /// GCC `-O1` if-conversion: [`passes::ctrl_dep_same_store_elim`].
    SameStoreElim,
    /// Higher levels: [`passes::ctrl_to_data_dep`].
    ToData,
}

/// The result of compiling a litmus test: a relocatable, linked object plus
/// the metadata the `s2l`/`mcompare` stages need.
#[derive(Debug, Clone)]
pub struct CompileOutput {
    /// The linked mini-object.
    pub object: ObjectFile,
    /// Source IR register → physical register, per thread (the register
    /// half of the paper's state mappings `m`).
    pub reg_map: Vec<(ThreadId, Reg, Reg)>,
    /// Profile string, e.g. `clang-11-O3-AArch64` (paper §IV-D profiles).
    /// Empty from [`Codegen::compile`], which serves many profiles.
    pub profile: String,
}

impl Compiler {
    /// A compiler instance.
    pub fn new(id: CompilerId, opt: OptLevel, target: Target) -> Compiler {
        Compiler { id, opt, target }
    }

    /// The profile identifier used in logs and output paths.
    pub fn profile_name(&self) -> String {
        format!(
            "{}{}-{}",
            self.id,
            self.opt,
            self.target.arch.profile_name()
        )
    }

    /// The code-generation configuration this profile selects.
    pub fn codegen(&self) -> Codegen {
        let arch = self.target.arch;
        let ctrl_deps = if arch != Arch::Armv7 {
            CtrlDeps::Keep
        } else if self.opt == OptLevel::O1 && self.id.has_bug(BugId::CtrlDepElimO1) {
            // GCC -O1 if-conversion: the control dependency vanishes
            // (the gcc-armv7 +ve gap of Table IV).
            CtrlDeps::SameStoreElim
        } else if self.opt.eliminates_dead_locals() {
            // Higher levels rewrite the same shape to a *data*
            // dependency, masking the reordering.
            CtrlDeps::ToData
        } else {
            CtrlDeps::Keep
        };
        Codegen {
            target: self.target,
            frame_slot: self.opt == OptLevel::O0,
            dead_local_elim: self.opt.eliminates_dead_locals(),
            ctrl_deps,
            bugs: if arch == Arch::AArch64 {
                BugSet::of(self.id, &BugId::A64)
            } else {
                BugSet::default()
            },
        }
    }

    /// The checks [`Compiler::compile`] makes before generating code:
    /// the [`Codegen`] to compile `test` with.
    ///
    /// # Errors
    ///
    /// [`Error::Unsupported`] for non-C11 inputs and `-Og` under clang.
    pub fn check(&self, test: &LitmusTest) -> Result<Codegen> {
        if test.arch != Arch::C11 {
            return Err(Error::Unsupported(format!(
                "compiler input must be C11, got {}",
                test.arch
            )));
        }
        if !self.opt.supported_by(self.id.family) {
            return Err(Error::Unsupported(format!(
                "{} does not support {}",
                self.id, self.opt
            )));
        }
        Ok(self.codegen())
    }

    /// Compiles a C11 litmus test to a linked object.
    ///
    /// # Errors
    ///
    /// * [`Error::Unsupported`] for non-C11 inputs, `-Og` under clang, or
    ///   constructs a back end cannot express;
    /// * [`Error::InternalCompilerError`] on register exhaustion.
    pub fn compile(&self, test: &LitmusTest) -> Result<CompileOutput> {
        let mut out = self.check(test)?.compile(test)?;
        out.profile = self.profile_name();
        Ok(out)
    }
}

impl Codegen {
    /// Compiles a C11 litmus test to a linked object, with an empty
    /// `profile`.
    ///
    /// # Errors
    ///
    /// * [`Error::Unsupported`] for constructs a back end cannot express;
    /// * [`Error::InternalCompilerError`] on register exhaustion.
    pub fn compile(&self, test: &LitmusTest) -> Result<CompileOutput> {
        let mut object = ObjectFile::new(self.target.arch);
        for d in &test.locs {
            object.add_data(d.loc.as_str(), d.init.clone(), d.width, d.readonly);
        }
        if self.target.pic {
            if let Some(prefix) = pointer_slot_prefix(self.target.arch) {
                for d in &test.locs {
                    object.add_pointer_slot(prefix, d.loc.as_str());
                }
            }
        }

        let mut reg_map = Vec::new();
        for (tindex, body) in test.threads.iter().enumerate() {
            let tid = ThreadId(tindex as u8);
            // -O0: every value is spilled to the thread's stack frame,
            // modelled as one location (see backend::emit_thread).
            let frame = self.frame_slot.then(|| {
                let name = format!("P{tindex}.frame");
                object.add_data(
                    &name,
                    telechat_common::Val::Int(0),
                    telechat_litmus::Width::W64,
                    false,
                );
                telechat_common::Loc::new(name)
            });
            let body = self.middle_end(body.clone());
            let (code, assignments) = self.select(test, &body, frame.as_ref())?;
            for (src, phys) in assignments {
                reg_map.push((tid, src, phys));
            }
            object.add_function(&format!("P{tindex}"), code);
        }
        object.link();

        Ok(CompileOutput {
            object,
            reg_map,
            profile: String::new(),
        })
    }

    /// The middle-end pass pipeline.
    fn middle_end(&self, mut body: Vec<Instr>) -> Vec<Instr> {
        if self.dead_local_elim {
            passes::dead_local_elim(&mut body);
        }
        match self.ctrl_deps {
            CtrlDeps::Keep => false,
            CtrlDeps::SameStoreElim => passes::ctrl_dep_same_store_elim(&mut body),
            CtrlDeps::ToData => passes::ctrl_to_data_dep(&mut body),
        };
        body
    }

    fn select(
        &self,
        test: &LitmusTest,
        body: &[Instr],
        frame: Option<&telechat_common::Loc>,
    ) -> Result<(AsmCode, Vec<(Reg, Reg)>)> {
        let pic = self.target.pic;
        match self.target.arch {
            Arch::AArch64 => {
                let mut e = backend::a64::A64Emitter::new(self.bugs, self.target);
                let cx = emit_thread(&mut e, test, body, pic, frame)?;
                let map = collect_map(&e, &cx);
                Ok((AsmCode::A64(e.code), map))
            }
            Arch::Armv7 => {
                let mut e = backend::armv7::ArmEmitter::new();
                let cx = emit_thread(&mut e, test, body, pic, frame)?;
                let map = collect_map(&e, &cx);
                Ok((AsmCode::Armv7(e.code), map))
            }
            Arch::X86_64 => {
                let mut e = backend::x86::X86Emitter::new();
                let cx = emit_thread(&mut e, test, body, pic, frame)?;
                let map = collect_map(&e, &cx);
                Ok((AsmCode::X86(e.code), map))
            }
            Arch::RiscV => {
                let mut e = backend::riscv::RvEmitter::new();
                let cx = emit_thread(&mut e, test, body, pic, frame)?;
                let map = collect_map(&e, &cx);
                Ok((AsmCode::RiscV(e.code), map))
            }
            Arch::Ppc => {
                let mut e = backend::ppc::PpcEmitter::new();
                let cx = emit_thread(&mut e, test, body, pic, frame)?;
                let map = collect_map(&e, &cx);
                Ok((AsmCode::Ppc(e.code), map))
            }
            Arch::Mips => {
                let mut e = backend::mips::MipsEmitter::new();
                let cx = emit_thread(&mut e, test, body, pic, frame)?;
                let map = collect_map(&e, &cx);
                Ok((AsmCode::Mips(e.code), map))
            }
            Arch::C11 => Err(Error::Unsupported("cannot target C11".into())),
        }
    }
}

fn pointer_slot_prefix(arch: Arch) -> Option<&'static str> {
    match arch {
        Arch::AArch64 | Arch::RiscV | Arch::Mips => Some("got"),
        Arch::Ppc => Some("toc"),
        Arch::Armv7 => Some("lit"),
        Arch::X86_64 | Arch::C11 => None,
    }
}

fn collect_map<E: Emitter>(e: &E, cx: &backend::ThreadCtx) -> Vec<(Reg, Reg)> {
    cx.assignments()
        .map(|(src, phys)| (src.clone(), e.norm(phys)))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use telechat_isa::aarch64::A64Instr;
    use telechat_litmus::parse_c11;

    const MP_FETCH_ADD: &str = r#"
C11 "MP+fetch_add"
{ x = 0; y = 0; }
P0 (atomic_int* x, atomic_int* y) {
  atomic_store_explicit(x, 1, memory_order_relaxed);
  atomic_thread_fence(memory_order_release);
  atomic_store_explicit(y, 1, memory_order_relaxed);
}
P1 (atomic_int* x, atomic_int* y) {
  atomic_fetch_add_explicit(y, 1, memory_order_relaxed);
  atomic_thread_fence(memory_order_acquire);
  int r0 = atomic_load_explicit(x, memory_order_relaxed);
}
exists (P1:r0=0 /\ y=2)
"#;

    fn a64_code(out: &CompileOutput, func: usize) -> &[A64Instr] {
        match &out.object.functions[func].code {
            telechat_isa::AsmCode::A64(v) => v,
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn buggy_llvm_zeroes_the_ldadd_destination() {
        let test = parse_c11(MP_FETCH_ADD).unwrap();
        let c = Compiler::new(CompilerId::llvm(11), OptLevel::O2, Target::armv81_lse());
        let out = c.compile(&test).unwrap();
        let p1 = a64_code(&out, 1);
        assert!(
            p1.iter().any(|i| matches!(
                i,
                A64Instr::Ldadd { dst, .. } if dst == "wzr"
            )),
            "llvm-11 + LSE: LDADD with zero destination (Fig. 10 bug): {p1:?}"
        );
    }

    #[test]
    fn ancient_compiler_selects_stadd() {
        let test = parse_c11(MP_FETCH_ADD).unwrap();
        let c = Compiler::new(CompilerId::llvm(9), OptLevel::O2, Target::armv81_lse());
        let out = c.compile(&test).unwrap();
        let p1 = a64_code(&out, 1);
        assert!(
            p1.iter().any(|i| matches!(i, A64Instr::Stadd { .. })),
            "llvm-9: STADD selected outright: {p1:?}"
        );
    }

    #[test]
    fn fixed_compiler_keeps_a_live_destination() {
        let test = parse_c11(MP_FETCH_ADD).unwrap();
        let c = Compiler::new(CompilerId::llvm(17), OptLevel::O2, Target::armv81_lse());
        let out = c.compile(&test).unwrap();
        let p1 = a64_code(&out, 1);
        let ldadd = p1
            .iter()
            .find_map(|i| match i {
                A64Instr::Ldadd { dst, .. } => Some(dst.clone()),
                _ => None,
            })
            .expect("LDADD emitted");
        assert_ne!(ldadd, "wzr", "fixed compilers keep the read: {p1:?}");
    }

    #[test]
    fn pre_lse_uses_exclusive_loop() {
        let test = parse_c11(MP_FETCH_ADD).unwrap();
        let c = Compiler::new(
            CompilerId::llvm(11),
            OptLevel::O2,
            Target::new(Arch::AArch64),
        );
        let out = c.compile(&test).unwrap();
        let p1 = a64_code(&out, 1);
        assert!(p1.iter().any(|i| matches!(i, A64Instr::Ldxr { .. })));
        assert!(p1.iter().any(|i| matches!(i, A64Instr::Stxr { .. })));
        assert!(
            !p1.iter().any(|i| matches!(i, A64Instr::Ldadd { .. })),
            "no LSE instructions without the extension"
        );
    }

    #[test]
    fn compiles_to_every_architecture() {
        let test = parse_c11(MP_FETCH_ADD).unwrap();
        for arch in Arch::TARGETS {
            let c = Compiler::new(CompilerId::gcc(10), OptLevel::O2, Target::new(arch));
            let out = c
                .compile(&test)
                .unwrap_or_else(|e| panic!("{arch}: {e}"));
            assert_eq!(out.object.functions.len(), 2);
            assert!(out.object.is_linked());
        }
    }

    #[test]
    fn clang_rejects_og() {
        let test = parse_c11(MP_FETCH_ADD).unwrap();
        let c = Compiler::new(
            CompilerId::llvm(11),
            OptLevel::Og,
            Target::new(Arch::AArch64),
        );
        assert!(matches!(c.compile(&test), Err(Error::Unsupported(_))));
    }

    #[test]
    fn pic_objects_declare_pointer_slots() {
        let test = parse_c11(MP_FETCH_ADD).unwrap();
        let c = Compiler::new(CompilerId::gcc(10), OptLevel::O2, Target::new(Arch::Ppc));
        let out = c.compile(&test).unwrap();
        assert!(out.object.symbol("toc.x").is_some());
        assert!(out.object.symbol("toc.y").is_some());
        // x86 needs no slots.
        let c = Compiler::new(CompilerId::gcc(10), OptLevel::O2, Target::new(Arch::X86_64));
        let out = c.compile(&test).unwrap();
        assert!(out.object.symbol("got.x").is_none());
    }

    #[test]
    fn dead_local_elim_only_at_o2_and_above() {
        let lb_unused = r#"
C11 "LB-unused"
{ x = 0; y = 0; }
P0 (atomic_int* x, atomic_int* y) {
  int r0 = atomic_load_explicit(x, memory_order_relaxed);
  atomic_store_explicit(y, 1, memory_order_relaxed);
}
exists (P0:r0=1)
"#;
        let test = parse_c11(lb_unused).unwrap();
        let o1 = Compiler::new(
            CompilerId::llvm(17),
            OptLevel::O1,
            Target::new(Arch::AArch64),
        )
        .compile(&test)
        .unwrap();
        let o2 = Compiler::new(
            CompilerId::llvm(17),
            OptLevel::O2,
            Target::new(Arch::AArch64),
        )
        .compile(&test)
        .unwrap();
        let loads = |out: &CompileOutput| {
            a64_code(out, 0)
                .iter()
                .filter(|i| matches!(i, A64Instr::Ldr { .. }))
                .count()
        };
        // O1 keeps the unused load; O2 deletes it (and its GOT address
        // computation goes with it): the Fig. 9 deletion.
        assert!(loads(&o1) > loads(&o2), "O1={} O2={}", loads(&o1), loads(&o2));
    }

    #[test]
    fn reg_map_covers_source_registers() {
        let test = parse_c11(MP_FETCH_ADD).unwrap();
        let c = Compiler::new(CompilerId::llvm(17), OptLevel::O1, Target::armv81_lse());
        let out = c.compile(&test).unwrap();
        assert!(
            out.reg_map
                .iter()
                .any(|(t, s, _)| *t == ThreadId(1) && s.name() == "r0"),
            "{:?}",
            out.reg_map
        );
    }

    #[test]
    fn table_iv_profiles_share_fifteen_codegens() {
        let mut profiles = Vec::new();
        for arch in Arch::TARGETS {
            for id in [CompilerId::llvm(11), CompilerId::gcc(10)] {
                for opt in OptLevel::CAMPAIGN {
                    if opt.supported_by(id.family) {
                        profiles.push(Compiler::new(id, opt, Target::new(arch)));
                    }
                }
            }
        }
        assert_eq!(profiles.len(), 54);
        let distinct: std::collections::HashSet<Codegen> =
            profiles.iter().map(Compiler::codegen).collect();
        // Per target: -O1 (= -Og), and -O2 = -O3 = -Ofast. Armv7 splits
        // -O1 by family (GCC's if-conversion); AArch64 splits everything
        // by family (the versioned bug knobs).
        assert_eq!(distinct.len(), 15, "{distinct:#?}");
    }

    #[test]
    fn compile_is_codegen_compile_stamped_with_the_profile() {
        let test = parse_c11(MP_FETCH_ADD).unwrap();
        let c = Compiler::new(CompilerId::llvm(11), OptLevel::O2, Target::armv81_lse());
        let via_profile = c.compile(&test).unwrap();
        let via_codegen = c.codegen().compile(&test).unwrap();
        assert_eq!(via_profile.object, via_codegen.object);
        assert_eq!(via_profile.reg_map, via_codegen.reg_map);
        assert_eq!(via_profile.profile, c.profile_name());
        assert_eq!(via_codegen.profile, "");
    }

    #[test]
    fn profile_names() {
        let c = Compiler::new(CompilerId::llvm(11), OptLevel::O3, Target::new(Arch::AArch64));
        assert_eq!(c.profile_name(), "clang-11-O3-AArch64");
    }
}
