//! The AArch64 back end — the flagship target, carrying every versioned
//! bug path of the paper's §IV-B/§IV-C studies.

use super::{AccessWidth, CondShape, Emitter, Ord11};
use crate::target::Target;
use crate::version::{BugId, BugSet};
use telechat_common::{Error, Loc, Reg, Result};
use telechat_isa::aarch64::{norm_reg, A64Instr, DmbKind};
use telechat_isa::{RmwOrd, SymRef, PAIR_SHIFT};
use telechat_litmus::{BinOp, RmwOp};

/// Emits AArch64 code for one thread.
pub struct A64Emitter {
    /// The emitted instructions.
    pub code: Vec<A64Instr>,
    bugs: BugSet,
    target: Target,
    labels: usize,
}

impl A64Emitter {
    /// A fresh emitter for a compiler carrying `bugs`, and a target.
    pub fn new(bugs: BugSet, target: Target) -> A64Emitter {
        A64Emitter {
            code: Vec::new(),
            bugs,
            target,
            labels: 0,
        }
    }

    fn fresh_label(&mut self, stem: &str) -> String {
        self.labels += 1;
        format!(".L{stem}{}", self.labels)
    }

    fn dmb(&mut self, k: DmbKind) {
        self.code.push(A64Instr::Dmb(k));
    }

    fn rmw_ord(ord: Ord11) -> RmwOrd {
        match ord {
            Ord11::Na | Ord11::Rlx => RmwOrd::Rlx,
            Ord11::Acq => RmwOrd::Acq,
            Ord11::Rel => RmwOrd::Rel,
            Ord11::AcqRel | Ord11::Sc => RmwOrd::AcqRel,
        }
    }

    /// The exclusive-loop fallback for pre-LSE targets (and the structure
    /// CAS-based RMWs always had). Reads always live in a destination
    /// register here, so the §IV-B bugs cannot occur on this path —
    /// matching the paper ("past versions … induce this bug when targeting
    /// Armv8.1-a with the Large-Systems Extension").
    #[allow(clippy::too_many_arguments)]
    fn excl_loop(
        &mut self,
        op: &RmwOp,
        dst: Option<&str>,
        operand: &str,
        expected: Option<&str>,
        addr: &str,
        ord: Ord11,
        fresh: &mut dyn FnMut() -> Result<String>,
    ) -> Result<()> {
        let retry = self.fresh_label("retry");
        let done = self.fresh_label("done");
        let old = fresh()?;
        let status = fresh()?;
        self.code.push(A64Instr::Label(retry.clone()));
        let acq = matches!(ord, Ord11::Acq | Ord11::AcqRel | Ord11::Sc);
        let rel = matches!(ord, Ord11::Rel | Ord11::AcqRel | Ord11::Sc);
        self.code.push(if acq {
            A64Instr::Ldaxr {
                dst: old.clone(),
                base: x(addr),
            }
        } else {
            A64Instr::Ldxr {
                dst: old.clone(),
                base: x(addr),
            }
        });
        let new: String = match op {
            RmwOp::FetchAdd => {
                let n = fresh()?;
                self.code.push(A64Instr::AddReg {
                    dst: n.clone(),
                    a: old.clone(),
                    b: operand.to_string(),
                });
                n
            }
            RmwOp::Swap => operand.to_string(),
            RmwOp::CmpXchg { .. } => {
                let e = expected.ok_or_else(|| {
                    Error::InternalCompilerError("CAS without expected value".into())
                })?;
                self.code.push(A64Instr::CmpReg {
                    a: old.clone(),
                    b: e.to_string(),
                });
                self.code.push(A64Instr::Bne(done.clone()));
                operand.to_string()
            }
            other => {
                return Err(Error::Unsupported(format!(
                    "aarch64 exclusive loop for {other:?}"
                )))
            }
        };
        self.code.push(if rel {
            A64Instr::Stlxr {
                status: status.clone(),
                src: new,
                base: x(addr),
            }
        } else {
            A64Instr::Stxr {
                status: status.clone(),
                src: new,
                base: x(addr),
            }
        });
        self.code.push(A64Instr::Cbnz {
            src: status,
            label: retry,
        });
        self.code.push(A64Instr::Label(done));
        if let Some(d) = dst {
            self.code.push(A64Instr::MovReg {
                dst: d.to_string(),
                src: old,
            });
        }
        Ok(())
    }

    /// Emits the LDXP/STXP loop that implements a 128-bit atomic load on
    /// targets without LSE2 — and, crucially, *stores back* what it read,
    /// which crashes on `const` (read-only) data: bug [36].
    fn pair_load_loop(&mut self, dst: &str, addr: &str, ord: Ord11,
        fresh: &mut dyn FnMut() -> Result<String>) -> Result<()> {
        let retry = self.fresh_label("qretry");
        let hi = fresh()?;
        let status = fresh()?;
        self.code.push(A64Instr::Label(retry.clone()));
        self.code.push(A64Instr::Ldxp {
            dst1: x(dst),
            dst2: x(&hi),
            base: x(addr),
        });
        self.code.push(A64Instr::Stlxp {
            status: status.clone(),
            src1: x(dst),
            src2: x(&hi),
            base: x(addr),
        });
        self.code.push(A64Instr::Cbnz {
            src: status,
            label: retry,
        });
        if matches!(ord, Ord11::Acq | Ord11::Sc) {
            self.dmb(DmbKind::Ish);
        }
        Ok(())
    }
}

/// The x-register view of a pool name (`w5` → `x5`).
fn x(name: &str) -> String {
    name.replacen('w', "x", 1)
}

const POOL: &[&str] = &[
    "w0", "w1", "w2", "w3", "w4", "w5", "w6", "w7", "w8", "w9", "w10", "w11", "w12", "w13",
    "w14", "w15", "w16", "w17", "w19", "w20", "w21", "w22", "w23", "w24", "w25", "w26",
];

impl Emitter for A64Emitter {
    fn pool(&self) -> &'static [&'static str] {
        POOL
    }

    fn norm(&self, phys: &str) -> Reg {
        norm_reg(phys)
    }

    fn label(&mut self, l: &str) {
        self.code.push(A64Instr::Label(l.to_string()));
    }

    fn jump(&mut self, l: &str) {
        self.code.push(A64Instr::B(l.to_string()));
    }

    fn branch(&mut self, shape: &CondShape, target: &str) -> Result<()> {
        match shape {
            CondShape::RegZero { reg, eq } => self.code.push(if *eq {
                A64Instr::Cbz {
                    src: reg.clone(),
                    label: target.to_string(),
                }
            } else {
                A64Instr::Cbnz {
                    src: reg.clone(),
                    label: target.to_string(),
                }
            }),
            CondShape::CmpImm { reg, imm, eq } => {
                self.code.push(A64Instr::CmpImm {
                    a: reg.clone(),
                    imm: *imm,
                });
                self.code.push(if *eq {
                    A64Instr::Beq(target.to_string())
                } else {
                    A64Instr::Bne(target.to_string())
                });
            }
            CondShape::CmpReg { a, b, eq } => {
                self.code.push(A64Instr::CmpReg {
                    a: a.clone(),
                    b: b.clone(),
                });
                self.code.push(if *eq {
                    A64Instr::Beq(target.to_string())
                } else {
                    A64Instr::Bne(target.to_string())
                });
            }
        }
        Ok(())
    }

    fn mov_imm(&mut self, dst: &str, imm: i64) {
        self.code.push(A64Instr::MovImm {
            dst: dst.to_string(),
            imm,
        });
    }

    fn mov_reg(&mut self, dst: &str, src: &str) {
        self.code.push(A64Instr::MovReg {
            dst: dst.to_string(),
            src: src.to_string(),
        });
    }

    fn bin_op(&mut self, op: BinOp, dst: &str, a: &str, b: &str) -> Result<()> {
        match op {
            BinOp::Xor => self.code.push(A64Instr::Eor {
                dst: dst.to_string(),
                a: a.to_string(),
                b: b.to_string(),
            }),
            BinOp::Add => self.code.push(A64Instr::AddReg {
                dst: dst.to_string(),
                a: a.to_string(),
                b: b.to_string(),
            }),
            other => {
                return Err(Error::Unsupported(format!(
                    "aarch64 ALU operation `{other}`"
                )))
            }
        }
        Ok(())
    }

    fn addr_of(&mut self, dst: &str, sym: &Loc, pic: bool) {
        let d = x(dst);
        if pic {
            // ADRP to the GOT page, then a *load* of the GOT slot — the
            // 2-instruction, 1-memory-event sequence §IV-E's explosion
            // analysis counts ("ADRP …; LDR; LDR/STR").
            let slot = Loc::new(format!("got.{sym}"));
            self.code.push(A64Instr::Adrp {
                dst: d.clone(),
                sym: SymRef::Sym(slot),
            });
            self.code.push(A64Instr::LdrGot {
                dst: d.clone(),
                base: d,
                sym: SymRef::Sym(sym.clone()),
            });
        } else {
            self.code.push(A64Instr::Adrp {
                dst: d.clone(),
                sym: SymRef::Sym(sym.clone()),
            });
            self.code.push(A64Instr::AddLo12 {
                dst: d.clone(),
                src: d,
                sym: SymRef::Sym(sym.clone()),
            });
        }
    }

    fn load(
        &mut self,
        width: AccessWidth,
        dst: &str,
        addr: &str,
        ord: Ord11,
        readonly: bool,
    ) -> Result<()> {
        if width == AccessWidth::Pair {
            let use_ldp = self.target.ext.lse2 && !self.bugs.contains(BugId::ConstAtomicStp);
            // Pre-fix compilers (or pre-LSE2 targets) go through the
            // exclusive loop, which *writes* — the const-atomic crash.
            if !use_ldp {
                if !self.target.ext.lse2 && !readonly {
                    // Correct but loop-based on old targets.
                }
                let mut mk = {
                    let mut n = 0;
                    move || -> Result<String> {
                        n += 1;
                        Ok(format!("w{}", 26 + n))
                    }
                };
                return self.pair_load_loop(dst, addr, ord, &mut mk);
            }
            // LSE2 LDP path (the [56] fix). Sequentially consistent loads
            // need barriers; the [37] bug omits them.
            let sc_barriers = ord == Ord11::Sc && !self.bugs.contains(BugId::LdpSeqCstNoBarrier);
            if sc_barriers {
                self.dmb(DmbKind::Ish);
            }
            self.code.push(A64Instr::Ldp {
                dst1: x(dst),
                dst2: x(&format!("w{}", 27)),
                base: x(addr),
                single_copy: true,
            });
            if sc_barriers {
                self.dmb(DmbKind::Ish);
            }
            return Ok(());
        }
        let ins = match ord {
            Ord11::Na | Ord11::Rlx | Ord11::Rel => A64Instr::Ldr {
                dst: dst.to_string(),
                base: x(addr),
            },
            Ord11::Acq | Ord11::AcqRel => {
                if self.target.ext.rcpc {
                    // The §IV-F proposal: acquire loads via LDAPR.
                    A64Instr::Ldapr {
                        dst: dst.to_string(),
                        base: x(addr),
                    }
                } else {
                    A64Instr::Ldar {
                        dst: dst.to_string(),
                        base: x(addr),
                    }
                }
            }
            Ord11::Sc => A64Instr::Ldar {
                dst: dst.to_string(),
                base: x(addr),
            },
        };
        self.code.push(ins);
        Ok(())
    }

    fn store(&mut self, width: AccessWidth, src: &str, addr: &str, ord: Ord11) -> Result<()> {
        if width == AccessWidth::Pair {
            // Unpack the composite into a register pair …
            let (lo, hi) = ("w27".to_string(), "w28".to_string());
            self.code.push(A64Instr::AndImm {
                dst: x(&lo),
                src: x(src),
                imm: (1 << PAIR_SHIFT) - 1,
            });
            self.code.push(A64Instr::LsrImm {
                dst: x(&hi),
                src: x(src),
                shift: PAIR_SHIFT,
            });
            // … possibly in the wrong order: bug [39].
            let (s1, s2) = if self.bugs.contains(BugId::StpWrongEndian) {
                (hi, lo)
            } else {
                (lo, hi)
            };
            if self.target.ext.lse2 {
                if matches!(ord, Ord11::Rel | Ord11::AcqRel | Ord11::Sc) {
                    self.dmb(DmbKind::Ish);
                }
                self.code.push(A64Instr::Stp {
                    src1: x(&s1),
                    src2: x(&s2),
                    base: x(addr),
                    single_copy: true,
                });
                if ord == Ord11::Sc {
                    self.dmb(DmbKind::Ish);
                }
            } else {
                let retry = self.fresh_label("spretry");
                self.code.push(A64Instr::Label(retry.clone()));
                self.code.push(A64Instr::Ldxp {
                    dst1: "x29".into(),
                    dst2: "x30".into(),
                    base: x(addr),
                });
                self.code.push(A64Instr::Stlxp {
                    status: "w26".into(),
                    src1: x(&s1),
                    src2: x(&s2),
                    base: x(addr),
                });
                self.code.push(A64Instr::Cbnz {
                    src: "w26".into(),
                    label: retry,
                });
                if ord == Ord11::Sc {
                    self.dmb(DmbKind::Ish);
                }
            }
            return Ok(());
        }
        let ins = match ord {
            Ord11::Na | Ord11::Rlx | Ord11::Acq => A64Instr::Str {
                src: src.to_string(),
                base: x(addr),
            },
            Ord11::Rel | Ord11::AcqRel | Ord11::Sc => A64Instr::Stlr {
                src: src.to_string(),
                base: x(addr),
            },
        };
        self.code.push(ins);
        Ok(())
    }

    fn rmw(
        &mut self,
        op: &RmwOp,
        dst: Option<&str>,
        operand: &str,
        expected: Option<&str>,
        addr: &str,
        ord: Ord11,
        fresh: &mut dyn FnMut() -> Result<String>,
    ) -> Result<()> {
        if !self.target.ext.lse {
            return self.excl_loop(op, dst, operand, expected, addr, ord, fresh);
        }
        let suffix = Self::rmw_ord(ord);
        match op {
            RmwOp::FetchAdd => {
                let dst = match dst {
                    Some(d) => d.to_string(),
                    None => {
                        if self.bugs.contains(BugId::StaddSelect) {
                            // Bug 1 of Fig. 10: STADD selected regardless of
                            // the required ordering.
                            self.code.push(A64Instr::Stadd {
                                src: operand.to_string(),
                                base: x(addr),
                            });
                            return Ok(());
                        } else if self.bugs.contains(BugId::DeadRegZeroAtomics) {
                            // Bug 2 of Fig. 10: the dead-register pass
                            // zeroes the destination; LDADD-to-WZR aliases
                            // STADD and the read becomes invisible to
                            // barriers.
                            "wzr".to_string()
                        } else {
                            // Fixed compilers keep a (dead but live-named)
                            // destination so the read stays ordered.
                            fresh()?
                        }
                    }
                };
                self.code.push(A64Instr::Ldadd {
                    ord: suffix,
                    src: operand.to_string(),
                    dst,
                    base: x(addr),
                });
            }
            RmwOp::Swap => {
                let dst = match dst {
                    Some(d) => d.to_string(),
                    None => {
                        if self.bugs.contains(BugId::ExchangeDeadReg) {
                            // Bug [38] (Fig. 1): SWP destination zeroed;
                            // the exchange's read escapes the acquire fence.
                            "wzr".to_string()
                        } else {
                            fresh()?
                        }
                    }
                };
                self.code.push(A64Instr::Swp {
                    ord: suffix,
                    src: operand.to_string(),
                    dst,
                    base: x(addr),
                });
            }
            RmwOp::CmpXchg { .. } => {
                let e = expected.ok_or_else(|| {
                    Error::InternalCompilerError("CAS without expected".into())
                })?;
                self.code.push(A64Instr::Cas {
                    ord: suffix,
                    expected: e.to_string(),
                    new: operand.to_string(),
                    base: x(addr),
                });
                if let Some(d) = dst {
                    if d != e {
                        self.code.push(A64Instr::MovReg {
                            dst: d.to_string(),
                            src: e.to_string(),
                        });
                    }
                }
            }
            other => return Err(Error::Unsupported(format!("aarch64 LSE for {other:?}"))),
        }
        Ok(())
    }

    fn fence(&mut self, ord: Ord11) -> Result<()> {
        match ord {
            Ord11::Na | Ord11::Rlx => {} // relaxed fences emit nothing
            Ord11::Acq => self.dmb(DmbKind::IshLd),
            Ord11::Rel | Ord11::AcqRel | Ord11::Sc => self.dmb(DmbKind::Ish),
        }
        Ok(())
    }
}
