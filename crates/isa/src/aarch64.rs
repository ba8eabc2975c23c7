//! The AArch64 (Armv8-A, 64-bit) instruction subset.
//!
//! Covers exactly what compiled concurrent litmus tests need: plain and
//! acquire/release accesses, exclusives, LSE atomics (including the
//! write-only `STADD` family and zero-register destinations behind the
//! paper's §IV-B heisenbugs), pairs (`LDP`/`STP` for 128-bit atomics),
//! barriers, address materialisation (`ADRP`+`ADD`, GOT loads) and the
//! control flow of compare-and-swap retry loops.

use crate::operand::{RmwOrd, SymRef, PAIR_SHIFT};
use std::fmt;
use telechat_common::{Annot, AnnotSet, Error, Loc, Reg, Result};
use telechat_litmus::{AddrExpr, BinOp, Expr, Instr, RmwOp};

/// Register name as written (`w0`, `x8`, `xzr`, …).
type R = String;

/// Barrier domain/type of a `DMB`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum DmbKind {
    /// `dmb ish` — full barrier.
    Ish,
    /// `dmb ishld` — load barrier.
    IshLd,
    /// `dmb ishst` — store barrier.
    IshSt,
}

impl DmbKind {
    fn text(self) -> &'static str {
        match self {
            DmbKind::Ish => "ish",
            DmbKind::IshLd => "ishld",
            DmbKind::IshSt => "ishst",
        }
    }

    fn annot(self) -> Annot {
        match self {
            DmbKind::Ish => Annot::DmbIsh,
            DmbKind::IshLd => Annot::DmbIshLd,
            DmbKind::IshSt => Annot::DmbIshSt,
        }
    }
}

/// One AArch64 instruction.
#[derive(Debug, Clone, PartialEq, Eq)]
#[allow(missing_docs)] // variants mirror mnemonics; fields are self-describing
pub enum A64Instr {
    /// A branch target.
    Label(String),
    /// `mov w1, #7`
    MovImm { dst: R, imm: i64 },
    /// `mov x2, x3`
    MovReg { dst: R, src: R },
    /// `adrp x8, sym` — page of a symbol's address.
    Adrp { dst: R, sym: SymRef },
    /// `add x8, x8, :lo12:sym` — completes `ADRP` address materialisation.
    AddLo12 { dst: R, src: R, sym: SymRef },
    /// `ldr x8, [x8, :got_lo12:sym]` — GOT slot load (a *memory read* of a
    /// pointer cell; the reason unoptimised compiled tests explode, §IV-E).
    LdrGot { dst: R, base: R, sym: SymRef },
    /// `ldr w0, [x1]`
    Ldr { dst: R, base: R },
    /// `ldar w0, [x1]` — load-acquire.
    Ldar { dst: R, base: R },
    /// `ldapr w0, [x1]` — load-acquire-PC (Armv8.3 RCpc, the §IV-F study).
    Ldapr { dst: R, base: R },
    /// `ldxr w0, [x1]` — load-exclusive.
    Ldxr { dst: R, base: R },
    /// `ldaxr w0, [x1]` — load-acquire-exclusive.
    Ldaxr { dst: R, base: R },
    /// `str w0, [x1]`
    Str { src: R, base: R },
    /// `stlr w0, [x1]` — store-release.
    Stlr { src: R, base: R },
    /// `stxr w2, w0, [x1]` — store-exclusive (status ← 0 on success).
    Stxr { status: R, src: R, base: R },
    /// `stlxr w2, w0, [x1]` — store-release-exclusive.
    Stlxr { status: R, src: R, base: R },
    /// `ldp x0, x1, [x2]` — load pair. `single_copy` is true when the
    /// target guarantees 16-byte single-copy atomicity (LSE2, Armv8.4).
    Ldp { dst1: R, dst2: R, base: R, single_copy: bool },
    /// `stp x0, x1, [x2]` — store pair.
    Stp { src1: R, src2: R, base: R, single_copy: bool },
    /// `ldxp x0, x1, [x2]` — load-exclusive pair.
    Ldxp { dst1: R, dst2: R, base: R },
    /// `stlxp w4, x0, x1, [x2]` — store-release-exclusive pair.
    Stlxp { status: R, src1: R, src2: R, base: R },
    /// `swp[a|l|al] w1, w0, [x2]` — atomic exchange (LSE). A zero-register
    /// destination makes the read invisible to load barriers (bug \[38\]).
    Swp { ord: RmwOrd, src: R, dst: R, base: R },
    /// `ldadd[a|l|al] w1, w0, [x2]` — atomic fetch-add (LSE).
    Ldadd { ord: RmwOrd, src: R, dst: R, base: R },
    /// `stadd w1, [x2]` — write-only atomic add (alias of `ldadd wzr`).
    Stadd { src: R, base: R },
    /// `cas[a|l|al] w0, w1, [x2]` — compare-and-swap (LSE).
    Cas { ord: RmwOrd, expected: R, new: R, base: R },
    /// `dmb ish|ishld|ishst`
    Dmb(DmbKind),
    /// `isb`
    Isb,
    /// `eor w2, w0, w1` (the artificial-dependency idiom when a==b).
    Eor { dst: R, a: R, b: R },
    /// `add w2, w0, w1`
    AddReg { dst: R, a: R, b: R },
    /// `and x2, x0, #imm` (pair unpacking).
    AndImm { dst: R, src: R, imm: i64 },
    /// `lsr x2, x0, #shift` (pair unpacking).
    LsrImm { dst: R, src: R, shift: i64 },
    /// `cmp w0, #imm`
    CmpImm { a: R, imm: i64 },
    /// `cmp w0, w1`
    CmpReg { a: R, b: R },
    /// `cbnz w2, label`
    Cbnz { src: R, label: String },
    /// `cbz w2, label`
    Cbz { src: R, label: String },
    /// `b.ne label`
    Bne(String),
    /// `b.eq label`
    Beq(String),
    /// `b label`
    B(String),
    /// `ret`
    Ret,
}

impl fmt::Display for A64Instr {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        use A64Instr::*;
        match self {
            Label(l) => write!(f, "{l}:"),
            MovImm { dst, imm } => write!(f, "mov {dst}, #{imm}"),
            MovReg { dst, src } => write!(f, "mov {dst}, {src}"),
            Adrp { dst, sym } => write!(f, "adrp {dst}, {sym}"),
            AddLo12 { dst, src, sym } => write!(f, "add {dst}, {src}, :lo12:{sym}"),
            LdrGot { dst, base, sym } => write!(f, "ldr {dst}, [{base}, :got_lo12:{sym}]"),
            Ldr { dst, base } => write!(f, "ldr {dst}, [{base}]"),
            Ldar { dst, base } => write!(f, "ldar {dst}, [{base}]"),
            Ldapr { dst, base } => write!(f, "ldapr {dst}, [{base}]"),
            Ldxr { dst, base } => write!(f, "ldxr {dst}, [{base}]"),
            Ldaxr { dst, base } => write!(f, "ldaxr {dst}, [{base}]"),
            Str { src, base } => write!(f, "str {src}, [{base}]"),
            Stlr { src, base } => write!(f, "stlr {src}, [{base}]"),
            Stxr { status, src, base } => write!(f, "stxr {status}, {src}, [{base}]"),
            Stlxr { status, src, base } => write!(f, "stlxr {status}, {src}, [{base}]"),
            Ldp { dst1, dst2, base, .. } => write!(f, "ldp {dst1}, {dst2}, [{base}]"),
            Stp { src1, src2, base, .. } => write!(f, "stp {src1}, {src2}, [{base}]"),
            Ldxp { dst1, dst2, base } => write!(f, "ldxp {dst1}, {dst2}, [{base}]"),
            Stlxp { status, src1, src2, base } => {
                write!(f, "stlxp {status}, {src1}, {src2}, [{base}]")
            }
            Swp { ord, src, dst, base } => {
                write!(f, "swp{} {src}, {dst}, [{base}]", ord.a64_suffix())
            }
            Ldadd { ord, src, dst, base } => {
                write!(f, "ldadd{} {src}, {dst}, [{base}]", ord.a64_suffix())
            }
            Stadd { src, base } => write!(f, "stadd {src}, [{base}]"),
            Cas { ord, expected, new, base } => {
                write!(f, "cas{} {expected}, {new}, [{base}]", ord.a64_suffix())
            }
            Dmb(k) => write!(f, "dmb {}", k.text()),
            Isb => write!(f, "isb"),
            Eor { dst, a, b } => write!(f, "eor {dst}, {a}, {b}"),
            AddReg { dst, a, b } => write!(f, "add {dst}, {a}, {b}"),
            AndImm { dst, src, imm } => write!(f, "and {dst}, {src}, #{imm}"),
            LsrImm { dst, src, shift } => write!(f, "lsr {dst}, {src}, #{shift}"),
            CmpImm { a, imm } => write!(f, "cmp {a}, #{imm}"),
            CmpReg { a, b } => write!(f, "cmp {a}, {b}"),
            Cbnz { src, label } => write!(f, "cbnz {src}, {label}"),
            Cbz { src, label } => write!(f, "cbz {src}, {label}"),
            Bne(l) => write!(f, "b.ne {l}"),
            Beq(l) => write!(f, "b.eq {l}"),
            B(l) => write!(f, "b {l}"),
            Ret => write!(f, "ret"),
        }
    }
}

/// Canonicalises a register name for dataflow: `w8` and `x8` are views of
/// the same register, so both map to `X8`. The zero register maps to `XZR`.
pub fn norm_reg(name: &str) -> Reg {
    let lower = name.to_ascii_lowercase();
    if lower == "wzr" || lower == "xzr" {
        return Reg::new("XZR");
    }
    if lower == "sp" {
        return Reg::new("SP");
    }
    if let Some(n) = lower.strip_prefix('w').or_else(|| lower.strip_prefix('x')) {
        if n.chars().all(|c| c.is_ascii_digit()) {
            return Reg::new(format!("X{n}"));
        }
    }
    Reg::new(name.to_ascii_uppercase())
}

fn is_zero(name: &str) -> bool {
    matches!(name.to_ascii_lowercase().as_str(), "wzr" | "xzr")
}

fn src_expr(name: &str) -> Expr {
    if is_zero(name) {
        Expr::int(0)
    } else {
        Expr::Reg(norm_reg(name))
    }
}

fn sym_loc(sym: &SymRef, ctx: &str) -> Result<Loc> {
    sym.as_sym().cloned().ok_or_else(|| {
        Error::IllFormed(format!(
            "{ctx}: unresolved address `{sym}` — run s2l symbolisation first"
        ))
    })
}

/// The GOT slot location for a symbol (a shared pointer cell holding `&sym`;
/// declared by the object-file layout).
pub fn got_slot(sym: &Loc) -> Loc {
    Loc::new(format!("got.{sym}"))
}

/// Lowers a thread of AArch64 instructions to the unified IR.
///
/// # Errors
///
/// Returns [`Error::IllFormed`] for unresolved symbol references (raw
/// addresses must be symbolised by `s2l` first).
pub fn lower(code: &[A64Instr]) -> Result<Vec<Instr>> {
    let mut out = Vec::new();
    for ins in code {
        lower_one(ins, &mut out)?;
    }
    Ok(out)
}

fn rmw_annot(ord: RmwOrd) -> AnnotSet {
    let mut a = AnnotSet::new();
    if ord.acquires() {
        a.insert(Annot::Acquire);
    }
    if ord.releases() {
        a.insert(Annot::Release);
    }
    if a.is_empty() {
        a.insert(Annot::Relaxed);
    }
    a
}

fn lower_one(ins: &A64Instr, out: &mut Vec<Instr>) -> Result<()> {
    use A64Instr::*;
    match ins {
        Label(l) => out.push(Instr::Label(l.clone())),
        MovImm { dst, imm } => out.push(Instr::Assign {
            dst: norm_reg(dst),
            expr: Expr::int(*imm),
        }),
        MovReg { dst, src } => out.push(Instr::Assign {
            dst: norm_reg(dst),
            expr: src_expr(src),
        }),
        Adrp { dst, sym } => {
            // Page computation: we model the completed address directly; the
            // `ADD :lo12:` below is then register-neutral. (No memory event.)
            let loc = sym_loc(sym, "adrp")?;
            out.push(Instr::Assign {
                dst: norm_reg(dst),
                expr: Expr::Lit(telechat_common::Val::Addr(loc)),
            });
        }
        AddLo12 { dst, src, .. } => out.push(Instr::Assign {
            dst: norm_reg(dst),
            expr: src_expr(src),
        }),
        LdrGot { dst, base, .. } => out.push(Instr::Load {
            dst: norm_reg(dst),
            addr: AddrExpr::Reg(norm_reg(base)),
            annot: AnnotSet::one(Annot::Relaxed),
        }),
        Ldr { dst, base } => out.push(load(dst, base, &[Annot::Relaxed])),
        Ldar { dst, base } => out.push(load(dst, base, &[Annot::Acquire])),
        Ldapr { dst, base } => out.push(load(dst, base, &[Annot::AcquirePc])),
        Ldxr { dst, base } => out.push(load(dst, base, &[Annot::Relaxed, Annot::Exclusive])),
        Ldaxr { dst, base } => out.push(load(dst, base, &[Annot::Acquire, Annot::Exclusive])),
        Str { src, base } => out.push(store(src, base, &[Annot::Relaxed])),
        Stlr { src, base } => out.push(store(src, base, &[Annot::Release])),
        Stxr { status, src, base } => out.push(Instr::StoreExcl {
            success: norm_reg(status),
            addr: AddrExpr::Reg(norm_reg(base)),
            val: src_expr(src),
            annot: AnnotSet::of(&[Annot::Relaxed, Annot::Exclusive]),
        }),
        Stlxr { status, src, base } => out.push(Instr::StoreExcl {
            success: norm_reg(status),
            addr: AddrExpr::Reg(norm_reg(base)),
            val: src_expr(src),
            annot: AnnotSet::of(&[Annot::Release, Annot::Exclusive]),
        }),
        Ldp { dst1, dst2, base, single_copy } => {
            if !*single_copy {
                return Err(Error::Unsupported(
                    "128-bit LDP without LSE2 is not single-copy atomic; the \
                     compiler must emit a CASP/LDXP loop (paper §IV-E)"
                        .into(),
                ));
            }
            lower_pair_load(dst1, dst2, base, &[Annot::Quad], out);
        }
        Stp { src1, src2, base, single_copy } => {
            if !*single_copy {
                return Err(Error::Unsupported(
                    "128-bit STP without LSE2 is not single-copy atomic".into(),
                ));
            }
            out.push(pair_store(src1, src2, base, &[Annot::Quad]));
        }
        Ldxp { dst1, dst2, base } => {
            lower_pair_load(dst1, dst2, base, &[Annot::Quad, Annot::Exclusive], out);
        }
        Stlxp { status, src1, src2, base } => {
            let val = pack_pair(src1, src2);
            out.push(Instr::StoreExcl {
                success: norm_reg(status),
                addr: AddrExpr::Reg(norm_reg(base)),
                val,
                annot: AnnotSet::of(&[Annot::Quad, Annot::Release, Annot::Exclusive]),
            });
        }
        Swp { ord, src, dst, base } => out.push(rmw(
            RmwOp::Swap,
            dst,
            src_expr(src),
            base,
            rmw_annot(*ord),
        )),
        Ldadd { ord, src, dst, base } => out.push(rmw(
            RmwOp::FetchAdd,
            dst,
            src_expr(src),
            base,
            rmw_annot(*ord),
        )),
        Stadd { src, base } => out.push(rmw(
            RmwOp::FetchAdd,
            "xzr",
            src_expr(src),
            base,
            AnnotSet::one(Annot::Relaxed),
        )),
        Cas { ord, expected, new, base } => out.push(Instr::Rmw {
            dst: Some(norm_reg(expected)),
            addr: AddrExpr::Reg(norm_reg(base)),
            op: RmwOp::CmpXchg {
                expected: src_expr(expected),
            },
            operand: src_expr(new),
            annot: rmw_annot(*ord),
            has_read_event: true,
        }),
        Dmb(k) => out.push(Instr::Fence {
            annot: AnnotSet::one(k.annot()),
        }),
        Isb => out.push(Instr::Fence {
            annot: AnnotSet::one(Annot::Isb),
        }),
        Eor { dst, a, b } => out.push(Instr::Assign {
            dst: norm_reg(dst),
            expr: Expr::bin(BinOp::Xor, src_expr(a), src_expr(b)),
        }),
        AddReg { dst, a, b } => out.push(Instr::Assign {
            dst: norm_reg(dst),
            expr: Expr::bin(BinOp::Add, src_expr(a), src_expr(b)),
        }),
        AndImm { dst, src, imm } => out.push(Instr::Assign {
            dst: norm_reg(dst),
            expr: Expr::bin(BinOp::And, src_expr(src), Expr::int(*imm)),
        }),
        LsrImm { dst, src, shift } => out.push(Instr::Assign {
            dst: norm_reg(dst),
            expr: Expr::bin(BinOp::Shr, src_expr(src), Expr::int(*shift)),
        }),
        CmpImm { a, imm } => out.push(Instr::Assign {
            dst: Reg::new("NZCV"),
            expr: Expr::bin(BinOp::Sub, src_expr(a), Expr::int(*imm)),
        }),
        CmpReg { a, b } => out.push(Instr::Assign {
            dst: Reg::new("NZCV"),
            expr: Expr::bin(BinOp::Sub, src_expr(a), src_expr(b)),
        }),
        Cbnz { src, label } => out.push(Instr::BranchIf {
            cond: Expr::ne(src_expr(src), Expr::int(0)),
            target: label.clone(),
        }),
        Cbz { src, label } => out.push(Instr::BranchIf {
            cond: Expr::eq(src_expr(src), Expr::int(0)),
            target: label.clone(),
        }),
        Bne(l) => out.push(Instr::BranchIf {
            cond: Expr::ne(Expr::reg("NZCV"), Expr::int(0)),
            target: l.clone(),
        }),
        Beq(l) => out.push(Instr::BranchIf {
            cond: Expr::eq(Expr::reg("NZCV"), Expr::int(0)),
            target: l.clone(),
        }),
        B(l) => out.push(Instr::Jump(l.clone())),
        Ret => {} // end of thread body; no IR
    }
    Ok(())
}

fn load(dst: &str, base: &str, annots: &[Annot]) -> Instr {
    Instr::Load {
        dst: norm_reg(dst),
        addr: AddrExpr::Reg(norm_reg(base)),
        annot: AnnotSet::of(annots),
    }
}

fn store(src: &str, base: &str, annots: &[Annot]) -> Instr {
    Instr::Store {
        addr: AddrExpr::Reg(norm_reg(base)),
        val: src_expr(src),
        annot: AnnotSet::of(annots),
    }
}

fn rmw(op: RmwOp, dst: &str, operand: Expr, base: &str, annot: AnnotSet) -> Instr {
    // A zero-register destination makes the instruction write-only: its
    // read is not ordered by load barriers (the ST<op> alias — paper §IV-B:
    // "LDADD aliases STADD when the destination register is the zero
    // register").
    let dead = is_zero(dst);
    Instr::Rmw {
        dst: (!dead).then(|| norm_reg(dst)),
        addr: AddrExpr::Reg(norm_reg(base)),
        op,
        operand,
        annot,
        has_read_event: !dead,
    }
}

fn pack_pair(src1: &str, src2: &str) -> Expr {
    Expr::bin(
        BinOp::Or,
        Expr::bin(BinOp::And, src_expr(src1), Expr::int((1 << PAIR_SHIFT) - 1)),
        Expr::bin(BinOp::Shl, src_expr(src2), Expr::int(PAIR_SHIFT)),
    )
}

fn pair_store(src1: &str, src2: &str, base: &str, annots: &[Annot]) -> Instr {
    Instr::Store {
        addr: AddrExpr::Reg(norm_reg(base)),
        val: pack_pair(src1, src2),
        annot: AnnotSet::of(annots),
    }
}

fn lower_pair_load(dst1: &str, dst2: &str, base: &str, annots: &[Annot], out: &mut Vec<Instr>) {
    let tmp = Reg::new("PAIRTMP");
    out.push(Instr::Load {
        dst: tmp.clone(),
        addr: AddrExpr::Reg(norm_reg(base)),
        annot: AnnotSet::of(annots),
    });
    out.push(Instr::Assign {
        dst: norm_reg(dst1),
        expr: Expr::bin(
            BinOp::And,
            Expr::Reg(tmp.clone()),
            Expr::int((1 << PAIR_SHIFT) - 1),
        ),
    });
    out.push(Instr::Assign {
        dst: norm_reg(dst2),
        expr: Expr::bin(BinOp::Shr, Expr::Reg(tmp), Expr::int(PAIR_SHIFT)),
    });
}

/// Rewrites every symbol reference through `f` (used by the object-file
/// layer to swap symbolic operands for raw addresses at link time and back
/// at symbolisation time).
pub fn map_syms(code: &mut [A64Instr], f: &dyn Fn(&SymRef) -> SymRef) {
    for ins in code {
        match ins {
            A64Instr::Adrp { sym, .. }
            | A64Instr::AddLo12 { sym, .. }
            | A64Instr::LdrGot { sym, .. } => *sym = f(sym),
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn norm_reg_views() {
        assert_eq!(norm_reg("w8"), Reg::new("X8"));
        assert_eq!(norm_reg("x8"), Reg::new("X8"));
        assert_eq!(norm_reg("WZR"), Reg::new("XZR"));
        assert_eq!(norm_reg("sp"), Reg::new("SP"));
    }

    #[test]
    fn display_forms() {
        assert_eq!(
            A64Instr::Swp {
                ord: RmwOrd::Rel,
                src: "w1".into(),
                dst: "wzr".into(),
                base: "x0".into()
            }
            .to_string(),
            "swpl w1, wzr, [x0]"
        );
        assert_eq!(A64Instr::Dmb(DmbKind::IshLd).to_string(), "dmb ishld");
        assert_eq!(
            A64Instr::LdrGot {
                dst: "x8".into(),
                base: "x8".into(),
                sym: "x".into()
            }
            .to_string(),
            "ldr x8, [x8, :got_lo12:x]"
        );
    }

    #[test]
    fn lower_acquire_release() {
        let ir = lower(&[
            A64Instr::Ldar {
                dst: "w0".into(),
                base: "x1".into(),
            },
            A64Instr::Stlr {
                src: "w0".into(),
                base: "x2".into(),
            },
        ])
        .unwrap();
        match &ir[0] {
            Instr::Load { annot, .. } => assert!(annot.contains(Annot::Acquire)),
            other => panic!("{other:?}"),
        }
        match &ir[1] {
            Instr::Store { annot, .. } => assert!(annot.contains(Annot::Release)),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn zero_register_destination_is_write_only() {
        let ir = lower(&[A64Instr::Swp {
            ord: RmwOrd::Rel,
            src: "w1".into(),
            dst: "wzr".into(),
            base: "x0".into(),
        }])
        .unwrap();
        match &ir[0] {
            Instr::Rmw {
                dst,
                has_read_event,
                ..
            } => {
                assert_eq!(*dst, None);
                assert!(!has_read_event, "xzr destination loses the read");
            }
            other => panic!("{other:?}"),
        }
        // Live destination keeps the read.
        let ir = lower(&[A64Instr::Swp {
            ord: RmwOrd::Rel,
            src: "w1".into(),
            dst: "w3".into(),
            base: "x0".into(),
        }])
        .unwrap();
        match &ir[0] {
            Instr::Rmw { has_read_event, .. } => assert!(*has_read_event),
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn stadd_is_write_only_fetch_add() {
        let ir = lower(&[A64Instr::Stadd {
            src: "w1".into(),
            base: "x0".into(),
        }])
        .unwrap();
        match &ir[0] {
            Instr::Rmw {
                op,
                dst,
                has_read_event,
                ..
            } => {
                assert_eq!(*op, RmwOp::FetchAdd);
                assert_eq!(*dst, None);
                assert!(!has_read_event);
            }
            other => panic!("{other:?}"),
        }
    }

    #[test]
    fn exclusive_pair_lowering() {
        let ir = lower(&[
            A64Instr::Ldaxr {
                dst: "w0".into(),
                base: "x1".into(),
            },
            A64Instr::Stlxr {
                status: "w2".into(),
                src: "w3".into(),
                base: "x1".into(),
            },
            A64Instr::Cbnz {
                src: "w2".into(),
                label: "retry".into(),
            },
        ]);
        // The cbnz target label is absent here; validation happens at the
        // litmus level. Lowering itself succeeds.
        let ir = ir.unwrap();
        assert!(matches!(ir[1], Instr::StoreExcl { .. }));
        assert!(matches!(ir[2], Instr::BranchIf { .. }));
    }

    #[test]
    fn pair_pack_unpack() {
        let ir = lower(&[A64Instr::Ldp {
            dst1: "x0".into(),
            dst2: "x1".into(),
            base: "x2".into(),
            single_copy: true,
        }])
        .unwrap();
        assert_eq!(ir.len(), 3, "load + two unpack assigns");
        match &ir[0] {
            Instr::Load { annot, .. } => assert!(annot.contains(Annot::Quad)),
            other => panic!("{other:?}"),
        }
        // Non-LSE2 pair is rejected.
        let err = lower(&[A64Instr::Stp {
            src1: "x0".into(),
            src2: "x1".into(),
            base: "x2".into(),
            single_copy: false,
        }])
        .unwrap_err();
        assert!(matches!(err, Error::Unsupported(_)));
    }

    #[test]
    fn adrp_add_materialises_address() {
        let ir = lower(&[
            A64Instr::Adrp {
                dst: "x8".into(),
                sym: "x".into(),
            },
            A64Instr::AddLo12 {
                dst: "x8".into(),
                src: "x8".into(),
                sym: "x".into(),
            },
            A64Instr::Ldr {
                dst: "w0".into(),
                base: "x8".into(),
            },
        ])
        .unwrap();
        assert_eq!(ir.len(), 3);
        assert!(matches!(&ir[0], Instr::Assign { .. }));
        assert!(matches!(&ir[2], Instr::Load { .. }));
        // Unresolved (numeric) symbol is an error.
        let err = lower(&[A64Instr::Adrp {
            dst: "x8".into(),
            sym: SymRef::Addr(0x11000),
        }])
        .unwrap_err();
        assert!(matches!(err, Error::IllFormed(_)));
    }

    #[test]
    fn cmp_bne_models_flags() {
        let ir = lower(&[
            A64Instr::CmpImm {
                a: "w0".into(),
                imm: 1,
            },
            A64Instr::Bne("out".into()),
        ])
        .unwrap();
        match &ir[0] {
            Instr::Assign { dst, .. } => assert_eq!(dst, &Reg::new("NZCV")),
            other => panic!("{other:?}"),
        }
    }
}
