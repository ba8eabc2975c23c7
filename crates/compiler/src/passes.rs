//! Middle-end passes over the unified IR.
//!
//! These run between the C front end and instruction selection. Two of
//! them carry the paper's §IV-B/§IV-D stories:
//!
//! * [`dead_local_elim`] — C11 allows deleting thread-local data; a litmus
//!   test whose `exists` clause names a deleted local loses its witness
//!   (the *local variable problem*, Fig. 9);
//! * [`ctrl_dep_same_store_elim`] — if both arms of a branch store the same
//!   value, `-O1` if-conversion hoists the store and the control dependency
//!   vanishes (the gcc-armv7 `+ve` gap of Table IV);
//! * [`ctrl_to_data_dep`] — at `-O2` and above the same shape is instead
//!   rewritten to a select-style *data* dependency, masking the behaviour.

use std::collections::BTreeSet;
use telechat_litmus::{BinOp, Expr, Instr};
use telechat_common::Reg;

/// Registers read anywhere in a thread body (addresses, operands, branch
/// conditions).
pub fn used_regs(body: &[Instr]) -> BTreeSet<Reg> {
    body.iter().flat_map(Instr::regs_read).collect()
}

/// Removes computations whose results are never read: unused plain *and
/// atomic* loads disappear entirely (a legal C11 transformation, \[22\]),
/// unused RMW destinations are dropped (the value is still atomically
/// written), unused assigns vanish.
///
/// Iterates to a fixpoint: deleting one use can make another dead.
pub fn dead_local_elim(body: &mut Vec<Instr>) {
    loop {
        let used = used_regs(body);
        let before = body.len();
        let mut changed = false;
        body.retain(|ins| match ins {
            Instr::Load { dst, .. } => used.contains(dst),
            Instr::Assign { dst, .. } => used.contains(dst),
            _ => true,
        });
        for ins in body.iter_mut() {
            if let Instr::Rmw { dst, .. } = ins {
                if let Some(d) = dst {
                    if !used.contains(d) {
                        *dst = None;
                        changed = true;
                    }
                }
            }
        }
        if body.len() == before && !changed {
            return;
        }
    }
}

/// Matches the shape produced by the C front end for
/// `if (cond) { store(l, v) } else { store(l, v) }` or the single-armed
/// variant where the fall-through also stores `v`:
///
/// ```text
/// BranchIf !cond -> Lelse ; Store l, v ; [Jump Lend ; Lelse ; Store l, v ; Lend]
/// ```
///
/// When both stores are identical the branch is redundant; `-O1`
/// if-conversion replaces the whole region with one unconditional store —
/// deleting the control dependency from the loads feeding `cond`.
/// Returns true if anything changed.
pub fn ctrl_dep_same_store_elim(body: &mut Vec<Instr>) -> bool {
    let mut changed = false;
    let mut i = 0;
    while i < body.len() {
        if let Some((region_len, store)) = match_same_store_diamond(&body[i..]) {
            body.splice(i..i + region_len, [store]);
            changed = true;
        }
        i += 1;
    }
    changed
}

/// The `-O2` treatment of the same shape: keep one store but make its value
/// *data-dependent* on the condition registers (`v + (r ^ r)`), preserving
/// the ordering the hardware model derives from dependencies. This is why
/// higher optimisation levels mask the reordering that `-O1` exposes
/// (paper §IV-D).
pub fn ctrl_to_data_dep(body: &mut Vec<Instr>) -> bool {
    let mut changed = false;
    let mut i = 0;
    while i < body.len() {
        if let Some((region_len, store)) = match_same_store_diamond(&body[i..]) {
            // Find the condition registers of the branch heading the region.
            let Instr::BranchIf { cond, .. } = &body[i] else {
                i += 1;
                continue;
            };
            let dep_regs = cond.regs_read();
            let Instr::Store { addr, val, annot } = store else {
                i += 1;
                continue;
            };
            let mut guarded = val;
            for r in dep_regs {
                guarded = Expr::bin(
                    BinOp::Add,
                    guarded,
                    Expr::bin(BinOp::Xor, Expr::Reg(r.clone()), Expr::Reg(r)),
                );
            }
            body.splice(
                i..i + region_len,
                [Instr::Store {
                    addr,
                    val: guarded,
                    annot,
                }],
            );
            changed = true;
        }
        i += 1;
    }
    changed
}

/// Recognises a same-store diamond at the start of `tail`, returning the
/// region length and the common store.
fn match_same_store_diamond(tail: &[Instr]) -> Option<(usize, Instr)> {
    // Form A: BranchIf -> Lelse; Store; Jump Lend; Lelse:; Store'; Lend:
    if tail.len() >= 6 {
        if let (
            Instr::BranchIf { target, .. },
            store @ Instr::Store { .. },
            Instr::Jump(endj),
            Instr::Label(lelse),
            store2 @ Instr::Store { .. },
            Instr::Label(lend),
        ) = (&tail[0], &tail[1], &tail[2], &tail[3], &tail[4], &tail[5])
        {
            if target == lelse && endj == lend && store == store2 {
                return Some((6, store.clone()));
            }
        }
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;
    use telechat_common::{Annot, AnnotSet};
    use telechat_litmus::AddrExpr;

    fn load(dst: &str, loc: &str) -> Instr {
        Instr::Load {
            dst: Reg::new(dst),
            addr: AddrExpr::sym(loc),
            annot: AnnotSet::of(&[Annot::Atomic, Annot::Relaxed]),
        }
    }

    fn store(loc: &str, v: i64) -> Instr {
        Instr::Store {
            addr: AddrExpr::sym(loc),
            val: Expr::int(v),
            annot: AnnotSet::of(&[Annot::Atomic, Annot::Relaxed]),
        }
    }

    #[test]
    fn unused_load_deleted() {
        let mut body = vec![load("r0", "x"), store("y", 1)];
        dead_local_elim(&mut body);
        assert_eq!(body, vec![store("y", 1)], "the Fig. 9 deletion");
    }

    #[test]
    fn used_load_survives() {
        let mut body = vec![
            load("r0", "x"),
            Instr::Store {
                addr: AddrExpr::sym("g"),
                val: Expr::reg("r0"),
                annot: AnnotSet::one(Annot::NonAtomic),
            },
        ];
        let before = body.clone();
        dead_local_elim(&mut body);
        assert_eq!(body, before, "augmented locals are used, hence kept");
    }

    #[test]
    fn transitively_dead_chain_deleted() {
        let mut body = vec![
            load("r0", "x"),
            Instr::Assign {
                dst: Reg::new("r1"),
                expr: Expr::reg("r0"),
            },
        ];
        dead_local_elim(&mut body);
        assert!(body.is_empty(), "r1 unused → assign dies → load dies");
    }

    #[test]
    fn rmw_destination_dropped_but_op_kept() {
        let mut body = vec![Instr::Rmw {
            dst: Some(Reg::new("r1")),
            addr: AddrExpr::sym("y"),
            op: telechat_litmus::RmwOp::FetchAdd,
            operand: Expr::int(1),
            annot: AnnotSet::of(&[Annot::Atomic, Annot::Relaxed]),
            has_read_event: true,
        }];
        dead_local_elim(&mut body);
        assert_eq!(body.len(), 1);
        match &body[0] {
            Instr::Rmw { dst, .. } => assert_eq!(*dst, None),
            other => panic!("{other:?}"),
        }
    }

    fn diamond(cond_reg: &str) -> Vec<Instr> {
        vec![
            Instr::BranchIf {
                cond: Expr::eq(
                    Expr::eq(Expr::reg(cond_reg), Expr::int(1)),
                    Expr::int(0),
                ),
                target: ".else1".into(),
            },
            store("y", 1),
            Instr::Jump(".end1".into()),
            Instr::Label(".else1".into()),
            store("y", 1),
            Instr::Label(".end1".into()),
        ]
    }

    #[test]
    fn same_store_diamond_collapses_at_o1() {
        let mut body = vec![load("r0", "x")];
        body.extend(diamond("r0"));
        assert!(ctrl_dep_same_store_elim(&mut body));
        assert_eq!(body.len(), 2, "load + hoisted store");
        assert!(matches!(&body[1], Instr::Store { .. }));
    }

    #[test]
    fn different_stores_not_collapsed() {
        let mut body = diamond("r0");
        // Make the two stores differ.
        body[4] = store("y", 2);
        assert!(!ctrl_dep_same_store_elim(&mut body));
        assert_eq!(body.len(), 6);
    }

    #[test]
    fn o2_keeps_a_data_dependency() {
        let mut body = vec![load("r0", "x")];
        body.extend(diamond("r0"));
        assert!(ctrl_to_data_dep(&mut body));
        assert_eq!(body.len(), 2);
        match &body[1] {
            Instr::Store { val, .. } => {
                assert!(
                    val.regs_read().contains(&Reg::new("r0")),
                    "store value now depends on r0: {val}"
                );
            }
            other => panic!("{other:?}"),
        }
    }
}
