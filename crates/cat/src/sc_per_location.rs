//! Recognising a check that forbids every candidate breaking SC per
//! location.
//!
//! SC per location is `acyclic po-loc | rf | co | fr`. The enumerator
//! skips coherence orders that break it before pushing them, for a model
//! that forbids them anyway
//! ([`telechat_exec::ConsistencyModel::sc_per_location`]). [`recognise`]
//! finds such a check in a Cat program: a non-negated, non-flag check of
//! one of two forms, read syntactically, with `let`-bound names, unions
//! and closures resolved:
//!
//! * `acyclic E` with `E ⊇ po-loc ∪ rf ∪ co ∪ fr` (`po` in place of
//!   `po-loc` too): a cycle of `po-loc | com` is a cycle of `E`. This is
//!   `internal` in the architecture models and `sc` in `sc.cat`.
//! * `irreflexive A ; B?` or `irreflexive A ; B`, with `A ⊇ po-loc` (or
//!   `po`) and `B` a transitive closure `⊇ rf ∪ co ∪ fr`. By the "Herding
//!   Cats" lemma (Alglave et al., TOPLAS 2014) every SC-per-location
//!   violation is one of coWW, coRW1, coRW2, coWR and coRR, and each is a
//!   `po-loc` edge closed by a path in `com+`, so `A ; B` is reflexive on
//!   it. This is `coherence` in `rc11` and `rc11-lb`.
//!
//! A `let` that binds one of the base names the forms read (`po`, `loc`,
//! `rf`, `co`, `fr`) anywhere in the program defeats recognition, and
//! names bound by `let rec` are opaque. `hw-inorder`, whose only check
//! is `acyclic ppo | rfe | fre | coe`, has no such check.

use crate::ast::{CatExpr, CatProgram, CatStmt, CheckKind};
use std::collections::HashMap;
use telechat_common::Sym;

// The base relations an expression is known to contain, as bits.
const PO: u8 = 1;
const PO_LOC: u8 = 2;
const LOC: u8 = 4;
const RF: u8 = 8;
const CO: u8 = 16;
const FR: u8 = 32;
const COM: u8 = RF | CO | FR;

/// The base names the two forms read, with their bits.
const BASES: [(&str, u8); 5] = [("po", PO), ("loc", LOC), ("rf", RF), ("co", CO), ("fr", FR)];

/// What an expression is syntactically known to contain.
#[derive(Debug, Clone, Copy, Default)]
struct Shape {
    /// The base relations its value contains.
    atoms: u8,
    /// It is a transitive closure (`e+`, `e*`), or one with `?` applied.
    closure: bool,
    /// It is `A ; B` with `A ⊇ po-loc` and `B` a closure `⊇ com`.
    po_com: bool,
}

/// Whether `atoms` contains `po-loc`.
fn has_po_loc(atoms: u8) -> bool {
    atoms & (PO | PO_LOC) != 0
}

/// The name of the first check of `program` that forbids every candidate
/// breaking SC per location, in one of the forms of the module docs.
pub(crate) fn recognise(program: &CatProgram) -> Option<&str> {
    let bases: Vec<(Sym, u8)> = BASES.iter().map(|&(n, b)| (Sym::new(n), b)).collect();
    let lets = program.stmts.iter().filter_map(|s| match s {
        CatStmt::Let { bindings, .. } => Some(bindings),
        _ => None,
    });
    if lets
        .flatten()
        .any(|(name, _)| bases.iter().any(|&(b, _)| b == *name))
    {
        return None;
    }
    let mut env: HashMap<Sym, Shape> = bases
        .iter()
        .map(|&(name, atoms)| {
            (
                name,
                Shape {
                    atoms,
                    ..Shape::default()
                },
            )
        })
        .collect();
    for stmt in &program.stmts {
        match stmt {
            CatStmt::Let {
                recursive,
                bindings,
            } => {
                // In binding order, as the evaluator binds them.
                for (name, expr) in bindings {
                    let bound = if *recursive {
                        Shape::default()
                    } else {
                        shape(expr, &env)
                    };
                    env.insert(*name, bound);
                }
            }
            CatStmt::Check {
                kind,
                negated: false,
                expr,
                name,
            } => {
                let s = shape(expr, &env);
                let forbids = match kind {
                    CheckKind::Acyclic => has_po_loc(s.atoms) && s.atoms & COM == COM,
                    CheckKind::Irreflexive => s.po_com,
                    CheckKind::Empty => false,
                };
                if forbids {
                    return Some(name);
                }
            }
            CatStmt::Check { .. } | CatStmt::Flag { .. } => {}
        }
    }
    None
}

/// The shape of `expr`, with names resolved in `env`; a name `env` does
/// not bind is known to contain nothing.
fn shape(expr: &CatExpr, env: &HashMap<Sym, Shape>) -> Shape {
    match expr {
        CatExpr::Name(n) => env.get(n).copied().unwrap_or_default(),
        CatExpr::Union(a, b) => Shape {
            atoms: shape(a, env).atoms | shape(b, env).atoms,
            ..Shape::default()
        },
        CatExpr::Inter(a, b) => {
            let (a, b) = (shape(a, env).atoms, shape(b, env).atoms);
            let po_loc = (has_po_loc(a) && b & LOC != 0) || (has_po_loc(b) && a & LOC != 0);
            Shape {
                atoms: (a & b) | if po_loc { PO_LOC } else { 0 },
                ..Shape::default()
            }
        }
        CatExpr::Plus(a) | CatExpr::Star(a) => Shape {
            atoms: shape(a, env).atoms,
            closure: true,
            po_com: false,
        },
        CatExpr::Opt(a) => Shape {
            po_com: false,
            ..shape(a, env)
        },
        CatExpr::Seq(a, b) => {
            let (a, b) = (shape(a, env), shape(b, env));
            Shape {
                po_com: has_po_loc(a.atoms) && b.closure && b.atoms & COM == COM,
                ..Shape::default()
            }
        }
        _ => Shape::default(),
    }
}

#[cfg(test)]
mod tests {
    use crate::registry::{model_names, CatModel};
    use telechat_exec::ConsistencyModel;

    /// The check a model with the prelude and `checks` names.
    fn recognised(checks: &str) -> Option<String> {
        let src = format!("include \"prelude.cat\"\n{checks}");
        let model = CatModel::from_source("t", &src).unwrap();
        model.sc_per_location().map(str::to_string)
    }

    #[test]
    fn bundled_models_name_their_sc_per_location_check() {
        let expected = [
            ("rc11", Some("coherence")),
            ("rc11-lb", Some("coherence")),
            ("sc", Some("sc")),
            ("aarch64", Some("internal")),
            ("armv7", Some("internal")),
            ("armv7-buggy", Some("internal")),
            ("x86tso", Some("internal")),
            ("riscv", Some("internal")),
            ("ppc", Some("internal")),
            ("mips", Some("internal")),
            ("hw-inorder", None),
        ];
        assert_eq!(
            expected.iter().map(|&(n, _)| n).collect::<Vec<_>>(),
            model_names(),
            "every bundled model has an expected answer"
        );
        for (name, rule) in expected {
            let model = CatModel::bundled(name).unwrap();
            assert_eq!(model.sc_per_location(), rule, "{name}");
            let leaf_only = model.without_staging();
            assert_eq!(leaf_only.sc_per_location(), rule, "{name} without staging");
        }
    }

    #[test]
    fn recognises_both_forms_through_names_and_closures() {
        for (src, rule) in [
            ("acyclic po | rf | co | fr as a", "a"),
            ("acyclic (po & loc) | com as a", "a"),
            ("let x = po_loc | rf\nacyclic (x | co | fr)+ as a", "a"),
            ("irreflexive po ; com+ as i", "i"),
            ("let hb = (po | rf)+\nirreflexive hb ; (com*)? as i", "i"),
            ("empty rf as e\nacyclic po_loc | com as a", "a"),
        ] {
            assert_eq!(recognised(src).as_deref(), Some(rule), "{src}");
        }
    }

    #[test]
    fn rejects_checks_that_may_allow_a_violation() {
        for src in [
            // No `fr`: a coWR or coRR cycle needs it.
            "acyclic po_loc | rf | co as a",
            // `com?` is not transitive: a path of two com edges escapes.
            "let hb = (po | rf)+\nirreflexive hb ; com? as i",
            // Negated checks and flags forbid nothing of the kind.
            "~acyclic po_loc | com as a",
            "flag ~acyclic po_loc | com as f",
            // A shadowed base name is no longer the base relation.
            "let po = po & ext\nacyclic po | com as a",
            // Relations that are not known to contain po-loc.
            "acyclic (po \\ loc) | com as a",
            "acyclic po ; com as a",
            "irreflexive rf ; com+ as i",
            "let rec x = po | x\nacyclic x | com as a",
        ] {
            assert_eq!(recognised(src), None, "{src}");
        }
    }
}
