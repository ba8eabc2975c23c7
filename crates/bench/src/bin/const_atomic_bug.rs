//! E10 — Paper §IV-E bug \[36\]: 128-bit `const` atomic loads implemented
//! with a store-back loop crash on read-only memory; the fix \[56\] applies
//! only from Armv8.4 (LSE2) up.

use telechat::{Telechat, TestVerdict};
use telechat_bench::{banner, expect};
use telechat_common::Result;
use telechat_compiler::{Compiler, CompilerId, OptLevel, Target};
use telechat_litmus::parse_c11;

const CONST_ATOMIC_LOAD: &str = r#"
C11 "const-atomic-128"
{ wide const q = 5; x = 0; }
P0 (const atomic_int* q, atomic_int* x) {
  int r0 = atomic_load_explicit(q, memory_order_seq_cst);
  atomic_store_explicit(x, 1, memory_order_relaxed);
}
exists (P0:r0=5)
"#;

fn main() -> Result<()> {
    banner("E10 (§IV-E, bug [36])", "const 128-bit atomic load crashes");
    let test = parse_c11(CONST_ATOMIC_LOAD)?;
    let tool = Telechat::new("rc11")?;

    println!();
    for (label, compiler, expect_crash) in [
        (
            "clang-15, Armv8.4+LSE2 (pre-fix: LDXP/STLXP loop)",
            Compiler::new(CompilerId::llvm(15), OptLevel::O2, Target::armv84_lse2()),
            true,
        ),
        (
            "clang-16, Armv8.4+LSE2 (fix [56]: read-only LDP)",
            Compiler::new(CompilerId::llvm(16), OptLevel::O2, Target::armv84_lse2()),
            false,
        ),
        (
            "clang-17, Armv8.1 (no LSE2: no lock-free fix exists)",
            Compiler::new(CompilerId::llvm(17), OptLevel::O2, Target::armv81_lse()),
            true,
        ),
    ] {
        let report = tool.run(&test, &compiler)?;
        let crashed = report.verdict == TestVerdict::RuntimeCrash;
        expect(
            label,
            if expect_crash { "runtime crash" } else { "no crash" },
            format!("{:?}", report.verdict),
        );
        assert_eq!(crashed, expect_crash, "{label}");
    }

    println!("\nE10 reproduced: simulation flags the write-to-.rodata the");
    println!("architecture model alone would miss (the paper's const augmentation).");
    Ok(())
}
