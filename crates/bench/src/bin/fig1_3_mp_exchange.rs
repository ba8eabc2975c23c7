//! E1 — Paper Figs. 1–3: the MP+exchange bug \[38\], its executions and the
//! RC11 outcomes.

use telechat::{Telechat, TestVerdict};
use telechat_bench::{banner, expect, FIG1_MP_EXCHANGE};
use telechat_cat::CatModel;
use telechat_common::Result;
use telechat_compiler::{Compiler, CompilerId, OptLevel, Target};
use telechat_exec::{simulate, SimConfig};
use telechat_litmus::parse_c11;

fn main() -> Result<()> {
    banner("E1 (Figs. 1-3)", "MP+exchange: a new kind of heisenbug");
    let test = parse_c11(FIG1_MP_EXCHANGE)?;

    // Fig. 3: outcomes under the source model (RC11).
    let rc11 = CatModel::bundled("rc11")?;
    let cfg = SimConfig::default().keeping_executions();
    let src = simulate(&test, &rc11, &cfg)?;
    println!("\nFig. 3 — RC11 outcomes of Fig. 1:");
    print!("{}", src.outcomes);
    expect(
        "forbidden outcome {P1:r0=0; y=2} under RC11",
        "forbidden",
        if test.condition.holds(&src.outcomes) {
            "ALLOWED (wrong!)"
        } else {
            "forbidden"
        },
    );
    assert!(!test.condition.holds(&src.outcomes));

    // Fig. 2: a couple of allowed executions rendered as graphs.
    println!("\nFig. 2 — sample RC11-allowed executions:");
    for x in src.executions.iter().take(2) {
        println!("{}", x.render());
    }

    // Fig. 1's bug: buggy LLVM (SWP destination zeroed) on Armv8.1+LSE.
    let tool = Telechat::new("rc11")?;
    let buggy = Compiler::new(CompilerId::llvm(11), OptLevel::O3, Target::armv81_lse());
    let report = tool.run(&test, &buggy)?;
    println!("\nFig. 1 — compiled with {} (carries bug [38]):", buggy.profile_name());
    println!("extracted assembly litmus test:\n{}", report.asm_test);
    expect(
        "verdict for the buggy compiler",
        "positive difference",
        format!("{:?}", report.verdict),
    );
    assert_eq!(report.verdict, TestVerdict::PositiveDifference);
    println!("  positive differences:\n{}", report.positive);

    // The fixed compiler keeps the exchange's read visible to the fence.
    let fixed = Compiler::new(CompilerId::llvm(17), OptLevel::O3, Target::armv81_lse());
    let report = tool.run(&test, &fixed)?;
    expect(
        "verdict for the fixed compiler",
        "pass / -ve only",
        format!("{:?}", report.verdict),
    );
    assert_ne!(report.verdict, TestVerdict::PositiveDifference);

    println!("\nE1 reproduced: the bug appears only with the buggy SWP lowering.");
    Ok(())
}
