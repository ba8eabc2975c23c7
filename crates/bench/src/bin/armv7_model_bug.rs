//! E9 — Paper §IV-E: the unofficial Armv7 model bug, found with a
//! store-buffering test and fixed upstream (\[35\], "Added dmb ish to arm
//! model").

use telechat::{PipelineConfig, Telechat, TestVerdict};
use telechat_bench::{banner, expect, SB_SC_FENCES};
use telechat_common::{Arch, Result};
use telechat_compiler::{Compiler, CompilerId, OptLevel, Target};
use telechat_litmus::parse_c11;

fn main() -> Result<()> {
    banner("E9 (§IV-E)", "the Armv7 model bug");
    let test = parse_c11(SB_SC_FENCES)?;
    let gcc = Compiler::new(CompilerId::gcc(10), OptLevel::O2, Target::new(Arch::Armv7));

    // Under the buggy model, the compiled SB outcome is (wrongly) allowed:
    // the barrier rule missed write-to-read ordering, so Téléchat reports
    // a positive difference that hardware contradicts.
    let buggy = Telechat::with_config(
        "rc11",
        PipelineConfig {
            target_model: Some("armv7-buggy".into()),
            ..PipelineConfig::default()
        },
    )?;
    let report = buggy.run(&test, &gcc)?;
    expect(
        "SB+sc-fences under the pre-fix armv7 model",
        "+ve difference (model bug)",
        format!("{:?}", report.verdict),
    );
    assert_eq!(report.verdict, TestVerdict::PositiveDifference);
    println!("  spurious outcomes:\n{}", report.positive);

    // Under the fixed model the difference disappears — the model now
    // matches RC11 and the hardware the paper checked.
    let fixed = Telechat::new("rc11")?;
    let report = fixed.run(&test, &gcc)?;
    expect(
        "SB+sc-fences under the fixed armv7 model",
        "no +ve difference",
        format!("{:?}", report.verdict),
    );
    assert_ne!(report.verdict, TestVerdict::PositiveDifference);

    println!("\nE9 reproduced: Téléchat's architecture-model leg found a *model* bug —");
    println!("a limitation unique to model-based testing, and worth the trade.");
    Ok(())
}
