//! E3 — Paper Figs. 7+8 and §IV-A: Téléchat finds the load-buffering
//! behaviour that C4 missed on a Raspberry Pi.

use telechat::{Telechat, TestVerdict};
use telechat_bench::{banner, expect, llvm11_o3_aarch64, FIG7_LB_FENCES};
use telechat_c4::{C4Config, C4};
use telechat_common::Result;
use telechat_hardware::{APPLE_A9, RASPBERRY_PI_4};
use telechat_litmus::parse_c11;

fn main() -> Result<()> {
    banner("E3 (Figs. 7-8)", "LB found by Téléchat, missed by C4-on-Pi");
    let test = parse_c11(FIG7_LB_FENCES)?;
    let compiler = llvm11_o3_aarch64();

    // Fig. 8 left/right: RC11 vs AArch64 outcomes.
    let tool = Telechat::new("rc11")?;
    let report = tool.run(&test, &compiler)?;
    println!("\nFig. 8 (left) — RC11 outcomes:");
    print!("{}", report.source_outcomes);
    println!("Fig. 8 (right) — Arm AArch64 outcomes of the compiled test:");
    print!("{}", report.target_outcomes);
    expect(
        "the {P0:r0=1; P1:r0=1} outcome",
        "AArch64 only (C4 missed)",
        format!("{:?}", report.verdict),
    );
    assert_eq!(report.verdict, TestVerdict::PositiveDifference);

    // C4 on the Raspberry Pi: the silicon never exhibits LB.
    let pi = C4::new(C4Config {
        chip: RASPBERRY_PI_4,
        runs: 20_000,
        stress: 100,
        seed: 0xC4,
    })?;
    let c4_report = pi.check(&test, &compiler)?;
    expect(
        "C4 verdict on Raspberry Pi 4 (20k stressed runs)",
        "miss (no bug signal)",
        if c4_report.bug_found() { "bug found" } else { "miss" },
    );
    assert!(!c4_report.bug_found());
    println!(
        "  model outcomes the Pi never produced: {}",
        c4_report.unobserved_model_outcomes.len()
    );

    // On an Apple A9 (Sarkar et al. observed LB there) C4 does find it —
    // hardware-dependence is exactly the paper's §IV-A point.
    let a9 = C4::new(C4Config {
        chip: APPLE_A9,
        runs: 20_000,
        stress: 100,
        seed: 0xC4,
    })?;
    let a9_report = a9.check(&test, &compiler)?;
    expect(
        "C4 verdict on Apple A9 (20k stressed runs)",
        "bug found (Sarkar et al.)",
        if a9_report.bug_found() { "bug found" } else { "miss" },
    );
    assert!(a9_report.bug_found());

    // Téléchat is deterministic: ten runs, one verdict.
    let verdicts: Vec<_> = (0..10)
        .map(|_| tool.run(&test, &compiler).map(|r| r.verdict))
        .collect::<Result<_>>()?;
    expect(
        "Téléchat verdict stability over 10 runs",
        "identical (deterministic)",
        if verdicts.windows(2).all(|w| w[0] == w[1]) {
            "identical"
        } else {
            "varies (wrong!)"
        },
    );
    assert!(verdicts.windows(2).all(|w| w[0] == w[1]));

    println!("\nE3 reproduced: simulation sees what restricted silicon hides.");
    Ok(())
}
