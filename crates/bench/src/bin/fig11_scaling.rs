//! E8 — Paper Fig. 11 and Claim 5: state explosion on unoptimised
//! compiled tests; optimised simulation terminates in milliseconds.

use std::time::{Duration, Instant};
use telechat::{PipelineConfig, Telechat};
use telechat_bench::{banner, expect, FIG11_LB3, FIG7_LB_FENCES};
use telechat_common::{Arch, Error, Result};
use telechat_compiler::{Compiler, CompilerId, OptLevel, Target};
use telechat_exec::SimConfig;
use telechat_litmus::parse_c11;

fn main() -> Result<()> {
    banner("E8 (Fig. 11 / Claim 5)", "litmus optimisation vs state explosion");

    // The optimised pipeline: clang -O3, s2l optimisation on.
    let optimised = Telechat::new("rc11")?;
    let o3 = Compiler::new(
        CompilerId::llvm(11),
        OptLevel::O3,
        Target::new(Arch::AArch64),
    );

    // The unoptimised extraction: clang -O0 (spill/reload traffic) and the
    // s2l optimisation off — the `unoptimised.litmus` of the artefact.
    let unoptimised = Telechat::with_config(
        "rc11",
        PipelineConfig {
            optimise: false,
            sim: SimConfig {
                timeout: Some(Duration::from_secs(10)),
                ..SimConfig::default()
            },
            ..PipelineConfig::default()
        },
    )?;
    let o0 = Compiler::new(
        CompilerId::llvm(11),
        OptLevel::O0,
        Target::new(Arch::AArch64),
    );

    println!("\n-- two-thread LB (Fig. 7 size) --");
    let lb2 = parse_c11(FIG7_LB_FENCES)?;
    let start = Instant::now();
    let r = optimised.run(&lb2, &o3)?;
    let opt2 = start.elapsed();
    expect(
        "optimised target simulation",
        "milliseconds",
        format!("{:?} (sim {:?})", opt2, r.target_time),
    );
    let start = Instant::now();
    let un2 = unoptimised.run(&lb2, &o0);
    let un2_time = start.elapsed();
    match &un2 {
        Ok(r) => expect(
            "unoptimised target simulation",
            "much slower",
            format!("{un2_time:?} (sim {:?})", r.target_time),
        ),
        Err(e) => expect("unoptimised target simulation", "much slower", format!("{e}")),
    }

    println!("\n-- three-thread LB chain (Fig. 11) --");
    let lb3 = parse_c11(FIG11_LB3)?;
    let start = Instant::now();
    let r3 = optimised.run(&lb3, &o3)?;
    let opt3 = start.elapsed();
    expect(
        "optimised simulation of Fig. 11",
        "terminates in milliseconds",
        format!("{opt3:?} (target sim {:?})", r3.target_time),
    );
    assert!(
        r3.target_time < Duration::from_secs(5),
        "optimised Fig. 11 must be fast"
    );

    let start = Instant::now();
    let r3u = unoptimised.run(&lb3, &o0);
    let un3_time = start.elapsed();
    // The candidate budget is counted before the enumeration, so the
    // exhaustion is a property of the test, not of the clock.
    match r3u {
        Err(e @ Error::Budget { .. }) => expect(
            "unoptimised simulation of Fig. 11",
            "does not terminate (1 h timeout)",
            format!("exhausted after {un3_time:?}: {e}"),
        ),
        Err(e) => {
            expect("unoptimised simulation of Fig. 11", "budget exhausted", format!("{e}"));
            panic!("unoptimised Fig. 11 failed without exhausting its candidate budget: {e}");
        }
        Ok(r) => {
            expect(
                "unoptimised simulation of Fig. 11",
                "does not terminate",
                format!("finished in {:?} — check budget settings", r.target_time),
            );
            panic!("unoptimised Fig. 11 unexpectedly terminated");
        }
    }

    println!("\n-- LoC scaling sweep (paper: herd limited to ~40-50 LoC) --");
    println!("{:>10} {:>14} {:>16}", "threads", "optimised", "unoptimised");
    for threads in 2..=3 {
        let test = if threads == 2 { &lb2 } else { &lb3 };
        let t0 = Instant::now();
        let _ = optimised.run(test, &o3)?;
        let opt = t0.elapsed();
        let t0 = Instant::now();
        let un = match unoptimised.run(test, &o0) {
            Ok(r) => format!("{:?}", r.target_time),
            Err(_) => format!("exhausted at {:?}", t0.elapsed()),
        };
        println!("{threads:>10} {opt:>14?} {un:>16}");
    }

    println!("\nE8 reproduced: the s2l optimisation is what makes testing scale.");
    Ok(())
}
