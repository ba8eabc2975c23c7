//! Output checks: the table's text, the paper's Table IV shape, and the
//! reference oracle that re-decides a seeded sample of work items.

use crate::itemwise::{ErrorKind, Item, Verdict};
use crate::workload::pipeline_config;
use std::collections::BTreeMap;
use std::fmt::Write;
use std::sync::Arc;
use std::time::Duration;
use telechat::{mcompare, object_to_litmus, prepare, CampaignResult, S2lOptions, StateMapping};
use telechat_cat::{CatModel, ModelRegistry};
use telechat_common::{Arch, Error, XorShiftRng};
use telechat_compiler::{Compiler, CompilerFamily, OptLevel};
use telechat_exec::{simulate_reference, SimConfig, SimResult};
use telechat_litmus::LitmusTest;

/// The table a campaign prints, without its traffic rows, followed by the
/// sorted positive-difference list: two campaigns decided the same items
/// the same way iff these texts are byte-identical.
pub fn table_text(r: &CampaignResult) -> String {
    let bare = CampaignResult {
        cells: r.cells.clone(),
        source_tests: r.source_tests,
        compiled_tests: r.compiled_tests,
        positive_tests: r.positive_tests.clone(),
        ..CampaignResult::default()
    };
    let mut text = bare.to_string();
    for (test, profile) in &bare.positive_tests {
        let _ = writeln!(text, "+ve {test} {profile}");
    }
    text
}

/// Error cells over items attempted.
pub fn error_share(r: &CampaignResult) -> f64 {
    let errors: usize = r.cells.values().map(|c| c.errors).sum();
    errors as f64 / r.compiled_tests.max(1) as f64
}

/// The paper's Table IV shape (§IV-D): positive differences on AArch64,
/// Armv7, RISC-V and POWER only, and Armv7 `gcc -O1` above `clang -O1`.
pub fn table_iv_shape(r: &CampaignResult) -> std::result::Result<(), String> {
    let pos = |arch, fam, opt| r.cell(arch, fam, opt).map_or(0, |c| c.positive);
    let arch_pos = |arch| -> usize {
        OptLevel::CAMPAIGN
            .iter()
            .map(|&o| pos(arch, CompilerFamily::Llvm, o) + pos(arch, CompilerFamily::Gcc, o))
            .sum()
    };
    for arch in [Arch::AArch64, Arch::Armv7, Arch::RiscV, Arch::Ppc] {
        if arch_pos(arch) == 0 {
            return Err(format!("{arch}: no positive differences"));
        }
    }
    for arch in [Arch::X86_64, Arch::Mips] {
        if arch_pos(arch) != 0 {
            return Err(format!("{arch}: {} positive differences", arch_pos(arch)));
        }
    }
    let gcc = pos(Arch::Armv7, CompilerFamily::Gcc, OptLevel::O1);
    let clang = pos(Arch::Armv7, CompilerFamily::Llvm, OptLevel::O1);
    if gcc <= clang {
        return Err(format!("Armv7 -O1: gcc {gcc} not above clang {clang}"));
    }
    Ok(())
}

/// What the oracle said about a sampled item.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Answer {
    /// The oracle decided the item.
    Decided(Verdict),
    /// The oracle exceeded its own budget: the item is unchecked.
    Unchecked,
}

/// The result of re-deciding a sample.
#[derive(Debug, Default)]
pub struct OracleReport {
    /// Items the oracle decided.
    pub checked: u64,
    /// Of those, items whose verdict matched.
    pub right: u64,
    /// Items the oracle could not decide within its budget.
    pub unchecked: u64,
    /// `test profile: engine vs oracle` for every mismatch.
    pub mismatches: Vec<String>,
}

impl OracleReport {
    /// The share of checked items decided right (1.0 when none checked).
    pub fn right_share(&self) -> f64 {
        if self.checked == 0 {
            1.0
        } else {
            self.right as f64 / self.checked as f64
        }
    }
}

/// The oracle's budget per leg: the campaign's candidate and step budgets,
/// so exhaustion agrees exactly, and a short timeout past which the naive
/// enumerator gives up and the item is unchecked.
fn oracle_config() -> SimConfig {
    SimConfig::fast().with_timeout(Duration::from_millis(400))
}

/// Re-decides a seeded sample of `items` on the uncached path —
/// `l2c::prepare`, compile, extract, then `simulate_reference` on both
/// legs and `mcompare` — and compares each verdict with the engine's.
pub fn oracle_sample(
    items: &[Item],
    tests: &[LitmusTest],
    profiles: &[Compiler],
    sample: usize,
    seed: u64,
) -> OracleReport {
    let source_model = ModelRegistry::global()
        .bundled(Arch::C11.default_model())
        .expect("the source model is bundled");
    let mut rng = XorShiftRng::seed_from_u64(seed ^ 0x0AC1_E000_0000_0002);
    let mut picked = std::collections::BTreeSet::new();
    while picked.len() < sample.min(items.len()) {
        picked.insert(rng.below(items.len() as u64) as usize);
    }
    let mut sources = BTreeMap::new();
    let mut report = OracleReport::default();
    for idx in picked {
        let item = &items[idx];
        let test = &tests[item.test];
        let compiler = &profiles[item.profile];
        let answer = oracle_decide(test, compiler, &source_model, item.test, &mut sources);
        match answer {
            Answer::Unchecked => report.unchecked += 1,
            Answer::Decided(v) => {
                report.checked += 1;
                if v == item.verdict {
                    report.right += 1;
                } else {
                    report.mismatches.push(format!(
                        "{} {}: engine {:?} vs oracle {v:?}",
                        test.name,
                        compiler.profile_name(),
                        item.verdict
                    ));
                }
            }
        }
    }
    report
}

fn oracle_decide(
    test: &LitmusTest,
    compiler: &Compiler,
    source_model: &CatModel,
    test_idx: usize,
    sources: &mut BTreeMap<usize, std::result::Result<Arc<SimResult>, Answer>>,
) -> Answer {
    let config = pipeline_config();
    let oracle = oracle_config();
    let prepared = prepare(test, config.augment);
    let compiled = match compiler.compile(&prepared.test) {
        Ok(c) => c,
        Err(e) => return Answer::Decided(Verdict::of_error(&e, ErrorKind::Compile)),
    };
    let mapping = StateMapping::build(
        prepared.observed_keys.iter().cloned(),
        &prepared.augmented,
        &compiled.reg_map,
    );
    let name = format!("{}.{}", compiled.profile, test.name);
    let target = match object_to_litmus(
        &compiled.object,
        &name,
        &test.condition,
        &test.observed,
        &mapping,
        S2lOptions {
            optimise: config.optimise,
        },
    ) {
        Ok((_, t)) => t,
        Err(e) => return Answer::Decided(Verdict::of_error(&e, ErrorKind::Extract)),
    };
    let leg = |t: &LitmusTest, m: &CatModel| match simulate_reference(t, m, &oracle) {
        Ok(r) => Ok(Arc::new(r)),
        Err(Error::Timeout { .. }) => Err(Answer::Unchecked),
        Err(e) => Err(Answer::Decided(Verdict::of_error(&e, ErrorKind::Other))),
    };
    let source = match sources
        .entry(test_idx)
        .or_insert_with(|| leg(&prepared.test, source_model))
    {
        Ok(r) => r.clone(),
        Err(a) => return *a,
    };
    let model = match ModelRegistry::global().for_arch(target.arch) {
        Ok(m) => m,
        Err(e) => return Answer::Decided(Verdict::of_error(&e, ErrorKind::Other)),
    };
    let target_result = match leg(&target, &model) {
        Ok(r) => r,
        Err(a) => return a,
    };
    let cmp = mcompare(&source.outcomes, &target_result.outcomes, &mapping);
    Answer::Decided(Verdict::of_legs(
        &source,
        &target_result,
        !cmp.positive.is_empty(),
        !cmp.negative.is_empty(),
    ))
}
