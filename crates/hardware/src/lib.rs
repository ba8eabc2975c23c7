//! Simulated silicon: a `litmus7`-style hardware test runner.
//!
//! The paper's central observation about hardware-backed testing (§II-A,
//! §IV-A): *"silicon manufacturers may implement restricted variants of an
//! architecture model, \[so\] hardware executions may omit behaviours
//! allowed by the model"*, and weak outcomes appear only under stress —
//! Windsor et al. missed the Fig. 7 load-buffering outcome on a Raspberry
//! Pi that never exhibits it, while Sarkar et al. observed it on an Apple
//! A9 and an Nvidia Tegra2.
//!
//! A [`Chip`] is an architecture plus an optional *strength profile* (an
//! extra Cat model intersected with the architecture model — behaviours
//! the micro-architecture never produces) and a weak-outcome probability.
//! [`LitmusRunner::run`] samples outcomes the way repeated hardware runs
//! would: strong (SC) outcomes dominate; weak outcomes surface with a
//! probability scaled by the stress parameter.

use std::collections::BTreeMap;
use telechat_cat::{CatModel, ModelIntersection};
use telechat_common::{Arch, Error, Outcome, OutcomeSet, Result, XorShiftRng};
use telechat_exec::{simulate, ConsistencyModel, SeqCstRef, SimConfig};
use telechat_litmus::LitmusTest;

/// A piece of silicon: its architecture, what it actually implements, and
/// how reluctant it is to show weak behaviour.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Chip {
    /// Marketing name.
    pub name: &'static str,
    /// Architecture the chip implements.
    pub arch: Arch,
    /// Extra bundled model intersected with the architecture model —
    /// behaviours outside it never occur on this chip. `None` = the chip
    /// exhibits the full architectural envelope.
    pub strength_profile: Option<&'static str>,
    /// Base probability weight of each weak outcome at stress 100
    /// (relative to 1.0 for each SC outcome).
    pub weak_bias: f64,
}

/// An in-order-ish Raspberry Pi 4: never exhibits load buffering — the
/// chip on which C4 missed the Fig. 7 behaviour.
pub const RASPBERRY_PI_4: Chip = Chip {
    name: "Raspberry Pi 4",
    arch: Arch::AArch64,
    strength_profile: Some("hw-inorder"),
    weak_bias: 0.05,
};

/// An Apple A9: aggressively out-of-order, exhibits load buffering
/// (Sarkar et al. \[70\]).
pub const APPLE_A9: Chip = Chip {
    name: "Apple A9",
    arch: Arch::AArch64,
    strength_profile: None,
    weak_bias: 0.2,
};

/// A Cavium ThunderX2 (the paper's 224-core campaign machine).
pub const THUNDER_X2: Chip = Chip {
    name: "Cavium ThunderX2",
    arch: Arch::AArch64,
    strength_profile: None,
    weak_bias: 0.1,
};

/// An Nvidia Tegra2 (Armv7; also exhibits LB per \[70\]).
pub const TEGRA2: Chip = Chip {
    name: "Nvidia Tegra2",
    arch: Arch::Armv7,
    strength_profile: None,
    weak_bias: 0.15,
};

/// A histogram of observed final states, as `litmus7` prints.
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct Histogram(BTreeMap<Outcome, u64>);

impl Histogram {
    /// Outcomes observed at least once.
    pub fn observed(&self) -> OutcomeSet {
        self.0.keys().cloned().collect()
    }

    /// The count for one outcome.
    pub fn count(&self, o: &Outcome) -> u64 {
        self.0.get(o).copied().unwrap_or(0)
    }

    /// Total runs recorded.
    pub fn total(&self) -> u64 {
        self.0.values().sum()
    }

    /// Iterates `(outcome, count)` in canonical order.
    pub fn iter(&self) -> impl Iterator<Item = (&Outcome, u64)> {
        self.0.iter().map(|(o, c)| (o, *c))
    }
}

/// Weighted index sampling over `f64` weights (cumulative-sum method),
/// driven by the workspace-shared deterministic [`XorShiftRng`] — the
/// offline stand-in for `rand`'s `WeightedIndex` (no registry crates are
/// available in this build environment).
#[derive(Debug, Clone)]
struct WeightedIndex {
    cumulative: Vec<f64>,
    total: f64,
}

impl WeightedIndex {
    fn new(weights: &[f64]) -> Result<WeightedIndex> {
        if weights.is_empty() || weights.iter().any(|w| !w.is_finite() || *w < 0.0) {
            return Err(Error::Unsupported(
                "sampling weights: empty or invalid".into(),
            ));
        }
        let mut cumulative = Vec::with_capacity(weights.len());
        let mut total = 0.0;
        for w in weights {
            total += w;
            cumulative.push(total);
        }
        if total <= 0.0 {
            return Err(Error::Unsupported("sampling weights: all zero".into()));
        }
        Ok(WeightedIndex { cumulative, total })
    }

    fn sample(&self, rng: &mut XorShiftRng) -> usize {
        let x = rng.next_f64() * self.total;
        self.cumulative
            .iter()
            .position(|&c| x < c)
            .unwrap_or(self.cumulative.len() - 1)
    }
}

/// Runs litmus tests on a simulated chip.
#[derive(Debug)]
pub struct LitmusRunner {
    chip: Chip,
    rng: XorShiftRng,
    sim: SimConfig,
}

impl LitmusRunner {
    /// A runner with a deterministic seed (experiments are repeatable; the
    /// *hardware* is what's nondeterministic across seeds).
    pub fn new(chip: Chip, seed: u64) -> LitmusRunner {
        LitmusRunner {
            chip,
            rng: XorShiftRng::seed_from_u64(seed),
            sim: SimConfig::default(),
        }
    }

    /// The chip.
    pub fn chip(&self) -> &Chip {
        &self.chip
    }

    /// Runs `test` `runs` times at the given stress level (0–100; paper:
    /// C4 "stress-tests" hardware to coax out weak outcomes).
    ///
    /// # Errors
    ///
    /// Fails on architecture mismatch or simulation errors.
    pub fn run(&mut self, test: &LitmusTest, runs: u64, stress: u32) -> Result<Histogram> {
        if test.arch != self.chip.arch {
            return Err(Error::Unsupported(format!(
                "{} cannot execute {} code",
                self.chip.name, test.arch
            )));
        }
        // What this silicon can produce: the architecture model,
        // restricted by the chip's strength profile.
        let arch_model = CatModel::for_arch(self.chip.arch)?;
        let chip_model: Box<dyn ConsistencyModel> = match self.chip.strength_profile {
            Some(p) => Box::new(ModelIntersection::new(vec![
                arch_model,
                CatModel::bundled(p)?,
            ])),
            None => Box::new(arch_model),
        };
        let possible = simulate(test, chip_model.as_ref(), &self.sim)?;
        // SC outcomes are the common ones; everything else needs luck.
        let sc = simulate(test, &SeqCstRef, &self.sim)?;

        let outcomes: Vec<Outcome> = possible.outcomes.iter().cloned().collect();
        if outcomes.is_empty() {
            return Ok(Histogram::default());
        }
        let weights: Vec<f64> = outcomes
            .iter()
            .map(|o| {
                if sc.outcomes.contains(o) {
                    1.0
                } else {
                    (self.chip.weak_bias * f64::from(stress) / 100.0).max(1e-9)
                }
            })
            .collect();
        let dist = WeightedIndex::new(&weights)?;
        let mut hist = Histogram::default();
        for _ in 0..runs {
            let idx = dist.sample(&mut self.rng);
            *hist.0.entry(outcomes[idx].clone()).or_insert(0) += 1;
        }
        Ok(hist)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use telechat_common::{Reg, StateKey, ThreadId, Val};
    use telechat_isa::aarch64::A64Instr;
    use telechat_isa::{AsmCode, AsmTest};
    use telechat_litmus::{Condition, LocDecl, Prop};

    /// The compiled LB test (registers pre-initialised, plain LDR/STR).
    fn lb_a64() -> LitmusTest {
        let thread = || {
            AsmCode::A64(vec![
                A64Instr::Ldr {
                    dst: "w0".into(),
                    base: "x1".into(),
                },
                A64Instr::MovImm {
                    dst: "w2".into(),
                    imm: 1,
                },
                A64Instr::Str {
                    src: "w2".into(),
                    base: "x3".into(),
                },
            ])
        };
        AsmTest {
            name: "LB-a64".into(),
            locs: vec![LocDecl::atomic("x", 0), LocDecl::atomic("y", 0)],
            reg_init: vec![
                (ThreadId(0), Reg::new("X1"), Val::Addr("x".into())),
                (ThreadId(0), Reg::new("X3"), Val::Addr("y".into())),
                (ThreadId(1), Reg::new("X1"), Val::Addr("y".into())),
                (ThreadId(1), Reg::new("X3"), Val::Addr("x".into())),
            ],
            threads: vec![thread(), thread()],
            condition: Condition::exists(
                Prop::atom(StateKey::reg(ThreadId(0), "X0"), 1i64)
                    .and(Prop::atom(StateKey::reg(ThreadId(1), "X0"), 1i64)),
            ),
            observed: vec![],
        }
        .to_litmus()
        .unwrap()
    }

    fn weak_outcome() -> Outcome {
        let mut o = Outcome::new();
        o.set(StateKey::reg(ThreadId(0), "X0"), Val::Int(1));
        o.set(StateKey::reg(ThreadId(1), "X0"), Val::Int(1));
        o
    }

    #[test]
    fn raspberry_pi_never_shows_load_buffering() {
        let mut runner = LitmusRunner::new(RASPBERRY_PI_4, 42);
        let hist = runner.run(&lb_a64(), 10_000, 100).unwrap();
        assert_eq!(
            hist.count(&weak_outcome()),
            0,
            "the Pi's profile forbids LB (the C4 miss)"
        );
        assert!(hist.total() == 10_000);
    }

    #[test]
    fn apple_a9_shows_load_buffering_under_stress() {
        let mut runner = LitmusRunner::new(APPLE_A9, 42);
        let hist = runner.run(&lb_a64(), 10_000, 100).unwrap();
        assert!(
            hist.count(&weak_outcome()) > 0,
            "A9 exhibits LB (Sarkar et al.): {hist:?}"
        );
    }

    #[test]
    fn no_stress_rarely_shows_weak_outcomes() {
        let mut runner = LitmusRunner::new(APPLE_A9, 42);
        let relaxed = runner.run(&lb_a64(), 1_000, 0).unwrap();
        let stressed = LitmusRunner::new(APPLE_A9, 42)
            .run(&lb_a64(), 1_000, 100)
            .unwrap();
        assert!(
            relaxed.count(&weak_outcome()) <= stressed.count(&weak_outcome()),
            "stress increases weak-outcome frequency"
        );
    }

    #[test]
    fn wrong_architecture_rejected() {
        let mut runner = LitmusRunner::new(TEGRA2, 1);
        assert!(matches!(
            runner.run(&lb_a64(), 10, 0),
            Err(Error::Unsupported(_))
        ));
    }

    #[test]
    fn deterministic_given_seed() {
        let a = LitmusRunner::new(APPLE_A9, 7).run(&lb_a64(), 500, 50).unwrap();
        let b = LitmusRunner::new(APPLE_A9, 7).run(&lb_a64(), 500, 50).unwrap();
        assert_eq!(a, b);
    }
}
