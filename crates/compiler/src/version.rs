//! Compiler identities, optimisation levels and versioned bug knobs.
//!
//! The paper's experiments hinge on *which compiler version* translated the
//! test: the §IV-B/§IV-C bugs exist in some releases and are fixed in
//! later ones. We model that with an explicit bug table: a
//! [`CompilerId`] `has_bug` query gates each buggy emission path. The
//! version-to-bug mapping is schematic (releases compressed to major
//! numbers) but order-faithful: every bug is present before its fix and
//! absent after, matching the paper's reports \[36\]–\[39\] and \[54\].

use std::fmt;
use std::str::FromStr;
use telechat_common::Error;

/// The compiler family under test.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum CompilerFamily {
    /// LLVM/Clang.
    Llvm,
    /// GNU GCC.
    Gcc,
}

impl fmt::Display for CompilerFamily {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CompilerFamily::Llvm => write!(f, "clang"),
            CompilerFamily::Gcc => write!(f, "gcc"),
        }
    }
}

/// A compiler under test: family plus major version.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CompilerId {
    /// Family.
    pub family: CompilerFamily,
    /// Major version (e.g. 11 for LLVM 11, 10 for GCC 10).
    pub major: u32,
}

impl CompilerId {
    /// `clang-<major>`.
    pub fn llvm(major: u32) -> CompilerId {
        CompilerId {
            family: CompilerFamily::Llvm,
            major,
        }
    }

    /// `gcc-<major>`.
    pub fn gcc(major: u32) -> CompilerId {
        CompilerId {
            family: CompilerFamily::Gcc,
            major,
        }
    }

    /// The paper artefact's compilers: LLVM 11, GCC 9 and GCC 10.
    pub fn artefact_compilers() -> Vec<CompilerId> {
        vec![CompilerId::llvm(11), CompilerId::gcc(9), CompilerId::gcc(10)]
    }

    /// A current, fully fixed compiler of each family.
    pub fn latest(family: CompilerFamily) -> CompilerId {
        match family {
            CompilerFamily::Llvm => CompilerId::llvm(17),
            CompilerFamily::Gcc => CompilerId::gcc(13),
        }
    }

    /// Does this release carry the given bug?
    pub fn has_bug(self, bug: BugId) -> bool {
        use CompilerFamily::*;
        match bug {
            // Fetch-add with unused result selected STADD even for ordered
            // RMWs, dropping acquire/release (the first Fig. 10 bug, [54]).
            BugId::StaddSelect => match self.family {
                Llvm => self.major < 10,
                Gcc => self.major < 10,
            },
            // The dead-register-definitions pass zeroed the destination of
            // LSE atomics, turning LDADDAL into an STADD alias (the second
            // Fig. 10 bug, [53]/[55]).
            BugId::DeadRegZeroAtomics => match self.family {
                Llvm => (10..=12).contains(&self.major),
                Gcc => self.major == 10,
            },
            // The same zeroing applied to SWP: atomic_exchange with unused
            // result reorders past a later acquire fence (Fig. 1, bug [38],
            // reported 2023 — fixed only in the newest release here).
            BugId::ExchangeDeadReg => match self.family {
                Llvm => self.major <= 16,
                Gcc => self.major <= 12,
            },
            // 128-bit seq-cst load via bare LDP under LSE2 misses its
            // barrier (bug [37]; GCC fixed first [28], LLVM followed).
            BugId::LdpSeqCstNoBarrier => match self.family {
                Llvm => self.major <= 16,
                Gcc => self.major <= 10,
            },
            // 128-bit atomic store writes its register pair in the wrong
            // order (bug [39]).
            BugId::StpWrongEndian => match self.family {
                Llvm => self.major <= 15,
                Gcc => false,
            },
            // const 128-bit atomic load implemented with a store-pair
            // sequence: crashes on read-only memory (bug [36]); the fix
            // [56] — LDP from Armv8.4 up — landed *before* the barrier fix
            // for [37], so LLVM 16 uses LDP but without seq-cst barriers.
            BugId::ConstAtomicStp => match self.family {
                Llvm => self.major <= 15,
                Gcc => self.major <= 10,
            },
            // GCC if-conversion at -O1 on Armv7 removes control
            // dependencies when both arms store the same value (the
            // llvm-O1-ARM vs gcc-O1-ARM +ve gap of Table IV).
            BugId::CtrlDepElimO1 => match self.family {
                Llvm => false,
                Gcc => true, // behaviour, not fixed: a legal C11 transform
            },
        }
    }
}

impl fmt::Display for CompilerId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}-{}", self.family, self.major)
    }
}

/// The known miscompilation (and transformation) knobs.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum BugId {
    /// STADD selected for ordered fetch-add with unused result.
    StaddSelect,
    /// Dead-register pass zeroes LSE atomic destinations (LDADD family).
    DeadRegZeroAtomics,
    /// Dead-register pass zeroes SWP destinations (atomic_exchange).
    ExchangeDeadReg,
    /// 128-bit seq-cst LDP without barrier.
    LdpSeqCstNoBarrier,
    /// 128-bit store pair wrong-endian.
    StpWrongEndian,
    /// const 128-bit atomic load via store-pair (run-time crash).
    ConstAtomicStp,
    /// -O1 if-conversion drops same-value control dependencies (GCC).
    CtrlDepElimO1,
}

impl BugId {
    /// The bugs the AArch64 back end consults while selecting
    /// instructions. [`BugId::CtrlDepElimO1`] is a middle-end knob.
    pub const A64: [BugId; 6] = [
        BugId::StaddSelect,
        BugId::DeadRegZeroAtomics,
        BugId::ExchangeDeadReg,
        BugId::LdpSeqCstNoBarrier,
        BugId::StpWrongEndian,
        BugId::ConstAtomicStp,
    ];
}

/// A set of [`BugId`]s, one bit each.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct BugSet(u8);

impl BugSet {
    /// The bugs among `bugs` that `compiler` carries.
    pub fn of(compiler: CompilerId, bugs: &[BugId]) -> BugSet {
        BugSet(
            bugs.iter()
                .filter(|&&bug| compiler.has_bug(bug))
                .fold(0, |set, &bug| set | 1 << bug as u8),
        )
    }

    /// Is `bug` in the set?
    pub fn contains(self, bug: BugId) -> bool {
        self.0 & 1 << bug as u8 != 0
    }
}

/// Optimisation level (paper Table III).
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum OptLevel {
    /// No optimisation.
    O0,
    /// `-O1`.
    O1,
    /// `-O2`.
    O2,
    /// `-O3`.
    O3,
    /// `-Ofast`.
    Ofast,
    /// `-Og` (GCC only).
    Og,
}

impl OptLevel {
    /// The levels of the paper's Table IV campaign.
    pub const CAMPAIGN: [OptLevel; 5] = [
        OptLevel::O1,
        OptLevel::O2,
        OptLevel::O3,
        OptLevel::Ofast,
        OptLevel::Og,
    ];

    /// Does this level run the dead-local elimination pass?
    pub fn eliminates_dead_locals(self) -> bool {
        matches!(self, OptLevel::O2 | OptLevel::O3 | OptLevel::Ofast)
    }

    /// Is the level supported by the family? (`clang` has no `-Og`.)
    pub fn supported_by(self, family: CompilerFamily) -> bool {
        !(self == OptLevel::Og && family == CompilerFamily::Llvm)
    }
}

impl fmt::Display for OptLevel {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            OptLevel::O0 => "-O0",
            OptLevel::O1 => "-O1",
            OptLevel::O2 => "-O2",
            OptLevel::O3 => "-O3",
            OptLevel::Ofast => "-Ofast",
            OptLevel::Og => "-Og",
        };
        f.write_str(s)
    }
}

impl FromStr for OptLevel {
    type Err = Error;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s.trim_start_matches('-') {
            "O0" => Ok(OptLevel::O0),
            "O1" => Ok(OptLevel::O1),
            "O2" => Ok(OptLevel::O2),
            "O3" => Ok(OptLevel::O3),
            "Ofast" => Ok(OptLevel::Ofast),
            "Og" => Ok(OptLevel::Og),
            other => Err(Error::parse(format!("unknown optimisation level `{other}`"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bug_table_is_order_faithful() {
        // Every bug fixed in the latest releases.
        for family in [CompilerFamily::Llvm, CompilerFamily::Gcc] {
            let latest = CompilerId::latest(family);
            for bug in [
                BugId::StaddSelect,
                BugId::DeadRegZeroAtomics,
                BugId::ExchangeDeadReg,
                BugId::LdpSeqCstNoBarrier,
                BugId::StpWrongEndian,
                BugId::ConstAtomicStp,
            ] {
                assert!(!latest.has_bug(bug), "{latest} still has {bug:?}");
            }
        }
        // The artefact's LLVM 11 carries the dead-register and exchange
        // bugs (Fig. 10 / Fig. 1).
        let llvm11 = CompilerId::llvm(11);
        assert!(llvm11.has_bug(BugId::DeadRegZeroAtomics));
        assert!(llvm11.has_bug(BugId::ExchangeDeadReg));
        assert!(!llvm11.has_bug(BugId::StaddSelect), "fixed in 10");
    }

    #[test]
    fn bug_sets_hold_exactly_the_carried_bugs() {
        for id in [
            CompilerId::llvm(9),
            CompilerId::llvm(11),
            CompilerId::gcc(10),
        ] {
            let set = BugSet::of(id, &BugId::A64);
            for bug in BugId::A64 {
                assert_eq!(set.contains(bug), id.has_bug(bug), "{id} {bug:?}");
            }
            assert!(!set.contains(BugId::CtrlDepElimO1), "not asked for");
        }
        assert_eq!(
            BugSet::of(CompilerId::llvm(17), &BugId::A64),
            BugSet::default()
        );
    }

    #[test]
    fn opt_levels() {
        assert!(OptLevel::O2.eliminates_dead_locals());
        assert!(!OptLevel::O1.eliminates_dead_locals());
        assert!(!OptLevel::Og.supported_by(CompilerFamily::Llvm));
        assert!(OptLevel::Og.supported_by(CompilerFamily::Gcc));
        assert_eq!("O2".parse::<OptLevel>().unwrap(), OptLevel::O2);
        assert_eq!("-Ofast".parse::<OptLevel>().unwrap(), OptLevel::Ofast);
        assert!("Oz".parse::<OptLevel>().is_err());
    }

    #[test]
    fn display_forms() {
        assert_eq!(CompilerId::llvm(11).to_string(), "clang-11");
        assert_eq!(CompilerId::gcc(10).to_string(), "gcc-10");
        assert_eq!(OptLevel::Ofast.to_string(), "-Ofast");
    }
}
