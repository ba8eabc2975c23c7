//! Compilation targets: architecture plus ISA extensions.

use std::fmt;
use telechat_common::Arch;

/// Architecture extensions that change instruction selection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub struct ArchExt {
    /// Armv8.1 Large Systems Extension: LSE atomics (`LDADD`, `SWP`, `CAS`).
    pub lse: bool,
    /// Armv8.3 RCpc: the `LDAPR` acquire-PC load (§IV-F case study).
    pub rcpc: bool,
    /// Armv8.4 LSE2: aligned `LDP`/`STP` are single-copy atomic (16 bytes).
    pub lse2: bool,
}

/// A compilation target.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct Target {
    /// Target architecture.
    pub arch: Arch,
    /// Enabled extensions (AArch64 only; ignored elsewhere).
    pub ext: ArchExt,
    /// Position-independent code: shared globals are reached through
    /// GOT/TOC/literal-pool loads — the address-materialisation memory
    /// traffic the `s2l` optimiser later removes (paper §IV-E).
    pub pic: bool,
}

impl Target {
    /// The plain (v8.0-like) target for an architecture, PIC as distro
    /// compilers default to.
    pub fn new(arch: Arch) -> Target {
        Target {
            arch,
            ext: ArchExt::default(),
            pic: true,
        }
    }

    /// Armv8.1-a with LSE (the Fig. 10 target).
    pub fn armv81_lse() -> Target {
        Target {
            arch: Arch::AArch64,
            ext: ArchExt {
                lse: true,
                ..ArchExt::default()
            },
            pic: true,
        }
    }

    /// Armv8.3-a with LSE and RCpc (the LDAPR case-study target, §IV-F).
    pub fn armv83_rcpc() -> Target {
        Target {
            arch: Arch::AArch64,
            ext: ArchExt {
                lse: true,
                rcpc: true,
                lse2: false,
            },
            pic: true,
        }
    }

    /// Armv8.4-a with LSE2 (the 128-bit atomics target, bugs [36]/[37]/[39]).
    pub fn armv84_lse2() -> Target {
        Target {
            arch: Arch::AArch64,
            ext: ArchExt {
                lse: true,
                rcpc: true,
                lse2: true,
            },
            pic: true,
        }
    }

    /// Disables position-independent code (direct ADRP/ADD addressing).
    #[must_use]
    pub fn without_pic(mut self) -> Target {
        self.pic = false;
        self
    }
}

impl fmt::Display for Target {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.arch)?;
        if self.arch == Arch::AArch64 {
            if self.ext.lse2 {
                write!(f, "+lse2")?;
            } else if self.ext.lse {
                write!(f, "+lse")?;
            }
            if self.ext.rcpc {
                write!(f, "+rcpc")?;
            }
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn presets() {
        assert!(Target::armv81_lse().ext.lse);
        assert!(!Target::armv81_lse().ext.lse2);
        assert!(Target::armv84_lse2().ext.lse2);
        assert!(Target::armv83_rcpc().ext.rcpc);
        assert!(Target::new(Arch::X86_64).pic);
        assert!(!Target::new(Arch::X86_64).without_pic().pic);
    }

    #[test]
    fn display() {
        assert_eq!(Target::armv84_lse2().to_string(), "AArch64+lse2+rcpc");
        assert_eq!(Target::new(Arch::Mips).to_string(), "MIPS");
    }
}
