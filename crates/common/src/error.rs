//! The crate-family error type.

use std::fmt;

/// Convenient result alias used across the workspace.
pub type Result<T> = std::result::Result<T, Error>;

/// Errors produced anywhere in the Téléchat pipeline.
///
/// A single error enum is shared by all crates in the workspace: the pipeline
/// stages compose (`diy → l2c → c2s → s2l → herd → mcompare`) and callers
/// almost always propagate errors upward to the per-test verdict, so a shared
/// type avoids a ladder of `From` conversions.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// A source text (litmus, assembly, Cat model, config) failed to parse.
    Parse {
        /// Human-readable description of the problem.
        msg: String,
        /// 1-based line number, when known.
        line: Option<usize>,
    },
    /// A Cat model failed to evaluate (unknown identifier, type mismatch…).
    Model(String),
    /// A litmus program is ill-formed (undefined register, bad address…).
    IllFormed(String),
    /// The simulator exceeded a budget (state explosion).
    Budget {
        /// What was counted when the budget ran out, by source: for the
        /// trace interpreter's step budget, the interpreter steps spent;
        /// for the candidate budget, the candidate executions of the trace
        /// combos up to and including the one that crossed it (counted
        /// before any of them is enumerated, so it does not depend on the
        /// clock).
        steps: u64,
    },
    /// The simulation exceeded its wall-clock timeout.
    Timeout {
        /// The configured limit, in milliseconds.
        limit_ms: u64,
    },
    /// A generated test is structurally well-formed but can never witness
    /// anything: its cycle lacks the communication edges that make the
    /// `exists` clause observable, or the clause is self-contradictory
    /// (two required values for one state key). Generators reject these
    /// instead of emitting vacuous tests.
    Vacuous(String),
    /// A feature is not supported by the selected architecture or compiler.
    Unsupported(String),
    /// The compiler under test crashed (internal compiler error).
    InternalCompilerError(String),
    /// A pipeline leg panicked and the panic was caught at an isolation
    /// boundary (the campaign driver's `catch_unwind`). The payload is the
    /// panic message. A panicking work item degrades to an error cell
    /// instead of killing the whole campaign.
    Panicked(String),
    /// A campaign work item exceeded its wall-clock deadline
    /// (`SimConfig::deadline`) — distinct from [`Error::Timeout`], which is
    /// the *simulator's own* cooperative budget check: the deadline also
    /// catches legs stalled outside the enumerator (I/O, injected stalls).
    Deadline {
        /// The configured limit, in milliseconds.
        limit_ms: u64,
    },
    /// An I/O failure in the persistent campaign store. Store I/O errors
    /// degrade (the affected entry stays memory-only) rather than failing
    /// the campaign; this variant surfaces them where a caller asks.
    Io(String),
    /// A campaign journal is unusable or inconsistent where correctness
    /// demands it be exact: a shard merge found overlapping, missing or
    /// foreign journals, or a journal file opened for adoption has no
    /// valid header. Unlike store/journal *write* failures (which degrade),
    /// these are typed errors — serving a wrong merge would break the
    /// exactly-once guarantee.
    Journal(String),
}

impl Error {
    /// Creates a parse error with no line information.
    pub fn parse(msg: impl Into<String>) -> Self {
        Error::Parse {
            msg: msg.into(),
            line: None,
        }
    }

    /// Creates a parse error at a specific 1-based line.
    pub fn parse_at(msg: impl Into<String>, line: usize) -> Self {
        Error::Parse {
            msg: msg.into(),
            line: Some(line),
        }
    }

    /// True if this error is a resource exhaustion (budget or timeout), i.e.
    /// the state-explosion behaviour the paper's §IV-E describes.
    pub fn is_exhaustion(&self) -> bool {
        matches!(self, Error::Budget { .. } | Error::Timeout { .. })
    }

    /// True if this error is a *fault* — a caught panic, a missed
    /// wall-clock deadline, or a store I/O failure — rather than a
    /// deterministic property of the input. Faults are never cached or
    /// persisted: a rerun recomputes instead of replaying them.
    pub fn is_fault(&self) -> bool {
        matches!(
            self,
            Error::Panicked(_) | Error::Deadline { .. } | Error::Io(_)
        )
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Parse { msg, line: Some(l) } => write!(f, "parse error at line {l}: {msg}"),
            Error::Parse { msg, line: None } => write!(f, "parse error: {msg}"),
            Error::Model(m) => write!(f, "model error: {m}"),
            Error::IllFormed(m) => write!(f, "ill-formed program: {m}"),
            Error::Vacuous(m) => write!(f, "vacuous test: {m}"),
            Error::Budget { steps } => write!(f, "enumeration budget exhausted after {steps} steps"),
            Error::Timeout { limit_ms } => write!(f, "simulation timed out after {limit_ms} ms"),
            Error::Unsupported(m) => write!(f, "unsupported: {m}"),
            Error::InternalCompilerError(m) => write!(f, "internal compiler error: {m}"),
            Error::Panicked(m) => write!(f, "work item panicked: {m}"),
            Error::Deadline { limit_ms } => {
                write!(f, "work item missed its {limit_ms} ms wall-clock deadline")
            }
            Error::Io(m) => write!(f, "store i/o error: {m}"),
            Error::Journal(m) => write!(f, "campaign journal: {m}"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_line() {
        let e = Error::parse_at("unexpected token", 3);
        assert_eq!(e.to_string(), "parse error at line 3: unexpected token");
    }

    #[test]
    fn exhaustion_classification() {
        assert!(Error::Budget { steps: 10 }.is_exhaustion());
        assert!(Error::Timeout { limit_ms: 5 }.is_exhaustion());
        assert!(!Error::parse("x").is_exhaustion());
    }

    #[test]
    fn fault_classification() {
        assert!(Error::Panicked("boom".into()).is_fault());
        assert!(Error::Deadline { limit_ms: 50 }.is_fault());
        assert!(Error::Io("disk full".into()).is_fault());
        assert!(!Error::Budget { steps: 10 }.is_fault());
        assert!(!Error::Deadline { limit_ms: 50 }.is_exhaustion());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<Error>();
    }
}
