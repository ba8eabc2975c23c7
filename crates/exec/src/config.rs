//! Simulation configuration and results.

use std::collections::{BTreeMap, BTreeSet};
use std::time::Duration;
use telechat_common::OutcomeSet;
use telechat_obs::Histogram;

/// Limits and switches for one simulation run.
///
/// The defaults mirror the paper's artefact: a 120-second timeout
/// (`TIMEOUT=120.0` in the Makefile), loop unroll factor 2, and exclusives
/// that always succeed (herd's `-speedcheck`-style fast path).
#[derive(Debug, Clone)]
pub struct SimConfig {
    /// Backward-jump bound per label (loop unroll factor).
    pub unroll: usize,
    /// Fix-point rounds for the candidate-value pools.
    pub max_pool_iters: usize,
    /// Interpreter instruction-step budget (all threads, all forks).
    pub max_steps: u64,
    /// Candidate-execution budget (rf × co combinations examined).
    pub max_candidates: u64,
    /// Wall-clock limit for the whole simulation.
    pub timeout: Option<Duration>,
    /// Wall-clock deadline for one campaign *work item* (prepare, compile,
    /// extract and both simulation legs). Enforced by the campaign driver,
    /// not the enumerator: a work item that overruns — including one
    /// stalled *outside* the simulator's cooperative [`SimConfig::timeout`]
    /// checks — is abandoned and becomes a typed
    /// `Error::Deadline` cell while the rest of the campaign completes.
    /// `None` (the default) disables the watchdog. Excluded from the cache
    /// key (`sim_config_fingerprint`): it is an enforcement knob, not a
    /// semantic input — cached results are only ever recorded from runs
    /// that finished.
    pub deadline: Option<Duration>,
    /// Explore store-exclusive failure paths (off = exclusives always
    /// succeed, the common litmus assumption).
    pub excl_fail_paths: bool,
    /// Keep allowed executions (for rendering figures); bounded by
    /// `max_kept`.
    pub keep_executions: bool,
    /// Maximum executions kept when `keep_executions` is set.
    pub max_kept: usize,
}

impl Default for SimConfig {
    fn default() -> Self {
        SimConfig {
            unroll: 2,
            max_pool_iters: 4,
            max_steps: 4_000_000,
            max_candidates: 4_000_000,
            timeout: Some(Duration::from_secs(120)),
            deadline: None,
            excl_fail_paths: false,
            keep_executions: false,
            max_kept: 64,
        }
    }
}

impl SimConfig {
    /// A configuration with a short timeout, for large campaigns.
    pub fn fast() -> SimConfig {
        SimConfig {
            timeout: Some(Duration::from_secs(5)),
            max_steps: 400_000,
            max_candidates: 200_000,
            ..SimConfig::default()
        }
    }

    /// Keeps allowed executions for rendering.
    #[must_use]
    pub fn keeping_executions(mut self) -> SimConfig {
        self.keep_executions = true;
        self
    }

    /// Sets the wall-clock timeout.
    #[must_use]
    pub fn with_timeout(mut self, timeout: Duration) -> SimConfig {
        self.timeout = Some(timeout);
        self
    }

    /// Sets the campaign work-item wall-clock deadline (see
    /// [`SimConfig::deadline`]).
    #[must_use]
    pub fn with_deadline(mut self, deadline: Duration) -> SimConfig {
        self.deadline = Some(deadline);
        self
    }
}

/// The result of simulating a litmus test under a model.
#[derive(Debug, Clone)]
pub struct SimResult {
    /// Outcomes of all allowed executions (paper Def. II.2).
    pub outcomes: OutcomeSet,
    /// Number of candidate executions examined.
    pub candidates: u64,
    /// Number of allowed executions.
    pub allowed: u64,
    /// Flag checks that fired on at least one allowed execution
    /// (e.g. `race`, `const-write`).
    pub flags: BTreeSet<String>,
    /// True if an allowed execution wrote to a `const` (read-only) location
    /// — a runtime crash in the compiled program (paper bug [36]).
    pub crashed: bool,
    /// Allowed executions, when [`SimConfig::keep_executions`] was set.
    pub executions: Vec<crate::event::Execution>,
    /// Full (non-incremental) acyclicity traversals run during this
    /// simulation. Zero whenever every model session answered from
    /// incremental per-edge state — the pinned property for the bundled
    /// interpreted models.
    pub full_traversals: u64,
    /// Candidate executions accounted for by pruned subtrees (rf and
    /// coherence cutoffs in the DFS) rather than visited leaves:
    /// `candidates` = leaves + this.
    pub pruned_candidates: u64,
    /// rf/co edge pushes into incremental model sessions (0 when no
    /// session is incremental).
    pub pushes: u64,
    /// Work units the incremental sessions reported for those pushes
    /// ([`crate::ComboChecker::frontier_evals`]: for the staged Cat
    /// engine, the frontier bindings and staged constraints each push
    /// evaluated or delta-updated).
    pub frontier_evals: u64,
    /// Leaf verdict attribution: for every candidate the model forbade,
    /// the first-violated rule name (a `.cat` constraint, or the built-in
    /// session's axiom tag) → how many leaves it killed.
    pub rule_leaves: BTreeMap<String, u64>,
    /// Mid-DFS prune attribution: pruned-candidate *charge* blamed on the
    /// rule the incremental session reported as first-violated when the
    /// subtree was cut (empty for models that prune without naming a
    /// rule). Sums to at most [`SimResult::pruned_candidates`].
    pub rule_prunes: BTreeMap<String, u64>,
    /// Which of the four enumeration prune sites (rf/co × incremental
    /// check / periodic recheck) accounted each pruned charge.
    pub prune_sites: PruneSites,
    /// Per-combo DFS size distribution: one sample per rf-combo, the
    /// candidate charge (leaves + pruned) accounted inside it.
    pub combo_candidates: Histogram,
    /// Wall-clock time spent.
    pub elapsed: Duration,
}

/// Pruned-candidate charge broken down by enumeration prune site: which
/// assignment layer (`rf` or `co`) cut the subtree, and whether the
/// incremental per-edge session said so immediately (`incremental`) or a
/// periodic full recheck caught it (`recheck`). Charge sums, like
/// [`SimResult::pruned_candidates`].
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct PruneSites {
    /// Charge pruned at an rf assignment by the incremental session.
    pub rf_incremental: u64,
    /// Charge pruned at an rf assignment by a periodic full recheck.
    pub rf_recheck: u64,
    /// Charge pruned at a co assignment by the incremental session.
    pub co_incremental: u64,
    /// Charge pruned at a co assignment by a periodic full recheck.
    pub co_recheck: u64,
}

impl PruneSites {
    /// Total charge across all four sites.
    pub fn total(&self) -> u64 {
        self.rf_incremental + self.rf_recheck + self.co_incremental + self.co_recheck
    }

    /// `(site label, charge)` rows in fixed order, for metric sinks and
    /// codecs.
    pub fn rows(&self) -> [(&'static str, u64); 4] {
        [
            ("rf.incremental", self.rf_incremental),
            ("rf.recheck", self.rf_recheck),
            ("co.incremental", self.co_incremental),
            ("co.recheck", self.co_recheck),
        ]
    }
}

impl SimResult {
    /// True if any allowed execution fired the named flag.
    pub fn has_flag(&self, name: &str) -> bool {
        self.flags.contains(name)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_artefact() {
        let c = SimConfig::default();
        assert_eq!(c.unroll, 2);
        assert_eq!(c.timeout, Some(Duration::from_secs(120)));
        assert!(!c.excl_fail_paths);
    }

    #[test]
    fn builders() {
        let c = SimConfig::fast()
            .keeping_executions()
            .with_timeout(Duration::from_millis(10));
        assert!(c.keep_executions);
        assert_eq!(c.timeout, Some(Duration::from_millis(10)));
    }
}
