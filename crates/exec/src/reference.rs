//! The naive generate-then-filter enumerator, retained as a reference.
//!
//! This is the pre-refactor engine: it materialises **all** coherence
//! permutations per location up front (Heap's algorithm), drives a
//! single-threaded odometer over rf × co choices, and only consults the
//! consistency model once each candidate is fully built. It is the
//! slowest possible shape of the paper's `herd(P, M)` — kept on purpose:
//!
//! * the differential property tests (`tests/soundness_props.rs`) pin the
//!   incremental engine in [`crate::enumerate`] to produce byte-identical
//!   outcome sets against this oracle;
//! * `bench_relops`'s `engine.reference_ms` row measures what the staged
//!   builder buys.
//!
//! Use [`crate::simulate`] for real work.

use crate::config::{SimConfig, SimResult};
use crate::enumerate::{build_combined, interpret_all_traces, Combined};
use crate::event::{Event, EventKind, Execution};
use crate::model::ConsistencyModel;
use crate::rel::Relation;
use crate::trace::Trace;
use std::collections::{BTreeMap, BTreeSet};
use std::time::Instant;
use telechat_common::{Error, EventId, Loc, Outcome, OutcomeSet, Result, StateKey, Val};
use telechat_litmus::LitmusTest;

/// Simulates `test` under `model` with the naive reference enumerator.
///
/// Semantically equivalent to [`crate::simulate`] (the property tests
/// enforce it).
///
/// # Errors
///
/// As [`crate::simulate`]: [`Error::Timeout`] / [`Error::Budget`] on
/// state explosion, [`Error::IllFormed`] on invalid tests.
pub fn simulate_reference(
    test: &LitmusTest,
    model: &dyn ConsistencyModel,
    config: &SimConfig,
) -> Result<SimResult> {
    test.validate()?;
    let start = Instant::now();
    let ft_start = crate::rel::full_traversals();
    let deadline = config.timeout.map(|t| start + t);

    let thread_traces = interpret_all_traces(test, config)?;

    let observed = test.observed_keys();
    let readonly: BTreeSet<Loc> = test
        .locs
        .iter()
        .filter(|d| d.readonly)
        .map(|d| d.loc.clone())
        .collect();

    let mut result = SimResult {
        outcomes: OutcomeSet::new(),
        candidates: 0,
        allowed: 0,
        flags: BTreeSet::new(),
        crashed: false,
        executions: Vec::new(),
        full_traversals: 0,
        pruned_candidates: 0,
        pushes: 0,
        frontier_evals: 0,
        rule_leaves: std::collections::BTreeMap::new(),
        rule_prunes: std::collections::BTreeMap::new(),
        prune_sites: crate::config::PruneSites::default(),
        combo_candidates: telechat_obs::Histogram::new(),
        elapsed: start.elapsed(),
    };

    // If any thread has no complete trace there are no executions.
    if thread_traces.iter().any(Vec::is_empty) {
        result.elapsed = start.elapsed();
        return Ok(result);
    }

    // Odometer over per-thread trace choices.
    let mut combo: Vec<usize> = vec![0; thread_traces.len()];
    loop {
        let traces: Vec<&Trace> = combo
            .iter()
            .enumerate()
            .map(|(t, &i)| &thread_traces[t][i])
            .collect();
        enumerate_combo(
            test, &traces, model, config, &observed, &readonly, deadline, &mut result,
        )?;

        // Advance the odometer.
        let mut t = 0;
        loop {
            if t == combo.len() {
                // Single-threaded: the thread-local delta is the total.
                result.full_traversals = crate::rel::full_traversals() - ft_start;
                result.elapsed = start.elapsed();
                return Ok(result);
            }
            combo[t] += 1;
            if combo[t] < thread_traces[t].len() {
                break;
            }
            combo[t] = 0;
            t += 1;
        }
    }
}

/// All permutations of `items` (Heap's algorithm, deterministic order) —
/// the eager materialisation the incremental engine exists to avoid.
fn permutations(items: &[EventId]) -> Vec<Vec<EventId>> {
    let mut out = Vec::new();
    let mut work = items.to_vec();
    permute(&mut work, 0, &mut out);
    out
}

fn permute(work: &mut Vec<EventId>, k: usize, out: &mut Vec<Vec<EventId>>) {
    if k == work.len() {
        out.push(work.clone());
        return;
    }
    for i in k..work.len() {
        work.swap(k, i);
        permute(work, k + 1, out);
        work.swap(k, i);
    }
}

#[allow(clippy::too_many_arguments)]
fn enumerate_combo(
    test: &LitmusTest,
    traces: &[&Trace],
    model: &dyn ConsistencyModel,
    config: &SimConfig,
    observed: &BTreeSet<StateKey>,
    readonly: &BTreeSet<Loc>,
    deadline: Option<Instant>,
    result: &mut SimResult,
) -> Result<()> {
    let combined: Combined = build_combined(test, traces);

    let Some(rf_choices) = combined.rf_candidates() else {
        return Ok(()); // some read unjustifiable: no execution from this combo
    };

    // Coherence permutations per location (non-init writes), materialised
    // eagerly — the whole point of being the naive reference.
    let locs: Vec<Loc> = combined.writes_by_loc.keys().cloned().collect();
    let mut co_choices: Vec<Vec<Vec<EventId>>> = Vec::with_capacity(locs.len());
    for loc in &locs {
        let writes = &combined.writes_by_loc[loc];
        co_choices.push(permutations(&writes[1..])); // element 0 is init
    }

    // The execution skeleton is fixed for the combo; rf/co/outcome vary.
    let mut execution = Execution {
        events: combined.events.clone(),
        po: combined.po.clone(),
        rf: Relation::new(),
        co: Relation::new(),
        rmw: combined.rmw.clone(),
        addr: combined.addr.clone(),
        data: combined.data.clone(),
        ctrl: combined.ctrl.clone(),
        outcome: Outcome::new(),
    };

    // Pre-compute the register part of the outcome (fixed per combo).
    let mut reg_outcome = Outcome::new();
    for key in observed {
        if let StateKey::Reg(t, r) = key {
            let v = combined
                .final_regs
                .get(&(*t, r.clone()))
                .cloned()
                .unwrap_or(Val::Int(0));
            reg_outcome.set(key.clone(), v);
        }
    }

    let mut rf_odo = vec![0usize; rf_choices.len()];
    loop {
        // Build rf for this choice.
        let mut rf = Relation::new();
        for (i, &r) in combined.reads.iter().enumerate() {
            rf.insert(rf_choices[i][rf_odo[i]], r);
        }

        let mut co_odo = vec![0usize; co_choices.len()];
        loop {
            result.candidates += 1;
            if result.candidates > config.max_candidates {
                return Err(Error::Budget {
                    steps: result.candidates,
                });
            }
            if result.candidates.is_multiple_of(256) {
                if let Some(d) = deadline {
                    if Instant::now() > d {
                        let limit_ms = config
                            .timeout
                            .map(|t| t.as_millis() as u64)
                            .unwrap_or(0);
                        return Err(Error::Timeout { limit_ms });
                    }
                }
            }

            // Build co: per location, init first then the chosen permutation,
            // transitively closed.
            let mut co = Relation::new();
            let mut last_write: BTreeMap<&Loc, EventId> = BTreeMap::new();
            for (li, loc) in locs.iter().enumerate() {
                let perm = &co_choices[li][co_odo[li]];
                let init = combined.init_of[loc];
                let mut chain: Vec<EventId> = Vec::with_capacity(perm.len() + 1);
                chain.push(init);
                chain.extend(perm.iter().copied());
                for a in 0..chain.len() {
                    for b in (a + 1)..chain.len() {
                        co.insert(chain[a], chain[b]);
                    }
                }
                last_write.insert(loc, *chain.last().expect("non-empty"));
            }

            execution.rf = rf.clone();
            execution.co = co;

            // Outcome: registers (fixed) + observed locations (co-final).
            let mut outcome = reg_outcome.clone();
            for key in observed {
                if let StateKey::Loc(l) = key {
                    let v = last_write
                        .get(l)
                        .map(|w| {
                            execution.events[w.index()]
                                .val
                                .clone()
                                .expect("writes have values")
                        })
                        .unwrap_or_else(|| test.init_of(l));
                    outcome.set(key.clone(), v);
                }
            }
            execution.outcome = outcome;

            match model.check(&execution) {
                crate::model::Verdict::Allowed { flags } => {
                    result.allowed += 1;
                    result.flags.extend(flags);
                    if !readonly.is_empty()
                        && execution.events.iter().any(|e: &Event| {
                            e.kind == EventKind::Write
                                && !e.is_init()
                                && e.loc.as_ref().is_some_and(|l| readonly.contains(l))
                        })
                    {
                        result.crashed = true;
                    }
                    result.outcomes.insert(execution.outcome.clone());
                    if config.keep_executions && result.executions.len() < config.max_kept {
                        result.executions.push(execution.clone());
                    }
                }
                crate::model::Verdict::Forbidden { .. } => {}
            }

            // Advance co odometer.
            let mut li = 0;
            loop {
                if li == co_choices.len() {
                    break;
                }
                co_odo[li] += 1;
                if co_odo[li] < co_choices[li].len() {
                    break;
                }
                co_odo[li] = 0;
                li += 1;
            }
            if li == co_choices.len() {
                break;
            }
        }

        // Advance rf odometer.
        let mut i = 0;
        loop {
            if i == rf_choices.len() {
                return Ok(());
            }
            rf_odo[i] += 1;
            if rf_odo[i] < rf_choices[i].len() {
                break;
            }
            rf_odo[i] = 0;
            i += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::model::{AllowAll, SeqCstRef};
    use telechat_litmus::parse_c11;

    const SB: &str = r#"
C11 "SB"
{ x = 0; y = 0; }
P0 (atomic_int* x, atomic_int* y) {
  atomic_store_explicit(x, 1, memory_order_relaxed);
  int r0 = atomic_load_explicit(y, memory_order_relaxed);
}
P1 (atomic_int* x, atomic_int* y) {
  atomic_store_explicit(y, 1, memory_order_relaxed);
  int r0 = atomic_load_explicit(x, memory_order_relaxed);
}
exists (P0:r0=0 /\ P1:r0=0)
"#;

    #[test]
    fn reference_matches_classic_sb_counts() {
        let test = parse_c11(SB).unwrap();
        let r = simulate_reference(&test, &AllowAll, &SimConfig::default()).unwrap();
        assert_eq!(r.outcomes.len(), 4);
        let r = simulate_reference(&test, &SeqCstRef, &SimConfig::default()).unwrap();
        assert_eq!(r.outcomes.len(), 3);
    }

    #[test]
    fn reference_budget_error() {
        let test = parse_c11(SB).unwrap();
        let cfg = SimConfig {
            max_candidates: 2,
            ..SimConfig::default()
        };
        assert!(simulate_reference(&test, &AllowAll, &cfg)
            .unwrap_err()
            .is_exhaustion());
    }
}
