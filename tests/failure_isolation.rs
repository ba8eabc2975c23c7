//! Failure-isolation pins: injected engine faults (panics, stalls) on a
//! simulation leg are contained to the faulted work item — the rest of the
//! campaign completes, a panicked warm-up heals (a poisoned gate is retried,
//! never a hang), a panicking leg is one typed error cell in its profile's
//! cell, and a stalled leg overrunning [`SimConfig::deadline`] becomes a
//! typed error cell instead of wedging the campaign.
//!
//! The fault registry is process-global, so every test here serialises on
//! one mutex and disarms via a drop guard — a failing assertion cannot
//! leak an armed fault into the next test.

use std::sync::mpsc;
use std::sync::Mutex;
use std::time::{Duration, Instant};
use telechat_repro::common::Arch;
use telechat_repro::core::fault::{self, EngineFault, FaultAction, FaultLeg};
use telechat_repro::core::{run_campaign, CampaignResult, CampaignSpec, PipelineConfig};
use telechat_repro::litmus::{parse_c11, LitmusTest};
use telechat_compiler::{CompilerFamily, CompilerId, OptLevel, Target};

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

const MP_REL_ACQ: &str = r#"
C11 "MP+rel+acq"
{ x = 0; y = 0; }
P0 (atomic_int* x, atomic_int* y) {
  atomic_store_explicit(x, 1, memory_order_relaxed);
  atomic_store_explicit(y, 1, memory_order_release);
}
P1 (atomic_int* x, atomic_int* y) {
  int r0 = atomic_load_explicit(y, memory_order_acquire);
  int r1 = atomic_load_explicit(x, memory_order_relaxed);
}
exists (P1:r0=1 /\ P1:r1=0)
"#;

const LB_FENCES: &str = r#"
C11 "LB+fences"
{ x = 0; y = 0; }
P0 (atomic_int* x, atomic_int* y) {
  int r0 = atomic_load_explicit(x, memory_order_relaxed);
  atomic_thread_fence(memory_order_relaxed);
  atomic_store_explicit(y, 1, memory_order_relaxed);
}
P1 (atomic_int* x, atomic_int* y) {
  int r0 = atomic_load_explicit(y, memory_order_relaxed);
  atomic_thread_fence(memory_order_relaxed);
  atomic_store_explicit(x, 1, memory_order_relaxed);
}
exists (P0:r0=1 /\ P1:r0=1)
"#;

static SERIAL: Mutex<()> = Mutex::new(());

/// Disarms the global fault registry when dropped.
struct Disarm;

impl Drop for Disarm {
    fn drop(&mut self) {
        fault::disarm_all();
    }
}

fn suite(texts: &[&str]) -> Vec<LitmusTest> {
    texts.iter().map(|s| parse_c11(s).unwrap()).collect()
}

fn spec(threads: usize, compilers: Vec<CompilerId>, opts: Vec<OptLevel>) -> CampaignSpec {
    CampaignSpec {
        compilers,
        opts,
        targets: vec![Target::new(Arch::AArch64)],
        source_model: "rc11".into(),
        threads,
        cache: true,
        ..CampaignSpec::default()
    }
}

fn fingerprint(r: &CampaignResult) -> (String, Vec<(String, String)>, usize, usize) {
    (
        format!("{:?}", r.cells),
        r.positive_tests.clone(),
        r.source_tests,
        r.compiled_tests,
    )
}

fn total_errors(r: &CampaignResult) -> usize {
    r.cells.values().map(|c| c.errors).sum()
}

/// Runs the campaign on a helper thread with a generous wall-clock bound,
/// so an isolation bug that *hangs* the campaign (a poisoned gate that
/// never wakes its waiters, or a worker that never exits) fails the test
/// instead of wedging CI.
fn run_bounded(
    tests: Vec<LitmusTest>,
    spec: CampaignSpec,
    config: PipelineConfig,
) -> CampaignResult {
    let (tx, rx) = mpsc::channel();
    std::thread::spawn(move || {
        let _ = tx.send(run_campaign(&tests, &spec, &config).unwrap());
    });
    rx.recv_timeout(Duration::from_secs(300))
        .expect("campaign must complete — a faulted item must not hang its worker or the others")
}

/// True if the given fault is still armed (probed by firing it from under
/// `catch_unwind`); used to prove an armed panic actually fired — and
/// burned — inside the campaign rather than the test passing vacuously.
fn panic_still_armed(leg: FaultLeg, name: &str) -> bool {
    std::panic::catch_unwind(|| fault::fire(leg, name)).is_err()
}

#[test]
fn lead_panic_in_the_source_leg_wakes_followers_and_the_campaign_heals() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    fault::disarm_all();
    let _guard = Disarm;

    let tests = suite(&[SB, MP_REL_ACQ, LB_FENCES]);
    let both = vec![CompilerId::llvm(11), CompilerId::gcc(10)];
    let o23 = vec![OptLevel::O2, OptLevel::O3];
    let config = PipelineConfig::default();
    let baseline =
        run_campaign(&tests, &spec(1, both.clone(), o23.clone()), &config).unwrap();

    // The warm-up before the test's first work item is the first
    // source-leg compute for the test, taken inside
    // `Striped::get_or_compute` — the panic poisons the shared gate, and
    // the warm-up's catch keeps the worker alive. Three tests on four
    // workers also leave one worker with nothing to pull: it must exit.
    fault::arm(EngineFault {
        leg: FaultLeg::Source,
        test_contains: "SB".into(),
        action: FaultAction::Panic,
        fires: 1,
    });
    let r = run_bounded(tests, spec(4, both, o23), config);
    assert!(
        !panic_still_armed(FaultLeg::Source, "SB"),
        "the armed fault must have fired inside the campaign"
    );
    // The poisoned entry is retried by the next claimant (the fault is
    // burned by then), so the campaign heals completely: every item
    // recomputed and classified — byte-identical, zero error cells.
    assert_eq!(fingerprint(&r), fingerprint(&baseline));
    assert_eq!(total_errors(&r), 0);
}

#[test]
fn a_panicking_profile_leaves_its_tests_other_profiles_intact() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    fault::disarm_all();
    let _guard = Disarm;

    let tests = suite(&[SB, MP_REL_ACQ, LB_FENCES]);
    let both = vec![CompilerId::llvm(11), CompilerId::gcc(10)];
    let o23 = vec![OptLevel::O2, OptLevel::O3];
    let config = PipelineConfig::default();
    let baseline = run_campaign(&tests, &spec(1, both.clone(), o23.clone()), &config).unwrap();
    assert_eq!(total_errors(&baseline), 0);
    // The target leg fires with the item's derived `{profile}.{test}` name,
    // so only this one (test, profile) item is faulted. It is the test's
    // first profile: with the cache on, the later ones extract the same
    // code and share its target leg, so only the first one simulates it.
    // The worker that ran the panicked item then runs the test's other
    // three profiles.
    let faulted = "clang-11-O2-AArch64.SB";
    let key = (Arch::AArch64, CompilerFamily::Llvm, OptLevel::O2);

    for threads in [1, 2, 4] {
        for cache in [false, true] {
            let mut spec = spec(threads, both.clone(), o23.clone());
            spec.cache = cache;
            fault::arm(EngineFault {
                leg: FaultLeg::Target,
                test_contains: faulted.into(),
                action: FaultAction::Panic,
                fires: 1,
            });
            let r = run_bounded(tests.clone(), spec, config.clone());
            let at = format!("threads={threads} cache={cache}");
            assert!(
                !panic_still_armed(FaultLeg::Target, faulted),
                "the armed fault must have fired inside the campaign ({at})"
            );
            assert_eq!(total_errors(&r), 1, "exactly one error cell ({at})");
            assert_eq!(
                r.cells[&key].errors, 1,
                "in the faulted profile's cell ({at})"
            );
            assert_eq!(r.cells[&key].total(), baseline.cells[&key].total(), "{at}");
            assert!(r.cells.keys().eq(baseline.cells.keys()), "{at}");
            for (k, cell) in &r.cells {
                if *k != key {
                    assert_eq!(cell, &baseline.cells[k], "{k:?} ({at})");
                }
            }
            assert_eq!((r.source_tests, r.compiled_tests), (3, 12), "{at}");
        }
    }
}

#[test]
fn a_non_transient_panic_is_one_typed_error_cell_not_a_campaign_failure() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    fault::disarm_all();
    let _guard = Disarm;

    let tests = suite(&[SB, LB_FENCES]);
    let one = spec(1, vec![CompilerId::llvm(11)], vec![OptLevel::O2]);
    let config = PipelineConfig::default();
    let baseline = run_campaign(&tests, &one, &config).unwrap();
    let key = (Arch::AArch64, CompilerFamily::Llvm, OptLevel::O2);
    assert_eq!(baseline.cells[&key].errors, 0);

    fault::arm(EngineFault {
        leg: FaultLeg::Target,
        test_contains: "SB".into(),
        action: FaultAction::Panic,
        fires: 1,
    });
    let r = run_campaign(&tests, &one, &config).unwrap();
    assert!(!panic_still_armed(FaultLeg::Target, "SB"));
    let cell = &r.cells[&key];
    let base = &baseline.cells[&key];
    assert_eq!(cell.errors, 1, "the panicked item is a typed error");
    assert_eq!(cell.total(), base.total(), "every work item was classified");
    // Only `SB` was perturbed: all other positives are preserved.
    let non_sb = |r: &CampaignResult| -> Vec<(String, String)> {
        r.positive_tests
            .iter()
            .filter(|(test, _)| test != "SB")
            .cloned()
            .collect()
    };
    assert_eq!(non_sb(&r), non_sb(&baseline));
}

#[test]
fn a_stalled_leg_overruns_the_deadline_into_a_typed_error() {
    let _serial = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
    fault::disarm_all();
    let _guard = Disarm;

    let tests = suite(&[SB]);
    let one = spec(1, vec![CompilerId::llvm(11)], vec![OptLevel::O2]);
    let baseline = run_campaign(&tests, &one, &PipelineConfig::default()).unwrap();

    // The deadline knob alone must be inert: it bounds wall-clock, it is
    // not part of the simulation semantics (and not fingerprinted).
    let mut config = PipelineConfig::default();
    config.sim.deadline = Some(Duration::from_secs(120));
    let generous = run_campaign(&tests, &one, &config).unwrap();
    assert_eq!(fingerprint(&generous), fingerprint(&baseline));
    assert_eq!(total_errors(&generous), 0);

    // A 5 s stall against a 300 ms deadline: the watchdog abandons the
    // item well before the stall clears and the campaign moves on.
    let stall = Duration::from_secs(5);
    fault::arm(EngineFault {
        leg: FaultLeg::Target,
        test_contains: "SB".into(),
        action: FaultAction::Stall(stall),
        fires: 1,
    });
    config.sim.deadline = Some(Duration::from_millis(300));
    let started = Instant::now();
    let r = run_campaign(&tests, &one, &config).unwrap();
    assert!(
        started.elapsed() < stall,
        "the campaign must not wait out the stall ({:?})",
        started.elapsed()
    );
    let key = (Arch::AArch64, CompilerFamily::Llvm, OptLevel::O2);
    assert_eq!(r.cells[&key].errors, 1, "the overrun is a typed error cell");
    assert_eq!(r.cells[&key].total(), 1);
    assert!(r.positive_tests.is_empty());
}
