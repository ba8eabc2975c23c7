//! Engine-level fault injection for failure-isolation tests.
//!
//! A tiny global registry of *armed* faults that the simulation legs
//! consult at their compute entry points ([`fire`]): a matching fault can
//! panic the leg (exercising the cache's gate-poisoning and the campaign's
//! `catch_unwind` isolation) or stall it (exercising the wall-clock
//! deadline watchdog). The registry is empty in production — [`fire`] is a
//! single relaxed atomic load on the hot path — and is only populated by
//! tests via [`arm`].
//!
//! A fired fault turns its work item into a fault-class error cell
//! (`Error::is_fault`). Such cells are never journaled, so a resumed
//! campaign recomputes the item once the fault is disarmed.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Which simulation leg a fault targets.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FaultLeg {
    /// The source-program leg.
    Source,
    /// The compiled-program leg.
    Target,
}

/// What a firing fault does to the leg.
#[derive(Debug, Clone)]
pub enum FaultAction {
    /// Panic with an "injected fault" message.
    Panic,
    /// Sleep for the given duration before proceeding normally.
    Stall(Duration),
}

/// One armed fault.
#[derive(Debug, Clone)]
pub struct EngineFault {
    /// Leg to intercept.
    pub leg: FaultLeg,
    /// Fires only when the test's name contains this substring
    /// (empty matches everything).
    pub test_contains: String,
    /// Effect on the leg.
    pub action: FaultAction,
    /// How many times to fire before disarming.
    pub fires: u32,
}

static ANY_ARMED: AtomicBool = AtomicBool::new(false);
static ARMED: Mutex<Vec<EngineFault>> = Mutex::new(Vec::new());

/// Arms a fault. Test-only in spirit; does nothing harmful if unused.
pub fn arm(fault: EngineFault) {
    ARMED.lock().unwrap_or_else(|e| e.into_inner()).push(fault);
    ANY_ARMED.store(true, Ordering::Release);
}

/// Disarms every fault. Tests call this in a drop guard so a failing
/// assertion cannot leak faults into the next test.
pub fn disarm_all() {
    ARMED.lock().unwrap_or_else(|e| e.into_inner()).clear();
    ANY_ARMED.store(false, Ordering::Release);
}

/// The simulation legs' check-in point: called with the leg kind and the
/// test's name at the top of every leg compute (cached or not). A matching
/// armed fault fires — panicking or stalling this thread — and burns one
/// of its remaining firings.
pub fn fire(leg: FaultLeg, test_name: &str) {
    if !ANY_ARMED.load(Ordering::Acquire) {
        return;
    }
    let action = {
        let mut armed = ARMED.lock().unwrap_or_else(|e| e.into_inner());
        let Some(i) = armed
            .iter()
            .position(|f| f.leg == leg && f.fires > 0 && test_name.contains(&f.test_contains))
        else {
            return;
        };
        armed[i].fires -= 1;
        let action = armed[i].action.clone();
        if armed[i].fires == 0 {
            armed.remove(i);
            if armed.is_empty() {
                ANY_ARMED.store(false, Ordering::Release);
            }
        }
        action
    };
    telechat_obs::add(telechat_obs::Counter::FaultFirings, 1);
    match action {
        FaultAction::Panic => panic!("injected {leg:?}-leg fault on `{test_name}`"),
        FaultAction::Stall(d) => std::thread::sleep(d),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    // The registry is process-global, so these tests serialise themselves.
    static SERIAL: Mutex<()> = Mutex::new(());

    #[test]
    fn fire_is_inert_when_nothing_is_armed() {
        let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        disarm_all();
        fire(FaultLeg::Source, "SB"); // must not panic
    }

    #[test]
    fn armed_panic_fires_once_and_disarms() {
        let _g = SERIAL.lock().unwrap_or_else(|e| e.into_inner());
        disarm_all();
        arm(EngineFault {
            leg: FaultLeg::Source,
            test_contains: "SB".into(),
            action: FaultAction::Panic,
            fires: 1,
        });
        // Wrong leg and wrong name do not fire.
        fire(FaultLeg::Target, "SB");
        fire(FaultLeg::Source, "MP");
        let caught = std::panic::catch_unwind(|| fire(FaultLeg::Source, "SB"));
        assert!(caught.is_err());
        // Burned out: firing again is inert.
        fire(FaultLeg::Source, "SB");
        disarm_all();
    }
}
