//! Normalising throughput against the machine's current speed.
//!
//! The benchmark runs on shared virtual machines whose speed drifts by
//! tens of percent within minutes. A fixed reference kernel, sharing no
//! code with the program, is timed in short bursts *during* each campaign:
//! the benchmark's test source runs one burst when a campaign worker pulls
//! the next test, at most one per [`BURST_GAP_S`]. Each stretch of campaign
//! time between two bursts is converted to reference seconds by the mean
//! speed of the two bursts around it, and the bursts' own time is left
//! out.
//!
//! Of the kernels tried (allocation, sorting and ordered-map inserts;
//! dependent loads across a 4 MiB table; page faults on fresh 256 KiB
//! buffers) only the first tracked the campaigns; the other two added
//! noise. Over 18 `fuzz_deep` repetitions on a 2-vCPU virtual machine in a
//! noisy hour, it cut the repetition-to-repetition variation (standard
//! deviation over mean) of throughput from 19% to 8%. CPU time instead of
//! wall time would not help: the campaigns lost under 1% to steal time.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;
use telechat::TestSource;
use telechat_litmus::LitmusTest;

/// Iterations of the reference kernel per burst.
const BURST_ITERS: u32 = 40;

/// Least campaign time between two bursts.
const BURST_GAP_S: f64 = 0.02;

/// Wall seconds one burst takes on the nominal reference machine (a
/// 2-vCPU x86-64 virtual machine in a quiet hour). One reference second
/// is one second of that machine.
const BURST_NOMINAL_S: f64 = 0.000_26;

/// A fixed mixed workload — allocation, sorting and ordered-map inserts —
/// resembling the pipeline's own instruction mix but sharing none of its
/// code, so a change to the program never moves it.
fn reference_kernel(iters: u32) -> u64 {
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    let mut acc = 0u64;
    for _ in 0..iters {
        let mut v: Vec<u64> = (0..192)
            .map(|_| {
                x ^= x << 13;
                x ^= x >> 7;
                x ^= x << 17;
                x
            })
            .collect();
        v.sort_unstable();
        let mut m = BTreeMap::new();
        for (i, k) in v.iter().enumerate().step_by(3) {
            m.insert(*k >> 44, i as u64);
        }
        acc = acc.wrapping_add(m.values().sum::<u64>() ^ v[96]);
        acc = black_box(acc);
    }
    acc
}

/// The machine's speed relative to the nominal one (`< 1` when slower),
/// from two bursts' worth of the kernel.
pub fn speed() -> f64 {
    let start = Instant::now();
    black_box(reference_kernel(black_box(2 * BURST_ITERS)));
    2.0 * BURST_NOMINAL_S / start.elapsed().as_secs_f64()
}

/// A test source over a fixed suite that times a reference burst before
/// handing out a test, at most once per [`BURST_GAP_S`].
pub struct ProbedSource<'a> {
    tests: std::slice::Iter<'a, LitmusTest>,
    origin: Instant,
    /// (start, end) of every burst, in seconds since `origin`.
    bursts: Vec<(f64, f64)>,
}

impl<'a> ProbedSource<'a> {
    /// A source over `tests`; the measured window opens now, with a burst.
    pub fn new(tests: &'a [LitmusTest]) -> ProbedSource<'a> {
        let mut source = ProbedSource {
            tests: tests.iter(),
            origin: Instant::now(),
            bursts: Vec::new(),
        };
        source.burst();
        source
    }

    fn burst(&mut self) {
        let start = self.origin.elapsed().as_secs_f64();
        black_box(reference_kernel(black_box(BURST_ITERS)));
        self.bursts
            .push((start, self.origin.elapsed().as_secs_f64()));
    }

    /// Closes the window with a burst and returns the campaign's time in
    /// reference seconds.
    pub fn finish(mut self) -> f64 {
        self.burst();
        let speeds: Vec<f64> = self
            .bursts
            .iter()
            .map(|b| BURST_NOMINAL_S / (b.1 - b.0))
            .collect();
        self.bursts
            .windows(2)
            .zip(speeds.windows(2))
            .map(|(b, s)| (b[1].0 - b[0].1) * (s[0] + s[1]) / 2.0)
            .sum()
    }
}

impl TestSource for ProbedSource<'_> {
    fn next_test(&mut self) -> Option<LitmusTest> {
        let test = self.tests.next()?.clone();
        let last_end = self.bursts.last().map_or(0.0, |b| b.1);
        if self.origin.elapsed().as_secs_f64() - last_end >= BURST_GAP_S {
            self.burst();
        }
        Some(test)
    }
}
