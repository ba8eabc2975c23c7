//! The fuzz stream: exhaustive canonical corpus first, seeded deep samples
//! after, deduplicated across both phases — packaged as an
//! `Iterator<Item = LitmusTest>`, which is exactly what the campaign
//! driver's `telechat::TestSource` accepts.

use crate::enumerate::{corpus, GenConfig};
use crate::sample::{SampleConfig, Sampler};
use crate::shape::ShapedCycle;
use std::collections::BTreeSet;
use std::collections::VecDeque;
use telechat_litmus::LitmusTest;

/// FNV-1a over bytes, chained: the corpus/stream fingerprint. The single
/// definition now lives with the canonical-fingerprint machinery in
/// `telechat_litmus::fingerprint` (the campaign cache keys reuse it);
/// re-exported here for the existing fuzz callers.
pub use telechat_litmus::fingerprint::fnv1a64;

/// Configuration of a [`FuzzSource`] stream.
#[derive(Debug, Clone)]
pub struct FuzzConfig {
    /// Exhaustive phase budgets (phase 1).
    pub exhaustive: GenConfig,
    /// Sampler budgets (phase 2, after the corpus is exhausted).
    pub sample: SampleConfig,
    /// Seed for the sampling phase.
    pub seed: u64,
    /// Total number of tests the stream emits.
    pub max_tests: usize,
}

impl FuzzConfig {
    /// A small smoke stream: the two-thread corpus then seeded samples.
    pub fn smoke(seed: u64, max_tests: usize) -> FuzzConfig {
        FuzzConfig {
            exhaustive: GenConfig::corpus(2),
            sample: SampleConfig::default(),
            seed,
            max_tests,
        }
    }
}

/// A deterministic, deduplicated stream of fuzz-generated litmus tests.
///
/// Byte-determinism contract: the sequence of emitted tests — and therefore
/// [`FuzzSource::stream_hash`] — is a pure function of the [`FuzzConfig`].
/// The campaign thread count plays no part: the campaign driver
/// pulls from the iterator under a lock in a fixed order.
#[derive(Debug)]
pub struct FuzzSource {
    queue: VecDeque<(ShapedCycle, LitmusTest)>,
    sampler: Sampler,
    seen: BTreeSet<ShapedCycle>,
    emitted: usize,
    max_tests: usize,
    hash: u64,
}

impl FuzzSource {
    /// Builds the stream (synthesises the exhaustive corpus eagerly).
    pub fn new(cfg: &FuzzConfig) -> FuzzSource {
        let corpus = corpus(&cfg.exhaustive);
        let seen = corpus.iter().map(|(s, _)| s.clone()).collect();
        FuzzSource {
            queue: corpus.into_iter().collect(),
            sampler: Sampler::new(cfg.sample.clone(), cfg.seed),
            seen,
            emitted: 0,
            max_tests: cfg.max_tests,
            hash: 0,
        }
    }

    /// Number of tests emitted so far.
    pub fn emitted(&self) -> usize {
        self.emitted
    }

    /// Chained FNV-1a fingerprint of every test emitted so far (printed
    /// litmus text). Two equal-seed streams agree on this at every point.
    pub fn stream_hash(&self) -> u64 {
        self.hash
    }

    /// The next shape with its synthesised test — what [`Iterator::next`]
    /// yields minus the shape, for callers (the minimizer CLI, the hunt
    /// example) that need the generating cycle back.
    pub fn next_pair(&mut self) -> Option<(ShapedCycle, LitmusTest)> {
        if self.emitted >= self.max_tests {
            return None;
        }
        let (shape, test) = match self.queue.pop_front() {
            Some(item) => item,
            None => self.next_sampled()?,
        };
        self.emitted += 1;
        self.hash = fnv1a64(self.hash, telechat_litmus::print::to_litmus(&test).as_bytes());
        // Coverage accounting: which edge kinds and canonical shape
        // classes the stream actually exercised. The campaign driver
        // pulls tests under its frontier lock in a fixed order, so these
        // tallies are a pure function of the work list — deterministic
        // across thread counts like every other `count`-class row. Gated:
        // the labels are only formatted while a metrics window is open.
        if telechat_obs::enabled() {
            for edge in &shape.edges {
                telechat_obs::add_labelled(&format!("coverage.edge.{edge}"), 1);
            }
            telechat_obs::add_labelled(
                &format!("coverage.shape.comm{}", shape.comm_count()),
                1,
            );
        }
        Some((shape, test))
    }

    /// The next not-yet-seen canonical shape from the sampler, with its
    /// synthesised test. Bounded: if the sampler space is saturated the
    /// stream simply ends.
    fn next_sampled(&mut self) -> Option<(ShapedCycle, LitmusTest)> {
        for _ in 0..10_000 {
            let shape = self.sampler.next_shape();
            if !self.seen.insert(shape.clone()) {
                continue;
            }
            let name = format!("FZ+{}", shape.slug());
            if let Ok(test) = shape.synthesise_any(name) {
                return Some((shape, test));
            }
        }
        None
    }
}

impl Iterator for FuzzSource {
    type Item = LitmusTest;

    fn next(&mut self) -> Option<LitmusTest> {
        self.next_pair().map(|(_, test)| test)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stream_is_deterministic_and_deduplicated() {
        let cfg = FuzzConfig::smoke(9, 64);
        let a: Vec<LitmusTest> = FuzzSource::new(&cfg).collect();
        let b: Vec<LitmusTest> = FuzzSource::new(&cfg).collect();
        assert_eq!(a, b);
        assert_eq!(a.len(), 64);
        let mut names: Vec<_> = a.iter().map(|t| t.name.clone()).collect();
        names.sort();
        names.dedup();
        assert_eq!(names.len(), a.len(), "no duplicate shapes");
    }

    #[test]
    fn stream_hash_tracks_content() {
        let cfg = FuzzConfig::smoke(9, 16);
        let mut a = FuzzSource::new(&cfg);
        let mut b = FuzzSource::new(&cfg);
        while let (Some(x), Some(y)) = (a.next(), b.next()) {
            assert_eq!(x, y);
            assert_eq!(a.stream_hash(), b.stream_hash());
        }
        assert_ne!(a.stream_hash(), 0);
        // Once the stream is past the (seed-independent) exhaustive corpus,
        // the seed drives the tail.
        let corpus_len = crate::enumerate::corpus(&FuzzConfig::smoke(0, 0).exhaustive).len();
        let tail_hash = |seed| {
            let mut s = FuzzSource::new(&FuzzConfig::smoke(seed, corpus_len + 8));
            s.by_ref().for_each(drop);
            s.stream_hash()
        };
        assert_ne!(tail_hash(9), tail_hash(10), "seed changes the tail");
    }

    #[test]
    fn corpus_phase_precedes_sampling() {
        let cfg = FuzzConfig::smoke(5, usize::MAX);
        let corpus_len = crate::enumerate::corpus(&cfg.exhaustive).len();
        let mut src = FuzzSource::new(&cfg);
        let first: Vec<_> = src.by_ref().take(corpus_len).collect();
        assert_eq!(first.len(), corpus_len);
        // Every corpus test carries its canonical slug name.
        assert!(first.iter().all(|t| t.name.starts_with("FZ+")));
    }
}
