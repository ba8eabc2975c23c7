//! Seeded random sampling of deep shapes beyond the exhaustive frontier.
//!
//! The sampler draws structure (communication-edge count, per-thread run
//! lengths), edge choices, unconstrained directions and per-event access
//! kinds from one [`XorShiftRng`] stream, rejection-sampling until the
//! shape is well-formed. Everything is a pure function of the seed and the
//! draw index, so a fixed-seed stream is byte-identical on every machine
//! and for every campaign thread count — the campaign driver
//! pulls tests from the stream under a lock, in order, no matter how many
//! workers consume them.

use crate::enumerate::Alphabet;
use crate::shape::{ShapedCycle, DEFAULT_KIND};
use telechat_common::XorShiftRng;
use telechat_diy::{Dir, Edge};

/// Budgets for the random sampler (the deep-shape analogue of
/// [`crate::enumerate::GenConfig`]).
#[derive(Debug, Clone)]
pub struct SampleConfig {
    /// The edge/kind choices.
    pub alphabet: Alphabet,
    /// Minimum communication edges.
    pub min_comm: usize,
    /// Maximum communication edges (inclusive).
    pub max_comm: usize,
    /// Maximum consecutive intra-thread edges.
    pub max_po_run: usize,
    /// Cap on total edges.
    pub max_edges: usize,
    /// Cap on distinct locations.
    pub max_locs: usize,
}

impl Default for SampleConfig {
    /// Deep shapes: up to five threads, runs up to two edges — past the
    /// exhaustive corpus frontier but still litmus-sized.
    fn default() -> SampleConfig {
        SampleConfig {
            alphabet: Alphabet::c11(),
            min_comm: 2,
            max_comm: 5,
            max_po_run: 2,
            max_edges: 12,
            max_locs: 8,
        }
    }
}

/// A deterministic stream of well-formed canonical shapes.
#[derive(Debug, Clone)]
pub struct Sampler {
    cfg: SampleConfig,
    rng: XorShiftRng,
}

impl Sampler {
    /// A sampler over `cfg` seeded with `seed`.
    pub fn new(cfg: SampleConfig, seed: u64) -> Sampler {
        Sampler {
            cfg,
            rng: XorShiftRng::seed_from_u64(seed),
        }
    }

    fn pick<T: Copy>(rng: &mut XorShiftRng, xs: &[T]) -> T {
        xs[rng.below(xs.len() as u64) as usize]
    }

    /// Draws one raw candidate (may be ill-formed).
    fn draw(&mut self) -> ShapedCycle {
        let cfg = &self.cfg;
        let rng = &mut self.rng;
        let comm = cfg.min_comm + rng.below((cfg.max_comm - cfg.min_comm + 1) as u64) as usize;
        let mut edges = Vec::new();
        for ci in 0..comm {
            // Leave room for the communication edges not yet placed.
            let reserved = comm - ci;
            let budget_left = cfg.max_edges.saturating_sub(edges.len() + reserved);
            let run = (rng.below(cfg.max_po_run as u64 + 1) as usize).min(budget_left);
            for _ in 0..run {
                edges.push(Self::pick(rng, &cfg.alphabet.po));
            }
            edges.push(Self::pick(rng, &cfg.alphabet.comm));
        }
        let mut shape = ShapedCycle::new(edges);
        if let Ok(derived) = shape.event_dirs() {
            #[allow(clippy::needless_range_loop)] // i indexes dirs, kinds and derived alike
            for i in 0..shape.len() {
                let dir = match derived[i] {
                    Some(d) => d,
                    None => {
                        // Unconstrained event: flip a coin and pin it.
                        let d = if rng.below(2) == 0 { Dir::W } else { Dir::R };
                        shape.dirs[i] = Some(d);
                        d
                    }
                };
                let palette = match dir {
                    Dir::R => &cfg.alphabet.read_kinds,
                    Dir::W => &cfg.alphabet.write_kinds,
                };
                shape.kinds[i] = if palette.is_empty() {
                    DEFAULT_KIND
                } else {
                    Self::pick(rng, palette)
                };
            }
        }
        shape
    }

    /// The next well-formed shape, in canonical form.
    ///
    /// Rejection sampling is bounded; the two-thread families are dense in
    /// every sensible alphabet, so the fallback (a plain store-buffering
    /// shape) is unreachable in practice but keeps the stream total.
    pub fn next_shape(&mut self) -> ShapedCycle {
        for _ in 0..10_000 {
            let shape = self.draw();
            if shape.is_well_formed() && shape.loc_count() <= self.cfg.max_locs {
                return shape.canonical();
            }
        }
        ShapedCycle::new(vec![
            Edge::Po { sameloc: false },
            Edge::Fre,
            Edge::Po { sameloc: false },
            Edge::Fre,
        ])
        .canonical()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fixed_seed_streams_are_identical() {
        let mut a = Sampler::new(SampleConfig::default(), 42);
        let mut b = Sampler::new(SampleConfig::default(), 42);
        for _ in 0..50 {
            assert_eq!(a.next_shape(), b.next_shape());
        }
    }

    #[test]
    fn different_seeds_diverge() {
        let mut a = Sampler::new(SampleConfig::default(), 1);
        let mut b = Sampler::new(SampleConfig::default(), 2);
        let xs: Vec<_> = (0..10).map(|_| a.next_shape()).collect();
        let ys: Vec<_> = (0..10).map(|_| b.next_shape()).collect();
        assert_ne!(xs, ys);
    }

    #[test]
    fn samples_are_well_formed_canonical_and_within_budget() {
        let cfg = SampleConfig::default();
        let mut s = Sampler::new(cfg.clone(), 7);
        for _ in 0..200 {
            let shape = s.next_shape();
            assert!(shape.is_well_formed(), "{}", shape.slug());
            assert_eq!(shape, shape.canonical());
            assert!(shape.len() <= cfg.max_edges);
            assert!(shape.comm_count() <= cfg.max_comm);
        }
    }

    #[test]
    fn sampler_reaches_past_the_exhaustive_frontier() {
        let mut s = Sampler::new(SampleConfig::default(), 3);
        let deep = (0..300).any(|_| s.next_shape().comm_count() > 4);
        assert!(deep, "expected a >4-thread shape in 300 draws");
    }
}
