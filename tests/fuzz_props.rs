//! Pinned properties of the cycle-space fuzzing subsystem: canonical-corpus
//! counts, family containment, canonicalizer isomorphism invariance,
//! print→parse round-tripping of generated shapes, and byte-identical
//! fixed-seed campaigns across thread counts.

use telechat_repro::common::Arch;
use telechat_repro::core::{run_campaign_source, CampaignResult, CampaignSpec, PipelineConfig};
use telechat_repro::diy::{Edge, Family};
use telechat_repro::fuzz::{
    corpus, enumerate_shapes, FuzzConfig, FuzzSource, GenConfig, SampleConfig, Sampler,
    ShapedCycle,
};
use telechat_repro::litmus::{parse_c11, print::to_litmus};
use telechat_compiler::{CompilerId, OptLevel};

fn pod() -> Edge {
    Edge::Po { sameloc: false }
}

/// The exact canonical-corpus sizes at communication budgets 2..4 (the
/// structural alphabet over relaxed atomics; see `Alphabet::corpus`).
/// These numbers are the subsystem's contract: they change only if the
/// alphabet, the validity rules or the canonical order change — all of
/// which invalidate every recorded corpus hash, so a deliberate bump must
/// say so.
#[test]
fn canonical_corpus_counts_are_pinned() {
    assert_eq!(corpus(&GenConfig::corpus(2)).len(), 61);
    assert_eq!(corpus(&GenConfig::corpus(3)).len(), 568);
    assert_eq!(corpus(&GenConfig::corpus(4)).len(), 5193);
}

#[test]
fn corpus_strictly_contains_all_nine_families_with_zero_duplicates() {
    let shapes: Vec<ShapedCycle> = corpus(&GenConfig::corpus(4))
        .into_iter()
        .map(|(s, _)| s)
        .collect();
    // Every hand-written family canonicalizes into the corpus…
    for fam in Family::ALL {
        let canon = ShapedCycle::new(fam.edges(pod())).canonical();
        assert!(
            shapes.binary_search(&canon).is_ok(),
            "{} ({}) missing from the corpus",
            fam.tag(),
            canon.slug()
        );
    }
    // …which strictly contains them…
    assert!(shapes.len() > Family::ALL.len());
    // …with zero isomorphic duplicates: every element is its own canonical
    // form and the sorted list has no equal neighbours.
    for w in shapes.windows(2) {
        assert!(w[0] < w[1]);
    }
    for s in &shapes {
        assert_eq!(*s, s.canonical(), "{}", s.slug());
    }
}

#[test]
fn canonical_forms_of_rotations_collide() {
    // Random cycles: every rotation — which renames the generated test's
    // threads, locations and write values — canonicalizes identically.
    let mut sampler = Sampler::new(SampleConfig::default(), 1234);
    for _ in 0..100 {
        let shape = sampler.next_shape();
        let canon = shape.canonical();
        for k in 0..shape.len() {
            assert_eq!(shape.rotated(k).canonical(), canon, "{}", shape.slug());
        }
    }
}

#[test]
fn rotations_synthesise_isomorphic_tests() {
    // Structural isomorphism invariants: a rotation whose stored form is
    // well-formed synthesises a test with the same thread count, location
    // count, per-thread body sizes (as a multiset) and condition arity.
    let mut sampler = Sampler::new(SampleConfig::default(), 99);
    for _ in 0..40 {
        let shape = sampler.next_shape();
        // Some shapes are vacuous under every cut (e.g. two coe edges
        // pinning one location's final value to different writes).
        let Ok(base) = shape.synthesise_any("base") else {
            continue;
        };
        let mut base_sizes: Vec<usize> = base.threads.iter().map(Vec::len).collect();
        base_sizes.sort_unstable();
        for k in 0..shape.len() {
            let rot = shape.rotated(k);
            if !rot.is_well_formed() {
                continue;
            }
            // Witness satisfiability is cut-dependent (see synthesise_any's
            // docs); skip the rotations whose cut is contradictory.
            let Ok(t) = rot.synthesise("rot") else {
                continue;
            };
            assert_eq!(t.thread_count(), base.thread_count(), "{}", rot.slug());
            assert_eq!(t.locs.len(), base.locs.len(), "{}", rot.slug());
            let mut sizes: Vec<usize> = t.threads.iter().map(Vec::len).collect();
            sizes.sort_unstable();
            assert_eq!(sizes, base_sizes, "{}", rot.slug());
        }
    }
}

#[test]
fn non_isomorphic_cycles_do_not_collide() {
    // The nine families are pairwise non-isomorphic small cycles: their
    // canonical forms must stay distinct.
    let mut canons: Vec<ShapedCycle> = Family::ALL
        .iter()
        .map(|f| ShapedCycle::new(f.edges(pod())).canonical())
        .collect();
    canons.sort();
    let before = canons.len();
    canons.dedup();
    assert_eq!(canons.len(), before, "families must not collide");

    // Stronger: across the whole two-thread corpus, distinct canonical
    // shapes generate observably distinct tests (same body text would mean
    // the campaign simulates one scenario twice under two names).
    let mut bodies: Vec<String> = corpus(&GenConfig::corpus(2))
        .into_iter()
        .map(|(_, t)| {
            let printed = to_litmus(&t);
            // Strip the name line; the body is what the simulator sees.
            printed.split_once('\n').unwrap().1.to_string()
        })
        .collect();
    let before = bodies.len();
    bodies.sort();
    bodies.dedup();
    assert_eq!(bodies.len(), before);
}

#[test]
fn generated_tests_round_trip_through_print_and_parse() {
    // Exhaustive three-thread corpus…
    for (shape, test) in corpus(&GenConfig::corpus(3)) {
        let printed = to_litmus(&test);
        let reparsed = parse_c11(&printed)
            .unwrap_or_else(|e| panic!("{}: {e}\n{printed}", shape.slug()));
        assert_eq!(test, reparsed, "{}", shape.slug());
    }
    // …and seeded deep shapes (RMW, plain and mixed-ordering kinds).
    let mut sampler = Sampler::new(SampleConfig::default(), 11);
    for _ in 0..150 {
        let shape = sampler.next_shape();
        let Ok(test) = shape.synthesise(format!("FZ+{}", shape.slug())) else {
            continue;
        };
        let printed = to_litmus(&test);
        let reparsed = parse_c11(&printed)
            .unwrap_or_else(|e| panic!("{}: {e}\n{printed}", shape.slug()));
        assert_eq!(test, reparsed, "{}", shape.slug());
    }
}

#[test]
fn enumeration_and_corpus_agree_on_validity() {
    // Every enumerated shape is well-formed; the corpus keeps exactly the
    // non-vacuous ones.
    let cfg = GenConfig::corpus(2);
    let shapes = enumerate_shapes(&cfg);
    let corpus_len = corpus(&cfg).len();
    assert!(corpus_len <= shapes.len());
    let synthesisable = shapes
        .iter()
        .filter(|s| s.synthesise_any("x").is_ok())
        .count();
    assert_eq!(synthesisable, corpus_len);
}

fn campaign_fingerprint(result: &CampaignResult) -> String {
    format!("{result}\npositives: {:?}", result.positive_tests)
}

#[test]
fn fixed_seed_campaigns_are_byte_identical_across_thread_counts() {
    let fuzz_cfg = FuzzConfig::smoke(7, 12);
    let run = |campaign_threads: usize| {
        let spec = CampaignSpec {
            compilers: vec![CompilerId::llvm(17)],
            opts: vec![OptLevel::O2],
            targets: vec![telechat_compiler::Target::new(Arch::X86_64)],
            source_model: "rc11".into(),
            threads: campaign_threads,
            cache: true,
            ..CampaignSpec::default()
        };
        let mut source = FuzzSource::new(&fuzz_cfg);
        let result =
            run_campaign_source(&mut source, &spec, &PipelineConfig::default()).unwrap();
        (campaign_fingerprint(&result), source.stream_hash())
    };
    let baseline = run(1);
    assert_eq!(run(4), baseline, "campaign threads must not matter");
    assert_ne!(baseline.1, 0, "stream must have been consumed");
}
