//! The repository benchmark: runs one workload of the Téléchat campaign
//! pipeline through its public functions and prints, as the last line of
//! standard output, one JSON object with the end-to-end metrics
//! (`--trace 0`) or the per-layer metrics of a traced run (`--trace 1`).
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload table4 --seed 1 --seconds 20 --trace 0
//! ```
//!
//! Run it from the repository root. Every run also checks the program's
//! outputs (see `check`); a wrong output sets `"correct": false`.

mod check;
mod itemwise;
mod probe;
mod sys;
mod trace;
mod workload;

use check::{error_share, oracle_sample, table_iv_shape, table_text, OracleReport};
use itemwise::{outcome_of, run_pass, Counts, Pass};
use std::collections::{BTreeMap, BTreeSet};
use std::fmt::Write as _;
use std::path::Path;
use std::sync::Arc;
use std::time::Instant;
use telechat::journal::profile_fingerprint;
use telechat::{run_campaign, run_campaign_source, CampaignResult, ItemKey, PersistStore};
use telechat_cat::ModelRegistry;
use telechat_common::{Error, Result};
use trace::Tracer;
use workload::{open_journal, pipeline_config, setup, Paths, Seeds, Workload};

/// Set-up repetitions per run; `setup_s` is their median.
const SETUP_REPS: usize = 41;

/// Fewest campaign repetitions a run measures, whatever `--seconds` says.
const MIN_REPS: usize = 3;

/// Work items the reference oracle re-decides per run.
fn oracle_sample_size(w: Workload) -> usize {
    match w {
        Workload::Table4 | Workload::Table4Warm => 48,
        Workload::FuzzDeep => 24,
    }
}

struct Args {
    workload: Workload,
    seeds: Seeds,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> std::result::Result<Args, String> {
    let mut kv = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let Some(name) = flag.strip_prefix("--") else {
            return Err(format!("unexpected argument {flag}"));
        };
        let value = it.next().ok_or_else(|| format!("--{name} needs a value"))?;
        kv.insert(name.to_string(), value);
    }
    let get = |name: &str| kv.get(name).ok_or_else(|| format!("missing --{name}"));
    let num = |name: &str| -> std::result::Result<u64, String> {
        get(name)?
            .parse::<u64>()
            .map_err(|e| format!("--{name}: {e}"))
    };
    for name in kv.keys() {
        if !["workload", "seed", "seconds", "trace", "stream-seed"].contains(&name.as_str()) {
            return Err(format!("unknown flag --{name}"));
        }
    }
    let workload = Workload::parse(get("workload")?)
        .ok_or_else(|| "--workload: one of table4, fuzz_deep, table4_warm".to_string())?;
    let seconds = num("seconds")?;
    if !(1..=600).contains(&seconds) {
        return Err("--seconds: 1 to 600".into());
    }
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        _ => return Err("--trace: 0 or 1".into()),
    };
    let stream = match kv.get("stream-seed") {
        Some(_) => num("stream-seed")?,
        None => workload::DEFAULT_STREAM_SEED,
    };
    Ok(Args {
        workload,
        seeds: Seeds {
            seed: num("seed")?,
            stream,
        },
        seconds: seconds as f64,
        trace,
    })
}

/// One metric of the final JSON line.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

/// What a run reports.
struct Report {
    metrics: Vec<Metric>,
    attempted: u64,
    failed: u64,
    /// Every output check that failed.
    problems: Vec<String>,
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let root = Path::new("perfbench");
    if !root.join("Cargo.toml").is_file() {
        eprintln!("perfbench: run from the repository root");
        std::process::exit(2);
    }
    let run = || -> Result<Report> {
        let paths = Paths::new(&root.join("work"), args.workload)
            .map_err(|e| Error::Io(format!("work directory: {e}")))?;
        let report = if args.trace {
            traced_run(args.workload, args.seeds, &paths)
        } else {
            end_to_end_run(args.workload, args.seeds, args.seconds, &paths)
        };
        paths.remove_store();
        report
    };
    let report = match run() {
        Ok(r) => r,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    };
    for p in &report.problems {
        println!("CHECK FAILED: {p}");
    }
    let mut json = String::new();
    let _ = write!(
        json,
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
        report.problems.is_empty() && report.failed == 0,
        report.attempted,
        report.failed
    );
    for (i, m) in report.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            json,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name, m.value, m.unit
        );
    }
    json.push_str("}}");
    println!("{json}");
}

/// Builds the warm store with an untimed cold campaign and returns that
/// campaign's table.
fn cold_build(w: Workload, seeds: Seeds, paths: &Paths) -> Result<String> {
    let tests = w.generate(seeds.seed, seeds.stream);
    let store = Arc::new(PersistStore::open(paths.store())?);
    let mut spec = w.spec();
    spec.threads = 2;
    spec.metrics = false;
    spec.store = Some(store.clone());
    let cold = run_campaign(&tests, &spec, &pipeline_config())?;
    let sims = cold.cache.source_misses + cold.cache.target_misses;
    if store.stats().appends != sims || cold.cache.disk_hits != 0 {
        return Err(Error::Io(format!(
            "cold store build: {} appends for {sims} simulations",
            store.stats().appends
        )));
    }
    Ok(table_text(&cold))
}

/// The checks every run makes on one item-by-item pass: no timeouts, the
/// Table IV shape, and the seeded reference-oracle sample.
fn check_pass(w: Workload, pass: &Pass, seed: u64, problems: &mut Vec<String>) -> OracleReport {
    if pass.counts.timeout_items > 0 {
        problems.push(format!(
            "{} work items hit the simulation timeout (machine overloaded)",
            pass.counts.timeout_items
        ));
    }
    if w != Workload::FuzzDeep {
        if let Err(e) = table_iv_shape(&pass.result) {
            problems.push(format!("Table IV shape: {e}"));
        }
    }
    if w.uses_store() && pass.counts.source_sims + pass.counts.target_sims != 0 {
        problems.push(format!(
            "warm store still simulated {} legs",
            pass.counts.source_sims + pass.counts.target_sims
        ));
    }
    let oracle = oracle_sample(
        &pass.items,
        &pass.tests,
        &w.spec().profiles(),
        oracle_sample_size(w),
        seed,
    );
    println!(
        "oracle: {} checked, {} right, {} unchecked (budget exceeded)",
        oracle.checked, oracle.right, oracle.unchecked
    );
    problems.extend(oracle.mismatches.iter().map(|m| format!("oracle: {m}")));
    oracle
}

/// Error cells a campaign has beyond the reference pass — items that
/// failed for a non-deterministic reason.
fn extra_errors(run: &CampaignResult, reference: &CampaignResult) -> u64 {
    run.cells
        .iter()
        .map(|(k, c)| {
            let expected = reference.cell(k.0, k.1, k.2).map_or(0, |r| r.errors);
            c.errors.saturating_sub(expected) as u64
        })
        .sum()
}

/// The deterministic counts a later change may cite, as one line.
fn counts_line(w: Workload, pass: &Pass) -> String {
    let c: &Counts = &pass.counts;
    let cache = &pass.result.cache;
    let mut kinds: BTreeMap<String, u64> = BTreeMap::new();
    for item in &pass.items {
        if let itemwise::Verdict::Error(k) = item.verdict {
            *kinds.entry(format!("{k:?}")).or_default() += 1;
        }
    }
    let mut line = format!(
        "counts {}: items={} source_sims={} target_sims={} candidates={} pruned={} \
         l2c={} compiles={} compile_errors={} s2l={} s2l_distinct={} mcompare={} \
         cache=[{cache}] errors={kinds:?}",
        w.name(),
        pass.items.len(),
        c.source_sims,
        c.target_sims,
        c.candidates,
        c.pruned,
        c.l2c_calls,
        c.compiler_calls,
        c.compiler_errors,
        c.s2l_calls,
        c.s2l_distinct,
        c.mcompare_calls,
    );
    if let Some(s) = &pass.result.store {
        let _ = write!(
            line,
            " store=[recovered {} appends {}]",
            s.recovered, s.appends
        );
    }
    if let Some(j) = &pass.result.journal {
        let _ = write!(line, " journal=[appends {}]", j.appends);
    }
    line
}

/// The untraced run: repeated set-up, then the campaign repeated for
/// `seconds`, each repetition normalised by in-campaign reference bursts;
/// then one item-by-item pass that every output check runs against.
fn end_to_end_run(w: Workload, seeds: Seeds, seconds: f64, paths: &Paths) -> Result<Report> {
    let mut problems = Vec::new();
    let cold_table = if w.uses_store() {
        Some(cold_build(w, seeds, paths)?)
    } else {
        None
    };

    // Each set-up runs between two reference bursts that convert it to
    // reference seconds; the kernel is small enough not to disturb it.
    let mut setup_ref_s = Vec::with_capacity(SETUP_REPS);
    let mut recovered = BTreeSet::new();
    let mut last = None;
    for _ in 0..SETUP_REPS {
        let before = probe::speed();
        let start = Instant::now();
        let s = setup(w, seeds, paths, &mut Tracer::new(false))?;
        let raw = start.elapsed().as_secs_f64();
        setup_ref_s.push(raw * (before + probe::speed()) / 2.0);
        if let Some(st) = &s.store_open_stats {
            recovered.insert(st.recovered);
        }
        last = Some(s);
    }
    let base = last.expect("at least one set-up repetition");
    if recovered.len() > 1 {
        problems.push(format!("store recovery counts vary: {recovered:?}"));
    }
    // The campaign resolves models through the process-wide registry;
    // stage them there too, so no work item pays for it.
    for name in w.models() {
        ModelRegistry::global().bundled(name)?;
    }

    let config = pipeline_config();
    let mut spec = w.spec();
    spec.store = base.store.clone();
    let mut rates = Vec::new();
    let mut peak_rss_mb = 0.0;
    let mut runs: Vec<CampaignResult> = Vec::new();
    let measuring = Instant::now();
    // Repeat while another repetition of the mean length still fits.
    let fits = |done: usize| {
        let elapsed = measuring.elapsed().as_secs_f64();
        elapsed + elapsed / done.max(1) as f64 <= seconds
    };
    while runs.len() < MIN_REPS || fits(runs.len()) {
        if w.uses_store() {
            spec.journal = Some(Arc::new(open_journal(w, seeds)?));
        }
        let mut source = probe::ProbedSource::new(&base.tests);
        let result = run_campaign_source(&mut source, &spec, &config)?;
        let ref_s = source.finish();
        rates.push(result.compiled_tests as f64 / ref_s);
        if runs.is_empty() {
            // The peak of one campaign: later repetitions would add
            // whatever the process accumulates across campaigns.
            peak_rss_mb = sys::peak_rss_mb();
        }
        // Only the table and the traffic are compared later; the span
        // trace of a collector-on campaign would pile up across runs.
        runs.push(CampaignResult {
            obs: None,
            ..result
        });
    }

    let pass = run_pass(w, seeds, paths, &mut Tracer::new(false))?;
    let oracle = check_pass(w, &pass, seeds.seed, &mut problems);
    let expected = table_text(&pass.result);
    let mut failed = pass.counts.timeout_items;
    for (i, r) in runs.iter().enumerate() {
        if table_text(r) != expected {
            let extra = extra_errors(r, &pass.result);
            failed += extra;
            problems.push(format!(
                "repetition {i}: table differs from the item-by-item pass ({extra} extra error cells)"
            ));
        }
        if r.cache != pass.result.cache {
            problems.push(format!(
                "repetition {i}: cache traffic [{}] differs from the item-by-item pass [{}]",
                r.cache, pass.result.cache
            ));
        }
    }
    if let Some(cold) = &cold_table {
        if *cold != expected {
            problems.push("warm table differs from the cold table4 table".into());
        }
    }
    if let Some(journal) = &spec.journal {
        let records: BTreeMap<ItemKey, _> = journal
            .records()
            .into_iter()
            .map(|r| (r.key, r.outcome))
            .collect();
        let profiles = w.spec().profiles();
        let wrong = pass
            .items
            .iter()
            .filter(|item| {
                let test = &pass.tests[item.test];
                let compiler = &profiles[item.profile];
                let key = ItemKey {
                    test: test.fingerprint(),
                    profile: profile_fingerprint(&compiler.profile_name()),
                };
                records.get(&key) != Some(&outcome_of(item.verdict, test, compiler))
            })
            .count();
        if wrong > 0 || records.len() != pass.items.len() {
            problems.push(format!(
                "journal: {wrong} of {} items disagree with the item-by-item pass ({} records)",
                pass.items.len(),
                records.len()
            ));
        }
    }
    println!("{}", counts_line(w, &pass));
    println!(
        "{}: {} repetitions, items/ref_s {:?}, setup {:.6} ref s",
        w.name(),
        runs.len(),
        rates.iter().map(|r| r.round()).collect::<Vec<_>>(),
        sys::median(&setup_ref_s),
    );

    Ok(Report {
        metrics: vec![
            Metric {
                name: "items_per_ref_cpu_s",
                value: sys::median(&rates),
                unit: "items/ref_s",
            },
            Metric {
                name: "setup_s",
                value: sys::median(&setup_ref_s),
                unit: "s",
            },
            Metric {
                name: "peak_rss_mb",
                value: peak_rss_mb,
                unit: "MiB",
            },
            Metric {
                name: "error_share",
                value: error_share(&pass.result),
                unit: "share",
            },
            Metric {
                name: "right_verdict_share",
                value: oracle.right_share(),
                unit: "share",
            },
        ],
        attempted: runs.iter().map(|r| r.compiled_tests as u64).sum(),
        failed,
        problems,
    })
}

/// The traced run: the campaign once as the workload runs it, then the
/// item-by-item pass untraced and traced; per-layer numbers come from the
/// traced pass's spans and counts.
fn traced_run(w: Workload, seeds: Seeds, paths: &Paths) -> Result<Report> {
    let mut problems = Vec::new();
    if w.uses_store() {
        cold_build(w, seeds, paths)?;
    }
    for name in w.models() {
        ModelRegistry::global().bundled(name)?;
    }
    let config = pipeline_config();
    let campaign_setup = setup(w, seeds, paths, &mut Tracer::new(false))?;
    let mut spec = w.spec();
    spec.store = campaign_setup.store.clone();
    spec.journal = campaign_setup.journal.clone();
    let campaign = run_campaign(&campaign_setup.tests, &spec, &config)?;
    if w.workers() > 1 {
        // Deterministic counts must not depend on the worker count.
        let mut single = w.spec();
        single.threads = 1;
        let one = run_campaign(&campaign_setup.tests, &single, &config)?;
        if table_text(&one) != table_text(&campaign) || one.cache != campaign.cache {
            problems.push(format!(
                "1 worker [{}] and {} workers [{}] disagree",
                one.cache,
                w.workers(),
                campaign.cache
            ));
        }
    }

    let plain = run_pass(w, seeds, paths, &mut Tracer::new(false))?;
    let mut tracer = Tracer::new(true);
    let traced = run_pass(w, seeds, paths, &mut tracer)?;
    tracer
        .write_jsonl(&paths.trace())
        .map_err(|e| Error::Io(format!("trace dump: {e}")))?;
    let table = table_text(&campaign);
    if table_text(&traced.result) != table || table_text(&plain.result) != table {
        problems.push("traced table differs from the untraced campaign's".into());
    }
    if traced.result.cache != campaign.cache {
        problems.push(format!(
            "cache traffic: traced pass [{}] vs campaign [{}]",
            traced.result.cache, campaign.cache
        ));
    }
    if traced.counts != plain.counts {
        problems.push("deterministic counts differ between two passes".into());
    }
    check_pass(w, &traced, seeds.seed, &mut problems);
    println!("{}", counts_line(w, &traced));

    let selfs = tracer.self_seconds();
    let wall = selfs.values().sum::<f64>();
    let s = |name: &str| selfs.get(name).copied().unwrap_or(0.0);
    let unattributed = s("campaign") + s("item");
    let layers: f64 = selfs
        .iter()
        .filter(|(k, _)| !matches!(**k, "campaign" | "item"))
        .map(|(_, v)| v)
        .sum();
    if ((layers + unattributed) - wall).abs() > 1e-6 * wall.max(1.0) {
        problems.push(format!(
            "self times {layers} + unattributed {unattributed} != total {wall}"
        ));
    }
    println!("layer self-time shares of {wall:.3} s:");
    let mut shares: Vec<_> = selfs.iter().collect();
    shares.sort_by(|a, b| b.1.total_cmp(a.1));
    for (name, v) in shares {
        println!("  {name:14} {:7.4} s  {:5.1}%", v, v * 100.0 / wall);
    }

    let c = &traced.counts;
    let cache = &traced.result.cache;
    let share = |part: u64, whole: u64| {
        if whole == 0 {
            0.0
        } else {
            part as f64 / whole as f64
        }
    };
    let legs = tracer.durations_ms("exec");
    let pct = |p: f64| {
        if legs.is_empty() {
            0.0
        } else {
            sys::quantile(&legs, p)
        }
    };
    let store = traced.result.store.clone().unwrap_or_default();
    let journal = traced.result.journal.clone().unwrap_or_default();
    let fuzz_tests = if w == Workload::FuzzDeep {
        traced.tests.len() as f64
    } else {
        0.0
    };
    let m = |name, value, unit| Metric { name, value, unit };
    let metrics = vec![
        m("diy.generate_s", s("diy.generate"), "s"),
        m("fuzz.generate_s", s("fuzz.generate"), "s"),
        m("fuzz.tests", fuzz_tests, "count"),
        m("cat.stage_s", s("cat.stage"), "s"),
        m("cat.models", w.models().len() as f64, "count"),
        m("cat.lookup_s", s("cat.lookup"), "s"),
        m("l2c.calls", c.l2c_calls as f64, "count"),
        m("l2c.self_s", s("l2c"), "s"),
        m("compiler.calls", c.compiler_calls as f64, "count"),
        m("compiler.self_s", s("compiler"), "s"),
        m("compiler.errors", c.compiler_errors as f64, "count"),
        m("s2l.calls", c.s2l_calls as f64, "count"),
        m("s2l.self_s", s("s2l"), "s"),
        m(
            "s2l.distinct_share",
            share(c.s2l_distinct, c.s2l_calls),
            "share",
        ),
        m("exec.source_sims", c.source_sims as f64, "count"),
        m("exec.target_sims", c.target_sims as f64, "count"),
        m("exec.self_s", s("exec"), "s"),
        m("exec.leg_p50_ms", pct(0.5), "ms"),
        m("exec.leg_p99_ms", pct(0.99), "ms"),
        m("exec.candidates", c.candidates as f64, "count"),
        m("exec.pruned_share", share(c.pruned, c.candidates), "share"),
        m("exec.exhausted", c.exhausted_items as f64, "count"),
        m("mcompare.calls", c.mcompare_calls as f64, "count"),
        m("mcompare.self_s", s("mcompare"), "s"),
        m(
            "cache.source_hit_share",
            share(cache.source_hits, cache.source_hits + cache.source_misses),
            "share",
        ),
        m(
            "cache.target_hit_share",
            share(cache.target_hits, cache.target_hits + cache.target_misses),
            "share",
        ),
        m("cache.self_s", s("cache"), "s"),
        m("persist.open_s", s("persist.open"), "s"),
        m("persist.recovered", store.recovered as f64, "count"),
        m("persist.disk_hits", cache.disk_hits as f64, "count"),
        m("persist.get_s", s("persist.get"), "s"),
        m("persist.puts", store.appends as f64, "count"),
        m("journal.open_s", s("journal.open"), "s"),
        m("journal.appends", journal.appends as f64, "count"),
        m("journal.append_s", s("journal.append"), "s"),
        m("campaign.wall_s", wall, "s"),
        m("campaign.unattributed_s", unattributed, "s"),
        m(
            "trace.overhead_share",
            (traced.wall_s - plain.wall_s) / plain.wall_s,
            "share",
        ),
    ];
    Ok(Report {
        metrics,
        attempted: traced.items.len() as u64,
        failed: c.timeout_items,
        problems,
    })
}
