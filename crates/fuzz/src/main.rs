//! `telechat-fuzz` — the cycle-space fuzzing CLI.
//!
//! ```text
//! telechat-fuzz generate [--comm N] [--po-run N] [--limit N] [--print] [--hash-only]
//! telechat-fuzz campaign [--seed S] [--count N] [--source-model M] [--target-model M]
//!                        [--arch A] [--compiler llvm-N|gcc-N] [--opt -ON]
//!                        [--threads T] [--assert-no-positive] [--store PATH]
//!                        [--journal PATH] [--shard I/N]
//!                        [--metrics] [--trace PATH] [--progress]
//! telechat-fuzz merge --journal PATH [--journal PATH ...]
//! telechat-fuzz minimize [--seed S] [--count N] [--source-model M] [--target-model M]
//!                        [--arch A] [--compiler llvm-N|gcc-N] [--opt -ON]
//! ```
//!
//! `generate` prints the canonical corpus at a communication-edge budget
//! (its size and FNV fingerprint are deterministic — CI diffs two runs).
//! `campaign` streams a seeded fuzz campaign through the full pipeline and
//! tabulates the differences. `minimize` hunts the stream for the first
//! positive difference and shrinks it to a 1-minimal witness.
//!
//! `--journal PATH` makes the campaign resumable: completed work items are
//! logged and a rerun (after a crash or `kill -9`) replays them instead of
//! recomputing, with a final table byte-identical to an uninterrupted run.
//! `--shard I/N` runs one hash-partition of the work-item space; `merge`
//! folds the `N` completed shard journals back into the unsharded result,
//! refusing incomplete, overlapping or mixed-campaign journal sets.
//!
//! The campaign sink flags compose rather than conflict: `--metrics`
//! prints the metrics table in the summary, `--trace PATH` additionally
//! writes the span/metric JSONL, and `--progress` streams live heartbeat
//! lines to *stderr* while the campaign runs (stdout stays byte-
//! deterministic). Any of the three opens the same telemetry window, so
//! `--progress` or `--trace` alone also yields the metrics table —
//! combining them with `--metrics` is allowed and redundant only in that
//! sense. A flag that does not apply to a subcommand (`generate
//! --progress`, `campaign --hash-only`, …) is a usage error, not silent
//! precedence.

use telechat::{
    campaign_fingerprint, merge_journals, run_campaign_source, CampaignJournal, CampaignSpec,
    PersistStore, PipelineConfig, ShardSpec, Telechat, TestVerdict,
};
use telechat_common::{Arch, Error, Result};
use telechat_compiler::{Compiler, CompilerId, OptLevel, Target};
use telechat_fuzz::{corpus, fnv1a64, minimize_positive, FuzzConfig, FuzzSource, GenConfig};
use telechat_litmus::print::to_litmus;

fn main() {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let code = match run(&args) {
        Ok(code) => code,
        Err(e) => {
            eprintln!("telechat-fuzz: {e}");
            2
        }
    };
    std::process::exit(code);
}

/// Which flags each subcommand accepts. Anything else parsed is a usage
/// error — inapplicable flags are rejected, never silently ignored.
const GENERATE_FLAGS: &[&str] = &["--comm", "--po-run", "--limit", "--print", "--hash-only"];
const CAMPAIGN_FLAGS: &[&str] = &[
    "--comm",
    "--po-run",
    "--seed",
    "--count",
    "--source-model",
    "--target-model",
    "--arch",
    "--compiler",
    "--opt",
    "--threads",
    "--assert-no-positive",
    "--store",
    "--journal",
    "--shard",
    "--metrics",
    "--trace",
    "--progress",
];
const MERGE_FLAGS: &[&str] = &["--journal"];
const MINIMIZE_FLAGS: &[&str] = &[
    "--comm",
    "--po-run",
    "--seed",
    "--count",
    "--source-model",
    "--target-model",
    "--arch",
    "--compiler",
    "--opt",
];

fn run(args: &[String]) -> Result<i32> {
    match args.first().map(String::as_str) {
        Some("generate") => {
            let o = Opts::parse(&args[1..])?;
            o.check_flags("generate", GENERATE_FLAGS)?;
            generate(&o)
        }
        Some("campaign") => {
            let o = Opts::parse(&args[1..])?;
            o.check_flags("campaign", CAMPAIGN_FLAGS)?;
            campaign(&o)
        }
        Some("merge") => {
            let o = Opts::parse(&args[1..])?;
            o.check_flags("merge", MERGE_FLAGS)?;
            merge(&o)
        }
        Some("minimize") => {
            let o = Opts::parse(&args[1..])?;
            o.check_flags("minimize", MINIMIZE_FLAGS)?;
            hunt_and_minimize(&o)
        }
        _ => {
            eprintln!("usage: telechat-fuzz <generate|campaign|merge|minimize> [options]");
            eprintln!("       (see the crate docs for the option list)");
            Ok(2)
        }
    }
}

/// Flat option bag shared by the subcommands.
struct Opts {
    comm: usize,
    po_run: usize,
    limit: usize,
    print: bool,
    hash_only: bool,
    seed: u64,
    count: usize,
    source_model: String,
    target_model: Option<String>,
    arch: Arch,
    compiler: CompilerId,
    opt: OptLevel,
    threads: usize,
    assert_no_positive: bool,
    store: Option<std::path::PathBuf>,
    /// One path for `campaign --journal`, many for `merge`.
    journal: Vec<std::path::PathBuf>,
    shard: Option<ShardSpec>,
    metrics: bool,
    trace: Option<std::path::PathBuf>,
    progress: bool,
    /// Every flag the parser consumed, in order — what `check_flags`
    /// validates against the invoked subcommand's allow-list.
    seen: Vec<String>,
}

impl Opts {
    fn parse(args: &[String]) -> Result<Opts> {
        let mut o = Opts {
            // Campaign/minimize default: the 61-test two-thread corpus, so
            // the seeded sampling phase engages within a small --count and
            // --seed genuinely steers the stream. `generate` users pass
            // --comm explicitly (CI pins --comm 4).
            comm: 2,
            po_run: 1,
            limit: usize::MAX,
            print: false,
            hash_only: false,
            seed: 7,
            count: 64,
            source_model: "rc11".into(),
            target_model: None,
            arch: Arch::AArch64,
            compiler: CompilerId::llvm(11),
            opt: OptLevel::O2,
            threads: 1,
            assert_no_positive: false,
            store: None,
            journal: Vec::new(),
            shard: None,
            metrics: false,
            trace: None,
            progress: false,
            seen: Vec::new(),
        };
        let mut it = args.iter();
        while let Some(flag) = it.next() {
            o.seen.push(flag.clone());
            let mut value = || {
                it.next()
                    .ok_or_else(|| Error::parse(format!("{flag} needs a value")))
            };
            match flag.as_str() {
                "--comm" => o.comm = parse_num(value()?)?,
                "--po-run" => o.po_run = parse_num(value()?)?,
                "--limit" => o.limit = parse_num(value()?)?,
                "--print" => o.print = true,
                "--hash-only" => o.hash_only = true,
                "--seed" => o.seed = parse_num(value()?)? as u64,
                "--count" => o.count = parse_num(value()?)?,
                "--source-model" => o.source_model = value()?.clone(),
                "--target-model" => o.target_model = Some(value()?.clone()),
                "--arch" => o.arch = value()?.parse()?,
                "--compiler" => o.compiler = parse_compiler(value()?)?,
                "--opt" => o.opt = value()?.parse()?,
                "--threads" => o.threads = parse_num(value()?)?,
                "--assert-no-positive" => o.assert_no_positive = true,
                "--store" => o.store = Some(value()?.into()),
                "--journal" => o.journal.push(value()?.into()),
                "--shard" => o.shard = Some(ShardSpec::parse(value()?)?),
                "--metrics" => o.metrics = true,
                "--trace" => o.trace = Some(value()?.into()),
                "--progress" => o.progress = true,
                other => return Err(Error::parse(format!("unknown option `{other}`"))),
            }
        }
        Ok(o)
    }

    /// Rejects flags that parsed but do not apply to `subcommand`.
    fn check_flags(&self, subcommand: &str, allowed: &[&str]) -> Result<()> {
        for flag in &self.seen {
            if !allowed.contains(&flag.as_str()) {
                return Err(Error::parse(format!(
                    "`{flag}` does not apply to `{subcommand}` (accepted: {})",
                    allowed.join(" ")
                )));
            }
        }
        Ok(())
    }

    fn fuzz_config(&self) -> FuzzConfig {
        let mut cfg = FuzzConfig::smoke(self.seed, self.count);
        cfg.exhaustive = self.gen_config();
        cfg
    }

    fn gen_config(&self) -> GenConfig {
        let mut cfg = GenConfig::corpus(self.comm);
        cfg.max_po_run = self.po_run;
        // Scale both budgets together, or --po-run would silently lose
        // shapes to the location cap while claiming full coverage.
        cfg.max_edges = self.comm * (1 + self.po_run);
        cfg.max_locs = cfg.max_edges;
        cfg
    }
}

fn parse_num(s: &str) -> Result<usize> {
    s.parse()
        .map_err(|_| Error::parse(format!("bad number `{s}`")))
}

fn parse_compiler(s: &str) -> Result<CompilerId> {
    let (family, version) = s
        .split_once('-')
        .ok_or_else(|| Error::parse(format!("expected llvm-N or gcc-N, got `{s}`")))?;
    let v: u32 = version
        .parse()
        .map_err(|_| Error::parse(format!("bad compiler version `{version}`")))?;
    match family {
        "llvm" | "clang" => Ok(CompilerId::llvm(v)),
        "gcc" => Ok(CompilerId::gcc(v)),
        other => Err(Error::parse(format!("unknown compiler family `{other}`"))),
    }
}

fn generate(o: &Opts) -> Result<i32> {
    let corpus = corpus(&o.gen_config());
    let mut hash = 0u64;
    for (i, (shape, test)) in corpus.iter().enumerate() {
        hash = fnv1a64(hash, to_litmus(test).as_bytes());
        if i < o.limit && !o.hash_only {
            if o.print {
                println!("{}", to_litmus(test));
            } else {
                println!(
                    "{:4}  {:40}  threads={} locs={}",
                    i,
                    shape.slug(),
                    test.thread_count(),
                    test.locs.len()
                );
            }
        }
    }
    println!(
        "corpus: comm<={} po-run<={} -> {} canonical tests, fnv1a64 {hash:016x}",
        o.comm,
        o.po_run,
        corpus.len()
    );
    Ok(0)
}

fn campaign_spec(o: &Opts) -> Result<CampaignSpec> {
    // `--store PATH` attaches the crash-safe persistent store: a rerun
    // with the same path answers already-simulated legs from the log.
    let store = match &o.store {
        Some(path) => Some(std::sync::Arc::new(PersistStore::open(path)?)),
        None => None,
    };
    Ok(CampaignSpec {
        compilers: vec![o.compiler],
        opts: vec![o.opt],
        targets: vec![Target::new(o.arch)],
        source_model: o.source_model.clone(),
        threads: o.threads,
        cache: true,
        store,
        // A trace or progress sink needs the span/metric collection even
        // without --metrics (and either therefore also prints the metrics
        // table in the campaign summary, exactly as --metrics would).
        metrics: o.metrics || o.trace.is_some() || o.progress,
        ..CampaignSpec::default()
    })
}

/// The live progress sink: a background ticker that renders heartbeat
/// lines to stderr from the metrics counter registry while the campaign
/// runs. Stdout stays byte-deterministic. The ticker is a drop guard —
/// the final line is emitted on drop, so even campaigns that end in an
/// early error or a panic (unwinding through `campaign`) report their
/// totals instead of going silent.
struct ProgressTicker {
    shared: std::sync::Arc<(std::sync::Mutex<bool>, std::sync::Condvar)>,
    handle: Option<std::thread::JoinHandle<()>>,
}

impl ProgressTicker {
    fn start(total: usize, journal: bool) -> ProgressTicker {
        let shared = std::sync::Arc::new((std::sync::Mutex::new(false), std::sync::Condvar::new()));
        let in_thread = std::sync::Arc::clone(&shared);
        let handle = std::thread::spawn(move || {
            let started = std::time::Instant::now();
            let (lock, cv) = &*in_thread;
            let mut stopped = match lock.lock() {
                Ok(g) => g,
                Err(p) => p.into_inner(),
            };
            loop {
                let tick = std::time::Duration::from_millis(1000);
                stopped = match cv.wait_timeout(stopped, tick) {
                    Ok((g, _)) => g,
                    Err(p) => p.into_inner().0,
                };
                Self::heartbeat(total, journal, started, *stopped);
                if *stopped {
                    return;
                }
            }
        });
        ProgressTicker {
            shared,
            handle: Some(handle),
        }
    }

    /// One heartbeat line from the live counter registry.
    fn heartbeat(total: usize, journal: bool, started: std::time::Instant, done: bool) {
        use telechat_obs::{get, Counter};
        let tests = get(Counter::CampaignTests);
        let positives = get(Counter::CampaignPositives);
        let pruned = get(Counter::SimPruned);
        let candidates = get(Counter::SimCandidates);
        let elapsed = started.elapsed().as_secs_f64();
        let prune = if candidates > 0 {
            format!("{:.1}%", pruned as f64 * 100.0 / candidates as f64)
        } else {
            "-".into()
        };
        let resumed = if journal {
            let replayed = get(Counter::CampaignResumed);
            let remaining = (total as u64).saturating_sub(tests);
            format!(", {replayed} resumed/{remaining} remaining")
        } else {
            String::new()
        };
        let eta = if done {
            " done".into()
        } else if tests > 0 && (tests as usize) < total {
            let remaining = elapsed / tests as f64 * (total as f64 - tests as f64);
            format!(" eta {remaining:.0}s")
        } else {
            String::new()
        };
        eprintln!(
            "progress: {tests}/{total} tests, {positives} positive(s), prune {prune}{resumed}, {elapsed:.1}s{eta}"
        );
    }

    /// Stops the ticker thread after one last heartbeat. Idempotent; also
    /// runs from `Drop`, which is what guarantees the final line on the
    /// error and panic paths.
    fn finish(&mut self) {
        let Some(handle) = self.handle.take() else {
            return;
        };
        let (lock, cv) = &*self.shared;
        match lock.lock() {
            Ok(mut g) => *g = true,
            Err(p) => *p.into_inner() = true,
        }
        cv.notify_all();
        handle.join().ok();
    }
}

impl Drop for ProgressTicker {
    fn drop(&mut self) {
        self.finish();
    }
}

fn pipeline_config(o: &Opts) -> PipelineConfig {
    PipelineConfig {
        target_model: o.target_model.clone(),
        ..PipelineConfig::default()
    }
}

/// The campaign identity the journal is keyed by: the seed/count/shape
/// parameters that fully determine the fuzz stream. Cheap (no draining)
/// and exact — two invocations agree on the hash iff they generate the
/// same test stream.
fn stream_identity(o: &Opts) -> u64 {
    let mut h = fnv1a64(0, b"telechat-fuzz-stream-v1");
    for v in [o.seed, o.count as u64, o.comm as u64, o.po_run as u64] {
        h = fnv1a64(h, &v.to_le_bytes());
    }
    h
}

fn campaign(o: &Opts) -> Result<i32> {
    let mut source = FuzzSource::new(&o.fuzz_config());
    let mut spec = campaign_spec(o)?;
    let config = pipeline_config(o);
    spec.shard = o.shard;
    if o.journal.len() > 1 {
        return Err(Error::parse(
            "campaign takes one --journal (merge takes several)",
        ));
    }
    if let Some(path) = o.journal.first() {
        let fp = campaign_fingerprint(stream_identity(o), &spec, &config);
        let shard = o.shard.unwrap_or_else(ShardSpec::whole);
        spec.journal = Some(std::sync::Arc::new(CampaignJournal::open(path, fp, shard)?));
    }
    let mut ticker = o
        .progress
        .then(|| ProgressTicker::start(o.count, spec.journal.is_some()));
    let result = run_campaign_source(&mut source, &spec, &config);
    if let Some(ticker) = &mut ticker {
        ticker.finish();
    }
    let result = result?;
    println!("{result}");
    if let Some(path) = &o.trace {
        let report = result
            .obs
            .as_ref()
            .expect("--trace implies metrics collection");
        let io = |e: std::io::Error| Error::Io(e.to_string());
        let mut file = std::io::BufWriter::new(std::fs::File::create(path).map_err(io)?);
        report.write_jsonl(&mut file).map_err(io)?;
        std::io::Write::flush(&mut file).map_err(io)?;
        eprintln!(
            "trace: {} span(s), {} metric row(s) -> {}",
            report.span_count(),
            report.counters.len(),
            path.display()
        );
    }
    println!(
        "fuzz stream: seed {} -> {} tests, fnv1a64 {:016x}",
        o.seed,
        source.emitted(),
        source.stream_hash()
    );
    for (test, profile) in &result.positive_tests {
        println!("  +ve: {test} under {profile}");
    }
    if o.assert_no_positive && result.total_positive() > 0 {
        eprintln!(
            "FAIL: {} positive difference(s) in a campaign expected clean",
            result.total_positive()
        );
        return Ok(1);
    }
    Ok(0)
}

/// `merge`: fold the completed journals of an N-way sharded campaign into
/// the unsharded result table. Validation (complete, disjoint, one
/// campaign, all sealed) lives in [`merge_journals`]; any violation is a
/// typed error and a non-zero exit.
fn merge(o: &Opts) -> Result<i32> {
    if o.journal.is_empty() {
        return Err(Error::parse("merge wants --journal PATH, once per shard"));
    }
    let journals = o
        .journal
        .iter()
        .map(CampaignJournal::open_existing)
        .collect::<Result<Vec<_>>>()?;
    let result = merge_journals(&journals)?;
    println!("{result}");
    for (test, profile) in &result.positive_tests {
        println!("  +ve: {test} under {profile}");
    }
    eprintln!(
        "merge: {} shard journal(s), campaign {:016x}",
        journals.len(),
        journals[0].fingerprint()
    );
    Ok(0)
}

fn hunt_and_minimize(o: &Opts) -> Result<i32> {
    let config = pipeline_config(o);
    let tool = Telechat::with_config(&o.source_model, config)?;
    let compiler = Compiler::new(o.compiler, o.opt, Target::new(o.arch));
    let mut source = FuzzSource::new(&o.fuzz_config());
    while let Some((shape, test)) = source.next_pair() {
        let Ok(report) = tool.run(&test, &compiler) else {
            continue;
        };
        if report.verdict != TestVerdict::PositiveDifference {
            continue;
        }
        println!("found: {} under {}", test.name, compiler.profile_name());
        let min = minimize_positive(&tool, &compiler, &shape)?;
        println!(
            "minimized in {} step(s), {} pipeline run(s):",
            min.trail.len(),
            min.checks
        );
        for step in &min.trail {
            println!("  - {step}");
        }
        println!(
            "1-minimal witness ({} edges): {}",
            min.shape.len(),
            min.shape.slug()
        );
        println!("{}", to_litmus(&min.test));
        return Ok(0);
    }
    println!(
        "no positive difference in {} seeded tests (seed {})",
        source.emitted(),
        o.seed
    );
    Ok(1)
}
