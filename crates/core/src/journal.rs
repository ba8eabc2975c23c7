//! Resumable, shardable campaigns: the work-item completion journal.
//!
//! Where [`crate::persist`] makes individual *simulation legs* durable,
//! this module makes the *campaign* durable: an append-only, checksummed
//! log of completed work items, so a campaign killed at any point can be
//! reopened and replays its finished `(test, profile)` cells instead of
//! recomputing them — the final [`CampaignResult`] is byte-identical to
//! an uninterrupted run (pinned by `tests/campaign_resume.rs`).
//!
//! # File format
//!
//! ```text
//! header   := MAGIC(8) version(u32) campaign_fp(u64) shard_i(u32) shard_n(u32) cksum(u64)
//! record   := len(u32) payload(len bytes) cksum(u64)      // persist.rs framing
//! payload  := 0 item | 1 summary
//! item     := test(u128) profile(u64) arch(u8) family(u8) opt(u8) outcome(u8)
//!             [test_name(str) profile_name(str)  when outcome = positive]
//! summary  := source_tests(u64) compiled_tests(u64)       // appended on completion
//! ```
//!
//! The journal and the leg store are one `RecordLog` (`persist.rs`) each,
//! which implements the framing, longest-valid-prefix recovery, torn-write
//! rollback and degrade-don't-fail write path for both logs, so a torn
//! append or bit-flipped tail costs exactly the damaged records and a
//! corrupt journal can degrade to a recompute, never to wrong cells.
//!
//! # Identity
//!
//! The header binds the journal to one campaign: the **campaign
//! fingerprint** ([`campaign_fingerprint`]) hashes the corpus stream
//! hash, the profile matrix, the source/target models and the semantic
//! simulation knobs ([`crate::cache::sim_config_fingerprint`]). Reopening a
//! journal under a different fingerprint resets it wholesale — stale
//! cells can never replay into the wrong campaign. Work items are keyed
//! by [`ItemKey`]: the canonical test fingerprint × the profile-name
//! hash, both independent of test naming order and worker scheduling.
//!
//! # Sharding
//!
//! [`ItemKey::shard`] hash-partitions the work-item space: shard `i/N`
//! runs exactly the items whose key hashes to `i` modulo `N`, a pure
//! function of the key — N shard campaigns cover the space with no
//! overlap and no omission, whatever order they run in (or on which
//! machines). [`merge_journals`] folds the N completed shard journals
//! back into one [`CampaignResult`] byte-identical to the unsharded
//! campaign, refusing (typed [`Error::Journal`]) any set of journals
//! that is incomplete, overlapping or from mixed campaigns.
//!
//! # Faults
//!
//! Fault-class item failures ([`Error::is_fault`]: panics, missed
//! deadlines) are *never* journaled — like the leg store, a resumed
//! campaign recomputes them from scratch, so a transient infrastructure
//! fault heals on resume instead of being replayed forever. Journal write
//! failures degrade to a read-only session (counted in [`JournalStats`],
//! surfaced once on stderr); the campaign itself never fails because its
//! journal could not be written.

use std::collections::HashMap;
use std::fmt;
use std::path::PathBuf;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;

use telechat_common::{fnv1a64, Arch, Error, Result};
use telechat_compiler::{CompilerFamily, OptLevel};

use crate::cache::{lock_unpoisoned, sim_config_fingerprint};
use crate::campaign::{CampaignResult, CampaignSpec};
use crate::persist::{
    put_str, put_u32, put_u64, Dec, FileBackend, Header, RecordLog, StoreBackend,
};
use crate::pipeline::PipelineConfig;

/// Magic bytes identifying a Téléchat campaign journal.
const MAGIC: &[u8; 8] = b"TCHJOURN";
/// On-disk format version (bump on layout changes).
const FORMAT_VERSION: u32 = 1;
/// Header size: magic + version + campaign fp + shard i/n + checksum.
const HEADER_LEN: usize = 8 + 4 + 8 + 4 + 4 + 8;

// ---------------------------------------------------------------------------
// Keys, shards, outcomes.
// ---------------------------------------------------------------------------

/// Which hash-partition of the work-item space a campaign runs: shard
/// `index` of `count`. [`ShardSpec::whole`] (`0/1`) is the unsharded
/// campaign.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ShardSpec {
    /// This shard's index, `0 ≤ index < count`.
    pub index: u32,
    /// Total number of shards.
    pub count: u32,
}

impl ShardSpec {
    /// The unsharded campaign: one shard covering every work item.
    pub fn whole() -> ShardSpec {
        ShardSpec { index: 0, count: 1 }
    }

    /// This spec, or a typed [`Error::Journal`] when it names no shard
    /// (`count == 0` or `index >= count`).
    pub(crate) fn checked(self) -> Result<ShardSpec> {
        if self.count == 0 || self.index >= self.count {
            return Err(Error::Journal(format!("invalid shard spec {self}")));
        }
        Ok(self)
    }

    /// True when this spec selects the whole work-item space.
    pub fn is_whole(&self) -> bool {
        self.count <= 1
    }

    /// Parses the CLI shape `I/N` (e.g. `0/4`).
    pub fn parse(s: &str) -> Result<ShardSpec> {
        let err = || Error::parse(format!("--shard wants I/N with I < N, got `{s}`"));
        let (i, n) = s.split_once('/').ok_or_else(err)?;
        let index: u32 = i.trim().parse().map_err(|_| err())?;
        let count: u32 = n.trim().parse().map_err(|_| err())?;
        if count == 0 || index >= count {
            return Err(err());
        }
        Ok(ShardSpec { index, count })
    }
}

impl fmt::Display for ShardSpec {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.index, self.count)
    }
}

/// The identity of one campaign work item, independent of test naming,
/// pull order and worker scheduling: the canonical litmus fingerprint
/// (`LitmusTest::fingerprint`) × the profile-name hash
/// ([`profile_fingerprint`]).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct ItemKey {
    /// Canonical test fingerprint.
    pub test: u128,
    /// Profile-name fingerprint.
    pub profile: u64,
}

impl ItemKey {
    /// The shard this item belongs to under an `N`-way partition: a pure
    /// function of the key, so every process computes the same partition.
    pub fn shard(&self, count: u32) -> u32 {
        if count <= 1 {
            return 0;
        }
        let mut h = fnv1a64(0, &self.test.to_le_bytes());
        h = fnv1a64(h, &self.profile.to_le_bytes());
        (h % count as u64) as u32
    }
}

/// Fingerprint of a compiler profile, from its canonical name
/// (`Compiler::profile_name`, e.g. `clang-11-O2-AArch64`).
pub fn profile_fingerprint(profile_name: &str) -> u64 {
    fnv1a64(0, profile_name.as_bytes())
}

/// How a completed work item binned into its campaign cell. `Positive`
/// carries the names the campaign's positive list reports, so a replayed
/// positive reproduces the exact `(test, profile)` row.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ItemOutcome {
    /// Exact-match pass.
    Pass,
    /// Negative difference (strengthening).
    Negative,
    /// Positive difference — a candidate bug.
    Positive {
        /// The test name, as the positive list reports it.
        test: String,
        /// The compiler profile name.
        profile: String,
    },
    /// Run-time crash.
    Crashed,
    /// Racy source, discounted.
    Racy,
    /// A *deterministic* pipeline error (timeout, unsupported construct…).
    /// Fault-class errors are never journaled.
    Error,
}

/// One journaled work-item completion: the key, the campaign cell it
/// belongs to, and how it binned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ItemRecord {
    /// The work-item identity.
    pub key: ItemKey,
    /// The cell key: target architecture.
    pub arch: Arch,
    /// The cell key: compiler family.
    pub family: CompilerFamily,
    /// The cell key: optimisation level.
    pub opt: OptLevel,
    /// How the item binned.
    pub outcome: ItemOutcome,
}

// ---------------------------------------------------------------------------
// Campaign fingerprint.
// ---------------------------------------------------------------------------

/// The identity a journal is keyed by: everything that determines the
/// campaign's work-item space and its results — the corpus stream hash,
/// the profile matrix (in sweep order), the source and target models and
/// the semantic simulation knobs — and nothing that does not (no thread
/// counts, no deadline, no cache/store/metrics configuration).
pub fn campaign_fingerprint(
    corpus_hash: u64,
    spec: &CampaignSpec,
    config: &PipelineConfig,
) -> u64 {
    let mut h = fnv1a64(0, b"telechat-campaign-v1");
    h = fnv1a64(h, &corpus_hash.to_le_bytes());
    h = fnv1a64(h, spec.source_model.as_bytes());
    for profile in spec.profiles() {
        h = fnv1a64(h, profile.profile_name().as_bytes());
    }
    h = fnv1a64(h, &sim_config_fingerprint(&config.sim).to_le_bytes());
    h = fnv1a64(h, config.target_model.as_deref().unwrap_or("").as_bytes());
    fnv1a64(h, &[u8::from(config.augment), u8::from(config.optimise)])
}

// ---------------------------------------------------------------------------
// Codec.
// ---------------------------------------------------------------------------

fn arch_code(a: Arch) -> u8 {
    match a {
        Arch::C11 => 0,
        Arch::AArch64 => 1,
        Arch::Armv7 => 2,
        Arch::X86_64 => 3,
        Arch::RiscV => 4,
        Arch::Ppc => 5,
        Arch::Mips => 6,
    }
}

fn arch_from(code: u8) -> Option<Arch> {
    Some(match code {
        0 => Arch::C11,
        1 => Arch::AArch64,
        2 => Arch::Armv7,
        3 => Arch::X86_64,
        4 => Arch::RiscV,
        5 => Arch::Ppc,
        6 => Arch::Mips,
        _ => return None,
    })
}

fn family_code(f: CompilerFamily) -> u8 {
    match f {
        CompilerFamily::Llvm => 0,
        CompilerFamily::Gcc => 1,
    }
}

fn family_from(code: u8) -> Option<CompilerFamily> {
    Some(match code {
        0 => CompilerFamily::Llvm,
        1 => CompilerFamily::Gcc,
        _ => return None,
    })
}

fn opt_code(o: OptLevel) -> u8 {
    match o {
        OptLevel::O0 => 0,
        OptLevel::O1 => 1,
        OptLevel::O2 => 2,
        OptLevel::O3 => 3,
        OptLevel::Ofast => 4,
        OptLevel::Og => 5,
    }
}

fn opt_from(code: u8) -> Option<OptLevel> {
    Some(match code {
        0 => OptLevel::O0,
        1 => OptLevel::O1,
        2 => OptLevel::O2,
        3 => OptLevel::O3,
        4 => OptLevel::Ofast,
        5 => OptLevel::Og,
        _ => return None,
    })
}

/// What one journal record decodes to.
enum Record {
    Item(ItemRecord),
    Summary { source: u64, compiled: u64 },
}

fn encode_item(rec: &ItemRecord) -> Vec<u8> {
    let mut p = Vec::with_capacity(32);
    p.push(0);
    p.extend_from_slice(&rec.key.test.to_le_bytes());
    put_u64(&mut p, rec.key.profile);
    p.push(arch_code(rec.arch));
    p.push(family_code(rec.family));
    p.push(opt_code(rec.opt));
    match &rec.outcome {
        ItemOutcome::Pass => p.push(0),
        ItemOutcome::Negative => p.push(1),
        ItemOutcome::Positive { test, profile } => {
            p.push(2);
            put_str(&mut p, test);
            put_str(&mut p, profile);
        }
        ItemOutcome::Crashed => p.push(3),
        ItemOutcome::Racy => p.push(4),
        ItemOutcome::Error => p.push(5),
    }
    p
}

fn encode_summary(source: u64, compiled: u64) -> Vec<u8> {
    let mut p = Vec::with_capacity(17);
    p.push(1);
    put_u64(&mut p, source);
    put_u64(&mut p, compiled);
    p
}

fn decode_payload(payload: &[u8]) -> Option<Record> {
    let mut d = Dec::new(payload);
    let rec = match d.u8()? {
        0 => {
            let key = ItemKey {
                test: d.u128()?,
                profile: d.u64()?,
            };
            let arch = arch_from(d.u8()?)?;
            let family = family_from(d.u8()?)?;
            let opt = opt_from(d.u8()?)?;
            let outcome = match d.u8()? {
                0 => ItemOutcome::Pass,
                1 => ItemOutcome::Negative,
                2 => ItemOutcome::Positive {
                    test: d.str()?,
                    profile: d.str()?,
                },
                3 => ItemOutcome::Crashed,
                4 => ItemOutcome::Racy,
                5 => ItemOutcome::Error,
                _ => return None,
            };
            Record::Item(ItemRecord {
                key,
                arch,
                family,
                opt,
                outcome,
            })
        }
        1 => Record::Summary {
            source: d.u64()?,
            compiled: d.u64()?,
        },
        _ => return None,
    };
    d.done().then_some(rec)
}

fn encode_header(fingerprint: u64, shard: ShardSpec) -> Vec<u8> {
    let mut h = Vec::with_capacity(HEADER_LEN);
    h.extend_from_slice(MAGIC);
    put_u32(&mut h, FORMAT_VERSION);
    put_u64(&mut h, fingerprint);
    put_u32(&mut h, shard.index);
    put_u32(&mut h, shard.count);
    let ck = fnv1a64(0, &h);
    put_u64(&mut h, ck);
    h
}

/// Decodes a header's fingerprint and shard, when magic, version and
/// checksum all hold.
fn decode_header(image: &[u8]) -> Option<(u64, ShardSpec)> {
    let header = image.get(..HEADER_LEN)?;
    let (body, ck) = header.split_at(HEADER_LEN - 8);
    if u64::from_le_bytes(ck.try_into().unwrap()) != fnv1a64(0, body) {
        return None;
    }
    let mut d = Dec::new(body);
    let magic = (0..8).map(|_| d.u8()).collect::<Option<Vec<u8>>>()?;
    if magic != MAGIC || d.u32()? != FORMAT_VERSION {
        return None;
    }
    let fingerprint = d.u64()?;
    let shard = ShardSpec {
        index: d.u32()?,
        count: d.u32()?,
    };
    (shard.count > 0 && shard.index < shard.count).then_some((fingerprint, shard))
}

// ---------------------------------------------------------------------------
// Stats.
// ---------------------------------------------------------------------------

/// Counters describing one journal session: what recovery found, what has
/// replayed and what has been appended since. Deterministic given the
/// journal image and the work list — byte-identical across campaign
/// thread counts (pinned by `tests/campaign_resume.rs`).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct JournalStats {
    /// Valid records recovered on open (items + summaries).
    pub recovered: u64,
    /// Bytes of damaged suffix dropped by recovery.
    pub dropped_bytes: u64,
    /// True if the header was missing/mismatched and the log was reset.
    pub reset: bool,
    /// Completed items served from the journal instead of recomputed.
    pub replayed: u64,
    /// Records appended since open.
    pub appends: u64,
    /// Failed appends (the completions stayed memory-only).
    pub write_errors: u64,
    /// True when the session degraded to read-only.
    pub read_only: bool,
}

// ---------------------------------------------------------------------------
// The journal.
// ---------------------------------------------------------------------------

/// The campaign work-item completion journal: an index of completed items
/// and the seal, over a `RecordLog`. One instance per campaign (and per
/// shard), shared across workers behind an `Arc`; see the module docs for
/// format, identity and failure semantics.
#[derive(Debug)]
pub struct CampaignJournal {
    fingerprint: u64,
    shard: ShardSpec,
    index: Mutex<HashMap<ItemKey, ItemRecord>>,
    /// The sealed totals; held across a seal's append.
    summary: Mutex<Option<(u64, u64)>>,
    replayed: AtomicU64,
    log: Mutex<RecordLog>,
}

impl CampaignJournal {
    /// Opens (or creates) the journal at `path` for the campaign
    /// identified by `fingerprint`, shard `shard`. An existing journal
    /// for a *different* campaign or shard is reset wholesale.
    pub fn open(
        path: impl Into<PathBuf>,
        fingerprint: u64,
        shard: ShardSpec,
    ) -> Result<CampaignJournal> {
        CampaignJournal::open_backend(Box::new(FileBackend::new(path)), fingerprint, shard)
    }

    /// Opens a journal over an arbitrary backend (tests, benches, fault
    /// injection).
    pub fn open_backend(
        backend: Box<dyn StoreBackend>,
        fingerprint: u64,
        shard: ShardSpec,
    ) -> Result<CampaignJournal> {
        CampaignJournal::open_inner(backend, Some((fingerprint, shard)))
    }

    /// Opens an existing journal, adopting the campaign fingerprint and
    /// shard stamped in its header — the `merge` path, which must accept
    /// journals without re-deriving their campaign. Unlike [`open`],
    /// a missing or damaged header is a typed error, never a reset.
    ///
    /// [`open`]: CampaignJournal::open
    pub fn open_existing(path: impl Into<PathBuf>) -> Result<CampaignJournal> {
        let path = path.into();
        let display = path.display().to_string();
        CampaignJournal::open_existing_backend(Box::new(FileBackend::new(path)), &display)
    }

    /// [`open_existing`] over an arbitrary backend; `name` labels errors.
    ///
    /// [`open_existing`]: CampaignJournal::open_existing
    pub fn open_existing_backend(
        backend: Box<dyn StoreBackend>,
        name: &str,
    ) -> Result<CampaignJournal> {
        CampaignJournal::open_inner(backend, None).and_then(|j| {
            if j.stats().reset {
                return Err(Error::Journal(format!(
                    "{name}: missing or damaged journal header"
                )));
            }
            Ok(j)
        })
    }

    /// Opens expecting the header of `expect`, or adopting the header found
    /// when `expect` is `None`.
    fn open_inner(
        backend: Box<dyn StoreBackend>,
        expect: Option<(u64, ShardSpec)>,
    ) -> Result<CampaignJournal> {
        let mut adopted = None;
        let mut adopt = |header: &[u8]| {
            adopted = decode_header(header);
            adopted.is_some()
        };
        let expected;
        let header = match expect {
            Some((fingerprint, shard)) => {
                expected = encode_header(fingerprint, shard.checked()?);
                Header::Expect(&expected)
            }
            None => Header::Adopt(HEADER_LEN, &mut adopt),
        };
        let (mut index, mut summary) = (HashMap::new(), None);
        let log = RecordLog::open(backend, "journal", header, &mut |payload| {
            match decode_payload(payload) {
                Some(Record::Item(rec)) => {
                    index.insert(rec.key, rec);
                }
                Some(Record::Summary { source, compiled }) => summary = Some((source, compiled)),
                None => return false,
            }
            true
        })?;
        // Adoption with no header to adopt opens reset, which
        // `open_existing` turns into a typed error.
        let (fingerprint, shard) = expect.or(adopted).unwrap_or((0, ShardSpec::whole()));
        Ok(CampaignJournal {
            fingerprint,
            shard,
            index: Mutex::new(index),
            summary: Mutex::new(summary),
            replayed: AtomicU64::new(0),
            log: Mutex::new(log),
        })
    }

    /// The campaign fingerprint this journal is keyed by.
    pub fn fingerprint(&self) -> u64 {
        self.fingerprint
    }

    /// The shard this journal records.
    pub fn shard(&self) -> ShardSpec {
        self.shard
    }

    /// Looks up a completed work item; a hit counts as a replay.
    pub fn replay(&self, key: &ItemKey) -> Option<ItemRecord> {
        let rec = lock_unpoisoned(&self.index).get(key).cloned();
        if rec.is_some() {
            self.replayed.fetch_add(1, Ordering::Relaxed);
        }
        rec
    }

    /// Journals a completed work item. I/O failures degrade (rolled back
    /// and counted, never surfaced) exactly like the leg store's writes.
    pub fn record(&self, rec: &ItemRecord) {
        if lock_unpoisoned(&self.log).append(&encode_item(rec)) {
            lock_unpoisoned(&self.index).insert(rec.key, rec.clone());
        }
    }

    /// Marks the campaign complete by appending the summary record with
    /// the full-stream accounting totals. Idempotent: resuming an
    /// already-complete campaign re-seals without growing the log.
    pub fn seal(&self, source_tests: u64, compiled_tests: u64) {
        let totals = Some((source_tests, compiled_tests));
        let mut summary = lock_unpoisoned(&self.summary);
        if *summary != totals
            && lock_unpoisoned(&self.log).append(&encode_summary(source_tests, compiled_tests))
        {
            *summary = totals;
        }
    }

    /// The completion summary `(source_tests, compiled_tests)`, when the
    /// campaign sealed.
    pub fn summary(&self) -> Option<(u64, u64)> {
        *lock_unpoisoned(&self.summary)
    }

    /// Number of completed items currently indexed.
    pub fn len(&self) -> usize {
        lock_unpoisoned(&self.index).len()
    }

    /// True if no items are indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Every indexed item record, sorted by key — a deterministic view
    /// whatever order workers appended in.
    pub fn records(&self) -> Vec<ItemRecord> {
        let mut recs: Vec<ItemRecord> = lock_unpoisoned(&self.index).values().cloned().collect();
        recs.sort_by_key(|r| r.key);
        recs
    }

    /// A snapshot of the journal's counters.
    pub fn stats(&self) -> JournalStats {
        let log = lock_unpoisoned(&self.log).stats();
        JournalStats {
            recovered: log.recovered,
            dropped_bytes: log.dropped_bytes,
            reset: log.reset,
            replayed: self.replayed.load(Ordering::Relaxed),
            appends: log.appends,
            write_errors: log.write_errors,
            read_only: log.read_only,
        }
    }

    /// The byte offsets at which a journal image can be cleanly cut: after
    /// the header and after each valid record. The kill matrix
    /// (`tests/campaign_resume.rs`, `bench_relops`) truncates an image at
    /// every boundary to simulate a `kill -9` between appends.
    pub fn record_boundaries(image: &[u8]) -> Vec<usize> {
        RecordLog::boundaries(image, HEADER_LEN, &|p| decode_payload(p).is_some())
    }
}

// ---------------------------------------------------------------------------
// Shard merge.
// ---------------------------------------------------------------------------

/// Folds the completed journals of an `N`-way sharded campaign into one
/// [`CampaignResult`], byte-identical (cells, positive list, accounting)
/// to the unsharded campaign.
///
/// # Errors
///
/// [`Error::Journal`] when the set is not exactly the complete, disjoint
/// partition the shard campaign produced: mixed campaign fingerprints,
/// wrong shard count, duplicate or missing shards, an unsealed journal
/// (the shard campaign did not finish), an item recorded by the wrong
/// shard, overlapping item keys, or fewer items than the campaign's
/// work-item count (e.g. a shard whose fault-class cells never journal).
/// Refusing is the exactly-once guarantee: a merge never serves a result
/// assembled from the wrong pieces.
pub fn merge_journals(journals: &[CampaignJournal]) -> Result<CampaignResult> {
    let Some(first) = journals.first() else {
        return Err(Error::Journal("merge of zero journals".into()));
    };
    let fingerprint = first.fingerprint();
    let count = first.shard().count;
    if journals.len() != count as usize {
        return Err(Error::Journal(format!(
            "{} journal(s) for a {count}-way shard campaign",
            journals.len()
        )));
    }

    let mut seen_shards = vec![false; count as usize];
    let mut summary: Option<(u64, u64)> = None;
    let mut index: HashMap<ItemKey, ItemRecord> = HashMap::new();
    for j in journals {
        if j.fingerprint() != fingerprint {
            return Err(Error::Journal(
                "journals from different campaigns (fingerprint mismatch)".into(),
            ));
        }
        let shard = j.shard();
        if shard.count != count {
            return Err(Error::Journal(format!(
                "shard counts disagree: {count} vs {}",
                shard.count
            )));
        }
        let slot = &mut seen_shards[shard.index as usize];
        if *slot {
            return Err(Error::Journal(format!("duplicate shard {shard}")));
        }
        *slot = true;
        let Some(totals) = j.summary() else {
            return Err(Error::Journal(format!(
                "shard {shard} journal is unsealed (campaign incomplete)"
            )));
        };
        if *summary.get_or_insert(totals) != totals {
            return Err(Error::Journal(
                "shard journals disagree on campaign totals".into(),
            ));
        }
        for rec in j.records() {
            if rec.key.shard(count) != shard.index {
                return Err(Error::Journal(format!(
                    "shard {shard} journaled an item outside its partition"
                )));
            }
            if index.insert(rec.key, rec).is_some() {
                return Err(Error::Journal(
                    "overlapping item keys across shards".into(),
                ));
            }
        }
    }

    let (source_tests, compiled_tests) = summary.unwrap_or((0, 0));
    if index.len() as u64 != compiled_tests {
        return Err(Error::Journal(format!(
            "{} of {compiled_tests} work items journaled (incomplete shards \
             or unretried faulted items)",
            index.len()
        )));
    }

    let mut result = CampaignResult {
        source_tests: source_tests as usize,
        compiled_tests: compiled_tests as usize,
        ..CampaignResult::default()
    };
    for rec in index.into_values() {
        crate::campaign::apply_outcome(&mut result, (rec.arch, rec.family, rec.opt), rec.outcome);
    }
    result.positive_tests.sort();
    Ok(result)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::persist::MemBackend;

    fn item(test: u128, profile: u64, outcome: ItemOutcome) -> ItemRecord {
        ItemRecord {
            key: ItemKey { test, profile },
            arch: Arch::AArch64,
            family: CompilerFamily::Llvm,
            opt: OptLevel::O2,
            outcome,
        }
    }

    #[test]
    fn shard_spec_parses_and_rejects() {
        assert_eq!(ShardSpec::parse("0/4").unwrap(), ShardSpec { index: 0, count: 4 });
        assert_eq!(ShardSpec::parse("3/4").unwrap(), ShardSpec { index: 3, count: 4 });
        for bad in ["4/4", "1/0", "x/2", "2", "-1/2", "1/2/3"] {
            assert!(ShardSpec::parse(bad).is_err(), "{bad}");
        }
    }

    #[test]
    fn shard_partition_covers_without_overlap() {
        for count in [1u32, 2, 4, 7] {
            let mut per_shard = vec![0u32; count as usize];
            for t in 0..64u128 {
                for p in 0..4u64 {
                    let key = ItemKey { test: t.wrapping_mul(0x9e3779b9), profile: p };
                    per_shard[key.shard(count) as usize] += 1;
                }
            }
            assert_eq!(per_shard.iter().sum::<u32>(), 256, "count={count}");
            // The hash spreads: no shard is empty on 256 items.
            assert!(per_shard.iter().all(|&n| n > 0), "count={count}: {per_shard:?}");
        }
    }

    #[test]
    fn records_roundtrip_across_reopen() {
        let mem = MemBackend::new();
        let j = CampaignJournal::open_backend(Box::new(mem.clone()), 42, ShardSpec::whole())
            .unwrap();
        j.record(&item(1, 10, ItemOutcome::Pass));
        j.record(&item(
            2,
            20,
            ItemOutcome::Positive {
                test: "lb-1".into(),
                profile: "clang-11-O2-AArch64".into(),
            },
        ));
        j.record(&item(3, 30, ItemOutcome::Error));
        j.seal(3, 3);
        assert_eq!(j.stats().appends, 4);
        drop(j);

        let j = CampaignJournal::open_backend(Box::new(mem), 42, ShardSpec::whole()).unwrap();
        let stats = j.stats();
        assert_eq!(stats.recovered, 4);
        assert_eq!(stats.dropped_bytes, 0);
        assert!(!stats.reset);
        assert_eq!(j.summary(), Some((3, 3)));
        assert_eq!(
            j.replay(&ItemKey { test: 2, profile: 20 }).unwrap().outcome,
            ItemOutcome::Positive {
                test: "lb-1".into(),
                profile: "clang-11-O2-AArch64".into(),
            }
        );
        assert_eq!(j.stats().replayed, 1);
        assert_eq!(j.replay(&ItemKey { test: 9, profile: 9 }), None);
        assert_eq!(j.stats().replayed, 1, "a miss is not a replay");
    }

    #[test]
    fn foreign_fingerprint_or_shard_resets() {
        let mem = MemBackend::new();
        let j = CampaignJournal::open_backend(Box::new(mem.clone()), 42, ShardSpec::whole())
            .unwrap();
        j.record(&item(1, 10, ItemOutcome::Pass));
        drop(j);

        let j = CampaignJournal::open_backend(Box::new(mem.clone()), 43, ShardSpec::whole())
            .unwrap();
        assert!(j.stats().reset, "a different campaign resets the journal");
        assert!(j.is_empty());
        drop(j);

        let j = CampaignJournal::open_backend(
            Box::new(mem),
            43,
            ShardSpec { index: 1, count: 2 },
        )
        .unwrap();
        assert!(j.stats().reset, "a different shard resets the journal");
    }

    #[test]
    fn recovery_truncates_exactly_the_damaged_suffix() {
        let mem = MemBackend::new();
        let j = CampaignJournal::open_backend(Box::new(mem.clone()), 7, ShardSpec::whole())
            .unwrap();
        for t in 0..5u128 {
            j.record(&item(t, 1, ItemOutcome::Pass));
        }
        drop(j);
        let image = mem.bytes().lock().unwrap().clone();
        let bounds = CampaignJournal::record_boundaries(&image);
        assert_eq!(bounds.len(), 6, "header + 5 records");
        assert_eq!(*bounds.last().unwrap(), image.len());

        // A torn cut mid-record: recovery keeps the preceding records and
        // truncates exactly at the last boundary before the cut.
        let cut = bounds[3] + 5;
        {
            let bytes = mem.bytes();
            let mut buf = bytes.lock().unwrap();
            buf.truncate(cut);
        }
        let j = CampaignJournal::open_backend(Box::new(mem.clone()), 7, ShardSpec::whole())
            .unwrap();
        let stats = j.stats();
        assert_eq!(stats.recovered, 3);
        assert_eq!(stats.dropped_bytes, (cut - bounds[3]) as u64);
        assert!(!stats.read_only);
        assert_eq!(mem.bytes().lock().unwrap().len(), bounds[3]);
    }

    #[test]
    fn seal_is_idempotent() {
        let mem = MemBackend::new();
        let j = CampaignJournal::open_backend(Box::new(mem.clone()), 7, ShardSpec::whole())
            .unwrap();
        j.seal(2, 8);
        let len = mem.bytes().lock().unwrap().len();
        j.seal(2, 8);
        assert_eq!(mem.bytes().lock().unwrap().len(), len);
        drop(j);
        let j = CampaignJournal::open_backend(Box::new(mem.clone()), 7, ShardSpec::whole())
            .unwrap();
        j.seal(2, 8);
        assert_eq!(mem.bytes().lock().unwrap().len(), len, "re-seal after reopen");
    }

    #[test]
    fn open_existing_adopts_or_refuses() {
        let mem = MemBackend::new();
        let j = CampaignJournal::open_backend(
            Box::new(mem.clone()),
            99,
            ShardSpec { index: 1, count: 4 },
        )
        .unwrap();
        j.record(&item(5, 50, ItemOutcome::Racy));
        drop(j);

        let j = CampaignJournal::open_existing_backend(Box::new(mem), "mem").unwrap();
        assert_eq!(j.fingerprint(), 99);
        assert_eq!(j.shard(), ShardSpec { index: 1, count: 4 });
        assert_eq!(j.len(), 1);

        let empty = CampaignJournal::open_existing_backend(Box::new(MemBackend::new()), "mem");
        assert!(matches!(empty, Err(Error::Journal(_))), "{empty:?}");
    }

    #[test]
    fn merge_refuses_overlap_missing_and_unsealed() {
        let mk = |index, count, items: &[u128], sealed: Option<(u64, u64)>| {
            let j = CampaignJournal::open_backend(
                Box::new(MemBackend::new()),
                1,
                ShardSpec { index, count },
            )
            .unwrap();
            for &t in items {
                j.record(&item(t, 0, ItemOutcome::Pass));
            }
            if let Some((s, c)) = sealed {
                j.seal(s, c);
            }
            j
        };
        // Two items whose keys land on shards 0 and 1 of a 2-way split.
        let (mut on0, mut on1) = (Vec::new(), Vec::new());
        for t in 0..16u128 {
            let key = ItemKey { test: t, profile: 0 };
            if key.shard(2) == 0 {
                on0.push(t);
            } else {
                on1.push(t);
            }
        }
        let total = (on0.len() + on1.len()) as u64;

        let good = merge_journals(&[
            mk(0, 2, &on0, Some((16, total))),
            mk(1, 2, &on1, Some((16, total))),
        ])
        .unwrap();
        assert_eq!(good.source_tests, 16);
        assert_eq!(good.compiled_tests, total as usize);
        assert_eq!(good.cells.values().map(|c| c.pass).sum::<usize>(), total as usize);

        for (label, r) in [
            (
                "missing shard",
                merge_journals(&[mk(0, 2, &on0, Some((16, total)))]),
            ),
            (
                "duplicate shard",
                merge_journals(&[
                    mk(0, 2, &on0, Some((16, total))),
                    mk(0, 2, &on0, Some((16, total))),
                ]),
            ),
            (
                "unsealed shard",
                merge_journals(&[mk(0, 2, &on0, Some((16, total))), mk(1, 2, &on1, None)]),
            ),
            (
                "incomplete items",
                merge_journals(&[
                    mk(0, 2, &on0, Some((16, total))),
                    mk(1, 2, &on1[1..], Some((16, total))),
                ]),
            ),
            (
                "out-of-partition item",
                merge_journals(&[
                    mk(0, 2, &on0, Some((16, total))),
                    mk(1, 2, &[on0[0]], Some((16, total))),
                ]),
            ),
        ] {
            assert!(matches!(r, Err(Error::Journal(_))), "{label}: {r:?}");
        }
    }

    /// The on-disk image of a shard journal, pinned byte for byte: one
    /// item per outcome, then the seal.
    #[test]
    fn journal_image_matches_the_golden() {
        let mem = MemBackend::new();
        let shard = ShardSpec { index: 1, count: 4 };
        let j = CampaignJournal::open_backend(Box::new(mem.clone()), 42, shard).unwrap();
        let positive = ItemOutcome::Positive {
            test: "lb-1".into(),
            profile: "clang-11-O2-AArch64".into(),
        };
        let outcomes = [
            ItemOutcome::Pass,
            ItemOutcome::Negative,
            positive,
            ItemOutcome::Crashed,
            ItemOutcome::Racy,
            ItemOutcome::Error,
        ];
        for (t, outcome) in outcomes.into_iter().enumerate() {
            j.record(&item(t as u128, 10 * t as u64, outcome));
        }
        j.seal(6, 6);
        drop(j);
        let image = mem.bytes().lock().unwrap().clone();
        assert_eq!(
            crate::persist::hex_lines(&image),
            include_str!("../../../tests/golden/journal-image.hex")
        );
    }

    #[test]
    fn open_refuses_a_shard_spec_that_names_no_shard() {
        for bad in [
            ShardSpec { index: 2, count: 2 },
            ShardSpec { index: 0, count: 0 },
        ] {
            let mem = MemBackend::new();
            let r = CampaignJournal::open_backend(Box::new(mem.clone()), 1, bad);
            assert!(matches!(r, Err(Error::Journal(_))), "{bad}: {r:?}");
            let written = mem.bytes().lock().unwrap().len();
            assert_eq!(written, 0, "{bad}: no header written");
        }
    }
}
