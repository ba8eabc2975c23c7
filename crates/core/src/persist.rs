//! Crash-safe persistent campaign store.
//!
//! An append-only, content-addressed record log that persists simulation
//! legs across processes, wired under [`crate::SimCache`] as a
//! write-through tier: a warm rerun of a campaign answers every leg from
//! disk and only simulates fingerprints it has never seen.
//!
//! # File format
//!
//! ```text
//! header   := MAGIC(8) version(u32) engine_revision(u64) models_fp(u64) cksum(u64)
//! record   := len(u32) payload(len bytes) cksum(u64)      // cksum = fnv1a64(payload)
//! payload  := kind(u8) test(u128) model(u64) config(u64) value
//! value    := 0 StoredSim | 1 Error
//! ```
//!
//! All integers are little-endian. The log is *append-only*: a record is
//! never rewritten in place, so any prefix of the file that passes
//! validation is a faithful prefix of some past store state.
//!
//! One private `RecordLog` implements the framing, recovery, torn-write
//! rollback and read-only degradation below for both durable logs: this
//! store and the campaign journal ([`crate::journal`]). Each keeps only its
//! header, its payload codec and its index.
//!
//! # Crash safety
//!
//! Recovery on open scans the log front to back and keeps the longest
//! valid prefix: the first record whose length field overruns the file,
//! whose checksum does not match, or whose payload fails to decode marks
//! the damaged suffix, which is dropped (and physically truncated) in its
//! entirety. A torn append, a `kill -9` mid-write, or a bit-flipped tail
//! therefore costs exactly the damaged records — the reopened store serves
//! only checksum-valid entries and the campaign recomputes the rest. A
//! corrupt entry can degrade to a recompute, never to wrong data.
//!
//! # Versioning
//!
//! The header stamps [`telechat_exec::ENGINE_REVISION`] and the bundled
//! model corpus fingerprint ([`telechat_cat::bundled_fingerprint`]); a
//! mismatch on open resets the store wholesale, so an engine or model
//! change can never replay stale results. Individual records additionally
//! key on the *per-model* content fingerprint
//! ([`telechat_cat::CatModel::content_fingerprint`]), so two models never
//! alias. Ad-hoc models built from a raw [`telechat_cat::CatProgram`]
//! have no stable content fingerprint and are simply never persisted.
//!
//! # Failure semantics
//!
//! Store I/O failures *degrade*: a failed append is rolled back (the torn
//! tail truncated) and counted, and the entry stays memory-only; the
//! campaign never fails because its cache could not be written. Injected
//! faults are driven through the [`StoreBackend`] trait — see
//! [`FaultyBackend`] and [`FaultPlan`].

use std::collections::HashMap;
use std::fmt;
use std::io::{Read as _, Write as _};
use std::path::PathBuf;
use std::sync::atomic::{AtomicU32, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

use telechat_common::{
    fnv1a64, Error, Loc, Outcome, OutcomeSet, Reg, Result, StateKey, ThreadId, Val,
};
use telechat_exec::SimResult;

use crate::cache::lock_unpoisoned;

/// Magic bytes identifying a Téléchat store log.
const MAGIC: &[u8; 8] = b"TCHSTORE";
/// On-disk format version (bump on layout changes). v2 added
/// `StoredSim::pruned_candidates`; v3 added the attribution fields (rule
/// tallies, prune sites, per-combo histogram); v4 added the work counters
/// (`pushes`, `frontier_evals`). An older log is recovered as a reset (the
/// legs recompute — store contents never change results).
const FORMAT_VERSION: u32 = 4;
/// Header size: magic + version + engine revision + models fp + checksum.
const HEADER_LEN: usize = 8 + 4 + 8 + 8 + 8;
/// Upper bound on a single record payload; anything larger is treated as
/// corruption (a litmus-scale leg is a few kilobytes).
const MAX_RECORD: u32 = 1 << 24;

// ---------------------------------------------------------------------------
// Backend: the I/O surface, small enough to shim for fault injection.
// ---------------------------------------------------------------------------

/// The file operations the store performs, as a trait so tests can inject
/// faults deterministically ([`FaultyBackend`]) and run entirely in memory
/// ([`MemBackend`]).
pub trait StoreBackend: Send + Sync {
    /// Reads the entire current log image.
    fn load(&self) -> std::io::Result<Vec<u8>>;
    /// Appends bytes at the end of the log.
    fn append(&self, bytes: &[u8]) -> std::io::Result<()>;
    /// Truncates the log to `len` bytes (recovery and torn-write rollback).
    fn truncate(&self, len: u64) -> std::io::Result<()>;
}

/// The real thing: a single log file on disk.
pub struct FileBackend {
    path: PathBuf,
}

impl FileBackend {
    /// A backend over the given path; the file is created on first append.
    pub fn new(path: impl Into<PathBuf>) -> FileBackend {
        FileBackend { path: path.into() }
    }
}

impl StoreBackend for FileBackend {
    fn load(&self) -> std::io::Result<Vec<u8>> {
        match std::fs::File::open(&self.path) {
            Ok(mut f) => {
                let mut buf = Vec::new();
                f.read_to_end(&mut buf)?;
                Ok(buf)
            }
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(Vec::new()),
            Err(e) => Err(e),
        }
    }

    fn append(&self, bytes: &[u8]) -> std::io::Result<()> {
        let mut f = std::fs::OpenOptions::new()
            .create(true)
            .append(true)
            .open(&self.path)?;
        f.write_all(bytes)?;
        f.sync_data()
    }

    fn truncate(&self, len: u64) -> std::io::Result<()> {
        let f = std::fs::OpenOptions::new().write(true).open(&self.path)?;
        f.set_len(len)?;
        f.sync_data()
    }
}

/// An in-memory backend. Cloning shares the underlying buffer, so a test
/// can "restart the process" by reopening a clone, and can corrupt the
/// image directly through [`MemBackend::bytes`].
#[derive(Clone, Default)]
pub struct MemBackend {
    buf: Arc<Mutex<Vec<u8>>>,
}

impl MemBackend {
    /// A fresh, empty in-memory log.
    pub fn new() -> MemBackend {
        MemBackend::default()
    }

    /// The shared log image, for inspection and deliberate corruption.
    pub fn bytes(&self) -> Arc<Mutex<Vec<u8>>> {
        self.buf.clone()
    }
}

impl StoreBackend for MemBackend {
    fn load(&self) -> std::io::Result<Vec<u8>> {
        Ok(self.buf.lock().unwrap_or_else(|e| e.into_inner()).clone())
    }

    fn append(&self, bytes: &[u8]) -> std::io::Result<()> {
        self.buf
            .lock()
            .unwrap_or_else(|e| e.into_inner())
            .extend_from_slice(bytes);
        Ok(())
    }

    fn truncate(&self, len: u64) -> std::io::Result<()> {
        let mut buf = self.buf.lock().unwrap_or_else(|e| e.into_inner());
        let len = len.min(buf.len() as u64) as usize;
        buf.truncate(len);
        Ok(())
    }
}

// ---------------------------------------------------------------------------
// Fault injection.
// ---------------------------------------------------------------------------

/// A deterministic plan of I/O faults for [`FaultyBackend`].
///
/// Each field arms one fault; `Default` arms none. [`FaultPlan::seeded`]
/// derives a plan from a seed, for matrix-style tests that want coverage
/// without hand-picking every point.
#[derive(Debug, Clone, Default)]
pub struct FaultPlan {
    /// Fail the Nth append (0-based, counted across the backend's life).
    pub fail_append: Option<u32>,
    /// When the failing append fires, let the first N bytes land anyway —
    /// a torn ("short") write, as a crash mid-`write` would leave.
    pub torn_bytes: Option<usize>,
    /// Flip one bit of the loaded image at this byte offset (mod length)
    /// on every [`StoreBackend::load`].
    pub flip_read_at: Option<u64>,
    /// Fail every truncate call (recovery cannot repair the file).
    pub fail_truncate: bool,
    /// Fail every load call (the resume-read / merge-read fault: the log
    /// exists but cannot be read back at open).
    pub fail_load: bool,
}

impl FaultPlan {
    /// A deterministic plan derived from `seed` (splitmix64): fails one of
    /// the first 16 appends, torn half the time.
    pub fn seeded(seed: u64) -> FaultPlan {
        let mut next = splitmix64(seed);
        let fail_at = (next() % 16) as u32;
        let torn = if next().is_multiple_of(2) {
            Some((next() % 24) as usize)
        } else {
            None
        };
        FaultPlan {
            fail_append: Some(fail_at),
            torn_bytes: torn,
            ..FaultPlan::default()
        }
    }

    /// A wider deterministic plan for the chaos matrix: independently arms
    /// an append fault (torn half the time), a read bit-flip, a truncate
    /// fault and a load fault from `seed`, so a sweep over seeds covers the
    /// cross-product of fault sites — including the resume-read and
    /// merge-read paths [`FaultPlan::seeded`] never touches.
    pub fn seeded_chaos(seed: u64) -> FaultPlan {
        let mut next = splitmix64(seed);
        FaultPlan {
            fail_append: next().is_multiple_of(2).then(|| (next() % 32) as u32),
            torn_bytes: next().is_multiple_of(2).then(|| (next() % 24) as usize),
            flip_read_at: next().is_multiple_of(4).then(|| next() % 4096),
            fail_truncate: next().is_multiple_of(4),
            fail_load: next().is_multiple_of(8),
        }
    }
}

/// The SplitMix64 stream the seeded fault plans draw from.
fn splitmix64(seed: u64) -> impl FnMut() -> u64 {
    let mut x = seed.wrapping_add(0x9e37_79b9_7f4a_7c15);
    move || {
        x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = x;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }
}

/// Wraps a backend and injects the faults a [`FaultPlan`] arms. Used by
/// the crash-matrix tests to prove recovery; never constructed on the
/// production path.
pub struct FaultyBackend<B> {
    inner: B,
    plan: FaultPlan,
    appends: AtomicU32,
}

impl<B: StoreBackend> FaultyBackend<B> {
    /// Wraps `inner`, arming `plan`.
    pub fn new(inner: B, plan: FaultPlan) -> FaultyBackend<B> {
        FaultyBackend {
            inner,
            plan,
            appends: AtomicU32::new(0),
        }
    }
}

impl<B: StoreBackend> StoreBackend for FaultyBackend<B> {
    fn load(&self) -> std::io::Result<Vec<u8>> {
        if self.plan.fail_load {
            return Err(std::io::Error::other("injected load fault"));
        }
        let mut buf = self.inner.load()?;
        if let Some(off) = self.plan.flip_read_at {
            if !buf.is_empty() {
                let i = (off % buf.len() as u64) as usize;
                buf[i] ^= 0x40;
            }
        }
        Ok(buf)
    }

    fn append(&self, bytes: &[u8]) -> std::io::Result<()> {
        let n = self.appends.fetch_add(1, Ordering::Relaxed);
        if self.plan.fail_append == Some(n) {
            if let Some(torn) = self.plan.torn_bytes {
                let torn = torn.min(bytes.len());
                // Land the torn prefix, then report failure — the shape a
                // crash mid-write leaves on disk.
                let _ = self.inner.append(&bytes[..torn]);
            }
            return Err(std::io::Error::other("injected append fault"));
        }
        self.inner.append(bytes)
    }

    fn truncate(&self, len: u64) -> std::io::Result<()> {
        if self.plan.fail_truncate {
            return Err(std::io::Error::other("injected truncate fault"));
        }
        self.inner.truncate(len)
    }
}

// ---------------------------------------------------------------------------
// Keys and values.
// ---------------------------------------------------------------------------

/// Which simulation leg a record caches.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LegKind {
    /// The source-program leg (shared across compiler configurations).
    Source,
    /// The compiled-program leg.
    Target,
}

/// The content-addressed key of one persisted leg: everything that
/// determines the simulation result, nothing that does not (no test name,
/// no thread count).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct PersistKey {
    /// Source or target leg.
    pub kind: LegKind,
    /// Canonical litmus fingerprint (`LitmusTest::fingerprint`).
    pub test: u128,
    /// Model *content* fingerprint (`CatModel::content_fingerprint`).
    pub model: u64,
    /// `sim_config_fingerprint` of the semantic simulation knobs.
    pub config: u64,
}

/// The persistable subset of a [`SimResult`]: everything except kept
/// executions (render-only, bounded but bulky, and excluded by their own
/// config fingerprint anyway).
#[derive(Debug, Clone, PartialEq)]
pub struct StoredSim {
    /// Outcomes of all allowed executions.
    pub outcomes: OutcomeSet,
    /// Candidate executions examined.
    pub candidates: u64,
    /// Allowed executions.
    pub allowed: u64,
    /// Flags that fired on at least one allowed execution.
    pub flags: std::collections::BTreeSet<String>,
    /// Const-write crash marker.
    pub crashed: bool,
    /// Full acyclicity traversals (pinned-zero accounting field).
    pub full_traversals: u64,
    /// Budget charge covered by pruned subtrees.
    pub pruned_candidates: u64,
    /// Incremental session pushes (deterministic, like the charge sums).
    pub pushes: u64,
    /// Session work units spent on those pushes.
    pub frontier_evals: u64,
    /// Original wall-clock simulation time, in nanoseconds.
    pub elapsed_nanos: u64,
    /// Forbidden-leaf tally per first-violated rule. Persisted so
    /// store-warm replays carry the original attribution and campaign
    /// totals stay byte-identical across store configurations.
    pub rule_leaves: std::collections::BTreeMap<String, u64>,
    /// Pruned charge per blamed rule (mid-DFS rejections).
    pub rule_prunes: std::collections::BTreeMap<String, u64>,
    /// Pruned charge per enumeration prune site.
    pub prune_sites: telechat_exec::PruneSites,
    /// Per-combo DFS-size histogram (sparse-encoded on disk).
    pub combo_candidates: telechat_obs::Histogram,
}

impl StoredSim {
    /// Captures a result for persistence. `None` when the result carries
    /// kept executions — those runs are never persisted.
    pub fn capture(r: &SimResult) -> Option<StoredSim> {
        if !r.executions.is_empty() {
            return None;
        }
        Some(StoredSim {
            outcomes: r.outcomes.clone(),
            candidates: r.candidates,
            allowed: r.allowed,
            flags: r.flags.clone(),
            crashed: r.crashed,
            full_traversals: r.full_traversals,
            pruned_candidates: r.pruned_candidates,
            pushes: r.pushes,
            frontier_evals: r.frontier_evals,
            elapsed_nanos: u64::try_from(r.elapsed.as_nanos()).unwrap_or(u64::MAX),
            rule_leaves: r.rule_leaves.clone(),
            rule_prunes: r.rule_prunes.clone(),
            prune_sites: r.prune_sites,
            combo_candidates: r.combo_candidates.clone(),
        })
    }

    /// Rebuilds the full result (with an empty execution list).
    pub fn into_result(self) -> SimResult {
        SimResult {
            outcomes: self.outcomes,
            candidates: self.candidates,
            allowed: self.allowed,
            flags: self.flags,
            crashed: self.crashed,
            executions: Vec::new(),
            full_traversals: self.full_traversals,
            pruned_candidates: self.pruned_candidates,
            pushes: self.pushes,
            frontier_evals: self.frontier_evals,
            rule_leaves: self.rule_leaves,
            rule_prunes: self.rule_prunes,
            prune_sites: self.prune_sites,
            combo_candidates: self.combo_candidates,
            elapsed: Duration::from_nanos(self.elapsed_nanos),
        }
    }
}

/// What a record stores: a completed simulation or the *deterministic*
/// error it produced (budget, timeout, ill-formed…). Faults
/// ([`Error::is_fault`]) are never persisted.
pub type StoredValue = Result<StoredSim>;

// ---------------------------------------------------------------------------
// Codec.
// ---------------------------------------------------------------------------

pub(crate) fn put_u32(buf: &mut Vec<u8>, v: u32) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(buf: &mut Vec<u8>, v: u64) {
    buf.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_str(buf: &mut Vec<u8>, s: &str) {
    put_u32(buf, s.len() as u32);
    buf.extend_from_slice(s.as_bytes());
}

fn put_val(buf: &mut Vec<u8>, v: &Val) {
    match v {
        Val::Int(i) => {
            buf.push(0);
            buf.extend_from_slice(&i.to_le_bytes());
        }
        Val::Addr(l) => {
            buf.push(1);
            put_str(buf, l.as_str());
        }
    }
}

fn put_rule_map(buf: &mut Vec<u8>, map: &std::collections::BTreeMap<String, u64>) {
    put_u32(buf, map.len() as u32);
    for (rule, n) in map {
        put_str(buf, rule);
        put_u64(buf, *n);
    }
}

/// Sparse histogram encoding: the (index, count) pairs of the nonzero
/// buckets, then the scalar summary. Per-combo DFS sizes cluster in a
/// handful of buckets, so this beats the dense 65-slot array by an order
/// of magnitude on disk.
fn put_hist(buf: &mut Vec<u8>, h: &telechat_obs::Histogram) {
    let nonzero: Vec<(u8, u64)> = h
        .buckets()
        .iter()
        .enumerate()
        .filter(|(_, &c)| c > 0)
        .map(|(i, &c)| (i as u8, c))
        .collect();
    put_u32(buf, nonzero.len() as u32);
    for (i, c) in nonzero {
        buf.push(i);
        put_u64(buf, c);
    }
    put_u64(buf, h.count());
    put_u64(buf, h.sum());
    put_u64(buf, h.min());
    put_u64(buf, h.max());
}

fn put_key(buf: &mut Vec<u8>, k: &StateKey) {
    match k {
        StateKey::Reg(t, r) => {
            buf.push(0);
            buf.push(t.0);
            put_str(buf, r.name());
        }
        StateKey::Loc(l) => {
            buf.push(1);
            put_str(buf, l.as_str());
        }
    }
}

/// Encodes a value; `false` when the value is unpersistable (a fault).
fn encode_value(buf: &mut Vec<u8>, v: &StoredValue) -> bool {
    match v {
        Ok(sim) => {
            buf.push(0);
            put_u32(buf, sim.outcomes.len() as u32);
            for o in sim.outcomes.iter() {
                put_u32(buf, o.len() as u32);
                for (k, val) in o.iter() {
                    put_key(buf, k);
                    put_val(buf, val);
                }
            }
            put_u64(buf, sim.candidates);
            put_u64(buf, sim.allowed);
            put_u32(buf, sim.flags.len() as u32);
            for f in &sim.flags {
                put_str(buf, f);
            }
            buf.push(u8::from(sim.crashed));
            put_u64(buf, sim.full_traversals);
            put_u64(buf, sim.pruned_candidates);
            put_u64(buf, sim.pushes);
            put_u64(buf, sim.frontier_evals);
            put_u64(buf, sim.elapsed_nanos);
            put_rule_map(buf, &sim.rule_leaves);
            put_rule_map(buf, &sim.rule_prunes);
            for (_, n) in sim.prune_sites.rows() {
                put_u64(buf, n);
            }
            put_hist(buf, &sim.combo_candidates);
            true
        }
        Err(e) => {
            if e.is_fault() {
                return false;
            }
            buf.push(1);
            match e {
                Error::Parse { msg, line } => {
                    buf.push(0);
                    put_str(buf, msg);
                    put_u64(buf, line.map_or(u64::MAX, |l| l as u64));
                }
                Error::Model(m) => {
                    buf.push(1);
                    put_str(buf, m);
                }
                Error::IllFormed(m) => {
                    buf.push(2);
                    put_str(buf, m);
                }
                Error::Budget { steps } => {
                    buf.push(3);
                    put_u64(buf, *steps);
                }
                Error::Timeout { limit_ms } => {
                    buf.push(4);
                    put_u64(buf, *limit_ms);
                }
                Error::Vacuous(m) => {
                    buf.push(5);
                    put_str(buf, m);
                }
                Error::Unsupported(m) => {
                    buf.push(6);
                    put_str(buf, m);
                }
                Error::InternalCompilerError(m) => {
                    buf.push(7);
                    put_str(buf, m);
                }
                // Faults are screened out above; journal errors never
                // occur as simulation-leg results.
                Error::Panicked(_) | Error::Deadline { .. } | Error::Io(_) | Error::Journal(_) => {
                    unreachable!()
                }
            }
            true
        }
    }
}

/// A record's payload; `None` when the value is unpersistable (a fault).
fn encode_record(key: &PersistKey, value: &StoredValue) -> Option<Vec<u8>> {
    let mut payload = Vec::with_capacity(128);
    payload.push(match key.kind {
        LegKind::Source => 0,
        LegKind::Target => 1,
    });
    payload.extend_from_slice(&key.test.to_le_bytes());
    put_u64(&mut payload, key.model);
    put_u64(&mut payload, key.config);
    encode_value(&mut payload, value).then_some(payload)
}

/// Scans framed records from `start`, feeding each checksum-valid payload
/// to `keep`; the first record whose length overruns the image, whose
/// checksum mismatches, or that `keep` rejects (a decode failure) marks
/// the damaged suffix. Returns the length of the valid prefix.
fn scan_records(
    image: &[u8],
    start: usize,
    keep: &mut dyn FnMut(&[u8]) -> bool,
) -> usize {
    let mut pos = start;
    while let Some(len_bytes) = image.get(pos..pos + 4) {
        let len = u32::from_le_bytes(len_bytes.try_into().unwrap());
        let body = (len <= MAX_RECORD)
            .then(|| image.get(pos + 4..pos + 4 + len as usize + 8))
            .flatten();
        let Some(body) = body else { break };
        let (payload, ck) = body.split_at(len as usize);
        let ck = u64::from_le_bytes(ck.try_into().unwrap());
        if fnv1a64(0, payload) != ck || !keep(payload) {
            break;
        }
        pos += 4 + len as usize + 8;
    }
    pos
}

/// A bounds-checked little-endian reader; any overrun or bad tag reads as
/// `None`, which recovery treats as a damaged record.
pub(crate) struct Dec<'a> {
    buf: &'a [u8],
    pos: usize,
}

impl<'a> Dec<'a> {
    pub(crate) fn new(buf: &'a [u8]) -> Dec<'a> {
        Dec { buf, pos: 0 }
    }

    fn take(&mut self, n: usize) -> Option<&'a [u8]> {
        let end = self.pos.checked_add(n)?;
        if end > self.buf.len() {
            return None;
        }
        let s = &self.buf[self.pos..end];
        self.pos = end;
        Some(s)
    }

    pub(crate) fn u8(&mut self) -> Option<u8> {
        self.take(1).map(|s| s[0])
    }

    pub(crate) fn u32(&mut self) -> Option<u32> {
        self.take(4)
            .map(|s| u32::from_le_bytes(s.try_into().unwrap()))
    }

    pub(crate) fn u64(&mut self) -> Option<u64> {
        self.take(8)
            .map(|s| u64::from_le_bytes(s.try_into().unwrap()))
    }

    fn i64(&mut self) -> Option<i64> {
        self.take(8)
            .map(|s| i64::from_le_bytes(s.try_into().unwrap()))
    }

    pub(crate) fn u128(&mut self) -> Option<u128> {
        self.take(16)
            .map(|s| u128::from_le_bytes(s.try_into().unwrap()))
    }

    pub(crate) fn str(&mut self) -> Option<String> {
        let len = self.u32()? as usize;
        let bytes = self.take(len)?;
        String::from_utf8(bytes.to_vec()).ok()
    }

    fn val(&mut self) -> Option<Val> {
        match self.u8()? {
            0 => Some(Val::Int(self.i64()?)),
            1 => Some(Val::Addr(Loc::new(self.str()?))),
            _ => None,
        }
    }

    fn key(&mut self) -> Option<StateKey> {
        match self.u8()? {
            0 => {
                let t = ThreadId(self.u8()?);
                Some(StateKey::Reg(t, Reg::new(self.str()?)))
            }
            1 => Some(StateKey::Loc(Loc::new(self.str()?))),
            _ => None,
        }
    }

    fn rule_map(&mut self) -> Option<std::collections::BTreeMap<String, u64>> {
        let n = self.u32()?;
        let mut map = std::collections::BTreeMap::new();
        for _ in 0..n {
            let rule = self.str()?;
            let count = self.u64()?;
            map.insert(rule, count);
        }
        Some(map)
    }

    fn prune_sites(&mut self) -> Option<telechat_exec::PruneSites> {
        Some(telechat_exec::PruneSites {
            rf_incremental: self.u64()?,
            rf_recheck: self.u64()?,
            co_incremental: self.u64()?,
            co_recheck: self.u64()?,
        })
    }

    fn hist(&mut self) -> Option<telechat_obs::Histogram> {
        let n = self.u32()?;
        let mut buckets = [0u64; 65];
        for _ in 0..n {
            let i = self.u8()? as usize;
            let c = self.u64()?;
            *buckets.get_mut(i)? = c;
        }
        let count = self.u64()?;
        let sum = self.u64()?;
        let min = self.u64()?;
        let max = self.u64()?;
        Some(telechat_obs::Histogram::from_parts(
            buckets, count, sum, min, max,
        ))
    }

    pub(crate) fn done(&self) -> bool {
        self.pos == self.buf.len()
    }
}

fn decode_record(payload: &[u8]) -> Option<(PersistKey, StoredValue)> {
    let mut d = Dec {
        buf: payload,
        pos: 0,
    };
    let kind = match d.u8()? {
        0 => LegKind::Source,
        1 => LegKind::Target,
        _ => return None,
    };
    let key = PersistKey {
        kind,
        test: d.u128()?,
        model: d.u64()?,
        config: d.u64()?,
    };
    let value = match d.u8()? {
        0 => {
            let n_outcomes = d.u32()?;
            let mut outcomes = OutcomeSet::new();
            for _ in 0..n_outcomes {
                let n_slots = d.u32()?;
                let mut o = Outcome::new();
                for _ in 0..n_slots {
                    let k = d.key()?;
                    let v = d.val()?;
                    o.set(k, v);
                }
                outcomes.insert(o);
            }
            let candidates = d.u64()?;
            let allowed = d.u64()?;
            let n_flags = d.u32()?;
            let mut flags = std::collections::BTreeSet::new();
            for _ in 0..n_flags {
                flags.insert(d.str()?);
            }
            let crashed = match d.u8()? {
                0 => false,
                1 => true,
                _ => return None,
            };
            Ok(StoredSim {
                outcomes,
                candidates,
                allowed,
                flags,
                crashed,
                full_traversals: d.u64()?,
                pruned_candidates: d.u64()?,
                pushes: d.u64()?,
                frontier_evals: d.u64()?,
                elapsed_nanos: d.u64()?,
                rule_leaves: d.rule_map()?,
                rule_prunes: d.rule_map()?,
                prune_sites: d.prune_sites()?,
                combo_candidates: d.hist()?,
            })
        }
        1 => Err(match d.u8()? {
            0 => {
                let msg = d.str()?;
                let line = d.u64()?;
                Error::Parse {
                    msg,
                    line: (line != u64::MAX).then_some(line as usize),
                }
            }
            1 => Error::Model(d.str()?),
            2 => Error::IllFormed(d.str()?),
            3 => Error::Budget { steps: d.u64()? },
            4 => Error::Timeout { limit_ms: d.u64()? },
            5 => Error::Vacuous(d.str()?),
            6 => Error::Unsupported(d.str()?),
            7 => Error::InternalCompilerError(d.str()?),
            _ => return None,
        }),
        _ => return None,
    };
    // Trailing bytes mean the length field and the content disagree:
    // treat the record as damaged rather than silently ignoring them.
    d.done().then_some((key, value))
}

// ---------------------------------------------------------------------------
// The record log: framing, recovery, rollback and degradation, for the
// leg store and the campaign journal alike.
// ---------------------------------------------------------------------------

/// Counters describing one store's life: what recovery found and what has
/// happened since. A journal's log keeps the same counters
/// ([`crate::JournalStats`] adds its replays).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct StoreStats {
    /// Valid records recovered on open.
    pub recovered: u64,
    /// Bytes of damaged suffix dropped by recovery.
    pub dropped_bytes: u64,
    /// True if the header was missing/mismatched and the log was reset.
    pub reset: bool,
    /// Records appended since open.
    pub appends: u64,
    /// Failed appends (the entries stayed memory-only).
    pub write_errors: u64,
    /// True when the session degraded to read-only: the backing file could
    /// no longer be kept consistent (a rollback or recovery truncation
    /// failed), so the store serves what it has but accepts no appends.
    pub read_only: bool,
}

/// How [`RecordLog::open`] checks the header of a log.
pub(crate) enum Header<'a> {
    /// The log must start with exactly these bytes. Any other log is reset
    /// to them: truncated to nothing and stamped afresh.
    Expect(&'a [u8]),
    /// Adopt a header of this many bytes if the check accepts it, writing
    /// nothing. A log without one opens empty, reset and read-only.
    Adopt(usize, &'a mut dyn FnMut(&[u8]) -> bool),
}

/// An append-only log of checksummed records after a header: the one
/// implementation of framing, recovery, torn-write rollback and read-only
/// degradation under both the leg store and the campaign journal
/// ([`crate::journal`]). Each owner keeps its own index and codec; the log
/// sees payloads as bytes.
#[derive(Debug)]
pub(crate) struct RecordLog {
    backend: Box<dyn StoreBackend>,
    /// `store` or `journal`: labels load errors and the degradation notice.
    what: &'static str,
    /// Length of the valid log prefix (header + every kept record).
    len: u64,
    /// Cleared when the backing file can no longer be kept consistent (a
    /// recovery truncation, header write or torn-write rollback failed);
    /// the owner then serves what it has but appends nothing.
    writable: bool,
    /// One-time degradation notice already emitted.
    warned: bool,
    /// The counters; [`RecordLog::stats`] fills in `read_only`.
    stats: StoreStats,
}

impl fmt::Debug for dyn StoreBackend {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str("StoreBackend")
    }
}

impl RecordLog {
    /// Loads the log and checks its header. Under a good header it feeds
    /// each checksum-valid payload to `decode` up to the first one that
    /// fails to decode, and truncates the damaged tail after it; under any
    /// other header it resets or refuses, as `header` says.
    pub(crate) fn open(
        backend: Box<dyn StoreBackend>,
        what: &'static str,
        mut header: Header<'_>,
        decode: &mut dyn FnMut(&[u8]) -> bool,
    ) -> Result<RecordLog> {
        let image = backend
            .load()
            .map_err(|e| Error::Io(format!("{what} load: {e}")))?;
        let mut log = RecordLog {
            backend,
            what,
            len: 0,
            writable: true,
            warned: false,
            stats: StoreStats::default(),
        };
        let (header_len, accepted) = match &mut header {
            Header::Expect(bytes) => (bytes.len(), image.starts_with(bytes)),
            Header::Adopt(len, check) => (*len, image.get(..*len).is_some_and(check)),
        };

        if accepted {
            // Keep the longest valid prefix.
            let recovered = &mut log.stats.recovered;
            let pos = scan_records(&image, header_len, &mut |payload| {
                let kept = decode(payload);
                *recovered += u64::from(kept);
                kept
            });
            log.len = pos as u64;
            let dropped = image.len() - pos;
            if dropped > 0 {
                log.stats.dropped_bytes = dropped as u64;
                if log.backend.truncate(log.len).is_err() {
                    // The damaged tail is stuck on disk; serving the
                    // recovered prefix is still sound, but appending after
                    // it would interleave with garbage.
                    log.degrade("recovery could not truncate the damaged tail");
                }
            }
        } else if let Header::Expect(fresh) = header {
            // Missing, truncated or foreign header: reset wholesale, so a
            // stale log never serves its records to the wrong reader.
            if !image.is_empty() {
                log.stats.reset = true;
                log.stats.dropped_bytes = image.len() as u64;
            }
            let written = if image.is_empty() {
                Ok(())
            } else {
                log.backend.truncate(0)
            }
            .and_then(|()| log.backend.append(fresh));
            match written {
                Ok(()) => log.len = fresh.len() as u64,
                Err(_) => {
                    // Cannot even lay down a header: degrade to a
                    // memory-only session rather than failing the caller.
                    log.stats.write_errors += 1;
                    log.degrade("header write failed");
                }
            }
        } else {
            // Adoption with nothing to adopt: report a reset and leave the
            // backing file untouched rather than stamping a made-up header
            // over a file that was merely named by mistake.
            log.stats.reset = true;
            log.writable = false;
        }
        Ok(log)
    }

    /// Appends `payload` framed as a record: `len(u32) payload cksum(u64)`,
    /// `cksum = fnv1a64(payload)`. False when it did not land: the log is
    /// read-only, or the append failed and was rolled back. A failed
    /// rollback makes the log read-only; recovery on the next open drops
    /// the damage.
    pub(crate) fn append(&mut self, payload: &[u8]) -> bool {
        if !self.writable {
            return false;
        }
        let mut record = Vec::with_capacity(payload.len() + 12);
        put_u32(&mut record, payload.len() as u32);
        record.extend_from_slice(payload);
        put_u64(&mut record, fnv1a64(0, payload));
        if self.backend.append(&record).is_ok() {
            self.len += record.len() as u64;
            self.stats.appends += 1;
            return true;
        }
        self.stats.write_errors += 1;
        if self.backend.truncate(self.len).is_err() {
            self.degrade("torn-write rollback failed");
        }
        false
    }

    /// Stops appending, with a one-time stderr notice. Degradation is by
    /// design invisible to the campaign result (entries recompute, results
    /// stay byte-identical), which historically made it invisible full
    /// stop — an operator whose disk died mid-campaign deserves one line
    /// saying the log went read-only, plus the `store.*`/`journal.*` rows.
    fn degrade(&mut self, why: &str) {
        self.writable = false;
        if !self.warned {
            self.warned = true;
            let what = self.what;
            eprintln!("telechat: {what} degraded to read-only ({why}); results are unaffected, entries will recompute on the next run");
        }
    }

    /// A snapshot of the counters.
    pub(crate) fn stats(&self) -> StoreStats {
        StoreStats {
            read_only: !self.writable,
            ..self.stats.clone()
        }
    }

    /// The byte offsets at which an image can be cleanly cut: after the
    /// `header_len`-byte header and after each record up to the first that
    /// `decode` rejects. Empty when the image is shorter than a header.
    pub(crate) fn boundaries(
        image: &[u8],
        header_len: usize,
        decode: &dyn Fn(&[u8]) -> bool,
    ) -> Vec<usize> {
        if image.len() < header_len {
            return Vec::new();
        }
        let mut bounds = vec![header_len];
        scan_records(image, header_len, &mut |payload| {
            let kept = decode(payload);
            if kept {
                bounds.push(bounds[bounds.len() - 1] + 12 + payload.len());
            }
            kept
        });
        bounds
    }
}

// ---------------------------------------------------------------------------
// The store.
// ---------------------------------------------------------------------------

/// The persistent content-addressed store: an index over a `RecordLog`
/// of legs. One instance per log file, shared across campaign workers
/// behind an `Arc`; see the module docs for format, crash-safety and
/// versioning.
#[derive(Debug)]
pub struct PersistStore {
    index: Mutex<HashMap<PersistKey, StoredValue>>,
    log: Mutex<RecordLog>,
}

impl PersistStore {
    /// Opens (or creates) the store at `path`.
    pub fn open(path: impl Into<PathBuf>) -> Result<PersistStore> {
        PersistStore::open_backend(Box::new(FileBackend::new(path)))
    }

    /// Opens a store over an arbitrary backend, stamped with the current
    /// engine revision and bundled-model fingerprint.
    pub fn open_backend(backend: Box<dyn StoreBackend>) -> Result<PersistStore> {
        PersistStore::open_versioned(
            backend,
            telechat_exec::ENGINE_REVISION,
            telechat_cat::bundled_fingerprint(),
        )
    }

    /// Opens with explicit version stamps. Production callers use
    /// [`PersistStore::open_backend`]; tests use this to prove that a
    /// revision or model-corpus bump invalidates cleanly.
    pub fn open_versioned(
        backend: Box<dyn StoreBackend>,
        engine_revision: u64,
        models_fp: u64,
    ) -> Result<PersistStore> {
        let mut header = Vec::with_capacity(HEADER_LEN);
        header.extend_from_slice(MAGIC);
        put_u32(&mut header, FORMAT_VERSION);
        put_u64(&mut header, engine_revision);
        put_u64(&mut header, models_fp);
        let hck = fnv1a64(0, &header);
        put_u64(&mut header, hck);

        let mut index = HashMap::new();
        let log = RecordLog::open(backend, "store", Header::Expect(&header), &mut |payload| {
            decode_record(payload)
                .map(|(key, value)| index.insert(key, value))
                .is_some()
        })?;
        Ok(PersistStore {
            index: Mutex::new(index),
            log: Mutex::new(log),
        })
    }

    /// Looks up a persisted leg.
    pub fn get(&self, key: &PersistKey) -> Option<StoredValue> {
        lock_unpoisoned(&self.index).get(key).cloned()
    }

    /// Persists a leg. Fault values and unpersistable results are skipped;
    /// I/O failures degrade (rolled back and counted, never surfaced).
    pub fn put(&self, key: PersistKey, value: &StoredValue) {
        let Some(payload) = encode_record(&key, value) else {
            return;
        };
        if lock_unpoisoned(&self.log).append(&payload) {
            lock_unpoisoned(&self.index).insert(key, value.clone());
        }
    }

    /// Number of entries currently indexed.
    pub fn len(&self) -> usize {
        lock_unpoisoned(&self.index).len()
    }

    /// True if no entries are indexed.
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// A snapshot of the store's counters.
    pub fn stats(&self) -> StoreStats {
        lock_unpoisoned(&self.log).stats()
    }
}

/// Renders a log image as hex, 32 bytes a line: the form of the image
/// goldens under `tests/golden/`.
#[cfg(test)]
pub(crate) fn hex_lines(image: &[u8]) -> String {
    image
        .chunks(32)
        .map(|row| row.iter().map(|b| format!("{b:02x}")).collect::<String>() + "\n")
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_sim() -> StoredSim {
        let mut outcomes = OutcomeSet::new();
        let mut o = Outcome::new();
        o.set(StateKey::reg(ThreadId(0), "r0"), Val::Int(1));
        o.set(StateKey::loc("y"), Val::Int(2));
        outcomes.insert(o);
        let mut o2 = Outcome::new();
        o2.set(StateKey::reg(ThreadId(1), "r0"), Val::Addr(Loc::new("x")));
        outcomes.insert(o2);
        StoredSim {
            outcomes,
            candidates: 12,
            allowed: 3,
            flags: ["race".to_string()].into_iter().collect(),
            crashed: false,
            full_traversals: 0,
            pruned_candidates: 5,
            pushes: 17,
            frontier_evals: 96,
            elapsed_nanos: 1234,
            rule_leaves: [("sc".to_string(), 4), ("rc11-hb".to_string(), 2)]
                .into_iter()
                .collect(),
            rule_prunes: [("sc".to_string(), 5)].into_iter().collect(),
            prune_sites: telechat_exec::PruneSites {
                rf_incremental: 3,
                rf_recheck: 0,
                co_incremental: 2,
                co_recheck: 0,
            },
            combo_candidates: {
                let mut h = telechat_obs::Histogram::new();
                h.record(4);
                h.record(8);
                h
            },
        }
    }

    fn k(test: u128) -> PersistKey {
        PersistKey {
            kind: LegKind::Source,
            test,
            model: 7,
            config: 9,
        }
    }

    #[test]
    fn codec_round_trips_results_and_errors() {
        for value in [
            Ok(sample_sim()),
            Err(Error::Budget { steps: 42 }),
            Err(Error::parse_at("bad token", 3)),
            Err(Error::Timeout { limit_ms: 5000 }),
        ] {
            let payload = encode_record(&k(1), &value).unwrap();
            let (key, decoded) = decode_record(&payload).unwrap();
            assert_eq!(key, k(1));
            assert_eq!(decoded, value);
        }
    }

    #[test]
    fn faults_are_never_encoded() {
        assert!(encode_record(&k(1), &Err(Error::Panicked("boom".into()))).is_none());
        assert!(encode_record(&k(1), &Err(Error::Deadline { limit_ms: 9 })).is_none());
        assert!(encode_record(&k(1), &Err(Error::Io("disk".into()))).is_none());
    }

    #[test]
    fn reopen_recovers_the_index() {
        let mem = MemBackend::new();
        let store = PersistStore::open_backend(Box::new(mem.clone())).unwrap();
        store.put(k(1), &Ok(sample_sim()));
        store.put(k(2), &Err(Error::Budget { steps: 8 }));
        drop(store);

        let store = PersistStore::open_backend(Box::new(mem)).unwrap();
        assert_eq!(store.len(), 2);
        assert_eq!(store.stats().recovered, 2);
        assert_eq!(store.get(&k(1)), Some(Ok(sample_sim())));
        assert_eq!(store.get(&k(2)), Some(Err(Error::Budget { steps: 8 })));
    }

    #[test]
    fn truncated_tail_is_dropped_exactly() {
        let mem = MemBackend::new();
        let store = PersistStore::open_backend(Box::new(mem.clone())).unwrap();
        store.put(k(1), &Ok(sample_sim()));
        store.put(k(2), &Ok(sample_sim()));
        drop(store);

        // Chop bytes off the tail: the damaged record vanishes, the rest
        // survives — for every cut point inside the last record.
        let full = mem.bytes().lock().unwrap().clone();
        let store = PersistStore::open_backend(Box::new(mem.clone())).unwrap();
        assert_eq!(store.len(), 2);
        drop(store);
        for cut in (HEADER_LEN as u64 + 1)..full.len() as u64 {
            let mem = MemBackend::new();
            mem.bytes()
                .lock()
                .unwrap()
                .extend_from_slice(&full[..cut as usize]);
            let store = PersistStore::open_backend(Box::new(mem)).unwrap();
            assert!(store.len() <= 2);
            let whole_records = store.stats().recovered == 2 && store.stats().dropped_bytes == 0;
            assert_eq!(whole_records, cut == full.len() as u64, "cut at {cut}");
            // Whatever survived is intact.
            if let Some(v) = store.get(&k(1)) {
                assert_eq!(v, Ok(sample_sim()));
            }
        }
    }

    #[test]
    fn bit_flip_drops_the_damaged_suffix() {
        let mem = MemBackend::new();
        let store = PersistStore::open_backend(Box::new(mem.clone())).unwrap();
        store.put(k(1), &Ok(sample_sim()));
        store.put(k(2), &Ok(sample_sim()));
        drop(store);

        let image = mem.bytes().lock().unwrap().clone();
        let bounds = RecordLog::boundaries(&image, HEADER_LEN, &|p| decode_record(p).is_some());
        assert_eq!(bounds.len(), 3, "header + 2 records");
        for off in HEADER_LEN..image.len() {
            // The flip lands in record `i`, which starts at `bounds[i]`:
            // exactly the records before it survive.
            let i = bounds.iter().rposition(|&b| b <= off).unwrap();
            let flipped = MemBackend::new();
            *flipped.bytes().lock().unwrap() = image.clone();
            flipped.bytes().lock().unwrap()[off] ^= 0x01;
            let store = PersistStore::open_backend(Box::new(flipped)).unwrap();
            let stats = store.stats();
            assert_eq!(stats.recovered, i as u64, "flip at {off}");
            let dropped = (image.len() - bounds[i]) as u64;
            assert_eq!(stats.dropped_bytes, dropped, "flip at {off}");
            // Never serve damaged data: a surviving entry decodes to
            // exactly what was written.
            if let Some(v) = store.get(&k(1)) {
                assert_eq!(v, Ok(sample_sim()), "flip at {off}");
            }
        }
    }

    #[test]
    fn header_flip_resets_the_store() {
        let mem = MemBackend::new();
        let store = PersistStore::open_backend(Box::new(mem.clone())).unwrap();
        store.put(k(1), &Ok(sample_sim()));
        drop(store);

        mem.bytes().lock().unwrap()[3] ^= 0x80;
        let store = PersistStore::open_backend(Box::new(mem.clone())).unwrap();
        assert!(store.stats().reset);
        assert_eq!(store.len(), 0);
        // The reset store is immediately usable again.
        store.put(k(3), &Ok(sample_sim()));
        drop(store);
        let store = PersistStore::open_backend(Box::new(mem)).unwrap();
        assert_eq!(store.get(&k(3)), Some(Ok(sample_sim())));
    }

    #[test]
    fn revision_bump_invalidates_cleanly() {
        let mem = MemBackend::new();
        let store = PersistStore::open_versioned(Box::new(mem.clone()), 1, 99).unwrap();
        store.put(k(1), &Ok(sample_sim()));
        drop(store);

        // Same stamps: warm.
        let store = PersistStore::open_versioned(Box::new(mem.clone()), 1, 99).unwrap();
        assert_eq!(store.len(), 1);
        drop(store);

        // Engine revision bump: cold, no stale hits.
        let store = PersistStore::open_versioned(Box::new(mem.clone()), 2, 99).unwrap();
        assert!(store.stats().reset);
        assert_eq!(store.get(&k(1)), None);
        drop(store);

        // Model-corpus bump likewise.
        let store = PersistStore::open_versioned(Box::new(mem.clone()), 2, 100).unwrap();
        assert!(store.stats().reset);
        assert_eq!(store.get(&k(1)), None);
    }

    #[test]
    fn torn_append_is_rolled_back_and_degrades() {
        let mem = MemBackend::new();
        // Append #0 is the header (fresh store); fail append #2 torn.
        let plan = FaultPlan {
            fail_append: Some(2),
            torn_bytes: Some(7),
            ..FaultPlan::default()
        };
        let store =
            PersistStore::open_backend(Box::new(FaultyBackend::new(mem.clone(), plan))).unwrap();
        store.put(k(1), &Ok(sample_sim())); // append #1: lands
        store.put(k(2), &Ok(sample_sim())); // append #2: torn, rolled back
        store.put(k(3), &Ok(sample_sim())); // append #3: lands again
        let stats = store.stats();
        assert_eq!(stats.appends, 2);
        assert_eq!(stats.write_errors, 1);
        assert_eq!(store.get(&k(2)), None);
        drop(store);

        // The log on disk is a clean prefix: full recovery, nothing dropped.
        let store = PersistStore::open_backend(Box::new(mem)).unwrap();
        assert_eq!(store.stats().recovered, 2);
        assert_eq!(store.stats().dropped_bytes, 0);
        assert_eq!(store.get(&k(1)), Some(Ok(sample_sim())));
        assert_eq!(store.get(&k(3)), Some(Ok(sample_sim())));
    }

    #[test]
    fn torn_append_without_rollback_is_dropped_on_reopen() {
        let mem = MemBackend::new();
        let plan = FaultPlan {
            fail_append: Some(1),
            torn_bytes: Some(5),
            fail_truncate: true,
            ..FaultPlan::default()
        };
        let store =
            PersistStore::open_backend(Box::new(FaultyBackend::new(mem.clone(), plan))).unwrap();
        store.put(k(1), &Ok(sample_sim())); // torn, rollback also fails
        store.put(k(2), &Ok(sample_sim())); // store is read-only now
        assert_eq!(store.stats().write_errors, 1);
        assert_eq!(store.stats().appends, 0);
        drop(store);

        // Recovery drops exactly the 5 torn bytes.
        let store = PersistStore::open_backend(Box::new(mem)).unwrap();
        assert_eq!(store.stats().recovered, 0);
        assert_eq!(store.stats().dropped_bytes, 5);
        store.put(k(4), &Ok(sample_sim()));
        assert_eq!(store.stats().appends, 1);
    }

    #[test]
    fn file_backend_round_trips() {
        let dir = std::env::temp_dir().join(format!("telechat-store-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("campaign.store");
        let _ = std::fs::remove_file(&path);

        let store = PersistStore::open(&path).unwrap();
        store.put(k(1), &Ok(sample_sim()));
        drop(store);
        let store = PersistStore::open(&path).unwrap();
        assert_eq!(store.get(&k(1)), Some(Ok(sample_sim())));
        drop(store);

        // Truncate the file mid-record; reopen recovers.
        let len = std::fs::metadata(&path).unwrap().len();
        let f = std::fs::OpenOptions::new().write(true).open(&path).unwrap();
        f.set_len(len - 3).unwrap();
        drop(f);
        let store = PersistStore::open(&path).unwrap();
        assert_eq!(store.len(), 0);
        assert!(store.stats().dropped_bytes > 0);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn seeded_plans_are_deterministic() {
        let a = FaultPlan::seeded(11);
        let b = FaultPlan::seeded(11);
        assert_eq!(a.fail_append, b.fail_append);
        assert_eq!(a.torn_bytes, b.torn_bytes);
        assert!(a.fail_append.unwrap() < 16);
        // Both streams, pinned: a change to either moves a golden line.
        let plans: String = (0..16)
            .map(|s| {
                let (plan, chaos) = (FaultPlan::seeded(s), FaultPlan::seeded_chaos(s));
                format!("{s} seeded {plan:?}\n{s} chaos {chaos:?}\n")
            })
            .collect();
        assert_eq!(plans, include_str!("../../../tests/golden/fault-plans.txt"));
    }

    /// The on-disk image of a store, pinned byte for byte: an `Ok` source
    /// leg, then `Budget` and `Timeout` target legs, written after a reopen
    /// reset a foreign header. Fixed stamps keep engine and model bumps
    /// from churning the golden.
    #[test]
    fn store_image_matches_the_golden() {
        let mem = MemBackend::new();
        let foreign = PersistStore::open_versioned(Box::new(mem.clone()), 2, 99).unwrap();
        foreign.put(k(9), &Ok(sample_sim()));
        drop(foreign);

        let store = PersistStore::open_versioned(Box::new(mem.clone()), 1, 99).unwrap();
        assert!(store.stats().reset);
        let target = |test| PersistKey {
            kind: LegKind::Target,
            ..k(test)
        };
        store.put(k(1), &Ok(sample_sim()));
        store.put(target(2), &Err(Error::Budget { steps: 20_000 }));
        store.put(target(3), &Err(Error::Timeout { limit_ms: 5000 }));
        drop(store);
        let image = mem.bytes().lock().unwrap().clone();
        assert_eq!(
            hex_lines(&image),
            include_str!("../../../tests/golden/store-image.hex")
        );
    }
}
