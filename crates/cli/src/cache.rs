//! Crash-safe persistent verdict cache: the service's cross-run memo.
//!
//! The daemon memoizes deterministic verdicts keyed on
//! [`pathinv_core::job_fingerprint`] — a digest of the interned program
//! structure plus the engine configuration — so resubmitting an unchanged
//! program is `O(1)`: no engine run, no solver call, not even a parse of
//! anything but the job line.  The cache must survive daemon restarts and
//! *any* on-disk corruption without ever crashing or returning a wrong
//! verdict, so the design is deliberately minimal (DESIGN.md §14):
//!
//! * **Append-only journal.**  One record per line; inserts append and
//!   flush.  There is no in-place mutation, so a crash can only damage the
//!   *tail* of the file.
//! * **Per-record checksum.**  Every line is `<fnv64-hex> <compact-json>`;
//!   the checksum covers the JSON bytes.  A torn write, a flipped bit, or
//!   editor mangling fails the checksum.
//! * **Schema-versioned header.**  The first record declares
//!   [`CACHE_SCHEMA_VERSION`]; a journal written by an incompatible
//!   generation of the verifier is discarded wholesale (a *stale verdict is
//!   a wrong verdict* once engine semantics change — the fingerprint salt
//!   guards the key side, the header guards the record side).
//! * **Truncate-at-first-corruption recovery.**  On open, records are
//!   validated in order; the journal is truncated to the longest valid
//!   prefix and a warning describes what was dropped.  Worst case (garbage
//!   from byte 0) is a cold cache — never a crashed or lying daemon.
//! * **Crash-safe compaction.**  Superseded records (later records win)
//!   make the journal grow without bound; once it crosses a size threshold
//!   *and* at least half its records are dead, [`VerdictCache::compact`]
//!   rewrites the live map to `<journal>.tmp`, fsyncs, and atomically
//!   renames over the journal.  A crash before the rename leaves the old
//!   journal untouched (the stale `.tmp` is deleted on the next open); a
//!   crash after it leaves the complete compacted journal — there is no
//!   intermediate state.
//! * **Mid-run degradation.**  An append failure (disk full, journal
//!   unlinked, injected chaos) drops persistence for the rest of the run
//!   with a *one-time* stderr warning; the in-memory map keeps serving and
//!   later inserts are not re-attempted (and not re-warned).
//! * **Seeded fault injection.**  [`CacheChaos`] makes the journal lie on
//!   purpose — torn writes, failed writes, slow writes — deterministically
//!   from a seed, so the chaos phase of the `serve-smoke` harness
//!   (DESIGN.md §15) can prove the recovery story against an actively
//!   hostile disk.
//!
//! Only deterministic outcomes are admitted
//! ([`pathinv_core::JobOutcome::is_cacheable`]): `safe`/`unsafe`/`unknown`
//! are functions of (program, config), while `cancelled` and `error` are
//! functions of the weather.  A cached verdict is the *engine's* claim
//! replayed verbatim; it is inside the trusted base exactly as far as the
//! engine is — `--certify`-style auditing applies to the certificate digest
//! stored with the record, not to the replay (DESIGN.md §14 trust
//! boundary).

use crate::json::{self, Json};
use std::collections::HashMap;
use std::fs::{File, OpenOptions};
use std::io::{Read, Seek, SeekFrom, Write};
use std::path::{Path, PathBuf};
use std::time::Duration;

/// Journal schema version; bump when the record layout (or anything that
/// makes old cached verdicts unreplayable) changes.  A header mismatch
/// discards the journal — cold cache, never a misread record.
pub const CACHE_SCHEMA_VERSION: i64 = 1;

/// Default journal size (bytes) past which an insert considers compaction.
pub const DEFAULT_COMPACT_BYTES: u64 = 1 << 20;

/// Seeded fault injector for journal writes: each insert rolls one of
/// *fail* (the append errors, exercising the degrade-to-memory path),
/// *torn* (only a prefix of the record reaches the disk, exercising
/// recovery), *slow* (the write stalls, exercising deadline margins), or
/// no fault.  Probabilities are per-mille and the stream is a deterministic
/// LCG, so a chaos run is reproducible from its seed.
#[derive(Clone, Debug)]
pub struct CacheChaos {
    state: u64,
    /// Per-mille probability of an injected append failure.
    pub fail_per_mille: u16,
    /// Per-mille probability of a torn (half-written) record.
    pub torn_per_mille: u16,
    /// Per-mille probability of a stalled write.
    pub slow_per_mille: u16,
    /// Stall duration for slow writes, in milliseconds.
    pub slow_ms: u64,
}

/// One rolled fault (internal to [`VerdictCache::insert`]).
enum CacheFault {
    None,
    Fail,
    Torn,
    Slow(u64),
}

impl CacheChaos {
    /// The default chaos mix for `--chaos seed=N`: mostly clean writes with
    /// occasional stalls, tears, and failures.
    pub fn from_seed(seed: u64) -> CacheChaos {
        CacheChaos {
            state: seed ^ 0x9e37_79b9_7f4a_7c15,
            fail_per_mille: 8,
            torn_per_mille: 15,
            slow_per_mille: 40,
            slow_ms: 5,
        }
    }

    fn roll_fault(&mut self) -> CacheFault {
        self.state = self.state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
        let r = ((self.state >> 33) % 1000) as u16;
        if r < self.fail_per_mille {
            CacheFault::Fail
        } else if r < self.fail_per_mille + self.torn_per_mille {
            CacheFault::Torn
        } else if r < self.fail_per_mille + self.torn_per_mille + self.slow_per_mille {
            CacheFault::Slow(self.slow_ms)
        } else {
            CacheFault::None
        }
    }
}

/// The compaction scratch path: `<journal>.tmp`, always on the same
/// filesystem so the final rename is atomic.
fn compact_tmp_path(path: &Path) -> PathBuf {
    let mut s = path.as_os_str().to_os_string();
    s.push(".tmp");
    PathBuf::from(s)
}

/// FNV-1a 64 over `bytes`, the same digest primitive certificates use.
pub(crate) fn fnv64(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// Renders one journal line (without the terminating newline): checksum,
/// space, compact body.
fn render_line(body: &Json) -> String {
    let body = body.compact();
    format!("{:016x} {body}", fnv64(body.as_bytes()))
}

/// Parses and verifies one journal line; `None` on any mismatch.
fn parse_line(line: &str) -> Option<Json> {
    let (sum, body) = line.split_at_checked(17)?;
    let sum = u64::from_str_radix(sum.strip_suffix(' ')?, 16).ok()?;
    if sum != fnv64(body.as_bytes()) {
        return None;
    }
    json::parse(body).ok()
}

fn header_record() -> Json {
    Json::object(vec![
        ("kind", Json::Str("header".to_string())),
        ("schema", Json::Int(CACHE_SCHEMA_VERSION)),
    ])
}

/// The persistent verdict cache: an in-memory map backed by the append-only
/// journal.  All file problems degrade to warnings plus a (partially) cold
/// cache; no method fails.
pub struct VerdictCache {
    /// Journal path; `None` for a purely in-memory cache (stdin mode without
    /// `--cache`).
    path: Option<PathBuf>,
    /// Append handle, positioned at the end of the valid prefix.
    file: Option<File>,
    /// Fingerprint → cached task record (the full task JSON minus the
    /// submission-specific fields, which the service re-stamps on replay).
    map: HashMap<String, Json>,
    /// Human-readable recovery warnings from [`VerdictCache::open`]; the
    /// caller logs them to stderr.  Empty when the journal was pristine.
    pub warnings: Vec<String>,
    /// Lookup hits since open.
    pub hits: u64,
    /// Lookup misses since open.
    pub misses: u64,
    /// Compactions performed since open.
    pub compactions: u64,
    /// Bytes currently in the journal (valid prefix at open plus appends).
    journal_bytes: u64,
    /// Verdict records currently in the journal, *including* superseded
    /// duplicates — the live set is `map.len()`; the gap is what compaction
    /// reclaims.
    journal_records: u64,
    /// Journal size threshold for automatic compaction; `0` means
    /// [`DEFAULT_COMPACT_BYTES`].
    compact_threshold: u64,
    /// Whether a mid-run append failure already dropped persistence (the
    /// one-time warning has been emitted).
    degraded: bool,
    /// Seeded write-fault injector, when running under `--chaos`.
    chaos: Option<CacheChaos>,
}

impl VerdictCache {
    /// A cache with no backing file: memoizes within the process only.
    pub fn in_memory() -> VerdictCache {
        VerdictCache {
            path: None,
            file: None,
            map: HashMap::new(),
            warnings: Vec::new(),
            hits: 0,
            misses: 0,
            compactions: 0,
            journal_bytes: 0,
            journal_records: 0,
            compact_threshold: 0,
            degraded: false,
            chaos: None,
        }
    }

    /// Opens (or creates) the journal at `path`, recovering to the longest
    /// valid prefix: the file is truncated after the last record that
    /// checksums, parses, and carries the current schema, and every byte
    /// beyond it is dropped with a warning.  Never fails — an unopenable
    /// path degrades to an in-memory cache with a warning.
    pub fn open(path: &Path) -> VerdictCache {
        let mut cache = VerdictCache::in_memory();
        cache.path = Some(path.to_path_buf());
        // A stale compaction scratch file means a crash hit mid-compaction:
        // the rename never happened, the original journal is intact, and
        // the partial rewrite is garbage.  Delete it.
        let tmp = compact_tmp_path(path);
        if tmp.exists() && std::fs::remove_file(&tmp).is_ok() {
            cache.warnings.push(format!(
                "verdict cache {}: removed stale compaction file {} (crash mid-compaction)",
                path.display(),
                tmp.display()
            ));
        }
        let mut file =
            match OpenOptions::new().read(true).write(true).create(true).truncate(false).open(path)
            {
                Ok(f) => f,
                Err(e) => {
                    cache.warnings.push(format!(
                        "verdict cache {} cannot be opened ({e}); continuing without persistence",
                        path.display()
                    ));
                    return cache;
                }
            };
        let mut text = String::new();
        if let Err(e) = file.read_to_string(&mut text) {
            // Not UTF-8 (or unreadable): the whole journal is garbage.
            cache.warnings.push(format!(
                "verdict cache {} is unreadable ({e}); starting cold",
                path.display()
            ));
            text.clear();
        }
        let mut valid_len: u64 = 0;
        let mut dropped = None;
        let mut rest = text.as_str();
        let mut index = 0usize;
        while !rest.is_empty() {
            // A record must be a complete newline-terminated line: a tail
            // without `\n` is a torn write even if it happens to checksum.
            let Some(nl) = rest.find('\n') else {
                dropped = Some(format!("torn record {index} (no terminating newline)"));
                break;
            };
            let line = &rest[..nl];
            let Some(body) = parse_line(line) else {
                dropped = Some(format!("corrupt record {index} (checksum or syntax)"));
                break;
            };
            if index == 0 {
                let schema = body.get("schema").and_then(Json::as_int);
                if body.get("kind").and_then(Json::as_str) != Some("header")
                    || schema != Some(CACHE_SCHEMA_VERSION)
                {
                    dropped = Some(format!(
                        "schema {} journal (this verifier writes schema {CACHE_SCHEMA_VERSION})",
                        schema.map_or_else(|| "?".to_string(), |s| s.to_string()),
                    ));
                    break;
                }
            } else if let (Some(key), Some(task)) =
                (body.get("key").and_then(Json::as_str), body.get("task"))
            {
                // Later records win: replaying the journal converges to the
                // newest entry per fingerprint.
                cache.map.insert(key.to_string(), task.clone());
                cache.journal_records += 1;
            } else {
                dropped = Some(format!("malformed record {index} (missing key/task)"));
                break;
            }
            valid_len += nl as u64 + 1;
            rest = &rest[nl + 1..];
            index += 1;
        }
        if let Some(reason) = dropped {
            let lost = text.len() as u64 - valid_len;
            cache.warnings.push(format!(
                "verdict cache {}: recovered {} record(s), dropped {lost} byte(s) at {reason}",
                path.display(),
                cache.map.len(),
            ));
        }
        // Make the on-disk journal equal to the valid prefix, then position
        // for appends.  An empty (or fully discarded) journal gets a fresh
        // header.
        let header_line = render_line(&header_record());
        let result = file
            .set_len(valid_len)
            .and_then(|()| file.seek(SeekFrom::Start(valid_len)))
            .and_then(|_| {
                if valid_len == 0 {
                    writeln!(file, "{header_line}")?;
                    file.flush()?;
                }
                Ok(())
            });
        match result {
            Ok(()) => {
                cache.file = Some(file);
                cache.journal_bytes =
                    if valid_len == 0 { header_line.len() as u64 + 1 } else { valid_len };
            }
            Err(e) => cache.warnings.push(format!(
                "verdict cache {}: cannot repair journal ({e}); continuing without persistence",
                path.display()
            )),
        }
        cache
    }

    /// Number of cached verdicts.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// Whether the cache holds no verdicts.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Looks up a fingerprint, counting the hit or miss.
    pub fn lookup(&mut self, key: &str) -> Option<Json> {
        let found = self.map.get(key).cloned();
        if found.is_some() {
            self.hits += 1;
        } else {
            self.misses += 1;
        }
        found
    }

    /// Inserts a task record under `key`, appending it to the journal and
    /// flushing, so a crash immediately after the insert loses at most the
    /// in-flight record itself (and a torn tail is recovered away on the
    /// next open).  A failed append degrades the cache to in-memory for the
    /// rest of the run with a one-time warning (DESIGN.md §15) — it never
    /// errors, and it never retries the disk on every insert.  May trigger
    /// a compaction (see [`VerdictCache::compact`]).
    pub fn insert(&mut self, key: &str, task: Json) {
        let record = Json::object(vec![
            ("kind", Json::Str("verdict".to_string())),
            ("key", Json::Str(key.to_string())),
            ("task", task.clone()),
        ]);
        self.map.insert(key.to_string(), task);
        if self.file.is_none() {
            return;
        }
        let line = render_line(&record);
        match self.chaos.as_mut().map_or(CacheFault::None, CacheChaos::roll_fault) {
            CacheFault::Fail => {
                self.degrade("injected write failure (chaos)");
                return;
            }
            CacheFault::Torn => {
                // Only a prefix of the record reaches the disk, no newline:
                // exactly the tail a crash mid-write leaves behind.  The
                // next open recovers by truncating it away.
                let cut = line.len() / 2;
                let torn = line[..cut].to_string();
                match self.append_bytes(torn.as_bytes()) {
                    Ok(()) => self.journal_bytes += cut as u64,
                    Err(e) => self.degrade(&e.to_string()),
                }
                return;
            }
            CacheFault::Slow(ms) => std::thread::sleep(Duration::from_millis(ms)),
            CacheFault::None => {}
        }
        match self.append_bytes(format!("{line}\n").as_bytes()) {
            Ok(()) => {
                self.journal_bytes += line.len() as u64 + 1;
                self.journal_records += 1;
                self.maybe_compact();
            }
            Err(e) => self.degrade(&e.to_string()),
        }
    }

    /// Appends raw bytes to the journal and flushes.
    fn append_bytes(&mut self, bytes: &[u8]) -> std::io::Result<()> {
        let file = self.file.as_mut().expect("append_bytes requires an open journal");
        file.write_all(bytes)?;
        file.flush()
    }

    /// Drops persistence after a failed append: warns **once** on stderr,
    /// records the warning, and keeps serving from memory.  Later inserts
    /// skip the disk entirely instead of failing loudly every time.
    fn degrade(&mut self, why: &str) {
        let msg = format!("verdict cache append failed ({why}); continuing without persistence");
        if !self.degraded {
            self.degraded = true;
            eprintln!("pathinv-serve: {msg}");
        }
        self.warnings.push(msg);
        self.file = None;
    }

    /// Whether a mid-run append failure dropped persistence.
    pub fn is_degraded(&self) -> bool {
        self.degraded
    }

    /// Compacts automatically once the journal is past the size threshold
    /// *and* at least half its records are superseded — a journal of purely
    /// live records gains nothing from a rewrite.
    fn maybe_compact(&mut self) {
        let threshold = if self.compact_threshold == 0 {
            DEFAULT_COMPACT_BYTES
        } else {
            self.compact_threshold
        };
        if self.journal_bytes >= threshold && self.journal_records >= 2 * self.map.len() as u64 {
            self.compact();
        }
    }

    /// Rewrites the journal to exactly the live map: header plus one record
    /// per fingerprint (sorted, so compaction output is deterministic).
    ///
    /// Crash-safety argument (DESIGN.md §15): the rewrite goes to
    /// `<journal>.tmp`, is fsynced, and is atomically renamed over the
    /// journal.  A crash *before* the rename leaves the original journal
    /// byte-for-byte intact (the stale `.tmp` is removed on the next open);
    /// a crash *after* it leaves the complete compacted journal.  No
    /// interleaving exposes a partially compacted file under the journal
    /// path.  Returns whether a compaction happened; a failed rewrite keeps
    /// the uncompacted journal and warns.
    pub fn compact(&mut self) -> bool {
        let Some(path) = self.path.clone() else { return false };
        if self.file.is_none() {
            return false;
        }
        let tmp = compact_tmp_path(&path);
        let mut keys: Vec<String> = self.map.keys().cloned().collect();
        keys.sort();
        let result = (|| -> std::io::Result<(File, u64)> {
            let mut out = File::create(&tmp)?;
            let mut bytes: u64 = 0;
            let header = render_line(&header_record());
            writeln!(out, "{header}")?;
            bytes += header.len() as u64 + 1;
            for key in &keys {
                let record = Json::object(vec![
                    ("kind", Json::Str("verdict".to_string())),
                    ("key", Json::Str(key.clone())),
                    ("task", self.map[key].clone()),
                ]);
                let line = render_line(&record);
                writeln!(out, "{line}")?;
                bytes += line.len() as u64 + 1;
            }
            out.sync_all()?;
            std::fs::rename(&tmp, &path)?;
            let file = OpenOptions::new().append(true).open(&path)?;
            Ok((file, bytes))
        })();
        match result {
            Ok((file, bytes)) => {
                self.file = Some(file);
                self.journal_bytes = bytes;
                self.journal_records = self.map.len() as u64;
                self.compactions += 1;
                true
            }
            Err(e) => {
                std::fs::remove_file(&tmp).ok();
                self.warnings.push(format!(
                    "verdict cache compaction failed ({e}); keeping the uncompacted journal"
                ));
                false
            }
        }
    }

    /// Bytes currently in the journal (0 for in-memory caches).
    pub fn journal_bytes(&self) -> u64 {
        self.journal_bytes
    }

    /// Overrides the automatic-compaction size threshold (`0` restores
    /// [`DEFAULT_COMPACT_BYTES`]).
    pub fn set_compact_threshold(&mut self, bytes: u64) {
        self.compact_threshold = bytes;
    }

    /// Arms seeded write-fault injection for every later insert.
    pub fn set_chaos(&mut self, chaos: CacheChaos) {
        self.chaos = Some(chaos);
    }

    /// Forces the journal to stable storage (the shutdown drain calls this;
    /// per-insert writes are already flushed, this adds an fsync).
    pub fn sync(&mut self) {
        if let Some(file) = &mut self.file {
            let _ = file.sync_all();
        }
    }

    /// The journal path, when persistent.
    pub fn path(&self) -> Option<&Path> {
        self.path.as_deref()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::smoke::temp_path;
    use proptest::prelude::*;

    fn sample_task(verdict: &str) -> Json {
        Json::object(vec![
            ("engine", Json::Str("cegar".to_string())),
            ("verdict", Json::Str(verdict.to_string())),
            ("cert_digest", Json::Str("0123456789abcdef".to_string())),
        ])
    }

    #[test]
    fn round_trips_across_reopen() {
        let path = temp_path("roundtrip");
        let mut cache = VerdictCache::open(&path);
        assert!(cache.warnings.is_empty(), "{:?}", cache.warnings);
        cache.insert("aaaa", sample_task("safe"));
        cache.insert("bbbb", sample_task("unsafe"));
        drop(cache);
        let mut cache = VerdictCache::open(&path);
        assert!(cache.warnings.is_empty(), "{:?}", cache.warnings);
        assert_eq!(cache.len(), 2);
        assert_eq!(
            cache.lookup("aaaa").unwrap().get("verdict").and_then(Json::as_str),
            Some("safe")
        );
        assert_eq!(cache.lookup("missing"), None);
        assert_eq!((cache.hits, cache.misses), (1, 1));
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn truncated_tail_recovers_to_valid_prefix() {
        let path = temp_path("torn");
        let mut cache = VerdictCache::open(&path);
        cache.insert("aaaa", sample_task("safe"));
        cache.insert("bbbb", sample_task("unsafe"));
        drop(cache);
        // Tear the last record: drop its final 7 bytes (newline included).
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() - 7]).unwrap();
        let mut cache = VerdictCache::open(&path);
        assert_eq!(cache.len(), 1, "the torn record is dropped, the prefix survives");
        assert!(cache.lookup("aaaa").is_some());
        assert!(cache.lookup("bbbb").is_none());
        assert_eq!(cache.warnings.len(), 1, "recovery must be loud: {:?}", cache.warnings);
        assert!(cache.warnings[0].contains("torn record"), "{:?}", cache.warnings);
        // The repair is durable: a third open sees a pristine journal.
        cache.insert("cccc", sample_task("unknown"));
        drop(cache);
        let cache = VerdictCache::open(&path);
        assert!(cache.warnings.is_empty(), "{:?}", cache.warnings);
        assert_eq!(cache.len(), 2);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn flipped_checksum_byte_drops_the_record_and_its_suffix() {
        let path = temp_path("bitflip");
        let mut cache = VerdictCache::open(&path);
        cache.insert("aaaa", sample_task("safe"));
        cache.insert("bbbb", sample_task("unsafe"));
        cache.insert("cccc", sample_task("unknown"));
        drop(cache);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 4);
        // Flip one checksum byte of the *middle* verdict record.
        let mut mangled: Vec<String> = lines.iter().map(|l| l.to_string()).collect();
        let flipped = if mangled[2].starts_with('0') { "1" } else { "0" };
        mangled[2].replace_range(0..1, flipped);
        std::fs::write(&path, format!("{}\n", mangled.join("\n"))).unwrap();
        let mut cache = VerdictCache::open(&path);
        // Truncate-at-first-corruption: record 2 *and everything after it*
        // are gone; an append-only journal cannot trust offsets past a
        // corrupt record.
        assert_eq!(cache.len(), 1);
        assert!(cache.lookup("aaaa").is_some());
        assert!(cache.lookup("bbbb").is_none());
        assert!(cache.lookup("cccc").is_none());
        assert!(cache.warnings[0].contains("corrupt record 2"), "{:?}", cache.warnings);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn stale_schema_version_discards_the_whole_journal() {
        let path = temp_path("schema");
        let header = Json::object(vec![
            ("kind", Json::Str("header".to_string())),
            ("schema", Json::Int(CACHE_SCHEMA_VERSION + 1)),
        ]);
        let record = Json::object(vec![
            ("kind", Json::Str("verdict".to_string())),
            ("key", Json::Str("aaaa".to_string())),
            ("task", sample_task("safe")),
        ]);
        std::fs::write(&path, format!("{}\n{}\n", render_line(&header), render_line(&record)))
            .unwrap();
        let mut cache = VerdictCache::open(&path);
        assert!(cache.is_empty(), "future-schema records must not be replayed");
        assert!(cache.lookup("aaaa").is_none());
        assert!(cache.warnings[0].contains("schema"), "{:?}", cache.warnings);
        // And the journal is reinitialized for the current generation.
        drop(cache);
        let cache = VerdictCache::open(&path);
        assert!(cache.warnings.is_empty(), "{:?}", cache.warnings);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn garbage_from_byte_zero_degrades_to_cold_cache() {
        let path = temp_path("garbage");
        std::fs::write(&path, b"\x00\xffnot a journal at all\n\x7f").unwrap();
        let mut cache = VerdictCache::open(&path);
        assert!(cache.is_empty());
        assert_eq!(cache.warnings.len(), 1);
        cache.insert("aaaa", sample_task("safe"));
        drop(cache);
        let cache = VerdictCache::open(&path);
        assert!(cache.warnings.is_empty(), "{:?}", cache.warnings);
        assert_eq!(cache.len(), 1);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compaction_triggers_reclaims_superseded_records_and_survives_reopen() {
        let path = temp_path("compact");
        let mut cache = VerdictCache::open(&path);
        cache.set_compact_threshold(512);
        // Hammer one key with superseded records until the journal crosses
        // the threshold with >= half its records dead.
        for i in 0..20 {
            cache.insert("aaaa", sample_task(if i % 2 == 0 { "safe" } else { "unsafe" }));
        }
        cache.insert("bbbb", sample_task("unknown"));
        assert!(cache.compactions > 0, "the threshold should have forced a compaction");
        assert!(
            cache.journal_bytes() < 512,
            "post-compaction journal holds only live records ({} bytes)",
            cache.journal_bytes()
        );
        let expect_a = cache.lookup("aaaa").unwrap();
        drop(cache);
        let mut cache = VerdictCache::open(&path);
        assert!(cache.warnings.is_empty(), "{:?}", cache.warnings);
        assert_eq!(cache.len(), 2);
        assert_eq!(
            cache.lookup("aaaa").unwrap().compact(),
            expect_a.compact(),
            "compaction must preserve the newest record byte-identically"
        );
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn compacted_journal_round_trips_through_crash_recovery() {
        let path = temp_path("compact-crash");
        let mut cache = VerdictCache::open(&path);
        for i in 0..10 {
            cache.insert("aaaa", sample_task(if i < 9 { "unknown" } else { "safe" }));
            cache.insert("bbbb", sample_task("unsafe"));
        }
        assert!(cache.compact(), "forced compaction must succeed");
        let warm_a = cache.lookup("aaaa").unwrap().compact();
        let warm_b = cache.lookup("bbbb").unwrap().compact();
        drop(cache);
        // Crash simulation 1: torn append after the compaction.
        let mut bytes = std::fs::read(&path).unwrap();
        let clean = bytes.clone();
        bytes.extend_from_slice(b"0123456789abcdef {\"kind\":\"verd");
        std::fs::write(&path, &bytes).unwrap();
        let mut cache = VerdictCache::open(&path);
        assert_eq!(cache.warnings.len(), 1, "{:?}", cache.warnings);
        assert_eq!(cache.lookup("aaaa").unwrap().compact(), warm_a);
        assert_eq!(cache.lookup("bbbb").unwrap().compact(), warm_b);
        drop(cache);
        // Crash simulation 2: a stale .tmp from a crash mid-compaction is
        // discarded and the journal itself is untouched.
        std::fs::write(&path, &clean).unwrap();
        std::fs::write(compact_tmp_path(&path), b"partial rewrite, never renamed").unwrap();
        let mut cache = VerdictCache::open(&path);
        assert!(!compact_tmp_path(&path).exists(), "stale .tmp must be removed");
        assert!(
            cache.warnings.iter().any(|w| w.contains("stale compaction")),
            "{:?}",
            cache.warnings
        );
        assert_eq!(cache.lookup("aaaa").unwrap().compact(), warm_a);
        assert_eq!(cache.lookup("bbbb").unwrap().compact(), warm_b);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn injected_write_failure_degrades_to_memory_with_one_warning() {
        let path = temp_path("chaos-fail");
        let mut cache = VerdictCache::open(&path);
        cache.set_chaos(CacheChaos {
            state: 7,
            fail_per_mille: 1000,
            torn_per_mille: 0,
            slow_per_mille: 0,
            slow_ms: 0,
        });
        cache.insert("aaaa", sample_task("safe"));
        cache.insert("bbbb", sample_task("unsafe"));
        cache.insert("cccc", sample_task("unknown"));
        assert!(cache.is_degraded());
        assert_eq!(cache.warnings.len(), 1, "degrade warns once, not per insert");
        assert!(cache.lookup("aaaa").is_some(), "memoization keeps serving from memory");
        assert!(cache.lookup("cccc").is_some());
        drop(cache);
        let cache = VerdictCache::open(&path);
        assert!(cache.is_empty(), "nothing was persisted after the injected failure");
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn injected_torn_write_is_recovered_away_on_reopen() {
        let path = temp_path("chaos-torn");
        let mut cache = VerdictCache::open(&path);
        cache.insert("aaaa", sample_task("safe"));
        cache.set_chaos(CacheChaos {
            state: 7,
            fail_per_mille: 0,
            torn_per_mille: 1000,
            slow_per_mille: 0,
            slow_ms: 0,
        });
        cache.insert("bbbb", sample_task("unsafe"));
        assert!(cache.lookup("bbbb").is_some(), "the in-memory map is unaffected by the tear");
        drop(cache);
        let mut cache = VerdictCache::open(&path);
        assert_eq!(cache.len(), 1, "the torn record is truncated away");
        assert_eq!(
            cache.lookup("aaaa").unwrap().get("verdict").and_then(Json::as_str),
            Some("safe"),
            "recovery never surfaces a mangled record as a verdict"
        );
        assert!(cache.warnings[0].contains("torn record"), "{:?}", cache.warnings);
        std::fs::remove_file(&path).ok();
    }

    #[test]
    fn unopenable_path_means_in_memory_operation() {
        let mut cache = VerdictCache::open(Path::new("/nonexistent-dir/zz/cache.journal"));
        assert_eq!(cache.warnings.len(), 1);
        cache.insert("aaaa", sample_task("safe"));
        assert!(cache.lookup("aaaa").is_some(), "memoization still works unpersisted");
    }

    /// Deterministically decodes a seed into a hostile detail string: mixes
    /// quotes, backslashes, newlines, control characters, and multi-byte
    /// unicode — everything the journal's one-record-per-line framing and
    /// the JSON string escaper must survive.
    fn hostile_detail(seed: u64, len: usize) -> String {
        const ALPHABET: [&str; 12] =
            ["a", "\"", "\\", "\n", "\t", "\r", "\u{1}", "λ", "∀", "{", "}", " "];
        let mut s = String::new();
        let mut state = seed;
        for _ in 0..len {
            state = state.wrapping_mul(6364136223846793005).wrapping_add(1442695040888963407);
            s.push_str(ALPHABET[(state >> 33) as usize % ALPHABET.len()]);
        }
        s
    }

    proptest! {
        /// Arbitrary verdict records — keys and task payloads with hostile
        /// strings (quotes, newlines, unicode, control characters) — survive
        /// the journal round-trip byte-exactly.
        #[test]
        fn journal_round_trips_arbitrary_records(
            entries in proptest::collection::vec(
                (0u64..u64::MAX, 0usize..40, -1_000_000i64..1_000_000),
                1..12,
            )
        ) {
            let path = temp_path("prop");
            let mut cache = VerdictCache::open(&path);
            let mut expect: HashMap<String, Json> = HashMap::new();
            for (key_seed, detail_len, n) in &entries {
                let key = format!("{:016x}", fnv64(&key_seed.to_le_bytes()));
                let detail = hostile_detail(*key_seed, *detail_len);
                let (key, detail) = (&key, &detail);
                let task = Json::object(vec![
                    ("verdict", Json::Str("unknown".to_string())),
                    ("detail", Json::Str(detail.clone())),
                    ("refinements", Json::Int(*n)),
                ]);
                cache.insert(key, task.clone());
                expect.insert(key.clone(), task);
            }
            drop(cache);
            let mut reopened = VerdictCache::open(&path);
            prop_assert!(reopened.warnings.is_empty(), "{:?}", reopened.warnings);
            prop_assert_eq!(reopened.len(), expect.len());
            for (key, task) in &expect {
                let got = reopened.lookup(key);
                prop_assert_eq!(got.as_ref(), Some(task));
            }
            std::fs::remove_file(&path).ok();
        }
    }
}
