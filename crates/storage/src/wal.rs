//! The per-tenant write-ahead log: an append-only file of framed,
//! checksummed mutation records replayed on open.
//!
//! ## File layout (all integers little-endian)
//!
//! The file opens with a 14-byte header — magic `CQWAL1` plus the
//! `u64` **checkpoint epoch** of the snapshot this log follows. A
//! checkpoint bumps the epoch in the new snapshot first and restamps
//! the log second, so a crash between the two leaves a log whose
//! epoch is *older* than the snapshot's: recovery recognizes it as
//! already folded in and discards it instead of replaying records
//! against a schema they predate (see `Store::load_tenant`).
//!
//! Records follow the header, each framed as:
//!
//! ```text
//! u32   payload length
//! u32   CRC-32 of the payload
//! payload:
//!   u8          tag (1 = insert, 2 = load, 3 = drop-relation,
//!               4 = set-limits)
//!   insert:     u16 + bytes relation name, u32 arity, arity × u64
//!   load:       u16 + bytes relation name, u32 arity, u64 value
//!               count, values (row-major)
//!   drop:       u16 + bytes relation name
//!   set-limits: 3 × u64 (budget exponent bits, row cap, timeout ms;
//!               u64::MAX = unset)
//! ```
//!
//! Each record is appended with a single `write(2)`, so a record is
//! either fully in the OS page cache (it survives any process death,
//! including SIGKILL) or was never acknowledged. What a crash *can*
//! leave behind is a **torn tail**: an incomplete final record from a
//! write interrupted by power loss or a mid-write kill. [`replay`]
//! therefore treats the first framing defect — short header, short
//! payload, checksum mismatch — as the end of the log, reports the
//! byte offset of the last intact record, and the store truncates the
//! file there: a torn tail costs at most the one unacknowledged
//! mutation, never the boot. A *checksum-valid* record that fails to
//! decode or apply is different — the frame was fully written, so the
//! log is genuinely corrupt and replay refuses it.

use crate::fault::{FaultPlan, FaultPoint};
use crate::format::{crc32, Dec, Enc};
use crate::store::StoreError;
use cq_data::{Database, Relation, Val};
use std::fs::File;
use std::io::Write as _;
use std::path::{Path, PathBuf};

/// Per-tenant resource limits as persisted by a
/// [`WalRecord::SetLimits`] record. Each field uses `u64::MAX` as the
/// "unset" sentinel; `max_exponent_bits` holds the `f64` bit pattern
/// of the budget exponent (the sentinel decodes to a NaN, which is
/// never a valid budget).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TenantLimits {
    /// `f64::to_bits` of the `SET BUDGET … MAX-EXPONENT` cap.
    pub max_exponent_bits: u64,
    /// The `SET BUDGET … MAX-ROWS` cap.
    pub max_rows: u64,
    /// The `SET TIMEOUT` deadline in milliseconds.
    pub timeout_ms: u64,
}

impl Default for TenantLimits {
    fn default() -> TenantLimits {
        TenantLimits {
            max_exponent_bits: TenantLimits::UNSET,
            max_rows: TenantLimits::UNSET,
            timeout_ms: TenantLimits::UNSET,
        }
    }
}

impl TenantLimits {
    /// The "unset" sentinel of every field.
    pub const UNSET: u64 = u64::MAX;

    /// Is any limit actually set?
    pub fn is_set(&self) -> bool {
        *self != TenantLimits::default()
    }
}

/// One logged mutation, mirroring the server's wire mutations.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum WalRecord {
    /// One tuple inserted into a relation (creating it on first use).
    Insert {
        /// Relation name.
        relation: String,
        /// The inserted row; its length is the arity.
        row: Vec<Val>,
    },
    /// A bulk load merged into a relation (set semantics).
    Load {
        /// Relation name.
        relation: String,
        /// Arity of the loaded rows (kept explicit so empty and
        /// nullary loads stay well-formed).
        arity: usize,
        /// The loaded rows, each of length `arity`.
        rows: Vec<Vec<Val>>,
    },
    /// A relation removed.
    DropRelation {
        /// Relation name.
        relation: String,
    },
    /// The tenant's resource limits (`SET BUDGET` / `SET TIMEOUT`)
    /// changed. Carries the full limit set, so the last such record
    /// in the log wins and replay needs no merging. Limits are not
    /// part of the snapshot image; a checkpoint re-appends one of
    /// these as the first record of the fresh log when any limit is
    /// set, which is how limits survive the WAL truncation.
    SetLimits(TenantLimits),
}

impl WalRecord {
    const TAG_INSERT: u8 = 1;
    const TAG_LOAD: u8 = 2;
    const TAG_DROP: u8 = 3;
    const TAG_LIMITS: u8 = 4;

    /// Encode to a framed record (header + payload).
    pub fn to_frame(&self) -> Vec<u8> {
        let mut p = Enc::new();
        match self {
            WalRecord::Insert { relation, row } => {
                p.u8(Self::TAG_INSERT);
                p.str(relation);
                p.u32(u32::try_from(row.len()).expect("arity fits u32"));
                for &v in row {
                    p.u64(v);
                }
            }
            WalRecord::Load { relation, arity, rows } => {
                p.u8(Self::TAG_LOAD);
                p.str(relation);
                p.u32(u32::try_from(*arity).expect("arity fits u32"));
                p.u64(rows.len() as u64);
                for row in rows {
                    assert_eq!(row.len(), *arity, "load row arity mismatch");
                    for &v in row {
                        p.u64(v);
                    }
                }
            }
            WalRecord::DropRelation { relation } => {
                p.u8(Self::TAG_DROP);
                p.str(relation);
            }
            WalRecord::SetLimits(l) => {
                p.u8(Self::TAG_LIMITS);
                p.u64(l.max_exponent_bits);
                p.u64(l.max_rows);
                p.u64(l.timeout_ms);
            }
        }
        let payload = p.into_bytes();
        let mut f = Enc::new();
        f.u32(u32::try_from(payload.len()).expect("payload fits u32"));
        f.u32(crc32(&payload));
        f.raw(&payload);
        f.into_bytes()
    }

    /// Decode one payload (framing already verified by the caller).
    fn from_payload(payload: &[u8]) -> Option<WalRecord> {
        let mut d = Dec::new(payload);
        let tag = d.u8()?;
        let rec = match tag {
            Self::TAG_INSERT => {
                let relation = d.str()?;
                let arity = d.u32()? as usize;
                WalRecord::Insert { relation, row: d.u64s(arity)? }
            }
            Self::TAG_LOAD => {
                let relation = d.str()?;
                let arity = d.u32()? as usize;
                let n_rows = usize::try_from(d.u64()?).ok()?;
                let flat = d.u64s(n_rows.checked_mul(arity)?)?;
                let rows = if arity == 0 {
                    vec![Vec::new(); n_rows]
                } else {
                    flat.chunks_exact(arity).map(<[Val]>::to_vec).collect()
                };
                WalRecord::Load { relation, arity, rows }
            }
            Self::TAG_DROP => WalRecord::DropRelation { relation: d.str()? },
            Self::TAG_LIMITS => WalRecord::SetLimits(TenantLimits {
                max_exponent_bits: d.u64()?,
                max_rows: d.u64()?,
                timeout_ms: d.u64()?,
            }),
            _ => return None,
        };
        d.is_empty().then_some(rec)
    }

    /// Apply this record to a database — the one statement of the
    /// server's mutation semantics, used by the live `INSERT`/`LOAD`/
    /// `DROP` handlers, by recovery and by the replica alike. Duplicate
    /// inserts and all-duplicate loads leave the database (and its
    /// generation) untouched; the server logs a record iff this
    /// reports [`Applied::Changed`], so replaying a log re-applies only
    /// records that changed something and is idempotent either way.
    /// An [`ArityConflict`] applies nothing: live it is the client's
    /// `ERR arity-mismatch`, on replay it means the log does not
    /// describe this database's history.
    pub fn apply(&self, db: &mut Database) -> Result<Applied, ArityConflict<'_>> {
        let fits = |relation, expected, got| {
            (expected == got).then_some(()).ok_or(ArityConflict {
                relation,
                expected,
                got,
            })
        };
        match self {
            WalRecord::Insert { relation, row } => {
                if let Some(rel) = db.get(relation) {
                    fits(relation, rel.arity(), row.len())?;
                    if rel.contains(row) {
                        return Ok(Applied::Unchanged(rel.len()));
                    }
                }
                // `get_mut` re-stamps the generation, so only past the
                // no-op checks; then an in-place sorted splice
                match db.get_mut(relation) {
                    Some(rel) => {
                        rel.insert_row(row);
                        Ok(Applied::Changed(rel.len()))
                    }
                    None => {
                        let mut rel = Relation::new(row.len());
                        rel.insert_row(row);
                        db.insert(relation, rel);
                        Ok(Applied::Changed(1))
                    }
                }
            }
            WalRecord::Load { relation, arity, rows } => {
                let existing = db.get(relation);
                if let Some(existing) = existing {
                    fits(relation, existing.arity(), *arity)?;
                }
                let old_len = existing.map(Relation::len);
                let mut rel = existing.cloned().unwrap_or_else(|| Relation::new(*arity));
                for row in rows {
                    fits(relation, *arity, row.len())?;
                    rel.push_row(row);
                }
                rel.normalize();
                let rows = rel.len();
                // set semantics: the content changed iff the row count
                // did — an all-duplicate or empty load of an existing
                // relation keeps the generation (and the warm catalog)
                if old_len == Some(rows) {
                    return Ok(Applied::Unchanged(rows));
                }
                db.insert(relation, rel);
                Ok(Applied::Changed(rows))
            }
            WalRecord::DropRelation { relation } => Ok(match db.remove(relation) {
                Some(rel) => Applied::Changed(rel.len()),
                None => Applied::Missing,
            }),
            // limits live beside the data, not in it: the store reports
            // the last one seen through `Recovery::limits` instead
            WalRecord::SetLimits(_) => Ok(Applied::Changed(0)),
        }
    }
}

/// What [`WalRecord::apply`] did. The server renders its mutation
/// replies from this; recovery and the replica only need it to be `Ok`.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Applied {
    /// The database changed; carries the relation's row count
    /// afterwards (for a drop: the rows removed with it).
    Changed(usize),
    /// Nothing to do — a duplicate insert, an all-duplicate or empty
    /// load; carries the relation's unchanged row count.
    Unchanged(usize),
    /// A drop of a relation that is not there: a no-op on replay, the
    /// client's `ERR no-such-relation` live.
    Missing,
}

/// A record whose rows are not as wide as the relation they target.
#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub struct ArityConflict<'a> {
    /// The relation the record addresses.
    pub relation: &'a str,
    /// The arity the relation (or the load's own header) fixes.
    pub expected: usize,
    /// The arity the record brought.
    pub got: usize,
}

impl std::fmt::Display for ArityConflict<'_> {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let ArityConflict { relation, expected, got } = self;
        write!(f, "`{relation}` has arity {expected}, the record has arity {got}")
    }
}

/// The WAL file's leading magic, version included.
pub const WAL_MAGIC: &[u8; 6] = b"CQWAL1";
/// Length of the WAL file header: magic + `u64` checkpoint epoch.
pub const WAL_HEADER_LEN: u64 = 14;

fn header_bytes(epoch: u64) -> [u8; WAL_HEADER_LEN as usize] {
    let mut h = [0u8; WAL_HEADER_LEN as usize];
    h[..6].copy_from_slice(WAL_MAGIC);
    h[6..].copy_from_slice(&epoch.to_le_bytes());
    h
}

/// The open, append-only WAL of one tenant.
///
/// The file begins with a 14-byte header naming the **checkpoint
/// epoch** the log follows (the epoch stored in the snapshot the
/// records apply on top of); records follow. Appends are single
/// `write(2)` calls flushed to the OS immediately; [`WalWriter::sync`]
/// additionally forces them to stable storage (the store does this on
/// checkpoint, not per record — the `ingest_durability` bench records
/// what per-record fsync would cost).
///
/// A failed append rolls the file back to the last intact record so a
/// partial frame can never sit *between* acknowledged records (a later
/// reboot would mistake everything after it for a torn tail); if even
/// the rollback fails the writer poisons itself and refuses further
/// appends rather than acknowledge mutations it may silently lose.
#[derive(Debug)]
pub struct WalWriter {
    path: PathBuf,
    file: File,
    /// Total file length, header included.
    file_len: u64,
    epoch: u64,
    poisoned: bool,
    stats: WalStats,
    /// Injected-failure plan (empty outside fault-injection runs).
    faults: FaultPlan,
}

/// Cumulative write-side counters for one WAL, since the writer was
/// opened. Checkpoints reset the log but not these counters, so they
/// measure total write traffic, not current log volume (that is
/// [`WalWriter::len`]).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct WalStats {
    /// Records appended successfully.
    pub appends: u64,
    /// Frame bytes appended successfully (headers and CRCs included).
    pub appended_bytes: u64,
    /// Explicit data syncs ([`WalWriter::sync`] and resets).
    pub syncs: u64,
}

impl WalWriter {
    fn over(path: PathBuf, file: File, file_len: u64, epoch: u64) -> WalWriter {
        WalWriter {
            path,
            file,
            file_len,
            epoch,
            poisoned: false,
            stats: WalStats::default(),
            faults: FaultPlan::none(),
        }
    }

    /// Create the WAL file with a fresh epoch-`epoch` header. Errors
    /// if the file already exists.
    pub(crate) fn create(path: PathBuf, epoch: u64) -> std::io::Result<WalWriter> {
        let mut file = File::options().create_new(true).append(true).open(&path)?;
        file.write_all(&header_bytes(epoch))?;
        Ok(WalWriter::over(path, file, WAL_HEADER_LEN, epoch))
    }

    /// Open an existing WAL for appending. `file_len` must be the
    /// current (post-recovery) file length and `epoch` the header's
    /// epoch.
    pub(crate) fn open(
        path: PathBuf,
        file_len: u64,
        epoch: u64,
    ) -> std::io::Result<WalWriter> {
        let file = File::options().append(true).open(&path)?;
        Ok(WalWriter::over(path, file, file_len, epoch))
    }

    /// Open a possibly-absent or headerless WAL; the caller resets it
    /// before use (recovery's missing-header repair path).
    pub(crate) fn open_or_create(
        path: PathBuf,
        epoch: u64,
    ) -> std::io::Result<WalWriter> {
        let file = File::options().create(true).append(true).open(&path)?;
        let file_len = file.metadata()?.len();
        Ok(WalWriter::over(path, file, file_len, epoch))
    }

    /// Append one record; returns the new record-bytes length.
    pub fn append(&mut self, record: &WalRecord) -> std::io::Result<u64> {
        if self.poisoned {
            return Err(std::io::Error::other(
                "wal writer poisoned by an earlier failed append/rollback; \
                 the log must be reopened (recovered) before further appends",
            ));
        }
        let frame = record.to_frame();
        let mut span = cq_obs::trace::span("wal.append");
        span.attr("wal-bytes", frame.len() as u64);
        let write = self.faults.check(FaultPoint::WalAppend).and_then(|()| {
            match self.faults.check(FaultPoint::WalShortWrite) {
                Ok(()) => self.file.write_all(&frame),
                Err(e) => {
                    // the torn-frame case: half the frame really lands
                    // before the "disk" gives out
                    let _ = self.file.write_all(&frame[..frame.len() / 2]);
                    Err(e)
                }
            }
        });
        match write {
            Ok(()) => {
                self.file_len += frame.len() as u64;
                self.stats.appends += 1;
                self.stats.appended_bytes += frame.len() as u64;
                Ok(self.len())
            }
            Err(e) => {
                // drop any partially-written frame; if the disk won't
                // even do that, stop accepting appends entirely
                if self.faults.check(FaultPoint::WalRollback).is_err()
                    || self.file.set_len(self.file_len).is_err()
                {
                    self.poisoned = true;
                }
                Err(e)
            }
        }
    }

    /// Has an earlier failed append/rollback poisoned this writer?
    /// A poisoned writer refuses appends until `WalWriter::reset`
    /// gives it a fresh segment (the `RESUME` repair path).
    pub fn is_poisoned(&self) -> bool {
        self.poisoned
    }

    /// Arm this writer with an injected-failure plan (threaded in by
    /// the owning [`Store`](crate::Store)).
    pub(crate) fn set_faults(&mut self, faults: FaultPlan) {
        self.faults = faults;
    }

    /// Bytes of records in the log (excluding the file header) —
    /// what `STATS <db>` reports as un-checkpointed volume.
    pub fn len(&self) -> u64 {
        self.file_len - WAL_HEADER_LEN
    }

    /// Is the log record-free (nothing since the last checkpoint)?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The checkpoint epoch this log follows.
    pub fn epoch(&self) -> u64 {
        self.epoch
    }

    /// Force appended records to stable storage.
    pub fn sync(&mut self) -> std::io::Result<()> {
        let _span = cq_obs::trace::span("wal.sync");
        self.faults.check(FaultPoint::WalSync)?;
        self.file.sync_data()?;
        self.stats.syncs += 1;
        Ok(())
    }

    /// Cumulative write-side counters since this writer was opened.
    pub fn stats(&self) -> WalStats {
        self.stats
    }

    /// Drop every record and restamp the header to `epoch` — called
    /// after a successful epoch-`epoch` snapshot has made the records
    /// redundant (by recovery, to discard a stale log; and by `RESUME`,
    /// to roll a degraded tenant onto a fresh segment).
    ///
    /// A successful reset un-poisons the writer — the fresh segment
    /// has no partial frame to distrust. A *failed* reset poisons it:
    /// the log's epoch may now trail a successfully-written snapshot,
    /// and anything appended to such a log would be silently discarded
    /// as stale on the next boot — refusing further appends is what
    /// keeps every acknowledged mutation recoverable.
    pub(crate) fn reset(&mut self, epoch: u64) -> std::io::Result<()> {
        let result = self.faults.check(FaultPoint::WalReset).and_then(|()| {
            self.file.set_len(0)?;
            self.file.write_all(&header_bytes(epoch))?;
            self.file.sync_data()
        });
        match result {
            Ok(()) => {
                self.stats.syncs += 1;
                self.file_len = WAL_HEADER_LEN;
                self.epoch = epoch;
                self.poisoned = false;
                Ok(())
            }
            Err(e) => {
                self.poisoned = true;
                Err(e)
            }
        }
    }

    /// The log's path (for diagnostics).
    pub fn path(&self) -> &Path {
        &self.path
    }
}

/// The outcome of replaying one WAL file image.
#[derive(Debug)]
pub struct Replay {
    /// The header's checkpoint epoch; `None` when the file is empty or
    /// shorter than the header (a creation torn mid-write) — there are
    /// then no records, by construction.
    pub epoch: Option<u64>,
    /// The decoded records, in log order.
    pub records: Vec<WalRecord>,
    /// Byte offset just past the last intact record (0 with no
    /// header; [`WAL_HEADER_LEN`] for a clean, record-free log).
    pub good_len: u64,
    /// Bytes of torn tail found after `good_len` (0 for a clean log).
    pub torn_bytes: u64,
}

/// Why [`read_frames`] stopped.
#[derive(PartialEq, Eq)]
enum FrameEnd {
    /// The bytes left hold no whole frame (none at all, at a clean end).
    Short,
    /// A whole frame fails its checksum.
    BadChecksum,
    /// A checksum-valid frame does not decode.
    Undecodable,
}

/// Decode record frames from the front of `bytes` until one cannot be:
/// the records, the bytes they take, and why the next did not follow.
fn read_frames(bytes: &[u8]) -> (Vec<WalRecord>, usize, FrameEnd) {
    let mut records = Vec::new();
    let mut pos = 0usize;
    while let Some(header) = bytes.get(pos..pos + 8) {
        let payload_len = u32::from_le_bytes(header[..4].try_into().unwrap()) as usize;
        let stored_crc = u32::from_le_bytes(header[4..8].try_into().unwrap());
        let Some(payload) = bytes.get(pos + 8..(pos + 8).saturating_add(payload_len))
        else {
            break;
        };
        if crc32(payload) != stored_crc {
            return (records, pos, FrameEnd::BadChecksum);
        }
        let Some(record) = WalRecord::from_payload(payload) else {
            return (records, pos, FrameEnd::Undecodable);
        };
        records.push(record);
        pos += 8 + payload_len;
    }
    (records, pos, FrameEnd::Short)
}

/// Decode the complete record frames at the front of a *headerless*
/// byte run — a replication `SHIP` segment, which starts at a record
/// boundary but may end mid-frame when the primary's per-call byte cap
/// splits a record. Returns the decoded records and the bytes they
/// consumed; an incomplete trailing frame is simply not consumed (the
/// caller buffers it and retries once more bytes arrive). Unlike
/// [`replay`], a framing defect is an error, not a torn tail: these
/// bytes came out of the intact prefix of a live log, so a complete
/// frame that fails its checksum (or decodes to nothing) means the
/// stream is wrong, not short.
pub fn decode_frames(bytes: &[u8]) -> Result<(Vec<WalRecord>, usize), String> {
    match read_frames(bytes) {
        (records, pos, FrameEnd::Short) => Ok((records, pos)),
        (_, pos, FrameEnd::BadChecksum) => {
            Err(format!("shipped record at byte {pos} fails its checksum"))
        }
        (_, pos, FrameEnd::Undecodable) => Err(format!(
            "shipped record at byte {pos} passes its checksum but does not decode"
        )),
    }
}

/// Decode every intact record of a WAL image. Framing defects after
/// the last intact record — a short frame, a checksum mismatch — are
/// reported as the torn tail; a checksum-valid record that fails to
/// decode — and a present-but-wrong header magic — is
/// [`StoreError::Corrupt`] (`source` names the file in the error).
pub fn replay(bytes: &[u8], source: &Path) -> Result<Replay, StoreError> {
    let Some(header) = bytes.get(..WAL_HEADER_LEN as usize) else {
        // empty, or creation died inside the 14 header bytes: nothing
        // was ever logged
        return Ok(Replay {
            epoch: None,
            records: Vec::new(),
            good_len: 0,
            torn_bytes: bytes.len() as u64,
        });
    };
    if &header[..6] != WAL_MAGIC {
        return Err(StoreError::corrupt(source, "bad header magic (not a cq wal)"));
    }
    let epoch = u64::from_le_bytes(header[6..].try_into().expect("8 bytes"));
    let (records, len, end) = read_frames(&bytes[header.len()..]);
    let good_len = header.len() + len;
    if end == FrameEnd::Undecodable {
        return Err(StoreError::corrupt(
            source,
            &format!("record at byte {good_len} passes its checksum but does not decode"),
        ));
    }
    Ok(Replay {
        epoch: Some(epoch),
        records,
        good_len: good_len as u64,
        torn_bytes: (bytes.len() - good_len) as u64,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_records() -> Vec<WalRecord> {
        vec![
            WalRecord::Insert { relation: "R".into(), row: vec![1, 2] },
            WalRecord::Load {
                relation: "S".into(),
                arity: 1,
                rows: vec![vec![5], vec![3], vec![5]],
            },
            WalRecord::Insert { relation: "R".into(), row: vec![1, 2] }, // duplicate
            WalRecord::Insert { relation: "T".into(), row: vec![] },     // nullary
            WalRecord::DropRelation { relation: "S".into() },
        ]
    }

    fn log_bytes(epoch: u64, records: &[WalRecord]) -> Vec<u8> {
        let mut bytes = header_bytes(epoch).to_vec();
        bytes.extend(records.iter().flat_map(WalRecord::to_frame));
        bytes
    }

    #[test]
    fn frames_roundtrip_through_replay() {
        let records = sample_records();
        let bytes = log_bytes(7, &records);
        let r = replay(&bytes, Path::new("wal")).unwrap();
        assert_eq!(r.epoch, Some(7));
        assert_eq!(r.records, records);
        assert_eq!(r.good_len, bytes.len() as u64);
        assert_eq!(r.torn_bytes, 0);
    }

    #[test]
    fn apply_mirrors_server_semantics() {
        use Applied::{Changed, Missing, Unchanged};
        let mut db = Database::new();
        let outcomes: Vec<Applied> =
            sample_records().iter().map(|rec| rec.apply(&mut db).unwrap()).collect();
        assert_eq!(
            outcomes,
            [
                Changed(1),
                Changed(2), // {5, 3, 5} is two rows
                Unchanged(1),
                Changed(1),
                Changed(2), // the drop reports what it removed
            ]
        );
        assert_eq!(db.get("R").unwrap(), &Relation::from_pairs(vec![(1, 2)]));
        assert!(db.get("S").is_none(), "dropped");
        assert_eq!(db.get("T").unwrap(), &Relation::nullary(true));
        // arity conflicts are typed, name the relation, and apply nothing
        let generation = db.generation();
        let bad = WalRecord::Insert { relation: "R".into(), row: vec![7] };
        assert_eq!(
            bad.apply(&mut db),
            Err(ArityConflict { relation: "R", expected: 2, got: 1 })
        );
        let bad = WalRecord::Load { relation: "R".into(), arity: 3, rows: vec![] };
        assert_eq!(
            bad.apply(&mut db),
            Err(ArityConflict { relation: "R", expected: 2, got: 3 })
        );
        // no-ops keep the generation: the tenant's warm catalog survives
        let dup =
            WalRecord::Load { relation: "R".into(), arity: 2, rows: vec![vec![1, 2]] };
        assert_eq!(dup.apply(&mut db), Ok(Unchanged(1)));
        let empty = WalRecord::Load { relation: "R".into(), arity: 2, rows: vec![] };
        assert_eq!(empty.apply(&mut db), Ok(Unchanged(1)));
        // dropping a missing relation is an idempotent no-op
        let gone = WalRecord::DropRelation { relation: "S".into() };
        assert_eq!(gone.apply(&mut db), Ok(Missing));
        assert_eq!(db.generation(), generation);
        // an empty load of a *new* relation creates it (and is logged)
        let fresh = WalRecord::Load { relation: "E".into(), arity: 2, rows: vec![] };
        assert_eq!(fresh.apply(&mut db), Ok(Changed(0)));
        // a nullary load carries its row count even though rows hold no
        // values: {} flips to {()}
        let mut db0 = Database::new();
        WalRecord::Load { relation: "B".into(), arity: 0, rows: vec![vec![]] }
            .apply(&mut db0)
            .unwrap();
        assert_eq!(db0.get("B").unwrap(), &Relation::nullary(true));
    }

    #[test]
    fn every_prefix_is_a_torn_tail_never_an_error() {
        let records = sample_records();
        let bytes = log_bytes(0, &records);
        // record boundaries, for checking how many records survive
        let mut ends = vec![WAL_HEADER_LEN];
        for r in &records {
            ends.push(ends.last().unwrap() + r.to_frame().len() as u64);
        }
        for cut in 0..=bytes.len() {
            let r = replay(&bytes[..cut], Path::new("wal")).unwrap();
            if (cut as u64) < WAL_HEADER_LEN {
                assert_eq!(r.epoch, None, "cut at {cut}");
                assert!(r.records.is_empty());
                assert_eq!(r.good_len, 0);
                assert_eq!(r.torn_bytes, cut as u64);
                continue;
            }
            let expect = ends.iter().filter(|&&e| e <= cut as u64).count() - 1;
            assert_eq!(r.records.len(), expect, "cut at {cut}");
            assert_eq!(r.good_len, ends[expect]);
            assert_eq!(r.torn_bytes, cut as u64 - r.good_len);
        }
    }

    #[test]
    fn bitflip_in_tail_record_is_torn_but_valid_frame_with_bad_payload_is_corrupt() {
        let records = sample_records();
        let mut bytes = log_bytes(0, &records);
        // flip a byte inside the last record's payload: checksum fails,
        // the damaged record becomes the torn tail
        let last = bytes.len() - 3;
        bytes[last] ^= 0xFF;
        let r = replay(&bytes, Path::new("wal")).unwrap();
        assert_eq!(r.records.len(), records.len() - 1);
        assert!(r.torn_bytes > 0);
        // a wrong header magic is corruption, not a torn tail
        let mut bad_magic = log_bytes(0, &records);
        bad_magic[2] ^= 0xFF;
        let err = replay(&bad_magic, Path::new("wal")).unwrap_err();
        assert!(err.to_string().contains("magic"), "{err}");
        // a frame whose checksum matches garbage payload is corruption
        let mut f = Enc::new();
        f.raw(&header_bytes(0));
        let payload = [99u8, 1, 2, 3]; // tag 99 does not exist
        f.u32(payload.len() as u32);
        f.u32(crc32(&payload));
        f.raw(&payload);
        let err = replay(f.bytes(), Path::new("wal")).unwrap_err();
        assert!(err.to_string().contains("does not decode"), "{err}");
    }

    #[test]
    fn writer_appends_and_resets() {
        let dir =
            std::env::temp_dir().join(format!("cq_wal_test_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("wal.cql");
        let mut w = WalWriter::create(path.clone(), 0).unwrap();
        assert!(w.is_empty());
        assert_eq!(w.epoch(), 0);
        assert!(WalWriter::create(path.clone(), 0).is_err(), "create is exclusive");
        let records = sample_records();
        for r in &records {
            w.append(r).unwrap();
        }
        w.sync().unwrap();
        assert_eq!(
            w.len() + WAL_HEADER_LEN,
            std::fs::metadata(&path).unwrap().len(),
            "len() counts record bytes only"
        );
        let on_disk = std::fs::read(&path).unwrap();
        let r = replay(&on_disk, &path).unwrap();
        assert_eq!(r.records, records);
        assert_eq!(r.epoch, Some(0));
        // a checkpoint resets the records and bumps the header epoch
        w.reset(1).unwrap();
        assert!(w.is_empty());
        assert_eq!(w.epoch(), 1);
        assert_eq!(std::fs::metadata(&path).unwrap().len(), WAL_HEADER_LEN);
        // appends keep working after the reset
        w.append(&records[0]).unwrap();
        let r = replay(&std::fs::read(&path).unwrap(), &path).unwrap();
        assert_eq!(r.records, vec![records[0].clone()]);
        assert_eq!(r.epoch, Some(1));
        drop(w);
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
