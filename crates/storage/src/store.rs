//! The [`Store`]: a directory of tenants, each a snapshot plus a WAL.
//!
//! ## On-disk layout
//!
//! ```text
//! <data-dir>/
//!   <tenant>/                  one directory per tenant database
//!     snapshot.cqs             latest checkpoint (absent until SAVE)
//!     wal.cql                  mutations since that checkpoint
//! ```
//!
//! Tenant names are restricted to `[A-Za-z0-9_]{1,64}` (the wire
//! grammar's database names), so a tenant name is always a safe
//! directory name.
//!
//! ## Recovery invariants
//!
//! * A tenant's logical state is `snapshot ∘ wal`: the snapshot (empty
//!   if none exists) with every intact WAL record applied in order.
//! * Snapshots are written atomically (temp file + rename), so a
//!   half-written snapshot never exists under the live name; a corrupt
//!   snapshot file is a hard [`StoreError::Corrupt`], never repaired.
//! * A torn WAL **tail** (incomplete final record from a crash
//!   mid-append) is truncated on open and reported in
//!   [`Recovery::torn_bytes`] — it costs the one unacknowledged
//!   mutation, never the boot.
//! * [`Store::checkpoint`] snapshots at the next epoch first, then
//!   resets the WAL under that epoch: a crash between the two leaves
//!   a log stamped with the *previous* epoch, which the next open
//!   recognizes as stale — already folded into the snapshot — and
//!   discards ([`Recovery::stale_records`]), so no ordering of
//!   crashes loses data or refuses a boot.

use crate::fault::{FaultPlan, FaultPoint};
use crate::snapshot;
use crate::wal::{self, TenantLimits, WalRecord, WalWriter};
use cq_data::Database;
use std::fmt;
use std::path::{Path, PathBuf};

/// File name of a tenant's snapshot inside its directory.
pub const SNAPSHOT_FILE: &str = "snapshot.cqs";
/// File name of a tenant's write-ahead log inside its directory.
pub const WAL_FILE: &str = "wal.cql";
/// File name of the data directory's ownership lock.
pub const LOCK_FILE: &str = "LOCK";

/// Why a store operation failed.
#[derive(Debug)]
pub enum StoreError {
    /// The underlying filesystem operation failed.
    Io(std::io::Error),
    /// A file's content is damaged beyond the self-repairing torn-tail
    /// case; the message names the file and the defect.
    Corrupt(String),
    /// A tenant name outside `[A-Za-z0-9_]{1,64}` (unsafe as a
    /// directory name).
    BadTenantName(String),
}

impl StoreError {
    pub(crate) fn corrupt(source: &Path, detail: &str) -> StoreError {
        StoreError::Corrupt(format!("{}: {detail}", source.display()))
    }
}

impl fmt::Display for StoreError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StoreError::Io(e) => write!(f, "storage io error: {e}"),
            StoreError::Corrupt(msg) => write!(f, "corrupt storage: {msg}"),
            StoreError::BadTenantName(name) => {
                write!(f, "bad tenant name `{name}` (want [A-Za-z0-9_]{{1,64}})")
            }
        }
    }
}

impl std::error::Error for StoreError {}

impl From<std::io::Error> for StoreError {
    fn from(e: std::io::Error) -> StoreError {
        StoreError::Io(e)
    }
}

/// What opening a tenant found — the boot-time summary `cqd` prints.
#[derive(Debug)]
pub struct Recovery {
    /// Rows restored from the snapshot (0 if no snapshot existed).
    pub snapshot_rows: usize,
    /// Intact WAL records replayed on top of the snapshot.
    pub wal_records: usize,
    /// Bytes of torn WAL tail truncated (0 for a clean log).
    pub torn_bytes: u64,
    /// Records discarded because the WAL's epoch predates the
    /// snapshot's — the crash-between-snapshot-and-log-reset window;
    /// every discarded record's effect is already in the snapshot.
    pub stale_records: usize,
    /// The tenant's persisted resource limits (`SET BUDGET` /
    /// `SET TIMEOUT`): the last [`WalRecord::SetLimits`] replayed, if
    /// any.
    pub limits: Option<TenantLimits>,
}

/// A directory of durable tenants. See the module docs for layout and
/// recovery invariants.
///
/// The store itself is near-stateless (a validated root path plus the
/// directory lock); per-tenant write handles are the [`WalWriter`]s it
/// hands out, which callers serialize with whatever lock already
/// guards the tenant's in-memory database.
#[derive(Debug)]
pub struct Store {
    root: PathBuf,
    /// Injected-failure plan threaded into every writer this store
    /// hands out (empty outside fault-injection runs).
    faults: FaultPlan,
    /// Held for the store's lifetime; its `Drop` releases the lock.
    _lock: DirLock,
}

/// Advisory ownership of a data directory, recorded as a `LOCK` file
/// holding the owner's PID. Two live processes (or two [`Store`]s in
/// one process) mutating the same directory would interleave WAL
/// appends and checkpoints arbitrarily, so `open_dir` refuses the
/// second opener instead. A lock left behind by a dead process (the
/// PID no longer exists) is stale and is taken over silently — a
/// `kill -9`'d daemon must not require manual cleanup to reboot.
#[derive(Debug)]
struct DirLock {
    path: PathBuf,
}

impl DirLock {
    fn acquire(root: &Path) -> std::io::Result<DirLock> {
        let path = root.join(LOCK_FILE);
        // Two rounds: the second attempt only follows a stale-lock
        // removal, so a genuinely contended file still errors.
        for attempt in 0..2 {
            match std::fs::File::options().write(true).create_new(true).open(&path) {
                Ok(mut f) => {
                    use std::io::Write as _;
                    let _ = writeln!(f, "{}", std::process::id());
                    return Ok(DirLock { path });
                }
                Err(e)
                    if e.kind() == std::io::ErrorKind::AlreadyExists && attempt == 0 =>
                {
                    let owner = std::fs::read_to_string(&path)
                        .ok()
                        .and_then(|s| s.trim().parse::<u32>().ok());
                    match owner {
                        Some(pid) if pid_is_live(pid) => {
                            return Err(std::io::Error::new(
                                std::io::ErrorKind::AddrInUse,
                                format!(
                                    "data directory {} is locked by running process \
                                     {pid}; is another daemon using this --data-dir? \
                                     (remove {} if the lock is wrong)",
                                    root.display(),
                                    path.display()
                                ),
                            ));
                        }
                        // Dead owner or unreadable lock: stale; reclaim.
                        _ => std::fs::remove_file(&path)?,
                    }
                }
                Err(e) => return Err(e),
            }
        }
        unreachable!("second acquire attempt only runs after removing a stale lock")
    }
}

impl Drop for DirLock {
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.path);
    }
}

/// Is a process with this PID currently alive?
fn pid_is_live(pid: u32) -> bool {
    if pid == std::process::id() {
        // Our own lock: a second in-process open is a real conflict.
        return true;
    }
    #[cfg(target_os = "linux")]
    {
        Path::new("/proc").join(pid.to_string()).exists()
    }
    #[cfg(not(target_os = "linux"))]
    {
        // No portable std-only liveness probe: assume live, so a stale
        // lock needs manual removal on non-Linux hosts (the safe side).
        true
    }
}

impl Store {
    /// Open (creating if needed) a data directory, taking exclusive
    /// ownership of it. Fails with `AddrInUse` when another live
    /// process — or another `Store` in this process — already owns it;
    /// a lock left by a dead process is reclaimed automatically. The
    /// lock is released when the `Store` is dropped.
    pub fn open_dir(root: impl Into<PathBuf>) -> std::io::Result<Store> {
        Store::open_dir_with_faults(root, FaultPlan::none())
    }

    /// [`Store::open_dir`] with an injected-failure plan threaded into
    /// every WAL writer and snapshot write this store performs. This
    /// never reads the environment — a caller that wants the ambient
    /// `CQ_FAULT_PLAN` (the `cqd` binary, chaos tests) passes
    /// [`FaultPlan::from_env`] explicitly.
    pub fn open_dir_with_faults(
        root: impl Into<PathBuf>,
        faults: FaultPlan,
    ) -> std::io::Result<Store> {
        let root = root.into();
        std::fs::create_dir_all(&root)?;
        let lock = DirLock::acquire(&root)?;
        Ok(Store { root, faults, _lock: lock })
    }

    /// The data directory.
    pub fn root(&self) -> &Path {
        &self.root
    }

    /// The injected-failure plan (empty outside fault-injection runs).
    pub fn fault_plan(&self) -> &FaultPlan {
        &self.faults
    }

    fn tenant_dir(&self, name: &str) -> Result<PathBuf, StoreError> {
        if valid_tenant_name(name) {
            Ok(self.root.join(name))
        } else {
            Err(StoreError::BadTenantName(name.to_string()))
        }
    }

    /// Path of a tenant's snapshot file (present or not).
    pub fn snapshot_path(&self, name: &str) -> Result<PathBuf, StoreError> {
        Ok(self.tenant_dir(name)?.join(SNAPSHOT_FILE))
    }

    /// Size in bytes of a tenant's snapshot, if one exists.
    pub fn snapshot_size(&self, name: &str) -> Result<Option<u64>, StoreError> {
        let path = self.snapshot_path(name)?;
        match std::fs::metadata(&path) {
            Ok(m) => Ok(Some(m.len())),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(StoreError::Io(e)),
        }
    }

    /// Read a tenant's whole snapshot file for replication shipping —
    /// `None` when the tenant has never been checkpointed. Goes
    /// through the `ship-read` fault point so an interrupted ship is
    /// drivable from tests.
    pub fn read_snapshot_bytes(&self, name: &str) -> Result<Option<Vec<u8>>, StoreError> {
        self.faults.check(FaultPoint::ShipRead).map_err(StoreError::Io)?;
        match std::fs::read(self.snapshot_path(name)?) {
            Ok(b) => Ok(Some(b)),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(None),
            Err(e) => Err(StoreError::Io(e)),
        }
    }

    /// Read `len` bytes of a tenant's WAL starting at record-byte
    /// `offset` (0 = just past the file header) for replication
    /// shipping. The caller bounds `offset + len` by the live writer's
    /// record length under its own lock, so the range is an intact
    /// prefix of whole frames. Goes through the `ship-read` fault
    /// point.
    pub fn read_wal_range(
        &self,
        name: &str,
        offset: u64,
        len: u64,
    ) -> Result<Vec<u8>, StoreError> {
        use std::io::{Read as _, Seek as _, SeekFrom};
        self.faults.check(FaultPoint::ShipRead).map_err(StoreError::Io)?;
        let path = self.tenant_dir(name)?.join(WAL_FILE);
        let inner = || -> std::io::Result<Vec<u8>> {
            let mut f = std::fs::File::open(&path)?;
            f.seek(SeekFrom::Start(wal::WAL_HEADER_LEN + offset))?;
            let mut buf = vec![0u8; usize::try_from(len).expect("ship range fits usize")];
            f.read_exact(&mut buf)?;
            Ok(buf)
        };
        inner().map_err(StoreError::Io)
    }

    /// Names of every tenant on disk, in ascending order (the boot
    /// recovery order, so recovery is deterministic).
    pub fn tenant_names(&self) -> std::io::Result<Vec<String>> {
        let mut names = Vec::new();
        for entry in std::fs::read_dir(&self.root)? {
            let entry = entry?;
            if !entry.file_type()?.is_dir() {
                continue;
            }
            if let Some(name) = entry.file_name().to_str() {
                if valid_tenant_name(name) {
                    names.push(name.to_string());
                }
            }
        }
        names.sort_unstable();
        Ok(names)
    }

    /// Create a fresh tenant: its directory and an empty WAL. Errors if
    /// the tenant already exists on disk.
    pub fn create_tenant(&self, name: &str) -> Result<WalWriter, StoreError> {
        let dir = self.tenant_dir(name)?;
        std::fs::create_dir_all(&dir)?;
        let wal_path = dir.join(WAL_FILE);
        if wal_path.exists() {
            return Err(StoreError::Io(std::io::Error::new(
                std::io::ErrorKind::AlreadyExists,
                format!("tenant `{name}` already exists in {}", self.root.display()),
            )));
        }
        let mut w = WalWriter::create(wal_path, 0)?;
        w.set_faults(self.faults.clone());
        Ok(w)
    }

    /// Open a tenant: read its snapshot (if any), replay the WAL on
    /// top, self-repair a torn tail or a stale (pre-checkpoint-crash)
    /// log, and return the recovered database with the open WAL writer
    /// positioned for further appends.
    pub fn load_tenant(
        &self,
        name: &str,
    ) -> Result<(Database, WalWriter, Recovery), StoreError> {
        let dir = self.tenant_dir(name)?;
        let snap = snapshot::read(&dir.join(SNAPSHOT_FILE))?;
        let (mut db, snap_epoch) = snap.unwrap_or_else(|| (Database::new(), 0));
        let snapshot_rows = db.size();
        let wal_path = dir.join(WAL_FILE);
        let bytes = match std::fs::read(&wal_path) {
            Ok(b) => b,
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Vec::new(),
            Err(e) => return Err(StoreError::Io(e)),
        };
        let replay = wal::replay(&bytes, &wal_path)?;
        let mut recovery = Recovery {
            snapshot_rows,
            wal_records: 0,
            torn_bytes: replay.torn_bytes,
            stale_records: 0,
            limits: None,
        };
        let mut writer = match replay.epoch {
            Some(e) if e == snap_epoch => {
                // the normal case: records continue the snapshot
                for record in &replay.records {
                    if let WalRecord::SetLimits(l) = record {
                        recovery.limits = Some(*l);
                    }
                    record.apply(&mut db).map_err(|conflict| {
                        StoreError::corrupt(
                            &wal_path,
                            &format!("replay failed: {conflict}"),
                        )
                    })?;
                }
                recovery.wal_records = replay.records.len();
                if replay.torn_bytes > 0 {
                    // self-repair: drop the torn tail so the next
                    // append starts at a record boundary
                    let f = std::fs::File::options().write(true).open(&wal_path)?;
                    f.set_len(replay.good_len)?;
                    f.sync_data()?;
                }
                WalWriter::open(wal_path, replay.good_len, snap_epoch)?
            }
            Some(e) if e < snap_epoch => {
                // checkpoint crashed between writing the epoch-E+1
                // snapshot and restamping the log: every record here
                // is already folded into the snapshot — discard them
                // rather than replay them against a schema they may
                // predate (e.g. a relation dropped and recreated at a
                // different arity)
                recovery.stale_records = replay.records.len();
                recovery.torn_bytes = 0; // the tail dies with the log
                let mut w = WalWriter::open(wal_path, replay.good_len, e)?;
                w.reset(snap_epoch)?;
                w
            }
            Some(e) => {
                return Err(StoreError::corrupt(
                    &wal_path,
                    &format!(
                        "wal expects snapshot epoch {e} but the snapshot is epoch \
                         {snap_epoch} — the snapshot file was replaced or deleted"
                    ),
                ));
            }
            None => {
                // no header: an empty/torn file from a crash during
                // tenant creation, or a pre-store directory — nothing
                // was ever logged; start a clean epoch-matched log
                let mut w = WalWriter::open_or_create(wal_path, snap_epoch)?;
                w.reset(snap_epoch)?;
                w
            }
        };
        writer.set_faults(self.faults.clone());
        Ok((db, writer, recovery))
    }

    /// Checkpoint a tenant: write an atomic snapshot of `db` at the
    /// next epoch, force it to stable storage, then reset the WAL
    /// under the new epoch (its records are now redundant). Returns
    /// the snapshot size in bytes.
    ///
    /// The caller must pass the tenant's own WAL writer and hold
    /// whatever lock serializes mutations, so no record can slip in
    /// between the snapshot and the reset. A crash between the two
    /// leaves the log's epoch behind the snapshot's; the next
    /// [`Store::load_tenant`] recognizes it as stale and discards it.
    pub fn checkpoint(
        &self,
        name: &str,
        db: &Database,
        wal: &mut WalWriter,
    ) -> Result<u64, StoreError> {
        let path = self.snapshot_path(name)?;
        let epoch = wal.epoch() + 1;
        let bytes = snapshot::write_with_faults(db, epoch, &path, &self.faults)?;
        wal.reset(epoch)?;
        Ok(bytes)
    }

    /// Remove a tenant's directory and everything in it. Removing a
    /// tenant that is not on disk is a no-op.
    pub fn drop_tenant(&self, name: &str) -> Result<(), StoreError> {
        let dir = self.tenant_dir(name)?;
        match std::fs::remove_dir_all(&dir) {
            Ok(()) => Ok(()),
            Err(e) if e.kind() == std::io::ErrorKind::NotFound => Ok(()),
            Err(e) => Err(StoreError::Io(e)),
        }
    }
}

/// Is `name` safe as a tenant directory name? Matches the wire
/// grammar's database names.
pub fn valid_tenant_name(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::wal::WalRecord;
    use cq_data::Relation;

    fn temp_store(tag: &str) -> Store {
        let dir = std::env::temp_dir()
            .join(format!("cq_store_test_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Store::open_dir(dir).unwrap()
    }

    fn cleanup(store: Store) {
        let _ = std::fs::remove_dir_all(store.root());
    }

    fn db_pairs(db: &Database) -> Vec<(String, Relation)> {
        db.iter_sorted().map(|(n, r)| (n.to_string(), r.clone())).collect()
    }

    #[test]
    fn second_open_of_a_locked_dir_is_refused_until_release() {
        let store = temp_store("lock");
        let root = store.root().to_path_buf();
        // the "second daemon": same directory while the first is live
        let err = Store::open_dir(&root).unwrap_err();
        assert_eq!(err.kind(), std::io::ErrorKind::AddrInUse);
        assert!(
            err.to_string().contains("locked by running process"),
            "error should name the owner: {err}"
        );
        assert!(root.join(LOCK_FILE).exists());
        // releasing the first store releases the lock
        drop(store);
        assert!(!root.join(LOCK_FILE).exists(), "drop removes the lock file");
        let store = Store::open_dir(&root).unwrap();
        cleanup(store);
    }

    #[test]
    fn stale_or_garbage_locks_are_reclaimed() {
        for bad in ["999999999", "not a pid"] {
            let dir = std::env::temp_dir().join(format!(
                "cq_store_test_stale_{}_{}",
                bad.len(),
                std::process::id()
            ));
            let _ = std::fs::remove_dir_all(&dir);
            std::fs::create_dir_all(&dir).unwrap();
            // a lock left by a dead process (or unreadable) is stale
            std::fs::write(dir.join(LOCK_FILE), bad).unwrap();
            let store = Store::open_dir(&dir).unwrap();
            let owner: u32 = std::fs::read_to_string(dir.join(LOCK_FILE))
                .unwrap()
                .trim()
                .parse()
                .unwrap();
            assert_eq!(owner, std::process::id(), "reclaimed lock is restamped");
            cleanup(store);
        }
    }

    #[test]
    fn lifecycle_create_mutate_checkpoint_reload_drop() {
        let store = temp_store("lifecycle");
        assert!(store.tenant_names().unwrap().is_empty());
        let mut wal = store.create_tenant("t1").unwrap();
        wal.append(&WalRecord::Insert { relation: "R".into(), row: vec![1, 2] }).unwrap();
        wal.append(&WalRecord::Load {
            relation: "R".into(),
            arity: 2,
            rows: vec![vec![5, 6], vec![1, 2]],
        })
        .unwrap();
        drop(wal);

        // reload: snapshotless tenant is pure WAL replay
        let (db, mut wal, rec) = store.load_tenant("t1").unwrap();
        assert_eq!(rec.snapshot_rows, 0);
        assert_eq!(rec.wal_records, 2);
        assert_eq!(rec.torn_bytes, 0);
        assert_eq!(db.get("R").unwrap(), &Relation::from_pairs(vec![(1, 2), (5, 6)]));

        // checkpoint, then mutate beyond it
        assert!(store.snapshot_size("t1").unwrap().is_none());
        store.checkpoint("t1", &db, &mut wal).unwrap();
        assert!(store.snapshot_size("t1").unwrap().is_some());
        assert!(wal.is_empty(), "checkpoint truncates the wal");
        wal.append(&WalRecord::DropRelation { relation: "R".into() }).unwrap();
        wal.append(&WalRecord::Insert { relation: "S".into(), row: vec![7] }).unwrap();
        drop(wal);

        // reload: snapshot plus the two post-checkpoint records
        let (db2, _wal, rec) = store.load_tenant("t1").unwrap();
        assert_eq!(rec.snapshot_rows, 2);
        assert_eq!(rec.wal_records, 2);
        assert!(db2.get("R").is_none());
        assert_eq!(db2.get("S").unwrap(), &Relation::from_values(vec![7]));

        assert_eq!(store.tenant_names().unwrap(), vec!["t1".to_string()]);
        store.drop_tenant("t1").unwrap();
        assert!(store.tenant_names().unwrap().is_empty());
        store.drop_tenant("t1").unwrap(); // idempotent
        cleanup(store);
    }

    #[test]
    fn torn_tail_is_truncated_once_and_appends_resume() {
        let store = temp_store("torn");
        let mut wal = store.create_tenant("t").unwrap();
        wal.append(&WalRecord::Insert { relation: "R".into(), row: vec![1] }).unwrap();
        wal.append(&WalRecord::Insert { relation: "R".into(), row: vec![2] }).unwrap();
        let wal_path = wal.path().to_path_buf();
        drop(wal);
        // tear the tail: a half-written third record
        let mut bytes = std::fs::read(&wal_path).unwrap();
        let intact = bytes.len() as u64;
        let partial = WalRecord::Insert { relation: "R".into(), row: vec![3] }.to_frame();
        bytes.extend_from_slice(&partial[..partial.len() - 5]);
        std::fs::write(&wal_path, &bytes).unwrap();

        let (db, mut wal, rec) = store.load_tenant("t").unwrap();
        assert_eq!(rec.wal_records, 2, "only intact records replay");
        assert_eq!(rec.torn_bytes, partial.len() as u64 - 5);
        assert_eq!(std::fs::metadata(&wal_path).unwrap().len(), intact, "tail cut");
        assert_eq!(db.get("R").unwrap(), &Relation::from_values(vec![1, 2]));
        // the next append lands on the repaired boundary
        wal.append(&WalRecord::Insert { relation: "R".into(), row: vec![9] }).unwrap();
        drop(wal);
        let (db, _, rec) = store.load_tenant("t").unwrap();
        assert_eq!(rec.torn_bytes, 0);
        assert_eq!(db.get("R").unwrap(), &Relation::from_values(vec![1, 2, 9]));
        cleanup(store);
    }

    #[test]
    fn crash_between_snapshot_and_wal_reset_discards_the_stale_log() {
        let store = temp_store("stale");
        let mut wal = store.create_tenant("t").unwrap();
        wal.append(&WalRecord::Insert { relation: "R".into(), row: vec![1, 2] }).unwrap();
        let (db, _ignored, _) = store.load_tenant("t").unwrap();
        // snapshot written at the next epoch but wal NOT reset = the
        // crash window inside `checkpoint`
        snapshot::write(&db, wal.epoch() + 1, &store.snapshot_path("t").unwrap())
            .unwrap();
        drop(wal);
        let (db2, wal2, rec) = store.load_tenant("t").unwrap();
        assert_eq!(rec.snapshot_rows, 1);
        assert_eq!(rec.wal_records, 0, "stale records are not replayed");
        assert_eq!(rec.stale_records, 1, "...they are reported as discarded");
        assert_eq!(db_pairs(&db), db_pairs(&db2), "and the snapshot already has them");
        assert_eq!(wal2.epoch(), 1, "the log is restamped to the snapshot's epoch");
        assert!(wal2.is_empty());
        cleanup(store);
    }

    #[test]
    fn checkpoint_crash_window_survives_drop_and_recreate_at_new_arity() {
        // the sharp corner of stale replay: the log holds records for a
        // relation that was dropped and recreated at a different arity
        // before the checkpoint — naively replaying them over the new
        // snapshot is an arity conflict and would refuse the boot
        let store = temp_store("rearity");
        let mut wal = store.create_tenant("t").unwrap();
        let mut db = Database::new();
        for rec in [
            WalRecord::Insert { relation: "R".into(), row: vec![1, 2] },
            WalRecord::DropRelation { relation: "R".into() },
            WalRecord::Insert { relation: "R".into(), row: vec![5] },
        ] {
            rec.apply(&mut db).unwrap();
            wal.append(&rec).unwrap();
        }
        // crash window: epoch-1 snapshot on disk, wal still epoch 0
        snapshot::write(&db, wal.epoch() + 1, &store.snapshot_path("t").unwrap())
            .unwrap();
        drop(wal);
        let (db2, _, rec) = store.load_tenant("t").unwrap();
        assert_eq!(rec.stale_records, 3);
        assert_eq!(db_pairs(&db), db_pairs(&db2));
        assert_eq!(db2.get("R").unwrap(), &Relation::from_values(vec![5]));
        cleanup(store);
    }

    #[test]
    fn corrupt_snapshot_is_a_hard_error() {
        let store = temp_store("corrupt");
        let mut wal = store.create_tenant("t").unwrap();
        wal.append(&WalRecord::Insert { relation: "R".into(), row: vec![1] }).unwrap();
        let (db, _, _) = store.load_tenant("t").unwrap();
        let path = store.snapshot_path("t").unwrap();
        snapshot::write(&db, 0, &path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        let mid = bytes.len() / 2;
        bytes[mid] ^= 0xFF;
        std::fs::write(&path, &bytes).unwrap();
        match store.load_tenant("t") {
            Err(StoreError::Corrupt(msg)) => assert!(msg.contains("snapshot"), "{msg}"),
            other => panic!("wanted Corrupt, got {other:?}"),
        }
        cleanup(store);
    }

    fn temp_store_with_faults(tag: &str, faults: FaultPlan) -> Store {
        let dir = std::env::temp_dir()
            .join(format!("cq_store_test_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Store::open_dir_with_faults(dir, faults).unwrap()
    }

    #[test]
    fn injected_append_failure_rolls_back_and_appends_resume() {
        use crate::fault::FaultPoint;
        let store = temp_store_with_faults(
            "fault_append",
            FaultPlan::failing(FaultPoint::WalAppend, 2),
        );
        let mut wal = store.create_tenant("t").unwrap();
        let r1 = WalRecord::Insert { relation: "R".into(), row: vec![1] };
        let r2 = WalRecord::Insert { relation: "R".into(), row: vec![2] };
        let r3 = WalRecord::Insert { relation: "R".into(), row: vec![3] };
        wal.append(&r1).unwrap();
        let err = wal.append(&r2).unwrap_err();
        assert!(err.to_string().contains("injected fault at wal-append"), "{err}");
        assert!(!wal.is_poisoned(), "a rolled-back append does not poison");
        wal.append(&r3).unwrap();
        drop(wal);
        let (db, _, rec) = store.load_tenant("t").unwrap();
        assert_eq!(rec.wal_records, 2);
        assert_eq!(rec.torn_bytes, 0, "the failed append left no partial frame");
        assert_eq!(db.get("R").unwrap(), &Relation::from_values(vec![1, 3]));
        assert_eq!(store.fault_plan().injected(), 1);
        cleanup(store);
    }

    #[test]
    fn short_write_with_failed_rollback_poisons_and_recovery_truncates() {
        use crate::fault::FaultPoint;
        let store = temp_store_with_faults(
            "fault_torn",
            FaultPlan::new([
                (FaultPoint::WalShortWrite, 2, 1),
                (FaultPoint::WalRollback, 1, 1),
            ]),
        );
        let mut wal = store.create_tenant("t").unwrap();
        wal.append(&WalRecord::Insert { relation: "R".into(), row: vec![1] }).unwrap();
        let err = wal
            .append(&WalRecord::Insert { relation: "R".into(), row: vec![2] })
            .unwrap_err();
        assert!(err.to_string().contains("wal-short-write"), "{err}");
        assert!(wal.is_poisoned(), "failed rollback must poison the writer");
        // a poisoned writer refuses to acknowledge further mutations
        let err = wal
            .append(&WalRecord::Insert { relation: "R".into(), row: vec![3] })
            .unwrap_err();
        assert!(err.to_string().contains("poisoned"), "{err}");
        let wal_path = wal.path().to_path_buf();
        drop(wal);
        // the partial frame really is on disk (the rollback "failed")
        let replayed =
            wal::replay(&std::fs::read(&wal_path).unwrap(), &wal_path).unwrap();
        assert!(replayed.torn_bytes > 0, "half a frame should be on disk");
        // recovery truncates the torn frame; only the acknowledged row survives
        let (db, wal2, rec) = store.load_tenant("t").unwrap();
        assert_eq!(rec.wal_records, 1);
        assert!(rec.torn_bytes > 0);
        assert!(!wal2.is_poisoned(), "a reopened writer starts clean");
        assert_eq!(db.get("R").unwrap(), &Relation::from_values(vec![1]));
        cleanup(store);
    }

    #[test]
    fn injected_snapshot_failures_leave_the_previous_checkpoint_intact() {
        use crate::fault::FaultPoint;
        for point in
            [FaultPoint::SnapCreate, FaultPoint::SnapWrite, FaultPoint::SnapRename]
        {
            let store = temp_store_with_faults(
                &format!("fault_{point}"),
                FaultPlan::failing(point, 1),
            );
            let mut wal = store.create_tenant("t").unwrap();
            wal.append(&WalRecord::Insert { relation: "R".into(), row: vec![1] })
                .unwrap();
            let (db, _, _) = store.load_tenant("t").unwrap();
            let err = store.checkpoint("t", &db, &mut wal).unwrap_err();
            assert!(err.to_string().contains("injected fault"), "{err}");
            assert!(!wal.is_poisoned(), "a failed snapshot leaves the wal usable");
            assert!(!wal.is_empty(), "the wal still holds the records");
            assert!(store.snapshot_size("t").unwrap().is_none(), "no snapshot landed");
            let tmp = store.snapshot_path("t").unwrap().with_extension("tmp");
            assert!(!tmp.exists(), "no stray temp file");
            // the tenant is fully recoverable from the intact wal
            drop(wal);
            let (db2, _, rec) = store.load_tenant("t").unwrap();
            assert_eq!(rec.wal_records, 1);
            assert_eq!(db_pairs(&db), db_pairs(&db2));
            cleanup(store);
        }
    }

    #[test]
    fn failed_wal_reset_after_snapshot_poisons_but_recovery_converges() {
        use crate::fault::FaultPoint;
        let store = temp_store_with_faults(
            "fault_reset",
            FaultPlan::failing(FaultPoint::WalReset, 1),
        );
        let mut wal = store.create_tenant("t").unwrap();
        wal.append(&WalRecord::Insert { relation: "R".into(), row: vec![1] }).unwrap();
        let (db, _, _) = store.load_tenant("t").unwrap();
        // the snapshot lands, then the wal reset fails: the log's epoch
        // now trails the snapshot's
        let err = store.checkpoint("t", &db, &mut wal).unwrap_err();
        assert!(err.to_string().contains("wal-reset"), "{err}");
        assert!(store.snapshot_size("t").unwrap().is_some());
        assert!(
            wal.is_poisoned(),
            "appends to a stale-epoch log would be discarded on boot, so the \
             writer must refuse them"
        );
        drop(wal);
        let (db2, wal2, rec) = store.load_tenant("t").unwrap();
        assert_eq!(rec.stale_records, 1, "the old log is recognized as folded in");
        assert_eq!(db_pairs(&db), db_pairs(&db2), "nothing acknowledged is lost");
        assert_eq!(wal2.epoch(), 1);
        cleanup(store);
    }

    #[test]
    fn limits_records_survive_recovery_and_report_the_last_one() {
        let store = temp_store("limits");
        let mut wal = store.create_tenant("t").unwrap();
        wal.append(&WalRecord::Insert { relation: "R".into(), row: vec![1] }).unwrap();
        let first =
            TenantLimits { max_exponent_bits: 2.0f64.to_bits(), ..Default::default() };
        let second = TenantLimits {
            max_exponent_bits: 1.5f64.to_bits(),
            max_rows: 100,
            timeout_ms: 250,
        };
        wal.append(&WalRecord::SetLimits(first)).unwrap();
        wal.append(&WalRecord::SetLimits(second)).unwrap();
        drop(wal);
        let (db, _, rec) = store.load_tenant("t").unwrap();
        assert_eq!(rec.wal_records, 3, "limits records count as records");
        assert_eq!(rec.limits, Some(second), "the last limits record wins");
        assert_eq!(db.get("R").unwrap(), &Relation::from_values(vec![1]));
        assert!(second.is_set());
        assert!(!TenantLimits::default().is_set());
        cleanup(store);
    }

    #[test]
    fn tenant_names_are_validated_and_listed_sorted() {
        let store = temp_store("names");
        store.create_tenant("beta").unwrap();
        store.create_tenant("alpha").unwrap();
        assert!(matches!(
            store.create_tenant("../evil"),
            Err(StoreError::BadTenantName(_))
        ));
        assert!(matches!(store.load_tenant(""), Err(StoreError::BadTenantName(_))));
        // stray non-tenant entries are ignored
        std::fs::write(store.root().join("README"), "not a tenant").unwrap();
        assert_eq!(store.tenant_names().unwrap(), vec!["alpha", "beta"]);
        assert!(matches!(store.create_tenant("alpha"), Err(StoreError::Io(_))));
        cleanup(store);
    }
}
