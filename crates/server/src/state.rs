//! Multi-tenant server state: named databases with pinned catalogs,
//! optionally backed by durable storage.
//!
//! Tenancy model: one [`Database`] plus one [`IndexCatalog`] per named
//! tenant. The catalog is *pinned* to the tenant for the tenant's whole
//! life and handed to each of its evaluations, so a tenant's working set
//! of sorted views and preprocessing artifacts can never be evicted by
//! traffic on other tenants — and survives the tenant's own writes: catalog entries
//! validate against the versions of the relations they read
//! ([`Database::version_of`]), so a mutation costs the entries built
//! from the written relation and nothing else. Those are swept under
//! the write lock the mutation already holds, so the memory of the old
//! state is dropped eagerly and never sits beside its rebuild.
//!
//! Persistence: a registry opened over a [`Store`]
//! ([`ServerState::recover`]) reloads every tenant on boot (snapshot +
//! WAL replay) and each tenant carries its open [`WalWriter`] inside
//! the same slot as its database, so a mutation and its WAL append
//! commute with nothing — both happen under the tenant's write lock,
//! in order. Catalogs and statement memos are *not* persisted; they are
//! memos over the data and rebuild warm on demand after recovery.
//!
//! Locking: the tenant map is under one [`RwLock`] (resolved per
//! command, never held across evaluation); each tenant holds its
//! database, catalog, and WAL under a second [`RwLock`] so any number
//! of sessions evaluate concurrently against one tenant while
//! mutations (`INSERT`, `LOAD`, `DROP`) get exclusive access. All lock
//! acquisitions are poison-tolerant: a panicked handler cannot take a
//! tenant down. A dropped tenant (`DROP DB`) is removed from the map
//! and flagged, so sessions still holding it get a structured error
//! instead of mutating a ghost.

use crate::metrics::{ServerMetrics, TenantMetrics};
use cq_data::{CatalogStats, Database, IndexCatalog};
use cq_storage::{
    Applied, ArityConflict, GroupGate, Store, StoreError, TenantLimits, WalRecord,
    WalStats, WalWriter,
};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex, RwLock, RwLockReadGuard, RwLockWriteGuard};
use std::time::Duration;

/// Why a tenant operation was refused.
#[derive(Clone, PartialEq, Eq, Debug)]
pub enum StateError {
    /// `CREATE DB` of a name that is already a tenant.
    Exists,
    /// Lookup of a name that is not a tenant.
    NoSuchDb,
    /// Durable storage failed; the message says what broke (and what
    /// state the registry was left in).
    Storage(String),
}

/// One tenant: a named database with its pinned index catalog and,
/// when the server is persistent, its open write-ahead log.
#[derive(Debug)]
pub struct Tenant {
    name: String,
    /// Set by `DROP DB`: the tenant is out of the registry, and
    /// sessions still holding an `Arc` must refuse further commands.
    dropped: AtomicBool,
    /// Admission-control cap on a plan's cost exponent, stored as
    /// `f64` bits; [`TenantLimits::UNSET`] (a NaN pattern no real cap
    /// can produce) means "no cap". Atomics: the limits are read
    /// without a lock on every query, and written only under the
    /// tenant's write lock ([`Tenant::set_limits`]).
    budget_exponent: AtomicU64,
    /// Admission-control cap on a plan's estimated operation count
    /// (`CostEstimate::operations`, the AGM-style worst case);
    /// [`TenantLimits::UNSET`] means "no cap".
    budget_rows: AtomicU64,
    /// Per-query evaluation deadline in milliseconds (`SET TIMEOUT`);
    /// [`TenantLimits::UNSET`] means "no deadline".
    timeout_ms: AtomicU64,
    /// `Some(reason)` after an unrecoverable storage failure: the
    /// tenant is read-only (mutations and `SAVE` refuse) until a
    /// `RESUME` checkpoint rolls a fresh WAL segment.
    degraded: Mutex<Option<String>>,
    /// Group-commit gate: coalesces concurrent committers' fsyncs when
    /// the server's [`WritePolicy`] asks for durable acks.
    group: GroupGate,
    /// The tenant's own metrics scope, handles and `PROFILE` ring:
    /// whoever holds the tenant records through it.
    metrics: TenantMetrics,
    slot: RwLock<TenantDb>,
}

/// Server-wide write-path policy, set once at boot (before serving).
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct WritePolicy {
    /// `Some(window)`: every mutation ack waits for an fsync covering
    /// its WAL append, coalesced across committers by a per-tenant
    /// [`GroupGate`] whose leader waits `window` before flushing
    /// (`cqd --group-commit-ms`). `None`: appends reach the OS page
    /// cache per record and stable storage at checkpoints only — the
    /// pre-group-commit behavior.
    pub group_commit: Option<Duration>,
    /// Checkpoint a tenant automatically once its WAL exceeds this
    /// many record bytes (`cqd --auto-save-bytes`), instead of waiting
    /// for an explicit `SAVE`.
    pub auto_save_bytes: Option<u64>,
}

/// A tenant's admission-control budget, read per query at plan time:
/// the planner's [`cq_planner::EvalBudget`], whose `violation` judges a
/// plan and words the refusal.
pub use cq_planner::EvalBudget as Budget;

#[derive(Debug)]
struct TenantDb {
    db: Database,
    catalog: IndexCatalog,
    /// `Some` iff the server runs with a data directory.
    wal: Option<WalWriter>,
}

impl TenantDb {
    /// Append `record` to the log: its sequence number, for the group
    /// commit to cover, or `None` on an in-memory tenant.
    fn append(&mut self, record: &WalRecord) -> std::io::Result<Option<u64>> {
        match &mut self.wal {
            Some(wal) => wal.append(record).map(|_| Some(wal.stats().appends)),
            None => Ok(None),
        }
    }

    /// Run `f` on the database; if it mutated (the generation moved),
    /// sweep the catalog entries built from what it wrote.
    fn edit<T>(&mut self, f: impl FnOnce(&mut Database) -> T) -> T {
        let before = self.db.generation();
        let out = f(&mut self.db);
        if self.db.generation() != before {
            self.catalog.sweep(&self.db);
        }
        out
    }
}

impl Tenant {
    fn new(
        name: &str,
        db: Database,
        wal: Option<WalWriter>,
        obs: &ServerMetrics,
    ) -> Self {
        Tenant {
            name: name.to_string(),
            dropped: AtomicBool::new(false),
            budget_exponent: AtomicU64::new(TenantLimits::UNSET),
            budget_rows: AtomicU64::new(TenantLimits::UNSET),
            timeout_ms: AtomicU64::new(TenantLimits::UNSET),
            degraded: Mutex::new(None),
            group: GroupGate::new(),
            metrics: obs.register_tenant(name),
            slot: RwLock::new(TenantDb { db, catalog: IndexCatalog::new(), wal }),
        }
    }

    /// The tenant's name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The tenant's metrics: its `db.<name>` scope and the handles every
    /// command, cursor and stream of the tenant records through.
    pub fn metrics(&self) -> &TenantMetrics {
        &self.metrics
    }

    /// The current admission-control budget.
    pub fn budget(&self) -> Budget {
        let exp = self.budget_exponent.load(Ordering::Relaxed);
        let rows = self.budget_rows.load(Ordering::Relaxed);
        Budget {
            max_exponent: (exp != TenantLimits::UNSET).then(|| f64::from_bits(exp)),
            max_rows: (rows != TenantLimits::UNSET).then_some(rows),
        }
    }

    /// The per-query evaluation deadline, if one is set.
    pub fn timeout(&self) -> Option<Duration> {
        let ms = self.timeout_ms.load(Ordering::Relaxed);
        (ms != TenantLimits::UNSET).then(|| Duration::from_millis(ms))
    }

    /// The tenant's limits in the WAL's persisted form.
    pub fn limits(&self) -> TenantLimits {
        TenantLimits {
            max_exponent_bits: self.budget_exponent.load(Ordering::Relaxed),
            max_rows: self.budget_rows.load(Ordering::Relaxed),
            timeout_ms: self.timeout_ms.load(Ordering::Relaxed),
        }
    }

    /// Change the limits by `edit` and log the set it makes (`SET
    /// BUDGET`, `SET TIMEOUT`): read, edit, store and append are one
    /// step under the write lock, so the log's last `SetLimits` record
    /// is always the live set, however sessions interleave. Acked as
    /// [`Tenant::apply_logged`] acks a mutation.
    pub fn set_limits(
        &self,
        window: Option<Duration>,
        edit: impl FnOnce(&mut TenantLimits),
    ) -> std::io::Result<()> {
        let appended = {
            let mut slot = self.write_slot();
            let mut limits = self.limits();
            edit(&mut limits);
            self.apply_limits(limits);
            slot.append(&WalRecord::SetLimits(limits))
        };
        self.commit(appended, window)
    }

    /// Store limits without logging them: recovered from the WAL (the
    /// boot path), shipped to a replica, or under
    /// [`Tenant::set_limits`]' lock.
    pub fn apply_limits(&self, l: TenantLimits) {
        self.budget_exponent.store(l.max_exponent_bits, Ordering::Relaxed);
        self.budget_rows.store(l.max_rows, Ordering::Relaxed);
        self.timeout_ms.store(l.timeout_ms, Ordering::Relaxed);
    }

    /// Why this tenant is read-only, if it is.
    pub fn degraded_reason(&self) -> Option<String> {
        self.degraded.lock().unwrap_or_else(|p| p.into_inner()).clone()
    }

    /// Is this tenant in read-only degraded mode?
    pub fn is_degraded(&self) -> bool {
        self.degraded_reason().is_some()
    }

    /// Enter read-only mode (first reason wins; a tenant already
    /// degraded keeps its original diagnosis).
    pub fn set_degraded(&self, reason: &str) {
        let mut slot = self.degraded.lock().unwrap_or_else(|p| p.into_inner());
        if slot.is_none() {
            *slot = Some(reason.to_string());
        }
    }

    /// Leave read-only mode (the `RESUME` success path).
    pub fn clear_degraded(&self) {
        *self.degraded.lock().unwrap_or_else(|p| p.into_inner()) = None;
    }

    /// Is the tenant's WAL writer poisoned (a failed rollback or reset
    /// left the on-disk log untrustworthy)? `None` on an in-memory
    /// tenant.
    pub fn wal_poisoned(&self) -> Option<bool> {
        self.read_slot().wal.as_ref().map(WalWriter::is_poisoned)
    }

    /// Has this tenant been `DROP DB`ed out of the registry?
    pub fn is_dropped(&self) -> bool {
        self.dropped.load(Ordering::SeqCst)
    }

    fn read_slot(&self) -> RwLockReadGuard<'_, TenantDb> {
        self.slot.read().unwrap_or_else(|p| p.into_inner())
    }

    fn write_slot(&self) -> RwLockWriteGuard<'_, TenantDb> {
        self.slot.write().unwrap_or_else(|p| p.into_inner())
    }

    /// Run `f` with shared access to the database and its pinned
    /// catalog. Many readers evaluate concurrently; mutations wait.
    pub fn read<T>(&self, f: impl FnOnce(&Database, &IndexCatalog) -> T) -> T {
        let slot = self.read_slot();
        f(&slot.db, &slot.catalog)
    }

    /// Run `f` with exclusive access to the database, unlogged — the
    /// replica's apply path (its history is the primary's log) and test
    /// setup. If `f` mutates the database (the generation changes), the
    /// catalog entries built from the relations it wrote are dropped
    /// immediately; everything else stays warm.
    pub fn mutate<T>(&self, f: impl FnOnce(&mut Database) -> T) -> T {
        self.write_slot().edit(f)
    }

    /// The one logged write: apply `record` through
    /// [`WalRecord::apply`] — the function recovery and the replica
    /// replay with, so live ≡ replay by construction — and append it to
    /// the log iff it changed the database, under the same write lock,
    /// so the log's order *is* the database's mutation order. (Limits
    /// are logged by [`Tenant::set_limits`].) On an in-memory tenant
    /// nothing is logged.
    ///
    /// The second return is the WAL outcome: on an append error the
    /// in-memory mutation stands (readers already may have seen it)
    /// but durability is broken, and the caller must surface that.
    /// When `window` is `Some` (group commit), `Ok` additionally covers
    /// an fsync of the append — coalesced across concurrent committers
    /// through the tenant's [`GroupGate`], whose leader waits `window`
    /// before flushing — so it means *on stable storage*, not merely in
    /// the OS page cache; a failed group sync is reported to every
    /// committer it covered, so no ack can be false.
    ///
    /// The append sequence is captured under the same write lock that
    /// applied the mutation ([`WalStats::appends`] only moves under
    /// that lock), and the gate is waited on *after* the lock is
    /// released so readers and the sync leader are never blocked by a
    /// committer parked at the gate.
    pub fn apply_logged<'r>(
        &self,
        window: Option<Duration>,
        record: &'r WalRecord,
    ) -> (Result<Applied, ArityConflict<'r>>, std::io::Result<()>) {
        let (outcome, appended) = {
            let mut slot = self.write_slot();
            let outcome = slot.edit(|db| record.apply(db));
            let appended = match outcome {
                Ok(Applied::Changed(_)) => slot.append(record),
                _ => Ok(None),
            };
            (outcome, appended)
        };
        (outcome, self.commit(appended, window))
    }

    /// The ack of an append made under the write lock, waited for after
    /// it is released: with `window` (group commit), `Ok` once an fsync
    /// covers append number `seq`.
    fn commit(
        &self,
        appended: std::io::Result<Option<u64>>,
        window: Option<Duration>,
    ) -> std::io::Result<()> {
        match (appended, window) {
            (Ok(Some(seq)), Some(window)) => self.group.commit(seq, window, || {
                let mut slot = self.write_slot();
                match slot.wal.as_mut() {
                    Some(wal) => (wal.stats().appends, wal.sync()),
                    // WAL vanished mid-commit (not reachable today: a
                    // tenant never loses its writer) — nothing to sync,
                    // nothing to fail
                    None => (seq, Ok(())),
                }
            }),
            (appended, _) => appended.map(|_| ()),
        }
    }

    /// Checkpoint this tenant into `store`: atomic snapshot of the
    /// current database, then WAL truncation, all under the write lock
    /// so no mutation lands between the two. Returns
    /// `(rows snapshotted, snapshot bytes)`.
    ///
    /// # Panics
    /// If the tenant has no WAL (callers only route `SAVE` here on a
    /// persistent server).
    pub fn checkpoint(&self, store: &Store) -> Result<(usize, u64), StoreError> {
        let mut slot = self.write_slot();
        let limits = self.limits();
        let TenantDb { db, wal, .. } = &mut *slot;
        let wal = wal.as_mut().expect("checkpoint requires a persistent tenant");
        let bytes = store.checkpoint(&self.name, db, wal)?;
        // limits are not part of the snapshot image: re-append them as
        // the first record of the fresh log so they survive truncation
        if limits.is_set() {
            wal.append(&WalRecord::SetLimits(limits)).map_err(StoreError::Io)?;
        }
        Ok((db.size(), bytes))
    }

    /// The tenant's shippable position: `(wal epoch, wal record bytes
    /// since the last checkpoint)` — what a replica syncs to, and the
    /// auto-checkpoint threshold's input. `None` on an in-memory tenant.
    pub fn wal_position(&self) -> Option<(u64, u64)> {
        let slot = self.read_slot();
        slot.wal.as_ref().map(|w| (w.epoch(), w.len()))
    }

    /// The next replication segment for a replica that has applied
    /// through `(epoch, offset)`: WAL record bytes (at most `max` of
    /// them) when the replica's epoch matches the live log, the whole
    /// snapshot otherwise. Bytes are read under the tenant's read lock,
    /// which excludes writers and checkpoints — a segment is always a
    /// consistent cut of one epoch.
    ///
    /// # Panics
    /// If the tenant has no WAL (callers only route `SHIP` here on a
    /// persistent server).
    pub fn ship(
        &self,
        store: &Store,
        epoch: u64,
        offset: u64,
        max: u64,
    ) -> Result<ShipSegment, StoreError> {
        let slot = self.read_slot();
        let wal = slot.wal.as_ref().expect("SHIP requires a persistent tenant");
        let cur_epoch = wal.epoch();
        let len = wal.len();
        if epoch == cur_epoch && offset <= len {
            let take = (len - offset).min(max);
            let bytes = store.read_wal_range(&self.name, offset, take)?;
            Ok(ShipSegment::Wal { epoch: cur_epoch, offset, total: len, bytes })
        } else {
            // the replica's log position is from another epoch (a
            // checkpoint rolled the log since) — restart it from the
            // snapshot image; no snapshot file means "empty database"
            let bytes = store.read_snapshot_bytes(&self.name)?.unwrap_or_default();
            Ok(ShipSegment::Snapshot { epoch: cur_epoch, bytes })
        }
    }

    /// `(n_relations, n_tuples)` of the current state.
    pub fn sizes(&self) -> (usize, usize) {
        let slot = self.read_slot();
        (slot.db.n_relations(), slot.db.size())
    }

    /// Point-in-time catalog counters and WAL write counters (`None`
    /// on an in-memory tenant) — the pull side of `METRICS`.
    pub fn read_meta(&self) -> (CatalogStats, Option<WalStats>) {
        let slot = self.read_slot();
        (slot.catalog.snapshot(), slot.wal.as_ref().map(WalWriter::stats))
    }

    /// The `STATS <name>` detail: generation, per-relation schema in
    /// name order, and the WAL length (`None` on an in-memory server).
    pub fn detail(&self) -> TenantDetail {
        let slot = self.read_slot();
        TenantDetail {
            generation: slot.db.generation(),
            n_relations: slot.db.n_relations(),
            n_tuples: slot.db.size(),
            relations: slot
                .db
                .iter_sorted()
                .map(|(n, r)| (n.to_string(), r.arity(), r.len()))
                .collect(),
            wal_bytes: slot.wal.as_ref().map(WalWriter::len),
            wal_poisoned: slot.wal.as_ref().map(WalWriter::is_poisoned),
            degraded: self.degraded_reason(),
        }
    }
}

/// One replication segment, as [`Tenant::ship`] cuts it.
#[derive(Debug)]
pub enum ShipSegment {
    /// WAL record bytes `[offset, offset + bytes.len())` of epoch
    /// `epoch`'s log, whose record region is `total` bytes long right
    /// now — the replica's lag is `total - offset - bytes.len()`.
    Wal {
        /// The live log's epoch.
        epoch: u64,
        /// Where in the record region these bytes start.
        offset: u64,
        /// The record region's current total length.
        total: u64,
        /// The raw record bytes (may end mid-frame; the replica
        /// buffers and decodes complete frames only).
        bytes: Vec<u8>,
    },
    /// The whole snapshot image for epoch `epoch`; empty bytes mean
    /// "no snapshot — start from an empty database". The replica
    /// restarts its WAL offset at 0 after applying.
    Snapshot {
        /// The epoch the replica adopts (the live log's epoch; the
        /// snapshot was written at the checkpoint that opened it).
        epoch: u64,
        /// The serialized snapshot (`cq_storage::snapshot` format).
        bytes: Vec<u8>,
    },
}

/// A point-in-time description of one tenant, for `STATS <name>`.
#[derive(Debug)]
pub struct TenantDetail {
    /// The database's content-identity stamp (process-unique per
    /// mutation): two `STATS` readings with equal generation saw the
    /// exact same content, and a changed generation proves a mutation
    /// landed — recovery verification without querying data.
    pub generation: u64,
    /// Relation count.
    pub n_relations: usize,
    /// Total tuples (the paper's `m`).
    pub n_tuples: usize,
    /// `(name, arity, rows)` in name order.
    pub relations: Vec<(String, usize, usize)>,
    /// Bytes in the write-ahead log since the last checkpoint;
    /// `None` on an in-memory server.
    pub wal_bytes: Option<u64>,
    /// Is the WAL writer poisoned (untrustworthy after a failed
    /// rollback/reset)? `None` on an in-memory server.
    pub wal_poisoned: Option<bool>,
    /// Why the tenant is read-only, when it is degraded.
    pub degraded: Option<String>,
}

/// What boot-time recovery found for one tenant, for `cqd` to print.
#[derive(Debug)]
pub struct RecoveredTenant {
    /// Tenant name.
    pub name: String,
    /// Relations after recovery.
    pub n_relations: usize,
    /// Tuples after recovery.
    pub n_tuples: usize,
    /// Rows restored from the snapshot.
    pub snapshot_rows: usize,
    /// WAL records replayed on top.
    pub wal_records: usize,
    /// Torn WAL tail bytes truncated (0 for a clean shutdown).
    pub torn_bytes: u64,
    /// WAL records discarded as stale (a crash landed between a
    /// checkpoint's snapshot and its log reset; the snapshot already
    /// holds their effects).
    pub stale_records: usize,
}

/// The registry of tenants, shared by all sessions of one server.
pub struct ServerState {
    tenants: RwLock<BTreeMap<String, Arc<Tenant>>>,
    /// `Some` iff the server runs with a data directory.
    store: Option<Arc<Store>>,
    /// Process-wide metrics registry and slow-query log.
    metrics: ServerMetrics,
    /// Group-commit and auto-checkpoint knobs; set at boot, read per
    /// mutation.
    policy: RwLock<WritePolicy>,
    /// `Some(primary address)` when this server is a read-only replica
    /// (`cqd --replica-of`): every mutation verb refuses, naming where
    /// writes should go instead.
    replica_of: RwLock<Option<String>>,
}

impl Default for ServerState {
    fn default() -> Self {
        Self::new()
    }
}

impl ServerState {
    /// An empty in-memory registry (no durability).
    pub fn new() -> ServerState {
        ServerState::over(BTreeMap::new(), None, ServerMetrics::new())
    }

    fn over(
        tenants: BTreeMap<String, Arc<Tenant>>,
        store: Option<Arc<Store>>,
        metrics: ServerMetrics,
    ) -> ServerState {
        ServerState {
            tenants: RwLock::new(tenants),
            store,
            metrics,
            policy: RwLock::default(),
            replica_of: RwLock::default(),
        }
    }

    /// A registry over a data directory: every tenant on disk is
    /// recovered (snapshot + WAL replay, torn tails truncated), in
    /// name order, before the server takes traffic. Returns the
    /// per-tenant recovery summaries alongside the state.
    pub fn recover(
        store: Store,
    ) -> Result<(ServerState, Vec<RecoveredTenant>), StoreError> {
        let store = Arc::new(store);
        let metrics = ServerMetrics::new();
        let mut tenants = BTreeMap::new();
        let mut report = Vec::new();
        for name in store.tenant_names()? {
            let (db, wal, recovery) = store.load_tenant(&name)?;
            report.push(RecoveredTenant {
                name: name.clone(),
                n_relations: db.n_relations(),
                n_tuples: db.size(),
                snapshot_rows: recovery.snapshot_rows,
                wal_records: recovery.wal_records,
                torn_bytes: recovery.torn_bytes,
                stale_records: recovery.stale_records,
            });
            let tenant = Arc::new(Tenant::new(&name, db, Some(wal), &metrics));
            // persisted `SET BUDGET` / `SET TIMEOUT` limits survive
            // the restart
            if let Some(limits) = recovery.limits {
                tenant.apply_limits(limits);
            }
            tenants.insert(name.clone(), tenant);
        }
        Ok((ServerState::over(tenants, Some(store), metrics), report))
    }

    /// The backing store, when the server is persistent.
    pub fn store(&self) -> Option<&Arc<Store>> {
        self.store.as_ref()
    }

    /// The server's metrics registry and slow-query log.
    pub fn metrics(&self) -> &ServerMetrics {
        &self.metrics
    }

    /// The write-path policy every session applies to mutations.
    pub fn write_policy(&self) -> WritePolicy {
        *self.policy.read().unwrap_or_else(|p| p.into_inner())
    }

    /// Install the write-path policy (boot-time configuration: `cqd`
    /// flags, or a test setting up a scenario before serving).
    pub fn set_write_policy(&self, policy: WritePolicy) {
        *self.policy.write().unwrap_or_else(|p| p.into_inner()) = policy;
    }

    /// `Some(primary address)` when this server is a read-only replica.
    pub fn replica_of(&self) -> Option<String> {
        self.replica_of.read().unwrap_or_else(|p| p.into_inner()).clone()
    }

    /// Mark this server as a read-only replica of `primary` (the
    /// `--replica-of` boot path). Mutation verbs then answer
    /// `ERR read-only` naming the primary.
    pub fn set_replica_of(&self, primary: &str) {
        *self.replica_of.write().unwrap_or_else(|p| p.into_inner()) =
            Some(primary.to_string());
    }

    fn map(&self) -> RwLockReadGuard<'_, BTreeMap<String, Arc<Tenant>>> {
        self.tenants.read().unwrap_or_else(|p| p.into_inner())
    }

    /// Create a tenant. Names are validated by the protocol layer. On
    /// a persistent server this also creates the tenant's directory
    /// and empty WAL — a tenant exists durably from `CREATE DB`, not
    /// from its first mutation.
    pub fn create_db(&self, name: &str) -> Result<Arc<Tenant>, StateError> {
        let mut map = self.tenants.write().unwrap_or_else(|p| p.into_inner());
        if map.contains_key(name) {
            return Err(StateError::Exists);
        }
        let wal = match &self.store {
            Some(store) => Some(
                store
                    .create_tenant(name)
                    .map_err(|e| StateError::Storage(e.to_string()))?,
            ),
            None => None,
        };
        let t = Arc::new(Tenant::new(name, Database::new(), wal, &self.metrics));
        map.insert(name.to_string(), Arc::clone(&t));
        Ok(t)
    }

    /// Drop a tenant: remove it from the registry, flag it so sessions
    /// still holding it refuse further commands, and (when persistent)
    /// delete its directory. In-flight evaluations on other sessions
    /// finish safely on their `Arc`.
    pub fn drop_db(&self, name: &str) -> Result<(), StateError> {
        let mut map = self.tenants.write().unwrap_or_else(|p| p.into_inner());
        let tenant = map.remove(name).ok_or(StateError::NoSuchDb)?;
        // under the map's lock, so a namesake created next registers
        // after this scope is gone
        self.metrics.drop_tenant(&tenant.metrics);
        drop(map);
        tenant.dropped.store(true, Ordering::SeqCst);
        if let Some(store) = &self.store {
            // registry removal already happened; a disk error leaves
            // stale files behind but the tenant is gone either way
            store.drop_tenant(name).map_err(|e| {
                StateError::Storage(format!(
                    "`{name}` dropped from the registry, but removing its files \
                     failed: {e}"
                ))
            })?;
        }
        Ok(())
    }

    /// Resolve a tenant by name.
    pub fn tenant(&self, name: &str) -> Result<Arc<Tenant>, StateError> {
        self.map().get(name).cloned().ok_or(StateError::NoSuchDb)
    }

    /// All tenants in name order (the `STATS` listing order).
    pub fn tenants(&self) -> Vec<Arc<Tenant>> {
        self.map().values().cloned().collect()
    }

    /// Number of tenants.
    pub fn n_tenants(&self) -> usize {
        self.map().len()
    }

    /// Enable (or resize) per-tenant trace retention for `PROFILE`.
    /// Shrinking evicts each tenant's oldest traces; 0 turns tracing
    /// back off and clears every ring.
    pub fn set_profile_capacity(&self, cap: usize) {
        self.metrics.set_profile_capacity(cap);
        for tenant in self.tenants() {
            tenant.metrics.trim_traces(cap);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use cq_data::Relation;

    fn temp_store(tag: &str) -> Store {
        let dir = std::env::temp_dir()
            .join(format!("cq_state_test_{tag}_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        Store::open_dir(dir).unwrap()
    }

    #[test]
    fn create_use_and_duplicate() {
        let s = ServerState::new();
        assert!(s.create_db("alpha").is_ok());
        assert_eq!(s.create_db("alpha").unwrap_err(), StateError::Exists);
        assert!(s.tenant("alpha").is_ok());
        assert_eq!(s.tenant("beta").unwrap_err(), StateError::NoSuchDb);
        s.create_db("beta").unwrap();
        let names: Vec<_> = s.tenants().iter().map(|t| t.name().to_string()).collect();
        assert_eq!(names, ["alpha", "beta"]); // sorted for deterministic STATS
        assert_eq!(s.n_tenants(), 2);
        assert!(s.store().is_none());
    }

    #[test]
    fn a_write_drops_only_the_written_relations_entries() {
        let s = ServerState::new();
        let t = s.create_db("db").unwrap();
        t.mutate(|db| {
            db.insert("R", Relation::from_pairs(vec![(1, 2)]));
            db.insert("S", Relation::from_pairs(vec![(3, 4)]));
        });
        let views = |t: &Tenant| {
            t.read(|db, cat| {
                let view = |name| cat.sorted_view(db, name, &[0]).unwrap();
                (view("R"), view("S"))
            })
        };
        let (r0, s0) = views(&t);
        let warm = t.read_meta().0;
        assert_eq!((warm.views, warm.misses, warm.invalidations), (2, 2, 0));
        // a read-only "mutation" touches nothing
        t.mutate(|_db| {});
        assert_eq!(t.read_meta().0, warm);
        // a write to R sweeps R's view eagerly (before any read asks for
        // it) and keeps S's; the counters run on across the write
        t.mutate(|db| {
            db.get_mut("R").unwrap().insert_row(&[5, 6]);
        });
        let swept = t.read_meta().0;
        assert_eq!((swept.views, swept.invalidations), (1, 1));
        assert_eq!((swept.hits, swept.misses), (warm.hits, warm.misses));
        let (r1, s1) = views(&t);
        assert!(Arc::ptr_eq(&s0, &s1), "S was not written: same view");
        assert!(!Arc::ptr_eq(&r0, &r1));
        assert_eq!(r1.level(0), [1, 5]);
        // a write to a relation nothing read invalidates nothing
        t.mutate(|db| {
            db.insert("Log", Relation::from_values(vec![1]));
        });
        let (r2, s2) = views(&t);
        assert!(Arc::ptr_eq(&r1, &r2) && Arc::ptr_eq(&s1, &s2));
        assert_eq!(t.read_meta().0.invalidations, 1);
        assert_eq!(t.sizes(), (3, 4));
    }

    #[test]
    fn drop_db_flags_live_handles() {
        let s = ServerState::new();
        let t = s.create_db("gone").unwrap();
        assert!(!t.is_dropped());
        assert_eq!(s.drop_db("missing").unwrap_err(), StateError::NoSuchDb);
        s.drop_db("gone").unwrap();
        assert!(t.is_dropped(), "held Arcs see the drop");
        assert_eq!(s.tenant("gone").unwrap_err(), StateError::NoSuchDb);
        assert_eq!(s.n_tenants(), 0);
        // the name is immediately reusable, as a fresh tenant
        let t2 = s.create_db("gone").unwrap();
        assert!(!t2.is_dropped());
    }

    #[test]
    fn persistent_registry_recovers_mutations_and_drops() {
        let store = temp_store("recover");
        let root = store.root().to_path_buf();
        {
            let (s, report) = ServerState::recover(store).unwrap();
            assert!(report.is_empty());
            let t = s.create_db("t1").unwrap();
            let record = WalRecord::Insert { relation: "R".into(), row: vec![1, 2] };
            let (applied, wal) = t.apply_logged(None, &record);
            assert_eq!(applied, Ok(Applied::Changed(1)));
            wal.unwrap();
            s.create_db("t2").unwrap();
            s.drop_db("t2").unwrap();
            assert!(!root.join("t2").exists(), "drop removes the tenant dir");
        }
        // "reboot": a fresh registry over the same directory
        let (s, report) = ServerState::recover(Store::open_dir(&root).unwrap()).unwrap();
        assert_eq!(report.len(), 1);
        assert_eq!(report[0].name, "t1");
        assert_eq!(report[0].wal_records, 1);
        assert_eq!(report[0].torn_bytes, 0);
        let t = s.tenant("t1").unwrap();
        assert_eq!(t.sizes(), (1, 1));
        t.read(|db, _| {
            assert_eq!(db.get("R").unwrap(), &Relation::from_pairs(vec![(1, 2)]));
        });
        // checkpoint: snapshot written, wal emptied, content unchanged
        let store = Arc::clone(s.store().unwrap());
        let (rows, bytes) = t.checkpoint(&store).unwrap();
        assert_eq!(rows, 1);
        assert!(bytes > 0);
        assert_eq!(t.detail().wal_bytes, Some(0));
        drop(store); // release the data-dir lock before the next reopen
        drop(s);
        let (s, report) = ServerState::recover(Store::open_dir(&root).unwrap()).unwrap();
        assert_eq!(report[0].snapshot_rows, 1);
        assert_eq!(report[0].wal_records, 0);
        assert_eq!(s.tenant("t1").unwrap().sizes(), (1, 1));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn timeout_and_degraded_state_machine() {
        let s = ServerState::new();
        let t = s.create_db("d").unwrap();
        assert_eq!(t.timeout(), None);
        t.set_limits(None, |l| l.timeout_ms = 250).unwrap();
        assert_eq!(t.timeout(), Some(Duration::from_millis(250)));
        t.set_limits(None, |l| l.timeout_ms = TenantLimits::UNSET).unwrap();
        assert_eq!(t.timeout(), None);
        assert!(!t.is_degraded());
        t.set_degraded("wal append failed: disk full");
        t.set_degraded("second diagnosis"); // first reason wins
        assert_eq!(t.degraded_reason().as_deref(), Some("wal append failed: disk full"));
        assert!(t.detail().degraded.is_some());
        t.clear_degraded();
        assert!(!t.is_degraded());
        assert_eq!(t.wal_poisoned(), None, "in-memory tenants have no wal");
        assert!(t.set_limits(None, |_| {}).is_ok(), "limits log nothing in memory");
    }

    #[test]
    fn limits_survive_checkpoint_and_recovery() {
        let store = temp_store("limits");
        let root = store.root().to_path_buf();
        {
            let (s, _) = ServerState::recover(store).unwrap();
            let t = s.create_db("t1").unwrap();
            t.set_limits(None, |l| {
                *l = TenantLimits {
                    max_exponent_bits: 1.25f64.to_bits(),
                    max_rows: 500,
                    timeout_ms: 750,
                }
            })
            .unwrap();
        }
        let (s, _) = ServerState::recover(Store::open_dir(&root).unwrap()).unwrap();
        let t = s.tenant("t1").unwrap();
        assert_eq!(t.budget(), Budget { max_exponent: Some(1.25), max_rows: Some(500) });
        assert_eq!(t.timeout(), Some(Duration::from_millis(750)));
        // a checkpoint truncates the wal but re-appends the limit record
        let store = Arc::clone(s.store().unwrap());
        t.checkpoint(&store).unwrap();
        drop(store);
        drop(s);
        let (s, _) = ServerState::recover(Store::open_dir(&root).unwrap()).unwrap();
        let t = s.tenant("t1").unwrap();
        assert_eq!(t.timeout(), Some(Duration::from_millis(750)));
        assert_eq!(t.budget().max_rows, Some(500));
        let _ = std::fs::remove_dir_all(&root);
    }

    #[test]
    fn detail_reports_schema_generation_and_wal() {
        let s = ServerState::new();
        let t = s.create_db("d").unwrap();
        t.mutate(|db| {
            db.insert("B", Relation::from_pairs(vec![(1, 2), (3, 4)]));
            db.insert("A", Relation::from_values(vec![7]));
        });
        let d = t.detail();
        assert_eq!(d.n_relations, 2);
        assert_eq!(d.n_tuples, 3);
        assert_eq!(d.relations, vec![("A".to_string(), 1, 1), ("B".to_string(), 2, 2)]);
        assert_eq!(d.wal_bytes, None, "in-memory tenants have no wal");
        let g = d.generation;
        t.mutate(|db| {
            db.insert("A", Relation::from_values(vec![7, 8]));
        });
        assert_ne!(t.detail().generation, g, "mutation moves the generation");
    }
}
