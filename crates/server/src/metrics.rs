//! Server-side observability: the engine-wide metrics registry, the
//! slow-query log, and the `METRICS` rendering pipeline.
//!
//! ## Scope and name taxonomy
//!
//! Metrics live in named scopes of one process-wide [`Registry`]:
//!
//! * `server` — cross-tenant state: commands without a tenant target
//!   (`PING`, `CREATE DB`, `USE`, `STATS`, …), error counts by wire
//!   kind (`errors.<kind>`), connection and worker-pool gauges, the
//!   wire's `replies.flushes` (framed-reply writes) and `probe.peeks`
//!   (liveness peeks that ran).
//! * `db.<tenant>` — one scope per tenant: per-command counters and
//!   latency histograms (`cmd.<verb>.calls` / `cmd.<verb>.latency`),
//!   per-plan-operator execution counters and latencies
//!   (`op.<slug>.calls` / `op.<slug>.latency`), budget rejections
//!   (`budget.rejections`), and gauges mirrored from the tenant's
//!   catalog ([`CatalogStats`](cq_data::CatalogStats)) and WAL
//!   ([`WalStats`](cq_storage::WalStats)).
//!
//! ## Who records, who is polled
//!
//! Only this crate depends on `cq-obs`. Hot-path events the server
//! itself observes (commands, query execution, errors, rejections) are
//! *pushed* through cached `Arc` handles — a [`SessionMetrics`] keeps
//! one handle per `(scope, name)` pair, so steady-state recording is a
//! relaxed atomic op with no lock and no string formatting. Counters
//! that other crates already maintain (catalog memo stats, WAL write
//! stats) are *pulled* into gauges by [`refresh`] just before a render,
//! keeping `cq-data` and `cq-storage` free of any observability
//! dependency.

use crate::state::ServerState;
use cq_obs::{
    Counter, Histogram, HistoryRing, QueryTrace, Registry, Scope, SlowQueryLog,
};
use std::collections::{BTreeMap, HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Name of the cross-tenant scope.
pub const SERVER_SCOPE: &str = "server";

/// Scope name for a tenant's metrics.
pub fn tenant_scope(db: &str) -> String {
    format!("db.{db}")
}

/// Metric-name slug for a plan operator's stable display name
/// (lowercased, runs of non-alphanumerics collapsed to `-`, any
/// parenthetical qualifier dropped): `"generic join (worst-case
/// optimal)"` → `"generic-join"`.
pub fn op_slug(op_name: &str) -> String {
    let head = op_name.split('(').next().unwrap_or(op_name);
    let mut slug = String::with_capacity(head.len());
    for part in head.split(|c: char| !c.is_ascii_alphanumeric()).filter(|p| !p.is_empty())
    {
        if !slug.is_empty() {
            slug.push('-');
        }
        slug.push_str(&part.to_ascii_lowercase());
    }
    slug
}

/// The process-wide observability state owned by a `ServerState`.
#[derive(Debug)]
pub struct ServerMetrics {
    registry: Registry,
    slowlog: SlowQueryLog,
    /// Periodic counter snapshots; `METRICS RATE` differences two of
    /// them into windowed per-second rates.
    history: HistoryRing,
    /// Per-query trace retention: 0 disables tracing entirely (the
    /// default — spans cost nothing when no sink is installed), N keeps
    /// the last N [`QueryTrace`]s per tenant for `PROFILE`.
    profile_capacity: AtomicUsize,
    profiles: Mutex<BTreeMap<String, VecDeque<QueryTrace>>>,
}

/// Retained slow-query entries (the log's ring capacity).
const SLOWLOG_CAPACITY: usize = 128;

/// Metrics-history snapshots retained.
const HISTORY_CAPACITY: usize = 8;

impl Default for ServerMetrics {
    fn default() -> Self {
        Self::new()
    }
}

impl ServerMetrics {
    pub fn new() -> ServerMetrics {
        ServerMetrics {
            registry: Registry::new(),
            slowlog: SlowQueryLog::new(SLOWLOG_CAPACITY),
            history: HistoryRing::new(HISTORY_CAPACITY),
            profile_capacity: AtomicUsize::new(0),
            profiles: Mutex::new(BTreeMap::new()),
        }
    }

    /// The underlying registry (for gauges wired directly into the
    /// runtime, e.g. worker-pool occupancy).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The threshold-gated slow-query log.
    pub fn slowlog(&self) -> &SlowQueryLog {
        &self.slowlog
    }

    /// The cross-tenant scope.
    pub fn server_scope(&self) -> Arc<Scope> {
        self.registry.scope(SERVER_SCOPE)
    }

    /// Count one error reply by wire kind (`errors.<kind>`).
    pub fn record_error(&self, kind: &str) {
        self.server_scope().counter(&format!("errors.{kind}")).inc();
    }

    /// Forget a dropped tenant's scope (a recreated tenant starts
    /// from zero rather than inheriting a dead namesake's counters).
    pub fn drop_tenant(&self, db: &str) {
        self.registry.drop_scope(&tenant_scope(db));
        self.profiles.lock().unwrap().remove(db);
    }

    /// The counter-snapshot history ring behind `METRICS RATE`.
    pub fn history(&self) -> &HistoryRing {
        &self.history
    }

    /// Capture a counter snapshot into the history ring.
    pub fn capture_history(&self) {
        self.history.capture(&self.registry);
    }

    /// How many traces `PROFILE` retains per tenant (0 = tracing off).
    pub fn profile_capacity(&self) -> usize {
        self.profile_capacity.load(Ordering::Relaxed)
    }

    /// Enable (or resize) per-tenant trace retention. Shrinking evicts
    /// oldest traces; 0 turns tracing back off and clears everything.
    pub fn set_profile_capacity(&self, cap: usize) {
        self.profile_capacity.store(cap, Ordering::Relaxed);
        let mut rings = self.profiles.lock().unwrap();
        if cap == 0 {
            rings.clear();
        } else {
            for ring in rings.values_mut() {
                while ring.len() > cap {
                    ring.pop_front();
                }
            }
        }
    }

    /// Is per-query tracing on (`PROFILE` retention > 0)?
    pub fn profiling(&self) -> bool {
        self.profile_capacity() > 0
    }

    /// Retain a finished trace for `PROFILE <db>` (evicting the oldest
    /// past capacity). No-op when tracing is off.
    pub fn push_trace(&self, trace: QueryTrace) {
        let cap = self.profile_capacity();
        if cap == 0 {
            return;
        }
        let mut rings = self.profiles.lock().unwrap();
        let ring = rings.entry(trace.db.clone()).or_default();
        while ring.len() >= cap {
            ring.pop_front();
        }
        ring.push_back(trace);
    }

    /// A tenant's retained traces, oldest first.
    pub fn recent_traces(&self, db: &str) -> Vec<QueryTrace> {
        self.profiles
            .lock()
            .unwrap()
            .get(db)
            .map(|ring| ring.iter().cloned().collect())
            .unwrap_or_default()
    }
}

/// Per-session cache of metric handles, keyed by `(scope, name)`.
///
/// The name side is `&'static str`-compatible by construction: command
/// verbs and op slugs come from small fixed sets, so the map stays
/// tiny. A session is single-threaded, so no locking.
#[derive(Debug)]
pub struct SessionMetrics {
    shared: Arc<ServerMetrics>,
    handles: HashMap<(String, String), (Arc<Counter>, Arc<Histogram>)>,
}

impl SessionMetrics {
    pub fn new(shared: Arc<ServerMetrics>) -> SessionMetrics {
        SessionMetrics { shared, handles: HashMap::new() }
    }

    /// The shared server metrics.
    pub fn shared(&self) -> &ServerMetrics {
        &self.shared
    }

    fn pair(&mut self, scope: &str, stem: &str) -> &(Arc<Counter>, Arc<Histogram>) {
        self.handles.entry((scope.to_string(), stem.to_string())).or_insert_with(|| {
            let s = self.shared.registry.scope(scope);
            (s.counter(&format!("{stem}.calls")), s.histogram(&format!("{stem}.latency")))
        })
    }

    /// Record one command: `cmd.<verb>.calls` / `cmd.<verb>.latency`
    /// in `scope` (the `server` scope or a tenant's).
    pub fn record_cmd(&mut self, scope: &str, verb: &str, elapsed: Duration) {
        let (calls, latency) = self.pair(scope, &format!("cmd.{verb}"));
        calls.inc();
        latency.record_duration(elapsed);
    }

    /// Record one plan-operator execution in a tenant's scope:
    /// `op.<slug>.calls` / `op.<slug>.latency`.
    pub fn record_op(&mut self, db: &str, op_name: &str, elapsed: Duration) {
        let scope = tenant_scope(db);
        let (calls, latency) = self.pair(&scope, &format!("op.{}", op_slug(op_name)));
        calls.inc();
        latency.record_duration(elapsed);
    }

    /// Bump one of a tenant's event counters: `errors` (an error reply
    /// on a tenant-addressed command — the per-kind breakdown stays
    /// server-wide, [`ServerMetrics::record_error`]; this one feeds the
    /// `err-rate` line of `STATS <name>`), `budget.rejections`
    /// (admission control), `timeouts` (a `SET TIMEOUT` deadline trip)
    /// or `cancellations` (the client disconnected mid-evaluation).
    pub fn count(&mut self, db: &str, counter: &str) {
        self.shared.registry.scope(&tenant_scope(db)).counter(counter).inc();
    }

    /// Count `n` answer rows streamed to a client (`answers.rows`) —
    /// one increment per chunk, not per row, so the hot drain loop
    /// touches the counter O(result/chunk) times.
    pub fn record_answer_rows(&mut self, db: &str, n: u64) {
        let scope = self.shared.registry.scope(&tenant_scope(db));
        scope.counter("answers.rows").add(n);
    }

    /// The two handles a streamed response records each chunk through
    /// — looked up once per response, so a chunk costs two atomic
    /// updates: the `answers.bytes` counter grows by the chunk, and the
    /// `answers.write.latency` histogram takes the time the sink held
    /// it. On the wire that is `write_all` + `flush`, so a client that
    /// reads slowly (TCP backpressure) shows up here and nowhere else.
    pub fn answer_chunk_handles(&self, db: &str) -> (Arc<Counter>, Arc<Histogram>) {
        let scope = self.shared.registry.scope(&tenant_scope(db));
        (scope.counter("answers.bytes"), scope.histogram("answers.write.latency"))
    }

    /// Record the time from query receipt to the first answer row
    /// reaching the wire (`answers.ttfr.latency`). The companion
    /// counter counts streamed responses that produced ≥ 1 row.
    pub fn record_time_to_first_row(&mut self, db: &str, elapsed: Duration) {
        let scope = tenant_scope(db);
        let (calls, latency) = self.pair(&scope, "answers.ttfr");
        calls.inc();
        latency.record_duration(elapsed);
    }

    /// A cursor was opened: bump the `cursors.open` gauge.
    pub fn record_cursor_opened(&mut self, db: &str) {
        let scope = self.shared.registry.scope(&tenant_scope(db));
        scope.gauge("cursors.open").add(1);
    }

    /// A cursor was released (CLOSE, session end, or staleness): drop
    /// the `cursors.open` gauge; staleness also counts in
    /// `cursors.stale`.
    pub fn record_cursor_closed(&mut self, db: &str, stale: bool) {
        let scope = self.shared.registry.scope(&tenant_scope(db));
        scope.gauge("cursors.open").sub(1);
        if stale {
            scope.counter("cursors.stale").inc();
        }
    }
}

/// Pull pulled-not-pushed values into gauges: per-tenant catalog and
/// WAL stats, and the tenant count.
/// Called just before a render so gauge values are current without
/// any hot-path cost. `db` limits the refresh to one tenant.
pub fn refresh(state: &ServerState, db: Option<&str>) {
    let metrics = state.metrics();
    if db.is_none() {
        let server = metrics.server_scope();
        server.gauge("tenants").set(state.n_tenants() as u64);
        server.gauge("slow-queries").set(metrics.slowlog().total());
        // injected storage faults (0 on an in-memory server, which has
        // no store to inject into — the gauge exists in both modes so
        // transcripts stay mode-independent)
        let injected = state.store().map_or(0, |s| s.fault_plan().injected());
        server.gauge("storage.faults.injected").set(injected);
    }
    for tenant in state.tenants() {
        if db.is_some_and(|want| want != tenant.name()) {
            continue;
        }
        let scope = metrics.registry().scope(&tenant_scope(tenant.name()));
        let (cat, wal) = tenant.read_meta();
        scope.gauge("catalog.hits").set(cat.hits);
        scope.gauge("catalog.misses").set(cat.misses);
        scope.gauge("catalog.invalidations").set(cat.invalidations);
        scope.gauge("catalog.cap-evictions").set(cat.cap_evictions);
        scope.gauge("catalog.memo.views").set(cat.views as u64);
        scope.gauge("catalog.memo.artifacts").set(cat.artifacts as u64);
        scope.gauge("catalog.view-bytes").set(cat.view_bytes as u64);
        if let Some(wal) = wal {
            scope.gauge("storage.wal.appends").set(wal.appends);
            scope.gauge("storage.wal.appended-bytes").set(wal.appended_bytes);
            scope.gauge("storage.wal.syncs").set(wal.syncs);
        }
        if let Some(poisoned) = tenant.wal_poisoned() {
            scope.gauge("storage.wal.poisoned").set(poisoned as u64);
        }
        scope.gauge("degraded").set(tenant.is_degraded() as u64);
    }
}

/// Refresh derived gauges and render the registry: all scopes, or only
/// `db.<db>` when a tenant is named.
pub fn render(state: &ServerState, db: Option<&str>) -> Vec<String> {
    refresh(state, db);
    let filter = db.map(tenant_scope);
    state.metrics().registry().render(filter.as_deref())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn op_slugs_are_stable_and_ascii() {
        assert_eq!(op_slug("generic join (worst-case optimal)"), "generic-join");
        assert_eq!(op_slug("Yannakakis semijoin sweep"), "yannakakis-semijoin-sweep");
        assert_eq!(op_slug("counting DP over join tree"), "counting-dp-over-join-tree");
        assert_eq!(op_slug("trivially empty"), "trivially-empty");
    }

    #[test]
    fn session_cache_reuses_handles() {
        let shared = Arc::new(ServerMetrics::new());
        let mut sm = SessionMetrics::new(Arc::clone(&shared));
        sm.record_cmd("db.t", "count", Duration::from_micros(5));
        sm.record_cmd("db.t", "count", Duration::from_micros(7));
        sm.count("t", "budget.rejections");
        assert_eq!(sm.handles.len(), 1, "one (scope, stem) pair cached");
        let scope = shared.registry().scope("db.t");
        assert_eq!(scope.counter_value("cmd.count.calls"), Some(2));
        assert_eq!(scope.counter_value("budget.rejections"), Some(1));
    }

    #[test]
    fn dropping_a_tenant_clears_its_scope() {
        let m = ServerMetrics::new();
        m.registry().scope(&tenant_scope("gone")).counter("cmd.ping.calls").inc();
        m.drop_tenant("gone");
        assert!(m.registry().render(Some("db.gone")).is_empty());
    }
}
