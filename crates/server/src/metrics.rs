//! Server-side observability: the engine-wide metrics registry, the
//! slow-query log, and the `METRICS` rendering pipeline.
//!
//! ## Scope and name taxonomy
//!
//! Metrics live in named scopes of one process-wide [`Registry`]:
//!
//! * `server` — cross-tenant state: commands without a tenant target
//!   (`PING`, `CREATE DB`, `USE`, `STATS`, …), error counts by wire
//!   kind (`errors.<kind>`), the `connections.open` gauge of live
//!   sessions, the wire's `replies.flushes` (framed-reply writes) and
//!   `probe.peeks` (liveness peeks that ran), and `panics` (handler
//!   panics a session caught and answered with `ERR internal`).
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
//! *pushed* as they happen, through handles their owner holds. A tenant
//! owns its metrics: its [`TenantMetrics`] registers the `db.<name>`
//! scope when the tenant is created (`DROP DB` removes it), holds the
//! fixed handles (`answers.*`, `errors`, `cursors.*`, …) and caches one
//! counter/histogram pair per `'static` verb or operator name, so every
//! site records through the tenant it already holds — a command's, a
//! cursor's, a streamed response's — and never looks a tenant up by
//! name. [`ServerMetrics`] holds the server scope's pairs and its
//! `errors.<kind>` counters the same way. A warm record is a read lock
//! on its owner's pair map, a hash lookup and relaxed atomic ops: no
//! registry lock, no lock shared across tenants, no allocation; names
//! are formatted on a pair's first record only. Gauges register on
//! their first use, so an unused one renders no `=0` line. Counters
//! that other crates already maintain (catalog memo stats, WAL write
//! stats) are *pulled* into gauges as [`render`] begins, keeping
//! `cq-data` and `cq-storage` free of any observability dependency.

use crate::protocol::{ErrKind, ALL_ERR_KINDS};
use crate::state::{ServerState, Tenant};
use cq_obs::{
    Counter, Gauge, Histogram, HistoryRing, QueryTrace, Registry, Scope, SlowQueryLog,
};
use std::collections::{HashMap, VecDeque};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::sync::{Arc, Mutex, OnceLock, PoisonError, RwLock};
use std::time::Duration;

/// Name of the cross-tenant scope.
pub const SERVER_SCOPE: &str = "server";

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
    /// The server scope's `cmd.<verb>` pairs.
    server: Pairs,
    /// `errors.<kind>`, one counter per wire kind, in [`ALL_ERR_KINDS`]
    /// order.
    errors: [Arc<Counter>; ALL_ERR_KINDS.len()],
}

/// Retained slow-query entries (the log's ring capacity).
const SLOWLOG_CAPACITY: usize = 128;

/// Metrics-history snapshots retained.
const HISTORY_CAPACITY: usize = 8;

impl ServerMetrics {
    pub(crate) fn new() -> ServerMetrics {
        let registry = Registry::new();
        let scope = registry.scope(SERVER_SCOPE);
        let errors =
            ALL_ERR_KINDS.map(|k| scope.counter(&format!("errors.{}", k.as_str())));
        ServerMetrics {
            registry,
            slowlog: SlowQueryLog::new(SLOWLOG_CAPACITY),
            history: HistoryRing::new(HISTORY_CAPACITY),
            profile_capacity: AtomicUsize::new(0),
            server: Pairs { scope, cached: RwLock::default() },
            errors,
        }
    }

    /// The underlying registry (for gauges wired directly into the
    /// runtime, e.g. the `connections.open` gauge of live sessions).
    pub fn registry(&self) -> &Registry {
        &self.registry
    }

    /// The threshold-gated slow-query log.
    pub fn slowlog(&self) -> &SlowQueryLog {
        &self.slowlog
    }

    /// The cross-tenant scope.
    pub fn server_scope(&self) -> Arc<Scope> {
        Arc::clone(&self.server.scope)
    }

    /// Count one error reply by wire kind (`errors.<kind>`).
    pub fn record_error(&self, kind: ErrKind) {
        self.errors[kind as usize].inc();
    }

    /// Record one command without a tenant target in the `server`
    /// scope: `cmd.<verb>.calls` / `cmd.<verb>.latency`.
    pub fn record_cmd(&self, verb: &'static str, elapsed: Duration) {
        self.server.record(("cmd", verb), elapsed);
    }

    /// Register tenant `name`'s scope, `db.<name>`, and the handles it
    /// records through. Called once, when the tenant is created.
    pub(crate) fn register_tenant(&self, name: &str) -> TenantMetrics {
        let scope_name = format!("db.{name}");
        TenantMetrics::new(self.registry.scope(&scope_name), scope_name)
    }

    /// Forget a dropped tenant's scope (a recreated tenant starts from
    /// zero rather than inheriting a dead namesake's counters). Sessions
    /// still holding the tenant record into the detached scope, which
    /// nothing renders.
    pub(crate) fn drop_tenant(&self, tenant: &TenantMetrics) {
        self.registry.drop_scope(&tenant.scope_name);
    }

    /// The counter-snapshot history ring behind `METRICS RATE`.
    pub fn history(&self) -> &HistoryRing {
        &self.history
    }

    /// Capture a counter snapshot into the history ring.
    pub fn capture_history(&self) {
        self.history.capture(&self.registry);
    }

    /// Set the per-tenant trace retention; the rings themselves are
    /// trimmed by [`ServerState::set_profile_capacity`].
    pub(crate) fn set_profile_capacity(&self, cap: usize) {
        self.profile_capacity.store(cap, Ordering::Relaxed);
    }

    /// Is per-query tracing on (`PROFILE` retention > 0)?
    pub fn profiling(&self) -> bool {
        self.profile_capacity.load(Ordering::Relaxed) > 0
    }

    /// Retain a finished trace in `tenant`'s `PROFILE` ring (evicting
    /// the oldest past capacity). No-op when tracing is off.
    pub fn push_trace(&self, tenant: &TenantMetrics, trace: QueryTrace) {
        let cap = self.profile_capacity.load(Ordering::Relaxed);
        if cap == 0 {
            return;
        }
        let mut ring = tenant.traces.lock().unwrap();
        while ring.len() >= cap {
            ring.pop_front();
        }
        ring.push_back(trace);
    }
}

/// A counter/histogram pair: `<stem>.calls` and `<stem>.latency`.
type Pair = (Arc<Counter>, Arc<Histogram>);

/// What one cached pair records: `("cmd", verb)` a command verb,
/// `("op", name)` a plan operator's runs (by its stable display name),
/// under the stem `<kind>.<slug of name>` (a verb is its own slug).
/// Every key is `'static`, so a cache hit builds no string.
type Stem = (&'static str, &'static str);

/// One scope and its pairs, each registered on its first record and
/// cached after. Verbs and operators are few, so the map stays tiny.
#[derive(Debug)]
struct Pairs {
    scope: Arc<Scope>,
    cached: RwLock<HashMap<Stem, Pair>>,
}

impl Pairs {
    /// Count one event of `stem` that took `elapsed`.
    fn record(&self, stem: Stem, elapsed: Duration) {
        let bump = |(calls, latency): &Pair| {
            calls.inc();
            latency.record_duration(elapsed);
        };
        if let Some(pair) =
            self.cached.read().unwrap_or_else(PoisonError::into_inner).get(&stem)
        {
            return bump(pair);
        }
        let mut cached = self.cached.write().unwrap_or_else(PoisonError::into_inner);
        bump(cached.entry(stem).or_insert_with(|| {
            let name = format!("{}.{}", stem.0, op_slug(stem.1));
            let calls = self.scope.counter(&format!("{name}.calls"));
            (calls, self.scope.histogram(&format!("{name}.latency")))
        }));
    }
}

/// A tenant's observability state, owned by its [`Tenant`]: the scope
/// it registered as `db.<name>`, its cached `cmd.*` / `op.*` pairs, its
/// fixed handles and its `PROFILE` ring. Counters and histograms are
/// registered with the scope (a zero renders nothing); gauges on their
/// first use.
#[derive(Debug)]
pub struct TenantMetrics {
    /// The key the scope is registered under: `db.<name>`.
    scope_name: String,
    pairs: Pairs,
    /// `answers.rows`: answer rows streamed or fetched — one increment
    /// per chunk or page, not per row.
    pub answer_rows: Arc<Counter>,
    /// `answers.bytes`: bytes of the streamed chunks the sink accepted.
    pub answer_bytes: Arc<Counter>,
    /// `answers.write.latency`: the time the sink held each chunk. On
    /// the wire that is `write_all` + `flush`, so a client that reads
    /// slowly (TCP backpressure) shows up here and nowhere else.
    pub answer_write: Arc<Histogram>,
    /// `answers.ttfr`: streamed responses that produced a row, and the
    /// time from query receipt to the first row reaching the sink.
    pub time_to_first_row: Pair,
    /// `errors`: error replies to tenant-addressed commands (the
    /// per-kind breakdown stays server-wide,
    /// [`ServerMetrics::record_error`]; this one feeds the `err-rate`
    /// line of `STATS <name>`).
    pub errors: Arc<Counter>,
    /// `budget.rejections`: plans refused by admission control.
    pub budget_rejections: Arc<Counter>,
    /// `timeouts`: evaluations stopped by the `SET TIMEOUT` deadline.
    pub timeouts: Arc<Counter>,
    /// `cancellations`: evaluations stopped because the client left.
    pub cancellations: Arc<Counter>,
    /// `cursors.stale`: cursors evicted because what they read mutated.
    pub cursors_stale: Arc<Counter>,
    /// `storage.auto-checkpoints` / `storage.auto-checkpoint-failures`.
    pub auto_checkpoints: Arc<Counter>,
    pub auto_checkpoint_failures: Arc<Counter>,
    cursors_open: OnceLock<Arc<Gauge>>,
    replica: OnceLock<(Arc<Gauge>, Arc<Gauge>)>,
    traces: Mutex<VecDeque<QueryTrace>>,
}

impl TenantMetrics {
    fn new(scope: Arc<Scope>, scope_name: String) -> TenantMetrics {
        let ttfr = (
            scope.counter("answers.ttfr.calls"),
            scope.histogram("answers.ttfr.latency"),
        );
        TenantMetrics {
            scope_name,
            answer_rows: scope.counter("answers.rows"),
            answer_bytes: scope.counter("answers.bytes"),
            answer_write: scope.histogram("answers.write.latency"),
            time_to_first_row: ttfr,
            errors: scope.counter("errors"),
            budget_rejections: scope.counter("budget.rejections"),
            timeouts: scope.counter("timeouts"),
            cancellations: scope.counter("cancellations"),
            cursors_stale: scope.counter("cursors.stale"),
            auto_checkpoints: scope.counter("storage.auto-checkpoints"),
            auto_checkpoint_failures: scope.counter("storage.auto-checkpoint-failures"),
            cursors_open: OnceLock::new(),
            replica: OnceLock::new(),
            traces: Mutex::default(),
            pairs: Pairs { scope, cached: RwLock::default() },
        }
    }

    /// The tenant's scope.
    pub fn scope(&self) -> &Arc<Scope> {
        &self.pairs.scope
    }

    /// The name the scope is registered under, `db.<name>` — what
    /// `METRICS <name>`, `METRICS RATE <name>` and `STATS <name>` filter
    /// the registry and its history by.
    pub fn scope_name(&self) -> &str {
        &self.scope_name
    }

    /// Record one command addressed to the tenant: `cmd.<verb>.calls` /
    /// `cmd.<verb>.latency`.
    pub fn record_cmd(&self, verb: &'static str, elapsed: Duration) {
        self.pairs.record(("cmd", verb), elapsed);
    }

    /// Record one plan-operator execution: `op.<slug>.calls` /
    /// `op.<slug>.latency`, `<slug>` the [`op_slug`] of the operator's
    /// display name.
    pub fn record_op(&self, op_name: &'static str, elapsed: Duration) {
        self.pairs.record(("op", op_name), elapsed);
    }

    /// The `cursors.open` gauge: cursors of this tenant some session
    /// holds open.
    pub fn cursors_open(&self) -> &Gauge {
        self.cursors_open.get_or_init(|| self.scope().gauge("cursors.open"))
    }

    /// A cursor was released (CLOSE, session end, or staleness): drop
    /// the `cursors.open` gauge; staleness also counts in
    /// `cursors.stale`.
    pub fn cursor_closed(&self, stale: bool) {
        self.cursors_open().sub(1);
        if stale {
            self.cursors_stale.inc();
        }
    }

    /// A replica's gauges: `replica.lag_bytes`, how far its applied
    /// position trails the primary's log, and `replica.epoch`, the
    /// primary log epoch it applies from.
    pub fn replica(&self) -> &(Arc<Gauge>, Arc<Gauge>) {
        self.replica.get_or_init(|| {
            (self.scope().gauge("replica.lag_bytes"), self.scope().gauge("replica.epoch"))
        })
    }

    /// The retained traces, oldest first.
    pub fn recent_traces(&self) -> Vec<QueryTrace> {
        self.traces.lock().unwrap().iter().cloned().collect()
    }

    /// Keep the newest `cap` traces (0 clears the ring).
    pub(crate) fn trim_traces(&self, cap: usize) {
        let mut ring = self.traces.lock().unwrap();
        while ring.len() > cap {
            ring.pop_front();
        }
    }
}

/// Pull pulled-not-pushed values into gauges: per-tenant catalog and
/// WAL stats, and the tenant count.
/// Called just before a render so gauge values are current without
/// any hot-path cost. `only` limits the refresh to one tenant.
fn refresh(state: &ServerState, only: Option<&Tenant>) {
    let Some(tenant) = only else {
        let server = state.metrics().server_scope();
        server.gauge("tenants").set(state.n_tenants() as u64);
        server.gauge("slow-queries").set(state.metrics().slowlog().total());
        // injected storage faults (0 on an in-memory server, which has
        // no store to inject into — the gauge exists in both modes so
        // transcripts stay mode-independent)
        let injected = state.store().map_or(0, |s| s.fault_plan().injected());
        server.gauge("storage.faults.injected").set(injected);
        for tenant in state.tenants() {
            refresh(state, Some(&tenant));
        }
        return;
    };
    let scope = tenant.metrics().scope();
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

/// Refresh derived gauges and render the registry: all scopes, or only
/// `only`'s when a tenant is named.
pub fn render(state: &ServerState, only: Option<&Tenant>) -> Vec<String> {
    refresh(state, only);
    state.metrics().registry().render(only.map(|t| t.metrics().scope_name()))
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
    fn pairs_are_cached_per_stem_in_their_owners_scope() {
        let shared = ServerMetrics::new();
        let t = shared.register_tenant("t");
        t.record_cmd("count", Duration::from_micros(5));
        t.record_cmd("count", Duration::from_micros(7));
        t.record_op("generic join (worst-case optimal)", Duration::from_micros(3));
        shared.record_cmd("ping", Duration::from_micros(1));
        t.budget_rejections.inc();
        assert_eq!(t.pairs.cached.read().unwrap().len(), 2, "one pair per stem");
        assert_eq!(shared.server.cached.read().unwrap().len(), 1);
        let scope = shared.registry().scope("db.t");
        assert!(Arc::ptr_eq(&scope, t.scope()), "registered as db.t");
        assert_eq!(scope.counter_value("cmd.count.calls"), Some(2));
        assert_eq!(scope.counter_value("op.generic-join.calls"), Some(1));
        assert_eq!(scope.counter_value("budget.rejections"), Some(1));
        let server = shared.registry().scope(SERVER_SCOPE);
        assert_eq!(server.counter_value("cmd.ping.calls"), Some(1));
    }

    #[test]
    fn dropping_a_tenant_clears_its_scope() {
        let m = ServerMetrics::new();
        let gone = m.register_tenant("gone");
        gone.record_cmd("ping", Duration::from_micros(1));
        m.drop_tenant(&gone);
        assert!(m.registry().render(Some("db.gone")).is_empty());
    }
}
