//! Named metric scopes and the registry that renders them.
//!
//! A [`Registry`] maps scope names (`server`, `db.<tenant>`, …) to
//! [`Scope`]s; a scope maps metric names to counters, gauges, and
//! histograms. Both maps are `BTreeMap`s behind a `Mutex`, locked only when
//! a metric is first registered, a scope is dropped, or the registry is
//! rendered. Instrumented code calls `scope.counter("…")` once, keeps the
//! returned `Arc`, and from then on recording is a single relaxed atomic op.

use crate::hist::{fmt_ns, Histogram};
use std::collections::BTreeMap;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Mutex};

/// Monotone counter.
#[derive(Debug, Default)]
pub struct Counter(AtomicU64);

impl Counter {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn inc(&self) {
        self.add(1);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

/// Settable instantaneous value (open connections, memo sizes, …).
#[derive(Debug, Default)]
pub struct Gauge(AtomicU64);

impl Gauge {
    pub fn new() -> Self {
        Self::default()
    }

    pub fn set(&self, v: u64) {
        self.0.store(v, Ordering::Relaxed);
    }

    pub fn add(&self, n: u64) {
        self.0.fetch_add(n, Ordering::Relaxed);
    }

    /// Saturating decrement (a racy double-release must not wrap to 2^64).
    pub fn sub(&self, n: u64) {
        let mut cur = self.0.load(Ordering::Relaxed);
        loop {
            let next = cur.saturating_sub(n);
            match self.0.compare_exchange_weak(
                cur,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(seen) => cur = seen,
            }
        }
    }

    pub fn get(&self) -> u64 {
        self.0.load(Ordering::Relaxed)
    }
}

#[derive(Debug)]
enum Metric {
    Counter(Arc<Counter>),
    Gauge(Arc<Gauge>),
    Histogram(Arc<Histogram>),
}

/// One named collection of metrics (typically one per tenant).
#[derive(Debug, Default)]
pub struct Scope {
    metrics: Mutex<BTreeMap<String, Metric>>,
}

impl Scope {
    /// Get or register the counter named `name`.
    ///
    /// Panics if `name` is already registered as a different metric kind —
    /// that is a programming error, not a runtime condition.
    pub fn counter(&self, name: &str) -> Arc<Counter> {
        let mut m = self.metrics.lock().unwrap();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Counter(Arc::new(Counter::new())))
        {
            Metric::Counter(c) => Arc::clone(c),
            _ => panic!("metric {name:?} registered with a different kind"),
        }
    }

    /// Get or register the gauge named `name`.
    pub fn gauge(&self, name: &str) -> Arc<Gauge> {
        let mut m = self.metrics.lock().unwrap();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Gauge(Arc::new(Gauge::new())))
        {
            Metric::Gauge(g) => Arc::clone(g),
            _ => panic!("metric {name:?} registered with a different kind"),
        }
    }

    /// Get or register the histogram named `name`.
    pub fn histogram(&self, name: &str) -> Arc<Histogram> {
        let mut m = self.metrics.lock().unwrap();
        match m
            .entry(name.to_string())
            .or_insert_with(|| Metric::Histogram(Arc::new(Histogram::new())))
        {
            Metric::Histogram(h) => Arc::clone(h),
            _ => panic!("metric {name:?} registered with a different kind"),
        }
    }

    /// Read a counter's current value by name, if registered.
    pub fn counter_value(&self, name: &str) -> Option<u64> {
        match self.metrics.lock().unwrap().get(name) {
            Some(Metric::Counter(c)) => Some(c.get()),
            _ => None,
        }
    }

    /// Render this scope's metrics as `<prefix> <name>=<value>` lines.
    ///
    /// Zero-valued counters and empty histograms are skipped (the set of
    /// registered names depends on which code paths ran, but the set of
    /// *nonzero* values is determined by the command sequence, which keeps
    /// golden transcripts stable). Gauges always render.
    fn render_into(&self, prefix: &str, out: &mut Vec<String>) {
        let m = self.metrics.lock().unwrap();
        for (name, metric) in m.iter() {
            match metric {
                Metric::Counter(c) => {
                    let v = c.get();
                    if v > 0 {
                        out.push(format!("{prefix} {name}={v}"));
                    }
                }
                Metric::Gauge(g) => out.push(format!("{prefix} {name}={}", g.get())),
                Metric::Histogram(h) => {
                    let (n, p50, p95, p99) = h.summary();
                    if n > 0 {
                        out.push(format!(
                            "{prefix} {name} n={n} p50={} p95={} p99={}",
                            fmt_ns(p50),
                            fmt_ns(p95),
                            fmt_ns(p99)
                        ));
                    }
                }
            }
        }
    }
}

/// Process-wide metrics registry: named scopes, stable rendering.
#[derive(Debug, Default)]
pub struct Registry {
    scopes: Mutex<BTreeMap<String, Arc<Scope>>>,
}

impl Registry {
    pub fn new() -> Self {
        Self::default()
    }

    /// Get or create the scope named `name`.
    pub fn scope(&self, name: &str) -> Arc<Scope> {
        let mut s = self.scopes.lock().unwrap();
        Arc::clone(s.entry(name.to_string()).or_default())
    }

    /// Remove a scope (e.g. when a tenant is dropped).
    pub fn drop_scope(&self, name: &str) {
        self.scopes.lock().unwrap().remove(name);
    }

    /// Every nonzero counter as `(scope, name, value)`, scope- then
    /// name-ordered. Gauges and histograms are excluded: this feeds
    /// the [`HistoryRing`](crate::HistoryRing), whose deltas only mean
    /// something for monotone values. Zero counters are skipped for
    /// the same reason render skips them — the *registered* set
    /// depends on which code paths ran, the *nonzero* set only on
    /// what the commands did.
    pub fn counters_snapshot(&self) -> Vec<(String, String, u64)> {
        let scopes: Vec<(String, Arc<Scope>)> = {
            let s = self.scopes.lock().unwrap();
            s.iter().map(|(n, sc)| (n.clone(), Arc::clone(sc))).collect()
        };
        let mut out = Vec::new();
        for (scope_name, scope) in scopes {
            let m = scope.metrics.lock().unwrap();
            for (name, metric) in m.iter() {
                if let Metric::Counter(c) = metric {
                    let v = c.get();
                    if v > 0 {
                        out.push((scope_name.clone(), name.clone(), v));
                    }
                }
            }
        }
        out
    }

    /// Render all scopes — or only the one named by `filter` — into a stable
    /// list of lines: scopes in name order, metrics in name order within a
    /// scope, each line `"<scope> <metric>=<value>"`.
    pub fn render(&self, filter: Option<&str>) -> Vec<String> {
        let scopes: Vec<(String, Arc<Scope>)> = {
            let s = self.scopes.lock().unwrap();
            s.iter()
                .filter(|(name, _)| filter.is_none_or(|f| f == name.as_str()))
                .map(|(name, scope)| (name.clone(), Arc::clone(scope)))
                .collect()
        };
        let mut out = Vec::new();
        for (name, scope) in scopes {
            scope.render_into(&name, &mut out);
        }
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn counters_and_gauges_round_trip() {
        let reg = Registry::new();
        let s = reg.scope("server");
        s.counter("errors.parse").add(3);
        s.gauge("workers.busy").set(2);
        s.histogram("latency").record(1_000);
        let lines = reg.render(None);
        assert_eq!(lines[0], "server errors.parse=3");
        assert!(lines[1].starts_with("server latency n=1 p50="));
        assert_eq!(lines[2], "server workers.busy=2");
    }

    #[test]
    fn zero_counters_are_skipped_gauges_are_not() {
        let reg = Registry::new();
        let s = reg.scope("db.t");
        s.counter("never.used");
        s.gauge("memo.views").set(0);
        s.histogram("quiet");
        assert_eq!(reg.render(None), vec!["db.t memo.views=0".to_string()]);
    }

    #[test]
    fn filter_selects_one_scope() {
        let reg = Registry::new();
        reg.scope("db.a").counter("x").inc();
        reg.scope("db.b").counter("x").inc();
        assert_eq!(reg.render(Some("db.b")), vec!["db.b x=1".to_string()]);
        assert_eq!(reg.render(None).len(), 2);
        reg.drop_scope("db.a");
        assert_eq!(reg.render(None).len(), 1);
    }

    #[test]
    fn same_name_returns_same_metric() {
        let reg = Registry::new();
        let s = reg.scope("a");
        let c1 = s.counter("c");
        let c2 = s.counter("c");
        c1.inc();
        c2.inc();
        assert_eq!(c1.get(), 2);
    }

    #[test]
    fn hammered_counter_loses_no_increments() {
        const THREADS: usize = 8;
        const PER_THREAD: u64 = 100_000;
        let reg = Arc::new(Registry::new());
        let counter = reg.scope("server").counter("hammer");
        let hist = reg.scope("server").histogram("hammer.lat");
        thread::scope(|sc| {
            for _ in 0..THREADS {
                let c = Arc::clone(&counter);
                let h = Arc::clone(&hist);
                sc.spawn(move || {
                    for i in 0..PER_THREAD {
                        c.inc();
                        h.record(i);
                    }
                });
            }
        });
        assert_eq!(counter.get(), THREADS as u64 * PER_THREAD);
        assert_eq!(hist.count(), THREADS as u64 * PER_THREAD);
    }

    #[test]
    fn gauge_sub_saturates() {
        let g = Gauge::new();
        g.add(1);
        g.sub(5);
        assert_eq!(g.get(), 0);
    }
}
