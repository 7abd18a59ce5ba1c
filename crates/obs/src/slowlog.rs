//! Threshold-gated slow-query log.
//!
//! A bounded ring buffer of [`SlowQuery`] records. The threshold check is a
//! single relaxed atomic load, so the disabled / fast-query path costs one
//! compare; only queries over the threshold take the ring's mutex.

use std::collections::VecDeque;
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::Mutex;
use std::time::Duration;

/// Sentinel meaning "slow-query logging disabled".
const DISABLED: u64 = u64::MAX;

/// One slow query: what ran, how it was planned, and how long it took.
#[derive(Debug, Clone, PartialEq)]
pub struct SlowQuery {
    /// Tenant the query ran against.
    pub db: String,
    /// Original query text.
    pub query: String,
    /// Plan operator chosen by the planner (its stable `Op::name()`).
    pub plan_op: String,
    /// Cost exponent from the plan's `CostEstimate`.
    pub exponent: f64,
    /// Wall-clock time spent planning + executing.
    pub elapsed: Duration,
    /// Tenant generation the query ran against, so a slow entry can be
    /// correlated with the catalog state it actually saw (the entry
    /// may be read long after further mutations).
    pub generation: u64,
    /// The trace's most expensive spans (`(name, elapsed)`, longest
    /// first), when the query ran with tracing armed; empty otherwise.
    /// Makes a slow entry self-diagnosing: it says *where* the time
    /// went, not just how much there was.
    pub top_spans: Vec<(String, Duration)>,
}

impl SlowQuery {
    /// One-line rendering used by the periodic dump.
    pub fn render(&self) -> String {
        let mut line = format!(
            "slow-query db={} gen={} elapsed={:.3}ms exponent={:.2} op={:?} query={:?}",
            self.db,
            self.generation,
            self.elapsed.as_secs_f64() * 1e3,
            self.exponent,
            self.plan_op,
            self.query
        );
        if !self.top_spans.is_empty() {
            let spans: Vec<String> = self
                .top_spans
                .iter()
                .map(|(name, t)| format!("{name}={:.3}ms", t.as_secs_f64() * 1e3))
                .collect();
            line.push_str(&format!(" top=[{}]", spans.join(", ")));
        }
        line
    }
}

/// Bounded, threshold-gated log of slow queries.
#[derive(Debug)]
pub struct SlowQueryLog {
    threshold_ns: AtomicU64,
    total: AtomicU64,
    ring: Mutex<VecDeque<SlowQuery>>,
    capacity: usize,
}

impl SlowQueryLog {
    /// Create a log retaining at most `capacity` recent entries.
    pub fn new(capacity: usize) -> Self {
        Self {
            threshold_ns: AtomicU64::new(DISABLED),
            total: AtomicU64::new(0),
            ring: Mutex::new(VecDeque::with_capacity(capacity)),
            capacity: capacity.max(1),
        }
    }

    /// Enable logging for queries at or above `threshold`.
    pub fn set_threshold(&self, threshold: Duration) {
        let ns = threshold.as_nanos().min((DISABLED - 1) as u128) as u64;
        self.threshold_ns.store(ns, Ordering::Relaxed);
    }

    /// Disable logging.
    pub fn disable(&self) {
        self.threshold_ns.store(DISABLED, Ordering::Relaxed);
    }

    /// Cheap gate: should a query with this elapsed time be recorded?
    pub fn should_record(&self, elapsed: Duration) -> bool {
        let t = self.threshold_ns.load(Ordering::Relaxed);
        t != DISABLED && elapsed.as_nanos() >= t as u128
    }

    /// Append an entry (caller has already checked [`should_record`], but
    /// recording unconditionally is also fine — e.g. from tests).
    ///
    /// [`should_record`]: SlowQueryLog::should_record
    pub fn push(&self, entry: SlowQuery) {
        self.total.fetch_add(1, Ordering::Relaxed);
        let mut ring = self.ring.lock().unwrap();
        if ring.len() == self.capacity {
            ring.pop_front();
        }
        ring.push_back(entry);
    }

    /// Total slow queries ever recorded (monotone; survives ring eviction).
    pub fn total(&self) -> u64 {
        self.total.load(Ordering::Relaxed)
    }

    /// Snapshot of the retained entries, oldest first.
    pub fn recent(&self) -> Vec<SlowQuery> {
        self.ring.lock().unwrap().iter().cloned().collect()
    }

    /// Drain the retained entries (used by the periodic dump so each entry
    /// is printed once). The `total` counter is unaffected.
    pub fn drain(&self) -> Vec<SlowQuery> {
        self.ring.lock().unwrap().drain(..).collect()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn q(ms: u64) -> SlowQuery {
        SlowQuery {
            db: "t".into(),
            query: "Ans() <- E(x,y)".into(),
            plan_op: "scan".into(),
            exponent: 1.0,
            elapsed: Duration::from_millis(ms),
            generation: 7,
            top_spans: Vec::new(),
        }
    }

    #[test]
    fn disabled_by_default() {
        let log = SlowQueryLog::new(4);
        assert!(!log.should_record(Duration::from_secs(3600)));
    }

    #[test]
    fn threshold_gates() {
        let log = SlowQueryLog::new(4);
        log.set_threshold(Duration::from_millis(10));
        assert!(!log.should_record(Duration::from_millis(9)));
        assert!(log.should_record(Duration::from_millis(10)));
        log.disable();
        assert!(!log.should_record(Duration::from_secs(1)));
    }

    #[test]
    fn ring_evicts_oldest_but_total_is_monotone() {
        let log = SlowQueryLog::new(2);
        log.push(q(1));
        log.push(q(2));
        log.push(q(3));
        assert_eq!(log.total(), 3);
        let recent = log.recent();
        assert_eq!(recent.len(), 2);
        assert_eq!(recent[0].elapsed, Duration::from_millis(2));
        assert_eq!(recent[1].elapsed, Duration::from_millis(3));
        assert_eq!(log.drain().len(), 2);
        assert!(log.recent().is_empty());
        assert_eq!(log.total(), 3);
    }

    #[test]
    fn render_mentions_all_fields() {
        let line = q(12).render();
        assert!(line.contains("db=t"));
        assert!(line.contains("gen=7"));
        assert!(line.contains("elapsed=12.000ms"));
        assert!(line.contains("exponent=1.00"));
        assert!(line.contains("op=\"scan\""));
        assert!(line.contains("Ans() <- E(x,y)"));
        // no trace → no top-spans suffix
        assert!(!line.contains("top="));
    }

    #[test]
    fn render_appends_top_spans_when_present() {
        let mut entry = q(12);
        entry.top_spans = vec![
            ("op.generic-join.count".into(), Duration::from_millis(9)),
            ("wal.append".into(), Duration::from_millis(2)),
        ];
        let line = entry.render();
        assert!(line.contains("top=[op.generic-join.count=9.000ms, wal.append=2.000ms]"));
    }
}
