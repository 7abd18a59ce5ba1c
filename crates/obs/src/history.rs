//! A ring of periodic counter snapshots, turning any counter into a
//! windowed rate.
//!
//! The registry is point-in-time: `METRICS` can say a tenant has
//! served 14 203 COUNTs, but not whether that is 2/s or 2000/s. A
//! [`HistoryRing`] fixes that by capturing the registry's *counters*
//! (and only the counters — gauges are resettable instantaneous
//! values, for which a delta is meaningless) every time someone asks,
//! timestamped on the monotonic clock. [`HistoryRing::rates`] then
//! pairs the newest snapshot with the oldest one inside a window and
//! reports `(new − old) / Δt` per counter.
//!
//! Counters-only capture also keeps golden transcripts honest: the
//! set of nonzero counters is a pure function of the command sequence,
//! so a scripted session produces the same rate *lines* every run
//! (only the numeric rates vary, and those are masked).
//!
//! ```
//! use cq_obs::{HistoryRing, Registry};
//! use std::time::Duration;
//!
//! let reg = Registry::new();
//! let ring = HistoryRing::new(8);
//! reg.scope("db.t").counter("cmd.count.calls").add(5);
//! ring.capture(&reg);
//! std::thread::sleep(Duration::from_millis(5));
//! reg.scope("db.t").counter("cmd.count.calls").add(5);
//! ring.capture(&reg);
//! let report = ring.rates(None, Some("db.t")).unwrap();
//! assert_eq!(report.snapshots, 2);
//! assert!(report.rates[0].2 > 0.0);
//! ```

use crate::registry::Registry;
use std::collections::{BTreeMap, VecDeque};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// One timestamped counters capture: `scope → name → value`.
#[derive(Debug, Clone)]
pub struct MetricsSnapshot {
    /// Monotonic offset from the ring's creation.
    pub at: Duration,
    /// Nonzero counters at capture time, by scope then metric name.
    pub counters: BTreeMap<String, BTreeMap<String, u64>>,
}

#[derive(Debug)]
struct RingState {
    cap: usize,
    snaps: VecDeque<MetricsSnapshot>,
}

/// Ring buffer of [`MetricsSnapshot`]s; capacity 0 disables capture.
#[derive(Debug)]
pub struct HistoryRing {
    epoch: Instant,
    state: Mutex<RingState>,
}

/// What [`HistoryRing::rates`] hands back.
#[derive(Debug, Clone)]
pub struct RateReport {
    /// Time between the two snapshots actually compared.
    pub span: Duration,
    /// Snapshots currently retained in the ring.
    pub snapshots: usize,
    /// `(scope, metric, per-second rate)` rows, scope- then
    /// name-ordered.
    pub rates: Vec<(String, String, f64)>,
}

impl HistoryRing {
    /// A ring retaining at most `cap` snapshots (0 = capture disabled).
    pub fn new(cap: usize) -> Self {
        HistoryRing {
            epoch: Instant::now(),
            state: Mutex::new(RingState { cap, snaps: VecDeque::new() }),
        }
    }

    /// The configured retention bound.
    pub fn capacity(&self) -> usize {
        self.state.lock().unwrap().cap
    }

    /// Snapshots currently retained.
    pub fn len(&self) -> usize {
        self.state.lock().unwrap().snaps.len()
    }

    /// Is the ring empty (or disabled)?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Capture the registry's nonzero counters now. No-op when the
    /// capacity is 0.
    pub fn capture(&self, reg: &Registry) {
        self.capture_at(reg, self.epoch.elapsed());
    }

    /// [`HistoryRing::capture`] stamped `at` past the ring's creation —
    /// the clock is the caller's, so window arithmetic is testable
    /// without sleeping.
    fn capture_at(&self, reg: &Registry, at: Duration) {
        let mut counters: BTreeMap<String, BTreeMap<String, u64>> = BTreeMap::new();
        for (scope, name, value) in reg.counters_snapshot() {
            counters.entry(scope).or_default().insert(name, value);
        }
        let mut s = self.state.lock().unwrap();
        if s.cap == 0 {
            return;
        }
        while s.snaps.len() >= s.cap {
            s.snaps.pop_front();
        }
        s.snaps.push_back(MetricsSnapshot { at, counters });
    }

    /// A copy of the retained snapshots, oldest first (for tests and
    /// independent recomputation).
    pub fn snapshots(&self) -> Vec<MetricsSnapshot> {
        self.state.lock().unwrap().snaps.iter().cloned().collect()
    }

    /// Per-counter rates between the newest snapshot and the oldest
    /// one no more than `window` older (the oldest overall when
    /// `window` is `None`). `scope` restricts the report to one scope.
    ///
    /// Returns `None` when fewer than two comparable snapshots exist
    /// or the pair is not measurably apart in time. Counters present
    /// in the old snapshot but absent from the new (a dropped tenant)
    /// are omitted; counters new since the old snapshot rate from 0.
    pub fn rates(
        &self,
        window: Option<Duration>,
        scope: Option<&str>,
    ) -> Option<RateReport> {
        let s = self.state.lock().unwrap();
        let newest = s.snaps.back()?;
        let base = s
            .snaps
            .iter()
            .take(s.snaps.len() - 1)
            .find(|snap| window.is_none_or(|w| newest.at - snap.at <= w))?;
        let dt = newest.at - base.at;
        if dt.is_zero() {
            return None;
        }
        let secs = dt.as_secs_f64();
        let mut rates = Vec::new();
        for (scope_name, metrics) in &newest.counters {
            if scope.is_some_and(|f| f != scope_name.as_str()) {
                continue;
            }
            let old_scope = base.counters.get(scope_name);
            for (name, new_v) in metrics {
                let old_v = old_scope.and_then(|m| m.get(name)).copied().unwrap_or(0);
                let delta = new_v.saturating_sub(old_v);
                rates.push((scope_name.clone(), name.clone(), delta as f64 / secs));
            }
        }
        Some(RateReport { span: dt, snapshots: s.snaps.len(), rates })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread::sleep;

    #[test]
    fn needs_two_snapshots() {
        let reg = Registry::new();
        let ring = HistoryRing::new(4);
        assert!(ring.rates(None, None).is_none());
        reg.scope("db.a").counter("x").inc();
        ring.capture(&reg);
        assert_eq!(ring.len(), 1);
        assert!(ring.rates(None, None).is_none());
    }

    #[test]
    fn zero_capacity_disables_capture() {
        let reg = Registry::new();
        let ring = HistoryRing::new(0);
        reg.scope("db.a").counter("x").inc();
        ring.capture(&reg);
        assert!(ring.is_empty());
    }

    #[test]
    fn rate_matches_independent_recomputation() {
        let reg = Registry::new();
        let ring = HistoryRing::new(4);
        let c = reg.scope("db.a").counter("cmd.count.calls");
        c.add(3);
        ring.capture(&reg);
        sleep(Duration::from_millis(5));
        c.add(7);
        ring.capture(&reg);
        let report = ring.rates(None, Some("db.a")).unwrap();
        assert_eq!(report.snapshots, 2);
        // recompute from the raw snapshots the ring exposes
        let snaps = ring.snapshots();
        let dt = (snaps[1].at - snaps[0].at).as_secs_f64();
        let old = snaps[0].counters["db.a"]["cmd.count.calls"];
        let new = snaps[1].counters["db.a"]["cmd.count.calls"];
        let expect = (new - old) as f64 / dt;
        assert_eq!(report.rates.len(), 1);
        let (scope, name, rate) = &report.rates[0];
        assert_eq!(scope, "db.a");
        assert_eq!(name, "cmd.count.calls");
        assert!(*rate > 0.0);
        assert!((rate - expect).abs() < 1e-9);
    }

    #[test]
    fn window_picks_oldest_inside_it() {
        let reg = Registry::new();
        let ring = HistoryRing::new(8);
        let c = reg.scope("s").counter("x");
        for ms in [0, 10, 20] {
            c.inc();
            ring.capture_at(&reg, Duration::from_millis(ms));
        }
        let all = ring.rates(None, None).unwrap();
        assert_eq!(all.span, Duration::from_millis(20));
        // the tight window skips the oldest snapshot
        let tight = ring.rates(Some(Duration::from_millis(15)), None).unwrap();
        assert_eq!(tight.span, Duration::from_millis(10));
        // a window is inclusive of a snapshot exactly that old
        let exact = ring.rates(Some(Duration::from_millis(20)), None).unwrap();
        assert_eq!(exact.span, Duration::from_millis(20));
        // a window smaller than any gap finds no base snapshot
        assert!(ring.rates(Some(Duration::from_millis(9)), None).is_none());
    }

    #[test]
    fn capacity_evicts_oldest() {
        let reg = Registry::new();
        let ring = HistoryRing::new(2);
        let c = reg.scope("s").counter("x");
        for _ in 0..4 {
            c.inc();
            ring.capture(&reg);
            sleep(Duration::from_millis(2));
        }
        assert_eq!(ring.len(), 2);
        let snaps = ring.snapshots();
        assert_eq!(snaps[1].counters["s"]["x"], 4);
        assert_eq!(snaps[0].counters["s"]["x"], 3);
    }

    #[test]
    fn dropped_scope_vanishes_new_counter_rates_from_zero() {
        let reg = Registry::new();
        let ring = HistoryRing::new(4);
        reg.scope("db.gone").counter("x").inc();
        ring.capture(&reg);
        sleep(Duration::from_millis(3));
        reg.drop_scope("db.gone");
        reg.scope("db.new").counter("y").add(4);
        ring.capture(&reg);
        let report = ring.rates(None, None).unwrap();
        assert_eq!(report.rates.len(), 1);
        assert_eq!(report.rates[0].0, "db.new");
        assert!(report.rates[0].2 > 0.0);
    }
}
