//! The verbs that observe: `STATS`, `METRICS [RATE]`, `PROFILE`.

use super::session::{Handled, Session};
use crate::metrics;
use crate::protocol::Reply;
use crate::state::Tenant;
use cq_obs::trace::{QueryTrace, Span};
use std::time::Duration;

/// Append a trace's span tree to `data`, one line per span in
/// pre-order: `head(depth, span)` followed by the span's recorded
/// attributes as ` key=value` pairs.
pub(super) fn push_span_lines(
    data: &mut Vec<String>,
    trace: &QueryTrace,
    head: impl Fn(usize, &Span) -> String,
) {
    trace.visit(|depth, sp| {
        let mut line = head(depth, sp);
        for (k, v) in &sp.attrs {
            line.push_str(&format!(" {k}={v}"));
        }
        data.push(line);
    });
}

impl Session {
    pub(super) fn stats_summary(&mut self) -> Handled {
        let mut data = vec![
            format!("tenants: {}", self.state.n_tenants()),
            format!("using: {}", self.current.as_ref().map_or("-", |t| t.name())),
        ];
        for t in self.state.tenants() {
            let (rels, tuples) = t.sizes();
            data.push(format!("db {}: {rels} relations, {tuples} tuples", t.name()));
        }
        Ok(Reply::ok_with(data, ""))
    }

    /// `STATS <name>`: relation count, total rows, generation, the
    /// per-relation schema, and durability status — enough to verify a
    /// recovery (or any mutation) without querying data.
    pub(super) fn stats_detail(&mut self, tenant: &Tenant) -> Handled {
        let name = tenant.name();
        let d = tenant.detail();
        let mut data = vec![format!(
            "db {name}: {} relations, {} tuples, generation {}",
            d.n_relations, d.n_tuples, d.generation
        )];
        for (rel, arity, rows) in &d.relations {
            data.push(format!("rel {rel}: arity {arity}, {rows} rows"));
        }
        let (cat, _) = tenant.read_meta();
        data.push(format!(
            "catalog: {} hits, {} misses, {} invalidations, {} cap-evictions; \
             memo {} views, {} artifacts, {} view-bytes",
            cat.hits,
            cat.misses,
            cat.invalidations,
            cat.cap_evictions,
            cat.views,
            cat.artifacts,
            cat.view_bytes
        ));
        // windowed traffic rates from the metrics history ring: total
        // command QPS and error rate for this tenant, over the ring's
        // full span. `n/a` until two snapshots exist (`METRICS RATE` or
        // the periodic dumper capture them).
        let scope_name = tenant.metrics().scope_name();
        match self.state.metrics().history().rates(None, Some(scope_name)) {
            Some(report) => {
                // fold from +0.0: an empty `Sum<f64>` is -0.0, which
                // would render as `-0.000/s` for an idle tenant
                let rate_of = |counts: fn(&str) -> bool| {
                    let counted = report.rates.iter().filter(|(_, n, _)| counts(n));
                    counted.fold(0.0, |acc, (_, _, r)| acc + r)
                };
                let qps = rate_of(|n| n.starts_with("cmd.") && n.ends_with(".calls"));
                let errs = rate_of(|n| n == "errors");
                data.push(format!(
                    "traffic: qps={qps:.3}/s err-rate={errs:.3}/s over {:.3}s",
                    report.span.as_secs_f64()
                ));
            }
            None => data.push("traffic: n/a (need 2 metric snapshots)".to_string()),
        }
        match (d.wal_bytes, self.state.store()) {
            (Some(wal), Some(store)) => {
                let snap = store
                    .snapshot_size(name)
                    .ok()
                    .flatten()
                    .map_or("none".to_string(), |b| format!("{b} bytes"));
                data.push(format!("storage: wal {wal} bytes, snapshot {snap}"));
            }
            _ => data.push("storage: none (in-memory)".to_string()),
        }
        // replica / failure-state lines appear only on replicas / when
        // something is wrong, so healthy primary transcripts (and
        // their goldens) are unchanged
        if let Some(primary) = self.state.replica_of() {
            let (lag, epoch) = tenant.metrics().replica();
            data.push(format!(
                "replica: of {primary}, epoch {}, lag {} bytes",
                epoch.get(),
                lag.get()
            ));
        }
        if d.wal_poisoned == Some(true) {
            data.push("wal: poisoned (appends refused until RESUME)".to_string());
        }
        if let Some(reason) = &d.degraded {
            data.push(format!(
                "mode: read-only (degraded: {reason}); RESUME {name} to restore"
            ));
        }
        Ok(Reply::ok_with(data, ""))
    }

    /// `METRICS [<name>]`: refresh derived gauges and dump the
    /// registry — every scope, or just one tenant's.
    pub(super) fn metrics_dump(&mut self, tenant: Option<&Tenant>) -> Handled {
        let lines = metrics::render(&self.state, tenant);
        let info = match tenant {
            Some(t) => format!("metrics for {}", t.name()),
            None => "metrics".to_string(),
        };
        Ok(Reply::ok_with(lines, info))
    }

    /// `METRICS RATE [<name>] [<window-s>]`: capture a counter snapshot
    /// into the history ring, then difference the newest snapshot
    /// against the oldest one inside the window into per-second rates.
    /// Two captures are needed before any rate exists — the first call
    /// seeds the ring and reports `n/a`.
    pub(super) fn metrics_rate(
        &mut self,
        tenant: Option<&Tenant>,
        window_s: Option<u64>,
    ) -> Handled {
        let shared = self.state.metrics();
        shared.capture_history();
        let window = window_s.map(Duration::from_secs);
        let scope = tenant.map(|t| t.metrics().scope_name());
        let data = match shared.history().rates(window, scope) {
            None => vec!["rate: n/a (need 2 metric snapshots)".to_string()],
            Some(report) => {
                let mut data = vec![format!(
                    "window={:.6}s snapshots={}",
                    report.span.as_secs_f64(),
                    report.snapshots
                )];
                for (scope, name, rate) in &report.rates {
                    data.push(format!("{scope} {name} rate={rate:.3}/s"));
                }
                data
            }
        };
        Ok(Reply::ok_with(data, "metrics-rate"))
    }

    /// `PROFILE <name>`: a tenant's retained query traces, oldest
    /// first — one `trace …` header per query, then its span tree as
    /// `span depth=… name=… ns=…` lines (machine-ish on purpose; cqsh
    /// pretty-prints them). Requires `cqd --profile N` (the gate's
    /// `Access::Traces` check).
    pub(super) fn profile(&mut self, tenant: &Tenant) -> Handled {
        let traces = tenant.metrics().recent_traces();
        let mut data = Vec::new();
        for tr in &traces {
            data.push(format!(
                "trace db={} spans={} total-ns={} query={:?}",
                tr.db,
                tr.span_count(),
                tr.total.as_nanos(),
                tr.query
            ));
            push_span_lines(&mut data, tr, |depth, sp| {
                format!(
                    "span depth={depth} name={} ns={}",
                    sp.name,
                    sp.elapsed.as_nanos()
                )
            });
        }
        let n = traces.len();
        Ok(Reply::ok_with(data, format!("{n} traces")))
    }
}

#[cfg(test)]
mod tests {
    use crate::server::testkit::{drive, session, warm_triangle};
    use std::time::Duration;

    #[test]
    fn stats_detail_reports_schema_generation_and_storage() {
        let mut s = session();
        s.handle_line("CREATE DB t");
        s.handle_line("USE t");
        drive(&mut s, &["LOAD Edge 2", "1 2", "2 3", "END"]);
        s.handle_line("INSERT Name(7)");
        let r = s.handle_line("STATS t").unwrap();
        assert!(r.is_ok());
        assert!(
            r.data[0].starts_with("db t: 2 relations, 3 tuples, generation "),
            "{}",
            r.data[0]
        );
        assert_eq!(r.data[1], "rel Edge: arity 2, 2 rows");
        assert_eq!(r.data[2], "rel Name: arity 1, 1 rows");
        assert!(r.data[3].starts_with("catalog: "), "{}", r.data[3]);
        assert_eq!(r.data[4], "traffic: n/a (need 2 metric snapshots)");
        assert_eq!(r.data[5], "storage: none (in-memory)");
        // generation moves on mutation, holds on reads
        let before = r.data[0].clone();
        s.handle_line("COUNT q(x, y) :- Edge(x, y)");
        assert_eq!(s.handle_line("STATS t").unwrap().data[0], before);
        s.handle_line("INSERT Name(8)");
        assert_ne!(s.handle_line("STATS t").unwrap().data[0], before);
        let r = s.handle_line("STATS nope").unwrap();
        assert_eq!(r.terminal, "ERR no-such-db: no database named `nope`");
    }

    #[test]
    fn metrics_rate_needs_two_snapshots_then_reports_qps() {
        let mut s = session();
        warm_triangle(&mut s);
        let r = s.handle_line("METRICS RATE t").unwrap();
        assert_eq!(r.data, vec!["rate: n/a (need 2 metric snapshots)"]);
        s.handle_line("COUNT q(x, y) :- R(x, y)");
        s.handle_line("COUNT q(x, y) :- R(x, y)");
        // widen the window past formatting precision before snapshot 2
        std::thread::sleep(Duration::from_millis(20));
        let r = s.handle_line("METRICS RATE t").unwrap();
        assert!(r.is_ok(), "{}", r.terminal);
        assert!(r.data[0].starts_with("window="), "{:?}", r.data);
        assert!(r.data[0].contains("snapshots=2"), "{:?}", r.data);
        // independently recompute the COUNT qps: two calls since the
        // baseline snapshot over the reported window
        let count_line = r
            .data
            .iter()
            .find(|l| l.contains("cmd.count.calls"))
            .unwrap_or_else(|| panic!("no count rate in {:?}", r.data));
        let rate: f64 = count_line
            .rsplit("rate=")
            .next()
            .and_then(|t| t.strip_suffix("/s"))
            .and_then(|t| t.parse().ok())
            .unwrap_or_else(|| panic!("unparsable rate line {count_line}"));
        let window: f64 = r.data[0]
            .strip_prefix("window=")
            .and_then(|t| t.split('s').next())
            .and_then(|t| t.parse().ok())
            .unwrap();
        assert!(rate > 0.0, "qps must be nonzero: {count_line}");
        let expected = 2.0 / window;
        assert!(
            (rate - expected).abs() / expected < 0.05,
            "rate {rate} should recompute as 2/{window}s = {expected}"
        );
        // a bounded window: far wider than the test's runtime, so the
        // same baseline applies and a report still comes back
        let r = s.handle_line("METRICS RATE t 3600").unwrap();
        assert!(r.is_ok() && r.data[0].starts_with("window="), "{:?}", r.data);
        // unknown tenants are refused
        let r = s.handle_line("METRICS RATE nope").unwrap();
        assert!(r.terminal.starts_with("ERR no-such-db"), "{}", r.terminal);
    }

    #[test]
    fn profile_gates_on_tracing_and_retains_traces() {
        let mut s = session();
        warm_triangle(&mut s);
        let r = s.handle_line("PROFILE t").unwrap();
        assert!(r.terminal.starts_with("ERR tracing-off:"), "{}", r.terminal);
        // enable tracing (as `cqd --profile 2` would) and run queries
        s.state.set_profile_capacity(2);
        s.handle_line("COUNT q(x, y) :- R(x, y)");
        s.handle_line("ANSWERS q(x, y) :- R(x, y)");
        s.handle_line("DECIDE q() :- R(x, y)");
        let r = s.handle_line("PROFILE t").unwrap();
        assert_eq!(r.terminal, "OK 2 traces", "capacity evicts oldest");
        let headers: Vec<&String> =
            r.data.iter().filter(|l| l.starts_with("trace db=t ")).collect();
        assert_eq!(headers.len(), 2, "{:?}", r.data);
        assert!(
            headers[0].contains("query=\"ANSWERS q(x, y) :- R(x, y)\""),
            "oldest retained is the ANSWERS flow (labelled by its line): {}",
            headers[0]
        );
        assert!(headers[1].contains("query=\"DECIDE q() :- R(x, y)\""), "{}", headers[1]);
        // span lines carry depth, name, elapsed, and recorded attrs
        assert!(
            r.data.iter().any(|l| l.starts_with("span depth=0 name=execute ns=")),
            "{:?}",
            r.data
        );
        assert!(
            r.data.iter().any(|l| l.starts_with("span ") && l.contains("name=stream.")),
            "the ANSWERS drain records its stream span: {:?}",
            r.data
        );
        // tracing off again clears retained traces
        s.state.set_profile_capacity(0);
        let r = s.handle_line("PROFILE t").unwrap();
        assert!(r.terminal.starts_with("ERR tracing-off:"), "{}", r.terminal);
    }
}
