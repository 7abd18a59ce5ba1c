//! The benchmark's declared surface: workloads, metrics, units,
//! directions and bounds. `BENCHMARK.json` at the repository root is
//! this table serialised (`cqbench spec` prints it; a unit test fails
//! when the two drift apart).

use crate::json::Json;

#[derive(Clone, Copy, PartialEq, Eq, Debug)]
pub enum Better {
    Lower,
    Higher,
}

impl Better {
    pub fn as_str(self) -> &'static str {
        match self {
            Better::Lower => "lower",
            Better::Higher => "higher",
        }
    }

    /// By what share of `base` is `new` worse (positive) or better
    /// (negative)?
    pub fn worsening(self, base: f64, new: f64) -> f64 {
        if base == 0.0 {
            return 0.0;
        }
        match self {
            Better::Lower => (new - base) / base.abs(),
            Better::Higher => (base - new) / base.abs(),
        }
    }
}

#[derive(Clone, Debug, PartialEq)]
pub struct MetricSpec {
    pub name: String,
    pub unit: &'static str,
    pub better: Better,
}

fn spec(name: &str, unit: &'static str, better: Better) -> MetricSpec {
    MetricSpec { name: name.to_string(), unit, better }
}

/// Seconds one run measures (the driver passes it back as `--seconds`).
pub const RUN_SECONDS: u64 = 10;

/// `(name, why)` — one line each, as recorded in `BENCHMARK.json`.
pub const WORKLOADS: &[(&str, &str)] = &[
    (
        "tiny_rpc",
        "1 connection, 16 requests in flight, 100-row tenant: engine work is nil, so socket calls + server + parse + plan-cache lookup are the whole cost; refactors and new instruments must show no change here",
    ),
    (
        "warm_read",
        "2 connections, read-only COUNT/DECIDE over warm catalog views at m=30000: operators do >90% of the work; layout and join-kernel changes claim here, storage and render do nothing",
    ),
    (
        "stream_answers",
        "1 connection: full ANSWERS drains up to 10^6 rows, FETCH paging and SEEK jumps: enumeration, render_row and socket writes dominate; a render or stream change shows here only",
    ),
    (
        "durable_ingest",
        "2 connections on cqd --data-dir --group-commit-ms 0: fsynced INSERTs, then LOAD, SAVE, kill -9 and recovery with every acked row checked; storage does the work, the engine none",
    ),
    (
        "mixed_rw",
        "2 connections, in-memory: the warm_read cycle with every 11th op an INSERT, so each write drops the whole catalog; per-relation invalidation must win here while warm_read stays flat",
    ),
    (
        "scaling_sweep",
        "1 connection: linear and m^1.5 shapes at four doubling sizes each; throughput is time-weighted, hence set by the largest cells, where observed scaling must follow the plan's exponent",
    ),
];

/// End-to-end metrics every workload reports, with the share of the
/// parent's median by which each may worsen. These are the gate.
pub fn end_to_end() -> Vec<(MetricSpec, f64)> {
    vec![
        (spec("setup_s", "s", Better::Lower), 0.25),
        (spec("ops_per_s", "1/s", Better::Higher), 0.25),
        (spec("server_rss_peak_mb", "MB", Better::Lower), 0.25),
    ]
}

/// End-to-end metrics defined only where a workload has the operation
/// they time. The full run prints them per workload; the driver's
/// contract (every metric on every workload, never 0) cannot carry
/// them, so they are reported but not gated.
pub fn end_to_end_where_defined() -> Vec<MetricSpec> {
    vec![
        spec("read_p50_ms", "ms", Better::Lower),
        spec("read_p99_ms", "ms", Better::Lower),
        spec("write_p50_ms", "ms", Better::Lower),
        spec("write_p99_ms", "ms", Better::Lower),
        spec("rows_per_s", "1/s", Better::Higher),
        spec("ttfr_p50_ms", "ms", Better::Lower),
        spec("failed_share", "ratio", Better::Lower),
        spec("recovery_s", "s", Better::Lower),
        spec("disk_bytes_per_row", "bytes", Better::Lower),
    ]
}

/// Shapes with a warm/cold execution probe.
pub const EXEC_SHAPES: &[&str] =
    &["path3_count", "path3_decide", "star3_count", "tri_count", "tri_decide"];
/// Shapes with a stream probe.
pub const STREAM_SHAPES: &[&str] = &["path3_answers", "tri_answers", "cross_answers"];
/// Shapes the in-process size sweep fits an exponent for.
pub const SWEEP_SHAPES: &[&str] =
    &["path3_count", "path3_decide", "star3_count", "tri_count", "path3_ends_count"];

/// Per-layer metrics, `layer.metric[.shape]`. No bounds: they explain
/// an end-to-end move, they do not gate.
pub fn per_layer() -> Vec<MetricSpec> {
    use Better::{Higher, Lower};
    let mut v = vec![
        // measured on the invoked workload's own traced server
        spec("server.wire_rtt_p50_us", "us", Lower),
        spec("server.wire_self_us", "us", Lower),
        spec("server.session_total_us", "us", Lower),
        spec("server.errors", "count", Lower),
        spec("obs.metrics_scrape_ms", "ms", Lower),
        spec("obs.traced_ops_per_s", "1/s", Higher),
        spec("planner.cache_hit_ratio", "ratio", Higher),
        spec("planner.cache_misses", "count", Lower),
        spec("data.catalog_hit_ratio", "ratio", Higher),
        spec("data.catalog_builds_per_query", "count", Lower),
        spec("data.catalog_invalidations", "count", Lower),
        spec("data.catalog_memo_entries", "count", Lower),
        // the layer suite: the same probes whichever workload is traced
        spec("server.parse_command_ns", "ns", Lower),
        spec("server.session_self_us", "us", Lower),
        spec("server.render_row_ns", "ns", Lower),
        spec("server.drain_rows_per_s", "1/s", Higher),
        spec("server.socket_share", "ratio", Lower),
        spec("server.bytes_per_row", "bytes", Lower),
        spec("server.load_rows_per_s", "1/s", Higher),
        spec("obs.trace_overhead_share", "ratio", Lower),
        spec("core.parse_query_ns", "ns", Lower),
        spec("planner.plan_hit_ns", "ns", Lower),
        spec("planner.plan_miss_us", "us", Lower),
        spec("data.view_build_ms", "ms", Lower),
        spec("data.stats_collect_ms", "ms", Lower),
        spec("data.normalize_rows_per_s", "1/s", Higher),
        spec("engine.access_seek_us", "us", Lower),
        spec("storage.wal_append_us", "us", Lower),
        spec("storage.wal_sync_us", "us", Lower),
        spec("storage.syncs_per_ack", "ratio", Lower),
        spec("storage.wal_bytes_per_insert", "bytes", Lower),
        spec("storage.snapshot_bytes_per_row", "bytes", Lower),
        spec("storage.checkpoint_ms", "ms", Lower),
        spec("storage.snapshot_write_mb_per_s", "MB/s", Higher),
        spec("storage.snapshot_read_mb_per_s", "MB/s", Higher),
        spec("storage.recover_rows_per_s", "1/s", Higher),
    ];
    for s in EXEC_SHAPES {
        v.push(spec(&format!("engine.exec_warm_ms.{s}"), "ms", Lower));
        v.push(spec(&format!("engine.exec_cold_ms.{s}"), "ms", Lower));
    }
    for s in STREAM_SHAPES {
        v.push(spec(&format!("engine.stream_rows_per_s.{s}"), "1/s", Higher));
        v.push(spec(&format!("engine.preprocess_ms.{s}"), "ms", Lower));
    }
    for s in SWEEP_SHAPES {
        v.push(spec(&format!("planner.predicted_exponent.{s}"), "exponent", Lower));
        v.push(spec(&format!("engine.fit_exponent.{s}"), "exponent", Lower));
        v.push(spec(&format!("engine.fit_const_ns.{s}"), "ns", Lower));
        v.push(spec(&format!("engine.fit_residual_max.{s}"), "ratio", Lower));
    }
    v
}

/// `BENCHMARK.json`, from the tables above.
pub fn benchmark_json() -> Json {
    let workloads: Vec<Json> = WORKLOADS
        .iter()
        .map(|(name, why)| Json::obj().with("name", *name).with("why", *why))
        .collect();
    let end_to_end: Vec<Json> = end_to_end()
        .into_iter()
        .map(|(m, bound)| {
            Json::obj()
                .with("name", m.name)
                .with("unit", m.unit)
                .with("better", m.better.as_str())
                .with("bound", bound)
        })
        .collect();
    let per_layer: Vec<Json> = per_layer()
        .into_iter()
        .map(|m| {
            Json::obj()
                .with("name", m.name)
                .with("unit", m.unit)
                .with("better", m.better.as_str())
        })
        .collect();
    Json::obj()
        .with("command", vec!["bash", "bench/run.sh"])
        .with("paths", vec!["bench"])
        .with("run_seconds", RUN_SECONDS)
        .with("workloads", workloads)
        .with("end_to_end", end_to_end)
        .with("per_layer", per_layer)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn name_ok(name: &str) -> bool {
        name.len() <= 64
            && name.chars().next().is_some_and(|c| c.is_ascii_alphanumeric())
            && name.chars().all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    fn unit_ok(unit: &str) -> bool {
        !unit.is_empty()
            && unit.len() <= 16
            && unit.chars().all(|c| c.is_ascii_alphanumeric() || "_/%.-".contains(c))
    }

    #[test]
    fn tables_stay_inside_the_contract_limits() {
        assert!((2..=8).contains(&WORKLOADS.len()));
        let e2e = end_to_end();
        assert!((1..=16).contains(&e2e.len()));
        let layers = per_layer();
        assert!((1..=128).contains(&layers.len()), "{} per-layer names", layers.len());
        let mut names: Vec<String> = WORKLOADS.iter().map(|w| w.0.to_string()).collect();
        names.extend(e2e.iter().map(|m| m.0.name.clone()));
        names.extend(layers.iter().map(|m| m.name.clone()));
        names.extend(end_to_end_where_defined().into_iter().map(|m| m.name));
        for n in &names {
            assert!(name_ok(n), "{n}");
        }
        let mut unique = names.clone();
        unique.sort();
        unique.dedup();
        assert_eq!(unique.len(), names.len(), "a name is used twice");
        for (m, bound) in &e2e {
            assert!(unit_ok(m.unit), "{}", m.unit);
            assert!(*bound > 0.0 && *bound <= 0.25);
        }
        for m in &layers {
            assert!(unit_ok(m.unit), "{}", m.unit);
        }
        for (_, why) in WORKLOADS {
            assert!(why.len() <= 200 && !why.contains('\n'), "{}", why.len());
        }
        let setup = &e2e.iter().find(|m| m.0.name == "setup_s").expect("setup_s").0;
        assert_eq!((setup.unit, setup.better), ("s", Better::Lower));
        assert!(benchmark_json().to_pretty().len() <= 64 * 1024);
    }

    #[test]
    fn benchmark_json_at_the_root_is_this_table() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the root");
        let on_disk = Json::parse(&text).expect("BENCHMARK.json parses");
        assert_eq!(
            on_disk,
            benchmark_json(),
            "regenerate with `cqbench spec > BENCHMARK.json`"
        );
    }

    #[test]
    fn worsening_follows_the_direction() {
        assert!((Better::Lower.worsening(10.0, 11.0) - 0.1).abs() < 1e-12);
        assert!((Better::Higher.worsening(10.0, 9.0) - 0.1).abs() < 1e-12);
        assert!(Better::Higher.worsening(10.0, 12.0) < 0.0);
    }
}
