//! Result files: what a full run writes to `bench/results/<label>.json`,
//! reading it back, the one-line result the driver reads, and `diff`.

use crate::json::Json;
use crate::spec::{self, Better};
use crate::stats;
use crate::workloads::{Metrics, Outcome};
use std::collections::BTreeMap;

pub const SCHEMA: &str = "cqbench/1";

/// One metric over the runs of a set: every run's value, their median,
/// quartiles (Python's `statistics.quantiles(n=4)`), and the
/// interquartile distance as a share of the median.
pub fn fold(unit: &str, values: &[f64]) -> Json {
    let (q1, q3) = match stats::quartiles(values) {
        Some((q1, _, q3)) => (Json::Num(q1), Json::Num(q3)),
        None => (Json::Null, Json::Null),
    };
    Json::obj()
        .with("unit", unit)
        .with("median", stats::median(values).unwrap_or(f64::NAN))
        .with("q1", q1)
        .with("q3", q3)
        .with("spread", stats::spread(values))
        .with("runs", values.to_vec())
}

fn fold_all(runs: &[&Metrics]) -> Json {
    let mut by_name: BTreeMap<&str, (&'static str, Vec<f64>)> = BTreeMap::new();
    for metrics in runs {
        for (name, m) in metrics.iter() {
            by_name.entry(name).or_insert((m.unit, Vec::new())).1.push(m.value);
        }
    }
    let mut out = Json::obj();
    for (name, (unit, values)) in by_name {
        out.set(name, fold(unit, &values));
    }
    out
}

/// The section of a result file for one workload's set of runs.
pub fn workload_section(why: &str, outcomes: &[Outcome]) -> Json {
    let first = &outcomes[0];
    let e2e: Vec<&Metrics> = outcomes.iter().map(|o| &o.metrics).collect();
    let failures: Vec<String> =
        outcomes.iter().flat_map(|o| o.failures.iter().cloned()).take(10).collect();
    let by_label: Vec<Json> = first
        .by_label
        .iter()
        .map(|(label, n, p50)| {
            Json::obj().with("label", *label).with("ops", *n).with("p50_ms", *p50)
        })
        .collect();
    Json::obj()
        .with("why", why)
        .with("clients", first.clients)
        .with("cqd_flags", first.cqd_flags.clone())
        .with("attempted", outcomes.iter().map(|o| o.attempted).sum::<u64>())
        .with("failed", outcomes.iter().map(|o| o.failed).sum::<u64>())
        .with("failures", failures)
        .with("end_to_end", fold_all(&e2e))
        .with("by_label", by_label)
}

/// Everything about the run that is not a measurement.
pub struct Meta {
    pub label: String,
    pub seed: u64,
    pub seconds: f64,
    pub runs: usize,
    pub quick: bool,
}

pub fn git_commit() -> String {
    std::process::Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(std::process::Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_string(), |s| s.trim().to_string())
}

pub fn header(meta: &Meta) -> Json {
    Json::obj()
        .with("schema", SCHEMA)
        .with("label", meta.label.as_str())
        .with("seed", meta.seed)
        .with("git_commit", git_commit())
        .with(
            "available_parallelism",
            std::thread::available_parallelism().map_or(0, |n| n.get()),
        )
        .with("run_seconds", meta.seconds)
        .with("runs_per_workload", meta.runs)
        // a --quick run is ~1/20 size: it proves the harness works and
        // must never be compared with a full run
        .with("comparable", !meta.quick)
}

/// The line the driver reads: exactly `correct`, `attempted`, `failed`
/// and `metrics`, the latter holding exactly the `wanted` names.
pub fn driver_line(
    attempted: u64,
    failed: u64,
    wanted: &[String],
    have: &Metrics,
) -> Result<Json, String> {
    let mut metrics = Json::obj();
    for name in wanted {
        let m =
            have.get(name).ok_or_else(|| format!("metric `{name}` was not measured"))?;
        if !m.value.is_finite() {
            return Err(format!("metric `{name}` is not a number"));
        }
        metrics.set(name, Json::obj().with("value", m.value).with("unit", m.unit));
    }
    Ok(Json::obj()
        .with("correct", failed == 0)
        .with("attempted", attempted.max(1))
        .with("failed", failed)
        .with("metrics", metrics))
}

/// `cqbench diff a.json b.json`: every end-to-end metric × workload of
/// `b` against `a`, judged by the bounds in `BENCHMARK.json`. Returns
/// the report and whether it found a regression or a schema mismatch.
pub fn diff(a: &Json, b: &Json, benchmark: &Json) -> (String, bool) {
    let mut out = String::new();
    let mut bad = false;
    let mut say = |line: String| {
        out.push_str(&line);
        out.push('\n');
    };
    for (side, file) in [("a", a), ("b", b)] {
        if file.get("schema").and_then(Json::as_str) != Some(SCHEMA) {
            return (format!("{side}: not a {SCHEMA} result file\n"), true);
        }
        if file.get("comparable").and_then(Json::as_bool) != Some(true) {
            say(format!("{side}: a --quick run; its numbers are not comparable"));
            bad = true;
        }
    }
    // name → (bound, direction) of the gated metrics
    let gated: BTreeMap<String, (f64, Better)> = benchmark
        .get("end_to_end")
        .map(Json::items)
        .unwrap_or_default()
        .iter()
        .filter_map(|m| {
            let better = match m.get("better")?.as_str()? {
                "higher" => Better::Higher,
                _ => Better::Lower,
            };
            Some((
                m.get("name")?.as_str()?.to_string(),
                (m.get("bound")?.as_f64()?, better),
            ))
        })
        .collect();
    let direction: BTreeMap<String, Better> = spec::end_to_end_where_defined()
        .into_iter()
        .map(|m| (m.name, m.better))
        .chain(gated.iter().map(|(n, (_, b))| (n.clone(), *b)))
        .collect();

    let workloads = |f: &Json| -> Vec<String> {
        f.get("workloads").map_or(Vec::new(), |w| {
            w.fields().iter().map(|(name, _)| name.clone()).collect()
        })
    };
    let (wa, wb) = (workloads(a), workloads(b));
    if wa != wb {
        say(format!("schema mismatch: workloads {wa:?} vs {wb:?}"));
        return (out, true);
    }
    for w in &wa {
        let section = |f: &Json| f.get("workloads")?.get(w)?.get("end_to_end").cloned();
        let (Some(ea), Some(eb)) = (section(a), section(b)) else {
            say(format!("{w}: schema mismatch: no end_to_end section"));
            bad = true;
            continue;
        };
        let names = |e: &Json| -> Vec<String> {
            e.fields().iter().map(|(n, _)| n.clone()).collect()
        };
        if names(&ea) != names(&eb) {
            say(format!(
                "{w}: schema mismatch: metrics {:?} vs {:?}",
                names(&ea),
                names(&eb)
            ));
            bad = true;
            continue;
        }
        let mut cells = Vec::new();
        for (name, ma) in ea.fields() {
            let mb = eb.get(name).expect("same names");
            let num = |m: &Json, k: &str| m.get(k).and_then(Json::as_f64).unwrap_or(0.0);
            let (base, new) = (num(ma, "median"), num(mb, "median"));
            let better = direction.get(name).copied().unwrap_or(Better::Lower);
            let worse = better.worsening(base, new);
            let spread = num(ma, "spread").max(num(mb, "spread"));
            let verdict = match gated.get(name) {
                // reported where defined, never gated
                None => "",
                Some((bound, _)) if spread > *bound => " unresolved",
                Some((bound, _)) if worse > *bound => {
                    bad = true;
                    " REGRESSION"
                }
                Some((bound, _)) if worse < -*bound => " improved",
                Some(_) => " ok",
            };
            // `+ 0.0` turns a negative zero into a plain one
            cells.push(format!("{name} {:+.1}%{verdict}", -worse * 100.0 + 0.0));
        }
        say(format!("{w:<15} {}", cells.join(" | ")));
    }
    say("(+ is better, - is worse, in the metric's own direction; `unresolved`: the recorded \
         run-to-run spread exceeds the metric's bound)"
        .to_string());
    (out, bad)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::put;

    fn file(ops: &[f64], p50: &[f64], extra_metric: bool) -> Json {
        let mut e2e = Json::obj()
            .with("ops_per_s", fold("1/s", ops))
            .with("op_p50_ms", fold("ms", p50));
        if extra_metric {
            e2e.set("rows_per_s", fold("1/s", &[1.0, 1.0]));
        }
        let meta = Meta {
            label: "t".into(),
            seed: 1,
            seconds: 10.0,
            runs: ops.len(),
            quick: false,
        };
        header(&meta).with(
            "workloads",
            Json::obj().with("warm_read", Json::obj().with("end_to_end", e2e)),
        )
    }

    #[test]
    fn result_schema_round_trips() {
        let f = file(&[100.0, 101.0, 99.0], &[3.0, 3.1, 2.9], true);
        let back = Json::parse(&f.to_pretty()).unwrap();
        assert_eq!(back, f);
        let m = back.get("workloads").unwrap().get("warm_read").unwrap();
        let ops = m.get("end_to_end").unwrap().get("ops_per_s").unwrap();
        assert_eq!(ops.get("median").unwrap().as_f64(), Some(100.0));
        assert_eq!(ops.get("unit").unwrap().as_str(), Some("1/s"));
        assert_eq!(ops.get("runs").unwrap().items().len(), 3);
    }

    #[test]
    fn diff_flags_regressions_spread_and_schema_drift() {
        let bench = spec::benchmark_json();
        let base = file(&[100.0, 101.0, 99.0], &[3.0, 3.02, 2.98], false);
        // within bounds
        let same = file(&[98.0, 99.0, 97.0], &[3.05, 3.06, 3.04], false);
        let (text, bad) = diff(&base, &same, &bench);
        assert!(!bad, "{text}");
        assert!(text.contains("ops_per_s -2.0% ok"), "{text}");
        // 40 % fewer ops/s: worse than the bound
        let slow = file(&[60.0, 61.0, 59.0], &[3.0, 3.02, 2.98], false);
        let (text, bad) = diff(&base, &slow, &bench);
        assert!(bad && text.contains("ops_per_s -40.0% REGRESSION"), "{text}");
        // the same move inside a spread wider than the bound: unresolved
        let noisy = file(&[60.0, 120.0, 30.0], &[3.0, 3.02, 2.98], false);
        let (text, bad) = diff(&base, &noisy, &bench);
        assert!(!bad && text.contains("unresolved"), "{text}");
        // an extra metric name is schema drift
        let drifted = file(&[100.0, 101.0, 99.0], &[3.0, 3.02, 2.98], true);
        let (text, bad) = diff(&base, &drifted, &bench);
        assert!(bad && text.contains("schema mismatch"), "{text}");
    }

    #[test]
    fn driver_line_has_exactly_the_contract_keys() {
        let mut have = Metrics::new();
        put(&mut have, "ops_per_s", "1/s", 123.456);
        put(&mut have, "setup_s", "s", 0.8127);
        put(&mut have, "extra", "ms", 1.0);
        let wanted = vec!["ops_per_s".to_string(), "setup_s".to_string()];
        let line = driver_line(1000, 0, &wanted, &have).unwrap();
        let keys: Vec<&str> = line.fields().iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(line.get("metrics").unwrap().fields().len(), 2);
        assert!(!line.to_line().contains('\n'));
        let missing = vec!["nope".to_string()];
        assert!(driver_line(1, 0, &missing, &have).is_err());
    }
}
