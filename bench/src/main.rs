//! `cqbench` — the wire-level benchmark for `cqd`.
//!
//! ```text
//! cqbench --workload W --seed N --seconds S --trace 0|1   one run; the last stdout line is the result
//! cqbench [--seed N] [--runs R] [--seconds S] [--label L] [--traced] [--quick]
//!                                                         every workload; writes results/<L>.json
//! cqbench diff <a.json> <b.json>                          compare two result files
//! cqbench spec                                            print BENCHMARK.json
//! ```
//!
//! Common options: `--cqd <path>` (default `../target/release/cqd`
//! beside this package), `--scratch <dir>` (default: next to this
//! executable), `--out <dir>` (default `bench/results`).

mod data;
mod json;
mod layers;
mod ops;
mod oracle;
mod report;
mod scrape;
mod spec;
mod stats;
mod trace;
mod wire;
mod workloads;

use json::Json;
use std::path::PathBuf;
use std::process::ExitCode;
use workloads::{Config, Metrics, Outcome};

const USAGE: &str = "usage: cqbench [--workload W --trace 0|1] [--seed N] [--seconds S] \
    [--runs R] [--label L] [--traced] [--quick] [--cqd PATH] [--scratch DIR] [--out DIR]\n       \
    cqbench diff <a.json> <b.json> [--benchmark BENCHMARK.json]\n       cqbench spec";

/// Where this package lives (the checkout it was built in).
const PACKAGE_DIR: &str = env!("CARGO_MANIFEST_DIR");

struct Args {
    workload: Option<String>,
    trace: Option<bool>,
    seed: u64,
    seconds: Option<f64>,
    runs: usize,
    label: Option<String>,
    traced: bool,
    quick: bool,
    cqd: PathBuf,
    scratch: PathBuf,
    out: PathBuf,
}

fn parse_args(args: &[String]) -> Result<Args, String> {
    let exe_dir = std::env::current_exe()
        .ok()
        .and_then(|p| p.parent().map(PathBuf::from))
        .unwrap_or_else(|| PathBuf::from("."));
    let mut a = Args {
        workload: None,
        trace: None,
        seed: 42,
        seconds: None,
        runs: 1,
        label: None,
        traced: false,
        quick: false,
        cqd: PathBuf::from(PACKAGE_DIR).join("../target/release/cqd"),
        scratch: exe_dir.join("cqbench-tmp"),
        out: PathBuf::from(PACKAGE_DIR).join("results"),
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let mut value =
            || it.next().ok_or_else(|| format!("{flag} needs a value")).cloned();
        let number =
            |v: String| v.parse::<f64>().map_err(|_| format!("{flag}: bad number `{v}`"));
        match flag.as_str() {
            "--workload" => a.workload = Some(value()?),
            "--trace" => a.trace = Some(value()? == "1"),
            "--seed" => a.seed = number(value()?)? as u64,
            "--seconds" => a.seconds = Some(number(value()?)?),
            "--runs" => a.runs = (number(value()?)? as usize).max(1),
            "--label" => a.label = Some(value()?),
            "--traced" => a.traced = true,
            "--quick" => a.quick = true,
            "--cqd" => a.cqd = PathBuf::from(value()?),
            "--scratch" => a.scratch = PathBuf::from(value()?),
            "--out" => a.out = PathBuf::from(value()?),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if a.seconds.is_some_and(|s| s.is_nan() || s <= 0.0) {
        return Err("--seconds must be positive".into());
    }
    Ok(a)
}

fn config(a: &Args, traced: bool) -> Config {
    let default_seconds = if a.quick { 0.5 } else { spec::RUN_SECONDS as f64 };
    Config {
        cqd: a.cqd.clone(),
        scratch: a.scratch.clone(),
        seed: a.seed,
        seconds: a.seconds.unwrap_or(default_seconds),
        quick: a.quick,
        traced,
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let result = match args.first().map(String::as_str) {
        Some("diff") => diff(&args[1..]),
        Some("spec") => {
            print!("{}", spec::benchmark_json().to_pretty());
            Ok(true)
        }
        Some("-h" | "--help") => {
            println!("{USAGE}");
            Ok(true)
        }
        _ => parse_args(&args).and_then(|a| match a.workload.clone() {
            Some(w) => one_run(&a, &w),
            None => full_run(&a),
        }),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("cqbench: {e}\n{USAGE}");
            ExitCode::from(2)
        }
    }
}

fn show(out: &Outcome) {
    eprintln!(
        "{}: {} clients, {} attempted, {} failed",
        out.workload, out.clients, out.attempted, out.failed
    );
    for f in &out.failures {
        eprintln!("  FAILED {f}");
    }
    show_metrics(&out.metrics);
    for (label, n, p50) in &out.by_label {
        eprintln!("    {label:<24} {n:>8} ops   p50 {p50:>10.4} ms");
    }
}

fn show_metrics(metrics: &Metrics) {
    for (name, m) in metrics {
        eprintln!("  {name:<44} {:>16.4} {}", m.value, m.unit);
    }
}

/// The traced leg of one workload: the workload against `cqd --profile
/// 64` for half the window, then the in-process replay. Returns the
/// outcome (its `layer` metrics filled) and the workload's trace section.
fn traced_run(
    a: &Args,
    workload: &str,
    untraced: Option<&Outcome>,
) -> Result<(Outcome, Json), String> {
    let mut cfg = config(a, true);
    cfg.seconds /= 2.0;
    let mut out = workloads::run(workload, &cfg)?;
    let rate = out.metrics.get("ops_per_s").map_or(0.0, |m| m.value);
    workloads::put(&mut out.layer, "obs.traced_ops_per_s", "1/s", rate);
    let script = workloads::script(workload, &cfg)?;
    let sample_every = match workload {
        "tiny_rpc" | "durable_ingest" => 16,
        "stream_answers" => 8,
        _ => 2,
    };
    let replay = trace::replay(&script, &cfg, sample_every)?;
    let mut section = trace::attribute(
        &out.samples,
        &replay,
        untraced.map(|o| o.by_label.as_slice()),
        &mut out.layer,
    );
    section.set("requests", trace::request_spans(workload, &out.samples, 100, a.seed));
    let spans: Vec<Json> = replay.spans.iter().map(trace::Span::to_json).collect();
    section.set("replay_spans", spans);
    Ok((out, section))
}

fn flag_fits(layer: &Metrics) {
    for shape in spec::SWEEP_SHAPES {
        let get = |k: &str| layer.get(&format!("{k}.{shape}")).map(|m| m.value);
        if let (Some(fit), Some(predicted)) =
            (get("engine.fit_exponent"), get("planner.predicted_exponent"))
        {
            let flag = if fit > predicted + layers::FIT_SLACK {
                "  <-- above prediction"
            } else {
                ""
            };
            eprintln!(
                "  fit {shape:<18} observed m^{fit:.2} (worst residual x{:.1}) vs planned \
                 m^{predicted:.2}{flag}",
                get("engine.fit_residual_max").unwrap_or(0.0)
            );
        }
    }
}

/// Driver mode: one workload, one result line.
fn one_run(a: &Args, workload: &str) -> Result<bool, String> {
    let traced = a.trace.unwrap_or(false);
    let (attempted, failed, have, wanted): (u64, u64, Metrics, Vec<String>) = if traced {
        let (out, _) = traced_run(a, workload, None)?;
        show(&out);
        let mut problems = Vec::new();
        let mut layer = layers::run_suite(&config(a, true), &mut problems);
        for p in &problems {
            eprintln!("  NOTE {p}");
        }
        layer.extend(out.layer);
        show_metrics(&layer);
        flag_fits(&layer);
        let wanted = spec::per_layer().into_iter().map(|m| m.name).collect();
        (out.attempted, out.failed, layer, wanted)
    } else {
        let out = workloads::run(workload, &config(a, false))?;
        show(&out);
        let wanted = spec::end_to_end().into_iter().map(|(m, _)| m.name).collect();
        (out.attempted, out.failed, out.metrics, wanted)
    };
    let line = report::driver_line(attempted, failed, &wanted, &have)?;
    println!("{}", line.to_line());
    Ok(true)
}

/// Every workload, `--runs` times each; with `--traced`, each workload's
/// traced leg right after its untraced runs (so the two are compared
/// under the same weather), and the layer suite at the end.
fn full_run(a: &Args) -> Result<bool, String> {
    let meta = report::Meta {
        label: a.label.clone().unwrap_or_else(|| "run".into()),
        seed: a.seed,
        seconds: config(a, false).seconds,
        runs: a.runs,
        quick: a.quick,
    };
    let mut workloads_json = Json::obj();
    let mut traced_json = Json::obj();
    let mut clean = true;
    for (name, why) in spec::WORKLOADS {
        let mut outcomes = Vec::new();
        for run in 0..a.runs {
            eprintln!("== {name} (run {} of {})", run + 1, a.runs);
            let out = workloads::run(name, &config(a, false))?;
            show(&out);
            clean &= out.failed == 0;
            outcomes.push(out);
        }
        workloads_json.set(name, report::workload_section(why, &outcomes));
        if a.traced {
            eprintln!("== {name} (traced)");
            let (out, mut section) = traced_run(a, name, outcomes.last())?;
            show_metrics(&out.layer);
            clean &= out.failed == 0;
            section.set("per_layer", metrics_json(&out.layer));
            section.set("attempted", out.attempted);
            section.set("failed", out.failed);
            traced_json.set(name, section);
        }
    }
    let results = report::header(&meta).with("workloads", workloads_json);
    print!("{}", results.to_pretty());
    if a.label.is_some() {
        write(&a.out.join(format!("{}.json", meta.label)), &results)?;
    }
    if !a.traced {
        return Ok(clean);
    }

    eprintln!("== layer suite");
    let mut problems = Vec::new();
    let suite = layers::run_suite(&config(a, true), &mut problems);
    show_metrics(&suite);
    flag_fits(&suite);
    for m in spec::per_layer() {
        let in_every_workload = traced_json
            .fields()
            .iter()
            .all(|(_, s)| s.get("per_layer").is_some_and(|p| p.get(&m.name).is_some()));
        if !suite.contains_key(&m.name) && !in_every_workload {
            problems.push(format!("per-layer metric `{}` was not measured", m.name));
        }
    }
    // a sweep cell past its deadline is a finding, not a broken run
    clean &= problems.iter().all(|p| p.starts_with("sweep cell"));
    let trace = report::header(&meta)
        .with("suite", metrics_json(&suite))
        .with("notes", problems)
        .with("workloads", traced_json);
    if a.label.is_some() {
        write(&a.out.join(format!("{}.trace.json", meta.label)), &trace)?;
    } else {
        print!("{}", trace.to_pretty());
    }
    Ok(clean)
}

fn metrics_json(metrics: &Metrics) -> Json {
    let mut out = Json::obj();
    for (name, m) in metrics {
        out.set(name, Json::obj().with("value", m.value).with("unit", m.unit));
    }
    out
}

fn write(path: &std::path::Path, doc: &Json) -> Result<(), String> {
    if let Some(dir) = path.parent() {
        std::fs::create_dir_all(dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    }
    std::fs::write(path, doc.to_pretty())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    eprintln!("wrote {}", path.display());
    Ok(())
}

fn diff(args: &[String]) -> Result<bool, String> {
    let mut files = Vec::new();
    let mut benchmark = PathBuf::from(PACKAGE_DIR).join("../BENCHMARK.json");
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        match arg.as_str() {
            "--benchmark" => {
                benchmark = PathBuf::from(it.next().ok_or("--benchmark needs a path")?)
            }
            path => files.push(path.to_string()),
        }
    }
    let [a, b] = files.as_slice() else {
        return Err("diff takes exactly two result files".into());
    };
    let load = |path: &std::path::Path| -> Result<Json, String> {
        let text = std::fs::read_to_string(path)
            .map_err(|e| format!("{}: {e}", path.display()))?;
        Json::parse(&text).map_err(|e| format!("{}: {e}", path.display()))
    };
    let (report, bad) = report::diff(
        &load(std::path::Path::new(a))?,
        &load(std::path::Path::new(b))?,
        &load(&benchmark)?,
    );
    print!("{report}");
    Ok(!bad)
}
