//! `cqd` — the conjunctive-query daemon.
//!
//! ```text
//! cqd [--addr HOST:PORT] [--workers N] [--port-file PATH] [--data-dir PATH]
//!     [--metrics-interval SECS] [--slow-query-ms N] [--profile N]
//!     [--group-commit-ms N] [--auto-save-bytes N] [--replica-of HOST:PORT]
//! ```
//!
//! Binds (default `127.0.0.1:7878`; use port 0 for an ephemeral port),
//! prints `cqd listening on <addr>`, optionally writes the resolved
//! address to `--port-file` (so scripts can find an ephemeral port),
//! and serves until killed.
//!
//! `--workers N` (default: the number of cores) admits at most 9·N live
//! sessions, each on a thread of its own; a connection past that is
//! answered `ERR busy` and closed.
//!
//! `--metrics-interval SECS` dumps the full metrics registry (the same
//! lines `METRICS` returns over the wire, prefixed `cqd metric:`) plus
//! any slow-query log entries accumulated since the previous dump to
//! stdout every SECS seconds. `--slow-query-ms N` enables the
//! slow-query log for queries taking at least N milliseconds; without
//! `--metrics-interval` the entries are still visible over the wire
//! via `METRICS` (the `server slow-queries` gauge) and retained for
//! the periodic dump.
//!
//! `METRICS RATE` reads a ring of the last 8 counter snapshots. With
//! `--metrics-interval` the dumper thread also captures a snapshot each
//! tick, so rates are available without a client polling `METRICS
//! RATE`. `--profile N` turns on per-query execution tracing, retaining
//! the last N span trees per tenant for the `PROFILE <db>` command (and
//! `EXPLAIN ANALYZE` results); without it, tracing is compiled to no-ops
//! and `PROFILE` answers `ERR tracing-off`.
//!
//! With `--data-dir`, tenants are durable: every tenant found under
//! the directory is recovered on boot (snapshot + write-ahead-log
//! replay, torn log tails truncated with a warning), wire mutations
//! are write-ahead logged, and `SAVE` checkpoints a tenant into a
//! fresh snapshot. Without it, behavior is exactly the in-memory
//! server of earlier releases.
//!
//! `--group-commit-ms N` turns on group commit: each acked mutation is
//! fsynced, with concurrent committers coalesced into one flush whose
//! leader waits up to N ms (0 = coalesce without waiting) — an ack
//! then means *on stable storage*. `--auto-save-bytes N` checkpoints a
//! tenant automatically once its write-ahead log reaches N bytes, so
//! logs (and recovery time) stay bounded without manual `SAVE`s. Both
//! require `--data-dir`.
//!
//! `--replica-of HOST:PORT` runs this process as a read-only replica:
//! it pulls snapshots and WAL segments from the primary at that
//! address over the `SHIP` verb, applies them continuously into warm
//! in-memory tenants, and serves reads (`DECIDE`/`COUNT`/`ANSWERS`,
//! cursors, `EXPLAIN`, `STATS`, `METRICS`) while refusing mutations
//! with `ERR read-only` naming the primary. Per-tenant replication
//! gauges `replica.lag_bytes` / `replica.epoch` report its position.

use cq_server::replica;
use cq_server::server::Server;
use cq_server::state::{ServerState, WritePolicy};
use cq_storage::{FaultPlan, Store};
use std::sync::Arc;

fn main() {
    let mut addr = "127.0.0.1:7878".to_string();
    let mut workers = std::thread::available_parallelism().map(|n| n.get()).unwrap_or(1);
    let mut port_file: Option<String> = None;
    let mut data_dir: Option<String> = None;
    let mut metrics_interval: Option<u64> = None;
    let mut slow_query_ms: Option<u64> = None;
    let mut profile: Option<usize> = None;
    let mut group_commit_ms: Option<u64> = None;
    let mut auto_save_bytes: Option<u64> = None;
    let mut replica_of: Option<String> = None;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--addr" => addr = expect_value(&mut args, "--addr"),
            "--workers" => {
                workers = expect_value(&mut args, "--workers")
                    .parse()
                    .unwrap_or_else(|_| usage("--workers takes a number"))
            }
            "--port-file" => port_file = Some(expect_value(&mut args, "--port-file")),
            "--data-dir" => data_dir = Some(expect_value(&mut args, "--data-dir")),
            "--metrics-interval" => {
                let secs: u64 = expect_value(&mut args, "--metrics-interval")
                    .parse()
                    .unwrap_or_else(|_| usage("--metrics-interval takes seconds"));
                if secs == 0 {
                    usage("--metrics-interval must be at least 1 second");
                }
                metrics_interval = Some(secs);
            }
            "--slow-query-ms" => {
                let ms: u64 = expect_value(&mut args, "--slow-query-ms")
                    .parse()
                    .unwrap_or_else(|_| usage("--slow-query-ms takes milliseconds"));
                slow_query_ms = Some(ms);
            }
            "--profile" => {
                let n: usize = expect_value(&mut args, "--profile")
                    .parse()
                    .unwrap_or_else(|_| usage("--profile takes a trace count"));
                if n == 0 {
                    usage("--profile must retain at least 1 trace");
                }
                profile = Some(n);
            }
            "--group-commit-ms" => {
                let ms: u64 = expect_value(&mut args, "--group-commit-ms")
                    .parse()
                    .unwrap_or_else(|_| usage("--group-commit-ms takes milliseconds"));
                group_commit_ms = Some(ms);
            }
            "--auto-save-bytes" => {
                let bytes: u64 = expect_value(&mut args, "--auto-save-bytes")
                    .parse()
                    .unwrap_or_else(|_| usage("--auto-save-bytes takes a byte count"));
                if bytes == 0 {
                    usage("--auto-save-bytes must be at least 1");
                }
                auto_save_bytes = Some(bytes);
            }
            "--replica-of" => {
                replica_of = Some(expect_value(&mut args, "--replica-of"));
            }
            "--help" | "-h" => {
                println!("usage: {USAGE}");
                return;
            }
            other => usage(&format!("unknown argument `{other}`")),
        }
    }

    if replica_of.is_some() {
        // a replica's state is a mirror of the primary's, rebuilt on
        // boot by the puller — combining it with local durability (or
        // local durability knobs) would create a second write source
        if data_dir.is_some() {
            usage("--replica-of runs in-memory; it conflicts with --data-dir");
        }
        if group_commit_ms.is_some() || auto_save_bytes.is_some() {
            usage("--group-commit-ms / --auto-save-bytes need --data-dir, which a replica cannot have");
        }
    }
    if data_dir.is_none() && (group_commit_ms.is_some() || auto_save_bytes.is_some()) {
        usage("--group-commit-ms / --auto-save-bytes require --data-dir");
    }

    // chaos harness: CQ_FAULT_PLAN=<point:n[:times],...> injects
    // storage failures at named points (for crash/degradation drills);
    // unset means no injection, exactly as before
    let faults = FaultPlan::from_env().unwrap_or_else(|e| {
        eprintln!("cqd: bad CQ_FAULT_PLAN: {e}");
        std::process::exit(2);
    });
    if faults.is_armed() {
        println!("cqd fault injection armed (CQ_FAULT_PLAN)");
    }

    let state = match &data_dir {
        None => Arc::new(ServerState::new()),
        Some(dir) => {
            let store = Store::open_dir_with_faults(dir, faults).unwrap_or_else(|e| {
                eprintln!("cqd: cannot open data dir {dir}: {e}");
                std::process::exit(1);
            });
            let (state, recovered) = ServerState::recover(store).unwrap_or_else(|e| {
                eprintln!("cqd: recovery from {dir} failed: {e}");
                std::process::exit(1);
            });
            for t in &recovered {
                println!(
                    "cqd recovered {}: {} relations, {} tuples ({} snapshot rows + {} \
                     wal records)",
                    t.name, t.n_relations, t.n_tuples, t.snapshot_rows, t.wal_records
                );
                if t.torn_bytes > 0 {
                    eprintln!(
                        "cqd warning: {}: truncated a torn wal tail ({} bytes) — the \
                         final unacknowledged mutation was discarded",
                        t.name, t.torn_bytes
                    );
                }
                if t.stale_records > 0 {
                    eprintln!(
                        "cqd note: {}: discarded a stale wal ({} records) left by a \
                         crash mid-checkpoint; the snapshot already holds them",
                        t.name, t.stale_records
                    );
                }
            }
            Arc::new(state)
        }
    };

    state.set_write_policy(WritePolicy {
        group_commit: group_commit_ms.map(std::time::Duration::from_millis),
        auto_save_bytes,
    });
    if let Some(ms) = group_commit_ms {
        println!("cqd group commit enabled ({ms}ms window)");
    }
    if let Some(bytes) = auto_save_bytes {
        println!("cqd auto-checkpoint enabled at {bytes} wal bytes");
    }
    let _replica = replica_of.as_ref().map(|primary| {
        println!("cqd replicating from {primary} (read-only)");
        replica::start(Arc::clone(&state), primary.clone(), replica::DEFAULT_POLL)
    });

    if let Some(ms) = slow_query_ms {
        state.metrics().slowlog().set_threshold(std::time::Duration::from_millis(ms));
        println!("cqd slow-query log enabled at {ms}ms");
    }
    if let Some(n) = profile {
        state.set_profile_capacity(n);
        println!("cqd per-query tracing enabled ({n} traces per tenant)");
    }
    if let Some(secs) = metrics_interval {
        let state = Arc::clone(&state);
        std::thread::Builder::new()
            .name("cqd-metrics".into())
            .spawn(move || loop {
                std::thread::sleep(std::time::Duration::from_secs(secs));
                // feed the rate ring on the same cadence: every dump
                // tick is a snapshot `METRICS RATE` can difference
                state.metrics().capture_history();
                for line in cq_server::metrics::render(&state, None) {
                    println!("cqd metric: {line}");
                }
                for entry in state.metrics().slowlog().drain() {
                    println!("cqd {}", entry.render());
                }
            })
            .expect("spawn metrics dumper");
    }

    let server =
        Server::bind_with_state(addr.as_str(), workers, state).unwrap_or_else(|e| {
            eprintln!("cqd: cannot bind {addr}: {e}");
            std::process::exit(1);
        });
    let local = server.local_addr();
    match &data_dir {
        Some(dir) => {
            println!("cqd listening on {local} ({workers} workers, data in {dir})")
        }
        None => println!("cqd listening on {local} ({workers} workers)"),
    }
    if let Some(path) = port_file {
        if let Err(e) = std::fs::write(&path, local.to_string()) {
            eprintln!("cqd: cannot write port file {path}: {e}");
            std::process::exit(1);
        }
    }
    server.wait();
}

const USAGE: &str = "cqd [--addr HOST:PORT] [--workers N] [--port-file PATH] \
                     [--data-dir PATH] [--metrics-interval SECS] [--slow-query-ms N] \
                     [--profile N] \
                     [--group-commit-ms N] [--auto-save-bytes N] \
                     [--replica-of HOST:PORT]";

fn expect_value(args: &mut impl Iterator<Item = String>, flag: &str) -> String {
    args.next().unwrap_or_else(|| usage(&format!("{flag} needs a value")))
}

fn usage(msg: &str) -> ! {
    eprintln!("cqd: {msg}\nusage: {USAGE}");
    std::process::exit(2);
}
