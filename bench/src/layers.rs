//! The layer suite: stopwatches around calls into each crate's public
//! entry points, plus the few numbers that need a socket.
//!
//! Nothing outside `bench/` changes in the change that adds the
//! benchmark, so layers are measured from outside: `parse_query`,
//! `protocol::{parse_command, render_row}`, `Session::{handle_line,
//! handle_action, drain_flow}`, `Planner::{plan, plan_uncached}`,
//! `EvalCtx::{with_catalog, execute}`, `Answers::next`,
//! `IndexCatalog::{stats, sorted_view}`, `Relation::{push_row,
//! normalize}`, `Store::{open_dir, create_tenant, checkpoint}`,
//! `WalWriter::{append, sync, stats}`, `GroupGate::commit`,
//! `snapshot::{write, read}` and `ServerState::recover` — never a
//! deprecated shim or an engine `*_with_catalog*` variant, so the
//! planned API subtraction cannot break these probes.
//!
//! The suite measures the same thing whichever workload is being
//! traced: every traced run reports every per-layer metric.

use crate::data::{shape, Dataset, Rng, Shape, SHAPES};
use crate::ops::ConnRun;
use crate::oracle::Oracle;
use crate::scrape::Explained;
use crate::spec::{EXEC_SHAPES, STREAM_SHAPES, SWEEP_SHAPES};
use crate::stats;
use crate::wire::{Conn, Cqd, TempDir};
use crate::workloads::{
    expect_ok, load_tenant, put, script, set_up_once, undisturbed_rate, Config, Metrics,
    OP_DEADLINE,
};
use cq_core::parse_query;
use cq_data::{IndexCatalog, Relation};
use cq_engine::CancelToken;
use cq_planner::{EvalCtx, Output, Planner, Task};
use cq_server::protocol::{parse_command, render_row};
use cq_server::server::{Action, Session};
use cq_server::state::ServerState;
use cq_storage::{snapshot, GroupGate, Store, WalRecord, WalWriter};
use std::hint::black_box;
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

/// Median time of one call, in nanoseconds: `f` runs in batches of
/// `batch` until `budget` is spent (at least three batches).
fn per_call_ns(budget: Duration, batch: usize, mut f: impl FnMut()) -> f64 {
    let began = Instant::now();
    let mut samples = Vec::new();
    loop {
        let t = Instant::now();
        for _ in 0..batch {
            f();
        }
        samples.push(t.elapsed().as_nanos() as f64 / batch as f64);
        if samples.len() >= 3 && (began.elapsed() >= budget || samples.len() >= 1000) {
            return stats::median(&samples).unwrap_or(0.0);
        }
    }
}

/// Median over `reps` timed runs of `f`, in milliseconds.
fn median_ms(reps: usize, mut f: impl FnMut()) -> f64 {
    let samples: Vec<f64> = (0..reps.max(1))
        .map(|_| {
            let t = Instant::now();
            f();
            t.elapsed().as_secs_f64() * 1e3
        })
        .collect();
    stats::median(&samples).unwrap_or(0.0)
}

const MICRO: Duration = Duration::from_millis(60);

/// A sink that counts what a drain would have put on the socket.
#[derive(Default)]
struct CountingSink {
    bytes: u64,
}

impl std::io::Write for CountingSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.bytes += buf.len() as u64;
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// An in-process session over a fresh in-memory state with `ds` loaded
/// through the same `LOAD` lines the wire carries.
pub fn session_with(state: Arc<ServerState>, tenants: &[&Dataset]) -> Session {
    let mut session = Session::new(state);
    let mut say = |line: &str| {
        if let Some(reply) = session.handle_line(line) {
            assert!(reply.is_ok(), "in-process `{line}`: {}", reply.terminal);
        }
    };
    for ds in tenants {
        say(&format!("CREATE DB {}", ds.tenant));
        say(&format!("USE {}", ds.tenant));
        for (relation, rows) in &ds.relations {
            say(&format!("LOAD {relation} 2"));
            for (a, b) in rows {
                say(&format!("{a} {b}"));
            }
            say("END");
        }
    }
    session
}

/// Run every probe. `problems` collects anything that went wrong (a
/// probe that cannot run still leaves its metric out, which the caller
/// reports as a failure — a per-layer name is never silently absent).
pub fn run_suite(cfg: &Config, problems: &mut Vec<String>) -> Metrics {
    let mut m = Metrics::new();
    let main = Dataset::generate("main", cfg.main_m(), cfg.seed);
    let tiny = Dataset::generate("tiny", Config::TINY_M, cfg.seed);
    let mut oracle = Oracle::new(&main);

    server_and_core_probes(&mut m, &main, &tiny);
    planner_probes(&mut m, &mut oracle);
    data_probes(&mut m, &main, cfg.seed);
    engine_probes(&mut m, &mut oracle, cfg.seed);
    sweep_fits(&mut m, cfg, problems);
    if let Err(e) = storage_probes(&mut m, &main, cfg) {
        problems.push(format!("storage probes: {e}"));
    }
    if let Err(e) = wire_leg(&mut m, &main, cfg) {
        problems.push(format!("suite wire leg: {e}"));
    }
    if let Err(e) = trace_overhead(&mut m, cfg) {
        problems.push(format!("trace overhead: {e}"));
    }
    m
}

fn server_and_core_probes(m: &mut Metrics, main: &Dataset, tiny: &Dataset) {
    // every request line a workload sends, by kind
    let mut lines: Vec<String> = SHAPES.iter().map(Shape::line).collect();
    lines.extend(
        ["PING", "INSERT R1(1000000000017, 1000000000017)", "FETCH 3 100", "SEEK 3 17"]
            .map(String::from),
    );
    let mut i = 0;
    let ns = per_call_ns(MICRO, lines.len(), || {
        black_box(parse_command(black_box(&lines[i % lines.len()])).is_ok());
        i += 1;
    });
    put(m, "server.parse_command_ns", "ns", ns);

    let mut i = 0;
    let ns = per_call_ns(MICRO, SHAPES.len(), || {
        black_box(parse_query(black_box(SHAPES[i % SHAPES.len()].query)).is_ok());
        i += 1;
    });
    put(m, "core.parse_query_ns", "ns", ns);

    // Session::handle_line minus parse + plan + execute of the same op,
    // on the tenant where engine work is nil
    let mut session = session_with(Arc::new(ServerState::new()), &[tiny]);
    let mut o = Oracle::new(tiny);
    let mut selfs = Vec::new();
    for name in ["tri_decide", "path3_count", "star3_count"] {
        let s = shape(name);
        let line = s.line();
        let whole = per_call_ns(MICRO, 16, || {
            black_box(session.handle_line(black_box(&line)));
        });
        let inner = per_call_ns(MICRO, 16, || {
            let q = parse_query(black_box(s.query)).expect("shape parses");
            let stats = o.catalog.stats(&o.db);
            let plan = o.planner.plan(&q, s.verb.task(), &stats);
            let out = EvalCtx::new().with_catalog(&o.catalog).execute(&plan, &q, &o.db);
            black_box(out.is_ok());
        });
        selfs.push((whole - inner) / 1e3);
    }
    put(
        m,
        "server.session_self_us",
        "us",
        selfs.iter().sum::<f64>() / selfs.len() as f64,
    );

    // render + the in-process drain of the 10^6-row reply
    let row: [u64; 4] = [29_871, 1_204, 17, 30_000];
    let ns = per_call_ns(MICRO, 1024, || {
        black_box(render_row(black_box(&row)));
    });
    put(m, "server.render_row_ns", "ns", ns);

    let mut session = session_with(Arc::new(ServerState::new()), &[main]);
    let line = shape("cross_answers").line();
    let mut rates = Vec::new();
    let mut bytes_per_row = 0.0;
    for _ in 0..3 {
        let t = Instant::now();
        let Some(Action::Stream(flow)) = session.handle_action(line.as_bytes()) else {
            panic!("ANSWERS did not stream in-process");
        };
        let mut sink = CountingSink::default();
        session.drain_flow(*flow, &mut sink).expect("counting sink never fails");
        let rows = (crate::data::cross_side(main.m) as f64).powi(2);
        rates.push(rows / t.elapsed().as_secs_f64());
        bytes_per_row = sink.bytes as f64 / rows;
    }
    put(m, "server.drain_rows_per_s", "1/s", stats::median(&rates).unwrap_or(0.0));
    put(m, "server.bytes_per_row", "bytes", bytes_per_row);
}

fn planner_probes(m: &mut Metrics, o: &mut Oracle) {
    let stats = o.catalog.stats(&o.db);
    let parsed: Vec<_> = EXEC_SHAPES
        .iter()
        .map(|n| {
            (parse_query(shape(n).query).expect("shape parses"), shape(n).verb.task())
        })
        .collect();
    for (q, task) in &parsed {
        o.planner.plan(q, *task, &stats); // fill the shape cache
    }
    let mut i = 0;
    let ns = per_call_ns(MICRO, parsed.len(), || {
        let (q, task) = &parsed[i % parsed.len()];
        black_box(o.planner.plan(black_box(q), *task, &stats));
        i += 1;
    });
    put(m, "planner.plan_hit_ns", "ns", ns);
    let mut i = 0;
    let ns = per_call_ns(MICRO, parsed.len(), || {
        let (q, task) = &parsed[i % parsed.len()];
        black_box(Planner::plan_uncached(black_box(q), *task, &stats));
        i += 1;
    });
    put(m, "planner.plan_miss_us", "us", ns / 1e3);
}

fn data_probes(m: &mut Metrics, main: &Dataset, seed: u64) {
    let db = main.mirror();
    put(
        m,
        "data.stats_collect_ms",
        "ms",
        median_ms(5, || {
            black_box(IndexCatalog::new().stats(&db));
        }),
    );
    // the views a cold path/triangle query builds first: each random
    // relation re-sorted on its second column
    put(
        m,
        "data.view_build_ms",
        "ms",
        median_ms(5, || {
            let catalog = IndexCatalog::new();
            for r in ["R1", "R2", "R3", "E"] {
                black_box(catalog.sorted_view(&db, r, &[1]));
            }
        }),
    );
    // rows arrive in wire order, not sorted order: shuffle, then the
    // LOAD path's push_row + normalize
    let mut rows = main.pairs("R1").clone();
    let mut rng = Rng::fork(seed, "layers/shuffle");
    for i in (1..rows.len()).rev() {
        rows.swap(i, rng.below(i as u64 + 1) as usize);
    }
    let ms = median_ms(5, || {
        let mut rel = Relation::new(2);
        for (a, b) in &rows {
            rel.push_row(&[*a, *b]);
        }
        rel.normalize();
        black_box(rel.len());
    });
    put(m, "data.normalize_rows_per_s", "1/s", rows.len() as f64 / (ms / 1e3));
}

fn engine_probes(m: &mut Metrics, o: &mut Oracle, seed: u64) {
    for name in EXEC_SHAPES {
        let s = shape(name);
        let (q, plan) = o.plan(s.query, s.verb.task());
        let run = |catalog: &IndexCatalog| {
            let out = EvalCtx::new().with_catalog(catalog).execute(&plan, &q, &o.db);
            black_box(out.is_ok());
        };
        run(&o.catalog);
        let warm = per_call_ns(Duration::from_millis(250), 1, || run(&o.catalog));
        put(m, &format!("engine.exec_warm_ms.{name}"), "ms", warm / 1e6);
        let cold = median_ms(3, || run(&IndexCatalog::new()));
        put(m, &format!("engine.exec_cold_ms.{name}"), "ms", cold);
    }
    for name in STREAM_SHAPES {
        let s = shape(name);
        let (q, plan) = o.plan(s.query, Task::Answers);
        let mut preprocess = Vec::new();
        let mut rates = Vec::new();
        for _ in 0..4 {
            let t = Instant::now();
            let out = EvalCtx::new().with_catalog(&o.catalog).execute(&plan, &q, &o.db);
            let Ok(Output::Answers(mut answers)) = out else {
                panic!("{name} did not stream")
            };
            let mut rows = u64::from(answers.next().expect("stream").is_some());
            preprocess.push(t.elapsed().as_secs_f64() * 1e3);
            let t = Instant::now();
            while let Some(row) = answers.next().expect("stream") {
                black_box(row);
                rows += 1;
            }
            rates.push(rows as f64 / t.elapsed().as_secs_f64());
        }
        // the first pass built the catalog artifacts; keep the warm ones
        put(
            m,
            &format!("engine.preprocess_ms.{name}"),
            "ms",
            stats::median(&preprocess[1..]).unwrap_or(0.0),
        );
        put(
            m,
            &format!("engine.stream_rows_per_s.{name}"),
            "1/s",
            stats::median(&rates[1..]).unwrap_or(0.0),
        );
    }
    let s = shape("path3_answers");
    let n = o.count(s.query).max(1);
    let (q, plan) = o.plan(s.query, Task::Access);
    let out = EvalCtx::new().with_catalog(&o.catalog).execute(&plan, &q, &o.db);
    let Ok(Output::Answers(mut answers)) = out else { panic!("ACCESS did not stream") };
    let mut rng = Rng::fork(seed, "layers/seek");
    let ns = per_call_ns(MICRO, 64, || {
        answers.seek(rng.below(n)).expect("access plans seek");
        black_box(answers.next().expect("stream").is_some());
    });
    put(m, "engine.access_seek_us", "us", ns / 1e3);
}

/// Time spent timing one sweep cell once it has four runs, and the
/// single-run time from which a cell is not repeated at all.
const SWEEP_CELL_BUDGET: Duration = Duration::from_millis(100);
const SLOW_CELL: Duration = Duration::from_millis(500);

/// How far above the planner's exponent a fit may land before the
/// output flags it (a report, not a gate).
pub const FIT_SLACK: f64 = 0.25;

/// The in-process size sweep: each shape at four doubling sizes through
/// `EvalCtx::execute` over a warm catalog, then `t ≈ c·m^e` by least
/// squares in log–log space. A cell past the per-op deadline is
/// cancelled, left out of the fit, and reported.
fn sweep_fits(m: &mut Metrics, cfg: &Config, problems: &mut Vec<String>) {
    for name in SWEEP_SHAPES {
        let s = shape(name);
        let sizes = match *name {
            "tri_count" => cfg.sweep_tri(),
            "path3_ends_count" => cfg.sweep_ends(),
            _ => cfg.sweep_linear(),
        };
        let mut points = Vec::new();
        for &size in &sizes {
            let ds = Dataset::generate_relations(
                &format!("s{size}"),
                size,
                cfg.seed,
                s.relations,
            );
            let mut o = Oracle::new(&ds);
            let (q, plan) = o.plan(s.query, s.verb.task());
            let mut times = Vec::new();
            let began = Instant::now();
            // one warming run, then timed ones while they are cheap; a
            // cell that takes seconds is measured once (warming is noise
            // beside it, and four of those would double the run)
            let cancelled = loop {
                let deadline = Instant::now() + OP_DEADLINE;
                let t = Instant::now();
                let out = EvalCtx::new()
                    .with_catalog(&o.catalog)
                    .with_cancel(CancelToken::with_deadline(deadline))
                    .execute(&plan, &q, &o.db);
                let took = t.elapsed();
                times.push(took.as_nanos() as f64);
                let enough = times.len() >= 4 && began.elapsed() >= SWEEP_CELL_BUDGET;
                if out.is_err() || enough || took >= SLOW_CELL || times.len() >= 64 {
                    break out.is_err();
                }
            };
            if cancelled {
                problems.push(format!(
                    "sweep cell {name}@{size} passed the {:?} deadline; left out of the fit",
                    OP_DEADLINE
                ));
                continue;
            }
            let timed = if times.len() > 1 { &times[1..] } else { &times[..] };
            points.push((size as f64, stats::median(timed).unwrap_or(0.0)));
        }
        if let Some(fit) = stats::loglog_fit(&points) {
            put(m, &format!("engine.fit_exponent.{name}"), "exponent", fit.exponent);
            put(m, &format!("engine.fit_const_ns.{name}"), "ns", fit.constant);
            put(m, &format!("engine.fit_residual_max.{name}"), "ratio", fit.residual_max);
        }
    }
}

fn io_err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

fn insert_record(key: u64) -> WalRecord {
    WalRecord::Insert { relation: "Ingest".to_string(), row: vec![key, key] }
}

fn storage_probes(m: &mut Metrics, main: &Dataset, cfg: &Config) -> Result<(), String> {
    let dir = TempDir::create(&cfg.scratch, "store").map_err(io_err)?;
    let db = main.mirror();
    let rows = db.size();
    {
        let store = Store::open_dir(dir.path()).map_err(io_err)?;
        let mut wal = store.create_tenant("probe").map_err(io_err)?;
        let mut key = 0u64;
        let mut failed = None;
        let ns = per_call_ns(MICRO, 64, || {
            key += 1;
            if let Err(e) = wal.append(&insert_record(key)) {
                failed = Some(e);
            }
        });
        if let Some(e) = failed {
            return Err(format!("wal append: {e}"));
        }
        put(m, "storage.wal_append_us", "us", ns / 1e3);
        let st = wal.stats();
        put(
            m,
            "storage.wal_bytes_per_insert",
            "bytes",
            st.appended_bytes as f64 / st.appends as f64,
        );
        // fsync of one freshly appended record (the sandbox's fsync: the
        // number is this machine's page cache, not a device)
        let mut syncs = Vec::new();
        for _ in 0..100 {
            key += 1;
            wal.append(&insert_record(key)).map_err(io_err)?;
            let t = Instant::now();
            wal.sync().map_err(io_err)?;
            syncs.push(t.elapsed().as_secs_f64() * 1e6);
        }
        put(m, "storage.wal_sync_us", "us", stats::median(&syncs).unwrap_or(0.0));
        put(m, "storage.syncs_per_ack", "ratio", coalescing(wal)?);

        // checkpoint of the main tenant through the store, and the raw
        // snapshot write/read under it
        let mut wal = store.create_tenant("main").map_err(io_err)?;
        let mut bytes = 0u64;
        let ms = median_ms(3, || {
            bytes = store.checkpoint("main", &db, &mut wal).unwrap_or(0);
        });
        if bytes == 0 {
            return Err("checkpoint failed".into());
        }
        put(m, "storage.checkpoint_ms", "ms", ms);
        put(m, "storage.snapshot_bytes_per_row", "bytes", bytes as f64 / rows as f64);
        let path = dir.path().join("probe.cqs");
        let mb = bytes as f64 / 1e6;
        let ms = median_ms(3, || {
            black_box(snapshot::write(&db, 1, &path).is_ok());
        });
        put(m, "storage.snapshot_write_mb_per_s", "MB/s", mb / (ms / 1e3));
        let ms = median_ms(3, || {
            black_box(snapshot::read(&path).is_ok());
        });
        put(m, "storage.snapshot_read_mb_per_s", "MB/s", mb / (ms / 1e3));
        std::fs::remove_file(&path).map_err(io_err)?;
        // a WAL tail on top of the snapshot, as a crash would leave it
        for key in 0..1000 {
            wal.append(&insert_record(key)).map_err(io_err)?;
        }
        wal.sync().map_err(io_err)?;
    } // the store's directory lock is released here
    let mut rates = Vec::new();
    for _ in 0..3 {
        let t = Instant::now();
        let store = Store::open_dir(dir.path()).map_err(io_err)?;
        let (_state, report) = ServerState::recover(store).map_err(io_err)?;
        let recovered: usize = report.iter().map(|t| t.n_tuples).sum();
        rates.push(recovered as f64 / t.elapsed().as_secs_f64());
    }
    put(m, "storage.recover_rows_per_s", "1/s", stats::median(&rates).unwrap_or(0.0));
    Ok(())
}

/// Two committers through one [`GroupGate`], the way a tenant's
/// mutations use it: append under the log's lock, then wait at the gate
/// for a flush covering the append. Syncs per acknowledged commit — 1.0
/// means no coalescing, 0.5 means every flush covered two.
fn coalescing(wal: WalWriter) -> Result<f64, String> {
    const COMMITS_EACH: u64 = 400;
    let syncs_before = wal.stats().syncs;
    let wal = Mutex::new(wal);
    let gate = GroupGate::new();
    let commit = |id: u64| -> std::io::Result<()> {
        for i in 0..COMMITS_EACH {
            let seq = {
                let mut w = wal.lock().expect("wal lock");
                w.append(&insert_record(1_000_000 * (id + 1) + i))?;
                w.stats().appends
            };
            gate.commit(seq, Duration::ZERO, || {
                let mut w = wal.lock().expect("wal lock");
                (w.stats().appends, w.sync())
            })?;
        }
        Ok(())
    };
    let results: Vec<std::io::Result<()>> = std::thread::scope(|s| {
        let handles: Vec<_> = (0..2).map(|id| s.spawn(move || commit(id))).collect();
        handles.into_iter().map(|h| h.join().expect("committer panicked")).collect()
    });
    for r in results {
        r.map_err(io_err)?;
    }
    let syncs = wal.lock().expect("wal lock").stats().syncs - syncs_before;
    Ok(syncs as f64 / (2 * COMMITS_EACH) as f64)
}

/// What needs a socket: load rate, the planner's exponents as `EXPLAIN`
/// prints them, and the socket's share of a streamed row.
fn wire_leg(m: &mut Metrics, main: &Dataset, cfg: &Config) -> Result<(), String> {
    let server = Cqd::spawn(&cfg.cqd, &cfg.scratch, &[]).map_err(io_err)?;
    let mut conn = Conn::connect(server.addr(), OP_DEADLINE).map_err(io_err)?;
    // CREATE DB and USE are noise beside 122 000 rows of LOAD
    let t = Instant::now();
    load_tenant(&mut conn, main)?;
    put(
        m,
        "server.load_rows_per_s",
        "1/s",
        main.total_rows() as f64 / t.elapsed().as_secs_f64(),
    );
    let mut client = server.client().map_err(io_err)?;
    expect_ok("USE", client.use_db("main"))?;
    for name in SWEEP_SHAPES {
        let s = shape(name);
        let explain = format!("EXPLAIN {} {}", s.verb.as_str(), s.query);
        let reply = expect_ok("EXPLAIN", client.request(&explain))?;
        let plan = Explained::parse(&reply.data)
            .ok_or_else(|| format!("EXPLAIN {name}: unparsed reply {:?}", reply.data))?;
        if plan.operator != s.operator {
            return Err(format!(
                "{name} plans as `{}`, not `{}`",
                plan.operator, s.operator
            ));
        }
        put(m, &format!("planner.predicted_exponent.{name}"), "exponent", plan.exponent);
    }
    let line = shape("cross_answers").line();
    let mut rates = Vec::new();
    for _ in 0..4 {
        let t = Instant::now();
        let s = conn.stream(&line).map_err(io_err)?;
        rates.push(s.rows as f64 / t.elapsed().as_secs_f64());
    }
    let wire = stats::median(&rates[1..]).unwrap_or(0.0);
    if let Some(drain) = m.get("server.drain_rows_per_s") {
        put(m, "server.socket_share", "ratio", 1.0 - wire / drain.value);
    }
    Ok(())
}

/// `tiny_rpc` against a traced and an untraced server, in alternating
/// windows so drift hits both alike: the share of throughput that
/// `--profile` costs where a request is cheapest.
fn trace_overhead(m: &mut Metrics, cfg: &Config) -> Result<(), String> {
    // many short windows: which core each server's worker lands on is a
    // coin that is re-flipped over seconds, and both sides should see
    // both faces
    const WINDOWS: usize = 12;
    let window = Duration::from_millis(if cfg.quick { 40 } else { 100 });
    let script = script("tiny_rpc", cfg)?;
    let boot = |traced: bool| -> Result<(Cqd, ConnRun), String> {
        let mut live = set_up_once(&script, &Config { traced, ..cfg.clone() })?;
        Ok((live.server, live.runs.remove(0)))
    };
    let (_plain_server, mut plain) = boot(false)?;
    let (_traced_server, mut traced) = boot(true)?;
    let per_cycle: u64 = script.cycles[0].iter().map(|op| op.requests()).sum();
    let mut durations = [Vec::new(), Vec::new()];
    for _ in 0..WINDOWS {
        for (i, run) in [&mut plain, &mut traced].into_iter().enumerate() {
            run.cycle_marks.clear();
            run.run_cycles(&script.cycles[0], Instant::now(), window);
            durations[i].extend(run.cycle_durations());
        }
    }
    if plain.failed + traced.failed > 0 {
        return Err(format!("{} ops failed", plain.failed + traced.failed));
    }
    // the same estimator as `ops_per_s`: each side's lower-decile cycle,
    // or plain cycles over time when there are too few for a decile
    let rate = |durations: &Vec<f64>| {
        undisturbed_rate(per_cycle, durations.clone()).unwrap_or_else(|| {
            (per_cycle * durations.len() as u64) as f64 / durations.iter().sum::<f64>()
        })
    };
    let (plain, traced) = (rate(&durations[0]), rate(&durations[1]));
    put(m, "obs.trace_overhead_share", "ratio", 1.0 - traced / plain);
    Ok(())
}
