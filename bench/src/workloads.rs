//! The six workloads: what each loads, the cycle each connection
//! repeats, what is verified, and how a run folds into metrics.
//!
//! A run is: prepare (untimed: generate data, build the oracle, derive
//! every expected reply) → set up (timed, several times over: spawn
//! `cqd`, load, one checked warm-up pass) → verify (untimed three-way
//! cross-check) → measure (closed loop for `--seconds`) → tear down.

use crate::data::{cross_side, shape, Dataset, Shape};
use crate::ops::{run_all, run_once_all, Check, Class, ConnRun, Op, Req, Sample};
use crate::oracle::{Oracle, StreamExpect};
use crate::scrape::{CatalogTraffic, Explained, Scrape};
use crate::stats;
use crate::wire::{Conn, Cqd, TempDir};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::time::{Duration, Instant};

#[derive(Clone, Copy, Debug, PartialEq)]
pub struct Metric {
    pub value: f64,
    pub unit: &'static str,
}

pub type Metrics = BTreeMap<String, Metric>;

pub fn put(m: &mut Metrics, name: &str, unit: &'static str, value: f64) {
    m.insert(name.to_string(), Metric { value, unit });
}

/// Everything a run is parameterised by.
#[derive(Clone, Debug)]
pub struct Config {
    pub cqd: PathBuf,
    /// Where port files, data directories and probe files go (inside a
    /// build directory, so inside the checkout and ignored by git).
    pub scratch: PathBuf,
    pub seed: u64,
    pub seconds: f64,
    /// ~1/20 size; numbers are flagged non-comparable.
    pub quick: bool,
    /// Start `cqd` with `--profile 64` and collect per-layer counters.
    pub traced: bool,
}

/// An operation past this fails instead of hanging the run.
pub const OP_DEADLINE: Duration = Duration::from_secs(30);

/// Set-up is repeated at least this often (`setup_s` is the median) …
const MIN_SETUPS: usize = 3;
/// … and, while it is cheap, until this much time has gone into it or
/// this many repetitions: a 5 ms set-up needs more samples than a
/// 500 ms one for its median to hold still.
const SETUP_BUDGET: Duration = Duration::from_millis(1500);
const MAX_SETUPS: usize = 25;

impl Config {
    pub fn main_m(&self) -> usize {
        if self.quick {
            1_500
        } else {
            30_000
        }
    }

    pub const TINY_M: usize = 100;

    fn scaled(&self, full: usize) -> usize {
        if self.quick {
            (full / 20).max(1)
        } else {
            full
        }
    }

    /// Sizes of the linear shapes' sweep cells.
    pub fn sweep_linear(&self) -> Vec<usize> {
        [8_000, 16_000, 32_000, 64_000].iter().map(|&m| self.scaled(m)).collect()
    }

    /// Sizes of `tri_count`'s sweep cells.
    pub fn sweep_tri(&self) -> Vec<usize> {
        [4_000, 8_000, 16_000, 32_000].iter().map(|&m| self.scaled(m)).collect()
    }

    /// Sizes of `path3_ends_count`'s sweep cells (layer suite only).
    pub fn sweep_ends(&self) -> Vec<usize> {
        [1_000, 2_000, 4_000, 8_000].iter().map(|&m| self.scaled(m)).collect()
    }
}

/// One workload, ready to run: everything below is a function of the
/// seed alone.
pub struct Script {
    pub name: &'static str,
    /// Run `cqd` over a data directory, every ack fsynced.
    pub durable: bool,
    pub tenants: Vec<Dataset>,
    /// Tenant each connection selects on connect.
    pub start_tenant: String,
    /// One cycle per connection.
    pub cycles: Vec<Vec<Op>>,
    /// What each connection runs once (checked) at set-up to fill the
    /// plan cache and the catalog; `None` means its whole cycle.
    pub warm_up: Option<Vec<Op>>,
    /// `COUNT` shapes cross-checked three ways before measuring (four
    /// on a tenant small enough for brute force).
    pub verify: Vec<&'static str>,
}

impl Script {
    /// A script over one in-memory tenant that every connection starts
    /// in, with no extra flags, the cycle as its own warm-up, and
    /// nothing to cross-check; callers override what differs.
    fn in_memory(name: &'static str, tenant: Dataset, cycles: Vec<Vec<Op>>) -> Script {
        Script {
            name,
            durable: false,
            start_tenant: tenant.tenant.clone(),
            tenants: vec![tenant],
            cycles,
            warm_up: None,
            verify: Vec::new(),
        }
    }
}

/// What one run produced.
pub struct Outcome {
    pub workload: &'static str,
    pub clients: usize,
    pub cqd_flags: Vec<String>,
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
    /// End-to-end metrics (every one defined on this workload).
    pub metrics: Metrics,
    /// `(label, samples, p50 ms)` per operation label.
    pub by_label: Vec<(&'static str, usize, f64)>,
    /// Per-layer counters of this workload's own server (traced runs).
    pub layer: Metrics,
    /// Every measured sample (request spans of a traced run).
    pub samples: Vec<Sample>,
}

fn read_op(s: &'static Shape, oracle: &mut Oracle) -> Op {
    Op::line(s.name, Class::Read, s.line(), oracle.terminal(s))
}

fn drain_op(s: &'static Shape, oracle: &mut Oracle) -> Op {
    let expect = oracle.stream(s.query);
    let terminal = format!("OK {} rows", expect.rows);
    Op {
        label: s.name,
        class: Class::Drain,
        req: Req::Drain(s.line()),
        check: Check::Rows { expect, terminal },
    }
}

fn insert_op(relation: &'static str) -> Op {
    Op {
        label: "insert",
        class: Class::Write,
        req: Req::Insert(relation),
        check: Check::Prefix(format!("OK inserted 1 row into {relation} (")),
    }
}

const READ_CYCLE: [&str; 5] =
    ["path3_count", "path3_decide", "star3_count", "tri_count", "tri_decide"];

/// Requests per pipelined op of `tiny_rpc` (long against the window, so
/// the drain at an op's end is a few percent of it), and ops per timed
/// cycle (a cycle of some 20 ms, so its quantiles mean something).
const PIPELINE_DEPTH: usize = 256;
const TINY_BATCHES_PER_CYCLE: usize = 4;
/// Single-row inserts per timed cycle of `durable_ingest`: enough that a
/// cycle averages over coalesced and uncoalesced flushes.
const INSERTS_PER_CYCLE: usize = 64;

/// Rows per `FETCH` page, pages per cursor, and `SEEK` jumps per cursor.
const PAGE_ROWS: u64 = 100;
const PAGES: usize = 100;
const JUMPS: usize = 100;
/// Rows per `LOAD` block in `durable_ingest`, and blocks per connection:
/// a fixed volume, so the server's peak memory and the snapshot's size
/// do not depend on how fast the time-bounded `INSERT` phase went.
const LOAD_BLOCK: usize = 10_000;
const LOAD_BLOCKS: usize = 3;
/// Single-row inserts after `SAVE`, so recovery replays a WAL tail on
/// top of the snapshot instead of reading a snapshot alone.
const TAIL_INSERTS: usize = 50;
/// Joining inserts that close `mixed_rw`; they must move `path3_count`
/// by exactly the delta the mirror predicts.
const JOINING_INSERTS: usize = 100;

/// Build the named workload's script from the seed.
pub fn script(name: &str, cfg: &Config) -> Result<Script, String> {
    let seed = cfg.seed;
    let main = || Dataset::generate("main", cfg.main_m(), seed);
    let s = match name {
        "tiny_rpc" => {
            let ds = Dataset::generate("tiny", Config::TINY_M, seed);
            let mut o = Oracle::new(&ds);
            // PING, tri_decide, path3_count, star3_count round-robin,
            // PIPELINE_WINDOW requests in flight: the server never idles
            // between requests, so a batch times the request path — not
            // the host's idle-wake-up latency, which in this sandbox
            // moves between 20 and 80 microseconds from one hour to the
            // next and would swamp any change to the path itself
            let mut round = vec![("PING".to_string(), "OK pong".to_string())];
            for n in ["tri_decide", "path3_count", "star3_count"] {
                round.push((shape(n).line(), o.terminal(shape(n))));
            }
            let (lines, terminals) =
                round.iter().cycle().take(PIPELINE_DEPTH).cloned().unzip();
            let op = Op {
                label: "pipelined_round",
                class: Class::Pipelined,
                req: Req::Pipeline(lines),
                check: Check::Each(terminals),
            };
            let cycle = vec![op; TINY_BATCHES_PER_CYCLE];
            Script {
                verify: vec!["path3_count", "star3_count", "tri_count"],
                ..Script::in_memory("tiny_rpc", ds, vec![cycle])
            }
        }
        "warm_read" => {
            let ds = main();
            let mut o = Oracle::new(&ds);
            let cycle: Vec<Op> =
                READ_CYCLE.iter().map(|n| read_op(shape(n), &mut o)).collect();
            // the second connection starts two shapes in, so the pair
            // does not march through the cycle in lockstep
            let mut shifted = cycle.clone();
            shifted.rotate_left(2);
            Script {
                verify: vec!["path3_count", "star3_count", "tri_count"],
                ..Script::in_memory("warm_read", ds, vec![cycle, shifted])
            }
        }
        "stream_answers" => {
            let ds = main();
            let mut o = Oracle::new(&ds);
            let mut cycle: Vec<Op> = ["path3_answers", "tri_answers", "cross_answers"]
                .iter()
                .map(|n| drain_op(shape(n), &mut o))
                .collect();
            let control = |label, req, prefix: &str| Op {
                label,
                class: Class::Control,
                req,
                check: Check::Prefix(prefix.to_string()),
            };
            // page through the 10^6-answer cross product …
            let cross = shape("cross_answers");
            let side = cross_side(ds.m);
            let pages = PAGES.min((side * side / PAGE_ROWS) as usize);
            cycle.push(control(
                "cursor_open",
                Req::Cursor(format!("CURSOR ANSWERS {}", cross.query)),
                "OK cursor ",
            ));
            for expect in o.pages(cross.query, PAGE_ROWS, pages) {
                let terminal = format!("OK {} rows", expect.rows);
                cycle.push(Op {
                    label: "fetch_page",
                    class: Class::Read,
                    req: Req::Fetch(PAGE_ROWS),
                    check: Check::Rows { expect, terminal },
                });
            }
            cycle.push(control("cursor_close", Req::Close, "OK closed cursor "));
            // … and jump around the path join through direct access
            let path = shape("path3_answers");
            let n = o.count(path.query);
            let mut rng = crate::data::Rng::fork(seed, "stream_answers/jumps");
            let ks: Vec<u64> = (0..JUMPS).map(|_| rng.below(n.max(1))).collect();
            let rows = if n == 0 { Vec::new() } else { o.access_rows(path.query, &ks) };
            cycle.push(control(
                "cursor_open",
                Req::Cursor(format!("CURSOR ACCESS {}", path.query)),
                "OK cursor ",
            ));
            for (k, row) in ks.iter().zip(rows) {
                cycle.push(Op {
                    label: "seek",
                    class: Class::Read,
                    req: Req::Seek(*k),
                    check: Check::Suffix(format!(" at {k}")),
                });
                let mut expect = StreamExpect::empty();
                expect.push(&row);
                cycle.push(Op {
                    label: "fetch_row",
                    class: Class::Read,
                    req: Req::Fetch(1),
                    check: Check::Rows { expect, terminal: "OK 1 rows".into() },
                });
            }
            cycle.push(control("cursor_close", Req::Close, "OK closed cursor "));
            Script {
                verify: vec!["path3_count", "tri_count"],
                ..Script::in_memory("stream_answers", ds, vec![cycle])
            }
        }
        "durable_ingest" => {
            let empty = Dataset {
                tenant: "ingest".into(),
                m: 0,
                relations: vec![("Ingest".into(), vec![]), ("Bulk".into(), vec![])],
            };
            let cycle = vec![insert_op("Ingest"); INSERTS_PER_CYCLE];
            Script {
                durable: true,
                // one insert is as warm as sixty-four
                warm_up: Some(vec![insert_op("Ingest")]),
                ..Script::in_memory("durable_ingest", empty, vec![cycle.clone(), cycle])
            }
        }
        "mixed_rw" => {
            let ds = main();
            let mut o = Oracle::new(&ds);
            let reads: Vec<Op> =
                READ_CYCLE.iter().map(|n| read_op(shape(n), &mut o)).collect();
            // 22 ops: the read cycle twice, an INSERT into R1 (read by
            // the path and star shapes), the read cycle twice, an INSERT
            // into Log (read by nothing) — every 11th op a write
            let cycle_from = |first_read: usize| -> Vec<Op> {
                let mut rotated = reads.clone();
                rotated.rotate_left(first_read);
                let mut cycle = Vec::with_capacity(22);
                for relation in ["R1", "Log"] {
                    cycle.extend(rotated.iter().cloned());
                    cycle.extend(rotated.iter().cloned());
                    cycle.push(insert_op(relation));
                }
                cycle
            };
            let cycles = vec![cycle_from(0), cycle_from(2)];
            Script {
                // every distinct op once; the whole cycle would only
                // repeat them (and triple the set-up time)
                warm_up: Some(
                    reads
                        .iter()
                        .cloned()
                        .chain([insert_op("R1"), insert_op("Log")])
                        .collect(),
                ),
                verify: vec!["path3_count", "star3_count", "tri_count"],
                ..Script::in_memory("mixed_rw", ds, cycles)
            }
        }
        "scaling_sweep" => {
            // one tenant per size, holding what the cells at that size
            // read; the cycle visits tenants in size order
            let linear = cfg.sweep_linear();
            let tri = cfg.sweep_tri();
            let mut sizes: Vec<usize> = linear.iter().chain(&tri).copied().collect();
            sizes.sort_unstable();
            sizes.dedup();
            let mut tenants = Vec::new();
            let mut cycle = Vec::new();
            for m in sizes {
                let mut shapes: Vec<&'static Shape> = Vec::new();
                if linear.contains(&m) {
                    shapes.extend(
                        ["path3_count", "path3_decide", "star3_count"].map(shape),
                    );
                }
                if tri.contains(&m) {
                    shapes.push(shape("tri_count"));
                }
                let mut relations: Vec<&str> =
                    shapes.iter().flat_map(|s| s.relations.iter().copied()).collect();
                relations.sort_unstable();
                relations.dedup();
                let tenant = format!("s{m}");
                let ds = Dataset::generate_relations(&tenant, m, seed, &relations);
                let mut o = Oracle::new(&ds);
                cycle.push(Op {
                    label: "use",
                    class: Class::Control,
                    req: Req::Line(format!("USE {tenant}")),
                    check: Check::Exact(format!("OK using {tenant}")),
                });
                for s in shapes {
                    let mut op = read_op(s, &mut o);
                    op.label = sweep_label(s.name, m);
                    cycle.push(op);
                }
                tenants.push(ds);
            }
            let first = tenants.remove(0);
            let mut script = Script::in_memory("scaling_sweep", first, vec![cycle]);
            script.tenants.extend(tenants);
            script
        }
        other => return Err(format!("no workload `{other}`")),
    };
    Ok(s)
}

/// `path3_count@8000`, leaked once per distinct cell so samples can
/// carry a `&'static str` label like every other op.
fn sweep_label(shape: &str, m: usize) -> &'static str {
    use std::sync::Mutex;
    static LABELS: Mutex<Vec<&'static str>> = Mutex::new(Vec::new());
    let want = format!("{shape}@{m}");
    let mut labels = LABELS.lock().expect("label table");
    if let Some(l) = labels.iter().find(|l| **l == want) {
        return l;
    }
    let leaked: &'static str = Box::leak(want.into_boxed_str());
    labels.push(leaked);
    leaked
}

/// A booted server with its tenants loaded and every connection warm.
pub struct Live {
    pub server: Cqd,
    pub runs: Vec<ConnRun>,
    /// Kept alive for `--data-dir`; removed on drop.
    data_dir: Option<TempDir>,
}

/// The reply, if it arrived and is an `OK`.
pub fn expect_ok(
    what: &str,
    reply: std::io::Result<cq_server::Reply>,
) -> Result<cq_server::Reply, String> {
    match reply {
        Ok(r) if r.is_ok() => Ok(r),
        Ok(r) => Err(format!("{what}: {}", r.terminal)),
        Err(e) => Err(format!("{what}: {e}")),
    }
}

/// `CREATE DB`, `USE`, and one `LOAD` block per relation.
pub fn load_tenant(conn: &mut Conn, ds: &Dataset) -> Result<(), String> {
    expect_ok("CREATE DB", conn.request(&format!("CREATE DB {}", ds.tenant)))?;
    expect_ok("USE", conn.request(&format!("USE {}", ds.tenant)))?;
    for (relation, rows) in &ds.relations {
        expect_ok("LOAD", conn.load(relation, rows))?;
    }
    Ok(())
}

fn cqd_flags(cfg: &Config, data_dir: Option<&TempDir>) -> Vec<String> {
    let mut flags = Vec::new();
    if let Some(dir) = data_dir {
        // flush policy, fixed: every ack is fsynced, and concurrent
        // committers coalesce into one flush without waiting
        flags.extend(["--data-dir".to_string(), dir.path().display().to_string()]);
        flags.extend(["--group-commit-ms".to_string(), "0".to_string()]);
    }
    if cfg.traced {
        flags.extend(["--profile".to_string(), "64".to_string()]);
    }
    flags
}

/// Spawn `cqd`, create and load every tenant, connect, and run each
/// connection's cycle once (checked): plan cache and catalog are warm
/// when this returns.
pub fn set_up_once(script: &Script, cfg: &Config) -> Result<Live, String> {
    let data_dir = if script.durable {
        Some(
            TempDir::create(&cfg.scratch, "data")
                .map_err(|e| format!("data dir: {e}"))?,
        )
    } else {
        None
    };
    let flags = cqd_flags(cfg, data_dir.as_ref());
    let server =
        Cqd::spawn(&cfg.cqd, &cfg.scratch, &flags).map_err(|e| format!("spawn: {e}"))?;
    let mut loader =
        Conn::connect(server.addr(), OP_DEADLINE).map_err(|e| format!("connect: {e}"))?;
    for ds in &script.tenants {
        load_tenant(&mut loader, ds)?;
    }
    drop(loader);
    let mut runs = Vec::new();
    for (id, cycle) in script.cycles.iter().enumerate() {
        let mut run =
            ConnRun::connect(id, server.addr(), &script.start_tenant, OP_DEADLINE)
                .map_err(|e| format!("connect: {e}"))?;
        run.run_once(script.warm_up.as_ref().unwrap_or(cycle), Instant::now());
        runs.push(run);
    }
    Ok(Live { server, runs, data_dir })
}

/// Set up repeatedly; keep the last. Each earlier server is killed
/// before the next starts, so set-ups never overlap.
fn set_up(script: &Script, cfg: &Config, times: &mut Vec<f64>) -> Result<Live, String> {
    let began = Instant::now();
    loop {
        let t = Instant::now();
        let live = set_up_once(script, cfg)?;
        times.push(t.elapsed().as_secs_f64());
        let enough = times.len() >= MAX_SETUPS || began.elapsed() >= SETUP_BUDGET;
        if times.len() >= MIN_SETUPS && enough {
            return Ok(live);
        }
    }
}

/// `COUNT` over the wire = rows of `ANSWERS` over the wire = the
/// mirror's count (= brute force where the tenant is tiny).
fn verify_three_ways(script: &Script, server: &Cqd) -> Vec<String> {
    let mut problems = Vec::new();
    if script.verify.is_empty() {
        return problems;
    }
    let ds = &script.tenants[0];
    let mut oracle = Oracle::new(ds);
    let mut conn = match Conn::connect_to(server.addr(), OP_DEADLINE, &ds.tenant) {
        Ok(c) => c,
        Err(e) => return vec![format!("verify: connect: {e}")],
    };
    for name in &script.verify {
        let q = shape(name).query;
        let mirror = oracle.count(q);
        let counted = conn.request(&format!("COUNT {q}")).map(|r| r.terminal);
        let streamed = conn.stream(&format!("ANSWERS {q}")).map(|s| s.rows);
        let agree = matches!(&counted, Ok(t) if *t == format!("OK {mirror}"))
            && matches!(&streamed, Ok(rows) if *rows == mirror)
            && (ds.m > Config::TINY_M || oracle.brute_force_count(q) == mirror);
        if !agree {
            problems.push(format!(
                "verify {name}: wire COUNT {counted:?}, wire ANSWERS rows {streamed:?}, \
                 mirror {mirror}"
            ));
        }
    }
    problems
}

/// Checks made outside the measured cycles (verification, the closing
/// phases of `mixed_rw` and `durable_ingest`): each is one attempted
/// operation, and a wrong answer is a failed one.
#[derive(Default)]
struct Checks {
    attempted: u64,
    failed: u64,
    messages: Vec<String>,
}

impl Checks {
    fn check(&mut self, ok: bool, message: impl FnOnce() -> String) {
        self.attempted += 1;
        if !ok {
            self.failed += 1;
            self.messages.push(message());
        }
    }
}

/// Run the named workload once.
pub fn run(name: &str, cfg: &Config) -> Result<Outcome, String> {
    let script = script(name, cfg)?;
    let mut setup_times = Vec::new();
    let Live { server, mut runs, data_dir } = set_up(&script, cfg, &mut setup_times)?;
    let mut checks = Checks::default();
    for problem in verify_three_ways(&script, &server) {
        checks.check(false, || problem);
    }
    if script.name == "stream_answers" {
        verify_access_plan(&server, &script, &mut checks);
    }
    // warm-up replies were checked too: a wrong one counts, but its
    // timing (cold caches) stays out of the measured samples
    for run in &mut runs {
        checks.attempted += run.samples.iter().map(|s| s.ops).sum::<u64>();
        run.samples.clear();
        run.cycle_marks.clear();
    }

    let mut layer = Metrics::new();
    let before = match cfg.traced {
        true => Some(probe_server(&server, &mut layer)?),
        false => None,
    };

    let window = Duration::from_secs_f64(cfg.seconds);
    let t0 = Instant::now();
    let mut metrics = Metrics::new();
    run_all(&mut runs, &script.cycles, t0, window);
    let wall = t0.elapsed();

    if let Some(before) = before {
        counter_deltas(&before, &scrape(&server)?, &mut layer);
        catalog_traffic(&server, &script, &mut layer)?;
    }
    let rss = server.rss_peak_mb();
    let cqd_flags = server.flags.clone();
    match script.name {
        "mixed_rw" => joining_inserts(&script, &server, &runs, cfg, &mut checks),
        "durable_ingest" => {
            durable_closing(&server, &mut runs, t0, cfg.quick, &mut metrics, &mut checks);
            let dir = data_dir.as_ref().expect("durable workloads have a data dir");
            crash_and_recover(server, dir, &runs, cfg, &mut metrics, &mut checks);
        }
        _ => drop(server),
    }

    let mut out = Outcome {
        workload: script.name,
        clients: script.cycles.len(),
        cqd_flags,
        attempted: checks.attempted,
        failed: checks.failed,
        failures: checks.messages,
        metrics,
        by_label: Vec::new(),
        layer,
        samples: Vec::new(),
    };
    summarize(&mut out, runs, wall, rss, &setup_times);
    Ok(out)
}

/// `stream_answers` jumps through `CURSOR ACCESS` with `SEEK`; that
/// only measures what it says if the plan is a direct-access operator.
fn verify_access_plan(server: &Cqd, script: &Script, checks: &mut Checks) {
    let q = shape("path3_answers").query;
    let explained = server.client().and_then(|mut c| {
        c.use_db(&script.start_tenant)?;
        c.request(&format!("EXPLAIN ACCESS {q}"))
    });
    let operator =
        explained.ok().and_then(|r| Explained::parse(&r.data)).map(|e| e.operator);
    checks.check(
        matches!(&operator, Some(op) if op.contains("direct access") || op.contains("mixed-radix access")),
        || format!("EXPLAIN ACCESS path3_answers: operator {operator:?} is not direct access"),
    );
}

fn scrape(server: &Cqd) -> Result<Scrape, String> {
    let reply = server
        .client()
        .and_then(|mut c| c.metrics(None))
        .map_err(|e| format!("METRICS scrape: {e}"))?;
    Ok(Scrape::parse(&reply.data))
}

/// Traced runs, before measuring: the `PING` round trip, the cost of a
/// `METRICS` scrape, and the scrape itself as the counters' baseline.
fn probe_server(server: &Cqd, layer: &mut Metrics) -> Result<Scrape, String> {
    let mut conn = Conn::connect(server.addr(), OP_DEADLINE)
        .map_err(|e| format!("probe connect: {e}"))?;
    let mut rtts = Vec::with_capacity(500);
    for _ in 0..500 {
        let t = Instant::now();
        expect_ok("PING", conn.request("PING"))?;
        rtts.push(t.elapsed().as_secs_f64() * 1e6);
    }
    put(layer, "server.wire_rtt_p50_us", "us", stats::median(&rtts).unwrap_or(0.0));
    let mut scrapes = Vec::new();
    let mut last = scrape(server)?;
    for _ in 0..5 {
        let t = Instant::now();
        last = scrape(server)?;
        scrapes.push(t.elapsed().as_secs_f64() * 1e3);
    }
    put(layer, "obs.metrics_scrape_ms", "ms", stats::median(&scrapes).unwrap_or(0.0));
    Ok(last)
}

/// Counter movement over the measured window, from the server's own
/// `METRICS`. A ratio with no lookups behind it reads 1: nothing missed.
/// (`catalog.invalidations` is reported as exported: today it cannot
/// move, because a write replaces the catalog instead of invalidating
/// it — see [`CatalogTraffic`] for the number that does.)
fn counter_deltas(before: &Scrape, after: &Scrape, layer: &mut Metrics) {
    let server =
        |name: &str| after.get("server", name).saturating_sub(before.get("server", name));
    let tenants =
        |name: &str| after.sum_tenants(name).saturating_sub(before.sum_tenants(name));
    let ratio = |hits: u64, misses: u64| match hits + misses {
        0 => 1.0,
        total => hits as f64 / total as f64,
    };
    let (hits, misses) = (server("plan-cache.hits"), server("plan-cache.misses"));
    put(layer, "planner.cache_hit_ratio", "ratio", ratio(hits, misses));
    put(layer, "planner.cache_misses", "count", misses as f64);
    put(
        layer,
        "data.catalog_invalidations",
        "count",
        tenants("catalog.invalidations") as f64,
    );
    let memo = ["views", "hash-indexes", "artifacts"]
        .iter()
        .map(|k| after.sum_tenants(&format!("catalog.memo.{k}")))
        .sum::<u64>();
    put(layer, "data.catalog_memo_entries", "count", memo as f64);
    let errors =
        after.sum_prefix("server", "errors.") - before.sum_prefix("server", "errors.");
    put(layer, "server.errors", "count", errors as f64);
}

/// How warm the last queries of the window ran, from the per-query
/// traces `cqd --profile` retains (see [`CatalogTraffic`]).
fn catalog_traffic(
    server: &Cqd,
    script: &Script,
    layer: &mut Metrics,
) -> Result<(), String> {
    let mut client = server.client().map_err(|e| format!("PROFILE: {e}"))?;
    let mut traffic = CatalogTraffic::default();
    for ds in &script.tenants {
        let reply = client.profile(&ds.tenant).map_err(|e| format!("PROFILE: {e}"))?;
        if !reply.is_ok() {
            return Err(format!("PROFILE {}: {}", ds.tenant, reply.terminal));
        }
        traffic.add(CatalogTraffic::parse(&reply.data));
    }
    put(layer, "data.catalog_hit_ratio", "ratio", traffic.hit_ratio());
    put(layer, "data.catalog_builds_per_query", "count", traffic.builds_per_query());
    Ok(())
}

fn save_op() -> Op {
    Op {
        label: "save",
        class: Class::Write,
        req: Req::Line("SAVE".into()),
        check: Check::Prefix("OK checkpointed ingest: ".into()),
    }
}

fn load_op(rows: usize) -> Op {
    Op {
        label: "load",
        class: Class::Write,
        req: Req::Load("Bulk", rows),
        check: Check::Prefix(format!("OK loaded {rows} rows into Bulk (")),
    }
}

/// After `durable_ingest`'s window of single-row `INSERT`s: a fixed
/// number of `LOAD` blocks per connection, one `SAVE`, and a short tail
/// of `INSERT`s that only the WAL holds.
fn durable_closing(
    server: &Cqd,
    runs: &mut [ConnRun],
    t0: Instant,
    quick: bool,
    metrics: &mut Metrics,
    checks: &mut Checks,
) {
    let block = if quick { LOAD_BLOCK / 20 } else { LOAD_BLOCK };
    run_once_all(runs, &vec![load_op(block); LOAD_BLOCKS], t0);
    // bytes the log took per acknowledged row, before the checkpoint
    // truncates it
    let wal_bytes = scrape(server).map(|s| s.sum_tenants("storage.wal.appended-bytes"));
    let rows: usize = runs.iter().map(|r| r.acked.len()).sum();
    checks.check(wal_bytes.is_ok() && rows > 0, || format!("wal scrape: {wal_bytes:?}"));
    if let (Ok(bytes), true) = (wal_bytes, rows > 0) {
        put(metrics, "disk_bytes_per_row", "bytes", bytes as f64 / rows as f64);
    }
    runs[0].run_once(&[save_op()], t0);
    run_once_all(runs, &vec![insert_op("Ingest"); TAIL_INSERTS], t0);
}

/// `kill -9`, re-exec over the same directory, and hold the server to
/// its acks: every acknowledged row must be there. `recovery_s` is exec
/// → first correct `COUNT` over the recovered tenant.
///
/// Sandbox caveat: SIGKILL leaves the OS page cache intact, so this
/// checks the ack protocol (nothing acked is lost by the *process*
/// dying), not the device.
fn crash_and_recover(
    server: Cqd,
    data_dir: &TempDir,
    runs: &[ConnRun],
    cfg: &Config,
    metrics: &mut Metrics,
    checks: &mut Checks,
) {
    let flags: Vec<String> =
        server.flags.iter().skip_while(|f| *f != "--data-dir").cloned().collect();
    debug_assert_eq!(flags.get(1).map(String::as_str), data_dir.path().to_str());
    server.kill9();

    let mut acked: BTreeMap<&'static str, Vec<u64>> = BTreeMap::new();
    for (relation, key) in runs.iter().flat_map(|r| r.acked.iter()) {
        acked.entry(relation).or_default().push(*key);
    }
    let want_ingest = acked.get("Ingest").map_or(0, Vec::len);

    let started = Instant::now();
    let recovered = Cqd::spawn(&cfg.cqd, &cfg.scratch, &flags).and_then(|server| {
        let mut conn = Conn::connect_to(server.addr(), OP_DEADLINE, "ingest")?;
        let counted = conn.request("COUNT q(a, b) :- Ingest(a, b)")?;
        Ok((server, conn, counted.terminal, started.elapsed()))
    });
    let (_server, mut conn, counted, took) = match recovered {
        Ok(r) => r,
        Err(e) => return checks.check(false, || format!("recovery: {e}")),
    };
    checks.check(counted == format!("OK {want_ingest}"), || {
        format!("recovered COUNT Ingest: `{counted}`, acked {want_ingest}")
    });
    put(metrics, "recovery_s", "s", took.as_secs_f64());

    for (relation, keys) in &acked {
        let mut expect = StreamExpect::empty();
        for k in keys {
            expect.push(&crate::ops::render_key_row(*k));
        }
        let query = format!("ANSWERS q(a, b) :- {relation}(a, b)");
        let got = conn.stream(&query);
        let intact =
            matches!(&got, Ok(s) if (s.rows, s.digest) == (expect.rows, expect.digest));
        if intact {
            checks.check(true, String::new);
            continue;
        }
        // the slow path names names: which acknowledged rows are gone
        let present: std::collections::HashSet<String> = conn
            .request(&query)
            .map(|r| r.data.into_iter().collect())
            .unwrap_or_default();
        let missing: Vec<u64> = keys
            .iter()
            .copied()
            .filter(|k| !present.contains(&crate::ops::render_key_row(*k)))
            .collect();
        // rows beyond the acked set are legal (an op that failed on the
        // client side may still have landed); missing acked rows are not
        checks.check(missing.is_empty(), || {
            format!(
                "{relation}: {} acked rows missing after kill -9, first {:?}",
                missing.len(),
                &missing[..missing.len().min(10)]
            )
        });
    }
}

/// `mixed_rw`'s closing phase: rows that *do* join go into `R1`, and
/// `path3_count` must move by exactly what the mirror says; `R1` itself
/// must hold its generated rows plus every acknowledged insert.
fn joining_inserts(
    script: &Script,
    server: &Cqd,
    runs: &[ConnRun],
    cfg: &Config,
    checks: &mut Checks,
) {
    let ds = &script.tenants[0];
    let mut conn = match Conn::connect_to(server.addr(), OP_DEADLINE, &ds.tenant) {
        Ok(c) => c,
        Err(e) => {
            return checks.check(false, || format!("joining inserts: connect: {e}"))
        }
    };
    // (fresh key, b) for b taken from R2's first column: each such row
    // extends to every R2(b, c), R3(c, d) continuation
    let r2 = ds.pairs("R2");
    let mut rng = crate::data::Rng::fork(cfg.seed, "mixed_rw/joining");
    let base = crate::ops::key_base(runs.len());
    let rows: Vec<(u64, u64)> = (0..JOINING_INSERTS as u64)
        .map(|i| (base + i, r2[rng.below(r2.len() as u64) as usize].0))
        .collect();
    let mut mirror = ds.clone();
    let r1 = &mut mirror.relations.iter_mut().find(|(n, _)| n == "R1").expect("R1").1;
    r1.extend(rows.iter().copied());
    let path3 = shape("path3_count");
    let want = Oracle::new(&mirror).terminal(path3);
    let unchanged = Oracle::new(ds).terminal(path3);
    for (a, b) in &rows {
        let reply = conn.request(&format!("INSERT R1({a}, {b})")).map(|r| r.terminal);
        checks.check(
            matches!(&reply, Ok(t) if t.starts_with("OK inserted 1 row into R1 (")),
            || format!("joining INSERT: {reply:?}"),
        );
    }
    let got = conn.request(&path3.line()).map(|r| r.terminal);
    checks.check(matches!(&got, Ok(t) if *t == want) && want != unchanged, || {
        format!("path3_count after joining inserts: {got:?}, want `{want}` (was `{unchanged}`)")
    });
    let acked_r1 =
        runs.iter().flat_map(|r| r.acked.iter()).filter(|(rel, _)| *rel == "R1").count();
    let want_r1 = format!("OK {}", ds.pairs("R1").len() + acked_r1 + rows.len());
    let got = conn.request("COUNT q(a, b) :- R1(a, b)").map(|r| r.terminal);
    checks.check(matches!(&got, Ok(t) if *t == want_r1), || {
        format!("R1 rows after the run: {got:?}, want `{want_r1}`")
    });
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// The share of cycles at least as fast as the cycle time `ops_per_s`
/// is computed from.
///
/// In a shared sandbox a run's slow cycles are mostly other tenants'
/// doing: between consecutive 10 s windows of one unchanged process the
/// mean cycle time moved by 10–35 %, the lower-decile cycle time by
/// about 5 %. Interference only ever slows a cycle, so the fast decile
/// is the machine left alone — the one speed that holds still between
/// runs, and the only one a regression bound can be hung on.
const UNDISTURBED: f64 = 0.10;
/// Fewer whole cycles than this and the decile is the fastest cycle or
/// two: fall back to correct replies over elapsed time.
const MIN_CYCLES: usize = 10;

/// Requests per second at the lower-decile cycle time; `None` with too
/// few cycles for a decile.
pub fn undisturbed_rate(requests_per_cycle: u64, mut durations: Vec<f64>) -> Option<f64> {
    if durations.len() < MIN_CYCLES {
        return None;
    }
    stats::sort(&mut durations);
    let fast = stats::percentile(&durations, UNDISTURBED)?;
    Some(requests_per_cycle as f64 / fast)
}

/// Requests per second of one connection, from its cycle times.
fn connection_rate(run: &ConnRun, wall: Duration) -> f64 {
    let requests = |samples: &[Sample]| -> u64 {
        samples.iter().filter(|s| s.ok).map(|s| s.ops).sum()
    };
    let per_cycle =
        run.cycle_marks.first().map_or(0, |&(n, _)| requests(&run.samples[..n]));
    match undisturbed_rate(per_cycle, run.cycle_durations()) {
        Some(rate) => rate,
        None if wall > Duration::ZERO => {
            requests(&run.samples) as f64 / wall.as_secs_f64()
        }
        None => 0.0,
    }
}

/// Fold the connections' samples into the end-to-end metrics.
fn summarize(
    out: &mut Outcome,
    runs: Vec<ConnRun>,
    wall: Duration,
    rss_mb: Option<f64>,
    setup_times: &[f64],
) {
    let ops_per_s: f64 = runs.iter().map(|r| connection_rate(r, wall)).sum();
    for run in &runs {
        out.attempted += run.samples.iter().map(|s| s.ops).sum::<u64>();
        out.failed += run.failed;
        out.failures.extend(run.failures.iter().cloned());
    }
    let samples: Vec<Sample> = runs.into_iter().flat_map(|r| r.samples).collect();
    let ok: Vec<&Sample> = samples.iter().filter(|s| s.ok).collect();

    let m = &mut out.metrics;
    put(m, "setup_s", "s", stats::median(setup_times).unwrap_or(0.0));
    put(m, "ops_per_s", "1/s", ops_per_s);
    let mut percentiles = |p50: &str, p99: &str, class: Class| {
        let mut v: Vec<f64> =
            ok.iter().filter(|s| s.class == class).map(|s| ms(s.took)).collect();
        let (a, b) = stats::p50_p99(&mut v);
        if let Some(v) = a {
            put(m, p50, "ms", v);
        }
        if let Some(v) = b {
            put(m, p99, "ms", v);
        }
    };
    percentiles("read_p50_ms", "read_p99_ms", Class::Read);
    percentiles("write_p50_ms", "write_p99_ms", Class::Write);
    // answer rows per second of time spent inside ANSWERS and FETCH
    let streamed: Vec<&&Sample> = ok.iter().filter(|s| s.bytes > 0).collect();
    let stream_time: f64 = streamed.iter().map(|s| s.took.as_secs_f64()).sum();
    if stream_time > 0.0 {
        let rows: u64 = streamed.iter().map(|s| s.rows).sum();
        put(m, "rows_per_s", "1/s", rows as f64 / stream_time);
    }
    let first_rows: Vec<f64> = ok
        .iter()
        .filter(|s| s.class == Class::Drain)
        .filter_map(|s| s.first_row.map(ms))
        .collect();
    if let Some(v) = stats::median(&first_rows) {
        put(m, "ttfr_p50_ms", "ms", v);
    }
    put(m, "failed_share", "ratio", out.failed as f64 / out.attempted.max(1) as f64);
    if let Some(rss) = rss_mb {
        put(m, "server_rss_peak_mb", "MB", rss);
    }

    let mut labels: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for s in &ok {
        labels.entry(s.label).or_default().push(ms(s.took));
    }
    out.by_label = labels
        .into_iter()
        .map(|(label, v)| (label, v.len(), stats::median(&v).unwrap_or(0.0)))
        .collect();
    out.samples = samples;
}
