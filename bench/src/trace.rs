//! The traced run's span list and the in-process replay that splits a
//! request's time between layers.
//!
//! A traced run keeps one `request` span per wire operation. To split
//! those, the workload's first connection's cycle is replayed in-process
//! against a mirror — a [`Session`] over its own [`ServerState`] (durable
//! when the workload is) fed the same `LOAD` lines, and per tenant an
//! [`Oracle`] (a `Database` + `IndexCatalog` + `Planner`) built from the
//! same generated rows. Every replayed operation runs twice: once through
//! `Session::handle_line` (or `handle_action` + `drain_flow`), which is
//! everything `cqd` does short of the socket; once as direct calls into
//! each layer's public entry points. A seeded 1-in-k sample of them is
//! kept as child spans.
//!
//! A layer's self time is its span minus its children: `server` is the
//! session call minus `core`, `planner`, `engine` and `storage`; `wire`
//! is the TCP round trip minus the session call.

use crate::data::{Dataset, Rng};
use crate::json::Json;
use crate::layers::session_with;
use crate::ops::{key_base, Op, Req, Sample};
use crate::oracle::Oracle;
use crate::stats;
use crate::wire::TempDir;
use crate::workloads::{put, Config, Metrics, Script};
use cq_core::parse_query;
use cq_planner::execute::Answers;
use cq_planner::{EvalCtx, Output, Task};
use cq_server::protocol::{parse_command, render_row};
use cq_server::server::{Action, Session};
use cq_server::state::{ServerState, WritePolicy};
use cq_storage::{Store, WalRecord, WalWriter};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// The layers a request's time is split between, outermost first.
pub const LAYERS: [&str; 6] = ["wire", "server", "core", "planner", "engine", "storage"];

/// One recorded interval. `parent` is the span that caused it; spans of
/// one request share `request`.
#[derive(Clone, Debug)]
pub struct Span {
    pub id: u64,
    pub parent: Option<u64>,
    pub request: u64,
    pub name: &'static str,
    pub label: &'static str,
    pub start_us: f64,
    pub dur_us: f64,
}

impl Span {
    pub fn to_json(&self) -> Json {
        Json::obj()
            .with("id", self.id)
            .with("parent", self.parent.map_or(Json::Null, Json::from))
            .with("request", self.request)
            .with("name", self.name)
            .with("label", self.label)
            .with("start_us", self.start_us)
            .with("dur_us", self.dur_us)
    }
}

/// What the replay measured: per operation label, the median in-process
/// session time and the median time of each child span.
pub struct Replay {
    pub session_us: BTreeMap<&'static str, f64>,
    pub children_us: BTreeMap<&'static str, BTreeMap<&'static str, f64>>,
    /// The sampled requests' spans (session + children).
    pub spans: Vec<Span>,
    pub replayed_ops: usize,
}

/// Child span name → the layer whose self time it is.
fn layer_of(span: &str) -> &'static str {
    match span {
        "core.parse_query" => "core",
        "planner.plan" => "planner",
        "engine.execute" | "engine.stream" | "engine.seek" => "engine",
        "storage.wal_append" | "storage.wal_sync" => "storage",
        // parse_command and render are the server's own work: they stay
        // inside its self time and are listed for information
        _ => "server",
    }
}

struct Mirror {
    oracle: Oracle,
    /// The stream behind the mirror's open cursor, if any.
    cursor: Option<Answers>,
}

struct Replayer {
    session: Session,
    mirrors: BTreeMap<String, Mirror>,
    tenant: String,
    cursor_id: Option<u64>,
    next_key: u64,
    wal: Option<WalWriter>,
    rng: Rng,
    sample_every: u64,
    t0: Instant,
    next_id: u64,
    session_us: BTreeMap<&'static str, Vec<f64>>,
    children_us: BTreeMap<&'static str, BTreeMap<&'static str, Vec<f64>>>,
    spans: Vec<Span>,
    /// Removed last: the session above still has files open in them.
    _dirs: Vec<TempDir>,
}

fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Child spans of one replayed op, in first-seen order, one per name.
#[derive(Default)]
struct Spans(Vec<(&'static str, Duration)>);

impl Spans {
    fn add(&mut self, name: &'static str, took: Duration) {
        match self.0.iter_mut().find(|(n, _)| *n == name) {
            Some(slot) => slot.1 += took,
            None => self.0.push((name, took)),
        }
    }

    fn time<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let t = Instant::now();
        let out = f();
        self.add(name, t.elapsed());
        out
    }
}

impl Replayer {
    fn say(&mut self, line: &str) -> String {
        self.session.handle_line(line).map(|r| r.terminal).unwrap_or_default()
    }

    /// The session path of one op: everything but the socket.
    fn through_session(&mut self, op: &Op, key: u64) -> Duration {
        let t = Instant::now();
        match &op.req {
            Req::Line(line) => {
                black_box(self.say(line));
            }
            Req::Pipeline(lines) => {
                for line in lines {
                    black_box(self.say(line));
                }
            }
            Req::Drain(line) => match self.session.handle_action(line.as_bytes()) {
                Some(Action::Stream(flow)) => {
                    let mut sink = std::io::sink();
                    let _ = self.session.drain_flow(*flow, &mut sink);
                }
                other => drop(black_box(other.is_some())),
            },
            Req::Cursor(line) => {
                let terminal = self.say(line);
                self.cursor_id = terminal
                    .strip_prefix("OK cursor ")
                    .and_then(|id| id.trim().parse().ok());
            }
            Req::Fetch(n) => {
                let id = self.cursor_id.unwrap_or(0);
                black_box(self.say(&format!("FETCH {id} {n}")));
            }
            Req::Seek(k) => {
                let id = self.cursor_id.unwrap_or(0);
                black_box(self.say(&format!("SEEK {id} {k}")));
            }
            Req::Close => {
                let id = self.cursor_id.take().unwrap_or(0);
                black_box(self.say(&format!("CLOSE {id}")));
            }
            Req::Insert(relation) => {
                black_box(self.say(&format!("INSERT {relation}({key}, {key})")));
            }
            Req::Load(relation, n) => {
                self.say(&format!("LOAD {relation} 2"));
                for k in key..key + *n as u64 {
                    self.session.handle_line(&format!("{k} {k}"));
                }
                black_box(self.say("END"));
            }
        }
        t.elapsed()
    }

    /// The same op as direct calls into each layer, each one timed.
    /// Runs for every op — sampled or not — so the mirror's catalog is
    /// exactly as warm as the session's. Spans of one name are summed
    /// (a pipelined batch parses sixteen commands: one span's worth).
    fn through_layers(&mut self, op: &Op, key: u64) -> Vec<(&'static str, Duration)> {
        let mut spans = Spans::default();
        match &op.req {
            Req::Pipeline(lines) => {
                for line in lines {
                    self.line_layers(line, false, &mut spans);
                }
            }
            Req::Line(line) | Req::Drain(line) => {
                self.line_layers(line, false, &mut spans)
            }
            Req::Cursor(line) => self.line_layers(line, true, &mut spans),
            Req::Fetch(n) => {
                spans.time("server.parse_command", || {
                    black_box(parse_command(black_box(&format!("FETCH 0 {n}"))).is_ok())
                });
                if let Some(answers) = self.mirror().and_then(|m| m.cursor.as_mut()) {
                    let mut rows: Vec<Vec<u64>> = Vec::with_capacity(*n as usize);
                    spans.time("engine.stream", || {
                        for _ in 0..*n {
                            match answers.next() {
                                Ok(Some(row)) => rows.push(row.to_vec()),
                                _ => break,
                            }
                        }
                    });
                    spans.time("server.render", || {
                        black_box(rows.iter().map(|r| render_row(r).len()).sum::<usize>())
                    });
                }
            }
            Req::Seek(k) => {
                spans.time("server.parse_command", || {
                    black_box(parse_command(black_box(&format!("SEEK 0 {k}"))).is_ok())
                });
                if let Some(answers) = self.mirror().and_then(|m| m.cursor.as_mut()) {
                    spans.time("engine.seek", || black_box(answers.seek(*k).is_ok()));
                }
            }
            Req::Close => {
                spans.time("server.parse_command", || {
                    black_box(parse_command(black_box("CLOSE 0")).is_ok())
                });
                if let Some(m) = self.mirror() {
                    m.cursor = None;
                }
            }
            Req::Insert(relation) => {
                let line = format!("INSERT {relation}({key}, {key})");
                spans.time("server.parse_command", || {
                    black_box(parse_command(black_box(&line)).is_ok())
                });
                // keep the mirror in step: the session's tenant dropped
                // its catalog on this write, so must the mirror
                if let Some(rel) =
                    self.mirror().and_then(|m| m.oracle.db.get_mut(relation))
                {
                    rel.insert_row(&[key, key]);
                }
                if let Some(wal) = self.wal.as_mut() {
                    let record = WalRecord::Insert {
                        relation: relation.to_string(),
                        row: vec![key, key],
                    };
                    spans.time("storage.wal_append", || {
                        black_box(wal.append(&record).is_ok())
                    });
                    spans.time("storage.wal_sync", || black_box(wal.sync().is_ok()));
                }
            }
            Req::Load(..) => {}
        }
        spans.0
    }

    fn mirror(&mut self) -> Option<&mut Mirror> {
        self.mirrors.get_mut(&self.tenant)
    }

    /// One request line as layer calls: `parse_command`, and for a query
    /// verb `parse_query` → `Planner::plan` → `EvalCtx::execute` → (for
    /// `ANSWERS`) pull and render every row. A `CURSOR` parks its
    /// stream for the `FETCH`/`SEEK` that follow.
    fn line_layers(&mut self, line: &str, park: bool, spans: &mut Spans) {
        spans.time("server.parse_command", || {
            black_box(parse_command(black_box(line)).is_ok())
        });
        if let Some(tenant) = line.strip_prefix("USE ") {
            self.tenant = tenant.to_string();
        }
        let (verb, rest) = line.split_once(' ').unwrap_or((line, ""));
        let (task, src) = match verb {
            "DECIDE" => (Task::Decide, rest),
            "COUNT" => (Task::Count, rest),
            "ANSWERS" => (Task::Answers, rest),
            "CURSOR" => match rest.split_once(' ') {
                Some(("ANSWERS", q)) => (Task::Answers, q),
                Some(("ACCESS", q)) => (Task::Access, q),
                _ => return,
            },
            _ => return, // PING, USE, SAVE: no query behind them
        };
        let Some(mirror) = self.mirrors.get_mut(&self.tenant) else { return };
        let Ok(q) = spans.time("core.parse_query", || parse_query(black_box(src))) else {
            return;
        };
        let o = &mut mirror.oracle;
        let plan = spans.time("planner.plan", || {
            let stats = o.catalog.stats(&o.db);
            o.planner.plan(&q, task, &stats)
        });
        let out = spans.time("engine.execute", || {
            EvalCtx::new().with_catalog(&o.catalog).execute(&plan, &q, &o.db)
        });
        let Ok(Output::Answers(mut answers)) = out else { return };
        if park {
            mirror.cursor = Some(answers);
            return;
        }
        let t = Instant::now();
        let mut rendered = 0usize;
        let mut render = Duration::ZERO;
        while let Ok(Some(row)) = answers.next() {
            let r = Instant::now();
            rendered += render_row(row).len();
            render += r.elapsed();
        }
        black_box(rendered);
        spans.add("engine.stream", t.elapsed().saturating_sub(render));
        spans.add("server.render", render);
    }

    fn replay_op(&mut self, op: &Op) {
        let key = self.next_key;
        self.next_key += match op.req {
            Req::Load(_, n) => n as u64,
            _ => 1,
        };
        let started = self.t0.elapsed();
        let whole = self.through_session(op, key);
        let children = self.through_layers(op, key);
        self.session_us.entry(op.label).or_default().push(us(whole));
        for (name, took) in &children {
            self.children_us
                .entry(op.label)
                .or_default()
                .entry(name)
                .or_default()
                .push(us(*took));
        }
        if self.rng.below(self.sample_every) != 0 {
            return;
        }
        // keep this one: a session span with its children laid end to
        // end beneath it (they were measured back to back, after it)
        let request = self.next_id;
        self.next_id += 1 + children.len() as u64;
        self.spans.push(Span {
            id: request,
            parent: None,
            request,
            name: "server.session",
            label: op.label,
            start_us: us(started),
            dur_us: us(whole),
        });
        let mut at = us(started);
        for (i, (name, took)) in children.iter().enumerate() {
            self.spans.push(Span {
                id: request + 1 + i as u64,
                parent: Some(request),
                request,
                name,
                label: op.label,
                start_us: at,
                dur_us: us(*took),
            });
            at += us(*took);
        }
    }
}

/// How long a replay may run, and how many sampled requests it keeps.
const REPLAY_BUDGET: Duration = Duration::from_millis(1500);
const KEPT_REQUESTS: usize = 100;

/// Replay `script`'s first connection in-process. `sample_every` is the
/// k of the 1-in-k span sample.
pub fn replay(
    script: &Script,
    cfg: &Config,
    sample_every: u64,
) -> Result<Replay, String> {
    let mut dirs = Vec::new();
    let state = if script.durable {
        let dir = TempDir::create(&cfg.scratch, "replay").map_err(|e| e.to_string())?;
        let store = Store::open_dir(dir.path()).map_err(|e| e.to_string())?;
        let (state, _) = ServerState::recover(store).map_err(|e| e.to_string())?;
        // the flush policy the workload's `cqd` runs with
        state.set_write_policy(WritePolicy {
            group_commit: Some(Duration::ZERO),
            auto_save_bytes: None,
        });
        dirs.push(dir);
        state
    } else {
        ServerState::new()
    };
    // a scratch log for the direct `WalWriter` calls
    let wal = if script.durable {
        let dir =
            TempDir::create(&cfg.scratch, "replay-wal").map_err(|e| e.to_string())?;
        let store = Store::open_dir(dir.path()).map_err(|e| e.to_string())?;
        let wal = store.create_tenant("direct").map_err(|e| e.to_string())?;
        dirs.push(dir);
        Some(wal)
    } else {
        None
    };
    let tenants: Vec<&Dataset> = script.tenants.iter().collect();
    let session = session_with(Arc::new(state), &tenants);
    let mirrors = script
        .tenants
        .iter()
        .map(|ds| (ds.tenant.clone(), Mirror { oracle: Oracle::new(ds), cursor: None }))
        .collect();
    let mut r = Replayer {
        session,
        mirrors,
        tenant: script.start_tenant.clone(),
        cursor_id: None,
        // a key range no measured connection uses
        next_key: key_base(7),
        wal,
        rng: Rng::fork(cfg.seed, "trace/sample"),
        sample_every: sample_every.max(1),
        t0: Instant::now(),
        next_id: 0,
        session_us: BTreeMap::new(),
        children_us: BTreeMap::new(),
        spans: Vec::new(),
        _dirs: dirs,
    };
    let used = r.say(&format!("USE {}", script.start_tenant));
    if !used.starts_with("OK") {
        return Err(format!("replay USE: {used}"));
    }
    let cycle = &script.cycles[0];
    // one unrecorded pass warms plan cache and catalogs on both sides
    for op in script.warm_up.as_ref().unwrap_or(cycle) {
        let key = r.next_key;
        r.next_key += 1;
        r.through_session(op, key);
        r.through_layers(op, key);
    }
    r.session_us.clear();
    r.children_us.clear();
    r.t0 = Instant::now();
    let mut replayed = 0;
    'cycles: loop {
        for op in cycle {
            r.replay_op(op);
            replayed += 1;
            if r.t0.elapsed() >= REPLAY_BUDGET && replayed >= cycle.len() {
                break 'cycles;
            }
        }
        if r.spans.iter().filter(|s| s.parent.is_none()).count() >= KEPT_REQUESTS {
            break;
        }
    }
    let med = |v: &Vec<f64>| stats::median(v).unwrap_or(0.0);
    Ok(Replay {
        session_us: r.session_us.iter().map(|(l, v)| (*l, med(v))).collect(),
        children_us: r
            .children_us
            .iter()
            .map(|(l, c)| (*l, c.iter().map(|(n, v)| (*n, med(v))).collect()))
            .collect(),
        spans: r.spans,
        replayed_ops: replayed,
    })
}

/// Per-layer self time of one operation label, in microseconds.
pub fn self_times(
    wire_p50_us: f64,
    session_us: f64,
    children: &BTreeMap<&'static str, f64>,
) -> BTreeMap<&'static str, f64> {
    let mut out: BTreeMap<&'static str, f64> = LAYERS.iter().map(|l| (*l, 0.0)).collect();
    let mut inner = 0.0;
    for (name, took) in children {
        let layer = layer_of(name);
        if layer != "server" {
            *out.get_mut(layer).expect("known layer") += took;
            inner += took;
        }
    }
    out.insert("server", (session_us - inner).max(0.0));
    out.insert("wire", (wire_p50_us - session_us).max(0.0));
    out
}

/// Fold a traced wire run and its replay into the workload's layer
/// table: per label, and mix-weighted over the run's operations.
pub fn attribute(
    samples: &[Sample],
    replay: &Replay,
    untraced_by_label: Option<&[(&'static str, usize, f64)]>,
    layer_metrics: &mut Metrics,
) -> Json {
    let mut wire: BTreeMap<&'static str, Vec<f64>> = BTreeMap::new();
    for s in samples.iter().filter(|s| s.ok) {
        wire.entry(s.label).or_default().push(us(s.took));
    }
    let total: usize = wire.values().map(Vec::len).sum();
    let mut by_label = Json::obj();
    let mut weighted: BTreeMap<&'static str, f64> =
        LAYERS.iter().map(|l| (*l, 0.0)).collect();
    let mut session_total = 0.0;
    let mut traced_mean = 0.0;
    let mut untraced_mean = 0.0;
    let empty = BTreeMap::new();
    for (label, times) in &wire {
        let Some(session_us) = replay.session_us.get(label) else { continue };
        let p50 = stats::median(times).unwrap_or(0.0);
        let selfs =
            self_times(p50, *session_us, replay.children_us.get(label).unwrap_or(&empty));
        let share = times.len() as f64 / total.max(1) as f64;
        let mut row = Json::obj().with("ops", times.len()).with("wire_p50_us", p50);
        for layer in LAYERS {
            row.set(&format!("{layer}_self_us"), selfs[layer]);
            *weighted.get_mut(layer).expect("known layer") += share * selfs[layer];
        }
        session_total += share * session_us;
        traced_mean += share * p50;
        if let Some(untraced) =
            untraced_by_label.and_then(|u| u.iter().find(|(l, _, _)| l == label))
        {
            row.set("untraced_p50_us", untraced.2 * 1e3);
            untraced_mean += share * untraced.2 * 1e3;
        }
        for (name, took) in replay.children_us.get(label).unwrap_or(&empty) {
            row.set(&format!("span.{name}_us"), *took);
        }
        by_label.set(label, row);
    }
    put(layer_metrics, "server.session_total_us", "us", session_total);
    put(layer_metrics, "server.wire_self_us", "us", weighted["wire"]);
    let mut layers = Json::obj();
    for layer in LAYERS {
        layers.set(&format!("{layer}_self_us"), weighted[layer]);
    }
    let sum: f64 = weighted.values().sum();
    layers.set("sum_self_us", sum);
    layers.set("traced_p50_mean_us", traced_mean);
    if untraced_by_label.is_some() && untraced_mean > 0.0 {
        // per-label medians weighted by the op mix, traced layers summed
        // against the untraced run's: the closure check
        layers.set("untraced_p50_mean_us", untraced_mean);
        layers.set("sum_over_untraced", sum / untraced_mean);
    }
    Json::obj()
        .with("layers", layers)
        .with("by_label", by_label)
        .with("replayed_ops", replay.replayed_ops)
}

/// Request spans of a traced wire run: a seeded sample, so the file
/// stays reviewable, with the total recorded beside it.
pub fn request_spans(workload: &str, samples: &[Sample], keep: usize, seed: u64) -> Json {
    let mut rng = Rng::fork(seed, "trace/requests");
    let every = (samples.len() / keep.max(1)).max(1) as u64;
    let kept: Vec<Json> = samples
        .iter()
        .enumerate()
        .filter(|_| rng.below(every) == 0)
        .take(keep)
        .map(|(i, s)| {
            Json::obj()
                .with("id", i)
                .with("workload", workload)
                .with("name", "request")
                .with("label", s.label)
                .with("start_us", us(s.start))
                .with("dur_us", us(s.took))
                .with("ok", s.ok)
        })
        .collect();
    Json::obj()
        .with("recorded", samples.len())
        .with("sampled_1_in", every)
        .with("spans", kept)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_the_span_minus_its_children() {
        let children: BTreeMap<&'static str, f64> = [
            ("server.parse_command", 1.0),
            ("core.parse_query", 2.0),
            ("planner.plan", 3.0),
            ("engine.execute", 40.0),
            ("engine.stream", 10.0),
        ]
        .into_iter()
        .collect();
        let s = self_times(100.0, 70.0, &children);
        assert_eq!(s["wire"], 30.0);
        assert_eq!(s["core"], 2.0);
        assert_eq!(s["planner"], 3.0);
        assert_eq!(s["engine"], 50.0);
        assert_eq!(s["storage"], 0.0);
        // parse_command is the server's own work, not subtracted
        assert_eq!(s["server"], 15.0);
        assert_eq!(s.values().sum::<f64>(), 100.0);
    }
}
