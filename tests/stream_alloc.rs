//! The answer path allocates per flush, not per row.
//!
//! Constant-delay enumeration (Thm 3.17) and direct access (Thm 3.24)
//! promise O(1) work per answer after preprocessing; a heap allocation
//! per row — in the stream, the renderer or the chunking — would keep
//! the letter of that and lose the point. A counting global allocator
//! pins it: draining ten times the answers performs the same number of
//! allocations, up to a small constant, whichever plan produces them.
//! The enumerator's other half of the promise — a bounded number of
//! steps per answer — is pinned beside it on its `steps` counter. The
//! linear-time folds get the same pin: a warm `COUNT` or `DECIDE` over
//! memoized join-tree links allocates per tree node, not per row or key,
//! and a warm generic-join `COUNT` over bitmaps per worker, not per
//! morsel or node.

use cq_core::query::zoo;
use cq_core::{parse_query, ConjunctiveQuery};
use cq_data::generate::{path_database, random_pairs, seeded_rng, triangle_database};
use cq_data::{Database, IndexCatalog, Relation};
use cq_engine::{
    count, enumerate, generic_join, yannakakis, Answers, ExecCtx, LexDirectAccess,
};
use cq_obs::trace::{self, TraceSink};
use cq_planner::{EvalCtx, Output, Planner, Task};
use cq_server::protocol::render_row_into;
use cq_server::server::{Action, Session, STREAM_MAX_CHUNK_BYTES};
use cq_server::state::ServerState;
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io::Write;
use std::sync::Arc;

thread_local! {
    /// Allocations made by this thread (tests run on parallel threads).
    static ALLOCS: Cell<u64> = const { Cell::new(0) };
    /// Bytes this thread holds — allocated here and not yet freed here —
    /// and the most it has held since [`peak_bytes`] last reset it.
    static LIVE: Cell<u64> = const { Cell::new(0) };
    static PEAK: Cell<u64> = const { Cell::new(0) };
}

/// Count `bytes` more held by this thread.
fn grow(bytes: usize) {
    let _ = LIVE.try_with(|live| {
        live.set(live.get() + bytes as u64);
        let _ = PEAK.try_with(|peak| peak.set(peak.get().max(live.get())));
    });
}

/// Count `bytes` fewer held by this thread (a block another thread
/// allocated counts nothing below 0).
fn shrink(bytes: usize) {
    let _ = LIVE.try_with(|live| live.set(live.get().saturating_sub(bytes as u64)));
}

struct Counting;

// SAFETY: every method forwards to `System` unchanged; the only extra
// work is bumping a const-initialized, destructor-free thread-local
// `Cell`, which neither allocates nor re-enters the allocator.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        grow(layout.size());
        System.alloc(layout)
    }
    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        System.dealloc(ptr, layout)
    }
    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCS.try_with(|n| n.set(n.get() + 1));
        shrink(layout.size());
        grow(new_size);
        System.realloc(ptr, layout, new_size)
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Allocations (and reallocations) `f` performs on this thread.
fn allocations<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let before = ALLOCS.with(Cell::get);
    let out = f();
    (ALLOCS.with(Cell::get) - before, out)
}

/// The most bytes `f` holds at once on this thread, above what the
/// thread held before it.
fn peak_bytes<T>(f: impl FnOnce() -> T) -> (u64, T) {
    let base = LIVE.with(Cell::get);
    PEAK.with(|peak| peak.set(base));
    let out = f();
    (PEAK.with(Cell::get) - base, out)
}

/// `R = [0, a) × {0}`, `S = {0} × [0, b)`: `a + b` input rows whose
/// join on the shared column has `a · b` answers.
fn cross_database(a: u64, b: u64) -> Database {
    let mut db = Database::new();
    db.insert("R", Relation::from_pairs((0..a).map(|i| (i, 0)).collect::<Vec<_>>()));
    db.insert("S", Relation::from_pairs((0..b).map(|j| (0, j)).collect::<Vec<_>>()));
    db
}

/// The two result sizes every plan is drained at: 16 000 and 160 000.
const SIZES: [(u64, u64); 2] = [(125, 128), (400, 400)];

/// How far apart the two drains' allocation counts may be. The larger
/// result takes some 25 more flushes; none of them should allocate, so
/// this is slack for allocator-internal noise, not for rows.
const SLACK: u64 = 8;

/// A sink that only counts: the drain's allocations are its own.
#[derive(Default)]
struct CountingSink {
    lines: usize,
}

impl Write for CountingSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        self.lines += buf.iter().filter(|&&b| b == b'\n').count();
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// Allocations of one wire drain (`drain_flow`, after `handle_action`
/// has planned and preprocessed) of `query` over an `a × b` cross
/// database, asserting the plan operator and the row count on the way.
fn wire_drain_allocations(query: &str, op: &str, (a, b): (u64, u64)) -> u64 {
    let state = Arc::new(ServerState::new());
    let mut s = Session::new(Arc::clone(&state));
    s.handle_line("CREATE DB t");
    s.handle_line("USE t");
    state.tenant("t").unwrap().mutate(|db| *db = cross_database(a, b));
    let plan = s.handle_line(&format!("EXPLAIN ANSWERS {query}")).unwrap();
    assert!(plan.data.iter().any(|l| l.contains(op)), "expected {op}: {:?}", plan.data);
    let line = format!("ANSWERS {query}");
    let action = s.handle_action(line.as_bytes());
    let Some(Action::Stream(flow)) = action else {
        panic!("ANSWERS must stream");
    };
    let mut sink = CountingSink::default();
    let (n, result) = allocations(|| s.drain_flow(*flow, &mut sink));
    result.expect("the sink never fails");
    assert_eq!(sink.lines as u64, a * b + 1, "every row and the terminal");
    n
}

fn assert_flat(what: &str, small: u64, large: u64) {
    assert!(
        small < 100,
        "{what}: draining 16 000 rows allocated {small} times — that is per row"
    );
    assert!(
        large <= small + SLACK,
        "{what}: 16 000 rows took {small} allocations, 160 000 took {large}"
    );
}

#[test]
fn an_enumeration_drain_allocates_per_flush_not_per_row() {
    let q = "q(x, y, z) :- R(x, y), S(y, z)";
    let [small, large] =
        SIZES.map(|size| wire_drain_allocations(q, "constant-delay", size));
    assert_flat("constant-delay enumeration", small, large);
}

#[test]
fn a_materialized_drain_allocates_per_flush_not_per_row() {
    // the endpoints of a 2-path: not free-connex, so the plan
    // materializes the projection and streams the relation
    let q = "q(x, z) :- R(x, y), S(y, z)";
    let [small, large] =
        SIZES.map(|size| wire_drain_allocations(q, "generic join + projection", size));
    assert_flat("materialize + project", small, large);
}

#[test]
fn a_direct_access_drain_allocates_per_flush_not_per_row() {
    // `ACCESS` plans reach the wire page by page (`FETCH`), so the
    // stream is drained here the way the pump drains it: pull, render
    // in place, hand the buffer on when it fills
    let q = parse_query("q(x, y, z) :- R(x, y), S(y, z)").unwrap();
    let [small, large] = SIZES.map(|(a, b)| {
        let db = cross_database(a, b);
        let catalog = IndexCatalog::new();
        let plan = Planner::new().plan(&q, Task::Access, &catalog.stats(&db));
        // the free-connex structure projects out of a lexicographic
        // one, so this pull runs both `access_into`s
        assert_eq!(plan.op.name(), "free-connex direct access");
        let out = EvalCtx::new().with_catalog(&catalog).execute(&plan, &q, &db).unwrap();
        let Output::Answers(mut answers) = out else {
            panic!("ACCESS executes to a stream");
        };
        assert!(answers.seek(0).is_ok(), "an ACCESS stream seeks");
        let mut sink = CountingSink::default();
        let mut chunk = Vec::new();
        let (n, ()) = allocations(|| {
            while let Some(row) = answers.next().unwrap() {
                render_row_into(&mut chunk, row);
                chunk.push(b'\n');
                if chunk.len() >= STREAM_MAX_CHUNK_BYTES {
                    sink.write_all(&chunk).unwrap();
                    chunk.clear();
                }
            }
            sink.write_all(&chunk).unwrap();
        });
        assert_eq!(sink.lines as u64, a * b);
        n
    });
    assert_flat("direct access", small, large);
}

/// A warm `COUNT` folds over the memoized `q'` and its links, making one
/// message vector per tree node and a few per call (the query key, the
/// visiting order); a warm `DECIDE` is one lookup of its memoized `q'`:
/// ten times the rows, the same allocations.
#[test]
fn a_warm_count_or_decide_allocates_per_tree_node_not_per_row() {
    let star3 = zoo::star_selfjoin_free(3).join_version();
    for q in [zoo::path_join(3), star3] {
        let boolean = q.boolean_version();
        let [small, large] = [1_000usize, 10_000].map(|m| {
            let mut db = Database::new();
            for (i, atom) in q.atoms().iter().enumerate() {
                let mut rng = seeded_rng((m + i) as u64);
                db.insert(&atom.relation, random_pairs(m, m as u64, &mut rng));
            }
            let catalog = IndexCatalog::new();
            let ctx = ExecCtx::warm(&catalog);
            let cold = count::count_free_connex(&ctx, &q, &db).unwrap();
            let (counting, n) =
                allocations(|| count::count_free_connex(&ctx, &q, &db).unwrap());
            assert_eq!(n, cold);
            yannakakis::decide_acyclic(&ctx, &boolean, &db).unwrap();
            let (deciding, truth) =
                allocations(|| yannakakis::decide_acyclic(&ctx, &boolean, &db).unwrap());
            assert_eq!(truth, n > 0);
            [counting, deciding]
        });
        for (verb, small, large) in
            [("COUNT", small[0], large[0]), ("DECIDE", small[1], large[1])]
        {
            assert!(small < 40, "{verb} {q}: {small} allocations at m = 1 000");
            assert!(
                large <= small + SLACK,
                "{verb} {q}: m = 1 000 took {small} allocations, m = 10 000 took {large}"
            );
        }
    }
}

/// A warm product of one query is one catalog lookup, and the catalog
/// writes the lookup's key into a buffer of its own: a warm free-connex
/// `COUNT`, generic-join `COUNT` and `DECIDE`, free-connex direct access
/// and a sorted view allocate nothing at all.
#[test]
fn a_warm_catalog_hit_allocates_nothing() {
    let path = zoo::path_join(3);
    let path_db = path_database(3, 2_000, &mut seeded_rng(1));
    let tri = zoo::triangle_join();
    let tri_db = triangle_database(&random_pairs(2_000, 200, &mut seeded_rng(2)));
    let order = generic_join::default_order(&tri);
    let catalog = IndexCatalog::new();
    let ctx = ExecCtx::warm(&catalog);
    let hits: [(&str, &dyn Fn()); 5] = [
        ("free-connex COUNT", &|| {
            count::count_free_connex(&ctx, &path, &path_db).unwrap();
        }),
        ("generic-join COUNT", &|| {
            generic_join::count_distinct(&ctx, &tri, &tri_db, &order).unwrap();
        }),
        ("generic-join DECIDE", &|| {
            generic_join::decide(&ctx, &tri, &tri_db, &order).unwrap();
        }),
        ("LexDirectAccess::free_connex", &|| {
            LexDirectAccess::free_connex(&ctx, &path, &path_db).unwrap();
        }),
        ("sorted_view", &|| {
            catalog.sorted_view(&tri_db, "R2", &[1, 0]).unwrap();
        }),
    ];
    for (what, hit) in hits {
        hit();
        let before = catalog.snapshot();
        assert_eq!(allocations(hit).0, 0, "a warm {what}");
        let after = catalog.snapshot();
        assert_eq!(after.misses, before.misses, "a warm {what} builds nothing");
        assert!(after.hits > before.hits, "a warm {what} is a catalog hit");
    }
}

/// A hard-side projection holds its answers, not its paths: the hub path
/// `q(x, w) :- R(x, y), S(y, z), T(z, w)` over `R = [1, n] × {0}`,
/// `S = {0} × [1, n]`, `T = [1, n] × {0}` has n² paths and n answers.
/// Buffering every path before deduplicating would hold a million rows,
/// 16 MB, at n = 1 000; the materialization peaks under 4 MB.
#[test]
fn a_projection_buffers_its_answers_not_its_paths() {
    let n = 1_000;
    let pairs = |f: fn(u64) -> (u64, u64)| Relation::from_pairs((1..=n).map(f));
    let mut db = Database::new();
    db.insert("R", pairs(|i| (i, 0)));
    db.insert("S", pairs(|j| (0, j)));
    db.insert("T", pairs(|j| (j, 0)));
    let q = parse_query("q(x, w) :- R(x, y), S(y, z), T(z, w)").unwrap();
    let (peak, (answers, plan)) = peak_bytes(|| EvalCtx::new().answers(&q, &db).unwrap());
    assert_eq!(plan.op.name(), "generic join + projection");
    assert_eq!(answers.len() as u64, n);
    assert!(peak < 4 << 20, "{peak} bytes held at once for {n} answers");
}

/// `blocks` clusters of 64 vertices, one word each, with `per_block`
/// random edges inside each: adjacency lists of some `per_block / 64`
/// values in their block's word, under a root of `64 · blocks` vertices
/// in `blocks` words — every level dense, and a root to cut into morsels.
fn clustered_triangles(blocks: u64, per_block: usize) -> Database {
    let mut edges = Vec::new();
    for b in 0..blocks {
        let block = random_pairs(per_block, 64, &mut seeded_rng(b));
        edges.extend(block.iter().map(|e| (64 * b + e[0], 64 * b + e[1])));
    }
    triangle_database(&Relation::from_pairs(edges))
}

/// A generic-join `COUNT`, traced: its allocations on this thread,
/// the count, and the span's morsels and workers (1 and 1 unsplit).
struct TracedCount {
    allocs: u64,
    count: u64,
    morsels: u64,
    workers: u64,
}

fn traced_count(ctx: &ExecCtx, q: &ConjunctiveQuery, db: &Database) -> TracedCount {
    let order = generic_join::default_order(q);
    let sink = TraceSink::enabled();
    let (allocs, count) = trace::with(&sink, || {
        allocations(|| generic_join::count_distinct(ctx, q, db, &order).unwrap())
    });
    let (mut morsels, mut workers) = (1, 1);
    sink.finish("test", "count").expect("enabled").visit(|_, span| {
        if span.name == "op.generic-join.count" {
            morsels = span.attr("morsels").unwrap_or(1);
            workers = span.attr("workers").unwrap_or(1);
        }
    });
    TracedCount { allocs, count, morsels, workers }
}

/// Generic join allocates its per-depth state — ranges, cursors, bitmap
/// windows — once per worker; intersecting a node, word by word or by
/// leapfrog, descending from it by rank, and taking another morsel
/// allocate nothing: ten times the edges in sixteen morsels, the same
/// allocations as one morsel. A helper thread's state is its own; what
/// starting one costs the calling thread is a constant per helper.
///
/// A count is memoized under its query's text, so the counts measured
/// warm are of a second spelling of the triangle: the same join over the
/// views the first one built, and the storing of its count, inside the
/// same bound.
#[test]
fn a_warm_bitmap_count_allocates_per_join_not_per_node() {
    let spelled = |k: usize| {
        parse_query(&format!("t{k}(x, y, z) :- R1(x, y), R2(y, z), R3(z, x)")).unwrap()
    };
    let (q, again) = (spelled(0), spelled(1));
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let alone = |db: &Database| {
        let catalog = IndexCatalog::new();
        let ctx = ExecCtx::warm(&catalog);
        let cold = traced_count(&ctx, &q, db);
        let view = catalog.sorted_view(db, "R2", &[0, 1]).unwrap();
        for d in 0..2 {
            assert!(!view.bitmaps(d).is_empty(), "no dense node on level {d}");
        }
        assert!(!view.bitmaps(0).of(0).1.is_empty(), "the root is ranked");
        // as many other evaluations as cores: no core is idle
        let others: Vec<ExecCtx> = (0..cores).map(|_| ExecCtx::cold()).collect();
        let warm = traced_count(&ctx, &again, db);
        drop(others);
        assert_eq!((warm.count, warm.workers), (cold.count, 1));
        warm
    };
    let large_db = clustered_triangles(16, 1_250);
    let (small, large) = (alone(&clustered_triangles(2, 1_000)), alone(&large_db));
    assert_eq!((small.morsels, large.morsels), (1, 16));
    assert!(small.allocs < 40, "COUNT {q}: {} allocations at m = 2 000", small.allocs);
    assert!(
        large.allocs <= small.allocs + SLACK,
        "COUNT {q}: one morsel of m = 2 000 took {} allocations, 16 of m = 20 000 {}",
        small.allocs,
        large.allocs
    );

    // the same sixteen morsels with a core idle: the calling thread pays
    // a constant per helper for starting it, nothing per morsel
    if cores < 2 {
        return;
    }
    // other tests of this binary evaluate now and then: wait for a core
    let split = (0..1_000)
        .map(|_| {
            let catalog = IndexCatalog::new();
            let ctx = ExecCtx::warm(&catalog);
            traced_count(&ctx, &q, &large_db);
            traced_count(&ctx, &again, &large_db)
        })
        .find(|c| c.workers > 1)
        .expect("a core idle for one count in a thousand");
    assert_eq!(split.count, large.count);
    assert!(
        split.allocs <= large.allocs + (split.workers - 1) * PER_HELPER,
        "COUNT {q}: {} allocations alone, {} with {} workers",
        large.allocs,
        split.allocs,
        split.workers
    );
}

/// What starting one helper thread allocates on the calling thread.
const PER_HELPER: u64 = 8;

/// Thm 3.17 as a work invariant: per answer the odometer tries at most
/// `levels` cursors and re-descends at most `levels − 1`, whatever `m` —
/// on uniform data and with every eighth row moved onto one heavy key,
/// both full of dangling tuples that a structure short of full reduction
/// would descend into and have to back out of.
#[test]
fn enumeration_steps_per_answer_are_bounded_by_the_query_alone() {
    for q in [zoo::star_full(2), zoo::path_join(3)] {
        let levels = q.atoms().len() as u64;
        for m in [16usize, 256, 4096] {
            let uniform = random_pairs(m, (m / 2) as u64, &mut seeded_rng(m as u64));
            let skewed = Relation::from_pairs(
                uniform
                    .iter()
                    .enumerate()
                    .map(|(i, r)| (r[0], if i % 8 == 0 { 0 } else { r[1] })),
            );
            for rel in [uniform, skewed] {
                let mut db = Database::new();
                for atom in q.atoms() {
                    db.insert(&atom.relation, rel.clone());
                }
                let sink = TraceSink::enabled();
                trace::with(&sink, || {
                    let tree = enumerate::preprocess(&ExecCtx::cold(), &q, &db).unwrap();
                    let mut stream = Answers::walk(tree);
                    while stream.next().unwrap().is_some() {}
                });
                let (mut rows, mut steps) = (None, None);
                sink.finish("test", &q.to_string()).expect("enabled").visit(|_, span| {
                    if span.name == "stream.enumerate" {
                        (rows, steps) = (span.attr("rows"), span.attr("steps"));
                    }
                });
                let (rows, steps) = (rows.expect("rows"), steps.expect("steps"));
                assert_eq!(rows, EvalCtx::new().count(&q, &db).unwrap().0, "{q} m={m}");
                assert!(
                    steps <= 2 * levels * rows,
                    "{q} m={m}: {steps} steps for {rows} answers over {levels} levels"
                );
            }
        }
    }
}

/// Recording a warm command's metrics allocates nothing: a tenant
/// caches each counter/histogram pair of its scope on its first use,
/// keyed on the `'static` verb or plan operator, and the server does the
/// same for its own scope. So a second warm `PING` allocates for its
/// parse and its reply and for nothing else, and the recordings a second
/// warm `COUNT` makes — its verb and its operator, in its tenant's scope
/// — allocate nothing once cached.
#[test]
fn a_warm_command_records_its_metrics_without_allocating() {
    let state = Arc::new(ServerState::new());
    let mut s = Session::new(Arc::clone(&state));
    s.handle_line("CREATE DB t");
    s.handle_line("USE t");
    let tenant = state.tenant("t").unwrap();
    tenant.mutate(|db| *db = cross_database(50, 50));

    let op = "counting DP over join tree";
    let record = || {
        let elapsed = std::time::Duration::from_micros(1);
        tenant.metrics().record_cmd("count", elapsed);
        tenant.metrics().record_op(op, elapsed);
        state.metrics().record_cmd("ping", elapsed);
    };
    let (first, _) = allocations(record);
    assert!(first > 0, "a miss names its metrics");
    assert_eq!(allocations(record).0, 0, "a hit allocates nothing");

    let (parse, _) = allocations(|| cq_server::protocol::parse_command("PING"));
    let (reply, _) = allocations(|| cq_server::protocol::Reply::ok("pong"));
    s.handle_line("PING");
    for _ in 0..2 {
        let (n, pong) = allocations(|| s.handle_line("PING"));
        assert_eq!(pong.unwrap().terminal, "OK pong");
        assert_eq!(n, parse + reply, "a warm PING allocates its parse and its reply");
    }

    let count = "COUNT q(x, y, z) :- R(x, y), S(y, z)";
    let [_, second, third] = [(); 3].map(|_| {
        let (n, reply) = allocations(|| s.handle_line(count));
        assert_eq!(reply.unwrap().terminal, "OK 2500");
        n
    });
    assert_eq!(second, third, "a warm COUNT allocates the same each time");
    let scope = state.metrics().registry().scope("db.t");
    assert_eq!(scope.counter_value("cmd.count.calls"), Some(5));
    assert_eq!(scope.counter_value("op.counting-dp-over-join-tree.calls"), Some(5));
}
