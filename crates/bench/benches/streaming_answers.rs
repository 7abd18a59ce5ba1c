//! What does streaming buy on the answer path?
//!
//! The wire's `ANSWERS` is pull-driven: the session hands the
//! connection loop an `AnswerFlow` and rows leave in byte-budgeted
//! chunks (`STREAM_FIRST_CHUNK_BYTES` ramping to
//! `STREAM_MAX_CHUNK_BYTES`), so the first row ships after
//! preprocessing — not after the whole result exists. This bench pins
//! both halves of that claim on a free-connex join with a large output:
//!
//!   * `first_row_*` — time to the first answer row: a `CURSOR` +
//!     `FETCH 1` against the streaming path vs. a full materialized
//!     `eval::answers` (which must build every row first);
//!   * `drain_*` — shipping the entire result: the chunked wire drain
//!     (`drain_flow` into a byte sink) vs. materialize-then-render.
//!
//! The drain leg also meters the sink: the largest single write must
//! stay bounded by one chunk, whatever the result size — the memory
//! bound the server tests assert, re-checked here on the bench shape.

use cq_core::parse_query;
use cq_data::{Database, Relation, Val};
use cq_planner::eval;
use cq_server::server::{
    Action, Session, STREAM_FIRST_CHUNK_BYTES, STREAM_MAX_CHUNK_BYTES,
};
use cq_server::state::ServerState;
use criterion::{black_box, criterion_group, criterion_main, Criterion};
use std::io::Write;
use std::sync::Arc;
use std::time::Instant;

/// `q(x, z) :- R(x, y), S(y, z)` with R = N×{0}, S = {0}×N: a
/// free-connex 2-path whose output is N² rows from 2N input rows.
const N: u64 = 200; // 40,000 answer rows
const QUERY: &str = "q(x, z) :- R(x, y), S(y, z)";

fn session_with_data() -> Session {
    let state = Arc::new(ServerState::new());
    let mut s = Session::new(Arc::clone(&state));
    s.handle_line("CREATE DB bench");
    s.handle_line("USE bench");
    for (rel, flip) in [("R", false), ("S", true)] {
        s.handle_line(&format!("LOAD {rel} 2"));
        for i in 0..N {
            if flip {
                s.handle_line(&format!("0 {i}"));
            } else {
                s.handle_line(&format!("{i} 0"));
            }
        }
        s.handle_line("END");
    }
    // warm the plan cache and the tenant's index catalog
    let r = s.handle_line(&format!("COUNT {QUERY}")).expect("warm query");
    assert!(r.is_ok(), "{}", r.terminal);
    s
}

fn mirror_db() -> Database {
    let mut db = Database::new();
    db.insert("R", Relation::from_pairs((0..N).map(|i| (i, 0)).collect::<Vec<_>>()));
    db.insert("S", Relation::from_pairs((0..N).map(|i| (0, i)).collect::<Vec<_>>()));
    db
}

/// A write sink that counts bytes and writes and tracks the first and
/// the largest single write — the latter is the per-connection
/// buffering high-water mark.
#[derive(Default)]
struct ChunkMeter {
    bytes: usize,
    writes: usize,
    first_write: usize,
    max_write: usize,
}

impl Write for ChunkMeter {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        if self.writes == 0 {
            self.first_write = buf.len();
        }
        self.writes += 1;
        self.bytes += buf.len();
        self.max_write = self.max_write.max(buf.len());
        Ok(buf.len())
    }
    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}

/// One full streamed drain through the wire path; returns the meter.
fn drain_streamed(s: &mut Session) -> ChunkMeter {
    let action =
        s.handle_action(format!("ANSWERS {QUERY}").as_bytes()).expect("ANSWERS replies");
    let Action::Stream(flow) = action else {
        panic!("ANSWERS must stream on this plan");
    };
    let mut meter = ChunkMeter::default();
    s.drain_flow(*flow, &mut meter).expect("sink never fails");
    meter
}

fn bench_streaming_answers(c: &mut Criterion) {
    let mut session = session_with_data();
    let db = mirror_db();
    let q = parse_query(QUERY).unwrap();

    let mut group = c.benchmark_group("streaming_answers");
    group.bench_function("first_row_streamed", |b| {
        b.iter(|| {
            let r = session.handle_line(&format!("CURSOR ANSWERS {QUERY}")).unwrap();
            let id = r.ok_info().unwrap().strip_prefix("cursor ").unwrap().to_string();
            let first = session.handle_line(&format!("FETCH {id} 1")).unwrap();
            session.handle_line(&format!("CLOSE {id}"));
            black_box(first)
        });
    });
    group.bench_function("first_row_materialized", |b| {
        b.iter(|| {
            let (rel, _) = eval::answers(&q, &db).unwrap();
            let first = rel.iter().next().map(<[Val]>::to_vec);
            black_box(first)
        });
    });
    group.bench_function("drain_streamed_chunks", |b| {
        b.iter(|| black_box(drain_streamed(&mut session).bytes));
    });
    group.bench_function("drain_materialized", |b| {
        b.iter(|| {
            let (rel, _) = eval::answers(&q, &db).unwrap();
            let mut out = Vec::with_capacity(rel.len() * 8);
            for row in rel.iter() {
                let line: Vec<String> = row.iter().map(u64::to_string).collect();
                writeln!(out, "* {}", line.join(" ")).unwrap();
            }
            black_box(out.len())
        });
    });
    group.finish();

    // the memory bound, re-checked on the bench shape: the first write
    // is the small first chunk, no write exceeds the ceiling by more
    // than the row that filled it, and the result goes out in pieces
    let meter = drain_streamed(&mut session);
    let one_row = "* 199 199\n".len();
    assert!(
        meter.first_write <= STREAM_FIRST_CHUNK_BYTES + one_row,
        "first write {} exceeds the first chunk budget",
        meter.first_write
    );
    assert!(
        meter.max_write <= STREAM_MAX_CHUNK_BYTES + one_row,
        "largest write {} exceeds one chunk",
        meter.max_write
    );
    assert!(
        meter.writes >= meter.bytes / STREAM_MAX_CHUNK_BYTES,
        "{} bytes left in only {} writes",
        meter.bytes,
        meter.writes
    );

    // headline numbers: streaming ships the first row without paying
    // for the other N²−1
    let t0 = Instant::now();
    let r = session.handle_line(&format!("CURSOR ANSWERS {QUERY}")).unwrap();
    let id = r.ok_info().unwrap().strip_prefix("cursor ").unwrap().to_string();
    session.handle_line(&format!("FETCH {id} 1")).unwrap();
    let ttfr = t0.elapsed();
    session.handle_line(&format!("CLOSE {id}"));
    let t0 = Instant::now();
    let (rel, _) = eval::answers(&q, &db).unwrap();
    let full = t0.elapsed();
    println!(
        "streaming_answers: first row in {ttfr:?} streamed vs {full:?} to \
         materialize all {} rows; largest single write {} bytes \
         (chunk bound {} bytes)",
        rel.len(),
        meter.max_write,
        STREAM_MAX_CHUNK_BYTES
    );
}

criterion_group!(benches, bench_streaming_answers);
criterion_main!(benches);
