//! What does observability cost on the hot path? The workspace's one
//! bench target, and a gate: CI runs it (`cargo bench -p cq-server
//! --bench metrics_overhead`, ≈ 13–17 s).
//!
//! The per-command instrumentation a `Session` pays is fixed and small:
//! two `Instant::now()`/`elapsed()` pairs (command + operator timing),
//! one cached-handle counter increment + histogram record for the
//! command, one for the plan operator, the slow-query threshold gate
//! (a single relaxed load), and the tracing-disabled span work the
//! engine performs unconditionally (a thread-local read of the current
//! sink and a handful of no-op span opens/attrs). The recording calls
//! cannot be compiled out, so the bench times exactly that work alone
//! (≈ 0.65–1.2 µs on the 2-core CI box, by the hour) and compares it
//! with two full instrumented requests through `Session::handle_line`,
//! statement memo and catalog both hot:
//!
//!   * a `COUNT` of `q_mm` over 5,000-row relations: ≈ 5.2–8.7 ms, so
//!     the instruments are 0.01–0.02% of it. This is the asserted bound
//!     (ISSUE 6): `obs ≤ 2% · warm_count`;
//!   * the same `COUNT` on a 100-row tenant, the size of `cqbench`'s
//!     `tiny_rpc` requests: ≈ 22–37 µs, of which the instruments are
//!     ≈ 2.6–4.9%. Printed, not asserted — the yardstick for new
//!     per-request instruments (ROADMAP item 4), where the first line
//!     would hide a hundredfold increase.

use cq_server::server::Session;
use cq_server::state::ServerState;
use std::hint::black_box;
use std::sync::Arc;
use std::time::Instant;

const QUERY: &str = "COUNT q(x, z) :- R(x, y), S(y, z)";

/// A session over one tenant of two `rows`-row relations joining on 500
/// values (one to one below 500 rows), with the statement memo and the
/// index catalog warm.
fn warm_session(rows: u64) -> (Session, Arc<ServerState>) {
    let state = Arc::new(ServerState::new());
    let mut s = Session::new(Arc::clone(&state));
    s.handle_line("CREATE DB bench");
    s.handle_line("USE bench");
    for (rel, flip) in [("R", false), ("S", true)] {
        s.handle_line(&format!("LOAD {rel} 2"));
        for i in 0..rows {
            let (a, b) = (i, i % 500);
            if flip {
                s.handle_line(&format!("{b} {a}"));
            } else {
                s.handle_line(&format!("{a} {b}"));
            }
        }
        s.handle_line("END");
    }
    let r = s.handle_line(QUERY).expect("warm query replies");
    assert!(r.is_ok(), "{}", r.terminal);
    (s, state)
}

/// Median per-iteration nanoseconds of `f` over `samples` batches.
fn median_ns<O, F: FnMut() -> O>(mut f: F, iters: u32, samples: usize) -> f64 {
    let mut out = Vec::with_capacity(samples);
    for _ in 0..samples {
        let t0 = Instant::now();
        for _ in 0..iters {
            black_box(f());
        }
        out.push(t0.elapsed().as_secs_f64() * 1e9 / f64::from(iters));
    }
    out.sort_by(|a, b| a.total_cmp(b));
    out[samples / 2]
}

/// The span work one command pays with tracing OFF: what the session
/// layer does per dispatch (a TLS sink read) and what the engine does
/// per operator and stream (no-op span opens, attrs, and drops against
/// a disabled sink). Five spans approximates a typical plan: the
/// executor's `execute`, one operator, one preprocess, one stream, one
/// storage span.
fn disabled_trace_ops() {
    let sink = cq_obs::trace::current();
    black_box(sink.is_enabled());
    for _ in 0..5 {
        let mut span = cq_obs::trace::span("bench.noop");
        span.attr("rows", 1);
        span.attr("cancel-polls", 1);
        black_box(&span);
    }
}

fn main() {
    let (mut session, state) = warm_session(5_000);
    let tenant = state.tenant("bench").expect("the warm session's tenant");
    let metrics = tenant.metrics();
    let slowlog = state.metrics().slowlog();

    let query_ns = median_ns(|| session.handle_line(QUERY), 200, 9);
    let obs_ns = median_ns(
        || {
            let t0 = Instant::now();
            let e0 = t0.elapsed();
            let t1 = Instant::now();
            let e1 = t1.elapsed();
            metrics.record_op("generic join (worst-case optimal)", e0);
            metrics.record_cmd("count", e1);
            disabled_trace_ops();
            slowlog.should_record(e1)
        },
        10_000,
        9,
    );
    let pct = 100.0 * obs_ns / query_ns;
    println!(
        "metrics_overhead: obs {obs_ns:.0} ns vs warm query {query_ns:.0} ns \
         ({pct:.2}% of the hot path; bound 2%)"
    );
    let (mut tiny, _) = warm_session(100);
    let tiny_ns = median_ns(|| tiny.handle_line(QUERY), 10_000, 9);
    println!(
        "metrics_overhead: obs {obs_ns:.0} ns vs 100-row request {tiny_ns:.0} ns \
         ({:.2}% of a tiny_rpc-sized request; not asserted)",
        100.0 * obs_ns / tiny_ns
    );
    assert!(
        obs_ns <= query_ns * 0.02,
        "per-command observability work ({obs_ns:.0} ns) exceeds 2% of the warm \
         hot path ({query_ns:.0} ns)"
    );
}
