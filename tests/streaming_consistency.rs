//! Streaming consistency: the pull-driven answer pipeline must be a
//! pure refactor of the materialized path. For random data and page
//! sizes, the one-shot `ANSWERS` wire data, a `CURSOR`/`FETCH`-paged
//! drain, and the direct [`EvalCtx::answers`] result must all agree —
//! byte-exact where the order contract promises it, as sets otherwise.
//! Also covers seek-resume mid-stream on direct-access cursors, cursor
//! invalidation after a mutation of a relation the cursor reads, cursor
//! survival across a mutation of one it does not, and the easy side's
//! order contract: an enumeration cursor pages out the very bytes a
//! direct-access cursor over the same query does.

use cq_lower_bounds::prelude::*;
use cq_server::protocol::render_rows;
use cq_server::server::Session;
use cq_server::state::ServerState;
use proptest::prelude::*;
use std::sync::Arc;

const Q: &str = "q(x, z) :- R(x, y), S(y, z)";

/// The cursors `SEEK` serves, one per stream source: materialized direct
/// access and materialized rows over [`Q`] (not free-connex), and the
/// shared reduced tree of a free-connex join.
const SEEKABLE: [(&str, &str); 3] =
    [("ACCESS", Q), ("ANSWERS", Q), ("ACCESS", "q(x, y, z) :- R(x, y), S(y, z)")];

/// Boot an in-process session with tenant `t` holding relations
/// `R`/`S` built from the given pairs, plus a local mirror database.
fn session_with(r: &[(u64, u64)], s: &[(u64, u64)]) -> (Session, Database) {
    let mut sess = Session::new(Arc::new(ServerState::new()));
    assert!(sess.handle_line("CREATE DB t").unwrap().is_ok());
    assert!(sess.handle_line("USE t").unwrap().is_ok());
    for (name, pairs) in [("R", r), ("S", s)] {
        assert!(sess.handle_line(&format!("LOAD {name} 2")).unwrap().is_ok());
        for (a, b) in pairs {
            assert!(sess.handle_line(&format!("{a} {b}")).is_none());
        }
        assert!(sess.handle_line("END").unwrap().is_ok());
    }
    let mut db = Database::new();
    db.insert("R", Relation::from_pairs(r.to_vec()));
    db.insert("S", Relation::from_pairs(s.to_vec()));
    (sess, db)
}

/// Open a cursor over [`Q`] and return its id from `OK cursor <id>`.
fn open_cursor(sess: &mut Session, task: &str) -> u64 {
    open_cursor_on(sess, task, Q)
}

fn open_cursor_on(sess: &mut Session, task: &str, query: &str) -> u64 {
    let reply = sess.handle_line(&format!("CURSOR {task} {query}")).unwrap();
    reply
        .ok_info()
        .and_then(|i| i.strip_prefix("cursor "))
        .and_then(|i| i.trim().parse().ok())
        .unwrap_or_else(|| panic!("CURSOR {task} did not open: {}", reply.terminal))
}

/// Drain a cursor to eof in pages of `page`, concatenating the rows.
fn drain(sess: &mut Session, id: u64, page: u64) -> Vec<String> {
    let mut rows = Vec::new();
    loop {
        let reply = sess.handle_line(&format!("FETCH {id} {page}")).unwrap();
        assert!(reply.is_ok(), "FETCH failed: {}", reply.terminal);
        let eof = reply.ok_info().is_some_and(|i| i.ends_with(" rows eof"));
        rows.extend(reply.data);
        if eof {
            return rows;
        }
    }
}

fn pairs_strategy() -> impl Strategy<Value = Vec<(u64, u64)>> {
    proptest::collection::vec((0u64..12, 0u64..12), 0..40)
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// FETCH-paged cursor drains byte-match one-shot ANSWERS, and both
    /// carry exactly the materialized `EvalCtx::answers` rows.
    #[test]
    fn paged_fetch_matches_one_shot_and_materialized(
        r in pairs_strategy(),
        s in pairs_strategy(),
        page in 1u64..9,
    ) {
        let (mut sess, db) = session_with(&r, &s);

        let one_shot = sess.handle_line(&format!("ANSWERS {Q}")).unwrap();
        prop_assert!(one_shot.is_ok(), "{}", one_shot.terminal);

        let id = open_cursor(&mut sess, "ANSWERS");
        let paged = drain(&mut sess, id, page);
        // paging must be invisible: same rows, same order, same bytes
        prop_assert_eq!(&paged, &one_shot.data, "page size {}", page);

        // and the stream is the materialized result, up to the order
        // contract (streams emit plan-native order, eval normalizes)
        let q = parse_query(Q).unwrap();
        let (rel, _) = EvalCtx::new().answers(&q, &db).unwrap();
        let mut sorted = paged.clone();
        sorted.sort();
        let mut want = render_rows(&rel);
        want.sort();
        prop_assert_eq!(sorted, want);

        prop_assert!(sess.handle_line(&format!("CLOSE {id}")).unwrap().is_ok());
    }

    /// On every kind of seekable cursor, SEEK k then drain equals the
    /// suffix of a full drain starting at k — even after consuming an
    /// unrelated prefix first (seek-resume mid-stream).
    #[test]
    fn seek_resume_matches_full_drain_suffix(
        r in pairs_strategy(),
        s in pairs_strategy(),
        prefix in 0u64..10,
        k in 0u64..10,
        kind in 0..SEEKABLE.len(),
    ) {
        let (mut sess, _db) = session_with(&r, &s);
        let (task, query) = SEEKABLE[kind];

        let full_id = open_cursor_on(&mut sess, task, query);
        let full = drain(&mut sess, full_id, 7);

        let id = open_cursor_on(&mut sess, task, query);
        // consume an arbitrary prefix, then jump to position k
        let burned = sess.handle_line(&format!("FETCH {id} {prefix}")).unwrap();
        prop_assert!(burned.is_ok(), "{}", burned.terminal);
        let seek = sess.handle_line(&format!("SEEK {id} {k}")).unwrap();
        prop_assert!(seek.is_ok(), "{}", seek.terminal);
        let suffix = drain(&mut sess, id, 3);
        let want: Vec<String> =
            full.iter().skip(k as usize).cloned().collect();
        prop_assert_eq!(suffix, want, "{} {}: full len {}", task, query, full.len());
    }

    /// Enumeration order is the free-connex direct-access order: on a
    /// join, a projection and a cross product, `CURSOR ANSWERS` paged to
    /// the end concatenates to the bytes `CURSOR ACCESS` pages out.
    #[test]
    fn enumeration_cursors_page_out_the_direct_access_bytes(
        r in pairs_strategy(),
        s in pairs_strategy(),
        pages in (1u64..9, 1u64..9),
    ) {
        let (mut sess, _db) = session_with(&r, &s);
        for query in [
            "q(x, y, z) :- R(x, y), S(y, z)",
            "q(y, x) :- R(x, y), S(y, z)",
            "q(a, b, c, d) :- R(a, b), S(c, d)",
        ] {
            let walked = open_cursor_on(&mut sess, "ANSWERS", query);
            let walked = drain(&mut sess, walked, pages.0);
            let accessed = open_cursor_on(&mut sess, "ACCESS", query);
            prop_assert_eq!(walked, drain(&mut sess, accessed, pages.1), "{}", query);
        }
    }

    /// A mutation of a relation the query does not read is invisible
    /// to an open cursor: the pages fetched before and after it are one
    /// uninterrupted drain.
    #[test]
    fn unrelated_mutation_leaves_open_cursors_streaming(
        r in pairs_strategy(),
        s in pairs_strategy(),
        before in 0u64..9,
        page in 1u64..9,
        access in any::<bool>(),
    ) {
        let task = if access { "ACCESS" } else { "ANSWERS" };
        let (mut sess, _db) = session_with(&r, &s);
        let whole_id = open_cursor(&mut sess, task);
        let whole = drain(&mut sess, whole_id, 7);

        let id = open_cursor(&mut sess, task);
        let head = sess.handle_line(&format!("FETCH {id} {before}")).unwrap();
        prop_assert!(head.is_ok(), "{}", head.terminal);
        let at_eof = head.ok_info().is_some_and(|i| i.ends_with(" rows eof"));
        prop_assert!(sess.handle_line("INSERT T(999, 999)").unwrap().is_ok());
        prop_assert!(sess.handle_line("INSERT T(998, 999)").unwrap().is_ok());
        let mut paged = head.data;
        if !at_eof {
            paged.extend(drain(&mut sess, id, page));
        }
        prop_assert_eq!(paged, whole);
    }

    /// A mutation of a relation the query reads invalidates every open
    /// cursor over it: the next FETCH reports `ERR stale-cursor` and
    /// evicts the cursor.
    #[test]
    fn mutation_invalidates_open_cursors(
        r in pairs_strategy(),
        s in pairs_strategy(),
        write_r in any::<bool>(),
    ) {
        let (mut sess, _db) = session_with(&r, &s);
        let id = open_cursor(&mut sess, "ANSWERS");
        let insert = format!("INSERT {}(999, 999)", if write_r { "R" } else { "S" });
        prop_assert!(sess.handle_line(&insert).unwrap().is_ok());
        let reply = sess.handle_line(&format!("FETCH {id} 5")).unwrap();
        prop_assert!(
            reply.terminal.starts_with("ERR stale-cursor:"),
            "{}", reply.terminal
        );
        // evicted: the id is gone, not retryable
        let reply = sess.handle_line(&format!("FETCH {id} 5")).unwrap();
        prop_assert!(
            reply.terminal.starts_with("ERR no-such-cursor:"),
            "{}", reply.terminal
        );
    }
}

/// A result too large to count (five 2¹³-row spokes on one hub value:
/// 2⁶⁵ answers) still streams — the walk never needs the subtree
/// weights — while `ACCESS` over the very same memoized tree refuses to
/// simulate an array `u64` cannot index; in either order over one
/// catalog.
#[test]
fn an_uncountable_result_streams_but_is_not_accessible() {
    const SPOKES: &str =
        "q(a, b, c, d, e, z) :- R1(a, z), R2(b, z), R3(c, z), R4(d, z), R5(e, z)";
    for access_first in [false, true] {
        let state = Arc::new(ServerState::new());
        let mut sess = Session::new(Arc::clone(&state));
        assert!(sess.handle_line("CREATE DB t").unwrap().is_ok());
        assert!(sess.handle_line("USE t").unwrap().is_ok());
        state.tenant("t").unwrap().mutate(|db| {
            let spokes = Relation::from_pairs((0..1u64 << 13).map(|a| (a, 0)));
            for i in 1..=5 {
                db.insert(&format!("R{i}"), spokes.clone());
            }
        });
        let access = |sess: &mut Session| {
            let reply = sess.handle_line(&format!("CURSOR ACCESS {SPOKES}")).unwrap();
            assert_eq!(reply.terminal, "ERR eval: answer count exceeds u64");
        };
        if access_first {
            access(&mut sess);
        }
        // the consumer takes three rows and walks away
        let id = open_cursor_on(&mut sess, "ANSWERS", SPOKES);
        let page = sess.handle_line(&format!("FETCH {id} 3")).unwrap();
        assert_eq!(page.ok_info(), Some("3 rows"), "{}", page.terminal);
        assert!(page.data.iter().all(|row| row.ends_with(" 0")), "{:?}", page.data);
        assert!(page.data[0] < page.data[1] && page.data[1] < page.data[2]);
        assert!(sess.handle_line(&format!("CLOSE {id}")).unwrap().is_ok());
        access(&mut sess);
        let count = sess.handle_line(&format!("COUNT {SPOKES}")).unwrap();
        assert_eq!(count.terminal, "ERR eval: answer count exceeds u64");
    }
}
