//! End-to-end server test: boot `cqd`'s [`Server`] on an ephemeral
//! port, load two tenant databases over the wire, then drive ≥4
//! concurrent clients and check every `ANSWERS`/`COUNT`/`DECIDE` reply
//! **byte-matches** the direct [`EvalCtx`] result on an identical
//! in-process mirror database.

use cq_lower_bounds::prelude::*;
use cq_server::client::Client;
use cq_server::protocol::render_rows;
use cq_server::server::Server;
use std::net::SocketAddr;

type Pairs = Vec<(u64, u64)>;

/// Tenant `alpha`: a 2-path workload `R ⋈ S`.
fn alpha_rows() -> (Pairs, Pairs) {
    let r: Pairs = (0..40).map(|i| (i, i % 7)).collect();
    let s: Pairs = (0..7).map(|j| (j, j + 100)).collect();
    (r, s)
}

/// Tenant `beta`: a triangle workload `R1 ⋈ R2 ⋈ R3`. Edges `a → a+2
/// (mod 6)` close the triangles {0,2,4} and {1,3,5}; the `a → a+1 (mod
/// 7)` family (shifted to 10..) adds triangle-free bulk.
fn beta_rows() -> Pairs {
    let hexagon = (0..6).map(|a| (a, (a + 2) % 6));
    let ring = (0..7).map(|a| (10 + a, 10 + (a + 1) % 7));
    hexagon.chain(ring).collect()
}

fn alpha_mirror() -> Database {
    let (r, s) = alpha_rows();
    let mut db = Database::new();
    db.insert("R", Relation::from_pairs(r));
    db.insert("S", Relation::from_pairs(s));
    db
}

fn beta_mirror() -> Database {
    let pairs = beta_rows();
    let mut db = Database::new();
    for name in ["R1", "R2", "R3"] {
        db.insert(name, Relation::from_pairs(pairs.clone()));
    }
    db
}

fn pair_lines(pairs: &[(u64, u64)]) -> Vec<String> {
    pairs.iter().map(|(a, b)| format!("{a} {b}")).collect()
}

const ALPHA_Q: &str = "q(x, z) :- R(x, y), S(y, z)";
const BETA_Q: &str = "t(x, y, z) :- R1(x, y), R2(y, z), R3(z, x)";
const BETA_BOOL: &str = "t() :- R1(x, y), R2(y, z), R3(z, x)";

/// Load both tenants over the wire, mirroring the data locally.
fn setup(addr: SocketAddr) -> Client {
    let mut admin = Client::connect(addr).expect("connect admin");
    assert_eq!(admin.create_db("alpha").unwrap().terminal, "OK created alpha");
    assert_eq!(admin.create_db("beta").unwrap().terminal, "OK created beta");
    assert_eq!(admin.use_db("alpha").unwrap().terminal, "OK using alpha");
    let (r, s) = alpha_rows();
    assert!(admin.load("R", 2, pair_lines(&r)).unwrap().is_ok());
    assert!(admin.load("S", 2, pair_lines(&s)).unwrap().is_ok());
    assert_eq!(admin.use_db("beta").unwrap().terminal, "OK using beta");
    let pairs = beta_rows();
    for name in ["R1", "R2", "R3"] {
        assert!(admin.load(name, 2, pair_lines(&pairs)).unwrap().is_ok());
    }
    admin
}

/// The expected wire replies for one tenant's workload, computed from
/// direct [`EvalCtx`] calls on the mirror database.
#[derive(Clone)]
struct Expected {
    answers_data: Vec<String>,
    answers_terminal: String,
    count_terminal: String,
    decide_terminal: String,
}

fn expected(db: &Database, query: &str, bool_query: &str) -> Expected {
    let q = parse_query(query).unwrap();
    let qb = parse_query(bool_query).unwrap();
    let ctx = EvalCtx::new();
    let (rel, _) = ctx.answers(&q, db).unwrap();
    let (n, _) = ctx.count(&q, db).unwrap();
    let (b, _) = ctx.decide(&qb, db).unwrap();
    assert!(n > 0, "workloads must be non-trivial");
    Expected {
        answers_data: render_rows(&rel),
        answers_terminal: format!("OK {} rows", rel.len()),
        count_terminal: format!("OK {n}"),
        decide_terminal: format!("OK {b}"),
    }
}

#[test]
fn concurrent_clients_byte_match_direct_eval() {
    let server = Server::bind("127.0.0.1:0", 8).expect("bind ephemeral");
    let addr = server.local_addr();
    let admin = setup(addr);

    let want_alpha = expected(&alpha_mirror(), ALPHA_Q, "q() :- R(x, y), S(y, z)");
    let want_beta = expected(&beta_mirror(), BETA_Q, BETA_BOOL);

    // ≥4 concurrent clients across the 2 tenants, several rounds each
    let handles: Vec<_> = (0..4)
        .map(|i| {
            let (tenant, query, bool_query, want) = if i % 2 == 0 {
                ("alpha", ALPHA_Q, "q() :- R(x, y), S(y, z)", want_alpha.clone())
            } else {
                ("beta", BETA_Q, BETA_BOOL, want_beta.clone())
            };
            std::thread::spawn(move || {
                let mut c = Client::connect(addr).expect("connect worker");
                assert!(c.use_db(tenant).unwrap().is_ok());
                for _round in 0..5 {
                    let r = c.request(&format!("ANSWERS {query}")).unwrap();
                    assert_eq!(r.data, want.answers_data, "client {i} answers data");
                    assert_eq!(r.terminal, want.answers_terminal, "client {i}");
                    let r = c.request(&format!("COUNT {query}")).unwrap();
                    assert_eq!(r.terminal, want.count_terminal, "client {i}");
                    let r = c.request(&format!("DECIDE {bool_query}")).unwrap();
                    assert_eq!(r.terminal, want.decide_terminal, "client {i}");
                }
                c.quit().unwrap();
            })
        })
        .collect();
    for h in handles {
        h.join().expect("client thread must not panic");
    }

    drop(admin);
    server.shutdown();
}

#[test]
fn batch_matches_direct_batch_eval() {
    let server = Server::bind("127.0.0.1:0", 4).expect("bind ephemeral");
    let mut admin = setup(server.local_addr());
    assert!(admin.use_db("alpha").unwrap().is_ok());

    let reply = admin
        .run_batch([
            format!("COUNT {ALPHA_Q}"),
            format!("ANSWERS {ALPHA_Q}"),
            "DECIDE q() :- R(x, y), S(y, z)".to_string(),
            "COUNT q(x) :- Missing(x)".to_string(),
        ])
        .unwrap();
    assert_eq!(reply.terminal, "OK batch of 4 items");

    let db = alpha_mirror();
    let q = parse_query(ALPHA_Q).unwrap();
    let (n, _) = EvalCtx::new().count(&q, &db).unwrap();
    let (rel, _) = EvalCtx::new().answers(&q, &db).unwrap();
    assert_eq!(reply.data[0], format!("0 OK {n}"));
    assert_eq!(reply.data[1], format!("1 OK {} rows", rel.len()));
    assert_eq!(reply.data[2], "2 OK true");
    assert!(reply.data[3].starts_with("3 ERR eval:"), "{}", reply.data[3]);

    admin.quit().unwrap();
    server.shutdown();
}

#[test]
fn mutations_are_visible_and_tenant_isolated() {
    let server = Server::bind("127.0.0.1:0", 4).expect("bind ephemeral");
    let mut admin = setup(server.local_addr());
    let mut other = Client::connect(server.local_addr()).unwrap();
    assert!(other.use_db("beta").unwrap().is_ok());
    let beta_before = other.request(&format!("COUNT {BETA_Q}")).unwrap();

    // mutate alpha over the wire; mirror the mutation locally
    assert!(admin.use_db("alpha").unwrap().is_ok());
    assert!(admin.request("INSERT R(1000, 3)").unwrap().is_ok());
    let mut db = alpha_mirror();
    let mut r = db.get("R").unwrap().clone();
    r.push_row(&[1000, 3]);
    r.normalize();
    db.insert("R", r);

    let q = parse_query(ALPHA_Q).unwrap();
    let (rel, _) = EvalCtx::new().answers(&q, &db).unwrap();
    let reply = admin.request(&format!("ANSWERS {ALPHA_Q}")).unwrap();
    assert_eq!(reply.data, render_rows(&rel), "post-mutation answers byte-match");

    // beta is untouched
    let beta_after = other.request(&format!("COUNT {BETA_Q}")).unwrap();
    assert_eq!(beta_before.terminal, beta_after.terminal);

    // STATS sees both tenants, name-ordered
    let stats = admin.stats(None).unwrap();
    assert_eq!(stats.data[0], "tenants: 2");
    assert!(stats.data[2].starts_with("db alpha:"), "{:?}", stats.data);
    assert!(stats.data[3].starts_with("db beta:"), "{:?}", stats.data);

    admin.quit().unwrap();
    other.quit().unwrap();
    server.shutdown();
}

#[test]
fn idle_connections_do_not_starve_new_clients() {
    // 2 workers, with two idle long-lived sessions: a third client must
    // still be served (on a thread of its own), not queued forever
    let server = Server::bind("127.0.0.1:0", 2).expect("bind ephemeral");
    let addr = server.local_addr();
    let mut idle: Vec<Client> = (0..2).map(|_| Client::connect(addr).unwrap()).collect();
    for c in &mut idle {
        // a round-trip proves the session is live and holds its thread
        assert_eq!(c.request("PING").unwrap().terminal, "OK pong");
    }
    let mut fresh = Client::connect(addr).expect("connect past a full pool");
    assert_eq!(fresh.request("PING").unwrap().terminal, "OK pong");
    fresh.quit().unwrap();
    for c in idle {
        c.quit().unwrap();
    }
    server.shutdown();
}

#[test]
fn shutdown_completes_while_clients_stay_connected() {
    let server = Server::bind("127.0.0.1:0", 2).expect("bind ephemeral");
    let addr = server.local_addr();
    let mut idle = Client::connect(addr).unwrap();
    assert_eq!(idle.request("PING").unwrap().terminal, "OK pong");
    // the client neither quits nor disconnects — shutdown must still
    // return (the session read loop observes the stop flag)
    server.shutdown();
    // the server closed the idle connection
    assert!(idle.request("PING").is_err(), "connection must be gone after shutdown");
}

#[test]
fn explain_echoes_canonical_query_text() {
    let server = Server::bind("127.0.0.1:0", 2).expect("bind ephemeral");
    let mut admin = setup(server.local_addr());
    assert!(admin.use_db("alpha").unwrap().is_ok());
    for task in ["DECIDE", "COUNT", "ANSWERS", "ACCESS"] {
        let r = admin.request(&format!("EXPLAIN {task} {ALPHA_Q}")).unwrap();
        assert!(r.is_ok(), "EXPLAIN {task}: {}", r.terminal);
        let text = r.data.join("\n");
        // the echoed text is the canonical Display form, which reparses
        assert!(text.contains(&format!("PLAN for {ALPHA_Q}")), "{text}");
    }
    // parse errors over the wire carry the caret snippet
    let r = admin.request("EXPLAIN COUNT q(x) :- R(x) ; S(x)").unwrap();
    assert!(r.terminal.starts_with("ERR parse:"), "{}", r.terminal);
    assert_eq!(r.data.len(), 2);
    assert!(r.data[1].trim_end().ends_with('^'), "{:?}", r.data);

    admin.quit().unwrap();
    server.shutdown();
}

/// Cursor hygiene through the typed client: `for_each_page` releases
/// the server-side cursor slot on every exit path (exhaustion and an
/// `on_page` panic), and touching a closed cursor is the structured
/// `ERR no-such-cursor` — observable as [`ErrKind::NoSuchCursor`] on
/// the client end of the wire.
#[test]
fn cursors_are_closed_on_every_client_exit_path() {
    use cq_server::protocol::ErrKind;

    let server = Server::bind("127.0.0.1:0", 2).expect("bind ephemeral");
    let mut admin = setup(server.local_addr());
    assert!(admin.use_db("alpha").unwrap().is_ok());

    // FETCH / SEEK / CLOSE on an explicitly closed cursor: typed error
    let id = admin.cursor("ANSWERS", ALPHA_Q).unwrap().expect("open cursor");
    assert!(admin.close_cursor(id).unwrap().is_ok());
    for reply in [
        admin.fetch(id, 4).unwrap().expect_err("fetch after close must fail"),
        admin.seek(id, 0).unwrap(),
        admin.close_cursor(id).unwrap(),
    ] {
        assert_eq!(reply.err_kind(), Some(ErrKind::NoSuchCursor), "{}", reply.terminal);
    }

    // exhaustion auto-closes: a scripted CLOSE after a full drain is
    // already a no-such-cursor error
    let id = admin.cursor("ANSWERS", ALPHA_Q).unwrap().expect("open cursor");
    let expected = expected(&alpha_mirror(), ALPHA_Q, "q() :- R(x, y), S(y, z)");
    let mut rows = Vec::new();
    let total = admin
        .for_each_page(id, 7, |page| rows.extend_from_slice(page))
        .unwrap()
        .expect("drain");
    assert_eq!(rows, expected.answers_data);
    assert_eq!(total as usize, rows.len());
    let reply = admin.close_cursor(id).unwrap();
    assert_eq!(reply.err_kind(), Some(ErrKind::NoSuchCursor), "{}", reply.terminal);

    // a panicking on_page closes before unwinding — the slot is freed
    // even though the drain never reached eof
    let id = admin.cursor("ANSWERS", ALPHA_Q).unwrap().expect("open cursor");
    let panic = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
        let _ = admin.for_each_page(id, 2, |_| panic!("consumer bails"));
    }))
    .expect_err("the consumer panic must propagate");
    assert_eq!(*panic.downcast_ref::<&str>().unwrap(), "consumer bails");
    let reply = admin.close_cursor(id).unwrap();
    assert_eq!(reply.err_kind(), Some(ErrKind::NoSuchCursor), "{}", reply.terminal);

    admin.quit().unwrap();
    server.shutdown();
}
