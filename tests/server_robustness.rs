//! Robustness drills over the wire: per-tenant query deadlines
//! (`SET TIMEOUT`) tripping as structured `ERR timeout` replies while
//! the connection and other tenants keep serving, fault-injected WAL
//! failures degrading one tenant to read-only without touching its
//! neighbors, sessions racing `SET BUDGET` against `SET TIMEOUT` and
//! recovering the limits the live tenant had, the acceptor shedding
//! connections with `ERR busy` once every session slot is taken, and a
//! client that hangs up mid-`COUNT` having its evaluation cancelled. (A
//! client that never sends a newline is refused instead of buffered:
//! `crates/server/tests/request_line_cap.rs` measures that on a `cqd`
//! process of its own.)

use cq_server::client::Client;
use cq_server::protocol::BudgetSetting;
use cq_server::server::Server;
use cq_server::state::ServerState;
use cq_storage::{FaultPlan, FaultPoint, Store};
use std::sync::{Arc, Barrier};
use std::time::{Duration, Instant};

fn triangle_load(c: &mut Client) {
    // edges a → a+2 (mod 6) close the triangles {0,2,4} and {1,3,5};
    // a shifted a → a+1 (mod 7) ring adds triangle-free bulk
    let edges: Vec<String> = (0..6)
        .map(|a| format!("{a} {}", (a + 2) % 6))
        .chain((0..7).map(|a| format!("{} {}", 10 + a, 10 + (a + 1) % 7)))
        .collect();
    for name in ["R1", "R2", "R3"] {
        assert!(c.load(name, 2, edges.clone()).unwrap().is_ok());
    }
}

const TRI: &str = "DECIDE q() :- R1(x, y), R2(y, z), R3(z, x)";

#[test]
fn timeout_over_the_wire_cites_the_lower_bound() {
    let server = Server::bind("127.0.0.1:0", 2).expect("bind ephemeral");
    let addr = server.local_addr();
    let mut c = Client::connect(addr).unwrap();
    assert!(c.create_db("slow").unwrap().is_ok());
    assert!(c.create_db("fast").unwrap().is_ok());
    assert!(c.use_db("slow").unwrap().is_ok());
    triangle_load(&mut c);

    // a zero deadline is already past at evaluation entry: the trip is
    // deterministic, and the reply must cite the plan's cost exponent
    // and the lower-bound hypothesis behind it
    assert!(c.set_timeout("slow", Some(0)).unwrap().is_ok());
    let r = c.request(TRI).unwrap();
    assert!(r.terminal.starts_with("ERR timeout:"), "{}", r.terminal);
    assert!(r.terminal.contains("plan cost m^"), "{}", r.terminal);
    assert!(r.terminal.contains("Hypothesis"), "{}", r.terminal);

    // the connection survived the timeout...
    assert_eq!(c.request("PING").unwrap().terminal, "OK pong");
    // ...and an unthrottled tenant on a second connection still serves
    let mut other = Client::connect(addr).unwrap();
    assert!(other.use_db("fast").unwrap().is_ok());
    triangle_load(&mut other);
    assert_eq!(other.request(TRI).unwrap().terminal, "OK true");

    // clearing the deadline re-admits the query on the first tenant
    assert!(c.set_timeout("slow", None).unwrap().is_ok());
    assert_eq!(c.request(TRI).unwrap().terminal, "OK true");

    // the trip is visible in the tenant's metrics
    let m = c.metrics(Some("slow")).unwrap();
    assert!(m.data.iter().any(|l| l == "db.slow timeouts=1"), "{:?}", m.data);

    let _ = c.quit();
    let _ = other.quit();
    server.shutdown();
}

#[test]
fn degraded_tenant_leaves_neighbors_read_write() {
    let dir =
        std::env::temp_dir().join(format!("cq_robust_degrade_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    // third WAL append fails once: tenant `frail` takes two good
    // mutations elsewhere in the schedule, then degrades
    let store =
        Store::open_dir_with_faults(&dir, FaultPlan::failing(FaultPoint::WalAppend, 3))
            .unwrap();
    let (state, _) = ServerState::recover(store).unwrap();
    let server =
        Server::bind_with_state("127.0.0.1:0", 2, Arc::new(state)).expect("bind");
    let addr = server.local_addr();

    let mut c = Client::connect(addr).unwrap();
    assert!(c.create_db("frail").unwrap().is_ok());
    assert!(c.create_db("sturdy").unwrap().is_ok());
    assert!(c.use_db("frail").unwrap().is_ok());
    assert!(c.request("INSERT R(1, 2)").unwrap().is_ok()); // append 1
    assert!(c.request("INSERT R(2, 3)").unwrap().is_ok()); // append 2
    let r = c.request("INSERT R(3, 4)").unwrap(); // append 3: injected
    assert!(r.terminal.starts_with("ERR storage:"), "{}", r.terminal);
    assert!(r.terminal.contains("read-only"), "{}", r.terminal);

    // frail: mutations refused, reads fine
    let r = c.request("INSERT R(4, 5)").unwrap();
    assert!(r.terminal.starts_with("ERR degraded:"), "{}", r.terminal);
    assert_eq!(c.request("COUNT q(x, y) :- R(x, y)").unwrap().terminal, "OK 3");

    // sturdy: completely unaffected, on a separate connection
    let mut other = Client::connect(addr).unwrap();
    assert!(other.use_db("sturdy").unwrap().is_ok());
    assert!(other.request("INSERT R(7, 8)").unwrap().is_ok());
    assert_eq!(other.request("COUNT q(x, y) :- R(x, y)").unwrap().terminal, "OK 1");

    // RESUME repairs frail over the wire
    let r = c.resume("frail").unwrap();
    assert!(r.is_ok(), "{}", r.terminal);
    assert!(c.request("INSERT R(4, 5)").unwrap().is_ok());
    assert_eq!(c.request("COUNT q(x, y) :- R(x, y)").unwrap().terminal, "OK 4");

    let _ = c.quit();
    let _ = other.quit();
    server.shutdown();
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn racing_limit_changes_recover_as_the_live_tenant_had_them() {
    let dir =
        std::env::temp_dir().join(format!("cq_robust_limits_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let boot =
        || Arc::new(ServerState::recover(Store::open_dir(&dir).unwrap()).unwrap().0);
    let mut state = boot();
    state.create_db("lim").unwrap();
    // each round, one session moves the row cap while the other moves
    // the deadline; the log's last record must be the set they leave
    for round in 1..=40 {
        let server =
            Server::bind_with_state("127.0.0.1:0", 2, Arc::clone(&state)).expect("bind");
        let addr = server.local_addr();
        let start = Barrier::new(2);
        std::thread::scope(|s| {
            s.spawn(|| {
                let mut c = Client::connect(addr).unwrap();
                start.wait();
                let r = c.set_budget("lim", BudgetSetting::MaxRows(round)).unwrap();
                assert!(r.is_ok(), "{}", r.terminal);
            });
            s.spawn(|| {
                let mut c = Client::connect(addr).unwrap();
                start.wait();
                assert!(c.set_timeout("lim", Some(round)).unwrap().is_ok());
            });
        });
        let live = state.tenant("lim").unwrap().limits();
        // every session is joined, so the state's last holder is here
        server.shutdown();
        drop(state);
        state = boot();
        assert_eq!(state.tenant("lim").unwrap().limits(), live, "round {round}");
    }
    drop(state);
    let _ = std::fs::remove_dir_all(&dir);
}

#[test]
fn saturated_acceptor_sheds_with_err_busy() {
    // 1 worker: 9 live sessions at most
    let server = Server::bind("127.0.0.1:0", 1).expect("bind ephemeral");
    let addr = server.local_addr();

    // saturate: 9 clients, each proven live with a PING round-trip (so
    // the acceptor has committed a session slot to each)
    let mut held = Vec::new();
    for i in 0..9 {
        let mut c = Client::connect(addr).unwrap_or_else(|e| panic!("client {i}: {e}"));
        assert_eq!(c.request("PING").unwrap().terminal, "OK pong", "client {i}");
        held.push(c);
    }

    // the 10th connection is shed at accept time with a best-effort
    // `ERR busy` (no request needed — the reply is pushed)
    let mut shed = Client::connect(addr).expect("tcp connect still accepts");
    let r = shed.read_reply().expect("shed reply");
    assert!(r.terminal.starts_with("ERR busy:"), "{}", r.terminal);

    // the shed is counted; held sessions keep serving
    let m = held[0].metrics(None).unwrap();
    assert!(m.data.iter().any(|l| l == "server connections.shed=1"), "{:?}", m.data);
    for (i, c) in held.iter_mut().enumerate() {
        assert_eq!(c.request("PING").unwrap().terminal, "OK pong", "client {i}");
    }

    // freeing a slot re-admits new connections (the slot is released
    // just after the QUIT reply, so poll briefly)
    let _ = held.pop().unwrap().quit();
    let deadline = std::time::Instant::now() + std::time::Duration::from_secs(10);
    loop {
        let mut again = Client::connect(addr).expect("reconnect");
        match again.request("PING") {
            Ok(r) if r.terminal == "OK pong" => {
                let _ = again.quit();
                break;
            }
            _ if std::time::Instant::now() < deadline => {
                std::thread::sleep(std::time::Duration::from_millis(20));
            }
            other => panic!("slot never freed: {other:?}"),
        }
    }
    for c in held {
        let _ = c.quit();
    }
    server.shutdown();
}

/// A hard-side `COUNT`: the ends of two-edge paths, a projection that is
/// not free-connex, so the join visits every path and dedups its ends.
const ENDS: &str = "COUNT q(x, z) :- R(x, y), R(y, z)";

#[test]
fn a_client_hanging_up_mid_count_is_cancelled_by_the_socket_peek() {
    let server = Server::bind("127.0.0.1:0", 2).expect("bind ephemeral");
    let addr = server.local_addr();
    let mut c = Client::connect(addr).unwrap();
    assert!(c.create_db("gone").unwrap().is_ok());
    assert!(c.use_db("gone").unwrap().is_ok());

    // grow `R` into the complete graph on `n` vertices (n³ paths, n²
    // ends) until a warm `COUNT` runs at least half a second on a live
    // connection, whatever the build and the host
    let (mut loaded, mut n) = (0, 64);
    let full = loop {
        let new_edges = (0..n)
            .flat_map(|a| (0..n).map(move |b| (a, b)))
            .filter(|&(a, b)| a.max(b) >= loaded)
            .map(|(a, b)| format!("{a} {b}"));
        assert!(c.load("R", 2, new_edges).unwrap().is_ok());
        loaded = n;
        let want = format!("OK {}", n * n);
        assert_eq!(c.request(ENDS).unwrap().terminal, want, "cold");
        let started = Instant::now();
        assert_eq!(c.request(ENDS).unwrap().terminal, want, "warm");
        let full = started.elapsed();
        if full >= Duration::from_millis(500) {
            break full;
        }
        n = n * 3 / 2;
    };

    // the same COUNT on a second connection, which hangs up once the
    // evaluation is under way: nothing but the server's peek at that
    // socket can stop it
    let mut hanging = Client::connect(addr).unwrap();
    assert!(hanging.use_db("gone").unwrap().is_ok());
    let sent = Instant::now();
    hanging.send_line(ENDS).unwrap();
    std::thread::sleep(full / 10);
    drop(hanging);
    loop {
        let m = c.metrics(Some("gone")).unwrap();
        if m.data.iter().any(|l| l == "db.gone cancellations=1") {
            break;
        }
        assert!(sent.elapsed() < 4 * full, "never cancelled: {:?}", m.data);
        std::thread::sleep(Duration::from_millis(5));
    }
    let noticed = sent.elapsed();
    assert!(noticed < full / 2, "cancelled after {noticed:?} of a {full:?} run");

    let _ = c.quit();
    server.shutdown();
}
