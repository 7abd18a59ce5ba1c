//! Malformed-input safety for the wire protocol: arbitrary byte lines
//! must never panic the connection handler, and every command line must
//! come back as exactly one structured `OK`/`ERR` reply (rows and items
//! inside an open `LOAD`/`BATCH` block are consumed silently by design,
//! and `END` always flushes the block with one reply).

use cq_server::client::Client;
use cq_server::protocol::Reply;
use cq_server::server::{Server, Session};
use cq_server::state::ServerState;
use proptest::prelude::*;
use std::sync::Arc;

fn terminal_is_framed(r: &Reply) -> bool {
    r.terminal.starts_with("OK") || r.terminal.starts_with("ERR ")
}

/// Feed raw lines to a session; count replies and check framing — and
/// that no handler panicked into an `ERR internal`.
fn feed(session: &mut Session, raw: &[u8]) -> Result<usize, TestCaseError> {
    let reply = session.handle_raw(raw);
    match reply {
        Some(r) => {
            prop_assert!(terminal_is_framed(&r), "unframed terminal: {:?}", r.terminal);
            prop_assert!(!r.terminal.starts_with("ERR internal"), "{}", r.terminal);
            Ok(1)
        }
        None => Ok(0),
    }
}

/// The panics `Session::handle_action` caught on `state`'s sessions.
fn panics(state: &ServerState) -> u64 {
    state.metrics().server_scope().counter("panics").get()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Fully random bytes (newlines remapped: the transport already
    /// splits on them).
    #[test]
    fn random_byte_lines_never_panic(
        lines in proptest::collection::vec(
            proptest::collection::vec(any::<u8>(), 0..60),
            1..16,
        )
    ) {
        let state = Arc::new(ServerState::new());
        let mut session = Session::new(Arc::clone(&state));
        for line in &lines {
            let raw: Vec<u8> = line
                .iter()
                .map(|&b| if b == b'\n' || b == b'\r' { b' ' } else { b })
                .collect();
            feed(&mut session, &raw)?;
            prop_assert_eq!(panics(&state), 0);
            if session.finished() {
                return Ok(()); // the bytes spelled QUIT — a clean exit
            }
        }
        // flush any block a random "LOAD ..."-shaped line opened: END
        // closes it with one reply (or is one unknown-command ERR)
        prop_assert_eq!(feed(&mut session, b"END")?, 1, "END must always draw a reply");
        // and the session still serves
        let pong = session.handle_raw(b"PING").unwrap();
        prop_assert_eq!(pong.terminal.as_str(), "OK pong");
        prop_assert_eq!(panics(&state), 0);
    }

    /// Mutated near-valid commands: real verbs with shuffled tails —
    /// much likelier to reach deep parser/dispatch paths than raw
    /// bytes.
    #[test]
    fn mutated_commands_never_panic(
        picks in proptest::collection::vec((0usize..12, any::<u64>(), 0usize..24), 1..24)
    ) {
        const VERBS: [&str; 12] = [
            "PING", "CREATE DB", "USE", "INSERT", "LOAD", "DECIDE", "COUNT",
            "ANSWERS", "EXPLAIN", "BATCH", "STATS", "END",
        ];
        const TAILS: [&str; 8] = [
            "", " t1", " R(1, 2)", " R 2", " q(x) :- R(x, y)", " q(x :- R(",
            " COUNT q() :- R(x, x)", " \u{7f}\u{1b} ; ( ,",
        ];
        let state = Arc::new(ServerState::new());
        let mut session = Session::new(Arc::clone(&state));
        let mut replies = 0usize;
        for &(v, salt, t) in &picks {
            let line = format!("{}{}{}", VERBS[v], TAILS[t % TAILS.len()],
                if salt % 3 == 0 { " trailing" } else { "" });
            replies += feed(&mut session, line.as_bytes())?;
        }
        feed(&mut session, b"END")?; // flush
        // the first line always runs in idle mode, so it always replies
        prop_assert!(replies > 0, "idle-mode commands must draw replies");
        let pong = session.handle_raw(b"PING").unwrap();
        prop_assert_eq!(pong.terminal.as_str(), "OK pong");
        prop_assert_eq!(panics(&state), 0);
    }
}

/// A long chordless cycle is a few hundred bytes on the wire and the
/// worst case of the planner's witness search: it must be planned (the
/// search is bounded in work, whatever the variable count), answered
/// with a structured reply, and leave the session serving.
#[test]
fn long_cycle_queries_are_planned_and_answered() {
    let mut session = Session::new(Arc::new(ServerState::new()));
    let mut send = |line: String| session.handle_line(&line).expect("a reply");
    assert!(send("CREATE DB rings".to_string()).is_ok());
    assert!(send("USE rings".to_string()).is_ok());
    for k in [26usize, 64] {
        for i in 0..k {
            assert!(send(format!("INSERT E{k}_{i}({i}, {})", (i + 1) % k)).is_ok());
        }
        let atoms: Vec<String> =
            (0..k).map(|i| format!("E{k}_{i}(x{i}, x{})", (i + 1) % k)).collect();
        let query = format!("q() :- {}", atoms.join(", "));
        assert_eq!(send(format!("DECIDE {query}")).terminal, "OK true", "C{k}");
        let explain = send(format!("EXPLAIN DECIDE {query}"));
        assert!(explain.is_ok(), "C{k}: {}", explain.terminal);
        let text = explain.data.join("\n");
        assert!(text.contains("Triangle Hypothesis"), "C{k}: {text}");
        assert!(text.contains(&format!("x{}}}", k - 1)), "C{k} names its cycle: {text}");
        assert_eq!(send("PING".to_string()).terminal, "OK pong");
    }
}

/// The same property over a real socket: garbage command lines each
/// draw exactly one reply and never kill the connection.
#[test]
fn garbage_over_the_wire_keeps_the_connection() {
    let server = Server::bind("127.0.0.1:0", 2).expect("bind");
    let mut c = Client::connect(server.local_addr()).expect("connect");
    let garbage = [
        "open the pod bay doors",
        "CREATE DB; DROP TABLE users",
        "COUNT",
        "COUNT  ",
        "EXPLAIN q(x) :- R(x)",
        "INSERT R(1,2,three)",
        "USE q(x) :- R(x)",
        "((((((((",
        ")",
        ":-",
        "DECIDE q(x :- R(x",
        "ANSWERS q(x) :- R(x) ; S(x)",
        "\u{1f}\u{2}\u{3}garbage\u{7f}",
        "END",
        "end of transmission",
    ];
    for line in garbage {
        let reply = c.request(line).unwrap_or_else(|e| panic!("`{line}`: {e}"));
        assert!(
            reply.terminal.starts_with("ERR "),
            "`{line}` should be an error, got {}",
            reply.terminal
        );
    }
    // the session survived all of it
    assert_eq!(c.request("PING").unwrap().terminal, "OK pong");
    assert_eq!(c.quit().unwrap().terminal, "OK bye");
    server.shutdown();
}
