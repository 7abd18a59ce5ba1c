//! A client that never sends a newline is refused, not buffered: a
//! request line past [`MAX_REQUEST_LINE_BYTES`] is answered `ERR usage`
//! while the server reads and drops it, and the connection keeps
//! serving — inside a `LOAD` or `BATCH` block too, where the refusal is
//! the block's own error.
//!
//! The server is a `cqd` process of its own, so its resident set holds
//! nothing but what this connection made it allocate — not the heaps
//! another test of the same binary left behind.

mod daemon;

use cq_server::server::MAX_REQUEST_LINE_BYTES;
use daemon::Daemon;
use std::io::{BufRead, BufReader, Write};
use std::net::TcpStream;
use std::time::Duration;

#[test]
fn an_over_long_request_line_is_refused_not_buffered() {
    let daemon = Daemon::boot(&["--workers".into(), "1".into()], &[]);
    let mut wire = TcpStream::connect(daemon.addr.as_str()).unwrap();
    wire.set_read_timeout(Some(Duration::from_secs(30))).unwrap();
    let mut replies = BufReader::new(wire.try_clone().unwrap());
    let mut reply = || {
        let mut line = String::new();
        replies.read_line(&mut line).unwrap();
        line
    };
    // a line four times the cap, written in pieces so this side never
    // holds it either
    let piece = [b'x'; 64 << 10];
    let send_over_long = |wire: &mut TcpStream| {
        for _ in 0..4 * MAX_REQUEST_LINE_BYTES / piece.len() {
            wire.write_all(&piece).unwrap();
        }
        wire.write_all(b"\n").unwrap();
    };
    let too_long =
        format!("ERR usage: request line exceeds {MAX_REQUEST_LINE_BYTES} bytes\n");

    wire.write_all(b"PING\n").unwrap();
    assert_eq!(reply(), "OK pong\n", "the session is up before the baseline");
    let before = daemon.resident_bytes();
    send_over_long(&mut wire);
    assert_eq!(reply(), too_long);
    // the same connection keeps serving...
    wire.write_all(b"PING\n").unwrap();
    assert_eq!(reply(), "OK pong\n");
    // ...and the server never held the line
    let grown = daemon.resident_bytes().saturating_sub(before);
    assert!(
        grown < MAX_REQUEST_LINE_BYTES,
        "resident set grew {grown} bytes over a {} byte line",
        4 * MAX_REQUEST_LINE_BYTES
    );

    // inside a LOAD block the refusal is the block's error — one reply,
    // at END, like any bad row — so pipelined framing stays intact
    wire.write_all(b"CREATE DB t\nUSE t\nLOAD R 1\n1\n").unwrap();
    send_over_long(&mut wire);
    wire.write_all(b"2\nEND\nPING\n").unwrap();
    assert_eq!(reply(), "OK created t\n");
    assert_eq!(reply(), "OK using t\n");
    assert_eq!(reply(), "OK loading; rows until END\n");
    assert_eq!(reply(), too_long);
    assert_eq!(reply(), "OK pong\n");
    // ...and inside a BATCH it is that item's error
    wire.write_all(b"BATCH\n").unwrap();
    send_over_long(&mut wire);
    wire.write_all(b"END\nQUIT\n").unwrap();
    assert_eq!(reply(), "OK batching; DECIDE|COUNT|ANSWERS items until END\n");
    assert_eq!(reply(), format!("* 0 {too_long}"));
    assert_eq!(reply(), "OK batch of 1 items\n");
    assert_eq!(reply(), "OK bye\n");
}
