//! The runtime around [`Session`]: the acceptor, which gives each
//! admitted connection a thread of its own under one cap on live
//! sessions and sheds the rest, and the per-connection read loop, whose
//! replies to pipelined requests share a write.

use super::session::{Action, Session};
use crate::protocol::{ErrKind, Reply};
use crate::state::ServerState;
use cq_obs::{Counter, Gauge};
use std::io::{BufRead, BufReader, BufWriter, Write};
use std::net::{SocketAddr, TcpListener, TcpStream, ToSocketAddrs};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

/// Handle to a running server: the bound address, the shared state, and
/// the acceptor thread, which hands back its sessions' threads when it
/// ends. Dropping (or [`Server::shutdown`]) stops accepting and joins
/// every session.
pub struct Server {
    addr: SocketAddr,
    state: Arc<ServerState>,
    stop: Arc<AtomicBool>,
    acceptor: Option<JoinHandle<Vec<JoinHandle<()>>>>,
}

impl Server {
    /// Bind and start serving on `addr` (use port 0 for an ephemeral
    /// port; read it back from [`Server::local_addr`]) with at most
    /// `9 × workers` live sessions.
    ///
    /// Each admitted connection runs on a thread of its own, so no
    /// client waits behind another's idle session; past the cap, a new
    /// connection is shed with `ERR busy`.
    pub fn bind(addr: impl ToSocketAddrs, workers: usize) -> std::io::Result<Server> {
        Server::bind_with_state(addr, workers, Arc::new(ServerState::new()))
    }

    /// [`Server::bind`] over pre-built state — the persistent-mode
    /// entry point: recover tenants first ([`ServerState::recover`]),
    /// then take traffic.
    pub fn bind_with_state(
        addr: impl ToSocketAddrs,
        workers: usize,
        state: Arc<ServerState>,
    ) -> std::io::Result<Server> {
        let listener = TcpListener::bind(addr)?;
        let addr = listener.local_addr()?;
        let stop = Arc::new(AtomicBool::new(false));
        let cap = (workers.max(1) * SESSIONS_PER_WORKER) as u64;
        let acceptor = {
            let (state, stop) = (Arc::clone(&state), Arc::clone(&stop));
            std::thread::Builder::new()
                .name("cqd-acceptor".to_string())
                .spawn(move || accept(&listener, &state, &stop, cap))
                .expect("spawn acceptor thread")
        };
        Ok(Server { addr, state, stop, acceptor: Some(acceptor) })
    }

    /// The bound address (resolves ephemeral ports).
    pub fn local_addr(&self) -> SocketAddr {
        self.addr
    }

    /// The shared tenant registry (for in-process inspection).
    pub fn state(&self) -> Arc<ServerState> {
        Arc::clone(&self.state)
    }

    /// Block on the acceptor thread — `cqd`'s forever-run mode.
    pub fn wait(mut self) {
        self.join();
    }

    /// Graceful shutdown: stop accepting, signal every session's read
    /// loop, and join every session. In-flight commands finish their
    /// reply; idle connections are closed at the next read tick
    /// (≤ 200 ms), so shutdown never blocks on a client that stays
    /// silent.
    pub fn shutdown(mut self) {
        self.stop_and_join();
    }

    fn stop_and_join(&mut self) {
        if self.stop.swap(true, Ordering::SeqCst) {
            return;
        }
        // wake the blocking accept with a no-op connection
        let _ = TcpStream::connect(self.addr);
        self.join();
    }

    fn join(&mut self) {
        let Some(acceptor) = self.acceptor.take() else { return };
        for session in acceptor.join().unwrap_or_default() {
            let _ = session.join();
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        self.stop_and_join();
    }
}

/// How often a blocked connection read wakes up to check the server's
/// stop flag (bounds shutdown latency with idle clients connected).
const READ_TICK: Duration = Duration::from_millis(200);

/// Live sessions per `workers`: a server bound with `w` serves at most
/// `w × this` connections at once and sheds the next with `ERR busy`.
const SESSIONS_PER_WORKER: usize = 9;

/// A live session's place under the cap. The `connections.open` gauge
/// counts the slots held; the acceptor alone takes one, and the
/// session's thread gives it back when it ends, by a panic too.
struct Slot(Arc<Gauge>);

impl Slot {
    /// A slot, if fewer than `cap` are held. No one else takes slots,
    /// so nothing can slip in between the check and the count.
    fn claim(open: &Arc<Gauge>, cap: u64) -> Option<Slot> {
        (open.get() < cap).then(|| {
            open.add(1);
            Slot(Arc::clone(open))
        })
    }
}

impl Drop for Slot {
    fn drop(&mut self) {
        self.0.sub(1);
    }
}

/// Run `session` on a thread of its own that holds `slot` until it ends.
fn spawn_session(
    slot: Slot,
    session: impl FnOnce() + Send + 'static,
) -> std::io::Result<JoinHandle<()>> {
    std::thread::Builder::new().name("cqd-session".to_string()).spawn(move || {
        let _slot = slot;
        session();
    })
}

/// The acceptor: each connection gets a [`Slot`] and a thread of its own
/// until `stop`, and with every slot taken, a best-effort `ERR busy`
/// before it is closed. Returns the threads of the sessions still
/// running, for [`Server::join`].
fn accept(
    listener: &TcpListener,
    state: &Arc<ServerState>,
    stop: &Arc<AtomicBool>,
    cap: u64,
) -> Vec<JoinHandle<()>> {
    let scope = state.metrics().server_scope();
    let (open, shed) =
        (scope.gauge("connections.open"), scope.counter("connections.shed"));
    let mut sessions: Vec<JoinHandle<()>> = Vec::new();
    // a failed accept is skipped; the connection that wakes a stopping
    // acceptor is the last one taken
    let accepted = listener.incoming().take_while(|_| !stop.load(Ordering::SeqCst));
    for mut stream in accepted.flatten() {
        sessions.retain(|session| !session.is_finished());
        let Some(slot) = Slot::claim(&open, cap) else {
            shed.inc();
            let busy = "server saturated (every session slot is taken); retry later";
            let _ = Reply::err(ErrKind::Busy, busy).write_to(&mut stream);
            continue;
        };
        let (state, stop) = (Arc::clone(state), Arc::clone(stop));
        match spawn_session(slot, move || serve_connection(stream, state, &stop)) {
            Ok(session) => sessions.push(session),
            // out of threads: the unrun closure drops the connection (the
            // client sees EOF) and its slot
            Err(_) => shed.inc(),
        }
    }
    sessions
}

/// A read error that says "nothing yet", not "connection broken": the
/// read-timeout tick, an empty nonblocking socket, a signal.
fn transient(e: &std::io::Error) -> bool {
    use std::io::ErrorKind::{Interrupted, TimedOut, WouldBlock};
    matches!(e.kind(), WouldBlock | TimedOut | Interrupted)
}

/// Is the client gone? A nonblocking one-byte peek distinguishes EOF or
/// reset (gone) from "no request bytes yet" (alive, just waiting). The
/// session and its reader run on one thread, and so does this probe —
/// [`Session::set_cancel_probe`] asserts it — so briefly flipping the
/// shared socket nonblocking cannot race an in-progress blocking read,
/// nor another probe, which would leave this `peek` blocking for a whole
/// read tick. It is three syscalls (≈ 0.6 µs), so it runs only behind a
/// [`PeekGate`], which spaces the peeks by 100× their cost.
fn connection_gone(stream: &TcpStream) -> bool {
    if stream.set_nonblocking(true).is_err() {
        return true;
    }
    let mut byte = [0u8; 1];
    let gone = match stream.peek(&mut byte) {
        Ok(0) => true, // orderly shutdown: EOF
        Ok(_) => false,
        Err(e) => !transient(&e),
    };
    let _ = stream.set_nonblocking(false);
    gone
}

/// How many times its own cost must pass between the end of one peek and
/// the start of the next: the probe takes at most 1 / this of the session
/// thread's time, whatever the load.
const PEEK_SPACING: u32 = 100;

/// Is a peek due at `now`, the last one having ended at `last_end` and
/// taken `cost` (all measured from one base)? Once [`PEEK_SPACING`]× its
/// cost has gone by, and never later than one [`READ_TICK`], the latency
/// the read loop already accepts for noticing `stop`. Before the first
/// peek both are zero, so it is due.
fn peek_due(now: Duration, last_end: Duration, cost: Duration) -> bool {
    now.saturating_sub(last_end) >= cost.saturating_mul(PEEK_SPACING).min(READ_TICK)
}

/// The gate in front of [`connection_gone`]. An evaluation consults its
/// cancel probe once per `cq_engine::cancel::STRIDE` polls, about every
/// microsecond in a fold; the gate answers a consultation from the last
/// peek unless [`peek_due`] says otherwise. It lives in the session's
/// probe closure, which runs on the session's thread only: the atomics
/// make the closure `Sync`, they do not serve a second writer.
struct PeekGate {
    /// Counts the peeks that ran (`server probe.peeks`).
    peeks: Arc<Counter>,
    base: Instant,
    /// Nanoseconds from `base` to the end of the last peek.
    last_end: AtomicU64,
    /// Nanoseconds the last peek took.
    cost: AtomicU64,
    /// What the last peek saw.
    gone: AtomicBool,
}

impl PeekGate {
    fn new(peeks: Arc<Counter>) -> PeekGate {
        PeekGate {
            peeks,
            base: Instant::now(),
            last_end: AtomicU64::new(0),
            cost: AtomicU64::new(0),
            gone: AtomicBool::new(false),
        }
    }

    /// Answer the probe: run `peek` ("is the client gone?") if one is due
    /// by `clock`, else repeat what the last one saw.
    fn consult(&self, clock: impl Fn() -> Instant, peek: impl FnOnce() -> bool) -> bool {
        let since_base = || clock().saturating_duration_since(self.base);
        let nanos = |at: &AtomicU64| Duration::from_nanos(at.load(Ordering::Relaxed));
        let start = since_base();
        if !peek_due(start, nanos(&self.last_end), nanos(&self.cost)) {
            return self.gone.load(Ordering::Relaxed);
        }
        self.peeks.inc();
        let gone = peek();
        let end = since_base();
        let as_nanos = |d: Duration| u64::try_from(d.as_nanos()).unwrap_or(u64::MAX);
        self.last_end.store(as_nanos(end), Ordering::Relaxed);
        self.cost.store(as_nanos(end.saturating_sub(start)), Ordering::Relaxed);
        self.gone.store(gone, Ordering::Relaxed);
        gone
    }
}

/// Cap on one request line, terminator included. The longest legitimate
/// lines — an `INSERT` tuple, a `LOAD` row, a query — are orders of
/// magnitude shorter, so the cap only ever meets a client that never
/// sends `\n`; without it such a client grows the connection's line
/// buffer, and with it `cqd`, without limit. An over-long line is
/// answered `ERR usage` (see [`Session::handle_oversized`]) and thrown
/// away through its newline without being buffered; the session, and
/// any `LOAD`/`BATCH` block open in it, carries on.
pub const MAX_REQUEST_LINE_BYTES: usize = 1 << 20;

/// What [`read_line`] found on the wire.
#[derive(Debug, PartialEq, Eq)]
enum Line {
    /// A line is in the buffer (terminator included, unless EOF cut it
    /// short — a partial last line is still served).
    Complete,
    /// A line longer than [`MAX_REQUEST_LINE_BYTES`] went by, unbuffered.
    Oversized,
    /// EOF, a broken connection, or the server stopping: hang up.
    Closed,
}

/// Read one request line into `buf`, accumulating across read-timeout
/// ticks (a timeout keeps the partial bytes and lets us poll `stop`).
/// Memory stays bounded whatever the client sends: once a line passes
/// the cap its bytes are dropped as they arrive and the buffer is
/// released, not merely cleared.
fn read_line(reader: &mut impl BufRead, buf: &mut Vec<u8>, stop: &AtomicBool) -> Line {
    buf.clear();
    let mut line = Line::Complete;
    loop {
        let available = match reader.fill_buf() {
            Ok([]) if buf.is_empty() && line == Line::Complete => return Line::Closed,
            Ok([]) => return line, // EOF mid-line
            Ok(bytes) => bytes,
            Err(e) if transient(&e) => {
                if stop.load(Ordering::SeqCst) {
                    return Line::Closed;
                }
                continue;
            }
            Err(_) => return Line::Closed, // broken connection
        };
        let newline = available.iter().position(|&b| b == b'\n');
        let taken = newline.map_or(available.len(), |i| i + 1);
        if line == Line::Complete && buf.len() + taken > MAX_REQUEST_LINE_BYTES {
            line = Line::Oversized;
            *buf = Vec::new();
        }
        if line == Line::Complete {
            buf.extend_from_slice(&available[..taken]);
        }
        reader.consume(taken);
        if newline.is_some() {
            return line;
        }
    }
}

/// The one place a framed reply leaves for the wire. Replies collect in
/// `writer` while the read buffer holds another complete request
/// (`pipelined`: a client sent it before reading a reply, so the replies
/// share one write), and go out, counted in `flushes`, before the loop
/// would block on a read: a lone request, or the last of a pipelined
/// burst, waits for nothing that has not already arrived.
fn flush_replies(
    writer: &mut BufWriter<TcpStream>,
    pipelined: bool,
    flushes: &Counter,
) -> std::io::Result<()> {
    if pipelined || writer.buffer().is_empty() {
        return Ok(());
    }
    flushes.inc();
    writer.flush()
}

/// Serve one connection to completion: read lines, feed the session,
/// write framed replies, flushing them as [`flush_replies`] says. IO
/// errors or EOF end the session quietly; the `stop` flag ends it at
/// the next read tick, so idle clients can never block
/// [`Server::shutdown`].
fn serve_connection(stream: TcpStream, state: Arc<ServerState>, stop: &AtomicBool) {
    let _ = stream.set_nodelay(true);
    let _ = stream.set_read_timeout(Some(READ_TICK));
    let Ok(read_half) = stream.try_clone() else { return };
    let probe_half = stream.try_clone();
    let scope = state.metrics().server_scope();
    scope.counter("connections.total").inc();
    let flushes = scope.counter("replies.flushes");
    let mut reader = BufReader::new(read_half);
    let mut writer = BufWriter::new(stream);
    let mut session = Session::new(state);
    if let Ok(probe) = probe_half {
        // long evaluations poll this: a client that hung up mid-query
        // gets its work cancelled instead of running to completion
        let gate = PeekGate::new(scope.counter("probe.peeks"));
        session.set_cancel_probe(move || {
            gate.consult(Instant::now, || connection_gone(&probe))
        });
    }
    let mut buf = Vec::new();
    while !session.finished() {
        // another complete request already in the read buffer?
        let pipelined = reader.buffer().contains(&b'\n');
        if flush_replies(&mut writer, pipelined, &flushes).is_err() {
            break;
        }
        let action = match read_line(&mut reader, &mut buf, stop) {
            Line::Closed => break,
            Line::Oversized => session.handle_oversized(),
            Line::Complete => {
                while matches!(buf.last(), Some(b'\n') | Some(b'\r')) {
                    buf.pop();
                }
                session.handle_action(&buf)
            }
        };
        let wrote = match action {
            Some(Action::Reply(reply)) => reply.write_to(&mut writer).is_ok(),
            // streamed ANSWERS: rows go out in bounded chunks as the
            // stream is pulled (the replies held before it first); a slow
            // client backpressures here
            Some(Action::Stream(flow)) => session.drain_flow(*flow, &mut writer).is_ok(),
            None => true,
        };
        if !wrote {
            break;
        }
    }
    // QUIT, EOF or stop: what is held goes out, whatever is still unread
    let _ = flush_replies(&mut writer, false, &flushes);
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::cell::Cell;
    use std::io::Cursor;

    const US: Duration = Duration::from_micros(1);

    fn fresh_gate() -> PeekGate {
        PeekGate::new(Arc::new(Counter::new()))
    }

    /// Consult `gate` at `at` past its base, with a clock that reads `at`
    /// and then, once a peek has run, `at + cost`; the peek sees EOF iff
    /// `eof`. Returns whether it peeked, and the answer.
    fn consult_at(
        gate: &PeekGate,
        at: Duration,
        cost: Duration,
        eof: bool,
    ) -> (bool, bool) {
        let reads = Cell::new(0);
        let clock = || {
            reads.set(reads.get() + 1);
            gate.base + at + cost * (reads.get() - 1)
        };
        let peeked = Cell::new(false);
        let gone = gate.consult(clock, || {
            peeked.set(true);
            eof
        });
        (peeked.get(), gone)
    }

    #[test]
    fn the_first_consultation_peeks() {
        let gate = fresh_gate();
        assert_eq!(consult_at(&gate, Duration::ZERO, US, false), (true, false));
        let gate = fresh_gate();
        assert_eq!(consult_at(&gate, 5 * US, US, false), (true, false));
    }

    #[test]
    fn a_peek_waits_a_hundred_times_its_cost_after_the_last() {
        let gate = fresh_gate();
        let cost = Duration::from_nanos(600);
        let at = Duration::from_secs(1);
        assert_eq!(consult_at(&gate, at, cost, false), (true, false));
        let ended = at + cost;
        for gap in [Duration::ZERO, US, 59 * US, 60 * US - Duration::from_nanos(1)] {
            // answered "alive" from the last peek, even if the client left
            assert_eq!(
                consult_at(&gate, ended + gap, cost, true),
                (false, false),
                "{gap:?}"
            );
        }
        // a slower peek: the next gap is measured from its end, at its cost
        assert_eq!(consult_at(&gate, ended + 60 * US, 2 * cost, false), (true, false));
        let ended = ended + 60 * US + 2 * cost;
        let just_before = 120 * US - Duration::from_nanos(1);
        assert_eq!(consult_at(&gate, ended + just_before, cost, false), (false, false));
        assert_eq!(consult_at(&gate, ended + 120 * US, cost, false), (true, false));
        assert_eq!(gate.peeks.get(), 3, "a gated consultation is not a peek");
    }

    #[test]
    fn a_slow_peek_defers_the_next_by_one_read_tick_at_most() {
        let gate = fresh_gate();
        let cost = Duration::from_millis(10);
        assert_eq!(consult_at(&gate, Duration::ZERO, cost, false), (true, false));
        let tick = cost + READ_TICK;
        let just_before = tick - Duration::from_nanos(1);
        assert_eq!(consult_at(&gate, just_before, cost, false), (false, false));
        assert_eq!(consult_at(&gate, tick, cost, false), (true, false));
    }

    #[test]
    fn a_peek_that_sees_eof_answers_gone_on_that_call() {
        let gate = fresh_gate();
        assert_eq!(consult_at(&gate, Duration::ZERO, US, false), (true, false));
        assert_eq!(consult_at(&gate, 101 * US, US, true), (true, true));
        // ... and the consultations it gates repeat it
        assert_eq!(consult_at(&gate, 102 * US, US, false), (false, true));
    }

    /// `read_line` over an in-memory byte run, through a small
    /// `BufReader` so long lines arrive in pieces as they do off a
    /// socket. Returns each line's verdict and the buffer's length and
    /// capacity right after it.
    fn lines_of(bytes: Vec<u8>) -> Vec<(Line, usize, usize)> {
        let mut reader = BufReader::with_capacity(4096, Cursor::new(bytes));
        let (mut buf, stop) = (Vec::new(), AtomicBool::new(false));
        let mut seen = Vec::new();
        loop {
            let line = read_line(&mut reader, &mut buf, &stop);
            let closed = line == Line::Closed;
            seen.push((line, buf.len(), buf.capacity()));
            if closed {
                return seen;
            }
        }
    }

    #[test]
    fn an_over_long_line_is_dropped_unbuffered_and_the_next_line_is_served() {
        let mut bytes = vec![b'x'; 4 * MAX_REQUEST_LINE_BYTES];
        bytes.extend_from_slice(b"\nPING\r\npartial");
        let seen = lines_of(bytes);
        assert_eq!(seen[0], (Line::Oversized, 0, 0), "nothing kept, buffer released");
        assert_eq!((&seen[1].0, seen[1].1), (&Line::Complete, "PING\r\n".len()));
        assert_eq!((&seen[2].0, seen[2].1), (&Line::Complete, "partial".len()));
        assert_eq!(seen[3].0, Line::Closed);
        assert_eq!(seen.len(), 4);
    }

    #[test]
    fn the_cap_counts_the_terminator_and_admits_a_line_exactly_at_it() {
        let mut at_cap = vec![b'x'; MAX_REQUEST_LINE_BYTES - 1];
        at_cap.push(b'\n');
        let mut over = vec![b'x'; MAX_REQUEST_LINE_BYTES];
        over.push(b'\n');
        assert_eq!(lines_of(at_cap)[0].0, Line::Complete);
        assert_eq!(lines_of(over)[0].0, Line::Oversized);
        // an over-long line that EOF cuts short is still refused
        assert_eq!(
            lines_of(vec![b'x'; MAX_REQUEST_LINE_BYTES + 1])[0].0,
            Line::Oversized
        );
    }

    /// A raw client of `server` whose reads give up after 10 s, so a
    /// reply held back fails the test instead of hanging it.
    fn client(server: &Server) -> (TcpStream, BufReader<TcpStream>) {
        let stream = TcpStream::connect(server.local_addr()).unwrap();
        stream.set_read_timeout(Some(Duration::from_secs(10))).unwrap();
        let replies = BufReader::new(stream.try_clone().unwrap());
        (stream, replies)
    }

    /// A fresh server and a raw [`client`] of it.
    fn wire() -> (Server, TcpStream, BufReader<TcpStream>) {
        let server = Server::bind("127.0.0.1:0", 1).expect("bind ephemeral");
        let (stream, replies) = client(&server);
        (server, stream, replies)
    }

    /// The next reply line; `""` at EOF.
    fn reply(replies: &mut BufReader<TcpStream>) -> String {
        let mut line = String::new();
        replies.read_line(&mut line).expect("a reply line before the read timeout");
        line
    }

    fn flushes(server: &Server) -> u64 {
        server.state().metrics().server_scope().counter("replies.flushes").get()
    }

    #[test]
    fn a_lone_request_is_answered_with_nothing_sent_after_it() {
        let (server, mut stream, mut replies) = wire();
        for _ in 0..3 {
            stream.write_all(b"PING\n").unwrap();
            assert_eq!(reply(&mut replies), "OK pong\n");
        }
        assert_eq!(flushes(&server), 3, "one write per reply when nothing queues");
        drop(stream);
        server.shutdown();
    }

    #[test]
    fn a_pipelined_burst_comes_back_whole_in_order_in_fewer_writes() {
        let (server, mut stream, mut replies) = wire();
        let burst: String = (0..64).map(|i| format!("USE n{i}\n")).collect();
        stream.write_all(burst.as_bytes()).unwrap();
        for i in 0..64 {
            let want = format!("ERR no-such-db: no database named `n{i}`\n");
            assert_eq!(reply(&mut replies), want);
        }
        let n = flushes(&server);
        assert!((1..64).contains(&n), "64 replies took {n} writes");
        drop(stream);
        server.shutdown();
    }

    #[test]
    fn a_burst_ending_in_quit_or_a_half_close_delivers_every_reply() {
        // QUIT ends the session with a request still unread: what is
        // held goes out anyway
        let (server, mut stream, mut replies) = wire();
        stream.write_all(b"PING\nPING\nQUIT\nPING\n").unwrap();
        for want in ["OK pong\n", "OK pong\n", "OK bye\n", ""] {
            assert_eq!(reply(&mut replies), want);
        }
        server.shutdown();
        // the client stops writing: EOF after the burst
        let (server, mut stream, mut replies) = wire();
        stream.write_all(b"PING\nUSE nope\nPING\n").unwrap();
        stream.shutdown(std::net::Shutdown::Write).unwrap();
        assert_eq!(reply(&mut replies), "OK pong\n");
        assert!(reply(&mut replies).starts_with("ERR no-such-db"));
        for want in ["OK pong\n", ""] {
            assert_eq!(reply(&mut replies), want);
        }
        server.shutdown();
    }

    #[test]
    fn a_trailing_partial_line_does_not_hold_the_replies_before_it() {
        let (server, mut stream, mut replies) = wire();
        stream.write_all(b"PING\nPING\nPI").unwrap();
        assert_eq!(reply(&mut replies), "OK pong\n");
        assert_eq!(reply(&mut replies), "OK pong\n");
        stream.write_all(b"NG\n").unwrap();
        assert_eq!(reply(&mut replies), "OK pong\n");
        drop(stream);
        server.shutdown();
    }

    #[test]
    fn shutdown_joins_every_session_and_so_releases_the_state() {
        let server = Server::bind("127.0.0.1:0", 1).expect("bind ephemeral");
        let state = server.state();
        let mut clients: Vec<_> = (0..3).map(|_| client(&server)).collect();
        for (stream, replies) in &mut clients {
            stream.write_all(b"PING\n").unwrap();
            assert_eq!(reply(replies), "OK pong\n");
        }
        let (stream, replies) = &mut clients[0];
        stream.write_all(b"QUIT\n").unwrap();
        assert_eq!(reply(replies), "OK bye\n");
        // the other two stay connected and silent
        server.shutdown();
        assert_eq!(Arc::strong_count(&state), 1, "a session outlived shutdown");
    }

    #[test]
    fn a_session_that_panics_still_gives_its_slot_back() {
        let open = Arc::new(Gauge::new());
        let slot = Slot::claim(&open, 1).expect("a free slot");
        assert!(Slot::claim(&open, 1).is_none(), "the cap is one slot");
        let session = spawn_session(slot, || panic!("a session panics")).unwrap();
        assert!(session.join().is_err());
        assert_eq!(open.get(), 0);
        assert!(Slot::claim(&open, 1).is_some(), "the slot is free again");
    }
}
