//! The server: a per-connection [`Session`] command interpreter and the
//! [`Server`] runtime around it — one thread per live session — one file
//! per concern:
//!
//! * `conn` — the runtime: the acceptor, which admits each connection
//!   to a thread of its own under one cap and sheds the rest, and the
//!   per-connection read loop with its bounded
//!   request line ([`MAX_REQUEST_LINE_BYTES`]) and its one reply flush,
//!   held while pipelined requests are already buffered.
//! * `session` — the [`Session`] state machine (idle / inside `LOAD` /
//!   inside `BATCH`) and the **verb table**: one row per verb naming
//!   its metric slug, the tenant it addresses and whether it writes,
//!   dispatched through the one gate that resolves the tenant and
//!   refuses writes on a replica or a degraded tenant — and the one end
//!   of every request, where its error and its trace are booked.
//! * `query` — everything that evaluates: `DECIDE`/`COUNT`/`ANSWERS`,
//!   `EXPLAIN [ANALYZE]`, cursors, `BATCH`, the streaming pump, and the
//!   one verdict that attributes a cancelled evaluation to the tenant's
//!   deadline or to a vanished client.
//! * `stmt` — the session's statement memo: each query text's parse, its
//!   structure, and its plans while the statistics they were made
//!   against are current.
//! * `mutate` — the write verbs: `INSERT`/`LOAD`/`DROP` applied through
//!   `WalRecord::apply` (the function recovery and the replica replay
//!   with), tenant lifecycle, limits, checkpoints, `RESUME`, `SHIP`.
//! * `admin` — `STATS`, `METRICS [RATE]`, `PROFILE`.
//!
//! Threading model: one acceptor thread gives each admitted connection a
//! thread of its own, which serves it line by line; at most `9 × workers`
//! sessions live at once (the `connections.open` gauge), the next is shed
//! with `ERR busy`, and `Server::shutdown` joins every session's thread.
//! Evaluation inside a session plans through its statement memo and
//! executes against the tenant's pinned
//! [`IndexCatalog`](cq_data::IndexCatalog): a repeated text on an
//! unchanged tenant skips parsing and planning, a repeated text after a
//! write skips the structure pass (the witness search above all), and a
//! repeated query skips every index build. No lock is shared between
//! sessions for planning. A `BATCH` block runs its items the same way,
//! one after another on the session's thread, under one tenant read
//! lock.
//!
//! Answers leave as bytes. A streamed `ANSWERS` is drained by one pump
//! (behind [`Session::drain_flow`]) that renders each row in place into
//! a single reused buffer and writes it out in chunks whose byte budget
//! ramps from [`STREAM_FIRST_CHUNK_BYTES`] (the first row must not wait
//! for a big chunk) to [`STREAM_MAX_CHUNK_BYTES`] (a long drain must
//! not pay a syscall and a client wake-up every few KB): no allocation
//! per row, one chunk of answer memory per connection. A `FETCH` page
//! is the other bounded unit, capped at [`MAX_FETCH_ROWS`].
//!
//! Sessions never panic the connection: command dispatch is wrapped in
//! `catch_unwind`, and a panicking handler yields `ERR internal` with
//! the session reset to idle.

mod admin;
mod conn;
mod mutate;
mod query;
mod session;
mod stmt;

pub use conn::{Server, MAX_REQUEST_LINE_BYTES};
pub use mutate::SHIP_MAX_BYTES;
pub use query::{
    AnswerFlow, MAX_CURSORS_PER_SESSION, MAX_FETCH_ROWS, STREAM_FIRST_CHUNK_BYTES,
    STREAM_MAX_CHUNK_BYTES,
};
pub use session::{Action, Session};

#[cfg(test)]
pub(crate) mod testkit {
    //! Fixtures shared by the concern files' unit tests.
    use super::Session;
    use crate::protocol::Reply;
    use crate::state::ServerState;
    use std::sync::Arc;

    pub fn session() -> Session {
        Session::new(Arc::new(ServerState::new()))
    }

    /// Drive a full scripted session, returning each line's reply.
    pub fn drive(s: &mut Session, lines: &[&str]) -> Vec<Option<Reply>> {
        lines.iter().map(|l| s.handle_line(l)).collect()
    }

    /// Create and `USE` `db`, holding the one triangle `R1 ⋈ R2 ⋈ R3`.
    pub fn load_triangle(s: &mut Session, db: &str) {
        s.handle_line(&format!("CREATE DB {db}"));
        s.handle_line(&format!("USE {db}"));
        drive(
            s,
            &[
                "LOAD R1 2",
                "1 2",
                "END", //
                "LOAD R2 2",
                "2 3",
                "END", //
                "LOAD R3 2",
                "3 1",
                "END",
            ],
        );
    }

    /// Load the triangle and warm the catalog with one COUNT.
    pub fn warm_triangle(s: &mut Session) {
        drive(
            s,
            &[
                "CREATE DB t",
                "USE t",
                "INSERT R(1, 2)",
                "INSERT R(2, 3)",
                "INSERT S(2, 3)",
                "INSERT S(3, 1)",
                "INSERT T(3, 1)",
                "INSERT T(1, 2)",
                "COUNT q(x, y, z) :- R(x, y), S(y, z), T(z, x)",
            ],
        );
    }
}
