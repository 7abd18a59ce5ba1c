//! # cq-server — the multi-tenant wire front end
//!
//! Serving is where the paper's dichotomies pay off operationally: many
//! clients issuing repeated-shape queries against warm per-database
//! state. This crate puts the whole pipeline — `cq_core::parser` →
//! `cq-planner` (through each session's statement memo) → `cq-engine` over a
//! pinned per-tenant [`IndexCatalog`](cq_data::IndexCatalog) — behind a
//! line-based text protocol on a plain [`std::net::TcpListener`], one
//! `std::thread` per live session. No async runtime, no dependencies.
//!
//! * [`protocol`] — the request grammar and framed replies (`* ` data
//!   lines, one `OK`/`ERR` terminal per command; errors are structured,
//!   never connection-fatal).
//! * [`state`] — tenancy: one [`Database`](cq_data::Database) plus one
//!   pinned catalog per named tenant, under per-tenant read/write
//!   locks; optionally durable through `cq-storage` (each tenant then
//!   also carries its open write-ahead log, and
//!   [`ServerState::recover`](state::ServerState::recover) reloads
//!   every tenant on boot).
//! * [`server`] — the per-connection [`Session`] interpreter and the
//!   [`Server`] runtime — an acceptor that admits each connection to a
//!   thread of its own under one cap, and a shutdown that joins them all
//!   — one file per concern: the runtime and its bounded request line; the
//!   session state machine with the **verb table** (one row per verb —
//!   metric slug, tenant addressing, read-or-write, handler — behind
//!   one gate that resolves the tenant and refuses writes on a replica
//!   or a degraded tenant); the evaluating verbs with the one verdict
//!   on a cancelled evaluation (deadline vs. disconnect); the writing
//!   verbs, which apply `INSERT`/`LOAD`/`DROP` through the same
//!   `WalRecord::apply` that recovery and the replica replay with; and
//!   the observing verbs.
//! * [`metrics`] — engine-wide observability: the `cq-obs` registry
//!   (per-tenant and server scopes), the slow-query log, and the
//!   `METRICS` rendering pipeline that also pulls catalog and WAL
//!   counters into gauges.
//! * [`client`] — a blocking [`Client`] used by `cqsh` and the
//!   end-to-end tests.
//!
//! Lifecycle commands: `DROP <rel>` and `DROP DB <name>` delete a
//! relation / a tenant (in-memory and persistent modes alike), `SAVE`
//! checkpoints the current tenant into a snapshot (persistent mode),
//! and `STATS <name>` reports a tenant's schema, generation, and
//! storage status.
//!
//! Robustness commands: `SET TIMEOUT <db> <ms>|NONE` sets a per-tenant
//! query deadline enforced *cooperatively* inside the engine's inner
//! loops (a tripped deadline is a structured `ERR timeout` citing the
//! plan's cost exponent and the lower-bound hypothesis that makes the
//! cost unavoidable — the connection keeps serving), and `RESUME <db>`
//! repairs a tenant that degraded to read-only after an unrecoverable
//! write-ahead-log failure (reads keep serving throughout; see
//! `DESIGN.md`'s failure model). Both limits are logged, so they
//! survive a restart.
//!
//! ## Quickstart
//!
//! Boot a server and drive it in-process (the binaries `cqd` and `cqsh`
//! wrap exactly this):
//!
//! ```
//! use cq_server::{client::Client, server::Server};
//!
//! let server = Server::bind("127.0.0.1:0", 2).unwrap();
//! let mut c = Client::connect(server.local_addr()).unwrap();
//! c.create_db("demo").unwrap();
//! c.use_db("demo").unwrap();
//! c.load("R", 2, ["1 10", "2 10"]).unwrap();
//! c.load("S", 2, ["10 7"]).unwrap();
//! let r = c.request("COUNT q(x, z) :- R(x, y), S(y, z)").unwrap();
//! assert_eq!(r.terminal, "OK 2");
//! let r = c.request("ANSWERS q(x, z) :- R(x, y), S(y, z)").unwrap();
//! assert_eq!(r.data, vec!["1 7", "2 7"]);
//!
//! // a per-tenant deadline: a zero timeout is already past when
//! // evaluation starts, so the trip is deterministic — and structured
//! c.set_timeout("demo", Some(0)).unwrap();
//! let r = c.request("COUNT q(x, z) :- R(x, y), S(y, z)").unwrap();
//! assert_eq!(r.err_kind(), Some(cq_server::ErrKind::Timeout));
//! assert!(r.terminal.contains("plan cost m^"));
//! c.set_timeout("demo", None).unwrap();
//! let r = c.request("COUNT q(x, z) :- R(x, y), S(y, z)").unwrap();
//! assert_eq!(r.terminal, "OK 2");
//! c.quit().unwrap();
//! server.shutdown();
//! ```
//!
//! ## Primary + replica
//!
//! A durable server can be followed by any number of read-only
//! replicas: each replica pulls epoch-stamped snapshots and WAL
//! segments over the `SHIP` verb and serves `ANSWERS` against warm
//! local catalogs, while mutations answer `ERR read-only` naming the
//! primary (`cqd --replica-of <addr>` wraps exactly this):
//!
//! ```
//! use cq_server::{client::Client, server::Server, state::ServerState};
//! use std::sync::Arc;
//! use std::time::Duration;
//!
//! // a durable primary over a scratch directory
//! let dir = std::env::temp_dir().join(format!("cq_quickstart_{}", std::process::id()));
//! let store = cq_storage::Store::open_dir(&dir).unwrap();
//! let (state, _report) = ServerState::recover(store).unwrap();
//! let primary = Server::bind_with_state("127.0.0.1:0", 2, Arc::new(state)).unwrap();
//! let mut p = Client::connect(primary.local_addr()).unwrap();
//! p.create_db("demo").unwrap();
//! p.use_db("demo").unwrap();
//! p.load("R", 2, ["1 10", "2 10"]).unwrap();
//!
//! // an in-memory replica pulling from the primary
//! let replica_state = Arc::new(ServerState::new());
//! let puller = cq_server::replica::start(
//!     Arc::clone(&replica_state),
//!     primary.local_addr().to_string(),
//!     Duration::from_millis(20),
//! );
//! let replica = Server::bind_with_state("127.0.0.1:0", 2, replica_state).unwrap();
//! let mut r = Client::connect(replica.local_addr()).unwrap();
//!
//! // wait for catch-up, then reads serve and writes refuse
//! let deadline = std::time::Instant::now() + Duration::from_secs(10);
//! let q = "ANSWERS q(x, y) :- R(x, y)";
//! let want = p.request(q).unwrap().data;
//! loop {
//!     if r.use_db("demo").unwrap().is_ok() {
//!         let got = r.request(q).unwrap();
//!         if got.is_ok() && got.data == want {
//!             break; // byte-identical answers
//!         }
//!     }
//!     assert!(std::time::Instant::now() < deadline, "replica never caught up");
//!     std::thread::sleep(Duration::from_millis(20));
//! }
//! let refused = r.request("INSERT R(9, 9)").unwrap();
//! assert_eq!(refused.err_kind(), Some(cq_server::ErrKind::ReadOnly));
//!
//! puller.stop();
//! replica.shutdown();
//! primary.shutdown();
//! std::fs::remove_dir_all(&dir).unwrap();
//! ```
//!
//! Over the wire, the same session is a plain text conversation — see
//! the [`protocol`] docs for the grammar and `DESIGN.md` for the
//! threading and tenancy model.

pub mod client;
pub mod metrics;
pub mod protocol;
pub mod replica;
pub mod server;
pub mod state;

pub use client::Client;
pub use metrics::{ServerMetrics, TenantMetrics};
pub use protocol::{Command, ErrKind, Reply};
pub use replica::ReplicaHandle;
pub use server::{Server, Session};
pub use state::{Budget, ServerState, Tenant};
