//! # cq-storage — durable tenant persistence
//!
//! Everything upstream of this crate is volatile: `cq-server` keeps
//! one in-memory [`Database`](cq_data::Database) per tenant, and a
//! restart loses every relation and forces a cold re-ingest. This
//! crate makes a tenant's data survive the process, std-only like the
//! rest of the tree:
//!
//! * [`snapshot`] — a versioned, checksummed binary image of a whole
//!   database (schema + sorted rows), written atomically via temp-file
//!   + rename, byte-deterministic per content;
//! * [`wal`] — a per-tenant append-only write-ahead log of wire
//!   mutations (`INSERT` / `LOAD` / relation drop), each record framed
//!   and CRC-checked, replayed on open with torn-tail self-repair;
//! * [`store`] — the [`Store`] over a data directory:
//!   [`open_dir`](Store::open_dir), [`load_tenant`](Store::load_tenant),
//!   [`create_tenant`](Store::create_tenant),
//!   [`checkpoint`](Store::checkpoint) (snapshot + WAL truncation),
//!   [`drop_tenant`](Store::drop_tenant);
//! * [`group`] — group commit: a [`GroupGate`] coalesces concurrent
//!   committers' fsyncs into one leader-driven flush, releasing each
//!   ack only after a sync covering its append has landed;
//! * [`fault`] — deterministic failure injection: a [`FaultPlan`]
//!   threaded through the writers above fails named I/O points on
//!   chosen occurrences, so every storage error path is drivable from
//!   tests (`Store::open_dir` never arms one by itself).
//!
//! What is deliberately **not** durable: index catalogs, statistics,
//! and each session's statement memo (its parsed queries and plans).
//! Those are memos over the data, rebuilt warm on demand after recovery
//! — persisting them would only add another consistency problem.
//!
//! ## Quickstart
//!
//! ```
//! use cq_data::{Database, Relation};
//! use cq_storage::{Store, WalRecord};
//!
//! let dir = std::env::temp_dir().join(format!("cq_storage_doc_{}", std::process::id()));
//! # let _ = std::fs::remove_dir_all(&dir);
//! let store = Store::open_dir(&dir).unwrap();
//!
//! // mutations append to the tenant's write-ahead log...
//! let mut wal = store.create_tenant("demo").unwrap();
//! wal.append(&WalRecord::Insert { relation: "R".into(), row: vec![1, 2] }).unwrap();
//! drop(wal);
//!
//! // ...and a reopened store replays them
//! let (db, mut wal, recovery) = store.load_tenant("demo").unwrap();
//! assert_eq!(db.get("R").unwrap(), &Relation::from_pairs(vec![(1, 2)]));
//! assert_eq!(recovery.wal_records, 1);
//!
//! // a checkpoint folds the log into an atomic snapshot
//! store.checkpoint("demo", &db, &mut wal).unwrap();
//! assert!(wal.is_empty());
//! # drop(wal);
//! # std::fs::remove_dir_all(&dir).unwrap();
//! ```

pub mod fault;
pub mod format;
pub mod group;
pub mod snapshot;
pub mod store;
pub mod wal;

pub use fault::{FaultPlan, FaultPoint};
pub use group::GroupGate;
pub use store::{Recovery, Store, StoreError};
pub use wal::{
    decode_frames, Applied, ArityConflict, TenantLimits, WalRecord, WalStats, WalWriter,
};
