//! The replica side of snapshot + WAL shipping.
//!
//! A replica is an ordinary in-memory [`ServerState`] marked with
//! [`ServerState::set_replica_of`], kept warm by a background puller
//! thread that speaks the `SHIP` verb to the primary:
//!
//! 1. a bare `SHIP` lists the primary's tenants and shippable
//!    positions — the replica creates tenants it is missing and drops
//!    ones the primary no longer has;
//! 2. per tenant, repeated `SHIP <db> <epoch> <offset>` requests pull
//!    the next segment past the replica's applied position. A `wal`
//!    segment's records are decoded ([`decode_frames`] tolerates a
//!    frame split across segments) and applied through
//!    [`WalRecord::apply`] — the same code recovery uses — so the
//!    replica's databases and pinned catalogs stay warm; a `snapshot`
//!    segment replaces the tenant's database wholesale and restarts
//!    the position at the snapshot's epoch.
//!
//! The pull loop is the backpressure story: the primary never pushes,
//! it answers bounded requests (at most
//! [`SHIP_MAX_BYTES`](crate::server::SHIP_MAX_BYTES) of WAL per
//! reply), so a slow replica simply asks less often — exactly how a
//! slow `FETCH` client pages a cursor.
//!
//! Divergence heals itself. If the primary restarts and its log is
//! shorter than the replica's applied offset (an unsynced tail died
//! with the process), or a checkpoint bumped the epoch, the primary's
//! reply falls back to snapshot mode and the replica re-bases on the
//! image. Corrupt shipped bytes force the same full resync rather
//! than guessing.
//!
//! Per-tenant gauges `replica.lag_bytes` and `replica.epoch` (under
//! the tenant's metrics scope) report how far behind the replica is;
//! `STATS` on a replica names its primary.

use crate::client::Client;
use crate::protocol::hex_decode;
use crate::state::{ServerState, StateError, Tenant};
use cq_data::Database;
use cq_storage::{decode_frames, snapshot, TenantLimits, WalRecord};
use std::collections::HashMap;
use std::io;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// How long the puller waits between rounds once it is caught up (and
/// after a connection failure before retrying).
pub const DEFAULT_POLL: Duration = Duration::from_millis(200);

/// An epoch no live WAL can be at, used as the initial position so the
/// first `SHIP` for a tenant mismatches and ships the base snapshot.
const UNSYNCED: u64 = u64::MAX;

/// The replica's applied position in one tenant's history.
struct Position {
    /// Epoch of the primary WAL we are applying from.
    epoch: u64,
    /// Bytes of that WAL fetched so far (the next `SHIP` offset).
    offset: u64,
    /// Fetched bytes not yet consumed — a WAL frame can arrive split
    /// across two segments.
    pending: Vec<u8>,
}

impl Position {
    fn fresh() -> Position {
        Position { epoch: UNSYNCED, offset: 0, pending: Vec::new() }
    }
}

/// A running replica puller. Dropping the handle signals the thread to
/// stop; [`ReplicaHandle::stop`] also joins it.
pub struct ReplicaHandle {
    stop: Arc<AtomicBool>,
    thread: Option<JoinHandle<()>>,
}

impl ReplicaHandle {
    /// Signal the puller to stop and wait for it to exit.
    pub fn stop(mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

impl Drop for ReplicaHandle {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
    }
}

/// Mark `state` as a replica of `primary` and start the puller thread.
/// `poll` is the idle delay between rounds ([`DEFAULT_POLL`] is a
/// sensible default).
pub fn start(state: Arc<ServerState>, primary: String, poll: Duration) -> ReplicaHandle {
    state.set_replica_of(&primary);
    let stop = Arc::new(AtomicBool::new(false));
    let flag = Arc::clone(&stop);
    let thread = std::thread::Builder::new()
        .name("cq-replica".into())
        .spawn(move || run(&state, &primary, poll, &flag))
        .expect("spawn replica puller thread");
    ReplicaHandle { stop, thread: Some(thread) }
}

fn run(state: &ServerState, primary: &str, poll: Duration, stop: &AtomicBool) {
    let mut positions: HashMap<String, Position> = HashMap::new();
    let mut conn: Option<Client> = None;
    while !stop.load(Ordering::SeqCst) {
        if conn.is_none() {
            conn = Client::connect_with_retry(primary, Duration::from_secs(1)).ok();
            if conn.is_none() {
                sleep_unless_stopped(poll, stop);
                continue;
            }
        }
        let c = conn.as_mut().expect("connection just established");
        match pull_round(state, c, &mut positions, stop) {
            // caught up (or the primary refused, e.g. mid-restart):
            // idle before polling again
            Ok(false) => sleep_unless_stopped(poll, stop),
            // made progress: go straight into the next round
            Ok(true) => {}
            Err(_) => {
                // connection-level failure: reconnect after a pause
                conn = None;
                sleep_unless_stopped(poll, stop);
            }
        }
    }
}

/// Sleep in small slices so a stop request is honoured promptly.
fn sleep_unless_stopped(total: Duration, stop: &AtomicBool) {
    let slice = Duration::from_millis(20);
    let mut left = total;
    while !left.is_zero() && !stop.load(Ordering::SeqCst) {
        let step = left.min(slice);
        std::thread::sleep(step);
        left = left.saturating_sub(step);
    }
}

/// One sync round: reconcile the tenant set, then pull every tenant to
/// its listed position. Returns whether any segment was applied.
/// `Err` means the connection itself failed (caller reconnects);
/// protocol-level refusals just end the round.
fn pull_round(
    state: &ServerState,
    c: &mut Client,
    positions: &mut HashMap<String, Position>,
    stop: &AtomicBool,
) -> io::Result<bool> {
    let listing = c.request("SHIP")?;
    if !listing.is_ok() {
        return Ok(false);
    }
    let mut primary_tenants: Vec<String> = Vec::new();
    for line in &listing.data {
        if let Some(name) = line.split_whitespace().next() {
            primary_tenants.push(name.to_string());
        }
    }

    // tenant-set reconciliation: create what the primary has and we
    // don't, drop what it no longer has
    for name in &primary_tenants {
        match state.create_db(name) {
            Ok(_) | Err(StateError::Exists) => {}
            Err(_) => return Ok(false),
        }
    }
    for tenant in state.tenants() {
        let name = tenant.name().to_string();
        if !primary_tenants.iter().any(|n| n == &name) {
            let _ = state.drop_db(&name);
            positions.remove(&name);
        }
    }

    let mut progressed = false;
    for name in &primary_tenants {
        let Ok(tenant) = state.tenant(name) else { continue };
        let pos = positions.entry(name.clone()).or_insert_with(Position::fresh);
        progressed |= pull_tenant(c, name, &tenant, pos, stop)?;
    }
    Ok(progressed)
}

/// Pull one tenant until it is caught up with the primary (or the
/// primary refuses / we are told to stop). Returns whether anything
/// was applied.
fn pull_tenant(
    c: &mut Client,
    name: &str,
    tenant: &Tenant,
    pos: &mut Position,
    stop: &AtomicBool,
) -> io::Result<bool> {
    let mut progressed = false;
    while !stop.load(Ordering::SeqCst) {
        let reply = c.request(&format!("SHIP {name} {} {}", pos.epoch, pos.offset))?;
        if !reply.is_ok() {
            // dropped mid-round, injected ship fault, … — next round
            // re-lists and retries
            break;
        }
        let Some(header) = reply.data.first() else { break };
        let fields: Vec<&str> = header.split_whitespace().collect();
        match fields.as_slice() {
            ["wal", epoch, offset, total] => {
                let (Ok(epoch), Ok(offset), Ok(total)) =
                    (epoch.parse::<u64>(), offset.parse::<u64>(), total.parse::<u64>())
                else {
                    break;
                };
                // the primary echoes the position it served from; a
                // mismatch means our request raced a checkpoint —
                // restart from scratch
                if epoch != pos.epoch || offset != pos.offset {
                    *pos = Position::fresh();
                    continue;
                }
                let bytes = match decode_hex_lines(&reply.data[1..]) {
                    Ok(b) => b,
                    Err(_) => {
                        *pos = Position::fresh();
                        continue;
                    }
                };
                if bytes.is_empty() {
                    publish_lag(tenant, pos, total);
                    break; // caught up
                }
                pos.pending.extend_from_slice(&bytes);
                pos.offset += bytes.len() as u64;
                match decode_frames(&pos.pending) {
                    Ok((records, consumed)) => {
                        if apply_records(tenant, &records).is_err() {
                            *pos = Position::fresh();
                            continue;
                        }
                        pos.pending.drain(..consumed);
                        progressed = true;
                    }
                    Err(_) => {
                        // shipped bytes fail their checksum: force a
                        // full snapshot resync rather than guessing
                        *pos = Position::fresh();
                        continue;
                    }
                }
                publish_lag(tenant, pos, total);
                if pos.offset >= total {
                    break;
                }
            }
            ["snapshot", epoch, _len] => {
                let Ok(epoch) = epoch.parse::<u64>() else { break };
                let bytes = match decode_hex_lines(&reply.data[1..]) {
                    Ok(b) => b,
                    Err(_) => break,
                };
                if bytes.is_empty() {
                    // primary tenant has no snapshot yet: base is the
                    // empty database
                    tenant.mutate(|db| *db = Database::new());
                } else {
                    let Ok((db, _epoch)) =
                        snapshot::from_bytes(&bytes, Path::new("<shipped>"))
                    else {
                        break;
                    };
                    tenant.mutate(|d| *d = db);
                }
                // limits ride the WAL (re-appended after checkpoints),
                // not the snapshot: reset and let records restore them
                tenant.apply_limits(TenantLimits::default());
                *pos = Position { epoch, offset: 0, pending: Vec::new() };
                progressed = true;
                publish_lag(tenant, pos, pos.offset);
            }
            _ => break,
        }
    }
    Ok(progressed)
}

/// Decode the hex payload lines of a `SHIP` reply into one byte run.
fn decode_hex_lines(lines: &[String]) -> Result<Vec<u8>, String> {
    let mut bytes = Vec::new();
    for line in lines {
        bytes.extend_from_slice(&hex_decode(line)?);
    }
    Ok(bytes)
}

/// Apply a decoded batch under one exclusive pass. `SetLimits` is a
/// database no-op — route it to the tenant's limit atomics instead,
/// preserving record order (limits are last-writer-wins). An apply
/// error means the shipped history does not describe this database;
/// the caller re-bases on a fresh snapshot.
fn apply_records(tenant: &Tenant, records: &[WalRecord]) -> Result<(), String> {
    tenant.mutate(|db| {
        for record in records {
            if let WalRecord::SetLimits(l) = record {
                tenant.apply_limits(*l);
            } else {
                record.apply(db).map_err(|conflict| conflict.to_string())?;
            }
        }
        Ok(())
    })
}

/// Publish the tenant's replication gauges.
fn publish_lag(tenant: &Tenant, pos: &Position, total: u64) {
    let (lag, epoch) = tenant.metrics().replica();
    lag.set(total.saturating_sub(pos.offset));
    epoch.set(pos.epoch);
}
