//! The verbs that write: `INSERT`/`LOAD`/`DROP` (one [`WalRecord`]
//! each, applied through [`WalRecord::apply`] — the function recovery
//! and the replica replay with — and logged iff it changed the
//! database), tenant lifecycle, limits, checkpoints, `RESUME`, and the
//! replication pull surface `SHIP`.

use super::session::{state_error, Handled, Mode, Session};
use crate::protocol::{
    hex_encode, parse_row, BudgetSetting, ErrKind, Reply, END_KEYWORD,
};
use crate::state::{ShipSegment, Tenant};
use cq_data::Relation;
use cq_storage::{Applied, ArityConflict, Store, TenantLimits, WalRecord};
use std::sync::Arc;

/// Cap on raw bytes per `SHIP <db> <epoch> <offset>` WAL reply: the
/// segment transfer is pull-driven (the replica issues a `SHIP` per
/// segment, exactly like `FETCH` pages a cursor), so this bounds both
/// the primary's per-reply memory and how long the tenant read lock is
/// held reading bytes — a slow replica backpressures by pulling slower,
/// never by ballooning the primary.
pub const SHIP_MAX_BYTES: u64 = 1 << 20;

/// Raw bytes per `SHIP` hex data line (wire lines are 2x this).
const SHIP_LINE_BYTES: usize = 2048;

impl Session {
    /// `INSERT` / `LOAD … END` / `DROP <rel>`: apply the mutation's
    /// record, render the reply from what applying it did, and — when
    /// it stood — make it durable and let the log checkpoint itself. A
    /// refusal (arity conflict, missing relation) and a no-op
    /// (duplicate insert, all-duplicate load) leave the database, its
    /// generation, the tenant's warm catalog and the log untouched.
    pub(super) fn mutate(&mut self, tenant: &Tenant, record: WalRecord) -> Handled {
        let window = self.state.write_policy().group_commit;
        let (applied, wal) = tenant.apply_logged(window, &record);
        let reply = mutation_reply(&record, applied)?;
        durable(tenant, wal)?;
        self.auto_checkpoint(tenant);
        Ok(reply)
    }

    /// Checkpoint automatically once the tenant's log crosses
    /// `--auto-save-bytes`. A failure is counted but does not fail the
    /// already-durable mutation (the log is intact; the next mutation
    /// retries the checkpoint).
    fn auto_checkpoint(&self, tenant: &Tenant) {
        let (Some(limit), Some(store)) =
            (self.state.write_policy().auto_save_bytes, self.state.store())
        else {
            return;
        };
        if tenant.wal_position().is_some_and(|(_, len)| len >= limit) {
            let metrics = tenant.metrics();
            match tenant.checkpoint(store) {
                Ok(_) => metrics.auto_checkpoints.inc(),
                Err(_) => metrics.auto_checkpoint_failures.inc(),
            }
        }
    }

    pub(super) fn open_load(
        &mut self,
        tenant: &Tenant,
        relation: String,
        cols: usize,
    ) -> Handled {
        // fail fast on a known conflict; `END` re-checks, since the
        // relation may change arity while the block is open
        match tenant.read(|db, _| db.get(&relation).map(Relation::arity)) {
            Some(arity) if arity != cols => Err(load_conflict(&relation, arity, cols)),
            _ => {
                self.mode =
                    Mode::Loading { relation, cols, rows: Vec::new(), error: None };
                // the block is open; the one reply comes at END
                Ok(Reply::ok("loading; rows until END"))
            }
        }
    }

    /// One line inside a `LOAD` block: a row, or the closing `END`.
    pub(super) fn load_line(&mut self, line: &str) -> Option<Reply> {
        let Mode::Loading { relation, cols, rows, error } = &mut self.mode else {
            unreachable!("caller checked mode")
        };
        if line.eq_ignore_ascii_case(END_KEYWORD) {
            let record = WalRecord::Load {
                relation: std::mem::take(relation),
                arity: *cols,
                rows: std::mem::take(rows),
            };
            let error = error.take();
            self.mode = Mode::Idle;
            let done = match error {
                Some(e) => Err(e),
                None => {
                    self.regate("load").and_then(|tenant| self.mutate(&tenant, record))
                }
            };
            return Some(done.unwrap_or_else(|e| e));
        }
        if error.is_none() {
            let row = rows.len() + 1;
            match parse_row(line) {
                Ok(vals) if vals.len() == *cols => rows.push(vals),
                Ok(vals) => {
                    *error = Some(Reply::err(
                        ErrKind::ArityMismatch,
                        format!("row {row} has {} values, expected {cols}", vals.len()),
                    ));
                }
                Err(bad) => {
                    *error = Some(Reply::err(
                        ErrKind::BadValue,
                        format!("row {row}: `{bad}` is not a u64"),
                    ));
                }
            }
        }
        None
    }

    pub(super) fn create_db(&mut self, name: &str) -> Handled {
        self.state.create_db(name).map_err(|e| state_error(name, e))?;
        Ok(Reply::ok(format!("created {name}")))
    }

    pub(super) fn drop_db(&mut self, name: &str) -> Handled {
        let dropped = self.state.drop_db(name).map_err(|e| state_error(name, e));
        // a session that drops its own current tenant is left with no
        // database selected, not a ghost handle
        if self.current.as_ref().is_some_and(|t| t.name() == name && t.is_dropped()) {
            self.current = None;
        }
        dropped?;
        Ok(Reply::ok(format!("dropped database {name}")))
    }

    /// The server's store, or the `ERR storage` an in-memory server
    /// answers a verb that has `nothing` to do without one.
    fn store(&self, nothing: &str) -> Result<Arc<Store>, Reply> {
        self.state.store().cloned().ok_or_else(|| {
            Reply::err(
                ErrKind::Storage,
                format!("server is in-memory (no --data-dir); {nothing}"),
            )
        })
    }

    /// `SAVE`. (A degraded tenant's repair verb is `RESUME`, not
    /// `SAVE`: being a write, `SAVE` is gated, which keeps the two
    /// paths distinct in transcripts and metrics.)
    pub(super) fn save(&mut self, tenant: &Tenant) -> Handled {
        let store = self.store("SAVE has nothing to write to")?;
        let (rows, bytes) =
            tenant.checkpoint(&store).map_err(|e| Reply::err(ErrKind::Storage, e))?;
        Ok(Reply::ok(format!(
            "checkpointed {}: {rows} rows in a {bytes} byte snapshot, wal truncated",
            tenant.name()
        )))
    }

    /// `RESUME <db>`: repair a degraded tenant and restore read-write.
    /// On a persistent server this checkpoints — the snapshot captures
    /// everything in memory (including mutations whose append failed)
    /// and the WAL rolls to a fresh segment, clearing any poison.
    pub(super) fn resume(&mut self, tenant: &Tenant) -> Handled {
        let db = tenant.name();
        let Some(store) = self.state.store() else {
            // in-memory tenants have no storage to fail, but RESUME is
            // still the recovery verb — make it total
            tenant.clear_degraded();
            return Ok(Reply::ok(format!("{db} is read-write (in-memory server)")));
        };
        let (rows, bytes) = tenant.checkpoint(store).map_err(|e| {
            Reply::err(
                ErrKind::Storage,
                format!("RESUME {db} failed; still read-only: {e}"),
            )
        })?;
        tenant.clear_degraded();
        Ok(Reply::ok(format!(
            "resumed {db}: read-write restored ({rows} rows in a {bytes} byte \
             snapshot, fresh wal segment)"
        )))
    }

    /// `SET BUDGET <db> …`: adjust a tenant's admission-control caps.
    /// The two caps are independent; `NONE` clears both. The new limit
    /// set is logged so it survives a restart.
    pub(super) fn set_budget(
        &mut self,
        tenant: &Tenant,
        setting: BudgetSetting,
    ) -> Handled {
        let what = match setting {
            BudgetSetting::MaxExponent(e) => format!("max-exponent {e:.2}"),
            BudgetSetting::MaxRows(n) => format!("max-rows {n}"),
            BudgetSetting::Clear => "cleared".to_string(),
        };
        let edit = |l: &mut TenantLimits| match setting {
            BudgetSetting::MaxExponent(e) => l.max_exponent_bits = e.to_bits(),
            BudgetSetting::MaxRows(n) => l.max_rows = limit(Some(n)),
            BudgetSetting::Clear => {
                *l = TenantLimits { timeout_ms: l.timeout_ms, ..TenantLimits::default() }
            }
        };
        self.log_limits(tenant, format!("budget for {}: {what}", tenant.name()), edit)
    }

    /// `SET TIMEOUT <db> <ms>|NONE`: the tenant's per-query deadline,
    /// enforced cooperatively inside the engine's inner loops. Logged
    /// like budgets, so it survives a restart.
    pub(super) fn set_timeout(&mut self, tenant: &Tenant, ms: Option<u64>) -> Handled {
        let what = ms.map_or("cleared".to_string(), |ms| format!("{ms} ms"));
        let info = format!("timeout for {}: {what}", tenant.name());
        self.log_limits(tenant, info, |l| l.timeout_ms = limit(ms))
    }

    /// Change the tenant's limit set by `edit` and log it — acked with
    /// the same durability as any other mutation — and answer `OK
    /// <info>`.
    fn log_limits(
        &self,
        tenant: &Tenant,
        info: String,
        edit: impl FnOnce(&mut TenantLimits),
    ) -> Handled {
        durable(tenant, tenant.set_limits(self.state.write_policy().group_commit, edit))?;
        Ok(Reply::ok(info))
    }

    /// Bare `SHIP`: every tenant's shippable position (`<name> <epoch>
    /// <wal-len>` lines, name order), so a replica can sync its tenant
    /// set.
    pub(super) fn ship_listing(&mut self) -> Handled {
        self.store("there is nothing to SHIP")?;
        let data: Vec<String> = self
            .state
            .tenants()
            .iter()
            .filter_map(|t| {
                let (epoch, len) = t.wal_position()?;
                Some(format!("{} {epoch} {len}", t.name()))
            })
            .collect();
        let n = data.len();
        Ok(Reply::ok_with(data, format!("{n} tenants")))
    }

    /// `SHIP <db> <epoch> <offset>`: the next segment past the
    /// replica's position — a header line (`wal <epoch> <offset>
    /// <total>` or `snapshot <epoch> <len>`) followed by hex payload
    /// lines. Transfers are pull-driven and capped at
    /// [`SHIP_MAX_BYTES`] per WAL reply, so a slow replica
    /// backpressures the primary the same way a slow `FETCH` client
    /// backpressures a cursor.
    pub(super) fn ship(&mut self, tenant: &Tenant, epoch: u64, offset: u64) -> Handled {
        let store = self.store("there is nothing to SHIP")?;
        let segment = tenant
            .ship(&store, epoch, offset, SHIP_MAX_BYTES)
            .map_err(|e| Reply::err(ErrKind::Storage, e))?;
        let (header, bytes) = match segment {
            ShipSegment::Wal { epoch, offset, total, bytes } => {
                (format!("wal {epoch} {offset} {total}"), bytes)
            }
            ShipSegment::Snapshot { epoch, bytes } => {
                (format!("snapshot {epoch} {}", bytes.len()), bytes)
            }
        };
        let mut data = vec![header];
        data.extend(bytes.chunks(SHIP_LINE_BYTES).map(hex_encode));
        Ok(Reply::ok_with(data, format!("{} bytes", bytes.len())))
    }
}

/// The wire's rendering of what applying `record` did.
fn mutation_reply(
    record: &WalRecord,
    applied: Result<Applied, ArityConflict>,
) -> Handled {
    use Applied::{Changed, Unchanged};
    let applied = applied.map_err(|c| match record {
        WalRecord::Insert { .. } => Reply::err(
            ErrKind::ArityMismatch,
            format!(
                "`{}` has arity {}, tuple has {} values",
                c.relation, c.expected, c.got
            ),
        ),
        _ => load_conflict(c.relation, c.expected, c.got),
    })?;
    Ok(Reply::ok(match (record, applied) {
        (WalRecord::Insert { relation, .. }, Changed(rows)) => {
            format!("inserted 1 row into {relation} ({rows} total)")
        }
        // a no-op says what happened
        (WalRecord::Insert { relation, .. }, Unchanged(rows)) => {
            format!("duplicate ignored in {relation} ({rows} total)")
        }
        (
            WalRecord::Load { relation, rows: loaded, .. },
            Changed(rows) | Unchanged(rows),
        ) => {
            format!("loaded {} rows into {relation} ({rows} total)", loaded.len())
        }
        (WalRecord::DropRelation { relation }, Changed(rows)) => {
            format!("dropped {relation} ({rows} rows)")
        }
        (WalRecord::DropRelation { relation }, _) => {
            return Err(Reply::err(
                ErrKind::NoSuchRelation,
                format!("no relation named `{relation}`"),
            ))
        }
        (record, applied) => unreachable!("{record:?} cannot apply as {applied:?}"),
    }))
}

/// `LOAD <rel> <cols>` against a relation of another arity.
fn load_conflict(relation: &str, arity: usize, cols: usize) -> Reply {
    Reply::err(
        ErrKind::ArityMismatch,
        format!("`{relation}` has arity {arity}, LOAD says {cols}"),
    )
}

/// Fold a WAL outcome into a reply: a mutation that applied in memory
/// but failed to reach the log must not report success — and an
/// unrecoverable append failure flips the tenant to read-only so later
/// mutations can't silently widen the gap between memory and the log.
fn durable(tenant: &Tenant, wal: std::io::Result<()>) -> Result<(), Reply> {
    wal.map_err(|e| {
        tenant.set_degraded(&format!("wal append failed: {e}"));
        Reply::err(
            ErrKind::Storage,
            format!(
                "mutation applied in memory but the wal append failed: {e}; `{name}` \
                 is now read-only — RESUME {name} to restore read-write",
                name = tenant.name()
            ),
        )
    })
}

/// `v` as a stored limit: `None` is unset, and `u64::MAX` itself is
/// clamped down by one (it is the sentinel).
fn limit(v: Option<u64>) -> u64 {
    v.map_or(TenantLimits::UNSET, |v| v.min(TenantLimits::UNSET - 1))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::server::testkit::{drive, session};
    use crate::state::ServerState;

    #[test]
    fn load_block_bulk_loads() {
        let mut s = session();
        s.handle_line("CREATE DB t");
        s.handle_line("USE t");
        let replies =
            drive(&mut s, &["LOAD Edge 2", "1 2", "2 3", "1, 2", "", "3 1", "END"]);
        assert_eq!(replies[0].as_ref().unwrap().terminal, "OK loading; rows until END");
        for r in &replies[1..6] {
            assert!(r.is_none(), "rows are consumed silently");
        }
        let done = replies[6].as_ref().unwrap();
        assert_eq!(done.terminal, "OK loaded 4 rows into Edge (3 total)"); // dedup
                                                                           // arity mismatch in a row: reported at END, nothing committed
        let replies = drive(&mut s, &["LOAD Edge 2", "7 8 9", "END"]);
        let done = replies[2].as_ref().unwrap();
        assert!(done.terminal.starts_with("ERR arity-mismatch"), "{}", done.terminal);
        let r = s.handle_line("COUNT q(x, y) :- Edge(x, y)").unwrap();
        assert_eq!(r.terminal, "OK 3");
        // LOAD against an existing relation with the wrong arity fails fast
        let r = s.handle_line("LOAD Edge 3").unwrap();
        assert!(r.terminal.starts_with("ERR arity-mismatch"), "{}", r.terminal);
        // bad value rows
        let replies = drive(&mut s, &["LOAD Edge 2", "1 x", "END"]);
        assert!(replies[2].as_ref().unwrap().terminal.starts_with("ERR bad-value"));
    }

    /// A block's `END` ends its request: an `ERR` there counts in the
    /// tenant the block addressed, like any verb's.
    #[test]
    fn a_load_refused_at_end_counts_in_its_tenants_errors() {
        let mut s = session();
        s.handle_line("CREATE DB t");
        s.handle_line("USE t");
        let replies = drive(&mut s, &["LOAD R 2", "1 2 3", "END"]);
        let done = replies[2].as_ref().unwrap();
        assert!(done.terminal.starts_with("ERR arity-mismatch"), "{}", done.terminal);
        let m = s.handle_line("METRICS t").unwrap();
        assert!(m.data.iter().any(|l| l == "db.t errors=1"), "{:?}", m.data);
    }

    /// A `LOAD` whose column count the log cannot store is refused on
    /// the wire: nothing is applied unlogged, nothing panics, and `SAVE`
    /// still writes the tenant.
    #[test]
    fn a_load_wider_than_the_log_stores_is_a_usage_error() {
        let dir = std::env::temp_dir()
            .join(format!("cq_server_load_arity_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = cq_storage::Store::open_dir(&dir).unwrap();
        let state = Arc::new(ServerState::recover(store).unwrap().0);
        let mut s = Session::new(Arc::clone(&state));
        s.handle_line("CREATE DB d");
        s.handle_line("USE d");
        let replies = drive(&mut s, &["LOAD R 4294967296", "END"]);
        let refused = replies[0].as_ref().unwrap();
        assert!(refused.terminal.starts_with("ERR usage:"), "{}", refused.terminal);
        assert!(s.handle_line("INSERT R(1, 2)").unwrap().is_ok(), "R was not made");
        let saved = s.handle_line("SAVE").unwrap();
        assert!(saved.is_ok(), "{}", saved.terminal);
        assert_eq!(state.metrics().server_scope().counter("panics").get(), 0);
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// An empty relation of a million columns costs its statistics
    /// nothing per column: the next query on the tenant answers.
    #[test]
    fn a_wide_empty_load_leaves_the_next_query_answering() {
        let mut s = session();
        s.handle_line("CREATE DB w");
        s.handle_line("USE w");
        assert!(s.handle_line("INSERT S(1)").unwrap().is_ok());
        let replies = drive(&mut s, &["LOAD R 1048576", "END"]);
        let loaded = replies[1].as_ref().unwrap();
        assert!(loaded.is_ok(), "{}", loaded.terminal);
        assert_eq!(s.handle_line("COUNT q(x) :- S(x)").unwrap().terminal, "OK 1");
        assert_eq!(s.state.metrics().server_scope().counter("panics").get(), 0);
    }

    #[test]
    fn noop_mutations_keep_the_warm_catalog() {
        let state = Arc::new(ServerState::new());
        let mut s = Session::new(Arc::clone(&state));
        s.handle_line("CREATE DB t");
        s.handle_line("USE t");
        s.handle_line("INSERT R(1, 2)");
        s.handle_line("COUNT q(x, y) :- R(x, y)"); // warm the pinned catalog
        let t = state.tenant("t").unwrap();
        let warm = t.read_meta().0;
        // the count's q', the count itself and R's statistics
        assert_eq!(warm.artifacts, 3, "the count must have built into the catalog");
        // duplicate INSERT: honest reply, no version moves, catalog kept
        let r = s.handle_line("INSERT R(1, 2)").unwrap();
        assert_eq!(r.terminal, "OK duplicate ignored in R (1 total)");
        assert_eq!(t.read_meta().0, warm, "catalog untouched");
        // all-duplicate LOAD: also a no-op
        let r = drive(&mut s, &["LOAD R 2", "1 2", "END"]);
        assert_eq!(r[2].as_ref().unwrap().terminal, "OK loaded 1 rows into R (1 total)");
        assert_eq!(t.read_meta().0, warm, "catalog untouched");
        // an insert into a relation the count never read: still untouched
        s.handle_line("INSERT Other(1)");
        assert_eq!(t.read_meta().0, warm, "catalog untouched");
        // a real insert into R invalidates what was built from R
        s.handle_line("INSERT R(9, 9)");
        let after = t.read_meta().0;
        assert_eq!((after.artifacts, after.invalidations), (0, 3));
        assert_eq!(after.misses, warm.misses, "the counters run on across the write");
        assert_eq!(s.handle_line("COUNT q(x, y) :- R(x, y)").unwrap().terminal, "OK 2");
    }

    #[test]
    fn drop_relation_is_tenant_scoped() {
        let mut s = session();
        s.handle_line("CREATE DB a");
        s.handle_line("CREATE DB b");
        s.handle_line("USE a");
        s.handle_line("INSERT R(1, 2)");
        s.handle_line("USE b");
        s.handle_line("INSERT R(5, 6)");
        // dropping b's R leaves a's R untouched
        let r = s.handle_line("DROP R").unwrap();
        assert_eq!(r.terminal, "OK dropped R (1 rows)");
        let r = s.handle_line("COUNT q(x, y) :- R(x, y)").unwrap();
        assert!(r.terminal.starts_with("ERR eval:"), "{}", r.terminal);
        let r = s.handle_line("DROP R").unwrap();
        assert_eq!(r.terminal, "ERR no-such-relation: no relation named `R`");
        s.handle_line("USE a");
        assert_eq!(s.handle_line("COUNT q(x, y) :- R(x, y)").unwrap().terminal, "OK 1");
        // a dropped relation's name is immediately reusable at any arity
        s.handle_line("USE b");
        assert!(s.handle_line("INSERT R(7)").unwrap().is_ok());
        assert_eq!(s.handle_line("COUNT q(x) :- R(x)").unwrap().terminal, "OK 1");
    }

    #[test]
    fn drop_relation_invalidates_the_pinned_catalog() {
        let state = Arc::new(ServerState::new());
        let mut s = Session::new(Arc::clone(&state));
        s.handle_line("CREATE DB t");
        s.handle_line("USE t");
        s.handle_line("INSERT R(1, 2)");
        s.handle_line("COUNT q(x, y) :- R(x, y)"); // warm the pinned catalog
        s.handle_line("INSERT S(3)");
        s.handle_line("COUNT q(x) :- S(x)");
        let t = state.tenant("t").unwrap();
        // per relation: its count's q', the count and its statistics
        assert_eq!(t.read_meta().0.artifacts, 6);
        s.handle_line("DROP R");
        let after = t.read_meta().0;
        assert_eq!((after.artifacts, after.invalidations), (3, 3), "S's entries stay");
    }

    #[test]
    fn drop_db_isolates_tenants_and_flags_live_sessions() {
        let state = Arc::new(ServerState::new());
        let mut s1 = Session::new(Arc::clone(&state));
        let mut s2 = Session::new(Arc::clone(&state));
        s1.handle_line("CREATE DB a");
        s1.handle_line("CREATE DB b");
        s1.handle_line("USE a");
        s1.handle_line("INSERT R(1, 2)");
        s2.handle_line("USE a");
        // session 2 drops the database session 1 is using
        let r = s2.handle_line("DROP DB a").unwrap();
        assert_eq!(r.terminal, "OK dropped database a");
        // ...which also clears session 2's own selection
        let r = s2.handle_line("COUNT q(x, y) :- R(x, y)").unwrap();
        assert!(r.terminal.starts_with("ERR no-db:"), "{}", r.terminal);
        // session 1's next command gets a structured refusal, not data
        let r = s1.handle_line("COUNT q(x, y) :- R(x, y)").unwrap();
        assert_eq!(r.terminal, "ERR no-such-db: database `a` was dropped; USE another");
        // tenant b is untouched; a's name is reusable as a fresh db
        s1.handle_line("USE b");
        assert!(s1.handle_line("INSERT S(1)").unwrap().is_ok());
        assert!(s1.handle_line("CREATE DB a").unwrap().is_ok());
        s1.handle_line("USE a");
        let r = s1.handle_line("ANSWERS q(x, y) :- R(x, y)").unwrap();
        assert!(r.terminal.starts_with("ERR eval:"), "fresh tenant: {}", r.terminal);
        let r = s1.handle_line("DROP DB missing").unwrap();
        assert_eq!(r.terminal, "ERR no-such-db: no database named `missing`");
    }

    #[test]
    fn save_requires_a_persistent_server() {
        let mut s = session();
        s.handle_line("CREATE DB t");
        s.handle_line("USE t");
        let r = s.handle_line("SAVE").unwrap();
        assert!(r.terminal.starts_with("ERR storage:"), "{}", r.terminal);
        // and a tenant, before that
        let mut s = session();
        assert!(s.handle_line("SAVE").unwrap().terminal.starts_with("ERR no-db:"));
    }

    #[test]
    fn wal_failure_degrades_tenant_to_read_only_until_resume() {
        use cq_storage::{FaultPlan, FaultPoint, Store};
        let dir = std::env::temp_dir()
            .join(format!("cq_server_degrade_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        let store = Store::open_dir_with_faults(
            &dir,
            FaultPlan::failing(FaultPoint::WalAppend, 2),
        )
        .unwrap();
        let (state, _) = ServerState::recover(store).unwrap();
        let mut s = Session::new(Arc::new(state));
        s.handle_line("CREATE DB d");
        s.handle_line("USE d");
        assert!(s.handle_line("INSERT R(1, 2)").unwrap().is_ok());
        // the second append is the injected failure: the mutation is in
        // memory but not in the log — the tenant flips to read-only
        let r = s.handle_line("INSERT R(2, 3)").unwrap();
        assert!(r.terminal.starts_with("ERR storage:"), "{}", r.terminal);
        assert!(r.terminal.contains("now read-only"), "{}", r.terminal);
        // further mutations fail fast, with the RESUME hint
        let r = s.handle_line("INSERT R(3, 4)").unwrap();
        assert!(r.terminal.starts_with("ERR degraded:"), "{}", r.terminal);
        assert!(r.terminal.contains("RESUME d"), "{}", r.terminal);
        let r = s.handle_line("SET BUDGET d MAX-ROWS 1").unwrap();
        assert!(r.terminal.starts_with("ERR degraded:"), "{}", r.terminal);
        let r = s.handle_line("SAVE").unwrap();
        assert!(r.terminal.starts_with("ERR degraded:"), "{}", r.terminal);
        // reads keep serving everything that is in memory
        let r = s.handle_line("COUNT q(x, y) :- R(x, y)").unwrap();
        assert_eq!(r.terminal, "OK 2");
        // the state is observable
        let st = s.handle_line("STATS d").unwrap();
        assert!(st.data.iter().any(|l| l.contains("mode: read-only")), "{:?}", st.data);
        let m = s.handle_line("METRICS d").unwrap();
        assert!(m.data.iter().any(|l| l == "db.d degraded=1"), "{:?}", m.data);
        // RESUME checkpoints (capturing the in-memory truth, including
        // the unlogged insert) and restores read-write
        let r = s.handle_line("RESUME d").unwrap();
        assert!(r.is_ok(), "{}", r.terminal);
        assert!(r.terminal.contains("read-write restored"), "{}", r.terminal);
        assert!(s.handle_line("INSERT R(3, 4)").unwrap().is_ok());
        let st = s.handle_line("STATS d").unwrap();
        assert!(!st.data.iter().any(|l| l.contains("read-only")), "{:?}", st.data);
        // a reboot from disk sees everything the checkpoint captured
        drop(s);
        let store = Store::open_dir(&dir).unwrap();
        let (state, _) = ServerState::recover(store).unwrap();
        let mut s = Session::new(Arc::new(state));
        s.handle_line("USE d");
        let r = s.handle_line("COUNT q(x, y) :- R(x, y)").unwrap();
        assert_eq!(r.terminal, "OK 3");
        let _ = std::fs::remove_dir_all(&dir);
    }

    /// `--auto-save-bytes`: a mutation that leaves the log at the
    /// threshold checkpoints the tenant, so the log stays below it and a
    /// reopen recovers every acked row. A failed checkpoint does not fail
    /// the mutation, which is acked and counted as a failure; the tenant
    /// stays read-write, and the next mutation checkpoints.
    #[test]
    fn auto_checkpoint_bounds_the_wal_and_a_failed_one_is_counted_not_degraded() {
        use crate::state::WritePolicy;
        use cq_storage::{FaultPlan, FaultPoint, Store};
        let dir = std::env::temp_dir()
            .join(format!("cq_server_auto_save_{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        const LIMIT: u64 = 64;
        let boot = |faults| {
            let store = Store::open_dir_with_faults(&dir, faults).unwrap();
            let (state, _) = ServerState::recover(store).unwrap();
            let policy =
                WritePolicy { auto_save_bytes: Some(LIMIT), ..Default::default() };
            state.set_write_policy(policy);
            let state = Arc::new(state);
            (Session::new(Arc::clone(&state)), state)
        };
        let counter = |state: &ServerState, name: &str| {
            state.tenant("d").unwrap().metrics().scope().counter(name).get()
        };
        let wal_len = |state: &ServerState| {
            state.tenant("d").unwrap().wal_position().expect("a durable tenant").1
        };
        let insert = |s: &mut Session, i: u64| {
            let r = s.handle_line(&format!("INSERT R({i}, {i})")).unwrap();
            assert_eq!(r.terminal, format!("OK inserted 1 row into R ({} total)", i + 1));
        };

        let (mut s, state) = boot(FaultPlan::none());
        s.handle_line("CREATE DB d");
        s.handle_line("USE d");
        for i in 0..20 {
            insert(&mut s, i);
            assert!(wal_len(&state) < LIMIT, "row {i}: the log stays below the limit");
        }
        assert!(counter(&state, "storage.auto-checkpoints") >= 5);
        assert_eq!(counter(&state, "storage.auto-checkpoint-failures"), 0);
        drop((s, state));

        // the reopened server's first snapshot write fails
        let (mut s, state) = boot(FaultPlan::failing(FaultPoint::SnapWrite, 1));
        s.handle_line("USE d");
        assert_eq!(s.handle_line("COUNT q(x, y) :- R(x, y)").unwrap().terminal, "OK 20");
        let mut i = 20;
        while counter(&state, "storage.auto-checkpoint-failures") == 0 {
            insert(&mut s, i);
            i += 1;
        }
        assert_eq!(counter(&state, "storage.auto-checkpoints"), 0);
        assert!(wal_len(&state) >= LIMIT, "the log keeps what the snapshot missed");
        let st = s.handle_line("STATS d").unwrap();
        assert!(!st.data.iter().any(|l| l.contains("read-only")), "{:?}", st.data);
        insert(&mut s, i);
        assert_eq!(counter(&state, "storage.auto-checkpoints"), 1);
        assert_eq!(counter(&state, "storage.auto-checkpoint-failures"), 1);
        assert!(wal_len(&state) < LIMIT);
        drop((s, state));

        let (mut s, _) = boot(FaultPlan::none());
        s.handle_line("USE d");
        let r = s.handle_line("COUNT q(x, y) :- R(x, y)").unwrap();
        assert_eq!(r.terminal, format!("OK {}", i + 1), "every acked row recovers");
        let _ = std::fs::remove_dir_all(&dir);
    }

    #[test]
    fn resume_is_total_on_in_memory_servers() {
        let mut s = session();
        s.handle_line("CREATE DB t");
        let r = s.handle_line("RESUME t").unwrap();
        assert!(r.is_ok(), "{}", r.terminal);
        assert!(r.terminal.contains("in-memory"), "{}", r.terminal);
        let r = s.handle_line("RESUME nope").unwrap();
        assert!(r.terminal.starts_with("ERR no-such-db"), "{}", r.terminal);
    }

    use proptest::prelude::*;
    use std::collections::HashMap;
    use std::sync::atomic::{AtomicUsize, Ordering};

    /// One wire mutation: the lines to send (a `LOAD` is a block).
    /// Relations `A`..`C`, arities 1..=2 and values 0..4 are few enough
    /// that duplicates, all-duplicate and empty loads, arity conflicts
    /// and drops of missing relations all come up constantly.
    fn mutation() -> impl Strategy<Value = Vec<String>> {
        let rows = proptest::collection::vec((0u64..4, 0u64..4), 0..4);
        (0usize..5, 0usize..3, 1usize..=2, rows).prop_map(|(kind, rel, arity, rows)| {
            let rel = ["A", "B", "C"][rel];
            let row = |(a, b): &(u64, u64)| match arity {
                1 => format!("{a}"),
                _ => format!("{a} {b}"),
            };
            match kind {
                0 => vec![format!("DROP {rel}")],
                1 | 2 => {
                    let mut block = vec![format!("LOAD {rel} {arity}")];
                    block.extend(rows.iter().map(row));
                    block.push("END".to_string());
                    block
                }
                _ => vec![format!(
                    "INSERT {rel}({})",
                    row(rows.first().unwrap_or(&(0, 0)))
                )],
            }
        })
    }

    /// `STATS t` with the generation stamp (process-unique per mutation,
    /// so a replayed database never shares it) cut out of the first line.
    fn stats_sans_generation(s: &mut Session) -> Vec<String> {
        let mut data = s.handle_line("STATS t").unwrap().data;
        let cut = data[0].find(", generation ").expect("the detail line carries one");
        data[0].truncate(cut);
        data
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(48))]

        /// Live ≡ replay: the log holds a record exactly for the
        /// mutations whose reply reported a change, and recovery —
        /// replaying that log through the function that applied it live
        /// — rebuilds the same database.
        #[test]
        fn the_log_records_exactly_what_changed_and_replays_to_the_same_stats(
            script in proptest::collection::vec(mutation(), 1..24),
        ) {
            static CASE: AtomicUsize = AtomicUsize::new(0);
            let dir = std::env::temp_dir().join(format!(
                "cq_live_replay_{}_{}",
                std::process::id(),
                CASE.fetch_add(1, Ordering::Relaxed)
            ));
            let _ = std::fs::remove_dir_all(&dir);
            let open = || {
                let store = cq_storage::Store::open_dir(&dir).unwrap();
                Session::new(Arc::new(ServerState::recover(store).unwrap().0))
            };
            let mut s = open();
            s.handle_line("CREATE DB t");
            s.handle_line("USE t");
            // what the *replies* said: each relation's row count, and
            // how many mutations claimed to change the database
            let mut totals: HashMap<String, String> = HashMap::new();
            let mut changes = 0;
            for lines in &script {
                // a LOAD refused up front (a known arity conflict) opens
                // no block: its rows must not follow it
                let mut reply = s.handle_line(&lines[0]).expect("verbs reply");
                if reply.is_ok() {
                    for line in &lines[1..] {
                        reply = s.handle_line(line).unwrap_or(reply);
                    }
                }
                let words: Vec<&str> = reply.terminal.split_whitespace().collect();
                let changed = match words.as_slice() {
                    ["OK", "inserted", "1", "row", "into", rel, total, "total)"]
                    | ["OK", "loaded", _, "rows", "into", rel, total, "total)"] => {
                        totals.insert(rel.to_string(), total.to_string()).as_deref()
                            != Some(*total)
                    }
                    ["OK", "dropped", rel, ..] => totals.remove(*rel).is_some(),
                    ["OK", "duplicate", "ignored", ..] => false,
                    ["ERR", "arity-mismatch:", ..] | ["ERR", "no-such-relation:", ..] => false,
                    _ => panic!("unexpected mutation reply `{}`", reply.terminal),
                };
                changes += usize::from(changed);
            }
            let live = stats_sans_generation(&mut s);
            drop(s);
            let log = std::fs::read(dir.join("t").join("wal.cql")).unwrap();
            let (records, consumed) = cq_storage::decode_frames(&log[14..]).unwrap();
            prop_assert_eq!(consumed, log.len() - 14, "the log ends on a frame boundary");
            prop_assert_eq!(records.len(), changes, "one record per reported change");
            prop_assert_eq!(stats_sans_generation(&mut open()), live);
            std::fs::remove_dir_all(&dir).unwrap();
        }
    }
}
