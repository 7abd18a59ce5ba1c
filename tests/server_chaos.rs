//! Chaos drills for the **server** layer: a scripted multi-command
//! session runs over a fault-injected store, and whatever faults fire,
//!
//! 1. every reply stays structured (no panic, no torn session),
//! 2. an acknowledged mutation (`OK` reply) is never lost across a
//!    restart — the recovered database contains every acked row, and
//! 3. a tenant that degrades to read-only keeps serving reads and
//!    comes back read-write after `RESUME` (or stays degraded with a
//!    structured error if the repair itself faults).
//!
//! `chaos_env_fault_plan_session_upholds_invariants` reads the ambient
//! `CQ_FAULT_PLAN` (empty outside CI) so the CI chaos matrix —
//! fail-fsync, fail-append, ENOSPC-style snapshot refusals — drives
//! the same scripted session through each representative plan.

use cq_server::protocol::Reply;
use cq_server::server::Session;
use cq_server::state::ServerState;
use cq_storage::fault::ALL_FAULT_POINTS;
use cq_storage::{FaultPlan, Store};
use proptest::prelude::*;
use std::path::PathBuf;
use std::sync::Arc;

fn temp_dir(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir()
        .join(format!("cq_server_chaos_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

/// The scripted mutation schedule: `(relation, row)` inserts, applied
/// in order. Deterministic, so every fault plan sees the same session.
fn schedule() -> Vec<(&'static str, (u64, u64))> {
    (0..12u64).map(|i| ("E", (i, (i * 7) % 5))).collect()
}

/// The reply to `line`, which no handler panicked into.
fn ask(s: &mut Session, line: &str) -> Reply {
    let reply = s.handle_line(line).expect("terminal reply");
    assert!(!reply.terminal.starts_with("ERR internal"), "{line}: {}", reply.terminal);
    reply
}

/// The panics `Session::handle_action` caught on `state`'s sessions.
fn panics(state: &ServerState) -> u64 {
    state.metrics().server_scope().counter("panics").get()
}

/// Drive the scripted session over a store opened with `plan`. Returns
/// `None` when tenant creation itself faulted (nothing to recover), or
/// the rows known durable: acknowledged inserts, plus in-memory-only
/// inserts that a later successful `RESUME`/`SAVE` checkpoint captured.
fn run_session(dir: &PathBuf, plan: FaultPlan) -> Option<Vec<(u64, u64)>> {
    let store = Store::open_dir_with_faults(dir, plan).expect("open faulted store");
    let (state, _) = ServerState::recover(store).expect("recover");
    let state = Arc::new(state);
    let mut s = Session::new(Arc::clone(&state));
    let created = ask(&mut s, "CREATE DB c");
    if !created.is_ok() {
        // creation can fault (directory sync, …); that is a structured
        // error and there is no tenant whose durability to check
        assert!(created.terminal.starts_with("ERR "), "{}", created.terminal);
        return None;
    }
    assert!(ask(&mut s, "USE c").is_ok(), "use");
    let mut durable = Vec::new();
    // applied to memory but not yet on disk (`ERR storage` replies);
    // durable only once a checkpoint (RESUME/SAVE) succeeds
    let mut unlogged: Vec<(u64, u64)> = Vec::new();
    for (rel, (a, b)) in schedule() {
        let r = ask(&mut s, &format!("INSERT {rel}({a}, {b})"));
        if r.is_ok() {
            durable.push((a, b));
            continue;
        }
        // invariant 1: failures are structured wire errors, and the
        // two failure shapes are distinguishable: `storage` = applied
        // in memory, log failed; `degraded` = refused outright
        if r.terminal.starts_with("ERR storage:") {
            unlogged.push((a, b));
        } else {
            assert!(r.terminal.starts_with("ERR degraded:"), "{}", r.terminal);
        }
        // a degraded tenant still serves reads...
        let reads = ask(&mut s, "COUNT q(x, y) :- E(x, y)");
        assert!(reads.is_ok(), "reads must survive: {}", reads.terminal);
        // ...and RESUME either repairs it (the checkpoint captures the
        // in-memory truth, unlogged rows included) or fails structurally
        let resumed = ask(&mut s, "RESUME c");
        if resumed.is_ok() {
            durable.append(&mut unlogged);
        } else {
            assert!(resumed.terminal.starts_with("ERR storage:"), "{}", resumed.terminal);
        }
    }
    // quiesce through SAVE when possible so recovery reads a snapshot
    // too, not just the wal (failure is fine — it just stays unlogged)
    let saved = ask(&mut s, "SAVE");
    if saved.is_ok() {
        durable.append(&mut unlogged);
    }
    assert_eq!(panics(&state), 0, "no handler panicked");
    Some(durable)
}

/// Reboot without faults and check every acked row was recovered.
fn check_recovery(dir: &PathBuf, acked: &[(u64, u64)]) {
    let store = Store::open_dir(dir).expect("clean reopen");
    let (state, _) = ServerState::recover(store).expect("recover after chaos");
    let state = Arc::new(state);
    let mut s = Session::new(Arc::clone(&state));
    assert!(ask(&mut s, "USE c").is_ok(), "tenant must survive");
    let r = ask(&mut s, "ANSWERS q(x, y) :- E(x, y)");
    assert!(r.is_ok(), "{}", r.terminal);
    for (a, b) in acked {
        let want = format!("{a} {b}");
        assert!(
            r.data.contains(&want),
            "acked row {want} lost after recovery; have {:?}",
            r.data
        );
    }
    // a recovered tenant is read-write regardless of pre-crash state
    assert!(ask(&mut s, "INSERT E(99, 99)").is_ok());
    assert_eq!(panics(&state), 0, "no handler panicked");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    /// Random single-trigger fault plans over the scripted session.
    #[test]
    fn chaos_session_never_loses_acked_mutations(
        point in 0usize..ALL_FAULT_POINTS.len(),
        nth in 1u64..=8,
        times in 1u64..=3,
    ) {
        let dir = temp_dir("prop");
        let plan = FaultPlan::new([(ALL_FAULT_POINTS[point], nth, times)]);
        if let Some(acked) = run_session(&dir, plan) {
            check_recovery(&dir, &acked);
        }
        let _ = std::fs::remove_dir_all(&dir);
    }
}

/// The CI chaos matrix entry point: `CQ_FAULT_PLAN` (if set) names the
/// plan; unset runs a representative local default.
#[test]
fn chaos_env_fault_plan_session_upholds_invariants() {
    let plan = FaultPlan::from_env().expect("parse CQ_FAULT_PLAN");
    let plan = if plan.is_armed() {
        plan
    } else {
        FaultPlan::parse("wal-append:3:2,wal-sync:1:1").unwrap()
    };
    let dir = temp_dir("env");
    if let Some(acked) = run_session(&dir, plan) {
        check_recovery(&dir, &acked);
    }
    let _ = std::fs::remove_dir_all(&dir);
}
