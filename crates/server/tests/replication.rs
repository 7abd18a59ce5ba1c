//! Replication end-to-end: a real primary `cqd --data-dir` process and
//! a real `cqd --replica-of` process, attached mid-stream while the
//! primary keeps mutating. The replica must catch up to byte-identical
//! `ANSWERS`, refuse writes with a structured `ERR read-only` naming
//! the primary, and re-converge from scratch after being killed and
//! restarted — including across a primary checkpoint (epoch bump).
//!
//! The chaos variant boots the primary with an explicit
//! `CQ_FAULT_PLAN=ship-read:…` (overriding whatever plan the CI matrix
//! exports, so the test is deterministic under every matrix leg):
//! interrupted segment reads must delay convergence, never corrupt it.

mod daemon;

use cq_server::client::Client;
use cq_server::protocol::{ErrKind, Reply};
use daemon::Daemon;
use std::ffi::OsString;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// A `cqd` child with two workers and `extra` flags, under `envs`.
fn boot(extra: &[OsString], envs: &[(&str, &str)]) -> Daemon {
    let args = [&["--workers".into(), "2".into()], extra].concat();
    Daemon::boot(&args, envs)
}

fn boot_primary(data_dir: &Path) -> Daemon {
    boot(&[OsString::from("--data-dir"), data_dir.into()], &[])
}

fn boot_replica(primary_addr: &str) -> Daemon {
    boot(&[OsString::from("--replica-of"), primary_addr.into()], &[])
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("cq_repl_e2e_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn ok(reply: std::io::Result<Reply>) -> Reply {
    let reply = reply.expect("io");
    assert!(reply.is_ok(), "{}", reply.terminal);
    reply
}

const QUERIES: [&str; 3] = [
    "ANSWERS q(x, y) :- Follows(x, y)",
    "ANSWERS q(x, z) :- Follows(x, y), Follows(y, z)",
    "COUNT q(x, y) :- Follows(x, y)",
];

/// The full read transcript for one tenant — the byte-diff unit.
fn transcript(c: &mut Client, db: &str) -> Vec<Reply> {
    ok(c.use_db(db));
    QUERIES.iter().map(|q| ok(c.request(q))).collect()
}

/// Wait until the replica's transcript for `db` equals `want`.
fn await_catch_up(replica: &Daemon, db: &str, want: &[Reply]) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let mut r = replica.client();
        if r.use_db(db).expect("io").is_ok() {
            let got: Vec<Reply> =
                QUERIES.iter().map(|q| r.request(q).expect("io")).collect();
            if got.iter().zip(want).all(|(g, w)| g == w) && got.len() == want.len() {
                return;
            }
        }
        assert!(Instant::now() < deadline, "replica never caught up with the primary");
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn replica_attaches_mid_stream_byte_matches_and_reconverges_after_restart() {
    let dir = temp_dir("attach");
    let primary = boot_primary(&dir);
    let mut p = primary.client();
    ok(p.create_db("social"));
    ok(p.use_db("social"));
    ok(p.load("Follows", 2, (0..40u64).map(|i| format!("{i} {}", (i + 1) % 40))));
    ok(p.save()); // epoch 1: the replica's base image ships as a snapshot

    // attach the replica mid-stream: writes keep landing on the
    // primary while the replica bootstraps and tails the WAL
    let replica = boot_replica(&primary.addr);
    for i in 40..120u64 {
        ok(p.request(&format!("INSERT Follows({i}, {})", i + 1)));
    }
    let want = transcript(&mut p, "social");
    await_catch_up(&replica, "social", &want);

    // reads serve; writes refuse, naming the primary
    let mut r = replica.client();
    ok(r.use_db("social"));
    let refused = r.request("INSERT Follows(999, 999)").expect("io");
    assert_eq!(refused.err_kind(), Some(ErrKind::ReadOnly), "{}", refused.terminal);
    assert!(
        refused.terminal.contains(primary.addr.trim()),
        "the refusal must name the primary: {}",
        refused.terminal
    );
    let refused = r.create_db("elsewhere").expect("io");
    assert_eq!(refused.err_kind(), Some(ErrKind::ReadOnly), "{}", refused.terminal);

    // replication is observable: STATS names the primary, METRICS
    // carries the lag gauges
    let st = ok(r.stats(Some("social")));
    assert!(
        st.data.iter().any(|l| l.contains("replica: of")),
        "STATS must report the replica role: {:?}",
        st.data
    );
    let m = ok(r.metrics(Some("social")));
    for gauge in ["replica.lag_bytes", "replica.epoch"] {
        assert!(
            m.data.iter().any(|l| l.contains(gauge)),
            "METRICS must carry {gauge}: {:?}",
            m.data
        );
    }

    // kill the replica, move the primary on — including a checkpoint,
    // so the rejoin crosses an epoch bump and re-bases on a snapshot —
    // then restart and watch it re-converge from scratch
    replica.kill();
    for i in 120..160u64 {
        ok(p.request(&format!("INSERT Follows({i}, {})", i + 1)));
    }
    ok(p.save()); // epoch 2
    ok(p.request("INSERT Follows(500, 501)")); // post-checkpoint tail
    let want = transcript(&mut p, "social");
    let replica = boot_replica(&primary.addr);
    await_catch_up(&replica, "social", &want);

    replica.kill();
    primary.kill();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn replica_tracks_tenant_creation_and_limits() {
    let dir = temp_dir("tenants");
    let primary = boot_primary(&dir);
    let mut p = primary.client();
    ok(p.create_db("a"));
    ok(p.use_db("a"));
    ok(p.request("INSERT R(1, 2)"));

    let replica = boot_replica(&primary.addr);
    let want = transcript_r(&mut p);
    await_r(&replica, &want);

    // a tenant created after attach appears on the replica, with its
    // logged limits: the zero timeout trips deterministically there too
    ok(p.create_db("b"));
    ok(p.use_db("b"));
    ok(p.request("INSERT R(3, 4)"));
    ok(p.set_timeout("b", Some(0)));
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let mut r = replica.client();
        if r.use_db("b").expect("io").is_ok() {
            let reply = r.request("COUNT q(x, y) :- R(x, y)").expect("io");
            if reply.err_kind() == Some(ErrKind::Timeout) {
                break;
            }
        }
        assert!(Instant::now() < deadline, "replica never learned tenant b's limits");
        std::thread::sleep(Duration::from_millis(50));
    }

    replica.kill();
    primary.kill();
    std::fs::remove_dir_all(&dir).unwrap();
}

/// `Follows`-free single-relation transcript for the `a` tenant.
fn transcript_r(p: &mut Client) -> Vec<Reply> {
    ok(p.use_db("a"));
    vec![ok(p.request("ANSWERS q(x, y) :- R(x, y)"))]
}

fn await_r(replica: &Daemon, want: &[Reply]) {
    let deadline = Instant::now() + Duration::from_secs(30);
    loop {
        let mut r = replica.client();
        if r.use_db("a").expect("io").is_ok() {
            let got = r.request("ANSWERS q(x, y) :- R(x, y)").expect("io");
            if want.len() == 1 && got == want[0] {
                return;
            }
        }
        assert!(Instant::now() < deadline, "replica never caught up");
        std::thread::sleep(Duration::from_millis(50));
    }
}

#[test]
fn chaos_group_commit_acked_mutations_survive_sigkill() {
    let dir = temp_dir("group_kill");
    // the empty plan pins fault injection OFF even when the CI chaos
    // matrix exports one — this leg is about crash durability, and an
    // ambient wal fault would turn acked OKs into expected ERRs
    let first = boot(
        &[
            OsString::from("--data-dir"),
            dir.clone().into(),
            OsString::from("--group-commit-ms"),
            OsString::from("5"),
        ],
        &[("CQ_FAULT_PLAN", "")],
    );
    {
        let mut c = first.client();
        ok(c.create_db("social"));
    }
    // concurrent committers through one gate: every OK the server sends
    // is a durability promise that must hold through SIGKILL
    let writers: Vec<_> = (0..4u64)
        .map(|t| {
            let mut c = first.client();
            std::thread::spawn(move || {
                ok(c.use_db("social"));
                for i in 0..50u64 {
                    ok(c.request(&format!("INSERT Follows({}, {i})", 1_000 * (t + 1))));
                }
            })
        })
        .collect();
    for w in writers {
        w.join().expect("writer");
    }
    first.kill();

    let second = boot_primary(&dir);
    let mut c = second.client();
    ok(c.use_db("social"));
    let count = ok(c.request("COUNT q(x, y) :- Follows(x, y)"));
    assert_eq!(count.terminal, "OK 200", "every acked row must survive the crash");
    second.kill();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn chaos_group_commit_never_acks_when_the_shared_sync_fails() {
    let dir = temp_dir("group_nack");
    let daemon = boot(
        &[
            OsString::from("--data-dir"),
            dir.clone().into(),
            OsString::from("--group-commit-ms"),
            OsString::from("5"),
        ],
        &[("CQ_FAULT_PLAN", "wal-sync:1:*")],
    );
    let mut c = daemon.client();
    ok(c.create_db("social"));
    ok(c.use_db("social"));
    // with every fsync failing, no mutation may report OK — a false ack
    // here would be a durability lie
    let reply = c.request("INSERT Follows(1, 2)").expect("io");
    assert!(!reply.is_ok(), "acked a mutation whose sync failed: {}", reply.terminal);
    let reply = c.request("INSERT Follows(3, 4)").expect("io");
    assert!(!reply.is_ok(), "acked a mutation whose sync failed: {}", reply.terminal);
    daemon.kill();

    // reboot clean: whatever landed must be a prefix of what was NOT
    // acked — and the unacked rows are allowed to be absent
    let second = boot(
        &[OsString::from("--data-dir"), dir.clone().into()],
        &[("CQ_FAULT_PLAN", "")],
    );
    let mut c = second.client();
    ok(c.use_db("social"));
    let count = ok(c.request("COUNT q(x, y) :- Follows(x, y)"));
    assert!(
        count.terminal == "OK 0" || count.terminal == "OK 1" || count.terminal == "OK 2",
        "recovered state must be a prefix of the attempted writes: {}",
        count.terminal
    );
    second.kill();
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn chaos_ship_interrupts_delay_but_never_corrupt_convergence() {
    let dir = temp_dir("chaos_ship");
    // the first 8 segment reads on the primary fail mid-transfer; the
    // replica must ride through the refusals and still byte-match.
    // The explicit plan overrides the CI matrix's CQ_FAULT_PLAN, so
    // this test behaves identically under every matrix leg.
    let primary = boot(
        &[OsString::from("--data-dir"), dir.clone().into()],
        &[("CQ_FAULT_PLAN", "ship-read:1:8")],
    );
    let mut p = primary.client();
    ok(p.create_db("social"));
    ok(p.use_db("social"));
    ok(p.load("Follows", 2, (0..60u64).map(|i| format!("{i} {}", (i + 3) % 60))));
    ok(p.save());
    for i in 0..30u64 {
        ok(p.request(&format!("INSERT Follows({}, {})", 100 + i, 100 + i + 1)));
    }
    let want = transcript(&mut p, "social");

    let replica = boot_replica(&primary.addr);
    await_catch_up(&replica, "social", &want);

    replica.kill();
    primary.kill();
    std::fs::remove_dir_all(&dir).unwrap();
}
