//! Durable-mode end-to-end tests: a real `cqd --data-dir` process,
//! killed with SIGKILL mid-flight and rebooted over the same
//! directory, must come back with every acknowledged wire mutation —
//! byte-identical `ANSWERS` — and must self-repair a torn WAL tail.
//!
//! These spawn the actual binary (not an in-process server): the point
//! is that durability survives *process death*, which only an external
//! kill can exercise honestly.

mod daemon;

use cq_server::client::Client;
use cq_server::protocol::Reply;
use daemon::Daemon;
use std::ffi::OsString;
use std::path::{Path, PathBuf};

/// A `cqd --data-dir data_dir` child, under `envs` — `CQ_FAULT_PLAN=…`
/// arms storage fault injection in it.
fn durable(data_dir: &Path, envs: &[(&str, &str)]) -> Daemon {
    let dir = OsString::from(data_dir);
    Daemon::boot(&["--workers".into(), "2".into(), "--data-dir".into(), dir], envs)
}

fn temp_dir(tag: &str) -> PathBuf {
    let dir =
        std::env::temp_dir().join(format!("cq_persist_e2e_{tag}_{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    dir
}

fn ok(reply: std::io::Result<Reply>) -> Reply {
    let reply = reply.expect("io");
    assert!(reply.is_ok(), "{}", reply.terminal);
    reply
}

const QUERIES: [&str; 3] = [
    "ANSWERS q(x, z) :- Follows(x, y), Follows(y, z)",
    "ANSWERS q(x, y) :- Follows(x, y)",
    "COUNT q(x, z) :- Follows(x, y), Likes(y, z)",
];

fn transcript(c: &mut Client, db: &str) -> Vec<Reply> {
    ok(c.use_db(db));
    QUERIES.iter().map(|q| ok(c.request(q))).collect()
}

/// The `rel ...` schema lines of `STATS <db>` — content recovery
/// evidence for relations (like a nullary one) no query can reach.
fn schema_lines(c: &mut Client, db: &str) -> Vec<String> {
    let r = ok(c.stats(Some(db)));
    r.data.iter().filter(|l| l.starts_with("rel ")).cloned().collect()
}

#[test]
fn sigkill_between_mutation_and_checkpoint_loses_nothing() {
    let dir = temp_dir("kill");
    let pre_kill = {
        let daemon = durable(&dir, &[]);
        let mut c = daemon.client();
        ok(c.create_db("social"));
        ok(c.use_db("social"));
        ok(c.load("Follows", 2, ["1 2", "2 3", "3 1", "2 4"]));
        ok(c.save()); // snapshot the first batch
                      // post-checkpoint mutations live only in the wal
        ok(c.request("INSERT Follows(4, 1)"));
        ok(c.load("Likes", 2, ["1 10", "4 10"]));
        ok(c.request("INSERT Boolean()"));
        ok(c.request("INSERT Scratch(9, 9)"));
        ok(c.request("DROP Scratch"));
        // a second tenant, never checkpointed: pure wal recovery
        ok(c.create_db("other"));
        ok(c.use_db("other"));
        ok(c.request("INSERT Edge(7, 8)"));
        let replies = (transcript(&mut c, "social"), schema_lines(&mut c, "social"));
        daemon.kill(); // no QUIT, no graceful shutdown
        replies
    };
    {
        let daemon = durable(&dir, &[]);
        let mut c = daemon.client();
        let post_kill = (transcript(&mut c, "social"), schema_lines(&mut c, "social"));
        assert_eq!(pre_kill, post_kill, "recovered ANSWERS must be byte-identical");
        assert!(
            pre_kill.1.contains(&"rel Boolean: arity 0, 1 rows".to_string()),
            "the nullary relation survives: {:?}",
            pre_kill.1
        );
        ok(c.use_db("other"));
        let r = ok(c.request("ANSWERS q(x, y) :- Edge(x, y)"));
        assert_eq!(r.data, vec!["7 8"]);
        // the dropped relation stayed dropped through recovery
        ok(c.use_db("social"));
        let r = c.request("COUNT q(x, y) :- Scratch(x, y)").expect("io");
        assert!(r.terminal.starts_with("ERR eval:"), "{}", r.terminal);
        daemon.kill();
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn torn_wal_tail_is_a_warning_not_a_boot_failure() {
    let dir = temp_dir("torn");
    let pre = {
        let daemon = durable(&dir, &[]);
        let mut c = daemon.client();
        ok(c.create_db("t"));
        ok(c.use_db("t"));
        ok(c.load("Follows", 2, ["1 2", "2 3", "3 1"]));
        ok(c.request("INSERT Likes(1, 10)"));
        ok(c.request("INSERT Boolean()"));
        let replies = transcript(&mut c, "t");
        daemon.kill();
        replies
    };
    // simulate a crash mid-append: tack half a record onto the wal
    let wal = dir.join("t").join("wal.cql");
    let mut bytes = std::fs::read(&wal).unwrap();
    let torn =
        cq_storage::WalRecord::Insert { relation: "Follows".into(), row: vec![9, 9] }
            .to_frame();
    bytes.extend_from_slice(&torn[..torn.len() - 3]);
    std::fs::write(&wal, &bytes).unwrap();
    {
        let daemon = durable(&dir, &[]);
        let mut c = daemon.client();
        let post = transcript(&mut c, "t");
        assert_eq!(pre, post, "intact mutations survive; the torn one is dropped");
        // the tail was truncated on open: appends keep working and a
        // third boot sees a clean log
        ok(c.request("INSERT Follows(5, 6)"));
        daemon.kill();
    }
    {
        let daemon = durable(&dir, &[]);
        let mut c = daemon.client();
        ok(c.use_db("t"));
        let r = ok(c.request("ANSWERS q(x, y) :- Follows(x, y)"));
        assert_eq!(r.data, vec!["1 2", "2 3", "3 1", "5 6"]);
        daemon.kill();
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn fault_degraded_tenant_reboots_read_write_with_intact_records() {
    let dir = temp_dir("chaos");
    {
        // the 4th WAL append (and every one after) fails: two inserts
        // and a SET TIMEOUT land, then the tenant degrades mid-flight
        let daemon = durable(&dir, &[("CQ_FAULT_PLAN", "wal-append:4:*")]);
        let mut c = daemon.client();
        ok(c.create_db("t"));
        ok(c.use_db("t"));
        ok(c.request("INSERT R(1, 2)")); // append 1
        ok(c.request("INSERT R(2, 3)")); // append 2
        ok(c.set_timeout("t", Some(0))); // append 3: the limit is logged
        let r = c.request("INSERT R(3, 4)").expect("io"); // append 4: injected
        assert!(r.terminal.starts_with("ERR storage:"), "{}", r.terminal);
        assert!(r.terminal.contains("read-only"), "{}", r.terminal);
        let r = c.request("INSERT R(4, 5)").expect("io");
        assert!(r.terminal.starts_with("ERR degraded:"), "{}", r.terminal);
        // in-memory truth holds 3 rows; the degradation is observable
        let st = ok(c.stats(Some("t")));
        assert!(st.data[0].contains("3 tuples"), "{:?}", st.data);
        assert!(st.data.iter().any(|l| l.contains("mode: read-only")), "{:?}", st.data);
        daemon.kill(); // die degraded, mid-fault-plan
    }
    {
        // reboot WITHOUT the fault plan: recovery replays exactly the
        // intact records and the tenant is read-write again
        let daemon = durable(&dir, &[]);
        let mut c = daemon.client();
        ok(c.use_db("t"));
        let st = ok(c.stats(Some("t")));
        assert!(
            st.data[0].contains("2 tuples"),
            "unlogged row stays lost: {:?}",
            st.data
        );
        assert!(
            !st.data.iter().any(|l| l.contains("read-only")),
            "degradation must not survive a reboot: {:?}",
            st.data
        );
        // the logged SET TIMEOUT survived the crash: the zero deadline
        // trips immediately, citing the plan cost
        let r = c.request("COUNT q(x, y) :- R(x, y)").expect("io");
        assert!(r.terminal.starts_with("ERR timeout:"), "{}", r.terminal);
        assert!(r.terminal.contains("0 ms deadline"), "{}", r.terminal);
        ok(c.set_timeout("t", None));
        let r = ok(c.request("COUNT q(x, y) :- R(x, y)"));
        assert_eq!(r.terminal, "OK 2");
        // mutations work again — fully read-write
        ok(c.request("INSERT R(9, 9)"));
        let st = ok(c.stats(Some("t")));
        assert!(st.data[0].contains("3 tuples"), "{:?}", st.data);
        daemon.kill();
    }
    std::fs::remove_dir_all(&dir).unwrap();
}

#[test]
fn save_then_kill_recovers_from_snapshot_alone() {
    let dir = temp_dir("save");
    let pre = {
        let daemon = durable(&dir, &[]);
        let mut c = daemon.client();
        ok(c.create_db("t"));
        ok(c.use_db("t"));
        ok(c.load("Follows", 2, ["1 2", "2 3"]));
        ok(c.load("Likes", 2, ["1 10"]));
        ok(c.request("INSERT Boolean()"));
        let r = ok(c.save());
        assert!(r.terminal.contains("wal truncated"), "{}", r.terminal);
        let replies = transcript(&mut c, "t");
        daemon.kill();
        replies
    };
    assert_eq!(
        std::fs::metadata(dir.join("t").join("wal.cql")).unwrap().len(),
        cq_storage::wal::WAL_HEADER_LEN,
        "a checkpointed wal is just its header"
    );
    assert!(dir.join("t").join("snapshot.cqs").exists());
    let daemon = durable(&dir, &[]);
    let mut c = daemon.client();
    assert_eq!(pre, transcript(&mut c, "t"));
    // lifecycle over the wire post-recovery: drop the db, reboot, gone
    ok(c.request("DROP DB t"));
    daemon.kill();
    let daemon = durable(&dir, &[]);
    let mut c = daemon.client();
    let r = c.use_db("t").expect("io");
    assert!(r.terminal.starts_with("ERR no-such-db"), "{}", r.terminal);
    daemon.kill();
    std::fs::remove_dir_all(&dir).unwrap();
}
