//! Metrics correctness: replay a random command sequence through a
//! session and check the `METRICS` counters against an independently
//! computed tally — a query counted in the tenant the session uses, a
//! cursor verb in the cursor's tenant, whichever one the session uses. (The companion concurrency guarantee — hammered
//! counters lose no increments — is tested inside `cq-obs` itself.)

use cq_server::server::Session;
use cq_server::state::ServerState;
use proptest::prelude::*;
use std::collections::BTreeMap;
use std::sync::Arc;

/// Parse `METRICS` output into `{"<scope> <name>": value}` for
/// counters/gauges and `{"<scope> <name> n": N}` for histograms.
fn metrics_map(session: &mut Session) -> BTreeMap<String, u64> {
    let reply = session.handle_line("METRICS").expect("METRICS always replies");
    assert_eq!(reply.terminal, "OK metrics");
    let mut map = BTreeMap::new();
    for line in &reply.data {
        let mut parts = line.split_whitespace();
        let scope = parts.next().expect("scope");
        let second = parts.next().expect("name");
        if let Some((name, value)) = second.split_once('=') {
            map.insert(format!("{scope} {name}"), value.parse().expect("counter value"));
        } else {
            // histogram: `<scope> <name> n=N p50=... p95=... p99=...`
            let n = parts.next().expect("histogram n field");
            let n = n.strip_prefix("n=").expect("n= prefix").parse().expect("n value");
            map.insert(format!("{scope} {second} n"), n);
        }
    }
    map
}

/// The replayable commands: wire lines, scope they are counted under
/// (`current`: the tenant the session uses), and counter name. Picks 3/4
/// additionally execute a plan (one `op.*` call); pick 2 additionally
/// draws one `errors.no-such-db`; picks 6/7 switch the session's tenant;
/// pick 8 pages the cursor the prelude opened on `p`; pick 9 is a `LOAD`
/// block refused at its `END`, one `errors` of the current tenant and one
/// `errors.arity-mismatch`.
const CMDS: [(&str, &str, &str); 10] = [
    ("PING", "server", "cmd.ping.calls"),
    ("STATS", "server", "cmd.stats.calls"),
    ("USE nope", "server", "cmd.use.calls"),
    ("COUNT q(x, y) :- R(x, y)", "current", "cmd.count.calls"),
    ("DECIDE q() :- R(x, y)", "current", "cmd.decide.calls"),
    ("EXPLAIN COUNT q(x, y) :- R(x, y)", "current", "cmd.explain.calls"),
    ("USE o", "server", "cmd.use.calls"),
    ("USE p", "server", "cmd.use.calls"),
    ("FETCH 0 1", "db.p", "cmd.fetch.calls"),
    ("LOAD R 2\n1\nEND", "current", "cmd.load.calls"),
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn metrics_counters_match_an_independent_tally(
        picks in proptest::collection::vec(0usize..CMDS.len(), 1..40)
    ) {
        let mut session = Session::new(Arc::new(ServerState::new()));
        let mut tally: BTreeMap<String, u64> = BTreeMap::new();
        let bump = |tally: &mut BTreeMap<String, u64>, scope: &str, name: &str| {
            *tally.entry(format!("{scope} {name}")).or_insert(0) += 1;
        };

        // fixed prelude: two tenants with one relation each, and a
        // cursor open on `p`, which the session uses
        for db in ["o", "p"] {
            session.handle_line(&format!("CREATE DB {db}"));
            session.handle_line(&format!("USE {db}"));
            session.handle_line("INSERT R(1, 2)");
            bump(&mut tally, "server", "cmd.create-db.calls");
            bump(&mut tally, "server", "cmd.use.calls");
            bump(&mut tally, &format!("db.{db}"), "cmd.insert.calls");
        }
        let cursor = session.handle_line("CURSOR ANSWERS q(x, y) :- R(x, y)");
        prop_assert_eq!(cursor.expect("CURSOR replies").terminal, "OK cursor 0");
        bump(&mut tally, "db.p", "cmd.cursor.calls");
        let mut current = "db.p";

        let mut executed_plans = 1u64; // the cursor's
        for &i in &picks {
            let (lines, scope, name) = CMDS[i];
            // a block's lines answer nothing until its `END`
            let reply = lines.lines().filter_map(|l| session.handle_line(l)).last();
            let reply = reply.expect("command replies");
            let errs = matches!(i, 2 | 9);
            prop_assert_eq!(reply.terminal.starts_with("ERR "), errs, "{}", reply.terminal);
            bump(&mut tally, if scope == "current" { current } else { scope }, name);
            match i {
                2 => bump(&mut tally, "server", "errors.no-such-db"),
                9 => {
                    bump(&mut tally, current, "errors");
                    bump(&mut tally, "server", "errors.arity-mismatch");
                }
                3 | 4 => executed_plans += 1,
                6 => current = "db.o",
                7 => current = "db.p",
                _ => {}
            }
        }

        let seen = metrics_map(&mut session);
        for (key, &expect) in &tally {
            prop_assert_eq!(seen.get(key).copied(), Some(expect), "counter {}", key);
        }
        // each executed query records exactly one per-operator call
        let op_calls: u64 = seen
            .iter()
            .filter(|(k, _)| k.starts_with("db.") && k.contains(" op.") && k.ends_with(".calls"))
            .map(|(_, &v)| v)
            .sum();
        prop_assert_eq!(op_calls, executed_plans);
        // latency histograms observe the same number of events as the
        // matching call counters
        for (key, &expect) in &tally {
            if let Some(stem) = key.strip_suffix(".calls") {
                prop_assert_eq!(
                    seen.get(&format!("{stem}.latency n")).copied(),
                    Some(expect),
                    "histogram for {}", key
                );
            }
        }
    }
}
