//! Parsers for the instruments `cqd` already exports over the wire:
//! `METRICS` data lines and `EXPLAIN` plan renderings. The formats are
//! the ones pinned by `ci/smoke.golden`; the unit tests below parse
//! lines copied from it, so a server-side format change breaks a test
//! here before it silently zeroes a per-layer metric.

use std::collections::BTreeMap;

/// One `METRICS` dump: counters and gauges by `(scope, name)`.
/// Histogram lines (`… latency n=3 p50=…`) are skipped — the benchmark
/// times round trips itself and takes only counts from the server.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct Scrape {
    values: BTreeMap<(String, String), u64>,
}

impl Scrape {
    pub fn parse<S: AsRef<str>>(lines: &[S]) -> Scrape {
        let mut values = BTreeMap::new();
        for line in lines {
            let mut words = line.as_ref().split_whitespace();
            let (Some(scope), Some(kv), None) =
                (words.next(), words.next(), words.next())
            else {
                continue; // histogram summaries carry more words
            };
            if let Some((name, value)) = kv.split_once('=') {
                if let Ok(v) = value.parse::<u64>() {
                    values.insert((scope.to_string(), name.to_string()), v);
                }
            }
        }
        Scrape { values }
    }

    /// A counter or gauge; 0 when absent (the server omits counters
    /// that never fired).
    pub fn get(&self, scope: &str, name: &str) -> u64 {
        self.values.get(&(scope.to_string(), name.to_string())).copied().unwrap_or(0)
    }

    /// Sum of every metric in `scope` whose name starts with `prefix`
    /// (`errors.` → all error replies, by kind).
    pub fn sum_prefix(&self, scope: &str, prefix: &str) -> u64 {
        self.values
            .iter()
            .filter(|((s, n), _)| s == scope && n.starts_with(prefix))
            .map(|(_, v)| *v)
            .sum()
    }

    /// The same metric summed over every `db.*` scope.
    pub fn sum_tenants(&self, name: &str) -> u64 {
        self.values
            .iter()
            .filter(|((s, n), _)| s.starts_with("db.") && n == name)
            .map(|(_, v)| *v)
            .sum()
    }
}

/// Catalog traffic of the queries in a `PROFILE <db>` reply: the
/// `execute` spans' `catalog-hits` / `catalog-builds` attributes,
/// summed over the retained traces.
///
/// This, not the `catalog.*` gauges of `METRICS`, is what says how warm
/// reads ran on a tenant that is also written: the server pins a *new*
/// catalog object on every effective write, so the gauges restart from
/// zero each time and their deltas mean nothing across a write.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct CatalogTraffic {
    /// Traces with an `execute` span (queries, not writes).
    pub queries: u64,
    pub hits: u64,
    pub builds: u64,
}

impl CatalogTraffic {
    pub fn parse<S: AsRef<str>>(lines: &[S]) -> CatalogTraffic {
        let mut t = CatalogTraffic::default();
        for line in lines {
            let mut words = line.as_ref().split_whitespace();
            if words.next() != Some("span") || !words.any(|w| w == "name=execute") {
                continue;
            }
            t.queries += 1;
            for word in line.as_ref().split_whitespace() {
                if let Some(v) = word.strip_prefix("catalog-hits=") {
                    t.hits += v.parse::<u64>().unwrap_or(0);
                } else if let Some(v) = word.strip_prefix("catalog-builds=") {
                    t.builds += v.parse::<u64>().unwrap_or(0);
                }
            }
        }
        t
    }

    pub fn add(&mut self, other: CatalogTraffic) {
        self.queries += other.queries;
        self.hits += other.hits;
        self.builds += other.builds;
    }

    /// Hits over lookups; 1 when nothing was looked up (nothing missed).
    pub fn hit_ratio(&self) -> f64 {
        match self.hits + self.builds {
            0 => 1.0,
            lookups => self.hits as f64 / lookups as f64,
        }
    }

    pub fn builds_per_query(&self) -> f64 {
        self.builds as f64 / self.queries.max(1) as f64
    }
}

/// What the benchmark reads off an `EXPLAIN` reply.
#[derive(Clone, Debug, PartialEq)]
pub struct Explained {
    /// The operator's stable display name (any `, order […]` dropped).
    pub operator: String,
    /// `e` of the `Õ(m^e)` upper bound (`Õ(m)` is 1).
    pub exponent: f64,
    /// The `m` the plan was costed at.
    pub m: u64,
    pub from_cache: bool,
}

impl Explained {
    pub fn parse<S: AsRef<str>>(lines: &[S]) -> Option<Explained> {
        let mut operator = None;
        let mut bound = None;
        let mut from_cache = false;
        for line in lines {
            let line = line.as_ref().trim();
            if let Some(rest) = line.strip_prefix("operator:") {
                let rest = rest.trim();
                operator =
                    Some(rest.split_once(", order [").map_or(rest, |(name, _)| name));
            } else if let Some(rest) = line.strip_prefix("upper bound:") {
                bound = parse_bound(rest.trim());
            } else if line == "(plan served from shape cache)" {
                from_cache = true;
            }
        }
        let (exponent, m) = bound?;
        Some(Explained { operator: operator?.to_string(), exponent, m, from_cache })
    }
}

/// `Õ(m^1.50) with m = 8 (≈ 2.3e1 ops) […]` or `Õ(m) with m = 8 […]`.
fn parse_bound(text: &str) -> Option<(f64, u64)> {
    let inner = text.strip_prefix("Õ(")?;
    let (cost, rest) = inner.split_once(')')?;
    let exponent = match cost.strip_prefix("m^") {
        Some(e) => e.parse().ok()?,
        None if cost == "m" => 1.0,
        None => return None,
    };
    let m = rest.trim().strip_prefix("with m = ")?;
    let digits: String = m.chars().take_while(char::is_ascii_digit).collect();
    Some((exponent, digits.parse().ok()?))
}

#[cfg(test)]
mod tests {
    use super::*;

    // lines as `cqd` prints them (ci/smoke.golden, `* ` prefix stripped,
    // latency percentiles unmasked)
    const METRICS: &[&str] = &[
        "db.smoke answers.rows=12",
        "db.smoke answers.ttfr.latency n=2 p50=12.3us p95=40us p99=40us",
        "db.smoke catalog.hits=4",
        "db.smoke catalog.invalidations=0",
        "db.smoke catalog.memo.hash-indexes=0",
        "db.smoke catalog.memo.views=2",
        "db.smoke catalog.misses=3",
        "db.smoke cmd.count.calls=3",
        "db.smoke cmd.count.latency n=3 p50=1.2ms p95=2ms p99=2ms",
        "db.smoke errors=3",
        "db.other catalog.hits=7",
        "server errors.budget=3",
        "server errors.parse=1",
        "server plan-cache.hits=16",
        "server plan-cache.misses=8",
        "db.smoke storage.wal.appended-bytes=4096",
    ];

    #[test]
    fn metrics_lines_parse_and_histograms_are_skipped() {
        let s = Scrape::parse(METRICS);
        assert_eq!(s.get("db.smoke", "answers.rows"), 12);
        assert_eq!(s.get("db.smoke", "catalog.misses"), 3);
        assert_eq!(s.get("db.smoke", "catalog.invalidations"), 0);
        assert_eq!(s.get("server", "plan-cache.hits"), 16);
        assert_eq!(s.get("db.smoke", "storage.wal.appended-bytes"), 4096);
        // absent counter reads 0; histogram lines are not values
        assert_eq!(s.get("db.smoke", "timeouts"), 0);
        assert_eq!(s.get("db.smoke", "cmd.count.latency"), 0);
        assert_eq!(s.sum_prefix("server", "errors."), 4);
        assert_eq!(s.sum_tenants("catalog.hits"), 11);
    }

    #[test]
    fn profile_execute_spans_carry_the_catalog_traffic() {
        // the span line format of `EXPLAIN ANALYZE` in ci/smoke.golden,
        // as `PROFILE` prints it (flat, `span depth=… name=… ns=…`)
        let lines = [
            "trace db=smoke spans=2 total-ns=81234 query=\"COUNT q(x, z) :- Follows(x, y), Follows(y, z)\"",
            "span depth=0 name=execute ns=70111 catalog-hits=2 catalog-builds=0 cancel-polls=15 rows=7",
            "span depth=1 name=op.generic-join.count ns=60000 rows=7 cancel-polls=15",
            "trace db=smoke spans=1 total-ns=9000 query=\"INSERT Follows(9, 9)\"",
            "span depth=0 name=wal.append ns=4000 wal-bytes=37",
            "trace db=smoke spans=2 total-ns=99999 query=\"DECIDE q() :- Follows(x, y)\"",
            "span depth=0 name=execute ns=90000 catalog-hits=1 catalog-builds=3 cancel-polls=2 rows=1",
        ];
        let t = CatalogTraffic::parse(&lines);
        assert_eq!(t, CatalogTraffic { queries: 2, hits: 3, builds: 3 });
        assert_eq!(t.hit_ratio(), 0.5);
        assert_eq!(t.builds_per_query(), 1.5);
        assert_eq!(CatalogTraffic::default().hit_ratio(), 1.0);
    }

    #[test]
    fn explain_generic_join_plan_parses() {
        let lines = [
            "PLAN for t() :- Follows(x, y), Follows(y, z), Follows(z, x)",
            "  task:        Boolean decision",
            "  operator:    generic join (worst-case optimal), order [x, y, z]",
            "  upper bound: Õ(m^1.50) with m = 8 (≈ 2.3e1 ops) [§2.1 / Ex 3.4 (AGM-optimal generic join, early stop)]",
            "  optimality:  open — cyclic with self-joins; Thm 3.7 needs self-join-freeness (cf. [14, 26])",
        ];
        assert_eq!(
            Explained::parse(&lines),
            Some(Explained {
                operator: "generic join (worst-case optimal)".to_string(),
                exponent: 1.5,
                m: 8,
                from_cache: false,
            })
        );
    }

    #[test]
    fn explain_linear_cached_plan_parses() {
        let lines = [
            "PLAN for q(x, y) :- Follows(x, y)",
            "  task:        direct access",
            "  operator:    free-connex direct access",
            "  upper bound: Õ(m) with m = 8 [Thm 3.18 [19, 27] (linear preprocessing, log access)]",
            "  optimality:  unconditional — quasi-linear time is optimal up to polylog factors [Thm 3.18]",
            "  (plan served from shape cache)",
        ];
        let e = Explained::parse(&lines).unwrap();
        assert_eq!(e.operator, "free-connex direct access");
        assert_eq!(e.exponent, 1.0);
        assert_eq!(e.m, 8);
        assert!(e.from_cache);
        assert_eq!(Explained::parse(&["ERR parse: nope"]), None);
    }
}
