//! The wire protocol: line-based text requests and framed text replies.
//!
//! ## Requests
//!
//! One command per line (LF or CRLF terminated); verbs are
//! case-insensitive, arguments are case-sensitive. Blank lines are
//! ignored. The grammar:
//!
//! ```text
//! command := PING
//!          | CREATE DB <name>
//!          | USE <name>
//!          | INSERT <rel> ( <val> [, <val>]* )      -- one tuple
//!          | LOAD <rel> <n-cols>                    -- rows follow, then END
//!          | DECIDE  <query-text>
//!          | COUNT   <query-text>
//!          | ANSWERS <query-text>
//!          | EXPLAIN <task> <query-text>            -- task: DECIDE|COUNT|ANSWERS|ACCESS
//!          | EXPLAIN ANALYZE <task> <query-text>    -- plan, execute, annotate with measured spans
//!          | CURSOR ANSWERS|ACCESS <query-text>     -- open a streaming cursor → OK cursor <id>
//!          | FETCH <id> <n>                         -- pull up to n rows (capped at 65536) from a cursor
//!          | SEEK <id> <k>                          -- jump to answer k (direct-access plans, O(1))
//!          | CLOSE <id>                             -- release a cursor
//!          | BATCH                                  -- items follow, then END
//!          | SAVE                                   -- checkpoint the current tenant
//!          | DROP DB <name>                         -- delete a tenant database
//!          | DROP <rel>                             -- delete one relation
//!          | STATS [<name>]                         -- server stats / tenant detail
//!          | METRICS [<name>]                       -- metrics registry / one tenant's scope
//!          | METRICS RATE [<name>] [<window-s>]     -- windowed counter rates from the history ring
//!          | PROFILE <name>                         -- a tenant's recent query traces (needs --profile)
//!          | SET BUDGET <name> MAX-EXPONENT <e>     -- admission control: cap plan cost m^e
//!          | SET BUDGET <name> MAX-ROWS <n>         -- ...or cap estimated operations
//!          | SET BUDGET <name> NONE                 -- clear both caps
//!          | SET TIMEOUT <name> <ms>                -- per-query evaluation deadline
//!          | SET TIMEOUT <name> NONE                -- clear the deadline
//!          | RESUME <name>                          -- restore a degraded tenant to read-write
//!          | SHIP                                   -- replication: list tenant ship positions
//!          | SHIP <db> <epoch> <offset>             -- replication: next snapshot/WAL segment
//!          | QUIT
//! ```
//!
//! `<query-text>` is the `cq_core::parser` syntax, e.g.
//! `q(x, z) :- R(x, y), S(y, z)`. `LOAD` rows are values separated by
//! whitespace and/or commas; `BATCH` items are `DECIDE|COUNT|ANSWERS
//! <query-text>` lines.
//!
//! A request line — a command, a `LOAD` row, a `BATCH` item — is at
//! most [`MAX_REQUEST_LINE_BYTES`](crate::server::MAX_REQUEST_LINE_BYTES)
//! long, terminator included; a longer one is refused with `ERR usage`
//! and discarded unbuffered, and the session carries on.
//!
//! The grammar says what a verb *looks like*; which tenant it addresses,
//! whether it writes (and so is refused on a replica or a degraded
//! tenant) and which handler runs are its row of the verb table in
//! `server/session.rs`. A new verb is one line here, one [`Command`]
//! variant, one row there and one handler.
//!
//! ## Replies
//!
//! Every command produces exactly one reply: zero or more *data lines*,
//! each prefixed `* `, followed by exactly one *terminal line* that is
//! either `OK <info>` or `ERR <kind>: <message>`. Clients read lines
//! until the terminal. Errors never drop the connection — the session
//! keeps serving after any `ERR`.

use cq_data::{Relation, Val};
use cq_planner::Task;
use std::fmt;

/// Prefix of every data line on the wire.
pub const DATA_PREFIX: &str = "* ";
/// Terminator line for `LOAD` and `BATCH` blocks.
pub const END_KEYWORD: &str = "END";

/// Declares [`ErrKind`] from one row per kind — its documentation,
/// its name and its wire spelling — so the enum, [`ALL_ERR_KINDS`] and
/// [`ErrKind::as_str`] cannot disagree.
macro_rules! err_kinds {
    ($($(#[$doc:meta])* $kind:ident => $wire:literal,)+) => {
        /// Machine-readable error classes, rendered as `ERR <kind>: <message>`.
        #[derive(Clone, Copy, PartialEq, Eq, Debug)]
        pub enum ErrKind {
            $($(#[$doc])* $kind,)+
        }

        /// Every error kind, in declaration order — the shared vocabulary
        /// both wire ends iterate (the client's [`ErrKind::parse`],
        /// kind-exhaustive tests).
        pub const ALL_ERR_KINDS: [ErrKind; [$($wire),+].len()] = [$(ErrKind::$kind),+];

        impl ErrKind {
            /// The wire spelling of this kind.
            pub fn as_str(self) -> &'static str {
                match self {
                    $(ErrKind::$kind => $wire,)+
                }
            }
        }
    };
}

err_kinds! {
    /// Verb not in the protocol grammar.
    UnknownCommand => "unknown-command",
    /// The request line is not valid UTF-8.
    BadUtf8 => "bad-utf8",
    /// Verb recognized but arguments malformed.
    Usage => "usage",
    /// Database name outside `[A-Za-z0-9_]{1,64}`.
    BadName => "bad-name",
    /// `CREATE DB` of an existing tenant.
    Exists => "exists",
    /// `USE` of an unknown tenant.
    NoSuchDb => "no-such-db",
    /// A data or query command before any `USE`.
    NoDb => "no-db",
    /// A tuple value is not a `u64`.
    BadValue => "bad-value",
    /// A tuple's width disagrees with the relation's arity.
    ArityMismatch => "arity-mismatch",
    /// `DROP` of a relation the current tenant does not have.
    NoSuchRelation => "no-such-relation",
    /// Query text rejected by `cq_core::parser` (syntax or semantics).
    Parse => "parse",
    /// The engine rejected the evaluation (e.g. missing relation).
    Eval => "eval",
    /// Durable storage refused: `SAVE` on an in-memory server, or a
    /// disk error while persisting a mutation or checkpoint.
    Storage => "storage",
    /// Admission control: the plan's cost exceeds the tenant's
    /// `SET BUDGET` cap; the message carries the lower-bound citation.
    Budget => "budget",
    /// Evaluation exceeded the tenant's `SET TIMEOUT` deadline (or was
    /// cancelled because the client disconnected); the message carries
    /// the plan's cost exponent and its lower-bound citation.
    Timeout => "timeout",
    /// The tenant is in read-only degraded mode after an unrecoverable
    /// storage failure; mutations refuse until `RESUME <db>` succeeds.
    Degraded => "degraded",
    /// The server is saturated (every session slot is taken); the
    /// connection is shed after this reply.
    Busy => "busy",
    /// The operation is structurally impossible for this plan — e.g.
    /// `SEEK` on a cursor whose operator enumerates with constant delay
    /// but has no random access; the message cites the plan op.
    Unsupported => "unsupported",
    /// `FETCH`/`SEEK`/`CLOSE` of a cursor id this session never opened
    /// (or already closed).
    NoSuchCursor => "no-such-cursor",
    /// A relation the cursor reads mutated (or the tenant was dropped)
    /// since the cursor pinned its versions. The cursor is closed;
    /// re-open to see the new data.
    StaleCursor => "stale-cursor",
    /// `CURSOR` beyond the per-session open-cursor limit.
    CursorLimit => "cursor-limit",
    /// A mutation verb on a read-only replica (`cqd --replica-of`);
    /// the message names the primary that accepts writes.
    ReadOnly => "read-only",
    /// A command handler panicked; the session survives.
    Internal => "internal",
    /// `PROFILE` on a server whose trace ring is disabled (`cqd` was
    /// started without `--profile N`); the message says how to enable
    /// it.
    TracingOff => "tracing-off",
}

impl ErrKind {
    /// The kind spelled `s` on the wire, if any — the client-side half
    /// of the shared vocabulary ([`Reply::err_kind`] uses this to type
    /// an `ERR <kind>: …` terminal).
    pub fn parse(s: &str) -> Option<ErrKind> {
        ALL_ERR_KINDS.iter().copied().find(|k| k.as_str() == s)
    }
}

impl fmt::Display for ErrKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One framed reply: data lines plus the terminal `OK`/`ERR` line.
///
/// [`Reply::write_to`] produces the wire form; [`crate::client::Client`]
/// parses it back into this same type, so servers, clients, and tests
/// all speak through one representation.
#[derive(Clone, PartialEq, Eq, Debug)]
pub struct Reply {
    /// Data lines, without the `* ` prefix.
    pub data: Vec<String>,
    /// The terminal line: `OK ...` or `ERR <kind>: ...`.
    pub terminal: String,
}

impl Reply {
    /// A success reply with no data lines.
    pub fn ok(info: impl fmt::Display) -> Reply {
        Reply::ok_with(Vec::new(), info)
    }

    /// A success reply with data lines (empty `info` renders as a bare
    /// `OK` terminal).
    pub fn ok_with(data: Vec<String>, info: impl fmt::Display) -> Reply {
        let info = info.to_string();
        let terminal =
            if info.is_empty() { "OK".to_string() } else { format!("OK {info}") };
        Reply { data, terminal }
    }

    /// An error reply with no data lines.
    pub fn err(kind: ErrKind, msg: impl fmt::Display) -> Reply {
        Reply { data: Vec::new(), terminal: format!("ERR {kind}: {msg}") }
    }

    /// An error reply with context data lines (e.g. a parse-error
    /// source snippet).
    pub fn err_with(kind: ErrKind, data: Vec<String>, msg: impl fmt::Display) -> Reply {
        Reply { data, terminal: format!("ERR {kind}: {msg}") }
    }

    /// Is the terminal line an `OK`?
    pub fn is_ok(&self) -> bool {
        self.terminal.starts_with("OK")
    }

    /// The typed kind of an `ERR <kind>: …` terminal; `None` for `OK`
    /// replies (and for kinds this build does not know, which a
    /// version-skewed peer could send).
    pub fn err_kind(&self) -> Option<ErrKind> {
        let rest = self.terminal.strip_prefix("ERR ")?;
        ErrKind::parse(rest.split(':').next()?.trim())
    }

    /// The text after `OK `, if this is a success reply.
    pub fn ok_info(&self) -> Option<&str> {
        self.terminal.strip_prefix("OK ").or_else(|| {
            if self.terminal == "OK" {
                Some("")
            } else {
                None
            }
        })
    }

    /// Serialize to the wire form (each line newline-terminated).
    pub fn write_to(&self, out: &mut impl std::io::Write) -> std::io::Result<()> {
        for d in &self.data {
            writeln!(out, "{DATA_PREFIX}{d}")?;
        }
        writeln!(out, "{}", self.terminal)
    }
}

/// A parsed request line.
///
/// (`PartialEq` only — `SET BUDGET` carries an `f64` exponent.)
#[derive(Clone, PartialEq, Debug)]
pub enum Command {
    /// Liveness probe.
    Ping,
    /// Create a tenant database.
    CreateDb(String),
    /// Select the connection's current tenant.
    Use(String),
    /// Insert one tuple into a relation of the current tenant.
    Insert {
        /// Relation name.
        relation: String,
        /// The tuple (its length fixes the arity on first insert).
        values: Vec<Val>,
    },
    /// Open a bulk-load block (rows until `END`).
    Load {
        /// Relation name.
        relation: String,
        /// Expected number of columns per row.
        cols: usize,
    },
    /// Evaluate a query under a task.
    Query {
        /// Which task to run (never [`Task::Access`] — that is
        /// EXPLAIN-only).
        task: Task,
        /// Raw query text.
        src: String,
    },
    /// Plan and render without executing.
    Explain {
        /// Task to plan for (may be [`Task::Access`]).
        task: Task,
        /// Raw query text.
        src: String,
    },
    /// Plan, render, execute under a trace, and report measured
    /// per-operator spans alongside the plan.
    ExplainAnalyze {
        /// Task to run (never [`Task::Access`] — there is nothing to
        /// execute for a bare access structure).
        task: Task,
        /// Raw query text.
        src: String,
    },
    /// Open a streaming cursor over a query's answers; the reply is
    /// `OK cursor <id>`.
    Cursor {
        /// [`Task::Answers`] (`CURSOR ANSWERS`, constant-delay or
        /// materialized stream) or [`Task::Access`] (`CURSOR ACCESS`,
        /// direct-access stream with O(1) `SEEK`).
        task: Task,
        /// Raw query text.
        src: String,
    },
    /// Pull up to `n` rows from an open cursor.
    Fetch {
        /// Cursor id from `OK cursor <id>`.
        id: u64,
        /// Maximum rows to return.
        n: u64,
    },
    /// Position a cursor at the k-th answer (0-based); `ERR
    /// unsupported` when the plan has no random access.
    SeekCursor {
        /// Cursor id.
        id: u64,
        /// Target answer index.
        k: u64,
    },
    /// Release a cursor.
    CloseCursor {
        /// Cursor id.
        id: u64,
    },
    /// Open a batch block (items until `END`).
    Batch,
    /// Checkpoint the current tenant (snapshot + WAL truncation);
    /// refused on an in-memory server.
    Save,
    /// Delete a tenant database (registry and, when persistent, disk).
    DropDb(String),
    /// Delete one relation of the current tenant.
    DropRelation(String),
    /// Server statistics, or detailed statistics for one tenant.
    Stats {
        /// `STATS <name>`: the tenant to detail; bare `STATS` is the
        /// server-wide summary.
        db: Option<String>,
    },
    /// Dump the metrics registry, or one tenant's scope.
    Metrics {
        /// `METRICS <name>`: limit to that tenant's scope; bare
        /// `METRICS` renders every scope.
        db: Option<String>,
    },
    /// Windowed counter rates from the metrics history ring (also
    /// captures a fresh snapshot into the ring first).
    MetricsRate {
        /// `METRICS RATE <name> …`: limit to that tenant's scope.
        db: Option<String>,
        /// `METRICS RATE … <window-s>`: how far back (in seconds) the
        /// baseline snapshot may lie; `None` spans the whole ring.
        window_s: Option<u64>,
    },
    /// A tenant's recent query traces (`ERR tracing-off` unless the
    /// server was started with `--profile N`).
    Profile {
        /// The tenant whose trace ring to dump.
        db: String,
    },
    /// Set (or clear) a tenant's admission-control budget.
    SetBudget {
        /// The tenant whose budget changes.
        db: String,
        /// Which cap, and its value.
        setting: BudgetSetting,
    },
    /// Set (or clear) a tenant's per-query evaluation deadline.
    SetTimeout {
        /// The tenant whose deadline changes.
        db: String,
        /// Deadline in milliseconds; `None` clears it.
        ms: Option<u64>,
    },
    /// Restore a degraded (read-only) tenant to read-write by rolling
    /// a fresh WAL segment (checkpoint + log reset).
    Resume(String),
    /// Replication pull: bare `SHIP` lists every tenant's shippable
    /// position (`<name> <epoch> <wal-len>` lines); `SHIP <db> <epoch>
    /// <offset>` ships the next segment past the replica's position —
    /// WAL record bytes when the epoch matches the primary's live log,
    /// the whole snapshot otherwise.
    Ship {
        /// `None` for the bare listing form.
        db: Option<String>,
        /// The epoch the replica has applied through (listing: unused).
        epoch: u64,
        /// The WAL byte offset the replica has fetched through
        /// (listing: unused).
        offset: u64,
    },
    /// Close the session.
    Quit,
}

/// The value side of `SET BUDGET <db> …`.
#[derive(Clone, PartialEq, Debug)]
pub enum BudgetSetting {
    /// `MAX-EXPONENT <e>`: reject plans with cost exponent above `e`.
    MaxExponent(f64),
    /// `MAX-ROWS <n>`: reject plans whose estimated operation count
    /// (the AGM-style worst case `m^e`) exceeds `n`.
    MaxRows(u64),
    /// `NONE`: clear both caps.
    Clear,
}

impl fmt::Display for BudgetSetting {
    /// The wire spelling of the value side — what
    /// [`Client::set_budget`](crate::Client::set_budget) sends after
    /// `SET BUDGET <db> `.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BudgetSetting::MaxExponent(e) => write!(f, "MAX-EXPONENT {e}"),
            BudgetSetting::MaxRows(n) => write!(f, "MAX-ROWS {n}"),
            BudgetSetting::Clear => write!(f, "NONE"),
        }
    }
}

/// Parse a request line (already trimmed, non-empty).
pub fn parse_command(line: &str) -> Result<Command, Reply> {
    let (verb, rest) = split_word(line);
    let verb_uc = verb.to_ascii_uppercase();
    match verb_uc.as_str() {
        "PING" => expect_no_args(rest, Command::Ping),
        "CREATE" => {
            let (kw, name) = split_word(rest);
            if !kw.eq_ignore_ascii_case("DB") {
                return Err(usage("usage: CREATE DB <name>"));
            }
            Ok(Command::CreateDb(valid_db_name(name)?))
        }
        "USE" => Ok(Command::Use(valid_db_name(rest)?)),
        "INSERT" => parse_insert(rest),
        "LOAD" => {
            let (relation, cols_txt) = split_word(rest);
            if relation.is_empty() || cols_txt.is_empty() {
                return Err(usage("usage: LOAD <rel> <n-cols>"));
            }
            let cols: usize = cols_txt.trim().parse().map_err(|_| {
                usage(format!(
                    "LOAD column count must be a number, got `{}`",
                    cols_txt.trim()
                ))
            })?;
            // the log stores an arity in 32 bits
            if u32::try_from(cols).is_err() {
                return Err(usage(format!(
                    "LOAD column count {cols} exceeds {}",
                    u32::MAX
                )));
            }
            Ok(Command::Load { relation: valid_relation_name(relation)?, cols })
        }
        "DECIDE" | "COUNT" | "ANSWERS" => {
            let task = query_task(&verb_uc).expect("verb matched above");
            if rest.is_empty() {
                return Err(usage(format!("usage: {verb_uc} <query>")));
            }
            Ok(Command::Query { task, src: rest.to_string() })
        }
        "EXPLAIN" => {
            let (task_txt, src) = split_word(rest);
            if task_txt.eq_ignore_ascii_case("ANALYZE") {
                let (task_txt, src) = split_word(src);
                let task =
                    query_task(&task_txt.to_ascii_uppercase()).ok_or_else(|| {
                        usage("usage: EXPLAIN ANALYZE DECIDE|COUNT|ANSWERS <query>")
                    })?;
                if src.is_empty() {
                    return Err(usage("EXPLAIN ANALYZE needs a query"));
                }
                return Ok(Command::ExplainAnalyze { task, src: src.to_string() });
            }
            let task = explain_task(task_txt).ok_or_else(|| {
                usage("usage: EXPLAIN [ANALYZE] DECIDE|COUNT|ANSWERS|ACCESS <query>")
            })?;
            if src.is_empty() {
                return Err(usage("EXPLAIN needs a query"));
            }
            Ok(Command::Explain { task, src: src.to_string() })
        }
        "CURSOR" => {
            const USAGE: &str = "usage: CURSOR ANSWERS|ACCESS <query>";
            let (task_txt, src) = split_word(rest);
            let task = match task_txt.to_ascii_uppercase().as_str() {
                "ANSWERS" => Task::Answers,
                "ACCESS" => Task::Access,
                _ => return Err(usage(USAGE)),
            };
            if src.is_empty() {
                return Err(usage(USAGE));
            }
            Ok(Command::Cursor { task, src: src.to_string() })
        }
        "FETCH" => {
            let (id, n) = parse_two_u64(rest, "usage: FETCH <cursor-id> <n-rows>")?;
            Ok(Command::Fetch { id, n })
        }
        "SEEK" => {
            let (id, k) = parse_two_u64(rest, "usage: SEEK <cursor-id> <answer-index>")?;
            Ok(Command::SeekCursor { id, k })
        }
        "CLOSE" => {
            let id = rest
                .trim()
                .parse::<u64>()
                .map_err(|_| usage("usage: CLOSE <cursor-id>"))?;
            Ok(Command::CloseCursor { id })
        }
        "BATCH" => expect_no_args(rest, Command::Batch),
        "SAVE" => expect_no_args(rest, Command::Save),
        "DROP" => {
            let (first, more) = split_word(rest);
            if first.eq_ignore_ascii_case("DB") {
                if more.is_empty() {
                    return Err(usage("usage: DROP DB <name>"));
                }
                Ok(Command::DropDb(valid_db_name(more)?))
            } else if first.is_empty() {
                Err(usage("usage: DROP DB <name> | DROP <rel>"))
            } else if !more.is_empty() {
                Err(usage(format!("unexpected arguments `{more}`")))
            } else {
                // `DB` wins the grammar race: a relation literally
                // named DB/db cannot be dropped over the wire
                Ok(Command::DropRelation(valid_relation_name(first)?))
            }
        }
        "STATS" => Ok(Command::Stats { db: optional_db_name(rest)? }),
        "METRICS" => {
            let (first, more) = split_word(rest);
            if first.eq_ignore_ascii_case("RATE") {
                return parse_metrics_rate(more);
            }
            Ok(Command::Metrics { db: optional_db_name(rest)? })
        }
        "PROFILE" => Ok(Command::Profile { db: valid_db_name(rest)? }),
        "SET" => parse_set(rest),
        "SHIP" => {
            if rest.is_empty() {
                return Ok(Command::Ship { db: None, epoch: 0, offset: 0 });
            }
            let (name, pos) = split_word(rest);
            let db = valid_db_name(name)?;
            let (epoch, offset) =
                parse_two_u64(pos, "usage: SHIP | SHIP <db> <epoch> <offset>")?;
            Ok(Command::Ship { db: Some(db), epoch, offset })
        }
        "RESUME" => Ok(Command::Resume(valid_db_name(rest)?)),
        "QUIT" => expect_no_args(rest, Command::Quit),
        _ => Err(Reply::err(ErrKind::UnknownCommand, format!("`{verb}`"))),
    }
}

/// The task behind a `DECIDE`/`COUNT`/`ANSWERS` verb (upper-cased), also
/// used for `BATCH` item lines.
pub fn query_task(verb_uc: &str) -> Option<Task> {
    match verb_uc {
        "DECIDE" => Some(Task::Decide),
        "COUNT" => Some(Task::Count),
        "ANSWERS" => Some(Task::Answers),
        _ => None,
    }
}

fn explain_task(word: &str) -> Option<Task> {
    let uc = word.to_ascii_uppercase();
    query_task(&uc).or(if uc == "ACCESS" { Some(Task::Access) } else { None })
}

/// Parse the tail of `METRICS RATE [<name>] [<window-s>]`. A single
/// argument that parses as a number is a window; otherwise it is a
/// tenant name (tenant names never start with a digit — see
/// [`valid_db_name`]'s identifier rule — so the forms cannot collide).
fn parse_metrics_rate(rest: &str) -> Result<Command, Reply> {
    const USAGE: &str = "usage: METRICS RATE [<name>] [<window-s>]";
    if rest.is_empty() {
        return Ok(Command::MetricsRate { db: None, window_s: None });
    }
    let (first, more) = split_word(rest);
    if let Ok(w) = first.parse::<u64>() {
        return expect_no_args(
            more,
            Command::MetricsRate { db: None, window_s: Some(w) },
        );
    }
    let db = valid_db_name(first)?;
    if more.is_empty() {
        return Ok(Command::MetricsRate { db: Some(db), window_s: None });
    }
    let w = more.trim().parse::<u64>().map_err(|_| usage(USAGE))?;
    Ok(Command::MetricsRate { db: Some(db), window_s: Some(w) })
}

/// Parse exactly two u64 arguments (for `FETCH`/`SEEK`).
fn parse_two_u64(rest: &str, form: &str) -> Result<(u64, u64), Reply> {
    let (a, b) = split_word(rest);
    let (Ok(a), Ok(b)) = (a.parse::<u64>(), b.trim().parse::<u64>()) else {
        return Err(usage(form));
    };
    Ok((a, b))
}

/// An `ERR usage` reply: the verb was recognized, its arguments were not.
fn usage(msg: impl fmt::Display) -> Reply {
    Reply::err(ErrKind::Usage, msg)
}

fn expect_no_args(rest: &str, cmd: Command) -> Result<Command, Reply> {
    if rest.is_empty() {
        Ok(cmd)
    } else {
        Err(usage(format!("unexpected arguments `{rest}`")))
    }
}

/// Split off the first whitespace-delimited word; both halves trimmed.
pub(crate) fn split_word(s: &str) -> (&str, &str) {
    let s = s.trim();
    match s.find(char::is_whitespace) {
        Some(i) => (&s[..i], s[i..].trim_start()),
        None => (s, ""),
    }
}

fn is_ident(name: &str) -> bool {
    !name.is_empty()
        && name.len() <= 64
        && name.chars().all(|c| c.is_ascii_alphanumeric() || c == '_')
}

fn valid_db_name(name: &str) -> Result<String, Reply> {
    valid_name("database", name)
}

/// The `[<name>]` of `STATS`/`METRICS`: absent, or a valid database name.
fn optional_db_name(rest: &str) -> Result<Option<String>, Reply> {
    if rest.is_empty() {
        Ok(None)
    } else {
        valid_db_name(rest).map(Some)
    }
}

/// Relation names must be query-grammar identifiers, or the inserted
/// data could never be referenced by any query.
fn valid_relation_name(name: &str) -> Result<String, Reply> {
    valid_name("relation", name)
}

fn valid_name(what: &str, name: &str) -> Result<String, Reply> {
    let name = name.trim();
    if is_ident(name) {
        Ok(name.to_string())
    } else {
        Err(Reply::err(
            ErrKind::BadName,
            format!("{what} names are [A-Za-z0-9_]{{1,64}}, got `{name}`"),
        ))
    }
}

/// Parse the tail of a `SET …` command (the leading `SET` is already
/// consumed): `SET BUDGET <db> …` or `SET TIMEOUT <db> <ms>|NONE`.
fn parse_set(rest: &str) -> Result<Command, Reply> {
    let (kw, rest) = split_word(rest);
    if kw.eq_ignore_ascii_case("BUDGET") {
        parse_set_budget(rest)
    } else if kw.eq_ignore_ascii_case("TIMEOUT") {
        parse_set_timeout(rest)
    } else {
        Err(usage("usage: SET BUDGET <db> … | SET TIMEOUT <db> <ms>|NONE"))
    }
}

/// Parse the tail of `SET TIMEOUT <db> <ms> | NONE`.
fn parse_set_timeout(rest: &str) -> Result<Command, Reply> {
    const USAGE: &str = "usage: SET TIMEOUT <db> <ms> | NONE";
    let (name, value) = split_word(rest);
    if name.is_empty() || value.is_empty() {
        return Err(usage(USAGE));
    }
    let db = valid_db_name(name)?;
    let ms = if value.eq_ignore_ascii_case("NONE") {
        None
    } else {
        Some(value.parse::<u64>().map_err(|_| {
            usage(format!(
                "SET TIMEOUT takes milliseconds (a u64) or NONE, got `{value}`"
            ))
        })?)
    };
    Ok(Command::SetTimeout { db, ms })
}

/// Parse the tail of `SET BUDGET <db> MAX-EXPONENT <e> | MAX-ROWS <n>
/// | NONE` (the leading `SET BUDGET` is already consumed).
fn parse_set_budget(rest: &str) -> Result<Command, Reply> {
    const USAGE: &str = "usage: SET BUDGET <db> MAX-EXPONENT <e> | MAX-ROWS <n> | NONE";
    let (name, rest) = split_word(rest);
    if name.is_empty() {
        return Err(usage(USAGE));
    }
    let db = valid_db_name(name)?;
    let (which, value) = split_word(rest);
    let setting = match which.to_ascii_uppercase().as_str() {
        "NONE" if value.is_empty() => BudgetSetting::Clear,
        "MAX-EXPONENT" => {
            let e: f64 = value.parse().map_err(|_| {
                usage(format!("MAX-EXPONENT takes a number, got `{value}`"))
            })?;
            if !e.is_finite() || e < 0.0 {
                return Err(usage(format!(
                    "MAX-EXPONENT must be finite and non-negative, got `{value}`"
                )));
            }
            BudgetSetting::MaxExponent(e)
        }
        "MAX-ROWS" => {
            let n: u64 = value
                .parse()
                .map_err(|_| usage(format!("MAX-ROWS takes a u64, got `{value}`")))?;
            BudgetSetting::MaxRows(n)
        }
        _ => return Err(usage(USAGE)),
    };
    Ok(Command::SetBudget { db, setting })
}

fn parse_insert(rest: &str) -> Result<Command, Reply> {
    const USAGE: &str = "usage: INSERT <rel>(<v>, <v>, ...)";
    let rest = rest.trim();
    let open = rest.find('(').ok_or_else(|| usage(USAGE))?;
    if !rest.ends_with(')') {
        return Err(usage(USAGE));
    }
    let relation = valid_relation_name(&rest[..open])?;
    let inner = &rest[open + 1..rest.len() - 1];
    let values = parse_row(inner)
        .map_err(|bad| Reply::err(ErrKind::BadValue, format!("`{bad}` is not a u64")))?;
    Ok(Command::Insert { relation, values })
}

/// Parse one row of values separated by whitespace and/or commas.
/// Returns the offending token on failure.
pub fn parse_row(line: &str) -> Result<Vec<Val>, String> {
    line.split(|c: char| c == ',' || c.is_whitespace())
        .filter(|t| !t.is_empty())
        .map(|t| t.parse::<Val>().map_err(|_| t.to_string()))
        .collect()
}

/// Encode bytes as lowercase hex for `SHIP` data lines (the wire is
/// line-based text; raw WAL/snapshot bytes must not contain newlines).
pub fn hex_encode(bytes: &[u8]) -> String {
    let mut s = String::with_capacity(bytes.len() * 2);
    for b in bytes {
        use std::fmt::Write as _;
        write!(s, "{b:02x}").expect("writing to a String cannot fail");
    }
    s
}

/// Decode a `SHIP` hex data line back to bytes. Returns the offending
/// character on failure.
pub fn hex_decode(s: &str) -> Result<Vec<u8>, String> {
    let s = s.trim();
    if !s.len().is_multiple_of(2) {
        return Err("odd-length hex line".to_string());
    }
    let digits = s.as_bytes();
    let mut out = Vec::with_capacity(digits.len() / 2);
    for pair in digits.chunks_exact(2) {
        let hi = (pair[0] as char).to_digit(16);
        let lo = (pair[1] as char).to_digit(16);
        match (hi, lo) {
            (Some(hi), Some(lo)) => out.push((hi * 16 + lo) as u8),
            _ => return Err(format!("`{}` is not hex", String::from_utf8_lossy(pair))),
        }
    }
    Ok(out)
}

/// Render one answer row for the wire onto the end of `out`: values
/// as decimal digits, space-separated, the empty (nullary) row as
/// `()`. Allocates nothing beyond `out`'s own growth — the streaming
/// drain renders every row of a result into one reused chunk buffer.
pub fn render_row_into(out: &mut Vec<u8>, row: &[Val]) {
    if row.is_empty() {
        out.extend_from_slice(b"()");
        return;
    }
    // u64::MAX has 20 digits; fill from the back, copy the used tail
    let mut digits = [0u8; 20];
    for (i, &val) in row.iter().enumerate() {
        if i > 0 {
            out.push(b' ');
        }
        let mut v = val;
        let mut at = digits.len();
        loop {
            at -= 1;
            digits[at] = b'0' + (v % 10) as u8;
            v /= 10;
            if v == 0 {
                break;
            }
        }
        out.extend_from_slice(&digits[at..]);
    }
}

/// [`render_row_into`] as an owned line — for oracles, tests and
/// one-off replies; the streaming drain never calls it.
pub fn render_row(row: &[Val]) -> String {
    // one allocation: each value's digits plus its separator
    let digits = |v: &Val| v.checked_ilog10().unwrap_or(0) as usize + 2;
    let mut out = Vec::with_capacity(row.iter().map(digits).sum::<usize>().max(2));
    render_row_into(&mut out, row);
    String::from_utf8(out).expect("digits, spaces and parentheses are ASCII")
}

/// Render an answer relation as wire data lines, rows in the
/// relation's order. `ANSWERS` streams rows in the *plan's*
/// deterministic order (enumeration / direct-access order), so tests
/// compare a sorted copy of the server payload against this rendering
/// of normalized `EvalCtx::answers` results — same set, byte-for-byte,
/// modulo order.
pub fn render_rows(rel: &Relation) -> Vec<String> {
    rel.iter().map(render_row).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn verbs_parse_case_insensitively() {
        assert_eq!(parse_command("ping").unwrap(), Command::Ping);
        assert_eq!(parse_command("PING").unwrap(), Command::Ping);
        assert_eq!(
            parse_command("create db t1").unwrap(),
            Command::CreateDb("t1".into())
        );
        assert_eq!(parse_command("USE t1").unwrap(), Command::Use("t1".into()));
        assert_eq!(
            parse_command("LOAD Edge 2").unwrap(),
            Command::Load { relation: "Edge".into(), cols: 2 }
        );
        // a column count the log cannot store is refused before the block
        assert!(parse_command("LOAD Edge 4294967295").is_ok());
        let e = parse_command("LOAD Edge 4294967296").unwrap_err();
        assert!(e.terminal.starts_with("ERR usage:"), "{}", e.terminal);
        assert_eq!(parse_command("batch").unwrap(), Command::Batch);
        assert_eq!(parse_command("STATS").unwrap(), Command::Stats { db: None });
        assert_eq!(parse_command("save").unwrap(), Command::Save);
        assert_eq!(parse_command("quit").unwrap(), Command::Quit);
    }

    #[test]
    fn cursor_commands_parse() {
        assert_eq!(
            parse_command("CURSOR ANSWERS q(x) :- R(x)").unwrap(),
            Command::Cursor { task: Task::Answers, src: "q(x) :- R(x)".into() }
        );
        assert_eq!(
            parse_command("cursor access q(x) :- R(x)").unwrap(),
            Command::Cursor { task: Task::Access, src: "q(x) :- R(x)".into() }
        );
        assert_eq!(
            parse_command("FETCH 3 100").unwrap(),
            Command::Fetch { id: 3, n: 100 }
        );
        assert_eq!(
            parse_command("seek 3 7").unwrap(),
            Command::SeekCursor { id: 3, k: 7 }
        );
        assert_eq!(parse_command("CLOSE 3").unwrap(), Command::CloseCursor { id: 3 });
        // malformed variants are usage errors
        for bad in [
            "CURSOR",
            "CURSOR COUNT q(x) :- R(x)",
            "CURSOR ANSWERS",
            "FETCH 3",
            "FETCH x 10",
            "SEEK 3",
            "CLOSE",
            "CLOSE x",
        ] {
            let e = parse_command(bad).unwrap_err();
            assert!(e.terminal.starts_with("ERR usage:"), "{bad}: {}", e.terminal);
        }
    }

    #[test]
    fn explain_analyze_and_observability_verbs_parse() {
        assert_eq!(
            parse_command("EXPLAIN ANALYZE COUNT q() :- R(x)").unwrap(),
            Command::ExplainAnalyze { task: Task::Count, src: "q() :- R(x)".into() }
        );
        assert_eq!(
            parse_command("explain analyze answers q(x) :- R(x)").unwrap(),
            Command::ExplainAnalyze { task: Task::Answers, src: "q(x) :- R(x)".into() }
        );
        assert_eq!(
            parse_command("PROFILE t1").unwrap(),
            Command::Profile { db: "t1".into() }
        );
        assert_eq!(
            parse_command("METRICS RATE").unwrap(),
            Command::MetricsRate { db: None, window_s: None }
        );
        assert_eq!(
            parse_command("metrics rate 60").unwrap(),
            Command::MetricsRate { db: None, window_s: Some(60) }
        );
        assert_eq!(
            parse_command("METRICS RATE t1").unwrap(),
            Command::MetricsRate { db: Some("t1".into()), window_s: None }
        );
        assert_eq!(
            parse_command("METRICS RATE t1 60").unwrap(),
            Command::MetricsRate { db: Some("t1".into()), window_s: Some(60) }
        );
        // plain METRICS forms still parse
        assert_eq!(parse_command("METRICS").unwrap(), Command::Metrics { db: None });
        assert_eq!(
            parse_command("METRICS t1").unwrap(),
            Command::Metrics { db: Some("t1".into()) }
        );
        for bad in [
            "EXPLAIN ANALYZE",
            "EXPLAIN ANALYZE ACCESS q(x) :- R(x)", // nothing to execute
            "EXPLAIN ANALYZE COUNT",
            "PROFILE",
            "METRICS RATE 60 extra",
            "METRICS RATE t1 sixty",
        ] {
            let e = parse_command(bad).unwrap_err();
            assert!(
                e.terminal.starts_with("ERR usage")
                    || e.terminal.starts_with("ERR bad-name"),
                "{bad}: {}",
                e.terminal
            );
        }
    }

    #[test]
    fn drop_and_stats_variants_parse() {
        assert_eq!(parse_command("DROP DB t1").unwrap(), Command::DropDb("t1".into()));
        assert_eq!(parse_command("drop db t1").unwrap(), Command::DropDb("t1".into()));
        assert_eq!(
            parse_command("DROP Edge").unwrap(),
            Command::DropRelation("Edge".into())
        );
        assert_eq!(
            parse_command("STATS t1").unwrap(),
            Command::Stats { db: Some("t1".into()) }
        );
        for bad in ["DROP", "DROP DB", "DROP Edge extra", "DROP my-rel", "STATS sp ace"] {
            let e = parse_command(bad).unwrap_err();
            assert!(
                e.terminal.starts_with("ERR usage")
                    || e.terminal.starts_with("ERR bad-name"),
                "{bad}: {}",
                e.terminal
            );
        }
        assert!(parse_command("SAVE now").is_err());
    }

    #[test]
    fn insert_parses_tuples() {
        assert_eq!(
            parse_command("INSERT R(1, 2)").unwrap(),
            Command::Insert { relation: "R".into(), values: vec![1, 2] }
        );
        // nullary insert: the empty tuple (a Boolean fact)
        assert_eq!(
            parse_command("INSERT T()").unwrap(),
            Command::Insert { relation: "T".into(), values: vec![] }
        );
        let e = parse_command("INSERT R(1, x)").unwrap_err();
        assert!(e.terminal.starts_with("ERR bad-value"), "{}", e.terminal);
        let e = parse_command("INSERT R 1 2").unwrap_err();
        assert!(e.terminal.starts_with("ERR usage"), "{}", e.terminal);
    }

    #[test]
    fn query_verbs_carry_tasks() {
        match parse_command("DECIDE q() :- R(x)").unwrap() {
            Command::Query { task: Task::Decide, src } => {
                assert_eq!(src, "q() :- R(x)");
            }
            other => panic!("{other:?}"),
        }
        match parse_command("EXPLAIN access q(x) :- R(x)").unwrap() {
            Command::Explain { task: Task::Access, .. } => {}
            other => panic!("{other:?}"),
        }
        assert!(parse_command("EXPLAIN sideways q(x) :- R(x)").is_err());
        assert!(parse_command("COUNT").is_err());
    }

    #[test]
    fn db_names_validated() {
        assert!(parse_command("CREATE DB ok_name_9").is_ok());
        for bad in ["CREATE DB", "CREATE DB sp ace", "CREATE DB dash-y", "USE q(x)"] {
            let e = parse_command(bad).unwrap_err();
            assert!(
                e.terminal.starts_with("ERR bad-name")
                    || e.terminal.starts_with("ERR usage"),
                "{bad}: {}",
                e.terminal
            );
        }
    }

    #[test]
    fn relation_names_are_query_grammar_idents() {
        // a relation the query parser can never reference must be
        // rejected at insert time, not stored unqueryably
        for bad in ["INSERT my-rel(1, 2)", "INSERT (1)", "LOAD my-rel 2", "LOAD r:s 2"] {
            let e = parse_command(bad).unwrap_err();
            assert!(e.terminal.starts_with("ERR bad-name"), "{bad}: {}", e.terminal);
        }
        assert!(parse_command("INSERT r_9(1)").is_ok());
        assert!(parse_command("LOAD r_9 1").is_ok());
    }

    #[test]
    fn metrics_and_budget_parse() {
        assert_eq!(parse_command("METRICS").unwrap(), Command::Metrics { db: None });
        assert_eq!(
            parse_command("metrics t1").unwrap(),
            Command::Metrics { db: Some("t1".into()) }
        );
        assert_eq!(
            parse_command("SET BUDGET t1 MAX-EXPONENT 1.4").unwrap(),
            Command::SetBudget {
                db: "t1".into(),
                setting: BudgetSetting::MaxExponent(1.4)
            }
        );
        assert_eq!(
            parse_command("set budget t1 max-rows 1000").unwrap(),
            Command::SetBudget { db: "t1".into(), setting: BudgetSetting::MaxRows(1000) }
        );
        assert_eq!(
            parse_command("SET BUDGET t1 NONE").unwrap(),
            Command::SetBudget { db: "t1".into(), setting: BudgetSetting::Clear }
        );
        for bad in [
            "SET",
            "SET BUDGET",
            "SET BUDGET t1",
            "SET BUDGET t1 MAX-EXPONENT",
            "SET BUDGET t1 MAX-EXPONENT x",
            "SET BUDGET t1 MAX-EXPONENT -1",
            "SET BUDGET t1 MAX-EXPONENT inf",
            "SET BUDGET t1 MAX-ROWS 1.5",
            "SET BUDGET t1 NONE extra",
            "SET SPEED t1 FAST",
            "METRICS sp ace",
        ] {
            let e = parse_command(bad).unwrap_err();
            assert!(
                e.terminal.starts_with("ERR usage")
                    || e.terminal.starts_with("ERR bad-name"),
                "{bad}: {}",
                e.terminal
            );
        }
    }

    #[test]
    fn timeout_and_resume_parse() {
        assert_eq!(
            parse_command("SET TIMEOUT t1 250").unwrap(),
            Command::SetTimeout { db: "t1".into(), ms: Some(250) }
        );
        assert_eq!(
            parse_command("set timeout t1 none").unwrap(),
            Command::SetTimeout { db: "t1".into(), ms: None }
        );
        assert_eq!(
            parse_command("SET TIMEOUT t1 0").unwrap(),
            Command::SetTimeout { db: "t1".into(), ms: Some(0) }
        );
        assert_eq!(parse_command("RESUME t1").unwrap(), Command::Resume("t1".into()));
        assert_eq!(parse_command("resume t1").unwrap(), Command::Resume("t1".into()));
        for bad in [
            "SET TIMEOUT",
            "SET TIMEOUT t1",
            "SET TIMEOUT t1 fast",
            "SET TIMEOUT t1 -5",
            "SET TIMEOUT t1 1.5",
            "SET SPEED t1 FAST",
            "RESUME",
            "RESUME sp ace",
        ] {
            let e = parse_command(bad).unwrap_err();
            assert!(
                e.terminal.starts_with("ERR usage")
                    || e.terminal.starts_with("ERR bad-name"),
                "{bad}: {}",
                e.terminal
            );
        }
    }

    #[test]
    fn unknown_verb_is_structured() {
        let e = parse_command("EXPLODE now").unwrap_err();
        assert_eq!(e.terminal, "ERR unknown-command: `EXPLODE`");
    }

    #[test]
    fn rows_and_rendering() {
        assert_eq!(parse_row("1, 2 3,4").unwrap(), vec![1, 2, 3, 4]);
        assert_eq!(parse_row("").unwrap(), Vec::<Val>::new());
        assert_eq!(parse_row("5 nope").unwrap_err(), "nope");
        assert_eq!(render_row(&[7, 1]), "7 1");
        assert_eq!(render_row(&[]), "()");
        let rel = Relation::from_pairs(vec![(2, 1), (1, 9)]);
        assert_eq!(render_rows(&rel), vec!["1 9", "2 1"]);
    }

    use proptest::prelude::*;

    /// Values where the digit count changes or the type ends: 0..=10,
    /// 10ⁿ − 1 / 10ⁿ / 10ⁿ + 1 for every n, `u64::MAX` and its
    /// neighbour — mixed with values from anywhere in the range.
    fn edge_value() -> impl Strategy<Value = Val> {
        (0u8..4, any::<u64>(), 0u32..20, 0u64..3).prop_map(|(pick, raw, n, off)| {
            match pick {
                0 => raw,
                1 => raw % 11,
                2 => u64::MAX - raw % 2,
                _ => 10u64.pow(n) - 1 + off,
            }
        })
    }

    proptest! {
        #![proptest_config(ProptestConfig::with_cases(512))]

        /// The in-place renderer writes exactly what the formatting
        /// machinery it replaced wrote, after whatever `out` held.
        #[test]
        fn render_row_into_matches_to_string_join(
            row in proptest::collection::vec(edge_value(), 0..=8),
            before in proptest::collection::vec(any::<u8>(), 0..4),
        ) {
            let want = if row.is_empty() {
                "()".to_string()
            } else {
                row.iter().map(Val::to_string).collect::<Vec<_>>().join(" ")
            };
            let mut out = before.clone();
            render_row_into(&mut out, &row);
            prop_assert_eq!(&out[..before.len()], &before[..]);
            prop_assert_eq!(&out[before.len()..], want.as_bytes());
            prop_assert_eq!(render_row(&row), want);
        }
    }

    #[test]
    fn ship_parses_both_forms() {
        assert_eq!(
            parse_command("SHIP").unwrap(),
            Command::Ship { db: None, epoch: 0, offset: 0 }
        );
        assert_eq!(
            parse_command("ship social 3 4096").unwrap(),
            Command::Ship { db: Some("social".into()), epoch: 3, offset: 4096 }
        );
        let e = parse_command("SHIP social 3").unwrap_err();
        assert_eq!(e.err_kind(), Some(ErrKind::Usage));
        let e = parse_command("SHIP social three 4096").unwrap_err();
        assert_eq!(e.err_kind(), Some(ErrKind::Usage));
        let e = parse_command("SHIP ../evil 0 0").unwrap_err();
        assert_eq!(e.err_kind(), Some(ErrKind::BadName));
    }

    #[test]
    fn hex_roundtrips_arbitrary_segment_bytes() {
        let bytes: Vec<u8> = (0..=255u8).collect();
        let line = hex_encode(&bytes);
        assert!(line.bytes().all(|b| b.is_ascii_hexdigit()));
        assert_eq!(hex_decode(&line).unwrap(), bytes);
        assert_eq!(hex_decode("").unwrap(), Vec::<u8>::new());
        assert!(hex_decode("abc").is_err(), "odd length must refuse");
        assert!(hex_decode("zz").is_err(), "non-hex must refuse");
    }

    #[test]
    fn err_kinds_roundtrip_the_shared_vocabulary() {
        for kind in ALL_ERR_KINDS {
            assert_eq!(ErrKind::parse(kind.as_str()), Some(kind));
            let reply = Reply::err(kind, "detail");
            assert_eq!(reply.err_kind(), Some(kind), "{}", reply.terminal);
        }
        assert_eq!(ErrKind::parse("not-a-kind"), None);
        // free-text ERR terminals (pre-typed or foreign) degrade to None
        let untyped = Reply { data: vec![], terminal: "ERR something odd".into() };
        assert_eq!(untyped.err_kind(), None);
    }

    #[test]
    fn reply_roundtrips_through_wire_form() {
        let r = Reply::ok_with(vec!["1 2".into(), "3 4".into()], "2 rows");
        let mut buf = Vec::new();
        r.write_to(&mut buf).unwrap();
        assert_eq!(String::from_utf8(buf).unwrap(), "* 1 2\n* 3 4\nOK 2 rows\n");
        assert!(r.is_ok());
        assert_eq!(r.ok_info(), Some("2 rows"));
        let e = Reply::err(ErrKind::NoDb, "USE a database first");
        assert!(!e.is_ok());
        assert_eq!(e.terminal, "ERR no-db: USE a database first");
    }
}
