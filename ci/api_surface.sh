#!/usr/bin/env bash
# One entry point per operator: fail if the `*_with_catalog[_cancel]`
# ladder, an operator-level `*_cancel` variant, or a deprecated shim
# grows back in cq-engine / cq-planner. Catalog and cancel token travel
# in `cq_engine::ExecCtx` (and the planner's `EvalCtx`), not in function
# names. Likewise the server: answer rows are rendered in place
# (`render_row_into`), never through the per-row `String` wrappers; a
# verb's gates are decided once, by its row of the verb table, so the
# tenant-resolution reply and the replica check each live in one place;
# the tenant has one logged write; and no source file outgrows a screenful
# of concerns. And one measurement system: a performance number comes from
# `bench/` (cqbench), a complexity claim is asserted on a work counter by
# `cargo test`, and the wall-clock experiment tables and criterion benches
# that were a second, unrecorded system stay deleted. And one preprocessing
# for the easy side: `q'` is derived by `count::free_links` alone, the
# reduced tree `LexDirectAccess::from_reduced` sorts is the one structure
# enumeration walks and direct access descends, the planner names engine
# structures without defining any, and aggregation runs under an ExecCtx
# like every other operator. And one index for the join-tree folds: the
# memoized links of `cq_engine::links` — the hash index, its catalog memo
# and the per-request hash-map messages they replaced stay deleted; the
# reduced tree of `ANSWERS` / `ACCESS` is rows + links too, so the boxed-key
# semijoin and the per-row key searches of `SortedView` stay deleted. And one
# statement of the dichotomy: `cq_core::classify::verdict` attaches
# hypotheses and renders witnesses, the planner maps its verdict to an
# operator, and the facade's catalog is one value, not a registry. And one
# word-parallel layout: the ranked bitmaps of every level of a view, one
# type in `index.rs`, intersected by portable safe Rust. And a view is its
# trie: `SortedView` keeps no row copy of its own, the rows the reduced tree
# reads by position are plain `Relation`s (no trait abstracts over the
# two), and `Relation::normalize` is the one row sort. And one way to use
# a second core: generic join's `COUNT` hands morsels to scoped helper
# threads while the busy gauge says a core is idle — no detached thread,
# no other operator's private pool, no pool in the planner, no
# environment knob.
# And one liveness probe on the wire: the socket peek runs behind the gate
# that spaces it by 100× its own cost. And one parse per statement: a
# session parses a query text in its statement memo, and a reply is
# flushed by the one helper that lets pipelined replies share a write.
# And one structure per statement: the memo keeps it, and the planner
# holds no cache and no lock. And cq-engine exports what the planner runs:
# a public engine function is an operator a caller outside the engine names
# (or one of the few listed below, each with why), and an algorithm only a
# lower-bound reduction drives lives beside that reduction in cq-reductions.
# And one evaluation path: a `BATCH` item is parsed, planned, admitted and
# executed like a statement of its own, so the planner keeps no batch entry
# point and no budget or trace plumbing, and the engine no over-budget error.
# And one exponent table: a plan's cost exponent is checked through the
# planner, on its operator's work counter, by one table keyed by `PlanOp`.
# And one semijoin: projection elimination reduces each subtree with
# `yannakakis::semijoin_up`, the upward pass of every full reduction. And no public
# function nobody names: a `pub fn` of a crate's source is named somewhere
# else in the workspace, tests included.
set -uo pipefail
cd "$(dirname "$0")/.."

status=0
forbid() { # $1 = what the lines in $2 are
    if [ -n "$2" ]; then
        printf 'api_surface: %s\n%s\n' "$1" "$2" >&2
        status=1
    fi
}

forbid "catalog-suffixed entry points (take an ExecCtx instead):" "$(
    grep -rnE 'pub fn \w+(_with_catalog|_catalog)(_cancel)?\(' \
        crates/engine/src crates/planner/src
)"

forbid "deprecated items (delete them; the workspace owns every caller):" "$(
    grep -rnE '#\[(allow\()?deprecated' crates src
)"

# the only `*_cancel` functions are the setters that install a token
forbid "cancel-suffixed entry points (the token is ExecCtx's):" "$(
    grep -rnE 'pub fn \w+_cancel\(' crates/engine/src crates/planner/src \
        | grep -vE 'pub fn (set|with)_cancel\('
)"

# the enumerator's private copy of the reduced tree, and the unmemoized
# twin of projection elimination, stay deleted
forbid "EnumeratorCore / LevelIndex (enumeration walks the direct-access tree):" "$(
    grep -rnE '\b(EnumeratorCore|LevelIndex)\b' crates
)"
forbid "pub fn eliminate_projections (count::free_links is the one, memoized, derivation of q'):" "$(
    grep -rnE 'pub fn eliminate_projections\b' crates
)"
forbid "artifact kinds of deleted structures:" "$(
    grep -rn -A3 -F '.artifact(' crates/engine/src crates/planner/src crates/reductions/src \
        | grep -E '"(enumerator|proj_mat_da|sum_cover|elim_msgs)"'
)"
forbid "access structures defined in the planner (build the engine's):" "$(
    grep -rnE 'struct \w*Access\b' crates/planner/src
)"
# a signature runs from `pub fn` to the `{` opening the body; the
# brute-force oracles of bind.rs are the one database reader without one
forbid "engine entry points that read a database outside an ExecCtx (take \`ctx: &ExecCtx\` first):" "$(
    awk '/pub fn / { sig = ""; open = 1 }
         open { sig = sig " " $0 }
         open && /\{/ {
             open = 0
             gsub(/[ \t]+/, " ", sig)
             if (sig ~ /db: &Database/ && sig !~ /^[^(]*\( ?ctx: &ExecCtx/)
                 print FILENAME ":" sig
         }' $(ls crates/engine/src/*.rs | grep -v '/bind\.rs$')
)"

# the non-test part (above `#[cfg(test)]`) of a source file, each line
# prefixed with the file's name
non_test() { sed '/^#\[cfg(test)\]/,$d' "$1" | sed "s|^|$1:|"; }

# cq-engine is the operators the planner dispatches to: a column-0 `pub fn`
# of its non-test code is named by the non-test code of a crate that runs
# it, or is listed here with why a caller outside the engine needs it
engine_fns_without_a_caller_allowed='
brute_force_answers  the testing oracle every operator is checked against
brute_force_decide   the testing oracle every operator is checked against
brute_force_count    the testing oracle every operator is checked against
decide_triangle_ayz  Thm 3.2, kept for the degree-split plan of cyclic DECIDE
'
engine_callers=$(
    find crates/planner/src crates/reductions/src crates/server/src src examples bench/src \
        -name '*.rs' | sort | while read -r f; do non_test "$f"; done
)
forbid "public cq-engine functions no caller outside the engine names (make them pub(crate), move them to their one consumer, or delete them):" "$(
    for f in crates/engine/src/*.rs; do non_test "$f"; done \
        | sed -nE 's/^([^:]*):pub fn ([A-Za-z0-9_]+).*/\1 \2/p' \
        | while read -r file name; do
            # (no `grep -q`: under pipefail its early exit fails the printf)
            printf '%s\n' "$engine_fns_without_a_caller_allowed" \
                | grep "^$name " >/dev/null && continue
            printf '%s\n' "$engine_callers" | grep -w "$name" >/dev/null \
                || echo "$file: pub fn $name"
        done
)"
# ... and across the workspace, a public function of a crate's source is
# named by some line other than its definition (a caller, a test, a doc)
# — the shims under crates/shims/ stand in for external crates and are
# not searched
workspace_names=$(
    find crates src tests examples bench -name '*.rs' -not -path '*/target/*' -print0 \
        | xargs -0 sed -E 's/\bfn [A-Za-z0-9_]+//g' \
        | grep -oE '[A-Za-z_][A-Za-z0-9_]*' | sort -u
)
forbid "public functions nothing in the workspace names (delete them):" "$(
    grep -rnoE 'pub fn [A-Za-z0-9_]+' crates/*/src | while IFS=: read -r file line def; do
        printf '%s\n' "$workspace_names" | grep -xF "${def#pub fn }" >/dev/null \
            || echo "$file:$line: $def"
    done
)"
# ... so the algorithms only a reduction drives are no engine module
forbid "engine modules of reduction-only algorithms or crate plumbing (sum order, the star tester, the tropical fold and the links live elsewhere or stay private):" "$(
    grep -nE '^pub mod (aggregate|links|sum_order|testing)\b' crates/engine/src/lib.rs \
        | sed 's|^|crates/engine/src/lib.rs:|'
)"
# ... of every file of the server module (one file before it was split)
server_module() {
    for f in crates/server/src/server.rs crates/server/src/server/*.rs; do
        if [ -f "$f" ]; then non_test "$f"; fi
    done
}

# `COUNT` / `DECIDE` fold over memoized join-tree links: no second index
# type, and no hash map keyed by boxed values rebuilt per request
forbid "the hash index (the join-tree folds read cq_engine::links):" "$(
    grep -rnE 'HashIndex|hash_index|semijoin_indexed' crates
)"
# (the one boxed-key table left dedups a projection on the hard side, in
# generic_join.rs: ROADMAP item 3)
forbid "boxed keys on the easy side (a key is a group id of cq_engine::links):" "$(
    for f in crates/engine/src/*.rs; do
        case "$f" in */generic_join.rs) ;; *) non_test "$f" ;; esac
    done | grep -F 'Box<[Val]>'
)"
# ... which the reduced tree descends by: a node is reached through its
# parent row's link, never searched for by key
forbid "key searches in the reduced tree (a child group is \`starts[link[row]]\`):" "$(
    for f in crates/engine/src/enumerate.rs crates/engine/src/direct_access.rs; do
        non_test "$f"
    done | grep -E 'key_range\(|keybuf'
)"
forbid "the hash-set semijoin or links::keep_linked (the one semijoin is yannakakis::semijoin_up, full_reduce's upward pass):" "$(
    ls crates/engine/src/semijoin.rs 2>/dev/null
    grep -rnE 'fn keep_linked\b' crates/engine/src
)"
forbid "search methods on SortedView (it is a key trie; the tree holds its own group starts):" "$(
    non_test crates/data/src/index.rs | grep -E 'fn (key_range|contains_key|groups)\b'
)"
# ... nor rows: a node of the reduced tree, the answers of materialized
# access and an edge's two ends are `Relation`s, sorted by `normalize`
forbid "a row copy in SortedView, or a second row sort (a view is its key trie; rows are a Relation):" "$(
    non_test crates/data/src/index.rs \
        | grep -E 'fn row\b|fn col_order\b|OnceLock|data: Vec<Val>'
    grep -nE 'fn sort\b' crates/data/src/index.rs | sed 's|^|crates/data/src/index.rs:|'
    grep -nE 'trait Rows\b' crates/engine/src/links.rs | sed 's|^|crates/engine/src/links.rs:|'
)"

# a trie node's children are a slice and, where dense, a bitmap beside it
# in the same view — on every level, ranked above the last, under one
# density rule whose bitmaps never outweigh the values and offsets they
# mirror (`index.rs`'s `bitmaps_never_exceed_the_levels_they_mirror`
# checks it); the word is `u64`, not a vector register
forbid "unsafe / std::arch / target_feature in the index and the join kernel (u64::count_ones is the word-parallelism):" "$(
    grep -nE 'unsafe|std::arch|target_feature' \
        crates/engine/src/generic_join.rs crates/data/src/index.rs
)"
forbid "a second public set/bitmap type in cq-data (index.rs has LevelBitmaps; cq_matrix::BitMatrix is the matrix crate's own):" "$(
    grep -rnE 'pub (struct|enum|type) \w*[Bb]it\w*' crates/data/src \
        | grep -v '^crates/data/src/index.rs:'
    grep -nE 'pub (struct|enum|type) \w*[Bb]it\w*' crates/data/src/index.rs \
        | grep -v 'pub struct LevelBitmaps\b'
)"
forbid "the last-level-only bitmap type (SortedView::bitmaps(d) serves every level):" "$(
    grep -rnE 'LeafBitmaps|leaf_bitmaps' crates
)"

# helpers live inside the count that spawned them (`std::thread::scope`
# joins them before it returns, and resumes their panics), the morsel
# loop is the one place that spawns them, and how many is the busy
# gauge's business alone
forbid "unscoped threads in cq-engine (a helper is scoped to its join):" "$(
    grep -rnE '\bthread::(spawn|Builder)\b' crates/engine/src
)"
forbid "thread::scope outside generic_join.rs (the morsel loop is cq-engine's one parallel operator):" "$(
    grep -rn 'thread::scope' crates/engine/src | grep -v '^crates/engine/src/generic_join.rs:'
)"
forbid "environment reads in cq-engine (no hidden knob: idle cores decide):" "$(
    grep -rnE 'std::env|\benv::|\b(option_)?env!' crates/engine
)"
# ... and the planner spawns none: an operator reaches an idle core only
# through those morsels
forbid "threads in cq-planner (a second core is the engine's morsel loop's):" "$(
    for f in crates/planner/src/*.rs; do non_test "$f"; done \
        | grep -E 'thread::(scope|spawn|Builder)'
)"

# the allocating wrappers are for oracles and tests; the server's answer
# path renders in place, so the `Vec<String>` pump cannot grow back
forbid "render_row/render_rows in the server module outside tests (use render_row_into):" "$(
    server_module | grep -E '\brender_rows?\('
)"

# a verb states its addressing and access in its table row and
# `Session::gate` acts on them: a second copy of the unknown-tenant
# reply or of the replica check is a verb deciding for itself again
# (`STATS <db>` reads `replica_of()` to print it, in admin.rs)
exactly_one() { # $1 = what, $2 = the matching lines
    if [ "$(printf '%s' "$2" | grep -c .)" != 1 ]; then
        printf 'api_surface: expected exactly one %s, found:\n%s\n' "$1" "$2" >&2
        status=1
    fi
}
exactly_one "place that renders the \`no database named\` reply" "$(
    server_module | grep -F 'no database named'
)"
exactly_one "replica gate (\`.replica_of()\` outside the STATS line in admin.rs)" "$(
    server_module | grep -F '.replica_of()' | grep -v '^crates/server/src/server/admin.rs:'
)"
# the liveness peek is three syscalls, and an evaluation consults its
# probe every 256 polls: it runs behind `PeekGate::consult`, which spaces
# the peeks by 100× their cost, and nowhere else
exactly_one "call of \`connection_gone(\`, inside \`PeekGate::consult\`'s closure" "$(
    grep -rn 'connection_gone(' crates/server/src | grep -v 'fn connection_gone('
)"
forbid "socket peeks outside the gate (call connection_gone from a PeekGate::consult closure):" "$(
    grep -rn 'connection_gone(' crates/server/src | grep -vE 'fn connection_gone\(|\.consult\('
)"

# the lines of standard input (as `non_test` prints them) that match the
# regex $1 and lie outside the functions whose names match $2, a line
# belonging to the last `fn` opened above it
outside_fns() {
    awk -v pat="$1" -v allowed="^($2)\$" '
        match($0, /fn [A-Za-z0-9_]+[<(]/) { f = substr($0, RSTART + 3, RLENGTH - 4) }
        $0 ~ pat && f !~ allowed { print }'
}
# a session parses a query text once, in its statement memo — a `BATCH`
# item's too
forbid "query parsing in the server module outside stmt.rs (parse through Statements::query):" "$(
    server_module | grep -v '^crates/server/src/server/stmt.rs:' | grep -F 'parse_query('
)"
# pipelined replies share a write: a reply reaches the socket in conn.rs
# only through the helper that holds it while more requests are buffered
forbid "reply flushes in conn.rs outside flush_replies (it holds replies while requests are pipelined):" "$(
    non_test crates/server/src/server/conn.rs | outside_fns '\.flush\(' 'flush_replies'
)"

# the dichotomy is stated once, in cq_core::classify: the planner maps a
# verdict to an operator and explain.rs maps a hypothesis to its
# context line — neither attaches a hypothesis to a query again
forbid "second copies of the verdict types (cq_core::classify has Verdict and Structure):" "$(
    grep -rnE 'enum LowerBound|struct ShapeFacts' crates
)"
forbid "hypotheses attached in the planner (cq_core::classify::verdict decides):" "$(
    for f in crates/planner/src/*.rs; do
        case "$f" in */explain.rs) ;; *) non_test "$f" ;; esac
    done | grep -F 'Hypothesis::'
)"
exactly_one "witness renderer (\`fn witness_text\`)" "$(
    grep -rnE 'fn witness_text\b' crates
)"
forbid "caller-less planner entry points (a catalog registry, cache clearing):" "$(
    grep -rnE 'fn (with_catalog|catalog_for|registry|peek|clear|clear_cache)\b' \
        crates/planner/src/eval.rs crates/planner/src/planner.rs
    grep -rnE 'CatalogRegistry|CATALOG_REGISTRY_CAP' crates/planner/src
)"
# one evaluation path: a `BATCH` item runs down the statement path and the
# server admits every plan, so the planner's batch pool, its budget and
# trace plumbing and the engine's over-budget error stay deleted
forbid "batch, budget or trace plumbing beside the statement path (a BATCH item is a statement; the server admits):" "$(
    grep -rnE 'batch_tasks|fn batch\b|batch_workers|OverBudget|with_budget|with_trace|fn admit\b' \
        crates src tests examples
)"

# a query's structure depends on its text alone: a session keeps it per
# statement, and nothing keys it by a canonical shape behind a lock that
# every session's first plan waits on
forbid "the shape cache, its canonicalizer or the global planner (a session keeps a statement's Structure):" "$(
    grep -rnE 'canonical_shape|CanonicalShape|PlanCache|with_global_planner|cache_counters' \
        crates src tests examples
)"
forbid "a lock in the planner (it holds no state; the catalog's OnceLock is not a lock):" "$(
    for f in crates/planner/src/*.rs; do non_test "$f"; done | grep -F 'Mutex'
)"

# one logged write on the tenant (`apply_logged`, taking the record) and
# the unlogged `mutate`; no `foo` / `foo_durable` ladder beside them
forbid "tenant write ladder (Tenant::apply_logged is the one logged write):" "$(
    grep -rnE 'pub fn (mutate_wal|mutate_durable|persist_limits|persist_limits_durable)\b' \
        crates/server/src
)"

# the monolith stays split: 1,000 non-test lines is the ceiling per file
forbid "cq-server source files over 1,000 non-test lines (split by concern):" "$(
    find crates/server/src -name '*.rs' | sort | while read -r f; do
        n=$(non_test "$f" | wc -l)
        if [ "$n" -gt 1000 ]; then echo "$f: $n lines above #[cfg(test)]"; fi
    done
)"

# every manifest of the workspace (`bench/` is a package of its own)
manifests() {
    find . -name Cargo.toml -not -path './bench/*' -not -path '*/target/*' \
        -not -path './.bench_build/*'
}
forbid "criterion dependencies outside bench/ (time with cqbench, assert on counters):" "$(
    manifests | xargs grep -n criterion
)"
# ... whose one bench target is the observability gate CI runs
forbid "[[bench]] targets other than metrics_overhead (add a cqbench layer metric instead):" "$(
    manifests | xargs awk '
        /^\[\[bench\]\]/ { in_bench = 1; next }
        /^\[/ { in_bench = 0 }
        in_bench && /^name *=/ && !/"metrics_overhead"/ { print FILENAME ": " $0 }'
)"
forbid "the experiment-table crate (its claims are rows of tests/exponents/mod.rs):" "$(
    ls -d crates/bench 2>/dev/null
)"
# ... and one exponent table: every plan's exponent is fitted on its
# operator's work counter by a row of tests/exponents/mod.rs, which a
# test file runs with `exponents::run`, not a harness of its own
forbid "exponent fits outside tests/exponents/mod.rs (add a row to its table):" "$(
    grep -rn 'fit_exponent(' tests | grep -v '^tests/exponents/mod\.rs:'
)"
forbid "work harnesses outside tests/exponents/mod.rs (add a row to its table):" "$(
    grep -rnE 'fn (traced|join_count)\b' tests | grep -v '^tests/exponents/mod\.rs:'
)"

exit $status
