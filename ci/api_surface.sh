#!/usr/bin/env bash
# One entry point per operator: fail if the `*_with_catalog[_cancel]`
# ladder, an operator-level `*_cancel` variant, or a deprecated shim
# grows back in cq-engine / cq-planner. Catalog and cancel token travel
# in `cq_engine::ExecCtx` (and the planner's `EvalCtx`), not in function
# names. Likewise the server: answer rows are rendered in place
# (`render_row_into`), never through the per-row `String` wrappers; a
# verb's gates are decided once, by its row of the verb table, so the
# tenant-resolution reply and the replica check each live in one place;
# the tenant has one logged write (and one for its limits); and no source file outgrows a screenful
# of concerns. And one measurement system: a performance number comes from
# `bench/` (cqbench), a complexity claim is asserted on a work counter by
# `cargo test`, and the wall-clock experiment tables and criterion benches
# that were a second, unrecorded system stay deleted. And one preprocessing
# for the easy side: `q'` is derived by `count::free_links` alone, and
# every easy-side verb reads it — `DECIDE` asks whether the Boolean
# version has one, `COUNT` folds over it (a join query's is its atoms, read
# in place), and the reduced tree `LexDirectAccess::from_reduced` sorts
# from it is the one structure enumeration walks and direct access
# descends; the planner names engine structures without defining any, and
# aggregation runs under an ExecCtx like every other operator. And one index
# for the join-tree folds: the links of `q'`'s tree and of the subtrees its
# elimination folds, memoized per edge by `cq_engine::links` — the body join
# index, the hash index, its catalog memo and the per-request hash-map
# messages they replaced stay deleted; the
# reduced tree of `ANSWERS` / `ACCESS` is rows + links too, so the boxed-key
# semijoin and the per-row key searches of `SortedView` stay deleted. And one
# statement of the dichotomy: `cq_core::classify::verdict` attaches
# hypotheses and renders witnesses, the planner maps its verdict to an
# operator, and a catalog is a value its caller holds, not a registry. And one
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
# planner, on its operator's work counter, by one table keyed by (source,
# task). And a plan is a source and the task read off it: the executor has
# one arm per source and one task end per arm, and one check at its top
# refuses a task the operator's output cannot widen to.
# And one fold: `count::sum_product` is the only pass over a join tree's rows
# from the leaves up — `DECIDE`, `COUNT`, the semijoin of `q'` and of every
# full reduction, and the direct-access weights run it at their semirings —
# and it weighs every tuple one, reading links and row counts, never a row,
# so no per-row path grows back beside its block passes. And one
# answer stream: `cq_engine::Answers` reads a walk of the reduced tree, a
# direct-access structure or materialized rows, and the planner re-exports it,
# so no stream trait, per-source stream type or wrapper stands between a
# cursor and that type. And one direct-access structure: `LexDirectAccess` —
# the reduced tree, a single sorted node for materialized answers — is what
# every direct-access plan builds and `Answers::access` reads. And no public
# function nobody names: a `pub fn` of a crate's source is named somewhere
# else in the workspace, tests included. And one session path: the acceptor
# gives each connection a thread of its own under one cap on live sessions
# and hands every such thread to `Server::join`, so no pool, channel,
# overflow path or gauge of theirs stands beside it. And cq-engine runs only
# what the planner plans: Thm 3.2's degree split lives in cq-problems, so
# the engine needs no matrix crate. And a tenant owns its metrics: its
# scope, handles and PROFILE ring live in its `Tenant`, and every site
# records through the tenant it holds, never a per-session cache or a
# lookup by the tenant's name. And one construction for ordered access:
# `LexDirectAccess::build` refuses an order with a disruptive trio and
# builds the layered tree of any other (Thm 3.24), so no search over
# reroots or flattened trees for a compatible one grows back beside it.
# And no process-wide catalog: `EvalCtx` is the planner's one way to
# evaluate, cold on a throwaway catalog unless its caller hands it one,
# so whether a call pays for its preprocessing is decided by the call's
# own arguments and no static holds catalog entries nobody can hit again.
# And one random-query generator for the property tests, valid by
# construction, in `tests/queries/mod.rs`. And one reduction: every reduced
# tree is reduced from q' — `yannakakis::reduce_q_prime` fully reduces the
# `q'` of `count::free_links` along its links for the free-connex tree and
# for the layered tree of an ordered access alike, so no second join tree
# of a query body is bound, linked and reduced beside it. And a request ends
# in one place: `Session::end_request` counts a terminal's error and hands
# the request's trace to PROFILE, for a verb's reply, a block's `END`, a
# stream's last line and a caught panic alike. And every verdict is
# classify's, and a plan is correct on every database: the planner reads
# `cq_core::classify::verdict` for every query, and the statistics choose
# only a plan's generic-join order and its cost. And statistics are catalog
# entries: each relation's `RelationStats` is an ordinary artifact of the
# catalog's one memo, with its version pin, sweep and cap, and a session
# keeps a plan by the database generation it was made at, not by statistics.
# And a warm scalar is one lookup: a count, and generic join's decision, is
# the catalog artifact `ExecCtx::memo` memoizes under the versions of the
# relations its query reads, so no operator memoizes an answer beside it.
# And the catalog names its own entries: it writes every key into its own
# reused buffer, so the engine formats no key into a string of its own and
# keeps no thread-local buffer, and every product of one query is named,
# and pinned to the query's relations, by that one helper.
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
        | grep -E '"(enumerator|proj_mat_da|sum_cover|elim_msgs|join_index)"'
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

# the lines of standard input (as `non_test` prints them) that match the
# regex $1 and lie outside the functions whose names match $2, a line
# belonging to the last `fn` opened above it
outside_fns() {
    awk -v pat="$1" -v allowed="^($2)\$" '
        match($0, /fn [A-Za-z0-9_]+[<(]/) { f = substr($0, RSTART + 3, RLENGTH - 4) }
        $0 ~ pat && f !~ allowed { print }'
}

# cq-engine is the operators the planner dispatches to: a column-0 `pub fn`
# of its non-test code is named by the non-test code of a crate that runs
# it, or is listed here with why a caller outside the engine needs it
engine_fns_without_a_caller_allowed='
brute_force_answers  the testing oracle every operator is checked against
brute_force_decide   the testing oracle every operator is checked against
brute_force_count    the testing oracle every operator is checked against
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
# ... nor a second memo of a query body beside `q'`: `DECIDE` and `COUNT`
# read `q'`, so the body join index, its fold and its counting twin stay
# deleted
forbid "the body join index (DECIDE and COUNT read q' of count::free_links):" "$(
    grep -rnE 'fn (join_index|fold_body|count_acyclic_join)\b|struct JoinIndex\b' \
        crates/engine/src
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
forbid "the hash-set semijoin or links::keep_linked (the one semijoin is the fold, count::sum_product, at the Boolean semiring):" "$(
    ls crates/engine/src/semijoin.rs 2>/dev/null
    grep -rnE 'fn keep_linked\b' crates/engine/src
)"
# one fold: a walk from the leaves up over a tree's rows is `sum_product`'s
forbid "a second bottom-up pass in cq-engine (the one fold is count::sum_product):" "$(
    grep -rnE 'fn (semijoin_up|kids_of)\b' crates/engine/src
    for f in crates/engine/src/*.rs; do
        case "$f" in
            */count.rs) allowed='sum_product' ;;
            *) allowed='' ;;
        esac
        non_test "$f" | outside_fns 'bottom_up\(|nodes[^;]*\.rev\(\)' "$allowed"
    done
)"
# ... which weighs every tuple `Semiring::one`: it reads row counts and
# links, so it takes no per-row weight closure and reads no row
forbid "a per-row weight or a row read in count::sum_product (every tuple weighs Semiring::one):" "$(
    non_test crates/engine/src/count.rs \
        | awk '/fn sum_product[<(]/ { inside = 1 }
               inside { print }
               inside && /^[^:]*:\}/ { inside = 0 }' \
        | grep -E '\.row\(|&\[Val\]|\bRelation\b|\bweight\b'
)"
# every reduced tree is reduced from q': the body's own GYO tree is never
# built, and the one full reduction runs in `reduce_q_prime`
forbid "a join tree of the query body (every reduced tree is reduced from q' of count::free_links):" "$(
    grep -rnE 'fn join_tree_of\b' crates/engine/src
)"
forbid "a search for a ⪯-compatible tree (build constructs the layered tree of Thm 3.24):" "$(
    grep -nHE 'fn (is_compatible|flatten)\b|\.rerooted\(' crates/engine/src/direct_access.rs
)"
forbid "a counting product in direct_access.rs (it is CountingSemiring's):" "$(
    grep -n 'saturating_mul' crates/engine/src/direct_access.rs
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
exactly_one "call of \`full_reduce(\` in cq-engine (in \`reduce_q_prime\`: every reduced tree is reduced from q')" "$(
    for f in crates/engine/src/*.rs; do non_test "$f"; done \
        | grep -F 'full_reduce(' | grep -v 'fn full_reduce('
)"
exactly_one "call of \`connection_gone(\`, inside \`PeekGate::consult\`'s closure" "$(
    grep -rn 'connection_gone(' crates/server/src | grep -v 'fn connection_gone('
)"
forbid "socket peeks outside the gate (call connection_gone from a PeekGate::consult closure):" "$(
    grep -rn 'connection_gone(' crates/server/src | grep -vE 'fn connection_gone\(|\.consult\('
)"

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

# one session path: an admitted connection is served on the thread
# `spawn_session` starts, and the acceptor's own thread is the only other
forbid "channels in conn.rs (the acceptor spawns each session's thread itself):" "$(
    non_test crates/server/src/server/conn.rs | grep -F 'mpsc'
)"
exactly_one "session spawn site in conn.rs (\`spawn_session\`; the other spawn is the acceptor's, in \`bind_with_state\`)" "$(
    non_test crates/server/src/server/conn.rs \
        | outside_fns 'thread::(spawn|Builder)' 'bind_with_state'
)"
forbid "worker-pool gauges (\`server connections.open\` counts the live sessions):" "$(
    grep -rnE 'workers\.(pool|busy|overflow)' crates/server/src src
)"
# a tenant owns its metrics: no per-session cache of tenant handles, and
# no scope looked up by a tenant's name where the tenant is at hand
forbid "per-session metric caches (record through Tenant::metrics):" "$(
    grep -rn 'SessionMetrics' crates src tests examples bench/src
)"
forbid "tenant scopes looked up by name (record through the Tenant the site holds):" "$(
    grep -rnF 'tenant_scope(' crates/server/src/server crates/server/src/replica.rs
)"
# a request ends in one place, whoever made its terminal: a handler
# returns its stream as the transport's `Action`, and the drain ends it,
# so no stream is stashed beside a placeholder reply for a second end
forbid "the stashed stream (a handler returns its Action; the drain ends a stream):" "$(
    grep -rnE 'pending_flow|Reply::ok\("streaming"\)' crates/server/src
)"
forbid "errors counted outside Session::end_request (a request ends in one place):" "$(
    server_module | outside_fns 'record_error[(]|errors[.]inc[(][)]' 'end_request'
)"

# ... and Thm 3.2's AYZ is cq-problems' `find_triangle_ayz`, not an
# unplanned engine operator
forbid "cq-matrix in cq-engine (no engine operator multiplies matrices):" "$(
    grep -rn 'cq_matrix' crates/engine/src
    grep -n 'cq-matrix' crates/engine/Cargo.toml | sed 's|^|crates/engine/Cargo.toml:|'
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
# ... and every verdict is classify's: elsewhere `Verdict::X {` opens a
# pattern — inside `matches!(`, after `let`, or closed right before `=>`,
# `|` or a guard — never a value, so no plan cites a bound of its own
forbid "verdicts built outside cq_core::classify (take \`verdict\`'s):" "$(
    find crates/*/src -name '*.rs' -not -path crates/core/src/classify.rs | sort \
        | while read -r f; do
            sed '/^#\[cfg(test)\]/,$d' "$f" | awk -v f="$f" '
                function close_at(s,   i, c) {
                    for (i = 1; i <= length(s); i++) {
                        c = substr(s, i, 1)
                        if (c == "{") depth++
                        if (c == "}" && --depth == 0) return i
                    }
                    return 0
                }
                function judge(tail) {
                    if (pre !~ /matches!\([^()]*$|let *$/ && tail !~ /^ *(=>|\||if )/)
                        print f ":" at ":" text
                }
                /^ *\/\// { next }
                open { if (i = close_at($0)) { open = 0; judge(substr($0, i + 1)) }; next }
                match($0, /Verdict::(Easy|Hard|Open) *\{/) {
                    pre = substr($0, 1, RSTART - 1); at = FNR; text = $0; depth = 0
                    rest = substr($0, RSTART)
                    if (i = close_at(rest)) judge(substr(rest, i + 1)); else open = 1
                }'
        done
)"
# ... and a plan is correct on every database: no source answers from the
# statistics it was planned on, the operators return early on an empty
# relation themselves
forbid "a source that answers from planning-time statistics (the operators exit on an empty relation):" "$(
    grep -rnE 'Source::Empt[y]\b|trivially_empt[y]' crates src tests examples
)"
# statistics are catalog entries: no second memo with its own version
# table and race beside the one map, whose one insert path is `Memo::insert`
forbid "a second memo in the catalog (statistics are the artifact (\"stats\", name)):" "$(
    non_test crates/data/src/catalog.rs | grep -E 'relation_stats|stats_of|counts\['
)"
exactly_one "insert into the catalog's map (\`Memo::insert\`)" "$(
    non_test crates/data/src/catalog.rs | grep -F 'entries.insert('
)"
# ... and a session keeps a plan by the generation it was made at: the
# statement memo names the statistics only as what its lazy \`stats\`
# argument returns, asked for on a replan
forbid "statistics kept in the statement memo (key a plan by Database::generation):" "$(
    non_test crates/server/src/server/stmt.rs | grep -E 'Arc::ptr_eq|DataStats' \
        | grep -vF 'stats: impl FnOnce() -> Arc<cq_data::DataStats>,'
)"
# a warm scalar is one lookup: every product of one query is stored by
# the one `.artifact(` call that takes its kind from its caller, in
# `ExecCtx::memo`, and a per-query kind is named only as its argument
exactly_one "catalog artifact of a caller's kind (\`ExecCtx::memo\` stores every product of one query)" "$(
    for f in crates/*/src/*.rs crates/*/src/*/*.rs; do non_test "$f"; done \
        | grep -E '\.artifact\([^"]*\bkind\b'
)"
forbid "per-query kinds outside a call of ExecCtx::memo (memoize a query's product through it):" "$(
    for f in crates/*/src/*.rs crates/*/src/*/*.rs; do non_test "$f"; done \
        | grep -E '"(free_links|fc_da|lex_da|mat_da|fc_count|gj_count|gj_decide)"' \
        | grep -vF '.memo(db, "'
)"
# ... and the catalog writes every key: no thread-local buffer in the
# engine, and no key formatted into a string of its own (five lines above
# an `.artifact(` call, or on it) — hand the catalog the parts instead
forbid "thread_local! in cq-engine (the catalog writes keys into its own buffer):" "$(
    grep -rn 'thread_local!' crates/engine/src
)"
forbid "a catalog key formatted into a String (pass format_args! or the parts):" "$(
    for f in crates/engine/src/*.rs; do non_test "$f" | grep -B5 -F '.artifact('; done \
        | grep -E 'format!\(|\.to_string\(\)'
)"
exactly_one "witness renderer (\`fn witness_text\`)" "$(
    grep -rnE 'fn witness_text\b' crates
)"
# (`EvalCtx::with_catalog` is the setter that hands a context its catalog)
forbid "caller-less planner entry points (a catalog registry, cache clearing):" "$(
    grep -rnE 'fn (with_catalog|catalog_for|registry|peek|clear|clear_cache)\b' \
        crates/planner/src | grep -vE '^crates/planner/src/ctx\.rs:[0-9]+: *pub fn with_catalog<'
    grep -rnE 'CatalogRegistry|CATALOG_REGISTRY_CAP' crates/planner/src
)"
# no process-wide catalog: a context without one runs cold, so no static
# keeps entries for databases long dropped, and the facade over such a
# static, the cold twin of `EvalCtx::execute` and the second door into
# its dispatch table stay deleted
forbid "a process-wide catalog or a second way to evaluate (EvalCtx is the one; hand it a catalog to run warm):" "$(
    grep -rnE 'OnceLock<IndexCatalog>|static\b.*IndexCatalog' crates src
    grep -nE '\bmod eval\b' crates/planner/src/lib.rs | sed 's|^|crates/planner/src/lib.rs:|'
    grep -rn 'eval::' crates src tests examples
    grep -nE 'pub fn (execute|build_lex_access)\(' crates/planner/src/execute.rs \
        | sed 's|^|crates/planner/src/execute.rs:|'
)"
# a plan is `Op { source, task }`: every pair has its end in the executor,
# so no per-task function falls back to refusing pairs no planner forms
forbid "fallbacks in the executor (one check at the top of execute_in refuses a task the operator cannot widen to):" "$(
    grep -nE 'fn unsupported|Err\(unsupported|_ => Err\(' crates/planner/src/execute.rs \
        | sed 's|^|crates/planner/src/execute.rs:|'
)"
# one evaluation path: a `BATCH` item runs down the statement path and the
# server admits every plan, so the planner's batch pool, its budget and
# trace plumbing and the engine's over-budget error stay deleted
forbid "batch, budget or trace plumbing beside the statement path (a BATCH item is a statement; the server admits):" "$(
    grep -rnE 'batch_tasks|fn batch\b|batch_workers|OverBudget|with_budget|with_trace|fn admit\b' \
        crates src tests examples
)"

# one answer stream: three sources of one concrete type, not a trait with an
# implementing struct per source, an enumerator wrapping the shared tree, or
# a planner wrapper forwarding to a boxed stream
forbid "answer-stream layers beside cq_engine::Answers (add a source to it instead):" "$(
    grep -rnE 'trait AnswerStream|RelationStream|DirectAccessStream|EnumeratorStream|struct Enumerator\b|fn (from_stream|into_stream|into_answers|can_seek)\b' \
        crates src tests examples
)"

# one direct-access structure: the reduced tree serves Thm 3.24, Thm 3.18
# and the materialized baseline; no second struct, wrapper or trait object
forbid "direct-access structures beside LexDirectAccess (add a builder to it instead):" "$(
    grep -rnE 'struct (MaterializedDirectAccess|FreeConnexDirectAccess)\b|dyn (\w+::)*DirectAccess\b' \
        crates/engine/src crates/planner/src
)"

# a query's structure depends on its text alone: a session keeps it per
# statement, and nothing keys it by a canonical shape behind a lock that
# every session's first plan waits on
forbid "the shape cache, its canonicalizer or the global planner (a session keeps a statement's Structure):" "$(
    grep -rnE 'canonical_shape|CanonicalShape|PlanCache|with_global_planner|cache_counters' \
        crates src tests examples
)"
forbid "a lock in the planner (it holds no state):" "$(
    for f in crates/planner/src/*.rs; do non_test "$f"; done | grep -F 'Mutex'
)"

# one logged write on the tenant (`apply_logged`, taking the record), the
# limit set's read-edit-log under the same lock (`set_limits`), and the
# unlogged `mutate`; no `foo` / `foo_durable` ladder beside them
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
# ... and one random-query generator, which never falls back to a fixed
# query: the properties that draw from it share its coverage
exactly_one "random-query generator under tests/ (\`fn query_strategy\` in tests/queries/mod.rs)" "$(
    grep -rnE 'fn query_strategy\b' tests
)"

exit $status
