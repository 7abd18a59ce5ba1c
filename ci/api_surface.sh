#!/usr/bin/env bash
# One entry point per operator: fail if the `*_with_catalog[_cancel]`
# ladder, an operator-level `*_cancel` variant, or a deprecated shim
# grows back in cq-engine / cq-planner. Catalog and cancel token travel
# in `cq_engine::ExecCtx` (and the planner's `EvalCtx`), not in function
# names. Likewise the server's answer path: rows are rendered in place
# (`render_row_into`), never through the per-row `String` wrappers.
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

# the allocating wrappers are for oracles and tests; the server's answer
# path renders in place, so the `Vec<String>` pump cannot grow back
forbid "render_row/render_rows in server.rs outside tests (use render_row_into):" "$(
    sed '/^#\[cfg(test)\]/,$d' crates/server/src/server.rs | grep -nE '\brender_rows?\('
)"

exit $status
