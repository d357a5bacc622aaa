#!/usr/bin/env bash
# Non-test lines of Rust, per crate and in total: every `.rs` file under
# `src/` and `crates/*/src`, leaving out `tests.rs` files and top-level
# `#[cfg(test)]` items. Such an item ends at its own line when that line
# ends in `;` (`mod tests;`), otherwise at the next `}` in column 0.
# Blank and comment lines count. Report-only: prints, and fails only when
# a source directory is missing.
#
#   bash .github/loc.sh
set -euo pipefail
cd "$(dirname "$0")/.."

count() {
    find "$1" -name '*.rs' ! -name tests.rs -print0 | sort -z | xargs -0 -r awk '
        FNR == 1 { pending = 0; skip = 0 }
        skip { if (/^}/) skip = 0; next }
        pending { pending = 0; if (!/;[ \t]*$/) skip = 1; next }
        /^#\[cfg\(test\)\]/ { pending = 1; next }
        { n++ }
        END { print n + 0 }
    '
}

total=0
printf '%-16s %8s\n' crate lines
for dir in src crates/*/src; do
    name=$(dirname "$dir")
    n=$(count "$dir")
    total=$((total + n))
    printf '%-16s %8d\n' "$name" "$n"
done
printf '%-16s %8d\n' total "$total"
