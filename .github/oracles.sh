#!/usr/bin/env bash
# Run named test oracles: `oracles.sh <cargo test args> -- <name>...`.
# libtest treats each name as a substring filter, and a filter that matches
# no test passes silently with 0 tests run, so every name must first match
# at least one test that `--list` reports. An argument after `--` that
# starts with `-` (such as `--nocapture`) is passed to libtest as a flag.
set -euo pipefail
args=()
while [ "$#" -gt 0 ] && [ "$1" != -- ]; do
  args+=("$1")
  shift
done
[ "$#" -gt 0 ] && shift
listed=$(cargo test "${args[@]}" -- --list | sed -n 's/: test$//p')
for name in "$@"; do
  [[ $name == -* ]] && continue
  if ! grep -qF -- "$name" <<<"$listed"; then
    echo "oracle '$name' matches no test of: cargo test ${args[*]}" >&2
    exit 1
  fi
done
cargo test "${args[@]}" -- "$@"
