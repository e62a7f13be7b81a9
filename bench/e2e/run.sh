#!/usr/bin/env bash
# Builds the end-to-end benchmark from the checkout this script sits in
# and runs it; every argument goes to main.exe (see README.md).
#
# The run is pinned to one CPU, the last this process may use: the
# load generator, serve.exe and the file_cold child then hand each
# request over on one core, with no cross-CPU wake-up whose cost
# depends on what the other cores are doing. Without taskset, or where
# pinning is refused, the run is unpinned.
set -euo pipefail
cd "$(dirname "$0")/../.."
command -v dune > /dev/null || eval "$(opam env)"
dune build --root . ./bench/e2e/main.exe ./bench/e2e/serve.exe 1>&2
exe=./_build/default/bench/e2e/main.exe
if cpus=$(taskset -pc $$ 2> /dev/null); then
  cpu=${cpus##*[ ,-]} # "pid N's current affinity list: 0-3,8" -> 8
  if taskset -c "$cpu" true 2> /dev/null; then
    exec taskset -c "$cpu" "$exe" "$@"
  fi
fi
exec "$exe" "$@"
