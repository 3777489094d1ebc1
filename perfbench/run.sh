#!/usr/bin/env bash
# Build the benchmark from source and run it; arguments pass through:
#   bash perfbench/run.sh --workload tables-quick --seed 1 --seconds 25 --trace 0
# Run from the root of a source checkout.  Build output goes to
# standard error; the benchmark's result is the last line of standard
# output.
set -u
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f perfbench/dune ]; then
  echo "perfbench: run from the root of a Protean source checkout" >&2
  exit 2
fi
if command -v dune >/dev/null 2>&1; then
  dune=(dune)
elif command -v opam >/dev/null 2>&1; then
  dune=(opam exec -- dune)
else
  echo "perfbench: dune not found" >&2
  exit 2
fi
"${dune[@]}" build --root . --profile release ./perfbench/bench.exe 1>&2 || exit 3
# Not exec: the benchmark's peak-memory reading covers its reaped
# children, and an exec'd process would inherit the build's.
./_build/default/perfbench/bench.exe "$@"
