#!/usr/bin/env bash
# Entry point of the benchmark of record; run from the repository root:
#
#   bash perfbench/run.sh --workload heavy_trial --seed 1 --seconds 20 --trace 0
#
# Builds the benchmark (and the simulator libraries it links) with dune,
# then hands every argument to perfbench/bench.exe. Build output goes to
# stderr so that standard output carries only the benchmark's report.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -f perfbench/dune ]; then
  echo "perfbench: run from the root of the repository (dune-project, lib/ and perfbench/ not found)" >&2
  exit 2
fi

if command -v dune >/dev/null 2>&1; then
  DUNE=(dune)
elif command -v opam >/dev/null 2>&1; then
  DUNE=(opam exec -- dune)
else
  echo "perfbench: dune not found" >&2
  exit 2
fi

"${DUNE[@]}" build --root . --cache=disabled ./perfbench/bench.exe 1>&2
exec ./_build/default/perfbench/bench.exe "$@"
