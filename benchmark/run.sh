#!/usr/bin/env bash
# Build hpl and hplbench from source, then run hplbench:
#   bash benchmark/run.sh --workload NAME --seed N --seconds S --trace 0|1
# Everything it builds or writes stays inside the checkout, under _build.
set -eu
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -f bin/hpl.ml ]; then
  echo "hplbench: run from a checkout of the hpl repository" >&2
  exit 2
fi
export DUNE_CACHE=disabled
dune build --root . ./bin/hpl.exe ./benchmark/hplbench.exe 1>&2
exec ./_build/default/benchmark/hplbench.exe "$@"
