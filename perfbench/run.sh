#!/usr/bin/env bash
# Build the benchmark from source, then run it.  From the repository root:
#
#   bash perfbench/run.sh --workload trunk_lfn --seed 1 --seconds 20 --trace 0
#
# Build output goes to stderr; the last line on stdout is the JSON result.
set -euo pipefail

if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: run from the repository root (dune-project and lib/ not found)" >&2
  exit 2
fi

# Keep every build artefact inside the checkout.
export DUNE_CACHE=disabled
dune build --root . --display quiet ./perfbench/bin/main.exe >&2
exec ./_build/default/perfbench/bin/main.exe "$@"
