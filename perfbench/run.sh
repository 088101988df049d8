#!/usr/bin/env bash
# Builds the nanobound CLI and the benchmark driver from source in this
# checkout, then runs one workload:
#
#   bash perfbench/run.sh --workload explore|static_cli|warm_serve \
#     --seed N --seconds S --trace 0|1
#
# Build output goes to stderr; the last line of stdout is the result.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: not a nanobound checkout (dune-project, lib/ or bin/ missing)" >&2
  exit 2
fi
# The shared dune cache lives outside the checkout; keep every build
# artefact inside it.
export DUNE_CACHE=disabled
dune build --root . ./bin/nanobound.exe ./perfbench/main.exe 1>&2
exec ./_build/default/perfbench/main.exe "$@"
