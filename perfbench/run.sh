#!/usr/bin/env bash
# Builds the vstat benchmark from source and runs one workload:
#   bash perfbench/run.sh --workload inv-fo3 --seed 1 --seconds 20 --trace 0
# Must run inside a vstat checkout; the result is the last line of stdout.
set -euo pipefail
cd "$(dirname "$0")/.."
if [ ! -f dune-project ] || [ ! -d lib ]; then
  echo "perfbench: $(pwd) is not a vstat checkout (no dune-project or lib/)" >&2
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
# The shared dune cache lives outside the checkout; build without it.
export DUNE_CACHE=disabled
"${dune[@]}" build --root . --display quiet ./perfbench/main.exe >&2
exec ./_build/default/perfbench/main.exe run "$@"
