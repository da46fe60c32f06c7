#!/usr/bin/env bash
# Build the benchmark from source and run it; all arguments pass through
# (see src/perfbench.ml for the flags).
#
# The benchmark is a dune project of its own (src/).  The libraries it
# links are private to the repository's root project, so the build
# assembles a workspace under .bench_build/ in the checkout root: a copy of
# src/ with a fresh copy of lib/ inside it.  The dune cache is off, so
# nothing is written outside the checkout.
set -euo pipefail
cd "$(dirname "$0")/.."
out="$PWD/.bench_build"
ws="$out/ws"
rm -rf "$ws"
mkdir -p "$ws"
cp -Rp perfbench/src/. "$ws/"
cp -Rp lib "$ws/lib"
export DUNE_CACHE=disabled
dune build --root "$ws" --build-dir "$out/_build" --profile release \
  ./perfbench.exe 1>&2
exec "$out/_build/default/perfbench.exe" "$@"
