#!/bin/sh
# Stress the socket-backed test suites (farm, serve, wire's socket
# sessions, zscope's HTTP routes): run each N times (default 20) and exit
# non-zero on the first failure, printing the failing run's tail.
#
#   sh scripts/stress.sh [N]
set -eu

cd "$(dirname "$0")/.."

n="${1:-20}"
suites="farm serve wire zscope"
dune build test/test_main.exe
exe=_build/default/test/test_main.exe

i=1
while [ "$i" -le "$n" ]; do
  for suite in $suites; do
    if ! out="$("$exe" test "$suite" 2>&1)"; then
      echo "$out" | tail -40 >&2
      echo "stress: suite $suite failed on run $i of $n" >&2
      exit 1
    fi
  done
  i=$((i + 1))
done
echo "stress: $n/$n runs green ($suites)"
