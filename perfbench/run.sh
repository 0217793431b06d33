#!/usr/bin/env bash
# Build the benchmark driver and the rxv server from this checkout's
# sources, then run the driver with the given arguments. Run it from the
# root of the checkout:
#
#   bash perfbench/run.sh --workload fig11_mix --seed 1 --seconds 10 --trace 0
#
# Build output goes to stderr; the driver's last line on stdout is its
# JSON result.
set -euo pipefail
if [ ! -f dune-project ] || [ ! -d lib ] || [ ! -d bin ]; then
  echo "perfbench: run from the root of an rxv checkout (dune-project, lib/ and bin/ are missing here)" >&2
  exit 2
fi
dune build --root . --display quiet ./perfbench/src/perfbench.exe ./bin/rxv_cli.exe >&2
# Every workload is strictly sequential (one thread, one connection), so
# the driver and the server it starts share one CPU: on a 2-vCPU VM a
# wake-up across CPUs made a read's round trip vary by 3x.
# The CPU is the first one this shell may run on.
pin=()
if cpu=$(taskset -cp $$ 2>/dev/null | sed -n 's/.*: *\([0-9]*\).*/\1/p') && [ -n "$cpu" ]; then
  pin=(taskset -c "$cpu")
fi
exec ${pin[@]+"${pin[@]}"} ./_build/default/perfbench/src/perfbench.exe \
  --rxv ./_build/default/bin/rxv_cli.exe "$@"
