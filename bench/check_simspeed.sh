#!/bin/sh
# Host-speed regression gate: re-measure simulator event throughput and
# fail if it regressed more than 20% below the committed baseline.
# Also gates the parallel sweep scenarios: the "pooled" sweep runs on
# min(4, cores) domains and must reach at least 2.5x the serial sweep's
# aggregate events/s at 4 domains, 1.5x at 2-3 domains (the floor is
# skipped on a single core, where there is nothing to scale).
# Also gates scheduler aggregation: the "10k flows 64B" scenario pair
# (sched=fifo vs sched=aggreg) must show >= 2x simulated goodput with
# aggregation on. Both finish times are simulated, so this gate is
# deterministic and never skipped.
# Also gates the zero-copy long-message path: the "sisci 1MB rendezvous
# zero-copy" scenario (warm pin-down cache) must beat the staged
# "sisci 1MB ping-pong" by >= 1.2x in simulated one-way bandwidth.
# Deterministic for the same reason; the cold-cache scenario rides
# along as a host-speed line only.
#
# Usage: bench/check_simspeed.sh [baseline.json]
# Refresh the baseline with: dune exec bench/main.exe -- simspeed --json
set -eu
cd "$(dirname "$0")/.."
baseline="${1:-BENCH_simspeed.json}"
if [ ! -f "$baseline" ]; then
  echo "check_simspeed: baseline '$baseline' not found" >&2
  echo "check_simspeed: generate one with: dune exec bench/main.exe -- simspeed --json" >&2
  exit 2
fi
exec dune exec bench/main.exe -- simspeed --baseline "$baseline"
