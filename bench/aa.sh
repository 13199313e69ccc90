#!/bin/sh
# A/A check: two interleaved sets of runs of the same tree, alternating
# which set goes first, compared with the benchmark's own bounds. Exits 1
# if any end-to-end metric reads as regressed or any op failed — which,
# for two sets of the same code, means the benchmark is too noisy on
# this host. Extra arguments go to the bench (-seed, -reps, -seconds).
set -eu
cd "$(dirname "$0")"
exec go run . -aa "$@"
