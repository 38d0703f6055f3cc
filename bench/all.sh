#!/bin/sh
# Run every workload once and print its metrics by name, with units.
#   sh bench/all.sh [SEED] [TRACE]    TRACE=0: end-to-end metrics, 1: per-layer
seed=${1:-1}
trace=${2:-0}
status=0
for w in manin-q3 count-q4 ledger-q3; do
    python3 bench/run.py --workload "$w" --seed "$seed" --seconds 40 --trace "$trace" || status=1
done
exit $status
