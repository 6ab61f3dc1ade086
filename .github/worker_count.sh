#!/usr/bin/env bash
# The simulate CSVs must not depend on how many processes wrote them.
# The arguments are the command that runs the CLI, for example
#
#     bash .github/worker_count.sh reset-sde
#     bash .github/worker_count.sh python -m reset_sde.cli
#
# Runs: exact; resets on grid rows (deterministic clock); Euler.  Three
# workers start shards at 100 and 200, inside 32-trajectory blocks.  No
# run may leave a part file behind, and a k-worker run's manifest lists
# k shards.
set -euo pipefail
for k in 1 2 3; do
  "$@" simulate --r 1 --xr 2 --scheme exact --horizon 10 \
    --n 300 --seed 7 --workers "$k" --out "workers-$k"
  "$@" simulate --clock renewal \
    --renewal-law '{"name":"deterministic","gap":0.5}' \
    --horizon 5 --grid-points 11 --n 300 --seed 7 --workers "$k" \
    --out "workers-grid-$k"
  "$@" simulate --r 1 --xr 2 --scheme euler --dt 0.01 --horizon 2 \
    --n 300 --seed 7 --workers "$k" --out "workers-euler-$k"
done
for run in workers workers-grid workers-euler; do
  for k in 2 3; do
    cmp "$run-1/trajectories.csv" "$run-$k/trajectories.csv"
    cmp "$run-1/resets.csv" "$run-$k/resets.csv"
  done
done
leftover=$(find workers-* -name '*.part*')
if [ -n "$leftover" ]; then
  echo "part files left behind: $leftover" >&2
  exit 1
fi
for run in workers workers-grid workers-euler; do
  for k in 1 2 3; do
    python3 -c 'import json, sys; sys.exit(len(json.load(open(sys.argv[1]))["shards"]) != int(sys.argv[2]))' \
      "$run-$k/manifest.json" "$k"
  done
done
