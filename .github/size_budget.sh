#!/usr/bin/env bash
# Every size flag is held to the size budget before any array is made.
# The arguments are the command that runs the CLI, for example
#
#     bash .github/size_budget.sh reset-sde
#     bash .github/size_budget.sh python -m reset_sde.cli
#
# Each run below asks for 1e11 values or more (800 GB), under a 2 GB
# address-space limit, or gives a renewal law an infinite parameter
# (JSON reads 1e999 as inf), whose expected reset count would size the
# run: it must exit 2, with no traceback on stderr.
set -uo pipefail
ulimit -v 2000000
big=100000000000
status=0
err=$(mktemp)
while read -r args; do
  out=$(mktemp -d)
  # shellcheck disable=SC2086  # each line is a list of arguments
  "$@" $args --out "$out" > /dev/null 2> "$err"
  code=$?
  rm -rf "$out"
  if [ "$code" -ne 2 ] || grep -q Traceback "$err"; then
    echo "size budget: exit $code from: $args" >&2
    cat "$err" >&2
    status=1
  fi
done <<RUNS
analytic pdf --points $big
analytic stationary --r 1 --points $big
analytic cf --points $big
analytic mgf --points $big
analytic mean --points $big
analytic msd --p -0.5 --points $big
analytic pdf --x-lo -1 --x-hi 1 --points $big
analytic moments --n-max $big
simulate --n $big
simulate --n 1 --grid-points $big
fpe --h 1e-9
simulate --clock renewal --renewal-law {"name":"exponential","mean":1e999}
simulate --clock renewal --renewal-law {"name":"deterministic","gap":1e999}
RUNS
rm -f "$err"
exit "$status"
