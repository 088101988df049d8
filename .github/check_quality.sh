#!/usr/bin/env bash
# Fails when a benchmark run's bound-quality figures rise above the
# values recorded in .github/bench_quality.txt:
#
#   bash .github/check_quality.sh WORKLOAD RESULT_FILE
#
# RESULT_FILE holds perfbench/run.sh's output; its last line is the
# result.
set -euo pipefail
workload=$1
result=$(tail -n 1 "$2")
status=0
checked=0
while read -r name metric recorded; do
  [ "$name" = "$workload" ] || continue
  checked=$((checked + 1))
  measured=$(printf '%s' "$result" |
    grep -o "\"$metric\":{\"value\":[^,}]*" | sed 's/.*://' || true)
  if [ -z "$measured" ]; then
    echo "$workload: $metric missing from the result"
    status=1
  elif awk -v m="$measured" -v r="$recorded" 'BEGIN { exit !(m + 0 > r + 0) }'; then
    echo "$workload: $metric rose to $measured (recorded $recorded)"
    status=1
  else
    echo "$workload: $metric $measured (recorded $recorded)"
  fi
done < "$(dirname "$0")/bench_quality.txt"
if [ "$checked" = 0 ]; then
  echo "$workload: no recorded figures"
  status=1
fi
exit $status
