#!/usr/bin/env bash
# Runs the benchmark on two checkouts in alternating pairs and compares them:
#
#   scripts/bench-pairs.sh PARENT_DIR CHANGE_DIR WORKLOAD SEED...
#
# Each seed is one pair: bench/run.sh runs once in each checkout with that
# seed, one run at a time. The side that runs first swaps from pair to pair
# (parent first, then change first, and so on: ABBA), so a drift of the host
# over the session falls on both sides alike. With the parent always first,
# setup_s read 8–11 % slower on the change side even on a workload whose code
# the change did not touch.
#
# For every metric of the result lines it prints each side's median [q1 q3]
# over the pairs and in how many pairs the change read lower, whichever
# direction is better for that metric. Each run's exit code, correctness and
# failed operations go to standard error as it ends.
#
# BENCH_SECONDS (default 20) and BENCH_TRACE (default 0) are passed on as
# --seconds and --trace. Every run's standard output and error are kept in
# BENCH_OUT (default: a new directory under $TMPDIR), as SIDE-SEED.out/.err.
# A run takes about a minute, so this is a tool for a before/after, not a CI
# step.
set -euo pipefail

if (($# < 4)); then
  echo "usage: $0 PARENT_DIR CHANGE_DIR WORKLOAD SEED..." >&2
  exit 2
fi
parent="$(cd "$1" && pwd)"
change="$(cd "$2" && pwd)"
workload="$3"
shift 3
secs="${BENCH_SECONDS:-20}"
trace="${BENCH_TRACE:-0}"
out="${BENCH_OUT:-$(mktemp -d "${TMPDIR:-/tmp}/bench-pairs.XXXXXX")}"
mkdir -p "$out"

# run SIDE DIR SEED runs one benchmark and reports how it ended.
run() {
  local side="$1" dir="$2" seed="$3" code=0
  (cd "$dir" && bash bench/run.sh --workload "$workload" --seed "$seed" --seconds "$secs" --trace "$trace") \
    >"$out/$side-$seed.out" 2>"$out/$side-$seed.err" || code=$?
  local result
  result="$(grep -o '"correct":[a-z]*,"attempted":[0-9]*,"failed":[0-9]*' "$out/$side-$seed.out" | tail -n 1 || true)"
  echo "$workload seed $seed $side: exit $code ${result:-no result line}" >&2
}

pair=0
for seed in "$@"; do
  if ((pair % 2 == 0)); then
    run parent "$parent" "$seed"
    run change "$change" "$seed"
  else
    run change "$change" "$seed"
    run parent "$parent" "$seed"
  fi
  pair=$((pair + 1))
done

# One "side seed metric value" line per metric of each run's result line (its
# last line of output), then the summary.
for seed in "$@"; do
  for side in parent change; do
    tail -n 1 "$out/$side-$seed.out" |
      grep -o '"[a-z0-9_.]*":{"value":[-0-9.e+]*' |
      sed "s/^\"\\([^\"]*\\)\":{\"value\":/$side $seed \\1 /" || true
  done
done | awk -v workload="$workload" -v out="$out" -v seedlist="$*" '
  # quantile of the sorted values v[1..n], linear between neighbours, as bench/ computes it.
  function quantile(v, n, q,   pos, lo, hi) {
    pos = q * (n - 1); lo = int(pos); hi = (pos > lo) ? lo + 1 : lo
    return v[lo + 1] + (v[hi + 1] - v[lo + 1]) * (pos - lo)
  }
  function summary(side, m,   v, n, i, j, x) {
    n = 0
    for (k in val) {
      split(k, f, SUBSEP)
      if (f[1] == side && f[3] == m) v[++n] = val[k]
    }
    for (i = 2; i <= n; i++) { x = v[i]; for (j = i - 1; j >= 1 && v[j] > x; j--) v[j + 1] = v[j]; v[j + 1] = x }
    if (n == 0) return "-"
    return sprintf("%.4g [%.4g %.4g]", quantile(v, n, 0.5), quantile(v, n, 0.25), quantile(v, n, 0.75))
  }
  {
    val[$1, $2, $3] = $4
    if (!($3 in seen)) { seen[$3] = 1; order[++metrics] = $3 }
  }
  END {
    printf "%s, pairs over seeds %s (runs kept in %s)\n", workload, seedlist, out
    split(seedlist, seeds, " ")
    printf "%-36s %-28s %-28s %s\n", "metric", "parent median [q1 q3]", "change median [q1 q3]", "change lower"
    for (i = 1; i <= metrics; i++) {
      m = order[i]; lower = 0; pairs = 0
      for (p in seeds) {
        s = seeds[p]
        if ((("parent", s, m) in val) && (("change", s, m) in val)) {
          pairs++
          if (val["change", s, m] < val["parent", s, m]) lower++
        }
      }
      printf "%-36s %-28s %-28s %d/%d\n", m, summary("parent", m), summary("change", m), lower, pairs
    }
  }'
