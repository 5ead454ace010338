#!/bin/sh
# bench_ab: paired A/B runs of the repository benchmark (bench/e2e)
# against an earlier revision.
#
# usage: tools/bench_ab.sh PARENT WORKLOAD PAIRS SEED
#   e.g. tools/bench_ab.sh HEAD~1 fig6-lattice 10 1
#
# PARENT is any git revision. It is extracted with `git archive` into a
# temporary directory outside the repository and built there; the
# working tree (uncommitted changes included) is built in place. Each
# pair then runs, on both builds,
#
#   run.exe --workload WORKLOAD --seed SEED --seconds 30 --trace 0
#
# one after the other, alternating which build goes first, so a slow
# phase of the host falls on both sides alike. Every pair's end-to-end
# values are printed as they arrive; the summary gives, per metric, each
# side's median and quartiles, the parent's interquartile range, and the
# number of pairs the working tree won (higher hops_per_s, lower
# everything else). Quartiles interpolate linearly between order
# statistics.
#
# Exit status: 0 when every run succeeded, 1 when a run failed, 2 on a
# usage or build error. Needs git, dune and a POSIX shell; about 75 s
# per pair.

set -eu

if [ $# -ne 4 ]; then
  echo "usage: $0 PARENT WORKLOAD PAIRS SEED" >&2
  exit 2
fi
parent=$1
workload=$2
pairs=$3
seed=$4

repo=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

mkdir "$tmp/parent"
if ! git -C "$repo" archive "$parent" | tar -x -C "$tmp/parent"; then
  echo "bench_ab: cannot extract $parent" >&2
  exit 2
fi
for dir in "$tmp/parent" "$repo"; do
  if ! (cd "$dir" && dune build bench/e2e/run.exe); then
    echo "bench_ab: build failed in $dir" >&2
    exit 2
  fi
done

metrics="hops_per_s setup_s alloc_b_per_hop peak_heap_mb"
results="$tmp/results"
: > "$results"
status=0

# run SIDE PAIR: one benchmark run of SIDE (parent|change), its values
# appended to $results as "pair side metric value" lines.
run() {
  side=$1
  pair=$2
  if [ "$side" = parent ]; then dir="$tmp/parent"; else dir=$repo; fi
  log="$tmp/$side-$pair.log"
  if (cd "$dir" && ./_build/default/bench/e2e/run.exe --workload "$workload" \
        --seed "$seed" --seconds 30 --trace 0 --out "$tmp/out-$side") \
       > "$log" 2>&1; then
    summary=$(tail -n 1 "$log")
    line="pair $pair $side:"
    for m in $metrics; do
      v=$(printf '%s\n' "$summary" \
            | sed -n "s/.*\"$m\":{\"value\":\([^,}]*\).*/\1/p")
      echo "$pair $side $m $v" >> "$results"
      line="$line $m=$v"
    done
    echo "$line"
  else
    echo "pair $pair $side: FAILED (last lines follow)"
    tail -n 5 "$log"
    status=1
  fi
}

i=1
while [ "$i" -le "$pairs" ]; do
  if [ $((i % 2)) -eq 1 ]; then
    run parent "$i"
    run change "$i"
  else
    run change "$i"
    run parent "$i"
  fi
  i=$((i + 1))
done

echo
echo "$workload seed $seed, $pairs pairs, parent $parent:"
for m in $metrics; do
  awk -v m="$m" '
    function quantile(xs, n, q,    pos, lo) {
      pos = q * (n - 1); lo = int(pos)
      return lo + 1 < n ? xs[lo] + (pos - lo) * (xs[lo + 1] - xs[lo]) : xs[lo]
    }
    function sort(xs, n,    i, j, x) {
      for (i = 1; i < n; i++) {
        x = xs[i]
        for (j = i - 1; j >= 0 && xs[j] > x; j--) xs[j + 1] = xs[j]
        xs[j + 1] = x
      }
    }
    $3 == m { v[$1, $2] = $4; seen[$1] = 1 }
    END {
      np = nc = wins = both = 0
      for (p in seen) {
        if ((p, "parent") in v) ps[np++] = v[p, "parent"]
        if ((p, "change") in v) cs[nc++] = v[p, "change"]
        if (((p, "parent") in v) && ((p, "change") in v)) {
          both++
          better = m == "hops_per_s" \
            ? v[p, "change"] > v[p, "parent"] : v[p, "change"] < v[p, "parent"]
          if (better) wins++
        }
      }
      if (np == 0 || nc == 0) { printf "  %-16s no complete runs\n", m; exit }
      sort(ps, np); sort(cs, nc)
      pm = quantile(ps, np, 0.5); cm = quantile(cs, nc, 0.5)
      p1 = quantile(ps, np, 0.25); p3 = quantile(ps, np, 0.75)
      printf "  %s\n", m
      printf "    parent median %.6g (q1 %.6g, q3 %.6g, IQR %.3g)\n", pm, p1, p3, p3 - p1
      printf "    change median %.6g (q1 %.6g, q3 %.6g), %+.1f%% on the median\n",
        cm, quantile(cs, nc, 0.25), quantile(cs, nc, 0.75),
        pm != 0 ? 100 * (cm - pm) / pm : 0
      printf "    change won %d of %d pairs\n", wins, both
    }' "$results"
done
exit $status
