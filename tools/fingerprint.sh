#!/bin/sh
# fingerprint: write every deterministic output of the simulator to one
# directory, so two revisions compare with a single `diff -r`.
#
# usage: tools/fingerprint.sh DIR
#
# Builds the CLI and the bench with dune in the checkout that holds this
# script, then writes to DIR (created if missing), one file per command:
#
#   check.txt             check --seeds 1000 --jobs 2 (each ok line ends
#                         in events=N, the run's probe-event count)
#   report-SCENARIO.txt   report --jobs 1 --scenario SCENARIO, for
#                         dumbbell, lattice and jitter-chain
#   fig2.txt fig3.txt fig4.txt fig6.txt
#                         the figure at --quick --jobs 2
#   fig6-extended.txt     fig6 --quick --extended --jobs 2
#   flaps.txt jitter.txt manet.txt hoststack.txt adversary.txt
#                         the scenario at --quick --jobs 2
#   alloc.txt             bench/main.exe alloc, wall-clock column removed
#
# Every file is byte-identical across runs of one revision on one
# compiler, so a change that must not move simulated behaviour is
# checked by
#
#   tools/fingerprint.sh /tmp/fp-parent   # in a checkout of the parent
#   tools/fingerprint.sh /tmp/fp-change   # in the changed tree
#   diff -r /tmp/fp-parent /tmp/fp-change
#
# The script writes nothing but DIR's files (and dune's _build). Exit
# status: 0 when every command succeeded, 1 when one failed (its output
# is still written), 2 on a usage or build error. About 30 s on two
# cores.

set -u

if [ $# -ne 1 ]; then
  echo "usage: $0 DIR" >&2
  exit 2
fi
mkdir -p "$1" || exit 2
out=$(cd "$1" && pwd)
repo=$(cd "$(dirname "$0")/.." && pwd)
cd "$repo" || exit 2
if ! dune build bin/tcp_pr_sim.exe bench/main.exe; then
  echo "fingerprint: build failed" >&2
  exit 2
fi
sim=./_build/default/bin/tcp_pr_sim.exe
status=0

# record FILE COMMAND...: COMMAND's standard output into $out/FILE.
record() {
  file=$1
  shift
  if ! "$@" > "$out/$file"; then
    echo "fingerprint: '$*' failed" >&2
    status=1
  fi
}

record check.txt $sim check --seeds 1000 --jobs 2
for scenario in dumbbell lattice jitter-chain; do
  record "report-$scenario.txt" $sim report --jobs 1 --scenario "$scenario"
done
for figure in fig2 fig3 fig4 fig6 flaps jitter manet hoststack adversary; do
  record "$figure.txt" $sim "$figure" --quick --jobs 2
done
record fig6-extended.txt $sim fig6 --quick --extended --jobs 2
# The allocation rows' second column is wall-clock seconds; every other
# column is deterministic on a given compiler.
if ! alloc=$(./_build/default/bench/main.exe alloc); then
  echo "fingerprint: 'bench/main.exe alloc' failed" >&2
  status=1
fi
printf '%s\n' "$alloc" | sed -E 's/^(  [^ ]+ +)[0-9.]+ s  /\1/' \
  > "$out/alloc.txt"
exit $status
