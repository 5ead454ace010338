#!/bin/sh
# lint-box: float-boxing tripwire for the scheduling core.
#
# PR 8 moved Engine / Event_queue / Timer_wheel to integer-nanosecond
# time (Sim.Time) so the hot scheduling functions never box a float.
# This script recompiles those modules standalone with `ocamlopt
# -dcmm` and scans the Cmm dump for float boxes — `alloc` blocks with
# header 1277 (one-field block, Double_tag, on 64-bit) — anywhere
# outside the designated float boundary. A new box in a hot function
# fails the lint, so a later change cannot quietly reintroduce the
# boxed-float API floor this PR removed.
#
# Why a standalone recompile: dune offers no per-module -dcmm hook and
# OCAMLPARAM's dcmm flag is discarded before it reaches the backend.
# The four modules only depend on each other (the sim library's other
# deps — fmt — are untouched by them), so copying the sources to a
# temp dir and compiling in dependency order reproduces exactly the
# code dune's Closure (no-flambda) backend generates.
#
# Known-benign float boxes, filtered by the alloc's source location:
#   * accesses to the polymorphic ['a array] payload columns
#     (`payloads`): generic array reads compile to a tag dispatch
#     whose float branch boxes — dead at runtime, payloads are never
#     float arrays.
#   * `Time.to_sec` bodies (time.ml) inlined into the boundary
#     wrapper functions listed in BOUNDARY_FNS below: these are the
#     documented seconds-facing API (DESIGN.md §15), plus the cold
#     invalid_arg message formatting in schedule_event_at_ns.
#
# The Cmm shapes it greps are compiler-version-sensitive, so the lint
# is pinned to the compiler it was calibrated on (PINNED below): there
# it is a fatal `make ci` stage; under any other ocamlopt it prints a
# skip notice and passes. Moving the pin means re-checking the filters
# above against the new compiler's -dcmm output.
#
# Exit status: 0 clean (or skipped on another compiler), 1 float box
# found, 2 toolchain failure.

set -eu

PINNED=5.1.1
version=$(ocamlopt -version 2>/dev/null || echo unknown)
if [ "$version" != "$PINNED" ]; then
  echo "lint-box: skipped: ocamlopt $version, pinned $PINNED"
  exit 0
fi

repo=$(cd "$(dirname "$0")/.." && pwd)
tmp=$(mktemp -d)
trap 'rm -rf "$tmp"' EXIT

MODULES="time event_queue timer_wheel engine"

# Functions allowed to contain an inlined Time.to_sec / of_sec body:
# the float-seconds boundary. Names are matched on the Cmm symbol with
# the compiler's _NNN stamp stripped.
#   to_sec / of_sec / of_sec_delay — the boundary itself (time.ml);
#   now / timer_granularity / next_event_time — engine's documented
#     float-seconds accessors (trace/probe/stats callers);
#   schedule_event_at_ns — to_sec only on the cold invalid_arg path
#     (formatting the "scheduled in the past" message).
BOUNDARY_FNS='to_sec|of_sec|of_sec_delay|now|timer_granularity|next_event_time|schedule_event_at_ns'

for m in $MODULES; do
  cp "$repo/lib/sim/$m.ml" "$repo/lib/sim/$m.mli" "$tmp/" || exit 2
done

cd "$tmp"
: > cmm.txt
for m in $MODULES; do
  if ! ocamlopt -c -dcmm "$m.mli" "$m.ml" 2>> cmm.txt >/dev/null; then
    echo "lint-box: ocamlopt failed on $m (toolchain problem, not a lint failure)" >&2
    sed -n '1,20p' cmm.txt >&2
    exit 2
  fi
done

# Pass 1 (awk): walk the Cmm dump, remember the enclosing function for
# every `alloc{file:line,c1-c2} 1277`, and emit one record per box:
#   <function-name-sans-stamp> <file> <line> <c1> <c2>
boxes=$(awk '
  /^\(function/ {
    fn = $2
    sub(/\{[^}]*\}/, "", fn)       # drop the {file:loc} annotation
    sub(/_[0-9]+$/, "", fn)        # drop the _NNN stamp
    sub(/^caml[A-Za-z_]+\./, "", fn)
  }
  match($0, /alloc\{[^}]*\} 1277/) {
    loc = substr($0, RSTART, RLENGTH)
    sub(/^alloc\{/, "", loc); sub(/\} 1277$/, "", loc)
    # loc = file.ml:LINE,C1-C2
    n = split(loc, a, /[:,\-]/)
    if (n == 4) print fn, a[1], a[2], a[3], a[4]
  }
' cmm.txt | sort -u)

status=0
while IFS=' ' read -r fn file line c1 c2; do
  [ -n "$fn" ] || continue
  # Pull the source text the alloc's debug location points at.
  snippet=$(awk -v l="$line" -v c1="$c1" -v c2="$c2" \
    'NR == l { print substr($0, c1 + 1, c2 - c1) }' "$tmp/$file")
  case $snippet in
  *payloads*)
    # Generic-array float branch on an ['a array] payload column.
    continue ;;
  esac
  if [ "$file" = "time.ml" ] \
     && printf '%s' "$fn" | grep -Eqx "$BOUNDARY_FNS"; then
    # Boundary conversion inlined into an allowed wrapper.
    continue
  fi
  echo "lint-box: float box in $fn ($file:$line, cols $c1-$c2): $snippet"
  status=1
done <<EOF
$boxes
EOF

if [ $status -eq 0 ]; then
  echo "lint-box: scheduling core clean ($(grep -c '^(function' cmm.txt) functions scanned, no float boxes outside the boundary)"
else
  echo "lint-box: FAIL — the integer-ns scheduling core boxes a float on a hot path (see DESIGN.md §15)" >&2
fi
exit $status
