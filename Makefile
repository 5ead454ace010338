.PHONY: all build test bench bench-gate scale-smoke \
	hoststack-smoke reorder-smoke figures golden ci doc lint-box clean

all: build

build:
	dune build @all

test:
	dune runtest

# Micro-benchmarks, the allocation suite and the engine-only churn
# suite, printed. Writes nothing; the baseline is rewritten only by
# `dune exec bench/main.exe -- record`.
bench:
	dune exec bench/main.exe

# Perf gate only: re-measure bytes/simulated-packet for every
# allocation scenario and bytes/ACK for every sender variant, and fail
# if any exceeds its bench/baseline.json entry by more than 16 B (a
# missing file, block or entry fails too); then fail if events/sec at
# 10k flows drops below 0.4x the 1k-flow rate measured in the same run.
# Reads bench/baseline.json only and writes nothing.
bench-gate:
	dune exec bench/main.exe -- gate

# Float-boxing tripwire: recompile the integer-ns scheduling core
# (time / timer_wheel / engine) with ocamlopt -dcmm and fail if any
# hot function boxes a float outside the documented seconds boundary
# (DESIGN.md §15). The Cmm shapes it greps are
# compiler-version-sensitive, so the script is pinned to ocamlopt
# 5.1.1: a fatal ci stage there, a printed skip on any other compiler.
lint-box:
	sh tools/lint_box.sh

# One-point smoke of the many-flow scale scenario: 1k concurrent flow
# slots for one simulated second (exit 0 with a one-row table).
scale-smoke:
	dune exec -- bin/tcp_pr_sim.exe scale --flows 1000 --duration 1

# Host-stack layer smoke: the buffer-pressure sweep (finite receive
# buffer, rwnd autotuning, GRO coalescing) at quick scale — exercises
# zero-window persistence and window reopening across three variants.
hoststack-smoke:
	dune exec -- bin/tcp_pr_sim.exe hoststack --quick

# Adaptive-adversary smoke: the closed-loop reordering dial at quick
# scale — every sender variant must end an epsilon search holding the
# target measured reordering density within tolerance (exit 1 on any
# MISS, with per-epoch controller traces for the failing variants).
reorder-smoke:
	dune exec -- bin/tcp_pr_sim.exe adversary --quick

# FIGURE_JOBS=N sets the domain count for the experiment grids
# (default: the machine's cores; output is identical at any N).
FIGURE_JOBS ?=
FIGURE_FLAGS := $(if $(FIGURE_JOBS),--jobs $(FIGURE_JOBS))

# Regenerate every paper figure and extension table at full scale
# (about half an hour; see results/ for the archived outputs).
figures:
	mkdir -p results
	dune exec -- bin/tcp_pr_sim.exe fig2 $(FIGURE_FLAGS) > results/fig2.txt
	dune exec -- bin/tcp_pr_sim.exe fig3 $(FIGURE_FLAGS) > results/fig3.txt
	dune exec -- bin/tcp_pr_sim.exe fig4 $(FIGURE_FLAGS) > results/fig4.txt
	dune exec -- bin/tcp_pr_sim.exe fig6 $(FIGURE_FLAGS) > results/fig6.txt
	dune exec -- bin/tcp_pr_sim.exe fig6 --extended $(FIGURE_FLAGS) > results/fig6_extended.txt
	dune exec -- bin/tcp_pr_sim.exe flaps $(FIGURE_FLAGS) > results/flaps.txt
	dune exec -- bin/tcp_pr_sim.exe jitter $(FIGURE_FLAGS) > results/jitter.txt
	dune exec -- bin/tcp_pr_sim.exe manet $(FIGURE_FLAGS) > results/manet.txt
	dune exec -- bin/tcp_pr_sim.exe hoststack $(FIGURE_FLAGS) > results/hoststack.txt
	dune exec -- bin/tcp_pr_sim.exe ablate all $(FIGURE_FLAGS) > results/ablations.txt

# Regenerate the golden conformance traces and the report snapshot
# under test/golden/ (only after an intended behaviour change; the
# directory is checked in and verified by `dune runtest` and `make ci`).
golden:
	dune exec -- bin/tcp_pr_sim.exe check --seeds 0 --write-golden test/golden
	dune exec -- bin/tcp_pr_sim.exe report --jobs 1 --out test/golden/report.txt

# Full gate, every stage fatal: build everything, run the test suite
# (which includes the allocation ceilings of test_alloc on the bench's
# own allocation scenarios, the CLI's usage-error exit codes and a run
# of five examples), a conformance run — 1000 seeded random scenarios
# over every sender variant with the invariant monitors armed, plus the
# golden-trace digests — the many-flow scale smoke, the host-stack and
# adaptive-adversary smokes, and the perf regression gate (allocation
# budgets over bench/baseline.json + the same-run events/sec scaling
# floor), then the float-boxing lint over the scheduling core (fatal
# on the pinned compiler, see lint-box).
ci:
	dune build @all
	dune runtest
	dune exec -- bin/tcp_pr_sim.exe check --seeds 1000 --jobs 2 --golden test/golden
	$(MAKE) --no-print-directory scale-smoke
	$(MAKE) --no-print-directory hoststack-smoke
	$(MAKE) --no-print-directory reorder-smoke
	dune exec bench/main.exe -- gate
	$(MAKE) --no-print-directory lint-box

doc:
	dune build @doc

clean:
	dune clean
