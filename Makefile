.PHONY: all build test bench bench-quick bench-gate scale-smoke \
	hoststack-smoke reorder-smoke figures golden ci doc coverage \
	coverage-summary lint-box clean

all: build

build:
	dune build @all

test:
	dune runtest

# Full test run with output archived, as used for the release record.
test-record:
	dune runtest --force --no-buffer 2>&1 | tee test_output.txt

bench:
	dune exec bench/main.exe

bench-record:
	dune exec bench/main.exe 2>&1 | tee bench_output.txt

# Quick perf snapshot: bench-scale Figs. 2/3/6, the bechamel
# micro-benchmarks, the allocation suite (bytes/packet and the PR 8
# bytes/ACK sweep across all sender variants), the many-flow scale
# suite and the engine-only churn suite; records wall-clock, ns/run,
# bytes/simulated-packet, bytes/ACK, events/sec and metrics snapshots
# in BENCH_PR10.json (repo root and results/). BENCH_JOBS=N
# parallelises the figure grids.
bench-quick:
	dune exec bench/main.exe -- quick

# Perf gate only: re-measure bytes/simulated-packet (fail if any
# scenario exceeds the recorded baseline by more than the 16 B/packet
# budget), bytes/ACK per sender variant (fail if any variant exceeds
# its recorded baseline by more than 16 B/ACK), the events/sec
# scaling floor at 10k vs 1k flows, the wheel-10000 events/sec floor
# (>= 0.7x the BENCH_PR6 record) and the raw engine events/sec floor
# (each engine-churn scenario must hold >= 0.7x its recorded rate).
# Baselines come from the newest BENCH_PR*.json carrying each block.
# Does not rewrite the records.
bench-gate:
	dune exec bench/main.exe -- gate

# Float-boxing tripwire: recompile the integer-ns scheduling core
# (time / event_queue / timer_wheel / engine) with ocamlopt -dcmm and
# fail if any hot function boxes a float outside the documented
# seconds boundary (DESIGN.md §15). The Cmm shapes it greps are
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

# Line-coverage report via bisect_ppx. Every library carries an
# (instrumentation (backend bisect_ppx)) stanza, which is inert unless
# the backend is installed and --instrument-with is passed — so this
# target degrades to a notice on machines without bisect_ppx instead of
# failing the build.
coverage:
	@if ocamlfind query bisect_ppx >/dev/null 2>&1; then \
	  rm -rf _coverage && mkdir -p _coverage; \
	  BISECT_FILE=$$(pwd)/_coverage/bisect \
	    dune runtest --force --instrument-with bisect_ppx && \
	  bisect-ppx-report html --coverage-path _coverage -o _coverage/html && \
	  bisect-ppx-report summary --coverage-path _coverage; \
	  echo "coverage report: _coverage/html/index.html"; \
	else \
	  echo "bisect_ppx not installed — skipping coverage"; \
	fi

coverage-summary:
	@if ocamlfind query bisect_ppx >/dev/null 2>&1; then \
	  bisect-ppx-report summary --coverage-path _coverage; \
	else \
	  echo "bisect_ppx not installed — no coverage summary"; \
	fi

# Full gate: build everything, run the test suite (which includes the
# Gc-delta bytes/packet ceilings in test_alloc), a conformance smoke
# run — fixed random scenarios over every sender variant with the
# invariant monitors armed, plus the golden-trace digests — the
# many-flow scale smoke, the host-stack and adaptive-adversary smokes,
# and the perf regression gate (allocation budgets + events/sec
# scaling floor + wheel-10000 and raw engine events/sec floors)
# against the recorded BENCH_PR*.json lineage, then the float-boxing
# lint over the scheduling core (fatal on the pinned compiler, see
# lint-box).
ci:
	dune build @all
	dune runtest
	dune exec -- bin/tcp_pr_sim.exe check --seeds 30 --golden test/golden
	$(MAKE) --no-print-directory scale-smoke
	$(MAKE) --no-print-directory hoststack-smoke
	$(MAKE) --no-print-directory reorder-smoke
	dune exec bench/main.exe -- gate
	$(MAKE) --no-print-directory lint-box
	-@$(MAKE) --no-print-directory coverage

doc:
	dune build @doc

clean:
	dune clean
