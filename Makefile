# Convenience targets for the repro repository.

.PHONY: install test coverage lint experiments experiments-small e20 trace-demo livesmoke bench-pairs report csv clean

install:
	pip install -e .

test:
	pytest tests/

# Line coverage over src/repro with the floor from pyproject.toml
# ([tool.coverage.report] fail_under). Requires pytest-cov (part of the
# `.[test]` extra); CI uploads the XML artifact.
coverage:
	@if python -c "import pytest_cov" >/dev/null 2>&1; then \
		pytest tests/ --cov=repro --cov-report=term --cov-report=xml; \
	else echo "pytest-cov not installed; skipping (pip install -e '.[test]')"; fi

# Static analysis: the source-rule tests (stdlib ast, always available),
# plus ruff and mypy when installed (CI installs both; local dev may not).
lint:
	python -m pytest tests/test_source_rules.py -q
	@if python -c "import ruff" >/dev/null 2>&1; then \
		python -m ruff check src tests; \
	else echo "ruff not installed; skipping (pip install ruff)"; fi
	@if python -c "import mypy" >/dev/null 2>&1; then \
		python -m mypy; \
	else echo "mypy not installed; skipping (pip install mypy)"; fi

experiments:
	python -m repro --all --json-dir results/reference --report results/reference_report.md

experiments-small:
	REPRO_SCALE=small python -m repro --all

# Regime-shift robustness smoke: offline vs online control under
# nonstationary/adversarial traffic (flash crowd, slow-query flood,
# query of death) with the anomaly-guarded degradation ladder.
e20:
	python -m repro e20 --scale small

# Exercise the trace CLI end-to-end: run a traced load point and render
# the waterfall + timeline report (fast smoke preset).
trace-demo:
	python -m repro trace e05 --scale small

# Sim-vs-live parity smoke: boot the asyncio serving node in-process,
# replay identical seeded arrival scripts through it and the simulator,
# and check the live curves against the sim predictions within
# tolerance bands. Writes live_parity.json (uploaded as a CI artifact).
livesmoke:
	python -m repro livesmoke --scale small --duration 9 \
	  --output live_parity.json

# Alternating benchmark pairs for a speed change: REF's committed tree
# (git archive into a temporary directory outside the repo) and the
# working tree take turns running one workload of benchmarks/perf, PAIRS
# times, the side that goes first alternating from pair to pair; each run
# prints its setup time, throughput, p50, p99, CPU/op, peak RSS, failed
# share and digest lines (every number BENCHMARK.json bounds, and the
# failure share a gain claim needs at zero), at the run length each
# side's BENCHMARK.json sets. Compare the sides pair by pair,
# not run by run; fewer than ten pairs cannot back a gain claim. A run
# that exits nonzero prints its output and stops the target.
#   make bench-pairs REF=HEAD WORKLOAD=engine-single PAIRS=10
REF ?= HEAD
WORKLOAD ?= engine-single
PAIRS ?= 10
bench-pairs:
	@ref_tree=$$(mktemp -d) && trap 'rm -rf "$$ref_tree"' EXIT && \
	git archive $(REF) | tar -x -C "$$ref_tree" && \
	for pair in $$(seq 1 $(PAIRS)); do \
	  if [ $$((pair % 2)) = 1 ]; then order="ref change"; \
	  else order="change ref"; fi; \
	  for side in $$order; do \
	    if [ $$side = ref ]; then tree="$$ref_tree"; name="$(REF)"; \
	    else tree="$(CURDIR)"; name="working tree"; fi; \
	    echo "== pair $$pair  $$side  ($$name)"; \
	    out=$$(cd "$$tree" && python3 benchmarks/perf/run.py \
	      --workload $(WORKLOAD) 2>&1) || { printf '%s\n' "$$out"; \
	      echo "== pair $$pair  $$side  FAILED"; exit 1; }; \
	    printf '%s\n' "$$out" | grep -E \
	      ' (setup_s|throughput_qps|latency_p50_ms|latency_p99_ms|cpu_ms_per_op|peak_rss_mb|failed_share) |digest'; \
	  done; \
	done

report:
	python -c "from repro.harness.report import generate_report; \
	  generate_report('results/reference', 'results/reference_report.md')"

csv:
	python -c "from repro.harness.figures import export_csv; \
	  export_csv('results/reference', 'results/csv')"

clean:
	rm -rf build dist src/repro.egg-info .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
