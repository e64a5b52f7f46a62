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
# (git archive) and the working tree (its tracked files plus untracked,
# non-ignored ones, snapshotted when the target starts) take turns
# running one workload of benchmarks/perf, PAIRS times, the side that
# goes first alternating from pair to pair. Every run gets a fresh
# temporary directory extracted from its side's snapshot, so whatever a
# directory does to a run lands on both sides as noise, not on one as a
# bias. Each run prints its setup time, throughput, p50, p99, CPU/op,
# peak RSS, failed share and digest lines (every number BENCHMARK.json
# bounds, and the failure share a gain claim needs at zero), at the run
# length each side's BENCHMARK.json sets. A run that exits nonzero
# prints its last 20 lines, keeps its full output in the runs directory
# (which then outlives the target, and its path is printed), and the
# pairs go on; its pair counts for neither side. After the last pair,
# tools/pairs_table.py prints one row per bounded metric and
# failed_share: each side's median and quartiles, how many pairs the
# change won, and whether the medians are further apart than REF's
# interquartile range, then whether the digests were equal in every
# pair and which runs failed. Fewer than ten pairs cannot back a gain
# claim.
#   make bench-pairs REF=HEAD WORKLOAD=engine-single PAIRS=10
REF ?= HEAD
WORKLOAD ?= engine-single
PAIRS ?= 10
bench-pairs:
	@trees=$$(mktemp -d) && runs=$$(mktemp -d) && \
	trap 'rm -rf "$$trees"; if ls "$$runs"/*.failed >/dev/null 2>&1; then \
	  echo "failed runs kept in $$runs"; else rm -rf "$$runs"; fi' EXIT && \
	git archive -o "$$trees/ref.tar" $(REF) && \
	git ls-files -z --cached --others --exclude-standard | \
	  tar --null --ignore-failed-read -T - -cf "$$trees/change.tar" && \
	for pair in $$(seq 1 $(PAIRS)); do \
	  if [ $$((pair % 2)) = 1 ]; then order="ref change"; \
	  else order="change ref"; fi; \
	  for side in $$order; do \
	    if [ $$side = ref ]; then name="$(REF)"; else name="working tree"; fi; \
	    echo "== pair $$pair  $$side  ($$name)"; \
	    tree=$$(mktemp -d -p "$$trees") && tar -xf "$$trees/$$side.tar" -C "$$tree" && \
	    if out=$$(cd "$$tree" && python3 benchmarks/perf/run.py \
	        --workload $(WORKLOAD) 2>&1); then \
	      printf '%s\n' "$$out" > "$$runs/$$pair-$$side.out"; \
	      printf '%s\n' "$$out" | grep -E \
	        ' (setup_s|throughput_qps|latency_p50_ms|latency_p99_ms|cpu_ms_per_op|peak_rss_mb|failed_share) |digest'; \
	    else \
	      status=$$?; \
	      printf '%s\n' "$$out" > "$$runs/$$pair-$$side.failed"; \
	      printf '%s\n' "$$out" | tail -n 20; \
	      echo "== pair $$pair  $$side  FAILED (exit $$status)"; \
	    fi; \
	    rm -rf "$$tree"; \
	  done; \
	done && \
	python3 tools/pairs_table.py "$$runs"

report:
	python -c "from repro.harness.report import generate_report; \
	  generate_report('results/reference', 'results/reference_report.md')"

csv:
	python -c "from repro.harness.figures import export_csv; \
	  export_csv('results/reference', 'results/csv')"

clean:
	rm -rf build dist src/repro.egg-info .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
