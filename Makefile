# HeapTherapy+ reproduction — developer entry points.

PYTHON ?= python

.PHONY: install test test-output lint bench-paper bench-output \
	bench-full examples clean

install:
	pip install -e .

test:
	$(PYTHON) -m pytest tests/

test-output:
	$(PYTHON) -m pytest tests/ 2>&1 | tee test_output.txt

# Static checks: the repo's own program-model linter always runs; ruff
# and mypy run when installed (pip install -e .[lint]) and are skipped
# gracefully otherwise, so `make lint` works on a bare test image.
lint:
	PYTHONPATH=src $(PYTHON) -m repro lint --synthesizability
	PYTHONPATH=src $(PYTHON) -m repro verify-encoding
	PYTHONPATH=src $(PYTHON) -m repro layout || [ $$? -eq 1 ]
	@if $(PYTHON) -c "import ruff" 2>/dev/null || command -v ruff >/dev/null 2>&1; then \
		echo "== ruff"; ruff check src tests benchmarks || exit 1; \
	else \
		echo "ruff not installed; skipping (pip install -e .[lint])"; \
	fi
	@if $(PYTHON) -c "import mypy" 2>/dev/null; then \
		echo "== mypy"; $(PYTHON) -m mypy || exit 1; \
	else \
		echo "mypy not installed; skipping (pip install -e .[lint])"; \
	fi

# Paper tables/figures microbenchmarks (pytest-benchmark timings only).
bench-paper:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-output:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only 2>&1 | tee bench_output.txt

# Full-scale run: the numbers EXPERIMENTS.md reports.
bench-full:
	REPRO_BENCH_SCALE=1.0 $(PYTHON) -m pytest benchmarks/

examples:
	@for script in examples/*.py; do \
		echo "== $$script"; \
		$(PYTHON) $$script > /dev/null || exit 1; \
	done
	@echo "all examples ran cleanly"

# Generated output only: the tracked paper results under
# benchmarks/results stay; untracked files there are removed.
clean:
	rm -rf .pytest_cache .hypothesis perfbench/out \
		test_output.txt bench_output.txt
	git clean -fq -- benchmarks/results
	find . -name __pycache__ -type d -exec rm -rf {} +
