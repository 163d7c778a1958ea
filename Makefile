# Convenience targets for the SFC-ACD reproduction.

PYTHON ?= python

.PHONY: install test bench bench-paper paper-check experiments experiments-paper examples clean

install:
	$(PYTHON) -m pip install -e .

test:
	$(PYTHON) -m pytest tests/

bench:
	$(PYTHON) -m pytest benchmarks/ --benchmark-only

bench-paper:
	REPRO_SCALE=paper $(PYTHON) -m pytest benchmarks/ --benchmark-only

# paper-scale tables + fig6 against benchmarks/paper_digests.json (~3 min)
paper-check:
	$(PYTHON) benchmarks/paper_check.py

experiments:
	$(PYTHON) -m repro.experiments.cli all

experiments-paper:
	REPRO_SCALE=paper $(PYTHON) -m repro.experiments.cli all

examples:
	for f in examples/*.py; do echo "== $$f =="; $(PYTHON) $$f || exit 1; done

clean:
	rm -rf build dist src/*.egg-info .pytest_cache
	find . -name __pycache__ -type d -exec rm -rf {} +
