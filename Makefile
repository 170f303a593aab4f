# Convenience targets for the PartMiner reproduction.

PY ?= python3

.PHONY: test bench figures examples quicktest clean

test:            ## full test suite
	$(PY) -m pytest tests/

quicktest:       ## tests minus the example subprocess smoke tests
	$(PY) -m pytest tests/ --ignore=tests/test_examples.py

bench:           ## the micro benches (support counting, storage, serving)
	$(PY) -m pytest benchmarks/ --benchmark-only --ignore=benchmarks/ladder

figures:         ## every paper figure + ablations: results/*.json + .svg, EXPERIMENTS.md
	$(PY) benchmarks/figures.py

examples:        ## run every example script
	for s in examples/*.py; do echo "== $$s"; $(PY) $$s || exit 1; done

clean:           ## untracked outputs only: benchmarks/results/ is committed
	rm -rf .pytest_cache benchmarks/.quick src/repro.egg-info
	find . -name __pycache__ -type d -exec rm -rf {} +
