# Convenience targets for the compiled kernels and the perf gates.
# Everything works without `make`: the targets just name the canonical
# commands (the kernels are plain C via ctypes — no Python.h, no Cython —
# and build on first use when missing or older than their sources).

PYTHON ?= python

.PHONY: kernels test bench bench-guard clean

kernels:
	$(PYTHON) -m repro._kernels.build

test:
	$(PYTHON) -m pytest -x -q

bench:
	$(PYTHON) benchmarks/bench_perf.py

bench-guard:
	$(PYTHON) benchmarks/bench_perf.py --guard

clean:
	rm -f src/repro/_kernels/*.so
