"""Vectorized numpy batch-kernel speedup budget, enforced.

The claim the joint numpy sweep makes, measured directly and failed
(exit 1) when it does not hold: answering a ``REPRO_CSR_NP_BATCH``-query
batch (default 64) through :func:`np_batch_dijkstra` is at least
``REPRO_CSR_NP_MIN_SPEEDUP``x (default 5) faster than the per-query
dict-graph Dijkstra loop on the largest bundled synthetic network
(``xlarge``, ~20.7k vertices).  Best-of-``ROUNDS`` timing over a fixed
query set, so scheduler noise cannot manufacture a pass; answers are
verified bit-identical before anything is timed.

The measurement body lives in :mod:`repro.bench.csr_np` (shared with the
``csr_np`` harness suite — ``repro bench run --suite csr_np`` records the
same numbers as schema'd JSON); this script is the gating entry point.
Exits 0 with a notice when numpy is not installed — the kernels are an
optional extra and their absence is not a CI failure.

Run from the repo root::

    PYTHONPATH=src python benchmarks/bench_csr_np.py

Environment knobs: ``REPRO_CSR_NP_SCALE`` (default ``xlarge``),
``REPRO_CSR_NP_MIN_SPEEDUP`` (default ``5.0``), ``REPRO_CSR_NP_BATCH``
(default ``64``), ``REPRO_CSR_NP_ROUNDS`` (default ``5``).
"""

from __future__ import annotations

import sys

from repro.bench.csr_np import run_csr_np
from repro.bench.knobs import BenchConfigError, env_float, env_int, env_str


def main() -> int:
    try:
        outcome = run_csr_np(
            scale=env_str("REPRO_CSR_NP_SCALE", "xlarge"),
            batch=env_int("REPRO_CSR_NP_BATCH", 64),
            rounds=env_int("REPRO_CSR_NP_ROUNDS", 5),
            min_speedup=env_float("REPRO_CSR_NP_MIN_SPEEDUP", 5.0),
        )
    except BenchConfigError as err:
        print(f"BENCH CONFIG ERROR: {err}")
        return 2
    print(outcome.rendered)
    if outcome.failures:
        for failure in outcome.failures:
            print(f"BENCH FAILED: {failure}")
        return 1
    print("BENCH OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
