"""Shared benchmark fixtures.

Every benchmark reproduces one artefact of the paper's Section VI on the
``medium`` Beijing-like network with the scaled size series documented in
DESIGN.md.  Heavy computations (the cache suite, the R2R suite) are shared
across the benchmark files through session-scoped fixtures, and each file
additionally times its core operation through the ``benchmark`` fixture so
``pytest benchmarks/ --benchmark-only`` produces a timing table.

:func:`publish` writes each artefact twice: the legacy paper-style text
render at ``results/<experiment>.txt`` (secondary artefact, kept for
diffing against older checkouts) and the harness's schema'd JSON at
``results/<label>/<experiment>.json`` so a pytest benchmark run is
directly comparable with ``repro bench compare``.

Environment knobs (validated by :mod:`repro.bench.knobs` — a malformed
value fails with an error naming the knob):

* ``REPRO_BENCH_SCALE``  — network preset (default ``medium``)
* ``REPRO_BENCH_SIZES``  — comma-separated batch sizes (default
  ``100,300,900,1800``)
* ``REPRO_BENCH_LABEL``  — label the schema'd JSON records under
  (default ``pytest``)
"""

from __future__ import annotations

from pathlib import Path

import pytest

from repro.analysis import experiments as exp
from repro.bench.figures import experiment_metrics
from repro.bench.knobs import consumed_knobs, env_int_list, env_str
from repro.bench.schema import SuiteResult, run_metadata, save_result

RESULTS_DIR = Path(__file__).parent / "results"

#: Fractions for the cache-size sweep.  The paper sweeps 70-100 % of |GC|;
#: at reproduction scale only deeper cuts bind (see EXPERIMENTS.md), so the
#: sweep reaches down to 10 %.
SWEEP_FRACTIONS = (0.1, 0.2, 0.4, 0.7, 1.0)


def bench_sizes():
    return env_int_list("REPRO_BENCH_SIZES", (100, 300, 900, 1800))


def bench_scale() -> str:
    from repro.bench.registry import SCALE_CHOICES

    return env_str("REPRO_BENCH_SCALE", "medium", choices=SCALE_CHOICES)


def bench_label() -> str:
    return env_str("REPRO_BENCH_LABEL", "pytest")


@pytest.fixture(scope="session")
def sizes():
    return bench_sizes()


@pytest.fixture(scope="session")
def env():
    return exp.build_env(scale=bench_scale(), seed=7)


@pytest.fixture(scope="session")
def cache_suites(env, sizes):
    return exp.run_cache_suite(env, sizes, cache_fractions=SWEEP_FRACTIONS)


@pytest.fixture(scope="session")
def r2r_suites(env, sizes):
    return exp.run_r2r_suite(env, sizes)


@pytest.fixture(scope="session")
def frozen_cache_suites(env, sizes):
    """The cache suite's streams on a frozen copy with landmark misses."""
    return exp.run_cache_suite(env, sizes, cache_fractions=(), frozen=True)


@pytest.fixture(scope="session")
def frozen_r2r_suites(env, sizes):
    """The R2R suite's batches on a frozen copy with landmark misses."""
    return exp.run_r2r_suite(env, sizes, frozen=True)


def publish(result) -> None:
    """Print the paper-style artefact and persist both render formats."""
    print()
    print(result.rendered)
    RESULTS_DIR.mkdir(parents=True, exist_ok=True)
    (RESULTS_DIR / f"{result.experiment}.txt").write_text(
        result.rendered + "\n", encoding="utf-8"
    )
    label = bench_label()
    save_result(
        SuiteResult(
            suite=result.experiment,
            label=label,
            meta=run_metadata(label, seed=7, knobs=consumed_knobs()),
            metrics=experiment_metrics(result),
            rendered=result.rendered,
        ),
        RESULTS_DIR,
    )
