"""Self-tests of the end-to-end benchmark, at its ``--quick`` size.

Outside tier-1's ``testpaths``; run with

    PYTHONPATH=src python -m pytest benchmarks/e2e/tests
"""

from __future__ import annotations

import importlib.util
import json
import re
from pathlib import Path

import pytest

E2E = Path(__file__).resolve().parents[1]
ROOT = E2E.parents[1]

_spec = importlib.util.spec_from_file_location("e2e_run", E2E / "run.py")
bench = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(bench)

from e2ebench.catalogue import END_TO_END, PER_LAYER, as_contract  # noqa: E402
from e2ebench.workloads import SPECS  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def value(result: dict, name: str) -> float:
    return result["metrics"][name]["value"]


def test_contract_matches_the_catalogue_and_its_caps():
    contract = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert contract["paths"] == ["benchmarks/e2e"]
    assert contract["command"] == ["python3", "benchmarks/e2e/run.py"]
    assert contract["workloads"] == [{"name": s.name, "why": s.why} for s in SPECS.values()]
    assert contract["end_to_end"] == as_contract(END_TO_END, with_bound=True)
    assert contract["per_layer"] == as_contract(PER_LAYER, with_bound=False)
    assert 2 <= len(contract["workloads"]) <= 8
    assert 1 <= len(contract["end_to_end"]) <= 16
    assert 1 <= len(contract["per_layer"]) <= 128
    names = [row["name"] for key in ("workloads", "end_to_end", "per_layer") for row in contract[key]]
    assert len(names) == len(set(names))
    assert all(NAME.fullmatch(name) for name in names)
    for row in contract["end_to_end"] + contract["per_layer"]:
        assert UNIT.fullmatch(row["unit"]) and row["better"] in ("lower", "higher")
    for row in contract["workloads"]:
        assert len(row["why"]) <= 200 and "\n" not in row["why"]
    setup = next(row for row in contract["end_to_end"] if row["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert all(0 < row["bound"] <= setup["bound"] <= 0.25 for row in contract["end_to_end"])


@pytest.mark.parametrize("workload", ["serve_cch_epochs", "offline_batch"])
def test_traced_replays_repeat_exactly_and_the_budget_closes(workload):
    # run() itself replays the traced pass twice and clears `correct` when an
    # exact counter (visited, windows, cache hits...) differs between them.
    result = bench.run(workload, seed=7, seconds=1.5, trace=1, quick=True)
    assert result["correct"] and result["failed"] == 0
    assert set(result["metrics"]) == {m.name for m in PER_LAYER}
    assert abs(value(result, "bench.budget_residual_pct")) <= 5.0
    assert value(result, "search.visited_total") > 0
    if workload == "serve_cch_epochs":
        assert value(result, "index.served_windows") == value(result, "streaming.windows")
        assert value(result, "index.customize_runs") >= 4


def test_held_out_seed_completes_with_nothing_failed():
    result = bench.run("serve_cache_hot", seed=11, seconds=2.0, trace=0, quick=True)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert set(result["metrics"]) == {m.name for m in END_TO_END}
    assert all(entry["value"] > 0 for entry in result["metrics"].values())
