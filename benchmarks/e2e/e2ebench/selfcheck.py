"""``--selfcheck``: two full sets of runs of the same code, compared.

Each run is a fresh ``run.py`` subprocess, one after another.  The check
fails if an end-to-end metric differs between the sets by more than its
own regression bound, if an exact-count layer metric differs at all, or if
any run reports incorrect outputs.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path
from typing import Dict

from .catalogue import END_TO_END, PER_LAYER
from .workloads import SPECS

RUN = Path(__file__).resolve().parents[1] / "run.py"


def run_once(workload: str, seed: int, seconds: float, trace: int, quick: bool) -> dict:
    command = [
        sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ] + (["--quick"] if quick else [])
    done = subprocess.run(command, capture_output=True, text=True, timeout=600)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{' '.join(command)} printed no result:\n{done.stderr}")
    return json.loads(lines[-1])


def run_set(seed: int, seconds: float, quick: bool) -> Dict[str, Dict[str, dict]]:
    out: Dict[str, Dict[str, dict]] = {}
    for workload in SPECS:
        out[workload] = {
            "end_to_end": run_once(workload, seed, seconds, 0, quick),
            "per_layer": run_once(workload, seed, seconds, 1, quick),
        }
        print(f"  {workload} done", flush=True)
    return out


def selfcheck(seed: int, seconds: float, quick: bool, out_dir: Path) -> int:
    out_dir.mkdir(parents=True, exist_ok=True)
    sets = []
    for k in (1, 2):
        print(f"set {k}: seed={seed} seconds={seconds:g}", flush=True)
        sets.append(run_set(seed, seconds, quick))
        (out_dir / f"set{k}.json").write_text(json.dumps(sets[-1], indent=1, sort_keys=True))
    bad = 0
    print(f"{'workload':<18} {'metric':<28} {'set1':>12} {'set2':>12} {'spread':>8} {'bound':>6}")
    for workload in SPECS:
        runs = [s[workload] for s in sets]
        for phase in ("end_to_end", "per_layer"):
            for run in runs:
                if not run[phase]["correct"] or run[phase]["failed"]:
                    print(f"{workload}: {phase} run incorrect or with failed operations")
                    bad += 1
        for metric in END_TO_END:
            a, b = (r["end_to_end"]["metrics"][metric.name]["value"] for r in runs)
            spread = abs(a - b) / ((a + b) / 2.0)
            verdict = "" if spread <= metric.bound else "  <-- beyond its bound"
            bad += bool(verdict)
            print(f"{workload:<18} {metric.name:<28} {a:>12.5g} {b:>12.5g} "
                  f"{spread:>8.2%} {metric.bound:>6.0%}{verdict}")
        for metric in PER_LAYER:
            a, b = (r["per_layer"]["metrics"][metric.name]["value"] for r in runs)
            if metric.exact and a != b:
                print(f"{workload:<18} {metric.name:<28} {a!r} != {b!r}  <-- exact count differs")
                bad += 1
    print("SELFCHECK " + ("FAILED" if bad else "OK: both sets agree within every bound"))
    return 1 if bad else 0
