#!/usr/bin/env python3
"""The repo's one end-to-end benchmark: one workload per invocation.

    python3 benchmarks/e2e/run.py --workload serve_kernel --seed 7 \\
        --seconds 20 --trace 0

prints every metric by name with its unit and sample count, checks the
outputs against a Dijkstra oracle, and ends with one JSON line
(``correct``, ``attempted``, ``failed``, ``metrics``).  ``--trace 0``
reports the end-to-end metrics from untraced phases; ``--trace 1`` the
per-layer ones.  Exit status 1 on an oracle mismatch, an unaccounted query
or a paced run that was invalid twice.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import gc
import json
import logging
import resource
import statistics
import sys
from pathlib import Path
from typing import Dict, List, Tuple

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parents[1] / "src"))

from e2ebench import layers, oracle, phases  # noqa: E402
from e2ebench.catalogue import END_TO_END, PER_LAYER, Metric  # noqa: E402
from e2ebench.workloads import SPECS, Workload  # noqa: E402

Row = Tuple[float, int]  # value, sample count


def end_to_end_run(wl: Workload, seconds: float, tally: phases.Tally) -> Dict[str, Row]:
    """``--trace 0``: 40 % of the time for capacity replays, 30 % at each
    paced rate; nothing is traced."""
    spec = wl.spec
    phases.replay(wl, tally)  # warm-up, discarded
    capacity = phases.capacity_phase(lambda: phases.replay(wl, tally), 0.4 * seconds)
    low = phases.paced_phase(wl, spec.low_qps, 0.3 * seconds, tally)
    high = phases.paced_phase(wl, spec.high_qps, 0.3 * seconds, tally)
    # Before the oracle: its reference searches are the benchmark's memory.
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setups = capacity.setups + [low.setup_s, high.setup_s]  # speed-scaled
    last = capacity.last.result
    if spec.kind == "offline":
        oracle.check_batches(wl, last, tally)
    else:
        oracle.check_stream(wl, last, tally)
    return {
        "setup_s": (statistics.median(setups), len(setups)),
        "capacity_qps": (capacity.qps, capacity.reps),
        "latency_low_p50_ms": (low.p(0.50), len(low.latencies)),
        "latency_high_p50_ms": (high.p(0.50), len(high.latencies)),
        "latency_high_p95_ms": (high.p(0.95), len(high.latencies)),
        "peak_rss_mb": (rss_mb, 1),
    }


def run(workload: str, seed: int, seconds: float, trace: int, quick: bool) -> dict:
    # The "window N missed its deadline" warnings flood stderr at xlarge.
    logging.disable(logging.WARNING)
    spec = SPECS[workload].quick() if quick else SPECS[workload]
    wl = Workload(spec, seed)
    tally = phases.Tally()
    gc.collect()
    catalogue: List[Metric] = PER_LAYER if trace else END_TO_END
    if trace:
        rows = {k: (v, 1) for k, v in layers.per_layer_run(wl, seconds, tally).items()}
    else:
        rows = end_to_end_run(wl, seconds, tally)
    print(f"# {workload} seed={seed} seconds={seconds:g} trace={trace}")
    for metric in catalogue:
        value, samples = rows[metric.name]
        print(f"{metric.name:<34} {value:>16.6g} {metric.unit:<6} n={samples}")
    for note in tally.notes:
        print(f"! {note}")
    return {
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {
            m.name: {"value": rows[m.name][0], "unit": m.unit} for m in catalogue
        },
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(SPECS))
    parser.add_argument("--seed", type=int, default=7)
    parser.add_argument("--seconds", type=float, default=20.0,
                        help="how long one run measures")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--quick", action="store_true",
                        help="seconds-long sizes for the self-tests; not for claims")
    parser.add_argument("--selfcheck", action="store_true",
                        help="run every workload twice and compare the two sets")
    parser.add_argument("--label", default="dev",
                        help="--selfcheck writes results/<label>/set{1,2}.json")
    args = parser.parse_args(argv)
    if args.selfcheck:
        from e2ebench.selfcheck import selfcheck

        return selfcheck(args.seed, args.seconds, args.quick, HERE / "results" / args.label)
    if args.workload is None:
        parser.error("--workload is required (or --selfcheck)")
    result = run(args.workload, args.seed, args.seconds, args.trace, args.quick)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
