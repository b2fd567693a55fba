"""Run the benchmark several times and judge spreads and regressions.

    python3 perfbench/compare.py spread --workload do-lp --seeds 1-10

runs ``perfbench/run.py`` once per seed and prints, for each end-to-end
metric, the median and the quartile spread (Q3 − Q1 over the median, as
``statistics.quantiles(values, n=4)`` gives the quartiles) next to the
metric's bound from BENCHMARK.json.  :func:`regressions` is the
comparison the planted-slowdown self-test uses.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
from typing import Any, Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def spec() -> Dict[str, Any]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        return json.load(f)


def run(workload: str, seed: int, seconds: float, trace: int = 0,
        plant: Optional[str] = None) -> Dict[str, Any]:
    """One benchmark run; returns its result object."""
    cmd = [sys.executable, os.path.join(HERE, "run.py"), "--workload",
           workload, "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    if plant is not None:
        cmd += ["--plant", plant]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          timeout=600)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def values(results: List[Dict[str, Any]], name: str) -> List[float]:
    return [r["metrics"][name]["value"] for r in results]


def spread(vals: List[float]) -> float:
    """Quartile distance as a share of the median."""
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return (q3 - q1) / statistics.median(vals)


def worse_by(base: float, cand: float, better: str) -> float:
    """How much worse ``cand`` is than ``base``, as a share of ``base``."""
    change = (cand - base) / base
    return change if better == "lower" else -change


def regressions(base: List[Dict[str, Any]], cand: List[Dict[str, Any]],
                skip: tuple = ("setup_s",)) -> Dict[str, float]:
    """End-to-end metrics whose candidate median is worse than the base
    median by more than the metric's bound: name -> share worse."""
    out = {}
    for metric in spec()["end_to_end"]:
        name = metric["name"]
        if name in skip:
            continue
        share = worse_by(statistics.median(values(base, name)),
                         statistics.median(values(cand, name)),
                         metric["better"])
        if share > metric["bound"]:
            out[name] = share
    return out


def _seeds(text: str) -> List[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)
    p = sub.add_parser("spread", help="run seeds, report medians and spreads")
    p.add_argument("--workload", required=True)
    p.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    p.add_argument("--seconds", type=float, default=None,
                   help="default: run_seconds from BENCHMARK.json")
    args = parser.parse_args()
    seconds = args.seconds or spec()["run_seconds"]
    results = []
    for seed in _seeds(args.seeds):
        result = run(args.workload, seed, seconds)
        results.append(result)
        print(f"seed {seed}: correct={result['correct']} attempted="
              f"{result['attempted']} failed={result['failed']} " +
              " ".join(f"{k}={v['value']:.4f}"
                       for k, v in result["metrics"].items()), flush=True)
    for metric in spec()["end_to_end"]:
        vals = values(results, metric["name"])
        print(f"{metric['name']:16s} median {statistics.median(vals):10.4f} "
              f"spread {spread(vals):.4f} bound {metric['bound']}")
    return 0 if all(r["correct"] for r in results) else 1


if __name__ == "__main__":
    sys.exit(main())
