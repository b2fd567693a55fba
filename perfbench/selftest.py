"""Self-tests of the benchmark harness, with deliberately planted defects.

    python3 perfbench/selftest.py            # all tests, about fifteen minutes
    python3 perfbench/selftest.py wrong-answer

* ``wrong-answer``: one planted wrong answer per workload must raise
  ``failed`` (and so failed_frac) and turn ``correct`` false.
* ``exhaustive-2x``: ``CoverageOracle.exhaustive`` does its work twice.
  The comparison must flag fp-exhaustive beyond a bound, leave do-lp
  within every bound, and traced runs must show
  ``kernels.exhaustive.self_ms`` per call grow at least 1.5x (median of
  three alternating traced runs per side).
* ``linprog-2x``: ``linprog`` does its work twice; do-lp is flagged,
  fp-exhaustive is not, and ``scipy.linprog.self_ms`` per call grows at
  least 1.5x.

The plants live in perfbench/run.py (``--plant``); nothing under src/
changes.
"""

from __future__ import annotations

import statistics
import sys
from typing import Dict, List

from compare import regressions, run

SECONDS = 10
SEEDS = (101, 102, 103)
TRACED_PAIRS = 3


def wrong_answer() -> List[str]:
    problems = []
    for workload, seconds in (("fp-exhaustive", 3), ("do-lp", 3),
                              ("serve-mixed", 6)):
        base = run(workload, 1, seconds)
        bad = run(workload, 1, seconds, plant="wrong-answer")
        base_frac = base["failed"] / base["attempted"]
        bad_frac = bad["failed"] / bad["attempted"]
        print(f"  {workload}: failed_frac {base_frac:.4f} -> {bad_frac:.4f}, "
              f"correct {base['correct']} -> {bad['correct']}")
        if not base["correct"] or bad["correct"] or bad_frac <= base_frac:
            problems.append(f"{workload}: planted wrong answer not caught")
    return problems


def planted(plant: str, slowed: str, steady: str, layer: str) -> List[str]:
    problems = []
    base: Dict[str, list] = {slowed: [], steady: []}
    cand: Dict[str, list] = {slowed: [], steady: []}
    for i, seed in enumerate(SEEDS):
        for workload in (slowed, steady):
            # Alternate which side runs first, so drift in the host's
            # speed does not favour one side.
            sides = [(base, None), (cand, plant)]
            for store, which in (sides if i % 2 == 0 else sides[::-1]):
                store[workload].append(run(workload, seed, SECONDS,
                                           plant=which))
    flagged = regressions(base[slowed], cand[slowed])
    quiet = regressions(base[steady], cand[steady])
    print(f"  {slowed} flagged: {flagged}")
    print(f"  {steady} flagged: {quiet}")
    if not flagged:
        problems.append(f"{plant}: {slowed} not flagged")
    if quiet:
        problems.append(f"{plant}: {steady} flagged {quiet}")

    # Per-call self time of the planted layer, base and planted traced
    # runs alternating: the host's speed drifts over minutes, so the
    # sides take turns and each is summarized by its median.
    per_call: Dict[str, list] = {"base": [], "planted": []}
    for i in range(TRACED_PAIRS):
        sides = [("base", None), ("planted", plant)]
        for side, which in (sides if i % 2 == 0 else sides[::-1]):
            m = run(slowed, SEEDS[0], SECONDS, trace=1, plant=which)["metrics"]
            per_call[side].append(m[f"{layer}.self_ms"]["value"] /
                                  m[f"{layer}.calls"]["value"])
    base_ms = statistics.median(per_call["base"])
    planted_ms = statistics.median(per_call["planted"])
    print(f"  {layer}.self_ms per call: {base_ms:.4f} -> {planted_ms:.4f} ms "
          f"(x{planted_ms / base_ms:.2f})")
    if planted_ms < 1.5 * base_ms:
        problems.append(f"{plant}: {layer}.self_ms per call did not grow")
    return problems


TESTS = {
    "wrong-answer": wrong_answer,
    "exhaustive-2x": lambda: planted("exhaustive-2x", "fp-exhaustive",
                                     "do-lp", "kernels.exhaustive"),
    "linprog-2x": lambda: planted("linprog-2x", "do-lp", "fp-exhaustive",
                                  "scipy.linprog"),
}


def main(names: List[str]) -> int:
    failures = []
    for name in names or list(TESTS):
        print(f"{name}:", flush=True)
        problems = TESTS[name]()
        print(f"{name}: {'FAIL' if problems else 'PASS'}", flush=True)
        failures += problems
    for problem in failures:
        print(f"  {problem}")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
