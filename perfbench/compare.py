"""Compare two sets of benchmark results, workload by workload.

Usage::

    python3 perfbench/compare.py BASE_RESULTS NEW_RESULTS

Each argument is a ``.perfbench/results`` directory (or a copy of one).
Only correct, untraced, full-size runs count.  Results recorded on a
different set-up -- core count, backend, shards x workers -- are refused
rather than compared.  For every end-to-end metric the new median is
checked against the base median with the bound from ``BENCHMARK.json``;
a metric whose own spread exceeds its bound is reported as unresolved.
"""

from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path
from typing import Dict, List

ROOT = Path(__file__).resolve().parent.parent
sys.path[:1] = [str(ROOT)]

from perfbench.record import comparable  # noqa: E402
from perfbench.summary import quartile_spread  # noqa: E402


def load(folder: Path) -> Dict[str, List[dict]]:
    runs: Dict[str, List[dict]] = {}
    for path in sorted(folder.rglob("*.json")):
        result = json.loads(path.read_text())
        if result.get("trace") == 0 and not result.get("tiny") and result.get("correct"):
            runs.setdefault(result["workload"], []).append(result)
    return runs


def main(argv: List[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    base, new = (load(Path(arg)) for arg in argv)
    status = 0
    for workload in sorted(set(base) & set(new)):
        mismatch = sorted({p for a in base[workload] for b in new[workload] for p in comparable(a, b)})
        if mismatch:
            print(f"{workload}: refused, set-ups differ: {'; '.join(mismatch)}")
            status = 2
            continue
        print(f"{workload}: {len(base[workload])} base runs, {len(new[workload])} new runs")
        for metric in spec["end_to_end"]:
            name, bound = metric["name"], metric["bound"]
            if any(name not in r["metrics"] for r in base[workload] + new[workload]):
                print(f"  {name:16s} missing from some runs")
                continue
            old = [r["metrics"][name]["value"] for r in base[workload]]
            now = [r["metrics"][name]["value"] for r in new[workload]]
            old_median, new_median = statistics.median(old), statistics.median(now)
            change = (new_median - old_median) / old_median if old_median else 0.0
            worse = change > bound if metric["better"] == "lower" else change < -bound
            spread = max(
                quartile_spread(old) if len(old) > 1 else 0.0,
                quartile_spread(now) if len(now) > 1 else 0.0,
            )
            if spread > bound:
                # Too noisy to call, unless every new run beats every base run.
                better = min(now) > max(old) if metric["better"] == "higher" else max(now) < min(old)
                verdict = "better" if better else "unresolved"
            else:
                verdict = "WORSE" if worse else "ok"
                status = max(status, int(worse))
            print(f"  {name:16s} {old_median:12.5g} -> {new_median:12.5g} {metric['unit']:5s} "
                  f"{100 * change:+7.2f}% (bound {100 * bound:.0f}%, spread {100 * spread:.1f}%) {verdict}")
    return status


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
