"""Order statistics and the benchmark file's naming rules.

Pure functions over plain numbers, shared by the runner, the comparison
tool and the tests.
"""

from __future__ import annotations

import math
import re
import statistics
from typing import Dict, List, Sequence, Tuple

#: Percentiles the tail rule may pick from, lowest first.  A fixed ladder
#: keeps the reported percentile the same across runs whose op counts
#: differ a little, so tails of two runs compare like for like.
TAIL_LADDER = (50.0, 90.0, 95.0, 99.0, 99.9)

#: Ops that must lie beyond the reported tail percentile.
TAIL_BEYOND = 10

NAME_RE = re.compile(r"^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$")
UNIT_RE = re.compile(r"^[A-Za-z0-9_/%.-]{1,16}$")
PATH_RE = re.compile(r"^[A-Za-z0-9_./-]{1,200}$")


def nearest_rank(ordered: Sequence[float], percentile: float) -> Tuple[float, int]:
    """Nearest-rank percentile of sorted values and how many lie beyond it."""
    n = len(ordered)
    if n == 0:
        raise ValueError("no values")
    # Rounded first: 99.9 / 100 * 10000 is 9990.000000000002 in floats.
    rank = max(1, math.ceil(round(percentile * n / 100.0, 6)))
    return ordered[rank - 1], n - rank


def tail(values: Sequence[float]) -> Tuple[float, float, int]:
    """``(value, percentile, beyond)`` at the highest ladder percentile
    that leaves at least :data:`TAIL_BEYOND` values beyond it.

    With too few values for any rung, the lowest rung (the median) is
    reported with however many values lie beyond it.
    """
    ordered = sorted(values)
    chosen = TAIL_LADDER[0]
    for percentile in TAIL_LADDER:
        if nearest_rank(ordered, percentile)[1] >= TAIL_BEYOND:
            chosen = percentile
    value, beyond = nearest_rank(ordered, chosen)
    return value, chosen, beyond


def geomean(values: Sequence[float]) -> float:
    """Geometric mean of the positive values (zeros carry no ratio)."""
    positive = [v for v in values if v > 0]
    if not positive:
        raise ValueError("geometric mean of no positive values")
    return math.exp(sum(math.log(v) for v in positive) / len(positive))


def quartile_spread(values: Sequence[float]) -> float:
    """Interquartile distance as a share of the median."""
    q1, median, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / median if median else math.inf


def check_spec(spec: Dict) -> List[str]:
    """Problems with a ``BENCHMARK.json`` document (empty when valid)."""
    problems: List[str] = []
    keys = {"command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    if set(spec) != keys:
        problems.append(f"top-level keys {sorted(spec)} != {sorted(keys)}")
        return problems
    command = spec["command"]
    if not (1 <= len(command) <= 32) or any(
        not isinstance(part, str) or len(part) > 200 or part.startswith("/")
        or ".." in part.split("/")
        for part in command
    ):
        problems.append("command must be 1..32 relative strings of <= 200 chars")
    paths = spec["paths"]
    if not (1 <= len(paths) <= 16) or any(
        not PATH_RE.match(p) or p.startswith("/") or ".." in p.split("/")
        for p in paths
    ):
        problems.append("paths must be 1..16 relative directory names")
    seconds = spec["run_seconds"]
    if not isinstance(seconds, int) or not 1 <= seconds <= 60:
        problems.append("run_seconds must be a whole number in 1..60")
    seen = set()

    def name_ok(name: str, where: str) -> None:
        if not isinstance(name, str) or not NAME_RE.match(name):
            problems.append(f"{where}: invalid name {name!r}")
        elif name in seen:
            problems.append(f"{where}: name {name!r} used twice")
        seen.add(name)

    workloads = spec["workloads"]
    if not 2 <= len(workloads) <= 8:
        problems.append("there must be 2..8 workloads")
    for entry in workloads:
        if set(entry) != {"name", "why"}:
            problems.append(f"workload keys {sorted(entry)}")
            continue
        name_ok(entry["name"], "workload")
        why = entry["why"]
        if not why or len(why) > 200 or "\n" in why:
            problems.append(f"workload {entry['name']}: why must be one line <= 200")
    for group, keys_wanted, low, high in (
        ("end_to_end", {"name", "unit", "better", "bound"}, 1, 16),
        ("per_layer", {"name", "unit", "better"}, 1, 128),
    ):
        metrics = spec[group]
        if not low <= len(metrics) <= high:
            problems.append(f"{group} must hold {low}..{high} metrics")
        for metric in metrics:
            if set(metric) != keys_wanted:
                problems.append(f"{group} metric keys {sorted(metric)}")
                continue
            name_ok(metric["name"], group)
            if not UNIT_RE.match(metric["unit"]):
                problems.append(f"{metric['name']}: invalid unit {metric['unit']!r}")
            if metric["better"] not in ("lower", "higher"):
                problems.append(f"{metric['name']}: better must be lower|higher")
            if group == "end_to_end" and not 0 < metric["bound"] <= 0.25:
                problems.append(f"{metric['name']}: bound must be in (0, 0.25]")
    setup = [m for m in spec["end_to_end"] if m.get("name") == "setup_s"]
    if not setup or setup[0]["unit"] != "s" or setup[0]["better"] != "lower":
        problems.append("end_to_end needs setup_s in s, lower is better")
    elif any(m["bound"] > setup[0]["bound"] for m in spec["end_to_end"]):
        problems.append("setup_s must carry the largest bound")
    return problems
