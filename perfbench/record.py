"""What every result carries besides its metrics, and where it is kept.

* the set-up record (core count, backend, shards x workers, journal
  filesystem, Python and numpy versions) -- results from different
  set-ups are not compared;
* a machine-speed probe, report only: a fixed CPU-bound loop timed in
  every run, so a slow or fast box shows next to the numbers it moved;
* the determinism guard: simulated metrics and output fingerprints of
  the first run of a (workload, seed, sources) key, which every later run
  of that key must reproduce bit for bit.

Everything is written under ``.perfbench/`` in the checkout.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import time
from pathlib import Path
from typing import Dict, List, Optional

#: Set-up fields two results must share before they are compared.
COMPARABLE = ("nproc", "backend", "topology")


def state_dir(root: Path) -> Path:
    return root / ".perfbench"


def filesystem_of(path: Path) -> str:
    """The filesystem type of the mount holding ``path`` (Linux)."""
    target = os.path.realpath(path)
    best, fstype = "", "unknown"
    try:
        with open("/proc/mounts") as mounts:
            for line in mounts:
                fields = line.split()
                if len(fields) < 3:
                    continue
                mount = fields[1].replace("\\040", " ")
                inside = target == mount or target.startswith(mount.rstrip("/") + "/")
                if inside and len(mount) > len(best):
                    best, fstype = mount, fields[2]
    except OSError:
        pass
    return fstype


def setup_record(journal_dir: Path) -> Dict[str, object]:
    import numpy

    return {
        "nproc": os.cpu_count(),
        "backend": "serial",
        # The traced run's cluster probe: one shard per core.
        "topology": f"{os.cpu_count()} shards x 1 worker",
        "journal_fs": filesystem_of(journal_dir),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
    }


def speed_probe(repeats: int = 3) -> Dict[str, float]:
    """Median wall and CPU seconds of a fixed pure-Python loop."""
    walls, cpus = [], []
    for _ in range(repeats):
        wall, cpu = time.perf_counter(), time.process_time()
        total = 0
        for i in range(1_000_000):
            total += i * i % 7
        walls.append(time.perf_counter() - wall)
        cpus.append(time.process_time() - cpu)
    walls.sort()
    cpus.sort()
    return {"wall_s": walls[repeats // 2], "cpu_s": cpus[repeats // 2]}


def cpu_steal_share(since: Optional[float] = None, seconds: float = 0.0) -> float:
    """CPU time stolen by the hypervisor (Linux ``/proc/stat``).

    Without ``since``: the cumulative steal in seconds.  With it: the
    share of all cores' time stolen during the ``seconds`` since then.
    """
    try:
        with open("/proc/stat") as stat:
            fields = stat.readline().split()
        total = int(fields[8]) / os.sysconf("SC_CLK_TCK")
    except (OSError, IndexError, ValueError):
        total = 0.0
    if since is None:
        return total
    return (total - since) / (seconds * (os.cpu_count() or 1)) if seconds > 0 else 0.0


def sources_digest(root: Path) -> str:
    """Digest of the program and benchmark sources: a guard key changes
    whenever the code that produces the simulated numbers does."""
    digest = hashlib.blake2b(digest_size=12)
    files: List[Path] = sorted((root / "src").rglob("*.py"))
    files += sorted(p for p in (root / "perfbench").glob("*.py"))
    for path in files:
        digest.update(str(path.relative_to(root)).encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


class Guard:
    """The first run of a key records; every later run must match it."""

    def __init__(self, root: Path, key: str) -> None:
        self.path = state_dir(root) / "guard" / f"{key}.json"

    def check(self, observed: Dict[str, object]) -> List[str]:
        """Mismatches against the recorded run (recording on first use)."""
        if not self.path.exists():
            self.path.parent.mkdir(parents=True, exist_ok=True)
            tmp = self.path.with_suffix(f".tmp{os.getpid()}")
            tmp.write_text(json.dumps(observed, sort_keys=True, indent=1))
            os.replace(tmp, self.path)
            return []
        recorded = json.loads(self.path.read_text())
        return [
            f"{name}: {observed.get(name)!r} != first run's {recorded.get(name)!r}"
            for name in sorted(set(recorded) | set(observed))
            if observed.get(name) != recorded.get(name)
        ]


def save_result(root: Path, result: Dict[str, object]) -> None:
    """Keep one run's full record for later comparison."""
    folder = state_dir(root) / "results" / str(result["workload"])
    folder.mkdir(parents=True, exist_ok=True)
    stamp = time.strftime("%Y%m%dT%H%M%S")
    path = folder / f"{stamp}-seed{result['seed']}-trace{result['trace']}-{os.getpid()}.json"
    path.write_text(json.dumps(result, sort_keys=True, indent=1))


def comparable(a: Dict[str, object], b: Dict[str, object]) -> List[str]:
    """Set-up fields on which two result records differ."""
    return [
        f"{field}: {a.get(field)!r} vs {b.get(field)!r}"
        for field in COMPARABLE
        if a.get(field) != b.get(field)
    ]

