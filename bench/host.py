"""Host facts and ``/proc`` readings (Linux): CPU seconds, RSS, children."""

from __future__ import annotations

import os
import platform
import subprocess
from typing import Any, Dict, List

from bench import ROOT

_TICKS = os.sysconf("SC_CLK_TCK")


def cpu_seconds(pid: int) -> float:
    """User + system CPU seconds process *pid* has used so far."""
    with open(f"/proc/{pid}/stat", "r", encoding="ascii") as handle:
        # The command name may contain spaces; fields restart after ')'.
        fields = handle.read().rsplit(")", 1)[1].split()
    return (int(fields[11]) + int(fields[12])) / _TICKS


def _status_kb(pid: Any, field: str) -> int:
    """One kB-valued field of ``/proc/<pid>/status`` (0 if absent)."""
    with open(f"/proc/{pid}/status", "r", encoding="ascii") as handle:
        for line in handle:
            if line.startswith(field + ":"):
                return int(line.split()[1])
    return 0


def peak_rss_mb(pid: int) -> float:
    """High-water-mark resident set of process *pid*, in MB."""
    return _status_kb(pid, "VmHWM") / 1024.0


def current_rss_bytes() -> int:
    """Current resident set of this process, in bytes."""
    return _status_kb("self", "VmRSS") * 1024


def child_pids(pid: int) -> List[int]:
    """Live direct children of process *pid* (zombies excluded)."""
    children = []
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        try:
            with open(f"/proc/{entry}/stat", "r", encoding="ascii") as handle:
                fields = handle.read().rsplit(")", 1)[1].split()
        except OSError:
            continue  # exited while we were listing
        if int(fields[1]) == pid and fields[0] != "Z":
            children.append(int(entry))
    return children


def tree_peak_rss_mb() -> float:
    """Peak RSS summed over this process and its live direct children.

    Call it before stopping shard workers or the server child. Pages a
    forked worker still shares with its parent count once per process.
    """
    own = os.getpid()
    total = peak_rss_mb(own)
    for pid in child_pids(own):
        try:
            total += peak_rss_mb(pid)
        except OSError:
            pass
    return total


def _git(*args: str) -> str:
    try:
        done = subprocess.run(
            ("git", "-C", str(ROOT)) + args,
            capture_output=True, text=True, timeout=10, check=False,
        )
    except (OSError, subprocess.TimeoutExpired):
        return ""
    return done.stdout.strip() if done.returncode == 0 else ""


def host_facts() -> Dict[str, Any]:
    """What a reader needs to judge where a number came from."""
    try:
        import numpy
        numpy_version = numpy.__version__
    except ImportError:
        numpy_version = None
    revision = _git("rev-parse", "HEAD")
    return {
        "cpu_count": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "load_average": list(os.getloadavg()),
        "python": platform.python_version(),
        "numpy": numpy_version,
        "platform": platform.platform(),
        "git_rev": revision or "unknown",
        "git_dirty": bool(_git("status", "--porcelain")) if revision else None,
    }
