"""Timing statistics and the provenance envelope every record carries."""

from __future__ import annotations

import math
import os
import pathlib
import platform
import shutil
import statistics
import subprocess
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parents[2]

#: Which statistic of a repeated wall-clock op makes the reported number: the
#: fastest repetition.  This box is a shared microVM whose noise only ever
#: adds time: in a two-minute probe of one fixed 10 ms job, the medians of
#: successive 10 s blocks ranged from 11.5 to 22.5 ms (steal was 32 % of a
#: core) while the block minima stayed within 8.6-11.3 ms.  Records keep n,
#: minimum, median and quartiles, so the median-based number can be rebuilt.
BEST = "min"
THREAD_ENV = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")


def summarize(values) -> dict:
    """n, minimum, median and quartiles of one wall-clock sample set."""
    values = [float(v) for v in values]
    if len(values) >= 2:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = values[0]
    return {"n": len(values), "min": min(values), "median": statistics.median(values), "q1": q1, "q3": q3}


def nearest_rank(ordered, q: float) -> float:
    """Nearest-rank percentile of an ascending sequence (0 < q <= 100)."""
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def _git(*args: str) -> str | None:
    if not (REPO_ROOT / ".git").exists() or shutil.which("git") is None:
        return None  # the driver's checkout is not a git repository
    try:
        proc = subprocess.run(
            ["git", "-C", str(REPO_ROOT), *args], capture_output=True, text=True, timeout=30, check=False
        )
    except (OSError, subprocess.SubprocessError):
        return None
    return proc.stdout.strip() if proc.returncode == 0 else None


def _cpu_model() -> str:
    try:
        for line in pathlib.Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _compiler_id() -> str | None:
    cc = os.environ.get("CC") or next((c for c in ("cc", "gcc", "clang") if shutil.which(c)), None)
    if cc is None or shutil.which(cc) is None:
        return None
    try:
        out = subprocess.run([cc, "--version"], capture_output=True, text=True, timeout=30, check=False).stdout
    except (OSError, subprocess.SubprocessError):
        return cc
    return out.splitlines()[0].strip() if out else cc


def provenance(seed: int, seconds: float, smoke: bool) -> dict:
    """Enough context to explain a delta between two records."""
    import numpy

    from repro.gf import current_kernel_choice, native_available, native_unavailable_reason

    status = _git("status", "--porcelain")
    return {
        "git_sha": _git("rev-parse", "HEAD"),
        "git_dirty": None if status is None else bool(status),
        "cpu_model": _cpu_model(),
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "compiler": _compiler_id(),
        "native_available": native_available(),
        "native_unavailable_reason": native_unavailable_reason(),
        "kernel_choice": current_kernel_choice(),
        "thread_env": {name: os.environ.get(name) for name in THREAD_ENV},
        "seed": seed,
        "seconds": seconds,
        "smoke": smoke,
        "argv": sys.argv[1:],
    }
