"""Host-side plumbing shared by every process the benchmark starts.

Every entry point calls :func:`prepare` before anything imports numpy:
it pins the BLAS thread pools to one thread (BLAS libraries read the
variables when they load) and puts the repository's ``src`` on
``sys.path``.  A 2-CPU shared host with a multi-threaded BLAS is the
noise source PR 11's benchmark died of: the pool workers, the server
process and the load generator would all fight over the same two cores
with several BLAS threads each.
"""

from __future__ import annotations

import os
import platform
import subprocess
import sys

THREAD_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")

SUITE_DIR = os.path.dirname(os.path.abspath(__file__))
REPO_ROOT = os.path.dirname(os.path.dirname(SUITE_DIR))
SRC_DIR = os.path.join(REPO_ROOT, "src")
OUT_DIR = os.path.join(SUITE_DIR, "out")

_CLK_TCK = os.sysconf("SC_CLK_TCK")


def prepare():
    """Pin BLAS threads and make ``repro`` and the suite's own modules
    importable.  Child processes inherit the environment, so pool
    workers and the HTTP server process are pinned too."""
    for var in THREAD_VARS:
        os.environ[var] = "1"
    if not os.path.isdir(os.path.join(SRC_DIR, "repro")):
        # The benchmark measures the program in this checkout and
        # carries no copy of it: without it there is nothing to measure.
        sys.exit(f"benchmarks/suite: no program to measure -- "
                 f"{os.path.join(SRC_DIR, 'repro')} does not exist")
    for path in (SUITE_DIR, SRC_DIR):
        if path not in sys.path:
            sys.path.insert(0, path)


def out_path(name):
    """A path under the suite's git-ignored output directory."""
    os.makedirs(OUT_DIR, exist_ok=True)
    return os.path.join(OUT_DIR, name)


def cpu_seconds(pids):
    """User + system CPU seconds consumed so far by ``pids`` (read from
    ``/proc/<pid>/stat``; a process that has already exited counts 0)."""
    total = 0.0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/stat") as handle:
                # Fields after the parenthesised command name; utime and
                # stime are the 14th and 15th fields of the full line.
                fields = handle.read().rsplit(")", 1)[1].split()
        except (FileNotFoundError, ProcessLookupError):
            continue
        total += (int(fields[11]) + int(fields[12])) / _CLK_TCK
    return total


def peak_rss_mb(pids):
    """Sum of ``VmHWM`` (peak resident set) over ``pids``, in MB."""
    total_kb = 0
    for pid in pids:
        try:
            with open(f"/proc/{pid}/status") as handle:
                for line in handle:
                    if line.startswith("VmHWM:"):
                        total_kb += int(line.split()[1])
                        break
        except (FileNotFoundError, ProcessLookupError):
            continue
    return total_kb / 1024.0


def _cpu_model():
    try:
        with open("/proc/cpuinfo") as handle:
            for line in handle:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def _git_commit():
    """The checkout's commit, or ``"unknown"`` (the driver's checkout is
    not a git repository).  The ceiling keeps git from wandering into a
    repository that merely *contains* the checkout."""
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=os.path.dirname(REPO_ROOT))
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=REPO_ROOT,
                             env=env, capture_output=True, text=True,
                             timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return "unknown"
    return out.stdout.strip() if out.returncode == 0 else "unknown"


def fingerprint():
    """What a number from this host has to be read against."""
    import numpy as np

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = (f"{blas.get('name')} {blas.get('version')} "
                f"({blas.get('openblas configuration', '').strip()})")
    except (TypeError, KeyError, AttributeError):
        blas = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_model": _cpu_model(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "thread_env": {var: os.environ.get(var) for var in THREAD_VARS},
        "git_commit": _git_commit(),
    }
